//! Order statistics, seed derivation and the open-loop arrival schedule.
//!
//! Everything here is the benchmark's own: inputs must not change when the
//! library's RNG or statistics helpers change.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie beyond
/// its nearest rank; otherwise the tail is too thin to be a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond the rank (which includes the empty set).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest percentile `<= q_max` from a fixed ladder that has enough
/// samples beyond it, as `(q, value)`.
pub fn tail(sorted: &[f64], q_max: f64) -> Option<(f64, f64)> {
    [0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .filter(|&q| q <= q_max)
        .find_map(|q| percentile(sorted, q).map(|v| (q, v)))
}

/// Median of unsorted samples (mean of the middle pair for even counts);
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sorts samples ascending for [`percentile`] and [`tail`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// SplitMix64 finalizer: a bijective mix of one word.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th value of stream `stream` under run seed `seed`.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    mix(mix(seed ^ mix(stream)).wrapping_add(i))
}

/// Arrival offsets of a Poisson process with `rate_per_s` arrivals per
/// second over `span`, reproducible from `seed`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    for i in 0.. {
        // Uniform in (0, 1]: 53 high bits, shifted off zero.
        let u = ((derive(seed, 0x9015_5011, i) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate_per_s;
        if t >= span.as_secs_f64() {
            break;
        }
        out.push(Duration::from_secs_f64(t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // 999 samples: rank 990 leaves 9 beyond, too few for a p99.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..999], 0.95), Some(950.0));
        // 20 samples: p50 has exactly ten beyond; 19 leave nine.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some((0.95, 190.0)));
        assert_eq!(tail(&v[..15], 0.99), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn poisson_schedule_is_reproducible_from_its_seed() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(7, 300.0, span);
        let b = poisson_schedule(7, 300.0, span);
        let c = poisson_schedule(8, 300.0, span);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < span));
        // 600 expected arrivals; a Poisson count is within 5 sigma of that.
        assert!((475..=725).contains(&a.len()), "{} arrivals", a.len());
    }
}
