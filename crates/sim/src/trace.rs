//! Rollback-aware deterministic traces.
//!
//! Correctness of the optimistic protocol is stated as a trace property: the
//! committed per-cycle bus signal values of a split co-emulation must be
//! bit-identical to a monolithic golden simulation. [`Trace`] packs the
//! per-cycle records flat into fixed-size chunks with one span per record, so
//! recording a cycle allocates only when a chunk fills. It supports
//! *truncation back to a mark* (so a leader can discard speculative records on
//! rollback), and hashes with FNV-1a for cheap equality assertions in tests
//! and benches.

use std::fmt;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Words per trace chunk (1 KiB). Small fixed chunks keep a long trace from
/// becoming one large buffer that grows by copying. Their size also decides
/// what a freed trace leaves the allocator: session builds that follow freed
/// 4 KiB chunks ran ~20% slower than after the one-`Vec`-per-record layout,
/// builds after 1 KiB chunks as fast.
const CHUNK_WORDS: usize = 128;

/// Folds `w`'s little-endian bytes into the FNV-1a state `h`.
fn fnv_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a word slice with 64-bit FNV-1a (byte-serialized little-endian).
///
/// Deterministic across platforms; used to fingerprint traces without keeping
/// the full record around.
pub fn fnv1a64(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, &w| fnv_word(h, w))
}

/// A position in a [`Trace`] captured by [`Trace::mark`], used to truncate
/// speculative records on rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceMark(usize);

/// Where one record's words lie: `chunks[chunk][start..start + len]`.
#[derive(Debug, Clone, Copy)]
struct Span {
    chunk: u32,
    start: u32,
    len: u32,
}

/// An append-only, truncatable record of per-cycle values.
///
/// # Example
///
/// ```
/// use predpkt_sim::Trace;
/// let mut trace = Trace::new();
/// trace.record([1, 2, 3]);
/// let mark = trace.mark();
/// trace.record(vec![4, 5, 6]); // speculative
/// trace.truncate(mark);        // rolled back
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Trace {
    /// Record words. A record never straddles two chunks: one that outgrows
    /// the space left in a chunk moves to a fresh one. Chunks fill only up to
    /// the capacity they were made with; only a record wider than a whole
    /// chunk grows one.
    chunks: Vec<Vec<u64>>,
    /// One span per record, in cycle order.
    spans: Vec<Span>,
    /// An emptied chunk kept by the last truncation, so a rollback across a
    /// chunk border does not reallocate the chunk its replay refills.
    spare: Vec<u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one per-cycle record.
    ///
    /// # Panics
    ///
    /// Panics if the trace outgrows `u32` chunk or word indices.
    pub fn record(&mut self, values: impl IntoIterator<Item = u64>) {
        if self.chunks.is_empty() {
            self.chunks.push(Vec::with_capacity(CHUNK_WORDS));
        }
        let last = self.chunks.len() - 1;
        let words = &mut self.chunks[last];
        let start = words.len();
        // Words past the chunk's room spill into the spare chunk.
        let spill = &mut self.spare;
        values.into_iter().for_each(|w| {
            if words.len() < words.capacity() && spill.is_empty() {
                words.push(w);
            } else {
                if spill.capacity() == 0 {
                    spill.reserve_exact(CHUNK_WORDS);
                }
                spill.push(w);
            }
        });
        let (chunk, start) = if spill.is_empty() {
            (last, start)
        } else if start == 0 {
            // The record fills a chunk of its own: grow it in place.
            words.append(spill);
            (last, 0)
        } else {
            // Move the whole record to a fresh chunk.
            let mut fresh = std::mem::take(spill);
            fresh.splice(0..0, words.drain(start..));
            self.chunks.push(fresh);
            (last + 1, 0)
        };
        let index = |v: usize| u32::try_from(v).expect("trace index fits u32");
        self.spans.push(Span {
            chunk: index(chunk),
            start: index(start),
            len: index(self.chunks[chunk].len() - start),
        });
    }

    /// The number of recorded cycles.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Captures the current length as a rollback mark.
    pub fn mark(&self) -> TraceMark {
        TraceMark(self.spans.len())
    }

    /// Discards every record after `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the current length (marks from a *different*
    /// trace or after records were already truncated).
    pub fn truncate(&mut self, mark: TraceMark) {
        assert!(
            mark.0 <= self.spans.len(),
            "trace mark beyond current length"
        );
        self.truncate_to_len(mark.0);
    }

    /// Keeps only the first `len` records (no-op if already shorter). Useful
    /// for comparing a run that overshot against a shorter reference.
    pub fn truncate_to_len(&mut self, len: usize) {
        if len >= self.spans.len() {
            return;
        }
        self.spans.truncate(len);
        // Keep the chunk the last record ends in (or the first chunk of an
        // emptied trace) with its capacity, so replay refills it in place.
        let (chunk, end) = self
            .spans
            .last()
            .map_or((0, 0), |s| (s.chunk as usize, (s.start + s.len) as usize));
        if let Some(mut next) = self.chunks.drain(chunk + 1..).next() {
            next.clear();
            self.spare = next;
        }
        self.chunks[chunk].truncate(end);
    }

    /// Borrows the record of cycle `index`.
    pub fn get(&self, index: usize) -> Option<&[u64]> {
        self.spans.get(index).map(|s| self.words(s))
    }

    /// Iterates over all committed records.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        self.spans.iter().map(|s| self.words(s))
    }

    fn words(&self, s: &Span) -> &[u64] {
        let start = s.start as usize;
        &self.chunks[s.chunk as usize][start..start + s.len as usize]
    }

    /// A 64-bit fingerprint of the whole trace (length-prefixed per record, so
    /// record boundaries matter).
    pub fn hash(&self) -> u64 {
        self.iter().fold(FNV_OFFSET, |h, rec| {
            rec.iter()
                .fold(fnv_word(h, rec.len() as u64), |h, &w| fnv_word(h, w))
        })
    }

    /// Returns the first cycle index at which `self` and `other` differ, or
    /// `None` if one is a prefix of the other (compare lengths separately) or
    /// they are equal.
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        self.iter().zip(other.iter()).position(|(a, b)| a != b)
    }
}

/// Two traces are equal when they hold the same records, however their
/// chunks happen to be laid out.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trace[{} cycles, hash={:016x}]", self.len(), self.hash())
    }
}

/// Whole-trace serialization for session checkpoints. The committed trace is
/// deliberately *outside* every [`DomainModel`-level](crate::Snapshot)
/// snapshot (rollback truncates it with marks instead), so a whole-session
/// checkpoint captures it through this impl. The words are the record count,
/// then each record as a length-prefixed slice.
impl crate::Snapshot for Trace {
    fn save(&self, w: &mut crate::StateWriter<'_>) {
        w.usize(self.len());
        for rec in self.iter() {
            w.slice(rec);
        }
    }

    fn restore(&mut self, r: &mut crate::StateReader<'_>) -> Result<(), crate::SnapshotError> {
        let n = r.usize()?;
        let mut trace = Trace::new();
        trace.spans.reserve(n.min(1 << 20));
        for _ in 0..n {
            trace.record(r.borrow_slice()?.iter().copied());
        }
        *self = trace;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Empty input hashes to the offset basis.
        assert_eq!(fnv1a64(&[]), FNV_OFFSET);
        // Deterministic and input-sensitive.
        assert_ne!(fnv1a64(&[1]), fnv1a64(&[2]));
        assert_eq!(fnv1a64(&[1, 2, 3]), fnv1a64(&[1, 2, 3]));
    }

    #[test]
    fn record_and_get() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.record(vec![10, 20]);
        t.record(vec![30]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), Some(&[10u64, 20][..]));
        assert_eq!(t.get(1), Some(&[30u64][..]));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn truncate_discards_speculation() {
        let mut t = Trace::new();
        t.record(vec![1]);
        let mark = t.mark();
        t.record(vec![2]);
        t.record(vec![3]);
        t.truncate(mark);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0), Some(&[1u64][..]));
    }

    #[test]
    fn truncate_to_current_mark_is_noop() {
        let mut t = Trace::new();
        t.record(vec![1]);
        let mark = t.mark();
        t.truncate(mark);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "trace mark beyond current length")]
    fn stale_mark_panics() {
        let mut t = Trace::new();
        t.record(vec![1]);
        let mark = t.mark();
        t.truncate(TraceMark(0));
        t.truncate(mark); // mark now beyond length
    }

    #[test]
    fn hash_differs_on_boundary_moves() {
        let mut a = Trace::new();
        a.record(vec![1, 2]);
        a.record(vec![3]);
        let mut b = Trace::new();
        b.record(vec![1]);
        b.record(vec![2, 3]);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn hash_equal_for_equal_traces() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        for i in 0..100u64 {
            a.record(vec![i, i * 2]);
            b.record(vec![i, i * 2]);
        }
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a, b);
    }

    #[test]
    fn first_divergence_found() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        a.record(vec![1]);
        b.record(vec![1]);
        a.record(vec![2]);
        b.record(vec![9]);
        assert_eq!(a.first_divergence(&b), Some(1));
        b.truncate(TraceMark(1));
        assert_eq!(a.first_divergence(&b), None); // prefix relation
    }

    #[test]
    fn display_shows_len_and_hash() {
        let mut t = Trace::new();
        t.record(vec![5]);
        let s = t.to_string();
        assert!(s.contains("1 cycles"));
        assert!(s.contains("hash="));
    }

    /// 1500 records of widths 1..=13, plus one empty record and one record
    /// wider than a chunk, so records land on every side of chunk borders.
    fn mixed() -> Trace {
        let mut t = Trace::new();
        for i in 0..1500u64 {
            let width = match i {
                700 => 0,
                900 => 1300,
                _ => 1 + i * 7 % 13,
            };
            t.record((0..width).map(|j| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ j));
        }
        t
    }

    fn expected(i: u64) -> Vec<u64> {
        let width = match i {
            700 => 0,
            900 => 1300,
            _ => 1 + i * 7 % 13,
        };
        (0..width)
            .map(|j| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ j)
            .collect()
    }

    #[test]
    fn mixed_widths_read_back_across_chunks() {
        let t = mixed();
        assert_eq!(t.len(), 1500);
        assert!(t.chunks.len() > 10, "the records span many chunks");
        for (i, rec) in t.iter().enumerate() {
            assert_eq!(rec, &expected(i as u64)[..], "record {i}");
        }
    }

    /// `hash`, `first_divergence` and the checkpoint words agree with values
    /// pinned from the one-`Vec`-per-record layout this one replaced.
    #[test]
    fn fingerprints_match_the_per_record_layout() {
        let t = mixed();
        assert_eq!(t.hash(), 0x8845_0789_c59b_a6e6);
        let blob = crate::save_to_vec(&t);
        assert_eq!(blob.len(), 13267);
        assert_eq!(fnv1a64(blob.words()), 0x23d8_6c3c_a3a8_bcfd);
        let mut u = mixed();
        u.truncate(TraceMark(1234));
        u.record(vec![1, 2, 3]);
        assert_eq!(u.hash(), 0x7f45_5a5f_9254_e015);
        assert_eq!(t.first_divergence(&u), Some(1234));
        assert_ne!(t, u);
    }

    #[test]
    fn truncation_across_a_chunk_boundary_rerecords_identically() {
        let full = mixed();
        // Every record that opens a chunk, its neighbours, and the ends.
        let opens = (1..full.len()).filter(|&i| full.spans[i].chunk != full.spans[i - 1].chunk);
        let cuts: Vec<usize> = opens
            .flat_map(|i| [i - 1, i, i + 1])
            .chain([0, 1, 699, 700, 701, 899, 900, 901, 1499, 1500])
            .collect();
        assert!(cuts.len() > 30, "the cuts cross many chunk borders");
        for cut in cuts {
            let mut t = mixed();
            t.truncate(TraceMark(cut));
            assert_eq!(t.len(), cut);
            assert_eq!(t.first_divergence(&full), None, "cut {cut}");
            for i in cut as u64..1500 {
                t.record(expected(i));
            }
            assert_eq!(t, full, "cut {cut}");
            assert_eq!(t.hash(), full.hash(), "cut {cut}");
        }
    }

    #[test]
    fn equality_ignores_chunk_layout() {
        let t = mixed();
        // A clone's chunks are exactly full, so its next record starts a
        // fresh chunk where the original's would not.
        let mut a = t.clone();
        let mut b = t;
        a.record([7, 8]);
        b.record([7, 8]);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn snapshot_roundtrip_is_word_identical() {
        let t = mixed();
        let blob = crate::save_to_vec(&t);
        let mut back = Trace::new();
        back.record([99]);
        crate::restore_from_vec(&mut back, &blob).unwrap();
        assert_eq!(back, t);
        assert_eq!(crate::save_to_vec(&back), blob);
    }

    #[test]
    fn hostile_record_count_fails_without_reserving_it() {
        let mut blob = crate::StateVec::new();
        crate::StateWriter::new(&mut blob)
            .usize(1 << 40)
            .slice(&[1, 2]);
        let mut t = Trace::new();
        t.record([5]);
        let err = crate::restore_from_vec(&mut t, &blob).unwrap_err();
        assert!(
            matches!(err, crate::SnapshotError::Exhausted { .. }),
            "{err}"
        );
        assert_eq!(
            t.get(0),
            Some(&[5u64][..]),
            "a failed restore leaves the trace"
        );
        assert_eq!(t.len(), 1);
    }
}
