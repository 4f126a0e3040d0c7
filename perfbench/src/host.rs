//! What every result records about the host it ran on.

use std::fs;
use std::path::Path;

/// The host fingerprint printed with every result.
pub fn fingerprint() -> String {
    let allowed = std::thread::available_parallelism().map_or(1, |n| n.get());
    let online = online_cpus().unwrap_or(allowed);
    format!(
        "nproc={online} allowed_cpus={allowed} pinned={} cpu=\"{}\" rustc=\"{}\" commit={}",
        if allowed < online { "yes" } else { "no" },
        cpu_model().unwrap_or_else(|| "unknown".into()),
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "unknown".into()),
    )
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

fn online_cpus() -> Option<usize> {
    let list = fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    cpu_list_len(list.trim())
}

/// The lowest-numbered CPU this process may run on.
pub fn first_allowed_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    list.split([',', '-']).next()?.parse().ok()
}

/// Number of CPUs in a list such as `0-3,6`.
fn cpu_list_len(list: &str) -> Option<usize> {
    list.split(',').try_fold(0, |acc, part| {
        let n = match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => part.parse::<usize>().map(|_| 1).ok()?,
        };
        Some(acc + n)
    })
}

/// The checked-out commit, read from `.git` in the working directory (the
/// root of the checkout) without running git; `None` outside a repository.
fn git_commit() -> Option<String> {
    let git = Path::new(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singletons() {
        assert_eq!(cpu_list_len("0-3,6"), Some(5));
        assert_eq!(cpu_list_len("0"), Some(1));
        assert_eq!(cpu_list_len("x"), None);
    }
}
