//! `/proc` readers: process CPU time at nanosecond resolution and peak
//! resident memory. Linux only; a missing file reads as 0 and the run
//! reports the metric as failed rather than guessing.

use std::fs;

/// CPU nanoseconds consumed so far by every *live* thread of this
/// process: the first field of each `/proc/self/task/*/schedstat`.
/// (`/proc/self/stat` ticks at 10 ms; a trial is ~100 ms.) A thread that
/// has exited no longer contributes, so take differences only across a
/// window in which no thread ends — a host trial is one.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns() > before);
        assert!(peak_rss_mib() > 0.5);
    }
}
