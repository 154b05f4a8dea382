//! Host context recorded next to every run: CPU steal, load, CPU count and the
//! process's peak resident set.  These explain a slow or noisy run; they are not
//! metrics of the program.

/// Steal ticks of the aggregate `cpu` line of `/proc/stat` (0 where unavailable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The first three fields of `/proc/loadavg` ("?" where unavailable).
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").ok().map_or_else(
        || "?".to_string(),
        |s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "),
    )
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set size of this process (`VmHWM`), in MB (0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}
