//! Host readings: resident memory and CPU time.

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Current resident set, MiB (0 where `/proc` is unavailable).
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:").map_or(0.0, |k| k as f64 / 1024.0)
}

/// Peak resident set so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    pdos_bench::perf::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// User + system CPU seconds of the whole process, every thread included
/// (`/proc/self/stat`, clock-tick resolution).
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        // The kernel reports in USER_HZ, which is 100 on Linux.
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}
