//! The campaign benchmark: four workloads, end-to-end throughput and
//! time-to-verdict, and a per-layer ledger. See `README.md` for the
//! workloads, the metric definitions and how to run it.

pub mod alloc;
pub mod ledger;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Worker threads a run uses: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole host so far, from the first
/// line of `/proc/stat`; `(0, 0)` where the kernel does not report them.
/// Steal is time the hypervisor gave this VM's CPUs to someone else.
pub fn host_cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string));
    let ticks: Vec<u64> = line
        .iter()
        .flat_map(|l| l.split_whitespace().skip(1).take(8))
        .filter_map(|t| t.parse().ok())
        .collect();
    match ticks.get(7) {
        Some(&steal) => (steal, ticks.iter().sum()),
        None => (0, 0),
    }
}

/// A label for the host the result was measured on: the CPU model and
/// the host name.
pub fn host_label() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!("{cpu} @ {host}")
}

/// The compiler the benchmark was built with.
pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// Minimal JSON string escaping for labels.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
