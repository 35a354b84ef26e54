//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Untraced (`--trace 0`): times complete campaign invocations at
//! `nproc` threads and at 1 thread and prints the end-to-end metrics.
//! Traced (`--trace 1`): prints the per-layer ledger. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is 1 when any output check
//! failed and 2 on a usage error.

use perfbench::stats::{median, tail};
use perfbench::trace::{self, Metric};
use perfbench::workloads::{self, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

/// Set-ups timed before the measurement loop; the loop adds one per
/// invocation pair. `setup_s` is the median of all of them.
const SETUP_REPS: u64 = 9;
/// Invocation pairs (nproc + 1 thread) measured at least, whatever
/// `--seconds` says.
const MIN_PAIRS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload table3|seq_patched|fuzz_legacy|check_patched \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end metrics of one untraced run.
fn untraced(a: &Args, nproc: usize) -> (Vec<Metric>, u64, Vec<String>) {
    let w = a.workload;
    let mut failures = Vec::new();
    let mut attempted = 0u64;

    let setup =
        |rep: u64| workloads::setup(w, workloads::invocation_seed(a.seed, rep)).as_secs_f64();
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(&setup).collect();

    // Warm-up: let lazy set-up finish and caches fill before timing.
    let warm = workloads::make_input(w, workloads::invocation_seed(a.seed, u64::MAX));
    for threads in [nproc, 1] {
        attempted += 1;
        if let Some(f) = workloads::invoke(w, &warm, threads).failure {
            failures.push(format!("warm-up at {threads} thread(s): {f}"));
        }
    }

    let (mut rate_n, mut rate_1, mut latency_ms) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut rep = 0u64;
    while (rep as usize) < MIN_PAIRS || Instant::now() < deadline {
        // Set-ups are spread over the whole loop, so host drift during the
        // run reaches them as it reaches the invocations.
        setups.push(setup(rep));
        let input = workloads::make_input(w, workloads::invocation_seed(a.seed, rep));
        // Alternate which thread count goes first, so drift on the host
        // loads both sides alike.
        let order = if rep.is_multiple_of(2) { [nproc, 1] } else { [1, nproc] };
        let mut digests = Vec::new();
        for threads in order {
            let r = workloads::invoke(w, &input, threads);
            attempted += 1;
            if let Some(f) = r.failure {
                failures.push(format!("rep {rep} at {threads} thread(s): {f}"));
                continue;
            }
            digests.push(r.digest);
            let rate = r.units as f64 / r.wall.as_secs_f64();
            if threads == 1 {
                rate_1.push(rate);
            }
            if threads == nproc {
                rate_n.push(rate);
                latency_ms.push(r.wall.as_secs_f64() * 1e3);
            }
        }
        if digests.len() == 2 && digests[0] != digests[1] {
            failures
                .push(format!("rep {rep}: verdict digest differs between 1 and {nproc} threads"));
        }
        rep += 1;
    }

    let (tail_level, tail_ms) = tail(&latency_ms);
    println!(
        "time to verdict: p50 and p{:.0} over {} invocations at {nproc} threads",
        tail_level * 100.0,
        latency_ms.len()
    );
    println!("failed_frac: {} of {} invocations", failures.len(), attempted);
    let failed = failures.len() as u64;
    let metrics = vec![
        ("units_per_s", median(&rate_n), "1/s"),
        ("units_per_s_1t", median(&rate_1), "1/s"),
        ("campaign_p50_ms", median(&latency_ms), "ms"),
        ("campaign_tail_ms", tail_ms, "ms"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", perfbench::peak_rss_mb(), "MB"),
        ("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
    ];
    (metrics, attempted, failures)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = perfbench::nproc();
    println!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"unit\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"nproc\":{nproc},\"threads\":[{nproc},1],\"host\":{},\"rustc\":{}}}}}",
        a.workload.name(),
        a.workload.unit(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        perfbench::json_str(&perfbench::host_label()),
        perfbench::json_str(perfbench::RUSTC_VERSION),
    );

    let ticks_before = perfbench::host_cpu_ticks();
    let (metrics, attempted, mut failures) = if a.trace {
        let r = trace::traced(a.workload, a.seed, a.seconds, nproc);
        (r.metrics, r.attempted, r.failures)
    } else {
        untraced(&a, nproc)
    };
    let ticks_after = perfbench::host_cpu_ticks();
    let total = ticks_after.1.saturating_sub(ticks_before.1);
    if total > 0 {
        let steal = ticks_after.0.saturating_sub(ticks_before.0) as f64 / total as f64;
        println!("host steal during the run: {:.2}% of CPU time", steal * 100.0);
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            failures.push(format!("{name} is not a finite number"));
        }
    }
    for f in &failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        (failures.len() as u64).min(attempted.max(1)),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
