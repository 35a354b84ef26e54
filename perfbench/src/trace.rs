//! The traced run: repeated ledger passes interleaved with untraced
//! invocations of the same inputs, folded into the per-layer metrics.

use crate::ledger::{self, Ledger, MODEL_SPAN};
use crate::stats::median;
use crate::workloads::{self, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How far the ledger's accounted time per unit may stray from the
/// untraced 1-thread time per unit (as a share of the latter).
pub const ACCOUNTING_TOLERANCE: f64 = 0.25;

/// Ledger passes and untraced invocations each run at least this often.
const MIN_PASSES: usize = 3;

/// One named measurement with its unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct TraceReport {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Per-unit samples of every ledger span, one per pass.
#[derive(Default)]
struct SpanSamples(BTreeMap<&'static str, Vec<f64>>);

impl SpanSamples {
    fn push(&mut self, l: &Ledger) {
        for (&name, &ns) in &l.span_ns {
            self.0.entry(name).or_default().push(ns as f64 / l.units as f64);
        }
    }

    /// Median nanoseconds per unit; 0 for a span that never ran.
    fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

pub fn traced(w: Workload, seed: u64, seconds: u64, nproc: usize) -> TraceReport {
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let seed0 = workloads::invocation_seed(seed, 0);
    let input = workloads::make_input(w, seed0);

    // Two passes of one seed must agree on every deterministic count.
    let first = ledger::run(w, seed0);
    let second = ledger::run(w, seed0);
    if first.deterministic_view() != second.deterministic_view() {
        failures.push("ledger counts differ between two passes of one seed".to_string());
    }

    let mut spans = SpanSamples::default();
    let (mut accounted, mut ledger_wall) = (Vec::new(), Vec::new());
    let (mut untraced_1t, mut rate_1t, mut rate_n, mut steals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counters_1t = workloads::ExecCounters::default();
    let mut note_ledger = |l: &Ledger, failures: &mut Vec<String>| {
        if l.digest != first.digest {
            failures.push("ledger verdict digest changed between passes".to_string());
        }
        spans.push(l);
        accounted.push(l.accounted_ns() as f64 / l.units as f64);
        ledger_wall.push(l.wall.as_nanos() as f64 / l.units as f64);
    };
    note_ledger(&first, &mut failures);
    note_ledger(&second, &mut failures);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0usize;
    while i < MIN_PASSES || Instant::now() < deadline {
        if i > 0 {
            let l = ledger::run(w, seed0);
            note_ledger(&l, &mut failures);
        }
        for threads in [1, nproc] {
            let r = workloads::invoke(w, &input, threads);
            attempted += 1;
            if let Some(f) = r.failure {
                failures.push(f);
                continue;
            }
            if r.digest != first.digest {
                failures.push(format!(
                    "ledger digest {:016x} differs from the campaign's {:016x} at {threads} thread(s)",
                    first.digest, r.digest
                ));
            }
            let rate = r.units as f64 / r.wall.as_secs_f64();
            if threads == 1 {
                untraced_1t.push(r.wall.as_nanos() as f64 / r.units as f64);
                rate_1t.push(rate);
                counters_1t = r.counters;
            }
            // At one core the nproc invocation is the 1-thread one again.
            if threads == nproc {
                rate_n.push(rate);
                steals.push(r.counters.steals as f64);
            }
        }
        i += 1;
    }

    let units = first.units.max(1) as f64;
    let per_unit = |n: u64| n as f64 / units;
    let us = |name: &str| spans.ns(name) / 1e3;
    let t1_ns = median(&untraced_1t);
    let accounted_ns = median(&accounted);
    let accounted_frac = accounted_ns / t1_ns;
    // A timing comparison, so it is reported rather than failed: host
    // noise must not turn a correct program into a failed run.
    println!(
        "ledger accounting: {:.1}% of the untraced 1-thread time per unit, {} the ±{:.0}% tolerance",
        accounted_frac * 100.0,
        if (accounted_frac - 1.0).abs() <= ACCOUNTING_TOLERANCE { "within" } else { "OUTSIDE" },
        ACCOUNTING_TOLERANCE * 100.0
    );

    // Kernel time: timed directly on the single-call path, else the
    // evaluation minus the reference model's share of it.
    let (eval_us, model_us) = (us("sequence.eval"), us(MODEL_SPAN));
    let sequence_kernel_us = (eval_us - model_us).max(0.0);
    let (step_us, step_allocs) = if w == Workload::Table3 {
        (us("xtratum.step"), first.allocs("xtratum.step"))
    } else {
        (sequence_kernel_us, first.allocs("sequence.eval"))
    };
    let frames = first.count("xtratum.frames");
    let ns_per_frame = if frames > 0 { step_us * 1e3 * units / frames as f64 } else { 0.0 };
    let configs = first.count("check.configs");
    let boot_us = if configs > 0 { us("check.boot") * units / configs as f64 } else { 0.0 };
    let ratio = |num: u64, den: u64| if den > 0 { num as f64 / den as f64 } else { 0.0 };
    let c = counters_1t;

    let metrics: Vec<Metric> = vec![
        ("testbed.restore_us", us("testbed.restore"), "us"),
        ("testbed.dirty_pages", per_unit(first.count("testbed.dirty_pages")), "pages"),
        ("testbed.allocs", per_unit(first.allocs("testbed.restore")), "allocs"),
        ("mutant.install_us", us("mutant.install"), "us"),
        ("xtratum.step_us", step_us, "us"),
        ("xtratum.frames", per_unit(frames), "frames"),
        ("xtratum.hypercalls", per_unit(first.count("xtratum.hypercalls")), "calls"),
        ("xtratum.adv_quiescent", per_unit(first.count("xtratum.adv_quiescent")), "advances"),
        ("xtratum.adv_processed", per_unit(first.count("xtratum.adv_processed")), "advances"),
        ("xtratum.ns_per_frame", ns_per_frame, "ns"),
        ("xtratum.allocs", per_unit(step_allocs), "allocs"),
        ("eagleeye.nominal_slots", per_unit(first.count("eagleeye.nominal_slots")), "slots"),
        ("eagleeye.fdir_slots", per_unit(first.count("eagleeye.fdir_slots")), "slots"),
        ("oracle.expect_us", us("oracle.expect"), "us"),
        ("classify.us", us("classify"), "us"),
        ("exec.memo_hit_ratio", ratio(c.memo_hits, c.tests), "ratio"),
        (
            "exec.oracle_cache_hit_ratio",
            ratio(c.oracle_hits, c.oracle_hits + c.oracle_misses),
            "ratio",
        ),
        ("exec.steals", median(&steals), "count"),
        ("exec.parallel_eff", median(&rate_n) / (nproc as f64 * median(&rate_1t)), "ratio"),
        ("exec.overhead_us", (t1_ns - accounted_ns) / 1e3, "us"),
        ("sequence.eval_us", eval_us, "us"),
        ("sequence.kernel_us", sequence_kernel_us, "us"),
        ("sequence.model_us", model_us, "us"),
        ("shrink.us", us("shrink"), "us"),
        ("shrink.evals", per_unit(first.count("shrink.evals")), "evals"),
        ("fuzz.finding_ratio", per_unit(first.count("fuzz.findings")), "ratio"),
        ("fuzz.mutate_us", us("fuzz.mutate"), "us"),
        ("fuzz.coverage_us", us("fuzz.coverage"), "us"),
        ("fuzz.refine_us", us("fuzz.refine"), "us"),
        ("fuzz.fold_us", us("fuzz.fold"), "us"),
        ("fuzz.novel_ratio", per_unit(first.count("fuzz.novel")), "ratio"),
        ("fuzz.execs_to_all_sigs", first.count("fuzz.execs_to_all_sigs") as f64, "execs"),
        ("check.boot_us", boot_us, "us"),
        ("check.invariants_us", us("check.invariants"), "us"),
        ("check.cases", first.count("check.cases") as f64, "cases"),
        ("flightrec.events", per_unit(first.count("flightrec.events")), "events"),
        ("flightrec.drain_us", us("flightrec.drain"), "us"),
        ("ledger.units", first.units as f64, "units"),
        ("ledger.accounted_frac", accounted_frac, "ratio"),
        ("ledger.unit_1t_us", t1_ns / 1e3, "us"),
        ("trace.overhead_us", (median(&ledger_wall) - t1_ns) / 1e3, "us"),
    ];
    TraceReport { metrics, attempted, failures }
}
