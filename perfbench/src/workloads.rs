//! The four benchmark workloads: their seeded inputs, one complete
//! campaign invocation each, the output check every invocation must pass,
//! and the verdict digest compared across thread counts.

use eagleeye::EagleEye;
use skrt::check::{
    enumerate_configs, probes_for, run_check, CheckOptions, CheckScope, CheckTestbed,
};
use skrt::classify::{Cause, Classification, CrashClass};
use skrt::fuzz::FuzzOptions;
use skrt::issues::IssueKey;
use skrt::metrics::MetricsReport;
use skrt::oracle::ParamClass;
use skrt::report::campaign_table;
use skrt::sequence::{SeqRng, SequenceOptions, SequenceSpec, SequenceVerdict};
use skrt::suite::CampaignSpec;
use skrt::testbed::Testbed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use xtratum::hypercall::{Category, HypercallId, RawHypercall};
use xtratum::observe::ResetKind;
use xtratum::vuln::KernelBuild;

use crate::stats::Digest;

/// Sequences per `seq_patched` invocation.
pub const SEQ_COUNT: usize = 5000;
/// Steps per generated sequence.
pub const SEQ_STEPS: usize = 8;
/// Candidate-execution budget per `fuzz_legacy` invocation.
pub const FUZZ_EXECS: u64 = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 2662-test single-call campaign on the legacy build.
    Table3,
    /// Stateful 8-step sequence campaigns on the patched build.
    SeqPatched,
    /// Greybox fuzzing on the legacy build with a fixed exec budget.
    FuzzLegacy,
    /// The exhaustive small-scope isolation check on the patched build.
    CheckPatched,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Table3, Workload::SeqPatched, Workload::FuzzLegacy, Workload::CheckPatched];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::SeqPatched => "seq_patched",
            Workload::FuzzLegacy => "fuzz_legacy",
            Workload::CheckPatched => "check_patched",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn build(self) -> KernelBuild {
        match self {
            Workload::Table3 | Workload::FuzzLegacy => KernelBuild::Legacy,
            Workload::SeqPatched | Workload::CheckPatched => KernelBuild::Patched,
        }
    }

    /// What one unit of work is called.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Table3 => "tests",
            Workload::SeqPatched => "sequences",
            Workload::FuzzLegacy => "execs",
            Workload::CheckPatched => "cases",
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of repetition `rep` of a run started with `bench_seed`.
pub fn invocation_seed(bench_seed: u64, rep: u64) -> u64 {
    splitmix(splitmix(bench_seed) ^ rep)
}

/// The inputs of one invocation.
pub enum Input {
    /// The Table III spec, suites in a seed-derived order.
    Table3(CampaignSpec),
    /// Generated sequences.
    Seq(Vec<SequenceSpec>),
    /// Fuzzer master seed.
    Fuzz(u64),
    /// The default check scope (the exhaustive space has no free input).
    Check(CheckScope),
}

/// The Table III spec with its suites shuffled by `seed`. Tests are
/// independent, so the verdicts are the paper's whatever the order; the
/// order moves which cases share a work chunk and a worker's memo.
pub fn table3_spec(seed: u64) -> CampaignSpec {
    let mut spec = xm_campaign::paper_campaign();
    let mut rng = SeqRng::new(seed);
    for i in (1..spec.suites.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        spec.suites.swap(i, j);
    }
    spec
}

pub fn make_input(w: Workload, seed: u64) -> Input {
    match w {
        Workload::Table3 => Input::Table3(table3_spec(seed)),
        Workload::SeqPatched => {
            Input::Seq(xm_campaign::eagleeye_sequence_specs(seed, SEQ_COUNT, SEQ_STEPS))
        }
        Workload::FuzzLegacy => Input::Fuzz(seed),
        Workload::CheckPatched => Input::Check(CheckScope::default()),
    }
}

pub fn seq_options(threads: usize) -> SequenceOptions {
    SequenceOptions { build: KernelBuild::Patched, threads, ..SequenceOptions::default() }
}

pub fn fuzz_options(seed: u64, threads: usize) -> FuzzOptions {
    FuzzOptions {
        build: KernelBuild::Legacy,
        threads,
        seed,
        max_execs: FUZZ_EXECS,
        ..FuzzOptions::default()
    }
}

/// One set-up: input generation, the boot snapshot, the oracle context
/// and the first workspace — everything a campaign pays before its first
/// unit of work.
pub fn setup(w: Workload, seed: u64) -> Duration {
    let t = Instant::now();
    let input = make_input(w, seed);
    let build = w.build();
    match &input {
        Input::Check(scope) => {
            let configs = enumerate_configs(scope);
            let probes: Vec<_> = configs.iter().map(probes_for).collect();
            let tb = CheckTestbed::new(configs[0].clone());
            let ctx = tb.oracle_context(build);
            let snap = tb.snapshot(build).expect("check testbed snapshots");
            std::hint::black_box((probes, ctx, snap.workspace()));
        }
        _ => {
            if matches!(w, Workload::SeqPatched | Workload::FuzzLegacy) {
                std::hint::black_box(xm_campaign::eagleeye_sequence_alphabet());
            }
            let ctx = EagleEye.oracle_context(build);
            let snap = EagleEye.snapshot(build).expect("EagleEye snapshots");
            std::hint::black_box((ctx, snap.workspace()));
        }
    }
    let took = t.elapsed();
    drop(input);
    took
}

/// Executor counters read from the program's own telemetry export, so
/// the benchmark keeps working when a counter is removed (it then reads
/// as zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCounters {
    pub tests: u64,
    pub memo_hits: u64,
    pub oracle_hits: u64,
    pub oracle_misses: u64,
    pub steals: u64,
}

impl ExecCounters {
    fn from_report(report: &MetricsReport) -> Self {
        let text = report.telemetry("perfbench").render_openmetrics();
        let get = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        ExecCounters {
            tests: get("skrt_tests_executed_total"),
            memo_hits: get("skrt_memo_hits_total"),
            oracle_hits: get("skrt_oracle_hits_total"),
            oracle_misses: get("skrt_oracle_misses_total"),
            steals: get("skrt_steals_total"),
        }
    }
}

/// One finished invocation.
pub struct Run {
    /// Units of work completed.
    pub units: u64,
    /// Wall time of the campaign call alone (no input generation, check
    /// or digest).
    pub wall: Duration,
    /// Verdict digest (identical at every thread count).
    pub digest: u64,
    /// Why the output check failed, or that the invocation panicked.
    pub failure: Option<String>,
    pub counters: ExecCounters,
}

fn failed(reason: String) -> Run {
    Run {
        units: 0,
        wall: Duration::ZERO,
        digest: 0,
        failure: Some(reason),
        counters: ExecCounters::default(),
    }
}

/// Runs one complete campaign invocation on `threads` workers, then
/// checks its output. A panic anywhere counts as a failed invocation.
pub fn invoke(w: Workload, input: &Input, threads: usize) -> Run {
    catch_unwind(AssertUnwindSafe(|| invoke_inner(w, input, threads))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        failed(format!("panicked: {msg}"))
    })
}

fn invoke_inner(w: Workload, input: &Input, threads: usize) -> Run {
    match (w, input) {
        (Workload::Table3, Input::Table3(spec)) => {
            let opts = skrt::exec::CampaignOptions {
                build: KernelBuild::Legacy,
                threads,
                ..Default::default()
            };
            let t = Instant::now();
            let result = skrt::exec::run_campaign(&EagleEye, spec, &opts);
            let wall = t.elapsed();
            let mut d = Digest::default();
            for r in &result.records {
                table3_digest_item(&mut d, &r.case.raw(), &r.classification, &r.param_signature);
            }
            Run {
                units: result.records.len() as u64,
                wall,
                digest: d.value(),
                failure: check_table3(spec, &result).err(),
                counters: ExecCounters::from_report(&result.metrics),
            }
        }
        (Workload::SeqPatched, Input::Seq(specs)) => {
            let t = Instant::now();
            let result =
                skrt::sequence::run_sequence_campaign(&EagleEye, specs, &seq_options(threads));
            let wall = t.elapsed();
            let mut d = Digest::default();
            for r in &result.records {
                seq_digest_item(&mut d, &r.spec.steps, &r.verdict, r.steps_executed);
            }
            let div = result.divergences().len();
            let failure = if result.records.len() != specs.len() {
                Some(format!("{} of {} sequences judged", result.records.len(), specs.len()))
            } else if div > 0 {
                Some(format!("{div} divergences on the patched build (expected 0)"))
            } else {
                None
            };
            Run {
                units: result.records.len() as u64,
                wall,
                digest: d.value(),
                failure,
                counters: ExecCounters::from_report(&result.metrics),
            }
        }
        (Workload::FuzzLegacy, Input::Fuzz(seed)) => {
            let t = Instant::now();
            let report = xm_campaign::run_eagleeye_fuzz(&fuzz_options(*seed, threads));
            let wall = t.elapsed();
            let r = &report.result;
            let mut d = Digest::default();
            for c in &r.corpus {
                d.feed(&c.steps);
            }
            for f in &r.findings {
                fuzz_finding_digest_item(
                    &mut d,
                    f.exec_index,
                    &f.verdict,
                    f.minimal.as_ref().map(|m| (&m.steps[..], m.evals)),
                );
            }
            let sigs: Vec<_> = r.findings.iter().map(xm_campaign::finding_signature).collect();
            let expected = xm_campaign::stateful_defect_signatures();
            let total = expected.len();
            let missing: Vec<String> = expected
                .into_iter()
                .filter(|s| !sigs.contains(s))
                .map(|s| format!("{s:?}"))
                .collect();
            let failure = if r.execs != FUZZ_EXECS {
                Some(format!("{} of {FUZZ_EXECS} execs ran", r.execs))
            } else if !missing.is_empty() {
                Some(format!(
                    "{} of {total} signatures missing: {}",
                    missing.len(),
                    missing.join("; ")
                ))
            } else {
                None
            };
            Run {
                units: r.execs,
                wall,
                digest: d.value(),
                failure,
                counters: ExecCounters::from_report(&r.metrics),
            }
        }
        (Workload::CheckPatched, Input::Check(scope)) => {
            let opts = CheckOptions {
                build: KernelBuild::Patched,
                scope: *scope,
                threads,
                ..CheckOptions::default()
            };
            let t = Instant::now();
            let result = run_check(&opts);
            let wall = t.elapsed();
            let mut d = Digest::default();
            for c in &result.cases {
                check_digest_item(&mut d, c.index, c.probe, &c.verdict, c.violations.len());
            }
            let findings = result.findings().len();
            let failure = if (result.configs, result.cases.len()) != (56, 372) {
                Some(format!(
                    "{}/{} configs/cases (expected 56/372)",
                    result.configs,
                    result.cases.len()
                ))
            } else if findings > 0 {
                Some(format!("{findings} findings on the patched build (expected 0)"))
            } else {
                None
            };
            Run {
                units: result.cases.len() as u64,
                wall,
                digest: d.value(),
                failure,
                counters: ExecCounters::from_report(&result.metrics),
            }
        }
        _ => failed(format!("input does not belong to workload {}", w.name())),
    }
}

// One digest item per unit, shared by the invocations and the ledger so
// both digest exactly the same fields.

pub fn table3_digest_item(
    d: &mut Digest,
    raw: &RawHypercall,
    class: &Classification,
    sig: &Option<(usize, ParamClass)>,
) {
    d.feed(&(raw, class, sig));
}

pub fn seq_digest_item(
    d: &mut Digest,
    steps: &[RawHypercall],
    verdict: &SequenceVerdict,
    executed: usize,
) {
    d.feed(&(steps, verdict, executed));
}

pub fn fuzz_finding_digest_item(
    d: &mut Digest,
    exec_index: u64,
    verdict: &SequenceVerdict,
    minimal: Option<(&[RawHypercall], usize)>,
) {
    d.feed(&(exec_index, verdict, minimal));
}

pub fn check_digest_item(
    d: &mut Digest,
    index: usize,
    probe: &str,
    verdict: &SequenceVerdict,
    violations: usize,
) {
    d.feed(&(index, probe, verdict, violations));
}

/// Table III of the paper, row by row: (category, total hypercalls,
/// tested, tests, raised issues).
const TABLE_III: [(Category, usize, usize, u64, usize); 11] = [
    (Category::SystemManagement, 3, 2, 8, 3),
    (Category::PartitionManagement, 10, 6, 236, 0),
    (Category::TimeManagement, 2, 2, 34, 3),
    (Category::PlanManagement, 2, 1, 2, 0),
    (Category::InterPartitionCommunication, 10, 8, 598, 0),
    (Category::MemoryManagement, 2, 1, 991, 0),
    (Category::HealthMonitorManagement, 5, 3, 64, 0),
    (Category::TraceManagement, 5, 4, 428, 0),
    (Category::InterruptManagement, 5, 4, 172, 0),
    (Category::Miscellaneous, 5, 3, 41, 3),
    (Category::SparcSpecific, 12, 5, 88, 0),
];

/// The nine Section IV issues by identity.
fn table3_issues() -> Vec<IssueKey> {
    use CrashClass::*;
    use HypercallId::*;
    let key = |hypercall, class, cause, param| IssueKey { hypercall, class, cause, param };
    let mut v = vec![
        key(
            ResetSystem,
            Catastrophic,
            Cause::UnexpectedSystemReset(ResetKind::Cold),
            Some((0, ParamClass::Value(2))),
        ),
        key(
            ResetSystem,
            Catastrophic,
            Cause::UnexpectedSystemReset(ResetKind::Cold),
            Some((0, ParamClass::Value(16))),
        ),
        key(
            ResetSystem,
            Catastrophic,
            Cause::UnexpectedSystemReset(ResetKind::Warm),
            Some((0, ParamClass::Value(u32::MAX as u64))),
        ),
        key(SetTimer, Silent, Cause::WrongSuccess, Some((2, ParamClass::Value(i64::MIN as u64)))),
        key(SetTimer, Catastrophic, Cause::KernelHalt, None),
        key(SetTimer, Catastrophic, Cause::SimulatorCrash, None),
        key(
            Multicall,
            Abort,
            Cause::UnhandledServiceException,
            Some((0, ParamClass::InvalidPointer)),
        ),
        key(Multicall, Restart, Cause::TemporalOverrun, None),
        key(
            Multicall,
            Abort,
            Cause::UnhandledServiceException,
            Some((1, ParamClass::InvalidPointer)),
        ),
    ];
    v.sort();
    v
}

/// Table III exactly: every row, 2662 tests over 39/61 hypercalls, the 9
/// issues by identity and the class split Pass 2644 / Catastrophic 5 /
/// Restart 1 / Abort 8 / Silent 4.
fn check_table3(spec: &CampaignSpec, result: &skrt::exec::CampaignResult) -> Result<(), String> {
    let table = campaign_table(spec, result);
    for (cat, total, tested, tests, issues) in TABLE_III {
        let row = table.rows.iter().find(|r| r.category == cat).ok_or(format!("no {cat} row"))?;
        let got = (row.total_hypercalls, row.hypercalls_tested, row.tests, row.raised_issues);
        if got != (total, tested, tests, issues) {
            return Err(format!(
                "{cat}: got {got:?}, paper has {:?}",
                (total, tested, tests, issues)
            ));
        }
    }
    if table.totals() != (61, 39, 2662, 9) {
        return Err(format!("totals {:?}, paper has (61, 39, 2662, 9)", table.totals()));
    }
    let mut classes = [0u64; 6];
    for r in &result.records {
        classes[r.classification.class.index()] += 1;
    }
    let expected = [
        (CrashClass::Pass, 2644),
        (CrashClass::Catastrophic, 5),
        (CrashClass::Restart, 1),
        (CrashClass::Abort, 8),
        (CrashClass::Silent, 4),
        (CrashClass::Hindering, 0),
    ];
    for (class, n) in expected {
        if classes[class.index()] != n {
            return Err(format!(
                "{}: {} tests, paper has {n}",
                class.label(),
                classes[class.index()]
            ));
        }
    }
    let mut got: Vec<IssueKey> = result.issues().iter().map(|i| i.key).collect();
    got.sort();
    if got != table3_issues() {
        return Err(format!("issue identities drifted: {got:?}"));
    }
    Ok(())
}
