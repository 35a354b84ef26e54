//! Test generation and execution phase (paper Section III.B, steps 1–6).
//!
//! For every test case the executor:
//!
//! 1. materialises a booted testbed — normally by **rewinding a
//!    per-worker [`Workspace`](crate::testbed::Workspace)** to the boot
//!    snapshot taken once per `(Testbed, KernelBuild)`: the snapshot's
//!    memory is flat, so the rewind is one bounded dirty-block copy plus
//!    capacity-preserving `clone_from`s, with no per-test allocation or
//!    refcount traffic. Falls back to a fresh boot when the testbed's
//!    guests are not cloneable. Tests never observe another test's state,
//!    so independence (what lets the campaign run embarrassingly
//!    parallel) is preserved;
//! 2. installs the mutant (fault placeholder) into the test partition;
//! 3. runs the configured number of cyclic schedules ("the test call is
//!    invoked at least once per major frame");
//! 4. logs return codes and partition/kernel health;
//! 5. classifies the outcome against the oracle.
//!
//! [`run_campaign`] executes a whole [`CampaignSpec`] with one work unit
//! per case on the shared work-stealing `executor::Executor`, so records are
//! byte-identical whatever the thread count or steal schedule. Metrics
//! tally into per-worker counters folded once at the end; they stream
//! into a [`MetricsReport`] and an optional JSONL trace sink (see
//! [`crate::metrics`]).

use crate::classify::CrashClass;
use crate::classify::{classify, Classification};
use crate::executor::{Executor, Lane};
use crate::flight::FlightLog;
use crate::issues::{deduplicate, Issue};
use crate::metrics::{write_trace, LocalMetrics, MetricsReport, Phase};
use crate::mutant::MutantGuest;
use crate::observe::TestObservation;
use crate::oracle::{Expectation, OracleContext, ParamClass};
use crate::suite::{CampaignSpec, TestCase};
use crate::testbed::{Booter, Testbed};
use std::io::Write as _;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xtratum::guest::GuestSet;
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

/// One executed-and-classified test.
#[derive(Debug, Clone)]
pub struct TestRecord {
    /// What was injected.
    pub case: TestCase,
    /// What was observed.
    pub observation: TestObservation,
    /// What the manual said should happen.
    pub expectation: Expectation,
    /// CRASH classification.
    pub classification: Classification,
    /// Responsible-parameter signature for issue grouping.
    pub param_signature: Option<(usize, ParamClass)>,
}

/// Campaign execution options.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Kernel build to test.
    pub build: KernelBuild,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Cases per work chunk (0 = choose automatically from the campaign
    /// size and thread count). Chunking only affects scheduling, never
    /// results.
    pub chunk_size: usize,
    /// Boot once per worker and rewind a persistent workspace to the
    /// booted state per test (default). Off reproduces the seed
    /// executor's fresh-boot-per-test behaviour, kept for benchmarking
    /// the snapshot engine against it.
    pub reuse_snapshot: bool,
    /// When set, write a JSONL per-test trace here after the run.
    pub trace_path: Option<PathBuf>,
    /// Run the flight recorder: each worker records kernel/executor
    /// events into a preallocated ring, drained per test into
    /// [`CampaignResult::flight`] and folded into per-hypercall latency
    /// histograms. Off by default; the disabled path costs one branch
    /// per instrumentation point and zero allocations.
    pub record: bool,
    /// Scale the campaign to exactly this many tests: truncate the case
    /// list when smaller, cycle it from the start when larger (the
    /// `campaign sweep --tests N` mode; repeated cases keep their
    /// original suite/case indices). `None` runs the spec as-is.
    pub max_tests: Option<usize>,
    /// Stream heartbeat JSONL lines while the campaign runs
    /// (`--live-stats`). Progress is folded into shared atomics once per
    /// claimed range (never per test) and sampled by a dedicated emitter
    /// thread, so the deterministic result surface is untouched:
    /// records, tables and traces are byte-identical on and off.
    pub live_stats: Option<LiveStats>,
}

/// Live progress streaming configuration (`--live-stats`).
#[derive(Debug, Clone)]
pub struct LiveStats {
    /// JSONL heartbeat sink path.
    pub path: PathBuf,
    /// Emission interval (the final line is always written).
    pub interval: Duration,
}

impl LiveStats {
    pub fn new(path: PathBuf, interval: Duration) -> Self {
        LiveStats { path, interval }
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            build: KernelBuild::Legacy,
            threads: 0,
            chunk_size: 0,
            reuse_snapshot: true,
            trace_path: None,
            record: false,
            max_tests: None,
            live_stats: None,
        }
    }
}

/// A completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Which build was tested.
    pub build: KernelBuild,
    /// All records, in campaign order.
    pub records: Vec<TestRecord>,
    /// Run metrics (wall-clock, throughput, boot counters). Not part of
    /// the deterministic result surface.
    pub metrics: MetricsReport,
    /// Error rendering/writing the JSONL trace, if one was requested and
    /// failed. The records themselves are unaffected.
    pub trace_error: Option<String>,
    /// Error writing the live-stats heartbeat stream, if one was
    /// requested and failed. The records themselves are unaffected.
    pub live_stats_error: Option<String>,
    /// Per-test flight recordings, present when the campaign ran with
    /// [`CampaignOptions::record`]. Like `metrics`, not part of the
    /// deterministic result surface.
    pub flight: Option<FlightLog>,
}

impl CampaignResult {
    /// Deduplicated raised issues.
    pub fn issues(&self) -> Vec<Issue> {
        deduplicate(&self.records)
    }

    /// Number of failing (non-Pass) tests.
    pub fn failing_tests(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.classification.class != crate::classify::CrashClass::Pass)
            .count()
    }
}

/// Runs one case on a booted `(kernel, guests)` pair: install the
/// mutant, run the test's frames, summarise, classify. With `profile`,
/// the frames are timed into the self-profile.
fn execute<T: Testbed + ?Sized>(
    testbed: &T,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    ctx: &OracleContext,
    expectation: Expectation,
    case: &TestCase,
    profile: Option<&mut LocalMetrics>,
) -> TestRecord {
    let part = testbed.test_partition();
    guests.set(part, Box::new(MutantGuest::new(case.raw(), testbed.prologue())));
    // Phase timers only run on observability (recorder-on) campaigns:
    // the plain path stays clock-free beyond the existing per-test stamp.
    if let Some(local) = profile {
        let t = Instant::now();
        kernel.step_major_frames(guests, testbed.frames_per_test());
        local.note_phase(Phase::Frames, t.elapsed());
    } else {
        kernel.step_major_frames(guests, testbed.frames_per_test());
    }
    let invocations = crate::mutant::take_invocations(guests, part);
    let observation = TestObservation { invocations, summary: kernel.summary() };
    let classification = classify(&observation, &expectation, part);
    let param_signature = ctx.param_signature(&expectation, &case.dataset);
    TestRecord { case: case.clone(), observation, expectation, classification, param_signature }
}

/// Executes one test case against a fresh testbed instance (the seed
/// executor's path; the campaign engine prefers snapshot rewinds).
pub fn run_single_test<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    build: KernelBuild,
    case: &TestCase,
) -> TestRecord {
    let (mut kernel, mut guests) = testbed.boot(build);
    let expectation = ctx.expect(&case.raw());
    execute(testbed, &mut kernel, &mut guests, ctx, expectation, case, None)
}

/// Shared in-flight progress counters behind `--live-stats`. Workers fold
/// into these once per claimed range; the emitter thread samples them on
/// its interval. Nothing on the result path ever reads them.
#[derive(Debug, Default)]
pub(crate) struct LiveProgress {
    pub(crate) done: AtomicU64,
    pub(crate) classes: [AtomicU64; 6],
    pub(crate) snapshot_clones: AtomicU64,
    pub(crate) steals: AtomicU64,
}

impl LiveProgress {
    /// Folds one finished range's records plus its snapshot-clone delta.
    pub(crate) fn fold_range(&self, records: &[TestRecord], clones: u64, stolen: bool) {
        let mut counts = [0u64; 6];
        for r in records {
            counts[r.classification.class.index()] += 1;
        }
        self.done.fetch_add(records.len() as u64, Ordering::Relaxed);
        for (shared, c) in self.classes.iter().zip(counts) {
            if c > 0 {
                shared.fetch_add(c, Ordering::Relaxed);
            }
        }
        if clones > 0 {
            self.snapshot_clones.fetch_add(clones, Ordering::Relaxed);
        }
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One heartbeat JSONL line from the shared progress counters.
pub(crate) fn live_line(
    seq: u64,
    elapsed: Duration,
    progress: &LiveProgress,
    total: usize,
    fin: bool,
) -> String {
    let done = progress.done.load(Ordering::Relaxed);
    let elapsed_ms = elapsed.as_millis() as u64;
    let rate = if elapsed_ms > 0 { done as f64 / (elapsed_ms as f64 / 1000.0) } else { 0.0 };
    let remaining = (total as u64).saturating_sub(done);
    let eta_ms = if rate > 0.0 { (remaining as f64 / rate * 1000.0) as u64 } else { 0 };
    let mut line = format!(
        "{{\"type\":\"live\",\"seq\":{seq},\"elapsed_ms\":{elapsed_ms},\
         \"tests_done\":{done},\"tests_total\":{total},\
         \"tests_per_sec\":{rate:.1},\"eta_ms\":{eta_ms}"
    );
    for class in CrashClass::ALL {
        let count = progress.classes[class.index()].load(Ordering::Relaxed);
        line.push_str(&format!(",\"{}\":{count}", class.label().to_ascii_lowercase()));
    }
    line.push_str(&format!(
        ",\"snapshot_clones\":{},\"steals\":{},\"final\":{fin}}}",
        progress.snapshot_clones.load(Ordering::Relaxed),
        progress.steals.load(Ordering::Relaxed),
    ));
    line
}

/// Runs `work` while a heartbeat thread streams [`live_line`]s from
/// `progress` to `cfg`'s file every interval, plus a final line once
/// `work` returns. The emitter only reads the shared progress counters,
/// so `work`'s results are byte-identical with or without it. Returns
/// `work`'s output and the first error writing the stream.
fn with_live_stats<R>(
    cfg: Option<&LiveStats>,
    progress: &LiveProgress,
    total: usize,
    started: Instant,
    work: impl FnOnce() -> R,
) -> (R, Option<String>) {
    let Some(cfg) = cfg else {
        return (work(), None);
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let emitter = s.spawn(|| {
            let emit = || -> std::io::Result<()> {
                let file = std::fs::File::create(&cfg.path)?;
                let mut w = std::io::BufWriter::new(file);
                let mut seq = 0u64;
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    writeln!(
                        w,
                        "{}",
                        live_line(seq, started.elapsed(), progress, total, stopping)
                    )?;
                    w.flush()?;
                    if stopping {
                        return Ok(());
                    }
                    seq += 1;
                    std::thread::park_timeout(cfg.interval);
                }
            };
            emit().err().map(|e| format!("failed to write live stats {}: {e}", cfg.path.display()))
        });
        let out = work();
        stop.store(true, Ordering::Release);
        emitter.thread().unpark();
        (out, emitter.join().expect("live-stats emitter panicked"))
    })
}

/// Executes a whole campaign, in parallel, preserving campaign order in
/// the result.
pub fn run_campaign<T: Testbed + ?Sized>(
    testbed: &T,
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> CampaignResult {
    let started = Instant::now();
    let mut cases = spec.all_cases();
    if let Some(n) = opts.max_tests {
        if n <= cases.len() {
            cases.truncate(n);
        } else if !cases.is_empty() {
            let base = cases.len();
            for i in base..n {
                let cycled = cases[i % base].clone();
                cases.push(cycled);
            }
        }
    }
    let ctx = testbed.oracle_context(opts.build);
    let progress = LiveProgress::default();
    let live = opts.live_stats.is_some();
    let mut executor = Executor::new(opts.threads, cases.len(), spec.suites.len(), opts.record);
    let setup = |lane: &mut Lane| {
        Booter::new(testbed, opts.build, opts.reuse_snapshot, opts.record, &mut lane.local)
    };
    let run = |booter: &mut Booter<'_, T>, lane: &mut Lane, range: Range<usize>| {
        let clones_before = lane.local.snapshot_clones();
        let mut records = Vec::with_capacity(range.len());
        for index in range {
            let case = &cases[index];
            let t0 = Instant::now();
            let raw = case.raw();
            if opts.record {
                flightrec::record(
                    0,
                    flightrec::EventKind::TestBegin,
                    flightrec::NO_PARTITION,
                    index as u32,
                    0,
                    0,
                );
            }
            let expectation = if opts.record {
                let t = Instant::now();
                let e = ctx.expect(&raw);
                lane.local.note_phase(Phase::Oracle, t.elapsed());
                e
            } else {
                ctx.expect(&raw)
            };
            let (kernel, guests) = booter.booted(&mut lane.local);
            let profile = opts.record.then_some(&mut lane.local);
            let rec = execute(testbed, kernel, guests, &ctx, expectation, case, profile);
            lane.local.note_record(&rec, t0.elapsed());
            if opts.record {
                lane.end_flight(index, rec.classification.class);
            }
            records.push(rec);
        }
        if live {
            let clones = lane.local.snapshot_clones() - clones_before;
            progress.fold_range(&records, clones, lane.stolen);
        }
        records
    };
    let (records, live_stats_error) =
        with_live_stats(opts.live_stats.as_ref(), &progress, cases.len(), started, || {
            executor.run(cases.len(), opts.chunk_size, setup, run)
        });
    debug_assert_eq!(records.len(), cases.len());

    let (metrics, flight) = executor.finish(started, opts.record);
    let mut result = CampaignResult {
        build: opts.build,
        records,
        metrics,
        trace_error: None,
        live_stats_error,
        flight,
    };
    if let Some(path) = &opts.trace_path {
        if let Err(e) = write_trace(path, &result) {
            result.trace_error = Some(format!("failed to write trace {}: {e}", path.display()));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = CampaignOptions::default();
        assert_eq!(o.build, KernelBuild::Legacy);
        assert_eq!(o.threads, 0);
        assert_eq!(o.chunk_size, 0);
        assert!(o.reuse_snapshot);
        assert!(o.trace_path.is_none());
        assert!(!o.record);
        assert!(o.max_tests.is_none());
        assert!(o.live_stats.is_none());
    }

    #[test]
    fn live_line_shape_and_eta() {
        let p = LiveProgress::default();
        p.done.store(50, Ordering::Relaxed);
        p.classes[CrashClass::Pass.index()].store(48, Ordering::Relaxed);
        p.classes[CrashClass::Silent.index()].store(2, Ordering::Relaxed);
        p.snapshot_clones.store(50, Ordering::Relaxed);
        p.steals.store(3, Ordering::Relaxed);
        let line = live_line(7, Duration::from_secs(1), &p, 100, false);
        assert!(line.starts_with("{\"type\":\"live\",\"seq\":7,"));
        assert!(line.contains("\"tests_done\":50,\"tests_total\":100"));
        assert!(line.contains("\"tests_per_sec\":50.0"), "{line}");
        assert!(line.contains("\"eta_ms\":1000"), "{line}");
        assert!(line.contains("\"pass\":48"));
        assert!(line.contains("\"silent\":2"));
        assert!(line.contains("\"snapshot_clones\":50"));
        assert!(line.contains("\"steals\":3"));
        assert!(line.ends_with("\"final\":false}"));
        let done = live_line(8, Duration::from_secs(2), &p, 100, true);
        assert!(done.ends_with("\"final\":true}"));
    }
}
