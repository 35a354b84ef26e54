//! The boot snapshot is taken at the test partition's first slot: the
//! nominal EagleEye partitions have already run their first-frame slots
//! in it, and the kernel replays those slots' flight events when a test
//! resumes the frame. These tests pin that a test run from that snapshot
//! is indistinguishable from one on a fresh boot — test records,
//! sequence evaluations, run summaries and drained flight streams, byte
//! for byte — on both builds, with the recorder on and off.

use eagleeye::EagleEye;
use flightrec::{Event, EventKind};
use skrt::exec::{run_campaign, CampaignOptions, CampaignResult};
use skrt::flight::DEFAULT_RING_CAPACITY;
use skrt::fuzz::{replay_coverage, FuzzOptions};
use skrt::sequence::run_one_sequence;
use skrt::testbed::Testbed;
use xm_campaign::fuzz::run_eagleeye_fuzz;
use xm_campaign::sequences::eagleeye_sequence_specs;
use xtratum::hypercall::RawHypercall;
use xtratum::vuln::KernelBuild;

const BUILDS: [KernelBuild; 2] = [KernelBuild::Legacy, KernelBuild::Patched];

#[test]
fn snapshot_sits_at_the_test_partitions_first_slot() {
    for build in BUILDS {
        let (kernel, _) = EagleEye.snapshot(build).unwrap().instantiate();
        // AOCS, Payload, HK and TM/TC ran; FDIR's slot starts at 190 ms.
        assert_eq!(kernel.machine.now(), 190_000, "{build:?}");
        assert_eq!(kernel.summary().frames_completed, 0);
        assert_eq!(kernel.port_count(EagleEye.test_partition()), 0);
        assert!(kernel.port_count(1) > 0, "AOCS created its port in the prefix");
    }
}

/// Everything a campaign reports per test: the records, and with the
/// recorder on each test's flight stream. The fresh-boot path records
/// no `SnapshotClone` marker; every other event must match.
fn campaign_surface(result: &CampaignResult) -> (String, Vec<Vec<Event>>) {
    let records = format!("{:?}", result.records);
    let flights = result.flight.as_ref().map_or_else(Vec::new, |log| {
        log.tests
            .iter()
            .map(|t| {
                assert_eq!(t.dropped, 0);
                t.events.iter().copied().filter(|e| e.kind != EventKind::SnapshotClone).collect()
            })
            .collect()
    });
    (records, flights)
}

#[test]
fn table3_records_and_flights_match_a_fresh_boot() {
    let spec = xm_campaign::paper_campaign();
    for build in BUILDS {
        for record in [false, true] {
            let opts = |reuse_snapshot| CampaignOptions {
                build,
                threads: 2,
                reuse_snapshot,
                memoize: false,
                record,
                ..Default::default()
            };
            let snap = run_campaign(&EagleEye, &spec, &opts(true));
            let fresh = run_campaign(&EagleEye, &spec, &opts(false));
            assert_eq!(snap.metrics.snapshot_clones, spec.total_tests() as u64);
            assert_eq!(
                campaign_surface(&snap),
                campaign_surface(&fresh),
                "{build:?}, recorder {record}"
            );
        }
    }
}

/// Runs `steps` with the recorder on or off and returns the evaluation,
/// the kernel's run summary and the drained flight stream, rendered.
fn sequence_surface(
    build: KernelBuild,
    steps: &[RawHypercall],
    record: bool,
    ws: Option<&mut skrt::testbed::Workspace>,
    snap: &skrt::testbed::BootSnapshot,
) -> String {
    let ctx = EagleEye.oracle_context(build);
    let per_slot = FuzzOptions::default().steps_per_slot;
    if record {
        flightrec::enable(DEFAULT_RING_CAPACITY);
    }
    let mut fresh;
    let (kernel, guests) = match ws {
        Some(ws) => {
            ws.restore(snap, Some(EagleEye.test_partition()));
            // Rewinds are drained right away (as the fuzzer does): the
            // prefix must come back when the frame resumes, not here.
            let _ = flightrec::drain();
            ws.parts()
        }
        None => {
            fresh = EagleEye.boot(build);
            (&mut fresh.0, &mut fresh.1)
        }
    };
    let eval = run_one_sequence(&EagleEye, &ctx, kernel, guests, steps, per_slot);
    let flight = flightrec::drain();
    flightrec::disable();
    format!("{eval:?}\n{:?}\n{flight:?}", kernel.summary())
}

fn assert_sequences_match(build: KernelBuild, step_lists: &[Vec<RawHypercall>]) {
    let snap = EagleEye.snapshot(build).unwrap();
    let mut ws = snap.workspace();
    for record in [false, true] {
        for (i, steps) in step_lists.iter().enumerate() {
            assert_eq!(
                sequence_surface(build, steps, record, Some(&mut ws), &snap),
                sequence_surface(build, steps, record, None, &snap),
                "{build:?} sequence {i}, recorder {record}"
            );
        }
    }
}

#[test]
fn seeded_sequences_match_a_fresh_boot() {
    for build in BUILDS {
        let specs = eagleeye_sequence_specs(5, 60, 8);
        let lists: Vec<_> = specs.into_iter().map(|s| s.steps).collect();
        assert_sequences_match(build, &lists);
    }
}

/// Fuzz executions run from the snapshot; their corpus signatures and
/// finding verdicts must replay on a fresh boot, and the executions
/// themselves must match one step list at a time.
#[test]
fn fuzz_replays_match_a_fresh_boot() {
    for build in BUILDS {
        let opts =
            FuzzOptions { build, threads: 2, max_execs: 120, batch: 24, ..Default::default() };
        let report = run_eagleeye_fuzz(&opts);
        let result = &report.result;
        assert!(!result.corpus.is_empty());
        for entry in &result.corpus {
            let (coverage, _) =
                replay_coverage(&EagleEye, build, &entry.steps, opts.steps_per_slot);
            assert_eq!(coverage.signature, entry.signature, "{build:?} corpus entry {}", entry.id);
        }
        // Findings carry the authoritative one-step-per-slot re-verdict.
        for finding in &result.findings {
            let (_, verdict) = replay_coverage(&EagleEye, build, &finding.steps, 1);
            assert_eq!(
                verdict, finding.verdict,
                "{build:?} finding at exec {}",
                finding.exec_index
            );
        }
        let mut lists: Vec<_> = result.corpus.iter().map(|e| e.steps.clone()).collect();
        lists.extend(result.findings.iter().map(|f| f.steps.clone()));
        assert_sequences_match(build, &lists);
    }
}
