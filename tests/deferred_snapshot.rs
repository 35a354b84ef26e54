//! The boot snapshot is taken inside the test partition's first slot,
//! after its boot prologue: the nominal EagleEye partitions have already
//! run their first-frame slots in it and FDIR has created its ports, and
//! the kernel replays the flight events of all that when a test resumes
//! the frame. These tests pin that a test run from that snapshot is
//! indistinguishable from one on a fresh boot — test records, sequence
//! evaluations, run summaries and drained flight streams, byte for byte —
//! on both builds, with the recorder on and off.

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
        // AOCS, Payload, HK and TM/TC ran; FDIR's slot starts at 190 ms
        // (machine time stands still inside a slot).
        assert_eq!(kernel.machine.now(), 190_000, "{build:?}");
        assert_eq!(kernel.summary().frames_completed, 0);
        assert!(kernel.port_count(1) > 0, "AOCS created its port in the prefix");
        // FDIR's slot is parked after its prologue: its four ports exist
        // and its boot HM event is the only HM entry.
        assert!(kernel.slot_parked());
        assert_eq!(kernel.port_count(EagleEye.test_partition()), 4);
        assert_eq!(kernel.hm_log().len(), 1);
        assert_eq!(kernel.hm_log()[0].partition, Some(EagleEye.test_partition()));
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

/// A mutant built with `MutantGuest::new` knows nothing of the snapshot.
/// Installed into a workspace resumed inside the parked FDIR slot, it
/// must issue only its fault placeholder there: the slot reports that the
/// boot prologue already ran, so the ports are not re-created and the
/// boot HM event is not raised twice.
#[test]
fn fresh_mutant_in_a_resumed_slot_issues_only_its_test_call() {
    use skrt::mutant::{take_invocations, MutantGuest};
    use xtratum::hypercall::HypercallId;

    let part = EagleEye.test_partition();
    let raw =
        RawHypercall::new(HypercallId::GetTime, vec![0, eagleeye::map::SCRATCH as u64]).unwrap();
    // FDIR's hypercalls in frame 1, its HM log and its invocations.
    let run = |kernel: &mut xtratum::kernel::XmKernel, guests: &mut xtratum::guest::GuestSet| {
        guests.set(part, Box::new(MutantGuest::new(raw, EagleEye.prologue())));
        flightrec::enable(DEFAULT_RING_CAPACITY);
        kernel.step_major_frames(guests, 1);
        let calls: Vec<u32> = flightrec::drain()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::HypercallEnter && e.partition == part as u16)
            .map(|e| e.code)
            .collect();
        flightrec::disable();
        (calls, kernel.hm_log().len(), take_invocations(guests, part))
    };
    for build in BUILDS {
        let snap = EagleEye.snapshot(build).unwrap();
        let mut ws = snap.workspace();
        ws.restore(&snap, Some(part));
        let (kernel, guests) = ws.parts();
        assert!(kernel.slot_parked());
        let resumed = run(kernel, guests);
        let (mut kernel, mut guests) = EagleEye.boot(build);
        assert_eq!(resumed, run(&mut kernel, &mut guests), "{build:?}");
        // The replayed prologue (4 port creations and 1 HM raise), then
        // exactly one test call.
        let (calls, hm_entries, invocations) = resumed;
        assert_eq!(calls.len(), 6, "{build:?}: {calls:?}");
        assert_eq!(calls.iter().filter(|&&c| c == HypercallId::GetTime as u32).count(), 1);
        assert_eq!(*calls.last().unwrap(), HypercallId::GetTime as u32);
        assert_eq!(hm_entries, 1, "{build:?}: the boot HM event is raised once");
        assert_eq!(invocations.len(), 1);
    }
}
