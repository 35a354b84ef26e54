//! Determinism contract of the coverage-guided fuzzer: a run is a pure
//! function of (seed, alphabet, options) — thread count and the
//! recorder toggle must not change a single byte of the corpus, the
//! coverage map, the findings or the rendered report. On top of that,
//! every corpus entry must replay from its serialized form to the exact
//! coverage signature recorded at discovery time, and every candidate
//! must really execute for the coverage feedback to see it.

use eagleeye::EagleEye;
use skrt::fuzz::{parse_steps, replay_coverage, FuzzOptions};
use xm_campaign::fuzz::{finding_signature, run_eagleeye_fuzz, FuzzReport};
use xtratum::vuln::KernelBuild;

fn run(seed: u64, threads: usize, record: bool) -> FuzzReport {
    run_eagleeye_fuzz(&FuzzOptions {
        seed,
        threads,
        max_execs: 150,
        batch: 32,
        record,
        ..FuzzOptions::default()
    })
}

/// The full deterministic surface of a report, serialized: corpus files,
/// coverage map and findings (via the rendered report, which covers the
/// rediscovery table and every triage bundle).
fn surface(report: &FuzzReport) -> String {
    let mut out = String::new();
    for entry in &report.result.corpus {
        out.push_str(&entry.file_name());
        out.push('\n');
        out.push_str(&entry.render());
    }
    out.push_str(&report.result.map.render());
    out.push_str(&report.render());
    out
}

#[test]
fn thread_count_and_recorder_do_not_change_the_run() {
    let baseline = surface(&run(7, 1, false));
    assert!(!baseline.is_empty());
    for (threads, record) in [(4, false), (16, false), (1, true), (4, true), (16, true)] {
        let other = surface(&run(7, threads, record));
        assert_eq!(baseline, other, "fuzz run diverged at threads={threads} record={record}");
    }
}

/// Every corpus entry survives a serialize → parse → replay round trip
/// with the exact coverage signature recorded at discovery time, on a
/// fresh kernel boot. This is what makes corpus files reproducers and
/// the corpus portable across runs.
#[test]
fn corpus_entries_replay_to_their_recorded_signature() {
    let report = run(7, 4, false);
    assert!(!report.result.corpus.is_empty());
    let steps_per_slot = FuzzOptions::default().steps_per_slot;
    for entry in &report.result.corpus {
        let steps = parse_steps(&entry.render()).expect("corpus entry reparses");
        assert_eq!(steps, entry.steps, "entry {} reparse mismatch", entry.id);
        let (coverage, _) = replay_coverage(&EagleEye, KernelBuild::Legacy, &steps, steps_per_slot);
        assert_eq!(
            coverage.signature, entry.signature,
            "entry {} (exec {}) replayed to a different coverage signature",
            entry.id, entry.exec_index
        );
    }
}

/// Findings are deduplicated into signatures identically across thread
/// counts (a weaker but more legible restatement of the byte-equality
/// test above, and the property CI's rediscovery gate relies on).
#[test]
fn signatures_and_first_hits_are_thread_invariant() {
    let a = run(11, 1, false);
    let b = run(11, 16, true);
    assert_eq!(a.first_hits(), b.first_hits());
    let sigs_a: Vec<_> = a.result.findings.iter().map(finding_signature).collect();
    let sigs_b: Vec<_> = b.result.findings.iter().map(finding_signature).collect();
    assert_eq!(sigs_a, sigs_b);
}

/// Every candidate is a real execution, for the map to see its stream:
/// one verdict and at least one arena rewind per candidate, and one boot
/// per worker, whose arena persists across rounds.
#[test]
fn fuzzer_executes_every_candidate() {
    let report = run(5, 4, false);
    let m = &report.result.metrics;
    assert_eq!(m.tests_executed, report.result.execs);
    assert!(m.snapshot_clones >= report.result.execs);
    assert_eq!(m.fresh_boots, m.threads as u64);
}
