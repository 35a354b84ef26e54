//! The traced run's deterministic counts repeat exactly across two runs
//! of one seed, and every ledger pass reproduces the verdicts of the
//! campaign invocation it describes.

use perfbench::ledger;
use perfbench::workloads::{self, Workload};

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn check_workload(w: Workload) {
    let seed = workloads::invocation_seed(7, 0);
    let a = ledger::run(w, seed);
    let b = ledger::run(w, seed);
    assert_eq!(a.deterministic_view(), b.deterministic_view(), "{}: counts differ", w.name());
    assert!(a.units > 0);
    for name in [
        "testbed.dirty_pages",
        "xtratum.adv_quiescent",
        "eagleeye.nominal_slots",
        "flightrec.events",
    ] {
        assert!(a.count(name) > 0, "{}: {name} never counted", w.name());
    }

    let input = workloads::make_input(w, seed);
    for threads in [1, 2] {
        let run = workloads::invoke(w, &input, threads);
        assert_eq!(run.failure, None, "{}: output check failed", w.name());
        assert_eq!(run.units, a.units, "{}: unit count", w.name());
        assert_eq!(
            run.digest,
            a.digest,
            "{}: ledger digest differs at {threads} threads",
            w.name()
        );
    }
}

#[test]
fn table3_ledger_repeats_and_matches_the_campaign() {
    check_workload(Workload::Table3);
}

#[test]
fn seq_patched_ledger_repeats_and_matches_the_campaign() {
    check_workload(Workload::SeqPatched);
}

#[test]
fn fuzz_legacy_ledger_repeats_and_matches_the_campaign() {
    check_workload(Workload::FuzzLegacy);
}

#[test]
fn check_patched_ledger_repeats_and_matches_the_campaign() {
    check_workload(Workload::CheckPatched);
}

#[test]
fn allocations_are_counted_per_thread() {
    let before = perfbench::alloc::thread_allocs();
    let other = std::thread::spawn(|| {
        let v: Vec<Vec<u8>> = (0..100).map(|i| vec![0u8; i + 1]).collect();
        (v.len(), perfbench::alloc::thread_allocs())
    })
    .join()
    .expect("allocating thread");
    assert!(other.1 >= 100, "the spawned thread's allocations are counted on it");
    // Spawning and joining allocate a little on this thread; the other
    // thread's hundred allocations must not show up here.
    assert!(perfbench::alloc::thread_allocs() - before < 100);
}
