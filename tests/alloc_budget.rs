//! Allocation-budget regression test for the campaign hot path.
//!
//! The zero-allocation work on the kernel hot path (sink-based timer
//! advancement, lazily rendered halt reasons, scratch-buffer IPC, inline
//! hypercall arguments, guest-owned invocation logs) is only protected if
//! a regression shows up in CI. This test counts the allocations the
//! test thread makes for one steady-state test executed from a boot
//! snapshot — the exact per-test path of the campaign engine — and pins
//! them under a budget. Counting is per thread, so libtest running other
//! tests concurrently cannot disturb a measurement.
//!
//! The measured path also covers the event-horizon bookkeeping (scalar
//! compares and counter bumps, nothing heap-borne) and the staged
//! sampling-port writes: the nominal AOCS/FDIR guests publish samples
//! every frame, so each counted test stages and commits port traffic
//! through the per-channel `SampleStage` buffers. Those buffers reach
//! their high-water capacity during warm-up and are reused (`clear`
//! keeps capacity) afterwards, so staging added nothing to the budget.
//!
//! The budget is deliberately ~50% above the measured steady state so it
//! catches reintroduced per-slot/per-expiry allocation (dozens to
//! hundreds per test) without flaking on allocator-library noise. A
//! second budget does the same for one `run_one_sequence` evaluation, the
//! per-unit path of the sequence, fuzz and check campaigns.

use skrt::mutant::{take_invocations, MutantGuest};
use skrt::observe::TestObservation;
use skrt::testbed::Testbed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xtratum::vuln::KernelBuild;

struct CountingAlloc;

// Per-thread counting window: only the thread that opened it is counted,
// so libtest's other test threads (and its main thread) allocating
// concurrently can never leak into a measurement. Every measured
// operation runs on the test's own thread.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// Opens this thread's counting window with the count at zero.
fn start_counting() {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
}

/// Pauses this thread's counting window, keeping the count.
fn pause_counting() {
    COUNTING.with(|on| on.set(false));
}

/// Resumes this thread's counting window, keeping the count.
fn resume_counting() {
    COUNTING.with(|on| on.set(true));
}

/// Allocations counted on this thread since [`start_counting`].
fn counted() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state per-test allocation ceiling on the snapshot path.
/// Measured at this pin: 59 per test (74 while the snapshot sat at boot
/// and every test re-ran the nominal partitions' first slots; ~279
/// before the hot path went allocation-free). Memory is allocated per
/// written page, so the clone each run takes costs one allocation per
/// page the snapshot has written, and the run one per page it writes
/// first. A reintroduced per-slot, per-expiry or per-hypercall
/// allocation moves the count by dozens to hundreds and trips this
/// immediately.
const BUDGET: u64 = 88;

/// The flat-snapshot rewind — `Workspace::restore`, the operation the
/// campaign engine runs between every two tests on the same worker —
/// must be exactly allocation-free once the workspace is warm. It is a
/// bounded memcpy of dirty pages plus field-by-field scalar restores;
/// any allocation here is per-test overhead multiplied by the whole
/// campaign, so the pin is zero, not a budget.
#[test]
fn workspace_restore_is_allocation_free_after_warmup() {
    let testbed = eagleeye::EagleEye;
    let spec = xm_campaign::paper_campaign();
    let cases = spec.all_cases();
    let snapshot = testbed.snapshot(KernelBuild::Legacy).expect("EagleEye snapshots");
    let part = testbed.test_partition();
    let mut ws = snapshot.workspace();

    let run_one = |ws: &mut skrt::testbed::Workspace, case: &skrt::suite::TestCase| {
        let (kernel, guests) = ws.parts();
        guests.set(part, Box::new(MutantGuest::new(case.raw(), testbed.prologue())));
        kernel.step_major_frames(guests, testbed.frames_per_test());
        assert!(!take_invocations(guests, part).is_empty());
    };

    // Warm-up: the same cases the measured loop will run, so every
    // lazily grown scratch buffer (message scratch, recycled port
    // queues, dirty-page list) reaches the high-water capacity those
    // cases need, and each measured restore has genuinely dirty pages
    // to rewind.
    for case in cases.iter().take(50) {
        ws.restore(&snapshot, Some(part));
        run_one(&mut ws, case);
    }

    let mut restores = 0u64;
    start_counting();
    pause_counting();
    for case in cases.iter().take(50) {
        resume_counting();
        ws.restore(&snapshot, Some(part));
        pause_counting();
        restores += 1;
        run_one(&mut ws, case); // dirty the arena again, outside the window
    }
    let count = counted();
    assert_eq!(
        count, 0,
        "Workspace::restore allocated {count} times across {restores} warm rewinds; \
         the flat-snapshot restore path must be a pure copy-back"
    );
}

/// The telemetry hot path — the per-test bookkeeping each worker does in
/// its `LocalMetrics` (plain counter bumps plus log2-histogram
/// `observe` calls for phase timers and hypercall latency) — must be
/// exactly allocation-free. Histogram buckets are fixed-size inline
/// arrays and counters are plain `u64`s, so the pin is zero: any
/// allocation here would be per-test overhead inside the existing
/// 88-alloc budget and would erode it silently.
#[test]
fn telemetry_hot_path_is_allocation_free() {
    use flightrec::{HistogramSet, LatencyHistogram};

    // Built outside the window, like a worker's LocalMetrics: the set is
    // sized once per worker, then only observed into per test.
    let mut phase = [LatencyHistogram::default(), LatencyHistogram::default()];
    let mut latency = HistogramSet::new(64);
    let mut tests_executed = 0u64;
    let mut class_counts = [0u64; 6];

    start_counting();
    for i in 0..10_000u64 {
        tests_executed += 1;
        class_counts[(i % 6) as usize] += 1;
        phase[(i % 2) as usize].observe(i % 20_000); // spans every log2 bucket
        latency.observe((i % 64) as u32, i % 1_000);
    }
    pause_counting();
    let count = counted();

    std::hint::black_box((&phase, &latency, tests_executed, class_counts));
    assert_eq!(
        count, 0,
        "telemetry bookkeeping allocated {count} times across 10k observations; \
         counter bumps and histogram observes must stay heap-free"
    );
}

#[test]
fn snapshot_path_steady_state_allocations_stay_in_budget() {
    let testbed = eagleeye::EagleEye;
    let spec = xm_campaign::paper_campaign();
    // A representative non-resetting case: XM_set_timer with an ordinary
    // dataset. Reset/halt datasets re-run boot prologues and have a
    // legitimately different (larger) profile.
    let case = spec
        .all_cases()
        .into_iter()
        .find(|c| {
            c.hypercall == xtratum::hypercall::HypercallId::SetTimer
                && c.dataset.iter().all(|v| v.raw == 1)
        })
        .expect("campaign contains an all-ones XM_set_timer dataset");

    let snapshot = testbed.snapshot(KernelBuild::Legacy).expect("EagleEye snapshots");
    let run_once = || {
        let (mut kernel, mut guests) = snapshot.instantiate();
        guests.set(
            testbed.test_partition(),
            Box::new(MutantGuest::new(case.raw(), testbed.prologue())),
        );
        kernel.step_major_frames(&mut guests, testbed.frames_per_test());
        let invocations = take_invocations(&mut guests, testbed.test_partition());
        TestObservation { invocations, summary: kernel.into_summary() }
    };

    // Warm-up: fills lazily grown scratch capacities (kernel message
    // scratch, recycled IPC buffers) so the counted runs see the steady
    // state a campaign worker reaches after its first few tests.
    for _ in 0..3 {
        assert!(!run_once().invocations.is_empty());
    }

    const RUNS: u64 = 5;
    let measure = || {
        start_counting();
        for _ in 0..RUNS {
            std::hint::black_box(run_once());
        }
        pause_counting();
        counted() / RUNS
    };

    // Phase 1: flight recorder compiled in but disabled — the default
    // campaign configuration. The budget is unchanged from before the
    // recorder existed, which pins "disabled costs zero allocations"
    // (its hot-path contribution is one thread-local boolean branch).
    assert!(!flightrec::active(), "recorder must start disabled");
    let per_test = measure();
    assert!(
        per_test <= BUDGET,
        "snapshot-path test now allocates {per_test} times per test (budget {BUDGET}); \
         something reintroduced allocation on the hot path \
         (recorder disabled — recording must not cost anything here)"
    );

    // Phase 2: recorder enabled. Events land in the preallocated ring
    // (records are Copy), so the per-test count must stay within the very
    // same budget: only enable() and drain() may allocate, never the
    // record path itself. Both stay outside the counting window.
    flightrec::enable(skrt::flight::DEFAULT_RING_CAPACITY);
    assert!(!run_once().invocations.is_empty()); // warm the enabled path
    let per_test_enabled = measure();
    let drained = flightrec::drain();
    flightrec::disable();
    assert!(!drained.events.is_empty(), "enabled runs must have recorded events");
    assert!(
        per_test_enabled <= BUDGET,
        "recorder-enabled test allocates {per_test_enabled} times per test (budget {BUDGET}); \
         the record path must write into the preallocated ring without allocating"
    );
}

/// Steady-state allocation ceiling for one EagleEye `run_one_sequence`
/// evaluation on a warm workspace — the stateful path the sequence, fuzz
/// and check campaigns share. Measured at this pin: 11.4 per evaluation
/// (24.3 when every frame copied the guest's new results into a `Vec`
/// and built two fresh `StateDigest`s, and every run boxed a new
/// `SequenceGuest`). What remains is per run, not per frame or step: the
/// reference model's three vectors, the two digest buffers' three each,
/// the returned outcome and frame-digest lists, and about one in the
/// kernel. 17 ≈ 1.5 × 11.4.
const SEQUENCE_BUDGET: u64 = 17;

/// Sequences evaluated in each of the warm-up and measured passes.
const SEQUENCES: usize = 50;

#[test]
fn sequence_evaluation_steady_state_allocations_stay_in_budget() {
    use skrt::classify::CrashClass;
    use skrt::sequence::run_one_sequence;

    let testbed = eagleeye::EagleEye;
    let build = KernelBuild::Patched;
    let ctx = testbed.oracle_context(build);
    // The seq_patched benchmark's shape: seeded 8-step sequences from the
    // EagleEye alphabet, four steps per slot.
    let specs = xm_campaign::eagleeye_sequence_specs(1, SEQUENCES, 8);
    let snapshot = testbed.snapshot(build).expect("EagleEye snapshots");
    let part = testbed.test_partition();
    let mut ws = snapshot.workspace();
    // Rewinds (allocation-free, pinned above) stay outside the window;
    // only the evaluation itself is counted.
    let run = |ws: &mut skrt::testbed::Workspace, steps| {
        ws.restore(&snapshot, Some(part));
        let (kernel, guests) = ws.parts();
        resume_counting();
        let eval = run_one_sequence(&testbed, &ctx, kernel, guests, steps, 4);
        pause_counting();
        eval
    };

    // Warm-up over the same sequences: the kernel's scratch buffers reach
    // their high-water capacity, and the test partition holds a
    // `SequenceGuest` whose buffers the measured runs reuse.
    for spec in &specs {
        run(&mut ws, &spec.steps);
    }
    start_counting();
    pause_counting();
    for spec in &specs {
        let eval = run(&mut ws, &spec.steps);
        assert_eq!(eval.verdict.classification.class, CrashClass::Pass);
    }
    let per_eval = counted() / SEQUENCES as u64;
    assert!(
        per_eval <= SEQUENCE_BUDGET,
        "one warm sequence evaluation now allocates {per_eval} times (budget \
         {SEQUENCE_BUDGET}); something reintroduced a per-frame or per-step allocation \
         in run_one_sequence"
    );
}
