//! Substrate microbenches: hypercall dispatch latency per Table III
//! category, single-test execution cost (fresh boot vs snapshot clone),
//! nominal EagleEye mission throughput (major frames per second of host
//! time), and the kernel hot-path primitives (timer advancement, expiry
//! catch-up, quiescent advance, trace-event emission, flight recording,
//! multicall batches, arena rewind).

use eagleeye::map::*;
use eagleeye::EagleEye;
use leon3_sim::machine::{Machine, MachineConfig};
use leon3_sim::timer::GpTimer;
use leon3_sim::uart::Uart;
use skrt::dictionary::TestValue;
use skrt::exec::run_single_test;
use skrt::suite::TestCase;
use skrt::testbed::Testbed;
use skrt_bench::Bench;
use std::hint::black_box;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::vuln::KernelBuild;

fn bench_hypercalls(b: &mut Bench) {
    // One cheap representative service per category.
    let reps: Vec<(&str, HypercallId, Vec<u64>)> = vec![
        ("system", HypercallId::GetSystemStatus, vec![SCRATCH as u64]),
        ("partition", HypercallId::GetPartitionStatus, vec![1, SCRATCH as u64]),
        ("time", HypercallId::GetTime, vec![0, SCRATCH as u64]),
        ("plan", HypercallId::GetPlanStatus, vec![SCRATCH as u64]),
        ("ipc", HypercallId::FlushAllPorts, vec![]),
        ("memory", HypercallId::UpdatePage32, vec![SCRATCH as u64, 7]),
        ("hm", HypercallId::HmStatus, vec![SCRATCH as u64]),
        ("trace", HypercallId::TraceStatus, vec![0, SCRATCH as u64]),
        ("interrupt", HypercallId::SetIrqMask, vec![0, 0]),
        ("misc", HypercallId::FlushCache, vec![3]),
        ("sparc", HypercallId::SparcGetPsr, vec![]),
    ];
    for (label, id, args) in reps {
        let (mut kernel, _guests) = EagleEye.boot(KernelBuild::Patched);
        let hc = RawHypercall::new_unchecked(id, args);
        b.measure(&format!("hypercall_dispatch/{label}"), || {
            black_box(kernel.hypercall(FDIR, &hc).result)
        });
    }
}

fn bench_single_test(b: &mut Bench) {
    let tb = EagleEye;
    let ctx = tb.oracle_context(KernelBuild::Legacy);
    let case = TestCase {
        hypercall: HypercallId::GetTime,
        dataset: vec![TestValue::scalar(0), TestValue::scalar(SCRATCH as u64)],
        suite_index: 0,
        case_index: 0,
    };
    b.measure("single_test_boot_to_verdict", || {
        black_box(run_single_test(&tb, &ctx, KernelBuild::Legacy, &case).classification.class)
    });

    // The snapshot engine's per-test cost: clone the booted state instead
    // of re-booting it.
    let snapshot = tb.snapshot(KernelBuild::Legacy).expect("EagleEye guests are cloneable");
    b.measure("boot_snapshot_clone", || {
        let (kernel, guests) = snapshot.instantiate();
        black_box((kernel, guests.len()))
    });
    b.measure("fresh_boot", || {
        let (kernel, guests) = tb.boot(KernelBuild::Legacy);
        black_box((kernel, guests.len()))
    });
}

fn bench_mission(b: &mut Bench) {
    let frames = 40u32;
    b.throughput("eagleeye_mission/nominal_frames", frames as u64, || {
        let (mut kernel, mut guests) = EagleEye::boot_nominal(KernelBuild::Patched);
        let s = kernel.run_major_frames(&mut guests, frames);
        assert!(s.healthy());
        black_box(s.frames_completed)
    });
}

/// Partition-runtime overhead: the same mission with XAL and RTOS-style
/// guests hosted in their partitions.
fn bench_partition_runtimes(b: &mut Bench) {
    use rtems_lite::{Poll, RtemsGuest};
    use xal::{XalApp, XalCtx, XalGuest};

    struct NopApp;
    impl XalApp for NopApp {
        fn init(&mut self, _ctx: &mut XalCtx<'_, '_>) {}
        fn step(&mut self, ctx: &mut XalCtx<'_, '_>) {
            ctx.consume(1_000);
        }
    }

    let frames = 20u32;
    b.throughput("partition_runtimes/xal_hosted_hk", frames as u64, || {
        let (mut kernel, mut guests) = EagleEye.boot(KernelBuild::Patched);
        guests.set(HK, Box::new(XalGuest::new(NopApp, part_base(HK) + PART_SIZE / 2)));
        black_box(kernel.run_major_frames(&mut guests, frames).frames_completed)
    });
    b.throughput("partition_runtimes/rtems_hosted_payload", frames as u64, || {
        let (mut kernel, mut guests) = EagleEye.boot(KernelBuild::Patched);
        let guest = RtemsGuest::new(1_000, |rt| {
            rt.spawn("a", 1, |_| Poll::Sleep(1));
            rt.spawn("b", 2, |_| Poll::Yield);
        });
        guests.set(PAYLOAD, Box::new(guest));
        black_box(kernel.run_major_frames(&mut guests, frames).frames_completed)
    });
}

/// Sink-based timer advancement: expiries are delivered through a
/// closure, never collected into an allocation. A periodic workload of
/// two units fires ~14 expiries per step.
fn bench_timer_advance(b: &mut Bench) {
    let mut timer = GpTimer::new(2, 6);
    assert!(timer.arm(0, 100, Some(100)));
    assert!(timer.arm(1, 250, Some(250)));
    let mut now = 0u64;
    b.measure("timer_advance/sink_api", || {
        now += 1_000;
        let mut fired = 0usize;
        timer.advance_to_with(now, &mut |_, _, count| fired += count as usize);
        black_box(fired)
    });
}

/// Periodic expiry catch-up in closed form: a period-1 unit swept over a
/// 4000 us window (the storm-threshold scale the campaigns actually hit)
/// costs O(1) per unit, not one pass per expiry.
fn bench_expiry_batching(b: &mut Bench) {
    b.measure("expiry_batching/closed_form", || {
        let mut t = GpTimer::new(1, 8);
        t.arm(0, 1, Some(1));
        let mut fired = 0u64;
        t.advance_to_with(4_000, &mut |_, _, count| fired += count);
        black_box(fired)
    });
}

/// Catch-up of a software-managed HW-clock virtual timer whose period
/// (13 µs) is just above the handler cost: one 250 ms major frame's
/// worth of expiries (~19,000) processed in a single call, as the kernel
/// does when a slot boundary finds the timer long overdue. The catch-up
/// is closed form, so this costs a division, not a pass per expiry.
fn bench_vtimer_catch_up(b: &mut Bench) {
    use xtratum::config::KernelTuning;
    use xtratum::vtimer::{process_hw_timer, ProcessOutcome, VTimer};

    let tuning = KernelTuning::default();
    let cost = tuning.vtimer_handler_cost_us as i64;
    let limit = tuning.kernel_stack_frames;
    let frame = |now: i64| {
        let mut t = VTimer::default();
        t.arm(0, cost + 1);
        (process_hw_timer(&mut t, now, cost, limit), t.next_expiry)
    };
    assert_eq!(frame(250_000).0, ProcessOutcome::Done { delivered: 19_231 });
    b.measure("vtimer_catch_up/healthy_period_frame", || black_box(frame(black_box(250_000))));
}

/// The quiescent time advance: the kernel keeps an event horizon and
/// collapses a no-event advance to a single clock store
/// (`Machine::advance_quiescent`).
fn bench_quiescent_advance(b: &mut Bench) {
    let mut m = Machine::new(MachineConfig::default());
    let mut now = 0u64;
    b.measure("quiescent_advance/horizon", || {
        now += 250;
        black_box(m.advance_quiescent(now))
    });
}

/// Trace-event emission on the console: `format_args!` rendered straight
/// into the capture buffer. The capture is cleared well before its byte
/// budget so every write lands in pre-grown storage at steady state.
fn bench_trace_emission(b: &mut Bench) {
    const LIMIT: usize = 64 * 1024;
    let mut uart = Uart::new(LIMIT);
    let mut seq = 0u64;
    b.measure("trace_emission/put_fmt_args", || {
        seq = seq.wrapping_add(1);
        if uart.captured().len() > LIMIT - 128 {
            uart.clear();
        }
        uart.put_fmt(format_args!("[HM] partition 4 event {seq} at {}us\n", seq * 250));
        black_box(uart.captured().len())
    });
}

/// Flight-recorder overhead on the real per-test path: the same
/// snapshot-clone test executed with the recorder disabled (its cost is
/// one thread-local branch per instrumentation site) and enabled (events
/// are copied into the preallocated ring, drained once per test). The
/// pair backs the overhead numbers in EXPERIMENTS.md.
fn bench_flight_recorder(b: &mut Bench) {
    use skrt::flight::DEFAULT_RING_CAPACITY;
    use skrt::mutant::{take_invocations, MutantGuest};

    let tb = EagleEye;
    let case = TestCase {
        hypercall: HypercallId::SetTimer,
        dataset: vec![TestValue::scalar(1), TestValue::scalar(1), TestValue::scalar(0)],
        suite_index: 0,
        case_index: 0,
    };
    let snapshot = tb.snapshot(KernelBuild::Patched).expect("EagleEye guests are cloneable");
    let run_once = || {
        let (mut kernel, mut guests) = snapshot.instantiate();
        guests.set(tb.test_partition(), Box::new(MutantGuest::new(case.raw(), tb.prologue())));
        kernel.step_major_frames(&mut guests, tb.frames_per_test());
        take_invocations(&mut guests, tb.test_partition()).len()
    };

    assert!(!flightrec::active());
    b.measure("flight_recorder/disabled", || black_box(run_once()));

    flightrec::enable(DEFAULT_RING_CAPACITY);
    b.measure("flight_recorder/enabled_with_drain", || {
        let n = run_once();
        black_box((n, flightrec::drain().events.len()))
    });
    flightrec::disable();

    // The raw record-path cost, isolated from the test workload: one
    // `record()` call with the recorder off (the branch every
    // instrumentation site pays in a normal run) and on (thread-local
    // resolve + ring push, no allocation).
    let mut t = 0u64;
    b.measure("flight_recorder/record_call_disabled", || {
        t += 1;
        flightrec::record(t, flightrec::EventKind::Ops, 3, 7, t, t);
        black_box(t)
    });
    flightrec::enable(DEFAULT_RING_CAPACITY);
    let mut t = 0u64;
    b.measure("flight_recorder/record_call_enabled", || {
        t += 1;
        flightrec::record(t, flightrec::EventKind::Ops, 3, 7, t, t);
        black_box(t)
    });
    flightrec::disable();
}

/// The temporal-isolation batch the paper's multicall finding injects:
/// one legacy `XM_multicall(BATCH_START, BATCH_END)`, 2048 entries of
/// FDIR RAM charged in closed form (one region lookup for the window).
fn bench_multicall(b: &mut Bench) {
    let (mut kernel, _guests) = EagleEye.boot(KernelBuild::Legacy);
    let hc =
        RawHypercall::new_unchecked(HypercallId::Multicall, [BATCH_START as u64, BATCH_END as u64]);
    b.measure("multicall/legacy_batch_window", || black_box(kernel.hypercall(FDIR, &hc).result));
}

/// The per-test arena rewind the campaign executor pays: each sample runs
/// every Table III case once from a worker's workspace and times only
/// the restores that follow them (the dirty blocks each test left).
fn bench_workspace_restore(b: &mut Bench) {
    use skrt::mutant::MutantGuest;
    use std::time::Instant;

    let tb = EagleEye;
    let cases = xm_campaign::paper_campaign().all_cases();
    let snapshot = tb.snapshot(KernelBuild::Legacy).expect("EagleEye guests are cloneable");
    let mut ws = snapshot.workspace();
    let part = tb.test_partition();
    let samples = if b.quick() { 3 } else { 10 };
    let mut per_restore = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut restore_ns = 0u128;
        for case in &cases {
            let (kernel, guests) = ws.parts();
            guests.set(part, Box::new(MutantGuest::new(case.raw(), tb.prologue())));
            kernel.step_major_frames(guests, tb.frames_per_test());
            let t = Instant::now();
            ws.restore(&snapshot, Some(part));
            restore_ns += t.elapsed().as_nanos();
        }
        per_restore.push(restore_ns as f64 / cases.len() as f64);
    }
    b.record("workspace/restore_after_table3_test", &per_restore, None);
}

fn main() {
    let mut b = Bench::new("kernel_microbench");
    b.note_host();
    bench_hypercalls(&mut b);
    bench_single_test(&mut b);
    bench_mission(&mut b);
    bench_partition_runtimes(&mut b);
    bench_timer_advance(&mut b);
    bench_expiry_batching(&mut b);
    bench_quiescent_advance(&mut b);
    bench_vtimer_catch_up(&mut b);
    bench_trace_emission(&mut b);
    bench_flight_recorder(&mut b);
    bench_multicall(&mut b);
    bench_workspace_restore(&mut b);
    b.finish();
}
