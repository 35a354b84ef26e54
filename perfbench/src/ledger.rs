//! The per-layer ledger: each workload's unit of work re-driven on one
//! thread through the layers' public functions, with every call timed
//! from outside and its allocations counted.
//!
//! A pass replays exactly what the campaign invocation of the same seed
//! does, and its verdict digest must equal that invocation's digest, so a
//! ledger that drifts from the program it describes is caught rather than
//! reported.
//!
//! Spans are disjoint: a pass's time is the sum of its spans plus the
//! loop around them. `shrink` is inclusive of the rewinds and evaluations
//! its predicate makes. `sequence.model` is the exception: it re-runs the
//! reference model alone over an evaluation's executed steps to estimate
//! how much of `sequence.eval` the model takes, so it is kept out of the
//! span sum.

use crate::alloc::thread_allocs;
use crate::stats::Digest;
use crate::workloads::{self, Workload};
use eagleeye::EagleEye;
use flightrec::coverage::{CoverageMap, EdgeTrace};
use flightrec::{Event, EventKind};
use skrt::check::{enumerate_configs, part_base, probes_for, CheckTestbed, PART_SIZE};
use skrt::classify::CrashClass;
use skrt::flight::DEFAULT_RING_CAPACITY;
use skrt::fuzz::{FuzzFinding, Mutator};
use skrt::mutant::{take_invocations, MutantGuest};
use skrt::observe::TestObservation;
use skrt::oracle::OracleContext;
use skrt::sequence::{
    run_one_sequence, run_one_sequence_bounded, SeqRng, SequenceEval, StateModel,
};
use skrt::shrink::shrink_sequence;
use skrt::testbed::{BootSnapshot, Testbed, Workspace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use xtratum::hypercall::RawHypercall;
use xtratum::kernel::XmKernel;

/// Span that is measured but excluded from the accounted sum.
pub const MODEL_SPAN: &str = "sequence.model";

/// One ledger pass over one invocation's inputs.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Units of work replayed.
    pub units: u64,
    /// Verdict digest; equals the campaign invocation's.
    pub digest: u64,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Host nanoseconds per span.
    pub span_ns: BTreeMap<&'static str, u128>,
    /// Allocations per span (calling thread only).
    pub span_allocs: BTreeMap<&'static str, u64>,
    /// Deterministic work counts.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let a = thread_allocs();
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos();
        let allocs = thread_allocs() - a;
        *self.span_ns.entry(name).or_default() += ns;
        *self.span_allocs.entry(name).or_default() += allocs;
        r
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Span nanoseconds, 0 when the span never ran.
    pub fn ns(&self, name: &str) -> u128 {
        self.span_ns.get(name).copied().unwrap_or(0)
    }

    pub fn allocs(&self, name: &str) -> u64 {
        self.span_allocs.get(name).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Sum of the accounted (disjoint) spans.
    pub fn accounted_ns(&self) -> u128 {
        self.span_ns.iter().filter(|(k, _)| **k != MODEL_SPAN).map(|(_, v)| *v).sum()
    }

    /// Everything that must repeat exactly across two passes of a seed.
    pub fn deterministic_view(
        &self,
    ) -> (u64, u64, &BTreeMap<&'static str, u64>, &BTreeMap<&'static str, u64>) {
        (self.units, self.digest, &self.counts, &self.span_allocs)
    }

    /// Folds one drained recording window into the flight counts.
    fn count_events(&mut self, events: &[Event], dropped: u64, test_partition: u32) {
        self.add("flightrec.events", events.len() as u64 + dropped);
        for e in events {
            match e.kind {
                EventKind::HypercallEnter => self.add("xtratum.hypercalls", 1),
                EventKind::SlotBegin if u32::from(e.partition) == test_partition => {
                    self.add("eagleeye.fdir_slots", 1)
                }
                EventKind::SlotBegin => self.add("eagleeye.nominal_slots", 1),
                _ => {}
            }
        }
    }

    fn drain_counted(&mut self, test_partition: u32) -> Vec<Event> {
        let d = self.span("flightrec.drain", flightrec::drain);
        self.count_events(&d.events, d.dropped, test_partition);
        d.events
    }

    /// Rewinds the workspace, counting the pages the rewind copies.
    fn restore(&mut self, ws: &mut Workspace, snap: &BootSnapshot, skip: u32) {
        self.add("testbed.dirty_pages", ws.parts().0.machine.mem.dirty_pages() as u64);
        self.span("testbed.restore", || ws.restore(snap, Some(skip)));
    }

    fn add_advances(&mut self, before: (u64, u64), kernel: &XmKernel) {
        let (q, p) = kernel.advance_stats();
        self.add("xtratum.adv_quiescent", q - before.0);
        self.add("xtratum.adv_processed", p - before.1);
    }

    /// Times the reference model alone over an evaluation's executed
    /// steps, spread evenly over its frames (the split the guest actually
    /// used is not observable from outside).
    fn model_replay(
        &mut self,
        ctx: &OracleContext,
        steps: &[RawHypercall],
        eval: &SequenceEval,
        kernel: &XmKernel,
        caller: u32,
    ) {
        let frames = eval.frame_digests.len().max(1);
        let executed = eval.steps_executed.min(steps.len());
        let per_frame = executed.div_ceil(frames).max(1);
        let observed = kernel.state_digest(caller);
        self.span(MODEL_SPAN, || {
            let mut model = StateModel::new(ctx);
            let mut next = 0;
            for _ in 0..frames {
                black_box(model.caller_schedulable());
                if next < executed {
                    model.begin_caller_slot();
                    for hc in &steps[next..(next + per_frame).min(executed)] {
                        let exp = model.expect_step(hc);
                        model.apply_step(hc, &exp);
                    }
                    next += per_frame;
                }
                model.end_frame();
                black_box(model.digest().diff(&observed));
            }
        });
    }
}

/// One ledger pass over the invocation of `w` with seed `seed`, on a
/// fresh thread like a campaign worker's (the main thread's allocator
/// arena behaves differently from a worker's).
pub fn run(w: Workload, seed: u64) -> Ledger {
    std::thread::scope(|s| {
        s.spawn(|| match w {
            Workload::Table3 => table3(seed),
            Workload::SeqPatched => seq(seed),
            Workload::FuzzLegacy => fuzz(seed),
            Workload::CheckPatched => check(),
        })
        .join()
        .expect("ledger pass panicked")
    })
}

fn eagleeye_arena(build: xtratum::vuln::KernelBuild) -> (OracleContext, BootSnapshot, Workspace) {
    let ctx = EagleEye.oracle_context(build);
    let snap = EagleEye.snapshot(build).expect("EagleEye snapshots");
    let ws = snap.workspace();
    (ctx, snap, ws)
}

fn table3(seed: u64) -> Ledger {
    let mut l = Ledger::default();
    let spec = workloads::table3_spec(seed);
    let cases = spec.all_cases();
    let build = Workload::Table3.build();
    let (ctx, snap, mut ws) = eagleeye_arena(build);
    let part = EagleEye.test_partition();
    let frames = EagleEye.frames_per_test();
    let boot_frames = snap.instantiate().0.summary().frames_completed;
    let mut d = Digest::default();
    let started = Instant::now();
    for case in &cases {
        let raw = case.raw();
        let exp = l.span("oracle.expect", || ctx.expect(&raw));
        l.restore(&mut ws, &snap, part);
        let (kernel, guests) = ws.parts();
        let adv = kernel.advance_stats();
        l.span("mutant.install", || {
            guests.set(part, Box::new(MutantGuest::new(raw, EagleEye.prologue())))
        });
        l.span("xtratum.step", || kernel.step_major_frames(guests, frames));
        l.add_advances(adv, kernel);
        let (class, sig, frames_after) = l.span("classify", || {
            let invocations = take_invocations(guests, part);
            let observation = TestObservation { invocations, summary: kernel.summary() };
            let class = skrt::classify::classify(&observation, &exp, part);
            (class, ctx.param_signature(&exp, &case.dataset), observation.summary.frames_completed)
        });
        l.add("xtratum.frames", frames_after - boot_frames);
        workloads::table3_digest_item(&mut d, &raw, &class, &sig);
    }
    l.wall = started.elapsed();
    // Flight counts come from a second, untimed pass with the recorder on,
    // so recording never inflates the timed spans.
    flightrec::enable(DEFAULT_RING_CAPACITY);
    for case in &cases {
        ws.restore(&snap, Some(part));
        let _ = flightrec::drain();
        let (kernel, guests) = ws.parts();
        guests.set(part, Box::new(MutantGuest::new(case.raw(), EagleEye.prologue())));
        kernel.step_major_frames(guests, frames);
        l.drain_counted(part);
    }
    flightrec::disable();
    l.units = cases.len() as u64;
    l.digest = d.value();
    l
}

fn seq(seed: u64) -> Ledger {
    let mut l = Ledger::default();
    let specs =
        xm_campaign::eagleeye_sequence_specs(seed, workloads::SEQ_COUNT, workloads::SEQ_STEPS);
    let per_slot = workloads::seq_options(1).steps_per_slot;
    let (ctx, snap, mut ws) = eagleeye_arena(Workload::SeqPatched.build());
    let part = EagleEye.test_partition();
    let mut d = Digest::default();
    let started = Instant::now();
    for spec in &specs {
        l.restore(&mut ws, &snap, part);
        let (kernel, guests) = ws.parts();
        let adv = kernel.advance_stats();
        let eval = l.span("sequence.eval", || {
            run_one_sequence(&EagleEye, &ctx, kernel, guests, &spec.steps, per_slot)
        });
        l.add_advances(adv, kernel);
        l.add("xtratum.frames", eval.frame_digests.len() as u64);
        l.model_replay(&ctx, &spec.steps, &eval, kernel, part);
        workloads::seq_digest_item(&mut d, &spec.steps, &eval.verdict, eval.steps_executed);
    }
    l.wall = started.elapsed();
    flightrec::enable(DEFAULT_RING_CAPACITY);
    for spec in &specs {
        ws.restore(&snap, Some(part));
        let _ = flightrec::drain();
        let (kernel, guests) = ws.parts();
        run_one_sequence(&EagleEye, &ctx, kernel, guests, &spec.steps, per_slot);
        l.drain_counted(part);
    }
    flightrec::disable();
    l.units = specs.len() as u64;
    l.digest = d.value();
    l
}

fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fuzzer's candidate `slot` of `round`: a pure function of the
/// master seed, the round, the slot and the frozen corpus.
fn candidate(
    opts: &skrt::fuzz::FuzzOptions,
    mutator: &Mutator<'_>,
    corpus: &[Vec<RawHypercall>],
    round: usize,
    slot: usize,
) -> Vec<RawHypercall> {
    let seed = splitmix(
        opts.seed
            ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (slot as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let mut rng = SeqRng::new(seed);
    if corpus.is_empty() || rng.next_u64().is_multiple_of(8) {
        return mutator.fresh_sequence(&mut rng, opts.steps);
    }
    let n = corpus.len() as u64;
    let parent = if rng.next_u64().is_multiple_of(2) {
        (n - 1 - rng.next_u64() % n.min(8)) as usize
    } else {
        (rng.next_u64() % n) as usize
    };
    let other = (rng.next_u64() % n) as usize;
    mutator.mutate(&mut rng, &corpus[parent], &corpus[other]).steps
}

fn fuzz(seed: u64) -> Ledger {
    let mut l = Ledger::default();
    let opts = workloads::fuzz_options(seed, 1);
    let alphabet = xm_campaign::eagleeye_sequence_alphabet();
    let mutator = Mutator::new(&alphabet, opts.max_steps.max(1));
    let (ctx, snap, mut ws) = eagleeye_arena(opts.build);
    let part = EagleEye.test_partition();
    let mut map = CoverageMap::new();
    let mut trace = EdgeTrace::new();
    let mut corpus: Vec<Vec<RawHypercall>> = Vec::new();
    let mut findings: Vec<FuzzFinding> = Vec::new();
    let mut d = Digest::default();
    let mut execs = 0u64;
    let mut round = 0usize;
    let started = Instant::now();
    flightrec::enable(DEFAULT_RING_CAPACITY);
    while execs < opts.max_execs {
        let batch = (opts.batch.max(1) as u64).min(opts.max_execs - execs) as usize;
        let candidates: Vec<Vec<RawHypercall>> = l.span("fuzz.mutate", || {
            (0..batch).map(|slot| candidate(&opts, &mutator, &corpus, round, slot)).collect()
        });
        for (slot, steps) in candidates.iter().enumerate() {
            let exec_index = execs + slot as u64 + 1;
            l.restore(&mut ws, &snap, part);
            l.span("flightrec.drain", flightrec::drain);
            let (kernel, guests) = ws.parts();
            let adv = kernel.advance_stats();
            let eval = l.span("sequence.eval", || {
                run_one_sequence(&EagleEye, &ctx, kernel, guests, steps, opts.steps_per_slot)
            });
            l.add_advances(adv, kernel);
            l.add("xtratum.frames", eval.frame_digests.len() as u64);
            let events = l.drain_counted(part);
            l.model_replay(&ctx, steps, &eval, kernel, part);
            let coverage = l.span("fuzz.coverage", || {
                trace.begin();
                for e in &events {
                    trace.observe_event(e);
                }
                for &t in &eval.frame_digests {
                    trace.observe_token(t);
                }
                trace.finish()
            });
            let mut finding = None;
            if eval.verdict.classification.class != CrashClass::Pass {
                l.restore(&mut ws, &snap, part);
                let (kernel, guests) = ws.parts();
                let refined = l.span("fuzz.refine", || {
                    run_one_sequence(&EagleEye, &ctx, kernel, guests, steps, 1)
                });
                l.drain_counted(part);
                if refined.verdict.classification.class != CrashClass::Pass {
                    let target = refined.verdict.classification;
                    let (ctx, snap, ws) = (&ctx, &snap, &mut ws);
                    let (out, minimal) = l.span("shrink", || {
                        let out = shrink_sequence(
                            steps,
                            |cand| {
                                if cand.is_empty() {
                                    return false;
                                }
                                ws.restore(snap, Some(part));
                                let (k, g) = ws.parts();
                                run_one_sequence(&EagleEye, ctx, k, g, cand, 1)
                                    .verdict
                                    .classification
                                    == target
                            },
                            opts.shrink_budget,
                        );
                        let _ = flightrec::drain();
                        ws.restore(snap, Some(part));
                        let (k, g) = ws.parts();
                        let minimal = run_one_sequence(&EagleEye, ctx, k, g, &out.steps, 1);
                        (out, minimal)
                    });
                    l.drain_counted(part);
                    l.add("shrink.evals", out.evals as u64);
                    finding = Some(FuzzFinding {
                        exec_index,
                        round,
                        steps: steps.clone(),
                        verdict: refined.verdict,
                        steps_executed: refined.steps_executed,
                        minimal: Some(skrt::sequence::MinimalRepro {
                            steps: out.steps,
                            verdict: minimal.verdict,
                            evals: out.evals,
                            removed_steps: out.removed_steps,
                            shrunk_args: out.shrunk_args,
                        }),
                        wall: Duration::ZERO,
                    });
                }
            }
            l.span("fuzz.fold", || {
                if map.observe(&coverage) > 0 {
                    corpus.push(steps.clone());
                }
                if let Some(f) = finding {
                    findings.push(f);
                }
            });
        }
        execs += batch as u64;
        round += 1;
    }
    flightrec::disable();
    l.wall = started.elapsed();
    for c in &corpus {
        d.feed(c);
    }
    for f in &findings {
        workloads::fuzz_finding_digest_item(
            &mut d,
            f.exec_index,
            &f.verdict,
            f.minimal.as_ref().map(|m| (&m.steps[..], m.evals)),
        );
    }
    let sigs: Vec<_> =
        findings.iter().map(|f| (xm_campaign::finding_signature(f), f.exec_index)).collect();
    let all_sigs = xm_campaign::stateful_defect_signatures()
        .iter()
        .map(|s| sigs.iter().find(|(g, _)| g == s).map_or(u64::MAX, |&(_, i)| i))
        .max()
        .unwrap_or(0);
    l.add("fuzz.execs_to_all_sigs", all_sigs);
    l.add("fuzz.findings", findings.len() as u64);
    l.add("fuzz.novel", corpus.len() as u64);
    l.units = execs;
    l.digest = d.value();
    l
}

fn victim_memory(kernel: &XmKernel, n_partitions: u32) -> Vec<Vec<u8>> {
    (1..n_partitions)
        .map(|p| {
            kernel
                .machine
                .mem
                .read_bytes(leon3_sim::addrspace::AccessCtx::Kernel, part_base(p), PART_SIZE)
                .expect("configured partition memory is kernel-readable")
        })
        .collect()
}

fn check() -> Ledger {
    let mut l = Ledger::default();
    let scope = skrt::check::CheckScope::default();
    let build = Workload::CheckPatched.build();
    let horizon = scope.horizon as usize;
    let mut d = Digest::default();
    let mut index = 0usize;
    let started = Instant::now();
    flightrec::enable(DEFAULT_RING_CAPACITY);
    for cfg in enumerate_configs(&scope) {
        let probes = probes_for(&cfg);
        l.add("check.configs", 1);
        let (tb, ctx, snap, mut ws) = l.span("check.boot", || {
            let tb = CheckTestbed::new(cfg.clone());
            let ctx = tb.oracle_context(build);
            let snap = tb.snapshot(build).expect("check testbed snapshots");
            let ws = snap.workspace();
            let _ = flightrec::drain();
            (tb, ctx, snap, ws)
        });
        let caller = tb.test_partition();
        for probe in &probes {
            l.restore(&mut ws, &snap, caller);
            let (kernel, guests) = ws.parts();
            let before = l.span("check.invariants", || {
                let m = victim_memory(kernel, cfg.n_partitions);
                let _ = flightrec::drain();
                m
            });
            let adv = kernel.advance_stats();
            let eval = l.span("sequence.eval", || {
                run_one_sequence_bounded(&tb, &ctx, kernel, guests, &probe.steps, 1, horizon)
            });
            l.add_advances(adv, kernel);
            l.add("xtratum.frames", eval.frame_digests.len() as u64);
            let events = l.drain_counted(caller);
            l.model_replay(&ctx, &probe.steps, &eval, kernel, caller);
            let violations = l.span("check.invariants", || {
                let after = victim_memory(kernel, cfg.n_partitions);
                let ports: Vec<usize> =
                    (1..cfg.n_partitions).map(|p| kernel.port_count(p)).collect();
                skrt::check::check_invariants(&cfg, &events, &before, &after, &ports)
            });
            workloads::check_digest_item(
                &mut d,
                index,
                probe.name,
                &eval.verdict,
                violations.len(),
            );
            index += 1;
        }
    }
    flightrec::disable();
    l.wall = started.elapsed();
    l.add("check.cases", index as u64);
    l.units = index as u64;
    l.digest = d.value();
    l
}
