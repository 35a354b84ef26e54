//! Stateful sequence campaigns: multi-hypercall fuzzing with a stepwise
//! differential state oracle.
//!
//! The single-call campaign ([`crate::exec`]) injects one hypercall per
//! test and judges it against the first-invocation oracle. This module
//! generalises that to *sequences*: a seeded generator draws N-step
//! hypercall sequences from a weighted dictionary alphabet, a
//! [`SequenceGuest`] replays them from inside the test partition (a few
//! steps per slot), and a small reference state machine ([`StateModel`])
//! is advanced call-by-call in lockstep with the real kernel. After every
//! major frame the model's prediction is diffed against
//! [`xtratum::kernel::XmKernel::state_digest`], so a divergence is
//! localised to the first bad step instead of the whole run.
//!
//! Verdict priority within a frame mirrors [`crate::classify`]'s rule
//! order: terminal signs first (simulator death, kernel halt, unexpected
//! system reset, HM containment of the caller), then the per-step
//! return-code comparison, then the architectural state diff.
//!
//! On any non-Pass verdict the sequence is re-evaluated one step per slot
//! (exact step attribution) and minimised by [`crate::shrink`]; the
//! minimal reproducer's verdict is the shrinker's own evaluation of it.
//! When [`SequenceOptions::record`] is set, the minimal reproducer runs
//! once more under the flight recorder to yield a triage bundle.

use crate::classify::{Cause, Classification, CrashClass};
use crate::executor::{Executor, Lane};
use crate::flight::FlightLog;
use crate::metrics::{MetricsReport, Phase};
use crate::observe::Invocation;
use crate::oracle::{Expectation, ExpectedOutcome, NoReturnExpect, OracleContext};
use crate::shrink::shrink_sequence;
use crate::testbed::{Booter, Testbed};
use std::time::Instant;
use xtratum::guest::{GuestProgram, GuestSet, PartitionApi};
use xtratum::hm::HmEventKind;
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::kernel::{NoReturnKind, StateDigest, XmKernel};
use xtratum::observe::ResetKind;
use xtratum::partition::PartitionStatus;
use xtratum::retcode::XmRet;
use xtratum::vuln::KernelBuild;

// ---------------------------------------------------------------------------
// Seeded generation
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, dependency-free, and statistically fine for drawing
/// dictionary entries. The generator state is the only thing a campaign
/// needs to be byte-reproducible from `--seed`. Shared with the fuzzer's
/// mutation engine ([`crate::fuzz`]), which needs its draws on the same
/// deterministic footing.
pub struct SeqRng {
    state: u64,
}

impl SeqRng {
    pub fn new(seed: u64) -> Self {
        SeqRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One weighted dictionary entry the generator can draw for a step.
#[derive(Debug, Clone)]
pub struct AlphabetEntry {
    /// The concrete call (hypercall id + dataset words).
    pub call: RawHypercall,
    /// Relative draw weight (0 = never drawn).
    pub weight: u32,
}

/// A generated sequence: `index` is its campaign position, `seed` the
/// per-sequence derived seed (replayable in isolation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceSpec {
    /// Campaign position.
    pub index: usize,
    /// Derived seed this sequence was drawn from.
    pub seed: u64,
    /// The steps, in execution order.
    pub steps: Vec<RawHypercall>,
}

/// Draws `count` sequences of `steps` calls each. One derived seed is
/// split off the outer stream per sequence, so the first `count` specs of
/// a larger campaign with the same seed are identical (prefix stability —
/// growing `--count` never changes already-generated sequences).
pub fn generate_sequences(
    alphabet: &[AlphabetEntry],
    seed: u64,
    count: usize,
    steps: usize,
) -> Vec<SequenceSpec> {
    let total: u64 = alphabet.iter().map(|e| e.weight as u64).sum();
    assert!(total > 0, "sequence alphabet must have positive total weight");
    let mut outer = SeqRng::new(seed);
    (0..count)
        .map(|index| {
            let seq_seed = outer.next_u64();
            let mut rng = SeqRng::new(seq_seed);
            let drawn = (0..steps).map(|_| draw_weighted(alphabet, total, &mut rng)).collect();
            SequenceSpec { index, seed: seq_seed, steps: drawn }
        })
        .collect()
}

/// One weighted draw from the alphabet. `total` must be the positive sum
/// of all weights (precomputed by the caller so bulk draws stay O(n)).
pub(crate) fn draw_weighted(
    alphabet: &[AlphabetEntry],
    total: u64,
    rng: &mut SeqRng,
) -> RawHypercall {
    let mut r = rng.next_u64() % total;
    for e in alphabet {
        if (e.weight as u64) > r {
            return e.call;
        }
        r -= e.weight as u64;
    }
    unreachable!("weighted walk covers the total");
}

// ---------------------------------------------------------------------------
// Sequence guest
// ---------------------------------------------------------------------------

/// Guest program that replays a fixed step list from the test partition,
/// a bounded number of steps per slot, re-running the testbed prologue
/// after every partition (re)boot — exactly what partition flight
/// software would do after an HM-driven restart.
struct SequenceGuest {
    steps: Vec<RawHypercall>,
    prologue: fn(&mut PartitionApi<'_>),
    steps_per_slot: usize,
    results: Vec<Invocation>,
    next: usize,
    last_boot_count: Option<u32>,
}

impl SequenceGuest {
    /// Installs a guest replaying `steps` in `guests`' slot `caller`. A
    /// [`SequenceGuest`] already there (the previous run's, left in place
    /// by a restore that skipped the test partition) is reset in place,
    /// reusing its buffers; anything else is replaced by a new one.
    fn install(
        guests: &mut GuestSet,
        caller: u32,
        steps: &[RawHypercall],
        prologue: fn(&mut PartitionApi<'_>),
        steps_per_slot: usize,
    ) {
        let present = guests
            .get_mut(caller)
            .and_then(|g| g.as_any_mut())
            .is_some_and(|a| a.is::<SequenceGuest>());
        if !present {
            let empty = SequenceGuest {
                steps: Vec::new(),
                prologue,
                steps_per_slot,
                results: Vec::new(),
                next: 0,
                last_boot_count: None,
            };
            guests.set(caller, Box::new(empty));
        }
        sequence_guest(guests, caller).reset(steps, prologue, steps_per_slot);
    }

    /// Returns the guest to the state of a new one replaying `steps`.
    /// The destructure names every field, so a field added later cannot
    /// be left holding the previous run's state.
    fn reset(
        &mut self,
        steps: &[RawHypercall],
        prologue: fn(&mut PartitionApi<'_>),
        steps_per_slot: usize,
    ) {
        let SequenceGuest {
            steps: own_steps,
            prologue: own_prologue,
            steps_per_slot: own_steps_per_slot,
            results,
            next,
            last_boot_count,
        } = self;
        own_steps.clear();
        own_steps.extend_from_slice(steps);
        *own_prologue = prologue;
        *own_steps_per_slot = steps_per_slot.max(1);
        results.clear();
        *next = 0;
        *last_boot_count = None;
    }
}

impl GuestProgram for SequenceGuest {
    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        let bc = api.boot_count();
        if self.last_boot_count != Some(bc) {
            self.last_boot_count = Some(bc);
            if !api.boot_prologue_done() {
                (self.prologue)(api);
                if api.ended().is_some() {
                    return;
                }
            }
        }
        let mut issued = 0;
        while issued < self.steps_per_slot && self.next < self.steps.len() {
            let idx = self.next;
            self.next += 1;
            issued += 1;
            match api.hypercall(&self.steps[idx]) {
                Ok(code) => self.results.push(Invocation::Returned(code)),
                Err(kind) => {
                    self.results.push(Invocation::NoReturn(kind));
                    return;
                }
            }
            if api.remaining_us() == 0 {
                return;
            }
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

fn sequence_guest(guests: &mut GuestSet, caller: u32) -> &mut SequenceGuest {
    guests
        .get_mut(caller)
        .and_then(|g| g.as_any_mut())
        .and_then(|a| a.downcast_mut::<SequenceGuest>())
        .expect("sequence guest installed in the test partition")
}

// ---------------------------------------------------------------------------
// Reference state machine
// ---------------------------------------------------------------------------

/// The differential oracle's reference state machine. It extends the
/// first-invocation [`OracleContext`] with exactly the architectural
/// state the single-call oracle froze at "first invocation": partition
/// modes, timer arming, plan position, HM log occupancy and the caller's
/// port table. Everything else still delegates to [`OracleContext::expect`].
pub struct StateModel<'a> {
    ctx: &'a OracleContext,
    statuses: Vec<PartitionStatus>,
    reset_counts: Vec<u32>,
    current_plan: u32,
    pending_plan: Option<u32>,
    hw_armed: Vec<bool>,
    exec_owner: Option<u32>,
    cold_resets: u32,
    warm_resets: u32,
    /// HM log length. Sequences raise at most a few entries, far below
    /// the kernel's ring capacity, so no clamp is modelled.
    hm_len: u32,
    hm_cursor: u32,
    caller_ports: u32,
    alive: bool,
    /// The caller was reset (partition or system reset): its next slot
    /// re-runs the prologue (one HM raise, ports re-created).
    caller_reset_pending: bool,
}

impl<'a> StateModel<'a> {
    /// Boot-state model for `ctx`'s testbed.
    pub fn new(ctx: &'a OracleContext) -> Self {
        let n = ctx.partition_count as usize;
        StateModel {
            ctx,
            statuses: vec![PartitionStatus::Ready; n],
            reset_counts: vec![0; n],
            current_plan: ctx.plan_ids.first().copied().unwrap_or(0),
            pending_plan: None,
            hw_armed: vec![false; n],
            exec_owner: None,
            cold_resets: 0,
            warm_resets: 0,
            hm_len: ctx.hm_entries_at_first,
            hm_cursor: 0,
            caller_ports: ctx.ports.len() as u32,
            alive: true,
            caller_reset_pending: false,
        }
    }

    fn valid_partition(&self, id: i32) -> bool {
        id >= 0 && (id as u32) < self.ctx.partition_count
    }

    /// The HM cursor a seek would land on, if valid (live-cursor variant
    /// of the first-invocation rule).
    fn hm_seek_target(&self, hc: &RawHypercall) -> Option<i64> {
        let (offset, whence) = (hc.arg_s32(0) as i64, hc.arg32(1));
        if whence > 2 {
            return None;
        }
        let len = self.hm_len as i64;
        let base = match whence {
            0 => 0,
            1 => self.hm_cursor as i64,
            _ => len,
        };
        base.checked_add(offset).filter(|t| (0..=len).contains(t))
    }

    /// Predicts the outcome of `hc` in the *current* model state. Only
    /// the rules that are genuinely stateful are overridden here; all
    /// other calls fall through to the first-invocation oracle, whose
    /// preconditions this model keeps re-established.
    pub fn expect_step(&self, hc: &RawHypercall) -> Expectation {
        use HypercallId as H;
        if hc.id.def().system_only && !self.ctx.caller_is_system {
            return Expectation::err_stateful(XmRet::PermError);
        }
        let caller = self.ctx.caller;
        match hc.id {
            H::HaltPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.statuses[id as usize] == PartitionStatus::Halted {
                    Expectation::err_stateful(XmRet::NoAction)
                } else if id as u32 == caller {
                    Expectation::no_return(NoReturnExpect::CallerHalted)
                } else {
                    Expectation::ok()
                }
            }
            H::SuspendPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    match self.statuses[id as usize] {
                        PartitionStatus::Halted | PartitionStatus::Shutdown => {
                            Expectation::err_stateful(XmRet::InvalidMode)
                        }
                        PartitionStatus::Suspended => Expectation::err_stateful(XmRet::NoAction),
                        _ if id as u32 == caller => {
                            Expectation::no_return(NoReturnExpect::CallerSuspended)
                        }
                        _ => Expectation::ok(),
                    }
                }
            }
            H::ResumePartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    match self.statuses[id as usize] {
                        PartitionStatus::Halted | PartitionStatus::Shutdown => {
                            Expectation::err_stateful(XmRet::InvalidMode)
                        }
                        PartitionStatus::Suspended => Expectation::ok(),
                        _ => Expectation::err_stateful(XmRet::NoAction),
                    }
                }
            }
            H::ShutdownPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.statuses[id as usize] == PartitionStatus::Halted {
                    Expectation::err_stateful(XmRet::InvalidMode)
                } else if id as u32 == caller {
                    Expectation::no_return(NoReturnExpect::CallerShutdown)
                } else {
                    Expectation::ok()
                }
            }
            H::HmRead => {
                let avail = self.hm_len.saturating_sub(self.hm_cursor);
                let n = (hc.arg32(1) as u64).min(avail as u64) as u32;
                if n == 0 {
                    Expectation::value(0)
                } else if self.ctx.accessible(hc.arg32(0), n * 16, 4) {
                    Expectation::value(n as i32)
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::HmSeek => {
                if hc.arg32(1) > 2 {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if self.hm_seek_target(hc).is_some() {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            _ => self.ctx.expect(hc),
        }
    }

    /// Advances the model by the *documented* effect of `hc`, given the
    /// prediction just computed for it. Error outcomes have no effect.
    pub fn apply_step(&mut self, hc: &RawHypercall, exp: &Expectation) {
        use HypercallId as H;
        let caller = self.ctx.caller as usize;
        match exp.outcome {
            ExpectedOutcome::NoReturn(nr) => match nr {
                NoReturnExpect::CallerHalted => self.statuses[caller] = PartitionStatus::Halted,
                NoReturnExpect::CallerSuspended => {
                    self.statuses[caller] = PartitionStatus::Suspended
                }
                NoReturnExpect::CallerShutdown => self.statuses[caller] = PartitionStatus::Shutdown,
                NoReturnExpect::CallerReset => self.reset_partition(caller),
                NoReturnExpect::CallerIdled => {} // back to Ready at slot end
                NoReturnExpect::SystemColdReset => self.apply_system_reset(true),
                NoReturnExpect::SystemWarmReset => self.apply_system_reset(false),
                NoReturnExpect::SystemHalt => self.alive = false,
            },
            ExpectedOutcome::Ret(XmRet::Ok) => match hc.id {
                H::HaltPartition => self.statuses[hc.arg_s32(0) as usize] = PartitionStatus::Halted,
                H::SuspendPartition => {
                    self.statuses[hc.arg_s32(0) as usize] = PartitionStatus::Suspended
                }
                H::ResumePartition => {
                    self.statuses[hc.arg_s32(0) as usize] = PartitionStatus::Ready
                }
                H::ShutdownPartition => {
                    self.statuses[hc.arg_s32(0) as usize] = PartitionStatus::Shutdown
                }
                H::ResetPartition => self.reset_partition(hc.arg_s32(0) as usize),
                H::SetTimer => {
                    if hc.arg32(0) == 0 {
                        // The dictionary only draws already-past absolute
                        // deadlines, so a one-shot (interval ≤ 0) fires
                        // and disarms within the arming frame; a periodic
                        // timer stays armed.
                        self.hw_armed[caller] = hc.arg_s64(2) > 0;
                    } else {
                        self.exec_owner = Some(self.ctx.caller);
                    }
                }
                H::SwitchSchedPlan => self.pending_plan = Some(hc.arg32(0)),
                H::HmSeek => {
                    if let Some(t) = self.hm_seek_target(hc) {
                        self.hm_cursor = t as u32;
                    }
                }
                H::HmRaiseEvent => self.hm_len += 1,
                _ => {}
            },
            ExpectedOutcome::RetValue(n) if hc.id == H::HmRead => {
                self.hm_cursor = (self.hm_cursor + n as u32).min(self.hm_len);
            }
            ExpectedOutcome::RetNonNegative
                if matches!(hc.id, H::CreateSamplingPort | H::CreateQueuingPort) =>
            {
                self.caller_ports += 1;
            }
            _ => {}
        }
    }

    fn reset_partition(&mut self, idx: usize) {
        self.statuses[idx] = PartitionStatus::Ready;
        self.reset_counts[idx] += 1;
        self.hw_armed[idx] = false;
        if idx == self.ctx.caller as usize {
            self.caller_reset_pending = true;
        }
    }

    fn apply_system_reset(&mut self, cold: bool) {
        for s in &mut self.statuses {
            *s = PartitionStatus::Ready;
        }
        for c in &mut self.reset_counts {
            *c += 1;
        }
        for a in &mut self.hw_armed {
            *a = false;
        }
        self.exec_owner = None;
        self.caller_reset_pending = true;
        if cold {
            self.cold_resets += 1;
            self.current_plan = self.ctx.plan_ids.first().copied().unwrap_or(0);
            self.pending_plan = None;
            // A cold reset destroys all ports; the prologue re-creates
            // the caller's at its next slot (see `begin_caller_slot`).
            self.caller_ports = 0;
        } else {
            self.warm_resets += 1;
        }
    }

    /// Called when the caller is about to execute steps in a new slot:
    /// accounts for the prologue re-run after a (re)boot — one HM raise,
    /// ports re-created (or confirmed, returning `NoAction`).
    pub fn begin_caller_slot(&mut self) {
        if self.caller_reset_pending {
            self.caller_reset_pending = false;
            self.hm_len += 1;
            self.caller_ports = self.ctx.ports.len() as u32;
        }
    }

    /// Major-frame boundary: a pending plan switch takes effect.
    pub fn end_frame(&mut self) {
        if let Some(p) = self.pending_plan.take() {
            self.current_plan = p;
        }
    }

    /// Whether the model expects the caller to get CPU time at all.
    pub fn caller_schedulable(&self) -> bool {
        self.alive && self.statuses[self.ctx.caller as usize].schedulable()
    }

    /// The model's prediction of [`XmKernel::state_digest`].
    pub fn digest(&self) -> StateDigest {
        let mut out = StateDigest::default();
        self.digest_into(&mut out);
        out
    }

    /// [`StateModel::digest`] into a caller-owned buffer, reusing its
    /// vectors' capacity (the per-frame comparison in
    /// [`run_one_sequence`] allocates nothing once warm).
    pub fn digest_into(&self, out: &mut StateDigest) {
        let StateDigest {
            alive,
            sim_running,
            partition_status,
            reset_counts,
            current_plan,
            pending_plan,
            hw_timer_armed,
            exec_timer_owner,
            cold_resets,
            warm_resets,
            hm_entries,
            hm_cursor,
            caller_ports,
        } = out;
        *alive = self.alive;
        *sim_running = true;
        partition_status.clone_from(&self.statuses);
        reset_counts.clone_from(&self.reset_counts);
        *current_plan = self.current_plan;
        *pending_plan = self.pending_plan;
        hw_timer_armed.clone_from(&self.hw_armed);
        *exec_timer_owner = self.exec_owner;
        *cold_resets = self.cold_resets;
        *warm_resets = self.warm_resets;
        *hm_entries = self.hm_len;
        *hm_cursor = self.hm_cursor;
        *caller_ports = self.caller_ports;
    }
}

// ---------------------------------------------------------------------------
// Stepwise judgement
// ---------------------------------------------------------------------------

/// Per-step return-code comparison (rule 7 of [`crate::classify`], plus
/// the system-level no-return pairs that `classify` resolves at whole-run
/// level). `None` means the step behaved as documented.
pub(crate) fn judge_step(exp: &Expectation, obs: &Invocation) -> Option<Classification> {
    use ExpectedOutcome as EO;
    use NoReturnExpect as NR;
    match *obs {
        Invocation::NoReturn(kind) => {
            let matches_expected = matches!(
                (exp.outcome, kind),
                (EO::NoReturn(NR::CallerHalted), NoReturnKind::CallerHalted)
                    | (EO::NoReturn(NR::CallerSuspended), NoReturnKind::CallerSuspended)
                    | (EO::NoReturn(NR::CallerIdled), NoReturnKind::CallerIdled)
                    | (EO::NoReturn(NR::CallerReset), NoReturnKind::CallerReset)
                    | (EO::NoReturn(NR::CallerShutdown), NoReturnKind::CallerShutdown)
                    | (EO::NoReturn(NR::SystemColdReset), NoReturnKind::SystemColdReset)
                    | (EO::NoReturn(NR::SystemWarmReset), NoReturnKind::SystemWarmReset)
                    | (EO::NoReturn(NR::SystemHalt), NoReturnKind::SystemHalt)
            );
            if matches_expected {
                None
            } else {
                Some(match kind {
                    NoReturnKind::CallerHalted | NoReturnKind::Fault => Classification {
                        class: CrashClass::Abort,
                        cause: Cause::UnhandledServiceException,
                    },
                    _ => Classification { class: CrashClass::Restart, cause: Cause::PartitionHang },
                })
            }
        }
        Invocation::Returned(code) => match exp.outcome {
            EO::Ret(expected) => {
                if code == expected.code() {
                    None
                } else if expected != XmRet::Ok && code >= 0 {
                    Some(Classification { class: CrashClass::Silent, cause: Cause::WrongSuccess })
                } else {
                    Some(Classification {
                        class: CrashClass::Hindering,
                        cause: Cause::WrongErrorCode,
                    })
                }
            }
            EO::RetValue(v) => (code != v).then_some(Classification {
                class: CrashClass::Hindering,
                cause: Cause::WrongErrorCode,
            }),
            EO::RetNonNegative => (code < 0).then_some(Classification {
                class: CrashClass::Hindering,
                cause: Cause::WrongErrorCode,
            }),
            EO::NoReturn(_) => {
                Some(Classification { class: CrashClass::Hindering, cause: Cause::WrongErrorCode })
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Single-sequence evaluation
// ---------------------------------------------------------------------------

/// The differential oracle's verdict for one sequence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceVerdict {
    /// CRASH classification (`Pass` = no divergence).
    pub classification: Classification,
    /// Step the divergence is attributed to (for terminal and state-diff
    /// verdicts: the last step executed before detection).
    pub failing_step: Option<usize>,
    /// Human-readable divergence evidence: a headline plus the
    /// [`StateDigest::diff`] lines, model-expected vs kernel-observed.
    pub state_diff: Vec<String>,
}

impl SequenceVerdict {
    fn pass() -> Self {
        SequenceVerdict {
            classification: Classification { class: CrashClass::Pass, cause: Cause::None },
            failing_step: None,
            state_diff: Vec::new(),
        }
    }
}

/// One expected/observed pair, in step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The model's prediction at that point in the sequence.
    pub expected: Expectation,
    /// What the kernel did.
    pub observed: Invocation,
}

/// Result of evaluating one sequence on one booted testbed instance.
#[derive(Debug, Clone)]
pub struct SequenceEval {
    /// The stepwise differential verdict.
    pub verdict: SequenceVerdict,
    /// Steps the kernel actually executed.
    pub steps_executed: usize,
    /// Expected/observed per executed step.
    pub outcomes: Vec<StepOutcome>,
    /// [`StateDigest::stable_hash`] of the kernel's observed state after
    /// each major frame, in frame order. The fuzzer folds these into its
    /// coverage stream so architectural-state novelty counts as coverage
    /// even when the event stream alone would collide.
    pub frame_digests: Vec<u64>,
}

/// Runs `steps` on an already-booted `(kernel, guests)` pair, advancing
/// the reference state machine in lockstep and diffing architectural
/// state after every major frame.
///
/// The model is advanced *after* each frame, through exactly the steps
/// the kernel demonstrably executed — so slot-boundary drift (a guest
/// stopping early on a low budget) shifts prediction along with
/// execution instead of producing spurious hang verdicts.
pub fn run_one_sequence<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    steps: &[RawHypercall],
    steps_per_slot: usize,
) -> SequenceEval {
    run_one_sequence_bounded(testbed, ctx, kernel, guests, steps, steps_per_slot, 0)
}

/// [`run_one_sequence`] with a frame floor: the run keeps stepping (and
/// diffing architectural state) for at least `min_frames` major frames
/// even after every step has executed and agreed. The small-scope
/// isolation checker uses this to observe a fixed scheduling horizon —
/// an empty step list then still exercises `min_frames` frames of pure
/// cyclic scheduling. `min_frames == 0` reproduces [`run_one_sequence`]
/// exactly. A verdict or a predicted kernel halt still ends the run
/// early: there is nothing left to observe.
pub fn run_one_sequence_bounded<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    kernel: &mut XmKernel,
    guests: &mut GuestSet,
    steps: &[RawHypercall],
    steps_per_slot: usize,
    min_frames: usize,
) -> SequenceEval {
    let caller = testbed.test_partition();
    SequenceGuest::install(guests, caller, steps, testbed.prologue(), steps_per_slot);
    let mut model = StateModel::new(ctx);
    let mut outcomes: Vec<StepOutcome> = Vec::with_capacity(steps.len());
    let mut executed = 0usize;
    let mut verdict: Option<SequenceVerdict> = None;
    // Worst case one step per frame, plus slack for prologue re-runs.
    let frame_cap = (steps.len() + 4).max(min_frames) as u32;
    let mut frame_digests: Vec<u64> = Vec::with_capacity(frame_cap as usize);
    // Kernel-observed and model-predicted state, refilled every frame.
    let mut digest = StateDigest::default();
    let mut predicted = StateDigest::default();
    // Set when the run may stop with the remaining steps vacuously passed:
    // all steps done, a predicted system halt, or a caller both sides
    // agree is no longer schedulable.
    let mut agreed_end = false;

    for _ in 0..frame_cap {
        let schedulable_before = model.caller_schedulable();
        kernel.step_major_frames(guests, 1);
        let new = &sequence_guest(guests, caller).results[executed..];
        let frame_exec = new.len();

        // Per-step comparison: first mismatch in this frame.
        let mut pairwise: Option<(usize, Classification, String)> = None;
        if frame_exec > 0 && !schedulable_before {
            pairwise = Some((
                executed,
                Classification { class: CrashClass::Silent, cause: Cause::WrongSuccess },
                format!(
                    "step {executed} executed although the reference model holds the caller \
                     unschedulable"
                ),
            ));
        } else if frame_exec > 0 {
            model.begin_caller_slot();
            for (i, obs) in new.iter().enumerate() {
                let hc = &steps[executed + i];
                let exp = model.expect_step(hc);
                model.apply_step(hc, &exp);
                outcomes.push(StepOutcome { expected: exp, observed: *obs });
                if pairwise.is_none() {
                    if let Some(c) = judge_step(&exp, obs) {
                        pairwise = Some((
                            executed + i,
                            c,
                            format!(
                                "step {}: {} — expected {:?}, observed {:?}",
                                executed + i,
                                hc,
                                exp.outcome,
                                obs
                            ),
                        ));
                    }
                }
            }
        }
        model.end_frame();

        // Terminal signs take precedence over pairwise mismatches,
        // mirroring classify's rule order.
        kernel.state_digest_into(caller, &mut digest);
        frame_digests.push(digest.stable_hash());
        let last_step =
            if frame_exec > 0 { Some(executed + frame_exec - 1) } else { executed.checked_sub(1) };
        let mut halt_predicted = false;
        let mut terminal: Option<(Classification, String)> = None;
        if !digest.sim_running {
            terminal = Some((
                Classification { class: CrashClass::Catastrophic, cause: Cause::SimulatorCrash },
                "simulator crashed".to_string(),
            ));
        } else if let Some(reason) = kernel.halt_reason() {
            if model.alive {
                terminal = Some((
                    Classification { class: CrashClass::Catastrophic, cause: Cause::KernelHalt },
                    format!("kernel halted: {reason}"),
                ));
            } else {
                halt_predicted = true;
            }
        } else if digest.cold_resets > model.cold_resets || digest.warm_resets > model.warm_resets {
            let kind = if digest.cold_resets > model.cold_resets {
                ResetKind::Cold
            } else {
                ResetKind::Warm
            };
            terminal = Some((
                Classification {
                    class: CrashClass::Catastrophic,
                    cause: Cause::UnexpectedSystemReset(kind),
                },
                format!("undocumented system {kind:?} reset performed"),
            ));
        } else {
            let hm = kernel.hm_log();
            let lo = (model.hm_len as usize).min(hm.len());
            for e in &hm[lo..] {
                if e.partition != Some(caller) {
                    continue;
                }
                match e.kind {
                    HmEventKind::PartitionTrap { .. } | HmEventKind::KernelTrap { .. } => {
                        terminal = Some((
                            Classification {
                                class: CrashClass::Abort,
                                cause: Cause::UnhandledServiceException,
                            },
                            format!("unpredicted HM containment: {:?}", e.kind),
                        ));
                        break;
                    }
                    HmEventKind::SchedOverrun { .. } => {
                        terminal = Some((
                            Classification {
                                class: CrashClass::Restart,
                                cause: Cause::TemporalOverrun,
                            },
                            format!("unpredicted temporal violation: {:?}", e.kind),
                        ));
                        break;
                    }
                    _ => {}
                }
            }
        }

        if let Some((classification, headline)) = terminal {
            model.digest_into(&mut predicted);
            let mut diff = predicted.diff(&digest);
            diff.insert(0, headline);
            verdict =
                Some(SequenceVerdict { classification, failing_step: last_step, state_diff: diff });
        } else if let Some((idx, classification, msg)) = pairwise {
            verdict = Some(SequenceVerdict {
                classification,
                failing_step: Some(idx),
                state_diff: vec![msg],
            });
        } else if !halt_predicted {
            model.digest_into(&mut predicted);
            if predicted != digest {
                verdict = Some(SequenceVerdict {
                    classification: Classification {
                        class: CrashClass::Silent,
                        cause: Cause::WrongSuccess,
                    },
                    failing_step: last_step,
                    state_diff: predicted.diff(&digest),
                });
            }
        }

        executed += frame_exec;
        if verdict.is_some() {
            break;
        }
        if halt_predicted {
            // The kernel halted as predicted: no further frame can run.
            agreed_end = true;
            break;
        }
        // The frame floor defers the agreed-end exits: completed steps
        // (or an off-schedule caller) still leave `min_frames` frames of
        // scheduling to observe and diff.
        if frame_digests.len() >= min_frames {
            if executed >= steps.len() {
                agreed_end = true;
                break;
            }
            if frame_exec == 0 && !model.caller_schedulable() {
                // Both sides agree the caller is permanently off-schedule;
                // the remaining steps are vacuous.
                agreed_end = true;
                break;
            }
        }
    }

    let verdict = verdict.unwrap_or_else(|| {
        if agreed_end {
            SequenceVerdict::pass()
        } else {
            SequenceVerdict {
                classification: Classification {
                    class: CrashClass::Restart,
                    cause: Cause::PartitionHang,
                },
                failing_step: Some(executed),
                state_diff: vec![format!(
                    "sequence stalled after {executed} steps: the caller stopped issuing calls"
                )],
            }
        }
    });
    SequenceEval { verdict, steps_executed: executed, outcomes, frame_digests }
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Sequence campaign options.
#[derive(Debug, Clone)]
pub struct SequenceOptions {
    /// Kernel build to test.
    pub build: KernelBuild,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Sequences per work chunk (0 = automatic).
    pub chunk_size: usize,
    /// Boot once per worker and clone per evaluation (default).
    pub reuse_snapshot: bool,
    /// Run the flight recorder; failing sequences keep the minimal
    /// reproducer's flight as the triage trace.
    pub record: bool,
    /// Steps the guest issues per slot in the main evaluation. Failing
    /// sequences are re-evaluated at one step per slot regardless, both
    /// for exact attribution and to rule out slot-packing artefacts.
    pub steps_per_slot: usize,
    /// Minimize failing sequences (default on).
    pub shrink: bool,
    /// Predicate-evaluation budget per shrink.
    pub shrink_budget: usize,
}

impl Default for SequenceOptions {
    fn default() -> Self {
        SequenceOptions {
            build: KernelBuild::Legacy,
            threads: 0,
            chunk_size: 0,
            reuse_snapshot: true,
            record: false,
            steps_per_slot: 4,
            shrink: true,
            shrink_budget: 160,
        }
    }
}

/// A minimized reproducer for a diverging sequence.
#[derive(Debug, Clone)]
pub struct MinimalRepro {
    /// The minimal step list (never empty).
    pub steps: Vec<RawHypercall>,
    /// Verdict of the minimal sequence (one step per slot): the verdict of
    /// the shrinker's last accepted evaluation, or the input's own verdict
    /// when the shrinker accepted no candidate. The minimal sequence is
    /// that candidate, so running it again would give the same verdict.
    pub verdict: SequenceVerdict,
    /// Shrinker predicate evaluations spent.
    pub evals: usize,
    /// Steps removed from the original sequence.
    pub removed_steps: usize,
    /// Argument words rewritten to canonical scalars.
    pub shrunk_args: usize,
}

/// Shrinks the failing `steps`, whose own evaluation gave `verdict`, into
/// a [`MinimalRepro`]. `evaluate` runs one candidate and returns its
/// verdict when the candidate still fails the same way. The shrinker
/// returns its last accepted candidate, or the input when it accepted
/// none, so the minimal's verdict is kept from that evaluation instead of
/// being recomputed by another run.
pub(crate) fn shrink_to_minimal(
    steps: &[RawHypercall],
    verdict: &SequenceVerdict,
    mut evaluate: impl FnMut(&[RawHypercall]) -> Option<SequenceVerdict>,
    budget: usize,
) -> MinimalRepro {
    let mut accepted: Option<SequenceVerdict> = None;
    let out = shrink_sequence(
        steps,
        |cand| match evaluate(cand) {
            Some(v) => {
                accepted = Some(v);
                true
            }
            None => false,
        },
        budget,
    );
    MinimalRepro {
        steps: out.steps,
        verdict: accepted.unwrap_or_else(|| verdict.clone()),
        evals: out.evals,
        removed_steps: out.removed_steps,
        shrunk_args: out.shrunk_args,
    }
}

/// One generated, executed and judged sequence.
#[derive(Debug, Clone)]
pub struct SequenceRecord {
    /// What was generated.
    pub spec: SequenceSpec,
    /// The authoritative verdict (from the one-step-per-slot evaluation
    /// when the first pass diverged).
    pub verdict: SequenceVerdict,
    /// Steps executed in the authoritative evaluation.
    pub steps_executed: usize,
    /// Expected/observed per executed step.
    pub outcomes: Vec<StepOutcome>,
    /// Present when the sequence diverged and shrinking was enabled.
    pub minimal: Option<MinimalRepro>,
}

impl SequenceRecord {
    /// True when the kernel diverged from the reference state machine.
    pub fn is_divergence(&self) -> bool {
        self.verdict.classification.class != CrashClass::Pass
    }
}

/// A completed sequence campaign.
#[derive(Debug, Clone)]
pub struct SequenceCampaignResult {
    /// Which build was tested.
    pub build: KernelBuild,
    /// Steps per generated sequence.
    pub steps_per_sequence: usize,
    /// All records, in campaign order.
    pub records: Vec<SequenceRecord>,
    /// Run metrics; not part of the deterministic result surface.
    pub metrics: MetricsReport,
    /// Per-sequence flights (minimal-reproducer runs for failures),
    /// present when recording. Not part of the deterministic surface.
    pub flight: Option<FlightLog>,
}

impl SequenceCampaignResult {
    /// The diverging records, in campaign order.
    pub fn divergences(&self) -> Vec<&SequenceRecord> {
        self.records.iter().filter(|r| r.is_divergence()).collect()
    }
}

/// Evaluates one spec end-to-end on a worker: main evaluation, one-step
/// refinement on divergence, and shrink. Recording state (when enabled)
/// is managed so only the per-spec triage window survives: the whole main
/// evaluation for passing sequences, and for diverging ones a run of the
/// minimal reproducer made only for its flight.
fn evaluate_spec<T: Testbed + ?Sized>(
    testbed: &T,
    ctx: &OracleContext,
    opts: &SequenceOptions,
    booter: &mut Booter<'_, T>,
    lane: &mut Lane,
    spec: &SequenceSpec,
) -> SequenceRecord {
    let record = |eval: SequenceEval, minimal| SequenceRecord {
        spec: spec.clone(),
        verdict: eval.verdict,
        steps_executed: eval.steps_executed,
        outcomes: eval.outcomes,
        minimal,
    };
    let begin_flight = || {
        flightrec::record(
            0,
            flightrec::EventKind::TestBegin,
            flightrec::NO_PARTITION,
            spec.index as u32,
            0,
            0,
        )
    };
    if opts.record {
        begin_flight();
    }
    let (kernel, guests) = booter.booted(&mut lane.local);
    let t_main = opts.record.then(Instant::now);
    let main = run_one_sequence(testbed, ctx, kernel, guests, &spec.steps, opts.steps_per_slot);
    if let Some(t) = t_main {
        lane.local.note_phase(Phase::Frames, t.elapsed());
    }
    if main.verdict.classification.class == CrashClass::Pass {
        if opts.record {
            lane.end_flight(spec.index, CrashClass::Pass);
        }
        return record(main, None);
    }
    if opts.record {
        // The coarse first pass is not the triage artefact; discard it.
        let _ = flightrec::drain();
    }

    // Refine at one step per slot: exact step attribution, and immune to
    // several calls legitimately sharing one slot budget. This refined
    // verdict is authoritative, even when it downgrades to Pass.
    let (kernel, guests) = booter.booted(&mut lane.local);
    let t_refine = opts.record.then(Instant::now);
    let refined = run_one_sequence(testbed, ctx, kernel, guests, &spec.steps, 1);
    if let Some(t) = t_refine {
        lane.local.note_phase(Phase::Frames, t.elapsed());
    }
    let class = refined.verdict.classification.class;
    if class == CrashClass::Pass || !opts.shrink {
        if opts.record {
            let _ = flightrec::drain();
            begin_flight();
            let (kernel, guests) = booter.booted(&mut lane.local);
            let _ = run_one_sequence(testbed, ctx, kernel, guests, &spec.steps, 1);
            lane.end_flight(spec.index, class);
        }
        return record(refined, None);
    }

    // Minimize: a candidate reproduces iff it yields the same
    // classification under the same one-step-per-slot evaluation.
    let target = refined.verdict.classification;
    let t_shrink = opts.record.then(Instant::now);
    let minimal = shrink_to_minimal(
        &spec.steps,
        &refined.verdict,
        |cand| {
            let (kernel, guests) = booter.booted(&mut lane.local);
            let v = run_one_sequence(testbed, ctx, kernel, guests, cand, 1).verdict;
            (v.classification == target).then_some(v)
        },
        opts.shrink_budget,
    );
    if let Some(t) = t_shrink {
        lane.local.note_phase(Phase::Shrink, t.elapsed());
    }
    if opts.record {
        // Shrink evaluations are scaffolding; only the minimal
        // reproducer's run below is kept as the triage flight.
        let _ = flightrec::drain();
        begin_flight();
        let (kernel, guests) = booter.booted(&mut lane.local);
        let _ = run_one_sequence(testbed, ctx, kernel, guests, &minimal.steps, 1);
        lane.end_flight(spec.index, class);
    }
    record(refined, Some(minimal))
}

/// Executes a whole sequence campaign, in parallel, preserving campaign
/// order in the result: one unit per spec on the shared
/// `executor::Executor`, one boot snapshot and persistent
/// workspace per worker.
pub fn run_sequence_campaign<T: Testbed + ?Sized>(
    testbed: &T,
    specs: &[SequenceSpec],
    opts: &SequenceOptions,
) -> SequenceCampaignResult {
    let started = Instant::now();
    let ctx = testbed.oracle_context(opts.build);
    let mut executor = Executor::new(opts.threads, specs.len(), 1, opts.record);
    let records = executor.run(
        specs.len(),
        opts.chunk_size,
        |lane| Booter::new(testbed, opts.build, opts.reuse_snapshot, opts.record, &mut lane.local),
        |booter, lane, range| {
            specs[range]
                .iter()
                .map(|spec| {
                    let t0 = Instant::now();
                    let rec = evaluate_spec(testbed, &ctx, opts, booter, lane, spec);
                    lane.local.note_outcome(rec.verdict.classification.class, t0.elapsed());
                    rec
                })
                .collect()
        },
    );
    let (metrics, flight) = executor.finish(started, opts.record);
    let steps_per_sequence = specs.first().map(|s| s.steps.len()).unwrap_or(0);
    SequenceCampaignResult { build: opts.build, steps_per_sequence, records, metrics, flight }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(id: HypercallId, args: &[u64]) -> RawHypercall {
        RawHypercall::new_unchecked(id, args)
    }

    fn test_ctx() -> OracleContext {
        OracleContext {
            build: KernelBuild::Legacy,
            caller: 0,
            caller_is_system: true,
            partition_count: 3,
            partition_names: vec!["P0".into(), "P1".into(), "P2".into()],
            channels: vec![],
            plan_ids: vec![0, 1],
            caller_mem: vec![(0x4000_0000, 0x1_0000)],
            min_timer_interval: 50,
            ports: vec![],
            known_strings: vec![],
            hm_entries_at_first: 1,
            trace_entries_at_first: 0,
            io_port_count: 4,
        }
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First output of Vigna's splitmix64 for seed 0.
        let mut rng = SeqRng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        // Same seed => same stream; different seed => different stream.
        let a: Vec<u64> = (0..8).map(|_| SeqRng::new(42).state).collect();
        let mut r1 = SeqRng::new(42);
        let mut r2 = SeqRng::new(42);
        let s1: Vec<u64> = (0..8).map(|_| r1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| r2.next_u64()).collect();
        assert_eq!(s1, s2);
        let mut r3 = SeqRng::new(43);
        let s3: Vec<u64> = (0..8).map(|_| r3.next_u64()).collect();
        assert_ne!(s1, s3);
        drop(a);
    }

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let alphabet = vec![
            AlphabetEntry { call: call(HypercallId::GetTime, &[0, 0x4000_0000]), weight: 3 },
            AlphabetEntry { call: call(HypercallId::HmStatus, &[0x4000_0000]), weight: 1 },
            AlphabetEntry { call: call(HypercallId::SetTimer, &[0, 1, 1]), weight: 0 },
        ];
        let a = generate_sequences(&alphabet, 7, 5, 8);
        let b = generate_sequences(&alphabet, 7, 5, 8);
        assert_eq!(a, b, "same seed must generate identical sequences");
        let longer = generate_sequences(&alphabet, 7, 10, 8);
        assert_eq!(&longer[..5], &a[..], "growing --count must not change the prefix");
        assert!(a.iter().all(|s| s.steps.len() == 8));
        // The zero-weight entry is never drawn.
        assert!(longer.iter().flat_map(|s| &s.steps).all(|hc| hc.id != HypercallId::SetTimer));
        // Both positive-weight entries appear somewhere in 80 draws.
        assert!(longer.iter().flat_map(|s| &s.steps).any(|hc| hc.id == HypercallId::GetTime));
        assert!(longer.iter().flat_map(|s| &s.steps).any(|hc| hc.id == HypercallId::HmStatus));
        let other_seed = generate_sequences(&alphabet, 8, 5, 8);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn judge_step_mirrors_classify_pairwise_rules() {
        let ok = Expectation::ok();
        assert_eq!(judge_step(&ok, &Invocation::Returned(0)), None);
        // Expected an error, got success => Silent.
        let err = Expectation::err(XmRet::InvalidParam, 0);
        assert_eq!(judge_step(&err, &Invocation::Returned(0)).unwrap().class, CrashClass::Silent);
        // Wrong error code => Hindering.
        assert_eq!(
            judge_step(&err, &Invocation::Returned(XmRet::PermError.code())).unwrap().class,
            CrashClass::Hindering
        );
        // Expected success, got an error code => Hindering.
        assert_eq!(
            judge_step(&ok, &Invocation::Returned(-3)).unwrap().class,
            CrashClass::Hindering
        );
        // Matching no-return pairs pass.
        let reset = Expectation::no_return(NoReturnExpect::CallerReset);
        assert_eq!(judge_step(&reset, &Invocation::NoReturn(NoReturnKind::CallerReset)), None);
        let cold = Expectation::no_return(NoReturnExpect::SystemColdReset);
        assert_eq!(judge_step(&cold, &Invocation::NoReturn(NoReturnKind::SystemColdReset)), None);
        // Unexpected halt => Abort, unexpected suspension => Restart.
        assert_eq!(
            judge_step(&ok, &Invocation::NoReturn(NoReturnKind::CallerHalted)).unwrap().class,
            CrashClass::Abort
        );
        assert_eq!(
            judge_step(&ok, &Invocation::NoReturn(NoReturnKind::CallerSuspended)).unwrap().class,
            CrashClass::Restart
        );
        // Returned although a no-return was documented => Hindering.
        assert_eq!(
            judge_step(&reset, &Invocation::Returned(0)).unwrap().class,
            CrashClass::Hindering
        );
    }

    #[test]
    fn state_model_tracks_partition_lifecycle() {
        let ctx = test_ctx();
        let mut m = StateModel::new(&ctx);
        let suspend = call(HypercallId::SuspendPartition, &[1]);
        let resume = call(HypercallId::ResumePartition, &[1]);

        // Resume before suspend: stateful NoAction (the base oracle's
        // first-invocation answer happens to agree here).
        let e = m.expect_step(&resume);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::NoAction));

        let e = m.expect_step(&suspend);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&suspend, &e);
        // Second suspend is now a NoAction; resume succeeds.
        assert_eq!(m.expect_step(&suspend).outcome, ExpectedOutcome::Ret(XmRet::NoAction));
        let e = m.expect_step(&resume);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&resume, &e);
        assert_eq!(m.expect_step(&resume).outcome, ExpectedOutcome::Ret(XmRet::NoAction));

        // Halt partition 1, then every control call reports the mode.
        let halt = call(HypercallId::HaltPartition, &[1]);
        let e = m.expect_step(&halt);
        m.apply_step(&halt, &e);
        assert_eq!(m.expect_step(&halt).outcome, ExpectedOutcome::Ret(XmRet::NoAction));
        assert_eq!(m.expect_step(&suspend).outcome, ExpectedOutcome::Ret(XmRet::InvalidMode));
        assert_eq!(m.expect_step(&resume).outcome, ExpectedOutcome::Ret(XmRet::InvalidMode));
        // Reset revives it.
        let reset = call(HypercallId::ResetPartition, &[1, 0, 0]);
        let e = m.expect_step(&reset);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&reset, &e);
        assert_eq!(m.digest().partition_status[1], PartitionStatus::Ready);
        assert_eq!(m.digest().reset_counts[1], 1);
    }

    #[test]
    fn state_model_tracks_hm_cursor_and_system_reset() {
        let ctx = test_ctx();
        let mut m = StateModel::new(&ctx);
        assert_eq!(m.digest().hm_entries, 1);

        // Raise grows the log; a 4-entry read clamps to what is there.
        let raise = call(HypercallId::HmRaiseEvent, &[0xAB]);
        let e = m.expect_step(&raise);
        m.apply_step(&raise, &e);
        let read = call(HypercallId::HmRead, &[0x4000_0000, 4]);
        let e = m.expect_step(&read);
        assert_eq!(e.outcome, ExpectedOutcome::RetValue(2));
        m.apply_step(&read, &e);
        // Cursor at end: further reads return 0, seek-to-start rewinds.
        assert_eq!(m.expect_step(&read).outcome, ExpectedOutcome::RetValue(0));
        let rewind = call(HypercallId::HmSeek, &[0, 0]);
        let e = m.expect_step(&rewind);
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        m.apply_step(&rewind, &e);
        assert_eq!(m.expect_step(&read).outcome, ExpectedOutcome::RetValue(2));
        // Relative seek past the end is rejected against the *live* length.
        let over = call(HypercallId::HmSeek, &[3, 1]);
        assert_eq!(over.arg_s32(0), 3);
        assert_eq!(m.expect_step(&over).outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));

        // A documented cold reset re-initialises everything and the
        // prologue re-run is accounted at the caller's next slot.
        let cold = call(HypercallId::ResetSystem, &[0]);
        let e = m.expect_step(&cold);
        assert_eq!(e.outcome, ExpectedOutcome::NoReturn(NoReturnExpect::SystemColdReset));
        m.apply_step(&cold, &e);
        let d = m.digest();
        assert_eq!(d.cold_resets, 1);
        assert_eq!(d.caller_ports, 0);
        assert_eq!(d.current_plan, 0);
        assert!(d.reset_counts.iter().all(|&c| c == 1));
        m.begin_caller_slot();
        assert_eq!(m.digest().hm_entries, 3, "prologue re-run raises one HM event");
    }

    /// Two evaluations that should agree: verdict, executed steps,
    /// per-step outcomes and per-frame digests.
    fn assert_same_eval(a: &SequenceEval, b: &SequenceEval) {
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.steps_executed, b.steps_executed);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.frame_digests, b.frame_digests);
    }

    /// A `SequenceGuest` left in the test partition by an earlier run is
    /// reset in place; the next run must behave exactly as on a guest set
    /// that never held one.
    #[test]
    fn reused_sequence_guest_matches_a_new_one() {
        use crate::check::{enumerate_configs, probes_for, CheckScope, CheckTestbed};
        let scope = CheckScope::default();
        // The port probe only passes when the prologue has written the
        // port name, so it also shows whether the prologue re-ran.
        let names = ["create_sampling_port", "set_timer_periodic"];
        let (cfg, probes) = enumerate_configs(&scope)
            .into_iter()
            .find_map(|c| {
                let probes: Vec<_> =
                    probes_for(&c).into_iter().filter(|p| names.contains(&p.name)).collect();
                (probes.len() == names.len()).then_some((c, probes))
            })
            .expect("a configuration with a sampling channel");
        let tb = CheckTestbed::new(cfg);
        let horizon = scope.horizon as usize;
        for build in [KernelBuild::Legacy, KernelBuild::Patched] {
            let ctx = tb.oracle_context(build);
            for (first, second) in [(&probes[0], &probes[1]), (&probes[1], &probes[0])] {
                // A four-steps-per-slot run leaves its guest, results and
                // cursor included, in the shared guest set.
                let (mut kernel, mut guests) = tb.boot(build);
                run_one_sequence_bounded(
                    &tb,
                    &ctx,
                    &mut kernel,
                    &mut guests,
                    &first.steps,
                    4,
                    horizon,
                );
                let (mut kernel, _) = tb.boot(build);
                let reused = run_one_sequence_bounded(
                    &tb,
                    &ctx,
                    &mut kernel,
                    &mut guests,
                    &second.steps,
                    1,
                    horizon,
                );
                assert!(reused.steps_executed > 0, "{} executes steps", second.name);
                let (mut kernel, mut guests) = tb.boot(build);
                let fresh = run_one_sequence_bounded(
                    &tb,
                    &ctx,
                    &mut kernel,
                    &mut guests,
                    &second.steps,
                    1,
                    horizon,
                );
                assert_same_eval(&reused, &fresh);
            }
        }
    }

    /// `digest_into` overwrites every field of a buffer that held a
    /// different, longer digest, so it equals a digest built from scratch.
    #[test]
    fn digest_into_overwrites_a_used_buffer() {
        use crate::check::{enumerate_configs, CheckScope, CheckTestbed, CALLER};
        let stale = StateDigest {
            alive: false,
            sim_running: false,
            partition_status: vec![PartitionStatus::Halted; 9],
            reset_counts: vec![7; 9],
            current_plan: 5,
            pending_plan: Some(3),
            hw_timer_armed: vec![true; 9],
            exec_timer_owner: Some(8),
            cold_resets: 4,
            warm_resets: 4,
            hm_entries: 40,
            hm_cursor: 40,
            caller_ports: 6,
        };

        let ctx = test_ctx();
        let mut m = StateModel::new(&ctx);
        m.apply_step(
            &call(HypercallId::HaltPartition, &[1]),
            &m.expect_step(&call(HypercallId::HaltPartition, &[1])),
        );
        let mut buf = stale.clone();
        m.digest_into(&mut buf);
        assert_eq!(buf, m.digest());
        assert_eq!(buf.partition_status.len(), 3);
        assert!(buf.alive && buf.sim_running);

        let tb = CheckTestbed::new(enumerate_configs(&CheckScope::default()).remove(0));
        let (kernel, _) = tb.boot(KernelBuild::Legacy);
        let mut buf = stale;
        kernel.state_digest_into(CALLER, &mut buf);
        assert_eq!(buf, kernel.state_digest(CALLER));
        assert!(buf.alive && buf.sim_running);
    }

    fn tagged(tag: &str) -> SequenceVerdict {
        SequenceVerdict {
            classification: Classification {
                class: CrashClass::Silent,
                cause: Cause::WrongSuccess,
            },
            failing_step: Some(0),
            state_diff: vec![tag.to_string()],
        }
    }

    /// The minimal's verdict is the one its own evaluation returned
    /// during the shrink — the last accepted candidate's — never an
    /// earlier accepted candidate's or the input's.
    #[test]
    fn shrink_to_minimal_keeps_the_last_accepted_verdict() {
        let steps = vec![
            call(HypercallId::GetTime, &[0, 0x4000_0000]),
            call(HypercallId::SetTimer, &[0, 987, 13]),
            call(HypercallId::HmStatus, &[0x4000_0000]),
        ];
        let mut seen = Vec::new();
        let minimal = shrink_to_minimal(
            &steps,
            &tagged("input"),
            |cand| {
                seen.push(cand.to_vec());
                // Needs a nonzero timer value and the exact HmStatus
                // pointer, so the last tries (on HmStatus) are rejected.
                let timer = cand.iter().any(|s| s.id == HypercallId::SetTimer && s.args()[1] != 0);
                let status = cand.contains(&steps[2]);
                (timer && status).then(|| tagged(&format!("{cand:?}")))
            },
            1_000,
        );
        assert_eq!(minimal.steps, [call(HypercallId::SetTimer, &[0, 1, 0]), steps[2]]);
        assert_eq!(minimal.verdict, tagged(&format!("{:?}", minimal.steps)));
        assert_eq!(minimal.evals, seen.len());
        assert_eq!((minimal.removed_steps, minimal.shrunk_args), (1, 2));
        // Later candidates were tried and rejected after the last accept.
        assert_ne!(seen.last(), Some(&minimal.steps));
    }

    /// With no accepted candidate the minimal is the input, and so is its
    /// verdict.
    #[test]
    fn shrink_to_minimal_without_progress_keeps_the_input_verdict() {
        let steps =
            vec![call(HypercallId::SetTimer, &[0, 1, 1]), call(HypercallId::GetTime, &[0, 0])];
        let mut evals = 0;
        let minimal = shrink_to_minimal(
            &steps,
            &tagged("input"),
            |_| {
                evals += 1;
                None
            },
            1_000,
        );
        assert_eq!(minimal.steps, steps);
        assert_eq!(minimal.verdict, tagged("input"));
        assert!(evals > 0);
        assert_eq!(minimal.evals, evals);
        assert_eq!((minimal.removed_steps, minimal.shrunk_args), (0, 0));
    }

    #[test]
    fn sequence_options_defaults() {
        let o = SequenceOptions::default();
        assert_eq!(o.build, KernelBuild::Legacy);
        assert_eq!(o.threads, 0);
        assert_eq!(o.steps_per_slot, 4);
        assert!(o.reuse_snapshot);
        assert!(!o.record);
        assert!(o.shrink);
        assert_eq!(o.shrink_budget, 160);
    }
}
