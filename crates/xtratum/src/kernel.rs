//! The separation kernel core: boot, scheduling loop, HM wiring, and the
//! hypercall dispatcher. Individual services live in [`crate::services`].

use crate::config::XmConfig;
use crate::guest::{GuestSet, PartitionApi};
use crate::hm::{HealthMonitor, HmAction, HmEventKind, HmLogEntry};
use crate::hypercall::RawHypercall;
use crate::ipc::{PortTable, SampleStage};
use crate::irq::IrqRouting;
use crate::observe::{OpsEvent, OpsRecord, ResetKind, RunSummary};
use crate::partition::{PartitionCtl, PartitionStatus};
use crate::sched::Scheduler;
use crate::trace::TraceBuffer;
use crate::types::XM_COLD_RESET;
use crate::vtimer::{process_hw_timer, ProcessOutcome, VTimer};
use crate::vuln::{KernelBuild, VulnFlags};
use leon3_sim::addrspace::{Owner, Perms, Region};
use leon3_sim::machine::{Machine, MachineConfig};
use leon3_sim::{TimeUs, Trap};
use std::sync::Arc;

/// Base address of the hypervisor image/RAM region.
pub const KERNEL_BASE: u32 = 0x4000_0000;
/// Size of the hypervisor region.
pub const KERNEL_SIZE: u32 = 0x1_0000;
/// Base address of the device/IO region.
pub const DEVICE_BASE: u32 = 0x8000_0000;
/// Size of the device region.
pub const DEVICE_SIZE: u32 = 0x1000;
/// Virtual-interrupt bit delivered on virtual-timer expiry.
pub const VIRQ_TIMER: u32 = 1 << 0;
/// Virtual-interrupt bit delivered on partition shutdown request.
pub const VIRQ_SHUTDOWN: u32 = 1 << 1;

/// Why a hypercall did not return to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoReturnKind {
    /// The whole system cold-reset.
    SystemColdReset,
    /// The whole system warm-reset.
    SystemWarmReset,
    /// The whole system halted (`XM_halt_system` or HM action).
    SystemHalt,
    /// The calling partition was halted.
    CallerHalted,
    /// The calling partition suspended itself (or was suspended).
    CallerSuspended,
    /// The calling partition idled until its next slot.
    CallerIdled,
    /// The calling partition was reset.
    CallerReset,
    /// The calling partition entered shutdown.
    CallerShutdown,
    /// The simulator itself died (TSIM-crash analogue).
    SimulatorCrashed,
    /// A memory access faulted but the partition survives (HM action was
    /// Log/Ignore); only produced by the guest memory API, never by the
    /// hypercall path.
    Fault,
}

impl NoReturnKind {
    /// Stable numeric code used in flight-recorder event payloads.
    pub fn flight_code(self) -> u32 {
        match self {
            NoReturnKind::SystemColdReset => 0,
            NoReturnKind::SystemWarmReset => 1,
            NoReturnKind::SystemHalt => 2,
            NoReturnKind::CallerHalted => 3,
            NoReturnKind::CallerSuspended => 4,
            NoReturnKind::CallerIdled => 5,
            NoReturnKind::CallerReset => 6,
            NoReturnKind::CallerShutdown => 7,
            NoReturnKind::SimulatorCrashed => 8,
            NoReturnKind::Fault => 9,
        }
    }

    /// Human-readable name for a [`NoReturnKind::flight_code`] value.
    pub fn flight_name(code: u32) -> &'static str {
        match code {
            0 => "SystemColdReset",
            1 => "SystemWarmReset",
            2 => "SystemHalt",
            3 => "CallerHalted",
            4 => "CallerSuspended",
            5 => "CallerIdled",
            6 => "CallerReset",
            7 => "CallerShutdown",
            8 => "SimulatorCrashed",
            9 => "Fault",
            _ => "?",
        }
    }
}

/// Outcome of a hypercall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HcResult {
    /// The service returned this code to the caller.
    Ret(i32),
    /// The service did not return.
    NoReturn(NoReturnKind),
}

/// Hypercall outcome plus its execution-time cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HcResponse {
    /// Outcome.
    pub result: HcResult,
    /// Execution time charged to the caller (µs).
    pub cost_us: u64,
}

/// Why the kernel halted, kept structured so the hot path never builds
/// the human-readable string eagerly — it is rendered only when a run
/// summary is actually reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaltReason {
    /// `XM_halt_system` was invoked.
    HaltCall,
    /// A fatal HM containment action (`HmAction::HaltSystem`).
    HmFatal(HmEventKind),
}

impl std::fmt::Display for HaltReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaltReason::HaltCall => f.write_str("XM_halt_system"),
            HaltReason::HmFatal(kind) => write!(f, "HM fatal event: {kind:?}"),
        }
    }
}

/// Kernel lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelState {
    /// Operating normally.
    Normal,
    /// Halted (fatal HM action or `XM_halt_system`).
    Halted {
        /// Why.
        reason: HaltReason,
        /// When (µs).
        at: TimeUs,
    },
}

/// SPARC per-partition virtual processor state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SparcCtl {
    pub psr: u32,
    pub pil: u32,
    pub traps_enabled: bool,
}

/// The XtratuM separation kernel instance.
///
/// ```
/// use leon3_sim::addrspace::Perms;
/// use xtratum::config::*;
/// use xtratum::guest::GuestSet;
/// use xtratum::vuln::KernelBuild;
/// use xtratum::kernel::XmKernel;
///
/// let cfg = XmConfig {
///     partitions: vec![PartitionCfg {
///         id: 0,
///         name: "SYS".into(),
///         system: true,
///         mem: vec![MemAreaCfg { base: 0x4010_0000, size: 0x1000, perms: Perms::RWX }],
///     }],
///     plans: vec![PlanCfg {
///         id: 0,
///         major_frame_us: 1_000,
///         slots: vec![SlotCfg { partition: 0, start_us: 0, duration_us: 1_000 }],
///     }],
///     channels: vec![],
///     hm_table: XmConfig::default_hm_table(),
///     tuning: Default::default(),
/// };
/// let mut kernel = XmKernel::boot(cfg, KernelBuild::Patched).unwrap();
/// let summary = kernel.run_major_frames(&mut GuestSet::idle(1), 3);
/// assert!(summary.healthy());
/// assert_eq!(summary.frames_completed, 3);
/// ```
#[derive(Debug, Clone)]
pub struct XmKernel {
    /// The simulated LEON3 board the kernel runs on.
    pub machine: Machine,
    // Arc-shared: immutable after a successful boot, so snapshot
    // clones (one per campaign test) don't re-copy the whole config.
    pub(crate) cfg: Arc<XmConfig>,
    build: KernelBuild,
    pub(crate) flags: VulnFlags,
    state: KernelState,
    pub(crate) parts: Vec<PartitionCtl>,
    pub(crate) sched: Scheduler,
    pub(crate) ports: PortTable,
    pub(crate) hm: HealthMonitor,
    pub(crate) traces: Vec<TraceBuffer>,
    pub(crate) hw_vtimers: Vec<VTimer>,
    pub(crate) routes: IrqRouting,
    pub(crate) ops: Vec<OpsRecord>,
    pub(crate) cold_resets: u32,
    pub(crate) warm_resets: u32,
    pub(crate) exec_timer_owner: Option<u32>,
    pub(crate) cache_state: u32,
    pub(crate) io_ports: [u32; 4],
    pub(crate) sparc: Vec<SparcCtl>,
    hm_reset_flags: Vec<bool>,
    frames_run: u64,
    ops_limit: usize,
    /// Reusable message scratch for the IPC services — cleared before each
    /// use, so steady-state message traffic never heap-allocates.
    pub(crate) scratch: Vec<u8>,
    /// Event horizon over the software HW-clock vtimers: a conservative
    /// lower bound (never later than the true minimum) on the earliest
    /// armed `hw_vtimers` expiry, `u64::MAX` when none is armed. Together
    /// with [`Machine::advance_quiescent`]'s exact GPTIMER deadline this
    /// lets `advance_and_process(t)` with `t` below the horizon degenerate
    /// to a single clock assignment. Lowered incrementally at the arm
    /// site, recomputed exactly after each full vtimer scan; a stale (too
    /// low) horizon only costs a redundant scan, never a missed event.
    pub(crate) vtimer_horizon: u64,
    /// Advances satisfied by the event-horizon fast path (pure clock move).
    adv_quiescent: u64,
    /// Advances that ran the full expiry/vtimer processing path.
    adv_processed: u64,
    /// Per-channel staged sampling-port write: the last value written this
    /// slot plus how many writes it coalesces. Committed (sample replaced,
    /// `sample_seq` bumped by the write count) at slot end, or earlier at
    /// the first operation that could observe sampling state — either way
    /// the observable history is identical to landing every write
    /// immediately, because nothing reads the channel in between.
    pub(crate) port_stage: Vec<SampleStage>,
    /// Channel indices with a pending staged write (drained on commit).
    pub(crate) stage_dirty: Vec<u32>,
    /// Slot cursor: when the current major frame started…
    frame_start: TimeUs,
    /// …and the index of its next slot to run (0 at a frame boundary).
    /// Only [`XmKernel::run_to_first_slot_of`] leaves a frame half-run;
    /// [`XmKernel::step_major_frames`] resumes it from here.
    next_slot: usize,
    /// `Some(consumed)` when slot `next_slot` is parked: it was entered and
    /// its partition's boot prologue ran in it, using `consumed` µs of the
    /// slot budget (see [`XmKernel::run_to_first_slot_of`]). The frame
    /// resumes inside that slot, without entering it again.
    parked: Option<u64>,
    /// Flight events of the slots run by [`XmKernel::run_to_first_slot_of`],
    /// replayed into the recorder when the frame resumes, so a recording
    /// of the resumed run equals one of the whole frame. Shared with every
    /// clone and restore of the snapshot kernel.
    prefix_flight: Option<Arc<[flightrec::Event]>>,
}

/// Capture window for [`XmKernel::run_to_first_slot_of`], in events.
/// EagleEye's prefix and FDIR prologue record 66; a prefix that overflows
/// the window is not deferred. Kept small on purpose: the window is
/// allocated and freed per snapshot, and a 1024-event (40 KiB) window made
/// the allocator hand the snapshot's copy fresh pages, costing ~170 µs of
/// set-up per snapshot.
const PREFIX_FLIGHT_CAPACITY: usize = 256;

impl XmKernel {
    /// Boots the kernel: validates the configuration, builds the machine's
    /// memory map and initialises all subsystems.
    pub fn boot(cfg: XmConfig, build: KernelBuild) -> Result<Self, Vec<String>> {
        Self::boot_with_flags(cfg, build, build.flags())
    }

    /// Boots with an explicit defect configuration (ablation studies: any
    /// subset of the legacy defects can be enabled individually).
    pub fn boot_with_flags(
        cfg: XmConfig,
        build: KernelBuild,
        flags: VulnFlags,
    ) -> Result<Self, Vec<String>> {
        let errs = cfg.validate();
        if !errs.is_empty() {
            return Err(errs);
        }
        let mut machine = Machine::new(MachineConfig::default());
        let mut map_errs = Vec::new();
        if let Err(e) = machine.mem.add_region(Region {
            name: "xm-kernel".into(),
            base: KERNEL_BASE,
            size: KERNEL_SIZE,
            owner: Owner::Kernel,
            perms: Perms::RW,
        }) {
            map_errs.push(e);
        }
        if let Err(e) = machine.mem.add_region(Region {
            name: "io".into(),
            base: DEVICE_BASE,
            size: DEVICE_SIZE,
            owner: Owner::Device,
            perms: Perms::RW,
        }) {
            map_errs.push(e);
        }
        for p in &cfg.partitions {
            for (i, area) in p.mem.iter().enumerate() {
                if let Err(e) = machine.mem.add_region(Region {
                    name: format!("{}#{}", p.name, i),
                    base: area.base,
                    size: area.size,
                    owner: Owner::Partition(p.id),
                    perms: area.perms,
                }) {
                    map_errs.push(e);
                }
            }
        }
        if !map_errs.is_empty() {
            return Err(map_errs);
        }
        let n = cfg.partitions.len();
        let sched = Scheduler::new(cfg.plans.clone());
        let ports = PortTable::new(&cfg.channels);
        let hm = HealthMonitor::new(cfg.tuning.hm_log_capacity);
        let traces = (0..n).map(|_| TraceBuffer::new(cfg.tuning.trace_capacity)).collect();
        machine.uart.put_str("XtratuM booting...\n");
        Ok(XmKernel {
            machine,
            parts: (0..n as u32).map(PartitionCtl::new).collect(),
            sched,
            ports,
            hm,
            traces,
            hw_vtimers: vec![VTimer::default(); n],
            routes: IrqRouting::default(),
            ops: Vec::new(),
            cold_resets: 0,
            warm_resets: 0,
            exec_timer_owner: None,
            cache_state: 0x3,
            io_ports: [0; 4],
            sparc: vec![SparcCtl { traps_enabled: true, ..Default::default() }; n],
            hm_reset_flags: vec![false; n],
            frames_run: 0,
            ops_limit: 4096,
            scratch: Vec::new(),
            vtimer_horizon: u64::MAX,
            adv_quiescent: 0,
            adv_processed: 0,
            port_stage: cfg.channels.iter().map(|_| SampleStage::default()).collect(),
            stage_dirty: Vec::new(),
            frame_start: 0,
            next_slot: 0,
            parked: None,
            prefix_flight: None,
            flags,
            build,
            cfg: Arc::new(cfg),
            state: KernelState::Normal,
        })
    }

    /// Which build is running.
    pub fn kernel_build(&self) -> KernelBuild {
        self.build
    }

    /// The active defect configuration.
    pub fn vuln_flags(&self) -> VulnFlags {
        self.flags
    }

    /// The static configuration.
    pub fn config(&self) -> &XmConfig {
        &self.cfg
    }

    /// Kernel lifecycle state.
    pub fn state(&self) -> &KernelState {
        &self.state
    }

    /// True while both the kernel and the simulator are operational.
    pub fn alive(&self) -> bool {
        matches!(self.state, KernelState::Normal) && self.machine.is_running()
    }

    /// Halt reason rendered for reporting, if halted.
    pub fn halt_reason(&self) -> Option<String> {
        match &self.state {
            KernelState::Normal => None,
            KernelState::Halted { reason, .. } => Some(reason.to_string()),
        }
    }

    /// Current status of partition `id`.
    pub fn partition_status(&self, id: u32) -> Option<PartitionStatus> {
        self.parts.get(id as usize).map(|p| p.status)
    }

    /// HM log view.
    pub fn hm_log(&self) -> &[HmLogEntry] {
        self.hm.log()
    }

    /// Ops journal view.
    pub fn ops_log(&self) -> &[OpsRecord] {
        &self.ops
    }

    /// Virtual-timer state of partition `id` (diagnostics).
    pub fn hw_vtimer(&self, id: u32) -> Option<&VTimer> {
        self.hw_vtimers.get(id as usize)
    }

    /// Number of ports partition `id` has created (diagnostics).
    pub fn port_count(&self, id: u32) -> usize {
        self.ports.ports_of(id).len()
    }

    pub(crate) fn ops_push(&mut self, event: OpsEvent) {
        if flightrec::active() {
            let part =
                event.flight_partition().map(|p| p as u16).unwrap_or(flightrec::NO_PARTITION);
            flightrec::record(
                self.machine.now(),
                flightrec::EventKind::Ops,
                part,
                event.flight_code(),
                0,
                0,
            );
        }
        if self.ops.len() < self.ops_limit {
            self.ops.push(OpsRecord { time: self.machine.now(), event });
        }
    }

    pub(crate) fn charge_exec(&mut self, part: u32, us: u64) {
        if let Some(p) = self.parts.get_mut(part as usize) {
            p.exec_us += us;
        }
    }

    /// Pending virtual interrupts of partition `part`.
    pub fn pending_virqs(&self, part: u32) -> u32 {
        self.parts.get(part as usize).map(|p| p.pending_virqs).unwrap_or(0)
    }

    /// Acknowledges virtual interrupts; returns the subset that was
    /// actually pending.
    pub fn ack_virqs(&mut self, part: u32, mask: u32) -> u32 {
        match self.parts.get_mut(part as usize) {
            Some(p) => {
                let acked = p.pending_virqs & mask;
                p.pending_virqs &= !mask;
                acked
            }
            None => 0,
        }
    }

    pub(crate) fn partition_was_reset_by_hm(&self, part: u32) -> bool {
        self.hm_reset_flags.get(part as usize).copied().unwrap_or(false)
    }

    /// Permanently halts the kernel.
    pub(crate) fn halt_kernel(&mut self, reason: HaltReason) {
        if matches!(self.state, KernelState::Normal) {
            let code = match &reason {
                HaltReason::HaltCall => 0,
                HaltReason::HmFatal(_) => 1,
            };
            flightrec::record(
                self.machine.now(),
                flightrec::EventKind::KernelHalt,
                flightrec::NO_PARTITION,
                code,
                0,
                0,
            );
            self.machine.uart.put_fmt(format_args!("XM PANIC: {reason}\n"));
            self.state = KernelState::Halted { reason, at: self.machine.now() };
        }
    }

    /// Records an HM event and applies the configured containment action.
    pub(crate) fn hm_event(&mut self, kind: HmEventKind, partition: Option<u32>) -> HmAction {
        let action = self.cfg.hm_table.action(kind.class());
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::HmEvent,
            partition.map(|p| p as u16).unwrap_or(flightrec::NO_PARTITION),
            action.flight_code(),
            crate::services::hm_class_code(&kind) as u64,
            0,
        );
        self.hm.record(HmLogEntry {
            time: self.machine.now(),
            kind: kind.clone(),
            partition,
            action,
        });
        match action {
            HmAction::Log | HmAction::Ignore => {}
            HmAction::HaltPartition => {
                if let Some(p) = partition {
                    if let Some(ctl) = self.parts.get_mut(p as usize) {
                        ctl.status = PartitionStatus::Halted;
                    }
                    self.ops_push(OpsEvent::PartitionHaltedByHm { target: p });
                }
            }
            HmAction::ResetPartitionWarm | HmAction::ResetPartitionCold => {
                if let Some(p) = partition {
                    let mode = if action == HmAction::ResetPartitionCold {
                        crate::types::XM_COLD_RESET
                    } else {
                        crate::types::XM_WARM_RESET
                    };
                    if let Some(ctl) = self.parts.get_mut(p as usize) {
                        ctl.reset(mode, 0);
                    }
                    if let Some(f) = self.hm_reset_flags.get_mut(p as usize) {
                        *f = true;
                    }
                    self.ops_push(OpsEvent::PartitionResetByHm { target: p });
                }
            }
            HmAction::HaltSystem => {
                let reason = HaltReason::HmFatal(kind);
                self.ops_push(OpsEvent::SystemHaltedByHm { reason: reason.to_string() });
                self.halt_kernel(reason);
            }
            HmAction::ResetSystemWarm => {
                self.do_system_reset(ResetKind::Warm);
            }
        }
        action
    }

    /// Performs a system reset. The caller records the ops event (it
    /// knows the requested mode).
    pub(crate) fn do_system_reset(&mut self, kind: ResetKind) {
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::SystemReset,
            flightrec::NO_PARTITION,
            match kind {
                ResetKind::Cold => 0,
                ResetKind::Warm => 1,
            },
            0,
            0,
        );
        match kind {
            ResetKind::Cold => {
                self.cold_resets += 1;
                for p in &mut self.parts {
                    p.reset(XM_COLD_RESET, 0);
                }
                self.ports.reset();
                // Staged sampling writes die with the port tables they
                // were bound for (had they landed eagerly, this reset
                // would have wiped them the same way).
                self.clear_port_stage();
                self.sched.cold_reset();
                for t in &mut self.traces {
                    t.clear();
                }
            }
            ResetKind::Warm => {
                self.warm_resets += 1;
                for p in &mut self.parts {
                    p.reset(crate::types::XM_WARM_RESET, 0);
                }
            }
        }
        for t in &mut self.hw_vtimers {
            t.disarm();
        }
        self.vtimer_horizon = u64::MAX;
        self.exec_timer_owner = None;
        self.machine.timers.disarm(1);
        self.machine.warm_reset();
        self.machine.uart.put_str(match kind {
            ResetKind::Cold => "XM cold reset\n",
            ResetKind::Warm => "XM warm reset\n",
        });
    }

    /// Advances machine time to `t`, delivering hardware-timer interrupts
    /// and processing software (HW-clock) virtual timers. Detects the
    /// legacy `XM_set_timer` kernel-stack overflow and the simulator
    /// trap-storm death.
    pub(crate) fn advance_and_process(&mut self, t: TimeUs) {
        if !self.alive() {
            return;
        }
        // Event-horizon fast path: no GPTIMER unit is due by `t` (exact
        // cached deadline) and no armed vtimer lies at or before
        // `max(t, now)` (the slow path below scans vtimers at the *new*
        // clock, which is `now` even when `t` is in the past) — the whole
        // advance is one clock assignment.
        if self.try_quiescent_advance(t) {
            return;
        }
        self.adv_processed += 1;
        // Allocation-free advance: the sink only needs to know whether the
        // exec-clock unit (hardware unit 1) expired — the per-expiry work
        // below is idempotent, so the distinct-pair stream carries exactly
        // the information the Vec of individual events used to.
        let mut exec_irq: Option<u8> = None;
        self.machine.advance_to_with(t, &mut |unit, irq| {
            if unit == 1 {
                exec_irq = Some(irq);
            }
        });
        if !self.machine.is_running() {
            // The simulator died (trap storm); nothing more to process.
            return;
        }
        // Exec-clock timer deliveries (hardware unit 1).
        if let Some(irq) = exec_irq {
            self.machine.irqmp.ack(irq);
            if let Some(owner) = self.exec_timer_owner {
                if let Some(p) = self.parts.get_mut(owner as usize) {
                    p.pending_virqs |= VIRQ_TIMER;
                    flightrec::record(
                        self.machine.now(),
                        flightrec::EventKind::VtimerExpiry,
                        owner as u16,
                        1,
                        1,
                        0,
                    );
                }
            }
        }
        // Software-managed HW-clock virtual timers. When the horizon says
        // none is due (the slow path was taken for a GPTIMER expiry only),
        // the scan is skipped and the horizon stays valid as-is.
        if self.vtimer_horizon > self.machine.now() {
            return;
        }
        let now_i = self.machine.now() as i64;
        let cost = self.cfg.tuning.vtimer_handler_cost_us as i64;
        let limit = self.cfg.tuning.kernel_stack_frames;
        for idx in 0..self.hw_vtimers.len() {
            let timer = &mut self.hw_vtimers[idx];
            if !timer.due_by(now_i) {
                continue;
            }
            match process_hw_timer(timer, now_i, cost, limit) {
                ProcessOutcome::Done { delivered } => {
                    if delivered > 0 {
                        self.parts[idx].pending_virqs |= VIRQ_TIMER;
                        flightrec::record(
                            self.machine.now(),
                            flightrec::EventKind::VtimerExpiry,
                            idx as u16,
                            0,
                            delivered as u64,
                            0,
                        );
                    }
                }
                ProcessOutcome::StackOverflow { depth, .. } => {
                    // The recursive handler exhausted the kernel stack:
                    // window_overflow in supervisor context — fatal.
                    self.machine.record_trap(Trap::WindowOverflow);
                    self.machine.uart.put_fmt(format_args!(
                        "XM: kernel stack overflow in vtimer handler (depth {depth})\n"
                    ));
                    self.hm_event(
                        HmEventKind::KernelTrap {
                            tt: Trap::WindowOverflow.tt(),
                            addr: None,
                            context: "virtual timer handler recursion",
                        },
                        Some(idx as u32),
                    );
                    return;
                }
            }
        }
        // Processing only pushed expiries later or disarmed timers, so the
        // exact minimum is recomputed here. (The StackOverflow return above
        // leaves the horizon stale-but-conservative, which is safe: too low
        // only costs a redundant scan.)
        self.recompute_vtimer_horizon();
    }

    /// Attempts the event-horizon fast path for an advance to `t`: when no
    /// observable event (GPTIMER unit expiry or armed HW vtimer) lies in
    /// the window, the advance is a single clock assignment. Returns
    /// whether it happened; on `false` nothing was changed.
    fn try_quiescent_advance(&mut self, t: TimeUs) -> bool {
        if self.vtimer_horizon > t.max(self.machine.now()) && self.machine.advance_quiescent(t) {
            self.adv_quiescent += 1;
            true
        } else {
            false
        }
    }

    /// Recomputes the vtimer horizon exactly from the armed timers.
    pub(crate) fn recompute_vtimer_horizon(&mut self) {
        self.vtimer_horizon = self
            .hw_vtimers
            .iter()
            .filter(|t| t.armed)
            .map(|t| t.next_expiry.max(0) as u64)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// `(quiescent, processed)` advance counts since boot (or the last
    /// restore): how many time advances the event-horizon fast path
    /// satisfied versus how many ran the full expiry/vtimer scan.
    pub fn advance_stats(&self) -> (u64, u64) {
        (self.adv_quiescent, self.adv_processed)
    }

    /// Lands every staged sampling-port write: the channel's sample
    /// becomes the staged (last-written) value and `sample_seq` advances
    /// by the coalesced write count — indistinguishable from having
    /// performed each write at its hypercall, since no operation observed
    /// the channel in between (any that could would have committed first).
    pub(crate) fn commit_port_stage(&mut self) {
        for di in 0..self.stage_dirty.len() {
            let ci = self.stage_dirty[di] as usize;
            let st = &mut self.port_stage[ci];
            self.ports.commit_staged_sample(ci, &st.buf, st.writes);
            st.writes = 0;
            st.buf.clear();
        }
        self.stage_dirty.clear();
    }

    /// Drops all staged writes without landing them (cold reset wipes the
    /// port tables, and the descriptor-to-channel mapping dies with them;
    /// the pre-reset writes would have been erased by the reset anyway).
    fn clear_port_stage(&mut self) {
        for di in 0..self.stage_dirty.len() {
            let ci = self.stage_dirty[di] as usize;
            let st = &mut self.port_stage[ci];
            st.writes = 0;
            st.buf.clear();
        }
        self.stage_dirty.clear();
    }

    /// Runs `frames` major frames of the active plan, driving the guest
    /// programs, and returns the observation summary.
    pub fn run_major_frames(&mut self, guests: &mut GuestSet, frames: u32) -> RunSummary {
        self.step_major_frames(guests, frames);
        self.summary()
    }

    /// Runs `frames` major frames without building a summary. Callers that
    /// are done with the kernel afterwards pair this with
    /// [`XmKernel::into_summary`] to avoid copying the observation logs.
    /// A frame left half-run by [`XmKernel::run_to_first_slot_of`] is
    /// resumed at its next slot (inside it, when the slot is parked) and
    /// counts as the first of the `frames`.
    pub fn step_major_frames(&mut self, guests: &mut GuestSet, frames: u32) {
        if frames > 0 {
            if let Some(events) = self.prefix_flight.take() {
                flightrec::replay(&events);
            }
        }
        for _ in 0..frames {
            if !self.alive() {
                break;
            }
            let major_frame_us = self.run_slots(guests, None);
            if !self.alive() {
                break;
            }
            let frame_end = self.frame_start + major_frame_us;
            self.advance_and_process(frame_end.max(self.machine.now()));
            if !self.alive() {
                break;
            }
            self.next_slot = 0;
            self.frames_run += 1;
            if let Some((from, to)) = self.sched.finish_frame() {
                self.ops_push(OpsEvent::PlanSwitched { from, to });
            }
        }
    }

    /// Runs the current frame up to the first slot of `partition`, and
    /// keeps the flight events of what it ran (see
    /// [`XmKernel::step_major_frames`]). These slots are the same in every
    /// run from boot until `partition` first executes, so a snapshot taken
    /// here replaces re-running them per test.
    ///
    /// With a `prologue` (the boot initialisation every guest of
    /// `partition` runs first, see [`PartitionApi::boot_prologue_done`]),
    /// the kernel also enters that slot, runs `prologue` there and parks
    /// the slot: the next [`XmKernel::step_major_frames`] resumes inside
    /// it with the consumed budget preset, so the prologue too runs once
    /// per snapshot instead of once per test. Parking needs the slot to
    /// be able to go on exactly as a guest's own prologue would have left
    /// it: the prologue must not end the slot, use up its budget, stage a
    /// sampling write or kill the kernel. A kernel where it did is
    /// returned as unusable (the caller retries without a prologue). When
    /// `partition` owns the frame's first slot, or cannot run in its slot,
    /// nothing is parked and the kernel stops before the slot.
    ///
    /// Returns whether the kernel is a faithful snapshot point: true after
    /// the prefix (and a parked prologue) ran cleanly, and also (nothing
    /// run) when the kernel is mid-frame or `partition` owns no slot of the
    /// current plan. False when the run halted the kernel, crashed the
    /// simulator, switched the plan (a cold reset does), overflowed the
    /// capture window, or ran a prologue that cannot be parked; the kernel
    /// must then be discarded.
    pub fn run_to_first_slot_of(
        &mut self,
        guests: &mut GuestSet,
        partition: u32,
        prologue: Option<fn(&mut PartitionApi<'_>)>,
    ) -> bool {
        let plan = self.sched.current_plan();
        let owns_slot = plan.slots.iter().any(|s| s.partition == partition);
        if self.next_slot != 0 || !owns_slot || !self.alive() {
            return true;
        }
        let plan_id = plan.id;
        let (clean, window) = flightrec::capture(PREFIX_FLIGHT_CAPACITY, || {
            self.run_slots(guests, Some(partition));
            // The cursor indexes into the plan the frame started with.
            let clean = self.alive() && self.sched.current_plan_id() == plan_id;
            match prologue {
                Some(prologue) if clean => self.park_after_prologue(prologue),
                _ => clean,
            }
        });
        let clean = clean && window.dropped == 0;
        if clean && !window.events.is_empty() {
            self.prefix_flight = Some(window.events.into());
        }
        clean
    }

    /// Enters slot `next_slot`, runs `prologue` in it as its partition and
    /// parks the slot (see [`XmKernel::run_to_first_slot_of`]). Returns
    /// false when the prologue left a slot that cannot be parked. Slot 0
    /// is not parked: a cursor at 0 means a frame boundary.
    fn park_after_prologue(&mut self, prologue: fn(&mut PartitionApi<'_>)) -> bool {
        let slot_idx = self.next_slot;
        let slot = self.sched.current_plan().slots[slot_idx];
        let idx = slot.partition as usize;
        if slot_idx == 0 || !self.parts[idx].status.schedulable() {
            return true;
        }
        if !self.enter_slot(
            slot.partition,
            slot_idx,
            self.frame_start + slot.start_us,
            slot.duration_us,
        ) {
            return false;
        }
        let (consumed, ended) = {
            let mut api = PartitionApi::new(self, slot.partition, slot.duration_us);
            prologue(&mut api);
            (api.consumed_us(), api.ended())
        };
        // A prologue that halts the kernel or crashes the simulator has
        // ended the slot too.
        let parkable =
            ended.is_none() && consumed < slot.duration_us && self.stage_dirty.is_empty();
        if parkable {
            self.parked = Some(consumed);
        }
        parkable
    }

    /// Whether the frame will resume inside a parked slot (see
    /// [`XmKernel::run_to_first_slot_of`]).
    pub fn slot_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// The slot loop: runs the current frame's slots from the cursor to
    /// the frame's end, or up to (not into) the first slot `stop` owns.
    /// A parked slot at the cursor is resumed rather than entered.
    /// Returns the length of the major frame the slots belong to. Stops
    /// early once the kernel is no longer alive (the cursor then no longer
    /// matters: a dead kernel never runs another slot).
    fn run_slots(&mut self, guests: &mut GuestSet, stop: Option<u32>) -> u64 {
        let (plan_table, plan_idx) = self.sched.current_plan_shared();
        let plan = &plan_table[plan_idx];
        if self.next_slot == 0 {
            self.frame_start = self.machine.now();
        }
        let frame_start = self.frame_start;
        for (slot_idx, slot) in plan.slots.iter().enumerate().skip(self.next_slot) {
            let pid = slot.partition;
            if stop == Some(pid) {
                self.next_slot = slot_idx;
                return plan.major_frame_us;
            }
            if !self.alive() {
                break;
            }
            let slot_start = frame_start + slot.start_us;
            let idx = pid as usize;
            let consumed = {
                let mut api = match self.parked.take() {
                    // Entered at the snapshot; the prologue already ran.
                    Some(consumed) => PartitionApi::resumed(self, pid, slot.duration_us, consumed),
                    None => {
                        if !self.enter_slot(pid, slot_idx, slot_start, slot.duration_us) {
                            continue;
                        }
                        PartitionApi::new(self, pid, slot.duration_us)
                    }
                };
                guests.run_slot(pid, &mut api);
                api.consumed_us()
            };
            // Slot end: land the sampling writes the slot coalesced.
            self.commit_port_stage();
            if self.parts[idx].status == PartitionStatus::Running {
                self.parts[idx].status = PartitionStatus::Ready;
            } else if self.parts[idx].status == PartitionStatus::Idle {
                // idle_self lasts until the next slot.
                self.parts[idx].status = PartitionStatus::Ready;
            }
            if !self.alive() {
                break;
            }
            if consumed > slot.duration_us {
                // Temporal isolation violation: the partition held the
                // CPU past its slot, delaying everything after it.
                let overrun = consumed - slot.duration_us;
                self.advance_and_process(slot_start + consumed);
                if !self.alive() {
                    break;
                }
                self.sched.note_overrun();
                self.hm_event(HmEventKind::SchedOverrun { overrun_us: overrun }, Some(pid));
                self.record_slot_end(pid, slot_idx);
            } else {
                self.advance_and_process((slot_start + slot.duration_us).max(self.machine.now()));
                self.record_slot_end(pid, slot_idx);
            }
        }
        self.next_slot = plan.slots.len();
        plan.major_frame_us
    }

    /// Slot entry: advances to the slot's start and, when partition `pid`
    /// can run, marks it running and records `SlotBegin`. Returns whether
    /// the partition runs in this slot; when it cannot, the clock has
    /// moved to the slot's end (or the kernel died on the way).
    fn enter_slot(
        &mut self,
        pid: u32,
        slot_idx: usize,
        slot_start: TimeUs,
        duration_us: u64,
    ) -> bool {
        let idx = pid as usize;
        // Idle-slot fast path: an unschedulable partition's slot with no
        // observable event in its window collapses both advances into one
        // horizon-checked clock jump. A quiescent advance cannot change
        // schedulability (or anything else), so pre-checking the status is
        // equivalent to the slow path's advance-then-check ordering;
        // neither path emits SlotBegin/SlotEnd for unschedulable slots.
        if !self.parts[idx].status.schedulable()
            && self.try_quiescent_advance(slot_start + duration_us)
        {
            self.hm_reset_flags[idx] = false;
            return false;
        }
        self.advance_and_process(slot_start.max(self.machine.now()));
        if !self.alive() {
            return false;
        }
        self.hm_reset_flags[idx] = false;
        if !self.parts[idx].status.schedulable() {
            self.advance_and_process((slot_start + duration_us).max(self.machine.now()));
            return false;
        }
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::SlotBegin,
            pid as u16,
            slot_idx as u32,
            duration_us,
            0,
        );
        self.parts[idx].status = PartitionStatus::Running;
        true
    }

    /// Flight-records the end of a scheduling slot.
    fn record_slot_end(&self, pid: u32, slot_idx: usize) {
        flightrec::record(
            self.machine.now(),
            flightrec::EventKind::SlotEnd,
            pid as u16,
            slot_idx as u32,
            0,
            0,
        );
    }

    /// Restores the whole kernel to `src`'s state in place. `src` must be
    /// the booted prototype this kernel was cloned from (or last restored
    /// to), unmodified since: partition memory comes back through the
    /// dirty-page restore (see
    /// [`AddressSpace::restore_from`](leon3_sim::addrspace::AddressSpace::restore_from)),
    /// everything else through capacity-preserving `clone_from`s. This is
    /// the snapshot reset the campaign executor runs between tests — one
    /// bounded copy, allocation-free once the first restore has warmed the
    /// buffers.
    pub fn restore_from(&mut self, src: &Self) {
        // Exhaustive destructuring: adding a field without restoring it
        // becomes a compile error, not a silent determinism bug.
        let XmKernel {
            machine,
            cfg,
            build,
            flags,
            state,
            parts,
            sched,
            ports,
            hm,
            traces,
            hw_vtimers,
            routes,
            ops,
            cold_resets,
            warm_resets,
            exec_timer_owner,
            cache_state,
            io_ports,
            sparc,
            hm_reset_flags,
            frames_run,
            ops_limit,
            scratch,
            vtimer_horizon,
            adv_quiescent,
            adv_processed,
            port_stage,
            stage_dirty,
            frame_start,
            next_slot,
            parked,
            prefix_flight,
        } = self;
        machine.restore_from(&src.machine);
        cfg.clone_from(&src.cfg);
        *build = src.build;
        *flags = src.flags;
        state.clone_from(&src.state);
        parts.clone_from(&src.parts);
        sched.clone_from(&src.sched);
        ports.restore_from(&src.ports);
        hm.restore_from(&src.hm);
        debug_assert_eq!(traces.len(), src.traces.len(), "trace stream count mismatch");
        for (t, s) in traces.iter_mut().zip(&src.traces) {
            t.restore_from(s);
        }
        hw_vtimers.clone_from(&src.hw_vtimers);
        routes.clone_from(&src.routes);
        ops.clone_from(&src.ops);
        *cold_resets = src.cold_resets;
        *warm_resets = src.warm_resets;
        *exec_timer_owner = src.exec_timer_owner;
        *cache_state = src.cache_state;
        *io_ports = src.io_ports;
        sparc.clone_from(&src.sparc);
        hm_reset_flags.clone_from(&src.hm_reset_flags);
        *frames_run = src.frames_run;
        *ops_limit = src.ops_limit;
        scratch.clone_from(&src.scratch);
        *vtimer_horizon = src.vtimer_horizon;
        *adv_quiescent = src.adv_quiescent;
        *adv_processed = src.adv_processed;
        // Snapshots are taken between slots, where the stage is always
        // drained, or in a parked slot whose prologue staged nothing;
        // clearing (capacity kept) restores that empty state.
        debug_assert!(src.stage_dirty.is_empty(), "snapshot has staged port writes");
        for st in port_stage.iter_mut() {
            st.writes = 0;
            st.buf.clear();
        }
        stage_dirty.clear();
        *frame_start = src.frame_start;
        *next_slot = src.next_slot;
        *parked = src.parked;
        prefix_flight.clone_from(&src.prefix_flight);
    }

    /// Snapshot of everything the harness observes.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            frames_completed: self.frames_run,
            kernel_halt_reason: self.halt_reason(),
            sim_health: self.machine.health().clone(),
            hm_log: self.hm.log().to_vec(),
            ops_log: self.ops.clone(),
            partition_final: self.parts.iter().map(|p| p.status).collect(),
            console: self.machine.uart.captured().to_string(),
            cold_resets: self.cold_resets,
            warm_resets: self.warm_resets,
        }
    }

    /// Consumes the kernel into its observation summary, moving the HM
    /// log, ops journal and console capture instead of cloning them.
    /// Byte-identical to [`XmKernel::summary`]; the campaign executor uses
    /// this because each test discards its kernel right after reading the
    /// summary.
    pub fn into_summary(self) -> RunSummary {
        RunSummary {
            frames_completed: self.frames_run,
            kernel_halt_reason: self.halt_reason(),
            sim_health: self.machine.health().clone(),
            hm_log: self.hm.into_log(),
            ops_log: self.ops,
            partition_final: self.parts.iter().map(|p| p.status).collect(),
            console: self.machine.uart.into_captured(),
            cold_resets: self.cold_resets,
            warm_resets: self.warm_resets,
        }
    }

    /// Hypercall entry point: permission check, dispatch, cost accounting.
    pub fn hypercall(&mut self, caller: u32, hc: &RawHypercall) -> HcResponse {
        let base = self.cfg.tuning.hypercall_cost_us;
        if !self.alive() {
            return HcResponse {
                result: HcResult::NoReturn(if self.machine.is_running() {
                    NoReturnKind::SystemHalt
                } else {
                    NoReturnKind::SimulatorCrashed
                }),
                cost_us: 0,
            };
        }
        if caller as usize >= self.parts.len() {
            return HcResponse {
                result: HcResult::Ret(crate::retcode::XmRet::PermError.code()),
                cost_us: base,
            };
        }
        let def = hc.id.def();
        if def.system_only && !self.cfg.partitions[caller as usize].system {
            return HcResponse {
                result: HcResult::Ret(crate::retcode::XmRet::PermError.code()),
                cost_us: base,
            };
        }
        let (result, extra) = self.dispatch(caller, hc);
        // If the service killed the simulator or halted the kernel,
        // translate the outcome.
        let result = if !self.machine.is_running() {
            HcResult::NoReturn(NoReturnKind::SimulatorCrashed)
        } else if !matches!(self.state, KernelState::Normal) {
            match result {
                HcResult::NoReturn(
                    k @ (NoReturnKind::SystemHalt
                    | NoReturnKind::SystemColdReset
                    | NoReturnKind::SystemWarmReset),
                ) => HcResult::NoReturn(k),
                _ => HcResult::NoReturn(NoReturnKind::SystemHalt),
            }
        } else {
            result
        };
        HcResponse { result, cost_us: base + extra }
    }

    /// Cheap, comparable projection of the kernel's architectural state,
    /// taken from `caller`'s point of view. The sequence campaign's
    /// differential oracle diffs this against its reference state machine
    /// after every frame; every field here must be *exactly* predictable
    /// from documented hypercall semantics alone.
    pub fn state_digest(&self, caller: u32) -> StateDigest {
        let mut out = StateDigest::default();
        self.state_digest_into(caller, &mut out);
        out
    }

    /// [`XmKernel::state_digest`] into a caller-owned buffer, reusing its
    /// vectors' capacity: allocation-free once `out` has held a digest of
    /// this kernel.
    pub fn state_digest_into(&self, caller: u32, out: &mut StateDigest) {
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
        *alive = self.alive();
        *sim_running = self.machine.is_running();
        partition_status.clear();
        partition_status.extend(self.parts.iter().map(|p| p.status));
        reset_counts.clear();
        reset_counts.extend(self.parts.iter().map(|p| p.reset_count));
        *current_plan = self.sched.current_plan_id();
        *pending_plan = self.sched.pending_plan_id();
        hw_timer_armed.clear();
        hw_timer_armed.extend(self.hw_vtimers.iter().map(|t| t.armed));
        *exec_timer_owner = self.exec_timer_owner;
        *cold_resets = self.cold_resets;
        *warm_resets = self.warm_resets;
        *hm_entries = self.hm.len() as u32;
        *hm_cursor = self.hm.cursor as u32;
        *caller_ports = self.port_count(caller) as u32;
    }
}

/// Snapshot of the architectural state compared by the stepwise
/// differential oracle (see [`XmKernel::state_digest`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDigest {
    /// Kernel in `Normal` state and simulator running.
    pub alive: bool,
    /// Simulator operational (false after a TSIM-style crash).
    pub sim_running: bool,
    /// Per-partition scheduling status.
    pub partition_status: Vec<PartitionStatus>,
    /// Per-partition reset counters.
    pub reset_counts: Vec<u32>,
    /// Active scheduling plan id.
    pub current_plan: u32,
    /// Plan switch pending at the next frame boundary.
    pub pending_plan: Option<u32>,
    /// Per-partition HW-clock virtual timer armed flags.
    pub hw_timer_armed: Vec<bool>,
    /// Partition owning the shared EXEC-clock timer unit, if armed.
    pub exec_timer_owner: Option<u32>,
    /// System cold resets performed since boot.
    pub cold_resets: u32,
    /// System warm resets performed since boot.
    pub warm_resets: u32,
    /// Health-monitor log length.
    pub hm_entries: u32,
    /// Health-monitor read cursor.
    pub hm_cursor: u32,
    /// Ports created by the observing partition.
    pub caller_ports: u32,
}

impl StateDigest {
    /// Field-by-field difference against another digest, rendered as
    /// `field: expected X, kernel Y` lines (empty when equal). `self` is
    /// the reference model's prediction, `kernel` the observed state.
    pub fn diff(&self, kernel: &StateDigest) -> Vec<String> {
        let mut out = Vec::new();
        fn push<T: std::fmt::Debug + PartialEq>(out: &mut Vec<String>, name: &str, a: &T, b: &T) {
            if a != b {
                out.push(format!("{name}: expected {a:?}, kernel {b:?}"));
            }
        }
        push(&mut out, "alive", &self.alive, &kernel.alive);
        push(&mut out, "sim_running", &self.sim_running, &kernel.sim_running);
        push(&mut out, "partition_status", &self.partition_status, &kernel.partition_status);
        push(&mut out, "reset_counts", &self.reset_counts, &kernel.reset_counts);
        push(&mut out, "current_plan", &self.current_plan, &kernel.current_plan);
        push(&mut out, "pending_plan", &self.pending_plan, &kernel.pending_plan);
        push(&mut out, "hw_timer_armed", &self.hw_timer_armed, &kernel.hw_timer_armed);
        push(&mut out, "exec_timer_owner", &self.exec_timer_owner, &kernel.exec_timer_owner);
        push(&mut out, "cold_resets", &self.cold_resets, &kernel.cold_resets);
        push(&mut out, "warm_resets", &self.warm_resets, &kernel.warm_resets);
        push(&mut out, "hm_entries", &self.hm_entries, &kernel.hm_entries);
        push(&mut out, "hm_cursor", &self.hm_cursor, &kernel.hm_cursor);
        push(&mut out, "caller_ports", &self.caller_ports, &kernel.caller_ports);
        out
    }

    /// Stable 64-bit hash of every digest field, in declaration order.
    /// The fuzzer folds one of these per major frame into its coverage
    /// stream, so two sequences that drive the kernel through different
    /// architectural states hash differently even when their event
    /// streams agree. Equal digests always hash equal; the value depends
    /// only on field contents (never addresses or iteration order), so
    /// it is reproducible across runs, threads and platforms.
    pub fn stable_hash(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut fold = |w: u64| h = (h ^ w).wrapping_mul(PRIME);
        fold(self.alive as u64);
        fold(self.sim_running as u64);
        fold(self.partition_status.len() as u64);
        for s in &self.partition_status {
            fold(*s as u64);
        }
        for c in &self.reset_counts {
            fold(*c as u64);
        }
        fold(self.current_plan as u64);
        fold(self.pending_plan.map_or(u64::MAX, u64::from));
        for armed in &self.hw_timer_armed {
            fold(*armed as u64);
        }
        fold(self.exec_timer_owner.map_or(u64::MAX, u64::from));
        fold(self.cold_resets as u64);
        fold(self.warm_resets as u64);
        fold(self.hm_entries as u64);
        fold(self.hm_cursor as u64);
        fold(self.caller_ports as u64);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemAreaCfg, PartitionCfg, PlanCfg, SlotCfg};
    use crate::hypercall::HypercallId;
    use crate::retcode::XmRet;

    pub(crate) fn test_config() -> XmConfig {
        XmConfig {
            partitions: vec![
                PartitionCfg {
                    id: 0,
                    name: "sys".into(),
                    system: true,
                    mem: vec![MemAreaCfg { base: 0x4010_0000, size: 0x1_0000, perms: Perms::RWX }],
                },
                PartitionCfg {
                    id: 1,
                    name: "app".into(),
                    system: false,
                    mem: vec![MemAreaCfg { base: 0x4020_0000, size: 0x1_0000, perms: Perms::RWX }],
                },
            ],
            plans: vec![PlanCfg {
                id: 0,
                major_frame_us: 100_000,
                slots: vec![
                    SlotCfg { partition: 0, start_us: 0, duration_us: 50_000 },
                    SlotCfg { partition: 1, start_us: 50_000, duration_us: 50_000 },
                ],
            }],
            channels: vec![],
            hm_table: XmConfig::default_hm_table(),
            tuning: Default::default(),
        }
    }

    #[test]
    fn boot_builds_memory_map() {
        let k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        assert!(k.alive());
        assert!(k.machine.mem.region_at(KERNEL_BASE).is_some());
        assert!(k.machine.mem.region_at(0x4010_0000).is_some());
        assert!(k.machine.mem.region_at(0x4020_0000).is_some());
        assert_eq!(k.parts.len(), 2);
    }

    #[test]
    fn boot_rejects_invalid_config() {
        let mut cfg = test_config();
        cfg.partitions.clear();
        assert!(XmKernel::boot(cfg, KernelBuild::Legacy).is_err());
    }

    #[test]
    fn boot_rejects_overlapping_partition_memory() {
        let mut cfg = test_config();
        cfg.partitions[1].mem[0].base = 0x4010_8000; // overlaps partition 0
        let err = XmKernel::boot(cfg, KernelBuild::Legacy).unwrap_err();
        assert!(err.iter().any(|e| e.contains("overlaps")));
    }

    #[test]
    fn run_idle_frames_completes() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let mut guests = GuestSet::idle(2);
        let s = k.run_major_frames(&mut guests, 3);
        assert_eq!(s.frames_completed, 3);
        assert!(s.healthy());
        assert_eq!(k.machine.now(), 300_000);
    }

    #[test]
    fn normal_partition_cannot_call_system_services() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let hc = RawHypercall::new(HypercallId::ResetSystem, vec![0]).unwrap();
        let r = k.hypercall(1, &hc);
        assert_eq!(r.result, HcResult::Ret(XmRet::PermError.code()));
        assert!(k.alive(), "a denied request must not reset the system");
    }

    #[test]
    fn hypercalls_cost_time() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let hc = RawHypercall::new(HypercallId::GetPlanStatus, vec![0]).unwrap();
        let r = k.hypercall(0, &hc);
        assert_eq!(r.cost_us, k.cfg.tuning.hypercall_cost_us);
    }

    /// A guest that makes one hypercall and burns some budget per slot,
    /// so every slot leaves hypercall, time and console traces.
    #[derive(Clone)]
    struct Chatty;

    impl crate::guest::GuestProgram for Chatty {
        fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
            let hc = RawHypercall::new(HypercallId::GetTime, vec![0, 0]).unwrap();
            let _ = api.hypercall(&hc);
            api.consume(1_000);
        }

        fn clone_boxed(&self) -> Option<Box<dyn crate::guest::GuestProgram>> {
            Some(Box::new(self.clone()))
        }
    }

    fn chatty(n: usize) -> GuestSet {
        let mut g = GuestSet::idle(n);
        for p in 0..n as u32 {
            g.set(p, Box::new(Chatty));
        }
        g
    }

    /// Everything a run exposes: summary, clock, advance counts and the
    /// drained flight stream (empty when `record` is off).
    fn observe(k: &mut XmKernel, g: &mut GuestSet, frames: u32, record: bool) -> String {
        if record {
            flightrec::enable(4096);
        }
        k.step_major_frames(g, frames);
        let flight = flightrec::drain();
        flightrec::disable();
        format!("{:?} {} {:?} {:?}", k.summary(), k.machine.now(), k.advance_stats(), flight)
    }

    /// Runs `frames` frames twice — straight from boot, and from a copy of
    /// a kernel deferred to `part`'s first slot — and asserts the two runs
    /// are indistinguishable, recorder on and off. Returns the deferred
    /// prototype.
    fn assert_deferral_transparent(cfg: XmConfig, part: u32, frames: u32) -> XmKernel {
        let n = cfg.partitions.len();
        let mut proto = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
        let mut proto_guests = chatty(n);
        assert!(proto.run_to_first_slot_of(&mut proto_guests, part, None));
        for record in [false, true] {
            let mut fresh = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
            let want = observe(&mut fresh, &mut chatty(n), frames, record);
            // Restored into a kernel that already ran, as a campaign worker does.
            let mut ws = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
            ws.step_major_frames(&mut chatty(n), 2);
            ws.restore_from(&proto);
            let mut guests = proto_guests.try_clone().unwrap();
            assert_eq!(observe(&mut ws, &mut guests, frames, record), want, "record={record}");
        }
        proto
    }

    #[test]
    fn deferred_prefix_resumes_like_a_whole_frame() {
        let proto = assert_deferral_transparent(test_config(), 1, 3);
        // Partition 0's slot ran; the cursor waits at partition 1's.
        assert_eq!(proto.machine.now(), 50_000);
        assert_eq!(proto.next_slot, 1);
        assert_eq!(proto.frames_run, 0);
        assert!(proto.prefix_flight.as_ref().is_some_and(|e| !e.is_empty()));
    }

    #[test]
    fn partition_owning_slot_zero_gets_an_empty_prefix() {
        let proto = assert_deferral_transparent(test_config(), 0, 2);
        assert_eq!(proto.machine.now(), 0);
        assert_eq!(proto.next_slot, 0);
        assert!(proto.prefix_flight.is_none());
    }

    #[test]
    fn partition_without_a_slot_is_not_deferred() {
        let mut cfg = test_config();
        cfg.partitions.push(PartitionCfg {
            id: 2,
            name: "spare".into(),
            system: false,
            mem: vec![MemAreaCfg { base: 0x4030_0000, size: 0x1_0000, perms: Perms::RWX }],
        });
        let mut k = XmKernel::boot(cfg, KernelBuild::Legacy).unwrap();
        assert!(k.run_to_first_slot_of(&mut chatty(3), 2, None));
        assert_eq!((k.machine.now(), k.next_slot), (0, 0));
        assert!(k.prefix_flight.is_none());
        assert_eq!(k.advance_stats(), (0, 0));
    }

    #[test]
    fn prefix_follows_the_current_plan() {
        // Plan 1 reverses the slot order, so partition 0's first slot is
        // second there.
        let mut cfg = test_config();
        let mut plan1 = cfg.plans[0].clone();
        plan1.id = 1;
        plan1.slots[0].partition = 1;
        plan1.slots[1].partition = 0;
        cfg.plans.push(plan1);
        let mut k = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
        let mut guests = chatty(2);
        assert!(k.sched.request_switch(1));
        k.step_major_frames(&mut guests, 1);
        assert_eq!(k.sched.current_plan_id(), 1);
        let fresh = k.clone();
        let fresh_guests = guests.try_clone().unwrap();
        assert!(k.run_to_first_slot_of(&mut guests, 0, None));
        assert_eq!((k.machine.now(), k.next_slot), (150_000, 1));
        for record in [false, true] {
            let mut a = fresh.clone();
            let mut b = k.clone();
            assert_eq!(
                observe(&mut b, &mut guests.try_clone().unwrap(), 2, record),
                observe(&mut a, &mut fresh_guests.try_clone().unwrap(), 2, record),
            );
        }
    }

    #[derive(Clone)]
    struct Halter;

    impl crate::guest::GuestProgram for Halter {
        fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
            let _ = api.hypercall(&RawHypercall::new(HypercallId::HaltSystem, vec![]).unwrap());
        }
    }

    #[test]
    fn prefix_that_halts_the_kernel_is_rejected() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let mut guests = chatty(2);
        guests.set(0, Box::new(Halter));
        assert!(!k.run_to_first_slot_of(&mut guests, 1, None));
        assert!(!k.alive());
    }

    /// A guest that runs `prologue` once per boot, unless the slot was
    /// resumed with the prologue done, then behaves like [`Chatty`].
    #[derive(Clone)]
    struct Booting {
        prologue: fn(&mut PartitionApi<'_>),
        last_boot: Option<u32>,
    }

    impl crate::guest::GuestProgram for Booting {
        fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
            let boot = api.boot_count();
            if self.last_boot != Some(boot) {
                self.last_boot = Some(boot);
                if !api.boot_prologue_done() {
                    (self.prologue)(api);
                    if api.ended().is_some() {
                        return;
                    }
                }
            }
            Chatty.run_slot(api);
        }

        fn clone_boxed(&self) -> Option<Box<dyn crate::guest::GuestProgram>> {
            Some(Box::new(self.clone()))
        }
    }

    fn booting(n: usize, part: u32, prologue: fn(&mut PartitionApi<'_>)) -> GuestSet {
        let mut g = chatty(n);
        g.set(part, Box::new(Booting { prologue, last_boot: None }));
        g
    }

    /// Writes memory, issues a hypercall and burns budget.
    fn busy_prologue(api: &mut PartitionApi<'_>) {
        let base = 0x4010_0000 + api.partition_id() * 0x10_0000;
        let _ = api.write_bytes(base + 0x100, b"prologue");
        let _ = api.hypercall(&RawHypercall::new(HypercallId::GetTime, vec![0, 0]).unwrap());
        api.consume(2_000);
    }

    /// Like [`assert_deferral_transparent`], with `part`'s slot parked
    /// after `prologue` (which must be parkable there).
    fn assert_parking_transparent(
        cfg: XmConfig,
        part: u32,
        prologue: fn(&mut PartitionApi<'_>),
        frames: u32,
    ) -> XmKernel {
        let n = cfg.partitions.len();
        let mut proto = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
        let mut proto_guests = booting(n, part, prologue);
        assert!(proto.run_to_first_slot_of(&mut proto_guests, part, Some(prologue)));
        for record in [false, true] {
            let mut fresh = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
            let want = observe(&mut fresh, &mut booting(n, part, prologue), frames, record);
            let mut ws = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
            ws.step_major_frames(&mut chatty(n), 2);
            ws.restore_from(&proto);
            let mut guests = proto_guests.try_clone().unwrap();
            assert_eq!(observe(&mut ws, &mut guests, frames, record), want, "record={record}");
        }
        proto
    }

    #[test]
    fn parked_prologue_resumes_like_a_whole_frame() {
        let proto = assert_parking_transparent(test_config(), 1, busy_prologue, 3);
        // Partition 0's slot ran and partition 1's was entered: the clock
        // stands at its start, 2 ms of its budget gone.
        assert_eq!(proto.machine.now(), 50_000);
        let consumed = 2_000 + proto.cfg.tuning.hypercall_cost_us;
        assert_eq!((proto.next_slot, proto.parked), (1, Some(consumed)));
        assert_eq!(proto.partition_status(1), Some(PartitionStatus::Running));
        assert_eq!(proto.frames_run, 0);
        // The slot-entry advance happened in the snapshot.
        let fresh = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let mut before = fresh.clone();
        assert!(before.run_to_first_slot_of(&mut chatty(2), 1, None));
        assert_eq!(proto.advance_stats().0, before.advance_stats().0 + 1);
    }

    /// Runs `prologue` as partition 1's boot prologue in a snapshot of
    /// `cfg` and asserts it is refused: the kernel must be discarded, and
    /// a retry without the prologue stops before the slot.
    fn assert_not_parked(cfg: XmConfig, prologue: fn(&mut PartitionApi<'_>)) {
        let mut k = XmKernel::boot(cfg.clone(), KernelBuild::Legacy).unwrap();
        assert!(!k.run_to_first_slot_of(&mut booting(2, 1, prologue), 1, Some(prologue)));
        assert!(!k.slot_parked());
        let retry = assert_deferral_transparent(cfg, 1, 2);
        assert!(!retry.slot_parked());
        assert_eq!(retry.next_slot, 1);
    }

    #[test]
    fn self_halting_prologue_is_not_parked() {
        fn halt_self(api: &mut PartitionApi<'_>) {
            let id = api.partition_id() as u64;
            let _ =
                api.hypercall(&RawHypercall::new(HypercallId::HaltPartition, vec![id]).unwrap());
        }
        // XM_halt_partition is a system service.
        let mut cfg = test_config();
        cfg.partitions[1].system = true;
        assert_not_parked(cfg, halt_self);
    }

    #[test]
    fn kernel_halting_prologue_is_not_parked() {
        fn halt_system(api: &mut PartitionApi<'_>) {
            let _ = api.hypercall(&RawHypercall::new(HypercallId::HaltSystem, vec![]).unwrap());
        }
        let mut cfg = test_config();
        cfg.partitions[1].system = true;
        assert_not_parked(cfg, halt_system);
    }

    #[test]
    fn overrunning_prologue_is_not_parked() {
        fn burn_slot(api: &mut PartitionApi<'_>) {
            let budget = api.budget_us();
            api.consume(budget);
        }
        assert_not_parked(test_config(), burn_slot);
    }

    #[test]
    fn prologue_staging_a_sampling_write_is_not_parked() {
        use crate::config::{ChannelCfg, PortKind};
        fn publish(api: &mut PartitionApi<'_>) {
            let name = 0x4020_0200;
            let msg = 0x4020_0300;
            let _ = api.write_bytes(name, b"S\0");
            let desc = api
                .hypercall(
                    &RawHypercall::new(HypercallId::CreateSamplingPort, vec![name as u64, 8, 0])
                        .unwrap(),
                )
                .unwrap();
            assert!(desc >= 0, "port created");
            let write = vec![desc as u64, msg as u64, 8];
            let _ = api
                .hypercall(&RawHypercall::new(HypercallId::WriteSamplingMessage, write).unwrap());
        }
        let mut cfg = test_config();
        cfg.channels.push(ChannelCfg {
            name: "S".into(),
            kind: PortKind::Sampling,
            max_msg_size: 8,
            max_msgs: 0,
            source: 1,
            destinations: vec![0],
        });
        assert_not_parked(cfg, publish);
    }

    #[test]
    fn prologue_in_slot_zero_is_not_parked() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        assert!(k.run_to_first_slot_of(&mut booting(2, 0, busy_prologue), 0, Some(busy_prologue)));
        // Nothing ran: the kernel is still at boot, and a run from it
        // matches one from a fresh boot.
        assert!(!k.slot_parked());
        assert_eq!((k.machine.now(), k.next_slot, k.advance_stats()), (0, 0, (0, 0)));
        assert!(k.prefix_flight.is_none());
        for record in [false, true] {
            let mut fresh = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
            let want = observe(&mut fresh, &mut booting(2, 0, busy_prologue), 2, record);
            let got = observe(&mut k.clone(), &mut booting(2, 0, busy_prologue), 2, record);
            assert_eq!(got, want, "record={record}");
        }
    }

    #[test]
    fn unschedulable_test_partition_is_not_parked() {
        // Partition 0 suspends partition 1 in the prefix, so partition 1
        // cannot run in its slot: the snapshot stops before that slot.
        #[derive(Clone)]
        struct Suspender;
        impl crate::guest::GuestProgram for Suspender {
            fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
                let _ = api
                    .hypercall(&RawHypercall::new(HypercallId::SuspendPartition, vec![1]).unwrap());
            }
            fn clone_boxed(&self) -> Option<Box<dyn crate::guest::GuestProgram>> {
                Some(Box::new(Suspender))
            }
        }
        let guests = || {
            let mut g = booting(2, 1, busy_prologue);
            g.set(0, Box::new(Suspender));
            g
        };
        let mut proto = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let mut proto_guests = guests();
        assert!(proto.run_to_first_slot_of(&mut proto_guests, 1, Some(busy_prologue)));
        assert_eq!(proto.partition_status(1), Some(PartitionStatus::Suspended));
        assert!(!proto.slot_parked());
        assert_eq!((proto.machine.now(), proto.next_slot), (50_000, 1));
        for record in [false, true] {
            let mut fresh = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
            let want = observe(&mut fresh, &mut guests(), 2, record);
            let mut ws = proto.clone();
            let got = observe(&mut ws, &mut proto_guests.try_clone().unwrap(), 2, record);
            assert_eq!(got, want, "record={record}");
        }
    }

    #[test]
    fn unknown_caller_rejected() {
        let mut k = XmKernel::boot(test_config(), KernelBuild::Legacy).unwrap();
        let hc = RawHypercall::new(HypercallId::GetPlanStatus, vec![0]).unwrap();
        let r = k.hypercall(9, &hc);
        assert_eq!(r.result, HcResult::Ret(XmRet::PermError.code()));
    }
}
