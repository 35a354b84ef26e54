//! The reference oracle (paper Section V).
//!
//! "An automated oracle that can differentiate between a successful and a
//! failed test is only possible if it considers the state of the
//! separation kernel at that moment. This is possible if a logic model of
//! the whole system is available."
//!
//! [`OracleContext`] is that logic model: the reference-manual rules for
//! every hypercall plus the testbed facts needed to evaluate them at the
//! *first invocation* of a test (the deterministic instant fixed by the
//! testbed prologue). For every test dataset it produces an
//! [`Expectation`] — the documented outcome and, for predicted parameter
//! errors, **which parameter** is at fault (`violated_param`), which
//! drives both the fault-masking analysis (Fig. 7) and issue
//! deduplication.
//!
//! The oracle encodes the *documentation*, not the implementation: on the
//! legacy build it still expects `XM_INVALID_PARAM` for an invalid
//! `XM_reset_system` mode or a negative timer interval — that divergence
//! is precisely what the campaign detects. It is build-aware only where
//! the documentation itself changed with the fixes (the 50 µs minimum
//! timer interval; the removal of `XM_multicall`).

use crate::dictionary::ValidityClass;
use xtratum::config::{PortDirection, PortKind};
use xtratum::hypercall::{HypercallId, RawHypercall};
use xtratum::retcode::XmRet;
use xtratum::vuln::KernelBuild;

/// What the reference manual says a call should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedOutcome {
    /// Returns this exact code.
    Ret(XmRet),
    /// Returns this exact (non-negative) value, e.g. a port descriptor.
    RetValue(i32),
    /// Returns some non-negative value.
    RetNonNegative,
    /// Does not return, with this documented effect.
    NoReturn(NoReturnExpect),
}

/// Documented no-return effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoReturnExpect {
    /// The whole system cold-resets.
    SystemColdReset,
    /// The whole system warm-resets.
    SystemWarmReset,
    /// The whole system halts.
    SystemHalt,
    /// The caller halts.
    CallerHalted,
    /// The caller suspends.
    CallerSuspended,
    /// The caller idles to its next slot.
    CallerIdled,
    /// The caller resets.
    CallerReset,
    /// The caller shuts down.
    CallerShutdown,
}

/// The oracle's prediction for one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Documented outcome.
    pub outcome: ExpectedOutcome,
    /// When the outcome is a parameter-validation error: the index of the
    /// first parameter (in the kernel's canonical check order) that fails
    /// validation. `None` for success outcomes and non-parametric errors.
    pub violated_param: Option<usize>,
}

impl Expectation {
    pub(crate) fn ok() -> Self {
        Expectation { outcome: ExpectedOutcome::Ret(XmRet::Ok), violated_param: None }
    }

    pub(crate) fn err(code: XmRet, param: usize) -> Self {
        Expectation { outcome: ExpectedOutcome::Ret(code), violated_param: Some(param) }
    }

    pub(crate) fn err_stateful(code: XmRet) -> Self {
        Expectation { outcome: ExpectedOutcome::Ret(code), violated_param: None }
    }

    pub(crate) fn value(v: i32) -> Self {
        Expectation { outcome: ExpectedOutcome::RetValue(v), violated_param: None }
    }

    pub(crate) fn no_return(e: NoReturnExpect) -> Self {
        Expectation { outcome: ExpectedOutcome::NoReturn(e), violated_param: None }
    }
}

/// A port the test partition owns at first invocation (created by the
/// testbed prologue, in descriptor order).
#[derive(Debug, Clone)]
pub struct PortInfo {
    /// Descriptor number.
    pub desc: i32,
    /// Channel name.
    pub name: String,
    /// Channel discipline.
    pub kind: PortKind,
    /// Caller-side direction.
    pub direction: PortDirection,
    /// Configured maximum message size.
    pub max_msg_size: u32,
    /// Configured queue depth (queuing only).
    pub max_msgs: u32,
    /// Length of the message available to receive/read at first
    /// invocation (`None` = empty).
    pub pending_msg_len: Option<u32>,
}

/// One configured channel, from the test partition's perspective.
#[derive(Debug, Clone)]
pub struct ChannelView {
    /// Channel name.
    pub name: String,
    /// Discipline.
    pub kind: PortKind,
    /// Max message size.
    pub max_msg_size: u32,
    /// Queue depth.
    pub max_msgs: u32,
    /// Test partition is the source.
    pub caller_is_source: bool,
    /// Test partition is a destination.
    pub caller_is_dest: bool,
}

/// The logic model: reference-manual rules + testbed facts.
#[derive(Debug, Clone)]
pub struct OracleContext {
    /// Kernel build under test (documentation revision).
    pub build: KernelBuild,
    /// The test partition id.
    pub caller: u32,
    /// Whether the test partition is a system partition.
    pub caller_is_system: bool,
    /// Number of configured partitions.
    pub partition_count: u32,
    /// Partition names in id order (for `XM_get_gid_by_name`).
    pub partition_names: Vec<String>,
    /// Channels in configuration order.
    pub channels: Vec<ChannelView>,
    /// Valid plan ids.
    pub plan_ids: Vec<u32>,
    /// Memory areas (base, size) the test partition owns.
    pub caller_mem: Vec<(u32, u32)>,
    /// Documented minimum timer interval (µs) — patched manual only.
    pub min_timer_interval: i64,
    /// Ports the prologue created, in descriptor order.
    pub ports: Vec<PortInfo>,
    /// Strings the prologue wrote into caller memory (address → text);
    /// any other readable address holds zeroed memory (empty string).
    pub known_strings: Vec<(u32, String)>,
    /// HM log entries present at first invocation (cursor at 0).
    pub hm_entries_at_first: u32,
    /// Caller's trace records at first invocation.
    pub trace_entries_at_first: u32,
    /// Number of valid SPARC I/O ports.
    pub io_port_count: u32,
}

impl OracleContext {
    /// True if `[addr, addr+len)` lies inside one caller area and `addr`
    /// is `align`-aligned (mirrors the MMU check).
    pub fn accessible(&self, addr: u32, len: u32, align: u32) -> bool {
        if len == 0 {
            return true;
        }
        if align > 1 && !addr.is_multiple_of(align) {
            return false;
        }
        self.caller_mem.iter().any(|&(base, size)| {
            addr >= base && addr as u64 + len as u64 <= base as u64 + size as u64
        })
    }

    /// The string a `read_cstring` of caller memory at `addr` yields
    /// (`None` = the read itself faults).
    pub fn string_at(&self, addr: u32) -> Option<&str> {
        if let Some((_, s)) = self.known_strings.iter().find(|(a, _)| *a == addr) {
            return Some(s);
        }
        if self.accessible(addr, 1, 1) {
            // Unwritten caller memory is zeroed → empty string.
            Some("")
        } else {
            None
        }
    }

    /// The byte the caller's memory holds at `addr` at first invocation:
    /// zero everywhere except inside the strings the prologue wrote.
    pub fn byte_at(&self, addr: u32) -> u8 {
        for (base, s) in &self.known_strings {
            let bytes = s.as_bytes();
            if addr >= *base && ((addr - *base) as usize) < bytes.len() {
                return bytes[(addr - *base) as usize];
            }
        }
        0
    }

    /// The big-endian 32-bit word at `addr` (see [`Self::byte_at`]).
    pub fn word_at(&self, addr: u32) -> u32 {
        u32::from_be_bytes([
            self.byte_at(addr),
            self.byte_at(addr.wrapping_add(1)),
            self.byte_at(addr.wrapping_add(2)),
            self.byte_at(addr.wrapping_add(3)),
        ])
    }

    fn valid_partition(&self, id: i32) -> bool {
        id >= 0 && (id as u32) < self.partition_count
    }

    fn port(&self, desc: i32) -> Option<&PortInfo> {
        if desc < 0 {
            return None;
        }
        self.ports.iter().find(|p| p.desc == desc)
    }

    fn channel(&self, name: &str, kind: PortKind) -> Option<&ChannelView> {
        self.channels.iter().find(|c| c.name == name && c.kind == kind)
    }

    /// Predicts the documented outcome of `hc` at the test's first
    /// invocation.
    pub fn expect(&self, hc: &RawHypercall) -> Expectation {
        use ExpectedOutcome as EO;
        use HypercallId as H;
        use NoReturnExpect as NR;

        // The dispatcher's privilege gate comes first.
        if hc.id.def().system_only && !self.caller_is_system {
            return Expectation { outcome: EO::Ret(XmRet::PermError), violated_param: None };
        }

        let patched = self.build == KernelBuild::Patched;

        match hc.id {
            // --- system management ---
            H::HaltSystem => Expectation::no_return(NR::SystemHalt),
            H::ResetSystem => match hc.arg32(0) {
                0 => Expectation::no_return(NR::SystemColdReset),
                1 => Expectation::no_return(NR::SystemWarmReset),
                _ => Expectation::err(XmRet::InvalidParam, 0),
            },
            H::GetSystemStatus => {
                if self.accessible(hc.arg32(0), 16, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }

            // --- partition management ---
            H::HaltPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if id as u32 == self.caller {
                    Expectation::no_return(NR::CallerHalted)
                } else {
                    Expectation::ok()
                }
            }
            H::ResetPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if hc.arg32(1) > 1 {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if id as u32 == self.caller {
                    Expectation::no_return(NR::CallerReset)
                } else {
                    Expectation::ok()
                }
            }
            H::SuspendPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if id as u32 == self.caller {
                    Expectation::no_return(NR::CallerSuspended)
                } else {
                    Expectation::ok()
                }
            }
            H::ResumePartition => {
                if !self.valid_partition(hc.arg_s32(0)) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    // Nothing is suspended at first invocation.
                    Expectation::err_stateful(XmRet::NoAction)
                }
            }
            H::ShutdownPartition => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if id as u32 == self.caller {
                    Expectation::no_return(NR::CallerShutdown)
                } else {
                    Expectation::ok()
                }
            }
            H::GetPartitionStatus => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if id as u32 != self.caller && !self.caller_is_system {
                    Expectation { outcome: EO::Ret(XmRet::PermError), violated_param: Some(0) }
                } else if self.accessible(hc.arg32(1), 16, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 1)
                }
            }
            H::SetPartitionOpMode => {
                if (0..=3).contains(&hc.arg_s32(0)) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::IdleSelf => Expectation::no_return(NR::CallerIdled),
            H::SuspendSelf => Expectation::no_return(NR::CallerSuspended),
            H::ParamsGetPct => Expectation::ok(),

            // --- time management ---
            H::GetTime => {
                if hc.arg32(0) > 1 {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.accessible(hc.arg32(1), 8, 8) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 1)
                }
            }
            H::SetTimer => {
                let (clock, abs, interval) = (hc.arg32(0), hc.arg_s64(1), hc.arg_s64(2));
                if clock > 1 {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if abs < 0 {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if interval < 0 {
                    // Documented in *both* manuals: intervals are durations.
                    Expectation::err(XmRet::InvalidParam, 2)
                } else if patched && interval > 0 && interval < self.min_timer_interval {
                    // The post-campaign manual adds the 50 µs minimum.
                    Expectation::err(XmRet::InvalidParam, 2)
                } else {
                    Expectation::ok()
                }
            }

            // --- plan management ---
            H::SwitchSchedPlan => {
                let plan = hc.arg_s32(0);
                if plan < 0 || !self.plan_ids.contains(&(plan as u32)) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.accessible(hc.arg32(1), 4, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 1)
                }
            }
            H::GetPlanStatus => {
                if self.accessible(hc.arg32(0), 12, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }

            // --- inter-partition communication ---
            H::CreateSamplingPort => self.expect_create_port(
                hc.arg32(0),
                hc.arg32(1),
                None,
                hc.arg32(2),
                2,
                PortKind::Sampling,
            ),
            H::CreateQueuingPort => self.expect_create_port(
                hc.arg32(0),
                hc.arg32(2),
                Some(hc.arg32(1)),
                hc.arg32(3),
                3,
                PortKind::Queuing,
            ),
            H::WriteSamplingMessage => {
                self.expect_send(hc.arg_s32(0), hc.arg32(1), hc.arg32(2), PortKind::Sampling)
            }
            H::SendQueuingMessage => {
                self.expect_send(hc.arg_s32(0), hc.arg32(1), hc.arg32(2), PortKind::Queuing)
            }
            H::ReadSamplingMessage => {
                let (desc, msg_ptr, size, flags_ptr) =
                    (hc.arg_s32(0), hc.arg32(1), hc.arg32(2), hc.arg32(3));
                let Some(port) = self.port(desc).filter(|p| p.kind == PortKind::Sampling) else {
                    return Expectation::err(XmRet::InvalidParam, 0);
                };
                if size == 0 {
                    return Expectation::err(XmRet::InvalidParam, 2);
                }
                if port.direction != PortDirection::Destination {
                    return Expectation {
                        outcome: EO::Ret(XmRet::OpNotAllowed),
                        violated_param: Some(0),
                    };
                }
                let Some(msg_len) = port.pending_msg_len else {
                    return Expectation::err_stateful(XmRet::NotAvailable);
                };
                let copy_len = size.min(msg_len);
                if !self.accessible(msg_ptr, copy_len, 1) {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if !self.accessible(flags_ptr, 4, 4) {
                    Expectation::err(XmRet::InvalidParam, 3)
                } else {
                    Expectation::ok()
                }
            }
            H::ReceiveQueuingMessage => {
                let (desc, msg_ptr, size, recv_ptr) =
                    (hc.arg_s32(0), hc.arg32(1), hc.arg32(2), hc.arg32(3));
                let Some(port) = self.port(desc).filter(|p| p.kind == PortKind::Queuing) else {
                    return Expectation::err(XmRet::InvalidParam, 0);
                };
                if port.direction != PortDirection::Destination {
                    return Expectation {
                        outcome: EO::Ret(XmRet::OpNotAllowed),
                        violated_param: Some(0),
                    };
                }
                let Some(msg_len) = port.pending_msg_len else {
                    return Expectation::err_stateful(XmRet::NotAvailable);
                };
                if size < msg_len {
                    return Expectation::err(XmRet::InvalidParam, 2);
                }
                if !self.accessible(msg_ptr, msg_len, 1) {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if !self.accessible(recv_ptr, 4, 4) {
                    Expectation::err(XmRet::InvalidParam, 3)
                } else {
                    Expectation::ok()
                }
            }
            H::GetSamplingPortStatus | H::GetQueuingPortStatus => {
                let want = if hc.id == H::GetSamplingPortStatus {
                    PortKind::Sampling
                } else {
                    PortKind::Queuing
                };
                if self.port(hc.arg_s32(0)).filter(|p| p.kind == want).is_none() {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.accessible(hc.arg32(1), 8, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 1)
                }
            }
            H::FlushPort => {
                if self.port(hc.arg_s32(0)).is_some() {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::FlushAllPorts => Expectation::ok(),

            // --- memory management ---
            H::MemoryCopy => {
                let (dst, src, size) = (hc.arg32(0), hc.arg32(1), hc.arg32(2));
                if size == 0 {
                    Expectation::err_stateful(XmRet::NoAction)
                } else if !self.accessible(src, size, 1) {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if !self.accessible(dst, size, 1) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    Expectation::ok()
                }
            }
            H::UpdatePage32 => {
                if self.accessible(hc.arg32(0), 4, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }

            // --- health monitor management ---
            H::HmOpen => Expectation::ok(),
            H::HmRead => {
                let n = (hc.arg32(1) as u64).min(self.hm_entries_at_first as u64) as u32;
                if n == 0 {
                    Expectation::value(0)
                } else if self.accessible(hc.arg32(0), n * 16, 4) {
                    Expectation::value(n as i32)
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::HmSeek => {
                let (offset, whence) = (hc.arg_s32(0) as i64, hc.arg32(1));
                if whence > 2 {
                    return Expectation::err(XmRet::InvalidParam, 1);
                }
                let len = self.hm_entries_at_first as i64;
                let base = match whence {
                    0 => 0,
                    1 => 0, // cursor is 0 at first invocation
                    _ => len,
                };
                match base.checked_add(offset) {
                    Some(t) if (0..=len).contains(&t) => Expectation::ok(),
                    _ => Expectation::err(XmRet::InvalidParam, 0),
                }
            }
            H::HmStatus => {
                if self.accessible(hc.arg32(0), 16, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::HmRaiseEvent => Expectation::ok(),

            // --- trace management ---
            H::TraceOpen => {
                let id = hc.arg_s32(0);
                if !self.valid_partition(id) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if id as u32 != self.caller && !self.caller_is_system {
                    Expectation { outcome: EO::Ret(XmRet::PermError), violated_param: Some(0) }
                } else {
                    Expectation::value(id)
                }
            }
            H::TraceEvent => {
                if hc.arg32(0) == 0 {
                    Expectation::err_stateful(XmRet::NoAction)
                } else if self.accessible(hc.arg32(1), 4, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 1)
                }
            }
            H::TraceRead => {
                let td = hc.arg_s32(0);
                if !self.valid_partition(td) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if td as u32 != self.caller && !self.caller_is_system {
                    Expectation { outcome: EO::Ret(XmRet::PermError), violated_param: Some(0) }
                } else if !self.accessible(hc.arg32(1), 16, 4) {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else {
                    // All trace streams are empty at first invocation
                    // (OBSW guests do not trace).
                    Expectation::err_stateful(XmRet::NotAvailable)
                }
            }
            H::TraceSeek => {
                let (td, offset, whence) = (hc.arg_s32(0), hc.arg_s32(1) as i64, hc.arg32(2));
                if !self.valid_partition(td) {
                    return Expectation::err(XmRet::InvalidParam, 0);
                }
                if td as u32 != self.caller && !self.caller_is_system {
                    return Expectation {
                        outcome: EO::Ret(XmRet::PermError),
                        violated_param: Some(0),
                    };
                }
                if whence > 2 {
                    return Expectation::err(XmRet::InvalidParam, 2);
                }
                let len = self.trace_entries_at_first as i64;
                let base = match whence {
                    0 | 1 => 0,
                    _ => len,
                };
                match base.checked_add(offset) {
                    Some(t) if (0..=len).contains(&t) => Expectation::ok(),
                    _ => Expectation::err(XmRet::InvalidParam, 1),
                }
            }
            H::TraceStatus => {
                let td = hc.arg_s32(0);
                if !self.valid_partition(td) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if td as u32 != self.caller && !self.caller_is_system {
                    Expectation { outcome: EO::Ret(XmRet::PermError), violated_param: Some(0) }
                } else if self.accessible(hc.arg32(1), 12, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 1)
                }
            }

            // --- interrupt management ---
            H::ClearIrqMask | H::SetIrqMask | H::SetIrqPend => {
                if xtratum::irq::hw_mask_valid(hc.arg32(0)) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::RouteIrq => {
                let (ty, irq, vector) = (hc.arg32(0), hc.arg32(1), hc.arg32(2));
                if ty > 1 {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if vector > 255 {
                    Expectation::err(XmRet::InvalidParam, 2)
                } else {
                    let ok = match ty {
                        0 => (1..=15).contains(&irq),
                        _ => irq < 32,
                    };
                    if ok {
                        Expectation::ok()
                    } else {
                        Expectation::err(XmRet::InvalidParam, 1)
                    }
                }
            }
            H::DisableIrqs => Expectation::ok(),

            // --- miscellaneous ---
            H::Multicall => {
                if patched {
                    // "This service has been temporarily removed."
                    return Expectation::err_stateful(XmRet::UnknownHypercall);
                }
                let (start, end) = (hc.arg32(0), hc.arg32(1));
                if end < start {
                    return Expectation::err_stateful(XmRet::InvalidParam);
                }
                let entries = (end - start) / 8;
                if entries == 0 {
                    return Expectation::ok();
                }
                if !self.accessible(start, 8, 8) {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if !self.accessible(start, entries * 8, 8) {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else {
                    Expectation::ok()
                }
            }
            H::FlushCache => {
                let mask = hc.arg32(0);
                if mask == 0 {
                    Expectation::err_stateful(XmRet::NoAction)
                } else if mask & !0x3 != 0 {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    Expectation::ok()
                }
            }
            H::SetCacheState => {
                if hc.arg32(0) & !0x3 != 0 {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    Expectation::ok()
                }
            }
            H::GetGidByName => {
                let (name_ptr, entity) = (hc.arg32(0), hc.arg32(1));
                if entity > 1 {
                    return Expectation::err(XmRet::InvalidParam, 1);
                }
                let Some(name) = self.string_at(name_ptr) else {
                    return Expectation::err(XmRet::InvalidParam, 0);
                };
                let found = match entity {
                    0 => self.partition_names.iter().position(|n| *n == name),
                    _ => self.channels.iter().position(|c| c.name == name),
                };
                match found {
                    Some(i) => Expectation::value(i as i32),
                    None => Expectation::err(XmRet::InvalidConfig, 0),
                }
            }
            H::WriteConsole => {
                let (ptr, len) = (hc.arg32(0), hc.arg_s32(1));
                if !(0..=1024).contains(&len) {
                    Expectation::err(XmRet::InvalidParam, 1)
                } else if len == 0 {
                    Expectation::err_stateful(XmRet::NoAction)
                } else if self.accessible(ptr, len as u32, 1) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }

            // --- SPARC V8 specific ---
            H::SparcAtomicAdd | H::SparcAtomicAnd | H::SparcAtomicOr => {
                if self.accessible(hc.arg32(0), 4, 4) {
                    // The service returns the previous word at the target
                    // address — zero except inside prologue-written data.
                    Expectation::value(self.word_at(hc.arg32(0)) as i32)
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::SparcInPort => {
                if hc.arg32(0) >= self.io_port_count {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else if self.accessible(hc.arg32(1), 4, 4) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 1)
                }
            }
            H::SparcOutPort => {
                if hc.arg32(0) >= self.io_port_count {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    Expectation::ok()
                }
            }
            H::SparcGetPsr => Expectation { outcome: EO::RetNonNegative, violated_param: None },
            H::SparcSetPsr => Expectation::ok(),
            H::SparcEnableTraps | H::SparcDisableTraps => Expectation::ok(),
            H::SparcSetPil => {
                if hc.arg32(0) > 15 {
                    Expectation::err(XmRet::InvalidParam, 0)
                } else {
                    Expectation::ok()
                }
            }
            H::SparcAckIrq => {
                if (1..=15).contains(&hc.arg32(0)) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
            H::SparcIFlush => {
                let (addr, size) = (hc.arg32(0), hc.arg32(1));
                if size == 0 {
                    Expectation::err_stateful(XmRet::NoAction)
                } else if self.accessible(addr, size, 1) {
                    Expectation::ok()
                } else {
                    Expectation::err(XmRet::InvalidParam, 0)
                }
            }
        }
    }

    fn expect_create_port(
        &self,
        name_ptr: u32,
        max_msg_size: u32,
        max_msgs: Option<u32>,
        direction: u32,
        dir_param: usize,
        kind: PortKind,
    ) -> Expectation {
        let Some(name) = self.string_at(name_ptr) else {
            return Expectation::err(XmRet::InvalidParam, 0);
        };
        if direction > 1 {
            return Expectation::err(XmRet::InvalidParam, dir_param);
        }
        let dir = if direction == 0 { PortDirection::Source } else { PortDirection::Destination };
        let Some(ch) = self.channel(name, kind) else {
            return Expectation::err(XmRet::InvalidConfig, 0);
        };
        if !ch.caller_is_source && !ch.caller_is_dest {
            return Expectation {
                outcome: ExpectedOutcome::Ret(XmRet::PermError),
                violated_param: Some(0),
            };
        }
        match dir {
            PortDirection::Source if !ch.caller_is_source => {
                return Expectation {
                    outcome: ExpectedOutcome::Ret(XmRet::OpNotAllowed),
                    violated_param: Some(dir_param),
                };
            }
            PortDirection::Destination if !ch.caller_is_dest => {
                return Expectation {
                    outcome: ExpectedOutcome::Ret(XmRet::OpNotAllowed),
                    violated_param: Some(dir_param),
                };
            }
            _ => {}
        }
        if max_msg_size != ch.max_msg_size {
            let size_param = if kind == PortKind::Sampling { 1 } else { 2 };
            return Expectation::err(XmRet::InvalidConfig, size_param);
        }
        if let Some(n) = max_msgs {
            if n != ch.max_msgs {
                return Expectation::err(XmRet::InvalidConfig, 1);
            }
        }
        // The prologue already created every port the test partition is
        // entitled to, so a fully valid request is a duplicate.
        if self.ports.iter().any(|p| p.name == name && p.direction == dir) {
            Expectation::err_stateful(XmRet::NoAction)
        } else {
            Expectation { outcome: ExpectedOutcome::RetNonNegative, violated_param: None }
        }
    }

    fn expect_send(&self, desc: i32, msg_ptr: u32, size: u32, kind: PortKind) -> Expectation {
        let Some(port) = self.port(desc).filter(|p| p.kind == kind) else {
            return Expectation::err(XmRet::InvalidParam, 0);
        };
        if size == 0 || size > port.max_msg_size {
            return Expectation::err(XmRet::InvalidParam, 2);
        }
        if !self.accessible(msg_ptr, size, 1) {
            return Expectation::err(XmRet::InvalidParam, 1);
        }
        if port.direction != PortDirection::Source {
            return Expectation {
                outcome: ExpectedOutcome::Ret(XmRet::OpNotAllowed),
                violated_param: Some(0),
            };
        }
        // Outbound channels are empty at first invocation → never full.
        Expectation::ok()
    }

    /// Classifies the responsible-parameter signature for issue grouping:
    /// invalid pointers collapse into one class per parameter position;
    /// scalar values are their own class.
    pub fn param_signature(
        &self,
        expectation: &Expectation,
        dataset: &[crate::dictionary::TestValue],
    ) -> Option<(usize, ParamClass)> {
        let idx = expectation.violated_param?;
        let v = dataset.get(idx)?;
        Some((
            idx,
            if v.vclass == ValidityClass::InvalidPointer {
                ParamClass::InvalidPointer
            } else {
                ParamClass::Value(v.raw)
            },
        ))
    }
}

/// Equivalence class of a responsible parameter's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamClass {
    /// Any invalid pointer (NULL, unaligned, foreign, unmapped).
    InvalidPointer,
    /// This specific scalar value.
    Value(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::TestValue;

    fn ctx(build: KernelBuild) -> OracleContext {
        OracleContext {
            build,
            caller: 0,
            caller_is_system: true,
            partition_count: 5,
            partition_names: vec![
                "FDIR".into(),
                "AOCS".into(),
                "PAYLOAD".into(),
                "TMTC".into(),
                "HK".into(),
            ],
            channels: vec![
                ChannelView {
                    name: "GyroData".into(),
                    kind: PortKind::Sampling,
                    max_msg_size: 16,
                    max_msgs: 0,
                    caller_is_source: false,
                    caller_is_dest: true,
                },
                ChannelView {
                    name: "TmQueue".into(),
                    kind: PortKind::Queuing,
                    max_msg_size: 32,
                    max_msgs: 4,
                    caller_is_source: true,
                    caller_is_dest: false,
                },
            ],
            plan_ids: vec![0, 1],
            caller_mem: vec![(0x4010_0000, 0x1_0000)],
            min_timer_interval: 50,
            ports: vec![
                PortInfo {
                    desc: 0,
                    name: "GyroData".into(),
                    kind: PortKind::Sampling,
                    direction: PortDirection::Destination,
                    max_msg_size: 16,
                    max_msgs: 0,
                    pending_msg_len: Some(16),
                },
                PortInfo {
                    desc: 1,
                    name: "TmQueue".into(),
                    kind: PortKind::Queuing,
                    direction: PortDirection::Source,
                    max_msg_size: 32,
                    max_msgs: 4,
                    pending_msg_len: None,
                },
            ],
            known_strings: vec![(0x4010_9000, "GyroData".into())],
            hm_entries_at_first: 1,
            trace_entries_at_first: 0,
            io_port_count: 4,
        }
    }

    fn hc(id: HypercallId, args: Vec<u64>) -> RawHypercall {
        RawHypercall::new_unchecked(id, args)
    }

    const SCRATCH: u64 = 0x4010_8000;

    #[test]
    fn reset_system_documented_outcomes() {
        let o = ctx(KernelBuild::Legacy);
        assert_eq!(
            o.expect(&hc(HypercallId::ResetSystem, vec![0])).outcome,
            ExpectedOutcome::NoReturn(NoReturnExpect::SystemColdReset)
        );
        assert_eq!(
            o.expect(&hc(HypercallId::ResetSystem, vec![1])).outcome,
            ExpectedOutcome::NoReturn(NoReturnExpect::SystemWarmReset)
        );
        // The manual never allowed mode 2 — even on the legacy build.
        let e = o.expect(&hc(HypercallId::ResetSystem, vec![2]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));
        assert_eq!(e.violated_param, Some(0));
    }

    #[test]
    fn set_timer_documentation_revisions() {
        let legacy = ctx(KernelBuild::Legacy);
        let patched = ctx(KernelBuild::Patched);
        // 1 µs: legal per the pre-fix manual, rejected by the revised one.
        assert_eq!(
            legacy.expect(&hc(HypercallId::SetTimer, vec![0, 1, 1])).outcome,
            ExpectedOutcome::Ret(XmRet::Ok)
        );
        assert_eq!(
            patched.expect(&hc(HypercallId::SetTimer, vec![0, 1, 1])).outcome,
            ExpectedOutcome::Ret(XmRet::InvalidParam)
        );
        // Negative intervals: documented invalid in both revisions.
        for o in [&legacy, &patched] {
            let e = o.expect(&hc(HypercallId::SetTimer, vec![0, 1, i64::MIN as u64]));
            assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));
            assert_eq!(e.violated_param, Some(2));
        }
        // 50 µs is fine everywhere.
        assert_eq!(
            patched.expect(&hc(HypercallId::SetTimer, vec![1, 1, 50])).outcome,
            ExpectedOutcome::Ret(XmRet::Ok)
        );
        // bad clock dominates
        assert_eq!(
            legacy.expect(&hc(HypercallId::SetTimer, vec![7, 1, 1])).violated_param,
            Some(0)
        );
    }

    #[test]
    fn multicall_documentation_revisions() {
        let legacy = ctx(KernelBuild::Legacy);
        let patched = ctx(KernelBuild::Patched);
        let b0 = 0x4010_4000u64;
        let b1 = 0x4010_8000u64;
        assert_eq!(
            legacy.expect(&hc(HypercallId::Multicall, vec![b0, b1])).outcome,
            ExpectedOutcome::Ret(XmRet::Ok)
        );
        let e = legacy.expect(&hc(HypercallId::Multicall, vec![0, b1]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));
        assert_eq!(e.violated_param, Some(0));
        let e = legacy.expect(&hc(HypercallId::Multicall, vec![b0, 0xFFFF_FFFC]));
        assert_eq!(e.violated_param, Some(1));
        // empty ranges are fine
        assert_eq!(
            legacy.expect(&hc(HypercallId::Multicall, vec![0, 0])).outcome,
            ExpectedOutcome::Ret(XmRet::Ok)
        );
        // removed on the patched build
        assert_eq!(
            patched.expect(&hc(HypercallId::Multicall, vec![b0, b1])).outcome,
            ExpectedOutcome::Ret(XmRet::UnknownHypercall)
        );
    }

    #[test]
    fn ipc_expectations_respect_prologue_state() {
        let o = ctx(KernelBuild::Legacy);
        // Reading the gyro port with valid pointers succeeds (a sample is
        // pending at first invocation).
        let e = o.expect(&hc(HypercallId::ReadSamplingMessage, vec![0, SCRATCH, 16, SCRATCH + 64]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        // Writing on the same port violates its direction.
        let e = o.expect(&hc(HypercallId::WriteSamplingMessage, vec![0, SCRATCH, 16]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::OpNotAllowed));
        // Bad descriptor dominates everything.
        let e = o.expect(&hc(HypercallId::WriteSamplingMessage, vec![(-1i32) as u32 as u64, 0, 0]));
        assert_eq!(e.violated_param, Some(0));
        // Sending on the TM queue works.
        let e = o.expect(&hc(HypercallId::SendQueuingMessage, vec![1, SCRATCH, 16]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        // Creating an already-created port is a no-action.
        let e = o.expect(&hc(HypercallId::CreateSamplingPort, vec![0x4010_9000, 16, 1]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::NoAction));
        // Wrong geometry is an invalid-config with the size parameter blamed.
        let e = o.expect(&hc(HypercallId::CreateSamplingPort, vec![0x4010_9000, 8, 1]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidConfig));
        assert_eq!(e.violated_param, Some(1));
    }

    #[test]
    fn accessibility_model() {
        let o = ctx(KernelBuild::Legacy);
        assert!(o.accessible(0x4010_0000, 0x1_0000, 4));
        assert!(!o.accessible(0x4010_FFFC, 8, 4)); // crosses the end
        assert!(!o.accessible(0x4000_1000, 4, 4)); // kernel space
        assert!(!o.accessible(2, 4, 4)); // misaligned
        assert!(o.accessible(0, 0, 4)); // empty never faults
        assert_eq!(o.string_at(0x4010_9000), Some("GyroData"));
        assert_eq!(o.string_at(SCRATCH as u32), Some(""));
        assert_eq!(o.string_at(3), None);
    }

    #[test]
    fn param_signature_grouping() {
        let o = ctx(KernelBuild::Legacy);
        let e = Expectation::err(XmRet::InvalidParam, 0);
        let ds = vec![TestValue::bad_ptr(0, "NULL"), TestValue::good_ptr(1, "V")];
        assert_eq!(o.param_signature(&e, &ds), Some((0, ParamClass::InvalidPointer)));
        let ds2 = vec![TestValue::scalar(16), TestValue::good_ptr(1, "V")];
        assert_eq!(o.param_signature(&e, &ds2), Some((0, ParamClass::Value(16))));
        assert_eq!(o.param_signature(&Expectation::ok(), &ds), None);
    }

    #[test]
    fn hm_read_counts() {
        let o = ctx(KernelBuild::Legacy);
        assert_eq!(
            o.expect(&hc(HypercallId::HmRead, vec![SCRATCH, 0])).outcome,
            ExpectedOutcome::RetValue(0)
        );
        assert_eq!(
            o.expect(&hc(HypercallId::HmRead, vec![SCRATCH, 5])).outcome,
            ExpectedOutcome::RetValue(1)
        );
        assert_eq!(
            o.expect(&hc(HypercallId::HmRead, vec![0, 5])).outcome,
            ExpectedOutcome::Ret(XmRet::InvalidParam)
        );
    }

    #[test]
    fn receive_queuing_check_order() {
        let o = ctx(KernelBuild::Legacy);
        // port 1 is the outbound TM queue: receiving violates direction.
        let e =
            o.expect(&hc(HypercallId::ReceiveQueuingMessage, vec![1, SCRATCH, 32, SCRATCH + 64]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::OpNotAllowed));
        // sampling descriptor on the queuing service: bad descriptor.
        let e =
            o.expect(&hc(HypercallId::ReceiveQueuingMessage, vec![0, SCRATCH, 32, SCRATCH + 64]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));
        assert_eq!(e.violated_param, Some(0));
    }

    #[test]
    fn send_queuing_on_empty_outbound_queue_succeeds() {
        let o = ctx(KernelBuild::Legacy);
        let e = o.expect(&hc(HypercallId::SendQueuingMessage, vec![1, SCRATCH, 32]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::Ok));
        // zero and oversized message sizes blame the size parameter
        for size in [0u64, 33] {
            let e = o.expect(&hc(HypercallId::SendQueuingMessage, vec![1, SCRATCH, size]));
            assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidParam), "size {size}");
            assert_eq!(e.violated_param, Some(2));
        }
        // unreadable message pointer blames the pointer parameter
        let e = o.expect(&hc(HypercallId::SendQueuingMessage, vec![1, 0, 32]));
        assert_eq!(e.violated_param, Some(1));
    }

    #[test]
    fn trace_services_respect_permissions_and_emptiness() {
        let mut o = ctx(KernelBuild::Legacy);
        // system partition may open any stream
        assert_eq!(
            o.expect(&hc(HypercallId::TraceOpen, vec![3])).outcome,
            ExpectedOutcome::RetValue(3)
        );
        // empty streams make reads not-available (after the pointer check)
        let e = o.expect(&hc(HypercallId::TraceRead, vec![0, SCRATCH]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::NotAvailable));
        let e = o.expect(&hc(HypercallId::TraceRead, vec![0, 0]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));
        assert_eq!(e.violated_param, Some(1));
        // normal partitions cannot read foreign streams
        o.caller_is_system = false;
        let e = o.expect(&hc(HypercallId::TraceRead, vec![3, SCRATCH]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::PermError));
    }

    #[test]
    fn trace_seek_range_with_empty_stream() {
        let o = ctx(KernelBuild::Legacy);
        // only offset 0 is in range when the stream is empty
        assert_eq!(
            o.expect(&hc(HypercallId::TraceSeek, vec![0, 0, 0])).outcome,
            ExpectedOutcome::Ret(XmRet::Ok)
        );
        let e = o.expect(&hc(HypercallId::TraceSeek, vec![0, 1, 0]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::InvalidParam));
        assert_eq!(e.violated_param, Some(1));
        // bad whence is detected before the offset
        let e = o.expect(&hc(HypercallId::TraceSeek, vec![0, 99, 16]));
        assert_eq!(e.violated_param, Some(2));
    }

    #[test]
    fn hm_seek_honours_the_single_boot_event() {
        let o = ctx(KernelBuild::Legacy); // hm_entries_at_first = 1
        for (offset, whence, ok) in [
            (0i64, 0u32, true),
            (1, 0, true),
            (2, 0, false),
            (-1, 2, true),
            (1, 2, false),
            (-2, 2, false),
            (0, 3, false),
        ] {
            let e = o.expect(&hc(HypercallId::HmSeek, vec![offset as u64, whence as u64]));
            let want = if ok {
                ExpectedOutcome::Ret(XmRet::Ok)
            } else {
                ExpectedOutcome::Ret(XmRet::InvalidParam)
            };
            assert_eq!(e.outcome, want, "seek({offset},{whence})");
        }
    }

    #[test]
    fn memory_copy_blames_source_before_destination() {
        let o = ctx(KernelBuild::Legacy);
        let e = o.expect(&hc(HypercallId::MemoryCopy, vec![0, 0, 16]));
        assert_eq!(e.violated_param, Some(1), "source is checked first");
        let e = o.expect(&hc(HypercallId::MemoryCopy, vec![0, SCRATCH, 16]));
        assert_eq!(e.violated_param, Some(0));
        assert_eq!(
            o.expect(&hc(HypercallId::MemoryCopy, vec![SCRATCH, SCRATCH + 64, 0])).outcome,
            ExpectedOutcome::Ret(XmRet::NoAction)
        );
    }

    #[test]
    fn word_at_models_prologue_strings() {
        let o = ctx(KernelBuild::Legacy);
        // "GyroData" at 0x4010_9000, big-endian words
        assert_eq!(o.word_at(0x4010_9000), u32::from_be_bytes(*b"Gyro"));
        assert_eq!(o.word_at(0x4010_9004), u32::from_be_bytes(*b"Data"));
        // past the string: zeroed
        assert_eq!(o.word_at(0x4010_9008), 0);
        assert_eq!(o.word_at(SCRATCH as u32), 0);
        // straddling the string end mixes bytes and zeros
        assert_eq!(o.word_at(0x4010_9006), u32::from_be_bytes([b't', b'a', 0, 0]));
    }

    #[test]
    fn permission_gate_for_normal_partitions() {
        let mut o = ctx(KernelBuild::Legacy);
        o.caller_is_system = false;
        let e = o.expect(&hc(HypercallId::ResetSystem, vec![0]));
        assert_eq!(e.outcome, ExpectedOutcome::Ret(XmRet::PermError));
    }
}
