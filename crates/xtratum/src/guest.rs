//! Guest programs and the partition-side API.
//!
//! Partition code is modelled as a [`GuestProgram`]: once per scheduling
//! slot the kernel calls `run_slot` with a [`PartitionApi`], through which
//! the guest consumes simulated execution time, touches its own memory
//! (with full spatial-isolation checking) and issues hypercalls. This is
//! the IMA-testbed analogue of the paper's XAL single-threaded C runtime.

use crate::hm::HmEventKind;
use crate::hypercall::RawHypercall;
use crate::kernel::{HcResult, NoReturnKind, XmKernel};
use crate::partition::PartitionStatus;
use leon3_sim::addrspace::AccessCtx;
use leon3_sim::TimeUs;

/// Result of consuming execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceState {
    /// Budget remains in the current slot.
    Running,
    /// The slot budget is exhausted; a well-behaved guest returns from
    /// `run_slot` now (continuing to consume is a temporal violation the
    /// HM will flag).
    Expired,
}

/// Partition application code.
pub trait GuestProgram: Send {
    /// Executes one scheduling slot. The guest should return when its
    /// work is done or when [`PartitionApi::consume`] reports
    /// [`SliceState::Expired`].
    fn run_slot(&mut self, api: &mut PartitionApi<'_>);

    /// A deep copy of this guest in its current state, if the guest type
    /// supports it. Cloneable nominal guests are what make testbed boot
    /// snapshots possible: the executor boots once, then clones the
    /// booted `(kernel, guests)` pair per test instead of re-booting.
    /// Guests that close over non-cloneable state (e.g. boxed closures)
    /// keep the default `None`, and the executor falls back to a fresh
    /// boot.
    fn clone_boxed(&self) -> Option<Box<dyn GuestProgram>> {
        None
    }

    /// Downcast hook. Guests that carry state the host harness wants to
    /// take back after a run (e.g. an invocation log owned by the guest
    /// rather than behind a shared lock) return `Some(self)` here; the
    /// harness recovers the concrete type with `Any::downcast_mut`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Immutable downcast hook, used by [`GuestProgram::restore_from`]
    /// to recover the restore source's concrete type.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Restores this guest to `src`'s state in place, when `src` is the
    /// same concrete type. Returning `false` (the default) means in-place
    /// restore is unsupported or the types differ; the caller falls back
    /// to [`GuestProgram::clone_boxed`]. Restorable guests are what keep
    /// the campaign executor's per-test reset allocation-free: the worker
    /// rewinds its persistent guest set instead of re-boxing five guests
    /// per test.
    fn restore_from(&mut self, _src: &dyn GuestProgram) -> bool {
        false
    }
}

/// A guest that does nothing (unconfigured partitions).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleGuest;

impl GuestProgram for IdleGuest {
    fn run_slot(&mut self, _api: &mut PartitionApi<'_>) {}

    fn clone_boxed(&self) -> Option<Box<dyn GuestProgram>> {
        Some(Box::new(IdleGuest))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn restore_from(&mut self, src: &dyn GuestProgram) -> bool {
        src.as_any().is_some_and(|a| a.is::<IdleGuest>())
    }
}

/// The set of guest programs, indexed by partition id.
pub struct GuestSet {
    guests: Vec<Box<dyn GuestProgram>>,
}

impl GuestSet {
    /// Creates a set of `n` idle guests.
    pub fn idle(n: usize) -> Self {
        GuestSet { guests: (0..n).map(|_| Box::new(IdleGuest) as Box<dyn GuestProgram>).collect() }
    }

    /// Number of partitions covered.
    pub fn len(&self) -> usize {
        self.guests.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.guests.is_empty()
    }

    /// Installs the guest for partition `id`.
    pub fn set(&mut self, id: u32, guest: Box<dyn GuestProgram>) {
        let idx = id as usize;
        assert!(idx < self.guests.len(), "partition {id} out of range");
        self.guests[idx] = guest;
    }

    /// Runs partition `id`'s guest for one slot.
    pub fn run_slot(&mut self, id: u32, api: &mut PartitionApi<'_>) {
        if let Some(g) = self.guests.get_mut(id as usize) {
            g.run_slot(api);
        }
    }

    /// Mutable access to partition `id`'s guest, for post-run state
    /// recovery via [`GuestProgram::as_any_mut`].
    pub fn get_mut(&mut self, id: u32) -> Option<&mut (dyn GuestProgram + 'static)> {
        self.guests.get_mut(id as usize).map(|b| b.as_mut())
    }

    /// A deep copy of the whole set, or `None` if any guest does not
    /// implement [`GuestProgram::clone_boxed`].
    pub fn try_clone(&self) -> Option<GuestSet> {
        let mut guests = Vec::with_capacity(self.guests.len());
        for g in &self.guests {
            guests.push(g.clone_boxed()?);
        }
        Some(GuestSet { guests })
    }

    /// Restores every guest to `proto`'s state in place. Guests that
    /// support [`GuestProgram::restore_from`] rewind without touching the
    /// heap; the rest are re-boxed from `proto` via
    /// [`GuestProgram::clone_boxed`]. `skip` names a partition whose slot
    /// the caller will overwrite immediately (the campaign executor's
    /// test partition, which receives a fresh mutant each test) — its
    /// stale guest is left alone rather than pointlessly rebuilt.
    ///
    /// Returns `false` if the sets differ in size or a non-restorable
    /// guest is also non-cloneable; the set may then be partially
    /// restored and should be discarded.
    pub fn restore_from(&mut self, proto: &GuestSet, skip: Option<u32>) -> bool {
        if self.guests.len() != proto.guests.len() {
            return false;
        }
        for (i, (g, p)) in self.guests.iter_mut().zip(&proto.guests).enumerate() {
            if skip == Some(i as u32) {
                continue;
            }
            if !g.restore_from(p.as_ref()) {
                match p.clone_boxed() {
                    Some(fresh) => *g = fresh,
                    None => return false,
                }
            }
        }
        true
    }
}

/// The API a guest sees while scheduled.
pub struct PartitionApi<'k> {
    kern: &'k mut XmKernel,
    part: u32,
    budget_us: u64,
    consumed_us: u64,
    ended: Option<NoReturnKind>,
    prologue_done: bool,
}

impl<'k> PartitionApi<'k> {
    pub(crate) fn new(kern: &'k mut XmKernel, part: u32, budget_us: u64) -> Self {
        PartitionApi { kern, part, budget_us, consumed_us: 0, ended: None, prologue_done: false }
    }

    /// The API of a parked slot resuming: the boot prologue has already
    /// used `consumed_us` of the budget (see
    /// [`XmKernel::run_to_first_slot_of`]).
    pub(crate) fn resumed(
        kern: &'k mut XmKernel,
        part: u32,
        budget_us: u64,
        consumed_us: u64,
    ) -> Self {
        PartitionApi { kern, part, budget_us, consumed_us, ended: None, prologue_done: true }
    }

    /// True in a slot resumed from a boot snapshot that already ran this
    /// boot's prologue in it (see [`XmKernel::run_to_first_slot_of`]). A
    /// guest that sees a new [`boot_count`](Self::boot_count) here records
    /// the boot as seen and skips its prologue; everywhere else this is
    /// false and the guest runs the prologue itself.
    pub fn boot_prologue_done(&self) -> bool {
        self.prologue_done
    }

    /// This partition's id.
    pub fn partition_id(&self) -> u32 {
        self.part
    }

    /// Slot budget (µs).
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    /// Execution time consumed so far in this slot (µs).
    pub fn consumed_us(&self) -> u64 {
        self.consumed_us
    }

    /// Remaining budget, zero once expired.
    pub fn remaining_us(&self) -> u64 {
        self.budget_us.saturating_sub(self.consumed_us)
    }

    /// Set once the caller can no longer run (self-halt, suspension,
    /// system reset, HM containment, simulator death...).
    pub fn ended(&self) -> Option<NoReturnKind> {
        self.ended
    }

    /// Wall-clock time as seen by the guest (slot entry time plus
    /// consumed execution time).
    pub fn now_us(&self) -> TimeUs {
        self.kern.machine.now() + self.consumed_us
    }

    /// How many times this partition has been (re)booted — the partition
    /// reset counter. Guests use this to re-run their initialisation
    /// after a partition or system reset.
    pub fn boot_count(&self) -> u32 {
        self.kern
            .partition_status(self.part)
            .map(|_| self.kern.parts[self.part as usize].reset_count)
            .unwrap_or(0)
    }

    /// Pending virtual interrupts (bitmask; bit 0 = timer expiry, bit 1 =
    /// shutdown request, higher bits = extended interrupts).
    pub fn pending_virqs(&self) -> u32 {
        self.kern.pending_virqs(self.part)
    }

    /// Acknowledges (clears) the given virtual interrupts; returns the
    /// mask of interrupts that were actually pending.
    pub fn ack_virqs(&mut self, mask: u32) -> u32 {
        self.kern.ack_virqs(self.part, mask)
    }

    /// Burns `us` of execution time.
    pub fn consume(&mut self, us: u64) -> SliceState {
        self.consumed_us += us;
        self.kern.charge_exec(self.part, us);
        if self.consumed_us >= self.budget_us {
            SliceState::Expired
        } else {
            SliceState::Running
        }
    }

    /// Issues a hypercall. `Err` means the call did not return to the
    /// caller (the slot is over for this guest).
    pub fn hypercall(&mut self, hc: &RawHypercall) -> Result<i32, NoReturnKind> {
        if let Some(k) = self.ended {
            return Err(k);
        }
        // Hypercall spans use guest virtual time (`now_us`): machine time
        // is frozen during a slot, so only entry time + consumed budget
        // yields monotone, non-overlapping enter/exit pairs.
        flightrec::record(
            self.now_us(),
            flightrec::EventKind::HypercallEnter,
            self.part as u16,
            hc.id as u32,
            hc.arg32(0) as u64,
            hc.arg32(1) as u64,
        );
        let resp = self.kern.hypercall(self.part, hc);
        self.consumed_us += resp.cost_us;
        self.kern.charge_exec(self.part, resp.cost_us);
        let out = match resp.result {
            HcResult::Ret(code) => Ok(code),
            HcResult::NoReturn(kind) => {
                self.ended = Some(kind);
                Err(kind)
            }
        };
        if flightrec::active() {
            let encoded = match &out {
                Ok(code) => flightrec::encode_return(*code),
                Err(kind) => flightrec::encode_no_return(kind.flight_code()),
            };
            flightrec::record(
                self.now_us(),
                flightrec::EventKind::HypercallExit,
                self.part as u16,
                hc.id as u32,
                encoded,
                resp.cost_us,
            );
        }
        out
    }

    /// Loads a word from the partition's own memory. A fault is a real
    /// partition error: the HM reacts per its table (by default the
    /// partition is halted) and `Err` is returned.
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, NoReturnKind> {
        if let Some(k) = self.ended {
            return Err(k);
        }
        match self.kern.machine.mem.read_u32(AccessCtx::Partition(self.part), addr) {
            Ok(v) => Ok(v),
            Err(f) => Err(self.fault(f)),
        }
    }

    /// Stores a word into the partition's own memory (fault ⇒ HM).
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), NoReturnKind> {
        if let Some(k) = self.ended {
            return Err(k);
        }
        match self.kern.machine.mem.write_u32(AccessCtx::Partition(self.part), addr, v) {
            Ok(()) => Ok(()),
            Err(f) => Err(self.fault(f)),
        }
    }

    /// Bulk store into the partition's own memory (fault ⇒ HM).
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), NoReturnKind> {
        if let Some(k) = self.ended {
            return Err(k);
        }
        match self.kern.machine.mem.write_bytes(AccessCtx::Partition(self.part), addr, data) {
            Ok(()) => Ok(()),
            Err(f) => Err(self.fault(f)),
        }
    }

    /// Bulk load from the partition's own memory (fault ⇒ HM).
    pub fn read_bytes(&mut self, addr: u32, len: u32) -> Result<Vec<u8>, NoReturnKind> {
        if let Some(k) = self.ended {
            return Err(k);
        }
        match self.kern.machine.mem.read_bytes(AccessCtx::Partition(self.part), addr, len) {
            Ok(v) => Ok(v),
            Err(f) => Err(self.fault(f)),
        }
    }

    fn fault(&mut self, f: leon3_sim::addrspace::MemFault) -> NoReturnKind {
        let trap = f.trap();
        self.kern.machine.record_trap(trap);
        self.kern.hm_event(
            HmEventKind::PartitionTrap {
                tt: trap.tt(),
                addr: match trap {
                    leon3_sim::Trap::DataAccessException { addr } => Some(addr),
                    _ => None,
                },
            },
            Some(self.part),
        );
        // If the HM halted (or reset) us we can no longer run; otherwise
        // (action Log/Ignore) the guest may continue after the trap.
        let kind = match self.kern.partition_status(self.part) {
            Some(PartitionStatus::Halted) => Some(NoReturnKind::CallerHalted),
            Some(PartitionStatus::Ready) if self.kern.partition_was_reset_by_hm(self.part) => {
                Some(NoReturnKind::CallerReset)
            }
            _ => None,
        };
        if let Some(k) = kind {
            self.ended = Some(k);
            k
        } else {
            NoReturnKind::Fault
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_set_indexing() {
        let mut set = GuestSet::idle(3);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        set.set(1, Box::new(IdleGuest));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn guest_set_rejects_bad_id() {
        let mut set = GuestSet::idle(2);
        set.set(5, Box::new(IdleGuest));
    }

    #[test]
    fn idle_sets_are_cloneable() {
        let set = GuestSet::idle(3);
        let copy = set.try_clone().expect("idle guests clone");
        assert_eq!(copy.len(), 3);
    }

    #[test]
    fn non_cloneable_guest_poisons_try_clone() {
        struct Opaque;
        impl GuestProgram for Opaque {
            fn run_slot(&mut self, _api: &mut PartitionApi<'_>) {}
        }
        let mut set = GuestSet::idle(2);
        set.set(0, Box::new(Opaque));
        assert!(set.try_clone().is_none());
    }
}
