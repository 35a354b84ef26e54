//! The testbed abstraction (paper Section III.B: "the methodology
//! involves the use of an IMA testbed with dummy partitions defined by
//! the separation kernel under test").
//!
//! A testbed knows how to boot a fresh kernel with its nominal guest
//! programs, which partition hosts the fault placeholders, and what the
//! reference oracle needs to know about the configuration. The `eagleeye`
//! crate provides the paper's instance (the EagleEye TSP spacecraft).

use crate::metrics::{LocalMetrics, Phase};
use crate::oracle::OracleContext;
use std::time::Instant;
use xtratum::guest::{GuestSet, PartitionApi};
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

/// A booted testbed captured once per `(Testbed, KernelBuild)` and
/// rewound to before every test. The capture point is inside the test
/// partition's first slot, just after its boot prologue (see
/// [`Testbed::snapshot`]): booting, the nominal partitions' first-frame
/// slots and the prologue are identical in every test, so they run once
/// here instead of once per test. The kernel keeps the flight events of
/// that prefix and replays them when it resumes, and the resumed slot
/// tells the test's guest that the prologue has run (see
/// [`PartitionApi::boot_prologue_done`]), so a test's run and recording
/// are the same as on a fresh boot.
pub struct BootSnapshot {
    kernel: XmKernel,
    guests: GuestSet,
}

impl BootSnapshot {
    /// Captures a snapshot from a booted pair. Returns `None` when any
    /// guest is not cloneable (see [`xtratum::guest::GuestProgram::clone_boxed`]).
    pub fn capture(kernel: XmKernel, guests: GuestSet) -> Option<Self> {
        // Verify clonability once up front so `instantiate` can't fail
        // halfway through a campaign.
        guests.try_clone()?;
        Some(BootSnapshot { kernel, guests })
    }

    /// A fresh, independent copy of the snapshot `(kernel, guests)` pair.
    pub fn instantiate(&self) -> (XmKernel, GuestSet) {
        (self.kernel.clone(), self.guests.try_clone().expect("checked in capture"))
    }

    /// Materialises a worker's persistent [`Workspace`] — one deep copy
    /// of the snapshot state that is *rewound* before every test instead of
    /// re-cloned per test.
    pub fn workspace(&self) -> Workspace {
        let (kernel, guests) = self.instantiate();
        Workspace { kernel, guests }
    }
}

/// A worker's persistent execution arena over a [`BootSnapshot`].
///
/// The snapshot's memory is held in 4 KiB pages with dirty tracking in
/// 256-byte blocks (see [`leon3_sim::addrspace::AddressSpace`]), so
/// [`Workspace::restore`] is one bounded copy: dirty blocks stream back
/// from the snapshot image, kernel bookkeeping rewinds through
/// capacity-preserving `clone_from`s, and guests reset by assignment. No allocation once the first test has
/// warmed the buffers — this replaces the clone-per-test scheme whose
/// copy-on-write page chasing dominated the campaign hot path.
pub struct Workspace {
    kernel: XmKernel,
    guests: GuestSet,
}

impl Workspace {
    /// Rewinds kernel and guests to `snapshot`'s state. `skip_guest`
    /// names a partition whose guest the caller will replace immediately
    /// (the executor's test partition, which receives a fresh mutant each
    /// test). `snapshot` must be the one this workspace was materialised
    /// from.
    pub fn restore(&mut self, snapshot: &BootSnapshot, skip_guest: Option<u32>) {
        self.kernel.restore_from(&snapshot.kernel);
        let ok = self.guests.restore_from(&snapshot.guests, skip_guest);
        debug_assert!(ok, "snapshot guests verified cloneable at capture");
    }

    /// The working `(kernel, guests)` pair.
    pub fn parts(&mut self) -> (&mut XmKernel, &mut GuestSet) {
        (&mut self.kernel, &mut self.guests)
    }
}

/// An IMA testbed that can host robustness tests.
pub trait Testbed: Sync {
    /// Boots a fresh kernel + nominal guest set for one test execution.
    fn boot(&self, build: KernelBuild) -> (XmKernel, GuestSet);

    /// Boots once, runs the first major frame up to the test partition's
    /// first slot, runs [`Testbed::prologue`] in that slot, and captures a
    /// reusable [`BootSnapshot`] there with the slot parked — or `None`
    /// when this testbed's guests cannot be cloned (the executor then falls
    /// back to one fresh [`Testbed::boot`] per test).
    ///
    /// When the prologue cannot be parked (it ends the slot, uses up its
    /// budget, stages a sampling write or kills the kernel), the snapshot
    /// is taken before the slot instead, from a second boot, and the
    /// test's guest runs the prologue itself; likewise, without a second
    /// boot, when the test partition owns the frame's first slot or cannot
    /// run in it. The snapshot stays at boot when the test partition owns
    /// no slot in the first frame, or when the prefix would halt the kernel
    /// or crash the simulator (see [`XmKernel::run_to_first_slot_of`]).
    fn snapshot(&self, build: KernelBuild) -> Option<BootSnapshot> {
        let part = self.test_partition();
        for prologue in [Some(self.prologue()), None] {
            let (mut kernel, mut guests) = self.boot(build);
            if kernel.run_to_first_slot_of(&mut guests, part, prologue) {
                return BootSnapshot::capture(kernel, guests);
            }
        }
        let (kernel, guests) = self.boot(build);
        BootSnapshot::capture(kernel, guests)
    }

    /// The partition that hosts the fault placeholders (EagleEye: FDIR,
    /// the only system partition).
    fn test_partition(&self) -> u32;

    /// Number of major frames each test runs ("the TSP system is run ...
    /// for a selected number of cyclic schedules").
    fn frames_per_test(&self) -> u32 {
        4
    }

    /// Initialisation the test partition performs on every (re)boot
    /// before the first fault placeholder executes: writing scratch
    /// patterns, creating its configured ports, raising its boot HM
    /// event. This fixes the system state the oracle reasons about.
    fn prologue(&self) -> fn(&mut PartitionApi<'_>);

    /// Everything the reference oracle needs to predict outcomes on this
    /// testbed.
    fn oracle_context(&self, build: KernelBuild) -> OracleContext;
}

/// A worker's source of booted `(kernel, guests)` pairs. With a snapshot
/// it holds one persistent [`Workspace`] rewound before every run (the
/// flat-arena fast path — no per-run deep copy); without one it
/// fresh-boots into a scratch slot.
pub(crate) struct Booter<'t, T: ?Sized> {
    testbed: &'t T,
    build: KernelBuild,
    arena: Option<(BootSnapshot, Workspace)>,
    scratch: Option<(XmKernel, GuestSet)>,
    /// Time arena rewinds into the self-profile (observability runs only).
    profile: bool,
}

impl<'t, T: Testbed + ?Sized> Booter<'t, T> {
    /// Boots the snapshot when `reuse` is set (counted as one fresh boot).
    pub(crate) fn new(
        testbed: &'t T,
        build: KernelBuild,
        reuse: bool,
        profile: bool,
        local: &mut LocalMetrics,
    ) -> Self {
        let arena = if reuse {
            local.note_fresh_boot();
            testbed.snapshot(build).map(|s| {
                let ws = s.workspace();
                (s, ws)
            })
        } else {
            None
        };
        Booter { testbed, build, arena, scratch: None, profile }
    }

    /// A booted pair rewound to (or freshly booted at) the boot state.
    /// The test partition's guest is skipped on restore: every caller
    /// installs or resets that partition's guest next.
    pub(crate) fn booted(&mut self, local: &mut LocalMetrics) -> (&mut XmKernel, &mut GuestSet) {
        let skip = self.testbed.test_partition();
        match &mut self.arena {
            Some((snap, ws)) => {
                local.note_snapshot_clone();
                flightrec::record_timeless(
                    flightrec::EventKind::SnapshotClone,
                    flightrec::NO_PARTITION,
                    0,
                    0,
                    0,
                );
                if self.profile {
                    let t = Instant::now();
                    ws.restore(snap, Some(skip));
                    local.note_phase(Phase::Rewind, t.elapsed());
                } else {
                    ws.restore(snap, Some(skip));
                }
                ws.parts()
            }
            None => {
                local.note_fresh_boot();
                let pair = self.scratch.insert(self.testbed.boot(self.build));
                (&mut pair.0, &mut pair.1)
            }
        }
    }
}
