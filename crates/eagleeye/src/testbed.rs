//! The EagleEye testbed: configuration, boot, and the oracle's view.

use crate::guests::{fdir_prologue, AocsGuest, FdirNominalGuest, HkGuest, PayloadGuest, TmtcGuest};
use crate::map::*;
use leon3_sim::addrspace::Perms;
use skrt::oracle::{ChannelView, OracleContext, PortInfo};
use skrt::testbed::Testbed;
use xtratum::config::{
    ChannelCfg, MemAreaCfg, PartitionCfg, PlanCfg, PortDirection, PortKind, SlotCfg, XmConfig,
};
use xtratum::guest::{GuestSet, PartitionApi};
use xtratum::hm::{HmAction, HmEventClass};
use xtratum::kernel::XmKernel;
use xtratum::vuln::KernelBuild;

/// The EagleEye TSP testbed (paper Fig. 6).
#[derive(Debug, Default, Clone, Copy)]
pub struct EagleEye;

impl EagleEye {
    /// The static XM configuration: five partitions over a 250 ms major
    /// frame, FDIR as the sole system partition, plus a degraded plan 1
    /// (FDIR + housekeeping only) for plan-switch experiments.
    pub fn config() -> XmConfig {
        let part = |id: u32, name: &str, system: bool| PartitionCfg {
            id,
            name: name.into(),
            system,
            mem: vec![MemAreaCfg { base: part_base(id), size: PART_SIZE, perms: Perms::RWX }],
        };
        let mut hm = XmConfig::default_hm_table();
        // EagleEye contains temporal violations by restarting the
        // offending partition (the paper's multicall finding shows up as
        // a Restart-class failure).
        hm.set(HmEventClass::SchedOverrun, HmAction::ResetPartitionWarm);
        XmConfig {
            partitions: vec![
                part(FDIR, "FDIR", true),
                part(AOCS, "AOCS", false),
                part(PAYLOAD, "PAYLOAD", false),
                part(TMTC, "TMTC", false),
                part(HK, "HK", false),
            ],
            plans: vec![
                PlanCfg {
                    id: 0,
                    major_frame_us: MAJOR_FRAME_US,
                    slots: vec![
                        SlotCfg { partition: AOCS, start_us: 0, duration_us: 50_000 },
                        SlotCfg { partition: PAYLOAD, start_us: 50_000, duration_us: 50_000 },
                        SlotCfg { partition: HK, start_us: 100_000, duration_us: 30_000 },
                        SlotCfg { partition: TMTC, start_us: 130_000, duration_us: 60_000 },
                        SlotCfg { partition: FDIR, start_us: 190_000, duration_us: 60_000 },
                    ],
                },
                PlanCfg {
                    id: 1,
                    major_frame_us: MAJOR_FRAME_US,
                    slots: vec![
                        SlotCfg { partition: FDIR, start_us: 0, duration_us: 125_000 },
                        SlotCfg { partition: HK, start_us: 125_000, duration_us: 125_000 },
                    ],
                },
            ],
            channels: vec![
                ChannelCfg {
                    name: "GyroData".into(),
                    kind: PortKind::Sampling,
                    max_msg_size: GYRO_MSG_LEN,
                    max_msgs: 0,
                    source: AOCS,
                    destinations: vec![FDIR],
                },
                ChannelCfg {
                    name: "FdirStatus".into(),
                    kind: PortKind::Sampling,
                    max_msg_size: 8,
                    max_msgs: 0,
                    source: FDIR,
                    destinations: vec![TMTC],
                },
                ChannelCfg {
                    name: "TmQueue".into(),
                    kind: PortKind::Queuing,
                    max_msg_size: 32,
                    max_msgs: 4,
                    source: FDIR,
                    destinations: vec![TMTC],
                },
                ChannelCfg {
                    name: "TcQueue".into(),
                    kind: PortKind::Queuing,
                    max_msg_size: TC_MSG_LEN,
                    max_msgs: 4,
                    source: TMTC,
                    destinations: vec![FDIR],
                },
                ChannelCfg {
                    name: "PayloadData".into(),
                    kind: PortKind::Queuing,
                    max_msg_size: 64,
                    max_msgs: 8,
                    source: PAYLOAD,
                    destinations: vec![TMTC],
                },
                ChannelCfg {
                    name: "HkReport".into(),
                    kind: PortKind::Sampling,
                    max_msg_size: 32,
                    max_msgs: 0,
                    source: HK,
                    destinations: vec![TMTC],
                },
            ],
            hm_table: hm,
            tuning: Default::default(),
        }
    }

    /// Boots the testbed with the *nominal* FDIR application installed
    /// (demo/monitoring use — campaigns replace it with a mutant).
    pub fn boot_nominal(build: KernelBuild) -> (XmKernel, GuestSet) {
        let (kernel, mut guests) = EagleEye.boot(build);
        guests.set(FDIR, Box::<FdirNominalGuest>::default());
        (kernel, guests)
    }
}

/// The nominal five-partition guest set.
fn nominal_guests() -> GuestSet {
    let mut guests = GuestSet::idle(5);
    guests.set(FDIR, Box::<FdirNominalGuest>::default());
    guests.set(AOCS, Box::<AocsGuest>::default());
    guests.set(PAYLOAD, Box::<PayloadGuest>::default());
    guests.set(TMTC, Box::<TmtcGuest>::default());
    guests.set(HK, Box::<HkGuest>::default());
    guests
}

impl Testbed for EagleEye {
    fn boot(&self, build: KernelBuild) -> (XmKernel, GuestSet) {
        let kernel = XmKernel::boot(Self::config(), build)
            .expect("the EagleEye configuration is statically valid");
        (kernel, nominal_guests())
    }

    fn test_partition(&self) -> u32 {
        FDIR
    }

    fn prologue(&self) -> fn(&mut PartitionApi<'_>) {
        fdir_prologue
    }

    fn oracle_context(&self, build: KernelBuild) -> OracleContext {
        let cfg = Self::config();
        OracleContext {
            build,
            caller: FDIR,
            caller_is_system: true,
            partition_count: cfg.partitions.len() as u32,
            partition_names: cfg.partitions.iter().map(|p| p.name.clone()).collect(),
            channels: cfg
                .channels
                .iter()
                .map(|c| ChannelView {
                    name: c.name.clone(),
                    kind: c.kind,
                    max_msg_size: c.max_msg_size,
                    max_msgs: c.max_msgs,
                    caller_is_source: c.source == FDIR,
                    caller_is_dest: c.destinations.contains(&FDIR),
                })
                .collect(),
            plan_ids: cfg.plans.iter().map(|p| p.id).collect(),
            caller_mem: vec![(FDIR_BASE, PART_SIZE)],
            min_timer_interval: cfg.tuning.min_timer_interval_us,
            ports: vec![
                PortInfo {
                    desc: 0,
                    name: "GyroData".into(),
                    kind: PortKind::Sampling,
                    direction: PortDirection::Destination,
                    max_msg_size: GYRO_MSG_LEN,
                    max_msgs: 0,
                    // AOCS runs before FDIR in the frame: a sample is
                    // always pending at the first invocation.
                    pending_msg_len: Some(GYRO_MSG_LEN),
                },
                PortInfo {
                    desc: 1,
                    name: "FdirStatus".into(),
                    kind: PortKind::Sampling,
                    direction: PortDirection::Source,
                    max_msg_size: 8,
                    max_msgs: 0,
                    pending_msg_len: None,
                },
                PortInfo {
                    desc: 2,
                    name: "TmQueue".into(),
                    kind: PortKind::Queuing,
                    direction: PortDirection::Source,
                    max_msg_size: 32,
                    max_msgs: 4,
                    pending_msg_len: None,
                },
                PortInfo {
                    desc: 3,
                    name: "TcQueue".into(),
                    kind: PortKind::Queuing,
                    direction: PortDirection::Destination,
                    max_msg_size: TC_MSG_LEN,
                    max_msgs: 4,
                    // TMTC issues one TC per frame before FDIR runs.
                    pending_msg_len: Some(TC_MSG_LEN),
                },
            ],
            known_strings: vec![
                (PTR_NAME_GYRO, "GyroData".into()),
                (PTR_NAME_TM, "TmQueue".into()),
                (FDIR_BASE + 0x9040, "FdirStatus".into()),
                (FDIR_BASE + 0x9060, "TcQueue".into()),
            ],
            hm_entries_at_first: 1,
            trace_entries_at_first: 0,
            io_port_count: 4,
        }
    }
}

/// EagleEye with an explicit defect configuration — the vehicle for
/// single-fix ablation studies. `flags` selects which legacy defects are
/// present in the kernel; `docs` selects which *documentation revision*
/// the oracle expects (fixing a defect without revising the manual makes
/// the oracle flag the divergence as a Hindering finding, which is itself
/// an instructive result).
#[derive(Debug, Clone, Copy)]
pub struct EagleEyeAblation {
    /// Defects present in the kernel under test.
    pub flags: xtratum::vuln::VulnFlags,
    /// Documentation revision the oracle encodes.
    pub docs: KernelBuild,
}

impl Testbed for EagleEyeAblation {
    fn boot(&self, _build: KernelBuild) -> (XmKernel, GuestSet) {
        let kernel = XmKernel::boot_with_flags(EagleEye::config(), self.docs, self.flags)
            .expect("the EagleEye configuration is statically valid");
        (kernel, nominal_guests())
    }

    fn test_partition(&self) -> u32 {
        FDIR
    }

    fn prologue(&self) -> fn(&mut PartitionApi<'_>) {
        fdir_prologue
    }

    fn oracle_context(&self, _build: KernelBuild) -> OracleContext {
        EagleEye.oracle_context(self.docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configuration_is_valid() {
        assert_eq!(EagleEye::config().validate(), Vec::<String>::new());
    }

    #[test]
    fn nominal_mission_runs_healthy() {
        let (mut kernel, mut guests) = EagleEye::boot_nominal(KernelBuild::Legacy);
        let s = kernel.run_major_frames(&mut guests, 8);
        assert!(s.healthy(), "halt: {:?}", s.kernel_halt_reason);
        assert_eq!(s.frames_completed, 8);
        // Nothing but the FDIR boot event in the HM log.
        assert_eq!(s.hm_log.len(), 1);
        // All partitions alive.
        assert!(s.partition_final.iter().all(|p| p.schedulable()), "{:?}", s.partition_final);
    }

    #[test]
    fn nominal_mission_moves_data() {
        let (mut kernel, mut guests) = EagleEye::boot_nominal(KernelBuild::Patched);
        kernel.run_major_frames(&mut guests, 4);
        // Every partition created its ports.
        assert_eq!(kernel_ports(&kernel, FDIR), 4);
        assert_eq!(kernel_ports(&kernel, AOCS), 1);
        assert_eq!(kernel_ports(&kernel, TMTC), 5);
    }

    fn kernel_ports(k: &XmKernel, p: u32) -> usize {
        // exposed indirectly: re-create should say AlreadyCreated; count
        // via the public port table accessor.
        k.port_count(p)
    }

    #[test]
    fn oracle_context_matches_config() {
        let ctx = EagleEye.oracle_context(KernelBuild::Legacy);
        assert_eq!(ctx.partition_count, 5);
        assert!(ctx.caller_is_system);
        assert_eq!(ctx.ports.len(), 4);
        assert_eq!(ctx.plan_ids, vec![0, 1]);
        assert_eq!(ctx.channels.len(), 6);
        assert!(ctx.accessible(SCRATCH, 64, 8));
        assert!(!ctx.accessible(KERNEL_PTR, 4, 4));
        assert_eq!(ctx.string_at(PTR_NAME_GYRO), Some("GyroData"));
    }

    #[test]
    fn frame_timing_adds_up() {
        let cfg = EagleEye::config();
        let plan0 = &cfg.plans[0];
        let last = plan0.slots.last().unwrap();
        assert_eq!(last.start_us + last.duration_us, MAJOR_FRAME_US);
        // FDIR is last, matching the oracle's pending-state assumptions.
        assert_eq!(last.partition, FDIR);
    }
}
