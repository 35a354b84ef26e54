//! Per-service behavioural tests: every one of the 61 hypercalls,
//! happy path and error paths, on a two-plan / three-partition system.
//!
//! Partition 0 ("SYS") is a system partition; partition 1 ("APP") and
//! partition 2 ("AUX") are normal. One sampling channel ("samp",
//! APP → SYS) and one queuing channel ("queue", SYS → APP) are configured.

use leon3_sim::addrspace::{AccessCtx, Perms};
use xtratum::config::{ChannelCfg, MemAreaCfg, PartitionCfg, PlanCfg, PortKind, SlotCfg, XmConfig};
use xtratum::hypercall::{HypercallId as H, RawHypercall};
use xtratum::kernel::{HcResult, NoReturnKind, XmKernel};
use xtratum::partition::PartitionStatus;
use xtratum::retcode::XmRet;
use xtratum::vuln::KernelBuild;

const SYS: u32 = 0;
const APP: u32 = 1;
const SYS_BASE: u32 = 0x4010_0000;
const APP_BASE: u32 = 0x4020_0000;
const SIZE: u32 = 0x1_0000;
const SCRATCH: u32 = SYS_BASE + 0x8000;
const NAME_SAMP: u32 = SYS_BASE + 0x9000;
const NAME_QUEUE: u32 = SYS_BASE + 0x9010;

fn config() -> XmConfig {
    XmConfig {
        partitions: vec![
            PartitionCfg {
                id: 0,
                name: "SYS".into(),
                system: true,
                mem: vec![MemAreaCfg { base: SYS_BASE, size: SIZE, perms: Perms::RWX }],
            },
            PartitionCfg {
                id: 1,
                name: "APP".into(),
                system: false,
                mem: vec![MemAreaCfg { base: APP_BASE, size: SIZE, perms: Perms::RWX }],
            },
            PartitionCfg {
                id: 2,
                name: "AUX".into(),
                system: false,
                mem: vec![MemAreaCfg { base: 0x4030_0000, size: SIZE, perms: Perms::RWX }],
            },
        ],
        plans: vec![
            PlanCfg {
                id: 0,
                major_frame_us: 120_000,
                slots: vec![
                    SlotCfg { partition: 0, start_us: 0, duration_us: 40_000 },
                    SlotCfg { partition: 1, start_us: 40_000, duration_us: 40_000 },
                    SlotCfg { partition: 2, start_us: 80_000, duration_us: 40_000 },
                ],
            },
            PlanCfg {
                id: 1,
                major_frame_us: 120_000,
                slots: vec![SlotCfg { partition: 0, start_us: 0, duration_us: 120_000 }],
            },
        ],
        channels: vec![
            ChannelCfg {
                name: "samp".into(),
                kind: PortKind::Sampling,
                max_msg_size: 16,
                max_msgs: 0,
                source: APP,
                destinations: vec![SYS],
            },
            ChannelCfg {
                name: "queue".into(),
                kind: PortKind::Queuing,
                max_msg_size: 32,
                max_msgs: 2,
                source: SYS,
                destinations: vec![APP],
            },
        ],
        hm_table: XmConfig::default_hm_table(),
        tuning: Default::default(),
    }
}

/// Boots and writes the channel-name strings into SYS memory.
fn kernel(build: KernelBuild) -> XmKernel {
    let mut k = XmKernel::boot(config(), build).unwrap();
    k.machine.mem.write_bytes(AccessCtx::Kernel, NAME_SAMP, b"samp\0").unwrap();
    k.machine.mem.write_bytes(AccessCtx::Kernel, NAME_QUEUE, b"queue\0").unwrap();
    k
}

fn call(k: &mut XmKernel, caller: u32, id: H, args: Vec<u64>) -> HcResult {
    k.hypercall(caller, &RawHypercall::new_unchecked(id, args)).result
}

fn ret(code: XmRet) -> HcResult {
    HcResult::Ret(code.code())
}

const OK: HcResult = HcResult::Ret(0);

// --- system management -------------------------------------------------------

#[test]
fn halt_system_halts() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(
        call(&mut k, SYS, H::HaltSystem, vec![]),
        HcResult::NoReturn(NoReturnKind::SystemHalt)
    );
    assert!(!k.alive());
    assert!(k.halt_reason().unwrap().contains("halt_system"));
}

#[test]
fn get_system_status_writes_counters() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::GetSystemStatus, vec![SCRATCH as u64]), OK);
    // cold/warm resets are zero at boot
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 0);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 4).unwrap(), 0);
    // bad pointers rejected
    assert_eq!(call(&mut k, SYS, H::GetSystemStatus, vec![0]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::GetSystemStatus, vec![2]), ret(XmRet::InvalidParam));
}

// --- partition management ----------------------------------------------------

#[test]
fn partition_lifecycle_services() {
    let mut k = kernel(KernelBuild::Legacy);
    // suspend + resume another partition
    assert_eq!(call(&mut k, SYS, H::SuspendPartition, vec![APP as u64]), OK);
    assert_eq!(k.partition_status(APP), Some(PartitionStatus::Suspended));
    assert_eq!(call(&mut k, SYS, H::SuspendPartition, vec![APP as u64]), ret(XmRet::NoAction));
    assert_eq!(call(&mut k, SYS, H::ResumePartition, vec![APP as u64]), OK);
    assert_eq!(call(&mut k, SYS, H::ResumePartition, vec![APP as u64]), ret(XmRet::NoAction));
    // halt + operations on a halted partition
    assert_eq!(call(&mut k, SYS, H::HaltPartition, vec![APP as u64]), OK);
    assert_eq!(call(&mut k, SYS, H::HaltPartition, vec![APP as u64]), ret(XmRet::NoAction));
    assert_eq!(call(&mut k, SYS, H::SuspendPartition, vec![APP as u64]), ret(XmRet::InvalidMode));
    assert_eq!(call(&mut k, SYS, H::ResumePartition, vec![APP as u64]), ret(XmRet::InvalidMode));
    assert_eq!(call(&mut k, SYS, H::ShutdownPartition, vec![APP as u64]), ret(XmRet::InvalidMode));
    // reset revives it
    assert_eq!(call(&mut k, SYS, H::ResetPartition, vec![APP as u64, 0, 0x55]), OK);
    assert_eq!(k.partition_status(APP), Some(PartitionStatus::Ready));
}

#[test]
fn shutdown_delivers_virq_and_unschedules() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::ShutdownPartition, vec![2]), OK);
    assert_eq!(k.partition_status(2), Some(PartitionStatus::Shutdown));
}

#[test]
fn get_partition_status_permissions() {
    let mut k = kernel(KernelBuild::Legacy);
    // SYS may query anyone.
    assert_eq!(call(&mut k, SYS, H::GetPartitionStatus, vec![2, SCRATCH as u64]), OK);
    // first status word encodes READY (= 1)
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 1);
    // APP may query itself...
    assert_eq!(
        call(&mut k, APP, H::GetPartitionStatus, vec![APP as u64, (APP_BASE + 0x100) as u64]),
        OK
    );
    // ... but not others.
    assert_eq!(
        call(&mut k, APP, H::GetPartitionStatus, vec![0, (APP_BASE + 0x100) as u64]),
        ret(XmRet::PermError)
    );
    // invalid ids
    assert_eq!(
        call(&mut k, SYS, H::GetPartitionStatus, vec![(-1i64) as u64, SCRATCH as u64]),
        ret(XmRet::InvalidParam)
    );
}

#[test]
fn set_partition_opmode_validates() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::SetPartitionOpMode, vec![3]), OK);
    assert_eq!(call(&mut k, APP, H::SetPartitionOpMode, vec![4]), ret(XmRet::InvalidParam));
    assert_eq!(
        call(&mut k, APP, H::SetPartitionOpMode, vec![(-1i64) as u64]),
        ret(XmRet::InvalidParam)
    );
}

#[test]
fn self_services_do_not_return() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(
        call(&mut k, APP, H::IdleSelf, vec![]),
        HcResult::NoReturn(NoReturnKind::CallerIdled)
    );
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(
        call(&mut k, APP, H::SuspendSelf, vec![]),
        HcResult::NoReturn(NoReturnKind::CallerSuspended)
    );
    assert_eq!(k.partition_status(APP), Some(PartitionStatus::Suspended));
}

#[test]
fn params_get_pct_marks_query() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::ParamsGetPct, vec![]), OK);
}

// --- time management -----------------------------------------------------------

#[test]
fn get_time_clocks() {
    let mut k = kernel(KernelBuild::Legacy);
    k.machine.advance(1234);
    assert_eq!(call(&mut k, SYS, H::GetTime, vec![0, SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u64(AccessCtx::Kernel, SCRATCH).unwrap(), 1234);
    // exec clock is per-partition accumulated time — zero here because
    // execution time is charged by the partition API, not by direct
    // dispatcher calls.
    assert_eq!(call(&mut k, SYS, H::GetTime, vec![1, SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u64(AccessCtx::Kernel, SCRATCH).unwrap(), 0);
    // misaligned pointer
    assert_eq!(
        call(&mut k, SYS, H::GetTime, vec![0, (SCRATCH + 4) as u64]),
        ret(XmRet::InvalidParam)
    );
    // bad clock
    assert_eq!(call(&mut k, SYS, H::GetTime, vec![2, SCRATCH as u64]), ret(XmRet::InvalidParam));
}

#[test]
fn set_timer_arms_hw_clock_vtimer() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::SetTimer, vec![0, 5_000, 1_000]), OK);
    let t = k.hw_vtimer(APP).unwrap();
    assert!(t.armed);
    assert_eq!(t.next_expiry, 5_000);
    assert_eq!(t.interval, 1_000);
    // negative absolute time is always invalid
    assert_eq!(
        call(&mut k, APP, H::SetTimer, vec![0, (-5i64) as u64, 1_000]),
        ret(XmRet::InvalidParam)
    );
}

// --- plan management -------------------------------------------------------------

#[test]
fn plan_services() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::GetPlanStatus, vec![SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 0); // plan 0
    assert_eq!(call(&mut k, SYS, H::SwitchSchedPlan, vec![1, SCRATCH as u64]), OK);
    assert_eq!(call(&mut k, SYS, H::GetPlanStatus, vec![SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 4).unwrap(), 2); // pending = 1 (+1)
    assert_eq!(
        call(&mut k, SYS, H::SwitchSchedPlan, vec![9, SCRATCH as u64]),
        ret(XmRet::InvalidParam)
    );
    // normal partitions may not switch plans
    assert_eq!(
        call(&mut k, APP, H::SwitchSchedPlan, vec![1, (APP_BASE + 0x100) as u64]),
        ret(XmRet::PermError)
    );
}

// --- IPC --------------------------------------------------------------------------

#[test]
fn sampling_channel_end_to_end() {
    let mut k = kernel(KernelBuild::Legacy);
    // APP writes its name into its own memory and creates the source port.
    k.machine.mem.write_bytes(AccessCtx::Kernel, APP_BASE + 0x10, b"samp\0").unwrap();
    let src = call(&mut k, APP, H::CreateSamplingPort, vec![(APP_BASE + 0x10) as u64, 16, 0]);
    assert_eq!(src, HcResult::Ret(0));
    let dst = call(&mut k, SYS, H::CreateSamplingPort, vec![NAME_SAMP as u64, 16, 1]);
    assert_eq!(dst, HcResult::Ret(0));
    // duplicate creation: no action
    assert_eq!(
        call(&mut k, SYS, H::CreateSamplingPort, vec![NAME_SAMP as u64, 16, 1]),
        ret(XmRet::NoAction)
    );
    // wrong geometry / direction / name
    assert_eq!(
        call(&mut k, SYS, H::CreateSamplingPort, vec![NAME_SAMP as u64, 8, 1]),
        ret(XmRet::InvalidConfig)
    );
    assert_eq!(
        call(&mut k, SYS, H::CreateSamplingPort, vec![NAME_SAMP as u64, 16, 0]),
        ret(XmRet::OpNotAllowed)
    );
    assert_eq!(
        call(&mut k, SYS, H::CreateSamplingPort, vec![NAME_SAMP as u64, 16, 7]),
        ret(XmRet::InvalidParam)
    );
    // reading before any write: not available
    assert_eq!(
        call(
            &mut k,
            SYS,
            H::ReadSamplingMessage,
            vec![0, SCRATCH as u64, 16, (SCRATCH + 32) as u64]
        ),
        ret(XmRet::NotAvailable)
    );
    // APP writes a message, SYS reads it back
    k.machine.mem.write_bytes(AccessCtx::Kernel, APP_BASE + 0x40, b"attitude-quatern").unwrap();
    assert_eq!(
        call(&mut k, APP, H::WriteSamplingMessage, vec![0, (APP_BASE + 0x40) as u64, 16]),
        OK
    );
    assert_eq!(
        call(
            &mut k,
            SYS,
            H::ReadSamplingMessage,
            vec![0, SCRATCH as u64, 16, (SCRATCH + 32) as u64]
        ),
        OK
    );
    let got = k.machine.mem.read_bytes(AccessCtx::Kernel, SCRATCH, 16).unwrap();
    assert_eq!(&got, b"attitude-quatern");
    // freshness counter delivered through the flags pointer
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 32).unwrap(), 1);
    // port status reports a valid sample
    assert_eq!(call(&mut k, SYS, H::GetSamplingPortStatus, vec![0, (SCRATCH + 64) as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 64).unwrap(), 1);
}

#[test]
fn queuing_channel_end_to_end() {
    let mut k = kernel(KernelBuild::Legacy);
    let src = call(&mut k, SYS, H::CreateQueuingPort, vec![NAME_QUEUE as u64, 2, 32, 0]);
    assert_eq!(src, HcResult::Ret(0));
    k.machine.mem.write_bytes(AccessCtx::Kernel, APP_BASE + 0x10, b"queue\0").unwrap();
    let dst = call(&mut k, APP, H::CreateQueuingPort, vec![(APP_BASE + 0x10) as u64, 2, 32, 1]);
    assert_eq!(dst, HcResult::Ret(0));
    // wrong depth is an invalid config
    assert_eq!(
        call(&mut k, SYS, H::CreateQueuingPort, vec![NAME_QUEUE as u64, 4, 32, 0]),
        ret(XmRet::InvalidConfig)
    );
    // send twice, third hits backpressure
    k.machine
        .mem
        .write_bytes(AccessCtx::Kernel, SCRATCH, b"telemetry-frame-0000000000000000")
        .unwrap();
    assert_eq!(call(&mut k, SYS, H::SendQueuingMessage, vec![0, SCRATCH as u64, 32]), OK);
    assert_eq!(call(&mut k, SYS, H::SendQueuingMessage, vec![0, SCRATCH as u64, 32]), OK);
    assert_eq!(
        call(&mut k, SYS, H::SendQueuingMessage, vec![0, SCRATCH as u64, 32]),
        ret(XmRet::NotAvailable)
    );
    // receive drains FIFO and reports the length
    assert_eq!(
        call(
            &mut k,
            APP,
            H::ReceiveQueuingMessage,
            vec![0, (APP_BASE + 0x100) as u64, 32, (APP_BASE + 0x80) as u64]
        ),
        OK
    );
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, APP_BASE + 0x80).unwrap(), 32);
    // queue status on the wrong port kind is an invalid parameter
    assert_eq!(
        call(&mut k, SYS, H::GetSamplingPortStatus, vec![0, SCRATCH as u64]),
        ret(XmRet::InvalidParam)
    );
    assert_eq!(call(&mut k, SYS, H::GetQueuingPortStatus, vec![0, SCRATCH as u64]), OK);
    // flush
    assert_eq!(call(&mut k, SYS, H::FlushPort, vec![0]), OK);
    assert_eq!(call(&mut k, SYS, H::FlushPort, vec![9]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::FlushAllPorts, vec![]), OK);
}

/// Creates the sampling channel's source (APP) and destination (SYS)
/// ports for the staging tests below.
fn create_samp_ports(k: &mut XmKernel) {
    k.machine.mem.write_bytes(AccessCtx::Kernel, APP_BASE + 0x10, b"samp\0").unwrap();
    assert_eq!(
        call(k, APP, H::CreateSamplingPort, vec![(APP_BASE + 0x10) as u64, 16, 0]),
        HcResult::Ret(0)
    );
    assert_eq!(
        call(k, SYS, H::CreateSamplingPort, vec![NAME_SAMP as u64, 16, 1]),
        HcResult::Ret(0)
    );
}

/// Sampling writes are staged per channel and landed at the next
/// observation point; a burst of writes must be indistinguishable from
/// the old eager path — the reader sees the *last* value and a
/// freshness counter advanced once per write, not once per commit.
#[test]
fn sampling_write_burst_reads_last_value_with_full_seq() {
    let mut k = kernel(KernelBuild::Legacy);
    create_samp_ports(&mut k);
    for msg in [b"att-aaaaaaaaaaaa", b"att-bbbbbbbbbbbb", b"att-cccccccccccc"] {
        k.machine.mem.write_bytes(AccessCtx::Kernel, APP_BASE + 0x40, msg).unwrap();
        assert_eq!(
            call(&mut k, APP, H::WriteSamplingMessage, vec![0, (APP_BASE + 0x40) as u64, 16]),
            OK
        );
    }
    assert_eq!(
        call(
            &mut k,
            SYS,
            H::ReadSamplingMessage,
            vec![0, SCRATCH as u64, 16, (SCRATCH + 32) as u64]
        ),
        OK
    );
    let got = k.machine.mem.read_bytes(AccessCtx::Kernel, SCRATCH, 16).unwrap();
    assert_eq!(&got, b"att-cccccccccccc");
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 32).unwrap(), 3);
}

/// Port status is an observation point too: a staged write must be
/// visible as a valid sample before any read happens.
#[test]
fn port_status_observes_staged_sampling_write() {
    let mut k = kernel(KernelBuild::Legacy);
    create_samp_ports(&mut k);
    k.machine.mem.write_bytes(AccessCtx::Kernel, APP_BASE + 0x40, b"gyro-rates-xyz!!").unwrap();
    assert_eq!(
        call(&mut k, APP, H::WriteSamplingMessage, vec![0, (APP_BASE + 0x40) as u64, 16]),
        OK
    );
    assert_eq!(call(&mut k, SYS, H::GetSamplingPortStatus, vec![0, (SCRATCH + 64) as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 64).unwrap(), 1);
}

/// Rejected writes stage nothing: validation runs at call time (the
/// error is returned immediately, as the eager path did) and the port
/// still has no sample afterwards.
#[test]
fn rejected_sampling_write_stages_nothing() {
    let mut k = kernel(KernelBuild::Legacy);
    create_samp_ports(&mut k);
    // oversize and zero-length writes fail the geometry check
    assert_eq!(
        call(&mut k, APP, H::WriteSamplingMessage, vec![0, (APP_BASE + 0x40) as u64, 17]),
        ret(XmRet::InvalidParam)
    );
    assert_eq!(
        call(&mut k, APP, H::WriteSamplingMessage, vec![0, (APP_BASE + 0x40) as u64, 0]),
        ret(XmRet::InvalidParam)
    );
    // reading from the wrong end fails before it could observe anything
    assert_eq!(
        call(
            &mut k,
            APP,
            H::ReadSamplingMessage,
            vec![0, (APP_BASE + 0x40) as u64, 16, (APP_BASE + 0x60) as u64]
        ),
        ret(XmRet::OpNotAllowed)
    );
    assert_eq!(
        call(
            &mut k,
            SYS,
            H::ReadSamplingMessage,
            vec![0, SCRATCH as u64, 16, (SCRATCH + 32) as u64]
        ),
        ret(XmRet::NotAvailable)
    );
}

/// A cold reset between write and read drops the staged sample exactly
/// like the eager path (where the reset wipes the landed sample): after
/// recreating the ports, the channel reads back empty.
#[test]
fn cold_reset_drops_staged_sampling_write() {
    let mut k = kernel(KernelBuild::Legacy);
    create_samp_ports(&mut k);
    k.machine.mem.write_bytes(AccessCtx::Kernel, APP_BASE + 0x40, b"doomed-sample!!!").unwrap();
    assert_eq!(
        call(&mut k, APP, H::WriteSamplingMessage, vec![0, (APP_BASE + 0x40) as u64, 16]),
        OK
    );
    assert_eq!(
        call(&mut k, SYS, H::ResetSystem, vec![0]),
        HcResult::NoReturn(NoReturnKind::SystemColdReset)
    );
    // ports died with the reset; recreate and observe an empty channel
    k.machine.mem.write_bytes(AccessCtx::Kernel, NAME_SAMP, b"samp\0").unwrap();
    create_samp_ports(&mut k);
    assert_eq!(
        call(
            &mut k,
            SYS,
            H::ReadSamplingMessage,
            vec![0, SCRATCH as u64, 16, (SCRATCH + 32) as u64]
        ),
        ret(XmRet::NotAvailable)
    );
}

// --- memory management --------------------------------------------------------------

#[test]
fn memory_copy_and_update_page() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::UpdatePage32, vec![SCRATCH as u64, 0xCAFE_F00D]), OK);
    assert_eq!(
        call(&mut k, SYS, H::MemoryCopy, vec![(SCRATCH + 64) as u64, SCRATCH as u64, 4]),
        OK
    );
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 64).unwrap(), 0xCAFE_F00D);
    // cross-partition copies are denied in both directions
    assert_eq!(
        call(&mut k, SYS, H::MemoryCopy, vec![APP_BASE as u64, SCRATCH as u64, 4]),
        ret(XmRet::InvalidParam)
    );
    assert_eq!(
        call(&mut k, SYS, H::MemoryCopy, vec![SCRATCH as u64, APP_BASE as u64, 4]),
        ret(XmRet::InvalidParam)
    );
    // unaligned page update
    assert_eq!(
        call(&mut k, SYS, H::UpdatePage32, vec![(SCRATCH + 2) as u64, 1]),
        ret(XmRet::InvalidParam)
    );
}

// --- health monitor -------------------------------------------------------------------

#[test]
fn hm_services_round_trip() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::HmOpen, vec![]), OK);
    assert_eq!(call(&mut k, SYS, H::HmOpen, vec![]), ret(XmRet::NoAction));
    // raise two events, read them back
    assert_eq!(call(&mut k, APP, H::HmRaiseEvent, vec![0xA1]), OK);
    assert_eq!(call(&mut k, APP, H::HmRaiseEvent, vec![0xA2]), OK);
    assert_eq!(call(&mut k, SYS, H::HmRead, vec![SCRATCH as u64, 10]), HcResult::Ret(2));
    // class code 4 = partition-raised; partition field is id+1
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 8).unwrap(), 4);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 12).unwrap(), APP + 1);
    // cursor reached the end
    assert_eq!(call(&mut k, SYS, H::HmRead, vec![SCRATCH as u64, 10]), HcResult::Ret(0));
    // seek back and re-read
    assert_eq!(call(&mut k, SYS, H::HmSeek, vec![0, 0]), OK);
    assert_eq!(call(&mut k, SYS, H::HmRead, vec![SCRATCH as u64, 1]), HcResult::Ret(1));
    assert_eq!(call(&mut k, SYS, H::HmSeek, vec![9, 0]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::HmSeek, vec![0, 7]), ret(XmRet::InvalidParam));
    // status
    assert_eq!(call(&mut k, SYS, H::HmStatus, vec![SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 2); // entries
                                                                                // HM access is privileged
    assert_eq!(
        call(&mut k, APP, H::HmRead, vec![(APP_BASE as u64) + 0x100, 1]),
        ret(XmRet::PermError)
    );
}

// --- trace ---------------------------------------------------------------------------

#[test]
fn trace_services_round_trip() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::TraceOpen, vec![APP as u64]), HcResult::Ret(1));
    // normal partitions cannot open foreign streams; system can.
    assert_eq!(call(&mut k, APP, H::TraceOpen, vec![0]), ret(XmRet::PermError));
    assert_eq!(call(&mut k, SYS, H::TraceOpen, vec![APP as u64]), HcResult::Ret(1));
    // emit an event from APP
    k.machine.mem.write_u32(AccessCtx::Kernel, APP_BASE + 0x20, 0x7777).unwrap();
    assert_eq!(call(&mut k, APP, H::TraceEvent, vec![1, (APP_BASE + 0x20) as u64]), OK);
    assert_eq!(
        call(&mut k, APP, H::TraceEvent, vec![0, (APP_BASE + 0x20) as u64]),
        ret(XmRet::NoAction)
    );
    // SYS reads APP's stream
    assert_eq!(call(&mut k, SYS, H::TraceRead, vec![APP as u64, SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 12).unwrap(), 0x7777);
    assert_eq!(
        call(&mut k, SYS, H::TraceRead, vec![APP as u64, SCRATCH as u64]),
        ret(XmRet::NotAvailable)
    );
    // seek back
    assert_eq!(call(&mut k, SYS, H::TraceSeek, vec![APP as u64, 0, 0]), OK);
    assert_eq!(call(&mut k, SYS, H::TraceRead, vec![APP as u64, SCRATCH as u64]), OK);
    // status: one record, cursor at 1
    assert_eq!(call(&mut k, SYS, H::TraceStatus, vec![APP as u64, SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 1);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH + 8).unwrap(), 1);
    // bad whence / range
    assert_eq!(call(&mut k, SYS, H::TraceSeek, vec![APP as u64, 0, 3]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::TraceSeek, vec![APP as u64, 5, 0]), ret(XmRet::InvalidParam));
}

// --- interrupts ------------------------------------------------------------------------

#[test]
fn irq_mask_services_validate_reserved_bits() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::ClearIrqMask, vec![0x00C0, 0xF]), OK);
    assert_eq!(call(&mut k, APP, H::SetIrqMask, vec![0x00C0, 0xF]), OK);
    for bad in [1u64, 0x10000, 0xFFFF_FFFF] {
        assert_eq!(call(&mut k, APP, H::ClearIrqMask, vec![bad, 0]), ret(XmRet::InvalidParam));
        assert_eq!(call(&mut k, APP, H::SetIrqMask, vec![bad, 0]), ret(XmRet::InvalidParam));
        assert_eq!(call(&mut k, SYS, H::SetIrqPend, vec![bad, 0]), ret(XmRet::InvalidParam));
    }
    assert_eq!(call(&mut k, SYS, H::SetIrqPend, vec![0x0100, 2]), OK);
    assert!(k.machine.irqmp.is_pending(8));
    // pend is privileged
    assert_eq!(call(&mut k, APP, H::SetIrqPend, vec![0x0100, 0]), ret(XmRet::PermError));
}

#[test]
fn route_irq_validates_in_order() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::RouteIrq, vec![0, 8, 0x42]), OK);
    assert_eq!(call(&mut k, SYS, H::RouteIrq, vec![1, 31, 0xE9]), OK);
    assert_eq!(call(&mut k, SYS, H::RouteIrq, vec![2, 8, 0x42]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::RouteIrq, vec![0, 8, 256]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::RouteIrq, vec![0, 0, 1]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::RouteIrq, vec![0, 16, 1]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, SYS, H::RouteIrq, vec![1, 32, 1]), ret(XmRet::InvalidParam));
}

#[test]
fn disable_irqs_masks_everything() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::DisableIrqs, vec![]), OK);
}

// --- miscellaneous ------------------------------------------------------------------------

#[test]
fn flush_cache_and_cache_state() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::FlushCache, vec![0]), ret(XmRet::NoAction));
    for m in [1u64, 2, 3] {
        assert_eq!(call(&mut k, APP, H::FlushCache, vec![m]), OK);
        assert_eq!(call(&mut k, APP, H::SetCacheState, vec![m]), OK);
    }
    assert_eq!(call(&mut k, APP, H::FlushCache, vec![16]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, APP, H::SetCacheState, vec![0xFFFF_FFFF]), ret(XmRet::InvalidParam));
}

#[test]
fn get_gid_by_name_looks_up_partitions_and_channels() {
    let mut k = kernel(KernelBuild::Legacy);
    k.machine.mem.write_bytes(AccessCtx::Kernel, SCRATCH, b"APP\0").unwrap();
    assert_eq!(call(&mut k, SYS, H::GetGidByName, vec![SCRATCH as u64, 0]), HcResult::Ret(1));
    k.machine.mem.write_bytes(AccessCtx::Kernel, SCRATCH, b"queue\0").unwrap();
    assert_eq!(call(&mut k, SYS, H::GetGidByName, vec![SCRATCH as u64, 1]), HcResult::Ret(1));
    k.machine.mem.write_bytes(AccessCtx::Kernel, SCRATCH, b"nope\0").unwrap();
    assert_eq!(
        call(&mut k, SYS, H::GetGidByName, vec![SCRATCH as u64, 0]),
        ret(XmRet::InvalidConfig)
    );
    assert_eq!(
        call(&mut k, SYS, H::GetGidByName, vec![SCRATCH as u64, 2]),
        ret(XmRet::InvalidParam)
    );
    assert_eq!(call(&mut k, SYS, H::GetGidByName, vec![0, 0]), ret(XmRet::InvalidParam));
    // unterminated name: fill 32 bytes without a NUL
    k.machine.mem.write_bytes(AccessCtx::Kernel, SCRATCH, &[b'x'; 32]).unwrap();
    assert_eq!(
        call(&mut k, SYS, H::GetGidByName, vec![SCRATCH as u64, 0]),
        ret(XmRet::InvalidParam)
    );
}

#[test]
fn write_console_goes_to_uart() {
    let mut k = kernel(KernelBuild::Legacy);
    k.machine.mem.write_bytes(AccessCtx::Kernel, SCRATCH, b"FDIR alive\n").unwrap();
    assert_eq!(call(&mut k, SYS, H::WriteConsole, vec![SCRATCH as u64, 11]), OK);
    assert!(k.machine.uart.captured().contains("FDIR alive"));
    assert_eq!(call(&mut k, SYS, H::WriteConsole, vec![SCRATCH as u64, 0]), ret(XmRet::NoAction));
    assert_eq!(
        call(&mut k, SYS, H::WriteConsole, vec![SCRATCH as u64, (-1i64) as u64]),
        ret(XmRet::InvalidParam)
    );
    assert_eq!(
        call(&mut k, SYS, H::WriteConsole, vec![SCRATCH as u64, 2000]),
        ret(XmRet::InvalidParam)
    );
}

// --- SPARC-specific ---------------------------------------------------------------------------

#[test]
fn sparc_atomics_read_modify_write() {
    let mut k = kernel(KernelBuild::Legacy);
    k.machine.mem.write_u32(AccessCtx::Kernel, SCRATCH, 10).unwrap();
    assert_eq!(call(&mut k, SYS, H::SparcAtomicAdd, vec![SCRATCH as u64, 5]), HcResult::Ret(10));
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 15);
    assert_eq!(call(&mut k, SYS, H::SparcAtomicAnd, vec![SCRATCH as u64, 0xC]), HcResult::Ret(15));
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 12);
    assert_eq!(call(&mut k, SYS, H::SparcAtomicOr, vec![SCRATCH as u64, 0x30]), HcResult::Ret(12));
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 0x3C);
    // foreign memory is rejected
    assert_eq!(
        call(&mut k, SYS, H::SparcAtomicAdd, vec![APP_BASE as u64, 1]),
        ret(XmRet::InvalidParam)
    );
    // unaligned
    assert_eq!(
        call(&mut k, SYS, H::SparcAtomicAdd, vec![(SCRATCH + 1) as u64, 1]),
        ret(XmRet::InvalidParam)
    );
}

#[test]
fn sparc_io_ports() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::SparcOutPort, vec![2, 0xAB]), OK);
    assert_eq!(call(&mut k, SYS, H::SparcInPort, vec![2, SCRATCH as u64]), OK);
    assert_eq!(k.machine.mem.read_u32(AccessCtx::Kernel, SCRATCH).unwrap(), 0xAB);
    assert_eq!(call(&mut k, SYS, H::SparcOutPort, vec![4, 0]), ret(XmRet::InvalidParam));
    assert_eq!(
        call(&mut k, SYS, H::SparcInPort, vec![9, SCRATCH as u64]),
        ret(XmRet::InvalidParam)
    );
    // I/O is privileged
    assert_eq!(call(&mut k, APP, H::SparcOutPort, vec![0, 0]), ret(XmRet::PermError));
}

#[test]
fn sparc_psr_pil_traps() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, APP, H::SparcGetPsr, vec![]), HcResult::Ret(0));
    assert_eq!(call(&mut k, APP, H::SparcSetPsr, vec![0xFF00_00AA]), OK);
    // reserved bits masked away
    assert_eq!(call(&mut k, APP, H::SparcGetPsr, vec![]), HcResult::Ret(0xAA));
    assert_eq!(call(&mut k, APP, H::SparcSetPil, vec![15]), OK);
    assert_eq!(call(&mut k, APP, H::SparcSetPil, vec![16]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, APP, H::SparcEnableTraps, vec![]), OK);
    assert_eq!(call(&mut k, APP, H::SparcDisableTraps, vec![]), OK);
    assert_eq!(call(&mut k, APP, H::SparcAckIrq, vec![8]), OK);
    assert_eq!(call(&mut k, APP, H::SparcAckIrq, vec![0]), ret(XmRet::InvalidParam));
    assert_eq!(call(&mut k, APP, H::SparcAckIrq, vec![16]), ret(XmRet::InvalidParam));
}

#[test]
fn sparc_iflush_checks_range() {
    let mut k = kernel(KernelBuild::Legacy);
    assert_eq!(call(&mut k, SYS, H::SparcIFlush, vec![SCRATCH as u64, 64]), OK);
    assert_eq!(call(&mut k, SYS, H::SparcIFlush, vec![SCRATCH as u64, 0]), ret(XmRet::NoAction));
    assert_eq!(
        call(&mut k, SYS, H::SparcIFlush, vec![APP_BASE as u64, 64]),
        ret(XmRet::InvalidParam)
    );
}

// --- dispatcher-level properties ------------------------------------------------------------

#[test]
fn every_hypercall_is_dispatchable_without_panicking() {
    // Smoke-test the whole surface with zeroed arguments on both builds.
    for build in [KernelBuild::Legacy, KernelBuild::Patched] {
        for def in xtratum::hypercall::ALL_HYPERCALLS {
            let mut k = kernel(build);
            let hc = RawHypercall::new_unchecked(def.id, vec![0; def.params.len()]);
            let _ = k.hypercall(SYS, &hc);
            // kernel may halt/reset (XM_halt_system & co) but must not panic
        }
    }
}

#[test]
fn garbage_register_model_missing_args_read_as_zero() {
    let mut k = kernel(KernelBuild::Legacy);
    // SetTimer with an empty arg vector behaves as (0,0,0): valid one-shot.
    let hc = RawHypercall::new_unchecked(H::SetTimer, vec![]);
    assert_eq!(k.hypercall(SYS, &hc).result, OK);
}

// --- name arguments -----------------------------------------------------------

/// Both name-taking services read the name the same way: a NUL within 32
/// bytes ends it, and an unterminated, non-UTF-8 or unreadable name is an
/// invalid parameter. A readable but unknown name is a configuration miss.
#[test]
fn name_arguments_keep_their_return_codes() {
    let end = SYS_BASE + SIZE; // first unmapped byte after SYS memory
    let (param, config) = (ret(XmRet::InvalidParam), ret(XmRet::InvalidConfig));
    let mut name31 = [b'x'; 32];
    name31[31] = 0;
    let cases: [(&str, u32, &[u8], HcResult, HcResult); 7] = [
        ("known", SCRATCH, b"queue\0", HcResult::Ret(1), HcResult::Ret(0)),
        ("31 bytes", SCRATCH, &name31, config, config),
        ("unterminated", SCRATCH, &[b'x'; 32], param, param),
        ("non-UTF-8", SCRATCH, b"qu\xffue\0", param, param),
        ("unmapped", 0, b"", param, param),
        ("ends at region end", end - 4, b"abc\0", config, config),
        ("crosses region end", end - 4, b"abcd", param, param),
    ];
    for (what, addr, bytes, gid_want, port_want) in cases {
        let mut k = kernel(KernelBuild::Legacy);
        if !bytes.is_empty() {
            k.machine.mem.write_bytes(AccessCtx::Kernel, addr, bytes).unwrap();
        }
        let gid = call(&mut k, SYS, H::GetGidByName, vec![addr as u64, 1]);
        assert_eq!(gid, gid_want, "{what}: XM_get_gid_by_name");
        let port = call(&mut k, SYS, H::CreateQueuingPort, vec![addr as u64, 2, 32, 0]);
        assert_eq!(port, port_want, "{what}: XM_create_queuing_port");
    }
}
