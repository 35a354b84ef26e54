//! Campaign-level consumers of the flight recorder: the Perfetto trace
//! layout and the triage timeline renderer.
//!
//! The recorder itself ([`flightrec`]) knows nothing about partitions,
//! hypercalls or test cases — it hands back raw [`flightrec::Event`]s.
//! This module owns the mapping from those events to human-meaningful
//! tracks, span names and timeline lines, using the testbed's partition
//! names and the XtratuM hypercall table.

use crate::classify::CrashClass;
use crate::exec::TestRecord;
use flightrec::{ChromeTraceWriter, Event, EventKind, ExitResult, NO_PARTITION};
use xtratum::hm::HmAction;
use xtratum::hypercall::HypercallId;
use xtratum::kernel::NoReturnKind;
use xtratum::observe::OpsEvent;

/// Ring capacity used per worker/triage run. Generous for a four-frame
/// test (a few hundred events); sized so even event-storm tests keep
/// their tail.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Everything recorded while one test executed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TestFlight {
    /// Campaign case index this flight belongs to.
    pub index: usize,
    /// Chronological events.
    pub events: Vec<Event>,
    /// Events lost to ring overflow (oldest first were dropped).
    pub dropped: u64,
}

impl TestFlight {
    /// Highest timestamp in the flight (0 when empty).
    pub fn span_us(&self) -> u64 {
        self.events.last().map(|e| e.t_us).unwrap_or(0)
    }
}

/// Per-test flight recordings for a whole campaign, in campaign order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// One entry per executed test.
    pub tests: Vec<TestFlight>,
}

/// Display names used when rendering events.
#[derive(Debug, Clone, Default)]
pub struct FlightNames {
    /// Partition names by id.
    pub partitions: Vec<String>,
}

impl FlightNames {
    pub fn partition(&self, id: u16) -> String {
        if id == NO_PARTITION {
            return "kernel".into();
        }
        match self.partitions.get(id as usize) {
            Some(n) => format!("P{id} {n}"),
            None => format!("P{id}"),
        }
    }
}

fn hypercall_name(code: u32) -> &'static str {
    HypercallId::from_u32(code).map(|id| id.name()).unwrap_or("XM_?")
}

/// One-line human description of an event (used by the triage timeline).
pub fn describe_event(e: &Event, names: &FlightNames) -> String {
    let who = names.partition(e.partition);
    match e.kind {
        EventKind::TimerExpiry => format!("timer unit {} expired (irq {})", e.code, e.a),
        EventKind::IrqRaised => format!("irq {} raised", e.code),
        EventKind::UartPanic => "console: kernel panic banner".into(),
        EventKind::SimCrashed => "SIMULATOR CRASHED".into(),
        EventKind::HypercallEnter => {
            format!("{who}: {}({:#x}, {:#x}, …)", hypercall_name(e.code), e.a, e.b)
        }
        EventKind::HypercallExit => {
            let outcome = match flightrec::decode_result(e.a) {
                ExitResult::Returned(code) => format!("returned {code}"),
                ExitResult::NoReturn(k) => {
                    format!("did not return ({})", NoReturnKind::flight_name(k))
                }
            };
            format!("{who}: {} {outcome} after {} us", hypercall_name(e.code), e.b)
        }
        EventKind::SlotBegin => format!("slot {} begins for {who} ({} us)", e.code, e.a),
        EventKind::SlotEnd => format!("slot {} ends for {who}", e.code),
        EventKind::HmEvent => {
            format!("HM event class {} on {who} -> action {}", e.a, HmAction::flight_name(e.code))
        }
        EventKind::Ops => format!("ops: {} ({who})", OpsEvent::flight_name(e.code)),
        EventKind::SystemReset => {
            format!("system {} reset", if e.code == 0 { "cold" } else { "warm" })
        }
        EventKind::KernelHalt => format!(
            "KERNEL HALTED ({})",
            if e.code == 0 { "XM_halt_system" } else { "fatal HM action" }
        ),
        EventKind::TestBegin => format!("test case #{} begins", e.code),
        EventKind::TestEnd => format!(
            "test ends: {}",
            CrashClass::ALL.get(e.code as usize).map(|c| c.label()).unwrap_or("?")
        ),
        EventKind::SnapshotClone => "boot snapshot cloned".into(),
        EventKind::VtimerExpiry => format!(
            "vtimer expiry delivered to {who} ({} clock, {} expirations)",
            if e.code == 0 { "HW" } else { "exec" },
            e.a
        ),
        EventKind::PortCreated => format!(
            "{who} created {} port desc {} ({})",
            if e.b == 0 { "sampling" } else { "queuing" },
            e.code,
            if e.a == 0 { "source" } else { "destination" }
        ),
    }
}

/// Renders the last `last_n` events of a flight as a timeline, one line
/// per event, for `skrt-repro triage`.
pub fn render_timeline(flight: &TestFlight, names: &FlightNames, last_n: usize) -> String {
    let mut out = String::new();
    let skipped = flight.events.len().saturating_sub(last_n);
    if flight.dropped > 0 {
        out.push_str(&format!("  … {} earlier events lost to ring overflow\n", flight.dropped));
    }
    if skipped > 0 {
        out.push_str(&format!("  … {skipped} earlier events omitted (--last {last_n})\n"));
    }
    for e in flight.events.iter().skip(skipped) {
        out.push_str(&format!("  t={:>9} us  {}\n", e.t_us, describe_event(e, names)));
    }
    out
}

const PID: u64 = 1;
const TID_EXEC: u64 = 0;
const TID_KERNEL: u64 = 1;
const TID_COUNTERS: u64 = 2;
const TID_PART_BASE: u64 = 10;

fn track_for(e: &Event) -> u64 {
    if e.partition == NO_PARTITION {
        TID_KERNEL
    } else {
        TID_PART_BASE + e.partition as u64
    }
}

/// Gap inserted between consecutive tests on the shared timeline, so the
/// per-test clusters stay visually separable in the Perfetto UI.
const TEST_GAP_US: u64 = 50;

/// Lays a campaign's [`FlightLog`] out as a Chrome/Perfetto `trace.json`
/// document: one process, an executor track carrying a span per test,
/// a kernel track for unattributed events, and one track per partition
/// carrying its scheduler slots and hypercall spans. Tests execute on a
/// virtual per-test clock, so they are concatenated onto one cumulative
/// timeline.
pub fn export_chrome_trace(log: &FlightLog, records: &[TestRecord], names: &FlightNames) -> String {
    export_chrome_trace_with_counters(log, records, names, &[])
}

/// A named counter track: `(ts_us, value)` samples on the series' own
/// time axis, starting at 0. The exporter appends them after the test
/// flights so the document's timestamps stay globally non-decreasing.
#[derive(Debug, Clone, Default)]
pub struct CounterSeries {
    pub name: String,
    pub samples: Vec<(u64, f64)>,
}

/// [`export_chrome_trace`] plus Perfetto counter tracks (`ph: C`) — one
/// stacked chart per series name, e.g. coverage-map occupancy and
/// execution throughput per fuzzing round.
pub fn export_chrome_trace_with_counters(
    log: &FlightLog,
    records: &[TestRecord],
    names: &FlightNames,
    counters: &[CounterSeries],
) -> String {
    let mut w = ChromeTraceWriter::new();
    w.process_name(PID, "skrt campaign");
    w.thread_name(PID, TID_EXEC, "executor");
    w.thread_name(PID, TID_KERNEL, "kernel");
    for (id, _) in names.partitions.iter().enumerate() {
        w.thread_name(PID, TID_PART_BASE + id as u64, &names.partition(id as u16));
    }

    let mut base = 0u64;
    for flight in &log.tests {
        let span = flight.span_us();
        let (label, class) = match records.get(flight.index) {
            Some(r) => (r.case.display_call(), r.classification.class.label()),
            None => (format!("test #{}", flight.index), "?"),
        };
        let args = format!(
            "{{\"case\":{},\"class\":\"{class}\",\"events\":{},\"dropped\":{}}}",
            flight.index,
            flight.events.len(),
            flight.dropped
        );
        w.complete(PID, TID_EXEC, base, span.max(1), &label, Some(&args));
        for e in &flight.events {
            let ts = base + e.t_us;
            let tid = track_for(e);
            match e.kind {
                EventKind::SlotBegin => {
                    w.begin(PID, tid, ts, &format!("slot {}", e.code), None);
                }
                EventKind::SlotEnd => w.end(PID, tid, ts),
                EventKind::HypercallEnter => {
                    let args = format!("{{\"arg0\":{},\"arg1\":{}}}", e.a, e.b);
                    w.begin(PID, tid, ts, hypercall_name(e.code), Some(&args));
                }
                EventKind::HypercallExit => w.end(PID, tid, ts),
                EventKind::TestBegin | EventKind::TestEnd => {}
                EventKind::SnapshotClone => {
                    w.instant(PID, TID_EXEC, ts, e.kind.name(), None);
                }
                _ => {
                    w.instant(PID, tid, ts, &describe_event(e, names), None);
                }
            }
        }
        // A test that died mid-slot (halt, crash) leaves spans open;
        // close them at the test's end so spans never leak across tests.
        let end = base + span;
        w.close_open(PID, TID_KERNEL, end);
        for id in 0..names.partitions.len() {
            w.close_open(PID, TID_PART_BASE + id as u64, end);
        }
        base = end + TEST_GAP_US;
    }
    if counters.iter().any(|c| !c.samples.is_empty()) {
        w.thread_name(PID, TID_COUNTERS, "counters");
        // Interleave the series in timestamp order: the writer clamps
        // timestamps to be globally non-decreasing, so emitting one
        // series at a time would flatten any later series that starts
        // before the previous one ended.
        let mut all: Vec<(u64, &str, f64)> = counters
            .iter()
            .flat_map(|c| c.samples.iter().map(|&(ts, v)| (ts, c.name.as_str(), v)))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(b.1)));
        for (ts, name, value) in all {
            w.counter(PID, TID_COUNTERS, base + ts, name, value);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> FlightNames {
        FlightNames { partitions: vec!["FDIR".into(), "AOCS".into()] }
    }

    fn ev(t: u64, kind: EventKind, partition: u16, code: u32, a: u64, b: u64) -> Event {
        Event { t_us: t, kind, partition, code, a, b }
    }

    #[test]
    fn describe_covers_outcomes() {
        let n = names();
        let enter = ev(5, EventKind::HypercallEnter, 0, HypercallId::SetTimer as u32, 1, 1);
        assert!(
            describe_event(&enter, &n).contains("XM_set_timer"),
            "{}",
            describe_event(&enter, &n)
        );
        let exit = ev(
            10,
            EventKind::HypercallExit,
            0,
            HypercallId::SetTimer as u32,
            flightrec::encode_no_return(NoReturnKind::SystemHalt.flight_code()),
            5,
        );
        let d = describe_event(&exit, &n);
        assert!(d.contains("did not return (SystemHalt)"), "{d}");
        let halt = ev(10, EventKind::KernelHalt, NO_PARTITION, 1, 0, 0);
        assert!(describe_event(&halt, &n).contains("KERNEL HALTED"));
    }

    #[test]
    fn timeline_tail_limits_and_reports_omissions() {
        let n = names();
        let flight = TestFlight {
            index: 3,
            events: (0..10).map(|i| ev(i, EventKind::IrqRaised, NO_PARTITION, 6, 0, 0)).collect(),
            dropped: 2,
        };
        let text = render_timeline(&flight, &n, 4);
        assert!(text.contains("2 earlier events lost"));
        assert!(text.contains("6 earlier events omitted"));
        assert_eq!(text.lines().filter(|l| l.contains("irq 6 raised")).count(), 4);
    }

    #[test]
    fn export_produces_balanced_spans() {
        let n = names();
        let log = FlightLog {
            tests: vec![TestFlight {
                index: 0,
                events: vec![
                    ev(0, EventKind::TestBegin, NO_PARTITION, 0, 0, 0),
                    ev(100, EventKind::SlotBegin, 1, 0, 50_000, 0),
                    ev(110, EventKind::HypercallEnter, 1, 4, 0, 0),
                    ev(115, EventKind::HypercallExit, 1, 4, flightrec::encode_return(0), 5),
                    // slot never ends: the exporter must auto-close it
                    ev(120, EventKind::KernelHalt, NO_PARTITION, 0, 0, 0),
                ],
                dropped: 0,
            }],
        };
        let json = export_chrome_trace(&log, &[], &n);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("P1 AOCS"));
        assert!(!json.contains("\"ph\":\"C\""), "no counter track without series");
    }

    #[test]
    fn counter_series_append_after_flights_in_ts_order() {
        let n = names();
        let log = FlightLog {
            tests: vec![TestFlight {
                index: 0,
                events: vec![ev(40, EventKind::IrqRaised, NO_PARTITION, 6, 0, 0)],
                dropped: 0,
            }],
        };
        let counters = vec![
            CounterSeries { name: "coverage_cells".into(), samples: vec![(0, 3.0), (100, 9.0)] },
            CounterSeries { name: "execs_per_sec".into(), samples: vec![(50, 1000.0)] },
        ];
        let json = export_chrome_trace_with_counters(&log, &[], &n, &counters);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 3);
        assert!(json.contains("\"name\":\"counters\""));
        // Counter timestamps sit after the flight timeline (base = 40 +
        // the inter-test gap) and keep their relative order.
        let a = json.find("\"ts\":90,\"name\":\"coverage_cells\",\"args\":{\"value\":3}");
        let b = json.find("\"ts\":140,\"name\":\"execs_per_sec\"");
        let c = json.find("\"ts\":190,\"name\":\"coverage_cells\",\"args\":{\"value\":9}");
        assert!(a.is_some() && b.is_some() && c.is_some(), "{json}");
        assert!(a < b && b < c);
    }
}
