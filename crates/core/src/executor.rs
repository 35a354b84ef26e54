//! The parallel work-unit executor behind every campaign mode.
//!
//! Single-call campaigns, sequence campaigns, fuzz rounds and the
//! small-scope checker are all lists of independent work units whose
//! results must come back in unit order, whatever the thread count.
//! [`Executor::run`] owns that machinery once:
//!
//! - one `std::thread::scope` worker per [`Lane`], each building its
//!   per-worker state (typically a boot snapshot and its arena) on its own
//!   thread, so set-up never serialises, and keeping it across runs;
//! - **work stealing** over [`WorkStealQueues`]: the unit list is pre-split
//!   into one contiguous index range per worker, each packed into a single
//!   `AtomicU64`. A worker pops chunk-sized runs off the *front* of its own
//!   range with a CAS; once empty it steals runs from the *back* of a
//!   victim's range, so no worker idles while another still holds units;
//! - reassembly: every claimed run carries its start index, and the
//!   outputs are concatenated in start order, so results are
//!   byte-identical whatever the steal schedule;
//! - per-worker [`LocalMetrics`], flights and latency histograms, folded
//!   once when the mode finishes ([`Executor::finish`]), keeping shared
//!   state off the hot path entirely.

use crate::classify::CrashClass;
use crate::flight::{FlightLog, TestFlight, DEFAULT_RING_CAPACITY};
use crate::metrics::{latency_rows, LocalMetrics, MetricsReport};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One worker's private bookkeeping, handed to the run function with
/// every claimed range.
pub(crate) struct Lane {
    /// Contention-free run counters.
    pub(crate) local: LocalMetrics,
    /// Flights kept for the triage trace (recording modes only).
    pub(crate) flights: Vec<TestFlight>,
    /// Per-hypercall simulated-cost histograms from the flights.
    pub(crate) hist: flightrec::HistogramSet,
    /// Whether the range being run was stolen from another worker.
    pub(crate) stolen: bool,
}

impl Lane {
    fn new(n_suites: usize) -> Self {
        Lane {
            local: LocalMetrics::new(n_suites),
            flights: Vec::new(),
            hist: flightrec::HistogramSet::new(64),
            stolen: false,
        }
    }

    /// Folds the hypercall costs of `events` into the latency histograms.
    pub(crate) fn observe_latencies(&mut self, events: &[flightrec::Event]) {
        for e in events {
            if e.kind == flightrec::EventKind::HypercallExit {
                self.hist.observe(e.code, e.b);
            }
        }
    }

    /// Closes one unit's recording window: stamps the terminal `TestEnd`
    /// event, drains the worker's ring, folds hypercall costs into the
    /// latency histograms and files the flight under `index`.
    pub(crate) fn end_flight(&mut self, index: usize, class: CrashClass) {
        flightrec::record_timeless(
            flightrec::EventKind::TestEnd,
            flightrec::NO_PARTITION,
            class.index() as u32,
            0,
            0,
        );
        let drained = flightrec::drain();
        self.observe_latencies(&drained.events);
        self.flights.push(TestFlight { index, events: drained.events, dropped: drained.dropped });
    }
}

/// A fixed pool of workers with persistent per-worker state `S`.
pub(crate) struct Executor<S> {
    lanes: Vec<Lane>,
    states: Vec<Option<S>>,
    recorder: bool,
}

impl<S: Send> Executor<S> {
    /// A pool of `threads` workers (0 = one per available core), capped at
    /// `max_units`, the most units any one run will hand out. With
    /// `recorder` on, every worker runs the flight recorder.
    pub(crate) fn new(threads: usize, max_units: usize, n_suites: usize, recorder: bool) -> Self {
        let n = resolve_threads(threads, max_units);
        Executor {
            lanes: (0..n).map(|_| Lane::new(n_suites)).collect(),
            states: (0..n).map(|_| None).collect(),
            recorder,
        }
    }

    /// Runs units `0..n_units` and returns the outputs of `run` in unit
    /// order. Each worker first builds its state with `setup` on its own
    /// thread unless an earlier run already did; whatever `setup` records
    /// belongs to no unit and is discarded. `run` gets a claimed `lo..hi`
    /// range and returns that range's outputs (any number per unit).
    /// `chunk` is the claim size (0 = chosen from the unit and worker
    /// counts); it only affects scheduling, never results.
    pub(crate) fn run<R: Send>(
        &mut self,
        n_units: usize,
        chunk: usize,
        setup: impl Fn(&mut Lane) -> S + Sync,
        run: impl Fn(&mut S, &mut Lane, Range<usize>) -> Vec<R> + Sync,
    ) -> Vec<R> {
        let chunk = resolve_chunk(chunk, n_units, self.lanes.len());
        let queues = WorkStealQueues::new(n_units, self.lanes.len());
        let (queues, setup, run, recorder) = (&queues, &setup, &run, self.recorder);
        let mut runs: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .zip(&mut self.states)
                .enumerate()
                .map(|(w, (lane, state))| {
                    scope.spawn(move || {
                        if recorder {
                            flightrec::enable(DEFAULT_RING_CAPACITY);
                        }
                        let state = state.get_or_insert_with(|| setup(lane));
                        let _ = flightrec::drain();
                        let mut done = Vec::new();
                        while let Some((lo, hi, stolen)) = queues.next(w, chunk) {
                            if stolen {
                                lane.local.note_steal();
                            }
                            lane.stolen = stolen;
                            done.push((lo, run(state, lane, lo..hi)));
                        }
                        flightrec::disable();
                        done
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("campaign worker panicked")).collect()
        });
        runs.sort_unstable_by_key(|&(lo, _)| lo);
        runs.into_iter().flat_map(|(_, out)| out).collect()
    }

    /// Folds every worker's counters into the run's report. With
    /// `keep_flights`, also returns the flights in unit order and fills
    /// the report's hypercall latency rows.
    pub(crate) fn finish(
        self,
        started: Instant,
        keep_flights: bool,
    ) -> (MetricsReport, Option<FlightLog>) {
        let threads = self.lanes.len();
        let mut lanes = self.lanes.into_iter();
        let mut total = lanes.next().expect("an executor has at least one worker");
        for lane in lanes {
            total.local.merge(&lane.local);
            total.hist.merge(&lane.hist);
            total.flights.extend(lane.flights);
        }
        let mut report = total.local.report(started.elapsed(), threads);
        let flight = keep_flights.then(|| {
            report.hc_latency = latency_rows(&total.hist);
            total.flights.sort_by_key(|f| f.index);
            FlightLog { tests: total.flights }
        });
        (report, flight)
    }
}

/// Packs a contiguous, not-yet-claimed unit index range `[lo, hi)` into
/// one word: `lo` in the low 32 bits, `hi` in the high 32.
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

fn unpack(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// Claims up to `chunk` indices from one packed range with a CAS loop —
/// from the front (the owner's side) or the back (the thief's side).
/// Returns the claimed `[lo, hi)` run, or `None` when the range is empty.
fn claim(slot: &AtomicU64, chunk: usize, front: bool) -> Option<(usize, usize)> {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            return None;
        }
        let take = (chunk as u32).min(hi - lo);
        let (next, run) = if front {
            (pack(lo + take, hi), (lo as usize, (lo + take) as usize))
        } else {
            (pack(lo, hi - take), ((hi - take) as usize, hi as usize))
        };
        match slot.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return Some(run),
            Err(actual) => cur = actual,
        }
    }
}

/// Work-stealing distribution of the unit list: one contiguous index
/// range per worker, each packed `lo|hi` into a single `AtomicU64`. The
/// owner pops chunk-sized runs off the front; a worker whose range is
/// empty steals runs off the back of a victim's range. Every index is
/// claimed exactly once (the CAS publishes a strictly shrinking range, so
/// there is no ABA hazard), which is what keeps results independent of
/// the steal schedule: outputs are reassembled by run start index, not by
/// execution order.
struct WorkStealQueues {
    ranges: Vec<AtomicU64>,
}

impl WorkStealQueues {
    /// Splits `[0, n_units)` evenly (front-loaded remainder) across
    /// `n_workers` ranges.
    fn new(n_units: usize, n_workers: usize) -> Self {
        assert!(n_units <= u32::MAX as usize, "unit index must fit u32");
        let per = n_units / n_workers;
        let extra = n_units % n_workers;
        let mut lo = 0usize;
        let ranges = (0..n_workers)
            .map(|w| {
                let hi = lo + per + usize::from(w < extra);
                let slot = AtomicU64::new(pack(lo as u32, hi as u32));
                lo = hi;
                slot
            })
            .collect();
        WorkStealQueues { ranges }
    }

    /// Next run for worker `w`: front of its own range, else stolen from
    /// the back of the first non-empty victim (scanned starting after `w`
    /// so thieves spread across victims). The flag reports a steal.
    fn next(&self, w: usize, chunk: usize) -> Option<(usize, usize, bool)> {
        if let Some((lo, hi)) = claim(&self.ranges[w], chunk, true) {
            return Some((lo, hi, false));
        }
        let n = self.ranges.len();
        (1..n).find_map(|off| {
            claim(&self.ranges[(w + off) % n], chunk, false).map(|(lo, hi)| (lo, hi, true))
        })
    }
}

fn resolve_threads(requested: usize, n_units: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        requested
    };
    n.min(n_units).max(1)
}

fn resolve_chunk(requested: usize, n_units: usize, n_threads: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    // ~8 chunks per worker balances load without shredding locality.
    (n_units / (n_threads * 8)).clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uneven_units_come_back_in_order_exactly_once() {
        for threads in [1usize, 4, 16] {
            let mut ex: Executor<Vec<usize>> = Executor::new(threads, 200, 1, false);
            let out = ex.run(
                200,
                3,
                |_| Vec::new(),
                |seen, _, range| {
                    for i in range.clone() {
                        // Uneven unit costs: every seventh unit is slow, so
                        // fast workers run out and steal.
                        if i % 7 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        seen.push(i);
                    }
                    range.collect()
                },
            );
            assert_eq!(out, (0..200).collect::<Vec<_>>(), "unit order at {threads} threads");
            let mut ran: Vec<usize> = ex.states.iter().flatten().flatten().copied().collect();
            ran.sort_unstable();
            assert_eq!(ran, (0..200).collect::<Vec<_>>(), "each unit once at {threads} threads");
            let (report, flight) = ex.finish(Instant::now(), false);
            assert_eq!(report.threads, threads);
            assert!(flight.is_none());
        }
    }

    #[test]
    fn worker_state_persists_across_runs() {
        let mut ex: Executor<usize> = Executor::new(2, 10, 1, false);
        let setups = AtomicU64::new(0);
        for round in 0..3 {
            let out = ex.run(
                10,
                0,
                |_| {
                    setups.fetch_add(1, Ordering::Relaxed);
                    0
                },
                |runs, _, range| {
                    *runs += 1;
                    range.map(|i| i + round).collect()
                },
            );
            assert_eq!(out, (round..round + 10).collect::<Vec<_>>());
        }
        assert_eq!(setups.load(Ordering::Relaxed), 2, "one set-up per worker, not per run");
    }

    #[test]
    fn steal_origin_is_reported() {
        let q = WorkStealQueues::new(20, 2);
        // Worker 1 drains its own half first (not stolen), then steals
        // from worker 0's range.
        let mut own = 0;
        let mut stolen = 0;
        while let Some((_, _, theft)) = q.next(1, 5) {
            if theft {
                stolen += 1;
            } else {
                own += 1;
            }
        }
        assert_eq!(own, 2, "worker 1's own 10 units in 2 chunks");
        assert_eq!(stolen, 2, "worker 0's 10 units stolen in 2 chunks");
    }

    #[test]
    fn work_steal_covers_every_index_exactly_once() {
        let q = WorkStealQueues::new(100, 4);
        let mut seen = [false; 100];
        // One thief drains all four ranges: its own from the front, the
        // victims' from the back.
        while let Some((lo, hi, _)) = q.next(2, 7) {
            assert!(lo < hi && hi <= 100);
            for s in &mut seen[lo..hi] {
                assert!(!*s, "index claimed twice");
                *s = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index claimed");
    }

    #[test]
    fn work_steal_empty_and_concurrent() {
        assert_eq!(WorkStealQueues::new(0, 3).next(0, 8), None);
        // Hammer one queue set from several threads; the union of claims
        // must partition the index space.
        let q = WorkStealQueues::new(10_000, 8);
        let mut claims: Vec<(usize, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|w| {
                    let q = &q;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some((lo, hi, _)) = q.next(w, 13) {
                            mine.push((lo, hi));
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        claims.sort_unstable();
        let mut next = 0;
        for (lo, hi) in claims {
            assert_eq!(lo, next, "gap or overlap at {lo}");
            next = hi;
        }
        assert_eq!(next, 10_000);
    }

    #[test]
    fn thread_and_chunk_resolution() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(16, 3), 3);
        assert_eq!(resolve_threads(2, 0), 1);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_chunk(10, 1000, 4), 10);
        assert_eq!(resolve_chunk(0, 2662, 8), 41);
        assert_eq!(resolve_chunk(0, 5, 8), 1);
        assert_eq!(resolve_chunk(0, 1_000_000, 2), 64);
    }
}
