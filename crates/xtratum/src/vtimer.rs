//! Virtual timers (clock / timer management).
//!
//! XM offers each partition one timer per clock: `XM_HW_CLOCK` (wall time)
//! and `XM_EXEC_CLOCK` (partition execution time). Hardware-clock timers
//! are managed in software by the kernel: at every scheduling point the
//! kernel processes expirations, delivers the virtual interrupt, and
//! re-arms periodic timers.
//!
//! ## The legacy `XM_set_timer` defect (paper Section IV)
//!
//! > "When invoking XM_set_timer with small intervals, such as 1 µs, the
//! > next execution time is always expired by the time it is checked and
//! > the timer handler is invoked again. This leads to a recursive loop
//! > resulting in a stack overflow."
//!
//! [`process_hw_timer`] models exactly that: the handler costs
//! `handler_cost_us` of kernel time; if the re-armed expiry is already in
//! the past *when the handler finishes*, the handler re-enters recursively
//! and kernel stack depth grows. Once depth exceeds the kernel stack
//! capacity the function reports a stack overflow, which the kernel turns
//! into a fatal HM event (XM halt). Intervals larger than the handler
//! cost never recurse: every handler returns before the next expiry, so
//! the catch-up runs at constant stack depth — which is why the issue
//! only bites for tiny intervals.
//!
//! That healthy catch-up is computed in closed form: all expiries but the
//! last re-arm at or before `now`, so they are skipped with one division
//! (a 13 µs timer over a 250 ms frame is one step, not ~19,000). Only the
//! last expiry runs through the per-expiry handler loop, because its
//! re-arm is where saturation at `i64::MAX` can make the handler recurse.
//! With a non-negative handler cost the loop therefore makes at most
//! `stack_limit + 1` passes in every regime.

/// One partition virtual timer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VTimer {
    /// Whether the timer is armed.
    pub armed: bool,
    /// Absolute expiry on the timer's clock (µs).
    pub next_expiry: i64,
    /// Re-arm period; `<= 0` means one-shot (the legacy build reaches
    /// here with negative intervals — they behave as one-shot).
    pub interval: i64,
    /// Expirations delivered since arming (diagnostics).
    pub delivered: u64,
}

impl VTimer {
    /// Arms the timer.
    pub fn arm(&mut self, abs: i64, interval: i64) {
        self.armed = true;
        self.next_expiry = abs;
        self.interval = interval;
        self.delivered = 0;
    }

    /// Disarms the timer.
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// True when the timer is armed with an expiry at or before `now` —
    /// the "needs processing" predicate the kernel's event horizon
    /// summarises across all timers.
    pub fn due_by(&self, now: i64) -> bool {
        self.armed && self.next_expiry <= now
    }
}

/// Result of processing a hardware-clock virtual timer up to `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// Processing finished; `delivered` expirations were turned into
    /// virtual interrupts.
    Done {
        /// Number of expirations delivered during this processing pass.
        delivered: u32,
    },
    /// The handler recursion exhausted the kernel stack after `depth`
    /// nested frames — the legacy `XM_set_timer(0, 1, 1)` failure. The
    /// kernel must raise a fatal HM event.
    StackOverflow {
        /// Nesting depth reached when the stack gave out.
        depth: u32,
        /// Expirations delivered before the overflow.
        delivered: u32,
    },
}

/// Processes expirations of a software-managed (hardware-clock) virtual
/// timer up to time `now`.
///
/// `handler_cost_us` is the simulated execution time of one handler
/// invocation; `stack_limit` is the kernel stack capacity in frames.
pub fn process_hw_timer(
    t: &mut VTimer,
    now: i64,
    handler_cost_us: i64,
    stack_limit: u32,
) -> ProcessOutcome {
    let mut delivered = 0u32;
    if t.armed && t.interval > handler_cost_us.max(0) && t.next_expiry < now {
        // Each handler returns before the next expiry, so the expiries at
        // or before `now` are delivered one after another at depth 1. All
        // but the last re-arm at or before `now`, which cannot saturate:
        // skip them in closed form and leave the last to the loop. (The
        // per-call count wraps past `u32::MAX` expiries, 15 simulated
        // hours at 13 µs, as the loop's did.)
        let interval = i128::from(t.interval);
        let skipped = (i128::from(now) - i128::from(t.next_expiry)) / interval;
        t.next_expiry = (i128::from(t.next_expiry) + skipped * interval) as i64;
        t.delivered += skipped as u64;
        delivered = skipped as u32;
    }
    let mut depth = 1u32;
    // `cursor` tracks kernel time while handlers execute.
    let mut cursor = now.min(t.next_expiry);
    while t.armed && t.next_expiry <= now {
        delivered += 1;
        t.delivered += 1;
        cursor = cursor.max(t.next_expiry).saturating_add(handler_cost_us);
        if t.interval > 0 {
            t.next_expiry = t.next_expiry.saturating_add(t.interval);
            if t.next_expiry <= cursor {
                // The re-armed expiry is already past when the handler
                // checks it: the handler is re-entered without unwinding.
                depth += 1;
                if depth > stack_limit {
                    return ProcessOutcome::StackOverflow { depth, delivered };
                }
            } else {
                // Handler returned before the next expiry: plain catch-up
                // iteration at the original stack depth.
                depth = 1;
            }
        } else {
            t.disarm();
        }
    }
    ProcessOutcome::Done { delivered }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COST: i64 = 12;
    const LIMIT: u32 = 64;

    /// The per-expiry handler loop `process_hw_timer` ran before the
    /// closed-form catch-up: one pass per expiry in every regime. It is
    /// the reference the closed form must agree with exactly.
    fn reference_process(
        t: &mut VTimer,
        now: i64,
        handler_cost_us: i64,
        stack_limit: u32,
    ) -> ProcessOutcome {
        let mut delivered = 0u32;
        let mut depth = 1u32;
        let mut cursor = now.min(t.next_expiry);
        while t.armed && t.next_expiry <= now {
            delivered += 1;
            t.delivered += 1;
            cursor = cursor.max(t.next_expiry).saturating_add(handler_cost_us);
            if t.interval > 0 {
                t.next_expiry = t.next_expiry.saturating_add(t.interval);
                if t.next_expiry <= cursor {
                    depth += 1;
                    if depth > stack_limit {
                        return ProcessOutcome::StackOverflow { depth, delivered };
                    }
                } else {
                    depth = 1;
                }
            } else {
                t.disarm();
            }
        }
        ProcessOutcome::Done { delivered }
    }

    /// Runs both implementations on copies of `t` and asserts they agree
    /// on the outcome and on every field of the timer afterwards.
    fn assert_matches_reference(t: VTimer, now: i64, cost: i64, limit: u32) {
        let (mut fast, mut slow) = (t, t);
        let got = process_hw_timer(&mut fast, now, cost, limit);
        let want = reference_process(&mut slow, now, cost, limit);
        assert_eq!((got, fast), (want, slow), "timer {t:?}, now {now}, cost {cost}, limit {limit}");
    }

    /// SplitMix64, so the property test needs no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// The closed form agrees with the reference loop on randomized
    /// timers. Spans stay below a few thousand expiries so the reference
    /// loop stays cheap; `now` is anchored near both ends of the `i64`
    /// range, so the saturating re-arm at `i64::MAX` is hit often.
    #[test]
    fn closed_form_matches_reference_loop() {
        let mut rng = Rng(0x5EED);
        for _ in 0..200_000 {
            let cost = rng.pick(&[0, 1, COST, 1_000, -3]);
            let interval = match rng.below(8) {
                0 => rng.pick(&[i64::MIN, -1, 0]),
                1 => cost,
                2 => cost + 1,
                3 => cost + 2,
                4 => i64::MAX,
                5 => 1 + rng.below(1 << 40) as i64,
                _ => 1 + rng.below(200) as i64,
            };
            let step = interval.max(1);
            let span = step.saturating_mul(rng.below(3_000) as i64);
            let jitter = rng.below(step.min(1 << 20) as u64) as i64;
            // Where the window sits: near `i64::MIN`, near `i64::MAX`
            // (including `now == i64::MAX`), or anywhere in between.
            let (next_expiry, now) = match rng.below(3) {
                0 => {
                    let next = i64::MIN + rng.below(1_000) as i64;
                    (next, next.saturating_add(span).saturating_add(jitter))
                }
                1 => {
                    let now = if rng.below(2) == 0 {
                        i64::MAX
                    } else {
                        i64::MAX - rng.below(1_000) as i64
                    };
                    (now.saturating_sub(span).saturating_sub(jitter), now)
                }
                _ => {
                    let next = rng.next() as i64 / 2;
                    (next, next.saturating_add(span).saturating_add(jitter))
                }
            };
            if cost < 0 && now == i64::MAX {
                // A negative cost never lets the saturated handler recurse,
                // so both implementations would loop forever.
                continue;
            }
            let t = VTimer {
                armed: rng.below(10) != 0,
                next_expiry,
                interval,
                delivered: rng.below(1_000),
            };
            let limit = rng.pick(&[0, 1, 2, LIMIT]);
            assert_matches_reference(t, now, cost, limit);
        }
    }

    /// The edges the closed form has to get right, one by one.
    #[test]
    fn closed_form_matches_reference_on_edges() {
        let armed =
            |next_expiry, interval| VTimer { armed: true, next_expiry, interval, delivered: 7 };
        for limit in [0, 1, 2, LIMIT] {
            // `now == i64::MAX`: the last re-arm saturates onto `now` and
            // the handler recurses until the stack gives out.
            for next in [i64::MAX - 1_000, i64::MAX - 13, i64::MAX - 1, i64::MAX] {
                for interval in [COST + 1, 100, 10_000] {
                    assert_matches_reference(armed(next, interval), i64::MAX, COST, limit);
                }
            }
            // `next_expiry` near `i64::MIN` and near `i64::MAX`.
            for next in [i64::MIN, i64::MIN + 1, i64::MIN + 12] {
                for now in [i64::MIN, i64::MIN + 100, i64::MIN + 5_000] {
                    assert_matches_reference(armed(next, COST + 1), now, COST, limit);
                }
            }
            for now in [i64::MAX - 5, i64::MAX - 1] {
                // The last handler's end saturates although its re-arm
                // lands after `now`.
                assert_matches_reference(armed(i64::MAX - 10, 100), now, 50, limit);
                assert_matches_reference(armed(i64::MAX - 10, 100), now, COST, limit);
            }
            // `interval` equal to the cost, one above it, and `<= 0`.
            for interval in [COST, COST + 1, 0, -1, i64::MIN] {
                assert_matches_reference(armed(1, interval), 50_000, COST, limit);
                assert_matches_reference(armed(1, interval), 1, COST, limit);
            }
            // A disarmed timer whose expiry lies in the past.
            let disarmed = VTimer { armed: false, next_expiry: 1, interval: 50, delivered: 3 };
            assert_matches_reference(disarmed, 50_000, COST, limit);
            // Not yet due.
            assert_matches_reference(armed(100, 50), 99, COST, limit);
        }
    }

    /// Spans over a million expiries: the closed form delivers them all
    /// in one call and agrees with the loop.
    #[test]
    fn closed_form_matches_reference_over_million_expiry_spans() {
        for (next, interval, now) in
            [(0, COST + 1, 13_000_013), (1, 13, 250_000 * 60), (-5_000_000, 2, 5_000_000)]
        {
            let t = VTimer { armed: true, next_expiry: next, interval, delivered: 0 };
            let mut fast = t;
            match process_hw_timer(&mut fast, now, 1, LIMIT) {
                ProcessOutcome::Done { delivered } => assert!(delivered > 1_000_000),
                o => panic!("unexpected {o:?}"),
            }
            assert_matches_reference(t, now, 1, LIMIT);
        }
    }

    /// A healthy period over an astronomically long span, with the last
    /// re-arm saturating at `now == i64::MAX`: the reference loop would
    /// run for ~10^17 passes, the closed form finishes in at most
    /// `LIMIT + 1`.
    #[test]
    fn saturating_span_stays_bounded() {
        let mut t = VTimer::default();
        t.arm(0, COST + 1);
        match process_hw_timer(&mut t, i64::MAX, COST, LIMIT) {
            ProcessOutcome::StackOverflow { depth, .. } => assert_eq!(depth, LIMIT + 1),
            o => panic!("expected stack overflow, got {o:?}"),
        }
        assert_eq!(t.delivered, (i64::MAX / (COST + 1)) as u64 + u64::from(LIMIT));
    }

    #[test]
    fn one_shot_delivers_once() {
        let mut t = VTimer::default();
        t.arm(100, 0);
        assert_eq!(
            process_hw_timer(&mut t, 50, COST, LIMIT),
            ProcessOutcome::Done { delivered: 0 }
        );
        assert_eq!(
            process_hw_timer(&mut t, 100, COST, LIMIT),
            ProcessOutcome::Done { delivered: 1 }
        );
        assert!(!t.armed);
        assert_eq!(
            process_hw_timer(&mut t, 1000, COST, LIMIT),
            ProcessOutcome::Done { delivered: 0 }
        );
    }

    #[test]
    fn negative_interval_behaves_one_shot() {
        // Legacy builds accept negative intervals (the Silent finding);
        // the arming layer lets them through and the timer fires once.
        let mut t = VTimer::default();
        t.arm(1, i64::MIN);
        assert_eq!(
            process_hw_timer(&mut t, 10, COST, LIMIT),
            ProcessOutcome::Done { delivered: 1 }
        );
        assert!(!t.armed);
    }

    #[test]
    fn healthy_interval_catches_up_iteratively() {
        let mut t = VTimer::default();
        t.arm(1, 50); // 50 µs > 12 µs handler cost
        match process_hw_timer(&mut t, 50_000, COST, LIMIT) {
            ProcessOutcome::Done { delivered } => assert_eq!(delivered, 1000),
            o => panic!("unexpected {o:?}"),
        }
        assert!(t.armed);
        assert!(t.next_expiry > 50_000);
    }

    #[test]
    fn tiny_interval_overflows_kernel_stack() {
        // The paper's XM_set_timer(0, 1, 1) reproduction.
        let mut t = VTimer::default();
        t.arm(1, 1);
        match process_hw_timer(&mut t, 50_000, COST, LIMIT) {
            ProcessOutcome::StackOverflow { depth, delivered } => {
                assert_eq!(depth, LIMIT + 1);
                assert_eq!(delivered, LIMIT);
            }
            o => panic!("expected stack overflow, got {o:?}"),
        }
    }

    #[test]
    fn interval_equal_to_handler_cost_still_recurses() {
        // next = exp + 12, cursor = exp + 12 → next <= cursor → recursion.
        let mut t = VTimer::default();
        t.arm(1, COST);
        assert!(matches!(
            process_hw_timer(&mut t, 100_000, COST, LIMIT),
            ProcessOutcome::StackOverflow { .. }
        ));
    }

    #[test]
    fn interval_just_above_handler_cost_is_safe() {
        let mut t = VTimer::default();
        t.arm(1, COST + 1);
        assert!(matches!(
            process_hw_timer(&mut t, 100_000, COST, LIMIT),
            ProcessOutcome::Done { .. }
        ));
    }

    #[test]
    fn huge_interval_never_overflows_arithmetic() {
        let mut t = VTimer::default();
        t.arm(1, i64::MAX);
        assert_eq!(
            process_hw_timer(&mut t, 10, COST, LIMIT),
            ProcessOutcome::Done { delivered: 1 }
        );
        assert!(t.armed);
        assert_eq!(t.next_expiry, i64::MAX); // saturated, no wrap
        assert_eq!(
            process_hw_timer(&mut t, 1_000_000, COST, LIMIT),
            ProcessOutcome::Done { delivered: 0 }
        );
    }

    #[test]
    fn delivered_counter_accumulates() {
        let mut t = VTimer::default();
        t.arm(0, 100);
        process_hw_timer(&mut t, 1_000, COST, LIMIT);
        process_hw_timer(&mut t, 2_000, COST, LIMIT);
        assert_eq!(t.delivered, 21); // 0,100,...,2000 inclusive
    }
}
