//! Property tests for the retry timer wheel: under arbitrary time-step
//! interleavings, sessions' timers fire exactly along their
//! [`RetryPolicy::backoff`] schedules, within-sweep firing is
//! deadline-ordered, and cancelled timers (acked windows, bumped
//! generations) never survive the driver's generation filter.
//!
//! The harness replays exactly what a shard event loop does: one live
//! timer per session, re-armed with a bumped generation on every fire,
//! stale generations discarded.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use espread_net::{RetryPolicy, TimerWheel};
use proptest::prelude::*;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// One session's simulated retry exchange.
struct SessionSim {
    policy: RetryPolicy,
    attempt: u32,
    gen: u64,
    deadline: Instant,
    /// Backoffs actually applied, in firing order.
    observed: Vec<Duration>,
    done: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Several sessions with different retry policies arm, fire, and
    /// re-arm concurrently while the clock advances in arbitrary steps.
    /// Every fresh-generation fire must match the session's *expected*
    /// deadline, the backoffs observed must be exactly the policy's
    /// schedule, and each sweep must fire in deadline order.
    #[test]
    fn firing_order_matches_retry_backoff_schedules(
        sessions in proptest::collection::vec(
            (2u32..5, 1u64..20, 1u64..40, 0u64..30),
            1..5,
        ),
        steps in proptest::collection::vec(1u64..25, 1..40),
    ) {
        let t0 = Instant::now();
        // A small wheel on purpose: laps and slot collisions are the
        // interesting regime.
        let mut wheel = TimerWheel::new(t0, ms(1), 16);
        let mut sims: HashMap<u32, SessionSim> = HashMap::new();
        for (i, &(attempts, base, max, offset)) in sessions.iter().enumerate() {
            let policy = RetryPolicy {
                max_attempts: attempts,
                base: ms(base),
                max: ms(max.max(base)),
            };
            let deadline = t0 + ms(offset) + policy.backoff(0);
            let conn = i as u32;
            wheel.schedule(conn, 1, deadline);
            sims.insert(conn, SessionSim {
                policy,
                attempt: 0,
                gen: 1,
                deadline,
                observed: vec![policy.backoff(0)],
                done: false,
            });
        }
        let mut now = t0;
        let mut pending_steps = steps.clone();
        // Extra huge steps drain the tail: each fire can re-arm, so the
        // deepest schedule needs one more sweep per remaining attempt.
        let max_attempts = sessions.iter().map(|s| s.0).max().unwrap_or(0);
        pending_steps.extend(std::iter::repeat_n(10_000, max_attempts as usize + 1));
        for step in pending_steps {
            now += ms(step);
            let fired = wheel.advance(now);
            // Within one sweep, deadlines are nondecreasing.
            let mut last_deadline: Option<Instant> = None;
            for f in &fired {
                let sim = sims.get_mut(&f.conn).expect("known conn");
                if f.gen != sim.gen {
                    // Stale generation: a timer superseded by a re-arm.
                    // The driver filter drops it; nothing may change.
                    continue;
                }
                prop_assert!(!sim.done, "a finished session's timer fired");
                prop_assert!(
                    sim.deadline <= now,
                    "fired before its deadline was due"
                );
                if let Some(prev) = last_deadline {
                    prop_assert!(
                        prev <= sim.deadline,
                        "sweep fired out of deadline order"
                    );
                }
                last_deadline = Some(sim.deadline);
                // Re-arm exactly as the shard does: next backoff from
                // the sweep's clock, generation bumped.
                if sim.attempt + 1 < sim.policy.max_attempts {
                    sim.attempt += 1;
                    sim.gen += 1;
                    let backoff = sim.policy.backoff(sim.attempt);
                    sim.deadline = now + backoff;
                    sim.observed.push(backoff);
                    wheel.schedule(f.conn, sim.gen, sim.deadline);
                } else {
                    sim.done = true;
                }
            }
        }
        for (conn, sim) in &sims {
            prop_assert!(sim.done, "session {conn} never exhausted its schedule");
            let expected: Vec<Duration> = (0..sim.policy.max_attempts)
                .map(|a| sim.policy.backoff(a))
                .collect();
            prop_assert_eq!(
                &sim.observed,
                &expected,
                "session {} backoffs diverged from RetryPolicy::backoff",
                conn
            );
        }
        prop_assert!(wheel.is_empty(), "drained wheel still holds entries");
    }

    /// Arm one timer per session, cancel an arbitrary subset (generation
    /// bump — an acked window), sweep far past every deadline: every
    /// cancelled timer is filtered out, every live one fires exactly once.
    #[test]
    fn cancelled_timers_never_fire(
        timers in proptest::collection::vec((0u64..200, any::<bool>()), 1..60),
        sweep_step in 1u64..50,
    ) {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, ms(1), 8);
        let mut live_gen: HashMap<u32, u64> = HashMap::new();
        for (i, &(offset, cancelled)) in timers.iter().enumerate() {
            let conn = i as u32;
            wheel.schedule(conn, 1, t0 + ms(offset));
            // Cancelling is just bumping the session's live generation;
            // the wheel entry stays behind but comes back stale.
            live_gen.insert(conn, if cancelled { 2 } else { 1 });
        }
        let mut fired_live: HashMap<u32, u32> = HashMap::new();
        let mut now = t0;
        while now < t0 + ms(300) {
            now += ms(sweep_step);
            for f in wheel.advance(now) {
                if f.gen == live_gen[&f.conn] {
                    *fired_live.entry(f.conn).or_insert(0) += 1;
                }
            }
        }
        for (i, &(_, cancelled)) in timers.iter().enumerate() {
            let conn = i as u32;
            let count = fired_live.get(&conn).copied().unwrap_or(0);
            if cancelled {
                prop_assert_eq!(count, 0, "cancelled timer {} fired", conn);
            } else {
                prop_assert_eq!(count, 1, "live timer {} fired {} times", conn, count);
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Deadlines many laps past one wheel horizon (slots × tick) still
    /// fire exactly once and never early: the wheel must carry lap
    /// counts, not just slot positions. An 8-slot, 1 ms wheel has an
    /// 8 ms horizon; offsets up to 400 ms are dozens of laps out — the
    /// watchdog's regime, whose deadlines dwarf the wheel period.
    #[test]
    fn multi_lap_deadlines_fire_exactly_once_and_never_early(
        offsets in proptest::collection::vec(0u64..400, 1..40),
        sweep_step in 1u64..64,
    ) {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, ms(1), 8);
        for (i, &offset) in offsets.iter().enumerate() {
            wheel.schedule(i as u32, 1, t0 + ms(offset));
        }
        let mut fired: HashMap<u32, u32> = HashMap::new();
        let mut now = t0;
        while now <= t0 + ms(500) {
            now += ms(sweep_step);
            for f in wheel.advance(now) {
                let deadline = t0 + ms(offsets[f.conn as usize]);
                prop_assert!(
                    deadline <= now,
                    "conn {} fired a lap early ({}ms before its deadline)",
                    f.conn,
                    deadline.saturating_duration_since(now).as_millis()
                );
                *fired.entry(f.conn).or_insert(0) += 1;
            }
        }
        for i in 0..offsets.len() {
            let count = fired.get(&(i as u32)).copied().unwrap_or(0);
            prop_assert_eq!(count, 1, "conn {} fired {} times", i, count);
        }
        prop_assert!(wheel.is_empty());
    }

    /// The watchdog cycle: a conn's timer fires, the session re-arms the
    /// same conn with a bumped generation and a fresh deadline, round
    /// after round. Every round's live generation must fire exactly once
    /// at (or after) its own deadline, stale generations from earlier
    /// rounds must always be filtered, and the chain must never stall.
    #[test]
    fn rearming_after_a_watchdog_fire_keeps_one_live_timer(
        rounds in 1usize..8,
        period in 1u64..30,
        sweep_step in 1u64..20,
    ) {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, ms(1), 8);
        let conn = 7u32;
        let mut gen = 1u64;
        let mut deadline = t0 + ms(period);
        wheel.schedule(conn, gen, deadline);
        let mut completed = 0usize;
        let mut now = t0;
        while completed < rounds && now < t0 + ms(2_000) {
            now += ms(sweep_step);
            for f in wheel.advance(now) {
                prop_assert_eq!(f.conn, conn, "an unknown conn fired");
                if f.gen != gen {
                    // A superseded generation from an earlier round; the
                    // driver filter drops it.
                    continue;
                }
                prop_assert!(
                    deadline <= now,
                    "round {} fired before its deadline",
                    completed
                );
                completed += 1;
                if completed < rounds {
                    // The session saw progress: re-arm, bumped generation.
                    gen += 1;
                    deadline = now + ms(period);
                    wheel.schedule(conn, gen, deadline);
                }
            }
        }
        prop_assert_eq!(completed, rounds, "the watchdog re-arm chain stalled");
        prop_assert!(wheel.is_empty(), "drained wheel still holds entries");
    }
}
