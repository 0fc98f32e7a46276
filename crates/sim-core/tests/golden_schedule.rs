//! Golden-schedule regression test for the executor.
//!
//! The determinism contract ("same seed ⇒ same schedule") is easy to
//! state and easy to break silently: a refactor that reorders ready
//! tasks or equal-deadline timers still passes every functional test
//! while changing every simulated result. This test pins the exact
//! schedule of a workload that exercises the ready queue, wake dedup,
//! timer registration/cancellation and nested spawns, as an FNV-1a hash
//! of the first [`GOLDEN_EVENTS`] `(at, category, detail)` events the
//! workload logs as it runs.
//!
//! If this hash changes, the executor's schedule changed. That is only
//! acceptable in a PR that *intends* to change scheduling semantics —
//! update the constant there and say so loudly in the PR description.

use std::cell::RefCell;
use std::rc::Rc;

use sim_core::{yield_now, SimDuration, SimTime, Simulation};

/// Number of logged events folded into the golden hash.
const GOLDEN_EVENTS: usize = 4096;

/// Pinned hash, captured from the pre-overhaul executor (HashMap task
/// table + BinaryHeap timers). The slab executor and its one
/// `(deadline, sequence)` timer heap must reproduce the identical
/// schedule.
const GOLDEN_HASH: u64 = 0x9d8a13b2e8ec18f7;

/// One logged step: when, which kind, which task and round.
type Event = (SimTime, &'static str, String);

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn hash_events(events: &[Event]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (at, category, detail) in events.iter().take(GOLDEN_EVENTS) {
        fnv1a(&mut h, &at.as_nanos().to_le_bytes());
        fnv1a(&mut h, category.as_bytes());
        fnv1a(&mut h, detail.as_bytes());
    }
    h
}

/// A workload that leans on every scheduling path:
/// - 64 "worker" tasks sleeping with RNG-derived scattered deadlines
///   (dense ties included) in a loop, yielding between rounds;
/// - nested spawns mid-run (task table growth while polling);
/// - sleeps raced against shorter sleeps and dropped (timer cancel);
/// - equal deadlines across distinct tasks (sequence-order ties).
fn run_workload() -> Vec<Event> {
    let mut sim = Simulation::new(0xD00D);
    let log: Rc<RefCell<Vec<Event>>> = Rc::default();

    for t in 0..128u64 {
        let (h, log) = (sim.handle(), log.clone());
        sim.spawn(async move {
            let mut rng = h.fork_rng();
            for round in 0..32u64 {
                // Mix of scattered and deliberately-tied deadlines.
                let d = if round % 3 == 0 {
                    500 // tie with every other task on this round
                } else {
                    rng.gen_range(2000) + 1
                };
                h.sleep(SimDuration::from_nanos(d)).await;
                log.borrow_mut()
                    .push((h.now(), "worker", format!("t{t} r{round}")));
                yield_now().await;

                if round == 4 {
                    // Nested spawn while the pool is mid-flight.
                    let (h2, log2) = (h.clone(), log.clone());
                    h.spawn(async move {
                        h2.sleep(SimDuration::from_nanos(50 + t)).await;
                        log2.borrow_mut()
                            .push((h2.now(), "nested", format!("n{t}")));
                    });
                }
                if round == 7 {
                    // Start a long sleep, then drop it: timer cancel.
                    let long = h.sleep(SimDuration::from_secs(10));
                    drop(long);
                    log.borrow_mut().push((h.now(), "cancel", format!("c{t}")));
                }
            }
        });
    }
    sim.run();
    log.take()
}

#[test]
fn golden_schedule_is_stable() {
    let events = run_workload();
    assert!(
        events.len() >= GOLDEN_EVENTS,
        "workload produced only {} events, need {GOLDEN_EVENTS}",
        events.len()
    );
    let h = hash_events(&events);
    assert_eq!(
        h, GOLDEN_HASH,
        "executor schedule changed: golden hash {h:#018x} != pinned {GOLDEN_HASH:#018x}"
    );
}

#[test]
fn golden_workload_is_internally_deterministic() {
    // Independent of the pinned constant: two fresh runs must agree.
    assert_eq!(hash_events(&run_workload()), hash_events(&run_workload()));
}
