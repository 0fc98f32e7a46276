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
//! A second workload of few tasks is hashed whole: with so few tasks a
//! sleep is often the simulation's next event, and the workload reaches
//! it through every hand-written combinator sim-core has, so a sleep
//! that fires in place where registering would have run something else
//! first moves that hash.
//!
//! If this hash changes, the executor's schedule changed. That is only
//! acceptable in a PR that *intends* to change scheduling semantics —
//! update the constant there and say so loudly in the PR description.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use sim_core::executor::Sleep;
use sim_core::sync::{channel, oneshot};
use sim_core::{join, yield_now, Sim, SimDuration, SimTime, Simulation};

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
    for (at, category, detail) in events {
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
    let h = hash_events(&events[..GOLDEN_EVENTS]);
    assert_eq!(
        h, GOLDEN_HASH,
        "executor schedule changed: golden hash {h:#018x} != pinned {GOLDEN_HASH:#018x}"
    );
}

#[test]
fn golden_workload_is_internally_deterministic() {
    // Independent of the pinned constant: two fresh runs must agree.
    assert_eq!(run_workload(), run_workload());
    assert_eq!(run_lanes_workload(), run_lanes_workload());
}

/// Pinned hash of [`run_lanes_workload`]'s whole log, captured before a
/// sleep that is the simulation's next event fired in place. Firing in
/// place must reproduce it exactly.
const LANES_HASH: u64 = 0x9dde_ab50_d62c_8a14;

/// Events [`run_lanes_workload`] logs.
const LANES_EVENTS: usize = 533;

type Log = Rc<RefCell<Vec<Event>>>;

fn note(h: &Sim, log: &Log, category: &'static str, detail: String) {
    log.borrow_mut().push((h.now(), category, detail));
}

/// Sleeps `ns`, then logs `name`.
async fn lane(h: &Sim, log: &Log, name: String, ns: u64) -> u64 {
    h.sleep(SimDuration::from_nanos(ns)).await;
    note(h, log, "lane", name);
    ns
}

/// Forwards to the waker of the task that polled it, as a foreign
/// combinator's waker would.
struct Forward(Waker);

impl Wake for Forward {
    fn wake(self: Arc<Self>) {
        self.0.wake_by_ref();
    }
}

/// Polls its sleep under a context of its own making.
struct Foreign(Sleep);

impl Future for Foreign {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let waker = Waker::from(Arc::new(Forward(cx.waker().clone())));
        Pin::new(&mut self.0).poll(&mut Context::from_waker(&waker))
    }
}

/// A workload of few tasks, so that a sleep is often the next event of
/// the whole simulation, composed through every hand-written
/// combinator sim-core has:
/// - `join`s with the shorter sleep in either lane, nested ones too;
/// - a `Timeout` shorter than the sleep it races (it times out, and
///   the sleep is then awaited), one whose own sleep is the next event,
///   and one its future wins;
/// - sleeps until a shared grid instant, tying other tasks' deadlines;
/// - a task that wakes a listener or spawns a child, then sleeps;
/// - a task whose sleeps are polled under a foreign waker;
/// - all of it driven by `run_until` slices that end between deadlines.
fn run_lanes_workload() -> Vec<Event> {
    let mut sim = Simulation::new(0xFACE);
    let log: Log = Rc::default();
    let done = Rc::new(Cell::new(0u32));
    let (tx, mut rx) = channel::<String>();
    {
        let (h, log) = (sim.handle(), log.clone());
        sim.spawn(async move {
            while let Ok(heard) = rx.recv().await {
                note(&h, &log, "heard", heard);
            }
        });
    }
    for t in 0..3u64 {
        let (h, log, done, tx) = (sim.handle(), log.clone(), done.clone(), tx.clone());
        sim.spawn(async move {
            let mut rng = h.fork_rng();
            for round in 0..60u64 {
                let (d1, d2) = (rng.gen_range(400) + 1, rng.gen_range(400) + 1);
                let tag = |what: &str| format!("t{t} r{round} {what}");
                match round % 6 {
                    0 => {
                        let a = pin!(lane(&h, &log, tag("a"), d1));
                        let b = pin!(lane(&h, &log, tag("b"), d2));
                        assert_eq!(join(a, b).await, (d1, d2));
                    }
                    1 => {
                        let a = pin!(lane(&h, &log, tag("a"), d1));
                        let b = pin!(lane(&h, &log, tag("b"), d2));
                        let inner = pin!(join(a, b));
                        let c = pin!(async {
                            lane(&h, &log, tag("c1"), d2 / 2 + 1).await;
                            lane(&h, &log, tag("c2"), d1 / 2 + 1).await
                        });
                        join(inner, c).await;
                    }
                    2 => {
                        let mut long = h.sleep(SimDuration::from_nanos(d1 + d2));
                        let won = h.timeout(SimDuration::from_nanos(d1), &mut long).await;
                        assert!(won.is_none(), "a shorter timeout must win");
                        note(&h, &log, "timed_out", tag("long"));
                        long.await;
                        note(&h, &log, "slept", tag("long"));
                    }
                    3 => {
                        let (keep, mut never) = oneshot::<()>();
                        let won = h.timeout(SimDuration::from_nanos(d1), &mut never).await;
                        assert!(won.is_none());
                        drop(keep);
                        note(&h, &log, "timed_out", tag("idle"));
                        let mut short = h.sleep(SimDuration::from_nanos(d2));
                        let won = h.timeout(SimDuration::from_nanos(d2 + 1), &mut short).await;
                        assert!(won.is_some(), "the future must win");
                        note(&h, &log, "won", tag("short"));
                    }
                    4 => {
                        let grid = (h.now().as_nanos() / 256 + 1) * 256;
                        h.sleep_until(SimTime::from_nanos(grid)).await;
                        note(&h, &log, "grid", tag("tie"));
                        h.sleep(SimDuration::from_nanos(d1 % 3)).await;
                        note(&h, &log, "grid", tag("after"));
                    }
                    _ => {
                        if round % 12 == 5 {
                            tx.send(tag("sent")).expect("listener alive");
                        } else {
                            let (h2, log2, name) = (h.clone(), log.clone(), tag("child"));
                            h.spawn(async move {
                                note(&h2, &log2, "spawned", name.clone());
                                lane(&h2, &log2, name, d2).await;
                            });
                        }
                        lane(&h, &log, tag("after"), d1).await;
                    }
                }
            }
            done.set(done.get() + 1);
        });
    }
    {
        let (h, log, done) = (sim.handle(), log.clone(), done.clone());
        sim.spawn(async move {
            let mut rng = h.fork_rng();
            for round in 0..80u64 {
                Foreign(h.sleep(SimDuration::from_nanos(rng.gen_range(300) + 1))).await;
                note(&h, &log, "foreign", format!("f r{round}"));
            }
            done.set(done.get() + 1);
        });
    }
    drop(tx);
    let mut slice = 0u64;
    while done.get() < 4 {
        slice += 1;
        sim.run_until(SimTime::from_nanos(slice * 1_009));
        note(&sim.handle(), &log, "slice", format!("{slice}"));
    }
    sim.run();
    log.take()
}

#[test]
fn lanes_schedule_is_stable() {
    let events = run_lanes_workload();
    let h = hash_events(&events);
    assert_eq!(
        (events.len(), h),
        (LANES_EVENTS, LANES_HASH),
        "executor schedule changed: lanes hash {h:#018x}"
    );
}
