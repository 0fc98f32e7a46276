//! The executor's wake contract (see `sim_core::wake`): tasks are woken
//! by id through a per-thread registry of live simulations, `Waker`s
//! survive as the compatibility path into the same FIFO, and the whole
//! thing is confined to the thread that built the simulation.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use sim_core::sync::oneshot;
use sim_core::{poll_not_last, Sim, SimDuration, SimTime, Simulation};

/// Parks forever, handing its task's waker out on the first poll.
struct Lend(Rc<RefCell<Option<Waker>>>);

impl Future for Lend {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        *self.0.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// A simulation with one task parked in [`Lend`], and that task's waker.
fn parked_simulation() -> (Simulation, Waker) {
    let mut sim = Simulation::new(1);
    let lent = Rc::new(RefCell::new(None));
    sim.spawn(Lend(lent.clone()));
    sim.run();
    let waker = lent.borrow_mut().take().expect("polled once");
    (sim, waker)
}

#[test]
fn waker_of_a_dropped_simulation_wakes_nothing_in_its_successor() {
    let (old, stale) = parked_simulation();
    drop(old);
    // Same thread, same shape: the successor's only task has the very
    // task id the stale waker names. A registry that handed the old
    // simulation's number (or slot) to the new one would wake it.
    let (mut new, fresh) = parked_simulation();
    let polls = new.polls();
    stale.wake_by_ref();
    stale.wake();
    new.run();
    assert_eq!(new.polls(), polls, "a dead simulation's waker woke a task");
    fresh.wake();
    new.run();
    assert_eq!(new.polls(), polls + 1, "the live waker still works");
}

#[test]
fn primitive_signalled_from_another_simulation_wakes_its_own_task() {
    // Two live simulations on one thread; the first task of each has
    // the same task id. A receiver parks in `a`; a task of `b` sends.
    let mut a = Simulation::new(1);
    let mut b = Simulation::new(2);
    let (tx, rx) = oneshot::<u32>();
    let got = Rc::new(Cell::new(None));
    let got2 = got.clone();
    a.spawn(async move { got2.set(rx.await.ok()) });
    a.run();
    assert_eq!(got.get(), None);

    let hb = b.handle();
    let bystander_polls = Rc::new(Cell::new(0u32));
    let counted = bystander_polls.clone();
    // `b`'s first task: parked on a timer far away, counts its polls.
    b.spawn(async move {
        counted.set(counted.get() + 1);
        hb.sleep(SimDuration::from_secs(1)).await;
        counted.set(counted.get() + 1);
    });
    b.spawn(async move { tx.send(7) });
    b.run_until(SimTime::from_nanos(1));
    assert_eq!(
        bystander_polls.get(),
        1,
        "the wake landed in the sender's world"
    );
    assert_eq!(got.get(), None, "`a` has not run yet");
    let polls = a.polls();
    a.run();
    assert_eq!(got.get(), Some(7));
    assert_eq!(a.polls(), polls + 1);
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "polls the sleep once under `poll_not_last`, then hands it on"
)]
fn sleep_moved_between_tasks_wakes_the_task_that_polled_it_last() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let handoff: Rc<RefCell<Option<Pin<Box<sim_core::executor::Sleep>>>>> =
        Rc::new(RefCell::new(None));
    let log: Rc<RefCell<Vec<(&str, u64)>>> = Rc::new(RefCell::new(Vec::new()));

    // Task A polls the sleep once, leaves it behind and parks for good.
    let (h2, handoff2, log2) = (h.clone(), handoff.clone(), log.clone());
    sim.spawn(async move {
        let mut sleep = Box::pin(h2.sleep(SimDuration::from_micros(10)));
        std::future::poll_fn(|cx| {
            assert!(poll_not_last(sleep.as_mut(), cx).is_pending());
            Poll::Ready(())
        })
        .await;
        *handoff2.borrow_mut() = Some(sleep);
        log2.borrow_mut().push(("a parked", h2.now().as_nanos()));
        std::future::pending::<()>().await;
    });
    // Task B picks it up and awaits it.
    let (h3, log3) = (h.clone(), log.clone());
    sim.spawn(async move {
        let sleep = handoff.borrow_mut().take().expect("A ran first");
        sleep.await;
        log3.borrow_mut().push(("b woke", h3.now().as_nanos()));
    });
    sim.run();
    assert_eq!(*log.borrow(), vec![("a parked", 0), ("b woke", 10_000)]);
    // A: one poll. B: first poll and the timer's wake. Nobody else.
    assert_eq!(sim.polls(), 3);
}

/// A hand-rolled waker, as a foreign combinator would make: forwards
/// to the waker of the task that polled it.
struct Forward(Waker);

impl Wake for Forward {
    fn wake(self: Arc<Self>) {
        self.0.wake_by_ref();
    }
}

/// Awaits its future under a context of its own making, as a
/// hand-written select or join would.
struct Foreign<F>(F);

impl<F: Future + Unpin> Future for Foreign<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let waker = Waker::from(Arc::new(Forward(cx.waker().clone())));
        Pin::new(&mut self.0).poll(&mut Context::from_waker(&waker))
    }
}

#[test]
fn foreign_context_wakes_join_the_fifo_in_call_order() {
    // X and Z await their receivers directly (parked by id); Y awaits
    // under a hand-rolled waker (parked by `Waker`). Whatever order the
    // senders fire in is the order the three run in.
    for order in [[0usize, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]] {
        let mut sim = Simulation::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let mut senders = Vec::new();
        for name in ["x", "y", "z"] {
            let (tx, rx) = oneshot::<u32>();
            senders.push(Some(tx));
            let log = log.clone();
            if name == "y" {
                sim.spawn(async move {
                    assert_eq!(Foreign(rx).await, Ok(1));
                    log.borrow_mut().push(name);
                });
            } else {
                sim.spawn(async move {
                    assert_eq!(rx.await, Ok(1));
                    log.borrow_mut().push(name);
                });
            }
        }
        sim.run();
        assert!(log.borrow().is_empty());
        sim.spawn(async move {
            for i in order {
                senders[i].take().expect("once").send(1);
            }
        });
        sim.run();
        let want: Vec<&str> = order.iter().map(|&i| ["x", "y", "z"][i]).collect();
        assert_eq!(*log.borrow(), want, "send order {order:?}");
    }
}

#[test]
fn waking_from_another_thread_panics_naming_the_contract() {
    let (_sim, waker) = parked_simulation();
    let outcome = std::thread::spawn(move || waker.wake()).join();
    let panic = outcome.expect_err("a cross-thread wake must not pass silently");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic message");
    assert!(
        message.contains("thread-confined"),
        "panic does not name the contract: {message}"
    );
}

/// `sim_core::join`: two lanes on the caller's task, sharing its wakes.
#[test]
fn join_overlaps_two_lanes_in_fixed_order_on_one_task() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let log: Rc<RefCell<Vec<(&str, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    // Each case: the two lanes' sleeps, who logs what when
    // (microseconds since the join began), and the task's polls.
    let cases = [
        ((30, 10), [("a", 0), ("b", 0), ("b", 10), ("a", 30)], 2),
        ((10, 30), [("a", 0), ("b", 0), ("a", 10), ("b", 30)], 3),
        ((0, 20), [("a", 0), ("a", 0), ("b", 0), ("b", 20)], 1),
    ];
    for ((a, b), expect, want_polls) in cases {
        let (start, polls) = (sim.now(), sim.polls());
        let lane = |name: &'static str, us: u64| {
            let (h, log) = (h.clone(), log.clone());
            async move {
                for sleep in [SimDuration::ZERO, SimDuration::from_micros(us)] {
                    h.sleep(sleep).await;
                    let at = h.now().saturating_since(start).as_nanos() / 1_000;
                    log.borrow_mut().push((name, at));
                }
                us
            }
        };
        let (first, second) = (lane("a", a), lane("b", b));
        let out = sim.block_on(async move {
            let (first, second) = (std::pin::pin!(first), std::pin::pin!(second));
            sim_core::join(first, second).await
        });
        assert_eq!(out, (a, b));
        // First lane first; the longer lane sets the time, not the
        // sum; a finished lane is not polled again.
        assert_eq!(std::mem::take(&mut *log.borrow_mut()), expect);
        // One task. The second lane's sleep fires in place when it is
        // the next event (10 µs before the first lane's pending 30; 20
        // once the first lane is done); the first lane's, polled with
        // the second still to come, registers, and its wake is a poll.
        assert_eq!(sim.task_slots(), 1);
        assert_eq!(sim.polls() - polls, want_polls);
    }
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Runs what `setup` spawns on a fresh simulation to quiescence: the
/// polls it took and where the clock stopped, in microseconds.
fn polls_and_clock(setup: impl FnOnce(&Sim)) -> (u64, u64) {
    let mut sim = Simulation::new(1);
    setup(&sim.handle());
    sim.run();
    (sim.polls(), sim.now().as_nanos() / 1_000)
}

/// A task that sleeps `d` once.
fn sleeper(h: &Sim, d: SimDuration) {
    let h2 = h.clone();
    h.spawn(async move { h2.sleep(d).await });
}

#[test]
fn a_sleep_that_is_the_next_event_fires_in_place() {
    // One task, no timer pending, no limit: both sleeps fire in place,
    // and the task's first poll is its only one.
    let got = polls_and_clock(|h| {
        let h2 = h.clone();
        h.spawn(async move {
            h2.sleep(us(10)).await;
            h2.sleep(us(20)).await;
        });
    });
    assert_eq!(got, (1, 30));
}

#[test]
fn a_sleep_registers_while_a_task_is_ready() {
    // Spawning first queues the child: the sleep registers, and its
    // wake costs the sleeper a second poll. Sleeping first fires in
    // place.
    for (spawn_first, want) in [(true, (3, 10)), (false, (2, 10))] {
        let got = polls_and_clock(|h| {
            let h2 = h.clone();
            h.spawn(async move {
                if spawn_first {
                    h2.spawn(async {});
                }
                h2.sleep(us(10)).await;
                if !spawn_first {
                    h2.spawn(async {});
                }
            });
        });
        assert_eq!(got, want, "spawn first: {spawn_first}");
    }
    // A task still to poll in the current batch counts as ready.
    let got = polls_and_clock(|h| {
        sleeper(h, us(10));
        h.spawn(async {});
    });
    assert_eq!(got, (3, 10), "sleeper first in its batch");
    let got = polls_and_clock(|h| {
        h.spawn(async {});
        sleeper(h, us(10));
    });
    assert_eq!(got, (2, 10), "sleeper last in its batch");
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "the lane is polled under `poll_not_last`"
)]
fn a_sleep_registers_in_a_lane_that_is_not_last_or_under_a_foreign_waker() {
    let got = polls_and_clock(|h| {
        let h2 = h.clone();
        h.spawn(async move {
            let mut lane = pin!(h2.sleep(us(10)));
            std::future::poll_fn(|cx| poll_not_last(lane.as_mut(), cx)).await;
        });
    });
    assert_eq!(got, (2, 10), "a lane that is not last");
    let got = polls_and_clock(|h| {
        let h2 = h.clone();
        h.spawn(async move { Foreign(h2.sleep(us(10))).await });
    });
    assert_eq!(got, (2, 10), "a foreign waker");
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "polls a sleep once under `poll_not_last`, then drops it"
)]
fn a_sleep_registers_unless_it_is_strictly_first_and_within_the_limit() {
    // A tie with a pending deadline registers, so equal deadlines fire
    // in registration order; one strictly earlier fires in place.
    let got = polls_and_clock(|h| {
        sleeper(h, us(10));
        sleeper(h, us(10));
    });
    assert_eq!(got, (4, 10), "a tie");
    let got = polls_and_clock(|h| {
        sleeper(h, us(10));
        sleeper(h, us(9));
    });
    assert_eq!(got, (3, 10), "strictly earlier");
    // A cancelled earlier timer does not count.
    let got = polls_and_clock(|h| {
        let h2 = h.clone();
        h.spawn(async move {
            let mut early = h2.sleep(us(5));
            std::future::poll_fn(|cx| {
                assert!(poll_not_last(Pin::new(&mut early), cx).is_pending());
                Poll::Ready(())
            })
            .await;
            drop(early);
            h2.sleep(us(10)).await;
        });
    });
    assert_eq!(got, (1, 10), "past a cancelled timer");
    // Past the `run_until` limit the sleep registers and the clock
    // stays put; at the limit (inclusive) it fires in place.
    for (limit_ns, want) in [(9_999, (1, 0)), (10_000, (1, 10_000))] {
        let mut sim = Simulation::new(1);
        sleeper(&sim.handle(), us(10));
        sim.run_until(SimTime::from_nanos(limit_ns));
        assert_eq!(
            (sim.polls(), sim.now().as_nanos()),
            want,
            "limit {limit_ns}"
        );
        sim.run();
        assert_eq!(sim.now().as_nanos(), 10_000);
        assert_eq!(sim.polls(), want.0 + u64::from(limit_ns < 10_000));
    }
}
