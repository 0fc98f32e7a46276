//! The executor's wake contract (see `sim_core::wake`): tasks are woken
//! by id through a per-thread registry of live simulations, `Waker`s
//! survive as the compatibility path into the same FIFO, and the whole
//! thing is confined to the thread that built the simulation.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use sim_core::sync::{oneshot, OneshotReceiver};
use sim_core::{SimDuration, SimTime, Simulation};

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
            assert!(sleep.as_mut().poll(cx).is_pending());
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

/// Awaits `rx` under a context of its own making, as a hand-written
/// select or join would.
struct Foreign(OneshotReceiver<u32>);

impl Future for Foreign {
    type Output = u32;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
        let waker = Waker::from(Arc::new(Forward(cx.waker().clone())));
        let mut inner_cx = Context::from_waker(&waker);
        Pin::new(&mut self.0)
            .poll(&mut inner_cx)
            .map(|v| v.expect("sender alive"))
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
                    let v = Foreign(rx).await;
                    assert_eq!(v, 1);
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
    // Each case: the two lanes' sleeps, and who logs what when
    // (microseconds since the join began).
    let cases = [
        ((30, 10), [("a", 0), ("b", 0), ("b", 10), ("a", 30)]),
        ((10, 30), [("a", 0), ("b", 0), ("a", 10), ("b", 30)]),
        ((0, 20), [("a", 0), ("a", 0), ("b", 0), ("b", 20)]),
    ];
    for ((a, b), expect) in cases {
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
        // One task, one poll per wake.
        assert_eq!(sim.task_slots(), 1);
        let wakes = [a, b].iter().filter(|&&us| us > 0).count() as u64;
        assert_eq!(sim.polls() - polls, 1 + wakes);
    }
}
