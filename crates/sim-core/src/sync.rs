//! Synchronization primitives for simulation tasks.
//!
//! These mirror the shapes of real kernel primitives the modelled
//! systems use — message queues between interrupt handlers and worker
//! threads, counted semaphores for resource slots, completion
//! notifications — but operate purely in virtual time. All are
//! single-threaded (`Rc`-based), and a waiter is recorded as the id of
//! the task being polled, not a cloned `Waker` (see [`crate::wake`]).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::wake::{Parked, WakeSlot};

// ---------------------------------------------------------------------------
// mpsc channel
// ---------------------------------------------------------------------------

struct ChanInner<T> {
    queue: VecDeque<T>,
    recv_wakers: VecDeque<Parked>,
    senders: usize,
    receiver_alive: bool,
}

/// Unbounded multi-producer single-consumer channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChanInner {
        queue: VecDeque::new(),
        recv_wakers: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

/// Sending half of [`channel`]. Clonable.
pub struct Sender<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

/// Receiving half of [`channel`].
pub struct Receiver<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when all senders are gone and
/// the queue is drained.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            // Wake the receiver so a pending recv() observes closure.
            for w in inner.recv_wakers.drain(..) {
                w.wake();
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.borrow_mut().receiver_alive = false;
    }
}

impl<T> Sender<T> {
    /// Enqueue a message, waking the receiver if it is parked.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.borrow_mut();
        if !inner.receiver_alive {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        if let Some(w) = inner.recv_wakers.pop_front() {
            w.wake();
        }
        Ok(())
    }

    /// Number of queued messages (for backpressure heuristics/tests).
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Await the next message; resolves to `Err(RecvError)` once every
    /// sender has been dropped and the queue is empty.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Result<T, RecvError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.rx.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            return Poll::Ready(Ok(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(Err(RecvError));
        }
        inner.recv_wakers.push_back(Parked::current(cx));
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------------

struct OneshotInner<T> {
    value: Option<T>,
    waker: WakeSlot,
    sender_alive: bool,
}

/// Single-value channel; the canonical "completion" primitive used for
/// RPC reply matching and I/O completion.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Rc::new(RefCell::new(OneshotInner {
        value: None,
        waker: WakeSlot::new(),
        sender_alive: true,
    }));
    (
        OneshotSender {
            inner: inner.clone(),
        },
        OneshotReceiver { inner },
    )
}

/// Sending half of [`oneshot`].
pub struct OneshotSender<T> {
    inner: Rc<RefCell<OneshotInner<T>>>,
}

/// Receiving half of [`oneshot`]; a `Future` resolving to
/// `Err(RecvError)` if the sender is dropped without sending.
pub struct OneshotReceiver<T> {
    inner: Rc<RefCell<OneshotInner<T>>>,
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(self, value: T) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.value = Some(value);
        }
        // Drop runs next: it marks the sender dead and wakes the
        // receiver, which will find the value in place.
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.sender_alive = false;
        inner.waker.wake();
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, RecvError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.inner.borrow_mut();
        if let Some(v) = inner.value.take() {
            return Poll::Ready(Ok(v));
        }
        if !inner.sender_alive {
            return Poll::Ready(Err(RecvError));
        }
        inner.waker.park(cx);
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Semaphore (FIFO-fair)
// ---------------------------------------------------------------------------

struct SemWaiter {
    ticket: u64,
    waker: Parked,
}

struct SemInner {
    permits: usize,
    waiters: VecDeque<SemWaiter>,
    /// Tickets whose permit has been handed over but whose future has
    /// not observed it yet.
    granted: Vec<u64>,
    next_ticket: u64,
}

impl SemInner {
    /// Hand available permits to queued waiters, FIFO.
    fn dispatch(&mut self) {
        while self.permits > 0 {
            let Some(w) = self.waiters.pop_front() else {
                break;
            };
            self.permits -= 1;
            self.granted.push(w.ticket);
            w.waker.wake();
        }
    }
}

/// A counted, strictly FIFO semaphore. Fairness matters: hardware queues
/// (HCA work queues, disk queues, NIC transmit rings) service requests
/// in order, and the paper's contention effects depend on that.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

impl Semaphore {
    /// Create with `permits` initial slots.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                permits,
                waiters: VecDeque::new(),
                granted: Vec::new(),
                next_ticket: 0,
            })),
        }
    }

    /// Acquire one permit, waiting in FIFO order.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            ticket: None,
        }
    }

    /// Try to acquire without waiting; respects FIFO order (fails if
    /// anyone is queued ahead).
    pub fn try_acquire(&self) -> Option<SemPermit> {
        let mut inner = self.inner.borrow_mut();
        if inner.permits > 0 && inner.waiters.is_empty() {
            inner.permits -= 1;
            Some(SemPermit {
                sem: Some(self.clone()),
            })
        } else {
            None
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Add permits (used by resources that grow, e.g. credit grants).
    pub fn add_permits(&self, n: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += n;
        inner.dispatch();
    }

    fn release(&self) {
        self.add_permits(1);
    }
}

/// RAII permit from [`Semaphore::acquire`]; releasing wakes the next
/// FIFO waiter.
pub struct SemPermit {
    /// `None` once [`SemPermit::forget`] has consumed the permit.
    sem: Option<Semaphore>,
}

impl SemPermit {
    /// Consume the permit without returning it to the semaphore.
    /// Used for credit-style accounting where replenishment happens
    /// explicitly via [`Semaphore::add_permits`]. The permit's handle
    /// on the semaphore is dropped normally — only the slot is kept —
    /// so a semaphore whose permits were all forgotten is still freed
    /// with its last user.
    pub fn forget(mut self) {
        self.sem = None;
    }
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        if let Some(sem) = self.sem.take() {
            sem.release();
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    ticket: Option<u64>,
}

impl Future for Acquire {
    type Output = SemPermit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.sem.inner.borrow_mut();
        match self.ticket {
            None => {
                if inner.permits > 0 && inner.waiters.is_empty() {
                    inner.permits -= 1;
                    drop(inner);
                    let sem = Some(self.sem.clone());
                    self.ticket = Some(u64::MAX); // sentinel: already granted+consumed
                    Poll::Ready(SemPermit { sem })
                } else {
                    let ticket = inner.next_ticket;
                    inner.next_ticket += 1;
                    inner.waiters.push_back(SemWaiter {
                        ticket,
                        waker: Parked::current(cx),
                    });
                    drop(inner);
                    self.ticket = Some(ticket);
                    Poll::Pending
                }
            }
            Some(ticket) => {
                if let Some(pos) = inner.granted.iter().position(|&t| t == ticket) {
                    inner.granted.swap_remove(pos);
                    drop(inner);
                    let sem = Some(self.sem.clone());
                    self.ticket = Some(u64::MAX);
                    Poll::Ready(SemPermit { sem })
                } else {
                    // Polled again while queued: wake whoever polls now.
                    if let Some(w) = inner.waiters.iter_mut().find(|w| w.ticket == ticket) {
                        w.waker = Parked::current(cx);
                    }
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        if ticket == u64::MAX {
            return; // permit already handed to caller
        }
        let mut inner = self.sem.inner.borrow_mut();
        if let Some(pos) = inner.waiters.iter().position(|w| w.ticket == ticket) {
            inner.waiters.remove(pos);
        } else if let Some(pos) = inner.granted.iter().position(|&t| t == ticket) {
            // Granted but never observed: return the permit.
            inner.granted.swap_remove(pos);
            inner.permits += 1;
            inner.dispatch();
        }
    }
}

// ---------------------------------------------------------------------------
// Latch (a countdown with one waiter)
// ---------------------------------------------------------------------------

struct LatchInner {
    left: usize,
    waiter: WakeSlot,
}

/// A countdown join: resolves once [`Arrival::arrive`] has been called
/// as many times as the latch counts, and wakes its one waiter exactly
/// once, at the last arrival. A join that acquires a [`Semaphore`] once
/// per arrival wakes and re-polls its waiter at every arrival instead.
/// The final wake is the same push in both, so the waiter resumes at
/// the same place whenever the semaphore's waiter would have been
/// parked at the last arrival — true when each arrival runs in the
/// drain after its own timer pop or in-place fire, since the executor
/// empties the ready queue before it pops the next timer. A latch of
/// zero is ready at once; a dropped waiter is not woken.
#[must_use = "a latch waits for nothing unless awaited"]
pub struct Latch {
    inner: Rc<RefCell<LatchInner>>,
}

/// One party's handle on a [`Latch`]: counts down by one per
/// [`Arrival::arrive`]. Clonable, so each party takes its own.
#[derive(Clone)]
pub struct Arrival {
    inner: Rc<RefCell<LatchInner>>,
}

impl Latch {
    /// A latch that opens after `count` arrivals.
    pub fn new(count: usize) -> Latch {
        Latch {
            inner: Rc::new(RefCell::new(LatchInner {
                left: count,
                waiter: WakeSlot::new(),
            })),
        }
    }

    /// A handle for the parties that arrive.
    pub fn arrival(&self) -> Arrival {
        Arrival {
            inner: self.inner.clone(),
        }
    }
}

impl Arrival {
    /// Count one arrival; the last wakes the waiter. Panics past the
    /// count.
    pub fn arrive(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.left = inner
            .left
            .checked_sub(1)
            .expect("more arrivals than the latch counts");
        if inner.left == 0 {
            inner.waiter.wake();
        }
    }
}

impl Future for Latch {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.left == 0 {
            return Poll::Ready(());
        }
        inner.waiter.park(cx);
        Poll::Pending
    }
}

impl Drop for Latch {
    fn drop(&mut self) {
        // A waiter that is gone is not woken by the last arrival.
        self.inner.borrow_mut().waiter = WakeSlot::new();
    }
}

// ---------------------------------------------------------------------------
// Notify (condition-variable-ish broadcast)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct NotifyInner {
    generation: u64,
    wakers: Vec<Parked>,
}

/// Broadcast notification: every task parked in [`Notify::notified`]
/// before a [`Notify::notify_all`] call is woken by it.
#[derive(Clone, Default)]
pub struct Notify {
    inner: Rc<RefCell<NotifyInner>>,
}

impl Notify {
    /// Create an idle notifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake all currently parked waiters.
    pub fn notify_all(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.generation += 1;
        for w in inner.wakers.drain(..) {
            w.wake();
        }
    }

    /// Wait for the next `notify_all` that happens after this call.
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            generation: self.inner.borrow().generation,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
    generation: u64,
}

impl Future for Notified {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.notify.inner.borrow_mut();
        if inner.generation != self.generation {
            Poll::Ready(())
        } else {
            inner.wakers.push(Parked::current(cx));
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use crate::time::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn channel_delivers_in_order() {
        let mut sim = Simulation::new(1);
        let (tx, mut rx) = channel::<u32>();
        let h = sim.handle();
        sim.spawn(async move {
            for i in 0..5 {
                h.sleep(SimDuration::from_micros(1)).await;
                tx.send(i).unwrap();
            }
        });
        let got = sim.block_on(async move {
            let mut v = Vec::new();
            while let Ok(x) = rx.recv().await {
                v.push(x);
            }
            v
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn channel_close_on_sender_drop() {
        let mut sim = Simulation::new(1);
        let (tx, mut rx) = channel::<u32>();
        drop(tx);
        let r = sim.block_on(async move { rx.recv().await });
        assert_eq!(r, Err(RecvError));
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn oneshot_roundtrip() {
        let mut sim = Simulation::new(1);
        let (tx, rx) = oneshot::<&'static str>();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_micros(10)).await;
            tx.send("done");
        });
        let v = sim.block_on(rx);
        assert_eq!(v, Ok("done"));
    }

    #[test]
    fn oneshot_sender_drop_errors() {
        let mut sim = Simulation::new(1);
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        assert_eq!(sim.block_on(rx), Err(RecvError));
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Simulation::new(1);
        let sem = Semaphore::new(2);
        let active = Rc::new(Cell2::default());
        for _ in 0..10 {
            let sem = sem.clone();
            let active = active.clone();
            let h = sim.handle();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                active.cur.set(active.cur.get() + 1);
                active.max.set(active.max.get().max(active.cur.get()));
                h.sleep(SimDuration::from_micros(10)).await;
                active.cur.set(active.cur.get() - 1);
            });
        }
        sim.run();
        assert_eq!(active.max.get(), 2);
    }

    #[derive(Default)]
    struct Cell2 {
        cur: std::cell::Cell<u32>,
        max: std::cell::Cell<u32>,
    }

    #[test]
    fn semaphore_is_fifo() {
        let mut sim = Simulation::new(1);
        let sem = Semaphore::new(1);
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let sem = sem.clone();
            let order = order.clone();
            let h = sim.handle();
            sim.spawn(async move {
                // Stagger arrival to fix the queue order.
                h.sleep(SimDuration::from_nanos(i as u64)).await;
                let _p = sem.acquire().await;
                order.borrow_mut().push(i);
                h.sleep(SimDuration::from_micros(1)).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let mut sim = Simulation::new(1);
        let sem = Semaphore::new(1);
        let h = sim.handle();
        let sem2 = sem.clone();
        sim.spawn(async move {
            let _p = sem2.acquire().await;
            h.sleep(SimDuration::from_micros(5)).await;
        });
        let sem3 = sem.clone();
        let h2 = sim.handle();
        sim.spawn(async move {
            let _p = sem3.acquire().await; // queued waiter
            h2.sleep(SimDuration::from_micros(5)).await;
        });
        sim.run_until(crate::time::SimTime::from_nanos(1));
        assert!(sem.try_acquire().is_none());
        sim.run();
        assert!(sem.try_acquire().is_some());
    }

    #[test]
    fn cancelled_acquire_releases_slot() {
        let mut sim = Simulation::new(1);
        let sem = Semaphore::new(1);
        let sem2 = sem.clone();
        let h = sim.handle();
        let hmain = sim.handle();
        sim.spawn(async move {
            let _p = sem2.acquire().await;
            h.sleep(SimDuration::from_micros(10)).await;
        });
        let sem3 = sem.clone();
        let got = sim.block_on(async move {
            hmain.sleep(SimDuration::from_nanos(1)).await;
            {
                // Queue up, then abandon before grant.
                let acq = sem3.acquire();
                futures_select_drop(acq);
            }
            hmain.sleep(SimDuration::from_micros(20)).await;
            sem3.try_acquire().is_some()
        });
        assert!(got, "cancelled waiter leaked a queue slot");
    }

    fn futures_select_drop<F: Future>(f: F) {
        drop(f);
    }

    #[test]
    fn notify_wakes_all_parked() {
        let mut sim = Simulation::new(1);
        let n = Notify::new();
        let count = Rc::new(std::cell::Cell::new(0));
        for _ in 0..3 {
            let n = n.clone();
            let count = count.clone();
            sim.spawn(async move {
                n.notified().await;
                count.set(count.get() + 1);
            });
        }
        let n2 = n.clone();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_micros(1)).await;
            n2.notify_all();
        });
        sim.run();
        assert_eq!(count.get(), 3);
    }

    /// Four members arrive at 10, 20, 30 and 40 µs. The run with a
    /// waiter polls exactly twice more than the one without: once to
    /// park, once at the last arrival, where it resumes. A semaphore
    /// join would have polled it at every arrival.
    #[test]
    fn a_latch_wakes_its_waiter_once_at_the_last_arrival() {
        fn run(wait: bool) -> (u64, Option<SimTime>) {
            let mut sim = Simulation::new(1);
            let latch = Latch::new(4);
            for i in 1..=4 {
                let (h, arrival) = (sim.handle(), latch.arrival());
                sim.spawn(async move {
                    h.sleep(SimDuration::from_micros(10 * i)).await;
                    arrival.arrive();
                });
            }
            let resumed = Rc::new(std::cell::Cell::new(None));
            if wait {
                let (h, resumed) = (sim.handle(), resumed.clone());
                sim.spawn(async move {
                    latch.await;
                    resumed.set(Some(h.now()));
                });
            }
            sim.run();
            (sim.polls(), resumed.get())
        }
        let (alone, _) = run(false);
        let (waited, resumed) = run(true);
        assert_eq!(waited - alone, 2);
        assert_eq!(resumed, Some(SimTime::from_nanos(40_000)));
    }

    #[test]
    fn a_latch_of_zero_is_open() {
        let mut sim = Simulation::new(1);
        sim.block_on(Latch::new(0));
        assert_eq!(sim.polls(), 1);
    }

    /// A waiter that gives up (here, a timeout before any arrival) and
    /// drops its latch is not woken by the arrivals: its task polls as
    /// often as when nothing arrives at all.
    #[test]
    fn a_dropped_waiter_is_not_woken() {
        fn run(arrive: bool) -> u64 {
            let mut sim = Simulation::new(1);
            let mut latch = Latch::new(2);
            for i in 1..=2 {
                let (h, arrival) = (sim.handle(), latch.arrival());
                sim.spawn(async move {
                    h.sleep(SimDuration::from_micros(10 * i)).await;
                    if arrive {
                        arrival.arrive();
                    }
                });
            }
            let h = sim.handle();
            sim.spawn(async move {
                let waited = h.timeout(SimDuration::from_micros(5), &mut latch).await;
                assert_eq!(waited, None);
                drop(latch);
                h.sleep(SimDuration::from_micros(100)).await;
            });
            sim.run();
            sim.polls()
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn forgotten_permit_lets_go_of_the_semaphore() {
        // `forget` keeps the slot, not the handle: a completion
        // semaphore whose permits are all forgotten (`run_multiclient`)
        // must still be freed with its last user.
        let sem = Semaphore::new(2);
        sem.try_acquire().unwrap().forget();
        assert_eq!(Rc::strong_count(&sem.inner), 1);
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn permit_forget_consumes() {
        let sem = Semaphore::new(3);
        sem.try_acquire().unwrap().forget();
        assert_eq!(sem.available(), 2);
        sem.add_permits(1);
        assert_eq!(sem.available(), 3);
    }
}
