//! Contended hardware resources.
//!
//! Every serialized unit in the modelled testbed — a link direction, a
//! CPU core pool, the HCA's TPT-update engine, a disk arm — is a
//! [`Resource`]: a FIFO server with a fixed number of slots. Callers
//! occupy a slot for a duration; throughput ceilings and queueing delays
//! *emerge* from occupancy rather than being hard-coded, which is what
//! lets the paper's bottleneck crossovers reproduce.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Sim, Sleep};
use crate::sync::{Acquire, SemPermit, Semaphore};
use crate::time::{transfer_time, SimDuration, SimTime};

struct ResourceInner {
    name: String,
    capacity: usize,
    busy: Cell<SimDuration>,
    ops: Cell<u64>,
    opened_at: Cell<SimTime>,
}

/// A FIFO-fair multi-slot resource with busy-time accounting.
#[derive(Clone)]
pub struct Resource {
    sim: Sim,
    sem: Semaphore,
    inner: Rc<ResourceInner>,
}

impl Resource {
    /// Create a resource with `capacity` concurrent slots.
    pub fn new(sim: &Sim, name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource needs at least one slot");
        Resource {
            sim: sim.clone(),
            sem: Semaphore::new(capacity),
            inner: Rc::new(ResourceInner {
                name: name.into(),
                capacity,
                busy: Cell::new(SimDuration::ZERO),
                ops: Cell::new(0),
                opened_at: Cell::new(sim.now()),
            }),
        }
    }

    /// Resource name (for traces and reports).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The simulation handle this resource runs on.
    pub fn sim(&self) -> Sim {
        self.sim.clone()
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Occupy one slot for `d`, queueing FIFO behind earlier users.
    /// This is the fundamental "spend hardware time" operation.
    pub fn use_for(&self, d: SimDuration) -> UseFor<'_> {
        UseFor {
            res: self,
            d,
            state: UseState::Start,
        }
    }

    /// Acquire a slot without a fixed duration; the caller models the
    /// occupancy itself and should call [`Resource::charge`] for
    /// accounting. Used when holding across multiple sub-steps.
    pub fn acquire(&self) -> Acquire {
        self.sem.acquire()
    }

    /// Record `d` of busy time without occupying a slot (for work that
    /// was serialized by some other mechanism).
    pub fn charge(&self, d: SimDuration) {
        self.inner.busy.set(self.inner.busy.get() + d);
        self.inner.ops.set(self.inner.ops.get() + 1);
    }

    /// Total busy time across all slots since creation (or last reset).
    pub fn busy_time(&self) -> SimDuration {
        self.inner.busy.get()
    }

    /// Completed occupancy intervals.
    pub fn ops(&self) -> u64 {
        self.inner.ops.get()
    }

    /// Fraction of slot-time spent busy since the accounting window
    /// opened. 1.0 = fully saturated.
    pub fn utilization(&self) -> f64 {
        let elapsed = self.sim.now().saturating_since(self.inner.opened_at.get());
        if elapsed.is_zero() {
            return 0.0;
        }
        self.inner.busy.get().as_nanos() as f64
            / (elapsed.as_nanos() as f64 * self.inner.capacity as f64)
    }

    /// Reset the accounting window to "now" (used to exclude warmup).
    pub fn reset_accounting(&self) {
        self.inner.busy.set(SimDuration::ZERO);
        self.inner.ops.set(0);
        self.inner.opened_at.set(self.sim.now());
    }
}

/// Future returned by [`Resource::use_for`]: one leaf future for the
/// wait for a slot, the occupancy and the charge, where an `async fn`
/// would nest the semaphore's [`Acquire`] and the [`Sleep`] in a
/// generator of its own. Dropped while queued, it leaves the queue;
/// while occupying, it cancels its timer and frees the slot.
#[must_use = "futures do nothing unless polled"]
pub struct UseFor<'a> {
    res: &'a Resource,
    d: SimDuration,
    state: UseState,
}

enum UseState {
    Start,
    Queued(Acquire),
    /// The sleep is made once the slot is held: it ends `d` after that.
    Busy {
        sleep: Sleep,
        _slot: SemPermit,
    },
    Done,
}

impl Future for UseFor<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        loop {
            match &mut this.state {
                UseState::Start if this.d.is_zero() => break,
                UseState::Start => this.state = UseState::Queued(this.res.sem.acquire()),
                UseState::Queued(acquire) => {
                    let Poll::Ready(permit) = Pin::new(acquire).poll(cx) else {
                        return Poll::Pending;
                    };
                    this.state = UseState::Busy {
                        sleep: this.res.sim.sleep(this.d),
                        _slot: permit,
                    };
                }
                UseState::Busy { sleep, .. } => {
                    if Pin::new(sleep).poll(cx).is_pending() {
                        return Poll::Pending;
                    }
                    this.res.charge(this.d);
                    break;
                }
                UseState::Done => panic!("`UseFor` polled after completion"),
            }
        }
        // Frees the slot, after the charge.
        this.state = UseState::Done;
        Poll::Ready(())
    }
}

/// A unidirectional link: serialization at `bandwidth` plus a fixed
/// propagation `latency`. Store-and-forward: the wire is released as
/// soon as the last byte is transmitted, and delivery completes one
/// `latency` later, so back-to-back messages pipeline.
#[derive(Clone)]
pub struct Link {
    sim: Sim,
    wire: Resource,
    bandwidth: u64,
    latency: SimDuration,
}

impl Link {
    /// Create a link with `bandwidth` in bytes/second and propagation
    /// `latency`.
    pub fn new(sim: &Sim, name: impl Into<String>, bandwidth: u64, latency: SimDuration) -> Self {
        Link {
            sim: sim.clone(),
            wire: Resource::new(sim, name, 1),
            bandwidth,
            latency,
        }
    }

    /// Transmit `bytes`; resolves when the data has fully arrived at the
    /// far end.
    pub async fn transfer(&self, bytes: u64) {
        let occupancy = transfer_time(bytes, self.bandwidth);
        self.wire.use_for(occupancy).await;
        if !self.latency.is_zero() {
            self.sim.sleep(self.latency).await;
        }
    }

    /// Bytes/second capacity.
    pub fn bandwidth(&self) -> u64 {
        self.bandwidth
    }

    /// Propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Wire utilization since the accounting window opened.
    pub fn utilization(&self) -> f64 {
        self.wire.utilization()
    }

    /// Reset accounting (exclude warmup).
    pub fn reset_accounting(&self) {
        self.wire.reset_accounting();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use crate::time::SimTime;
    use std::cell::RefCell;

    #[test]
    fn resource_serializes_users() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let r = Resource::new(&h, "bus", 1);
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let r = r.clone();
            let done = done.clone();
            let h = sim.handle();
            sim.spawn(async move {
                r.use_for(SimDuration::from_micros(10)).await;
                done.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*done.borrow(), vec![10_000, 20_000, 30_000, 40_000]);
        assert_eq!(r.busy_time(), SimDuration::from_micros(40));
        assert_eq!(r.ops(), 4);
    }

    #[test]
    fn multi_slot_resource_overlaps() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let r = Resource::new(&h, "cpu", 2);
        for _ in 0..4 {
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_micros(10)).await;
            });
        }
        sim.run();
        // Two pairs of 10us: finishes at 20us, not 40us.
        assert_eq!(sim.now(), SimTime::from_nanos(20_000));
    }

    #[test]
    fn utilization_is_fractional() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let r = Resource::new(&h, "cpu", 2);
        let r2 = r.clone();
        let h2 = sim.handle();
        sim.spawn(async move {
            r2.use_for(SimDuration::from_micros(10)).await;
            h2.sleep(SimDuration::from_micros(10)).await;
        });
        sim.run();
        // busy 10us of 2 slots * 20us elapsed = 0.25
        assert!((r.utilization() - 0.25).abs() < 1e-9);
    }

    /// Polls of the future it wraps.
    struct Polls<F> {
        fut: Pin<Box<F>>,
        polls: Rc<Cell<u32>>,
    }

    impl<F: Future<Output = ()>> Future for Polls<F> {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            self.fut.as_mut().poll(cx)
        }
    }

    /// A one-slot resource held by A over [0, 10 µs), then a user B that
    /// gives up its `use_for(10 µs)` at 5 µs, then C from 1 µs on.
    /// Returns C's start, B's task polls and the busy time.
    fn abandoned(b_first: bool) -> (u64, u32, SimDuration) {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let r = Resource::new(&h, "arm", 1);
        let us = SimDuration::from_micros;
        if !b_first {
            let r = r.clone();
            sim.spawn(async move { r.use_for(us(10)).await });
        }
        let b_polls = Rc::new(Cell::new(0));
        let (r2, h2) = (r.clone(), h.clone());
        sim.spawn(Polls {
            fut: Box::pin(async move {
                let mut used = Box::pin(r2.use_for(us(10)));
                assert_eq!(h2.timeout(us(5), &mut used).await, None);
                drop(used);
                h2.sleep(us(100)).await;
            }),
            polls: b_polls.clone(),
        });
        let started = Rc::new(Cell::new(0));
        let (r3, h3, s) = (r.clone(), h.clone(), started.clone());
        sim.spawn(async move {
            h3.sleep(us(1)).await;
            let _slot = r3.acquire().await;
            s.set(h3.now().as_nanos());
        });
        sim.run();
        (started.get(), b_polls.get(), r.busy_time())
    }

    /// Dropped while queued, `use_for` leaves the queue: C starts when
    /// A frees the slot, at 10 µs.
    #[test]
    fn use_for_dropped_while_queued_leaves_the_queue() {
        let (c_start, b_polls, busy) = abandoned(false);
        assert_eq!(c_start, 10_000);
        assert_eq!(b_polls, 3, "parked, timed out, slept");
        assert_eq!(busy, SimDuration::from_micros(10));
    }

    /// Dropped while occupying the slot, `use_for` frees it at once and
    /// charges nothing: C starts at 5 µs. Its timer is cancelled, or B
    /// would be polled at 10 µs too.
    #[test]
    fn use_for_dropped_while_busy_frees_the_slot_and_cancels_its_timer() {
        let (c_start, b_polls, busy) = abandoned(true);
        assert_eq!(c_start, 5_000);
        assert_eq!(b_polls, 3, "parked, timed out, slept");
        assert_eq!(busy, SimDuration::ZERO);
    }

    /// Made and dropped unpolled, `use_for` takes nothing.
    #[test]
    fn use_for_dropped_unpolled_takes_nothing() {
        let sim = Simulation::new(1);
        let r = Resource::new(&sim.handle(), "arm", 1);
        drop(r.use_for(SimDuration::from_micros(10)));
        assert!(r.sem.try_acquire().is_some());
    }

    #[test]
    fn link_pipelines_messages() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        // 1 GB/s, 5us latency: 1 MB takes 1ms on the wire.
        let link = Link::new(&h, "ib", 1_000_000_000, SimDuration::from_micros(5));
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let link = link.clone();
            let done = done.clone();
            let h = sim.handle();
            sim.spawn(async move {
                link.transfer(1_000_000).await;
                done.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        // Serialization 1ms apart, each + 5us propagation.
        assert_eq!(*done.borrow(), vec![1_005_000, 2_005_000, 3_005_000]);
    }

    #[test]
    fn zero_byte_transfer_costs_latency_only() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let link = Link::new(&h, "ib", 1_000_000_000, SimDuration::from_micros(3));
        let l2 = link.clone();
        sim.block_on(async move { l2.transfer(0).await });
        assert_eq!(sim.now(), SimTime::from_nanos(3_000));
    }

    #[test]
    fn reset_accounting_clears_window() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let r = Resource::new(&h, "x", 1);
        let r2 = r.clone();
        sim.block_on(async move {
            r2.use_for(SimDuration::from_micros(10)).await;
            r2.reset_accounting();
            r2.use_for(SimDuration::from_micros(5)).await;
        });
        assert_eq!(r.busy_time(), SimDuration::from_micros(5));
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }
}
