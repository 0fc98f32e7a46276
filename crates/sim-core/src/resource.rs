//! Contended hardware resources.
//!
//! Every serialized unit in the modelled testbed — a link direction, a
//! CPU core pool, the HCA's TPT-update engine, a disk arm — is a
//! [`Resource`]: a FIFO server with a fixed number of slots. Callers
//! occupy a slot for a duration; throughput ceilings and queueing delays
//! *emerge* from occupancy rather than being hard-coded, which is what
//! lets the paper's bottleneck crossovers reproduce.

use std::cell::Cell;
use std::rc::Rc;

use crate::executor::Sim;
use crate::sync::{SemPermit, Semaphore};
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
    pub async fn use_for(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let _permit = self.sem.acquire().await;
        self.sim.sleep(d).await;
        self.charge(d);
    }

    /// Acquire a slot without a fixed duration; the caller models the
    /// occupancy itself and should call [`Resource::charge`] for
    /// accounting. Used when holding across multiple sub-steps.
    pub async fn acquire(&self) -> SemPermit {
        self.sem.acquire().await
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
