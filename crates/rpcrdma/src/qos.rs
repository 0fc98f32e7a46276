//! Per-tenant weighted fair queueing for the server's dispatch path.
//!
//! Under closed-loop load the per-connection credit window (PR-4
//! admission control) bounds how much work any client can have in
//! flight, and one spawned handler task per call is fine. Under
//! *open-loop* overload — offered load beyond capacity — the spawn-
//! per-call model lets every admitted call queue on the serialized
//! task queue with no arrival-order arbitration and no bound on
//! sojourn time. [`TenantScheduler`] replaces that with an explicit
//! dispatch queue:
//!
//! * **Weighted deficit round-robin across tenants.** Backlogged
//!   tenants are visited in a ring; a visit dispatches up to `weight`
//!   calls before rotating. A tenant with positive weight waits at
//!   most one full ring rotation (the sum of the other backlogged
//!   tenants' weights) for its next dispatch — no starvation, and
//!   sustained throughput proportional to weight when all tenants
//!   stay backlogged.
//! * **Bounded queue, shed on arrival.** A global cap bounds the
//!   total backlog; a per-tenant cap bounds any single tenant's slice
//!   of it (hog isolation: one connection's burst cannot consume the
//!   shared queue). Arrivals past either cap are *shed* — the server
//!   answers immediately with a retryable busy reply instead of
//!   queueing without bound.
//!
//! The structure is deterministic: tenants are kept in a `BTreeMap`,
//! the service ring is an explicit `VecDeque`, and no hashing or RNG
//! is involved — the same arrival sequence always produces the same
//! dispatch and shed sequence, which the same-seed byte-identical
//! artifact gate relies on.
//!
//! The CoDel-style sojourn deadline (shed a call that waited longer
//! than the target before dispatch) lives with the caller: the queued
//! item carries its enqueue time and the dispatch worker checks it
//! against [`QOS_TARGET_DELAY`], so the scheduler itself stays
//! clock-free.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};

use sim_core::SimDuration;

/// Dispatcher tasks draining the QoS queue: the server's effective
/// service concurrency under overload. Small on purpose: each worker
/// occupies the serialized task queue when it dispatches, so the pool
/// depth bounds how much in-service work a backlogged tenant can put in
/// front of a just-arrived one — the fairness harness's honest-p99
/// bound depends on it. Enough workers remain to cover per-op wire/CPU
/// latency and keep the serial stage saturated.
pub const QOS_WORKERS: u32 = 8;

/// Calls the QoS queue holds across all tenants before enqueue itself
/// sheds (busy reply, no dispatch).
pub const QOS_QUEUE_CAP: u32 = 256;

/// Calls one tenant may hold in the QoS queue before its surplus sheds
/// — hog isolation: one connection's burst cannot consume the shared
/// queue. Past half of it the tenant's credit grant is clamped, pushing
/// back through flow control before the hard cap sheds.
pub const QOS_TENANT_BACKLOG: u32 = 64;

/// CoDel-style sojourn target: a queued call older than this at
/// dispatch time is shed instead of serviced — under sustained overload
/// the queue delay the server adds is bounded by this target instead of
/// growing without bound.
pub const QOS_TARGET_DELAY: SimDuration = SimDuration::from_millis(2);

/// Base client back-off after a busy (shed) reply; rejection `n` waits
/// `QOS_SHED_BACKOFF << min(n, 6)` plus the retransmission jitter
/// before re-offering the same XID.
pub const QOS_SHED_BACKOFF: SimDuration = SimDuration::from_micros(400);

/// Busy replies tolerated per call before it fails with
/// [`onc_rpc::TransportError::Overloaded`].
pub const QOS_MAX_REJECTIONS: u32 = 64;

/// Why an arrival was shed instead of queued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShedReason {
    /// The shared queue is at its global cap.
    QueueFull,
    /// The tenant is at its per-tenant backlog cap (hog isolation).
    TenantBacklog,
}

struct Tenant<T> {
    weight: u32,
    /// Dispatches left in the tenant's current ring visit.
    credit: u32,
    queue: VecDeque<T>,
    in_ring: bool,
}

/// Deterministic weighted-DRR dispatch queue over per-tenant FIFOs.
pub struct TenantScheduler<T> {
    tenants: RefCell<BTreeMap<u32, Tenant<T>>>,
    /// Backlogged tenants in service order.
    ring: RefCell<VecDeque<u32>>,
    queued: Cell<u32>,
    queue_cap: u32,
    tenant_cap: u32,
}

impl<T> TenantScheduler<T> {
    /// A scheduler bounded by `queue_cap` calls total and `tenant_cap`
    /// calls per tenant (both clamped to ≥ 1).
    pub fn new(queue_cap: u32, tenant_cap: u32) -> Self {
        TenantScheduler {
            tenants: RefCell::new(BTreeMap::new()),
            ring: RefCell::new(VecDeque::new()),
            queued: Cell::new(0),
            queue_cap: queue_cap.max(1),
            tenant_cap: tenant_cap.max(1),
        }
    }

    /// Set a tenant's weight (clamped to ≥ 1): dispatches per ring
    /// visit while backlogged. Takes effect at the tenant's next visit.
    pub fn set_weight(&self, tenant: u32, weight: u32) {
        let mut tenants = self.tenants.borrow_mut();
        let t = tenants.entry(tenant).or_insert_with(|| Tenant {
            weight: 1,
            credit: 0,
            queue: VecDeque::new(),
            in_ring: false,
        });
        t.weight = weight.max(1);
    }

    /// Offer one call. `Ok(backlog)` queues it and reports the
    /// tenant's backlog including this call; `Err` sheds it, handing
    /// the item back with the reason.
    pub fn enqueue(&self, tenant: u32, item: T) -> Result<u32, (ShedReason, T)> {
        if self.queued.get() >= self.queue_cap {
            return Err((ShedReason::QueueFull, item));
        }
        let mut tenants = self.tenants.borrow_mut();
        let t = tenants.entry(tenant).or_insert_with(|| Tenant {
            weight: 1,
            credit: 0,
            queue: VecDeque::new(),
            in_ring: false,
        });
        if t.queue.len() as u32 >= self.tenant_cap {
            return Err((ShedReason::TenantBacklog, item));
        }
        t.queue.push_back(item);
        if !t.in_ring {
            t.in_ring = true;
            self.ring.borrow_mut().push_back(tenant);
        }
        self.queued.set(self.queued.get() + 1);
        Ok(t.queue.len() as u32)
    }

    /// Take the next call in weighted fair order, with the tenant it
    /// belongs to. `None` when nothing is queued.
    pub fn dequeue(&self) -> Option<(u32, T)> {
        let mut ring = self.ring.borrow_mut();
        let mut tenants = self.tenants.borrow_mut();
        loop {
            let tenant = *ring.front()?;
            let t = tenants.get_mut(&tenant).expect("ringed tenant exists");
            if t.queue.is_empty() {
                // Drained while waiting its turn (deadline sheds).
                t.in_ring = false;
                t.credit = 0;
                ring.pop_front();
                continue;
            }
            if t.credit == 0 {
                t.credit = t.weight;
            }
            let item = t.queue.pop_front().expect("non-empty queue");
            t.credit -= 1;
            self.queued.set(self.queued.get() - 1);
            if t.credit == 0 || t.queue.is_empty() {
                ring.pop_front();
                t.credit = 0;
                if t.queue.is_empty() {
                    t.in_ring = false;
                } else {
                    ring.push_back(tenant);
                }
            }
            return Some((tenant, item));
        }
    }

    /// Remove and return a tenant's entire backlog (used by deadline
    /// sheds that drop a stale tenant queue wholesale, and teardown).
    pub fn drain_tenant(&self, tenant: u32) -> Vec<T> {
        let mut tenants = self.tenants.borrow_mut();
        let Some(t) = tenants.get_mut(&tenant) else {
            return Vec::new();
        };
        let drained: Vec<T> = t.queue.drain(..).collect();
        self.queued.set(self.queued.get() - drained.len() as u32);
        drained
    }

    /// Calls queued across all tenants.
    pub fn queued(&self) -> u32 {
        self.queued.get()
    }

    /// One tenant's current backlog.
    pub fn backlog(&self, tenant: u32) -> u32 {
        self.tenants
            .borrow()
            .get(&tenant)
            .map(|t| t.queue.len() as u32)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_for_single_tenant() {
        let s: TenantScheduler<u32> = TenantScheduler::new(16, 16);
        for i in 0..5 {
            s.enqueue(7, i).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_interleave_across_tenants() {
        let s: TenantScheduler<u32> = TenantScheduler::new(64, 64);
        s.set_weight(1, 2);
        for i in 0..4 {
            s.enqueue(1, 10 + i).unwrap();
            s.enqueue(2, 20 + i).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue().map(|(t, _)| t)).collect();
        // Tenant 1 (weight 2) gets two dispatches per visit, tenant 2 one.
        assert_eq!(order, vec![1, 1, 2, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn global_cap_sheds() {
        let s: TenantScheduler<u32> = TenantScheduler::new(2, 16);
        s.enqueue(1, 0).unwrap();
        s.enqueue(2, 1).unwrap();
        let (reason, item) = s.enqueue(3, 2).unwrap_err();
        assert_eq!(reason, ShedReason::QueueFull);
        assert_eq!(item, 2);
    }

    #[test]
    fn tenant_cap_sheds_only_the_hog() {
        let s: TenantScheduler<u32> = TenantScheduler::new(100, 3);
        for i in 0..3 {
            s.enqueue(1, i).unwrap();
        }
        let (reason, _) = s.enqueue(1, 3).unwrap_err();
        assert_eq!(reason, ShedReason::TenantBacklog);
        // Other tenants unaffected.
        s.enqueue(2, 0).unwrap();
        assert_eq!(s.queued(), 4);
    }

    #[test]
    fn drain_tenant_empties_backlog() {
        let s: TenantScheduler<u32> = TenantScheduler::new(16, 16);
        s.enqueue(1, 0).unwrap();
        s.enqueue(1, 1).unwrap();
        s.enqueue(2, 9).unwrap();
        assert_eq!(s.drain_tenant(1), vec![0, 1]);
        assert_eq!(s.queued(), 1);
        // The emptied tenant's ring entry is skipped harmlessly.
        assert_eq!(s.dequeue(), Some((2, 9)));
        assert_eq!(s.dequeue(), None);
    }
}
