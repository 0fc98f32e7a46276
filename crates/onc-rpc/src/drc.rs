//! Duplicate request cache: at-most-once execution for retransmitted
//! calls.
//!
//! ONC RPC retransmission reuses the XID, so a server that re-executes
//! a retransmitted non-idempotent call (WRITE, CREATE, REMOVE) corrupts
//! state the client already observed. The classic defence (Juszczak,
//! USENIX '89) is an XID-keyed cache with two entry kinds:
//!
//! * **in-progress** — the first copy of the call is still executing;
//!   a duplicate is dropped unanswered (Linux nfsd's `RC_DROPIT`)
//!   instead of racing a second execution: the original's reply is on
//!   its way, and answering twice means moving the bulk data twice —
//!   the second time into buffers the client released when the first
//!   reply arrived;
//! * **completed** — the reply is retained (bounded LRU) and replayed
//!   byte-identically to any later retransmission.
//!
//! Keys combine the peer's fabric node id with the XID, since every
//! client numbers its XIDs from the same origin. Only completed entries
//! are evictable; an evicted entry means a sufficiently late duplicate
//! re-executes, which is the same capacity trade-off real NFS servers
//! make — size the cache to cover the client's retransmission horizon.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use sim_core::stats::Counter;
use sim_core::MetricsRegistry;

/// Cache key: requesting peer plus the call's XID, qualified by the
/// *service epoch* the call first executed under. A replicated cluster
/// bumps the epoch at every promotion; entries recorded under the old
/// primary are carried to the backup and replayed from the previous
/// epoch (see [`DuplicateRequestCache::lookup_cached`]), so a WRITE
/// retransmitted across a failover is replayed, never re-executed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DrcKey {
    /// Fabric node id of the calling peer.
    pub peer: u32,
    /// Transaction id carried by the call (stable across retransmits).
    pub xid: u32,
    /// Service epoch (0 for a standalone server; bumped per promotion).
    pub epoch: u32,
}

enum Entry<V> {
    /// First copy executing.
    InProgress,
    Done(V),
}

/// Registry handles mirroring the cache's statistics (see
/// [`DuplicateRequestCache::bind_metrics`]).
struct DrcMetrics {
    hits: Rc<Counter>,
    inprogress_drops: Rc<Counter>,
    inserts: Rc<Counter>,
    evictions: Rc<Counter>,
}

struct DrcInner<V> {
    entries: HashMap<DrcKey, Entry<V>>,
    /// Completed keys, least recently touched first.
    order: VecDeque<DrcKey>,
    capacity: usize,
    hits: u64,
    inprogress_drops: u64,
    inserts: u64,
    evictions: u64,
    /// When bound, every statistic bump mirrors into the registry.
    metrics: Option<DrcMetrics>,
}

/// A bounded, XID-keyed duplicate request cache (cheap to clone).
pub struct DuplicateRequestCache<V> {
    inner: Rc<RefCell<DrcInner<V>>>,
}

impl<V> Clone for DuplicateRequestCache<V> {
    fn clone(&self) -> Self {
        DuplicateRequestCache {
            inner: self.inner.clone(),
        }
    }
}

/// What the server should do with an arriving call.
pub enum DrcOutcome<V: Clone> {
    /// First sighting: execute, then [`DrcReservation::fill`].
    New(DrcReservation<V>),
    /// Duplicate of a call still executing: drop it. The original
    /// answers; a retransmission after that finds the reply cached, or
    /// executes afresh if the original aborted.
    InProgress,
    /// Duplicate of a completed call: replay this reply verbatim.
    Cached(V),
}

/// Obligation to publish the reply of a call admitted as new. Dropping
/// it unfilled (execution aborted) erases the entry so a retransmission
/// gets a fresh execution instead of waiting forever.
pub struct DrcReservation<V: Clone> {
    cache: DuplicateRequestCache<V>,
    key: DrcKey,
    filled: bool,
}

impl<V: Clone> DrcReservation<V> {
    /// Publish the reply: retain it for later retransmissions.
    pub fn fill(mut self, value: &V) {
        self.filled = true;
        self.cache.complete(self.key, value);
    }
}

impl<V: Clone> Drop for DrcReservation<V> {
    fn drop(&mut self) {
        if !self.filled {
            self.cache.abort(self.key);
        }
    }
}

impl<V: Clone> DuplicateRequestCache<V> {
    /// A cache retaining up to `capacity` completed replies.
    pub fn new(capacity: usize) -> Self {
        DuplicateRequestCache {
            inner: Rc::new(RefCell::new(DrcInner {
                entries: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                hits: 0,
                inprogress_drops: 0,
                inserts: 0,
                evictions: 0,
                metrics: None,
            })),
        }
    }

    /// Register this cache's statistics under `prefix` (e.g.
    /// `server.drc`) in `registry`, yielding `prefix.hits`,
    /// `prefix.inprogress_drops`, `prefix.inserts`, `prefix.evictions`.
    /// Bumps made before binding are carried over.
    pub fn bind_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let mut g = self.inner.borrow_mut();
        let m = DrcMetrics {
            hits: registry.counter(&format!("{prefix}.hits")),
            inprogress_drops: registry.counter(&format!("{prefix}.inprogress_drops")),
            inserts: registry.counter(&format!("{prefix}.inserts")),
            evictions: registry.counter(&format!("{prefix}.evictions")),
        };
        m.hits.add(g.hits.saturating_sub(m.hits.get()));
        m.inprogress_drops
            .add(g.inprogress_drops.saturating_sub(m.inprogress_drops.get()));
        m.inserts.add(g.inserts.saturating_sub(m.inserts.get()));
        m.evictions
            .add(g.evictions.saturating_sub(m.evictions.get()));
        g.metrics = Some(m);
    }

    /// Admit an arriving call.
    pub fn begin(&self, key: DrcKey) -> DrcOutcome<V> {
        let mut g = self.inner.borrow_mut();
        match g.entries.get_mut(&key) {
            Some(Entry::Done(v)) => {
                let v = v.clone();
                g.hits += 1;
                if let Some(m) = &g.metrics {
                    m.hits.inc();
                }
                // Touch: a replayed entry is hot again.
                if let Some(pos) = g.order.iter().position(|k| *k == key) {
                    g.order.remove(pos);
                    g.order.push_back(key);
                }
                DrcOutcome::Cached(v)
            }
            Some(Entry::InProgress) => {
                g.inprogress_drops += 1;
                if let Some(m) = &g.metrics {
                    m.inprogress_drops.inc();
                }
                DrcOutcome::InProgress
            }
            None => {
                g.entries.insert(key, Entry::InProgress);
                DrcOutcome::New(DrcReservation {
                    cache: self.clone(),
                    key,
                    filled: false,
                })
            }
        }
    }

    fn complete(&self, key: DrcKey, value: &V) {
        let mut g = self.inner.borrow_mut();
        g.entries.insert(key, Entry::Done(value.clone()));
        g.order.push_back(key);
        g.inserts += 1;
        if let Some(m) = &g.metrics {
            m.inserts.inc();
        }
        while g.order.len() > g.capacity {
            if let Some(victim) = g.order.pop_front() {
                g.entries.remove(&victim);
                g.evictions += 1;
                if let Some(m) = &g.metrics {
                    m.evictions.inc();
                }
            }
        }
    }

    /// Peek at a completed entry without admitting a new call: a hit
    /// replays (counted + LRU-touched) and a miss changes nothing — no
    /// in-progress entry is created. Used for the cross-epoch fallback:
    /// after a promotion the server probes the previous epoch before
    /// admitting the call as new under the current one.
    pub fn lookup_cached(&self, key: DrcKey) -> Option<V> {
        let mut g = self.inner.borrow_mut();
        let Some(Entry::Done(v)) = g.entries.get(&key) else {
            return None;
        };
        let v = v.clone();
        g.hits += 1;
        if let Some(m) = &g.metrics {
            m.hits.inc();
        }
        if let Some(pos) = g.order.iter().position(|k| *k == key) {
            g.order.remove(pos);
            g.order.push_back(key);
        }
        Some(v)
    }

    /// Insert a completed reply directly, without a prior
    /// [`DuplicateRequestCache::begin`] reservation. This is how a
    /// replicated backup mirrors the primary's completed-reply window:
    /// every applied record installs its reply so the window is already
    /// in place when the backup is promoted.
    pub fn insert_completed(&self, key: DrcKey, value: &V) {
        self.complete(key, value);
    }

    fn abort(&self, key: DrcKey) {
        let mut g = self.inner.borrow_mut();
        // Only an in-progress entry can belong to an unfilled
        // reservation.
        if matches!(g.entries.get(&key), Some(Entry::InProgress)) {
            g.entries.remove(&key);
        }
    }

    /// True if `key` currently has an entry (either kind).
    pub fn contains(&self, key: DrcKey) -> bool {
        self.inner.borrow().entries.contains_key(&key)
    }

    /// Completed entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.borrow().order.len()
    }

    /// True when no completed entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays served from completed entries.
    pub fn hits(&self) -> u64 {
        self.inner.borrow().hits
    }

    /// Duplicates that found their call still executing (dropped).
    pub fn inprogress_drops(&self) -> u64 {
        self.inner.borrow().inprogress_drops
    }

    /// Replies published into the cache.
    pub fn inserts(&self) -> u64 {
        self.inner.borrow().inserts
    }

    /// Completed entries discarded by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.inner.borrow().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(xid: u32) -> DrcKey {
        DrcKey {
            peer: 1,
            xid,
            epoch: 0,
        }
    }

    #[test]
    fn first_call_executes_then_replays() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(8);
        let DrcOutcome::New(slot) = drc.begin(k(1)) else {
            panic!("first sighting must be New");
        };
        slot.fill(&42);
        match drc.begin(k(1)) {
            DrcOutcome::Cached(v) => assert_eq!(v, 42),
            _ => panic!("retransmit must replay"),
        }
        assert_eq!(drc.hits(), 1);
    }

    #[test]
    fn duplicate_of_in_progress_call_is_dropped_until_the_reply_is_cached() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(8);
        let DrcOutcome::New(slot) = drc.begin(k(7)) else {
            panic!()
        };
        for _ in 0..2 {
            assert!(
                matches!(drc.begin(k(7)), DrcOutcome::InProgress),
                "a copy of an executing call is neither run nor answered"
            );
        }
        assert_eq!((drc.inprogress_drops(), drc.hits()), (2, 0));
        slot.fill(&9);
        // The retransmission after the reply went out replays it.
        assert!(matches!(drc.begin(k(7)), DrcOutcome::Cached(9)));
        assert_eq!((drc.inprogress_drops(), drc.hits()), (2, 1));
    }

    #[test]
    fn dropped_reservation_lets_retransmit_re_execute() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(8);
        let DrcOutcome::New(slot) = drc.begin(k(3)) else {
            panic!()
        };
        drop(slot);
        assert!(!drc.contains(k(3)));
        assert!(matches!(drc.begin(k(3)), DrcOutcome::New(_)));
    }

    #[test]
    fn lru_evicts_oldest_completed_entry_only() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(2);
        for xid in 1..=3 {
            let DrcOutcome::New(slot) = drc.begin(k(xid)) else {
                panic!()
            };
            slot.fill(&xid);
        }
        assert_eq!(drc.len(), 2);
        assert_eq!(drc.evictions(), 1);
        assert!(!drc.contains(k(1)));
        assert!(drc.contains(k(2)) && drc.contains(k(3)));
        // Replaying 2 makes 3 the LRU victim for the next insert.
        assert!(matches!(drc.begin(k(2)), DrcOutcome::Cached(2)));
        let DrcOutcome::New(slot) = drc.begin(k(4)) else {
            panic!()
        };
        slot.fill(&4);
        assert!(drc.contains(k(2)) && !drc.contains(k(3)));
    }

    #[test]
    fn bound_metrics_mirror_stats_and_carry_over_history() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(2);
        // History before binding: one insert, one hit.
        let DrcOutcome::New(slot) = drc.begin(k(1)) else {
            panic!()
        };
        slot.fill(&1);
        assert!(matches!(drc.begin(k(1)), DrcOutcome::Cached(1)));

        let reg = MetricsRegistry::new();
        drc.bind_metrics(&reg, "server.drc");
        assert_eq!(reg.get("server.drc.inserts"), Some(1));
        assert_eq!(reg.get("server.drc.hits"), Some(1));

        // Bumps after binding land in both places; the third insert
        // overflows capacity 2 and evicts.
        for xid in 2..=3 {
            let DrcOutcome::New(slot) = drc.begin(k(xid)) else {
                panic!()
            };
            slot.fill(&xid);
        }
        assert_eq!(reg.get("server.drc.inserts"), Some(3));
        assert_eq!(reg.get("server.drc.evictions"), Some(1));
        assert_eq!(drc.inserts(), 3);
        assert_eq!(drc.evictions(), 1);
    }

    #[test]
    fn distinct_peers_do_not_collide_on_xid() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(8);
        let a = DrcKey {
            peer: 1,
            xid: 5,
            epoch: 0,
        };
        let b = DrcKey {
            peer: 2,
            xid: 5,
            epoch: 0,
        };
        let DrcOutcome::New(sa) = drc.begin(a) else {
            panic!()
        };
        sa.fill(&1);
        assert!(matches!(drc.begin(b), DrcOutcome::New(_)));
    }

    #[test]
    fn distinct_epochs_do_not_collide_on_xid() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(8);
        let DrcOutcome::New(s) = drc.begin(k(5)) else {
            panic!()
        };
        s.fill(&1);
        let next_epoch = DrcKey {
            peer: 1,
            xid: 5,
            epoch: 1,
        };
        assert!(matches!(drc.begin(next_epoch), DrcOutcome::New(_)));
    }

    #[test]
    fn lookup_cached_replays_without_admitting() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(8);
        // Miss leaves no in-progress residue: a later begin is New.
        assert_eq!(drc.lookup_cached(k(9)), None);
        assert!(!drc.contains(k(9)));
        let DrcOutcome::New(s) = drc.begin(k(9)) else {
            panic!()
        };
        s.fill(&7);
        assert_eq!(drc.lookup_cached(k(9)), Some(7));
        assert_eq!(drc.hits(), 1);
    }

    #[test]
    fn insert_completed_mirrors_a_window_entry() {
        let drc: DuplicateRequestCache<u32> = DuplicateRequestCache::new(8);
        // A backup installs the primary's reply directly; a retransmit
        // arriving after promotion replays it.
        drc.insert_completed(k(11), &99);
        assert_eq!(drc.inserts(), 1);
        match drc.begin(k(11)) {
            DrcOutcome::Cached(v) => assert_eq!(v, 99),
            _ => panic!("imported entry must replay"),
        }
    }
}
