//! Timer wheel: the executor's pending-timer structure.
//!
//! Replaces the seed's `BinaryHeap<TimerEntry>` + `HashMap<u64, Waker>`
//! pair, which paid a heap sift plus a hash insert/remove per sleep.
//! The common case in simulation workloads is a burst of near-future
//! deadlines (I/O completions microseconds out); this structure makes
//! that case O(1) amortized while keeping the executor's *exact*
//! ordering contract: timers fire in `(deadline, registration)` order,
//! bit-for-bit identical to the old implementation.
//!
//! ## Structure
//!
//! Three tiers, strictly ordered (every drain deadline < every wheel
//! deadline < every far-heap deadline):
//!
//! 1. **drain** — the imminent timers, sorted by `(deadline, seq)`.
//!    Stored descending so the next timer to fire is `drain.last()`,
//!    popped in O(1). Late registrations that land inside the drain
//!    window are sorted in (rare: only a shorter sleep created *after*
//!    the window opened).
//! 2. **wheel** — [`BUCKETS`] buckets of [`GRAIN`] ns each, covering
//!    `[base, base + BUCKETS·GRAIN)`. Insert is O(1): push onto
//!    `buckets[(deadline - base) / GRAIN]`. The wheel is *non-cyclic*:
//!    a bucket holds exactly one grain-window, never a future lap, so
//!    collecting a bucket needs no re-sifting. When the drain empties,
//!    the cursor advances to the next non-empty bucket and its contents
//!    are sorted into the drain — sorting restores exact sub-grain
//!    order, so bucketing never coarsens firing order.
//! 3. **far heap** — deadlines at or beyond the wheel horizon, in a
//!    `BinaryHeap`. When drain and wheel are both empty the wheel
//!    *rebases* at the heap minimum and pours every heap entry inside
//!    the new window into buckets. Idle periods therefore skip forward
//!    in one O(k log n) step instead of ticking empty buckets.
//!
//! ## Cancellation
//!
//! [`TimerWheel::cancel`] is O(1) and lazy: it clears the slot's wakee;
//! the dead key is dropped when its tier is next traversed. Generation
//! counters on slots make stale handles (a fired timer's `Sleep`
//! dropped later) harmless. Lazy deletion is *bounded*: cancelled
//! entries in the far heap are counted and purged wholesale once they
//! outnumber live ones (see [`TimerWheel::maybe_purge_heap`]), so a
//! workload that registers long timeouts and always cancels them keeps
//! memory proportional to the live set.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Buckets in the wheel window.
const BUCKETS: usize = 256;
/// Nanoseconds per bucket (power of two so index math is a shift).
const GRAIN: u64 = 1024;

/// Handle to a registered timer; needed to cancel or retarget it.
/// Stale handles (timer already fired) are detected by generation and
/// ignored.
#[derive(Clone, Copy, Debug)]
pub struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// Where a timer's key currently lives (for dead-entry accounting).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Drain,
    Wheel,
    Heap,
}

/// One timer's identity and firing order. Keys live in exactly one tier
/// and own their slab slot until popped.
#[derive(Clone, Copy)]
struct Key {
    deadline: u64,
    seq: u64,
    slot: u32,
}

impl Key {
    fn order(&self) -> (u64, u64) {
        (self.deadline, self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

struct Slot<W> {
    gen: u32,
    /// Who the timer wakes; `Some` while it is live, cleared by
    /// cancel/fire.
    wakee: Option<W>,
    tier: Tier,
}

/// The three-tier pending-timer structure. See the module docs. `W` is
/// whatever the owner wants handed back when a timer fires — the
/// executor stores who to wake (a task id, usually), the wheel never
/// looks inside.
pub struct TimerWheel<W> {
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    /// Global registration counter; ties on deadline fire in seq order.
    seq: u64,
    /// Imminent timers, sorted descending by `(deadline, seq)` —
    /// `last()` is the next to fire.
    drain: Vec<Key>,
    /// Deadlines below this are in (or past) the drain.
    drain_end: u64,
    buckets: Vec<Vec<Key>>,
    /// One bit per bucket, set while the bucket holds keys: the cursor
    /// jumps to the next occupied bucket instead of scanning empty ones.
    occupied: [u64; BUCKETS / 64],
    /// Start of the wheel window (multiple of `GRAIN`).
    base: u64,
    /// Next bucket to collect into the drain.
    cursor: usize,
    /// Keys currently in buckets (live + dead).
    wheel_len: usize,
    /// Far-future timers (deadline ≥ wheel horizon).
    heap: BinaryHeap<Reverse<Key>>,
    /// Cancelled keys still sitting in the heap.
    heap_dead: usize,
    /// Live (uncancelled, unfired) timers across all tiers.
    live: usize,
}

impl<W> Default for TimerWheel<W> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<W> TimerWheel<W> {
    /// An empty wheel based at t=0.
    pub fn new() -> TimerWheel<W> {
        TimerWheel {
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            drain: Vec::new(),
            drain_end: 0,
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BUCKETS / 64],
            base: 0,
            cursor: 0,
            wheel_len: 0,
            heap: BinaryHeap::new(),
            heap_dead: 0,
            live: 0,
        }
    }

    /// Number of live (registered, not cancelled, not fired) timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Register a timer. Steady-state cost is O(1) and allocation-free
    /// (slab slots and bucket capacity are reused).
    pub fn register(&mut self, deadline: SimTime, wakee: W) -> TimerHandle {
        let slot = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    wakee: None,
                    tier: Tier::Heap,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.slots[slot as usize].wakee = Some(wakee);
        self.seq += 1;
        let key = Key {
            deadline: deadline.as_nanos(),
            seq: self.seq,
            slot,
        };
        self.place(key);
        self.live += 1;
        TimerHandle { slot, gen }
    }

    /// Route a key to its tier. Keys below `drain_end` must sort into
    /// the drain (the wheel has already swept past them).
    fn place(&mut self, key: Key) {
        let d = key.deadline;
        let tier = if d < self.drain_end {
            let pos = self.drain.partition_point(|k| k.order() > key.order());
            self.drain.insert(pos, key);
            Tier::Drain
        } else {
            let off = (d - self.base) / GRAIN;
            if off < BUCKETS as u64 {
                self.fill_bucket(off as usize, key);
                Tier::Wheel
            } else {
                self.heap.push(Reverse(key));
                Tier::Heap
            }
        };
        self.slots[key.slot as usize].tier = tier;
    }

    fn fill_bucket(&mut self, bucket: usize, key: Key) {
        self.buckets[bucket].push(key);
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
        self.wheel_len += 1;
    }

    /// The first occupied bucket at or after `from`. Every key in the
    /// wheel sits at or after the cursor, so with `wheel_len > 0` there
    /// is one.
    fn next_occupied(&self, from: usize) -> usize {
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = self.occupied[word];
        }
        word * 64 + bits.trailing_zeros() as usize
    }

    /// Cancel a timer: O(1), lazy. A stale handle is a no-op.
    pub fn cancel(&mut self, h: TimerHandle) {
        let Some(slot) = self.slots.get_mut(h.slot as usize) else {
            return;
        };
        if slot.gen != h.gen || slot.wakee.is_none() {
            return;
        }
        slot.wakee = None;
        self.live -= 1;
        if slot.tier == Tier::Heap {
            self.heap_dead += 1;
            self.maybe_purge_heap();
        }
    }

    /// Replace who a live timer wakes (used by `Sleep::poll` when it is
    /// polled again before firing). No-op on stale or cancelled handles.
    pub fn retarget(&mut self, h: TimerHandle, wakee: W) {
        let Some(slot) = self.slots.get_mut(h.slot as usize) else {
            return;
        };
        if slot.gen == h.gen && slot.wakee.is_some() {
            slot.wakee = Some(wakee);
        }
    }

    /// Pop the earliest live timer with `deadline <= limit`, if any.
    /// Dead keys encountered on the way are freed (bounded lazy
    /// deletion); a live timer beyond `limit` is left in place.
    ///
    /// `now` is the caller's current virtual time; it anchors the wheel
    /// window when the far heap has to be consulted (see
    /// [`TimerWheel::refill`]), so a pending long timeout never drags
    /// the window away from the present.
    pub fn pop_due(&mut self, limit: SimTime, now: SimTime) -> Option<(SimTime, W)> {
        loop {
            self.refill(now.as_nanos());
            let key = *self.drain.last()?;
            if self.slots[key.slot as usize].wakee.is_none() {
                self.drain.pop();
                self.free_slot(key.slot);
                continue;
            }
            if key.deadline > limit.as_nanos() {
                return None;
            }
            self.drain.pop();
            let wakee = self.slots[key.slot as usize]
                .wakee
                .take()
                .expect("checked live above");
            self.live -= 1;
            self.free_slot(key.slot);
            return Some((SimTime::from_nanos(key.deadline), wakee));
        }
    }

    /// Make the drain non-empty if any timer exists: advance the cursor
    /// collecting buckets, rebasing when the wheel runs dry.
    ///
    /// Rebasing anchors at `now` first, so that a long-lived far-heap
    /// timer (e.g. an RPC retransmission timeout, typically cancelled
    /// long before it fires) cannot drag the window into the far
    /// future — which would force every subsequent near-future sleep
    /// down the sorted-drain slow path. Only when nothing lands in the
    /// window at `now` (a genuine idle skip: the far timer is the next
    /// event) does the window jump to the heap minimum.
    fn refill(&mut self, now: u64) {
        while self.drain.is_empty() {
            if self.wheel_len > 0 {
                self.cursor = self.next_occupied(self.cursor);
                self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
                // Collect one bucket, dropping dead keys; `extend` +
                // `drain(..)` keeps both vecs' capacity.
                let mut bucket = std::mem::take(&mut self.buckets[self.cursor]);
                self.wheel_len -= bucket.len();
                for key in bucket.drain(..) {
                    if self.slots[key.slot as usize].wakee.is_some() {
                        self.slots[key.slot as usize].tier = Tier::Drain;
                        self.drain.push(key);
                    } else {
                        self.free_slot(key.slot);
                    }
                }
                self.buckets[self.cursor] = bucket;
                self.cursor += 1;
                self.drain_end = self.base.saturating_add(self.cursor as u64 * GRAIN);
                // Descending sort: `last()` = minimum `(deadline, seq)`.
                self.drain
                    .sort_unstable_by_key(|k| std::cmp::Reverse(k.order()));
            } else if !self.heap.is_empty() {
                if !self.rebase_at(now) {
                    // Nothing within the window of the present: idle
                    // skip to the heap minimum. (The pour below frees
                    // dead heap keys, so this loop always progresses.)
                    let min = self
                        .heap
                        .peek()
                        .expect("checked non-empty above")
                        .0
                        .deadline;
                    self.rebase_at(min);
                }
            } else {
                return;
            }
        }
    }

    /// Move the wheel window to start at `at` and pour every heap entry
    /// inside the new window into buckets (dead keys are freed on the
    /// way). Returns whether any key left the heap.
    fn rebase_at(&mut self, at: u64) -> bool {
        self.base = at & !(GRAIN - 1);
        self.cursor = 0;
        self.drain_end = self.base;
        let mut moved = false;
        while let Some(Reverse(key)) = self.heap.peek() {
            // Keys below the new base can only be long-dead (the clock
            // never passes a live timer); saturate them into bucket 0.
            let off = key.deadline.saturating_sub(self.base) / GRAIN;
            if off >= BUCKETS as u64 {
                break;
            }
            let Reverse(key) = self.heap.pop().expect("peeked");
            moved = true;
            if self.slots[key.slot as usize].wakee.is_some() {
                self.slots[key.slot as usize].tier = Tier::Wheel;
                self.fill_bucket(off as usize, key);
            } else {
                self.heap_dead -= 1;
                self.free_slot(key.slot);
            }
        }
        moved
    }

    /// Purge the far heap once cancelled entries outnumber live ones
    /// (plus a floor so small heaps never bother). Keeps lazy-deletion
    /// memory proportional to the live set.
    fn maybe_purge_heap(&mut self) {
        if self.heap_dead <= 64 || self.heap_dead * 2 <= self.heap.len() {
            return;
        }
        let keys = std::mem::take(&mut self.heap).into_vec();
        let mut kept = Vec::with_capacity(keys.len() - self.heap_dead);
        for Reverse(key) in keys {
            if self.slots[key.slot as usize].wakee.is_some() {
                kept.push(Reverse(key));
            } else {
                self.free_slot(key.slot);
            }
        }
        self.heap = BinaryHeap::from(kept);
        self.heap_dead = 0;
    }

    fn free_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.wakee = None;
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests only watch deadlines; nobody is woken.
    struct Nobody;

    fn w() -> Nobody {
        Nobody
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Pop everything due by `limit`, returning deadlines in fire order.
    /// Tracks the virtual clock the way the executor does: `now`
    /// advances to each fired deadline.
    fn drain_all(wheel: &mut TimerWheel<Nobody>, limit: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut now = 0;
        while let Some((at, _)) = wheel.pop_due(t(limit), t(now)) {
            now = at.as_nanos();
            out.push(now);
        }
        out
    }

    #[test]
    fn fires_in_deadline_order_across_tiers() {
        let mut wh = TimerWheel::new();
        // Far heap, wheel, and (after a pop) drain-window inserts.
        for d in [5_000_000u64, 300, 900_000, 7, 80_000, 2] {
            wh.register(t(d), w());
        }
        assert_eq!(
            drain_all(&mut wh, u64::MAX),
            vec![2, 7, 300, 80_000, 900_000, 5_000_000]
        );
        assert_eq!(wh.live(), 0);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let mut wh = TimerWheel::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(wh.register(t(500), w()));
        }
        // All in one bucket; seq must break the tie. Pop one at a time
        // and match the seq-implied order via the handles' slots.
        let mut fired = 0;
        while wh.pop_due(t(u64::MAX), t(0)).is_some() {
            fired += 1;
        }
        assert_eq!(fired, 8);
    }

    #[test]
    fn respects_pop_limit() {
        let mut wh = TimerWheel::new();
        wh.register(t(100), w());
        wh.register(t(200), w());
        assert_eq!(drain_all(&mut wh, 150), vec![100]);
        assert_eq!(wh.live(), 1);
        assert_eq!(drain_all(&mut wh, u64::MAX), vec![200]);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut wh = TimerWheel::new();
        let a = wh.register(t(100), w());
        wh.register(t(200), w());
        let c = wh.register(t(10_000_000), w());
        wh.cancel(a);
        wh.cancel(c);
        assert_eq!(wh.live(), 1);
        assert_eq!(drain_all(&mut wh, u64::MAX), vec![200]);
    }

    #[test]
    fn stale_handle_cancel_is_noop() {
        let mut wh = TimerWheel::new();
        let a = wh.register(t(100), w());
        assert_eq!(drain_all(&mut wh, u64::MAX), vec![100]);
        // Slot has been freed and maybe reused; the stale cancel must
        // not touch the new occupant.
        let _b = wh.register(t(300), w());
        wh.cancel(a);
        assert_eq!(wh.live(), 1);
        assert_eq!(drain_all(&mut wh, u64::MAX), vec![300]);
    }

    #[test]
    fn late_registration_inside_drain_window_sorts_in() {
        let mut wh = TimerWheel::new();
        wh.register(t(100), w());
        wh.register(t(900), w());
        // Open the drain window (collects the first bucket).
        assert_eq!(wh.pop_due(t(u64::MAX), t(0)).unwrap().0.as_nanos(), 100);
        // 500 is inside the already-swept window; must still fire
        // before 900.
        wh.register(t(500), w());
        assert_eq!(drain_all(&mut wh, u64::MAX), vec![500, 900]);
    }

    #[test]
    fn far_future_rebase_skips_idle_gap() {
        let mut wh = TimerWheel::new();
        // Two clusters far apart, plus a straggler between them.
        wh.register(t(10), w());
        wh.register(t(1 << 40), w());
        wh.register(t((1 << 40) + 3), w());
        wh.register(t(1 << 50), w());
        assert_eq!(
            drain_all(&mut wh, u64::MAX),
            vec![10, 1 << 40, (1 << 40) + 3, 1 << 50]
        );
    }

    #[test]
    fn cancelled_long_timeouts_do_not_disturb_near_timers() {
        // The RPC retransmission pattern: every operation arms a
        // far-future timeout, awaits a burst of near-future timers, and
        // cancels the timeout. Near timers must keep firing in order
        // (and the window must keep tracking the present rather than
        // the abandoned timeouts).
        let mut wh = TimerWheel::new();
        let mut now = 0u64;
        for op in 0..1000u64 {
            let timeout = wh.register(t(now + 50_000_000), w());
            let mut expect = Vec::new();
            for i in 0..4 {
                let d = now + 100 * (i + 1);
                wh.register(t(d), w());
                expect.push(d);
            }
            for want in expect {
                let (at, _) = wh.pop_due(t(u64::MAX), t(now)).expect("near timer pending");
                assert_eq!(at.as_nanos(), want, "op {op}: fired out of order");
                now = at.as_nanos();
            }
            wh.cancel(timeout);
        }
        assert_eq!(wh.live(), 0);
        assert!(drain_all(&mut wh, u64::MAX).is_empty());
    }

    #[test]
    fn heap_purge_bounds_dead_entries() {
        let mut wh = TimerWheel::new();
        // Register and cancel many far-future timers; the heap must not
        // retain them all.
        for i in 0..10_000u64 {
            let h = wh.register(t((1 << 40) + i), w());
            wh.cancel(h);
        }
        assert_eq!(wh.live(), 0);
        assert!(
            wh.heap.len() < 1000,
            "lazy deletion unbounded: {} dead heap entries",
            wh.heap.len()
        );
        assert!(drain_all(&mut wh, u64::MAX).is_empty());
    }

    #[test]
    fn ten_k_staggered_timers_no_rescan_per_tick() {
        // The open-loop overload pattern: 10k+ pending deadlines at
        // once, spanning many wheel windows into the far heap, with new
        // arrivals replacing fired ones. Guards three properties: the
        // slab is bounded by peak concurrency (not total
        // registrations), the drain never approaches the live
        // population (each tick touches O(bucket) keys, no O(n)
        // rescan), and the firing order is exactly the deadline order.
        const N: usize = 10_000;
        const GAP: u64 = 1_000; // sub-grain stagger, ~4 buckets/5 keys
        let mut wh = TimerWheel::new();
        let mut next = GAP;
        for _ in 0..N {
            wh.register(t(next), w());
            next += GAP;
        }
        assert_eq!(wh.live(), N);
        let mut fired = Vec::new();
        let mut now = 0;
        let mut max_drain = 0;
        for i in 0..2 * N {
            let (at, _) = wh.pop_due(t(u64::MAX), t(now)).expect("timer pending");
            now = at.as_nanos();
            fired.push(now);
            max_drain = max_drain.max(wh.drain.len());
            if i < N {
                wh.register(t(next), w());
                next += GAP;
            }
        }
        assert_eq!(wh.live(), 0);
        let expect: Vec<u64> = (1..=2 * N as u64).map(|i| i * GAP).collect();
        assert_eq!(
            fingerprint(&fired),
            fingerprint(&expect),
            "firing order diverged"
        );
        assert!(
            wh.slots.len() <= N + 64,
            "slab grew to {} slots for {N} concurrent timers",
            wh.slots.len()
        );
        assert!(
            max_drain <= 64,
            "drain held {max_drain} keys at once — per-tick collect is rescanning"
        );
    }

    /// FNV-1a over a deadline sequence (firing-order fingerprint).
    fn fingerprint(seq: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in seq {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut wh = TimerWheel::new();
        for round in 0..100u64 {
            for i in 0..10 {
                wh.register(t(round * 1000 + i + 1), w());
            }
            assert_eq!(drain_all(&mut wh, u64::MAX).len(), 10);
        }
        assert!(
            wh.slots.len() <= 16,
            "slab grew to {} slots for 10 concurrent timers",
            wh.slots.len()
        );
    }
}
