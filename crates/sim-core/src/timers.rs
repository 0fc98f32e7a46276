//! The executor's pending timers: one binary heap.
//!
//! Timers fire in `(deadline, registration)` order — the contract
//! `tests/golden_schedule.rs` pins. The heap is keyed by exactly that
//! pair, so popping its minimum is the whole scheduling rule.
//!
//! ## Handles and cancellation
//!
//! Each timer owns a slot of a generation-tagged slab; its
//! [`TimerHandle`] names the slot and the generation. A fired or
//! cancelled timer's slot is freed with its generation bumped, so a
//! stale handle (a fired timer's `Sleep` dropped later) addresses
//! nothing. [`Timers::cancel`] is O(1) and lazy: it clears the slot's
//! wakee and leaves the key in the heap, where it is discarded when it
//! reaches the top. Once cancelled keys outnumber 64 and half the heap,
//! `BinaryHeap::retain` purges them in place, so a workload that arms
//! long timeouts and always cancels them (RPC retransmission timers)
//! keeps memory proportional to its live timers and allocates nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Cancelled keys the heap may hold before a purge is considered.
const DEAD_FLOOR: usize = 64;

/// Handle to a registered timer; needed to cancel or retarget it.
/// Stale handles (timer already fired) are detected by generation and
/// ignored.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// One timer's firing order and slab slot. `seq` is unique, so `slot`
/// never decides an order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    deadline: u64,
    seq: u64,
    slot: u32,
}

struct Slot<W> {
    gen: u32,
    /// Who the timer wakes; `Some` while it is live, cleared by
    /// cancel/fire.
    wakee: Option<W>,
}

/// The pending-timer heap. See the module docs. `W` is whatever the
/// owner wants handed back when a timer fires — the executor stores who
/// to wake (a task id, usually); the heap never looks inside.
pub(crate) struct Timers<W> {
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    /// Global registration counter; ties on deadline fire in seq order.
    seq: u64,
    heap: BinaryHeap<Reverse<Key>>,
    /// Cancelled keys still in the heap.
    dead: usize,
}

impl<W> Timers<W> {
    /// No pending timers.
    pub(crate) fn new() -> Timers<W> {
        Timers {
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            heap: BinaryHeap::new(),
            dead: 0,
        }
    }

    /// Register a timer. Allocation-free once the slab and the heap
    /// have grown to the peak number of pending timers.
    pub(crate) fn register(&mut self, deadline: SimTime, wakee: W) -> TimerHandle {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                wakee: None,
            });
            (self.slots.len() - 1) as u32
        });
        let s = &mut self.slots[slot as usize];
        s.wakee = Some(wakee);
        self.seq += 1;
        self.heap.push(Reverse(Key {
            deadline: deadline.as_nanos(),
            seq: self.seq,
            slot,
        }));
        TimerHandle { slot, gen: s.gen }
    }

    /// The handle's slot while its timer is live.
    fn live_slot(&mut self, h: TimerHandle) -> Option<&mut Slot<W>> {
        self.slots
            .get_mut(h.slot as usize)
            .filter(|s| s.gen == h.gen && s.wakee.is_some())
    }

    /// Cancel a timer: O(1), lazy. A stale handle is a no-op.
    pub(crate) fn cancel(&mut self, h: TimerHandle) {
        let Some(slot) = self.live_slot(h) else {
            return;
        };
        slot.wakee = None;
        self.dead += 1;
        if self.dead > DEAD_FLOOR && self.dead * 2 > self.heap.len() {
            let (slots, free) = (&mut self.slots, &mut self.free);
            self.heap.retain(|Reverse(key)| {
                let live = slots[key.slot as usize].wakee.is_some();
                if !live {
                    free_slot(slots, free, key.slot);
                }
                live
            });
            self.dead = 0;
        }
    }

    /// Replace who a live timer wakes (used by `Sleep::poll` when it is
    /// polled again before firing). No-op on stale or cancelled handles.
    pub(crate) fn retarget(&mut self, h: TimerHandle, wakee: W) {
        if let Some(slot) = self.live_slot(h) {
            slot.wakee = Some(wakee);
        }
    }

    /// The earliest live timer's deadline. Cancelled keys on top of the
    /// heap are discarded on the way.
    pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
        loop {
            let Reverse(key) = *self.heap.peek()?;
            if self.slots[key.slot as usize].wakee.is_some() {
                return Some(SimTime::from_nanos(key.deadline));
            }
            self.heap.pop();
            free_slot(&mut self.slots, &mut self.free, key.slot);
            self.dead -= 1;
        }
    }

    /// Pop the earliest live timer with `deadline <= limit`, if any; a
    /// live timer beyond `limit` is left in place.
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, W)> {
        let at = self.next_deadline().filter(|&at| at <= limit)?;
        let Reverse(key) = self.heap.pop()?;
        let wakee = self.slots[key.slot as usize].wakee.take();
        free_slot(&mut self.slots, &mut self.free, key.slot);
        wakee.map(|w| (at, w))
    }
}

/// Return a slot to the free list, invalidating its outstanding handle.
fn free_slot<W>(slots: &mut [Slot<W>], free: &mut Vec<u32>, slot: u32) {
    let s = &mut slots[slot as usize];
    s.gen = s.gen.wrapping_add(1);
    s.wakee = None;
    free.push(slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<W> Timers<W> {
        /// Registered timers neither cancelled nor fired.
        fn live(&self) -> usize {
            self.heap.len() - self.dead
        }
    }

    /// The tests only watch deadlines; nobody is woken.
    struct Nobody;

    fn w() -> Nobody {
        Nobody
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Pop everything due by `limit`, returning deadlines in fire order.
    fn fire_all<W>(timers: &mut Timers<W>, limit: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((at, _)) = timers.pop_due(t(limit)) {
            out.push(at.as_nanos());
        }
        out
    }

    #[test]
    fn fires_in_deadline_order_near_and_far() {
        let mut tm = Timers::new();
        for d in [5_000_000u64, 300, 900_000, 7, 80_000, 2] {
            tm.register(t(d), w());
        }
        assert_eq!(
            fire_all(&mut tm, u64::MAX),
            vec![2, 7, 300, 80_000, 900_000, 5_000_000]
        );
        assert_eq!(tm.live(), 0);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let mut tm = Timers::new();
        for i in 0..8u32 {
            tm.register(t(500), i);
        }
        let mut fired = Vec::new();
        while let Some((_, i)) = tm.pop_due(t(u64::MAX)) {
            fired.push(i);
        }
        assert_eq!(fired, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn respects_pop_limit() {
        let mut tm = Timers::new();
        tm.register(t(100), w());
        tm.register(t(200), w());
        assert_eq!(fire_all(&mut tm, 150), vec![100]);
        assert_eq!(tm.live(), 1);
        assert_eq!(fire_all(&mut tm, u64::MAX), vec![200]);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut tm = Timers::new();
        let a = tm.register(t(100), w());
        tm.register(t(200), w());
        let c = tm.register(t(10_000_000), w());
        tm.cancel(a);
        tm.cancel(c);
        assert_eq!(tm.live(), 1);
        assert_eq!(fire_all(&mut tm, u64::MAX), vec![200]);
    }

    #[test]
    fn stale_handle_cancel_is_noop() {
        let mut tm = Timers::new();
        let a = tm.register(t(100), w());
        assert_eq!(fire_all(&mut tm, u64::MAX), vec![100]);
        // Slot has been freed and maybe reused; the stale cancel must
        // not touch the new occupant.
        let _b = tm.register(t(300), w());
        tm.cancel(a);
        assert_eq!(tm.live(), 1);
        assert_eq!(fire_all(&mut tm, u64::MAX), vec![300]);
    }

    #[test]
    fn a_later_shorter_registration_fires_first() {
        let mut tm = Timers::new();
        tm.register(t(100), w());
        tm.register(t(900), w());
        assert_eq!(tm.pop_due(t(u64::MAX)).unwrap().0.as_nanos(), 100);
        // Registered after the first pop, due before the pending 900.
        tm.register(t(500), w());
        assert_eq!(fire_all(&mut tm, u64::MAX), vec![500, 900]);
    }

    #[test]
    fn far_future_timers_fire_across_an_idle_gap() {
        let mut tm = Timers::new();
        // Two clusters far apart, plus a straggler between them.
        tm.register(t(10), w());
        tm.register(t(1 << 40), w());
        tm.register(t((1 << 40) + 3), w());
        tm.register(t(1 << 50), w());
        assert_eq!(
            fire_all(&mut tm, u64::MAX),
            vec![10, 1 << 40, (1 << 40) + 3, 1 << 50]
        );
    }

    #[test]
    fn cancelled_long_timeouts_do_not_disturb_near_timers() {
        // The RPC retransmission pattern: every operation arms a
        // far-future timeout, awaits a burst of near-future timers, and
        // cancels the timeout. Near timers must keep firing in order.
        let mut tm = Timers::new();
        let mut now = 0u64;
        for op in 0..1000u64 {
            let timeout = tm.register(t(now + 50_000_000), w());
            let mut expect = Vec::new();
            for i in 0..4 {
                let d = now + 100 * (i + 1);
                tm.register(t(d), w());
                expect.push(d);
            }
            for want in expect {
                let (at, _) = tm.pop_due(t(u64::MAX)).expect("near timer pending");
                assert_eq!(at.as_nanos(), want, "op {op}: fired out of order");
                now = at.as_nanos();
            }
            tm.cancel(timeout);
        }
        assert_eq!(tm.live(), 0);
        assert!(fire_all(&mut tm, u64::MAX).is_empty());
    }

    #[test]
    fn heap_purge_bounds_dead_entries() {
        let mut tm = Timers::new();
        // Register and cancel many far-future timers; the heap must not
        // retain them all.
        for i in 0..10_000u64 {
            let h = tm.register(t((1 << 40) + i), w());
            tm.cancel(h);
        }
        assert_eq!(tm.live(), 0);
        assert!(
            tm.heap.len() < 1000,
            "lazy deletion unbounded: {} dead heap entries",
            tm.heap.len()
        );
        assert!(fire_all(&mut tm, u64::MAX).is_empty());
    }

    #[test]
    fn ten_k_staggered_timers_no_rescan_per_tick() {
        // The open-loop overload pattern: 10k+ pending deadlines at
        // once, with new arrivals replacing fired ones. Guards two
        // properties: the slab is bounded by peak concurrency (not
        // total registrations), and the firing order is exactly the
        // deadline order.
        const N: usize = 10_000;
        const GAP: u64 = 1_000;
        let mut tm = Timers::new();
        let mut next = GAP;
        for _ in 0..N {
            tm.register(t(next), w());
            next += GAP;
        }
        assert_eq!(tm.live(), N);
        let mut fired = Vec::new();
        for i in 0..2 * N {
            let (at, _) = tm.pop_due(t(u64::MAX)).expect("timer pending");
            fired.push(at.as_nanos());
            if i < N {
                tm.register(t(next), w());
                next += GAP;
            }
        }
        assert_eq!(tm.live(), 0);
        let expect: Vec<u64> = (1..=2 * N as u64).map(|i| i * GAP).collect();
        assert_eq!(
            fingerprint(&fired),
            fingerprint(&expect),
            "firing order diverged"
        );
        assert!(
            tm.slots.len() <= N + 64,
            "slab grew to {} slots for {N} concurrent timers",
            tm.slots.len()
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
        let mut tm = Timers::new();
        for round in 0..100u64 {
            for i in 0..10 {
                tm.register(t(round * 1000 + i + 1), w());
            }
            assert_eq!(fire_all(&mut tm, u64::MAX).len(), 10);
        }
        assert!(
            tm.slots.len() <= 16,
            "slab grew to {} slots for 10 concurrent timers",
            tm.slots.len()
        );
    }

    /// One step of a model run. Deadlines and limits are offsets from
    /// the clock, which advances to each fired deadline, as the
    /// executor's does.
    #[derive(Clone, Debug)]
    enum Op {
        Register(u64),
        /// Cancel the `i % issued`-th handle ever issued: live, already
        /// cancelled or already fired.
        Cancel(usize),
        Retarget(usize),
        Pop(u64),
    }

    /// Mostly a few nanoseconds out, so deadlines tie; one in five past
    /// 2^40.
    fn offset() -> impl Strategy<Value = u64> {
        (0u64..5, 0u64..8).prop_map(|(pick, off)| if pick == 0 { (1 << 40) + off } else { off })
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, offset(), any::<usize>()).prop_map(|(pick, off, i)| match pick {
            0..=3 => Op::Register(off),
            4 | 5 => Op::Cancel(i),
            6 => Op::Retarget(i),
            7 => Op::Pop(u64::MAX),
            _ => Op::Pop(off),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a sorted list of the live `(deadline, seq, wakee)`:
        /// every pop fires the model's minimum (or nothing when it is
        /// past the limit) and hands back its latest wakee, cancelled
        /// timers never fire, stale handles change nothing, and the
        /// cancelled keys left in the heap never exceed 64 or the peak
        /// live count.
        #[test]
        fn heap_matches_a_sorted_reference_model(
            ops in proptest::collection::vec(op(), 1..400)
        ) {
            let mut tm = Timers::new();
            let mut model: Vec<(u64, u64, u64)> = Vec::new();
            let mut issued: Vec<(TimerHandle, u64)> = Vec::new();
            let (mut now, mut seq, mut peak) = (0u64, 0u64, 0usize);
            for (step, op) in ops.into_iter().enumerate() {
                let step = step as u64;
                match op {
                    Op::Register(off) => {
                        seq += 1;
                        let deadline = now.saturating_add(off);
                        issued.push((tm.register(t(deadline), seq), seq));
                        model.push((deadline, seq, seq));
                    }
                    Op::Cancel(i) if !issued.is_empty() => {
                        let (h, s) = issued[i % issued.len()];
                        tm.cancel(h);
                        model.retain(|&(_, m, _)| m != s);
                    }
                    Op::Retarget(i) if !issued.is_empty() => {
                        let (h, s) = issued[i % issued.len()];
                        let wakee = 1 << 32 | step;
                        tm.retarget(h, wakee);
                        if let Some(m) = model.iter_mut().find(|m| m.1 == s) {
                            m.2 = wakee;
                        }
                    }
                    Op::Pop(off) => {
                        let limit = now.saturating_add(off);
                        model.sort_unstable();
                        let want = match model.first() {
                            Some(&(d, _, wakee)) if d <= limit => {
                                model.remove(0);
                                now = d;
                                Some((d, wakee))
                            }
                            _ => None,
                        };
                        let got = tm.pop_due(t(limit)).map(|(at, wk)| (at.as_nanos(), wk));
                        prop_assert_eq!(got, want);
                    }
                    Op::Cancel(_) | Op::Retarget(_) => {}
                }
                peak = peak.max(model.len());
                prop_assert_eq!(tm.live(), model.len());
                prop_assert!(tm.dead <= DEAD_FLOOR.max(peak), "{} dead keys", tm.dead);
            }
            model.sort_unstable();
            let rest: Vec<u64> = model.iter().map(|m| m.0).collect();
            prop_assert_eq!(fire_all(&mut tm, u64::MAX), rest);
            prop_assert_eq!(tm.free.len(), tm.slots.len(), "a slot leaked");
        }
    }
}
