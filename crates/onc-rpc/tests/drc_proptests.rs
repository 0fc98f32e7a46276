//! Property tests for the duplicate request cache: under *any*
//! interleaving of first arrivals, retransmissions, completions, and
//! aborted executions, the DRC admits at most one live execution per
//! XID, replays completed replies byte-identically, and drops — never
//! answers, never counts as an execution — every duplicate of a call
//! still executing.
//!
//! The test drives the real cache next to an exact model of its
//! contract (in-progress set + LRU of completed replies) and checks
//! every outcome against the model.

use onc_rpc::{DrcKey, DrcOutcome, DrcReservation, DuplicateRequestCache};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// A call (first copy or retransmission) for this XID arrives.
    Begin { xid: u32 },
    /// One of the open executions finishes: publishes its reply, or
    /// aborts without replying (`sel` picks among open reservations).
    Finish { sel: usize, abort: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..6).prop_map(|xid| Op::Begin { xid }),
        (0usize..8, any::<bool>()).prop_map(|(sel, abort)| Op::Finish { sel, abort }),
    ]
}

fn key(xid: u32) -> DrcKey {
    DrcKey {
        peer: 1,
        xid,
        epoch: 0,
    }
}

/// Exact mirror of the cache's contract.
struct Model {
    /// XIDs with a live (unfinished) execution.
    in_progress: Vec<u32>,
    /// Completed XIDs, least recently touched first, with the reply
    /// each one published.
    completed: Vec<(u32, u64)>,
    capacity: usize,
}

impl Model {
    fn touch(&mut self, xid: u32) {
        if let Some(pos) = self.completed.iter().position(|(x, _)| *x == xid) {
            let e = self.completed.remove(pos);
            self.completed.push(e);
        }
    }
    fn complete(&mut self, xid: u32, v: u64) {
        self.in_progress.retain(|x| *x != xid);
        self.completed.push((xid, v));
        while self.completed.len() > self.capacity {
            self.completed.remove(0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exactly_once_and_byte_identical_replies(
        ops in prop::collection::vec(arb_op(), 1..120),
        cap in 1usize..5,
    ) {
        let drc: DuplicateRequestCache<u64> = DuplicateRequestCache::new(cap);
        let mut model = Model { in_progress: Vec::new(), completed: Vec::new(), capacity: cap };

        // Open executions: (xid, reservation).
        let mut open: Vec<(u32, DrcReservation<u64>)> = Vec::new();
        // Duplicates dropped because their call was still executing.
        let mut dropped = 0u64;
        let mut executions = 0u64;

        for op in ops {
            match op {
                Op::Begin { xid } => match drc.begin(key(xid)) {
                    DrcOutcome::New(slot) => {
                        // Admissible only if the model has neither a live
                        // execution nor a retained reply for this XID —
                        // i.e. re-execution happens only after an abort
                        // or an LRU eviction.
                        prop_assert!(
                            !model.in_progress.contains(&xid)
                                && !model.completed.iter().any(|(x, _)| *x == xid),
                            "second live execution admitted for xid {xid}"
                        );
                        model.in_progress.push(xid);
                        open.push((xid, slot));
                        executions += 1;
                    }
                    DrcOutcome::Cached(v) => {
                        let want = model.completed.iter().find(|(x, _)| *x == xid);
                        prop_assert!(want.is_some(), "replayed an uncompleted xid {xid}");
                        prop_assert_eq!(v, want.unwrap().1, "replay not byte-identical");
                        model.touch(xid);
                    }
                    DrcOutcome::InProgress => {
                        prop_assert!(
                            model.in_progress.contains(&xid),
                            "dropped a duplicate of a xid with no live execution"
                        );
                        // The drop changes nothing: the one execution
                        // stays open and is still the one that answers.
                        prop_assert!(drc.contains(key(xid)));
                        prop_assert_eq!(open.iter().filter(|(x, _)| *x == xid).count(), 1);
                        dropped += 1;
                    }
                },
                Op::Finish { sel, abort } => {
                    if open.is_empty() {
                        continue;
                    }
                    let (xid, slot) = open.remove(sel % open.len());
                    if abort {
                        drop(slot);
                        model.in_progress.retain(|x| *x != xid);
                    } else {
                        // Unique value per execution: detects a stale
                        // reply from an earlier execution being replayed.
                        let v = (xid as u64) << 32 | executions;
                        slot.fill(&v);
                        model.complete(xid, v);
                    }
                }
            }
        }
        // Abort everything still open.
        for (xid, slot) in open {
            drop(slot);
            model.in_progress.retain(|x| *x != xid);
        }

        // Every such duplicate was counted, and none of them became a
        // hit or an execution.
        prop_assert_eq!(drc.inprogress_drops(), dropped);
        prop_assert!(model.in_progress.is_empty());
    }
}
