//! Property tests for the per-tenant QoS scheduler: queue accounting
//! against a reference model under arbitrary operation interleavings,
//! weight-proportional service, bounded waiting (no starvation), and
//! deterministic shed decisions.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use proptest::prelude::*;
use rpcrdma::{ShedReason, TenantScheduler};

#[derive(Clone, Debug)]
enum Act {
    Enq { tenant: u32 },
    Deq,
    SetWeight { tenant: u32, w: u32 },
    Drain { tenant: u32 },
}

fn arb_act() -> impl Strategy<Value = Act> {
    // Bias toward enqueue/dequeue by repeating those arms (the vendored
    // prop_oneof! has no weight syntax).
    prop_oneof![
        (0..6u32).prop_map(|tenant| Act::Enq { tenant }),
        (0..6u32).prop_map(|tenant| Act::Enq { tenant }),
        (0..6u32).prop_map(|tenant| Act::Enq { tenant }),
        (0..6u32).prop_map(|tenant| Act::Enq { tenant }),
        Just(Act::Deq),
        Just(Act::Deq),
        Just(Act::Deq),
        (0..6u32, 1..=4u32).prop_map(|(tenant, w)| Act::SetWeight { tenant, w }),
        (0..6u32).prop_map(|tenant| Act::Drain { tenant }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model-based accounting: every accepted item is dispatched (or
    /// drained) exactly once, per-tenant FIFO holds, sheds happen
    /// exactly at the caps, and `queued()` always equals the model's
    /// total backlog.
    #[test]
    fn scheduler_matches_reference_model(
        acts in proptest::collection::vec(arb_act(), 1..200),
        queue_cap in 1..24u32,
        tenant_cap in 1..8u32,
    ) {
        let s: TenantScheduler<u64> = TenantScheduler::new(queue_cap, tenant_cap);
        let mut model: BTreeMap<u32, VecDeque<u64>> = BTreeMap::new();
        let mut next_id = 0u64;
        let total = |m: &BTreeMap<u32, VecDeque<u64>>| -> u32 {
            m.values().map(|q| q.len() as u32).sum()
        };
        for act in acts {
            match act {
                Act::Enq { tenant } => {
                    let id = next_id;
                    next_id += 1;
                    let backlog = model.entry(tenant).or_default().len() as u32;
                    match s.enqueue(tenant, id) {
                        Ok(depth) => {
                            prop_assert!(total(&model) < queue_cap, "accepted past global cap");
                            prop_assert!(backlog < tenant_cap, "accepted past tenant cap");
                            model.get_mut(&tenant).unwrap().push_back(id);
                            prop_assert_eq!(depth, backlog + 1);
                        }
                        Err((ShedReason::QueueFull, back)) => {
                            prop_assert_eq!(back, id);
                            prop_assert_eq!(total(&model), queue_cap);
                        }
                        Err((ShedReason::TenantBacklog, back)) => {
                            prop_assert_eq!(back, id);
                            prop_assert_eq!(backlog, tenant_cap);
                        }
                    }
                }
                Act::Deq => match s.dequeue() {
                    Some((tenant, id)) => {
                        let q = model.get_mut(&tenant).expect("dispatch from known tenant");
                        prop_assert_eq!(q.pop_front(), Some(id), "per-tenant FIFO violated");
                    }
                    None => prop_assert_eq!(total(&model), 0, "dequeue None with backlog"),
                },
                Act::SetWeight { tenant, w } => s.set_weight(tenant, w),
                Act::Drain { tenant } => {
                    let got = s.drain_tenant(tenant);
                    let want: Vec<u64> =
                        model.remove(&tenant).unwrap_or_default().into_iter().collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(s.queued(), total(&model), "queued() drifted from model");
        }
    }

    /// With every tenant permanently backlogged, service is exactly
    /// weight-proportional: after k full ring rotations each tenant has
    /// dispatched k x weight calls.
    #[test]
    fn sustained_backlog_gets_weight_proportional_service(
        weights in proptest::collection::vec(1..=4u32, 2..6),
        rounds in 1..4u64,
    ) {
        let sum: u64 = weights.iter().map(|w| *w as u64).sum();
        let s: TenantScheduler<u64> = TenantScheduler::new(10_000, 10_000);
        for (t, w) in weights.iter().enumerate() {
            s.set_weight(t as u32, *w);
            for i in 0..(*w as u64 * rounds) {
                s.enqueue(t as u32, (t as u64) << 32 | i).unwrap();
            }
        }
        let mut dispatched = vec![0u64; weights.len()];
        for _ in 0..sum * rounds {
            let (tenant, _) = s.dequeue().expect("a backlogged tenant");
            dispatched[tenant as usize] += 1;
        }
        prop_assert_eq!(s.dequeue(), None);
        for (t, w) in weights.iter().enumerate() {
            prop_assert_eq!(dispatched[t], *w as u64 * rounds,
                "tenant {} served out of proportion", t);
        }
    }

    /// Bounded waiting: a backlogged tenant is served within one full
    /// ring rotation — at most the sum of the other backlogged
    /// tenants' weights dispatches happen before its first.
    #[test]
    fn backlogged_tenant_waits_at_most_one_rotation(
        weights in proptest::collection::vec(1..=4u32, 2..6),
        victim in 0..6usize,
    ) {
        let victim = victim % weights.len();
        let s: TenantScheduler<u64> = TenantScheduler::new(10_000, 10_000);
        for (t, w) in weights.iter().enumerate() {
            s.set_weight(t as u32, *w);
            for i in 0..8u64 {
                s.enqueue(t as u32, (t as u64) << 32 | i).unwrap();
            }
        }
        let others: u64 = weights
            .iter()
            .enumerate()
            .filter(|(t, _)| *t != victim)
            .map(|(_, w)| *w as u64)
            .sum();
        let mut waited = 0u64;
        loop {
            let (t, _) = s.dequeue().expect("backlog pending");
            if t == victim as u32 {
                break;
            }
            waited += 1;
            prop_assert!(
                waited <= others,
                "tenant {} starved past one rotation ({} dispatches)", victim, waited
            );
        }
    }

    /// The same arrival/service sequence produces the same accept/shed
    /// pattern and dispatch order — the determinism the byte-identical
    /// artifact gate needs.
    #[test]
    fn shed_and_dispatch_decisions_are_deterministic(
        acts in proptest::collection::vec(arb_act(), 1..200),
        queue_cap in 1..16u32,
        tenant_cap in 1..6u32,
    ) {
        let run = || {
            let s: TenantScheduler<u64> = TenantScheduler::new(queue_cap, tenant_cap);
            let mut log: Vec<String> = Vec::new();
            let mut next_id = 0u64;
            for act in &acts {
                match act {
                    Act::Enq { tenant } => {
                        let id = next_id;
                        next_id += 1;
                        log.push(format!("enq {tenant} {:?}", s.enqueue(*tenant, id)));
                    }
                    Act::Deq => log.push(format!("deq {:?}", s.dequeue())),
                    Act::SetWeight { tenant, w } => s.set_weight(*tenant, *w),
                    Act::Drain { tenant } => {
                        log.push(format!("drain {tenant} {:?}", s.drain_tenant(*tenant)));
                    }
                }
            }
            log
        };
        prop_assert_eq!(run(), run());
    }
}
