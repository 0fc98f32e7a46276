//! Property tests for the executor's ready queue: one FIFO. Spawned
//! tasks run in spawn order; a task that yields, or a task spawned
//! mid-poll, joins the back of the queue behind every task already
//! waiting; and one seed always gives the same schedule — the ordering
//! the golden schedule and every figure fingerprint pin.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;
use sim_core::{yield_now, SimDuration, Simulation};

/// One task's run: `(task, step)` per poll that made progress.
type Log = Rc<RefCell<Vec<(usize, u32)>>>;

/// Spawn one task per entry of `yields`. Task `i` logs `(i, step)`, then
/// yields, `yields[i]` times over; on its first step it spawns child
/// `n + i` (which logs once) when `children[i]`. Returns the log.
fn record_run(yields: &[u32], children: &[bool]) -> Vec<(usize, u32)> {
    let mut sim = Simulation::new(42);
    let n = yields.len();
    let log: Log = Rc::default();
    for (i, (&y, &child)) in yields.iter().zip(children).enumerate() {
        let (h, log) = (sim.handle(), log.clone());
        sim.spawn(async move {
            for step in 0..=y {
                log.borrow_mut().push((i, step));
                if step == 0 && child {
                    let log = log.clone();
                    h.spawn(async move { log.borrow_mut().push((n + i, 0)) });
                }
                if step < y {
                    yield_now().await;
                }
            }
        });
    }
    sim.run();
    Rc::try_unwrap(log).unwrap().into_inner()
}

/// The documented order: one FIFO of `(task, step)`; a poll's spawn
/// queues before its own yield, both behind what was already waiting.
fn reference(yields: &[u32], children: &[bool]) -> Vec<(usize, u32)> {
    let n = yields.len();
    let mut queue: VecDeque<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
    let mut out = Vec::new();
    while let Some((task, step)) = queue.pop_front() {
        out.push((task, step));
        if task >= n {
            continue;
        }
        if step == 0 && children[task] {
            queue.push_back((n + task, 0));
        }
        if step < yields[task] {
            queue.push_back((task, step + 1));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spawned_tasks_run_in_spawn_order(count in 0..64usize) {
        let got = record_run(&vec![0; count], &vec![false; count]);
        let want: Vec<(usize, u32)> = (0..count).map(|i| (i, 0)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn yields_and_spawns_queue_behind_the_ready_tasks(
        tasks in proptest::collection::vec((0..4u32, any::<bool>()), 0..16),
    ) {
        let (yields, children): (Vec<u32>, Vec<bool>) = tasks.into_iter().unzip();
        // Exact order equality: every task runs each step exactly once,
        // nothing jumps the queue and nothing waits past its turn.
        prop_assert_eq!(record_run(&yields, &children), reference(&yields, &children));
    }

    #[test]
    fn schedule_is_deterministic(seed in any::<u64>(), count in 1..24usize) {
        // Random sleeps and yields drawn from the seed: timers, wakes and
        // the ready queue together replay exactly.
        let run = || {
            let mut sim = Simulation::new(seed);
            let log: Log = Rc::default();
            for i in 0..count {
                let (h, log) = (sim.handle(), log.clone());
                sim.spawn(async move {
                    for step in 0..3u32 {
                        let ns = h.with_rng(|r| r.gen_range(4));
                        h.sleep(SimDuration::from_nanos(ns)).await;
                        log.borrow_mut().push((i, step));
                        yield_now().await;
                    }
                });
            }
            sim.run();
            Rc::try_unwrap(log).unwrap().into_inner()
        };
        let first = run();
        prop_assert_eq!(first.len(), count * 3);
        prop_assert_eq!(first, run());
    }
}
