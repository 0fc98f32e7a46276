//! Completion queues with interrupt-cost modelling and interrupt
//! moderation (completion coalescing).
//!
//! A consumer that finds the queue non-empty is *polling* and pays
//! nothing; a consumer that parks and is woken by a new completion pays
//! one interrupt on its host CPU. This is how the Read-Write design's
//! elimination of the `RDMA_DONE` message shows up as reduced server
//! CPU load (paper §4.2).
//!
//! With coalescing enabled (the HCA's `cq_coalesce_count` above one) a
//! parked consumer is not interrupted per completion: the HCA holds the interrupt until
//! either `count` completions have accumulated or the moderation timer
//! expires, so a burst of server RDMA Writes costs one interrupt
//! instead of N. Completions still drain from one FIFO in push (post)
//! order — moderation delays the *wakeup*, never reorders the queue —
//! which keeps every sweep deterministic even when QPs share a CQ.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use sim_core::{Counter, Cpu, Payload, Sim, SimDuration, WakeSlot};

use crate::hca::HcaSeries;
use crate::types::{Opcode, VerbsError, WrId};

/// A work completion.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Echo of the work request id.
    pub wr_id: WrId,
    /// Which operation completed.
    pub opcode: Opcode,
    /// Byte count on success, error status otherwise.
    pub result: Result<u64, VerbsError>,
    /// For receive completions: the arrived data (also placed in the
    /// posted buffer).
    pub payload: Option<Payload>,
    /// For the receive completion of a gathered Send
    /// ([`crate::Qp::post_send_gather`]): its second piece, placed in
    /// the posted buffer right behind `payload`.
    pub tail: Option<Payload>,
}

impl Completion {
    /// True if the completion carries an error status.
    pub fn is_err(&self) -> bool {
        self.result.is_err()
    }
}

struct CqInner {
    queue: VecDeque<Completion>,
    /// The consumer parked in [`Cq::next`], if any.
    waker: WakeSlot,
    pushed: u64,
    /// Queue pairs completing into this CQ.
    producers: usize,
    /// Set when the last producer is gone: nothing can arrive any more,
    /// and a parked consumer is woken to see it ([`Cq::next_open`]).
    closed: bool,
    /// Generation of the armed moderation timer; bumping it cancels the
    /// in-flight timer without tracking the task.
    timer_gen: u64,
    timer_armed: bool,
    /// The owning HCA's `cq_interrupts` series.
    interrupts: Rc<Counter>,
    /// The owning HCA's `cq_coalesced` series: completions that rode an
    /// interrupt another completion paid for (everything beyond the
    /// first drained per parked wakeup).
    coalesced: Rc<Counter>,
}

impl CqInner {
    /// Wake the parked consumer, cancelling any armed moderation timer.
    fn fire(&mut self) {
        self.timer_gen += 1;
        self.timer_armed = false;
        self.waker.wake();
    }
}

/// A completion queue bound to a host CPU for interrupt accounting.
#[derive(Clone)]
pub struct Cq {
    inner: Rc<RefCell<CqInner>>,
    cpu: Cpu,
    /// Completions to accumulate before interrupting a parked consumer.
    coalesce_count: usize,
    /// Interrupt moderation timeout (bounds completion latency when a
    /// batch never fills).
    coalesce_delay: SimDuration,
    /// Needed to arm moderation timers; `None` means no coalescing.
    sim: Option<Sim>,
}

impl Cq {
    /// Create a CQ whose interrupts are charged to `cpu` and counted in
    /// `series`. Interrupt moderation is off: every completion wakes a
    /// parked consumer.
    pub(crate) fn new(cpu: Cpu, series: &HcaSeries) -> Self {
        Cq {
            inner: Rc::new(RefCell::new(CqInner {
                queue: VecDeque::new(),
                waker: WakeSlot::new(),
                pushed: 0,
                producers: 0,
                closed: false,
                timer_gen: 0,
                timer_armed: false,
                interrupts: series.cq_interrupts.clone(),
                coalesced: series.cq_coalesced.clone(),
            })),
            cpu,
            coalesce_count: 1,
            coalesce_delay: SimDuration::ZERO,
            sim: None,
        }
    }

    /// Create a CQ with interrupt moderation: a parked consumer is
    /// interrupted once `count` completions are pending, or `delay`
    /// after the first pending completion, whichever comes first.
    /// `count <= 1` behaves exactly like [`Cq::new`].
    pub(crate) fn with_coalescing(
        cpu: Cpu,
        sim: &Sim,
        count: usize,
        delay: SimDuration,
        series: &HcaSeries,
    ) -> Self {
        let mut cq = Cq::new(cpu, series);
        if count > 1 {
            cq.coalesce_count = count;
            cq.coalesce_delay = delay;
            cq.sim = Some(sim.clone());
        }
        cq
    }

    /// Deliver a completion (called by the HCA).
    pub fn push(&self, c: Completion) {
        let mut inner = self.inner.borrow_mut();
        inner.queue.push_back(c);
        inner.pushed += 1;
        if !inner.waker.is_parked() {
            // Consumer is not parked (polling or mid-drain): nothing to
            // moderate.
            return;
        }
        if self.coalesce_count <= 1 || inner.queue.len() >= self.coalesce_count {
            inner.fire();
        } else if !inner.timer_armed {
            // First pending completion of a batch: arm the moderation
            // timer so latency stays bounded if the batch never fills.
            inner.timer_armed = true;
            let gen = inner.timer_gen;
            let sim = self.sim.clone().expect("coalescing without sim");
            let timer_sim = sim.clone();
            let delay = self.coalesce_delay;
            let weak = Rc::downgrade(&self.inner);
            sim.spawn(async move {
                timer_sim.sleep(delay).await;
                if let Some(inner) = weak.upgrade() {
                    let mut inner = inner.borrow_mut();
                    if inner.timer_armed && inner.timer_gen == gen && !inner.queue.is_empty() {
                        inner.fire();
                    }
                }
            });
        }
    }

    /// Take the next completion without blocking (polling mode, no
    /// interrupt cost).
    pub fn poll(&self) -> Option<Completion> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Await the next completion. If the queue was empty and this task
    /// parked, the wakeup costs one interrupt on the host CPU; with
    /// moderation enabled the interrupt is delayed until a batch
    /// accumulates (or the timer fires), and every completion drained
    /// beyond the first is counted as coalesced.
    ///
    /// # Panics
    /// If the CQ closes first (every QP completing into it is gone):
    /// nothing could ever wake the caller. A consumer that outlives its
    /// QPs awaits [`Cq::next_open`] instead.
    pub async fn next(&self) -> Completion {
        (self.next_open().await).expect("completion queue closed: its queue pairs are gone")
    }

    /// [`Cq::next`], or `None` once the queue is empty and closed: the
    /// end of a consumer task that drains a CQ for as long as it lives.
    /// Closing costs no interrupt.
    pub async fn next_open(&self) -> Option<Completion> {
        if let Some(c) = self.poll() {
            return Some(c);
        }
        // Park until a push (or the moderation timer, or the last
        // producer's teardown) wakes us.
        #[allow(
            clippy::disallowed_methods,
            reason = "one lane: parks on the queue's `WakeSlot`"
        )]
        std::future::poll_fn(|cx| {
            let mut inner = self.inner.borrow_mut();
            if inner.queue.is_empty() && !inner.closed {
                inner.waker.park(cx);
                std::task::Poll::Pending
            } else {
                std::task::Poll::Ready(())
            }
        })
        .await;
        {
            let inner = self.inner.borrow();
            if inner.queue.is_empty() {
                return None;
            }
            inner.interrupts.inc();
            inner
                .coalesced
                .add(inner.queue.len().saturating_sub(1) as u64);
        }
        self.cpu.interrupt().await;
        Some(self.poll().expect("completion vanished after wake"))
    }

    /// A queue pair now completes into this CQ.
    pub(crate) fn attach_producer(&self) {
        self.inner.borrow_mut().producers += 1;
    }

    /// A queue pair completing into this CQ is gone; the last one closes
    /// the CQ and wakes a parked consumer. Runs in a QP's `Drop`, so it
    /// must not panic: a CQ busy at that instant is left open.
    pub(crate) fn detach_producer(&self) {
        let Ok(mut inner) = self.inner.try_borrow_mut() else {
            return;
        };
        inner.producers -= 1;
        if inner.producers == 0 {
            inner.closed = true;
            inner.fire();
        }
    }

    /// Completions delivered so far.
    pub fn delivered(&self) -> u64 {
        self.inner.borrow().pushed
    }

    /// Outstanding (unconsumed) completions.
    pub fn depth(&self) -> usize {
        self.inner.borrow().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;
    use sim_core::{CpuCosts, SimDuration, SimTime, Simulation};

    fn series(sim: &Simulation) -> HcaSeries {
        HcaSeries::new(&sim.metrics(), NodeId(0))
    }

    fn interrupts(sim: &Simulation) -> u64 {
        sim.metrics().get("hca.node0.cq_interrupts").unwrap()
    }

    fn coalesced(sim: &Simulation) -> u64 {
        sim.metrics().get("hca.node0.cq_coalesced").unwrap()
    }

    fn cq_on(sim: &Simulation) -> (Cq, Cpu) {
        let cpu = Cpu::new(
            &sim.handle(),
            "host",
            1,
            CpuCosts {
                interrupt_ns: 5_000,
                ..Default::default()
            },
        );
        (Cq::new(cpu.clone(), &series(sim)), cpu)
    }

    fn comp(id: u64) -> Completion {
        Completion {
            wr_id: WrId(id),
            opcode: Opcode::Send,
            result: Ok(0),
            payload: None,
            tail: None,
        }
    }

    #[test]
    fn polled_completion_is_free() {
        let mut sim = Simulation::new(1);
        let (cq, cpu) = cq_on(&sim);
        cq.push(comp(1));
        let c = sim.block_on({
            let cq = cq.clone();
            async move { cq.next().await }
        });
        assert_eq!(c.wr_id, WrId(1));
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
        assert_eq!(interrupts(&sim), 0);
    }

    #[test]
    fn parked_wakeup_costs_interrupt() {
        let mut sim = Simulation::new(1);
        let (cq, cpu) = cq_on(&sim);
        let h = sim.handle();
        let cq2 = cq.clone();
        sim.spawn(async move {
            h.sleep(SimDuration::from_micros(10)).await;
            cq2.push(comp(7));
        });
        let cq3 = cq.clone();
        let c = sim.block_on(async move { cq3.next().await });
        assert_eq!(c.wr_id, WrId(7));
        assert_eq!(cpu.busy_time(), SimDuration::from_micros(5));
        assert_eq!(interrupts(&sim), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(15_000));
    }

    #[test]
    fn fifo_order() {
        let mut sim = Simulation::new(1);
        let (cq, _) = cq_on(&sim);
        cq.push(comp(1));
        cq.push(comp(2));
        cq.push(comp(3));
        let ids = sim.block_on({
            let cq = cq.clone();
            async move {
                let mut v = Vec::new();
                for _ in 0..3 {
                    v.push(cq.next().await.wr_id.0);
                }
                v
            }
        });
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(cq.delivered(), 3);
        assert_eq!(cq.depth(), 0);
    }

    fn coalescing_cq_on(sim: &Simulation, count: usize, delay_us: u64) -> (Cq, Cpu) {
        let cpu = Cpu::new(
            &sim.handle(),
            "host",
            1,
            CpuCosts {
                interrupt_ns: 5_000,
                ..Default::default()
            },
        );
        let cq = Cq::with_coalescing(
            cpu.clone(),
            &sim.handle(),
            count,
            SimDuration::from_micros(delay_us),
            &series(sim),
        );
        (cq, cpu)
    }

    #[test]
    fn burst_costs_one_interrupt_when_coalesced() {
        let mut sim = Simulation::new(1);
        let (cq, cpu) = coalescing_cq_on(&sim, 4, 100);
        let h = sim.handle();
        let cq2 = cq.clone();
        sim.spawn(async move {
            h.sleep(SimDuration::from_micros(10)).await;
            for i in 0..4 {
                cq2.push(comp(i));
            }
        });
        let cq3 = cq.clone();
        let ids = sim.block_on(async move {
            let mut v = Vec::new();
            for _ in 0..4 {
                v.push(cq3.next().await.wr_id.0);
            }
            v
        });
        assert_eq!(ids, vec![0, 1, 2, 3], "drain stays in push order");
        assert_eq!(interrupts(&sim), 1, "one interrupt for the burst");
        assert_eq!(coalesced(&sim), 3);
        assert_eq!(cpu.busy_time(), SimDuration::from_micros(5));
    }

    #[test]
    fn moderation_timer_bounds_latency_of_partial_batch() {
        let mut sim = Simulation::new(1);
        let (cq, _cpu) = coalescing_cq_on(&sim, 8, 20);
        let h = sim.handle();
        let cq2 = cq.clone();
        sim.spawn(async move {
            h.sleep(SimDuration::from_micros(10)).await;
            cq2.push(comp(9)); // lone completion, batch never fills
        });
        let cq3 = cq.clone();
        let c = sim.block_on(async move { cq3.next().await });
        assert_eq!(c.wr_id, WrId(9));
        assert_eq!(interrupts(&sim), 1);
        assert_eq!(coalesced(&sim), 0);
        // Arrived at 10µs, held 20µs by the moderation timer, then a
        // 5µs interrupt: consumed at 35µs.
        assert_eq!(sim.now(), SimTime::from_nanos(35_000));
    }

    #[test]
    fn polling_consumer_never_pays_moderation_delay() {
        let mut sim = Simulation::new(1);
        let (cq, cpu) = coalescing_cq_on(&sim, 4, 100);
        cq.push(comp(1));
        let c = sim.block_on({
            let cq = cq.clone();
            async move { cq.next().await }
        });
        assert_eq!(c.wr_id, WrId(1));
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
        assert_eq!(interrupts(&sim), 0);
        assert_eq!(sim.now(), SimTime::from_nanos(0));
    }

    #[test]
    fn threshold_wakeup_cancels_moderation_timer() {
        // Fill the batch before the timer expires: the consumer wakes
        // at the threshold push and the stale timer is a no-op.
        let mut sim = Simulation::new(1);
        let (cq, _cpu) = coalescing_cq_on(&sim, 2, 50);
        let h = sim.handle();
        let cq2 = cq.clone();
        sim.spawn(async move {
            h.sleep(SimDuration::from_micros(5)).await;
            cq2.push(comp(1));
            cq2.push(comp(2));
        });
        let cq3 = cq.clone();
        let h2 = sim.handle();
        let drained_at = sim.block_on(async move {
            let a = cq3.next().await;
            let b = cq3.next().await;
            assert_eq!((a.wr_id.0, b.wr_id.0), (1, 2));
            h2.now()
        });
        assert_eq!(interrupts(&sim), 1);
        // Woken at the 2nd push (5µs) + 5µs interrupt — not at 55µs
        // when the stale timer would have fired.
        assert_eq!(drained_at, SimTime::from_nanos(10_000));
    }
}
