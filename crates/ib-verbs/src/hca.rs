//! The Host Channel Adapter: TPT, registration engine, QP management
//! and the responder side of every inbound message.
//!
//! Cost structure (paper §4.3): a dynamic registration pins pages on
//! the host CPU, then performs one serialized transaction against the
//! HCA's TPT engine across the I/O bus; deregistration reverses both,
//! and its caller waits for the TPT half only (the unpin gates no reuse).
//! The TPT engine is a single-slot [`Resource`], so concurrent
//! registrations from many server threads queue — this contention is
//! the dominant bottleneck the paper's registration strategies attack.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use sim_core::sync::{Receiver, Sender};
use sim_core::{Cpu, Payload, Resource, Sim, SimDuration};

use crate::config::HcaConfig;
use crate::cq::{Completion, Cq};
use crate::fabric::Fabric;
use crate::memory::{Buffer, HostMem};
use crate::qp::{sender_loop, Qp, WireMsg};
use crate::tpt::{ExposureReport, RemoteOp, Tpt};
use crate::types::{Access, NodeId, Opcode, QpNum, Rkey, VerbsError};

/// Registration statistics, for tests and the experiment reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegStats {
    /// Dynamic registrations performed.
    pub dynamic_regs: u64,
    /// Dynamic deregistrations performed.
    pub deregs: u64,
    /// FMR map operations performed.
    pub fmr_maps: u64,
    /// FMR unmap operations performed.
    pub fmr_unmaps: u64,
    /// Memory regions dropped while still valid (leaks — each one is a
    /// protocol bug or an injected failure).
    pub leaked_mrs: u64,
    /// Pages pinned (all modes).
    pub pages_pinned: u64,
    /// Pages unpinned (all modes), counted when the deferred unpin's CPU
    /// charge completes: at quiescence `pages_pinned - pages_unpinned`
    /// is what is still held.
    pub pages_unpinned: u64,
}

pub(crate) struct HcaInner {
    pub(crate) sim: Sim,
    pub(crate) node: NodeId,
    pub(crate) cfg: HcaConfig,
    pub(crate) cpu: Cpu,
    pub(crate) mem: Rc<HostMem>,
    pub(crate) tpt: RefCell<Tpt>,
    /// The serialized TPT-update engine (one I/O bus transaction at a
    /// time).
    pub(crate) tpt_engine: Resource,
    pub(crate) fabric: Fabric<WireMsg>,
    pub(crate) qps: RefCell<HashMap<u32, Qp>>,
    next_qpn: Cell<u32>,
    pub(crate) stats: RefCell<RegStats>,
    /// Mirror of the TPT's global (all-physical) steering tag, shared
    /// with every QP so post-time SG checks see enablement regardless
    /// of ordering between `enable_all_physical` and `connect`.
    global_rkey_cell: Rc<Cell<Option<Rkey>>>,
    /// Placement watches: per-rkey subscribers notified `(raddr, len)`
    /// the instant an inbound RDMA Write lands in that region. Models
    /// a host consumer polling its own memory for one-sided arrivals
    /// (a replication log ring) without burning simulated CPU — the
    /// poll hit coincides with DMA placement, which is exactly the
    /// ordering a real poller observes.
    watches: RefCell<HashMap<Rkey, Sender<(u64, u64)>>>,
}

/// Handle to a simulated HCA.
#[derive(Clone)]
pub struct Hca {
    pub(crate) inner: Rc<HcaInner>,
}

impl Hca {
    /// Create an HCA for `node` and attach it to `fabric` as the
    /// node's responder.
    pub fn new(
        sim: &Sim,
        node: NodeId,
        cfg: HcaConfig,
        cpu: Cpu,
        mem: Rc<HostMem>,
        fabric: &Fabric<WireMsg>,
    ) -> Hca {
        let inner = Rc::new_cyclic(|responder: &Weak<HcaInner>| {
            // The port holds the HCA weakly (the HCA holds the fabric):
            // a message arriving after the last handle is gone is
            // dropped, and its `Ack` flushes the work request.
            let responder = responder.clone();
            fabric.attach_with(node, cfg.link_bandwidth, cfg.link_latency, move |msg| {
                if let Some(hca) = responder.upgrade() {
                    respond(&Hca { inner: hca }, msg);
                }
            });
            // The security ledger's violation/revocation counters feed
            // the shared `tpt.*` registry series from day one, so chaos
            // and adversary snapshots always carry them.
            let mut tpt = Tpt::new(sim.fork_rng());
            tpt.bind_metrics(&sim.metrics());
            HcaInner {
                sim: sim.clone(),
                node,
                cfg,
                cpu,
                mem,
                tpt: RefCell::new(tpt),
                tpt_engine: Resource::new(sim, format!("hca{}.tpt", node.0), 1),
                fabric: fabric.clone(),
                qps: RefCell::new(HashMap::new()),
                next_qpn: Cell::new(1),
                stats: RefCell::new(RegStats::default()),
                global_rkey_cell: Rc::new(Cell::new(None)),
                watches: RefCell::new(HashMap::new()),
            }
        });
        Hca { inner }
    }

    /// The node this HCA serves.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The simulation this HCA lives in (for spans and metrics).
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Configuration in force.
    pub fn config(&self) -> &HcaConfig {
        &self.inner.cfg
    }

    /// The host CPU this HCA charges driver work to.
    pub fn cpu(&self) -> &Cpu {
        &self.inner.cpu
    }

    /// The host memory manager.
    pub fn mem(&self) -> &Rc<HostMem> {
        &self.inner.mem
    }

    /// The fabric this HCA is attached to.
    pub fn fabric(&self) -> &Fabric<WireMsg> {
        &self.inner.fabric
    }

    /// Registration statistics snapshot.
    pub fn reg_stats(&self) -> RegStats {
        *self.inner.stats.borrow()
    }

    /// Security ledger snapshot.
    pub fn exposure_report(&self) -> ExposureReport {
        self.inner
            .tpt
            .borrow()
            .exposure_report(self.inner.sim.now())
    }

    /// Probability a uniformly guessed steering tag grants a read.
    pub fn guess_hit_probability(&self) -> f64 {
        self.inner.tpt.borrow().guess_hit_probability()
    }

    /// Utilization of the TPT engine since its window opened.
    pub fn tpt_engine_utilization(&self) -> f64 {
        self.inner.tpt_engine.utilization()
    }

    /// Reset per-run accounting (TPT engine window).
    pub fn reset_accounting(&self) {
        self.inner.tpt_engine.reset_accounting();
    }

    // -- Registration --------------------------------------------------

    /// Dynamically register `[offset, offset+len)` of `buffer`: pin the
    /// pages (host CPU) and run one TPT transaction (serialized engine).
    pub async fn register(
        &self,
        buffer: &Buffer,
        offset: u64,
        len: u64,
        access: Access,
    ) -> crate::mr::Mr {
        assert!(offset + len <= buffer.len(), "register out of bounds");
        let _span = self.inner.sim.span("hca", "reg");
        let pages = len.div_ceil(crate::memory::PAGE_SIZE).max(1);
        self.pin_pages(pages).await;
        self.inner
            .tpt_engine
            .use_for(self.inner.cfg.reg_cost(pages))
            .await;
        let base = buffer.addr() + offset;
        let rkey = self.inner.tpt.borrow_mut().insert(
            buffer.clone(),
            base,
            len,
            access,
            self.inner.sim.now(),
        );
        self.inner.stats.borrow_mut().dynamic_regs += 1;
        crate::mr::Mr::new_dynamic(self.clone(), rkey, buffer.clone(), base, len, access, pages)
    }

    /// Charge the CPU for pinning `pages` pages.
    pub async fn pin_pages(&self, pages: u64) {
        self.inner.stats.borrow_mut().pages_pinned += pages;
        self.inner
            .cpu
            .execute(SimDuration::from_nanos(
                self.inner.cfg.pin_per_page.as_nanos() * pages,
            ))
            .await;
    }

    /// Unpin `pages` pages: half the pin cost, charged to a core of this
    /// HCA's CPU as soon as one is free, in release order. Nothing waits
    /// for it — an unpin gates no reuse (the revocation that does, a TPT
    /// invalidate or FMR unmap, is the caller's to await) — so the
    /// caller resumes at once. [`RegStats::pages_unpinned`] counts the
    /// pages when the charge completes.
    pub fn unpin_pages(&self, pages: u64) {
        let inner = self.inner.clone();
        self.inner.sim.spawn(async move {
            let ns = inner.cfg.pin_per_page.as_nanos() * pages / 2;
            inner.cpu.execute(SimDuration::from_nanos(ns)).await;
            inner.stats.borrow_mut().pages_unpinned += pages;
        });
    }

    /// Record a forced teardown of a registration that has no TPT entry
    /// of its own (all-physical pinnings ride the global steering tag).
    /// Keeps the revocation ledger honest for every strategy.
    pub fn note_forced_revocation(&self) {
        self.inner.tpt.borrow_mut().note_revocation();
    }

    /// Enable the privileged all-physical (global) steering tag.
    /// Kernel consumers only (paper §4.3, "All Physical Memory
    /// Registration").
    pub fn enable_all_physical(&self) -> Rkey {
        let rkey = self.inner.tpt.borrow_mut().enable_global_rkey();
        self.inner.global_rkey_cell.set(Some(rkey));
        rkey
    }

    /// The global steering tag, if enabled.
    pub fn global_rkey(&self) -> Option<Rkey> {
        self.inner.tpt.borrow().global_rkey()
    }

    // -- Queue pairs ----------------------------------------------------

    pub(crate) fn alloc_qp(&self, send_cq: Cq, recv_cq: Cq) -> (Qp, Receiver<Vec<crate::qp::Wqe>>) {
        let qpn = QpNum(self.inner.next_qpn.get());
        self.inner.next_qpn.set(qpn.0 + 1);
        let (qp, wqe_rx) = Qp::new(
            self.inner.sim.clone(),
            self.inner.cfg,
            self.inner.node,
            qpn,
            self.inner.fabric.clone(),
            send_cq,
            recv_cq,
            self.inner.global_rkey_cell.clone(),
        );
        qp.bind_doorbell_metric(self.inner.sim.metrics().counter("hca.doorbells"));
        self.inner.qps.borrow_mut().insert(qpn.0, qp.clone());
        (qp, wqe_rx)
    }

    /// A fresh CQ on this HCA's host CPU, honoring the configured
    /// interrupt moderation and bound to the shared `cq.*` metrics.
    pub(crate) fn make_cq(&self) -> Cq {
        let cq = Cq::with_coalescing(
            self.inner.cpu.clone(),
            &self.inner.sim,
            self.inner.cfg.cq_coalesce_count,
            self.inner.cfg.cq_coalesce_delay,
        );
        let metrics = self.inner.sim.metrics();
        cq.bind_metrics(
            metrics.counter("cq.interrupts"),
            metrics.counter("cq.coalesced"),
        );
        cq
    }

    /// Total doorbells rung across this HCA's QPs.
    pub fn doorbells(&self) -> u64 {
        self.inner
            .qps
            .borrow()
            .values()
            .map(|q| q.doorbells())
            .sum()
    }

    /// Total CQ interrupts taken across this HCA's QPs' completion
    /// queues (each distinct CQ counted once, even when QPs share one).
    pub fn cq_interrupts(&self) -> u64 {
        self.fold_cqs(|cq| cq.interrupts())
    }

    /// Total completions that shared an interrupt across this HCA's
    /// completion queues.
    pub fn cq_coalesced(&self) -> u64 {
        self.fold_cqs(|cq| cq.coalesced())
    }

    /// Subscribe to RDMA Write placements into the region behind
    /// `rkey`: every accepted inbound Write sends `(raddr, len)` on
    /// `tx` at placement time. One subscriber per rkey (a later call
    /// replaces the earlier one); dropping the paired receiver simply
    /// discards notifications. This is how a replication log ring's
    /// owner learns that the primary deposited a record without any
    /// two-sided traffic.
    pub fn watch_writes(&self, rkey: Rkey, tx: Sender<(u64, u64)>) {
        self.inner.watches.borrow_mut().insert(rkey, tx);
    }

    /// Remove a placement watch installed by [`Hca::watch_writes`].
    pub fn unwatch_writes(&self, rkey: Rkey) {
        self.inner.watches.borrow_mut().remove(&rkey);
    }

    fn fold_cqs(&self, f: impl Fn(&Cq) -> u64) -> u64 {
        let mut seen = Vec::new();
        let mut total = 0;
        #[allow(clippy::iter_over_hash_type)] // a sum over distinct CQs: order-free
        for qp in self.inner.qps.borrow().values() {
            for cq in [qp.send_cq(), qp.recv_cq()] {
                let id = cq.id();
                if !seen.contains(&id) {
                    seen.push(id);
                    total += f(cq);
                }
            }
        }
        total
    }
}

/// Create and connect a reliable-connection queue pair between two
/// HCAs. Each side gets fresh send/recv CQs bound to its host CPU,
/// with the interrupt moderation its [`HcaConfig`] asks for.
pub fn connect(a: &Hca, b: &Hca) -> (Qp, Qp) {
    let (qa, rx_a) = a.alloc_qp(a.make_cq(), a.make_cq());
    let (qb, rx_b) = b.alloc_qp(b.make_cq(), b.make_cq());
    qa.inner.peer_node.set(b.inner.node);
    qa.inner.peer_qpn.set(qb.qpn());
    qa.inner.connected.set(true);
    qb.inner.peer_node.set(a.inner.node);
    qb.inner.peer_qpn.set(qa.qpn());
    qb.inner.connected.set(true);
    a.inner.sim.spawn(sender_loop(qa.inner.clone(), rx_a));
    b.inner.sim.spawn(sender_loop(qb.inner.clone(), rx_b));
    (qa, qb)
}

/// The responder side of every operation, run by the fabric at the
/// instant a message arrives — inside the sending task's poll, so it
/// must not wait. A Send or RDMA Write is judged and placed on the
/// spot; an RDMA Read spawns the task that occupies the read engine and
/// the wire for its response.
///
/// Each arm answers the requester (`ack.complete`) *before* it wakes
/// any local consumer, so the requester's completion task is queued
/// ahead of the consumer exactly as it was when a dispatcher task stood
/// between the two.
fn respond(hca: &Hca, msg: WireMsg) {
    match msg {
        WireMsg::Send {
            dst_qpn,
            data,
            tail,
            ack,
        } => {
            let qp = hca.inner.qps.borrow().get(&dst_qpn.0).cloned();
            let Some(qp) = qp else {
                return ack.complete(Err(VerbsError::NotConnected));
            };
            let posted = qp.take_recv();
            let Some(recv) = posted else {
                qp.inner.set_error();
                return ack.complete(Err(VerbsError::ReceiverNotReady));
            };
            let len = data.len() + tail.as_ref().map_or(0, Payload::len);
            if len > recv.len {
                qp.inner.set_error();
                return ack.complete(Err(VerbsError::ReceiveTooSmall {
                    needed: len,
                    have: recv.len,
                }));
            }
            ack.complete(Ok(()));
            // DMA placement into the posted buffer, the pieces back to
            // back: no host CPU.
            recv.buffer.write(recv.offset, data.clone());
            if let Some(tail) = &tail {
                recv.buffer.write(recv.offset + data.len(), tail.clone());
            }
            qp.inner.recv_cq.push(Completion {
                wr_id: recv.wr_id,
                opcode: Opcode::Recv,
                result: Ok(len),
                payload: Some(data),
                tail,
            });
        }
        WireMsg::Write {
            dst_qpn,
            raddr,
            rkey,
            data,
            ack,
        } => {
            let mem = hca.inner.mem.clone();
            let total: u64 = data.iter().map(|p| p.len()).sum();
            // One protection check covers the whole gathered range;
            // the pieces then DMA back to back, each placed without
            // flattening (zero-copy on both ends).
            let check = hca.inner.tpt.borrow_mut().check_remote(
                rkey,
                raddr,
                total,
                RemoteOp::Write,
                hca.inner.sim.now(),
                move |a, l| mem.lookup(a, l),
            );
            match check {
                Ok((buffer, off)) => {
                    ack.complete(Ok(()));
                    let mut at = off;
                    for piece in data {
                        let n = piece.len();
                        buffer.write(at, piece);
                        at += n;
                    }
                    // Placement watch: wake any local consumer
                    // polling this region (see `watch_writes`).
                    if !hca.inner.watches.borrow().is_empty() {
                        if let Some(tx) = hca.inner.watches.borrow().get(&rkey) {
                            // A gone consumer just stops polling.
                            let _ = tx.send((raddr, total));
                        }
                    }
                }
                Err(e) => {
                    if let Some(qp) = hca.inner.qps.borrow().get(&dst_qpn.0) {
                        qp.inner.set_error();
                    }
                    ack.complete(Err(e));
                }
            }
        }
        WireMsg::ReadReq {
            dst_qpn,
            raddr,
            rkey,
            len,
            resp,
        } => {
            let mem = hca.inner.mem.clone();
            let check = hca.inner.tpt.borrow_mut().check_remote(
                rkey,
                raddr,
                len,
                RemoteOp::Read,
                hca.inner.sim.now(),
                move |a, l| mem.lookup(a, l),
            );
            let qp = hca.inner.qps.borrow().get(&dst_qpn.0).cloned();
            match (check, qp) {
                (Ok((buffer, off)), Some(qp)) => {
                    // Service the read concurrently, bounded by IRD.
                    let hca2 = hca.clone();
                    hca.inner.sim.spawn(async move {
                        let _slot = qp.inner.read_engine.acquire().await;
                        hca2.inner.sim.sleep(hca2.inner.cfg.read_turnaround).await;
                        let payload = buffer.read(off, len);
                        let requester = qp.inner.peer_node.get();
                        hca2.inner
                            .fabric
                            .raw_transfer(
                                hca2.inner.node,
                                requester,
                                hca2.inner.cfg.wire_header_bytes + len,
                            )
                            .await;
                        resp.send(Ok(payload));
                    });
                }
                (Err(e), qp) => {
                    if let Some(qp) = qp {
                        qp.inner.set_error();
                    }
                    // Nak propagation delay.
                    let hca2 = hca.clone();
                    hca.inner.sim.spawn(async move {
                        hca2.inner.sim.sleep(hca2.inner.cfg.link_latency).await;
                        resp.send(Err(e));
                    });
                }
                (Ok(_), None) => {
                    resp.send(Err(VerbsError::NotConnected));
                }
            }
        }
    }
}

/// Convenience: materialize a payload for assertions in tests.
pub fn payload_bytes(p: &Payload) -> Vec<u8> {
    p.materialize().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PhysLayout;
    use crate::qp::sender_loop;
    use crate::types::{Access, NodeId, WrId};
    use sim_core::{CpuCosts, Simulation};

    /// Satellite 6 determinism guarantee: when several QPs share one
    /// CQ, coalesced completions drain strictly in CQ push order, each
    /// QP's completions stay in its own post order, and the whole drain
    /// sequence (and interrupt count) is identical for identical seeds.
    #[test]
    fn shared_cq_drains_coalesced_completions_in_post_order() {
        let run = |seed: u64| -> (Vec<u64>, u64) {
            let mut sim = Simulation::new(seed);
            let h = sim.handle();
            let fabric = Fabric::new(&h);
            let mut cfg = HcaConfig::sdr();
            cfg.cq_coalesce_count = 4;
            cfg.cq_coalesce_delay = SimDuration::from_micros(100);
            let mk = |id: u32| {
                let node = NodeId(id);
                let cpu = Cpu::new(&h, format!("cpu{id}"), 2, CpuCosts::default());
                let mem = Rc::new(HostMem::new(node, PhysLayout::default(), h.fork_rng()));
                (Hca::new(&h, node, cfg, cpu, mem.clone(), &fabric), mem)
            };
            let (a, _amem) = mk(0);
            let (b, bmem) = mk(1);
            // Two requester QPs on `a` share one send CQ.
            let shared = a.make_cq();
            let (q1, rx1) = a.alloc_qp(shared.clone(), a.make_cq());
            let (q2, rx2) = a.alloc_qp(shared.clone(), a.make_cq());
            let (p1, rxp1) = b.alloc_qp(b.make_cq(), b.make_cq());
            let (p2, rxp2) = b.alloc_qp(b.make_cq(), b.make_cq());
            for (q, p) in [(&q1, &p1), (&q2, &p2)] {
                q.inner.peer_node.set(b.inner.node);
                q.inner.peer_qpn.set(p.qpn());
                q.inner.connected.set(true);
                p.inner.peer_node.set(a.inner.node);
                p.inner.peer_qpn.set(q.qpn());
                p.inner.connected.set(true);
            }
            h.spawn(sender_loop(q1.inner.clone(), rx1));
            h.spawn(sender_loop(q2.inner.clone(), rx2));
            h.spawn(sender_loop(p1.inner.clone(), rxp1));
            h.spawn(sender_loop(p2.inner.clone(), rxp2));

            let target = bmem.alloc(1 << 20);
            let drain_cq = shared.clone();
            let order = sim.block_on(async move {
                let mr = b.register(&target, 0, 1 << 20, Access::REMOTE_WRITE).await;
                for i in 0..8u64 {
                    let q = if i % 2 == 0 { &q1 } else { &q2 };
                    q.post_rdma_write(
                        Payload::synthetic(9, 512),
                        mr.addr() + i * 512,
                        mr.rkey(),
                        WrId(i),
                        true,
                    )
                    .unwrap();
                }
                let mut order = Vec::with_capacity(8);
                for _ in 0..8 {
                    order.push(drain_cq.next().await.wr_id.0);
                }
                order
            });
            (order, shared.interrupts())
        };
        let (o1, i1) = run(7);
        let (o2, i2) = run(7);
        assert_eq!(o1, o2, "same seed must drain in the same order");
        assert_eq!(i1, i2, "same seed must take the same interrupts");
        assert!(i1 < 8, "coalescing must amortize interrupts, got {i1}");
        // Per-QP completion order == post order, even interleaved in
        // the shared queue (evens posted on q1, odds on q2).
        let evens: Vec<u64> = o1.iter().copied().filter(|w| w % 2 == 0).collect();
        let odds: Vec<u64> = o1.iter().copied().filter(|w| w % 2 == 1).collect();
        assert!(evens.windows(2).all(|w| w[0] < w[1]), "q1 order: {o1:?}");
        assert!(odds.windows(2).all(|w| w[0] < w[1]), "q2 order: {o1:?}");
    }
}
