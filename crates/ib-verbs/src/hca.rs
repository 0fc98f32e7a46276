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
use sim_core::{Counter, Cpu, MetricsRegistry, Payload, Resource, Sim, SimDuration};

use crate::config::HcaConfig;
use crate::cq::{Completion, Cq};
use crate::fabric::Fabric;
use crate::memory::{Buffer, HostMem};
use crate::qp::{sender_loop, Qp, QpInner, QpTable, WireMsg};
use crate::tpt::{ExposureReport, RemoteOp, Tpt};
use crate::types::{Access, NodeId, Opcode, QpNum, Rkey, VerbsError};

/// Registration statistics, for tests and the experiment reports: a
/// snapshot of the HCA's `hca.node{N}.*` series ([`Hca::reg_stats`]).
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

/// The series one HCA counts into, `hca.node{N}.*`, taken when it is
/// built: per node, because each HCA's totals are read on their own.
/// Its QPs and CQs bump the same handles, so a torn-down QP's doorbells
/// and interrupts stay counted.
pub(crate) struct HcaSeries {
    dynamic_regs: Rc<Counter>,
    pub(crate) deregs: Rc<Counter>,
    pub(crate) fmr_maps: Rc<Counter>,
    pub(crate) fmr_unmaps: Rc<Counter>,
    /// Maps an FMR pool refused (region too large, pool exhausted): the
    /// caller falls back to dynamic registration.
    pub(crate) fmr_fallbacks: Rc<Counter>,
    pub(crate) leaked_mrs: Rc<Counter>,
    pages_pinned: Rc<Counter>,
    pages_unpinned: Rc<Counter>,
    pub(crate) doorbells: Rc<Counter>,
    pub(crate) cq_interrupts: Rc<Counter>,
    pub(crate) cq_coalesced: Rc<Counter>,
}

impl HcaSeries {
    pub(crate) fn new(registry: &MetricsRegistry, node: NodeId) -> HcaSeries {
        let series = |name: &str| registry.counter(&format!("hca.node{}.{name}", node.0));
        HcaSeries {
            dynamic_regs: series("dynamic_regs"),
            deregs: series("deregs"),
            fmr_maps: series("fmr_maps"),
            fmr_unmaps: series("fmr_unmaps"),
            fmr_fallbacks: series("fmr_fallbacks"),
            leaked_mrs: series("leaked_mrs"),
            pages_pinned: series("pages_pinned"),
            pages_unpinned: series("pages_unpinned"),
            doorbells: series("doorbells"),
            cq_interrupts: series("cq_interrupts"),
            cq_coalesced: series("cq_coalesced"),
        }
    }
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
    qps: QpTable,
    next_qpn: Cell<u32>,
    pub(crate) series: HcaSeries,
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
            let registry = sim.metrics();
            HcaInner {
                sim: sim.clone(),
                node,
                cfg,
                cpu,
                mem,
                tpt: RefCell::new(Tpt::new(sim.fork_rng(), &registry, node)),
                tpt_engine: Resource::new(sim, format!("hca{}.tpt", node.0), 1),
                fabric: fabric.clone(),
                qps: QpTable::default(),
                next_qpn: Cell::new(1),
                series: HcaSeries::new(&registry, node),
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
        let s = &self.inner.series;
        RegStats {
            dynamic_regs: s.dynamic_regs.get(),
            deregs: s.deregs.get(),
            fmr_maps: s.fmr_maps.get(),
            fmr_unmaps: s.fmr_unmaps.get(),
            leaked_mrs: s.leaked_mrs.get(),
            pages_pinned: s.pages_pinned.get(),
            pages_unpinned: s.pages_unpinned.get(),
        }
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
        self.inner.series.dynamic_regs.inc();
        crate::mr::Mr::new_dynamic(self.clone(), rkey, buffer.clone(), base, len, access, pages)
    }

    /// Charge the CPU for pinning `pages` pages.
    pub async fn pin_pages(&self, pages: u64) {
        self.inner.series.pages_pinned.add(pages);
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
            inner.series.pages_unpinned.add(pages);
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
            self.inner.series.doorbells.clone(),
            self.inner.qps.clone(),
        );
        (qp, wqe_rx)
    }

    /// The live QP numbered `qpn`, if any.
    fn qp(&self, qpn: QpNum) -> Option<Rc<QpInner>> {
        self.inner.qps.borrow().get(&qpn.0).and_then(Weak::upgrade)
    }

    /// A fresh CQ on this HCA's host CPU, honoring the configured
    /// interrupt moderation and counting into this node's series.
    pub(crate) fn make_cq(&self) -> Cq {
        Cq::with_coalescing(
            self.inner.cpu.clone(),
            &self.inner.sim,
            self.inner.cfg.cq_coalesce_count,
            self.inner.cfg.cq_coalesce_delay,
            &self.inner.series,
        )
    }

    /// Doorbells rung by every QP this HCA ever had
    /// (`hca.node{N}.doorbells`).
    pub fn doorbells(&self) -> u64 {
        self.inner.series.doorbells.get()
    }

    /// Interrupts taken on every CQ this HCA ever made
    /// (`hca.node{N}.cq_interrupts`).
    pub fn cq_interrupts(&self) -> u64 {
        self.inner.series.cq_interrupts.get()
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
    a.inner
        .sim
        .spawn(sender_loop(Rc::downgrade(&qa.inner), rx_a));
    b.inner
        .sim
        .spawn(sender_loop(Rc::downgrade(&qb.inner), rx_b));
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
            let Some(qp) = hca.qp(dst_qpn) else {
                return ack.complete(Err(VerbsError::NotConnected));
            };
            let posted = qp.recv_queue.borrow_mut().pop_front();
            let Some(recv) = posted else {
                qp.set_error();
                return ack.complete(Err(VerbsError::ReceiverNotReady));
            };
            let len = data.len() + tail.as_ref().map_or(0, Payload::len);
            if len > recv.len {
                qp.set_error();
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
            qp.recv_cq.push(Completion {
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
            let total = data.len();
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
                    if let Some(qp) = hca.qp(dst_qpn) {
                        qp.set_error();
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
            match (check, hca.qp(dst_qpn)) {
                (Ok((buffer, off)), Some(qp)) => {
                    qp.last_read.set(Some(hca.inner.sim.now()));
                    // Service the read concurrently, bounded by IRD.
                    let hca2 = hca.clone();
                    hca.inner.sim.spawn(async move {
                        let _slot = qp.read_engine.acquire().await;
                        hca2.inner.sim.sleep(hca2.inner.cfg.read_turnaround).await;
                        let payload = buffer.read(off, len);
                        let requester = qp.peer_node.get();
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
                        qp.set_error();
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
            for (q, rx) in [(&q1, rx1), (&q2, rx2), (&p1, rxp1), (&p2, rxp2)] {
                h.spawn(sender_loop(Rc::downgrade(&q.inner), rx));
            }

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
            (order, h.metrics().get("hca.node0.cq_interrupts").unwrap())
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
