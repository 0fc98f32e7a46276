//! The connection endpoint both engines stand on.
//!
//! One value per connection owns what a kernel ULP keeps per QP: the
//! queue pair, the router that demultiplexes its send CQ, the posted
//! receive window, the work-request-id counter and the scratch encoder
//! outgoing wire messages are assembled in. The client holds one per
//! connection *epoch* — recovery builds a fresh endpoint and swaps it
//! in whole — and the server one per accepted connection.
//!
//! The endpoint does not choose its own shape. Its caller counts the
//! receive window (one credit window on the client: a reply per
//! outstanding call; two on the server: calls plus `RDMA_DONE`s). What
//! the endpoint does decide is how its send CQ is drained (one
//! interrupt-driven router task) and how big a receive buffer is:
//! [`RpcRdmaConfig::recv_size`], derived from the inline threshold, so
//! no caller can post buffers smaller than the messages it agreed to.
//!
//! Each side also keeps, per connection, an RFC 6298 estimate of how
//! long its peer takes to answer ([`ReplyClock`]): the client times the
//! replies to its calls and sets its retransmission timer from it; the
//! Read-Read server times the `RDMA_DONE`s that answer its exposures and
//! revokes an exposure whose `RDMA_DONE` is overdue by it.

#![deny(clippy::too_many_lines)]

use std::cell::{Cell, RefCell};

use bytes::Bytes;
use ib_verbs::{Buffer, Completion, Hca, Opcode, Qp, VerbsError, WrId};
use sim_core::sync::OneshotReceiver;
use sim_core::{Payload, Sim, SimDuration};
use xdr::{Encoder, XdrCodec};

use crate::config::RpcRdmaConfig;
use crate::header::{RdmaHeader, Segment};
use crate::reg::IoBuf;
use crate::router::CompletionRouter;

/// A connection's window of posted receive buffers, indexed by
/// work-request id for re-posting. Buffers are registered once at
/// set-up (amortized, so no per-op cost is charged) and, being kmalloc'd
/// slab memory, each is one physically contiguous run.
pub(crate) struct RecvPool {
    bufs: Vec<Buffer>,
}

impl RecvPool {
    /// Allocate `windows` credit windows of receive buffers and post
    /// every one to `qp`. The caller counts them: one window on the
    /// client (a reply per outstanding call), two on the server (calls,
    /// plus the `RDMA_DONE` a Read-Read client adds to each bulk reply).
    pub(crate) fn post(
        hca: &Hca,
        cfg: &RpcRdmaConfig,
        windows: u32,
        qp: &Qp,
    ) -> Result<RecvPool, VerbsError> {
        let mut pool = RecvPool { bufs: Vec::new() };
        for i in 0..(cfg.credits * windows) as u64 {
            pool.bufs.push(hca.mem().alloc_contiguous(cfg.recv_size()));
            pool.repost(qp, WrId(i))?;
        }
        Ok(pool)
    }

    /// Put buffer `wr_id` (back) on `qp`'s receive queue: at set-up,
    /// and whenever a receive completion has consumed it.
    fn repost(&self, qp: &Qp, wr_id: WrId) -> Result<(), VerbsError> {
        let Some(buf) = self.bufs.get(wr_id.0 as usize).cloned() else {
            return Ok(());
        };
        let len = buf.len();
        qp.post_recv(buf, 0, len, wr_id)
    }
}

/// One connection's transport resources (see the module docs).
pub(crate) struct Endpoint {
    pub(crate) qp: Qp,
    /// Demultiplexes `qp`'s send CQ to per-work-request waiters.
    pub(crate) router: CompletionRouter,
    recv: RecvPool,
    /// Next send-side work-request id. Starts far above any receive
    /// window, whose ids are the pool's buffer indices.
    next_wr: Cell<u64>,
    /// Scratch for assembling outgoing wire messages (RPC/RDMA header +
    /// inline body), reused so the steady-state encode path performs no
    /// heap allocation.
    scratch: RefCell<Encoder>,
}

impl Endpoint {
    /// Bundle a connected QP with the receive window feeding it, and
    /// spawn the router draining its send CQ.
    pub(crate) fn new(sim: &Sim, qp: Qp, recv: RecvPool) -> Endpoint {
        Endpoint {
            router: CompletionRouter::spawn(sim, qp.send_cq().clone()),
            qp,
            recv,
            next_wr: Cell::new(1 << 32),
            scratch: RefCell::new(Encoder::with_capacity(256)),
        }
    }

    /// A fresh send-side work-request id.
    pub(crate) fn alloc_wr(&self) -> WrId {
        WrId(self.next_wr.replace(self.next_wr.get() + 1))
    }

    /// Assemble an outgoing wire message in the scratch encoder — the
    /// transport header, then whatever `inline` writes behind it (the RPC
    /// message, straight from its parts) — and copy it out once: that
    /// copy models staging into the pre-registered inline send buffer.
    pub(crate) fn encode_wire(&self, hdr: &RdmaHeader, inline: impl FnOnce(&mut Encoder)) -> Bytes {
        let mut enc = self.scratch.borrow_mut();
        hdr.encode_into(&mut enc);
        inline(&mut enc);
        Bytes::copy_from_slice(enc.as_slice())
    }

    /// Post `wire` as an unsignaled Send: nobody waits for it, and only a
    /// failure ever completes (in error, to the router's observer).
    pub(crate) fn send(&self, wire: Bytes) -> Result<(), VerbsError> {
        self.qp
            .post_send(Payload::real(wire), self.alloc_wr(), false)
    }

    /// Post `wire` with `data` gathered behind it as one unsignaled Send
    /// (an `RDMA_MSGP` call: the data rides as its own piece, never
    /// staged into the wire bytes).
    pub(crate) fn send_gather(&self, wire: Bytes, data: Payload) -> Result<(), VerbsError> {
        let (wire, wr) = (Payload::real(wire), self.alloc_wr());
        self.qp.post_send_gather(wire, data, wr, false)
    }

    /// Post `wire` as a signaled Send and hand back its completion — for
    /// a sender that holds something the completion releases.
    pub(crate) fn send_signaled(&self, wire: Bytes) -> Option<OneshotReceiver<Completion>> {
        self.signaled(|wr| self.qp.post_send(Payload::real(wire), wr, true))
    }

    /// Post one signaled work request and hand back its completion. The
    /// router must know the id before the HCA does, so `post` is given
    /// one already registered. `None` if it could not be posted (the QP
    /// is dead).
    pub(crate) fn signaled(
        &self,
        post: impl FnOnce(WrId) -> Result<(), VerbsError>,
    ) -> Option<OneshotReceiver<Completion>> {
        let wr = self.alloc_wr();
        let wait = self.router.expect(wr).ok()?;
        post(wr).ok()?;
        Some(wait)
    }

    /// The next inbound message — its first piece, and the piece a
    /// gathered Send carried behind it — its receive buffer already back
    /// on the queue; `None` once the connection has been torn down
    /// (posted receives flush with errors).
    pub(crate) async fn next_message(&self) -> Option<(Payload, Option<Payload>)> {
        loop {
            let c = self.qp.recv_cq().next().await;
            if c.opcode != Opcode::Recv || c.result.is_err() {
                return None;
            }
            // Fails only on a QP already dead, whose flush is next.
            let _ = self.recv.repost(&self.qp, c.wr_id);
            if let Some(payload) = c.payload {
                return Some((payload, c.tail));
            }
        }
    }

    /// Pull a chunk list into `io`: post one RDMA Read per segment into
    /// consecutive ranges of it and wait for all of them — §4.1's
    /// synchronous wait. `false` if any Read could not be posted or
    /// failed; `io` is the caller's to release either way.
    pub(crate) async fn read_into(
        &self,
        io: &IoBuf,
        segments: impl IntoIterator<Item = Segment>,
    ) -> bool {
        let mut off = 0u64;
        let mut waits = Vec::new();
        for seg in segments {
            let (qp, buf, at) = (&self.qp, io.buffer().clone(), io.base() + off);
            let read = |wr| qp.post_rdma_read(buf, at, seg.addr, seg.rkey, seg.len, wr);
            let Some(rx) = self.signaled(read) else {
                return false;
            };
            waits.push(rx);
            off += seg.len;
        }
        for rx in waits {
            if !matches!(rx.await, Ok(c) if c.result.is_ok()) {
                return false;
            }
        }
        true
    }
}

/// When an answer should come, learned from the answers that came: RFC
/// 6298's smoothed round-trip time and mean deviation, `(srtt,
/// rttvar)` once sampled.
#[derive(Default)]
pub(crate) struct ReplyClock(Cell<Option<(SimDuration, SimDuration)>>);

impl ReplyClock {
    /// Fold in `r`, the time to an answer to transmission `attempt` of
    /// a message (RFC 6298 §2): the first sets srtt = r, rttvar = r/2;
    /// each later one moves rttvar a quarter of the way to |srtt − r|,
    /// then srtt an eighth of the way to r. Karn's rule: an answer to a
    /// retransmitted message may answer any of its copies, so it is no
    /// sample.
    pub(crate) fn sample(&self, attempt: u32, r: SimDuration) {
        let next = self.0.get().map_or((r, r / 2), |(srtt, rttvar)| {
            let deviation = srtt.max(r) - srtt.min(r);
            ((srtt * 7 + r) / 8, (rttvar * 3 + deviation) / 4)
        });
        if attempt == 0 {
            self.0.set(Some(next));
        }
    }

    /// `srtt + 4·rttvar`, RFC 6298's timeout before its floor; zero
    /// until the first sample.
    pub(crate) fn rto(&self) -> SimDuration {
        self.0.get().map_or(SimDuration::ZERO, |(s, v)| s + v * 4)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use ib_verbs::{connect, Fabric, HcaConfig, HostMem, NodeId, PhysLayout};
    use sim_core::{Cpu, CpuCosts, Simulation};

    use super::*;

    /// Receive buffers are slab memory: one physical run each, at every
    /// threshold, on a host whose page-at-a-time layout fragments an
    /// ordinary buffer of the same size.
    #[test]
    fn a_receive_buffer_is_one_physical_run() {
        let sim = Simulation::new(1);
        let h = sim.handle();
        let fabric = Fabric::new(&h);
        let host = |id: u32| {
            let cpu = Cpu::new(&h, format!("cpu{id}"), 2, CpuCosts::default());
            let layout = PhysLayout {
                mean_run_bytes: 4096,
            };
            let mem = Rc::new(HostMem::new(NodeId(id), layout, h.fork_rng()));
            Hca::new(&h, NodeId(id), HcaConfig::sdr(), cpu, mem, &fabric)
        };
        let (hca, peer) = (host(0), host(1));
        let (qp, _peer_qp) = connect(&hca, &peer);
        let one_run = |buf: &Buffer| buf.phys_run_count(0, buf.len()) == 1;
        for inline_threshold in [1024, 16 << 10] {
            let cfg = RpcRdmaConfig {
                inline_threshold,
                ..Default::default()
            };
            let pool = RecvPool::post(&hca, &cfg, 1, &qp).expect("posted");
            assert_eq!(pool.bufs.len(), cfg.credits as usize);
            for buf in &pool.bufs {
                assert_eq!(buf.len(), cfg.recv_size());
                assert!(one_run(buf), "{inline_threshold}: {buf:?} is fragmented");
            }
            let ordinary: Vec<_> = (0..8).map(|_| hca.mem().alloc(cfg.recv_size())).collect();
            assert!(!ordinary.iter().all(one_run), "the layout never fragments");
        }
    }

    /// RFC 6298 §2 in integers — the first sample sets srtt and half of
    /// it as rttvar, later ones move rttvar by a quarter, then srtt by
    /// an eighth — and Karn's rule. A cold clock's timeout is zero: the
    /// caller's floor is the whole timer until an answer is timed.
    #[test]
    fn the_reply_clock_follows_rfc_6298_and_karn() {
        let (ms, clock) = (SimDuration::from_millis, ReplyClock::default());
        assert_eq!((clock.0.get(), clock.rto()), (None, SimDuration::ZERO));
        clock.sample(0, ms(8));
        assert_eq!((clock.0.get(), clock.rto()), (Some((ms(8), ms(4))), ms(24)));
        // rttvar = (3·4 + |8 − 16|) / 4 = 5; srtt = (7·8 + 16) / 8 = 9;
        // the reply to a call's third copy is no sample.
        clock.sample(0, ms(16));
        clock.sample(2, ms(400));
        assert_eq!((clock.0.get(), clock.rto()), (Some((ms(9), ms(5))), ms(29)));
    }
}
