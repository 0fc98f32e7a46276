//! Reliable-Connection queue pairs.
//!
//! A [`Qp`] processes work-queue elements strictly in post order on a
//! per-QP sender task (as an HCA's send queue does). The ordering rules
//! the paper's designs depend on fall out of the model:
//!
//! * **RDMA Write → Send**: both travel the same FIFO wire in post
//!   order, so the Send's arrival guarantees the Write's data is placed
//!   at the responder — the Read-Write design's correctness argument.
//! * **RDMA Read ↛ Send**: a Read WQE only occupies the send queue for
//!   its *request*; the response returns later. A Send posted after a
//!   Read can therefore arrive at the peer before the Read data has
//!   been placed locally — the requester must block on the Read's
//!   completion first (paper §4.1, "Synchronous RDMA Read").
//! * **ORD head-of-line blocking**: when `max_ord` Reads are in flight,
//!   the next Read WQE stalls the entire send queue.
//!
//! Every post rings the doorbell (one WQE-processing charge) on its
//! own — the classic one-doorbell-per-WQE behavior — except inside a
//! **WR chain**: a caller with a list of work requests in hand posts it
//! as one [`Qp::chain`], the verbs API's own linked-list post, and the
//! whole list goes out behind the single doorbell rung when the chain
//! closes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use sim_core::sync::{channel, oneshot, OneshotSender, Receiver, Semaphore, Sender};
use sim_core::{Counter, FxMap, Payload, SgList, Sim, SimTime};

use crate::config::HcaConfig;
use crate::cq::{Completion, Cq};
use crate::fabric::Fabric;
use crate::memory::Buffer;
use crate::types::{NodeId, Opcode, QpNum, Rkey, VerbsError, WrId};

/// Messages on the fabric between HCAs.
pub enum WireMsg {
    /// Two-sided Send: channel semantics, consumes a posted receive.
    Send {
        /// Destination queue pair.
        dst_qpn: QpNum,
        /// Message body.
        data: Payload,
        /// A second gathered piece, placed right behind `data`.
        tail: Option<Payload>,
        /// Ack/nak path back to the requester.
        ack: Ack,
    },
    /// One-sided RDMA Write (possibly gathered from several local
    /// pieces; placed contiguously at `raddr` in order).
    Write {
        /// Destination queue pair (for error propagation only).
        dst_qpn: QpNum,
        /// Target virtual address at the responder.
        raddr: u64,
        /// Steering tag authorizing the access.
        rkey: Rkey,
        /// Data to place, as the gather list the WQE carried. The
        /// responder places the pieces back to back — keeping them
        /// separate end to end is what makes the server READ path
        /// copy-free.
        data: SgList,
        /// Ack/nak path back to the requester.
        ack: Ack,
    },
    /// RDMA Read request (the response returns via `resp`).
    ReadReq {
        /// Destination queue pair (IRD accounting, error propagation).
        dst_qpn: QpNum,
        /// Source virtual address at the responder.
        raddr: u64,
        /// Steering tag authorizing the access.
        rkey: Rkey,
        /// Bytes to read.
        len: u64,
        /// Response path carrying the data (or a nak).
        resp: OneshotSender<Result<Payload, VerbsError>>,
    },
}

/// The acknowledgement a Send or RDMA Write carries back to its
/// requester: the responder's verdict, turned into the work request's
/// completion one propagation latency later.
///
/// Nobody waits on most work requests — an unsignaled one that succeeds
/// completes silently — so the acknowledgement is not a channel with a
/// task parked on it. `Ack::complete` is called by the responder at
/// the arrival instant and does nothing at all for an unsignaled
/// success; only a signaled or failed work request spawns the short
/// task that models the ack's flight home and posts the completion. An
/// `Ack` dropped unanswered (the message was lost with its responder
/// gone) completes as [`VerbsError::Flushed`], so a work request can
/// fail but never vanish.
pub struct Ack(Option<Pending>);

/// What the requester remembers about a work request in flight.
struct Pending {
    qp: Rc<QpInner>,
    wr_id: WrId,
    opcode: Opcode,
    len: u64,
    signaled: bool,
}

impl Ack {
    fn new(qp: &Rc<QpInner>, wr_id: WrId, opcode: Opcode, len: u64, signaled: bool) -> Ack {
        Ack(Some(Pending {
            qp: qp.clone(),
            wr_id,
            opcode,
            len,
            signaled,
        }))
    }

    /// Deliver the responder's verdict, at the instant it is reached.
    pub(crate) fn complete(mut self, verdict: Result<(), VerbsError>) {
        if let Some(wr) = self.0.take() {
            wr.settle(verdict);
        }
    }
}

impl Drop for Ack {
    fn drop(&mut self) {
        if let Some(wr) = self.0.take() {
            wr.settle(Err(VerbsError::Flushed));
        }
    }
}

impl Pending {
    fn settle(self, verdict: Result<(), VerbsError>) {
        if verdict.is_ok() && !self.signaled {
            return;
        }
        let sim = self.qp.sim.clone();
        sim.spawn(async move {
            let qp = &self.qp;
            // Ack propagation back to the requester.
            qp.sim.sleep(qp.fabric.latency_to(qp.node)).await;
            let result = verdict.map(|()| self.len);
            finish(qp, self.wr_id, self.opcode, result, self.signaled);
        });
    }
}

/// A posted receive buffer.
pub struct PostedRecv {
    /// Buffer the payload will be DMA'd into.
    pub buffer: Buffer,
    /// Offset within the buffer.
    pub offset: u64,
    /// Capacity available.
    pub len: u64,
    /// Echoed in the receive completion.
    pub wr_id: WrId,
}

/// One scatter/gather entry of a vectored work request.
#[derive(Clone, Debug)]
pub struct Sge {
    /// The data this entry contributes.
    pub data: Payload,
    /// Local key of the registration covering the entry. Entries
    /// backed by the privileged all-physical registration use the
    /// global steering tag — and such a WQE may carry only one entry
    /// (the no-local-scatter/gather restriction of the paper's §4.3).
    pub lkey: Rkey,
}

pub(crate) enum Wqe {
    Send {
        wr_id: WrId,
        data: Payload,
        tail: Option<Payload>,
        signaled: bool,
    },
    Write {
        wr_id: WrId,
        sgl: SgList,
        raddr: u64,
        rkey: Rkey,
        signaled: bool,
    },
    Read {
        wr_id: WrId,
        dst: Buffer,
        dst_off: u64,
        raddr: u64,
        rkey: Rkey,
        len: u64,
    },
}

/// An HCA's queue pairs by number, as the responder finds them: weak,
/// so a QP nobody holds any more is gone from it.
pub(crate) type QpTable = Rc<RefCell<FxMap<u32, Weak<QpInner>>>>;

pub(crate) struct QpInner {
    pub(crate) sim: Sim,
    pub(crate) cfg: HcaConfig,
    pub(crate) node: NodeId,
    pub(crate) qpn: QpNum,
    pub(crate) peer_node: Cell<NodeId>,
    pub(crate) peer_qpn: Cell<QpNum>,
    pub(crate) connected: Cell<bool>,
    pub(crate) error: Cell<bool>,
    pub(crate) fabric: Fabric<WireMsg>,
    pub(crate) send_cq: Cq,
    pub(crate) recv_cq: Cq,
    pub(crate) recv_queue: RefCell<VecDeque<PostedRecv>>,
    /// Outstanding outbound RDMA Reads (requester side).
    pub(crate) ord: Semaphore,
    /// Responder-side read execution engine. RC responders return read
    /// responses strictly in PSN order, so execution is serial per QP;
    /// IRD only bounds how many requests may be queued (enforced by the
    /// peer's ORD in this workspace's configurations).
    pub(crate) read_engine: Semaphore,
    /// When the responder last accepted an RDMA Read from the peer.
    pub(crate) last_read: Cell<Option<SimTime>>,
    /// The WQEs of the open [`Qp::chain`], awaiting its doorbell.
    /// Empty whenever no chain is open.
    pending: RefCell<Vec<Wqe>>,
    /// WQE vectors the engine has drained, for `ring` to refill: as
    /// many as were ever in flight at once.
    drained: RefCell<Vec<Vec<Wqe>>>,
    /// Inside a [`Qp::chain`]: posts queue without ringing.
    chaining: Cell<bool>,
    /// The owning HCA's `doorbells` series.
    doorbells: Rc<Counter>,
    /// The HCA's all-physical global steering tag, if enabled — needed
    /// to enforce the no-local-scatter/gather rule at post time.
    pub(crate) global_rkey: Rc<Cell<Option<Rkey>>>,
    /// The owning HCA's table, which this QP leaves when dropped.
    table: QpTable,
    /// The send queue engine's channel: the QP owns its only sender, so
    /// dropping the QP ends [`sender_loop`].
    wqe_tx: Sender<Vec<Wqe>>,
}

impl QpInner {
    pub(crate) fn set_error(&self) {
        self.error.set(true);
    }
}

/// Teardown: the last handle is gone. The QP leaves its HCA's table,
/// its engine's channel closes, and its CQs lose a producer — so the
/// tasks draining them end instead of parking for good.
impl Drop for QpInner {
    fn drop(&mut self) {
        // A table busy elsewhere keeps a dead entry, which finds no QP.
        if let Ok(mut table) = self.table.try_borrow_mut() {
            table.remove(&self.qpn.0);
        }
        self.send_cq.detach_producer();
        self.recv_cq.detach_producer();
    }
}

/// Handle to a reliable-connection queue pair.
#[derive(Clone)]
pub struct Qp {
    pub(crate) inner: Rc<QpInner>,
}

impl Qp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        sim: Sim,
        cfg: HcaConfig,
        node: NodeId,
        qpn: QpNum,
        fabric: Fabric<WireMsg>,
        send_cq: Cq,
        recv_cq: Cq,
        global_rkey: Rc<Cell<Option<Rkey>>>,
        doorbells: Rc<Counter>,
        table: QpTable,
    ) -> (Qp, Receiver<Vec<Wqe>>) {
        let (wqe_tx, wqe_rx) = channel();
        send_cq.attach_producer();
        recv_cq.attach_producer();
        let qp = Qp {
            inner: Rc::new(QpInner {
                sim,
                cfg,
                node,
                qpn,
                peer_node: Cell::new(NodeId(u32::MAX)),
                peer_qpn: Cell::new(QpNum(u32::MAX)),
                connected: Cell::new(false),
                error: Cell::new(false),
                fabric,
                send_cq,
                recv_cq,
                recv_queue: RefCell::new(VecDeque::new()),
                ord: Semaphore::new(cfg.max_ord),
                read_engine: Semaphore::new(1),
                last_read: Cell::new(None),
                pending: RefCell::new(Vec::new()),
                drained: RefCell::new(Vec::new()),
                chaining: Cell::new(false),
                doorbells,
                global_rkey,
                table: table.clone(),
                wqe_tx,
            }),
        };
        table.borrow_mut().insert(qpn.0, Rc::downgrade(&qp.inner));
        (qp, wqe_rx)
    }

    /// This QP's number.
    pub fn qpn(&self) -> QpNum {
        self.inner.qpn
    }

    /// The node this QP lives on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The connected peer's node (`NodeId(u32::MAX)` until
    /// [`crate::hca::connect`] pairs this QP).
    pub fn peer_node(&self) -> NodeId {
        self.inner.peer_node.get()
    }

    /// When this QP last accepted an RDMA Read from its peer (the
    /// request passed the TPT check), if ever: a responder's view of
    /// the peer pulling what it was shown.
    pub fn last_remote_read(&self) -> Option<SimTime> {
        self.inner.last_read.get()
    }

    /// True if the QP has transitioned to the error state.
    pub fn is_error(&self) -> bool {
        self.inner.error.get()
    }

    /// The send-side completion queue.
    pub fn send_cq(&self) -> &Cq {
        &self.inner.send_cq
    }

    /// The receive-side completion queue.
    pub fn recv_cq(&self) -> &Cq {
        &self.inner.recv_cq
    }

    /// Number of receives currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.inner.recv_queue.borrow().len()
    }

    /// Force the QP into the error state (failure injection: peer
    /// crash, retry-count exceeded, cable pull). As on real hardware,
    /// posted receives are flushed with error completions, which is
    /// how consumers blocked on the receive CQ learn about the
    /// teardown. Posted WQEs already rang their doorbells and flush
    /// the same way in the engine.
    pub fn force_error(&self) {
        self.inner.set_error();
        let flushed: Vec<PostedRecv> = self.inner.recv_queue.borrow_mut().drain(..).collect();
        for r in flushed {
            self.inner.recv_cq.push(Completion {
                wr_id: r.wr_id,
                opcode: Opcode::Recv,
                result: Err(VerbsError::Flushed),
                payload: None,
                tail: None,
            });
        }
    }

    fn check_postable(&self) -> Result<(), VerbsError> {
        if self.inner.error.get() {
            return Err(VerbsError::Flushed);
        }
        if !self.inner.connected.get() {
            return Err(VerbsError::NotConnected);
        }
        Ok(())
    }

    /// Post a receive buffer.
    pub fn post_recv(
        &self,
        buffer: Buffer,
        offset: u64,
        len: u64,
        wr_id: WrId,
    ) -> Result<(), VerbsError> {
        if self.inner.error.get() {
            return Err(VerbsError::Flushed);
        }
        if offset + len > buffer.len() {
            return Err(VerbsError::LocalProtection("recv range out of buffer"));
        }
        self.inner.recv_queue.borrow_mut().push_back(PostedRecv {
            buffer,
            offset,
            len,
            wr_id,
        });
        Ok(())
    }

    /// Post a two-sided Send of `data`.
    pub fn post_send(&self, data: Payload, wr_id: WrId, signaled: bool) -> Result<(), VerbsError> {
        self.check_postable()?;
        self.enqueue(Wqe::Send {
            wr_id,
            data,
            tail: None,
            signaled,
        })
    }

    /// Post a two-sided Send gathered from two pieces: `data`, then
    /// `tail` placed right behind it in the peer's receive buffer. The
    /// receive completion hands `tail` over as its own piece
    /// ([`Completion::tail`](crate::Completion::tail)), never joined to
    /// `data` — the way a ULP sends bulk bytes it has not staged into
    /// its inline buffer.
    pub fn post_send_gather(
        &self,
        data: Payload,
        tail: Payload,
        wr_id: WrId,
        signaled: bool,
    ) -> Result<(), VerbsError> {
        self.check_postable()?;
        self.enqueue(Wqe::Send {
            wr_id,
            data,
            tail: Some(tail),
            signaled,
        })
    }

    /// Post an RDMA Write of `data` to `(raddr, rkey)` at the peer.
    pub fn post_rdma_write(
        &self,
        data: Payload,
        raddr: u64,
        rkey: Rkey,
        wr_id: WrId,
        signaled: bool,
    ) -> Result<(), VerbsError> {
        self.check_postable()?;
        self.enqueue(Wqe::Write {
            wr_id,
            sgl: SgList::from(data),
            raddr,
            rkey,
            signaled,
        })
    }

    /// Post a vectored RDMA Write: one WQE gathers `sges` and places
    /// them contiguously at `(raddr, rkey)`.
    ///
    /// Enforces the hardware SG limits: at most
    /// [`HcaConfig::max_send_sge`] entries, and an entry backed by the
    /// privileged all-physical registration (its lkey is the global
    /// steering tag) must be the *only* entry — all-physical addresses
    /// memory by physical run and the HCA cannot locally scatter/gather
    /// across runs (paper §4.3); such callers post one WQE per run, as
    /// one [`Qp::chain`].
    pub fn post_rdma_write_vec(
        &self,
        sges: Vec<Sge>,
        raddr: u64,
        rkey: Rkey,
        wr_id: WrId,
        signaled: bool,
    ) -> Result<(), VerbsError> {
        self.check_postable()?;
        if sges.is_empty() {
            return Err(VerbsError::InvalidRequest("empty scatter/gather list"));
        }
        if sges.len() > self.inner.cfg.max_send_sge {
            return Err(VerbsError::InvalidRequest("scatter/gather list too long"));
        }
        if sges.len() > 1 {
            if let Some(global) = self.inner.global_rkey.get() {
                if sges.iter().any(|s| s.lkey == global) {
                    return Err(VerbsError::LocalProtection(
                        "all-physical registration cannot local scatter/gather",
                    ));
                }
            }
        }
        let mut sgl = SgList::new();
        for s in sges {
            sgl.push(s.data);
        }
        self.enqueue(Wqe::Write {
            wr_id,
            sgl,
            raddr,
            rkey,
            signaled,
        })
    }

    /// Post an RDMA Read of `len` bytes from `(raddr, rkey)` at the
    /// peer into `dst` at `dst_off`. Always signaled (the requester
    /// must observe the completion before using the data — §4.1).
    pub fn post_rdma_read(
        &self,
        dst: Buffer,
        dst_off: u64,
        raddr: u64,
        rkey: Rkey,
        len: u64,
        wr_id: WrId,
    ) -> Result<(), VerbsError> {
        self.check_postable()?;
        if dst_off + len > dst.len() {
            return Err(VerbsError::LocalProtection("read dest out of buffer"));
        }
        self.enqueue(Wqe::Read {
            wr_id,
            dst,
            dst_off,
            raddr,
            rkey,
            len,
        })
    }

    /// Queue a WQE behind the open chain's doorbell, or ring one for it
    /// alone.
    fn enqueue(&self, wqe: Wqe) -> Result<(), VerbsError> {
        let chaining = self.inner.chaining.get();
        let mut pending = self.inner.pending.borrow_mut();
        debug_assert!(chaining || pending.is_empty(), "WQEs left unrung");
        pending.push(wqe);
        drop(pending);
        if !chaining {
            self.ring();
        }
        Ok(())
    }

    /// Post a list of work requests as one WR chain (what
    /// `ibv_post_send` does with a linked list): the WQEs `posts`
    /// enqueues do not ring individually, and one doorbell carries all
    /// of them when it returns — whatever `posts` queued, even if it
    /// gave up part-way. `posts` is synchronous, so a chain can never
    /// hold the doorbell across an await while other tasks post on the
    /// same QP. Chains do not nest.
    pub fn chain<R>(&self, posts: impl FnOnce() -> R) -> R {
        let nested = self.inner.chaining.replace(true);
        debug_assert!(!nested, "WR chains do not nest");
        let posted = posts();
        self.inner.chaining.set(false);
        self.ring();
        posted
    }

    /// Ring the doorbell: submit every pending WQE to the HCA engine
    /// behind it. A no-op when nothing is pending (a chain that posted
    /// nothing rings nothing).
    fn ring(&self) {
        let mut pending = self.inner.pending.borrow_mut();
        if pending.is_empty() {
            return;
        }
        let next = self.inner.drained.borrow_mut().pop().unwrap_or_default();
        let wqes = std::mem::replace(&mut *pending, next);
        drop(pending);
        self.inner.doorbells.inc();
        // A send on a torn-down engine loses the WQEs; the QP is (or
        // is about to be) in the error state and receives flush there.
        let _ = self.inner.wqe_tx.send(wqes);
    }
}

/// Per-QP send-queue engine: runs each doorbell's WQEs strictly in post
/// order. The WQE-processing charge (doorbell write, WQE fetch, DMA
/// setup) is paid once per doorbell ring — so a WR chain pays it once
/// for every WQE it carries. Holds the QP weakly: it ends when the QP
/// is dropped.
pub(crate) async fn sender_loop(qp: Weak<QpInner>, mut wqe_rx: Receiver<Vec<Wqe>>) {
    while let Ok(mut wqes) = wqe_rx.recv().await {
        let Some(qp) = qp.upgrade() else { return };
        // HCA processing for this doorbell (skipped when the QP is
        // already flushing errors).
        if !qp.error.get() {
            qp.sim.sleep(qp.cfg.wqe_process).await;
        }
        for wqe in wqes.drain(..) {
            run_wqe(&qp, wqe).await;
        }
        qp.drained.borrow_mut().push(wqes);
    }
}

/// Execute one WQE: hand it to the fabric, which delivers it to the
/// responder at the arrival instant. A Send or Write completes through
/// the [`Ack`] it carries; a Read spawns the task that awaits its
/// response.
async fn run_wqe(qp: &Rc<QpInner>, wqe: Wqe) {
    if qp.error.get() {
        flush_wqe(qp, wqe);
        return;
    }
    let peer = qp.peer_node.get();
    // Span covers WQE execution up to fabric hand-off; completion
    // propagation is async and traced by the RPC-layer spans.
    let _wqe_span = qp.sim.span(
        "hca",
        match &wqe {
            Wqe::Send { .. } => "send",
            Wqe::Write { .. } => "rdma_write",
            Wqe::Read { .. } => "rdma_read",
        },
    );
    match wqe {
        Wqe::Send {
            wr_id,
            data,
            tail,
            signaled,
        } => {
            let len = data.len() + tail.as_ref().map_or(0, Payload::len);
            let bytes = qp.cfg.wire_header_bytes + len;
            let ack = Ack::new(qp, wr_id, Opcode::Send, len, signaled);
            let msg = WireMsg::Send {
                dst_qpn: qp.peer_qpn.get(),
                data,
                tail,
                ack,
            };
            let lost = qp.fabric.send(qp.node, peer, bytes, msg).await;
            if let Some(WireMsg::Send { ack, .. }) = lost {
                // Lost above the link layer: the requester still
                // sees a successful completion while the peer's ULP
                // never receives the message. Recovery is the RPC
                // layer's job (timeout + retransmission).
                ack.complete(Ok(()));
            }
        }
        Wqe::Write {
            wr_id,
            sgl,
            raddr,
            rkey,
            signaled,
        } => {
            let dlen = sgl.len();
            let bytes = qp.cfg.wire_header_bytes + dlen;
            let msg = WireMsg::Write {
                dst_qpn: qp.peer_qpn.get(),
                raddr,
                rkey,
                data: sgl,
                ack: Ack::new(qp, wr_id, Opcode::RdmaWrite, dlen, signaled),
            };
            // RDMA data placement is guaranteed by the RC transport:
            // drops are retransmitted at link level, never surfaced.
            qp.fabric.send_reliable(qp.node, peer, bytes, msg).await;
        }
        Wqe::Read {
            wr_id,
            dst,
            dst_off,
            raddr,
            rkey,
            len,
        } => {
            // ORD: if the outstanding-read window is full, the whole
            // send queue stalls here (head-of-line blocking).
            let permit = qp.ord.acquire().await;
            let (resp_tx, resp_rx) = oneshot();
            qp.fabric
                .send_reliable(
                    qp.node,
                    peer,
                    qp.cfg.wire_header_bytes + 28, // request only
                    WireMsg::ReadReq {
                        dst_qpn: qp.peer_qpn.get(),
                        raddr,
                        rkey,
                        len,
                        resp: resp_tx,
                    },
                )
                .await;
            let qp2 = qp.clone();
            qp.sim.clone().spawn(async move {
                let res = resp_rx.await.unwrap_or(Err(VerbsError::Flushed));
                drop(permit);
                match res {
                    Ok(payload) => {
                        let n = payload.len();
                        dst.write(dst_off, payload);
                        finish(&qp2, wr_id, Opcode::RdmaRead, Ok(n), true);
                    }
                    Err(e) => {
                        finish(&qp2, wr_id, Opcode::RdmaRead, Err(e), true);
                    }
                }
            });
        }
    }
}

fn finish(
    qp: &Rc<QpInner>,
    wr_id: WrId,
    opcode: Opcode,
    result: Result<u64, VerbsError>,
    signaled: bool,
) {
    let failed = result.is_err();
    if failed {
        qp.set_error();
    }
    if signaled || failed {
        qp.send_cq.push(Completion {
            wr_id,
            opcode,
            result,
            payload: None,
            tail: None,
        });
    }
}

fn flush_wqe(qp: &Rc<QpInner>, wqe: Wqe) {
    let (wr_id, opcode) = match &wqe {
        Wqe::Send { wr_id, .. } => (*wr_id, Opcode::Send),
        Wqe::Write { wr_id, .. } => (*wr_id, Opcode::RdmaWrite),
        Wqe::Read { wr_id, .. } => (*wr_id, Opcode::RdmaRead),
    };
    qp.send_cq.push(Completion {
        wr_id,
        opcode,
        result: Err(VerbsError::Flushed),
        payload: None,
        tail: None,
    });
}
