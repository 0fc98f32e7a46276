//! The RPC/RDMA client engine.
//!
//! Implements both bulk-transfer designs (paper §4):
//!
//! * **Read-Write** (the paper's proposal): the client encodes Write /
//!   Reply chunk lists in the call; NFS READ and long-reply data is
//!   RDMA-written by the server before the reply Send, whose arrival
//!   guarantees placement. Zero-copy direct I/O lands data straight in
//!   the user buffer.
//! * **Read-Read** (Callaghan's original): the reply carries Read
//!   chunks naming *server* buffers; the client pulls with RDMA Read,
//!   copies out, and sends `RDMA_DONE` so the server can deregister.
//!
//! # The pipeline
//!
//! Every call walks the lifecycle of the paper's Figure 4, each stage
//! one function that owns its span and its counters: **marshal**
//! (syscall + RPC encode, then a flow-control credit) → **provision**
//! (the `reg` span: register what the server will pull or push into,
//! points 1–2) → **transmit** (per attempt: post → `wait_reply` →
//! `finish`, which collects bulk data the way the design says) →
//! **release** (deregister, point 10, and settle the credit).
//! The connection's QP, completion router, receive window and scratch
//! encoder live in one `endpoint::Endpoint`; recovery swaps it whole.

#![deny(clippy::too_many_lines)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use ib_verbs::{Access, Buffer, Hca, Qp, VerbsError, PAGE_SIZE};
use onc_rpc::msg::{decode_reply, encode_call};
use onc_rpc::{AcceptStat, CallHeader, RpcError, TransportError};
use sim_core::stats::Counter;
use sim_core::sync::{oneshot, OneshotReceiver, OneshotSender, SemPermit, Semaphore};
use sim_core::{MetricsRegistry, Payload, Sim, SimDuration, SimRng};
use xdr::XdrCodec;

use crate::config::{Design, RpcRdmaConfig};
use crate::endpoint::{Endpoint, RecvPool, ReplyClock};
use crate::header::{MsgType, RdmaHeader, ReadChunk, Segment};
use crate::qos::{QOS_MAX_REJECTIONS, QOS_SHED_BACKOFF};
use crate::reg::{IoBuf, Registrar};
use crate::sanitize::MAX_CHUNK_BYTES;

/// Alignment of `RDMA_MSGP` payloads: the data rides in the Send after
/// the RPC head, padded to this boundary so the receiver places it
/// without a pull-up copy.
pub(crate) const MSGP_ALIGN: usize = 64;

/// Uniform random extra backoff `[0, RETRANS_JITTER]` added to every
/// retransmission (and busy-reply) wait — decorrelates client retry
/// storms.
const RETRANS_JITTER: SimDuration = SimDuration::from_micros(500);

/// Wait before rebuilding a connection after a QP error (models CM
/// teardown + route resolution + QP re-creation).
pub const RECONNECT_DELAY: SimDuration = SimDuration::from_millis(2);

/// Bulk-data parameters for one call.
#[derive(Default)]
pub struct BulkParams {
    /// Data the server will pull (NFS WRITE payload): caller's buffer
    /// window.
    pub send: Option<(Buffer, u64, u64)>,
    /// Maximum bulk result expected (NFS READ): the transport
    /// provisions a write-chunk sink of this size.
    pub recv_max: Option<u64>,
    /// User destination buffer for the bulk result (enables the
    /// zero-copy direct-I/O path in the Read-Write design).
    pub recv_user: Option<(Buffer, u64)>,
    /// Upper bound on the encoded RPC reply, computed by the caller
    /// from the reply's XDR shape (e.g. a READDIR's `count` plus the
    /// fixed words around it). A bound above the inline threshold
    /// provisions a reply chunk of that size, rounded up to a page; a
    /// reply that can only be small needs none and says `None`. A reply
    /// that breaks its bound comes back as an error, not truncated.
    pub reply_max: Option<u64>,
}

/// A completed call.
#[derive(Debug)]
pub struct CallReply {
    /// Decoded RPC result head.
    pub body: Bytes,
    /// Bulk result data, if any.
    pub bulk: Option<Payload>,
}

/// Client-side transport statistics. The fields *are* the `client.*`
/// series of the metrics registry (named in `ClientStats::new`): one
/// counter per series, shared by name — so fleet-wide when several
/// client endpoints share a simulation.
pub struct ClientStats {
    /// Calls completed.
    pub calls: Rc<Counter>,
    /// Bulk bytes sent (write path).
    pub bulk_out: Rc<Counter>,
    /// Bulk bytes received (read path).
    pub bulk_in: Rc<Counter>,
    /// RDMA_DONE messages sent (Read-Read design only).
    pub dones_sent: Rc<Counter>,
    /// Small writes sent via the RDMA_MSGP padded-inline fast path.
    pub msgp_sends: Rc<Counter>,
    /// Client-side data copies, bytes (zero-copy path avoids these).
    pub copied_bytes: Rc<Counter>,
    /// Call retransmissions (same XID resent after a reply timeout).
    pub retransmits: Rc<Counter>,
    /// Reply timeouts observed (each one precedes a retransmission or
    /// the call's final failure).
    pub timeouts: Rc<Counter>,
    /// Busy (shed) replies received from an overloaded server; each
    /// one precedes a backed-off re-offer or the call's final
    /// [`onc_rpc::TransportError::Overloaded`] failure.
    pub busy_replies: Rc<Counter>,
    /// Successful connection recoveries (fresh QP after an error).
    pub reconnects: Rc<Counter>,
}

impl ClientStats {
    fn new(registry: &MetricsRegistry) -> ClientStats {
        let series = |name: &str| registry.counter(name);
        ClientStats {
            calls: series("client.calls"),
            bulk_out: series("client.bulk_out"),
            bulk_in: series("client.bulk_in"),
            dones_sent: series("client.dones"),
            msgp_sends: series("client.msgp_sends"),
            copied_bytes: series("client.copied_bytes"),
            retransmits: series("client.retransmits"),
            timeouts: series("client.timeouts"),
            busy_replies: series("client.busy_replies"),
            reconnects: series("client.reconnects"),
        }
    }
}

/// Rebuilds a client connection after a QP error: tears down the old
/// server-side endpoint and returns a fresh connected QP. The returned
/// future lets a cluster-aware connector *wait* (e.g. for a backup's
/// promotion to finish) instead of handing back a dead endpoint — a
/// connector returning an un-postable QP kills the client for good.
/// Plain single-server connectors resolve immediately.
pub type Connector = Box<dyn Fn() -> onc_rpc::LocalBoxFuture<Qp>>;

/// A reply as the dispatcher hands it to its call: the transport header
/// and the inline RPC message behind it.
type Reply = (RdmaHeader, Bytes);

struct ClientInner {
    sim: Sim,
    hca: Hca,
    /// The live connection; swapped whole on recovery.
    ep: RefCell<Rc<Endpoint>>,
    registrar: Registrar,
    cfg: RpcRdmaConfig,
    prog: u32,
    vers: u32,
    next_xid: Cell<u32>,
    pending: RefCell<HashMap<u32, OneshotSender<Reply>>>,
    credits: Semaphore,
    /// Credits the server last granted us.
    granted: Cell<u32>,
    /// Permits to swallow (grant was reduced below what we hold).
    credit_deficit: Cell<u32>,
    stats: ClientStats,
    dead: Cell<bool>,
    /// A reconnect is in flight: hold off posting until the fresh
    /// endpoint is swapped in (pending calls retransmit onto it).
    recovering: Cell<bool>,
    /// Recovery path; without one, a QP error is fatal for the
    /// endpoint (every call fails with `Disconnected`).
    connector: RefCell<Option<Connector>>,
    /// Backoff jitter stream. Seeded from the endpoint identity, not
    /// forked from the simulation root, so enabling retransmission
    /// never perturbs the rng streams existing components fork; it is
    /// only drawn when a timeout actually fires.
    retrans_rng: RefCell<SimRng>,
    replies: ReplyClock,
}

impl ClientInner {
    /// The endpoint in force right now.
    fn endpoint(&self) -> Rc<Endpoint> {
        self.ep.borrow().clone()
    }

    /// The endpoint is gone for good: fail every pending call (their
    /// reply senders drop) and every later one.
    fn fail(&self) {
        self.dead.set(true);
        self.recovering.set(false);
        // Dropped in XID order, so the callers wake in XID order.
        drop(sim_core::key_order(self.pending.borrow_mut().drain()));
    }
}

/// One call's transport state, from provisioning to release: the header
/// going on the wire, the registrations behind its chunk lists, and
/// what `finish` needs to collect the reply.
struct Call {
    /// Flow-control credit held for the call's lifetime.
    credit: SemPermit,
    /// The header going on the wire; `hdr.xid` names the call.
    hdr: RdmaHeader,
    /// What rides in the Send behind the header.
    inline_body: Bytes,
    /// Registrations the server pulls from (WRITE payload, long call).
    held: Vec<IoBuf>,
    /// Write-chunk sink the server pushes bulk results into.
    sink: Option<IoBuf>,
    /// Reply-chunk sink a long reply is pushed into.
    reply_sink: Option<IoBuf>,
    /// `sink` is the caller's own buffer: nothing to copy out.
    zero_copy: bool,
    /// What the caller asked for.
    bulk: BulkParams,
}

impl Call {
    /// The caller's window an `RDMA_MSGP` call's data comes from: every
    /// post gathers it into the Send behind the inline bytes as the
    /// caller's own piece, never flattened into them.
    fn msgp_window(&self) -> Option<&(Buffer, u64, u64)> {
        let msgp = self.hdr.msg_type == MsgType::Msgp;
        self.bulk.send.as_ref().filter(|_| msgp)
    }
}

/// What one transmission attempt came to.
enum Attempt {
    /// The call is over: a reply, or an error resending cannot fix.
    Done(Result<CallReply, RpcError>),
    /// No reply in time, or the transport broke under the reply:
    /// resend; the server replays from its DRC with fresh exposures.
    Retransmit,
    /// The server shed the call (overload): back off and re-offer the
    /// same XID. The shed reply never touched the server's DRC, so the
    /// retransmission executes fresh when admitted.
    Shed,
}

/// Bytes a reply's chunk list names. It is the server's word: a total
/// past `limit` — what this call provisioned for it — fails the call
/// before a byte is copied or pulled on its strength.
fn echoed<'a>(segs: impl IntoIterator<Item = &'a Segment>, limit: u64) -> Result<u64, RpcError> {
    let total = segs
        .into_iter()
        .try_fold(0u64, |sum, s| sum.checked_add(s.len));
    total.filter(|&n| n <= limit).ok_or(RpcError::BadReply)
}

/// Handle to an RPC/RDMA client endpoint (one per connection).
#[derive(Clone)]
pub struct RdmaRpcClient {
    inner: Rc<ClientInner>,
}

impl RdmaRpcClient {
    /// Wrap a connected QP as an RPC/RDMA client for `(prog, vers)`.
    /// Posts the credit window of receive buffers and starts the reply
    /// dispatcher.
    pub fn new(
        sim: &Sim,
        hca: &Hca,
        qp: Qp,
        registrar: Registrar,
        cfg: RpcRdmaConfig,
        prog: u32,
        vers: u32,
    ) -> RdmaRpcClient {
        let retrans_seed = 0xC1_1E47u64 ^ ((qp.node().0 as u64) << 32) ^ qp.qpn().0 as u64;
        let ep = open_endpoint(sim, hca, &cfg, qp).expect("posting initial receives");
        let inner = Rc::new(ClientInner {
            sim: sim.clone(),
            hca: hca.clone(),
            ep: RefCell::new(ep.clone()),
            registrar,
            cfg,
            prog,
            vers,
            next_xid: Cell::new(1),
            pending: RefCell::new(HashMap::new()),
            credits: Semaphore::new(cfg.credits as usize),
            granted: Cell::new(cfg.credits),
            credit_deficit: Cell::new(0),
            stats: ClientStats::new(&sim.metrics()),
            dead: Cell::new(false),
            recovering: Cell::new(false),
            connector: RefCell::new(None),
            retrans_rng: RefCell::new(SimRng::new(retrans_seed)),
            replies: ReplyClock::default(),
        });
        install_error_handler(&inner, &ep);
        sim.spawn(reply_dispatcher(inner.clone(), ep));
        RdmaRpcClient { inner }
    }

    /// The `client.*` counters (shared by every client endpoint of the
    /// simulation).
    pub fn stats(&self) -> &ClientStats {
        &self.inner.stats
    }

    /// The underlying queue pair (for diagnostics; swapped on
    /// connection recovery).
    pub fn qp(&self) -> Qp {
        self.inner.endpoint().qp.clone()
    }

    /// Install the connection-recovery path. On a QP error the client
    /// waits [`RECONNECT_DELAY`], awaits the connector for a fresh
    /// connected QP (the callback also rebuilds the server side),
    /// re-registers through the registrar, and lets pending calls
    /// retransmit. Without a connector, QP errors are fatal and every
    /// call fails with [`RpcError::Disconnected`]. The connector is
    /// async: a `ClusterMount` connector awaits the failure detector's
    /// promotion before resolving to a QP on the *new* primary, so
    /// recovery never hands back a dead endpoint.
    pub fn set_connector(&self, f: impl Fn() -> onc_rpc::LocalBoxFuture<Qp> + 'static) {
        *self.inner.connector.borrow_mut() = Some(Box::new(f));
    }

    /// Fault injection: force the client-side QP into the error state,
    /// as a cable pull or peer crash would. Posted receives flush with
    /// errors, which is how the recovery path learns of the teardown.
    pub fn inject_qp_error(&self) {
        self.inner.endpoint().qp.force_error();
    }

    /// Issue one RPC for this client's bound program.
    pub async fn call(
        &self,
        proc_num: u32,
        args: Bytes,
        bulk: BulkParams,
    ) -> Result<CallReply, RpcError> {
        self.call_as(self.inner.prog, self.inner.vers, proc_num, args, bulk)
            .await
    }

    /// Issue one RPC for an explicit `(prog, vers)` — for connections
    /// shared by several programs (e.g. NFS + MOUNT behind a
    /// [`onc_rpc::ServiceRegistry`]).
    pub async fn call_as(
        &self,
        prog: u32,
        vers: u32,
        proc_num: u32,
        args: Bytes,
        bulk: BulkParams,
    ) -> Result<CallReply, RpcError> {
        let inner = &self.inner;
        if inner.dead.get() {
            return Err(RpcError::Disconnected);
        }
        let _call_span = inner.sim.span_proc("client", "call", proc_num);
        let (credit, xid, rpc_msg) = self.marshal(prog, vers, proc_num, &args).await;
        let call = self.provision(credit, xid, rpc_msg, bulk).await;
        let result = self.transmit(&call).await;
        self.release(call).await;
        if result.is_ok() {
            inner.stats.calls.inc();
        }
        result
    }

    /// *Marshal* stage: syscall + VFS + RPC marshalling under the
    /// `marshal` span, then a flow-control credit and the call's XID.
    async fn marshal(
        &self,
        prog: u32,
        vers: u32,
        proc_num: u32,
        args: &Bytes,
    ) -> (SemPermit, u32, Bytes) {
        let inner = &self.inner;
        {
            let _s = inner.sim.span("client", "marshal");
            let cpu = inner.hca.cpu();
            cpu.execute(cpu.costs().per_op_client_cpu).await;
        }
        let credit = inner.credits.acquire().await;
        let xid = inner.next_xid.get();
        inner.next_xid.set(xid.wrapping_add(1));
        let hdr = CallHeader {
            xid,
            prog,
            vers,
            proc_num,
        };
        (credit, xid, encode_call(&hdr, args))
    }

    /// *Provision* stage, the `reg` span (Figure 4, points 1-2): make
    /// everything the server will pull from or push into DMA-able and
    /// name it in the header's chunk lists.
    async fn provision(
        &self,
        credit: SemPermit,
        xid: u32,
        rpc_msg: Bytes,
        bulk: BulkParams,
    ) -> Call {
        let inner = &self.inner;
        let _s = inner.sim.span("client", "reg");
        let mut call = Call {
            credit,
            hdr: RdmaHeader::new(xid, inner.cfg.credits, MsgType::Msg),
            inline_body: Bytes::new(),
            held: Vec::new(),
            sink: None,
            reply_sink: None,
            // The Read-Write design can RDMA-write straight into the
            // user buffer; the Read-Read design always copies.
            zero_copy: inner.cfg.design == Design::ReadWrite
                && inner.cfg.zero_copy_read
                && !inner.registrar.is_staged()
                && bulk.recv_user.is_some(),
            bulk,
        };
        let msgp = match call.bulk.send.clone() {
            Some(send) => self.provision_send(&mut call, &rpc_msg, send).await,
            None => false,
        };
        if inner.cfg.design == Design::ReadWrite {
            self.provision_sinks(&mut call).await;
        }
        self.frame(&mut call, rpc_msg, msgp).await;
        call
    }

    /// The WRITE payload: when it fits [`RpcRdmaConfig::msgp_max`] (a
    /// page, or the inline threshold if larger) and the RPC head fits
    /// the threshold, it rides inside the Send (`RDMA_MSGP`: `true`, for
    /// framing — no registration, no chunk, no server-side RDMA Read;
    /// its one staging copy is the Send's, in *transmit*); otherwise it
    /// is registered and named in read chunks for the server to pull.
    async fn provision_send(
        &self,
        call: &mut Call,
        rpc_msg: &Bytes,
        (buffer, off, len): (Buffer, u64, u64),
    ) -> bool {
        let inner = &self.inner;
        let (cpu, stats) = (inner.hca.cpu(), &inner.stats);
        stats.bulk_out.add(len);
        if len <= inner.cfg.msgp_max() && rpc_msg.len() as u64 <= inner.cfg.inline_threshold {
            stats.msgp_sends.inc();
            return true;
        }
        let io = inner
            .registrar
            .acquire_user(&buffer, off, len, Access::REMOTE_READ)
            .await;
        if inner.registrar.is_staged() {
            // Stage into the pre-registered slab buffer.
            io.write(0, buffer.read(off, len));
            cpu.copy(len).await;
            stats.copied_bytes.add(len);
        }
        let position = rpc_msg.len() as u32;
        for segment in io.segments(0, len, &inner.hca) {
            call.hdr.read_chunks.push(ReadChunk { position, segment });
        }
        call.held.push(io);
        false
    }

    /// Read-Write only: the write chunk bulk results land in (the
    /// caller's buffer on the zero-copy path) and, for a reply that may
    /// outgrow the inline threshold, a reply chunk sized to its bound,
    /// to the page.
    async fn provision_sinks(&self, call: &mut Call) {
        let inner = &self.inner;
        let access = Access::REMOTE_WRITE;
        if let Some(max) = call.bulk.recv_max {
            let io = match &call.bulk.recv_user {
                Some((ubuf, uoff)) if call.zero_copy => {
                    inner.registrar.acquire_user(ubuf, *uoff, max, access).await
                }
                _ => inner.registrar.acquire_scratch(max, access).await,
            };
            call.hdr.write_chunks.push(io.segments(0, max, &inner.hca));
            call.sink = Some(io);
        }
        let reply_max = call.bulk.reply_max;
        if let Some(bound) = reply_max.filter(|&b| b > inner.cfg.inline_threshold) {
            let len = bound.next_multiple_of(PAGE_SIZE);
            let io = inner.registrar.acquire_scratch(len, access).await;
            call.hdr.reply_chunk = Some(io.segments(0, len, &inner.hca));
            call.reply_sink = Some(io);
        }
    }

    /// Decide what rides in the Send behind the header: the `RDMA_MSGP`
    /// frame (head and padding to the alignment inline; the data is
    /// gathered behind them at each post), nothing at all for a long
    /// call (the RPC message itself moves via a position-0 read chunk),
    /// or the RPC message.
    async fn frame(&self, call: &mut Call, rpc_msg: Bytes, msgp: bool) {
        let inner = &self.inner;
        let head_len = rpc_msg.len();
        if msgp {
            call.hdr.msg_type = MsgType::Msgp;
            call.hdr.msgp = Some((MSGP_ALIGN as u32, head_len as u32));
            let pad = (MSGP_ALIGN - head_len % MSGP_ALIGN) % MSGP_ALIGN;
            let mut head = Vec::with_capacity(head_len + pad);
            head.extend_from_slice(&rpc_msg);
            head.resize(head_len + pad, 0);
            call.inline_body = Bytes::from(head);
        } else if head_len as u64 > inner.cfg.inline_threshold {
            call.hdr.msg_type = MsgType::Nomsg;
            let len = head_len as u64;
            let buf = inner.hca.mem().alloc(len);
            buf.write(0, Payload::real(rpc_msg));
            inner.hca.cpu().copy(len).await; // marshal into DMA buffer
            let io = inner
                .registrar
                .acquire_user(&buf, 0, len, Access::REMOTE_READ)
                .await;
            for segment in io.segments(0, len, &inner.hca) {
                let position = 0;
                call.hdr.read_chunks.push(ReadChunk { position, segment });
            }
            call.held.push(io);
        } else {
            call.inline_body = rpc_msg;
        }
    }

    /// *Transmit* stage: send the call and see it to a reply,
    /// retransmitting on timeout. Every attempt resends the same wire
    /// image — same XID — so the server's duplicate request cache can
    /// absorb re-executions. Held registrations stay valid across
    /// attempts (and across QP recovery: the TPT is per-HCA, not
    /// per-QP), so advertised rkeys in the retransmitted call still
    /// work.
    async fn transmit(&self, call: &Call) -> Result<CallReply, RpcError> {
        let inner = &self.inner;
        let xid = call.hdr.xid;
        let wire = inner.endpoint().encode_wire(&call.hdr, &call.inline_body);
        let data_len = call.msgp_window().map_or(0, |&(_, _, len)| len);
        inner.hca.cpu().copy(wire.len() as u64 + data_len).await;
        let mut attempt: u32 = 0;
        // Busy (shed) replies answered so far: a separate budget from
        // reply timeouts — the server *is* responding, just refusing —
        // exhausted as `TransportError::Overloaded`, not `TimedOut`.
        let mut sheds: u32 = 0;
        // Out-of-band trace propagation: the call span's context is
        // stashed under (node, xid) for whichever server task adopts
        // the call — never a wire byte, so modeled transfer times are
        // untouched. Re-injected per attempt: after a failover the
        // retransmission reaches the *promoted* node, whose adoption
        // links the new epoch's spans into the same causal tree.
        let trace_key = ((inner.endpoint().qp.node().0 as u64) << 32) | xid as u64;
        let result = loop {
            inner.sim.trace_inject(trace_key, inner.sim.current_ctx());
            let Some(mut rx) = self.post(call, &wire) else {
                break Err(RpcError::Disconnected);
            };
            if attempt > 0 {
                inner.stats.retransmits.inc();
            }
            match self.await_reply(call, &mut rx, attempt).await {
                Attempt::Done(result) => break result,
                Attempt::Shed => {
                    sheds += 1;
                    inner.stats.busy_replies.inc();
                    inner.pending.borrow_mut().remove(&xid);
                    if sheds > QOS_MAX_REJECTIONS {
                        let rejections = sheds;
                        break Err(TransportError::Overloaded { xid, rejections }.into());
                    }
                    let _s = inner.sim.span("client", "shed_backoff");
                    inner.sim.sleep(self.backoff(QOS_SHED_BACKOFF, sheds)).await;
                    continue;
                }
                Attempt::Retransmit => {}
            }
            inner.pending.borrow_mut().remove(&xid);
            attempt += 1;
            if attempt > inner.cfg.max_retransmits {
                let attempts = attempt;
                break Err(TransportError::TimedOut { xid, attempts }.into());
            }
        };
        inner.pending.borrow_mut().remove(&xid);
        // Call resolved: drop any context the server never adopted (a
        // timed-out final attempt) so the in-flight map stays bounded.
        let _ = inner.sim.trace_adopt(trace_key);
        result
    }

    /// Register for the reply and put the call on the wire (unless a
    /// reconnect is in flight: the retransmission timer then carries the
    /// call onto the fresh endpoint). `None` once the endpoint is dead.
    fn post(&self, call: &Call, wire: &Bytes) -> Option<OneshotReceiver<Reply>> {
        let (inner, xid) = (&self.inner, call.hdr.xid);
        if inner.dead.get() {
            return None;
        }
        let (tx, rx) = oneshot();
        inner.pending.borrow_mut().insert(xid, tx);
        if inner.recovering.get() {
            return Some(rx);
        }
        let ep = inner.endpoint();
        let sent = match call.msgp_window() {
            Some((buffer, off, len)) => ep.send_gather(wire.clone(), buffer.read(*off, *len)),
            None => ep.send(wire.clone()),
        };
        if sent.is_err() {
            start_recovery(inner);
            if inner.dead.get() {
                inner.pending.borrow_mut().remove(&xid);
                return None;
            }
        }
        Some(rx)
    }

    /// Await the reply to one transmission (the `wait_reply` span,
    /// bounded by the attempt's backoff on the connection's reply
    /// timeout: RFC 6298's `srtt + 4·rttvar`, never under
    /// `call_timeout`), time it, collect it (the `finish` span), and say
    /// what the attempt came to.
    async fn await_reply(
        &self,
        call: &Call,
        rx: &mut OneshotReceiver<Reply>,
        attempt: u32,
    ) -> Attempt {
        let inner = &self.inner;
        let posted = inner.sim.now();
        let awaited = {
            let _s = inner.sim.span("client", "wait_reply");
            let timeout = inner.cfg.call_timeout.max(inner.replies.rto());
            inner.sim.timeout(self.backoff(timeout, attempt), rx).await
        };
        let (rhdr, reply_body) = match awaited {
            Some(Ok(reply)) => {
                inner.replies.sample(attempt, inner.sim.now() - posted);
                reply
            }
            // Sender dropped: connection died with no recovery path.
            Some(Err(_)) => return Attempt::Done(Err(RpcError::Disconnected)),
            None => {
                inner.stats.timeouts.inc();
                return Attempt::Retransmit;
            }
        };
        self.apply_credit_grant(rhdr.credits);
        let _s = inner.sim.span("client", "finish");
        match self.finish(call, &rhdr, reply_body).await {
            // Transport trouble after the reply (e.g. QP error mid
            // chunk-pull).
            Err(RpcError::Disconnected) if !inner.dead.get() => Attempt::Retransmit,
            Err(RpcError::Rejected(AcceptStat::SystemErr)) if !inner.dead.get() => Attempt::Shed,
            other => Attempt::Done(other),
        }
    }

    /// *Release* stage (Figure 4, point 10): the reply's arrival
    /// guarantees the server is done with every held registration.
    /// Then return (or swallow, if the server shrank its grant) the
    /// flow-control credit.
    async fn release(&self, call: Call) {
        let inner = &self.inner;
        let sinks = call.sink.into_iter().chain(call.reply_sink);
        for io in call.held.into_iter().chain(sinks) {
            inner.registrar.release(io).await;
        }
        let deficit = inner.credit_deficit.get();
        if deficit > 0 {
            inner.credit_deficit.set(deficit - 1);
            call.credit.forget();
        }
    }

    /// Wait before try `n` (0-based) of something that failed `n` times:
    /// `base` doubled per failure up to 64x, plus — once it has failed —
    /// a uniform draw from `[0, RETRANS_JITTER]`, so a fleet of clients
    /// backing off together (timed-out retransmissions, shed re-offers)
    /// de-synchronizes instead of retrying in lockstep.
    fn backoff(&self, base: SimDuration, n: u32) -> SimDuration {
        let wait = SimDuration::from_nanos(base.as_nanos() << n.min(6));
        if n == 0 {
            return wait;
        }
        let jitter = RETRANS_JITTER.as_nanos() + 1;
        wait + SimDuration::from_nanos(self.inner.retrans_rng.borrow_mut().gen_range(jitter))
    }

    /// Resize the outstanding-call window to the server's latest grant
    /// (dynamic credit flow control). Grants are clamped to the
    /// configured maximum, which sized the receive pools.
    fn apply_credit_grant(&self, grant: u32) {
        let inner = &self.inner;
        let grant = grant.clamp(1, inner.cfg.credits);
        let current = inner.granted.get();
        if grant > current {
            // Window grows: release the difference immediately (minus
            // any outstanding deficit first).
            let mut growth = grant - current;
            let deficit = inner.credit_deficit.get();
            let cancel = deficit.min(growth);
            inner.credit_deficit.set(deficit - cancel);
            growth -= cancel;
            if growth > 0 {
                inner.credits.add_permits(growth as usize);
            }
        } else if grant < current {
            // Window shrinks: retire idle permits immediately, and
            // swallow the rest as in-flight calls complete.
            let mut to_remove = current - grant;
            while to_remove > 0 {
                match inner.credits.try_acquire() {
                    Some(permit) => {
                        permit.forget();
                        to_remove -= 1;
                    }
                    None => break,
                }
            }
            inner
                .credit_deficit
                .set(inner.credit_deficit.get() + to_remove);
        }
        inner.granted.set(grant);
    }

    /// Collect the reply per the active design: the decoded RPC result
    /// head and whatever bulk data came with it.
    async fn finish(
        &self,
        call: &Call,
        rhdr: &RdmaHeader,
        reply_body: Bytes,
    ) -> Result<CallReply, RpcError> {
        match self.inner.cfg.design {
            Design::ReadWrite => self.finish_read_write(call, rhdr, reply_body).await,
            Design::ReadRead => self.finish_read_read(call, rhdr, reply_body).await,
        }
    }

    /// Read-Write: a long reply was RDMA-written into the reply chunk
    /// and bulk data into the write chunk; the echoed chunk lists tell
    /// us how much (paper §4) — never more than the sink holds, or a
    /// lying reply would read past it into the caller's adjacent memory.
    async fn finish_read_write(
        &self,
        call: &Call,
        rhdr: &RdmaHeader,
        reply_body: Bytes,
    ) -> Result<CallReply, RpcError> {
        let (cpu, stats) = (self.inner.hca.cpu(), &self.inner.stats);
        let rpc_reply = if rhdr.msg_type == MsgType::Nomsg {
            let io = call.reply_sink.as_ref().ok_or(RpcError::BadReply)?;
            let actual = echoed(rhdr.reply_chunk.iter().flatten(), io.len())?;
            cpu.copy(actual).await; // reply must be unmarshalled
            stats.copied_bytes.add(actual);
            io.read(0, actual).materialize()
        } else {
            reply_body
        };
        let body = accepted(rpc_reply)?;
        let Some(io) = &call.sink else {
            return Ok(CallReply { body, bulk: None });
        };
        let actual = echoed(rhdr.write_chunks.first().into_iter().flatten(), io.len())?;
        let data = io.read(0, actual);
        if !call.zero_copy {
            // Copy out of the bounce buffer to the user.
            cpu.copy(actual).await;
            stats.copied_bytes.add(actual);
            if let Some((ubuf, uoff)) = &call.bulk.recv_user {
                ubuf.write(*uoff, data.clone());
            }
        }
        stats.bulk_in.add(actual);
        let bulk = Some(data);
        Ok(CallReply { body, bulk })
    }

    /// Read-Read: bulk data (and long replies) arrive as read chunks
    /// naming server memory; pull them, copy out, send `RDMA_DONE`. The
    /// server names the total, so it is bounded before any scratch is
    /// sized by it: bulk data by the caller's `recv_max`, a long reply
    /// (the server exposes what the reply needs — there is no
    /// client-provisioned chunk to outgrow) by the transport-wide cap
    /// on one header's chunk bytes.
    async fn finish_read_read(
        &self,
        call: &Call,
        rhdr: &RdmaHeader,
        reply_body: Bytes,
    ) -> Result<CallReply, RpcError> {
        let inner = &self.inner;
        let long_reply = rhdr.msg_type == MsgType::Nomsg;
        let mut pulled: Option<Payload> = None;
        if !rhdr.read_chunks.is_empty() {
            let segments = rhdr.read_chunks.iter().map(|c| &c.segment);
            let limit = if long_reply {
                MAX_CHUNK_BYTES
            } else {
                call.bulk.recv_max.unwrap_or(0)
            };
            let total = echoed(segments.clone(), limit)?;
            let io = inner.registrar.acquire_scratch(total, Access::LOCAL).await;
            if !inner.endpoint().read_into(&io, segments.copied()).await {
                inner.registrar.release(io).await;
                return Err(RpcError::Disconnected);
            }
            // Client-side copy: the Read-Read design has no zero-copy
            // path (paper §4.2 / Figure 5 CPU lines).
            inner.hca.cpu().copy(total).await;
            inner.stats.copied_bytes.add(total);
            inner.stats.bulk_in.add(total);
            let data = io.read(0, total);
            if let Some((ubuf, uoff)) = &call.bulk.recv_user {
                ubuf.write(*uoff, data.clone());
            }
            inner.registrar.release(io).await;
            // RDMA_DONE lets the server free its exposed buffers.
            let done = RdmaHeader::new(rhdr.xid, inner.cfg.credits, MsgType::Done);
            let ep = inner.endpoint();
            ep.send(ep.encode_wire(&done, &[]))
                .map_err(|_| RpcError::Disconnected)?;
            inner.stats.dones_sent.inc();
            pulled = Some(data);
        }
        let rpc_reply = if long_reply {
            // Long reply: the pulled data IS the RPC message.
            pulled.take().ok_or(RpcError::BadReply)?.materialize()
        } else {
            reply_body
        };
        let (body, bulk) = (accepted(rpc_reply)?, pulled);
        Ok(CallReply { body, bulk })
    }
}

/// Decode an RPC reply message down to its result head; anything but
/// `Success` fails the call.
fn accepted(rpc_reply: Bytes) -> Result<Bytes, RpcError> {
    let (rh, body) = decode_reply(rpc_reply).map_err(|_| RpcError::BadReply)?;
    if rh.stat != AcceptStat::Success {
        return Err(RpcError::Rejected(rh.stat));
    }
    Ok(body)
}

/// Open a client endpoint on a connected QP: post the credit window of
/// receives (one reply per outstanding call) and start its send-CQ
/// router.
fn open_endpoint(
    sim: &Sim,
    hca: &Hca,
    cfg: &RpcRdmaConfig,
    qp: Qp,
) -> Result<Rc<Endpoint>, VerbsError> {
    let recv = RecvPool::post(hca, cfg, 1, &qp)?;
    Ok(Rc::new(Endpoint::new(sim, qp, recv)))
}

/// Consumes reply receives, reposts buffers, routes by XID. Bound to
/// one endpoint: on connection recovery a fresh dispatcher is spawned
/// for the fresh endpoint and this one exits on the old QP's flush
/// errors.
async fn reply_dispatcher(inner: Rc<ClientInner>, ep: Rc<Endpoint>) {
    while let Some((payload, _)) = ep.next_message().await {
        let raw = payload.materialize();
        let mut dec = xdr::Decoder::new(&raw);
        let Ok(hdr) = RdmaHeader::decode(&mut dec) else {
            continue;
        };
        let body = raw.slice(dec.position()..);
        if let Some(tx) = inner.pending.borrow_mut().remove(&hdr.xid) {
            tx.send((hdr, body));
        }
    }
    start_recovery(&inner);
}

/// Route error completions on `ep`'s send CQ into the recovery path (or
/// fail-fast teardown when no connector is installed).
fn install_error_handler(inner: &Rc<ClientInner>, ep: &Endpoint) {
    let weak = Rc::downgrade(inner);
    ep.router.set_error_handler(move |_c| {
        if let Some(inner) = weak.upgrade() {
            start_recovery(&inner);
        }
    });
}

/// React to a QP error. Without a connector the endpoint dies
/// immediately: pending calls are failed and every later call returns
/// `Disconnected` — the pre-recovery fail-fast behaviour. With a
/// connector, tear down and re-establish: wait out the reconnect delay,
/// obtain a fresh connected QP (the connector also rebuilds the server
/// side), flush cached registrations so bulk buffers re-register on the
/// new connection, and swap in a fresh endpoint (receive window and
/// completion router included). Pending calls are *not* failed — their
/// retransmission timers carry them onto the new connection with the
/// same XID.
fn start_recovery(inner: &Rc<ClientInner>) {
    if inner.dead.get() || inner.recovering.get() {
        return;
    }
    if inner.connector.borrow().is_none() {
        inner.fail();
        return;
    }
    inner.recovering.set(true);
    let (node, pending) = (inner.hca.node().0 as u64, inner.pending.borrow().len());
    inner
        .sim
        .flight("client", "recovery_start", node, pending as u64);
    let inner = inner.clone();
    inner.sim.clone().spawn(async move {
        inner.sim.sleep(RECONNECT_DELAY).await;
        // Build the reconnect future while holding the borrow, await
        // it after releasing it: a cluster connector may park here
        // until a promotion gate opens, and set_connector must stay
        // callable meanwhile.
        let reconnect = inner.connector.borrow().as_ref().map(|f| f());
        let Some(reconnect) = reconnect else {
            inner.fail();
            return;
        };
        let qp = reconnect.await;
        // Registrations cached against the torn-down connection are
        // conservatively dropped and re-established on demand.
        inner.registrar.flush_cache().await;
        let Ok(ep) = open_endpoint(&inner.sim, &inner.hca, &inner.cfg, qp) else {
            // The replacement QP is already dead; give up.
            inner.fail();
            return;
        };
        install_error_handler(&inner, &ep);
        *inner.ep.borrow_mut() = ep.clone();
        inner.stats.reconnects.inc();
        inner.recovering.set(false);
        let reconnects = inner.stats.reconnects.get();
        inner
            .sim
            .flight("client", "recovery_done", node, reconnects);
        inner.sim.spawn(reply_dispatcher(inner.clone(), ep));
    });
}
