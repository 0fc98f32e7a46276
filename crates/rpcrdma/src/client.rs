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
//! Registration points follow the paper's Figure 4: the client
//! registers bulk buffers before the call (points 1–2) and
//! deregisters after the reply (point 10).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use ib_verbs::{Access, Buffer, Hca, Opcode, Qp, WrId, PAGE_SIZE};
use onc_rpc::msg::{decode_reply, encode_call};
use onc_rpc::{AcceptStat, CallHeader, RpcError, TransportError};
use sim_core::stats::Counter;
use sim_core::sync::{oneshot, OneshotSender, Semaphore};
use sim_core::{Payload, Sim, SimDuration, SimRng, SimTime};
use xdr::{Encoder, XdrCodec};

use crate::config::{Design, RpcRdmaConfig};
use crate::header::{MsgType, RdmaHeader, ReadChunk, RfpAd};
use crate::qos::{QOS_MAX_REJECTIONS, QOS_SHED_BACKOFF};
use crate::reg::{IoBuf, Registrar};
use crate::rfp::{decode_slot, SlotView, RFP_POLL_MAX, SLOT_OVERHEAD};
use crate::router::CompletionRouter;

/// Alignment of `RDMA_MSGP` payloads: the data rides in the Send after
/// the RPC head, padded to this boundary so the receiver places it
/// without a pull-up copy.
const MSGP_ALIGN: usize = 64;

/// Uniform random extra backoff `[0, RETRANS_JITTER]` added to every
/// retransmission (and busy-reply) wait — decorrelates client retry
/// storms.
const RETRANS_JITTER: SimDuration = SimDuration::from_micros(500);

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

/// Client-side transport statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Calls completed.
    pub calls: u64,
    /// Bulk bytes sent (write path).
    pub bulk_out: u64,
    /// Bulk bytes received (read path).
    pub bulk_in: u64,
    /// RDMA_DONE messages sent (Read-Read design only).
    pub dones_sent: u64,
    /// Small writes sent via the RDMA_MSGP padded-inline fast path.
    pub msgp_sends: u64,
    /// Client-side data copies, bytes (zero-copy path avoids these).
    pub copied_bytes: u64,
    /// Call retransmissions (same XID resent after a reply timeout).
    pub retransmits: u64,
    /// Reply timeouts observed (each one precedes a retransmission or
    /// the call's final failure).
    pub timeouts: u64,
    /// Busy (shed) replies received from an overloaded server; each
    /// one precedes a backed-off re-offer or the call's final
    /// [`onc_rpc::TransportError::Overloaded`] failure.
    pub busy_replies: u64,
    /// Successful connection recoveries (fresh QP after an error).
    pub reconnects: u64,
    /// Calls sent RFP-marked: the reply was fetched from the reply
    /// slot (or fell back to the Send path) instead of arriving as an
    /// unsolicited Send.
    pub rfp_marked: u64,
    /// Reply-slot fetches issued (RDMA Reads by the pollers).
    pub rfp_polls: u64,
    /// Calls completed from a fetched reply slot.
    pub rfp_hits: u64,
}

/// Rebuilds a client connection after a QP error: tears down the old
/// server-side endpoint and returns a fresh connected QP. The returned
/// future lets a cluster-aware connector *wait* (e.g. for a backup's
/// promotion to finish) instead of handing back a dead endpoint — a
/// connector returning an un-postable QP kills the client for good.
/// Plain single-server connectors resolve immediately.
pub type Connector = Box<dyn Fn() -> onc_rpc::LocalBoxFuture<Qp>>;

/// Registry handles for the client-side series (`client.*`). Shared by
/// every client endpoint in the world, so they aggregate fleet-wide;
/// [`ClientStats`] keeps the per-endpoint view.
struct ClientMetrics {
    calls: Rc<Counter>,
    retransmits: Rc<Counter>,
    timeouts: Rc<Counter>,
    reconnects: Rc<Counter>,
    busy_replies: Rc<Counter>,
}

impl ClientMetrics {
    fn new(sim: &Sim) -> ClientMetrics {
        let m = sim.metrics();
        ClientMetrics {
            calls: m.counter("client.calls"),
            retransmits: m.counter("client.retransmits"),
            timeouts: m.counter("client.timeouts"),
            reconnects: m.counter("client.reconnects"),
            busy_replies: m.counter("client.busy_replies"),
        }
    }
}

struct ClientInner {
    sim: Sim,
    hca: Hca,
    qp: RefCell<Qp>,
    registrar: Registrar,
    cfg: RpcRdmaConfig,
    prog: u32,
    vers: u32,
    next_xid: Cell<u32>,
    next_wr: Cell<u64>,
    pending: RefCell<HashMap<u32, OneshotSender<(RdmaHeader, Bytes)>>>,
    credits: Semaphore,
    /// Credits the server last granted us.
    granted: Cell<u32>,
    /// Permits to swallow (grant was reduced below what we hold).
    credit_deficit: Cell<u32>,
    router: RefCell<CompletionRouter>,
    stats: RefCell<ClientStats>,
    metrics: ClientMetrics,
    dead: Cell<bool>,
    /// A reconnect is in flight: hold off posting until the fresh QP
    /// is swapped in (pending calls retransmit onto it).
    recovering: Cell<bool>,
    /// Recovery path; without one, a QP error is fatal for the
    /// endpoint (every call fails with `Disconnected`).
    connector: RefCell<Option<Connector>>,
    /// Backoff jitter stream. Seeded from the endpoint identity, not
    /// forked from the simulation root, so enabling retransmission
    /// never perturbs the rng streams existing components fork; it is
    /// only drawn when a timeout actually fires.
    retrans_rng: RefCell<SimRng>,
    /// Per-connection scratch for assembling outgoing wire messages
    /// (RPC/RDMA header + inline body). Reused across calls so the
    /// steady-state encode path performs no heap allocation.
    send_scratch: RefCell<Encoder>,
    /// The server's reply-slot ring advertisement, once received
    /// (refreshed by every `MsgRfpAd` reply; cleared on recovery —
    /// rings are per-connection).
    rfp_ad: RefCell<Option<RfpAd>>,
    /// Last RFP activity (ad received, marked call sent, or slot
    /// fetched): calls stop being marked once this goes stale relative
    /// to the server's idle-revocation horizon.
    rfp_last: Cell<SimTime>,
    /// Bounds outstanding reply-slot fetches across all pollers to the
    /// HCA's IRD/ORD window (paper §4.1: responders execute reads
    /// serially past that depth, so issuing more only queues).
    rfp_reads: Semaphore,
    /// EWMA of when replies become fetchable, measured as the call-
    /// relative post time of the earliest probe that hit; `ZERO` until
    /// the first hit. Pollers sleep through most of it before the
    /// first probe, so steady-state polls land just after the reply
    /// deposits instead of walking the whole backoff ladder.
    rfp_lat_ewma: Cell<SimDuration>,
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
        let inner = Rc::new(ClientInner {
            sim: sim.clone(),
            hca: hca.clone(),
            qp: RefCell::new(qp.clone()),
            registrar,
            cfg,
            prog,
            vers,
            next_xid: Cell::new(1),
            next_wr: Cell::new(1 << 32),
            pending: RefCell::new(HashMap::new()),
            credits: Semaphore::new(cfg.credits as usize),
            granted: Cell::new(cfg.credits),
            credit_deficit: Cell::new(0),
            router: RefCell::new(spawn_router(sim, hca, &qp, &cfg)),
            stats: RefCell::new(ClientStats::default()),
            metrics: ClientMetrics::new(sim),
            dead: Cell::new(false),
            recovering: Cell::new(false),
            connector: RefCell::new(None),
            retrans_rng: RefCell::new(SimRng::new(retrans_seed)),
            send_scratch: RefCell::new(Encoder::with_capacity(256)),
            rfp_ad: RefCell::new(None),
            rfp_last: Cell::new(SimTime::ZERO),
            rfp_reads: Semaphore::new({
                let hc = hca.config();
                hc.max_ord.min(hc.max_ird).max(1)
            }),
            rfp_lat_ewma: Cell::new(SimDuration::ZERO),
        });
        install_error_handler(&inner);
        // Pre-posted receive pool; buffers are registered once at setup
        // (amortized, so no per-op cost is charged here).
        let mut recv_bufs = Vec::new();
        for i in 0..cfg.credits as u64 {
            let buf = hca.mem().alloc(cfg.recv_buffer_size);
            qp.post_recv(buf.clone(), 0, cfg.recv_buffer_size, WrId(i))
                .expect("posting initial receives");
            recv_bufs.push(buf);
        }
        let inner2 = inner.clone();
        sim.spawn(async move { reply_dispatcher(inner2, qp, recv_bufs).await });
        RdmaRpcClient { inner }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClientStats {
        *self.inner.stats.borrow()
    }

    /// The underlying queue pair (for diagnostics; swapped on
    /// connection recovery).
    pub fn qp(&self) -> Qp {
        self.inner.qp.borrow().clone()
    }

    /// Install the connection-recovery path. On a QP error the client
    /// waits `reconnect_delay`, asks the connector for a fresh
    /// connected QP (the callback also rebuilds the server side),
    /// re-registers through the registrar, and lets pending calls
    /// retransmit. Without a connector, QP errors are fatal and every
    /// call fails with [`RpcError::Disconnected`].
    pub fn set_connector(&self, f: impl Fn() -> Qp + 'static) {
        // Synchronous connectors wrap into an already-resolved future,
        // so recovery timing is identical to the pre-async contract.
        *self.inner.connector.borrow_mut() = Some(Box::new(move || {
            let qp = f();
            Box::pin(async move { qp }) as onc_rpc::LocalBoxFuture<Qp>
        }));
    }

    /// Like [`RdmaRpcClient::set_connector`], but the connector itself
    /// is async: a `ClusterMount` connector awaits the failure
    /// detector's promotion before resolving to a QP on the *new*
    /// primary, so recovery never hands back a dead endpoint.
    pub fn set_connector_async(&self, f: impl Fn() -> onc_rpc::LocalBoxFuture<Qp> + 'static) {
        *self.inner.connector.borrow_mut() = Some(Box::new(f));
    }

    /// Fault injection: force the client-side QP into the error state,
    /// as a cable pull or peer crash would. Posted receives flush with
    /// errors, which is how the recovery path learns of the teardown.
    pub fn inject_qp_error(&self) {
        self.inner.qp.borrow().force_error();
    }

    fn alloc_wr(&self) -> WrId {
        let id = self.inner.next_wr.get();
        self.inner.next_wr.set(id + 1);
        WrId(id)
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
        let cpu = inner.hca.cpu().clone();
        // Syscall + VFS + RPC marshalling.
        {
            let _s = inner.sim.span("client", "marshal");
            cpu.execute(inner.cfg.per_op_client_cpu).await;
        }

        let credit = inner.credits.acquire().await;
        let xid = inner.next_xid.get();
        inner.next_xid.set(xid.wrapping_add(1));
        inner.sim.trace("rpc", || {
            format!("client call xid={xid} prog={prog} proc={proc_num}")
        });

        let rpc_msg = encode_call(
            &CallHeader {
                xid,
                prog,
                vers,
                proc_num,
            },
            &args,
        );

        let mut hdr = RdmaHeader::new(xid, inner.cfg.credits, MsgType::Msg);
        let mut held: Vec<IoBuf> = Vec::new();
        let mut sink: Option<IoBuf> = None;
        let mut reply_sink: Option<IoBuf> = None;
        // Covers every chunk registration below (Figure 4, points 1-2).
        let reg_span = inner.sim.span("client", "reg");

        // --- Small-write fast path: RDMA_MSGP (padded inline). --------
        // The data rides inside the Send, aligned for direct placement:
        // no registration, no chunk, no server-side RDMA Read.
        let mut msgp_data: Option<Payload> = None;
        if let Some((buffer, off, len)) = &bulk.send {
            if inner.cfg.msgp_small_writes
                && *len <= inner.cfg.inline_threshold
                && rpc_msg.len() as u64 <= inner.cfg.inline_threshold
            {
                msgp_data = Some(buffer.read(*off, *len));
                cpu.copy(*len).await; // staged into the inline buffer
                inner.stats.borrow_mut().bulk_out += len;
                inner.stats.borrow_mut().msgp_sends += 1;
            }
        }

        // --- Read chunks: NFS WRITE payload the server will pull. ----
        if let (Some((buffer, off, len)), None) = (&bulk.send, &msgp_data) {
            let io = inner
                .registrar
                .acquire_user(buffer, *off, *len, Access::REMOTE_READ)
                .await;
            if inner.registrar.is_staged() {
                // Stage into the pre-registered slab buffer.
                io.write(0, buffer.read(*off, *len));
                cpu.copy(*len).await;
                inner.stats.borrow_mut().copied_bytes += len;
            }
            let position = rpc_msg.len() as u32;
            for seg in io.segments(0, *len, &inner.hca) {
                hdr.read_chunks.push(ReadChunk {
                    position,
                    segment: seg,
                });
            }
            inner.stats.borrow_mut().bulk_out += len;
            held.push(io);
        }

        // --- Write / reply chunks (Read-Write design only). ----------
        if inner.cfg.design == Design::ReadWrite {
            if let Some(max) = bulk.recv_max {
                let zero_copy = inner.cfg.zero_copy_read
                    && !inner.registrar.is_staged()
                    && bulk.recv_user.is_some();
                let io = if zero_copy {
                    let (ubuf, uoff) = bulk.recv_user.as_ref().unwrap();
                    inner
                        .registrar
                        .acquire_user(ubuf, *uoff, max, Access::REMOTE_WRITE)
                        .await
                } else {
                    inner
                        .registrar
                        .acquire_scratch(max, Access::REMOTE_WRITE)
                        .await
                };
                hdr.write_chunks.push(io.segments(0, max, &inner.hca));
                sink = Some(io);
            }
            // A reply chunk only for a reply that may outgrow the inline
            // threshold, sized to its bound, to the page.
            if let Some(bound) = bulk.reply_max.filter(|&b| b > inner.cfg.inline_threshold) {
                let len = bound.next_multiple_of(PAGE_SIZE);
                let io = inner
                    .registrar
                    .acquire_scratch(len, Access::REMOTE_WRITE)
                    .await;
                hdr.reply_chunk = Some(io.segments(0, len, &inner.hca));
                reply_sink = Some(io);
            }
        }

        // --- Long call: the RPC message itself moves via a read chunk.
        let inline_body: Bytes;
        if let Some(data) = &msgp_data {
            // RDMA_MSGP framing: head, padding to the alignment, data.
            let align = MSGP_ALIGN;
            hdr.msg_type = MsgType::Msgp;
            hdr.msgp = Some((align as u32, rpc_msg.len() as u32));
            let pad = (align - rpc_msg.len() % align) % align;
            let mut body = Vec::with_capacity(rpc_msg.len() + pad + data.len() as usize);
            body.extend_from_slice(&rpc_msg);
            body.resize(rpc_msg.len() + pad, 0);
            body.extend_from_slice(&data.materialize());
            inline_body = Bytes::from(body);
        } else if rpc_msg.len() as u64 > inner.cfg.inline_threshold {
            hdr.msg_type = MsgType::Nomsg;
            let buf = inner.hca.mem().alloc(rpc_msg.len() as u64);
            buf.write(0, Payload::real(rpc_msg.clone()));
            cpu.copy(rpc_msg.len() as u64).await; // marshal into DMA buffer
            let io = inner
                .registrar
                .acquire_user(&buf, 0, rpc_msg.len() as u64, Access::REMOTE_READ)
                .await;
            for seg in io.segments(0, rpc_msg.len() as u64, &inner.hca) {
                hdr.read_chunks.push(ReadChunk {
                    position: 0,
                    segment: seg,
                });
            }
            held.push(io);
            inline_body = Bytes::new();
        } else {
            inline_body = rpc_msg;
        }
        drop(reg_span);

        // --- RFP marking (hybrid transport). -------------------------
        // A chunkless inline call whose reply will also be small can be
        // *marked*: the server deposits the reply in this client's
        // reply-slot ring and posts no Send at all; a poller fetches it
        // with RDMA Read. Only once the server has advertised a ring,
        // and only while that ring is fresh enough that the server's
        // idle reaper cannot be close to revoking it.
        let rfp_marked = inner.cfg.rfp_enabled
            && hdr.msg_type == MsgType::Msg
            && hdr.read_chunks.is_empty()
            && hdr.write_chunks.is_empty()
            && hdr.reply_chunk.is_none()
            && self.rfp_ready();
        if rfp_marked {
            hdr.msg_type = MsgType::MsgRfp;
            inner.stats.borrow_mut().rfp_marked += 1;
        }

        // --- Send the call; retransmit on timeout. -------------------
        // Header + inline body are assembled in the per-connection
        // scratch encoder (no allocation in steady state); the single
        // copy into an owned buffer models staging into the
        // pre-registered inline send buffer.
        let (wire, wire_len) = {
            let mut enc = inner.send_scratch.borrow_mut();
            hdr.encode_into(&mut enc);
            enc.put_raw(&inline_body);
            (Bytes::copy_from_slice(enc.as_slice()), enc.len() as u64)
        };
        cpu.copy(wire_len).await;

        // Every attempt resends the same wire image — same XID — so the
        // server's duplicate request cache can absorb re-executions.
        // Held registrations stay valid across attempts (and across QP
        // recovery: the TPT is per-HCA, not per-QP), so advertised
        // rkeys in the retransmitted call still work.
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
        let trace_key = ((inner.qp.borrow().node().0 as u64) << 32) | xid as u64;
        let result: Result<CallReply, RpcError> = loop {
            if inner.dead.get() {
                break Err(RpcError::Disconnected);
            }
            let (tx, rx) = oneshot();
            let mut rx = rx;
            inner.pending.borrow_mut().insert(xid, tx);
            inner.sim.trace_inject(trace_key);
            if !inner.recovering.get() {
                let posted = inner.qp.borrow().post_send(
                    Payload::real(wire.clone()),
                    self.alloc_wr(),
                    false,
                );
                if posted.is_err() {
                    start_recovery(inner);
                    if inner.dead.get() {
                        inner.pending.borrow_mut().remove(&xid);
                        break Err(RpcError::Disconnected);
                    }
                } else if rfp_marked {
                    // One poller per transmission attempt; it exits as
                    // soon as the call is no longer pending (slot hit,
                    // Send fallback, or a retransmission taking over).
                    inner.rfp_last.set(inner.sim.now());
                    spawn_slot_poller(self.inner.clone(), xid);
                }
            }
            if attempt > 0 {
                inner.stats.borrow_mut().retransmits += 1;
                inner.metrics.retransmits.inc();
                inner.sim.trace("rpc", || {
                    format!("client retransmit xid={xid} attempt={attempt}")
                });
            }

            // --- Await the reply (bounded). --------------------------
            let awaited = {
                let _s = inner.sim.span("client", "wait_reply");
                inner.sim.timeout(self.backoff(attempt), &mut rx).await
            };
            match awaited {
                Some(Ok((rhdr, reply_body))) => {
                    inner.sim.trace("rpc", || {
                        format!("client reply xid={xid} type={:?}", rhdr.msg_type)
                    });
                    self.apply_credit_grant(rhdr.credits);
                    let _s = inner.sim.span("client", "finish");
                    let fin = self
                        .finish_call(&rhdr, reply_body, &bulk, &mut sink, &mut reply_sink, &cpu)
                        .await;
                    drop(_s);
                    match fin {
                        // Transport trouble after the reply (e.g. QP
                        // error mid chunk-pull): retransmit; the server
                        // replays from its DRC with fresh exposures.
                        Err(RpcError::Disconnected) if !inner.dead.get() => {}
                        // The server shed the call (overload): back off
                        // and re-offer the same XID. The shed reply
                        // never touched the server's DRC, so the
                        // retransmission executes fresh when admitted.
                        Err(RpcError::Rejected(AcceptStat::SystemErr)) if !inner.dead.get() => {
                            sheds += 1;
                            inner.stats.borrow_mut().busy_replies += 1;
                            inner.metrics.busy_replies.inc();
                            inner.sim.trace("rpc", || {
                                format!("client busy-reply xid={xid} sheds={sheds}")
                            });
                            inner.pending.borrow_mut().remove(&xid);
                            if sheds > QOS_MAX_REJECTIONS {
                                break Err(TransportError::Overloaded {
                                    xid,
                                    rejections: sheds,
                                }
                                .into());
                            }
                            let _s = inner.sim.span("client", "shed_backoff");
                            inner.sim.sleep(self.shed_backoff(sheds)).await;
                            continue;
                        }
                        other => break other,
                    }
                }
                // Sender dropped: connection died with no recovery path.
                Some(Err(_)) => break Err(RpcError::Disconnected),
                None => {
                    inner.stats.borrow_mut().timeouts += 1;
                    inner.metrics.timeouts.inc();
                }
            }
            inner.pending.borrow_mut().remove(&xid);
            attempt += 1;
            if attempt > inner.cfg.max_retransmits {
                break Err(TransportError::TimedOut {
                    xid,
                    attempts: attempt,
                }
                .into());
            }
        };
        inner.pending.borrow_mut().remove(&xid);
        // Call resolved: drop any context the server never adopted (a
        // timed-out final attempt) so the in-flight map stays bounded.
        let _ = inner.sim.trace_adopt(trace_key);

        // Release every held registration (Figure 4, point 10): the
        // reply's arrival guarantees the server is done with them.
        for io in held {
            inner.registrar.release(io).await;
        }
        if let Some(io) = sink.take() {
            inner.registrar.release(io).await;
        }
        if let Some(io) = reply_sink.take() {
            inner.registrar.release(io).await;
        }
        // Return (or swallow, if the server shrank its grant) the
        // flow-control credit.
        let deficit = inner.credit_deficit.get();
        if deficit > 0 {
            inner.credit_deficit.set(deficit - 1);
            credit.forget();
        } else {
            drop(credit);
        }
        if result.is_ok() {
            inner.stats.borrow_mut().calls += 1;
            inner.metrics.calls.inc();
        }
        result
    }

    /// Whether calls may be RFP-marked right now: a ring has been
    /// advertised on this connection and saw activity within half the
    /// exposure TTL — far inside the server's idle-revocation horizon
    /// (TTL plus two poll periods), so a marked call can never race a
    /// ring revocation.
    fn rfp_ready(&self) -> bool {
        let inner = &self.inner;
        if inner.recovering.get() || inner.rfp_ad.borrow().is_none() {
            return false;
        }
        let ttl = inner.cfg.exposure_ttl;
        ttl.is_zero() || inner.sim.now().saturating_since(inner.rfp_last.get()) < ttl / 2
    }

    /// Reply wait for send attempt `n` (0-based): exponential backoff
    /// doubling up to 64x the base timeout, plus uniform jitter on
    /// retransmissions to decorrelate retry storms across clients.
    fn backoff(&self, attempt: u32) -> SimDuration {
        let inner = &self.inner;
        let base = inner.cfg.call_timeout.as_nanos();
        let mut wait = SimDuration::from_nanos(base << attempt.min(6));
        if attempt > 0 {
            wait += self.jitter();
        }
        wait
    }

    /// Wait after busy (shed) reply `n` (1-based): exponential on
    /// [`QOS_SHED_BACKOFF`], doubling up to 64x, plus uniform jitter so a
    /// fleet of shed clients de-synchronizes instead of re-offering in
    /// lockstep — the client half of the load-shedding loop.
    fn shed_backoff(&self, sheds: u32) -> SimDuration {
        let base = QOS_SHED_BACKOFF.as_nanos();
        SimDuration::from_nanos(base << sheds.min(6)) + self.jitter()
    }

    /// One uniform draw from `[0, RETRANS_JITTER]`.
    fn jitter(&self) -> SimDuration {
        let extra = self
            .inner
            .retrans_rng
            .borrow_mut()
            .gen_range(RETRANS_JITTER.as_nanos() + 1);
        SimDuration::from_nanos(extra)
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

    /// Decode the reply and collect bulk data per the active design.
    async fn finish_call(
        &self,
        rhdr: &RdmaHeader,
        reply_body: Bytes,
        bulk: &BulkParams,
        sink: &mut Option<IoBuf>,
        reply_sink: &mut Option<IoBuf>,
        cpu: &sim_core::Cpu,
    ) -> Result<CallReply, RpcError> {
        let inner = &self.inner;
        match inner.cfg.design {
            Design::ReadWrite => {
                // Long reply: the RPC message was RDMA-written into the
                // reply chunk.
                let rpc_reply = if rhdr.msg_type == MsgType::Nomsg {
                    let io = reply_sink.as_ref().ok_or(RpcError::BadReply)?;
                    let actual: u64 = rhdr
                        .reply_chunk
                        .as_ref()
                        .map(|segs| segs.iter().map(|s| s.len).sum())
                        .unwrap_or(0);
                    cpu.copy(actual).await; // reply must be unmarshalled
                    inner.stats.borrow_mut().copied_bytes += actual;
                    io.read(0, actual).materialize()
                } else {
                    reply_body
                };
                let (rh, body) = decode_reply(rpc_reply).map_err(|_| RpcError::BadReply)?;
                if rh.stat != AcceptStat::Success {
                    return Err(RpcError::Rejected(rh.stat));
                }
                // Bulk data was RDMA-written into the write chunk; the
                // echoed chunk list tells us how much (paper §4).
                let bulk_data = if let Some(io) = sink.as_ref() {
                    let actual = rhdr.write_chunk_bytes(0);
                    let data = io.read(0, actual);
                    let zero_copy = inner.cfg.zero_copy_read
                        && !inner.registrar.is_staged()
                        && bulk.recv_user.is_some();
                    if !zero_copy {
                        // Copy out of the bounce buffer to the user.
                        cpu.copy(actual).await;
                        inner.stats.borrow_mut().copied_bytes += actual;
                        if let Some((ubuf, uoff)) = &bulk.recv_user {
                            ubuf.write(*uoff, data.clone());
                        }
                    }
                    inner.stats.borrow_mut().bulk_in += actual;
                    Some(data)
                } else {
                    None
                };
                Ok(CallReply {
                    body,
                    bulk: bulk_data,
                })
            }
            Design::ReadRead => {
                // Bulk (and long replies) arrive as read chunks naming
                // server memory; pull them, copy out, send RDMA_DONE.
                let mut pulled: Option<Payload> = None;
                if !rhdr.read_chunks.is_empty() {
                    let total: u64 = rhdr.read_chunk_bytes();
                    let io = inner.registrar.acquire_scratch(total, Access::LOCAL).await;
                    // Post every read, then await; ORD throttles depth.
                    let mut off = 0u64;
                    let mut waits = Vec::new();
                    for chunk in &rhdr.read_chunks {
                        let wr = self.alloc_wr();
                        waits.push(inner.router.borrow().expect(wr)?);
                        inner
                            .qp
                            .borrow()
                            .post_rdma_read(
                                io.buffer().clone(),
                                io.base() + off,
                                chunk.segment.addr,
                                chunk.segment.rkey,
                                chunk.segment.len,
                                wr,
                            )
                            .map_err(|_| RpcError::Disconnected)?;
                        off += chunk.segment.len;
                    }
                    for rx in waits {
                        let c = rx.await.map_err(|_| RpcError::Disconnected)?;
                        if c.result.is_err() {
                            return Err(RpcError::Disconnected);
                        }
                    }
                    // Client-side copy: the Read-Read design has no
                    // zero-copy path (paper §4.2 / Figure 5 CPU lines).
                    cpu.copy(total).await;
                    inner.stats.borrow_mut().copied_bytes += total;
                    inner.stats.borrow_mut().bulk_in += total;
                    let data = io.read(0, total);
                    if let Some((ubuf, uoff)) = &bulk.recv_user {
                        ubuf.write(*uoff, data.clone());
                    }
                    inner.registrar.release(io).await;
                    // RDMA_DONE lets the server free its exposed
                    // buffers — unless we are modelling a malicious or
                    // crashed client (§4.1 failure injection).
                    if !inner.cfg.suppress_done {
                        let done = RdmaHeader::new(rhdr.xid, inner.cfg.credits, MsgType::Done);
                        let msg = {
                            let mut enc = inner.send_scratch.borrow_mut();
                            done.encode_into(&mut enc);
                            Bytes::copy_from_slice(enc.as_slice())
                        };
                        inner
                            .qp
                            .borrow()
                            .post_send(Payload::real(msg), self.alloc_wr(), false)
                            .map_err(|_| RpcError::Disconnected)?;
                        inner.stats.borrow_mut().dones_sent += 1;
                    }
                    pulled = Some(data);
                }
                let rpc_reply = if rhdr.msg_type == MsgType::Nomsg {
                    // Long reply: the pulled data IS the RPC message.
                    pulled.take().ok_or(RpcError::BadReply)?.materialize()
                } else {
                    reply_body
                };
                let (rh, body) = decode_reply(rpc_reply).map_err(|_| RpcError::BadReply)?;
                if rh.stat != AcceptStat::Success {
                    return Err(RpcError::Rejected(rh.stat));
                }
                Ok(CallReply { body, bulk: pulled })
            }
        }
    }
}

/// Consumes reply receives, reposts buffers, routes by XID. Bound to
/// one QP: on connection recovery a fresh dispatcher is spawned for the
/// fresh QP and this one exits on the old QP's flush errors.
async fn reply_dispatcher(inner: Rc<ClientInner>, qp: Qp, recv_bufs: Vec<Buffer>) {
    loop {
        let c = qp.recv_cq().next().await;
        if c.opcode != Opcode::Recv {
            continue;
        }
        let Ok(_) = c.result else {
            start_recovery(&inner);
            return;
        };
        // Recycle the receive buffer immediately.
        let idx = c.wr_id.0 as usize;
        if idx < recv_bufs.len() {
            let _ = qp.post_recv(
                recv_bufs[idx].clone(),
                0,
                inner.cfg.recv_buffer_size,
                c.wr_id,
            );
        }
        let Some(payload) = c.payload else { continue };
        let raw = payload.materialize();
        let mut dec = xdr::Decoder::new(&raw);
        let Ok(hdr) = RdmaHeader::decode(&mut dec) else {
            continue;
        };
        // A reply carrying a reply-slot ring advertisement: capture it
        // (geometry sanity-checked) so subsequent small calls can be
        // RFP-marked, then deliver the inline reply as usual.
        if hdr.msg_type == MsgType::MsgRfpAd {
            if let Some(ad) = hdr.rfp_ad {
                if ad.nslots > 0
                    && ad.slot_size as u64 > SLOT_OVERHEAD
                    && ad.seg.len == ad.nslots as u64 * ad.slot_size as u64
                {
                    *inner.rfp_ad.borrow_mut() = Some(ad);
                    inner.rfp_last.set(inner.sim.now());
                }
            }
        }
        let at = dec.position();
        let body = raw.slice(at..);
        if let Some(tx) = inner.pending.borrow_mut().remove(&hdr.xid) {
            tx.send((hdr, body));
        }
    }
}

/// Build the send-CQ completion router for this transport mode. The
/// classic Send-reply client is interrupt-driven: the router parks on
/// the CQ and each wakeup costs one interrupt. In RFP mode the client
/// follows the remote-fetching discipline end to end — a dedicated
/// completion thread busy-polls the send CQ on a short quantum, so
/// slot-fetch (and call-send) completions are consumed interrupt-free
/// at the price of burning the polling core.
fn spawn_router(sim: &Sim, hca: &Hca, qp: &Qp, cfg: &RpcRdmaConfig) -> CompletionRouter {
    if cfg.rfp_enabled {
        CompletionRouter::spawn_polling(
            sim,
            qp.send_cq().clone(),
            hca.cpu().clone(),
            SimDuration::from_micros(1),
        )
    } else {
        CompletionRouter::spawn(sim, qp.send_cq().clone())
    }
}

/// Poll a marked call's reply slot with RDMA Read. The first probe is
/// paced off an EWMA of past fetch latencies — the poller sleeps
/// through most of the expected turnaround, then probes at the
/// `rfp_poll_initial` floor while inside the expected window and backs
/// off exponentially to [`RFP_POLL_MAX`] once past it (cold start, with
/// no estimate yet, goes straight to the exponential ladder). Spawned
/// once per transmission attempt; exits as soon as the call is no
/// longer pending, the connection is recovering, or the ring ad it
/// captured at spawn is no longer current. Outstanding fetches across
/// all of this client's pollers share the IRD/ORD-sized permit pool.
fn spawn_slot_poller(inner: Rc<ClientInner>, xid: u32) {
    inner.sim.clone().spawn(async move {
        let Some(ad) = *inner.rfp_ad.borrow() else {
            return;
        };
        let nslots = ad.nslots.max(1);
        let slot_size = ad.slot_size as u64;
        let slot_addr = ad.seg.addr + (xid % nslots) as u64 * slot_size;
        // Local landing buffer for the fetched slot image (allocation
        // is outside the per-op cost model, like the recv pool).
        let fetch_buf = inner.hca.mem().alloc(slot_size);
        let t0 = inner.sim.now();
        let floor = inner.cfg.rfp_poll_initial.max(SimDuration::from_nanos(1));
        let est = inner.rfp_lat_ewma.get();
        let mut waited = SimDuration::ZERO;
        // `est` tracks when past replies became fetchable (the post
        // time of the earliest probe that hit). Aim one floor-interval
        // early: a hit at the shaved time walks the estimate down
        // toward true readiness, the occasional miss pulls it back up.
        let mut wait = if est > SimDuration::ZERO {
            (est - floor).max(floor)
        } else {
            floor
        };
        loop {
            inner.sim.sleep(wait).await;
            waited += wait;
            wait = if est > SimDuration::ZERO && waited < est * 2 {
                floor
            } else {
                (wait + wait).min(RFP_POLL_MAX)
            };
            if inner.dead.get() || inner.recovering.get() {
                return;
            }
            if (*inner.rfp_ad.borrow()).map(|a| a.seg.rkey) != Some(ad.seg.rkey) {
                return; // ring changed under us (recovery / re-ad)
            }
            if !inner.pending.borrow().contains_key(&xid) {
                return; // reply already delivered, or between attempts
            }
            // IRD/ORD pacing: a fetch holds a permit until it completes.
            let permit = inner.rfp_reads.acquire().await;
            if !inner.pending.borrow().contains_key(&xid) {
                return;
            }
            let wr = {
                let id = inner.next_wr.get();
                inner.next_wr.set(id + 1);
                WrId(id)
            };
            let Ok(rx) = inner.router.borrow().expect(wr) else {
                return;
            };
            let posted_rel = inner.sim.now().saturating_since(t0);
            if inner
                .qp
                .borrow()
                .post_rdma_read(fetch_buf.clone(), 0, slot_addr, ad.seg.rkey, slot_size, wr)
                .is_err()
            {
                return;
            }
            inner.stats.borrow_mut().rfp_polls += 1;
            let Ok(c) = rx.await else { return };
            drop(permit);
            if c.result.is_err() {
                // The fetch was refused (ring revoked): the router's
                // error handler is already driving recovery, and the
                // retransmit machinery re-delivers the call.
                return;
            }
            let image = fetch_buf.read(0, slot_size).materialize();
            if let SlotView::Valid {
                xid: sxid, payload, ..
            } = decode_slot(&image)
            {
                if sxid != xid {
                    continue; // slot held by another call (ring reuse)
                }
                let mut dec = xdr::Decoder::new(&payload);
                let Ok(rhdr) = RdmaHeader::decode(&mut dec) else {
                    continue;
                };
                if rhdr.xid != xid {
                    continue;
                }
                let body = payload.slice(dec.position()..);
                inner.rfp_last.set(inner.sim.now());
                // Fold this hit's post time into the pacing estimate
                // (3:1 EWMA): it bounds when the reply was fetchable.
                let sample = posted_rel;
                let prev = inner.rfp_lat_ewma.get();
                inner.rfp_lat_ewma.set(if prev == SimDuration::ZERO {
                    sample
                } else {
                    (prev * 3 + sample) / 4
                });
                let tx = inner.pending.borrow_mut().remove(&xid);
                if let Some(tx) = tx {
                    inner.stats.borrow_mut().rfp_hits += 1;
                    tx.send((rhdr, body));
                }
                return;
            }
        }
    });
}

/// Route error completions on the current send CQ into the recovery
/// path (or fail-fast teardown when no connector is installed).
fn install_error_handler(inner: &Rc<ClientInner>) {
    let weak = Rc::downgrade(inner);
    inner.router.borrow().set_error_handler(move |_c| {
        if let Some(inner) = weak.upgrade() {
            start_recovery(&inner);
        }
    });
}

/// React to a QP error. Without a connector the endpoint dies
/// immediately: pending calls are failed (their reply senders drop)
/// and every later call returns `Disconnected` — the pre-recovery
/// fail-fast behaviour. With a connector, tear down and re-establish:
/// wait out the reconnect delay, obtain a fresh connected QP (the
/// connector also rebuilds the server side), flush cached
/// registrations so bulk buffers re-register on the new connection,
/// repost the receive window, and swap QP + completion router. Pending
/// calls are *not* failed — their retransmission timers carry them
/// onto the new connection with the same XID.
fn start_recovery(inner: &Rc<ClientInner>) {
    if inner.dead.get() || inner.recovering.get() {
        return;
    }
    if inner.connector.borrow().is_none() {
        inner.dead.set(true);
        inner.pending.borrow_mut().clear();
        return;
    }
    inner.recovering.set(true);
    // Reply-slot rings are per-connection: the old ring dies with the
    // QP, so forget its ad. The first inline reply on the fresh
    // connection re-advertises before any call is marked again.
    *inner.rfp_ad.borrow_mut() = None;
    inner
        .sim
        .trace("rpc", || "client starting qp recovery".to_string());
    let inner = inner.clone();
    inner.sim.clone().spawn(async move {
        inner.sim.sleep(inner.cfg.reconnect_delay).await;
        // Build the reconnect future while holding the borrow, await
        // it after releasing it: a cluster connector may park here
        // until a promotion gate opens, and set_connector must stay
        // callable meanwhile.
        let reconnect = {
            let connector = inner.connector.borrow();
            match connector.as_ref() {
                Some(f) => f(),
                None => {
                    drop(connector);
                    inner.dead.set(true);
                    inner.recovering.set(false);
                    inner.pending.borrow_mut().clear();
                    return;
                }
            }
        };
        let qp = reconnect.await;
        // Registrations cached against the torn-down connection are
        // conservatively dropped and re-established on demand.
        inner.registrar.flush_cache().await;
        let mut recv_bufs = Vec::new();
        let mut posted_ok = true;
        for i in 0..inner.cfg.credits as u64 {
            let buf = inner.hca.mem().alloc(inner.cfg.recv_buffer_size);
            if qp
                .post_recv(buf.clone(), 0, inner.cfg.recv_buffer_size, WrId(i))
                .is_err()
            {
                posted_ok = false;
                break;
            }
            recv_bufs.push(buf);
        }
        if !posted_ok {
            // The replacement QP is already dead; give up.
            inner.dead.set(true);
            inner.recovering.set(false);
            inner.pending.borrow_mut().clear();
            return;
        }
        *inner.router.borrow_mut() = spawn_router(&inner.sim, &inner.hca, &qp, &inner.cfg);
        install_error_handler(&inner);
        *inner.qp.borrow_mut() = qp.clone();
        inner.stats.borrow_mut().reconnects += 1;
        inner.metrics.reconnects.inc();
        inner.recovering.set(false);
        inner
            .sim
            .trace("rpc", || "client qp recovery complete".to_string());
        let inner2 = inner.clone();
        inner
            .sim
            .clone()
            .spawn(async move { reply_dispatcher(inner2, qp, recv_bufs).await });
    });
}
