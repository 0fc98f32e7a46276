//! The RPC/RDMA server engine.
//!
//! Models the OpenSolaris architecture of the paper's Figure 1: the
//! interrupt handler feeds a serialized server task queue; worker
//! "threads" (tasks) then run the NFS operation. The two designs
//! diverge on the reply path:
//!
//! * **Read-Write**: bulk results are RDMA-written into the client's
//!   Write/Reply chunks, then the RPC Reply is sent. InfiniBand's
//!   Write→Send ordering guarantees placement, so the server never
//!   waits on the writes; the *reply Send's completion* is the
//!   deregistration point (paper §4.2).
//! * **Read-Read**: bulk results are exposed via Read chunks in the
//!   reply; the buffers stay registered (and remotely readable!) until
//!   the client's `RDMA_DONE` — a malicious client can pin server
//!   memory indefinitely (§4.1), which `pending_exposures` makes
//!   measurable.
//!
//! NFS WRITE is identical in both designs: the server pulls the
//! client's Read chunks with RDMA Read and *blocks* until completion,
//! because a Send after a Read carries no ordering guarantee (§4.1).
//! What it does not wait for is its own task queue: the chunk list is
//! in the transport header, so the pull starts when the call does.
//!
//! # The pipeline
//!
//! Every message walks one staged dataplane, each stage one function
//! that owns its span and its counters. Per connection
//! (`connection_loop`): **receive** from the `RecvPool` → **sanitize**
//! → **admit** (the credit window) → **schedule** (a task per call, or
//! the QoS queue while every service slot is busy). Per call
//! (`handle_op`): **dispatch** (the serialized task queue) beside
//! **fetch** (scratch provisioning and the RDMA Reads of what did not
//! arrive inline) → **land** (what the service thread does with the
//! fetched bytes) → **service** (the duplicate request cache around the
//! RPC program) → **push** → **reply** (a Send) → **retire**.
//!
//! # Adversarial hardening
//!
//! Every inbound header passes [`crate::sanitize::sanitize_header`]
//! before the server allocates scratch or issues RDMA. Violations are
//! counted (`server.violations.*`), clamp the offender's per-connection
//! credit grant (halved per strike, restored after a streak of good
//! calls), and — past [`VIOLATION_QUARANTINE`] strikes — quarantine
//! the connection by forcing its QP into the error state. Honest
//! clients on other QPs keep their full windows. Every Read-Read
//! exposure carries a deadline learned from the connection's own
//! `RDMA_DONE`s, never earlier than what an honest pull of everything
//! the connection has exposed needs on this HCA; the receive loop
//! revokes an exposure whose `RDMA_DONE` is overdue, bounding how long
//! a client can pin server memory.

#![deny(clippy::too_many_lines)]

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::task::Poll;

use bytes::Bytes;
use ib_verbs::{Access, Hca, HcaConfig, NodeId, Qp, Sge, VerbsError, PAGE_SIZE};
use onc_rpc::msg::{decode_call, encode_reply};
use onc_rpc::{
    AcceptStat, BulkDispatch, BulkService, CallContext, CallHeader, DrcKey, DrcOutcome,
    DuplicateRequestCache, ReplyHeader, REPLY_HEADER_LEN,
};
use sim_core::stats::{Counter, Gauge};
use sim_core::{
    transfer_time, FxMap, MetricsRegistry, Payload, Resource, SgList, Sim, SimDuration, SimTime,
    WakeSlot,
};
use xdr::XdrCodec;

use crate::config::{Design, RpcRdmaConfig};
use crate::endpoint::{Endpoint, RecvPool, ReplyClock};
use crate::header::{MsgType, RdmaHeader, ReadChunk, Segment};
use crate::qos::{
    ShedReason, TenantScheduler, QOS_QUEUE_CAP, QOS_TARGET_DELAY, QOS_TENANT_BACKLOG,
};
use crate::reg::{IoBuf, Registrar};
use crate::sanitize::{sanitize_wire, ProtocolViolation};

/// Good calls a clamped connection must complete before its credit
/// window doubles back toward the server's base grant.
const GOOD_OPS_PER_RESTORE: u32 = 8;

/// Protocol violations tolerated on one connection before the server
/// quarantines it (forces the QP into the error state, tearing down
/// only that client).
pub const VIOLATION_QUARANTINE: u32 = 8;

/// Completed replies the duplicate request cache retains (bounded LRU;
/// evicted entries mean very late duplicates re-execute).
pub const DRC_CAPACITY: usize = 1024;

/// Server-side statistics: every field *is* a `server.*` series of the
/// metrics registry (named in `ServerStats::new`). The counters are
/// shared by name — so fleet-wide when servers share a simulation; the
/// gauges are each server's own, `server.node{N}.*`.
pub struct ServerStats {
    /// Operations dispatched.
    pub ops: Rc<Counter>,
    /// Bulk bytes pulled from clients (WRITE path).
    pub bulk_in: Rc<Counter>,
    /// Bulk bytes pushed/exposed to clients (READ path).
    pub bulk_out: Rc<Counter>,
    /// `RDMA_DONE` messages processed (Read-Read design).
    pub dones: Rc<Counter>,
    /// `RDMA_MSGP` padded-inline messages received.
    pub msgp_recvs: Rc<Counter>,
    /// Gauge: exposed buffers currently awaiting `RDMA_DONE` — a
    /// resource the client controls (§4.1 "Malicious or Malfunctioning
    /// clients").
    pub exposures_pending: Rc<Gauge>,
    /// Server-side staging copies, bytes.
    pub copied_bytes: Rc<Counter>,
    /// READ reply bytes gathered straight from file-system pages onto
    /// the wire (no staging write): the zero-copy pipeline's output.
    pub zero_copy_bytes: Rc<Counter>,
    /// WRITE bytes pulled from clients and handed to the file system
    /// as scatter pieces (no flattening, no staging copy): the
    /// receive-side scatter pipeline's output, mirroring
    /// [`ServerStats::zero_copy_bytes`] on the READ side.
    pub write_zero_copy_bytes: Rc<Counter>,
    /// Gauge: operations currently being serviced.
    pub inflight: Rc<Gauge>,
    /// Gauge: high-water mark of concurrent operations.
    pub peak_inflight: Rc<Gauge>,
    /// Retransmitted calls answered from the duplicate request cache
    /// instead of re-executing. (A duplicate of a call still executing
    /// is dropped unanswered: `server.drc.inprogress_drops`.)
    pub drc_replays: Rc<Counter>,
    /// DRC replays served from the *previous* service epoch: calls
    /// first executed on a failed primary and retransmitted to this
    /// server after its promotion (subset of `drc_replays`).
    pub cross_epoch_replays: Rc<Counter>,
    /// Protocol violations detected by the chunk-list sanitizer (all
    /// connections, all kinds).
    pub violations: Rc<Counter>,
    /// Connections quarantined (QP forced to the error state) after
    /// exhausting their violation budget.
    pub quarantines: Rc<Counter>,
    /// Times a connection's credit grant was halved under violation
    /// (or QoS hog) pressure.
    pub credit_clamps: Rc<Counter>,
    /// Read-Read exposures revoked because their `RDMA_DONE` was
    /// overdue, or because their connection tore down first.
    pub exposures_revoked: Rc<Counter>,
    /// Calls shed by the overload controller (answered with a
    /// retryable busy reply instead of being serviced).
    pub sheds: Rc<Counter>,
    /// Gauge: high-water mark of the QoS dispatch queue depth.
    pub qos_peak_depth: Rc<Gauge>,
    /// Long replies that outgrew the reply chunk the client provisioned
    /// (its `reply_max` was no bound): answered with an inline error,
    /// nothing written.
    pub reply_chunk_overflows: Rc<Counter>,
    /// Bulk results that outgrew the write chunk the client provisioned
    /// (its `recv_max` was no bound): same answer, nothing written.
    pub write_chunk_overflows: Rc<Counter>,
}

impl ServerStats {
    fn new(registry: &MetricsRegistry, node: NodeId) -> ServerStats {
        let series = |name: &str| registry.counter(name);
        let gauge = |name: &str| registry.gauge(&format!("server.node{}.{name}", node.0));
        ServerStats {
            ops: series("server.ops"),
            bulk_in: series("server.bulk_in"),
            bulk_out: series("server.bulk_out"),
            dones: series("server.dones"),
            msgp_recvs: series("server.msgp_recvs"),
            exposures_pending: gauge("exposures_pending"),
            copied_bytes: series("server.copied_bytes"),
            zero_copy_bytes: series("server.read.zero_copy_bytes"),
            write_zero_copy_bytes: series("server.write.zero_copy_bytes"),
            inflight: gauge("inflight"),
            peak_inflight: gauge("peak_inflight"),
            drc_replays: series("server.drc.replays"),
            cross_epoch_replays: series("server.drc.cross_epoch_replays"),
            violations: series("server.violations.total"),
            quarantines: series("server.quarantines"),
            credit_clamps: series("server.credit_clamps"),
            exposures_revoked: series("server.exposures.revoked"),
            sheds: series("server.sheds"),
            qos_peak_depth: gauge("qos_peak_depth"),
            reply_chunk_overflows: series("server.reply_chunk_overflows"),
            write_chunk_overflows: series("server.write_chunk_overflows"),
        }
    }
}

/// A call as it arrived: the vetted transport header, the inline bytes
/// behind it, and the piece a gathered Send carried after them — an
/// `RDMA_MSGP` call's data, as the client sent it (the one message the
/// protocol gathers; `tail` is read for no other).
struct Inbound {
    hdr: RdmaHeader,
    body: Bytes,
    tail: Option<Payload>,
}

/// One admitted call parked in the QoS dispatch queue.
struct QueuedCall {
    call: Inbound,
    conn: Admitted,
    /// Arrival instant, for the pump's [`QOS_TARGET_DELAY`] check.
    enq: SimTime,
}

/// The schedule stage's service slots, dispatch queue and `qos.*` series.
struct QosState {
    sched: TenantScheduler<QueuedCall>,
    /// Handler tasks started and not yet ended, all connections.
    in_service: Cell<u32>,
    enqueued: Rc<Counter>,
    dispatched: Rc<Counter>,
    shed_queue_full: Rc<Counter>,
    shed_tenant_backlog: Rc<Counter>,
    shed_deadline: Rc<Counter>,
    credit_clamps: Rc<Counter>,
}

impl QosState {
    fn new(registry: &MetricsRegistry) -> QosState {
        QosState {
            sched: TenantScheduler::new(QOS_QUEUE_CAP, QOS_TENANT_BACKLOG),
            in_service: Cell::new(0),
            enqueued: registry.counter("server.qos.enqueued"),
            dispatched: registry.counter("server.qos.dispatched"),
            shed_queue_full: registry.counter("server.qos.shed.queue_full"),
            shed_tenant_backlog: registry.counter("server.qos.shed.tenant_backlog"),
            shed_deadline: registry.counter("server.qos.shed.deadline"),
            credit_clamps: registry.counter("server.qos.credit_clamps"),
        }
    }
}

/// A server endpoint shared by all client connections: the service,
/// the serialized task queue, and counters.
pub struct RdmaRpcServer {
    sim: Sim,
    hca: Hca,
    service: Rc<dyn BulkService>,
    registrar: Registrar,
    cfg: RpcRdmaConfig,
    /// The serialized RPC task queue of Figure 1.
    taskq: Resource,
    /// Credits granted to clients in every reply header (dynamic flow
    /// control — the paper's stated future work). Starts at the
    /// configured window; lower it under memory pressure and clients
    /// shrink their outstanding-call windows on the next reply.
    credit_grant: Cell<u32>,
    /// Duplicate request cache: retransmitted calls (same peer + XID)
    /// replay the original dispatch instead of re-executing it.
    drc: DuplicateRequestCache<BulkDispatch>,
    /// Service epoch qualifying DRC keys. 0 for a standalone server;
    /// a replicated cluster bumps it when this server is promoted, and
    /// calls that miss the current epoch probe the previous one so
    /// retransmissions across a failover replay instead of re-executing.
    service_epoch: Cell<u32>,
    /// Service slots and the dispatch queue that waits for them.
    qos: QosState,
    /// Statistics.
    pub stats: Rc<ServerStats>,
}

impl RdmaRpcServer {
    /// Create the server endpoint.
    pub fn new(
        sim: &Sim,
        hca: &Hca,
        service: Rc<dyn BulkService>,
        registrar: Registrar,
        cfg: RpcRdmaConfig,
    ) -> Rc<RdmaRpcServer> {
        let registry = sim.metrics();
        let drc = DuplicateRequestCache::new(DRC_CAPACITY, &registry, "server.drc");
        Rc::new(RdmaRpcServer {
            sim: sim.clone(),
            hca: hca.clone(),
            service,
            registrar,
            cfg,
            taskq: Resource::new(sim, "rpc-taskq", 1),
            credit_grant: Cell::new(cfg.credits),
            drc,
            service_epoch: Cell::new(0),
            qos: QosState::new(&registry),
            stats: Rc::new(ServerStats::new(&registry, hca.node())),
        })
    }

    /// The serialized task-queue resource (for utilization reports).
    pub fn taskq(&self) -> &Resource {
        &self.taskq
    }

    /// Change the credit grant carried in subsequent reply headers.
    /// Clamped to `[1, cfg.credits]` (the receive pool is sized for the
    /// configured window).
    pub fn set_credit_grant(&self, credits: u32) {
        self.credit_grant.set(credits.clamp(1, self.cfg.credits));
    }

    /// Set a tenant's weight in the QoS dispatch queue (dispatches per
    /// fair-queue visit while backlogged; clamped to ≥ 1). Tenants are
    /// keyed by peer node id.
    pub fn set_tenant_weight(&self, peer: u32, weight: u32) {
        self.qos.sched.set_weight(peer, weight);
    }

    /// Calls currently parked in the QoS dispatch queue — the telemetry
    /// probe's queue-depth series.
    pub fn qos_depth(&self) -> u32 {
        self.qos.sched.queued()
    }

    /// The duplicate request cache (diagnostics).
    pub fn drc(&self) -> &DuplicateRequestCache<BulkDispatch> {
        &self.drc
    }

    /// Install a new service epoch (promotion). New calls key the DRC
    /// under this epoch; misses probe `epoch - 1` so the completed-
    /// reply window carried over from the failed primary still replays.
    pub fn set_service_epoch(&self, epoch: u32) {
        self.service_epoch.set(epoch);
    }

    /// Mirror a completed reply into the DRC under an explicit epoch —
    /// how a backup installs the primary's completed-reply window entry
    /// for every replicated record it applies. `trace` is the original
    /// execution's context (carried on the replication record), so a
    /// replay served from this mirrored entry after a promotion still
    /// links to the execution on the failed primary.
    pub fn import_reply(
        &self,
        peer: u32,
        xid: u32,
        epoch: u32,
        head: Bytes,
        trace: sim_core::TraceCtx,
    ) {
        let mut dispatch = BulkDispatch::success(head, None);
        dispatch.trace = trace;
        self.drc
            .insert_completed(DrcKey { peer, xid, epoch }, &dispatch);
    }

    /// Attach one accepted connection (a connected QP) and serve it.
    pub fn serve_connection(self: &Rc<Self>, qp: Qp) {
        self.sim.spawn(connection_loop(self.clone(), qp));
    }

    /// Fewer than `cfg.threads` calls in service.
    fn slot_free(&self) -> bool {
        let busy = self.qos.in_service.get();
        self.cfg.threads.is_none_or(|t| busy < t.get())
    }

    /// The zero-copy test *pull* (scatter WRITE chunks into the file
    /// system) and *push* (gather READ data from its pages) share:
    /// always, unless the registration strategy stages through bounce
    /// buffers.
    fn zero_copy(&self) -> bool {
        !self.registrar.is_staged()
    }
}

/// A Read-Read exposure awaiting the client's `RDMA_DONE`: the buffers,
/// when they went on the wire, what pulling them takes, and when the
/// server stops waiting.
struct Exposure {
    since: SimTime,
    deadline: SimTime,
    /// Bytes the reply advertised, and the RDMA Reads (one per segment)
    /// that pull them.
    pull: (u64, u64),
    /// 1 if a DRC replay re-exposed its call's reply: its `RDMA_DONE`
    /// may answer either copy, so it times nothing (Karn's rule).
    attempt: u32,
    /// The deadline passed once while the peer was pulling, and was
    /// granted again.
    renewed: bool,
    bufs: Vec<IoBuf>,
}

/// What an honest in-order pull of `pending` — every exposure a
/// connection has not yet released, as (bytes, RDMA Reads) — needs on
/// `hca`: for each, a sink registered at this HCA's rate and one
/// responder turnaround per Read; then the wire time of every byte and
/// one round trip.
fn pull_floor(hca: &HcaConfig, pending: impl Iterator<Item = (u64, u64)>) -> SimDuration {
    let (mut floor, mut bytes) = (hca.link_latency * 2, 0);
    for (b, reads) in pending {
        floor += hca.reg_cost(b.div_ceil(PAGE_SIZE)) + hca.read_turnaround * reads;
        bytes += b;
    }
    floor + transfer_time(bytes, hca.link_bandwidth)
}

/// When an exposure made at `since` is overdue: after `floor`, or after
/// the connection's RFC 6298 timeout once its `RDMA_DONE`s have been
/// timed, whichever is later.
fn overdue_at(since: SimTime, floor: SimDuration, dones: &ReplyClock) -> SimTime {
    since + floor.max(dones.rto())
}

/// How an [`Exposure`] ends: quietly *released* (the client sent
/// `RDMA_DONE`, or never acted on the reply that advertised it), or
/// *revoked* on the TPT ledger because the client can no longer be
/// trusted to let go (teardown, an overdue `RDMA_DONE`).
#[derive(Clone, Copy)]
enum Retire {
    Release,
    Revoke,
}

/// One client connection: the server it belongs to, its transport
/// endpoint, and the per-connection protocol state every stage works
/// against.
struct ConnState {
    server: Rc<RdmaRpcServer>,
    ep: Endpoint,
    /// Read-Read design: xid -> buffers exposed until RDMA_DONE.
    pending_exposures: RefCell<FxMap<u32, Exposure>>,
    /// How long this client takes to answer an exposure with
    /// `RDMA_DONE`.
    dones: ReplyClock,
    /// Where the receive loop parks: a new exposure wakes it to wait
    /// for that deadline too.
    reaper: RefCell<WakeSlot>,
    /// Per-connection credit grant: starts at the server's base grant,
    /// halves on every protocol violation, doubles back after a streak
    /// of clean calls. Never exceeds the server-wide grant.
    granted: Cell<u32>,
    /// Violations charged to this connection (never resets — the
    /// quarantine budget is for the connection's lifetime).
    violations: Cell<u32>,
    /// Consecutive clean calls since the last violation.
    good_streak: Cell<u32>,
    /// Set at teardown: the pump drops this connection's calls still
    /// queued.
    closed: Cell<bool>,
    /// Live [`Admitted`] guards. The server *enforces* its credit grant:
    /// a call arriving past the window is dropped and charged as a
    /// violation instead of being dispatched, so credit overcommit
    /// never buys server CPU.
    in_flight: Cell<u32>,
}

impl ConnState {
    /// Fresh per-connection state on `ep`.
    fn new(server: &Rc<RdmaRpcServer>, ep: Endpoint) -> ConnState {
        ConnState {
            server: server.clone(),
            ep,
            pending_exposures: RefCell::new(FxMap::default()),
            dones: ReplyClock::default(),
            reaper: RefCell::new(WakeSlot::new()),
            granted: Cell::new(server.credit_grant.get()),
            violations: Cell::new(0),
            good_streak: Cell::new(0),
            closed: Cell::new(false),
            in_flight: Cell::new(0),
        }
    }

    fn peer(&self) -> u32 {
        self.ep.qp.peer_node().0
    }

    /// The grant this client sees in a reply header: its own
    /// (violation-clamped) window, never more than the server-wide one.
    fn grant(&self) -> u32 {
        self.granted.get().min(self.server.credit_grant.get())
    }
}

/// An admitted call's slot in its connection's credit window: the
/// connection handle the call carries until it is serviced, shed or
/// dropped, whose `Drop` gives the slot back — exactly once.
struct Admitted(Rc<ConnState>);

impl std::ops::Deref for Admitted {
    type Target = Rc<ConnState>;

    fn deref(&self) -> &Rc<ConnState> {
        &self.0
    }
}

impl Drop for Admitted {
    fn drop(&mut self) {
        self.in_flight.set(self.in_flight.get() - 1);
    }
}

/// Halve the connection's credit grant (never below one), pushing back
/// through flow control. Returns whether the window actually shrank.
fn clamp_credits(conn: &ConnState) -> bool {
    let g = conn.granted.get();
    if g <= 1 {
        return false;
    }
    conn.granted.set(g / 2);
    conn.server.stats.credit_clamps.inc();
    true
}

/// Charge `v` to this connection: count it, clamp the connection's
/// credit window, and quarantine the QP once the violation budget is
/// spent. Never touches other connections.
fn note_violation(conn: &ConnState, v: ProtocolViolation) {
    let (sim, stats) = (&conn.server.sim, &conn.server.stats);
    stats.violations.inc();
    let kind = format!("server.violations.{}", v.metric_key());
    sim.metrics().counter(&kind).inc();
    conn.good_streak.set(0);
    clamp_credits(conn);
    let strikes = conn.violations.get() + 1;
    conn.violations.set(strikes);
    if strikes >= VIOLATION_QUARANTINE && !conn.closed.get() {
        stats.quarantines.inc();
        sim.flight("server", "quarantine", conn.peer() as u64, strikes as u64);
        conn.ep.qp.force_error();
    }
}

/// A clean call completed: walk the connection's credit window back up
/// toward the server's base grant, one doubling per
/// [`GOOD_OPS_PER_RESTORE`] streak.
fn note_good_op(conn: &ConnState) {
    let base = conn.server.credit_grant.get();
    if conn.granted.get() >= base {
        conn.good_streak.set(0);
        return;
    }
    let streak = conn.good_streak.get() + 1;
    if streak >= GOOD_OPS_PER_RESTORE {
        conn.good_streak.set(0);
        conn.granted
            .set((conn.granted.get().saturating_mul(2)).min(base));
    } else {
        conn.good_streak.set(streak);
    }
}

/// Take one exposure off the books. The gauge drops now; the returned
/// future retires the buffers (await it, or spawn it to keep a receive
/// loop moving).
fn retire_exposure(conn: &ConnState, exp: Exposure, how: Retire) -> impl Future<Output = ()> {
    let server = conn.server.clone();
    let pending = &server.stats.exposures_pending;
    pending.set(pending.get() - exp.bufs.len() as u64);
    async move {
        for io in exp.bufs {
            match how {
                Retire::Release => server.registrar.release(io).await,
                Retire::Revoke => {
                    server.stats.exposures_revoked.inc();
                    server.registrar.revoke(io).await;
                }
            }
        }
    }
}

/// One connection's receive loop: **receive → sanitize → admit →
/// schedule** for every inbound message, then teardown.
async fn connection_loop(server: Rc<RdmaRpcServer>, qp: Qp) {
    let cfg = server.cfg;
    let Ok(pool) = RecvPool::post(&server.hca, &cfg, 2, &qp) else {
        return;
    };
    let conn = Rc::new(ConnState::new(
        &server,
        Endpoint::new(&server.sim, qp, pool),
    ));

    while let Some((payload, tail)) = next_message(&conn).await {
        let Some(call) = sanitize_stage(&conn, payload, tail) else {
            continue;
        };
        match call.hdr.msg_type {
            MsgType::Done => {
                // Read-Read: the client is done pulling; release the
                // exposed buffers (finally paying deregistration).
                let exp = conn.pending_exposures.borrow_mut().remove(&call.hdr.xid);
                if let Some(exp) = exp {
                    server.stats.dones.inc();
                    conn.dones.sample(exp.attempt, server.sim.now() - exp.since);
                    let release = retire_exposure(&conn, exp, Retire::Release);
                    server.sim.spawn(release);
                }
            }
            MsgType::Msg | MsgType::Nomsg | MsgType::Msgp => {
                if let Some(slot) = admit(&conn) {
                    schedule(slot, call);
                }
            }
        }
    }
    teardown(&conn).await;
}

/// *Sanitize* stage: decode the transport header and vet every
/// client-advertised chunk list *before* any allocation or RDMA is
/// issued on its behalf. Byte soup where a header should be is charged
/// to the sender like any other violation.
fn sanitize_stage(conn: &ConnState, payload: Payload, tail: Option<Payload>) -> Option<Inbound> {
    let raw = payload.materialize();
    match sanitize_wire(&raw, &conn.server.cfg) {
        Ok((hdr, at)) => {
            let body = raw.slice(at..);
            Some(Inbound { hdr, body, tail })
        }
        Err(v) => {
            note_violation(conn, v);
            None
        }
    }
}

/// *Admit* stage: enforce the credit window. The base grant bounds how
/// many calls any client may have in flight, whatever it chooses to
/// believe about its credits; a call past it is charged and dropped.
fn admit(conn: &Rc<ConnState>) -> Option<Admitted> {
    let window = conn.server.credit_grant.get();
    let in_flight = conn.in_flight.get() + 1;
    if in_flight > window {
        let v = ProtocolViolation::WindowExceeded { in_flight, window };
        note_violation(conn, v);
        return None;
    }
    conn.in_flight.set(in_flight);
    Some(Admitted(conn.clone()))
}

/// *Schedule* stage: a call finding a slot free and nobody queued starts
/// at once (weighted DRR would dequeue it). Any other waits in the fair
/// dispatch queue, which sheds what it refuses; every slot is busy then,
/// and each pumps as it frees.
fn schedule(conn: Admitted, call: Inbound) {
    let server = conn.server.clone();
    let qos = &server.qos;
    if qos.sched.queued() == 0 && server.slot_free() {
        start(&server, conn, call);
        return;
    }
    let (owner, peer, enq) = (Rc::clone(&conn), conn.peer(), server.sim.now());
    match qos.sched.enqueue(peer, QueuedCall { call, conn, enq }) {
        Ok(backlog) => {
            qos.enqueued.inc();
            server.stats.qos_peak_depth.raise(qos.sched.queued() as u64);
            // Hog pressure: a tenant holding more than half its
            // backlog cap gets its credit grant halved, pushing back
            // through flow control before the hard cap sheds.
            if backlog > QOS_TENANT_BACKLOG / 2 && clamp_credits(&owner) {
                qos.credit_clamps.inc();
                let sim = &server.sim;
                sim.flight("qos", "credit_clamp", peer as u64, backlog as u64);
            }
        }
        Err((reason, call)) => {
            match reason {
                ShedReason::QueueFull => qos.shed_queue_full.inc(),
                ShedReason::TenantBacklog => qos.shed_tenant_backlog.inc(),
            }
            shed_call("shed_arrival", call);
        }
    }
}

/// Connection teardown. The dead peer can no longer send `RDMA_DONE`
/// on this QP, and the rkey of every still-exposed buffer was
/// advertised to it — so *revoke* them (registration dropped, ledger
/// records it) rather than release them. A parked cache entry with a
/// live registration the dead peer knows about would be a standing
/// leak.
async fn teardown(conn: &ConnState) {
    conn.closed.set(true);
    let leftover = std::mem::take(&mut *conn.pending_exposures.borrow_mut());
    for (_, exp) in sim_core::key_order(leftover) {
        retire_exposure(conn, exp, Retire::Revoke).await;
    }
}

/// The connection's next inbound message. While Read-Read exposures
/// are pending the wait also ends at each deadline, to reap what is
/// overdue: the reaper runs only while something is exposed, on this
/// loop's task (and a new exposure wakes it to re-arm). The message
/// lane is polled before the reaper timer, so never as the last one.
#[allow(
    clippy::disallowed_methods,
    reason = "two lanes: the message lane is polled under `poll_not_last`"
)]
async fn next_message(conn: &ConnState) -> Option<(Payload, Option<Payload>)> {
    let mut next = pin!(conn.ep.next_message());
    let (sim, mut armed, mut timer) = (&conn.server.sim, None, None);
    poll_fn(|cx| loop {
        if let Poll::Ready(message) = sim_core::poll_not_last(next.as_mut(), cx) {
            return Poll::Ready(message);
        }
        let due = (conn.pending_exposures.borrow().values())
            .map(|e| e.deadline)
            .min();
        if due != armed {
            (armed, timer) = (due, due.map(|at| sim.sleep_until(at)));
        }
        match timer.as_mut().map(|t| Pin::new(t).poll(cx)) {
            Some(Poll::Ready(())) => reap(conn),
            _ => {
                conn.reaper.borrow_mut().park(cx);
                return Poll::Pending;
            }
        }
    })
    .await
}

/// Revoke, in xid order, every exposure whose `RDMA_DONE` is overdue —
/// each forgiven at most once: one the peer has been pulling from since
/// it went out is mid-pull (copying out, releasing its sink, about to
/// send `RDMA_DONE`) and gets its wait again. The TPT ledger records
/// each revocation, so an attack (and the defense) shows up in
/// `tpt.revocations`.
fn reap(conn: &ConnState) {
    let (sim, pulled) = (&conn.server.sim, conn.ep.qp.last_remote_read());
    let now = sim.now();
    let mut map = conn.pending_exposures.borrow_mut();
    let mut overdue: Vec<u32> = (map.iter().filter(|(_, e)| e.deadline <= now))
        .map(|(xid, _)| *xid)
        .collect();
    overdue.sort_unstable();
    for xid in overdue {
        let exp = map.get_mut(&xid).expect("an overdue exposure is pending");
        if !exp.renewed && pulled.is_some_and(|t| t >= exp.since) {
            exp.renewed = true;
            exp.deadline += exp.deadline - exp.since;
        } else if let Some(exp) = map.remove(&xid) {
            sim.flight("server", "ttl_revoke", xid as u64, exp.bufs.len() as u64);
            sim.spawn(retire_exposure(conn, exp, Retire::Revoke));
        }
    }
}

/// Answer a shed call immediately with a retryable busy reply
/// (RFC 5531 `SYSTEM_ERR`), bypassing the duplicate request cache so a
/// later retransmission of the same XID executes fresh. Fire-and-
/// forget: shedding must stay cheap under exactly the load that
/// triggers it, so no taskq pass, no CPU charge, no completion wait —
/// just a small inline send. The call leaves the connection's
/// in-flight window here, with its guard.
fn shed_call(why: &'static str, call: QueuedCall) {
    let QueuedCall { call, conn, .. } = call;
    let (server, peer, xid) = (&conn.server, conn.peer(), call.hdr.xid);
    server.stats.sheds.inc();
    server.sim.flight("qos", why, peer as u64, xid as u64);
    let stat = AcceptStat::SystemErr;
    let reply = ReplyHeader { xid, stat };
    // Busy replies still carry the (possibly clamped) credit grant:
    // a shed client also learns to shrink its window.
    let rhdr = RdmaHeader::new(xid, conn.grant(), MsgType::Msg);
    let wire = conn.ep.encode_wire(&rhdr, |enc| reply.encode(enc));
    let _ = conn.ep.send(wire);
}

/// Put an admitted call into service: a handler task holding a slot.
fn start(server: &RdmaRpcServer, conn: Admitted, call: Inbound) {
    server.qos.in_service.set(server.qos.in_service.get() + 1);
    server.sim.spawn(handle_op(conn, call));
}

/// A handler ended: free its slot and fill free slots from the queue in
/// weighted fair order — drop a call whose connection tore down, shed one
/// whose sojourn blew the CoDel-style target, start the rest.
fn pump(server: &RdmaRpcServer) {
    let qos = &server.qos;
    qos.in_service.set(qos.in_service.get() - 1);
    while server.slot_free() {
        let Some((_, call)) = qos.sched.dequeue() else {
            return;
        };
        if call.conn.closed.get() {
            // Torn down while it waited: the QP is gone, so nobody is
            // left to answer, and a task-queue pass for it would only
            // delay live connections. Dropping it gives back its slot.
            continue;
        }
        if server.sim.now() - call.enq > QOS_TARGET_DELAY {
            // The queue already added more delay than the target;
            // answering "busy" now is cheaper for everyone than
            // servicing stale work the client may have given up on.
            qos.shed_deadline.inc();
            shed_call("shed_deadline", call);
            continue;
        }
        qos.dispatched.inc();
        start(server, call.conn, call.call);
    }
}

/// What the *push* stage hands to *reply* and *retire*: the reply
/// header with its chunk lists filled in, the RPC reply message in its
/// two parts, and the buffers the bulk data was staged in.
struct Outgoing {
    rhdr: RdmaHeader,
    /// The RPC reply: this header, then the program's `results`.
    /// Encoded straight into the wire image behind `rhdr`, or on its own
    /// for a long reply, the one that travels by chunk.
    reply: ReplyHeader,
    results: Bytes,
    /// What the op holds until its reply Send has completed. Read-Write:
    /// the source windows of its RDMA Writes, then released. Read-Read:
    /// the buffers the reply advertises, from then exposed until the
    /// client's `RDMA_DONE`. Empty for a reply that is all inline.
    held: Vec<IoBuf>,
}

impl Outgoing {
    /// Encoded length of the RPC reply message.
    fn reply_len(&self) -> usize {
        REPLY_HEADER_LEN + self.results.len().next_multiple_of(4)
    }

    /// The RPC reply message as bytes of its own, for a long reply.
    fn reply_msg(&self) -> Payload {
        Payload::real(encode_reply(&self.reply, &self.results))
    }
}

/// Run one admitted call to completion, keeping the server's in-flight
/// gauges around it, then pump; its credit slot returns with `conn`.
async fn handle_op(conn: Admitted, mut call: Inbound) {
    let stats = &conn.server.stats;
    let inflight = stats.inflight.get() + 1;
    stats.inflight.set(inflight);
    stats.peak_inflight.raise(inflight);
    let _dropped = run_op(&conn, &mut call).await;
    stats.inflight.set(stats.inflight.get() - 1);
    pump(&conn.server);
}

/// The per-call pipeline: **(dispatch ∥ fetch) → land → service → push
/// → reply → retire**, all under the `op` span. `None` = the call was
/// dropped.
///
/// The chunk list arrived in the transport header, which *sanitize* and
/// *admit* have already vetted, so the HCA can fetch the payload while
/// the call waits its turn in the task queue: the two lanes use
/// disjoint resources (task queue and a core; TPT, read engine and
/// wire) and neither reads the other's result. Both always run to
/// completion — a failed fetch has released its scratch and the task
/// queue has been paid before the call is dropped.
///
/// The call is borrowed from `handle_op`, not moved in: a parameter of
/// each nested async fn is stored in the handler's future, so a call
/// taken by value here would be carried twice by every op's task.
async fn run_op(conn: &Rc<ConnState>, call: &mut Inbound) -> Option<()> {
    let (server, hdr) = (&conn.server, &call.hdr);
    // Adopt the caller's trace context (stashed out-of-band under the
    // same (node, xid) key the client injected): the op span joins the
    // client's causal tree with a flow edge from the call span.
    let call_ctx = server
        .sim
        .trace_adopt(((conn.peer() as u64) << 32) | hdr.xid as u64);
    let _op_span = server.sim.span_remote("server", "op", None, call_ctx);
    let body = std::mem::take(&mut call.body);
    let (call_msg, inline_bulk) = split_inline(conn, hdr, body, call.tail.take())?;
    let fetched = {
        // Dispatch lane first: its span is the one open when the fetch
        // lane's `pull_chunks` opens, so the overlap is attributed once.
        // (A block, so the lanes' frames are dead — and their room in
        // this task's future reusable — once both have finished.)
        let (dispatch, fetch) = (pin!(dispatch_stage(server)), pin!(fetch_stage(conn, hdr)));
        sim_core::join(dispatch, fetch).await.1?
    };
    let (call_msg, bulk_in) = land_stage(server, fetched, call_msg, inline_bulk).await;
    let (xid, dispatch) = service_stage(conn, call_msg, bulk_in).await?;
    let mut out = push_stage(conn, hdr, xid, &dispatch).await;
    let sent = reply_stage(conn, &mut out).await;
    retire_stage(conn, out, sent.is_some()).await;
    Some(())
}

/// *Dispatch* lane: the call's turn in the serialized server task queue
/// of Figure 1, then decode + dispatch bookkeeping on a CPU core.
async fn dispatch_stage(server: &RdmaRpcServer) {
    let _s = server.sim.span("server", "dispatch");
    let cpu = server.hca.cpu();
    server.taskq.use_for(cpu.costs().server_op_serial).await;
    cpu.execute(cpu.costs().per_op_server_cpu).await;
}

/// Split an `RDMA_MSGP` message `[head][padding][data]` into head and
/// data, where `msg` is the inline bytes and `tail` the data piece
/// gathered behind them (the transport's own client puts all the data
/// there; a peer that inlines it is read the same). The sanitizer vetted
/// the static shape; what remains is the arithmetic against this
/// message's actual length, and the data against `max`.
fn split_msgp(
    hdr: &RdmaHeader,
    msg: &Bytes,
    tail: Option<Payload>,
    max: u64,
) -> Option<(Bytes, SgList)> {
    let (align, head_len) = hdr.msgp?;
    let (align, head_len) = (align as usize, head_len as usize);
    if head_len > msg.len() || align == 0 {
        return None;
    }
    let data_off = head_len + (align - head_len % align) % align;
    if data_off > msg.len() {
        return None;
    }
    let mut data = SgList::from(Payload::real(msg.slice(data_off..)));
    if let Some(tail) = tail {
        data.push(tail);
    }
    (data.len() <= max).then(|| (msg.slice(..head_len), data))
}

/// What arrived in the Send: the RPC call message and, for `RDMA_MSGP`,
/// the bulk data behind its padding — the alignment means it was placed
/// directly, no pull-up copy, no RDMA Read, and it reaches the service
/// as the piece the client sent. A padding that does not fit the
/// message, or data past [`RpcRdmaConfig::msgp_max`], is the last header
/// check; it drops the call before anything is queued or fetched for it.
fn split_inline(
    conn: &ConnState,
    hdr: &RdmaHeader,
    body: Bytes,
    tail: Option<Payload>,
) -> Option<(Bytes, Option<SgList>)> {
    if hdr.msg_type != MsgType::Msgp {
        return Some((body, None));
    }
    let max = conn.server.cfg.msgp_max();
    let Some((head, data)) = split_msgp(hdr, &body, tail, max) else {
        note_violation(conn, ProtocolViolation::BadMsgp);
        return None;
    };
    let stats = &conn.server.stats;
    stats.bulk_in.add(data.len());
    stats.msgp_recvs.inc();
    Some((head, Some(data)))
}

/// What the *fetch* lane hands to *land*: the scratch windows its RDMA
/// Reads filled, each with the bytes pulled, and the `pull_chunks` span
/// — open from the first provisioning step until the payload has
/// landed (closed at once when there was nothing to fetch).
struct Fetched {
    /// The long-call RPC message (position-0 read chunks).
    long_call: Option<(IoBuf, u64)>,
    /// The WRITE payload (the other read chunks).
    data: Option<(IoBuf, u64)>,
    _span: Option<sim_core::Span>,
}

/// *Fetch* lane: the HCA's share of a pull — provision scratch and
/// RDMA Read what did not arrive inline. Nothing here runs on the
/// service thread, which is why it need not wait for dispatch. `None` =
/// a Read failed (stale rkey, QP error, teardown): every scratch window
/// is already released.
async fn fetch_stage(conn: &ConnState, hdr: &RdmaHeader) -> Option<Fetched> {
    let span = conn.server.sim.span("server", "pull_chunks");
    let (long_call, data_chunks): (Vec<&ReadChunk>, Vec<&ReadChunk>) =
        hdr.read_chunks.iter().partition(|c| c.position == 0);
    let mut fetched = Fetched {
        long_call: None,
        data: None,
        _span: None,
    };
    if hdr.msg_type == MsgType::Nomsg && !long_call.is_empty() {
        fetched.long_call = Some(pull_chunks(conn, &long_call).await?);
    }
    if !data_chunks.is_empty() {
        fetched.data = pull_chunks(conn, &data_chunks).await;
        if fetched.data.is_none() {
            if let Some((io, _)) = fetched.long_call {
                conn.server.registrar.release(io).await;
            }
            return None;
        }
    }
    if fetched.long_call.is_some() || fetched.data.is_some() {
        fetched._span = Some(span);
    }
    Some(fetched)
}

/// *Land* stage: what the dispatched service thread does with the
/// fetched bytes — a CPU copy cannot start before the thread that
/// performs it has been handed the call. Returns the RPC call message
/// and the bulk payload.
async fn land_stage(
    server: &RdmaRpcServer,
    fetched: Fetched,
    mut call_msg: Bytes,
    mut bulk_in: Option<SgList>,
) -> (Bytes, Option<SgList>) {
    let (stats, cpu) = (&server.stats, server.hca.cpu());
    if let Some((io, total)) = fetched.long_call {
        call_msg = io.read(0, total).materialize();
        cpu.copy(total).await; // header remainder is decoded/copied
        server.registrar.release(io).await;
    }
    if let Some((io, total)) = fetched.data {
        if server.zero_copy() {
            // Receive-side scatter: each pulled chunk leaves the
            // window as its own refcounted piece and lands in the
            // file system (page-cache extents) as-is — no pull-up
            // copy, no flattening. Registration work is identical
            // to the staged path (the scratch window was still
            // acquired), only the host data movement disappears.
            bulk_in = Some(io.read_sg(0, total));
            stats.write_zero_copy_bytes.add(total);
        } else {
            // Data must move from the slab into the file system — the
            // Cache strategy's pre-registered bounce buffers are the
            // only path that still copies.
            bulk_in = Some(SgList::from(io.read(0, total)));
            cpu.copy(total).await;
            stats.copied_bytes.add(total);
        }
        stats.bulk_in.add(total);
        // Figure 4 points 8-9: server-side deregistration after the
        // file system is done with the data.
        server.registrar.release(io).await;
    }
    (call_msg, bulk_in)
}

/// Count and trace one DRC replay. The retained dispatch carries the
/// *original* execution's context: the `drc_replay` span flows from the
/// service span that first ran the call — on the failed primary for a
/// cross-epoch hit, stitching the epochs together.
fn note_replay(server: &RdmaRpcServer, call: &CallHeader, dispatch: &BulkDispatch) {
    server.stats.drc_replays.inc();
    let _s = server
        .sim
        .span_remote("server", "drc_replay", Some(call.proc_num), dispatch.trace);
}

/// *Service* stage, at-most-once: retransmitted calls (same peer + XID)
/// replay the original dispatch from the duplicate request cache;
/// duplicates of a call still executing are dropped (`None`). Only a
/// genuinely new call reaches the RPC program, under the `service` span.
async fn service_stage(
    conn: &ConnState,
    call_msg: Bytes,
    bulk_in: Option<SgList>,
) -> Option<(u32, BulkDispatch)> {
    let server = &conn.server;
    let Ok((call, args)) = decode_call(call_msg) else {
        // An RPC message that does not decode is the same class of
        // hostility as an undecodable transport header.
        note_violation(conn, ProtocolViolation::GarbageHeader);
        return None;
    };
    let (peer, xid) = (conn.peer(), call.xid);
    let epoch = server.service_epoch.get();
    // Cross-epoch fallback: after a promotion, a call the *failed*
    // primary already executed retransmits here with its original XID.
    // The replicated window carries those replies under the previous
    // epoch; replaying them keeps re-driven WRITEs exactly-once. Safe
    // to probe before admitting as new: clients allocate fresh XIDs
    // for re-driven writes, so an old-epoch hit is always a genuine
    // retransmission of an executed call.
    let prev_key = epoch
        .checked_sub(1)
        .map(|epoch| DrcKey { peer, xid, epoch });
    if let Some(dispatch) = prev_key.and_then(|key| server.drc.lookup_cached(key)) {
        server.stats.cross_epoch_replays.inc();
        server
            .sim
            .flight("server", "xepoch_replay", peer as u64, xid as u64);
        note_replay(server, &call, &dispatch);
        return Some((xid, dispatch));
    }
    let dispatch = match server.drc.begin(DrcKey { peer, xid, epoch }) {
        DrcOutcome::New(slot) => {
            let service = &server.service;
            let wildcard = service.program() == onc_rpc::PROG_WILDCARD;
            let served = call.prog == service.program() && call.vers == service.version();
            let dispatch = if wildcard || served {
                let _s = server.sim.span_proc("server", "service", call.proc_num);
                // The service sees the service span as its caller:
                // replication records it ships inherit the client's
                // trace id and flow from this span. The dispatch keeps
                // the context for later replays.
                let trace = server.sim.current_ctx();
                let (prog, vers) = (call.prog, call.vers);
                let cx = CallContext {
                    peer,
                    prog,
                    vers,
                    xid,
                    trace,
                };
                let mut dispatch = service.call(cx, call.proc_num, args, bulk_in).await;
                dispatch.trace = trace;
                dispatch
            } else {
                BulkDispatch::error(AcceptStat::ProgUnavail)
            };
            server.stats.ops.inc();
            note_good_op(conn);
            slot.fill(&dispatch);
            dispatch
        }
        DrcOutcome::Cached(dispatch) => {
            note_replay(server, &call, &dispatch);
            dispatch
        }
        DrcOutcome::InProgress => {
            // Dropped, as nfsd's RC_DROPIT: the original answers. Its
            // reply releases the client's chunks, so a second push — a
            // replay once the original finished — would write into
            // memory the client has taken back. Should that one reply
            // be lost, the next retransmission finds the cached entry.
            return None;
        }
    };
    Some((xid, dispatch))
}

/// *Push* stage: marshal the RPC reply and move what does not fit
/// inline (bulk results, long replies) the way the design says.
async fn push_stage(
    conn: &ConnState,
    hdr: &RdmaHeader,
    xid: u32,
    dispatch: &BulkDispatch,
) -> Outgoing {
    let stat = dispatch.stat;
    let mut out = Outgoing {
        rhdr: RdmaHeader::new(xid, conn.grant(), MsgType::Msg),
        reply: ReplyHeader { xid, stat },
        results: dispatch.head.clone(),
        held: Vec::new(),
    };
    match conn.server.cfg.design {
        Design::ReadWrite => push_by_write(conn, hdr, dispatch, &mut out).await,
        Design::ReadRead => push_by_exposure(&conn.server, dispatch, &mut out).await,
    }
    out
}

/// Read-Write push: RDMA Write bulk results into the client's write
/// chunk (the `rdma_write` span) and a long reply into its reply
/// chunk. Unsignaled — the reply Send is the ordering fence.
///
/// A result that outgrew the chunk the client provisioned for it — or a
/// long reply with no chunk to travel by — gets a (short, inline) error
/// reply instead of a stuck RPC or a result cut off at the last segment:
/// kernel RPC/RDMA returns RDMA_ERROR here. Checked before a window is
/// reserved or a Write posted for that chunk.
async fn push_by_write(
    conn: &ConnState,
    hdr: &RdmaHeader,
    dispatch: &BulkDispatch,
    out: &mut Outgoing,
) {
    let server = &conn.server;
    let room = |segs: &[Segment]| segs.iter().map(|s| s.len).sum::<u64>();
    let refuse = |out: &mut Outgoing| {
        out.reply.stat = AcceptStat::GarbageArgs;
        out.results = Bytes::new();
    };
    if let (Some(bulk), Some(segs)) = (&dispatch.bulk_out, hdr.write_chunks.first()) {
        if bulk.len() > room(segs) {
            server.stats.write_chunk_overflows.inc();
            return refuse(out);
        }
        let _s = server.sim.span("server", "rdma_write");
        let io = if server.zero_copy() {
            // Zero-copy pipeline: reserve a window over the source
            // pages (same TPT cost as staging) but gather the
            // file-system slices straight into vectored Writes — no
            // placement into scratch — provisioning the window as the
            // Writes go out, not ahead of them.
            let mut io = server
                .registrar
                .reserve_scratch(bulk.len(), Access::LOCAL)
                .await;
            write_sg_into_segments(conn, &mut io, bulk, segs).await;
            server.stats.zero_copy_bytes.add(bulk.len());
            io
        } else {
            let io = stage_source(server, bulk, Access::LOCAL).await;
            write_into_segments(conn, &io, bulk.len(), segs);
            io
        };
        out.rhdr.write_chunks.push(echo_actual(segs, bulk.len()));
        server.stats.bulk_out.add(bulk.len());
        out.held.push(io);
    }
    if out.reply_len() as u64 <= server.cfg.inline_threshold {
        return;
    }
    let reply_segs = match &hdr.reply_chunk {
        Some(segs) if out.reply_len() as u64 <= room(segs) => segs,
        provisioned => {
            if provisioned.is_some() {
                server.stats.reply_chunk_overflows.inc();
            }
            return refuse(out);
        }
    };
    let payload = SgList::from(out.reply_msg());
    let io = stage_source(server, &payload, Access::LOCAL).await;
    write_into_segments(conn, &io, payload.len(), reply_segs);
    out.rhdr.msg_type = MsgType::Nomsg;
    out.rhdr.reply_chunk = Some(echo_actual(reply_segs, payload.len()));
    out.held.push(io);
}

/// Read-Read push: stage bulk results (and a long reply, at position
/// 0) in remotely readable buffers and advertise them as read chunks;
/// the client pulls, then sends `RDMA_DONE`.
async fn push_by_exposure(server: &RdmaRpcServer, dispatch: &BulkDispatch, out: &mut Outgoing) {
    let reply_len = out.reply_len();
    let long_reply = (reply_len as u64 > server.cfg.inline_threshold).then(|| out.reply_msg());
    let mut expose = |io: &IoBuf, len: u64, position: u32| {
        for segment in io.segments(0, len, &server.hca) {
            out.rhdr.read_chunks.push(ReadChunk { position, segment });
        }
    };
    if let Some(bulk) = &dispatch.bulk_out {
        let io = stage_source(server, bulk, Access::REMOTE_READ).await;
        expose(&io, bulk.len(), reply_len as u32);
        server.stats.bulk_out.add(bulk.len());
        out.held.push(io);
    }
    if let Some(reply) = long_reply {
        let payload = SgList::from(reply);
        let io = stage_source(server, &payload, Access::REMOTE_READ).await;
        expose(&io, payload.len(), 0);
        out.rhdr.msg_type = MsgType::Nomsg;
        out.held.push(io);
    }
}

/// *Reply* stage: Send the reply header (and inline RPC message).
/// `Some` = a Send the op waited for completed: the proof that every
/// preceding RDMA Write has been placed (§4.2), and what makes
/// Read-Read buffers exposed.
async fn reply_stage(conn: &ConnState, out: &mut Outgoing) -> Option<()> {
    let server = &conn.server;
    let wire = conn.ep.encode_wire(&out.rhdr, |enc| {
        // A long reply travelled by chunk.
        if out.rhdr.msg_type != MsgType::Nomsg {
            out.reply.encode(enc);
            enc.put_opaque_fixed(&out.results);
        }
    });
    server.hca.cpu().copy(wire.len() as u64).await;

    let _s = server.sim.span("server", "reply_send");
    // The reply Send's completion is the deregistration point for what
    // the op holds (§4.2) — and for nothing else: a reply that holds no
    // buffer is posted unsignaled, and its handler ends here.
    let completion = if out.held.is_empty() {
        conn.ep.send(wire).ok()?;
        None
    } else {
        Some(conn.ep.send_signaled(wire)?)
    };
    completion?.await.ok().map(drop)
}

/// *Retire* stage: settle what the op held once the reply has left
/// (`sent`: its signaled Send completed, so it held something).
/// Read-Read buffers a completed Send advertised stay exposed until
/// `RDMA_DONE` or their deadline; everything else is released.
async fn retire_stage(conn: &ConnState, out: Outgoing, sent: bool) {
    let server = &conn.server;
    if server.cfg.design == Design::ReadRead && sent {
        let pending = &server.stats.exposures_pending;
        pending.set(pending.get() + out.held.len() as u64);
        let xid = out.rhdr.xid;
        // A replayed reply re-exposes fresh buffers under the same XID;
        // the originals' rkeys were advertised in a reply the client
        // never acted on.
        let old = conn.pending_exposures.borrow_mut().remove(&xid);
        let chunks = &out.rhdr.read_chunks;
        let bytes = chunks.iter().map(|c| c.segment.len).sum();
        let pull = (bytes, chunks.len() as u64);
        let floor = {
            let map = conn.pending_exposures.borrow();
            let pending = map.values().map(|e| e.pull).chain([pull]);
            pull_floor(server.hca.config(), pending)
        };
        let since = server.sim.now();
        let exposure = Exposure {
            since,
            deadline: overdue_at(since, floor, &conn.dones),
            pull,
            attempt: u32::from(old.is_some()),
            renewed: false,
            bufs: out.held,
        };
        conn.pending_exposures.borrow_mut().insert(xid, exposure);
        conn.reaper.borrow_mut().wake();
        if let Some(old) = old {
            retire_exposure(conn, old, Retire::Release).await;
        }
        return;
    }
    // Read-Write source windows — or a reply that never left (QP torn
    // down mid-call): nothing to expose.
    for io in out.held {
        server.registrar.release(io).await;
    }
}

/// Pull a set of read chunks into one scratch buffer, blocking until
/// every RDMA Read completes (§4.1's synchronous wait). Returns the
/// buffer and the bytes pulled.
async fn pull_chunks(conn: &ConnState, chunks: &[&ReadChunk]) -> Option<(IoBuf, u64)> {
    let registrar = &conn.server.registrar;
    let total: u64 = chunks.iter().map(|c| c.segment.len).sum();
    let io = registrar.acquire_scratch(total, Access::LOCAL).await;
    let segments = chunks.iter().map(|c| c.segment);
    if conn.ep.read_into(&io, segments).await {
        Some((io, total))
    } else {
        registrar.release(io).await;
        None
    }
}

/// Stage a bulk scatter/gather list into a DMA-able buffer. Non-cache
/// strategies reference the file-system pages directly (the pieces land
/// in the window without flattening); the cache strategy copies into
/// its pre-registered slab entry.
async fn stage_source(server: &RdmaRpcServer, data: &SgList, access: Access) -> IoBuf {
    let io = server.registrar.acquire_scratch(data.len(), access).await;
    let mut off = 0u64;
    for piece in data.pieces() {
        io.write(off, piece.clone());
        off += piece.len();
    }
    if server.registrar.is_staged() {
        server.hca.cpu().copy(data.len()).await;
        server.stats.copied_bytes.add(data.len());
    }
    io
}

/// Lay `len` bytes across `segs` in order: each segment that takes
/// bytes, with its offset into the transfer and its share.
fn spread(segs: &[Segment], len: u64) -> impl Iterator<Item = (&Segment, u64, u64)> {
    let mut off = 0u64;
    segs.iter().map_while(move |seg| {
        let (at, n) = (off, seg.len.min(len - off));
        off += n;
        (n > 0).then_some((seg, at, n))
    })
}

/// RDMA Write `len` bytes of `io` into the client's segments, in order.
/// Unsignaled: the following reply Send provides the ordering fence.
fn write_into_segments(conn: &ConnState, io: &IoBuf, len: u64, segs: &[Segment]) {
    let ep = &conn.ep;
    for (seg, off, n) in spread(segs, len) {
        let (data, wr) = (io.read(off, n), ep.alloc_wr());
        let posted = ep.qp.post_rdma_write(data, seg.addr, seg.rkey, wr, false);
        if posted.is_err() {
            return;
        }
    }
}

/// RDMA Write a scatter/gather list into the client's segments without
/// ever flattening it: within each remote segment the pieces ride as
/// the SG entries of one vectored WQE (split at the HCA's `max_send_sge`
/// limit). All-physical windows only hold the global steering tag,
/// which the HCA refuses for multi-entry local gathers (§4.3), so they
/// post one WQE per piece. Unsignaled either way: the reply Send is the
/// ordering fence.
///
/// The push is one loop, *provision → post a chain → next chain*: the
/// WQEs the window already covers go out as one WR chain behind one
/// doorbell, and when the next one — payload bytes `[a, b)` — is not
/// covered, the provisioned prefix `p ≥ a` is doubled, or taken to `b`
/// if that is further: through `max(b, 2p)`. So the wire starts after
/// one WQE's pages, no step pins more than the window already holds
/// (and the HCA mostly still has to send: pinning runs six times faster
/// than the link), and a push of `len` bytes is provisioned in at most
/// `⌈log₂(len / first WQE)⌉ + 1` steps. A window that was DMA-able as a
/// whole when reserved goes out as a single chain. No chain is ever
/// open across the provisioning await — other calls post on this QP.
async fn write_sg_into_segments(conn: &ConnState, io: &mut IoBuf, sgl: &SgList, segs: &[Segment]) {
    let (hca, qp) = (&conn.server.hca, &conn.ep.qp);
    let lkey = io.lkey(hca);
    let no_local_sg = hca.global_rkey() == Some(lkey);
    let max_sge = if no_local_sg {
        1
    } else {
        hca.config().max_send_sge.max(1)
    };
    let mut segs = spread(segs, sgl.len());
    // The remote segment being filled: its pieces, the next one to
    // post, where it lands, and its offset in the payload.
    let (mut pieces, mut next, mut addr, mut rkey, mut at) = (SgList::new(), 0, 0, lkey, 0);
    loop {
        let covered = io.provisioned();
        let uncovered: Result<_, VerbsError> = qp.chain(|| loop {
            if next == pieces.piece_count() {
                let Some((seg, off, n)) = segs.next() else {
                    return Ok(None);
                };
                pieces = sgl.slice(off, n);
                (next, addr, rkey, at) = (0, seg.addr, seg.rkey, off);
            }
            let group = &pieces.pieces()[next..pieces.piece_count().min(next + max_sge)];
            let end = at + group.iter().map(Payload::len).sum::<u64>();
            if end > covered {
                return Ok(Some(end.max(2 * covered)));
            }
            debug_assert!(end <= io.provisioned(), "WQE gathers past what is pinned");
            let wr = conn.ep.alloc_wr();
            if no_local_sg {
                qp.post_rdma_write(group[0].clone(), addr, rkey, wr, false)?;
            } else {
                let sge = |data: &Payload| Sge {
                    data: data.clone(),
                    lkey,
                };
                let sges = group.iter().map(sge).collect();
                qp.post_rdma_write_vec(sges, addr, rkey, wr, false)?;
            }
            (next, addr, at) = (next + group.len(), addr + (end - at), end);
        });
        match uncovered {
            Ok(Some(upto)) => conn.server.registrar.provision(io, upto).await,
            Ok(None) => break,
            // The QP is gone: nothing more is pinned, the reply Send
            // fails next and *retire* unpins what was pinned so far.
            Err(_) => return,
        }
    }
    // (An empty READ posts nothing and still owns a one-page window.)
    conn.server.registrar.provision(io, sgl.len()).await;
}

/// Echo a chunk's segments with the actual byte counts written, so the
/// client can size the result (paper §4: "the client uses this Write
/// chunk list to determine how much data was returned").
fn echo_actual(segs: &[Segment], len: u64) -> Vec<Segment> {
    // Every segment up to the one the last byte lands in (the first,
    // for an empty result).
    let used = segs
        .iter()
        .scan(0, |end, seg| {
            *end += seg.len;
            Some(*end)
        })
        .position(|end| end >= len)
        .map_or(segs.len(), |last| last + 1);
    let mut remaining = len;
    segs[..used]
        .iter()
        .map(|seg| {
            let n = seg.len.min(remaining);
            remaining -= n;
            Segment { len: n, ..*seg }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deadline arithmetic. With no `RDMA_DONE` timed, an exposure
    /// waits the pull floor of everything its connection has pending;
    /// once timed, the later of that floor and srtt + 4·rttvar; and the
    /// `RDMA_DONE` of an exposure a DRC replay made times nothing.
    #[test]
    fn an_exposure_waits_its_pull_floor_until_its_dones_are_timed() {
        let (hca, us) = (HcaConfig::sdr(), SimDuration::from_micros);
        let wire = |bytes| transfer_time(bytes, hca.link_bandwidth);
        let rtt = SimDuration::from_nanos(2_600);
        // 8 KiB in one Read: a 2-page sink (30 + 2·7 µs), one
        // turnaround (107 µs), the wire, a round trip.
        let one = pull_floor(&hca, [(8192, 1)].into_iter());
        assert_eq!(one, us(30 + 14 + 107) + wire(8192) + rtt);
        // Another pending 8 KiB in two Reads queues ahead of it.
        let two = pull_floor(&hca, [(8192, 2), (8192, 1)].into_iter());
        assert_eq!(two, us(2 * (30 + 14) + 3 * 107) + wire(16384) + rtt);

        let (dones, since) = (ReplyClock::default(), SimTime::from_nanos(1_000_000));
        assert_eq!(overdue_at(since, one, &dones), since + one);
        // One DONE after 100 µs: srtt 100, rttvar 50, so 300 µs.
        dones.sample(0, us(100));
        assert_eq!(overdue_at(since, one, &dones), since + us(300));
        assert_eq!(overdue_at(since, two, &dones), since + two);
        // A replay's exposure is attempt 1: its DONE moves nothing.
        dones.sample(u32::from(true), us(5_000));
        assert_eq!(overdue_at(since, one, &dones), since + us(300));
    }
}
