//! Primary/backup replication for the NFS server.
//!
//! The cluster layer ties the one-sided replication channel
//! ([`rpcrdma::repl`]) to the NFS protocol engine:
//!
//! * [`ReplRecord`] — the unit shipped through the backup's log ring:
//!   one successful mutating NFS call (procedure, arguments, the bulk
//!   WRITE payload, and the primary's reply head for DRC mirroring).
//! * [`Replicator`] — the primary-side sequencer. Every record is
//!   appended to an in-memory replicated log and RDMA-written into the
//!   backup's ring *before* the client sees the reply; commit markers
//!   (`needs_ack`) additionally wait for the backup's cumulative ack
//!   counter, so COMMIT only returns once the marker is durable on
//!   both nodes.
//! * [`run_backup`] — the backup-side consumer: applies each record
//!   through the backup's own [`NfsServer`], mirrors the primary's
//!   reply into the duplicate request cache (so a retransmission that
//!   lands *after* failover replays instead of re-executing), and
//!   publishes flow-control credits and acks back into the primary's
//!   control block — also one-sided, so no message of the protocol can
//!   be dropped by an overloaded ULP.
//! * [`ClusterMount`] — the client-visible cluster identity: which
//!   node is primary, the service epoch, and the boot counter that
//!   keeps RFC 1813 write verifiers strictly monotonic across
//!   promotions.
//! * [`promote_backup`] — the promotion sequence: fence the deposed
//!   primary by revoking the ring registration (a permission flip, no
//!   ack round), drain the replicated prefix, group-commit it, then
//!   take over the service identity under a fresh epoch and verifier.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use rpcrdma::{LogRing, RdmaRpcServer, ReplError, RingTarget, Shipper, RING_SENTINEL};
use sim_core::sync::{Notify, SemPermit, Semaphore};
use sim_core::{Counter, Payload, Sim, TraceCtx};

use crate::proto::NfsProc;
use crate::server::{NfsServer, WRITE_VERF_BASE};

/// Fixed wire header of a [`ReplRecord`]: seq (8) + six u32 fields +
/// bulk length (8).
const RECORD_HDR: u64 = 8 + 6 * 4 + 8;

/// The tracer key a record's [`TraceCtx`] rides under, out of band like
/// an RPC call's: the record's bytes, and so the modeled deposit time,
/// are the same with tracing on or off. Bit 63 keeps the key apart from
/// the RPC legs' `(client_node << 32) | xid`.
fn trace_key(seq: u64) -> u64 {
    1 << 63 | seq
}

/// One replicated mutation, exactly as the primary executed it.
#[derive(Clone)]
pub struct ReplRecord {
    /// 1-based position in the replicated log.
    pub seq: u64,
    /// NFS procedure number.
    pub proc_num: u32,
    /// Calling client (fabric node id) — DRC key part.
    pub peer: u32,
    /// Transaction id of the call — DRC key part.
    pub xid: u32,
    /// Service epoch the call executed under — DRC key part.
    pub epoch: u32,
    /// Commit marker: the primary waits for the backup's ack before
    /// releasing the reply.
    pub needs_ack: bool,
    /// The record is a WRITE (carries bulk data).
    pub is_write: bool,
    /// XDR-encoded call arguments (bulk excluded).
    pub args: Bytes,
    /// The primary's reply head, mirrored into the backup's DRC.
    pub reply_head: Bytes,
    /// WRITE data (content-preserving, possibly synthetic).
    pub bulk: Option<Payload>,
    /// Trace context of the primary's service span
    /// ([`TraceCtx::NONE`] when span tracing was off): the backup's
    /// apply span joins the client's causal tree through it. Not part
    /// of the encoding — it travels under `trace_key`.
    pub trace: TraceCtx,
}

impl ReplRecord {
    /// Serialize into one contiguous payload for the ring deposit. The
    /// bulk piece rides as-is (no flattening of synthetic content).
    pub fn encode(&self) -> Payload {
        let bulk_len = self.bulk.as_ref().map_or(0, Payload::len);
        let mut flags = 0u32;
        if self.needs_ack {
            flags |= 1;
        }
        if self.is_write {
            flags |= 2;
        }
        let mut h =
            Vec::with_capacity(RECORD_HDR as usize + self.args.len() + self.reply_head.len());
        h.extend_from_slice(&self.seq.to_be_bytes());
        h.extend_from_slice(&self.proc_num.to_be_bytes());
        h.extend_from_slice(&self.peer.to_be_bytes());
        h.extend_from_slice(&self.xid.to_be_bytes());
        h.extend_from_slice(&self.epoch.to_be_bytes());
        h.extend_from_slice(&flags.to_be_bytes());
        h.extend_from_slice(&(self.args.len() as u32).to_be_bytes());
        h.extend_from_slice(&bulk_len.to_be_bytes());
        h.extend_from_slice(&self.args);
        h.extend_from_slice(&self.reply_head);
        let head = Payload::real(Bytes::from(h));
        match &self.bulk {
            Some(b) => Payload::concat(&[head, b.clone()]),
            None => head,
        }
    }

    /// Decode a ring deposit produced by [`ReplRecord::encode`], with an
    /// empty trace context (the consumer adopts the real one).
    pub fn decode(p: &Payload) -> ReplRecord {
        let hdr = p.slice(0, RECORD_HDR).materialize();
        let u64_at = |i: usize| u64::from_be_bytes(hdr[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_be_bytes(hdr[i..i + 4].try_into().unwrap());
        let seq = u64_at(0);
        let proc_num = u32_at(8);
        let peer = u32_at(12);
        let xid = u32_at(16);
        let epoch = u32_at(20);
        let flags = u32_at(24);
        let args_len = u32_at(28) as u64;
        let bulk_len = u64_at(32);
        let args = p.slice(RECORD_HDR, args_len).materialize();
        let reply_len = p.len() - RECORD_HDR - args_len - bulk_len;
        let reply_head = p.slice(RECORD_HDR + args_len, reply_len).materialize();
        let bulk = (bulk_len > 0).then(|| p.slice(RECORD_HDR + args_len + reply_len, bulk_len));
        ReplRecord {
            seq,
            proc_num,
            peer,
            xid,
            epoch,
            needs_ack: flags & 1 != 0,
            is_write: flags & 2 != 0,
            args,
            reply_head,
            bulk,
            trace: TraceCtx::NONE,
        }
    }
}

/// One entry of the replicated log kept on both nodes.
struct LogEntry {
    /// The encoded record, re-shippable verbatim during rejoin resync.
    bytes: Payload,
    /// Local-WAL committed-record count snapshot at this marker (0 for
    /// non-markers): the rejoin truncation point.
    wal_cut: u64,
    /// The record's trace context, re-stashed when a resync re-ships it.
    trace: TraceCtx,
}

/// Primary-side sequencer of the replicated log.
///
/// Detached (no [`Shipper`]) it runs in logging-only mode: records are
/// appended so a later rejoining backup can be caught up, and local
/// durability counts as cluster durability (there is no backup to
/// wait for). This is the mode a freshly promoted primary runs in
/// until the crashed node rejoins.
pub struct Replicator {
    sim: Sim,
    shipper: RefCell<Option<Rc<Shipper>>>,
    /// Serializes sequence assignment + ring deposit so ring order is
    /// log order; markers additionally hold it across their local
    /// group commit (see [`Replicator::begin_marker`]).
    lock: Semaphore,
    log: RefCell<Vec<LogEntry>>,
    /// Highest seq known durable on *both* nodes. Advances only after
    /// a marker's backup ack (or immediately, when logging-only).
    durable: Cell<u64>,
    epoch: Cell<u32>,
    /// Snapshot of the local WAL's committed-record count, taken at
    /// marker append time (inside the lock, after the group commit).
    wal_cut: RefCell<Option<Box<dyn Fn() -> u64>>>,
    // The `repl.*` series, shared by both nodes' replicators (the
    // wire-side ones are the [`Shipper`]'s).
    /// Records appended to the replicated log.
    logged: Rc<Counter>,
    /// Commit markers whose backup ack was awaited successfully.
    acked_markers: Rc<Counter>,
    /// Commit markers caught by a kill between the local group commit
    /// (flush + local marker) and the backup's acknowledgement — the
    /// "flush-to-marker" window of the chaos matrix.
    interrupted_markers: Rc<Counter>,
    /// Records re-shipped during a rejoin catch-up.
    resync_records: Rc<Counter>,
}

impl Replicator {
    /// A detached (logging-only) replicator at epoch 0.
    pub fn new(sim: &Sim) -> Rc<Replicator> {
        let registry = sim.metrics();
        Rc::new(Replicator {
            sim: sim.clone(),
            shipper: RefCell::new(None),
            lock: Semaphore::new(1),
            log: RefCell::new(Vec::new()),
            durable: Cell::new(0),
            epoch: Cell::new(0),
            wal_cut: RefCell::new(None),
            logged: registry.counter("repl.logged"),
            acked_markers: registry.counter("repl.acked_markers"),
            interrupted_markers: registry.counter("repl.interrupted_markers"),
            resync_records: registry.counter("repl.resync_records"),
        })
    }

    /// Install (or clear) the shipping channel to the backup.
    pub fn set_shipper(&self, s: Option<Rc<Shipper>>) {
        *self.shipper.borrow_mut() = s;
    }

    /// Install the local-WAL committed-record counter used to stamp
    /// markers with their rejoin truncation point.
    pub fn set_wal_cut(&self, f: impl Fn() -> u64 + 'static) {
        *self.wal_cut.borrow_mut() = Some(Box::new(f));
    }

    /// Service epoch stamped on new records.
    pub fn epoch(&self) -> u32 {
        self.epoch.get()
    }

    /// Adopt a new service epoch (promotion).
    pub fn set_epoch(&self, e: u32) {
        self.epoch.set(e);
    }

    /// Records in the replicated log.
    pub fn log_len(&self) -> u64 {
        self.log.borrow().len() as u64
    }

    /// Highest cluster-durable sequence number.
    pub fn durable_seq(&self) -> u64 {
        self.durable.get()
    }

    /// Raise the cluster-durable watermark (never lowers it).
    pub fn set_durable(&self, seq: u64) {
        if seq > self.durable.get() {
            self.durable.set(seq);
        }
    }

    /// The local-WAL committed-record count recorded at the marker
    /// closing the durable prefix `0..seq` — how many WAL records a
    /// rejoining node may trust from its own log.
    pub fn marker_wal_cut(&self, seq: u64) -> u64 {
        if seq == 0 {
            return 0;
        }
        self.log.borrow()[seq as usize - 1].wal_cut
    }

    /// Drop every record past `seq` (rejoin: anything beyond the
    /// cluster-durable prefix died with this node and will be
    /// re-shipped by the new primary).
    pub fn truncate_log(&self, seq: u64) {
        self.log.borrow_mut().truncate(seq as usize);
    }

    /// Acquire the sequencing lock *before* a marker's local group
    /// commit. Holding it across `fs.commit()` guarantees that every
    /// record sequenced before the marker has its WAL appends inside
    /// the marker's committed set — the invariant `marker_wal_cut`
    /// truncation relies on.
    pub async fn begin_marker(&self) -> SemPermit {
        self.lock.acquire().await
    }

    /// Sequence, log, and ship one record; for markers, wait for the
    /// backup's ack before returning (the caller is holding the reply).
    #[allow(clippy::too_many_arguments)]
    pub async fn replicate(
        &self,
        permit: Option<SemPermit>,
        proc_num: u32,
        peer: u32,
        xid: u32,
        args: Bytes,
        reply_head: Bytes,
        bulk: Option<Payload>,
        needs_ack: bool,
        trace: TraceCtx,
    ) {
        let permit = match permit {
            Some(p) => p,
            None => self.lock.acquire().await,
        };
        let seq = self.log.borrow().len() as u64 + 1;
        let rec = ReplRecord {
            seq,
            proc_num,
            peer,
            xid,
            epoch: self.epoch.get(),
            needs_ack,
            is_write: proc_num == NfsProc::Write as u32,
            args,
            reply_head,
            bulk,
            trace,
        };
        let bytes = rec.encode();
        let wal_cut = if needs_ack {
            self.wal_cut.borrow().as_ref().map_or(0, |f| f())
        } else {
            0
        };
        self.log.borrow_mut().push(LogEntry {
            bytes: bytes.clone(),
            wal_cut,
            trace,
        });
        self.logged.inc();
        let shipper = self.shipper.borrow().clone();
        let shipped = match &shipper {
            Some(s) => {
                self.sim.trace_inject(trace_key(seq), trace);
                s.ship(bytes).await.is_ok()
            }
            None => false,
        };
        drop(permit);
        if needs_ack {
            match &shipper {
                Some(s) if shipped => {
                    if s.wait_acked(seq).await.is_ok() {
                        self.set_durable(seq);
                        self.acked_markers.inc();
                    } else {
                        // A poisoned/fenced channel: this node has been
                        // deposed mid-marker; the reply will die on its
                        // errored QP.
                        self.interrupted_markers.inc();
                    }
                }
                Some(_) => {
                    // The deposit itself died (kill landed even
                    // earlier in the window).
                    self.interrupted_markers.inc();
                }
                None => {
                    // Logging-only: local durability is cluster
                    // durability until a backup rejoins.
                    self.set_durable(seq);
                }
            }
        }
    }

    /// Mirror one applied record into this (backup) node's own log so
    /// a later promotion inherits the full replicated history.
    pub fn append_mirror(&self, rec: &ReplRecord, bytes: Payload) {
        let expect = self.log.borrow().len() as u64 + 1;
        assert_eq!(rec.seq, expect, "replicated log gap at seq {}", rec.seq);
        let wal_cut = if rec.needs_ack {
            self.wal_cut.borrow().as_ref().map_or(0, |f| f())
        } else {
            0
        };
        self.log.borrow_mut().push(LogEntry {
            bytes,
            wal_cut,
            trace: rec.trace,
        });
        self.logged.inc();
    }

    /// Rejoin catch-up: install `shipper`, attach `ring` (the restarted
    /// node's fresh log ring), and re-ship every record past `from_seq`
    /// verbatim — all under the sequencing lock, so live mutations
    /// queue behind the resync and ring order stays log order. Returns
    /// the bytes re-shipped.
    pub async fn resync_attach(
        &self,
        shipper: Rc<Shipper>,
        ring: RingTarget,
        from_seq: u64,
    ) -> Result<u64, ReplError> {
        let _permit = self.lock.acquire().await;
        shipper.attach(ring);
        *self.shipper.borrow_mut() = Some(shipper.clone());
        let suffix: Vec<(Payload, TraceCtx)> = self.log.borrow()[from_seq as usize..]
            .iter()
            .map(|e| (e.bytes.clone(), e.trace))
            .collect();
        let mut bytes = 0;
        for (seq, (p, trace)) in (from_seq + 1..).zip(suffix) {
            bytes += p.len();
            self.sim.trace_inject(trace_key(seq), trace);
            shipper.ship(p).await?;
            self.resync_records.inc();
        }
        Ok(bytes)
    }
}

/// Progress/exit state of a backup consumer task.
pub struct BackupSession {
    /// Count of records applied so far (equals the replicated log
    /// length once the consumer has drained).
    pub applied: Cell<u64>,
    finished: Cell<bool>,
    notify: Notify,
}

impl BackupSession {
    /// A fresh session (nothing applied, consumer running).
    pub fn new() -> Rc<BackupSession> {
        Rc::new(BackupSession {
            applied: Cell::new(0),
            finished: Cell::new(false),
            notify: Notify::new(),
        })
    }

    /// Wait until the consumer has drained the ring and exited (it
    /// stops at the promotion sentinel).
    pub async fn drained(&self) {
        while !self.finished.get() {
            self.notify.notified().await;
        }
    }

    /// Wait until at least `want` records have been applied — lets a
    /// steady-state observer catch the tail of backgrounded applies
    /// without tearing the consumer down.
    pub async fn caught_up(&self, want: u64) {
        while self.applied.get() < want {
            self.notify.notified().await;
        }
    }
}

/// The backup consumer loop: apply each ring deposit through the
/// backup's own NFS server, mirror the primary's reply into the DRC,
/// and publish credits/acks one-sidedly into the primary's control
/// block. Exits at the promotion sentinel.
///
/// Plain UNSTABLE WRITE records apply *concurrently* (each is spawned;
/// the consumer keeps draining the ring): a client's own records are
/// inherently serial — it never has two calls in flight — so the only
/// ordering that matters is against structural ops (CREATE/REMOVE/…)
/// and commit markers, both of which barrier on every outstanding
/// apply before running. Without this the single consumer would apply
/// one record per CPU-copy while the primary serves clients across all
/// its cores, and every marker would pay the accumulated lag.
#[allow(clippy::too_many_arguments)]
pub async fn run_backup(
    sim: Sim,
    ring: Rc<LogRing>,
    ctrl: Rc<rpcrdma::CtrlWriter>,
    server: Rc<NfsServer>,
    rpc: Rc<RdmaRpcServer>,
    repl: Rc<Replicator>,
    session: Rc<BackupSession>,
) {
    let mut rx = ring.take_events();
    let credit_batch = ring.target().size / 4;
    let mut last_pub = 0u64;
    let mut acked = 0u64;
    let outstanding = Rc::new(Cell::new(0u64));
    let flushing = Rc::new(Cell::new(0u64));
    let idle = Rc::new(Notify::new());
    while let Ok((addr, len)) = rx.recv().await {
        if addr == RING_SENTINEL {
            sim.flight("backup", "sentinel", ring.drained(), acked);
            break;
        }
        let p = ring.consume(addr, len);
        let mut rec = ReplRecord::decode(&p);
        rec.trace = sim.trace_adopt(trace_key(rec.seq));
        let marker = rec.needs_ack;
        if rec.is_write && !marker {
            // Mirror in consume order (the log must match the
            // primary's sequence), then background the apply.
            repl.append_mirror(&rec, p);
            let server = server.clone();
            let rpc = rpc.clone();
            let session = session.clone();
            let outstanding = outstanding.clone();
            let idle = idle.clone();
            let sim = sim.clone();
            outstanding.set(outstanding.get() + 1);
            sim.clone().spawn(async move {
                let _apply = sim.span_remote("backup", "apply", Some(rec.proc_num), rec.trace);
                server.apply_replicated(&rec).await;
                rpc.import_reply(
                    rec.peer,
                    rec.xid,
                    rec.epoch,
                    rec.reply_head.clone(),
                    rec.trace,
                );
                session.applied.set(session.applied.get() + 1);
                session.notify.notify_all();
                outstanding.set(outstanding.get() - 1);
                if outstanding.get() == 0 {
                    idle.notify_all();
                }
            });
        } else {
            // Structural ops and commit markers order against
            // everything: drain the in-flight applies first.
            while outstanding.get() > 0 {
                idle.notified().await;
            }
            if marker {
                // Ack once the whole prefix is applied in memory and
                // mirrored into the backup's log: a WAL record held on
                // a second failure domain *is* the durability point —
                // that is what the RDMA ship buys. The backup's own
                // media flush (the marker's group commit) runs in the
                // background. It is tracked separately from
                // `outstanding`: group commits compose (a later flush
                // drains whatever an earlier one left), so neither the
                // next marker nor structural ops need to wait on it —
                // only the final drain does.
                rpc.import_reply(
                    rec.peer,
                    rec.xid,
                    rec.epoch,
                    rec.reply_head.clone(),
                    rec.trace,
                );
                repl.append_mirror(&rec, p);
                repl.set_durable(rec.seq);
                acked = rec.seq;
                sim.flight("backup", "marker", rec.seq, rec.xid as u64);
                let server = server.clone();
                let session = session.clone();
                let flushing = flushing.clone();
                let idle = idle.clone();
                let sim = sim.clone();
                flushing.set(flushing.get() + 1);
                sim.clone().spawn(async move {
                    let _apply = sim.span_remote("backup", "apply", Some(rec.proc_num), rec.trace);
                    server.apply_replicated(&rec).await;
                    session.applied.set(session.applied.get() + 1);
                    session.notify.notify_all();
                    flushing.set(flushing.get() - 1);
                    if flushing.get() == 0 {
                        idle.notify_all();
                    }
                });
            } else {
                let apply = sim.span_remote("backup", "apply", Some(rec.proc_num), rec.trace);
                server.apply_replicated(&rec).await;
                drop(apply);
                rpc.import_reply(
                    rec.peer,
                    rec.xid,
                    rec.epoch,
                    rec.reply_head.clone(),
                    rec.trace,
                );
                repl.append_mirror(&rec, p);
                session.applied.set(session.applied.get() + 1);
                session.notify.notify_all();
            }
        }
        // Publish on markers, every quarter-ring of drained bytes, or
        // whenever the event stream goes idle: withheld credits on an
        // idle backup could starve a wrap-blocked shipper forever.
        let drained = ring.drained();
        if marker || drained - last_pub >= credit_batch || rx.is_empty() {
            ctrl.publish(drained, acked).await;
            last_pub = drained;
        }
    }
    // Drain stragglers (in-flight applies and background marker
    // flushes) so promotion sees a fully applied prefix, then flush
    // the counters so a credit-blocked primary never deadlocks on an
    // exiting consumer.
    while outstanding.get() > 0 || flushing.get() > 0 {
        idle.notified().await;
    }
    ctrl.publish(ring.drained(), acked).await;
    session.finished.set(true);
    session.notify.notify_all();
}

/// Client-visible cluster identity: which node serves, under which
/// epoch and boot-instance (write-verifier) counter.
pub struct ClusterMount {
    n_nodes: usize,
    primary: Cell<usize>,
    epoch: Cell<u32>,
    /// Boot-instance counter; verifiers are `WRITE_VERF_BASE + boot`,
    /// strictly monotonic across promotions and rejoins so no two
    /// service incarnations ever share a verifier.
    boot: Cell<u64>,
    killed: RefCell<Vec<bool>>,
    changed: Notify,
}

impl ClusterMount {
    /// A cluster of `n_nodes` servers; node 0 starts as primary. Boot
    /// count 1 matches [`NfsServer::new`]'s initial verifier.
    pub fn new(n_nodes: usize) -> Rc<ClusterMount> {
        Rc::new(ClusterMount {
            n_nodes,
            primary: Cell::new(0),
            epoch: Cell::new(0),
            boot: Cell::new(1),
            killed: RefCell::new(vec![false; n_nodes]),
            changed: Notify::new(),
        })
    }

    /// Number of server nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Index of the current primary.
    pub fn primary(&self) -> usize {
        self.primary.get()
    }

    /// Current service epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.get()
    }

    /// Mark `idx` failed.
    pub fn kill(&self, idx: usize) {
        self.killed.borrow_mut()[idx] = true;
        self.changed.notify_all();
    }

    /// Mark `idx` alive again (rejoin).
    pub fn revive(&self, idx: usize) {
        self.killed.borrow_mut()[idx] = false;
        self.changed.notify_all();
    }

    /// Resolve the serving primary, parking while the recorded primary
    /// is dead — the gate cluster-aware client connectors wait on
    /// until promotion completes.
    pub async fn wait_primary(&self) -> usize {
        loop {
            let p = self.primary.get();
            if !self.killed.borrow()[p] {
                return p;
            }
            self.changed.notified().await;
        }
    }

    /// Install `new_primary` under a fresh epoch; returns the epoch
    /// and the new boot-instance write verifier.
    pub fn promote(&self, new_primary: usize) -> (u32, u64) {
        self.epoch.set(self.epoch.get() + 1);
        self.boot.set(self.boot.get() + 1);
        self.primary.set(new_primary);
        self.changed.notify_all();
        (self.epoch.get(), WRITE_VERF_BASE + self.boot.get())
    }

    /// Burn a boot instance for a rejoining node's reboot, keeping the
    /// verifier space strictly monotonic cluster-wide.
    pub fn bump_boot(&self) -> u64 {
        self.boot.set(self.boot.get() + 1);
        WRITE_VERF_BASE + self.boot.get()
    }
}

/// Promote the backup at `idx` to primary:
///
/// 1. revoke the log ring registration — the deposed primary's next
///    deposit fails its TPT check and errors the stale QP (fencing by
///    permission flip; no ack round with a dead node);
/// 2. drain: apply every record placed before the fence;
/// 3. group-commit the replayed prefix (promotion durability point);
/// 4. adopt the service identity: fresh epoch in the DRC key space,
///    fresh boot-instance write verifier, detached (logging-only)
///    replicator.
pub async fn promote_backup(
    mount: &Rc<ClusterMount>,
    idx: usize,
    ring: &LogRing,
    session: &BackupSession,
    server: &Rc<NfsServer>,
    rpc: &RdmaRpcServer,
    repl: &Replicator,
) {
    ring.revoke().await;
    ring.push_sentinel();
    session.drained().await;
    server.force_commit().await;
    repl.set_durable(repl.log_len());
    repl.set_shipper(None);
    let (epoch, verf) = mount.promote(idx);
    server.install_boot_verf(verf);
    rpc.set_service_epoch(epoch);
    repl.set_epoch(epoch);
}
