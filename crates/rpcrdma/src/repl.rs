//! One-sided replication channel: a flow-controlled log ring the
//! primary deposits WAL records into with RDMA Writes, plus the
//! backup's credit/ack return path — also an RDMA Write.
//!
//! Following "The Impact of RDMA on Agreement", *no* replication
//! control traffic uses two-sided Sends: the data records, the commit
//! markers (in-ring records), and the backup's cumulative
//! drained/acked counters are all one-sided writes into pre-registered
//! memory. That buys two properties the chaos harness leans on:
//!
//! 1. RDMA Writes ride the link-level reliable path (`send_reliable`),
//!    so injected ULP drops — which can eat Sends — can never lose a
//!    credit return or a commit acknowledgement;
//! 2. fencing the deposed primary is a *memory permission flip*
//!    ([`LogRing::revoke`]), not a consensus round: the instant the
//!    ring registration is gone, a stale primary's next deposit fails
//!    its TPT check and errors its QP.
//!
//! Layering: this module moves bytes and sequence acknowledgements;
//! record framing, apply logic and promotion policy live with the NFS
//! cluster layer.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ib_verbs::{Access, Buffer, Hca, Mr, Qp, WrId};
use sim_core::stats::Counter;
use sim_core::sync::{channel, Notify, Receiver, Semaphore, Sender};
use sim_core::{Payload, Sim};

/// Address/len notification for an accepted ring deposit. A sentinel
/// with `addr == u64::MAX` is injected locally at promotion to mark
/// the end of the replicated prefix.
pub type RingEvent = (u64, u64);

/// Sentinel address marking the end of the ring event stream.
pub const RING_SENTINEL: u64 = u64::MAX;

/// Where the primary deposits records: the backup ring's exposure.
#[derive(Clone, Copy, Debug)]
pub struct RingTarget {
    /// Base virtual address of the ring region.
    pub addr: u64,
    /// Steering tag exposing it for remote write.
    pub rkey: ib_verbs::Rkey,
    /// Ring capacity in bytes.
    pub size: u64,
}

/// Where the backup writes its cumulative counters: the primary's
/// control block exposure.
#[derive(Clone, Copy, Debug)]
pub struct CtrlTarget {
    /// Base virtual address of the control block.
    pub addr: u64,
    /// Steering tag exposing it for remote write.
    pub rkey: ib_verbs::Rkey,
}

/// Why a ship or an ack wait gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplError {
    /// No backup attached (standalone primary, or mid-failover).
    Detached,
    /// The replication QP errored (peer killed, ring revoked).
    Channel,
}

/// Control-block wire format: two big-endian u64 counters, both
/// cumulative and monotonic so a later write subsumes a lost earlier
/// snapshot — idempotent by construction.
pub const CTRL_BYTES: u64 = 16;

fn encode_ctrl(drained: u64, acked_seq: u64) -> Payload {
    let mut b = Vec::with_capacity(CTRL_BYTES as usize);
    b.extend_from_slice(&drained.to_be_bytes());
    b.extend_from_slice(&acked_seq.to_be_bytes());
    Payload::real(bytes::Bytes::from(b))
}

fn decode_ctrl(p: &Payload) -> (u64, u64) {
    let b = p.materialize();
    if b.len() < CTRL_BYTES as usize {
        return (0, 0);
    }
    let mut d = [0u8; 8];
    d.copy_from_slice(&b[0..8]);
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[8..16]);
    (u64::from_be_bytes(d), u64::from_be_bytes(a))
}

// ---------------------------------------------------------------------
// Backup side: the ring itself + the counter writer.
// ---------------------------------------------------------------------

/// The backup-owned log ring: a registered, remotely writable region
/// whose placements are observed through an [`Hca::watch_writes`]
/// subscription (a zero-cost model of the backup CPU polling its own
/// memory for one-sided arrivals).
pub struct LogRing {
    hca: Hca,
    buf: Buffer,
    mr: RefCell<Option<Mr>>,
    base: u64,
    size: u64,
    rkey: ib_verbs::Rkey,
    events: RefCell<Option<Receiver<RingEvent>>>,
    sentinel_tx: Sender<RingEvent>,
    /// Consumer cursor (ring offset of the next expected record).
    pos: Cell<u64>,
    /// Cumulative bytes consumed, *including* pad-skipped tail bytes.
    drained: Cell<u64>,
}

impl LogRing {
    /// Allocate and expose a `size`-byte ring on `hca`.
    pub async fn new(hca: &Hca, size: u64) -> Rc<LogRing> {
        let buf = hca.mem().alloc(size);
        let mr = hca.register(&buf, 0, size, Access::REMOTE_WRITE).await;
        let (tx, rx) = channel();
        hca.watch_writes(mr.rkey(), tx.clone());
        Rc::new(LogRing {
            hca: hca.clone(),
            base: mr.addr(),
            size,
            rkey: mr.rkey(),
            buf,
            mr: RefCell::new(Some(mr)),
            events: RefCell::new(Some(rx)),
            sentinel_tx: tx,
            pos: Cell::new(0),
            drained: Cell::new(0),
        })
    }

    /// The exposure handed to the primary.
    pub fn target(&self) -> RingTarget {
        RingTarget {
            addr: self.base,
            rkey: self.rkey,
            size: self.size,
        }
    }

    /// Take the placement event stream (once; the consumer owns it).
    pub fn take_events(&self) -> Receiver<RingEvent> {
        self.events
            .borrow_mut()
            .take()
            .expect("ring events already taken")
    }

    /// Inject the promotion sentinel: the consumer drains every record
    /// placed before this point, then stops.
    pub fn push_sentinel(&self) {
        let _ = self.sentinel_tx.send((RING_SENTINEL, 0));
    }

    /// Permission flip fencing the deposed primary: revoke the ring
    /// registration. Any in-flight or later deposit from the old
    /// primary fails its TPT check and errors the stale QP — no ack
    /// round needed (cf. "The Impact of RDMA on Agreement").
    pub async fn revoke(&self) {
        self.hca.unwatch_writes(self.rkey);
        let mr = self.mr.borrow_mut().take();
        if let Some(mr) = mr {
            mr.revoke().await;
        }
    }

    /// Consume one placement event: account pad-skips between the
    /// cursor and the record start, advance the cursor, and hand back
    /// the record bytes.
    pub fn consume(&self, addr: u64, len: u64) -> Payload {
        let off = addr - self.base;
        debug_assert!(off + len <= self.size, "ring placement out of bounds");
        let mut skipped = 0;
        if off != self.pos.get() {
            // The producer pad-skipped the tail to keep the record
            // contiguous; charge the skip so both sides agree on
            // cumulative byte positions.
            debug_assert_eq!(off, 0, "non-wrap discontinuity in ring stream");
            skipped = self.size - self.pos.get();
        }
        self.drained.set(self.drained.get() + skipped + len);
        self.pos.set((off + len) % self.size);
        self.buf.read(off, len)
    }

    /// Cumulative consumed bytes (the credit counter to publish).
    pub fn drained(&self) -> u64 {
        self.drained.get()
    }
}

/// Backup-side writer of the cumulative (drained, acked) counters into
/// the primary's control block. One-sided, serialized, completion-
/// awaited so at most one snapshot is in flight.
pub struct CtrlWriter {
    qp: Qp,
    target: CtrlTarget,
    lock: Semaphore,
    wr: Cell<u64>,
}

impl CtrlWriter {
    /// A writer publishing through `qp` into `target`.
    pub fn new(qp: Qp, target: CtrlTarget) -> Rc<CtrlWriter> {
        Rc::new(CtrlWriter {
            qp,
            target,
            lock: Semaphore::new(1),
            wr: Cell::new(0),
        })
    }

    /// Publish a counter snapshot. Errors are swallowed: a dead
    /// primary no longer needs credits.
    pub async fn publish(&self, drained: u64, acked_seq: u64) {
        let _g = self.lock.acquire().await;
        let wr = self.wr.get();
        self.wr.set(wr + 1);
        if self
            .qp
            .post_rdma_write(
                encode_ctrl(drained, acked_seq),
                self.target.addr,
                self.target.rkey,
                WrId(wr),
                true,
            )
            .is_err()
        {
            return;
        }
        let _ = self.qp.send_cq().next().await;
    }
}

// ---------------------------------------------------------------------
// Primary side: the shipper.
// ---------------------------------------------------------------------

/// Primary-side record shipper: owns the ring head cursor, the byte
/// credits, and the control block the backup writes its counters into.
pub struct Shipper {
    qp: Qp,
    ring: Cell<Option<RingTarget>>,
    /// Ring offset of the next deposit.
    head: Cell<u64>,
    /// Available ring credits, in bytes. Replenished by the backup's
    /// cumulative drained counter; a deposit larger than the remaining
    /// credits waits — backpressure, never overrun, never drop.
    credits: Cell<u64>,
    credit_notify: Notify,
    /// Highest record sequence the backup has acknowledged durable.
    acked: Cell<u64>,
    ack_notify: Notify,
    /// Serializes deposits so ring positions match ship order.
    lock: Semaphore,
    /// Set when the channel is known dead (primary killed / fenced):
    /// blocked ships and ack waits return [`ReplError::Channel`].
    poisoned: Cell<bool>,
    /// Control block the backup writes into (kept alive + registered).
    _ctrl_buf: Buffer,
    _ctrl_mr: Mr,
    ctrl_target: CtrlTarget,
    wr: Cell<u64>,
    last_drained: Cell<u64>,
    /// `repl.shipped_records`: records deposited into the remote ring.
    shipped_records: Rc<Counter>,
    /// `repl.shipped_bytes`: record bytes deposited (excluding pad
    /// skips).
    shipped_bytes: Rc<Counter>,
    /// `repl.skipped_bytes`: tail bytes pad-skipped at ring wrap.
    skipped_bytes: Rc<Counter>,
    /// `repl.blocked`: times a deposit had to wait for ring credits
    /// (backpressure).
    blocked: Rc<Counter>,
    /// `repl.node{N}.credit_returns`: credit-return snapshots observed
    /// from the backup, per shipping node (the failover timeline reads
    /// the serving node's).
    credit_returns: Rc<Counter>,
}

impl Shipper {
    /// Build a shipper whose deposits go out on `qp`. Registers the
    /// primary-side control block on `hca` and starts the feeder task
    /// that turns the backup's counter writes into credits and acks.
    pub async fn new(sim: &Sim, hca: &Hca, qp: Qp) -> Rc<Shipper> {
        let ctrl_buf = hca.mem().alloc(CTRL_BYTES);
        let ctrl_mr = hca
            .register(&ctrl_buf, 0, CTRL_BYTES, Access::REMOTE_WRITE)
            .await;
        let (tx, rx) = channel();
        hca.watch_writes(ctrl_mr.rkey(), tx);
        let registry = sim.metrics();
        let shipper = Rc::new(Shipper {
            qp,
            ring: Cell::new(None),
            head: Cell::new(0),
            credits: Cell::new(0),
            credit_notify: Notify::new(),
            acked: Cell::new(0),
            ack_notify: Notify::new(),
            lock: Semaphore::new(1),
            poisoned: Cell::new(false),
            ctrl_target: CtrlTarget {
                addr: ctrl_mr.addr(),
                rkey: ctrl_mr.rkey(),
            },
            _ctrl_buf: ctrl_buf.clone(),
            _ctrl_mr: ctrl_mr,
            wr: Cell::new(0),
            last_drained: Cell::new(0),
            shipped_records: registry.counter("repl.shipped_records"),
            shipped_bytes: registry.counter("repl.shipped_bytes"),
            skipped_bytes: registry.counter("repl.skipped_bytes"),
            blocked: registry.counter("repl.blocked"),
            credit_returns: registry.counter(&format!("repl.node{}.credit_returns", hca.node().0)),
        });
        sim.spawn(Shipper::feeder(shipper.clone(), ctrl_buf, rx));
        shipper
    }

    /// Feeder: every control-block placement re-reads the cumulative
    /// counters and converts deltas into credits/acks.
    async fn feeder(self: Rc<Shipper>, buf: Buffer, mut rx: Receiver<RingEvent>) {
        while rx.recv().await.is_ok() {
            let (drained, acked_seq) = decode_ctrl(&buf.read(0, CTRL_BYTES));
            self.credit_returns.inc();
            let last = self.last_drained.get();
            if drained > last {
                self.last_drained.set(drained);
                self.credits.set(self.credits.get() + (drained - last));
                self.credit_notify.notify_all();
            }
            if acked_seq > self.acked.get() {
                self.acked.set(acked_seq);
                self.ack_notify.notify_all();
            }
        }
    }

    /// The control-block exposure the backup publishes counters into.
    pub fn ctrl_target(&self) -> CtrlTarget {
        self.ctrl_target
    }

    /// Attach a backup ring: full credits, fresh head. Cumulative
    /// counters continue (re-attach after rejoin keeps them aligned:
    /// the rejoined backup's ring starts empty, and its drained counter
    /// restarts with it).
    pub fn attach(&self, ring: RingTarget) {
        self.ring.set(Some(ring));
        self.head.set(0);
        self.credits.set(ring.size);
        self.last_drained.set(0);
        self.poisoned.set(false);
    }

    /// Mark the channel dead and wake every waiter with an error.
    pub fn poison(&self) {
        self.poisoned.set(true);
        self.credit_notify.notify_all();
        self.ack_notify.notify_all();
    }

    /// Highest backup-acknowledged record sequence.
    pub fn acked_seq(&self) -> u64 {
        self.acked.get()
    }

    /// Deposit one framed record into the remote ring: waits for byte
    /// credits (backpressure), pad-skips the tail on wrap, one RDMA
    /// Write. The post is *unsignaled* and not awaited: the RC channel
    /// delivers deposits in order, so a later marker acknowledgement
    /// (via the control block) subsumes placement of everything before
    /// it — per-record completion waits would serialize a full
    /// requester round trip into every UNSTABLE WRITE's latency for a
    /// guarantee only commit markers need. A deposit that dies on a
    /// revoked ring errors the QP, so the next post (or an explicit
    /// [`Shipper::poison`]) surfaces the fencing.
    pub async fn ship(&self, record: Payload) -> Result<(), ReplError> {
        let _g = self.lock.acquire().await;
        let Some(ring) = self.ring.get() else {
            return Err(ReplError::Detached);
        };
        let len = record.len();
        // Half-ring bound: a wrapping deposit charges `skip + len`
        // credits and `skip < len` (a skip only happens when the
        // record doesn't fit the tail), so `len <= size/2` guarantees
        // the charge stays below the ring's total credit supply —
        // i.e. backpressure always resolves, never deadlocks.
        assert!(
            len <= ring.size / 2,
            "replication record ({len}B) exceeds half the ring ({}B) — \
             a wrap could charge more credits than the ring holds",
            ring.size
        );
        // Pad-skip: records stay contiguous; the skipped tail bytes
        // are charged as credits and the consumer accounts them on the
        // far side, so cumulative positions agree.
        let head = self.head.get();
        let skip = if head + len > ring.size {
            ring.size - head
        } else {
            0
        };
        let need = skip + len;
        while self.credits.get() < need {
            if self.poisoned.get() {
                return Err(ReplError::Channel);
            }
            self.blocked.inc();
            self.credit_notify.notified().await;
        }
        if self.poisoned.get() {
            return Err(ReplError::Channel);
        }
        self.credits.set(self.credits.get() - need);
        let off = if skip > 0 { 0 } else { head };
        self.head.set((off + len) % ring.size);
        let wr = self.wr.get();
        self.wr.set(wr + 1);
        if self
            .qp
            .post_rdma_write(record, ring.addr + off, ring.rkey, WrId(wr), false)
            .is_err()
        {
            self.poison();
            return Err(ReplError::Channel);
        }
        self.shipped_records.inc();
        self.shipped_bytes.add(len);
        self.skipped_bytes.add(skip);
        Ok(())
    }

    /// Wait until the backup has acknowledged record `seq` durable.
    pub async fn wait_acked(&self, seq: u64) -> Result<(), ReplError> {
        while self.acked.get() < seq {
            if self.poisoned.get() {
                return Err(ReplError::Channel);
            }
            if self.ring.get().is_none() {
                return Err(ReplError::Detached);
            }
            self.ack_notify.notified().await;
        }
        Ok(())
    }
}
