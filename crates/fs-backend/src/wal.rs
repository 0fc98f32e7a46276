//! Log-structured write-ahead log with group commit.
//!
//! The WAL sits beside the page cache in the disk back end: UNSTABLE
//! WRITE data is appended to a volatile tail (no disk time), and a
//! COMMIT triggers a *group commit* — one sequential burst that flushes
//! every pending record followed by a commit marker. Because the log
//! device is written strictly sequentially, small synchronous commits
//! avoid the seek + page-granularity write-back cost that makes
//! fsync-heavy workloads collapse on the plain cached store.
//!
//! Every record lives in one log, indexed by its log sequence number
//! (LSN), and four watermarks say how far each step has reached:
//! `committed_to <= durable_to, marked_to <= taken_to <= log.len()`.
//! Records past `taken_to` are the volatile tail; a flush takes them
//! and moves `durable_to` when its transfer lands; a commit marker
//! queued behind them moves `marked_to`, and `committed_to` when it
//! lands. Only a landed marker makes records survive a power failure:
//! flushed records without one are truncated at recovery, so
//! committed data survives and uncommitted data is *cleanly* lost
//! (never torn). Replay is idempotent: records are applied in LSN
//! order, so replaying a prefix twice converges to the same contents.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sim_core::sync::Notify;
use sim_core::{Counter, Payload, Sim, SimDuration};

use crate::disk::Disk;
use crate::vfs::FileId;

/// One logged write.
#[derive(Clone)]
pub struct WalRecord {
    /// Target file.
    pub file: FileId,
    /// Byte offset within the file.
    pub off: u64,
    /// The data (reference-counted; appending copies nothing).
    pub data: Payload,
}

/// Flush the volatile tail once it holds this many bytes (framing
/// included): a throughput-oriented group commit. Only a COMMIT
/// flushes it sooner.
const FLUSH_WATERMARK_BYTES: u64 = 1 << 20;

/// Per-record on-log framing overhead.
const RECORD_HEADER_BYTES: u64 = 32;

/// Size of the commit marker append.
const COMMIT_MARKER_BYTES: u64 = 512;

/// The write-ahead log. One per store; owns its own (sequential) log
/// device so data traffic on the array never forces a log seek.
pub struct Wal {
    disk: Disk,
    /// Bumped by every power failure; in-flight flush/commit awaits
    /// re-check it and abandon their batch if it moved.
    epoch: Cell<u64>,
    /// Log-device append cursor.
    head_addr: Cell<u64>,
    /// Every record, indexed by LSN. A power failure truncates it to
    /// `committed_to`, a rejoin cut to the replicated prefix.
    log: RefCell<Vec<WalRecord>>,
    /// Framed bytes of the volatile tail (`taken_to..`).
    tail_bytes: Cell<u64>,
    // The watermarks, LSNs that only grow between power failures:
    // `committed_to <= durable_to, marked_to <= taken_to <= log.len()`.
    /// Taken from the tail by a flush.
    taken_to: Cell<u64>,
    /// On the log device: the flush that took them has landed.
    durable_to: Cell<u64>,
    /// Covered by the newest queued commit marker.
    marked_to: Cell<u64>,
    /// Behind a landed commit marker: survives power failure.
    committed_to: Cell<u64>,
    /// Notified each time a commit marker lands.
    marker_landed: Notify,
    // The `fs.wal.*` series, shared by every log of a simulation.
    /// Records appended to the volatile tail.
    appends: Rc<Counter>,
    /// Data bytes appended.
    appended_bytes: Rc<Counter>,
    /// Tail flushes to the log device.
    flushes: Rc<Counter>,
    /// Bytes written to the log device by flushes (with framing).
    flushed_bytes: Rc<Counter>,
    /// Group commits (marker appended, batch made durable).
    commits: Rc<Counter>,
    /// Records covered by commit markers.
    committed_records: Rc<Counter>,
    /// Records dropped by power failure (volatile tail plus
    /// flushed-but-unmarked records truncated at recovery).
    truncated_records: Rc<Counter>,
    /// Records replayed by recovery.
    replayed_records: Rc<Counter>,
    /// Data bytes replayed by recovery.
    replayed_bytes: Rc<Counter>,
    /// Committed records discarded at cluster rejoin because the new
    /// primary's replicated log does not contain them (the node died
    /// after committing locally but before the backup acknowledged).
    rejoin_truncated_records: Rc<Counter>,
    /// Bytes re-shipped by the primary during rejoin catch-up (the
    /// bounded WAL-tail resync, as opposed to a full cold start).
    resync_bytes: Rc<Counter>,
}

impl Wal {
    /// A WAL over its own dedicated 30 MB/s log disk.
    pub fn new(sim: &Sim) -> Rc<Wal> {
        let disk = Disk::new(sim, "wal-log", 30_000_000, SimDuration::from_millis(4));
        let registry = sim.metrics();
        let series = |name: &str| registry.counter(&format!("fs.wal.{name}"));
        Rc::new(Wal {
            disk,
            epoch: Cell::new(0),
            head_addr: Cell::new(0),
            log: RefCell::new(Vec::new()),
            tail_bytes: Cell::new(0),
            taken_to: Cell::new(0),
            durable_to: Cell::new(0),
            marked_to: Cell::new(0),
            committed_to: Cell::new(0),
            marker_landed: Notify::new(),
            appends: series("appends"),
            appended_bytes: series("appended_bytes"),
            flushes: series("flushes"),
            flushed_bytes: series("flushed_bytes"),
            commits: series("commits"),
            committed_records: series("committed_records"),
            truncated_records: series("truncated_records"),
            replayed_records: series("replayed_records"),
            replayed_bytes: series("replayed_bytes"),
            rejoin_truncated_records: series("rejoin_truncated_records"),
            resync_bytes: series("resync_bytes"),
        })
    }

    fn framed(data_len: u64) -> u64 {
        RECORD_HEADER_BYTES + data_len
    }

    /// Records in the volatile tail.
    pub fn tail_records(&self) -> u64 {
        self.log.borrow().len() as u64 - self.taken_to.get()
    }

    /// Records on the log device awaiting a marker.
    pub fn flushed_records(&self) -> u64 {
        self.durable_to.get() - self.committed_to.get()
    }

    /// Records behind a commit marker (what recovery will replay): the
    /// committed LSN.
    pub fn committed_records(&self) -> u64 {
        self.committed_to.get()
    }

    /// Append one write to the volatile tail. Costs no disk time
    /// unless the tail reaches the watermark and flushes.
    pub async fn append(&self, file: FileId, off: u64, data: Payload) {
        let n = data.len();
        self.log.borrow_mut().push(WalRecord { file, off, data });
        self.tail_bytes.set(self.tail_bytes.get() + Wal::framed(n));
        self.appends.inc();
        self.appended_bytes.add(n);
        if self.tail_bytes.get() >= FLUSH_WATERMARK_BYTES {
            self.flush().await;
        }
    }

    /// Flush the volatile tail to the log device (durable but
    /// uncommitted until a marker follows).
    pub async fn flush(&self) {
        let epoch = self.epoch.get();
        let (from, to) = (self.taken_to.get(), self.log.borrow().len() as u64);
        if from == to {
            return;
        }
        let bytes = self.tail_bytes.replace(0);
        self.taken_to.set(to);
        let addr = self.head_addr.get();
        self.head_addr.set(addr + bytes);
        self.disk.transfer_at(addr, bytes).await;
        if self.epoch.get() != epoch {
            // Power failed while the burst was in flight: the batch
            // never became durable.
            self.truncated_records.add(to - from);
            return;
        }
        self.flushes.inc();
        self.flushed_bytes.add(bytes);
        self.durable_to.set(to);
    }

    /// Group commit: flush the tail, then append the commit marker.
    /// Only once the marker is durable does the whole pending batch —
    /// every file's records, in LSN order — become committed. A batch
    /// another flush has in flight is pending too: the marker queues
    /// behind its transfer on the FIFO log disk, and the batch is
    /// flushed by the time the marker lands. A commit with nothing
    /// pending is free, and one whose batch a marker already queued
    /// covers waits for that marker instead of writing its own.
    pub async fn commit(&self) {
        let epoch = self.epoch.get();
        self.flush().await;
        let upto = self.taken_to.get();
        if self.epoch.get() != epoch || upto == self.committed_to.get() {
            return;
        }
        if upto <= self.marked_to.get() {
            while self.committed_to.get() < upto && self.epoch.get() == epoch {
                self.marker_landed.notified().await;
            }
            return;
        }
        self.marked_to.set(upto);
        let addr = self.head_addr.get();
        self.head_addr.set(addr + COMMIT_MARKER_BYTES);
        self.disk.transfer_at(addr, COMMIT_MARKER_BYTES).await;
        self.marker_landed.notify_all();
        if self.epoch.get() != epoch {
            // Marker never landed: the batch stays uncommitted and
            // recovery will truncate it.
            return;
        }
        // The log disk is FIFO: every flush queued before the marker,
        // so every record up to `upto`, has landed.
        self.commits.inc();
        self.committed_records.add(upto - self.committed_to.get());
        self.committed_to.set(upto);
    }

    /// Power failure: the log loses everything past `committed_to` —
    /// the volatile tail, and flushed records without a marker behind
    /// them (recovery stops at the last commit marker). In-flight
    /// flushes and commits notice the epoch change and abandon their
    /// batches.
    pub fn power_fail(&self) {
        self.epoch.set(self.epoch.get() + 1);
        // An in-flight flush counts its own batch when it sees the epoch.
        self.truncated_records
            .add(self.tail_records() + self.flushed_records());
        self.cut_to(self.committed_to.get());
    }

    /// Truncate the log to `lsn` records, every watermark with it.
    fn cut_to(&self, lsn: u64) {
        self.log.borrow_mut().truncate(lsn as usize);
        self.tail_bytes.set(0);
        for mark in [&self.taken_to, &self.durable_to, &self.marked_to] {
            mark.set(lsn);
        }
        self.committed_to.set(lsn);
    }

    /// `file` was truncated to `size`: its records, anywhere in the
    /// log, lose their bytes at or past `size`, so recovery cannot
    /// replay them. Each record keeps its LSN (one wholly past the cut
    /// becomes empty), so record counts stay aligned with the
    /// replicated log that [`Wal::truncate_committed_to`] cuts to.
    pub fn truncate_file(&self, file: FileId, size: u64) {
        let tail = self.taken_to.get() as usize;
        for (lsn, r) in self.log.borrow_mut().iter_mut().enumerate() {
            let keep = size.saturating_sub(r.off).min(r.data.len());
            if r.file != file || keep == r.data.len() {
                continue;
            }
            if lsn >= tail {
                self.tail_bytes
                    .set(self.tail_bytes.get() + keep - r.data.len());
            }
            r.data = r.data.slice(0, keep);
        }
    }

    /// Cluster rejoin, step 1, on a node that crashed: the power
    /// failure's losses, then the committed records past `keep_records`,
    /// the replicated prefix the new primary acknowledged. A primary
    /// that died between its local group commit and the backup's ack
    /// holds committed records the rest of the cluster never saw;
    /// rejoining as a backup means adopting the survivor's history, so
    /// the divergent tail is truncated before replay (the real-system
    /// analogue: the rejoin handshake compares the LSNs stored in the
    /// commit markers).
    pub fn truncate_committed_to(&self, keep_records: u64) {
        self.power_fail();
        let committed = self.committed_to.get();
        if keep_records < committed {
            self.rejoin_truncated_records.add(committed - keep_records);
            self.cut_to(keep_records);
        }
    }

    /// Cluster rejoin, step 2 accounting: `bytes` of log records were
    /// re-shipped by the primary to catch this node's WAL tail up
    /// (bounded catch-up instead of a cold start).
    pub fn note_resync(&self, bytes: u64) {
        self.resync_bytes.add(bytes);
    }

    /// Recovery replay: scan the log sequentially (charged as one
    /// sequential read) and return every committed record in LSN
    /// order. Applying them in order is idempotent — replaying any
    /// prefix again converges to the same contents.
    pub async fn recover(&self) -> Vec<WalRecord> {
        let records = self.log.borrow()[..self.committed_to.get() as usize].to_vec();
        let bytes: u64 = records.iter().map(|r| Wal::framed(r.data.len())).sum();
        if bytes > 0 {
            self.disk.transfer(bytes).await;
        }
        self.replayed_records.add(records.len() as u64);
        self.replayed_bytes
            .add(records.iter().map(|r| r.data.len()).sum());
        records
    }
}
