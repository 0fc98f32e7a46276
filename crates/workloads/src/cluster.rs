//! The replicated topology's server side ([`crate::Topology::Replicated`]):
//! primary and backup joined by the one-sided replication channel, a
//! heartbeat failure detector, and the chaos controls (primary kill,
//! backup promotion, crashed-node rejoin). The server nodes and the
//! cluster-aware client mounts are built by [`crate::testbed`], like
//! every other bed's.
//!
//! Topology (RDMA fabric node ids):
//!
//! ```text
//!   clients 1..=N ──► node 0 (primary A) ══ repl ring ══ node N+1 (backup B)
//!                         ▲                                   │
//!                         └────────── heartbeats ◄────────────┘
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ib_verbs::connect;
use nfs::cluster::{promote_backup, run_backup, BackupSession, ClusterMount};
use rpcrdma::{CtrlWriter, LogRing, RdmaRpcClient, Registrar, RpcRdmaConfig, Shipper};
use sim_core::{Sim, SimDuration, SimTime};

use crate::testbed::{Bed, ServerNode};

/// Open a replication channel from `primary` to `backup`: one QP pair,
/// the primary's shipper (installed as its outbound shipper), a
/// [`RING_BYTES`] log ring on the backup and the backup's consumer task.
/// The caller attaches the shipper to the ring.
async fn channel(
    sim: &Sim,
    primary: &ServerNode,
    backup: &ServerNode,
) -> (Rc<Shipper>, Rc<LogRing>, Rc<BackupSession>) {
    let (qp_p, qp_b) = connect(&primary.hca, &backup.hca);
    let shipper = Shipper::new(sim, &primary.hca, qp_p).await;
    let ring = LogRing::new(&backup.hca, RING_BYTES).await;
    let ctrl = CtrlWriter::new(qp_b, shipper.ctrl_target());
    *primary.shipper.borrow_mut() = Some(shipper.clone());
    let session = BackupSession::new();
    sim.spawn(run_backup(
        sim.clone(),
        ring.clone(),
        ctrl,
        backup.server.clone(),
        backup.rpc.clone(),
        backup.repl.clone(),
        session.clone(),
    ));
    (shipper, ring, session)
}

/// Backup log-ring size in bytes (the replication flow-control
/// window).
const RING_BYTES: u64 = 256 * 1024;

/// Heartbeat probe interval (backup → primary NULL RPCs); also each
/// probe's call timeout.
const HB_INTERVAL: SimDuration = SimDuration::from_micros(500);

/// Consecutive missed heartbeats before the backup promotes.
const HB_MISS_LIMIT: u32 = 3;

/// How the replicated topology joins its two nodes.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Install the replication machinery at all. `false` builds the
    /// same two-node topology but primary-only (the overhead baseline).
    pub replicate: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { replicate: true }
    }
}

/// The replicated topology's server side: both nodes, the cluster
/// identity clients resolve the primary through, and the failover
/// controls.
pub struct Cluster {
    /// Server nodes: `[primary, backup]`.
    pub nodes: Vec<Rc<ServerNode>>,
    /// Cluster identity (primary index, epoch, boot counter).
    pub mount: Rc<ClusterMount>,
    /// The current backup's log ring.
    pub ring: RefCell<Option<Rc<LogRing>>>,
    /// The current backup consumer session.
    pub session: RefCell<Option<Rc<BackupSession>>>,
    /// Set once the backup has promoted itself.
    pub promoted: Rc<Cell<bool>>,
    /// Virtual time of the primary kill, when one was injected.
    pub killed_at: Cell<Option<SimTime>>,
    /// Virtual time promotion completed.
    pub promoted_at: Rc<Cell<Option<SimTime>>>,
    /// Workload-over flag ([`crate::Testbed::stop`]): ends the
    /// heartbeat pacer so the simulation can quiesce (the executor runs
    /// to event-queue exhaustion).
    pub stop: Rc<Cell<bool>>,
}

impl Cluster {
    /// Join `nodes` (`[primary, backup]`) as `cfg` says: with
    /// replication on, the log-shipping channel, the backup's consumer
    /// and the heartbeat failure detector that promotes it.
    pub(crate) async fn wire(
        sim: &Sim,
        bed: &Bed,
        cfg: ClusterConfig,
        nodes: Vec<Rc<ServerNode>>,
    ) -> Cluster {
        let cluster = Cluster {
            mount: ClusterMount::new(2),
            ring: RefCell::new(None),
            session: RefCell::new(None),
            promoted: Rc::new(Cell::new(false)),
            killed_at: Cell::new(None),
            promoted_at: Rc::new(Cell::new(None)),
            stop: Rc::new(Cell::new(false)),
            nodes,
        };
        if !cfg.replicate {
            return cluster;
        }
        let (primary, backup) = (&cluster.nodes[0], &cluster.nodes[1]);
        primary.server.set_replicator(primary.repl.clone());
        backup.server.set_replicator(backup.repl.clone());

        // The replication channel: one QP pair; the primary deposits
        // records into the backup's ring, the backup writes credit/ack
        // counters back into the primary's control block — both
        // one-sided, so no part of the protocol is ULP-droppable.
        let (shipper, ring, session) = channel(sim, primary, backup).await;
        shipper.attach(ring.target());
        primary.repl.set_shipper(Some(shipper));

        // Heartbeats: the backup probes the primary with NULL RPCs on
        // a dedicated connection with no retransmission budget — a
        // dead primary turns into fast consecutive failures.
        let (hb_qc, _) = primary.accept(&backup.hca);
        let hb_cfg = RpcRdmaConfig {
            max_retransmits: 0,
            call_timeout: HB_INTERVAL,
            ..bed.profile.rpc
        };
        let hb = RdmaRpcClient::new(
            sim,
            &backup.hca,
            hb_qc,
            Registrar::new(&backup.hca, bed.client_strategy),
            hb_cfg,
            nfs::NFS_PROGRAM,
            nfs::NFS_VERSION,
        );
        let sim2 = sim.clone();
        let (mount, backup) = (cluster.mount.clone(), backup.clone());
        let (ring2, session2) = (ring.clone(), session.clone());
        let (promoted, promoted_at) = (cluster.promoted.clone(), cluster.promoted_at.clone());
        let stop = cluster.stop.clone();
        sim.spawn(async move {
            let mut misses = 0u32;
            loop {
                if promoted.get() || stop.get() {
                    break;
                }
                sim2.sleep(HB_INTERVAL).await;
                let alive = hb
                    .call(0, bytes::Bytes::new(), rpcrdma::BulkParams::default())
                    .await
                    .is_ok();
                if alive {
                    misses = 0;
                    continue;
                }
                misses += 1;
                sim2.flight("cluster", "hb_miss", misses as u64, HB_MISS_LIMIT as u64);
                if misses < HB_MISS_LIMIT {
                    continue;
                }
                promote_backup(
                    &mount,
                    1,
                    &ring2,
                    &session2,
                    &backup.server,
                    &backup.rpc,
                    &backup.repl,
                )
                .await;
                promoted.set(true);
                promoted_at.set(Some(sim2.now()));
                let (epoch, applied) = (mount.epoch() as u64, session2.applied.get());
                sim2.flight("cluster", "promoted", epoch, applied);
                break;
            }
        });
        *cluster.ring.borrow_mut() = Some(ring);
        *cluster.session.borrow_mut() = Some(session);
        cluster
    }

    /// Fail the primary: mark it dead in the mount, fence the protocol
    /// engine, error every server-side QP (clients and heartbeats see
    /// a dead node), and poison the shipper so in-flight replication
    /// waits abort instead of hanging.
    pub fn kill_primary(&self, sim: &Sim) {
        let p = self.mount.primary();
        let node = &self.nodes[p];
        sim.flight("cluster", "kill_primary", p as u64, node.repl.log_len());
        self.mount.kill(p);
        node.server.set_dead(true);
        for qp in node.qps.borrow().iter() {
            qp.force_error();
        }
        if let Some(s) = node.shipper.borrow().as_ref() {
            s.poison();
        }
        self.killed_at.set(Some(sim.now()));
    }

    /// Restart the crashed node `idx` and rejoin it as backup of the
    /// current primary: truncate its WAL to the cluster-durable prefix
    /// and replay it, then have the primary re-ship the missing log
    /// tail into a fresh ring (bounded catch-up, metered as
    /// `fs.wal.resync_bytes`).
    pub async fn rejoin(&self, sim: &Sim, idx: usize) {
        let joiner = self.nodes[idx].clone();
        let primary = self.nodes[self.mount.primary()].clone();
        assert!(self.mount.primary() != idx, "cannot rejoin the primary");

        // Local restart: keep only the WAL prefix the cluster
        // acknowledged; everything later is re-shipped below.
        let durable = joiner.repl.durable_seq();
        let keep = joiner.repl.marker_wal_cut(durable);
        if let Some(d) = &joiner.disk {
            d.store().rejoin_restart(keep).await;
        }
        joiner.repl.truncate_log(durable);
        joiner.repl.set_shipper(None);
        *joiner.shipper.borrow_mut() = None;
        joiner.server.server_reboot();
        joiner.server.set_dead(false);
        joiner.server.install_boot_verf(self.mount.bump_boot());
        joiner.rpc.set_service_epoch(self.mount.epoch());
        joiner.repl.set_epoch(self.mount.epoch());
        sim.flight("cluster", "rejoin", idx as u64, durable);

        // Fresh replication channel, reversed: current primary ships.
        let (shipper, ring, session) = channel(sim, &primary, &joiner).await;
        self.mount.revive(idx);

        // Catch-up: the primary re-ships its log past the joiner's
        // truncated prefix, then stays attached for live replication.
        let from = joiner.repl.log_len();
        let bytes = primary
            .repl
            .resync_attach(shipper, ring.target(), from)
            .await
            .unwrap_or(0);
        if let Some(d) = &joiner.disk {
            if let Some(wal) = d.store().wal() {
                wal.note_resync(bytes);
            }
        }
        *self.ring.borrow_mut() = Some(ring);
        *self.session.borrow_mut() = Some(session);
        sim.flight("cluster", "resynced", bytes, from);
    }
}
