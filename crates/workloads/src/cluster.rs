//! Two-node replicated NFS testbed: primary + backup joined by the
//! one-sided replication channel, N clients with cluster-aware
//! reconnection, a heartbeat failure detector, and chaos controls
//! (primary kill, backup promotion, crashed-node rejoin).
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

use fs_backend::{CachedDiskStore, Fs, Vfs};
use ib_verbs::{connect, Fabric, Hca, HostMem, NodeId, Qp};
use nfs::cluster::{promote_backup, run_backup, BackupSession, ClusterMount, Replicator};
use nfs::{NfsClient, NfsServer, NfsServerHandle};
use rpcrdma::{
    CtrlWriter, LogRing, RdmaRpcClient, RdmaRpcServer, Registrar, RpcRdmaConfig, Shipper,
    StrategyKind,
};
use sim_core::{Cpu, Sim, SimDuration, SimTime};

use crate::profiles::Profile;
use crate::testbed::{build_fs_for, Backend, ClientHost};

/// One server node of the cluster.
pub struct ServerNode {
    /// Position in [`ClusterTestbed::nodes`] (0 = initial primary).
    pub idx: usize,
    /// Fabric node id.
    pub node: NodeId,
    /// Node CPU.
    pub cpu: Cpu,
    /// Node HCA.
    pub hca: Hca,
    /// The NFS protocol engine.
    pub server: Rc<NfsServer>,
    /// The RPC/RDMA engine.
    pub rpc: Rc<RdmaRpcServer>,
    /// The replicated-log sequencer.
    pub repl: Rc<Replicator>,
    /// Direct VFS access.
    pub fs: Rc<dyn Vfs>,
    /// Disk-backed store (WAL scenarios).
    pub disk: Option<Rc<Fs<CachedDiskStore>>>,
    /// Server-side QP halves (errored wholesale on kill).
    pub qps: RefCell<Vec<Qp>>,
    /// Outbound replication shipper while this node is primary.
    pub shipper: RefCell<Option<Rc<Shipper>>>,
}

/// Knobs of the replication/failover machinery.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Backup log-ring size in bytes (flow-control window).
    pub ring_bytes: u64,
    /// Heartbeat probe interval (backup → primary NULL RPCs).
    pub hb_interval: SimDuration,
    /// Consecutive missed heartbeats before the backup promotes.
    pub hb_miss_limit: u32,
    /// Install the replication machinery at all. `false` builds the
    /// same two-node topology but primary-only (the overhead baseline
    /// and the default single-server-equivalent configuration).
    pub replicate: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            ring_bytes: 256 * 1024,
            hb_interval: SimDuration::from_micros(1000),
            hb_miss_limit: 3,
            replicate: true,
        }
    }
}

/// The assembled replicated testbed.
pub struct ClusterTestbed {
    /// Client hosts, in id order.
    pub clients: Vec<ClientHost>,
    /// Server nodes: `[primary, backup]`.
    pub nodes: Vec<Rc<ServerNode>>,
    /// Cluster identity (primary index, epoch, boot counter).
    pub mount: Rc<ClusterMount>,
    /// The fabric.
    pub fabric: Fabric<ib_verbs::WireMsg>,
    /// The current backup's log ring.
    pub ring: RefCell<Option<Rc<LogRing>>>,
    /// The current backup consumer session.
    pub session: RefCell<Option<Rc<BackupSession>>>,
    /// Set once the backup has promoted itself.
    pub promoted: Rc<Cell<bool>>,
    /// Virtual time of the primary kill, when one was injected.
    pub killed_at: Rc<Cell<Option<SimTime>>>,
    /// Virtual time promotion completed.
    pub promoted_at: Rc<Cell<Option<SimTime>>>,
    /// Bytes re-shipped during the last rejoin catch-up.
    pub resync_bytes: Rc<Cell<u64>>,
    /// Workload-over flag: stops the heartbeat/chaos pacer tasks so
    /// the simulation can quiesce (the executor runs to event-queue
    /// exhaustion).
    pub stop: Rc<Cell<bool>>,
    /// Cluster knobs the testbed was built with.
    pub cfg: ClusterConfig,
}

fn build_server_node(
    sim: &Sim,
    profile: &Profile,
    fabric: &Fabric<ib_verbs::WireMsg>,
    idx: usize,
    node: NodeId,
    backend: Backend,
) -> Rc<ServerNode> {
    let cpu = Cpu::new(
        sim,
        format!("server{idx}-cpu"),
        profile.server_cores,
        profile.server_cpu,
    );
    let mem = Rc::new(HostMem::new(node, profile.phys, sim.fork_rng()));
    let hca = Hca::new(sim, node, profile.hca, cpu.clone(), mem, fabric);
    let (fs, disk) = build_fs_for(sim, backend);
    let server = NfsServer::new(fs.clone());
    let rpc = RdmaRpcServer::new(
        sim,
        &hca,
        Rc::new(NfsServerHandle(server.clone())),
        Registrar::new(&hca, StrategyKind::Cache),
        profile.rpc,
    );
    let repl = Replicator::new(sim);
    if let Some(d) = &disk {
        if let Some(wal) = d.store().wal() {
            let wal = wal.clone();
            repl.set_wal_cut(move || wal.committed_records());
        }
    }
    Rc::new(ServerNode {
        idx,
        node,
        cpu,
        hca,
        server,
        rpc,
        repl,
        fs,
        disk,
        qps: RefCell::new(Vec::new()),
        shipper: RefCell::new(None),
    })
}

/// Build the replicated testbed: primary at node 0, clients at
/// `1..=n_clients`, backup at node `n_clients + 1`.
pub async fn build_cluster(
    sim: &Sim,
    profile: &Profile,
    rpc_cfg: RpcRdmaConfig,
    strategy: StrategyKind,
    backend: Backend,
    n_clients: usize,
    ccfg: ClusterConfig,
) -> ClusterTestbed {
    let fabric = Fabric::new(sim);
    let mount = ClusterMount::new(2);

    let primary = build_server_node(sim, profile, &fabric, 0, NodeId(0), backend);
    let backup = build_server_node(
        sim,
        profile,
        &fabric,
        1,
        NodeId(n_clients as u32 + 1),
        backend,
    );
    let nodes = vec![primary.clone(), backup.clone()];

    let mut ring = None;
    let mut session = None;
    let promoted = Rc::new(Cell::new(false));
    let killed_at = Rc::new(Cell::new(None));
    let promoted_at = Rc::new(Cell::new(None));
    let stop = Rc::new(Cell::new(false));

    if ccfg.replicate {
        primary.server.set_replicator(primary.repl.clone());
        backup.server.set_replicator(backup.repl.clone());

        // The replication channel: one QP pair; the primary deposits
        // records into the backup's ring, the backup writes credit/ack
        // counters back into the primary's control block — both
        // one-sided, so no part of the protocol is ULP-droppable.
        let (qp_p, qp_b) = connect(&primary.hca, &backup.hca);
        let shipper = Shipper::new(sim, &primary.hca, qp_p).await;
        let b_ring = LogRing::new(&backup.hca, ccfg.ring_bytes).await;
        let ctrl = CtrlWriter::new(qp_b, shipper.ctrl_target());
        shipper.attach(b_ring.target());
        primary.repl.set_shipper(Some(shipper.clone()));
        *primary.shipper.borrow_mut() = Some(shipper);
        let b_session = BackupSession::new();
        sim.spawn(run_backup(
            sim.clone(),
            b_ring.clone(),
            ctrl,
            backup.server.clone(),
            backup.rpc.clone(),
            backup.repl.clone(),
            b_session.clone(),
        ));

        // Heartbeats: the backup probes the primary with NULL RPCs on
        // a dedicated connection with no retransmission budget — a
        // dead primary turns into fast consecutive failures.
        let (hb_qc, hb_qs) = connect(&backup.hca, &primary.hca);
        primary.rpc.serve_connection(hb_qs.clone());
        primary.qps.borrow_mut().push(hb_qs);
        let hb_cfg = RpcRdmaConfig {
            max_retransmits: 0,
            call_timeout: ccfg.hb_interval,
            ..rpc_cfg
        };
        let hb = RdmaRpcClient::new(
            sim,
            &backup.hca,
            hb_qc,
            Registrar::new(&backup.hca, strategy),
            hb_cfg,
            nfs::NFS_PROGRAM,
            nfs::NFS_VERSION,
        );
        {
            let sim2 = sim.clone();
            let mount2 = mount.clone();
            let backup2 = backup.clone();
            let ring2 = b_ring.clone();
            let session2 = b_session.clone();
            let promoted2 = promoted.clone();
            let promoted_at2 = promoted_at.clone();
            let (interval, limit) = (ccfg.hb_interval, ccfg.hb_miss_limit);
            let stop2 = stop.clone();
            sim.spawn(async move {
                let mut misses = 0u32;
                loop {
                    if promoted2.get() || stop2.get() {
                        break;
                    }
                    sim2.sleep(interval).await;
                    let alive = hb
                        .call(0, bytes::Bytes::new(), rpcrdma::BulkParams::default())
                        .await
                        .is_ok();
                    if alive {
                        misses = 0;
                        continue;
                    }
                    misses += 1;
                    sim2.flight("cluster", "hb_miss", misses as u64, limit as u64);
                    if misses < limit {
                        continue;
                    }
                    promote_backup(
                        &mount2,
                        1,
                        &ring2,
                        &session2,
                        &backup2.server,
                        &backup2.rpc,
                        &backup2.repl,
                    )
                    .await;
                    promoted2.set(true);
                    promoted_at2.set(Some(sim2.now()));
                    sim2.flight(
                        "cluster",
                        "promoted",
                        mount2.epoch() as u64,
                        session2.applied.get(),
                    );
                    break;
                }
            });
        }
        ring = Some(b_ring);
        session = Some(b_session);
    }

    // Clients mount the cluster: their reconnection path resolves the
    // current primary through the mount (parking until a promotion
    // completes) instead of assuming node 0 serves forever.
    let mut clients = Vec::new();
    for i in 1..=n_clients {
        let node = NodeId(i as u32);
        let cpu = Cpu::new(
            sim,
            format!("client{i}-cpu"),
            profile.client_cores,
            profile.client_cpu,
        );
        let mem = Rc::new(HostMem::new(node, profile.phys, sim.fork_rng()));
        let hca = Hca::new(sim, node, profile.hca, cpu.clone(), mem.clone(), &fabric);
        let (qc, qs) = connect(&hca, &primary.hca);
        primary.rpc.serve_connection(qs.clone());
        primary.qps.borrow_mut().push(qs.clone());
        let rpc_client = RdmaRpcClient::new(
            sim,
            &hca,
            qc,
            Registrar::new(&hca, strategy),
            rpc_cfg,
            nfs::NFS_PROGRAM,
            nfs::NFS_VERSION,
        );
        {
            let qs_cell = Rc::new(RefCell::new(qs));
            let hca = hca.clone();
            let mount2 = mount.clone();
            let nodes2 = nodes.clone();
            rpc_client.set_connector_async(move || {
                let qs_cell = qs_cell.clone();
                let hca = hca.clone();
                let mount2 = mount2.clone();
                let nodes2 = nodes2.clone();
                Box::pin(async move {
                    // Park until a live primary is recorded (promotion
                    // gate), then rebuild the pair against it.
                    let p = mount2.wait_primary().await;
                    let srv = &nodes2[p];
                    qs_cell.borrow().force_error();
                    let (qc, qs) = connect(&hca, &srv.hca);
                    srv.rpc.serve_connection(qs.clone());
                    srv.qps.borrow_mut().push(qs.clone());
                    *qs_cell.borrow_mut() = qs;
                    qc
                })
            });
        }
        clients.push(ClientHost {
            nfs: Rc::new(NfsClient::over_rdma(rpc_client)),
            mem,
            cpu,
            hca: Some(hca),
        });
    }

    ClusterTestbed {
        clients,
        nodes,
        mount,
        fabric,
        ring: RefCell::new(ring),
        session: RefCell::new(session),
        promoted,
        killed_at,
        promoted_at,
        resync_bytes: Rc::new(Cell::new(0)),
        stop,
        cfg: ccfg,
    }
}

impl ClusterTestbed {
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
        let (qp_p, qp_j) = connect(&primary.hca, &joiner.hca);
        let shipper = Shipper::new(sim, &primary.hca, qp_p).await;
        let ring = LogRing::new(&joiner.hca, self.cfg.ring_bytes).await;
        let ctrl = CtrlWriter::new(qp_j, shipper.ctrl_target());
        *primary.shipper.borrow_mut() = Some(shipper.clone());
        let session = BackupSession::new();
        sim.spawn(run_backup(
            sim.clone(),
            ring.clone(),
            ctrl,
            joiner.server.clone(),
            joiner.rpc.clone(),
            joiner.repl.clone(),
            session.clone(),
        ));
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
        self.resync_bytes.set(bytes);
        *self.ring.borrow_mut() = Some(ring);
        *self.session.borrow_mut() = Some(session);
        sim.flight("cluster", "resynced", bytes, from);
    }
}
