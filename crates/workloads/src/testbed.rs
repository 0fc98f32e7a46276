//! Testbed assembly. A [`Bed`] describes one bed — host profile,
//! transport config, registration strategies, storage, client count and
//! topology — and [`Bed::build`] wires it. Three functions build every
//! part of every bed: `host` (CPU, memory, NIC), `server_node` (an
//! NFS/RDMA server on a host) and `mount` (an NFS/RDMA client with its
//! reconnect connector). Each topology calls them in one fixed order —
//! server nodes, then replication and the heartbeat, then clients — so
//! the resources and root-RNG draws of a bed, and with them its whole
//! schedule, are a function of its description.

use std::cell::RefCell;
use std::rc::Rc;

use fs_backend::{CachedDiskStore, Fs, MemStore, Raid0, Vfs};
use ib_verbs::{connect, Fabric, Hca, HcaConfig, HostMem, NodeId, Qp, WireMsg};
use net_stack::{TcpConfig, TcpNet};
use nfs::cluster::{ClusterMount, Replicator};
use nfs::{NfsClient, NfsServer, NfsServerHandle};
use onc_rpc::{serve_stream_bulk_connection, BulkServiceRef, StreamRpcClient};
use rpcrdma::{Design, RdmaRpcClient, RdmaRpcServer, Registrar, Shipper, StrategyKind};
use sim_core::{Cpu, Sim};

use crate::cluster::{Cluster, ClusterConfig};
use crate::profiles::Profile;

/// Storage behind the NFS server.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Memory file system (the §5.1/§5.2 configuration).
    Tmpfs,
    /// 8-disk RAID-0 behind a page cache (§5.3). `ram_bytes` is the
    /// machine's RAM; the kernel and daemons keep [`OS_RESERVE`], the
    /// rest becomes page cache.
    Raid {
        /// Total server RAM.
        ram_bytes: u64,
    },
    /// The RAID configuration plus a write-ahead log on a dedicated
    /// log disk: COMMIT becomes a sequential group commit, and a
    /// power failure recovers committed data by replay.
    WalRaid {
        /// Total server RAM.
        ram_bytes: u64,
    },
}

/// RAM the OS keeps for itself on the RAID server; the page cache gets
/// the remainder. This is why the paper's 4 GB server starts missing
/// at four 1 GB clients and the 8 GB server at eight.
pub const OS_RESERVE: u64 = 512 << 20;

/// How the servers are laid out and what the clients mount over.
/// Clients sit at nodes `1..=clients` in every topology.
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// One NFS/RDMA server at node 0 (§5.1–5.3).
    Rdma,
    /// An NFS/RDMA primary at node 0 and one backup at node
    /// `clients + 1`, joined by the replication channel and a heartbeat
    /// (DESIGN.md §13).
    Replicated(ClusterConfig),
    /// One NFS server at node 0 over TCP: IPoIB or GigE per the config
    /// (§5.3, Figure 10).
    Tcp(TcpConfig),
}

/// One testbed, described once. Struct-update syntax over
/// [`Bed::new`] sets the rest.
#[derive(Clone, Copy, Debug)]
pub struct Bed {
    /// Host profile. Its `rpc` is the whole transport config — design,
    /// credits, TTL, QoS, RFP — and every server and client runs it.
    pub profile: Profile,
    /// Client-side registration strategy.
    pub client_strategy: StrategyKind,
    /// Server-side registration strategy (the zero-copy ablation runs
    /// dynamically registering clients against an all-physical server).
    pub server_strategy: StrategyKind,
    /// HCA config of the server nodes; `None` uses the profile's (CQ
    /// interrupt moderation on the server without touching clients).
    pub server_hca: Option<HcaConfig>,
    /// Storage behind every server node.
    pub backend: Backend,
    /// Client hosts.
    pub clients: usize,
    /// Server layout and transport.
    pub topology: Topology,
}

impl Bed {
    /// One client on a tmpfs NFS/RDMA server: `profile`'s transport
    /// under `design`, both sides registering with `strategy`.
    pub fn new(profile: &Profile, design: Design, strategy: StrategyKind) -> Bed {
        let mut profile = *profile;
        profile.rpc.design = design;
        Bed {
            profile,
            client_strategy: strategy,
            server_strategy: strategy,
            server_hca: None,
            backend: Backend::Tmpfs,
            clients: 1,
            topology: Topology::Rdma,
        }
    }

    /// Build the bed. The replicated topology registers its log ring
    /// and TCP clients handshake, so building takes simulated time.
    pub async fn build(&self, sim: &Sim) -> Testbed {
        match self.topology {
            Topology::Rdma => self.build_now(sim),
            Topology::Replicated(cfg) => self.replicated(sim, cfg).await,
            Topology::Tcp(cfg) => self.tcp(sim, cfg).await,
        }
    }

    /// Build the single-server RDMA bed, which sets up nothing that
    /// takes simulated time, without awaiting: for callers outside the
    /// simulation. Panics on the other topologies.
    pub fn build_now(&self, sim: &Sim) -> Testbed {
        assert!(
            matches!(self.topology, Topology::Rdma),
            "only the single-server RDMA bed builds without waiting"
        );
        let fabric = Fabric::new(sim);
        let nodes = [server_node(sim, self, &fabric, NodeId(0), "server-cpu")];
        let clients = (1..=self.clients)
            .map(|i| mount(sim, self, &fabric, i, &nodes, None))
            .collect();
        Testbed::over_rdma(&nodes[0], clients, fabric, None)
    }

    async fn replicated(&self, sim: &Sim, cfg: ClusterConfig) -> Testbed {
        let fabric = Fabric::new(sim);
        let backup = NodeId(self.clients as u32 + 1);
        let nodes = vec![
            server_node(sim, self, &fabric, NodeId(0), "server0-cpu"),
            server_node(sim, self, &fabric, backup, "server1-cpu"),
        ];
        let cluster = Rc::new(Cluster::wire(sim, self, cfg, nodes).await);
        let clients = (1..=self.clients)
            .map(|i| mount(sim, self, &fabric, i, &cluster.nodes, Some(&cluster.mount)))
            .collect();
        Testbed::over_rdma(&cluster.nodes[0], clients, fabric, Some(cluster.clone()))
    }

    async fn tcp(&self, sim: &Sim, cfg: TcpConfig) -> Testbed {
        let net = TcpNet::new(sim, cfg);
        let (profile, nic) = (&self.profile, Nic::Tcp(&net));
        let server_cpu = host(sim, profile, NodeId(0), "server-cpu".into(), true, nic).cpu;
        let (fs, disk_store) = build_fs_for(sim, NodeId(0), self.backend);
        let server = NfsServer::new(sim, 0, fs.clone());
        let handle = NfsServerHandle(server.clone());
        let mut listener = net.listen(NodeId(0), 2049);
        let sim2 = sim.clone();
        sim.spawn(async move {
            loop {
                let conn = listener.accept().await;
                let svc: BulkServiceRef = Rc::new(handle.clone());
                let sim3 = sim2.clone();
                sim2.spawn(async move {
                    serve_stream_bulk_connection(sim3, conn, svc).await;
                });
            }
        });
        let mut clients = Vec::new();
        for i in 1..=self.clients {
            let node = NodeId(i as u32);
            let h = host(sim, profile, node, format!("client{i}-cpu"), false, nic);
            let stream = net.connect(node, NodeId(0), 2049).await;
            let rpc = StreamRpcClient::new(sim, stream, nfs::NFS_PROGRAM, nfs::NFS_VERSION);
            clients.push(ClientHost {
                nfs: Rc::new(NfsClient::over_tcp(sim, rpc)),
                mem: h.mem.expect("a TCP client holds memory"),
                cpu: h.cpu,
                hca: None,
            });
        }
        Testbed {
            clients,
            server_cpu,
            server_hca: None,
            server,
            rpc_server: None,
            fs,
            disk_store,
            fabric: None,
            tcp: Some(net),
            cluster: None,
        }
    }
}

/// Build a single-server RPC/RDMA testbed: server at node 0, clients at
/// `1..=n_clients`, both sides registering with `strategy`.
pub fn build_rdma(
    sim: &Sim,
    profile: &Profile,
    design: Design,
    strategy: StrategyKind,
    backend: Backend,
    n_clients: usize,
) -> Testbed {
    let bed = Bed::new(profile, design, strategy);
    Bed {
        backend,
        clients: n_clients,
        ..bed
    }
    .build_now(sim)
}

/// One client host.
pub struct ClientHost {
    /// Mounted NFS client.
    pub nfs: Rc<NfsClient>,
    /// Host memory (for user I/O buffers).
    pub mem: Rc<HostMem>,
    /// Host CPU (utilization reporting).
    pub cpu: Cpu,
    /// The client HCA (RDMA testbeds only).
    pub hca: Option<Hca>,
}

/// A fully assembled testbed. The server fields are node 0's: the one
/// server, or the replicated bed's initial primary.
pub struct Testbed {
    /// The clients, in id order.
    pub clients: Vec<ClientHost>,
    /// Server CPU.
    pub server_cpu: Cpu,
    /// Server HCA (RDMA testbeds only).
    pub server_hca: Option<Hca>,
    /// The NFS server (stats, root handle).
    pub server: Rc<NfsServer>,
    /// The RPC/RDMA server engine (taskq stats; RDMA testbeds only).
    pub rpc_server: Option<Rc<RdmaRpcServer>>,
    /// Direct VFS access (test prepopulation).
    pub fs: Rc<dyn Vfs>,
    /// Page-cache statistics for RAID back ends.
    pub disk_store: Option<Rc<Fs<CachedDiskStore>>>,
    /// The fabric (RDMA testbeds only), for wire accounting.
    pub fabric: Option<Fabric<WireMsg>>,
    /// The TCP network (stream testbeds only).
    pub tcp: Option<TcpNet>,
    /// Both server nodes, replication and failover controls (the
    /// replicated topology only).
    pub cluster: Option<Rc<Cluster>>,
}

impl Testbed {
    fn over_rdma(
        node: &ServerNode,
        clients: Vec<ClientHost>,
        fabric: Fabric<WireMsg>,
        cluster: Option<Rc<Cluster>>,
    ) -> Testbed {
        Testbed {
            clients,
            server_cpu: node.cpu.clone(),
            server_hca: Some(node.hca.clone()),
            server: node.server.clone(),
            rpc_server: Some(node.rpc.clone()),
            fs: node.fs.clone(),
            disk_store: node.disk.clone(),
            fabric: Some(fabric),
            tcp: None,
            cluster,
        }
    }

    /// Reset all accounting windows (exclude warmup from utilization).
    pub fn reset_accounting(&self) {
        self.server_cpu.reset_accounting();
        for c in &self.clients {
            c.cpu.reset_accounting();
        }
        if let Some(f) = &self.fabric {
            f.reset_accounting();
        }
        if let Some(t) = &self.tcp {
            t.reset_accounting();
        }
        if let Some(h) = &self.server_hca {
            h.reset_accounting();
        }
        for c in &self.clients {
            if let Some(h) = &c.hca {
                h.reset_accounting();
            }
        }
        if let Some(rs) = &self.rpc_server {
            rs.taskq().reset_accounting();
        }
    }

    /// The workload is over: end the replicated bed's heartbeat pacer
    /// so the simulation can quiesce. Nothing else paces itself.
    pub fn stop(&self) {
        if let Some(c) = &self.cluster {
            c.stop.set(true);
        }
    }
}

/// The file system of the server at `node`.
pub(crate) fn build_fs_for(
    sim: &Sim,
    node: NodeId,
    backend: Backend,
) -> (Rc<dyn Vfs>, Option<Rc<Fs<CachedDiskStore>>>) {
    let (ram_bytes, wal) = match backend {
        Backend::Tmpfs => {
            let fs: Rc<Fs<MemStore>> = Rc::new(Fs::new(sim, MemStore::default()));
            return (Rc::new(fs) as Rc<dyn Vfs>, None);
        }
        Backend::Raid { ram_bytes } => (ram_bytes, false),
        Backend::WalRaid { ram_bytes } => (ram_bytes, true),
    };
    let raid = Raid0::paper_array(sim);
    let cache = ram_bytes.saturating_sub(OS_RESERVE).max(128 << 20);
    let store = if wal {
        let wal = fs_backend::Wal::new(sim, fs_backend::WalConfig::default());
        CachedDiskStore::with_wal(sim, node.0, raid, cache, 256 * 1024, wal)
    } else {
        CachedDiskStore::new(sim, node.0, raid, cache, 256 * 1024)
    };
    let fs: Rc<Fs<CachedDiskStore>> = Rc::new(Fs::new(sim, store));
    (Rc::new(fs.clone()) as Rc<dyn Vfs>, Some(fs))
}

/// What a host plugs into.
#[derive(Clone, Copy)]
pub(crate) enum Nic<'a> {
    /// An HCA with this config on the RDMA fabric.
    Hca(&'a Fabric<WireMsg>, HcaConfig),
    /// A NIC on the TCP network.
    Tcp(&'a TcpNet),
}

/// A host's CPU, memory and HCA.
pub(crate) struct Host {
    pub(crate) cpu: Cpu,
    /// `None` on a TCP server only.
    pub(crate) mem: Option<Rc<HostMem>>,
    /// `None` on the TCP network.
    pub(crate) hca: Option<Hca>,
}

/// Build a host at `node` whose CPU is called `name`: every CPU, host
/// memory and HCA of a bed — the adversary's attacker hosts included —
/// comes from here. A `server` runs on the profile's server cores and
/// costs, any other host on the client's. A TCP server holds no host
/// memory: nothing on it is registered or handed to a user, and a host
/// memory's physical layout costs a draw from the simulation's root RNG.
pub(crate) fn host(
    sim: &Sim,
    profile: &Profile,
    node: NodeId,
    name: String,
    server: bool,
    nic: Nic,
) -> Host {
    let (cores, costs) = match server {
        true => (profile.server_cores, profile.server_cpu),
        false => (profile.client_cores, profile.client_cpu),
    };
    let cpu = Cpu::new(sim, name, cores, costs);
    let mem = match nic {
        Nic::Tcp(_) if server => None,
        _ => Some(Rc::new(HostMem::new(node, profile.phys, sim.fork_rng()))),
    };
    let hca = match nic {
        Nic::Hca(fabric, cfg) => {
            let mem = mem.clone().expect("an RDMA host holds memory");
            Some(Hca::new(sim, node, cfg, cpu.clone(), mem, fabric))
        }
        Nic::Tcp(net) => {
            net.attach(node, cpu.clone());
            None
        }
    };
    Host { cpu, mem, hca }
}

/// One NFS/RDMA server host.
pub struct ServerNode {
    /// Node CPU.
    pub cpu: Cpu,
    /// Node HCA.
    pub hca: Hca,
    /// The NFS protocol engine.
    pub server: Rc<NfsServer>,
    /// The RPC/RDMA engine.
    pub rpc: Rc<RdmaRpcServer>,
    /// The replicated-log sequencer (installed on replicated beds only).
    pub repl: Rc<Replicator>,
    /// Direct VFS access.
    pub fs: Rc<dyn Vfs>,
    /// Disk-backed store (RAID and WAL back ends).
    pub disk: Option<Rc<Fs<CachedDiskStore>>>,
    /// Server halves of the live connections — one per client, plus the
    /// heartbeat on a replicated primary — errored wholesale on a kill.
    pub qps: RefCell<Vec<Qp>>,
    /// Outbound replication shipper while this node is primary.
    pub shipper: RefCell<Option<Rc<Shipper>>>,
}

impl ServerNode {
    /// Connect `peer` to this node and serve the new connection; returns
    /// the `(peer, server)` halves.
    pub(crate) fn accept(&self, peer: &Hca) -> (Qp, Qp) {
        let (qc, qs) = connect(peer, &self.hca);
        self.rpc.serve_connection(qs.clone());
        self.qps.borrow_mut().push(qs.clone());
        (qc, qs)
    }

    /// Error the server half `qs` and drop it from the live set.
    fn close(&self, qs: &Qp) {
        qs.force_error();
        self.qps.borrow_mut().retain(|q| q.qpn() != qs.qpn());
    }
}

/// Build an NFS/RDMA server at `node` whose CPU is called `cpu_name`.
fn server_node(
    sim: &Sim,
    bed: &Bed,
    fabric: &Fabric<WireMsg>,
    node: NodeId,
    cpu_name: &str,
) -> Rc<ServerNode> {
    let nic = Nic::Hca(fabric, bed.server_hca.unwrap_or(bed.profile.hca));
    let h = host(sim, &bed.profile, node, cpu_name.into(), true, nic);
    let hca = h.hca.expect("an RDMA host has an HCA");
    let (fs, disk) = build_fs_for(sim, node, bed.backend);
    let server = NfsServer::new(sim, node.0, fs.clone());
    let rpc = RdmaRpcServer::new(
        sim,
        &hca,
        Rc::new(NfsServerHandle(server.clone())),
        Registrar::new(&hca, bed.server_strategy),
        bed.profile.rpc,
    );
    let repl = Replicator::new(sim);
    if let Some(wal) = disk.as_ref().and_then(|d| d.store().wal().cloned()) {
        repl.set_wal_cut(move || wal.committed_records());
    }
    Rc::new(ServerNode {
        cpu: h.cpu,
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

/// Client `i`: a host at node `i` mounted on node 0 of `nodes`. After a
/// QP error its connector resolves the serving node — through `cluster`,
/// parking until a promotion completes, or node 0 — errors the server
/// half it replaces, drops that half from its node's live set, and
/// connects afresh (the connection manager's role on a real fabric).
fn mount(
    sim: &Sim,
    bed: &Bed,
    fabric: &Fabric<WireMsg>,
    i: usize,
    nodes: &[Rc<ServerNode>],
    cluster: Option<&Rc<ClusterMount>>,
) -> ClientHost {
    let (node, nic) = (NodeId(i as u32), Nic::Hca(fabric, bed.profile.hca));
    let h = host(
        sim,
        &bed.profile,
        node,
        format!("client{i}-cpu"),
        false,
        nic,
    );
    let hca = h.hca.expect("an RDMA host has an HCA");
    let (qc, qs) = nodes[0].accept(&hca);
    let rpc = RdmaRpcClient::new(
        sim,
        &hca,
        qc,
        Registrar::new(&hca, bed.client_strategy),
        bed.profile.rpc,
        nfs::NFS_PROGRAM,
        nfs::NFS_VERSION,
    );
    let live = Rc::new(RefCell::new((0, qs)));
    let (nodes, cluster, peer) = (nodes.to_vec(), cluster.cloned(), hca.clone());
    rpc.set_connector_async(move || {
        let (live, nodes, cluster, peer) =
            (live.clone(), nodes.clone(), cluster.clone(), peer.clone());
        Box::pin(async move {
            let serving = match &cluster {
                Some(mount) => mount.wait_primary().await,
                None => 0,
            };
            let (was, replaced) = live.borrow().clone();
            nodes[was].close(&replaced);
            let (qc, qs) = nodes[serving].accept(&peer);
            *live.borrow_mut() = (serving, qs);
            qc
        })
    });
    ClientHost {
        nfs: Rc::new(NfsClient::over_rdma(sim, rpc)),
        mem: h.mem.expect("an RDMA host holds memory"),
        cpu: h.cpu,
        hca: Some(hca),
    }
}
