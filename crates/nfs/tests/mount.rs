//! MOUNT protocol tests: NFS + mountd sharing one connection through a
//! `ServiceRegistry`, over both transports.

use std::rc::Rc;

use fs_backend::tmpfs;
use ib_verbs::{connect, Fabric, Hca, HcaConfig, HostMem, NodeId, PhysLayout};
use net_stack::{TcpConfig, TcpNet};
use nfs::{MountClient, Mountd, MountdHandle, NfsClient, NfsServer, NfsServerHandle};
use onc_rpc::{serve_stream_bulk_connection, ServiceRegistry, StreamRpcClient};
use rpcrdma::{Design, RdmaRpcClient, RdmaRpcServer, Registrar, RpcRdmaConfig, StrategyKind};
use sim_core::{Cpu, CpuCosts, Payload, Sim, Simulation};

fn registry(server: &Rc<NfsServer>, mountd: &Rc<Mountd>) -> onc_rpc::BulkServiceRef {
    ServiceRegistry::new()
        .register(Rc::new(NfsServerHandle(server.clone())))
        .register(Rc::new(MountdHandle(mountd.clone())))
        .into_service()
}

#[test]
fn mount_then_io_over_rdma() {
    let mut sim = Simulation::new(61);
    let h: Sim = sim.handle();
    let fabric = Fabric::new(&h);
    let mk = |id: u32| {
        let node = NodeId(id);
        let cpu = Cpu::new(&h, format!("cpu{id}"), 2, CpuCosts::default());
        let mem = Rc::new(HostMem::new(node, PhysLayout::default(), h.fork_rng()));
        let hca = Hca::new(&h, node, HcaConfig::sdr(), cpu, mem.clone(), &fabric);
        (hca, mem)
    };
    let (chca, cmem) = mk(0);
    let (shca, _) = mk(1);
    let fs = Rc::new(tmpfs(&h));
    let server = NfsServer::new(&h, 1, Rc::new(fs.clone()));
    let mountd = Mountd::new();
    mountd.export("/export/data", server.root_handle());

    let cfg = RpcRdmaConfig::default().with_design(Design::ReadWrite);
    let (qc, qs) = connect(&chca, &shca);
    let rpc_server = RdmaRpcServer::new(
        &h,
        &shca,
        registry(&server, &mountd),
        Registrar::new(&shca, StrategyKind::Dynamic),
        cfg,
    );
    rpc_server.serve_connection(qs);
    let rpc_client = RdmaRpcClient::new(
        &h,
        &chca,
        qc,
        Registrar::new(&chca, StrategyKind::Dynamic),
        cfg,
        nfs::NFS_PROGRAM,
        nfs::NFS_VERSION,
    );
    let mount = MountClient::over_rdma(rpc_client.clone());
    let nfs_client = NfsClient::over_rdma(&h, rpc_client);

    sim.block_on(async move {
        // Discover and mount the export.
        let exports = mount.exports().await.unwrap();
        assert_eq!(exports, vec!["/export/data".to_string()]);
        assert!(matches!(
            mount.mnt("/no/such/export").await,
            Err(nfs::NfsError::Status(_))
        ));
        let root = mount.mnt("/export/data").await.unwrap();

        // The handle works for real I/O on the same connection.
        let f = nfs_client.create(root, "hello").await.unwrap();
        let buf = cmem.alloc(4096);
        buf.write(0, Payload::real(vec![5u8; 1000]));
        nfs_client
            .write(f.handle(), 0, &buf, 0, 1000, false)
            .await
            .unwrap();
        let (data, _) = nfs_client.read(f.handle(), 0, 1000, None).await.unwrap();
        assert_eq!(&data.materialize()[..], &[5u8; 1000]);

        // DUMP reports us; UMNT removes us.
        let mounts = mount.dump().await.unwrap();
        assert_eq!(mounts.len(), 1);
        assert_eq!(mounts[0].1, "/export/data");
        mount.umnt("/export/data").await.unwrap();
        assert!(mount.dump().await.unwrap().is_empty());
    });
}

#[test]
fn mount_then_io_over_tcp() {
    let mut sim = Simulation::new(62);
    let h: Sim = sim.handle();
    let net = TcpNet::new(&h, TcpConfig::ipoib());
    net.attach(NodeId(0), Cpu::new(&h, "c", 2, CpuCosts::default()));
    net.attach(NodeId(1), Cpu::new(&h, "s", 2, CpuCosts::default()));
    let fs = Rc::new(tmpfs(&h));
    let server = NfsServer::new(&h, 1, Rc::new(fs.clone()));
    let mountd = Mountd::new();
    mountd.export("/export", server.root_handle());
    let svc = registry(&server, &mountd);
    let mut listener = net.listen(NodeId(1), 2049);
    let h2 = h.clone();
    sim.spawn(async move {
        loop {
            let conn = listener.accept().await;
            let svc = svc.clone();
            let h3 = h2.clone();
            h2.spawn(async move {
                serve_stream_bulk_connection(h3, conn, svc).await;
            });
        }
    });
    let net2 = net.clone();
    let cmem = Rc::new(HostMem::new(NodeId(0), PhysLayout::default(), h.fork_rng()));
    sim.block_on(async move {
        let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
        let rpc = StreamRpcClient::new(&h, stream, nfs::NFS_PROGRAM, nfs::NFS_VERSION);
        let mount = MountClient::over_tcp(rpc.clone());
        let nfs_client = NfsClient::over_tcp(&h, rpc);

        let root = mount.mnt("/export").await.unwrap();
        let f = nfs_client.create(root, "x").await.unwrap();
        let buf = cmem.alloc(4096);
        buf.write(0, Payload::real(vec![9u8; 64]));
        nfs_client
            .write(f.handle(), 0, &buf, 0, 64, true)
            .await
            .unwrap();
        let attr = nfs_client.getattr(f.handle()).await.unwrap();
        assert_eq!(attr.size, 64);
        mount.umnt("/export").await.unwrap();
    });
}

#[test]
fn unknown_program_rejected_by_registry() {
    let mut sim = Simulation::new(63);
    let h: Sim = sim.handle();
    let net = TcpNet::new(&h, TcpConfig::gige());
    net.attach(NodeId(0), Cpu::new(&h, "c", 2, CpuCosts::default()));
    net.attach(NodeId(1), Cpu::new(&h, "s", 2, CpuCosts::default()));
    let fs = Rc::new(tmpfs(&h));
    let server = NfsServer::new(&h, 1, Rc::new(fs.clone()));
    let mountd = Mountd::new();
    let svc = registry(&server, &mountd);
    let mut listener = net.listen(NodeId(1), 2049);
    let h2 = h.clone();
    sim.spawn(async move {
        let conn = listener.accept().await;
        serve_stream_bulk_connection(h2.clone(), conn, svc).await;
    });
    let net2 = net.clone();
    sim.block_on(async move {
        let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
        let rpc = StreamRpcClient::new(&h, stream, nfs::NFS_PROGRAM, nfs::NFS_VERSION);
        let err = rpc
            .call_as(424242, 1, 0, bytes::Bytes::new(), None)
            .await
            .unwrap_err();
        assert_eq!(
            err,
            onc_rpc::RpcError::Rejected(onc_rpc::AcceptStat::ProgUnavail)
        );
    });
}
