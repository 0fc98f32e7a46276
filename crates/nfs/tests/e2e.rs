//! Full-stack NFS tests: client ↔ server over RPC/RDMA (both designs)
//! and TCP, against tmpfs and disk-backed file systems.

use std::rc::Rc;

use fs_backend::{tmpfs, FileKind};
use ib_verbs::{connect, Fabric, Hca, HcaConfig, HostMem, NodeId, PhysLayout};
use net_stack::{TcpConfig, TcpNet};
use nfs::{NfsClient, NfsError, NfsServer, NfsServerHandle, NfsStat};
use onc_rpc::{serve_stream_bulk_connection, BulkServiceRef, StreamRpcClient};
use rpcrdma::{Design, RdmaRpcClient, RdmaRpcServer, Registrar, RpcRdmaConfig, StrategyKind};
use sim_core::{Cpu, CpuCosts, Payload, Sim, Simulation};

struct Bed {
    client: Rc<NfsClient>,
    server: Rc<NfsServer>,
    client_mem: Rc<HostMem>,
}

fn rdma_bed(sim: &Sim, design: Design, strategy: StrategyKind) -> Bed {
    rdma_bed_parts(sim, design, strategy).0
}

/// [`rdma_bed`] with the fabric + RPC server it stands on.
#[allow(clippy::type_complexity)]
fn rdma_bed_parts(
    sim: &Sim,
    design: Design,
    strategy: StrategyKind,
) -> (Bed, Fabric<ib_verbs::WireMsg>, Rc<RdmaRpcServer>) {
    let fabric = Fabric::new(sim);
    let mk = |id: u32| {
        let node = NodeId(id);
        let cpu = Cpu::new(sim, format!("cpu{id}"), 2, CpuCosts::default());
        let mem = Rc::new(HostMem::new(node, PhysLayout::default(), sim.fork_rng()));
        let hca = Hca::new(sim, node, HcaConfig::sdr(), cpu, mem.clone(), &fabric);
        (hca, mem)
    };
    let (chca, cmem) = mk(0);
    let (shca, _) = mk(1);
    let fs = Rc::new(tmpfs(sim));
    let server = NfsServer::new(sim, 1, fs.clone());
    let cfg = RpcRdmaConfig::default().with_design(design);
    let (qc, qs) = connect(&chca, &shca);
    let rpc_server = RdmaRpcServer::new(
        sim,
        &shca,
        Rc::new(NfsServerHandle(server.clone())),
        Registrar::new(&shca, strategy),
        cfg,
    );
    rpc_server.serve_connection(qs);
    let rpc_client = RdmaRpcClient::new(
        sim,
        &chca,
        qc,
        Registrar::new(&chca, strategy),
        cfg,
        nfs::NFS_PROGRAM,
        nfs::NFS_VERSION,
    );
    let bed = Bed {
        client: Rc::new(NfsClient::over_rdma(sim, rpc_client)),
        server,
        client_mem: cmem,
    };
    (bed, fabric, rpc_server)
}

/// Async-friendly TCP testbed: must be awaited inside the simulation.
async fn tcp_bed_async(sim: &Sim) -> Bed {
    let net = TcpNet::new(sim, TcpConfig::ipoib());
    let c_cpu = Cpu::new(sim, "c", 2, CpuCosts::default());
    let s_cpu = Cpu::new(sim, "s", 2, CpuCosts::default());
    net.attach(NodeId(0), c_cpu);
    net.attach(NodeId(1), s_cpu);
    let fs = Rc::new(tmpfs(sim));
    let server = NfsServer::new(sim, 1, fs.clone());
    let handle = NfsServerHandle(server.clone());
    let mut listener = net.listen(NodeId(1), 2049);
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
    let cmem = Rc::new(HostMem::new(
        NodeId(0),
        PhysLayout::default(),
        sim.fork_rng(),
    ));
    let stream = net.connect(NodeId(0), NodeId(1), 2049).await;
    let rpc = StreamRpcClient::new(sim, stream, nfs::NFS_PROGRAM, nfs::NFS_VERSION);
    Bed {
        client: Rc::new(NfsClient::over_tcp(sim, rpc)),
        server,
        client_mem: cmem,
    }
}

async fn exercise_full_protocol(bed: &Bed) {
    let client = &bed.client;
    let root = bed.server.root_handle();

    client.null().await.unwrap();

    // Directory tree.
    let dir = client.mkdir(root, "work").await.unwrap();
    let file = client.create(dir.handle(), "data.bin").await.unwrap();
    client
        .symlink(dir.handle(), "link", "data.bin")
        .await
        .unwrap();
    assert_eq!(
        client
            .readlink(client.lookup(dir.handle(), "link").await.unwrap().handle())
            .await
            .unwrap(),
        "data.bin"
    );

    // Write + read back (128 KiB, checked bytes).
    let user = bed.client_mem.alloc(256 * 1024);
    let pattern: Vec<u8> = (0..131_072u32).map(|i| (i % 253) as u8).collect();
    user.write(0, Payload::real(pattern.clone()));
    let n = client
        .write(file.handle(), 0, &user, 0, 131_072, false)
        .await
        .unwrap();
    assert_eq!(n, 131_072);

    let dst = bed.client_mem.alloc(256 * 1024);
    let (data, eof) = client
        .read(file.handle(), 0, 131_072, Some((&dst, 0)))
        .await
        .unwrap();
    assert_eq!(&data.materialize()[..], &pattern[..]);
    assert!(eof);
    assert_eq!(&dst.read(0, 131_072).materialize()[..], &pattern[..]);

    // Partial read in the middle.
    let (mid, eof) = client.read(file.handle(), 1000, 5000, None).await.unwrap();
    assert_eq!(&mid.materialize()[..], &pattern[1000..6000]);
    assert!(!eof);

    // Attributes reflect the write.
    let attr = client.getattr(file.handle()).await.unwrap();
    assert_eq!(attr.size, 131_072);
    assert_eq!(attr.kind, FileKind::Regular);

    // Readdir sees all three entries.
    let entries = client.readdir(dir.handle()).await.unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["data.bin", "link"]);

    // ACCESS: granted bits within the requested envelope.
    let granted = client
        .access(
            file.handle(),
            nfs::proto::access::READ | nfs::proto::access::MODIFY,
        )
        .await
        .unwrap();
    assert_eq!(
        granted,
        nfs::proto::access::READ | nfs::proto::access::MODIFY
    );
    assert!(matches!(
        client
            .access(nfs::FileHandle(99999), nfs::proto::access::READ)
            .await,
        Err(NfsError::Status(NfsStat::Stale))
    ));

    // READDIRPLUS: entries come back with attributes and handles.
    let plus = client.readdirplus(dir.handle()).await.unwrap();
    assert_eq!(plus.len(), 2);
    let (entry, attr, fh) = &plus[0];
    assert_eq!(entry.name, "data.bin");
    assert_eq!(attr.unwrap().size, 131_072);
    assert_eq!(fh.0, entry.fileid);

    // Rename + remove + errors.
    client
        .rename(dir.handle(), "data.bin", root, "moved.bin")
        .await
        .unwrap();
    assert!(matches!(
        client.lookup(dir.handle(), "data.bin").await.unwrap_err(),
        NfsError::Status(NfsStat::NoEnt)
    ));
    client.lookup(root, "moved.bin").await.unwrap();
    client.remove(dir.handle(), "link").await.unwrap();
    client.rmdir(root, "work").await.unwrap();
    assert!(matches!(
        client.rmdir(root, "work").await.unwrap_err(),
        NfsError::Status(NfsStat::NoEnt)
    ));

    // Truncate via SETATTR.
    let attr = client.setattr_size(file.handle(), 1000).await.unwrap();
    assert_eq!(attr.size, 1000);

    // COMMIT and FSSTAT.
    client.commit(file.handle()).await.unwrap();
    let (bytes_used, inodes) = client.fsstat(root).await.unwrap();
    assert_eq!(bytes_used, 1000);
    assert!(inodes >= 2);
}

#[test]
fn full_protocol_over_rdma_read_write_design() {
    let mut sim = Simulation::new(21);
    let h = sim.handle();
    let bed = rdma_bed(&h, Design::ReadWrite, StrategyKind::Dynamic);
    sim.block_on(async move { exercise_full_protocol(&bed).await });
}

#[test]
fn full_protocol_over_rdma_read_read_design() {
    let mut sim = Simulation::new(22);
    let h = sim.handle();
    let bed = rdma_bed(&h, Design::ReadRead, StrategyKind::Dynamic);
    sim.block_on(async move { exercise_full_protocol(&bed).await });
}

#[test]
fn full_protocol_over_rdma_cache_and_allphysical() {
    for strategy in [
        StrategyKind::Cache,
        StrategyKind::AllPhysical,
        StrategyKind::Fmr,
    ] {
        let mut sim = Simulation::new(23);
        let h = sim.handle();
        let bed = rdma_bed(&h, Design::ReadWrite, strategy);
        sim.block_on(async move { exercise_full_protocol(&bed).await });
    }
}

#[test]
fn full_protocol_over_tcp() {
    let mut sim = Simulation::new(24);
    let h = sim.handle();
    let bed_fut = {
        let h = h.clone();
        async move {
            let bed = tcp_bed_async(&h).await;
            exercise_full_protocol(&bed).await;
        }
    };
    sim.block_on(bed_fut);
}

#[test]
fn big_file_sequential_io_rdma() {
    // 8 MiB written and read back in 1 MiB records over the RW design.
    let mut sim = Simulation::new(25);
    let h = sim.handle();
    let bed = rdma_bed(&h, Design::ReadWrite, StrategyKind::Cache);
    sim.block_on(async move {
        let root = bed.server.root_handle();
        let f = bed.client.create(root, "big").await.unwrap();
        let buf = bed.client_mem.alloc(1 << 20);
        let total: u64 = 8 << 20;
        let mut off = 0u64;
        while off < total {
            buf.write(0, Payload::synthetic(off, 1 << 20));
            bed.client
                .write(f.handle(), off, &buf, 0, 1 << 20, false)
                .await
                .unwrap();
            off += 1 << 20;
        }
        let attr = bed.client.getattr(f.handle()).await.unwrap();
        assert_eq!(attr.size, total);
        // Read back and verify each record.
        let dst = bed.client_mem.alloc(1 << 20);
        let mut off = 0u64;
        while off < total {
            let (data, _) = bed
                .client
                .read(f.handle(), off, 1 << 20, Some((&dst, 0)))
                .await
                .unwrap();
            assert!(
                data.content_eq(&Payload::synthetic(off, 1 << 20)),
                "corruption at offset {off}"
            );
            off += 1 << 20;
        }
    });
}

#[test]
fn tcp_and_rdma_agree_on_contents() {
    // The same logical operations produce identical file contents
    // regardless of transport.
    let digest = |run: &dyn Fn(&mut Simulation) -> Vec<u8>| {
        let mut sim = Simulation::new(77);
        run(&mut sim)
    };
    let rdma = digest(&|sim: &mut Simulation| {
        let h = sim.handle();
        let bed = rdma_bed(&h, Design::ReadWrite, StrategyKind::Dynamic);
        sim.block_on(async move {
            let root = bed.server.root_handle();
            let f = bed.client.create(root, "x").await.unwrap();
            let buf = bed.client_mem.alloc(4096);
            buf.write(
                0,
                Payload::real((0u8..=255).cycle().take(4096).collect::<Vec<_>>()),
            );
            bed.client
                .write(f.handle(), 0, &buf, 0, 4096, true)
                .await
                .unwrap();
            let (data, _) = bed.client.read(f.handle(), 0, 4096, None).await.unwrap();
            data.materialize().to_vec()
        })
    });
    let tcp = digest(&|sim: &mut Simulation| {
        let h = sim.handle();
        sim.block_on(async move {
            let bed = tcp_bed_async(&h).await;
            let root = bed.server.root_handle();
            let f = bed.client.create(root, "x").await.unwrap();
            let buf = bed.client_mem.alloc(4096);
            buf.write(
                0,
                Payload::real((0u8..=255).cycle().take(4096).collect::<Vec<_>>()),
            );
            bed.client
                .write(f.handle(), 0, &buf, 0, 4096, true)
                .await
                .unwrap();
            let (data, _) = bed.client.read(f.handle(), 0, 4096, None).await.unwrap();
            data.materialize().to_vec()
        })
    });
    assert_eq!(rdma, tcp);
}

/// [`rdma_bed`] with the fabric + RPC server exposed for fault
/// injection. The tests on it issue small NFS WRITEs, which ride
/// `RDMA_MSGP`: pure Send/reply traffic — no RDMA Read legs — so a
/// single forced drop can target the call or the reply exactly.
#[allow(clippy::type_complexity)]
fn fault_bed(sim: &Sim, design: Design) -> (Bed, Fabric<ib_verbs::WireMsg>, Rc<RdmaRpcServer>) {
    let parts = rdma_bed_parts(sim, design, StrategyKind::Dynamic);
    // Forced drops only: no per-link probability, so nothing else in
    // the run is perturbed.
    parts.1.enable_faults(sim.fork_rng());
    parts
}

#[test]
fn write_reply_drop_retransmits_without_double_apply() {
    // The server executes the WRITE and its reply is lost. The client
    // must retransmit the same XID; the server's duplicate request
    // cache must replay the original reply instead of applying the
    // WRITE twice. Both designs.
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(17);
        let h = sim.handle();
        let (bed, fabric, rpc_server) = fault_bed(&h, design);
        sim.block_on(async move {
            let root = bed.server.root_handle();
            let f = bed.client.create(root, "f").await.unwrap();
            let fh = f.handle();
            let buf = bed.client_mem.alloc(512);
            buf.write(0, Payload::synthetic(3, 512));

            // The next message arriving at the client is this WRITE's
            // reply Send: swallow exactly that one.
            fabric.drop_next_to(NodeId(0), 1);
            let n = bed.client.write(fh, 0, &buf, 0, 512, false).await.unwrap();
            assert_eq!(n, 512, "{design:?}");

            // Applied exactly once, despite the retransmission.
            assert_eq!(bed.server.stats.writes.get(), 1, "{design:?}");
            let written = h.metrics().get("nfs.node1.bytes_written");
            assert_eq!(written, Some(512), "{design:?}");
            let cs = bed.client.rdma().unwrap().stats();
            assert!(cs.retransmits.get() >= 1, "{design:?}: no retransmission");
            assert!(cs.timeouts.get() >= 1, "{design:?}: no timeout observed");
            assert!(
                rpc_server.stats.drc_replays.get() >= 1,
                "{design:?}: DRC never replayed"
            );

            // And the bytes on disk are the bytes we wrote.
            let (data, _) = bed.client.read(fh, 0, 512, None).await.unwrap();
            assert!(
                data.content_eq(&Payload::synthetic(3, 512)),
                "{design:?}: corrupt contents"
            );
        });
    }
}

/// The same reply drop under a WRITE whose payload the server fetches
/// by RDMA Read (128 KiB, chunked): the retransmission is fetched
/// again — the fetch runs beside dispatch, and the duplicate request
/// cache only meets a call in the service stage — and then replayed,
/// not applied. Every registration strategy, both designs.
#[test]
fn chunked_write_reply_drop_replays_and_applies_once() {
    const LEN: u32 = 128 * 1024;
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in [StrategyKind::Dynamic, StrategyKind::Cache] {
            // `arm`: when to tell the fabric to swallow the next arrival
            // at the client. `None` is the dry run that finds the
            // instant — the WRITE's service span, when its Reads are
            // done and only the reply Send is still to come.
            let run = |arm: Option<sim_core::SimTime>| {
                let mut sim = Simulation::new(19);
                sim.enable_span_tracing();
                let h = sim.handle();
                let parts = rdma_bed_parts(&h, design, strategy);
                parts.1.enable_faults(h.fork_rng());
                let (bed, fabric, rpc_server) = parts;
                if let Some(at) = arm {
                    let h = h.clone();
                    sim.spawn(async move {
                        h.sleep_until(at).await;
                        fabric.drop_next_to(NodeId(0), 1);
                    });
                }
                let nfs_server = bed.server.clone();
                sim.block_on(async move {
                    let root = bed.server.root_handle();
                    let fh = bed.client.create(root, "f").await.unwrap().handle();
                    let buf = bed.client_mem.alloc(LEN as u64);
                    buf.write(0, Payload::synthetic(3, LEN as u64));
                    let n = bed.client.write(fh, 0, &buf, 0, LEN, false).await.unwrap();
                    assert_eq!(n, LEN, "{design:?}/{strategy:?}");
                    let (data, _) = bed.client.read(fh, 0, LEN, None).await.unwrap();
                    let intact = data.content_eq(&Payload::synthetic(3, LEN as u64));
                    assert!(intact, "{design:?}/{strategy:?}: corrupt contents");
                });
                (sim, nfs_server, rpc_server)
            };
            let (dry, ..) = run(None);
            let write = nfs::NfsProc::Write as u32;
            let service = dry
                .take_spans()
                .into_iter()
                .find(|s| (s.component, s.name, s.proc_num) == ("server", "service", Some(write)));
            let (sim, nfs_server, rpc_server) = run(Some(service.expect("a WRITE").start));

            let tag = format!("{design:?}/{strategy:?}");
            assert_eq!(sim.metrics().get("client.retransmits"), Some(1), "{tag}");
            assert_eq!(nfs_server.stats.writes.get(), 1, "{tag}");
            let written = sim.metrics().get("nfs.node1.bytes_written");
            assert_eq!(written, Some(LEN as u64), "{tag}");
            assert_eq!(rpc_server.stats.drc_replays.get(), 1, "{tag}");
            // Fetched twice, landed in the file system once.
            assert_eq!(rpc_server.stats.bulk_in.get(), 2 * LEN as u64, "{tag}");
        }
    }
}

#[test]
fn write_call_drop_retransmits_and_applies_once() {
    // The WRITE call itself is lost before the server sees it: the
    // retransmission is the first copy the server receives, so it
    // executes fresh (no DRC hit) — and still exactly once.
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(18);
        let h = sim.handle();
        let (bed, fabric, rpc_server) = fault_bed(&h, design);
        sim.block_on(async move {
            let root = bed.server.root_handle();
            let f = bed.client.create(root, "f").await.unwrap();
            let fh = f.handle();
            let buf = bed.client_mem.alloc(512);
            buf.write(0, Payload::synthetic(9, 512));

            // Next arrival at the server is the WRITE call Send.
            fabric.drop_next_to(NodeId(1), 1);
            let n = bed.client.write(fh, 0, &buf, 0, 512, false).await.unwrap();
            assert_eq!(n, 512, "{design:?}");

            assert_eq!(bed.server.stats.writes.get(), 1, "{design:?}");
            let cs = bed.client.rdma().unwrap().stats();
            assert!(cs.retransmits.get() >= 1, "{design:?}: no retransmission");
            assert_eq!(
                rpc_server.stats.drc_replays.get(),
                0,
                "{design:?}: server never saw the first copy, nothing to replay"
            );

            let (data, _) = bed.client.read(fh, 0, 512, None).await.unwrap();
            assert!(data.content_eq(&Payload::synthetic(9, 512)), "{design:?}");
        });
    }
}
