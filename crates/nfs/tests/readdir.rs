//! Directory listings a page at a time: READDIR/READDIRPLUS bounded by
//! `count`, resumed by cookie, over RPC/RDMA (both designs) and TCP —
//! and what a listing costs the client in registration, now that the
//! reply chunk is sized to the reply's bound.

use std::rc::Rc;

use fs_backend::{tmpfs, FileId, Tmpfs};
use ib_verbs::{connect, Fabric, Hca, HcaConfig, HostMem, NodeId, PhysLayout};
use net_stack::{TcpConfig, TcpNet};
use nfs::proto::{access, decode_res, readdir_reply_max, DirList, ReaddirArgs};
use nfs::{NfsClient, NfsError, NfsServer, NfsServerHandle, NfsStat, WireDirEntry, NFS_DTSIZE};
use onc_rpc::{
    serve_stream_bulk_connection, BulkService, BulkServiceRef, CallContext, StreamRpcClient,
};
use rpcrdma::{Design, RdmaRpcClient, RdmaRpcServer, Registrar, RpcRdmaConfig, StrategyKind};
use sim_core::{Cpu, CpuCosts, Sim, SimDuration, Simulation};
use xdr::XdrCodec;

struct Bed {
    client: Rc<NfsClient>,
    server: Rc<NfsServer>,
    /// The exported file system, for populating directories without a
    /// CREATE call per entry.
    fs: Rc<Tmpfs>,
    /// The client's HCA (RDMA beds): its registration counters.
    client_hca: Option<Hca>,
}

fn rdma_bed(sim: &Sim, design: Design, strategy: StrategyKind) -> Bed {
    let fabric = Fabric::new(sim);
    let mk = |id: u32| {
        let node = NodeId(id);
        let cpu = Cpu::new(sim, format!("cpu{id}"), 2, CpuCosts::default());
        let mem = Rc::new(HostMem::new(node, PhysLayout::default(), sim.fork_rng()));
        Hca::new(sim, node, HcaConfig::sdr(), cpu, mem, &fabric)
    };
    let (chca, shca) = (mk(0), mk(1));
    let fs = Rc::new(tmpfs(sim));
    let server = NfsServer::new(sim, 1, fs.clone());
    let cfg = RpcRdmaConfig::default().with_design(design);
    let (qc, qs) = connect(&chca, &shca);
    let handle = Rc::new(NfsServerHandle(server.clone()));
    RdmaRpcServer::new(sim, &shca, handle, Registrar::new(&shca, strategy), cfg)
        .serve_connection(qs);
    let registrar = Registrar::new(&chca, strategy);
    let (prog, vers) = (nfs::NFS_PROGRAM, nfs::NFS_VERSION);
    let rpc = RdmaRpcClient::new(sim, &chca, qc, registrar, cfg, prog, vers);
    Bed {
        client: Rc::new(NfsClient::over_rdma(sim, rpc)),
        server,
        fs,
        client_hca: Some(chca),
    }
}

/// Must be awaited inside the simulation.
async fn tcp_bed(sim: &Sim) -> Bed {
    let net = TcpNet::new(sim, TcpConfig::ipoib());
    net.attach(NodeId(0), Cpu::new(sim, "c", 2, CpuCosts::default()));
    net.attach(NodeId(1), Cpu::new(sim, "s", 2, CpuCosts::default()));
    let fs = Rc::new(tmpfs(sim));
    let server = NfsServer::new(sim, 1, fs.clone());
    let handle = NfsServerHandle(server.clone());
    let mut listener = net.listen(NodeId(1), 2049);
    let sim2 = sim.clone();
    sim.spawn(async move {
        loop {
            let conn = listener.accept().await;
            let svc: BulkServiceRef = Rc::new(handle.clone());
            sim2.spawn(serve_stream_bulk_connection(sim2.clone(), conn, svc));
        }
    });
    let stream = net.connect(NodeId(0), NodeId(1), 2049).await;
    let rpc = StreamRpcClient::new(sim, stream, nfs::NFS_PROGRAM, nfs::NFS_VERSION);
    Bed {
        client: Rc::new(NfsClient::over_tcp(sim, rpc)),
        server,
        fs,
        client_hca: None,
    }
}

/// Run `body` over RDMA Read-Write, RDMA Read-Read and TCP.
fn on_every_transport<F, Fut>(body: F)
where
    F: Fn(Sim, Bed, &'static str) -> Fut,
    Fut: std::future::Future<Output = ()> + 'static,
{
    for (label, design) in [
        ("rdma read-write", Some(Design::ReadWrite)),
        ("rdma read-read", Some(Design::ReadRead)),
        ("tcp", None),
    ] {
        let mut sim = Simulation::new(11);
        let h = sim.handle();
        let bed = match design {
            Some(design) => rdma_bed(&h, design, StrategyKind::Dynamic),
            None => {
                let h2 = h.clone();
                sim.block_on(async move { tcp_bed(&h2).await })
            }
        };
        sim.block_on(body(h, bed, label));
    }
}

/// A directory of `n` files whose names are `width` characters wide,
/// made behind the server's back. Returns it with the names in order.
fn populate(bed: &Bed, n: usize, width: usize) -> (FileId, Vec<String>) {
    let dir = bed.fs.mkdir(bed.fs.root(), "crowd").unwrap().id;
    let names: Vec<String> = (0..n).map(|i| format!("{i:0width$}")).collect();
    // Created back to front: listing order is the names', not creation's.
    for name in names.iter().rev() {
        bed.fs.create(dir, name).unwrap();
    }
    (dir, names)
}

/// READDIR calls the server has answered (`others` counts every call
/// that is not a READ or WRITE; these tests issue nothing else between
/// two samples).
fn calls(bed: &Bed) -> u64 {
    bed.server.stats.others.get()
}

#[test]
fn a_listing_of_several_pages_returns_every_entry_once_on_every_transport() {
    on_every_transport(|_sim, bed, label| async move {
        // 36 bytes an entry on the wire: ~900 to a 32 KiB page.
        let (dir, names) = populate(&bed, 3000, 8);
        let before = calls(&bed);
        let entries = bed.client.readdir(nfs::FileHandle(dir.0)).await.unwrap();
        let pages = calls(&bed) - before;
        assert!((3..=5).contains(&pages), "{label}: {pages} READDIR calls");
        let got: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(got, names, "{label}");
        assert!(entries.iter().all(|e| e.cookie != 0), "{label}");

        // READDIRPLUS entries are ~136 bytes: more pages, same names,
        // each with the attributes and handle a LOOKUP would return.
        let before = calls(&bed);
        let plus = bed.client.readdirplus(nfs::FileHandle(dir.0)).await;
        let plus = plus.unwrap();
        assert!(calls(&bed) - before >= 12, "{label}");
        assert_eq!(plus.len(), names.len(), "{label}");
        for ((entry, attr, fh), name) in plus.iter().zip(&names) {
            assert_eq!(&entry.name, name, "{label}");
            assert_eq!(attr.map(|a| a.fileid), Some(entry.fileid), "{label}");
            assert_eq!(fh.0, entry.fileid, "{label}");
        }
    });
}

#[test]
fn a_listing_past_the_old_one_mebibyte_ceiling_is_complete_on_every_transport() {
    on_every_transport(|_sim, bed, label| async move {
        // 128 bytes an entry: 9000 of them are 1.1 MiB of listing,
        // which the single 1 MiB reply chunk of old could not carry.
        let (dir, names) = populate(&bed, 9000, 100);
        let before = calls(&bed);
        let entries = bed.client.readdir(nfs::FileHandle(dir.0)).await.unwrap();
        let wire: usize = entries.iter().map(|e| 28 + e.name.len()).sum();
        assert!(wire > 1 << 20, "{label}: only {wire} bytes listed");
        assert!(calls(&bed) - before >= 32, "{label}");
        let got: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(got, names, "{label}");
    });
}

/// Every `period`, add and remove an entry of `dir` in one instant:
/// its change stamp moves, its contents do not.
fn churn(sim: &Sim, bed: &Bed, dir: FileId, period: SimDuration, rounds: u32) {
    let (sim2, fs) = (sim.clone(), bed.fs.clone());
    sim.spawn(async move {
        for _ in 0..rounds {
            sim2.sleep(period).await;
            fs.create(dir, "~churn").unwrap();
            fs.remove(dir, "~churn").unwrap();
        }
    });
}

#[test]
fn a_directory_changed_between_pages_restarts_the_listing() {
    on_every_transport(|sim, bed, label| async move {
        let (dir, names) = populate(&bed, 3000, 8);
        // Changes for the first while, across the first page boundary
        // at least (one call takes upward of 50 us on every transport).
        churn(&sim, &bed, dir, SimDuration::from_micros(40), 25);
        let before = calls(&bed);
        let entries = bed.client.readdir(nfs::FileHandle(dir.0)).await.unwrap();
        let spent = calls(&bed) - before;
        assert!(spent > 4, "{label}: no restart in {spent} calls");
        assert!(spent <= 5 * 4, "{label}: {spent} calls");
        let got: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(got, names, "{label}: a restarted listing repeats nothing");
    });
}

#[test]
fn a_directory_that_never_holds_still_fails_the_listing_after_bounded_restarts() {
    on_every_transport(|sim, bed, label| async move {
        let (dir, _names) = populate(&bed, 3000, 8);
        // For 80 ms: far longer than the ten calls below take.
        churn(&sim, &bed, dir, SimDuration::from_micros(40), 2000);
        let before = calls(&bed);
        let err = bed
            .client
            .readdir(nfs::FileHandle(dir.0))
            .await
            .unwrap_err();
        assert!(
            matches!(err, NfsError::Status(NfsStat::BadCookie)),
            "{label}: {err:?}"
        );
        // The first attempt and four restarts, each a page and a refusal.
        assert_eq!(calls(&bed) - before, 10, "{label}");
    });
}

/// One READDIR from the start of `dir` asking for `count` bytes, put to
/// the server directly: the decoded `resok` (or status) and the size of
/// the reply body.
fn readdir_once(
    sim: &mut Simulation,
    bed: &Bed,
    dir: FileId,
    count: u32,
) -> (Result<DirList<WireDirEntry>, NfsStat>, usize) {
    let args = ReaddirArgs {
        dir: nfs::FileHandle(dir.0),
        cookie: 0,
        cookieverf: 0,
        dircount: None,
        count,
    };
    let mut enc = xdr::Encoder::new();
    args.encode(&mut enc);
    let cx = CallContext {
        peer: 0,
        prog: nfs::NFS_PROGRAM,
        vers: nfs::NFS_VERSION,
        xid: 1,
        trace: Default::default(),
    };
    let svc = NfsServerHandle(bed.server.clone());
    let reply = sim.block_on(BulkService::call(
        &svc,
        cx,
        nfs::NfsProc::Readdir as u32,
        enc.finish(),
        None,
    ));
    let size = reply.head.len();
    let decode = |d: &mut xdr::Decoder| DirList::decode(d, WireDirEntry::decode);
    (decode_res(reply.head, decode).unwrap(), size)
}

#[test]
fn the_server_fills_count_bytes_no_more_and_refuses_a_count_too_small() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let bed = rdma_bed(&h, Design::ReadWrite, StrategyKind::Dynamic);
    let (dir, _) = populate(&bed, 3000, 8);
    // 16 bytes around the entries, 36 for each.
    let (page, _) = readdir_once(&mut sim, &bed, dir, 51);
    assert_eq!(page.unwrap_err(), NfsStat::TooSmall);
    let (page, size) = readdir_once(&mut sim, &bed, dir, 52);
    let page = page.unwrap();
    assert_eq!((page.entries.len(), page.eof, size), (1, false, 4 + 52));
    let (page, size) = readdir_once(&mut sim, &bed, dir, 16 + 3 * 36 + 35);
    let page = page.unwrap();
    assert_eq!(
        (page.entries.len(), page.eof, size),
        (3, false, 4 + 16 + 3 * 36)
    );
    // Whatever is asked, one reply carries NFS_DTSIZE at most.
    let (page, size) = readdir_once(&mut sim, &bed, dir, u32::MAX);
    assert!(!page.unwrap().eof);
    assert!(size <= 4 + NFS_DTSIZE as usize && size > NFS_DTSIZE as usize - 36);
}

/// What one call costs the client's HCA: (registrations, pages pinned).
async fn reg_cost<T>(hca: &Hca, call: impl std::future::Future<Output = T>) -> (u64, u64) {
    let before = hca.reg_stats();
    call.await;
    let after = hca.reg_stats();
    (
        after.dynamic_regs - before.dynamic_regs,
        after.pages_pinned - before.pages_pinned,
    )
}

#[test]
fn a_listing_registers_its_count_and_small_calls_register_nothing() {
    // The reply chunk of a READDIR: its count plus the words around it,
    // to the page.
    let chunk_pages = readdir_reply_max(NFS_DTSIZE).div_ceil(ib_verbs::PAGE_SIZE);
    assert_eq!(chunk_pages, 9, "was 256 (1 MiB) for every listing");
    for strategy in [StrategyKind::AllPhysical, StrategyKind::Dynamic] {
        let mut sim = Simulation::new(3);
        let h = sim.handle();
        let bed = rdma_bed(&h, Design::ReadWrite, strategy);
        sim.block_on(async move {
            let (client, hca) = (&bed.client, bed.client_hca.as_ref().unwrap());
            let root = bed.server.root_handle();
            let dir = client.mkdir(root, "d").await.unwrap().handle();
            for i in 0..8 {
                client.create(dir, &format!("f{i:02}")).await.unwrap();
            }
            let sub = client.mkdir(dir, "sub").await.unwrap().handle();

            // Fixed-size replies: no reply chunk, so nothing to register.
            assert_eq!(reg_cost(hca, client.getattr(sub)).await, (0, 0));
            assert_eq!(reg_cost(hca, client.lookup(dir, "f03")).await, (0, 0));
            assert_eq!(
                reg_cost(hca, client.access(sub, access::READ)).await,
                (0, 0)
            );

            let mut listed = 0;
            let cost = reg_cost(hca, async {
                listed = client.readdir(dir).await.unwrap().len();
            });
            let (regs, pages) = cost.await;
            assert_eq!(listed, 9);
            match strategy {
                // Pinning only, of the one chunk.
                StrategyKind::AllPhysical => assert_eq!((regs, pages), (0, chunk_pages)),
                // One TPT registration of that many pages.
                _ => assert_eq!((regs, pages), (1, chunk_pages)),
            }
        });
    }
}
