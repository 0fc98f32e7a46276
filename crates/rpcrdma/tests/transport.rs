//! End-to-end RPC/RDMA transport tests: both designs, every
//! registration strategy, bulk paths, long calls/replies, security
//! properties, and failure injection.

use std::cell::Cell;
use std::num::NonZeroU32;
use std::rc::Rc;

use bytes::Bytes;
use ib_verbs::{connect, Fabric, Hca, HcaConfig, HostMem, NodeId, PhysLayout};
use onc_rpc::{AcceptStat, BulkDispatch, BulkService, CallContext, LocalBoxFuture};
use rpcrdma::{
    BulkParams, Design, RdmaRpcClient, RdmaRpcServer, Registrar, RpcRdmaConfig, StrategyKind,
};
use sim_core::{Cpu, CpuCosts, Payload, Sim, SimDuration, Simulation, SpanRecord};

const PROG: u32 = 100003;
const VERS: u32 = 3;

/// A toy "file server": proc 1 = read(len), proc 2 = write(data),
/// proc 3 = echo args, proc 4 = bigdir (returns a long head).
struct ToyFs {
    seed: u64,
}

impl BulkService for ToyFs {
    fn program(&self) -> u32 {
        PROG
    }
    fn version(&self) -> u32 {
        VERS
    }
    fn call(
        &self,
        _cx: CallContext,
        proc_num: u32,
        args: Bytes,
        bulk_in: Option<sim_core::SgList>,
    ) -> LocalBoxFuture<BulkDispatch> {
        let seed = self.seed;
        Box::pin(async move {
            match proc_num {
                // read: args = len(u32); returns that much synthetic data
                1 => {
                    let mut dec = xdr::Decoder::new(&args);
                    let len = dec.get_u32().unwrap_or(0) as u64;
                    let mut enc = xdr::Encoder::new();
                    enc.put_u32(len as u32);
                    BulkDispatch::success_flat(enc.finish(), Some(Payload::synthetic(seed, len)))
                }
                // write: bulk_in is the data; returns its checksum-ish len
                2 => {
                    let data = bulk_in.expect("write without bulk");
                    let sum: u64 = data.materialize().iter().map(|&b| b as u64).sum();
                    let mut enc = xdr::Encoder::new();
                    enc.put_u32(data.len() as u32).put_u64(sum);
                    BulkDispatch::success(enc.finish(), None)
                }
                // echo
                3 => BulkDispatch::success(args, None),
                // bigdir: returns a head of the requested size (long reply)
                4 => {
                    let mut dec = xdr::Decoder::new(&args);
                    let len = dec.get_u32().unwrap_or(0) as usize;
                    let mut enc = xdr::Encoder::new();
                    enc.put_opaque(&vec![0x2f; len]);
                    BulkDispatch::success(enc.finish(), None)
                }
                _ => BulkDispatch::error(AcceptStat::ProcUnavail),
            }
        })
    }
}

struct TestBed {
    client: RdmaRpcClient,
    server: Rc<RdmaRpcServer>,
    client_hca: Hca,
    server_hca: Hca,
    client_mem: Rc<HostMem>,
    server_mem: Rc<HostMem>,
    fabric: Fabric<ib_verbs::WireMsg>,
    /// The server's end of the first connection.
    server_qp: ib_verbs::Qp,
    /// The two ends' registrars (clones share the cache and FMR pool).
    client_reg: Registrar,
    server_reg: Registrar,
}

fn setup(sim: &Sim, design: Design, strategy: StrategyKind) -> TestBed {
    setup_with(sim, RpcRdmaConfig::default().with_design(design), strategy)
}

/// Host `id` on `fabric`: its HCA and memory.
fn host_on(
    sim: &Sim,
    fabric: &Fabric<ib_verbs::WireMsg>,
    id: u32,
    costs: CpuCosts,
    hca: HcaConfig,
) -> (Hca, Rc<HostMem>) {
    let node = NodeId(id);
    let cpu = Cpu::new(sim, format!("cpu{id}"), 2, costs);
    let mem = Rc::new(HostMem::new(node, PhysLayout::default(), sim.fork_rng()));
    let hca = Hca::new(sim, node, hca, cpu, mem.clone(), fabric);
    (hca, mem)
}

fn setup_with(sim: &Sim, cfg: RpcRdmaConfig, strategy: StrategyKind) -> TestBed {
    setup_on(sim, cfg, strategy, CpuCosts::default())
}

/// The `solaris_sdr` profile's CPU cost table (`workloads::profiles`),
/// for tests that pin simulated durations.
fn solaris_sdr_cpu() -> CpuCosts {
    CpuCosts {
        copy_ns_per_byte: 0.9,
        interrupt_ns: 6_000,
        server_op_serial: SimDuration::from_micros(180),
        per_op_client_cpu: SimDuration::from_micros(18),
        per_op_server_cpu: SimDuration::from_micros(12),
    }
}

/// The completed spans of the server's pipeline stages, in id order.
fn server_spans(sim: &Simulation) -> Vec<SpanRecord> {
    let mut spans = sim.take_spans();
    spans.retain(|s| s.component == "server");
    spans
}

fn setup_on(sim: &Sim, cfg: RpcRdmaConfig, strategy: StrategyKind, costs: CpuCosts) -> TestBed {
    let service = Rc::new(ToyFs { seed: 42 });
    setup_serving(sim, cfg, strategy, (costs, HcaConfig::sdr()), service)
}

/// The `linux_ddr_raid` profile's CPU and HCA cost tables
/// (`workloads::profiles`): the Fig 10 / `raid_read` machines.
fn linux_ddr_raid_costs() -> (CpuCosts, HcaConfig) {
    let cpu = CpuCosts {
        copy_ns_per_byte: 0.45,
        interrupt_ns: 4_000,
        server_op_serial: SimDuration::from_micros(22),
        per_op_client_cpu: SimDuration::from_micros(10),
        per_op_server_cpu: SimDuration::from_micros(7),
    };
    let hca = HcaConfig {
        link_bandwidth: 950_000_000,
        ..HcaConfig::ddr()
    };
    (cpu, hca)
}

/// The `linux_sdr` profile's CPU and HCA cost tables
/// (`workloads::profiles`): the `meta_mix` machines.
fn linux_sdr_costs() -> (CpuCosts, HcaConfig) {
    let us = SimDuration::from_micros;
    let hca = HcaConfig {
        tpt_register_base: us(25),
        tpt_register_per_page: us(5),
        tpt_invalidate_base: us(20),
        tpt_invalidate_per_page: SimDuration::from_nanos(1_500),
        fmr_map_base: us(20),
        fmr_map_per_page: SimDuration::from_nanos(3_500),
        fmr_unmap: us(35),
        ..HcaConfig::sdr()
    };
    (linux_ddr_raid_costs().0, hca)
}

fn setup_serving(
    sim: &Sim,
    cfg: RpcRdmaConfig,
    strategy: StrategyKind,
    (costs, hca): (CpuCosts, HcaConfig),
    service: Rc<dyn BulkService>,
) -> TestBed {
    let fabric = Fabric::new(sim);
    let (client_hca, client_mem) = host_on(sim, &fabric, 0, costs, hca);
    let (server_hca, server_mem) = host_on(sim, &fabric, 1, costs, hca);
    let (qc, qs) = connect(&client_hca, &server_hca);
    let server_reg = Registrar::new(&server_hca, strategy);
    let server = RdmaRpcServer::new(sim, &server_hca, service, server_reg.clone(), cfg);
    server.serve_connection(qs.clone());
    let client_reg = Registrar::new(&client_hca, strategy);
    let client = RdmaRpcClient::new(sim, &client_hca, qc, client_reg.clone(), cfg, PROG, VERS);
    TestBed {
        client,
        server,
        client_hca,
        server_hca,
        client_mem,
        server_mem,
        fabric,
        server_qp: qs,
        client_reg,
        server_reg,
    }
}

/// Give the client a recovery path: tear down the server's half of the
/// dead connection, connect a fresh pair, hand the server its end.
/// Returns the server's live end, updated at every reconnection.
fn install_connector(bed: &TestBed) -> Rc<std::cell::RefCell<ib_verbs::Qp>> {
    let live = Rc::new(std::cell::RefCell::new(bed.server_qp.clone()));
    let old = live.clone();
    let (chca, shca) = (bed.client_hca.clone(), bed.server_hca.clone());
    let server = bed.server.clone();
    bed.client.set_connector(move || {
        old.borrow().force_error();
        let (qc, qs) = connect(&chca, &shca);
        server.serve_connection(qs.clone());
        *old.borrow_mut() = qs;
        Box::pin(async move { qc })
    });
    live
}

fn all_strategies() -> [StrategyKind; 4] {
    [
        StrategyKind::Dynamic,
        StrategyKind::Fmr,
        StrategyKind::Cache,
        StrategyKind::AllPhysical,
    ]
}

/// Strategies whose scratch windows cost TPT transactions per use.
fn strategy_registers(strategy: StrategyKind) -> bool {
    matches!(strategy, StrategyKind::Dynamic | StrategyKind::Fmr)
}

fn read_args(len: u32) -> Bytes {
    let mut enc = xdr::Encoder::new();
    enc.put_u32(len);
    enc.finish()
}

#[test]
fn inline_echo_roundtrip_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let client = bed.client.clone();
        let got = sim.block_on(async move {
            client
                .call(
                    3,
                    Bytes::from_static(b"hello rpc-rdma!!"),
                    BulkParams::default(),
                )
                .await
                .unwrap()
        });
        assert_eq!(&got.body[..], b"hello rpc-rdma!!");
        assert!(got.bulk.is_none());
    }
}

#[test]
fn bulk_read_delivers_correct_data_every_design_and_strategy() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in all_strategies() {
            let mut sim = Simulation::new(7);
            let h = sim.handle();
            let bed = setup(&h, design, strategy);
            let client = bed.client.clone();
            let user = bed.client_mem.alloc(256 * 1024);
            let user2 = user.clone();
            let got = sim.block_on(async move {
                client
                    .call(
                        1,
                        read_args(200_000),
                        BulkParams {
                            recv_max: Some(256 * 1024),
                            recv_user: Some((user2, 0)),
                            ..Default::default()
                        },
                    )
                    .await
                    .unwrap()
            });
            let bulk = got.bulk.expect("bulk read data");
            assert_eq!(bulk.len(), 200_000, "{design:?}/{strategy:?}");
            assert!(
                bulk.content_eq(&Payload::synthetic(42, 200_000)),
                "data corrupted under {design:?}/{strategy:?}"
            );
            // The user buffer received the same bytes.
            assert!(user
                .read(0, 200_000)
                .content_eq(&Payload::synthetic(42, 200_000)));
        }
    }
}

#[test]
fn bulk_write_roundtrips_every_design_and_strategy() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in all_strategies() {
            let mut sim = Simulation::new(3);
            let h = sim.handle();
            let bed = setup(&h, design, strategy);
            let client = bed.client.clone();
            let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
            let expect_sum: u64 = data.iter().map(|&b| b as u64).sum();
            let user = bed.client_mem.alloc(128 * 1024);
            user.write(0, Payload::real(data));
            let got = sim.block_on(async move {
                client
                    .call(
                        2,
                        Bytes::new(),
                        BulkParams {
                            send: Some((user, 0, 100_000)),
                            ..Default::default()
                        },
                    )
                    .await
                    .unwrap()
            });
            let mut dec = xdr::Decoder::new(&got.body);
            assert_eq!(dec.get_u32().unwrap(), 100_000, "{design:?}/{strategy:?}");
            assert_eq!(
                dec.get_u64().unwrap(),
                expect_sum,
                "write data corrupted under {design:?}/{strategy:?}"
            );
        }
    }
}

#[test]
fn long_reply_roundtrips_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(5);
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let client = bed.client.clone();
        let got = sim.block_on(async move {
            client
                .call(
                    4,
                    read_args(50_000),
                    BulkParams {
                        reply_max: Some(128 * 1024),
                        ..Default::default()
                    },
                )
                .await
                .unwrap()
        });
        let mut dec = xdr::Decoder::new(&got.body);
        let dir = dec.get_opaque().unwrap();
        assert_eq!(dir.len(), 50_000, "{design:?}");
        assert!(dir.iter().all(|&b| b == 0x2f));
    }
}

#[test]
fn long_call_roundtrips_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(5);
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let client = bed.client.clone();
        // Args far beyond the 1 KiB inline threshold force RDMA_NOMSG.
        // The echo reply is equally large, so provision a reply chunk.
        let big_args: Vec<u8> = (0..20_000u32).map(|i| (i % 199) as u8).collect();
        let expect = big_args.clone();
        let got = sim.block_on(async move {
            client
                .call(
                    3,
                    Bytes::from(big_args),
                    BulkParams {
                        reply_max: Some(64 * 1024),
                        ..Default::default()
                    },
                )
                .await
                .unwrap()
        });
        assert_eq!(&got.body[..], &expect[..], "{design:?}");
    }
}

#[test]
fn oversize_reply_without_reply_chunk_fails_cleanly() {
    // A Read-Write client that provisions no reply chunk for a long
    // reply gets an RPC error, not a hung call.
    let mut sim = Simulation::new(5);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Dynamic);
    let client = bed.client.clone();
    let err = sim.block_on(async move {
        client
            .call(4, read_args(50_000), BulkParams::default())
            .await
            .unwrap_err()
    });
    assert!(matches!(err, onc_rpc::RpcError::Rejected(_)), "{err:?}");
}

/// A reply larger than the reply chunk provisioned for it used to be
/// cut off at the chunk's last segment and fail in the client's XDR
/// decode as if corrupt. Read-Write: refused before any RDMA Write,
/// typed error, counted. Read-Read has no client-provisioned chunk to
/// outgrow (the server exposes what the reply needs), so the same call
/// succeeds whole.
#[test]
fn reply_larger_than_its_reply_chunk_is_refused_not_truncated() {
    let hca_writes = |sim: &mut Simulation| {
        let spans = sim.take_spans();
        let writes = spans
            .iter()
            .filter(|s| (s.component, s.name) == ("hca", "rdma_write"));
        writes.count()
    };
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(5);
        sim.enable_span_tracing();
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let bigdir = |len: u32, reply_max: u64| {
            let client = bed.client.clone();
            let bulk = BulkParams {
                reply_max: Some(reply_max),
                ..Default::default()
            };
            async move { client.call(4, read_args(len), bulk).await }
        };
        // Control: a reply that fits its chunk travels by RDMA Write
        // (Read-Write) and arrives whole.
        let fits = sim.block_on(bigdir(20_000, 32 * 1024)).unwrap();
        assert_eq!(fits.body.len(), 4 + 20_000, "{design:?}");
        let control = hca_writes(&mut sim);
        assert_eq!(control > 0, design == Design::ReadWrite, "{design:?}");

        let regs_before = bed.server_hca.reg_stats().dynamic_regs;
        let got = sim.block_on(bigdir(50_000, 32 * 1024));
        let overflows = h.metrics().get("server.reply_chunk_overflows");
        match design {
            Design::ReadWrite => {
                let err = got.unwrap_err();
                assert!(
                    matches!(err, onc_rpc::RpcError::Rejected(AcceptStat::GarbageArgs)),
                    "{err:?}"
                );
                assert_eq!(overflows, Some(1));
                assert_eq!(hca_writes(&mut sim), 0, "a Write was posted");
                // Nor was the reply staged for one.
                assert_eq!(bed.server_hca.reg_stats().dynamic_regs, regs_before);
            }
            Design::ReadRead => {
                assert_eq!(got.unwrap().body.len(), 4 + 50_000);
                assert_eq!(overflows, Some(0));
            }
        }
        // The connection is still good.
        let client = bed.client.clone();
        let echo = sim.block_on(async move {
            let args = Bytes::from_static(b"still here");
            client.call(3, args, BulkParams::default()).await
        });
        assert_eq!(&echo.unwrap().body[..10], b"still here", "{design:?}");
    }
}

/// The first call a client sends, as it lands: the receive completion
/// (the header and inline bytes, and the piece a gathered Send carried
/// behind them), and the client's CPU busy time and registration counts
/// at that instant.
struct Landed {
    recv: ib_verbs::Completion,
    busy: SimDuration,
    client: ib_verbs::RegStats,
}

/// Issue call `proc_num` with `bulk` (built on the client's memory) from
/// a (`strategy`, `costs`) client whose peer is a bare queue pair with
/// one receive posted, and nobody answers.
fn first_send(
    (strategy, costs): (StrategyKind, (CpuCosts, HcaConfig)),
    proc_num: u32,
    bulk: impl FnOnce(&HostMem) -> BulkParams,
) -> Landed {
    let mut sim = Simulation::new(9);
    let h = sim.handle();
    let fabric = Fabric::new(&h);
    let (client_hca, client_mem) = host_on(&h, &fabric, 0, costs.0, costs.1);
    let (peer_hca, _) = host_on(&h, &fabric, 1, costs.0, costs.1);
    let (qc, qs) = connect(&client_hca, &peer_hca);
    let cfg = RpcRdmaConfig::default();
    let registrar = Registrar::new(&client_hca, strategy);
    let client = RdmaRpcClient::new(&h, &client_hca, qc, registrar, cfg, PROG, VERS);
    let landing = peer_hca.mem().alloc(cfg.recv_size());
    qs.post_recv(landing, 0, cfg.recv_size(), ib_verbs::WrId(0))
        .unwrap();
    let bulk = bulk(&client_mem);
    sim.spawn(async move {
        let _ = client.call(proc_num, Bytes::new(), bulk).await;
    });
    sim.block_on(async move {
        let recv = qs.recv_cq().next().await;
        let busy = client_hca.cpu().busy_time();
        let client = client_hca.reg_stats();
        Landed { recv, busy, client }
    })
}

/// The call header a client puts on the wire for `bulk`.
fn call_header_for(bulk: BulkParams) -> rpcrdma::RdmaHeader {
    let costs = (CpuCosts::default(), HcaConfig::sdr());
    let landed = first_send((StrategyKind::Dynamic, costs), 3, |_| bulk);
    decode_header(&landed.recv.payload.unwrap())
}

fn decode_header(wire: &Payload) -> rpcrdma::RdmaHeader {
    use xdr::XdrCodec;
    rpcrdma::RdmaHeader::decode(&mut xdr::Decoder::new(&wire.materialize())).unwrap()
}

#[test]
fn reply_chunk_is_provisioned_only_past_the_inline_threshold_and_to_the_page() {
    let with = |reply_max| {
        call_header_for(BulkParams {
            reply_max,
            ..Default::default()
        })
    };
    let inline = RpcRdmaConfig::default().inline_threshold;
    assert!(with(None).reply_chunk.is_none());
    // A reply that can only arrive inline needs no chunk to land in.
    assert!(with(Some(200)).reply_chunk.is_none());
    assert!(with(Some(inline)).reply_chunk.is_none());
    let provisioned = |reply_max| {
        let segs = with(Some(reply_max)).reply_chunk.expect("a reply chunk");
        segs.iter().map(|s| s.len).sum::<u64>()
    };
    assert_eq!(provisioned(inline + 1), 4096);
    assert_eq!(provisioned(32 * 1024 + 28), 36 * 1024);
}

#[test]
fn read_write_design_never_exposes_server_memory() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Dynamic);
    let client = bed.client.clone();
    sim.block_on(async move {
        for _ in 0..5 {
            client
                .call(
                    1,
                    read_args(100_000),
                    BulkParams {
                        recv_max: Some(128 * 1024),
                        ..Default::default()
                    },
                )
                .await
                .unwrap();
        }
    });
    let server_report = bed.server_hca.exposure_report();
    assert_eq!(
        server_report.exposures, 0,
        "Read-Write design must never remotely expose server buffers"
    );
    assert_eq!(server_report.current_bytes, 0);
    // The client necessarily exposes its sink buffers.
    let client_report = bed.client_hca.exposure_report();
    assert!(client_report.exposures > 0);
}

#[test]
fn read_read_design_exposes_server_memory() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadRead, StrategyKind::Dynamic);
    let client = bed.client.clone();
    sim.block_on(async move {
        for _ in 0..5 {
            client
                .call(
                    1,
                    read_args(100_000),
                    BulkParams {
                        recv_max: Some(128 * 1024),
                        ..Default::default()
                    },
                )
                .await
                .unwrap();
        }
    });
    let server_report = bed.server_hca.exposure_report();
    assert_eq!(server_report.exposures, 5, "each READ exposes a buffer");
    assert!(server_report.byte_us > 0);
    // RDMA_DONE was sent and processed; nothing left pinned.
    assert_eq!(bed.server.stats.dones.get(), 5);
    assert_eq!(bed.server.stats.exposures_pending.get(), 0);
    assert_eq!(server_report.current_bytes, 0);
}

#[test]
fn read_read_eliminated_messages_show_up_as_more_interrupts() {
    // The RW design removes the RDMA_DONE message and the server wait;
    // measure message counts via stats.
    let run = |design: Design| {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let client = bed.client.clone();
        let user = bed.client_mem.alloc(65_536);
        sim.block_on(async move {
            for _ in 0..10 {
                client
                    .call(
                        1,
                        read_args(65_536),
                        BulkParams {
                            recv_max: Some(65_536),
                            recv_user: Some((user.clone(), 0)),
                            ..Default::default()
                        },
                    )
                    .await
                    .unwrap();
            }
        });
        (
            bed.client.stats().dones_sent.get(),
            bed.client.stats().copied_bytes.get(),
        )
    };
    let (dones_rr, copies_rr) = run(Design::ReadRead);
    let (dones_rw, copies_rw) = run(Design::ReadWrite);
    assert_eq!(dones_rr, 10);
    assert_eq!(dones_rw, 0, "Read-Write eliminates RDMA_DONE");
    assert!(copies_rr > 0, "Read-Read copies on the client");
    assert_eq!(copies_rw, 0, "zero-copy direct I/O path");
}

#[test]
fn read_write_is_faster_than_read_read() {
    // Figure 5's headline: same workload, same strategy, RW > RR.
    let run = |design: Design| {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let client = bed.client.clone();
        sim.block_on(async move {
            for _ in 0..50 {
                client
                    .call(
                        1,
                        read_args(131_072),
                        BulkParams {
                            recv_max: Some(131_072),
                            ..Default::default()
                        },
                    )
                    .await
                    .unwrap();
            }
        });
        sim.now().as_secs_f64()
    };
    let t_rr = run(Design::ReadRead);
    let t_rw = run(Design::ReadWrite);
    assert!(
        t_rw < t_rr,
        "Read-Write ({t_rw:.6}s) must beat Read-Read ({t_rr:.6}s)"
    );
}

#[test]
fn cache_strategy_is_faster_than_dynamic_after_warmup() {
    let run = |strategy: StrategyKind| {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let bed = setup(&h, Design::ReadWrite, strategy);
        let client = bed.client.clone();
        sim.block_on(async move {
            for _ in 0..50 {
                client
                    .call(
                        1,
                        read_args(131_072),
                        BulkParams {
                            recv_max: Some(131_072),
                            ..Default::default()
                        },
                    )
                    .await
                    .unwrap();
            }
        });
        sim.now().as_secs_f64()
    };
    let t_dyn = run(StrategyKind::Dynamic);
    let t_cache = run(StrategyKind::Cache);
    assert!(
        t_cache * 1.4 < t_dyn,
        "cache ({t_cache:.6}s) should be much faster than dynamic ({t_dyn:.6}s)"
    );
}

#[test]
fn malicious_client_withholding_done_pins_server_buffers() {
    // §4.1: a client that never sends RDMA_DONE ties up server
    // resources. We simulate by running Read-Read and counting
    // pending exposures mid-flight — the exposure exists from reply
    // until DONE; a crashed client leaves it forever. Here we verify
    // the window exists and is attributable.
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadRead, StrategyKind::Dynamic);
    let client = bed.client.clone();
    sim.block_on(async move {
        client
            .call(
                1,
                read_args(100_000),
                BulkParams {
                    recv_max: Some(128 * 1024),
                    ..Default::default()
                },
            )
            .await
            .unwrap();
    });
    // Normal flow: exposure opened then closed by DONE.
    assert_eq!(bed.server.stats.dones.get(), 1);
    assert_eq!(bed.server.stats.exposures_pending.get(), 0);
    let report = bed.server_hca.exposure_report();
    // The exposure window integrated nonzero byte-time: the attack
    // surface the Read-Write design removes entirely.
    assert!(report.byte_us > 0);
}

#[test]
fn concurrent_calls_from_many_tasks() {
    let mut sim = Simulation::new(9);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Cache);
    let done = sim_core::sync::Semaphore::new(0);
    for i in 0..16u32 {
        let client = bed.client.clone();
        let done = done.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            let _ = h2;
            let len = 10_000 + i * 1000;
            let got = client
                .call(
                    1,
                    read_args(len),
                    BulkParams {
                        recv_max: Some(len as u64),
                        ..Default::default()
                    },
                )
                .await
                .unwrap();
            let bulk = got.bulk.unwrap();
            assert_eq!(bulk.len(), len as u64);
            assert!(bulk.content_eq(&Payload::synthetic(42, len as u64)));
            done.add_permits(1);
        });
    }
    sim.block_on(async move {
        for _ in 0..16 {
            done.acquire().await.forget();
        }
    });
    assert_eq!(bed.server.stats.ops.get(), 16);
}

#[test]
fn no_leaked_registrations_after_quiesce() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in [StrategyKind::Dynamic, StrategyKind::Fmr] {
            let mut sim = Simulation::new(2);
            let h = sim.handle();
            let bed = setup(&h, design, strategy);
            let client = bed.client.clone();
            let user = bed.client_mem.alloc(128 * 1024);
            sim.block_on(async move {
                for _ in 0..8 {
                    client
                        .call(
                            1,
                            read_args(100_000),
                            BulkParams {
                                recv_max: Some(128 * 1024),
                                ..Default::default()
                            },
                        )
                        .await
                        .unwrap();
                    client
                        .call(
                            2,
                            Bytes::new(),
                            BulkParams {
                                send: Some((user.clone(), 0, 65_536)),
                                ..Default::default()
                            },
                        )
                        .await
                        .unwrap();
                }
            });
            sim.run();
            for hca in [&bed.client_hca, &bed.server_hca] {
                let stats = hca.reg_stats();
                assert_eq!(
                    stats.leaked_mrs, 0,
                    "leaked MRs under {design:?}/{strategy:?}"
                );
                assert_eq!(
                    stats.dynamic_regs + stats.fmr_maps,
                    stats.deregs + stats.fmr_unmaps,
                    "unbalanced reg/dereg under {design:?}/{strategy:?}"
                );
            }
        }
    }
}

/// Pinned-page closure at quiescence, for every strategy and both
/// designs: bursts of concurrent READs and WRITEs of mixed sizes, the
/// client's QP forced into error mid-burst (recovery reconnects, the
/// server tears the old connection down, the calls retransmit), then
/// the server's live connection torn down too. Once the simulation has
/// drained, each HCA still pins exactly the pages of the slab entries
/// its registration cache parks — none under the other three
/// strategies — and no region was dropped still registered. An unpin that
/// never ran, or a window dropped without its release, fails here by
/// bed and host.
#[test]
fn every_pinned_page_is_unpinned_or_parked_at_quiescence() {
    const TASKS: u64 = 6;
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in all_strategies() {
            let tag = format!("{design:?}/{strategy:?}");
            let mut sim = Simulation::new(83);
            let h = sim.handle();
            let bed = setup(&h, design, strategy);
            let live = install_connector(&bed);
            let done = sim_core::sync::Semaphore::new(0);
            for t in 0..TASKS {
                let (client, done) = (bed.client.clone(), done.clone());
                let user = bed.client_mem.alloc(128 * 1024);
                user.write(0, Payload::synthetic(t, 128 * 1024));
                sim.spawn(async move {
                    for i in 0..4 {
                        let len = 16 * 1024 * (1 + (t + i) % 8);
                        let read = BulkParams {
                            recv_max: Some(len),
                            ..Default::default()
                        };
                        let got = client.call(1, read_args(len as u32), read).await;
                        assert_eq!(got.unwrap().bulk.unwrap().len(), len);
                        let write = BulkParams {
                            send: Some((user.clone(), 0, len)),
                            ..Default::default()
                        };
                        client.call(2, Bytes::new(), write).await.unwrap();
                    }
                    done.add_permits(1);
                });
            }
            let client = bed.client.clone();
            sim.block_on(async move {
                h.sleep(SimDuration::from_micros(400)).await;
                client.inject_qp_error();
                for _ in 0..TASKS {
                    done.acquire().await.forget();
                }
            });
            live.borrow().force_error();
            sim.run();
            assert_eq!(bed.client.stats().reconnects.get(), 1, "{tag}");
            let hosts = [
                ("client", &bed.client_hca, &bed.client_reg),
                ("server", &bed.server_hca, &bed.server_reg),
            ];
            for (host, hca, reg) in hosts {
                let s = hca.reg_stats();
                let parked = reg.cache().map_or(0, |c| c.free_bytes() / 4096);
                assert_eq!(s.leaked_mrs, 0, "{tag}: the {host} leaked a region");
                assert_eq!(
                    s.pages_pinned - s.pages_unpinned,
                    parked,
                    "{tag}: the {host} holds pages nobody parks"
                );
                assert!(s.pages_pinned > 0, "{tag}: the {host} never pinned");
            }
        }
    }
}

/// Host-memory closure at quiescence, beside the pinned-page one, for
/// every strategy and both designs: bursts of WRITEs on both sides of
/// the page boundary — `RDMA_MSGP` Sends gathering the caller's data into
/// the peer's receive buffers, and chunked ones the server fetches into
/// scratch windows — the client's QP forced into error mid-burst and the
/// connection recovered, then the server's live connection torn down.
/// Once the simulation has drained and the registration caches are
/// flushed, each host holds exactly the buffers it held once mounted:
/// the callers' own and one connection's receive windows — after the
/// teardown, the server's one window fewer. A receive window, fetch
/// window or slab entry stranded anywhere fails here by bed and host.
#[test]
fn every_buffer_is_freed_or_owned_at_quiescence() {
    const TASKS: u64 = 4;
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in all_strategies() {
            let tag = format!("{design:?}/{strategy:?}");
            let mut sim = Simulation::new(85);
            let h = sim.handle();
            let bed = setup(&h, design, strategy);
            let live = install_connector(&bed);
            let users: Vec<_> = (0..TASKS)
                .map(|t| {
                    let user = bed.client_mem.alloc(64 * 1024);
                    user.write(0, Payload::synthetic(t, 64 * 1024));
                    user
                })
                .collect();
            sim.run();
            let hosts = [("client", &bed.client_mem), ("server", &bed.server_mem)];
            let mounted = hosts.map(|(_, mem)| mem.live_buffers());
            let done = sim_core::sync::Semaphore::new(0);
            for (t, user) in (0..).zip(users.iter().cloned()) {
                let (client, done) = (bed.client.clone(), done.clone());
                sim.spawn(async move {
                    for i in 0..6 {
                        let len = [512, 4096, 4097, 2048, 64 * 1024, 1][(t + i) as usize % 6];
                        let write = BulkParams {
                            send: Some((user.clone(), 0, len)),
                            ..Default::default()
                        };
                        client.call(2, Bytes::new(), write).await.unwrap();
                        let read = BulkParams {
                            recv_max: Some(len),
                            ..Default::default()
                        };
                        client.call(1, read_args(len as u32), read).await.unwrap();
                    }
                    done.add_permits(1);
                });
            }
            let client = bed.client.clone();
            sim.block_on(async move {
                h.sleep(SimDuration::from_micros(300)).await;
                client.inject_qp_error();
                for _ in 0..TASKS {
                    done.acquire().await.forget();
                }
            });
            sim.run();
            assert_eq!(bed.client.stats().reconnects.get(), 1, "{tag}");
            assert!(bed.client.stats().msgp_sends.get() > 0, "{tag}");
            let regs = [bed.client_reg.clone(), bed.server_reg.clone()];
            let flush = |sim: &mut Simulation| {
                let regs = regs.clone();
                sim.block_on(async move {
                    for reg in regs {
                        reg.flush_cache().await;
                    }
                });
            };
            flush(&mut sim);
            for ((host, mem), want) in hosts.iter().zip(mounted) {
                assert_eq!(mem.live_buffers(), want, "{tag}: the {host}'s buffers");
            }
            live.borrow().force_error();
            sim.run();
            flush(&mut sim);
            let window = 2 * RpcRdmaConfig::default().credits as usize;
            let torn_down = [mounted[0], mounted[1] - window];
            for ((host, mem), want) in hosts.iter().zip(torn_down) {
                assert_eq!(mem.live_buffers(), want, "{tag}: the {host} after teardown");
            }
        }
    }
}

#[test]
fn dynamic_credit_grant_resizes_client_window() {
    // The paper's future work: the server adjusts its credit grant and
    // clients shrink/grow their outstanding-call windows accordingly.
    let mut sim = Simulation::new(92);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Cache);
    let server = bed.server.clone();
    let client = bed.client.clone();

    let fire = |n: u32, client: RdmaRpcClient, done: sim_core::sync::Semaphore| {
        for _ in 0..n {
            let client = client.clone();
            let done = done.clone();
            h.spawn(async move {
                client
                    .call(3, Bytes::from_static(b"load"), BulkParams::default())
                    .await
                    .unwrap();
                done.add_permits(1);
            });
        }
    };

    // Phase 1: full window — many ops run concurrently at the server.
    let done = sim_core::sync::Semaphore::new(0);
    fire(64, client.clone(), done.clone());
    sim.block_on({
        let done = done.clone();
        async move {
            for _ in 0..64 {
                done.acquire().await.forget();
            }
        }
    });
    let peak_full = bed.server.stats.peak_inflight.get();
    assert!(peak_full > 2, "expected real concurrency, got {peak_full}");

    // Phase 2: the server throttles to 2 credits; after one reply
    // round-trips the new grant, concurrency collapses.
    server.set_credit_grant(2);
    let client2 = bed.client.clone();
    sim.block_on(async move {
        // One call to deliver the reduced grant.
        client2
            .call(3, Bytes::from_static(b"sync"), BulkParams::default())
            .await
            .unwrap();
    });
    bed.server.stats.peak_inflight.set(0);
    let done = sim_core::sync::Semaphore::new(0);
    fire(64, client.clone(), done.clone());
    sim.block_on(async move {
        for _ in 0..64 {
            done.acquire().await.forget();
        }
    });
    let peak_throttled = bed.server.stats.peak_inflight.get();
    assert!(
        peak_throttled <= 2,
        "grant=2 but server saw {peak_throttled} concurrent ops"
    );

    // Phase 3: restore the full grant; the window grows back.
    server.set_credit_grant(32);
    let client3 = bed.client.clone();
    sim.block_on(async move {
        client3
            .call(3, Bytes::from_static(b"sync"), BulkParams::default())
            .await
            .unwrap();
    });
    bed.server.stats.peak_inflight.set(0);
    let done = sim_core::sync::Semaphore::new(0);
    fire(64, client.clone(), done.clone());
    sim.block_on(async move {
        for _ in 0..64 {
            done.acquire().await.forget();
        }
    });
    assert!(
        bed.server.stats.peak_inflight.get() > 2,
        "window failed to grow back"
    );
}

#[test]
fn client_crash_does_not_disturb_other_connections() {
    // Two clients on one server; client 1's connection is torn down
    // (peer crash / retry exceeded). Client 2 must keep working, the
    // dead connection's server loop must exit cleanly, and client 1's
    // subsequent calls must fail fast instead of hanging.
    let mut sim = Simulation::new(91);
    let h = sim.handle();
    let fabric = Fabric::new(&h);
    let mk = |id: u32| {
        let node = NodeId(id);
        let cpu = Cpu::new(&h, format!("cpu{id}"), 2, CpuCosts::default());
        let mem = Rc::new(HostMem::new(node, PhysLayout::default(), h.fork_rng()));
        let hca = Hca::new(&h, node, HcaConfig::sdr(), cpu, mem.clone(), &fabric);
        (hca, mem)
    };
    let (c1_hca, _) = mk(1);
    let (c2_hca, _) = mk(2);
    let (s_hca, _) = mk(0);
    let cfg = RpcRdmaConfig::default();
    let server = RdmaRpcServer::new(
        &h,
        &s_hca,
        Rc::new(ToyFs { seed: 1 }),
        Registrar::new(&s_hca, StrategyKind::Dynamic),
        cfg,
    );
    let (q1, qs1) = connect(&c1_hca, &s_hca);
    let (q2, qs2) = connect(&c2_hca, &s_hca);
    server.serve_connection(qs1.clone());
    server.serve_connection(qs2);
    let client1 = RdmaRpcClient::new(
        &h,
        &c1_hca,
        q1.clone(),
        Registrar::new(&c1_hca, StrategyKind::Dynamic),
        cfg,
        PROG,
        VERS,
    );
    let client2 = RdmaRpcClient::new(
        &h,
        &c2_hca,
        q2,
        Registrar::new(&c2_hca, StrategyKind::Dynamic),
        cfg,
        PROG,
        VERS,
    );
    sim.block_on(async move {
        // Both clients healthy.
        client1
            .call(3, Bytes::from_static(b"one"), BulkParams::default())
            .await
            .unwrap();
        client2
            .call(3, Bytes::from_static(b"two"), BulkParams::default())
            .await
            .unwrap();

        // Client 1 crashes: both ends of its connection error out.
        q1.force_error();
        qs1.force_error();

        // Client 1 fails fast...
        let err = client1
            .call(3, Bytes::from_static(b"dead"), BulkParams::default())
            .await
            .unwrap_err();
        assert!(matches!(err, onc_rpc::RpcError::Disconnected), "{err:?}");

        // ...while client 2 keeps working, repeatedly.
        for _ in 0..5 {
            let r = client2
                .call(3, Bytes::from_static(b"alive"), BulkParams::default())
                .await
                .unwrap();
            // (args are XDR-padded to 4 bytes on the wire)
            assert_eq!(&r.body[..5], b"alive");
        }
    });
    assert_eq!(server.stats.ops.get(), 7);
}

#[test]
fn small_writes_ride_msgp_and_skip_registration_and_rdma_read() {
    let mut sim = Simulation::new(88);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Dynamic);
    let user = bed.client_mem.alloc(4096);
    let data: Vec<u8> = (0..700u32).map(|i| (i % 97) as u8).collect();
    user.write(0, Payload::real(data.clone()));
    let expect_sum: u64 = data.iter().map(|&b| b as u64).sum();
    let client = bed.client.clone();
    let got = sim.block_on(async move {
        client
            .call(
                2,
                Bytes::new(),
                BulkParams {
                    send: Some((user, 0, 700)),
                    ..Default::default()
                },
            )
            .await
            .unwrap()
    });
    let mut dec = xdr::Decoder::new(&got.body);
    assert_eq!(dec.get_u32().unwrap(), 700);
    assert_eq!(dec.get_u64().unwrap(), expect_sum, "MSGP data corrupted");
    assert_eq!(bed.client.stats().msgp_sends.get(), 1);
    assert_eq!(bed.server.stats.msgp_recvs.get(), 1);
    // No registration happened for the bulk data on either side.
    assert_eq!(
        bed.client_hca.reg_stats().dynamic_regs,
        0,
        "client registered for MSGP"
    );
    assert_eq!(
        bed.server_hca.reg_stats().dynamic_regs,
        0,
        "server registered for MSGP"
    );
}

#[test]
fn msgp_large_writes_still_use_chunks() {
    let mut sim = Simulation::new(89);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Dynamic);
    // 64 KiB exceeds the inline threshold: must go via read chunks.
    let user = bed.client_mem.alloc(65536);
    user.write(0, Payload::synthetic(4, 65536));
    let client = bed.client.clone();
    sim.block_on(async move {
        client
            .call(
                2,
                Bytes::new(),
                BulkParams {
                    send: Some((user, 0, 65536)),
                    ..Default::default()
                },
            )
            .await
            .unwrap();
    });
    assert_eq!(bed.client.stats().msgp_sends.get(), 0);
    assert!(
        bed.client_hca.reg_stats().dynamic_regs > 0,
        "large write must register"
    );
}

/// Keeps the data of every WRITE (proc 2) as the service was handed it,
/// and answers with its length.
#[derive(Default)]
struct Keeper {
    writes: std::cell::RefCell<Vec<sim_core::SgList>>,
}

impl BulkService for Keeper {
    fn program(&self) -> u32 {
        PROG
    }
    fn version(&self) -> u32 {
        VERS
    }
    fn call(
        &self,
        _cx: CallContext,
        proc_num: u32,
        _args: Bytes,
        bulk_in: Option<sim_core::SgList>,
    ) -> LocalBoxFuture<BulkDispatch> {
        let dispatch = match (proc_num, bulk_in) {
            (2, Some(data)) => {
                let mut enc = xdr::Encoder::new();
                enc.put_u32(data.len() as u32);
                self.writes.borrow_mut().push(data);
                BulkDispatch::success(enc.finish(), None)
            }
            _ => BulkDispatch::error(AcceptStat::ProcUnavail),
        };
        Box::pin(async move { dispatch })
    }
}

/// A page of WRITE data rides the Send: on the `meta_mix` machines
/// (`linux_sdr`, all-physical) a 4 096-byte WRITE goes as `RDMA_MSGP` —
/// no read chunk, no RDMA Read, no page pinned on either side — and the
/// service is handed the client's synthetic piece as it was, never
/// flattened into bytes. One byte more and it goes by read chunk.
#[test]
fn page_write_rides_msgp_and_one_byte_more_goes_by_read_chunk() {
    let bed_costs = (StrategyKind::AllPhysical, linux_sdr_costs());
    let data = Payload::synthetic(7, 4097);
    let write = |len: u64| {
        let data = data.clone();
        move |mem: &HostMem| {
            let user = mem.alloc(4097);
            user.write(0, data);
            BulkParams {
                send: Some((user, 0, len)),
                ..Default::default()
            }
        }
    };
    // On the wire.
    let page = first_send(bed_costs, 2, write(4096));
    let hdr = decode_header(page.recv.payload.as_ref().unwrap());
    assert_eq!(hdr.msg_type, rpcrdma::MsgType::Msgp);
    assert!(hdr.read_chunks.is_empty());
    assert_eq!(page.recv.tail, Some(data.slice(0, 4096)), "flattened");
    assert_eq!(page.client.pages_pinned, 0);
    let over = first_send(bed_costs, 2, write(4097));
    let hdr = decode_header(over.recv.payload.as_ref().unwrap());
    assert_eq!(hdr.msg_type, rpcrdma::MsgType::Msg);
    assert_eq!(hdr.read_chunk_bytes(), 4097);
    assert!(over.recv.tail.is_none());
    assert!(over.client.pages_pinned > 0);

    // End to end.
    let mut sim = Simulation::new(88);
    sim.enable_span_tracing();
    let h = sim.handle();
    let keeper = Rc::new(Keeper::default());
    let (strategy, costs) = bed_costs;
    let cfg = RpcRdmaConfig::default();
    let bed = setup_serving(&h, cfg, strategy, costs, keeper.clone());
    let user = bed.client_mem.alloc(4097);
    user.write(0, data.clone());
    let call = |len: u64| {
        let (client, user) = (bed.client.clone(), user.clone());
        let bulk = BulkParams {
            send: Some((user, 0, len)),
            ..Default::default()
        };
        async move { client.call(2, Bytes::new(), bulk).await.unwrap() }
    };
    let pinned = |hca: &Hca| hca.reg_stats().pages_pinned;
    let (cs, ss) = (bed.client.stats(), &bed.server.stats);
    let got = sim.block_on(call(4096));
    assert_eq!(xdr::Decoder::new(&got.body).get_u32().unwrap(), 4096);
    assert_eq!((cs.msgp_sends.get(), ss.msgp_recvs.get()), (1, 1));
    assert_eq!((pinned(&bed.client_hca), pinned(&bed.server_hca)), (0, 0));
    assert_eq!(ss.bulk_in.get(), 4096);
    let rdma_reads = |sim: &mut Simulation| {
        let spans = sim.take_spans();
        let is_read = |s: &&SpanRecord| (s.component, s.name) == ("hca", "rdma_read");
        spans.iter().filter(is_read).count()
    };
    assert_eq!(rdma_reads(&mut sim), 0);
    let kept = keeper.writes.borrow()[0].clone();
    assert_eq!(kept.pieces(), [data.slice(0, 4096)], "flattened");

    let got = sim.block_on(call(4097));
    assert_eq!(xdr::Decoder::new(&got.body).get_u32().unwrap(), 4097);
    assert_eq!((cs.msgp_sends.get(), ss.msgp_recvs.get()), (1, 1));
    assert!(pinned(&bed.client_hca) > 0 && pinned(&bed.server_hca) > 0);
    assert!(rdma_reads(&mut sim) > 0);
    assert!(keeper.writes.borrow()[1].to_payload().content_eq(&data));
}

/// An `RDMA_MSGP` WRITE pays its staging copy once: the Send's, of its
/// whole wire image — header, RPC head, padding and data. The client's
/// CPU has done nothing else by the time the message lands but marshal
/// the call. Nothing pinned: MSGP needs no registration.
#[test]
fn msgp_write_copies_its_wire_once() {
    let (cpu, hca) = linux_sdr_costs();
    for (strategy, len) in [
        (StrategyKind::AllPhysical, 4096),
        (StrategyKind::Dynamic, 1000),
    ] {
        let landed = first_send((strategy, (cpu, hca)), 2, |mem| {
            let user = mem.alloc(4096);
            user.write(0, Payload::synthetic(5, 4096));
            BulkParams {
                send: Some((user, 0, len)),
                ..Default::default()
            }
        });
        let tail = landed.recv.tail.as_ref().map_or(0, Payload::len);
        assert_eq!(tail, len, "{strategy:?}: the data rode inline");
        let wire = landed.recv.result.unwrap();
        let copy = (wire as f64 * cpu.copy_ns_per_byte).round() as u64;
        let want = cpu.per_op_client_cpu + SimDuration::from_nanos(copy);
        assert_eq!(landed.busy, want, "{strategy:?} {len}");
        assert_eq!(landed.client.pages_pinned, 0, "{strategy:?} {len}");
    }
}

/// The wire image of a hand-built `RDMA_MSGP` WRITE (proc 2) carrying
/// `data` inline behind the padded RPC head, all in one piece.
fn msgp_write_wire(xid: u32, data: &[u8]) -> Bytes {
    use xdr::XdrCodec;
    let (prog, vers, proc_num) = (PROG, VERS, 2);
    let call = onc_rpc::CallHeader {
        xid,
        prog,
        vers,
        proc_num,
    };
    let head = onc_rpc::msg::encode_call(&call, &Bytes::new());
    let credits = RpcRdmaConfig::default().credits;
    let mut hdr = rpcrdma::RdmaHeader::new(xid, credits, rpcrdma::MsgType::Msgp);
    hdr.msgp = Some((64, head.len() as u32));
    let mut enc = xdr::Encoder::new();
    hdr.encode(&mut enc);
    enc.put_raw(&head);
    enc.put_raw(&vec![0; head.len().next_multiple_of(64) - head.len()]);
    enc.put_raw(data);
    enc.finish()
}

/// The receive buffers hold a page of MSGP data, and a page is what the
/// server takes: a peer that inlines its data (one piece, no gather) is
/// read like the transport's own client, and one byte past the bound is
/// `BadMsgp` — charged to the sender like any violation (counted, its
/// credit window clamped), the call dropped unserviced, the connection
/// kept.
#[test]
fn msgp_data_past_a_page_is_bad_msgp() {
    let mut sim = Simulation::new(93);
    let h = sim.handle();
    let keeper = Rc::new(Keeper::default());
    let cfg = RpcRdmaConfig::default();
    let costs = linux_sdr_costs();
    let bed = setup_serving(&h, cfg, StrategyKind::AllPhysical, costs, keeper.clone());
    let (qc, qs) = connect(&bed.client_hca, &bed.server_hca);
    bed.server.serve_connection(qs.clone());
    let landing = bed.client_mem.alloc(cfg.recv_size());
    let ss = &bed.server.stats;
    let page: Vec<u8> = (0..4097u32).map(|i| (i % 251) as u8).collect();
    let reply = sim.block_on({
        let qc = qc.clone();
        let wire = Payload::real(msgp_write_wire(1, &page[..4096]));
        async move {
            qc.post_recv(landing, 0, cfg.recv_size(), ib_verbs::WrId(0))
                .unwrap();
            qc.post_send(wire, ib_verbs::WrId(1), false).unwrap();
            qc.recv_cq().next().await
        }
    });
    assert!(reply.result.is_ok(), "{reply:?}");
    assert_eq!((ss.ops.get(), ss.msgp_recvs.get()), (1, 1));
    let kept = keeper.writes.borrow()[0].materialize();
    assert_eq!(&kept[..], &page[..4096]);

    let wire = Payload::real(msgp_write_wire(2, &page));
    qc.post_send(wire, ib_verbs::WrId(2), false).unwrap();
    sim.run();
    assert_eq!(h.metrics().get("server.violations.bad_msgp"), Some(1));
    assert_eq!(ss.violations.get(), 1);
    assert_eq!(ss.credit_clamps.get(), 1);
    assert_eq!((ss.ops.get(), ss.msgp_recvs.get()), (1, 1));
    assert_eq!(keeper.writes.borrow().len(), 1);
    assert!(!qs.is_error() && !qc.is_error());
}

/// Figure 2's four message types are the whole vocabulary: a header
/// whose type word is 4 or 5 (the retired reply-slot call and ring
/// advertisement) or 6 does not decode, and the server charges it to
/// the sender as `garbage_header` like any byte soup — counted, never
/// dispatched, the connection kept while its violation budget lasts.
#[test]
fn retired_message_types_are_garbage_headers() {
    use xdr::XdrCodec;
    let mut sim = Simulation::new(94);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Dynamic);
    let (qc, qs) = connect(&bed.client_hca, &bed.server_hca);
    bed.server.serve_connection(qs);
    let (xid, prog, vers, proc_num) = (1, PROG, VERS, 0);
    let call = onc_rpc::CallHeader {
        xid,
        prog,
        vers,
        proc_num,
    };
    let head = onc_rpc::msg::encode_call(&call, &Bytes::new());
    let hdr = rpcrdma::RdmaHeader::new(xid, 32, rpcrdma::MsgType::Msg);
    for msg_type in [4u32, 5, 6] {
        let mut wire = hdr.to_bytes().to_vec();
        wire[12..16].copy_from_slice(&msg_type.to_be_bytes());
        wire.extend_from_slice(&head);
        let wr = ib_verbs::WrId(msg_type as u64);
        qc.post_send(Payload::real(Bytes::from(wire)), wr, false)
            .unwrap();
    }
    sim.run();
    let ss = &bed.server.stats;
    assert_eq!(h.metrics().get("server.violations.garbage_header"), Some(3));
    assert_eq!((ss.violations.get(), ss.quarantines.get()), (3, 0));
    assert_eq!(ss.ops.get(), 0);
    assert!(!qc.is_error());
}

#[test]
fn suppressed_done_is_revoked_at_the_pull_floor() {
    // The §4.1 attack, end to end: a Read-Read client that never pulls
    // and never sends RDMA_DONE. The transport's own client cannot be
    // told to misbehave, so the attacker is a bare queue pair: genuine
    // READ calls, each reply received, its read chunks never touched.
    // It has never sent a DONE, so each exposure waits only what an
    // honest pull of everything the connection has pending needs —
    // then the server revokes it: exposure is bounded, not indefinite.
    use onc_rpc::msg::encode_call;
    use rpcrdma::{MsgType, RdmaHeader};
    use xdr::XdrCodec;
    let mut sim = Simulation::new(90);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadRead, StrategyKind::Dynamic);
    let cfg = RpcRdmaConfig::default();
    let (qc, qs) = connect(&bed.client_hca, &bed.server_hca);
    bed.server.serve_connection(qs);
    let landing = bed.client_mem.alloc(cfg.recv_size());
    sim.block_on(async move {
        for xid in 1..=6u32 {
            let posted = qc.post_recv(landing.clone(), 0, cfg.recv_size(), ib_verbs::WrId(0));
            posted.unwrap();
            let call = onc_rpc::CallHeader {
                xid,
                prog: PROG,
                vers: VERS,
                proc_num: 1,
            };
            let mut enc = xdr::Encoder::new();
            RdmaHeader::new(xid, cfg.credits, MsgType::Msg).encode(&mut enc);
            enc.put_raw(&encode_call(&call, &read_args(100_000)));
            qc.post_send(Payload::real(enc.finish()), ib_verbs::WrId(1), false)
                .unwrap();
            let reply = qc.recv_cq().next().await.payload.unwrap().materialize();
            let rhdr = RdmaHeader::decode(&mut xdr::Decoder::new(&reply)).unwrap();
            assert_eq!(rhdr.read_chunk_bytes(), 100_000);
        }
    });
    sim.run();
    // Every READ's buffer was revoked: nothing pinned, nothing readable.
    let stats = &bed.server.stats;
    assert_eq!(stats.dones.get(), 0);
    assert_eq!(stats.exposures_pending.get(), 0);
    assert_eq!(stats.exposures_revoked.get(), 6);
    let overdue = sim.flight_records();
    let overdue = overdue.iter().filter(|f| f.event == "ttl_revoke").count();
    assert_eq!(overdue, 6, "each exposure revoked as overdue");
    let report = bed.server_hca.exposure_report();
    assert_eq!(report.current_bytes, 0);
    // Each window is shorter than the pull of all six at once plus the
    // invalidation that closes it.
    let hca = HcaConfig::sdr();
    let pages = 100_000u64.div_ceil(4096);
    let all_six = (hca.reg_cost(pages) + hca.read_turnaround) * 6
        + sim_core::transfer_time(600_000, hca.link_bandwidth)
        + hca.link_latency * 2;
    let window = all_six + hca.dereg_cost(pages);
    assert!(report.byte_us > 0);
    assert!(report.byte_us <= 6 * 100_000 * window.as_micros());
}

/// A cold connection — no `RDMA_DONE` timed yet — starts eight 1 MiB
/// Read-Read READs at once. Each exposure's deadline counts every byte
/// the connection has pending ahead of it, so no honest pull is ever
/// refused and no exposure revoked; counting only its own bytes, the
/// later ones would be.
#[test]
fn a_cold_burst_of_mib_reads_is_never_revoked() {
    let mut sim = Simulation::new(37);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadRead, StrategyKind::Dynamic);
    for _ in 0..8 {
        let user = bed.client_mem.alloc(MIB);
        sim.spawn(read_mib(bed.client.clone(), user));
    }
    sim.run();
    let stats = &bed.server.stats;
    assert_eq!(stats.dones.get(), 8, "every READ finished and let go");
    let flights = sim.flight_records();
    let overdue = flights
        .iter()
        .filter(|f| (f.component, f.event) == ("server", "ttl_revoke"));
    assert_eq!(overdue.count(), 0, "an honest exposure was revoked");
    assert_eq!(stats.exposures_revoked.get(), 0);
    assert_eq!(
        sim.metrics().get("tpt.violations"),
        Some(0),
        "a pull was refused"
    );
    assert_eq!(stats.exposures_pending.get(), 0);
}

#[test]
fn credit_window_bounds_outstanding_calls() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Cache);
    // Fire 100 calls at once; the credit window (32) plus the recv
    // pool must never be overrun (no ReceiverNotReady errors).
    let done = sim_core::sync::Semaphore::new(0);
    for _ in 0..100 {
        let client = bed.client.clone();
        let done = done.clone();
        sim.spawn(async move {
            client
                .call(3, Bytes::from_static(b"ping"), BulkParams::default())
                .await
                .unwrap();
            done.add_permits(1);
        });
    }
    sim.block_on(async move {
        for _ in 0..100 {
            done.acquire().await.forget();
        }
    });
    assert!(!bed.client.qp().is_error(), "flow control was violated");
    assert_eq!(bed.server.stats.ops.get(), 100);
}

/// The server pipeline's span anatomy, per design: one traced READ
/// (bulk out), chunked WRITE (bulk in), small echo and long-reply
/// `bigdir`. Every server stage span must sit directly under its `op`,
/// in stage order, back to back.
/// The client's per-call lifecycle (paper Figure 4) as spans: `marshal`,
/// `reg`, then one `wait_reply` per transmission and a `finish` for each
/// reply that arrived — directly under `client/call`, in that order,
/// never overlapping, whatever shape the call takes.
#[test]
fn client_stage_spans_nest_in_pipeline_order_both_designs() {
    const STAGES: [&str; 4] = ["marshal", "reg", "wait_reply", "finish"];
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(22);
        sim.enable_span_tracing();
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let (client, fabric) = (bed.client.clone(), bed.fabric.clone());
        let user = bed.client_mem.alloc(128 * 1024);
        user.write(0, Payload::synthetic(7, 128 * 1024));
        sim.block_on(async move {
            let read = BulkParams {
                recv_max: Some(128 * 1024),
                recv_user: Some((user.clone(), 0)),
                ..Default::default()
            };
            client.call(1, read_args(128 * 1024), read).await.unwrap();
            for len in [100_000, 512] {
                // A chunked WRITE, then one small enough for RDMA_MSGP.
                let write = BulkParams {
                    send: Some((user.clone(), 0, len)),
                    ..Default::default()
                };
                client.call(2, Bytes::new(), write).await.unwrap();
            }
            // Long call: 3 KB of arguments, a 20-byte reply.
            let mut enc = xdr::Encoder::new();
            enc.put_u32(16).put_opaque(&[0u8; 3000]);
            let long_call = enc.finish();
            client
                .call(4, long_call, BulkParams::default())
                .await
                .unwrap();
            let long_reply = BulkParams {
                reply_max: Some(64 * 1024),
                ..Default::default()
            };
            client.call(4, read_args(20_000), long_reply).await.unwrap();
            let small = || Bytes::from_static(b"getattr!");
            client
                .call(3, small(), BulkParams::default())
                .await
                .unwrap();
            // The next reply is lost: the call times out, retransmits,
            // and is answered from the server's duplicate request cache.
            fabric.drop_next_to(NodeId(0), 1);
            client
                .call(3, small(), BulkParams::default())
                .await
                .unwrap();
        });
        assert_eq!(bed.client.stats().retransmits.get(), 1, "{design:?}");
        let spans: Vec<_> = sim
            .take_spans()
            .into_iter()
            .filter(|s| s.component == "client")
            .collect();
        let calls: Vec<_> = spans.iter().filter(|s| s.name == "call").collect();
        assert_eq!(calls.len(), 7, "{design:?}: one call span per call");
        for s in spans.iter().filter(|s| STAGES.contains(&s.name)) {
            assert!(
                calls.iter().any(|call| Some(call.id) == s.parent),
                "{design:?}: {} span outside a call",
                s.name
            );
        }
        for (i, call) in calls.iter().enumerate() {
            let mut stages: Vec<_> = spans.iter().filter(|s| s.parent == Some(call.id)).collect();
            stages.sort_by_key(|s| s.id);
            let expect: &[&str] = if i == 6 {
                &["marshal", "reg", "wait_reply", "wait_reply", "finish"]
            } else {
                &STAGES
            };
            let names: Vec<_> = stages.iter().map(|s| s.name).collect();
            assert_eq!(names, expect, "{design:?} call {i}");
            for pair in stages.windows(2) {
                assert!(pair[0].end <= pair[1].start, "{design:?}: stages overlap");
            }
            assert!(call.start <= stages[0].start && stages[stages.len() - 1].end <= call.end);
        }
    }
}

/// A QP error with a window of calls in flight: one recovery, every
/// call carried onto the fresh connection by its retransmission timer,
/// the dead QP left with nothing posted and the new one with exactly a
/// credit window of receives.
#[test]
fn recovery_swaps_one_endpoint() {
    let mut sim = Simulation::new(31);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadWrite, StrategyKind::Dynamic);
    install_connector(&bed);
    let old_qp = bed.client.qp();
    let done = sim_core::sync::Semaphore::new(0);
    for i in 0..8u32 {
        let (client, done) = (bed.client.clone(), done.clone());
        sim.spawn(async move {
            let args = Bytes::from(i.to_be_bytes().to_vec());
            let got = client.call(3, args.clone(), BulkParams::default()).await;
            assert_eq!(got.unwrap().body, args);
            done.add_permits(1);
        });
    }
    let client = bed.client.clone();
    sim.block_on(async move {
        h.sleep(sim_core::SimDuration::from_micros(20)).await;
        client.inject_qp_error();
        for _ in 0..8 {
            done.acquire().await.forget();
        }
    });
    sim.run();
    let cs = bed.client.stats();
    assert_eq!((cs.calls.get(), cs.reconnects.get()), (8, 1));
    assert!(cs.retransmits.get() >= 8, "in-flight calls retransmit");
    let new_qp = bed.client.qp();
    assert_ne!(old_qp.qpn(), new_qp.qpn());
    assert_eq!(
        old_qp.posted_recvs(),
        0,
        "receives re-posted to the dead QP"
    );
    let credits = RpcRdmaConfig::default().credits as usize;
    assert_eq!(new_qp.posted_recvs(), credits);
}

/// How the bare peer of [`lying_server_bed`] answers a call.
#[derive(Clone, Copy)]
enum Lie {
    /// Inline echo of `b"fine"`.
    None,
    /// Echo the call's write chunk as `len` bytes written.
    WriteChunk(u64),
    /// Long reply: echo the call's reply chunk as `len` bytes written.
    ReplyChunk(u64),
    /// Name `len` bytes of (made-up) server memory in a read chunk.
    ReadChunk(u64),
    /// No lie: RDMA Write `len` bytes of `Payload::synthetic(42, len)`
    /// into the call's write chunk, then echo it.
    Pushed(u64),
}

/// A client (Dynamic registration) whose peer is a bare queue pair
/// playing the server: every call is answered at once, shaped by
/// whatever `lie` is set.
struct LyingBed {
    client: RdmaRpcClient,
    client_hca: Hca,
    mem: Rc<HostMem>,
    lie: Rc<std::cell::Cell<Lie>>,
    /// The peer's end of the connection.
    peer: ib_verbs::Qp,
    /// The first segment of the last call's first write chunk.
    sink: Rc<std::cell::Cell<Option<rpcrdma::Segment>>>,
}

fn lying_server_bed(sim: &Sim, design: Design, costs: CpuCosts) -> LyingBed {
    use onc_rpc::msg::encode_reply;
    use rpcrdma::{MsgType, RdmaHeader, ReadChunk, Segment};
    use xdr::XdrCodec;
    let fabric = Fabric::new(sim);
    let (client_hca, client_mem) = host_on(sim, &fabric, 0, costs, HcaConfig::sdr());
    let (peer_hca, _) = host_on(sim, &fabric, 1, costs, HcaConfig::sdr());
    let (qc, qs) = connect(&client_hca, &peer_hca);
    let cfg = RpcRdmaConfig::default().with_design(design);
    let registrar = Registrar::new(&client_hca, StrategyKind::Dynamic);
    let client = RdmaRpcClient::new(sim, &client_hca, qc, registrar, cfg, PROG, VERS);
    let lie = Rc::new(std::cell::Cell::new(Lie::None));
    let sink = Rc::new(std::cell::Cell::new(None));
    let (mode, seen, peer) = (lie.clone(), sink.clone(), qs.clone());
    sim.spawn(async move {
        let landing = peer_hca.mem().alloc(cfg.recv_size());
        for n in 0u64.. {
            let posted = qs.post_recv(landing.clone(), 0, cfg.recv_size(), ib_verbs::WrId(n));
            posted.unwrap();
            let wire = qs.recv_cq().next().await.payload.unwrap().materialize();
            let call = RdmaHeader::decode(&mut xdr::Decoder::new(&wire)).unwrap();
            if call.msg_type == MsgType::Done {
                continue;
            }
            seen.set(call.write_chunks.first().map(|c| c[0]));
            let stat = AcceptStat::Success;
            let reply = onc_rpc::ReplyHeader {
                xid: call.xid,
                stat,
            };
            let mut msg = encode_reply(&reply, &Bytes::from_static(b"fine"));
            let mut rhdr = RdmaHeader::new(call.xid, cfg.credits, MsgType::Msg);
            let resized = |segs: &[Segment], len| vec![Segment { len, ..segs[0] }];
            match mode.get() {
                Lie::None => {}
                Lie::WriteChunk(len) => rhdr.write_chunks.push(resized(&call.write_chunks[0], len)),
                Lie::ReplyChunk(len) => {
                    rhdr.msg_type = MsgType::Nomsg;
                    rhdr.reply_chunk = Some(resized(call.reply_chunk.as_ref().unwrap(), len));
                    msg = Bytes::new();
                }
                Lie::ReadChunk(len) => rhdr.read_chunks.push(ReadChunk {
                    position: msg.len() as u32,
                    segment: Segment {
                        rkey: ib_verbs::Rkey(0x5eed),
                        len,
                        addr: 0x10_0000,
                    },
                }),
                Lie::Pushed(len) => {
                    let to = call.write_chunks[0][0];
                    let data = Payload::synthetic(42, len);
                    let id = ib_verbs::WrId(2 << 20 | n);
                    qs.post_rdma_write(data, to.addr, to.rkey, id, false)
                        .unwrap();
                    rhdr.write_chunks.push(resized(&call.write_chunks[0], len));
                }
            }
            let mut enc = xdr::Encoder::new();
            rhdr.encode(&mut enc);
            enc.put_raw(&msg);
            qs.post_send(
                Payload::real(enc.finish()),
                ib_verbs::WrId(1 << 20 | n),
                false,
            )
            .unwrap();
        }
    });
    LyingBed {
        client,
        client_hca,
        mem: client_mem,
        lie,
        peer,
        sink,
    }
}

/// The lengths a reply header echoes are the server's word. One that
/// claims more than the call provisioned fails the call with a typed
/// error — before the client copies past its sink (for a zero-copy READ
/// that is the caller's adjacent memory), sizes scratch by it, or posts
/// an RDMA Read on its strength.
#[test]
fn over_long_echo_is_refused_before_any_copy_or_read() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(17);
        sim.enable_span_tracing();
        let h = sim.handle();
        let LyingBed {
            client, mem, lie, ..
        } = lying_server_bed(&h, design, CpuCosts::default());
        // A 4 KiB READ into the head of a larger user buffer.
        let user = mem.alloc(64 * 1024);
        let read = |client: RdmaRpcClient| {
            let bulk = BulkParams {
                recv_max: Some(4096),
                recv_user: Some((user.clone(), 0)),
                ..Default::default()
            };
            async move { client.call(1, read_args(4096), bulk).await }
        };
        let lies: &[Lie] = match design {
            Design::ReadWrite => &[Lie::WriteChunk(8192), Lie::ReplyChunk(1 << 20)],
            Design::ReadRead => &[Lie::ReadChunk(1 << 20)],
        };
        for &told in lies {
            lie.set(told);
            let got = match told {
                Lie::ReplyChunk(_) => {
                    let bulk = BulkParams {
                        reply_max: Some(8192),
                        ..Default::default()
                    };
                    let client = client.clone();
                    sim.block_on(async move { client.call(4, read_args(6000), bulk).await })
                }
                _ => sim.block_on(read(client.clone())),
            };
            let err = got.expect_err("an over-long echo was believed");
            assert_eq!(err, onc_rpc::RpcError::BadReply, "{design:?}");
        }
        let reads = sim.take_spans();
        let reads = reads
            .iter()
            .filter(|s| (s.component, s.name) == ("hca", "rdma_read"));
        assert_eq!(reads.count(), 0, "{design:?}: pulled on a lie");
        // The connection is still good, and an honest READ still lands.
        lie.set(Lie::None);
        let echo = client.clone();
        let echo = sim.block_on(async move {
            let args = Bytes::from_static(b"still here");
            echo.call(3, args, BulkParams::default()).await
        });
        assert_eq!(&echo.unwrap().body[..], b"fine", "{design:?}");
        assert_eq!(client.stats().calls.get(), 1, "{design:?}");
        assert_eq!(client.stats().retransmits.get(), 0, "{design:?}");
    }
}

/// A Read-Read pull that fails part-way (here: the QP dies while the
/// scratch buffer is still registering, so no Read can be posted) must
/// give its scratch registration back. The call completes by
/// retransmission on the recovered connection.
#[test]
fn read_read_pull_error_releases_its_scratch_registration() {
    let strategies = [
        StrategyKind::Dynamic,
        StrategyKind::Cache,
        StrategyKind::AllPhysical,
    ];
    for strategy in strategies {
        let read = |client: RdmaRpcClient| async move {
            let bulk = BulkParams {
                recv_max: Some(128 * 1024),
                ..Default::default()
            };
            client.call(1, read_args(128 * 1024), bulk).await.unwrap()
        };
        // Dry run: when does the client start collecting the reply,
        // and when does its first Read go out?
        let mut sim = Simulation::new(41);
        sim.enable_span_tracing();
        let bed = setup(&sim.handle(), Design::ReadRead, strategy);
        sim.block_on(read(bed.client.clone()));
        let spans = sim.take_spans();
        let start_of = |component, name| {
            let mut named = spans
                .iter()
                .filter(|s| (s.component, s.name) == (component, name));
            named.next().expect("span recorded").start
        };
        let (finish, pull) = (start_of("client", "finish"), start_of("hca", "rdma_read"));
        assert!(
            finish < pull,
            "{strategy:?}: scratch registration takes time"
        );
        let strike = finish + (pull - finish) / 2;

        // Same seed, same schedule — and the QP dies in between.
        let mut sim = Simulation::new(41);
        let h = sim.handle();
        let bed = setup(&h, Design::ReadRead, strategy);
        install_connector(&bed);
        let (client, victim) = (bed.client.clone(), bed.client.clone());
        sim.spawn(async move {
            h.sleep_until(strike).await;
            victim.inject_qp_error();
        });
        let got = sim.block_on(read(client));
        let data = got.bulk.expect("bulk read data");
        assert!(data.content_eq(&Payload::synthetic(42, 128 * 1024)));
        sim.run();
        let cs = bed.client.stats();
        assert_eq!(cs.reconnects.get(), 1, "{strategy:?}");
        assert!(cs.retransmits.get() >= 1, "{strategy:?}");
        let leaked = bed.client_hca.reg_stats().leaked_mrs;
        assert_eq!(leaked, 0, "{strategy:?}: pull error leaked its scratch");
    }
}

/// `ClientStats` is the registry: every field is the `client.*` series
/// of the same name, so a reader of either sees the same number.
#[test]
fn client_counters_are_registry_series() {
    let mut sim = Simulation::new(23);
    let h = sim.handle();
    let bed = setup(&h, Design::ReadRead, StrategyKind::Cache);
    install_connector(&bed);
    let (client, fabric) = (bed.client.clone(), bed.fabric.clone());
    let user = bed.client_mem.alloc(128 * 1024);
    user.write(0, Payload::synthetic(7, 128 * 1024));
    sim.block_on(async move {
        let small = || Bytes::from_static(b"getattr!");
        for _ in 0..3 {
            client
                .call(3, small(), BulkParams::default())
                .await
                .unwrap();
        }
        let read = BulkParams {
            recv_max: Some(64 * 1024),
            ..Default::default()
        };
        client.call(1, read_args(60_000), read).await.unwrap();
        for len in [100_000, 512] {
            let write = BulkParams {
                send: Some((user.clone(), 0, len)),
                ..Default::default()
            };
            client.call(2, Bytes::new(), write).await.unwrap();
        }
        fabric.drop_next_to(NodeId(0), 1);
        let read = BulkParams {
            recv_max: Some(4096),
            ..Default::default()
        };
        client.call(1, read_args(4096), read).await.unwrap();
        client.inject_qp_error();
        client
            .call(3, small(), BulkParams::default())
            .await
            .unwrap();
    });
    let cs = bed.client.stats();
    let series = [
        ("client.calls", &cs.calls),
        ("client.bulk_in", &cs.bulk_in),
        ("client.bulk_out", &cs.bulk_out),
        ("client.dones", &cs.dones_sent),
        ("client.msgp_sends", &cs.msgp_sends),
        ("client.copied_bytes", &cs.copied_bytes),
        ("client.retransmits", &cs.retransmits),
        ("client.timeouts", &cs.timeouts),
        ("client.reconnects", &cs.reconnects),
        ("client.busy_replies", &cs.busy_replies),
    ];
    for (name, counter) in series {
        assert_eq!(sim.metrics().get(name), Some(counter.get()), "{name}");
        // No shed ever happens here; everything else did.
        assert_eq!(counter.get() > 0, name != "client.busy_replies", "{name}");
    }
    assert_eq!(cs.calls.get(), 8);
    assert_eq!(cs.bulk_in.get(), 60_000 + 4096);
    assert_eq!(cs.bulk_out.get(), 100_000 + 512);
    assert_eq!((cs.dones_sent.get(), cs.msgp_sends.get()), (2, 1));
    assert_eq!(
        (cs.reconnects.get(), cs.timeouts.get()),
        (1, cs.retransmits.get())
    );
}

/// The span contract of the per-call pipeline, *(dispatch ∥ fetch) →
/// land → service → push → reply*: every stage but `pull_chunks` is a
/// direct child of `op`, in pipeline order and never overlapping;
/// `pull_chunks` opens when the fetch lane starts — at the instant
/// `dispatch` does, and under it — and closes before `service` opens.
#[test]
fn server_stage_spans_nest_in_pipeline_order_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut sim = Simulation::new(21);
        sim.enable_span_tracing();
        let h = sim.handle();
        let bed = setup(&h, design, StrategyKind::Dynamic);
        let client = bed.client.clone();
        let user = bed.client_mem.alloc(128 * 1024);
        user.write(0, Payload::synthetic(7, 100_000));
        sim.block_on(async move {
            let read = BulkParams {
                recv_max: Some(64 * 1024),
                ..Default::default()
            };
            client.call(1, read_args(60_000), read).await.unwrap();
            let write = BulkParams {
                send: Some((user, 0, 100_000)),
                ..Default::default()
            };
            client.call(2, Bytes::new(), write).await.unwrap();
            let small = Bytes::from_static(b"getattr!");
            client.call(3, small, BulkParams::default()).await.unwrap();
            let long_reply = BulkParams {
                reply_max: Some(64 * 1024),
                ..Default::default()
            };
            client.call(4, read_args(20_000), long_reply).await.unwrap();
        });
        let spans = server_spans(&sim);
        let ops: Vec<_> = spans.iter().filter(|s| s.name == "op").collect();
        assert_eq!(ops.len(), 4, "{design:?}: one op span per call");
        let stage_spans = spans.iter().filter(|s| s.name != "op").count();
        let mut seen = 0;
        for op in ops {
            let mut stages: Vec<_> = spans.iter().filter(|s| s.parent == Some(op.id)).collect();
            stages.sort_by_key(|s| s.id);
            let proc_num = stages
                .iter()
                .find(|s| s.name == "service")
                .and_then(|s| s.proc_num)
                .expect("service span tagged with its procedure");
            // Only a Read-Write bulk READ pushes with RDMA Write inside
            // a span; Read-Read exposes, and long replies stage outside.
            let expect: &[&str] = if design == Design::ReadWrite && proc_num == 1 {
                &["dispatch", "service", "rdma_write", "reply_send"]
            } else {
                &["dispatch", "service", "reply_send"]
            };
            let names: Vec<_> = stages.iter().map(|s| s.name).collect();
            assert_eq!(names, expect, "{design:?} proc {proc_num}");
            for pair in stages.windows(2) {
                assert!(pair[0].end <= pair[1].start, "{design:?}: stages overlap");
            }
            assert!(op.start <= stages[0].start && stages[stages.len() - 1].end <= op.end);
            // The fetch lane: one `pull_chunks`, under this op's
            // `dispatch`, opened second and at the same instant.
            let (dispatch, service) = (stages[0], stages[1]);
            let pulls: Vec<_> = spans
                .iter()
                .filter(|s| s.parent == Some(dispatch.id))
                .collect();
            assert_eq!(pulls.len(), 1, "{design:?} proc {proc_num}");
            let pull = pulls[0];
            assert_eq!(pull.name, "pull_chunks");
            assert!(dispatch.id < pull.id && pull.id < service.id);
            assert_eq!(pull.start, dispatch.start, "{design:?} proc {proc_num}");
            assert!(pull.end <= service.start, "{design:?} proc {proc_num}");
            seen += stages.len() + 1;
        }
        // No stage span anywhere else.
        assert_eq!(seen, stage_spans, "{design:?}: a stage span outside its op");
    }
}

/// The overlap, as time: the fetch of a WRITE's payload (scratch
/// provisioning + RDMA Reads) starts with the call's wait in the task
/// queue, not after it, so the `op` span lasts `max(dispatch, fetch) +
/// land + service + reply` instead of their sum — and what the service
/// thread does with the bytes (the Cache strategy's bounce copy) still
/// starts only once the thread has the call. A call with nothing to
/// fetch takes the queue, the service and the reply's post. (The small
/// WRITE is 8 KiB: a page or less rides the Send as `RDMA_MSGP`, with
/// nothing to fetch.)
#[test]
fn write_fetch_overlaps_dispatch_and_lands_after_it() {
    let us = SimDuration::from_micros;
    // server_op_serial + per_op_server_cpu on `solaris_sdr`.
    let queue = us(180) + us(12);
    for strategy in [StrategyKind::Dynamic, StrategyKind::Cache] {
        let mut sim = Simulation::new(21);
        sim.enable_span_tracing();
        let h = sim.handle();
        let bed = setup_on(&h, RpcRdmaConfig::default(), strategy, solaris_sdr_cpu());
        let client = bed.client.clone();
        let user = bed.client_mem.alloc(128 * 1024);
        user.write(0, Payload::synthetic(7, 100_000));
        sim.block_on(async move {
            let small = Bytes::from_static(b"getattr!");
            client.call(3, small, BulkParams::default()).await.unwrap();
            for len in [100_000, 8192] {
                let write = BulkParams {
                    send: Some((user.clone(), 0, len)),
                    ..Default::default()
                };
                client.call(2, Bytes::new(), write).await.unwrap();
            }
        });
        let spans = server_spans(&sim);
        let child = |parent: &SpanRecord, name: &str| {
            let of = |s: &&SpanRecord| s.name == name && s.parent == Some(parent.id);
            spans.iter().find(of).expect(name).clone()
        };
        let took = |s: &SpanRecord| s.end.saturating_since(s.start);
        let ops: Vec<_> = spans.iter().filter(|s| s.name == "op").collect();
        let [getattr, large, small] = ops[..] else {
            panic!("{strategy:?}: {} op spans", ops.len());
        };

        // Nothing to fetch: the queue, the service, the reply's post —
        // the same nanoseconds as before the lanes existed, less the
        // 9 727 the handler used to wait for the Send's completion.
        let dispatch = child(getattr, "dispatch");
        assert_eq!(took(&dispatch), queue, "{strategy:?}");
        assert_eq!(took(&child(&dispatch, "pull_chunks")), us(0));
        assert_eq!(took(getattr).as_nanos(), 192_054, "{strategy:?}");

        for (op, len) in [(large, 100_000u64), (small, 8192)] {
            let dispatch = child(op, "dispatch");
            let pull = child(&dispatch, "pull_chunks");
            assert_eq!(dispatch.start, op.start, "{strategy:?} {len}");
            assert_eq!(took(&dispatch), queue, "{strategy:?} {len}");
            assert_eq!(
                pull.start, dispatch.start,
                "{strategy:?} {len}: fetch waited"
            );
            // The payload lands after the service thread has the call,
            // and the service follows at once: the op is the longer
            // lane plus what comes after, not the sum of the lanes.
            assert!(dispatch.end <= pull.end, "{strategy:?} {len}");
            assert_eq!(child(op, "service").start, pull.end, "{strategy:?} {len}");
            let tail = op.end.saturating_since(pull.end);
            assert_eq!(took(op), took(&pull) + tail, "{strategy:?} {len}");
            if strategy == StrategyKind::Cache {
                // Landing is the bounce copy (0.9 ns/B). 8 KiB arrive
                // inside the queue wait, so the copy starts the moment
                // dispatch ends; 100 000 bytes outlast the queue.
                let copy = SimDuration::from_nanos((len * 9 + 5) / 10); // to the ns
                let fetch = took(&pull) - copy;
                assert_eq!(fetch > queue, len == 100_000, "{strategy:?} {len}");
                assert_eq!(took(&pull), queue.max(fetch) + copy, "{strategy:?} {len}");
            }
        }
    }
}

/// A chunked WRITE (proc 2) on the wire, its one read chunk naming
/// `segment` — whatever that points at.
fn write_call_wire(xid: u32, segment: rpcrdma::Segment) -> Bytes {
    use xdr::XdrCodec;
    let (prog, vers, proc_num) = (PROG, VERS, 2);
    let call = onc_rpc::CallHeader {
        xid,
        prog,
        vers,
        proc_num,
    };
    let call = onc_rpc::msg::encode_call(&call, &Bytes::new());
    let credits = RpcRdmaConfig::default().credits;
    let mut hdr = rpcrdma::RdmaHeader::new(xid, credits, rpcrdma::MsgType::Msg);
    hdr.read_chunks.push(rpcrdma::ReadChunk {
        position: call.len() as u32,
        segment,
    });
    let mut enc = xdr::Encoder::new();
    hdr.encode(&mut enc);
    enc.put_raw(&call);
    enc.finish()
}

/// Two lanes in flight, one fails: a WRITE whose read chunk names a
/// stale rkey is refused by the client's HCA microseconds into a fetch
/// that started while the call was still queued for dispatch. Both
/// lanes run out — the task queue is paid, the scratch window is
/// released — and then the call is dropped: no service, no reply, no
/// leak, and the queue serves the next caller.
#[test]
fn stale_rkey_fails_the_fetch_lane_while_dispatch_is_still_queued() {
    for strategy in all_strategies() {
        let mut sim = Simulation::new(29);
        sim.enable_span_tracing();
        let h = sim.handle();
        let bed = setup_on(&h, RpcRdmaConfig::default(), strategy, solaris_sdr_cpu());
        let write = |len| {
            let client = bed.client.clone();
            let user = bed.client_mem.alloc(128 * 1024);
            user.write(0, Payload::synthetic(7, len));
            let bulk = BulkParams {
                send: Some((user, 0, len)),
                ..Default::default()
            };
            async move { client.call(2, Bytes::new(), bulk).await.unwrap() }
        };
        // Warm the honest path (slab entries, FMR pool) so the baseline
        // below is the steady state, not first-use growth.
        sim.block_on(write(100_000));
        sim.run();
        sim.take_spans();
        let ops = bed.server.stats.ops.get();
        let hostile = {
            let (qc, qs) = connect(&bed.client_hca, &bed.server_hca);
            bed.server.serve_connection(qs.clone());
            let landing = bed.client_mem.alloc(4096);
            qc.post_recv(landing, 0, 4096, ib_verbs::WrId(0)).unwrap();
            (qc, qs)
        };
        sim.run();
        let live = bed.server_mem.live_buffers();
        let stale = rpcrdma::Segment {
            rkey: ib_verbs::Rkey(0x5eed),
            addr: 0x10_0000,
            len: 100_000,
        };
        let wire = Payload::real(write_call_wire(77, stale));
        hostile.0.post_send(wire, ib_verbs::WrId(1), false).unwrap();
        sim.run();

        // The fetch died first; the op ended when dispatch did.
        let spans = server_spans(&sim);
        let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let (op, dispatch, pull) = (named("op"), named("dispatch"), named("pull_chunks"));
        assert_eq!((op.len(), dispatch.len(), pull.len()), (1, 1, 1));
        assert_eq!(pull[0].start, dispatch[0].start, "{strategy:?}");
        let queue = SimDuration::from_micros(192);
        assert_eq!(dispatch[0].end.saturating_since(dispatch[0].start), queue);
        // (Unless provisioning the scratch window and taking it down
        // again was itself TPT work that outlasts the queue.)
        let queued = pull[0].end < dispatch[0].end;
        assert_eq!(queued, !strategy_registers(strategy), "{strategy:?}");
        assert_eq!(op[0].end, dispatch[0].end.max(pull[0].end), "{strategy:?}");
        // Dropped: never serviced, never answered.
        assert!(named("service").is_empty() && named("reply_send").is_empty());
        assert_eq!(bed.server.stats.ops.get(), ops, "{strategy:?}");
        assert_eq!(bed.server.stats.bulk_in.get(), 100_000, "{strategy:?}");
        assert!(hostile.0.recv_cq().poll().is_none_or(|c| c.result.is_err()));
        // Charged where the parent charged it: the HCA refused the
        // access and the connection died of it; the header itself was
        // well formed.
        assert_eq!(h.metrics().get("tpt.violations"), Some(1), "{strategy:?}");
        assert_eq!(bed.server.stats.violations.get(), 0, "{strategy:?}");
        assert!(hostile.1.is_error(), "{strategy:?}");
        // Nothing held: the scratch window and the dead connection's
        // receive buffers are gone.
        assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0, "{strategy:?}");
        assert_eq!(bed.server_mem.live_buffers(), live, "{strategy:?}");
        // And the task queue is not wedged.
        let got = sim.block_on(write(60_000));
        assert_eq!(xdr::Decoder::new(&got.body).get_u32().unwrap(), 60_000);
        assert_eq!(bed.server.stats.ops.get(), ops + 1, "{strategy:?}");
    }
}

/// Two lanes in flight, the connection dies under both: the fetch's
/// Reads flush in error, dispatch still runs out, the scratch goes back
/// — and the client's retransmission on a fresh connection is the one
/// execution of the WRITE.
#[test]
fn teardown_mid_overlap_releases_the_fetch_and_the_write_applies_once() {
    for strategy in all_strategies() {
        let write = |bed: &TestBed| {
            let client = bed.client.clone();
            let user = bed.client_mem.alloc(128 * 1024);
            user.write(0, Payload::synthetic(7, 100_000));
            let bulk = BulkParams {
                send: Some((user, 0, 100_000)),
                ..Default::default()
            };
            async move { client.call(2, Bytes::new(), bulk).await.unwrap() }
        };
        // Dry run: when are both lanes of the second WRITE in flight?
        let mut sim = Simulation::new(31);
        sim.enable_span_tracing();
        let bed = setup_on(
            &sim.handle(),
            RpcRdmaConfig::default(),
            strategy,
            solaris_sdr_cpu(),
        );
        sim.block_on(write(&bed));
        sim.run();
        sim.take_spans();
        sim.block_on(write(&bed));
        let spans = server_spans(&sim);
        let dispatch = spans.iter().find(|s| s.name == "dispatch").unwrap();
        let strike = dispatch.start + (dispatch.end - dispatch.start) / 4;

        // Same seed, same schedule — and the server's QP dies there.
        let mut sim = Simulation::new(31);
        let h = sim.handle();
        let bed = setup_on(&h, RpcRdmaConfig::default(), strategy, solaris_sdr_cpu());
        install_connector(&bed);
        sim.block_on(write(&bed));
        sim.run();
        let (live, ops) = (bed.server_mem.live_buffers(), bed.server.stats.ops.get());
        let victim = bed.server_qp.clone();
        sim.spawn(async move {
            h.sleep_until(strike).await;
            victim.force_error();
        });
        let got = sim.block_on(write(&bed));
        assert_eq!(xdr::Decoder::new(&got.body).get_u32().unwrap(), 100_000);
        sim.run();
        let cs = bed.client.stats();
        assert_eq!(cs.reconnects.get(), 1, "{strategy:?}");
        assert!(cs.retransmits.get() >= 1, "{strategy:?}");
        // Exactly one execution. Where the strike caught the fetch
        // still provisioning (Dynamic, FMR) no Read was ever posted and
        // the torn call was dropped: the retransmission executed. Where
        // the Read was already on the wire it completed, the call was
        // serviced into a dead QP, and the retransmission — fetched
        // again, the DRC only sees a call in `service` — was replayed.
        let replays = bed.server.stats.drc_replays.get();
        assert_eq!(bed.server.stats.ops.get(), ops + 1, "{strategy:?}");
        assert_eq!(
            replays,
            u64::from(!strategy_registers(strategy)),
            "{strategy:?}"
        );
        let landed = 100_000 * (2 + replays);
        assert_eq!(bed.server.stats.bulk_in.get(), landed, "{strategy:?}");
        assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0, "{strategy:?}");
        assert_eq!(bed.server_mem.live_buffers(), live, "{strategy:?}");
    }
}

/// With every service slot busy the overlap starts when the pump starts
/// the call, so a call shed at arrival or at its deadline has fetched
/// nothing: every RDMA Read the server issues belongs to a WRITE it then
/// services, however many times the others were turned away first.
#[test]
fn shed_writes_fetch_nothing() {
    const WRITES: u64 = 96;
    const LEN: u64 = 128 * 1024;
    let mut sim = Simulation::new(37);
    sim.enable_span_tracing();
    let h = sim.handle();
    let cfg = RpcRdmaConfig {
        threads: NonZeroU32::new(8),
        credits: 128,
        ..Default::default()
    };
    let bed = setup_on(&h, cfg, StrategyKind::Dynamic, solaris_sdr_cpu());
    let done = sim_core::sync::Semaphore::new(0);
    for _ in 0..WRITES {
        let (client, done) = (bed.client.clone(), done.clone());
        let user = bed.client_mem.alloc(LEN);
        user.write(0, Payload::synthetic(7, LEN));
        sim.spawn(async move {
            let bulk = BulkParams {
                send: Some((user, 0, LEN)),
                ..Default::default()
            };
            client.call(2, Bytes::new(), bulk).await.unwrap();
            done.add_permits(1);
        });
    }
    sim.block_on(async move {
        for _ in 0..WRITES {
            done.acquire().await.forget();
        }
    });
    let stats = &bed.server.stats;
    assert!(stats.sheds.get() > 0, "the burst never overran the queue");
    assert_eq!(bed.client.stats().busy_replies.get(), stats.sheds.get());
    assert_eq!(stats.ops.get(), WRITES);
    assert_eq!(stats.bulk_in.get(), WRITES * LEN);
    // One contiguous registration per WRITE, so one Read per fetch.
    let reads = sim.take_spans();
    let reads = reads
        .iter()
        .filter(|s| (s.component, s.name) == ("hca", "rdma_read"));
    assert_eq!(reads.count() as u64, WRITES, "a shed call posted a Read");
    assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0);
}

/// One service slot (`threads = 1`): calls are serviced one at a time,
/// the rest wait in the dispatch queue or leave it shed — at arrival past
/// the tenant's backlog cap, at dequeue past the sojourn target. Every
/// credit slot comes back exactly once whichever way its call left, so a
/// later burst that fills the whole window on the same connection is
/// admitted whole: one slot never returned, and its last call would be
/// `WindowExceeded`.
#[test]
fn one_service_slot_returns_every_credit_slot_once() {
    let mut sim = Simulation::new(43);
    let h = sim.handle();
    let cfg = RpcRdmaConfig {
        threads: NonZeroU32::new(1),
        credits: 128,
        ..Default::default()
    };
    let bed = setup_on(&h, cfg, StrategyKind::Dynamic, solaris_sdr_cpu());
    let ok = Rc::new(Cell::new(0));
    let burst = |sim: &mut Simulation, calls: u32| {
        ok.set(0);
        for _ in 0..calls {
            let (client, ok) = (bed.client.clone(), ok.clone());
            sim.spawn(async move {
                let echo = Bytes::from_static(b"burst");
                if client.call(3, echo, BulkParams::default()).await.is_ok() {
                    ok.set(ok.get() + 1);
                }
            });
        }
        sim.run();
        assert_eq!(ok.get(), calls);
    };
    let count = |name: &str| h.metrics().get(name).unwrap_or(0);

    // Twice what one slot and one tenant's queue hold: both sheds.
    burst(&mut sim, 128);
    let peak = format!("server.node{}.peak_inflight", bed.server_hca.node().0);
    assert_eq!(count(&peak), 1);
    assert!(
        count("server.qos.shed.tenant_backlog") > 0,
        "no arrival shed"
    );
    assert!(count("server.qos.shed.deadline") > 0, "no deadline shed");
    assert!(count("server.qos.credit_clamps") > 0);

    // A window the queue holds whole (one in service, the rest queued),
    // so nothing is shed at arrival and every admitted call's slot is
    // still taken when the window's last call arrives. Clean calls walk
    // the clamped grant back up and carry it to the client.
    let window = rpcrdma::qos::QOS_TENANT_BACKLOG;
    bed.server.set_credit_grant(window);
    let client = bed.client.clone();
    sim.block_on(async move {
        for _ in 0..64 {
            let echo = Bytes::from_static(b"sync");
            client.call(3, echo, BulkParams::default()).await.unwrap();
        }
    });
    let arrival_sheds = count("server.qos.shed.tenant_backlog");
    burst(&mut sim, window);
    assert_eq!(count("server.qos.shed.tenant_backlog"), arrival_sheds);
    assert_eq!(count("server.violations.window_exceeded"), 0);
    assert_eq!(bed.server.qos_depth(), 0);
}

/// A call still parked in the QoS queue when its connection tears down
/// has no one to answer: the pump that dequeues it drops it, with no
/// task-queue pass, no service and no busy reply — the serialized queue
/// goes to live connections only.
#[test]
fn a_torn_down_connection_leaves_nothing_in_the_dispatch_queue() {
    const CALLS: u64 = 48;
    let mut sim = Simulation::new(41);
    sim.enable_span_tracing();
    let h = sim.handle();
    let cfg = RpcRdmaConfig {
        threads: NonZeroU32::new(8),
        credits: 128,
        ..Default::default()
    };
    let bed = setup_on(&h, cfg, StrategyKind::Dynamic, solaris_sdr_cpu());
    for _ in 0..CALLS {
        let client = bed.client.clone();
        sim.spawn(async move {
            let _ = client
                .call(3, Bytes::from_static(b"late"), BulkParams::default())
                .await;
        });
    }
    // The burst is queued in well under a millisecond; at 180 µs a
    // task-queue pass, most of it is still waiting at 1 ms. (Off the
    // µs grid, so nothing but the strike happens at that instant.)
    let strike = sim_core::SimTime::from_nanos(1_000_017);
    sim.run_until(strike);
    let stats = &bed.server.stats;
    let queued = bed.server.qos_depth();
    assert!(queued > 8, "only {queued} calls left in the queue");
    let sheds = stats.sheds.get();
    // The client dies: both ends of its connection error out.
    bed.client.qp().force_error();
    bed.server_qp.force_error();
    sim.run();
    assert_eq!(bed.server.qos_depth(), 0);
    let late: Vec<_> = server_spans(&sim)
        .into_iter()
        .filter(|s| s.name == "dispatch" && s.start > strike)
        .map(|s| s.start)
        .collect();
    assert!(
        late.is_empty(),
        "dispatched for a dead connection at {late:?}"
    );
    assert_eq!(stats.sheds.get(), sheds, "answered a dead connection busy");
}

/// One 1 MiB READ on the `linux_ddr_raid` machines, in the terms the
/// push's timing contract is stated in.
struct MibRead {
    /// The server's `op` and `rdma_write` (push) spans.
    op: SpanRecord,
    push: SpanRecord,
    /// The HCA's RDMA Write spans, in wire order (a READ has no others).
    writes: Vec<SpanRecord>,
    /// Bytes per segment of the client's sink: one WQE each.
    segments: Vec<u64>,
    server_cpu: SimDuration,
    server_pages_pinned: u64,
    /// Server doorbells of the call, the reply Send's included.
    doorbells: u64,
}

const MIB: u64 = 1 << 20;

/// A bed of `linux_ddr_raid` machines, span tracing on, and a 1 MiB
/// user buffer on the client for READs to land in.
fn mib_bed(strategy: StrategyKind) -> (Simulation, TestBed, ib_verbs::Buffer) {
    let sim = Simulation::new(53);
    sim.enable_span_tracing();
    let service = Rc::new(ToyFs { seed: 42 });
    let cfg = RpcRdmaConfig::default();
    let costs = linux_ddr_raid_costs();
    let bed = setup_serving(&sim.handle(), cfg, strategy, costs, service);
    let user = bed.client_mem.alloc(MIB);
    (sim, bed, user)
}

/// READ 1 MiB into `user`, checked.
async fn read_mib(client: RdmaRpcClient, user: ib_verbs::Buffer) {
    let bulk = BulkParams {
        recv_max: Some(MIB),
        recv_user: Some((user, 0)),
        ..Default::default()
    };
    let got = client.call(1, read_args(MIB as u32), bulk).await.unwrap();
    assert!(got.bulk.unwrap().content_eq(&Payload::synthetic(42, MIB)));
}

fn mib_read(strategy: StrategyKind) -> MibRead {
    let (mut sim, bed, user) = mib_bed(strategy);
    let segments = match strategy {
        StrategyKind::AllPhysical => user.phys_runs(0, MIB).iter().map(|r| r.1).collect(),
        _ => vec![MIB],
    };
    // Once to warm the slab and the FMR pool; the second is measured.
    sim.block_on(read_mib(bed.client.clone(), user.clone()));
    sim.run();
    sim.take_spans();
    let cpu = bed.server_hca.cpu();
    let before = (
        cpu.busy_time(),
        bed.server_hca.reg_stats().pages_pinned,
        bed.server_hca.doorbells(),
    );
    sim.block_on(read_mib(bed.client.clone(), user));
    sim.run();
    let spans = sim.take_spans();
    let named = |component, name| {
        let is = |s: &&SpanRecord| (s.component, s.name) == (component, name);
        spans.iter().filter(is).cloned().collect::<Vec<_>>()
    };
    let [op] = &named("server", "op")[..] else {
        panic!("{strategy:?}: one op")
    };
    let [push] = &named("server", "rdma_write")[..] else {
        panic!("{strategy:?}: one push")
    };
    MibRead {
        op: op.clone(),
        push: push.clone(),
        writes: named("hca", "rdma_write"),
        segments,
        server_cpu: cpu.busy_time() - before.0,
        server_pages_pinned: bed.server_hca.reg_stats().pages_pinned - before.1,
        doorbells: bed.server_hca.doorbells() - before.2,
    }
}

/// The push's timing contract, on an all-physical window. At 7ddf056
/// the whole window was pinned before the first Write and every
/// Write had its own doorbell; now the first Write leaves after its own
/// pages, the rest are pinned while the link is busy — the HCA never
/// waits for a page — and each provisioning step is one WR chain behind
/// one doorbell. Same pages, same CPU time; the call is shorter by the
/// pinning that moved behind the wire, and by the unpin that moved off
/// the handler's clock.
#[test]
fn all_physical_read_push_pins_ahead_of_each_doorbell_not_of_the_first() {
    /// The `op` span of this READ at 7ddf056, and its server CPU time.
    const PARENT_OP_NS: u64 = 1_443_949;
    const PARENT_SERVER_CPU_NS: u64 = 283_951;
    let (_, hca) = linux_ddr_raid_costs();
    let pin = |bytes: u64| hca.pin_per_page * bytes.div_ceil(4096);
    let r = mib_read(StrategyKind::AllPhysical);
    let wqes = r.segments.len();
    assert!(wqes >= 8, "a sink of {wqes} segments shows no doubling");
    assert_eq!(r.writes.len(), wqes, "one WQE per physical run");

    // The first Write: its own pages, then its doorbell. (The parent:
    // all 256 pages.)
    let lead = r.writes[0].start.saturating_since(r.push.start);
    assert_eq!(lead, pin(r.segments[0]) + hca.wqe_process);
    // From there the send queue is never idle: a Write follows the one
    // before at once, or one doorbell's processing later.
    let gap = |w: &[SpanRecord]| w[1].start.saturating_since(w[0].end);
    let gaps: Vec<_> = r.writes.windows(2).map(gap).collect();
    let chains = 1 + gaps.iter().filter(|g| **g == hca.wqe_process).count();
    let fed = |g: &SimDuration| g.is_zero() || *g == hca.wqe_process;
    assert!(gaps.iter().all(fed), "the wire waited for a pin: {gaps:?}");
    // One doorbell per provisioning step, and the reply Send's; the
    // provisioned prefix at least doubles per step.
    assert_eq!(r.doorbells as usize, chains + 1);
    assert_eq!(chains, provisioning_steps(&r.segments).len());
    let doublings = (MIB / r.segments[0]).next_power_of_two().trailing_zeros();
    assert!(chains <= doublings as usize + 1, "{chains} chains");
    assert!(chains <= wqes.next_power_of_two().trailing_zeros() as usize + 1);

    // Moved, not removed: every page pinned once, the same CPU time.
    assert_eq!(r.server_pages_pinned, MIB / 4096);
    assert_eq!(r.server_cpu.as_nanos(), PARENT_SERVER_CPU_NS);
    let push = r.push.end.saturating_since(r.push.start);
    assert_eq!(push, pin(MIB), "the push span is the pinning");
    // The call is shorter by the pinning now hidden behind the wire, by
    // the doorbells the chains saved, and by the unpin of the window
    // that *retire* hands to a free core instead of waiting for it.
    let saved =
        pin(MIB) - pin(r.segments[0]) + hca.wqe_process * (wqes - chains) as u64 + pin(MIB) / 2;
    let op = r.op.end.saturating_since(r.op.start);
    assert_eq!(op.as_nanos(), PARENT_OP_NS - saved.as_nanos());
}

/// A window that is DMA-able as a whole when reserved — a TPT
/// registration, a slab entry — has nothing to provision: one remote
/// segment, one WQE, one chain, and the call takes what it took at
/// 7ddf056 to the nanosecond, less the unpin *retire* no longer waits
/// for: the 256 pages of a deregistered or unmapped window; none for a
/// slab entry, which is parked, not unpinned.
#[test]
fn tpt_backed_read_push_is_one_chain_and_takes_what_it_took() {
    let parent_op_ns = [
        (StrategyKind::Dynamic, 3_119_764, MIB / 4096),
        (StrategyKind::Fmr, 2_361_764, MIB / 4096),
        (StrategyKind::Cache, 1_613_823, 0),
    ];
    let (_, hca) = linux_ddr_raid_costs();
    for (strategy, parent_ns, unpinned) in parent_op_ns {
        let r = mib_read(strategy);
        assert_eq!(r.writes.len(), 1, "{strategy:?}");
        assert_eq!(r.doorbells, 2, "{strategy:?}: the Write, the reply");
        let op = r.op.end.saturating_since(r.op.start);
        let unpin = hca.pin_per_page * unpinned / 2;
        assert_eq!(op.as_nanos(), parent_ns - unpin.as_nanos(), "{strategy:?}");
    }
}

/// The first client span named `name`.
fn client_span(spans: &[SpanRecord], name: &str) -> SpanRecord {
    let is = |s: &&SpanRecord| (s.component, s.name) == ("client", name);
    spans.iter().find(is).expect("client span").clone()
}

/// A release waits for the revocation, not the unpin. A 1 MiB
/// all-physical READ's sink rides the global steering tag, which is
/// never revoked, so the client's *release* has nothing to wait for:
/// `client/call` ends when `client/finish` does (at 790bf79, 256
/// half-price unpins — 89.6 µs — later). The unpin is still charged, in
/// full, to the client's CPU once the simulation drains, and every page
/// pinned is given back.
#[test]
fn all_physical_release_returns_at_once_and_still_charges_the_unpin() {
    let (_, hca) = linux_ddr_raid_costs();
    let (mut sim, bed, user) = mib_bed(StrategyKind::AllPhysical);
    let (client, cpu) = (bed.client.clone(), bed.client_hca.cpu().clone());
    let at_return = Rc::new(std::cell::Cell::new(SimDuration::ZERO));
    let seen = at_return.clone();
    sim.block_on(async move {
        read_mib(client, user).await;
        seen.set(cpu.busy_time());
    });
    sim.run();
    let spans = sim.take_spans();
    let (call, finish) = (client_span(&spans, "call"), client_span(&spans, "finish"));
    assert_eq!(call.end, finish.end, "the release waited");
    let unpin = hca.pin_per_page * (MIB / 4096) / 2;
    let busy = bed.client_hca.cpu().busy_time();
    assert_eq!(busy - at_return.get(), unpin, "the unpin went uncharged");
    let s = bed.client_hca.reg_stats();
    assert_eq!((s.pages_pinned, s.pages_unpinned), (MIB / 4096, MIB / 4096));
}

/// The other half of the rule: a Dynamic sink's deregistration is the
/// TPT invalidate that makes the buffer safe to reuse, and the client
/// still waits for it. A 128 KiB READ on `solaris_sdr` machines, against
/// the bare peer of [`lying_server_bed`] telling the truth (it pushes
/// the data into the call's write chunk and answers): `client/call`
/// ends `dereg_cost(32)` after `finish` (at 790bf79, 32 half-price
/// unpins — 11.2 µs — later still), and an RDMA Write the peer posts to
/// the sink's steering tag the instant the call returns is refused.
#[test]
fn dynamic_release_waits_for_the_invalidation_and_refuses_the_old_rkey() {
    const LEN: u64 = 128 * 1024;
    let mut sim = Simulation::new(79);
    sim.enable_span_tracing();
    let h = sim.handle();
    let bed = lying_server_bed(&h, Design::ReadWrite, solaris_sdr_cpu());
    bed.lie.set(Lie::Pushed(LEN));
    let user = bed.mem.alloc(LEN);
    let violations = h.metrics().get("tpt.violations");
    let (client, peer, sink) = (bed.client.clone(), bed.peer.clone(), bed.sink.clone());
    let (got, stale) = sim.block_on(async move {
        let bulk = BulkParams {
            recv_max: Some(LEN),
            recv_user: Some((user, 0)),
            ..Default::default()
        };
        let got = client.call(1, read_args(LEN as u32), bulk).await;
        let old = sink.get().expect("the peer saw the call");
        let data = Payload::synthetic(9, 4096);
        let posted = peer.post_rdma_write(data, old.addr, old.rkey, ib_verbs::WrId(3), true);
        posted.unwrap();
        (got, peer.send_cq().next().await.result)
    });
    let data = got.unwrap().bulk.unwrap();
    assert!(data.content_eq(&Payload::synthetic(42, LEN)));
    let spans = sim.take_spans();
    let (call, finish) = (client_span(&spans, "call"), client_span(&spans, "finish"));
    assert_eq!(call.end, finish.end + HcaConfig::sdr().dereg_cost(32));
    assert!(stale.is_err(), "a Write to a deregistered sink landed");
    let after = h.metrics().get("tpt.violations");
    assert_eq!(after, violations.map(|v| v + 1));
    let s = bed.client_hca.reg_stats();
    assert_eq!((s.pages_pinned, s.pages_unpinned, s.deregs), (32, 32, 1));
}

/// The provisioned prefix after each step of pushing `wqes` (bytes per
/// WQE) through an all-physical window: the rule `max(b, 2p)`, restated.
fn provisioning_steps(wqes: &[u64]) -> Vec<u64> {
    let (mut at, mut steps) = (0, Vec::new());
    for len in wqes {
        let p = steps.last().copied().unwrap_or(0);
        if at + len > p {
            steps.push((at + len).max(2 * p));
        }
        at += len;
    }
    steps
}

/// A push that dies half-provisioned. The server's QP is forced into
/// error while the pages of step `k` are being pinned: that step
/// finishes, its chain is refused, and the push stops — no step `k+1`,
/// no page pinned for a Write that will never be posted. *Retire* gives
/// back exactly what was taken (so a push torn one step later costs the
/// pin and the half-price unpin of that step's pages more, and nothing
/// else), and the client's retransmission is served on a fresh
/// connection.
#[test]
fn qp_error_between_chains_stops_the_push_and_unpins_only_what_was_pinned() {
    let (_, hca) = linux_ddr_raid_costs();
    let dry = mib_read(StrategyKind::AllPhysical);
    let pin = |bytes: u64| hca.pin_per_page * bytes.div_ceil(4096);
    let steps = provisioning_steps(&dry.segments);
    assert!(steps[2] < MIB / 2, "the strikes must leave most unpinned");

    // Tear the push during step `k`; the server's pages pinned and CPU
    // time from the call's arrival until the torn op has long retired.
    let torn_during = |k: usize| {
        let strike = dry.push.start + pin(steps[k - 1]) + SimDuration::from_nanos(1);
        let (mut sim, bed, user) = mib_bed(StrategyKind::AllPhysical);
        install_connector(&bed);
        sim.block_on(read_mib(bed.client.clone(), user.clone()));
        sim.run();
        let (live, hca) = (bed.server_mem.live_buffers(), bed.server_hca.clone());
        let before = (hca.reg_stats().pages_pinned, hca.cpu().busy_time());
        let spent = Rc::new(std::cell::Cell::new((0, SimDuration::ZERO)));
        let (h, victim, seen) = (sim.handle(), bed.server_qp.clone(), spent.clone());
        sim.spawn(async move {
            h.sleep_until(strike).await;
            victim.force_error();
            // Well before the client's retransmission timer.
            h.sleep(SimDuration::from_millis(1)).await;
            let pinned = hca.reg_stats().pages_pinned - before.0;
            seen.set((pinned, hca.cpu().busy_time() - before.1));
        });
        sim.block_on(read_mib(bed.client.clone(), user));
        sim.run();
        // The retransmission found the reply in the DRC and was pushed
        // in full on the fresh connection.
        let cs = bed.client.stats();
        assert_eq!(cs.reconnects.get(), 1, "step {k}");
        assert!(cs.retransmits.get() >= 1, "step {k}");
        assert_eq!(bed.server.stats.ops.get(), 2, "step {k}");
        assert_eq!(bed.server.stats.drc_replays.get(), 1, "step {k}");
        assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0, "step {k}");
        assert_eq!(bed.server_mem.live_buffers(), live, "step {k}");
        spent.get()
    };
    let (pages_1, cpu_1) = torn_during(1);
    let (pages_2, cpu_2) = torn_during(2);
    assert_eq!(pages_1, steps[1].div_ceil(4096), "pinned past the failure");
    assert_eq!(pages_2, steps[2].div_ceil(4096), "pinned past the failure");
    let step = pin(steps[2]) - pin(steps[1]);
    assert_eq!(
        cpu_2 - cpu_1,
        step + step / 2,
        "unpinned what was not pinned"
    );
}

/// [`ToyFs`], its `n`-th call `delays[n]` late (the last delay
/// repeats): a server whose service time the client's retransmission
/// timer has to live with.
struct SlowFs {
    sim: Sim,
    delays: Vec<SimDuration>,
    served: std::cell::Cell<usize>,
    fs: ToyFs,
}

impl SlowFs {
    fn new(sim: &Sim, delays: Vec<SimDuration>) -> SlowFs {
        SlowFs {
            sim: sim.clone(),
            delays,
            served: Default::default(),
            fs: ToyFs { seed: 42 },
        }
    }
}

impl BulkService for SlowFs {
    fn program(&self) -> u32 {
        PROG
    }
    fn version(&self) -> u32 {
        VERS
    }
    fn call(
        &self,
        cx: CallContext,
        proc_num: u32,
        args: Bytes,
        bulk_in: Option<sim_core::SgList>,
    ) -> LocalBoxFuture<BulkDispatch> {
        let n = self.served.replace(self.served.get() + 1);
        let delay = self.delays[n.min(self.delays.len() - 1)];
        let sim = self.sim.clone();
        let served = self.fs.call(cx, proc_num, args, bulk_in);
        Box::pin(async move {
            sim.sleep(delay).await;
            served.await
        })
    }
}

/// An honest slow READ must not kill its connection. The server takes
/// 60 ms, the client retransmits at 50: the copy finds its original
/// still executing and is dropped, the original answers both. (At
/// 7ddf056 the copy parked and was *replayed* when the original
/// finished — a second push into chunks the client had released the
/// moment the first reply arrived: a TPT violation, the server's QP in
/// error, the next call `Disconnected`. Under the global steering tag
/// the stale Write landed instead.)
#[test]
fn duplicate_of_a_slow_read_is_dropped_not_replayed_into_released_chunks() {
    for strategy in [StrategyKind::Dynamic, StrategyKind::AllPhysical] {
        let mut sim = Simulation::new(59);
        let h = sim.handle();
        let service = Rc::new(SlowFs::new(&h, vec![SimDuration::from_millis(60)]));
        let cfg = RpcRdmaConfig::default();
        // Each READ's timer is the floor: the connection has timed no
        // reply yet — the first READ's came to its retransmission, which
        // by Karn's rule is no sample.
        assert!(cfg.call_timeout < service.delays[0]);
        let costs = (CpuCosts::default(), HcaConfig::sdr());
        let bed = setup_serving(&h, cfg, strategy, costs, service);
        let client = bed.client.clone();
        let pinned = bed.server_hca.reg_stats().pages_pinned;
        sim.block_on(async move {
            for _ in 0..2 {
                let bulk = BulkParams {
                    recv_max: Some(128 * 1024),
                    ..Default::default()
                };
                let got = client.call(1, read_args(128 * 1024), bulk).await;
                let data = got.expect("a slow READ is still a served READ").bulk;
                assert!(data
                    .unwrap()
                    .content_eq(&Payload::synthetic(42, 128 * 1024)));
            }
        });
        sim.run();
        let (cs, ss) = (bed.client.stats(), &bed.server.stats);
        assert_eq!(
            (cs.timeouts.get(), cs.retransmits.get()),
            (2, 2),
            "{strategy:?}"
        );
        assert_eq!(cs.reconnects.get(), 0, "{strategy:?}");
        assert_eq!(ss.ops.get(), 2, "{strategy:?}");
        let drops = h.metrics().get("server.drc.inprogress_drops");
        assert_eq!((drops, ss.drc_replays.get()), (Some(2), 0), "{strategy:?}");
        assert_eq!(h.metrics().get("tpt.violations"), Some(0), "{strategy:?}");
        assert!(!bed.server_qp.is_error(), "{strategy:?}");
        // One push per READ: nothing written, or pinned, twice.
        assert_eq!(ss.bulk_out.get(), 2 * 128 * 1024, "{strategy:?}");
        if strategy == StrategyKind::AllPhysical {
            let pushed = bed.server_hca.reg_stats().pages_pinned - pinned;
            assert_eq!(pushed, 2 * 32, "{strategy:?}");
        }
        assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0, "{strategy:?}");
    }
}

/// The retransmission timer learns the server. READs alternate 1 ms and
/// 45 ms of service, then one takes 55 ms: a timer fixed at the 50 ms
/// `call_timeout` fires on that one and resends it into the server's
/// queue (a timeout and a retransmission, the copy dropped as in
/// progress), while the connection's RFC 6298 estimate — `srtt +
/// 4·rttvar`, about 105 ms by then — waits it out.
#[test]
fn a_reply_timer_learns_a_bimodal_server_and_resends_nothing() {
    let ms = SimDuration::from_millis;
    let mut delays = [ms(1), ms(45)].repeat(4);
    delays.push(ms(55));
    let reads = delays.len() as u64;
    let mut sim = Simulation::new(61);
    let h = sim.handle();
    let service = Rc::new(SlowFs::new(&h, delays));
    let costs = (CpuCosts::default(), HcaConfig::sdr());
    let cfg = RpcRdmaConfig::default();
    let bed = setup_serving(&h, cfg, StrategyKind::Dynamic, costs, service);
    let client = bed.client.clone();
    sim.block_on(async move {
        for _ in 0..reads {
            let bulk = BulkParams {
                recv_max: Some(128 * 1024),
                ..Default::default()
            };
            let got = client.call(1, read_args(128 * 1024), bulk).await;
            got.expect("a slow READ is still a served READ");
        }
    });
    sim.run();
    let (cs, ss) = (bed.client.stats(), &bed.server.stats);
    assert_eq!((cs.timeouts.get(), cs.retransmits.get()), (0, 0));
    assert_eq!(h.metrics().get("server.drc.inprogress_drops"), Some(0));
    assert_eq!(ss.ops.get(), reads);
}

/// The five shapes of call the reply-signaling rule tells apart.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// Chunkless call, chunkless reply (GETATTR, LOOKUP, ACCESS).
    Echo,
    /// 100 000 bytes pulled by RDMA Read; the window is released in
    /// *land*, before the reply.
    ChunkedWrite,
    /// 512 bytes behind `RDMA_MSGP` padding.
    InlineWrite,
    /// 128 KiB pushed into the write chunk, or exposed.
    Read,
    /// A 20 000-byte reply head (READDIR): reply chunk, or exposed.
    LongReply,
}

impl Shape {
    const ALL: [Shape; 5] = [
        Shape::Echo,
        Shape::ChunkedWrite,
        Shape::InlineWrite,
        Shape::Read,
        Shape::LongReply,
    ];

    /// Whether the op holds a buffer that its reply Send's completion
    /// releases (Read-Write) or exposes (Read-Read).
    fn holds_a_buffer(self) -> bool {
        matches!(self, Shape::Read | Shape::LongReply)
    }

    /// Pages the server's handler unpinned on its own clock until the
    /// release stopped waiting for the unpin: the window *land* gave
    /// back, or the Read-Write source window or staged reply *retire*
    /// did. A slab entry is parked, not unpinned; a Read-Read exposure
    /// is released by `RDMA_DONE`, after the op.
    fn pages_unpinned_in_op(self, design: Design, strategy: StrategyKind) -> u64 {
        let released: u64 = match self {
            Shape::ChunkedWrite => 100_000,
            Shape::Read if design == Design::ReadWrite => 128 * 1024,
            Shape::LongReply if design == Design::ReadWrite => 20_000,
            _ => 0,
        };
        match strategy {
            StrategyKind::Cache => 0,
            _ => released.div_ceil(4096),
        }
    }

    async fn call(self, client: RdmaRpcClient, user: ib_verbs::Buffer) {
        let write = |len| BulkParams {
            send: Some((user.clone(), 0, len)),
            ..Default::default()
        };
        let (proc_num, args, bulk) = match self {
            Shape::Echo => (3, Bytes::from_static(b"getattr!"), BulkParams::default()),
            Shape::ChunkedWrite => (2, Bytes::new(), write(100_000)),
            Shape::InlineWrite => (2, Bytes::new(), write(512)),
            Shape::Read => {
                let bulk = BulkParams {
                    recv_max: Some(128 * 1024),
                    ..Default::default()
                };
                (1, read_args(128 * 1024), bulk)
            }
            Shape::LongReply => {
                let bulk = BulkParams {
                    reply_max: Some(64 * 1024),
                    ..Default::default()
                };
                (4, read_args(20_000), bulk)
            }
        };
        client.call(proc_num, args, bulk).await.unwrap();
    }
}

/// What serving one call cost the server: its spans, and what its send
/// CQ counted meanwhile.
struct Served {
    op: SpanRecord,
    reply_send: SpanRecord,
    /// The reply Send on the wire: from the HCA picking the WQE up to
    /// the last byte landing at the client.
    wire: SpanRecord,
    /// RDMA Reads on the wire meanwhile, always signaled: the server's
    /// for a chunked WRITE (a Read-Read client's pulls are its own).
    reads: u64,
    completions: u64,
    /// Interrupts the server HCA took: the send CQ's, plus one per
    /// message received ([`received`]).
    interrupts: u64,
}

/// Messages the server receives for one `shape` call, each an
/// interrupt on its receive CQ: the call, and Read-Read's `RDMA_DONE`
/// for a buffer the reply exposed.
fn received(design: Design, shape: Shape) -> u64 {
    1 + (design == Design::ReadRead && shape.holds_a_buffer()) as u64
}

/// Serve one warmed-up `shape` call on a `solaris_sdr` bed and account
/// for it.
fn serve(cfg: RpcRdmaConfig, strategy: StrategyKind, shape: Shape) -> Served {
    let mut sim = Simulation::new(61);
    sim.enable_span_tracing();
    let h = sim.handle();
    let bed = setup_on(&h, cfg, strategy, solaris_sdr_cpu());
    let user = bed.client_mem.alloc(128 * 1024);
    user.write(0, Payload::synthetic(7, 100_000));
    // Once to warm the slab and the FMR pool; the second is measured.
    sim.block_on(shape.call(bed.client.clone(), user.clone()));
    sim.run();
    sim.take_spans();
    let cq = bed.server_qp.send_cq();
    let before = (cq.delivered(), bed.server_hca.cq_interrupts());
    sim.block_on(shape.call(bed.client.clone(), user));
    sim.run();
    let spans = sim.take_spans();
    let named = |component, name| {
        let is = |s: &&SpanRecord| (s.component, s.name) == (component, name);
        spans.iter().filter(is).cloned().collect::<Vec<_>>()
    };
    let ([op], [reply_send]) = (
        &named("server", "op")[..],
        &named("server", "reply_send")[..],
    ) else {
        panic!("{shape:?}: one op, one reply");
    };
    let sends = named("hca", "send");
    let wire = sends.iter().find(|s| s.start >= reply_send.start);
    Served {
        op: op.clone(),
        reply_send: reply_send.clone(),
        wire: wire.expect("the reply on the wire").clone(),
        reads: named("hca", "rdma_read").len() as u64,
        completions: cq.delivered() - before.0,
        interrupts: bed.server_hca.cq_interrupts() - before.1,
    }
}

/// The reply Send is signaled iff the op holds something its completion
/// releases. A GETATTR-shaped call and a WRITE (its window went back in
/// *land*) hold nothing: the Send is posted unsignaled, `reply_send` is
/// a zero-wait span, the `op` span ends at the post — shorter than at
/// 056c230, where every reply was signaled, by exactly the flight nobody
/// waits for any more — and the send CQ sees no completion and takes no
/// interrupt for it. A READ's source window, a staged long reply and
/// every Read-Read exposure are held: the handler resumes at the Send's
/// completion, retires inside the `op` span, and the span is what it
/// was to the nanosecond — less, in both halves, the unpin the handler
/// no longer waits for ([`Shape::pages_unpinned_in_op`] × half a pin,
/// 350 ns a page on `solaris_sdr`).
#[test]
fn reply_send_is_signaled_iff_the_op_holds_a_buffer() {
    use Design::{ReadRead, ReadWrite};
    use StrategyKind::{AllPhysical, Cache, Dynamic, Fmr};
    /// `(design, strategy, the op span of each [`Shape::ALL`] at
    /// 056c230 in ns)`.
    type Row = (Design, StrategyKind, [u64; 5]);
    #[rustfmt::skip]
    const PARENT_OP_NS: [Row; 8] = [
        (ReadWrite, Dynamic,     [201_781, 548_904, 201_790, 734_145, 328_578]),
        (ReadWrite, Fmr,         [201_781, 523_904, 201_790, 686_745, 367_578]),
        (ReadWrite, Cache,       [201_781, 327_654, 201_790, 467_710, 244_353]),
        (ReadWrite, AllPhysical, [201_781, 372_264, 201_790, 375_240, 233_957]),
        (ReadRead,  Dynamic,     [201_781, 548_904, 201_790, 478_221, 270_265]),
        (ReadRead,  Fmr,         [201_781, 523_904, 201_790, 447_621, 261_265]),
        (ReadRead,  Cache,       [201_781, 327_654, 201_790, 319_786, 219_790]),
        (ReadRead,  AllPhysical, [201_781, 372_264, 201_790, 224_270, 205_265]),
    ];
    let hca = HcaConfig::sdr();
    // What follows the reply's last byte landing at the client, for a
    // handler that waits: the ack's flight back, the completion
    // interrupt.
    let completion = hca.link_latency + SimDuration::from_nanos(solaris_sdr_cpu().interrupt_ns);
    let took = |s: &SpanRecord| s.end.saturating_since(s.start);
    for (design, strategy, parent_ns) in PARENT_OP_NS {
        for (shape, parent_ns) in Shape::ALL.into_iter().zip(parent_ns) {
            let cfg = RpcRdmaConfig::default().with_design(design);
            let s = serve(cfg, strategy, shape);
            let tag = format!("{design:?}/{strategy:?}/{shape:?}");
            let unpin = hca.pin_per_page * shape.pages_unpinned_in_op(design, strategy) / 2;
            let parent_ns = parent_ns - unpin.as_nanos();
            let received = received(design, shape);
            if shape.holds_a_buffer() {
                assert_eq!((s.completions, s.interrupts), (1, 1 + received), "{tag}");
                assert_eq!(s.reply_send.end, s.wire.end + completion, "{tag}");
                assert!(s.reply_send.end <= s.op.end, "{tag}");
                assert_eq!(took(&s.op).as_nanos(), parent_ns, "{tag}");
            } else {
                // Only a chunked WRITE's RDMA Reads complete.
                let interrupts = s.reads + received;
                assert_eq!(
                    (s.completions, s.interrupts),
                    (s.reads, interrupts),
                    "{tag}"
                );
                assert!(took(&s.reply_send).is_zero(), "{tag}");
                assert_eq!(s.op.end, s.reply_send.end, "{tag}");
                // Nobody waits, and the reply is no later for it: the
                // post rang the doorbell.
                let rung = s.wire.start.saturating_since(s.reply_send.start);
                assert_eq!(rung, hca.wqe_process, "{tag}");
                let flight = s.wire.end.saturating_since(s.reply_send.start) + completion;
                assert_eq!(
                    took(&s.op).as_nanos(),
                    parent_ns - flight.as_nanos(),
                    "{tag}"
                );
            }
        }
    }
}

/// A Send nobody waits on can fail but never vanish. The server's QP is
/// forced into error the nanosecond after a WRITE's unsignaled reply was
/// posted — its handler already gone: the WQE flushes as an error
/// completion, the connection tears down with nothing in flight and
/// nothing held, and the client's same-XID retransmission on the fresh
/// connection is answered from the duplicate request cache, the WRITE
/// applied once.
#[test]
fn qp_error_under_an_unsignaled_reply_tears_down_clean_and_replays_once() {
    let bed_on = |sim: &Simulation| {
        let bed = setup(&sim.handle(), Design::ReadWrite, StrategyKind::Dynamic);
        let user = bed.client_mem.alloc(4096);
        user.write(0, Payload::synthetic(7, 512));
        (bed, user)
    };
    // Dry run: when is the second WRITE's reply posted?
    let mut sim = Simulation::new(67);
    sim.enable_span_tracing();
    let (bed, user) = bed_on(&sim);
    sim.block_on(Shape::InlineWrite.call(bed.client.clone(), user.clone()));
    sim.run();
    sim.take_spans();
    sim.block_on(Shape::InlineWrite.call(bed.client.clone(), user));
    let spans = server_spans(&sim);
    let reply = spans.iter().find(|s| s.name == "reply_send").unwrap();
    assert_eq!(reply.start, reply.end, "the handler waited");
    let strike = reply.end + SimDuration::from_nanos(1);

    // Same seed, same schedule — and the server's QP dies there.
    let mut sim = Simulation::new(67);
    let h = sim.handle();
    let (bed, user) = bed_on(&sim);
    install_connector(&bed);
    sim.block_on(Shape::InlineWrite.call(bed.client.clone(), user.clone()));
    sim.run();
    let (live, ops) = (bed.server_mem.live_buffers(), bed.server.stats.ops.get());
    let (victim, cq) = (bed.server_qp.clone(), bed.server_qp.send_cq().clone());
    let completions = cq.delivered();
    let (server, struck) = (bed.server.clone(), Rc::new(std::cell::Cell::new(None)));
    let seen = struck.clone();
    sim.spawn(async move {
        h.sleep_until(strike).await;
        // Executed, answered, retired: the handler is not parked on
        // the Send.
        seen.set(Some((server.stats.ops.get(), server.stats.inflight.get())));
        victim.force_error();
    });
    sim.block_on(Shape::InlineWrite.call(bed.client.clone(), user));
    sim.run();
    assert_eq!(struck.get(), Some((ops + 1, 0)));
    // The flushed Send surfaced as one (error) completion, and the
    // router consumed it.
    assert_eq!((cq.delivered() - completions, cq.depth()), (1, 0));
    let (cs, ss) = (bed.client.stats(), &bed.server.stats);
    assert_eq!(cs.reconnects.get(), 1);
    assert!(cs.retransmits.get() >= 1);
    assert_eq!((ss.ops.get(), ss.drc_replays.get()), (ops + 1, 1));
    assert_eq!(ss.inflight.get(), 0);
    assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0);
    assert_eq!(bed.server_mem.live_buffers(), live);
}

/// A dropped unsignaled reply costs what a dropped signaled one did:
/// one timeout, one retransmission, one replay from the duplicate
/// request cache — the WRITE applied once, the connection kept.
#[test]
fn dropped_unsignaled_reply_costs_one_timeout_and_one_replay() {
    let mut sim = Simulation::new(71);
    let bed = setup(&sim.handle(), Design::ReadWrite, StrategyKind::Dynamic);
    let user = bed.client_mem.alloc(4096);
    user.write(0, Payload::synthetic(7, 512));
    // The next message arriving at the client is the WRITE's reply.
    bed.fabric.drop_next_to(NodeId(0), 1);
    sim.block_on(Shape::InlineWrite.call(bed.client.clone(), user));
    sim.run();
    let (cs, ss) = (bed.client.stats(), &bed.server.stats);
    assert_eq!((cs.timeouts.get(), cs.retransmits.get()), (1, 1));
    assert_eq!(cs.reconnects.get(), 0);
    assert_eq!((ss.ops.get(), ss.drc_replays.get()), (1, 1));
    assert_eq!(
        bed.server_qp.send_cq().delivered(),
        0,
        "a reply was signaled"
    );
    assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0);
}

/// The write chunk is a bound like the reply chunk is. A READ result
/// larger than the sink provisioned for it used to be laid across the
/// chunk's segments until they ran out and answered OK — 8 192 of
/// 50 000 bytes, the reply head still saying 50 000. Read-Write: refused
/// before a window is reserved or a Write posted, typed error, counted.
/// Read-Read has no client-provisioned chunk for the server to outgrow;
/// there the client refuses the over-long exposure itself.
#[test]
fn bulk_larger_than_its_write_chunk_is_refused_not_truncated() {
    let strategies = [
        StrategyKind::Dynamic,
        StrategyKind::AllPhysical,
        StrategyKind::Cache,
    ];
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in strategies {
            let tag = format!("{design:?}/{strategy:?}");
            let mut sim = Simulation::new(73);
            sim.enable_span_tracing();
            let h = sim.handle();
            let bed = setup(&h, design, strategy);
            let read = |len: u32| {
                let client = bed.client.clone();
                let bulk = BulkParams {
                    recv_max: Some(8192),
                    ..Default::default()
                };
                async move { client.call(1, read_args(len), bulk).await }
            };
            // Control: a result that fits its chunk arrives whole.
            let fits = sim.block_on(read(8192)).unwrap();
            assert!(fits.bulk.unwrap().content_eq(&Payload::synthetic(42, 8192)));
            sim.run();
            sim.take_spans();
            let before = bed.server_hca.reg_stats();
            let bulk_out = bed.server.stats.bulk_out.get();

            let got = sim.block_on(read(50_000));
            let overflows = h.metrics().get("server.write_chunk_overflows");
            if design == Design::ReadRead {
                // No sink to overrun: the client holds the exposure to
                // the bound it asked for, before pulling a byte.
                assert_eq!(got.unwrap_err(), onc_rpc::RpcError::BadReply, "{tag}");
                assert_eq!(overflows, Some(0), "{tag}");
                continue;
            }
            let err = got.expect_err("a cut-off READ was answered OK");
            assert!(
                matches!(err, onc_rpc::RpcError::Rejected(AcceptStat::GarbageArgs)),
                "{tag}: {err:?}"
            );
            assert_eq!(overflows, Some(1), "{tag}");
            let writes = sim.take_spans();
            let writes = writes
                .iter()
                .filter(|s| (s.component, s.name) == ("hca", "rdma_write"));
            assert_eq!(writes.count(), 0, "{tag}: a Write was posted");
            let after = bed.server_hca.reg_stats();
            assert_eq!(
                (after.dynamic_regs, after.pages_pinned),
                (before.dynamic_regs, before.pages_pinned),
                "{tag}: a window was reserved"
            );
            assert_eq!(bed.server.stats.bulk_out.get(), bulk_out, "{tag}");
            // The connection is still good.
            let echo = bed.client.clone();
            let echo = sim.block_on(async move {
                let args = Bytes::from_static(b"still here");
                echo.call(3, args, BulkParams::default()).await
            });
            assert_eq!(&echo.unwrap().body[..10], b"still here", "{tag}");
            sim.run();
            assert_eq!(bed.server_hca.reg_stats().leaked_mrs, 0, "{tag}");
        }
    }
}
