//! End-to-end behavioural tests of the simulated verbs layer: data
//! movement, protection enforcement, IB ordering semantics, and
//! registration cost accounting.

use std::rc::Rc;

use ib_verbs::{
    connect, Access, Fabric, Hca, HcaConfig, HostMem, NodeId, Opcode, PhysLayout, VerbsError, WrId,
};
use sim_core::{Cpu, CpuCosts, Payload, Sim, SimDuration, Simulation};

struct Host {
    hca: Hca,
    mem: Rc<HostMem>,
}

fn host(sim: &Sim, fabric: &Fabric<ib_verbs::WireMsg>, id: u32, cfg: HcaConfig) -> Host {
    let node = NodeId(id);
    let cpu = Cpu::new(sim, format!("cpu{id}"), 2, CpuCosts::default());
    let mem = Rc::new(HostMem::new(node, PhysLayout::default(), sim.fork_rng()));
    let hca = Hca::new(sim, node, cfg, cpu, mem.clone(), fabric);
    Host { hca, mem }
}

fn two_hosts(sim: &Sim) -> (Host, Host) {
    let fabric = Fabric::new(sim);
    let a = host(sim, &fabric, 0, HcaConfig::sdr());
    let b = host(sim, &fabric, 1, HcaConfig::sdr());
    (a, b)
}

#[test]
fn send_recv_roundtrip_delivers_bytes() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);

    let rbuf = b.mem.alloc(4096);
    qb.post_recv(rbuf.clone(), 0, 4096, WrId(100)).unwrap();
    qa.post_send(Payload::real(vec![7u8; 256]), WrId(1), true)
        .unwrap();

    let (recv, send) = sim.block_on(async move {
        let r = qb.recv_cq().next().await;
        let s = qa.send_cq().next().await;
        (r, s)
    });
    assert_eq!(recv.wr_id, WrId(100));
    assert_eq!(recv.opcode, Opcode::Recv);
    assert_eq!(recv.result, Ok(256));
    assert_eq!(&rbuf.read(0, 256).materialize()[..], &[7u8; 256]);
    assert_eq!(send.result, Ok(256));
}

/// A gathered Send lands its two pieces back to back in the receive
/// buffer, and the completion hands the second one over as it was sent:
/// a synthetic piece stays synthetic. The receive buffer must hold both.
#[test]
fn gathered_send_delivers_its_tail_as_its_own_piece() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);

    let rbuf = b.mem.alloc(4096);
    qb.post_recv(rbuf.clone(), 0, 4096, WrId(100)).unwrap();
    let tail = Payload::synthetic(9, 1000);
    qa.post_send_gather(Payload::real(vec![7u8; 96]), tail.clone(), WrId(1), true)
        .unwrap();
    let (recv, send) = sim.block_on({
        let (qa, qb) = (qa.clone(), qb.clone());
        async move { (qb.recv_cq().next().await, qa.send_cq().next().await) }
    });
    assert_eq!((recv.result, send.result), (Ok(1096), Ok(1096)));
    assert_eq!(recv.payload.unwrap().len(), 96);
    assert_eq!(recv.tail, Some(tail.clone()));
    assert!(rbuf.read(96, 1000).content_eq(&tail));

    // The receive buffer is sized for the whole message, not its head.
    qb.post_recv(rbuf, 0, 1095, WrId(101)).unwrap();
    qa.post_send_gather(Payload::real(vec![7u8; 96]), tail, WrId(2), true)
        .unwrap();
    let s = sim.block_on(async move { qa.send_cq().next().await });
    let too_small = VerbsError::ReceiveTooSmall {
        needed: 1096,
        have: 1095,
    };
    assert_eq!(s.result, Err(too_small));
}

#[test]
fn send_without_posted_recv_errors_both_sides() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);

    qa.post_send(Payload::real(vec![1u8; 64]), WrId(1), true)
        .unwrap();
    let s = sim.block_on({
        let qa = qa.clone();
        async move { qa.send_cq().next().await }
    });
    assert_eq!(s.result, Err(VerbsError::ReceiverNotReady));
    assert!(qa.is_error());
    assert!(qb.is_error());
    // Subsequent posts are rejected.
    assert!(matches!(
        qa.post_send(Payload::empty(), WrId(2), true),
        Err(VerbsError::Flushed)
    ));
}

#[test]
fn rdma_write_places_data_without_remote_cpu() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);

    let target = b.mem.alloc(8192);
    let b_cpu_before = b.hca.cpu().busy_time();
    let (mr, comp) = sim.block_on({
        let bh = b.hca.clone();
        let target = target.clone();
        let qa = qa.clone();
        async move {
            let mr = bh.register(&target, 0, 8192, Access::REMOTE_WRITE).await;
            qa.post_rdma_write(
                Payload::real(vec![9u8; 1024]),
                mr.addr() + 100,
                mr.rkey(),
                WrId(5),
                true,
            )
            .unwrap();
            let c = qa.send_cq().next().await;
            (mr, c)
        }
    });
    assert_eq!(comp.result, Ok(1024));
    assert_eq!(&target.read(100, 1024).materialize()[..], &[9u8; 1024]);
    // Remote CPU did only the registration work, nothing per-byte.
    let reg_cost = b.hca.cpu().busy_time() - b_cpu_before;
    assert!(reg_cost < SimDuration::from_micros(10));
    drop(mr);
}

#[test]
fn rdma_read_fetches_remote_data() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);

    let src = b.mem.alloc(4096);
    src.write(0, Payload::real((0u8..=255).collect::<Vec<_>>()));
    let dst = a.mem.alloc(4096);

    let comp = sim.block_on({
        let bh = b.hca.clone();
        let src = src.clone();
        let dst = dst.clone();
        let qa = qa.clone();
        async move {
            let mr = bh.register(&src, 0, 4096, Access::REMOTE_READ).await;
            qa.post_rdma_read(dst.clone(), 0, mr.addr(), mr.rkey(), 256, WrId(9))
                .unwrap();
            let c = qa.send_cq().next().await;
            mr.deregister().await;
            c
        }
    });
    assert_eq!(comp.result, Ok(256));
    assert_eq!(
        dst.read(0, 256).materialize(),
        src.read(0, 256).materialize()
    );
}

#[test]
fn rdma_read_with_guessed_rkey_is_rejected_and_audited() {
    let mut sim = Simulation::new(42);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);

    // The server holds a remotely-readable secret.
    let secret = b.mem.alloc(4096);
    secret.write(0, Payload::real(vec![0x5a; 64]));
    let dst = a.mem.alloc(4096);

    let comp = sim.block_on({
        let bh = b.hca.clone();
        let secret = secret.clone();
        let dst = dst.clone();
        let qa = qa.clone();
        async move {
            let mr = bh.register(&secret, 0, 4096, Access::REMOTE_READ).await;
            // Attacker guesses a steering tag.
            let guess = ib_verbs::Rkey(mr.rkey().0 ^ 0x1357_9bdf);
            qa.post_rdma_read(dst.clone(), 0, mr.addr(), guess, 64, WrId(66))
                .unwrap();
            let c = qa.send_cq().next().await;
            mr.deregister().await;
            c
        }
    });
    assert!(matches!(comp.result, Err(VerbsError::RemoteAccess { .. })));
    assert!(qa.is_error(), "attacker connection must be torn down");
    assert_eq!(h.metrics().get("tpt.violations"), Some(1));
    // No data leaked.
    assert_eq!(&dst.read(0, 64).materialize()[..], &[0u8; 64]);
}

#[test]
fn write_send_ordering_guarantee_holds() {
    // The Read-Write design's correctness: when the RPC Reply (Send)
    // arrives, the preceding RDMA Write data must already be placed.
    let mut sim = Simulation::new(7);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);

    let data_buf = b.mem.alloc(1 << 20);
    let reply_buf = b.mem.alloc(4096);
    qb.post_recv(reply_buf, 0, 4096, WrId(200)).unwrap();

    let observed = sim.block_on({
        let bh = b.hca.clone();
        let data_buf = data_buf.clone();
        let qa = qa.clone();
        let qb = qb.clone();
        async move {
            let mr = bh
                .register(&data_buf, 0, 1 << 20, Access::REMOTE_WRITE)
                .await;
            // Large write followed immediately by a small send.
            qa.post_rdma_write(
                Payload::synthetic(3, 1 << 20),
                mr.addr(),
                mr.rkey(),
                WrId(1),
                false,
            )
            .unwrap();
            qa.post_send(Payload::real(vec![1]), WrId(2), true).unwrap();
            // Receiver: at the instant the Send arrives, check the data.
            let _ = qb.recv_cq().next().await;
            let got = data_buf.read(0, 1 << 20);
            mr.deregister().await;
            got
        }
    });
    assert!(
        observed.content_eq(&Payload::synthetic(3, 1 << 20)),
        "send overtook the RDMA write"
    );
}

#[test]
fn read_then_send_has_no_ordering_guarantee() {
    // Paper §4.1: the requester of an RDMA Read must NOT assume a
    // subsequent Send waits for the read data. We verify the hazard is
    // modelled: the send arrives at the peer before the read completes
    // locally.
    let mut sim = Simulation::new(7);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);

    let src = b.mem.alloc(1 << 20); // 1 MiB read: slow
    let dst = a.mem.alloc(1 << 20);
    let notice = b.mem.alloc(64);
    qb.post_recv(notice, 0, 64, WrId(300)).unwrap();

    let (send_arrival, read_done) = sim.block_on({
        let bh = b.hca.clone();
        let h2 = h.clone();
        let src = src.clone();
        let dst = dst.clone();
        let qa = qa.clone();
        let qb = qb.clone();
        async move {
            let mr = bh.register(&src, 0, 1 << 20, Access::REMOTE_READ).await;
            qa.post_rdma_read(dst, 0, mr.addr(), mr.rkey(), 1 << 20, WrId(1))
                .unwrap();
            qa.post_send(Payload::real(vec![1]), WrId(2), false)
                .unwrap();
            let _ = qb.recv_cq().next().await;
            let send_arrival = h2.now();
            let c = qa.send_cq().next().await;
            assert_eq!(c.opcode, Opcode::RdmaRead);
            let read_done = h2.now();
            mr.deregister().await;
            (send_arrival, read_done)
        }
    });
    assert!(
        send_arrival < read_done,
        "expected the send to overtake the read response"
    );
}

#[test]
fn ord_limit_stalls_send_queue() {
    // With max_ord outstanding reads, the next WQE (even a Send) waits.
    let mut sim = Simulation::new(7);
    let h = sim.handle();
    let fabric = Fabric::new(&h);
    let mut cfg = HcaConfig::sdr();
    cfg.max_ord = 2;
    cfg.max_ird = 2;
    // Huge turnaround so reads visibly serialize.
    cfg.read_turnaround = SimDuration::from_micros(500);
    let a = host(&h, &fabric, 0, cfg);
    let b = host(&h, &fabric, 1, cfg);
    let (qa, _qb) = connect(&a.hca, &b.hca);

    let src = b.mem.alloc(1 << 20);
    let dst = a.mem.alloc(1 << 20);

    let completion_times = sim.block_on({
        let bh = b.hca.clone();
        let h2 = h.clone();
        let src = src.clone();
        let dst = dst.clone();
        let qa = qa.clone();
        async move {
            let mr = bh.register(&src, 0, 1 << 20, Access::REMOTE_READ).await;
            for i in 0..6u64 {
                qa.post_rdma_read(
                    dst.clone(),
                    i * 1024,
                    mr.addr() + i * 1024,
                    mr.rkey(),
                    1024,
                    WrId(i),
                )
                .unwrap();
            }
            let mut times = Vec::new();
            for _ in 0..6 {
                let c = qa.send_cq().next().await;
                assert!(c.result.is_ok());
                times.push(h2.now());
            }
            mr.deregister().await;
            times
        }
    });
    // 6 reads with window 2 and 500us turnaround: finish in ~3 waves.
    let span = completion_times[5].saturating_since(completion_times[0]);
    assert!(
        span >= SimDuration::from_micros(900),
        "reads did not serialize under the ORD/IRD window: span {span}"
    );
}

#[test]
fn registration_pays_tpt_and_pin_costs() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, _b) = two_hosts(&h);
    let buf = a.mem.alloc(128 * 1024);
    let cfg = *a.hca.config();

    sim.block_on({
        let hca = a.hca.clone();
        let buf = buf.clone();
        async move {
            let mr = hca
                .register(&buf, 0, 128 * 1024, Access::REMOTE_WRITE)
                .await;
            mr.deregister().await;
        }
    });
    // TPT engine: one register + one invalidate transaction.
    let expect_tpt = cfg.reg_cost(32) + cfg.dereg_cost(32);
    let stats = a.hca.reg_stats();
    assert_eq!(stats.dynamic_regs, 1);
    assert_eq!(stats.deregs, 1);
    assert_eq!(stats.pages_pinned, 32);
    assert!(sim.now().as_nanos() >= expect_tpt.as_nanos());
}

#[test]
fn fmr_map_is_cheaper_than_dynamic_registration() {
    // On the Solaris/SDR profile FMR is only marginally cheaper (the
    // paper's Figure 7 finding); on the Linux/DDR profile the gap is
    // large (Figure 9). Both orderings must hold.
    fn measure(cfg: HcaConfig) -> (SimDuration, SimDuration) {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fabric = Fabric::new(&h);
        let a = host(&h, &fabric, 0, cfg);
        let buf = a.mem.alloc(128 * 1024);
        sim.block_on({
            let hca = a.hca.clone();
            let h2 = h.clone();
            async move {
                let t0 = h2.now();
                let mr = hca
                    .register(&buf, 0, 128 * 1024, Access::REMOTE_WRITE)
                    .await;
                mr.deregister().await;
                let t_dynamic = h2.now().saturating_since(t0);

                let pool = ib_verbs::FmrPool::from_config(&hca);
                let t1 = h2.now();
                let mr = pool
                    .map(&buf, 0, 128 * 1024, Access::REMOTE_WRITE)
                    .await
                    .unwrap();
                mr.deregister().await;
                let t_fmr = h2.now().saturating_since(t1);
                (t_dynamic, t_fmr)
            }
        })
    }
    let (dyn_sdr, fmr_sdr) = measure(HcaConfig::sdr());
    assert!(
        fmr_sdr < dyn_sdr,
        "SDR: FMR ({fmr_sdr}) must beat dynamic ({dyn_sdr})"
    );
    let (dyn_ddr, fmr_ddr) = measure(HcaConfig::ddr());
    assert!(
        fmr_ddr.as_nanos() * 4 < dyn_ddr.as_nanos() * 3,
        "DDR: FMR ({fmr_ddr}) should be clearly cheaper than dynamic ({dyn_ddr})"
    );
    // The relative FMR advantage is larger on the Linux/DDR profile.
    let ratio_sdr = fmr_sdr.as_nanos() as f64 / dyn_sdr.as_nanos() as f64;
    let ratio_ddr = fmr_ddr.as_nanos() as f64 / dyn_ddr.as_nanos() as f64;
    assert!(
        ratio_ddr < ratio_sdr,
        "DDR ratio {ratio_ddr:.2} should beat SDR ratio {ratio_sdr:.2}"
    );
}

#[test]
fn fmr_pool_exhaustion_and_oversize_fall_back() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, _b) = two_hosts(&h);
    let buf = a.mem.alloc(4 << 20);

    sim.block_on({
        let hca = a.hca.clone();
        let buf = buf.clone();
        async move {
            let pool = ib_verbs::FmrPool::new(&hca, 2, 1 << 20);
            // Oversize region: immediate fallback.
            let e = pool.map(&buf, 0, 2 << 20, Access::REMOTE_READ).await;
            assert!(matches!(e, Err(VerbsError::FmrUnavailable(_))));
            // Exhaust the pool.
            let m1 = pool.map(&buf, 0, 4096, Access::REMOTE_READ).await.unwrap();
            let m2 = pool
                .map(&buf, 4096, 4096, Access::REMOTE_READ)
                .await
                .unwrap();
            assert_eq!(pool.available(), 0);
            let e = pool.map(&buf, 8192, 4096, Access::REMOTE_READ).await;
            assert!(matches!(e, Err(VerbsError::FmrUnavailable(_))));
            assert_eq!(
                hca.sim()
                    .metrics()
                    .get(&format!("hca.node{}.fmr_fallbacks", hca.node().0)),
                Some(2)
            );
            // Unmapping returns entries to the pool.
            m1.deregister().await;
            m2.deregister().await;
            assert_eq!(pool.available(), 2);
            let m3 = pool.map(&buf, 8192, 4096, Access::REMOTE_READ).await;
            assert!(m3.is_ok());
            m3.unwrap().deregister().await;
        }
    });
}

#[test]
fn dropped_mr_is_counted_as_leak_and_invalidated() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);
    let buf = b.mem.alloc(4096);
    let dst = a.mem.alloc(4096);

    let comp = sim.block_on({
        let bh = b.hca.clone();
        let buf = buf.clone();
        let qa = qa.clone();
        let dst = dst.clone();
        async move {
            let mr = bh.register(&buf, 0, 4096, Access::REMOTE_READ).await;
            let rkey = mr.rkey();
            let addr = mr.addr();
            drop(mr); // leak: no deregister() call
            qa.post_rdma_read(dst, 0, addr, rkey, 64, WrId(1)).unwrap();
            qa.send_cq().next().await
        }
    });
    assert!(comp.is_err(), "dropped MR must not remain accessible");
    assert_eq!(b.hca.reg_stats().leaked_mrs, 1);
}

#[test]
fn all_physical_global_rkey_reaches_memory_without_tpt_cost() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);

    let src = b.mem.alloc(8192);
    src.write(0, Payload::real(vec![0xAB; 128]));
    let dst = a.mem.alloc(8192);
    let g = b.hca.enable_all_physical();

    let comp = sim.block_on({
        let qa = qa.clone();
        let dst = dst.clone();
        let src = src.clone();
        async move {
            qa.post_rdma_read(dst, 0, src.addr(), g, 128, WrId(1))
                .unwrap();
            qa.send_cq().next().await
        }
    });
    assert_eq!(comp.result, Ok(128));
    assert_eq!(&dst.read(0, 128).materialize()[..], &[0xAB; 128]);
    // No dynamic registration happened on the responder.
    assert_eq!(b.hca.reg_stats().dynamic_regs, 0);
}

#[test]
fn registry_forgets_dropped_buffers() {
    // The host's index follows buffer lifetime: the last handle — a
    // clone, one `lookup` made, a registration — removes the entry, so
    // the index is as large as what is live, not as what ever was.
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, _b) = two_hosts(&h);
    let before = a.mem.live_buffers();
    let mut freed = Vec::new();
    for i in 0..10_000u64 {
        let buf = a.mem.alloc(1 + i % 9000);
        let found = a.mem.lookup(buf.addr(), 1).expect("live");
        freed.push(buf.addr());
        drop((buf.clone(), buf));
        assert_eq!(a.mem.live_buffers(), before + 1);
        drop(found);
    }
    let buf = a.mem.alloc(4096);
    freed.push(buf.addr());
    let mr = sim.block_on({
        let hca = a.hca.clone();
        async move { hca.register(&buf, 0, 4096, Access::LOCAL).await }
    });
    assert_eq!(a.mem.live_buffers(), before + 1, "the Mr holds it");
    sim.block_on(mr.deregister());
    assert_eq!(a.mem.live_buffers(), before);
    assert!(freed.iter().all(|&addr| a.mem.lookup(addr, 1).is_none()));

    // A buffer may outlive its host's memory manager.
    let m = HostMem::new(NodeId(7), PhysLayout::default(), h.fork_rng());
    let survivor = m.alloc(64);
    drop(m);
    survivor.write(0, Payload::real(vec![1; 8]));
}

#[test]
fn all_physical_reaches_exactly_what_is_still_held() {
    // The host's buffer index forgets a buffer with its last handle. A
    // registration or a posted receive is such a handle: memory they
    // alone keep alive stays reachable through the global steering tag,
    // and stops being reachable (and indexed) once they let go.
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);
    let g = b.hca.enable_all_physical();
    let before = b.mem.live_buffers();

    let registered = b.mem.alloc(4096);
    registered.write(0, Payload::real(vec![0xCD; 64]));
    let posted = b.mem.alloc(4096);
    let (reg_addr, posted_addr) = (registered.addr(), posted.addr());
    qb.post_recv(posted, 0, 4096, WrId(9)).unwrap();
    let dst = a.mem.alloc(4096);

    let (read, write, after_dereg) = sim.block_on({
        let (bh, qa, dst) = (b.hca.clone(), qa.clone(), dst.clone());
        async move {
            let mr = bh.register(&registered, 0, 4096, Access::LOCAL).await;
            drop(registered); // the registration is now the only holder
            qa.post_rdma_read(dst.clone(), 0, reg_addr, g, 64, WrId(1))
                .unwrap();
            let read = qa.send_cq().next().await;
            qa.post_rdma_write(Payload::real(vec![7; 16]), posted_addr, g, WrId(2), true)
                .unwrap();
            let write = qa.send_cq().next().await;
            mr.deregister().await;
            qa.post_rdma_read(dst, 0, reg_addr, g, 64, WrId(3)).unwrap();
            (read, write, qa.send_cq().next().await)
        }
    });
    assert_eq!(read.result, Ok(64));
    assert_eq!(&dst.read(0, 64).materialize()[..], &[0xCD; 64]);
    assert_eq!(write.result, Ok(16));
    assert!(after_dereg.is_err(), "freed memory must not be reachable");
    assert!(b.mem.lookup(reg_addr, 1).is_none());
    // Only the posted receive is left of what this test allocated.
    assert_eq!(b.mem.live_buffers(), before + 1);
}

#[test]
fn exposure_ledger_distinguishes_designs() {
    // Read-Read style (server exposes, remote-read) accumulates
    // exposure; Read-Write style (server registers local-only for its
    // RDMA Writes) accumulates none.
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (_a, b) = two_hosts(&h);
    let buf = b.mem.alloc(1 << 20);

    sim.block_on({
        let bh = b.hca.clone();
        let h2 = h.clone();
        let buf = buf.clone();
        async move {
            // "Read-Read": exposed for 1ms.
            let mr = bh.register(&buf, 0, 1 << 20, Access::REMOTE_READ).await;
            h2.sleep(SimDuration::from_millis(1)).await;
            mr.deregister().await;
            // "Read-Write": local-only for the same duration.
            let mr = bh.register(&buf, 0, 1 << 20, Access::LOCAL).await;
            h2.sleep(SimDuration::from_millis(1)).await;
            mr.deregister().await;
        }
    });
    let rep = b.hca.exposure_report();
    assert_eq!(rep.exposures, 1, "only the remote-read reg is an exposure");
    assert!(rep.byte_us >= (1 << 20) * 1_000);
    assert_eq!(rep.current_bytes, 0);
}

#[test]
fn concurrent_registrations_queue_on_tpt_engine() {
    // Eight "server threads" registering concurrently serialize on the
    // single TPT engine — the contention behind Figure 7.
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let (a, _b) = two_hosts(&h);
    let cfg = *a.hca.config();

    for _ in 0..8 {
        let hca = a.hca.clone();
        let buf = a.mem.alloc(128 * 1024);
        sim.spawn(async move {
            let mr = hca.register(&buf, 0, 128 * 1024, Access::LOCAL).await;
            mr.deregister().await;
        });
    }
    sim.run();
    let serialized = (cfg.reg_cost(32) + cfg.dereg_cost(32)).as_nanos() * 8;
    assert!(
        sim.now().as_nanos() >= serialized,
        "TPT transactions must serialize: {} < {}",
        sim.now().as_nanos(),
        serialized
    );
    assert!(a.hca.tpt_engine_utilization() > 0.9);
}

#[test]
fn vectored_write_gathers_pieces_contiguously() {
    // One WQE carrying three SGEs places the pieces back to back at
    // the remote address — and rings exactly one doorbell.
    let mut sim = Simulation::new(11);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);

    let target = b.mem.alloc(8192);
    let src = a.mem.alloc(4096);
    let comp = sim.block_on({
        let ah = a.hca.clone();
        let bh = b.hca.clone();
        let target = target.clone();
        let qa = qa.clone();
        async move {
            let lmr = ah.register(&src, 0, 4096, Access::LOCAL).await;
            let mr = bh.register(&target, 0, 8192, Access::REMOTE_WRITE).await;
            let sges = vec![
                ib_verbs::Sge {
                    data: Payload::real(vec![1u8; 100]),
                    lkey: lmr.rkey(),
                },
                ib_verbs::Sge {
                    data: Payload::real(vec![2u8; 200]),
                    lkey: lmr.rkey(),
                },
                ib_verbs::Sge {
                    data: Payload::real(vec![3u8; 300]),
                    lkey: lmr.rkey(),
                },
            ];
            qa.post_rdma_write_vec(sges, mr.addr(), mr.rkey(), WrId(9), true)
                .unwrap();
            qa.send_cq().next().await
        }
    });
    assert_eq!(comp.result, Ok(600));
    let placed = target.read(0, 600).materialize();
    assert!(placed[..100].iter().all(|&x| x == 1));
    assert!(placed[100..300].iter().all(|&x| x == 2));
    assert!(placed[300..600].iter().all(|&x| x == 3));
    assert_eq!(a.hca.doorbells(), 1);
}

#[test]
fn sg_list_limits_are_enforced() {
    let sim = Simulation::new(12);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);
    let lkey = ib_verbs::Rkey(0x5151);
    let max = a.hca.config().max_send_sge;

    let sge = |n: usize| {
        (0..n)
            .map(|_| ib_verbs::Sge {
                data: Payload::real(vec![0u8; 8]),
                lkey,
            })
            .collect::<Vec<_>>()
    };
    assert!(matches!(
        qa.post_rdma_write_vec(sge(0), 0, lkey, WrId(1), true),
        Err(VerbsError::InvalidRequest(_))
    ));
    assert!(matches!(
        qa.post_rdma_write_vec(sge(max + 1), 0, lkey, WrId(2), true),
        Err(VerbsError::InvalidRequest(_))
    ));
    drop(sim);
    drop(b);
}

#[test]
fn all_physical_refuses_local_scatter_gather() {
    // The global steering tag addresses memory by physical run; the
    // HCA cannot gather across runs in one WQE (paper §4.3). A
    // multi-SGE post whose entries carry the global tag must fail with
    // a local protection error before anything reaches the wire, while
    // a single all-physical SGE per WQE remains legal.
    let mut sim = Simulation::new(13);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);
    let global = a.hca.enable_all_physical();

    let target = b.mem.alloc(4096);
    let comp = sim.block_on({
        let bh = b.hca.clone();
        let target = target.clone();
        let qa = qa.clone();
        async move {
            let mr = bh.register(&target, 0, 4096, Access::REMOTE_WRITE).await;
            let two = vec![
                ib_verbs::Sge {
                    data: Payload::real(vec![4u8; 64]),
                    lkey: global,
                },
                ib_verbs::Sge {
                    data: Payload::real(vec![5u8; 64]),
                    lkey: global,
                },
            ];
            let err = qa
                .post_rdma_write_vec(two, mr.addr(), mr.rkey(), WrId(1), true)
                .unwrap_err();
            assert!(matches!(err, VerbsError::LocalProtection(_)), "{err:?}");
            assert!(!qa.is_error(), "a refused post must not tear down the QP");

            // One physical run per WQE is the legal all-physical shape.
            let one = vec![ib_verbs::Sge {
                data: Payload::real(vec![6u8; 64]),
                lkey: global,
            }];
            qa.post_rdma_write_vec(one, mr.addr(), mr.rkey(), WrId(2), true)
                .unwrap();
            qa.send_cq().next().await
        }
    });
    assert_eq!(comp.result, Ok(64));
    assert_eq!(&target.read(0, 64).materialize()[..], &[6u8; 64]);
}

/// The one doorbell rule, pinned by equality: every unchained post
/// rings once; a WR chain rings once, when it closes, for whatever it
/// queued — also when its closure gave up part-way (those WQEs still
/// complete), and not at all when it queued nothing; and a QP forced
/// into error outside a chain has nothing left to ring.
#[test]
fn one_doorbell_per_post_and_one_per_chain() {
    let mut sim = Simulation::new(14);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);
    let target = b.mem.alloc(64 * 1024);
    let mr = sim.block_on({
        let bh = b.hca.clone();
        async move {
            bh.register(&target, 0, 64 * 1024, Access::REMOTE_WRITE)
                .await
        }
    });
    let post = |i: u64| {
        let data = Payload::synthetic(3, 1024);
        qa.post_rdma_write(data, mr.addr() + i * 1024, mr.rkey(), WrId(i), true)
    };
    // A post the QP refuses without going into error.
    let refused = || qa.post_rdma_write_vec(Vec::new(), mr.addr(), mr.rkey(), WrId(99), true);
    let mut results = |n: usize| {
        let cq = qa.send_cq().clone();
        sim.block_on(async move {
            let mut results = Vec::new();
            for _ in 0..n {
                results.push(cq.next().await.result);
            }
            results
        })
    };
    let doorbells = || a.hca.doorbells();

    (0..3).try_for_each(post).unwrap();
    assert_eq!(doorbells(), 3, "one per unchained post");
    assert_eq!(results(3), vec![Ok(1024); 3]);

    qa.chain(|| {
        (3..6).try_for_each(post).unwrap();
        assert_eq!(doorbells(), 3, "rang inside the chain");
    });
    assert_eq!(doorbells(), 4, "one for the chain");
    assert_eq!(results(3), vec![Ok(1024); 3]);

    let gave_up = qa.chain(|| {
        post(6)?;
        post(7)?;
        refused()?;
        post(8)
    });
    assert!(matches!(gave_up, Err(VerbsError::InvalidRequest(_))));
    assert_eq!(doorbells(), 5, "one for the two WQEs queued");
    assert_eq!(results(2), vec![Ok(1024); 2]);
    assert!(qa.chain(refused).is_err());
    assert_eq!(doorbells(), 5, "an empty chain rings nothing");

    (9..11).try_for_each(post).unwrap();
    qa.force_error();
    assert_eq!(doorbells(), 7, "nothing pending for the error to ring");
    assert_eq!(results(2), vec![Err(VerbsError::Flushed); 2]);
    sim.run();
    assert_eq!(qa.send_cq().depth(), 0);
    assert_eq!(doorbells(), 7);
}

/// A WR chain is one doorbell however long it is, and pays the
/// doorbell's processing once: its WQEs leave back to back.
#[test]
fn wr_chain_rings_once_when_it_closes() {
    let mut sim = Simulation::new(14);
    sim.enable_span_tracing();
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);
    let target = b.mem.alloc(64 * 1024);
    let mr = sim.block_on({
        let bh = b.hca.clone();
        async move {
            bh.register(&target, 0, 64 * 1024, Access::REMOTE_WRITE)
                .await
        }
    });
    let post = |i: u64| {
        let data = Payload::synthetic(3, 1024);
        qa.post_rdma_write(data, mr.addr() + i * 1024, mr.rkey(), WrId(i), true)
    };
    // Drain `n` completions; the send queue's idle time between the
    // Writes that produced them.
    let mut gaps = |n: usize| {
        let cq = qa.send_cq().clone();
        sim.block_on(async move {
            for _ in 0..n {
                assert_eq!(cq.next().await.result, Ok(1024));
            }
        });
        let mut spans = sim.take_spans();
        spans.retain(|s| s.name == "rdma_write");
        let gap = |w: &[sim_core::SpanRecord]| w[1].start.saturating_since(w[0].end);
        spans.windows(2).map(gap).collect::<Vec<_>>()
    };
    // Unchained: a doorbell and its processing each.
    (0..3).try_for_each(post).unwrap();
    assert_eq!(a.hca.doorbells(), 3);
    assert_eq!(gaps(3), [HcaConfig::sdr().wqe_process; 2]);
    // Chained: one of each, and nothing rings before it closes.
    qa.chain(|| {
        (3..6).try_for_each(post).unwrap();
        assert_eq!(a.hca.doorbells(), 3, "rang inside the chain");
    });
    assert_eq!(a.hca.doorbells(), 4);
    assert_eq!(gaps(3), [SimDuration::ZERO; 2]);
}

// ---------------------------------------------------------------------
// Completion semantics of work requests nobody waits on. The instants
// are exact: an acknowledgement reaches the requester one propagation
// latency after the message arrives at the responder, and an
// unsignaled work request surfaces only if it failed.
// ---------------------------------------------------------------------

/// When a message of `len` payload bytes posted at t=0 on an idle QP
/// arrives at the responder: doorbell processing, one serialization,
/// one propagation latency.
fn arrival(cfg: &HcaConfig, len: u64) -> SimDuration {
    cfg.wqe_process
        + sim_core::transfer_time(cfg.wire_header_bytes + len, cfg.link_bandwidth)
        + cfg.link_latency
}

fn at(d: SimDuration) -> sim_core::SimTime {
    sim_core::SimTime::ZERO + d
}

const TICK: SimDuration = SimDuration::from_nanos(1);

#[test]
fn unsignaled_write_to_bad_rkey_errors_one_latency_after_arrival() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);
    let cfg = HcaConfig::sdr();

    qa.post_rdma_write(
        Payload::synthetic(1, 1024),
        0x10_0000,
        ib_verbs::Rkey(0xBAD),
        WrId(1),
        false,
    )
    .unwrap();
    let arrives = arrival(&cfg, 1024);
    let fails = arrives + cfg.link_latency;

    sim.run_until(at(arrives - TICK));
    assert!(!qb.is_error(), "responder judged before the data arrived");
    sim.run_until(at(arrives));
    assert!(qb.is_error(), "responder QP errors at the arrival instant");
    sim.run_until(at(fails - TICK));
    assert_eq!(qa.send_cq().depth(), 0, "nak surfaced before it propagated");
    assert!(!qa.is_error());
    sim.run_until(at(fails));
    assert!(qa.is_error());
    assert_eq!(qa.send_cq().depth(), 1);
    let c = qa.send_cq().poll().unwrap();
    assert_eq!((c.wr_id, c.opcode), (WrId(1), Opcode::RdmaWrite));
    assert!(matches!(c.result, Err(VerbsError::RemoteAccess { .. })));
    sim.run();
    assert_eq!(qa.send_cq().depth(), 0, "exactly one error completion");
    assert_eq!(h.metrics().get("tpt.violations"), Some(1));
}

#[test]
fn unsignaled_send_without_posted_recv_errors_one_latency_after_arrival() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);
    let cfg = HcaConfig::sdr();

    qa.post_send(Payload::synthetic(2, 64), WrId(7), false)
        .unwrap();
    let fails = arrival(&cfg, 64) + cfg.link_latency;

    sim.run_until(at(fails - TICK));
    assert_eq!(qa.send_cq().depth(), 0);
    assert!(!qa.is_error());
    assert!(qb.is_error(), "responder errored at arrival");
    sim.run_until(at(fails));
    assert!(qa.is_error());
    let c = qa.send_cq().poll().expect("one error completion");
    assert_eq!((c.wr_id, c.opcode), (WrId(7), Opcode::Send));
    assert_eq!(c.result, Err(VerbsError::ReceiverNotReady));
    sim.run();
    assert_eq!(qa.send_cq().depth(), 0);
}

#[test]
fn unsignaled_send_to_a_dropped_hca_flushes_instead_of_vanishing() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);
    let cfg = HcaConfig::sdr();
    // The responder's host goes away: HCA, memory and its QP handle.
    drop((b, qb));

    qa.post_send(Payload::synthetic(2, 64), WrId(9), false)
        .unwrap();
    let fails = arrival(&cfg, 64) + cfg.link_latency;

    sim.run_until(at(fails - TICK));
    assert_eq!(qa.send_cq().depth(), 0);
    assert!(!qa.is_error());
    sim.run_until(at(fails));
    assert!(qa.is_error());
    let c = qa.send_cq().poll().expect("the lost send must flush");
    assert_eq!((c.wr_id, c.opcode), (WrId(9), Opcode::Send));
    assert_eq!(c.result, Err(VerbsError::Flushed));
    sim.run();
    assert_eq!(qa.send_cq().depth(), 0);
}

#[test]
fn fault_dropped_send_completes_ok_and_is_never_delivered() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);
    let cfg = HcaConfig::sdr();
    let rbuf = b.mem.alloc(64);
    qb.post_recv(rbuf, 0, 64, WrId(100)).unwrap();
    a.hca.fabric().drop_next_to(NodeId(1), 1);

    qa.post_send(Payload::synthetic(2, 64), WrId(1), true)
        .unwrap();
    let completes = arrival(&cfg, 64) + cfg.link_latency;

    sim.run_until(at(completes - TICK));
    assert_eq!(qa.send_cq().depth(), 0);
    sim.run_until(at(completes));
    let c = qa.send_cq().poll().expect("loss above the link is silent");
    assert_eq!((c.wr_id, c.result), (WrId(1), Ok(64)));
    sim.run();
    assert!(!qa.is_error() && !qb.is_error());
    assert_eq!(qb.recv_cq().depth(), 0, "dropped message was delivered");
    assert_eq!(qb.posted_recvs(), 1, "dropped message consumed a receive");
    assert_eq!(a.hca.fabric().dropped(NodeId(1)), 1);
}

#[test]
fn signaled_send_completes_one_latency_after_arrival() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);
    let cfg = HcaConfig::sdr();
    let rbuf = b.mem.alloc(4096);
    qb.post_recv(rbuf, 0, 4096, WrId(100)).unwrap();

    qa.post_send(Payload::synthetic(2, 256), WrId(1), true)
        .unwrap();
    let arrives = arrival(&cfg, 256);
    let completes = arrives + cfg.link_latency;

    sim.run_until(at(arrives - TICK));
    assert_eq!(qb.recv_cq().depth(), 0);
    sim.run_until(at(arrives));
    assert_eq!(qb.recv_cq().depth(), 1, "placed at the arrival instant");
    sim.run_until(at(completes - TICK));
    assert_eq!(qa.send_cq().depth(), 0);
    sim.run_until(at(completes));
    let c = qa.send_cq().poll().expect("signaled completion");
    assert_eq!(
        (c.wr_id, c.opcode, c.result),
        (WrId(1), Opcode::Send, Ok(256))
    );
    sim.run();
    assert_eq!(qa.send_cq().depth(), 0);
}

#[test]
fn unsignaled_write_then_send_keeps_the_ordering_guarantee() {
    // §4.2: the reply Send may be trusted to mean "the data is there"
    // even though nobody ever sees the Write complete.
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, qb) = connect(&a.hca, &b.hca);
    let cfg = HcaConfig::sdr();
    const LEN: u64 = 64 * 1024;
    let data = b.mem.alloc(LEN);
    let reply = b.mem.alloc(64);
    qb.post_recv(reply, 0, 64, WrId(200)).unwrap();
    let rkey = b.hca.enable_all_physical();

    qa.post_rdma_write(
        Payload::synthetic(5, LEN),
        data.addr(),
        rkey,
        WrId(1),
        false,
    )
    .unwrap();
    qa.post_send(Payload::synthetic(6, 8), WrId(2), false)
        .unwrap();
    let written = arrival(&cfg, LEN);
    // The Send's doorbell is processed once the Write has left the
    // send queue, i.e. after its arrival.
    let replied = written + arrival(&cfg, 8);

    sim.run_until(at(written - TICK));
    assert!(!data.read(0, LEN).content_eq(&Payload::synthetic(5, LEN)));
    sim.run_until(at(written));
    assert!(data.read(0, LEN).content_eq(&Payload::synthetic(5, LEN)));
    sim.run_until(at(replied - TICK));
    assert_eq!(qb.recv_cq().depth(), 0, "send arrived early");
    sim.run_until(at(replied));
    assert_eq!(qb.recv_cq().depth(), 1);
    sim.run();
    assert_eq!(qa.send_cq().depth(), 0, "unsignaled successes are silent");
    assert!(!qa.is_error() && !qb.is_error());
}

#[test]
fn successful_unsignaled_write_spawns_no_task() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let (a, b) = two_hosts(&h);
    let (qa, _qb) = connect(&a.hca, &b.hca);
    let data = b.mem.alloc(4096);
    let rkey = b.hca.enable_all_physical();
    sim.run();
    let slots = sim.task_slots();
    let polls = sim.polls();
    for i in 0..8 {
        qa.post_rdma_write(
            Payload::synthetic(i, 512),
            data.addr(),
            rkey,
            WrId(i),
            false,
        )
        .unwrap();
    }
    sim.run();
    assert!(data.read(0, 512).content_eq(&Payload::synthetic(7, 512)));
    assert_eq!(
        sim.task_slots(),
        slots,
        "an unsignaled work request that succeeds must not spawn a task"
    );
    // Only the send queue's own task ran: woken once by the burst of
    // doorbells. Doorbell processing, serialization and propagation,
    // three sleeps a WQE, are each the simulation's next event and
    // fire in place (1 + 8 * 3 polls when each registered its timer).
    assert_eq!(sim.polls() - polls, 1);
    assert_eq!(qa.send_cq().depth(), 0);
}
