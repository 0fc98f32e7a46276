//! Unit-level tests of the workload drivers themselves: correct data,
//! correct op counts, sensible accounting — independent of calibration.

use std::num::NonZeroU32;

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, SimDuration, Simulation};
use workloads::{
    linux_sdr, run_iozone, run_oltp, run_openloop, solaris_sdr, Arrival, Bed, Capture, IoMode,
    IozoneParams, OltpParams, OpMix, OpenLoopParams, Topology,
};

#[test]
fn iozone_write_pass_stores_correct_bytes() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let profile = solaris_sdr();
    sim.block_on(async move {
        let bed = Bed::new(&profile, Design::ReadWrite, StrategyKind::Dynamic);
        let bed = bed.build(&h).await;
        let params = IozoneParams {
            threads_per_client: 2,
            file_size: 1 << 20,
            record: 128 * 1024,
            mode: IoMode::Write,
            ..Default::default()
        };
        let r = run_iozone(&h, &bed, params).await;
        assert_eq!(r.ops, 2 * (1 << 20) / (128 * 1024));
        assert!(r.bandwidth_mb > 0.0);
        // Files exist with the right size, and their contents are the
        // thread's pattern (written per-record from synthetic stream).
        let root = bed.server.root_handle();
        for t in 0..2 {
            let attr = bed.clients[0]
                .nfs
                .lookup(root, &format!("ioz-c0-t{t}"))
                .await
                .unwrap();
            assert_eq!(attr.size, 1 << 20);
        }
        // Server counters agree.
        assert_eq!(bed.server.stats.writes.get(), r.ops);
        assert_eq!(h.metrics().get("nfs.node0.bytes_written"), Some(2 << 20));
    });
}

#[test]
fn iozone_read_pass_counts_and_cpu() {
    let mut sim = Simulation::new(2);
    let h = sim.handle();
    let profile = solaris_sdr();
    sim.block_on(async move {
        let bed = Bed::new(&profile, Design::ReadWrite, StrategyKind::Cache);
        let bed = bed.build(&h).await;
        let r = run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: 4,
                file_size: 1 << 20,
                record: 64 * 1024,
                mode: IoMode::Read,
                ..Default::default()
            },
        )
        .await;
        assert_eq!(r.ops, 4 * (1 << 20) / (64 * 1024));
        assert!(r.bandwidth_mb > 50.0, "{}", r.bandwidth_mb);
        assert!(r.client_cpu > 0.0 && r.client_cpu < 1.0);
        assert!(r.server_cpu > 0.0 && r.server_cpu < 1.0);
        // Latency percentiles are populated and ordered.
        assert!(r.latency_p50_us > 0.0);
        assert!(r.latency_p99_us >= r.latency_p50_us);
        assert_eq!(bed.server.stats.reads.get(), r.ops);
        assert_eq!(h.metrics().get("nfs.node0.bytes_read"), Some(4 << 20));
    });
}

#[test]
fn iozone_runs_over_tcp_testbed_too() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let profile = solaris_sdr();
    sim.block_on(async move {
        let bed = Bed {
            clients: 2,
            topology: Topology::Tcp(net_stack::TcpConfig::ipoib()),
            ..Bed::new(&profile, Design::ReadWrite, StrategyKind::Dynamic)
        };
        let bed = bed.build(&h).await;
        let r = run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: 2,
                file_size: 512 * 1024,
                record: 64 * 1024,
                mode: IoMode::Write,
                ..Default::default()
            },
        )
        .await;
        // 2 clients x 2 threads x 8 records.
        assert_eq!(r.ops, 32);
        assert!(r.bandwidth_mb > 0.0);
    });
}

#[test]
fn oltp_mix_produces_reads_writes_and_log_appends() {
    let mut sim = Simulation::new(4);
    let h = sim.handle();
    let profile = solaris_sdr();
    sim.block_on(async move {
        let bed = Bed::new(&profile, Design::ReadWrite, StrategyKind::Cache);
        let bed = bed.build(&h).await;
        let r = run_oltp(
            &h,
            &bed,
            OltpParams {
                readers: 8,
                writers: 2,
                io_size: 64 * 1024,
                db_size: 16 << 20,
                duration: SimDuration::from_millis(20),
            },
        )
        .await;
        assert!(r.ops > 0);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.cpu_us_per_op > 0.0);
        // The mix actually exercised both paths.
        assert!(bed.server.stats.reads.get() > 0, "no reads");
        assert!(bed.server.stats.writes.get() > 0, "no writes");
        // The log grew (sequential appends with FILE_SYNC).
        let root = bed.server.root_handle();
        let log = bed.clients[0].nfs.lookup(root, "oltp.log").await.unwrap();
        assert!(log.size > 0, "log never appended");
    });
}

#[test]
fn testbed_reset_accounting_clears_utilization() {
    let mut sim = Simulation::new(5);
    let h = sim.handle();
    let profile = solaris_sdr();
    sim.block_on(async move {
        let bed = Bed::new(&profile, Design::ReadWrite, StrategyKind::Dynamic);
        let bed = bed.build(&h).await;
        let root = bed.server.root_handle();
        let c = &bed.clients[0];
        let f = c.nfs.create(root, "x").await.unwrap();
        let buf = c.mem.alloc(128 * 1024);
        buf.write(0, Payload::synthetic(1, 128 * 1024));
        c.nfs
            .write(f.handle(), 0, &buf, 0, 128 * 1024, false)
            .await
            .unwrap();
        assert!(bed.server_cpu.busy_time().as_nanos() > 0);
        bed.reset_accounting();
        assert_eq!(bed.server_cpu.busy_time().as_nanos(), 0);
        assert_eq!(bed.clients[0].cpu.busy_time().as_nanos(), 0);
    });
}

/// One full coalesced-READ run; returns the whole metrics registry plus
/// the measured bandwidth so callers can compare runs bit-for-bit.
fn batched_read_run(seed: u64) -> (Vec<(String, u64)>, f64) {
    let mut sim = Simulation::new(seed);
    let h = sim.handle();
    let profile = workloads::linux_sdr();
    sim.block_on(async move {
        let mut server_hca = profile.hca;
        server_hca.cq_coalesce_count = 4;
        server_hca.cq_coalesce_delay = SimDuration::from_micros(64);
        let bed = Bed {
            client_strategy: StrategyKind::Cache,
            server_hca: Some(server_hca),
            ..Bed::new(&profile, Design::ReadWrite, StrategyKind::AllPhysical)
        };
        let bed = bed.build(&h).await;
        let r = run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: 8,
                file_size: 128 * 1024,
                record: 4096,
                mode: IoMode::Read,
                ..Default::default()
            },
        )
        .await;
        (h.metrics().snapshot(), r.bandwidth_mb)
    })
}

/// The full batched pipeline — CQ completion coalescing, zero-copy
/// gather — must stay bit-for-bit deterministic: two runs from the same
/// seed produce identical metric registries (every counter, including
/// the coalescing ones, is part of the fingerprint).
#[test]
fn batched_read_pipeline_same_seed_metrics_fingerprint() {
    let (a, bw_a) = batched_read_run(0xFEED);
    let (b, bw_b) = batched_read_run(0xFEED);
    assert_eq!(
        a, b,
        "same-seed batched runs must produce identical metrics"
    );
    assert_eq!(bw_a, bw_b);
    let get = |k: &str| {
        a.iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {k} missing from snapshot"))
    };
    // Fleet totals: the sum over every HCA's `hca.node{N}.*` series.
    let fleet = |what: &str| -> u64 {
        let per_node = |n: &&(String, u64)| n.0.starts_with("hca.node") && n.0.ends_with(what);
        a.iter().filter(per_node).map(|(_, v)| v).sum()
    };
    // The coalescing machinery actually engaged in the fingerprinted run.
    assert!(fleet(".cq_coalesced") > 0, "CQ coalescing never engaged");
    // Every cached READ byte rode the zero-copy gather path.
    assert_eq!(get("server.read.zero_copy_bytes"), 8 * 128 * 1024);
    // One doorbell per post: each 4 KiB READ posts its RDMA Write and
    // its reply Send, each of the 8 threads' CREATEs only its reply.
    let reads = get("nfs.node0.reads");
    assert_eq!((reads, get("server.ops")), (8 * 32, 8 * 32 + 8));
    assert_eq!(get("hca.node0.doorbells"), 2 * reads + 8);
}

/// The load an open-loop run is offered is the seed's, not the waiting
/// room's: every arrival draws its op before the room decides whether to
/// fire or shed it, so a same-seed pair that sheds differently is still
/// offered the same `(connection, tenant, op)` sequence — a shed-on load
/// curve row compares service, not two different streams.
#[test]
fn waiting_room_sheds_arrivals_without_changing_what_is_offered() {
    let mut profile = linux_sdr();
    profile.rpc.threads = NonZeroU32::new(8);
    let bed = Bed {
        clients: 2,
        ..Bed::new(&profile, Design::ReadWrite, StrategyKind::AllPhysical)
    };
    let offered = |waiting_room| {
        let params = OpenLoopParams {
            arrival: Arrival::Poisson { rate: 60_000.0 },
            mix: OpMix::oltp(),
            duration: SimDuration::from_millis(5),
            waiting_room,
            ..OpenLoopParams::default()
        };
        let run = run_openloop(11, &bed, params, Capture::default());
        (run.offered, run.offered_digest, run.client_sheds)
    };
    let (tight, roomy) = (offered(1), offered(64));
    assert!(
        tight.2 > roomy.2,
        "room 1 shed no more than room 64: {tight:?} {roomy:?}"
    );
    assert_eq!(
        (tight.0, tight.1),
        (roomy.0, roomy.1),
        "offered streams differ"
    );
}
