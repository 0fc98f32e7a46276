//! Headline calibration tests: pin the reproduced numbers near the
//! paper's reported values. These are the regression harness for the
//! whole model — if a cost-model change moves a curve, these fail.
//!
//! Run sizes are scaled down from the figure harnesses (smaller files)
//! but large enough to reach steady state.

use net_stack::TcpConfig;
use rpcrdma::{Design, StrategyKind};
use sim_core::Simulation;
use workloads::{
    raid_bed, run_iozone, run_multiclient, solaris_sdr, Bed, IoMode, IozoneParams, Topology,
};

fn iozone_solaris(
    design: Design,
    strategy: StrategyKind,
    mode: IoMode,
    threads: u32,
) -> workloads::IozoneResult {
    let mut sim = Simulation::new(42);
    let h = sim.handle();
    let profile = solaris_sdr();
    sim.block_on(async move {
        let bed = Bed::new(&profile, design, strategy).build(&h).await;
        run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: threads,
                file_size: 16 << 20,
                record: 128 * 1024,
                mode,
                ..Default::default()
            },
        )
        .await
    })
}

#[test]
fn fig5_read_read_saturates_near_375() {
    let r = iozone_solaris(Design::ReadRead, StrategyKind::Dynamic, IoMode::Read, 8);
    assert!(
        (330.0..420.0).contains(&r.bandwidth_mb),
        "RR read {:.0} MB/s (paper: ~375)",
        r.bandwidth_mb
    );
}

#[test]
fn fig5_read_write_beats_read_read_at_one_thread() {
    let rr = iozone_solaris(Design::ReadRead, StrategyKind::Dynamic, IoMode::Read, 1);
    let rw = iozone_solaris(Design::ReadWrite, StrategyKind::Dynamic, IoMode::Read, 1);
    let gain = rw.bandwidth_mb / rr.bandwidth_mb;
    assert!(
        gain > 1.15,
        "RW should clearly beat RR at 1 thread (paper: ~47%): got {gain:.2}x \
         (RR {:.0}, RW {:.0})",
        rr.bandwidth_mb,
        rw.bandwidth_mb
    );
}

#[test]
fn fig5_client_cpu_read_read_much_higher_than_read_write() {
    // Paper: RR client CPU climbs to ~24% at 8 threads; RW stays ~5%.
    let rr = iozone_solaris(Design::ReadRead, StrategyKind::Dynamic, IoMode::Read, 8);
    let rw = iozone_solaris(Design::ReadWrite, StrategyKind::Dynamic, IoMode::Read, 8);
    assert!(
        rr.client_cpu > 2.0 * rw.client_cpu,
        "RR client CPU {:.1}% should dwarf RW {:.1}%",
        rr.client_cpu * 100.0,
        rw.client_cpu * 100.0
    );
    assert!(
        rw.client_cpu < 0.10,
        "RW client CPU {:.1}%",
        rw.client_cpu * 100.0
    );
}

#[test]
fn fig7_registration_strategies_read_ordering_and_levels() {
    let reg = iozone_solaris(Design::ReadWrite, StrategyKind::Dynamic, IoMode::Read, 8);
    let fmr = iozone_solaris(Design::ReadWrite, StrategyKind::Fmr, IoMode::Read, 8);
    let cache = iozone_solaris(Design::ReadWrite, StrategyKind::Cache, IoMode::Read, 8);
    // Paper: ~350-400 (register), ~400 (FMR), ~730 (cache).
    assert!(
        (330.0..430.0).contains(&reg.bandwidth_mb),
        "register read {:.0}",
        reg.bandwidth_mb
    );
    assert!(
        fmr.bandwidth_mb > reg.bandwidth_mb,
        "FMR {:.0} must beat register {:.0}",
        fmr.bandwidth_mb,
        reg.bandwidth_mb
    );
    assert!(
        (640.0..820.0).contains(&cache.bandwidth_mb),
        "cache read {:.0} MB/s (paper: ~730)",
        cache.bandwidth_mb
    );
}

#[test]
fn fig7_cache_write_near_515() {
    let cache = iozone_solaris(Design::ReadWrite, StrategyKind::Cache, IoMode::Write, 8);
    assert!(
        (450.0..580.0).contains(&cache.bandwidth_mb),
        "cache write {:.0} MB/s (paper: ~515)",
        cache.bandwidth_mb
    );
}

#[test]
fn fig9_linux_allphysical_read_near_wire_and_write_degraded() {
    let profile = workloads::linux_sdr();
    let run = |strategy: StrategyKind, mode: IoMode| {
        let mut sim = Simulation::new(43);
        let h = sim.handle();
        sim.block_on(async move {
            let bed = Bed::new(&profile, Design::ReadWrite, strategy);
            let bed = bed.build(&h).await;
            run_iozone(
                &h,
                &bed,
                IozoneParams {
                    threads_per_client: 8,
                    file_size: 16 << 20,
                    record: 128 * 1024,
                    mode,
                    ..Default::default()
                },
            )
            .await
        })
    };
    let ap_read = run(StrategyKind::AllPhysical, IoMode::Read);
    let fmr_read = run(StrategyKind::Fmr, IoMode::Read);
    let reg_read = run(StrategyKind::Dynamic, IoMode::Read);
    // Paper fig 9(a): all-physical ≈ 880-900 > FMR > register.
    assert!(
        ap_read.bandwidth_mb > 800.0,
        "all-physical read {:.0} (paper: close to 900)",
        ap_read.bandwidth_mb
    );
    assert!(ap_read.bandwidth_mb > fmr_read.bandwidth_mb);
    assert!(fmr_read.bandwidth_mb > reg_read.bandwidth_mb);

    let ap_write = run(StrategyKind::AllPhysical, IoMode::Write);
    let fmr_write = run(StrategyKind::Fmr, IoMode::Write);
    // Paper fig 9(b): all-physical write degraded vs FMR (chunk fan-out
    // hits the RDMA Read limit).
    assert!(
        ap_write.bandwidth_mb < 0.8 * fmr_write.bandwidth_mb,
        "all-physical write {:.0} should trail FMR write {:.0}",
        ap_write.bandwidth_mb,
        fmr_write.bandwidth_mb
    );
}

#[test]
fn fig10_cache_capacity_crossover() {
    // Scaled-down Figure 10: 256 MiB files, server RAM 1 GiB vs 2 GiB.
    // With 1 GiB, three clients fit; beyond that reads go to disk.
    let profile = workloads::linux_ddr_raid();
    let point = |clients: usize, ram: u64| {
        let bed = raid_bed(&profile, Topology::Rdma, clients, ram);
        run_multiclient(7, &bed, 256 << 20)
    };
    // Backend::Raid reserves 512 MiB for the OS, so 1.5 GiB of RAM
    // gives a 1 GiB page cache.
    let small_fit = point(3, (3 << 29) as u64);
    let small_thrash = point(6, (3 << 29) as u64);
    let big_fit = point(6, (5 << 29) as u64);
    assert!(
        small_fit.read_bandwidth_mb > 900.0,
        "3 clients in-cache: {:.0} MB/s (paper: 883)",
        small_fit.read_bandwidth_mb
    );
    // In cache the limit is the wire, not a core pinning pages with the
    // link idle: one and two clients already get most of it. (With the
    // whole window pinned before the first Write these were 632 / 863.)
    let (one, two) = (point(1, (3 << 29) as u64), point(2, (3 << 29) as u64));
    assert!(
        one.read_bandwidth_mb > 670.0 && two.read_bandwidth_mb > 880.0,
        "1 / 2 clients in-cache: {:.0} / {:.0} MB/s",
        one.read_bandwidth_mb,
        two.read_bandwidth_mb
    );
    assert!(
        small_thrash.read_bandwidth_mb < 0.6 * small_fit.read_bandwidth_mb,
        "6 clients thrash a 1 GiB cache: {:.0} vs {:.0}",
        small_thrash.read_bandwidth_mb,
        small_fit.read_bandwidth_mb
    );
    assert!(
        big_fit.read_bandwidth_mb > 900.0,
        "6 clients fit an 2 GiB cache: {:.0} MB/s",
        big_fit.read_bandwidth_mb
    );
    assert!(small_fit.cache_hit_rate > 0.95);
    // Readahead counts prefetched pages as demand hits, so the thrash
    // regime reports ~50% even though all bytes come from disk.
    assert!(small_thrash.cache_hit_rate < 0.7);
}

#[test]
fn fig10_transport_ordering_rdma_ipoib_gige() {
    let profile = workloads::linux_ddr_raid();
    let point = |topology: Topology| {
        run_multiclient(9, &raid_bed(&profile, topology, 3, 2 << 30), 128 << 20)
    };
    let rdma = point(Topology::Rdma);
    let ipoib = point(Topology::Tcp(TcpConfig::ipoib()));
    let gige = point(Topology::Tcp(TcpConfig::gige()));
    assert!(
        rdma.read_bandwidth_mb > 2.0 * ipoib.read_bandwidth_mb,
        "RDMA {:.0} vs IPoIB {:.0} (paper: 883 vs 326)",
        rdma.read_bandwidth_mb,
        ipoib.read_bandwidth_mb
    );
    assert!(
        (250.0..420.0).contains(&ipoib.read_bandwidth_mb),
        "IPoIB {:.0} MB/s (paper: ~326-360)",
        ipoib.read_bandwidth_mb
    );
    assert!(
        (80.0..125.0).contains(&gige.read_bandwidth_mb),
        "GigE {:.0} MB/s (paper: ~107)",
        gige.read_bandwidth_mb
    );
}
