//! The composition floor: the transport's extensions running together.
//!
//! Each of doorbell batching, exposure TTLs, QoS and RFP has a harness
//! that turns it on alone. Here every subset of the four runs fault-free
//! under both designs and two mix/registration pairings, and each run
//! must look like a healthy one: every offered op completes, and no
//! client ever times out, reconnects, or has an RDMA access refused.
//! Fault families on top of this floor are `bench --bin chaos` and
//! friends; this file only asks that turning things on together breaks
//! nothing. `wide_matrix` is the same floor over every registration
//! strategy and a third mix (EXPERIMENTS.md, "Composition floor").

use rpcrdma::{Design, RfpConfig, StrategyKind};
use sim_core::SimDuration;
use workloads::{linux_sdr, run_openloop, Arrival, OpMix, OpenLoopParams, OpenLoopResult};

/// One point of the matrix: bit `i` of `subset` turns extension `i` on.
fn run(subset: u32, design: Design, mix: OpMix, strategy: StrategyKind) -> OpenLoopResult {
    let on = |bit: u32| subset & (1 << bit) != 0;
    let mut profile = linux_sdr();
    if on(0) {
        profile.rpc.server_doorbell_batch = 4;
    }
    if on(1) {
        profile.rpc.exposure_ttl = SimDuration::from_millis(5);
    }
    run_openloop(
        7,
        &profile,
        OpenLoopParams {
            design,
            strategy,
            connections: 4,
            arrival: Arrival::Poisson { rate: 15_000.0 },
            mix,
            duration: SimDuration::from_millis(50),
            grace: SimDuration::from_secs(2),
            qos: on(2),
            rfp: on(3).then(RfpConfig::default),
            ..OpenLoopParams::default()
        },
    )
}

/// All sixteen subsets at one (design, mix, strategy) point. Returns the
/// unhealthy ones by name, so a failure shows which extensions clash.
fn unhealthy_subsets(design: Design, mix: OpMix, strategy: StrategyKind) -> Vec<String> {
    let mut unhealthy = Vec::new();
    for subset in 0..16 {
        let r = run(subset, design, mix, strategy);
        let metric = |name: &str| {
            let found = r.metrics_snapshot.iter().find(|(k, _)| k == name);
            found.map_or(0, |(_, v)| *v)
        };
        assert!(r.offered > 0, "nothing offered");
        let lost = r.offered - r.completed;
        let errors = r.overload_failures + r.other_errors + r.unfinished + r.client_sheds;
        let (timeouts, reconnects) = (metric("client.timeouts"), metric("client.reconnects"));
        let refused = metric("tpt.violations");
        if lost + errors + timeouts + reconnects + refused != 0 {
            unhealthy.push(format!(
                "{design:?}/{strategy:?} rfp|qos|ttl|batch = {subset:04b}: {lost} ops lost, \
                 {errors} failed, {timeouts} reply timeouts, {reconnects} reconnects, \
                 {refused} accesses refused"
            ));
        }
    }
    unhealthy
}

/// The gated floor at one point: every subset healthy, and everything
/// on at once still deterministic.
fn every_subset_runs_clean(design: Design, mix: OpMix, strategy: StrategyKind) {
    let unhealthy = unhealthy_subsets(design, mix, strategy);
    assert!(unhealthy.is_empty(), "{unhealthy:#?}");
    let (a, b) = (
        run(15, design, mix, strategy),
        run(15, design, mix, strategy),
    );
    assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
    assert_eq!(
        (a.p50_us, a.p99_us, a.max_us),
        (b.p50_us, b.p99_us, b.max_us)
    );
}

#[test]
fn read_write_oltp_dynamic() {
    every_subset_runs_clean(Design::ReadWrite, OpMix::oltp(), StrategyKind::Dynamic);
}

#[test]
fn read_read_oltp_dynamic() {
    every_subset_runs_clean(Design::ReadRead, OpMix::oltp(), StrategyKind::Dynamic);
}

#[test]
fn read_write_metadata_cache() {
    every_subset_runs_clean(Design::ReadWrite, OpMix::metadata(), StrategyKind::Cache);
}

#[test]
fn read_read_metadata_cache() {
    every_subset_runs_clean(Design::ReadRead, OpMix::metadata(), StrategyKind::Cache);
}

/// 2 designs x 3 mixes x 4 strategies x 16 subsets = 384 runs (~10 s in
/// the release profile), every unhealthy one listed:
/// `cargo test --release -p workloads --test compose -- --ignored`.
#[test]
#[ignore = "384 runs; the four tests above are the gated slice of it"]
fn wide_matrix() {
    use StrategyKind::{AllPhysical, Cache, Dynamic, Fmr};
    let mut unhealthy = Vec::new();
    for design in [Design::ReadRead, Design::ReadWrite] {
        for mix in [OpMix::oltp(), OpMix::metadata(), OpMix::varmail()] {
            for strategy in [Dynamic, Fmr, Cache, AllPhysical] {
                unhealthy.extend(unhealthy_subsets(design, mix, strategy));
            }
        }
    }
    assert!(
        unhealthy.is_empty(),
        "{} of 384: {unhealthy:#?}",
        unhealthy.len()
    );
}
