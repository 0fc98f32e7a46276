//! The composition floor: the transport's extensions running together.
//!
//! Bounded service concurrency (QoS) has a harness that turns it on
//! alone. Here the transport runs with and without it, fault-free,
//! under both designs — every Read-Read point with its exposure
//! deadline — and two mix/registration pairings, and each run must look
//! like a healthy one: every offered op completes, and no client ever
//! times out, reconnects, has an RDMA access refused, or has an
//! exposure revoked.
//! One more row runs the subsets on a replicated bed (a primary with one
//! backup, replication on). `wide_matrix` is the single-server floor
//! over every registration strategy and a third mix. The second half
//! puts the same subsets under the chaos harness's fault families — drops, forced QP errors, a storage
//! power-fail — and asks for what must survive them: no corruption,
//! exactly-once WRITEs, and a same-seed rerun equal as a whole run
//! (`fault_floor` gated, `fault_matrix` the 80-point form;
//! EXPERIMENTS.md, "Composition floor").

use std::num::NonZeroU32;

use rpcrdma::{Design, StrategyKind};
use sim_core::SimDuration;
use workloads::{
    linux_sdr, run_chaos, run_openloop, Arrival, Backend, Bed, Capture, ChaosParams, ClusterConfig,
    OpMix, OpenLoopParams, OpenLoopResult, Profile, Run, Topology,
};

const STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Dynamic,
    StrategyKind::Fmr,
    StrategyKind::Cache,
    StrategyKind::AllPhysical,
];

/// Subset 1 turns QoS on (8 service slots, the fair queue waiting for
/// them); subset 0 is the default transport.
fn extensions(subset: u32) -> Profile {
    let mut profile = linux_sdr();
    if subset & 1 != 0 {
        profile.rpc.threads = NonZeroU32::new(8);
    }
    profile
}

/// One point of the fault-free matrix: four connections.
fn run(
    subset: u32,
    design: Design,
    mix: OpMix,
    strategy: StrategyKind,
    topology: Topology,
) -> Run<OpenLoopResult> {
    let bed = Bed {
        clients: 4,
        topology,
        ..Bed::new(&extensions(subset), design, strategy)
    };
    let params = OpenLoopParams {
        arrival: Arrival::Poisson { rate: 15_000.0 },
        mix,
        duration: SimDuration::from_millis(50),
        grace: SimDuration::from_secs(2),
        ..OpenLoopParams::default()
    };
    run_openloop(7, &bed, params, Capture::default())
}

/// Both subsets at one (design, mix, strategy, topology) point.
/// Returns the unhealthy ones by name, so a failure shows which
/// extensions clash.
fn unhealthy_subsets(
    design: Design,
    mix: OpMix,
    strategy: StrategyKind,
    topology: Topology,
) -> Vec<String> {
    let mut unhealthy = Vec::new();
    for subset in 0..2 {
        let r = run(subset, design, mix, strategy, topology);
        assert!(r.offered > 0, "nothing offered");
        let lost = r.offered - r.completed;
        let errors = r.overload_failures + r.other_errors + r.unfinished + r.client_sheds;
        let (timeouts, reconnects) = (r.metric("client.timeouts"), r.metric("client.reconnects"));
        let refused = r.metric("tpt.violations");
        let revoked = r.metric("server.exposures.revoked");
        if lost + errors + timeouts + reconnects + refused + revoked != 0 {
            unhealthy.push(format!(
                "{design:?}/{strategy:?} on {topology:?} qos = {subset}: \
                 {lost} ops lost, {errors} failed, {timeouts} reply timeouts, \
                 {reconnects} reconnects, {refused} accesses refused, \
                 {revoked} exposures revoked"
            ));
        }
    }
    unhealthy
}

/// The gated floor at one point: every subset healthy, and everything
/// on at once still deterministic — and, on a replicated bed, shipping
/// to the backup.
fn every_subset_runs_clean(design: Design, mix: OpMix, strategy: StrategyKind, topology: Topology) {
    let unhealthy = unhealthy_subsets(design, mix, strategy, topology);
    assert!(unhealthy.is_empty(), "{unhealthy:#?}");
    let run = || run(1, design, mix, strategy, topology);
    let all_on = run();
    assert_eq!(all_on, run());
    if let Topology::Replicated(_) = topology {
        assert!(all_on.metric("repl.shipped_records") > 0, "nothing shipped");
    }
}

#[test]
fn read_write_oltp_dynamic() {
    let (mix, strategy) = (OpMix::oltp(), StrategyKind::Dynamic);
    every_subset_runs_clean(Design::ReadWrite, mix, strategy, Topology::Rdma);
}

#[test]
fn read_read_oltp_dynamic() {
    let (mix, strategy) = (OpMix::oltp(), StrategyKind::Dynamic);
    every_subset_runs_clean(Design::ReadRead, mix, strategy, Topology::Rdma);
}

#[test]
fn read_write_metadata_cache() {
    let (mix, strategy) = (OpMix::metadata(), StrategyKind::Cache);
    every_subset_runs_clean(Design::ReadWrite, mix, strategy, Topology::Rdma);
}

#[test]
fn read_read_metadata_cache() {
    let (mix, strategy) = (OpMix::metadata(), StrategyKind::Cache);
    every_subset_runs_clean(Design::ReadRead, mix, strategy, Topology::Rdma);
}

/// The first run with replication and the transport extensions on
/// together (ROADMAP item 2(f)'s untried seams): a primary with one
/// backup, replication on.
#[test]
fn read_write_oltp_dynamic_replicated() {
    let (mix, strategy) = (OpMix::oltp(), StrategyKind::Dynamic);
    let backup = Topology::Replicated(ClusterConfig::default());
    every_subset_runs_clean(Design::ReadWrite, mix, strategy, backup);
}

/// 2 designs x 3 mixes x 4 strategies x 2 subsets = 48 runs (~1 s in
/// the release profile), every unhealthy one listed:
/// `cargo test --release -p workloads --test compose -- --ignored`.
#[test]
#[ignore = "48 runs; the four single-server tests above are the gated slice of it"]
fn wide_matrix() {
    let mut unhealthy = Vec::new();
    for design in [Design::ReadRead, Design::ReadWrite] {
        for mix in [OpMix::oltp(), OpMix::metadata(), OpMix::varmail()] {
            for strategy in STRATEGIES {
                unhealthy.extend(unhealthy_subsets(design, mix, strategy, Topology::Rdma));
            }
        }
    }
    assert!(
        unhealthy.is_empty(),
        "{} of 48: {unhealthy:#?}",
        unhealthy.len()
    );
}

/// One fault family of the chaos harness, at one record size.
#[derive(Clone, Copy, Debug)]
struct Faults {
    record: u64,
    drop: f64,
    qp_errors: u32,
    /// Power-fail the server's storage (a WAL back end) at 400 µs.
    power_fail: bool,
}

const fn faults(record: u64, drop: f64, qp_errors: u32) -> Faults {
    Faults {
        record,
        drop,
        qp_errors,
        power_fail: false,
    }
}

const POWER_FAIL: Faults = Faults {
    power_fail: true,
    ..faults(8 << 10, 0.01, 0)
};

/// The gated shapes, then the rest of the matrix's five.
const SHAPES: [Faults; 5] = [
    faults(8 << 10, 0.05, 2),
    POWER_FAIL,
    faults(1 << 10, 0.01, 1),
    faults(64 << 10, 0.01, 1),
    faults(64 << 10, 0.05, 2),
];

const RECORDS: u64 = 3 * 12;

/// One point under faults, run twice on seed 7. `None` if it held:
/// nothing corrupt, every WRITE applied exactly once (plus the ones a
/// power-fail made the clients re-drive), the rerun equal as a whole
/// run, no RDMA access of these honest clients refused and no
/// reconnect beyond the forced QP errors.
fn broken_under_faults(
    subset: u32,
    design: Design,
    strategy: StrategyKind,
    f: Faults,
) -> Option<String> {
    let bed = Bed {
        clients: 3,
        ..Bed::new(&extensions(subset), design, strategy)
    };
    let params = ChaosParams {
        records_per_client: RECORDS / 3,
        record: f.record,
        drop_probability: f.drop,
        qp_errors: f.qp_errors,
        ..ChaosParams::default()
    };
    let (bed, params) = match f.power_fail {
        true => (
            Bed {
                backend: Backend::WalRaid { ram_bytes: 1 << 30 },
                ..bed
            },
            ChaosParams {
                server_crash_at: Some(SimDuration::from_micros(400)),
                ..params
            },
        ),
        false => (bed, params),
    };
    let run = || run_chaos(7, &bed, params, Capture::SPANS);
    let (r, rerun) = (run(), run());
    let mut wrong = Vec::new();
    if r.corrupt_records != 0 {
        wrong.push(format!("{} corrupt records", r.corrupt_records));
    }
    let applied = r.metric("nfs.node0.writes");
    let redriven = r.metric("nfs.client.redriven_writes");
    if applied != RECORDS + redriven || (redriven != 0 && !f.power_fail) {
        wrong.push(format!("{applied} WRITEs applied, {redriven} re-driven"));
    }
    if r != rerun {
        let (a, b) = (r.fingerprint(), rerun.fingerprint());
        wrong.push(format!("same seed, different run ({a:#x} vs {b:#x})"));
    }
    let (refused, reconnects) = (r.metric("tpt.violations"), r.metric("client.reconnects"));
    if refused != 0 || reconnects > f.qp_errors as u64 {
        wrong.push(format!(
            "{refused} accesses refused, {reconnects} reconnects"
        ));
    }
    let what = wrong.join("; ");
    (!wrong.is_empty()).then(|| format!("{design:?}/{strategy:?} qos = {subset} {f:?}: {what}"))
}

/// Every subset × both designs over `strategies` × `shapes`.
fn broken_points(strategies: &[StrategyKind], shapes: &[Faults]) -> Vec<String> {
    let mut broken = Vec::new();
    for subset in 0..2 {
        for design in [Design::ReadRead, Design::ReadWrite] {
            for &strategy in strategies {
                for &f in shapes {
                    broken.extend(broken_under_faults(subset, design, strategy, f));
                }
            }
        }
    }
    broken
}

#[test]
fn fault_floor() {
    let broken = broken_points(&STRATEGIES[..1], &SHAPES[..2]);
    assert!(broken.is_empty(), "{} of 8: {broken:#?}", broken.len());
}

/// 2 subsets x 2 designs x 4 strategies x 5 shapes = 80 points, each
/// run twice: `cargo test --release -p workloads --test compose --
/// --ignored fault_matrix`.
#[test]
#[ignore = "160 runs; fault_floor is the gated slice of it"]
fn fault_matrix() {
    let broken = broken_points(&STRATEGIES, &SHAPES);
    assert!(broken.is_empty(), "{} of 80: {broken:#?}", broken.len());
}
