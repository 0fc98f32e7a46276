//! Failover chaos harness: the replicated cluster under a seeded
//! mid-workload primary kill.
//!
//! Clients stream UNSTABLE writes with periodic COMMITs while the
//! primary is killed at a seeded virtual time; the backup's failure
//! detector notices the missed heartbeats, promotes, and the clients'
//! retransmission paths re-resolve to the new primary — re-driving
//! any writes the verifier change proved un-durable. The read-back
//! pass then verifies every record byte-for-byte against its seeded
//! synthetic payload: the corruption count *is* the consistency
//! verdict. Optionally, the crashed node rejoins as backup and
//! re-syncs the WAL tail.

use std::rc::Rc;

use rpcrdma::{Design, StrategyKind};
use sim_core::{Sim, SimDuration};

use crate::cluster::ClusterConfig;
use crate::profiles::Profile;
use crate::scenario::{self, Capture, OpLog, Run, Timeline, WriterSpec};
use crate::testbed::{Backend, Bed, Testbed, Topology};

/// The failover matrix's bed: 3 clients against a primary/backup pair
/// joined as `cluster` says, each server a WAL-backed RAID with 4 GiB
/// of RAM, Read-Write, both sides on the registration cache.
pub fn failover_bed(profile: &Profile, cluster: ClusterConfig) -> Bed {
    Bed {
        backend: Backend::WalRaid { ram_bytes: 4 << 30 },
        clients: 3,
        topology: Topology::Replicated(cluster),
        ..Bed::new(profile, Design::ReadWrite, StrategyKind::Cache)
    }
}

/// Parameters of one failover run.
#[derive(Clone, Copy, Debug)]
pub struct FailoverParams {
    /// Records each client writes (then reads back).
    pub records_per_client: u64,
    /// Record size in bytes.
    pub record: u64,
    /// Per-arrival drop probability on client/server ports.
    pub drop_probability: f64,
    /// Kill the primary at this virtual time.
    pub kill_at: Option<SimDuration>,
    /// Rejoin the killed node this long after promotion completes.
    pub rejoin_after: Option<SimDuration>,
    /// Sample the streaming telemetry timeline and return it in
    /// [`FailoverResult::timeline`].
    pub timeline: bool,
}

impl Default for FailoverParams {
    fn default() -> Self {
        FailoverParams {
            records_per_client: 24,
            record: 8192,
            drop_probability: 0.0,
            kill_at: None,
            rejoin_after: None,
            timeline: false,
        }
    }
}

/// Each writer COMMITs after every this many records (plus a final
/// COMMIT).
const COMMIT_EVERY: u64 = 8;

/// Gauge columns of [`FailoverResult::timeline`]: client ops in flight;
/// records sequenced into the log but not yet applied by the backup;
/// records sequenced past the last cluster-durable commit marker (the
/// WAL-flush window); cumulative replication credit grants returned by
/// the backup's one-sided control writes.
const TIMELINE_GAUGES: [&str; 4] = ["in_flight", "ring_occupancy", "wal_lag", "credit_grants"];

/// What one failover run produced, past its registry series: among
/// them `server.drc.replays` and `server.drc.cross_epoch_replays` (DRC
/// replays across both nodes, and the ones answered from the *previous*
/// epoch's imported window), `nfs.client.redriven_writes` and
/// `nfs.client.verf_mismatches`, `repl.shipped_records`,
/// `repl.shipped_bytes`, `repl.blocked`, `repl.interrupted_markers`
/// (commit markers a kill caught between the local group commit and
/// the backup's ack), `fs.wal.resync_bytes` (the rejoin catch-up) and
/// each node's WRITE count, `nfs.node{N}.writes`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailoverResult {
    /// The backup promoted itself.
    pub promoted: bool,
    /// Virtual µs from the kill to promotion complete (0 without a
    /// kill).
    pub failover_us: u64,
    /// 99th-percentile client op latency (µs) across every WRITE and
    /// COMMIT — failover stalls land here.
    pub stall_p99_us: u64,
    /// Worst single client op latency (µs).
    pub stall_max_us: u64,
    /// Records whose read-back differed from what was written.
    pub corrupt_records: u64,
    /// Highest sequence the backup applied.
    pub backup_applied: u64,
    /// Replicated-log length on the serving node at the end.
    pub log_len: u64,
    /// Cluster-durable watermark at the end.
    pub durable_seq: u64,
    /// Virtual elapsed time of the whole run (µs).
    pub elapsed_us: u64,
    /// UNSTABLE-write goodput over the run, MB/s.
    pub write_mbps: f64,
    /// Virtual time of the kill, µs since run start (0 without one).
    pub killed_at_us: u64,
    /// Virtual time promotion completed, µs (0 without a promotion).
    pub promoted_at_us: u64,
    /// Telemetry timeline (no buckets unless
    /// [`FailoverParams::timeline`]).
    pub timeline: Timeline,
}

/// Run one failover scenario on `bed` — the replicated topology, with
/// a WAL back end if a rejoin is to replay one — inside a fresh
/// simulation.
pub fn run_failover(
    seed: u64,
    bed: &Bed,
    params: FailoverParams,
    capture: Capture,
) -> Run<FailoverResult> {
    let spec = *bed;
    scenario::run(seed, capture, |sim| async move {
        run_inner(&sim, &spec, params).await
    })
}

async fn run_inner(sim: &Sim, spec: &Bed, params: FailoverParams) -> FailoverResult {
    let testbed: Testbed = spec.build(sim).await;
    let cluster = testbed
        .cluster
        .clone()
        .expect("failover runs on a replicated bed");

    if params.drop_probability > 0.0 {
        // Client and primary ports only: the replication channel rides
        // link-reliable RDMA Writes regardless, and heartbeat loss is
        // the failure detector's signal, not noise to inject.
        scenario::arm_link_faults(
            sim,
            testbed.fabric.as_ref().expect("rdma testbed has a fabric"),
            spec.clients as u32,
            params.drop_probability,
            SimDuration::ZERO,
        );
    }

    // The seeded kill.
    if let Some(at) = params.kill_at {
        let cluster2 = cluster.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(at).await;
            cluster2.kill_primary(&sim2);
        });
    }

    // The rejoin: wait for promotion, then bring node 0 back.
    if let (Some(after), Some(_)) = (params.rejoin_after, params.kill_at) {
        let cluster2 = cluster.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            while !cluster2.promoted.get() {
                if cluster2.stop.get() {
                    return;
                }
                sim2.sleep(SimDuration::from_micros(100)).await;
            }
            sim2.sleep(after).await;
            if !cluster2.stop.get() {
                cluster2.rejoin(&sim2, 0).await;
            }
        });
    }

    let log = Rc::new(OpLog::default());
    let start = sim.now();

    let probes = params.timeline.then(|| {
        let (stopped, cluster, log) = (cluster.clone(), cluster.clone(), log.clone());
        let metrics = sim.metrics();
        Timeline::sample(
            sim,
            move || stopped.stop.get(),
            move || {
                let serving = &cluster.nodes[cluster.mount.primary()];
                let log_len = serving.repl.log_len();
                let applied = cluster
                    .session
                    .borrow()
                    .as_ref()
                    .map_or(0, |s| s.applied.get());
                // Each node ships through one shipper at a time, so its
                // series is the serving shipper's (0 before it has one).
                let node = serving.hca.node().0;
                let credits = metrics.get(&format!("repl.node{node}.credit_returns"));
                vec![
                    log.in_flight(),
                    log_len.saturating_sub(applied),
                    log_len.saturating_sub(serving.repl.durable_seq()),
                    credits.unwrap_or(0),
                ]
            },
        )
    });

    let writers = WriterSpec {
        prefix: "fo",
        records: params.records_per_client,
        record: params.record,
        // Distinct from the plain chaos harness's payload space.
        seed_base: 0x0fa1_0000,
        commit_every: COMMIT_EVERY,
    };
    let root = testbed.server.root_handle();
    let clients = &testbed.clients;
    let corrupt_records = scenario::verified_writers(sim, clients, root, writers, &log).await;
    let elapsed = sim.now() - start;
    testbed.stop();

    // Marker flushes on the backup run behind the ack; in steady state
    // let the consumer catch the tail so `backup_applied` reflects the
    // full log. (After a promotion the session already drained at the
    // sentinel.)
    if !cluster.promoted.get() {
        let session = cluster.session.borrow().clone();
        if let Some(s) = session {
            s.caught_up(cluster.nodes[0].repl.log_len()).await;
        }
    }

    let ops = log.take();
    let mut lat: Vec<SimDuration> = ops.iter().map(|c| c.latency()).collect();
    lat.sort();
    let timeline = probes.map_or_else(Timeline::default, |probes| {
        Timeline::build(start, "ops", &ops, &TIMELINE_GAUGES, &probes.borrow())
    });

    let serving = cluster.nodes[cluster.mount.primary()].clone();
    let failover_us = match (cluster.killed_at.get(), cluster.promoted_at.get()) {
        (Some(k), Some(p)) => (p - k).as_micros(),
        _ => 0,
    };
    let wrote = spec.clients as u64 * params.records_per_client * params.record;
    let backup_applied = cluster
        .session
        .borrow()
        .as_ref()
        .map_or(0, |s| s.applied.get());
    FailoverResult {
        promoted: cluster.promoted.get(),
        failover_us,
        stall_p99_us: scenario::percentile_us(&lat, 0.99),
        stall_max_us: lat.last().map_or(0, |d| d.as_micros()),
        corrupt_records,
        backup_applied,
        log_len: serving.repl.log_len(),
        durable_seq: serving.repl.durable_seq(),
        elapsed_us: elapsed.as_micros(),
        write_mbps: if elapsed.as_micros() == 0 {
            0.0
        } else {
            wrote as f64 / (elapsed.as_nanos() as f64 / 1e9) / 1e6
        },
        killed_at_us: cluster
            .killed_at
            .get()
            .map_or(0, |t| (t - start).as_micros()),
        promoted_at_us: cluster
            .promoted_at
            .get()
            .map_or(0, |t| (t - start).as_micros()),
        timeline,
    }
}
