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

use sim_core::{FlightRecord, Payload, Sim, SimDuration, SimTime, Simulation, SpanRecord};

use ib_verbs::{FaultConfig, NodeId};
use rpcrdma::{Design, StrategyKind};

use crate::chaos::fingerprint;
use crate::cluster::{build_cluster, ClusterConfig, ClusterTestbed};
use crate::profiles::Profile;
use crate::testbed::Backend;

/// Parameters of one failover run.
#[derive(Clone, Copy, Debug)]
pub struct FailoverParams {
    /// Bulk-transfer design.
    pub design: Design,
    /// Registration strategy.
    pub strategy: StrategyKind,
    /// Client hosts.
    pub clients: usize,
    /// Records each client writes (then reads back).
    pub records_per_client: u64,
    /// Record size in bytes.
    pub record: u64,
    /// COMMIT after every this many records (plus a final COMMIT).
    pub commit_every: u64,
    /// Per-arrival drop probability on client/server ports.
    pub drop_probability: f64,
    /// Extra delivery jitter.
    pub delay_jitter: SimDuration,
    /// Storage backend on *both* nodes (WAL scenarios need
    /// [`Backend::WalRaid`]).
    pub backend: Backend,
    /// Cluster knobs (ring size, heartbeat cadence, replication
    /// on/off).
    pub cluster: ClusterConfig,
    /// Kill the primary at this virtual time.
    pub kill_at: Option<SimDuration>,
    /// Rejoin the killed node this long after promotion completes.
    pub rejoin_after: Option<SimDuration>,
    /// Record a trace and return its FNV-1a fingerprint.
    pub fingerprint: bool,
    /// Record the hierarchical span trace (cross-node causal trees,
    /// Perfetto-exportable) and return it in [`FailoverResult::spans`].
    pub span_trace: bool,
    /// Sample the streaming telemetry timeline and return it in
    /// [`FailoverResult::timeline`].
    pub timeline: bool,
}

impl Default for FailoverParams {
    fn default() -> Self {
        FailoverParams {
            design: Design::ReadWrite,
            strategy: StrategyKind::Cache,
            clients: 3,
            records_per_client: 24,
            record: 8192,
            commit_every: 8,
            drop_probability: 0.0,
            delay_jitter: SimDuration::ZERO,
            backend: Backend::WalRaid { ram_bytes: 4 << 30 },
            cluster: ClusterConfig {
                ring_bytes: 256 * 1024,
                hb_interval: SimDuration::from_micros(500),
                hb_miss_limit: 3,
                replicate: true,
            },
            kill_at: None,
            rejoin_after: None,
            fingerprint: true,
            span_trace: false,
            timeline: false,
        }
    }
}

/// One bucket of the streaming failover telemetry timeline
/// ([`TIMELINE_BUCKET_US`] of virtual time each).
#[derive(Clone, Copy, Debug, Default)]
pub struct TimelineBucket {
    /// Bucket start, virtual µs.
    pub t_us: u64,
    /// Client WRITE/COMMIT ops completing in the bucket.
    pub ops: u64,
    /// UNSTABLE-write goodput over the bucket, MB/s.
    pub goodput_mbps: f64,
    /// 99th-percentile latency of ops completing in the bucket, µs.
    pub p99_us: u64,
    /// Client ops in flight at the bucket's sample point.
    pub in_flight: u64,
    /// Replication-ring occupancy at the sample point: records
    /// sequenced into the log but not yet applied by the backup.
    pub ring_occupancy: u64,
    /// Group-commit lag at the sample point: records sequenced past
    /// the last cluster-durable commit marker (the WAL-flush window).
    pub wal_lag: u64,
    /// Cumulative replication credit grants returned by the backup's
    /// one-sided control writes.
    pub credit_grants: u64,
}

/// Timeline bucket width in virtual µs (also the sampler cadence).
pub const TIMELINE_BUCKET_US: u64 = 100;

/// What one failover run produced.
#[derive(Clone, Debug, Default)]
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
    /// UNSTABLE writes re-driven after a verifier mismatch.
    pub redriven_writes: u64,
    /// COMMIT rounds observing a verifier mismatch.
    pub verf_mismatches: u64,
    /// Retransmissions answered from the *previous* epoch's imported
    /// DRC window (replayed, not re-executed, across the failover).
    pub cross_epoch_replays: u64,
    /// All DRC replays across both nodes.
    pub drc_replays: u64,
    /// Records deposited into the backup ring.
    pub shipped_records: u64,
    /// Record bytes deposited.
    pub shipped_bytes: u64,
    /// Deposits that waited for ring credits (backpressure events).
    pub ship_blocked: u64,
    /// Bytes re-shipped during the rejoin catch-up.
    pub resync_bytes: u64,
    /// Highest sequence the backup applied.
    pub backup_applied: u64,
    /// Replicated-log length on the serving node at the end.
    pub log_len: u64,
    /// Commit markers whose backup ack a kill interrupted between the
    /// local group commit and the marker acknowledgement.
    pub interrupted_markers: u64,
    /// Cluster-durable watermark at the end.
    pub durable_seq: u64,
    /// WRITE calls executed by node 0 / node 1 (fresh + applied).
    pub fs_writes: [u64; 2],
    /// Virtual elapsed time of the whole run (µs).
    pub elapsed_us: u64,
    /// UNSTABLE-write goodput over the run, MB/s.
    pub write_mbps: f64,
    /// FNV-1a trace fingerprint (0 when tracing is off).
    pub fingerprint: u64,
    /// Full metrics-registry dump, byte-identical across same-seed
    /// runs.
    pub metrics_snapshot: Vec<(String, u64)>,
    /// Virtual time of the kill, µs since run start (0 without one).
    pub killed_at_us: u64,
    /// Virtual time promotion completed, µs (0 without a promotion).
    pub promoted_at_us: u64,
    /// Hierarchical span records (empty unless
    /// [`FailoverParams::span_trace`]).
    pub spans: Vec<SpanRecord>,
    /// Telemetry timeline (empty unless [`FailoverParams::timeline`]).
    pub timeline: Vec<TimelineBucket>,
    /// Flight-recorder snapshot — always captured (the ring is always
    /// armed), bounded by [`sim_core::FLIGHT_CAPACITY`].
    pub flight: Vec<FlightRecord>,
}

/// Seed for client `ci`'s record `r` (distinct from the plain chaos
/// harness's space).
fn record_seed(ci: usize, r: u64) -> u64 {
    0x0fa1_0000 + ci as u64 * 1_000_003 + r
}

/// Run one failover scenario inside a fresh simulation.
pub fn run_failover(seed: u64, profile: &Profile, params: FailoverParams) -> FailoverResult {
    let mut sim = Simulation::new(seed);
    if params.fingerprint {
        sim.enable_tracing();
    }
    if params.span_trace {
        sim.enable_span_tracing();
    }
    let h = sim.handle();
    let profile = *profile;
    let mut result = sim.block_on(async move { run_inner(&h, &profile, params).await });
    if params.fingerprint {
        result.fingerprint = fingerprint(&sim.take_trace());
    }
    if params.span_trace {
        result.spans = sim.take_spans();
    }
    result.flight = sim.flight_records();
    result.metrics_snapshot = sim.metrics().snapshot();
    result
}

async fn run_inner(sim: &Sim, profile: &Profile, params: FailoverParams) -> FailoverResult {
    let bed: ClusterTestbed = build_cluster(
        sim,
        profile,
        profile.rpc.with_design(params.design),
        params.strategy,
        params.backend,
        params.clients,
        params.cluster,
    )
    .await;
    let bed = std::rc::Rc::new(bed);

    if params.drop_probability > 0.0 || params.delay_jitter > SimDuration::ZERO {
        bed.fabric.enable_faults(sim.fork_rng());
        let fault_cfg = FaultConfig {
            drop_probability: params.drop_probability,
            delay_jitter: params.delay_jitter,
            ..Default::default()
        };
        // Client and primary ports only: the replication channel rides
        // link-reliable RDMA Writes regardless, and heartbeat loss is
        // the failure detector's signal, not noise to inject.
        for node in 0..=params.clients as u32 {
            bed.fabric.set_link_faults(NodeId(node), fault_cfg);
        }
    }

    // The seeded kill.
    if let Some(at) = params.kill_at {
        let bed2 = bed.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(at).await;
            bed2.kill_primary(&sim2);
        });
    }

    // The rejoin: wait for promotion, then bring node 0 back.
    if let (Some(after), Some(_)) = (params.rejoin_after, params.kill_at) {
        let bed2 = bed.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            while !bed2.promoted.get() {
                if bed2.stop.get() {
                    return;
                }
                sim2.sleep(SimDuration::from_micros(100)).await;
            }
            sim2.sleep(after).await;
            if !bed2.stop.get() {
                bed2.rejoin(&sim2, 0).await;
            }
        });
    }

    let root = bed.nodes[0].server.root_handle();
    let done = sim_core::sync::Semaphore::new(0);
    let corrupt_total = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let samples = std::rc::Rc::new(OpLog::default());
    let in_flight = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let start = sim.now();

    // Streaming telemetry sampler: one deterministic probe per bucket,
    // reading shared counters only (it never mutates sim state beyond
    // its own timer, so same-seed runs sample identically).
    let probes = std::rc::Rc::new(std::cell::RefCell::new(Vec::<Probe>::new()));
    if params.timeline {
        let sim2 = sim.clone();
        let bed2 = bed.clone();
        let in_flight2 = in_flight.clone();
        let probes2 = probes.clone();
        sim.spawn(async move {
            loop {
                sim2.sleep(SimDuration::from_micros(TIMELINE_BUCKET_US))
                    .await;
                if bed2.stop.get() {
                    break;
                }
                let serving = &bed2.nodes[bed2.mount.primary()];
                let log_len = serving.repl.log_len();
                let applied = bed2
                    .session
                    .borrow()
                    .as_ref()
                    .map_or(0, |s| s.applied.get());
                let credits = serving
                    .shipper
                    .borrow()
                    .as_ref()
                    .map_or(0, |s| s.stats.credit_returns.get());
                probes2.borrow_mut().push(Probe {
                    at: sim2.now(),
                    in_flight: in_flight2.get(),
                    ring_occupancy: log_len.saturating_sub(applied),
                    wal_lag: log_len.saturating_sub(serving.repl.durable_seq()),
                    credit_grants: credits,
                });
            }
        });
    }

    for (ci, client) in bed.clients.iter().enumerate() {
        let nfs = client.nfs.clone();
        let mem = client.mem.clone();
        let done = done.clone();
        let sim2 = sim.clone();
        let corrupt_total = corrupt_total.clone();
        let samples = samples.clone();
        let in_flight = in_flight.clone();
        let (records, record, commit_every) = (
            params.records_per_client,
            params.record,
            params.commit_every,
        );
        sim.spawn(async move {
            let f = nfs
                .create(root, &format!("fo-{ci}"))
                .await
                .expect("create survives failover");
            let fh = f.handle();
            let buf = mem.alloc(record);
            for r in 0..records {
                buf.write(0, Payload::synthetic(record_seed(ci, r), record));
                let t0 = sim2.now();
                in_flight.set(in_flight.get() + 1);
                nfs.write(fh, r * record, &buf, 0, record as u32, false)
                    .await
                    .expect("unstable write survives failover");
                in_flight.set(in_flight.get() - 1);
                samples.push(true, t0, sim2.now());
                if (r + 1) % commit_every == 0 {
                    let t0 = sim2.now();
                    in_flight.set(in_flight.get() + 1);
                    nfs.commit(fh).await.expect("commit survives failover");
                    in_flight.set(in_flight.get() - 1);
                    samples.push(false, t0, sim2.now());
                }
            }
            let t0 = sim2.now();
            in_flight.set(in_flight.get() + 1);
            nfs.commit(fh)
                .await
                .expect("final commit survives failover");
            in_flight.set(in_flight.get() - 1);
            samples.push(false, t0, sim2.now());
            for r in 0..records {
                let (data, _) = nfs
                    .read(fh, r * record, record as u32, None)
                    .await
                    .expect("read survives failover");
                let want = Payload::synthetic(record_seed(ci, r), record);
                if !data.content_eq(&want) {
                    corrupt_total.set(corrupt_total.get() + 1);
                    sim2.trace("fault", || format!("CORRUPT record client={ci} record={r}"));
                }
            }
            done.add_permits(1);
        });
    }
    for _ in 0..bed.clients.len() {
        done.acquire().await.forget();
    }
    let elapsed = sim.now() - start;
    bed.stop.set(true);

    // Marker flushes on the backup run behind the ack; in steady state
    // let the consumer catch the tail so `backup_applied` reflects the
    // full log. (After a promotion the session already drained at the
    // sentinel.)
    if !bed.promoted.get() {
        let session = bed.session.borrow().clone();
        if let Some(s) = session {
            s.caught_up(bed.nodes[0].repl.log_len()).await;
        }
    }

    let mut redriven_writes = 0;
    let mut verf_mismatches = 0;
    for c in &bed.clients {
        redriven_writes += c.nfs.stats.redriven_writes.get();
        verf_mismatches += c.nfs.stats.verf_mismatches.get();
    }
    let ops: Vec<OpSample> = samples.take();
    let mut lat: Vec<SimDuration> = ops.iter().map(|s| s.end - s.start).collect();
    lat.sort();
    let pick = |q: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let i = ((lat.len() - 1) as f64 * q) as usize;
        lat[i].as_micros()
    };
    let timeline = if params.timeline {
        build_timeline(&ops, &probes.borrow(), start, params.record)
    } else {
        Vec::new()
    };

    let serving = bed.nodes[bed.mount.primary()].clone();
    let mut ship = (0u64, 0u64, 0u64);
    for n in &bed.nodes {
        if let Some(s) = n.shipper.borrow().as_ref() {
            ship.0 += s.stats.shipped_records.get();
            ship.1 += s.stats.shipped_bytes.get();
            ship.2 += s.stats.blocked.get();
        }
    }
    let failover_us = match (bed.killed_at.get(), bed.promoted_at.get()) {
        (Some(k), Some(p)) => (p - k).as_micros(),
        _ => 0,
    };
    let wrote = params.clients as u64 * params.records_per_client * params.record;
    let backup_applied = bed.session.borrow().as_ref().map_or(0, |s| s.applied.get());
    FailoverResult {
        promoted: bed.promoted.get(),
        failover_us,
        stall_p99_us: pick(0.99),
        stall_max_us: lat.last().map_or(0, |d| d.as_micros()),
        corrupt_records: corrupt_total.get(),
        redriven_writes,
        verf_mismatches,
        // Registry series are shared by name, so either node's handle
        // already reads the cluster-wide total.
        cross_epoch_replays: serving.rpc.stats.cross_epoch_replays.get(),
        drc_replays: serving.rpc.stats.drc_replays.get(),
        shipped_records: ship.0,
        shipped_bytes: ship.1,
        ship_blocked: ship.2,
        resync_bytes: bed.resync_bytes.get(),
        backup_applied,
        log_len: serving.repl.log_len(),
        durable_seq: serving.repl.durable_seq(),
        interrupted_markers: bed
            .nodes
            .iter()
            .map(|n| n.repl.stats.interrupted_markers.get())
            .sum(),
        fs_writes: [
            bed.nodes[0].server.stats.writes.get(),
            bed.nodes[1].server.stats.writes.get(),
        ],
        elapsed_us: elapsed.as_micros(),
        write_mbps: if elapsed.as_micros() == 0 {
            0.0
        } else {
            wrote as f64 / (elapsed.as_nanos() as f64 / 1e9) / 1e6
        },
        fingerprint: 0,
        metrics_snapshot: Vec::new(),
        killed_at_us: bed.killed_at.get().map_or(0, |t| (t - start).as_micros()),
        promoted_at_us: bed.promoted_at.get().map_or(0, |t| (t - start).as_micros()),
        spans: Vec::new(),
        timeline,
        flight: Vec::new(),
    }
}

/// One timed client op (WRITE or COMMIT).
#[derive(Clone, Copy)]
struct OpSample {
    is_write: bool,
    start: SimTime,
    end: SimTime,
}

/// Tiny interior-mutable op-sample collector shared by client tasks.
#[derive(Default)]
struct OpLog(std::cell::RefCell<Vec<OpSample>>);

impl OpLog {
    fn push(&self, is_write: bool, start: SimTime, end: SimTime) {
        self.0.borrow_mut().push(OpSample {
            is_write,
            start,
            end,
        });
    }
    fn take(&self) -> Vec<OpSample> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

/// One sampler probe of the shared cluster counters.
#[derive(Clone, Copy)]
struct Probe {
    at: SimTime,
    in_flight: u64,
    ring_occupancy: u64,
    wal_lag: u64,
    credit_grants: u64,
}

/// Merge per-op completion samples and sampler probes into the
/// fixed-width telemetry timeline.
fn build_timeline(
    ops: &[OpSample],
    probes: &[Probe],
    start: SimTime,
    record: u64,
) -> Vec<TimelineBucket> {
    let width = SimDuration::from_micros(TIMELINE_BUCKET_US);
    let end = ops
        .iter()
        .map(|s| s.end)
        .chain(probes.iter().map(|p| p.at))
        .max()
        .unwrap_or(start);
    let n = ((end - start).as_micros() / TIMELINE_BUCKET_US + 1) as usize;
    let mut out: Vec<TimelineBucket> = (0..n)
        .map(|i| TimelineBucket {
            t_us: i as u64 * TIMELINE_BUCKET_US,
            ..TimelineBucket::default()
        })
        .collect();
    let mut lats: Vec<Vec<SimDuration>> = vec![Vec::new(); n];
    for s in ops {
        let i = ((s.end - start).as_micros() / TIMELINE_BUCKET_US) as usize;
        let b = &mut out[i];
        b.ops += 1;
        if s.is_write {
            b.goodput_mbps += record as f64;
        }
        lats[i].push(s.end - s.start);
    }
    let bucket_secs = width.as_nanos() as f64 / 1e9;
    for (b, mut l) in out.iter_mut().zip(lats) {
        b.goodput_mbps = b.goodput_mbps / bucket_secs / 1e6;
        l.sort();
        if !l.is_empty() {
            b.p99_us = l[(l.len() - 1) * 99 / 100].as_micros();
        }
    }
    // Each bucket carries the latest probe at or before its end; a
    // bucket with no probe of its own inherits the previous gauge
    // levels (the counters are level-style, not deltas).
    let mut pi = 0;
    let mut last: Option<Probe> = None;
    for (i, b) in out.iter_mut().enumerate() {
        while pi < probes.len()
            && ((probes[pi].at - start).as_micros() / TIMELINE_BUCKET_US) as usize <= i
        {
            last = Some(probes[pi]);
            pi += 1;
        }
        if let Some(p) = last {
            b.in_flight = p.in_flight;
            b.ring_occupancy = p.ring_occupancy;
            b.wal_lag = p.wal_lag;
            b.credit_grants = p.credit_grants;
        }
    }
    out
}
