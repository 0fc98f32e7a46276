//! Chaos harness: NFS/RDMA under injected fabric faults.
//!
//! Drives a multi-client write/commit/read-verify workload while the
//! fabric drops messages, jitters delivery, and (optionally) forces
//! QPs into the error state. Every record carries a seeded synthetic
//! payload, so the read-back pass detects any corruption — a dropped
//! reply that caused a double-applied WRITE, a replayed reply with the
//! wrong bytes, a recovery that lost a call. The whole run is driven
//! by [`sim_core::SimRng`], so a given seed replays bit-for-bit; the
//! returned trace fingerprint makes "identical run" checkable with one
//! integer compare.

use ib_verbs::{FaultConfig, NodeId};
use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Sim, SimDuration, Simulation};

use crate::profiles::Profile;
use crate::testbed::{build_rdma, Backend, Testbed};

/// Parameters of one chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosParams {
    /// Bulk-transfer design under test.
    pub design: Design,
    /// Registration strategy.
    pub strategy: StrategyKind,
    /// Number of client hosts.
    pub clients: usize,
    /// Records each client writes, then reads back.
    pub records_per_client: u64,
    /// Record size in bytes. Keep it at or under the inline threshold
    /// to exercise the pure Send/reply path; larger records add RDMA
    /// chunk traffic to the blast radius.
    pub record: u64,
    /// Per-arrival drop probability on every host's inbound port.
    pub drop_probability: f64,
    /// Extra uniform delivery jitter on every host's inbound port.
    pub delay_jitter: SimDuration,
    /// Forced client-QP errors injected while the workload runs.
    pub qp_errors: u32,
    /// Virtual time of the first forced QP error; later ones follow at
    /// [`ChaosParams::qp_error_spacing`] intervals. Pick a time inside
    /// the workload's span or the error lands after the run.
    pub first_qp_error: SimDuration,
    /// Spacing between consecutive forced QP errors.
    pub qp_error_spacing: SimDuration,
    /// Storage behind the server. Crash scenarios need a WAL backend
    /// ([`Backend::WalRaid`]) so committed data can be recovered.
    pub backend: Backend,
    /// Power-fail the server's storage at this virtual time and
    /// restart it (WAL replay + write-verifier bump). Clients notice
    /// the verifier change on their next COMMIT and re-drive every
    /// pending UNSTABLE write.
    pub server_crash_at: Option<SimDuration>,
    /// Record a trace and return its FNV-1a fingerprint (identical
    /// seeds must produce identical fingerprints).
    pub fingerprint: bool,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            design: Design::ReadWrite,
            strategy: StrategyKind::Cache,
            clients: 3,
            records_per_client: 16,
            record: 1024,
            drop_probability: 0.01,
            delay_jitter: SimDuration::from_micros(5),
            qp_errors: 1,
            first_qp_error: SimDuration::from_micros(200),
            qp_error_spacing: SimDuration::from_millis(1),
            backend: Backend::Tmpfs,
            server_crash_at: None,
            fingerprint: true,
        }
    }
}

/// What survived (and what the fault layer did) in one chaos run.
#[derive(Clone, Debug, Default)]
pub struct ChaosResult {
    /// RPC operations the server executed (fresh, not replayed).
    pub server_ops: u64,
    /// Retransmitted calls the duplicate request cache answered.
    pub drc_replays: u64,
    /// WRITE calls applied by the NFS server — corruption-free runs
    /// apply each record exactly once.
    pub fs_writes: u64,
    /// Messages the fault layer dropped at arrival.
    pub drops: u64,
    /// Link-level retransmissions (RDMA Write/Read traffic).
    pub link_retransmits: u64,
    /// RPC-level same-XID retransmissions across all clients.
    pub rpc_retransmits: u64,
    /// Reply timeouts observed across all clients.
    pub timeouts: u64,
    /// QP recoveries completed across all clients.
    pub reconnects: u64,
    /// Records whose read-back bytes differed from what was written.
    pub corrupt_records: u64,
    /// UNSTABLE writes clients re-sent after a COMMIT verifier
    /// mismatch (server crash scenarios).
    pub redriven_writes: u64,
    /// COMMIT rounds that observed a verifier mismatch.
    pub verf_mismatches: u64,
    /// WAL records behind a commit marker at the end of the run (0
    /// without a WAL backend).
    pub wal_committed_records: u64,
    /// FNV-1a hash of the run's trace (0 when fingerprinting is off).
    pub fingerprint: u64,
    /// Sorted `(name, value)` dump of the run's whole metrics registry
    /// (fabric ports, regcache, DRC, client/server RPC, executor) —
    /// byte-identical across same-seed runs.
    pub metrics_snapshot: Vec<(String, u64)>,
    /// Flight-recorder snapshot — always captured (the ring is always
    /// armed), bounded by [`sim_core::FLIGHT_CAPACITY`].
    pub flight: Vec<sim_core::FlightRecord>,
}

/// Seed for the synthetic payload of client `ci`'s record `r`.
fn record_seed(ci: usize, r: u64) -> u64 {
    1 + ci as u64 * 1_000_003 + r
}

/// Run one chaos workload inside a fresh simulation.
pub fn run_chaos(seed: u64, profile: &Profile, params: ChaosParams) -> ChaosResult {
    let mut sim = Simulation::new(seed);
    if params.fingerprint {
        sim.enable_tracing();
    }
    let h = sim.handle();
    let profile = *profile;
    let mut result = sim.block_on(async move { run_inner(&h, &profile, params).await });
    if params.fingerprint {
        result.fingerprint = fingerprint(&sim.take_trace());
    }
    result.flight = sim.flight_records();
    result.metrics_snapshot = sim.metrics().snapshot();
    result
}

/// FNV-1a over every trace event (time, category, detail).
pub(crate) fn fingerprint(events: &[sim_core::TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1_0000_01b3);
        }
    };
    for e in events {
        eat(&e.at.as_nanos().to_le_bytes());
        eat(e.category.as_bytes());
        eat(e.detail.as_bytes());
        eat(&[0xff]);
    }
    hash
}

async fn run_inner(sim: &Sim, profile: &Profile, params: ChaosParams) -> ChaosResult {
    let bed: Testbed = build_rdma(
        sim,
        profile,
        params.design,
        params.strategy,
        params.backend,
        params.clients,
    );
    let fabric = bed.fabric.as_ref().expect("rdma testbed has a fabric");

    // Arm the fault layer on every host's inbound port. Node 0 is the
    // server; calls and replies are both at risk.
    fabric.enable_faults(sim.fork_rng());
    let fault_cfg = FaultConfig {
        drop_probability: params.drop_probability,
        delay_jitter: params.delay_jitter,
        ..Default::default()
    };
    for node in 0..=params.clients as u32 {
        fabric.set_link_faults(NodeId(node), fault_cfg);
    }

    // Forced QP errors: client 0's connection dies mid-workload at
    // fixed virtual times, spread across the run.
    if params.qp_errors > 0 {
        let victim = bed.clients[0].nfs.rdma().expect("rdma mount").clone();
        let sim2 = sim.clone();
        let n = params.qp_errors;
        let (first, spacing) = (params.first_qp_error, params.qp_error_spacing);
        sim.spawn(async move {
            sim2.sleep(first).await;
            for k in 0..n {
                if k > 0 {
                    sim2.sleep(spacing).await;
                }
                sim2.trace("fault", || "forcing client qp error".into());
                victim.inject_qp_error();
            }
        });
    }

    // Server power failure: storage loses everything volatile, the WAL
    // replays its committed prefix, and the write verifier changes so
    // clients re-drive uncommitted data. (The transport survives — a
    // fast reboot; the storage and verifier state are what crash.)
    if let Some(at) = params.server_crash_at {
        let store = bed
            .disk_store
            .as_ref()
            .expect("server crash scenarios need a disk-backed store")
            .clone();
        let server = bed.server.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(at).await;
            sim2.trace("fault", || "server power failure + restart".into());
            store.store().power_fail_restart().await;
            server.server_reboot();
        });
    }

    let root = bed.server.root_handle();
    let done = sim_core::sync::Semaphore::new(0);
    let corrupt_total = std::rc::Rc::new(std::cell::Cell::new(0u64));
    for (ci, client) in bed.clients.iter().enumerate() {
        let nfs = client.nfs.clone();
        let mem = client.mem.clone();
        let done = done.clone();
        let sim2 = sim.clone();
        let corrupt_total = corrupt_total.clone();
        let (records, record) = (params.records_per_client, params.record);
        sim.spawn(async move {
            let f = nfs
                .create(root, &format!("chaos-{ci}"))
                .await
                .expect("create survives faults");
            let fh = f.handle();
            let buf = mem.alloc(record);
            for r in 0..records {
                buf.write(0, Payload::synthetic(record_seed(ci, r), record));
                nfs.write(fh, r * record, &buf, 0, record as u32, false)
                    .await
                    .expect("write survives faults");
            }
            nfs.commit(fh).await.expect("commit survives faults");
            for r in 0..records {
                let (data, _) = nfs
                    .read(fh, r * record, record as u32, None)
                    .await
                    .expect("read survives faults");
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
    let corrupt_records = corrupt_total.get();

    let rpc_server = bed.rpc_server.as_ref().expect("rdma testbed");
    // The `client.*` series are fleet-wide: any mount reads them.
    let client = bed.clients[0].nfs.rdma().expect("rdma mount").stats();
    let mut redriven_writes = 0;
    let mut verf_mismatches = 0;
    for c in &bed.clients {
        redriven_writes += c.nfs.stats.redriven_writes.get();
        verf_mismatches += c.nfs.stats.verf_mismatches.get();
    }
    let wal_committed_records = bed
        .disk_store
        .as_ref()
        .and_then(|fs| fs.store().wal().map(|w| w.committed_records()))
        .unwrap_or(0);
    ChaosResult {
        server_ops: rpc_server.stats.ops.get(),
        drc_replays: rpc_server.stats.drc_replays.get(),
        fs_writes: bed.server.stats.writes.get(),
        drops: sim.metrics().sum_matching("fabric.", ".dropped"),
        link_retransmits: sim.metrics().sum_matching("fabric.", ".retransmits"),
        rpc_retransmits: client.retransmits.get(),
        timeouts: client.timeouts.get(),
        reconnects: client.reconnects.get(),
        corrupt_records,
        redriven_writes,
        verf_mismatches,
        wal_committed_records,
        fingerprint: 0,
        metrics_snapshot: Vec::new(),
        flight: Vec::new(),
    }
}
