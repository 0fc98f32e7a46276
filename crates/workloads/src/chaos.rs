//! Chaos harness: NFS/RDMA under injected fabric faults.
//!
//! Drives a multi-client write/commit/read-verify workload while the
//! fabric drops messages, jitters delivery, and (optionally) forces
//! QPs into the error state. Every record carries a seeded synthetic
//! payload, so the read-back pass detects any corruption — a dropped
//! reply that caused a double-applied WRITE, a replayed reply with the
//! wrong bytes, a recovery that lost a call. The whole run is driven
//! by [`sim_core::SimRng`], so a given seed replays bit-for-bit: two
//! same-seed [`Run`]s compare equal, spans and flight records included.
//! Each injected fault is a flight record (`chaos/qp_error`,
//! `chaos/power_fail`), so a failing gate's dump shows where it landed.

use sim_core::{Sim, SimDuration};

use crate::scenario::{self, Capture, Run, WriterSpec};
use crate::testbed::{Bed, Testbed};

/// Parameters of one chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosParams {
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
    /// Power-fail the server's storage at this virtual time and
    /// restart it (WAL replay + write-verifier bump); the bed needs a
    /// WAL back end ([`crate::Backend::WalRaid`]). Clients notice
    /// the verifier change on their next COMMIT and re-drive every
    /// pending UNSTABLE write.
    pub server_crash_at: Option<SimDuration>,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            records_per_client: 16,
            record: 1024,
            drop_probability: 0.01,
            delay_jitter: SimDuration::from_micros(5),
            qp_errors: 1,
            first_qp_error: SimDuration::from_micros(200),
            qp_error_spacing: SimDuration::from_millis(1),
            server_crash_at: None,
        }
    }
}

/// What survived one chaos run. What the fault layer and the recovery
/// machinery did is in the run's registry: `fabric.*.dropped`,
/// `fabric.*.retransmits`, `client.retransmits`, `client.timeouts`,
/// `client.reconnects`, `server.ops`, `server.drc.replays`; the WRITE
/// calls the server applied, `nfs.node0.writes` (a corruption-free run
/// applies each record exactly once); and, when a server crash made
/// clients re-drive, `nfs.client.verf_mismatches` and
/// `nfs.client.redriven_writes`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosResult {
    /// Records whose read-back bytes differed from what was written.
    pub corrupt_records: u64,
    /// WAL records behind a commit marker at the end of the run (0
    /// without a WAL backend).
    pub wal_committed_records: u64,
}

/// Run one chaos workload on `bed` inside a fresh simulation.
pub fn run_chaos(seed: u64, bed: &Bed, params: ChaosParams, capture: Capture) -> Run<ChaosResult> {
    let spec = *bed;
    scenario::run(seed, capture, |sim| async move {
        run_inner(&sim, &spec, params).await
    })
}

async fn run_inner(sim: &Sim, spec: &Bed, params: ChaosParams) -> ChaosResult {
    let bed: Testbed = spec.build(sim).await;
    let fabric = bed.fabric.as_ref().expect("rdma testbed has a fabric");
    scenario::arm_link_faults(
        sim,
        fabric,
        spec.clients as u32,
        params.drop_probability,
        params.delay_jitter,
    );

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
                sim2.flight("chaos", "qp_error", 0, k as u64);
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
            sim2.flight("chaos", "power_fail", 0, 0);
            store.store().power_fail_restart().await;
            server.server_reboot();
        });
    }

    let writers = WriterSpec {
        prefix: "chaos",
        records: params.records_per_client,
        record: params.record,
        seed_base: 1,
        commit_every: 0,
    };
    let root = bed.server.root_handle();
    let corrupt_records =
        scenario::verified_writers(sim, &bed.clients, root, writers, &Default::default()).await;

    bed.stop();
    let wal = bed.disk_store.as_ref().and_then(|fs| fs.store().wal());
    ChaosResult {
        corrupt_records,
        wal_committed_records: wal.map_or(0, |w| w.committed_records()),
    }
}
