//! Chaos suite: the NFS/RDMA stack must survive injected fabric faults
//! with zero corruption, exactly-once WRITE application, and
//! bit-for-bit deterministic replays.

use rpcrdma::{Design, StrategyKind};
use sim_core::{SimDuration, SimTime};
use workloads::{linux_sdr, run_chaos, Backend, Bed, Capture, ChaosParams};

/// Client hosts of every bed here.
const CLIENTS: u64 = 3;

/// Three clients on a tmpfs server, both sides on the registration
/// cache: the harness's default bed.
fn bed(design: Design) -> Bed {
    Bed {
        clients: CLIENTS as usize,
        ..Bed::new(&linux_sdr(), design, StrategyKind::Cache)
    }
}

/// The default bed on a WAL-backed RAID server (crash scenarios).
fn wal_bed() -> Bed {
    Bed {
        backend: Backend::WalRaid { ram_bytes: 1 << 30 },
        ..bed(Design::ReadWrite)
    }
}

fn base() -> ChaosParams {
    ChaosParams {
        records_per_client: 12,
        ..ChaosParams::default()
    }
}

#[test]
fn one_percent_drop_completes_with_zero_corruption_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let params = ChaosParams {
            drop_probability: 0.01,
            qp_errors: 1,
            ..base()
        };
        let r = run_chaos(7, &bed(design), params, Capture::default());
        assert_eq!(r.corrupt_records, 0, "{design:?}: corrupted data");
        // Exactly-once: every record applied once despite retransmits.
        assert_eq!(
            r.metric("nfs.node0.writes"),
            CLIENTS * params.records_per_client,
            "{design:?}: lost or double-applied WRITE"
        );
        assert!(
            r.metric("client.reconnects") >= 1,
            "{design:?}: forced QP error not recovered"
        );
    }
}

#[test]
fn heavy_drop_forces_recovery_machinery_and_still_no_corruption() {
    // 5% drop leaves essentially no chance that zero messages are lost:
    // the run must visibly exercise timeouts, retransmissions, and the
    // duplicate request cache, and still come out clean.
    let params = ChaosParams {
        drop_probability: 0.05,
        delay_jitter: SimDuration::from_micros(20),
        qp_errors: 2,
        ..base()
    };
    let r = run_chaos(11, &bed(Design::ReadWrite), params, Capture::default());
    assert!(r.metric("fabric.*.dropped") > 0, "fault layer never fired");
    assert!(r.metric("client.timeouts") > 0, "no reply timeout");
    assert!(r.metric("client.retransmits") > 0, "no RPC retransmission");
    assert_eq!(r.corrupt_records, 0);
    assert_eq!(
        r.metric("nfs.node0.writes"),
        CLIENTS * params.records_per_client
    );
}

#[test]
fn same_seed_replays_identically() {
    let params = ChaosParams {
        drop_probability: 0.02,
        qp_errors: 1,
        ..base()
    };
    let bed = bed(Design::ReadWrite);
    let a = run_chaos(42, &bed, params, Capture::SPANS);
    let b = run_chaos(42, &bed, params, Capture::SPANS);
    assert_eq!(a, b, "outcome, registry, spans or flight ring diverged");
    assert_eq!(a.fingerprint(), b.fingerprint());
    // A different seed takes a different path (sanity that the
    // fingerprint actually discriminates).
    let c = run_chaos(43, &bed, params, Capture::SPANS);
    assert_ne!(a.fingerprint(), c.fingerprint());
}

/// Every injected fault is a flight record, so a failing gate's dump
/// shows where it landed: the `chaos --smoke` points (seed 0xC0FFEE,
/// 1 % drop, one forced QP error, both designs) end with the error and
/// the client's recovery from it, and the crash-matrix point records
/// its power failure at the scheduled instant.
#[test]
fn injected_faults_reach_the_flight_ring() {
    let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
    for design in [Design::ReadWrite, Design::ReadRead] {
        let params = ChaosParams {
            drop_probability: 0.01,
            qp_errors: 1,
            ..ChaosParams::default()
        };
        let r = run_chaos(0xC0FFEE, &bed(design), params, Capture::default());
        let faults: Vec<_> = (r.flight.iter())
            .filter(|f| matches!(f.component, "chaos" | "client"))
            .map(|f| (f.component, f.event))
            .collect();
        let recovery = [
            ("chaos", "qp_error"),
            ("client", "recovery_start"),
            ("client", "recovery_done"),
        ];
        assert_eq!(faults, recovery, "{design:?}");
        let last = r.flight.last().expect("flight records");
        assert_eq!((last.component, last.event), recovery[2], "{design:?}");
        let error = (r.flight.iter()).find(|f| f.component == "chaos");
        assert_eq!(error.map(|f| f.at), Some(at(200)), "{design:?}");
    }
    let crash = ChaosParams {
        records_per_client: 48,
        server_crash_at: Some(SimDuration::from_micros(400)),
        drop_probability: 0.01,
        qp_errors: 0,
        ..ChaosParams::default()
    };
    let r = run_chaos(0xC0FFEE, &wal_bed(), crash, Capture::default());
    let power = (r.flight.iter()).find(|f| (f.component, f.event) == ("chaos", "power_fail"));
    assert_eq!(power.map(|f| f.at), Some(at(400)));
}

#[test]
fn metrics_registry_snapshot_is_deterministic_across_replays() {
    let params = ChaosParams {
        drop_probability: 0.03,
        qp_errors: 1,
        ..base()
    };
    let bed = bed(Design::ReadWrite);
    let a = run_chaos(21, &bed, params, Capture::SPANS);
    let b = run_chaos(21, &bed, params, Capture::SPANS);
    assert!(!a.metrics.is_empty(), "registry never saw a counter");
    assert_eq!(
        a.metrics, b.metrics,
        "metrics diverged across same-seed replays"
    );
    assert_eq!(a, b);
    // A wildcard totals the per-port series it selects.
    let ports = a.metrics.iter().filter(|(k, _)| k.ends_with(".dropped"));
    let dropped: u64 = ports.map(|(_, v)| v).sum();
    assert!(dropped > 0, "3% drop never fired");
    assert_eq!(a.metric("fabric.*.dropped"), dropped);
    // Core series all registered (`metric` panics on a missing one).
    for series in ["executor.polls", "server.drc.hits", "fabric.*.retransmits"] {
        a.metric(series);
    }
}

#[test]
fn server_power_failure_mid_unstable_burst_re_drives_cleanly() {
    // Kill the server's storage in the middle of the UNSTABLE write
    // burst: everything dirty is lost, the WAL replays its committed
    // prefix (nothing yet), and the write verifier changes. Clients
    // must notice the mismatch at COMMIT, re-drive every pending
    // write, and the read-back pass must see zero corruption.
    let params = ChaosParams {
        drop_probability: 0.0,
        delay_jitter: SimDuration::ZERO,
        qp_errors: 0,
        records_per_client: 48,
        server_crash_at: Some(SimDuration::from_micros(400)),
        ..base()
    };
    let r = run_chaos(13, &wal_bed(), params, Capture::SPANS);
    assert_eq!(r.corrupt_records, 0, "crash+re-drive corrupted data");
    assert!(
        r.metric("nfs.client.verf_mismatches") >= CLIENTS,
        "every client's COMMIT must observe the verifier change, got {}",
        r.metric("nfs.client.verf_mismatches")
    );
    assert!(
        r.metric("nfs.client.redriven_writes") > 0,
        "no UNSTABLE write was re-driven"
    );
    // Re-driven records are applied a second time, so the server sees
    // strictly more WRITE calls than the logical record count.
    assert!(
        r.metric("nfs.node0.writes") > CLIENTS * params.records_per_client,
        "re-drive must re-apply lost records (fs_writes={})",
        r.metric("nfs.node0.writes")
    );
    assert!(
        r.wal_committed_records > 0,
        "the final COMMIT must land a WAL commit marker"
    );
    // Crash scenarios replay bit-for-bit like everything else.
    let b = run_chaos(13, &wal_bed(), params, Capture::SPANS);
    assert_eq!(r, b, "crash run is not deterministic");
}

#[test]
fn qp_error_alone_recovers_without_data_loss() {
    // No drops, no jitter: the only fault is a forced QP error per
    // design. Recovery must re-establish the connection and the
    // workload must finish exactly-once.
    for design in [Design::ReadWrite, Design::ReadRead] {
        let params = ChaosParams {
            drop_probability: 0.0,
            delay_jitter: SimDuration::ZERO,
            qp_errors: 1,
            ..base()
        };
        let r = run_chaos(5, &bed(design), params, Capture::default());
        let reconnects = r.metric("client.reconnects");
        assert!(reconnects >= 1, "{design:?}: no recovery happened");
        assert_eq!(r.corrupt_records, 0, "{design:?}");
        assert_eq!(
            r.metric("nfs.node0.writes"),
            CLIENTS * params.records_per_client,
            "{design:?}"
        );
    }
}
