//! Chaos sweep: NFS/RDMA survival under injected fabric faults.
//!
//! Full mode sweeps drop probabilities over both bulk-transfer designs
//! and reports what the recovery machinery did (drops, link and RPC
//! retransmissions, DRC replays, QP recoveries) alongside the two
//! invariants that must hold at every point: zero corrupt records and
//! exactly-once WRITE application.
//!
//! Run with `--smoke` for the fixed-seed gate used by
//! `scripts/check.sh`: both designs at 1% drop with a forced QP error,
//! plus a same-seed double run that must produce identical traces.

use rpcrdma::Design;
use sim_core::SimDuration;
use workloads::{
    linux_sdr, run_chaos, run_failover, Backend, ChaosParams, ChaosResult, FailoverParams,
    FailoverResult, Table,
};

fn params(design: Design, drop: f64, qp_errors: u32) -> ChaosParams {
    ChaosParams {
        design,
        drop_probability: drop,
        delay_jitter: SimDuration::from_micros(5),
        qp_errors,
        clients: 3,
        records_per_client: 16,
        ..ChaosParams::default()
    }
}

/// A crash-matrix point: fabric faults stay on, and on top the server's
/// storage power-fails mid-run (WAL replay + verifier bump + re-drive).
fn crash_params(design: Design, drop: f64, crash_us: u64) -> ChaosParams {
    ChaosParams {
        records_per_client: 48,
        backend: Backend::WalRaid { ram_bytes: 1 << 30 },
        server_crash_at: Some(SimDuration::from_micros(crash_us)),
        ..params(design, drop, 0)
    }
}

fn expected_writes(p: &ChaosParams) -> u64 {
    p.clients as u64 * p.records_per_client
}

/// Dump the run's flight-recorder ring next to the failure message and
/// exit: the last [`sim_core::FLIGHT_CAPACITY`] records of what the
/// protocol machinery did, sim-time stamped, always captured.
fn fail_with_flight(tag: &str, msg: &str, flight: &[sim_core::FlightRecord]) -> ! {
    if !flight.is_empty() {
        let name = format!(
            "flight_{}.txt",
            tag.replace([' ', '/', '@', '%'], "_").replace('.', "_")
        );
        bench::emit_results_file(&name, &sim_core::format_flight(flight));
    }
    eprintln!("FAIL {tag}: {msg}");
    std::process::exit(1);
}

fn check(tag: &str, p: &ChaosParams, r: &ChaosResult) {
    if r.corrupt_records != 0 {
        fail_with_flight(
            tag,
            &format!("{} corrupt records", r.corrupt_records),
            &r.flight,
        );
    }
    if r.fs_writes != expected_writes(p) {
        fail_with_flight(
            tag,
            &format!(
                "{} WRITEs applied, expected {} (lost or double-applied)",
                r.fs_writes,
                expected_writes(p)
            ),
            &r.flight,
        );
    }
}

fn smoke() {
    let profile = linux_sdr();
    for design in [Design::ReadWrite, Design::ReadRead] {
        let p = params(design, 0.01, 1);
        let a = run_chaos(0xC0FFEE, &profile, p);
        check(&format!("{design:?}"), &p, &a);
        if a.reconnects == 0 {
            fail_with_flight(
                &format!("{design:?}"),
                "forced QP error was not recovered",
                &a.flight,
            );
        }
        let b = run_chaos(0xC0FFEE, &profile, p);
        if a.fingerprint != b.fingerprint {
            fail_with_flight(
                &format!("{design:?}"),
                &format!(
                    "same seed, different traces ({:#x} vs {:#x})",
                    a.fingerprint, b.fingerprint
                ),
                &b.flight,
            );
        }
        println!(
            "chaos smoke {design:?}: ok ({} drops, {} rpc retransmits, {} drc replays, {} reconnects, trace {:#018x})",
            a.drops, a.rpc_retransmits, a.drc_replays, a.reconnects, a.fingerprint
        );
    }
    // Crash-matrix gate: server storage power-fails mid-UNSTABLE-burst
    // under 1% drop. Clients must observe the verifier change at
    // COMMIT, re-drive, and read back with zero corruption — twice,
    // with identical traces.
    let p = crash_params(Design::ReadWrite, 0.01, 400);
    let a = run_chaos(0xC0FFEE, &profile, p);
    if a.corrupt_records != 0 {
        fail_with_flight(
            "crash",
            &format!("{} corrupt records", a.corrupt_records),
            &a.flight,
        );
    }
    if a.verf_mismatches == 0 || a.redriven_writes == 0 {
        fail_with_flight(
            "crash",
            &format!(
                "crash landed outside the burst ({} mismatches, {} re-driven)",
                a.verf_mismatches, a.redriven_writes
            ),
            &a.flight,
        );
    }
    if a.wal_committed_records == 0 {
        fail_with_flight(
            "crash",
            "final COMMIT landed no WAL commit marker",
            &a.flight,
        );
    }
    let b = run_chaos(0xC0FFEE, &profile, p);
    if a.fingerprint != b.fingerprint {
        fail_with_flight(
            "crash",
            &format!(
                "same seed, different traces ({:#x} vs {:#x})",
                a.fingerprint, b.fingerprint
            ),
            &b.flight,
        );
    }
    println!(
        "chaos smoke crash: ok ({} re-driven, {} mismatches, {} WAL-committed, trace {:#018x})",
        a.redriven_writes, a.verf_mismatches, a.wal_committed_records, a.fingerprint
    );
    println!("chaos smoke: all invariants held");
}

// ---------------------------------------------------------------------
// Failover matrix: the two-node replicated cluster under seeded
// primary kills. Kill offsets are phase-anchored against the
// deterministic 8 KiB/commit-every-8 workload: ≤ ~1.79 ms lands in an
// UNSTABLE burst, ~1.8-2.0 ms lands between a client's local group
// commit and the backup's marker ack (`interrupted_markers` proves
// it), and the rejoin row brings the killed node back while the
// promoted primary is still mid-workload.
// ---------------------------------------------------------------------

const FAILOVER_SEED: u64 = 0xFA11;
/// Kill inside the UNSTABLE burst, clear of any commit marker.
const KILL_MID_BURST_US: u64 = 1500;
/// Kill between the local group commit and the backup's marker ack.
const KILL_FLUSH_MARKER_US: u64 = 1860;
/// Client stalls across a failover stay bounded by the retransmission
/// backoff plus detection; anything past this is a hang, not a stall.
const STALL_BOUND_US: u64 = 300_000;

fn failover_fail(tag: &str, msg: &str, flight: &[sim_core::FlightRecord]) -> ! {
    fail_with_flight(&format!("failover_{tag}"), msg, flight);
}

fn failover_check(tag: &str, r: &FailoverResult, expect_kill: bool) {
    if r.corrupt_records != 0 {
        failover_fail(
            tag,
            &format!("{} corrupt records", r.corrupt_records),
            &r.flight,
        );
    }
    if expect_kill {
        if !r.promoted {
            failover_fail(tag, "backup never promoted after the kill", &r.flight);
        }
        if r.stall_p99_us > STALL_BOUND_US {
            failover_fail(
                tag,
                &format!(
                    "p99 client stall {}us exceeds bound {STALL_BOUND_US}us",
                    r.stall_p99_us
                ),
                &r.flight,
            );
        }
    } else if r.promoted {
        failover_fail(tag, "spurious promotion without a kill", &r.flight);
    }
}

fn failover_row(t: &mut Table, tag: &str, kill_us: Option<u64>, r: &FailoverResult) {
    t.row(&[
        tag.to_string(),
        kill_us.map_or_else(|| "-".into(), |k| format!("{k}us")),
        if r.promoted {
            format!("{:.2}ms", r.failover_us as f64 / 1000.0)
        } else {
            "-".into()
        },
        format!("{:.2}ms", r.stall_p99_us as f64 / 1000.0),
        r.interrupted_markers.to_string(),
        r.redriven_writes.to_string(),
        r.cross_epoch_replays.to_string(),
        format!("{}", r.resync_bytes / 1024),
        r.shipped_records.to_string(),
        format!("{:.1}", r.write_mbps),
        r.corrupt_records.to_string(),
    ]);
}

/// The determinism gate the CI satellite requires: same seed, same
/// scenario — byte-identical trace fingerprint *and* metrics snapshot.
fn failover_determinism(tag: &str, p: FailoverParams, a: &FailoverResult) {
    let b = run_failover(FAILOVER_SEED, &linux_sdr(), p);
    if a.fingerprint != b.fingerprint {
        failover_fail(
            tag,
            &format!(
                "same seed, different traces ({:#x} vs {:#x})",
                a.fingerprint, b.fingerprint
            ),
            &b.flight,
        );
    }
    if a.metrics_snapshot != b.metrics_snapshot {
        failover_fail(tag, "same seed, different metrics snapshots", &b.flight);
    }
}

/// Replication overhead gate: with no kill, the replicated cluster's
/// WRITE throughput must stay within 15% of the same workload with
/// replication disabled.
fn failover_overhead(t: &mut Table) -> (f64, f64) {
    let on = run_failover(FAILOVER_SEED, &linux_sdr(), FailoverParams::default());
    failover_check("steady", &on, false);
    if on.shipped_records == 0 || on.backup_applied != on.log_len {
        failover_fail(
            "steady",
            "replication idle or backup lagging in steady state",
            &on.flight,
        );
    }
    let mut p = FailoverParams::default();
    p.cluster.replicate = false;
    let off = run_failover(FAILOVER_SEED, &linux_sdr(), p);
    failover_check("repl-off", &off, false);
    failover_row(t, "steady (repl on)", None, &on);
    failover_row(t, "ablation (repl off)", None, &off);
    let ratio = on.write_mbps / off.write_mbps;
    if ratio < 0.85 {
        failover_fail(
            "overhead",
            &format!(
                "replication costs {:.1}% of WRITE throughput (> 15% budget)",
                (1.0 - ratio) * 100.0
            ),
            &on.flight,
        );
    }
    (on.write_mbps, off.write_mbps)
}

/// Phase of a timeline bucket relative to the kill/promotion window.
fn timeline_phase(t_us: u64, r: &FailoverResult) -> &'static str {
    if r.killed_at_us == 0 {
        "steady"
    } else if t_us < r.killed_at_us {
        "pre"
    } else if t_us < r.promoted_at_us {
        "stall"
    } else {
        "post"
    }
}

/// Export the streaming telemetry timeline as
/// `results/timeline_failover.{csv,md}` with the promotion stall
/// window phase-annotated.
fn emit_timeline(r: &FailoverResult) {
    let mut csv = String::from(
        "t_us,phase,ops,goodput_mbps,p99_us,in_flight,ring_occupancy,wal_lag,credit_grants\n",
    );
    for b in &r.timeline {
        csv.push_str(&format!(
            "{},{},{},{:.3},{},{},{},{},{}\n",
            b.t_us,
            timeline_phase(b.t_us, r),
            b.ops,
            b.goodput_mbps,
            b.p99_us,
            b.in_flight,
            b.ring_occupancy,
            b.wal_lag,
            b.credit_grants
        ));
    }
    bench::emit_results_file("timeline_failover.csv", &csv);

    let mut md = String::from("# Failover telemetry timeline\n\n");
    md.push_str(&format!(
        "Primary killed at {} µs; promotion complete at {} µs — \
         the `stall` rows are the promotion window ({} µs).\n\n",
        r.killed_at_us,
        r.promoted_at_us,
        r.promoted_at_us.saturating_sub(r.killed_at_us)
    ));
    md.push_str(
        "| t (µs) | phase | ops | goodput MB/s | p99 (µs) | in-flight | ring occ | WAL lag | credits |\n\
         |---:|---|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for b in &r.timeline {
        md.push_str(&format!(
            "| {} | {} | {} | {:.1} | {} | {} | {} | {} | {} |\n",
            b.t_us,
            timeline_phase(b.t_us, r),
            b.ops,
            b.goodput_mbps,
            b.p99_us,
            b.in_flight,
            b.ring_occupancy,
            b.wal_lag,
            b.credit_grants
        ));
    }
    bench::emit_results_file("timeline_failover.md", &md);
}

/// The observability acceptance run: the mid-burst kill with span
/// tracing and the telemetry timeline enabled. Exports the
/// Perfetto-loadable cluster trace and the stall timeline, asserts the
/// cross-node causal tree, and double-runs for byte-identical
/// tracing-enabled determinism. Returns the result for the benchmark
/// JSON.
fn failover_observability(profile: &workloads::Profile) -> FailoverResult {
    let p = FailoverParams {
        kill_at: Some(SimDuration::from_micros(KILL_MID_BURST_US)),
        span_trace: true,
        timeline: true,
        ..FailoverParams::default()
    };
    let r = run_failover(FAILOVER_SEED, profile, p);
    failover_check("observability", &r, true);
    let json = sim_core::chrome_trace_json(&r.spans);
    if let Err(e) = sim_core::validate_json(&json) {
        failover_fail(
            "observability",
            &format!("cluster trace JSON invalid: {e}"),
            &r.flight,
        );
    }
    if !json.contains("\"ph\":\"s\"") || !json.contains("\"ph\":\"f\",\"bp\":\"e\"") {
        failover_fail(
            "observability",
            "cluster trace carries no flow events",
            &r.flight,
        );
    }
    // One client op's causal tree must span client → primary → backup,
    // across the epoch bump.
    {
        use std::collections::{HashMap, HashSet};
        let mut roles: HashMap<u64, HashSet<&str>> = HashMap::new();
        for s in &r.spans {
            if s.trace_id != 0 {
                roles.entry(s.trace_id).or_default().insert(s.component);
            }
        }
        if !roles
            .values()
            .any(|c| c.contains("client") && c.contains("server") && c.contains("backup"))
        {
            failover_fail(
                "observability",
                "no trace id links client, primary and backup spans",
                &r.flight,
            );
        }
    }
    if r.timeline.is_empty()
        || r.promoted_at_us <= r.killed_at_us
        || !r
            .timeline
            .iter()
            .any(|b| timeline_phase(b.t_us, &r) == "stall")
    {
        failover_fail(
            "observability",
            "timeline missed the promotion stall window",
            &r.flight,
        );
    }
    // Tracing-enabled determinism: every export byte-identical on a
    // same-seed rerun.
    let b = run_failover(FAILOVER_SEED, profile, p);
    if sim_core::chrome_trace_json(&b.spans) != json
        || format!("{:?}", b.timeline) != format!("{:?}", r.timeline)
        || sim_core::format_flight(&b.flight) != sim_core::format_flight(&r.flight)
    {
        failover_fail(
            "observability",
            "tracing-enabled same-seed runs diverged",
            &b.flight,
        );
    }
    bench::emit_results_file("trace_failover_cluster.json", &json);
    emit_timeline(&r);
    println!(
        "failover observability: {} spans, {} timeline buckets, stall window {} µs",
        r.spans.len(),
        r.timeline.len(),
        r.promoted_at_us - r.killed_at_us
    );
    r
}

fn failover_matrix(smoke: bool) {
    let profile = linux_sdr();
    let mut t = Table::new(
        "Failover matrix — 2-node replicated cluster, 3 clients, 8 KiB UNSTABLE records, COMMIT every 8",
        &[
            "scenario",
            "kill at",
            "failover",
            "p99 stall",
            "intr markers",
            "re-driven",
            "xepoch replays",
            "resync KiB",
            "shipped",
            "MB/s",
            "corrupt",
        ],
    );

    let (on_mbps, off_mbps) = failover_overhead(&mut t);

    // Kill point 1: mid-UNSTABLE-burst, with the same-seed determinism
    // double-run (the replication CI gate).
    let p = FailoverParams {
        kill_at: Some(SimDuration::from_micros(KILL_MID_BURST_US)),
        ..FailoverParams::default()
    };
    let mid = run_failover(FAILOVER_SEED, &profile, p);
    failover_check("mid-burst", &mid, true);
    if mid.redriven_writes == 0 {
        failover_fail(
            "mid-burst",
            "kill landed outside the UNSTABLE burst",
            &mid.flight,
        );
    }
    failover_determinism("mid-burst", p, &mid);
    failover_row(&mut t, "kill mid-burst", Some(KILL_MID_BURST_US), &mid);

    // Kill point 2: between a client's local group commit (WAL flush +
    // marker) and the backup's commit-marker acknowledgement.
    let p = FailoverParams {
        kill_at: Some(SimDuration::from_micros(KILL_FLUSH_MARKER_US)),
        ..FailoverParams::default()
    };
    let flush = run_failover(FAILOVER_SEED, &profile, p);
    failover_check("flush-marker", &flush, true);
    if flush.interrupted_markers == 0 {
        failover_fail(
            "flush-marker",
            "kill missed the flush-to-marker window (no interrupted markers)",
            &flush.flight,
        );
    }
    failover_row(
        &mut t,
        "kill flush-to-marker",
        Some(KILL_FLUSH_MARKER_US),
        &flush,
    );

    if !smoke {
        // Kill point 3: a lossy fabric around the kill, so replies the
        // failed primary already executed are retransmitted into the
        // promoted backup's replicated DRC window (cross-epoch replays).
        let p = FailoverParams {
            drop_probability: 0.05,
            kill_at: Some(SimDuration::from_micros(2000)),
            ..FailoverParams::default()
        };
        let r = run_failover(3, &profile, p);
        failover_check("drop-storm", &r, true);
        if r.cross_epoch_replays == 0 {
            failover_fail(
                "drop-storm",
                "no retransmission hit the replicated DRC window",
                &r.flight,
            );
        }
        failover_row(&mut t, "kill + 5% drops", Some(2000), &r);

        // Kill point 4: the killed node rejoins as a backup while the
        // promoted primary is still serving — promotion, resync and
        // live traffic overlap.
        let p = FailoverParams {
            records_per_client: 48,
            kill_at: Some(SimDuration::from_micros(KILL_MID_BURST_US)),
            rejoin_after: Some(SimDuration::from_millis(1)),
            ..FailoverParams::default()
        };
        let r = run_failover(FAILOVER_SEED, &profile, p);
        failover_check("rejoin", &r, true);
        if r.resync_bytes == 0 {
            failover_fail(
                "rejoin",
                "rejoined node never re-synced the log tail",
                &r.flight,
            );
        }
        failover_row(&mut t, "kill + rejoin/resync", Some(KILL_MID_BURST_US), &r);

        bench::emit("failover_matrix", &t);
    } else {
        println!("{}", t.render());
    }

    // The observability acceptance run: Perfetto trace + telemetry
    // timeline exports, cross-node causal-tree and tracing-enabled
    // determinism gates.
    let obs = failover_observability(&profile);

    bench::emit_bench_json(
        "failover",
        &format!(
            concat!(
                "{{\n",
                "  \"bench\": \"failover\",\n",
                "  \"mode\": \"{}\",\n",
                "  \"steady\": {{\n",
                "    \"write_mbps_repl_on\": {:.3},\n",
                "    \"write_mbps_repl_off\": {:.3},\n",
                "    \"overhead_pct\": {:.2}\n",
                "  }},\n",
                "  \"mid_burst\": {{\n",
                "    \"failover_us\": {},\n",
                "    \"stall_p99_us\": {},\n",
                "    \"redriven_writes\": {},\n",
                "    \"cross_epoch_replays\": {}\n",
                "  }},\n",
                "  \"flush_marker\": {{\n",
                "    \"failover_us\": {},\n",
                "    \"stall_p99_us\": {},\n",
                "    \"interrupted_markers\": {}\n",
                "  }},\n",
                "  \"observability\": {{\n",
                "    \"spans\": {},\n",
                "    \"timeline_buckets\": {},\n",
                "    \"stall_window_us\": {},\n",
                "    \"flight_records\": {}\n",
                "  }}\n",
                "}}\n"
            ),
            if smoke { "smoke" } else { "full" },
            on_mbps,
            off_mbps,
            (1.0 - on_mbps / off_mbps) * 100.0,
            mid.failover_us,
            mid.stall_p99_us,
            mid.redriven_writes,
            mid.cross_epoch_replays,
            flush.failover_us,
            flush.stall_p99_us,
            flush.interrupted_markers,
            obs.spans.len(),
            obs.timeline.len(),
            obs.promoted_at_us - obs.killed_at_us,
            obs.flight.len(),
        ),
    );

    println!(
        "failover matrix: all kill points recovered with zero corruption \
         (replication overhead {:.1}% of {off_mbps:.1} MB/s)",
        (1.0 - on_mbps / off_mbps) * 100.0
    );
}

fn main() {
    let failover = std::env::args().any(|a| a == "--failover");
    let is_smoke = std::env::args().any(|a| a == "--smoke");
    if failover {
        failover_matrix(is_smoke);
        return;
    }
    if is_smoke {
        smoke();
        return;
    }
    let profile = linux_sdr();
    let drops = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05];
    let mut t = Table::new(
        "Chaos sweep — 3 clients, 16 x 1 KiB records each, 1 forced QP error",
        &[
            "design",
            "drop",
            "dropped",
            "link rtx",
            "rpc rtx",
            "timeouts",
            "drc replays",
            "reconnects",
            "writes",
            "corrupt",
        ],
    );
    for design in [Design::ReadWrite, Design::ReadRead] {
        for drop in drops {
            let p = params(design, drop, 1);
            let r = run_chaos(0xC0FFEE, &profile, p);
            check(&format!("{design:?}@{drop}"), &p, &r);
            t.row(&[
                format!("{design:?}"),
                format!("{:.1}%", drop * 100.0),
                r.drops.to_string(),
                r.link_retransmits.to_string(),
                r.rpc_retransmits.to_string(),
                r.timeouts.to_string(),
                r.drc_replays.to_string(),
                r.reconnects.to_string(),
                r.fs_writes.to_string(),
                r.corrupt_records.to_string(),
            ]);
        }
    }
    bench::emit("chaos_sweep", &t);
    println!("All points completed with zero corruption and exactly-once WRITE application.");

    // Crash matrix: storage power failure at different points of the
    // UNSTABLE burst, with fabric faults on top. Re-driven records are
    // re-applied, so `writes` may legitimately exceed the logical
    // record count — corruption and determinism are the invariants.
    // The 1 KiB records ride `RDMA_MSGP`, so the first acked WRITE is
    // ~120 us in: 100 us is the crash-before-the-burst point.
    let mut ct = Table::new(
        "Crash matrix — server power failure mid-run (WAL backend, 3 clients, 48 x 1 KiB records each)",
        &[
            "design",
            "drop",
            "crash at",
            "rpc rtx",
            "verf mismatches",
            "re-driven",
            "wal committed",
            "writes",
            "corrupt",
        ],
    );
    for design in [Design::ReadWrite, Design::ReadRead] {
        for (drop, crash_us) in [(0.0, 100u64), (0.0, 400), (0.01, 400), (0.01, 800)] {
            let p = crash_params(design, drop, crash_us);
            let r = run_chaos(0xC0FFEE, &profile, p);
            if r.corrupt_records != 0 {
                eprintln!(
                    "FAIL crash {design:?}@{drop}/{crash_us}us: {} corrupt records",
                    r.corrupt_records
                );
                std::process::exit(1);
            }
            if r.fs_writes < expected_writes(&p) {
                eprintln!(
                    "FAIL crash {design:?}@{drop}/{crash_us}us: {} WRITEs applied, \
                     expected at least {}",
                    r.fs_writes,
                    expected_writes(&p)
                );
                std::process::exit(1);
            }
            ct.row(&[
                format!("{design:?}"),
                format!("{:.1}%", drop * 100.0),
                format!("{crash_us}us"),
                r.rpc_retransmits.to_string(),
                r.verf_mismatches.to_string(),
                r.redriven_writes.to_string(),
                r.wal_committed_records.to_string(),
                r.fs_writes.to_string(),
                r.corrupt_records.to_string(),
            ]);
        }
    }
    bench::emit("crash_matrix", &ct);
    println!("All crash points recovered with zero corruption.");
}
