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
//! plus a same-seed double run that must produce identical span and
//! flight records.

use bench::{same_seed, write_result, BenchJson, Gate};
use rpcrdma::{Design, StrategyKind};
use sim_core::SimDuration;
use workloads::{
    failover_bed, linux_sdr, run_chaos, run_failover, Backend, Bed, Capture, ChaosParams,
    ChaosResult, ClusterConfig, FailoverParams, FailoverResult, Run, Table,
};

/// One chaos point: the bed and its workload.
type Point = (Bed, ChaosParams);

/// The harness's default point (3 clients on a tmpfs server, 16 x 1 KiB
/// records each, 5 us of delivery jitter) at one drop rate.
fn point(design: Design, drop: f64, qp_errors: u32) -> Point {
    let bed = Bed {
        clients: 3,
        ..Bed::new(&linux_sdr(), design, StrategyKind::Cache)
    };
    let params = ChaosParams {
        drop_probability: drop,
        qp_errors,
        ..ChaosParams::default()
    };
    (bed, params)
}

/// A crash-matrix point: fabric faults stay on, and on top the server's
/// storage power-fails mid-run (WAL replay + verifier bump + re-drive).
fn crash_point(design: Design, drop: f64, crash_us: u64) -> Point {
    let (bed, params) = point(design, drop, 0);
    let bed = Bed {
        backend: Backend::WalRaid { ram_bytes: 1 << 30 },
        ..bed
    };
    let params = ChaosParams {
        records_per_client: 48,
        server_crash_at: Some(SimDuration::from_micros(crash_us)),
        ..params
    };
    (bed, params)
}

fn chaos((bed, params): &Point) -> Run<ChaosResult> {
    run_chaos(0xC0FFEE, bed, *params, Capture::SPANS)
}

/// Zero corruption, and every record applied at least once — exactly
/// once unless a power-fail made the clients re-drive some.
fn check(tag: &str, (bed, p): &Point, r: &Run<ChaosResult>) {
    let expected = bed.clients as u64 * p.records_per_client;
    let applied = match p.server_crash_at {
        Some(_) => r.fs_writes >= expected,
        None => r.fs_writes == expected,
    };
    Gate::new(tag, &r.flight)
        .require(r.corrupt_records == 0, || {
            format!("{} corrupt records", r.corrupt_records)
        })
        .require(applied, || {
            let applied = r.fs_writes;
            format!("{applied} WRITEs applied, expected {expected} (lost or double-applied)")
        });
}

fn smoke() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let p = point(design, 0.01, 1);
        let a = chaos(&p);
        let tag = format!("{design:?}");
        check(&tag, &p, &a);
        let reconnects = a.metric("client.reconnects");
        Gate::new(&*tag, &a.flight).require(reconnects > 0, || {
            "forced QP error was not recovered".into()
        });
        same_seed(&tag, &a, &chaos(&p));
        println!(
            "chaos smoke {design:?}: ok ({} drops, {} rpc retransmits, {} drc replays, {} reconnects, trace {:#018x})",
            a.metric("fabric.*.dropped"),
            a.metric("client.retransmits"),
            a.metric("server.drc.replays"),
            reconnects,
            a.fingerprint()
        );
    }
    // Crash-matrix gate: server storage power-fails mid-UNSTABLE-burst
    // under 1% drop. Clients must observe the verifier change at
    // COMMIT, re-drive, and read back with zero corruption — twice,
    // with identical traces.
    let p = crash_point(Design::ReadWrite, 0.01, 400);
    let a = chaos(&p);
    check("crash", &p, &a);
    Gate::new("crash", &a.flight)
        .require(a.verf_mismatches != 0 && a.redriven_writes != 0, || {
            format!(
                "crash landed outside the burst ({} mismatches, {} re-driven)",
                a.verf_mismatches, a.redriven_writes
            )
        })
        .require(a.wal_committed_records != 0, || {
            "final COMMIT landed no WAL commit marker".into()
        });
    same_seed("crash", &a, &chaos(&p));
    println!(
        "chaos smoke crash: ok ({} re-driven, {} mismatches, {} WAL-committed, trace {:#018x})",
        a.redriven_writes,
        a.verf_mismatches,
        a.wal_committed_records,
        a.fingerprint()
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

fn failover(seed: u64, p: FailoverParams) -> Run<FailoverResult> {
    let bed = failover_bed(&linux_sdr(), ClusterConfig::default());
    run_failover(seed, &bed, p, Capture::SPANS)
}

fn kill_at(us: u64) -> FailoverParams {
    FailoverParams {
        kill_at: Some(SimDuration::from_micros(us)),
        ..FailoverParams::default()
    }
}

/// The gate on one failover run, past what every row must show: zero
/// corruption, promotion iff a kill was scheduled, a bounded stall. The
/// caller adds its row's own proof that the kill landed where aimed.
fn failover_gate<'a>(tag: &str, r: &'a Run<FailoverResult>, expect_kill: bool) -> Gate<'a> {
    let gate = Gate::new(format!("failover_{tag}"), &r.flight);
    gate.require(r.corrupt_records == 0, || {
        format!("{} corrupt records", r.corrupt_records)
    })
    .require(r.promoted == expect_kill, || match expect_kill {
        true => "backup never promoted after the kill".into(),
        false => "spurious promotion without a kill".into(),
    })
    .require(r.stall_p99_us <= STALL_BOUND_US, || {
        let p99 = r.stall_p99_us;
        format!("p99 client stall {p99}us exceeds bound {STALL_BOUND_US}us")
    });
    gate
}

fn failover_row(t: &mut Table, tag: &str, kill_us: Option<u64>, r: &Run<FailoverResult>) {
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
        r.metric("server.drc.cross_epoch_replays").to_string(),
        format!("{}", r.resync_bytes / 1024),
        r.shipped_records.to_string(),
        format!("{:.1}", r.write_mbps),
        r.corrupt_records.to_string(),
    ]);
}

/// Replication overhead gate: with no kill, the replicated cluster's
/// WRITE throughput must stay within 15% of the same workload with
/// replication disabled.
fn failover_overhead(t: &mut Table) -> (f64, f64) {
    let on = failover(FAILOVER_SEED, FailoverParams::default());
    let shipping = on.shipped_records != 0 && on.backup_applied == on.log_len;
    failover_gate("steady", &on, false).require(shipping, || {
        "replication idle or backup lagging in steady state".into()
    });
    let cluster = ClusterConfig {
        replicate: false,
        ..ClusterConfig::default()
    };
    let bed = failover_bed(&linux_sdr(), cluster);
    let off = run_failover(
        FAILOVER_SEED,
        &bed,
        FailoverParams::default(),
        Capture::SPANS,
    );
    failover_gate("repl-off", &off, false);
    failover_row(t, "steady (repl on)", None, &on);
    failover_row(t, "ablation (repl off)", None, &off);
    let ratio = on.write_mbps / off.write_mbps;
    Gate::new("failover_overhead", &on.flight).require(ratio >= 0.85, || {
        format!(
            "replication costs {:.1}% of WRITE throughput (> 15% budget)",
            (1.0 - ratio) * 100.0
        )
    });
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
    let phase = |t_us| timeline_phase(t_us, r);
    let csv = r.timeline.csv(Some(("phase", &phase)));
    println!("  wrote {}", write_result("timeline_failover.csv", &csv));

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
    for b in &r.timeline.buckets {
        let (t_us, ops, goodput, p99) = (b.t_us, b.ops, b.goodput_mbps, b.p99_us);
        md.push_str(&format!(
            "| {t_us} | {} | {ops} | {goodput:.1} | {p99} |",
            phase(t_us)
        ));
        for gauge in &b.gauges {
            md.push_str(&format!(" {gauge} |"));
        }
        md.push('\n');
    }
    println!("  wrote {}", write_result("timeline_failover.md", &md));
}

/// The observability acceptance run: the mid-burst kill with span
/// tracing and the telemetry timeline enabled. Exports the
/// Perfetto-loadable cluster trace and the stall timeline, asserts the
/// cross-node causal tree, and double-runs for byte-identical
/// tracing-enabled determinism. Returns the result for the benchmark
/// JSON.
fn failover_observability() -> Run<FailoverResult> {
    let p = FailoverParams {
        timeline: true,
        ..kill_at(KILL_MID_BURST_US)
    };
    let run = || failover(FAILOVER_SEED, p);
    let r = run();
    let gate = failover_gate("observability", &r, true);
    let json = sim_core::chrome_trace_json(&r.spans);
    // One client op's causal tree must span client → primary → backup,
    // across the epoch bump.
    let links_all_roles = {
        use std::collections::{HashMap, HashSet};
        let mut roles: HashMap<u64, HashSet<&str>> = HashMap::new();
        for s in r.spans.iter().filter(|s| s.trace_id != 0) {
            roles.entry(s.trace_id).or_default().insert(s.component);
        }
        let all = |c: &HashSet<&str>| ["client", "server", "backup"].iter().all(|r| c.contains(r));
        roles.values().any(all)
    };
    let buckets = &r.timeline.buckets;
    let saw_stall = r.promoted_at_us > r.killed_at_us
        && (buckets.iter()).any(|b| timeline_phase(b.t_us, &r) == "stall");
    gate.require(sim_core::validate_json(&json).is_ok(), || {
        "cluster trace JSON invalid".into()
    })
    .require(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\",\"bp\":\"e\""),
        || "cluster trace carries no flow events".into(),
    )
    .require(links_all_roles, || {
        "no trace id links client, primary and backup spans".into()
    })
    .require(saw_stall, || {
        "timeline missed the promotion stall window".into()
    });
    // Tracing-enabled determinism: spans, timeline and flight ring all
    // equal on a same-seed rerun.
    same_seed("failover_observability", &r, &run());
    let path = write_result("trace_failover_cluster.json", &json);
    println!("  wrote {path}");
    emit_timeline(&r);
    println!(
        "failover observability: {} spans, {} timeline buckets, stall window {} µs",
        r.spans.len(),
        buckets.len(),
        r.promoted_at_us - r.killed_at_us
    );
    r
}

fn failover_matrix(smoke: bool) {
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
    let p = kill_at(KILL_MID_BURST_US);
    let mid = failover(FAILOVER_SEED, p);
    failover_gate("mid-burst", &mid, true).require(mid.redriven_writes != 0, || {
        "kill landed outside the UNSTABLE burst".into()
    });
    same_seed("failover_mid-burst", &mid, &failover(FAILOVER_SEED, p));
    failover_row(&mut t, "kill mid-burst", Some(KILL_MID_BURST_US), &mid);

    // Kill point 2: between a client's local group commit (WAL flush +
    // marker) and the backup's commit-marker acknowledgement.
    let flush = failover(FAILOVER_SEED, kill_at(KILL_FLUSH_MARKER_US));
    failover_gate("flush-marker", &flush, true).require(flush.interrupted_markers != 0, || {
        "kill missed the flush-to-marker window (no interrupted markers)".into()
    });
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
            ..kill_at(2000)
        };
        let r = failover(3, p);
        let replayed = r.metric("server.drc.cross_epoch_replays") != 0;
        failover_gate("drop-storm", &r, true).require(replayed, || {
            "no retransmission hit the replicated DRC window".into()
        });
        failover_row(&mut t, "kill + 5% drops", Some(2000), &r);

        // Kill point 4: the killed node rejoins as a backup while the
        // promoted primary is still serving — promotion, resync and
        // live traffic overlap.
        let p = FailoverParams {
            records_per_client: 48,
            rejoin_after: Some(SimDuration::from_millis(1)),
            ..kill_at(KILL_MID_BURST_US)
        };
        let r = failover(FAILOVER_SEED, p);
        failover_gate("rejoin", &r, true).require(r.resync_bytes != 0, || {
            "rejoined node never re-synced the log tail".into()
        });
        failover_row(&mut t, "kill + rejoin/resync", Some(KILL_MID_BURST_US), &r);

        bench::emit("failover_matrix", &t);
    } else {
        println!("{}", t.render());
    }

    // The observability acceptance run: Perfetto trace + telemetry
    // timeline exports, cross-node causal-tree and tracing-enabled
    // determinism gates.
    let obs = failover_observability();

    let overhead_pct = (1.0 - on_mbps / off_mbps) * 100.0;
    BenchJson::new("failover", smoke)
        .section(
            "steady",
            1,
            &[
                ("write_mbps_repl_on", &format_args!("{on_mbps:.3}")),
                ("write_mbps_repl_off", &format_args!("{off_mbps:.3}")),
                ("overhead_pct", &format_args!("{overhead_pct:.2}")),
            ],
        )
        .section(
            "mid_burst",
            1,
            &[
                ("failover_us", &mid.failover_us),
                ("stall_p99_us", &mid.stall_p99_us),
                ("redriven_writes", &mid.redriven_writes),
                (
                    "cross_epoch_replays",
                    &mid.metric("server.drc.cross_epoch_replays"),
                ),
            ],
        )
        .section(
            "flush_marker",
            1,
            &[
                ("failover_us", &flush.failover_us),
                ("stall_p99_us", &flush.stall_p99_us),
                ("interrupted_markers", &flush.interrupted_markers),
            ],
        )
        .section(
            "observability",
            1,
            &[
                ("spans", &obs.spans.len()),
                ("timeline_buckets", &obs.timeline.buckets.len()),
                ("stall_window_us", &(obs.promoted_at_us - obs.killed_at_us)),
                ("flight_records", &obs.flight.len()),
            ],
        )
        .write();

    println!(
        "failover matrix: all kill points recovered with zero corruption \
         (replication overhead {overhead_pct:.1}% of {off_mbps:.1} MB/s)"
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
            let p = point(design, drop, 1);
            let r = chaos(&p);
            check(&format!("{design:?}@{drop}"), &p, &r);
            t.row(&[
                format!("{design:?}"),
                format!("{:.1}%", drop * 100.0),
                r.metric("fabric.*.dropped").to_string(),
                r.metric("fabric.*.retransmits").to_string(),
                r.metric("client.retransmits").to_string(),
                r.metric("client.timeouts").to_string(),
                r.metric("server.drc.replays").to_string(),
                r.metric("client.reconnects").to_string(),
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
            let p = crash_point(design, drop, crash_us);
            let r = chaos(&p);
            check(&format!("crash {design:?}@{drop}/{crash_us}us"), &p, &r);
            ct.row(&[
                format!("{design:?}"),
                format!("{:.1}%", drop * 100.0),
                format!("{crash_us}us"),
                r.metric("client.retransmits").to_string(),
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
