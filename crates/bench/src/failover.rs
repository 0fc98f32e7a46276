//! Failover matrix: the two-node replicated cluster under seeded
//! primary kills. Kill offsets are phase-anchored against the
//! deterministic 8 KiB/commit-every-8 workload: ≤ ~1.79 ms lands in an
//! UNSTABLE burst, ~1.8-2.0 ms lands between a client's local group
//! commit and the backup's marker ack (`interrupted_markers` proves
//! it), and the rejoin row brings the killed node back while the
//! promoted primary is still mid-workload.
//!
//! `--smoke` is the gate `scripts/check.sh` runs: the steady-state
//! overhead pair and the first two kill points (printed, not written),
//! then the observability run and `BENCH_failover.json`.

use sim_core::sweep::parallel_sweep;
use sim_core::{FxMap, FxSet, SimDuration};
use workloads::{
    failover_bed, linux_sdr, run_failover, Capture, ClusterConfig, FailoverParams, FailoverResult,
    Run,
};

use crate::report::{count, Table};
use crate::{same_seed, write_result, BenchJson, Gate};

const FAILOVER_SEED: u64 = 0xFA11;
/// Kill inside the UNSTABLE burst, clear of any commit marker.
const KILL_MID_BURST_US: u64 = 1500;
/// Kill between the local group commit and the backup's marker ack.
const KILL_FLUSH_MARKER_US: u64 = 1860;
/// Client stalls across a failover stay bounded by the retransmission
/// backoff plus detection; anything past this is a hang, not a stall.
const STALL_BOUND_US: u64 = 300_000;

/// One failover run: its seed, whether the cluster replicates, and its
/// workload.
type Spec = (u64, bool, FailoverParams);

fn failover_run((seed, replicate, p): Spec) -> Run<FailoverResult> {
    let cluster = ClusterConfig { replicate };
    run_failover(
        seed,
        &failover_bed(&linux_sdr(), cluster),
        p,
        Capture::SPANS,
    )
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

/// The observability gate on the mid-burst kill run with span tracing
/// and the telemetry timeline on: the cluster trace is valid JSON with
/// flow events, one client op's causal tree spans client → primary →
/// backup across the epoch bump, and the timeline shows the stall.
/// Exports the Perfetto-loadable cluster trace and the stall timeline.
fn observe(r: &Run<FailoverResult>) {
    let gate = failover_gate("observability", r, true);
    let json = sim_core::chrome_trace_json(&r.spans);
    let links_all_roles = {
        let mut roles: FxMap<u64, FxSet<&str>> = FxMap::default();
        for s in r.spans.iter().filter(|s| s.trace_id != 0) {
            roles.entry(s.trace_id).or_default().insert(s.component);
        }
        let all = |c: &FxSet<&str>| ["client", "server", "backup"].iter().all(|r| c.contains(r));
        roles.values().any(all)
    };
    let buckets = &r.timeline.buckets;
    let saw_stall = r.promoted_at_us > r.killed_at_us
        && (buckets.iter()).any(|b| timeline_phase(b.t_us, r) == "stall");
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
    let path = write_result("trace_failover_cluster.json", &json);
    println!("  wrote {path}");
    emit_timeline(r);
    println!(
        "failover observability: {} spans, {} timeline buckets, stall window {} µs",
        r.spans.len(),
        buckets.len(),
        r.promoted_at_us - r.killed_at_us
    );
}

/// The matrix, every run in parallel. The smoke gate runs the
/// steady-state pair and kill points 1 and 2 (the table printed, not
/// written); the full run adds kill points 3 and 4. Both end with the
/// observability run and `BENCH_failover.json`.
pub(crate) fn run(smoke: bool) {
    let seed = FAILOVER_SEED;
    let mid_burst = kill_at(KILL_MID_BURST_US);
    // Observability: the mid-burst kill with the telemetry timeline on.
    let observed = FailoverParams {
        timeline: true,
        ..mid_burst
    };
    let mut specs = vec![
        (seed, true, FailoverParams::default()),
        (seed, false, FailoverParams::default()),
        (seed, true, mid_burst),
        (seed, true, mid_burst),
        (seed, true, kill_at(KILL_FLUSH_MARKER_US)),
        (seed, true, observed),
        (seed, true, observed),
    ];
    if !smoke {
        // Kill point 3: a lossy fabric around the kill, so replies the
        // failed primary already executed are retransmitted into the
        // promoted backup's replicated DRC window (cross-epoch
        // replays). Kill point 4: the killed node rejoins as a backup
        // while the promoted primary is still serving — promotion,
        // resync and live traffic overlap.
        let storm = FailoverParams {
            drop_probability: 0.05,
            ..kill_at(2000)
        };
        let rejoin = FailoverParams {
            records_per_client: 48,
            rejoin_after: Some(SimDuration::from_millis(1)),
            ..mid_burst
        };
        specs.extend([(3, true, storm), (seed, true, rejoin)]);
    }
    let runs = parallel_sweep(specs, failover_run);
    let [on, off, mid, mid_again, flush, obs, obs_again, later @ ..] = &runs[..] else {
        unreachable!("seven runs at least")
    };

    // Replication overhead gate: with no kill, the replicated cluster's
    // WRITE throughput must stay within 15% of the same workload with
    // replication disabled.
    let shipping = on.metric("repl.shipped_records") != 0 && on.backup_applied == on.log_len;
    failover_gate("steady", on, false).require(shipping, || {
        "replication idle or backup lagging in steady state".into()
    });
    failover_gate("repl-off", off, false);
    let (on_mbps, off_mbps) = (on.write_mbps, off.write_mbps);
    let overhead_pct = (1.0 - on_mbps / off_mbps) * 100.0;
    Gate::new("failover_overhead", &on.flight).require(on_mbps / off_mbps >= 0.85, || {
        format!("replication costs {overhead_pct:.1}% of WRITE throughput (> 15% budget)")
    });

    // Kill point 1: mid-UNSTABLE-burst, with the same-seed determinism
    // double-run (the replication CI gate).
    let mid_redriven = mid.metric("nfs.client.redriven_writes");
    failover_gate("mid-burst", mid, true).require(mid_redriven != 0, || {
        "kill landed outside the UNSTABLE burst".into()
    });
    same_seed("failover_mid-burst", mid, mid_again);

    // Kill point 2: between a client's local group commit (WAL flush +
    // marker) and the backup's commit-marker acknowledgement.
    let interrupted = flush.metric("repl.interrupted_markers");
    failover_gate("flush-marker", flush, true).require(interrupted != 0, || {
        "kill missed the flush-to-marker window (no interrupted markers)".into()
    });

    let mut rows = vec![
        ("steady (repl on)", None, on),
        ("ablation (repl off)", None, off),
        ("kill mid-burst", Some(KILL_MID_BURST_US), mid),
        ("kill flush-to-marker", Some(KILL_FLUSH_MARKER_US), flush),
    ];
    if let [storm, rejoin] = later {
        let replayed = storm.metric("server.drc.cross_epoch_replays") != 0;
        failover_gate("drop-storm", storm, true).require(replayed, || {
            "no retransmission hit the replicated DRC window".into()
        });
        let resynced = rejoin.metric("fs.wal.resync_bytes") != 0;
        failover_gate("rejoin", rejoin, true).require(resynced, || {
            "rejoined node never re-synced the log tail".into()
        });
        rows.push(("kill + 5% drops", Some(2000), storm));
        rows.push(("kill + rejoin/resync", Some(KILL_MID_BURST_US), rejoin));
    }
    fn ms(us: u64) -> String {
        format!("{:.2}ms", us as f64 / 1000.0)
    }
    let t = Table::new(
        "Failover matrix — 2-node replicated cluster, 3 clients, 8 KiB UNSTABLE records, COMMIT every 8",
        &rows,
        &[
            ("scenario", |(tag, ..)| tag.to_string()),
            ("kill at", |(_, kill, _)| kill.map_or_else(|| "-".into(), |k| format!("{k}us"))),
            ("failover", |(.., r)| match r.promoted {
                true => ms(r.failover_us),
                false => "-".into(),
            }),
            ("p99 stall", |(.., r)| ms(r.stall_p99_us)),
            ("intr markers", |(.., r)| count(r, "repl.interrupted_markers")),
            ("re-driven", |(.., r)| count(r, "nfs.client.redriven_writes")),
            ("xepoch replays", |(.., r)| count(r, "server.drc.cross_epoch_replays")),
            ("resync KiB", |(.., r)| (r.metric("fs.wal.resync_bytes") / 1024).to_string()),
            // A bed without replication never builds a shipper, so it
            // has no `repl.shipped_records` series: it shipped nothing.
            ("shipped", |(.., r)| {
                let shipped = r.metrics.iter().find(|(name, _)| name == "repl.shipped_records");
                shipped.map_or(0, |(_, v)| *v).to_string()
            }),
            ("MB/s", |(.., r)| format!("{:.1}", r.write_mbps)),
            ("corrupt", |(.., r)| r.corrupt_records.to_string()),
        ],
    );
    match smoke {
        true => println!("{}", t.render()),
        false => t.emit("failover_matrix"),
    }

    // Tracing-enabled determinism: spans, timeline and flight ring all
    // equal on a same-seed rerun.
    observe(obs);
    same_seed("failover_observability", obs, obs_again);

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
                ("redriven_writes", &mid_redriven),
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
                ("interrupted_markers", &interrupted),
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
