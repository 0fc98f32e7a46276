//! Failover integration: the replicated cluster keeps every record
//! intact across a mid-workload primary kill, rejoins the crashed
//! node, and replays identically under the same seed.

use sim_core::SimDuration;
use workloads::{
    failover_bed, linux_sdr, run_failover, Bed, Capture, ClusterConfig, FailoverParams,
};

fn bed() -> Bed {
    failover_bed(&linux_sdr(), ClusterConfig::default())
}

fn base() -> FailoverParams {
    FailoverParams::default()
}

#[test]
fn replicated_steady_state_ships_everything() {
    let r = run_failover(11, &bed(), base(), Capture::default());
    assert_eq!(
        r.corrupt_records, 0,
        "read-back must match what was written"
    );
    assert!(!r.promoted, "no kill, no promotion");
    assert!(
        r.metric("repl.shipped_records") > 0,
        "mutations must ship to the backup"
    );
    assert_eq!(
        r.backup_applied, r.log_len,
        "backup applies the full replicated log"
    );
    assert!(r.durable_seq > 0, "commit markers advance the durable seq");
    // The backup is node 4, behind the three clients.
    assert_eq!(
        r.metric("nfs.node0.writes"),
        r.metric("nfs.node4.writes"),
        "backup mirrors every WRITE"
    );
}

#[test]
fn overhead_baseline_runs_without_replication() {
    let cluster = ClusterConfig { replicate: false };
    let bed = failover_bed(&linux_sdr(), cluster);
    let r = run_failover(11, &bed, base(), Capture::default());
    assert_eq!(r.corrupt_records, 0);
    let shipper = r
        .metrics
        .iter()
        .any(|(name, _)| name.starts_with("repl.shipped"));
    assert!(!shipper, "no replication channel, no shipper");
    assert_eq!(r.log_len, 0);
    assert_eq!(
        r.metric("nfs.node4.writes"),
        0,
        "backup idle without replication"
    );
}

#[test]
fn mid_burst_kill_fails_over_without_corruption() {
    let mut p = base();
    p.kill_at = Some(SimDuration::from_millis(2));
    let r = run_failover(23, &bed(), p, Capture::default());
    assert!(r.promoted, "backup must promote after the kill");
    assert_eq!(r.corrupt_records, 0, "zero corruption across failover");
    assert!(r.failover_us > 0);
    assert!(
        r.metric("nfs.node0.writes")
            + r.metric("nfs.client.redriven_writes")
            + r.metric("server.drc.replays")
            > 0,
        "the cluster must have made progress through the kill"
    );
}

/// Satellite regression: a WRITE the failed primary already executed
/// and replicated, whose reply the client never saw (dropped), is
/// *replayed* from the promoted backup's imported DRC window — not
/// re-executed as a fresh call. `cross_epoch_replays` counts exactly
/// the old-epoch DRC hits, which bypass service dispatch entirely.
#[test]
fn retransmitted_write_across_promotion_replays_from_drc() {
    let mut p = base();
    p.drop_probability = 0.05;
    p.kill_at = Some(SimDuration::from_millis(2));
    let r = run_failover(3, &bed(), p, Capture::default());
    assert!(r.promoted);
    assert_eq!(
        r.corrupt_records, 0,
        "replay must preserve exactly-once contents"
    );
    let cross_epoch = r.metric("server.drc.cross_epoch_replays");
    assert!(
        cross_epoch >= 1,
        "at least one retransmission must hit the replicated DRC window"
    );
    assert!(
        r.metric("server.drc.replays") >= cross_epoch,
        "cross-epoch hits are a subset of all DRC replays"
    );
}

/// Same seed, same run, spans included — and the spans only observe:
/// the untraced run of that seed is the traced one minus its spans, so
/// a same-seed check with spans on covers the schedule the untraced
/// figures run.
#[test]
fn same_seed_failover_replays_bit_for_bit() {
    let mut p = base();
    p.kill_at = Some(SimDuration::from_millis(2));
    let a = run_failover(42, &bed(), p, Capture::SPANS);
    let b = run_failover(42, &bed(), p, Capture::SPANS);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a, b);
    assert_eq!(a.corrupt_records, 0);
    let untraced = run_failover(42, &bed(), p, Capture::default());
    assert!(untraced.spans.is_empty() && !a.spans.is_empty());
    assert_eq!(
        (&untraced.out, &untraced.metrics, &untraced.flight),
        (&a.out, &a.metrics, &a.flight),
        "span tracing moved the replicated run"
    );
}

/// Tentpole acceptance: with span tracing *enabled*, a seeded failover
/// run still replays byte-for-byte, and one client op's causal tree
/// spans client → primary → backup across the epoch bump.
#[test]
fn traced_failover_links_all_roles_and_replays_bit_for_bit() {
    let mut p = base();
    p.kill_at = Some(SimDuration::from_millis(2));
    p.timeline = true;
    let a = run_failover(42, &bed(), p, Capture::SPANS);
    let b = run_failover(42, &bed(), p, Capture::SPANS);

    // Every exported artifact is byte-identical across same-seed runs
    // with tracing on.
    let json = sim_core::chrome_trace_json(&a.spans);
    assert_eq!(
        json,
        sim_core::chrome_trace_json(&b.spans),
        "span exports diverged"
    );
    assert_eq!(a.timeline, b.timeline, "timelines diverged");
    assert_eq!(
        sim_core::format_flight(&a.flight),
        sim_core::format_flight(&b.flight),
        "flight recordings diverged"
    );
    assert_eq!(a, b);

    // One trace id collects spans from all three roles: the client's
    // call, the (possibly promoted) server's op, and the backup apply.
    use std::collections::{HashMap, HashSet};
    let mut roles: HashMap<u64, HashSet<&str>> = HashMap::new();
    for s in &a.spans {
        if s.trace_id != 0 {
            roles.entry(s.trace_id).or_default().insert(s.component);
        }
    }
    assert!(
        roles
            .values()
            .any(|r| r.contains("client") && r.contains("server") && r.contains("backup")),
        "no trace id links client, primary and backup spans"
    );

    // The export is Perfetto-loadable and carries flow events.
    sim_core::validate_json(&json).expect("cluster trace must be valid JSON");
    assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\",\"bp\":\"e\""));

    // Promotion is visible to the always-on flight recorder and the
    // timeline saw the stall window.
    assert!(a.flight.iter().any(|f| f.event == "promoted"));
    assert!(a.flight.iter().any(|f| f.event == "kill_primary"));
    assert!(!a.timeline.buckets.is_empty());
    assert!(a.promoted_at_us > a.killed_at_us && a.killed_at_us > 0);
}

/// Tracing off stays tracing off: no spans, no timeline, and the
/// flight recorder still captured the chaos events.
#[test]
fn untraced_failover_exports_nothing_but_flight_records() {
    let mut p = base();
    p.kill_at = Some(SimDuration::from_millis(2));
    let r = run_failover(23, &bed(), p, Capture::default());
    assert!(r.spans.is_empty());
    assert!(r.timeline.buckets.is_empty());
    assert!(r.flight.iter().any(|f| f.event == "promoted"));
}

#[test]
fn killed_node_rejoins_and_resyncs() {
    let mut p = base();
    p.records_per_client = 48;
    p.kill_at = Some(SimDuration::from_millis(2));
    p.rejoin_after = Some(SimDuration::from_millis(1));
    let r = run_failover(31, &bed(), p, Capture::SPANS);
    assert!(r.promoted);
    assert_eq!(r.corrupt_records, 0);
    assert!(
        r.metric("fs.wal.resync_bytes") > 0,
        "rejoin must re-ship the missing log tail"
    );
    // A re-shipped record keeps the trace of the call that wrote it, so
    // every backup apply — live or resync — joins some client's tree.
    let client_traces: std::collections::HashSet<u64> = (r.spans.iter())
        .filter(|s| s.component == "client")
        .map(|s| s.trace_id)
        .collect();
    let applies: Vec<_> = (r.spans.iter())
        .filter(|s| (s.component, s.name) == ("backup", "apply"))
        .collect();
    assert!(!applies.is_empty());
    assert!(
        applies.iter().all(|s| client_traces.contains(&s.trace_id)),
        "a backup apply lost its client's trace"
    );
}
