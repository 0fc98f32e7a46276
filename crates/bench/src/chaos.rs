//! Chaos sweep: NFS/RDMA survival under injected fabric faults.
//!
//! The full run sweeps drop probabilities over both bulk-transfer
//! designs and reports what the recovery machinery did (drops, link and
//! RPC retransmissions, DRC replays, QP recoveries) alongside the two
//! invariants that must hold at every point: zero corrupt records and
//! exactly-once WRITE application. The crash matrix adds a storage
//! power-fail on top.
//!
//! `--smoke` is the fixed-seed gate used by `scripts/check.sh`: three of
//! those points — both designs at 1% drop with a forced QP error, and a
//! Read-Write power-fail mid-burst — each run twice, the two runs equal
//! span for span and flight record for flight record.

use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use sim_core::SimDuration;
use workloads::{linux_sdr, run_chaos, Backend, Bed, Capture, ChaosParams, ChaosResult, Run};

use crate::report::{count, Table};
use crate::{same_seed, Gate};

/// One chaos point: the bed and its workload.
type Point = (Bed, ChaosParams);

const DESIGNS: [Design; 2] = [Design::ReadWrite, Design::ReadRead];

/// The sweep's drop rates, each with one forced QP error; the gate runs
/// both designs at `DROPS[3]` (1%).
const DROPS: [f64; 6] = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05];

/// The crash matrix's (drop rate, power-fail time in µs) pairs. The
/// 1 KiB records ride `RDMA_MSGP`, so the first acked WRITE is ~120 us
/// in: 100 us is the crash-before-the-burst point. The gate runs
/// Read-Write at `CRASHES[2]`: mid-UNSTABLE-burst under 1% drop.
const CRASHES: [(f64, u64); 4] = [(0.0, 100), (0.0, 400), (0.01, 400), (0.01, 800)];

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
fn crash_point(design: Design, (drop, crash_us): (f64, u64)) -> Point {
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

/// Run every point, in parallel; rows in input order.
fn sweep(points: Vec<Point>) -> Vec<(Point, Run<ChaosResult>)> {
    parallel_sweep(points, |p| (p, chaos(&p)))
}

/// When a crash point's storage power-fails, µs.
fn crash_us((_, p): &Point) -> u64 {
    p.server_crash_at.map_or(0, |at| at.as_micros())
}

/// The name a gate on `p` reports (and dumps its flight ring under).
fn tag(p: &Point) -> String {
    let (design, drop) = (p.0.profile.rpc.design, p.1.drop_probability);
    match p.1.server_crash_at {
        None => format!("{design:?}@{drop}"),
        Some(_) => format!("crash {design:?}@{drop}/{}us", crash_us(p)),
    }
}

/// Zero corruption, and every record applied at least once — exactly
/// once unless a power-fail made the clients re-drive some.
fn check(p: &Point, r: &Run<ChaosResult>) {
    let (bed, params) = p;
    let expected = bed.clients as u64 * params.records_per_client;
    let writes = r.metric("nfs.node0.writes");
    let applied = match params.server_crash_at {
        Some(_) => writes >= expected,
        None => writes == expected,
    };
    Gate::new(tag(p), &r.flight)
        .require(r.corrupt_records == 0, || {
            format!("{} corrupt records", r.corrupt_records)
        })
        .require(applied, || {
            format!("{writes} WRITEs applied, expected {expected} (lost or double-applied)")
        });
}

pub(crate) fn smoke() {
    let points = [
        point(Design::ReadWrite, DROPS[3], 1),
        point(Design::ReadRead, DROPS[3], 1),
        crash_point(Design::ReadWrite, CRASHES[2]),
    ];
    // Each point twice, for the same-seed comparison.
    let twice = points.iter().flat_map(|&p| [p, p]).collect();
    let runs = sweep(twice);
    for pair in runs.chunks(2) {
        let [(p, a), (_, b)] = pair else {
            unreachable!("runs come in pairs")
        };
        let tag = tag(p);
        check(p, a);
        let gate = Gate::new(&*tag, &a.flight);
        if p.1.server_crash_at.is_none() {
            let reconnects = a.metric("client.reconnects");
            gate.require(reconnects > 0, || {
                "forced QP error was not recovered".into()
            });
            same_seed(&tag, a, b);
            println!(
                "chaos smoke {tag}: ok ({} drops, {} rpc retransmits, {} drc replays, {} reconnects, trace {:#018x})",
                a.metric("fabric.*.dropped"),
                a.metric("client.retransmits"),
                a.metric("server.drc.replays"),
                reconnects,
                a.fingerprint()
            );
            continue;
        }
        // The crash gate: clients must observe the verifier change at
        // COMMIT, re-drive, and read back with zero corruption.
        let mismatches = a.metric("nfs.client.verf_mismatches");
        let redriven = a.metric("nfs.client.redriven_writes");
        gate.require(mismatches != 0 && redriven != 0, || {
            format!(
                "crash landed outside the burst ({mismatches} mismatches, {redriven} re-driven)"
            )
        })
        .require(a.wal_committed_records != 0, || {
            "final COMMIT landed no WAL commit marker".into()
        });
        same_seed(&tag, a, b);
        println!(
            "chaos smoke {tag}: ok ({redriven} re-driven, {mismatches} mismatches, {} WAL-committed, trace {:#018x})",
            a.wal_committed_records,
            a.fingerprint()
        );
    }
    println!("chaos smoke: all invariants held");
}

/// The design and drop-rate cells of a row.
fn design((p, _): &(Point, Run<ChaosResult>)) -> String {
    format!("{:?}", p.0.profile.rpc.design)
}

fn drop_pct((p, _): &(Point, Run<ChaosResult>)) -> String {
    format!("{:.1}%", p.1.drop_probability * 100.0)
}

pub(crate) fn full() {
    let points = DESIGNS
        .iter()
        .flat_map(|&d| DROPS.map(|drop| point(d, drop, 1)));
    let rows = sweep(points.collect());
    for (p, r) in &rows {
        check(p, r);
    }
    Table::new(
        "Chaos sweep — 3 clients, 16 x 1 KiB records each, 1 forced QP error",
        &rows,
        &[
            ("design", design),
            ("drop", drop_pct),
            ("dropped", |(_, r)| count(r, "fabric.*.dropped")),
            ("link rtx", |(_, r)| count(r, "fabric.*.retransmits")),
            ("rpc rtx", |(_, r)| count(r, "client.retransmits")),
            ("timeouts", |(_, r)| count(r, "client.timeouts")),
            ("drc replays", |(_, r)| count(r, "server.drc.replays")),
            ("reconnects", |(_, r)| count(r, "client.reconnects")),
            ("writes", |(_, r)| count(r, "nfs.node0.writes")),
            ("corrupt", |(_, r)| r.corrupt_records.to_string()),
        ],
    )
    .emit("chaos_sweep");
    println!("All points completed with zero corruption and exactly-once WRITE application.");

    // Crash matrix: storage power failure at different points of the
    // UNSTABLE burst, with fabric faults on top. Re-driven records are
    // re-applied, so `writes` may legitimately exceed the logical
    // record count — corruption and determinism are the invariants.
    let points = DESIGNS
        .iter()
        .flat_map(|&d| CRASHES.map(|c| crash_point(d, c)));
    let rows = sweep(points.collect());
    for (p, r) in &rows {
        check(p, r);
    }
    Table::new(
        "Crash matrix — server power failure mid-run (WAL backend, 3 clients, 48 x 1 KiB records each)",
        &rows,
        &[
            ("design", design),
            ("drop", drop_pct),
            ("crash at", |(p, _)| format!("{}us", crash_us(p))),
            ("rpc rtx", |(_, r)| count(r, "client.retransmits")),
            ("verf mismatches", |(_, r)| count(r, "nfs.client.verf_mismatches")),
            ("re-driven", |(_, r)| count(r, "nfs.client.redriven_writes")),
            ("wal committed", |(_, r)| r.wal_committed_records.to_string()),
            ("writes", |(_, r)| count(r, "nfs.node0.writes")),
            ("corrupt", |(_, r)| r.corrupt_records.to_string()),
        ],
    )
    .emit("crash_matrix");
    println!("All crash points recovered with zero corruption.");
}
