//! Adversary sweep: honest goodput and server hygiene under the full
//! hostile-client catalog.
//!
//! The full run takes every (design x registration strategy) combination
//! twice — once attacker-free for the baseline, once with two
//! attackers cycling the catalog (garbage headers, hostile chunk
//! lists, credit overcommit, XID replays, withheld `RDMA_DONE`, stale
//! and guessed steering-tag probes, and the all-physical phys-scan) —
//! and reports the goodput ratio alongside what the defenses did.
//! Read-Read advertises server steering tags, so its learned exposure
//! deadline and teardown revocations carry the security story, in
//! exposed byte·µs; Read-Write never puts a tag on the wire.
//!
//! `--smoke` is the fixed-seed gate used by `scripts/check.sh`: one
//! combination per design, the <= 20% honest goodput bound, zero
//! corruption, and full revocation accounting between the server's
//! counters and the TPT ledger.

use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use workloads::{linux_sdr, run_adversary, AdversaryParams, AdversaryResult, Bed, Capture, Run};

use crate::report::{count, Table};
use crate::Gate;

const SEED: u64 = 0xAD5A11;

const DESIGNS: [Design; 2] = [Design::ReadWrite, Design::ReadRead];

/// The contest's bed: 2 honest clients against one server.
fn bed(design: Design, strategy: StrategyKind) -> Bed {
    Bed {
        clients: 2,
        ..Bed::new(&linux_sdr(), design, strategy)
    }
}

/// One point's row: the attacker-free baseline and the attacked run.
type Row = (
    Design,
    StrategyKind,
    Run<AdversaryResult>,
    Run<AdversaryResult>,
);

/// Every (design, strategy) point's row under `p`, in parallel.
fn pairs(points: Vec<(Design, StrategyKind)>, p: AdversaryParams) -> Vec<Row> {
    parallel_sweep(points, |(design, strategy)| {
        let run = |p| run_adversary(SEED, &bed(design, strategy), p, Capture::default());
        let base = run(AdversaryParams { attackers: 0, ..p });
        (design, strategy, base, run(p))
    })
}

/// Invariants every point of the sweep must hold. The caller chains
/// its own onto the returned gate (which dumps the attacked run's
/// ring).
fn check<'a>(tag: &str, base: &Run<AdversaryResult>, atk: &'a Run<AdversaryResult>) -> Gate<'a> {
    let tag = format!("adversary {tag}");
    let (violations, quarantines) = ("server.violations.total", "server.quarantines");
    Gate::new(&*tag, &base.flight).require(
        base.metric(violations) == 0 && base.metric(quarantines) == 0,
        || "honest-only baseline charged with violations".into(),
    );
    let (revoked, ledger) = (
        atk.metric("server.exposures.revoked"),
        atk.metric("tpt.revocations"),
    );
    let ratio = atk.goodput_mb_s / base.goodput_mb_s;
    let gate = Gate::new(tag, &atk.flight);
    gate.require(atk.corrupt_records == 0, || {
        format!("{} corrupt honest records", atk.corrupt_records)
    })
    .require(
        atk.metric(violations) != 0 && atk.metric(quarantines) != 0,
        || "attack catalog never tripped the defenses".into(),
    )
    .require(ledger == revoked, || {
        format!("{revoked} exposures revoked but the TPT ledger records {ledger}")
    })
    .require(ratio >= 0.8, || {
        format!(
            "honest goodput degraded {:.1}% under attack (bound 20%)",
            (1.0 - ratio) * 100.0
        )
    });
    gate
}

pub(crate) fn smoke() {
    let quick = AdversaryParams {
        records_per_client: 16,
        attack_rounds: 4,
        ..AdversaryParams::default()
    };
    let points = DESIGNS.map(|design| (design, StrategyKind::Dynamic));
    for (design, _, base, atk) in pairs(points.to_vec(), quick) {
        let revoked = atk.metric("server.exposures.revoked");
        check(&format!("{design:?}"), &base, &atk)
            .require(design != Design::ReadRead || revoked != 0, || {
                "no withheld exposure was revoked at its deadline".into()
            })
            .require(atk.stale_reads_ok == 0, || {
                let landed = atk.stale_reads_ok;
                format!("{landed} stale steering-tag probes read server memory")
            });
        println!(
            "adversary smoke {design:?}: ok (goodput {:.0}%, {} violations, {} quarantines, \
             {} revocations, {} stale probes refused, {} exposed byte·us)",
            100.0 * atk.goodput_mb_s / base.goodput_mb_s,
            atk.metric("server.violations.total"),
            atk.metric("server.quarantines"),
            revoked,
            atk.stale_reads_refused,
            atk.exposed_byte_us,
        );
    }
    println!("adversary smoke: bounded damage, zero corruption, accounting consistent");
}

pub(crate) fn full() {
    let strategies = [
        StrategyKind::Dynamic,
        StrategyKind::Fmr,
        StrategyKind::Cache,
        StrategyKind::AllPhysical,
    ];
    let points = DESIGNS.iter().flat_map(|&d| strategies.map(|s| (d, s)));
    let rows = pairs(points.collect(), AdversaryParams::default());
    // The table first, the verdict second: a point that fails its gate
    // is still in the artifact, with the number that failed it.
    Table::new(
        "Adversary sweep — 2 honest clients + 2 attackers, full catalog",
        &rows,
        &[
            ("design", |(d, ..)| format!("{d:?}")),
            ("strategy", |(_, s, ..)| format!("{s:?}")),
            ("base MB/s", |(_, _, base, _)| {
                format!("{:.1}", base.goodput_mb_s)
            }),
            ("atk MB/s", |(.., atk)| format!("{:.1}", atk.goodput_mb_s)),
            ("ratio", |(.., base, atk)| {
                format!("{:.2}", atk.goodput_mb_s / base.goodput_mb_s)
            }),
            ("violations", |(.., atk)| {
                count(atk, "server.violations.total")
            }),
            ("quarantines", |(.., atk)| count(atk, "server.quarantines")),
            ("revoked", |(.., atk)| {
                count(atk, "server.exposures.revoked")
            }),
            ("stale ok", |(.., atk)| atk.stale_reads_ok.to_string()),
            ("stale nak", |(.., atk)| atk.stale_reads_refused.to_string()),
            ("scan ok", |(.., atk)| atk.scan_reads_ok.to_string()),
            ("pending", |(.., atk)| {
                count(atk, "server.node0.exposures_pending")
            }),
            ("exposed byte·us", |(.., atk)| {
                atk.exposed_byte_us.to_string()
            }),
            ("corrupt", |(.., atk)| atk.corrupt_records.to_string()),
        ],
    )
    .emit("adversary_sweep");
    for (design, strategy, base, atk) in &rows {
        check(&format!("{design:?}/{strategy:?}"), base, atk);
    }
    println!(
        "All points held the 20% goodput bound with zero corruption; \
         only all-physical Read-Read leaks via its global rkey (scan ok > 0)."
    );
}
