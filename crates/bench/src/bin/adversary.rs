//! Adversary sweep: honest goodput and server hygiene under the full
//! hostile-client catalog.
//!
//! Full mode runs every (design x registration strategy) combination
//! twice — once attacker-free for the baseline, once with two
//! attackers cycling the catalog (garbage headers, hostile chunk
//! lists, credit overcommit, XID replays, withheld `RDMA_DONE`, stale
//! and guessed steering-tag probes, and the all-physical phys-scan) —
//! and reports the goodput ratio alongside what the defenses did.
//! Read-Read advertises server steering tags, so its learned exposure
//! deadline and teardown revocations carry the security story, in
//! exposed byte·µs; Read-Write never puts a tag on the wire.
//!
//! Run with `--smoke` for the fixed-seed gate used by
//! `scripts/check.sh`: one combination per design, the <= 20% honest
//! goodput bound, zero corruption, and full revocation accounting
//! between the server's counters and the TPT ledger.

use bench::Gate;
use rpcrdma::{Design, StrategyKind};
use workloads::{
    linux_sdr, run_adversary, AdversaryParams, AdversaryResult, Bed, Capture, Run, Table,
};

const SEED: u64 = 0xAD5A11;

/// The contest's bed: 2 honest clients against one server.
fn bed(design: Design, strategy: StrategyKind) -> Bed {
    Bed {
        clients: 2,
        ..Bed::new(&linux_sdr(), design, strategy)
    }
}

/// One point: the attacker-free baseline and the attacked run.
fn pair(bed: &Bed, p: AdversaryParams) -> (Run<AdversaryResult>, Run<AdversaryResult>) {
    let run = |p| run_adversary(SEED, bed, p, Capture::default());
    (run(AdversaryParams { attackers: 0, ..p }), run(p))
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

fn smoke() {
    let quick = AdversaryParams {
        records_per_client: 16,
        attack_rounds: 4,
        ..AdversaryParams::default()
    };
    for design in [Design::ReadWrite, Design::ReadRead] {
        let (base, atk) = pair(&bed(design, StrategyKind::Dynamic), quick);
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

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut t = Table::new(
        "Adversary sweep — 2 honest clients + 2 attackers, full catalog",
        &[
            "design",
            "strategy",
            "base MB/s",
            "atk MB/s",
            "ratio",
            "violations",
            "quarantines",
            "revoked",
            "stale ok",
            "stale nak",
            "scan ok",
            "pending",
            "exposed byte·us",
            "corrupt",
        ],
    );
    let mut runs = Vec::new();
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in [
            StrategyKind::Dynamic,
            StrategyKind::Fmr,
            StrategyKind::Cache,
            StrategyKind::AllPhysical,
        ] {
            let (base, atk) = pair(&bed(design, strategy), AdversaryParams::default());
            t.row(&[
                format!("{design:?}"),
                format!("{strategy:?}"),
                format!("{:.1}", base.goodput_mb_s),
                format!("{:.1}", atk.goodput_mb_s),
                format!("{:.2}", atk.goodput_mb_s / base.goodput_mb_s),
                atk.metric("server.violations.total").to_string(),
                atk.metric("server.quarantines").to_string(),
                atk.metric("server.exposures.revoked").to_string(),
                atk.stale_reads_ok.to_string(),
                atk.stale_reads_refused.to_string(),
                atk.scan_reads_ok.to_string(),
                atk.metric("server.node0.exposures_pending").to_string(),
                atk.exposed_byte_us.to_string(),
                atk.corrupt_records.to_string(),
            ]);
            runs.push((format!("{design:?}/{strategy:?}"), base, atk));
        }
    }
    // The table first, the verdict second: a point that fails its gate
    // is still in the artifact, with the number that failed it.
    bench::emit("adversary_sweep", &t);
    for (tag, base, atk) in &runs {
        check(tag, base, atk);
    }
    println!(
        "All points held the 20% goodput bound with zero corruption; \
         only all-physical Read-Read leaks via its global rkey (scan ok > 0)."
    );
}
