//! Adversary sweep: honest goodput and server hygiene under the full
//! hostile-client catalog.
//!
//! Full mode runs every (design x registration strategy) combination
//! twice — once attacker-free for the baseline, once with two
//! attackers cycling the catalog (garbage headers, hostile chunk
//! lists, credit overcommit, XID replays, withheld `RDMA_DONE`, stale
//! and guessed steering-tag probes, and the all-physical phys-scan) —
//! and reports the goodput ratio alongside what the defenses did.
//! Read-Read advertises server steering tags so its exposure TTL and
//! teardown revocations carry the security story; Read-Write never
//! puts a tag on the wire.
//!
//! Run with `--smoke` for the fixed-seed gate used by
//! `scripts/check.sh`: one combination per design, the <= 20% honest
//! goodput bound, zero corruption, and full revocation accounting
//! between the server's counters and the TPT ledger.

use rpcrdma::{Design, StrategyKind};
use workloads::{linux_sdr, run_adversary, AdversaryParams, AdversaryResult, Table};

const SEED: u64 = 0xAD5A11;

fn params(design: Design, strategy: StrategyKind) -> AdversaryParams {
    AdversaryParams {
        design,
        strategy,
        honest_clients: 2,
        attackers: 2,
        records_per_client: 24,
        attack_rounds: 6,
        ..AdversaryParams::default()
    }
}

/// Fail a gate: dump the node's flight-recorder ring (the always-on
/// last-N event log) to `results/` for postmortem, then exit nonzero.
fn fail(tag: &str, msg: &str, flight: &[sim_core::FlightRecord]) -> ! {
    if !flight.is_empty() {
        let name = format!(
            "flight_adversary_{}.txt",
            tag.to_ascii_lowercase().replace(['/', ' '], "_")
        );
        bench::emit_results_file(&name, &sim_core::format_flight(flight));
    }
    eprintln!("FAIL {tag}: {msg}");
    std::process::exit(1);
}

/// Invariants every point of the sweep must hold.
fn check(tag: &str, base: &AdversaryResult, atk: &AdversaryResult) {
    if atk.corrupt_records != 0 {
        fail(
            tag,
            &format!("{} corrupt honest records", atk.corrupt_records),
            &atk.flight,
        );
    }
    if base.violations != 0 || base.quarantines != 0 {
        fail(
            tag,
            "honest-only baseline charged with violations",
            &base.flight,
        );
    }
    if atk.violations == 0 || atk.quarantines == 0 {
        fail(
            tag,
            "attack catalog never tripped the defenses",
            &atk.flight,
        );
    }
    if atk.tpt_revocations != atk.exposures_revoked {
        fail(
            tag,
            &format!(
                "{} exposures revoked but the TPT ledger records {}",
                atk.exposures_revoked, atk.tpt_revocations
            ),
            &atk.flight,
        );
    }
    let ratio = atk.goodput_mb_s / base.goodput_mb_s;
    if ratio < 0.8 {
        fail(
            tag,
            &format!(
                "honest goodput degraded {:.1}% under attack (bound 20%)",
                (1.0 - ratio) * 100.0
            ),
            &atk.flight,
        );
    }
}

fn smoke() {
    let profile = linux_sdr();
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut p = params(design, StrategyKind::Dynamic);
        p.records_per_client = 16;
        p.attack_rounds = 4;
        let base = run_adversary(SEED, &profile, AdversaryParams { attackers: 0, ..p });
        let atk = run_adversary(SEED, &profile, p);
        check(&format!("{design:?}"), &base, &atk);
        if design == Design::ReadRead && atk.exposures_revoked == 0 {
            fail(
                "ReadRead",
                "TTL reaper never revoked a withheld exposure",
                &atk.flight,
            );
        }
        if atk.stale_reads_ok != 0 {
            fail(
                &format!("{design:?}"),
                &format!(
                    "{} stale steering-tag probes read server memory",
                    atk.stale_reads_ok
                ),
                &atk.flight,
            );
        }
        println!(
            "adversary smoke {design:?}: ok (goodput {:.0}%, {} violations, {} quarantines, \
             {} revocations, {} stale probes refused)",
            100.0 * atk.goodput_mb_s / base.goodput_mb_s,
            atk.violations,
            atk.quarantines,
            atk.exposures_revoked,
            atk.stale_reads_refused,
        );
    }
    // RFP leg: the reply-slot ring is one more piece of server memory a
    // session leaves behind. Attackers capture their ring advertisement
    // and fetch through it after their connection dies; teardown must
    // have revoked the ring (every probe NAKs, none lands), and the
    // same hygiene invariants hold with the fast path on.
    for design in [Design::ReadWrite, Design::ReadRead] {
        let mut p = params(design, StrategyKind::Dynamic);
        p.records_per_client = 16;
        p.attack_rounds = 4;
        p.rfp = true;
        let base = run_adversary(SEED, &profile, AdversaryParams { attackers: 0, ..p });
        let atk = run_adversary(SEED, &profile, p);
        check(&format!("{design:?}+rfp"), &base, &atk);
        if atk.rfp_stale_ok != 0 {
            fail(
                &format!("{design:?}+rfp"),
                &format!(
                    "{} dead-session reply-slot probes read server memory",
                    atk.rfp_stale_ok
                ),
                &atk.flight,
            );
        }
        if atk.rfp_stale_refused == 0 {
            fail(
                &format!("{design:?}+rfp"),
                "no reply-slot probe was ever fired and refused",
                &atk.flight,
            );
        }
        println!(
            "adversary smoke {design:?}+rfp: ok (goodput {:.0}%, {} ring probes refused, 0 landed)",
            100.0 * atk.goodput_mb_s / base.goodput_mb_s,
            atk.rfp_stale_refused,
        );
    }
    println!("adversary smoke: bounded damage, zero corruption, accounting consistent");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let profile = linux_sdr();
    let mut t = Table::new(
        "Adversary sweep — 2 honest clients + 2 attackers, full catalog, 200 us exposure TTL",
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
            "rfp ok",
            "rfp nak",
            "pending",
            "corrupt",
        ],
    );
    // Every (design x strategy) point, plus an RFP row per design: the
    // Dynamic strategy with the reply-slot fast path on, where the
    // attackers also probe their dead session's ring advertisement.
    let mut points: Vec<(Design, StrategyKind, bool)> = Vec::new();
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in [
            StrategyKind::Dynamic,
            StrategyKind::Fmr,
            StrategyKind::Cache,
            StrategyKind::AllPhysical,
        ] {
            points.push((design, strategy, false));
        }
        points.push((design, StrategyKind::Dynamic, true));
    }
    for (design, strategy, rfp) in points {
        let mut p = params(design, strategy);
        p.rfp = rfp;
        let tag = if rfp {
            format!("{design:?}/{strategy:?}+rfp")
        } else {
            format!("{design:?}/{strategy:?}")
        };
        let base = run_adversary(SEED, &profile, AdversaryParams { attackers: 0, ..p });
        let atk = run_adversary(SEED, &profile, p);
        check(&tag, &base, &atk);
        if rfp && (atk.rfp_stale_ok != 0 || atk.rfp_stale_refused == 0) {
            fail(
                &tag,
                &format!(
                    "reply-slot probes: {} landed, {} refused (want 0 landed, > 0 refused)",
                    atk.rfp_stale_ok, atk.rfp_stale_refused
                ),
                &atk.flight,
            );
        }
        t.row(&[
            format!("{design:?}"),
            if rfp {
                format!("{strategy:?}+RFP")
            } else {
                format!("{strategy:?}")
            },
            format!("{:.1}", base.goodput_mb_s),
            format!("{:.1}", atk.goodput_mb_s),
            format!("{:.2}", atk.goodput_mb_s / base.goodput_mb_s),
            atk.violations.to_string(),
            atk.quarantines.to_string(),
            atk.exposures_revoked.to_string(),
            atk.stale_reads_ok.to_string(),
            atk.stale_reads_refused.to_string(),
            atk.scan_reads_ok.to_string(),
            atk.rfp_stale_ok.to_string(),
            atk.rfp_stale_refused.to_string(),
            atk.exposures_pending.to_string(),
            atk.corrupt_records.to_string(),
        ]);
    }
    bench::emit("adversary_sweep", &t);
    println!(
        "All points held the 20% goodput bound with zero corruption; \
         only all-physical Read-Read leaks via its global rkey (scan ok > 0), \
         and every dead-session reply-slot probe was refused."
    );
}
