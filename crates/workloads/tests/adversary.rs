//! Adversary suite: hostile clients hammer the server with the whole
//! attack catalog while honest clients run; every layer must survive
//! with bounded damage — no corruption, no panic, violations all
//! accounted, exposures reaped, and honest goodput within 20% of the
//! attacker-free baseline.

use rpcrdma::{Design, StrategyKind};
use sim_core::SimDuration;
use workloads::{linux_sdr, run_adversary, AdversaryParams, Bed, Capture};

/// The exposure TTL the server runs unless a test turns the reaper off.
const TTL: SimDuration = SimDuration::from_micros(200);

/// Two honest clients against a server whose exposure TTL is `ttl`.
fn bed(design: Design, strategy: StrategyKind, ttl: SimDuration) -> Bed {
    let mut profile = linux_sdr();
    profile.rpc.exposure_ttl = ttl;
    Bed {
        clients: 2,
        ..Bed::new(&profile, design, strategy)
    }
}

fn base() -> AdversaryParams {
    AdversaryParams {
        attackers: 2,
        records_per_client: 16,
        attack_rounds: 4,
        ..AdversaryParams::default()
    }
}

#[test]
fn attack_catalog_survived_with_bounded_damage_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let bed = bed(design, StrategyKind::Dynamic, TTL);
        let baseline = run_adversary(
            3,
            &bed,
            AdversaryParams {
                attackers: 0,
                ..base()
            },
            Capture::default(),
        );
        let attacked = run_adversary(3, &bed, base(), Capture::default());

        assert_eq!(attacked.corrupt_records, 0, "{design:?}: corrupted data");
        assert!(
            attacked.metric("server.violations.total") > 0,
            "{design:?}: catalog never tripped the sanitizer"
        );
        assert!(
            attacked.metric("server.quarantines") > 0,
            "{design:?}: no attacker QP quarantined"
        );
        assert!(
            attacked.metric("server.credit_clamps") > 0,
            "{design:?}: admission control never clamped"
        );
        assert!(
            attacked.metric("server.drc.replays") > 0,
            "{design:?}: XID replay not absorbed by the DRC"
        );
        assert_eq!(
            baseline.metric("server.violations.total"),
            0,
            "{design:?}: honest clients charged with violations"
        );
        assert_eq!(
            baseline.metric("server.quarantines"),
            0,
            "{design:?}: honest clients quarantined"
        );

        // The ≤20% goodput bound the paper's overload story needs.
        let ratio = attacked.goodput_mb_s / baseline.goodput_mb_s;
        assert!(
            ratio >= 0.8,
            "{design:?}: honest goodput degraded {:.1}% under attack \
             (baseline {:.1} MB/s, attacked {:.1} MB/s)",
            (1.0 - ratio) * 100.0,
            baseline.goodput_mb_s,
            attacked.goodput_mb_s,
        );
    }
}

#[test]
fn exposure_ttl_reaper_revokes_withheld_done_exposures() {
    // Read-Read + TTL: the attacker's withheld-DONE exposures must be
    // force-revoked, the revocations must land in the TPT ledger, and
    // every aged steering-tag probe must be refused.
    let bed = bed(Design::ReadRead, StrategyKind::Dynamic, TTL);
    let r = run_adversary(5, &bed, base(), Capture::default());
    let revoked = r.metric("server.exposures.revoked");
    assert!(revoked > 0, "reaper never fired");
    assert_eq!(
        r.metric("tpt.revocations"),
        revoked,
        "revocations not accounted in the TPT ledger"
    );
    assert_eq!(
        r.exposures_pending, 0,
        "exposures still pinned after reaping"
    );
    assert_eq!(r.stale_reads_ok, 0, "stale steering tag read server memory");
    assert!(
        r.stale_reads_refused > 0,
        "no stale probe was ever attempted"
    );
    assert!(
        r.metric("tpt.violations") > 0,
        "refused probes not counted by the TPT"
    );
}

#[test]
fn without_ttl_read_read_leaks_and_read_write_does_not() {
    // The paper's security argument, measured: withheld-DONE exposures
    // stay pinned forever without the TTL, and the attacker's aged
    // steering tags still read server memory. Read-Write never puts
    // server tags on the wire, so there is nothing to probe.
    let no_ttl = |design| bed(design, StrategyKind::Dynamic, SimDuration::ZERO);
    let rr = run_adversary(9, &no_ttl(Design::ReadRead), base(), Capture::default());
    // Quarantine teardowns still revoke, but exposures on connections
    // that just went quiet are pinned forever — and their steering
    // tags still read server memory.
    assert!(rr.stale_reads_ok > 0, "Read-Read without TTL should leak");
    assert!(
        rr.exposures_pending > 0,
        "withheld DONEs should pin exposures"
    );

    let rw = run_adversary(9, &no_ttl(Design::ReadWrite), base(), Capture::default());
    assert_eq!(rw.stale_reads_ok, 0, "Read-Write leaked a steering tag");
    assert_eq!(rw.exposures_pending, 0, "Read-Write pinned server buffers");
    assert_eq!(rw.corrupt_records, 0);
}

#[test]
fn adversary_runs_are_deterministic() {
    let bed = bed(Design::ReadRead, StrategyKind::Dynamic, TTL);
    let a = run_adversary(21, &bed, base(), Capture::SPANS);
    let b = run_adversary(21, &bed, base(), Capture::SPANS);
    assert_eq!(a.metrics, b.metrics, "metrics diverge");
    assert_eq!(a, b);
    assert!(!a.spans.is_empty(), "the comparison covered every span");
}

#[test]
fn all_registration_strategies_survive_the_catalog() {
    for strategy in [
        StrategyKind::Dynamic,
        StrategyKind::Fmr,
        StrategyKind::Cache,
        StrategyKind::AllPhysical,
    ] {
        for design in [Design::ReadWrite, Design::ReadRead] {
            let params = AdversaryParams {
                records_per_client: 8,
                attack_rounds: 3,
                ..base()
            };
            let r = run_adversary(13, &bed(design, strategy, TTL), params, Capture::default());
            assert_eq!(
                r.corrupt_records, 0,
                "{design:?}/{strategy:?}: corrupted data"
            );
            let violations = r.metric("server.violations.total");
            assert!(violations > 0, "{design:?}/{strategy:?}: sanitizer idle");
            // With the TTL armed no aged tag works anywhere — even
            // all-physical revokes the scratch buffer behind it. But
            // the all-physical *global* rkey captured from any exposure
            // still reads arbitrary live server memory (the phys-scan),
            // the paper's argument against that strategy.
            assert_eq!(
                r.stale_reads_ok, 0,
                "{design:?}/{strategy:?}: stale probe read server memory"
            );
            if strategy == StrategyKind::AllPhysical && design == Design::ReadRead {
                assert!(
                    r.scan_reads_ok > 0,
                    "all-physical global rkey should scan live server memory"
                );
            } else {
                assert_eq!(
                    r.scan_reads_ok, 0,
                    "{design:?}/{strategy:?}: scan probe read unexposed memory"
                );
            }
        }
    }
}
