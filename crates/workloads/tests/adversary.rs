//! Adversary suite: hostile clients hammer the server with the whole
//! attack catalog while honest clients run; every layer must survive
//! with bounded damage — no corruption, no panic, violations all
//! accounted, exposures revoked, and honest goodput within 20% of the
//! attacker-free baseline.

use rpcrdma::{Design, StrategyKind};
use workloads::{linux_sdr, run_adversary, AdversaryParams, Bed, Capture};

/// The server's gauge of exposures awaiting `RDMA_DONE`.
const PENDING: &str = "server.node0.exposures_pending";

/// Two honest clients against one server.
fn bed(design: Design, strategy: StrategyKind) -> Bed {
    Bed {
        clients: 2,
        ..Bed::new(&linux_sdr(), design, strategy)
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
        let bed = bed(design, StrategyKind::Dynamic);
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
fn withheld_done_exposures_are_revoked_at_their_deadline() {
    // Read-Read: the attacker's withheld-DONE exposures must be
    // revoked at their deadline, the revocations must land in the TPT
    // ledger, and every aged steering-tag probe must be refused.
    let bed = bed(Design::ReadRead, StrategyKind::Dynamic);
    let r = run_adversary(5, &bed, base(), Capture::default());
    let revoked = r.metric("server.exposures.revoked");
    assert!(revoked > 0, "no withheld exposure was revoked");
    let overdue = r.flight.iter().filter(|f| f.event == "ttl_revoke");
    assert!(overdue.count() > 0, "no exposure was revoked as overdue");
    assert_eq!(
        r.metric("tpt.revocations"),
        revoked,
        "revocations not accounted in the TPT ledger"
    );
    assert_eq!(r.metric(PENDING), 0, "exposures still pinned after reaping");
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
fn read_read_exposure_is_bounded_and_read_write_has_none() {
    // The paper's security argument, measured as a number: Read-Read
    // exposes server memory for a while — the attackers' withheld
    // exposures included, each until its deadline — and then none is
    // left, nor does any aged steering tag still read. Read-Write never
    // puts a server tag on the wire, so there is nothing to expose.
    let run = |design| {
        run_adversary(
            9,
            &bed(design, StrategyKind::Dynamic),
            base(),
            Capture::default(),
        )
    };
    let rr = run(Design::ReadRead);
    assert!(rr.exposed_byte_us > 0, "Read-Read exposed nothing");
    assert_eq!(rr.metric("tpt.node0.exposed_byte_us"), rr.exposed_byte_us);
    assert_eq!(rr.metric(PENDING), 0, "withheld DONEs still pin memory");
    assert_eq!(
        rr.stale_reads_ok, 0,
        "an aged steering tag read server memory"
    );

    let rw = run(Design::ReadWrite);
    assert_eq!(rw.exposed_byte_us, 0, "Read-Write exposed server memory");
    assert_eq!(rw.metric(PENDING), 0, "Read-Write pinned server buffers");
    assert_eq!(rw.stale_reads_ok, 0, "Read-Write leaked a steering tag");
    assert_eq!(rw.corrupt_records, 0);
}

#[test]
fn adversary_runs_are_deterministic() {
    let bed = bed(Design::ReadRead, StrategyKind::Dynamic);
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
            let r = run_adversary(13, &bed(design, strategy), params, Capture::default());
            assert_eq!(
                r.corrupt_records, 0,
                "{design:?}/{strategy:?}: corrupted data"
            );
            let violations = r.metric("server.violations.total");
            assert!(violations > 0, "{design:?}/{strategy:?}: sanitizer idle");
            // No aged tag works anywhere — even all-physical revokes
            // the scratch buffer behind it at its deadline. But
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
