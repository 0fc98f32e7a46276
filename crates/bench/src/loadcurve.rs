//! Open-loop load sweep: the latency-throughput "hockey stick" and
//! what the overload controller does to it.
//!
//! A closed-loop probe first measures raw capacity with the same op
//! mix; the sweep then offers Poisson arrival rates from a fraction of
//! that capacity to 2x past it, once with the server's QoS stack
//! (per-tenant weighted fair queueing + bounded queue + sojourn-target
//! shedding) and once without. With shedding the served p99 stays
//! bounded past saturation and goodput plateaus at capacity; without
//! it the patient open queue collapses — p99 grows with the backlog
//! and never comes back. A second sweep pits one hog tenant offering
//! ~1.5x capacity against honest tenants and checks the honest p99
//! barely moves (hog isolation).
//!
//! `--smoke` is the fixed-seed gate wired into `scripts/check.sh`: three
//! rates, both modes, the bounded-p99 and goodput-plateau bounds, the
//! 1-hog fairness bound, and a same-seed byte-identical determinism
//! check. Gate failures dump the server's
//! flight-recorder ring and the tail of the telemetry timeline to
//! `results/` for postmortem.

use std::num::NonZeroU32;

use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use workloads::{
    linux_sdr, run_openloop, Arrival, Bed, Capture, OpenLoopParams, OpenLoopResult, Run,
};

use crate::report::{count, Table};
use crate::{same_seed, write_result, BenchJson, Gate};

const SEED: u64 = 0x10AD;

/// Served p99 the QoS stack must hold at 2x offered load, µs.
const P99_BOUND_US: u64 = 20_000;

/// Goodput at 2x must stay within this fraction of probed capacity.
const PLATEAU_FRACTION: f64 = 0.90;

/// Collapse evidence: unshedded p99 at 2x must exceed the shedded p99
/// by at least this factor.
const COLLAPSE_FACTOR: u64 = 3;

/// Honest p99 inflation allowed when the hog arrives, percent.
const FAIRNESS_INFLATION_PCT: f64 = 20.0;

/// The server's service concurrency with the QoS stack on. Small on
/// purpose: every call in service is already committed to the
/// serialized task queue, so a just-arrived honest call waits at least
/// `8 × server_op_serial` (≈ 180 µs on the Linux profile) behind
/// in-service hog work whatever the DRR order says — the fairness
/// gate's bound is calibrated against that floor. Eight still cover
/// per-op wire and CPU latency and keep the serial stage saturated.
const THREADS: Option<NonZeroU32> = NonZeroU32::new(8);

/// The harness's default population (2000 Zipf-0.9 tenants, the OLTP
/// mix) over one arrival window.
fn base_params(duration_ms: u64) -> OpenLoopParams {
    OpenLoopParams {
        duration: sim_core::SimDuration::from_millis(duration_ms),
        grace: sim_core::SimDuration::from_millis(duration_ms / 4 + 1),
        ..OpenLoopParams::default()
    }
}

/// One run on 4 connections to an all-physical Read-Write server, its
/// overload control (QoS: [`THREADS`] service slots, the fair queue
/// waiting for them) on or off.
fn openloop(qos: bool, p: OpenLoopParams) -> Run<OpenLoopResult> {
    let mut profile = linux_sdr();
    profile.rpc.threads = if qos { THREADS } else { None };
    let bed = Bed {
        clients: 4,
        ..Bed::new(&profile, Design::ReadWrite, StrategyKind::AllPhysical)
    };
    run_openloop(SEED, &bed, p, Capture::default())
}

/// One gate on run `r`: a failure dumps its flight ring to
/// `results/flight_loadcurve.txt` and prints the last timeline row.
fn gate(name: &str, r: &Run<OpenLoopResult>, holds: bool, why: String) {
    Gate::new("loadcurve", &r.flight).require(holds, || {
        let csv = r.timeline.csv(None);
        let (header, last) = (csv.lines().next(), csv.lines().last());
        let (header, last) = (header.unwrap_or(""), last.unwrap_or(""));
        format!("{name}: {why}\n  last timeline row ({header}): {last}")
    });
}

pub(crate) fn run(smoke: bool) {
    let (duration_ms, fracs): (u64, &[f64]) = if smoke {
        (60, &[0.5, 1.0, 2.0])
    } else {
        (150, &[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0])
    };

    // --- Capacity probe: closed loop, overload control off. ----------
    println!("loadcurve: probing capacity (closed loop)...");
    let cap_r = openloop(
        false,
        OpenLoopParams {
            arrival: Arrival::ClosedLoop { workers: 8 },
            waiting_room: 0,
            ..base_params(duration_ms)
        },
    );
    let capacity = cap_r.goodput_ops;
    println!(
        "  capacity ~{capacity:.0} ops/s (p99 {} us, {} ops)",
        cap_r.p99_us, cap_r.completed_in_window
    );
    let none = "closed-loop probe produced no completions";
    gate("capacity", &cap_r, capacity > 0.0, none.into());

    // --- Every other run, in parallel: each (rate, shedding on/off)
    // point of the sweep, the fairness pair and the determinism rerun.
    // With shedding the client host also bounds its own waiting room;
    // the unprotected mode queues patiently without limit — that is the
    // collapse under test.
    let point = |frac: f64, qos: bool| OpenLoopParams {
        arrival: Arrival::Poisson {
            rate: capacity * frac,
        },
        waiting_room: if qos { 64 } else { 0 },
        timeline: true,
        ..base_params(duration_ms)
    };
    let points: Vec<(f64, bool)> = (fracs.iter())
        .flat_map(|&f| [(f, true), (f, false)])
        .collect();
    let mut runs: Vec<(bool, OpenLoopParams)> = (points.iter())
        .map(|&(frac, qos)| (qos, point(frac, qos)))
        .collect();
    // Fairness: 3 honest connections vs 1 hog. Reserve connection 0 for
    // the hog in both runs so the honest population is identical; the
    // baseline's rate of 1e-9 keeps it effectively silent. Honest
    // tenants are provisioned 4x the hog's weight — the knob an
    // operator actually has.
    let fair = |hog_rate| OpenLoopParams {
        arrival: Arrival::Poisson {
            rate: capacity * 0.5,
        },
        waiting_room: 64,
        timeline: true,
        hog_rate,
        honest_weight: 4,
        ..base_params(duration_ms)
    };
    runs.extend([(true, fair(1e-9)), (true, fair(capacity * 1.5))]);
    // Determinism: the 2x shedding-on point, same seed, again.
    runs.push((true, point(2.0, true)));
    let results = parallel_sweep(runs, |(qos, p)| openloop(qos, p));
    let (sweep, [baseline, hogged, rerun]) = results.split_at(points.len()) else {
        unreachable!("three runs past the sweep")
    };

    let rows: Vec<_> = points.iter().zip(sweep).collect();
    Table::new(
        "Open-loop load sweep (Poisson arrivals, 2000 Zipf tenants on 4 connections)",
        &rows,
        &[
            ("mode", |((_, qos), _)| {
                if *qos { "shed-on" } else { "shed-off" }.to_string()
            }),
            ("x_cap", |((frac, _), _)| format!("{frac:.2}")),
            ("offered", |(_, r)| r.offered.to_string()),
            ("goodput", |(_, r)| format!("{:.0}", r.goodput_ops)),
            ("p50_us", |(_, r)| r.p50_us.to_string()),
            ("p99_us", |(_, r)| r.p99_us.to_string()),
            ("srv_shed", |(_, r)| count(r, "server.sheds")),
            ("cli_shed", |(_, r)| r.client_sheds.to_string()),
            ("overloaded", |(_, r)| r.overload_failures.to_string()),
            ("unfinished", |(_, r)| r.unfinished.to_string()),
            ("peak_q", |(_, r)| r.qos_peak_depth.to_string()),
        ],
    )
    .emit("loadcurve");
    // 2x, the last rate, is the last pair of rows: shedding on, then off.
    let [.., (_, on_2x), (_, off_2x)] = rows[..] else {
        unreachable!("the sweep has rates")
    };
    let timeline = write_result("loadcurve_timeline.csv", &on_2x.timeline.csv(None));
    println!("  wrote {timeline}");

    // --- Hockey-stick gates. -----------------------------------------
    let (on_p99, off_p99) = (on_2x.p99_us, off_2x.p99_us);
    let (on_goodput, plateau_pct) = (on_2x.goodput_ops, PLATEAU_FRACTION * 100.0);
    for (name, r, holds, why) in [
        (
            "bounded-p99",
            on_2x,
            on_p99 <= P99_BOUND_US,
            format!(
                "shedding on: p99 {on_p99} us at 2x capacity exceeds the {P99_BOUND_US} us bound"
            ),
        ),
        (
            "goodput-plateau",
            on_2x,
            on_goodput >= PLATEAU_FRACTION * capacity,
            format!(
                "shedding on: goodput {on_goodput:.0} ops/s at 2x fell below \
                 {plateau_pct:.0}% of capacity {capacity:.0}"
            ),
        ),
        (
            "shed-active",
            on_2x,
            on_2x.metric("server.sheds") != 0,
            "shedding on: 2x overload never tripped the controller".into(),
        ),
        (
            "shed-disabled",
            off_2x,
            off_2x.metric("server.sheds") == 0,
            "shedding off: the controller shed work while disabled".into(),
        ),
        (
            "collapse-shown",
            off_2x,
            off_p99 >= COLLAPSE_FACTOR * on_p99.max(1),
            format!(
                "shedding off: p99 {off_p99} us at 2x does not demonstrate collapse \
                 (>= {COLLAPSE_FACTOR}x the shedded {on_p99} us)"
            ),
        ),
    ] {
        gate(name, r, holds, why);
    }

    // --- Fairness under a hog. ----------------------------------------
    Table::new(
        "Fairness under a hog (QoS on, honest load 0.5x capacity)",
        &[("honest-only", baseline), ("with-hog", hogged)],
        &[
            ("scenario", |(label, _)| label.to_string()),
            ("honest_ops", |(_, r)| r.honest_completed.to_string()),
            ("honest_p99_us", |(_, r)| r.honest_p99_us.to_string()),
            ("hog_ops", |(_, r)| r.hog_completed.to_string()),
            ("hog_p99_us", |(_, r)| r.hog_p99_us.to_string()),
            ("srv_shed", |(_, r)| count(r, "server.sheds")),
            ("clamps", |(_, r)| count(r, "server.credit_clamps")),
        ],
    )
    .emit("loadcurve_fairness");

    let inflation_pct = if baseline.honest_p99_us == 0 {
        0.0
    } else {
        (hogged.honest_p99_us as f64 / baseline.honest_p99_us as f64 - 1.0) * 100.0
    };
    let (base_p99, hog_p99) = (baseline.honest_p99_us, hogged.honest_p99_us);
    gate(
        "fairness",
        hogged,
        inflation_pct <= FAIRNESS_INFLATION_PCT,
        format!(
            "hog inflated honest p99 {base_p99} -> {hog_p99} us \
             ({inflation_pct:.1}% > {FAIRNESS_INFLATION_PCT}%)"
        ),
    );
    gate(
        "fairness-liveness",
        hogged,
        hogged.honest_completed != 0 && hogged.hog_completed != 0,
        "a tenant class finished zero ops under the hog scenario".into(),
    );

    same_seed("loadcurve", on_2x, rerun);

    // --- Artifact. ----------------------------------------------------
    // Arrivals offered per second of the arrival window: a rate, like
    // the goodput beside it.
    let offered_ops = |r: &OpenLoopResult| r.offered as f64 * 1e3 / duration_ms as f64;
    BenchJson::new("loadcurve", smoke)
        .num("capacity_ops", format_args!("{capacity:.0}"))
        .section(
            "shed_on_2x",
            2,
            &[
                ("offered_ops", &format_args!("{:.0}", offered_ops(on_2x))),
                ("goodput_ops", &format_args!("{:.0}", on_2x.goodput_ops)),
                ("p50_us", &on_2x.p50_us),
                ("p99_us", &on_2x.p99_us),
                ("server_sheds", &on_2x.metric("server.sheds")),
                ("client_sheds", &on_2x.client_sheds),
                ("overload_failures", &on_2x.overload_failures),
                ("qos_peak_depth", &on_2x.qos_peak_depth),
            ],
        )
        .section(
            "shed_off_2x",
            2,
            &[
                ("offered_ops", &format_args!("{:.0}", offered_ops(off_2x))),
                ("goodput_ops", &format_args!("{:.0}", off_2x.goodput_ops)),
                ("p50_us", &off_2x.p50_us),
                ("p99_us", &off_2x.p99_us),
                ("unfinished", &off_2x.unfinished),
            ],
        )
        .section(
            "fairness",
            2,
            &[
                ("honest_p99_base_us", &baseline.honest_p99_us),
                ("honest_p99_hog_us", &hogged.honest_p99_us),
                ("inflation_pct", &format_args!("{inflation_pct:.1}")),
                ("hog_completed", &hogged.hog_completed),
                ("credit_clamps", &hogged.metric("server.credit_clamps")),
            ],
        )
        .section(
            "gates",
            2,
            &[
                ("p99_bound_us", &P99_BOUND_US),
                ("plateau_fraction", &PLATEAU_FRACTION),
                ("collapse_factor", &COLLAPSE_FACTOR),
                ("fairness_inflation_pct", &FAIRNESS_INFLATION_PCT),
            ],
        )
        .write();
    println!(
        "loadcurve: OK — capacity {capacity:.0} ops/s, shedded p99 {} us at 2x \
         (unshedded {} us), honest p99 inflation {inflation_pct:.1}%",
        on_2x.p99_us, off_2x.p99_us
    );
}
