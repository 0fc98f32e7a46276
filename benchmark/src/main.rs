//! The repo benchmark: one workload per process, fixed work per
//! repetition, repetitions until the time budget is spent. What is
//! measured and why is in README.md beside this package.

mod alloc;
mod anatomy;
mod closed;
mod ladder;
mod meta;
mod probe;
mod stats;

use std::fmt::Write as _;
use std::future::Future;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sim_core::{Sim, SimTime, Simulation, SpanRecord};

use probe::Metric;
use stats::{best_but_one, median, percentile};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

#[derive(Clone, Copy, PartialEq)]
pub enum Workload {
    SeqRead,
    SeqWrite,
    MetaMix,
    RaidRead,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("seq_read", Workload::SeqRead),
    ("seq_write", Workload::SeqWrite),
    ("meta_mix", Workload::MetaMix),
    ("raid_read", Workload::RaidRead),
];

/// Host-timed segments per repetition: 3 to 6 ms each at full size.
/// A shared machine's disturbances come in spells of minutes, but even
/// inside one some segments this short run undisturbed, and those are
/// what the estimator looks for (README.md, "The host estimator").
pub const SEGMENTS: u64 = 500;

/// Host seconds between successive marks, the first from `start`.
pub fn segment_times(start: Instant, marks: &[Instant]) -> Vec<f64> {
    let starts = std::iter::once(&start).chain(marks);
    starts
        .zip(marks)
        .map(|(a, b)| b.duration_since(*a).as_secs_f64())
        .collect()
}

/// One repetition's inputs.
#[derive(Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// Work divisor: 1 to measure, 50 under `--smoke`, ten times that
    /// for the traced repetitions.
    pub div: u64,
    pub traced: bool,
}

/// One repetition's results.
pub struct Rep {
    pub attempted: u64,
    pub failed: u64,
    /// Operations answered correctly inside the simulated window.
    pub good: u64,
    /// Payload bytes those operations moved.
    pub payload: u64,
    /// Simulated length of the timed window.
    pub sim_ns: u64,
    /// Simulated latency of every good operation, ascending.
    pub lat: Vec<u64>,
    pub gen_late_ns_max: u64,
    pub observed: probe::Observed,
    /// Host seconds from the repetition's start to its first timed op.
    pub setup_s: f64,
    /// Host seconds of each successive `segment_ops` operations of the
    /// timed window.
    pub segments: Vec<f64>,
    pub segment_ops: u64,
    pub window: (SimTime, SimTime),
}

/// Run `body` to completion in a fresh simulation; with it, every
/// span of a traced run.
pub fn simulate<T, F, Fut>(spec: Spec, body: F) -> (T, Vec<SpanRecord>)
where
    T: 'static,
    F: FnOnce(Sim, Instant) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let started = Instant::now();
    let mut sim = Simulation::new(spec.seed);
    if spec.traced {
        sim.enable_span_tracing();
    }
    let fut = body(sim.handle(), started);
    let out = sim.block_on(fut);
    (out, sim.take_spans())
}

/// One repetition, and its spans if it was traced.
fn run_rep(spec: Spec) -> (Rep, Vec<SpanRecord>) {
    match spec.workload {
        Workload::MetaMix => simulate(spec, |sim, started| meta::run(sim, spec, started)),
        _ => simulate(spec, |sim, started| closed::run(sim, spec, started)),
    }
}

/// Host seconds of one set-up with no measurement after it.
fn set_up_only(spec: Spec) -> f64 {
    match spec.workload {
        Workload::MetaMix => simulate(spec, |sim, started| meta::set_up_only(sim, spec, started)),
        _ => simulate(spec, |sim, started| closed::set_up_only(sim, spec, started)),
    }
    .0
}

/// Everything about a repetition that simulated time or a count
/// decides, by name, as bit patterns: two repetitions of one commit
/// and seed must agree on all of it exactly.
fn exact(rep: &Rep) -> Vec<(&'static str, u64)> {
    let mut v = vec![
        ("attempted", rep.attempted),
        ("failed", rep.failed),
        ("good", rep.good),
        ("payload_bytes", rep.payload),
        ("sim_ns", rep.sim_ns),
        ("load.samples", rep.lat.len() as u64),
        ("gen_late_ns_max", rep.gen_late_ns_max),
    ];
    if !rep.lat.is_empty() {
        for (name, q) in [("p50_ns", 0.5), ("p99_ns", 0.99), ("p999_ns", 0.999)] {
            v.push((name, percentile(&rep.lat, q)));
        }
    }
    for &(name, value, _) in &rep.observed.layers {
        v.push((name, value.map_or(u64::MAX, f64::to_bits)));
    }
    v
}

/// The first field on which two repetitions differ.
fn first_difference(a: &[(&'static str, u64)], b: &[(&'static str, u64)]) -> Option<&'static str> {
    a.iter().zip(b).find(|(x, y)| x != y).map(|(x, _)| x.0)
}

struct Opts {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: nfsbench --workload seq_read|seq_write|meta_mix|raid_read \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]";

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: Workload::SeqRead,
        name: "",
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                (o.name, o.workload) = *WORKLOADS
                    .iter()
                    .find(|(n, _)| *n == value)
                    .ok_or_else(bad)?;
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.name.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(o)
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM");
    kb / 1024.0
}

/// The traced repetitions: `pairs` of one untraced and one traced run
/// at a tenth of the size, in alternating order. Returns the phase
/// anatomy of the last traced run and the tracing overhead, and the
/// field, if any, on which turning tracing on changed the simulation.
fn traced_pairs(spec: Spec, pairs: usize) -> (Vec<Metric>, Option<&'static str>) {
    let small = Spec {
        div: spec.div * 10,
        ..spec
    };
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut differs = None;
    let mut last_traced = None;
    for i in 0..pairs {
        let traced_first = i % 2 == 1;
        let [x, y] = [traced_first, !traced_first].map(|traced| run_rep(Spec { traced, ..small }));
        let ((off, _), (on, spans)) = if traced_first { (y, x) } else { (x, y) };
        off_s.extend(&off.segments);
        on_s.extend(&on.segments);
        differs = differs.or(first_difference(&exact(&off), &exact(&on)));
        last_traced = Some((on, spans));
    }
    let (on, spans) = last_traced.expect("at least one pair");
    let mean_us = on.lat.iter().sum::<u64>() as f64 / on.lat.len() as f64 / 1e3;
    let mut anatomy = anatomy::fold(&spans, on.window, on.attempted, mean_us);
    let overhead = (best_but_one(&on_s) / best_but_one(&off_s) - 1.0) * 100.0;
    anatomy.push(("host.trace_overhead_pct", Some(overhead), "%"));
    (anatomy, differs)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec {
        workload: o.workload,
        seed: o.seed,
        div: if o.smoke { 50 } else { 1 },
        traced: false,
    };
    let (min_reps, ladder_reps, pairs) = if o.smoke { (2, 3, 1) } else { (3, 11, 3) };
    let mut problems: Vec<String> = Vec::new();

    // --- The traced run's one-off parts, before the repetitions, which
    // then take whatever is left of the budget. -------------------------
    let mut once: Vec<Metric> = Vec::new();
    if o.trace {
        let slo = (o.workload == Workload::MetaMix).then(|| meta::slo_rate(spec));
        if slo == Some(None) {
            problems.push("the rate grid does not bracket the limit".into());
        }
        once.push(("load.slo_rate_ops_per_s", slo.flatten(), "ops/s"));
        let (anatomy, differs) = traced_pairs(spec, pairs);
        if let Some(field) = differs {
            problems.push(format!("tracing changed the simulation: {field}"));
        }
        once.extend(anatomy);
        once.extend(ladder::run(ladder_reps, spec.div));
    }

    // --- Repetitions. --------------------------------------------------
    let reps_started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Read after the first repetition: simulations are not fully freed
    // (reference cycles among their tasks), so the process's peak would
    // otherwise grow with however many repetitions the budget allowed.
    let mut first_rep_rss = 0.0;
    let mut first_exact = Vec::new();
    loop {
        let (mut rep, _) = run_rep(spec);
        if reps.is_empty() {
            first_rep_rss = peak_rss_mib();
            first_exact = exact(&rep);
        } else {
            if let Some(field) = first_difference(&first_exact, &exact(&rep)) {
                problems.push(format!(
                    "repetition {} differs from the first: {field}",
                    reps.len() + 1
                ));
            }
            rep.lat = Vec::new();
        }
        reps.push(rep);
        let mean = reps_started.elapsed().as_secs_f64() / reps.len() as f64;
        let spent = started.elapsed().as_secs_f64();
        if reps.len() >= min_reps && (o.smoke || spent + mean > o.seconds) {
            break;
        }
    }

    let first = &reps[0];
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    let segments: Vec<f64> = reps.iter().flat_map(|r| &r.segments).copied().collect();
    let sim_s = first.sim_ns as f64 / 1e9;
    let us = |q| percentile(&first.lat, q) as f64 / 1e3;

    let metrics: Vec<Metric> = if o.trace {
        let per_op = |n: u64| n as f64 / first.attempted as f64;
        let last = reps.last().expect("reps");
        let mut m = first.observed.layers.clone();
        m.extend([
            (
                "host.allocs_per_op",
                Some(per_op(last.observed.allocs)),
                "count",
            ),
            (
                "host.alloc_bytes_per_op",
                Some(per_op(last.observed.alloc_bytes)),
                "B",
            ),
            (
                "host.rep_spread_pct",
                Some((median(&segments) / best_but_one(&segments) - 1.0) * 100.0),
                "%",
            ),
            ("load.samples", Some(first.lat.len() as f64), "count"),
            ("load.sim_p999_us", Some(us(0.999)), "us"),
            (
                "load.gen_late_us_max",
                Some(first.gen_late_ns_max as f64 / 1e3),
                "us",
            ),
        ]);
        m.extend(once);
        m
    } else {
        // A set-up is 30 to 50 ms: too few per run, taken from the
        // repetitions alone, for the estimator to find undisturbed
        // ones. What is left of the budget goes to more of them.
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        while !o.smoke && (setups.len() < 20 || started.elapsed().as_secs_f64() < o.seconds) {
            setups.push(set_up_only(spec));
        }
        vec![
            (
                "sim_mb_per_s",
                Some(first.payload as f64 / 1e6 / sim_s),
                "MB/s",
            ),
            ("sim_ops_per_s", Some(first.good as f64 / sim_s), "ops/s"),
            ("sim_p50_us", Some(us(0.5)), "us"),
            ("sim_p99_us", Some(us(0.99)), "us"),
            (
                "host_ops_per_s",
                Some(first.segment_ops as f64 / best_but_one(&segments)),
                "ops/s",
            ),
            ("host_peak_rss_mb", Some(first_rep_rss), "MiB"),
            ("setup_s", Some(best_but_one(&setups)), "s"),
        ]
    };

    // --- Report: a table for people, then one JSON line. ---------------
    println!(
        "{} seed {}{}: {} repetitions of {} operations ({} samples), {} failed",
        o.name,
        o.seed,
        if o.smoke {
            " SMOKE (numbers not for comparison)"
        } else {
            ""
        },
        reps.len(),
        first.attempted,
        first.lat.len(),
        failed,
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        problems.is_empty()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_none_or(f64::is_finite), "{name} is not finite");
        match value {
            Some(v) => println!("  {name:44} {v:>16.4} {unit}"),
            None => println!("  {name:44} {:>16} {unit}", "n/a"),
        }
        // -1: the series does not exist on this workload (README.md).
        let v = value.unwrap_or(-1.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write");
    }
    json.push_str("}}");
    for p in &problems {
        eprintln!("INCORRECT: {p}");
    }
    if let Some(dir) = &o.out {
        let file = dir.join(format!("{}.trace{}.json", o.name, u8::from(o.trace)));
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &json));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
