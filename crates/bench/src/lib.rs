//! # bench — figure, ablation and gate harnesses
//!
//! One binary, `bench`, runs any experiment of one catalogue
//! ([`CATALOGUE`]) by name: `cargo run --release -p bench -- <name>...
//! [--smoke]`. The figures and Table 1 reproduce the paper's
//! evaluation; the rest are studies and gates that go beyond it.
//! Everything lands in `results/`:
//!
//! | name          | reproduces / checks | writes |
//! |---------------|---------------------|--------|
//! | `table1`      | Table 1 (communication-primitive properties) | `table1.{md,csv}` |
//! | `fig5`        | IOzone Read bandwidth, Solaris, RR vs RW | `fig5.*` |
//! | `fig6`        | IOzone Write bandwidth + client CPU, RR vs RW | `fig6.*` |
//! | `fig7`        | Registration strategies on OpenSolaris (read/write + CPU) | `fig7a.*`, `fig7b.*` |
//! | `fig8`        | FileBench OLTP ops/s + CPU/op per strategy | `fig8.*` |
//! | `fig9`        | Registration strategies on Linux (incl. all-physical) | `fig9a.*`, `fig9b.*` |
//! | `fig10`       | Multi-client aggregate read bandwidth, 4 GB / 8 GB server | `fig10a.*`, `fig10b.*` |
//! | `ablation-zerocopy`, `-ord`, `-inline`, `-credits`, `-msgp`, `-batching`, `-write` | Ablations 1–7 | `ablation_*.*`; gates: `BENCH_{read,write}.json` |
//! | `fig5-anatomy` | per-phase RPC latency of a traced pass | `fig5_anatomy.*`, `trace_fig5_{rr,rw}.json` |
//! | `all`         | Table 1, the figures but `fig5-anatomy`, the ablations, in that order | — |
//! | `chaos`       | fault sweep + crash matrix | `chaos_sweep.*`, `crash_matrix.*` |
//! | `failover`    | the replicated-cluster kill matrix | `failover_matrix.*`, `trace_failover_cluster.json`, `timeline_failover.{csv,md}`, `BENCH_failover.json` |
//! | `adversary`   | honest goodput and server hygiene under the attack catalog | `adversary_sweep.*` |
//! | `loadcurve`   | open-loop load sweep, overload control on/off, hog fairness | `loadcurve.*`, `loadcurve_fairness.*`, `loadcurve_timeline.csv`, `BENCH_loadcurve.json` |
//! | `simperf`     | the simulator's own wall-clock speed (executor, RPC path, tracing overhead) | `BENCH_hotpath.json` (full mode only) |
//!
//! `ablation-inline`, `ablation-batching`, `ablation-write`, `chaos`,
//! `failover`, `adversary`, `loadcurve` and `simperf` take `--smoke` for
//! the fixed-seed gate `scripts/check.sh` runs; a failed gate dumps the
//! run's flight ring to `flight_<gate>.txt` ([`Gate`]). An unknown name
//! or flag, or `--smoke` on an experiment without a gate, runs nothing
//! ([`parse`]).
//!
//! Parameter points run in parallel (independent simulations on OS
//! threads) via [`sim_core::sweep::parallel_sweep`]; results are
//! deterministic per seed.

#![forbid(unsafe_code)]

mod ablation;
mod adversary;
mod chaos;
mod failover;
mod figures;
mod loadcurve;
pub mod report;
mod simperf;

use std::fmt::{Debug, Display};

use sim_core::FlightRecord;
use workloads::{run_iozone, scenario, Bed, Capture, IoMode, IozoneParams, IozoneResult, Run};

use report::{axis_table, mb, pct, Series};

/// One experiment: its name, its fixed-seed gate (`--smoke`) if it has
/// one, and its full run.
pub type Entry = (&'static str, Option<fn()>, fn());

/// Every experiment `bench` runs, by name. `all` runs the first
/// fourteen: Table 1, the figures and the full ablations, what no gate
/// writes.
pub const CATALOGUE: &[Entry] = &[
    ("table1", None, figures::table1),
    ("fig5", None, figures::fig5),
    ("fig6", None, figures::fig6),
    ("fig7", None, figures::fig7),
    ("fig8", None, figures::fig8),
    ("fig9", None, figures::fig9),
    ("fig10", None, figures::fig10),
    ("ablation-zerocopy", None, ablation::zero_copy),
    ("ablation-ord", None, ablation::ord),
    (
        "ablation-inline",
        Some(ablation::inline_smoke),
        ablation::inline,
    ),
    ("ablation-credits", None, ablation::credits),
    ("ablation-msgp", None, ablation::msgp),
    (
        "ablation-batching",
        Some(ablation::batching_smoke),
        ablation::batching,
    ),
    (
        "ablation-write",
        Some(ablation::write_smoke),
        ablation::write,
    ),
    ("fig5-anatomy", None, figures::fig5_anatomy),
    ("chaos", Some(chaos::smoke), chaos::full),
    ("failover", Some(|| failover::run(true)), || {
        failover::run(false)
    }),
    ("adversary", Some(adversary::smoke), adversary::full),
    ("loadcurve", Some(|| loadcurve::run(true)), || {
        loadcurve::run(false)
    }),
    ("simperf", Some(|| simperf::run(true)), || {
        simperf::run(false)
    }),
    ("all", None, all),
];

/// How many of the catalogue's entries `all` runs.
const ALL: usize = 14;

fn all() {
    for (name, _, full) in &CATALOGUE[..ALL] {
        println!("==== {name} ====");
        full();
    }
}

/// The catalogue entry called `name`.
fn entry(name: &str) -> Option<&'static Entry> {
    CATALOGUE.iter().find(|e| e.0 == name)
}

/// The runs a command line asks for, in order: each named experiment's
/// gate with `--smoke`, its full run without.
/// Refused — nothing runs — on an unknown name or flag, on no name, and
/// on `--smoke` for an experiment without a gate.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Vec<fn()>, String> {
    let (mut names, mut smoke) = (Vec::new(), false);
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => match entry(name) {
                Some(entry) => names.push(entry),
                None => return Err(format!("unknown experiment `{name}`")),
            },
        }
    }
    if names.is_empty() {
        return Err("name at least one experiment".into());
    }
    let pick = |&(name, gate, full): &Entry| match (smoke, gate) {
        (false, _) => Ok(full),
        (true, Some(gate)) => Ok(gate),
        (true, None) => Err(format!("`{name}` has no --smoke gate")),
    };
    names.into_iter().map(pick).collect()
}

/// The usage line and the catalogue, one name a line, `[--smoke]` after
/// each that has a gate.
pub fn usage() -> String {
    let mut out = String::from("usage: bench <name>... [--smoke]\n");
    for (name, gate, _) in CATALOGUE {
        let flag = if gate.is_some() { " [--smoke]" } else { "" };
        out.push_str(&format!("  {name}{flag}\n"));
    }
    out
}

/// One IOzone run on `bed` (an RDMA bed), in a fresh simulation: the
/// run every figure point and every single-bed ablation point is. The
/// one server is node 0: its counts are `server.*`, `hca.node0.*` and
/// `nfs.node0.*`, over the timed pass plus the prepopulation and one
/// CREATE per thread.
pub fn iozone_on(seed: u64, bed: Bed, params: IozoneParams) -> Run<IozoneResult> {
    scenario::run(seed, Capture::default(), |sim| async move {
        let bed = bed.build(&sim).await;
        run_iozone(&sim, &bed, params).await
    })
}

/// A whole-run count of `run` per RPC its server executed.
pub(crate) fn per_op<T>(run: &Run<T>, series: &str) -> f64 {
    run.metric(series) as f64 / run.metric("server.ops").max(1) as f64
}

/// The testbed and access pattern behind one series of a figure.
#[derive(Clone, Copy, Debug)]
pub struct IozonePoint {
    /// The testbed.
    pub bed: Bed,
    /// Read or write.
    pub mode: IoMode,
    /// Record size.
    pub record: u64,
}

/// An IOzone pass: `threads` threads, `file_size` bytes each, in
/// `record`-byte records.
pub(crate) fn iozone_params(
    mode: IoMode,
    threads: u32,
    record: u64,
    file_size: u64,
) -> IozoneParams {
    IozoneParams {
        threads_per_client: threads,
        file_size,
        record,
        mode,
        ..Default::default()
    }
}

/// A [`Series`] measure: aggregate bandwidth, MB/s.
pub fn bandwidth(r: &IozoneResult) -> String {
    mb(r.bandwidth_mb)
}

/// A [`Series`] measure: mean client CPU utilization, percent.
pub fn client_cpu(r: &IozoneResult) -> String {
    pct(r.client_cpu)
}

/// Figures 5, 6, 7 and 9: [`axis_table`] over the thread counts in
/// [`THREADS`], every run an IOzone pass on seed `0xF00D` at the paper's
/// file size.
pub fn threads_table(
    name: &str,
    title: &str,
    points: &[IozonePoint],
    series: &[Series<IozoneResult>],
) {
    let run = |p: IozonePoint, threads| {
        let params = iozone_params(p.mode, threads, p.record, PAPER_FILE_SIZE);
        iozone_on(0xF00D, p.bed, params).out
    };
    axis_table((name, title), ("threads", &THREADS), points, run, series);
}

/// The standard per-thread file size used by the paper (128 MB).
pub const PAPER_FILE_SIZE: u64 = 128 << 20;

/// Thread counts swept in Figures 5-9.
pub const THREADS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Write `results/<name>` — the one place an artifact reaches the disk.
/// Returns the path written, for the caller's own progress line.
///
/// # Panics
/// If the file cannot be written: a harness that reports success has
/// left its artifact behind.
pub fn write_result(name: &str, contents: &str) -> String {
    let dir = std::path::Path::new("results");
    let path = dir.join(name);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        panic!("could not write {}: {e}", path.display());
    }
    path.display().to_string()
}

/// One harness gate: a tag naming the point under test and the flight
/// ring of the run it judges. The first requirement that does not hold
/// dumps the ring to `results/flight_<tag>.txt` (the last
/// [`sim_core::FLIGHT_CAPACITY`] things the protocol machinery did,
/// sim-time stamped), prints `FAIL <tag>: <why>` and exits 1.
pub struct Gate<'a> {
    tag: String,
    flight: &'a [FlightRecord],
}

impl<'a> Gate<'a> {
    /// A gate on the run that recorded `flight`.
    pub fn new(tag: impl Into<String>, flight: &'a [FlightRecord]) -> Gate<'a> {
        let tag = tag.into();
        Gate { tag, flight }
    }

    /// Pass if `holds`; otherwise fail the process with `why()`.
    pub fn require(&self, holds: bool, why: impl FnOnce() -> String) -> &Self {
        if holds {
            return self;
        }
        if !self.flight.is_empty() {
            let file: String = self.tag.to_ascii_lowercase().replace(
                |c: char| !(c.is_ascii_alphanumeric() || c == '+' || c == '-'),
                "_",
            );
            let dump = sim_core::format_flight(self.flight);
            println!(
                "  wrote {}",
                write_result(&format!("flight_{file}.txt"), &dump)
            );
        }
        eprintln!("FAIL {}: {}", self.tag, why());
        std::process::exit(1);
    }
}

/// The determinism gate: two runs of one seed and one scenario must be
/// equal as whole runs — spans, flight ring, metrics registry and typed
/// outcome. A failure names the first record where the runs part.
pub fn same_seed<T: Debug + PartialEq>(tag: &str, a: &Run<T>, b: &Run<T>) {
    Gate::new(tag, &b.flight)
        .require(a.spans == b.spans, || {
            first_divergence("span", &a.spans, &b.spans)
        })
        .require(a.flight == b.flight, || {
            first_divergence("flight record", &a.flight, &b.flight)
        })
        .require(a.metrics == b.metrics, || {
            "same seed, different metrics snapshots".into()
        })
        .require(a.out == b.out, || {
            format!("same seed, different outcomes:\n{:?}\n{:?}", a.out, b.out)
        });
}

/// The index and both sides of the first record at which two unequal
/// streams differ (`None` where one stream has already ended).
fn first_divergence<R: Debug + PartialEq>(what: &str, a: &[R], b: &[R]) -> String {
    let i = (0..=a.len().max(b.len()))
        .find(|&i| a.get(i) != b.get(i))
        .expect("the streams differ");
    let (ra, rb) = (a.get(i), b.get(i));
    format!("same seed, runs part at {what} #{i}:\n  {ra:?}\n  {rb:?}")
}

/// A `results/BENCH_<name>.json` artifact: a `"bench"` tag, a `"mode"`
/// tag, then numbers — top-level or grouped in at most one level of
/// sections. Values are whatever `Display` prints, so the caller fixes
/// the digits (`format_args!("{x:.3}")`).
pub struct BenchJson {
    name: String,
    entries: Vec<String>,
}

impl BenchJson {
    /// Start the artifact `BENCH_<name>.json`; `smoke` picks the mode
    /// tag.
    pub fn new(name: &str, smoke: bool) -> BenchJson {
        let mode = if smoke { "smoke" } else { "full" };
        BenchJson {
            name: name.to_string(),
            entries: vec![
                format!("  \"bench\": \"{name}\""),
                format!("  \"mode\": \"{mode}\""),
            ],
        }
    }

    /// A top-level number.
    pub fn num(mut self, key: &str, value: impl Display) -> Self {
        self.entries.push(format!("  \"{key}\": {value}"));
        self
    }

    /// A section of numbers, `per_line` to a line (0: the whole section
    /// on one line).
    pub fn section(mut self, key: &str, per_line: usize, fields: &[(&str, &dyn Display)]) -> Self {
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        self.entries.push(match per_line {
            0 => format!("  \"{key}\": {{ {} }}", fields.join(", ")),
            n => {
                let lines: Vec<String> = fields.chunks(n).map(|l| l.join(", ")).collect();
                format!("  \"{key}\": {{\n    {}\n  }}", lines.join(",\n    "))
            }
        });
        self
    }

    /// The document, checked to be JSON.
    pub fn render(&self) -> String {
        let json = format!("{{\n{}\n}}\n", self.entries.join(",\n"));
        if let Err(e) = sim_core::validate_json(&json) {
            panic!("BENCH_{}.json is not JSON ({e}):\n{json}", self.name);
        }
        json
    }

    /// Write `results/BENCH_<name>.json`.
    pub fn write(self) {
        let file = format!("BENCH_{}.json", self.name);
        println!("  wrote {}", write_result(&file, &self.render()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_command_line_resolves_to_gates_or_full_runs() {
        assert_eq!(parse(args("chaos failover --smoke")).unwrap().len(), 2);
        assert_eq!(parse(args("fig5 ablation-msgp")).unwrap().len(), 2);
        assert_eq!(parse(args("all")).unwrap().len(), 1);
    }

    #[test]
    fn an_unknown_name_is_refused() {
        let refused = parse(args("ablation-batchng --smoke")).unwrap_err();
        assert_eq!(refused, "unknown experiment `ablation-batchng`");
    }

    #[test]
    fn an_unknown_flag_is_refused() {
        let refused = parse(args("chaos --smoke --failovr")).unwrap_err();
        assert_eq!(refused, "unknown flag `--failovr`");
    }

    #[test]
    fn smoke_without_a_gate_is_refused() {
        assert_eq!(
            parse(args("fig5 --smoke")).unwrap_err(),
            "`fig5` has no --smoke gate"
        );
        // One gateless name refuses the whole line.
        assert!(parse(args("chaos all --smoke")).is_err());
        assert!(parse(args("")).is_err());
    }

    #[test]
    fn the_catalogue_names_each_experiment_once() {
        for (i, (name, ..)) in CATALOGUE.iter().enumerate() {
            let later = &CATALOGUE[i + 1..];
            assert!(later.iter().all(|e| e.0 != *name), "{name} twice");
        }
        // `all` runs Table 1, the figures and every ablation.
        let all: Vec<&str> = CATALOGUE[..ALL].iter().map(|e| e.0).collect();
        let figures = ["table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"];
        assert_eq!(all[..7], figures);
        assert!(all[7..].iter().all(|name| name.starts_with("ablation-")));
        assert!(CATALOGUE[ALL..]
            .iter()
            .all(|e| !e.0.starts_with("ablation-")));
        let usage = usage();
        assert!(usage.contains("  chaos [--smoke]\n") && usage.contains("  fig5\n"));
    }

    /// Every `bench` command line `scripts/check.sh` runs, as its
    /// arguments.
    fn check_sh_lines() -> Vec<Vec<String>> {
        let script = format!("{}/../../scripts/check.sh", env!("CARGO_MANIFEST_DIR"));
        let script = std::fs::read_to_string(script).unwrap();
        let lines = script.lines().filter_map(|l| {
            let (_, rest) = l.trim().split_once("cargo run --release -p bench -- ")?;
            let rest = rest.split(['>', '|', ';', '&']).next().unwrap_or("");
            Some(args(rest))
        });
        lines.collect()
    }

    /// CI runs every gate, and names nothing the catalogue lacks.
    #[test]
    fn check_sh_runs_every_gate() {
        let lines = check_sh_lines();
        assert!(!lines.is_empty(), "check.sh runs no bench command");
        for line in &lines {
            assert!(
                parse(line.clone()).is_ok(),
                "check.sh: bench {line:?} is refused"
            );
        }
        for (name, ..) in CATALOGUE.iter().filter(|e| e.1.is_some()) {
            let gated =
                |l: &&Vec<String>| l.contains(&"--smoke".into()) && l.contains(&name.to_string());
            assert!(
                lines.iter().any(|l| gated(&l)),
                "check.sh never runs `{name} --smoke`"
            );
        }
    }

    /// The committed gate artifact comes back, byte for byte, from the
    /// numbers in it.
    #[test]
    fn bench_read_json_round_trips() {
        let json = BenchJson::new("read", true)
            .num("baseline_mb_s", format_args!("{:.3}", 173.853))
            .num("zero_copy_mb_s", format_args!("{:.3}", 249.104))
            .num("speedup", format_args!("{:.3}", 1.4328))
            .section(
                "coalesced",
                1,
                &[
                    ("doorbells_per_op", &format_args!("{:.4}", 1.99976)),
                    ("interrupts_per_op", &format_args!("{:.4}", 0.5002)),
                    ("coalesced_per_op", &format_args!("{:.4}", 0.9998)),
                ],
            )
            .render();
        let recorded = format!(
            "{}/../../results/BENCH_read.json",
            env!("CARGO_MANIFEST_DIR")
        );
        assert_eq!(json, std::fs::read_to_string(recorded).unwrap());
    }

    /// The three layouts the six artifacts use: a key per line, two
    /// keys per line, a section per line.
    #[test]
    fn every_layout_is_json() {
        let (int, float) = (7u64, 0.9f64);
        let json = BenchJson::new("shapes", false)
            .num("capacity_ops", format_args!("{:.0}", 45350.4))
            .section("one", 1, &[("a", &int), ("b", &float)])
            .section("two", 2, &[("a", &int), ("b", &float), ("c", &int)])
            .section(
                "flat",
                0,
                &[("a", &int), ("b", &format_args!("{:.4}", 1.0))],
            )
            .render();
        let expected = "{\n  \"bench\": \"shapes\",\n  \"mode\": \"full\",\n  \
            \"capacity_ops\": 45350,\n  \
            \"one\": {\n    \"a\": 7,\n    \"b\": 0.9\n  },\n  \
            \"two\": {\n    \"a\": 7, \"b\": 0.9,\n    \"c\": 7\n  },\n  \
            \"flat\": { \"a\": 7, \"b\": 1.0000 }\n}\n";
        assert_eq!(json, expected);
    }

    #[test]
    fn a_divergence_names_the_first_record_that_differs() {
        let msg = first_divergence("span", &[1, 2, 3], &[1, 2, 4, 5]);
        assert_eq!(
            msg,
            "same seed, runs part at span #2:\n  Some(3)\n  Some(4)"
        );
        let msg = first_divergence("flight record", &[7], &[7, 8]);
        assert!(
            msg.ends_with("flight record #1:\n  None\n  Some(8)"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "is not JSON")]
    fn a_value_that_is_not_a_number_is_refused() {
        BenchJson::new("nan", true).num("x", f64::NAN).render();
    }
}
