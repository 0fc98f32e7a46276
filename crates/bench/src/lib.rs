//! # bench — figure, ablation and gate harnesses
//!
//! One binary per table/figure in the paper's evaluation, then the
//! studies and gates that go beyond it. Everything lands in `results/`:
//!
//! | target      | reproduces / checks | writes |
//! |-------------|---------------------|--------|
//! | `table1`    | Table 1 (communication-primitive properties) | `table1.{md,csv}` |
//! | `fig5`      | IOzone Read bandwidth, Solaris, RR vs RW; `--anatomy`: per-phase RPC latency | `fig5.*`; `fig5_anatomy.*`, `trace_fig5_{rr,rw}.json` |
//! | `fig6`      | IOzone Write bandwidth + client CPU, RR vs RW | `fig6.*` |
//! | `fig7`      | Registration strategies on OpenSolaris (read/write + CPU) | `fig7a.*`, `fig7b.*` |
//! | `fig8`      | FileBench OLTP ops/s + CPU/op per strategy | `fig8.*` |
//! | `fig9`      | Registration strategies on Linux (incl. all-physical) | `fig9a.*`, `fig9b.*` |
//! | `fig10`     | Multi-client aggregate read bandwidth, 4 GB / 8 GB server | `fig10a.*`, `fig10b.*` |
//! | `ablation`  | Ablations 1–8 (`--batching`, `--write-path`, `--inline`, `--rfp` pick one; with `--smoke`, its gate) | `ablation_*.*`; gates: `BENCH_{read,write,rfp}.json` |
//! | `all`       | every target above, in sequence | — |
//! | `chaos`     | fault sweep + crash matrix; `--failover`: the replicated-cluster kill matrix | `chaos_sweep.*`, `crash_matrix.*`; `failover_matrix.*`, `trace_failover_cluster.json`, `timeline_failover.{csv,md}`, `BENCH_failover.json` |
//! | `adversary` | honest goodput and server hygiene under the attack catalog | `adversary_sweep.*` |
//! | `loadcurve` | open-loop load sweep, overload control on/off, hog fairness | `loadcurve.*`, `loadcurve_fairness.*`, `loadcurve_timeline.csv`, `BENCH_loadcurve.json` |
//! | `simperf`   | the simulator's own wall-clock speed (executor, RPC path, tracing overhead) | `BENCH_hotpath.json` (full mode only) |
//!
//! `chaos`, `adversary`, `loadcurve`, `simperf` and the flagged
//! ablations take `--smoke` for the fixed-seed gate `scripts/check.sh`
//! runs; a failed gate dumps the run's flight ring to
//! `flight_<gate>.txt` ([`Gate`]).
//!
//! Parameter points run in parallel (independent simulations on OS
//! threads) via [`sim_core::sweep::parallel_sweep`]; results are
//! deterministic per seed.

#![forbid(unsafe_code)]

use std::fmt::{Debug, Display};

use sim_core::sweep::parallel_sweep;
use sim_core::FlightRecord;
use workloads::{
    run_iozone, scenario, Bed, Capture, IoMode, IozoneParams, IozoneResult, Run, Table,
};

/// What the server did over one [`iozone_on`] run (the timed pass plus
/// the prepopulation and one CREATE per thread).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerCounts {
    /// RPC operations executed.
    pub ops: u64,
    /// Server HCA doorbell rings.
    pub doorbells: u64,
    /// Server HCA completion interrupts.
    pub interrupts: u64,
    /// Completions that rode an earlier completion's interrupt.
    pub coalesced: u64,
    /// READ bytes gathered straight from file-system pages.
    pub read_zero_copy_bytes: u64,
    /// WRITE bytes scattered straight into file-system pages.
    pub write_zero_copy_bytes: u64,
    /// WRITEs whose data rode the call's Send (`RDMA_MSGP`).
    pub msgp_writes: u64,
    /// Bytes staged through a bounce buffer.
    pub copied_bytes: u64,
    /// UNSTABLE WRITEs the NFS server applied.
    pub unstable_writes: u64,
    /// COMMITs the NFS server served.
    pub commits: u64,
}

impl ServerCounts {
    /// `count` per RPC the server executed.
    pub fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.ops.max(1) as f64
    }
}

/// One IOzone run on `bed` (an RDMA bed), in a fresh simulation: the
/// run every figure point and every single-bed ablation point is.
pub fn iozone_on(seed: u64, bed: Bed, params: IozoneParams) -> (IozoneResult, ServerCounts) {
    let run = scenario::run(seed, Capture::default(), |sim| async move {
        let bed = bed.build(&sim).await;
        run_iozone(&sim, &bed, params).await
    });
    // The one server is node 0.
    let counts = ServerCounts {
        ops: run.metric("server.ops"),
        doorbells: run.metric("hca.node0.doorbells"),
        interrupts: run.metric("hca.node0.cq_interrupts"),
        coalesced: run.metric("hca.node0.cq_coalesced"),
        read_zero_copy_bytes: run.metric("server.read.zero_copy_bytes"),
        write_zero_copy_bytes: run.metric("server.write.zero_copy_bytes"),
        msgp_writes: run.metric("server.msgp_recvs"),
        copied_bytes: run.metric("server.copied_bytes"),
        unstable_writes: run.metric("nfs.node0.unstable_writes"),
        commits: run.metric("nfs.node0.commits"),
    };
    (run.out, counts)
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

/// Run one IOzone point at `threads` threads, `file_size` bytes each.
pub fn run_iozone_point(seed: u64, p: &IozonePoint, threads: u32, file_size: u64) -> IozoneResult {
    let params = IozoneParams {
        threads_per_client: threads,
        file_size,
        record: p.record,
        mode: p.mode,
        ..Default::default()
    };
    iozone_on(seed, p.bed, params).0
}

/// One column of an axis × series figure: its header, the index of the
/// point whose runs it reads (columns showing different measures of one
/// point share its runs), and the cell read off each run.
pub type Series<'a, R> = (&'a str, usize, fn(&R) -> String);

/// A [`Series`] measure: aggregate bandwidth, MB/s.
pub fn bandwidth(r: &IozoneResult) -> String {
    workloads::mb(r.bandwidth_mb)
}

/// A [`Series`] measure: mean client CPU utilization, percent.
pub fn client_cpu(r: &IozoneResult) -> String {
    workloads::pct(r.client_cpu)
}

/// Write one figure of the paper's common shape to stdout and
/// `results/<name>.{md,csv}`: `run` every point at every value of the
/// x axis (in parallel), then a row per axis value, a column per
/// series. Returns the runs, point-major.
pub fn axis_table<X, P, R>(
    (name, title): (&str, &str),
    (axis_header, axis): (&str, &[X]),
    points: &[P],
    run: impl Fn(P, X) -> R + Sync,
    series: &[Series<R>],
) -> Vec<R>
where
    X: Copy + Display + Send,
    P: Copy + Send,
    R: Send,
{
    let runs: Vec<(P, X)> = points
        .iter()
        .flat_map(|&p| axis.iter().map(move |&x| (p, x)))
        .collect();
    let results = parallel_sweep(runs, |(p, x)| run(p, x));

    let mut headers = vec![axis_header];
    headers.extend(series.iter().map(|(column, ..)| column));
    let mut t = Table::new(title, &headers);
    for (row, x) in axis.iter().enumerate() {
        let mut cells = vec![x.to_string()];
        let cell = |(_, point, measure): &Series<R>| measure(&results[point * axis.len() + row]);
        cells.extend(series.iter().map(cell));
        t.row(&cells);
    }
    emit(name, &t);
    results
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
    let run = |p, threads| run_iozone_point(0xF00D, &p, threads, file_size_scaled());
    axis_table((name, title), ("threads", &THREADS), points, run, series);
}

/// The standard per-thread file size used by the paper (128 MB).
pub const PAPER_FILE_SIZE: u64 = 128 << 20;

/// Thread counts swept in Figures 5-9.
pub const THREADS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Scale factor for quick runs: `QUICK=1` divides file sizes by 8.
pub fn file_size_scaled() -> u64 {
    if std::env::var("QUICK").is_ok() {
        PAPER_FILE_SIZE / 8
    } else {
        PAPER_FILE_SIZE
    }
}

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

/// Write a rendered table to stdout and `results/<name>.{md,csv}`.
pub fn emit(name: &str, table: &Table) {
    let md = table.render();
    println!("{md}");
    write_result(&format!("{name}.md"), &md);
    write_result(&format!("{name}.csv"), &table.to_csv());
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

    /// The committed gate artifact comes back, byte for byte, from the
    /// numbers in it.
    #[test]
    fn bench_read_json_round_trips() {
        let json = BenchJson::new("read", true)
            .num("baseline_mb_s", format_args!("{:.3}", 173.853))
            .num("zero_copy_mb_s", format_args!("{:.3}", 249.104))
            .num("speedup", format_args!("{:.3}", 1.4328))
            .section(
                "batched",
                1,
                &[
                    ("doorbells_per_op", &format_args!("{:.4}", 0.66667)),
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
