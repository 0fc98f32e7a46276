//! The one run shape behind the fault and load harnesses.
//!
//! [`run`] is the only place in this crate that builds a
//! [`Simulation`], turns the span tracer on, and snapshots the metrics
//! registry and the flight ring; a harness is a closure
//! from a [`Sim`] handle to its typed outcome, and comes back wrapped
//! in a [`Run`]. Whole-run counters are read off the run's registry by
//! series name ([`Run::metric`]) instead of being copied into result
//! fields. The parts three harnesses used to carry a private copy of
//! live here once: fault arming ([`arm_link_faults`]), the
//! write → COMMIT → read-back → verify client loop
//! ([`verified_writers`]) and the bucketed telemetry table
//! ([`Timeline`]).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::ops::Deref;
use std::rc::Rc;

use ib_verbs::{Fabric, FaultConfig, NodeId, WireMsg};
use nfs::FileHandle;
use sim_core::{FlightRecord, Payload, Sim, SimDuration, SimTime, Simulation, SpanRecord};

use crate::testbed::ClientHost;

/// What a run records beyond its registry and flight ring (both always
/// captured: the registry is how counters exist, the ring is always
/// armed). The span tracer appends to a host-side buffer and moves no
/// simulated time: trace contexts cross nodes out of band, so a traced
/// run's metrics, outcome and flight ring equal the untraced run's.
#[derive(Clone, Copy, Debug, Default)]
pub struct Capture {
    /// Record hierarchical spans into [`Run::spans`] (one packed
    /// 48-byte record per span).
    pub spans: bool,
}

impl Capture {
    /// Span tracing on — what a same-seed comparison takes, so two equal
    /// [`Run`]s agree on every timed step of every op.
    pub const SPANS: Capture = Capture { spans: true };
}

/// One finished run: the harness's typed outcome plus everything the
/// simulation itself recorded. Two same-seed runs are equal as whole
/// values.
#[derive(Clone, Debug, PartialEq)]
pub struct Run<T> {
    /// What the harness computed (percentiles, goodput, corruption
    /// counts — values no registry series holds).
    pub out: T,
    /// Sorted `(name, value)` dump of the run's whole metrics registry.
    pub metrics: Vec<(String, u64)>,
    /// Flight-recorder snapshot, bounded by
    /// [`sim_core::FLIGHT_CAPACITY`].
    pub flight: Vec<FlightRecord>,
    /// Completed spans (empty unless [`Capture::spans`]).
    pub spans: Vec<SpanRecord>,
}

impl<T> Run<T> {
    /// Final value of the registry series `name`; one `*` matches any
    /// run of characters and sums every series it selects
    /// (`fabric.*.dropped` totals the per-port counters).
    ///
    /// # Panics
    /// If no series matches: a renamed or never-registered series must
    /// fail loudly, not read as zero.
    pub fn metric(&self, name: &str) -> u64 {
        let selects = |series: &str| match name.split_once('*') {
            Some((head, tail)) => series.starts_with(head) && series.ends_with(tail),
            None => series == name,
        };
        let mut hits = self.metrics.iter().filter(|(k, _)| selects(k)).peekable();
        assert!(
            hits.peek().is_some(),
            "no series named {name:?} in this run's registry"
        );
        hits.map(|(_, v)| v).sum()
    }

    /// FNV-1a over every span record, then every flight record. Labels
    /// are hashed by their bytes, not their addresses, so the value can
    /// be compared across processes and builds. Equal runs print equal
    /// fingerprints; `==` on whole runs is the check itself.
    pub fn fingerprint(&self) -> u64 {
        let words = |h, ws: &[u64]| ws.iter().fold(h, |h, w| fnv1a(h, &w.to_le_bytes()));
        let text = |h, s: &str| fnv1a(fnv1a(h, s.as_bytes()), &[0xff]);
        let spans = self.spans.iter().fold(FNV_BASIS, |h, s| {
            let h = text(text(h, s.component), s.name);
            let parent = s.parent.map_or(u64::MAX, |p| p);
            let proc_num = s.proc_num.map_or(u64::MAX, u64::from);
            let (start, end) = (s.start.as_nanos(), s.end.as_nanos());
            let ids = [s.id, parent, s.task, proc_num, s.trace_id, s.flow_from];
            words(words(h, &ids), &[start, end])
        });
        self.flight.iter().fold(spans, |h, f| {
            let h = text(text(h, f.component), f.event);
            words(h, &[f.at.as_nanos(), f.task, f.a, f.b])
        })
    }
}

/// The FNV-1a offset basis: the hash of nothing.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over `bytes`.
pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x1_0000_01b3))
}

impl<T> Deref for Run<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.out
    }
}

/// Run `body` to completion inside a fresh simulation seeded with
/// `seed` and collect what it and the simulation recorded.
pub fn run<T, Fut>(seed: u64, capture: Capture, body: impl FnOnce(Sim) -> Fut) -> Run<T>
where
    T: std::fmt::Debug + PartialEq + 'static,
    Fut: Future<Output = T> + 'static,
{
    let mut sim = Simulation::new(seed);
    if capture.spans {
        sim.enable_span_tracing();
    }
    let out = sim.block_on(body(sim.handle()));
    Run {
        out,
        metrics: sim.metrics().snapshot(),
        flight: sim.flight_records(),
        spans: sim.take_spans(),
    }
}

/// Arm the fabric's fault layer (drawing its RNG from `sim`) and set
/// the same drop probability and delivery jitter on the inbound port
/// of nodes `0..=last_node` — the server and every client, so calls
/// and replies are both at risk.
pub fn arm_link_faults(
    sim: &Sim,
    fabric: &Fabric<WireMsg>,
    last_node: u32,
    drop_probability: f64,
    delay_jitter: SimDuration,
) {
    fabric.enable_faults(sim.fork_rng());
    let cfg = FaultConfig {
        drop_probability,
        delay_jitter,
    };
    for node in 0..=last_node {
        fabric.set_link_faults(NodeId(node), cfg);
    }
}

/// One completed client op as the latency log and the timeline see it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// When the op was issued.
    pub start: SimTime,
    /// When it completed.
    pub end: SimTime,
    /// Payload bytes it moved (0 for a metadata op or a COMMIT).
    pub bytes: u64,
}

impl Completion {
    /// Issue-to-completion latency.
    pub fn latency(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The op observer of [`verified_writers`]: every WRITE and COMMIT is
/// timed into a shared latency log, with a live in-flight gauge a
/// telemetry sampler can read.
#[derive(Default)]
pub struct OpLog {
    in_flight: Cell<u64>,
    done: RefCell<Vec<Completion>>,
}

impl OpLog {
    /// Ops issued and not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.get()
    }

    /// Take every completion logged so far, in completion order.
    pub fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut self.done.borrow_mut())
    }

    async fn timed<T>(&self, sim: &Sim, bytes: u64, op: impl Future<Output = T>) -> T {
        let start = sim.now();
        self.in_flight.set(self.in_flight.get() + 1);
        let out = op.await;
        self.in_flight.set(self.in_flight.get() - 1);
        let end = sim.now();
        self.done
            .borrow_mut()
            .push(Completion { start, end, bytes });
        out
    }
}

/// `sorted[⌊(len − 1) · q⌋]` in µs; 0 for an empty sample.
pub fn percentile_us(sorted: &[SimDuration], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[((n - 1) as f64 * q) as usize].as_micros(),
    }
}

/// What each client of [`verified_writers`] writes.
#[derive(Clone, Copy, Debug)]
pub struct WriterSpec {
    /// Client `ci` works on the file `{prefix}-{ci}` under the root.
    pub prefix: &'static str,
    /// Records per client.
    pub records: u64,
    /// Record size in bytes.
    pub record: u64,
    /// Client `ci`'s record `r` carries the synthetic payload seeded
    /// `seed_base + ci · 1 000 003 + r`.
    pub seed_base: u64,
    /// COMMIT after every this many records; 0 = only the final COMMIT.
    pub commit_every: u64,
}

/// Every client streams its records as UNSTABLE WRITEs with the
/// spec's COMMIT cadence, COMMITs once more, then reads every record
/// back and compares it byte for byte with the seeded payload it wrote.
/// Returns the number of records that came back different — the
/// harnesses' consistency verdict — once every client has finished.
pub async fn verified_writers(
    sim: &Sim,
    clients: &[ClientHost],
    root: FileHandle,
    spec: WriterSpec,
    log: &Rc<OpLog>,
) -> u64 {
    let done = sim_core::sync::Semaphore::new(0);
    let corrupt = Rc::new(Cell::new(0u64));
    for (ci, client) in clients.iter().enumerate() {
        let (nfs, mem) = (client.nfs.clone(), client.mem.clone());
        let (sim, log, done, corrupt) = (sim.clone(), log.clone(), done.clone(), corrupt.clone());
        let (records, record, commit_every) = (spec.records, spec.record, spec.commit_every);
        sim.clone().spawn(async move {
            let seed = spec.seed_base + ci as u64 * 1_000_003;
            let payload = |r| Payload::synthetic(seed + r, record);
            let created = nfs.create(root, &format!("{}-{ci}", spec.prefix)).await;
            let fh = created.expect("create survives the faults").handle();
            let buf = mem.alloc(record);
            for r in 0..records {
                buf.write(0, payload(r));
                let write = nfs.write(fh, r * record, &buf, 0, record as u32, false);
                let written = log.timed(&sim, record, write).await;
                written.expect("unstable write survives the faults");
                if commit_every != 0 && (r + 1) % commit_every == 0 {
                    let committed = log.timed(&sim, 0, nfs.commit(fh)).await;
                    committed.expect("commit survives the faults");
                }
            }
            let committed = log.timed(&sim, 0, nfs.commit(fh)).await;
            committed.expect("final commit survives the faults");
            for r in 0..records {
                let read = nfs.read(fh, r * record, record as u32, None).await;
                let (data, _) = read.expect("read survives the faults");
                if !data.content_eq(&payload(r)) {
                    corrupt.set(corrupt.get() + 1);
                    sim.flight("verify", "corrupt", ci as u64, r);
                }
            }
            done.add_permits(1);
        });
    }
    for _ in clients {
        done.acquire().await.forget();
    }
    corrupt.get()
}

/// Timeline bucket width in virtual µs (also the sampler cadence).
pub const TIMELINE_BUCKET_US: u64 = 100;

/// Gauge readings taken by [`Timeline::sample`], one per bucket width.
pub type Probes = Rc<RefCell<Vec<(SimTime, Vec<u64>)>>>;

/// One [`TIMELINE_BUCKET_US`]-wide bucket of a [`Timeline`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bucket {
    /// Bucket start, virtual µs since the timeline's start.
    pub t_us: u64,
    /// Ops completing in the bucket.
    pub ops: u64,
    /// Payload goodput over the bucket, MB/s.
    pub goodput_mbps: f64,
    /// 99th-percentile latency of ops completing in the bucket, µs.
    pub p99_us: u64,
    /// The latest probe at or before the bucket's end, one value per
    /// [`Timeline::gauges`] column (level-style, so a bucket with no
    /// probe of its own carries the previous levels forward).
    pub gauges: Vec<u64>,
}

/// Streaming telemetry of one run: completions and gauge probes merged
/// into fixed-width buckets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Header of the ops column (`ops`, `completions`).
    pub ops_column: &'static str,
    /// The caller's names for the gauge columns.
    pub gauges: Vec<&'static str>,
    /// The buckets, in time order (empty when no timeline was asked
    /// for).
    pub buckets: Vec<Bucket>,
}

impl Timeline {
    /// Spawn the sampler: every bucket width, until `stop()` reads
    /// true, push one probe of `read()`. It reads shared counters only
    /// and touches nothing but its own timer, so same-seed runs sample
    /// identically.
    pub fn sample(
        sim: &Sim,
        stop: impl Fn() -> bool + 'static,
        read: impl Fn() -> Vec<u64> + 'static,
    ) -> Probes {
        let probes = Probes::default();
        let (sim2, log) = (sim.clone(), probes.clone());
        sim.spawn(async move {
            loop {
                sim2.sleep(SimDuration::from_micros(TIMELINE_BUCKET_US))
                    .await;
                if stop() {
                    break;
                }
                log.borrow_mut().push((sim2.now(), read()));
            }
        });
        probes
    }

    /// Merge completions and probes into buckets counted from `start`.
    /// A completion at exactly `k` widths lands in bucket `k`; the
    /// table runs to the last completion or probe, so empty input is
    /// one empty bucket.
    pub fn build(
        start: SimTime,
        ops_column: &'static str,
        ops: &[Completion],
        gauges: &[&'static str],
        probes: &[(SimTime, Vec<u64>)],
    ) -> Timeline {
        let index = |at: SimTime| ((at - start).as_micros() / TIMELINE_BUCKET_US) as usize;
        let ends = ops.iter().map(|c| c.end);
        let end = ends.chain(probes.iter().map(|p| p.0)).max();
        let n = end.map_or(0, index) + 1;
        let mut buckets: Vec<Bucket> = (0..n)
            .map(|i| Bucket {
                t_us: i as u64 * TIMELINE_BUCKET_US,
                gauges: vec![0; gauges.len()],
                ..Bucket::default()
            })
            .collect();
        let mut lats: Vec<Vec<SimDuration>> = vec![Vec::new(); n];
        for c in ops {
            let b = &mut buckets[index(c.end)];
            b.ops += 1;
            b.goodput_mbps += c.bytes as f64;
            lats[index(c.end)].push(c.latency());
        }
        let bucket_secs = TIMELINE_BUCKET_US as f64 / 1e6;
        let mut next_probe = probes.iter().peekable();
        let mut level: Option<&Vec<u64>> = None;
        for (i, (b, mut l)) in buckets.iter_mut().zip(lats).enumerate() {
            b.goodput_mbps = b.goodput_mbps / bucket_secs / 1e6;
            l.sort();
            if !l.is_empty() {
                b.p99_us = l[(l.len() - 1) * 99 / 100].as_micros();
            }
            while let Some((_, values)) = next_probe.next_if(|p| index(p.0) <= i) {
                level = Some(values);
            }
            if let Some(values) = level {
                b.gauges.clone_from(values);
            }
        }
        Timeline {
            ops_column,
            gauges: gauges.to_vec(),
            buckets,
        }
    }

    /// Render as CSV: `t_us`, the caller's label column if any (its
    /// header and a function of the bucket start), the ops column,
    /// `goodput_mbps`, `p99_us`, then the gauges.
    pub fn csv(&self, label: Option<(&str, &dyn Fn(u64) -> &'static str)>) -> String {
        let mut header = vec!["t_us"];
        header.extend(label.map(|(name, _)| name));
        header.extend([self.ops_column, "goodput_mbps", "p99_us"]);
        header.extend(&self.gauges);
        let mut out = header.join(",") + "\n";
        for b in &self.buckets {
            out += &format!("{},", b.t_us);
            if let Some((_, of)) = label {
                out += &format!("{},", of(b.t_us));
            }
            out += &format!("{},{:.3},{}", b.ops, b.goodput_mbps, b.p99_us);
            for g in &b.gauges {
                out += &format!(",{g}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn op(start_us: u64, end_us: u64, bytes: u64) -> Completion {
        Completion {
            start: at(start_us),
            end: at(end_us),
            bytes,
        }
    }

    #[test]
    fn a_completion_on_a_bucket_edge_lands_in_the_later_bucket() {
        let ops = [op(0, 99, 0), op(0, 100, 1000), op(150, 200, 0)];
        let t = Timeline::build(at(0), "ops", &ops, &[], &[]);
        let per_bucket: Vec<u64> = t.buckets.iter().map(|b| b.ops).collect();
        assert_eq!(per_bucket, [1, 1, 1]);
        assert_eq!(t.buckets[2].t_us, 200);
        // 1000 bytes in 100 µs is 10 MB/s.
        assert_eq!(t.buckets[1].goodput_mbps, 10.0);
        // The timeline's own start is the origin, not time zero.
        let shifted = Timeline::build(at(100), "ops", &ops[1..], &[], &[]);
        assert_eq!(shifted.buckets[0].ops, 1);
        assert_eq!(shifted.buckets.len(), 2);
    }

    #[test]
    fn bucket_p99_is_the_floor_index_into_the_sorted_latencies() {
        let p99_of = |n: u64| {
            // Latencies n, n-1, …, 1 µs, all completing in bucket 0.
            let ops: Vec<Completion> = (0..n).map(|i| op(i, n, 0)).collect();
            let t = Timeline::build(at(0), "ops", &ops, &[], &[]);
            t.buckets[(n / TIMELINE_BUCKET_US) as usize].p99_us
        };
        assert_eq!(p99_of(1), 1);
        assert_eq!(p99_of(2), 1); // (2 - 1) * 99 / 100 = index 0
        assert_eq!(p99_of(100), 99); // index 98 of 1..=100
        let sorted: Vec<SimDuration> = (1..=100).map(SimDuration::from_micros).collect();
        assert_eq!(percentile_us(&sorted, 0.99), 99);
        assert_eq!(percentile_us(&sorted[..1], 0.99), 1);
        assert_eq!(percentile_us(&[], 0.5), 0);
    }

    #[test]
    fn a_bucket_without_a_probe_inherits_the_previous_gauges() {
        let probes = vec![(at(100), vec![3, 7]), (at(420), vec![5, 9])];
        let t = Timeline::build(at(0), "ops", &[], &["depth", "sheds"], &probes);
        let levels: Vec<&[u64]> = t.buckets.iter().map(|b| &b.gauges[..]).collect();
        assert_eq!(levels, [[0, 0], [3, 7], [3, 7], [3, 7], [5, 9]]);
        let csv = t.csv(Some(("phase", &|t_us| if t_us < 200 { "a" } else { "b" })));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_us,phase,ops,goodput_mbps,p99_us,depth,sheds");
        assert_eq!(lines[2], "100,a,0,0.000,0,3,7");
        assert_eq!(lines[5], "400,b,0,0.000,0,5,9");
        assert_eq!(t.csv(None).lines().nth(5), Some("400,0,0.000,0,5,9"));
    }

    #[test]
    fn empty_input_is_one_empty_bucket() {
        let t = Timeline::build(at(50), "completions", &[], &["depth"], &[]);
        assert_eq!(t.buckets.len(), 1);
        assert_eq!(t.buckets[0].gauges, [0]);
        assert_eq!(
            t.csv(None),
            "t_us,completions,goodput_mbps,p99_us,depth\n0,0,0.000,0,0\n"
        );
    }

    /// [`Run::fingerprint`] of `tiny_run(Capture::SPANS)`.
    const TINY_FINGERPRINT: u64 = 0xef12_a706_69d1_0302;

    fn tiny_run(capture: Capture) -> Run<u64> {
        run(3, capture, |sim| async move {
            sim.metrics().counter("tiny.ticks").add(2);
            sim.metrics().counter("tiny.port1.drops").add(3);
            sim.metrics().counter("tiny.port2.drops").add(4);
            sim.flight("tiny", "tick", 1, 2);
            let _span = sim.span("tiny", "tick");
            sim.sleep(SimDuration::from_micros(1)).await;
            sim.now().as_nanos()
        })
    }

    #[test]
    fn metric_reads_a_live_series_and_sums_a_wildcard() {
        let r = tiny_run(Capture::default());
        assert_eq!(r.metric("tiny.ticks"), 2);
        assert_eq!(r.metric("tiny.*.drops"), 7);
        assert!(r.metric("executor.polls") > 0);
    }

    #[test]
    #[should_panic(expected = "no series named \"no.such.series\"")]
    fn metric_panics_on_an_unknown_series() {
        tiny_run(Capture::default()).metric("no.such.series");
    }

    #[test]
    fn capture_decides_what_a_run_carries_beyond_registry_and_flight() {
        let bare = tiny_run(Capture::default());
        assert!(bare.spans.is_empty());
        assert!(!bare.metrics.is_empty());
        assert_eq!(bare.flight.len(), 1);
        assert_eq!(*bare, 1_000, "the outcome reads through the run");

        let full = tiny_run(Capture::SPANS);
        assert_eq!(full.spans.len(), 1);
        assert_eq!((full.out, &full.metrics), (bare.out, &bare.metrics));
        assert_eq!(full, tiny_run(Capture::SPANS));
        assert_ne!(full.fingerprint(), bare.fingerprint(), "spans are hashed");
    }

    /// The fingerprint is a function of the records' contents alone —
    /// labels by their bytes — so a printed value means the same run in
    /// every process and on every build.
    #[test]
    fn fingerprint_is_pinned_by_record_contents() {
        assert_eq!(tiny_run(Capture::SPANS).fingerprint(), TINY_FINGERPRINT);
        let mut relabelled = tiny_run(Capture::SPANS);
        relabelled.flight[0].event = "tock";
        assert_ne!(relabelled.fingerprint(), TINY_FINGERPRINT);
    }
}
