//! `simperf` — simulator hot-path benchmark: what an event costs the
//! host, counted and timed.
//!
//! Two loops:
//!
//! - **executor**: a pool of tasks churns timers and yields (the ready
//!   queue, the wake path and the timer structure) — polls, and polls
//!   retired per wall-clock second.
//! - **rpc**: full-stack NFS READs through the simulated RPC/RDMA
//!   transport — polls per READ, and READs per wall-clock second.
//!
//! The *counts* are deterministic and are the gate: both modes check
//! them by equality against the pins below, so one poll more per op
//! fails `scripts/check.sh`. The *rates* are this box's wall clock, for
//! orientation only; nothing is gated on them except the relative cost
//! of span tracing.
//!
//! The full run writes `results/BENCH_hotpath.json` and prints a
//! summary. `--smoke` is a seconds-scale pass (used by
//! scripts/check.sh) that only prints — it never overwrites the
//! recorded full-mode numbers.

use std::time::Instant;

use sim_core::{yield_now, Payload, SimDuration, Simulation};
use workloads::{solaris_sdr, Bed};

use crate::{BenchJson, Gate};

pub(crate) fn run(smoke: bool) {
    // Tasks in the executor churn pool and timer-sleep iterations per
    // task. 1000 tasks keep the pool cache-resident so the measurement
    // tracks executor overhead, not DRAM latency.
    let (tasks, iters) = (1_000, if smoke { 20 } else { 1_000 });
    let (rpc_ops, rpc_pin) = RPC_POLLS[usize::from(!smoke)];

    let (polls, events_per_sec, exec_ms) = executor_throughput(tasks, iters);
    let rpc = rpc_throughput(rpc_ops, false);
    let (rpc_ops_per_sec, rpc_ms) = (rpc.ops_per_sec, rpc.wall_ms);
    let rpc_polls_per_op = rpc.polls as f64 / rpc_ops as f64;
    let (untraced_ops_per_sec, traced_ops_per_sec, traced_overhead_pct) = trace_overhead();

    println!("simperf ({} mode)", if smoke { "smoke" } else { "full" });
    println!("  executor: {polls} polls in {exec_ms:.1} ms  ->  {events_per_sec:.0} events/sec");
    println!(
        "  rpc:      {rpc_ops} READs, {} polls ({rpc_polls_per_op:.3}/op) in {rpc_ms:.1} ms  \
         ->  {rpc_ops_per_sec:.0} ops/sec",
        rpc.polls
    );
    println!(
        "  traced:   {traced_ops_per_sec:.0} ops/sec with span tracing on \
         ({traced_overhead_pct:.1}% overhead vs disabled)"
    );

    // The gate: counts, by equality.
    gate_count("executor.polls", polls, EXECUTOR_POLLS[usize::from(!smoke)]);
    gate_count("rpc.polls", rpc.polls, rpc_pin);
    if smoke {
        // Observability gate: what span tracing may cost the RPC path.
        gate_trace_overhead(traced_overhead_pct);
        return; // don't clobber the full-mode results file
    }
    // Both rates of the traced section's comparison come from the one
    // estimator that made it, so they can be read against each other;
    // the long run keeps its own wall time.
    BenchJson::new("hotpath", smoke)
        .section(
            "executor",
            1,
            &[
                ("tasks", &tasks),
                ("iters_per_task", &iters),
                ("polls", &polls),
                ("wall_ms", &format_args!("{exec_ms:.3}")),
                ("events_per_sec", &format_args!("{events_per_sec:.0}")),
            ],
        )
        .section(
            "rpc",
            1,
            &[
                ("ops", &rpc_ops),
                ("polls_per_op", &format_args!("{rpc_polls_per_op:.3}")),
                ("wall_ms", &format_args!("{rpc_ms:.3}")),
                ("ops_per_sec", &format_args!("{untraced_ops_per_sec:.0}")),
            ],
        )
        .section(
            "traced",
            1,
            &[
                ("ops_per_sec", &format_args!("{traced_ops_per_sec:.0}")),
                ("overhead_pct", &format_args!("{traced_overhead_pct:.1}")),
            ],
        )
        .write();
}

/// Most the RPC path may slow down with span tracing on, percent.
const TRACE_GATE_PCT: f64 = 10.0;

/// Polls of the executor loop, smoke then full. Each task is polled
/// once to start and twice per iteration (the sleep, the yield),
/// `tasks × (2·iters + 1)`, but for a sleep that is the simulation's
/// next event, which fires in place: in the full run, four of the last
/// tasks' final sleeps.
const EXECUTOR_POLLS: [u64; 2] = [41_000, 2_000_996];

/// `(READs, polls)` of the READ loop, smoke then full: what it takes
/// from its first call to its last reply. It repeats exactly;
/// the loop's first READ finds a cold connection, so the total is not a
/// multiple of the op count. One poll more per READ is +64 on the
/// first pin. (1 860 and 118 788 when every sleep registered its
/// timer.)
const RPC_POLLS: [(u64, u64); 2] = [(64, 1_088), (4_096, 69_632)];

/// Exit nonzero unless a deterministic count is exactly its pin.
fn gate_count(what: &str, got: u64, pin: u64) {
    Gate::new("simperf", &[]).require(got == pin, || {
        format!("{what} = {got}, pinned at {pin}: the schedule of this loop changed")
    });
    println!("  gate:     ok — {what} = {got}");
}

/// Measure span-tracing overhead on the RPC hot path: the median, over
/// interleaved off/on pairs, of each pair's traced-over-untraced time.
/// The two runs of a pair are milliseconds apart, so a busy spell or a
/// frequency step lands on both and cancels in their ratio; the median
/// of many ratios then drops the pairs one side of which was hit alone.
/// The order within a pair alternates: cache warmth and clock drift
/// within a burst would otherwise favour one side. Returns (untraced
/// ops/sec, traced ops/sec, overhead percent — negative when noise
/// still favoured the traced side); the rates are each side's median.
fn trace_overhead() -> (f64, f64, f64) {
    const OPS: u64 = 1_024;
    const PAIRS: usize = 100;
    let mut offs = Vec::with_capacity(PAIRS);
    let mut ons = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        if i % 2 == 0 {
            offs.push(rpc_throughput(OPS, false).wall_ms);
            ons.push(rpc_throughput(OPS, true).wall_ms);
        } else {
            ons.push(rpc_throughput(OPS, true).wall_ms);
            offs.push(rpc_throughput(OPS, false).wall_ms);
        }
    }
    let mut ratios: Vec<f64> = ons.iter().zip(&offs).map(|(on, off)| on / off).collect();
    let overhead = (median(&mut ratios) - 1.0) * 100.0;
    let rate = |ms: f64| OPS as f64 / (ms * 1e-3);
    (rate(median(&mut offs)), rate(median(&mut ons)), overhead)
}

/// The middle value (the mean of the two middle ones for an even
/// count); sorts `v`.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Gate the tracing-enabled overhead at [`TRACE_GATE_PCT`] percent. A
/// reading over the limit is measured once more, from scratch, and the
/// gate fails only when that reading is over it too: a true overhead
/// above the limit fails both, and one unlucky burst does not fail the
/// build.
fn gate_trace_overhead(overhead_pct: f64) {
    let limit = TRACE_GATE_PCT;
    let mut pct = overhead_pct;
    if pct > limit {
        println!("  gate:     tracing overhead {pct:.1}% > {limit:.0}%; re-measuring");
        pct = pct.min(trace_overhead().2);
    }
    Gate::new("simperf", &[]).require(pct <= limit, || {
        format!("tracing overhead {pct:.1}% > {limit:.0}%")
    });
    println!("  gate:     ok — tracing overhead {pct:.1}% <= {limit:.0}%");
}

/// Timer/ready-queue churn: `tasks` tasks each sleep with scattered
/// deadlines and yield, `iters` times. Returns (polls, events/sec, ms).
fn executor_throughput(tasks: u64, iters: u64) -> (u64, f64, f64) {
    let mut sim = Simulation::new(42);
    for t in 0..tasks {
        let h = sim.handle();
        sim.spawn(async move {
            for i in 0..iters {
                // Scattered short deadlines: most land near each other
                // (dense buckets), some far (sparse), like real traffic.
                let d = (t.wrapping_mul(7919) ^ i.wrapping_mul(104_729)) % 4096 + 1;
                h.sleep(SimDuration::from_nanos(d)).await;
                yield_now().await;
            }
        });
    }
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed();
    let polls = sim.polls();
    let secs = wall.as_secs_f64();
    (polls, polls as f64 / secs, secs * 1e3)
}

/// Full-stack NFS READ loop (matches the end_to_end microbench but
/// sized for a rate measurement). Only the steady-state READ loop is
/// timed — testbed construction and the prepopulating write are
/// excluded. With `traced`, span tracing is enabled for the whole run
/// so the measurement includes TraceCtx plumbing + span record append
/// costs.
fn rpc_throughput(ops: u64, traced: bool) -> RpcLoop {
    const RECORD: u32 = 131_072;
    const FILE: u64 = 8 << 20;
    let mut sim = Simulation::new(5);
    if traced {
        sim.enable_span_tracing();
    }
    let h = sim.handle();
    let profile = solaris_sdr();
    let (secs, polls) = sim.block_on(async move {
        let bed = Bed::new(
            &profile,
            rpcrdma::Design::ReadWrite,
            rpcrdma::StrategyKind::Cache,
        );
        let bed = bed.build(&h).await;
        let root = bed.server.root_handle();
        let f = bed.clients[0].nfs.create(root, "simperf").await.unwrap();
        bed.fs
            .write(
                fs_backend::FileId(f.handle().0),
                0,
                Payload::synthetic(1, FILE),
            )
            .await
            .unwrap();
        let buf = bed.clients[0].mem.alloc(RECORD as u64);
        let polls = h.metrics().counter("executor.polls");
        let polls_before = polls.get();
        let start = Instant::now();
        for i in 0..ops {
            let off = (i % (FILE / RECORD as u64)) * RECORD as u64;
            bed.clients[0]
                .nfs
                .read(f.handle(), off, RECORD, Some((&buf, 0)))
                .await
                .unwrap();
        }
        (start.elapsed().as_secs_f64(), polls.get() - polls_before)
    });
    RpcLoop {
        ops_per_sec: ops as f64 / secs,
        wall_ms: secs * 1e3,
        polls,
    }
}

/// One timed pass of the READ loop.
struct RpcLoop {
    ops_per_sec: f64,
    wall_ms: f64,
    /// Task polls between the first READ's call and the last's reply.
    polls: u64,
}
