//! Figure 5: IOzone Read bandwidth on OpenSolaris — Read-Read vs
//! Read-Write, 128 KB and 1 MB records, 1–8 threads, tmpfs, direct I/O.
//!
//! `--anatomy` instead runs a short traced workload per design and
//! registration strategy and emits the RPC latency anatomy: per-phase
//! p50/p99 (client marshal → registration → Send → server dispatch →
//! backend I/O → RDMA data movement → reply) plus Perfetto-loadable
//! Chrome traces in `results/trace_fig5_{rr,rw}.json`.

use bench::{bandwidth, emit, threads_table, write_result, IozonePoint};
use nfs::proto::NfsProc;
use rpcrdma::{Design, StrategyKind};
use sim_core::{aggregate_phases, chrome_trace_json, validate_json, SpanRecord};
use workloads::scenario::{self, Capture};
use workloads::{run_iozone, solaris_sdr, Bed, IoMode, IozoneParams, Table};

/// Run one short traced pass and return its spans.
fn traced_pass(design: Design, strategy: StrategyKind, mode: IoMode) -> Vec<SpanRecord> {
    let run = scenario::run(0xF00D, Capture::SPANS, |sim| async move {
        let bed = Bed::new(&solaris_sdr(), design, strategy).build(&sim).await;
        let params = IozoneParams {
            threads_per_client: 2,
            file_size: 8 * 128 * 1024,
            record: 128 * 1024,
            mode,
            ..Default::default()
        };
        run_iozone(&sim, &bed, params).await
    });
    run.spans
}

fn proc_label(proc_num: Option<u32>) -> String {
    match proc_num {
        Some(p) => NfsProc::name_of(p)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("proc{p}")),
        None => "-".into(),
    }
}

fn anatomy() {
    let mut t = Table::new(
        "Figure 5 anatomy — per-phase RPC latency (us)",
        &[
            "design",
            "strategy",
            "proc",
            "component",
            "phase",
            "count",
            "p50_us",
            "p99_us",
        ],
    );
    for (dlabel, design) in [("RR", Design::ReadRead), ("RW", Design::ReadWrite)] {
        for (slabel, strategy) in [
            ("dynamic", StrategyKind::Dynamic),
            ("cache", StrategyKind::Cache),
        ] {
            let read_spans = traced_pass(design, strategy, IoMode::Read);
            // Dynamic runs double as the Perfetto trace export (the
            // READ pass: one complete NFS READ lifecycle per design).
            if strategy == StrategyKind::Dynamic {
                let json = chrome_trace_json(&read_spans);
                validate_json(&json).expect("trace JSON must parse");
                let file = format!("trace_fig5_{}.json", dlabel.to_lowercase());
                let path = write_result(&file, &json);
                println!("wrote {path} ({} spans)", read_spans.len());
            }
            let write_spans = traced_pass(design, strategy, IoMode::Write);
            // Span ids are per-simulation, so aggregate each pass on
            // its own and merge histograms by phase key.
            let mut phases = aggregate_phases(&read_spans);
            for wp in aggregate_phases(&write_spans) {
                match phases.iter_mut().find(|p| {
                    p.proc_num == wp.proc_num && p.component == wp.component && p.name == wp.name
                }) {
                    Some(p) => p.hist.merge(&wp.hist),
                    None => phases.push(wp),
                }
            }
            phases.sort_by(|a, b| {
                (a.proc_num, a.component, a.name).cmp(&(b.proc_num, b.component, b.name))
            });
            for phase in phases {
                t.row(&[
                    dlabel.to_string(),
                    slabel.to_string(),
                    proc_label(phase.proc_num),
                    phase.component.to_string(),
                    phase.name.to_string(),
                    phase.hist.count().to_string(),
                    phase.hist.quantile(0.5).as_micros().to_string(),
                    phase.hist.quantile(0.99).as_micros().to_string(),
                ]);
            }
        }
    }
    emit("fig5_anatomy", &t);
}

fn main() {
    if std::env::args().any(|a| a == "--anatomy") {
        anatomy();
        return;
    }
    let point = |design, record| IozonePoint {
        bed: Bed::new(&solaris_sdr(), design, StrategyKind::Dynamic),
        mode: IoMode::Read,
        record,
    };
    threads_table(
        "fig5",
        "Figure 5 — IOzone Read Bandwidth on Solaris (MB/s)",
        &[
            point(Design::ReadRead, 128 << 10),
            point(Design::ReadWrite, 128 << 10),
            point(Design::ReadRead, 1 << 20),
            point(Design::ReadWrite, 1 << 20),
        ],
        &[
            ("RR-128K", 0, bandwidth),
            ("RW-128K", 1, bandwidth),
            ("RR-1M", 2, bandwidth),
            ("RW-1M", 3, bandwidth),
        ],
    );
    println!(
        "Paper headline: RR saturates ~375 MB/s; RW ~400 MB/s; RW ~47% faster at 1 thread (128K)."
    );
}
