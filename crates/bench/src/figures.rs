//! Table 1 and Figures 5–10 of the paper's evaluation, plus the
//! latency anatomy of Figure 5's traced pass.

use std::collections::btree_map::{BTreeMap, Entry};

use ib_verbs::ops::table1_rows;
use net_stack::TcpConfig;
use nfs::proto::NfsProc;
use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use sim_core::SpanRecord;
use sim_core::{aggregate_phases, chrome_trace_json, validate_json, PhaseStats, SimDuration};
use workloads::scenario::{self, Capture};
use workloads::{
    linux_ddr_raid, linux_sdr, raid_bed, run_iozone, run_multiclient, run_oltp, solaris_sdr, Bed,
    IoMode, IozoneParams, MultiClientResult, OltpParams, OltpResult, Profile, Topology,
};

use crate::report::{axis_table, mb, pct, Table};
use crate::{bandwidth, client_cpu, threads_table, write_result, IozonePoint};

/// Table 1: communication-primitive properties.
fn table1_table() -> Table {
    fn tick(b: bool) -> String {
        if b { "X" } else { "" }.to_string()
    }
    Table::new(
        "Table 1 — Communication Primitive Properties",
        &table1_rows(),
        &[
            ("Property", |(prop, ..)| prop.to_string()),
            ("Channel Primitives", |&(_, channel, _)| tick(channel)),
            ("Memory Primitives", |&(.., memory)| tick(memory)),
        ],
    )
}

pub(crate) fn table1() {
    table1_table().emit("table1");
    println!(
        "(Channel primitives pre-post receive buffers; memory primitives \
         expose a buffer via a steering tag exchanged in a rendezvous.)"
    );
}

/// A point of Figures 5 and 6: OpenSolaris, dynamic registration.
fn solaris_point(design: Design, mode: IoMode, record: u64) -> IozonePoint {
    let bed = Bed::new(&solaris_sdr(), design, StrategyKind::Dynamic);
    IozonePoint { bed, mode, record }
}

/// Figure 5: IOzone Read bandwidth on OpenSolaris — Read-Read vs
/// Read-Write, 128 KB and 1 MB records, 1–8 threads, tmpfs, direct I/O.
pub(crate) fn fig5() {
    let point = |design, record| solaris_point(design, IoMode::Read, record);
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

/// Figure 5's anatomy: a short traced READ and WRITE pass per design and
/// registration strategy, and per phase (client marshal → registration
/// → Send → server dispatch → backend I/O → RDMA data movement → reply)
/// its p50/p99, plus Perfetto-loadable Chrome traces of the Dynamic
/// READ passes in `results/trace_fig5_{rr,rw}.json`.
pub(crate) fn fig5_anatomy() {
    let passes = [
        ("RR", "dynamic", Design::ReadRead, StrategyKind::Dynamic),
        ("RR", "cache", Design::ReadRead, StrategyKind::Cache),
        ("RW", "dynamic", Design::ReadWrite, StrategyKind::Dynamic),
        ("RW", "cache", Design::ReadWrite, StrategyKind::Cache),
    ];
    let spans = parallel_sweep(passes.to_vec(), |(.., design, strategy)| {
        let read = traced_pass(design, strategy, IoMode::Read);
        (read, traced_pass(design, strategy, IoMode::Write))
    });
    let mut rows: Vec<(&str, &str, PhaseStats)> = Vec::new();
    for ((dlabel, slabel, _, strategy), (read_spans, write_spans)) in passes.into_iter().zip(spans)
    {
        // Dynamic runs double as the Perfetto trace export (the READ
        // pass: one complete NFS READ lifecycle per design).
        if strategy == StrategyKind::Dynamic {
            let json = chrome_trace_json(&read_spans);
            validate_json(&json).expect("trace JSON must parse");
            let file = format!("trace_fig5_{}.json", dlabel.to_lowercase());
            let path = write_result(&file, &json);
            println!("wrote {path} ({} spans)", read_spans.len());
        }
        // Span ids are per-simulation, so aggregate each pass on its
        // own and merge histograms by phase key, in key order.
        let mut phases: BTreeMap<_, PhaseStats> = BTreeMap::new();
        for phase in aggregate_phases(&read_spans)
            .into_iter()
            .chain(aggregate_phases(&write_spans))
        {
            match phases.entry((phase.proc_num, phase.component, phase.name)) {
                Entry::Occupied(mut merged) => merged.get_mut().hist.merge(&phase.hist),
                Entry::Vacant(slot) => _ = slot.insert(phase),
            }
        }
        rows.extend(phases.into_values().map(|phase| (dlabel, slabel, phase)));
    }
    fn micros(q: f64, (.., p): &(&str, &str, PhaseStats)) -> String {
        p.hist.quantile(q).as_micros().to_string()
    }
    Table::new(
        "Figure 5 anatomy — per-phase RPC latency (us)",
        &rows,
        &[
            ("design", |(d, ..)| d.to_string()),
            ("strategy", |(_, s, _)| s.to_string()),
            ("proc", |(.., p)| proc_label(p.proc_num)),
            ("component", |(.., p)| p.component.to_string()),
            ("phase", |(.., p)| p.name.to_string()),
            ("count", |(.., p)| p.hist.count().to_string()),
            ("p50_us", |r| micros(0.5, r)),
            ("p99_us", |r| micros(0.99, r)),
        ],
    )
    .emit("fig5_anatomy");
}

/// Figure 6: IOzone Write bandwidth on OpenSolaris — Read-Read vs
/// Read-Write — plus the client CPU utilization lines.
pub(crate) fn fig6() {
    let (point, rr, rw) = (solaris_point, Design::ReadRead, Design::ReadWrite);
    // CPU lines come from the read path (as in the paper's Figure 6,
    // which plots the READ-procedure client CPU for both designs).
    let points = [
        point(rr, IoMode::Write, 128 << 10),
        point(rw, IoMode::Write, 128 << 10),
        point(rr, IoMode::Write, 1 << 20),
        point(rw, IoMode::Write, 1 << 20),
        point(rr, IoMode::Read, 128 << 10),
        point(rw, IoMode::Read, 128 << 10),
    ];
    threads_table(
        "fig6",
        "Figure 6 — IOzone Write Bandwidth on Solaris (MB/s) + client CPU",
        &points,
        &[
            ("RR-128K", 0, bandwidth),
            ("RW-128K", 1, bandwidth),
            ("RR-1M", 2, bandwidth),
            ("RW-1M", 3, bandwidth),
            ("RR CPU", 4, client_cpu),
            ("RW CPU", 5, client_cpu),
        ],
    );
    println!(
        "Paper headline: write bandwidths similar for RR/RW (RDMA Read path \
         is shared); client CPU ~4%→24% for RR vs flat 2–5% for RW."
    );
}

/// Figures 7 and 9: the Read-Write design on `os` under dynamic
/// registration, FMR and a third strategy, IOzone read (a) and write
/// (b) bandwidth plus client CPU at 128 KB records.
fn strategies_figure(
    (fig, os, profile): (u32, &str, Profile),
    (third, label): (StrategyKind, &str),
    papers: [&str; 2],
) {
    let (third_mb, third_cpu) = (format!("{label} MB/s"), format!("{label} CPU"));
    let modes = [(IoMode::Read, "Read", 'a'), (IoMode::Write, "Write", 'b')];
    for ((mode, which, part), paper) in modes.into_iter().zip(papers) {
        let strategies = [StrategyKind::Dynamic, StrategyKind::Fmr, third];
        let points = strategies.map(|strategy| IozonePoint {
            bed: Bed::new(&profile, Design::ReadWrite, strategy),
            mode,
            record: 128 << 10,
        });
        threads_table(
            &format!("fig{fig}{part}"),
            &format!("Figure {fig} ({which}) — registration strategies on {os}"),
            &points,
            &[
                ("Register MB/s", 0, bandwidth),
                ("FMR MB/s", 1, bandwidth),
                (&third_mb, 2, bandwidth),
                ("Register CPU", 0, client_cpu),
                ("FMR CPU", 1, client_cpu),
                (&third_cpu, 2, client_cpu),
            ],
        );
        println!("{paper}\n");
    }
}

/// Figure 7: impact of registration strategies on OpenSolaris —
/// Register vs FMR vs buffer registration cache.
pub(crate) fn fig7() {
    strategies_figure(
        (7, "Solaris", solaris_sdr()),
        (StrategyKind::Cache, "Cache"),
        [
            "Paper: Register ~350, FMR ~400, Cache ~730 MB/s.",
            "Paper: Cache reaches ~515 MB/s; FMR improvement modest (RDMA Read serialization).",
        ],
    );
}

/// Figure 8: FileBench OLTP throughput (ops/s, bars) and client CPU per
/// operation (lines) for each registration strategy, 50–200 readers,
/// 128 KB mean I/O.
pub(crate) fn fig8() {
    let run = |strategy, readers| {
        let run = scenario::run(0xB0B, Capture::default(), |sim| async move {
            let bed = Bed::new(&solaris_sdr(), Design::ReadWrite, strategy);
            let bed = bed.build(&sim).await;
            let params = OltpParams {
                readers,
                writers: 10,
                io_size: 128 * 1024,
                db_size: 512 << 20,
                duration: SimDuration::from_millis(400),
            };
            run_oltp(&sim, &bed, params).await
        });
        run.out
    };
    let ops: fn(&OltpResult) -> String = |r| format!("{:.0}", r.ops_per_sec);
    let cpu: fn(&OltpResult) -> String = |r| format!("{:.0}", r.cpu_us_per_op);
    axis_table(
        (
            "fig8",
            "Figure 8 — FileBench OLTP (ops/s and client CPU us/op)",
        ),
        ("readers", &[50u32, 100, 150, 200]),
        &[
            StrategyKind::Dynamic,
            StrategyKind::Fmr,
            StrategyKind::Cache,
        ],
        run,
        &[
            ("Register ops/s", 0, ops),
            ("FMR ops/s", 1, ops),
            ("Cache ops/s", 2, ops),
            ("Register us/op", 0, cpu),
            ("FMR us/op", 1, cpu),
            ("Cache us/op", 2, cpu),
        ],
    );
    println!(
        "Paper headline: the registration cache improves throughput up to \
         ~50% over dynamic registration; FMR performs comparably to dynamic."
    );
}

/// Figure 9: registration strategies on Linux — Register vs FMR vs
/// all-physical.
pub(crate) fn fig9() {
    strategies_figure(
        (9, "Linux", linux_sdr()),
        (StrategyKind::AllPhysical, "All-Phys"),
        [
            "Paper: all-physical yields the best read throughput (~900 MB/s).",
            "Paper: all-physical degrades writes vs FMR — no local \
             scatter/gather, so each write fans into multiple read chunks \
             and hits the RDMA Read limits.",
        ],
    );
}

/// Figure 10: multi-client aggregate IOzone read bandwidth against the
/// RAID-backed server — RDMA vs IPoIB vs GigE, server RAM 4 GB (a) and
/// 8 GB (b), 1 GB file per client, 1 MB records.
///
/// GigE points use a scaled file size (256 MB/client): at 1448-byte
/// segments a full-size GigE run is millions of simulation events for
/// an identical (wire-saturated) result. Noted in EXPERIMENTS.md.
pub(crate) fn fig10() {
    let profile = linux_ddr_raid();
    let (full_file, gige_file): (u64, u64) = (1 << 30, 256 << 20);
    for (ram, name, paper) in [
        (
            4 << 30,
            "fig10a",
            "Paper (4 GB): RDMA peaks 883 MB/s at 3 clients then falls to \
             disk rates; IPoIB peaks ~326; GigE saturates ~107 immediately.",
        ),
        (
            8 << 30,
            "fig10b",
            "Paper (8 GB): RDMA holds >900 MB/s through 7 clients; IPoIB \
             saturates ~360 MB/s.",
        ),
    ] {
        let run = |(topology, file_size), clients| {
            run_multiclient(
                0xCAFE,
                &raid_bed(&profile, topology, clients, ram),
                file_size,
            )
        };
        let read_mb: fn(&MultiClientResult) -> String = |r| mb(r.read_bandwidth_mb);
        let title = format!(
            "Figure 10 — multi-client IOzone read bandwidth, server RAM {} GB",
            ram >> 30
        );
        axis_table(
            (name, &title),
            ("clients", &[1usize, 2, 3, 4, 5, 6, 7, 8]),
            &[
                (Topology::Rdma, full_file),
                (Topology::Tcp(TcpConfig::ipoib()), full_file),
                (Topology::Tcp(TcpConfig::gige()), gige_file),
            ],
            run,
            &[
                ("RDMA MB/s", 0, read_mb),
                ("IPoIB MB/s", 1, read_mb),
                ("GigE MB/s", 2, read_mb),
                ("RDMA cache-hit", 0, |r| pct(r.cache_hit_rate)),
            ],
        );
        println!("{paper}\n");
    }
}

#[cfg(test)]
mod tests {
    /// The table writer still produces the committed Table 1, byte for
    /// byte.
    #[test]
    fn table1_is_the_committed_artifact() {
        let t = super::table1_table();
        let recorded = |ext| {
            let dir = env!("CARGO_MANIFEST_DIR");
            std::fs::read_to_string(format!("{dir}/../../results/table1.{ext}")).unwrap()
        };
        assert_eq!(t.render(), recorded("md"));
        assert_eq!(t.to_csv(), recorded("csv"));
    }
}
