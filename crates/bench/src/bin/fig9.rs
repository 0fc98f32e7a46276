//! Figure 9: registration strategies on Linux — Register vs FMR vs
//! all-physical, IOzone read and write bandwidth plus client CPU.

use bench::{bandwidth, client_cpu, threads_table, IozonePoint};
use rpcrdma::{Design, StrategyKind};
use workloads::{linux_sdr, Bed, IoMode};

fn main() {
    for (mode, name, which, paper) in [
        (
            IoMode::Read,
            "fig9a",
            "Read",
            "Paper: all-physical yields the best read throughput (~900 MB/s).",
        ),
        (
            IoMode::Write,
            "fig9b",
            "Write",
            "Paper: all-physical degrades writes vs FMR — no local \
             scatter/gather, so each write fans into multiple read chunks \
             and hits the RDMA Read limits.",
        ),
    ] {
        let strategies = [
            StrategyKind::Dynamic,
            StrategyKind::Fmr,
            StrategyKind::AllPhysical,
        ];
        let points = strategies.map(|strategy| IozonePoint {
            bed: Bed::new(&linux_sdr(), Design::ReadWrite, strategy),
            mode,
            record: 128 << 10,
        });
        threads_table(
            name,
            &format!("Figure 9 ({which}) — registration strategies on Linux"),
            &points,
            &[
                ("Register MB/s", 0, bandwidth),
                ("FMR MB/s", 1, bandwidth),
                ("All-Phys MB/s", 2, bandwidth),
                ("Register CPU", 0, client_cpu),
                ("FMR CPU", 1, client_cpu),
                ("All-Phys CPU", 2, client_cpu),
            ],
        );
        println!("{paper}\n");
    }
}
