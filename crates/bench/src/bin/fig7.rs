//! Figure 7: impact of registration strategies on OpenSolaris —
//! Register vs FMR vs buffer registration cache, IOzone read and
//! write bandwidth plus client CPU.

use bench::{bandwidth, client_cpu, threads_table, IozonePoint};
use rpcrdma::{Design, StrategyKind};
use workloads::{solaris_sdr, Bed, IoMode};

fn main() {
    for (mode, name, which, paper) in [
        (
            IoMode::Read,
            "fig7a",
            "Read",
            "Paper: Register ~350, FMR ~400, Cache ~730 MB/s.",
        ),
        (
            IoMode::Write,
            "fig7b",
            "Write",
            "Paper: Cache reaches ~515 MB/s; FMR improvement modest (RDMA Read serialization).",
        ),
    ] {
        let strategies = [
            StrategyKind::Dynamic,
            StrategyKind::Fmr,
            StrategyKind::Cache,
        ];
        let points = strategies.map(|strategy| IozonePoint {
            bed: Bed::new(&solaris_sdr(), Design::ReadWrite, strategy),
            mode,
            record: 128 << 10,
        });
        threads_table(
            name,
            &format!("Figure 7 ({which}) — registration strategies on Solaris"),
            &points,
            &[
                ("Register MB/s", 0, bandwidth),
                ("FMR MB/s", 1, bandwidth),
                ("Cache MB/s", 2, bandwidth),
                ("Register CPU", 0, client_cpu),
                ("FMR CPU", 1, client_cpu),
                ("Cache CPU", 2, client_cpu),
            ],
        );
        println!("{paper}\n");
    }
}
