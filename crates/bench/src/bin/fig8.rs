//! Figure 8: FileBench OLTP throughput (ops/s, bars) and client CPU
//! per operation (lines) for each registration strategy, 50–200
//! readers, 128 KB mean I/O.

use bench::axis_table;
use rpcrdma::{Design, StrategyKind};
use sim_core::SimDuration;
use workloads::scenario::{self, Capture};
use workloads::{run_oltp, solaris_sdr, Bed, OltpParams, OltpResult};

fn main() {
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
                ..Default::default()
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
