//! OLTP scenario: the paper's motivating application case — an
//! in-memory database server whose working set leaves little room for
//! client caching, so every transaction touches the NFS server.
//!
//! Compares the registration strategies under the FileBench-style OLTP
//! mix and prints the application-level speedup the transport work
//! buys (the paper's headline: up to ~50% more throughput from the
//! buffer registration cache).
//!
//! ```text
//! cargo run --release -p bench --example oltp_comparison
//! ```

use rpcrdma::{Design, StrategyKind};
use sim_core::{SimDuration, Simulation};
use workloads::{run_oltp, solaris_sdr, Bed, OltpParams};

fn run(strategy: StrategyKind) -> workloads::OltpResult {
    let mut sim = Simulation::new(4242);
    let h = sim.handle();
    let profile = solaris_sdr();
    sim.block_on(async move {
        let bed = Bed::new(&profile, Design::ReadWrite, strategy);
        let bed = bed.build(&h).await;
        run_oltp(
            &h,
            &bed,
            OltpParams {
                readers: 100,
                writers: 10,
                io_size: 128 * 1024,
                db_size: 512 << 20,
                duration: SimDuration::from_millis(400),
            },
        )
        .await
    })
}

fn main() {
    println!("FileBench OLTP, 100 readers + 10 writers + log, 128 KiB mean I/O\n");
    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "strategy", "ops/s", "CPU us/op", "server CPU"
    );
    let mut baseline = None;
    for strategy in [
        StrategyKind::Dynamic,
        StrategyKind::Fmr,
        StrategyKind::Cache,
        StrategyKind::AllPhysical,
    ] {
        let r = run(strategy);
        let speedup = match baseline {
            None => {
                baseline = Some(r.ops_per_sec);
                String::new()
            }
            Some(b) => format!("  ({:+.0}% vs Register)", (r.ops_per_sec / b - 1.0) * 100.0),
        };
        println!(
            "{:<14} {:>10.0} {:>12.0} {:>11.1}%{speedup}",
            strategy.label(),
            r.ops_per_sec,
            r.cpu_us_per_op,
            r.server_cpu * 100.0,
        );
    }
    println!(
        "\nPaper headline: the buffer registration cache lifts OLTP throughput \
         by up to ~50%; FMR performs comparably to dynamic registration."
    );
}
