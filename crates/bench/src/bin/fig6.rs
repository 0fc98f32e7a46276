//! Figure 6: IOzone Write bandwidth on OpenSolaris — Read-Read vs
//! Read-Write — plus the client CPU utilization lines.

use bench::{bandwidth, client_cpu, threads_table, IozonePoint};
use rpcrdma::{Design, StrategyKind};
use workloads::{solaris_sdr, Bed, IoMode};

fn main() {
    let point = |design, mode, record| IozonePoint {
        bed: Bed::new(&solaris_sdr(), design, StrategyKind::Dynamic),
        mode,
        record,
    };
    let (rr, rw) = (Design::ReadRead, Design::ReadWrite);
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
