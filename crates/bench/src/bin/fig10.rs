//! Figure 10: multi-client aggregate IOzone read bandwidth against the
//! RAID-backed server — RDMA vs IPoIB vs GigE, server RAM 4 GB (a) and
//! 8 GB (b), 1 GB file per client, 1 MB records.
//!
//! GigE points use a scaled file size (256 MB/client): at 1448-byte
//! segments a full-size GigE run is millions of simulation events for
//! an identical (wire-saturated) result. Noted in EXPERIMENTS.md.

use bench::axis_table;
use net_stack::TcpConfig;
use workloads::{
    linux_ddr_raid, mb, pct, raid_bed, run_multiclient, MultiClientParams, MultiClientResult,
    Topology,
};

fn main() {
    let profile = linux_ddr_raid();
    let quick = std::env::var("QUICK").is_ok();
    let full_file: u64 = if quick { 256 << 20 } else { 1 << 30 };
    let gige_file: u64 = 256 << 20;
    let ram_a: u64 = if quick { 1 << 30 } else { 4 << 30 };
    let ram_b: u64 = if quick { 2 << 30 } else { 8 << 30 };

    for (ram, name, paper) in [
        (
            ram_a,
            "fig10a",
            "Paper (4 GB): RDMA peaks 883 MB/s at 3 clients then falls to \
             disk rates; IPoIB peaks ~326; GigE saturates ~107 immediately.",
        ),
        (
            ram_b,
            "fig10b",
            "Paper (8 GB): RDMA holds >900 MB/s through 7 clients; IPoIB \
             saturates ~360 MB/s.",
        ),
    ] {
        let run = |(topology, file_size), clients| {
            let params = MultiClientParams {
                file_size,
                record: 1 << 20,
            };
            run_multiclient(0xCAFE, &raid_bed(&profile, topology, clients, ram), params)
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
