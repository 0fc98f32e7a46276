//! Multi-client scaling scenario (a compact Figure 10): how many
//! clients can one RAID-backed NFS server feed at wire speed, and
//! what happens when their working set outgrows the page cache?
//!
//! ```text
//! cargo run --release -p bench --example multiclient_scaling
//! ```

use net_stack::TcpConfig;
use workloads::{linux_ddr_raid, raid_bed, run_multiclient, Topology};

fn main() {
    let profile = linux_ddr_raid();
    let file_size: u64 = 256 << 20; // compact: 256 MiB per client
    let ram: u64 = 1 << 30; // 1 GiB server page cache

    println!(
        "NFS server: 8x30 MB/s RAID-0, {} MiB page cache; {} MiB file per client\n",
        ram >> 20,
        file_size >> 20
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "clients", "RDMA MB/s", "IPoIB MB/s", "GigE MB/s", "cache-hit"
    );
    for clients in [1usize, 2, 3, 4, 6, 8] {
        let mut row = vec![format!("{clients:>8}")];
        let mut hit = 0.0;
        let topologies = [
            Topology::Rdma,
            Topology::Tcp(TcpConfig::ipoib()),
            Topology::Tcp(TcpConfig::gige()),
        ];
        for topology in topologies {
            let bed = raid_bed(&profile, topology, clients, ram);
            let r = run_multiclient(11, &bed, file_size);
            if let Topology::Rdma = topology {
                hit = r.cache_hit_rate;
            }
            row.push(format!("{:>12.0}", r.read_bandwidth_mb));
        }
        row.push(format!("{:>9.0}%", hit * 100.0));
        println!("{}", row.join(" "));
    }
    println!(
        "\nShape to notice: RDMA rides the wire (~950 MB/s) while the working \
         set fits the cache, then collapses to the RAID's aggregate rate; \
         TCP transports never get near the wire in the first place."
    );
}
