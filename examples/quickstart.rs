//! Quickstart: bring up a simulated NFS/RDMA deployment, mount it,
//! and do file I/O — the whole paper stack in ~40 lines of user code.
//!
//! ```text
//! cargo run --release -p bench --example quickstart
//! ```

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Simulation};
use workloads::{solaris_sdr, Bed};

fn main() {
    // A deterministic virtual world: one NFS server (tmpfs-backed), one
    // client, SDR InfiniBand between them.
    let mut sim = Simulation::new(2026);
    let h = sim.handle();
    let profile = solaris_sdr();

    sim.block_on(async move {
        // One client host on a tmpfs server: the paper's design with
        // its fastest registration strategy.
        let bed = Bed::new(&profile, Design::ReadWrite, StrategyKind::Cache);
        let bed = bed.build(&h).await;
        let client = &bed.clients[0];
        let root = bed.server.root_handle();

        // Create a file and write 1 MiB from a client buffer. The data
        // leaves via RDMA Read chunks pulled by the server.
        let file = client.nfs.create(root, "hello.dat").await.unwrap();
        let buf = client.mem.alloc(1 << 20);
        buf.write(0, Payload::synthetic(7, 1 << 20));
        let t0 = h.now();
        client
            .nfs
            .write(file.handle(), 0, &buf, 0, 1 << 20, false)
            .await
            .unwrap();
        println!("WRITE 1 MiB          : {}", h.now().saturating_since(t0));

        // Read it back zero-copy: the server RDMA-writes straight into
        // our buffer, then the reply Send guarantees placement.
        let dst = client.mem.alloc(1 << 20);
        let t0 = h.now();
        let (data, eof) = client
            .nfs
            .read(file.handle(), 0, 1 << 20, Some((&dst, 0)))
            .await
            .unwrap();
        println!("READ  1 MiB (0-copy) : {}", h.now().saturating_since(t0));
        assert!(data.content_eq(&Payload::synthetic(7, 1 << 20)));
        assert!(eof);

        // Metadata ops work too.
        let attr = client.nfs.getattr(file.handle()).await.unwrap();
        println!("size                 : {} bytes", attr.size);
        let entries = client.nfs.readdir(root).await.unwrap();
        println!(
            "readdir(/)           : {:?}",
            entries.iter().map(|e| e.name.as_str()).collect::<Vec<_>>()
        );

        // The security ledger confirms the Read-Write design never
        // exposed a single server byte.
        let exposure = bed.server_hca.as_ref().unwrap().exposure_report();
        println!(
            "server bytes exposed : {} (exposures: {})",
            exposure.current_bytes, exposure.exposures
        );
        assert_eq!(exposure.exposures, 0);
    });
    println!("virtual time elapsed : {}", sim.now());
}
