//! The §5.3 multi-client scalability experiment (Figure 10).
//!
//! N client hosts each write a 1 GB file to the RAID-backed server,
//! then read it back sequentially with a 1 MB record size; the metric
//! is aggregate read bandwidth. Whether a client's file is still in
//! the server's page cache when the read pass starts is exactly the
//! paper's capacity story: with 4 GB of server RAM the curve peaks
//! near three clients and falls to disk rates; with 8 GB it holds the
//! wire rate through seven.

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Sim};

use crate::profiles::Profile;
use crate::scenario::{self, Capture};
use crate::testbed::{Backend, Bed, Testbed, Topology};

/// The §5.3 bed: `clients` hosts against the RAID server with
/// `ram_bytes` of RAM (4 or 8 GiB in the paper), mounting over
/// `topology` — on RDMA the Linux design with all-physical
/// registration, as the paper ran it; TCP over IPoIB or GigE otherwise.
pub fn raid_bed(profile: &Profile, topology: Topology, clients: usize, ram_bytes: u64) -> Bed {
    Bed {
        backend: Backend::Raid { ram_bytes },
        clients,
        topology,
        ..Bed::new(profile, Design::ReadWrite, StrategyKind::AllPhysical)
    }
}

/// Record size of both passes (1 MB in the paper).
const RECORD: u64 = 1 << 20;

/// Result of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultiClientResult {
    /// Aggregate read bandwidth, decimal MB/s.
    pub read_bandwidth_mb: f64,
    /// Page-cache hit fraction during the read pass.
    pub cache_hit_rate: f64,
    /// Server CPU utilization during the read pass.
    pub server_cpu: f64,
}

/// Run one multi-client point on `bed` ([`raid_bed`]) inside a fresh
/// simulation, each client writing and reading back `file_size` bytes
/// (1 GB in the paper).
pub fn run_multiclient(seed: u64, bed: &Bed, file_size: u64) -> MultiClientResult {
    let spec = *bed;
    let run = scenario::run(seed, Capture::default(), |sim| async move {
        run_inner(&sim, &spec, file_size).await
    });
    run.out
}

async fn run_inner(sim: &Sim, spec: &Bed, file_size: u64) -> MultiClientResult {
    let bed: Testbed = spec.build(sim).await;

    let root = bed.server.root_handle();

    // --- Write pass: every client writes its file over NFS. ----------
    let done = sim_core::sync::Semaphore::new(0);
    let mut handles = Vec::new();
    for (ci, client) in bed.clients.iter().enumerate() {
        let f = client
            .nfs
            .create(root, &format!("mc-{ci}"))
            .await
            .expect("create");
        handles.push(f.handle());
    }
    for (ci, client) in bed.clients.iter().enumerate() {
        let nfs = client.nfs.clone();
        let fh = handles[ci];
        let buf = client.mem.alloc(RECORD);
        buf.write(0, Payload::synthetic(ci as u64 + 1, RECORD));
        let done = done.clone();
        sim.spawn(async move {
            let mut off = 0;
            while off < file_size {
                nfs.write(fh, off, &buf, 0, RECORD as u32, false)
                    .await
                    .expect("write pass");
                off += RECORD;
            }
            done.add_permits(1);
        });
    }
    for _ in 0..bed.clients.len() {
        done.acquire().await.forget();
    }
    // IOzone closes the files between passes; for NFS unstable writes
    // that is a COMMIT, flushing server-side dirty pages so the read
    // pass does not pay write-back on every eviction.
    for (ci, client) in bed.clients.iter().enumerate() {
        client.nfs.commit(handles[ci]).await.expect("commit");
    }

    // --- Read pass (timed). -------------------------------------------
    bed.reset_accounting();
    let (hits0, miss0) = bed
        .disk_store
        .as_ref()
        .map(|d| (d.store().cache().hits(), d.store().cache().misses()))
        .unwrap_or((0, 0));
    let t0 = sim.now();
    for (ci, client) in bed.clients.iter().enumerate() {
        let nfs = client.nfs.clone();
        let fh = handles[ci];
        let buf = client.mem.alloc(RECORD);
        let done = done.clone();
        sim.spawn(async move {
            let mut off = 0;
            while off < file_size {
                nfs.read(fh, off, RECORD as u32, Some((&buf, 0)))
                    .await
                    .expect("read pass");
                off += RECORD;
            }
            done.add_permits(1);
        });
    }
    for _ in 0..bed.clients.len() {
        done.acquire().await.forget();
    }
    let secs = sim.now().saturating_since(t0).as_secs_f64();
    let total = file_size * bed.clients.len() as u64;

    let cache_hit_rate = bed
        .disk_store
        .as_ref()
        .map(|d| {
            let c = d.store().cache();
            let h = c.hits() - hits0;
            let m = c.misses() - miss0;
            if h + m == 0 {
                1.0
            } else {
                h as f64 / (h + m) as f64
            }
        })
        .unwrap_or(1.0);

    MultiClientResult {
        read_bandwidth_mb: total as f64 / 1e6 / secs,
        cache_hit_rate,
        server_cpu: bed.server_cpu.utilization(),
    }
}
