//! FileBench-style OLTP personality (paper §5.2, Figure 8).
//!
//! The FileBench `oltp` workload models a database: a pool of reader
//! threads doing random reads against the database file, a smaller set
//! of writer threads doing random writes, and a log writer appending
//! sequentially. The paper tunes the mean I/O size to 128 KB and
//! sweeps the number of readers (50–200); we mirror that.

use sim_core::{Payload, Sim, SimDuration, SimTime};

use crate::testbed::Testbed;

/// OLTP parameters.
#[derive(Clone, Copy, Debug)]
pub struct OltpParams {
    /// Number of reader threads (the paper's x-axis: 50..=200).
    pub readers: u32,
    /// Number of writer threads (FileBench default-ish).
    pub writers: u32,
    /// Mean I/O size, bytes (the paper tunes 128 KiB).
    pub io_size: u64,
    /// Database file size.
    pub db_size: u64,
    /// Virtual duration of the measured window.
    pub duration: SimDuration,
}

impl Default for OltpParams {
    fn default() -> Self {
        OltpParams {
            readers: 100,
            writers: 10,
            io_size: 128 * 1024,
            db_size: 512 << 20,
            duration: SimDuration::from_millis(500),
        }
    }
}

/// Measured OLTP results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OltpResult {
    /// Operations per second (reads + writes + log appends).
    pub ops_per_sec: f64,
    /// Client CPU microseconds consumed per operation (the paper's
    /// right-hand axis in Figure 8).
    pub cpu_us_per_op: f64,
    /// Server CPU utilization.
    pub server_cpu: f64,
    /// Total operations completed in the window.
    pub ops: u64,
}

/// Run the OLTP mix on client 0 of the testbed.
pub async fn run_oltp(sim: &Sim, bed: &Testbed, params: OltpParams) -> OltpResult {
    let root = bed.server.root_handle();
    let client = &bed.clients[0];

    // Database + log files, prepopulated server-side.
    let db = client.nfs.create(root, "oltp.db").await.expect("create db");
    let log = client
        .nfs
        .create(root, "oltp.log")
        .await
        .expect("create log");
    {
        let id = fs_backend::FileId(db.handle().0);
        let mut off = 0;
        while off < params.db_size {
            let n = (params.db_size - off).min(16 << 20);
            bed.fs
                .write(id, off, Payload::synthetic(3, n))
                .await
                .expect("prepopulate");
            off += n;
        }
    }

    bed.reset_accounting();
    let t0 = sim.now();
    let deadline: SimTime = t0 + params.duration;
    let ops = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let done = sim_core::sync::Semaphore::new(0);
    let blocks = params.db_size / params.io_size;

    let mut tasks = 0u32;
    // Readers: uniform random 128 KiB reads.
    for r in 0..params.readers {
        let nfs = client.nfs.clone();
        let buf = client.mem.alloc(params.io_size);
        let fh = db.handle();
        let ops = ops.clone();
        let done = done.clone();
        let sim2 = sim.clone();
        let mut rng = sim.fork_rng();
        let io = params.io_size;
        let _ = r;
        tasks += 1;
        sim.spawn(async move {
            while sim2.now() < deadline {
                let block = rng.gen_range(blocks);
                let off = block * io;
                nfs.read(fh, off, io as u32, Some((&buf, 0)))
                    .await
                    .expect("oltp read");
                ops.set(ops.get() + 1);
            }
            done.add_permits(1);
        });
    }
    // Writers: random writes.
    for w in 0..params.writers {
        let nfs = client.nfs.clone();
        let buf = client.mem.alloc(params.io_size);
        buf.write(0, Payload::synthetic(w as u64 + 100, params.io_size));
        let fh = db.handle();
        let ops = ops.clone();
        let done = done.clone();
        let sim2 = sim.clone();
        let mut rng = sim.fork_rng();
        let io = params.io_size;
        tasks += 1;
        sim.spawn(async move {
            while sim2.now() < deadline {
                let block = rng.gen_range(blocks);
                nfs.write(fh, block * io, &buf, 0, io as u32, false)
                    .await
                    .expect("oltp write");
                ops.set(ops.get() + 1);
            }
            done.add_permits(1);
        });
    }
    // Log writer: sequential appends with stable semantics.
    {
        let nfs = client.nfs.clone();
        let buf = client.mem.alloc(params.io_size);
        buf.write(0, Payload::synthetic(999, params.io_size));
        let fh = log.handle();
        let ops = ops.clone();
        let done = done.clone();
        let sim2 = sim.clone();
        let io = params.io_size;
        tasks += 1;
        sim.spawn(async move {
            let mut off = 0u64;
            while sim2.now() < deadline {
                nfs.write(fh, off, &buf, 0, io as u32, true)
                    .await
                    .expect("log append");
                off += io;
                ops.set(ops.get() + 1);
            }
            done.add_permits(1);
        });
    }

    for _ in 0..tasks {
        done.acquire().await.forget();
    }
    let elapsed = sim.now().saturating_since(t0).as_secs_f64();
    let total_ops = ops.get();
    let cpu_busy_us = client.cpu.busy_time().as_micros() as f64;

    OltpResult {
        ops_per_sec: total_ops as f64 / elapsed,
        cpu_us_per_op: if total_ops > 0 {
            cpu_busy_us / total_ops as f64
        } else {
            0.0
        },
        server_cpu: bed.server_cpu.utilization(),
        ops: total_ops,
    }
}
