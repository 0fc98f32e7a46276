//! IOzone-style multithreaded sequential bandwidth driver.
//!
//! Mirrors the paper's methodology: one file per thread (IOzone
//! creates a separate file for each), direct I/O, sequential access at
//! a fixed record size. Read runs pre-write the files (heating the
//! server cache exactly as IOzone's write pass does), reset the
//! accounting windows, then measure the timed pass in virtual time.

use std::cell::RefCell;
use std::rc::Rc;

use sim_core::{Histogram, Payload, Sim};

use crate::testbed::Testbed;

/// Access mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoMode {
    /// Sequential read.
    Read,
    /// Sequential write.
    Write,
}

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct IozoneParams {
    /// Concurrent threads on **each** client host.
    pub threads_per_client: u32,
    /// Bytes per thread's file.
    pub file_size: u64,
    /// Record (request) size in bytes.
    pub record: u64,
    /// Read or write.
    pub mode: IoMode,
    /// Write mode only: issue WRITEs UNSTABLE and COMMIT each file
    /// when its thread finishes (close-to-commit batching). The
    /// default `false` keeps paper-era behavior: UNSTABLE writes with
    /// no COMMIT at all.
    pub commit_on_close: bool,
}

impl Default for IozoneParams {
    fn default() -> Self {
        IozoneParams {
            threads_per_client: 1,
            file_size: 32 << 20,
            record: 128 * 1024,
            mode: IoMode::Read,
            commit_on_close: false,
        }
    }
}

/// Measured results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IozoneResult {
    /// Aggregate bandwidth over the timed pass, decimal MB/s.
    pub bandwidth_mb: f64,
    /// Mean client CPU utilization (0..=1) during the pass.
    pub client_cpu: f64,
    /// Server CPU utilization (0..=1) during the pass.
    pub server_cpu: f64,
    /// Operations completed.
    pub ops: u64,
    /// Virtual seconds elapsed.
    pub elapsed_s: f64,
    /// Median per-operation latency, microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile per-operation latency, microseconds.
    pub latency_p99_us: f64,
}

/// Run IOzone on an assembled testbed. Drives all clients in the bed.
pub async fn run_iozone(sim: &Sim, bed: &Testbed, params: IozoneParams) -> IozoneResult {
    let root = bed.server.root_handle();
    let record = params.record;
    let per_file = params.file_size;

    // --- Prepare: create one file per (client, thread). --------------
    let mut handles = Vec::new();
    for (ci, client) in bed.clients.iter().enumerate() {
        for t in 0..params.threads_per_client {
            let name = format!("ioz-c{ci}-t{t}");
            let f = client.nfs.create(root, &name).await.expect("create");
            handles.push(f.handle());
        }
    }
    if params.mode == IoMode::Read {
        // Pre-write through the VFS directly (fast path), which heats
        // the server page cache the same way IOzone's write pass does.
        for (i, fh) in handles.iter().enumerate() {
            let id = fs_backend::FileId(fh.0);
            let mut off = 0;
            while off < per_file {
                let n = (per_file - off).min(8 << 20);
                bed.fs
                    .write(id, off, Payload::synthetic(i as u64 + 1, n))
                    .await
                    .expect("prepopulate");
                off += n;
            }
        }
    }

    // --- Timed pass. ---------------------------------------------------
    bed.reset_accounting();
    let t0 = sim.now();
    let done = sim_core::sync::Semaphore::new(0);
    let latencies: Rc<RefCell<Histogram>> = Rc::new(RefCell::new(Histogram::new()));
    let mut tasks = 0;
    let mut hi = 0usize;
    for client in bed.clients.iter() {
        for _t in 0..params.threads_per_client {
            let fh = handles[hi];
            hi += 1;
            let nfs = client.nfs.clone();
            let buf = client.mem.alloc(record);
            if params.mode == IoMode::Write {
                buf.write(0, Payload::synthetic(hi as u64, record));
            }
            let done = done.clone();
            let mode = params.mode;
            let commit_on_close = params.commit_on_close;
            let sim2 = sim.clone();
            let latencies = latencies.clone();
            tasks += 1;
            sim.spawn(async move {
                let mut off = 0u64;
                while off < per_file {
                    let op_start = sim2.now();
                    match mode {
                        IoMode::Read => {
                            let (data, _eof) = nfs
                                .read(fh, off, record as u32, Some((&buf, 0)))
                                .await
                                .expect("read");
                            debug_assert_eq!(data.len(), record);
                        }
                        IoMode::Write => {
                            let n = nfs
                                .write(fh, off, &buf, 0, record as u32, false)
                                .await
                                .expect("write");
                            debug_assert_eq!(n as u64, record);
                        }
                    }
                    latencies
                        .borrow_mut()
                        .record(sim2.now().saturating_since(op_start));
                    off += record;
                }
                if commit_on_close && mode == IoMode::Write {
                    nfs.commit(fh).await.expect("commit on close");
                }
                done.add_permits(1);
            });
        }
    }
    for _ in 0..tasks {
        done.acquire().await.forget();
    }
    let elapsed = sim.now().saturating_since(t0);
    let total_bytes = per_file * handles.len() as u64;
    let ops = total_bytes / record;
    let secs = elapsed.as_secs_f64();

    let client_cpu =
        bed.clients.iter().map(|c| c.cpu.utilization()).sum::<f64>() / bed.clients.len() as f64;

    let lat = latencies.borrow();
    IozoneResult {
        bandwidth_mb: total_bytes as f64 / 1e6 / secs,
        client_cpu,
        server_cpu: bed.server_cpu.utilization(),
        ops,
        elapsed_s: secs,
        latency_p50_us: lat.quantile(0.5).as_micros() as f64,
        latency_p99_us: lat.quantile(0.99).as_micros() as f64,
    }
}
