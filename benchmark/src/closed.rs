//! The three closed-loop workloads: `seq_read`, `seq_write`,
//! `raid_read`. Each simulated thread owns one file and one buffer and
//! issues its next sequential record only after the previous reply.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use fs_backend::FileId;
use ib_verbs::Buffer;
use nfs::{FileHandle, NfsClient};
use rpcrdma::{Design, StrategyKind};
use sim_core::sync::Semaphore;
use sim_core::{Payload, Sim, SimTime};
use workloads::{build_rdma, linux_ddr_raid, solaris_sdr, Backend, Profile, Testbed};

use crate::probe::Window;
use crate::stats::Rng;
use crate::{segment_times, Rep, Spec, Workload, SEGMENTS};

/// The `seq_*` record is 128 KiB less a multiple of 8 bytes below this
/// (at most 0.4 %), drawn from the seed. A closed loop over a
/// deterministic model with nothing random in its path takes the same
/// nanoseconds whatever the seed; the record length is the one input
/// every phase of these two workloads depends on, so it is what the
/// seed varies. `raid_read` keeps whole 1 MiB records, which its
/// page-sized readahead needs; there the seed already acts through
/// the clients' physical memory layout.
const TRIM_BYTES: u64 = 512;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Read,
    /// UNSTABLE writes, COMMIT at the end of every pass over the file.
    Write,
}

struct Shape {
    profile: Profile,
    strategy: StrategyKind,
    backend: Backend,
    clients: usize,
    threads_per_client: usize,
    record: u64,
    /// Records per file; offsets wrap.
    records: u64,
    mode: Mode,
    /// A read workload's files are written and committed over NFS, so
    /// that the server's page cache holds what a real write pass would
    /// have left in it; otherwise straight into the file system.
    prefill_over_nfs: bool,
    /// Untimed operations per thread before the window opens.
    warm_ops: u64,
    /// Timed operations per thread (reads or writes; COMMITs are extra).
    ops: u64,
}

fn shape(w: Workload, seed: u64, div: u64) -> Shape {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    let trim = Rng::new(seed).below(TRIM_BYTES / 8) * 8;
    let seq = |strategy, mode| Shape {
        profile: solaris_sdr(),
        strategy,
        backend: Backend::Tmpfs,
        clients: 1,
        threads_per_client: 2,
        record: 128 * KIB - trim,
        records: 64,
        mode,
        prefill_over_nfs: false,
        warm_ops: (1_000 / div).max(1),
        ops: 100_000 / div,
    };
    match w {
        Workload::SeqRead => seq(StrategyKind::Dynamic, Mode::Read),
        Workload::SeqWrite => seq(StrategyKind::Cache, Mode::Write),
        // 4 x 64 MiB over a 192 MiB cache: the files stay full size at
        // every scale, or the working set would fit.
        Workload::RaidRead => Shape {
            profile: linux_ddr_raid(),
            strategy: StrategyKind::AllPhysical,
            backend: Backend::Raid {
                ram_bytes: 704 * MIB,
            },
            clients: 4,
            threads_per_client: 1,
            record: MIB,
            records: 64,
            mode: Mode::Read,
            prefill_over_nfs: true,
            warm_ops: 64,
            ops: 64 * (150 / div).max(2),
        },
        Workload::MetaMix => unreachable!("meta_mix is open-loop"),
    }
}

struct Thread {
    nfs: Rc<NfsClient>,
    fh: FileHandle,
    buf: Buffer,
    /// Content seed base: distinct per (run seed, thread).
    base: u64,
}

impl Thread {
    /// What write number `i` carries (for reads: what record `i` holds).
    fn content(&self, i: u64, record: u64) -> Payload {
        Payload::synthetic(self.base.wrapping_add(i), record)
    }
}

#[derive(Default)]
struct Tally {
    lat: RefCell<Vec<u64>>,
    attempted: Cell<u64>,
    failed: Cell<u64>,
    payload: Cell<u64>,
    /// Host time at every `segment_ops`-th call.
    marks: RefCell<Vec<Instant>>,
    segment_ops: u64,
}

impl Tally {
    fn note(&self, ok: bool, since: SimTime, sim: &Sim, bytes: u64) {
        self.attempted.set(self.attempted.get() + 1);
        if self.attempted.get().is_multiple_of(self.segment_ops) {
            self.marks.borrow_mut().push(Instant::now());
        }
        if ok {
            let ns = sim.now().saturating_since(since).as_nanos();
            self.lat.borrow_mut().push(ns);
            self.payload.set(self.payload.get() + bytes);
        } else {
            self.failed.set(self.failed.get() + 1);
        }
    }
}

/// Operations `first..first+count` of one thread, as reads or writes.
async fn pass(
    sim: &Sim,
    s: &Shape,
    t: &Thread,
    mode: Mode,
    (first, count): (u64, u64),
    tally: Option<&Tally>,
) {
    for i in first..first + count {
        let r = i % s.records;
        let t0 = sim.now();
        let ok = match mode {
            Mode::Read => t
                .nfs
                .read(t.fh, r * s.record, s.record as u32, Some((&t.buf, 0)))
                .await
                .is_ok_and(|(data, _eof)| data.len() == s.record),
            Mode::Write => {
                t.buf.write(0, t.content(i, s.record));
                t.nfs
                    .write(t.fh, r * s.record, &t.buf, 0, s.record as u32, false)
                    .await
                    .is_ok_and(|n| u64::from(n) == s.record)
            }
        };
        if let Some(tally) = tally {
            tally.note(ok, t0, sim, s.record);
        }
        if mode == Mode::Write && r == s.records - 1 {
            let t0 = sim.now();
            let ok = t.nfs.commit(t.fh).await.is_ok();
            if let Some(tally) = tally {
                tally.note(ok, t0, sim, 0);
            }
        }
    }
}

/// Run operations `first..first+count` on every thread concurrently
/// and wait.
async fn all_threads(
    sim: &Sim,
    s: &Rc<Shape>,
    threads: &[Rc<Thread>],
    mode: Mode,
    range: (u64, u64),
    tally: Option<&Rc<Tally>>,
) {
    let done = Semaphore::new(0);
    for t in threads {
        let (sim2, s, t, done) = (sim.clone(), s.clone(), t.clone(), done.clone());
        let tally = tally.cloned();
        sim.spawn(async move {
            pass(&sim2, &s, &t, mode, range, tally.as_deref()).await;
            done.add_permits(1);
        });
    }
    for _ in threads {
        done.acquire().await.forget();
    }
}

/// A testbed with its files in place and its warm-up done.
struct Ready {
    s: Rc<Shape>,
    bed: Testbed,
    threads: Vec<Rc<Thread>>,
}

async fn set_up(sim: &Sim, spec: Spec) -> Ready {
    let s = Rc::new(shape(spec.workload, spec.seed, spec.div));
    let bed = build_rdma(
        sim,
        &s.profile,
        Design::ReadWrite,
        s.strategy,
        s.backend,
        s.clients,
    );
    let root = bed.server.root_handle();

    let mut threads = Vec::new();
    for (ci, client) in bed.clients.iter().enumerate() {
        for ti in 0..s.threads_per_client {
            let n = (ci * s.threads_per_client + ti) as u64;
            let attr = client.nfs.create(root, &format!("f{n}")).await;
            threads.push(Rc::new(Thread {
                nfs: client.nfs.clone(),
                fh: attr.expect("create").handle(),
                buf: client.mem.alloc(s.record),
                base: (spec.seed << 40) ^ (n << 32),
            }));
        }
    }
    if s.mode == Mode::Read && s.prefill_over_nfs {
        all_threads(sim, &s, &threads, Mode::Write, (0, s.records), None).await;
    } else if s.mode == Mode::Read {
        for t in &threads {
            for r in 0..s.records {
                let data = t.content(r, s.record);
                let written = bed.fs.write(FileId(t.fh.0), r * s.record, data).await;
                written.expect("prefill");
            }
        }
    }
    all_threads(sim, &s, &threads, s.mode, (0, s.warm_ops), None).await;
    Ready { s, bed, threads }
}

/// Set-up alone; host seconds since `started`.
pub async fn set_up_only(sim: Sim, spec: Spec, started: Instant) -> f64 {
    set_up(&sim, spec).await;
    started.elapsed().as_secs_f64()
}

pub async fn run(sim: Sim, spec: Spec, started: Instant) -> Rep {
    let Ready { s, bed, threads } = set_up(&sim, spec).await;
    let setup_s = started.elapsed().as_secs_f64();

    // --- Timed pass. ---------------------------------------------------
    let total = s.ops * threads.len() as u64;
    let calls = match s.mode {
        Mode::Read => total,
        Mode::Write => total + total / s.records,
    };
    let tally = Rc::new(Tally {
        lat: RefCell::new(Vec::with_capacity(calls as usize + 1)),
        marks: RefCell::new(Vec::with_capacity(SEGMENTS as usize + 1)),
        segment_ops: (calls / SEGMENTS).max(1),
        ..Tally::default()
    });
    let window = Window::open(&sim, &bed);
    let (t0, host0) = (sim.now(), Instant::now());
    let timed = (s.warm_ops, s.ops);
    all_threads(&sim, &s, &threads, s.mode, timed, Some(&tally)).await;
    let t1 = sim.now();
    let attempted = tally.attempted.get();
    let payload = tally.payload.get();
    let observed = window.close(&sim, &bed, attempted, payload);

    // --- Correctness pass (untimed). -----------------------------------
    let mut failed = tally.failed.get();
    let last = s.warm_ops + s.ops;
    for t in &threads {
        for r in 0..s.records {
            let ok = match s.mode {
                Mode::Read => t
                    .nfs
                    .read(t.fh, r * s.record, s.record as u32, Some((&t.buf, 0)))
                    .await
                    .is_ok_and(|(data, _)| {
                        data.content_eq(&t.content(r, s.record))
                            && t.buf.read(0, s.record).content_eq(&data)
                    }),
                Mode::Write => {
                    // The last write that landed on record `r`.
                    let Some(i) = (0..last).rev().find(|i| i % s.records == r) else {
                        continue;
                    };
                    bed.fs
                        .read(FileId(t.fh.0), r * s.record, s.record)
                        .await
                        .is_ok_and(|data| data.content_eq(&t.content(i, s.record)))
                }
            };
            failed += u64::from(!ok);
        }
    }
    if spec.workload == Workload::RaidRead {
        // The working set must really exceed the cache.
        let ok = observed.cache_hit_ratio.is_some_and(|h| h > 0.0 && h < 1.0);
        failed += u64::from(!ok);
    }

    let mut lat = std::mem::take(&mut *tally.lat.borrow_mut());
    lat.sort_unstable();
    let segments = segment_times(host0, &tally.marks.borrow());
    Rep {
        attempted,
        failed,
        good: lat.len() as u64,
        payload,
        sim_ns: t1.saturating_since(t0).as_nanos(),
        lat,
        gen_late_ns_max: 0,
        observed,
        setup_s,
        segments,
        segment_ops: tally.segment_ops,
        window: (t0, t1),
    }
}
