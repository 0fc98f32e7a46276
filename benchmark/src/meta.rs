//! `meta_mix`: open-loop Poisson arrivals of small metadata and 4 KiB
//! data operations over four connections, timed from each arrival's
//! *due* time, plus the search for the highest rate that meets the
//! latency limit without a growing backlog.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use fs_backend::FileId;
use ib_verbs::Buffer;
use nfs::{FileHandle, NfsClient};
use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Sim, SimDuration, SimTime};
use workloads::{build_rdma, linux_sdr, Backend, Testbed};

use crate::probe::Window;
use crate::stats::{percentile, Rng};
use crate::{segment_times, Rep, Spec, SEGMENTS};

pub const RATE: f64 = 36_000.0;
const ARRIVALS: u64 = 250_000;
const WARM_ARRIVALS: u64 = 2_000;
const CONNECTIONS: usize = 4;
const DEPTH: usize = 6;
const FILES_PER_DIR: usize = 8;
const IO: u64 = 4096;
/// An arrival still unanswered this long after the last one was due
/// counts as failed.
const DRAIN: SimDuration = SimDuration::from_millis(20);

// The rate search.
const GRID_LO: u64 = 30_000;
const GRID_STEP: u64 = 2_000;
const GRID_RUNGS: u64 = 33; // 30 000 ... 94 000
const SEARCH_ARRIVALS: u64 = 40_000;
const SLO_P99_NS: u64 = 1_000_000;
const SLO_COMPLETED: f64 = 0.99;

#[derive(Clone, Copy)]
enum Op {
    Getattr,
    Lookup,
    Access,
    Readdir,
    Read,
    Write,
}

/// GETATTR 40 / LOOKUP 25 / ACCESS 15 / READDIR 5 / READ 10 / WRITE 5.
fn draw_op(rng: &mut Rng) -> Op {
    match rng.below(100) {
        0..=39 => Op::Getattr,
        40..=64 => Op::Lookup,
        65..=79 => Op::Access,
        80..=84 => Op::Readdir,
        85..=94 => Op::Read,
        _ => Op::Write,
    }
}

#[derive(Clone, Copy)]
struct Arrival {
    /// Nanoseconds after the generator starts.
    due_ns: u64,
    conn: u8,
    /// File index within the connection's tree (its directory for
    /// READDIR is the file's parent).
    file: u8,
    op: Op,
}

fn schedule(seed: u64, rate: f64, n: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let mut due = 0.0f64;
    (0..n)
        .map(|_| {
            due += rng.exp(1e9 / rate);
            Arrival {
                due_ns: due as u64,
                conn: rng.below(CONNECTIONS as u64) as u8,
                file: rng.below((DEPTH * FILES_PER_DIR) as u64) as u8,
                op: draw_op(&mut rng),
            }
        })
        .collect()
}

struct File {
    dir: FileHandle,
    /// Entries a READDIR of `dir` returns.
    dir_entries: usize,
    name: String,
    fh: FileHandle,
    content: Payload,
    /// Holds `content`: the source of every WRITE to this file and the
    /// target of every READ of it. The file's bytes therefore never
    /// change, and overlapping operations on one file, which share the
    /// buffer, cannot corrupt each other.
    buf: Buffer,
}

struct Conn {
    nfs: Rc<NfsClient>,
    files: Vec<File>,
}

#[derive(Default)]
struct Tally {
    lat: RefCell<Vec<u64>>,
    failed: Cell<u64>,
    /// Answered correctly no later than the last arrival was due.
    good_in_window: Cell<u64>,
    payload_in_window: Cell<u64>,
}

/// One operation, checked against what the tree was built to hold.
/// Returns the payload bytes moved, `None` on any error or mismatch.
async fn perform(c: &Conn, f: &File, op: Op) -> Option<u64> {
    match op {
        Op::Getattr => {
            let a = c.nfs.getattr(f.fh).await.ok()?;
            (a.fileid == f.fh.0 && a.size == IO).then_some(0)
        }
        Op::Lookup => {
            let a = c.nfs.lookup(f.dir, &f.name).await.ok()?;
            (a.handle() == f.fh && a.size == IO).then_some(0)
        }
        Op::Access => {
            let granted = c.nfs.access(f.fh, nfs::proto::access::READ).await.ok()?;
            (granted == nfs::proto::access::READ).then_some(0)
        }
        Op::Readdir => {
            let entries = c.nfs.readdir(f.dir).await.ok()?;
            (entries.len() == f.dir_entries && entries.iter().any(|e| e.fileid == f.fh.0))
                .then_some(0)
        }
        Op::Read => {
            let user = Some((&f.buf, 0));
            let (data, _eof) = c.nfs.read(f.fh, 0, IO as u32, user).await.ok()?;
            data.content_eq(&f.content).then_some(IO)
        }
        Op::Write => {
            let n = c
                .nfs
                .write(f.fh, 0, &f.buf, 0, IO as u32, true)
                .await
                .ok()?;
            (u64::from(n) == IO).then_some(IO)
        }
    }
}

/// A testbed with its trees built, its arrivals drawn and its warm-up
/// arrivals fired; simulated time stands where the first timed arrival
/// is due.
struct Ready {
    bed: Testbed,
    conns: Rc<Vec<Conn>>,
    /// The timed arrivals, due times as simulated instants.
    arrivals: Vec<(SimTime, Arrival)>,
}

async fn set_up(sim: &Sim, seed: u64, rate: f64, n: u64, warm: u64) -> Ready {
    let bed = build_rdma(
        sim,
        &linux_sdr(),
        Design::ReadWrite,
        StrategyKind::AllPhysical,
        Backend::Tmpfs,
        CONNECTIONS,
    );
    let root = bed.server.root_handle();

    // A DEPTH-long directory chain per connection, FILES_PER_DIR 4 KiB
    // files at every level, built over NFS.
    let mut conns = Vec::new();
    for (ci, client) in bed.clients.iter().enumerate() {
        let nfs = &client.nfs;
        let mut files = Vec::new();
        let mut parent = root;
        for d in 0..DEPTH {
            let dir = nfs.mkdir(parent, &format!("c{ci}d{d}")).await;
            let dir = dir.expect("mkdir").handle();
            for i in 0..FILES_PER_DIR {
                let name = format!("f{i:02}");
                let fh = nfs.create(dir, &name).await.expect("create").handle();
                let stream = (seed << 40) ^ ((ci as u64) << 32) ^ files.len() as u64;
                let content = Payload::synthetic(stream, IO);
                let buf = client.mem.alloc(IO);
                buf.write(0, content.clone());
                let n = nfs.write(fh, 0, &buf, 0, IO as u32, true).await;
                assert_eq!(n.expect("populate"), IO as u32);
                files.push(File {
                    dir,
                    // Its files, plus the next level's directory.
                    dir_entries: FILES_PER_DIR + usize::from(d + 1 < DEPTH),
                    name,
                    fh,
                    content,
                    buf,
                });
            }
            parent = dir;
        }
        conns.push(Conn {
            nfs: nfs.clone(),
            files,
        });
    }
    let conns = Rc::new(conns);

    let base = sim.now();
    let mut arrivals = schedule(seed, rate, warm + n)
        .into_iter()
        .map(|a| (base + SimDuration::from_nanos(a.due_ns), a));
    for (due, a) in arrivals.by_ref().take(warm as usize) {
        sim.sleep_until(due).await;
        let conns = conns.clone();
        sim.spawn(async move {
            let c = &conns[a.conn as usize];
            perform(c, &c.files[a.file as usize], a.op).await;
        });
    }
    let arrivals: Vec<_> = arrivals.collect();
    sim.sleep_until(arrivals[0].0).await;
    Ready {
        bed,
        conns,
        arrivals,
    }
}

/// Set-up alone; host seconds since `started`.
pub async fn set_up_only(sim: Sim, spec: Spec, started: Instant) -> f64 {
    let (n, warm) = sizes(spec);
    set_up(&sim, spec.seed, RATE, n, warm).await;
    started.elapsed().as_secs_f64()
}

/// One open-loop run at `rate` with `n` timed arrivals.
async fn drive(sim: Sim, seed: u64, rate: f64, n: u64, warm: u64, started: Instant) -> Rep {
    let Ready {
        bed,
        conns,
        arrivals,
    } = set_up(&sim, seed, rate, n, warm).await;
    let setup_s = started.elapsed().as_secs_f64();

    let tally = Rc::new(Tally::default());
    tally.lat.borrow_mut().reserve_exact(n as usize);
    let (t0, end) = (arrivals[0].0, arrivals[arrivals.len() - 1].0);
    let mut late_max = 0u64;
    let segment_ops = (n / SEGMENTS).max(1);
    let mut marks = Vec::with_capacity(SEGMENTS as usize + 1);
    let window = Window::open(&sim, &bed);
    let host0 = Instant::now();
    for (i, (due, a)) in (0u64..).zip(arrivals) {
        sim.sleep_until(due).await;
        late_max = late_max.max(sim.now().saturating_since(due).as_nanos());
        if i > 0 && i.is_multiple_of(segment_ops) {
            marks.push(Instant::now());
        }
        let (sim2, conns, tally) = (sim.clone(), conns.clone(), tally.clone());
        sim.spawn(async move {
            let c = &conns[a.conn as usize];
            let moved = perform(c, &c.files[a.file as usize], a.op).await;
            let now = sim2.now();
            match moved {
                Some(bytes) => {
                    tally
                        .lat
                        .borrow_mut()
                        .push(now.saturating_since(due).as_nanos());
                    if now <= end {
                        tally.good_in_window.set(tally.good_in_window.get() + 1);
                        tally
                            .payload_in_window
                            .set(tally.payload_in_window.get() + bytes);
                    }
                }
                None => tally.failed.set(tally.failed.get() + 1),
            }
        });
    }
    let payload = tally.payload_in_window.get();
    let observed = window.close(&sim, &bed, n, payload);
    sim.sleep(DRAIN).await;

    let answered = tally.lat.borrow().len() as u64 + tally.failed.get();
    let mut failed = tally.failed.get() + (n - answered);

    // --- Correctness pass (untimed): every file, both ways in. ---------
    for c in conns.iter() {
        for f in &c.files {
            let over_nfs = perform(c, f, Op::Read).await.is_some();
            let direct = bed.fs.read(FileId(f.fh.0), 0, IO).await;
            let direct = direct.is_ok_and(|d| d.content_eq(&f.content));
            failed += u64::from(!(over_nfs && direct));
        }
    }

    let mut lat = std::mem::take(&mut *tally.lat.borrow_mut());
    lat.sort_unstable();
    Rep {
        attempted: n,
        failed,
        good: tally.good_in_window.get(),
        payload,
        sim_ns: end.saturating_since(t0).as_nanos(),
        lat,
        gen_late_ns_max: late_max,
        observed,
        setup_s,
        segments: segment_times(host0, &marks),
        segment_ops,
        window: (t0, end),
    }
}

/// (timed, warm-up) arrivals of a repetition.
fn sizes(spec: Spec) -> (u64, u64) {
    (ARRIVALS / spec.div, (WARM_ARRIVALS / spec.div).max(1))
}

pub async fn run(sim: Sim, spec: Spec, started: Instant) -> Rep {
    let (n, warm) = sizes(spec);
    drive(sim, spec.seed, RATE, n, warm, started).await
}

/// Does the system meet the limit at `rate`?
fn meets_slo(spec: Spec, rate: u64) -> bool {
    let n = (SEARCH_ARRIVALS / spec.div).max(2_000);
    let warm = sizes(spec).1;
    let (rep, _spans) = crate::simulate(spec, move |sim, started| {
        drive(sim, spec.seed, rate as f64, n, warm, started)
    });
    rep.failed == 0
        && percentile(&rep.lat, 0.99) <= SLO_P99_NS
        && rep.good as f64 >= SLO_COMPLETED * n as f64
}

/// The highest grid rate meeting the limit, by bisection; the rung
/// above it is one that was run and failed. `None` when no rung run
/// passed or none failed: the grid no longer brackets the knee.
pub fn slo_rate(spec: Spec) -> Option<f64> {
    // Invariant: every rung <= `lo` that was run passed, every rung
    // >= `hi` that was run failed; -1 and GRID_RUNGS are never run.
    let (mut lo, mut hi) = (-1i64, GRID_RUNGS as i64);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if meets_slo(spec, GRID_LO + mid as u64 * GRID_STEP) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo >= 0 && hi < GRID_RUNGS as i64).then(|| (GRID_LO + lo as u64 * GRID_STEP) as f64)
}
