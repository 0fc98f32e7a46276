//! Open-loop overload harness: arrival-rate load with per-tenant skew.
//!
//! The paper's workloads (and every figure harness before this one)
//! are *closed-loop*: a fixed thread count issues the next op only
//! after the previous one completes, so offered load self-limits to
//! server capacity and queues never grow without bound. Real NFS
//! front-ends are *open-loop*: arrivals come from an outside
//! population at a rate that does not care how slow the server got.
//! Past saturation a closed-loop harness measures throughput; only an
//! open-loop one can measure *collapse* — queue depth and p99 growing
//! without bound — and whether the server's overload controls
//! ([`rpcrdma::qos`]) keep them bounded instead.
//!
//! The generator draws inter-arrival gaps from a Poisson process,
//! picks one of 2000 simulated tenants by a Zipf(0.9) popularity draw,
//! maps the tenant onto one of the mounted client connections, and
//! fires the op without waiting for it. A
//! bounded per-connection waiting room models the client host's own
//! admission limit: arrivals finding it full are counted as
//! client-side sheds rather than queued forever (set it to 0 to model
//! the fully patient open queue that demonstrates collapse). A
//! closed-loop arrival mode reuses the same op mix to probe raw
//! capacity — the denominator of the load sweep's x axis.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sim_core::{Payload, Sim, SimDuration, SimRng, SimTime};

use ib_verbs::Buffer;
use nfs::{FileHandle, NfsClient, NfsError};
use onc_rpc::{RpcError, TransportError};

use crate::scenario::{self, fnv1a, percentile_us, Capture, Completion, Run, Timeline, FNV_BASIS};
use crate::testbed::{Bed, Testbed};

/// How arrivals are generated.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Open-loop Poisson arrivals at `rate` ops/s.
    Poisson {
        /// Offered load, ops per second.
        rate: f64,
    },
    /// Closed-loop: `workers` tasks per connection issue ops
    /// back-to-back (the capacity probe; waiting room is ignored).
    ClosedLoop {
        /// Concurrent workers per connection.
        workers: u32,
    },
}

/// Per-tenant operation mix (percentages must sum to 100).
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// GETATTR share, percent.
    pub getattr_pct: u32,
    /// LOOKUP share, percent (walks the prepopulated metadata tree).
    pub lookup_pct: u32,
    /// READDIR share, percent (lists one tree directory).
    pub readdir_pct: u32,
    /// ACCESS share, percent (permission check on a tree file).
    pub access_pct: u32,
    /// READ share, percent.
    pub read_pct: u32,
    /// FILE_SYNC WRITE share, percent.
    pub write_pct: u32,
    /// READ/WRITE transfer size.
    pub io_size: u64,
}

impl OpMix {
    /// The OLTP-ish personality: attribute checks plus 8 KiB
    /// reads/writes (the [`crate::oltp`] shape at its small-record
    /// end).
    pub fn oltp() -> OpMix {
        OpMix {
            getattr_pct: 20,
            lookup_pct: 0,
            readdir_pct: 0,
            access_pct: 0,
            read_pct: 50,
            write_pct: 30,
            io_size: 8192,
        }
    }

    /// Metadata-heavy personality: mostly GETATTR with small reads.
    pub fn metadata() -> OpMix {
        OpMix {
            getattr_pct: 70,
            lookup_pct: 0,
            readdir_pct: 0,
            access_pct: 0,
            read_pct: 25,
            write_pct: 5,
            io_size: 4096,
        }
    }

    /// Mail-server personality (filebench varmail's stat-heavy half):
    /// attribute and name-resolution storms over the deep small-file
    /// tree with a thin stream of small appends.
    pub fn varmail() -> OpMix {
        OpMix {
            getattr_pct: 30,
            lookup_pct: 25,
            readdir_pct: 10,
            access_pct: 10,
            read_pct: 15,
            write_pct: 10,
            io_size: 2048,
        }
    }

    /// Combined share of the ops that need the metadata tree.
    pub fn meta_pct(&self) -> u32 {
        self.lookup_pct + self.readdir_pct + self.access_pct
    }
}

/// Parameters of one open-loop run. Each of the bed's clients is one
/// mounted connection (one server tenant); the server's overload
/// control ([`rpcrdma::qos`]) is the bed's transport config.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopParams {
    /// Arrival process.
    pub arrival: Arrival,
    /// Per-tenant op mix.
    pub mix: OpMix,
    /// Arrival window (measurement interval).
    pub duration: SimDuration,
    /// Extra drain time after arrivals stop; ops still pending at the
    /// end of it are counted [`OpenLoopResult::unfinished`].
    pub grace: SimDuration,
    /// Per-connection waiting room: open-loop arrivals finding this
    /// many ops already outstanding on the connection are shed
    /// client-side. 0 = unbounded (the patient queue that collapses).
    pub waiting_room: u32,
    /// Extra open-loop Poisson load, ops/s, aimed entirely at
    /// connection 0 (the hog). 0 disables; when set, honest arrivals
    /// use only connections 1.. so the hog's tenant is isolated.
    pub hog_rate: f64,
    /// QoS weight for honest tenants (the hog's tenant, connection 0,
    /// weighs 1).
    pub honest_weight: u32,
    /// Sample the streaming telemetry timeline.
    pub timeline: bool,
}

impl Default for OpenLoopParams {
    fn default() -> Self {
        OpenLoopParams {
            arrival: Arrival::Poisson { rate: 20_000.0 },
            mix: OpMix::oltp(),
            duration: SimDuration::from_millis(100),
            grace: SimDuration::from_millis(20),
            waiting_room: 64,
            hog_rate: 0.0,
            honest_weight: 1,
            timeline: false,
        }
    }
}

/// Simulated tenant population behind the connections.
const TENANTS: u32 = 2000;

/// Zipf skew of tenant popularity.
const ZIPF_THETA: f64 = 0.9;

/// Gauge columns of [`OpenLoopResult::timeline`]: ops outstanding on
/// all connections; server QoS dispatch-queue depth; cumulative server
/// sheds (arrival + deadline); cumulative client-side waiting-room
/// sheds.
const TIMELINE_GAUGES: [&str; 4] = ["in_flight", "queue_depth", "server_sheds", "client_sheds"];

/// What one open-loop run produced. Whole-run server and client
/// counters are in the run's registry: `server.sheds` (busy replies
/// sent), `server.qos.shed.deadline` (of those, sheds at dispatch for
/// missing the sojourn target),
/// `client.busy_replies` (as clients saw them, retransmit dupes
/// included), `server.credit_clamps` (charged to hogs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpenLoopResult {
    /// Arrivals generated (including ones shed client-side).
    pub offered: u64,
    /// FNV-1a over the `(connection, tenant, op)` of every open-loop
    /// arrival in the order offered, shed or fired: same-seed runs whose
    /// waiting rooms let different arrivals through were still offered
    /// the same ones, and print the same digest.
    pub offered_digest: u64,
    /// Ops that completed successfully (any time before the cutoff).
    pub completed: u64,
    /// Successful completions inside the arrival window — the goodput
    /// numerator.
    pub completed_in_window: u64,
    /// Arrivals shed by the full client waiting room.
    pub client_sheds: u64,
    /// Calls that exhausted their busy-reply budget
    /// ([`onc_rpc::TransportError::Overloaded`]).
    pub overload_failures: u64,
    /// Other op failures.
    pub other_errors: u64,
    /// Ops still pending when the grace period expired.
    pub unfinished: u64,
    /// High-water mark of the server QoS queue depth.
    pub qos_peak_depth: u64,
    /// Successful ops per second over the arrival window.
    pub goodput_ops: f64,
    /// READ+WRITE payload MB/s over the arrival window.
    pub goodput_mbps: f64,
    /// Median completed-op latency, µs.
    pub p50_us: u64,
    /// 99th-percentile completed-op latency, µs.
    pub p99_us: u64,
    /// Worst completed-op latency, µs.
    pub max_us: u64,
    /// p99 over ops on honest connections (!= 0 when a hog runs,
    /// otherwise equal to [`OpenLoopResult::p99_us`]).
    pub honest_p99_us: u64,
    /// p99 over the hog connection's ops (0 without a hog).
    pub hog_p99_us: u64,
    /// Successful ops on honest connections.
    pub honest_completed: u64,
    /// Successful ops on the hog connection.
    pub hog_completed: u64,
    /// Virtual elapsed time of the whole run, µs.
    pub elapsed_us: u64,
    /// Telemetry timeline (no buckets unless
    /// [`OpenLoopParams::timeline`]).
    pub timeline: Timeline,
}

/// Zipf sampler over `n` ranks: precomputed CDF, binary-search draw.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u32, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut SimRng) -> u32 {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// The op an arrival performs.
#[derive(Clone, Copy)]
#[repr(u8)]
enum Op {
    Getattr,
    Lookup,
    Readdir,
    Access,
    Read,
    Write,
}

impl OpMix {
    fn draw(&self, rng: &mut SimRng) -> Op {
        // One draw regardless of mix: personalities with zero metadata
        // shares consume the RNG identically to the pre-metadata code,
        // so existing mixes stay trace-identical.
        let p = rng.gen_range(100) as u32;
        let shares = [
            (self.getattr_pct, Op::Getattr),
            (self.lookup_pct, Op::Lookup),
            (self.readdir_pct, Op::Readdir),
            (self.access_pct, Op::Access),
            (self.read_pct, Op::Read),
        ];
        let mut edge = 0;
        for (pct, op) in shares {
            edge += pct;
            if p < edge {
                return op;
            }
        }
        Op::Write
    }
}

/// Shared mutable state between the arrival processes, op tasks, and
/// the telemetry sampler.
struct Shared {
    /// Every successful op with the connection it ran on.
    samples: RefCell<Vec<(usize, Completion)>>,
    outstanding: Vec<Cell<u32>>,
    offered: Cell<u64>,
    offered_digest: Cell<u64>,
    client_sheds: Cell<u64>,
    overload_failures: Cell<u64>,
    other_errors: Cell<u64>,
    stop: Cell<bool>,
}

impl Shared {
    /// Count one open-loop arrival, before the waiting room decides
    /// whether it is fired or shed.
    fn offer(&self, conn: usize, tenant: u32, op: Op) {
        self.offered.set(self.offered.get() + 1);
        let h = fnv1a(self.offered_digest.get(), &(conn as u64).to_le_bytes());
        let h = fnv1a(fnv1a(h, &tenant.to_le_bytes()), &[op as u8]);
        self.offered_digest.set(h);
    }
}

/// Per-connection slice of the metadata tree: the directory chain plus
/// every `(parent dir, name, handle)` file triple, so LOOKUP walks by
/// name while ACCESS goes straight at a handle.
struct MetaTree {
    dirs: Vec<FileHandle>,
    files: Vec<(FileHandle, String, FileHandle)>,
}

/// Directory-chain depth of the metadata tree.
const META_DEPTH: usize = 6;
/// Small files created in each tree directory.
const META_FILES_PER_DIR: usize = 8;
/// Bytes written to each tree file (small-file regime).
const META_FILE_BYTES: u64 = 512;

/// Everything an op needs: per-connection mounts, handles, reusable
/// I/O buffers (op payloads are synthetic, so concurrent ops on one
/// connection share them), and the accounting cells.
struct OpCtx {
    sim: Sim,
    nfs: Vec<Rc<NfsClient>>,
    handles: Vec<FileHandle>,
    read_bufs: Vec<Buffer>,
    write_bufs: Vec<Buffer>,
    io: u64,
    /// One tree per connection; empty unless the mix draws metadata
    /// ops, so non-metadata runs skip the prepopulation entirely.
    meta: Vec<MetaTree>,
    /// The mix arrivals draw their op from.
    mix: OpMix,
    /// When the arrival window closes.
    t_end: SimTime,
    /// Per-connection waiting room of the open-loop processes.
    room: u32,
    shared: Rc<Shared>,
}

impl OpCtx {
    /// Perform one op and account its completion. The caller has
    /// already incremented the connection's outstanding count.
    async fn run_op(&self, conn: usize, tenant: u32, op: Op) {
        let t0 = self.sim.now();
        let fh = self.handles[conn];
        let io = self.io;
        let off = (tenant as u64 % FILE_SLOTS) * io;
        let r = match op {
            Op::Getattr => self.nfs[conn].getattr(fh).await.map(|_| 0u64),
            Op::Lookup => {
                let t = &self.meta[conn];
                let (dir, name, _) = &t.files[tenant as usize % t.files.len()];
                self.nfs[conn].lookup(*dir, name).await.map(|_| 0u64)
            }
            Op::Readdir => {
                let t = &self.meta[conn];
                let dir = t.dirs[tenant as usize % t.dirs.len()];
                self.nfs[conn].readdir(dir).await.map(|_| 0u64)
            }
            Op::Access => {
                let t = &self.meta[conn];
                let file = t.files[tenant as usize % t.files.len()].2;
                self.nfs[conn].access(file, 0x3f).await.map(|_| 0u64)
            }
            Op::Read => self.nfs[conn]
                .read(fh, off, io as u32, Some((&self.read_bufs[conn], 0)))
                .await
                .map(|_| io),
            Op::Write => self.nfs[conn]
                .write(fh, off, &self.write_bufs[conn], 0, io as u32, true)
                .await
                .map(|_| io),
        };
        let o = &self.shared.outstanding[conn];
        o.set(o.get() - 1);
        match r {
            Ok(bytes) => {
                let (start, end) = (t0, self.sim.now());
                let done = Completion { start, end, bytes };
                self.shared.samples.borrow_mut().push((conn, done));
            }
            Err(NfsError::Rpc(RpcError::Transport(TransportError::Overloaded { .. }))) => self
                .shared
                .overload_failures
                .set(self.shared.overload_failures.get() + 1),
            Err(_) => self
                .shared
                .other_errors
                .set(self.shared.other_errors.get() + 1),
        }
    }

    /// Launch one op without waiting for it (the open-loop fire).
    fn fire(self: &Rc<Self>, conn: usize, tenant: u32, op: Op) {
        let ctx = self.clone();
        self.sim.spawn(async move {
            ctx.run_op(conn, tenant, op).await;
        });
    }

    /// Spawn one open-loop arrival process: Poisson at `rate` until the
    /// window closes, each arrival sent where `aim` says — a
    /// `(connection, tenant)` — unless that connection's waiting room
    /// is full.
    fn spawn_arrivals(
        self: &Rc<Self>,
        rate: f64,
        mut aim: impl FnMut(&mut SimRng) -> (usize, u32) + 'static,
        done: &sim_core::sync::Semaphore,
    ) {
        let (ctx, done, sim) = (self.clone(), done.clone(), self.sim.clone());
        let mut rng = sim.fork_rng();
        self.sim.spawn(async move {
            let (t_end, room, shared) = (ctx.t_end, ctx.room, &ctx.shared);
            while sim.now() < t_end {
                let gap = rng.gen_exp(1e9 / rate.max(1.0)); // ns
                sim.sleep(SimDuration::from_nanos((gap as u64).max(1)))
                    .await;
                if sim.now() >= t_end {
                    break;
                }
                // Every arrival draws its op, shed or not: the stream of
                // arrivals offered must not depend on who got through.
                let (conn, tenant) = aim(&mut rng);
                let op = ctx.mix.draw(&mut rng);
                shared.offer(conn, tenant, op);
                if room > 0 && shared.outstanding[conn].get() >= room {
                    shared.client_sheds.set(shared.client_sheds.get() + 1);
                    continue;
                }
                shared.outstanding[conn].set(shared.outstanding[conn].get() + 1);
                ctx.fire(conn, tenant, op);
            }
            done.add_permits(1);
        });
    }
}

/// Slots each per-connection file is divided into; an op's offset is
/// its tenant hashed onto a slot, so hot tenants hit hot file ranges.
const FILE_SLOTS: u64 = 128;

/// Run one open-loop scenario on `bed` (an RDMA bed, single-server or
/// replicated) inside a fresh simulation.
pub fn run_openloop(
    seed: u64,
    bed: &Bed,
    params: OpenLoopParams,
    capture: Capture,
) -> Run<OpenLoopResult> {
    let spec = *bed;
    scenario::run(seed, capture, |sim| async move {
        run_inner(&sim, &spec, params).await
    })
}

async fn run_inner(sim: &Sim, spec: &Bed, params: OpenLoopParams) -> OpenLoopResult {
    let bed: Testbed = spec.build(sim).await;
    let rpc = bed.rpc_server.clone().expect("rdma testbed");
    let connections = spec.clients;

    // Tenant weights: connection i is server tenant (peer node) i+1.
    for i in 0..connections {
        let w = if params.hog_rate > 0.0 && i == 0 {
            1
        } else {
            params.honest_weight
        };
        rpc.set_tenant_weight(i as u32 + 1, w);
    }

    // Prepopulate one file per connection so READs always hit.
    let io = params.mix.io_size;
    let root = bed.server.root_handle();
    let mut handles: Vec<FileHandle> = Vec::new();
    let mut read_bufs = Vec::new();
    let mut write_bufs = Vec::new();
    for (ci, client) in bed.clients.iter().enumerate() {
        let f = client
            .nfs
            .create(root, &format!("ol-{ci}"))
            .await
            .expect("create");
        let fh = f.handle();
        let buf = client.mem.alloc(io);
        buf.write(0, Payload::synthetic(0x09E4 + ci as u64, io));
        for slot in 0..FILE_SLOTS {
            client
                .nfs
                .write(fh, slot * io, &buf, 0, io as u32, false)
                .await
                .expect("prepopulate");
        }
        client.nfs.commit(fh).await.expect("prepopulate commit");
        handles.push(fh);
        write_bufs.push(buf);
        read_bufs.push(client.mem.alloc(io));
    }

    // Deep small-file tree for the metadata personalities: a
    // META_DEPTH-long directory chain per connection, each level
    // holding META_FILES_PER_DIR 512-byte files. Skipped entirely for
    // mixes with no metadata share, so pre-metadata runs replay
    // byte-identically.
    let mut meta: Vec<MetaTree> = Vec::new();
    if params.mix.meta_pct() > 0 {
        for (ci, client) in bed.clients.iter().enumerate() {
            let mut dirs = Vec::new();
            let mut files = Vec::new();
            let small = client.mem.alloc(META_FILE_BYTES);
            small.write(0, Payload::synthetic(0x3E7A + ci as u64, META_FILE_BYTES));
            let mut parent = root;
            for d in 0..META_DEPTH {
                let dir = client
                    .nfs
                    .mkdir(parent, &format!("md{ci}-{d}"))
                    .await
                    .expect("meta mkdir")
                    .handle();
                for f in 0..META_FILES_PER_DIR {
                    let name = format!("f{f:02}");
                    let fh = client
                        .nfs
                        .create(dir, &name)
                        .await
                        .expect("meta create")
                        .handle();
                    client
                        .nfs
                        .write(fh, 0, &small, 0, META_FILE_BYTES as u32, true)
                        .await
                        .expect("meta write");
                    files.push((dir, name, fh));
                }
                dirs.push(dir);
                parent = dir;
            }
            meta.push(MetaTree { dirs, files });
        }
    }

    let shared = Rc::new(Shared {
        samples: RefCell::new(Vec::new()),
        outstanding: (0..connections).map(|_| Cell::new(0)).collect(),
        offered: Cell::new(0),
        offered_digest: Cell::new(FNV_BASIS),
        client_sheds: Cell::new(0),
        overload_failures: Cell::new(0),
        other_errors: Cell::new(0),
        stop: Cell::new(false),
    });

    let start = sim.now();
    let t_end = start + params.duration;

    let probes = params.timeline.then(|| {
        let (stopped, shared, rpc) = (shared.clone(), shared.clone(), rpc.clone());
        Timeline::sample(
            sim,
            move || stopped.stop.get(),
            move || {
                vec![
                    shared.outstanding.iter().map(|c| c.get() as u64).sum(),
                    rpc.qos_depth() as u64,
                    rpc.stats.sheds.get(),
                    shared.client_sheds.get(),
                ]
            },
        )
    });

    let ctx = Rc::new(OpCtx {
        sim: sim.clone(),
        nfs: bed.clients.iter().map(|c| c.nfs.clone()).collect(),
        handles,
        read_bufs,
        write_bufs,
        io,
        meta,
        mix: params.mix,
        t_end,
        room: params.waiting_room,
        shared: shared.clone(),
    });

    // Honest arrivals: hog mode reserves connection 0 for the hog.
    let honest_conns: Vec<usize> = if params.hog_rate > 0.0 && connections > 1 {
        (1..connections).collect()
    } else {
        (0..connections).collect()
    };

    let done = sim_core::sync::Semaphore::new(0);
    let mut waited = 0u32;
    match params.arrival {
        Arrival::Poisson { rate } => {
            let zipf = Zipf::new(TENANTS, ZIPF_THETA);
            let aim = move |rng: &mut SimRng| {
                let tenant = zipf.draw(rng);
                (honest_conns[tenant as usize % honest_conns.len()], tenant)
            };
            waited += 1;
            ctx.spawn_arrivals(rate, aim, &done);
        }
        Arrival::ClosedLoop { workers } => {
            for conn in 0..connections {
                for w in 0..workers.max(1) {
                    let mut rng = sim.fork_rng();
                    let sim2 = sim.clone();
                    let ctx2 = ctx.clone();
                    let mix = params.mix;
                    let done2 = done.clone();
                    waited += 1;
                    sim.spawn(async move {
                        // Closed-loop: each worker awaits its own op,
                        // so offered load self-limits to capacity.
                        let tenant = (conn as u32) * 1000 + w;
                        while sim2.now() < t_end {
                            let shared2 = &ctx2.shared;
                            shared2.offered.set(shared2.offered.get() + 1);
                            shared2.outstanding[conn].set(shared2.outstanding[conn].get() + 1);
                            ctx2.run_op(conn, tenant, mix.draw(&mut rng)).await;
                        }
                        done2.add_permits(1);
                    });
                }
            }
        }
    }

    // The hog: a second open-loop process aimed only at connection 0.
    if params.hog_rate > 0.0 {
        waited += 1;
        ctx.spawn_arrivals(params.hog_rate, |_| (0, 0), &done);
    }

    for _ in 0..waited {
        done.acquire().await.forget();
    }
    // Drain window: let in-flight ops finish (or not — collapse mode
    // keeps a backlog far past any reasonable grace).
    sim.sleep(params.grace).await;
    shared.stop.set(true);
    bed.stop();
    let elapsed = sim.now() - start;
    let unfinished: u64 = shared.outstanding.iter().map(|c| c.get() as u64).sum();

    // Percentiles: everyone, and the honest and hog populations apart.
    let samples = shared.samples.borrow();
    let hog_active = params.hog_rate > 0.0 && connections > 1;
    let sorted_latencies = |of: &dyn Fn(usize) -> bool| {
        let picked = samples.iter().filter(|(conn, _)| of(*conn));
        let mut lat: Vec<SimDuration> = picked.map(|(_, c)| c.latency()).collect();
        lat.sort();
        lat
    };
    let all = sorted_latencies(&|_| true);
    let honest = sorted_latencies(&|conn| !hog_active || conn != 0);
    let hog = sorted_latencies(&|conn| hog_active && conn == 0);

    let ops: Vec<Completion> = samples.iter().map(|(_, c)| *c).collect();
    let in_window: Vec<&Completion> = ops.iter().filter(|c| c.end <= t_end).collect();
    let window_secs = params.duration.as_nanos() as f64 / 1e9;
    let window_bytes: u64 = in_window.iter().map(|c| c.bytes).sum();

    let timeline = probes.map_or_else(Timeline::default, |probes| {
        let probes = probes.borrow();
        Timeline::build(start, "completions", &ops, &TIMELINE_GAUGES, &probes)
    });

    OpenLoopResult {
        offered: shared.offered.get(),
        offered_digest: shared.offered_digest.get(),
        completed: samples.len() as u64,
        completed_in_window: in_window.len() as u64,
        client_sheds: shared.client_sheds.get(),
        overload_failures: shared.overload_failures.get(),
        other_errors: shared.other_errors.get(),
        unfinished,
        qos_peak_depth: rpc.stats.qos_peak_depth.get(),
        goodput_ops: in_window.len() as f64 / window_secs,
        goodput_mbps: window_bytes as f64 / window_secs / 1e6,
        p50_us: percentile_us(&all, 0.50),
        p99_us: percentile_us(&all, 0.99),
        max_us: all.last().map_or(0, |d| d.as_micros()),
        honest_p99_us: percentile_us(&honest, 0.99),
        hog_p99_us: percentile_us(&hog, 0.99),
        honest_completed: honest.len() as u64,
        hog_completed: hog.len() as u64,
        elapsed_us: elapsed.as_micros(),
        timeline,
    }
}
