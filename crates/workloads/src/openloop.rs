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
//! The generator draws inter-arrival gaps from a Poisson (or on/off
//! bursty) process, picks one of thousands of simulated tenants by a
//! Zipf popularity draw, maps the tenant onto one of the mounted
//! client connections, and fires the op without waiting for it. A
//! bounded per-connection waiting room models the client host's own
//! admission limit: arrivals finding it full are counted as
//! client-side sheds rather than queued forever (set it to 0 to model
//! the fully patient open queue that demonstrates collapse). A
//! closed-loop arrival mode reuses the same op mix to probe raw
//! capacity — the denominator of the load sweep's x axis.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sim_core::{FlightRecord, Payload, Sim, SimDuration, SimRng, SimTime, Simulation};

use ib_verbs::Buffer;
use nfs::{FileHandle, NfsClient, NfsError};
use onc_rpc::{RpcError, TransportError};
use rpcrdma::{Design, RfpConfig, StrategyKind};

use crate::chaos::fingerprint;
use crate::profiles::Profile;
use crate::testbed::{build_rdma_custom, Backend, RdmaOpts, Testbed};

/// How arrivals are generated.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Open-loop Poisson arrivals at `rate` ops/s.
    Poisson {
        /// Offered load, ops per second.
        rate: f64,
    },
    /// Open-loop on/off bursts: Poisson at `rate` during `on`, silent
    /// during `off` — same mean gap inside a burst, harder tail.
    Bursty {
        /// Offered load during a burst, ops per second.
        rate: f64,
        /// Burst length.
        on: SimDuration,
        /// Gap between bursts.
        off: SimDuration,
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

    /// Web-server personality: path resolution (LOOKUP + ACCESS per
    /// component) dominating, small reads, no writes.
    pub fn webserver() -> OpMix {
        OpMix {
            getattr_pct: 15,
            lookup_pct: 35,
            readdir_pct: 5,
            access_pct: 25,
            read_pct: 20,
            write_pct: 0,
            io_size: 4096,
        }
    }

    /// Pure metadata storm: every op is a small-reply NFS call — the
    /// RFP ablation's best case (no READ/WRITE bulk traffic at all).
    pub fn stat_storm() -> OpMix {
        OpMix {
            getattr_pct: 50,
            lookup_pct: 30,
            readdir_pct: 0,
            access_pct: 20,
            read_pct: 0,
            write_pct: 0,
            io_size: 4096,
        }
    }

    /// Combined share of the ops that need the metadata tree.
    pub fn meta_pct(&self) -> u32 {
        self.lookup_pct + self.readdir_pct + self.access_pct
    }
}

/// Parameters of one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopParams {
    /// Bulk-transfer design.
    pub design: Design,
    /// Registration strategy (both sides).
    pub strategy: StrategyKind,
    /// Mounted client connections (server tenants).
    pub connections: usize,
    /// Simulated tenant population behind the connections.
    pub tenants: u32,
    /// Zipf skew of tenant popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Per-tenant op mix.
    pub mix: OpMix,
    /// Arrival window (measurement interval).
    pub duration: SimDuration,
    /// Extra drain time after arrivals stop; ops still pending at the
    /// end of it are counted [`OpenLoopResult::unfinished`].
    pub grace: SimDuration,
    /// Server-side overload control ([`rpcrdma::qos`]) on/off.
    pub qos: bool,
    /// Per-connection waiting room: open-loop arrivals finding this
    /// many ops already outstanding on the connection are shed
    /// client-side. 0 = unbounded (the patient queue that collapses).
    pub waiting_room: u32,
    /// Extra open-loop Poisson load, ops/s, aimed entirely at
    /// connection 0 (the hog). 0 disables; when set, honest arrivals
    /// use only connections 1.. so the hog's tenant is isolated.
    pub hog_rate: f64,
    /// QoS weight for the hog's tenant (connection 0).
    pub hog_weight: u32,
    /// QoS weight for honest tenants.
    pub honest_weight: u32,
    /// Sample the streaming telemetry timeline.
    pub timeline: bool,
    /// Record a trace and return its FNV-1a fingerprint.
    pub fingerprint: bool,
    /// The RFP reply-slot fast path on the run's transport config
    /// ([`rpcrdma::RpcRdmaConfig::rfp`]; `None` = off).
    pub rfp: Option<RfpConfig>,
}

impl Default for OpenLoopParams {
    fn default() -> Self {
        OpenLoopParams {
            design: Design::ReadWrite,
            strategy: StrategyKind::AllPhysical,
            connections: 4,
            tenants: 2000,
            zipf_theta: 0.9,
            arrival: Arrival::Poisson { rate: 20_000.0 },
            mix: OpMix::oltp(),
            duration: SimDuration::from_millis(100),
            grace: SimDuration::from_millis(20),
            qos: true,
            waiting_room: 64,
            hog_rate: 0.0,
            hog_weight: 1,
            honest_weight: 1,
            timeline: false,
            fingerprint: false,
            rfp: None,
        }
    }
}

/// One bucket of the load-sweep telemetry timeline
/// ([`crate::TIMELINE_BUCKET_US`] of virtual time each).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadBucket {
    /// Bucket start, virtual µs.
    pub t_us: u64,
    /// Ops completing in the bucket.
    pub completions: u64,
    /// Goodput over the bucket, MB/s (READ+WRITE payload bytes).
    pub goodput_mbps: f64,
    /// 99th-percentile latency of ops completing in the bucket, µs.
    pub p99_us: u64,
    /// Ops outstanding (all connections) at the sample point.
    pub in_flight: u64,
    /// Server QoS dispatch-queue depth at the sample point.
    pub queue_depth: u64,
    /// Cumulative server sheds (arrival + deadline) at the sample
    /// point.
    pub server_sheds: u64,
    /// Cumulative client-side waiting-room sheds at the sample point.
    pub client_sheds: u64,
}

/// What one open-loop run produced.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopResult {
    /// Arrivals generated (including ones shed client-side).
    pub offered: u64,
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
    /// Server-side sheds (busy replies sent).
    pub server_sheds: u64,
    /// Of those, sheds at dispatch for missing the sojourn target.
    pub deadline_sheds: u64,
    /// Busy replies observed by clients (includes retransmit dupes).
    pub busy_replies: u64,
    /// High-water mark of the server QoS queue depth.
    pub qos_peak_depth: u64,
    /// Credit-grant clamps charged to hogs.
    pub credit_clamps: u64,
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
    /// RPC operations the server executed during the measurement
    /// phase (prepopulation traffic excluded).
    pub server_ops: u64,
    /// Server HCA doorbell rings over the measurement phase.
    pub server_doorbells: u64,
    /// Server HCA completion interrupts over the measurement phase.
    pub server_interrupts: u64,
    /// Replies deposited into RFP reply slots (0 with `rfp` off).
    pub rfp_deposits: u64,
    /// RFP-marked calls whose replies fell back to Send.
    pub rfp_fallbacks: u64,
    /// Telemetry timeline (empty unless [`OpenLoopParams::timeline`]).
    pub timeline: Vec<LoadBucket>,
    /// Flight-recorder snapshot (always captured).
    pub flight: Vec<FlightRecord>,
    /// Full metrics-registry dump, byte-identical across same-seed
    /// runs.
    pub metrics_snapshot: Vec<(String, u64)>,
    /// FNV-1a trace fingerprint (0 when tracing is off).
    pub fingerprint: u64,
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
        let mut edge = self.getattr_pct;
        if p < edge {
            return Op::Getattr;
        }
        edge += self.lookup_pct;
        if p < edge {
            return Op::Lookup;
        }
        edge += self.readdir_pct;
        if p < edge {
            return Op::Readdir;
        }
        edge += self.access_pct;
        if p < edge {
            return Op::Access;
        }
        if p < edge + self.read_pct {
            Op::Read
        } else {
            Op::Write
        }
    }
}

/// One completed op.
#[derive(Clone, Copy)]
struct OpSample {
    conn: usize,
    start: SimTime,
    end: SimTime,
    bytes: u64,
}

/// Shared mutable state between the arrival processes, op tasks, and
/// the telemetry sampler.
struct Shared {
    samples: RefCell<Vec<OpSample>>,
    outstanding: Vec<Cell<u32>>,
    offered: Cell<u64>,
    client_sheds: Cell<u64>,
    overload_failures: Cell<u64>,
    other_errors: Cell<u64>,
    stop: Cell<bool>,
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
            Ok(bytes) => self.shared.samples.borrow_mut().push(OpSample {
                conn,
                start: t0,
                end: self.sim.now(),
                bytes,
            }),
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
}

/// Slots each per-connection file is divided into; an op's offset is
/// its tenant hashed onto a slot, so hot tenants hit hot file ranges.
const FILE_SLOTS: u64 = 128;

/// Run one open-loop scenario inside a fresh simulation.
pub fn run_openloop(seed: u64, profile: &Profile, params: OpenLoopParams) -> OpenLoopResult {
    let mut sim = Simulation::new(seed);
    if params.fingerprint {
        sim.enable_tracing();
    }
    let h = sim.handle();
    let profile = *profile;
    let mut result = sim.block_on(async move { run_inner(&h, &profile, params).await });
    if params.fingerprint {
        result.fingerprint = fingerprint(&sim.take_trace());
    }
    result.flight = sim.flight_records();
    result.metrics_snapshot = sim.metrics().snapshot();
    result
}

async fn run_inner(sim: &Sim, profile: &Profile, params: OpenLoopParams) -> OpenLoopResult {
    let mut cfg = profile.rpc.with_design(params.design);
    cfg.qos_enabled = params.qos;
    cfg.rfp = params.rfp;
    let bed: Rc<Testbed> = Rc::new(build_rdma_custom(
        sim,
        profile,
        RdmaOpts {
            cfg,
            client_strategy: params.strategy,
            server_strategy: params.strategy,
            server_hca: None,
        },
        Backend::Tmpfs,
        params.connections,
    ));
    let rpc = bed.rpc_server.clone().expect("rdma testbed");

    // Tenant weights: connection i is server tenant (peer node) i+1.
    if params.qos {
        for i in 0..params.connections {
            let w = if params.hog_rate > 0.0 && i == 0 {
                params.hog_weight
            } else {
                params.honest_weight
            };
            rpc.set_tenant_weight(i as u32 + 1, w);
        }
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

    // Per-op server rates cover the measurement phase only: snapshot
    // the counters the prepopulation traffic already burned.
    let (doorbells0, interrupts0) = bed
        .server_hca
        .as_ref()
        .map_or((0, 0), |h| (h.doorbells(), h.cq_interrupts()));
    let ops0 = rpc.stats.ops.get();
    let deposits0 = rpc.stats.rfp_deposits.get();
    let fallbacks0 = rpc.stats.rfp_fallback_sends.get();

    let shared = Rc::new(Shared {
        samples: RefCell::new(Vec::new()),
        outstanding: (0..params.connections).map(|_| Cell::new(0)).collect(),
        offered: Cell::new(0),
        client_sheds: Cell::new(0),
        overload_failures: Cell::new(0),
        other_errors: Cell::new(0),
        stop: Cell::new(false),
    });

    let start = sim.now();
    let t_end = start + params.duration;

    // Streaming telemetry sampler (PR-8 pattern: one deterministic
    // probe per bucket reading shared counters only).
    let probes = Rc::new(RefCell::new(Vec::<Probe>::new()));
    if params.timeline {
        let sim2 = sim.clone();
        let rpc2 = rpc.clone();
        let shared2 = shared.clone();
        let probes2 = probes.clone();
        sim.spawn(async move {
            loop {
                sim2.sleep(SimDuration::from_micros(crate::TIMELINE_BUCKET_US))
                    .await;
                if shared2.stop.get() {
                    break;
                }
                probes2.borrow_mut().push(Probe {
                    at: sim2.now(),
                    in_flight: shared2.outstanding.iter().map(|c| c.get() as u64).sum(),
                    queue_depth: rpc2.qos_depth() as u64,
                    server_sheds: rpc2.stats.sheds.get(),
                    client_sheds: shared2.client_sheds.get(),
                });
            }
        });
    }

    let ctx = Rc::new(OpCtx {
        sim: sim.clone(),
        nfs: bed.clients.iter().map(|c| c.nfs.clone()).collect(),
        handles,
        read_bufs,
        write_bufs,
        io,
        meta,
        shared: shared.clone(),
    });

    // Honest arrivals: hog mode reserves connection 0 for the hog.
    let honest_conns: Vec<usize> = if params.hog_rate > 0.0 && params.connections > 1 {
        (1..params.connections).collect()
    } else {
        (0..params.connections).collect()
    };

    let done = sim_core::sync::Semaphore::new(0);
    let mut waited = 0u32;
    match params.arrival {
        Arrival::Poisson { rate } | Arrival::Bursty { rate, .. } => {
            let bursts = match params.arrival {
                Arrival::Bursty { on, off, .. } => Some((on, off)),
                _ => None,
            };
            let zipf = Rc::new(Zipf::new(params.tenants.max(1), params.zipf_theta));
            let mut rng = sim.fork_rng();
            let sim2 = sim.clone();
            let ctx2 = ctx.clone();
            let (mix, room) = (params.mix, params.waiting_room);
            let done2 = done.clone();
            waited += 1;
            sim.spawn(async move {
                let mut burst_left = bursts.map(|(on, _)| sim2.now() + on);
                while sim2.now() < t_end {
                    let gap = rng.gen_exp(1e9 / rate.max(1.0)); // ns
                    sim2.sleep(SimDuration::from_nanos((gap as u64).max(1)))
                        .await;
                    if sim2.now() >= t_end {
                        break;
                    }
                    if let (Some((on, off)), Some(until)) = (bursts, burst_left.as_mut()) {
                        if sim2.now() >= *until {
                            sim2.sleep(off).await;
                            *until = sim2.now() + on;
                            if sim2.now() >= t_end {
                                break;
                            }
                        }
                    }
                    let tenant = zipf.draw(&mut rng);
                    let conn = honest_conns[tenant as usize % honest_conns.len()];
                    let shared2 = &ctx2.shared;
                    shared2.offered.set(shared2.offered.get() + 1);
                    if room > 0 && shared2.outstanding[conn].get() >= room {
                        shared2.client_sheds.set(shared2.client_sheds.get() + 1);
                        continue;
                    }
                    shared2.outstanding[conn].set(shared2.outstanding[conn].get() + 1);
                    ctx2.fire(conn, tenant, mix.draw(&mut rng));
                }
                done2.add_permits(1);
            });
        }
        Arrival::ClosedLoop { workers } => {
            for conn in 0..params.connections {
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
        let mut rng = sim.fork_rng();
        let sim2 = sim.clone();
        let ctx2 = ctx.clone();
        let (mix, room, rate) = (params.mix, params.waiting_room, params.hog_rate);
        let done2 = done.clone();
        waited += 1;
        sim.spawn(async move {
            while sim2.now() < t_end {
                let gap = rng.gen_exp(1e9 / rate.max(1.0));
                sim2.sleep(SimDuration::from_nanos((gap as u64).max(1)))
                    .await;
                if sim2.now() >= t_end {
                    break;
                }
                let shared2 = &ctx2.shared;
                shared2.offered.set(shared2.offered.get() + 1);
                if room > 0 && shared2.outstanding[0].get() >= room {
                    shared2.client_sheds.set(shared2.client_sheds.get() + 1);
                    continue;
                }
                shared2.outstanding[0].set(shared2.outstanding[0].get() + 1);
                ctx2.fire(0, 0, mix.draw(&mut rng));
            }
            done2.add_permits(1);
        });
    }

    for _ in 0..waited {
        done.acquire().await.forget();
    }
    // Drain window: let in-flight ops finish (or not — collapse mode
    // keeps a backlog far past any reasonable grace).
    sim.sleep(params.grace).await;
    shared.stop.set(true);
    let elapsed = sim.now() - start;
    let unfinished: u64 = shared.outstanding.iter().map(|c| c.get() as u64).sum();

    // Percentiles.
    let samples = shared.samples.borrow();
    let pick = |lat: &[SimDuration], q: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let i = ((lat.len() - 1) as f64 * q) as usize;
        lat[i].as_micros()
    };
    let mut all: Vec<SimDuration> = samples.iter().map(|s| s.end - s.start).collect();
    all.sort();
    let hog_active = params.hog_rate > 0.0 && params.connections > 1;
    let mut honest: Vec<SimDuration> = samples
        .iter()
        .filter(|s| !hog_active || s.conn != 0)
        .map(|s| s.end - s.start)
        .collect();
    honest.sort();
    let mut hog: Vec<SimDuration> = if hog_active {
        samples
            .iter()
            .filter(|s| s.conn == 0)
            .map(|s| s.end - s.start)
            .collect()
    } else {
        Vec::new()
    };
    hog.sort();

    let in_window: Vec<&OpSample> = samples.iter().filter(|s| s.end <= t_end).collect();
    let window_secs = params.duration.as_nanos() as f64 / 1e9;
    let window_bytes: u64 = in_window.iter().map(|s| s.bytes).sum();

    let timeline = if params.timeline {
        build_load_timeline(&samples, &probes.borrow(), start)
    } else {
        Vec::new()
    };

    let series = |name| sim.metrics().get(name).unwrap_or(0);
    let busy_replies = series("client.busy_replies");
    let deadline_sheds = series("server.qos.shed.deadline");

    OpenLoopResult {
        offered: shared.offered.get(),
        completed: samples.len() as u64,
        completed_in_window: in_window.len() as u64,
        client_sheds: shared.client_sheds.get(),
        overload_failures: shared.overload_failures.get(),
        other_errors: shared.other_errors.get(),
        unfinished,
        server_sheds: rpc.stats.sheds.get(),
        deadline_sheds,
        busy_replies,
        qos_peak_depth: rpc.stats.qos_peak_depth.get(),
        credit_clamps: rpc.stats.credit_clamps.get(),
        goodput_ops: in_window.len() as f64 / window_secs,
        goodput_mbps: window_bytes as f64 / window_secs / 1e6,
        p50_us: pick(&all, 0.50),
        p99_us: pick(&all, 0.99),
        max_us: all.last().map_or(0, |d| d.as_micros()),
        honest_p99_us: pick(&honest, 0.99),
        hog_p99_us: pick(&hog, 0.99),
        honest_completed: honest.len() as u64,
        hog_completed: hog.len() as u64,
        elapsed_us: elapsed.as_micros(),
        server_ops: rpc.stats.ops.get() - ops0,
        server_doorbells: bed
            .server_hca
            .as_ref()
            .map_or(0, |h| h.doorbells() - doorbells0),
        server_interrupts: bed
            .server_hca
            .as_ref()
            .map_or(0, |h| h.cq_interrupts() - interrupts0),
        rfp_deposits: rpc.stats.rfp_deposits.get() - deposits0,
        rfp_fallbacks: rpc.stats.rfp_fallback_sends.get() - fallbacks0,
        timeline,
        flight: Vec::new(),
        metrics_snapshot: Vec::new(),
        fingerprint: 0,
    }
}

/// One sampler probe of the shared load counters.
#[derive(Clone, Copy)]
struct Probe {
    at: SimTime,
    in_flight: u64,
    queue_depth: u64,
    server_sheds: u64,
    client_sheds: u64,
}

/// Merge completion samples and probes into the fixed-width timeline.
fn build_load_timeline(ops: &[OpSample], probes: &[Probe], start: SimTime) -> Vec<LoadBucket> {
    let width_us = crate::TIMELINE_BUCKET_US;
    let end = ops
        .iter()
        .map(|s| s.end)
        .chain(probes.iter().map(|p| p.at))
        .max()
        .unwrap_or(start);
    let n = ((end - start).as_micros() / width_us + 1) as usize;
    let mut out: Vec<LoadBucket> = (0..n)
        .map(|i| LoadBucket {
            t_us: i as u64 * width_us,
            ..LoadBucket::default()
        })
        .collect();
    let mut lats: Vec<Vec<SimDuration>> = vec![Vec::new(); n];
    for s in ops {
        let i = ((s.end - start).as_micros() / width_us) as usize;
        out[i].completions += 1;
        out[i].goodput_mbps += s.bytes as f64;
        lats[i].push(s.end - s.start);
    }
    let bucket_secs = width_us as f64 / 1e6;
    for (b, mut l) in out.iter_mut().zip(lats) {
        b.goodput_mbps = b.goodput_mbps / bucket_secs / 1e6;
        l.sort();
        if !l.is_empty() {
            b.p99_us = l[(l.len() - 1) * 99 / 100].as_micros();
        }
    }
    let mut pi = 0;
    let mut last: Option<Probe> = None;
    for (i, b) in out.iter_mut().enumerate() {
        while pi < probes.len() && ((probes[pi].at - start).as_micros() / width_us) as usize <= i {
            last = Some(probes[pi]);
            pi += 1;
        }
        if let Some(p) = last {
            b.in_flight = p.in_flight;
            b.queue_depth = p.queue_depth;
            b.server_sheds = p.server_sheds;
            b.client_sheds = p.client_sheds;
        }
    }
    out
}

/// Render the timeline as CSV (forensics artifact).
pub fn load_timeline_csv(tl: &[LoadBucket]) -> String {
    let mut s = String::from(
        "t_us,completions,goodput_mbps,p99_us,in_flight,queue_depth,server_sheds,client_sheds\n",
    );
    for b in tl {
        s.push_str(&format!(
            "{},{},{:.2},{},{},{},{},{}\n",
            b.t_us,
            b.completions,
            b.goodput_mbps,
            b.p99_us,
            b.in_flight,
            b.queue_depth,
            b.server_sheds,
            b.client_sheds
        ));
    }
    s
}
