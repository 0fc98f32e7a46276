//! Adversarial-client harness: honest clients racing hostile ones.
//!
//! Attaches `M` attacker nodes to the testbed alongside `N` honest
//! clients and drives the full attack catalog against the server while
//! the honest clients run a write/commit/read-verify workload:
//!
//! * **garbage headers** — byte soup where an RPC/RDMA header belongs;
//! * **crafted chunk lists** — segment counts past the sanitizer cap,
//!   zero-length segments, overlapping write segments, multi-GiB
//!   advertised totals, absurd credit requests;
//! * **XID replay** — the same call sent twice (exercises the DRC);
//! * **credit overcommit** — a burst far past the granted window;
//! * **withheld `RDMA_DONE`** (Read-Read) — genuine READ calls whose
//!   exposures the attacker never pulls nor releases, pinning server
//!   buffers until the server revokes them at their deadline;
//! * **stale steering tags** — RDMA Reads against rkeys captured from
//!   earlier replies, one attacker pause later, when the deadline
//!   should have killed them. A probe that *succeeds* is a real data
//!   leak and is counted separately;
//!
//! The run is fully deterministic under [`sim_core::SimRng`]; the
//! result carries the honest clients' goodput (compare against an
//! `attackers: 0` baseline to bound degradation), every violation and
//! revocation counter, and the read-back corruption count (must be
//! zero: attacks may slow honest clients, never corrupt them).

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use ib_verbs::{connect, Buffer, Hca, HostMem, NodeId, Qp, Rkey, WrId};
use nfs::proto::{FileHandle, ReadArgs};
use onc_rpc::msg::{encode_call, CallHeader};
use rpcrdma::client::RECONNECT_DELAY;
use rpcrdma::sanitize::MAX_CHUNK_SEGMENTS;
use rpcrdma::{MsgType, RdmaHeader, RdmaRpcServer, ReadChunk, RpcRdmaConfig, Segment};
use sim_core::{Payload, Sim, SimDuration, SimRng};
use xdr::{Encoder, XdrCodec};

use crate::scenario::{self, Capture, Run, WriterSpec};
use crate::testbed::{host, Bed, Nic, Testbed};

/// How long an attacker sits between catalog rounds: the captured
/// steering tags age this long before they are probed, and the attack
/// spreads over the whole honest workload instead of front-loading.
const ATTACK_PAUSE: SimDuration = SimDuration::from_micros(400);

/// How long a run waits, once the attackers are done, for the server
/// to revoke what they left exposed.
const GRACE: SimDuration = SimDuration::from_millis(20);

/// Parameters of one adversary run. The bed's clients are the honest
/// ones.
#[derive(Clone, Copy, Debug)]
pub struct AdversaryParams {
    /// Attacker hosts (0 = baseline run).
    pub attackers: usize,
    /// Records each honest client writes, then reads back.
    pub records_per_client: u64,
    /// Record size in bytes; above the inline threshold so honest
    /// traffic exercises the bulk (chunk) path the attacks target.
    pub record: u64,
    /// Catalog iterations per attacker (each round fires every attack
    /// in the catalog once).
    pub attack_rounds: u64,
}

impl Default for AdversaryParams {
    fn default() -> Self {
        AdversaryParams {
            attackers: 2,
            records_per_client: 24,
            record: 8192,
            attack_rounds: 6,
        }
    }
}

/// What one adversary run produced. What the defenses did is in the
/// run's registry: `server.violations.total` (charged by the
/// sanitizer), `server.quarantines`, `server.credit_clamps`,
/// `server.exposures.revoked` (at an overdue `RDMA_DONE` or a teardown;
/// must equal the TPT ledger's `tpt.revocations`), `tpt.violations`
/// (rkey probes refused with a NAK), `server.ops`, `server.drc.replays`,
/// `tpt.node0.exposed_byte_us` (closed exposure windows) and
/// `server.node0.exposures_pending` (still pinned when the run ended).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdversaryResult {
    /// Bytes × time the server's memory sat remotely readable (byte·µs),
    /// windows still open at the end included.
    pub exposed_byte_us: u64,
    /// Attack messages the attackers fired.
    pub attack_probes: u64,
    /// Attacker reconnects (each quarantine/self-destruct costs one).
    pub attacker_reconnects: u64,
    /// Stale-rkey probes that *succeeded* — server memory read through
    /// a steering tag that should have been dead. The leak metric.
    pub stale_reads_ok: u64,
    /// Stale-rkey probes refused with a NAK.
    pub stale_reads_refused: u64,
    /// Phys-scan probes that succeeded: a captured steering tag read
    /// the *bottom* of the server's memory. Only the all-physical
    /// strategy's global rkey can do this; it is the paper's argument
    /// against all-physical registration, measured.
    pub scan_reads_ok: u64,
    /// Honest records whose read-back bytes differed from what was
    /// written (must be zero).
    pub corrupt_records: u64,
    /// Honest application bytes moved (writes + verified reads).
    pub honest_bytes: u64,
    /// Virtual time from workload start to the last honest completion.
    pub elapsed: SimDuration,
    /// Honest goodput in MB/s of virtual time.
    pub goodput_mb_s: f64,
}

/// Run one adversary workload on `bed` (a single-server RDMA bed)
/// inside a fresh simulation.
pub fn run_adversary(
    seed: u64,
    bed: &Bed,
    params: AdversaryParams,
    capture: Capture,
) -> Run<AdversaryResult> {
    let spec = *bed;
    scenario::run(seed, capture, |sim| async move {
        run_inner(&sim, &spec, params).await
    })
}

/// Shared attacker accounting.
#[derive(Default)]
struct Ledger {
    probes: Cell<u64>,
    reconnects: Cell<u64>,
    stale_ok: Cell<u64>,
    stale_refused: Cell<u64>,
    scan_ok: Cell<u64>,
}

fn bump(count: &Cell<u64>) {
    count.set(count.get() + 1);
}

/// Bottom of the simulated server's virtual address space: the first
/// host allocations (long-lived server state) land here, so a global
/// rkey lets the scan probe read memory no RPC ever exposed.
const SCAN_BASE: u64 = 0x1000_0000;

/// What a steering-tag probe is aimed at.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProbeKind {
    /// A captured tag at its advertised address, one pause later.
    Stale,
    /// A random rkey nobody ever advertised.
    Guess,
    /// A captured tag aimed at the bottom of the server's memory —
    /// under all-physical registration the captured tag is the global
    /// rkey, so this reads live server state that was never exposed.
    Scan,
}

async fn run_inner(sim: &Sim, spec: &Bed, params: AdversaryParams) -> AdversaryResult {
    let bed: Testbed = spec.build(sim).await;
    let server_hca = bed.server_hca.as_ref().expect("rdma testbed").clone();
    let rpc_server = bed.rpc_server.as_ref().expect("rdma testbed").clone();
    let cfg = spec.profile.rpc;

    // Bait: a real file the attackers will READ (and then sit on the
    // exposure). Created through the honest path before the clock that
    // matters starts.
    let root = bed.server.root_handle();
    let victim = bed.clients[0]
        .nfs
        .create(root, "victim.bin")
        .await
        .expect("create victim file");
    let victim_fh = victim.handle();
    bed.fs
        .write(
            fs_backend::FileId(victim_fh.0),
            0,
            Payload::synthetic(0xBA17, 1 << 20),
        )
        .await
        .expect("prepopulate victim file");

    let attackers_done = sim_core::sync::Semaphore::new(0);
    let ledger = Rc::new(Ledger::default());

    // Attackers: their own hosts (nodes honest+1..), their own HCAs.
    let fabric = bed.fabric.as_ref().expect("rdma testbed");
    for a in 0..params.attackers {
        let node = NodeId((spec.clients + 1 + a) as u32);
        let (name, nic) = (
            format!("attacker{a}-cpu"),
            Nic::Hca(fabric, spec.profile.hca),
        );
        let h = host(sim, &spec.profile, node, name, false, nic);
        let rng = sim.fork_rng();
        let t = AttackerTask {
            sim: sim.clone(),
            hca: h.hca.expect("an RDMA host has an HCA"),
            server_hca: server_hca.clone(),
            rpc_server: rpc_server.clone(),
            mem: h.mem.expect("an RDMA host holds memory"),
            cfg,
            victim: victim_fh,
            rounds: params.attack_rounds,
            done: attackers_done.clone(),
            ledger: ledger.clone(),
        };
        sim.spawn(async move {
            t.run(rng).await;
        });
    }

    // Honest workload: write/commit/read-verify, seeded payloads.
    let start = sim.now();
    let writers = WriterSpec {
        prefix: "honest",
        records: params.records_per_client,
        record: params.record,
        seed_base: 1,
        commit_every: 0,
    };
    let corrupt_records =
        scenario::verified_writers(sim, &bed.clients, root, writers, &Default::default()).await;
    let elapsed = sim.now() - start;

    // Let the attackers finish the catalog (goodput is already
    // measured), age the last withheld exposure one pause like the
    // others, then wait — within the grace — until the server has
    // revoked every exposure they left behind.
    for _ in 0..params.attackers {
        attackers_done.acquire().await.forget();
    }
    let pending = &rpc_server.stats.exposures_pending;
    let give_up = sim.now() + GRACE;
    sim.sleep(ATTACK_PAUSE).await;
    while pending.get() > 0 && sim.now() < give_up {
        sim.sleep(ATTACK_PAUSE).await;
    }

    let honest_bytes = 2 * spec.clients as u64 * params.records_per_client * params.record;
    let secs = elapsed.as_secs_f64();
    AdversaryResult {
        exposed_byte_us: server_hca.exposure_report().byte_us,
        attack_probes: ledger.probes.get(),
        attacker_reconnects: ledger.reconnects.get(),
        stale_reads_ok: ledger.stale_ok.get(),
        stale_reads_refused: ledger.stale_refused.get(),
        scan_reads_ok: ledger.scan_ok.get(),
        corrupt_records,
        honest_bytes,
        elapsed,
        goodput_mb_s: if secs > 0.0 {
            honest_bytes as f64 / 1e6 / secs
        } else {
            0.0
        },
    }
}

/// Receive buffers each attacker keeps posted (enough for the paced
/// catalog; deliberately *not* enough for the overcommit burst's
/// replies, so that attack self-destructs the attacker's own QP).
const ATTACKER_RECVS: u64 = 8;

struct AttackerTask {
    sim: Sim,
    hca: Hca,
    server_hca: Hca,
    rpc_server: Rc<RdmaRpcServer>,
    mem: Rc<HostMem>,
    cfg: RpcRdmaConfig,
    victim: FileHandle,
    rounds: u64,
    done: sim_core::sync::Semaphore,
    ledger: Rc<Ledger>,
}

impl AttackerTask {
    async fn run(&self, mut rng: SimRng) {
        let recv_bufs: Vec<Buffer> = (0..ATTACKER_RECVS)
            .map(|_| self.mem.alloc_contiguous(self.cfg.recv_size()))
            .collect();
        let probe_buf = self.mem.alloc(8192);
        let mut qp = self.connect_qp(&recv_bufs);
        let mut wr = 1u64;
        let mut dead = false;
        // Steering tags captured from withheld-DONE replies, probed
        // one pause later, when their deadline has killed them.
        let mut captured: Vec<Segment> = Vec::new();
        for round in 0..self.rounds {
            // The previous round's violations error the QP from the
            // server side; a failed send then errors it locally too.
            if dead || qp.is_error() {
                qp = self.reconnect(&recv_bufs).await;
            }
            let base_xid = 0x4000_0000 + (round as u32) * 256;

            // 1. XID replay: the same NULL call twice; the DRC must
            // answer the duplicate without re-executing.
            let call = null_call(&self.cfg, base_xid);
            dead = self
                .call_and_wait(&qp, call.clone(), &recv_bufs, &mut wr)
                .await
                .is_none()
                || self
                    .call_and_wait(&qp, call, &recv_bufs, &mut wr)
                    .await
                    .is_none();

            // 2. Withheld RDMA_DONE: a genuine READ whose exposure we
            // never release. Under Read-Read the reply advertises the
            // server's steering tags — capture them for later probing.
            if !dead {
                let read = read_call(&self.cfg, base_xid + 1, self.victim, 8192);
                match self.call_and_wait(&qp, read, &recv_bufs, &mut wr).await {
                    Some(raw) => {
                        if let Some(rhdr) = decode_header_prefix(&raw) {
                            captured.extend(rhdr.read_chunks.iter().map(|c| c.segment));
                        }
                    }
                    None => dead = true,
                }
            }

            // Rounds rotate through three postures: a quiet round that
            // only withholds its DONE (the connection stays alive, so
            // the exposure sits there until its deadline —
            // quiet comes first so the leak is on display before any
            // quarantine teardown revokes it), a strike batch
            // (quarantine path), and a credit burst (overload path).
            if !dead && round % 3 == 1 {
                // Strike batch: garbage where a header belongs plus the
                // crafted chunk lists — enough sanitizer rejections to
                // spend the connection's whole quarantine budget.
                let mut strikes = vec![garbage(&mut rng)];
                strikes.extend(hostile_headers(base_xid + 0x80));
                while strikes.len() < 9 {
                    strikes.push(garbage(&mut rng));
                }
                for s in strikes {
                    if !self.fire(&qp, s, &mut wr) {
                        dead = true;
                        break;
                    }
                }
            } else if !dead && round % 3 == 2 {
                // Credit overcommit: a burst far past any granted
                // window. The server drops and charges everything past
                // the window; the replies it does send flood our own
                // tiny receive pool, erroring *our* QP pair.
                let burst = self.cfg.credits * 2 + ATTACKER_RECVS as u32;
                for k in 0..burst {
                    if !self.fire(&qp, null_call(&self.cfg, base_xid + 8 + k), &mut wr) {
                        break;
                    }
                }
                dead = true;
            }

            self.sim.sleep(ATTACK_PAUSE).await;

            // 4. Steering-tag probes: every captured (stale) tag plus
            // one guessed rkey. Every exposure has been revoked by now,
            // so the stale probes must all NAK; a read that lands is a
            // measured leak. Each NAK kills the probing QP, so
            // reconnect as needed.
            let mut probes: Vec<(Segment, ProbeKind)> = Vec::new();
            for seg in captured.drain(..) {
                // The captured tag where it was advertised (stale), and
                // the same tag aimed at the server's first long-lived
                // allocations (phys scan — only the all-physical global
                // rkey reaches those).
                probes.push((
                    Segment {
                        rkey: seg.rkey,
                        len: 4096,
                        addr: SCAN_BASE,
                    },
                    ProbeKind::Scan,
                ));
                probes.push((seg, ProbeKind::Stale));
            }
            probes.push((
                Segment {
                    rkey: Rkey(rng.next_u32() | 0x8000_0000),
                    len: 4096,
                    addr: SCAN_BASE,
                },
                ProbeKind::Guess,
            ));
            for (seg, kind) in probes {
                if dead || qp.is_error() {
                    qp = self.reconnect(&recv_bufs).await;
                    dead = false;
                }
                bump(&self.ledger.probes);
                let len = seg.len.min(8192);
                let w = WrId(wr);
                wr += 1;
                if qp
                    .post_rdma_read(probe_buf.clone(), 0, seg.addr, seg.rkey, len, w)
                    .is_err()
                {
                    dead = true;
                    continue;
                }
                let ledger = &self.ledger;
                if self.await_wr(&qp, w).await {
                    match kind {
                        ProbeKind::Stale => bump(&ledger.stale_ok),
                        ProbeKind::Scan => bump(&ledger.scan_ok),
                        ProbeKind::Guess => {}
                    }
                } else {
                    match kind {
                        ProbeKind::Stale => bump(&ledger.stale_refused),
                        ProbeKind::Scan | ProbeKind::Guess => {}
                    }
                    dead = true; // the NAK killed this QP
                }
            }
        }
        self.done.add_permits(1);
    }

    /// Fresh QP pair: server serves its half, we drive ours raw.
    fn connect_qp(&self, recv_bufs: &[Buffer]) -> Qp {
        let (qc, qs) = connect(&self.hca, &self.server_hca);
        self.rpc_server.serve_connection(qs);
        for (i, buf) in recv_bufs.iter().enumerate() {
            let _ = qc.post_recv(buf.clone(), 0, self.cfg.recv_size(), WrId(i as u64));
        }
        qc
    }

    /// Replace a dead QP pair after the polite reconnect delay.
    async fn reconnect(&self, recv_bufs: &[Buffer]) -> Qp {
        self.sim.sleep(RECONNECT_DELAY).await;
        bump(&self.ledger.reconnects);
        self.connect_qp(recv_bufs)
    }

    /// Post one unsignaled send; false means the QP is already dead.
    /// (A send that fails in flight errors the QP asynchronously and is
    /// caught at the next `is_error` check.)
    fn fire(&self, qp: &Qp, wire: Bytes, wr: &mut u64) -> bool {
        bump(&self.ledger.probes);
        let w = WrId(*wr);
        *wr += 1;
        qp.post_send(Payload::real(wire), w, false).is_ok()
    }

    /// One well-formed call: signaled send, wait for the send
    /// completion (so a quarantined peer can't strand us awaiting a
    /// reply that will never come), then wait for the reply. `None`
    /// means the connection died.
    async fn call_and_wait(
        &self,
        qp: &Qp,
        wire: Bytes,
        recv_bufs: &[Buffer],
        wr: &mut u64,
    ) -> Option<Bytes> {
        bump(&self.ledger.probes);
        let w = WrId(*wr);
        *wr += 1;
        qp.post_send(Payload::real(wire), w, true).ok()?;
        if !self.await_wr(qp, w).await {
            return None;
        }
        self.await_reply(qp, recv_bufs).await
    }

    /// Wait for work request `w` on the send CQ. Earlier unsignaled
    /// sends that failed leave stray error completions; skip them (any
    /// of them already means the QP is in error, which the caller
    /// discovers via `is_error` or the final result). True iff `w`
    /// completed successfully.
    async fn await_wr(&self, qp: &Qp, w: WrId) -> bool {
        loop {
            let c = qp.send_cq().next().await;
            if c.wr_id == w {
                return c.result.is_ok();
            }
        }
    }

    /// Wait for one reply, re-posting its receive buffer. `None` means
    /// the connection died (flush or quarantine).
    async fn await_reply(&self, qp: &Qp, recv_bufs: &[Buffer]) -> Option<Bytes> {
        let c = qp.recv_cq().next().await;
        if c.result.is_err() {
            return None;
        }
        let idx = c.wr_id.0 as usize;
        if idx < recv_bufs.len() {
            let _ = qp.post_recv(recv_bufs[idx].clone(), 0, self.cfg.recv_size(), c.wr_id);
        }
        c.payload.map(|p| p.materialize())
    }
}

/// Random byte soup where an RPC/RDMA header belongs.
fn garbage(rng: &mut SimRng) -> Bytes {
    let mut junk = vec![0u8; 48];
    for b in junk.iter_mut() {
        *b = rng.next_u32() as u8;
    }
    Bytes::from(junk)
}

/// Decode just the RPC/RDMA header off the front of a reply wire
/// message (the attacker ignores the RPC body).
fn decode_header_prefix(raw: &Bytes) -> Option<RdmaHeader> {
    let mut dec = xdr::Decoder::new(raw);
    RdmaHeader::decode(&mut dec).ok()
}

/// A well-formed, chunkless NFS call on the wire.
fn call_wire(cfg: &RpcRdmaConfig, xid: u32, proc_num: u32, args: &Bytes) -> Bytes {
    let (prog, vers) = (nfs::NFS_PROGRAM, nfs::NFS_VERSION);
    let header = CallHeader {
        xid,
        prog,
        vers,
        proc_num,
    };
    let call = encode_call(&header, args);
    let hdr = RdmaHeader::new(xid, cfg.credits, MsgType::Msg);
    let mut enc = Encoder::with_capacity(64 + call.len());
    hdr.encode(&mut enc);
    enc.put_raw(&call);
    enc.finish()
}

/// A well-formed NFS NULL call on the wire.
fn null_call(cfg: &RpcRdmaConfig, xid: u32) -> Bytes {
    call_wire(cfg, xid, 0, &Bytes::new())
}

/// A well-formed NFS READ call (no write chunks: under Read-Read the
/// server answers by exposing its buffers; under Read-Write there is
/// nothing for it to expose).
fn read_call(cfg: &RpcRdmaConfig, xid: u32, file: FileHandle, count: u32) -> Bytes {
    let mut args = Encoder::new();
    ReadArgs {
        file,
        offset: 0,
        count,
    }
    .encode(&mut args);
    call_wire(cfg, xid, 6, &args.finish())
}

/// The crafted-header arm of the catalog: each decodes cleanly at the
/// wire layer but violates a server cap, so each costs the server one
/// sanitizer rejection and the attacker one strike.
fn hostile_headers(base_xid: u32) -> Vec<Bytes> {
    let seg = |rkey: u32, len: u64, addr: u64| Segment {
        rkey: Rkey(rkey),
        len,
        addr,
    };
    let mut out = Vec::new();
    // Too many segments (past the sanitizer cap, inside the wire cap).
    let mut h = RdmaHeader::new(base_xid + 1, 1, MsgType::Msg);
    for i in 0..=MAX_CHUNK_SEGMENTS.min(rpcrdma::MAX_WIRE_SEGMENTS - 1) {
        h.read_chunks.push(ReadChunk {
            position: 4,
            segment: seg(i, 8, 0x1000 + i as u64 * 8),
        });
    }
    out.push(h);
    // Zero-length segment.
    let mut h = RdmaHeader::new(base_xid + 2, 1, MsgType::Msg);
    h.read_chunks.push(ReadChunk {
        position: 4,
        segment: seg(7, 0, 0x2000),
    });
    out.push(h);
    // Overlapping write segments.
    let mut h = RdmaHeader::new(base_xid + 3, 1, MsgType::Msg);
    h.write_chunks
        .push(vec![seg(8, 4096, 0x3000), seg(9, 4096, 0x3800)]);
    out.push(h);
    // Multi-GiB advertised total.
    let mut h = RdmaHeader::new(base_xid + 4, 1, MsgType::Msg);
    h.reply_chunk = Some(vec![
        seg(10, u32::MAX as u64, 0),
        seg(11, u32::MAX as u64, 1 << 40),
        seg(12, u32::MAX as u64, 1 << 41),
    ]);
    out.push(h);
    // Absurd credit request.
    out.push(RdmaHeader::new(base_xid + 5, u32::MAX, MsgType::Msg));
    out.into_iter()
        .map(|h| {
            let mut enc = Encoder::new();
            h.encode(&mut enc);
            enc.finish()
        })
        .collect()
}
