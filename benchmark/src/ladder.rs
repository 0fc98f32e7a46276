//! The host ladder: eight short loops, each adding one layer to the
//! one before, so that the difference between two rungs is that
//! layer's cost in host nanoseconds. Nothing here is simulated time.

use std::hint::black_box;
use std::time::Instant;

use fs_backend::FileId;
use ib_verbs::{connect, WrId};
use nfs::Fattr;
use rpcrdma::{Design, MsgType, RdmaHeader, ReadChunk, Segment, StrategyKind};
use sim_core::{yield_now, Payload, SimDuration, Simulation};
use workloads::{build_rdma, solaris_sdr, Backend};
use xdr::{Decoder, Encoder, XdrCodec};

use crate::probe::Metric;
use crate::stats::best_but_one;

const NAMES: [&str; 8] = [
    "ladder.sim-core.ns_per_poll",
    "ladder.xdr.ns_per_attr_roundtrip",
    "ladder.rpcrdma.ns_per_header_roundtrip",
    "ladder.ib-verbs.ns_per_send_recv",
    "ladder.rpcrdma.ns_per_null_call",
    "ladder.nfs.ns_per_getattr",
    "ladder.fs-backend.ns_per_read_128k",
    "ladder.nfs.ns_per_read_128k",
];

const RECORD: u64 = 128 * 1024;
const RECORDS: u64 = 64;

/// Host nanoseconds per iteration of `body`.
fn time<T>(iters: u64, body: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(body());
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Executor alone: `tasks` tasks that each sleep, then yield.
fn executor(tasks: u64, iters: u64) -> f64 {
    let mut sim = Simulation::new(1);
    for t in 0..tasks {
        let h = sim.handle();
        sim.spawn(async move {
            for i in 0..iters {
                let d = (t.wrapping_mul(7919) ^ i.wrapping_mul(104_729)) % 4096 + 1;
                h.sleep(SimDuration::from_nanos(d)).await;
                yield_now().await;
            }
        });
    }
    let t = Instant::now();
    sim.run();
    t.elapsed().as_nanos() as f64 / sim.polls() as f64
}

fn header_roundtrip(iters: u64) -> f64 {
    let segment = |addr| Segment {
        rkey: ib_verbs::Rkey(0x1234),
        len: RECORD,
        addr,
    };
    let hdr = RdmaHeader {
        xid: 7,
        credits: 32,
        msg_type: MsgType::Msg,
        msgp: None,
        rfp_ad: None,
        read_chunks: vec![ReadChunk {
            position: 128,
            segment: segment(0x10_0000),
        }],
        write_chunks: vec![vec![segment(0x20_0000)]],
        reply_chunk: None,
    };
    let mut enc = Encoder::with_capacity(256);
    time(iters, || {
        for _ in 0..iters {
            hdr.encode_into(&mut enc);
            black_box(RdmaHeader::from_bytes(enc.as_slice()).expect("decode"));
        }
    })
}

/// Every rung once, at `1/div` of the measuring size.
fn rungs(div: u64) -> [f64; 8] {
    let n = move |full: u64| (full / div).max(8);
    let mut out = [0.0; 8];
    out[0] = executor(1_000, n(50));
    out[2] = header_roundtrip(n(50_000));

    // The rest run against one testbed: the seq_read one.
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let rest = sim.block_on(async move {
        let profile = solaris_sdr();
        let bed = build_rdma(
            &h,
            &profile,
            Design::ReadWrite,
            StrategyKind::Dynamic,
            Backend::Tmpfs,
            1,
        );
        let client = &bed.clients[0];
        let nfs = &client.nfs;
        let root = bed.server.root_handle();
        let fh = nfs.create(root, "ladder").await.expect("create").handle();
        let id = FileId(fh.0);
        let fill = Payload::synthetic(1, RECORD * RECORDS);
        bed.fs.write(id, 0, fill).await.expect("fill");
        let buf = client.mem.alloc(RECORD);
        let off = |i: u64| (i % RECORDS) * RECORD;

        let attr = Fattr::from_attr(&bed.fs.getattr(id).expect("getattr"));
        let mut enc = Encoder::with_capacity(128);
        let iters = n(100_000);
        let xdr = time(iters, || {
            for _ in 0..iters {
                enc.reset();
                attr.encode(&mut enc);
                black_box(Fattr::decode(&mut Decoder::new(enc.as_slice())).expect("decode"));
            }
        });

        // 64-byte ping-pong on a connected QP pair the RPC layer never
        // sees: HCA, fabric and completion queues only.
        let (qa, qb) = connect(
            client.hca.as_ref().expect("hca"),
            bed.server_hca.as_ref().expect("hca"),
        );
        let (ra, rb) = (client.mem.alloc(64), client.mem.alloc(64));
        let iters = n(4_000);
        let echo = qb.clone();
        h.spawn(async move {
            for i in 0..iters {
                echo.post_recv(rb.clone(), 0, 64, WrId(i)).expect("recv");
                let got = echo.recv_cq().next().await;
                let data = got.payload.expect("payload");
                echo.post_send(data, WrId(i), false).expect("send");
            }
        });
        yield_now().await;
        let t = Instant::now();
        for i in 0..iters {
            qa.post_recv(ra.clone(), 0, 64, WrId(i)).expect("recv");
            qa.post_send(Payload::synthetic(2, 64), WrId(i), false)
                .expect("send");
            black_box(qa.recv_cq().next().await);
        }
        let send_recv = t.elapsed().as_nanos() as f64 / iters as f64;

        let iters = n(4_000);
        let t = Instant::now();
        for _ in 0..iters {
            nfs.null().await.expect("null");
        }
        let null = t.elapsed().as_nanos() as f64 / iters as f64;

        let t = Instant::now();
        for _ in 0..iters {
            black_box(nfs.getattr(fh).await.expect("getattr"));
        }
        let getattr = t.elapsed().as_nanos() as f64 / iters as f64;

        let iters = n(20_000);
        let t = Instant::now();
        for i in 0..iters {
            black_box(bed.fs.read(id, off(i), RECORD).await.expect("read"));
        }
        let fs_read = t.elapsed().as_nanos() as f64 / iters as f64;

        let iters = n(2_000);
        let t = Instant::now();
        for i in 0..iters {
            let user = Some((&buf, 0));
            black_box(
                nfs.read(fh, off(i), RECORD as u32, user)
                    .await
                    .expect("read"),
            );
        }
        let nfs_read = t.elapsed().as_nanos() as f64 / iters as f64;

        [xdr, send_recv, null, getattr, fs_read, nfs_read]
    });
    out[1] = rest[0];
    out[3..].copy_from_slice(&rest[1..]);
    out
}

/// Best-but-one of `reps` passes over the ladder.
pub fn run(reps: usize, div: u64) -> Vec<Metric> {
    let passes: Vec<[f64; 8]> = (0..reps).map(|_| rungs(div)).collect();
    NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let times: Vec<f64> = passes.iter().map(|p| p[i]).collect();
            (name, Some(best_but_one(&times)), "ns")
        })
        .collect()
}
