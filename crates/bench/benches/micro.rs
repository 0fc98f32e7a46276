//! Criterion microbenchmarks: real (host) cost of the hot codepaths —
//! header marshalling, extent-map I/O, executor throughput, and a full
//! end-to-end NFS READ through the simulated stack.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ib_verbs::Rkey;
use rpcrdma::{Design, MsgType, RdmaHeader, ReadChunk, Segment, StrategyKind};
use sim_core::{yield_now, ExtentMap, Payload, SimDuration, Simulation};
use workloads::{solaris_sdr, Bed};
use xdr::XdrCodec;

fn bench_header_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("rpcrdma_header");
    let mut hdr = RdmaHeader::new(7, 32, MsgType::Msg);
    hdr.read_chunks = vec![ReadChunk {
        position: 128,
        segment: Segment {
            rkey: Rkey(0xabcd),
            len: 131072,
            addr: 0x10_0000,
        },
    }];
    hdr.write_chunks = vec![vec![Segment {
        rkey: Rkey(0x1234),
        len: 131072,
        addr: 0x20_0000,
    }]];
    g.bench_function("encode", |b| {
        b.iter(|| black_box(hdr.to_bytes()));
    });
    // The hot-path variant: reuse one scratch encoder, zero allocations
    // per message in steady state.
    g.bench_function("encode_into", |b| {
        let mut enc = xdr::Encoder::with_capacity(256);
        b.iter(|| {
            hdr.encode_into(&mut enc);
            black_box(enc.len())
        });
    });
    let bytes = hdr.to_bytes();
    g.bench_function("decode", |b| {
        b.iter(|| black_box(RdmaHeader::from_bytes(&bytes).unwrap()));
    });
    g.finish();
}

fn bench_xdr(c: &mut Criterion) {
    let mut g = c.benchmark_group("xdr");
    let data = vec![0xA5u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("opaque_roundtrip_4k", |b| {
        let mut enc = xdr::Encoder::with_capacity(4200);
        b.iter(|| {
            enc.reset();
            enc.put_opaque(&data);
            let mut dec = xdr::Decoder::new(enc.as_slice());
            black_box(dec.get_opaque().unwrap().len())
        });
    });
    g.finish();
}

fn bench_extent_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("extent_map");
    g.bench_function("sequential_write_read_128k_extents", |b| {
        b.iter(|| {
            let mut m = ExtentMap::new();
            for i in 0..64u64 {
                m.write(i * 131072, Payload::synthetic(i, 131072));
            }
            black_box(m.read(0, 64 * 131072))
        });
    });
    g.bench_function("overwrite_fragmentation", |b| {
        b.iter(|| {
            let mut m = ExtentMap::new();
            m.write(0, Payload::synthetic(1, 1 << 20));
            for i in 0..128u64 {
                m.write(i * 8192 + 123, Payload::synthetic(i, 4096));
            }
            black_box(m.extent_count())
        });
    });
    g.finish();
}

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_executor");
    g.bench_function("timer_churn_10k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            let h = sim.handle();
            for i in 0..10_000u64 {
                let h2 = h.clone();
                h.spawn(async move {
                    h2.sleep(SimDuration::from_nanos(i % 997)).await;
                });
            }
            sim.run();
            black_box(sim.polls())
        });
    });
    // Pure ready-queue path: no timers, just wake/poll cycles.
    g.bench_function("poll_throughput_10k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            for _ in 0..10_000u64 {
                sim.spawn(async {
                    for _ in 0..8 {
                        yield_now().await;
                    }
                });
            }
            sim.run();
            black_box(sim.polls())
        });
    });
    // Timer register + cancel: each task arms a far-future sleep, polls
    // it once (registering the timer) and drops it (lazy cancellation).
    g.bench_function("timer_register_cancel_10k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            let h = sim.handle();
            for _ in 0..10_000u64 {
                let h2 = h.clone();
                sim.spawn(async move {
                    let mut s = h2.sleep(SimDuration::from_millis(10));
                    #[allow(
                        clippy::disallowed_methods,
                        reason = "the sleep is abandoned, so it is polled under `poll_not_last`"
                    )]
                    std::future::poll_fn(|cx| {
                        let _ = sim_core::poll_not_last(std::pin::Pin::new(&mut s), cx);
                        std::task::Poll::Ready(())
                    })
                    .await;
                    drop(s);
                });
            }
            sim.run();
            black_box(sim.polls())
        });
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for (label, strategy) in [
        ("read_128k_dynamic", StrategyKind::Dynamic),
        ("read_128k_cache", StrategyKind::Cache),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &strategy, |b, &s| {
            b.iter(|| {
                // Full stack: simulated fabric, RPC/RDMA, NFS, tmpfs —
                // 64 sequential 128 KiB READs.
                let mut sim = Simulation::new(5);
                let h = sim.handle();
                let profile = solaris_sdr();
                sim.block_on(async move {
                    let bed = Bed::new(&profile, Design::ReadWrite, s).build(&h).await;
                    let root = bed.server.root_handle();
                    let f = bed.clients[0].nfs.create(root, "bench").await.unwrap();
                    bed.fs
                        .write(
                            fs_backend::FileId(f.handle().0),
                            0,
                            Payload::synthetic(1, 8 << 20),
                        )
                        .await
                        .unwrap();
                    let buf = bed.clients[0].mem.alloc(131072);
                    for i in 0..64u64 {
                        let _ = bed.clients[0]
                            .nfs
                            .read(f.handle(), i * 131072, 131072, Some((&buf, 0)))
                            .await
                            .unwrap();
                    }
                });
                black_box(())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_header_codec,
    bench_xdr,
    bench_extent_map,
    bench_executor,
    bench_end_to_end
);
criterion_main!(benches);
