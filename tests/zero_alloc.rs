//! Allocation regression tests for the hot paths the executor and
//! marshalling overhaul optimized.
//!
//! A counting global allocator measures the steady state:
//!
//! - RPC/RDMA header encode into a warmed per-connection scratch
//!   encoder must perform **zero** heap allocations.
//! - An owned encode, `Encoder::new()` … `finish()`, must perform
//!   exactly **one**: the `Bytes` it returns. The encoder's own buffer
//!   is the one the thread's last encoder left behind.
//! - Rewriting a range an `ExtentMap` already holds (every receive
//!   lands on the same posted buffer) must perform **zero** beyond the
//!   payload's own.
//! - A warmed executor (slab, ready queue and timer heap at capacity)
//!   must poll tasks without per-event allocations; only the
//!   `run()`-scoped batch buffer may grow, so the bound is a small
//!   constant independent of the poll count.
//! - Waking is by task id: a timer firing and a channel hand-off in a
//!   warmed simulation perform **zero** allocations, and a spawn into
//!   a recycled task slot performs exactly **one**, the boxed future.
//! - With span tracing **disabled**, the observability hooks on the
//!   RPC hot path (span/inject/adopt/current_ctx) and the always-on
//!   flight-recorder ring must perform **zero** heap allocations.
//! - A one-piece scatter/gather list, sliced and posted as a one-piece
//!   RDMA Write that the responder places, performs **zero** heap
//!   allocations: the list holds its piece inline from the file to the
//!   wire.
//! - A steady-state **cached NFS READ** on the Read-Write design with
//!   the server's zero-copy gather path must move zero payload bytes
//!   through host copies (`copied_bytes` frozen, `zero_copy_bytes`
//!   advancing) and must not allocate payload-sized buffers anywhere in
//!   the stack: heap bytes per op stay far below the record size.
//!
//! All measurements live in ONE `#[test]` so no sibling test thread
//! can inflate the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::rc::Rc;

use ib_verbs::{connect, Access, Fabric, Hca, HcaConfig, HostMem, NodeId, PhysLayout, Rkey, WrId};
use rpcrdma::{Design, MsgType, RdmaHeader, ReadChunk, Segment, StrategyKind};
use sim_core::{yield_now, Cpu, CpuCosts, ExtentMap, Payload, SgList, SimDuration, Simulation};
use workloads::{solaris_sdr, Bed};
use xdr::{Encoder, XdrCodec};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn alloc_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// A realistic READ-call header: one read chunk, one write chunk.
fn sample_header() -> RdmaHeader {
    let mut hdr = RdmaHeader::new(7, 32, MsgType::Msg);
    hdr.read_chunks.push(ReadChunk {
        position: 128,
        segment: Segment {
            rkey: Rkey(0xabcd),
            len: 131_072,
            addr: 0x10_0000,
        },
    });
    hdr.write_chunks.push(vec![Segment {
        rkey: Rkey(0x1234),
        len: 131_072,
        addr: 0x20_0000,
    }]);
    hdr
}

const TASKS: u64 = 256;
const ITERS: u64 = 64;

fn spawn_churn(sim: &mut Simulation) {
    for t in 0..TASKS {
        let h = sim.handle();
        sim.spawn(async move {
            for i in 0..ITERS {
                let d = (t.wrapping_mul(7919) ^ i.wrapping_mul(104_729)) % 4096 + 1;
                h.sleep(SimDuration::from_nanos(d)).await;
                yield_now().await;
            }
        });
    }
}

/// `rounds` hand-offs to the echo task and back, a sleep on each leg.
async fn ping_pong(
    h: &sim_core::Sim,
    to_peer: &sim_core::sync::Sender<u64>,
    from_peer: &mut sim_core::sync::Receiver<u64>,
    rounds: u64,
) {
    for i in 0..rounds {
        to_peer.send(i).expect("peer alive");
        h.sleep(SimDuration::from_nanos(700)).await;
        assert_eq!(from_peer.recv().await, Ok(i + 1));
    }
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    // ---- RPC/RDMA header encode into a warmed scratch encoder. ------
    // The counter is process-wide, so a libtest harness thread can
    // slip a stray allocation into the window. Take the minimum over a
    // few attempts: noise only ever adds, while a real hot-path
    // allocation shows up in every attempt.
    let hdr = sample_header();
    let mut enc = Encoder::new();
    hdr.encode_into(&mut enc); // warm the buffer to message size
    let wire_len = enc.len();
    let mut encode_allocs = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        for _ in 0..1_000 {
            hdr.encode_into(&mut enc);
        }
        encode_allocs = encode_allocs.min(allocs() - before);
        if encode_allocs == 0 {
            break;
        }
    }
    assert_eq!(enc.len(), wire_len);
    assert_eq!(
        encode_allocs, 0,
        "header encode_into must not allocate in steady state"
    );

    // ---- Owned encode: one allocation, the bytes handed back. -------
    let wire = hdr.to_bytes(); // leaves a message-sized buffer behind
    assert_eq!(wire.len(), wire_len);
    let mut owned_allocs = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        for _ in 0..1_000 {
            assert_eq!(hdr.to_bytes().len(), wire_len);
        }
        owned_allocs = owned_allocs.min(allocs() - before);
    }
    assert_eq!(
        owned_allocs, 1_000,
        "Encoder::new() .. finish() must cost exactly one allocation"
    );

    // ---- Rewriting a held extent: the tree node is reused. ----------
    let mut map = ExtentMap::new();
    let data = Payload::real(vec![7u8; 4096]);
    map.write(64, data.clone());
    let mut rewrite_allocs = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        for _ in 0..1_000 {
            map.write(64, data.clone());
        }
        rewrite_allocs = rewrite_allocs.min(allocs() - before);
    }
    assert_eq!(map.extent_count(), 1);
    assert_eq!(
        rewrite_allocs, 0,
        "rewriting an extent in place must not allocate"
    );

    // ---- Executor poll/timer churn after warmup passes. -------------
    // Warmup runs: grow the task slab, free list, ready queue and timer
    // heap to the workload's peak. The heap and the timer slab only
    // ever hold the timers pending at once, so the measured run, the
    // same shape of work, finds them large enough.
    let mut sim = Simulation::new(9);
    spawn_churn(&mut sim);
    sim.run();
    let warm_polls = sim.polls();
    spawn_churn(&mut sim);
    sim.run();

    // Measured run: same shape of work through the warmed structures.
    // (Task spawning is outside the measurement on purpose: boxing the
    // future and its waker is a per-task — not per-event — cost.)
    spawn_churn(&mut sim);
    let polls_before = sim.polls();
    let before = allocs();
    sim.run();
    let run_allocs = allocs() - before;
    let polls = sim.polls() - polls_before;

    assert!(polls >= warm_polls, "later passes should repeat the work");
    assert!(polls > 10_000, "workload too small to be meaningful");
    // Per-event cost is zero; what remains is bounded buffer-capacity
    // discovery (the run()-scoped batch vector) — a small constant,
    // independent of how many events are processed.
    assert!(
        run_allocs <= 64,
        "steady-state executor run allocated {run_allocs} times for {polls} polls"
    );

    // ---- Wakes by id, spawns into recycled slots. -------------------
    // Two tasks hand a token back and forth over a pair of channels,
    // sleeping in between: every wake (timer -> task, sender ->
    // receiver) is a push of a task id, and nothing on the way clones a
    // waker or boxes anything. Then a thousand short-lived tasks, one
    // after another through the same slab slot: each costs its boxed
    // future and nothing else — the slot's waker is re-addressed, not
    // re-made.
    let mut sim = Simulation::new(0xA11C);
    let h = sim.handle();
    sim.spawn(async move {
        let (to_b, mut from_a) = sim_core::sync::channel::<u64>();
        let (to_a, mut from_b) = sim_core::sync::channel::<u64>();
        let hb = h.clone();
        h.spawn(async move {
            while let Ok(v) = from_a.recv().await {
                hb.sleep(SimDuration::from_nanos(300)).await;
                if to_a.send(v + 1).is_err() {
                    break;
                }
            }
        });
        // Warm: queues, timer heap.
        ping_pong(&h, &to_b, &mut from_b, 4_096).await;
        let mut wake_allocs = u64::MAX;
        for _ in 0..5 {
            let before = allocs();
            ping_pong(&h, &to_b, &mut from_b, 1_000).await;
            wake_allocs = wake_allocs.min(allocs() - before);
            if wake_allocs == 0 {
                break;
            }
        }
        assert_eq!(
            wake_allocs, 0,
            "sleep and channel wakes allocated in a warmed simulation"
        );

        let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let spawn_one = |h: &sim_core::Sim| {
            let done = done.clone();
            h.spawn(async move { done.set(done.get() + 1) });
        };
        spawn_one(&h); // warm: the slot and its waker exist from here on
        yield_now().await;
        let mut spawn_allocs = u64::MAX;
        for _ in 0..5 {
            let before = allocs();
            for _ in 0..1_000 {
                spawn_one(&h);
                yield_now().await;
            }
            spawn_allocs = spawn_allocs.min(allocs() - before);
        }
        assert!(done.get() > 5_000);
        assert_eq!(
            spawn_allocs, 1_000,
            "a spawn into a recycled slot must cost exactly its boxed future"
        );
    });
    sim.run();

    // ---- Tracing plumbing + flight recorder, tracing DISABLED. ------
    // The observability hooks ride every RPC leg and replication
    // record, so their disabled fast path must be allocation-free:
    // span/inject/adopt/current_ctx collapse to one flag read, and the
    // always-on flight recorder stores plain-old-data into its
    // preallocated ring. Warm the ring past capacity first so the
    // measured window exercises the overwrite path, then demand ZERO
    // heap traffic — not merely "small".
    let mut sim = Simulation::new(0x0B5E);
    let h = sim.handle();
    sim.spawn(async move {
        for i in 0..(2 * sim_core::FLIGHT_CAPACITY as u64) {
            h.flight("warmup", "fill", i, 0);
        }
        // Min-over-attempts for the same reason as the encode section:
        // the process-wide counter can pick up harness-thread noise.
        let mut trace_allocs = u64::MAX;
        let mut trace_bytes = u64::MAX;
        for _ in 0..5 {
            let before_allocs = allocs();
            let before_bytes = alloc_bytes();
            for i in 0..10_000u64 {
                let _op = h.span_remote("test", "op", Some(7), h.current_ctx());
                h.trace_inject(i, h.current_ctx());
                let _ctx = h.trace_adopt(i);
                h.flight("test", "event", i, i ^ 0xFF);
            }
            trace_allocs = trace_allocs.min(allocs() - before_allocs);
            trace_bytes = trace_bytes.min(alloc_bytes() - before_bytes);
            if trace_allocs == 0 {
                break;
            }
        }
        assert_eq!(
            trace_allocs, 0,
            "disabled-tracing hooks allocated {trace_allocs} times \
             ({trace_bytes} bytes) over 10k op cycles"
        );
    });
    sim.run();

    // ---- A one-piece gather list, file to wire. ---------------------
    // The list a one-extent read hands the transport is sliced to a
    // remote segment and posted as a one-piece unsignaled RDMA Write
    // (the server's READ push); the responder places it over the range
    // the last Write placed. None of it may touch the heap: the piece
    // lives inline in the list, the WQE and the wire message.
    let mut sim = Simulation::new(0x5617);
    let h = sim.handle();
    sim.block_on(async move {
        let fabric = Fabric::new(&h);
        let host = |id: u32| {
            let cpu = Cpu::new(&h, format!("cpu{id}"), 1, CpuCosts::default());
            let mem = Rc::new(HostMem::new(
                NodeId(id),
                PhysLayout::default(),
                h.fork_rng(),
            ));
            (
                Hca::new(&h, NodeId(id), HcaConfig::sdr(), cpu, mem.clone(), &fabric),
                mem,
            )
        };
        let ((a, _), (b, b_mem)) = (host(0), host(1));
        let (qa, _qb) = connect(&a, &b);
        let target = b_mem.alloc(64 << 10);
        let mr = b.register(&target, 0, 64 << 10, Access::REMOTE_WRITE).await;
        let file = Payload::synthetic(0x5EED, 1 << 20);
        // Alternate two file offsets, so every placement shows.
        let write_one = |i: u64| {
            let at = 4096 * (1 + i % 2);
            let sg = SgList::from(file.clone()).slice(at, 16 << 10);
            let piece = sg.into_iter().next().expect("one piece");
            qa.post_rdma_write(piece, mr.addr(), mr.rkey(), WrId(i), false)
                .expect("post");
            let (h, target, file) = (&h, &target, &file);
            async move {
                // Long past the Write's wire time: it has been placed.
                h.sleep(SimDuration::from_nanos(100_000)).await;
                let placed = target.read(0, 16 << 10);
                assert!(
                    placed.content_eq(&file.slice(at, 16 << 10)),
                    "write {i} not placed"
                );
            }
        };
        for i in 0..64 {
            write_one(i).await;
        }
        let mut write_allocs = u64::MAX;
        for _ in 0..5 {
            let before = allocs();
            for i in 0..1_000 {
                write_one(i).await;
            }
            write_allocs = write_allocs.min(allocs() - before);
            if write_allocs == 0 {
                break;
            }
        }
        assert_eq!(
            write_allocs, 0,
            "a one-piece RDMA Write allocated {write_allocs} times over 1000 posts"
        );
    });

    // ---- Cached READ through the zero-copy server pipeline. ---------
    // Read-Write design, all-physical server window: the reply gathers
    // page-cache slices straight into vectored RDMA Writes. After a
    // warmup pass, every byte of a cached READ must ride the zero-copy
    // path (no staged host copy on the server), and nothing in the
    // stack may allocate a payload-sized buffer — for 1 MiB records the
    // per-op heap traffic is bounded at a small fraction of the record.
    let record: u64 = 1 << 20;
    let file: u64 = 8 * record;
    let ops: u64 = 16;
    let mut sim = Simulation::new(0x2C07);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = Bed {
            client_strategy: StrategyKind::Dynamic,
            ..Bed::new(&solaris_sdr(), Design::ReadWrite, StrategyKind::AllPhysical)
        };
        let bed = bed.build(&h).await;
        let root = bed.server.root_handle();
        let c = &bed.clients[0];
        let fh = c
            .nfs
            .create(root, "zero-copy")
            .await
            .expect("create")
            .handle();
        let buf = c.mem.alloc(record);
        buf.write(0, Payload::synthetic(0x5EED, record));
        let mut off = 0;
        while off < file {
            c.nfs
                .write(fh, off, &buf, 0, record as u32, false)
                .await
                .expect("prepopulate");
            off += record;
        }
        // Warmup: heat the page cache, the connection scratch encoders,
        // the registration bookkeeping and the per-QP pending queue.
        let mut off = 0;
        while off < file {
            c.nfs
                .read(fh, off, record as u32, Some((&buf, 0)))
                .await
                .expect("warmup read");
            off += record;
        }

        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        let copied0 = rpc.stats.copied_bytes.get();
        let zero0 = rpc.stats.zero_copy_bytes.get();
        let bytes0 = alloc_bytes();
        for i in 0..ops {
            let (data, _eof) = c
                .nfs
                .read(fh, (i * record) % file, record as u32, Some((&buf, 0)))
                .await
                .expect("steady-state read");
            assert_eq!(data.len(), record);
        }
        let copied = rpc.stats.copied_bytes.get() - copied0;
        let zeroed = rpc.stats.zero_copy_bytes.get() - zero0;
        let heap_per_op = (alloc_bytes() - bytes0) / ops;

        assert_eq!(
            copied, 0,
            "cached READ staged {copied} payload bytes through server host copies"
        );
        assert_eq!(
            zeroed,
            ops * record,
            "every cached READ byte must take the zero-copy gather path"
        );
        assert!(
            heap_per_op < record / 8,
            "steady-state cached READ allocated {heap_per_op} heap bytes/op \
             for {record}-byte records — a payload-sized buffer is being \
             allocated somewhere on the hot path"
        );
    });

    // ---- Cached WRITE through the receive-side scatter pipeline. ----
    // The WRITE mirror of the READ section: the server pulls the
    // client's read chunks straight into page-cache pages (SgList of
    // refcounted pieces, no bounce buffer). At steady state an UNSTABLE
    // WRITE must stage zero bytes, every byte must be accounted by
    // `server.write.zero_copy_bytes`, and per-op heap traffic stays far
    // below the record size (the pending-write ledger keeps payload
    // *references*, not copies).
    let mut sim = Simulation::new(0x2C08);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = Bed {
            client_strategy: StrategyKind::Dynamic,
            ..Bed::new(&solaris_sdr(), Design::ReadWrite, StrategyKind::AllPhysical)
        };
        let bed = bed.build(&h).await;
        let root = bed.server.root_handle();
        let c = &bed.clients[0];
        let fh = c
            .nfs
            .create(root, "zero-copy-write")
            .await
            .expect("create")
            .handle();
        let buf = c.mem.alloc(record);
        buf.write(0, Payload::synthetic(0x5EED, record));
        // Warmup: size the file, heat the page cache, the scratch
        // encoders, the registration bookkeeping and the pending-write
        // ledger's vectors.
        let mut off = 0;
        while off < file {
            c.nfs
                .write(fh, off, &buf, 0, record as u32, false)
                .await
                .expect("warmup write");
            off += record;
        }
        c.nfs.commit(fh).await.expect("warmup commit");

        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        let copied0 = rpc.stats.copied_bytes.get();
        let zero0 = rpc.stats.write_zero_copy_bytes.get();
        let bytes0 = alloc_bytes();
        for i in 0..ops {
            let n = c
                .nfs
                .write(fh, (i * record) % file, &buf, 0, record as u32, false)
                .await
                .expect("steady-state write");
            assert_eq!(n as u64, record);
        }
        let copied = rpc.stats.copied_bytes.get() - copied0;
        let zeroed = rpc.stats.write_zero_copy_bytes.get() - zero0;
        let heap_per_op = (alloc_bytes() - bytes0) / ops;

        assert_eq!(
            copied, 0,
            "cached WRITE staged {copied} payload bytes through server host copies"
        );
        assert_eq!(
            zeroed,
            ops * record,
            "every cached WRITE byte must take the receive-side scatter path"
        );
        assert!(
            heap_per_op < record / 8,
            "steady-state cached WRITE allocated {heap_per_op} heap bytes/op \
             for {record}-byte records — a payload-sized buffer is being \
             allocated or copied somewhere on the hot path"
        );
    });
}
