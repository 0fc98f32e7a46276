//! Poll and allocation budgets of the five rungs the benchmark's host
//! ladder *times*, here *counted*: the executor alone, a raw send/recv
//! ping-pong, a NULL call, a GETATTR and a cached 1 MiB READ — plus the
//! paths none of them walks: a 1 MiB READ that misses the page cache
//! (the disk array's member tasks and their join), a chunked 128 KiB
//! WRITE (the server's two-lane dispatch ∥ fetch) and a 4 KiB one that
//! rides the Send as `RDMA_MSGP` (its heap bytes bounded too: the page
//! must never be copied onto the heap).
//!
//! Both counts are deterministic — polls always, allocations once the
//! beds are warm — so every budget is an equality: a change that adds a
//! task hop, a wake or a boxed future to one of these paths has to
//! change a number here (and the table in DESIGN.md §3 with it).
//! A cheaper path changes it too, downwards.
//!
//! Allocations are counted per thread, so the libtest harness cannot
//! leak a stray one into a window; a window that straddles a hash
//! table's one-off doubling (the duplicate-request cache, whose
//! randomly keyed hasher decides at which op it happens) is why each
//! allocation budget is the least of three consecutive windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;

use ib_verbs::{connect, WrId};
use rpcrdma::{Design, StrategyKind};
use sim_core::{yield_now, Payload, Sim, SimDuration, Simulation};
use workloads::{linux_ddr_raid, linux_sdr, solaris_sdr, Backend, Bed};

struct PerThread;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;

fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

/// Operations per measured window.
const OPS: u64 = 64;

/// Polls, allocations and heap bytes of `OPS` calls of `op`, after a
/// warm-up: polls must repeat exactly over three windows; allocations
/// (and their bytes) are the window with the fewest.
async fn budget<F: Future<Output = ()>>(
    sim: &Sim,
    mut op: impl FnMut(u64) -> F,
) -> ((u64, u64), u64) {
    for i in 0..2 * OPS {
        op(i).await;
    }
    let polls_of = sim.metrics().counter("executor.polls");
    let mut windows = Vec::new();
    for w in 0..3 {
        let (p0, (a0, b0)) = (polls_of.get(), allocs());
        for i in 0..OPS {
            op(w * OPS + i).await;
        }
        let (a1, b1) = allocs();
        windows.push((polls_of.get() - p0, a1 - a0, b1 - b0));
    }
    let polls = windows[0].0;
    assert!(
        windows.iter().all(|w| w.0 == polls),
        "polls per window differ: {windows:?}"
    );
    let (_, allocs, bytes) = windows.iter().min_by_key(|w| w.1).expect("three");
    ((polls, *allocs), *bytes)
}

/// (a) The executor alone: 1 000 tasks that each sleep, then yield,
/// twenty times over, spawn to quiescence. Two passes warm the slab,
/// the queue and the timer heap; the third is counted.
fn executor_alone() -> (u64, u64) {
    let mut sim = Simulation::new(1);
    let mut counted = (0, 0);
    for _pass in 0..3 {
        for t in 0..1_000u64 {
            let h = sim.handle();
            sim.spawn(async move {
                for i in 0..20u64 {
                    let d = (t.wrapping_mul(7919) ^ i.wrapping_mul(104_729)) % 4096 + 1;
                    h.sleep(SimDuration::from_nanos(d)).await;
                    yield_now().await;
                }
            });
        }
        let (p0, (a0, _)) = (sim.polls(), allocs());
        sim.run();
        counted = (sim.polls() - p0, allocs().0 - a0);
    }
    counted
}

/// (b)–(d) and (g) on the `meta_mix` bed: Linux SDR, all-physical.
/// (g), a 4 KiB FILE_SYNC WRITE, rides the Send as `RDMA_MSGP`: the
/// caller's page is gathered behind the inline bytes, never flattened
/// into them. Also returns the heap bytes an op of (d) and of (g) take.
fn small_ops() -> ([(u64, u64); 4], (u64, u64)) {
    let mut sim = Simulation::new(2);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = Bed::new(&linux_sdr(), Design::ReadWrite, StrategyKind::AllPhysical);
        let bed = bed.build(&h).await;
        let client = &bed.clients[0];
        let nfs = &client.nfs;
        let root = bed.server.root_handle();
        let fh = nfs.create(root, "f").await.expect("create").handle();

        // A 64-byte unsignaled ping-pong on a QP pair the RPC layer
        // never sees: HCA, fabric and completion queues only.
        let (qa, qb) = connect(
            client.hca.as_ref().expect("hca"),
            bed.server_hca.as_ref().expect("hca"),
        );
        let (ra, rb) = (client.mem.alloc(64), client.mem.alloc(64));
        let echo = qb.clone();
        h.spawn(async move {
            for i in 0.. {
                echo.post_recv(rb.clone(), 0, 64, WrId(i)).expect("recv");
                let got = echo.recv_cq().next().await;
                let data = got.payload.expect("payload");
                echo.post_send(data, WrId(i), false).expect("send");
            }
        });
        yield_now().await;
        let (qa, ra) = (&qa, &ra);
        let (send_recv, _) = budget(&h, |i| async move {
            qa.post_recv(ra.clone(), 0, 64, WrId(i)).expect("recv");
            qa.post_send(Payload::synthetic(2, 64), WrId(i), false)
                .expect("send");
            qa.recv_cq().next().await;
        })
        .await;

        let (null, _) = budget(&h, |_| async move { nfs.null().await.expect("null") }).await;
        let (getattr, getattr_bytes) = budget(&h, |_| async move {
            nfs.getattr(fh).await.expect("getattr");
        })
        .await;

        let page = client.mem.alloc(4096);
        page.write(0, Payload::synthetic(5, 4096));
        let page = &page;
        let (write, bytes) = budget(&h, |_| async move {
            let n = nfs.write(fh, 0, page, 0, 4096, true);
            assert_eq!(n.await.expect("write"), 4096);
        })
        .await;
        let per_op = (getattr_bytes / OPS, bytes / OPS);
        ([send_recv, null, getattr, write], per_op)
    })
}

/// (e) A 1 MiB READ served from the page cache on the `raid_read` bed.
fn cached_read() -> (u64, u64) {
    const RECORD: u64 = 1 << 20;
    const RECORDS: u64 = 8;
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = Bed {
            backend: Backend::Raid {
                ram_bytes: 704 << 20,
            },
            ..Bed::new(
                &linux_ddr_raid(),
                Design::ReadWrite,
                StrategyKind::AllPhysical,
            )
        };
        let bed = bed.build(&h).await;
        let client = &bed.clients[0];
        let nfs = &client.nfs;
        let root = bed.server.root_handle();
        let fh = nfs.create(root, "f").await.expect("create").handle();
        let buf = client.mem.alloc(RECORD);
        buf.write(0, Payload::synthetic(3, RECORD));
        for r in 0..RECORDS {
            let n = nfs.write(fh, r * RECORD, &buf, 0, RECORD as u32, false);
            assert_eq!(n.await.expect("populate"), RECORD as u32);
        }
        nfs.commit(fh).await.expect("commit");
        let buf = &buf;
        let (counted, _) = budget(&h, |i| async move {
            let off = (i % RECORDS) * RECORD;
            let (data, _eof) = nfs
                .read(fh, off, RECORD as u32, Some((buf, 0)))
                .await
                .expect("read");
            assert_eq!(data.len(), RECORD);
        })
        .await;
        counted
    })
}

/// (h) A 1 MiB READ that misses the page cache on the `raid_read`
/// bed's array: every op reads a record no op has read before (every
/// other one of a sparse file, so the miss's readahead window never
/// serves the next op), and the READ waits on its disk transfer — one
/// member task per disk and one join.
fn uncached_read() -> (u64, u64) {
    const RECORD: u64 = 1 << 20;
    let mut sim = Simulation::new(5);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = Bed {
            // The smallest page cache a RAID bed gets, 128 MiB.
            backend: Backend::Raid { ram_bytes: 0 },
            ..Bed::new(
                &linux_ddr_raid(),
                Design::ReadWrite,
                StrategyKind::AllPhysical,
            )
        };
        let bed = bed.build(&h).await;
        let client = &bed.clients[0];
        let nfs = &client.nfs;
        let root = bed.server.root_handle();
        let fh = nfs.create(root, "f").await.expect("create").handle();
        // Room for the warm-up and the three windows, two records an op.
        let reads = 5 * OPS;
        nfs.setattr_size(fh, 2 * reads * RECORD)
            .await
            .expect("setattr");
        let buf = client.mem.alloc(RECORD);
        let (buf, next) = (&buf, &Cell::new(0));
        let (counted, _) = budget(&h, |_| async move {
            let off = 2 * next.replace(next.get() + 1) * RECORD;
            let (data, _eof) = nfs
                .read(fh, off, RECORD as u32, Some((buf, 0)))
                .await
                .expect("read");
            assert_eq!(data.len(), RECORD);
        })
        .await;
        assert_eq!(next.get(), reads, "every op read a fresh record");
        counted
    })
}

/// (f) A 128 KiB UNSTABLE WRITE on the `seq_write` bed (Solaris SDR,
/// registration cache): the server fetches the payload by RDMA Read
/// beside the call's wait in the task queue, on the one handler task.
fn chunked_write() -> (u64, u64) {
    const RECORD: u64 = 128 << 10;
    const RECORDS: u64 = 8;
    let mut sim = Simulation::new(4);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = Bed::new(&solaris_sdr(), Design::ReadWrite, StrategyKind::Cache);
        let bed = bed.build(&h).await;
        let client = &bed.clients[0];
        let nfs = &client.nfs;
        let root = bed.server.root_handle();
        let fh = nfs.create(root, "f").await.expect("create").handle();
        let buf = client.mem.alloc(RECORD);
        buf.write(0, Payload::synthetic(4, RECORD));
        let buf = &buf;
        let (counted, _) = budget(&h, |i| async move {
            let off = (i % RECORDS) * RECORD;
            let n = nfs.write(fh, off, buf, 0, RECORD as u32, false);
            assert_eq!(n.await.expect("write"), RECORD as u32);
        })
        .await;
        counted
    })
}

/// One `#[test]`: the budgets share nothing, but one thread keeps the
/// per-thread counter's story simple.
#[test]
fn polls_and_allocations_per_rung_are_pinned() {
    let ([send_recv, null, getattr, page_write], (getattr_bytes, page_bytes)) = small_ops();
    let got = [
        (
            "executor: 1000 tasks x 20 x (sleep + yield)",
            executor_alone(),
        ),
        ("64 B unsignaled send/recv ping-pong x 64", send_recv),
        ("NULL x 64", null),
        ("GETATTR x 64 (linux_sdr, all-physical)", getattr),
        (
            "1 MiB cached READ x 64 (linux_ddr_raid, all-physical)",
            cached_read(),
        ),
        (
            "1 MiB uncached READ x 64 (linux_ddr_raid, all-physical)",
            uncached_read(),
        ),
        (
            "128 KiB chunked WRITE x 64 (solaris_sdr, cache)",
            chunked_write(),
        ),
        (
            "4 KiB FILE_SYNC MSGP WRITE x 64 (linux_sdr, all-physical)",
            page_write,
        ),
    ];
    // (polls, heap allocations). DESIGN.md §3 carries the same table.
    let want = [
        // A warmed timer heap allocates nothing (358 when a bucketed
        // wheel's per-bucket vectors kept finding new load maxima)
        (41_000, 1),
        // A sleep that is the simulation's next event fires in place,
        // so a poll here is a wake by another task or an event that
        // ties or follows another pending one (12 polls a round trip,
        // 19 a call, 71 a READ, 34 a WRITE when every sleep registered
        // its timer).
        (256, 0), // 4 polls a round trip
        // 8 polls a call. 4 allocations a call: each RPC message is
        // encoded once, behind its transport header, into the wire
        // image, and the reply lands in the call's `pending` entry (7
        // when the call and the reply were each a `Bytes` of their own
        // first and every attempt waited on a oneshot)
        (512, 256),
        (512, 384),
        // 26 polls a READ: the client's sink and the server's source
        // window each unpin on a task of their own, 1 allocation
        // apiece. 26 allocations a READ (29 before the one-buffer RPC
        // messages above): a one-piece gather list holds
        // its piece inline from the extent map to the wire message, and
        // every other list is allocated once, at its final size (74
        // when every list, WQE and remote segment built a `Vec`; 40
        // when the server reached the file system through a boxed
        // facade, one box a data call; 39 when the page-cache gather
        // list, the buffer's physical runs and the echoed write chunk
        // grew one push at a time)
        (1_664, 1_664),
        // 43 polls a READ: the cached READ's 26, two for each of the
        // eight member tasks (one per disk) and one for the join, which
        // wakes the READ once. 33 allocations a READ (36 before the
        // one-buffer RPC messages; 50 polls and 47 allocations when the
        // join was a semaphore that woke the READ at every member, over
        // a per-disk table on the heap)
        (2_752, 2_112),
        // 17 polls a WRITE; 17 allocations (20 before the one-buffer RPC
        // messages, 26 when the pulled pieces were gathered twice, 21
        // through the boxed facade)
        (1_088, 1_089),
        // 8 polls a WRITE, a GETATTR's: nothing to pin, nothing to
        // fetch. 2 allocations more, none of them the page (4 when the
        // padded MSGP head was a `Vec` copied into a `Bytes`, 6 through
        // the boxed facade: a write and a commit)
        (512, 512),
    ];
    // Every rung is printed before any is asserted, so a re-record sees
    // all the moved ones at once.
    for ((rung, got), want) in got.iter().zip(want) {
        let moved = if *got == want { "" } else { " MOVED" };
        println!("{rung}: {got:?}, pinned {want:?}{moved}");
    }
    for ((rung, got), want) in got.iter().zip(want) {
        assert_eq!(*got, want, "{rung}: (polls, allocations) moved");
    }
    // A page of data copied onto the heap anywhere on the MSGP path (the
    // Send flattened, the data staged into the wire bytes) is a page more
    // than a GETATTR takes.
    println!("heap bytes an op: GETATTR {getattr_bytes}, 4 KiB MSGP WRITE {page_bytes}");
    assert!(
        page_bytes < getattr_bytes + 4096 / 2,
        "a 4 KiB MSGP WRITE took {page_bytes} heap bytes an op, a GETATTR {getattr_bytes}"
    );
}
