//! Steady-state memory gate: host memory follows what is *live* in the
//! model, not how many operations have run.
//!
//! A global allocator counts live heap bytes (allocated − freed). Each
//! bed runs a warm-up of 2 000 operations, then 20 000 more in two
//! halves, and the quieter half must add no more than 64 KiB: anything
//! that keeps a record per operation ever issued (a buffer index that
//! never forgets, a per-call vector that only grows) grows both halves
//! in proportion to the op count and fails. A table that doubles one
//! last time lands in one half only — the server's 1 024-entry
//! duplicate-request cache does (210 KiB), at whatever op its randomly
//! keyed hasher has used up the free slots, near the 10 000th here.
//!
//! A third case counts what a *finished* simulation leaves behind:
//! fifty testbeds built, run and dropped in a row. The model has
//! reference cycles of its own (a server and its handlers), so the
//! figure is not zero; it is pinned at what each bed leaked before the
//! fabric delivered to its HCAs by direct call, so a cycle through the
//! fabric — an HCA the port keeps alive, and with it every buffer and
//! queue pair of the bed — fails here by two orders of magnitude.
//! One `#[test]`, so no sibling test thread allocates inside a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::future::Future;
use std::sync::atomic::{AtomicI64, Ordering};

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Sim, Simulation};
use workloads::{linux_sdr, solaris_sdr, Bed};

struct LiveBytes;

// A statistic: publishes no other data, so Relaxed is enough.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const WARM_OPS: u64 = 2_000;
const OPS: u64 = 20_000;
const BOUND: i64 = 64 << 10;

/// Run `op(i)` for the warm-up, then `OPS` more times in two halves,
/// and return how many live bytes the quieter half added.
async fn growth<F: Future<Output = ()>>(mut op: impl FnMut(u64) -> F) -> i64 {
    let mut live = [0; 3];
    let marks = [WARM_OPS, WARM_OPS + OPS / 2, WARM_OPS + OPS];
    let mut done = 0;
    for (at, mark) in live.iter_mut().zip(marks) {
        for i in done..mark {
            op(i).await;
        }
        done = mark;
        *at = LIVE.load(Ordering::Relaxed);
    }
    (live[1] - live[0]).min(live[2] - live[1])
}

/// `seq_read`'s bed: a per-operation buffer, dynamically registered.
async fn dynamic_reads(sim: Sim) -> i64 {
    const RECORD: u64 = 128 << 10;
    const RECORDS: u64 = 16;
    let bed = Bed::new(&solaris_sdr(), Design::ReadWrite, StrategyKind::Dynamic);
    let bed = bed.build(&sim).await;
    let c = &bed.clients[0];
    let root = bed.server.root_handle();
    let fh = c.nfs.create(root, "f").await.expect("create").handle();
    let buf = c.mem.alloc(RECORD);
    buf.write(0, Payload::synthetic(1, RECORD));
    for r in 0..RECORDS {
        let n = c.nfs.write(fh, r * RECORD, &buf, 0, RECORD as u32, true);
        assert_eq!(n.await.expect("populate"), RECORD as u32);
    }
    let buf = &buf;
    growth(|i| async move {
        let off = (i % RECORDS) * RECORD;
        let (data, _eof) = c
            .nfs
            .read(fh, off, RECORD as u32, Some((buf, 0)))
            .await
            .expect("read");
        assert_eq!(data.len(), RECORD);
    })
    .await
}

/// `meta_mix`'s bed: small operations under the all-physical tag.
async fn all_physical_mix(sim: Sim) -> i64 {
    const IO: u64 = 4096;
    let bed = Bed::new(&linux_sdr(), Design::ReadWrite, StrategyKind::AllPhysical);
    let bed = bed.build(&sim).await;
    let c = &bed.clients[0];
    let root = bed.server.root_handle();
    let dir = c.nfs.mkdir(root, "d").await.expect("mkdir").handle();
    let mut fh = None;
    for i in 0..8 {
        let f = c.nfs.create(dir, &format!("f{i}")).await.expect("create");
        fh = Some(f.handle());
    }
    let fh = fh.expect("files");
    let buf = c.mem.alloc(IO);
    buf.write(0, Payload::synthetic(2, IO));
    let n = c.nfs.write(fh, 0, &buf, 0, IO as u32, true).await;
    assert_eq!(n.expect("populate"), IO as u32);
    let buf = &buf;
    growth(|i| async move {
        match i % 4 {
            0 => assert_eq!(c.nfs.getattr(fh).await.expect("getattr").size, IO),
            1 => {
                let user = Some((buf, 0));
                let (data, _eof) = c.nfs.read(fh, 0, IO as u32, user).await.expect("read");
                assert_eq!(data.len(), IO);
            }
            2 => {
                let n = c.nfs.write(fh, 0, buf, 0, IO as u32, true).await;
                assert_eq!(n.expect("write"), IO as u32);
            }
            _ => assert_eq!(c.nfs.readdir(dir).await.expect("readdir").len(), 8),
        }
    })
    .await
}

/// Build a two-client bed, push a few operations through every layer
/// (registration, RDMA Write and Read, the page cache), drop it.
fn one_short_lived_testbed(seed: u64) {
    const RECORD: u64 = 64 << 10;
    let mut sim = Simulation::new(seed);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = Bed {
            clients: 2,
            ..Bed::new(&solaris_sdr(), Design::ReadWrite, StrategyKind::Dynamic)
        };
        let bed = bed.build(&h).await;
        let root = bed.server.root_handle();
        for (i, c) in bed.clients.iter().enumerate() {
            let f = c.nfs.create(root, &format!("f{i}")).await.expect("create");
            let buf = c.mem.alloc(RECORD);
            buf.write(0, Payload::synthetic(seed, RECORD));
            for r in 0..4 {
                let n = c
                    .nfs
                    .write(f.handle(), r * RECORD, &buf, 0, RECORD as u32, true);
                assert_eq!(n.await.expect("write"), RECORD as u32);
                let user = Some((&buf, 0));
                let read = c.nfs.read(f.handle(), r * RECORD, RECORD as u32, user);
                assert_eq!(read.await.expect("read").0.len(), RECORD);
            }
        }
    });
}

/// Live bytes each of `BEDS` consecutive short-lived testbeds leaves
/// behind, past the first (which also pays for one-off thread-locals).
fn leak_per_testbed() -> i64 {
    const BEDS: i64 = 50;
    one_short_lived_testbed(0xBED);
    let after_first = LIVE.load(Ordering::Relaxed);
    for i in 1..BEDS {
        one_short_lived_testbed(0xBED + i as u64);
    }
    (LIVE.load(Ordering::Relaxed) - after_first) / (BEDS - 1)
}

/// What one such bed may leave behind. It left 9 bytes at the parent
/// of the change that removed the HCA's dispatcher task (PR 20) and
/// leaves 9 after it; one HCA the fabric kept alive is 170 KB.
const LEAK_PER_BED: i64 = 1 << 10;

#[test]
fn live_bytes_do_not_grow_with_operations() {
    let leaked = leak_per_testbed();
    println!("leak per short-lived testbed: {leaked} bytes");
    assert!(
        leaked <= LEAK_PER_BED,
        "a finished testbed leaves {leaked} live bytes behind (was {LEAK_PER_BED})"
    );
    let mut sim = Simulation::new(0x51EAD);
    let grew = sim.block_on(dynamic_reads(sim.handle()));
    assert!(
        grew <= BOUND,
        "dynamic-registration READs: live heap grew {grew} bytes in the quieter half of {OPS} ops"
    );
    let mut sim = Simulation::new(0x51EAE);
    let grew = sim.block_on(all_physical_mix(sim.handle()));
    assert!(
        grew <= BOUND,
        "all-physical metadata mix: live heap grew {grew} bytes in the quieter half of {OPS} ops"
    );
}
