//! Simulated host memory: virtual address allocation, buffers, and the
//! physical-page layout that matters for all-physical registration.
//!
//! Each host owns a [`HostMem`]: a bump allocator of virtual addresses
//! and a set of live [`Buffer`]s. A buffer is a contiguous *virtual*
//! range; physically it is a sequence of runs of contiguous pages whose
//! lengths the allocator draws from the host profile. With normal
//! (virtual) registration one steering tag covers the whole buffer; in
//! all-physical mode DMA must follow physical runs, so a transfer from
//! the buffer fans out into one segment per run — exactly the effect
//! that degrades NFS WRITE in the paper's Figure 9(b).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use sim_core::{Payload, SimRng};

use crate::types::NodeId;
use sim_core::ExtentMap;

/// Default small page size (bytes).
pub const PAGE_SIZE: u64 = 4096;

/// Live buffers of one host by start address: `(len, buffer)`.
type Index = RefCell<BTreeMap<u64, (u64, Weak<BufferInner>)>>;

struct BufferInner {
    data: RefCell<ExtentMap>,
    /// Byte lengths of the physically-contiguous runs making up the
    /// buffer, in order. Sums to `len` (rounded up to pages).
    phys_runs: Vec<u64>,
    addr: u64,
    /// The owning host's index. Shared, not borrowed: a buffer may
    /// outlive its [`HostMem`].
    index: Rc<Index>,
}

/// The last handle is gone: the host forgets the buffer. `HostMem`
/// never drops a `Buffer` while it holds the index, so the borrow
/// succeeds; were it ever to fail, the dead entry still cannot upgrade.
impl Drop for BufferInner {
    fn drop(&mut self) {
        if let Ok(mut index) = self.index.try_borrow_mut() {
            index.remove(&self.addr);
        }
    }
}

/// A virtually contiguous, physically fragmented memory buffer.
#[derive(Clone)]
pub struct Buffer {
    // Debug impl below keeps output compact (no content dump).
    inner: Rc<BufferInner>,
    host: NodeId,
    len: u64,
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Buffer(host={}, addr={:#x}, len={})",
            self.host.0,
            self.addr(),
            self.len
        )
    }
}

impl Buffer {
    /// Host that owns this memory.
    pub fn host(&self) -> NodeId {
        self.host
    }

    /// Starting virtual address.
    pub fn addr(&self) -> u64 {
        self.inner.addr
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 4 KiB pages spanned (what pinning pays for).
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(PAGE_SIZE)
    }

    /// Read `len` bytes at byte `offset` within the buffer.
    pub fn read(&self, offset: u64, len: u64) -> Payload {
        assert!(offset + len <= self.len, "buffer read out of bounds");
        self.inner.data.borrow().read(offset, len)
    }

    /// Read `len` bytes at byte `offset` as a scatter/gather list: one
    /// piece per stored extent, no flattening. This is the receive-side
    /// scatter primitive — data RDMA-Read in as separate chunks comes
    /// back out as the same refcounted pieces, ready to land in
    /// page-cache pages without a pull-up copy.
    pub fn read_sg(&self, offset: u64, len: u64) -> sim_core::SgList {
        assert!(offset + len <= self.len, "buffer read out of bounds");
        self.inner.data.borrow().read_sg(offset, len)
    }

    /// Write a payload at byte `offset` within the buffer.
    pub fn write(&self, offset: u64, data: Payload) {
        assert!(
            offset + data.len() <= self.len,
            "buffer write out of bounds ({} + {} > {})",
            offset,
            data.len(),
            self.len
        );
        self.inner.data.borrow_mut().write(offset, data);
    }

    /// The physically contiguous runs overlapping `[offset, offset+len)`,
    /// as `(buffer_offset, run_len)` pairs. All-physical registration
    /// must emit one RDMA segment per returned run.
    pub fn phys_runs(&self, offset: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.phys_run_count(offset, len));
        out.extend(self.runs_in(offset, len));
        out
    }

    /// How many physically contiguous runs `[offset, offset+len)`
    /// overlaps: the length of [`Buffer::phys_runs`], without the list.
    pub fn phys_run_count(&self, offset: u64, len: u64) -> usize {
        self.runs_in(offset, len).count()
    }

    fn runs_in(&self, offset: u64, len: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        assert!(offset + len <= self.len, "phys_runs out of bounds");
        let end = offset + len;
        let mut run_start = 0u64;
        self.inner
            .phys_runs
            .iter()
            .map_while(move |&run_len| {
                let run = (run_start < end).then_some((run_start, run_start + run_len));
                run_start += run_len;
                run
            })
            .filter_map(move |(run_start, run_end)| {
                let (lo, hi) = (offset.max(run_start), end.min(run_end));
                (lo < hi).then(|| (lo, hi - lo))
            })
    }

    /// True if `[addr, addr+len)` (virtual addresses) lies inside this
    /// buffer.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.addr() && addr + len <= self.addr() + self.len
    }

    /// Translate a virtual address to a byte offset within the buffer.
    pub fn offset_of(&self, addr: u64) -> u64 {
        debug_assert!(addr >= self.addr());
        addr - self.addr()
    }
}

/// Physical-layout policy for buffer allocation.
#[derive(Clone, Copy, Debug)]
pub struct PhysLayout {
    /// Mean length of a physically contiguous run, bytes. Real
    /// mid-2000s kernels allocating page-at-a-time produce short runs;
    /// slab buffers are more contiguous.
    pub mean_run_bytes: u64,
}

impl Default for PhysLayout {
    fn default() -> Self {
        PhysLayout {
            mean_run_bytes: 64 * 1024,
        }
    }
}

/// Per-host memory manager.
pub struct HostMem {
    host: NodeId,
    next_addr: Cell<u64>,
    layout: PhysLayout,
    rng: RefCell<SimRng>,
    /// Live buffers by start address, for global-steering-tag lookup.
    /// An entry lives exactly as long as its buffer.
    index: Rc<Index>,
}

impl HostMem {
    /// Create the memory manager for `host`.
    pub fn new(host: NodeId, layout: PhysLayout, rng: SimRng) -> Self {
        HostMem {
            host,
            // Start away from zero so a zero address is always a bug.
            next_addr: Cell::new(0x1000_0000),
            layout,
            rng: RefCell::new(rng),
            index: Rc::default(),
        }
    }

    /// Allocate a buffer of `len` bytes.
    pub fn alloc(&self, len: u64) -> Buffer {
        self.place(len, |span| self.draw_runs(span))
    }

    /// Allocate a buffer of `len` bytes that is one physically
    /// contiguous run — slab (kmalloc) memory, what a driver's receive
    /// buffers are. It takes the single layout draw a one-page
    /// [`HostMem::alloc`] takes, whatever its length, so the buffers
    /// allocated after it see the layout they would after a one-page
    /// buffer.
    pub fn alloc_contiguous(&self, len: u64) -> Buffer {
        self.place(len, |span| {
            self.draw_runs(PAGE_SIZE);
            vec![span]
        })
    }

    /// Reserve the next page-aligned virtual range for `len` bytes,
    /// laid out physically by `runs` (given the page-rounded span).
    fn place(&self, len: u64, runs: impl FnOnce(u64) -> Vec<u64>) -> Buffer {
        assert!(len > 0, "zero-length allocation");
        let addr = self.next_addr.get();
        // Page-align the next allocation.
        let span = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.next_addr.set(addr + span + PAGE_SIZE); // guard page

        let phys_runs = runs(span);
        let inner = Rc::new(BufferInner {
            data: RefCell::new(ExtentMap::new()),
            phys_runs,
            addr,
            index: self.index.clone(),
        });
        self.index
            .borrow_mut()
            .insert(addr, (len, Rc::downgrade(&inner)));
        Buffer {
            inner,
            host: self.host,
            len,
        }
    }

    /// Resolve a virtual address range to a live buffer (the view the
    /// privileged all-physical steering tag grants). Returns `None` for
    /// unmapped or freed memory, or ranges spanning buffer boundaries.
    pub fn lookup(&self, addr: u64, len: u64) -> Option<Buffer> {
        let index = self.index.borrow();
        let (&start, (blen, weak)) = index.range(..=addr).next_back()?;
        if addr + len > start + blen {
            return None;
        }
        Some(Buffer {
            inner: weak.upgrade()?,
            host: self.host,
            len: *blen,
        })
    }

    /// Buffers currently alive on this host (diagnostic).
    pub fn live_buffers(&self) -> usize {
        self.index.borrow().len()
    }

    fn draw_runs(&self, span: u64) -> Vec<u64> {
        let mut rng = self.rng.borrow_mut();
        // Count the runs on a copy of the generator, then draw the same
        // ones into a list of that size.
        let mut runs = Vec::with_capacity(self.run_lengths(&mut rng.clone(), span).count());
        runs.extend(self.run_lengths(&mut rng, span));
        runs
    }

    /// Physical run lengths covering `span`: geometric-ish whole pages
    /// with the configured mean, at least one page each.
    fn run_lengths<'a>(&self, rng: &'a mut SimRng, span: u64) -> impl Iterator<Item = u64> + 'a {
        let mean_pages = (self.layout.mean_run_bytes / PAGE_SIZE).max(1);
        let mut left = span;
        std::iter::from_fn(move || {
            (left > 0).then(|| {
                let pages = 1 + rng.gen_range(2 * mean_pages);
                let run = (pages * PAGE_SIZE).min(left);
                left -= run;
                run
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> HostMem {
        HostMem::new(NodeId(0), PhysLayout::default(), SimRng::new(7))
    }

    #[test]
    fn alloc_rw_roundtrip() {
        let m = mem();
        let b = m.alloc(1000);
        b.write(10, Payload::real(vec![5; 100]));
        assert_eq!(&b.read(10, 100).materialize()[..], &[5; 100]);
        assert_eq!(&b.read(0, 10).materialize()[..], &[0; 10]);
    }

    #[test]
    fn distinct_buffers_do_not_overlap() {
        let m = mem();
        let a = m.alloc(4096);
        let b = m.alloc(4096);
        assert!(a.addr() + a.len() <= b.addr());
        a.write(0, Payload::real(vec![1; 16]));
        assert_eq!(&b.read(0, 16).materialize()[..], &[0; 16]);
    }

    #[test]
    fn phys_runs_cover_range_exactly() {
        let m = mem();
        let b = m.alloc(1 << 20);
        let runs = b.phys_runs(0, b.len());
        let total: u64 = runs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, b.len());
        // Runs are in order and adjacent.
        let mut expect = 0;
        for (off, len) in runs {
            assert_eq!(off, expect);
            expect = off + len;
        }
    }

    #[test]
    fn phys_runs_subrange() {
        let m = mem();
        let b = m.alloc(1 << 20);
        let runs = b.phys_runs(100_000, 300_000);
        let total: u64 = runs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 300_000);
        assert_eq!(runs.first().unwrap().0, 100_000);
    }

    #[test]
    fn contains_and_offset() {
        let m = mem();
        let b = m.alloc(4096);
        assert!(b.contains(b.addr(), 4096));
        assert!(b.contains(b.addr() + 100, 100));
        assert!(!b.contains(b.addr() + 4000, 200));
        assert_eq!(b.offset_of(b.addr() + 7), 7);
    }

    #[test]
    fn pages_rounds_up() {
        let m = mem();
        assert_eq!(m.alloc(1).pages(), 1);
        assert_eq!(m.alloc(4096).pages(), 1);
        assert_eq!(m.alloc(4097).pages(), 2);
    }

    #[test]
    fn lookup_resolves_live_buffers() {
        let m = mem();
        let a = m.alloc(4096);
        let b = m.alloc(8192);
        let hit = m.lookup(b.addr() + 100, 200).unwrap();
        assert_eq!(hit.addr(), b.addr());
        assert!(m.lookup(a.addr(), 4096).is_some());
        // Range spanning past the buffer end fails.
        assert!(m.lookup(b.addr() + 8000, 400).is_none());
        assert_eq!(m.live_buffers(), 2);
        // Freed buffers are unreachable, and forgotten.
        drop((a, hit));
        assert!(m.lookup(b.addr(), 1).is_some());
        assert_eq!(m.live_buffers(), 1);
    }

    #[test]
    fn lookup_after_free_fails() {
        let m = mem();
        let a = m.alloc(4096);
        let addr = a.addr();
        drop(a);
        assert!(m.lookup(addr, 16).is_none());
    }

    #[test]
    fn contiguous_allocation_is_one_run_and_draws_like_one_page() {
        let (a, b) = (mem(), mem());
        let slab = a.alloc_contiguous(8192);
        assert_eq!(slab.phys_runs(0, slab.len()), vec![(0, 8192)]);
        b.alloc(4096);
        // Same stream position afterwards: the next buffers lay out alike.
        let (x, y) = (a.alloc(1 << 20), b.alloc(1 << 20));
        assert_eq!(x.phys_runs(0, x.len()), y.phys_runs(0, y.len()));
    }

    #[test]
    fn contiguous_layout_gives_few_runs() {
        let m = HostMem::new(
            NodeId(0),
            PhysLayout {
                mean_run_bytes: 1 << 30,
            },
            SimRng::new(7),
        );
        let b = m.alloc(1 << 20);
        assert!(b.phys_runs(0, b.len()).len() <= 2);
    }
}
