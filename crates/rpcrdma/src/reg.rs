//! Registration strategies for the RPC/RDMA transport (paper §4.3).
//!
//! Four ways to make a buffer DMA-able, with very different critical-
//! path costs:
//!
//! * **Dynamic** — register/deregister around every operation: pinning
//!   plus one serialized TPT transaction each way. The baseline.
//! * **Fmr** — map through a pre-allocated FMR pool entry; falls back
//!   to dynamic registration when the region exceeds the pool's max
//!   size or the pool is empty (the paper's transparent fall-back).
//! * **Cache** — the paper's buffer registration cache: a slab of
//!   transport-owned buffers that *stay registered*; a hit costs
//!   nothing on the TPT engine but implies a data copy between user
//!   and slab buffer. Keyed by size class and access rights, never by
//!   user virtual address (avoiding the correctness problems of
//!   address-keyed caches [Wyckoff & Wu]), and bounded so the slab can
//!   reclaim memory.
//! * **AllPhysical** — the privileged global steering tag: no TPT work
//!   at all, only page pinning; but DMA must follow physical runs, so
//!   one logical buffer fans out into multiple segments (which is what
//!   ruins NFS WRITE in Figure 9(b)).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ib_verbs::{Access, Buffer, FmrPool, Hca, Mr, Rkey, PAGE_SIZE};
use sim_core::stats::Counter;
use sim_core::{FxMap, Payload};

use crate::header::Segment;

/// Strategy selector (paper §4.3 / §5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrategyKind {
    /// Per-operation dynamic registration.
    Dynamic,
    /// Fast Memory Registration pool with dynamic fall-back.
    Fmr,
    /// Buffer registration cache (slab of persistent registrations).
    Cache,
    /// All-physical (global steering tag) registration.
    AllPhysical,
}

impl StrategyKind {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Dynamic => "Register",
            StrategyKind::Fmr => "FMR",
            StrategyKind::Cache => "Cache",
            StrategyKind::AllPhysical => "All-Physical",
        }
    }
}

enum Handle {
    Mr(Mr),
    Cached(CacheEntry),
    /// All-physical: the leading `pages` of the window are pinned — all
    /// of them once [`Registrar::provision`] has been asked for the
    /// whole window, fewer while a push is still feeding the wire.
    Pinned {
        pages: u64,
    },
}

/// A transport I/O buffer: a registered window of host memory ready
/// for RDMA, plus the bookkeeping to release it correctly.
pub struct IoBuf {
    buffer: Buffer,
    /// Offset of the window within `buffer`.
    base: u64,
    len: u64,
    handle: Handle,
}

impl IoBuf {
    /// Usable length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leading bytes of the window the HCA may gather from right now:
    /// all of it for a TPT-backed or slab window, the pinned prefix for
    /// an all-physical one (see [`Registrar::provision`]).
    pub fn provisioned(&self) -> u64 {
        match &self.handle {
            Handle::Pinned { pages } => self.len.min(pages * PAGE_SIZE),
            _ => self.len,
        }
    }

    /// Read out of the window.
    pub fn read(&self, off: u64, len: u64) -> Payload {
        self.buffer.read(self.base + off, len)
    }

    /// Read out of the window as a scatter/gather list: one refcounted
    /// piece per landed chunk, no flattening. The receive-scatter WRITE
    /// pipeline hands these pieces straight to the file system, where
    /// they become page-cache extents without a pull-up copy.
    pub fn read_sg(&self, off: u64, len: u64) -> sim_core::SgList {
        self.buffer.read_sg(self.base + off, len)
    }

    /// Write into the window.
    pub fn write(&self, off: u64, data: Payload) {
        self.buffer.write(self.base + off, data);
    }

    /// The backing buffer (for posting receives / RDMA destinations).
    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// Offset of the window within [`IoBuf::buffer`].
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The local steering tag a send-side scatter/gather element on
    /// this window must carry. TPT-backed registrations gather under
    /// their MR's key; all-physical windows only have the privileged
    /// global key — which the HCA refuses for multi-element local
    /// gathers (callers must post one WQE per piece instead).
    pub fn lkey(&self, hca: &Hca) -> Rkey {
        match &self.handle {
            Handle::Mr(mr) => mr.rkey(),
            Handle::Cached(e) => e.mr.rkey(),
            Handle::Pinned { .. } => hca
                .global_rkey()
                .expect("all-physical IoBuf without global rkey"),
        }
    }

    /// The RDMA segments describing `[off, off+len)` of the window.
    /// One segment for TPT-backed registrations; one per physically
    /// contiguous run for all-physical.
    pub fn segments(&self, off: u64, len: u64, hca: &Hca) -> Vec<Segment> {
        assert!(off + len <= self.len, "segment range out of window");
        match &self.handle {
            Handle::Mr(mr) => vec![Segment {
                rkey: mr.rkey(),
                len,
                addr: mr.addr() + off,
            }],
            Handle::Cached(e) => vec![Segment {
                rkey: e.mr.rkey(),
                len,
                addr: e.mr.addr() + off,
            }],
            Handle::Pinned { .. } => {
                let g = hca
                    .global_rkey()
                    .expect("all-physical IoBuf without global rkey");
                self.buffer
                    .phys_runs(self.base + off, len)
                    .into_iter()
                    .map(|(buf_off, run_len)| Segment {
                        rkey: g,
                        len: run_len,
                        addr: self.buffer.addr() + buf_off,
                    })
                    .collect()
            }
        }
    }
}

/// One slab entry of the registration cache.
struct CacheEntry {
    buffer: Buffer,
    mr: Mr,
    class: (u32, u8),
}

struct RegCacheInner {
    hca: Hca,
    /// (log2 size class, access bits) -> free entries.
    classes: RefCell<FxMap<(u32, u8), Vec<CacheEntry>>>,
    /// Bytes currently parked in the free lists.
    free_bytes: Cell<u64>,
    /// Free-list capacity; beyond this, releases evict (deregister).
    max_bytes: u64,
    /// Registered as `rpcrdma.regcache.node{N}.{hits,misses,evictions}`
    /// in the simulation's metrics registry.
    hits: Rc<Counter>,
    misses: Rc<Counter>,
    evictions: Rc<Counter>,
}

/// The server/client buffer registration cache (paper §4.3).
#[derive(Clone)]
pub struct RegCache {
    inner: Rc<RegCacheInner>,
}

impl RegCache {
    /// Create a cache bounded to `max_bytes` of parked registrations.
    /// Its hit/miss/eviction counters register under
    /// `rpcrdma.regcache.node{N}` (one HCA per node).
    pub fn new(hca: &Hca, max_bytes: u64) -> RegCache {
        let metrics = hca.sim().metrics();
        let prefix = format!("rpcrdma.regcache.node{}", hca.node().0);
        RegCache {
            inner: Rc::new(RegCacheInner {
                hca: hca.clone(),
                classes: RefCell::new(FxMap::default()),
                free_bytes: Cell::new(0),
                max_bytes,
                hits: metrics.counter(&format!("{prefix}.hits")),
                misses: metrics.counter(&format!("{prefix}.misses")),
                evictions: metrics.counter(&format!("{prefix}.evictions")),
            }),
        }
    }

    fn class_of(len: u64, access: Access) -> (u32, u8) {
        let size = len.max(PAGE_SIZE).next_power_of_two();
        (size.trailing_zeros(), access.bits())
    }

    fn class_size(class: (u32, u8)) -> u64 {
        1u64 << class.0
    }

    async fn acquire(&self, len: u64, access: Access) -> CacheEntry {
        let class = Self::class_of(len, access);
        let hit = self
            .inner
            .classes
            .borrow_mut()
            .get_mut(&class)
            .and_then(Vec::pop);
        if let Some(e) = hit {
            self.inner.hits.inc();
            self.inner
                .free_bytes
                .set(self.inner.free_bytes.get() - Self::class_size(class));
            return e;
        }
        self.inner.misses.inc();
        let size = Self::class_size(class);
        let buffer = self.inner.hca.mem().alloc(size);
        let mr = self.inner.hca.register(&buffer, 0, size, access).await;
        CacheEntry { buffer, mr, class }
    }

    async fn release(&self, e: CacheEntry) {
        let size = Self::class_size(e.class);
        if self.inner.free_bytes.get() + size > self.inner.max_bytes {
            // Slab pressure: give the registration back (paper: "linked
            // to the system slab cache, that may reclaim memory").
            self.inner.evictions.inc();
            e.mr.deregister().await;
            return;
        }
        self.inner
            .free_bytes
            .set(self.inner.free_bytes.get() + size);
        self.inner
            .classes
            .borrow_mut()
            .entry(e.class)
            .or_default()
            .push(e);
    }

    /// Drop every parked registration, deregistering each MR. Used on
    /// connection teardown: cached registrations belong to the old
    /// connection epoch and are conservatively re-established on the
    /// fresh QP (the paper's point that registration caching trades
    /// safety for reuse).
    pub async fn flush(&self) {
        let entries: Vec<CacheEntry> = {
            let mut classes = self.inner.classes.borrow_mut();
            let by_class = sim_core::key_order(classes.drain());
            by_class.into_iter().flat_map(|(_, v)| v).collect()
        };
        self.inner.free_bytes.set(0);
        let sim = self.inner.hca.sim();
        for e in entries {
            self.inner.evictions.inc();
            let pages = Self::class_size(e.class) / PAGE_SIZE;
            sim.flight("regcache", "flush", e.mr.rkey().0 as u64, pages);
            e.mr.deregister().await;
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.inner.hits.get()
    }

    /// Cache misses (each cost a registration).
    pub fn misses(&self) -> u64 {
        self.inner.misses.get()
    }

    /// Evictions (each cost a deregistration).
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.get()
    }

    /// Bytes parked in free lists.
    pub fn free_bytes(&self) -> u64 {
        self.inner.free_bytes.get()
    }
}

/// The registration engine: one per transport endpoint.
#[derive(Clone)]
pub struct Registrar {
    hca: Hca,
    kind: StrategyKind,
    fmr: Option<FmrPool>,
    cache: Option<RegCache>,
}

impl Registrar {
    /// Build a registrar of the given strategy on `hca`. The FMR pool
    /// and cache are created as needed; all-physical enables the
    /// privileged global steering tag.
    pub fn new(hca: &Hca, kind: StrategyKind) -> Registrar {
        let fmr = (kind == StrategyKind::Fmr).then(|| FmrPool::from_config(hca));
        let cache = (kind == StrategyKind::Cache).then(|| RegCache::new(hca, 256 << 20));
        if kind == StrategyKind::AllPhysical {
            hca.enable_all_physical();
        }
        Registrar {
            hca: hca.clone(),
            kind,
            fmr,
            cache,
        }
    }

    /// The strategy in force.
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// The HCA this registrar drives.
    pub fn hca(&self) -> &Hca {
        &self.hca
    }

    /// The cache, if this is a cache registrar.
    pub fn cache(&self) -> Option<&RegCache> {
        self.cache.as_ref()
    }

    /// True if this strategy stages data through transport-owned
    /// buffers (so callers must copy into/out of the [`IoBuf`]).
    pub fn is_staged(&self) -> bool {
        self.kind == StrategyKind::Cache
    }

    /// Connection-recovery hook: drop state tied to the torn-down
    /// connection so bulk buffers are re-registered on the fresh QP.
    /// Only the cache strategy parks registrations; for the others this
    /// is a no-op (dynamic/FMR register per-op, all-physical never
    /// deregisters).
    pub async fn flush_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.flush().await;
        }
    }

    /// Make `[off, off+len)` of the caller's buffer DMA-able in place
    /// (zero-copy). For the cache strategy this instead acquires a slab
    /// buffer — the caller must copy via [`IoBuf::write`]/[`IoBuf::read`]
    /// and charge the CPU accordingly (use [`Registrar::is_staged`]).
    pub async fn acquire_user(&self, buffer: &Buffer, off: u64, len: u64, access: Access) -> IoBuf {
        let mut io = match self.kind {
            StrategyKind::Cache => self.cache_acquire(len, access).await,
            _ => self.register_window(buffer, off, len, access).await,
        };
        self.provision(&mut io, len).await;
        io
    }

    /// Acquire a transport-owned buffer of `len` bytes (server-side
    /// staging, receive sinks), all of it DMA-able on return: reserve,
    /// then provision everything. The cache strategy reuses slab
    /// entries.
    pub async fn acquire_scratch(&self, len: u64, access: Access) -> IoBuf {
        let mut io = self.reserve_scratch(len, access).await;
        self.provision(&mut io, len).await;
        io
    }

    /// *Reserve* a transport-owned window of `len` bytes: it exists and
    /// has its steering tag. A TPT registration or a slab hit is
    /// DMA-able as a whole from here on; an all-physical window has
    /// nothing pinned yet — [`Registrar::provision`] before the HCA
    /// touches it.
    pub async fn reserve_scratch(&self, len: u64, access: Access) -> IoBuf {
        match self.kind {
            StrategyKind::Cache => self.cache_acquire(len, access).await,
            _ => {
                let buffer = self.hca.mem().alloc(len.max(1));
                self.register_window(&buffer, 0, len, access).await
            }
        }
    }

    /// *Provision* the window through byte `upto`: pin the all-physical
    /// pages below it that are not pinned yet (CPU work, charged here);
    /// nothing to do for the strategies whose reservation already made
    /// the whole window DMA-able. A push calls this just ahead of each
    /// doorbell, so the wire starts after the first WQE's pages instead
    /// of the window's.
    pub async fn provision(&self, io: &mut IoBuf, upto: u64) {
        if let Handle::Pinned { pages } = io.handle {
            let want = upto.min(io.len).div_ceil(PAGE_SIZE).max(1);
            if want > pages {
                self.hca.pin_pages(want - pages).await;
                io.handle = Handle::Pinned { pages: want };
            }
        }
    }

    async fn cache_acquire(&self, len: u64, access: Access) -> IoBuf {
        let cache = self.cache.as_ref().expect("cache registrar without cache");
        let e = cache.acquire(len, access).await;
        IoBuf {
            buffer: e.buffer.clone(),
            base: 0,
            len,
            handle: Handle::Cached(e),
        }
    }

    async fn register_window(&self, buffer: &Buffer, off: u64, len: u64, access: Access) -> IoBuf {
        match self.kind {
            StrategyKind::Dynamic => {
                let mr = self.hca.register(buffer, off, len, access).await;
                IoBuf {
                    buffer: buffer.clone(),
                    base: off,
                    len,
                    handle: Handle::Mr(mr),
                }
            }
            StrategyKind::Fmr => {
                let pool = self.fmr.as_ref().expect("fmr registrar without pool");
                match pool.map(buffer, off, len, access).await {
                    Ok(mr) => IoBuf {
                        buffer: buffer.clone(),
                        base: off,
                        len,
                        handle: Handle::Mr(mr),
                    },
                    Err(_) => {
                        // Transparent fall-back path (paper §4.3),
                        // counted by the pool (`hca.node{N}.fmr_fallbacks`).
                        let mr = self.hca.register(buffer, off, len, access).await;
                        IoBuf {
                            buffer: buffer.clone(),
                            base: off,
                            len,
                            handle: Handle::Mr(mr),
                        }
                    }
                }
            }
            StrategyKind::AllPhysical => IoBuf {
                buffer: buffer.clone(),
                base: off,
                len,
                handle: Handle::Pinned { pages: 0 },
            },
            StrategyKind::Cache => unreachable!("cache handled by cache_acquire"),
        }
    }

    /// Release an [`IoBuf`]. The caller waits for what gates reuse of
    /// the window — a TPT deregistration, an FMR unmap — and for nothing
    /// else: the unpin behind it goes to a free core
    /// ([`Hca::unpin_pages`]), a slab hit is a free-list push, and an
    /// all-physical window, whose global steering tag is never revoked,
    /// returns at once.
    pub async fn release(&self, io: IoBuf) {
        match io.handle {
            Handle::Mr(mr) => mr.deregister().await,
            Handle::Cached(e) => {
                self.cache
                    .as_ref()
                    .expect("cached IoBuf without cache")
                    .release(e)
                    .await;
            }
            Handle::Pinned { pages } => self.hca.unpin_pages(pages),
        }
    }

    /// Force-retire an [`IoBuf`] by policy (an overdue `RDMA_DONE`): the
    /// steering tag is invalidated *now* and the TPT ledger records a
    /// revocation. Cached slab entries are dropped rather than parked —
    /// their registration was advertised to an untrusted peer and must
    /// not be handed to the next honest operation.
    pub async fn revoke(&self, io: IoBuf) {
        match io.handle {
            Handle::Mr(mr) => mr.revoke().await,
            Handle::Cached(e) => e.mr.revoke().await,
            Handle::Pinned { pages } => {
                self.hca.note_forced_revocation();
                self.hca.unpin_pages(pages);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_verbs::{Fabric, HcaConfig, HostMem, NodeId, PhysLayout};
    use sim_core::{Cpu, CpuCosts, Sim, SimDuration, Simulation};

    fn setup(sim: &Sim, kind: StrategyKind) -> (Registrar, Rc<HostMem>) {
        let fabric = Fabric::new(sim);
        let node = NodeId(0);
        let cpu = Cpu::new(sim, "cpu", 2, CpuCosts::default());
        let mem = Rc::new(HostMem::new(node, PhysLayout::default(), sim.fork_rng()));
        let hca = Hca::new(sim, node, HcaConfig::sdr(), cpu, mem.clone(), &fabric);
        (Registrar::new(&hca, kind), mem)
    }

    #[test]
    fn dynamic_registers_and_releases() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (reg, mem) = setup(&h, StrategyKind::Dynamic);
        let buf = mem.alloc(128 * 1024);
        sim.block_on({
            let reg = reg.clone();
            async move {
                let io = reg
                    .acquire_user(&buf, 0, 128 * 1024, Access::REMOTE_WRITE)
                    .await;
                let segs = io.segments(0, 128 * 1024, reg.hca());
                assert_eq!(segs.len(), 1);
                assert_eq!(segs[0].len, 128 * 1024);
                reg.release(io).await;
            }
        });
        let stats = reg.hca().reg_stats();
        assert_eq!(stats.dynamic_regs, 1);
        assert_eq!(stats.deregs, 1);
        assert_eq!(stats.leaked_mrs, 0);
    }

    #[test]
    fn cache_hits_after_warmup() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (reg, _mem) = setup(&h, StrategyKind::Cache);
        sim.block_on({
            let reg = reg.clone();
            async move {
                for _ in 0..10 {
                    let io = reg.acquire_scratch(128 * 1024, Access::LOCAL).await;
                    reg.release(io).await;
                }
            }
        });
        let cache = reg.cache().unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 9);
        // Only the first acquire registered anything.
        assert_eq!(reg.hca().reg_stats().dynamic_regs, 1);
        // The same counters live in the metrics registry.
        assert_eq!(h.metrics().get("rpcrdma.regcache.node0.hits"), Some(9));
        assert_eq!(h.metrics().get("rpcrdma.regcache.node0.misses"), Some(1));
    }

    #[test]
    fn cache_classes_separate_by_size_and_access() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (reg, _mem) = setup(&h, StrategyKind::Cache);
        sim.block_on({
            let reg = reg.clone();
            async move {
                let a = reg.acquire_scratch(4096, Access::LOCAL).await;
                let b = reg.acquire_scratch(128 * 1024, Access::LOCAL).await;
                let c = reg.acquire_scratch(4096, Access::REMOTE_READ).await;
                reg.release(a).await;
                reg.release(b).await;
                reg.release(c).await;
            }
        });
        assert_eq!(reg.cache().unwrap().misses(), 3);
    }

    #[test]
    fn cache_bounded_by_capacity() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fabric = Fabric::new(&h);
        let cpu = Cpu::new(&h, "cpu", 2, CpuCosts::default());
        let mem = Rc::new(HostMem::new(NodeId(0), PhysLayout::default(), h.fork_rng()));
        let hca = Hca::new(&h, NodeId(0), HcaConfig::sdr(), cpu, mem, &fabric);
        hca.enable_all_physical(); // irrelevant; ensures no panic paths
        let cache = RegCache::new(&hca, 256 * 1024); // tiny: two 128K entries
        sim.block_on(async move {
            let mut held = Vec::new();
            for _ in 0..4 {
                held.push(cache.acquire(128 * 1024, Access::LOCAL).await);
            }
            for e in held {
                cache.release(e).await;
            }
            assert_eq!(cache.free_bytes(), 256 * 1024);
            assert_eq!(cache.evictions(), 2);
        });
    }

    /// The deregistrations of a flush occupy the TPT one after another,
    /// so their order is part of the schedule: it has to come from the
    /// class keys, not from the map's hasher.
    #[test]
    fn flush_deregisters_in_class_key_order() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (reg, _mem) = setup(&h, StrategyKind::Cache);
        let cache = reg.cache().unwrap().clone();
        let parked = sim.block_on(async move {
            let mut held = Vec::new();
            for access in [Access::REMOTE_READ, Access::LOCAL] {
                for pages in [8, 1, 4, 2] {
                    held.push(cache.acquire(pages * PAGE_SIZE, access).await);
                }
            }
            held.sort_by_key(|e| e.class);
            let parked: Vec<(u64, u64)> = (held.iter())
                .map(|e| (e.mr.rkey().0 as u64, e.mr.len() / PAGE_SIZE))
                .collect();
            for e in held {
                cache.release(e).await;
            }
            cache.flush().await;
            parked
        });
        let flushed: Vec<(u64, u64)> = (sim.flight_records().iter())
            .filter(|f| (f.component, f.event) == ("regcache", "flush"))
            .map(|f| (f.a, f.b))
            .collect();
        assert_eq!(flushed, parked);
        assert_eq!(reg.hca().reg_stats().deregs, 8);
    }

    #[test]
    fn all_physical_emits_segment_per_phys_run() {
        let mut sim = Simulation::new(3);
        let h = sim.handle();
        let (reg, mem) = setup(&h, StrategyKind::AllPhysical);
        let buf = mem.alloc(1 << 20);
        let expected_runs = buf.phys_runs(0, 1 << 20).len();
        sim.block_on({
            let reg = reg.clone();
            let buf = buf.clone();
            async move {
                let io = reg
                    .acquire_user(&buf, 0, 1 << 20, Access::REMOTE_READ)
                    .await;
                let segs = io.segments(0, 1 << 20, reg.hca());
                assert_eq!(segs.len(), expected_runs);
                assert!(segs.len() > 1, "1 MiB should span multiple phys runs");
                let total: u64 = segs.iter().map(|s| s.len).sum();
                assert_eq!(total, 1 << 20);
                // All segments use the global steering tag.
                let g = reg.hca().global_rkey().unwrap();
                assert!(segs.iter().all(|s| s.rkey == g));
                reg.release(io).await;
            }
        });
        // No TPT transactions at all.
        assert_eq!(reg.hca().reg_stats().dynamic_regs, 0);
        assert_eq!(reg.hca().reg_stats().fmr_maps, 0);
    }

    /// Reserve pins nothing, provision pins the pages it is asked for
    /// and no page twice, release unpins what the window holds — not
    /// what it spans — and returns at once: the unpin is charged to a
    /// free core behind the caller's back.
    #[test]
    fn all_physical_window_pins_as_provisioned_and_unpins_what_it_holds() {
        let mut sim = Simulation::new(3);
        let h = sim.handle();
        let (reg, _mem) = setup(&h, StrategyKind::AllPhysical);
        let hca = reg.hca().clone();
        let (cpu, pin) = (hca.cpu().clone(), hca.config().pin_per_page);
        let stats = hca.clone();
        sim.block_on(async move {
            let mut io = reg.reserve_scratch(1 << 20, Access::LOCAL).await;
            assert_eq!((io.provisioned(), hca.reg_stats().pages_pinned), (0, 0));
            assert_eq!(cpu.busy_time(), SimDuration::ZERO);
            reg.provision(&mut io, 100_000).await;
            assert_eq!(io.provisioned(), 25 * PAGE_SIZE);
            reg.provision(&mut io, 50_000).await; // already covered
            reg.provision(&mut io, 25 * PAGE_SIZE + 1).await;
            assert_eq!(
                (io.provisioned(), hca.reg_stats().pages_pinned),
                (26 * PAGE_SIZE, 26)
            );
            assert_eq!(cpu.busy_time(), pin * 26);
            let at = h.now();
            reg.release(io).await;
            assert_eq!(h.now(), at, "release waited for the unpin");
            assert_eq!(hca.reg_stats().pages_unpinned, 0);
            // A core is free, so the unpin (queued behind this task: let
            // it start) ends half a pin per page from now.
            sim_core::yield_now().await;
            h.sleep(pin * 26 / 2).await;
            assert_eq!(cpu.busy_time(), pin * 26 + pin * 26 / 2);
            assert_eq!(hca.reg_stats().pages_unpinned, 26);
            // Whole at once is the two steps back to back.
            let io = reg.acquire_scratch(1 << 20, Access::LOCAL).await;
            assert_eq!(
                (io.provisioned(), hca.reg_stats().pages_pinned),
                (1 << 20, 26 + 256)
            );
            reg.release(io).await;
        });
        sim.run();
        let s = stats.reg_stats();
        assert_eq!((s.pages_pinned, s.pages_unpinned), (26 + 256, 26 + 256));
    }

    /// A TPT registration or a slab entry is DMA-able as a whole once
    /// reserved: provisioning it is free and instant.
    #[test]
    fn tpt_backed_windows_have_nothing_to_provision() {
        for kind in [
            StrategyKind::Dynamic,
            StrategyKind::Fmr,
            StrategyKind::Cache,
        ] {
            let mut sim = Simulation::new(3);
            let h = sim.handle();
            let (reg, _mem) = setup(&h, kind);
            sim.block_on(async move {
                let mut io = reg.reserve_scratch(1 << 20, Access::LOCAL).await;
                assert_eq!(io.provisioned(), 1 << 20, "{kind:?}");
                let (at, busy) = (h.now(), reg.hca().cpu().busy_time());
                reg.provision(&mut io, 1 << 20).await;
                assert_eq!(
                    (h.now(), reg.hca().cpu().busy_time()),
                    (at, busy),
                    "{kind:?}"
                );
                reg.release(io).await;
            });
        }
    }

    #[test]
    fn fmr_falls_back_on_oversize() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (reg, mem) = setup(&h, StrategyKind::Fmr);
        let buf = mem.alloc(4 << 20);
        sim.block_on({
            let reg = reg.clone();
            let buf = buf.clone();
            async move {
                // Over fmr_max_len (1 MiB) -> dynamic fall-back.
                let io = reg
                    .acquire_user(&buf, 0, 2 << 20, Access::REMOTE_READ)
                    .await;
                reg.release(io).await;
                // Within limit -> FMR.
                let io = reg
                    .acquire_user(&buf, 0, 64 * 1024, Access::REMOTE_READ)
                    .await;
                reg.release(io).await;
            }
        });
        assert_eq!(h.metrics().get("hca.node0.fmr_fallbacks"), Some(1));
        let stats = reg.hca().reg_stats();
        assert_eq!(stats.dynamic_regs, 1);
        assert_eq!(stats.fmr_maps, 1);
    }

    #[test]
    fn cache_acquire_is_fast_on_hit() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (reg, _mem) = setup(&h, StrategyKind::Cache);
        let (miss_time, hit_time) = sim.block_on({
            let reg = reg.clone();
            let h2 = h.clone();
            async move {
                let t0 = h2.now();
                let io = reg.acquire_scratch(128 * 1024, Access::LOCAL).await;
                let miss = h2.now().saturating_since(t0);
                reg.release(io).await;
                let t1 = h2.now();
                let io = reg.acquire_scratch(128 * 1024, Access::LOCAL).await;
                let hit = h2.now().saturating_since(t1);
                reg.release(io).await;
                (miss, hit)
            }
        });
        assert!(
            hit_time < SimDuration::from_micros(1),
            "hit cost {hit_time}"
        );
        assert!(
            miss_time > SimDuration::from_micros(100),
            "miss cost {miss_time}"
        );
    }
}
