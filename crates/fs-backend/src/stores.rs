//! Data-store back ends: tmpfs (memory) and the cached disk store.

use std::cell::RefCell;
use std::rc::Rc;

use sim_core::{ExtentMap, FxMap, Payload, SgList, Sim};

use crate::disk::Raid0;
use crate::pagecache::PageCache;
use crate::vfs::{DataStore, FileId, Fs, LocalBoxFuture};
use crate::wal::Wal;

/// Shared per-file content maps (contents are always exact; only
/// timing differs between stores).
#[derive(Default)]
struct Contents {
    files: RefCell<FxMap<u64, ExtentMap>>,
}

impl Contents {
    /// Hand out the backing extents as reference-counted slices — the
    /// store-side half of the zero-copy READ path. No flattening: a
    /// caller that can gather keeps each piece as-is.
    fn read_sg(&self, file: FileId, off: u64, len: u64) -> SgList {
        self.files
            .borrow()
            .get(&file.0)
            .map(|m| m.read_sg(off, len))
            .unwrap_or_else(|| SgList::from(Payload::zeros(len)))
    }

    /// Lay one record down as-is (WAL replay).
    fn write(&self, file: FileId, off: u64, data: Payload) {
        self.files
            .borrow_mut()
            .entry(file.0)
            .or_default()
            .write(off, data);
    }

    /// Scatter each piece at its own sub-offset — the store-side half
    /// of the zero-copy WRITE path (no flattening of the gather list).
    fn write_sg(&self, file: FileId, off: u64, data: &SgList) {
        let mut files = self.files.borrow_mut();
        let map = files.entry(file.0).or_default();
        for (at, p) in data.pieces_with_offsets() {
            map.write(off + at, p.clone());
        }
    }

    /// Drop everything at or past `size`.
    fn truncate(&self, file: FileId, size: u64) {
        if let Some(map) = self.files.borrow_mut().get_mut(&file.0) {
            map.truncate(size);
        }
    }

    fn delete(&self, file: FileId) {
        self.files.borrow_mut().remove(&file.0);
    }

    /// Power failure: everything in (simulated) RAM is gone.
    fn clear(&self) {
        self.files.borrow_mut().clear();
    }
}

/// Memory-backed store: the paper's tmpfs configuration. Data access
/// costs nothing here; the NFS/RPC layers charge the copies.
#[derive(Default)]
pub struct MemStore {
    contents: Rc<Contents>,
}

impl DataStore for MemStore {
    fn read_sg(&self, file: FileId, off: u64, len: u64) -> LocalBoxFuture<SgList> {
        let data = self.contents.read_sg(file, off, len);
        Box::pin(async move { data })
    }

    fn write_sg(&self, file: FileId, off: u64, data: SgList) -> LocalBoxFuture<u64> {
        let n = data.len();
        self.contents.write_sg(file, off, &data);
        Box::pin(async move { n })
    }

    fn commit(&self, _file: FileId) -> LocalBoxFuture<()> {
        Box::pin(async {})
    }

    fn truncate(&self, file: FileId, size: u64) {
        self.contents.truncate(file, size);
    }

    fn delete(&self, file: FileId) {
        self.contents.delete(file);
    }
}

/// A tmpfs file system (paper §5.1/§5.2 back end).
pub type Tmpfs = Fs<MemStore>;

/// Create a tmpfs.
pub fn tmpfs(sim: &Sim) -> Tmpfs {
    Fs::new(sim, MemStore::default())
}

/// Disk-backed store with a server page cache (paper §5.3 back end:
/// XFS on an 8-disk RAID-0 behind the Linux page cache).
pub struct CachedDiskStore {
    contents: Rc<Contents>,
    cache: Rc<PageCache>,
    /// Optional write-ahead log. `None` (the default) preserves the
    /// paper-era behavior exactly: commit = coalesced RAID sweep.
    wal: Option<Rc<Wal>>,
    /// File -> base address in the array's space (simple contiguous
    /// allocation; fragmentation is not modelled).
    layout: RefCell<FxMap<u64, u64>>,
    next_base: std::cell::Cell<u64>,
}

impl CachedDiskStore {
    /// Build over a RAID array with `ram_bytes` of page cache, on server
    /// node `node` (the page cache's series carry it).
    pub fn new(
        sim: &Sim,
        node: u32,
        raid: Raid0,
        ram_bytes: u64,
        cache_page: u64,
    ) -> CachedDiskStore {
        CachedDiskStore {
            contents: Rc::default(),
            cache: Rc::new(PageCache::new(sim, node, raid, ram_bytes, cache_page)),
            wal: None,
            layout: RefCell::new(FxMap::default()),
            next_base: std::cell::Cell::new(0),
        }
    }

    /// Like [`CachedDiskStore::new`], but journal every write through
    /// `wal`: COMMIT becomes a sequential group commit on the log
    /// device instead of a page-granular RAID sweep, and
    /// [`CachedDiskStore::power_fail_restart`] recovers committed data
    /// by replay.
    pub fn with_wal(
        sim: &Sim,
        node: u32,
        raid: Raid0,
        ram_bytes: u64,
        cache_page: u64,
        wal: Rc<Wal>,
    ) -> CachedDiskStore {
        let mut store = CachedDiskStore::new(sim, node, raid, ram_bytes, cache_page);
        store.wal = Some(wal);
        store
    }

    /// The page cache (for statistics).
    pub fn cache(&self) -> &Rc<PageCache> {
        &self.cache
    }

    /// The write-ahead log, when journaling is enabled.
    pub fn wal(&self) -> Option<&Rc<Wal>> {
        self.wal.as_ref()
    }

    /// Power failure followed by restart: volatile contents and cache
    /// residency are gone; recovery replays the WAL's committed records
    /// (in append order — idempotent) into fresh contents. Without a
    /// WAL everything is lost. Namespace metadata is assumed journaled
    /// separately and survives; uncommitted ranges, and ranges a
    /// truncate cut from the log, read back as zeros.
    pub async fn power_fail_restart(&self) {
        self.contents.clear();
        self.cache.drop_all();
        if let Some(wal) = &self.wal {
            wal.power_fail();
            for r in wal.recover().await {
                self.contents.write(r.file, r.off, r.data);
            }
        }
    }

    /// Restart after a crash to *rejoin a cluster as backup*: like
    /// [`CachedDiskStore::power_fail_restart`], but first truncates the
    /// committed WAL to `keep_records` — the prefix the new primary's
    /// replicated log acknowledges. Anything this node committed beyond
    /// that died with it (local commit raced the backup ack), so replay
    /// stops at the cluster-agreed history and the primary re-ships the
    /// missing tail (a bounded catch-up metered as
    /// `fs.wal.resync_bytes`) instead of this node cold-starting.
    pub async fn rejoin_restart(&self, keep_records: u64) {
        if let Some(wal) = &self.wal {
            wal.truncate_committed_to(keep_records);
        }
        self.power_fail_restart().await;
    }

    fn base_of(&self, file: FileId) -> u64 {
        *self.layout.borrow_mut().entry(file.0).or_insert_with(|| {
            // Reserve a generous fixed extent per file (64 GiB apart);
            // the array address space is virtual.
            let base = self.next_base.get();
            self.next_base.set(base + (64 << 30));
            base
        })
    }
}

impl DataStore for CachedDiskStore {
    fn read_sg(&self, file: FileId, off: u64, len: u64) -> LocalBoxFuture<SgList> {
        let cache = self.cache.clone();
        let contents = self.contents.clone();
        let base = self.base_of(file);
        Box::pin(async move {
            cache.read_range(file, base, off, len).await;
            contents.read_sg(file, off, len)
        })
    }

    fn write_sg(&self, file: FileId, off: u64, data: SgList) -> LocalBoxFuture<u64> {
        let cache = self.cache.clone();
        let contents = self.contents.clone();
        let wal = self.wal.clone();
        Box::pin(async move {
            let n = data.len();
            contents.write_sg(file, off, &data);
            cache.write_range(file, off, n).await;
            if let Some(wal) = wal {
                for (at, p) in data.pieces_with_offsets() {
                    wal.append(file, off + at, p.clone()).await;
                }
            }
            n
        })
    }

    fn commit(&self, file: FileId) -> LocalBoxFuture<()> {
        let cache = self.cache.clone();
        let base = self.base_of(file);
        let wal = self.wal.clone();
        Box::pin(async move {
            match wal {
                // Log-structured durability: one sequential group
                // commit covers every file's pending records, and the
                // dirty pages are cleaned without a home-location
                // sweep (write-back elided; the log is stable).
                Some(wal) => {
                    wal.commit().await;
                    cache.mark_clean_all();
                }
                None => cache.commit(file, base).await,
            }
        })
    }

    fn truncate(&self, file: FileId, size: u64) {
        self.contents.truncate(file, size);
        if let Some(wal) = &self.wal {
            wal.truncate_file(file, size);
        }
        if size == 0 {
            self.cache.invalidate(file);
        }
    }

    fn delete(&self, file: FileId) {
        self.contents.delete(file);
        self.cache.invalidate(file);
    }
}

/// A disk-backed file system.
pub type DiskFs = Fs<CachedDiskStore>;

/// Create the paper's §5.3 configuration: 8 × 30 MB/s RAID-0 with
/// `ram_bytes` of server page cache, as node 0's store.
pub fn diskfs(sim: &Sim, ram_bytes: u64) -> DiskFs {
    let raid = Raid0::paper_array(sim);
    Fs::new(
        sim,
        CachedDiskStore::new(sim, 0, raid, ram_bytes, 256 * 1024),
    )
}

/// The §5.3 array plus a write-ahead log on a dedicated log disk:
/// COMMIT group-commits sequentially instead of sweeping the RAID, and
/// power failures recover committed data by replay.
pub fn diskfs_wal(sim: &Sim, ram_bytes: u64) -> DiskFs {
    let raid = Raid0::paper_array(sim);
    let wal = Wal::new(sim);
    Fs::new(
        sim,
        CachedDiskStore::with_wal(sim, 0, raid, ram_bytes, 256 * 1024, wal),
    )
}
