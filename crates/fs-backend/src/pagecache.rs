//! Server page cache: LRU residency over a disk array.
//!
//! Timing and contents are deliberately separated: file contents live
//! in per-file extent maps (always correct), while the cache tracks
//! *which ranges are memory-resident* and charges disk time for
//! misses, write-back for dirty evictions, and nothing for hits. This
//! is the mechanism behind Figure 10: client working sets that fit in
//! server RAM read at wire speed; bigger ones collapse to the RAID's
//! aggregate rate.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use sim_core::{Counter, FxMap, Sim};

use crate::disk::Raid0;
use crate::vfs::FileId;

/// Cache-page key: (file, page index).
type PageKey = (u64, u64);

#[derive(Clone, Copy, PartialEq, Eq)]
enum PageState {
    Clean,
    Dirty,
}

struct CacheInner {
    /// Resident pages: state + recency stamp.
    pages: FxMap<PageKey, (PageState, u64)>,
    /// Recency order, coldest first: every touch queues `(stamp, key)`
    /// at the back and leaves the page's older entry behind, stale. An
    /// entry is live while its stamp is still its page's, so the live
    /// entries are in stamp order and eviction, skipping the stale
    /// ones, is exact LRU at amortised O(1) a touch and a pop.
    order: VecDeque<(u64, PageKey)>,
    next_stamp: u64,
}

/// Stale recency entries tolerated beyond one per resident page before
/// the queue is compacted: it never holds more than `2 × resident +
/// STALE_FLOOR` entries after a touch.
const STALE_FLOOR: usize = 64;

impl CacheInner {
    fn live(pages: &FxMap<PageKey, (PageState, u64)>, &(stamp, key): &(u64, PageKey)) -> bool {
        pages.get(&key).is_some_and(|&(_, s)| s == stamp)
    }

    /// Make `key` resident in `state`, hottest.
    fn touch(&mut self, key: PageKey, state: PageState) {
        self.pages.insert(key, (state, self.next_stamp));
        self.queue(key);
    }

    /// Make `key` hottest if it is resident (one hash lookup).
    fn hit(&mut self, key: PageKey) -> bool {
        let Some(page) = self.pages.get_mut(&key) else {
            return false;
        };
        page.1 = self.next_stamp;
        self.queue(key);
        true
    }

    /// Queue `key` under the stamp its page was just given.
    fn queue(&mut self, key: PageKey) {
        self.order.push_back((self.next_stamp, key));
        self.next_stamp += 1;
        if self.order.len() > 2 * self.pages.len() + STALE_FLOOR {
            let pages = &self.pages;
            self.order.retain(|e| Self::live(pages, e));
        }
    }

    fn pop_coldest(&mut self) -> Option<(PageKey, PageState)> {
        while let Some(entry) = self.order.pop_front() {
            if Self::live(&self.pages, &entry) {
                return Some((entry.1, self.pages.remove(&entry.1)?.0));
            }
        }
        None
    }
}

/// Pages fetched per miss (sequential readahead, like the kernel's
/// readahead window); amortizes disk positioning across streams.
const READAHEAD_PAGES: u64 = 8;

/// LRU page cache over a RAID-0 array.
pub struct PageCache {
    raid: Raid0,
    page_size: u64,
    capacity_pages: u64,
    /// Per-file next expected page, for classifying access patterns.
    next_expected: RefCell<FxMap<u64, u64>>,
    inner: RefCell<CacheInner>,
    /// `pagecache.node{N}.hits`: pages found resident.
    hits: Rc<Counter>,
    /// `pagecache.node{N}.misses`: demanded pages that cost a disk read.
    misses: Rc<Counter>,
    /// `pagecache.node{N}.writebacks`: dirty pages written to the array.
    writebacks: Rc<Counter>,
    /// `pagecache.readahead.windows` (every cache of the simulation):
    /// miss fetches that pulled more than the demanded pages.
    ra_windows: Rc<Counter>,
    /// `pagecache.readahead.pages`: speculative pages fetched beyond
    /// demand.
    ra_pages: Rc<Counter>,
    /// `pagecache.readahead.sequential`: reads that continued a file's
    /// sequential stream.
    ra_sequential: Rc<Counter>,
}

impl PageCache {
    /// A cache of `capacity_bytes` RAM in `page_size` units over `raid`,
    /// on server node `node` (its hit, miss and write-back series carry
    /// the node).
    pub fn new(
        sim: &Sim,
        node: u32,
        raid: Raid0,
        capacity_bytes: u64,
        page_size: u64,
    ) -> PageCache {
        assert!(page_size.is_power_of_two());
        let registry = sim.metrics();
        let series = |name: &str| registry.counter(&format!("pagecache.{name}"));
        let own = |name: &str| registry.counter(&format!("pagecache.node{node}.{name}"));
        PageCache {
            raid,
            page_size,
            capacity_pages: (capacity_bytes / page_size).max(1),
            next_expected: RefCell::new(FxMap::default()),
            inner: RefCell::new(CacheInner {
                pages: FxMap::default(),
                order: VecDeque::new(),
                next_stamp: 0,
            }),
            hits: own("hits"),
            misses: own("misses"),
            writebacks: own("writebacks"),
            ra_windows: series("readahead.windows"),
            ra_pages: series("readahead.pages"),
            ra_sequential: series("readahead.sequential"),
        }
    }

    /// Cache page size.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses so far (each cost a disk read).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.inner.borrow().pages.len() as u64
    }

    /// Resident pages as `(file, page)`, coldest first: the order
    /// eviction takes them in (diagnostic).
    pub fn resident_coldest_first(&self) -> Vec<(FileId, u64)> {
        let inner = self.inner.borrow();
        let live = inner
            .order
            .iter()
            .filter(|e| CacheInner::live(&inner.pages, e));
        live.map(|&(_, (file, page))| (FileId(file), page))
            .collect()
    }

    /// Make `[off, off+len)` of `file` resident for reading, charging
    /// disk time for missing pages. `disk_base` maps the file onto the
    /// array's address space.
    pub async fn read_range(&self, file: FileId, disk_base: u64, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = off / self.page_size;
        let last = (off + len - 1) / self.page_size;
        // Classify the access: a read starting where the file's last
        // read ended continues a sequential stream (the pattern the
        // readahead window exists to serve).
        let sequential = self.next_expected.borrow().get(&file.0) == Some(&first);
        if sequential {
            self.ra_sequential.inc();
        }
        self.next_expected.borrow_mut().insert(file.0, last + 1);
        let mut page = first;
        while page <= last {
            if self.inner.borrow_mut().hit((file.0, page)) {
                self.hits.inc();
                page += 1;
                continue;
            }
            // Miss: fetch a readahead window of consecutive missing
            // pages in one disk request.
            let mut run = 1u64;
            while run < READAHEAD_PAGES {
                let next = (file.0, page + run);
                if self.inner.borrow().pages.contains_key(&next) {
                    break;
                }
                run += 1;
            }
            // Only the demanded pages count as misses; readahead pages
            // beyond `last` are speculative.
            let demanded = (last.min(page + run - 1) - page) + 1;
            self.misses.add(demanded);
            if run > demanded {
                self.ra_windows.inc();
                self.ra_pages.add(run - demanded);
            }
            self.evict_for(run).await;
            self.raid
                .transfer(disk_base + page * self.page_size, run * self.page_size)
                .await;
            {
                let mut inner = self.inner.borrow_mut();
                for p in page..page + run {
                    inner.touch((file.0, p), PageState::Clean);
                }
            }
            page += run;
        }
    }

    /// Mark `[off, off+len)` of `file` resident and dirty (write-back
    /// caching: no disk time now; evictions and commits pay it).
    pub async fn write_range(&self, file: FileId, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = off / self.page_size;
        let last = (off + len - 1) / self.page_size;
        for page in first..=last {
            let key = (file.0, page);
            let known = self.inner.borrow().pages.contains_key(&key);
            if !known {
                self.evict_for(1).await;
            }
            self.inner.borrow_mut().touch(key, PageState::Dirty);
        }
    }

    /// Flush all dirty pages of `file` to the array.
    pub async fn commit(&self, file: FileId, disk_base: u64) {
        let dirty: Vec<u64> = {
            let inner = self.inner.borrow();
            inner
                .pages
                .iter()
                .filter(|((f, _), (s, _))| *f == file.0 && *s == PageState::Dirty)
                .map(|((_, p), _)| *p)
                .collect()
        };
        if dirty.is_empty() {
            return;
        }
        self.writebacks.add(dirty.len() as u64);
        // Coalesce into one sequential sweep per commit.
        let bytes = dirty.len() as u64 * self.page_size;
        self.raid.transfer(disk_base, bytes).await;
        let mut inner = self.inner.borrow_mut();
        for p in dirty {
            if let Some(page) = inner.pages.get_mut(&(file.0, p)) {
                page.0 = PageState::Clean;
            }
        }
    }

    /// Mark every dirty page clean without charging disk time; returns
    /// the number of pages cleaned. Used by the WAL-backed store after
    /// a group commit: the data is durable in the log, so home-location
    /// writeback is elided (log-structured durability).
    pub fn mark_clean_all(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let dirty = inner
            .pages
            .values_mut()
            .filter(|page| page.0 == PageState::Dirty);
        dirty.map(|page| page.0 = PageState::Clean).count() as u64
    }

    /// Drop every resident page without write-back — power failure:
    /// whatever was dirty is simply gone.
    pub fn drop_all(&self) {
        self.next_expected.borrow_mut().clear();
        let mut inner = self.inner.borrow_mut();
        inner.pages.clear();
        inner.order.clear();
    }

    /// Drop all pages of `file` (delete/truncate).
    pub fn invalidate(&self, file: FileId) {
        self.next_expected.borrow_mut().remove(&file.0);
        // Their recency entries go stale, skipped by eviction.
        self.inner
            .borrow_mut()
            .pages
            .retain(|(f, _), _| *f != file.0);
    }

    async fn evict_for(&self, need: u64) {
        loop {
            let victim = {
                let mut inner = self.inner.borrow_mut();
                if (inner.pages.len() as u64) + need <= self.capacity_pages {
                    return;
                }
                inner.pop_coldest()
            };
            let Some((key, state)) = victim else { return };
            if state == PageState::Dirty {
                self.writebacks.inc();
                self.raid
                    .transfer(key.1 * self.page_size, self.page_size)
                    .await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Raid0;
    use sim_core::{SimTime, Simulation};

    fn cache(sim: &Simulation, capacity: u64) -> PageCache {
        let raid = Raid0::paper_array(&sim.handle());
        PageCache::new(&sim.handle(), 0, raid, capacity, 256 * 1024)
    }

    /// Reads the series `pagecache.{name}` of `sim`.
    fn counts(sim: &Simulation) -> impl Fn(&str) -> u64 {
        let registry = sim.metrics();
        move |name| registry.get(&format!("pagecache.{name}")).unwrap()
    }

    #[test]
    fn first_read_misses_then_hits() {
        let mut sim = Simulation::new(1);
        let c = cache(&sim, 64 << 20);
        sim.block_on({
            async move {
                c.read_range(FileId(5), 0, 0, 1 << 20).await;
                assert_eq!(c.misses(), 4);
                assert_eq!(c.hits(), 0);
                c.read_range(FileId(5), 0, 0, 1 << 20).await;
                assert_eq!(c.hits(), 4);
                assert_eq!(c.misses(), 4);
            }
        });
    }

    #[test]
    fn hits_cost_no_time() {
        let mut sim = Simulation::new(1);
        let c = std::rc::Rc::new(cache(&sim, 64 << 20));
        let c2 = c.clone();
        let (t1, t2) = sim.block_on({
            let h = sim.handle();
            async move {
                let t0 = h.now();
                c2.read_range(FileId(1), 0, 0, 1 << 20).await;
                let t1 = h.now().saturating_since(t0);
                let t0 = h.now();
                c2.read_range(FileId(1), 0, 0, 1 << 20).await;
                let t2 = h.now().saturating_since(t0);
                (t1, t2)
            }
        });
        assert!(t1.as_nanos() > 0);
        assert_eq!(t2.as_nanos(), 0);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut sim = Simulation::new(1);
        // Room for 8 pages of 256K = 2 MiB.
        let c = std::rc::Rc::new(cache(&sim, 2 << 20));
        let c2 = c.clone();
        sim.block_on(async move {
            // Fill with file 1 (8 pages).
            c2.read_range(FileId(1), 0, 0, 2 << 20).await;
            assert_eq!(c2.resident_pages(), 8);
            // Read file 2: evicts file 1's coldest pages.
            c2.read_range(FileId(2), 1 << 30, 0, 1 << 20).await;
            assert_eq!(c2.resident_pages(), 8);
            let before = c2.misses();
            // Oldest file-1 pages are gone: re-reading them misses.
            c2.read_range(FileId(1), 0, 0, 1 << 20).await;
            assert!(c2.misses() > before);
        });
    }

    #[test]
    fn dirty_eviction_pays_writeback() {
        let mut sim = Simulation::new(1);
        let c = std::rc::Rc::new(cache(&sim, 2 << 20));
        let c2 = c.clone();
        let count = counts(&sim);
        sim.block_on(async move {
            c2.write_range(FileId(1), 0, 2 << 20).await; // 8 dirty pages
            let t0 = SimTime::ZERO;
            let _ = t0;
            // Displace them with reads.
            c2.read_range(FileId(2), 1 << 30, 0, 2 << 20).await;
            assert!(
                count("node0.writebacks") >= 8,
                "writebacks {}",
                count("node0.writebacks")
            );
        });
    }

    #[test]
    fn commit_flushes_dirty_pages_once() {
        let mut sim = Simulation::new(1);
        let c = std::rc::Rc::new(cache(&sim, 64 << 20));
        let c2 = c.clone();
        let count = counts(&sim);
        sim.block_on(async move {
            c2.write_range(FileId(1), 0, 1 << 20).await;
            c2.commit(FileId(1), 0).await;
            assert_eq!(count("node0.writebacks"), 4);
            // Second commit: nothing dirty.
            c2.commit(FileId(1), 0).await;
            assert_eq!(count("node0.writebacks"), 4);
        });
    }

    #[test]
    fn sequential_stream_readahead_classifies_and_prefetches() {
        let mut sim = Simulation::new(1);
        let c = std::rc::Rc::new(cache(&sim, 64 << 20));
        let c2 = c.clone();
        let count = counts(&sim);
        sim.block_on(async move {
            // First read of 2 pages: a miss whose window (8 pages)
            // prefetches 6 beyond demand.
            c2.read_range(FileId(1), 0, 0, 512 * 1024).await;
            assert_eq!(c2.misses(), 2);
            assert_eq!(count("readahead.windows"), 1);
            assert_eq!(count("readahead.pages"), 6);
            assert_eq!(count("readahead.sequential"), 0, "first read has no stream");
            // Continuing where the last read ended: classified
            // sequential, and the readahead already made it a pure hit.
            c2.read_range(FileId(1), 0, 512 * 1024, 512 * 1024).await;
            assert_eq!(count("readahead.sequential"), 1);
            assert_eq!(c2.misses(), 2, "prefetched pages must hit");
            // A jump elsewhere in the file is not sequential.
            c2.read_range(FileId(1), 0, 8 << 20, 256 * 1024).await;
            assert_eq!(count("readahead.sequential"), 1);
        });
    }

    /// A working set that fits re-touches every page each lap: every
    /// hit leaves a stale recency entry behind, and the queue still
    /// never holds more than two entries a resident page plus the floor.
    #[test]
    fn stale_recency_entries_stay_bounded_over_a_cyclic_scan() {
        let mut sim = Simulation::new(1);
        let c = cache(&sim, 256 << 18); // 256 pages
        sim.block_on(async move {
            let mut longest = 0;
            for i in 0..10_000u64 {
                c.read_range(FileId(1), 0, (i % 200) << 18, 1 << 18).await;
                let inner = c.inner.borrow();
                assert!(inner.order.len() <= 2 * inner.pages.len() + STALE_FLOOR);
                longest = longest.max(inner.order.len());
            }
            assert!(longest > 2 * 200, "the scan never needed compacting");
        });
    }

    #[test]
    fn invalidate_drops_residency() {
        let mut sim = Simulation::new(1);
        let c = std::rc::Rc::new(cache(&sim, 64 << 20));
        let c2 = c.clone();
        sim.block_on(async move {
            c2.read_range(FileId(1), 0, 0, 1 << 20).await;
            c2.invalidate(FileId(1));
            assert_eq!(c2.resident_pages(), 0);
        });
    }
}
