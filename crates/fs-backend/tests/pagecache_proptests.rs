//! Model-based property tests for the page cache: residency, LRU
//! capacity bounds and dirty-tracking must agree with a naive model,
//! and the cache must be exactly a stamp-ordered `BTreeMap` LRU.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

use fs_backend::{FileId, PageCache, Raid0};
use sim_core::Simulation;

const PAGE: u64 = 4096;
const CAP_PAGES: u64 = 16;

#[derive(Clone, Debug)]
enum Op {
    Read { file: u64, page: u64, pages: u64 },
    Write { file: u64, page: u64, pages: u64 },
    Commit { file: u64 },
    Invalidate { file: u64 },
    DropAll,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..3, 0u64..32, 1u64..4).prop_map(|(file, page, pages)| Op::Read { file, page, pages }),
        (0u64..3, 0u64..32, 1u64..4).prop_map(|(file, page, pages)| Op::Write {
            file,
            page,
            pages
        }),
        (0u64..3).prop_map(|file| Op::Commit { file }),
        (0u64..3).prop_map(|file| Op::Invalidate { file }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn residency_never_exceeds_capacity_and_hits_are_sound(
        ops in proptest::collection::vec(arb_op(), 1..64),
    ) {
        let mut sim = Simulation::new(77);
        let h = sim.handle();
        let raid = Raid0::paper_array(&h);
        let cache = std::rc::Rc::new(PageCache::new(&h, 0, raid, CAP_PAGES * PAGE, PAGE));
        let c2 = cache.clone();
        sim.block_on(async move {
            // Reference model of *which pages could possibly be
            // resident* (superset: readahead may add more, evictions
            // remove — so we check the invariants, not exact equality).
            let mut ever_touched: HashSet<(u64, u64)> = HashSet::new();
            for op in ops {
                match op {
                    Op::Read { file, page, pages } => {
                        let before_hits = c2.hits();
                        let before_misses = c2.misses();
                        c2.read_range(FileId(file), file << 40, page * PAGE, pages * PAGE)
                            .await;
                        // Every demanded page is accounted exactly once.
                        let delta =
                            (c2.hits() - before_hits) + (c2.misses() - before_misses);
                        prop_assert_eq!(delta, pages);
                        for p in page..page + pages {
                            ever_touched.insert((file, p));
                        }
                    }
                    Op::Write { file, page, pages } => {
                        c2.write_range(FileId(file), page * PAGE, pages * PAGE).await;
                        for p in page..page + pages {
                            ever_touched.insert((file, p));
                        }
                    }
                    Op::Commit { file } => {
                        c2.commit(FileId(file), file << 40).await;
                    }
                    Op::Invalidate { file } => {
                        c2.invalidate(FileId(file));
                    }
                    Op::DropAll => c2.drop_all(),
                }
                // Capacity invariant after every step.
                prop_assert!(
                    c2.resident_pages() <= CAP_PAGES,
                    "{} resident > cap {}",
                    c2.resident_pages(),
                    CAP_PAGES
                );
            }
            Ok(())
        })?;
    }

    /// Reading the same in-capacity range twice: the second pass is all
    /// hits and costs zero virtual time.
    #[test]
    fn rereads_within_capacity_are_free(pages in 1u64..=CAP_PAGES) {
        let mut sim = Simulation::new(5);
        let h = sim.handle();
        let raid = Raid0::paper_array(&h);
        let cache = std::rc::Rc::new(PageCache::new(&h, 0, raid, CAP_PAGES * PAGE, PAGE));
        let c2 = cache.clone();
        sim.block_on(async move {
            c2.read_range(FileId(1), 0, 0, pages * PAGE).await;
            let t0 = h.now();
            let misses_before = c2.misses();
            c2.read_range(FileId(1), 0, 0, pages * PAGE).await;
            prop_assert_eq!(c2.misses(), misses_before, "re-read missed");
            prop_assert_eq!(h.now(), t0, "re-read cost time");
            Ok(())
        })?;
    }
}

/// Pages a miss fetches in one window (the cache's readahead depth).
const READAHEAD_PAGES: u64 = 8;

/// The reference cache: the same policy — readahead windows, write-back
/// on eviction and commit — with recency kept the obvious way, a
/// `BTreeMap` from stamp to page beside the page map.
#[derive(Default)]
struct ReferenceLru {
    pages: HashMap<(u64, u64), (bool, u64)>,
    order: BTreeMap<u64, (u64, u64)>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl ReferenceLru {
    fn touch(&mut self, key: (u64, u64), dirty: bool) {
        if let Some((_, old)) = self.pages.get(&key) {
            self.order.remove(old);
        }
        self.order.insert(self.next_stamp, key);
        self.pages.insert(key, (dirty, self.next_stamp));
        self.next_stamp += 1;
    }

    fn evict_for(&mut self, need: u64) {
        while self.pages.len() as u64 + need > CAP_PAGES {
            let Some((_, key)) = self.order.pop_first() else {
                return;
            };
            let (dirty, _) = self.pages.remove(&key).expect("ordered page is resident");
            self.writebacks += u64::from(dirty);
        }
    }

    fn read(&mut self, file: u64, first: u64, last: u64) {
        let mut page = first;
        while page <= last {
            if let Some(&(dirty, _)) = self.pages.get(&(file, page)) {
                self.hits += 1;
                self.touch((file, page), dirty);
                page += 1;
                continue;
            }
            let mut run = 1;
            while run < READAHEAD_PAGES && !self.pages.contains_key(&(file, page + run)) {
                run += 1;
            }
            self.misses += last.min(page + run - 1) - page + 1;
            self.evict_for(run);
            for p in page..page + run {
                self.touch((file, p), false);
            }
            page += run;
        }
    }

    fn write(&mut self, file: u64, first: u64, last: u64) {
        for page in first..=last {
            if !self.pages.contains_key(&(file, page)) {
                self.evict_for(1);
            }
            self.touch((file, page), true);
        }
    }

    fn commit(&mut self, file: u64) {
        for ((f, _), (dirty, _)) in self.pages.iter_mut() {
            if *f == file && *dirty {
                *dirty = false;
                self.writebacks += 1;
            }
        }
    }

    fn coldest_first(&self) -> Vec<(FileId, u64)> {
        self.order.values().map(|&(f, p)| (FileId(f), p)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal resident lists, coldest first, after every step mean the
    /// two caches evict the same pages in the same order; hits, misses
    /// and write-backs are compared as running totals. Sequences run
    /// long enough for the recency queue to compact.
    #[test]
    fn recency_queue_is_exactly_a_stamp_ordered_lru(
        steps in proptest::collection::vec(arb_step(), 1..64),
    ) {
        let mut sim = Simulation::new(78);
        let h = sim.handle();
        let raid = Raid0::paper_array(&h);
        let cache = std::rc::Rc::new(PageCache::new(&h, 0, raid, CAP_PAGES * PAGE, PAGE));
        let writebacks = {
            let registry = sim.metrics();
            move || registry.get("pagecache.node0.writebacks").unwrap()
        };
        let c2 = cache.clone();
        sim.block_on(async move {
            let mut model = ReferenceLru::default();
            for op in steps.into_iter().flat_map(|(op, n)| std::iter::repeat_n(op, n as usize)) {
                match op {
                    Op::Read { file, page, pages } => {
                        c2.read_range(FileId(file), file << 40, page * PAGE, pages * PAGE)
                            .await;
                        model.read(file, page, page + pages - 1);
                    }
                    Op::Write { file, page, pages } => {
                        c2.write_range(FileId(file), page * PAGE, pages * PAGE).await;
                        model.write(file, page, page + pages - 1);
                    }
                    Op::Commit { file } => {
                        c2.commit(FileId(file), file << 40).await;
                        model.commit(file);
                    }
                    Op::Invalidate { file } => {
                        c2.invalidate(FileId(file));
                        model.pages.retain(|&(f, _), _| f != file);
                        let pages = &model.pages;
                        model.order.retain(|_, key| pages.contains_key(key));
                    }
                    Op::DropAll => {
                        c2.drop_all();
                        model.pages.clear();
                        model.order.clear();
                    }
                }
                prop_assert_eq!(c2.resident_coldest_first(), model.coldest_first());
                prop_assert_eq!(
                    (c2.hits(), c2.misses(), writebacks()),
                    (model.hits, model.misses, model.writebacks)
                );
            }
            Ok(())
        })?;
    }
}

/// A step: one of the ops above, a burst of re-reads of a range small
/// enough to stay resident (each hit leaves a stale recency entry, so
/// bursts make the queue compact), or a power failure.
fn arb_step() -> impl Strategy<Value = (Op, u64)> {
    prop_oneof![
        arb_op().prop_map(|op| (op, 1)),
        arb_op().prop_map(|op| (op, 1)),
        (0u64..3, 0u64..32, 1u64..4, 8u64..64)
            .prop_map(|(file, page, pages, n)| (Op::Read { file, page, pages }, n)),
        Just((Op::DropAll, 1)),
    ]
}
