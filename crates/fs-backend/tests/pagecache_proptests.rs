//! Model-based property tests for the page cache: residency, LRU
//! capacity bounds and dirty-tracking must agree with a naive model.

use proptest::prelude::*;
use std::collections::HashSet;

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
