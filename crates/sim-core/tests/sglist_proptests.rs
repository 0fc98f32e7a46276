//! Model-based property tests of the scatter/gather list: whatever it
//! holds inline or on the heap, an `SgList` must behave exactly like a
//! `Vec<Payload>` of its non-empty pieces — for `push`, `append`,
//! `slice`, `pieces_with_offsets`, `to_payload`, `==` and consuming
//! iteration, at zero, one and many pieces. Plus the allocation
//! contract: a one-piece list never touches the heap, and
//! `from_pieces` keeps the `Vec` it is given.
//!
//! Allocations are counted per thread, so sibling test threads cannot
//! leak one into a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use sim_core::{Payload, SgList};

struct PerThread;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Real or synthetic, sometimes empty.
fn arb_piece() -> impl Strategy<Value = Payload> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(Payload::real),
        (1u64..4, 0u64..64, 0u64..12)
            .prop_map(|(seed, off, len)| { Payload::synthetic(seed, off + len).slice(off, len) }),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    Push(Payload),
    Append(Vec<Payload>),
    /// Replace the list by its sub-range at these fractions (per mille)
    /// of its length.
    Slice(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_piece().prop_map(Op::Push),
        arb_piece().prop_map(Op::Push),
        proptest::collection::vec(arb_piece(), 0..4).prop_map(Op::Append),
        (0u64..=1000, 0u64..=1000).prop_map(|(a, b)| Op::Slice(a, b)),
    ]
}

fn total(model: &[Payload]) -> u64 {
    model.iter().map(Payload::len).sum()
}

/// The model's `[start, start+len)`: each piece cut to its overlap.
fn model_slice(model: &[Payload], start: u64, len: u64) -> Vec<Payload> {
    let end = start + len;
    let mut out = Vec::new();
    let mut at = 0;
    for p in model {
        let (lo, hi) = (start.max(at), end.min(at + p.len()));
        if lo < hi {
            out.push(p.slice(lo - at, hi - lo));
        }
        at += p.len();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sg_list_matches_a_vec_of_pieces(ops in proptest::collection::vec(arb_op(), 0..12)) {
        let mut sg = SgList::new();
        let mut model: Vec<Payload> = Vec::new();
        for op in ops {
            match op {
                Op::Push(p) => {
                    if !p.is_empty() {
                        model.push(p.clone());
                    }
                    sg.push(p);
                }
                Op::Append(ps) => {
                    model.extend(ps.iter().filter(|p| !p.is_empty()).cloned());
                    sg.append(SgList::from_pieces(ps));
                }
                Op::Slice(a, b) => {
                    let len = total(&model);
                    let start = len * a.min(b) / 1000;
                    let n = len * a.max(b) / 1000 - start;
                    model = model_slice(&model, start, n);
                    sg = sg.slice(start, n);
                }
            }
            prop_assert_eq!(sg.pieces(), &model[..]);
            prop_assert_eq!(sg.len(), total(&model));
            prop_assert_eq!(sg.is_empty(), model.is_empty());
            prop_assert_eq!(sg.piece_count(), model.len());

            let offsets: Vec<u64> = sg.pieces_with_offsets().map(|(at, _)| at).collect();
            let want: Vec<u64> = model
                .iter()
                .scan(0, |at, p| {
                    let here = *at;
                    *at += p.len();
                    Some(here)
                })
                .collect();
            prop_assert_eq!(offsets, want);
            prop_assert_eq!(sg.to_payload(), Payload::concat(&model));

            // However it was built, the same pieces are the same list.
            let rebuilt = SgList::from_pieces(model.clone());
            prop_assert_eq!(&rebuilt, &sg);
            prop_assert_eq!(format!("{rebuilt:?}"), format!("{sg:?}"));
            let mut pushed = SgList::new();
            for p in &model {
                pushed.push(p.clone());
            }
            prop_assert_eq!(&pushed, &sg);
            let consumed: Vec<Payload> = sg.clone().into_iter().collect();
            prop_assert_eq!(&consumed, &model);
        }
    }
}

#[test]
fn from_pieces_keeps_the_vec_it_is_given() {
    let before = allocs();
    let sg = SgList::from_pieces(vec![
        Payload::synthetic(1, 8),
        Payload::zeros(4),
        Payload::synthetic(2, 3),
    ]);
    assert_eq!(allocs() - before, 1, "the vec! and nothing more");
    assert_eq!((sg.piece_count(), sg.len()), (3, 15));
}

#[test]
fn a_one_piece_list_never_touches_the_heap() {
    let before = allocs();
    let mut sg = SgList::from(Payload::synthetic(7, 1 << 20));
    sg.push(Payload::empty());
    let cut = sg.slice(4096, 8192);
    let mut pieces = cut.clone().into_iter();
    let piece = pieces.next().expect("one piece");
    assert!(pieces.next().is_none());
    let empty = SgList::from_pieces(Vec::new());
    assert_eq!(allocs() - before, 0);
    assert_eq!(piece, Payload::synthetic(7, 1 << 20).slice(4096, 8192));
    assert_eq!(cut.to_payload(), piece);
    assert!(empty.is_empty());
}
