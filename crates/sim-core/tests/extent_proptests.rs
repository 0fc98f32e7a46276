//! Model-based property tests: the sparse extent map must agree with a
//! flat byte-array reference under arbitrary write/read/truncate
//! interleavings, and its scatter reads must be exactly the pieces a
//! list built one push at a time from a per-byte owner model holds.

use proptest::prelude::*;
use sim_core::{ExtentMap, Payload, SgList};

const SPACE: usize = 4096;

#[derive(Clone, Debug)]
enum Op {
    Write { off: usize, data: Vec<u8> },
    Read { off: usize, len: usize },
    Truncate { size: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPACE, proptest::collection::vec(any::<u8>(), 1..256)).prop_map(|(off, mut data)| {
            data.truncate(SPACE - off);
            if data.is_empty() {
                data.push(1);
            }
            Op::Write {
                off: off.min(SPACE - 1),
                data,
            }
        }),
        (0..SPACE, 1..256usize).prop_map(|(off, len)| Op::Read {
            off,
            len: len.min(SPACE - off).max(1),
        }),
        (0..=SPACE).prop_map(|size| Op::Truncate { size }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extent_map_matches_flat_array(ops in proptest::collection::vec(arb_op(), 1..64)) {
        let mut map = ExtentMap::new();
        let mut flat = vec![0u8; SPACE];
        for op in ops {
            match op {
                Op::Write { off, data } => {
                    let end = (off + data.len()).min(SPACE);
                    let data = &data[..end - off];
                    map.write(off as u64, Payload::real(data.to_vec()));
                    flat[off..end].copy_from_slice(data);
                }
                Op::Read { off, len } => {
                    let got = map.read(off as u64, len as u64).materialize();
                    prop_assert_eq!(&got[..], &flat[off..off + len]);
                }
                Op::Truncate { size } => {
                    map.truncate(size as u64);
                    flat[size..].fill(0);
                }
            }
        }
        // Full-space sweep at the end.
        let got = map.read(0, SPACE as u64).materialize();
        prop_assert_eq!(&got[..], &flat[..]);
    }

    #[test]
    fn synthetic_and_real_writes_interleave_correctly(
        seed in 1u64..1000,
        cuts in proptest::collection::vec((0..SPACE, 1..128usize), 1..16),
    ) {
        let mut map = ExtentMap::new();
        let mut flat = vec![0u8; SPACE];
        // Base: one big synthetic extent.
        let base = Payload::synthetic(seed, SPACE as u64);
        let base_bytes = base.materialize();
        map.write(0, base.clone());
        flat.copy_from_slice(&base_bytes);
        // Punch real-byte holes into it.
        for (off, len) in cuts {
            let len = len.min(SPACE - off).max(1);
            let patch = vec![0xEE; len];
            map.write(off as u64, Payload::real(patch.clone()));
            flat[off..off + len].copy_from_slice(&patch);
        }
        let got = map.read(0, SPACE as u64).materialize();
        prop_assert_eq!(&got[..], &flat[..]);
    }

    #[test]
    fn read_sg_is_the_push_built_list(ops in proptest::collection::vec(arb_op(), 1..64)) {
        let mut map = ExtentMap::new();
        // Per byte: the write that owns it (its payload and where that
        // payload starts), or `None` for a zero gap.
        let mut owner: Vec<Option<(usize, usize)>> = vec![None; SPACE];
        let mut writes = Vec::new();
        for op in ops {
            let (off, len) = match op {
                Op::Write { off, data } => {
                    let data = Payload::synthetic(writes.len() as u64 + 1, data.len() as u64);
                    map.write(off as u64, data.clone());
                    owner[off..off + data.len() as usize].fill(Some((writes.len(), off)));
                    writes.push(data);
                    (0, SPACE)
                }
                Op::Read { off, len } => (off, len),
                Op::Truncate { size } => {
                    map.truncate(size as u64);
                    owner[size..].fill(None);
                    (0, SPACE)
                }
            };
            // One piece per run of bytes with one owner, pushed in order.
            let mut want = SgList::new();
            let mut at = off;
            while at < off + len {
                let run = owner[at..off + len].iter().take_while(|o| **o == owner[at]).count();
                want.push(match owner[at] {
                    Some((w, start)) => writes[w].slice((at - start) as u64, run as u64),
                    None => Payload::zeros(run as u64),
                });
                at += run;
            }
            let got = map.read_sg(off as u64, len as u64);
            prop_assert_eq!(got.pieces(), want.pieces());
            prop_assert_eq!(got.len(), len as u64);
        }
    }
}
