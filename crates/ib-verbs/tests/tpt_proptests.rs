//! Model-based property tests for the Translation & Protection Table:
//! an arbitrary interleaving of register / invalidate / access-check
//! operations must agree with a naive reference model, and protection
//! must never leak across invalidation.

use proptest::prelude::*;

use ib_verbs::tpt::{RemoteOp, Tpt};
use ib_verbs::{Access, HostMem, NodeId, PhysLayout, Rkey};
use sim_core::{FxMap, MetricsRegistry, SimRng, SimTime};

#[derive(Clone, Debug)]
enum Op {
    Register {
        len: u64,
        read: bool,
        write: bool,
    },
    Invalidate {
        slot: usize,
    },
    Check {
        slot: usize,
        op_is_read: bool,
        off: u64,
        len: u64,
    },
    CheckBogus {
        key: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..16384, any::<bool>(), any::<bool>()).prop_map(|(len, read, write)| Op::Register {
            len,
            read,
            write
        }),
        (0usize..8).prop_map(|slot| Op::Invalidate { slot }),
        (0usize..8, any::<bool>(), 0u64..20000, 1u64..4096).prop_map(
            |(slot, op_is_read, off, len)| Op::Check {
                slot,
                op_is_read,
                off,
                len
            }
        ),
        any::<u32>().prop_map(|key| Op::CheckBogus { key }),
    ]
}

#[derive(Clone)]
struct ModelEntry {
    base: u64,
    len: u64,
    read: bool,
    write: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tpt_agrees_with_reference_model(ops in proptest::collection::vec(arb_op(), 1..128)) {
        let mem = HostMem::new(NodeId(0), PhysLayout::default(), SimRng::new(11));
        let mut tpt = Tpt::new(SimRng::new(13), &MetricsRegistry::new(), NodeId(0));
        let t = SimTime::ZERO;
        // Live registrations in creation order (slots index into this).
        let mut live: Vec<(Rkey, ModelEntry)> = Vec::new();
        let mut model: FxMap<u32, ModelEntry> = FxMap::default();

        for op in ops {
            match op {
                Op::Register { len, read, write } => {
                    let buf = mem.alloc(len);
                    let mut access = Access::LOCAL;
                    if read {
                        access = access | Access::REMOTE_READ;
                    }
                    if write {
                        access = access | Access::REMOTE_WRITE;
                    }
                    let rkey = tpt.insert(buf.clone(), buf.addr(), len, access, t);
                    prop_assert!(!model.contains_key(&rkey.0), "steering tag reuse");
                    let entry = ModelEntry { base: buf.addr(), len, read, write };
                    model.insert(rkey.0, entry.clone());
                    live.push((rkey, entry));
                }
                Op::Invalidate { slot } => {
                    if live.is_empty() { continue; }
                    let (rkey, _) = live.remove(slot % live.len());
                    prop_assert!(tpt.invalidate(rkey, t).is_some());
                    model.remove(&rkey.0);
                }
                Op::Check { slot, op_is_read, off, len } => {
                    if live.is_empty() { continue; }
                    let (rkey, entry) = live[slot % live.len()].clone();
                    let addr = entry.base.wrapping_add(off);
                    let op = if op_is_read { RemoteOp::Read } else { RemoteOp::Write };
                    let got = tpt
                        .check_remote(rkey, addr, len, op, t, |_, _| None)
                        .is_ok();
                    let in_bounds = off + len <= entry.len;
                    let allowed = if op_is_read { entry.read } else { entry.write };
                    prop_assert_eq!(got, in_bounds && allowed,
                        "rkey={:?} off={} len={} entry_len={} read={} write={} op_read={}",
                        rkey, off, len, entry.len, entry.read, entry.write, op_is_read);
                }
                Op::CheckBogus { key } => {
                    // A key that is not currently live must always fail.
                    if !model.contains_key(&key) {
                        let r = tpt.check_remote(
                            Rkey(key), 0x1000_0000, 1, RemoteOp::Read, t, |_, _| None);
                        prop_assert!(r.is_err(), "bogus key {key:#x} accepted");
                    }
                }
            }
        }

        // Exposure accounting: current_bytes equals the sum of live
        // remotely-exposed registrations.
        let expect: u64 = model
            .values()
            .filter(|e| e.read || e.write)
            .map(|e| e.len)
            .sum();
        prop_assert_eq!(tpt.exposure_report(t).current_bytes, expect);
    }

    /// After invalidation a steering tag never grants access again,
    /// even to formerly valid ranges.
    #[test]
    fn invalidated_tags_stay_dead(len in 1u64..65536, probes in 1usize..16) {
        let mem = HostMem::new(NodeId(0), PhysLayout::default(), SimRng::new(3));
        let registry = MetricsRegistry::new();
        let mut tpt = Tpt::new(SimRng::new(5), &registry, NodeId(0));
        let t = SimTime::ZERO;
        let buf = mem.alloc(len);
        let rkey = tpt.insert(
            buf.clone(), buf.addr(), len,
            Access::REMOTE_READ | Access::REMOTE_WRITE, t);
        prop_assert!(tpt
            .check_remote(rkey, buf.addr(), 1, RemoteOp::Read, t, |_, _| None)
            .is_ok());
        tpt.invalidate(rkey, t).unwrap();
        for i in 0..probes {
            let off = (i as u64 * 37) % len;
            prop_assert!(tpt
                .check_remote(rkey, buf.addr() + off, 1, RemoteOp::Read, t, |_, _| None)
                .is_err());
        }
        prop_assert_eq!(registry.get("tpt.violations"), Some(probes as u64));
    }
}
