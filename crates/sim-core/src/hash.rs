//! The one hasher of every map and set in the product crates.
//!
//! Each per-op lookup of the simulated stack — the QP table, the TPT,
//! the duplicate request cache, the client's pending calls, the page
//! cache, the inodes — hashes an integer or a short tuple of them, drawn
//! from the simulation itself. SipHash's resistance to chosen keys buys
//! nothing there and costs a dozen rounds per lookup; [`FxHasher`] is
//! one add and one multiply per word, with a rotate at the end so the
//! bucket index comes from the product's well-mixed middle bits.
//!
//! Each map instance still draws its own seed from std's `RandomState`:
//! a walk in hash order differs between two runs of one seed, as it did
//! under std's hasher, so a schedule that depends on one shows up as a
//! divergence instead of hiding behind an order that merely happens to
//! repeat (DESIGN.md §3, "Iteration order is part of the schedule").

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// `HashMap` under [`FxHasher`], seeded per instance. Build one with
/// `FxMap::default()` or `collect()`.
pub type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// `HashSet` under [`FxHasher`], seeded per instance.
pub type FxSet<T> = HashSet<T, FxBuild>;

/// The multiplier (rustc's FxHash, second version).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Builds the [`FxHasher`]s of one map: every one starts from the seed
/// the map drew when it was made.
#[derive(Clone)]
pub struct FxBuild(u64);

impl Default for FxBuild {
    fn default() -> FxBuild {
        FxBuild(RandomState::new().hash_one(()))
    }
}

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(self.0)
    }
}

/// Multiplicative word hasher (FxHash-style); see the module docs.
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two maps holding the same keys walk them in different orders —
    /// the property that lets a hash-order walk split two runs of one
    /// seed — while one map answers every lookup.
    #[test]
    fn each_map_draws_its_own_order() {
        let keys = 0..64u32;
        let orders: Vec<Vec<u32>> = (0..4)
            .map(|_| {
                let set: FxSet<u32> = keys.clone().collect();
                assert!(keys.clone().all(|k| set.contains(&k)));
                set.iter().copied().collect()
            })
            .collect();
        assert!(
            orders.windows(2).any(|w| w[0] != w[1]),
            "one order for every map"
        );
    }

    /// The keys the stack hashes — consecutive XIDs under a node
    /// number, as a call's trace key is built — spread over the buckets
    /// about as a random function would (~162 of 256).
    #[test]
    fn consecutive_keys_spread() {
        let build = FxBuild::default();
        let buckets: FxSet<u64> = (0..256u64)
            .map(|xid| build.hash_one((3 << 32) | xid) & 255)
            .collect();
        assert!(buckets.len() > 128, "{} of 256 buckets", buckets.len());
    }
}
