//! Deterministic pseudo-random numbers for simulations.
//!
//! The simulator must be bit-for-bit reproducible from a seed, so the
//! core does not depend on external RNG crates. [`SimRng`] is a
//! SplitMix64 generator: tiny state, excellent statistical quality for
//! simulation workloads, and trivially seedable.

/// A deterministic SplitMix64 pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds yield identical
    /// sequences on every platform.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Derive an independent child generator; used to give each
    /// simulated host or workload thread its own stream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method so the result is
    /// unbiased.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Sample an exponential distribution with the given mean (used for
    /// OLTP think times and arrival processes).
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        // Avoid ln(0).
        let u = 1.0 - self.gen_f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_is_in_bounds() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let v = r.gen_range(13);
            assert!(v < 13);
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.gen_range(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exp_mean_roughly_right() {
        let mut r = SimRng::new(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.gen_exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(123);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
