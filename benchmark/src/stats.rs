//! Exact order statistics, the host-time estimators, and the
//! generators' random source.

/// Nearest-rank percentile of raw samples sorted ascending: the
/// smallest sample with at least `q` of the samples at or below it.
/// Never a histogram bucket edge.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The second-smallest value (`simperf`'s rule for host times): noise
/// on a shared box only ever adds time, so the least-disturbed samples
/// are nearest the true cost, and skipping the single best keeps one
/// lucky quiet window from setting the result.
pub fn best_but_one(times: &[f64]) -> f64 {
    let v = sorted(times);
    v[1.min(v.len() - 1)]
}

/// splitmix64. The benchmark draws its inputs from its own generator
/// so that a change to `sim_core::SimRng` cannot change the workload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the bias of the modulo is below 2^-40
    /// for the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}
