//! Measurement helpers: the registry's counter and gauge cells, and the
//! latency histogram the workload drivers and figure harnesses report.

use std::cell::Cell;

use crate::time::SimDuration;

/// A monotonic event counter cheap enough for per-message hot paths
/// (a [`Cell`] bump, no allocation). Taken from the
/// [`crate::MetricsRegistry`] by name, so a count and its series are one
/// cell.
#[derive(Debug, Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Count one event.
    pub fn inc(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Count `n` events at once.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Events counted so far.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A level that is set and read: operations in flight, a high-water
/// mark. Unlike a [`Counter`] it may go down; like one, it is a
/// registry series (`MetricsRegistry::gauge`) and nothing zeroes it
/// behind its owner's back.
#[derive(Debug, Default)]
pub struct Gauge(Cell<u64>);

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Raise the level to `v` if it is higher: a high-water mark.
    pub fn raise(&self, v: u64) {
        self.0.set(self.0.get().max(v));
    }
}

/// Log-bucketed latency histogram: ~4% relative resolution across
/// nanoseconds to minutes, O(1) record, O(buckets) quantile.
///
/// ```
/// use sim_core::{Histogram, SimDuration};
/// let mut h = Histogram::new();
/// for us in 1..=100 {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.5).as_micros();
/// assert!((45..=55).contains(&p50));
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    /// buckets[i] counts samples with log1.0905(ns) == i (16 buckets
    /// per power of two).
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    const SUB_BUCKETS: u32 = 16;

    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            // 64 powers of two x 16 sub-buckets covers u64 range.
            buckets: vec![0; (64 * Self::SUB_BUCKETS) as usize],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        let exp = 63 - ns.leading_zeros();
        let frac = if exp >= 4 {
            ((ns >> (exp - 4)) & 0xF) as u32
        } else {
            0
        };
        (exp * Self::SUB_BUCKETS + frac) as usize
    }

    fn bucket_value(i: usize) -> u64 {
        let exp = i as u32 / Self::SUB_BUCKETS;
        let frac = i as u32 % Self::SUB_BUCKETS;
        if exp >= 4 {
            (1u64 << exp) + ((frac as u64) << (exp - 4))
        } else {
            1u64 << exp
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Smallest sample (exact), or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest sample (exact).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Quantile in `[0, 1]`, accurate to the bucket resolution (~4%).
    /// Clamped into `[min, max]` of the recorded samples, so a quantile
    /// of a single sample is exact rather than its bucket floor.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(
                    Self::bucket_value(i).clamp(self.min_ns, self.max_ns),
                );
            }
        }
        self.max()
    }

    /// Fold `other`'s samples into `self` (elementwise bucket add plus
    /// count/sum/min/max), so per-shard histograms combine into one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl std::fmt::Display for Histogram {
    /// `count=… mean=… p50=… p90=… p99=… max=…`, durations in
    /// microseconds — the one-line summary the harnesses print.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = |d: SimDuration| d.as_nanos() as f64 / 1_000.0;
        write!(
            f,
            "count={} mean={:.1}us p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            us(self.mean()),
            us(self.quantile(0.50)),
            us(self.quantile(0.90)),
            us(self.quantile(0.99)),
            us(self.max()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_roughly_right() {
        let mut h = Histogram::new();
        // Uniform 1..=1000 us.
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).as_micros() as f64;
        let p99 = h.quantile(0.99).as_micros() as f64;
        assert!((450.0..=550.0).contains(&p50), "p50={p50}");
        assert!((930.0..=1000.0).contains(&p99), "p99={p99}");
        assert_eq!(h.max(), SimDuration::from_micros(1000));
        let mean = h.mean().as_micros();
        assert!((495..=505).contains(&mean), "mean={mean}");
    }

    #[test]
    fn histogram_edge_cases() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_nanos(u32::MAX as u64 * 1000));
        assert_eq!(h.count(), 3);
        assert!(h.quantile(1.0) <= h.max());
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_resolution_within_7_percent() {
        for ns in [100u64, 5_000, 123_456, 9_999_999, 1 << 40] {
            let mut h = Histogram::new();
            h.record(SimDuration::from_nanos(ns));
            let got = h.quantile(0.5).as_nanos() as f64;
            let err = (got - ns as f64).abs() / ns as f64;
            assert!(err < 0.07, "ns={ns} got={got} err={err}");
        }
    }

    #[test]
    fn histogram_single_sample_quantiles_are_exact() {
        // Min clamp: every quantile of one sample is that sample, not
        // the bucket floor beneath it.
        for ns in [1u64, 999, 123_456, 9_999_999] {
            let mut h = Histogram::new();
            h.record(SimDuration::from_nanos(ns));
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q).as_nanos(), ns, "ns={ns} q={q}");
            }
            assert_eq!(h.min().as_nanos(), ns);
        }
    }

    #[test]
    fn histogram_quantile_never_below_min() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1000));
        h.record(SimDuration::from_nanos(1_000_000));
        assert!(h.quantile(0.0) >= SimDuration::from_nanos(1000));
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for us in 1..=500u64 {
            a.record(SimDuration::from_micros(us));
        }
        for us in 501..=1000u64 {
            b.record(SimDuration::from_micros(us));
        }
        let mut whole = Histogram::new();
        for us in 1..=1000u64 {
            whole.record(SimDuration::from_micros(us));
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), SimDuration::from_micros(1));
        assert_eq!(a.max(), SimDuration::from_micros(1000));
        assert_eq!(a.mean(), whole.mean());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(SimDuration::from_micros(7));
        let before = (a.count(), a.min(), a.max(), a.mean());
        a.merge(&Histogram::new());
        assert_eq!(before, (a.count(), a.min(), a.max(), a.mean()));
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.min(), SimDuration::from_micros(7));
    }

    #[test]
    fn histogram_summary_display() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(10));
        let text = h.to_string();
        assert!(text.contains("count=1"), "{text}");
        assert!(text.contains("p50=10.0us"), "{text}");
        assert!(text.contains("max=10.0us"), "{text}");
    }
}
