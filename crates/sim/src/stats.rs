//! Statistics: counters, histograms, exponentially-weighted moving
//! averages, and the mean/standard-error helper the benchmark harnesses use
//! to print error bars (mirroring Alameldeen & Wood's methodology of
//! pseudo-random perturbation across runs).

use std::collections::BTreeMap;
use std::fmt;

/// A string-keyed registry of counters.
///
/// Hot paths should keep local counters in component fields and fold them in
/// at the end of a run; `Stats` is intended for low-frequency events and
/// final aggregation.
///
/// # Example
///
/// ```
/// use tokencmp_sim::Stats;
/// let mut s = Stats::new();
/// s.bump("l1.miss");
/// s.add("l1.miss", 2);
/// assert_eq!(s.counter("l1.miss"), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Increments `key` by one.
    pub fn bump(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Increments `key` by `n`.
    pub fn add(&mut self, key: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(key) {
            *c += n;
        } else {
            self.counters.insert(key.to_owned(), n);
        }
    }

    /// Reads a counter (zero if never written).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Iterates counters in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sums all counters whose key starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Folds `other` into `self`: counters are summed.
    ///
    /// This is the end-of-run aggregation primitive: components keep local
    /// stats, the harness merges them into one registry.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.counters() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

/// A power-of-two bucketed latency histogram.
///
/// Bucket `i` holds samples with `floor(log2(value)) == i` (bucket 0 also
/// holds zero). Tracks count, sum, min and max exactly.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// An upper bound for the `q`-quantile (`0.0..=1.0`), accurate to a
    /// power-of-two bucket and never outside the observed `[min, max]`
    /// range (a raw bucket boundary can overshoot the true maximum —
    /// e.g. 1023 for samples `1..=1000`).
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                let bound = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return Some(bound.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self` bucket-by-bucket; the result is exactly
    /// the histogram that would have recorded both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        // Merging an empty histogram is a no-op: skip its bucket walk.
        if other.count == 0 {
            return;
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }
}

/// An exponentially-weighted moving average, used for the transient-request
/// timeout threshold (§4: TokenCMP sets the threshold from *memory*
/// response latencies only).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Folds in an observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current average, if any observation has been made.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current average or `default` before the first observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

/// Sample mean and standard error of the mean; the harnesses report
/// `mean ± 1.96·stderr` as 95 % error bars over seeds.
///
/// Returns `(0.0, 0.0)` for an empty slice and stderr `0.0` for one sample.
pub fn mean_stderr(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.bump("a");
        s.bump("a");
        s.add("b", 5);
        assert_eq!(s.counter("a"), 2);
        assert_eq!(s.counter("b"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn prefix_sum_selects_only_prefix() {
        let mut s = Stats::new();
        s.add("net.inter.data", 10);
        s.add("net.inter.ctrl", 5);
        s.add("net.intra.data", 100);
        assert_eq!(s.counter_prefix_sum("net.inter."), 15);
        assert_eq!(s.counter_prefix_sum("net."), 115);
        assert_eq!(s.counter_prefix_sum("nope"), 0);
    }

    #[test]
    fn histogram_basic_moments() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(4));
    }

    #[test]
    fn histogram_handles_zero_and_large() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = Stats::new();
        a.add("x", 3);
        a.add("only_a", 1);
        let mut b = Stats::new();
        b.add("x", 4);
        b.add("only_b", 2);
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.counter("only_a"), 1);
        assert_eq!(a.counter("only_b"), 2);
        // b is untouched
        assert_eq!(b.counter("x"), 4);
    }

    #[test]
    fn stats_merge_empty_is_identity() {
        let mut a = Stats::new();
        a.add("k", 9);
        let before: Vec<_> = a.counters().map(|(k, v)| (k.to_string(), v)).collect();
        a.merge(&Stats::new());
        let after: Vec<_> = a.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn merge_into_empty_copies_everything() {
        let mut src = Stats::new();
        src.add("c", 4);
        let mut dst = Stats::new();
        dst.merge(&src);
        assert_eq!(dst.counter("c"), 4);
        assert_eq!(
            dst.counters().collect::<Vec<_>>(),
            src.counters().collect::<Vec<_>>()
        );
    }

    #[test]
    fn merge_disjoint_keys_is_a_union() {
        let mut a = Stats::new();
        a.add("token.persistent", 3);
        let mut b = Stats::new();
        b.add("dir.forward", 8);
        a.merge(&b);
        assert_eq!(a.counters().count(), 2);
        assert_eq!(a.counter("token.persistent"), 3);
        assert_eq!(a.counter("dir.forward"), 8);
    }

    #[test]
    fn histogram_merge_of_empty_histograms_stays_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        assert_eq!(a.quantile_upper_bound(0.5), None);
    }

    #[test]
    fn histogram_merge_disjoint_ranges_preserves_quantile_bounds() {
        // Two latency populations that never overlap: merging must keep
        // p50 inside the low population's bucket and p99 inside the
        // high one's, both clamped to the observed [min, max].
        let mut low = Histogram::new();
        let mut high = Histogram::new();
        for _ in 0..100 {
            low.record(10);
            high.record(1_000_000);
        }
        low.merge(&high);
        assert_eq!(low.count(), 200);
        assert_eq!(low.min(), Some(10));
        assert_eq!(low.max(), Some(1_000_000));
        let p50 = low.quantile_upper_bound(0.5).unwrap();
        let p99 = low.quantile_upper_bound(0.99).unwrap();
        // p50 lands in 10's power-of-two bucket [8, 15]; p99 in the high
        // population's bucket, clamped to the true max.
        assert!((10..=15).contains(&p50), "p50 bound {p50}");
        assert_eq!(p99, 1_000_000);
        assert!(p50 <= p99);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [0u64, 1, 5, 100, 1 << 40] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 7, 7, 3000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile_upper_bound(q), both.quantile_upper_bound(q));
        }
        // merging an empty histogram is the identity
        let count = a.count();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), count);
    }

    #[test]
    fn quantile_upper_bound_never_exceeds_observed_range() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // bucket bound for q=1.0 would be 1023; the observed max is 1000
        assert_eq!(h.quantile_upper_bound(1.0), Some(1000));
        let mut z = Histogram::new();
        z.record(0);
        // bucket 0's raw bound is 1; the only sample is 0
        assert_eq!(z.quantile_upper_bound(0.5), Some(0));
        let mut one = Histogram::new();
        one.record(700);
        assert_eq!(one.quantile_upper_bound(0.5), Some(700));
    }

    #[test]
    fn quantile_upper_bound_is_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q50 = h.quantile_upper_bound(0.5).unwrap();
        let q99 = h.quantile_upper_bound(0.99).unwrap();
        assert!(q50 <= q99);
        assert!(q50 >= 500); // upper bound property
        assert!(Histogram::new().quantile_upper_bound(0.5).is_none());
    }

    #[test]
    fn ewma_converges_toward_constant_input() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(9.0), 9.0);
        for _ in 0..32 {
            e.observe(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_observation_is_exact() {
        let mut e = Ewma::new(0.1);
        e.observe(42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn mean_stderr_known_values() {
        let (m, se) = mean_stderr(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        // sample var = 1, stderr = sqrt(1/3)
        assert!((se - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_stderr(&[]), (0.0, 0.0));
        assert_eq!(mean_stderr(&[5.0]), (5.0, 0.0));
    }
}
