//! Statistics accumulators shared by the simulator, the runtime and the
//! experiment harness.
//!
//! [`Summary`] streams min/max/mean without storing samples; [`Samples`]
//! keeps everything for percentiles. The paper reports `<min, max, avg>`
//! triples (Table 2) and avg/max series (Fig. 2, Fig. 4).

use crate::time::Duration;
use std::fmt;

/// Streaming min/max/mean over `u64` observations (typically nanoseconds).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    count: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Summary {
    /// An empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += u128::from(value);
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of observations.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation, `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// `(min, max, mean)` as microsecond floats — the paper's
    /// `<min, max, avg>` reporting format. Zeroes if empty.
    #[must_use]
    pub fn as_micros_triple(&self) -> (f64, f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.min as f64 / 1e3,
            self.max as f64 / 1e3,
            self.mean().unwrap_or(0.0) / 1e3,
        )
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min(), self.max(), self.mean()) {
            (Some(min), Some(max), Some(mean)) => write!(
                f,
                "n={} min={} max={} avg={}",
                self.count,
                Duration::from_nanos(min),
                Duration::from_nanos(max),
                Duration::from_nanos(mean as u64),
            ),
            _ => write!(f, "n=0"),
        }
    }
}

impl FromIterator<u64> for Summary {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

/// Sample-retaining statistics with percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Pre-allocates capacity for `n` samples (hot-path friendliness).
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Appends every observation of `other` (used when merging
    /// per-shard results into one aggregate).
    pub fn merge(&mut self, other: &Samples) {
        if other.values.is_empty() {
            return;
        }
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// `true` if no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest observation.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.values.iter().copied().min()
    }

    /// Largest observation.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.values.iter().copied().max()
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let sum: u128 = self.values.iter().map(|&v| u128::from(v)).sum();
        Some(sum as f64 / self.values.len() as f64)
    }

    /// The `p`-th percentile (0–100, nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if `p > 100`.
    #[must_use]
    pub fn percentile(&mut self, p: u8) -> Option<u64> {
        assert!(p <= 100, "percentile must be in 0..=100");
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = (usize::from(p) * n).div_ceil(100).clamp(1, n);
        Some(self.values[rank - 1])
    }

    /// Condenses into a streaming [`Summary`].
    #[must_use]
    pub fn summary(&self) -> Summary {
        self.values.iter().copied().collect()
    }

    /// The raw observations (unsorted or sorted depending on history).
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut s = Samples::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        assert_eq!(s.min(), None);
        assert_eq!(s.mean(), None);
        for v in [5u64, 1, 9, 5] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(9));
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_merge() {
        let a: Summary = [1u64, 2].into_iter().collect();
        let mut b: Summary = [10u64].into_iter().collect();
        b.merge(&a);
        assert_eq!(b.count(), 3);
        assert_eq!(b.min(), Some(1));
        assert_eq!(b.max(), Some(10));
        let empty = Summary::new();
        b.merge(&empty);
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn summary_micros_triple() {
        let mut s = Summary::new();
        s.record(Duration::from_micros(90).as_nanos());
        s.record(Duration::from_micros(1481).as_nanos());
        let (min, max, avg) = s.as_micros_triple();
        assert!((min - 90.0).abs() < 1e-9);
        assert!((max - 1481.0).abs() < 1e-9);
        assert!((avg - 785.5).abs() < 1e-9);
        assert_eq!(Summary::new().as_micros_triple(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn summary_display() {
        let s: Summary = [1_000u64, 3_000].into_iter().collect();
        let txt = s.to_string();
        assert!(txt.contains("n=2"), "{txt}");
        assert_eq!(Summary::new().to_string(), "n=0");
    }

    #[test]
    fn samples_percentiles() {
        let mut s: Samples = (1..=100u64).collect();
        assert_eq!(s.percentile(50), Some(50));
        assert_eq!(s.percentile(99), Some(99));
        assert_eq!(s.percentile(100), Some(100));
        assert_eq!(s.percentile(0), Some(1));
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(100));
        assert!((s.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn samples_merge_appends() {
        let mut a: Samples = [10u64, 30].into_iter().collect();
        let b: Samples = [20u64].into_iter().collect();
        a.merge(&b);
        a.merge(&Samples::new());
        assert_eq!(a.count(), 3);
        assert_eq!(a.percentile(50), Some(20));
        assert_eq!(a.max(), Some(30));
    }

    #[test]
    fn samples_empty() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(50), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.summary().count(), 0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn samples_percentile_out_of_range() {
        let mut s: Samples = [1u64].into_iter().collect();
        let _ = s.percentile(101);
    }

    #[test]
    fn samples_summary_agrees() {
        let s: Samples = [10u64, 20, 30].into_iter().collect();
        let sum = s.summary();
        assert_eq!(sum.min(), Some(10));
        assert_eq!(sum.max(), Some(30));
        assert_eq!(sum.count(), 3);
    }
}
