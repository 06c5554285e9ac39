//! Order statistics and the decile-of-window-medians estimator.
//!
//! The sandbox stalls for 40–250 ms a few times per run, so a raw p99
//! of one binary ranged 1.3 ms → 344 ms while its p50 moved a few per
//! cent: within a 1 s window the statistic is the **median**. Across
//! windows and segments the gated value is the **lowest decile**
//! ([`LEVEL`]; the simulator sweep has an estimator of its own, see
//! `explore.rs`) and the plain median across windows is
//! printed beside it as a diagnostic (`e2e.latency_wmed_us`,
//! `e2e.cpu_wmed_us_per_job`), so a regression that slows only some
//! windows — which a low order statistic cannot see — still shows.
//!
//! Why not gate the median: the host's noise is one-sided — compute
//! runs ×1.5–1.7 slower in bursts of seconds that cover any share of
//! a run; wake-ups get
//! 1.5–2× slower for minutes at a time — so a median over windows flips
//! between the host's modes from run to run, while a low order
//! statistic stays on the level the program holds when the host leaves
//! it alone. Spread (IQR ÷ median) over ten 20 s runs, same samples, by
//! the aggregate taken across the windows:
//!
//! | | minimum | decile | lower quartile | median |
//! |---|---|---|---|---|
//! | `cyclic`, quiet host | 6.1 % | 4.1 % | 3.2 % | 5.0 % |
//! | `cyclic`, noisy host | 13.4 % | 9.5 % | 12.5 % | 42.5 % |
//!
//! Set-up times are the exception: the contract asks for the median
//! over a run's set-ups and they repeat to 0.1 % anyway.

/// The order statistic taken across windows and segments.
pub const LEVEL: f64 = 0.1;

/// The `p`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between the two nearest ranks. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts `values` in place and returns its `p`-quantile.
pub fn quantile(values: &mut [f64], p: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, p)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Median of an integer sample, as `f64` (0 when empty — used only for
/// per-layer diagnostics, where "no sample" prints as 0).
pub fn median_u64(values: &[u64]) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&mut v).unwrap_or(0.0)
}

/// Samples bucketed into fixed-length windows by a timestamp.
///
/// Windows are `[origin + k·len, origin + (k+1)·len)` for
/// `k < count`; samples stamped outside are dropped, so a run cut short
/// never reports a partial window.
#[derive(Debug)]
pub struct Windows {
    origin_ns: u64,
    len_ns: u64,
    buckets: Vec<Vec<f64>>,
}

impl Windows {
    /// `count` windows of `len_ns` starting at `origin_ns`.
    pub fn new(origin_ns: u64, len_ns: u64, count: usize) -> Self {
        assert!(len_ns > 0, "window length must be positive");
        Windows {
            origin_ns,
            len_ns,
            buckets: vec![Vec::new(); count],
        }
    }

    /// Adds a sample stamped `at_ns`; `false` when it falls outside
    /// every window.
    pub fn push(&mut self, at_ns: u64, value: f64) -> bool {
        if at_ns < self.origin_ns {
            return false;
        }
        let k = ((at_ns - self.origin_ns) / self.len_ns) as usize;
        match self.buckets.get_mut(k) {
            Some(b) => {
                b.push(value);
                true
            }
            None => false,
        }
    }

    /// Number of samples kept.
    pub fn samples(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Windows holding at least `min` samples (short windows are
    /// dropped from every statistic).
    pub fn full_windows(&self, min: usize) -> usize {
        self.buckets
            .iter()
            .filter(|b| b.len() >= min.max(1))
            .count()
    }

    /// The `across`-quantile over windows of the in-window
    /// `p`-quantile; windows with fewer than `min` samples are dropped.
    pub fn across(&mut self, across: f64, p: f64, min: usize) -> Option<f64> {
        let mut per_window: Vec<f64> = self
            .buckets
            .iter_mut()
            .filter(|b| b.len() >= min.max(1))
            .filter_map(|b| quantile(b, p))
            .collect();
        quantile(&mut per_window, across)
    }

    /// [`LEVEL`] over windows of the in-window `p`-quantile: the gated
    /// aggregate.
    pub fn level_of(&mut self, p: f64, min: usize) -> Option<f64> {
        self.across(LEVEL, p, min)
    }

    /// Median over windows of the in-window `p`-quantile: the
    /// diagnostic printed beside [`Windows::level_of`].
    pub fn median_of(&mut self, p: f64, min: usize) -> Option<f64> {
        self.across(0.5, p, min)
    }

    /// The `p`-quantile over all kept samples, ignoring windows.
    pub fn raw(&self, p: f64) -> Option<f64> {
        let mut all: Vec<f64> = self.buckets.iter().flatten().copied().collect();
        quantile(&mut all, p)
    }
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule is written in. Quartiles are the exclusive-method
/// cut points Python's `statistics.quantiles(values, n=4)` returns.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Exclusive method: position i·(n+1)/4, 1-based, clamped.
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = quantile_sorted(&v, 0.5)?;
    if med == 0.0 {
        return None;
    }
    Some((cut(3) - cut(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), Some(2.5));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut [7.0], 0.99), Some(7.0));
        assert_eq!(median(&mut []), None);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
        assert_eq!(median_u64(&[]), 0.0);
    }

    #[test]
    fn window_median_discards_a_stalled_window() {
        // Three windows of 1 s; the middle one saw a host stall.
        let mut w = Windows::new(1_000, 1_000_000_000, 3);
        for k in 0..3u64 {
            for i in 0..5u64 {
                let v = if k == 1 { 250_000.0 } else { 100.0 + i as f64 };
                assert!(w.push(1_000 + k * 1_000_000_000 + i, v));
            }
        }
        assert_eq!(w.samples(), 15);
        assert_eq!(w.level_of(0.5, 1), Some(102.0));
        assert_eq!(w.median_of(0.5, 1), Some(102.0));
        // The raw tail sees the stall, the windowed tail does not.
        assert_eq!(w.raw(1.0), Some(250_000.0));
        assert_eq!(w.level_of(1.0, 1), Some(104.0));
    }

    #[test]
    fn samples_outside_the_windows_and_short_windows_are_dropped() {
        let mut w = Windows::new(100, 10, 2);
        assert!(!w.push(99, 1.0), "before the origin");
        assert!(!w.push(120, 1.0), "past the last window");
        assert!(w.push(100, 1.0));
        assert!(w.push(101, 3.0));
        assert!(w.push(119, 50.0));
        assert_eq!(w.samples(), 3);
        assert_eq!(w.full_windows(2), 1);
        // With min = 2 the one-sample window does not vote.
        assert_eq!(w.level_of(0.5, 2), Some(2.0));
        // Window medians 2 and 50: the decile sits a tenth of the way up.
        assert!((w.level_of(0.5, 1).unwrap() - 6.8).abs() < 1e-9);
        assert_eq!(w.median_of(0.5, 1), Some(26.0));
        assert_eq!(Windows::new(0, 1, 0).level_of(0.5, 1), None);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = iqr_share(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(iqr_share(&[1.0]), None);
    }
}
