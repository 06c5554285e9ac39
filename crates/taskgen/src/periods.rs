//! Period, WCET and deadline generation.
//!
//! Utilisation vectors (from [`mod@crate::drs`]) become concrete task
//! parameters here: periods drawn log-uniformly or from a
//! harmonic-friendly grid, WCETs as `C = U·T`, and optional constrained
//! deadlines.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yasmin_core::time::Duration;

/// How periods are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PeriodModel {
    /// Log-uniform in `[min_ms, max_ms]` milliseconds (common in
    /// schedulability studies; keeps small and large periods equally
    /// represented).
    LogUniform {
        /// Smallest period in milliseconds.
        min_ms: u64,
        /// Largest period in milliseconds.
        max_ms: u64,
    },
    /// Uniform choice from a fixed grid (keeps hyperperiods small, which
    /// bounds off-line table sizes).
    Grid(&'static [u64]),
}

/// A practical default grid of periods in milliseconds: divisors-friendly
/// values giving a 1-second hyperperiod.
pub const GRID_1S: &[u64] = &[10, 20, 25, 40, 50, 100, 125, 200, 250, 500, 1000];

/// Draws `n` periods under `model`.
///
/// # Panics
///
/// Panics on empty grids or inverted bounds.
#[must_use]
pub fn periods(n: usize, model: PeriodModel, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    periods_with(&mut rng, n, model)
}

/// [`periods`] drawing from a caller-provided generator.
#[must_use]
pub fn periods_with(rng: &mut StdRng, n: usize, model: PeriodModel) -> Vec<Duration> {
    match model {
        PeriodModel::LogUniform { min_ms, max_ms } => {
            assert!(min_ms > 0 && min_ms <= max_ms, "need 0 < min <= max");
            (0..n)
                .map(|_| {
                    let lo = (min_ms as f64).ln();
                    let hi = (max_ms as f64).ln();
                    let v: f64 = rng.random_range(lo..=hi);
                    Duration::from_millis(v.exp().round().max(1.0) as u64)
                })
                .collect()
        }
        PeriodModel::Grid(grid) => {
            assert!(!grid.is_empty(), "period grid must be non-empty");
            (0..n)
                .map(|_| {
                    let i = rng.random_range(0..grid.len());
                    Duration::from_millis(grid[i])
                })
                .collect()
        }
    }
}

/// Computes WCETs `C = U·T` in nanoseconds (at least 1 ns so every task
/// does *some* work).
#[must_use]
pub fn wcets_from_utilisation(utils: &[f64], periods: &[Duration]) -> Vec<Duration> {
    utils
        .iter()
        .zip(periods)
        .map(|(u, t)| {
            let ns = (u * t.as_nanos() as f64).round().max(1.0) as u64;
            Duration::from_nanos(ns)
        })
        .collect()
}

/// Draws constrained deadlines `D ∈ [C + f·(T−C), T]` with `f` uniform in
/// `[0,1]` — the standard way to generate constrained-deadline task sets
/// without making them trivially infeasible.
#[must_use]
pub fn constrained_deadlines(wcets: &[Duration], periods: &[Duration], seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    wcets
        .iter()
        .zip(periods)
        .map(|(c, t)| {
            let slack = t.saturating_sub(*c);
            let f: f64 = rng.random_range(0.0..=1.0);
            let extra = Duration::from_nanos((slack.as_nanos() as f64 * f) as u64);
            (*c + extra).min(*t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_uniform_in_range() {
        let p = periods(
            100,
            PeriodModel::LogUniform {
                min_ms: 10,
                max_ms: 1000,
            },
            1,
        );
        assert_eq!(p.len(), 100);
        for t in &p {
            assert!(*t >= Duration::from_millis(10) && *t <= Duration::from_millis(1000));
        }
        // Log-uniform: roughly half the mass below sqrt(10*1000) = 100ms.
        let below = p
            .iter()
            .filter(|t| **t <= Duration::from_millis(100))
            .count();
        assert!((30..=70).contains(&below), "below = {below}");
    }

    #[test]
    fn grid_members_only() {
        let p = periods(50, PeriodModel::Grid(GRID_1S), 2);
        for t in p {
            assert!(GRID_1S.contains(&t.as_millis()));
        }
    }

    #[test]
    fn wcet_matches_utilisation() {
        let utils = [0.5, 0.25];
        let ps = [Duration::from_millis(10), Duration::from_millis(100)];
        let cs = wcets_from_utilisation(&utils, &ps);
        assert_eq!(cs[0], Duration::from_millis(5));
        assert_eq!(cs[1], Duration::from_millis(25));
    }

    #[test]
    fn wcet_never_zero() {
        let cs = wcets_from_utilisation(&[1e-15], &[Duration::from_millis(1)]);
        assert_eq!(cs[0], Duration::from_nanos(1));
    }

    #[test]
    fn deadlines_between_wcet_and_period() {
        let cs = [Duration::from_millis(2), Duration::from_millis(8)];
        let ps = [Duration::from_millis(10), Duration::from_millis(10)];
        for seed in 0..20 {
            let ds = constrained_deadlines(&cs, &ps, seed);
            for ((d, c), t) in ds.iter().zip(&cs).zip(&ps) {
                assert!(d >= c && d <= t, "D={d} C={c} T={t}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = periods(10, PeriodModel::Grid(GRID_1S), 7);
        let b = periods(10, PeriodModel::Grid(GRID_1S), 7);
        assert_eq!(a, b);
    }
}
