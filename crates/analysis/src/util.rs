//! Utilisation-based schedulability tests.

use crate::row::{edf_rows, Row};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::TaskId;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::time::Duration;

/// Which version's WCET an analysis assumes per task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WcetAssumption {
    /// The largest WCET over all versions (safe for any runtime choice).
    #[default]
    MaxVersion,
    /// The smallest WCET (valid only when the runtime provably picks it,
    /// e.g. off-line pre-selection).
    MinVersion,
}

/// The WCET of `task` under `assumption`.
#[must_use]
pub fn wcet_of(ts: &TaskSet, task: TaskId, assumption: WcetAssumption) -> Duration {
    let t = &ts.tasks()[task.index()];
    match assumption {
        WcetAssumption::MaxVersion => t.max_wcet(),
        WcetAssumption::MinVersion => t.min_wcet(),
    }
}

/// Per-task utilisation `C/T` (effective period for graph nodes); zero
/// for tasks with no period (pure aperiodic).
#[must_use]
pub fn utilisation_of(ts: &TaskSet, task: TaskId, assumption: WcetAssumption) -> f64 {
    Row::of(
        ts,
        task,
        PriorityPolicy::EarliestDeadlineFirst,
        assumption,
        None,
    )
    .utilisation()
}

/// `Σ C/T` over `rows`, in row order — the kernel behind
/// [`total_utilisation`].
#[must_use]
pub fn total_utilisation_rows(rows: &[Row]) -> f64 {
    rows.iter().map(Row::utilisation).sum()
}

/// The largest single-row utilisation.
#[must_use]
pub fn max_utilisation_rows(rows: &[Row]) -> f64 {
    rows.iter().map(Row::utilisation).fold(0.0, f64::max)
}

/// The GFB test of [`gfb_global_edf_test`] over `rows`.
#[must_use]
pub fn gfb_rows(rows: &[Row], m: usize) -> bool {
    let u = total_utilisation_rows(rows);
    let umax = max_utilisation_rows(rows);
    u <= m as f64 - (m as f64 - 1.0) * umax + 1e-12
}

/// Total utilisation of the set.
#[must_use]
pub fn total_utilisation(ts: &TaskSet, assumption: WcetAssumption) -> f64 {
    total_utilisation_rows(&edf_rows(ts, assumption))
}

/// Largest single-task utilisation.
#[must_use]
pub fn max_utilisation(ts: &TaskSet, assumption: WcetAssumption) -> f64 {
    max_utilisation_rows(&edf_rows(ts, assumption))
}

/// The Liu & Layland bound for rate-monotonic scheduling of `n` implicit-
/// deadline tasks on one core: `n(2^{1/n} − 1)`.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    n as f64 * (2f64.powf(1.0 / n as f64) - 1.0)
}

/// The hyperbolic bound (Bini, Buttazzo & Buttazzo, IEEE TC 2003) over
/// the rows of one partition: `Π (1 + Cᵢ/Dᵢ) ≤ 2` proves every row
/// schedulable under `policy`'s fixed priorities, so the RTA of
/// [`crate::rta::Rta`] would find every row within its deadline. O(rows),
/// no iteration.
///
/// It applies only when `policy` is DM, or RM with `D = T` on every
/// row, and every row recurs with `0 < D ≤ T` and no blocking term.
/// Under DM, shortening each interferer's period to its deadline only
/// adds interference, and what is left is an implicit-deadline RM set —
/// the bound's own case. `false` when the bound does not apply or does
/// not hold: only the RTA can decide then. Ties in priority may break
/// either way.
#[must_use]
pub fn hyperbolic_bound<'a>(
    rows: impl IntoIterator<Item = &'a Row>,
    policy: PriorityPolicy,
) -> bool {
    let mut product = 1.0;
    for row in rows {
        let Some(period) = row.period else {
            return false;
        };
        let d = row.deadline;
        let applies = match policy {
            PriorityPolicy::DeadlineMonotonic => d <= period,
            PriorityPolicy::RateMonotonic => d == period,
            _ => false,
        };
        if !applies || d.is_zero() || !row.blocking.is_zero() {
            return false;
        }
        product *= 1.0 + row.wcet.as_nanos() as f64 / d.as_nanos() as f64;
        if product > 2.0 {
            return false; // every factor is at least 1
        }
    }
    // Below 2 by more than the product's rounding error: a set on the
    // bound itself is left to the RTA.
    product <= 2.0 - 1e-9
}

/// Sufficient RM test on one core: `U ≤ n(2^{1/n} − 1)`.
#[must_use]
pub fn rm_utilisation_test(ts: &TaskSet, assumption: WcetAssumption) -> bool {
    total_utilisation(ts, assumption) <= liu_layland_bound(ts.len()) + 1e-12
}

/// Exact EDF test on one core for implicit deadlines: `U ≤ 1`.
#[must_use]
pub fn edf_utilisation_test(ts: &TaskSet, assumption: WcetAssumption) -> bool {
    total_utilisation(ts, assumption) <= 1.0 + 1e-12
}

/// The Goossens-Funk-Baruah (GFB) sufficient test for global EDF on `m`
/// identical cores with implicit deadlines:
/// `U ≤ m − (m − 1)·u_max`.
#[must_use]
pub fn gfb_global_edf_test(ts: &TaskSet, m: usize, assumption: WcetAssumption) -> bool {
    gfb_rows(&edf_rows(ts, assumption), m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn set(params: &[(u64, u64)]) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        for (i, (t, c)) in params.iter().enumerate() {
            let id = b
                .task_decl(TaskSpec::periodic(format!("t{i}"), ms(*t)))
                .unwrap();
            b.version_decl(id, VersionSpec::new("v", ms(*c))).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn utilisation_sums() {
        let ts = set(&[(10, 2), (20, 5), (40, 10)]);
        let u = total_utilisation(&ts, WcetAssumption::MaxVersion);
        assert!((u - 0.7).abs() < 1e-9);
        assert!((max_utilisation(&ts, WcetAssumption::MaxVersion) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn min_vs_max_version() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(100))).unwrap();
        b.version_decl(t, VersionSpec::new("slow", ms(50))).unwrap();
        b.version_decl(t, VersionSpec::new("fast", ms(10))).unwrap();
        let ts = b.build().unwrap();
        assert!((utilisation_of(&ts, t, WcetAssumption::MaxVersion) - 0.5).abs() < 1e-9);
        assert!((utilisation_of(&ts, t, WcetAssumption::MinVersion) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn liu_layland_classics() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
        // n -> inf: ln 2.
        assert!((liu_layland_bound(10_000) - std::f64::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn rm_test_example() {
        // U = 0.7 < LL(3) = 0.7798 -> schedulable.
        assert!(rm_utilisation_test(
            &set(&[(10, 2), (20, 5), (40, 10)]),
            WcetAssumption::MaxVersion
        ));
        // U = 0.9 > LL(3).
        assert!(!rm_utilisation_test(
            &set(&[(10, 3), (20, 6), (40, 12)]),
            WcetAssumption::MaxVersion
        ));
    }

    #[test]
    fn hyperbolic_bound_accepts_past_liu_layland_and_only_where_it_applies() {
        use crate::row::{rows_of, Placement};
        let rows = |ts: &TaskSet, policy| {
            rows_of(ts, policy, WcetAssumption::MaxVersion, Placement::OneCore)
        };
        // (1.6)(1.2) = 1.92 holds; (1.5)(1.35) = 2.025 does not.
        let light = set(&[(10, 6), (20, 4)]);
        let heavy = set(&[(10, 5), (20, 7)]);
        for policy in [
            PriorityPolicy::RateMonotonic,
            PriorityPolicy::DeadlineMonotonic,
        ] {
            assert!(hyperbolic_bound(&rows(&light, policy), policy));
            assert!(!hyperbolic_bound(&rows(&heavy, policy), policy));
        }
        // Bini et al.'s point: U = 0.83 is past Liu & Layland's 0.828
        // for two tasks, and (1.8)(1.03) = 1.854 holds.
        let skewed = set(&[(10, 8), (100, 3)]);
        assert!(!rm_utilisation_test(&skewed, WcetAssumption::MaxVersion));
        assert!(hyperbolic_bound(
            &rows(&skewed, PriorityPolicy::RateMonotonic),
            PriorityPolicy::RateMonotonic
        ));
        // Neither EDF nor user priorities, nor a blocked row, nor a
        // deadline past the period, nor a row that never recurs.
        for policy in [
            PriorityPolicy::EarliestDeadlineFirst,
            PriorityPolicy::UserDefined,
        ] {
            assert!(!hyperbolic_bound(&rows(&light, policy), policy));
        }
        let dm = PriorityPolicy::DeadlineMonotonic;
        let mut r = rows(&light, dm);
        r[1].blocking = Duration::from_micros(1);
        assert!(!hyperbolic_bound(&r, dm));
        let mut r = rows(&light, dm);
        r[1].deadline = ms(30);
        assert!(!hyperbolic_bound(&r, dm));
        let mut r = rows(&light, dm);
        r[1].period = None;
        assert!(!hyperbolic_bound(&r, dm));
        // RM needs D = T; DM takes a constrained deadline.
        let mut r = rows(&light, PriorityPolicy::RateMonotonic);
        r[1].deadline = ms(19);
        assert!(!hyperbolic_bound(&r, PriorityPolicy::RateMonotonic));
        assert!(hyperbolic_bound(&[], dm), "an empty partition holds");
    }

    #[test]
    fn edf_test_boundary() {
        assert!(edf_utilisation_test(
            &set(&[(10, 5), (20, 10)]),
            WcetAssumption::MaxVersion
        ));
        assert!(!edf_utilisation_test(
            &set(&[(10, 5), (20, 11)]),
            WcetAssumption::MaxVersion
        ));
    }

    #[test]
    fn gfb_test() {
        // 4 tasks of U=0.5 on 2 cores: U=2.0, umax=0.5;
        // bound = 2 - 1*0.5 = 1.5 -> fails.
        let heavy = set(&[(10, 5), (10, 5), (10, 5), (10, 5)]);
        assert!(!gfb_global_edf_test(&heavy, 2, WcetAssumption::MaxVersion));
        // 4 tasks of U=0.3 on 2 cores: U=1.2 <= 2 - 0.3 = 1.7 -> passes.
        let light = set(&[(10, 3), (10, 3), (10, 3), (10, 3)]);
        assert!(gfb_global_edf_test(&light, 2, WcetAssumption::MaxVersion));
    }
}
