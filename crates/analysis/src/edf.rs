//! Processor-demand analysis for uniprocessor EDF.
//!
//! Baruah, Rosier & Howell's demand-bound criterion: a (constrained- or
//! implicit-deadline) sporadic set is EDF-schedulable on one core iff for
//! every absolute deadline `t` in the testing window,
//!
//! ```text
//! h(t) = Σᵢ max(0, ⌊(t − Dᵢ)/Tᵢ⌋ + 1) · Cᵢ ≤ t
//! ```
//!
//! The testing window is bounded by the hyperperiod (for `U ≤ 1`), which
//! our period grid keeps small.

use crate::row::{edf_rows, hyperperiod, Row};
use crate::util::{total_utilisation_rows, WcetAssumption};
use yasmin_core::graph::TaskSet;
use yasmin_core::time::Duration;

/// The demand bound function `h(t)` of `rows` at time `t` — the kernel
/// behind [`demand_bound`].
pub(crate) fn demand_bound_rows(rows: &[Row], t: Duration) -> Duration {
    let mut h = Duration::ZERO;
    for row in rows {
        let Some(period) = row.period else {
            continue;
        };
        let d = row.deadline;
        if d == Duration::MAX || t < d {
            continue;
        }
        h += row.wcet * ((t - d) / period + 1);
    }
    h
}

/// Exact uniprocessor EDF schedulability of `rows` — the kernel behind
/// [`edf_schedulable`].
#[must_use]
pub fn edf_schedulable_rows(rows: &[Row]) -> bool {
    if total_utilisation_rows(rows) > 1.0 + 1e-9 {
        return false;
    }
    let Some(hyper) = hyperperiod(rows) else {
        return true; // no recurring work
    };
    // Candidate check points: every absolute deadline d + k·T ≤ hyper.
    let mut points: Vec<Duration> = Vec::new();
    for row in rows {
        let Some(period) = row.period else {
            continue;
        };
        if row.deadline == Duration::MAX {
            continue;
        }
        let mut t = row.deadline;
        while t <= hyper {
            points.push(t);
            t += period;
        }
    }
    points.sort_unstable();
    points.dedup();
    points.into_iter().all(|t| demand_bound_rows(rows, t) <= t)
}

/// The demand bound function `h(t)` of the whole set at time `t`.
#[must_use]
pub fn demand_bound(ts: &TaskSet, t: Duration, assumption: WcetAssumption) -> Duration {
    demand_bound_rows(&edf_rows(ts, assumption), t)
}

/// Exact uniprocessor EDF schedulability via processor demand.
///
/// Returns `false` immediately when `U > 1`; otherwise checks `h(t) ≤ t`
/// at every deadline up to the hyperperiod.
#[must_use]
pub fn edf_schedulable(ts: &TaskSet, assumption: WcetAssumption) -> bool {
    edf_schedulable_rows(&edf_rows(ts, assumption))
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

    fn set(params: &[(u64, u64, Option<u64>)]) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        for (i, (t, c, d)) in params.iter().enumerate() {
            let mut spec = TaskSpec::periodic(format!("t{i}"), ms(*t));
            if let Some(d) = d {
                spec = spec.with_constrained_deadline(ms(*d));
            }
            let id = b.task_decl(spec).unwrap();
            b.version_decl(id, VersionSpec::new("v", ms(*c))).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn implicit_deadline_u_le_1_schedulable() {
        let ts = set(&[(10, 5, None), (20, 10, None)]);
        assert!(edf_schedulable(&ts, WcetAssumption::MaxVersion));
    }

    #[test]
    fn overload_rejected() {
        let ts = set(&[(10, 6, None), (20, 10, None)]);
        assert!(!edf_schedulable(&ts, WcetAssumption::MaxVersion));
    }

    #[test]
    fn constrained_deadline_demand() {
        // One task T=10, C=4, D=5: h(5)=4 <= 5 -> schedulable alone.
        let ts = set(&[(10, 4, Some(5))]);
        assert!(edf_schedulable(&ts, WcetAssumption::MaxVersion));
        assert_eq!(demand_bound(&ts, ms(5), WcetAssumption::MaxVersion), ms(4));
        assert_eq!(demand_bound(&ts, ms(4), WcetAssumption::MaxVersion), ms(0));
        assert_eq!(demand_bound(&ts, ms(15), WcetAssumption::MaxVersion), ms(8));
    }

    #[test]
    fn constrained_overload_caught_despite_u_le_1() {
        // Two tasks, U = 0.4+0.4 = 0.8 but both must finish within 4ms of
        // release: demand at t=4 is 8ms > 4ms.
        let ts = set(&[(10, 4, Some(4)), (10, 4, Some(4))]);
        assert!(!edf_schedulable(&ts, WcetAssumption::MaxVersion));
    }

    #[test]
    fn demand_is_monotone() {
        let ts = set(&[(10, 3, None), (25, 5, Some(20))]);
        let mut prev = Duration::ZERO;
        for t_ms in (0..=100).step_by(5) {
            let h = demand_bound(&ts, ms(t_ms), WcetAssumption::MaxVersion);
            assert!(h >= prev);
            prev = h;
        }
    }
}
