//! Blocking-aware response-time analysis.
//!
//! YASMIN serialises hardware accelerators and applies the Priority
//! Inheritance Protocol on contention (§3.2). Under PIP, a task can be
//! blocked at most once per accelerator it may need, by the longest
//! lower-priority *accelerator section* on that resource (Rajkumar's
//! classic bound). Since a version holds its accelerator for its whole
//! WCET (the paper's stated limitation), the section length is simply
//! the version's WCET.
//!
//! [`blocking_terms`] computes `B_i` for every row of a table from the
//! sections [`extend_sections`] collects;
//! [`blocking_term`] reads one task's, and [`response_times_blocking`]
//! folds them into the standard RTA iteration:
//!
//! ```text
//! Rᵏ⁺¹ = Cᵢ + Bᵢ + Σ_{j ∈ hp(i)} ⌈Rᵏ / Tⱼ⌉ · Cⱼ
//! ```

use crate::row::{rows_of, Placement, Row};
use crate::rta::{ResponseTime, Rta};
use crate::util::WcetAssumption;
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{AccelId, TaskId};
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::time::Duration;

/// One accelerator section: a version of the task at `row` holds
/// `accel` for `len` (its whole WCET, §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    /// Index of the task's row.
    pub row: usize,
    /// The accelerator the version is bound to.
    pub accel: AccelId,
    /// The version's WCET.
    pub len: Duration,
}

/// Appends the accelerator sections of every row of `rows` that holds
/// a task of `ts` — a tenant whose first task and first accelerator are
/// `T<task_offset>` and `A<accel_offset>` in a merged id space (both 0
/// for a set on its own). Rows of other tasks are left to other calls.
pub fn extend_sections(
    out: &mut Vec<Section>,
    rows: &[Row],
    ts: &TaskSet,
    task_offset: u32,
    accel_offset: usize,
) {
    for (row, r) in rows.iter().enumerate() {
        let Some(task) =
            (r.task.raw().checked_sub(task_offset)).and_then(|k| ts.tasks().get(k as usize))
        else {
            continue;
        };
        for v in task.versions() {
            if let Some(a) = v.accel() {
                out.push(Section {
                    row,
                    accel: AccelId::new((accel_offset + a.index()) as u16),
                    len: v.wcet(),
                });
            }
        }
    }
}

/// Fills in every row's PIP blocking bound `Bᵢ` from `sections`: the
/// longest section of any *strictly lower-priority* row on any
/// accelerator that row `i` or a strictly higher-priority row may lock
/// (push-through blocking included). Zero for a row no such section
/// can block.
pub fn blocking_terms(rows: &mut [Row], sections: &[Section]) {
    let mut relevant = Vec::new();
    for i in 0..rows.len() {
        rows[i].blocking = blocking_of(rows, sections, i, &mut relevant);
    }
}

/// Row `i`'s term of [`blocking_terms`]; `relevant` is scratch space.
fn blocking_of(
    rows: &[Row],
    sections: &[Section],
    i: usize,
    relevant: &mut Vec<AccelId>,
) -> Duration {
    let mine = rows[i].priority;
    relevant.clear();
    for s in sections {
        if (s.row == i || rows[s.row].priority.is_higher_than(mine)) && !relevant.contains(&s.accel)
        {
            relevant.push(s.accel);
        }
    }
    let mut worst = Duration::ZERO;
    for s in sections {
        let p = rows[s.row].priority;
        if s.row != i && mine.is_higher_than(p) && relevant.contains(&s.accel) {
            worst = worst.max(s.len);
        }
    }
    worst
}

/// One-core rows of `ts` and their accelerator sections.
fn rows_and_sections(
    ts: &TaskSet,
    policy: PriorityPolicy,
    assumption: WcetAssumption,
) -> (Vec<Row>, Vec<Section>) {
    let rows = rows_of(ts, policy, assumption, Placement::OneCore);
    let mut sections = Vec::new();
    extend_sections(&mut sections, &rows, ts, 0, 0);
    (rows, sections)
}

/// The PIP blocking bound `B_i` of `task`: the longest accelerator
/// section of any *lower-priority* task on any accelerator that `task`
/// (or a higher-priority task) may request. Zero when the task set uses
/// no accelerators. Section lengths are whole version WCETs whatever
/// the `assumption` (§3.2 limitation).
#[must_use]
pub fn blocking_term(
    ts: &TaskSet,
    policy: PriorityPolicy,
    task: TaskId,
    assumption: WcetAssumption,
) -> Duration {
    let (rows, sections) = rows_and_sections(ts, policy, assumption);
    blocking_of(&rows, &sections, task.index(), &mut Vec::new())
}

/// RTA with the PIP blocking term folded in (uniprocessor / one
/// partition).
///
/// # Panics
///
/// Panics for EDF (use the demand-bound analysis instead).
#[must_use]
pub fn response_times_blocking(
    ts: &TaskSet,
    policy: PriorityPolicy,
    assumption: WcetAssumption,
) -> Vec<ResponseTime> {
    assert!(policy.is_static(), "blocking RTA needs static priorities");
    let (mut rows, sections) = rows_and_sections(ts, policy, assumption);
    blocking_terms(&mut rows, &sections);
    let mut rta = Rta::new(&rows);
    (0..rows.len()).map(|i| rta.response_time(i)).collect()
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

    /// hi (T=10, C=2, uses GPU) and lo (T=50, C=8, uses GPU).
    fn gpu_pair() -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let hi = b.task_decl(TaskSpec::periodic("hi", ms(10))).unwrap();
        let v = b.version_decl(hi, VersionSpec::new("h", ms(2))).unwrap();
        b.hwaccel_use(hi, v, gpu).unwrap();
        let lo = b.task_decl(TaskSpec::periodic("lo", ms(50))).unwrap();
        let v = b.version_decl(lo, VersionSpec::new("l", ms(8))).unwrap();
        b.hwaccel_use(lo, v, gpu).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn high_priority_task_inherits_low_section() {
        let ts = gpu_pair();
        // Under RM, hi is more urgent; lo's 8ms GPU section blocks it.
        let b = blocking_term(
            &ts,
            PriorityPolicy::RateMonotonic,
            TaskId::new(0),
            WcetAssumption::MaxVersion,
        );
        assert_eq!(b, ms(8));
        // The lowest-priority task is never blocked by PIP.
        let b = blocking_term(
            &ts,
            PriorityPolicy::RateMonotonic,
            TaskId::new(1),
            WcetAssumption::MaxVersion,
        );
        assert_eq!(b, Duration::ZERO);
    }

    #[test]
    fn no_accels_means_no_blocking() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(10))).unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        let ts = b.build().unwrap();
        assert_eq!(
            blocking_term(
                &ts,
                PriorityPolicy::RateMonotonic,
                t,
                WcetAssumption::MaxVersion
            ),
            Duration::ZERO
        );
    }

    #[test]
    fn blocking_extends_response_time() {
        let ts = gpu_pair();
        let plain = crate::rta::response_times(
            &ts,
            PriorityPolicy::RateMonotonic,
            WcetAssumption::MaxVersion,
        );
        let blocked = response_times_blocking(
            &ts,
            PriorityPolicy::RateMonotonic,
            WcetAssumption::MaxVersion,
        );
        // hi: plain RTA gives 2ms; with blocking it is 2 + 8 = 10ms,
        // right at the deadline.
        assert_eq!(plain[0].wcrt, Some(ms(2)));
        assert_eq!(blocked[0].wcrt, Some(ms(10)));
        assert!(blocked[0].schedulable());
    }

    #[test]
    fn unrelated_accels_do_not_block() {
        // lo uses a different accelerator that neither hi nor anything
        // above it requests: no blocking.
        let mut b = TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let dsp = b.hwaccel_decl("dsp");
        let hi = b.task_decl(TaskSpec::periodic("hi", ms(10))).unwrap();
        let v = b.version_decl(hi, VersionSpec::new("h", ms(2))).unwrap();
        b.hwaccel_use(hi, v, gpu).unwrap();
        let lo = b.task_decl(TaskSpec::periodic("lo", ms(50))).unwrap();
        let v = b.version_decl(lo, VersionSpec::new("l", ms(8))).unwrap();
        b.hwaccel_use(lo, v, dsp).unwrap();
        let ts = b.build().unwrap();
        assert_eq!(
            blocking_term(
                &ts,
                PriorityPolicy::RateMonotonic,
                hi,
                WcetAssumption::MaxVersion
            ),
            Duration::ZERO
        );
    }
}
