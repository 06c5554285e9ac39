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
//! [`blocking_term`] computes `B_i` per task; [`response_times_blocking`]
//! folds it into the standard RTA iteration:
//!
//! ```text
//! Rᵏ⁺¹ = Cᵢ + Bᵢ + Σ_{j ∈ hp(i)} ⌈Rᵏ / Tⱼ⌉ · Cⱼ
//! ```

use crate::rta::{fixed_points, static_priority, ResponseTime};
use crate::util::WcetAssumption;
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{AccelId, TaskId};
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::time::Duration;

/// Accelerators any version of `t` may occupy.
fn accels_of(ts: &TaskSet, t: TaskId) -> Vec<AccelId> {
    let mut out = Vec::new();
    for v in ts.tasks()[t.index()].versions() {
        if let Some(a) = v.accel() {
            if !out.contains(&a) {
                out.push(a);
            }
        }
    }
    out
}

/// The PIP blocking bound `B_i` of `task`: the longest accelerator
/// section of any *lower-priority* task on any accelerator that `task`
/// (or a higher-priority task) may request. Zero when the task set uses
/// no accelerators.
#[must_use]
pub fn blocking_term(
    ts: &TaskSet,
    policy: PriorityPolicy,
    task: TaskId,
    assumption: WcetAssumption,
) -> Duration {
    let my_prio = static_priority(ts, policy, task);
    // Resources that `task` or any higher-priority task may lock.
    let mut relevant: Vec<AccelId> = Vec::new();
    for t in ts.tasks() {
        let p = static_priority(ts, policy, t.id());
        if t.id() == task || p.is_higher_than(my_prio) {
            for a in accels_of(ts, t.id()) {
                if !relevant.contains(&a) {
                    relevant.push(a);
                }
            }
        }
    }
    if relevant.is_empty() {
        return Duration::ZERO;
    }
    // Longest section of a lower-priority task on any relevant resource.
    let mut worst = Duration::ZERO;
    for t in ts.tasks() {
        if t.id() == task {
            continue;
        }
        let p = static_priority(ts, policy, t.id());
        let lower = !p.is_higher_than(my_prio) && p != my_prio;
        if !lower {
            continue;
        }
        for v in t.versions() {
            if let Some(a) = v.accel() {
                if relevant.contains(&a) {
                    // Section length = whole version WCET (§3.2
                    // limitation). Use the analysis assumption for
                    // consistency.
                    let _ = assumption;
                    worst = worst.max(v.wcet());
                }
            }
        }
    }
    worst
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
    let all: Vec<TaskId> = ts.tasks().iter().map(|t| t.id()).collect();
    fixed_points(ts, &all, policy, assumption, |t| {
        blocking_term(ts, policy, t, assumption)
    })
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
