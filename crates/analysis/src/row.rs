//! The analysis row: one task as every schedulability test sees it.
//!
//! Each test in this crate reads the same handful of numbers per task —
//! a static priority, the WCET under a [`WcetAssumption`], the
//! effective period and deadline (graph nodes inherit their component
//! root's, §2), the partition it runs on and, under PIP, a blocking
//! term. A [`Row`] holds them, derived once. The kernels —
//! [`crate::rta::Rta`], [`crate::edf::edf_schedulable_rows`], the sums
//! of [`crate::util`], [`crate::blocking::blocking_terms`] — run over
//! `&[Row]`, and the [`TaskSet`] entry points build the rows of the set
//! ([`extend_rows`]) and call them. So does on-line admission, which
//! keeps the rows of its live tenants from one admission to the next
//! instead of a task set.
//!
//! Rows are in *analysis order*: where two rows tie on priority, the
//! earlier one is the more urgent (the ready queue's tie-break by task
//! id, for the rows of one set in id order).

use crate::util::{wcet_of, WcetAssumption};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{TaskId, WorkerId};
use yasmin_core::priority::{Priority, PriorityPolicy};
use yasmin_core::time::{lcm_all, Duration};

/// One task's analysis parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The task (in whatever id space the caller reports in).
    pub task: TaskId,
    /// The partition the row is analysed in: rows interfere with each
    /// other only within one (see [`Placement`]).
    pub worker: Option<WorkerId>,
    /// Static priority under the analysed policy
    /// ([`Priority::LOWEST`] under EDF).
    pub priority: Priority,
    /// `C`: the WCET under the analysed [`WcetAssumption`].
    pub wcet: Duration,
    /// `T`: the effective period, `None` for a task that never recurs
    /// (it interferes with nobody and demands nothing).
    pub period: Option<Duration>,
    /// `D`: the effective relative deadline, [`Duration::MAX`] when
    /// unconstrained.
    pub deadline: Duration,
    /// `B`: the PIP blocking term ([`crate::blocking::blocking_terms`]),
    /// zero unless filled in.
    pub blocking: Duration,
}

impl Row {
    /// The row of task `t` of `ts`, analysed on `worker`, with no
    /// blocking.
    pub(crate) fn of(
        ts: &TaskSet,
        t: TaskId,
        policy: PriorityPolicy,
        assumption: WcetAssumption,
        worker: Option<WorkerId>,
    ) -> Row {
        Row {
            task: t,
            worker,
            priority: ts.static_priority(t, policy),
            wcet: wcet_of(ts, t, assumption),
            period: ts.effective_period(t).filter(|p| !p.is_zero()),
            deadline: ts.effective_deadline(t),
            blocking: Duration::ZERO,
        }
    }

    /// `C / T`; zero for a row that never recurs.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        self.period
            .map_or(0.0, |p| self.wcet.as_nanos() as f64 / p.as_nanos() as f64)
    }

    /// Whether `self`, at position `at` in analysis order, interferes
    /// with `other` at position `other_at`: same partition, recurring,
    /// and strictly more urgent or tied and earlier.
    #[must_use]
    pub fn preempts(&self, at: usize, other: &Row, other_at: usize) -> bool {
        // Priority first: it settles half the pairs of an RTA, and on
        // one core the other two tests never do.
        (self.priority.is_higher_than(other.priority)
            || (self.priority == other.priority && at < other_at))
            && self.worker == other.worker
            && self.period.is_some()
    }
}

/// Which partition [`extend_rows`] puts a task's row on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The task's assigned worker — a partitioned analysis. An
    /// unassigned task's row is on no partition (`worker: None`).
    Assigned,
    /// Worker 0 for every row — a one-core analysis.
    OneCore,
}

/// Appends the rows of every task of `ts`, in id order, their ids
/// offset by `offset`: the rows of a tenant whose first task is
/// `T<offset>` in a merged id space (0 for a set on its own).
pub fn extend_rows(
    rows: &mut Vec<Row>,
    ts: &TaskSet,
    offset: u32,
    policy: PriorityPolicy,
    assumption: WcetAssumption,
    placement: Placement,
) {
    rows.extend(ts.tasks().iter().map(|t| {
        let worker = match placement {
            Placement::Assigned => t.spec().assigned_worker(),
            Placement::OneCore => Some(WorkerId::new(0)),
        };
        Row {
            task: TaskId::new(offset + t.id().raw()),
            ..Row::of(ts, t.id(), policy, assumption, worker)
        }
    }));
}

/// The rows of `ts` on their own, in id order.
pub(crate) fn rows_of(
    ts: &TaskSet,
    policy: PriorityPolicy,
    assumption: WcetAssumption,
    placement: Placement,
) -> Vec<Row> {
    let mut rows = Vec::with_capacity(ts.len());
    extend_rows(&mut rows, ts, 0, policy, assumption, placement);
    rows
}

/// The rows of `ts` on one core under EDF: what the utilisation and
/// demand tests read.
pub(crate) fn edf_rows(ts: &TaskSet, assumption: WcetAssumption) -> Vec<Row> {
    rows_of(
        ts,
        PriorityPolicy::EarliestDeadlineFirst,
        assumption,
        Placement::OneCore,
    )
}

/// LCM of the rows' periods — [`TaskSet::hyperperiod`] of the set they
/// were built from (only a recurring task's own period is an effective
/// one: graph nodes repeat their root's). `None` if nothing recurs.
pub(crate) fn hyperperiod(rows: &[Row]) -> Option<Duration> {
    lcm_all(rows.iter().filter_map(|r| r.period))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{blocking_term, blocking_terms, extend_sections};
    use crate::edf::{demand_bound, demand_bound_rows, edf_schedulable, edf_schedulable_rows};
    use crate::rta::{partitioned_response_times, response_times, Rta};
    use crate::util::{
        gfb_global_edf_test, gfb_rows, max_utilisation, max_utilisation_rows, total_utilisation,
        total_utilisation_rows, utilisation_of,
    };
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;
    use yasmin_taskgen::dag::{build_dag, DagParams};
    use yasmin_taskgen::periods::PeriodModel;
    use yasmin_taskgen::taskset::{build_independent, build_partitioned, IndependentSetParams};

    const A: WcetAssumption = WcetAssumption::MaxVersion;

    /// The task-set loops the analysis shipped with before the row
    /// kernels, kept as the reference they must agree with.
    mod reference {
        use super::*;

        pub fn utilisation_of(ts: &TaskSet, t: TaskId) -> f64 {
            match ts.effective_period(t) {
                Some(p) if !p.is_zero() => {
                    wcet_of(ts, t, A).as_nanos() as f64 / p.as_nanos() as f64
                }
                _ => 0.0,
            }
        }

        pub fn total_utilisation(ts: &TaskSet) -> f64 {
            ts.tasks().iter().map(|t| utilisation_of(ts, t.id())).sum()
        }

        pub fn max_utilisation(ts: &TaskSet) -> f64 {
            (ts.tasks().iter())
                .map(|t| utilisation_of(ts, t.id()))
                .fold(0.0, f64::max)
        }

        pub fn gfb(ts: &TaskSet, m: usize) -> bool {
            let (u, umax) = (total_utilisation(ts), max_utilisation(ts));
            u <= m as f64 - (m as f64 - 1.0) * umax + 1e-12
        }

        pub fn demand_bound(ts: &TaskSet, t: Duration) -> Duration {
            let mut h = Duration::ZERO;
            for task in ts.tasks() {
                let Some(period) = ts.effective_period(task.id()) else {
                    continue;
                };
                let d = ts.effective_deadline(task.id());
                if period.is_zero() || d == Duration::MAX || t < d {
                    continue;
                }
                h += wcet_of(ts, task.id(), A) * ((t - d) / period + 1);
            }
            h
        }

        pub fn edf_schedulable(ts: &TaskSet) -> bool {
            if total_utilisation(ts) > 1.0 + 1e-9 {
                return false;
            }
            let Some(hyper) = ts.hyperperiod() else {
                return true;
            };
            let mut points = Vec::new();
            for task in ts.tasks() {
                let Some(period) = ts.effective_period(task.id()) else {
                    continue;
                };
                let d = ts.effective_deadline(task.id());
                if period.is_zero() || d == Duration::MAX {
                    continue;
                }
                let mut t = d;
                while t <= hyper {
                    points.push(t);
                    t += period;
                }
            }
            points.iter().all(|&t| demand_bound(ts, t) <= t)
        }

        pub fn blocking_term(ts: &TaskSet, policy: PriorityPolicy, task: TaskId) -> Duration {
            let accels = |t: &yasmin_core::task::Task| {
                t.versions()
                    .iter()
                    .filter_map(|v| v.accel())
                    .collect::<Vec<_>>()
            };
            let mine = ts.static_priority(task, policy);
            let mut relevant = Vec::new();
            for t in ts.tasks() {
                let p = ts.static_priority(t.id(), policy);
                if t.id() == task || p.is_higher_than(mine) {
                    relevant.extend(accels(t));
                }
            }
            let mut worst = Duration::ZERO;
            for t in ts.tasks() {
                let p = ts.static_priority(t.id(), policy);
                if t.id() == task || p.is_higher_than(mine) || p == mine {
                    continue;
                }
                for v in t.versions() {
                    if v.accel().is_some_and(|a| relevant.contains(&a)) {
                        worst = worst.max(v.wcet());
                    }
                }
            }
            worst
        }
    }

    /// Tenants the way admission sees them: a base and candidates, each
    /// declared in its own id space. Grid-period independent sets,
    /// partitioned sets, layered DAGs (inner nodes inherit the root's
    /// period and deadline), and sets binding versions to accelerators.
    fn tenants(seed: u64) -> Vec<TaskSet> {
        let grid = PeriodModel::Grid(&[10, 20, 40]);
        let independent = |n, u, s| IndependentSetParams {
            n,
            total_utilisation: u,
            periods: grid,
            seed: s,
            periodic: s % 2 == 0,
            ..IndependentSetParams::default()
        };
        let dag = |s: u64| DagParams {
            layers: 2 + (s % 3) as usize,
            max_width: 3,
            period: Duration::from_millis([20, 40][(s % 2) as usize]),
            wcet_us: (50, 900),
            seed: s,
            ..DagParams::default()
        };
        vec![
            build_independent(&independent(4, 0.3, seed)).unwrap(),
            build_dag(&dag(seed)).unwrap(),
            build_partitioned(&independent(3, 0.5, seed + 1), 2).unwrap(),
            with_accels(seed),
            build_dag(&dag(seed + 1)).unwrap(),
            with_accels(seed + 7),
        ]
    }

    /// Three tasks on a grid period, each with a CPU version and a
    /// longer one on one of the set's two accelerators.
    fn with_accels(seed: u64) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let accels = [b.hwaccel_decl("gpu"), b.hwaccel_decl("dsp")];
        for i in 0..3u64 {
            let period = Duration::from_millis([10, 20, 40][((seed + i) % 3) as usize]);
            let t = b
                .task_decl(TaskSpec::periodic(format!("a{i}"), period))
                .unwrap();
            let wcet = Duration::from_micros(100 + (seed * 37 + i * 151) % 900);
            b.version_decl(t, VersionSpec::new("cpu", wcet)).unwrap();
            let v = b
                .version_decl(t, VersionSpec::new("acc", wcet * 2))
                .unwrap();
            b.hwaccel_use(t, v, accels[((seed >> i) & 1) as usize])
                .unwrap();
        }
        b.build().unwrap()
    }

    /// The rows and accelerator sections derived tenant by tenant, each
    /// from its own declaration with its ids offset, are the merged
    /// set's, and the kernels over them equal the task-set entry points
    /// — and the pre-row references — on the merged set.
    #[test]
    fn kernels_on_tenant_rows_equal_the_task_set_entry_points() {
        let policies = [
            PriorityPolicy::RateMonotonic,
            PriorityPolicy::DeadlineMonotonic,
            PriorityPolicy::EarliestDeadlineFirst,
        ];
        let (mut nodes, mut blocked) = (0, 0);
        for seed in 0..24u64 {
            let mut merged: Option<TaskSet> = None;
            for tenant in tenants(seed) {
                let before = merged.take();
                let offset = before.as_ref().map_or(0, TaskSet::len) as u32;
                let accel_offset = before.as_ref().map_or(0, |m| m.accels().len());
                let ts = match &before {
                    Some(m) => m.extended(&tenant).unwrap(),
                    None => tenant.clone(),
                };
                nodes += tenant.inner_nodes().count();
                for policy in policies {
                    let mut rows = rows_of(&ts, policy, A, Placement::OneCore);
                    let mut tenant_rows = Vec::new();
                    extend_rows(
                        &mut tenant_rows,
                        &tenant,
                        offset,
                        policy,
                        A,
                        Placement::OneCore,
                    );
                    assert_eq!(rows[offset as usize..], tenant_rows[..]);
                    let by_partition = rows_of(&ts, policy, A, Placement::Assigned);
                    let same = |(a, b): (&Row, &Row)| {
                        Row {
                            worker: b.worker,
                            ..*a
                        } == *b
                    };
                    assert!(rows.iter().zip(&by_partition).all(same));

                    assert_eq!(
                        total_utilisation_rows(&rows),
                        reference::total_utilisation(&ts)
                    );
                    assert_eq!(total_utilisation_rows(&rows), total_utilisation(&ts, A));
                    assert_eq!(max_utilisation_rows(&rows), reference::max_utilisation(&ts));
                    assert_eq!(max_utilisation_rows(&rows), max_utilisation(&ts, A));
                    for m in 1..4 {
                        assert_eq!(gfb_rows(&rows, m), reference::gfb(&ts, m));
                        assert_eq!(gfb_rows(&rows, m), gfb_global_edf_test(&ts, m, A));
                    }
                    assert_eq!(edf_schedulable_rows(&rows), reference::edf_schedulable(&ts));
                    assert_eq!(edf_schedulable_rows(&rows), edf_schedulable(&ts, A));
                    assert_eq!(hyperperiod(&rows), ts.hyperperiod());
                    for t in ts.tasks() {
                        let d = ts.effective_deadline(t.id());
                        if d != Duration::MAX {
                            let h = demand_bound_rows(&rows, d * 3);
                            assert_eq!(h, reference::demand_bound(&ts, d * 3));
                            assert_eq!(h, demand_bound(&ts, d * 3, A));
                        }
                        let u = utilisation_of(&ts, t.id(), A);
                        assert_eq!(u, reference::utilisation_of(&ts, t.id()));
                    }
                    if !policy.is_static() {
                        continue;
                    }
                    let mut rta = Rta::new(&rows);
                    let kernel: Vec<_> = (0..rows.len()).map(|i| rta.response_time(i)).collect();
                    assert_eq!(kernel, response_times(&ts, policy, A));
                    let mut rta = Rta::new(&by_partition);
                    let mut expected = Vec::new();
                    for w in 0..2 {
                        for (i, r) in by_partition.iter().enumerate() {
                            if r.worker.is_some_and(|x| x.index() == w) {
                                expected.push((w, rta.response_time(i)));
                            }
                        }
                    }
                    assert_eq!(partitioned_response_times(&ts, 2, policy, A), expected);

                    let (mut whole, mut by_tenant) = (Vec::new(), Vec::new());
                    extend_sections(&mut whole, &rows, &ts, 0, 0);
                    if let Some(before) = &before {
                        extend_sections(&mut by_tenant, &rows, before, 0, 0);
                    }
                    extend_sections(&mut by_tenant, &rows, &tenant, offset, accel_offset);
                    assert_eq!(whole, by_tenant);
                    blocking_terms(&mut rows, &by_tenant);
                    for (i, row) in rows.iter().enumerate() {
                        let id = TaskId::new(i as u32);
                        assert_eq!(row.blocking, reference::blocking_term(&ts, policy, id));
                        assert_eq!(row.blocking, blocking_term(&ts, policy, id, A));
                        blocked += usize::from(!row.blocking.is_zero());
                    }
                }
                merged = Some(ts);
            }
        }
        // Not vacuous: inherited graph parameters and blocking both seen.
        assert!(
            nodes > 50 && blocked > 50,
            "{nodes} graph nodes, {blocked} blocked rows"
        );
    }
}
