//! Response-time analysis (RTA) for fixed-priority scheduling.
//!
//! The classic Joseph & Pandya / Audsley iteration for preemptive
//! fixed-priority uniprocessor (or per-core partitioned) scheduling with
//! constrained deadlines:
//!
//! ```text
//! R⁰ = Cᵢ;   Rᵏ⁺¹ = Cᵢ + Σ_{j ∈ hp(i)} ⌈Rᵏ / Tⱼ⌉ · Cⱼ
//! ```
//!
//! YASMIN's offline synthesis and the experiment harness use this to
//! decide whether a partitioned assignment is feasible before running it.
//!
//! Every deadline a `TaskSpec` can declare is implicit (`D = T`) or
//! constrained (`D ≤ T`), and only these are sound here: the iteration
//! takes the first job of the level-i busy period as the worst, which
//! holds only while a job ends before its task's next release. With
//! `D > T` a later job of the same busy period can respond later —
//! Lehoczky's set (C/T = 26/70 and 62/100 ms, D₂ = 115 ms) gets R₂ =
//! 114 ms from this iteration, yet τ₂'s jobs respond in up to 118 ms.

use crate::row::{hyperperiod, rows_of, Placement, Row};
use crate::util::WcetAssumption;
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::TaskId;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::time::Duration;

/// Result of the RTA for one task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseTime {
    /// The task.
    pub task: TaskId,
    /// The computed worst-case response time, `None` if the iteration
    /// diverged past the deadline (unschedulable).
    pub wcrt: Option<Duration>,
    /// The deadline the WCRT is compared against.
    pub deadline: Duration,
}

impl ResponseTime {
    /// `true` if the task provably meets its deadline.
    #[must_use]
    pub fn schedulable(&self) -> bool {
        self.wcrt.is_some_and(|r| r <= self.deadline)
    }
}

/// The RTA over one table of rows — the one kernel every entry point
/// and on-line admission run. Holds what the rows' iterations share:
/// the hyperperiod, derived by the first row that needs it, and the
/// buffer of interferers.
#[derive(Debug)]
pub struct Rta<'a> {
    rows: &'a [Row],
    /// The rows' hyperperiod once a row with an unbounded deadline
    /// asked for it.
    hyperperiod: Option<Option<Duration>>,
    /// `(Cⱼ, Tⱼ)` of every row interfering with the one iterated.
    hp: Vec<(Duration, Duration)>,
}

impl<'a> Rta<'a> {
    /// The analysis of `rows`, in analysis order.
    #[must_use]
    pub fn new(rows: &'a [Row]) -> Self {
        Rta {
            rows,
            hyperperiod: None,
            hp: Vec::with_capacity(rows.len()),
        }
    }

    /// The fixed-point iteration for `rows[i]`, interfered with by every
    /// row that [`Row::preempts`] it, with its blocking term `Bᵢ` added
    /// to `Cᵢ`.
    ///
    /// A row with an unbounded deadline iterates up to the rows'
    /// hyperperiod, a pragmatic divergence cut-off.
    pub fn response_time(&mut self, i: usize) -> ResponseTime {
        let rows = self.rows;
        let me = &rows[i];
        let limit = if me.deadline == Duration::MAX {
            (self.hyperperiod.get_or_insert_with(|| hyperperiod(rows))).unwrap_or(Duration::MAX)
        } else {
            me.deadline
        };
        self.hp.clear();
        self.hp.extend(
            (rows.iter().enumerate())
                .filter(|(j, other)| other.preempts(*j, me, i))
                .filter_map(|(_, other)| Some((other.wcet, other.period?))),
        );
        let base = me.wcet + me.blocking;
        let mut r = base;
        let wcrt = loop {
            let mut next = base;
            for (cj, tj) in &self.hp {
                next += *cj * r.as_nanos().div_ceil(tj.as_nanos());
            }
            if next == r {
                break Some(r);
            }
            if next > limit {
                break None;
            }
            r = next;
        };
        ResponseTime {
            task: me.task,
            wcrt,
            deadline: me.deadline,
        }
    }
}

/// Runs the RTA for every task of `ts` on a single core under a static
/// priority `policy` (RM, DM or user-defined).
///
/// Graph inner nodes are treated as independent tasks with their
/// effective (graph-inherited) period and deadline — a safe abstraction
/// when the whole graph runs on the analysed core.
///
/// # Panics
///
/// Panics if called with [`PriorityPolicy::EarliestDeadlineFirst`]; use
/// [`crate::edf`] for EDF.
#[must_use]
pub fn response_times(
    ts: &TaskSet,
    policy: PriorityPolicy,
    assumption: WcetAssumption,
) -> Vec<ResponseTime> {
    assert!(
        policy.is_static(),
        "RTA applies to static priorities; use the EDF demand test instead"
    );
    let rows = rows_of(ts, policy, assumption, Placement::OneCore);
    let mut rta = Rta::new(&rows);
    (0..rows.len()).map(|i| rta.response_time(i)).collect()
}

/// `true` if every task passes the RTA.
#[must_use]
pub fn schedulable(ts: &TaskSet, policy: PriorityPolicy, assumption: WcetAssumption) -> bool {
    response_times(ts, policy, assumption)
        .iter()
        .all(ResponseTime::schedulable)
}

/// Per-worker RTA for a partitioned task set: each worker's tasks are
/// analysed in isolation. Returns `(worker, ResponseTime)` pairs.
#[must_use]
pub fn partitioned_response_times(
    ts: &TaskSet,
    workers: usize,
    policy: PriorityPolicy,
    assumption: WcetAssumption,
) -> Vec<(usize, ResponseTime)> {
    let rows = rows_of(ts, policy, assumption, Placement::Assigned);
    let mut rta = Rta::new(&rows);
    let mut results = Vec::new();
    for w in 0..workers {
        for (i, row) in rows.iter().enumerate() {
            if row.worker.is_some_and(|x| x.index() == w) {
                results.push((w, rta.response_time(i)));
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::wcet_of;
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

    /// The per-pair loop the analysis shipped with before the row
    /// kernel: priority, WCET and period re-derived from the task set
    /// for every (i, j) pair, one `hp` vector per task. Kept as the
    /// reference the kernel must agree with bit for bit.
    fn naive(
        ts: &TaskSet,
        members: &[TaskId],
        policy: PriorityPolicy,
        a: WcetAssumption,
    ) -> Vec<ResponseTime> {
        members
            .iter()
            .map(|&t| {
                let c = wcet_of(ts, t, a);
                let d = ts.effective_deadline(t);
                let my_prio = ts.static_priority(t, policy);
                let hp: Vec<(Duration, Duration)> = members
                    .iter()
                    .filter(|&&j| j != t)
                    .filter(|&&j| {
                        let pj = ts.static_priority(j, policy);
                        pj.is_higher_than(my_prio) || (pj == my_prio && j < t)
                    })
                    .filter_map(|&j| {
                        let tj = ts.effective_period(j)?;
                        if tj.is_zero() {
                            return None;
                        }
                        Some((wcet_of(ts, j, a), tj))
                    })
                    .collect();
                let limit = if d == Duration::MAX {
                    ts.hyperperiod().unwrap_or(Duration::MAX)
                } else {
                    d
                };
                let mut r = c;
                let wcrt = loop {
                    let mut next = c;
                    for (cj, tj) in &hp {
                        next += *cj * r.as_nanos().div_ceil(tj.as_nanos());
                    }
                    if next == r {
                        break Some(r);
                    }
                    if next > limit {
                        break None;
                    }
                    r = next;
                };
                ResponseTime {
                    task: t,
                    wcrt,
                    deadline: d,
                }
            })
            .collect()
    }

    const STATIC_POLICIES: [PriorityPolicy; 3] = [
        PriorityPolicy::RateMonotonic,
        PriorityPolicy::DeadlineMonotonic,
        PriorityPolicy::UserDefined,
    ];

    /// Asserts the core equals the naive loop on `ts`, whole-set and
    /// per worker, under every static policy.
    fn assert_matches_naive(ts: &TaskSet, workers: usize) {
        let a = WcetAssumption::MaxVersion;
        let all: Vec<TaskId> = ts.tasks().iter().map(|t| t.id()).collect();
        for policy in STATIC_POLICIES {
            assert_eq!(
                response_times(ts, policy, a),
                naive(ts, &all, policy, a),
                "{policy:?}"
            );
            let mut expected = Vec::new();
            for w in 0..workers {
                let members: Vec<TaskId> = ts
                    .tasks()
                    .iter()
                    .filter(|t| t.spec().assigned_worker().is_some_and(|x| x.index() == w))
                    .map(|t| t.id())
                    .collect();
                expected.extend(naive(ts, &members, policy, a).into_iter().map(|r| (w, r)));
            }
            assert_eq!(
                partitioned_response_times(ts, workers, policy, a),
                expected,
                "{policy:?}, partitioned"
            );
        }
    }

    #[test]
    fn core_matches_the_naive_loop_on_textbook_sets() {
        assert_matches_naive(&set(&[(7, 3), (12, 3), (20, 5)]), 1);
        assert_matches_naive(&set(&[(10, 6), (15, 6)]), 1);
        assert_matches_naive(&set(&[(20, 5), (20, 3), (20, 1)]), 1);
    }

    /// 200 seeded sets: grid periods (many priority ties), constrained
    /// and missing deadlines, user priorities with ties and gaps, 1–3
    /// workers, aperiodic tasks, and two-node graphs whose sink inherits
    /// period and deadline from its root.
    #[test]
    fn core_matches_the_naive_loop_on_generated_sets() {
        use yasmin_core::ids::WorkerId;
        use yasmin_core::priority::Priority;

        const GRID_MS: [u64; 6] = [5, 10, 20, 40, 50, 100];
        let a = WcetAssumption::MaxVersion;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            // xorshift64*: fixed seed, so a failure names a stable set.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % bound
        };
        let (mut converged, mut diverged, mut nodes) = (0, 0, 0);
        for case in 0..200 {
            let workers = 1 + next(3) as usize;
            let n = 2 + next(11) as usize;
            let mut b = TaskSetBuilder::new();
            let mut roots = Vec::new();
            for i in 0..n {
                let period = ms(GRID_MS[next(GRID_MS.len() as u64) as usize]);
                let kind = next(10);
                let is_node = kind == 1 && !roots.is_empty();
                let mut spec = match kind {
                    0 => TaskSpec::aperiodic(format!("a{i}")),
                    _ if is_node => TaskSpec::graph_node(format!("n{i}")),
                    _ => TaskSpec::periodic(format!("t{i}"), period),
                };
                if spec.kind().is_recurring() && next(3) == 0 {
                    let d = period.as_nanos() / 2 + next(period.as_nanos() / 2);
                    spec = spec.with_constrained_deadline(Duration::from_nanos(d));
                }
                if next(4) != 0 {
                    spec = spec.with_priority(Priority::new(next(6)));
                }
                spec = spec.on_worker(WorkerId::new(next(workers as u64) as u16));
                let id = b.task_decl(spec).unwrap();
                // Light enough that most fixed points converge, heavy
                // enough that some diverge past the deadline.
                let wcet = Duration::from_micros(200 + next(2_500));
                b.version_decl(id, VersionSpec::new("v", wcet)).unwrap();
                if is_node {
                    let root = roots[next(roots.len() as u64) as usize];
                    let ch = b.channel_decl(format!("c{i}"), 8, 1);
                    b.channel_connect(root, id, ch).unwrap();
                } else {
                    roots.push(id);
                }
            }
            let ts = b
                .build()
                .unwrap_or_else(|e| panic!("case {case} builds: {e}"));
            assert_matches_naive(&ts, workers);
            for r in response_times(&ts, PriorityPolicy::RateMonotonic, a) {
                *(if r.wcrt.is_some() {
                    &mut converged
                } else {
                    &mut diverged
                }) += 1;
            }
            nodes += ts.inner_nodes().count();
        }
        // The comparison is not vacuous: both loop exits and the
        // graph-inherited parameters were exercised.
        assert!(
            converged > 100 && diverged > 100 && nodes > 20,
            "{converged} converged, {diverged} diverged, {nodes} graph nodes"
        );
    }

    #[test]
    fn textbook_example() {
        // T = {(T=7,C=3), (T=12,C=3), (T=20,C=5)}, RM.
        // R1 = 3; R2 = 3 + ceil(R2/7)*3 -> 6; R3: 5+3+3=11 ->
        // 5 + ceil(11/7)*3 + ceil(11/12)*3 = 5+6+3 = 14 ->
        // 5 + ceil(14/7)*3 + ceil(14/12)*3 = 5+6+6 = 17 ->
        // 5 + 9 + 6 = 20 -> 5 + 9 + 6 = 20 fixpoint.
        let ts = set(&[(7, 3), (12, 3), (20, 5)]);
        let r = response_times(
            &ts,
            PriorityPolicy::RateMonotonic,
            WcetAssumption::MaxVersion,
        );
        assert_eq!(r[0].wcrt, Some(ms(3)));
        assert_eq!(r[1].wcrt, Some(ms(6)));
        assert_eq!(r[2].wcrt, Some(ms(20)));
        assert!(r.iter().all(ResponseTime::schedulable));
    }

    #[test]
    fn unschedulable_diverges() {
        let ts = set(&[(10, 6), (15, 6)]);
        let r = response_times(
            &ts,
            PriorityPolicy::RateMonotonic,
            WcetAssumption::MaxVersion,
        );
        assert!(r[0].schedulable());
        assert!(!r[1].schedulable());
        assert_eq!(r[1].wcrt, None);
        assert!(!schedulable(
            &ts,
            PriorityPolicy::RateMonotonic,
            WcetAssumption::MaxVersion
        ));
    }

    #[test]
    fn dm_uses_deadlines() {
        // Same periods; t1 has the tighter deadline, so under DM it
        // preempts t0 even though periods tie.
        let mut b = TaskSetBuilder::new();
        let t0 = b.task_decl(TaskSpec::periodic("t0", ms(20))).unwrap();
        b.version_decl(t0, VersionSpec::new("v", ms(5))).unwrap();
        let t1 = b
            .task_decl(TaskSpec::periodic("t1", ms(20)).with_constrained_deadline(ms(8)))
            .unwrap();
        b.version_decl(t1, VersionSpec::new("v", ms(3))).unwrap();
        let ts = b.build().unwrap();
        let r = response_times(
            &ts,
            PriorityPolicy::DeadlineMonotonic,
            WcetAssumption::MaxVersion,
        );
        assert_eq!(r[1].wcrt, Some(ms(3)), "tight-deadline task runs first");
        assert_eq!(r[0].wcrt, Some(ms(8)));
    }

    #[test]
    #[should_panic(expected = "static")]
    fn edf_rejected() {
        let ts = set(&[(10, 1)]);
        let _ = response_times(
            &ts,
            PriorityPolicy::EarliestDeadlineFirst,
            WcetAssumption::MaxVersion,
        );
    }

    #[test]
    fn partitioned_isolates_workers() {
        let mut b = TaskSetBuilder::new();
        // Worker 0: two heavy tasks; worker 1: one light task.
        for (i, (t, c, w)) in [(10u64, 6u64, 0u16), (15, 6, 0), (10, 1, 1)]
            .iter()
            .enumerate()
        {
            let id = b
                .task_decl(
                    TaskSpec::periodic(format!("t{i}"), ms(*t))
                        .on_worker(yasmin_core::ids::WorkerId::new(*w)),
                )
                .unwrap();
            b.version_decl(id, VersionSpec::new("v", ms(*c))).unwrap();
        }
        let ts = b.build().unwrap();
        let r = partitioned_response_times(
            &ts,
            2,
            PriorityPolicy::RateMonotonic,
            WcetAssumption::MaxVersion,
        );
        // Worker 0 overloaded; worker 1 fine.
        let w0_sched = r
            .iter()
            .filter(|(w, _)| *w == 0)
            .all(|(_, rt)| rt.schedulable());
        let w1_sched = r
            .iter()
            .filter(|(w, _)| *w == 1)
            .all(|(_, rt)| rt.schedulable());
        assert!(!w0_sched);
        assert!(w1_sched);
    }
}
