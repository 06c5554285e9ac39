//! Off-line computed schedules and their on-line dispatcher (§3.4).
//!
//! "Unlike any similar middleware we found in literature, YASMIN also
//! natively supports off-line computed schedules. … In our run-time
//! implementation an on-line dispatcher dispatches tasks at the
//! predefined time following a given time table and a given mapping"
//! (Fig. 1c).
//!
//! This module provides three pieces:
//!
//! * [`ScheduleTable`] — the time table: per worker, a sequence of
//!   entries ordered by release time, covering one hyperperiod;
//! * [`synthesize`] — an off-line list scheduler that builds a table from
//!   a task set (deadline-ordered, precedence- and accelerator-aware,
//!   with the version pre-selected off-line as the paper suggests);
//! * [`OfflineDispatcher`] — the run-time side: hands each worker its next
//!   entry, wrapping around the hyperperiod with "special delay slots …
//!   in between RT tasks" represented by the gap to the entry's start.

use std::sync::Arc;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{AccelId, TaskId, VersionId, WorkerId};
use yasmin_core::time::{Duration, Instant};

/// How the off-line scheduler picks the version of each task instance.
///
/// "If the static scheduler is aware of multi-version tasks, the version
/// can be pre-selected off-line", which also shrinks the binary (§3.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OfflineVersionChoice {
    /// Shortest WCET (time-optimal greedy).
    #[default]
    MinWcet,
    /// Lowest energy per activation.
    MinEnergy,
    /// Shortest WCET among versions not using any accelerator.
    CpuOnly,
}

/// Options steering [`synthesize`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthesisOptions {
    /// Version pre-selection rule.
    pub version_choice: OfflineVersionChoice,
    /// Honour each task's `assigned_worker` (partitioned table) instead of
    /// placing greedily.
    pub partitioned: bool,
}

/// One slot of the time table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableEntry {
    /// The worker executing this slot.
    pub worker: WorkerId,
    /// Start time within the hyperperiod.
    pub start: Instant,
    /// Planned execution time (WCET of the chosen version).
    pub duration: Duration,
    /// The task instance.
    pub task: TaskId,
    /// The pre-selected version.
    pub version: VersionId,
    /// Instance number within the hyperperiod.
    pub instance: u64,
    /// Release time of the instance (never after `start`).
    pub release: Instant,
    /// Absolute deadline of the instance within the hyperperiod frame.
    pub abs_deadline: Instant,
}

impl TableEntry {
    /// The planned completion time.
    #[must_use]
    pub fn finish(&self) -> Instant {
        self.start + self.duration
    }
}

/// A validated off-line schedule covering one hyperperiod.
#[derive(Clone, Debug)]
pub struct ScheduleTable {
    horizon: Duration,
    per_worker: Vec<Vec<TableEntry>>,
    misses: Vec<TableEntry>,
}

impl ScheduleTable {
    /// The table horizon (the hyperperiod).
    #[must_use]
    pub fn horizon(&self) -> Duration {
        self.horizon
    }

    /// Number of workers the table targets.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// The entries of one worker, ordered by start time.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    #[must_use]
    pub fn entries(&self, worker: WorkerId) -> &[TableEntry] {
        &self.per_worker[worker.index()]
    }

    /// All entries across workers (unordered).
    pub fn all_entries(&self) -> impl Iterator<Item = &TableEntry> {
        self.per_worker.iter().flatten()
    }

    /// Entries whose planned finish exceeds their deadline — a
    /// non-empty result means the heuristic found no feasible table.
    #[must_use]
    pub fn deadline_misses(&self) -> &[TableEntry] {
        &self.misses
    }

    /// Latest planned finish across all workers.
    #[must_use]
    pub fn makespan(&self) -> Duration {
        self.all_entries()
            .map(|e| e.finish().saturating_since(Instant::ZERO))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Checks the structural invariants of the table against `ts`:
    /// no overlap per worker, accelerator exclusivity, precedence between
    /// same-instance producer/consumer entries, releases respected.
    ///
    /// # Errors
    ///
    /// [`Error::Infeasible`] describing the first violation found.
    pub fn validate(&self, ts: &TaskSet) -> Result<()> {
        // Per-worker: sorted & non-overlapping.
        for (w, entries) in self.per_worker.iter().enumerate() {
            for pair in entries.windows(2) {
                if pair[1].start < pair[0].finish() {
                    return Err(Error::Infeasible(format!(
                        "worker {w}: overlapping entries at {} and {}",
                        pair[0].start, pair[1].start
                    )));
                }
            }
        }
        // Release respected & versions exist.
        for e in self.all_entries() {
            if e.start < e.release {
                return Err(Error::Infeasible(format!(
                    "task {} instance {} starts before release",
                    e.task, e.instance
                )));
            }
            ts.task(e.task)?.version(e.version)?;
        }
        // Accelerator exclusivity.
        let mut accel_busy: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); ts.accels().len()];
        for e in self.all_entries() {
            if let Some(a) = ts.task(e.task)?.version(e.version)?.accel() {
                accel_busy[a.index()].push((e.start, e.finish()));
            }
        }
        for (ai, mut spans) in accel_busy.into_iter().enumerate() {
            spans.sort();
            for pair in spans.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return Err(Error::Infeasible(format!(
                        "accelerator H{ai} used by two overlapping entries"
                    )));
                }
            }
        }
        // Precedence: same-instance src finish <= dst start.
        for edge in ts.edges() {
            let srcs: Vec<&TableEntry> =
                self.all_entries().filter(|e| e.task == edge.src).collect();
            let dsts: Vec<&TableEntry> =
                self.all_entries().filter(|e| e.task == edge.dst).collect();
            for d in &dsts {
                if let Some(s) = srcs.iter().find(|s| s.instance == d.instance) {
                    if d.start < s.finish() {
                        return Err(Error::Infeasible(format!(
                            "edge {}→{} instance {}: consumer starts before producer ends",
                            edge.src, edge.dst, d.instance
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One job instance during synthesis.
#[derive(Clone, Debug)]
struct PendingJob {
    task: TaskId,
    instance: u64,
    release: Instant,
    abs_deadline: Instant,
    preds: Vec<usize>,
    scheduled: Option<usize>,
}

/// Builds an off-line table for one hyperperiod of `ts` on `workers`
/// workers, ordering choices by earliest deadline (an EDF list schedule).
///
/// Sporadic roots are planned at their minimum inter-arrival (worst
/// case); aperiodic tasks are excluded — §3.4 leaves them to the user.
///
/// # Errors
///
/// * [`Error::InvalidConfig`] if `workers == 0`;
/// * [`Error::Infeasible`] if the task set has no recurring task (no
///   hyperperiod);
/// * [`Error::MissingPartition`] / [`Error::UnknownWorker`] if
///   partitioned synthesis meets a task without a worker or with one at
///   or past `workers`.
pub fn synthesize(ts: &TaskSet, workers: usize, opts: SynthesisOptions) -> Result<ScheduleTable> {
    if workers == 0 {
        return Err(Error::InvalidConfig(
            "offline synthesis needs workers".into(),
        ));
    }
    let horizon = ts
        .hyperperiod()
        .ok_or_else(|| Error::Infeasible("no recurring task, hyperperiod undefined".into()))?;

    // 1. Expand job instances over the hyperperiod.
    let mut jobs: Vec<PendingJob> = Vec::new();
    let mut index_of: std::collections::HashMap<(TaskId, u64), usize> =
        std::collections::HashMap::new();
    for root in ts.roots() {
        if !root.spec().kind().is_recurring() {
            continue;
        }
        let period = root.spec().period();
        let offset = root.spec().release_offset();
        let count = horizon / period;
        let component = ts.component_of(root.id());
        for k in 0..count {
            let release = Instant::ZERO + offset + period * k;
            let rel_d = ts.effective_deadline(root.id());
            let abs_deadline = if rel_d == Duration::MAX {
                Instant::MAX
            } else {
                release + rel_d
            };
            // Component nodes in topological order: preds already indexed.
            for &node in &component {
                let preds: Vec<usize> = ts.in_edges(node).map(|e| index_of[&(e.src, k)]).collect();
                let idx = jobs.len();
                jobs.push(PendingJob {
                    task: node,
                    instance: k,
                    release,
                    abs_deadline,
                    preds,
                    scheduled: None,
                });
                index_of.insert((node, k), idx);
            }
        }
    }
    if jobs.is_empty() {
        return Err(Error::Infeasible("nothing to schedule".into()));
    }

    // 2. Greedy EDF list scheduling.
    let mut entries: Vec<TableEntry> = Vec::with_capacity(jobs.len());
    let mut worker_free = vec![Instant::ZERO; workers];
    let mut accel_free: std::collections::HashMap<AccelId, Instant> =
        std::collections::HashMap::new();
    let mut remaining = jobs.len();
    while remaining > 0 {
        // Ready = unscheduled with all preds scheduled.
        let mut best: Option<(Instant, Instant, usize)> = None; // (deadline, est, idx)
        for (i, j) in jobs.iter().enumerate() {
            if j.scheduled.is_some() {
                continue;
            }
            if j.preds.iter().any(|&p| jobs[p].scheduled.is_none()) {
                continue;
            }
            let pred_finish = j
                .preds
                .iter()
                .map(|&p| entries[jobs[p].scheduled.unwrap()].finish())
                .max()
                .unwrap_or(Instant::ZERO);
            let est = j.release.max(pred_finish);
            let key = (j.abs_deadline, est, i);
            if best.is_none_or(|b| key < (b.0, b.1, b.2)) {
                best = Some(key);
            }
        }
        let (_, _, idx) = best.expect("acyclic graph always has a ready job");
        let job = jobs[idx].clone();
        let task = ts.task(job.task)?;

        // Version pre-selection.
        let (version, vspec) = {
            let mut cands: Vec<(VersionId, &yasmin_core::version::VersionSpec)> = task
                .versions()
                .iter()
                .enumerate()
                .map(|(i, v)| (VersionId::new(i as u16), v))
                .collect();
            match opts.version_choice {
                OfflineVersionChoice::MinWcet => cands.sort_by_key(|(id, v)| (v.wcet(), *id)),
                OfflineVersionChoice::MinEnergy => {
                    cands.sort_by_key(|(id, v)| (v.energy(), *id));
                }
                OfflineVersionChoice::CpuOnly => {
                    cands.retain(|(_, v)| v.accel().is_none());
                    cands.sort_by_key(|(id, v)| (v.wcet(), *id));
                    if cands.is_empty() {
                        return Err(Error::Infeasible(format!(
                            "task {} has no CPU-only version",
                            job.task
                        )));
                    }
                }
            }
            cands[0]
        };

        let pred_finish = job
            .preds
            .iter()
            .map(|&p| entries[jobs[p].scheduled.unwrap()].finish())
            .max()
            .unwrap_or(Instant::ZERO);
        let est = job.release.max(pred_finish);
        let est = match vspec.accel() {
            Some(a) => est.max(*accel_free.get(&a).unwrap_or(&Instant::ZERO)),
            None => est,
        };

        // Worker choice.
        let w = if opts.partitioned {
            ts.partition_of(job.task, workers)?.index()
        } else {
            (0..workers)
                .min_by_key(|&w| (worker_free[w].max(est), w))
                .expect("workers > 0")
        };
        let start = est.max(worker_free[w]);
        let entry = TableEntry {
            worker: WorkerId::new(w as u16),
            start,
            duration: vspec.wcet(),
            task: job.task,
            version,
            instance: job.instance,
            release: job.release,
            abs_deadline: job.abs_deadline,
        };
        worker_free[w] = entry.finish();
        if let Some(a) = vspec.accel() {
            accel_free.insert(a, entry.finish());
        }
        jobs[idx].scheduled = Some(entries.len());
        entries.push(entry);
        remaining -= 1;
    }

    // 3. Partition per worker, sort, collect misses.
    let mut per_worker: Vec<Vec<TableEntry>> = vec![Vec::new(); workers];
    let mut misses = Vec::new();
    for e in entries {
        if e.abs_deadline != Instant::MAX && e.finish() > e.abs_deadline {
            misses.push(e);
        }
        per_worker[e.worker.index()].push(e);
    }
    for v in &mut per_worker {
        v.sort_by_key(|e| (e.start, e.task));
    }
    Ok(ScheduleTable {
        horizon,
        per_worker,
        misses,
    })
}

/// Like [`synthesize`] but fails when any instance misses its deadline.
///
/// # Errors
///
/// [`Error::Infeasible`] listing the first missing instance, in addition
/// to the errors of [`synthesize`].
pub fn synthesize_strict(
    ts: &TaskSet,
    workers: usize,
    opts: SynthesisOptions,
) -> Result<ScheduleTable> {
    let table = synthesize(ts, workers, opts)?;
    if let Some(m) = table.deadline_misses().first() {
        return Err(Error::Infeasible(format!(
            "task {} instance {} finishes at {} after deadline {}",
            m.task,
            m.instance,
            m.finish(),
            m.abs_deadline
        )));
    }
    Ok(table)
}

/// A dispatch slot handed to a worker at run time, in absolute time
/// (hyperperiod repetitions unrolled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchSlot {
    /// Absolute planned start.
    pub start: Instant,
    /// Planned duration.
    pub duration: Duration,
    /// Absolute deadline.
    pub abs_deadline: Instant,
    /// Task to run.
    pub task: TaskId,
    /// Pre-selected version.
    pub version: VersionId,
    /// Global instance counter (across hyperperiods).
    pub global_instance: u64,
}

/// The per-worker run-time dispatcher (Fig. 1c): "each worker thread …
/// has access to a predefined sequence of RT tasks ordered by increasing
/// release time" and waits out the delay slots between them.
#[derive(Debug)]
pub struct OfflineDispatcher {
    table: Arc<ScheduleTable>,
    cursor: Vec<usize>,
    cycle: Vec<u64>,
}

impl OfflineDispatcher {
    /// Creates a dispatcher over `table`.
    #[must_use]
    pub fn new(table: Arc<ScheduleTable>) -> Self {
        let w = table.workers();
        OfflineDispatcher {
            table,
            cursor: vec![0; w],
            cycle: vec![0; w],
        }
    }

    /// The table driving this dispatcher.
    #[must_use]
    pub fn table(&self) -> &ScheduleTable {
        &self.table
    }

    /// The next slot for `worker`, advancing its cursor. Returns `None`
    /// only when the worker's table is empty.
    pub fn next_slot(&mut self, worker: WorkerId) -> Option<DispatchSlot> {
        let wi = worker.index();
        let entries = &self.table.per_worker[wi];
        if entries.is_empty() {
            return None;
        }
        let per_cycle = entries.len() as u64;
        let e = &entries[self.cursor[wi]];
        let shift =
            Duration::from_nanos(self.table.horizon.as_nanos().saturating_mul(self.cycle[wi]));
        let slot = DispatchSlot {
            start: e.start + shift,
            duration: e.duration,
            abs_deadline: if e.abs_deadline == Instant::MAX {
                Instant::MAX
            } else {
                e.abs_deadline + shift
            },
            task: e.task,
            version: e.version,
            global_instance: self.cycle[wi] * per_cycle + e.instance,
        };
        self.cursor[wi] += 1;
        if self.cursor[wi] == entries.len() {
            self.cursor[wi] = 0;
            self.cycle[wi] += 1;
        }
        Some(slot)
    }
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

    fn at_ms(v: u64) -> Instant {
        Instant::from_nanos(v * 1_000_000)
    }

    fn independent_set() -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let c = b.task_decl(TaskSpec::periodic("c", ms(20))).unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(3))).unwrap();
        b.version_decl(c, VersionSpec::new("c", ms(8))).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn synthesis_covers_hyperperiod() {
        let ts = independent_set();
        let table = synthesize(&ts, 2, SynthesisOptions::default()).unwrap();
        assert_eq!(table.horizon(), ms(20));
        // a: 2 instances, c: 1 instance.
        assert_eq!(table.all_entries().count(), 3);
        assert!(table.deadline_misses().is_empty());
        table.validate(&ts).unwrap();
    }

    #[test]
    fn single_worker_serialises() {
        let ts = independent_set();
        let table = synthesize_strict(&ts, 1, SynthesisOptions::default()).unwrap();
        table.validate(&ts).unwrap();
        let entries = table.entries(WorkerId::new(0));
        assert_eq!(entries.len(), 3);
        // EDF order at time 0: a (deadline 10) before c (deadline 20).
        assert_eq!(entries[0].task, TaskId::new(0));
        assert_eq!(entries[1].task, TaskId::new(1));
        // a: 0-3, c: 3-11, second a released at 10 runs 11-14 => 14ms.
        assert_eq!(table.makespan(), ms(14));
    }

    #[test]
    fn infeasible_set_reported() {
        let mut b = TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(15))).unwrap();
        let ts = b.build().unwrap();
        let table = synthesize(&ts, 1, SynthesisOptions::default()).unwrap();
        assert_eq!(table.deadline_misses().len(), 1);
        assert!(synthesize_strict(&ts, 1, SynthesisOptions::default()).is_err());
    }

    #[test]
    fn precedence_respected_in_table() {
        let mut b = TaskSetBuilder::new();
        let src = b.task_decl(TaskSpec::periodic("src", ms(50))).unwrap();
        let dst = b.task_decl(TaskSpec::graph_node("dst")).unwrap();
        b.version_decl(src, VersionSpec::new("s", ms(10))).unwrap();
        b.version_decl(dst, VersionSpec::new("d", ms(5))).unwrap();
        let ch = b.channel_decl("c", 1, 4);
        b.channel_connect(src, dst, ch).unwrap();
        let ts = b.build().unwrap();
        let table = synthesize_strict(&ts, 2, SynthesisOptions::default()).unwrap();
        table.validate(&ts).unwrap();
        let src_e = table.all_entries().find(|e| e.task == src).unwrap();
        let dst_e = table.all_entries().find(|e| e.task == dst).unwrap();
        assert!(dst_e.start >= src_e.finish());
    }

    #[test]
    fn accel_exclusive_in_table() {
        let mut b = TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let t1 = b.task_decl(TaskSpec::periodic("t1", ms(100))).unwrap();
        let t2 = b.task_decl(TaskSpec::periodic("t2", ms(100))).unwrap();
        b.version_decl(t1, VersionSpec::new("g1", ms(10)).with_accel(gpu))
            .unwrap();
        b.version_decl(t2, VersionSpec::new("g2", ms(10)).with_accel(gpu))
            .unwrap();
        let ts = b.build().unwrap();
        let table = synthesize_strict(&ts, 2, SynthesisOptions::default()).unwrap();
        table.validate(&ts).unwrap();
        // Despite two workers, GPU use must serialise.
        let mut spans: Vec<(Instant, Instant)> =
            table.all_entries().map(|e| (e.start, e.finish())).collect();
        spans.sort();
        assert!(spans[1].0 >= spans[0].1);
    }

    #[test]
    fn cpu_only_choice_avoids_accels() {
        let mut b = TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let t = b.task_decl(TaskSpec::periodic("t", ms(100))).unwrap();
        b.version_decl(t, VersionSpec::new("gpu", ms(10)).with_accel(gpu))
            .unwrap();
        b.version_decl(t, VersionSpec::new("cpu", ms(30))).unwrap();
        let ts = b.build().unwrap();
        let opts = SynthesisOptions {
            version_choice: OfflineVersionChoice::CpuOnly,
            ..SynthesisOptions::default()
        };
        let table = synthesize_strict(&ts, 1, opts).unwrap();
        assert_eq!(
            table.all_entries().next().unwrap().version,
            VersionId::new(1)
        );
    }

    #[test]
    fn partitioned_synthesis_respects_assignment() {
        let mut b = TaskSetBuilder::new();
        let a = b
            .task_decl(TaskSpec::periodic("a", ms(10)).on_worker(WorkerId::new(1)))
            .unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(2))).unwrap();
        let ts = b.build().unwrap();
        let opts = SynthesisOptions {
            partitioned: true,
            ..SynthesisOptions::default()
        };
        let table = synthesize_strict(&ts, 2, opts).unwrap();
        assert!(table.entries(WorkerId::new(0)).is_empty());
        assert_eq!(table.entries(WorkerId::new(1)).len(), 1);
    }

    #[test]
    fn dispatcher_wraps_hyperperiods() {
        let ts = independent_set();
        let table = Arc::new(synthesize_strict(&ts, 1, SynthesisOptions::default()).unwrap());
        let mut d = OfflineDispatcher::new(Arc::clone(&table));
        let w = WorkerId::new(0);
        let s1 = d.next_slot(w).unwrap();
        let s2 = d.next_slot(w).unwrap();
        let s3 = d.next_slot(w).unwrap();
        let s4 = d.next_slot(w).unwrap(); // wrapped: cycle 1
        assert_eq!(s1.start, at_ms(0));
        assert!(s2.start >= s1.start);
        assert!(s3.start >= s2.start);
        assert_eq!(s4.start, s1.start + ms(20));
        assert_eq!(s4.task, s1.task);
        assert!(s4.global_instance > s3.global_instance);
    }

    #[test]
    fn dispatcher_empty_worker() {
        let mut b = TaskSetBuilder::new();
        let a = b
            .task_decl(TaskSpec::periodic("a", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(1))).unwrap();
        let ts = b.build().unwrap();
        let opts = SynthesisOptions {
            partitioned: true,
            ..SynthesisOptions::default()
        };
        let table = Arc::new(synthesize_strict(&ts, 2, opts).unwrap());
        let mut d = OfflineDispatcher::new(table);
        assert!(d.next_slot(WorkerId::new(1)).is_none());
        assert!(d.next_slot(WorkerId::new(0)).is_some());
    }

    #[test]
    fn validate_catches_overlap() {
        let ts = independent_set();
        let mut table = synthesize(&ts, 1, SynthesisOptions::default()).unwrap();
        // Corrupt: force overlap.
        table.per_worker[0][1].start = Instant::ZERO;
        assert!(table.validate(&ts).is_err());
    }
}
