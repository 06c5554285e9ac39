//! Per-job records and aggregated simulation results.

use yasmin_core::energy::Energy;
use yasmin_core::ids::{JobId, TaskId, VersionId, WorkerId};
use yasmin_core::stats::{Samples, Summary};
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::EngineStats;

/// Everything the simulator learned about one completed job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Job identifier.
    pub job: JobId,
    /// The task.
    pub task: TaskId,
    /// Activation sequence number of the task.
    pub seq: u64,
    /// Release time.
    pub release: Instant,
    /// Release of the owning graph instance (= `release` for roots).
    pub graph_release: Instant,
    /// Absolute deadline (`Instant::MAX` if unconstrained).
    pub abs_deadline: Instant,
    /// First time the job started executing.
    pub first_start: Instant,
    /// Completion time.
    pub completion: Instant,
    /// The version that ran.
    pub version: VersionId,
    /// The worker that finished the job.
    pub worker: WorkerId,
    /// How many times the job was preempted.
    pub preemptions: u32,
}

impl JobRecord {
    /// Response time: completion − release.
    #[must_use]
    pub fn response_time(&self) -> Duration {
        self.completion.saturating_since(self.release)
    }

    /// End-to-end time within the graph instance: completion − graph
    /// release. For sink tasks this is the paper's "time to process a
    /// frame" (Fig. 4).
    #[must_use]
    pub fn end_to_end(&self) -> Duration {
        self.completion.saturating_since(self.graph_release)
    }

    /// `true` if the job finished after its deadline.
    #[must_use]
    pub fn missed(&self) -> bool {
        self.abs_deadline != Instant::MAX && self.completion > self.abs_deadline
    }

    /// Wake-up latency of the first dispatch: first start − release.
    #[must_use]
    pub fn start_latency(&self) -> Duration {
        self.first_start.saturating_since(self.release)
    }
}

/// The outcome of one simulation run.
#[derive(Debug)]
pub struct SimResult {
    /// Completed jobs, in completion order.
    pub records: Vec<JobRecord>,
    /// Jobs released and not finished, culled or failed by the horizon:
    /// the running ones and the ready ones, preempted jobs included.
    pub unfinished: usize,
    /// Of the unfinished jobs that had started (running or preempted),
    /// those past their deadline; a never-dispatched job is not counted.
    pub unfinished_missed: usize,
    /// Scheduler-engine counters.
    pub engine_stats: EngineStats,
    /// The simulated horizon.
    pub horizon: Instant,
    /// Wall-clock nanoseconds spent inside scheduler-engine calls (one
    /// sample per tick/completion event) — the measured middleware
    /// overhead used by the Figure 2 experiment.
    pub sched_overhead_ns: Samples,
    /// Per-worker busy time.
    pub worker_busy: Vec<Duration>,
    /// Total modelled energy (cores + accelerators).
    pub energy: Energy,
    /// Cycles of a recurring schedule that [`crate::Simulation::run`]
    /// appended time-shifted instead of simulating (0: the run never
    /// recurred, or came from a sharded driver, which never folds).
    pub replayed_cycles: u64,
    /// Records those cycles contributed.
    pub replayed_jobs: u64,
}

impl SimResult {
    /// Records of one task.
    pub fn records_of(&self, task: TaskId) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(move |r| r.task == task)
    }

    /// Response-time summary for one task.
    #[must_use]
    pub fn response_times(&self, task: TaskId) -> Summary {
        self.records_of(task)
            .map(|r| r.response_time().as_nanos())
            .collect()
    }

    /// End-to-end summary for one (sink) task.
    #[must_use]
    pub fn end_to_end(&self, task: TaskId) -> Summary {
        self.records_of(task)
            .map(|r| r.end_to_end().as_nanos())
            .collect()
    }

    /// Completed-job deadline misses for one task.
    #[must_use]
    pub fn miss_count(&self, task: TaskId) -> usize {
        self.records_of(task).filter(|r| r.missed()).count()
    }

    /// Total deadline misses: jobs completed late, plus
    /// [`SimResult::unfinished_missed`] (started jobs only).
    #[must_use]
    pub fn total_misses(&self) -> usize {
        self.records.iter().filter(|r| r.missed()).count() + self.unfinished_missed
    }

    /// Deadline-miss ratio over all *completed* jobs of one task.
    #[must_use]
    pub fn miss_ratio(&self, task: TaskId) -> f64 {
        let total = self.records_of(task).count();
        if total == 0 {
            return 0.0;
        }
        self.miss_count(task) as f64 / total as f64
    }

    /// Utilisation of one worker over the horizon.
    #[must_use]
    pub fn worker_utilisation(&self, worker: usize) -> f64 {
        if self.horizon == Instant::ZERO {
            return 0.0;
        }
        self.worker_busy[worker].as_nanos() as f64 / self.horizon.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(release_ms: u64, completion_ms: u64, deadline_ms: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(0),
            task: TaskId::new(0),
            seq: 0,
            release: Instant::from_nanos(release_ms * 1_000_000),
            graph_release: Instant::from_nanos(release_ms * 1_000_000),
            abs_deadline: Instant::from_nanos(deadline_ms * 1_000_000),
            first_start: Instant::from_nanos(release_ms * 1_000_000 + 50_000),
            completion: Instant::from_nanos(completion_ms * 1_000_000),
            version: VersionId::new(0),
            worker: WorkerId::new(0),
            preemptions: 0,
        }
    }

    #[test]
    fn response_and_miss() {
        let r = record(10, 18, 20);
        assert_eq!(r.response_time(), Duration::from_millis(8));
        assert!(!r.missed());
        let late = record(10, 25, 20);
        assert!(late.missed());
        assert_eq!(late.start_latency(), Duration::from_micros(50));
    }

    #[test]
    fn unconstrained_never_misses() {
        let mut r = record(0, 100, 1);
        r.abs_deadline = Instant::MAX;
        assert!(!r.missed());
    }

    #[test]
    fn result_aggregates() {
        let result = SimResult {
            records: vec![record(0, 8, 10), record(10, 25, 20), record(20, 28, 30)],
            unfinished: 1,
            unfinished_missed: 1,
            engine_stats: EngineStats::default(),
            horizon: Instant::from_nanos(40_000_000),
            sched_overhead_ns: Samples::new(),
            worker_busy: vec![Duration::from_millis(20)],
            energy: Energy::ZERO,
            replayed_cycles: 0,
            replayed_jobs: 0,
        };
        let t = TaskId::new(0);
        assert_eq!(result.miss_count(t), 1);
        assert_eq!(result.total_misses(), 2);
        assert!((result.miss_ratio(t) - 1.0 / 3.0).abs() < 1e-12);
        let rt = result.response_times(t);
        assert_eq!(rt.count(), 3);
        assert_eq!(rt.max(), Some(15_000_000));
        assert!((result.worker_utilisation(0) - 0.5).abs() < 1e-12);
        // Unknown task: empty.
        assert_eq!(result.miss_ratio(TaskId::new(9)), 0.0);
    }
}
