//! Jobs: single activations of tasks.

use yasmin_core::ids::{JobId, TaskId};
use yasmin_core::priority::Priority;
use yasmin_core::time::Instant;

/// One activation (job) of a task, as tracked by the scheduling engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Globally unique job identifier.
    pub id: JobId,
    /// The task this job activates.
    pub task: TaskId,
    /// Per-task activation sequence number (job *i* of the task).
    pub seq: u64,
    /// When this job was released.
    pub release: Instant,
    /// Release of the *graph instance* this job belongs to: equals
    /// `release` for root tasks, and is inherited from the predecessor for
    /// inner DAG nodes — deadlines are "described at the graph level" (§2).
    pub graph_release: Instant,
    /// Absolute deadline (`Instant::MAX` when unconstrained).
    pub abs_deadline: Instant,
    /// Scheduling priority (smaller = more urgent); fixed at release for
    /// static policies, the absolute deadline under EDF.
    pub priority: Priority,
    /// `true` once the job has been preempted at least once.
    pub preempted: bool,
}

impl Job {
    /// `true` if the job's deadline has passed at `now`.
    #[must_use]
    pub fn deadline_missed_at(&self, now: Instant) -> bool {
        self.abs_deadline != Instant::MAX && now > self.abs_deadline
    }

    /// The key that orders jobs in ready queues: priority first, then
    /// release time, then job id — a deterministic total order.
    #[must_use]
    pub fn queue_key(&self) -> (Priority, Instant, JobId) {
        (self.priority, self.release, self.id)
    }
}

/// Most jobs a single batch-steal exchange may hand over. Also the cap
/// on the adaptive batch size thieves derive from the load board: large
/// enough to amortize the request/deny round-trip at k = 8, small
/// enough that a [`JobBatch`] stays a cheap `Copy` value.
pub const MAX_STEAL_BATCH: usize = 8;

/// A fixed-capacity, `Copy` batch of jobs — the payload of one
/// batch-steal grant. Inline storage (no heap) keeps the hand-off
/// allocation-free: the victim releases the jobs into it, and the
/// thief adopts them from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobBatch {
    jobs: [Job; MAX_STEAL_BATCH],
    len: u8,
}

impl JobBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        // Placeholder payload for the unused tail slots; never observable
        // through `as_slice`.
        let blank = Job {
            id: JobId::new(0),
            task: TaskId::new(0),
            seq: 0,
            release: Instant::ZERO,
            graph_release: Instant::ZERO,
            abs_deadline: Instant::ZERO,
            priority: Priority::new(0),
            preempted: false,
        };
        JobBatch {
            jobs: [blank; MAX_STEAL_BATCH],
            len: 0,
        }
    }

    /// Appends a job; `false` (and no change) when the batch is full.
    pub fn push(&mut self, job: Job) -> bool {
        if (self.len as usize) < MAX_STEAL_BATCH {
            self.jobs[self.len as usize] = job;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// The batched jobs, in the order they were pushed (most urgent
    /// first for batches built by the victim-side release).
    #[must_use]
    pub fn as_slice(&self) -> &[Job] {
        &self.jobs[..self.len as usize]
    }

    /// Number of jobs in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no jobs were pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all jobs, keeping the (inline) storage.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for JobBatch {
    fn default() -> Self {
        JobBatch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::time::Duration;

    fn job(id: u64, prio: u64, release_ns: u64) -> Job {
        Job {
            id: JobId::new(id),
            task: TaskId::new(0),
            seq: 0,
            release: Instant::from_nanos(release_ns),
            graph_release: Instant::from_nanos(release_ns),
            abs_deadline: Instant::from_nanos(release_ns) + Duration::from_millis(10),
            priority: Priority::new(prio),
            preempted: false,
        }
    }

    #[test]
    fn queue_key_orders_by_priority_then_release_then_id() {
        let a = job(1, 5, 100);
        let b = job(2, 3, 200);
        let c = job(3, 5, 50);
        let mut v = [a, b, c];
        v.sort_by_key(Job::queue_key);
        assert_eq!(v[0].id, JobId::new(2)); // most urgent priority 3
        assert_eq!(v[1].id, JobId::new(3)); // prio 5, earlier release
        assert_eq!(v[2].id, JobId::new(1));
    }

    #[test]
    fn job_batch_is_bounded_and_ordered() {
        let mut b = JobBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.as_slice(), &[]);
        for i in 0..MAX_STEAL_BATCH {
            assert!(b.push(job(i as u64, i as u64, 0)));
        }
        assert!(!b.push(job(99, 99, 0)), "batch refuses past capacity");
        assert_eq!(b.len(), MAX_STEAL_BATCH);
        let ids: Vec<u64> = b.as_slice().iter().map(|j| j.id.raw()).collect();
        assert_eq!(ids, (0..MAX_STEAL_BATCH as u64).collect::<Vec<_>>());
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn deadline_miss_detection() {
        let j = job(1, 1, 0);
        assert!(!j.deadline_missed_at(Instant::from_nanos(10_000_000)));
        assert!(j.deadline_missed_at(Instant::from_nanos(10_000_001)));
        let unconstrained = Job {
            abs_deadline: Instant::MAX,
            ..j
        };
        assert!(!unconstrained.deadline_missed_at(Instant::MAX));
    }
}
