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
/// on the adaptive batch size thieves derive from the load board.
pub const MAX_STEAL_BATCH: usize = 8;

/// The jobs of one steal exchange, most urgent first: what the victim
/// lends ([`crate::Input::Lend`]) and the
/// thief adopts. A driver keeps one with room for [`MAX_STEAL_BATCH`]
/// jobs and clears it per exchange, so no exchange allocates.
pub type JobBatch = Vec<Job>;

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
