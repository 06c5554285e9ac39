//! Run-time arbitration of hardware accelerators.
//!
//! "Because accelerator usage is declared to our scheduler using the API
//! call `hwaccel_use`, it can detect that the targeted accelerator is
//! busy, and that it is preferable to use another task version targeting a
//! free one" (§3.2). When no free-resource version exists and the blocked
//! job is more urgent than the holder, the engine applies the Priority
//! Inheritance Protocol and requeues the job. The holder's priority is
//! the engine's to keep (`RunningJob::effective_priority`); this module
//! keeps who holds what.
//!
//! Per the paper's stated limitation, an accelerator is considered busy
//! from the beginning of the version's initial CPU part to the end of its
//! final CPU part — i.e. for the job's whole execution.

use yasmin_core::error::{Error, Result};
use yasmin_core::ids::{AccelId, JobId, WorkerId};
use yasmin_core::priority::Priority;

/// State of one accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelState {
    /// The job currently occupying the accelerator, with the worker it
    /// runs on.
    pub holder: Option<AccelHolder>,
}

/// Who currently holds an accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelHolder {
    /// The occupying job.
    pub job: JobId,
    /// The worker executing that job.
    pub worker: WorkerId,
}

/// Tracks which accelerators are busy, and whom PIP boosts.
#[derive(Debug)]
pub struct AccelManager {
    states: Vec<AccelState>,
}

impl AccelManager {
    /// Creates a manager for `count` declared accelerators.
    #[must_use]
    pub fn new(count: usize) -> Self {
        AccelManager {
            states: vec![AccelState { holder: None }; count],
        }
    }

    /// Grows the manager to `count` accelerators (no-op if already that
    /// large), preserving all held state — used when on-line admission
    /// splices a tenant that declares its own accelerators.
    pub fn grow_to(&mut self, count: usize) {
        if count > self.states.len() {
            self.states.resize(count, AccelState { holder: None });
        }
    }

    /// `true` if `accel` is currently free.
    #[must_use]
    pub fn is_free(&self, accel: AccelId) -> bool {
        self.states
            .get(accel.index())
            .is_some_and(|s| s.holder.is_none())
    }

    /// The holder of `accel`, if busy.
    #[must_use]
    pub fn holder(&self, accel: AccelId) -> Option<AccelHolder> {
        self.states.get(accel.index()).and_then(|s| s.holder)
    }

    /// Marks `accel` as acquired by `job` on `worker`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownAccel`] for an undeclared id; returns an error of
    /// kind [`Error::InvalidConfig`] if the accelerator is already busy
    /// (an engine invariant violation).
    pub fn acquire(&mut self, accel: AccelId, job: JobId, worker: WorkerId) -> Result<()> {
        let s = self
            .states
            .get_mut(accel.index())
            .ok_or(Error::UnknownAccel(accel))?;
        if s.holder.is_some() {
            return Err(Error::InvalidConfig(format!(
                "accelerator {accel} acquired while busy"
            )));
        }
        s.holder = Some(AccelHolder { job, worker });
        Ok(())
    }

    /// Releases `accel` if `job` holds it (idempotent otherwise).
    pub fn release(&mut self, accel: AccelId, job: JobId) {
        if let Some(s) = self.states.get_mut(accel.index()) {
            if s.holder.is_some_and(|h| h.job == job) {
                s.holder = None;
            }
        }
    }

    /// Priority inheritance: the holder of `accel`, to be boosted to
    /// `blocked_priority` when that is more urgent than the holder's
    /// effective priority as `effective` reads it (the engine's fold for
    /// the holder's slot). `None` for a free accelerator or a holder at
    /// least as urgent.
    pub fn boost_holder(
        &self,
        accel: AccelId,
        blocked_priority: Priority,
        effective: impl FnOnce(AccelHolder) -> Priority,
    ) -> Option<AccelHolder> {
        let h = self.holder(accel)?;
        blocked_priority.is_higher_than(effective(h)).then_some(h)
    }

    /// Number of managed accelerators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if no accelerators are declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut m = AccelManager::new(1);
        let gpu = AccelId::new(0);
        assert!(m.is_free(gpu));
        m.acquire(gpu, JobId::new(1), WorkerId::new(0)).unwrap();
        assert!(!m.is_free(gpu));
        assert_eq!(m.holder(gpu).unwrap().job, JobId::new(1));
        // Double acquire is an invariant violation.
        assert!(m.acquire(gpu, JobId::new(2), WorkerId::new(1)).is_err());
        // Release by a non-holder is ignored.
        m.release(gpu, JobId::new(2));
        assert!(!m.is_free(gpu));
        m.release(gpu, JobId::new(1));
        assert!(m.is_free(gpu));
    }

    #[test]
    fn unknown_accel_rejected() {
        let mut m = AccelManager::new(1);
        assert!(matches!(
            m.acquire(AccelId::new(9), JobId::new(1), WorkerId::new(0)),
            Err(Error::UnknownAccel(_))
        ));
        assert!(!m.is_free(AccelId::new(9)));
    }

    #[test]
    fn pip_boost_only_when_more_urgent() {
        let mut m = AccelManager::new(1);
        let gpu = AccelId::new(0);
        m.acquire(gpu, JobId::new(1), WorkerId::new(0)).unwrap();
        let holder = m.holder(gpu);
        // A less urgent waiter does not boost.
        assert!(m
            .boost_holder(gpu, Priority::new(200), |_| Priority::new(100))
            .is_none());
        // A more urgent waiter boosts the holder.
        let boosted = m.boost_holder(gpu, Priority::new(10), |_| Priority::new(100));
        assert_eq!(boosted, holder);
        // Once boosted, an in-between priority does nothing: the
        // comparison is against what the engine folded.
        assert!(m
            .boost_holder(gpu, Priority::new(50), |_| Priority::new(10))
            .is_none());
    }

    #[test]
    fn boost_free_accel_is_none() {
        let m = AccelManager::new(2);
        let never = |_| unreachable!("no holder to read");
        assert!(m
            .boost_holder(AccelId::new(1), Priority::HIGHEST, never)
            .is_none());
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
