//! Reusable action buffers for the allocation-free dispatch path.
//!
//! Every engine entry point historically returned a fresh
//! `Vec<Action>`, which put one heap allocation (often more, after
//! growth) on every scheduler interaction — exactly the path whose
//! latency the paper's Figure 2 measures. An [`ActionSink`] is a
//! caller-owned buffer the engine appends into instead: the driver
//! clears and re-passes the same sink each interaction, so in steady
//! state the dispatch path performs no heap allocation at all.

use crate::engine::Action;

/// A reusable buffer of scheduling [`Action`]s.
///
/// The engine's `*_into` entry points **append** to the sink (they do
/// not clear it), so a driver may batch several engine calls into one
/// sink and apply the actions once. Call `clear` between interactions
/// to reuse the storage.
///
/// ## Batch-completion contract
///
/// `Input::Completed` retires **all** completions
/// of a burst before its single dispatch round, and the actions of
/// that round land in the sink **in one contiguous run** at the end:
/// every `Dispatch`/`Preempt`/`Boost` appended by the batch call
/// already accounts for the whole burst (freed workers, released
/// accelerators, fired DAG successors). A driver must therefore apply
/// a sink's actions only *after* the engine call that appended them
/// returns — never interleave application with further completions of
/// the same burst — and must not assume one action run per completion:
/// a batch of N completions may append anywhere from zero to more than
/// N actions, in selection order, not completion order.
pub type ActionSink = Vec<Action>;

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::ids::{JobId, WorkerId};

    #[test]
    fn push_clear_retains_capacity() {
        let mut s = ActionSink::with_capacity(4);
        s.push(Action::Preempt {
            worker: WorkerId::new(0),
            job: JobId::new(1),
        });
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let cap_ptr = s.as_slice().as_ptr();
        s.clear();
        assert!(s.is_empty());
        s.push(Action::Preempt {
            worker: WorkerId::new(1),
            job: JobId::new(2),
        });
        assert_eq!(s.as_slice().as_ptr(), cap_ptr, "storage reused");
    }

    #[test]
    fn drain_yields_in_order_and_retains_storage() {
        let mut s = ActionSink::new();
        for i in 0..3 {
            s.push(Action::Preempt {
                worker: WorkerId::new(i),
                job: JobId::new(u64::from(i)),
            });
        }
        let jobs: Vec<JobId> = s
            .drain(..)
            .map(|a| match a {
                Action::Preempt { job, .. } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![JobId::new(0), JobId::new(1), JobId::new(2)]);
        assert!(s.is_empty());
    }
}
