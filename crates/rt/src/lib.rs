//! # yasmin-rt
//!
//! The real-thread POSIX runtime of YASMIN: owner threads driving the
//! scheduling engine at the gcd tick and executing registered task
//! bodies — themselves, or on pinned helper threads ("virtual CPUs") —
//! and the OS plumbing the paper relies on (affinity, `mlockall`,
//! `SCHED_FIFO`).
//!
//! * [`runtime`] — the one builder and the one handle,
//!   [`runtime::RuntimeBuilder`] / [`runtime::Runtime`], mirroring the
//!   paper's `init`/`start`/`stop`/`cleanup` lifecycle. The `Config`
//!   decides what comes up: one owner over the whole engine — which
//!   runs the bodies itself with one worker and feeds a helper thread
//!   per worker with more — or, with `Config::sharded_dispatch`, one
//!   owner per shard, scheduler and worker at once;
//! * [`sharded`] — the owner loop all of them run, fed through the
//!   lock-free command mailbox, plus the aliases
//!   [`sharded::ShardedRuntime`] / [`sharded::ShardedRuntimeBuilder`]
//!   of the two types above (source compatibility; they go at the next
//!   benchmark re-baseline);
//! * [`os`] — best-effort real-time OS setup (feature `os-rt`, on by
//!   default; degrades gracefully in unprivileged containers).

#![warn(missing_docs)]

pub mod os;
pub mod runtime;
pub mod sharded;
#[cfg(test)]
mod test_util;

pub use runtime::{
    JobCtx, RtJobRecord, Runtime, RuntimeBuilder, RuntimeReport, StealStats, TaskBody, TickStats,
};
pub use sharded::{ShardedRuntime, ShardedRuntimeBuilder};
