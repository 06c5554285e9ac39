//! # yasmin-rt
//!
//! The real-thread POSIX runtime of YASMIN: owner threads driving the
//! scheduling engine at the gcd tick and executing registered task
//! bodies — themselves, or on pinned helper threads ("virtual CPUs") —
//! and the OS plumbing the paper relies on (affinity, `mlockall`,
//! `SCHED_FIFO`).
//!
//! * [`runtime`] — [`runtime::RuntimeBuilder`] / [`runtime::Runtime`],
//!   mirroring the paper's `init`/`start`/`stop`/`cleanup` lifecycle:
//!   one owner over the whole engine, which runs the bodies itself with
//!   one worker and feeds a helper thread per worker with more;
//! * [`sharded`] — the per-core sharded runtime (partitioned mapping):
//!   one owner per shard, scheduler and worker at once, fed through the
//!   lock-free command mailbox — and the owner loop both runtimes run;
//! * [`os`] — best-effort real-time OS setup (feature `os-rt`, on by
//!   default; degrades gracefully in unprivileged containers).

#![warn(missing_docs)]

pub mod os;
pub mod runtime;
pub mod sharded;
#[cfg(test)]
mod test_util;

pub use runtime::{JobCtx, RtJobRecord, Runtime, RuntimeBuilder, RuntimeReport, TaskBody};
pub use sharded::{ShardedRuntime, ShardedRuntimeBuilder};
