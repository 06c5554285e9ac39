//! # yasmin-rt
//!
//! The real-thread POSIX runtime of YASMIN: a dedicated scheduler thread
//! driving the shared scheduling engine at the gcd tick, worker threads
//! ("virtual CPUs") pinned to cores executing registered task bodies, and
//! the OS plumbing the paper relies on (affinity, `mlockall`,
//! `SCHED_FIFO`).
//!
//! * [`runtime`] — [`runtime::RuntimeBuilder`] / [`runtime::Runtime`],
//!   mirroring the paper's `init`/`start`/`stop`/`cleanup` lifecycle;
//! * [`sharded`] — the per-core sharded runtime: one thread per shard,
//!   scheduler and worker at once, each owning an independent engine
//!   shard fed through the lock-free command mailbox (partitioned
//!   mapping);
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
