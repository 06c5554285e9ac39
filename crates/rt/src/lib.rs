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
//!   decides what comes up: one owner over the whole engine, or, with
//!   `Config::sharded_dispatch`, one owner per shard;
//! * [`owner`] — the owner as a step machine (`Owner::step`), the
//!   thread shell that drives it and the mailbox lanes that feed it; a
//!   second shell in its tests steps the same owners on one thread in
//!   virtual time. Also the aliases [`owner::ShardedRuntime`] /
//!   [`owner::ShardedRuntimeBuilder`] of the two types above (they go
//!   at the next benchmark re-baseline);
//! * [`os`] — best-effort real-time OS setup (feature `os-rt`, on by
//!   default; degrades gracefully in unprivileged containers).

#![warn(missing_docs)]

pub mod os;
pub mod owner;
pub mod runtime;
#[cfg(test)]
mod test_util;

pub use owner::{ShardedRuntime, ShardedRuntimeBuilder};
pub use runtime::{
    JobCtx, RtJobRecord, Runtime, RuntimeBuilder, RuntimeReport, StealStats, TaskBody, TickStats,
};
