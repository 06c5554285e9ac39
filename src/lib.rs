//! # YASMIN — Yet Another Scheduling MIddleware for exploratioN
//!
//! A Rust reproduction of *"YASMIN: a Real-time Middleware for COTS
//! Heterogeneous Platforms"* (Rouxel, Altmeyer & Grelck, Middleware 2021,
//! arXiv:2108.00730): user-space real-time scheduling with multi-version
//! tasks, hardware-accelerator arbitration, global/partitioned on-line
//! scheduling, off-line time tables, DAG task graphs with FIFO channels —
//! plus the simulator, baselines and analysis used to regenerate every
//! table and figure of the paper's evaluation.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | task model, versions, graphs, config, platforms, time |
//! | [`sched`] | the scheduling engine (online G/P, offline tables, version selection, PIP, typed priority message plane) |
//! | [`rt`] | real-thread runtime: one builder, one handle; the `Config` picks one owner thread over the whole engine or one per shard |
//! | [`sim`] | discrete-event simulator (heterogeneous platforms, kernel latency models) |
//! | [`sync`] | SPSC rings, MPSC mailbox, doorbell, load board, shelf, wait strategies |
//! | [`taskgen`] | DRS generators, DAGs, the drone SAR workload |
//! | [`analysis`] | RTA, EDF demand bound, G-EDF tests, DAG bounds |
//! | [`baselines`] | Mollison & Anderson library, cyclictest, stress-ng analogue |
//! | [`mod@bench`] | experiment harness for the paper's figures and tables |
//!
//! ## Quick start
//!
//! Declare tasks (the paper's Table 1 API, rustified), build a runtime,
//! run:
//!
//! ```
//! use std::sync::Arc;
//! use yasmin::prelude::*;
//!
//! # fn main() -> Result<(), yasmin::Error> {
//! let mut b = TaskSetBuilder::new();
//! let tick = b.task_decl(TaskSpec::periodic("tick", Duration::from_millis(5)))?;
//! let v = b.version_decl(tick, VersionSpec::new("v0", Duration::from_micros(50)))?;
//! let taskset = Arc::new(b.build()?);
//!
//! let config = Config::builder()
//!     .workers(1)
//!     .priority(PriorityPolicy::EarliestDeadlineFirst)
//!     .preemption(false) // thread runtime is job-level non-preemptive
//!     .build()?;
//!
//! let rt = RuntimeBuilder::new(taskset, config)
//!     .body(tick, v, |ctx| { let _ = ctx.job.seq; })
//!     .build()?;
//! std::thread::sleep(std::time::Duration::from_millis(25));
//! rt.stop();
//! let report = rt.cleanup();
//! assert!(report.records.len() >= 2);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the paper's diamond-graph listing, the drone SAR
//! application, off-line table scheduling and a host cyclictest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use yasmin_analysis as analysis;
pub use yasmin_baselines as baselines;
pub use yasmin_bench as bench;
pub use yasmin_core as core;
pub use yasmin_rt as rt;
pub use yasmin_sched as sched;
pub use yasmin_sim as sim;
pub use yasmin_sync as sync;
pub use yasmin_taskgen as taskgen;

pub use yasmin_core::{Error, Result};

/// The most common imports in one place.
pub mod prelude {
    pub use yasmin_core::channel::BackpressurePolicy;
    pub use yasmin_core::config::{Config, MappingScheme, VersionPolicy, WaitChoice};
    pub use yasmin_core::energy::{BatteryLevel, Energy, Power};
    pub use yasmin_core::graph::{TaskSet, TaskSetBuilder};
    pub use yasmin_core::ids::{AccelId, ChannelId, JobId, TaskId, TenantId, VersionId, WorkerId};
    pub use yasmin_core::platform::PlatformSpec;
    pub use yasmin_core::priority::{Priority, PriorityPolicy};
    pub use yasmin_core::task::{ActivationKind, DeadlineKind, OverrunPolicy, TaskSpec};
    pub use yasmin_core::time::{Duration, Instant};
    pub use yasmin_core::version::{ExecMode, ModeMask, PermMask, VersionProps, VersionSpec};
    pub use yasmin_rt::{JobCtx, Runtime, RuntimeBuilder, TaskBody};
    // Aliases of the two above, for sources written against two runtimes
    // (the frozen `benchmark/`, which also calls the eleven deprecated
    // engine entry points kept at the end of `impl OnlineEngine`); they
    // go when it is re-baselined onto `OnlineEngine::apply`.
    pub use yasmin_rt::{ShardedRuntime, ShardedRuntimeBuilder};
    pub use yasmin_sched::{
        AdmissionControl, AdmissionError, BoundViolation, ChannelBuilder, JobOutcome, MsgEvent,
        MsgNotify, NotifyHandle, OnlineEngine, Receiver, ScheduleTable, SendError, Sender,
        TenantBudget, TenantLedger,
    };
    pub use yasmin_sim::{SimConfig, Simulation};
}
