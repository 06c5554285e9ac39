//! # yasmin-core
//!
//! Foundational types for **YASMIN** (*Yet Another Scheduling MIddleware
//! for exploratioN*), a user-space real-time middleware for COTS
//! heterogeneous platforms, reproduced from Rouxel, Altmeyer & Grelck
//! (Middleware 2021, arXiv:2108.00730).
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`time`] — nanosecond [`time::Instant`]/[`time::Duration`] newtypes,
//!   clocks, gcd/lcm (scheduler tick & hyperperiod);
//! * [`ids`] — typed identifiers (`TaskId`, `VersionId`, `AccelId`, …);
//! * [`task`] — sporadic/periodic/aperiodic tasks with implicit or
//!   constrained deadlines;
//! * [`version`] — multi-version tasks with per-version WCET, energy,
//!   accelerator binding and selection properties;
//! * [`graph`] — DAG task graphs with FIFO [`channel`]s and the
//!   declaration [`graph::TaskSetBuilder`] mirroring the paper's API;
//! * [`accel`] — hardware accelerator declarations;
//! * [`config`] — the middleware configuration (the paper's `config.h`);
//! * [`platform`] — COTS platform descriptions (Odroid-XU4, Apalis TK1);
//! * [`priority`] — priorities and assignment policies (RM/DM/EDF/user);
//! * [`energy`] — power/energy/battery quantities;
//! * [`stats`] — min/max/avg and percentile accumulators;
//! * [`error`] — the shared error type.
//!
//! # Example
//!
//! Declaring the paper's running example (a diamond graph with a
//! two-version task) and validating it:
//!
//! ```
//! use yasmin_core::graph::TaskSetBuilder;
//! use yasmin_core::task::TaskSpec;
//! use yasmin_core::time::Duration;
//! use yasmin_core::version::VersionSpec;
//! use yasmin_core::energy::Energy;
//!
//! # fn main() -> Result<(), yasmin_core::error::Error> {
//! let mut b = TaskSetBuilder::new();
//! let fork = b.task_decl(TaskSpec::periodic("fork", Duration::from_millis(250)))?;
//! let left = b.task_decl(TaskSpec::graph_node("left"))?;
//! let accel = b.hwaccel_decl("quantum_rand_num_generator");
//!
//! b.version_decl(fork, VersionSpec::new("fork", Duration::from_micros(50)))?;
//! b.version_decl(left, VersionSpec::new("left_v1", Duration::from_micros(80))
//!     .with_energy_budget(Energy::from_millijoules(5)))?;
//! let lv2 = b.version_decl(left, VersionSpec::new("left_v2", Duration::from_micros(30))
//!     .with_energy_budget(Energy::from_millijoules(12)))?;
//! b.hwaccel_use(left, lv2, accel)?;
//!
//! let ch = b.channel_decl("fl", 1, 4);
//! b.channel_connect(fork, left, ch)?;
//! let set = b.build()?;
//! assert_eq!(set.task(left)?.versions().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod channel;
pub mod config;
pub mod energy;
pub mod error;
pub mod graph;
pub mod ids;
pub mod platform;
pub mod priority;
pub mod stats;
pub mod task;
pub mod time;
pub mod version;

pub use config::Config;
pub use error::{Error, Result};
pub use graph::{TaskSet, TaskSetBuilder};
pub use ids::{AccelId, ChannelId, CoreId, JobId, TaskId, VersionId, WorkerId};
pub use task::{ActivationKind, DeadlineKind, Task, TaskSpec};
pub use version::VersionSpec;
