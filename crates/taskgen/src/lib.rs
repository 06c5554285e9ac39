//! # yasmin-taskgen
//!
//! Workload generation for the YASMIN evaluation:
//!
//! * [`mod@drs`] — the Dirichlet-Rescale utilisation generator the paper's
//!   Figure 2 experiment uses (Griffin, Bate & Davis 2020);
//! * [`periods`] — period grids, log-uniform periods, WCETs, deadlines;
//! * [`taskset`] — assembly into validated `TaskSet`s, including
//!   worst-fit-decreasing partitioning;
//! * [`dag`] — random layered DAGs for the graph-based task model;
//! * [`drone`] — the Search & Rescue drone application of §5/Figure 3b.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod drone;
pub mod drs;
pub mod periods;
pub mod taskset;

pub use dag::{build_dag, DagParams};
pub use drone::{DroneWorkload, VersionRestriction};
pub use drs::{drs, drs_bounded, DrsError};
pub use taskset::{
    assign_worst_fit, build_independent, build_partitioned, generate_params, GeneratedTask,
    IndependentSetParams,
};
