//! # yasmin-analysis
//!
//! Schedulability analysis companions to the YASMIN middleware:
//!
//! * [`row`] — the analysis row every test below runs over: one
//!   task's priority, WCET, effective period and deadline, partition
//!   and blocking term;
//! * [`util`] — utilisation tests: Liu & Layland (RM), the hyperbolic
//!   bound (RM/DM), `U ≤ 1` (EDF), Goossens-Funk-Baruah (global EDF);
//! * [`rta`] — fixed-priority response-time analysis (uniprocessor and
//!   partitioned);
//! * [`edf`] — exact uniprocessor EDF via processor-demand analysis;
//! * [`dag`] — Graham makespan bounds for DAG task graphs;
//! * [`blocking`] — PIP blocking terms from accelerator sections, folded
//!   into a blocking-aware RTA (§3.2 meets Rajkumar's bound).
//!
//! These are used by the experiment harness (to pick interesting
//! utilisation levels) and cross-validated against the simulator in the
//! integration tests: whenever an analysis deems a set schedulable, the
//! simulator must observe zero deadline misses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod dag;
pub mod edf;
pub mod row;
pub mod rta;
pub mod util;

pub use blocking::{
    blocking_term, blocking_terms, extend_sections, response_times_blocking, Section,
};
pub use dag::{critical_path, dag_meets_deadline, graham_bound, volume};
pub use edf::{demand_bound, edf_schedulable, edf_schedulable_rows};
pub use row::{extend_rows, Placement, Row};
pub use rta::{response_times, schedulable, ResponseTime, Rta};
pub use util::{
    edf_utilisation_test, gfb_global_edf_test, gfb_rows, hyperbolic_bound, liu_layland_bound,
    max_utilisation, max_utilisation_rows, rm_utilisation_test, total_utilisation,
    total_utilisation_rows, WcetAssumption,
};
