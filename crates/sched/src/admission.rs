//! On-line admission control: multi-tenant serving for a running
//! schedule.
//!
//! The paper fixes the task set before `yas_start` ("it is only possible
//! to alter the task set while the schedule is not running", §3.1). A
//! middleware serving many independent applications cannot stop the
//! world to take one more on board, so this module adds the missing
//! piece: an arriving *tenant* — an independently-declared
//! [`TaskSet`] — is schedulability-checked against the live
//! system with the `yasmin_analysis` bounds, and only on acceptance is
//! it spliced into the running engine(s). Rejections are structured: the
//! caller learns *which* analysis bound failed and by how much
//! ([`BoundViolation`]), not just "no".
//!
//! # Tenancy model
//!
//! **A tenant is a task-set namespace.** Each tenant declares its tasks,
//! versions, accelerators and channels against its own id space starting
//! at zero, exactly as if it were the only application. At admission the
//! tenant's set is written into a **slot** of the next merged set
//! ([`TaskSet::place`]): the id ranges — tasks, edges, channels,
//! accelerators — of a retired tenant of the same *shape*
//! ([`TaskSet::fits`]: as many tasks, edges, channels and accelerators,
//! and for each task as many versions on the same worker), or, when no
//! free slot has its shape, the end of the set ([`TaskSet::extended`]).
//! Every other id is unchanged, and the tenant's ids are offset into the
//! merged space (its `T0` becomes `T<first>`, the slot's first task).
//! Consequences:
//!
//! * **Isolation by construction** — no edges ever cross tenants, so a
//!   tenant's DAG tokens, joins and completions cannot touch another
//!   tenant's activation state. Accelerators are likewise *not* shared
//!   across tenants: a tenant wanting a GPU declares its own, which maps
//!   to its own arbitration slot.
//! * **Ids are stable for a tenant's lifetime** — a live tenant's ids
//!   never move, and the hot path indexes dense per-task vectors without
//!   indirection. A retired tenant's slot goes to the next tenant of its
//!   shape, whose tables the engines overwrite in place, so every
//!   structure kept per task, edge, channel, accelerator or version is
//!   bounded by the most tenants of each shape ever live at once, not by
//!   how many were ever admitted. [`TenantId`]s are never reused; a task
//!   id is, and [`TenantLedger::first_task`] says where a live tenant's
//!   tasks are.
//! * **The analysis forgets.** The schedulability tests run on the
//!   *live* tenants only — the build-time set plus every admitted tenant
//!   not yet retired — so a retired tenant's bandwidth is available to
//!   the next candidate and an admission costs what the live system
//!   costs, not what its history does. One residue: up to `workers` jobs
//!   of a retired tenant that were already executing may still finish
//!   after the retirement is acknowledged — also once its slot has a
//!   new holder ([`crate::tenancy`] says how the engine tells them
//!   apart). That interference is one-shot and bounded by one
//!   job per worker — the same class as the non-preemptive blocking the
//!   analysis already leaves out.
//! * **Tenant 0 is the task set the engine was built with.** It is never
//!   budgeted and cannot be retired (stop the schedule instead).
//!
//! **Budgets.** An admitted tenant may carry a [`TenantBudget`], which
//! the engine turns into a [`ReservationServer`]
//! (a deferrable server in the Ghazalie & Baker sense, anchored at the
//! admission instant). Every dispatch of one of the tenant's jobs
//! charges the *selected version's WCET* against the server,
//! all-or-nothing: a job that does not fit in the remaining budget is
//! deferred to a later dispatch round — never dropped — and counted in
//! [`EngineStats::budget_deferrals`]. Charges
//! are not refunded on early completion, so the reservation is
//! conservative. Under sharded scheduling each shard holds its own
//! replica of the server: the budget is then a *per-worker* guarantee,
//! and a tenant spanning `k` shards may consume up to `k × capacity`
//! per period in total.
//!
//! # One owner of tenant state
//!
//! Every driver — the single-owner and the sharded thread runtime, the
//! simulator — keeps its tenants in a [`TenantLedger`]: the merged set
//! its engines splice, its slots and who holds each, the next tenant id,
//! and a flat table of analysis rows ([`yasmin_analysis::Row`]) for the
//! live tenants only. A row holds what every test reads of one task —
//! merged id, worker, static priority, largest-version WCET, effective
//! period and deadline, PIP blocking term — derived once, when its
//! tenant is admitted ([`yasmin_analysis::extend_rows`] with the
//! tenant's first task as offset); the rows sit in merged-id order, so
//! priority ties break as they do in the merged id space. The table is
//! built by the first admission (building a driver costs nothing).
//! [`TenantLedger::admit`] picks the candidate's slot, inserts its rows
//! at the slot's position, runs the test battery over all of them, hands
//! the driver the merged set with the candidate in that slot and keeps
//! the rows only if the splice succeeded; [`TenantLedger::retire`] frees
//! the slot and deletes the tenant's row range. A refusal names merged
//! ids directly: the rows carry them. No task set of the live tenants is
//! ever built. [`AdmissionControl::evaluate`] itself is the stateless
//! gate — the same battery over the rows of `current ⊕ candidate`, every
//! one of them live.
//!
//! The ledger's slots and who holds each are a [`crate::tenancy`]
//! table, the kind every engine keeps too, so which tenant may retire
//! and which ids are retired or unknown are stated there once; an
//! engine's table also keeps what its holder verdict reads.
//!
//! The blocking term is recomputed over the whole table at each check
//! on the blocking path, from the accelerator sections of the live
//! tenants and the candidate ([`yasmin_analysis::extend_sections`]):
//! accelerators are not shared across tenants, but PIP's push-through
//! blocking is — a lower-priority task of one tenant that holds an
//! accelerator a more urgent task of its own may want delays every task
//! in between, whichever tenant it belongs to. Where no tenant ever
//! admitted and not the candidate declares an accelerator, there are no
//! sections and every term stays the zero it was built with: the check
//! skips them.
//!
//! Every admission writes the candidate into the next merged set, and
//! the ledger then holds that set only. [`TenantLedger::admit`] makes it
//! as a copy of the current one ([`TaskSet::placed`]), which costs one
//! copy of the live tenants' entities: the simulator admits so. A
//! driver whose engines let go of the old set on real-time threads (the
//! thread runtime's) keeps the sets it replaced until they have, so
//! that no `free` of a task, version vector or adjacency list runs
//! there — and hands one back once nobody else holds it
//! ([`TenantLedger::admit_reusing`]): the ledger keeps the slot each
//! admission wrote since the last set handed back, copies those slots
//! into it from the current set ([`TaskSet::copy_slot`]), then writes
//! the candidate. That costs the tenants written since, not the merged
//! set: in a steady churn one tenant's slot, and no allocation
//! (`tests/zero_alloc.rs`). Without a set to hand back — the first
//! admissions, or every set still held — it copies as `admit` does.
//!
//! # The admission state machine
//!
//! ```text
//!            evaluate()                 splice                commit
//! Arriving ─────────────▶ Checked ─────────────▶ Spliced ─────────────▶ Committed
//!     │                                                                    │
//!     │ BoundViolation                                                     │ retire
//!     ▼                                                                    ▼
//! Rejected (structured refusal)                                         Retired
//! ```
//!
//! * **Checked** — the analysis ran over the rows of the live tenants
//!   and the candidate ([`TenantLedger::admit`]), or of a whole set
//!   ([`AdmissionControl::evaluate`]), on the caller's thread. This is
//!   deliberately a non-real-time operation: the EDF demand test
//!   collects its check points, the DAG bound walks the candidate's
//!   graphs, and the RTA iterates every row of a partition to its fixed
//!   point — unless the partition passes the hyperbolic bound
//!   ([`yasmin_analysis::hyperbolic_bound`]: DM, or RM with `D = T`,
//!   every row recurring with `D ≤ T` and no blocking), which proves in
//!   one pass over the rows what the RTA would find. The bound is
//!   sufficient only, so where it fails the RTA decides as before: no
//!   verdict and no refusal changes. Drivers run the check on an
//!   admission thread, never on a scheduler thread.
//! * **Spliced** — every engine (the single [`OnlineEngine`], or each
//!   shard's) adopted the merged set and installed the tenant in its
//!   slot via [`Input::Install`](crate::Input::Install) with the tenant's
//!   releases still disarmed. The splice command travels the same control
//!   mailbox lane as every other command, so it serialises with the hot
//!   path instead of locking it.
//! * **Committed** — [`Input::Commit`](crate::Input::Commit) (or
//!   [`Input::Commit`](crate::Input::Commit), which leaves the release to the
//!   next round) armed the tenant's periodic roots. Two-phase matters
//!   under sharding: commit is sent only after *every* shard
//!   acknowledged its splice, so no shard can complete a tenant job and
//!   route a cross-shard token to a shard that has never heard of the
//!   edge. A single engine has nobody to wait for: the thread runtime
//!   sends it one command that splices and commits, without waking its
//!   owner — the commit anchors at the owner's next tick edge, where its
//!   timed park ends and it drains its mailbox ahead of the tick round.
//! * **Retired** — [`Input::Retire`](crate::Input::Retire) quiesced the
//!   tenant: future releases disarmed, ready jobs culled, pending DAG
//!   tokens dropped, late cross-shard tokens silently discarded.
//!   In-flight jobs finish normally (their completions are the tenant's
//!   last trace) but fire no successors. The slot is free for the next
//!   tenant of its shape.
//!
//! # What is (and is not) guaranteed during splice-in
//!
//! * Existing tenants' scheduling is **bit-identical** to a run without
//!   the admission until the commit instant, and unperturbed after it
//!   as long as the admission test held (the deterministic-simulator
//!   parity test asserts the partitioned case exactly).
//! * The new tenant's first release is **exact in nominal time** —
//!   `release anchor + release_offset` — but its *dispatch* happens at
//!   the engine's tick granularity, and the tick is **fixed at build
//!   time** (gcd of the initial periods, §3.3). The engine therefore
//!   refuses tenants whose periods are not multiples of the running
//!   tick, rather than silently drifting their releases. The release
//!   anchor is the commit instant for exact event-driven drivers (the
//!   simulator); a driver dispatching on a fixed tick grid (the thread
//!   runtimes) instead anchors at its **next tick edge**
//!   ([`Input::Commit`](crate::Input::Commit)), because an off-grid release
//!   phase would delay every dispatch of the tenant by up to one tick —
//!   enough to sink a deadline equal to the period.
//! * Admission analysis assumes worst-case (largest) version WCETs
//!   ([`WcetAssumption::MaxVersion`]); run-time version selection can
//!   only do better.
//! * Splicing at the set's end allocates (the engine's dense vectors
//!   grow); installing a tenant in a free slot of its shape overwrites
//!   the slot's entries in their own storage and allocates nothing.
//!   Admission is a control-path event; the steady state between
//!   admissions stays allocation-free, and so does a churn of tenants
//!   of one shape, which `tests/zero_alloc.rs` asserts with a counting
//!   allocator.
//!
//! [`EngineStats::budget_deferrals`]: crate::engine::EngineStats::budget_deferrals
//! [`ReservationServer`]: crate::server::ReservationServer
//! [`TaskSet::extended`]: yasmin_core::graph::TaskSet::extended
//! [`TaskSet::placed`]: yasmin_core::graph::TaskSet::placed
//! [`TaskSet::place`]: yasmin_core::graph::TaskSet::place
//! [`TaskSet::copy_slot`]: yasmin_core::graph::TaskSet::copy_slot
//! [`TaskSet::fits`]: yasmin_core::graph::TaskSet::fits
//! [`TenantId`]: yasmin_core::ids::TenantId

use crate::engine::OnlineEngine;
use crate::server::TenantBudget;
use crate::tenancy::{check_fit, slot_past, SlotTable};
use std::fmt;
use std::sync::Arc;
use yasmin_analysis::{
    blocking_terms, dag_meets_deadline, edf_schedulable_rows, extend_rows, extend_sections,
    gfb_rows, graham_bound, hyperbolic_bound, max_utilisation_rows, total_utilisation_rows,
    Placement, Row, Rta, WcetAssumption,
};
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::error::Error;
use yasmin_core::graph::{Slot, TaskSet};
use yasmin_core::ids::{TaskId, TenantId, WorkerId};
use yasmin_core::time::Duration;

/// Float-comparison slack for utilisation/density sums.
const EPS: f64 = 1e-9;

/// Every admission test assumes the largest WCET over a task's versions.
const ASSUMED: WcetAssumption = WcetAssumption::MaxVersion;

/// The analysis bound a rejected tenant violated, with the numbers that
/// failed it — the structured half of the refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundViolation {
    /// Total utilisation exceeds the platform capacity (`m` processors,
    /// or 1 for a single core / one partition).
    TotalUtilisation {
        /// Achieved `Σ C_i / T_i` of the merged set.
        total: f64,
        /// The capacity it must not exceed.
        capacity: f64,
    },
    /// The GFB sufficient test for global EDF failed:
    /// `U > m − (m−1)·U_max`.
    GfbDensity {
        /// Total utilisation of the merged set.
        total: f64,
        /// The GFB bound `m − (m−1)·U_max` it exceeded.
        bound: f64,
    },
    /// The EDF processor-demand criterion found an interval whose demand
    /// exceeds its length (single core).
    EdfDemand {
        /// Total utilisation of the merged set (≤ 1, or the failure
        /// would be [`BoundViolation::TotalUtilisation`]).
        total: f64,
    },
    /// Response-time analysis proved a task misses its deadline.
    TaskUnschedulable {
        /// The offending task (merged id space).
        task: TaskId,
        /// Its computed WCRT; `None` if the fixed point diverged past
        /// the deadline.
        wcrt: Option<Duration>,
        /// The deadline it misses.
        deadline: Duration,
    },
    /// One partition's density `Σ C_i / min(D_i, T_i)` exceeds its core
    /// (partitioned EDF).
    WorkerOverload {
        /// The overloaded worker.
        worker: WorkerId,
        /// Its density.
        density: f64,
    },
    /// Graham's bound proves a DAG cannot meet its graph deadline on the
    /// platform.
    DagDeadline {
        /// The DAG's root (merged id space).
        root: TaskId,
        /// The Graham makespan bound.
        bound: Duration,
        /// The graph deadline it exceeds.
        deadline: Duration,
    },
    /// The requested [`TenantBudget`] reserves less bandwidth than the
    /// tenant's own tasks demand — the reservation would starve the
    /// tenant it protects.
    BudgetInsufficient {
        /// The tenant's task utilisation `Σ C_i / T_i`.
        tenant_utilisation: f64,
        /// The budget's utilisation `capacity / period`.
        budget_utilisation: f64,
    },
}

impl fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundViolation::TotalUtilisation { total, capacity } => {
                write!(
                    f,
                    "total utilisation {total:.4} exceeds capacity {capacity:.4}"
                )
            }
            BoundViolation::GfbDensity { total, bound } => {
                write!(f, "global-EDF GFB test failed: U = {total:.4} > {bound:.4}")
            }
            BoundViolation::EdfDemand { total } => {
                write!(f, "EDF demand bound exceeded (U = {total:.4})")
            }
            BoundViolation::TaskUnschedulable {
                task,
                wcrt,
                deadline,
            } => match wcrt {
                Some(r) => write!(f, "task {task} WCRT {r:?} exceeds deadline {deadline:?}"),
                None => write!(f, "task {task} RTA diverged past deadline {deadline:?}"),
            },
            BoundViolation::WorkerOverload { worker, density } => {
                write!(f, "worker {worker} density {density:.4} exceeds 1")
            }
            BoundViolation::DagDeadline {
                root,
                bound,
                deadline,
            } => write!(
                f,
                "DAG rooted at {root}: Graham bound {bound:?} exceeds deadline {deadline:?}"
            ),
            BoundViolation::BudgetInsufficient {
                tenant_utilisation,
                budget_utilisation,
            } => write!(
                f,
                "budget utilisation {budget_utilisation:.4} is below the tenant's \
                 task utilisation {tenant_utilisation:.4}"
            ),
        }
    }
}

/// Why an admission request did not go through: a schedulability
/// refusal carrying the violated bound, or a malformed request.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The analysis rejected the tenant; the system keeps its current
    /// guarantees and the candidate is not spliced.
    Rejected(BoundViolation),
    /// The request itself is invalid (partition violations, incompatible
    /// tick, missing bodies, id overflow, …) — admission never reached
    /// the analysis.
    Invalid(Error),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Rejected(v) => write!(f, "tenant rejected: {v}"),
            AdmissionError::Invalid(e) => write!(f, "admission request invalid: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl From<Error> for AdmissionError {
    fn from(e: Error) -> Self {
        AdmissionError::Invalid(e)
    }
}

impl From<AdmissionError> for Error {
    fn from(e: AdmissionError) -> Self {
        match e {
            AdmissionError::Rejected(v) => Error::AdmissionRejected(v.to_string()),
            AdmissionError::Invalid(inner) => inner,
        }
    }
}

/// The admission-time schedulability gate.
///
/// Holds the scheduling [`Config`] and the running engine's (fixed)
/// tick, and evaluates candidate tenants against the live task set. The
/// test battery follows the configuration:
///
/// | mapping | priorities | test |
/// |---|---|---|
/// | partitioned (incl. sharded) | static (RM/DM/user) | per-partition RTA, skipped where the hyperbolic bound holds |
/// | partitioned (incl. sharded) | EDF | per-partition density `Σ C/min(D,T) ≤ 1` |
/// | global, 1 worker | static | RTA, with the PIP blocking term when accelerators are declared; skipped where the hyperbolic bound holds |
/// | global, 1 worker | EDF | utilisation + processor-demand criterion |
/// | global, m workers | EDF | `U ≤ m` + the GFB test `U ≤ m − (m−1)·U_max` |
/// | global, m workers | static | refused — no sound test is implemented |
///
/// On top of the mapping test, every multi-task DAG of the candidate
/// with a finite graph deadline must pass Graham's bound on the
/// configured worker count, and a [`TenantBudget`], when requested,
/// must cover the tenant's own utilisation.
///
/// All tests assume [`WcetAssumption::MaxVersion`] — the largest WCET
/// over each task's versions — so run-time multi-version selection can
/// only improve on the admitted guarantees.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    config: Config,
    tick: Duration,
}

impl AdmissionControl {
    /// An admission gate for a system running under `config` with the
    /// scheduler tick `tick` (see
    /// [`OnlineEngine::tick_period`]).
    #[must_use]
    pub fn new(config: Config, tick: Duration) -> Self {
        AdmissionControl { config, tick }
    }

    /// Convenience constructor reading both from a live engine.
    #[must_use]
    pub fn for_engine(engine: &OnlineEngine) -> Self {
        AdmissionControl::new(engine.config().clone(), engine.tick_period())
    }

    /// The configuration this gate admits against.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The running scheduler tick admitted periods must divide into.
    #[must_use]
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// Evaluates admitting `candidate` (a tenant declared in its own id
    /// space) into the live set `current`, with an optional budget
    /// request. Returns the merged task set — ready for
    /// [`Input::Install`](crate::Input::Install) — on acceptance.
    ///
    /// Every task of `current` counts as live. A schedule that retires
    /// tenants admits through a [`TenantLedger`], which runs the same
    /// tests on the rows of its live tenants.
    ///
    /// Runs on the caller's thread and allocates freely: call it from an
    /// admission thread, never a scheduler thread.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Invalid`] for malformed requests (empty
    /// candidate, partition violations, a period that is not a multiple
    /// of the running tick, degenerate budget);
    /// [`AdmissionError::Rejected`] with the violated
    /// [`BoundViolation`] when the analysis fails.
    pub fn evaluate(
        &self,
        current: &TaskSet,
        candidate: &TaskSet,
        budget: Option<&TenantBudget>,
    ) -> Result<Arc<TaskSet>, AdmissionError> {
        self.validate(candidate, budget)?;
        let merged = current.extended(candidate)?;
        let mut rows = Vec::with_capacity(merged.len());
        self.extend_rows(&mut rows, current, 0);
        self.extend_rows(&mut rows, candidate, current.len() as u32);
        let (slot, cand) = (current.end_slot(candidate), current.len()..merged.len());
        self.check(&mut rows, cand, current, candidate, slot, budget)?;
        Ok(Arc::new(merged))
    }

    /// The request's shape, before any analysis.
    fn validate(
        &self,
        candidate: &TaskSet,
        budget: Option<&TenantBudget>,
    ) -> Result<(), AdmissionError> {
        if candidate.is_empty() {
            return Err(AdmissionError::Invalid(Error::InvalidConfig(
                "candidate tenant declares no tasks".into(),
            )));
        }
        if let Some(b) = budget {
            if b.capacity.is_zero() || b.period.is_zero() || b.capacity > b.period {
                return Err(AdmissionError::Invalid(Error::InvalidConfig(
                    "tenant budget needs 0 < capacity <= period".into(),
                )));
            }
        }
        let all = 0..candidate.len();
        Ok(check_fit(candidate, all, &self.config, Some(self.tick))?)
    }

    /// Appends the rows of every task of `ts`, their ids offset by
    /// `offset`: each on its assigned worker under partitioned mapping,
    /// all on one core under global mapping.
    fn extend_rows(&self, rows: &mut Vec<Row>, ts: &TaskSet, offset: u32) {
        let placement = match self.config.mapping() {
            MappingScheme::Partitioned => Placement::Assigned,
            MappingScheme::Global => Placement::OneCore,
        };
        extend_rows(rows, ts, offset, self.config.priority(), ASSUMED, placement);
    }

    /// The test battery over `rows`: the rows of the live tasks, all
    /// found in `current` by their ids, with the candidate's — written
    /// into `slot` of `current` — at `cand`.
    fn check(
        &self,
        rows: &mut [Row],
        cand: std::ops::Range<usize>,
        current: &TaskSet,
        candidate: &TaskSet,
        slot: Slot,
        budget: Option<&TenantBudget>,
    ) -> Result<(), AdmissionError> {
        if let Some(b) = budget {
            let tenant_util = total_utilisation_rows(&rows[cand.clone()]);
            if tenant_util > b.utilisation() + EPS {
                return Err(AdmissionError::Rejected(
                    BoundViolation::BudgetInsufficient {
                        tenant_utilisation: tenant_util,
                        budget_utilisation: b.utilisation(),
                    },
                ));
            }
        }
        match (self.config.mapping(), self.config.priority().is_static()) {
            (MappingScheme::Partitioned, true) => self.check_rta(rows)?,
            (MappingScheme::Partitioned, false) => self.check_partitioned_edf(rows)?,
            (MappingScheme::Global, true) => {
                if self.config.workers() > 1 {
                    return Err(AdmissionError::Invalid(Error::InvalidConfig(
                        "no admission test implemented for global static priorities on \
                         multiple workers"
                            .into(),
                    )));
                }
                // Every check: push-through blocking crosses tenants,
                // and a retired tenant's sections must stop counting.
                // Without an accelerator declared by any tenant in the
                // merged set, or by the candidate, there is no section:
                // every row's term is the zero it was built with.
                if !(current.accels().is_empty() && candidate.accels().is_empty()) {
                    let mut sections = Vec::new();
                    // `current` holds a former tenant where the
                    // candidate's rows are: its sections are not theirs.
                    let (before, rest) = rows.split_at(cand.start);
                    let (mine, after) = rest.split_at(cand.len());
                    let accels = slot.first_accel as usize;
                    let parts = [
                        (before, current, 0, 0, 0),
                        (mine, candidate, slot.first_task, accels, cand.start),
                        (after, current, 0, 0, cand.end),
                    ];
                    for (part, ts, task_offset, accel_offset, at) in parts {
                        let from = sections.len();
                        extend_sections(&mut sections, part, ts, task_offset, accel_offset);
                        sections[from..].iter_mut().for_each(|s| s.row += at);
                    }
                    blocking_terms(rows, &sections);
                }
                self.check_rta(rows)?;
            }
            (MappingScheme::Global, false) => self.check_global_edf(rows)?,
        }
        self.check_dags(candidate, slot.first_task)
    }

    /// Per-partition RTA — one partition under global mapping. A
    /// partition the hyperbolic bound accepts in O(rows) is not iterated:
    /// the bound is sufficient, so the RTA would accept it too. A
    /// refusal names the first failing row in partition, then analysis,
    /// order.
    fn check_rta(&self, rows: &[Row]) -> Result<(), AdmissionError> {
        // Built for the first partition the bound refuses: an admission
        // the bound accepts allocates nothing here.
        let mut rta = None;
        let policy = self.config.priority();
        for w in 0..self.config.workers() {
            let on_w = |row: &&Row| row.worker.map(WorkerId::index) == Some(w);
            if hyperbolic_bound(rows.iter().filter(on_w), policy) {
                continue;
            }
            for (i, row) in rows.iter().enumerate() {
                if !on_w(&row) {
                    continue;
                }
                let r = rta.get_or_insert_with(|| Rta::new(rows)).response_time(i);
                if !r.schedulable() {
                    return Err(AdmissionError::Rejected(
                        BoundViolation::TaskUnschedulable {
                            task: r.task,
                            wcrt: r.wcrt,
                            deadline: r.deadline,
                        },
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_partitioned_edf(&self, rows: &[Row]) -> Result<(), AdmissionError> {
        for w in 0..self.config.workers() {
            let mut density = 0.0;
            for row in rows {
                if row.worker.map(WorkerId::index) != Some(w) {
                    continue;
                }
                let d = row.deadline;
                let denom = match row.period {
                    Some(p) if d < p => d,
                    Some(p) => p,
                    None => d,
                };
                if denom == Duration::MAX || denom.is_zero() {
                    continue; // aperiodic & unconstrained: no recurring demand
                }
                density += row.wcet.as_nanos() as f64 / denom.as_nanos() as f64;
            }
            if density > 1.0 + EPS {
                return Err(AdmissionError::Rejected(BoundViolation::WorkerOverload {
                    worker: WorkerId::new(w as u16),
                    density,
                }));
            }
        }
        Ok(())
    }

    fn check_global_edf(&self, rows: &[Row]) -> Result<(), AdmissionError> {
        let m = self.config.workers();
        let total = total_utilisation_rows(rows);
        if total > m as f64 + EPS {
            return Err(AdmissionError::Rejected(BoundViolation::TotalUtilisation {
                total,
                capacity: m as f64,
            }));
        }
        if m == 1 {
            if !edf_schedulable_rows(rows) {
                return Err(AdmissionError::Rejected(BoundViolation::EdfDemand {
                    total,
                }));
            }
        } else if !gfb_rows(rows, m) {
            let bound = m as f64 - (m as f64 - 1.0) * max_utilisation_rows(rows);
            return Err(AdmissionError::Rejected(BoundViolation::GfbDensity {
                total,
                bound,
            }));
        }
        Ok(())
    }

    /// Graham's bound for every multi-task DAG of the candidate with a
    /// finite graph deadline — a DAG is one tenant's, so the candidate
    /// alone decides; roots are reported at merged id `offset + k`.
    fn check_dags(&self, candidate: &TaskSet, offset: u32) -> Result<(), AdmissionError> {
        let m = self.config.workers();
        for t in candidate.tasks() {
            let id = t.id();
            if candidate.in_degree(id) != 0 || candidate.out_edges(id).next().is_none() {
                continue; // not a DAG root, or a singleton task
            }
            let deadline = candidate.effective_deadline(id);
            if deadline == Duration::MAX {
                continue;
            }
            if !dag_meets_deadline(candidate, id, m, ASSUMED) {
                return Err(AdmissionError::Rejected(BoundViolation::DagDeadline {
                    root: TaskId::new(offset + id.raw()),
                    bound: graham_bound(candidate, id, m, ASSUMED),
                    deadline,
                }));
            }
        }
        Ok(())
    }
}

/// What a driver must splice for an admission the analysis accepted —
/// handed to the closure of [`TenantLedger::admit`].
#[derive(Debug, Clone, Copy)]
pub struct Admission<'a> {
    /// The id the tenant is admitted under: the next one, never reused.
    pub tenant: TenantId,
    /// The merged set with the tenant written into `slot`, ready for
    /// [`Input::Install`](crate::Input::Install).
    pub merged: &'a Arc<TaskSet>,
    /// Where the tenant sits in `merged`: a retired tenant's slot of
    /// its shape, or the set's end. Its candidate-local `T<k>` is
    /// `T<slot.first_task + k>` in the running schedule.
    pub slot: Slot,
    /// `merged`'s generation: 1 for the first set the ledger's
    /// admissions made, 2 for the next and so on; the base is 0.
    pub generation: u64,
    /// How `merged` was made. `None`: as a copy of the set it replaces.
    /// `Some(writes)`: in the spare handed to
    /// [`TenantLedger::admit_reusing`], which caught up with the set it
    /// replaces by a copy of each slot in `writes`, oldest first
    /// ([`TaskSet::copy_slot`]), before the candidate was written into
    /// `slot`. A driver brings its own tables of the spare's generation
    /// up to date the same way.
    pub replayed: Option<&'a [Slot]>,
}

/// A merged set a [`TenantLedger`] made, and which one it was
/// ([`Admission::generation`]): what a driver keeps of a set its engines
/// may still run, to hand it back once they have all let go of it
/// ([`TenantLedger::admit_reusing`]).
#[derive(Debug, Clone)]
pub struct Generation {
    /// The set.
    pub set: Arc<TaskSet>,
    /// Its generation.
    pub number: u64,
}

/// The tenant state of one running schedule (see the module docs):
/// the merged set the engines splice, tenant ids, and the analysis rows
/// of the live tenants admission is checked against. Every part of it
/// is bounded by the tenants live at once, not by how many were ever
/// admitted.
///
/// Not synchronised: a driver serving concurrent callers keeps it
/// under the mutex that serialises its admissions.
#[derive(Debug, Clone)]
pub struct TenantLedger {
    control: AdmissionControl,
    /// Base set with a tenant written into every slot: the live ones,
    /// and the last holder of each free one.
    merged: Arc<TaskSet>,
    /// Which tenant holds each slot of `merged`, and the next id.
    slots: SlotTable,
    /// The live tenants' analysis rows in merged-id order; built by the
    /// first admission. A check inserts the candidate's at its slot and
    /// removes them again unless it is admitted.
    rows: Vec<Row>,
    /// Admissions so far: `merged` is generation `generation`, the
    /// base generation 0.
    generation: u64,
    /// The slot written into each of the last `writes.len()`
    /// generations to make the next, oldest first: a spare of one of
    /// them catches up by a copy of the slots written since. Kept from
    /// the generation of the last spare taken on; `admit` keeps none.
    writes: Vec<Slot>,
}

impl TenantLedger {
    /// A ledger for a schedule built with `base` (tenant 0), admitting
    /// through `control`. Builds no rows: the first admission does.
    #[must_use]
    pub fn new(control: AdmissionControl, base: Arc<TaskSet>) -> Self {
        let mut slots = SlotTable::default();
        slots.add(TenantId::new(0), slot_past(&base, None), None, ());
        TenantLedger {
            control,
            slots,
            merged: base,
            rows: Vec::new(),
            generation: 0,
            writes: Vec::new(),
        }
    }

    /// The merged set the engines currently run: a tenant in every slot
    /// — each live one, and the last holder of each free slot.
    #[must_use]
    pub fn merged(&self) -> &Arc<TaskSet> {
        &self.merged
    }

    /// The analysis rows of the live tenants, in merged-id order — empty
    /// until the first admission builds them.
    #[must_use]
    pub fn live_rows(&self) -> &[Row] {
        &self.rows
    }

    /// The merged id of `tenant`'s first task: its candidate-local `T<k>`
    /// is `T<first + k>` in the running schedule. `None` unless the
    /// tenant is live.
    #[must_use]
    pub fn first_task(&self, tenant: TenantId) -> Option<TaskId> {
        let entry = self.slots.live(tenant).ok()?;
        Some(TaskId::new(entry.slot.first_task))
    }

    /// How many slots a spare of `generation` would copy to catch up
    /// with `merged`: `None` for a generation the ledger keeps no writes
    /// for, or the current one.
    fn writes_behind(&self, generation: u64) -> Option<usize> {
        let behind = self.generation.checked_sub(generation)?;
        (1..=self.writes.len() as u64)
            .contains(&behind)
            .then_some(behind as usize)
    }

    /// Evaluates `candidate` against the live tenants and, when the
    /// analysis accepts it, calls `splice` with what the driver's
    /// engines must adopt: the first free slot of the candidate's shape
    /// ([`TaskSet::fits`]), or the merged set's end, in a copy of the
    /// merged set. The tenant is recorded only if `splice` returns
    /// `Ok`, so a driver-side failure leaves the ledger — like the
    /// engines — as it was.
    ///
    /// # Errors
    ///
    /// As [`AdmissionControl::evaluate`], with every task id of a
    /// [`BoundViolation`] in the merged id space;
    /// [`AdmissionError::Invalid`] also carries an error of `splice`.
    pub fn admit(
        &mut self,
        candidate: &TaskSet,
        budget: Option<&TenantBudget>,
        splice: impl FnOnce(Admission<'_>) -> Result<(), Error>,
    ) -> Result<TenantId, AdmissionError> {
        let admitted = self.admit_reusing(&mut None, candidate, budget, splice);
        // No set is ever handed back.
        self.writes.clear();
        admitted
    }

    /// [`TenantLedger::admit`], with the new merged set made in
    /// `spare` — a set this ledger made that nobody else holds any more
    /// — instead of a copy: once the analysis accepts, the slots
    /// written since the spare was current are copied into it, then the
    /// candidate is written into its slot, so the admission costs the
    /// tenants written since, not the whole set
    /// ([`Admission::replayed`]). The spare is left where it is when the
    /// candidate is refused, when the ledger keeps no writes for it or
    /// when somebody else holds it: the admission then copies as `admit`
    /// does. A driver
    /// that hands spares back admits through this call only, with
    /// `None` when it has none: the ledger keeps the writes since the
    /// last spare it took, and forgets the older ones.
    ///
    /// # Errors
    ///
    /// As [`TenantLedger::admit`].
    pub fn admit_reusing(
        &mut self,
        spare: &mut Option<Generation>,
        candidate: &TaskSet,
        budget: Option<&TenantBudget>,
        splice: impl FnOnce(Admission<'_>) -> Result<(), Error>,
    ) -> Result<TenantId, AdmissionError> {
        self.control.validate(candidate, budget)?;
        let base = self.slots.iter().next().map_or(0, |e| e.slot.task_count);
        if self.rows.is_empty() && base > 0 {
            // No admission yet — tenant 0 never retires, and keeps its
            // rows once it has them — so the merged set is the base.
            debug_assert_eq!(self.slots.len(), 1);
            self.control.extend_rows(&mut self.rows, &self.merged, 0);
        }
        let free = (self.slots.free_slots()).find(|(_, e)| self.merged.fits(e.slot, candidate));
        let (recycled, slot) = match free {
            Some((i, e)) => (Some(i), e.slot),
            None => (None, self.merged.end_slot(candidate)),
        };
        // The candidate's rows go where its ids do, so ties break as
        // they do in the merged id space.
        let at = self
            .rows
            .partition_point(|r| r.task.raw() < slot.first_task);
        let (len, added) = (self.rows.len(), candidate.len());
        self.control
            .extend_rows(&mut self.rows, candidate, slot.first_task);
        self.rows[at..].rotate_right(added);
        let admitted = self.try_admit(spare, candidate, budget, slot, at..at + added, splice);
        match admitted {
            Ok(tenant) => self.slots.add(tenant, slot, recycled, ()),
            Err(_) => {
                self.rows.drain(at..at + added);
                debug_assert_eq!(self.rows.len(), len);
            }
        }
        admitted
    }

    /// [`TenantLedger::admit_reusing`] once the candidate's rows are in
    /// place at `cand`; leaves them there whatever the outcome.
    fn try_admit(
        &mut self,
        spare: &mut Option<Generation>,
        candidate: &TaskSet,
        budget: Option<&TenantBudget>,
        slot: Slot,
        cand: std::ops::Range<usize>,
        splice: impl FnOnce(Admission<'_>) -> Result<(), Error>,
    ) -> Result<TenantId, AdmissionError> {
        let (control, rows) = (&self.control, &mut self.rows);
        control.check(rows, cand, &self.merged, candidate, slot, budget)?;
        let (merged, recycled) = self.next_set(spare, candidate, slot)?;
        let tenant = self.slots.next_id();
        splice(Admission {
            tenant,
            merged: &merged,
            slot,
            generation: self.generation + 1,
            replayed: recycled.then_some(&self.writes[..]),
        })?;
        self.writes.push(slot);
        self.generation += 1;
        self.merged = merged;
        Ok(tenant)
    }

    /// `merged` with `candidate` written into `slot`, and whether it
    /// was made in `spare`: when the ledger keeps its writes and nobody
    /// else holds it, `spare` is taken, and the writes before its
    /// generation are forgotten; otherwise the set is a copy.
    fn next_set(
        &mut self,
        spare: &mut Option<Generation>,
        candidate: &TaskSet,
        slot: Slot,
    ) -> Result<(Arc<TaskSet>, bool), Error> {
        let usable = |g: &mut Generation| {
            let behind = self.writes_behind(g.number)?;
            Arc::get_mut(&mut g.set).and(Some(behind))
        };
        let Some(behind) = spare.as_mut().and_then(usable) else {
            return Ok((Arc::new(self.merged.placed(candidate, slot)?), false));
        };
        let mut set = spare.take().expect("a spare was found").set;
        let caught_up = Arc::get_mut(&mut set).expect("nobody else holds the spare");
        self.writes.drain(..self.writes.len() - behind);
        for &written in &self.writes {
            caught_up.copy_slot(&self.merged, written);
        }
        caught_up.place(candidate, slot)?;
        Ok((set, true))
    }

    /// Frees `tenant`'s slot for the next candidate of its shape and
    /// deletes its rows: its bandwidth is free too. Its entities stay
    /// in [`TenantLedger::merged`] until a tenant takes the slot. Call
    /// it in step with the engines' retirement — after they
    /// acknowledged it, or before sending it down the same FIFO lane a
    /// later splice travels.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for tenant 0 (the build-time set),
    /// [`Error::UnknownTenant`] for an id never admitted,
    /// [`Error::TenantRetired`] for a double retire.
    pub fn retire(&mut self, tenant: TenantId) -> Result<(), Error> {
        let slot = self.slots.retire(tenant)?.slot;
        // Admitted tenants have rows, contiguous and in merged-id order.
        let (first, len) = (slot.first_task, slot.task_count as usize);
        let start = self.rows.partition_point(|r| r.task.raw() < first);
        self.rows.drain(start..start + len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Action, OnlineEngine};
    use crate::input::Input;
    use crate::sink::ActionSink;
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::Instant;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// One periodic task `name` with WCET `wcet_ms` every `period_ms`,
    /// optionally partitioned onto `worker`.
    fn set(name: &str, wcet_ms: u64, period_ms: u64, worker: Option<u16>) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let mut spec = TaskSpec::periodic(name, ms(period_ms));
        if let Some(w) = worker {
            spec = spec.on_worker(WorkerId::new(w));
        }
        let t = b.task_decl(spec).unwrap();
        b.version_decl(t, VersionSpec::new("v0", ms(wcet_ms)))
            .unwrap();
        b.build().unwrap()
    }

    fn edf(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    }

    #[test]
    fn feasible_tenant_accepted_and_merged() {
        let live = set("base", 2, 10, None);
        let tenant = set("guest", 2, 10, None);
        let ctl = AdmissionControl::new(edf(1), ms(10));
        let merged = ctl.evaluate(&live, &tenant, None).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.tasks()[1].spec().name(), "guest");
    }

    #[test]
    fn overload_rejected_with_utilisation_bound() {
        let live = set("base", 6, 10, None);
        let tenant = set("hog", 6, 10, None);
        let ctl = AdmissionControl::new(edf(1), ms(2));
        match ctl.evaluate(&live, &tenant, None) {
            Err(AdmissionError::Rejected(BoundViolation::TotalUtilisation { total, capacity })) => {
                assert!((total - 1.2).abs() < 1e-9, "total = {total}");
                assert!((capacity - 1.0).abs() < 1e-12);
            }
            other => panic!("expected utilisation rejection, got {other:?}"),
        }
    }

    #[test]
    fn gfb_failure_names_the_bound() {
        // m = 3: two heavy tasks + newcomer, U = 2.4 passes U <= m but
        // fails GFB with U_max = 0.8: bound = 3 - 2*0.8 = 1.4. m = 2:
        // U = 0.8 + 0.5 = 1.3 against 2 - 1*0.8 = 1.2, which a halved
        // (m-1)*U_max term would let pass.
        let mut b = TaskSetBuilder::new();
        for name in ["a", "b"] {
            let t = b.task_decl(TaskSpec::periodic(name, ms(10))).unwrap();
            b.version_decl(t, VersionSpec::new("v0", ms(8))).unwrap();
        }
        let cases = [
            (3, b.build().unwrap(), set("c", 8, 10, None), 2.4, 1.4),
            (2, set("a", 8, 10, None), set("b", 5, 10, None), 1.3, 1.2),
        ];
        for (m, live, tenant, want_total, want_bound) in cases {
            let ctl = AdmissionControl::new(edf(m), ms(10));
            match ctl.evaluate(&live, &tenant, None) {
                Err(AdmissionError::Rejected(BoundViolation::GfbDensity { total, bound })) => {
                    assert!((total - want_total).abs() < 1e-9, "m = {m}: {total}");
                    assert!((bound - want_bound).abs() < 1e-9, "m = {m}: {bound}");
                }
                other => panic!("m = {m}: expected GFB rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn partitioned_rta_rejects_the_failing_task() {
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::RateMonotonic)
            .build()
            .unwrap();
        let live = set("base", 4, 10, Some(0));
        // The tenant lands on the same worker and cannot fit: 4 + 8 > 10.
        let tenant = set("guest", 8, 10, Some(0));
        let ctl = AdmissionControl::new(cfg.clone(), ms(10));
        match ctl.evaluate(&live, &tenant, None) {
            Err(AdmissionError::Rejected(BoundViolation::TaskUnschedulable { task, .. })) => {
                assert_eq!(task, TaskId::new(1), "merged id of the tenant task");
            }
            other => panic!("expected RTA rejection, got {other:?}"),
        }
        // On the free worker it is accepted.
        let tenant_ok = set("guest", 8, 10, Some(1));
        assert!(ctl.evaluate(&live, &tenant_ok, None).is_ok());
    }

    #[test]
    fn partitioned_edf_overload_names_the_worker() {
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let live = set("base", 5, 10, Some(1));
        let tenant = set("guest", 7, 10, Some(1));
        let ctl = AdmissionControl::new(cfg, ms(10));
        match ctl.evaluate(&live, &tenant, None) {
            Err(AdmissionError::Rejected(BoundViolation::WorkerOverload { worker, density })) => {
                assert_eq!(worker, WorkerId::new(1));
                assert!((density - 1.2).abs() < 1e-9);
            }
            other => panic!("expected worker overload, got {other:?}"),
        }
    }

    #[test]
    fn insufficient_budget_rejected() {
        let live = set("base", 1, 10, None);
        let tenant = set("guest", 4, 10, None); // needs 0.4
        let budget = TenantBudget::deferrable(ms(2), ms(10)); // grants only 0.2
        let ctl = AdmissionControl::new(edf(1), ms(10));
        match ctl.evaluate(&live, &tenant, Some(&budget)) {
            Err(AdmissionError::Rejected(BoundViolation::BudgetInsufficient {
                tenant_utilisation,
                budget_utilisation,
            })) => {
                assert!((tenant_utilisation - 0.4).abs() < 1e-9);
                assert!((budget_utilisation - 0.2).abs() < 1e-9);
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn tick_incompatible_period_is_invalid_not_rejected() {
        let live = set("base", 1, 10, None);
        let tenant = set("guest", 1, 15, None);
        let ctl = AdmissionControl::new(edf(1), ms(10));
        assert!(matches!(
            ctl.evaluate(&live, &tenant, None),
            Err(AdmissionError::Invalid(Error::InvalidConfig(_)))
        ));
    }

    #[test]
    fn a_hyperbolic_product_just_above_two_goes_to_the_rta_and_fails() {
        // DM on one core, tick 2 ms: the live task is 1 ms every 2 ms;
        // the candidate runs 1.1 ms every 4 ms by a 3 ms deadline. The
        // product (1 + 1/2)(1 + 1.1/3) = 2.05 misses the bound, and the
        // RTA's iteration passes the deadline: R = 1.1 + 2 · 1 = 3.1 ms.
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::DeadlineMonotonic)
            .build()
            .unwrap();
        let live = set("base", 1, 2, None);
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic("late", ms(4)).with_constrained_deadline(ms(3));
        let t = b.task_decl(spec).unwrap();
        b.version_decl(t, VersionSpec::new("v0", Duration::from_micros(1_100)))
            .unwrap();
        let tenant = b.build().unwrap();
        let ctl = AdmissionControl::new(cfg, ms(2));
        match ctl.evaluate(&live, &tenant, None) {
            Err(AdmissionError::Rejected(BoundViolation::TaskUnschedulable {
                task,
                deadline,
                ..
            })) => assert_eq!((task, deadline), (TaskId::new(1), ms(3))),
            other => panic!("expected RTA rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_dag_whose_graham_bound_passes_its_deadline_is_refused() {
        // Global EDF on 2 workers: the root runs 2 ms every 20 ms by a
        // 7 ms deadline and forks to two 4 ms nodes. Graham's bound is
        // 6 + (10 - 6) / 2 = 8 ms; every utilisation test passes.
        let live = set("base", 1, 20, None);
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic("r", ms(20)).with_constrained_deadline(ms(7));
        let r = b.task_decl(spec).unwrap();
        b.version_decl(r, VersionSpec::new("v0", ms(2))).unwrap();
        for name in ["x", "y"] {
            let n = b.task_decl(TaskSpec::graph_node(name)).unwrap();
            b.version_decl(n, VersionSpec::new("v0", ms(4))).unwrap();
            let c = b.channel_decl(format!("r{name}"), 0, 0);
            b.channel_connect(r, n, c).unwrap();
        }
        let tenant = b.build().unwrap();
        let ctl = AdmissionControl::new(edf(2), ms(20));
        let refused = ctl.evaluate(&live, &tenant, None).map(|_| ());
        let dag = BoundViolation::DagDeadline {
            root: TaskId::new(1),
            bound: ms(8),
            deadline: ms(7),
        };
        assert_eq!(refused, Err(AdmissionError::Rejected(dag)));
    }

    #[test]
    fn violation_renders_via_core_error() {
        let v = BoundViolation::TotalUtilisation {
            total: 1.25,
            capacity: 1.0,
        };
        let e: Error = AdmissionError::Rejected(v).into();
        let msg = e.to_string();
        assert!(msg.contains("admission rejected"), "{msg}");
        assert!(msg.contains("1.25"), "{msg}");
    }

    #[test]
    fn ledger_returns_retired_bandwidth_and_keeps_ids_stable() {
        let base = Arc::new(set("base", 2, 10, None)); // U = 0.2
        let mut ledger = TenantLedger::new(AdmissionControl::new(edf(1), ms(10)), base);
        let half = set("half", 5, 10, None); // U = 0.5
        for round in 1..=3u32 {
            let tenant = ledger
                .admit(&half, None, |a| {
                    assert_eq!(a.tenant.raw(), round, "tenant ids are never reused");
                    assert_eq!(a.slot.first_task, 1, "the retired tenant's slot is");
                    assert_eq!(a.merged.len(), 2);
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(ledger.live_rows().len(), 2);
            // 0.2 + 0.5 + 0.5 does not fit beside a live tenant…
            assert!(matches!(
                ledger.admit(&half, None, |_| Ok(())),
                Err(AdmissionError::Rejected(
                    BoundViolation::TotalUtilisation { .. }
                ))
            ));
            // …and does once it is gone.
            ledger.retire(tenant).unwrap();
            assert_eq!(ledger.live_rows().len(), 1);
        }
        assert_eq!(ledger.merged().len(), 2, "one slot served every tenant");
        assert_eq!(ledger.first_task(TenantId::new(3)), None, "retired");
    }

    #[test]
    fn a_spare_is_written_over_only_when_it_can_catch_up() {
        let base = Arc::new(set("base", 1, 10, None));
        let mut ledger = TenantLedger::new(AdmissionControl::new(edf(1), ms(10)), base);
        let (small, heavy) = (set("small", 1, 10, None), set("heavy", 10, 10, None));
        // `Some(Some(writes copied))` when admitted in the spare,
        // `Some(None)` when copied, `None` when refused.
        let admit = |ledger: &mut TenantLedger, spare: &mut Option<Generation>, c: &TaskSet| {
            let mut made = None;
            let admitted = ledger.admit_reusing(spare, c, None, |a| {
                made = Some(a.replayed.map(<[Slot]>::len));
                Ok(())
            });
            admitted.ok().and(made)
        };
        let g0 = Generation {
            set: Arc::clone(ledger.merged()),
            number: 0,
        };
        let mut spare = Some(g0.clone());
        // Still current, then held by `g0`: copied, the spare left alone.
        assert_eq!(admit(&mut ledger, &mut spare, &small), Some(None));
        assert_eq!(admit(&mut ledger, &mut spare, &small), Some(None));
        assert_eq!(ledger.writes_behind(0), Some(2));
        drop(g0);
        let g2 = Generation {
            set: Arc::clone(ledger.merged()),
            number: 2,
        };
        // Nobody else holds it: it catches up by both writes.
        assert_eq!(admit(&mut ledger, &mut spare, &small), Some(Some(2)));
        assert!(spare.is_none(), "taken");
        // A refusal leaves the spare where it is…
        let mut spare = Some(g2);
        assert_eq!(admit(&mut ledger, &mut spare, &heavy), None);
        assert!(spare.is_some(), "left");
        // …for the next admission, which forgets the writes before it.
        assert_eq!(admit(&mut ledger, &mut spare, &small), Some(Some(1)));
        assert_eq!(ledger.writes_behind(1), None, "older than the last spare");
        assert_eq!(ledger.writes_behind(3), Some(1));
        assert_eq!(ledger.writes_behind(4), None, "current");
        // A plain admission keeps no writes: nothing can catch up.
        ledger.admit(&small, None, |_| Ok(())).unwrap();
        assert_eq!(ledger.writes_behind(4), None);
    }

    #[test]
    fn ledger_reports_violations_in_merged_ids() {
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::RateMonotonic)
            .build()
            .unwrap();
        let base = Arc::new(set("base", 1, 10, None));
        let mut ledger = TenantLedger::new(AdmissionControl::new(cfg, ms(10)), base);
        let filler = set("filler", 1, 10, None);
        let gone = ledger.admit(&filler, None, |_| Ok(())).unwrap(); // T1
        ledger
            .admit(&set("slow", 4, 20, None), None, |_| Ok(()))
            .unwrap(); // T2
        ledger.retire(gone).unwrap();
        // Live rows = {base T0, slow T2}. The hog passes — in the
        // freed slot, T1 — and it is `slow` that no longer makes its
        // deadline behind 1 + 8 ms of higher-priority work.
        match ledger.admit(&set("hog", 8, 10, None), None, |_| Ok(())) {
            Err(AdmissionError::Rejected(BoundViolation::TaskUnschedulable { task, .. })) => {
                assert_eq!(task, TaskId::new(2));
            }
            other => panic!("expected an RTA rejection, got {other:?}"),
        }
        // A candidate is analysed in the slot it would take: `late`, in
        // T1, comes before `slow` among their tied priorities, and it is
        // `slow` that misses, at 1 + 16 + 4 ms.
        match ledger.admit(&set("late", 16, 20, None), None, |_| Ok(())) {
            Err(AdmissionError::Rejected(BoundViolation::TaskUnschedulable { task, .. })) => {
                assert_eq!(task, TaskId::new(2));
            }
            other => panic!("expected an RTA rejection, got {other:?}"),
        }
        // One that takes no freed slot is named past every id.
        match ledger.admit(
            &set("late", 16, 20, None).extended(&filler).unwrap(),
            None,
            |_| Ok(()),
        ) {
            Err(AdmissionError::Rejected(BoundViolation::TaskUnschedulable { task, .. })) => {
                assert_eq!(task, TaskId::new(3));
            }
            other => panic!("expected an RTA rejection, got {other:?}"),
        }
    }

    /// One DM task of `wcet_us` with deadline `deadline_ms` in a 40 ms
    /// period.
    fn dm_task(name: &str, wcet_us: u64, deadline_ms: u64) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic(name, ms(40)).with_constrained_deadline(ms(deadline_ms));
        let t = b.task_decl(spec).unwrap();
        let wcet = Duration::from_micros(wcet_us);
        b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        b.build().unwrap()
    }

    /// The ledger's RTA over its row table against one over a task set:
    /// after two admissions and a retirement, candidates more urgent
    /// than every live task, less urgent than all, and tied with the
    /// most urgent and with a middle one, over a sweep of WCETs, get the
    /// verdict — and the refused task, WCRT and deadline — of
    /// `AdmissionControl::evaluate` on a set built from the live
    /// tenants with the candidate where the ledger puts it: in the
    /// retired tenant's slot, between the base and `kept`.
    #[test]
    fn ledger_rta_equals_a_full_rta() {
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::DeadlineMonotonic)
            .build()
            .unwrap();
        let gate = AdmissionControl::new(cfg, ms(40));
        let base = dm_task("base", 3_000, 10)
            .extended(&dm_task("b1", 4_000, 20))
            .unwrap();
        let mut ledger = TenantLedger::new(gate.clone(), Arc::new(base.clone()));
        let gone = ledger
            .admit(&dm_task("gone", 2_000, 30), None, |_| Ok(()))
            .unwrap(); // T2
        let kept = dm_task("kept", 5_000, 20)
            .extended(&dm_task("k1", 6_000, 35))
            .unwrap();
        ledger.admit(&kept, None, |_| Ok(())).unwrap(); // T3, T4
        ledger.retire(gone).unwrap();

        let (mut accepted, mut refused_live, mut refused_candidate) = (0, 0, 0);
        for deadline_ms in [5, 10, 20, 40] {
            for wcet_us in (500..=12_000).step_by(500) {
                let cand = dm_task("cand", wcet_us, deadline_ms);
                // The candidate takes `gone`'s slot, T2: ids match.
                let in_slot = cand.extended(&kept).unwrap();
                let full = gate.evaluate(&base, &in_slot, None).map(|_| ());
                if let Err(e) = &full {
                    let rta = matches!(
                        e,
                        AdmissionError::Rejected(BoundViolation::TaskUnschedulable { .. })
                    );
                    assert!(rta, "only the RTA refuses here: {e:?}");
                }
                let got = ledger.clone().admit(&cand, None, |_| Ok(())).map(|_| ());
                assert_eq!(got, full, "deadline {deadline_ms} ms, WCET {wcet_us} µs");
                match got {
                    Ok(()) => accepted += 1,
                    Err(AdmissionError::Rejected(BoundViolation::TaskUnschedulable {
                        task,
                        ..
                    })) if task == TaskId::new(2) => refused_candidate += 1,
                    Err(_) => refused_live += 1,
                }
            }
        }
        assert!(
            accepted > 10 && refused_live > 10 && refused_candidate > 10,
            "{accepted} accepted, {refused_live} refused on a live task, \
             {refused_candidate} on the candidate"
        );

        // The first admission checks the base's own rows: a base that
        // misses its deadline refuses the first candidate, as a full RTA
        // of it does.
        let late = dm_task("a", 8_000, 10)
            .extended(&dm_task("b", 5_000, 10))
            .unwrap();
        let cand = dm_task("cand", 500, 40);
        let full = gate.evaluate(&late, &cand, None).map(|_| ());
        assert!(full.is_err());
        let mut ledger = TenantLedger::new(gate, Arc::new(late));
        assert_eq!(ledger.admit(&cand, None, |_| Ok(())).map(|_| ()), full);
    }

    #[test]
    fn ledger_is_untouched_by_a_failed_splice_and_validates_retire() {
        let base = Arc::new(set("base", 2, 10, None));
        let mut ledger = TenantLedger::new(AdmissionControl::new(edf(1), ms(10)), base);
        let guest = set("guest", 2, 10, None);
        assert!(matches!(
            ledger.admit(&guest, None, |_| Err(Error::ScheduleNotRunning)),
            Err(AdmissionError::Invalid(Error::ScheduleNotRunning))
        ));
        assert_eq!(ledger.merged().len(), 1);
        assert_eq!(ledger.live_rows().len(), 1);
        let t = ledger.admit(&guest, None, |_| Ok(())).unwrap();
        assert_eq!(t, TenantId::new(1), "the failed attempt consumed no id");

        assert!(matches!(
            ledger.retire(TenantId::new(0)),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            ledger.retire(TenantId::new(2)),
            Err(Error::UnknownTenant(2))
        ));
        ledger.retire(t).unwrap();
        assert!(matches!(ledger.retire(t), Err(Error::TenantRetired(1))));
    }

    /// End-to-end through a live engine: evaluate → splice → commit →
    /// run → retire.
    #[test]
    fn engine_splice_commit_retire_round_trip() {
        let live = Arc::new(set("base", 2, 10, None));
        let config = edf(1);
        let mut engine = OnlineEngine::new(Arc::clone(&live), config).unwrap();
        let mut sink = ActionSink::new();
        let t0 = Instant::ZERO;
        engine.apply(t0, &Input::Start, &mut sink).unwrap();

        let tenant_set = set("guest", 2, 10, None);
        let ctl = AdmissionControl::for_engine(&engine);
        let budget = TenantBudget::deferrable(ms(5), ms(10));
        let merged = ctl
            .evaluate(engine.taskset(), &tenant_set, Some(&budget))
            .unwrap();
        let tenant = TenantId::new(engine.tenant_count() as u32);
        let install = Input::Install {
            merged: &merged,
            tenant,
            first_task: engine.taskset().len() as u32,
            budget: Some(budget),
        };
        engine.apply(t0, &install, &mut sink).unwrap();
        assert!(engine.tenant_server(tenant).is_some());

        sink.clear();
        let (anchor, since) = (t0, t0);
        let commit = Input::Commit {
            tenant,
            anchor,
            since,
        };
        engine.apply(t0, &commit, &mut sink).unwrap();
        engine
            .apply(t0, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        // Both the base and the guest task release at t0; one worker, so
        // one dispatch and one job left ready.
        assert_eq!(engine.ready_len(), 1);

        // Retiring culls the guest's ready job and reports each cull.
        let culled = engine.stats().culled;
        sink.clear();
        engine.apply(t0, &Input::Retire(tenant), &mut sink).unwrap();
        let culls = sink.as_slice().iter();
        let culls = culls.filter(|a| matches!(a, Action::Cull { .. })).count();
        assert_eq!(culls as u64, engine.stats().culled - culled);
        assert_eq!((culls, engine.ready_len()), (1, 0));
        assert!(engine.is_tenant_retired(tenant).unwrap());
        assert!(engine.is_task_retired(TaskId::new(1)));
        // Late activation is refused with the structured error.
        sink.clear();
        assert!(matches!(
            engine.apply(t0, &Input::Activate(TaskId::new(1)), &mut sink),
            Err(Error::TenantRetired(1))
        ));
        // Double retire is an error; tenant 0 cannot be retired.
        assert!(matches!(
            engine.apply(t0, &Input::Retire(tenant), &mut sink),
            Err(Error::TenantRetired(1))
        ));
        assert!(matches!(
            engine.apply(t0, &Input::Retire(TenantId::new(0)), &mut sink),
            Err(Error::InvalidConfig(_))
        ));
    }
}
