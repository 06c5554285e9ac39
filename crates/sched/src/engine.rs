//! The on-line scheduling engine (global & partitioned, Fig. 1a/1b).
//!
//! The engine is *pure scheduling logic*: it owns the ready queues, the
//! release bookkeeping, the DAG activation tokens and the accelerator
//! state, but it has no threads and no clock. Drivers feed it events —
//! the scheduler-thread tick, job completions, explicit activations — and
//! execute the [`Action`]s it returns. The discrete-event simulator
//! (`yasmin-sim`) and the real-thread runtime (`yasmin-rt`) drive the same
//! engine, so experiments exercise production scheduling code.
//!
//! Design notes mirrored from the paper:
//!
//! * the scheduler activates periodic jobs only at tick boundaries, with
//!   the tick equal to the gcd of all task periods (§3.3);
//! * preemption is a scheduler decision relayed to workers (§3.5) — here
//!   an [`Action::Preempt`] that the driver applies;
//! * jobs never migrate once dispatched; tasks may (§3.3 limitation);
//! * a job holding an accelerator is never preempted — combined with the
//!   PIP boost of §3.2 this prevents accelerator-deadlock and chained
//!   inversions (our design decision, documented in DESIGN.md).
//!
//! Admitted tenants ([`crate::admission`]) occupy slots of the task set;
//! the engine keeps its tables per task and asks its one
//! [`crate::tenancy`] slot table which slot a task is in and whose it
//! is.

use crate::accel::{AccelHolder, AccelManager};
use crate::input::Input;
use crate::job::{Job, JobBatch, MAX_STEAL_BATCH};
use crate::msg::MsgEvent;
use crate::queue::ReadyQueue;
use crate::select::{rank_versions_into, RankBuf};
use crate::server::{ReservationServer, TenantBudget};
use crate::sink::ActionSink;
use crate::tenancy::{check_fit, slot_past, Holding, SlotTable, Verdict};
use std::iter::repeat_n;
use std::sync::Arc;
use yasmin_core::channel::BackpressurePolicy;
use yasmin_core::config::{Config, MappingScheme, SelectCtx, VersionPolicy};
use yasmin_core::energy::BatteryLevel;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::{put, Slot, TaskSet};
use yasmin_core::ids::{AccelId, JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::priority::{Priority, PriorityPolicy};
use yasmin_core::task::{ActivationKind, OverrunPolicy};
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::{ExecMode, PermMask};

/// How a job's body ended on its worker.
///
/// Runtimes wrap task bodies in `catch_unwind`; a panicking body is
/// contained and reported as [`JobOutcome::Failed`] instead of poisoning
/// the worker thread. The engine retires failed jobs through
/// [`Input::Failed`], which applies the task's
/// [`OverrunPolicy`] to decide whether successors still fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobOutcome {
    /// The body returned normally.
    #[default]
    Completed,
    /// The body panicked; the runtime contained the unwind and the
    /// worker thread lives on.
    Failed,
}

/// A scheduling decision for the driver to carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Start (or resume) `job` on `worker` using `version`.
    Dispatch {
        /// Target worker.
        worker: WorkerId,
        /// The job to run.
        job: Job,
        /// The selected version.
        version: VersionId,
    },
    /// Pause the job currently running on `worker`; the engine has already
    /// re-queued it and will re-dispatch it later.
    Preempt {
        /// The worker to interrupt.
        worker: WorkerId,
        /// The job being paused.
        job: JobId,
    },
    /// The effective priority of `job` on `worker` changed, raised or
    /// lowered ([`RunningJob::effective_priority`], the fold of its base,
    /// its task's shedding state and message ceiling, its overrun
    /// demotion and PIP after accelerator contention, §3.2). Emitted
    /// only on a change.
    Boost {
        /// Worker running the job.
        worker: WorkerId,
        /// The job.
        job: JobId,
        /// Its new effective priority.
        priority: Priority,
    },
    /// A ready job left the engine without running on: its absolute
    /// deadline passed while it waited
    /// ([`yasmin_core::config::Config::cull_missed`]), or its tenant was
    /// retired ([`Input::Retire`]). The engine never
    /// dispatches it again, so state kept for it outside the engine —
    /// the remaining work of a preempted job — can go. Each one is
    /// counted in [`EngineStats::culled`].
    Cull {
        /// The culled job.
        job: JobId,
    },
    /// A ready job this shard detached for a thief ([`Input::Lend`]):
    /// the driver hands it over, or gives it back
    /// ([`Input::Returned`]). It counts in [`EngineStats::donated`].
    Lend {
        /// The detached job.
        job: Job,
    },
    /// An instance a peer may keep while this shard is inside a body
    /// ([`Input::Offer`]).
    Offer(Continuation),
}

/// What currently occupies a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// The job.
    pub job: Job,
    /// The version being executed.
    pub version: VersionId,
    /// The accelerator held, if the version uses one.
    pub accel: Option<AccelId>,
    /// What the job runs at: the engine's one fold of its state, as its
    /// queued key was — [`Priority::LOWEST`] once an overrun demoted it
    /// ([`OverrunPolicy::DemoteToBackground`]), else its base
    /// (background while its task sheds) raised by its task's message
    /// ceiling and by `inherited`. Each change is an [`Action::Boost`].
    pub effective_priority: Priority,
    /// The most urgent priority inherited by PIP (§3.2).
    pub(crate) inherited: Option<Priority>,
    /// The enforcement deadline: dispatch instant + the selected
    /// version's WCET (`Instant::MAX` when `Config::enforce_wcet` is
    /// off). A tick strictly past this instant flags the job as
    /// overrunning and applies the task's [`OverrunPolicy`].
    pub enforce_by: Instant,
    /// The overrun has been detected and handled (policies apply once).
    pub overrun: bool,
    /// The job was killed ([`OverrunPolicy::Kill`]), or its tenant
    /// retired while it ran: the body still runs to completion on its
    /// worker — the middleware never destroys a thread mid-body — but
    /// its successors are dropped at retirement.
    pub killed: bool,
}

/// How one [`EngineStats`] field combines with another engine's (`add`)
/// and with itself over cycles of a schedule that repeats (`repeat`).
trait Tally {
    fn add(&mut self, other: &Self);
    /// Grows by `n` more times what was gained since `mark`.
    fn repeat(&mut self, mark: &Self, n: u64);
}

impl Tally for u64 {
    fn add(&mut self, other: &u64) {
        *self += other;
    }
    fn repeat(&mut self, mark: &u64, n: u64) {
        *self += (*self - mark) * n;
    }
}

impl Tally for [u64; 8] {
    fn add(&mut self, other: &Self) {
        self.iter_mut().zip(other).for_each(|(b, o)| b.add(o));
    }
    fn repeat(&mut self, mark: &Self, n: u64) {
        self.iter_mut().zip(mark).for_each(|(b, m)| b.repeat(m, n));
    }
}

/// The one high-water mark, `max_ready`: summed across shards, held
/// across cycles (a repeated cycle reaches the same depth again).
impl Tally for usize {
    fn add(&mut self, other: &usize) {
        *self += other;
    }
    fn repeat(&mut self, _mark: &usize, _n: u64) {}
}

/// States the [`EngineStats`] fields once; the struct, [`EngineStats::merge`]
/// and the cycle repeat behind [`Input::Skip`] all come
/// from this one list.
macro_rules! engine_stats {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {
        /// Counters the engine maintains for overhead analysis (Fig. 2 uses the
        /// queue-operation and preemption counts).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl EngineStats {
            /// Accumulates another engine's counters into this one — used to
            /// aggregate per-shard stats into a whole-system view. Every counter
            /// sums; `max_ready` sums too (each shard's high-water mark is over
            /// its own queue, so the sum is a conservative bound on the global
            /// concurrent ready count, not an observed maximum).
            pub fn merge(&mut self, other: &EngineStats) {
                $(self.$field.add(&other.$field);)*
            }

            /// Adds `n` more times what every counter gained since `mark`;
            /// `max_ready` stays the maximum it is.
            fn repeat_since(&mut self, mark: &EngineStats, n: u64) {
                $(self.$field.repeat(&mark.$field, n);)*
            }
        }
    };
}

engine_stats! {
    /// Jobs released into ready queues.
    released: u64,
    /// Dispatch actions emitted.
    dispatched: u64,
    /// Jobs completed.
    completed: u64,
    /// Preemptions performed.
    preempted: u64,
    /// PIP boosts applied: holders whose effective priority a blocked
    /// job raised.
    pip_boosts: u64,
    /// Times a ready job had to be skipped because every eligible version
    /// targeted a busy accelerator (it stays ready).
    blocked_skips: u64,
    /// Sporadic activations violating the minimum inter-arrival time.
    sporadic_violations: u64,
    /// Token pushes that exceeded a channel's declared capacity.
    channel_overflows: u64,
    /// High-water mark over all ready queues.
    max_ready: usize,
    /// Foreign jobs this engine adopted from a victim shard and ran on
    /// its own worker (work stealing; thief side).
    stolen: u64,
    /// Ready jobs this engine handed to a thief shard (victim side).
    donated: u64,
    /// Steal exchanges this engine completed as the thief
    /// ([`Input::Adopt`], a batch of one included);
    /// each exchange's jobs are also counted individually in `stolen`.
    stolen_batch: u64,
    /// Histogram of adopted batch sizes: bucket `i` counts exchanges
    /// that delivered `i + 1` jobs (the last bucket absorbs anything
    /// larger, future-proofing against a raised batch cap).
    steal_batch_len: [u64; 8],
    /// DAG activation tokens routed to a foreign shard through the
    /// outbox instead of fired locally (cross-shard edges).
    cross_activations: u64,
    /// Ready jobs culled — either at a tick because their absolute
    /// deadline had already passed
    /// ([`yasmin_core::config::Config::cull_missed`]), or because their
    /// tenant was retired while they waited
    /// ([`Input::Retire`]). Every one is reported as
    /// one [`Action::Cull`].
    culled: u64,
    /// Of `culled`, the jobs that migrated here — stolen or kept — and
    /// so ran nowhere (thief side).
    culled_migrated: u64,
    /// Dispatch attempts deferred because the job's tenant had exhausted
    /// its [`ReservationServer`] budget for the current replenishment
    /// period (the job stays ready and retries on later rounds).
    budget_deferrals: u64,
    /// Jobs a high-lane post raised to its task's ceiling, queued or
    /// running (released when the lane drains).
    msg_boosts: u64,
    /// Jobs caught running past their enforcement deadline
    /// (`Config::enforce_wcet`), or force-flagged by fault injection.
    overruns: u64,
    /// Jobs retired as [`JobOutcome::Failed`] (body panicked; contained
    /// by the runtime).
    failed: u64,
    /// DAG tokens shed by a channel's [`BackpressurePolicy`]
    /// (`DropOldest` / `DeadlineAwareDrop`) on a full channel.
    shed_drops: u64,
    /// Times the deadline-miss trip wire tripped (`Config::miss_trip`).
    miss_trips: u64,
}

/// A DAG activation token addressed to a foreign shard: the completion
/// of a job whose out-edge crosses shards does not touch the local
/// token state (the *destination* shard owns every edge entering its
/// tasks) — it lands here instead, for the driver to route to the
/// owning shard ([`Input::Token`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RemoteActivation {
    /// The worker whose shard owns the edge's destination task.
    pub worker: WorkerId,
    /// Index of the edge in [`TaskSet::edges`].
    pub edge: u32,
    /// Graph release carried by the token (join semantics at the
    /// destination).
    pub graph_release: Instant,
}

/// The end of a migrated instance — stolen, or kept by the peer that
/// completed its predecessor — on the shard that ran it, addressed to
/// its home: until the home has it ([`Input::Home`])
/// no other instance of the task is dispatched, shelved or kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeNote {
    /// The worker whose shard the task is homed on.
    pub worker: WorkerId,
    /// The task whose instance ended.
    pub task: TaskId,
    /// The graph release of that instance: the end of a former holder's
    /// is dropped, like its tokens.
    pub graph_release: Instant,
}

/// The instance a shard would release next of one of its single-input
/// tasks, offered while it is inside a body
/// ([`Input::Offer`]): a peer that completes the
/// task's predecessor meanwhile may keep it and run it itself
/// ([`Input::Kept`]) instead of sending the token to a home
/// that reads it only after the body. Its id is reserved from the home's
/// own, so the kept job is the one the home would have released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Continuation {
    /// The task.
    pub task: TaskId,
    /// The `seq` its next instance gets.
    pub seq: u64,
    /// The id reserved for that instance.
    pub id: JobId,
}

/// One stealable ready job of a shard, copied without detaching it
/// ([`OnlineEngine::steal_hint`], [`Input::Lend`]) —
/// what the victim then turns into a concrete hand-off via
/// [`Input::Lend`], by its id.
pub type StealHint = Job;

/// An engine's running counts at a recurrence point
/// ([`OnlineEngine::recurrence_mark`]). Two of them bracket one cycle
/// of a schedule that repeats: their differences are what every further
/// cycle adds, to the engine ([`Input::Skip`]) and to
/// whatever a driver derives from job ids and sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleMark {
    /// The recurrence instant.
    pub at: Instant,
    /// Jobs minted so far: the raw [`JobId`] the next release gets.
    pub job_counter: u64,
    /// Activations so far per task: the `seq` its next job gets.
    pub activation_seq: Vec<u64>,
    stats: EngineStats,
}

enum VersionChoice {
    Run(VersionId, Option<AccelId>),
    /// All eligible versions target busy accelerators; the wished-for
    /// accelerators are left in the engine's `wish_buf` scratch.
    Blocked,
    /// The selection policy filtered out every version.
    NoEligible,
}

/// A ranked version and the accelerator it targets.
type RankedVersion = (VersionId, Option<AccelId>);

/// What a shard engine holds of migrated instances.
#[derive(Debug)]
struct Migration {
    /// Ends of migrated instances that ran here, awaiting routing to
    /// their homes by the driver.
    homeward: Vec<HomeNote>,
    /// The tasks [`Input::Offer`] may offer, fixed at
    /// build: the built-in set's single-input, accelerator-free tasks
    /// homed here, in topological order, each with its predecessor when
    /// that is homed here too (`None`: it ends on another shard).
    doors: Vec<(TaskId, Option<TaskId>)>,
}

/// One task's instances beyond a shard's queue: the one-instance
/// contract's book (shard engines only).
#[derive(Debug, Clone, Copy, Default)]
struct Flight {
    /// An instance homed here is out of this shard's hands — on its
    /// shelf, with a thief, or kept by a peer — and its end is not home
    /// yet.
    away: bool,
    /// A dispatch attempt found an instance away and left the job
    /// queued: what the end's coming home must retry.
    held: bool,
    /// Scratch of [`Input::Offer`]: an instance is queued here.
    queued: bool,
    /// Scratch of [`Input::Offer`]: offered in this pass.
    offered: bool,
}

/// What the engine keeps of one task: the constants of its spec that the
/// hot paths read, and the state of the slot's current holder.
#[derive(Debug)]
struct TaskRow {
    /// Period: the release scan re-arms with it.
    period: Duration,
    /// Effective relative deadline (`Duration::MAX` = unconstrained).
    rel_deadline: Duration,
    /// Static priority under the configured policy.
    static_priority: Priority,
    /// The most urgent ceiling posted since the high lane last became
    /// non-empty; [`Priority::LOWEST`] with no boost. A term of the fold.
    msg_ceiling: Priority,
    /// High-lane messages posted minus drained: the boost is held while
    /// this is non-zero.
    high_depth: u32,
    /// Assigned worker (`u16::MAX` = none): the home of its jobs, and
    /// their queue where each worker has one.
    worker: u16,
    /// WCET-overrun / body-failure policy.
    overrun_policy: OverrunPolicy,
    /// A version targets an accelerator: its jobs never migrate.
    accel_bound: bool,
    /// Its instances beyond a shard's queue.
    flight: Flight,
    /// Last activation (the sporadic inter-arrival check).
    last_activation: Option<Instant>,
    /// Its versions, best first, with each one's accelerator: a memo
    /// of the selection context `cache_ctx`, valid while `ranked_valid`.
    ranked: Vec<RankedVersion>,
    ranked_valid: bool,
}

impl TaskRow {
    /// The row of `task` of `merged` for a new holder of its slot: no
    /// activation, high-lane post, instance in flight (a former holder's
    /// end is dropped when it comes home, [`Input::Home`]) or ranking.
    /// It keeps the rank storage `ranked` the former holder leaves, large
    /// enough for a task of its shape; the task's `seq` carries on too.
    fn new(
        merged: &TaskSet,
        task: TaskId,
        policy: PriorityPolicy,
        mut ranked: Vec<RankedVersion>,
    ) -> Self {
        let t = &merged.tasks()[task.index()];
        ranked.clear();
        ranked.reserve(t.versions().len());
        TaskRow {
            period: t.spec().period(),
            rel_deadline: merged.effective_deadline(task),
            static_priority: merged.static_priority(task, policy),
            msg_ceiling: Priority::LOWEST,
            high_depth: 0,
            worker: t.spec().assigned_worker().map_or(u16::MAX, WorkerId::raw),
            overrun_policy: t.spec().overrun_policy(),
            accel_bound: t.versions().iter().any(|v| v.accel().is_some()),
            flight: Flight::default(),
            last_activation: None,
            ranked,
            ranked_valid: false,
        }
    }
}

/// The on-line scheduler state machine.
#[derive(Debug)]
pub struct OnlineEngine {
    taskset: Arc<TaskSet>,
    config: Config,
    queues: Vec<ReadyQueue>,
    running: Vec<Option<RunningJob>>,
    accels: AccelManager,
    /// The graph releases of the activation tokens each edge holds, in
    /// arrival order: an edge holds as many tokens as its FIFO's length.
    token_release: Vec<Vec<Instant>>,
    /// Next periodic release per task (`Instant::MAX` = not
    /// auto-released). Dense, beside the rows: the release scan is
    /// branch-predictable and cache-linear, which beats a timer heap at
    /// realistic task counts.
    next_release: Vec<Instant>,
    /// One row per task of the set.
    rows: Vec<TaskRow>,
    /// Minimum over `next_release`: ticks strictly before this instant
    /// skip the release scan entirely (O(1) idle ticks).
    next_wake: Instant,
    /// Per-task activation counter: the `seq` its next job gets. Beside
    /// the rows, since it carries on across a slot's holders and a
    /// [`CycleMark`] copies it whole.
    activation_seq: Vec<u64>,
    job_counter: u64,
    tick: Duration,
    started: bool,
    stopping: bool,
    mode: ExecMode,
    permissions: PermMask,
    stats: EngineStats,
    /// The selection context the rows' rankings were made under.
    cache_ctx: SelectCtx,
    /// Ranking scratch (in-place sort storage).
    rank_buf: RankBuf,
    /// `false` for user-defined policies, whose rankings never cache.
    policy_cacheable: bool,
    /// Whether the active policy reads the battery (Energy or
    /// user-defined); others skip the probe and key the cache off a
    /// constant battery so a drifting probe cannot thrash it.
    policy_uses_battery: bool,
    /// Busy accelerators wished for by the last `Blocked` choice.
    wish_buf: Vec<AccelId>,
    /// Frontier scratch for the ordered ready-queue scan behind
    /// [`Input::Lend`]; retained so steady-state
    /// stealing never allocates.
    steal_frontier: Vec<u32>,
    /// Jobs popped but unable to run this round (returned to the queue).
    blocked_buf: Vec<Job>,
    /// Distinct successor tasks of the job that just completed.
    successor_buf: Vec<TaskId>,
    /// Tokens for cross-shard edges, awaiting routing by the driver
    /// (shard engines only; always empty on the single-owner engine).
    outbox: Vec<RemoteActivation>,
    /// The instances that left this shard or came to it (shard engines
    /// only): behind one pointer, which keeps the engine's own layout —
    /// and its hot paths — as they are without migration.
    migration: Box<Migration>,
    /// Scratch for the ready-queue scans that cull or re-key jobs.
    cull_buf: Vec<JobId>,
    /// The tenant slots and their holders.
    tenants: SlotTable<Holding>,
    /// Start of the current miss-accounting window.
    miss_window_start: Instant,
    /// Deadline misses observed in the current window.
    miss_window_count: u32,
    /// The trip wire is tripped, until the window it tripped in ends:
    /// every job of a `LogOnly`-class task sheds (a term of the fold).
    tripped: bool,
    /// Queued jobs that overran, then were preempted: each resumes
    /// with its mark ([`RunningJob::overrun`]). At most what the queues
    /// hold, its capacity: it never reallocates.
    overran: Vec<JobId>,
    /// `Some(w)`: this engine is the *shard* owning only worker `w`
    /// (partitioned mapping). It holds exactly one queue and one running
    /// slot, releases only tasks assigned to `w`, and still reports the
    /// global `WorkerId` in every action. `None`: the classic
    /// single-owner engine over all workers.
    shard: Option<WorkerId>,
}

// Every engine call reads through this layout: four unread `Vec` fields
// once slowed `explore`'s DAG runs from ≈ 270 to ≈ 350 ns a job, which is
// why what is kept per task sits in the rows and migration behind a `Box`.
// A field added here is a measured choice. 832 bytes on x86-64.
const _: () = assert!(std::mem::size_of::<OnlineEngine>() <= 832);

impl OnlineEngine {
    /// Builds an engine for `taskset` under `config`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] if the task set has no tick source
    ///   (no recurring task and no tick override);
    /// * [`Error::MissingPartition`] / [`Error::UnknownWorker`] if
    ///   partitioned mapping lacks or exceeds worker assignments.
    pub fn new(taskset: Arc<TaskSet>, config: Config) -> Result<Self> {
        Self::new_inner(taskset, config, None)
    }

    /// Builds the *shard* of the engine owning only `worker`: one ready
    /// queue, one running slot, releases restricted to tasks assigned to
    /// `worker`. Built by [`crate::shard::EngineShard::build_all`], which
    /// also validates that the task set partitions cleanly across shards.
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::new`], plus [`Error::InvalidConfig`] unless
    /// the mapping is partitioned and `worker` exists.
    pub(crate) fn new_shard(
        taskset: Arc<TaskSet>,
        config: Config,
        worker: WorkerId,
    ) -> Result<Self> {
        if config.mapping() != MappingScheme::Partitioned {
            return Err(Error::InvalidConfig(
                "engine shards exist under partitioned mapping only".into(),
            ));
        }
        if worker.index() >= config.workers() {
            return Err(Error::UnknownWorker(worker));
        }
        let mut engine = Self::new_inner(Arc::clone(&taskset), config, Some(worker))?;
        let doors = taskset.topological_order().iter().filter_map(|&task| {
            let &[edge] = taskset.in_edge_ids(task) else {
                return None;
            };
            let pred = taskset.edges()[edge].src;
            let pred = engine.owns_task(pred).then_some(pred);
            engine.may_migrate(task).then_some((task, pred))
        });
        engine.migration.doors = doors.collect();
        Ok(engine)
    }

    fn new_inner(taskset: Arc<TaskSet>, config: Config, shard: Option<WorkerId>) -> Result<Self> {
        let tick = config.tick_override().or_else(|| taskset.scheduler_tick());
        // One ready queue per worker on the partitioned whole engine.
        let per_worker = shard.is_none() && config.mapping() == MappingScheme::Partitioned;
        let n_queues = if per_worker { config.workers() } else { 1 };
        let n_slots = if shard.is_some() { 1 } else { config.workers() };
        let queues = (0..n_queues)
            .map(|_| ReadyQueue::with_capacity(config.max_pending_jobs()))
            .collect();
        let policy_uses_battery = matches!(
            config.version_policy(),
            VersionPolicy::Energy | VersionPolicy::UserDefined(_)
        );
        let mut engine = OnlineEngine {
            accels: AccelManager::new(0),
            token_release: Vec::new(),
            next_release: Vec::new(),
            rows: Vec::new(),
            next_wake: Instant::MAX,
            activation_seq: Vec::new(),
            // Shards stamp their worker index into the id's high bits so
            // job ids stay unique across concurrently-numbering shards.
            job_counter: shard.map_or(0, |w| (w.index() as u64) << 48),
            tick: tick.unwrap_or(Duration::ZERO),
            started: false,
            stopping: false,
            mode: ExecMode::NORMAL,
            permissions: PermMask::ALL,
            stats: EngineStats::default(),
            cache_ctx: SelectCtx {
                battery: BatteryLevel::FULL,
                mode: ExecMode::NORMAL,
                permissions: PermMask::ALL,
            },
            rank_buf: RankBuf::new(),
            policy_cacheable: !matches!(config.version_policy(), VersionPolicy::UserDefined(_)),
            policy_uses_battery,
            wish_buf: Vec::new(),
            steal_frontier: Vec::with_capacity(if shard.is_some() {
                // k·(D-1) + 1 for the 4-ary heap at the batch cap.
                MAX_STEAL_BATCH * 3 + 1
            } else {
                0
            }),
            blocked_buf: Vec::with_capacity(config.max_pending_jobs().min(64)),
            successor_buf: Vec::new(),
            outbox: Vec::new(),
            migration: Box::new(Migration {
                homeward: Vec::with_capacity(if shard.is_some() {
                    config.max_pending_jobs().min(64)
                } else {
                    0
                }),
                doors: Vec::new(),
            }),
            cull_buf: Vec::with_capacity(config.max_pending_jobs().min(64)),
            tenants: SlotTable::default(),
            miss_window_start: Instant::ZERO,
            miss_window_count: 0,
            tripped: false,
            overran: Vec::with_capacity(n_queues * config.max_pending_jobs()),
            queues,
            running: vec![None; n_slots],
            shard,
            taskset: Arc::clone(&taskset),
            config,
        };
        engine.cache_ctx = engine.select_ctx();
        let slot = slot_past(&taskset, None);
        engine.add_tenant(taskset, TenantId::new(0), slot, None, None)?;
        // A partition error outranks a missing tick.
        engine.tick = tick.ok_or_else(|| {
            Error::InvalidConfig(
                "no recurring task: provide a tick override to drive the scheduler".into(),
            )
        })?;
        Ok(engine)
    }

    /// Installs `tenant` in `slot` of `merged`: past the tasks and edges
    /// this engine has (`recycled` is `None`) —
    /// tenant 0 from [`OnlineEngine::new`], committed, and later ones
    /// from [`Input::Install`], not yet — or in place of
    /// the retired holder of slot `recycled`, whose per-task and
    /// per-edge table entries are overwritten and keep their storage.
    /// Releases stay disarmed and the engine adopts `merged`. Nothing
    /// changes on an error: under partitioned mapping every task must
    /// sit on an existing worker, and a later tenant's periods must be
    /// multiples of the tick, which tenant 0 fixed.
    fn add_tenant(
        &mut self,
        merged: Arc<TaskSet>,
        tenant: TenantId,
        slot: Slot,
        recycled: Option<usize>,
        server: Option<ReservationServer>,
    ) -> Result<()> {
        let tasks = slot.task_range();
        let tick = (tenant.index() > 0).then_some(self.tick);
        check_fit(&merged, tasks.clone(), &self.config, tick)?;
        let (n0, n) = (tasks.start, tasks.len());
        put(&mut self.next_release, n0, repeat_n(Instant::MAX, n));
        // Continued across holders, so `(task, seq)` names one job a run.
        self.activation_seq
            .resize(self.activation_seq.len().max(tasks.end), 0);
        let policy = self.config.priority();
        self.rows.reserve(tasks.end.saturating_sub(self.rows.len()));
        for i in tasks.clone() {
            let task = TaskId::new(i as u32);
            let ranked = self.rows.get_mut(i).map(|r| std::mem::take(&mut r.ranked));
            let row = TaskRow::new(&merged, task, policy, ranked.unwrap_or_default());
            put(&mut self.rows, i, std::iter::once(row));
        }
        for i in slot.edge_range() {
            let e = merged.edges()[i];
            // Each edge's release FIFO holds its channel's declared
            // capacity, +1 for the transient over-capacity entry the
            // shedding policies trim, so token pushes — the cross-shard
            // inbound path included — never allocate in steady state.
            let cap = merged.channels()[e.channel.index()].capacity().max(1) + 1;
            match self.token_release.get_mut(i) {
                Some(fifo) => {
                    fifo.clear();
                    fifo.reserve(cap);
                }
                None => self.token_release.push(Vec::with_capacity(cap)),
            }
        }
        self.accels.grow_to(merged.accels().len());
        let max_versions = merged.tasks()[tasks].iter().map(|t| t.versions().len());
        self.rank_buf.reserve_for(max_versions.max().unwrap_or(0));
        // The hot-path scratch grows with the set, so the steady state
        // stays allocation-free.
        self.successor_buf.reserve(merged.len());
        self.wish_buf.reserve(merged.accels().len());
        if self.shard.is_some() {
            self.outbox.reserve(merged.edges().len());
        }
        let holding = Holding::new(tenant, recycled, server);
        self.tenants.add(tenant, slot, recycled, holding);
        self.taskset = merged;
        Ok(())
    }

    /// The scheduler-thread period (gcd of task periods, or the override).
    #[must_use]
    pub fn tick_period(&self) -> Duration {
        self.tick
    }

    /// The task set this engine schedules.
    #[must_use]
    pub fn taskset(&self) -> &TaskSet {
        &self.taskset
    }

    /// A shared handle to the task set — what admission control extends
    /// to build a merged set without cloning the live one.
    #[must_use]
    pub fn taskset_arc(&self) -> Arc<TaskSet> {
        Arc::clone(&self.taskset)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The current execution mode.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The worker this engine is a shard of, `None` for the whole-system
    /// single-owner engine.
    #[must_use]
    pub fn shard_worker(&self) -> Option<WorkerId> {
        self.shard
    }

    /// The `running`-slot index serving `worker`, `None` when this
    /// engine does not own that worker (foreign shard / out of range).
    fn slot_of(&self, worker: WorkerId) -> Option<usize> {
        match self.shard {
            None => (worker.index() < self.running.len()).then(|| worker.index()),
            Some(w) => (worker == w).then_some(0),
        }
    }

    /// The global worker id served by running-slot `slot`.
    fn worker_of_slot(&self, slot: usize) -> WorkerId {
        match self.shard {
            None => WorkerId::new(slot as u16),
            Some(w) => w,
        }
    }

    /// `true` when this engine releases jobs of `task` (always, unless a
    /// shard not owning the task's assigned worker).
    #[inline]
    fn owns_task(&self, task: TaskId) -> bool {
        let homed = |w: WorkerId| self.rows[task.index()].worker == w.raw();
        self.shard.is_none_or(homed)
    }

    /// What `worker` is currently executing.
    #[must_use]
    pub fn running(&self, worker: WorkerId) -> Option<&RunningJob> {
        let slot = self.slot_of(worker)?;
        self.running[slot].as_ref()
    }

    /// The most urgent ready job, through a shared reference — O(1) per
    /// queue since [`ReadyQueue::peek`] is index-tracked; for telemetry
    /// (the stealing probe is [`OnlineEngine::steal_hint`]).
    #[must_use]
    pub fn most_urgent_hint(&self) -> Option<&Job> {
        self.queues
            .iter()
            .filter_map(ReadyQueue::peek)
            .min_by_key(|j| j.queue_key())
    }

    /// Total jobs currently ready (not running).
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.queues.iter().map(ReadyQueue::len).sum()
    }

    /// `true` once every queue is empty and every worker idle — the drain
    /// condition after [`Input::Stop`].
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.ready_len() == 0 && self.running.iter().all(Option::is_none)
    }

    /// Tells the engine `input` at `now` — the one way a driver changes
    /// an engine — and appends the actions that follow to `sink`, which
    /// it does not clear. Each input's handler says whether it made
    /// something dispatchable; the one rule for whether a dispatch
    /// round follows is stated here ([`crate::input`]).
    ///
    /// # Errors
    ///
    /// The input's own, as its variant states. An input refused whole
    /// changes nothing and runs no round; [`Input::Tick`] and
    /// [`Input::Completed`] keep what they retired before the error.
    #[inline]
    pub fn apply(&mut self, now: Instant, input: &Input<'_>, sink: &mut ActionSink) -> Result<()> {
        let (round, out) = match *input {
            // A round always follows (an activation, once accepted) ...
            Input::Start => accepted(self.start(now, sink)),
            Input::Tick { done } => {
                let (_, out) = self.retire_each(done, now, sink);
                self.on_tick(now, sink);
                (true, out)
            }
            Input::Activate(task) => accepted(self.activate(task, now)),
            Input::Kept(token, c) => {
                self.adopt_kept(&token, &c);
                (true, Ok(()))
            }
            // ... only when the input changed something ...
            Input::Completed(done) => {
                let (retired, out) = self.retire_each(done, now, sink);
                (retired > 0, out)
            }
            Input::Failed(worker, job) => {
                accepted(self.retire(worker, job, JobOutcome::Failed, now, sink))
            }
            Input::Token(token) => changed(self.on_token(token)),
            Input::Home(note) => changed(self.instance_home(note)),
            Input::Msg(ev) => changed(self.on_msg(ev, sink)),
            Input::Adopt(jobs) => changed(self.adopt_batch(jobs)),
            // ... and never.
            Input::Overrun(task) => {
                self.force_overrun(task, now, sink);
                never(Ok(()))
            }
            Input::Lend { k } => {
                self.lend(k, sink);
                never(Ok(()))
            }
            Input::Returned(jobs) => {
                self.return_unclaimed(jobs);
                never(Ok(()))
            }
            Input::Offer => {
                self.offer(sink);
                never(Ok(()))
            }
            Input::Booked(c) => {
                self.book_kept(&c);
                never(Ok(()))
            }
            Input::Install {
                merged,
                tenant,
                first_task,
                budget,
            } => {
                let server = budget.map(|b| ReservationServer::new(b, now));
                never(self.install_tenant(Arc::clone(merged), tenant, first_task, server))
            }
            Input::Commit {
                tenant,
                anchor,
                since,
            } => never(self.commit_tenant(tenant, anchor, since)),
            Input::Retire(tenant) => never(self.retire_tenant(tenant, sink)),
            Input::Mode(mode) => {
                self.mode = mode;
                never(Ok(()))
            }
            Input::Permissions(perms) => {
                self.permissions = perms;
                never(Ok(()))
            }
            Input::Stop => {
                self.stop();
                never(Ok(()))
            }
            Input::Skip { since, n } => never(self.skip_cycles(since, n)),
        };
        if round {
            self.dispatch_round(now, sink);
        }
        out
    }

    /// [`Input::Start`] without its round.
    fn start(&mut self, now: Instant, sink: &mut ActionSink) -> Result<()> {
        if self.started && !self.stopping {
            return Err(Error::ScheduleRunning);
        }
        self.started = true;
        self.stopping = false;
        self.next_wake = Instant::MAX;
        for slot in 0..self.tenants.len() {
            self.arm_releases(slot, now);
        }
        self.on_tick(now, sink);
        Ok(())
    }

    /// Arms the first release of every periodic root of slot `slot` that
    /// this engine owns at `anchor + release_offset` — if its holder is
    /// live: committed and not retired.
    fn arm_releases(&mut self, slot: usize, anchor: Instant) {
        let Some(tasks) = self.tenants.armed_tasks(slot) else {
            return;
        };
        for i in tasks {
            let (id, spec) = (TaskId::new(i as u32), self.taskset.tasks()[i].spec());
            let root = self.taskset.in_degree(id) == 0;
            if root && spec.kind() == ActivationKind::Periodic && self.owns_task(id) {
                let r = anchor + spec.release_offset();
                self.next_release[i] = r;
                self.next_wake = self.next_wake.min(r);
            }
        }
    }

    /// [`Input::Stop`].
    fn stop(&mut self) {
        self.stopping = true;
        for r in &mut self.next_release {
            *r = Instant::MAX;
        }
        self.next_wake = Instant::MAX;
    }

    /// `true` when the schedule from `now` on depends on `now` alone —
    /// **quiescent**: nothing ready, running (so no accelerator held),
    /// tokened, message-boosted or waiting in the outbox, and nothing
    /// armed that remembers earlier instants or callers (a reservation
    /// server, WCET enforcement, the miss trip wire, deadline culling, a
    /// version policy that reads the battery or a user callback);
    /// **synchronous**: every auto-released task is due exactly at
    /// `now`. An engine not yet started is asked about [`Input::Start`] at
    /// `now`.
    fn recurs_at(&self, now: Instant) -> bool {
        let synchronous = if self.started {
            let due = |&r: &Instant| r == now || r == Instant::MAX;
            self.next_wake == now && self.next_release.iter().all(due)
        } else {
            let mut tasks = self.taskset.tasks().iter();
            tasks.all(|t| t.spec().release_offset() == Duration::ZERO)
        };
        let quiet = |r: &TaskRow| r.high_depth == 0 && !r.flight.away;
        synchronous
            && !self.stopping
            && self.is_idle()
            && self.outbox.is_empty()
            && self.migration.homeward.is_empty()
            && !(self.config.enforce_wcet() || self.config.cull_missed())
            && !self.policy_uses_battery
            && self.config.miss_trip().is_none()
            && self.token_release.iter().all(Vec::is_empty)
            && self.rows.iter().all(quiet)
            && self.tenants.iter().all(|t| t.holding.server.is_none())
    }

    /// The engine's running counts at `now`, if `now` is a **recurrence
    /// point**: the engine is quiescent and every auto-released task is
    /// due exactly at `now` (the start of a set without release offsets
    /// is one). From two such points on, as long as the driver
    /// feeds the engine nothing but ticks and completions and every job
    /// runs for a fixed time, the schedule repeats with the distance
    /// between them as its cycle; [`Input::Skip`] then advances the
    /// engine over whole cycles without running them.
    #[must_use]
    pub fn recurrence_mark(&self, now: Instant) -> Option<CycleMark> {
        self.recurs_at(now).then(|| CycleMark {
            at: now,
            job_counter: self.job_counter,
            activation_seq: self.activation_seq.clone(),
            stats: self.stats.clone(),
        })
    }

    /// [`Input::Skip`].
    fn skip_cycles(&mut self, since: &CycleMark, n: u64) -> Result<()> {
        let now = self.next_wake;
        let ours = since.at < now && since.activation_seq.len() == self.activation_seq.len();
        let shift = now.saturating_since(since.at).checked_mul(n);
        let (true, Some(shift)) = (self.started && ours && self.recurs_at(now), shift) else {
            return Err(Error::InvalidConfig(
                "skip_cycles needs a recurrence point past its mark".into(),
            ));
        };
        let seqs = self.activation_seq.iter_mut().zip(&since.activation_seq);
        let rows = self.rows.iter_mut().zip(&mut self.next_release);
        for ((seq, &marked), (row, next)) in seqs.zip(rows) {
            let fired = *seq - marked;
            *seq += fired * n;
            if let Some(last) = row.last_activation.as_mut().filter(|_| fired > 0) {
                *last += shift;
            }
            if *next != Instant::MAX {
                *next += shift;
            }
        }
        self.next_wake += shift;
        self.job_counter += (self.job_counter - since.job_counter) * n;
        self.stats.repeat_since(&since.stats, n);
        Ok(())
    }

    /// Number of tenant ids ever assigned: the built-in tenant 0 and
    /// every one installed since, retired ones included.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.next_id().index()
    }

    /// The tenant whose slot holds `task` — the last one, if retired —
    /// `None` for an unknown task.
    #[must_use]
    pub fn tenant_of_task(&self, task: TaskId) -> Option<TenantId> {
        self.tenants.of_task(task).map(|e| e.tenant)
    }

    /// `true` when the slot holding `task` is free: its last holder was
    /// retired and no tenant holds it since (`false` for unknown tasks).
    #[must_use]
    pub fn is_task_retired(&self, task: TaskId) -> bool {
        self.tenants.of_task(task).is_some_and(|e| e.retired)
    }

    /// `true` when `tenant` has been retired.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] for an id never admitted.
    pub fn is_tenant_retired(&self, tenant: TenantId) -> Result<bool> {
        match self.tenants.live(tenant) {
            Ok(_) => Ok(false),
            Err(Error::TenantRetired(_)) => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// The reservation server of `tenant`, `None` when the tenant is
    /// unbudgeted, retired or unknown.
    #[must_use]
    pub fn tenant_server(&self, tenant: TenantId) -> Option<&ReservationServer> {
        self.tenants.live(tenant).ok()?.holding.server.as_ref()
    }

    /// [`Input::Install`], with `server` serving the slot.
    fn install_tenant(
        &mut self,
        merged: Arc<TaskSet>,
        tenant: TenantId,
        first_task: u32,
        server: Option<ReservationServer>,
    ) -> Result<()> {
        if tenant < self.tenants.next_id() {
            return Err(Error::InvalidConfig(format!(
                "tenant {tenant} is not newer than every tenant installed"
            )));
        }
        let (n0, e0) = (self.taskset.len(), self.taskset.edges().len());
        let refuse = |why: &str| Error::InvalidConfig(format!("tenant install {why}"));
        if merged.accels().len() < self.taskset.accels().len()
            || merged.channels().len() < self.taskset.channels().len()
            || merged.edges().len() < e0
        {
            return Err(refuse("shrinks the task set"));
        }
        let (slot, recycled) = if first_task as usize == n0 {
            if merged.len() <= n0 {
                return Err(refuse("adds no tasks"));
            }
            (slot_past(&merged, Some(&self.taskset)), None)
        } else {
            let found = (self.tenants.free_slots()).find(|(_, e)| e.slot.first_task == first_task);
            let Some((i, free)) = found else {
                return Err(refuse(&format!("names no free slot at {first_task}")));
            };
            if merged.len() != n0 || merged.edges().len() != e0 {
                return Err(refuse("into a slot changes the set's length"));
            }
            (free.slot, Some(i))
        };
        let tasks = slot.task_range();
        let own = |t: TaskId| tasks.contains(&t.index());
        if (merged.edges()[slot.edge_range()].iter()).any(|e| !own(e.src) || !own(e.dst)) {
            return Err(refuse("has an edge leaving the tenant"));
        }
        self.add_tenant(merged, tenant, slot, recycled, server)
    }

    /// [`Input::Commit`].
    fn commit_tenant(
        &mut self,
        tenant: TenantId,
        mut anchor: Instant,
        since: Instant,
    ) -> Result<()> {
        if !self.started || self.stopping {
            return Err(Error::ScheduleNotRunning);
        }
        let (slot, undecided) = self.tenants.commit(tenant, since)?;
        if let Some(edges) = undecided {
            while anchor < since {
                anchor += self.tick;
            }
            // Tokens kept while it was undecided (`on_token`,
            // `fire_successors`): the former holder's are dropped, the
            // holder's may fire.
            for i in edges {
                let dst = self.taskset.edges()[i].dst;
                let tenants = &self.tenants;
                self.token_release[i].retain(|&r| tenants.verdict(dst, r) == Verdict::Holder);
                self.try_fire_joins(dst);
            }
        }
        self.arm_releases(slot, anchor);
        Ok(())
    }

    /// [`Input::Retire`].
    fn retire_tenant(&mut self, tenant: TenantId, sink: &mut ActionSink) -> Result<()> {
        let free = self.tenants.retire(tenant)?;
        let (tasks, edges) = (free.slot.task_range(), free.slot.edge_range());
        self.next_release[tasks.clone()].fill(Instant::MAX);
        for i in edges {
            self.token_release[i].clear();
        }
        // Its jobs running here finish and fire nothing, whatever their
        // graph release: one activated late in the pass that retires
        // it may carry an instant past where the slot's next holder
        // begins.
        let ours = |r: &&mut RunningJob| tasks.contains(&r.job.task.index());
        for r in self.running.iter_mut().flatten().filter(ours) {
            r.killed = true;
        }
        self.cull_ready(|j| tasks.contains(&j.task.index()), sink);
        Ok(())
    }

    /// [`Input::Tick`] after its completions and without its round:
    /// releases every periodic job due by `now`, enforces overruns and
    /// culls missed jobs where configured.
    fn on_tick(&mut self, now: Instant, sink: &mut ActionSink) {
        self.roll_miss_window(now, 0, sink);
        if now >= self.next_wake {
            let mut wake = Instant::MAX;
            for i in 0..self.next_release.len() {
                let mut r = self.next_release[i];
                if r <= now {
                    let task = TaskId::new(i as u32);
                    let period = self.rows[i].period;
                    while r <= now {
                        self.release_job(task, r, r);
                        r += period;
                    }
                    self.next_release[i] = r;
                }
                wake = wake.min(r);
            }
            self.next_wake = wake;
        }
        if self.config.enforce_wcet() {
            self.enforce_overruns(now, sink);
        }
        if self.config.cull_missed() {
            self.cull_ready(|j| j.deadline_missed_at(now), sink);
        }
    }

    /// Scans the running slots for jobs strictly past their enforcement
    /// deadline and applies each overrunning task's [`OverrunPolicy`]
    /// exactly once. Only called when `Config::enforce_wcet` opted in,
    /// so enforcement-off ticks pay nothing.
    fn enforce_overruns(&mut self, now: Instant, sink: &mut ActionSink) {
        for s in 0..self.running.len() {
            if self.running[s].as_ref().is_some_and(|r| now > r.enforce_by) {
                self.apply_overrun(s, now, sink);
            }
        }
    }

    /// Marks the job in running-slot `s` as overrunning: counts it,
    /// bills the overage to its tenant's reservation replica (so one
    /// tenant's overruns never eat another's budget), and applies the
    /// task's [`OverrunPolicy`] — once per job: `false` when the job
    /// was already marked.
    fn apply_overrun(&mut self, s: usize, now: Instant, sink: &mut ActionSink) -> bool {
        let r = self.running[s].as_mut().expect("caller checked the slot");
        if std::mem::replace(&mut r.overrun, true) {
            return false;
        }
        let (job, overage) = (r.job, now.saturating_since(r.enforce_by));
        r.killed |= self.rows[job.task.index()].overrun_policy == OverrunPolicy::Kill;
        self.refold(s, sink);
        self.stats.overruns += 1;
        if let Some(server) = self.tenants.holders_server(job.task, job.graph_release) {
            let _ = server.charge_overrun(now, overage);
        }
        true
    }

    /// [`Input::Overrun`]: flags the first running job of `task` not
    /// yet flagged.
    fn force_overrun(&mut self, task: TaskId, now: Instant, sink: &mut ActionSink) {
        let _flagged = (0..self.running.len()).any(|s| {
            let hit = self.running[s].as_ref().is_some_and(|r| r.job.task == task);
            hit && self.apply_overrun(s, now, sink)
        });
    }

    /// Books `misses` deadline misses at `now` for the trip wire, in a
    /// tumbling window: once a full one has elapsed the next opens at
    /// `now` with a count of zero. The wire is tripped exactly while the
    /// window's count exceeds the budget, and shedding is a level: each
    /// flip, the untrip at a roll included, re-keys every job of a
    /// `LogOnly`-class task. No-op when `Config::miss_trip` is disarmed.
    fn roll_miss_window(&mut self, now: Instant, misses: u32, sink: &mut ActionSink) {
        let Some((window, budget)) = self.config.miss_trip() else {
            return;
        };
        if now.saturating_since(self.miss_window_start) >= window {
            self.miss_window_start = now;
            self.miss_window_count = 0;
        }
        self.miss_window_count += misses;
        let tripped = self.miss_window_count > budget;
        if std::mem::replace(&mut self.tripped, tripped) != tripped {
            self.stats.miss_trips += u64::from(tripped);
            self.rekey(
                |e, t| e.rows[t.index()].overrun_policy == OverrunPolicy::LogOnly,
                sink,
            );
        }
    }

    /// `true` while the deadline-miss trip wire is tripped (shedding
    /// mode: every job of a `LogOnly`-class task runs in background).
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Removes every ready job `doomed` picks — each removal the
    /// queue's O(log n) [`ReadyQueue::remove`], located by an O(queue)
    /// scan — and reports it: one [`Action::Cull`] and one
    /// [`EngineStats::culled`] per job. Running jobs are never culled
    /// (they complete, and the simulator or runtime counts the miss).
    fn cull_ready(&mut self, doomed: impl Fn(&Job) -> bool, sink: &mut ActionSink) {
        let mut expired = std::mem::take(&mut self.cull_buf);
        for qi in 0..self.queues.len() {
            expired.clear();
            expired.extend(self.queues[qi].iter().filter(|j| doomed(j)).map(|j| j.id));
            for &job in &expired {
                if let Some(culled) = self.queues[qi].remove(job) {
                    self.overran.retain(|&o| o != job);
                    self.stats.culled += 1;
                    self.stats.culled_migrated += u64::from(self.send_home(&culled));
                    sink.push(Action::Cull { job });
                }
            }
        }
        expired.clear();
        self.cull_buf = expired;
    }

    /// [`Input::Activate`] without its round.
    fn activate(&mut self, task: TaskId, now: Instant) -> Result<()> {
        let t = self.taskset.task(task)?;
        if let Some(free) = self.tenants.of_task(task).filter(|e| e.retired) {
            return Err(Error::TenantRetired(free.tenant.raw()));
        }
        if !self.owns_task(task) {
            return Err(Error::InvalidConfig(format!(
                "task {task} is not assigned to this engine shard"
            )));
        }
        match t.spec().kind() {
            ActivationKind::Periodic => {
                return Err(Error::InvalidConfig(format!(
                    "periodic task {task} is released by the scheduler, not task_activate"
                )))
            }
            ActivationKind::Sporadic => {
                if let Some(last) = self.rows[task.index()].last_activation {
                    if now.saturating_since(last) < t.spec().period() {
                        self.stats.sporadic_violations += 1;
                    }
                }
            }
            ActivationKind::Aperiodic => {}
        }
        self.release_job(task, now, now);
        Ok(())
    }

    /// Retires `completions` in order up to the first that violates the
    /// completion protocol: how many retired, and that violation.
    #[inline]
    fn retire_each(
        &mut self,
        completions: &[(WorkerId, JobId)],
        now: Instant,
        sink: &mut ActionSink,
    ) -> (usize, Result<()>) {
        for (k, &(worker, job)) in completions.iter().enumerate() {
            if let Err(e) = self.retire(worker, job, JobOutcome::Completed, now, sink) {
                return (k, Err(e));
            }
        }
        (completions.len(), Ok(()))
    }

    /// The most urgent ready job as a work-stealing hint — O(1),
    /// through a shared reference, shard engines only (`None`
    /// otherwise). No hint is given for a job that must not migrate:
    /// one of an accelerator-bound task (accelerators are arbitrated
    /// shard-locally), or one this shard itself adopted from elsewhere
    /// — a job migrates **at most once**, so thieves can never bounce
    /// work around or hand a job back to its owner. This is the "is my
    /// top job stealable" probe a driver advertises its load by and
    /// filters victims with; grants go through [`Input::Lend`]. Nor is
    /// one given for a job of a task with an instance in flight (the
    /// one-instance contract, [`Input::Home`]).
    #[must_use]
    pub fn steal_hint(&self) -> Option<StealHint> {
        let job = self.queues[0].peek()?;
        (self.may_migrate(job.task) && !self.in_flight(job.task)).then_some(*job)
    }

    /// The one-instance contract: `true` while an instance of `task`
    /// homed here is out of the queue — running here, on the shelf, with
    /// a thief or kept by a peer — and its end is not home. Another
    /// instance of it is then neither dispatched nor shelved nor offered
    /// to be kept. Only shards let instances leave, so on the
    /// single-owner engine this is whether one runs.
    #[inline]
    fn in_flight(&self, task: TaskId) -> bool {
        self.rows[task.index()].flight.away
            || self.running.iter().flatten().any(|r| r.job.task == task)
    }

    /// `true` when a ready job of `task` may leave this engine for a
    /// thief: the engine is a shard, the task is homed on it (a job
    /// migrates at most once) and no version of it is bound to an
    /// accelerator (those are arbitrated shard-locally).
    #[inline]
    fn may_migrate(&self, task: TaskId) -> bool {
        self.shard.is_some() && self.owns_task(task) && !self.rows[task.index()].accel_bound
    }

    /// Detaches the hinted ready job for a thief: removes it from the
    /// ready queue in O(log n) via the index-tracked
    /// [`ReadyQueue::remove`]. `None` when the hint went stale (the job
    /// dispatched or was culled since the hint was taken) or the job
    /// must not migrate (accelerator-bound task, or a job this shard
    /// itself adopted — migration happens at most once).
    fn release_stolen(&mut self, hint: &StealHint) -> Option<Job> {
        if !self.may_migrate(hint.task) || self.in_flight(hint.task) {
            return None;
        }
        let job = self.queues[0].remove(hint.id)?;
        debug_assert_eq!(job.task, hint.task);
        self.rows[job.task.index()].flight.away = true;
        self.stats.donated += 1;
        Some(job)
    }

    /// Hands `hint` up to `k` (at most [`MAX_STEAL_BATCH`]) ready jobs
    /// in ascending queue-key order without detaching any, stopping at
    /// the first that must not migrate or whose task has an instance in
    /// flight ([`Input::Lend`]). Shard engines only.
    fn steal_hints(&mut self, k: usize, mut hint: impl FnMut(Job)) {
        let k = k.min(MAX_STEAL_BATCH);
        if self.shard.is_none() || k == 0 {
            return;
        }
        let (mut frontier, mut n) = (std::mem::take(&mut self.steal_frontier), 0);
        self.queues[0].scan_in_order(&mut frontier, |job| {
            if !self.may_migrate(job.task) || self.in_flight(job.task) {
                return false;
            }
            hint(*job);
            n += 1;
            n < k
        });
        self.steal_frontier = frontier;
    }

    /// [`Input::Lend`]: the hints go into `sink` as they are, and each
    /// is then detached in place or dropped — a second instance of one
    /// task among them is refused by the detach, which puts the first
    /// in flight.
    fn lend(&mut self, k: usize, sink: &mut ActionSink) {
        let first = sink.len();
        self.steal_hints(k, |job| sink.push(Action::Lend { job }));
        let mut lent = first;
        for i in first..sink.len() {
            let Action::Lend { job } = sink[i] else {
                continue;
            };
            if let Some(job) = self.release_stolen(&job) {
                sink[lent] = Action::Lend { job };
                lent += 1;
            }
        }
        sink.truncate(lent);
    }

    /// [`Input::Returned`].
    fn return_unclaimed(&mut self, jobs: &[Job]) {
        for &job in jobs {
            self.stats.donated -= 1;
            self.rows[job.task.index()].flight.away = false;
            if self.queues[0].push(job).is_err() {
                self.stats.channel_overflows += 1;
            }
        }
    }

    /// [`Input::Adopt`] without its round: `true` when the batch was
    /// not empty.
    fn adopt_batch(&mut self, jobs: &[Job]) -> Result<bool> {
        let Some(w) = self.shard else {
            return Err(Error::InvalidConfig(
                "only engine shards adopt stolen jobs".into(),
            ));
        };
        if let Some(job) = jobs.iter().find(|j| self.owns_task(j.task)) {
            return Err(Error::InvalidConfig(format!(
                "job of task {} is already owned by shard {w}",
                job.task
            )));
        }
        if jobs.is_empty() {
            return Ok(false);
        }
        for &job in jobs {
            self.adopt(job);
        }
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
        self.stats.stolen_batch += 1;
        let bucket = (jobs.len() - 1).min(self.stats.steal_batch_len.len() - 1);
        self.stats.steal_batch_len[bucket] += 1;
        Ok(true)
    }

    /// Queues a job that migrated here, counted in
    /// [`EngineStats::stolen`]; one the full queue refuses is lost, like
    /// every queue overflow, and its end goes home at once.
    fn adopt(&mut self, job: Job) {
        if self.queues[0].push(job).is_ok() {
            self.stats.stolen += 1;
        } else {
            self.stats.channel_overflows += 1;
            self.send_home(&job);
        }
    }

    /// Books the end of `job`, which ran, or left the queue, here: on a
    /// shard not its home, a [`HomeNote`] for the driver to route.
    /// `true` when `job` migrated here.
    #[inline]
    fn send_home(&mut self, job: &Job) -> bool {
        let migrated = self.shard.is_some() && !self.owns_task(job.task);
        if migrated {
            self.migration.homeward.push(HomeNote {
                worker: WorkerId::new(self.rows[job.task.index()].worker),
                task: job.task,
                graph_release: job.graph_release,
            });
        }
        migrated
    }

    /// Moves every pending [`HomeNote`] into `buf` (appended), for the
    /// driver to route to the home shards ([`Input::Home`]); reusable
    /// like [`OnlineEngine::drain_outbox_into`]'s buffer.
    pub fn drain_homeward_into(&mut self, buf: &mut Vec<HomeNote>) {
        buf.append(&mut self.migration.homeward);
    }

    /// [`Input::Home`] without its round: `true` when a dispatch
    /// attempt held the task's next instance back.
    fn instance_home(&mut self, note: HomeNote) -> Result<bool> {
        let task = note.task;
        if self.shard.is_none()
            || self.routed_here(task, note.graph_release, "an end")? == Verdict::Former
        {
            return Ok(false);
        }
        let flight = &mut self.rows[task.index()].flight;
        flight.away = false;
        Ok(std::mem::take(&mut flight.held))
    }

    /// [`Input::Offer`]: the offers are pushed in door order, then
    /// sorted by task and given their ids.
    fn offer(&mut self, sink: &mut ActionSink) {
        let first = sink.len();
        let (doors, rows) = (&self.migration.doors, &mut self.rows);
        if doors.is_empty() {
            return;
        }
        for job in self.queues[0].iter() {
            rows[job.task.index()].flight.queued = true;
        }
        let running = self.running[0].as_ref().map(|r| r.job.task);
        for &(task, pred) in doors {
            let ends_elsewhere = pred.is_none_or(|p| {
                let p = rows[p.index()].flight;
                p.away || p.offered
            });
            let t = &mut rows[task.index()].flight;
            if !t.queued && !t.away && running != Some(task) && ends_elsewhere {
                t.offered = true;
                let seq = self.activation_seq[task.index()];
                sink.push(Action::Offer(Continuation {
                    task,
                    seq,
                    id: JobId::new(0),
                }));
            }
        }
        for job in self.queues[0].iter() {
            rows[job.task.index()].flight.queued = false;
        }
        let offers = &mut sink[first..];
        offers.sort_unstable_by_key(|a| match a {
            Action::Offer(c) => c.task,
            _ => TaskId::new(u32::MAX),
        });
        for a in offers {
            if let Action::Offer(c) = a {
                rows[c.task.index()].flight.offered = false;
                c.id = JobId::new(self.job_counter);
                self.job_counter += 1;
            }
        }
    }

    /// [`Input::Booked`].
    fn book_kept(&mut self, c: &Continuation) {
        let i = c.task.index();
        self.activation_seq[i] = self.activation_seq[i].max(c.seq + 1);
        self.rows[i].flight.away = true;
        self.stats.released += 1;
        self.stats.donated += 1;
    }

    /// The foreign successor this shard may keep instead of routing
    /// `token` (completer side of work-first continuation): the edge's
    /// destination when it has one input, no accelerator-bound version
    /// and belongs to the built-in tenant — a token of which is always
    /// its holder's. `None` on the single-owner engine.
    #[must_use]
    pub fn keepable(&self, token: &RemoteActivation) -> Option<TaskId> {
        let dst = self.taskset.edges().get(token.edge as usize)?.dst;
        let builtin = self.tenants.of_task(dst)?.tenant.index() == 0;
        let single = self.taskset.in_degree(dst) == 1;
        let cpu = !self.rows[dst.index()].accel_bound;
        (self.shard.is_some() && !self.owns_task(dst) && builtin && single && cpu).then_some(dst)
    }

    /// [`Input::Kept`] without its round.
    fn adopt_kept(&mut self, token: &RemoteActivation, c: &Continuation) {
        let g = token.graph_release;
        let mut job = Job {
            id: c.id,
            task: c.task,
            seq: c.seq,
            release: g,
            graph_release: g,
            abs_deadline: self.abs_deadline(c.task, g),
            priority: Priority::LOWEST,
            preempted: false,
        };
        job.priority = self.fold(&job, None);
        self.adopt(job);
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
    }

    /// Validates and books the end of `job` on `worker` — frees the
    /// worker slot and any held accelerator, feeds the miss trip wire
    /// (a flip re-folds into `sink`), fires DAG successors — without
    /// running a dispatch round ([`Input::Completed`],
    /// [`Input::Failed`]).
    #[inline]
    fn retire(
        &mut self,
        worker: WorkerId,
        job: JobId,
        outcome: JobOutcome,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let verb = || match outcome {
            JobOutcome::Completed => "completed",
            JobOutcome::Failed => "failed",
        };
        let slot = self
            .slot_of(worker)
            .and_then(|s| self.running.get_mut(s))
            .ok_or(Error::UnknownWorker(worker))?;
        let running = slot.take().ok_or_else(|| {
            Error::InvalidConfig(format!("worker {worker} {} {job} while idle", verb()))
        })?;
        if running.job.id != job {
            let actual = running.job.id;
            *slot = Some(running);
            return Err(Error::InvalidConfig(format!(
                "worker {worker} {} {job} but runs {actual}",
                verb()
            )));
        }
        let task = running.job.task;
        let fires = match outcome {
            JobOutcome::Completed => {
                self.stats.completed += 1;
                if running.job.abs_deadline < now {
                    self.roll_miss_window(now, 1, sink);
                }
                true
            }
            JobOutcome::Failed => {
                self.stats.failed += 1;
                self.roll_miss_window(now, 1, sink);
                self.rows[task.index()].overrun_policy == OverrunPolicy::LogOnly
            }
        };
        if let Some(a) = running.accel {
            self.accels.release(a, job);
        }
        if fires && !running.killed {
            self.fire_successors(task, running.job.graph_release);
        }
        self.send_home(&running.job);
        Ok(())
    }

    /// Pushes one token per outgoing edge of `task` and releases any
    /// successor whose inputs are all present (§3.3: inner nodes are
    /// "automatically activated by the scheduler, once all required
    /// incoming data are present in their input channels"). Edge
    /// adjacency is the task set's own ([`TaskSet::out_edge_ids`],
    /// written when a tenant is placed) and the successor set lives in
    /// a reusable scratch, so firing allocates nothing.
    ///
    /// Token state is owned by the shard owning the edge's
    /// **destination**: an out-edge whose destination belongs to a
    /// foreign shard is not fired here — it lands in the outbox as a
    /// [`RemoteActivation`] for the driver to route, which is also why a
    /// *stolen* job completing on a thief shard stays consistent (the
    /// thief fires only the edges whose destinations it owns).
    fn fire_successors(&mut self, task: TaskId, graph_release: Instant) {
        // Edges never cross tenants, so skipping a former holder's whole
        // fan-out (local tokens *and* outbox entries) is exact. An
        // undecided job's tokens are routed, and booked here as
        // `on_token` books one.
        let undecided = match self.tenants.verdict(task, graph_release) {
            Verdict::Former => return,
            verdict => verdict == Verdict::Undecided,
        };
        let mut successors = std::mem::take(&mut self.successor_buf);
        successors.clear();
        for k in 0..self.taskset.out_edge_ids(task).len() {
            let i = self.taskset.out_edge_ids(task)[k];
            let dst = self.taskset.edges()[i].dst;
            if !self.owns_task(dst) {
                self.outbox.push(RemoteActivation {
                    worker: WorkerId::new(self.rows[dst.index()].worker),
                    edge: i as u32,
                    graph_release,
                });
                self.stats.cross_activations += 1;
                continue;
            }
            self.push_token(i, graph_release);
            if !undecided && !successors.contains(&dst) {
                successors.push(dst);
            }
        }
        for &dst in &successors {
            self.try_fire_joins(dst);
        }
        self.successor_buf = successors;
    }

    /// Books one token on edge `i` (no release attempt). A token
    /// arriving on a full channel is resolved by the channel's
    /// [`BackpressurePolicy`]: `Reject` counts the overflow and keeps
    /// everything (historic behaviour); `DropOldest` sheds the oldest
    /// buffered token; `DeadlineAwareDrop` sheds the token with the
    /// latest downstream release (the least urgent). The shedding paths
    /// leave the FIFO length unchanged, so pre-reserved release buffers
    /// never reallocate under overload.
    fn push_token(&mut self, i: usize, graph_release: Instant) {
        let spec = &self.taskset.channels()[self.taskset.edges()[i].channel.index()];
        let fifo = &mut self.token_release[i];
        let full = spec.capacity() > 0 && fifo.len() >= spec.capacity();
        fifo.push(graph_release);
        match (full, spec.backpressure()) {
            (false, _) | (true, BackpressurePolicy::Reject) => {
                self.stats.channel_overflows += u64::from(full);
            }
            (true, BackpressurePolicy::DropOldest) => {
                fifo.remove(0);
                self.stats.shed_drops += 1;
            }
            (true, BackpressurePolicy::DeadlineAwareDrop) => {
                // Shed the least urgent instance: the one whose graph
                // release (hence derived deadline) is latest. Ties keep
                // the older instance (FIFO stability).
                let mut worst = 0;
                for k in 1..fifo.len() {
                    if fifo[k] > fifo[worst] {
                        worst = k;
                    }
                }
                fifo.remove(worst);
                self.stats.shed_drops += 1;
            }
        }
    }

    /// Releases instances of `dst` while every input edge holds a token.
    fn try_fire_joins(&mut self, dst: TaskId) {
        loop {
            let inputs = self.taskset.in_edge_ids(dst);
            if inputs.iter().any(|&i| self.token_release[i].is_empty()) {
                break;
            }
            // Consume one token per input; the graph release of the
            // new job is the *oldest* input instance (join semantics).
            let mut release = Instant::ZERO;
            for &i in inputs {
                release = release.max(self.token_release[i].remove(0));
            }
            self.release_job(dst, release, release);
        }
    }

    /// [`Input::Token`] without its round: `true` when the token is its
    /// holder's.
    fn on_token(&mut self, token: RemoteActivation) -> Result<bool> {
        let RemoteActivation {
            edge,
            graph_release,
            ..
        } = token;
        let i = edge as usize;
        if i >= self.taskset.edges().len() {
            return Err(Error::InvalidConfig(format!(
                "remote token names edge {edge} of {}",
                self.taskset.edges().len()
            )));
        }
        let dst = self.taskset.edges()[i].dst;
        // A token racing a tenant retirement (sent before the source
        // shard learned of it) is silently dropped, not a protocol
        // error. An undecided one is kept for the commit to sort.
        let verdict = self.routed_here(dst, graph_release, "remote token")?;
        if verdict != Verdict::Former {
            self.push_token(i, graph_release);
        }
        if verdict != Verdict::Holder {
            return Ok(false);
        }
        self.try_fire_joins(dst);
        Ok(true)
    }

    /// Moves every pending [`RemoteActivation`] into `buf` (appended;
    /// the outbox is left empty). Drivers call this after any engine
    /// interaction that may complete jobs and route each entry to the
    /// owning shard. The caller's buffer is reusable, so the steady
    /// state allocates nothing.
    pub fn drain_outbox_into(&mut self, buf: &mut Vec<RemoteActivation>) {
        buf.append(&mut self.outbox);
    }

    /// [`Input::Msg`] without its round: `true` after a post and after
    /// the drain that releases the boost.
    fn on_msg(&mut self, ev: MsgEvent, sink: &mut ActionSink) -> Result<bool> {
        // A message names no graph instance: only a free slot drops it.
        if self.routed_here(ev.dst(), Instant::MAX, "message event")? == Verdict::Former {
            return Ok(false);
        }
        Ok(match ev {
            MsgEvent::HighPosted { dst, ceiling } => {
                self.boost(dst, ceiling, sink);
                true
            }
            MsgEvent::HighDrained { dst } => self.release_drained(dst, sink),
        })
    }

    /// Books a high-lane post for `dst`; a tighter ceiling raises its
    /// jobs (each raised one counted in [`EngineStats::msg_boosts`]).
    fn boost(&mut self, dst: TaskId, ceiling: Priority, sink: &mut ActionSink) {
        let row = &mut self.rows[dst.index()];
        row.high_depth += 1;
        if ceiling.is_higher_than(row.msg_ceiling) {
            row.msg_ceiling = ceiling;
            self.stats.msg_boosts += self.rekey(|_, t| t == dst, sink);
        }
    }

    /// Books one drained high-lane message of `dst`; `true` when it was
    /// the last outstanding post and released a boost.
    fn release_drained(&mut self, dst: TaskId, sink: &mut ActionSink) -> bool {
        let row = &mut self.rows[dst.index()];
        debug_assert!(row.high_depth > 0, "drained an empty high lane");
        row.high_depth = row.high_depth.saturating_sub(1);
        if row.high_depth > 0 {
            return false;
        }
        let ceiling = std::mem::replace(&mut row.msg_ceiling, Priority::LOWEST);
        if ceiling == Priority::LOWEST {
            return false;
        }
        self.rekey(|_, t| t == dst, sink);
        true
    }

    /// Re-keys every queued job of a task `hit` names at its fold
    /// ([`OnlineEngine::fold`]) and re-folds its running ones: what a
    /// post, a drain, the trip and the untrip do once they have changed
    /// their input. Returns how many of the jobs changed.
    fn rekey(&mut self, hit: impl Fn(&Self, TaskId) -> bool, sink: &mut ActionSink) -> u64 {
        let (mut stale, mut n) = (std::mem::take(&mut self.cull_buf), 0);
        for qi in 0..self.queues.len() {
            stale.clear();
            let moves = |j: &&Job| hit(self, j.task) && self.fold(j, None) != j.priority;
            stale.extend(self.queues[qi].iter().filter(moves).map(|j| j.id));
            for &id in &stale {
                let job = self.queues[qi].remove(id).expect("job was just iterated");
                let priority = self.fold(&job, None);
                let _ = self.queues[qi].push(Job { priority, ..job });
            }
            n += stale.len() as u64;
        }
        stale.clear();
        self.cull_buf = stale;
        for s in 0..self.running.len() {
            let ours = self.running[s].is_some_and(|r| hit(self, r.job.task));
            n += u64::from(ours && self.refold(s, sink));
        }
        n
    }

    /// Whether an event routed to `dst` — a cross-shard token of the
    /// graph instance released at `graph_release`, a high-lane post or
    /// drain — applies to this engine, and whose it is: `Former` for a
    /// task of a retired tenant or a former holder's token (the event is
    /// dropped), [`Error::UnknownTask`] for an out-of-range task and
    /// [`Error::InvalidConfig`] for a shard not owning it — routing
    /// bugs, not runtime conditions. `what` names the event.
    fn routed_here(&self, dst: TaskId, graph_release: Instant, what: &str) -> Result<Verdict> {
        if dst.index() >= self.taskset.len() {
            return Err(Error::UnknownTask(dst));
        }
        let verdict = self.tenants.verdict(dst, graph_release);
        if verdict != Verdict::Former && !self.owns_task(dst) {
            return Err(Error::InvalidConfig(format!(
                "{what} for {dst} routed to a shard not owning it"
            )));
        }
        Ok(verdict)
    }

    /// Outstanding high-priority messages for `task` (posted minus
    /// drained); the message boost is held while this is non-zero.
    #[must_use]
    pub fn high_lane_depth(&self, task: TaskId) -> u32 {
        self.rows.get(task.index()).map_or(0, |r| r.high_depth)
    }

    /// The ceiling `task` currently inherits from its high message lane,
    /// or `None` when no boost is active.
    #[must_use]
    pub fn active_msg_ceiling(&self, task: TaskId) -> Option<Priority> {
        let c = self.rows.get(task.index()).map(|r| r.msg_ceiling);
        c.filter(|&c| c != Priority::LOWEST)
    }

    /// The one fold: every priority the engine holds, a queued job's key
    /// or the effective priority of one running in `r`. A job that
    /// overran under [`OverrunPolicy::DemoteToBackground`] (a queued one:
    /// then was preempted) is at [`Priority::LOWEST`]; any other at its
    /// base — the deadline under EDF, the task's static priority
    /// otherwise, background while the task sheds (`LogOnly` and
    /// tripped) — raised by the task's active ceiling and by PIP.
    fn fold(&self, job: &Job, r: Option<&RunningJob>) -> Priority {
        let row = &self.rows[job.task.index()];
        let policy = row.overrun_policy;
        let marked = || job.preempted && self.overran.contains(&job.id);
        if policy == OverrunPolicy::DemoteToBackground && r.map_or_else(marked, |r| r.overrun) {
            return Priority::LOWEST;
        }
        let base = match self.config.priority() {
            _ if self.tripped && policy == OverrunPolicy::LogOnly => Priority::LOWEST,
            PriorityPolicy::EarliestDeadlineFirst => Priority::earliest_deadline(job.abs_deadline),
            _ => row.static_priority,
        };
        let (ceiling, inherited) = (row.msg_ceiling, r.and_then(|r| r.inherited));
        base.min(inherited.map_or(ceiling, |i| i.min(ceiling)))
    }

    fn release_job(&mut self, task: TaskId, release: Instant, graph_release: Instant) {
        debug_assert!(
            !self.is_task_retired(task),
            "released a job of retired-tenant task {task}"
        );
        let seq = self.activation_seq[task.index()];
        self.activation_seq[task.index()] += 1;
        self.rows[task.index()].last_activation = Some(release);
        let mut job = Job {
            id: JobId::new(self.job_counter),
            task,
            seq,
            release,
            graph_release,
            abs_deadline: self.abs_deadline(task, graph_release),
            priority: Priority::LOWEST,
            preempted: false,
        };
        job.priority = self.fold(&job, None);
        self.job_counter += 1;
        let qi = self.queue_index(task);
        if self.queues[qi].push(job).is_err() {
            // A sizing error; surfaced through the stats rather than
            // panicking mid-schedule.
            self.stats.channel_overflows += 1;
        } else {
            self.stats.released += 1;
        }
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
    }

    /// The absolute deadline of `task`'s job of the graph instance
    /// released at `graph_release` (deadlines are the graph's, §2).
    fn abs_deadline(&self, task: TaskId, graph_release: Instant) -> Instant {
        match self.rows[task.index()].rel_deadline {
            d if d == Duration::MAX => Instant::MAX,
            d => graph_release + d,
        }
    }

    fn queue_index(&self, task: TaskId) -> usize {
        debug_assert!(self.owns_task(task), "shard released a foreign task");
        // A task waits in its worker's queue where each has one.
        match self.queues.len() {
            1 => 0,
            _ => self.rows[task.index()].worker as usize,
        }
    }

    fn select_ctx(&self) -> SelectCtx {
        SelectCtx {
            // Battery-independent policies get a constant placeholder:
            // probing the battery on every dispatch would both cost a
            // callback and, with a drifting probe, invalidate the rank
            // cache on every call for no behavioural reason.
            battery: if self.policy_uses_battery {
                self.config.read_battery()
            } else {
                BatteryLevel::FULL
            },
            mode: self.mode,
            permissions: self.permissions,
        }
    }

    /// Ensures the rank cache entry for `task` is valid under the
    /// current selection context, recomputing it lazily. The whole cache
    /// is invalidated whenever the context (mode, permissions, battery)
    /// changes; user-defined policies are never cached since the
    /// callback may be stateful.
    #[inline]
    fn refresh_rank_cache(&mut self, task: TaskId) {
        let ctx = self.select_ctx();
        let ti = task.index();
        if ctx == self.cache_ctx {
            if self.policy_cacheable && self.rows[ti].ranked_valid {
                return; // steady-state fast path
            }
        } else {
            for row in &mut self.rows {
                row.ranked_valid = false;
            }
            self.cache_ctx = ctx;
        }
        let task_ref = &self.taskset.tasks()[ti];
        rank_versions_into(
            self.config.version_policy(),
            &ctx,
            task_ref,
            &mut self.rank_buf,
        );
        let row = &mut self.rows[ti];
        row.ranked.clear();
        row.ranked.extend(
            self.rank_buf
                .as_slice()
                .iter()
                .map(|&v| (v, task_ref.versions()[v.index()].accel())),
        );
        row.ranked_valid = self.policy_cacheable;
    }

    fn choose_version(&mut self, task: TaskId) -> VersionChoice {
        self.refresh_rank_cache(task);
        let ti = task.index();
        let ranked = &self.rows[ti].ranked;
        if ranked.is_empty() {
            return VersionChoice::NoEligible;
        }
        self.wish_buf.clear();
        for &(v, accel) in ranked {
            match accel {
                None => return VersionChoice::Run(v, None),
                Some(a) if self.accels.is_free(a) => return VersionChoice::Run(v, Some(a)),
                Some(a) => {
                    if !self.wish_buf.contains(&a) {
                        self.wish_buf.push(a);
                    }
                }
            }
        }
        VersionChoice::Blocked
    }

    fn start_job(
        &mut self,
        worker: WorkerId,
        job: Job,
        version: VersionId,
        accel: Option<AccelId>,
        now: Instant,
        actions: &mut ActionSink,
    ) {
        if let Some(a) = accel {
            self.accels
                .acquire(a, job.id, worker)
                .expect("choose_version verified the accelerator is free");
        }
        // The enforcement budget is the selected version's declared
        // WCET, armed from the dispatch instant (a preempted job gets a
        // fresh budget on re-dispatch — its prior slice is not carried).
        let enforce_by = if self.config.enforce_wcet() {
            now + self.taskset.tasks()[job.task.index()].versions()[version.index()].wcet()
        } else {
            Instant::MAX
        };
        let slot = self.slot_of(worker).expect("dispatch targets owned worker");
        // A mark costs a resume nothing while no job that overran waits.
        let overran = job.preempted && self.overran.contains(&job.id);
        if overran {
            self.overran.retain(|&o| o != job.id);
        }
        let mut seat = RunningJob {
            job,
            version,
            accel,
            effective_priority: job.priority,
            inherited: None,
            enforce_by,
            overrun: overran,
            killed: overran && self.rows[job.task.index()].overrun_policy == OverrunPolicy::Kill,
        };
        seat.effective_priority = self.fold(&job, Some(&seat));
        self.running[slot] = Some(seat);
        self.stats.dispatched += 1;
        actions.push(Action::Dispatch {
            worker,
            job,
            version,
        });
    }

    /// Applies PIP to every busy accelerator the blocked job wanted: a
    /// holder less urgent than the blocked job inherits its priority.
    fn apply_pip(&mut self, blocked: &Job, wishes: &[AccelId], actions: &mut ActionSink) {
        let p = blocked.priority;
        for &a in wishes {
            let fold = |h: AccelHolder| self.running(h.worker).map_or(p, |r| r.effective_priority);
            let holder = self.accels.boost_holder(a, p, fold);
            if let Some(s) = holder.and_then(|h| self.slot_of(h.worker)) {
                let r = self.running[s].as_mut().expect("a holder runs");
                r.inherited = Some(r.inherited.map_or(p, |i| i.min(p)));
                self.stats.pip_boosts += u64::from(self.refold(s, actions));
            }
        }
        self.stats.blocked_skips += 1;
    }

    /// Re-folds the job running in slot `s` ([`OnlineEngine::fold`]) and
    /// reports a change, raised or lowered: one [`Action::Boost`].
    fn refold(&mut self, s: usize, actions: &mut ActionSink) -> bool {
        let mut r = self.running[s].expect("a running job is folded");
        let priority = self.fold(&r.job, Some(&r));
        let changed = std::mem::replace(&mut r.effective_priority, priority) != priority;
        if changed {
            self.running[s] = Some(r);
            let (worker, job) = (self.worker_of_slot(s), r.job.id);
            actions.push(Action::Boost {
                worker,
                job,
                priority,
            });
        }
        changed
    }

    fn workers_fed_by(&self, queue_idx: usize) -> std::ops::Range<usize> {
        match self.config.mapping() {
            MappingScheme::Global => 0..self.running.len(),
            MappingScheme::Partitioned => queue_idx..queue_idx + 1,
        }
    }

    /// Charges the dispatch of `job` with `version` against its
    /// tenant's reservation server, if any. All-or-nothing on the
    /// selected version's WCET; `false` defers the job to a later round
    /// (counted in [`EngineStats::budget_deferrals`]).
    #[inline]
    fn charge_budget(&mut self, job: &Job, version: VersionId, now: Instant) -> bool {
        let Some(server) = self.tenants.holders_server(job.task, job.graph_release) else {
            return true;
        };
        let wcet = self.taskset.tasks()[job.task.index()].versions()[version.index()].wcet();
        if server.try_charge(now, wcet) {
            true
        } else {
            self.stats.budget_deferrals += 1;
            false
        }
    }

    fn dispatch_round(&mut self, now: Instant, actions: &mut ActionSink) {
        for qi in 0..self.queues.len() {
            self.fill_idle_workers(qi, now, actions);
            if self.config.preemption() {
                self.preempt_round(qi, now, actions);
            }
        }
    }

    fn fill_idle_workers(&mut self, qi: usize, now: Instant, actions: &mut ActionSink) {
        loop {
            let idle = self.workers_fed_by(qi).find(|&w| self.running[w].is_none());
            let Some(w) = idle else { break };
            let Some(job) = self.queues[qi].pop() else {
                break;
            };
            self.dispatch_attempt(qi, w, job, now, actions);
        }
        self.requeue_blocked(qi);
    }

    /// Preempts while queue `qi`'s top beats the least urgent running
    /// job it feeds. The loop ends: a victim re-enters its queue at its
    /// fold, which the job that replaces it beats, and that job runs at
    /// its own fold, its key — so each turn leaves the running set
    /// strictly more urgent.
    fn preempt_round(&mut self, qi: usize, now: Instant, actions: &mut ActionSink) {
        // The no-preempt fast path compares priorities only, through the
        // heap root's key — the queued job's payload is read just when a
        // preemption actually proceeds.
        while let Some(top_priority) = self.queues[qi].peek_priority() {
            // Least-urgent preemptable running job fed by this queue;
            // accelerator holders are not preemptable.
            let victim = self
                .workers_fed_by(qi)
                .filter_map(|w| {
                    self.running[w]
                        .as_ref()
                        .filter(|r| r.accel.is_none())
                        .map(|r| (w, r.effective_priority))
                })
                .max_by_key(|&(w, p)| (p, w));
            let Some((w, victim_prio)) = victim else {
                break;
            };
            if !top_priority.is_higher_than(victim_prio) {
                break;
            }
            let top = self.queues[qi].pop().expect("priority was peeked");
            self.dispatch_attempt(qi, w, top, now, actions);
        }
        self.requeue_blocked(qi);
    }

    /// One dispatch attempt: `job`, just popped from queue `qi`, is
    /// offered running slot `w` — unless an instance of its task is away
    /// ([`OnlineEngine::in_flight`]). Its version is chosen and its
    /// tenant's budget charged; then it starts on `w`, preempting the
    /// job there (which goes back to `qi`). A job refused any way waits in
    /// `blocked_buf` for the end of the round — after boosting by PIP
    /// whatever holds the accelerators it wished for.
    #[inline]
    fn dispatch_attempt(
        &mut self,
        qi: usize,
        w: usize,
        job: Job,
        now: Instant,
        actions: &mut ActionSink,
    ) {
        // The one-instance contract: it waits for its predecessor's end
        // (only shards let instances leave).
        if self.shard.is_some() {
            let flight = &mut self.rows[job.task.index()].flight;
            if flight.away {
                flight.held = true;
                return self.blocked_buf.push(job);
            }
        }
        let (version, accel) = match self.choose_version(job.task) {
            VersionChoice::Run(v, a) => (v, a),
            VersionChoice::Blocked => {
                let wishes = std::mem::take(&mut self.wish_buf);
                self.apply_pip(&job, &wishes, actions);
                self.wish_buf = wishes;
                return self.blocked_buf.push(job);
            }
            VersionChoice::NoEligible => {
                self.stats.blocked_skips += 1;
                return self.blocked_buf.push(job);
            }
        };
        if !self.charge_budget(&job, version, now) {
            return self.blocked_buf.push(job);
        }
        let worker = self.worker_of_slot(w);
        if let Some(victim) = self.running[w].take() {
            // It re-enters at its fold: a victim holds no accelerator, so
            // inherits nothing, and one that overran keeps its mark.
            let old = Job {
                preempted: true,
                priority: victim.effective_priority,
                ..victim.job
            };
            actions.push(Action::Preempt {
                worker,
                job: old.id,
            });
            self.stats.preempted += 1;
            if self.queues[qi].push(old).is_ok() && victim.overrun {
                self.overran.push(old.id);
            }
        }
        self.start_job(worker, job, version, accel, now, actions);
    }

    /// Puts back into queue `qi` the jobs this round's dispatch attempts
    /// set aside.
    fn requeue_blocked(&mut self, qi: usize) {
        for job in self.blocked_buf.drain(..) {
            let _ = self.queues[qi].push(job);
        }
    }

    // The entry points the benchmark harness calls, kept until its
    // next re-baseline rewrites it onto `apply`; nothing else may call
    // them.

    /// [`Input::Start`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Start`")]
    pub fn start_into(&mut self, now: Instant, sink: &mut ActionSink) -> Result<()> {
        self.apply(now, &Input::Start, sink)
    }

    /// A bare [`Input::Tick`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Tick`")]
    pub fn on_tick_into(&mut self, now: Instant, sink: &mut ActionSink) {
        let _ = self.apply(now, &Input::Tick { done: &[] }, sink);
    }

    /// [`Input::Completed`] of one job.
    ///
    /// # Errors
    ///
    /// As [`Input::Completed`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Completed`")]
    pub fn on_job_completed_into(
        &mut self,
        worker: WorkerId,
        job: JobId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.apply(now, &Input::Completed(&[(worker, job)]), sink)
    }

    /// [`Input::Completed`].
    ///
    /// # Errors
    ///
    /// As [`Input::Completed`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Completed`")]
    pub fn on_jobs_completed_into(
        &mut self,
        done: &[(WorkerId, JobId)],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.apply(now, &Input::Completed(done), sink)
    }

    /// [`Input::Tick`].
    ///
    /// # Errors
    ///
    /// As [`Input::Tick`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Tick`")]
    pub fn advance_into(
        &mut self,
        done: &[(WorkerId, JobId)],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.apply(now, &Input::Tick { done }, sink)
    }

    /// [`Input::Token`] for `edge`.
    ///
    /// # Errors
    ///
    /// As [`Input::Token`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Token`")]
    pub fn on_remote_token(
        &mut self,
        edge: u32,
        graph_release: Instant,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let worker = self.shard.unwrap_or(WorkerId::new(0));
        let token = RemoteActivation {
            worker,
            edge,
            graph_release,
        };
        self.apply(now, &Input::Token(token), sink)
    }

    /// The hints [`Input::Lend`] would detach, into `out` (cleared), not
    /// detached; how many.
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Lend`")]
    pub fn try_steal_batch(&mut self, k: usize, out: &mut Vec<StealHint>) -> usize {
        out.clear();
        self.steal_hints(k, |job| out.push(job));
        out.len()
    }

    /// Detaches the first [`MAX_STEAL_BATCH`] of `hints` that may still
    /// migrate, into `out`; how many.
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Lend`")]
    pub fn release_stolen_batch(&mut self, hints: &[StealHint], out: &mut JobBatch) -> usize {
        let before = out.len();
        for hint in hints.iter().take(MAX_STEAL_BATCH) {
            out.extend(self.release_stolen(hint));
        }
        out.len() - before
    }

    /// [`Input::Adopt`].
    ///
    /// # Errors
    ///
    /// As [`Input::Adopt`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Adopt`")]
    pub fn adopt_stolen_batch(
        &mut self,
        jobs: &[Job],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.apply(now, &Input::Adopt(jobs), sink)
    }

    /// [`Input::Install`] at the end of the set, as the next tenant; a
    /// budget's server is anchored at [`Instant::ZERO`].
    ///
    /// # Errors
    ///
    /// As [`Input::Install`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Install`")]
    pub fn splice_taskset(
        &mut self,
        merged: Arc<TaskSet>,
        budget: Option<TenantBudget>,
    ) -> Result<TenantId> {
        let (tenant, first_task) = (self.tenants.next_id(), self.taskset.len() as u32);
        let install = Input::Install {
            merged: &merged,
            tenant,
            first_task,
            budget,
        };
        self.apply(Instant::ZERO, &install, &mut ActionSink::new())?;
        Ok(tenant)
    }

    /// [`Input::Commit`] anchored at `now`, then a bare [`Input::Tick`].
    ///
    /// # Errors
    ///
    /// As [`Input::Commit`].
    #[deprecated(note = "use `OnlineEngine::apply` with `Input::Commit`")]
    pub fn commit_tenant_into(
        &mut self,
        tenant: TenantId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let (anchor, since) = (now, now);
        self.apply(
            now,
            &Input::Commit {
                tenant,
                anchor,
                since,
            },
            sink,
        )?;
        self.apply(now, &Input::Tick { done: &[] }, sink)
    }
}

/// A dispatch round follows an input the engine accepted.
#[inline]
fn accepted(out: Result<()>) -> (bool, Result<()>) {
    (out.is_ok(), out)
}

/// A dispatch round follows an input whose handler says it made
/// something dispatchable.
#[inline]
fn changed(out: Result<bool>) -> (bool, Result<()>) {
    match out {
        Ok(round) => (round, Ok(())),
        Err(e) => (false, Err(e)),
    }
}

/// No dispatch round follows.
#[inline]
fn never(out: Result<()>) -> (bool, Result<()>) {
    (false, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::config::VersionPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: u64) -> Instant {
        Instant::from_nanos(v * 1_000_000)
    }

    fn posted(dst: TaskId, ceiling: Priority) -> MsgEvent {
        MsgEvent::HighPosted { dst, ceiling }
    }

    fn drained(dst: TaskId) -> MsgEvent {
        MsgEvent::HighDrained { dst }
    }

    /// Installs the tenant of `merged`'s last slot at `now`, past every
    /// task of `e`, as the next tenant.
    fn splice(
        e: &mut OnlineEngine,
        merged: &Arc<TaskSet>,
        budget: Option<TenantBudget>,
        now: Instant,
    ) -> TenantId {
        let tenant = TenantId::new(e.tenant_count() as u32);
        let first_task = e.taskset().len() as u32;
        let install = Input::Install {
            merged,
            tenant,
            first_task,
            budget,
        };
        e.apply(now, &install, &mut ActionSink::new()).unwrap();
        tenant
    }

    /// Commits `tenant` at `now` and ticks there, as an exact driver
    /// does.
    fn commit(
        e: &mut OnlineEngine,
        tenant: TenantId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let (anchor, since) = (now, now);
        e.apply(
            now,
            &Input::Commit {
                tenant,
                anchor,
                since,
            },
            sink,
        )?;
        e.apply(now, &Input::Tick { done: &[] }, sink)
    }

    /// What one engine call appends to a fresh sink.
    fn emitted(call: impl FnOnce(&mut ActionSink)) -> Vec<Action> {
        let mut sink = ActionSink::new();
        call(&mut sink);
        sink
    }

    /// Asserts the fold everywhere: every queued key and every running
    /// job's effective priority equals the fold recomputed here, from
    /// its definition, out of the engine's state; an overrun is marked
    /// on a queued job only while it waits preempted, and the trip wire
    /// is tripped exactly while the window's count exceeds the budget.
    fn assert_folded(e: &OnlineEngine) {
        let fold = |j: &Job, overran: bool, inherited: Option<Priority>| {
            let row = &e.rows[j.task.index()];
            let policy = row.overrun_policy;
            let base = match e.config.priority() {
                _ if e.tripped && policy == OverrunPolicy::LogOnly => Priority::LOWEST,
                PriorityPolicy::EarliestDeadlineFirst => {
                    Priority::earliest_deadline(j.abs_deadline)
                }
                _ => row.static_priority,
            };
            let terms = [Some(base), Some(row.msg_ceiling), inherited];
            match overran && policy == OverrunPolicy::DemoteToBackground {
                true => Priority::LOWEST,
                false => terms.into_iter().flatten().min().unwrap(),
            }
        };
        let queued: Vec<Job> = e
            .queues
            .iter()
            .flat_map(ReadyQueue::iter)
            .copied()
            .collect();
        for j in &queued {
            let overran = e.overran.contains(&j.id);
            assert_eq!(j.priority, fold(j, overran, None), "queued {j:?}");
        }
        for r in e.running.iter().flatten() {
            let folded = fold(&r.job, r.overrun, r.inherited);
            assert_eq!(r.effective_priority, folded, "running {r:?}");
            let kill = e.rows[r.job.task.index()].overrun_policy == OverrunPolicy::Kill;
            assert!(r.killed || !(r.overrun && kill), "running {r:?}");
        }
        for id in &e.overran {
            let parked = queued.iter().any(|j| j.id == *id && j.preempted);
            assert!(parked, "{id} is marked but waits in no queue");
        }
        if let Some((_, budget)) = e.config.miss_trip() {
            assert_eq!(e.tripped, e.miss_window_count > budget);
        }
    }

    fn two_task_set() -> Arc<TaskSet> {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let c = b.task_decl(TaskSpec::periodic("c", ms(20))).unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(2))).unwrap();
        b.version_decl(c, VersionSpec::new("c", ms(5))).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn edf_config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    }

    #[test]
    fn tick_is_gcd_of_periods() {
        let e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        assert_eq!(e.tick_period(), ms(10));
    }

    #[test]
    fn start_releases_and_dispatches_by_deadline_order() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let actions = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        // Both release at 0; EDF picks the 10ms-deadline task first on the
        // single worker.
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Dispatch { worker, job, .. } => {
                assert_eq!(*worker, WorkerId::new(0));
                assert_eq!(job.task, TaskId::new(0));
                assert_eq!(job.abs_deadline, at(10));
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert_eq!(e.ready_len(), 1);
        assert_eq!(e.stats().released, 2);
    }

    #[test]
    fn completion_dispatches_next() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let a0 = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        let first = match &a0[0] {
            Action::Dispatch { job, .. } => job.id,
            _ => unreachable!(),
        };
        let a1 = emitted(|s| {
            e.apply(at(2), &Input::Completed(&[(WorkerId::new(0), first)]), s)
                .unwrap()
        });
        assert_eq!(a1.len(), 1);
        match &a1[0] {
            Action::Dispatch { job, .. } => assert_eq!(job.task, TaskId::new(1)),
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert!(e.running(WorkerId::new(0)).is_some());
        assert_eq!(e.ready_len(), 0);
    }

    #[test]
    fn batch_completion_retires_all_then_dispatches_once() {
        // fork -> (left, right) -> join: completing left and right in
        // ONE batch must fire the join inside the same call — the single
        // dispatch round runs after every completion retired.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let fork = b.task_decl(TaskSpec::periodic("fork", ms(100))).unwrap();
        let left = b.task_decl(TaskSpec::graph_node("left")).unwrap();
        let right = b.task_decl(TaskSpec::graph_node("right")).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        for t in [fork, left, right, join] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let c1 = b.channel_decl("fl", 1, 1);
        let c2 = b.channel_decl("fr", 1, 1);
        let c3 = b.channel_decl("lj", 1, 1);
        let c4 = b.channel_decl("rj", 1, 1);
        b.channel_connect(fork, left, c1).unwrap();
        b.channel_connect(fork, right, c2).unwrap();
        b.channel_connect(left, join, c3).unwrap();
        b.channel_connect(right, join, c4).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let fork_id = e.running(WorkerId::new(0)).unwrap().job.id;
        e.apply(
            at(1),
            &Input::Completed(&[(WorkerId::new(0), fork_id)]),
            &mut sink,
        )
        .unwrap();
        let batch = [
            (
                WorkerId::new(0),
                e.running(WorkerId::new(0)).unwrap().job.id,
            ),
            (
                WorkerId::new(1),
                e.running(WorkerId::new(1)).unwrap().job.id,
            ),
        ];
        let acts = emitted(|s| e.apply(at(2), &Input::Completed(&batch), s).unwrap());
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == join)),
            "join fires within the batch call: {acts:?}"
        );
        assert_eq!(e.stats().completed, 3);
    }

    #[test]
    fn batch_completion_error_keeps_retired_prefix() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let good = e.running(WorkerId::new(0)).unwrap().job.id;
        let batch = [
            (WorkerId::new(0), good),
            (WorkerId::new(1), JobId::new(999)), // protocol violation
        ];
        let err = e.apply(at(1), &Input::Completed(&batch), &mut sink);
        assert!(err.is_err());
        // The valid prefix was retired (worker 0 freed, completion
        // counted); the offender's worker still runs its job.
        assert_eq!(e.stats().completed, 1);
        assert!(e.running(WorkerId::new(1)).is_some());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let acts = emitted(|s| e.apply(at(1), &Input::Completed(&[]), s).unwrap());
        assert!(acts.is_empty());
        assert_eq!(e.stats().completed, 0);
    }

    #[test]
    fn wrong_completion_is_protocol_error() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert!(e
            .apply(
                at(1),
                &Input::Completed(&[(WorkerId::new(0), JobId::new(999))]),
                &mut sink
            )
            .is_err());
        assert!(e
            .apply(
                at(1),
                &Input::Completed(&[(WorkerId::new(1), JobId::new(0))]),
                &mut sink
            )
            .is_err());
    }

    #[test]
    fn periodic_rereleases_on_tick() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        // Finish both first jobs.
        let r0 = e.running(WorkerId::new(0)).unwrap().job.id;
        let r1 = e.running(WorkerId::new(1)).unwrap().job.id;
        e.apply(
            at(2),
            &Input::Completed(&[(WorkerId::new(0), r0)]),
            &mut sink,
        )
        .unwrap();
        e.apply(
            at(5),
            &Input::Completed(&[(WorkerId::new(1), r1)]),
            &mut sink,
        )
        .unwrap();
        // Tick at 10ms: only task a (period 10) re-releases.
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Dispatch { job, .. } => {
                assert_eq!(job.task, TaskId::new(0));
                assert_eq!(job.seq, 1);
                assert_eq!(job.release, at(10));
            }
            other => panic!("{other:?}"),
        }
        // Tick at 20ms: task a again + task c.
        let r0 = e.running(WorkerId::new(0)).unwrap().job.id;
        e.apply(
            at(12),
            &Input::Completed(&[(WorkerId::new(0), r0)]),
            &mut sink,
        )
        .unwrap();
        let acts = emitted(|s| e.apply(at(20), &Input::Tick { done: &[] }, s).unwrap());
        assert_eq!(acts.len(), 2);
        assert_eq!(e.stats().released, 5);
    }

    #[test]
    fn preemption_on_more_urgent_release() {
        // One worker; long low-urgency job running, then an urgent one
        // arrives at the next tick.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let slow = b.task_decl(TaskSpec::periodic("slow", ms(100))).unwrap();
        let fast = b
            .task_decl(
                TaskSpec::periodic("fast", ms(100))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(20)),
            )
            .unwrap();
        b.version_decl(slow, VersionSpec::new("s", ms(50))).unwrap();
        b.version_decl(fast, VersionSpec::new("f", ms(5))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(1)).unwrap();
        let a0 = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        assert_folded(&e);
        assert_eq!(a0.len(), 1); // slow dispatched
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        assert_folded(&e);
        // fast (deadline 30ms) preempts slow (deadline 100ms).
        assert!(matches!(acts[0], Action::Preempt { .. }), "{acts:?}");
        match &acts[1] {
            Action::Dispatch { job, .. } => assert_eq!(job.task, fast),
            other => panic!("{other:?}"),
        }
        assert_eq!(e.stats().preempted, 1);
        // The preempted job is ready again, marked preempted.
        assert_eq!(e.ready_len(), 1);
        // Completing fast resumes slow.
        let fast_id = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts = emitted(|s| {
            e.apply(at(15), &Input::Completed(&[(WorkerId::new(0), fast_id)]), s)
                .unwrap()
        });
        assert_folded(&e);
        match &acts[0] {
            Action::Dispatch { job, .. } => {
                assert_eq!(job.task, slow);
                assert!(job.preempted);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_preemption_when_disabled() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let slow = b.task_decl(TaskSpec::periodic("slow", ms(100))).unwrap();
        let fast = b
            .task_decl(
                TaskSpec::periodic("fast", ms(100))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(20)),
            )
            .unwrap();
        b.version_decl(slow, VersionSpec::new("s", ms(50))).unwrap();
        b.version_decl(fast, VersionSpec::new("f", ms(5))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!(e.stats().preempted, 0);
    }

    #[test]
    fn partitioned_requires_assignments() {
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .build()
            .unwrap();
        assert!(matches!(
            OnlineEngine::new(two_task_set(), cfg),
            Err(Error::MissingPartition(_))
        ));
    }

    #[test]
    fn partitioned_respects_assignment() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b
            .task_decl(TaskSpec::periodic("a", ms(10)).on_worker(WorkerId::new(1)))
            .unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        match &acts[0] {
            Action::Dispatch { worker, .. } => assert_eq!(*worker, WorkerId::new(1)),
            other => panic!("{other:?}"),
        }
        assert!(e.running(WorkerId::new(0)).is_none());
    }

    #[test]
    fn dag_successors_fire_after_completion() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let fork = b.task_decl(TaskSpec::periodic("fork", ms(100))).unwrap();
        let left = b.task_decl(TaskSpec::graph_node("left")).unwrap();
        let right = b.task_decl(TaskSpec::graph_node("right")).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        for t in [fork, left, right, join] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let c1 = b.channel_decl("fl", 1, 1);
        let c2 = b.channel_decl("fr", 1, 1);
        let c3 = b.channel_decl("lj", 1, 1);
        let c4 = b.channel_decl("rj", 1, 1);
        b.channel_connect(fork, left, c1).unwrap();
        b.channel_connect(fork, right, c2).unwrap();
        b.channel_connect(left, join, c3).unwrap();
        b.channel_connect(right, join, c4).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let fork_id = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts = emitted(|s| {
            e.apply(at(1), &Input::Completed(&[(WorkerId::new(0), fork_id)]), s)
                .unwrap()
        });
        // left and right both released and dispatched on the two workers.
        let dispatched: Vec<TaskId> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Dispatch { job, .. } => Some(job.task),
                _ => None,
            })
            .collect();
        assert_eq!(dispatched.len(), 2);
        assert!(dispatched.contains(&left) && dispatched.contains(&right));
        // Join waits for both.
        let left_id = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts = emitted(|s| {
            e.apply(at(2), &Input::Completed(&[(WorkerId::new(0), left_id)]), s)
                .unwrap()
        });
        assert!(acts.is_empty(), "join must wait for right: {acts:?}");
        let right_id = e.running(WorkerId::new(1)).unwrap().job.id;
        let acts = emitted(|s| {
            e.apply(at(3), &Input::Completed(&[(WorkerId::new(1), right_id)]), s)
                .unwrap()
        });
        let join_dispatch = acts
            .iter()
            .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == join));
        assert!(join_dispatch, "{acts:?}");
        // Graph-level deadline: join inherits fork's release + 100ms.
        let j = e.running(WorkerId::new(0)).unwrap().job;
        assert_eq!(j.abs_deadline, at(100));
        assert_eq!(j.graph_release, Instant::ZERO);
    }

    /// A join whose input `a → j` holds one token under `policy`: two
    /// tokens of `a` (graph releases 1 and 3 ms) arrive there before the
    /// one of `b` (0 ms) completes the join. Returns the releases the
    /// full edge kept, the join's first job's graph release, and the
    /// engine's `(shed_drops, channel_overflows)`.
    fn shed_on_a_full_join(policy: BackpressurePolicy) -> (Vec<Instant>, Instant, (u64, u64)) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::aperiodic("a")).unwrap();
        let bt = b.task_decl(TaskSpec::aperiodic("b")).unwrap();
        let j = b.task_decl(TaskSpec::graph_node("j")).unwrap();
        for t in [a, bt, j] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let aj = b.channel_decl_shedding("aj", 1, 1, policy);
        let bj = b.channel_decl("bj", 1, 1);
        b.channel_connect(a, j, aj).unwrap();
        b.channel_connect(bt, j, bj).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let config = Config::builder()
            .workers(2)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .tick(ms(10))
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, config).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
        // `b` holds worker 0 until the end; `a` runs twice on worker 1.
        e.apply(Instant::ZERO, &Input::Activate(bt), &mut sink)
            .unwrap();
        for start in [1, 3] {
            e.apply(at(start), &Input::Activate(a), &mut sink).unwrap();
            let job = e.running(w1).unwrap().job;
            assert_eq!(job.task, a);
            e.apply(at(start + 1), &Input::Completed(&[(w1, job.id)]), &mut sink)
                .unwrap();
        }
        let kept = e.token_release[0].clone();
        let b_job = e.running(w0).unwrap().job.id;
        let acts = emitted(|s| {
            e.apply(at(5), &Input::Completed(&[(w0, b_job)]), s)
                .unwrap()
        });
        let joined = acts.iter().find_map(|x| match x {
            Action::Dispatch { job, .. } if job.task == j => Some(job.graph_release),
            _ => None,
        });
        let stats = (e.stats().shed_drops, e.stats().channel_overflows);
        (kept, joined.expect("the join fires"), stats)
    }

    #[test]
    fn a_full_edge_sheds_by_its_policy_before_the_join_fires() {
        let (kept, joined, stats) = shed_on_a_full_join(BackpressurePolicy::DropOldest);
        assert_eq!((kept, joined, stats), (vec![at(3)], at(3), (1, 0)));
        let (kept, joined, stats) = shed_on_a_full_join(BackpressurePolicy::DeadlineAwareDrop);
        assert_eq!((kept, joined, stats), (vec![at(1)], at(1), (1, 0)));
        let (kept, joined, stats) = shed_on_a_full_join(BackpressurePolicy::Reject);
        assert_eq!((kept, joined, stats), (vec![at(1), at(3)], at(1), (0, 1)));
    }

    #[test]
    fn accel_contention_uses_cpu_fallback_and_pip() {
        // Two tasks, both with GPU + CPU versions; one GPU.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let t1 = b.task_decl(TaskSpec::periodic("t1", ms(100))).unwrap();
        let t2 = b
            .task_decl(TaskSpec::periodic("t2", ms(100)).with_constrained_deadline(ms(50)))
            .unwrap();
        b.version_decl(t1, VersionSpec::new("gpu", ms(10)).with_accel(gpu))
            .unwrap();
        b.version_decl(t1, VersionSpec::new("cpu", ms(30))).unwrap();
        b.version_decl(t2, VersionSpec::new("gpu", ms(10)).with_accel(gpu))
            .unwrap();
        b.version_decl(t2, VersionSpec::new("cpu", ms(30))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let acts = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        assert_folded(&e);
        // t2 (tighter deadline) gets the GPU; t1 falls back to CPU.
        let mut gpu_user = None;
        let mut cpu_user = None;
        for a in &acts {
            if let Action::Dispatch { job, version, .. } = a {
                if version.index() == 0 {
                    gpu_user = Some(job.task);
                } else {
                    cpu_user = Some(job.task);
                }
            }
        }
        assert_eq!(gpu_user, Some(t2));
        assert_eq!(cpu_user, Some(t1));
    }

    #[test]
    fn gpu_only_task_blocks_and_boosts() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        // Low-urgency holder (long deadline), urgent GPU-only task later.
        let hold = b.task_decl(TaskSpec::periodic("hold", ms(200))).unwrap();
        let urgent = b
            .task_decl(
                TaskSpec::periodic("urgent", ms(200))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(30)),
            )
            .unwrap();
        b.version_decl(hold, VersionSpec::new("gpu", ms(50)).with_accel(gpu))
            .unwrap();
        b.version_decl(urgent, VersionSpec::new("gpu", ms(5)).with_accel(gpu))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        assert_folded(&e);
        // urgent is blocked on the GPU -> PIP boost of the holder.
        let boost = acts.iter().find_map(|a| match a {
            Action::Boost { priority, .. } => Some(*priority),
            _ => None,
        });
        assert_eq!(boost, Some(Priority::earliest_deadline(at(40))));
        assert_eq!(e.stats().pip_boosts, 1);
        assert_eq!(e.ready_len(), 1, "urgent stays ready");
        // Holder's effective priority is boosted.
        let holder = e.running(WorkerId::new(0)).unwrap();
        assert_eq!(
            holder.effective_priority,
            Priority::earliest_deadline(at(40))
        );
        // When the holder finishes, urgent gets the GPU.
        let hold_id = holder.job.id;
        let acts = emitted(|s| {
            e.apply(at(50), &Input::Completed(&[(WorkerId::new(0), hold_id)]), s)
                .unwrap()
        });
        assert_folded(&e);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Dispatch { job, .. } if job.task == urgent
        )));
    }

    #[test]
    fn accel_holder_not_preempted() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let hold = b.task_decl(TaskSpec::periodic("hold", ms(200))).unwrap();
        let urgent = b
            .task_decl(
                TaskSpec::periodic("urgent", ms(200))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(20)),
            )
            .unwrap();
        b.version_decl(hold, VersionSpec::new("gpu", ms(100)).with_accel(gpu))
            .unwrap();
        b.version_decl(urgent, VersionSpec::new("cpu", ms(5)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        assert_folded(&e);
        // The only worker runs the GPU holder; urgent must NOT preempt it.
        assert!(
            !acts.iter().any(|a| matches!(a, Action::Preempt { .. })),
            "{acts:?}"
        );
        assert_eq!(e.ready_len(), 1);
    }

    #[test]
    fn aperiodic_activation() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let p = b.task_decl(TaskSpec::periodic("p", ms(10))).unwrap();
        let a = b.task_decl(TaskSpec::aperiodic("a")).unwrap();
        b.version_decl(p, VersionSpec::new("p", ms(1))).unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let acts = emitted(|s| e.apply(at(3), &Input::Activate(a), s).unwrap());
        assert!(acts.iter().any(|x| matches!(
            x,
            Action::Dispatch { job, .. } if job.task == a
        )));
        // Periodic tasks cannot be activated by hand.
        assert!(e.apply(at(4), &Input::Activate(p), &mut sink).is_err());
    }

    #[test]
    fn sporadic_min_interarrival_violation_counted() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let s = b.task_decl(TaskSpec::sporadic("s", ms(10))).unwrap();
        b.version_decl(s, VersionSpec::new("s", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .tick(ms(10))
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        e.apply(at(0), &Input::Activate(s), &mut sink).unwrap();
        e.apply(at(5), &Input::Activate(s), &mut sink).unwrap(); // violates T=10
        assert_eq!(e.stats().sporadic_violations, 1);
        e.apply(at(20), &Input::Activate(s), &mut sink).unwrap();
        assert_eq!(e.stats().sporadic_violations, 1);
    }

    #[test]
    fn stop_drains() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        e.apply(Instant::ZERO, &Input::Stop, &mut sink).unwrap();
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        assert!(acts.is_empty(), "no releases after stop: {acts:?}");
        assert!(!e.is_idle());
        let r0 = e.running(WorkerId::new(0)).unwrap().job.id;
        let r1 = e.running(WorkerId::new(1)).unwrap().job.id;
        e.apply(
            at(11),
            &Input::Completed(&[(WorkerId::new(0), r0)]),
            &mut sink,
        )
        .unwrap();
        e.apply(
            at(12),
            &Input::Completed(&[(WorkerId::new(1), r1)]),
            &mut sink,
        )
        .unwrap();
        assert!(e.is_idle());
    }

    #[test]
    fn double_start_rejected_until_stop() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert!(matches!(
            e.apply(at(1), &Input::Start, &mut sink),
            Err(Error::ScheduleRunning)
        ));
        e.stop();
        // Multi-mode scheduling: resume after stop (§3.1).
        assert!(e.apply(at(100), &Input::Start, &mut sink).is_ok());
    }

    #[test]
    fn rank_cache_invalidated_on_mode_switch() {
        let mut sink = ActionSink::new();
        // Mode policy: the cached ranking must be recomputed when the
        // execution mode changes, or the wrong version would dispatch.
        use yasmin_core::version::ModeMask;
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("enc", ms(10))).unwrap();
        b.version_decl(
            t,
            VersionSpec::new("plain", ms(1)).with_modes(ModeMask::only(ExecMode::NORMAL)),
        )
        .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("secure", ms(2)).with_modes(ModeMask::only(ExecMode::new(1))),
        )
        .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::Mode)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        match &acts[0] {
            Action::Dispatch { version, .. } => assert_eq!(version.index(), 0),
            other => panic!("{other:?}"),
        }
        let id = e.running(WorkerId::new(0)).unwrap().job.id;
        e.apply(
            at(1),
            &Input::Completed(&[(WorkerId::new(0), id)]),
            &mut sink,
        )
        .unwrap();
        // Switch mode; the next release must pick the secure version.
        e.apply(at(1), &Input::Mode(ExecMode::new(1)), &mut sink)
            .unwrap();
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        match &acts[0] {
            Action::Dispatch { version, .. } => {
                assert_eq!(version.index(), 1, "cache must refresh on mode switch")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn energy_policy_tracks_battery_probe_through_cache() {
        let mut sink = ActionSink::new();
        // The rank cache must refresh when the probe's reading changes —
        // and only the Energy (and user-defined) policies pay the probe.
        use std::sync::atomic::{AtomicU32, Ordering};
        use yasmin_core::energy::{BatteryLevel, Energy};
        let level = Arc::new(AtomicU32::new(1000));
        let probe = Arc::clone(&level);
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(10))).unwrap();
        b.version_decl(
            t,
            VersionSpec::new("cheap", ms(2))
                .with_energy(Energy::from_millijoules(5))
                .with_energy_budget(Energy::from_millijoules(5)),
        )
        .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("hungry", ms(1))
                .with_energy(Energy::from_millijoules(12))
                .with_energy_budget(Energy::from_millijoules(12)),
        )
        .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::Energy)
            .battery_source(move || {
                BatteryLevel::from_permille(probe.load(Ordering::Relaxed) as u16)
            })
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        match &acts[0] {
            Action::Dispatch { version, .. } => {
                assert_eq!(version.index(), 1, "full battery affords hungry")
            }
            other => panic!("{other:?}"),
        }
        let id = e.running(WorkerId::new(0)).unwrap().job.id;
        e.apply(
            at(1),
            &Input::Completed(&[(WorkerId::new(0), id)]),
            &mut sink,
        )
        .unwrap();
        // Battery collapses; the next dispatch must degrade.
        level.store(100, Ordering::Relaxed);
        let acts = emitted(|s| e.apply(at(10), &Input::Tick { done: &[] }, s).unwrap());
        match &acts[0] {
            Action::Dispatch { version, .. } => {
                assert_eq!(version.index(), 0, "cache must refresh on battery change")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn into_api_appends_without_clearing() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut sink = crate::sink::ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        let after_start = sink.len();
        assert_eq!(after_start, 2, "both tasks dispatch on two workers");
        // A completion appended into the same sink keeps prior actions.
        let id = e.running(WorkerId::new(0)).unwrap().job.id;
        e.apply(
            at(2),
            &Input::Completed(&[(WorkerId::new(0), id)]),
            &mut sink,
        )
        .unwrap();
        assert!(sink.len() >= after_start);
        sink.clear();
        e.apply(at(10), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_eq!(sink.len(), 1, "task a re-releases and dispatches");
    }

    #[test]
    fn cull_missed_removes_expired_ready_jobs_on_tick() {
        // One worker, two tasks with constrained deadlines: the job that
        // loses the first dispatch sits ready past its deadline and must
        // be culled at the next tick — via ReadyQueue::remove, counted
        // in stats.culled, never dispatched.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let winner = b
            .task_decl(TaskSpec::periodic("winner", ms(100)).with_constrained_deadline(ms(30)))
            .unwrap();
        let loser = b
            .task_decl(TaskSpec::periodic("loser", ms(100)).with_constrained_deadline(ms(40)))
            .unwrap();
        b.version_decl(winner, VersionSpec::new("w", ms(60)))
            .unwrap();
        b.version_decl(loser, VersionSpec::new("l", ms(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .tick(ms(10))
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .cull_missed(true)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_eq!(e.running(WorkerId::new(0)).unwrap().job.task, winner);
        assert_eq!(e.ready_len(), 1, "loser queued");
        // Ticks before the loser's deadline (40ms) keep it queued.
        e.apply(at(30), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_eq!(e.ready_len(), 1);
        assert_eq!(e.stats().culled, 0);
        // First tick past the deadline culls it, and says so.
        let loser_job = e.most_urgent_hint().unwrap().id;
        e.apply(at(50), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_eq!(e.ready_len(), 0);
        assert_eq!(e.stats().culled, 1);
        let culls: Vec<_> = sink
            .as_slice()
            .iter()
            .filter_map(|a| match *a {
                Action::Cull { job } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(culls, [loser_job], "one Action::Cull per culled job");
        // The culled job never dispatches: completing the winner leaves
        // the worker idle.
        let w = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts = emitted(|s| {
            e.apply(at(60), &Input::Completed(&[(WorkerId::new(0), w)]), s)
                .unwrap()
        });
        assert!(acts.is_empty(), "{acts:?}");
        assert!(e.running(WorkerId::new(0)).is_none());
        assert_eq!(e.stats().dispatched, 1);
    }

    #[test]
    fn shortest_wcet_policy_picks_gpu_when_free() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let t = b.task_decl(TaskSpec::periodic("t", ms(100))).unwrap();
        b.version_decl(t, VersionSpec::new("cpu", ms(30))).unwrap();
        b.version_decl(t, VersionSpec::new("gpu", ms(10)).with_accel(gpu))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::ShortestWcet)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = emitted(|s| e.apply(Instant::ZERO, &Input::Start, s).unwrap());
        match &acts[0] {
            Action::Dispatch { version, .. } => assert_eq!(version.index(), 1),
            other => panic!("{other:?}"),
        }
    }

    /// Non-preemptive EDF — the thread runtime's semantics, which keeps
    /// the message-boost tests about queue ordering, not preemption.
    fn edf_np_config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap()
    }

    fn three_task_set() -> Arc<TaskSet> {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let c = b.task_decl(TaskSpec::periodic("c", ms(20))).unwrap();
        let r = b.task_decl(TaskSpec::periodic("r", ms(40))).unwrap();
        for (t, w) in [(a, 2), (c, 2), (r, 2)] {
            b.version_decl(t, VersionSpec::new("v", ms(w))).unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn high_post_boosts_pending_job_ahead_of_more_urgent_competitor() {
        // One worker, EDF. At start: a (deadline 10) runs, c (20) and
        // r (40) queue — c is the more urgent competitor. A high post
        // for r must re-queue r's pending job at the ceiling so it
        // dispatches ahead of c when the worker frees; after the lane
        // drains, the order reverts to plain EDF.
        let ts = three_task_set();
        let receiver = TaskId::new(2);
        let mut e = OnlineEngine::new(ts, edf_np_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        sink.clear();
        e.apply(
            at(1),
            &Input::Msg(posted(receiver, Priority::HIGHEST)),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        assert!(sink.is_empty(), "no worker freed, no action yet");
        assert_eq!(e.high_lane_depth(receiver), 1);
        assert_eq!(e.active_msg_ceiling(receiver), Some(Priority::HIGHEST));
        assert_eq!(e.stats().msg_boosts, 1);

        let running = e.running(WorkerId::new(0)).unwrap().job.id;
        sink.clear();
        e.apply(
            at(2),
            &Input::Completed(&[(WorkerId::new(0), running)]),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        match sink.as_slice() {
            [Action::Dispatch { job, .. }] => {
                assert_eq!(job.task, receiver, "boosted receiver dispatches first");
                assert_eq!(job.priority, Priority::HIGHEST);
            }
            other => panic!("expected one dispatch, got {other:?}"),
        }

        // Drain while the receiver runs: its slot effective priority
        // falls back to base and c wins the next free worker.
        sink.clear();
        e.apply(at(3), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.high_lane_depth(receiver), 0);
        assert_eq!(e.active_msg_ceiling(receiver), None);
        let receiver_job = e.running(WorkerId::new(0)).unwrap().job.id;
        sink.clear();
        e.apply(
            at(4),
            &Input::Completed(&[(WorkerId::new(0), receiver_job)]),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        match sink.as_slice() {
            [Action::Dispatch { job, .. }] => assert_eq!(job.task, TaskId::new(1)),
            other => panic!("expected one dispatch, got {other:?}"),
        }
    }

    #[test]
    fn high_post_boosts_running_job_and_drain_restores_base() {
        let ts = three_task_set();
        let mut e = OnlineEngine::new(ts, edf_np_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        // a runs with its EDF base priority (deadline at 10ms).
        let base = e.running(WorkerId::new(0)).unwrap().effective_priority;
        assert_eq!(base, Priority::earliest_deadline(at(10)));
        sink.clear();
        e.apply(
            at(1),
            &Input::Msg(posted(TaskId::new(0), Priority::new(7))),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        let boosted = e.running(WorkerId::new(0)).unwrap();
        assert_eq!(boosted.effective_priority, Priority::new(7));
        assert!(
            sink.as_slice().iter().any(|a| matches!(
                a,
                Action::Boost { worker, priority, .. }
                    if *worker == WorkerId::new(0) && *priority == Priority::new(7)
            )),
            "driver is told about the boost: {:?}",
            sink.as_slice()
        );
        sink.clear();
        e.apply(at(2), &Input::Msg(drained(TaskId::new(0))), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(
            e.running(WorkerId::new(0)).unwrap().effective_priority,
            base
        );
        assert!(
            sink.as_slice().iter().any(|a| matches!(
                a,
                Action::Boost { priority, .. } if *priority == base
            )),
            "release is visible too: {:?}",
            sink.as_slice()
        );
    }

    #[test]
    fn a_job_boosted_while_queued_runs_at_base_after_the_drain() {
        // r's queued job is boosted, dispatches at the ceiling, and its
        // lane drains while it runs: the slot falls back to r's base
        // (deadline 40 ms), not to the ceiling the boost wrote into the
        // job.
        let ts = three_task_set();
        let receiver = TaskId::new(2);
        let w0 = WorkerId::new(0);
        let mut e = OnlineEngine::new(ts, edf_np_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        e.apply(
            at(1),
            &Input::Msg(posted(receiver, Priority::HIGHEST)),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        let a = e.running(w0).unwrap().job.id;
        e.apply(at(2), &Input::Completed(&[(w0, a)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.running(w0).unwrap().job.task, receiver);
        sink.clear();
        e.apply(at(3), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        let base = Priority::earliest_deadline(at(40));
        assert_eq!(e.running(w0).unwrap().effective_priority, base);
        assert!(
            sink.iter()
                .any(|a| matches!(a, Action::Boost { priority, .. } if *priority == base)),
            "the driver is told: {sink:?}"
        );
    }

    #[test]
    fn a_drain_keeps_the_shedding_demotion_while_tripped() {
        // One worker, a budget of no miss: a's late completion trips the
        // wire. Two jobs of the `LogOnly` receiver r queue behind b at
        // background priority; a high post boosts one, and the drain
        // that ends the boost returns both to the release rule while
        // tripped — background, not their deadlines.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let kill = TaskSpec::aperiodic("b").with_overrun_policy(OverrunPolicy::Kill);
        let busy = b.task_decl(kill).unwrap();
        let spec = TaskSpec::aperiodic("r").with_constrained_deadline(ms(10));
        let r = b.task_decl(spec).unwrap();
        for t in [a, busy, r] {
            b.version_decl(t, VersionSpec::new("v", ms(2))).unwrap();
        }
        let config = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .miss_trip(ms(1_000), 0)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
        let w0 = WorkerId::new(0);
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        let late = e.running(w0).unwrap().job.id;
        e.apply(at(11), &Input::Completed(&[(w0, late)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(e.is_tripped());
        for (t, when) in [(busy, 12), (r, 12), (r, 13)] {
            e.apply(at(when), &Input::Activate(t), &mut sink).unwrap();
            assert_folded(&e);
        }
        let queued = |e: &OnlineEngine| -> Vec<Priority> {
            let jobs = e.queues[0].iter().filter(|j| j.task == r);
            jobs.map(|j| j.priority).collect()
        };
        assert_eq!(queued(&e), [Priority::LOWEST; 2]);
        e.apply(at(14), &Input::Msg(posted(r, Priority::HIGHEST)), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(queued(&e).contains(&Priority::HIGHEST));
        e.apply(at(15), &Input::Msg(drained(r)), &mut sink).unwrap();
        assert_folded(&e);
        assert_eq!(queued(&e), [Priority::LOWEST; 2]);
    }

    /// One worker, non-preemptive EDF, a budget of no miss in a 20 ms
    /// window that opened at 0. `a` (periodic, 10 ms) runs from 0; the
    /// `LogOnly` receiver `r` (deadline 10 ms) is activated at 1 ms and
    /// `busy` (`Kill`, deadline 5 ms) at 2 ms. `a`'s late completion at
    /// 11 ms trips the wire and starts `busy`, which then holds the
    /// worker. Returns the engine and `[a, busy, r]`.
    fn tripped_at_11() -> (OnlineEngine, [TaskId; 3]) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let spec = TaskSpec::aperiodic("busy").with_constrained_deadline(ms(5));
        let busy = b
            .task_decl(spec.with_overrun_policy(OverrunPolicy::Kill))
            .unwrap();
        let spec = TaskSpec::aperiodic("r").with_constrained_deadline(ms(10));
        let r = b.task_decl(spec).unwrap();
        for t in [a, busy, r] {
            b.version_decl(t, VersionSpec::new("v", ms(2))).unwrap();
        }
        let config = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .miss_trip(ms(20), 0)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
        let w0 = WorkerId::new(0);
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        e.apply(at(1), &Input::Activate(r), &mut sink).unwrap();
        e.apply(at(2), &Input::Activate(busy), &mut sink).unwrap();
        let late = e.running(w0).unwrap().job.id;
        e.apply(at(11), &Input::Completed(&[(w0, late)]), &mut sink)
            .unwrap();
        assert!(e.is_tripped());
        assert_eq!(e.running(w0).unwrap().job.task, busy);
        assert_folded(&e);
        (e, [a, busy, r])
    }

    /// The queued jobs of `t`, as (release, key), by release.
    fn queued(e: &OnlineEngine, t: TaskId) -> Vec<(Instant, Priority)> {
        let mut jobs: Vec<_> = (e.queues.iter().flat_map(ReadyQueue::iter))
            .filter(|j| j.task == t)
            .map(|j| (j.release, j.priority))
            .collect();
        jobs.sort_by_key(|&(release, _)| release);
        jobs
    }

    #[test]
    fn the_trip_wire_demotes_releases_until_its_tumbling_window_ends() {
        // Shedding is a level. Of the `LogOnly` receiver r, the job
        // released before the trip and the one released while tripped
        // are both demoted. The tick at 20 ms rolls the window —
        // tumbling, not sliding: the miss 9 ms before no longer counts —
        // and untrips, which restores every `LogOnly` job to its
        // deadline, then releases a's overdue jobs at theirs. `busy`
        // holds the worker throughout.
        let (mut e, [a, _, r]) = tripped_at_11();
        let mut sink = ActionSink::new();
        let edf = |d: u64| Priority::earliest_deadline(at(d));
        e.apply(at(12), &Input::Activate(r), &mut sink).unwrap();
        assert_folded(&e);
        let shed = [(at(1), Priority::LOWEST), (at(12), Priority::LOWEST)];
        assert_eq!(queued(&e, r), shed);

        e.apply(at(20), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(!e.is_tripped(), "the window that held the miss has ended");
        let overdue = [(at(10), edf(20)), (at(20), edf(30))];
        assert_eq!(queued(&e, a), overdue, "released after the roll");
        e.apply(at(21), &Input::Activate(r), &mut sink).unwrap();
        assert_folded(&e);
        let r_jobs = [(at(1), edf(11)), (at(12), edf(22)), (at(21), edf(31))];
        assert_eq!(queued(&e, r), r_jobs, "the untrip restored them");
    }

    #[test]
    fn release_during_active_ceiling_inherits_it() {
        // Post the high message while no job of the receiver is pending:
        // the job released at the next tick must inherit the ceiling.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(40))).unwrap();
        let r = b.task_decl(TaskSpec::periodic("r", ms(40))).unwrap();
        b.version_decl(a, VersionSpec::new("v", ms(2))).unwrap();
        b.version_decl(r, VersionSpec::new("v", ms(2))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let receiver = r;
        let mut e = OnlineEngine::new(ts, edf_np_config(2)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        // Both tasks run; complete both so the next releases are fresh.
        sink.clear();
        for w in [0, 1] {
            let id = e.running(WorkerId::new(w)).unwrap().job.id;
            e.apply(
                at(6),
                &Input::Completed(&[(WorkerId::new(w), id)]),
                &mut sink,
            )
            .unwrap();
            assert_folded(&e);
        }
        e.apply(
            at(7),
            &Input::Msg(posted(receiver, Priority::HIGHEST)),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        assert_eq!(e.stats().msg_boosts, 0, "nothing pending or running yet");
        sink.clear();
        e.apply(at(40), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        let (rw, rj) = sink
            .as_slice()
            .iter()
            .find_map(|a| match a {
                Action::Dispatch { worker, job, .. } if job.task == receiver => {
                    Some((*worker, *job))
                }
                _ => None,
            })
            .expect("receiver released and dispatched at t=40");
        assert_eq!(rj.priority, Priority::HIGHEST, "release inherits ceiling");
        // Drain, finish the cycle: the next release is back to base.
        e.apply(at(41), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        sink.clear();
        e.apply(at(42), &Input::Completed(&[(rw, rj.id)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        let aw = if rw == WorkerId::new(0) { 1 } else { 0 };
        let aj = e.running(WorkerId::new(aw)).unwrap().job.id;
        e.apply(
            at(43),
            &Input::Completed(&[(WorkerId::new(aw), aj)]),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        sink.clear();
        e.apply(at(80), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        let rj2 = sink
            .as_slice()
            .iter()
            .find_map(|a| match a {
                Action::Dispatch { job, .. } if job.task == receiver => Some(*job),
                _ => None,
            })
            .expect("receiver released at t=80");
        assert_eq!(rj2.priority, Priority::earliest_deadline(at(120)));
    }

    #[test]
    fn ceiling_tightens_and_holds_until_all_posts_drain() {
        let ts = three_task_set();
        let receiver = TaskId::new(2);
        let mut e = OnlineEngine::new(ts, edf_np_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        sink.clear();
        e.apply(
            at(1),
            &Input::Msg(posted(receiver, Priority::new(9))),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        e.apply(
            at(1),
            &Input::Msg(posted(receiver, Priority::new(3))),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        // A less urgent later post does not loosen the ceiling.
        e.apply(
            at(1),
            &Input::Msg(posted(receiver, Priority::new(100))),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        assert_eq!(e.high_lane_depth(receiver), 3);
        assert_eq!(e.active_msg_ceiling(receiver), Some(Priority::new(3)));
        e.apply(at(2), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        e.apply(at(2), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.active_msg_ceiling(receiver), Some(Priority::new(3)));
        e.apply(at(2), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.active_msg_ceiling(receiver), None);
        assert_eq!(e.high_lane_depth(receiver), 0);
    }

    #[test]
    fn only_the_drain_that_releases_the_boost_runs_a_dispatch_round() {
        // One worker. A budgeted tenant's second job waits for its
        // server, which replenishes at 12 ms: any dispatch round from
        // then on starts it. Of two drains at 12 ms, the one that leaves
        // the receiver's boost in place runs no round; the one that
        // releases it does.
        let w = WorkerId::new(0);
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let receiver = b.task_decl(TaskSpec::periodic("r", ms(40))).unwrap();
        b.version_decl(receiver, VersionSpec::new("v", ms(1)))
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), edf_np_config(1)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(at(0), &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        let r = e.running(w).unwrap().job.id;
        e.apply(at(1), &Input::Completed(&[(w, r)]), &mut sink)
            .unwrap();
        assert_folded(&e);

        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for name in ["t1", "t2"] {
            let t = b.task_decl(TaskSpec::periodic(name, ms(40))).unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(3))).unwrap();
        }
        let merged = Arc::new(e.taskset().extended(&b.build().unwrap()).unwrap());
        let budget = crate::server::TenantBudget::deferrable(ms(4), ms(10));
        let tenant = splice(&mut e, &merged, Some(budget), at(2));
        assert_folded(&e);
        commit(&mut e, tenant, at(2), &mut sink).unwrap();
        assert_folded(&e);
        let t1 = e.running(w).unwrap().job.id;
        e.apply(at(5), &Input::Completed(&[(w, t1)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(e.running(w).is_none(), "1 ms of budget left: t2 waits");
        assert_eq!(e.ready_len(), 1);

        for _ in 0..2 {
            e.apply(
                at(6),
                &Input::Msg(posted(receiver, Priority::HIGHEST)),
                &mut sink,
            )
            .unwrap();
            assert_folded(&e);
        }
        assert!(e.running(w).is_none(), "still 1 ms of budget at 6 ms");
        sink.clear();
        e.apply(at(12), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.active_msg_ceiling(receiver), Some(Priority::HIGHEST));
        assert!(sink.is_empty(), "the boost holds: no round");
        assert!(e.running(w).is_none());
        e.apply(at(12), &Input::Msg(drained(receiver)), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.active_msg_ceiling(receiver), None);
        match sink.as_slice() {
            [Action::Dispatch { job, .. }] => assert_eq!(job.task, TaskId::new(2)),
            other => panic!("the released boost's round starts t2, got {other:?}"),
        }
    }

    /// `hold` (GPU, deadline 200 ms) runs on worker 0 from 0 ms; at
    /// 10 ms `urgent` (GPU only, deadline 40 ms) is released and blocks
    /// on the GPU. Returns the engine before that tick, and both tasks.
    fn gpu_holder() -> (OnlineEngine, TaskId, TaskId) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let hold = b.task_decl(TaskSpec::periodic("hold", ms(200))).unwrap();
        let spec = TaskSpec::periodic("urgent", ms(200)).with_release_offset(ms(10));
        let urgent = b.task_decl(spec.with_constrained_deadline(ms(30))).unwrap();
        for t in [hold, urgent] {
            b.version_decl(t, VersionSpec::new("gpu", ms(50)).with_accel(gpu))
                .unwrap();
        }
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), edf_config(2)).unwrap();
        e.apply(Instant::ZERO, &Input::Start, &mut ActionSink::new())
            .unwrap();
        (e, hold, urgent)
    }

    fn boosts(sink: &ActionSink) -> Vec<Priority> {
        let boost = |a: &Action| match *a {
            Action::Boost { priority, .. } => Some(priority),
            _ => None,
        };
        sink.iter().filter_map(boost).collect()
    }

    #[test]
    fn a_message_episode_keeps_an_overrun_demotion() {
        // The job overruns its 1 ms budget at 2 ms and runs on at
        // background priority; a post (ceiling 7) and its drain leave it
        // there, and tell the driver nothing.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let spec = TaskSpec::periodic("t", ms(10));
        let t = b
            .task_decl(spec.with_overrun_policy(OverrunPolicy::DemoteToBackground))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        let config = Config::builder()
            .workers(1)
            .tick(ms(1))
            .enforce_wcet(true)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
        let w0 = WorkerId::new(0);
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        e.apply(at(2), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.running(w0).unwrap().effective_priority, Priority::LOWEST);
        sink.clear();
        e.apply(at(3), &Input::Msg(posted(t, Priority::new(7))), &mut sink)
            .unwrap();
        assert_folded(&e);
        e.apply(at(4), &Input::Msg(drained(t)), &mut sink).unwrap();
        assert_folded(&e);
        assert_eq!(e.running(w0).unwrap().effective_priority, Priority::LOWEST);
        assert_eq!(boosts(&sink), []);
    }

    #[test]
    fn a_drain_keeps_the_inherited_priority_while_the_blocked_job_waits() {
        // `hold` inherits `urgent`'s deadline by PIP; a message episode
        // of its own raises it further and, drained, hands it back to
        // the inherited priority, not to its base.
        let (mut e, hold, urgent) = gpu_holder();
        let w0 = WorkerId::new(0);
        let mut sink = ActionSink::new();
        e.apply(at(10), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        let inherited = Priority::earliest_deadline(at(40));
        assert_eq!(e.running(w0).unwrap().effective_priority, inherited);
        sink.clear();
        e.apply(
            at(11),
            &Input::Msg(posted(hold, Priority::new(7))),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        e.apply(at(12), &Input::Msg(drained(hold)), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(
            e.queues[0].iter().any(|j| j.task == urgent),
            "still blocked"
        );
        assert_eq!(e.running(w0).unwrap().effective_priority, inherited);
        assert_eq!(boosts(&sink), [Priority::new(7), inherited]);
    }

    #[test]
    fn pip_never_lowers_a_message_boost() {
        // A post raises the holder to 7; `urgent` blocks behind it at
        // its 40 ms deadline, which is less urgent: no PIP boost.
        let (mut e, hold, _) = gpu_holder();
        let w0 = WorkerId::new(0);
        let mut sink = ActionSink::new();
        e.apply(
            at(5),
            &Input::Msg(posted(hold, Priority::new(7))),
            &mut sink,
        )
        .unwrap();
        assert_folded(&e);
        assert_eq!(e.running(w0).unwrap().effective_priority, Priority::new(7));
        sink.clear();
        e.apply(at(10), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.running(w0).unwrap().effective_priority, Priority::new(7));
        assert_eq!(boosts(&sink), []);
        assert_eq!(e.stats().pip_boosts, 0);
    }

    #[test]
    fn a_message_episode_while_tripped_keeps_the_shedding_level() {
        // r@1 was released before the trip: it is in background exactly
        // while the wire is tripped. A ceiling raises it meanwhile, the
        // drain hands it back to background, and the roll that untrips
        // the wire restores its deadline.
        let (mut e, [_, _, r]) = tripped_at_11();
        let mut sink = ActionSink::new();
        assert_eq!(queued(&e, r), [(at(1), Priority::LOWEST)], "shed");
        e.apply(at(12), &Input::Msg(posted(r, Priority::new(7))), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(queued(&e, r), [(at(1), Priority::new(7))]);
        e.apply(at(13), &Input::Msg(drained(r)), &mut sink).unwrap();
        assert_folded(&e);
        assert_eq!(queued(&e, r), [(at(1), Priority::LOWEST)]);
        e.apply(at(20), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(!e.is_tripped());
        let restored = Priority::earliest_deadline(at(11));
        assert_eq!(queued(&e, r), [(at(1), restored)], "back at prio(11000000)");
    }

    #[test]
    fn a_message_episode_after_the_untrip_changes_no_key() {
        // r@12 is released while tripped; the untrip at 20 ms has
        // already restored it, so a later post and drain change no key.
        let (mut e, [_, _, r]) = tripped_at_11();
        let mut sink = ActionSink::new();
        e.apply(at(12), &Input::Activate(r), &mut sink).unwrap();
        e.apply(at(20), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        let edf = |d: u64| Priority::earliest_deadline(at(d));
        let restored = [(at(1), edf(11)), (at(12), edf(22))];
        assert_eq!(queued(&e, r), restored, "r@12 back at prio(22000000)");
        e.apply(at(21), &Input::Msg(posted(r, Priority::new(7))), &mut sink)
            .unwrap();
        assert_folded(&e);
        e.apply(at(22), &Input::Msg(drained(r)), &mut sink).unwrap();
        assert_folded(&e);
        assert_eq!(queued(&e, r), restored);
    }

    #[test]
    fn the_trip_and_the_untrip_refold_a_running_log_only_job() {
        // Two workers, non-preemptive EDF. r (`LogOnly`, deadline 100 ms)
        // runs on worker 1 when a's late completion on worker 0 trips the
        // wire, and still runs when the tick at 20 ms untrips it: one
        // Boost down, one back up.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let spec = TaskSpec::aperiodic("r").with_constrained_deadline(ms(100));
        let r = b.task_decl(spec).unwrap();
        for t in [a, r] {
            b.version_decl(t, VersionSpec::new("v", ms(2))).unwrap();
        }
        let config = Config::builder()
            .workers(2)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .miss_trip(ms(20), 0)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
        let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        e.apply(at(1), &Input::Activate(r), &mut sink).unwrap();
        assert_eq!(e.running(w1).unwrap().job.task, r);
        let late = e.running(w0).unwrap().job.id;
        sink.clear();
        e.apply(at(11), &Input::Completed(&[(w0, late)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(e.is_tripped());
        assert_eq!(boosts(&sink), [Priority::LOWEST]);
        sink.clear();
        e.apply(at(20), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        assert!(!e.is_tripped());
        assert_eq!(boosts(&sink), [Priority::earliest_deadline(at(101))]);
        assert_eq!(e.running(w1).unwrap().job.task, r);
    }

    /// One worker, preemptive EDF, WCET enforced on a 1 ms tick: `a`
    /// (periodic, 10 ms, `policy`, 1 ms budget) runs from 0 and overruns
    /// at 2 ms; the aperiodic `b` (deadline `b_deadline`) is released at
    /// 3 ms, and `a → s` when `with_successor`. Returns the engine after
    /// the overrun, `[a, b, s]` and what `b`'s activation emitted.
    fn preempted_after_overrun(
        policy: OverrunPolicy,
        b_deadline: Duration,
    ) -> (OnlineEngine, [TaskId; 3], Vec<Action>) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let spec = TaskSpec::periodic("a", ms(10)).with_overrun_policy(policy);
        let a = b.task_decl(spec).unwrap();
        let spec = TaskSpec::aperiodic("b").with_constrained_deadline(b_deadline);
        let late = b.task_decl(spec).unwrap();
        let s = b.task_decl(TaskSpec::graph_node("s")).unwrap();
        for t in [a, late, s] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let c = b.channel_decl("as", 1, 1);
        b.channel_connect(a, s, c).unwrap();
        let config = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .tick(ms(1))
            .enforce_wcet(true)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
        let mut sink = ActionSink::new();
        e.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        e.apply(at(2), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.stats().overruns, 1);
        let acts = emitted(|s| e.apply(at(3), &Input::Activate(late), s).unwrap());
        assert_folded(&e);
        (e, [a, late, s], acts)
    }

    #[test]
    fn a_preempted_demoted_job_resumes_demoted() {
        // a is demoted at 2 ms; b (deadline 50 ms) preempts it at 3 ms,
        // and a goes back to its queue in background, where b's
        // activation leaves it. When b completes, a resumes as it left:
        // demoted, its overrun booked once.
        let (mut e, [a, b, _], acts) =
            preempted_after_overrun(OverrunPolicy::DemoteToBackground, ms(50));
        let w0 = WorkerId::new(0);
        match acts.as_slice() {
            [Action::Preempt { job, .. }, Action::Dispatch { job: started, .. }] => {
                assert_eq!(e.running(w0).unwrap().job.id, started.id);
                assert_eq!(started.task, b);
                assert!(e.queues[0].iter().any(|j| j.id == *job && j.task == a));
            }
            other => panic!("expected Preempt a, Dispatch b and nothing after: {other:?}"),
        }
        let b_job = e.running(w0).unwrap().job.id;
        let mut sink = ActionSink::new();
        e.apply(at(4), &Input::Completed(&[(w0, b_job)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        let resumed = *e.running(w0).unwrap();
        assert_eq!(resumed.job.task, a);
        assert!(resumed.overrun);
        assert_eq!(resumed.effective_priority, Priority::LOWEST);
        e.apply(at(6), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_folded(&e);
        assert_eq!(e.stats().overruns, 1, "no second overrun is booked");
    }

    #[test]
    fn a_killed_job_preempted_after_its_overrun_fires_no_successor() {
        // a → s, and a is killed at 2 ms; b (deadline 2 ms) preempts it
        // at 3 ms. a resumes killed at 4 ms and completes at 5 ms: s is
        // never released.
        let (mut e, [a, b, s], acts) = preempted_after_overrun(OverrunPolicy::Kill, ms(2));
        let w0 = WorkerId::new(0);
        assert!(
            matches!(acts.as_slice(), [Action::Preempt { .. }, Action::Dispatch { job, .. }] if job.task == b)
        );
        let mut sink = ActionSink::new();
        let b_job = e.running(w0).unwrap().job.id;
        e.apply(at(4), &Input::Completed(&[(w0, b_job)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        let resumed = *e.running(w0).unwrap();
        assert_eq!(resumed.job.task, a);
        assert!(resumed.overrun && resumed.killed);
        sink.clear();
        e.apply(at(5), &Input::Completed(&[(w0, resumed.job.id)]), &mut sink)
            .unwrap();
        assert_folded(&e);
        let fired = sink
            .iter()
            .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == s));
        assert!(!fired && e.is_idle(), "{sink:?}");
        assert_eq!(e.stats().overruns, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Generated sessions over one shape — posts, drains, late
        /// completions that trip, ticks that untrip, forced overruns,
        /// preempting activations — keep the fold after every step.
        #[test]
        fn every_step_keeps_the_fold(
            workers in 1usize..3,
            edf in proptest::any::<bool>(),
            preemptive in proptest::any::<bool>(),
            budget in 0u32..3,
            steps in proptest::prop::collection::vec(proptest::any::<u32>(), 1..80),
        ) {
            fold_session(workers, edf, preemptive, budget, &steps);
        }
    }

    /// One session of `every_step_keeps_the_fold`: `p` (periodic, 5 ms,
    /// `LogOnly`), `d` (periodic, 10 ms, `DemoteToBackground`), `k`
    /// (aperiodic, `Kill`, deadline 3 ms) with a successor `s`, and the
    /// message receiver `r` (aperiodic, `LogOnly`, deadline 20 ms); WCETs
    /// enforced, the trip wire armed with `budget` over 10 ms. Each step
    /// advances the clock by 0–2 ms, then does one thing.
    fn fold_session(workers: usize, edf: bool, preemptive: bool, budget: u32, steps: &[u32]) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let p = b.task_decl(TaskSpec::periodic("p", ms(5))).unwrap();
        let spec = TaskSpec::periodic("d", ms(10));
        let d = b
            .task_decl(spec.with_overrun_policy(OverrunPolicy::DemoteToBackground))
            .unwrap();
        let spec = TaskSpec::aperiodic("k").with_constrained_deadline(ms(3));
        let k = b
            .task_decl(spec.with_overrun_policy(OverrunPolicy::Kill))
            .unwrap();
        let s = b.task_decl(TaskSpec::graph_node("s")).unwrap();
        let spec = TaskSpec::aperiodic("r").with_constrained_deadline(ms(20));
        let r = b.task_decl(spec).unwrap();
        for (t, wcet) in [(p, 2), (d, 3), (k, 1), (s, 1), (r, 2)] {
            b.version_decl(t, VersionSpec::new("v", ms(wcet))).unwrap();
        }
        let c = b.channel_decl("ks", 4, 1);
        b.channel_connect(k, s, c).unwrap();
        let policy = match edf {
            true => PriorityPolicy::EarliestDeadlineFirst,
            false => PriorityPolicy::RateMonotonic,
        };
        let config = Config::builder()
            .workers(workers)
            .priority(policy)
            .preemption(preemptive)
            .tick(ms(1))
            .enforce_wcet(true)
            .miss_trip(ms(10), budget)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
        let mut sink = ActionSink::new();
        let mut now = Instant::ZERO;
        e.apply(now, &Input::Start, &mut sink).unwrap();
        assert_folded(&e);
        for &step in steps {
            let (op, arg) = (step % 8, step / 8);
            now += ms(u64::from(arg % 3));
            let w = WorkerId::new((arg % workers as u32) as u16);
            let running = e.running(w).map(|r| r.job.id);
            let dst = [p, r][(arg % 2) as usize];
            sink.clear();
            match op {
                0 | 1 => e.apply(now, &Input::Tick { done: &[] }, &mut sink).unwrap(),
                2 => running
                    .map_or(Ok(()), |j| {
                        e.apply(now, &Input::Completed(&[(w, j)]), &mut sink)
                    })
                    .unwrap(),
                3 => running
                    .map_or(Ok(()), |j| e.apply(now, &Input::Failed(w, j), &mut sink))
                    .unwrap(),
                4 => {
                    let ceiling = Priority::earliest_deadline(now + ms(u64::from(arg % 7)));
                    e.apply(now, &Input::Msg(posted(dst, ceiling)), &mut sink)
                        .unwrap();
                }
                5 if e.high_lane_depth(dst) > 0 => {
                    e.apply(now, &Input::Msg(drained(dst)), &mut sink).unwrap();
                }
                6 => {
                    let _ = e.apply(
                        now,
                        &Input::Overrun([p, d, k, r][(arg % 4) as usize]),
                        &mut sink,
                    );
                }
                _ => e
                    .apply(now, &Input::Activate([k, r][(arg % 2) as usize]), &mut sink)
                    .unwrap(),
            }
            assert_folded(&e);
        }
    }

    #[test]
    fn post_for_unknown_task_is_rejected() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let mut sink = ActionSink::new();
        assert!(matches!(
            e.apply(
                at(0),
                &Input::Msg(posted(TaskId::new(9), Priority::HIGHEST)),
                &mut sink
            ),
            Err(Error::UnknownTask(_))
        ));
        assert!(matches!(
            e.apply(at(0), &Input::Msg(drained(TaskId::new(9))), &mut sink),
            Err(Error::UnknownTask(_))
        ));
    }

    /// One 20 ms hyperperiod of [`two_task_set`] on one worker: `first`
    /// opens it at `from` (`Input::Start` or `Input::Tick`), a tick
    /// follows 10 ms later, and every dispatched job completes its WCET
    /// after the previous one. Returns every action emitted.
    fn one_cycle(
        e: &mut OnlineEngine,
        from: Instant,
        first: impl FnOnce(&mut OnlineEngine, &mut ActionSink),
    ) -> Vec<Action> {
        let w = WorkerId::new(0);
        let mut sink = ActionSink::new();
        first(e, &mut sink);
        for tick in [from, from + ms(10)] {
            if tick > from {
                e.apply(tick, &Input::Tick { done: &[] }, &mut sink)
                    .unwrap();
            }
            let mut now = tick;
            while let Some(r) = e.running(w).copied() {
                now += e.taskset().tasks()[r.job.task.index()].versions()[0].wcet();
                e.apply(now, &Input::Completed(&[(w, r.job.id)]), &mut sink)
                    .unwrap();
            }
        }
        sink
    }

    fn tick_cycle(e: &mut OnlineEngine, from: Instant) -> Vec<Action> {
        one_cycle(e, from, |e, s| {
            e.apply(from, &Input::Tick { done: &[] }, s).unwrap()
        })
    }

    #[test]
    fn skip_cycles_lands_where_ticking_would() {
        let started = |e: &mut OnlineEngine| {
            one_cycle(e, at(0), |e, s| e.apply(at(0), &Input::Start, s).unwrap());
            tick_cycle(e, at(20));
        };
        // The reference is ticked through [40, 100); the other skips it.
        let mut ticked = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        started(&mut ticked);
        for k in 2..5 {
            tick_cycle(&mut ticked, at(20 * k));
        }
        let mut skipped = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        assert!(skipped.recurrence_mark(at(0)).is_some(), "the start is one");
        one_cycle(&mut skipped, at(0), |e, s| {
            e.apply(at(0), &Input::Start, s).unwrap()
        });
        let mark = skipped.recurrence_mark(at(20)).expect("idle, all due");
        tick_cycle(&mut skipped, at(20));
        let here = skipped.recurrence_mark(at(40)).expect("idle, all due");
        assert_eq!(here.job_counter - mark.job_counter, 3);
        assert_eq!(here.activation_seq, [4, 2]);
        let before = skipped.stats().clone();
        let skip = Input::Skip { since: &mark, n: 3 };
        let mut sink = ActionSink::new();
        skipped.apply(at(40), &skip, &mut sink).unwrap();

        // before + 3 × (one cycle's delta); the high-water mark holds.
        let after = skipped.stats().clone();
        assert_eq!(&after, ticked.stats());
        assert_eq!(after.released, before.released + 3 * 3);
        assert_eq!(after.dispatched, before.dispatched + 3 * 3);
        assert_eq!(after.completed, before.completed + 3 * 3);
        assert_eq!(after.max_ready, before.max_ready);
        assert_eq!(
            skipped.recurrence_mark(at(100)),
            ticked.recurrence_mark(at(100))
        );
        // Same jobs from here on: ids, seqs, releases, deadlines.
        let next = tick_cycle(&mut skipped, at(100));
        assert_eq!(next, tick_cycle(&mut ticked, at(100)));
        assert!(
            matches!(next[0], Action::Dispatch { job, .. } if job.id == JobId::new(15)
                && job.seq == 10 && job.release == at(100)),
            "{next:?}"
        );
    }

    #[test]
    fn recurrence_needs_a_quiescent_synchronous_engine() {
        let w = WorkerId::new(0);
        let refused = |e: &mut OnlineEngine, mark: &CycleMark, now: Instant, why: &str| {
            assert!(e.recurrence_mark(now).is_none(), "{why}");
            let skip = Input::Skip { since: mark, n: 1 };
            let refused = e.apply(now, &skip, &mut ActionSink::new());
            assert!(refused.is_err(), "{why}");
        };
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let start = e.recurrence_mark(at(0)).unwrap();
        let mut sink = ActionSink::new();
        e.apply(at(0), &Input::Start, &mut sink).unwrap();
        refused(&mut e, &start, at(0), "one job running, one ready");
        let a = e.running(w).unwrap().job.id;
        e.apply(at(2), &Input::Completed(&[(w, a)]), &mut sink)
            .unwrap();
        assert_eq!(e.ready_len(), 0);
        refused(&mut e, &start, at(10), "a job running");
        let c = e.running(w).unwrap().job.id;
        e.apply(at(7), &Input::Completed(&[(w, c)]), &mut sink)
            .unwrap();
        refused(&mut e, &start, at(10), "idle, but only `a` is due at 10 ms");
        e.apply(at(10), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        let a = e.running(w).unwrap().job.id;
        e.apply(at(12), &Input::Completed(&[(w, a)]), &mut sink)
            .unwrap();
        assert!(e.recurrence_mark(at(20)).is_some());
        assert!(e.recurrence_mark(at(30)).is_none(), "due at 20 ms, not 30");

        // A tenant with a reservation server: its budget remembers when
        // it was last replenished.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(20))).unwrap();
        b.version_decl(t, VersionSpec::new("t", ms(1))).unwrap();
        let merged = Arc::new(e.taskset().extended(&b.build().unwrap()).unwrap());
        let budget = crate::server::TenantBudget::deferrable(ms(5), ms(20));
        splice(&mut e, &merged, Some(budget), at(20));
        refused(&mut e, &start, at(20), "a reservation server attached");

        // An accelerator is held by a running job only.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let t = b.task_decl(TaskSpec::periodic("t", ms(20))).unwrap();
        b.version_decl(t, VersionSpec::new("gpu", ms(5)).with_accel(gpu))
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), edf_config(1)).unwrap();
        let start = e.recurrence_mark(at(0)).unwrap();
        e.apply(at(0), &Input::Start, &mut sink).unwrap();
        assert!(e.running(w).unwrap().accel.is_some());
        refused(&mut e, &start, at(0), "the accelerator held");

        // fast (10 ms) and slow (20 ms) feed a join: by 20 ms fast has
        // sent two tokens and the join has consumed one.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let fast = b.task_decl(TaskSpec::periodic("fast", ms(10))).unwrap();
        let slow = b.task_decl(TaskSpec::periodic("slow", ms(20))).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        for t in [fast, slow, join] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let (c1, c2) = (b.channel_decl("fj", 1, 4), b.channel_decl("sj", 1, 4));
        b.channel_connect(fast, join, c1).unwrap();
        b.channel_connect(slow, join, c2).unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), edf_config(1)).unwrap();
        let start = e.recurrence_mark(at(0)).unwrap();
        one_cycle(&mut e, at(0), |e, s| {
            e.apply(at(0), &Input::Start, s).unwrap()
        });
        assert!(e.is_idle());
        refused(&mut e, &start, at(20), "a token waiting on fast -> join");
    }

    #[test]
    fn a_release_offset_keeps_the_start_from_recurring() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let spec = TaskSpec::periodic("late", ms(10)).with_release_offset(ms(3));
        let t = b.task_decl(spec).unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        let e = OnlineEngine::new(Arc::new(b.build().unwrap()), edf_config(1)).unwrap();
        assert!(e.recurrence_mark(at(0)).is_none());
    }

    /// Runs engines on a 1 ms grid: every job runs its version's WCET
    /// from its dispatch, and each instant's completions share one round
    /// with the tick when one is due.
    struct GridRun {
        /// Per global worker: the running job and when it finishes.
        finish: Vec<Option<(JobId, Instant)>>,
        actions: Vec<Action>,
    }

    impl GridRun {
        fn new(workers: usize) -> Self {
            GridRun {
                finish: vec![None; workers],
                actions: Vec::new(),
            }
        }

        /// Books what one engine call at `now` emitted.
        fn apply(&mut self, e: &OnlineEngine, now: Instant, sink: &ActionSink) {
            for &a in sink.as_slice() {
                match a {
                    Action::Dispatch {
                        worker,
                        job,
                        version,
                    } => {
                        let task = &e.taskset().tasks()[job.task.index()];
                        let end = now + task.versions()[version.index()].wcet();
                        self.finish[worker.index()] = Some((job.id, end));
                    }
                    Action::Preempt { worker, .. } => self.finish[worker.index()] = None,
                    _ => {}
                }
                self.actions.push(a);
            }
        }

        /// Drives `e` over (`from`, `to`] ms.
        fn run(&mut self, e: &mut OnlineEngine, from: u64, to: u64) {
            let tick = e.tick_period().as_nanos() / 1_000_000;
            let mut sink = ActionSink::new();
            for t in from + 1..=to {
                let now = at(t);
                let mut done = Vec::new();
                for (w, slot) in self.finish.iter_mut().enumerate() {
                    if let Some((job, _)) = slot.take_if(|&mut (_, end)| end <= now) {
                        done.push((WorkerId::new(w as u16), job));
                    }
                }
                sink.clear();
                if t % tick == 0 {
                    e.apply(now, &Input::Tick { done: &done }, &mut sink)
                        .unwrap();
                } else if !done.is_empty() {
                    e.apply(now, &Input::Completed(&done), &mut sink).unwrap();
                }
                self.apply(e, now, &sink);
            }
        }
    }

    /// Whether `actions` name a job of a task in `tasks`.
    fn touches(actions: &[Action], tasks: std::ops::Range<usize>) -> bool {
        actions.iter().any(|a| match a {
            Action::Dispatch { job, .. } => tasks.contains(&job.task.index()),
            _ => false,
        })
    }

    #[test]
    fn a_restarted_engine_arms_live_tenants_only() {
        // One tenant committed then retired, one spliced and never
        // committed: after a stop and a restart neither releases a job.
        let guest = |name: &str| {
            let mut b = yasmin_core::graph::TaskSetBuilder::new();
            let t = b.task_decl(TaskSpec::periodic(name, ms(10))).unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(1))).unwrap();
            b.build().unwrap()
        };
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut grid = GridRun::new(2);
        let mut sink = ActionSink::new();
        e.apply(at(0), &Input::Start, &mut sink).unwrap();
        grid.apply(&e, at(0), &sink);
        let merged = Arc::new(e.taskset().extended(&guest("retired")).unwrap());
        let retired = splice(&mut e, &merged, None, at(0));
        sink.clear();
        commit(&mut e, retired, at(0), &mut sink).unwrap();
        grid.apply(&e, at(0), &sink);
        grid.run(&mut e, 0, 25);
        e.apply(at(25), &Input::Retire(retired), &mut sink).unwrap();
        let merged = Arc::new(e.taskset().extended(&guest("pending")).unwrap());
        splice(&mut e, &merged, None, at(25));
        e.apply(at(25), &Input::Stop, &mut sink).unwrap();
        grid.run(&mut e, 25, 40);
        assert!(e.is_idle(), "drained after the stop");

        let released = e.stats().released;
        sink.clear();
        e.apply(at(40), &Input::Start, &mut sink).unwrap();
        grid.actions.clear();
        grid.apply(&e, at(40), &sink);
        grid.run(&mut e, 40, 109);
        assert!(!touches(&grid.actions, 2..4), "{:?}", grid.actions);
        // The base set alone over [40, 100]: `a` every 10 ms, `c` every 20.
        assert_eq!(e.stats().released - released, 7 + 4);
        assert!(e.is_idle());
    }

    /// A base set of two workers' tasks with one edge, and a tenant
    /// whose roots first release 10 ms in.
    fn base_and_tenant() -> (TaskSet, TaskSet) {
        let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t0 = b.task_decl(TaskSpec::periodic("t0", ms(10)).on_worker(w0));
        let t1 = b.task_decl(TaskSpec::periodic("t1", ms(20)).on_worker(w1));
        let g = b
            .task_decl(TaskSpec::graph_node("g").on_worker(w1))
            .unwrap();
        let (t0, t1) = (t0.unwrap(), t1.unwrap());
        for (t, c) in [(t0, 3), (t1, 6), (g, 2)] {
            b.version_decl(t, VersionSpec::new("v", ms(c))).unwrap();
        }
        let ch = b.channel_decl("t1g", 1, 2);
        b.channel_connect(t1, g, ch).unwrap();
        let base = b.build().unwrap();

        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let late = |name, period, w| {
            let spec = TaskSpec::periodic(name, ms(period));
            spec.with_release_offset(ms(10)).on_worker(w)
        };
        let r = b.task_decl(late("r", 40, w0)).unwrap();
        let s = b
            .task_decl(TaskSpec::graph_node("s").on_worker(w0))
            .unwrap();
        let q = b.task_decl(late("q", 20, w1)).unwrap();
        for (t, c) in [(r, 4), (s, 3), (q, 2)] {
            b.version_decl(t, VersionSpec::new("v", ms(c))).unwrap();
        }
        let ch = b.channel_decl("rs", 1, 2);
        b.channel_connect(r, s, ch).unwrap();
        (base, b.build().unwrap())
    }

    #[test]
    fn a_spliced_tenant_runs_as_if_built_in() {
        // One engine is built on the merged set; the other on the base
        // set, started, and handed the tenant at the start instant. Over
        // three 40 ms hyperperiods they must emit the same actions and
        // count the same.
        let (base, tenant) = base_and_tenant();
        let merged = Arc::new(base.extended(&tenant).unwrap());
        let base = Arc::new(base);
        let rm = |mapping, sharded| {
            let b = Config::builder().workers(2).mapping(mapping);
            let b = b.sharded_dispatch(sharded);
            b.priority(PriorityPolicy::RateMonotonic).build().unwrap()
        };
        let run = |mut e: OnlineEngine, spliced: bool| {
            let mut grid = GridRun::new(2);
            let mut sink = ActionSink::new();
            e.apply(at(0), &Input::Start, &mut sink).unwrap();
            if spliced {
                let tenant = splice(&mut e, &merged, None, at(0));
                commit(&mut e, tenant, at(0), &mut sink).unwrap();
            }
            grid.apply(&e, at(0), &sink);
            grid.run(&mut e, 0, 120);
            let mut outbox = Vec::new();
            e.drain_outbox_into(&mut outbox);
            assert!(outbox.is_empty(), "no edge crosses workers");
            assert!(touches(&grid.actions, 3..6), "the tenant ran");
            (grid.actions, e.stats().clone())
        };
        for mapping in [MappingScheme::Global, MappingScheme::Partitioned] {
            let built = OnlineEngine::new(Arc::clone(&merged), rm(mapping, false)).unwrap();
            let spliced = OnlineEngine::new(Arc::clone(&base), rm(mapping, false)).unwrap();
            assert_eq!(run(built, false), run(spliced, true), "{mapping:?}");
        }
        let config = rm(MappingScheme::Partitioned, true);
        let shard_0 = |set| {
            let mut shards = crate::shard::EngineShard::build_all(set, &config).unwrap();
            shards.swap_remove(0).into_inner()
        };
        assert_eq!(run(shard_0(&merged), false), run(shard_0(&base), true));
    }

    /// `churn`'s shape — six base tasks, three-task tenants, four live —
    /// through 10 000 admit/retire cycles of a ledger and an engine,
    /// with time running: every structure kept per task or per tenant
    /// stays what four live tenants need.
    #[test]
    fn tenant_state_is_bounded_by_the_live_tenants() {
        use crate::admission::{AdmissionControl, TenantLedger};
        use std::collections::VecDeque;
        use yasmin_core::graph::TaskSetBuilder;
        let set = |name: &str, periods: &[u64], wcet_us: u64| {
            let mut b = TaskSetBuilder::new();
            for (i, &p) in periods.iter().enumerate() {
                let t = b
                    .task_decl(TaskSpec::periodic(format!("{name}{i}"), ms(p)))
                    .unwrap();
                let v = VersionSpec::new("v", Duration::from_micros(wcet_us));
                b.version_decl(t, v).unwrap();
            }
            b.build().unwrap()
        };
        let config = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::DeadlineMonotonic)
            .preemption(false)
            .build()
            .unwrap();
        let base = Arc::new(set("base", &[5, 10, 10, 20, 40, 40], 500));
        let mut e = OnlineEngine::new(Arc::clone(&base), config).unwrap();
        let mut ledger = TenantLedger::new(AdmissionControl::for_engine(&e), base);
        let mut sink = ActionSink::new();
        e.apply(at(0), &Input::Start, &mut sink).unwrap();
        let tenant = set("t", &[10, 20, 40], 2);
        let mut live = VecDeque::new();
        let mut now = at(0);
        for _ in 0..10_000 {
            let admitted = ledger.admit(&tenant, None, |a| {
                let install = Input::Install {
                    merged: a.merged,
                    tenant: a.tenant,
                    first_task: a.slot.first_task,
                    budget: None,
                };
                e.apply(now, &install, &mut sink)
            });
            let t = admitted.unwrap();
            commit(&mut e, t, now, &mut sink).unwrap();
            live.push_back(t);
            if live.len() > 4 {
                let oldest = live.pop_front().unwrap();
                ledger.retire(oldest).unwrap();
                e.apply(now, &Input::Retire(oldest), &mut sink).unwrap();
            }
            now += ms(5);
            if let Some(r) = e.running(WorkerId::new(0)) {
                let job = r.job.id;
                e.apply(
                    now,
                    &Input::Completed(&[(WorkerId::new(0), job)]),
                    &mut sink,
                )
                .unwrap();
            }
            sink.clear();
            e.apply(now, &Input::Tick { done: &[] }, &mut sink).unwrap();
        }
        assert_eq!(ledger.merged().len(), 21);
        assert_eq!(ledger.live_rows().len(), 18);
        assert_eq!(e.taskset().len(), 21);
        // Tenant 0 and five slots: four live, one free.
        assert_eq!(e.tenants.len(), 6);
        assert_eq!(e.tenants.iter().filter(|t| t.retired).count(), 1);
        assert_eq!(e.tenant_count(), 10_001);
        let per_task = [e.next_release.len(), e.activation_seq.len(), e.rows.len()];
        assert!(per_task.iter().all(|&n| n <= 21), "{per_task:?}");
        assert!(e.stats().completed > 5_000, "{:?}", e.stats());
    }

    #[test]
    fn an_activation_in_a_free_slot_names_its_last_holder() {
        use crate::admission::{AdmissionControl, TenantLedger};
        let guest = || {
            let mut b = yasmin_core::graph::TaskSetBuilder::new();
            let t = b.task_decl(TaskSpec::aperiodic("g")).unwrap();
            b.version_decl(t, VersionSpec::new("g", ms(1))).unwrap();
            b.build().unwrap()
        };
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut ledger = TenantLedger::new(AdmissionControl::for_engine(&e), e.taskset_arc());
        let mut sink = ActionSink::new();
        e.apply(at(0), &Input::Start, &mut sink).unwrap();
        for round in 1..=3 {
            let tenant = ledger.admit(&guest(), None, |a| {
                let install = Input::Install {
                    merged: a.merged,
                    tenant: a.tenant,
                    first_task: a.slot.first_task,
                    budget: None,
                };
                e.apply(at(round), &install, &mut sink)
            });
            let tenant = tenant.unwrap();
            commit(&mut e, tenant, at(round), &mut sink).unwrap();
            ledger.retire(tenant).unwrap();
            e.apply(at(round), &Input::Retire(tenant), &mut sink)
                .unwrap();
        }
        // Three tenants held T2 in turn, from the tenant table's index 1.
        assert_eq!(e.taskset().len(), 3);
        let refused = e.apply(at(4), &Input::Activate(TaskId::new(2)), &mut sink);
        assert!(
            matches!(refused, Err(Error::TenantRetired(3))),
            "{refused:?}"
        );
    }

    #[test]
    fn an_heir_starts_without_its_former_holders_message_boost() {
        // The guest's running job is boosted by a high-lane post, and
        // the guest retires with the post outstanding: `Input::Retire`
        // leaves its task's depth and ceiling as they were. The heir of
        // its slot starts with neither: its first job is dispatched at
        // its base priority and no boost is sent.
        use crate::admission::{AdmissionControl, TenantLedger};
        let guest = || {
            let mut b = yasmin_core::graph::TaskSetBuilder::new();
            let t = b.task_decl(TaskSpec::periodic("g", ms(10))).unwrap();
            b.version_decl(t, VersionSpec::new("g", ms(1))).unwrap();
            b.build().unwrap()
        };
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let idle = b.task_decl(TaskSpec::aperiodic("idle")).unwrap();
        b.version_decl(idle, VersionSpec::new("idle", ms(1)))
            .unwrap();
        let config = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .tick(ms(1))
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
        let mut ledger = TenantLedger::new(AdmissionControl::for_engine(&e), e.taskset_arc());
        let (w0, g) = (WorkerId::new(0), TaskId::new(1));
        let mut sink = ActionSink::new();
        let admit =
            |e: &mut OnlineEngine, ledger: &mut TenantLedger, now, sink: &mut ActionSink| {
                let tenant = ledger.admit(&guest(), None, |a| {
                    let install = Input::Install {
                        merged: a.merged,
                        tenant: a.tenant,
                        first_task: a.slot.first_task,
                        budget: None,
                    };
                    e.apply(now, &install, sink)
                });
                let tenant = tenant.unwrap();
                commit(e, tenant, now, sink).unwrap();
                tenant
            };
        e.apply(at(0), &Input::Start, &mut sink).unwrap();
        let former = admit(&mut e, &mut ledger, at(1), &mut sink);
        let job = e.running(w0).unwrap().job;
        e.apply(at(2), &Input::Msg(posted(g, Priority::new(7))), &mut sink)
            .unwrap();
        assert_eq!(boosts(&sink), [Priority::new(7)]);
        ledger.retire(former).unwrap();
        e.apply(at(3), &Input::Retire(former), &mut sink).unwrap();
        e.apply(at(4), &Input::Completed(&[(w0, job.id)]), &mut sink)
            .unwrap();
        assert_eq!(e.high_lane_depth(g), 1, "the retirement left the post");
        sink.clear();
        admit(&mut e, &mut ledger, at(5), &mut sink);
        assert_eq!(e.taskset().len(), 2, "the heir holds the guest's slot");
        let base = Priority::earliest_deadline(at(15));
        let Some(Action::Dispatch { job, .. }) = sink.first() else {
            panic!("the heir's first job is not dispatched: {sink:?}");
        };
        assert_eq!((job.task, job.priority), (g, base));
        assert_eq!(e.running(w0).unwrap().effective_priority, base);
        assert_eq!(boosts(&sink), []);
        assert_eq!(e.high_lane_depth(g), 0);
        assert_eq!(e.active_msg_ceiling(g), None);
        assert_folded(&e);
    }
}
