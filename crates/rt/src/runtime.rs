//! The real-thread YASMIN runtime (Fig. 1a/1b brought to life): **one
//! builder, one handle**, and a [`Config`] that says which runtime
//! comes up.
//!
//! [`RuntimeBuilder::build`] spawns *owner* threads. An owner holds one
//! engine, wakes at the gcd tick (§3.3) and steps the owner machine of
//! [`crate::owner`], whose module docs describe it. **How many owners
//! there are follows from [`Config::sharded_dispatch`] and nothing
//! else:** off — global mapping, or partitioned mapping under one
//! scheduler (Fig. 1a) — one owner (`yasmin-scheduler`) holds the whole
//! engine over worker slots `0..n`; on — partitioned mapping with the
//! engine state split into per-worker shards (Fig. 1b,
//! `yasmin_sched::shard`) — one owner per shard
//! (`yasmin-shard-sched-{w}`), talking to its peers over mailbox lanes
//! and, with [`RuntimeBuilder::work_stealing`], their shelves.
//!
//! **Who executes the bodies follows from an owner's slot count and
//! nothing else.** With one slot — every shard, and the whole engine
//! with one worker — the owner is scheduler and worker at once: it
//! executes the body the engine dispatched itself, pinned to its
//! worker's core, and everything else waits for the **job boundary**
//! ("The job boundary" there lists what waits and how long). With two
//! slots or more the owner only schedules, and each worker is a helper
//! thread (`yasmin-worker-{w}`, a "virtual CPU", pinned best-effort).
//!
//! Control commands (`activate`, message boosts, `stop`) reach an owner
//! over mailbox lanes that ring it, so a parked owner acts on a command
//! when it is sent, not at the next completion or tick. `admit` and
//! `retire` ring shards too, but reach one owner quietly: what they do
//! takes effect at its next tick edge anyway, where its timed park ends
//! ([`Runtime::admit`]). Between jobs an owner waits as
//! [`Config::waiting`] says — parked on its mailbox until the next tick
//! edge, or spinning — and the tick grid is anchored at the instant the
//! engine started.
//!
//! `ShardedRuntime` and `ShardedRuntimeBuilder` ([`crate::owner`]) are
//! aliases of [`Runtime`] and [`RuntimeBuilder`], kept for source
//! compatibility; they go at the next benchmark re-baseline.
//!
//! Substitution note (DESIGN.md): the paper preempts workers with POSIX
//! signals and a hand-written `swapcontext`. Safe Rust cannot hijack a
//! thread asynchronously, so this runtime schedules **non-preemptively at
//! job boundaries** — configurations must set `preemption(false)`;
//! preemptive behaviour is exercised in the simulator, which drives the
//! same engine.
//!
//! Data channels: the engine tracks *activation tokens*; the actual data
//! travels through `yasmin_sync::spsc` endpoints captured inside the task
//! closures (the Rust analogue of the paper's macro-generated static
//! FIFO buffers — see `examples/quickstart.rs`).

use crate::owner::{
    owner_of, send_waiting, spawn, tenant_send, try_lock, wait_for, BodyTable, Lanes, OwnerReport,
    SendFn, ShardMsg, Spliced,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use yasmin_core::config::Config;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::time::{Clock, Instant, MonotonicClock};
use yasmin_sched::admission::{
    Admission, AdmissionControl, AdmissionError, Generation, TenantLedger,
};
use yasmin_sched::msg::{NotifyHandle, Receiver as MsgReceiver, Sender as MsgSender};
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{validate_sharding, EngineStats, Job, JobOutcome};
use yasmin_sync::mailbox::MailboxSender;

/// Context handed to a task body for each job.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// The job being executed.
    pub job: Job,
    /// The version selected by the scheduler.
    pub version: VersionId,
    /// The worker (virtual CPU) executing it.
    pub worker: WorkerId,
}

/// A task-version body: the user function of `version_decl`.
pub type TaskBody = Arc<dyn Fn(&JobCtx) + Send + Sync>;

/// One completed job, as observed by the runtime.
#[derive(Debug, Clone, Copy)]
pub struct RtJobRecord {
    /// The job.
    pub job: Job,
    /// Version executed.
    pub version: VersionId,
    /// Worker that ran it.
    pub worker: WorkerId,
    /// When the body started.
    pub started: Instant,
    /// When the body returned.
    pub completed: Instant,
    /// Whether the body returned normally or panicked (panics are
    /// contained on the thread that ran it and retired as failures).
    pub outcome: JobOutcome,
}

impl RtJobRecord {
    /// Dispatch latency: body start − release.
    #[must_use]
    pub fn start_latency(&self) -> yasmin_core::time::Duration {
        self.started.saturating_since(self.job.release)
    }

    /// Response time: completion − release.
    #[must_use]
    pub fn response_time(&self) -> yasmin_core::time::Duration {
        self.completed.saturating_since(self.job.release)
    }

    /// `true` if the job completed past its deadline.
    #[must_use]
    pub fn missed(&self) -> bool {
        self.job.abs_deadline != Instant::MAX && self.completed > self.job.abs_deadline
    }
}

/// How one owner met its tick edges over a run, and what arming its
/// timed park early cost it (see "The tick edge" in [`crate::owner`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Tick edges the owner met: the rounds it ran at or past their
    /// edge, and the pre-staged ones.
    pub edges: u64,
    /// Median lateness of those edges, to about 6 %: *round began −
    /// nominal edge* for a round run at or past its edge — the timer's
    /// lateness where the owner was parked, the rest of a body where an
    /// edge fell inside one — and *hold ended − nominal edge* for a
    /// pre-staged edge, whose round ran ahead of it: how late its held
    /// body, and what arrived during the hold, could go on.
    pub late_p50_ns: u64,
    /// The largest such lateness, exact.
    pub late_max_ns: u64,
    /// The near lead in force when the owner exited: how far ahead of
    /// the point where an edge's round runs its near park was armed —
    /// the lower quartile of its near parks' lateness.
    pub lead_ns: u64,
    /// The far lead in force when the owner exited: how far ahead of the
    /// near park's arming point its far park was armed — the upper
    /// decile of its far parks' lateness and a fixed 20 µs margin.
    pub far_lead_ns: u64,
    /// The round lead in force when the owner exited: how far ahead of
    /// an edge its round was pre-staged — the upper decile of what its
    /// tick rounds met from idle took. Zero on an owner that feeds
    /// helpers, which never pre-stages.
    pub round_lead_ns: u64,
    /// Edges whose round ran ahead of them, at the edge's own instant,
    /// with what it dispatched held until the clock reached the edge:
    /// about one per edge of an owner that runs its own bodies and is
    /// idle before its edges. The four counters after it say why the
    /// other edges were not: each edge is in exactly one of the five.
    pub prestaged: u64,
    /// Edges a body ran across: their round ran at the job boundary.
    pub body_crossed: u64,
    /// Edges met from idle whose last wait — a far or near park, or a
    /// spin — ended at or past the edge.
    pub woke_late: u64,
    /// Edges met from idle with a zero round lead: the first rounds,
    /// while the lead still learns, and every edge an owner that feeds
    /// helpers meets from idle.
    pub no_lead: u64,
    /// Edges that passed while the owner, its last wait over before
    /// them, was at work: commands, a steal, a job boundary.
    pub held_busy: u64,
    /// Near parks taken: about one per edge of an owner that parks
    /// between its edges, none under `WaitChoice::Spin`.
    pub near_parks: u64,
    /// Far parks that ran into their timeout at or past the near park's
    /// arming point: each spun through the near lead to its edge, or
    /// left the edge's round late. The far lead is the far parks' upper
    /// decile and a margin, so at most about one in ten; none under
    /// `WaitChoice::Spin`.
    pub far_overshoots: u64,
    /// Times the owner found itself idle inside the near lead and spun
    /// to the point where the edge's round runs — its near park ended
    /// there, its far park did, or its last job did. The near lead is
    /// the lower quartile of the near parks' lateness, so about a
    /// quarter of the edges of an owner that parks between them. None
    /// under `WaitChoice::Spin`.
    pub early_wakes: u64,
    /// Time the owner spun while idle. Under `WaitChoice::Sleep`, in
    /// those early wakes — a few µs each, the part of the near lead its
    /// park did not sleep through — and in the holds of pre-staged
    /// edges, the part of the round lead the round did not take. Under
    /// `WaitChoice::Spin`, all of its idle time: it spins to every edge.
    pub spin_ns: u64,
}

/// What one owner gave away and took by work stealing (see "Work
/// stealing" in [`crate::owner`]); all zero unless
/// [`RuntimeBuilder::work_stealing`] is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Jobs the owner laid out on its shelf before running a body.
    pub shelved: u64,
    /// Of those, the jobs a peer took — this owner's share of
    /// `EngineStats::donated`. The rest went back into its queue.
    pub taken: u64,
    /// Times the owner, idle, took jobs from a peer's shelf.
    pub claims: u64,
    /// The jobs those claims took — this owner's share of
    /// `EngineStats::stolen`.
    pub jobs_claimed: u64,
    /// Times the owner, idle, found nothing to take: no loaded peer had
    /// anything on its shelf, or another thief was faster. One per
    /// park, or per spin under `WaitChoice::Spin`.
    pub empty_probes: u64,
    /// DAG tokens the owner sent to a peer inside a body, where each
    /// waits for that body's end: successors it could not keep.
    pub bounced: u64,
    /// Instances of a peer's task the owner kept and ran itself, having
    /// completed their predecessor while that peer was inside a body
    /// (work-first continuation). With `jobs_claimed`, its share of
    /// `EngineStats::stolen`; the peer counts each one donated.
    pub continued: u64,
}

/// Final report returned by [`Runtime::cleanup`].
#[derive(Debug, Default)]
pub struct RuntimeReport {
    /// Every completed job.
    pub records: Vec<RtJobRecord>,
    /// Engine counters, merged over the owners.
    pub engine_stats: EngineStats,
    /// One entry per owner thread, in owner (shard) order.
    pub tick_stats: Vec<TickStats>,
    /// One entry per owner thread, in owner (shard) order.
    pub steal_stats: Vec<StealStats>,
    /// Runtime threads the kernel refused to pin to their core (no such
    /// core, restricted cpuset, `os-rt` disabled): they ran wherever
    /// the host put them, so the run's timing is that of a floating
    /// thread, not of the placement the builder asked for.
    pub unpinned_threads: usize,
}

/// Builder mirroring the paper's init/declare phase.
pub struct RuntimeBuilder {
    pub(crate) taskset: Arc<TaskSet>,
    pub(crate) config: Config,
    pub(crate) bodies: Bodies,
    pub(crate) channels: Vec<NotifyHandle>,
    pub(crate) pin_offset: usize,
    /// Only shards steal; off unless turned on.
    pub(crate) work_stealing: bool,
    pub(crate) lock_memory: bool,
}

impl RuntimeBuilder {
    /// Starts building a runtime for `taskset` under `config`, which
    /// must set `preemption(false)`. With `Config::sharded_dispatch`
    /// (partitioned mapping) the runtime is one owner per shard,
    /// otherwise one owner over the whole engine — see the module docs.
    #[must_use]
    pub fn new(taskset: Arc<TaskSet>, config: Config) -> Self {
        RuntimeBuilder {
            taskset,
            config,
            bodies: HashMap::new(),
            channels: Vec::new(),
            pin_offset: 0,
            work_stealing: false,
            lock_memory: false,
        }
    }

    /// Opens the typed endpoints of a channel declared in the task set
    /// (`TaskSetBuilder::channel_decl` /
    /// `TaskSetBuilder::channel_decl_prioritized`) and registers its
    /// notify hook with the runtime: once built, a
    /// [`yasmin_sched::msg::Sender::send_high`] on this channel boosts
    /// the receiving task's pending job through the scheduler until the
    /// high lane drains. Capacity and element size are validated
    /// against the [`yasmin_core::channel::ChannelSpec`]. The channel's
    /// events go to the owner of the receiving task — under sharding its
    /// shard, wherever the sending task runs — as an `activate` of that
    /// task does.
    ///
    /// Hand the [`yasmin_sched::msg::Sender`] to the producing task's
    /// body and the [`yasmin_sched::msg::Receiver`] to the consuming
    /// one (they are `Send + Sync`; capture them in the closures).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownChannel`] / [`Error::ChannelNotConnected`] for a
    /// bad id, [`Error::InvalidConfig`] when `T` does not fit the
    /// spec's element size.
    pub fn channel<T: Send>(
        &mut self,
        id: yasmin_core::ids::ChannelId,
    ) -> Result<(MsgSender<T>, MsgReceiver<T>)> {
        let (tx, rx) = yasmin_sched::msg::channel(&self.taskset, id)?;
        self.channels.push(tx.notify_handle());
        Ok((tx, rx))
    }

    /// Registers a standalone channel (built with
    /// [`yasmin_sched::ChannelBuilder`], outside the task-set graph) so
    /// its high-lane traffic reaches the owner of the receiving task.
    #[must_use]
    pub fn register_channel(mut self, handle: NotifyHandle) -> Self {
        self.channels.push(handle);
        self
    }

    /// Enables work stealing between shards: an idle shard probes the
    /// advisory load board and pulls the most urgent accelerator-free
    /// ready jobs off the most loaded peer, running them itself. Off by
    /// default, which preserves strict task-to-worker placement.
    /// Stealing moves jobs between shards, so [`RuntimeBuilder::build`]
    /// refuses it under a configuration that is not sharded.
    #[must_use]
    pub fn work_stealing(mut self, on: bool) -> Self {
        self.work_stealing = on;
        self
    }

    /// Registers the executable body of `(task, version)`.
    #[must_use]
    pub fn body(
        mut self,
        task: TaskId,
        version: VersionId,
        f: impl Fn(&JobCtx) + Send + Sync + 'static,
    ) -> Self {
        self.bodies.insert((task, version), Arc::new(f));
        self
    }

    /// Places the runtime's threads from core `offset` on, best-effort.
    /// An owner that executes — a shard's, or the only thread of a
    /// one-worker runtime — pins to its worker's core, `offset + w`.
    /// One owner with more workers pins worker *w* to `offset + w` and
    /// itself to `offset + workers`. A thread the kernel refuses to pin
    /// runs unpinned and is counted in
    /// [`RuntimeReport::unpinned_threads`] — that scheduling thread's,
    /// for one, whenever the host has no more cores than workers.
    #[must_use]
    pub fn pin_cores_from(mut self, offset: usize) -> Self {
        self.pin_offset = offset;
        self
    }

    /// Calls `mlockall` at start (best-effort, §3.5).
    #[must_use]
    pub fn lock_memory(mut self) -> Self {
        self.lock_memory = true;
        self
    }

    /// Validates the declarations and spawns the runtime's threads: one
    /// owner per shard under `Config::sharded_dispatch`, one owner over
    /// the whole engine otherwise. The schedule starts immediately: an
    /// owner starts its engine as its first act, so periodic tasks with
    /// a zero release offset are dispatched before `build` has returned
    /// to a slow caller. There is no separate `start` call.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] when preemption is enabled (see module
    ///   docs), a version has no registered body, work stealing is asked
    ///   of a configuration that is not sharded, or a sharded one's task
    ///   set violates the sharding contract
    ///   ([`yasmin_sched::validate_sharding`]);
    /// * engine construction errors (partition validation etc.).
    pub fn build(self) -> Result<Runtime> {
        let config = &self.config;
        if config.preemption() {
            return Err(Error::InvalidConfig(
                "the thread runtime schedules non-preemptively at job boundaries; \
                 build the Config with .preemption(false) (the simulator exercises \
                 preemptive configurations)"
                    .into(),
            ));
        }
        if self.work_stealing && !config.sharded_dispatch() {
            return Err(Error::InvalidConfig(
                "work stealing moves jobs between shards: enable \
                 Config::sharded_dispatch, or leave it off"
                    .into(),
            ));
        }
        // `spawn` reads the bodies, and refuses a missing one, before it
        // starts a thread.
        spawn(self)
    }
}

/// The running middleware: the owner threads of one schedule — one over
/// the whole engine or one per shard, with a helper thread per worker
/// under an owner that has two or more — and the lanes into them.
pub struct Runtime {
    /// Tenant state; the mutex serialises the splice and retire
    /// broadcasts of concurrent callers, so every owner hears them in
    /// ledger order. Admissions and retirements are validated here:
    /// owner threads do not reply.
    pub(crate) tenancy: Mutex<Tenancy>,
    pub(crate) clock: Arc<MonotonicClock>,
    /// Says whether the owners are shards.
    pub(crate) config: Config,
    /// The shared lane into each owner, which the callers of the `&self`
    /// handle send into; also tells a caller that is inside a body of
    /// this runtime ([`wait_for`]).
    pub(crate) lanes: Lanes,
    pub(crate) threads: Vec<std::thread::JoinHandle<OwnerReport>>,
    /// Each helper returns whether it ran pinned.
    pub(crate) helpers: Vec<std::thread::JoinHandle<bool>>,
}

/// A runtime's tenant state: the ledger, and the pen — every generation
/// of what the owners run that an owner or a helper may still hold, a
/// merged set and the body table built with it. An owner lets go of
/// both on its own thread when it adopts the next
/// ([`ShardMsg::Admit`]), so it must never hold the last reference: the
/// pen keeps a generation until it holds the only reference to both
/// halves, and takes it back on a caller's thread — an admission makes
/// the next generation in it, or drops it, and the handle drops what is
/// left at [`Runtime::cleanup`].
pub(crate) struct Tenancy {
    pub(crate) ledger: TenantLedger,
    /// The last is the one the owners run; tenant 0's at first.
    pub(crate) generations: Vec<(Generation, Arc<BodyTable>)>,
}

/// Whether the pen holds the only reference to both halves of a
/// generation: a count of one cannot rise again, only a holder can
/// clone.
fn alone((g, table): &(Generation, Arc<BodyTable>)) -> bool {
    Arc::strong_count(&g.set) == 1 && Arc::strong_count(table) == 1
}

/// Bodies keyed by `(task, version)`, as a caller registers them.
pub(crate) type Bodies = HashMap<(TaskId, VersionId), TaskBody>;

impl Tenancy {
    /// The tenancy of a runtime built with `base`, whose body table is
    /// `bodies`.
    pub(crate) fn new(
        control: AdmissionControl,
        base: Arc<TaskSet>,
        bodies: Arc<BodyTable>,
    ) -> Self {
        let first = Generation {
            set: Arc::clone(&base),
            number: 0,
        };
        Tenancy {
            ledger: TenantLedger::new(control, base),
            generations: vec![(first, bodies)],
        }
    }

    /// Admits `candidate` as [`Runtime::admit`] does, and has `send`
    /// send the admission and its body table, which become the current
    /// generation if it returns `Ok`. Both are made in the generation
    /// [`Tenancy::recycle`] takes back, when there is one: the ledger
    /// brings its set up to date ([`TenantLedger::admit_reusing`]) and
    /// the table follows slot by slot ([`BodyTable::copy_slot`]) —
    /// otherwise in copies of the current ones.
    pub(crate) fn admit(
        &mut self,
        candidate: &TaskSet,
        bodies: &[TaskBody],
        budget: Option<&TenantBudget>,
        send: impl FnOnce(&Admission<'_>, &Arc<BodyTable>) -> Result<()>,
    ) -> std::result::Result<TenantId, AdmissionError> {
        let (mut spare, mut spare_bodies) = self.recycle().unzip();
        let current = &self.generations.last().expect("tenant 0's generation").1;
        let mut spliced = None;
        let tenant = self
            .ledger
            .admit_reusing(&mut spare, candidate, budget, |admission| {
                let first = admission.slot.first_task;
                let table = match admission.replayed {
                    Some(writes) => {
                        let mut table = spare_bodies.take().expect("taken with its set");
                        let caught_up = Arc::get_mut(&mut table).expect("the pen's alone");
                        for written in writes {
                            caught_up.copy_slot(current, written.task_range());
                        }
                        caught_up.place(candidate, first, bodies);
                        table
                    }
                    None => current.placed(candidate, first, bodies),
                };
                send(&admission, &table)?;
                let set = Arc::clone(admission.merged);
                let number = admission.generation;
                spliced = Some((Generation { set, number }, table));
                Ok(())
            });
        // A spare the ledger left goes back, behind the current one.
        if let Some(unused) = spare.zip(spare_bodies) {
            self.generations.insert(self.generations.len() - 1, unused);
        }
        self.generations.extend(spliced);
        tenant
    }

    /// Takes out of the pen the newest generation nobody else holds —
    /// the fewest writes behind — for the admission to make the next one
    /// in, and drops the others nobody holds.
    fn recycle(&mut self) -> Option<(Generation, Arc<BodyTable>)> {
        // The current one is the ledger's too: never alone.
        let current = self.generations.pop().expect("tenant 0's generation");
        let newest = (self.generations.iter().enumerate())
            .filter(|(_, held)| alone(held))
            .max_by_key(|(_, (g, _))| g.number)
            .map(|(i, _)| i);
        let spare = newest.map(|i| self.generations.remove(i));
        self.generations.retain(|held| !alone(held));
        self.generations.push(current);
        spare
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("owners", &self.threads.len())
            .field("helpers", &self.helpers.len())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Sends one `msg()` down every owner's shared lane, by `send`.
    fn broadcast(&self, send: SendFn, msg: impl Fn() -> ShardMsg) {
        for owner in 0..self.lanes.len() {
            send_waiting(&self.lanes, owner, msg(), send);
        }
    }

    fn lock_ledger(&self) -> MutexGuard<'_, Tenancy> {
        wait_for(&self.lanes, || try_lock(&self.tenancy))
    }

    /// The merged id of `tenant`'s first task: its candidate-local
    /// `T<k>` runs as `T<first + k>`. `None` unless the tenant is live.
    #[must_use]
    pub fn first_task(&self, tenant: TenantId) -> Option<TaskId> {
        self.lock_ledger().ledger.first_task(tenant)
    }

    /// Activates an aperiodic or sporadic task on the owner that has it
    /// (the paper's `yas_task_activate`). The id is validated on the
    /// caller's thread; the engine then ignores a periodic task or one
    /// whose tenant has retired. Like [`Runtime::retire`] and
    /// [`Runtime::stop`] it may be called from a task body of this
    /// runtime, whatever the other callers are doing.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] when no tenant ever admitted has the
    /// task; under sharding, [`Error::MissingPartition`] when it has no
    /// worker assignment (one owner has every task, assigned or not).
    pub fn activate(&self, task: TaskId) -> Result<()> {
        let sharded = self.config.sharded_dispatch();
        let owner = owner_of(self.lock_ledger().ledger.merged(), sharded, task)?;
        let msg = ShardMsg::Activate(task);
        send_waiting(&self.lanes, owner, msg, MailboxSender::send);
        Ok(())
    }

    /// Admits a new tenant into the **running** schedule.
    ///
    /// `candidate` is the tenant's task set declared in its own id
    /// space; `bodies` maps its `(task, version)` pairs (candidate-local
    /// ids) to executable bodies; `budget`, when given, caps the
    /// tenant's processor share with a per-tenant reservation server —
    /// one replica per shard under sharding, where the budget bounds
    /// the tenant **per worker** (a tenant spanning `k` shards may
    /// consume up to `k ×` capacity per period).
    ///
    /// Everything that can refuse the tenant runs on the **caller's**
    /// thread — the paper's non-real-time admission path: the body
    /// check, the request's shape, the schedulability analysis (the
    /// tests of [`yasmin_sched::AdmissionControl`], run by the
    /// [`TenantLedger`] over the analysis rows of the live tenants plus
    /// the candidate's) and, under sharding, the sharding contract
    /// ([`validate_sharding`]) — and so does making what every owner
    /// adopts: the next merged set and body table, with the tenant and
    /// `bodies` written in under merged task ids. They are made in the
    /// pair of an earlier generation that no owner or helper holds any
    /// more, which catches up by a copy of each slot written since
    /// (`TenantLedger::admit_reusing`), or else in copies of the current
    /// pair. An accepted tenant is
    /// spliced into every owner's engine with its releases disarmed,
    /// then committed: the commit arms them at the owner's next tick
    /// edge, and that edge's tick round releases the first jobs. An
    /// owner applies both between two engine rounds, and a lane's FIFO
    /// order puts them ahead of anything the caller sends afterwards.
    /// Existing tenants' scheduling is untouched either way. A commit
    /// that arrives after [`Runtime::stop`] is refused by the engine:
    /// the tenant never starts.
    ///
    /// **One owner** has nobody to race: the caller sends **one**
    /// splice-and-commit command, **quietly** — without waking the
    /// owner — and returns. The owner finds it at the latest when its
    /// timed park ends at the next tick edge, ahead of that edge's tick
    /// round (at its job boundary, when it is inside a body): the edge
    /// the release anchors at either way, so the schedule is the one a
    /// wake-up would have given. **Two shards or more** are sent the
    /// splice rung, acknowledge it, and only then are sent the commit,
    /// so a cross-shard DAG token of the new tenant can never arrive at
    /// a shard that has not yet spliced: the call lasts as long as the
    /// longest body then running — and must not come from a task body
    /// of this runtime, whose own shard could then never acknowledge.
    ///
    /// Returns the assigned [`TenantId`] (use it with
    /// [`Runtime::retire`]). The tenant's tasks run under its candidate
    /// ids offset by [`Runtime::first_task`]: in the slot of a retired
    /// tenant of its shape, whose task ids it takes over, or past every
    /// task admitted before it.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Rejected`] names the violated analysis bound;
    /// [`AdmissionError::Invalid`] covers malformed requests — missing
    /// bodies, partition or sharding-contract violations (e.g. an
    /// accelerator shared with another shard), a period off the running
    /// tick, a degenerate budget.
    pub fn admit(
        &self,
        candidate: &TaskSet,
        bodies: HashMap<(TaskId, VersionId), TaskBody>,
        budget: Option<TenantBudget>,
    ) -> std::result::Result<TenantId, AdmissionError> {
        // Read once, before the ledger or a spare generation is touched.
        let bodies = bodies_of(candidate, &bodies).map_err(AdmissionError::Invalid)?;
        let owners = self.lanes.len();
        let ack = (owners > 1).then(|| Arc::new(AtomicUsize::new(owners)));
        let then = match &ack {
            Some(ack) => Spliced::Ack(Arc::clone(ack)),
            None => Spliced::Commit,
        };
        // Send the splice under the ledger lock so that every owner
        // hears concurrent admissions in ledger order. Everything an
        // engine's splice refuses is refused here first.
        let mut tenancy = self.lock_ledger();
        let tenant = tenancy.admit(candidate, &bodies, budget.as_ref(), |admission, table| {
            if self.config.sharded_dispatch() {
                validate_sharding(admission.merged, &self.config)?;
            }
            let at = self.clock.now();
            self.broadcast(tenant_send(owners), || ShardMsg::Admit {
                taskset: Arc::clone(admission.merged),
                bodies: Arc::clone(table),
                tenant: admission.tenant,
                first_task: admission.slot.first_task,
                budget,
                at,
                then: then.clone(),
            });
            Ok(())
        })?;
        drop(tenancy);
        if let Some(ack) = ack {
            // Holding nothing: a body that calls `activate`, `retire`
            // or `stop` meanwhile gets through, returns, and lets its
            // shard reach the boundary this wait is for.
            wait_for(&self.lanes, || {
                (ack.load(Ordering::Acquire) == 0).then_some(())
            });
            // Every shard knows the tenant, and has retired whatever
            // held its slot before: arm its releases from now on.
            let since = self.clock.now();
            self.broadcast(MailboxSender::send, || ShardMsg::Commit { tenant, since });
        }
        Ok(tenant)
    }

    /// Retires an admitted tenant on every owner: its future releases
    /// stop, its ready jobs are culled, its in-flight jobs finish
    /// without firing successors, and racing cross-shard tokens are
    /// dropped silently. Other tenants are untouched. The id is
    /// validated on the caller's thread and the call **returns once the
    /// command is sent**. One owner is sent it quietly, as
    /// [`Runtime::admit`] sends: it applies it when it next wakes — its
    /// next tick edge at the latest, ahead of that edge's round — or at
    /// its job boundary. Shards are rung. Either way an owner drains its
    /// mailbox ahead of every engine round, so no job of the tenant is
    /// dispatched after this returns, and the retirement is applied
    /// ahead of anything the caller sends afterwards. The tenant's bandwidth is
    /// available to the next [`Runtime::admit`] as soon as this returns,
    /// and so are its task ids, to the next tenant of its shape (that
    /// admission's splice queues behind the retirement; up to `workers`
    /// of the tenant's jobs, already executing, may still finish, and
    /// fire nothing of the next — see `yasmin_sched::admission`). The
    /// tenant's bodies are dropped on a caller's thread: by an
    /// admission once no owner or helper holds them, or by
    /// [`Runtime::cleanup`].
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] / [`Error::TenantRetired`] for bad ids
    /// or a double retire; [`Error::InvalidConfig`] for tenant 0 (the
    /// build-time set — use [`Runtime::stop`]).
    pub fn retire(&self, tenant: TenantId) -> Result<()> {
        let mut tenancy = self.lock_ledger();
        // The ledger forgets the tenant before the owners hear of it:
        // a later admission's splice travels the same FIFO shared
        // lanes, so every owner has retired the tenant by the time it
        // commits a tenant admitted into the freed bandwidth or slot.
        tenancy.ledger.retire(tenant)?;
        let send = tenant_send(self.lanes.len());
        self.broadcast(send, || ShardMsg::Retire(tenant));
        Ok(())
    }

    /// Stops releasing new periodic jobs on every owner; in-flight jobs
    /// drain (the paper's `yas_stop`).
    pub fn stop(&self) {
        self.broadcast(MailboxSender::send, || ShardMsg::Stop);
    }

    /// Stops releasing, lets the work in flight drain, joins all threads
    /// and returns the merged run report (the paper's `yas_cleanup`),
    /// records ordered by completion time.
    ///
    /// The drain is loss-free: no owner exits while a job is queued or
    /// running on any owner, or while a message sent to one — a routed
    /// DAG token, a command, a message-plane event a body posted — has
    /// not been applied (module docs of `owner`, "Shutting down"). The
    /// one exception is a message sent from a thread outside the
    /// runtime after cleanup began — a channel's notify hook firing
    /// there: once every owner has exited it is dropped.
    ///
    /// # Panics
    ///
    /// Panics if a runtime thread panicked.
    #[must_use]
    pub fn cleanup(self) -> RuntimeReport {
        self.broadcast(MailboxSender::send, || ShardMsg::Shutdown);
        let mut report = RuntimeReport::default();
        for t in self.threads {
            let owner = t.join().expect("owner thread panicked");
            if report.records.is_empty() {
                // The first owner's records — all there are, with one
                // owner — become the report's without a copy.
                report.records = owner.records;
            } else {
                report.records.extend(owner.records);
            }
            report.engine_stats.merge(&owner.stats);
            report.tick_stats.push(owner.ticks);
            report.steal_stats.push(owner.steals);
            report.unpinned_threads += usize::from(!owner.pinned);
        }
        // An owner dismisses its helpers as it exits.
        for h in self.helpers {
            let pinned = h.join().expect("worker thread panicked");
            report.unpinned_threads += usize::from(!pinned);
        }
        report
            .records
            .sort_by_key(|r| (r.completed, r.job.task, r.job.seq));
        report
    }
}

/// The body of every version of every task of `taskset` — a build-time
/// set, or a candidate tenant in its own id space — read from `bodies`
/// once, in task then version order, before any runtime thread hears of
/// the set: what [`BodyTable::place`] writes. Keys of other tasks or
/// versions are never read.
///
/// # Errors
///
/// [`Error::InvalidConfig`] naming the first version without a body.
pub(crate) fn bodies_of(taskset: &TaskSet, bodies: &Bodies) -> Result<Vec<TaskBody>> {
    let mut found = Vec::with_capacity(taskset.tasks().iter().map(|t| t.versions().len()).sum());
    for t in taskset.tasks() {
        for vi in 0..t.versions().len() {
            let key = (t.id(), VersionId::new(vi as u16));
            let Some(body) = bodies.get(&key) else {
                return Err(Error::InvalidConfig(format!(
                    "no body registered for task {} version v{vi}",
                    t.id()
                )));
            };
            found.push(Arc::clone(body));
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_os = "linux")]
    use crate::test_util::{alone_in_child, thread_sleeps};
    use crate::test_util::{must_return, nap_ms, one_owner as config, sharded};
    use crate::test_util::{wall_clock, within_attempts};
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::{Priority, PriorityPolicy};
    use yasmin_core::task::{OverrunPolicy, TaskSpec};
    use yasmin_core::time::Duration;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn periodic_task_fires_repeatedly() {
        let _clock = wall_clock();
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("tick", ms(5))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let count = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&count);
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(t, v, move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        let n = count.load(Ordering::SeqCst);
        // 60ms / 5ms = 12 expected; tolerate scheduling slack.
        assert!(n >= 6, "only {n} activations");
        assert_eq!(report.records.len() as u32, n);
        assert_eq!(report.engine_stats.completed as u32, n);
    }

    #[test]
    fn failed_pins_are_counted() {
        let _clock = wall_clock();
        // No host has core 100 000: every thread of the runtime, however
        // configured, runs unpinned and says so.
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic("t", ms(5)).on_worker(WorkerId::new(0));
        let t = b.task_decl(spec).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(Arc::clone(&ts), config(2))
            .body(t, v, |_| {})
            .pin_cores_from(100_000)
            .build()
            .unwrap();
        assert_eq!(
            rt.cleanup().unpinned_threads,
            3,
            "two workers, one scheduler"
        );
        let rt = RuntimeBuilder::new(ts, sharded(2).build().unwrap())
            .body(t, v, |_| {})
            .pin_cores_from(100_000)
            .build()
            .unwrap();
        assert_eq!(rt.cleanup().unpinned_threads, 2, "two shards");
    }

    #[test]
    fn preemptive_config_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(5))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder().workers(1).build().unwrap(); // preemption on
        let r = RuntimeBuilder::new(ts, cfg).body(t, v, |_| {}).build();
        assert!(matches!(r, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn missing_body_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(5))).unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let r = RuntimeBuilder::new(ts, config(1)).build();
        assert!(matches!(r, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn a_body_for_no_task_is_ignored() {
        let _clock = wall_clock();
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic("t", ms(5));
        let (t, v) = task(&mut b, spec, Duration::from_micros(10));
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(t, v, |_| {})
            .body(TaskId::new(1), v, |_| unreachable!("no task T1"))
            .build()
            .unwrap();
        rt.stop();
        let _ = rt.cleanup();
    }

    /// One periodic task per worker and an aperiodic one on worker 1,
    /// every one assigned, so the set builds under any mapping.
    fn one_task_per_worker() -> (Arc<TaskSet>, Vec<(TaskId, VersionId)>, TaskId) {
        let mut b = TaskSetBuilder::new();
        let wcet = Duration::from_micros(100);
        let mut ids = Vec::new();
        for w in 0..2 {
            let spec = TaskSpec::periodic(format!("t{w}"), ms(50));
            ids.push(task(&mut b, spec.on_worker(WorkerId::new(w)), wcet));
        }
        let aper = TaskSpec::aperiodic("aper").on_worker(WorkerId::new(1));
        ids.push(task(&mut b, aper, wcet));
        let aper = ids[2].0;
        (Arc::new(b.build().unwrap()), ids, aper)
    }

    fn all_bodies(ts: Arc<TaskSet>, config: Config, ids: &[(TaskId, VersionId)]) -> RuntimeBuilder {
        let builder = RuntimeBuilder::new(ts, config);
        ids.iter().fold(builder, |b, &(t, v)| b.body(t, v, |_| {}))
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn the_configuration_decides_which_runtime_comes_up() {
        let _clock = wall_clock();
        // One task set, one builder, three configurations: the thread
        // census says whether one owner feeds a helper per worker or
        // every shard is a thread of its own.
        if !alone_in_child("runtime::tests::the_configuration_decides_which_runtime_comes_up") {
            return;
        }
        let one_owner = vec!["yasmin-schedule", "yasmin-worker-0", "yasmin-worker-1"];
        let partitioned = || sharded(2).sharded_dispatch(false);
        for (config, census) in [
            (config(2), one_owner.clone()),
            (partitioned().build().unwrap(), one_owner),
            (
                sharded(2).build().unwrap(),
                vec!["yasmin-shard-sc", "yasmin-shard-sc"],
            ),
        ] {
            let (ts, ids, _) = one_task_per_worker();
            let rt = all_bodies(ts, config, &ids).build().unwrap();
            nap_ms(20);
            let threads = thread_sleeps(&["yasmin-"]);
            rt.stop();
            let report = rt.cleanup();
            let mut names: Vec<&str> = threads.values().map(|(name, _)| name.as_str()).collect();
            names.sort_unstable();
            assert_eq!(names, census);
            assert!(report.records.len() >= 2, "both periodic tasks ran");
        }
    }

    #[test]
    fn activate_names_a_task_somebody_owns() {
        let _clock = wall_clock();
        // Validated on the caller for every configuration: the engine
        // drops what it does not know without a word. A task without a
        // worker assignment is fine when one owner has them all.
        let (ts, ids, aper) = one_task_per_worker();
        for config in [config(2), sharded(2).build().unwrap()] {
            let rt = all_bodies(Arc::clone(&ts), config, &ids).build().unwrap();
            rt.activate(aper).unwrap();
            let unknown = TaskId::new(ts.len() as u32);
            assert!(matches!(
                rt.activate(unknown),
                Err(Error::UnknownTask(t)) if t == unknown
            ));
            // A tenant's tasks are known from the moment it is admitted.
            let (cand, bodies) = candidate(50, Duration::from_micros(50));
            rt.admit(&cand, bodies, None).unwrap();
            assert!(rt.activate(unknown).is_ok(), "known, if periodic");
            rt.stop();
            let report = rt.cleanup();
            let ran = report.records.iter().filter(|r| r.job.task == aper);
            assert_eq!(ran.count(), 1, "the one valid activation ran");
        }
        let mut b = TaskSetBuilder::new();
        let (p, vp) = task(&mut b, TaskSpec::periodic("p", ms(50)), ms(1));
        let (a, va) = task(&mut b, TaskSpec::aperiodic("unassigned"), ms(1));
        let rt = RuntimeBuilder::new(Arc::new(b.build().unwrap()), config(1))
            .body(p, vp, |_| {})
            .body(a, va, |_| {})
            .build()
            .unwrap();
        rt.activate(a).unwrap();
        rt.stop();
        let _ = rt.cleanup();
    }

    #[test]
    fn work_stealing_needs_shards_to_steal_between() {
        let _clock = wall_clock();
        let (ts, ids, _) = one_task_per_worker();
        for unsharded in [
            config(2),
            sharded(2).sharded_dispatch(false).build().unwrap(),
        ] {
            let built = all_bodies(Arc::clone(&ts), unsharded, &ids)
                .work_stealing(true)
                .build();
            assert!(matches!(built, Err(Error::InvalidConfig(_))));
        }
        // Sharded, it is legal even where it can find no victim.
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic("t", ms(50)).on_worker(WorkerId::new(0));
        let (t, v) = task(&mut b, spec, ms(1));
        let rt = RuntimeBuilder::new(Arc::new(b.build().unwrap()), sharded(1).build().unwrap())
            .work_stealing(true)
            .body(t, v, |_| {})
            .build()
            .unwrap();
        rt.stop();
        assert_eq!(rt.cleanup().engine_stats.stolen, 0);
    }

    #[test]
    fn dag_data_flows_through_spsc() {
        let _clock = wall_clock();
        // fork -> join with a real typed channel captured in the bodies.
        let mut b = TaskSetBuilder::new();
        let fork = b.task_decl(TaskSpec::periodic("fork", ms(5))).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        let vf = b
            .version_decl(fork, VersionSpec::new("f", Duration::from_micros(50)))
            .unwrap();
        let vj = b
            .version_decl(join, VersionSpec::new("j", Duration::from_micros(50)))
            .unwrap();
        let ch = b.channel_decl("c", 8, 8);
        b.channel_connect(fork, join, ch).unwrap();
        let ts = Arc::new(b.build().unwrap());

        let (tx, rx) = yasmin_sync::spsc::channel::<u64>(8);
        let tx = std::sync::Mutex::new(tx);
        let rx = std::sync::Mutex::new(rx);
        let sum = Arc::new(AtomicU32::new(0));
        let sum2 = Arc::clone(&sum);

        let rt = RuntimeBuilder::new(ts, config(2))
            .body(fork, vf, move |ctx| {
                let _ = tx.lock().unwrap().push(ctx.job.seq);
            })
            .body(join, vj, move |_| {
                if let Some(v) = rx.lock().unwrap().pop() {
                    sum2.fetch_add(v as u32 + 1, Ordering::SeqCst);
                }
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(40));
        rt.stop();
        let report = rt.cleanup();
        assert!(sum.load(Ordering::SeqCst) > 0, "join never saw data");
        // Join jobs inherit the graph deadline and release.
        let join_rec = report
            .records
            .iter()
            .find(|r| r.job.task == join)
            .expect("join ran");
        assert!(join_rec.job.graph_release <= join_rec.job.release);
    }

    #[test]
    fn aperiodic_activation_runs_once() {
        let _clock = wall_clock();
        let mut b = TaskSetBuilder::new();
        let p = b.task_decl(TaskSpec::periodic("p", ms(5))).unwrap();
        let a = b.task_decl(TaskSpec::aperiodic("a")).unwrap();
        let vp = b
            .version_decl(p, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let va = b
            .version_decl(a, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let rt = RuntimeBuilder::new(ts, config(2))
            .body(p, vp, |_| {})
            .body(a, va, move |_| {
                h2.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        rt.activate(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.stop();
        let _ = rt.cleanup();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tenant_admission_on_the_single_owner_runtime() {
        let _clock = wall_clock();
        // Every functional assertion holds on every attempt; only the
        // 5 ms deadlines may lose an attempt to a stalled host.
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let base = b.task_decl(TaskSpec::periodic("base", ms(5))).unwrap();
            let vb = b
                .version_decl(base, VersionSpec::new("v", Duration::from_micros(50)))
                .unwrap();
            let ts = Arc::new(b.build().unwrap());
            let rt = RuntimeBuilder::new(ts, config(1))
                .body(base, vb, |_| {})
                .build()
                .unwrap();
            std::thread::sleep(std::time::Duration::from_millis(15));

            // Candidate in its own id space: one periodic task.
            let mut c = TaskSetBuilder::new();
            let t = c.task_decl(TaskSpec::periodic("tenant", ms(10))).unwrap();
            let v = c
                .version_decl(t, VersionSpec::new("v", Duration::from_micros(50)))
                .unwrap();
            let cand = c.build().unwrap();
            let hits = Arc::new(AtomicU32::new(0));
            let h = Arc::clone(&hits);
            let mut bodies = Bodies::new();
            bodies.insert(
                (t, v),
                Arc::new(move |_: &JobCtx| {
                    h.fetch_add(1, Ordering::SeqCst);
                }),
            );
            let tenant = rt.admit(&cand, bodies, None).unwrap();
            assert_eq!(tenant.raw(), 1);
            std::thread::sleep(std::time::Duration::from_millis(35));
            let ran = hits.load(Ordering::SeqCst);
            assert!(ran >= 2, "admitted tenant only ran {ran} jobs");
            rt.retire(tenant).unwrap();
            assert!(matches!(rt.retire(tenant), Err(Error::TenantRetired(_))));
            std::thread::sleep(std::time::Duration::from_millis(25));
            let after = hits.load(Ordering::SeqCst);
            assert!(after <= ran + 1, "tenant kept running after retirement");
            rt.stop();
            let report = rt.cleanup();
            // The tenant's task is the merged suffix id T1; none of its
            // jobs missed a deadline.
            let tenant_jobs = report
                .records
                .iter()
                .filter(|r| r.job.task == TaskId::new(1));
            match tenant_jobs.filter(|r| r.missed()).count() {
                0 => Ok(()),
                missed => Err(format!("{missed} tenant jobs missed their deadline")),
            }
        });
    }

    #[test]
    fn oversubscribed_tenant_is_rejected() {
        let _clock = wall_clock();
        let mut b = TaskSetBuilder::new();
        let base = b.task_decl(TaskSpec::periodic("base", ms(5))).unwrap();
        let vb = b.version_decl(base, VersionSpec::new("v", ms(3))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        // Base already uses 3/5 of the single worker; 3ms/5ms more
        // pushes utilisation to 1.2.
        let mut c = TaskSetBuilder::new();
        let t = c.task_decl(TaskSpec::periodic("greedy", ms(5))).unwrap();
        let v = c.version_decl(t, VersionSpec::new("v", ms(3))).unwrap();
        let cand = c.build().unwrap();
        let mut bodies = Bodies::new();
        bodies.insert((t, v), Arc::new(|_: &JobCtx| {}));
        assert!(matches!(
            rt.admit(&cand, bodies, None),
            Err(AdmissionError::Rejected(_))
        ));
        rt.stop();
        let _ = rt.cleanup();
    }

    /// A candidate tenant in its own id space: one periodic task on
    /// worker 0 with the given period and declared WCET, and a no-op
    /// body.
    fn candidate(
        period_ms: u64,
        wcet: Duration,
    ) -> (TaskSet, HashMap<(TaskId, VersionId), TaskBody>) {
        let mut c = TaskSetBuilder::new();
        let t = c
            .task_decl(TaskSpec::periodic("tenant", ms(period_ms)).on_worker(WorkerId::new(0)))
            .unwrap();
        let v = c.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        let mut bodies = Bodies::new();
        bodies.insert((t, v), Arc::new(|_: &JobCtx| {}));
        (c.build().unwrap(), bodies)
    }

    #[test]
    fn a_missing_body_leaves_the_pen_and_the_ledger_as_they_were() {
        let _clock = wall_clock();
        // Three admissions and two retirements leave the pen holding
        // generations the next admission may make its own in. A
        // candidate with a body missing is refused before the ledger or
        // a spare generation is touched: the pen holds the same
        // generations, in the same order and at the same addresses, and
        // the ledger the same merged set and rows. The next complete
        // admission gets the id the refused one would have had.
        let mut b = TaskSetBuilder::new();
        let base = TaskSpec::periodic("base", ms(10)).on_worker(WorkerId::new(0));
        let (base, vb) = task(&mut b, base, ms(1));
        let rt = RuntimeBuilder::new(Arc::new(b.build().unwrap()), config(1))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        for round in 1..=3 {
            let (cand, bodies) = candidate(10, ms(1));
            let tenant = rt.admit(&cand, bodies, None).unwrap();
            if round < 3 {
                rt.retire(tenant).unwrap();
            }
        }
        let state = |rt: &Runtime| {
            let tenancy = rt.lock_ledger();
            let pen = (tenancy.generations.iter())
                .map(|(g, table)| (g.number, Arc::as_ptr(&g.set), Arc::as_ptr(table)))
                .collect::<Vec<_>>();
            let ledger = &tenancy.ledger;
            (pen, Arc::as_ptr(ledger.merged()), ledger.live_rows().len())
        };
        let before = state(&rt);
        assert!(before.0.len() > 1, "a spare to take: {before:?}");
        let (cand, _) = candidate(10, ms(1));
        assert!(matches!(
            rt.admit(&cand, Bodies::new(), None),
            Err(AdmissionError::Invalid(_))
        ));
        assert_eq!(state(&rt), before);
        let (cand, bodies) = candidate(10, ms(1));
        assert_eq!(rt.admit(&cand, bodies, None).unwrap().raw(), 4);
        rt.stop();
        let _ = rt.cleanup();
    }

    #[test]
    fn retired_bandwidth_is_returned() {
        let _clock = wall_clock();
        // Base U = 0.2 on worker 0; a U = 0.5 tenant on the same worker,
        // admitted and retired three times over. With the retired
        // copies still counted the second round reads
        // `TotalUtilisation { total: 1.2 }` — under sharding, a density
        // of 1.2 on worker 0.
        for config in [config(1), sharded(2).build().unwrap()] {
            let per_worker = config.sharded_dispatch();
            let mut b = TaskSetBuilder::new();
            let base = TaskSpec::periodic("base", ms(10)).on_worker(WorkerId::new(0));
            let (base, vb) = task(&mut b, base, ms(2));
            let ts = Arc::new(b.build().unwrap());
            let rt = RuntimeBuilder::new(ts, config)
                .body(base, vb, |_| {})
                .build()
                .unwrap();
            for round in 1..=3 {
                let (cand, bodies) = candidate(10, ms(5));
                let tenant = rt
                    .admit(&cand, bodies, None)
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
                assert_eq!(tenant.raw(), round);
                // Beside the live copy a second one does not fit.
                let (cand, bodies) = candidate(10, ms(5));
                match rt.admit(&cand, bodies, None) {
                    Err(AdmissionError::Rejected(violated)) => assert!(
                        !per_worker
                            || matches!(
                                violated,
                                yasmin_sched::BoundViolation::WorkerOverload { .. }
                            ),
                        "{violated:?}"
                    ),
                    other => panic!("round {round}: {other:?}"),
                }
                rt.retire(tenant).unwrap();
            }
            rt.stop();
            let _ = rt.cleanup();
        }
    }

    #[test]
    fn a_superseded_generation_outlives_the_owner_that_still_runs_it() {
        let _clock = wall_clock();
        // A stand-in for an owner that splices when it gets round to
        // it: `running` is the set and table it runs, and each admission
        // returns what `Runtime::admit` sent it.
        let one = |name: &str| {
            let mut b = TaskSetBuilder::new();
            let (t, v) = task(&mut b, TaskSpec::periodic(name, ms(100)), ms(1));
            let body: TaskBody = Arc::new(|_: &JobCtx| {});
            (b.build().unwrap(), Bodies::from([((t, v), body)]))
        };
        let (base, base_bodies) = one("base");
        let base = Arc::new(base);
        let table = BodyTable::default().placed(&base, 0, &bodies_of(&base, &base_bodies).unwrap());
        let control = AdmissionControl::new(config(1), ms(100));
        let mut tenancy = Tenancy::new(control, Arc::clone(&base), table);
        let (guest, bodies) = one("guest");
        let admit = |tenancy: &mut Tenancy| {
            let mut sent = None;
            let tenant = tenancy.admit(
                &guest,
                &bodies_of(&guest, &bodies).unwrap(),
                None,
                |a, table| {
                    sent = Some((Arc::clone(a.merged), Arc::clone(table)));
                    Ok(())
                },
            );
            (tenant.unwrap(), sent.expect("spliced"))
        };
        let counts =
            |g: &(Arc<TaskSet>, Arc<BodyTable>)| (Arc::strong_count(&g.0), Arc::strong_count(&g.1));
        let addresses = |g: &(Arc<TaskSet>, Arc<BodyTable>)| (Arc::as_ptr(&g.0), Arc::as_ptr(&g.1));
        let (_, mut running) = admit(&mut tenancy);
        let first = addresses(&running);

        // Two admissions go by before the owner adopts anything: it
        // must not be left holding the last reference to what it runs.
        let _second = admit(&mut tenancy);
        assert_eq!(counts(&running), (2, 2), "owner and pen");
        let (_, third) = admit(&mut tenancy);
        assert_eq!(counts(&running), (2, 2), "owner and pen");

        // The owner adopts the latest: nothing dies on its thread…
        running = third;
        let mut pen =
            (tenancy.generations.iter()).map(|(g, b)| (Arc::as_ptr(&g.set), Arc::as_ptr(b)));
        assert!(pen.any(|g| g == first), "the pen holds the first");
        // …and the caller's next admission takes it back, on the
        // caller's thread: the new generation is made in it, two writes
        // behind, and is what copying would have built.
        let (_, fourth) = admit(&mut tenancy);
        assert_eq!(addresses(&fourth), first, "made in the first generation");
        let mut copied = (*base).clone();
        for _ in 0..4 {
            copied = copied.extended(&guest).unwrap();
        }
        assert_eq!(format!("{:?}", fourth.0), format!("{copied:?}"));
        assert!(Arc::ptr_eq(&fourth.0, tenancy.ledger.merged()));
        assert_eq!(counts(&running), (2, 2), "owner and pen");
    }

    /// The `Arc` each `(task, version)` of `set` finds in `table`.
    fn lookups(set: &TaskSet, table: &BodyTable) -> Vec<*const ()> {
        let tasks = set.tasks().iter();
        let each = tasks.flat_map(|t| (0..t.versions().len()).map(move |v| (t.id(), v)));
        let at = |(t, v): (TaskId, usize)| table.get(t, VersionId::new(v as u16));
        each.map(|key| Arc::as_ptr(at(key)) as *const ()).collect()
    }

    /// Asserts `made` is `fresh`, table by table.
    fn assert_same_set(made: &TaskSet, fresh: &TaskSet, case: &str) {
        let debug = |s: &TaskSet| {
            let adjacency =
                |t: &yasmin_core::task::Task| (s.in_edge_ids(t.id()), s.out_edge_ids(t.id()));
            [
                format!("{:?}", s.tasks()),
                format!("{:?}", s.accels()),
                format!("{:?}", s.channels()),
                format!("{:?}", s.edges()),
                format!("{:?}", s.tasks().iter().map(adjacency).collect::<Vec<_>>()),
                format!("{:?}", s.topological_order()),
            ]
        };
        let tables = ["tasks", "accels", "channels", "edges", "adjacency", "topo"];
        for ((name, a), b) in tables.iter().zip(debug(made)).zip(debug(fresh)) {
            assert_eq!(a, b, "{case}: {name}");
        }
    }

    #[test]
    fn a_recycled_generation_equals_a_fresh_copy() {
        // Generated admit/retire sequences through a `Tenancy`, beside a
        // stand-in for the owners that lets go of what it was sent late
        // or early. Every generation the tenancy makes — in a spare, or
        // by the copy it falls back to — must equal what the parent
        // copied: `TaskSet::placed` and `BodyTable::placed` of the set and
        // table it replaces, with the same body `Arc` behind every
        // lookup. Three shapes: one task, one with two versions, and a
        // root → node pair over a channel.
        let shape = |kind: u64, tag: &str| {
            let mut b = TaskSetBuilder::new();
            let (t, v) = task(
                &mut b,
                TaskSpec::periodic(format!("{tag}-a"), ms(100)),
                ms(1),
            );
            let mut keys = vec![(t, v)];
            match kind {
                0 => {}
                1 => keys.push((t, b.version_decl(t, VersionSpec::new("w", ms(1))).unwrap())),
                _ => {
                    let (n, w) = task(&mut b, TaskSpec::graph_node(format!("{tag}-b")), ms(1));
                    let ch = b.channel_decl(format!("{tag}-ch"), 1, 8);
                    b.channel_connect(t, n, ch).unwrap();
                    keys.push((n, w));
                }
            }
            let body = |_| -> TaskBody { Arc::new(|_: &JobCtx| {}) };
            let bodies = keys.into_iter().map(|k| (k, body(k))).collect::<Bodies>();
            (b.build().unwrap(), bodies)
        };
        // Appended, recycled; copied, one write behind, two or more.
        let mut seen = [0u32; 5];
        for seed in 1..=60u64 {
            let mut rng = seed;
            let mut next = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let (base, base_bodies) = shape(2, "base");
            let base = Arc::new(base);
            let table =
                BodyTable::default().placed(&base, 0, &bodies_of(&base, &base_bodies).unwrap());
            let control = AdmissionControl::new(config(1), ms(100));
            let mut tenancy = Tenancy::new(control, base, table);
            let mut live = Vec::new();
            let mut owners = std::collections::VecDeque::new();
            for step in 0..30 {
                match next(5) {
                    0 if !live.is_empty() => {
                        let i = next(live.len() as u64) as usize;
                        tenancy.ledger.retire(live.swap_remove(i)).unwrap();
                    }
                    1 | 2 => drop(owners.pop_front()),
                    _ => {
                        let case = format!("seed {seed}, step {step}");
                        let (cand, bodies) = shape(next(3), &case);
                        let (set, table) = &tenancy.generations.last().unwrap();
                        let (prev, prev_table) = (Arc::clone(&set.set), Arc::clone(table));
                        let found = bodies_of(&cand, &bodies).unwrap();
                        let tenant = tenancy.admit(&cand, &found, None, |a, table| {
                            let fresh = prev.placed(&cand, a.slot).unwrap();
                            assert_same_set(a.merged, &fresh, &case);
                            let fresh_table = prev_table.placed(&cand, a.slot.first_task, &found);
                            let lookups = (lookups(&fresh, table), lookups(&fresh, &fresh_table));
                            assert_eq!(lookups.0, lookups.1, "{case}: bodies");
                            seen[usize::from(a.slot.first_task < prev.len() as u32)] += 1;
                            seen[2 + a.replayed.map_or(0, |w| w.len().min(2))] += 1;
                            owners.push_back((Arc::clone(a.merged), Arc::clone(table)));
                            Ok(())
                        });
                        live.push(tenant.unwrap());
                    }
                }
            }
        }
        let names = ["appended", "recycled", "copied", "1 behind", "2+ behind"];
        for (name, n) in names.iter().zip(seen) {
            assert!(n > 0, "no admission was {name}: {seen:?}");
        }
    }

    #[test]
    fn a_body_never_dies_on_an_owner_or_helper_thread() {
        let _clock = wall_clock();
        // One owner feeding two helpers. Tenant A's one body holds a
        // probe that records the thread it is dropped on. A is retired
        // while a helper is inside that body, an heir of its shape
        // takes its slot — no table from there on has A's body — and
        // one more tenant is admitted while the helper still runs it.
        // Then the body ends, and once only the pen holds the superseded
        // generations the next admission drops them: the probe dies on
        // this thread, never on `yasmin-worker-*` or `yasmin-scheduler`.
        struct Probe(Arc<Mutex<Vec<Option<String>>>>);
        impl Drop for Probe {
            fn drop(&mut self) {
                let name = std::thread::current().name().map(str::to_owned);
                self.0.lock().unwrap().push(name);
            }
        }
        let one = |name: &str, body: TaskBody| {
            let mut b = TaskSetBuilder::new();
            let (t, v) = task(&mut b, TaskSpec::aperiodic(name), ms(1));
            (b.build().unwrap(), Bodies::from([((t, v), body)]))
        };
        let noop = || -> TaskBody { Arc::new(|_: &JobCtx| {}) };
        let drops = Arc::new(Mutex::new(Vec::new()));
        let inside = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let gated: TaskBody = {
            let (probe, inside, gate) = (
                Probe(Arc::clone(&drops)),
                Arc::clone(&inside),
                Arc::clone(&gate),
            );
            Arc::new(move |_: &JobCtx| {
                let _held = &probe;
                inside.store(true, Ordering::SeqCst);
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            })
        };

        let mut b = TaskSetBuilder::new();
        let (base, vb) = task(&mut b, TaskSpec::periodic("base", ms(5)), ms(1));
        let rt = RuntimeBuilder::new(Arc::new(b.build().unwrap()), config(2))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        let admit = |name: &str, body: TaskBody| {
            let (set, bodies) = one(name, body);
            rt.admit(&set, bodies, None).unwrap()
        };
        let a = admit("a", gated);
        let slot = rt.first_task(a).unwrap();
        rt.activate(slot).unwrap();
        nap_until(|| inside.load(Ordering::SeqCst));
        assert!(inside.load(Ordering::SeqCst), "A's job never started");
        rt.retire(a).unwrap();
        let heir = admit("heir", noop());
        assert_eq!(rt.first_task(heir), Some(slot), "the heir takes A's slot");
        admit("c", noop());
        gate.store(true, Ordering::SeqCst);

        let only_the_pen = || {
            let tenancy = rt.lock_ledger();
            let superseded = &tenancy.generations[..tenancy.generations.len() - 1];
            superseded.iter().all(alone)
        };
        nap_until(only_the_pen);
        assert!(
            only_the_pen(),
            "an owner or helper kept a superseded generation"
        );
        assert_eq!(*drops.lock().unwrap(), [], "the pen holds A's body");
        admit("d", noop());
        let here = [std::thread::current().name().map(str::to_owned)];
        assert_eq!(*drops.lock().unwrap(), here, "where the probe died");
        rt.stop();
        let _ = rt.cleanup();
        assert_eq!(*drops.lock().unwrap(), here, "dropped once");
    }

    #[test]
    fn command_wakes_a_parked_scheduler() {
        let _clock = wall_clock();
        // Tick 50 ms, the scheduler parked between edges: an activation
        // and a high-lane boost must take effect when they are sent —
        // not at the next completion or tick, which is when a loop that
        // reads its commands only after waking for something else would
        // see them. An admission and a retirement are due at the next
        // edge: they are sent quietly, and the activation's wake-up
        // finds them ahead of it.
        use yasmin_core::priority::Priority;
        use yasmin_sched::ChannelBuilder;
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let mut task = |spec: TaskSpec, prio: u64| {
                let t = b
                    .task_decl(spec.with_priority(Priority::new(prio)))
                    .unwrap();
                let v = b
                    .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
                    .unwrap();
                (t, v)
            };
            let (p, vp) = task(TaskSpec::periodic("p", ms(50)), 0);
            let (blocker, vblocker) = task(TaskSpec::aperiodic("blocker"), 1);
            let (mid, vmid) = task(TaskSpec::aperiodic("mid"), 2);
            let (rcv, vrcv) = task(TaskSpec::aperiodic("rcv"), 3);
            let ts = Arc::new(b.build().unwrap());
            let cfg = Config::builder()
                .workers(1)
                .priority(PriorityPolicy::UserDefined)
                .preemption(false)
                .build()
                .unwrap();
            let (tx, _rx) = ChannelBuilder::standalone("urgent", rcv)
                .high_lane(2, Priority::HIGHEST)
                .build::<u64>()
                .unwrap();

            let epoch = std::time::Instant::now();
            let blocker_at_us = Arc::new(AtomicU32::new(0));
            // Start order of `mid` and `rcv`: 1 for whoever runs first.
            let order = Arc::new(AtomicU32::new(0));
            let (mid_rank, rcv_rank) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
            let started = Arc::clone(&blocker_at_us);
            let rank = |slot: &Arc<AtomicU32>| {
                let (order, slot) = (Arc::clone(&order), Arc::clone(slot));
                move |_: &JobCtx| {
                    slot.store(order.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst)
                }
            };
            let rt = RuntimeBuilder::new(ts, cfg)
                .register_channel(tx.notify_handle())
                .body(p, vp, |_| {})
                .body(blocker, vblocker, move |_| {
                    started.store(epoch.elapsed().as_micros() as u32, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                })
                .body(mid, vmid, rank(&mid_rank))
                .body(rcv, vrcv, rank(&rcv_rank))
                .build()
                .unwrap();
            // Past the first edge's job, 40 ms short of the next edge.
            std::thread::sleep(std::time::Duration::from_millis(10));

            // `admit` and `retire` return once validated and sent: the
            // parked owner is not waited for.
            let (cand, bodies) = candidate(50, Duration::from_micros(50));
            let t = std::time::Instant::now();
            let admitted = rt.admit(&cand, bodies, None);
            let admit_us = t.elapsed().as_micros();
            let t = std::time::Instant::now();
            let retired = admitted.as_ref().ok().map(|&tenant| rt.retire(tenant));
            let retire_us = t.elapsed().as_micros();

            let sent_us = epoch.elapsed().as_micros() as u32;
            rt.activate(blocker).unwrap();
            while blocker_at_us.load(Ordering::SeqCst) == 0
                && epoch.elapsed() < std::time::Duration::from_secs(1)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let activate_us = blocker_at_us.load(Ordering::SeqCst).saturating_sub(sent_us);
            // Both wait behind the blocker; the post lifts `rcv` over
            // `mid` only if the engine hears of it before the blocker's
            // completion hands the worker to `mid`.
            rt.activate(mid).unwrap();
            rt.activate(rcv).unwrap();
            tx.send_high(1).unwrap();
            while order.load(Ordering::SeqCst) < 2
                && epoch.elapsed() < std::time::Duration::from_secs(1)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            rt.stop();
            let report = rt.cleanup();

            admitted.expect("a light tenant on the running tick is admitted");
            retired
                .expect("admitted")
                .expect("the tenant just admitted retires");
            assert!(
                blocker_at_us.load(Ordering::SeqCst) > 0,
                "activation never ran"
            );
            assert_eq!(order.load(Ordering::SeqCst), 2, "mid and rcv both ran");
            if admit_us >= 5_000 || retire_us >= 5_000 || activate_us >= 5_000 {
                return Err(format!(
                    "admit took {admit_us} µs, retire {retire_us} µs, activation {activate_us} µs"
                ));
            }
            if rcv_rank.load(Ordering::SeqCst) != 1 {
                return Err(format!(
                    "the boost came too late: mid ran before rcv ({} boosts counted)",
                    report.engine_stats.msg_boosts
                ));
            }
            Ok(())
        });
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_scheduler_stays_parked() {
        let _clock = wall_clock();
        // The command wake must be an event, not a poll: over 300 ms of
        // a 50 ms schedule a runtime thread blocks a few times per tick
        // (the timed park, a helper's wait for its next job), where a
        // polling loop blocks thousands of times. Same bound as
        // `owner::tests::idle_threads_stay_parked`. And the census:
        // one worker is one thread, scheduler and worker at once; two
        // are two helpers and the thread that schedules them.
        if !alone_in_child("runtime::tests::idle_scheduler_stays_parked") {
            return;
        }
        for (workers, census) in [
            (1, vec!["yasmin-schedule"]),
            (
                2,
                vec!["yasmin-schedule", "yasmin-worker-0", "yasmin-worker-1"],
            ),
        ] {
            let mut b = TaskSetBuilder::new();
            let t = b.task_decl(TaskSpec::periodic("t", ms(50))).unwrap();
            let v = b
                .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
                .unwrap();
            let ts = Arc::new(b.build().unwrap());
            let rt = RuntimeBuilder::new(ts, config(workers))
                .body(t, v, |_| {})
                .build()
                .unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            let before = thread_sleeps(&["yasmin-"]);
            std::thread::sleep(std::time::Duration::from_millis(300));
            let after = thread_sleeps(&["yasmin-"]);
            rt.stop();
            let report = rt.cleanup();
            assert!(report.records.len() >= 5, "the schedule ran meanwhile");
            let mut names: Vec<&str> = before.values().map(|(name, _)| name.as_str()).collect();
            names.sort_unstable();
            assert_eq!(names, census, "threads of a {workers}-worker runtime");
            for (tid, (name, sleeps_before)) in &before {
                let (_, sleeps_after) = after[tid];
                let slept = sleeps_after - sleeps_before;
                assert!(
                    slept <= 30,
                    "{name} (tid {tid}) blocked {slept} times in 300 ms of a 50 ms schedule"
                );
            }
        }
    }

    /// Declares a task with one version of `wcet`.
    fn task(b: &mut TaskSetBuilder, spec: TaskSpec, wcet: Duration) -> (TaskId, VersionId) {
        let t = b.task_decl(spec).unwrap();
        let v = b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        (t, v)
    }

    /// Sleeps until `done()` — a few periods of a schedule that makes
    /// progress — or for 10 s, inside the watchdog of [`must_return`].
    fn nap_until(done: impl Fn() -> bool) {
        let t = std::time::Instant::now();
        while !done() && t.elapsed() < std::time::Duration::from_secs(10) {
            nap_ms(5);
        }
    }

    #[test]
    fn a_body_may_post_more_than_the_message_lane_holds() {
        let _clock = wall_clock();
        // One worker: src and dst run on the thread that drains the
        // mailbox. Every src job posts 100 high messages and every dst
        // job drains them: 200 events a period from that thread's own
        // bodies to its own owner, whose shared lane holds 64 — sent
        // there, the first job would wait for room only its own thread
        // can make; they take its own queue instead. Nothing may hang,
        // and every boost must balance (in debug builds the engine
        // asserts that no drain overtakes its post).
        const PER_JOB: u32 = 100;
        let (sent, got, stats) = must_return(|| {
            let mut b = TaskSetBuilder::new();
            let (src, vs) = task(&mut b, TaskSpec::periodic("src", ms(10)), ms(1));
            let (dst, vd) = task(&mut b, TaskSpec::graph_node("dst"), ms(1));
            let c = b.channel_decl_prioritized("data", 64, 8, 256, Priority::HIGHEST);
            b.channel_connect(src, dst, c).unwrap();
            let ts = Arc::new(b.build().unwrap());
            let config = Config::builder()
                .workers(1)
                .priority(PriorityPolicy::EarliestDeadlineFirst)
                .preemption(false)
                .max_pending_jobs(64)
                .build()
                .unwrap();
            let mut builder = RuntimeBuilder::new(ts, config);
            let (tx, rx) = builder.channel::<u64>(c).unwrap();
            let sent = Arc::new(AtomicU32::new(0));
            let got = Arc::new(AtomicU32::new(0));
            let (s, g) = (Arc::clone(&sent), Arc::clone(&got));
            let rt = builder
                .body(src, vs, move |_| {
                    for i in 0..PER_JOB {
                        s.fetch_add(
                            u32::from(tx.send_high(u64::from(i)).is_ok()),
                            Ordering::SeqCst,
                        );
                    }
                })
                .body(dst, vd, move |_| {
                    while rx.recv().is_some() {
                        g.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .build()
                .unwrap();
            nap_until(|| sent.load(Ordering::SeqCst) >= 3 * PER_JOB);
            rt.stop();
            let stats = rt.cleanup().engine_stats;
            (
                sent.load(Ordering::SeqCst),
                got.load(Ordering::SeqCst),
                stats,
            )
        });
        assert!(sent >= 3 * PER_JOB, "only {sent} posts");
        assert_eq!(sent, got, "every post was drained");
        assert_eq!(stats.released, stats.completed);
    }

    #[test]
    fn a_body_may_activate_more_than_the_control_lane_holds() {
        let _clock = wall_clock();
        // One worker: base activates an aperiodic task 100 times per
        // job, more than the 64 slots of the control lane only its own
        // thread drains.
        const PER_JOB: u32 = 100;
        let (activated, ran) = must_return(|| {
            let mut b = TaskSetBuilder::new();
            let (base, vb) = task(&mut b, TaskSpec::periodic("base", ms(5)), ms(1));
            let (aper, va) = task(
                &mut b,
                TaskSpec::aperiodic("aper"),
                Duration::from_micros(1),
            );
            let ts = Arc::new(b.build().unwrap());
            // Where the body finds the runtime it runs on.
            let slot: Arc<std::sync::RwLock<Option<Runtime>>> = Arc::default();
            let rt = Arc::clone(&slot);
            let activated = Arc::new(AtomicU32::new(0));
            let ran = Arc::new(AtomicU32::new(0));
            let (act, r) = (Arc::clone(&activated), Arc::clone(&ran));
            let config = Config::builder()
                .workers(1)
                .priority(PriorityPolicy::EarliestDeadlineFirst)
                .preemption(false)
                .max_pending_jobs(64)
                .build()
                .unwrap();
            let built = RuntimeBuilder::new(ts, config)
                .body(base, vb, move |_| {
                    let rt = rt.read().unwrap();
                    let Some(rt) = rt.as_ref() else { return };
                    for _ in 0..PER_JOB {
                        rt.activate(aper).unwrap();
                        act.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .body(aper, va, move |_| {
                    r.fetch_add(1, Ordering::SeqCst);
                })
                .build()
                .unwrap();
            *slot.write().unwrap() = Some(built);
            nap_until(|| activated.load(Ordering::SeqCst) >= 3 * PER_JOB);
            slot.read().unwrap().as_ref().unwrap().stop();
            // Taken once the bodies in flight have let go of it.
            let rt = slot.write().unwrap().take().unwrap();
            let stats = rt.cleanup().engine_stats;
            assert_eq!(stats.released, stats.completed);
            (activated.load(Ordering::SeqCst), ran.load(Ordering::SeqCst))
        });
        assert!(activated >= 3 * PER_JOB, "only {activated} activations");
        // The ready queue holds 64 too; what it refused is dropped.
        assert!(ran >= 64, "only {ran} of {activated} activations ran");
    }

    #[test]
    fn admit_and_retire_do_not_wait_for_the_job_boundary() {
        let _clock = wall_clock();
        // One worker, inside a 20 ms body of every 50: `admit` and
        // `retire` validate on this thread, send and return — they do
        // not wait for the owner, which is the thread inside the body.
        // What they sent is applied when the body returns: the tenant
        // (10 ms period on the 5 ms tick) is anchored at the next edge
        // and its first job starts within one of its periods.
        const BODY_MS: u64 = 20;
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let (base, vb) = task(&mut b, TaskSpec::periodic("base", ms(50)), ms(25));
            let ts = Arc::new(b.build().unwrap());
            let config = Config::builder()
                .workers(1)
                .priority(PriorityPolicy::EarliestDeadlineFirst)
                .preemption(false)
                .tick(ms(5))
                .build()
                .unwrap();
            let bodies_begun = Arc::new(AtomicU32::new(0));
            let begun = Arc::clone(&bodies_begun);
            let rt = RuntimeBuilder::new(ts, config)
                .body(base, vb, move |_| {
                    begun.fetch_add(1, Ordering::SeqCst);
                    nap_ms(BODY_MS);
                })
                .build()
                .unwrap();
            let inside_body = |nth: u32| {
                while bodies_begun.load(Ordering::SeqCst) < nth {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                std::time::Instant::now()
            };
            let (cand, bodies) = candidate(10, Duration::from_micros(50));
            let t = inside_body(1);
            let admitted = rt.admit(&cand, bodies, None);
            let admit_us = t.elapsed().as_micros();
            let t = inside_body(3);
            let retired = admitted.as_ref().ok().map(|&tenant| rt.retire(tenant));
            let retire_us = t.elapsed().as_micros();
            rt.stop();
            let report = rt.cleanup();
            admitted.expect("a light tenant on the running tick is admitted");
            retired.unwrap().expect("a live tenant retires");
            if admit_us >= 5_000 || retire_us >= 5_000 {
                return Err(format!("admit took {admit_us} µs, retire {retire_us} µs"));
            }
            let body_end = report.records.iter().find(|r| r.job.task == base);
            let body_end = body_end.expect("base ran").completed;
            let first = report
                .records
                .iter()
                .filter(|r| r.job.task == TaskId::new(1))
                .map(|r| r.started)
                .min()
                .ok_or("the tenant never ran")?;
            if first < body_end || first.saturating_since(body_end) >= ms(10) {
                return Err(format!(
                    "the body ended at {body_end}, the tenant first started at {first}"
                ));
            }
            Ok(())
        });
    }

    #[test]
    fn an_owner_with_helpers_never_runs_a_body() {
        let _clock = wall_clock();
        // Two workers, global EDF, released together: one 30 ms job
        // (earliest deadline, so it is dispatched first) and three 1 ms
        // jobs. One worker takes the long job, the other must be handed
        // the short ones one after the other while it runs — by an
        // owner that is free to, i.e. is not itself inside the long
        // body. All three finish long before it does.
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let long = TaskSpec::periodic("long", ms(200)).with_constrained_deadline(ms(100));
            let (long, vl) = task(&mut b, long, ms(40));
            let shorts: Vec<_> = (0..3)
                .map(|i| {
                    let spec = TaskSpec::periodic(format!("short{i}"), ms(200));
                    task(&mut b, spec, ms(2))
                })
                .collect();
            let ts = Arc::new(b.build().unwrap());
            let mut builder = RuntimeBuilder::new(ts, config(2)).body(long, vl, |_| nap_ms(30));
            for &(t, v) in &shorts {
                builder = builder.body(t, v, |_| nap_ms(1));
            }
            let rt = builder.build().unwrap();
            nap_ms(60);
            rt.stop();
            let report = rt.cleanup();
            let first = |t: TaskId| {
                let r = report.records.iter().find(|r| r.job.task == t);
                *r.expect("every task ran in 60 ms")
            };
            let long = first(long);
            for &(t, _) in &shorts {
                let short = first(t);
                assert_ne!(short.worker, long.worker, "the long job keeps its worker");
                if short.completed >= long.completed {
                    return Err(format!(
                        "{t} completed at {}, the long job at {}",
                        short.completed, long.completed
                    ));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn overrunning_body_is_flagged_in_its_slot() {
        let _clock = wall_clock();
        // Tick 5 ms (quick's period), one slot — the whole engine's, or
        // a shard's. slow's first body sleeps across two edges on a
        // 2 ms WCET; the thread that handles them was inside that body,
        // so they are handled when it returns — before its completion
        // retires, or the overrun would find the slot empty and the
        // killed job's successor would fire.
        let one_owner = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false);
        for config in [one_owner, sharded(1)] {
            let config = config.enforce_wcet(true).build().unwrap();
            within_attempts(3, || {
                let mut b = TaskSetBuilder::new();
                let on0 = |spec: TaskSpec| spec.on_worker(WorkerId::new(0));
                let slow =
                    TaskSpec::periodic("slow", ms(50)).with_overrun_policy(OverrunPolicy::Kill);
                let (slow, vs) = task(&mut b, on0(slow), ms(2));
                let (succ, vsucc) = task(&mut b, on0(TaskSpec::graph_node("succ")), ms(2));
                let (quick, vq) = task(&mut b, on0(TaskSpec::periodic("quick", ms(5))), ms(2));
                let c = b.channel_decl("c", 1, 8);
                b.channel_connect(slow, succ, c).unwrap();
                let ts = Arc::new(b.build().unwrap());
                let first = AtomicBool::new(true);
                let rt = RuntimeBuilder::new(ts, config.clone())
                    .body(slow, vs, move |_| {
                        if first.swap(false, Ordering::SeqCst) {
                            nap_ms(12);
                        }
                    })
                    .body(succ, vsucc, |_| {})
                    .body(quick, vq, |_| {})
                    .build()
                    .unwrap();
                nap_ms(130);
                rt.stop();
                let report = rt.cleanup();
                let ran = |t: TaskId| report.records.iter().filter(|r| r.job.task == t).count();
                assert!(ran(slow) >= 2 && ran(quick) >= 10, "the schedule ran");
                // A body the host stalled for 2 ms reads as an overrun too.
                if report.engine_stats.overruns != 1 {
                    return Err(format!("{} overruns", report.engine_stats.overruns));
                }
                assert_eq!(
                    ran(succ),
                    ran(slow) - 1,
                    "the killed job fired no successor"
                );
                Ok(())
            });
        }
    }

    #[test]
    fn latency_is_sane() {
        let _clock = wall_clock();
        // Wake-up latency on this host should be far below one period,
        // whichever owner has the task.
        for config in [config(1), sharded(1).build().unwrap()] {
            within_attempts(3, || {
                let mut b = TaskSetBuilder::new();
                let spec = TaskSpec::periodic("t", ms(10)).on_worker(WorkerId::new(0));
                let (t, v) = task(&mut b, spec, Duration::from_micros(20));
                let ts = Arc::new(b.build().unwrap());
                let rt = RuntimeBuilder::new(ts, config.clone())
                    .body(t, v, |_| {})
                    .build()
                    .unwrap();
                std::thread::sleep(std::time::Duration::from_millis(80));
                rt.stop();
                let report = rt.cleanup();
                assert!(report.records.len() >= 3);
                let slow = report
                    .records
                    .iter()
                    .filter(|r| r.start_latency() >= ms(10) || r.missed())
                    .count();
                if slow > 0 {
                    return Err(format!(
                        "{slow} jobs a period late or past their deadline on an idle host"
                    ));
                }
                Ok(())
            });
        }
    }
}
