//! Per-worker engine shards (partitioned mapping, PR 3; cross-shard
//! activation routing and work stealing, PR 5).
//!
//! Under [`MappingScheme::Partitioned`] every worker already has its own
//! ready queue (Fig. 1b) — yet the classic [`OnlineEngine`] funnels all
//! of them through one owner, capping the system at a single scheduler
//! thread. An [`EngineShard`] is the slice of the engine belonging to
//! exactly one worker: its own [`crate::ReadyQueue`], running slot, rank
//! cache and scratch buffers, with **zero mutable state shared between
//! shards** (the task set is shared immutably through an `Arc`). One
//! scheduler thread per core can then drive its shard independently,
//! fed through the lock-free command mailbox in `yasmin-sync`.
//!
//! ## What may cross shards, and how
//!
//! * **DAG edges** may span workers. Every edge's activation-token
//!   state is owned by the shard owning the edge's *destination* task;
//!   a completion whose out-edge points at a foreign destination lands
//!   in the shard's **outbox** as a
//!   [`crate::engine::RemoteActivation`], which the driver drains
//!   ([`EngineShard::drain_outbox_into`]) and routes to the owning
//!   shard's mailbox as a [`ShardCmd::CrossActivate`]. Because only the
//!   destination's owner ever touches an edge's tokens, two shards
//!   never race on them — ownership, not exclusion.
//! * **Ready jobs** may migrate once, via work stealing: an idle shard
//!   probes a victim ([`EngineShard::try_steal`], an O(1) shared-ref
//!   peek through the index-tracked queue), the victim detaches the
//!   hinted job ([`EngineShard::release_stolen`], an O(log n)
//!   [`crate::ReadyQueue::remove`]) and the thief adopts it
//!   ([`EngineShard::adopt_stolen`]), running it on its own worker with
//!   the thief's global [`WorkerId`] in every action. A stolen job
//!   completes on the thief; any successors it fires are routed by
//!   destination ownership exactly as above, so stealing composes with
//!   cross-shard edges.
//!
//! ## Batch steals (PR 10)
//!
//! One request/grant round-trip may move up to
//! [`crate::MAX_STEAL_BATCH`] jobs instead of one. The protocol is the
//! single steal's, widened:
//!
//! 1. The thief asks for `k` jobs (sized from the load gap on the
//!    `yasmin_sync::steal::LoadBoard`); the victim's driver collects up
//!    to `k` hints with [`EngineShard::try_steal_batch`] — a
//!    **non-mutating ordered scan** of the ready queue
//!    ([`crate::ReadyQueue::scan_in_order`]) that stops at the first
//!    job in key order that cannot migrate, so a thief never skips
//!    more-urgent local-only work to take less-urgent jobs behind it.
//! 2. The victim detaches all still-fresh hinted jobs **atomically with
//!    respect to its own scheduling** — the driver owns the shard, so
//!    no dispatch can interleave — via
//!    [`EngineShard::release_stolen_batch`], which packs them into a
//!    `Copy` [`JobBatch`](crate::job::JobBatch) that rides a peer lane by value. Stale hints
//!    are skipped, never errors.
//! 3. One [`ShardCmd::StolenBatch`] ack lands the whole batch on the
//!    thief, which adopts and runs **one dispatch round for all of
//!    them** ([`EngineShard::adopt_stolen_batch`]).
//!
//! The **migrate-at-most-once** invariant is enforced on both sides:
//! the victim's scan refuses jobs whose task is not homed on the
//! victim's own worker (i.e. jobs it previously adopted from someone
//! else), and the thief's adopt rejects any batch containing a job the
//! thief's shard already owns. A job therefore moves shards at most
//! once in its lifetime, and tenant-budget charging stays what PR 8
//! fixed: the charge lands on the **thief's** replica at dispatch.
//!
//! ## What still cannot cross shards, and why
//!
//! * **Accelerator bindings.** [`EngineShard::build_all`] rejects a
//!   task set whose accelerator is referenced from tasks of more than
//!   one worker, and the steal path refuses to migrate any job of a
//!   task with an accelerator-bound version
//!   ([`EngineShard::try_steal`] returns no hint for them). Each shard
//!   arbitrates its accelerators locally — holders, PIP boosts, free
//!   lists — with no cross-shard view; migrating an accelerator user
//!   would let two shards grant the same device concurrently.
//! * **Worker slots.** A shard dispatches onto exactly its own worker;
//!   stealing moves the *job* to the thief's shard rather than letting
//!   a shard dispatch onto a foreign worker, so the "one owner per
//!   running slot" invariant survives.
//!
//! The remaining contract, enforced by [`EngineShard::build_all`]: the
//! configuration opts in via `Config::sharded_dispatch` (which itself
//! requires partitioned mapping), every task carries a worker
//! assignment, and accelerators stay within one worker (above).
//!
//! Job ids are stamped with the shard's worker index in their high bits,
//! so ids stay unique across shards numbering concurrently — and stay
//! meaningful when a job migrates to a thief; per-task sequence numbers
//! (`Job::seq`) are identical to the single-owner engine's, which is
//! what trace cross-checks compare on.

use crate::engine::{EngineStats, OnlineEngine, RemoteActivation, RunningJob, StealHint};
use crate::job::Job;
use crate::server::{ReservationServer, TenantBudget};
use crate::sink::ActionSink;
use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{JobId, TaskId, TenantId, WorkerId};
use yasmin_core::priority::Priority;
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::ExecMode;

/// A command fed to an [`EngineShard`] by its mailbox producers.
///
/// Each variant carries the (driver-supplied) time it takes effect, so a
/// shard owner can drain several producers and process commands in a
/// deterministic time order (see `yasmin_sim::par` for the protocol
/// loop that exploits this, and the sharded runtime in `yasmin-rt` for
/// the free-running equivalent).
///
/// Commands travel three kinds of mailbox lanes: the *worker* lane
/// (completions), the *control* lane (ticks, stop, admission) and
/// *peer* lanes (cross-shard tokens and steal traffic). The admission
/// variants ([`ShardCmd::AdmitTasks`] / [`ShardCmd::CommitTenant`] /
/// [`ShardCmd::RetireTenant`]) are control-lane commands: rare,
/// allocation-tolerant, and ordered with the ticks around them.
///
/// Not `Copy`: [`ShardCmd::AdmitTasks`] carries the merged task set by
/// `Arc`, which every shard must adopt *by reference* (the whole point
/// of splicing is that shards share one immutable merged set).
// StolenBatch carries its jobs inline in the fixed-size `JobBatch`
// rather than boxing them: the command rides preallocated mailbox
// lanes, and a `Box` would put an allocation + free on the steal hot
// path that `tests/zero_alloc.rs` scenario 13 forbids. The widened
// enum only grows those preallocated slots.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ShardCmd {
    /// Explicit activation of a sporadic/aperiodic task owned by the
    /// shard (the paper's `yas_task_activate`).
    Activate {
        /// The task to activate.
        task: TaskId,
        /// Activation time.
        at: Instant,
    },
    /// A worker finished a job the shard dispatched.
    JobCompleted {
        /// The worker that ran the job (must be the shard's worker).
        worker: WorkerId,
        /// The completed job.
        job: JobId,
        /// Completion time.
        at: Instant,
    },
    /// A worker's job body failed (panicked); the shard retires the job
    /// without firing successors unless the task's overrun policy is
    /// `LogOnly` (see [`OnlineEngine::on_job_failed_into`]).
    JobFailed {
        /// The worker that ran the job (must be the shard's worker).
        worker: WorkerId,
        /// The failed job.
        job: JobId,
        /// Failure time.
        at: Instant,
    },
    /// A scheduler-thread tick: release periodic jobs due by `at`.
    Tick {
        /// The tick instant.
        at: Instant,
    },
    /// A DAG activation token routed from a foreign shard: a
    /// predecessor on another worker completed and this shard owns the
    /// edge's destination (see [`EngineShard::drain_outbox_into`]).
    CrossActivate {
        /// Index of the edge in the task set's edge list.
        edge: u32,
        /// Graph release carried by the token (join semantics).
        graph_release: Instant,
        /// The predecessor's completion time.
        at: Instant,
    },
    /// A high-priority message was posted to a channel whose receiving
    /// task this shard owns (see [`yasmin_sched::msg`](crate::msg)).
    /// Routed like [`ShardCmd::CrossActivate`] when the sender runs on
    /// a foreign shard: the sender's shard forwards it over the
    /// per-peer lane to the owner, which applies
    /// [`OnlineEngine::on_high_posted_into`].
    MsgHigh {
        /// The receiving task (owned by this shard).
        dst: TaskId,
        /// The channel's declared priority ceiling.
        ceiling: Priority,
        /// Post time.
        at: Instant,
    },
    /// A high-priority message was consumed from a channel whose
    /// receiving task this shard owns; applies
    /// [`OnlineEngine::on_high_drained_into`], releasing the boost once
    /// the last outstanding high post drains.
    MsgDrained {
        /// The receiving task (owned by this shard).
        dst: TaskId,
        /// Drain time.
        at: Instant,
    },
    /// An idle thief shard asks this shard for a ready job. Drivers
    /// answer it themselves (via [`EngineShard::try_steal`] /
    /// [`EngineShard::release_stolen`] and a [`ShardCmd::Stolen`] or
    /// [`ShardCmd::StealDeny`] reply) — it is the one command
    /// [`EngineShard::process_into`] rejects, because a reply needs the
    /// driver's reverse lane.
    StealRequest {
        /// The requesting shard's worker.
        thief: WorkerId,
        /// Request time.
        at: Instant,
    },
    /// A victim's grant: the detached ready job for the thief to adopt.
    Stolen {
        /// The stolen job (already removed from the victim's queue).
        job: Job,
        /// Grant time.
        at: Instant,
    },
    /// A victim's batch grant: up to [`crate::MAX_STEAL_BATCH`] detached
    /// ready jobs in one ack, most urgent first (see the module docs on
    /// batch steals). The thief adopts them all with **one** dispatch
    /// round ([`EngineShard::adopt_stolen_batch`]).
    StolenBatch {
        /// The stolen jobs (already removed from the victim's queue).
        jobs: crate::job::JobBatch,
        /// Grant time.
        at: Instant,
    },
    /// A victim's refusal (nothing stealable); the thief may re-probe.
    StealDeny {
        /// Refusal time.
        at: Instant,
    },
    /// Phase one of a two-phase tenant admission: adopt the merged task
    /// set produced by `yasmin_sched::admission` with the new tenant's
    /// releases still **disarmed** (see
    /// [`OnlineEngine::splice_taskset`]). The driver broadcasts this to
    /// every shard and must wait for all of them to apply it before
    /// sending [`ShardCmd::CommitTenant`] — otherwise a committed
    /// shard could complete a tenant job and route a cross-shard token
    /// to a shard that has never heard of the edge.
    AdmitTasks {
        /// The merged (live + tenant) task set, shared across shards.
        taskset: Arc<TaskSet>,
        /// The tenant's budget; each shard instantiates its own
        /// [`ReservationServer`] replica anchored at `at`, so the
        /// budget is a per-worker guarantee under sharding.
        budget: Option<TenantBudget>,
        /// Admission time (anchors budget replenishment).
        at: Instant,
    },
    /// Phase two of a tenant admission: arm the tenant's periodic
    /// releases at `at` (see [`OnlineEngine::commit_tenant_into`]).
    /// Safe to send only after every shard applied the matching
    /// [`ShardCmd::AdmitTasks`].
    CommitTenant {
        /// The tenant assigned by the splice.
        tenant: TenantId,
        /// Commit instant — the tenant's release origin.
        at: Instant,
    },
    /// Quiesce a tenant: disarm future releases, cull its ready jobs,
    /// drop its pending DAG tokens; in-flight jobs finish but fire no
    /// successors (see [`OnlineEngine::retire_tenant_into`]). Racing
    /// cross-shard tokens for a retired tenant are discarded silently,
    /// so shards may retire in any order.
    RetireTenant {
        /// The tenant to retire (tenant 0 is refused).
        tenant: TenantId,
        /// Retirement time.
        at: Instant,
    },
    /// Stop releasing periodic jobs; in-flight work drains.
    Stop,
}

impl ShardCmd {
    /// The simulated/driver time the command takes effect, if it
    /// carries one (`Stop` is timeless).
    #[must_use]
    pub fn at(&self) -> Option<Instant> {
        match *self {
            ShardCmd::Activate { at, .. }
            | ShardCmd::JobCompleted { at, .. }
            | ShardCmd::JobFailed { at, .. }
            | ShardCmd::Tick { at }
            | ShardCmd::CrossActivate { at, .. }
            | ShardCmd::MsgHigh { at, .. }
            | ShardCmd::MsgDrained { at, .. }
            | ShardCmd::StealRequest { at, .. }
            | ShardCmd::Stolen { at, .. }
            | ShardCmd::StolenBatch { at, .. }
            | ShardCmd::StealDeny { at }
            | ShardCmd::AdmitTasks { at, .. }
            | ShardCmd::CommitTenant { at, .. }
            | ShardCmd::RetireTenant { at, .. } => Some(at),
            ShardCmd::Stop => None,
        }
    }
}

/// The independent slice of the scheduling engine owned by one worker.
///
/// Construction goes through [`EngineShard::build_all`], which validates
/// the sharding contract for the whole task set. All scheduling entry
/// points mirror [`OnlineEngine`]'s zero-allocation `*_into` API and
/// report the shard's **global** [`WorkerId`] in every action.
#[derive(Debug)]
pub struct EngineShard {
    engine: OnlineEngine,
    worker: WorkerId,
}

/// Checks the sharding contract for `taskset` under `config`; see the
/// module docs. Cross-shard DAG edges are **accepted** (their tokens
/// are owned by the destination's shard and routed through the
/// outbox/mailbox); cross-shard accelerator bindings are still
/// rejected, because each shard arbitrates its accelerators with no
/// view of foreign holders.
///
/// # Errors
///
/// [`Error::InvalidConfig`] naming the violated rule; partition errors
/// ([`Error::MissingPartition`] / [`Error::UnknownWorker`]) as in
/// [`OnlineEngine::new`].
pub fn validate_sharding(taskset: &TaskSet, config: &Config) -> Result<()> {
    if !config.sharded_dispatch() {
        return Err(Error::InvalidConfig(
            "enable Config::sharded_dispatch to build engine shards".into(),
        ));
    }
    debug_assert_eq!(config.mapping(), MappingScheme::Partitioned);
    let assigned = |t: TaskId| -> Result<WorkerId> {
        match taskset.tasks()[t.index()].spec().assigned_worker() {
            None => Err(Error::MissingPartition(t)),
            Some(w) if w.index() >= config.workers() => Err(Error::UnknownWorker(w)),
            Some(w) => Ok(w),
        }
    };
    for e in taskset.edges() {
        // Both endpoints must be assigned (and in range); the edge
        // itself may cross shards.
        let _ = (assigned(e.src)?, assigned(e.dst)?);
    }
    let mut accel_owner = vec![None; taskset.accels().len()];
    for t in taskset.tasks() {
        let w = assigned(t.id())?;
        for v in t.versions() {
            if let Some(a) = v.accel() {
                match accel_owner[a.index()] {
                    None => accel_owner[a.index()] = Some(w),
                    Some(prev) if prev == w => {}
                    Some(prev) => {
                        return Err(Error::InvalidConfig(format!(
                            "accelerator {a} is used from workers {prev} and {w}: \
                             shards arbitrate accelerators independently"
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

impl EngineShard {
    /// Builds one shard per worker, validating the sharding contract
    /// once for the whole set. The returned vector is indexed by worker.
    ///
    /// # Errors
    ///
    /// See [`validate_sharding`] and [`OnlineEngine::new`].
    pub fn build_all(taskset: &Arc<TaskSet>, config: &Config) -> Result<Vec<EngineShard>> {
        validate_sharding(taskset, config)?;
        (0..config.workers())
            .map(|w| {
                let worker = WorkerId::new(w as u16);
                Ok(EngineShard {
                    engine: OnlineEngine::new_shard(Arc::clone(taskset), config.clone(), worker)?,
                    worker,
                })
            })
            .collect()
    }

    /// The worker this shard owns.
    #[must_use]
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// Applies one mailbox command, appending resulting actions to
    /// `sink` (which is **not** cleared — the caller batches).
    ///
    /// # Errors
    ///
    /// The underlying engine call's errors — e.g. a `JobCompleted` for a
    /// foreign worker, an `Activate` of a task the shard does not own,
    /// or a `CrossActivate` routed to the wrong shard. Those are driver
    /// protocol violations, not runtime conditions.
    /// [`ShardCmd::StealRequest`] is also an error here: answering it
    /// needs the driver's reverse lane, so drivers handle it themselves
    /// with [`EngineShard::try_steal`] / [`EngineShard::release_stolen`].
    pub fn process_into(&mut self, cmd: ShardCmd, sink: &mut ActionSink) -> Result<()> {
        match cmd {
            ShardCmd::Activate { task, at } => self.engine.activate_into(task, at, sink),
            ShardCmd::JobCompleted { worker, job, at } => {
                self.engine.on_job_completed_into(worker, job, at, sink)
            }
            ShardCmd::JobFailed { worker, job, at } => {
                self.engine.on_job_failed_into(worker, job, at, sink)
            }
            ShardCmd::Tick { at } => {
                self.engine.on_tick_into(at, sink);
                Ok(())
            }
            ShardCmd::CrossActivate {
                edge,
                graph_release,
                at,
            } => self.engine.on_remote_token(edge, graph_release, at, sink),
            ShardCmd::MsgHigh { dst, ceiling, at } => {
                self.engine.on_high_posted_into(dst, ceiling, at, sink)
            }
            ShardCmd::MsgDrained { dst, at } => self.engine.on_high_drained_into(dst, at, sink),
            ShardCmd::Stolen { job, at } => self.engine.adopt_stolen(job, at, sink),
            ShardCmd::StolenBatch { jobs, at } => {
                self.engine.adopt_stolen_batch(jobs.as_slice(), at, sink)
            }
            ShardCmd::StealDeny { .. } => Ok(()),
            ShardCmd::AdmitTasks {
                taskset,
                budget,
                at,
            } => self.admit_tasks(taskset, budget, at).map(|_| ()),
            ShardCmd::CommitTenant { tenant, at } => {
                self.engine.commit_tenant_into(tenant, at, sink)
            }
            ShardCmd::RetireTenant { tenant, at } => {
                self.engine.retire_tenant_into(tenant, at, sink)
            }
            ShardCmd::StealRequest { thief, .. } => Err(Error::InvalidConfig(format!(
                "StealRequest from {thief} reached process_into: the driver must \
                 answer steal requests itself (try_steal/release_stolen)"
            ))),
            ShardCmd::Stop => {
                self.engine.stop();
                Ok(())
            }
        }
    }

    /// Starts the shard's schedule at `now`; see
    /// [`OnlineEngine::start_into`].
    ///
    /// # Errors
    ///
    /// [`Error::ScheduleRunning`] if already started.
    pub fn start_into(&mut self, now: Instant, sink: &mut ActionSink) -> Result<()> {
        self.engine.start_into(now, sink)
    }

    /// One scheduler tick; see [`OnlineEngine::on_tick_into`].
    pub fn on_tick_into(&mut self, now: Instant, sink: &mut ActionSink) {
        self.engine.on_tick_into(now, sink);
    }

    /// Explicit activation; see [`OnlineEngine::activate_into`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::activate_into`], plus a protocol error when
    /// the task is not assigned to this shard's worker.
    pub fn activate_into(
        &mut self,
        task: TaskId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.activate_into(task, now, sink)
    }

    /// Completion hand-back; see [`OnlineEngine::on_job_completed_into`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::on_job_completed_into`]; `worker` must be this
    /// shard's worker.
    pub fn on_job_completed_into(
        &mut self,
        worker: WorkerId,
        job: JobId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.on_job_completed_into(worker, job, now, sink)
    }

    /// Failed-job hand-back (worker body panicked or was reported as
    /// failed by a fault injector); see
    /// [`OnlineEngine::on_job_failed_into`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::on_job_failed_into`]; `worker` must be this
    /// shard's worker.
    pub fn on_job_failed_into(
        &mut self,
        worker: WorkerId,
        job: JobId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.on_job_failed_into(worker, job, now, sink)
    }

    /// Forces an overrun on the shard's running job of `task` (fault
    /// injection); see [`OnlineEngine::force_overrun`]. Returns `false`
    /// when no such job is running.
    pub fn force_overrun(&mut self, task: TaskId, now: Instant, sink: &mut ActionSink) -> bool {
        self.engine.force_overrun(task, now, sink)
    }

    /// `true` while the shard's deadline-miss trip wire is tripped.
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.engine.is_tripped()
    }

    /// Batched completion hand-back: a mailbox drain that finds several
    /// pending `JobCompleted` commands coalesces them into one call, so
    /// the shard pays a single dispatch round for the whole burst; see
    /// [`OnlineEngine::on_jobs_completed_into`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::on_jobs_completed_into`]; every worker in the
    /// batch must be this shard's worker.
    pub fn on_jobs_completed_into(
        &mut self,
        completions: &[(WorkerId, JobId)],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.on_jobs_completed_into(completions, now, sink)
    }

    /// Coalesced wake: retires `completions` and performs the tick at
    /// `now` with one dispatch round for both; see
    /// [`OnlineEngine::advance_into`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::advance_into`].
    pub fn advance_into(
        &mut self,
        completions: &[(WorkerId, JobId)],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.advance_into(completions, now, sink)
    }

    /// Applies a DAG token routed from a foreign shard; see
    /// [`OnlineEngine::on_remote_token`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::on_remote_token`].
    pub fn on_remote_token(
        &mut self,
        edge: u32,
        graph_release: Instant,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.on_remote_token(edge, graph_release, now, sink)
    }

    /// Moves pending cross-shard activations into `buf` (appended);
    /// see [`OnlineEngine::drain_outbox_into`]. Drivers call this after
    /// every interaction that can complete jobs and route each entry to
    /// the shard owning `entry.worker`.
    pub fn drain_outbox_into(&mut self, buf: &mut Vec<RemoteActivation>) {
        self.engine.drain_outbox_into(buf);
    }

    /// `true` when cross-shard tokens await routing.
    #[must_use]
    pub fn has_outbox(&self) -> bool {
        self.engine.has_outbox()
    }

    /// An O(1) shared-reference steal probe: the most urgent ready job,
    /// unless it belongs to an accelerator-bound task (those never
    /// migrate); see [`OnlineEngine::steal_hint`].
    #[must_use]
    pub fn try_steal(&self) -> Option<StealHint> {
        self.engine.steal_hint()
    }

    /// Victim side of a steal: detaches the hinted job from the ready
    /// queue (O(log n)) and returns it for the thief; `None` when the
    /// hint went stale. See [`OnlineEngine::release_stolen`].
    pub fn release_stolen(&mut self, hint: StealHint) -> Option<Job> {
        self.engine.release_stolen(hint)
    }

    /// Thief side of a steal: adopts `job` into the local queue and
    /// dispatches, reporting this shard's global [`WorkerId`]; see
    /// [`OnlineEngine::adopt_stolen`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::adopt_stolen`].
    pub fn adopt_stolen(&mut self, job: Job, now: Instant, sink: &mut ActionSink) -> Result<()> {
        self.engine.adopt_stolen(job, now, sink)
    }

    /// Batch steal probe: collects up to `k` hints (most urgent first)
    /// into `out` via a non-mutating ordered scan of the ready queue,
    /// stopping at the first job in key order that cannot migrate;
    /// returns the hint count. See [`OnlineEngine::steal_hints`] and the
    /// module docs on batch steals.
    pub fn try_steal_batch(&mut self, k: usize, out: &mut Vec<StealHint>) -> usize {
        self.engine.steal_hints(k, out)
    }

    /// Victim side of a batch steal: detaches every still-fresh hinted
    /// job and appends it to `out`, most urgent first; stale hints are
    /// skipped. Returns the number of jobs released. See
    /// [`OnlineEngine::release_stolen_batch`].
    pub fn release_stolen_batch(
        &mut self,
        hints: &[StealHint],
        out: &mut crate::job::JobBatch,
    ) -> usize {
        self.engine.release_stolen_batch(hints, out)
    }

    /// Thief side of a batch steal: adopts every job in `jobs` into the
    /// local queue, then runs **one** dispatch round for the whole
    /// batch; see [`OnlineEngine::adopt_stolen_batch`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::adopt_stolen_batch`] — the batch is rejected
    /// whole if any job already belongs to this shard.
    pub fn adopt_stolen_batch(
        &mut self,
        jobs: &[Job],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.adopt_stolen_batch(jobs, now, sink)
    }

    /// Phase one of a tenant admission on this shard: adopts `merged`
    /// (releases disarmed) and, when a budget is requested, builds this
    /// shard's own [`ReservationServer`] replica anchored at `at`.
    /// Returns the tenant id the splice assigned — identical on every
    /// shard, since all of them splice the same merged set in the same
    /// admission order.
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::splice_taskset`] — the merged set must be an
    /// append-only extension of the shard's current set, with every new
    /// task partitioned and every new period a multiple of the tick.
    pub fn admit_tasks(
        &mut self,
        merged: Arc<TaskSet>,
        budget: Option<TenantBudget>,
        at: Instant,
    ) -> Result<TenantId> {
        let tenant = TenantId::new(self.engine.tenant_count() as u32);
        let server = budget.map(|b| ReservationServer::new(tenant, b, at));
        self.engine.splice_taskset(merged, server)
    }

    /// Phase two of a tenant admission: arms the tenant's releases; see
    /// [`OnlineEngine::commit_tenant_into`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::commit_tenant_into`].
    pub fn commit_tenant_into(
        &mut self,
        tenant: TenantId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.commit_tenant_into(tenant, now, sink)
    }

    /// Phase two with the release anchor pinned to this shard's tick
    /// grid; see [`OnlineEngine::commit_tenant_anchored_into`]. The
    /// sharded thread runtime passes its next local tick edge so the
    /// tenant's releases coincide with dispatch edges.
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::commit_tenant_into`].
    pub fn commit_tenant_anchored_into(
        &mut self,
        tenant: TenantId,
        anchor: Instant,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine
            .commit_tenant_anchored_into(tenant, anchor, now, sink)
    }

    /// Quiesces a tenant on this shard; see
    /// [`OnlineEngine::retire_tenant_into`].
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::retire_tenant_into`].
    pub fn retire_tenant_into(
        &mut self,
        tenant: TenantId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.engine.retire_tenant_into(tenant, now, sink)
    }

    /// Number of tenants this shard knows (including tenant 0 and
    /// retired ones — tenant ids are never reused).
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.engine.tenant_count()
    }

    /// This shard's replica of a tenant's reservation server, if the
    /// tenant carries a budget. Stolen jobs charge the **thief** shard's
    /// replica on dispatch — the budget follows the tenant, not the
    /// shard the task was partitioned onto.
    #[must_use]
    pub fn tenant_server(&self, tenant: TenantId) -> Option<&crate::server::ReservationServer> {
        self.engine.tenant_server(tenant)
    }

    /// Stops releasing periodic jobs; in-flight work drains.
    pub fn stop(&mut self) {
        self.engine.stop();
    }

    /// Switches the execution mode (shard-local; a driver broadcasting a
    /// mode switch sends it to every shard).
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.engine.set_mode(mode);
    }

    /// The scheduler-thread period (identical across shards: gcd over
    /// the *whole* task set, so shard ticks stay aligned).
    #[must_use]
    pub fn tick_period(&self) -> Duration {
        self.engine.tick_period()
    }

    /// The shared (immutable) task set.
    #[must_use]
    pub fn taskset(&self) -> &TaskSet {
        self.engine.taskset()
    }

    /// Shard counters (merge with [`EngineStats::merge`] for a global
    /// view).
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// What the shard's worker is currently executing.
    #[must_use]
    pub fn running(&self) -> Option<&RunningJob> {
        self.engine.running(self.worker)
    }

    /// Ready (not running) jobs queued in this shard.
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.engine.ready_len()
    }

    /// `true` when the queue is empty and the worker idle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.engine.is_idle()
    }

    /// The most urgent ready job, O(1) through a shared reference
    /// (telemetry, future work-stealing probes) — the index-tracked
    /// [`crate::ReadyQueue`] peeks without any side effect.
    #[must_use]
    pub fn peek_hint(&self) -> Option<&Job> {
        self.engine.most_urgent_hint()
    }

    /// Unwraps the inner shard-view engine, for drivers that embed the
    /// shard in their own event loop (the simulator does this).
    #[must_use]
    pub fn into_inner(self) -> OnlineEngine {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Action;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: u64) -> Instant {
        Instant::from_nanos(v * 1_000_000)
    }

    fn partitioned_config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    }

    /// Two workers, two tasks each.
    fn two_worker_set() -> Arc<TaskSet> {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for (name, period, w) in [("a0", 10, 0), ("a1", 20, 0), ("b0", 10, 1), ("b1", 40, 1)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(period)).on_worker(WorkerId::new(w)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(2))).unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn build_all_yields_one_shard_per_worker() {
        let shards = EngineShard::build_all(&two_worker_set(), &partitioned_config(2)).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].worker(), WorkerId::new(0));
        assert_eq!(shards[1].worker(), WorkerId::new(1));
        assert_eq!(shards[0].tick_period(), shards[1].tick_period());
    }

    #[test]
    fn requires_sharded_dispatch_opt_in() {
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .build()
            .unwrap();
        assert!(matches!(
            EngineShard::build_all(&two_worker_set(), &cfg),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn shards_release_only_their_own_tasks_with_global_worker_ids() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        for shard in &mut shards {
            sink.clear();
            shard.start_into(Instant::ZERO, &mut sink).unwrap();
            assert_eq!(sink.len(), 1, "one dispatch per shard worker");
            match sink.as_slice()[0] {
                Action::Dispatch { worker, job, .. } => {
                    assert_eq!(worker, shard.worker(), "global id in actions");
                    assert_eq!(
                        ts.tasks()[job.task.index()].spec().assigned_worker(),
                        Some(shard.worker())
                    );
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(shard.ready_len(), 1, "second own task queued");
        }
    }

    #[test]
    fn job_ids_are_disjoint_across_shards() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        let mut ids = Vec::new();
        for shard in &mut shards {
            sink.clear();
            shard.start_into(Instant::ZERO, &mut sink).unwrap();
            ids.push(shard.running().unwrap().job.id);
        }
        assert_ne!(ids[0], ids[1]);
        assert_eq!(ids[1].raw() >> 48, 1, "shard index in the high bits");
    }

    #[test]
    fn foreign_completion_and_activation_rejected() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        let job = shards[0].running().unwrap().job.id;
        // Completion reported by the wrong worker id.
        assert!(shards[0]
            .on_job_completed_into(WorkerId::new(1), job, at(1), &mut sink)
            .is_err());
        // Activation of a task owned by the other shard.
        let foreign = ts
            .tasks()
            .iter()
            .find(|t| t.spec().assigned_worker() == Some(WorkerId::new(1)))
            .unwrap()
            .id();
        assert!(shards[0].activate_into(foreign, at(1), &mut sink).is_err());
    }

    #[test]
    fn process_into_drives_the_full_cycle() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let shard = &mut shards[0];
        let mut sink = ActionSink::new();
        shard.start_into(Instant::ZERO, &mut sink).unwrap();
        let first = shard.running().unwrap().job;
        sink.clear();
        shard
            .process_into(
                ShardCmd::JobCompleted {
                    worker: shard.worker(),
                    job: first.id,
                    at: at(2),
                },
                &mut sink,
            )
            .unwrap();
        assert_eq!(sink.len(), 1, "next own task dispatches");
        sink.clear();
        shard
            .process_into(ShardCmd::Tick { at: at(10) }, &mut sink)
            .unwrap();
        assert_eq!(shard.stats().released, 3, "period-10 task re-released");
        shard.process_into(ShardCmd::Stop, &mut sink).unwrap();
        sink.clear();
        shard
            .process_into(ShardCmd::Tick { at: at(20) }, &mut sink)
            .unwrap();
        assert_eq!(shard.stats().released, 3, "no releases after stop");
        assert_eq!(ShardCmd::Stop.at(), None);
        assert_eq!(ShardCmd::Tick { at: at(20) }.at(), Some(at(20)));
    }

    #[test]
    fn batched_completion_matches_sequential_on_a_shard() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let shard = &mut shards[0];
        let mut sink = ActionSink::new();
        shard.start_into(Instant::ZERO, &mut sink).unwrap();
        let first = shard.running().unwrap().job.id;
        sink.clear();
        shard
            .on_jobs_completed_into(&[(shard.worker(), first)], at(2), &mut sink)
            .unwrap();
        assert_eq!(sink.len(), 1, "next own task dispatches from the batch");
        // A batch naming a foreign worker is a protocol error.
        let second = shard.running().unwrap().job.id;
        assert!(shard
            .on_jobs_completed_into(&[(WorkerId::new(1), second)], at(3), &mut sink)
            .is_err());
    }

    /// src (periodic, worker 0) -> dst (graph node, worker 1).
    fn cross_shard_pipeline() -> (Arc<TaskSet>, TaskId, TaskId) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
            .unwrap();
        b.version_decl(src, VersionSpec::new("s", ms(1))).unwrap();
        b.version_decl(dst, VersionSpec::new("d", ms(1))).unwrap();
        let c = b.channel_decl("c", 1, 1);
        b.channel_connect(src, dst, c).unwrap();
        (Arc::new(b.build().unwrap()), src, dst)
    }

    #[test]
    fn cross_shard_edge_routes_through_the_outbox() {
        let (ts, src, dst) = cross_shard_pipeline();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        shards[1].start_into(Instant::ZERO, &mut sink).unwrap();
        assert_eq!(sink.len(), 1, "only src dispatches at start");
        let s = shards[0].running().unwrap().job.id;
        sink.clear();
        shards[0]
            .on_job_completed_into(WorkerId::new(0), s, at(1), &mut sink)
            .unwrap();
        assert!(
            !sink
                .as_slice()
                .iter()
                .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == dst)),
            "the successor must not fire on the src shard"
        );
        assert!(shards[0].has_outbox());
        let mut outbox = Vec::new();
        shards[0].drain_outbox_into(&mut outbox);
        assert!(!shards[0].has_outbox(), "outbox drained");
        assert_eq!(outbox.len(), 1);
        let ra = outbox[0];
        assert_eq!(ra.worker, WorkerId::new(1));
        assert_eq!(ra.graph_release, Instant::ZERO);
        assert_eq!(ts.edges()[ra.edge as usize].src, src);
        assert_eq!(shards[0].stats().cross_activations, 1);

        // Route it (what a driver does) via the ShardCmd path.
        sink.clear();
        shards[1]
            .process_into(
                ShardCmd::CrossActivate {
                    edge: ra.edge,
                    graph_release: ra.graph_release,
                    at: at(1),
                },
                &mut sink,
            )
            .unwrap();
        match sink.as_slice()[0] {
            Action::Dispatch { worker, job, .. } => {
                assert_eq!(worker, WorkerId::new(1));
                assert_eq!(job.task, dst);
                assert_eq!(
                    job.graph_release,
                    Instant::ZERO,
                    "join inherits the root release"
                );
            }
            other => panic!("{other:?}"),
        }
        // Routing it to the wrong shard is a protocol error.
        assert!(shards[0]
            .on_remote_token(ra.edge, ra.graph_release, at(1), &mut sink)
            .is_err());
        assert!(shards[1]
            .on_remote_token(999, ra.graph_release, at(1), &mut sink)
            .is_err());
    }

    #[test]
    fn steal_cycle_moves_a_ready_job_to_the_thief() {
        // Both tasks live on worker 0; worker 1's shard is idle.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for name in ["a0", "a1"] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(10)).on_worker(WorkerId::new(0)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(2))).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        shards[1].start_into(Instant::ZERO, &mut sink).unwrap();
        assert!(shards[1].is_idle());
        assert_eq!(
            shards[0].ready_len(),
            1,
            "one job queued behind the running one"
        );

        let hint = shards[0].try_steal().expect("victim has a stealable job");
        let job = shards[0].release_stolen(hint).expect("hint is fresh");
        assert_eq!(shards[0].ready_len(), 0);
        assert_eq!(shards[0].stats().donated, 1);

        sink.clear();
        shards[1].adopt_stolen(job, at(1), &mut sink).unwrap();
        match sink.as_slice()[0] {
            Action::Dispatch { worker, job: j, .. } => {
                assert_eq!(worker, WorkerId::new(1), "thief reports its global id");
                assert_eq!(j.id, job.id);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(shards[1].stats().stolen, 1);
        // The stolen job completes on the thief like any local job.
        sink.clear();
        shards[1]
            .on_job_completed_into(WorkerId::new(1), job.id, at(2), &mut sink)
            .unwrap();
        assert_eq!(shards[1].stats().completed, 1);
        // A stale hint (already released) yields nothing.
        assert!(shards[0].release_stolen(hint).is_none());
        // Adopting a job the shard already owns is a protocol error.
        let own = Job {
            task: job.task,
            ..job
        };
        assert!(shards[0].adopt_stolen(own, at(2), &mut sink).is_err());
        // StealRequest must be answered by the driver, not process_into.
        assert!(shards[0]
            .process_into(
                ShardCmd::StealRequest {
                    thief: WorkerId::new(1),
                    at: at(2),
                },
                &mut sink,
            )
            .is_err());
        // StealDeny is a no-op.
        shards[1]
            .process_into(ShardCmd::StealDeny { at: at(2) }, &mut sink)
            .unwrap();
    }

    #[test]
    fn stolen_job_charges_the_thief_shard_tenant_replica() {
        // Base: one task per worker, so both shards build and start.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for (name, w) in [("base0", 0), ("base1", 1)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(WorkerId::new(w)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(1))).unwrap();
        }
        let live = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&live, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        shards[1].start_into(Instant::ZERO, &mut sink).unwrap();

        // Guest tenant: two tasks on worker 0, budgeted. Every shard
        // splices its own server replica.
        let mut g = yasmin_core::graph::TaskSetBuilder::new();
        for name in ["g0", "g1"] {
            let t = g
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(WorkerId::new(0)))
                .unwrap();
            g.version_decl(t, VersionSpec::new(name, ms(4))).unwrap();
        }
        let merged = Arc::new(live.extended(&g.build().unwrap()).unwrap());
        // Capacity covers one guest WCET (4ms) but not two: the second
        // stolen job must defer on the thief's replica.
        let budget = crate::server::TenantBudget::deferrable(ms(6), ms(40));
        let tenant = shards[0]
            .admit_tasks(Arc::clone(&merged), Some(budget), Instant::ZERO)
            .unwrap();
        assert_eq!(
            shards[1]
                .admit_tasks(merged, Some(budget), Instant::ZERO)
                .unwrap(),
            tenant
        );
        sink.clear();
        for s in shards.iter_mut() {
            s.commit_tenant_into(tenant, Instant::ZERO, &mut sink)
                .unwrap();
        }
        // Worker 0 runs base0; both guest jobs queue behind it. Worker 1
        // finishes base1 and goes idle — the steal scenario.
        assert_eq!(shards[0].ready_len(), 2);
        let b1 = shards[1].running().expect("base1 runs").job.id;
        sink.clear();
        shards[1]
            .on_job_completed_into(WorkerId::new(1), b1, at(1), &mut sink)
            .unwrap();
        assert!(shards[1].is_idle());

        let hint = shards[0].try_steal().expect("guest job is stealable");
        let job = shards[0].release_stolen(hint).expect("hint is fresh");
        sink.clear();
        shards[1].adopt_stolen(job, at(1), &mut sink).unwrap();
        assert!(
            matches!(sink.as_slice()[0], Action::Dispatch { job: j, .. } if j.id == job.id),
            "{:?}",
            sink.as_slice()
        );

        // The dispatch charged the *thief's* replica with the guest
        // version's WCET; the victim's replica is untouched (its guest
        // job is still queued behind base0).
        let thief = shards[1].tenant_server(tenant).expect("replica spliced");
        assert_eq!(thief.total_charged(), ms(4));
        let victim = shards[0].tenant_server(tenant).expect("replica spliced");
        assert_eq!(victim.total_charged(), Duration::ZERO);

        // Steal the second guest job too. Migrating cannot mint budget:
        // once the first job completes, the thief's replica (2ms left)
        // refuses the 4ms charge and the job defers instead of running.
        let hint2 = shards[0].try_steal().expect("second guest job queued");
        let job2 = shards[0].release_stolen(hint2).expect("hint is fresh");
        sink.clear();
        shards[1].adopt_stolen(job2, at(2), &mut sink).unwrap();
        shards[1]
            .on_job_completed_into(WorkerId::new(1), job.id, at(5), &mut sink)
            .unwrap();
        assert!(
            shards[1].running().is_none(),
            "deferred job must not dispatch"
        );
        assert_eq!(shards[1].ready_len(), 1, "it stays queued instead");
        assert!(shards[1].stats().budget_deferrals >= 1);
        assert_eq!(
            shards[1]
                .tenant_server(tenant)
                .expect("replica spliced")
                .total_charged(),
            ms(4),
            "no charge beyond the replica's capacity"
        );
    }

    #[test]
    fn accel_bound_tasks_are_never_hinted_for_stealing() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        for (name, accel) in [("plain", false), ("gpu0", true), ("gpu1", true)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(10)).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = VersionSpec::new(name, ms(1));
            let v = if accel { v.with_accel(gpu) } else { v };
            b.version_decl(t, v).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        // EDF ties break by release then id: the running job is "plain",
        // the queue holds gpu0 then gpu1 — both accelerator-bound.
        assert_eq!(shards[0].ready_len(), 2);
        assert!(
            shards[0].try_steal().is_none(),
            "accelerator-bound jobs never migrate"
        );
    }

    #[test]
    fn batch_steal_cycle_moves_k_jobs_in_one_exchange() {
        // Five tasks on worker 0: one runs, four queue — all stealable.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for i in 0..5u64 {
            let t = b
                .task_decl(
                    TaskSpec::periodic(format!("a{i}"), ms(10 * (i + 1)))
                        .on_worker(WorkerId::new(0)),
                )
                .unwrap();
            b.version_decl(t, VersionSpec::new(format!("a{i}"), ms(1)))
                .unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        shards[1].start_into(Instant::ZERO, &mut sink).unwrap();
        assert_eq!(shards[0].ready_len(), 4);
        assert!(shards[1].is_idle());

        // Probe for up to 8: the victim offers all four ready jobs, most
        // urgent first (EDF: ascending deadline).
        let mut hints = Vec::new();
        assert_eq!(shards[0].try_steal_batch(8, &mut hints), 4);
        assert!(
            hints.windows(2).all(|w| w[0].priority <= w[1].priority),
            "hints come in ascending key order"
        );
        // A smaller k takes a prefix.
        let mut two = Vec::new();
        assert_eq!(shards[0].try_steal_batch(2, &mut two), 2);
        assert_eq!(&hints[..2], &two[..]);

        // The probe detached nothing: the queue is intact.
        assert_eq!(shards[0].ready_len(), 4);

        let mut batch = crate::job::JobBatch::new();
        assert_eq!(shards[0].release_stolen_batch(&hints, &mut batch), 4);
        assert_eq!(shards[0].ready_len(), 0);
        assert_eq!(shards[0].stats().donated, 4);
        // Re-releasing the same hints finds them all stale.
        let mut empty = crate::job::JobBatch::new();
        assert_eq!(shards[0].release_stolen_batch(&hints, &mut empty), 0);

        // One StolenBatch ack lands all four on the thief.
        sink.clear();
        shards[1]
            .process_into(
                ShardCmd::StolenBatch {
                    jobs: batch,
                    at: at(1),
                },
                &mut sink,
            )
            .unwrap();
        let dispatches = sink
            .as_slice()
            .iter()
            .filter(|a| matches!(a, Action::Dispatch { .. }))
            .count();
        assert_eq!(dispatches, 1, "one dispatch round for the whole batch");
        assert_eq!(shards[1].stats().stolen, 4);
        assert_eq!(shards[1].stats().stolen_batch, 1);
        assert_eq!(shards[1].stats().steal_batch_len[3], 1, "len-4 bucket");
        assert_eq!(shards[1].ready_len(), 3);
        match sink.as_slice()[0] {
            Action::Dispatch { worker, job, .. } => {
                assert_eq!(worker, WorkerId::new(1), "thief reports its global id");
                assert_eq!(job.id, batch.as_slice()[0].id, "most urgent runs first");
            }
            other => panic!("{other:?}"),
        }

        // Migrate-at-most-once: the thief never re-offers adopted jobs.
        let mut again = Vec::new();
        assert_eq!(shards[1].try_steal_batch(8, &mut again), 0);
        assert!(shards[1].try_steal().is_none());

        // A batch containing a job the shard already owns is rejected
        // whole — nothing enqueued.
        let own = batch.as_slice()[1];
        assert!(shards[0]
            .adopt_stolen_batch(&[own], at(2), &mut sink)
            .is_err());
        assert_eq!(shards[0].stats().stolen, 0);
        // An empty batch is a no-op, not an error.
        shards[1].adopt_stolen_batch(&[], at(2), &mut sink).unwrap();
        assert_eq!(shards[1].stats().stolen_batch, 1);
    }

    #[test]
    fn batch_scan_stops_at_the_first_non_stealable_job() {
        // EDF order on worker 0's queue: p1 (deadline 20) < gpu (40) <
        // p2 (80). The scan must offer p1 and stop at gpu — it may not
        // skip over the pinned job to reach p2.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        for (name, period, accel) in [
            ("p0", 10, false),
            ("p1", 20, false),
            ("g", 40, true),
            ("p2", 80, false),
        ] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(period)).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = VersionSpec::new(name, ms(1));
            let v = if accel { v.with_accel(gpu) } else { v };
            b.version_decl(t, v).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        assert_eq!(shards[0].ready_len(), 3, "p0 runs; p1, g, p2 queue");
        let mut hints = Vec::new();
        assert_eq!(shards[0].try_steal_batch(8, &mut hints), 1);
        assert_eq!(ts.tasks()[hints[0].task.index()].spec().name(), "p1");
    }

    #[test]
    fn stolen_batch_charges_the_thief_replica_like_single_steals() {
        // Same scenario as stolen_job_charges_the_thief_shard_tenant_replica,
        // but both guest jobs migrate in ONE batch exchange: budgets must
        // still charge the thief's replica per-dispatch, not per-adopt.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for (name, w) in [("base0", 0), ("base1", 1)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(WorkerId::new(w)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(1))).unwrap();
        }
        let live = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&live, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0].start_into(Instant::ZERO, &mut sink).unwrap();
        shards[1].start_into(Instant::ZERO, &mut sink).unwrap();

        let mut g = yasmin_core::graph::TaskSetBuilder::new();
        for name in ["g0", "g1"] {
            let t = g
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(WorkerId::new(0)))
                .unwrap();
            g.version_decl(t, VersionSpec::new(name, ms(4))).unwrap();
        }
        let merged = Arc::new(live.extended(&g.build().unwrap()).unwrap());
        let budget = crate::server::TenantBudget::deferrable(ms(6), ms(40));
        let tenant = shards[0]
            .admit_tasks(Arc::clone(&merged), Some(budget), Instant::ZERO)
            .unwrap();
        shards[1]
            .admit_tasks(merged, Some(budget), Instant::ZERO)
            .unwrap();
        sink.clear();
        for s in shards.iter_mut() {
            s.commit_tenant_into(tenant, Instant::ZERO, &mut sink)
                .unwrap();
        }
        let b1 = shards[1].running().expect("base1 runs").job.id;
        sink.clear();
        shards[1]
            .on_job_completed_into(WorkerId::new(1), b1, at(1), &mut sink)
            .unwrap();
        assert!(shards[1].is_idle());

        // Both guest jobs leave in one exchange.
        let mut hints = Vec::new();
        assert_eq!(shards[0].try_steal_batch(8, &mut hints), 2);
        let mut batch = crate::job::JobBatch::new();
        assert_eq!(shards[0].release_stolen_batch(&hints, &mut batch), 2);
        sink.clear();
        shards[1]
            .adopt_stolen_batch(batch.as_slice(), at(1), &mut sink)
            .unwrap();

        // The single dispatch charged one WCET on the thief; adoption of
        // the still-queued second job charged nothing.
        let thief = shards[1].tenant_server(tenant).expect("replica spliced");
        assert_eq!(thief.total_charged(), ms(4));
        let victim = shards[0].tenant_server(tenant).expect("replica spliced");
        assert_eq!(victim.total_charged(), Duration::ZERO);

        // When the first stolen job completes, the replica (2ms left)
        // refuses the second 4ms charge: defer, never mint budget by
        // migrating.
        let first = batch.as_slice()[0].id;
        sink.clear();
        shards[1]
            .on_job_completed_into(WorkerId::new(1), first, at(5), &mut sink)
            .unwrap();
        assert!(shards[1].running().is_none(), "deferred, not dispatched");
        assert_eq!(shards[1].ready_len(), 1);
        assert!(shards[1].stats().budget_deferrals >= 1);
        assert_eq!(
            shards[1]
                .tenant_server(tenant)
                .expect("replica spliced")
                .total_charged(),
            ms(4)
        );
    }

    #[test]
    fn advance_into_matches_separate_completion_and_tick_rounds() {
        let ts = two_worker_set();
        let mut split = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut fused = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink_a = ActionSink::new();
        let mut sink_b = ActionSink::new();
        split[0].start_into(Instant::ZERO, &mut sink_a).unwrap();
        fused[0].start_into(Instant::ZERO, &mut sink_b).unwrap();
        for tick in 1..=6u64 {
            let done_a = split[0].running().map(|r| (split[0].worker(), r.job.id));
            let done_b = fused[0].running().map(|r| (fused[0].worker(), r.job.id));
            assert_eq!(done_a.map(|d| d.1), done_b.map(|d| d.1));
            let now = at(tick * 10);
            sink_a.clear();
            if let Some(d) = done_a {
                split[0]
                    .on_jobs_completed_into(&[d], now, &mut sink_a)
                    .unwrap();
            }
            split[0].on_tick_into(now, &mut sink_a);
            sink_b.clear();
            let batch: Vec<_> = done_b.into_iter().collect();
            fused[0].advance_into(&batch, now, &mut sink_b).unwrap();
            // The fused round may merge two dispatch rounds into one,
            // but the dispatched jobs and engine counters must agree.
            // (`max_ready` legitimately differs: the fused round sees
            // fresh releases queued before the first pop.)
            let mut sa = split[0].stats().clone();
            let mut sb = fused[0].stats().clone();
            sa.max_ready = 0;
            sb.max_ready = 0;
            assert_eq!(sa, sb, "tick {tick}");
            assert_eq!(
                split[0].running().map(|r| r.job.id),
                fused[0].running().map(|r| r.job.id)
            );
        }
    }

    #[test]
    fn cross_shard_accelerator_rejected() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        for w in 0..2u16 {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{w}"), ms(10)).on_worker(WorkerId::new(w)))
                .unwrap();
            b.version_decl(t, VersionSpec::new("g", ms(1)).with_accel(gpu))
                .unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let err = EngineShard::build_all(&ts, &partitioned_config(2));
        assert!(matches!(err, Err(Error::InvalidConfig(msg)) if msg.contains("accelerator")));
    }

    #[test]
    fn intra_shard_dag_fires_locally() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let w = WorkerId::new(1);
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(10)).on_worker(w))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(w))
            .unwrap();
        b.version_decl(src, VersionSpec::new("s", ms(1))).unwrap();
        b.version_decl(dst, VersionSpec::new("d", ms(1))).unwrap();
        let c = b.channel_decl("c", 1, 1);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let shard = &mut shards[1];
        let mut sink = ActionSink::new();
        shard.start_into(Instant::ZERO, &mut sink).unwrap();
        let s = shard.running().unwrap().job.id;
        sink.clear();
        shard.on_job_completed_into(w, s, at(1), &mut sink).unwrap();
        assert!(
            sink.as_slice()
                .iter()
                .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == dst)),
            "successor fires inside the shard: {:?}",
            sink.as_slice()
        );
        // Shard 0 owns nothing: starting it dispatches nothing.
        let mut empty_sink = ActionSink::new();
        shards[0]
            .start_into(Instant::ZERO, &mut empty_sink)
            .unwrap();
        assert!(empty_sink.is_empty());
        assert!(shards[0].is_idle());
        assert!(shards[0].peek_hint().is_none());
    }

    #[test]
    fn shard_matches_single_owner_dispatch_order() {
        // The load-bearing equivalence: per worker, the shard emits the
        // same (task, seq, version) dispatch sequence as the single-owner
        // partitioned engine driven identically.
        let ts = two_worker_set();
        let sharded_cfg = partitioned_config(2);
        let single_cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let mut single = OnlineEngine::new(Arc::clone(&ts), single_cfg).unwrap();
        let mut shards = EngineShard::build_all(&ts, &sharded_cfg).unwrap();

        // Drive both for 8 ticks, completing everything mid-tick.
        let mut single_log: Vec<(u16, u32, u64)> = Vec::new();
        let mut shard_log: Vec<(u16, u32, u64)> = Vec::new();
        let log_actions = |log: &mut Vec<(u16, u32, u64)>, actions: &[Action]| {
            for a in actions {
                if let Action::Dispatch { worker, job, .. } = a {
                    log.push((worker.raw(), job.task.raw(), job.seq));
                }
            }
        };
        let mut sink = ActionSink::new();
        single.start_into(Instant::ZERO, &mut sink).unwrap();
        log_actions(&mut single_log, sink.as_slice());
        for shard in &mut shards {
            sink.clear();
            shard.start_into(Instant::ZERO, &mut sink).unwrap();
            log_actions(&mut shard_log, sink.as_slice());
        }
        for tick in 1..=8u64 {
            let mid = at(tick * 10 - 5);
            for w in 0..2u16 {
                let worker = WorkerId::new(w);
                if let Some(r) = single.running(worker) {
                    let id = r.job.id;
                    sink.clear();
                    single
                        .on_job_completed_into(worker, id, mid, &mut sink)
                        .unwrap();
                    log_actions(&mut single_log, sink.as_slice());
                }
                if let Some(r) = shards[w as usize].running() {
                    let id = r.job.id;
                    sink.clear();
                    shards[w as usize]
                        .on_job_completed_into(worker, id, mid, &mut sink)
                        .unwrap();
                    log_actions(&mut shard_log, sink.as_slice());
                }
            }
            sink.clear();
            single.on_tick_into(at(tick * 10), &mut sink);
            log_actions(&mut single_log, sink.as_slice());
            for shard in &mut shards {
                sink.clear();
                shard.on_tick_into(at(tick * 10), &mut sink);
                log_actions(&mut shard_log, sink.as_slice());
            }
        }
        // Compare per-worker subsequences (global interleaving across
        // workers is driver-defined, not engine-defined).
        for w in 0..2u16 {
            let s: Vec<_> = single_log.iter().filter(|e| e.0 == w).collect();
            let p: Vec<_> = shard_log.iter().filter(|e| e.0 == w).collect();
            assert_eq!(s, p, "worker {w} dispatch sequence diverged");
        }
        let mut merged = EngineStats::default();
        for shard in &shards {
            merged.merge(shard.stats());
        }
        assert_eq!(merged.released, single.stats().released);
        assert_eq!(merged.dispatched, single.stats().dispatched);
        assert_eq!(merged.completed, single.stats().completed);
    }
}
