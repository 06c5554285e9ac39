//! What a driver tells an engine: [`Input`], the one way to change an
//! [`OnlineEngine`] ([`OnlineEngine::apply`]).
//!
//! The paper drives its scheduler through a handful of events —
//! `yas_start`, the tick, `yas_task_activate`, a completion and
//! `yas_stop` (§3). An engine here is told those, and what sharding,
//! work stealing, the message plane and admission add: one variant
//! each. Whether a dispatch round follows is one rule, stated once in
//! `apply`: always after [`Input::Start`], [`Input::Tick`] and
//! [`Input::Kept`], and after [`Input::Activate`] once the engine
//! accepts it; after [`Input::Completed`], [`Input::Failed`],
//! [`Input::Token`], [`Input::Home`], [`Input::Msg`] and
//! [`Input::Adopt`] only when the input changed something; never after
//! the others. An input is built on the caller's stack and borrowed.

use crate::engine::{Continuation, CycleMark, HomeNote, RemoteActivation};
use crate::job::Job;
use crate::msg::MsgEvent;
use crate::server::TenantBudget;
use std::sync::Arc;
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{JobId, TaskId, TenantId, WorkerId};
use yasmin_core::time::Instant;
use yasmin_core::version::{ExecMode, PermMask};

#[cfg(doc)]
use crate::engine::{Action, EngineStats, OnlineEngine, RunningJob};
#[cfg(doc)]
use crate::job::MAX_STEAL_BATCH;
#[cfg(doc)]
use yasmin_core::error::Error;
#[cfg(doc)]
use yasmin_core::task::OverrunPolicy;

/// One thing an engine is told, at the instant [`OnlineEngine::apply`]
/// is given. The actions it leads to are appended to the caller's sink.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// Starts the schedule (the paper's `yas_start`): arms the periodic
    /// release bookkeeping and performs the first release round.
    ///
    /// # Errors
    ///
    /// [`Error::ScheduleRunning`] if already started.
    Start,
    /// One scheduler-thread activation: retires every `(worker, job)`
    /// of `done` as [`Input::Completed`] does, then releases every
    /// periodic job due, applies overrun enforcement and deadline
    /// culling where configured, and runs a **single** dispatch round
    /// for all of it. A wake that finds completions *and* a due tick
    /// so pays one round, which sees the freed workers and the fresh
    /// releases together; a bare tick passes `&[]`. With a warmed-up
    /// sink this path performs no heap allocation in steady state.
    ///
    /// # Errors
    ///
    /// As [`Input::Completed`]; on an error the valid prefix is retired
    /// and the tick still runs, so the engine stays consistent.
    Tick {
        /// The completions to retire first.
        done: &'a [(WorkerId, JobId)],
    },
    /// Batched completion hand-back: retires **every** `(worker, job)`
    /// pair — freeing the workers and any held accelerators, firing DAG
    /// successors — and only then runs a *single* dispatch round, when
    /// at least one retired. When completions arrive in bursts (a
    /// mailbox drain finding several pending, the simulator retiring
    /// same-timestamp finishes), the round is paid once and sees the
    /// whole burst's released successors before placing jobs on
    /// workers.
    ///
    /// A completion fires its successors unless the job was killed
    /// ([`OverrunPolicy::Kill`]), and feeds the miss trip wire when
    /// past its absolute deadline.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorker`] / [`Error::InvalidConfig`] on the first
    /// entry violating the completion protocol (a worker not running
    /// that job). Entries before the offending one are already retired
    /// and are dispatched for; entries after it are untouched.
    Completed(&'a [(WorkerId, JobId)]),
    /// The job's body *failed* on the worker (a contained panic): frees
    /// the worker and any held accelerator, counts the failure in
    /// [`EngineStats::failed`], feeds the miss trip wire, and lets the
    /// task's [`OverrunPolicy`] decide the successor tokens — `LogOnly`
    /// fires them (downstream stages still run, presumably on stale
    /// data the application tolerates), `Kill` and
    /// `DemoteToBackground` drop them (the containment boundary).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the worker is not running the job —
    /// a driver protocol violation.
    Failed(WorkerId, JobId),
    /// Explicit activation (the paper's `yas_task_activate`): sporadic
    /// arrivals and user-triggered aperiodic jobs.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`]; [`Error::TenantRetired`] for a task of a
    /// free slot; [`Error::InvalidConfig`] for periodic tasks (those
    /// are released by the scheduler itself) and for a task another
    /// shard owns.
    Activate(TaskId),
    /// Deterministic fault injection: treats the running job of the
    /// task (if any, and not already flagged) as overrunning *right
    /// now*, regardless of its enforcement deadline or whether
    /// enforcement is enabled; a flagged job counts in
    /// [`EngineStats::overruns`]. The simulator's `fault_schedule`
    /// drives this so overrun behaviour is replayable bit for bit.
    Overrun(TaskId),
    /// A DAG token routed from a foreign shard (the receiving half of
    /// a cross-shard edge), as that shard's outbox left it: books the
    /// token on its edge and releases the destination if its join is
    /// complete. A token of a retired tenant, or of a slot's former
    /// holder, is dropped.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the edge is out of range or this
    /// engine does not own the edge's destination — driver routing
    /// bugs, not runtime conditions.
    Token(RemoteActivation),
    /// The end of an instance that migrated from this shard is home
    /// ([`HomeNote`]): the task's next instance may now be dispatched,
    /// shelved or kept, and when a dispatch attempt held one back
    /// meanwhile, a dispatch round runs for it. The end of a former
    /// holder's instance changes nothing.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] for an out-of-range task and
    /// [`Error::InvalidConfig`] when this engine is not the task's home
    /// — driver routing bugs.
    Home(HomeNote),
    /// A message-plane event for its receiving task, [`MsgEvent::dst`].
    ///
    /// From a [`MsgEvent::HighPosted`] until one
    /// [`MsgEvent::HighDrained`] per post has arrived (depth counting),
    /// the task has an active ceiling, the most urgent one posted
    /// meanwhile: a term of the fold ([`RunningJob::effective_priority`])
    /// for every job of the task, queued or running, jobs released
    /// meanwhile included. A dispatch round runs after every post, so
    /// under preemptive configs a boosted pending job preempts
    /// immediately, and after the drain that releases the boost; a
    /// drain that leaves the boost in place runs none.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] for an out-of-range task, or
    /// [`Error::InvalidConfig`] when a shard engine receives an event
    /// for a task it does not own — driver routing bugs, not runtime
    /// conditions. Events for retired-tenant tasks are silently
    /// dropped. Draining an empty lane is a protocol error in debug
    /// builds and a no-op in release.
    Msg(MsgEvent),
    /// Detaches up to `k` ready jobs for a thief (victim side of a
    /// steal), at most [`MAX_STEAL_BATCH`]: one [`Action::Lend`] each,
    /// most urgent first, each counted in [`EngineStats::donated`] and
    /// in flight until its end is home ([`Input::Home`]). The scan
    /// walks the ready queue in key order and **stops at the first job
    /// that must not migrate** (see [`OnlineEngine::steal_hint`]) or
    /// whose task has an instance in flight: a thief never takes less
    /// urgent work while skipping over more urgent work that must stay.
    /// Shard engines only; nothing on the single-owner engine.
    Lend {
        /// The most jobs to detach.
        k: usize,
    },
    /// Takes back what [`Input::Lend`] detached and no thief took after
    /// all (victim side, the inverse of the lend): each job re-enters
    /// the ready queue, is no longer in flight and no longer counts in
    /// [`EngineStats::donated`]. The queue key `(priority, release,
    /// id)` is a total order, so the queue then pops exactly as if the
    /// jobs had never left it. Between the two inputs the caller gave
    /// the engine no other, so the slots the lend vacated are still
    /// free; a caller that did and filled them loses the job to
    /// `stats.channel_overflows`, like every queue overflow.
    Returned(&'a [Job]),
    /// Adopts a stolen batch (thief side): every job enters this
    /// shard's ready queue — keeping EDF order against local work —
    /// then **one** dispatch round runs for the batch, which is the
    /// point of batching: k migrations pay one protocol exchange and
    /// one dispatch round instead of k of each. The dispatch reports
    /// the thief's **global** [`WorkerId`]; completion is handed back
    /// to *this* shard like any local job, and DAG successors are
    /// routed by destination ownership (outbox for foreign
    /// destinations). Each job charges *this* shard's replica of its
    /// tenant's reservation at dispatch, not at adoption.
    ///
    /// Books one exchange in [`EngineStats::stolen_batch`] and the
    /// batch length in the [`EngineStats::steal_batch_len`] histogram —
    /// a batch of one included; each job also counts in
    /// [`EngineStats::stolen`]. An empty batch changes nothing.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on a non-shard engine or when any job
    /// belongs to this very shard (nothing was stolen) — protocol
    /// violations, checked before any job is enqueued. A *full* local
    /// queue is not an error: like every release-path overflow it is a
    /// sizing condition — overflowing jobs are dropped and counted in
    /// `stats.channel_overflows` rather than panicking a scheduler
    /// thread mid-handshake.
    Adopt(&'a [Job]),
    /// The instances a peer may keep while this shard is inside a body
    /// (shard side of work-first continuation), one [`Action::Offer`]
    /// each: one per task of the built-in tenant homed here with one
    /// input and no accelerator-bound version, no instance queued or in
    /// flight — the one-instance contract — and a predecessor that may
    /// end elsewhere meanwhile: homed there, in flight from here, or
    /// offered itself, so a peer that keeps it keeps the chain. Each
    /// gets the `seq` of the task's next release and an id reserved
    /// from this shard's, in task order; an offer nobody takes costs
    /// the id. Between this input and the booking of what was kept
    /// ([`Input::Booked`]) the caller gives the engine no other.
    Offer,
    /// A peer kept the offered instance (home side): booked as released
    /// here and donated, in flight until its end is home, and the
    /// task's next release gets the `seq` after it.
    Booked(Continuation),
    /// Adopts the offered instance of a peer's task that this shard
    /// kept for the token, which it produced and routes no more
    /// (completer side; [`OnlineEngine::keepable`] names the task): the
    /// job its home would have released — the continuation's id and
    /// seq, the token's graph release, its deadline, keyed by the fold
    /// — queued here as a migrated job and counted in
    /// [`EngineStats::stolen`]. Its end goes home like a stolen job's
    /// ([`HomeNote`]).
    Kept(RemoteActivation, Continuation),
    /// Installs an admitted tenant in the live engine — phase one of
    /// the two-phase admission described in `yasmin_sched::admission`.
    ///
    /// `merged` is this engine's task set with the tenant written into
    /// the slot that starts at task `first_task` ([`TaskSet::placed`]):
    /// at the set's end ([`TaskSet::end_slot`]), where the tenant is
    /// appended and every table grows the way construction adds
    /// tenant 0 — both are one table builder — or at a slot whose
    /// holder was retired, which the tenant takes over in place: that
    /// slot's per-task and per-edge entries, version rankings and token
    /// FIFOs are overwritten and keep their storage, so installing a
    /// tenant of a free slot's shape allocates nothing. Either way only
    /// the installed range is read, every other id is unchanged, and
    /// the tenant's releases are **disarmed**: the engine knows its
    /// tasks and edges (so cross-shard tokens for them resolve) but
    /// releases nothing of it until [`Input::Commit`].
    ///
    /// **Stragglers** — a former holder's jobs and tokens, still in
    /// flight when the slot's new holder is installed — are told apart
    /// from the holder's as [`crate::tenancy`] states.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `tenant` is not new, `merged` shrinks
    /// the current set, `first_task` starts neither its end nor a free
    /// slot, the installed range adds no tasks, changes the set's
    /// length in a slot, has an edge leaving it, or has a recurring
    /// period that is not a multiple of the engine tick (admitted
    /// tenants cannot re-derive the tick of a running scheduler);
    /// [`Error::MissingPartition`] / [`Error::UnknownWorker`] for
    /// partition violations.
    Install {
        /// The task set with the tenant in its slot.
        merged: &'a Arc<TaskSet>,
        /// The tenant's id, newer than every tenant installed so far.
        tenant: TenantId,
        /// The first task of its slot.
        first_task: u32,
        /// Its budget, if any: a reservation server anchored at the
        /// instant of the install serves the slot until the tenant is
        /// retired.
        budget: Option<TenantBudget>,
    },
    /// Arms an installed tenant's releases — phase two of admission:
    /// every periodic root the engine owns gets its first release at
    /// `anchor + release_offset`, and nothing is released here — the
    /// next round at or past them does. An exact event-driven driver
    /// (the simulator) anchors at the commit instant and follows with a
    /// bare [`Input::Tick`] there, so zero-offset tenants start at the
    /// commit instant.
    ///
    /// A driver dispatching on a fixed tick grid (the thread runtimes)
    /// passes its **next tick edge** as `anchor` and leaves the release
    /// to that edge's tick round: the tenant's release train then
    /// coincides with dispatch edges, so admitted jobs start at their
    /// nominal releases and the admitted deadlines hold exactly as
    /// analysed, and an input applied between the commit and that
    /// round (a retirement queued behind the admission) is in force
    /// before anything is released. Anchoring at an off-grid instant
    /// instead would delay every dispatch of the tenant by the phase
    /// difference — up to one full tick, enough to sink a deadline
    /// equal to the period.
    ///
    /// In a recycled slot the holder begins at `since`, and its
    /// releases anchor at the first `anchor + k·tick` at or past it: an
    /// instant no graph instance of a former holder was released at or
    /// after, and none of this one before — the commit instant of an
    /// exact driver; for a thread runtime, one taken after every owner
    /// retired the former holder and before this one can run, the same
    /// on every shard.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`], [`Error::TenantRetired`],
    /// [`Error::ScheduleNotRunning`] if the engine is not started, or
    /// [`Error::InvalidConfig`] for a double commit.
    Commit {
        /// The installed tenant.
        tenant: TenantId,
        /// Where its release train is anchored.
        anchor: Instant,
        /// Where its holding of a recycled slot begins.
        since: Instant,
    },
    /// Quiesces a tenant: disarms its future releases, culls its ready
    /// jobs (one [`Action::Cull`] each), drops its pending DAG tokens,
    /// and marks it retired so late activations and in-flight
    /// cross-shard tokens are refused or silently dropped. Jobs of the
    /// tenant already *running* are not interrupted — they complete
    /// normally (and are the last of the tenant to be accounted), they
    /// just no longer fire successors. Other tenants are untouched.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`]; [`Error::TenantRetired`] on a double
    /// retire; [`Error::InvalidConfig`] for tenant 0 (the built-in task
    /// set cannot be retired — stop the schedule instead).
    Retire(TenantId),
    /// Switches the execution mode (mode-based version selection, §3.2).
    Mode(ExecMode),
    /// Replaces the granted permission mask (permission-based
    /// selection).
    Permissions(PermMask),
    /// Stops releasing new periodic jobs; already-released jobs drain
    /// (the paper's `yas_stop`).
    Stop,
    /// Advances an engine standing at a recurrence point by `n` cycles
    /// of the schedule it ran since `since`, the previous one: every
    /// pending release, the job and activation counters and the
    /// additive [`EngineStats`] move as if the engine had been ticked
    /// through `n` more repetitions of that cycle (`max_ready` stays a
    /// maximum), so the next [`Input::Tick`] emits the jobs it would
    /// have then ([`OnlineEngine::recurrence_mark`]).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the engine is not at a recurrence
    /// point later than `since`, or `since` is not a mark of this
    /// engine.
    Skip {
        /// The mark one cycle back.
        since: &'a CycleMark,
        /// The cycles to skip.
        n: u64,
    },
}

// The event log's ring and a thread runtime's `ShardMsg` (at most 80
// bytes a slot) must be able to carry an input: hence a budget, not a
// 48-byte reservation server, in `Install`.
const _: () = assert!(std::mem::size_of::<Input<'static>>() <= 80);
