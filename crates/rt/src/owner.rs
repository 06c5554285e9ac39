//! The **owner** of an engine — the one scheduling thread per virtual
//! CPU (paper §3, Fig. 1b), **one thread per core** — as a step
//! machine, the thread that drives it, and what feeds it.
//!
//! An owner owns one engine: the whole [`OnlineEngine`] over worker
//! slots `0..n`, or — under `Config::sharded_dispatch`, where the
//! engine state splits into per-worker shards (`yasmin_sched::shard`) —
//! one shard's. [`Runtime`] is the handle on either; its builder's
//! configuration decides how many owners `spawn` brings up. The whole
//! protocol is `Owner`: `Owner::step` runs engine rounds until it
//! can say what its thread is to do next (`Next`) and never blocks,
//! sleeps or runs a body. `owner_thread` is the shell that does those
//! three things and nothing else; a second shell, in this module's
//! tests, steps the owners `wire` returns on one thread under a
//! `ManualClock` and checks the orders the sections below promise.
//!
//! **Who executes a body follows from the owner's slot count alone.**
//! An owner with *one* slot — every shard, and the whole engine with
//! one worker — is scheduler and worker at once: `step` answers
//! `Next::Run` and the thread runs that body itself, at no hand-off.
//! An owner with *n ≥ 2* slots is a dedicated scheduling thread and
//! **never** gets a `Run`: under global scheduling a worker that
//! finishes while the owner is inside someone's long body would idle
//! beside ready work. Its dispatches go to `n` helper threads
//! (`yasmin-worker-{w}`), each fed through a one-lane, one-slot mailbox
//! of its own (`yasmin_sync::mailbox`) and answering on a one-slot lane
//! of its owner's (`ShardMsg::Done`) — the engine books a slot again
//! only after retiring what ran there, so one job is all either holds.
//!
//! Everything else reaches an owner through its MPSC mailbox
//! (`yasmin_sync::mailbox`): **one shared lane** that every thread
//! without a lane of its own sends into — control commands, and the
//! message-plane events the channel notify hooks post for the tasks the
//! owner has — and **one lane per peer shard** for the cross-shard
//! protocol — routed DAG tokens (`Token`) — each sized by what
//! it carries (`wire`). Whatever names a task goes to that task's
//! owner, and to no other. Ticks are generated locally by each owner at
//! the shared gcd period.
//!
//! # The job boundary
//!
//! Both runtimes schedule **non-preemptively** (`preemption(false)`),
//! and between `Owner::begin_body` and `Owner::end_body` an owner
//! does nothing else. Whatever reaches it meanwhile waits for the
//! `step` after `end_body` — at most **one body** — and is applied
//! there in the order it happened: what the body posted, what arrived
//! while it ran, and only then its completion, so the round that
//! retires the body picks the most urgent of everything ready by then:
//!
//! * **Tick edges** the body ran across are handled by `end_body`, each
//!   at its nominal instant, in time order and *before* the completion
//!   retires: `enforce_wcet` and the miss trip find the overrunning job
//!   still in its slot. The releases are dispatched late by the rest of
//!   the body — the analysis' non-preemptive blocking term.
//! * **Thieves do not wait for it** (see "Work stealing").
//! * **`admit`**: an owner splices at its boundary. It adopts by `Arc`
//!   what the admitting thread made once for every owner — the merged
//!   set and the `BodyTable` — and never holds the last reference to
//!   the pair it lets go of: `Tenancy` keeps it, and on a caller's
//!   thread makes a later generation in it or drops it. With two shards or
//!   more every shard acknowledges before the commit is sent, so
//!   [`Runtime::admit`] returns after the longest body then in flight;
//!   one owner is sent one splice-and-commit command and nothing is
//!   waited for. `Commit`, `retire`, `activate`, `stop` and
//!   `Shutdown` take effect there too. A parked owner hears the
//!   tenant commands of one owner — `admit`'s and `retire`'s, sent
//!   quietly (`tenant_send`) — when its timed park ends at the next
//!   tick edge, and applies them ahead of that edge's tick round: the
//!   round the commit's releases are anchored at, rung or not.
//! * **Message-plane events for an owner's own tasks, from its own
//!   bodies.** A notify hook firing on the thread of the owner it posts
//!   to must not send into that owner's shared lane: only this thread
//!   drains it, so waiting for room would wait for itself. For the
//!   length of a body (`Owner::in_body`) the thread-local `LOCAL` holds
//!   the owner's mailbox and a queue the thread owns; the hook (`post`)
//!   appends to that queue — no lock, no bound — after moving what the
//!   shared lane holds behind what is queued. A post is emitted before
//!   its value is pushed and a drain after its value is popped, so
//!   queue-then-lane keeps a channel's events in order and a drain
//!   never overtakes its post.
//! * **Calls from a body.** `activate`, `retire`, `stop` and a post to
//!   another owner may wait: for room in a lane, or for the ledger lock
//!   of a caller that is itself waiting for room. Every such wait
//!   (`wait_for`) holds nothing and, inside a body, keeps moving that
//!   owner's mailbox into its own queue — so the room others wait for
//!   is always made, and two bodies can never wait on each other. An
//!   `admit` that waits for acknowledgements must not itself come from
//!   a body, whose own shard would never get there.
//!
//! An owner that feeds helpers is never inside a body: ticks, commands
//! and completions are handled as they arrive.
//!
//! # Wake-up protocol
//!
//! Every sleep here is a mailbox park (`MailboxReceiver::park`, the
//! paper's "sleep" waiting strategy, §3.5); there is no polling nap. A
//! helper with an empty mailbox parks on it; an owner that
//! `step` found nothing for gets `Next::Park`, whose `wake` names
//! everything that may end the park — `WakeSource` says, per source,
//! who rings and what the sleeper re-checks. No wake-up is lost because
//! both sides follow the bell's rule: the ringer publishes, fences,
//! then looks for a sleeper; the sleeper announces itself, fences, then
//! looks for work. A ring at an awake thread — one inside a body
//! included — costs one load. Under [`WaitChoice::Spin`] nobody parks.
//!
//! # The tick edge
//!
//! A timed park returns late, by an amount that spreads from one park
//! to the next and depends on the park before it: a long park ends
//! later, and spread wider, than a short one taken right after it
//! (docs/ARCHITECTURE.md, "What a timed park is", has the figures). And
//! the edge's tick round, run right after a park, takes µs of its own —
//! its data went cold while the thread slept — before the first body
//! can begin. So an owner that runs its own bodies runs the round
//! *ahead* of the edge, and every owner meets the point where the round
//! runs with two parks, each armed *early* by a lead learnt from the
//! parks of its own kind — `woke − armed` of those that ran into their
//! timeout (`Owner::woke`), the last 64, in one
//! `yasmin_sync::wait::TimerLead` per kind:
//!
//! * the **round lead** is the upper decile of what this thread's tick
//!   rounds met from idle took (`Owner::learn_round`), in a third
//!   `TimerLead`; zero on an owner that feeds helpers;
//! * the **far** park is armed at `edge − round lead − (far lead + near
//!   lead)`. The far lead is the upper decile of the far parks'
//!   lateness plus `FAR_MARGIN`, so nine far parks in ten, and more, end
//!   before the near park's arming point;
//! * the **near** park is armed at `edge − round lead − near lead`, the
//!   near lead being the lower quartile of the near parks' lateness.
//!   About three near parks in four end at or just after the point
//!   where the round runs; the fourth ends a few µs ahead of it, and the
//!   owner spins the rest.
//!
//! Together the three leads are at most `TimerLead::CAP` and at most an
//! eighth of a tick. Which park is which follows from where the owner
//! goes idle: ahead of the far arming point it takes a far park, at or
//! past it a near one — its far park ended there, or its last job did.
//! A far park that ends past the near arming point takes the spin
//! below, or past the edge a late round. A host whose timer is on time
//! teaches park leads of zero; its far park ends `FAR_MARGIN` ahead of
//! the round's point, its near park on it.
//!
//! **The hold.** An owner idle inside `[edge − round lead, edge)` runs
//! the edge's round there, at the edge's own instant
//! (`Owner::prestage`): the engine is told it is `edge`, releases and
//! dispatches what it would at the edge, and the owner *holds* what it
//! dispatched until the clock reaches the edge — `step` answers
//! `Next::SpinTo` the edge meanwhile. What arrives during the hold — a
//! command, a peer's token, a message event, a quiet admission — goes
//! into the thread's own queue, and the first pass at the edge applies
//! it, after the round and before the held body runs. So the engine
//! never sees time go backwards, no body starts before its release, and
//! an admission that lands in a hold anchors at the following edge, as
//! one that lands just after the edge does. With the round off the
//! critical path, the held body begins a few µs after the edge, where it
//! began after the round.
//!
//! An owner that feeds helpers does not pre-stage: its round's dispatches
//! go to helper threads at once, so holding them would mean holding
//! sends, not a body of its own, and the relay to a helper, not the
//! round, is what such a job waits for.
//!
//! The leads move the *wake-up*, never the schedule: a tick round runs
//! at its edge's instant, pre-staged or not, so the engine sees the
//! same instants as without them. An owner idle inside
//! `[edge − round lead − near lead, edge − round lead)` gets
//! `Next::SpinTo` that point: its thread polls what a park's re-check
//! polls, so a command that lands there is served at once. Under
//! [`WaitChoice::Spin`] every idle owner spins so, to its next round.
//! Under the harness's `ManualClock` a round costs nothing, so the
//! round lead is zero and nothing is pre-staged there unless a scenario
//! models the cost. [`TickStats`], one per owner in
//! [`crate::RuntimeReport::tick_stats`], says what came of it. A pass
//! that finds completions *and* a due tick coalesces both into **one**
//! engine round ([`Input::Tick`]).
//!
//! # Work stealing
//!
//! With [`RuntimeBuilder::work_stealing`] every shard has a **shelf**
//! (`yasmin_sync::shelf`, [`MAX_STEAL_BATCH`] slots). A shard inside a
//! body cannot answer anybody, so it answers beforehand:
//! `Owner::begin_body` detaches the stealable jobs queued behind the
//! one about to run — most urgent first, up to the first that must stay
//! (an accelerator-bound task's, one that already migrated once, or
//! one of a task with an instance in flight: below) — lays them on the
//! shelf and wakes the peers flagged idle. The first thing
//! `Owner::end_body` does is close the shelf: what a thief claimed is
//! donated, what nobody claimed goes back into the ready queue
//! ([`Input::Returned`]) under its own key — a total
//! order, so the queue is as if those jobs had never left it. A shelf
//! is open only between those two calls: whenever `step` looks at the
//! engine, the drain's look included, its shelf is empty.
//!
//! **One instance at a time.** A task with an instance queued, running,
//! on a shelf, stolen or kept anywhere is not dispatched, shelved or
//! kept again until that instance's end is home: the engine of its home
//! shard holds the instance *in flight* from the moment it leaves the
//! queue, and a thief that retires, or culls, a migrated job sends its
//! home a `ShardMsg::Home` over its peer lane
//! ([`Input::Home`]). So the next instance waits at
//! home, however long the thief takes, and two instances of one task
//! never run side by side.
//!
//! **Work-first continuation.** A token for a task whose home is
//! inside a body would wait in its mailbox until that body ends, while
//! the shard that produced it may idle. So before each body the shard
//! also opens a **door** (`yasmin_sync::door`) on each of its
//! single-input tasks whose next instance a peer may produce the token
//! for ([`Input::Offer`]: no instance queued or in
//! flight, a predecessor that may end elsewhere), naming the `seq` and
//! the id that instance would get. A shard whose completion routes such
//! a token (`Owner::settle_round`) keeps the instance with one
//! compare-and-swap on the door — unless a token for the task sent
//! earlier has not been applied at home yet: it is for an earlier graph
//! instance, whose job comes first (every sender counts the tokens it
//! sends for a door's task, the home those it applies; `yasmin_sync::door`,
//! "Tokens on their way") — and runs it itself, as a migrated job
//! ([`Input::Kept`]): the job its home would have
//! released, on the token's graph release, counted once as stolen, and
//! its end goes home like a stolen job's. `Owner::end_body` closes the
//! doors after the shelf and books what was kept
//! ([`Input::Booked`]: released, donated, in flight) before
//! any round of the job boundary. A token no door takes is sent;
//! [`StealStats::bounced`] counts those that reach a home inside a body,
//! [`StealStats::continued`] the instances kept. A chain whose nodes
//! alternate homes so stays with the shard that ran its first migrated
//! node for as long as the other is busy — the work-first principle of
//! Cilk-5. The door is the one way: waiting for the home's next body
//! boundary to shelf the released successor is the schedule without
//! it, and a hint on the token that the busy home acts on would need a
//! thread of the home's that is not inside the body.
//!
//! An idle shard (empty queue, no job, drained mailbox) asks the
//! advisory [`LoadBoard`] for a victim among the peers whose shelf has
//! something on it — most loaded first, exact ties broken towards
//! DAG-adjacent shards and recent donors — claims up to `k` jobs with
//! one compare-and-swap, `k` derived from the load gap
//! ([`LoadBoard::steal_batch_size`]), adopts them with one dispatch
//! round ([`Input::Adopt`]) and runs them itself —
//! global [`WorkerId`]s keep every record truthful about where a job
//! ran. It waits for nobody. ([`StealStats`], one per owner in
//! [`crate::RuntimeReport::steal_stats`], counts both sides.)
//!
//! # Shutting down
//!
//! One count per runtime, beside its shared lanes (`SharedLanes`), is
//! the unfinished work. It starts at the number of owners, goes up by
//! one before any message is sent to an owner — into a lane or its
//! posts queue; a spilled peer send counts when it spills — and down by
//! one once `Owner::handle` has applied it. A helper's `Done` is not
//! counted: the slot it frees keeps the engine busy until then. An
//! owner that has seen `Shutdown` and is locally quiet (`Owner::drain`)
//! takes its own 1 off, once, and puts it back before it applies a
//! later message. The count is 0, for good, only when every owner is
//! quiet and every message applied: owners exit there, and the one
//! that brought it there wakes the others (`WakeSource::AllDrained`).
//! A thread outside the runtime that sends after that finds 0, and its
//! message is dropped ([`Runtime::cleanup`]).

#[cfg(test)]
use crate::runtime::Bodies;
use crate::runtime::{
    bodies_of, JobCtx, RtJobRecord, Runtime, RuntimeBuilder, StealStats, TaskBody, Tenancy,
    TickStats,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use yasmin_core::config::WaitChoice;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::{copy_range, put, TaskSet};
use yasmin_core::ids::{JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::time::{Clock, Duration, Instant, MonotonicClock};
use yasmin_sched::admission::AdmissionControl;
use yasmin_sched::msg::MsgEvent;
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{
    Action, ActionSink, Continuation, EngineShard, EngineStats, HomeNote, Input, Job, JobBatch,
    JobOutcome, OnlineEngine, RemoteActivation, MAX_STEAL_BATCH,
};
use yasmin_sync::mailbox::{mailbox_with_capacities, MailboxFull, MailboxReceiver, MailboxSender};
use yasmin_sync::steal::LoadBoard;
use yasmin_sync::wait::{Backoff, TimerLead};
use yasmin_sync::{door, shelf};

/// Lane indices of each owner's command mailbox: `LANE_CONTROL` is the
/// shared lane (see [`Lanes`]); lane `LANE_PEER0 + p` belongs to peer
/// shard `p` (a shard's own peer lane stays unused, so indexing needs no
/// adjustment); an owner's helpers answer on the lanes after those.
const LANE_CONTROL: usize = 0;
const LANE_PEER0: usize = 1;

/// Slots of a shared lane. Whoever finds one full waits for room
/// ([`wait_for`]) — back-pressure, never loss — so the depth only says
/// how many commands may queue behind one body.
const COMMAND_LANE_DEPTH: usize = 64;

/// Longest park of a shard that holds spilled peer sends
/// ([`PeerLinks::pending`], [`WakeSource::SpillRetry`]).
const SPILL_RETRY: Duration = Duration::from_micros(200);

/// Added to the far lead ("The tick edge"): a far park that ends late
/// by a little more than the upper decile of its kind still ends ahead
/// of the near park's arming point, and takes the near park instead of
/// spinning through the near lead.
const FAR_MARGIN: Duration = Duration::from_micros(20);

/// Commands flowing into an owner thread.
pub(crate) enum ShardMsg {
    /// A helper ran the job this owner dispatched to it, to completion
    /// or into a panic.
    Done(RtJobRecord),
    /// Explicit activation of a task owned by the shard.
    Activate(TaskId),
    /// A DAG token routed from a peer shard (cross-shard edge whose
    /// destination this shard owns).
    Token(RemoteActivation),
    /// The end of an instance of a task homed here that ran on a peer:
    /// stolen, or kept ("Work stealing").
    Home(HomeNote),
    /// A channel notify event. Goes to the owner of its receiving task
    /// ([`MsgEvent::dst`]) — into its shared lane, or from its own bodies
    /// into its own queue (`post`) — and never over a peer lane.
    Msg(MsgEvent),
    /// A tenant admission (see [`Runtime::admit`]): install `tenant` —
    /// the slot of the merged task set that starts at `first_task` — in
    /// this owner's engine, with every new release left **disarmed**,
    /// and adopt `bodies`, the table built with `taskset`; then do as
    /// `then` says.
    Admit {
        taskset: Arc<TaskSet>,
        bodies: Arc<BodyTable>,
        tenant: TenantId,
        first_task: u32,
        budget: Option<TenantBudget>,
        at: Instant,
        then: Spliced,
    },
    /// Phase two of a sharded admission: arm the tenant's releases
    /// (`Owner::commit`), which begin no earlier than `since`, an
    /// instant taken once every shard spliced it.
    Commit { tenant: TenantId, since: Instant },
    /// Quiesce a tenant: cull its ready jobs, disarm its releases, drop
    /// its pending tokens; a job in flight finishes but fires no
    /// successors.
    Retire(TenantId),
    /// Stop releasing periodic jobs.
    Stop,
    /// Stop, drain and exit ([`Owner::drain`]).
    Shutdown,
}

/// What an owner does once it has spliced a tenant ([`ShardMsg::Admit`]).
#[derive(Clone)]
pub(crate) enum Spliced {
    /// Commit it at once (`Owner::commit`): the one owner of a runtime
    /// has nobody to wait for, so its admission is one command.
    Commit,
    /// Count down: with two shards or more each decrements the counter
    /// when its splice is done, and the admitting thread sends the
    /// [`ShardMsg::Commit`] once it hits zero, so no cross-shard token
    /// of the tenant reaches a shard that has not spliced it.
    Ack(Arc<AtomicUsize>),
}

// Every slot of every lane is this large, and a peer lane is
// `max_pending_jobs` slots deep: a variant that carries a batch of jobs
// inline (a steal grant once did, 456 bytes) is paid for in every one
// of them. `Done` — a job and its timing, 80 bytes — is the largest.
const _: () = assert!(std::mem::size_of::<ShardMsg>() <= 80);

/// [`Runtime`] under a configuration with `Config::sharded_dispatch`.
/// An alias kept for source compatibility until the next benchmark
/// re-baseline.
pub type ShardedRuntime = Runtime;

/// [`RuntimeBuilder`], whose `Config` says whether the runtime is
/// sharded. An alias, like [`ShardedRuntime`].
pub type ShardedRuntimeBuilder = RuntimeBuilder;

/// What an owner leaves behind when it exits ([`Owner::into_report`]),
/// filled in as it runs.
#[derive(Default)]
pub(crate) struct OwnerReport {
    pub(crate) records: Vec<RtJobRecord>,
    pub(crate) stats: EngineStats,
    /// How it met its tick edges.
    pub(crate) ticks: TickStats,
    /// What it shelved and stole.
    pub(crate) steals: StealStats,
    /// Whether its thread ran pinned.
    pub(crate) pinned: bool,
}

/// A shard's shelf: the jobs it can spare while it is inside a body.
type JobShelf = shelf::Owner<Job, MAX_STEAL_BATCH>;
/// Where a thief finds them.
type PeerShelf = shelf::Thief<Job, MAX_STEAL_BATCH>;

/// A sender into one lane of an owner's mailbox that threads share: the
/// mutex keeps the lane at one logical producer.
pub(crate) type SharedLane = Mutex<MailboxSender<ShardMsg>>;

/// The shared lanes of one runtime, by owner — where the handle sends
/// its commands and the channel notify hooks their events — and its
/// count of unfinished work. Shared by the hooks, the handle and the
/// owners, which tell their runtime by it.
pub(crate) type Lanes = Arc<SharedLanes>;

/// What [`Lanes`] points at; it derefs to the lanes.
pub(crate) struct SharedLanes {
    lanes: Vec<SharedLane>,
    /// Module docs, "Shutting down". `SeqCst` throughout, like the
    /// mailbox's pending count: a park re-reads it after announcing.
    unfinished: AtomicUsize,
}

impl SharedLanes {
    /// Counts one message before it is sent; `false` — send nothing —
    /// once the count is 0: every owner has exited.
    fn open(&self) -> bool {
        let more = |n: usize| (n > 0).then_some(n + 1);
        (self.unfinished)
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, more)
            .is_ok()
    }

    /// Takes one off the count; `true` when that brought it to 0.
    fn finish(&self) -> bool {
        self.unfinished.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// `true` once nothing is left anywhere: every owner may exit.
    fn finished(&self) -> bool {
        self.unfinished.load(Ordering::SeqCst) == 0
    }
}

impl std::ops::Deref for SharedLanes {
    type Target = [SharedLane];

    fn deref(&self) -> &[SharedLane] {
        &self.lanes
    }
}

/// An owner's mailbox, which only its thread drains, and the queue that
/// thread owns. They are the [`Owner`]'s between bodies and `LOCAL`'s
/// during one ([`Owner::in_body`]): what code running inside a body
/// finds of the owner it runs on.
struct ShardLocal {
    lanes: Lanes,
    me: usize,
    rx: MailboxReceiver<ShardMsg>,
    /// Events this thread's bodies posted for their own owner's tasks,
    /// and what [`post`], [`wait_for`] and a hold moved here from the
    /// mailbox; applied at the job boundary or the held edge, ahead of
    /// the mailbox.
    posts: VecDeque<ShardMsg>,
}

impl ShardLocal {
    /// Moves what the mailbox holds into the thread's own queue, behind
    /// what is there.
    fn queue_mailbox(&mut self) {
        while let Some(msg) = self.rx.try_recv() {
            self.posts.push_back(msg);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<ShardLocal>> = const { RefCell::new(None) };
}

/// Retries `attempt` until it yields, from whichever thread and with
/// nothing held in between. What it waits for — room in a lane, a lock
/// another caller holds while *it* waits for room — comes from an owner
/// reaching its job boundary, and the caller may be inside a body of one
/// of `lanes`' owners: it keeps moving that owner's mailbox into its
/// queue meanwhile, so the room others wait for is always made.
pub(crate) fn wait_for<T>(lanes: &Lanes, mut attempt: impl FnMut() -> Option<T>) -> T {
    let mut backoff = Backoff::new();
    loop {
        if let Some(v) = attempt() {
            return v;
        }
        LOCAL.with_borrow_mut(|local| {
            if let Some(l) = local.as_mut().filter(|l| Arc::ptr_eq(&l.lanes, lanes)) {
                l.queue_mailbox();
            }
        });
        backoff.snooze();
    }
}

pub(crate) fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Err(TryLockError::WouldBlock) => None,
        locked => Some(locked.expect("runtime mutex poisoned")),
    }
}

/// How a command enters a lane: [`MailboxSender::send`], which rings the
/// owner, or [`MailboxSender::send_quiet`].
pub(crate) type SendFn =
    fn(&mut MailboxSender<ShardMsg>, ShardMsg) -> std::result::Result<(), MailboxFull<ShardMsg>>;

/// How a tenant command (`Admit`, `Retire`) enters the shared lanes of
/// a runtime of `owners` owners: quietly when there is one, rung to
/// shards. One owner acts on it no sooner than its next tick edge
/// anyway — an admission's releases anchor there, and nothing waits for
/// its acknowledgement — and every park of an owner is timed to end at
/// that edge, where its next pass drains the mailbox ahead of the tick
/// round, rung or not. Shards keep the rung protocol: a caller waits
/// for their acknowledgement of a splice.
pub(crate) fn tenant_send(owners: usize) -> SendFn {
    match owners {
        1 => MailboxSender::send_quiet,
        _ => MailboxSender::send,
    }
}

/// Counts `msg` and sends it into the shared lane of `owner` by `send`,
/// waiting for room ([`wait_for`]); drops it once every owner has
/// exited ([`SharedLanes::open`]).
pub(crate) fn send_waiting(lanes: &Lanes, owner: usize, msg: ShardMsg, send: SendFn) {
    if !lanes.open() {
        return;
    }
    let mut msg = Some(msg);
    wait_for(lanes, || {
        let sent = send(&mut *try_lock(&lanes[owner])?, msg.take()?);
        sent.map_err(|MailboxFull(v)| msg = Some(v)).ok()
    });
}

/// Delivers a message-plane event to `owner`, the owner of the task it
/// names, from whichever thread the notify hook fired on ("The job
/// boundary"): in a body of that owner, the thread-owned queue, behind
/// what its shared lane holds — no lock, never full; anywhere else, that
/// lane.
fn post(lanes: &Lanes, owner: usize, msg: ShardMsg) {
    let elsewhere = LOCAL.with_borrow_mut(|local| {
        let at_owner = |l: &&mut ShardLocal| Arc::ptr_eq(&l.lanes, lanes) && l.me == owner;
        let Some(l) = local.as_mut().filter(at_owner) else {
            return Some(msg);
        };
        while let Some(earlier) = l.rx.pop_lane(LANE_CONTROL) {
            l.posts.push_back(earlier);
        }
        // Counted like a send: this owner, inside a body, has not
        // drained, so the count is not 0.
        lanes.open();
        l.posts.push_back(msg);
        None
    });
    if let Some(msg) = elsewhere {
        send_waiting(lanes, owner, msg, MailboxSender::send);
    }
}

/// The owner that has task `t` of `taskset`: the one owner of a runtime
/// that is not `sharded` has every task, assigned to a worker or not; a
/// shard has those assigned to its worker.
pub(crate) fn owner_of(taskset: &TaskSet, sharded: bool, t: TaskId) -> Result<usize> {
    let assigned = taskset.task(t)?.spec().assigned_worker();
    match sharded {
        false => Ok(0),
        true => assigned
            .map(|w| w.index())
            .ok_or(Error::MissingPartition(t)),
    }
}

/// Every owner of one runtime, each beside the far ends of its helpers
/// (none for an owner that executes).
pub(crate) type Owners<C> = Vec<(Owner<C>, Vec<HelperEnd>)>;

/// Builds one [`Owner`] per engine — every shard of a partitioned set
/// in worker order, or the one whole engine — and what joins them:
/// mailbox lanes, the count of unfinished work, shelves, the load
/// board and the channel notify hooks — and tenant 0's body table, which
/// every owner adopts. Starts no thread; returns the owners, the shared lane into
/// each, and the table.
pub(crate) fn wire<C: OwnerClock>(
    launch: &RuntimeBuilder,
    clock: &Arc<C>,
) -> Result<(Owners<C>, Lanes, Arc<BodyTable>)> {
    let (taskset, config) = (&launch.taskset, &launch.config);
    let found = bodies_of(taskset, &launch.bodies)?;
    let sharded = config.sharded_dispatch();
    let engines = if sharded {
        let shards = EngineShard::build_all(taskset, config)?;
        shards.into_iter().map(EngineShard::into_inner).collect()
    } else {
        vec![OnlineEngine::new(Arc::clone(taskset), config.clone())?]
    };
    // A peer never waits for room — what finds none spills
    // (`PeerLinks::pending`) — and every token it sends becomes a
    // pending job of the receiver: as deep as an engine's queue.
    let peer_depth = config.max_pending_jobs().max(64);
    let n = engines.len();
    let board = Arc::new(LoadBoard::new(n));
    let owner = |t: TaskId| owner_of(taskset, sharded, t);
    // Seed the victim-selection hints: shards joined by a cross-shard
    // DAG edge are marked adjacent, so on exact load ties a thief
    // prefers a victim whose jobs have successors (or predecessors) on
    // its own shard — their tokens then travel a lane that exists.
    for e in taskset.edges() {
        if let (Ok(a), Ok(b)) = (owner(e.src), owner(e.dst)) {
            if a != b {
                board.set_adjacent(a, b);
            }
        }
    }
    // One shelf per owner (module docs, "Work stealing"): the filling
    // end is its owner's, every owner gets a taking end.
    let (shelves, peer_shelves): (Vec<JobShelf>, Vec<PeerShelf>) =
        (0..n).map(|_| shelf::new()).unzip();
    // And one door per task of the built-in set, the tasks whose next
    // instance a peer may keep.
    let (doors, keepers): (Vec<door::Home>, Vec<door::Keeper>) =
        (0..n).map(|_| door::new(taskset.len())).unzip();

    // One mailbox per owner: the shared lane, one lane per peer shard
    // for the cross-shard protocol, and one lane per helper. Peer
    // senders are regrouped so owner `s` holds, for every target `t`,
    // the sender feeding lane `LANE_PEER0 + s` of `t`'s mailbox.
    let mut shared = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    let mut peer_lanes_by_target = Vec::with_capacity(n);
    let mut done_lanes_by_owner = Vec::with_capacity(n);
    for (s, engine) in engines.iter().enumerate() {
        // Who executes: an owner with one slot itself, one with
        // more hands every job to the slot's helper.
        let slots = engine.shard_worker().map_or(config.workers(), |_| 1);
        let helpers = if slots > 1 { slots } else { 0 };
        let mut capacities = vec![peer_depth; LANE_PEER0 + n];
        capacities[LANE_CONTROL] = COMMAND_LANE_DEPTH;
        capacities[LANE_PEER0 + s] = 1; // nobody writes to itself
        capacities.resize(capacities.len() + helpers, 1); // one job in flight each
        let (mut lanes, mailbox_rx) = mailbox_with_capacities::<ShardMsg>(&capacities);
        done_lanes_by_owner.push(lanes.split_off(LANE_PEER0 + n));
        peer_lanes_by_target.push(lanes.split_off(LANE_PEER0));
        shared.push(Mutex::new(lanes.swap_remove(LANE_CONTROL)));
        receivers.push(mailbox_rx);
    }
    // Every owner's own 1 (`Owner::drain`).
    let shared: Lanes = Arc::new(SharedLanes {
        lanes: shared,
        unfinished: AtomicUsize::new(n),
    });

    // Arm the channel notify hooks: each channel posts its events to
    // the owner of its receiving task, the one that can act on them.
    // Channels without a declared ceiling never reach an engine.
    for handle in &launch.channels {
        if handle.ceiling().is_none() {
            continue;
        }
        let to = owner(handle.dst())?;
        let lanes = Arc::clone(&shared);
        let _ = handle.set_notify(Arc::new(move |ev| post(&lanes, to, ShardMsg::Msg(ev))));
    }
    // Transpose: peer_txs[source][target], a shard never sends to
    // itself.
    let mut peer_txs: Vec<Vec<Option<MailboxSender<ShardMsg>>>> =
        (0..n).map(|_| Vec::with_capacity(n)).collect();
    for (target, lanes) in peer_lanes_by_target.into_iter().enumerate() {
        for (source, tx) in lanes.into_iter().enumerate() {
            peer_txs[source].push((source != target).then_some(tx));
        }
    }

    let bodies = BodyTable::default().placed(taskset, 0, &found);
    let mut owners = Vec::with_capacity(n);
    for (((((engine, rx), txs), done_lanes), shelf), doors) in engines
        .into_iter()
        .zip(receivers)
        .zip(peer_txs)
        .zip(done_lanes_by_owner)
        .zip(shelves)
        .zip(doors)
    {
        let (helpers, ends) = done_lanes.into_iter().map(helper_ends).unzip();
        let peers = PeerLinks {
            txs,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            board: Arc::clone(&board),
            stealing: launch.work_stealing && n > 1,
            shelf,
            shelves: peer_shelves.clone(),
            doors,
            keepers: keepers.clone(),
            lanes: Arc::clone(&shared),
        };
        let lanes = Arc::clone(&shared);
        let table = Arc::clone(&bodies);
        let owner = Owner::new(engine, table, rx, Arc::clone(clock), peers, lanes, helpers);
        owners.push((owner, ends));
    }
    Ok((owners, shared, bodies))
}

/// [`wire`]s the owners — which reads every body, and refuses a missing
/// one — locks memory when the builder asked for it, and starts one
/// thread per owner and one per helper.
pub(crate) fn spawn(launch: RuntimeBuilder) -> Result<Runtime> {
    let clock = Arc::new(MonotonicClock::new());
    let waiting = launch.config.waiting();
    let (owners, lanes, bodies) = wire(&launch, &clock)?;
    if launch.lock_memory {
        // Best-effort; containers commonly deny it.
        let _ = crate::os::lock_all_memory();
    }
    let tick = owners
        .first()
        .map(|(owner, _)| owner.tick)
        .ok_or_else(|| Error::InvalidConfig("a thread runtime needs at least one worker".into()))?;
    let admission = AdmissionControl::new(launch.config.clone(), tick);

    let mut threads = Vec::with_capacity(owners.len());
    let mut helpers = Vec::new();
    for (owner, ends) in owners {
        // An owner that executes sits on its worker's core, one that
        // only schedules on the core after its helpers'.
        let (name, core) = match owner.engine.shard_worker() {
            Some(w) => (format!("yasmin-shard-sched-{w}"), w.index()),
            None => ("yasmin-scheduler".to_owned(), ends.len()),
        };
        for (w, end) in ends.into_iter().enumerate() {
            let core = launch.pin_offset + w;
            let clock = Arc::clone(&clock);
            helpers.push(start_thread(format!("yasmin-worker-{w}"), move || {
                let pinned = crate::os::enter_runtime_thread(core);
                helper_main(end, &*clock, WorkerId::new(w as u16), waiting);
                pinned
            })?);
        }
        let core = launch.pin_offset + core;
        threads.push(start_thread(name, move || owner_thread(owner, core))?);
    }

    Ok(Runtime {
        tenancy: Mutex::new(Tenancy::new(admission, launch.taskset, bodies)),
        clock,
        config: launch.config,
        lanes,
        threads,
        helpers,
    })
}

fn start_thread<T: Send + 'static>(
    name: String,
    main: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>> {
    let spawned = std::thread::Builder::new().name(name.clone()).spawn(main);
    spawned.map_err(|e| Error::Os(format!("spawning {name}: {e}")))
}

/// One owner's thread, the shell around [`Owner::step`]: it runs the
/// bodies, parks on the mailbox and spins to an edge, and decides
/// nothing.
fn owner_thread(mut owner: Owner<MonotonicClock>, core: usize) -> OwnerReport {
    let pinned = crate::os::enter_runtime_thread(core);
    let clock = Arc::clone(&owner.clock);
    let worker = owner.worker;
    let mut next = owner.start();
    loop {
        match next {
            Next::Run(job, version) => {
                let ctx = JobCtx {
                    job,
                    version,
                    worker,
                };
                owner.begin_body();
                let key = (job.task, version);
                let record = owner.in_body(key, |body| run_body(body, &ctx, &*clock));
                owner.end_body(record);
            }
            Next::Park { until, wake } => {
                // `also_ready` runs after the thread has announced its
                // sleep: whoever changes it later sees that and rings.
                let timeout = until.saturating_since(owner.now);
                let unrung = owner
                    .mailbox()
                    .park(Some(timeout.into()), || owner.also_ready(wake));
                owner.woke(until, wake, unrung);
            }
            Next::SpinTo { edge, wake } => {
                let to = loop {
                    std::hint::spin_loop();
                    let at = clock.now();
                    if at >= edge || !owner.mailbox().is_empty() || owner.also_ready(wake) {
                        break at;
                    }
                };
                owner.spun(to, wake);
            }
            Next::Exit => return owner.into_report(pinned),
        }
        next = owner.step();
    }
}

/// Runs one job's body on the calling thread. A panic is contained: the
/// job reads as [`JobOutcome::Failed`] and the thread — an owner, or a
/// helper — survives. `TaskBody` is not `UnwindSafe`, but the runtime
/// never observes its captured state after a panic.
fn run_body(body: &TaskBody, ctx: &JobCtx, clock: &impl Clock) -> RtJobRecord {
    let started = clock.now();
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(ctx))) {
        Ok(()) => JobOutcome::Completed,
        Err(_) => JobOutcome::Failed,
    };
    RtJobRecord {
        job: ctx.job,
        version: ctx.version,
        worker: ctx.worker,
        started,
        completed: clock.now(),
        outcome,
    }
}

/// What an owner hands a helper: one dispatched job, and the table its
/// body is in, whose count then covers the body while the helper runs it.
pub(crate) struct Run(Job, VersionId, Arc<BodyTable>);

/// An owner's end of one helper: a one-lane mailbox of dispatches, whose
/// send rings the helper; `None` dismisses it.
struct HelperLink(MailboxSender<Option<Run>>);

impl HelperLink {
    fn send(&mut self, run: Option<Run>) {
        // One slot is enough: the engine books a worker again only once
        // it has retired the job the helper received from here.
        if self.0.send(run).is_err() {
            unreachable!("the engine never double-books a worker");
        }
    }
}

/// A helper's end of its owner: the mailbox it receives its dispatches
/// in, and the lane of the owner's mailbox it answers on.
pub(crate) struct HelperEnd {
    rx: MailboxReceiver<Option<Run>>,
    done: MailboxSender<ShardMsg>,
}

/// Both ends of the helper that answers on `done`.
fn helper_ends(done: MailboxSender<ShardMsg>) -> (HelperLink, HelperEnd) {
    let (mut tx, rx) = mailbox_with_capacities(&[1]);
    let link = HelperLink(tx.pop().expect("one lane"));
    (link, HelperEnd { rx, done })
}

/// A helper thread: worker slot `worker` of an owner that does not
/// execute. Runs what its mailbox holds, answers on its own lane of the
/// owner's.
fn helper_main(mut end: HelperEnd, clock: &impl Clock, worker: WorkerId, waiting: WaitChoice) {
    loop {
        let Some(msg) = end.rx.try_recv() else {
            match waiting {
                WaitChoice::Sleep => _ = end.rx.park(None, || false),
                WaitChoice::Spin => std::hint::spin_loop(),
            }
            continue;
        };
        let Some(Run(job, version, bodies)) = msg else {
            break;
        };
        let ctx = JobCtx {
            job,
            version,
            worker,
        };
        let record = run_body(bodies.get(job.task, version), &ctx, clock);
        // The owner took the previous answer out of the lane before it
        // dispatched this job.
        if end.done.send(ShardMsg::Done(record)).is_err() {
            unreachable!("one job in flight per helper");
        }
    }
}

/// A shard thread's links to its peers: one mailbox sender per target
/// shard (its own slot is `None`), the advisory load board, whether
/// stealing is enabled, the shelves stolen jobs change hands on, and
/// the runtime's count of unfinished work.
///
/// Peer sends never block: a full lane spills into a local per-target
/// FIFO that [`PeerLinks::flush`] retries every wake. Blocking here
/// would be a deadlock hazard — two shards spinning on each other's
/// full lanes while neither drains its own mailbox, or one shard
/// wedged forever on a peer that already exited at shutdown.
struct PeerLinks {
    txs: Vec<Option<MailboxSender<ShardMsg>>>,
    /// Per-target overflow, preserving lane FIFO order.
    pending: Vec<VecDeque<ShardMsg>>,
    board: Arc<LoadBoard>,
    stealing: bool,
    /// This shard's shelf, filled right before a body and closed right
    /// after it (module docs, "Work stealing").
    shelf: JobShelf,
    /// The taking end of every shard's shelf, this shard's own included
    /// so that a shard index needs no adjustment.
    shelves: Vec<PeerShelf>,
    /// This shard's doors, open while it is inside a body, and the
    /// keeping end of every shard's, indexed like `shelves`.
    doors: door::Home,
    keepers: Vec<door::Keeper>,
    /// Where every send is counted ([`SharedLanes::open`]).
    lanes: Lanes,
}

impl PeerLinks {
    /// Counts `msg` — this owner has not drained, so the count is not
    /// 0 — and sends it, or spills it when the lane is full.
    fn send(&mut self, target: usize, msg: ShardMsg) {
        self.lanes.open();
        let tx = self.txs[target]
            .as_mut()
            .expect("peer links never target the sending shard");
        if self.pending[target].is_empty() {
            if let Err(MailboxFull(v)) = tx.send(msg) {
                self.pending[target].push_back(v);
            }
        } else {
            // Keep lane order: everything queues behind the backlog.
            self.pending[target].push_back(msg);
        }
    }

    /// Retries the spilled backlog, stopping per target at the first
    /// still-full lane.
    fn flush(&mut self) {
        for (t, q) in self.pending.iter_mut().enumerate() {
            while let Some(msg) = q.pop_front() {
                let tx = self.txs[t].as_mut().expect("backlog only for peers");
                if let Err(MailboxFull(v)) = tx.send(msg) {
                    q.push_front(v);
                    break;
                }
            }
        }
    }

    fn pending_empty(&self) -> bool {
        self.pending.iter().all(VecDeque::is_empty)
    }

    /// Whom the idle shard `me` robs: the board's choice among the
    /// peers that have something on their shelf right now.
    fn victim(&self, me: usize) -> Option<usize> {
        self.board
            .pick_victim_among(me, |p| !self.shelves[p].is_empty())
    }

    /// Wakes up to `jobs` thieves parked for want of anything to take
    /// (see "Parked thieves" in `yasmin_sync::steal`), after this shard
    /// put that many jobs on its shelf.
    fn wake_thieves(&self, me: usize, jobs: usize) {
        for thief in self.board.idle_peers(me).take(jobs) {
            if let Some(tx) = &self.txs[thief] {
                tx.wake();
            }
        }
    }

    /// Takes this drained owner's own 1 off the count; the owner that
    /// brings it to 0 wakes every peer, parked for that.
    fn drained(&self) {
        if self.lanes.finish() {
            for tx in self.txs.iter().flatten() {
                tx.wake();
            }
        }
    }
}

/// How late an owner's tick rounds began, in nanoseconds: eight buckets
/// per power of two (a value keeps its four leading bits), filled in
/// place at every round.
struct LateHist {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    max: u64,
}

impl LateHist {
    /// Values below 8 have a bucket each; `8 << s ..= 15 << s` follow
    /// for every shift `s` a `u64` allows.
    const BUCKETS: usize = 8 + 8 * 61;

    const fn new() -> Self {
        LateHist {
            buckets: [0; Self::BUCKETS],
            count: 0,
            max: 0,
        }
    }

    fn record(&mut self, late: Duration) {
        let ns = late.as_nanos();
        let bucket = if ns < 8 {
            ns as usize
        } else {
            let shift = ns.ilog2() - 3;
            (8 * shift + (ns >> shift) as u32) as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    /// The middle of the bucket the median falls in, or the maximum
    /// where that is lower; 0 when empty.
    fn median(&self) -> u64 {
        let mut below = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            below += n;
            if n > 0 && 2 * below >= self.count {
                let shift = (bucket / 8).saturating_sub(1);
                let lowest = ((bucket - 8 * shift) as u64) << shift;
                return (lowest + ((1u64 << shift) >> 1)).min(self.max);
            }
        }
        0
    }
}

/// One thing that can end an owner's park. A condition `step` acts on
/// is one of these — a ring from its writer, a re-check after the
/// sleeper announced itself, or a bound on the timeout — or it does
/// not outlive the pass that found it (a job to run, the thread's own
/// posts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WakeSource {
    /// A command in any lane — the shared one, a peer's token, a
    /// helper's `Done`: every `send` rings, and a park looks at the
    /// pending count after announcing itself. The one exception is a tenant command to the
    /// one owner of a runtime (`tenant_send`), sent quietly: it waits
    /// for whatever ends the park next — [`WakeSource::TickEdge`], of
    /// every park, at the latest — which is no later than it is due.
    Mailbox,
    /// A peer's shelf filling, for an idle thief: it raises its idle
    /// flag on the [`LoadBoard`] before parking, a victim that shelved
    /// jobs wakes the flagged peers ([`PeerLinks::wake_thieves`]), and
    /// the sleeper re-checks [`PeerLinks::victim`].
    PeerShelf,
    /// Every owner drained, for one that has: the owner whose own 1
    /// brings the count of unfinished work to 0 wakes every peer
    /// ([`PeerLinks::drained`]), and the sleeper re-checks that it is 0
    /// ([`SharedLanes::finished`]).
    AllDrained,
    /// Room in a full peer lane for [`PeerLinks::flush`]. No event:
    /// while a shard holds spilled sends its park or spin ends
    /// `SPILL_RETRY` on at the latest, and a park says nothing about the
    /// timer.
    SpillRetry,
    /// The next tick edge: the timeout of a far park, armed the far and
    /// the near lead ahead of it, or of a near park, armed the near
    /// lead ahead of it (module docs, "The tick edge"). Either kind of
    /// park ends at any of the other sources too.
    TickEdge,
}

/// The [`WakeSource`]s of one park, built where it is decided.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct WakeSet(u8);

impl WakeSet {
    /// The mailbox and the next tick edge, which end every park and spin.
    const EDGE: WakeSet = WakeSet(1 << WakeSource::Mailbox as u8 | 1 << WakeSource::TickEdge as u8);

    fn with(self, source: WakeSource, on: bool) -> Self {
        WakeSet(self.0 | u8::from(on) << source as u8)
    }

    pub(crate) fn has(self, source: WakeSource) -> bool {
        self.0 >> source as u8 & 1 != 0
    }
}

/// What [`Owner::step`] tells the thread that called it to do.
pub(crate) enum Next {
    /// Run this job's body on this thread: [`Owner::begin_body`], the
    /// body inside [`Owner::in_body`], [`Owner::end_body`].
    Run(Job, VersionId),
    /// Nothing to do before `until`: sleep on the mailbox, with
    /// [`Owner::also_ready`] as the look after the announcement, then
    /// [`Owner::woke`].
    Park { until: Instant, wake: WakeSet },
    /// Nothing to do, and no time to sleep: watch the clock, the
    /// mailbox and [`Owner::also_ready`] until the first of them, then
    /// [`Owner::spun`]. `edge` is where the next tick edge's round runs
    /// — the edge, or its round lead ahead of it — or the next retry of
    /// spilled sends when that is sooner; an owner that sleeps spins
    /// only inside its near lead, one under [`WaitChoice::Spin`]
    /// whenever it is idle. An owner that holds a pre-staged edge spins
    /// to that edge, and the mailbox ends its spin only for the arrival
    /// to be queued.
    SpinTo { edge: Instant, wake: WakeSet },
    /// Globally quiescent after `Shutdown`: [`Owner::into_report`].
    Exit,
}

/// Every body a runtime may run, found by merged task id, then version:
/// task `t`'s versions start at `first[t]` in `bodies`. A dispatch looks
/// its body up with two indexings, no hashing.
///
/// Immutable once shared: one is made per admission, on the admitting
/// thread, with the merged set it goes with — in the table of a
/// generation nobody runs any more, brought up to date slot by slot
/// ([`BodyTable::copy_slot`]), or in a copy of the current one — and
/// every owner adopts it by `Arc` ([`ShardMsg::Admit`]); a helper's
/// [`Run`] carries it too. An owner lets go of a table on its own
/// thread, so it must never hold the last reference: [`Tenancy`] does.
#[derive(Clone, Default)]
pub(crate) struct BodyTable {
    first: Vec<u32>,
    bodies: Vec<TaskBody>,
}

impl BodyTable {
    /// A copy of `self` with the bodies of `tenant` written in
    /// ([`BodyTable::place`]). Tenant 0's goes into an empty table at 0.
    pub(crate) fn placed(&self, tenant: &TaskSet, first: u32, found: &[TaskBody]) -> Arc<Self> {
        let mut table = self.clone();
        table.place(tenant, first, found);
        Arc::new(table)
    }

    /// Writes the bodies of `tenant`, a set in its own id space, into
    /// the slot of the merged set that starts at task `first` ([`put`]):
    /// over a former holder of its shape, or past the table's end.
    /// `found` is what [`bodies_of`] read for the tenant: every version
    /// of every task, in that order, as the table lays them out.
    ///
    /// # Panics
    ///
    /// When the tenant starts past the table's end.
    pub(crate) fn place(&mut self, tenant: &TaskSet, first: u32, found: &[TaskBody]) {
        let first = first as usize;
        let end = self.bodies.len() as u32;
        let start = *self.first.get(first).unwrap_or(&end);
        let mut at = start;
        let starts = tenant.tasks().iter().map(|t| {
            let task_start = at;
            at += t.versions().len() as u32;
            task_start
        });
        put(&mut self.first, first, starts);
        debug_assert_eq!(at - start, found.len() as u32, "one body per version");
        put(&mut self.bodies, start as usize, found.iter().cloned());
    }

    /// Makes the bodies of merged tasks `tasks` a copy of `from`'s
    /// ([`copy_range`]), as [`TaskSet::copy_slot`] makes a slot's
    /// entities: a task's bodies follow those of the task before it, so
    /// a slot's are one run.
    pub(crate) fn copy_slot(&mut self, from: &BodyTable, tasks: Range<usize>) {
        let end = from.bodies.len() as u32;
        let at = |t: usize| *from.first.get(t).unwrap_or(&end) as usize;
        copy_range(
            &mut self.bodies,
            &from.bodies,
            at(tasks.start)..at(tasks.end),
        );
        copy_range(&mut self.first, &from.first, tasks);
    }

    pub(crate) fn get(&self, task: TaskId, version: VersionId) -> &TaskBody {
        &self.bodies[self.first[task.index()] as usize + version.index()]
    }
}

/// The clock an owner reads. A tick round it times ends at
/// [`OwnerClock::round_end`]: on a real clock that is the read after the
/// round; the harness's virtual clock, where time moves only when told,
/// charges the round a modelled cost there first.
pub(crate) trait OwnerClock: Clock {
    /// The instant a tick round that just returned ended.
    fn round_end(&self) -> Instant {
        self.now()
    }
}

impl OwnerClock for MonotonicClock {}

/// One owner's protocol over its engine — a shard's, or the whole — as
/// a machine a thread steps: the thread runs bodies, parks and spins.
pub(crate) struct Owner<C: OwnerClock> {
    engine: OnlineEngine,
    bodies: Arc<BodyTable>,
    clock: Arc<C>,
    /// `None` while a body has it ([`Owner::in_body`]).
    local: Option<ShardLocal>,
    peers: PeerLinks,
    /// One per slot, or none: an owner with one slot executes.
    helpers: Vec<HelperLink>,
    /// The whole engine owns slots `0..n` and sits at index 0 of its
    /// one-owner runtime; alone on one slot it is worker 0 itself.
    worker: WorkerId,
    me: usize,
    tick: Duration,
    waiting: WaitChoice,
    /// Reused: the steady state allocates nothing for actions.
    sink: ActionSink,
    /// The [`Next::Run`] of the job the last round dispatched to this
    /// thread — one slot, never preempted, so at most one; none on an
    /// owner that feeds helpers.
    next_job: Option<Next>,
    /// Completions not yet retired — the body just run, or what the
    /// helpers reported this drain, one per slot at most.
    done: Vec<(WorkerId, JobId)>,
    last_done: Instant,
    /// Cross-shard DAG tokens drained from the shard outbox, reused.
    outbox: Vec<RemoteActivation>,
    next_tick: Instant,
    /// A pre-staged edge ("The tick edge"): its round has run, and until
    /// the clock reaches it the dispatched job waits in `next_job` and
    /// what arrives waits in the thread's own queue.
    held: Option<Instant>,
    /// The clock as the last pass read it for its tick check.
    now: Instant,
    /// The lateness this thread's far and near parks show ("The tick
    /// edge"), how long its tick rounds take and the round lead that
    /// makes (zero on an owner that feeds helpers), whether the park
    /// `step` last asked for is a near one, the near arming point of its
    /// edge, and how late its edges were met.
    far_lead: TimerLead,
    near_lead: TimerLead,
    rounds: TimerLead,
    round_lead: Duration,
    parked_near: bool,
    near_at: Instant,
    late: LateHist,
    /// When the last wait (park or spin) since the last body ended, zero
    /// after a body: whether the wait or work kept an edge met from idle
    /// from being pre-staged.
    woke_at: Instant,
    /// Steal scratch, reused: the jobs on their way to or from a shelf,
    /// how many lie on this owner's.
    steal_batch: JobBatch,
    shelved: usize,
    /// Continuation scratch, reused: the instances this owner's doors
    /// offer while it is inside a body, the ones it kept of its peers'
    /// and the ends of migrated instances on their way home.
    offered: Vec<Continuation>,
    kept: Vec<(RemoteActivation, Continuation)>,
    homeward: Vec<HomeNote>,
    /// `Shutdown` seen, and whether this owner's own 1 is off the count
    /// of unfinished work ([`Owner::drain`]).
    shutting_down: bool,
    drained: bool,
    report: OwnerReport,
}

impl<C: OwnerClock> Owner<C> {
    fn new(
        engine: OnlineEngine,
        bodies: Arc<BodyTable>,
        rx: MailboxReceiver<ShardMsg>,
        clock: Arc<C>,
        peers: PeerLinks,
        lanes: Lanes,
        helpers: Vec<HelperLink>,
    ) -> Self {
        let worker = engine.shard_worker().unwrap_or(WorkerId::new(0));
        Owner {
            local: Some(ShardLocal {
                lanes,
                me: worker.index(),
                rx,
                posts: VecDeque::new(),
            }),
            worker,
            me: worker.index(),
            tick: engine.tick_period(),
            waiting: engine.config().waiting(),
            sink: ActionSink::new(),
            next_job: None,
            done: Vec::with_capacity(helpers.len().max(1)),
            last_done: Instant::ZERO,
            outbox: Vec::with_capacity(8),
            next_tick: Instant::MAX,
            held: None,
            now: Instant::ZERO,
            far_lead: TimerLead::new(),
            near_lead: TimerLead::new(),
            rounds: TimerLead::new(),
            round_lead: Duration::ZERO,
            parked_near: false,
            near_at: Instant::MAX,
            late: LateHist::new(),
            woke_at: Instant::ZERO,
            steal_batch: JobBatch::with_capacity(MAX_STEAL_BATCH),
            shelved: 0,
            offered: Vec::with_capacity(engine.taskset().len()),
            kept: Vec::with_capacity(8),
            homeward: Vec::with_capacity(8),
            shutting_down: false,
            drained: false,
            report: OwnerReport::default(),
            engine,
            bodies,
            clock,
            peers,
            helpers,
        }
    }

    fn local(&mut self) -> &mut ShardLocal {
        self.local.as_mut().expect("no body has the mailbox")
    }

    /// The mailbox, for the thread to park on and to poll.
    pub(crate) fn mailbox(&self) -> &MailboxReceiver<ShardMsg> {
        &self.local.as_ref().expect("no body has the mailbox").rx
    }

    /// Starts the engine. One instant anchors both grids, the releases
    /// and the tick edges that dispatch them: an anchor taken after the
    /// first round would make every tick trail its release by however
    /// long that round took.
    pub(crate) fn start(&mut self) -> Next {
        let t0 = self.clock.now();
        self.engine_call(|o| o.engine.apply(t0, &Input::Start, &mut o.sink))
            .expect("fresh engine starts");
        self.next_tick = t0 + self.tick;
        self.next_job.take().unwrap_or_else(|| self.step())
    }

    /// Engine rounds, from the job boundary on, until there is
    /// something for the thread to do.
    pub(crate) fn step(&mut self) -> Next {
        loop {
            if let Some(next) = self.pass() {
                return next;
            }
        }
    }

    /// One pass; `None` when something happened and nothing came of it
    /// for the thread: start over.
    fn pass(&mut self) -> Option<Next> {
        // Retry peer sends that found a full lane — before draining our
        // own mailbox, so two busy shards always make mutual progress.
        self.peers.flush();
        if let Some(edge) = self.held {
            // Nothing reaches the engine, which has seen `edge`, before
            // the clock has: what arrives waits in the thread's queue,
            // which the edge's pass applies, in order, ahead of the held
            // body.
            self.now = self.clock.now();
            if self.now < edge {
                self.local().queue_mailbox();
                return Some(Next::SpinTo {
                    edge,
                    wake: WakeSet::EDGE,
                });
            }
            self.held = None;
            self.late.record(self.now.saturating_since(edge));
        }
        // In the order things happened: what the body posted, what
        // reached the mailbox meanwhile (helpers' completions among
        // it), and only then the completions, all in one round —
        // folded into the tick round below when one is due.
        let mut drained_any = false;
        while let Some(msg) = self.next_msg() {
            drained_any = true;
            self.handle(msg);
        }
        if self.shutting_down && self.drain() {
            // Nothing is queued, running or on its way anywhere.
            debug_assert!(self.peers.shelf.is_empty(), "open during a body only");
            self.peers.board.publish(self.me, 0);
            self.helpers.iter_mut().for_each(|h| h.send(None));
            return Some(Next::Exit);
        }
        // Tick edge, generated locally by this owner.
        self.now = self.clock.now();
        if self.now >= self.next_tick {
            // Why the edge was not pre-staged.
            let ticks = &mut self.report.ticks;
            let missed = if self.round_lead.is_zero() {
                &mut ticks.no_lead
            } else if self.woke_at >= self.next_tick {
                &mut ticks.woke_late
            } else {
                &mut ticks.held_busy
            };
            *missed += 1;
            self.tick_round(self.now, self.now);
            self.learn_round(self.now);
            while self.next_tick <= self.now {
                self.next_tick += self.tick;
            }
            return self.next_job.take();
        }
        // No tick due: the completions retire in a round of their own.
        if !self.done.is_empty() {
            self.engine_call(|o| {
                o.engine
                    .apply(o.last_done, &Input::Completed(&o.done), &mut o.sink)
            })
            .expect("completion protocol upheld");
            self.done.clear();
        }
        // Fully idle (empty queue, no job, drained mailbox): take from
        // the shelf of the most loaded peer that has one filled.
        let thief = self.peers.stealing
            && !self.shutting_down
            && self.engine.is_idle()
            && self.mailbox().is_empty();
        if (thief && self.steal()) || drained_any || self.next_job.is_some() {
            return self.next_job.take();
        }
        if self.now >= self.next_tick - self.round_lead {
            self.prestage();
            return None;
        }
        Some(self.idle(thief))
    }

    /// Idle within the round lead of the next edge: runs that edge's
    /// tick round now, at the edge's own instant, and holds what it
    /// dispatched until the clock reaches the edge ("The tick edge").
    fn prestage(&mut self) {
        debug_assert!(self.done.is_empty(), "retired before going idle");
        let (edge, began) = (self.next_tick, self.clock.now());
        self.engine_call(|o| {
            o.engine
                .apply(edge, &Input::Tick { done: &[] }, &mut o.sink)
        })
        .expect("completion protocol upheld");
        self.learn_round(began);
        self.next_tick += self.tick;
        self.held = Some(edge);
        self.report.ticks.prestaged += 1;
    }

    /// A tick round met from idle, begun at `began`, just returned:
    /// what it took teaches the round lead of an owner that runs its
    /// own bodies — the upper decile of those rounds, so about nine
    /// pre-staged rounds in ten end ahead of their edge.
    fn learn_round(&mut self, began: Instant) {
        if self.helpers.is_empty() {
            self.rounds.observe(began, self.clock.round_end(), true);
            let cap = TimerLead::CAP.min(self.tick / 8);
            self.round_lead = self.rounds.upper_decile().min(cap);
        }
    }

    fn next_msg(&mut self) -> Option<ShardMsg> {
        let local = self.local();
        local.posts.pop_front().or_else(|| local.rx.try_recv())
    }

    /// One engine round: `f` makes the engine call on the cleared sink,
    /// and what the call left is settled ([`Owner::settle_round`]) —
    /// unless the engine refused it, which leaves nothing.
    fn engine_call(&mut self, f: impl FnOnce(&mut Self) -> Result<()>) -> Result<()> {
        self.sink.clear();
        let out = f(self);
        if out.is_ok() {
            self.settle_round();
        }
        out
    }

    /// Everything an engine round leaves behind: a dispatch becomes
    /// this thread's next job or goes to its slot's helper, a
    /// cross-shard token is kept ("Work stealing": its instance adopted
    /// in a round of its own) or routes to its owning peer, the end of
    /// a migrated job goes home, and — only when anyone probes it — the
    /// advisory load is republished. The other actions
    /// need nothing from a thread: a `Boost` is priority bookkeeping,
    /// and with preemption refused at build no job is ever preempted,
    /// so there is no `Preempt`, and a `Cull` finds no paused job to
    /// drop — a culled job never left the engine's ready queue.
    fn settle_round(&mut self) {
        for &a in self.sink.as_slice() {
            let Action::Dispatch {
                worker: slot,
                job,
                version,
            } = a
            else {
                continue;
            };
            if let Some(helper) = self.helpers.get_mut(slot.index()) {
                helper.send(Some(Run(job, version, Arc::clone(&self.bodies))));
            } else {
                debug_assert!(self.next_job.is_none(), "one slot, one job");
                self.next_job = Some(Next::Run(job, version));
            }
        }
        self.engine.drain_outbox_into(&mut self.outbox);
        for k in 0..self.outbox.len() {
            let ra = self.outbox[k];
            let home = ra.worker.index();
            if self.peers.stealing {
                if let Some(c) = self.keep(&ra) {
                    self.kept.push((ra, c));
                    continue;
                }
                let keeper = &self.peers.keepers[home];
                self.report.steals.bounced += u64::from(keeper.inside());
                keeper.sending(self.engine.taskset().edges()[ra.edge as usize].dst.index());
            }
            self.peers.send(home, ShardMsg::Token(ra));
        }
        self.outbox.clear();
        self.engine.drain_homeward_into(&mut self.homeward);
        for note in self.homeward.drain(..) {
            self.peers.send(note.worker.index(), ShardMsg::Home(note));
        }
        while let Some((ra, c)) = self.kept.pop() {
            let now = self.clock.now();
            self.report.steals.continued += 1;
            self.sink.clear();
            self.engine
                .apply(now, &Input::Kept(ra, c), &mut self.sink)
                .expect("a kept instance is always adopted");
            self.settle_round();
        }
        if self.peers.stealing {
            // The advertised load is the *stealable* load: zero
            // whenever the steal probe would yield no hint (empty
            // queue, or a top job that must not migrate). Raw ready
            // counts would rank a shard whose queue holds only
            // unstealable work above one a thief can relieve.
            let hint = self.engine.steal_hint();
            let load = hint.map_or(0, |_| self.engine.ready_len());
            self.peers.board.publish(self.me, load);
        }
    }

    /// The tick round at `at` for the edge `next_tick`, begun at `now`,
    /// folding in the pending completions: one dispatch round sees the
    /// freed workers and the fresh releases together. Never ahead of
    /// its edge, however early the park before it was armed.
    fn tick_round(&mut self, at: Instant, now: Instant) {
        debug_assert!(now >= self.next_tick, "a tick round ahead of its edge");
        self.late.record(now.saturating_since(self.next_tick));
        self.engine_call(|o| {
            o.engine
                .apply(at, &Input::Tick { done: &o.done }, &mut o.sink)
        })
        .expect("completion protocol upheld");
        self.done.clear();
    }

    /// A job ran, here or on a helper: its record, and its completion
    /// queued for the next retiring round.
    fn job_done(&mut self, r: RtJobRecord) {
        self.report.records.push(r);
        self.last_done = self.last_done.max(r.completed);
        match r.outcome {
            JobOutcome::Completed => self.done.push((r.worker, r.job.id)),
            // Rare by construction: retired alone through the failure
            // path (successors are policy-gated there).
            JobOutcome::Failed => {
                self.engine_call(|o| {
                    o.engine
                        .apply(r.completed, &Input::Failed(r.worker, r.job.id), &mut o.sink)
                })
                .expect("failure protocol upheld");
            }
        }
    }

    /// Applies one command, and takes it off the count of unfinished
    /// work once it has (a `Done` was never on it). A drained owner first
    /// puts its own 1 back, so the count does not reach 0 while it works.
    fn handle(&mut self, msg: ShardMsg) {
        if std::mem::take(&mut self.drained) {
            self.peers.lanes.open();
        }
        let counted = !matches!(msg, ShardMsg::Done(_));
        match msg {
            ShardMsg::Done(record) => self.job_done(record),
            ShardMsg::Activate(task) => {
                let now = self.clock.now();
                // An activation the engine refuses is dropped.
                let _ =
                    self.engine_call(|o| o.engine.apply(now, &Input::Activate(task), &mut o.sink));
            }
            ShardMsg::Token(ra) => {
                let now = self.clock.now();
                self.engine_call(|o| o.engine.apply(now, &Input::Token(ra), &mut o.sink))
                    .expect("cross-shard token routed to the owning shard");
                if self.peers.stealing {
                    let dst = self.engine.taskset().edges()[ra.edge as usize].dst;
                    self.peers.doors.applied(dst.index());
                }
            }
            ShardMsg::Home(note) => {
                let now = self.clock.now();
                self.engine_call(|o| o.engine.apply(now, &Input::Home(note), &mut o.sink))
                    .expect("the end of a migrated instance routed to its home");
            }
            // The notify hook sent it here, to the owner of its task.
            ShardMsg::Msg(ev) => {
                let now = self.clock.now();
                self.engine_call(|o| o.engine.apply(now, &Input::Msg(ev), &mut o.sink))
                    .expect("message event routed to the owner of its task");
            }
            ShardMsg::Admit {
                taskset,
                bodies,
                tenant,
                first_task,
                budget,
                at,
                then,
            } => {
                // Control path: allocation is fine, the tenant is not
                // running yet (module docs of `yasmin_sched::admission`).
                let install = Input::Install {
                    merged: &taskset,
                    tenant,
                    first_task,
                    budget,
                };
                self.engine
                    .apply(at, &install, &mut self.sink)
                    .expect("admission validated by the admitting thread");
                self.bodies = bodies;
                match then {
                    // Nothing of a former holder is left to tell apart
                    // (`Owner::commit`): every instant from here on is
                    // the tenant's.
                    Spliced::Commit => self.commit(tenant, self.clock.now().min(self.next_tick)),
                    Spliced::Ack(ack) => {
                        ack.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            ShardMsg::Commit { tenant, since } => self.commit(tenant, since),
            ShardMsg::Retire(tenant) => {
                let now = self.clock.now();
                self.engine_call(|o| o.engine.apply(now, &Input::Retire(tenant), &mut o.sink))
                    .expect("retirement validated by the retiring thread");
            }
            ShardMsg::Stop | ShardMsg::Shutdown => {
                // Shutdown implies stop: the drain terminates only once
                // releases cease.
                let _ = self.engine.apply(self.now, &Input::Stop, &mut self.sink);
                self.shutting_down |= matches!(msg, ShardMsg::Shutdown);
            }
        }
        if counted {
            // Never the last: this owner still holds its own 1.
            self.peers.lanes.finish();
        }
    }

    /// Arms a spliced tenant's releases at this owner's **next tick
    /// edge**, not at the instant the command is handled: the owner
    /// dispatches on a fixed tick grid, and an off-grid release phase
    /// would delay every dispatch of the tenant by up to one tick. It
    /// only arms ([`Input::Commit`]): the tick round of
    /// that edge releases the tenant's first jobs, after every command
    /// drained ahead of it — a retirement queued behind the admission
    /// included. A commit racing a `stop()` is refused by the engine
    /// (`ScheduleNotRunning`): the schedule is ending anyway, so the
    /// tenant never starts.
    ///
    /// In a recycled slot the tenant begins at `since`
    /// ([`Input::Commit`]). One owner's former holders'
    /// jobs are all here, culled or marked by their retirement, so any
    /// instant up to the tenant's first release will do; shards are
    /// sent one taken after every shard spliced it, hence retired the
    /// slot's former holder.
    fn commit(&mut self, tenant: TenantId, since: Instant) {
        let anchor = self.next_tick;
        let commit = Input::Commit {
            tenant,
            anchor,
            since,
        };
        let _ = self.engine.apply(self.now, &commit, &mut self.sink);
    }

    /// The drain after `Shutdown` ("Shutting down"); `true` when this
    /// owner may exit. Locally quiet — engine idle (helpers' jobs retired
    /// like its own), no spilled send — it takes its own 1 off the count.
    fn drain(&mut self) -> bool {
        if !self.drained && self.engine.is_idle() && self.peers.pending_empty() {
            self.drained = true;
            self.peers.drained();
        }
        self.drained && self.peers.lanes.finished()
    }

    /// Thief side of a steal; `true` when jobs were taken and adopted.
    fn steal(&mut self) -> bool {
        self.steal_batch.clear();
        if let Some(victim) = self.peers.victim(self.me) {
            // Half the advertised load gap: a thief this idle takes
            // more from a deeply loaded victim, and never more than a
            // shelf holds.
            let ready = self.engine.ready_len();
            let k = (self.peers.board).steal_batch_size(victim, ready, MAX_STEAL_BATCH);
            let batch = &mut self.steal_batch;
            self.peers.shelves[victim].claim(k, |job| {
                batch.push(job);
            });
        }
        if self.steal_batch.is_empty() {
            // Nothing on offer, or another thief was faster.
            self.report.steals.empty_probes += 1;
            return false;
        }
        self.report.steals.claims += 1;
        self.report.steals.jobs_claimed += self.steal_batch.len() as u64;
        let now = self.clock.now();
        self.engine_call(|o| {
            o.engine
                .apply(now, &Input::Adopt(o.steal_batch.as_slice()), &mut o.sink)
        })
        .expect("a shelf holds its own shard's jobs only");
        true
    }

    /// The instance of `token`'s successor this owner keeps instead of
    /// sending `token` ("Work stealing"): one its engine may keep, from
    /// a door the successor's home opened before its body.
    fn keep(&mut self, token: &RemoteActivation) -> Option<Continuation> {
        let task = self.engine.keepable(token)?;
        let (seq, id) = self.peers.keepers[token.worker.index()].keep(task.index())?;
        let id = JobId::new(id);
        Some(Continuation { task, seq, id })
    }

    /// How far ahead of the point where a tick edge's round runs — the
    /// round lead ahead of the edge — the near park is armed, and how far
    /// ahead of that the far park (module docs, "The tick edge"): what
    /// this thread's parks of each kind taught it, the far lead with
    /// [`FAR_MARGIN`], the two and the round lead together at most
    /// `TimerLead::CAP` and at most an eighth of a tick — a lead as long
    /// as the tick would leave nothing to park for.
    fn leads(&self) -> (Duration, Duration) {
        let cap = TimerLead::CAP.min(self.tick / 8) - self.round_lead;
        let near = self.near_lead.lead().min(cap);
        let far = self.far_lead.upper_decile() + FAR_MARGIN;
        (near, far.min(cap - near))
    }

    /// Nothing to do: how the thread waits for something.
    fn idle(&mut self, thief: bool) -> Next {
        let spilled = !self.peers.pending_empty();
        let wake = WakeSet::EDGE
            .with(WakeSource::PeerShelf, thief)
            .with(WakeSource::AllDrained, self.drained)
            .with(WakeSource::SpillRetry, spilled);
        if thief {
            self.peers.board.set_idle(self.me, true);
        }
        let retry = match spilled {
            true => self.now + SPILL_RETRY,
            false => Instant::MAX,
        };
        // Where the next edge's round is pre-staged: the edge itself on
        // an owner without a round lead.
        let stage_at = self.next_tick - self.round_lead;
        if self.waiting == WaitChoice::Sleep {
            let (near, far) = self.leads();
            let near_at = stage_at - near;
            let far_at = near_at - far;
            if self.now < near_at {
                // Near when idle at or past the far arming point: its
                // far park ended there, or its last job did.
                (self.parked_near, self.near_at) = (self.now >= far_at, near_at);
                self.report.ticks.near_parks += u64::from(self.parked_near);
                let armed = if self.parked_near { near_at } else { far_at };
                return Next::Park {
                    until: armed.min(retry),
                    wake,
                };
            }
            // Idle inside the near lead: a park ended there, or a job did.
            self.report.ticks.early_wakes += 1;
        }
        Next::SpinTo {
            edge: stage_at.min(retry),
            wake,
        }
    }

    /// What a sleeping or spinning owner watches besides its mailbox.
    pub(crate) fn also_ready(&self, wake: WakeSet) -> bool {
        (wake.has(WakeSource::PeerShelf) && self.peers.victim(self.me).is_some())
            || (wake.has(WakeSource::AllDrained) && self.peers.lanes.finished())
    }

    /// The park `step` asked for is over; `unrung` says the thread slept
    /// and no ringer claimed the sleep (`MailboxReceiver::park`). Its
    /// lateness feeds the lead of its kind, far or near, when it *ran
    /// into its timeout*: unrung — whatever quiet commands wait in the
    /// mailbox, which rang nobody — not capped by `SPILL_RETRY`, and not
    /// back before `armed` (a stale token). A park a ring ended says
    /// nothing about the timer. A far park that ran into its timeout at
    /// or past the near arming point is a far overshoot.
    pub(crate) fn woke(&mut self, armed: Instant, wake: WakeSet, unrung: bool) {
        let timed_out = unrung && !wake.has(WakeSource::SpillRetry);
        let now = self.clock.now();
        let overshot = !self.parked_near && timed_out && now >= self.near_at;
        self.report.ticks.far_overshoots += u64::from(overshot);
        let lead = match self.parked_near {
            true => &mut self.near_lead,
            false => &mut self.far_lead,
        };
        lead.observe(armed, now, timed_out);
        self.woke_at = now;
        if wake.has(WakeSource::PeerShelf) {
            self.peers.board.set_idle(self.me, false);
        }
    }

    /// The spin `step` asked for ended at `to`.
    pub(crate) fn spun(&mut self, to: Instant, wake: WakeSet) {
        self.report.ticks.spin_ns += to.saturating_since(self.now).as_nanos();
        self.woke_at = to;
        if wake.has(WakeSource::PeerShelf) {
            self.peers.board.set_idle(self.me, false);
        }
    }

    /// Right before the body of the job `step` answered: nobody can ask
    /// this thread for work while it is inside, so what it can spare
    /// goes on the shelf first, and the doors open on what a peer may
    /// keep (module docs, "Work stealing").
    pub(crate) fn begin_body(&mut self) {
        if !self.peers.stealing {
            return;
        }
        let k = self.peers.shelf.room();
        self.sink.clear();
        let _ = self
            .engine
            .apply(self.now, &Input::Lend { k }, &mut self.sink);
        // After the shelf: a predecessor on it may end on a thief.
        let _ = self.engine.apply(self.now, &Input::Offer, &mut self.sink);
        self.shelved = 0;
        for &a in self.sink.as_slice() {
            match a {
                Action::Lend { job } => {
                    self.peers.shelf.put(job).expect("room was counted");
                    self.shelved += 1;
                }
                Action::Offer(c) => {
                    self.peers.doors.open(c.task.index(), c.seq, c.id.raw());
                    self.offered.push(c);
                }
                _ => {}
            }
        }
        self.peers.doors.enter();
        if self.shelved > 0 {
            self.report.steals.shelved += self.shelved as u64;
            self.peers.wake_thieves(self.me, self.shelved);
        }
    }

    /// Runs `run` on the body of `key` with this owner's mailbox and
    /// queue in `LOCAL`, where [`post`] and [`wait_for`] find them.
    pub(crate) fn in_body<R>(
        &mut self,
        key: (TaskId, VersionId),
        run: impl FnOnce(&TaskBody) -> R,
    ) -> R {
        LOCAL.with_borrow_mut(|l| std::mem::swap(l, &mut self.local));
        let out = run(self.bodies.get(key.0, key.1));
        LOCAL.with_borrow_mut(|l| std::mem::swap(l, &mut self.local));
        out
    }

    /// The body is over: the job boundary begins.
    pub(crate) fn end_body(&mut self, record: RtJobRecord) {
        // Close the shelf before anything looks at the engine: what a
        // thief claimed is donated, the rest is back in the queue under
        // its own key, as if it had never left.
        let shelved = self.shelved;
        if shelved > 0 {
            self.steal_batch.clear();
            let batch = &mut self.steal_batch;
            let unclaimed = self.peers.shelf.close(|spare| {
                batch.push(spare);
            });
            let returned = Input::Returned(self.steal_batch.as_slice());
            let _ = self.engine.apply(self.now, &returned, &mut self.sink);
            self.report.steals.taken += (shelved - unclaimed) as u64;
        }
        // Then the doors: what a peer kept is booked here, in flight.
        if self.peers.stealing {
            self.peers.doors.leave();
            for c in self.offered.drain(..) {
                if self.peers.doors.close(c.task.index()) {
                    let _ = self
                        .engine
                        .apply(self.now, &Input::Booked(c), &mut self.sink);
                }
            }
        }
        // The edges the body ran across, in time order and ahead of its
        // completion: overrun enforcement and the miss trip find the
        // job still in its slot.
        while self.next_tick <= record.completed {
            self.tick_round(self.next_tick, record.completed);
            self.next_tick += self.tick;
            self.report.ticks.body_crossed += 1;
        }
        self.woke_at = Instant::ZERO;
        self.job_done(record);
    }

    /// The exited owner's records and counters.
    pub(crate) fn into_report(mut self, pinned: bool) -> OwnerReport {
        let (near, far) = self.leads();
        let ticks = &mut self.report.ticks;
        (ticks.edges, ticks.late_max_ns) = (self.late.count, self.late.max);
        (ticks.lead_ns, ticks.far_lead_ns) = (near.as_nanos(), far.as_nanos());
        ticks.round_lead_ns = self.round_lead.as_nanos();
        ticks.late_p50_ns = self.late.median();
        self.report.stats = self.engine.stats().clone();
        self.report.pinned = pinned;
        self.report
    }
}

#[cfg(test)]
mod harness;

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_os = "linux")]
    use crate::test_util::{alone_in_child, thread_sleeps};
    use crate::test_util::{must_return, nap_ms, one_owner, sharded, wall_clock, within_attempts};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use yasmin_core::config::{Config, MappingScheme};
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::Priority;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::Duration;
    use yasmin_core::version::VersionSpec;
    use yasmin_sched::admission::AdmissionError;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn sharded_config(workers: usize) -> Config {
        sharded(workers).build().unwrap()
    }

    #[test]
    fn per_shard_periodic_tasks_fire_on_both_workers() {
        let _clock = wall_clock();
        let mut b = TaskSetBuilder::new();
        let mut ids = Vec::new();
        for w in 0..2u16 {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{w}"), ms(5)).on_worker(WorkerId::new(w)))
                .unwrap();
            let v = b
                .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
                .unwrap();
            ids.push((t, v));
        }
        let ts = Arc::new(b.build().unwrap());
        let counts: Vec<Arc<AtomicU32>> = (0..2).map(|_| Arc::new(AtomicU32::new(0))).collect();
        let mut builder = RuntimeBuilder::new(ts, sharded_config(2));
        for (w, (t, v)) in ids.iter().enumerate() {
            let c = Arc::clone(&counts[w]);
            builder = builder.body(*t, *v, move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let rt = builder.build().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        for (w, c) in counts.iter().enumerate() {
            let n = c.load(Ordering::SeqCst);
            assert!(n >= 4, "worker {w} only ran {n} jobs");
        }
        assert_eq!(
            report.records.len() as u32,
            counts.iter().map(|c| c.load(Ordering::SeqCst)).sum::<u32>()
        );
        assert_eq!(report.engine_stats.completed, report.records.len() as u64);
        // Every record names the worker its task was pinned to.
        for r in &report.records {
            assert_eq!(
                r.worker.index(),
                r.job.task.index(),
                "task w pinned to worker w"
            );
        }
    }

    #[test]
    fn activation_routes_to_the_owning_shard() {
        let _clock = wall_clock();
        let mut b = TaskSetBuilder::new();
        let p = b
            .task_decl(TaskSpec::periodic("p", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vp = b
            .version_decl(p, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let a = b
            .task_decl(TaskSpec::aperiodic("a").on_worker(WorkerId::new(1)))
            .unwrap();
        let va = b
            .version_decl(a, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let on = Arc::new(AtomicU32::new(u32::MAX));
        let on2 = Arc::clone(&on);
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(p, vp, |_| {})
            .body(a, va, move |ctx| {
                h2.fetch_add(1, Ordering::SeqCst);
                on2.store(u32::from(ctx.worker.raw()), Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        rt.activate(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(25));
        rt.stop();
        let _ = rt.cleanup();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(on.load(Ordering::SeqCst), 1, "ran on its assigned worker");
    }

    #[test]
    fn preemptive_sharded_config_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let preemptive = Config::builder()
            .workers(1)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .build()
            .unwrap();
        assert!(RuntimeBuilder::new(ts, preemptive)
            .body(t, v, |_| {})
            .build()
            .is_err());
    }

    #[test]
    fn cross_shard_dag_fires_on_the_owning_worker() {
        let _clock = wall_clock();
        // src (periodic, worker 0) -> dst (graph node, worker 1): the
        // successor must run on worker 1, fed by `Token` commands
        // routed through the peer lanes.
        let mut b = TaskSetBuilder::new();
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vs = b
            .version_decl(src, VersionSpec::new("s", Duration::from_micros(50)))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
            .unwrap();
        let vd = b
            .version_decl(dst, VersionSpec::new("d", Duration::from_micros(50)))
            .unwrap();
        let c = b.channel_decl("c", 1, 8);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let dst_hits = Arc::new(AtomicU32::new(0));
        let dh = Arc::clone(&dst_hits);
        let dst_worker = Arc::new(AtomicU32::new(u32::MAX));
        let dw = Arc::clone(&dst_worker);
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(src, vs, |_| {})
            .body(dst, vd, move |ctx| {
                dh.fetch_add(1, Ordering::SeqCst);
                dw.store(u32::from(ctx.worker.raw()), Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        let hits = dst_hits.load(Ordering::SeqCst);
        assert!(hits >= 4, "successor fired only {hits} times");
        assert_eq!(
            dst_worker.load(Ordering::SeqCst),
            1,
            "successor runs on its assigned worker"
        );
        assert!(
            report.engine_stats.cross_activations >= u64::from(hits),
            "every firing crossed shards"
        );
        // Every dst record names worker 1.
        for r in report.records.iter().filter(|r| r.job.task == dst) {
            assert_eq!(r.worker, WorkerId::new(1));
        }
    }

    #[test]
    fn work_stealing_drains_an_imbalanced_shard() {
        let _clock = wall_clock();
        // Worker 0 owns a burst of aperiodic jobs; worker 1 owns only a
        // light periodic tick source. With stealing enabled, worker 1
        // must pull jobs over and every activation must complete.
        const BURST: usize = 6;
        let mut b = TaskSetBuilder::new();
        let light = b
            .task_decl(TaskSpec::periodic("light", ms(5)).on_worker(WorkerId::new(1)))
            .unwrap();
        let vl = b
            .version_decl(light, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let mut heavy = Vec::new();
        for i in 0..BURST {
            let t = b
                .task_decl(TaskSpec::aperiodic(format!("h{i}")).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = b.version_decl(t, VersionSpec::new("v", ms(4))).unwrap();
            heavy.push((t, v));
        }
        let ts = Arc::new(b.build().unwrap());
        let taskset = Arc::clone(&ts);
        let ran = Arc::new(AtomicU32::new(0));
        let mut builder = RuntimeBuilder::new(ts, sharded_config(2))
            .work_stealing(true)
            .body(light, vl, |_| {});
        for &(t, v) in &heavy {
            let r = Arc::clone(&ran);
            builder = builder.body(t, v, move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(3));
            });
        }
        let rt = builder.build().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        for &(t, _) in &heavy {
            rt.activate(t).unwrap();
        }
        // 6 jobs x 3ms on one worker would take ~18ms; give the pair
        // plenty of slack, then drain.
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        assert_eq!(
            ran.load(Ordering::SeqCst) as usize,
            BURST,
            "every activated job ran"
        );
        assert!(
            report.engine_stats.stolen >= 1,
            "the idle shard must steal from the loaded one (stats: {:?})",
            report.engine_stats
        );
        assert_eq!(report.engine_stats.stolen, report.engine_stats.donated);
        // Every migration rides a batch grant (a single steal is a
        // batch of one), and the batch-length histogram books exactly
        // one entry per exchange.
        assert!(report.engine_stats.stolen_batch >= 1);
        assert!(report.engine_stats.stolen_batch <= report.engine_stats.stolen);
        assert_eq!(
            report.engine_stats.steal_batch_len.iter().sum::<u64>(),
            report.engine_stats.stolen_batch
        );
        // Stolen jobs are recorded under the worker that actually ran
        // them: exactly `stolen` records name a worker other than the
        // task's assigned one (stealing may also move worker 1's light
        // jobs the other way while it serves stolen heavy work).
        let migrated = report
            .records
            .iter()
            .filter(|r| {
                taskset.tasks()[r.job.task.index()].spec().assigned_worker() != Some(r.worker)
            })
            .count();
        assert_eq!(migrated as u64, report.engine_stats.stolen);
        assert!(
            report.records.iter().any(
                |r| r.worker == WorkerId::new(1) && heavy.iter().any(|&(t, _)| t == r.job.task)
            ),
            "at least one heavy job ran on the idle worker"
        );
    }

    #[test]
    fn batch_steal_grants_multiple_jobs_in_one_exchange() {
        let _clock = wall_clock();
        // A heavy burst parked on shard 0's queue while shard 1 idles:
        // the thief's probe sees a wide load gap, asks for k > 1, and a
        // single `StolenBatch` grant migrates several jobs at once. The
        // CI TSan step runs this whole exchange under ThreadSanitizer —
        // the hint scan, the k-job detach and the one-ack adoption are
        // raced against the victim's own dispatching, not just the
        // single-steal protocol of the test above.
        const BURST: usize = 12;
        let mut b = TaskSetBuilder::new();
        let light = b
            .task_decl(TaskSpec::periodic("light", ms(5)).on_worker(WorkerId::new(1)))
            .unwrap();
        let vl = b
            .version_decl(light, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let mut heavy = Vec::new();
        for i in 0..BURST {
            let t = b
                .task_decl(TaskSpec::aperiodic(format!("h{i}")).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = b.version_decl(t, VersionSpec::new("v", ms(4))).unwrap();
            heavy.push((t, v));
        }
        let ts = Arc::new(b.build().unwrap());
        let ran = Arc::new(AtomicU32::new(0));
        let mut builder = RuntimeBuilder::new(ts, sharded_config(2))
            .work_stealing(true)
            .body(light, vl, |_| {});
        for &(t, v) in &heavy {
            let r = Arc::clone(&ran);
            builder = builder.body(t, v, move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(3));
            });
        }
        let rt = builder.build().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        for &(t, _) in &heavy {
            rt.activate(t).unwrap();
        }
        // 12 jobs x 3ms on one worker would take ~36ms; give the pair
        // plenty of slack, then drain.
        std::thread::sleep(std::time::Duration::from_millis(120));
        rt.stop();
        let report = rt.cleanup();
        assert_eq!(
            ran.load(Ordering::SeqCst) as usize,
            BURST,
            "every activated job ran"
        );
        assert!(
            report.engine_stats.stolen_batch >= 1,
            "the idle shard must steal (stats: {:?})",
            report.engine_stats
        );
        assert!(
            report.engine_stats.steal_batch_len[1..].iter().sum::<u64>() >= 1,
            "a 12-deep queue against an idle thief must grant more than \
             one job in some exchange (histogram {:?})",
            report.engine_stats.steal_batch_len
        );
        assert_eq!(report.engine_stats.stolen, report.engine_stats.donated);
        assert_eq!(
            report.engine_stats.steal_batch_len.iter().sum::<u64>(),
            report.engine_stats.stolen_batch
        );
    }

    /// A sharded pair with stealing on: `gate` (worker 0) keeps its
    /// shard inside a body until the flag is raised, so that whatever is
    /// activated meanwhile is queued — in activation order — when that
    /// body ends; `light` gives shard 1 a tick and nothing else to do.
    struct Gated {
        b: TaskSetBuilder,
        gate: (TaskId, VersionId),
        light: (TaskId, VersionId),
    }

    impl Gated {
        fn new() -> Self {
            let mut b = TaskSetBuilder::new();
            let gate = task(&mut b, TaskSpec::aperiodic("gate"), 0, ms(1));
            let light = task(&mut b, TaskSpec::periodic("light", ms(100)), 1, ms(1));
            Gated { b, gate, light }
        }

        /// Builds with `bodies` added, runs `gate`, activates `queued`
        /// behind it in order, opens the gate and reports after `run_ms`.
        fn run(
            self,
            bodies: Vec<((TaskId, VersionId), TaskBody)>,
            queued: &[TaskId],
            run_ms: u64,
        ) -> crate::RuntimeReport {
            let ts = Arc::new(self.b.build().unwrap());
            let inside = Arc::new(AtomicBool::new(false));
            let open = Arc::new(AtomicBool::new(false));
            let (is_inside, is_open) = (Arc::clone(&inside), Arc::clone(&open));
            let mut builder = RuntimeBuilder::new(ts, sharded_config(2))
                .work_stealing(true)
                .body(self.light.0, self.light.1, |_| {})
                .body(self.gate.0, self.gate.1, move |_| {
                    is_inside.store(true, Ordering::SeqCst);
                    while !is_open.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                });
            for ((t, v), body) in bodies {
                builder = builder.body(t, v, move |ctx| body(ctx));
            }
            let rt = builder.build().unwrap();
            rt.activate(self.gate.0).unwrap();
            while !inside.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            for &t in queued {
                rt.activate(t).unwrap();
            }
            open.store(true, Ordering::SeqCst);
            nap_ms(run_ms);
            rt.stop();
            rt.cleanup()
        }
    }

    #[test]
    fn a_thief_does_not_wait_for_the_victims_body() {
        let _clock = wall_clock();
        // Shard 0 enters a 30 ms body with four short jobs queued behind
        // it; shard 1 is parked with nothing to do. The four lie on
        // shard 0's shelf for those 30 ms, and shard 1 has run them all
        // before the body ends. (Asking shard 0 would take until the
        // body's end: it reads no mailbox meanwhile.)
        within_attempts(3, || {
            let mut g = Gated::new();
            let long = task(&mut g.b, TaskSpec::aperiodic("long"), 0, ms(30));
            let shorts: Vec<_> = (0..4)
                .map(|i| task(&mut g.b, TaskSpec::aperiodic(format!("s{i}")), 0, ms(1)))
                .collect();
            let mut bodies: Vec<((TaskId, VersionId), TaskBody)> =
                vec![(long, Arc::new(|_: &JobCtx| nap_ms(30)))];
            bodies.extend(shorts.iter().map(|&s| (s, Arc::new(|_: &JobCtx| {}) as _)));
            let mut queued = vec![long.0];
            queued.extend(shorts.iter().map(|s| s.0));
            let report = g.run(bodies, &queued, 60);

            let of = |t: TaskId| report.records.iter().find(|r| r.job.task == t);
            let long_ended = of(long.0).expect("long ran").completed;
            for (s, _) in &shorts {
                let r = of(*s).expect("every short job ran");
                if r.worker != WorkerId::new(1) || r.completed >= long_ended {
                    return Err(format!(
                        "{s} ran on {} and ended {} after the long body",
                        r.worker,
                        r.completed.saturating_since(long_ended)
                    ));
                }
            }
            let (victim, thief) = (report.steal_stats[0], report.steal_stats[1]);
            assert_eq!((victim.shelved, victim.taken), (4, 4), "{victim:?}");
            assert_eq!(thief.jobs_claimed, 4, "{thief:?}");
            assert!((1..=4).contains(&thief.claims), "{thief:?}");
            assert_eq!(report.engine_stats.stolen, 4);
            assert_eq!(report.engine_stats.donated, 4);
            Ok(())
        });
    }

    #[test]
    fn the_running_tasks_next_instance_stays_home() {
        let _clock = wall_clock();
        // Queued behind the gate: two instances of `twice`, then
        // `other`. While the first instance runs the second is the most
        // urgent job of the queue, and it must stay: nothing is shelved,
        // `other` behind it included. While the second runs, `other` is
        // on offer.
        let mut g = Gated::new();
        let twice = task(&mut g.b, TaskSpec::aperiodic("twice"), 0, ms(10));
        let other = task(&mut g.b, TaskSpec::aperiodic("other"), 0, ms(1));
        let bodies: Vec<((TaskId, VersionId), TaskBody)> = vec![
            (twice, Arc::new(|_: &JobCtx| nap_ms(10))),
            (other, Arc::new(|_: &JobCtx| {})),
        ];
        let report = g.run(bodies, &[twice.0, twice.0, other.0], 60);

        let of = |t: TaskId| report.records.iter().filter(move |r| r.job.task == t);
        let instances: Vec<_> = of(twice.0).collect();
        assert_eq!(instances.len(), 2);
        for r in &instances {
            assert_eq!(r.worker, WorkerId::new(0), "{:?} migrated", r.job);
        }
        assert!(instances[1].started >= instances[0].completed);
        let other = of(other.0).next().expect("other ran");
        assert!(
            other.started >= instances[0].completed,
            "other was on offer while the first instance ran"
        );
        assert_eq!(report.steal_stats[0].shelved, 1, "other, once");
        assert_eq!(report.engine_stats.stolen, report.engine_stats.donated);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn an_idle_thief_with_empty_shelves_stays_parked() {
        let _clock = wall_clock();
        // Every 50 ms shard 0 spends 20 ms in `busy` with `spare` queued
        // behind it. Shard 1 takes `spare` off the shelf at once — and
        // for the rest of those 20 ms the load board still shows shard 0
        // loaded (it publishes between bodies) while its shelf is empty:
        // the thief has to sleep on the shelf, not poll the board.
        if !alone_in_child("owner::tests::an_idle_thief_with_empty_shelves_stays_parked") {
            return;
        }
        let mut b = TaskSetBuilder::new();
        let busy = task(&mut b, TaskSpec::periodic("busy", ms(50)), 0, ms(20));
        let spare = task(&mut b, TaskSpec::periodic("spare", ms(50)), 0, ms(1));
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .work_stealing(true)
            .body(busy.0, busy.1, |_| nap_ms(20))
            .body(spare.0, spare.1, |_| {})
            .build()
            .unwrap();
        nap_ms(20);
        let before = thread_sleeps(&["yasmin-"]);
        nap_ms(300);
        let after = thread_sleeps(&["yasmin-"]);
        rt.stop();
        let report = rt.cleanup();
        let thief = report.steal_stats[1];
        assert!(thief.jobs_claimed >= 4, "spare was stolen: {thief:?}");
        assert_eq!(before.len(), 2, "two shard threads");
        for (tid, (name, sleeps_before)) in &before {
            let slept = after[tid].1 - sleeps_before;
            assert!(
                slept <= 60,
                "{name} (tid {tid}) blocked {slept} times in six 50 ms ticks: {thief:?}"
            );
        }
        assert!(thief.empty_probes <= 60, "{thief:?}");
    }

    #[test]
    fn stealing_beside_admit_and_retire_loses_and_doubles_nothing() {
        let _clock = wall_clock();
        // Shard 0 is 60 % loaded by three 1 ms jobs every 5 ms, so there
        // is always something on its shelf and shard 1 steals all the
        // time; meanwhile tenants with a task on shard 0 are admitted
        // and retired back to back — their jobs are shelved, stolen,
        // returned and culled like any other. Every released job ends up
        // in exactly one place.
        let mut b = TaskSetBuilder::new();
        let mut ids = vec![task(&mut b, TaskSpec::periodic("light", ms(5)), 1, ms(1))];
        for i in 0..3 {
            ids.push(task(
                &mut b,
                TaskSpec::periodic(format!("h{i}"), ms(5)),
                0,
                ms(1),
            ));
        }
        let ts = Arc::new(b.build().unwrap());
        let mut builder = RuntimeBuilder::new(ts, sharded_config(2)).work_stealing(true);
        for (i, (t, v)) in ids.into_iter().enumerate() {
            builder = builder.body(t, v, move |_| nap_ms(u64::from(i > 0)));
        }
        let rt = builder.build().unwrap();
        let ran = Arc::new(AtomicU32::new(0));
        let until = std::time::Instant::now() + std::time::Duration::from_millis(150);
        let mut tenants = 0;
        while std::time::Instant::now() < until {
            let (cand, bodies) = candidate(5, Duration::from_micros(50), 0, &ran);
            let tenant = rt.admit(&cand, bodies, None).unwrap();
            nap_ms(7);
            rt.retire(tenant).unwrap();
            tenants += 1;
        }
        rt.stop();
        let report = rt.cleanup();
        let stats = &report.engine_stats;
        assert!(
            tenants >= 5 && ran.load(Ordering::SeqCst) >= 5,
            "tenants ran"
        );
        assert!(stats.stolen >= 10, "shard 1 stole throughout: {stats:?}");
        assert_eq!(stats.stolen, stats.donated);
        assert_eq!(
            stats.released,
            report.records.len() as u64 + stats.culled,
            "{stats:?}"
        );
        let sum = |f: fn(&StealStats) -> u64| report.steal_stats.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.taken), stats.donated);
        assert_eq!(sum(|s| s.jobs_claimed), stats.stolen);
        assert_eq!(sum(|s| s.claims), stats.stolen_batch);
        assert!(sum(|s| s.shelved) >= sum(|s| s.taken));
    }

    #[test]
    fn cross_shard_high_lane_boosts_the_receiver() {
        let _clock = wall_clock();
        // src (worker 0) streams typed messages to dst (worker 1) over
        // the channel bound to their DAG edge; every third message rides
        // the high lane. Both events go to shard 1, dst's owner. The post
        // hook runs in src's body on shard 0's thread and crosses into
        // shard 1's shared lane under its mutex; the drain hook runs in
        // dst's body on shard 1's thread, moves that lane behind its own
        // queue — popping it while shard 0 may push — and appends there.
        // Those are the thread crossings this smoke test exists to put
        // under TSan. dst outlasts the src period, so a high post always
        // finds a live dst job to boost.
        let mut b = TaskSetBuilder::new();
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vs = b
            .version_decl(src, VersionSpec::new("s", Duration::from_micros(50)))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
            .unwrap();
        let vd = b.version_decl(dst, VersionSpec::new("d", ms(8))).unwrap();
        let c = b.channel_decl_prioritized("data", 64, 8, 16, Priority::HIGHEST);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());

        let mut builder = RuntimeBuilder::new(ts, sharded_config(2));
        let (tx, rx) = builder.channel::<u64>(c).unwrap();
        let sent = Arc::new(AtomicU32::new(0));
        let got = Arc::new(AtomicU32::new(0));
        let s = Arc::clone(&sent);
        let g = Arc::clone(&got);
        let rt = builder
            .body(src, vs, move |_| {
                let n = s.fetch_add(1, Ordering::SeqCst);
                let _ = if n.is_multiple_of(3) {
                    tx.send_high(u64::from(n))
                } else {
                    tx.send(u64::from(n))
                };
            })
            .body(dst, vd, move |_| {
                while rx.recv().is_some() {
                    g.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(std::time::Duration::from_millis(8));
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        rt.stop();
        let report = rt.cleanup();
        assert!(sent.load(Ordering::SeqCst) >= 8);
        assert!(got.load(Ordering::SeqCst) >= 1, "messages delivered");
        assert!(
            report.engine_stats.msg_boosts >= 1,
            "a high post while dst is pending must boost it (stats: {:?})",
            report.engine_stats
        );
    }

    /// A candidate tenant in its own id space: one periodic task on
    /// `worker` with the given period/WCET, plus its body map.
    fn candidate(
        period_ms: u64,
        wcet: Duration,
        worker: u16,
        counter: &Arc<AtomicU32>,
    ) -> (TaskSet, Bodies) {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("tenant", ms(period_ms)).on_worker(WorkerId::new(worker)))
            .unwrap();
        let v = b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        let c = Arc::clone(counter);
        let mut bodies = Bodies::new();
        bodies.insert(
            (t, v),
            Arc::new(move |_: &JobCtx| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        (b.build().unwrap(), bodies)
    }

    #[test]
    fn tenant_admitted_into_running_schedule_executes_and_retires() {
        let _clock = wall_clock();
        let mut b = TaskSetBuilder::new();
        let base = b
            .task_decl(TaskSpec::periodic("base", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vb = b
            .version_decl(base, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let base_count = Arc::new(AtomicU32::new(0));
        let bc = Arc::clone(&base_count);
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(base, vb, move |_| {
                bc.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));

        let tenant_count = Arc::new(AtomicU32::new(0));
        let (cand, bodies) = candidate(5, Duration::from_micros(50), 1, &tenant_count);
        let tenant = rt
            .admit(&cand, bodies, Some(TenantBudget::deferrable(ms(2), ms(5))))
            .unwrap();
        assert_eq!(tenant.raw(), 1);

        std::thread::sleep(std::time::Duration::from_millis(40));
        let before_retire = tenant_count.load(Ordering::SeqCst);
        assert!(before_retire >= 4, "tenant only ran {before_retire} jobs");
        rt.retire(tenant).unwrap();
        assert!(
            matches!(rt.retire(tenant), Err(Error::TenantRetired(_))),
            "double retire must be refused"
        );
        std::thread::sleep(std::time::Duration::from_millis(30));
        let after = tenant_count.load(Ordering::SeqCst);
        // At most the in-flight job finishes after the retire.
        assert!(
            after <= before_retire + 1,
            "tenant kept running after retirement ({before_retire} -> {after})"
        );
        rt.stop();
        let report = rt.cleanup();

        // The tenant's task occupies the merged suffix: base set has one
        // task, so the tenant's task is T1, pinned to worker 1.
        let merged_id = TaskId::new(1);
        let tenant_recs: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.job.task == merged_id)
            .collect();
        assert_eq!(tenant_recs.len() as u32, after);
        // Its deadlines are the harness's to check
        // (`an_admitted_tenant_meets_its_deadlines_and_retires`): here a
        // busy host's late wake-ups would miss them, not the runtime.
        for r in &tenant_recs {
            assert_eq!(r.worker, WorkerId::new(1));
        }
        // The build-time tenant ran throughout.
        assert!(base_count.load(Ordering::SeqCst) >= 10);
    }

    #[test]
    fn overloaded_tenant_is_rejected_with_the_violated_bound() {
        let _clock = wall_clock();
        use yasmin_sched::BoundViolation;
        let mut b = TaskSetBuilder::new();
        let base = b
            .task_decl(TaskSpec::periodic("base", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vb = b
            .version_decl(base, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(base, vb, |_| {})
            .build()
            .unwrap();

        // 12ms of work every 10ms on worker 1: density 1.2 > 1.
        let noop = Arc::new(AtomicU32::new(0));
        let (cand, bodies) = candidate(10, ms(12), 1, &noop);
        match rt.admit(&cand, bodies, None) {
            Err(AdmissionError::Rejected(BoundViolation::WorkerOverload { worker, density })) => {
                assert_eq!(worker, WorkerId::new(1));
                assert!(density > 1.0);
            }
            other => panic!("expected worker-overload rejection, got {other:?}"),
        }
        // A missing body is caught before any shard hears of the tenant.
        let (cand, _) = candidate(10, ms(1), 1, &noop);
        assert!(matches!(
            rt.admit(&cand, Bodies::new(), None),
            Err(AdmissionError::Invalid(_))
        ));
        rt.stop();
        let report = rt.cleanup();
        assert_eq!(noop.load(Ordering::SeqCst), 0, "rejected tenant never ran");
        assert!(report.records.iter().all(|r| r.job.task == base));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_threads_stay_parked() {
        let _clock = wall_clock();
        // A parked thread blocks a few times per tick, a polling one (a
        // 100 µs nap) thousands of times in 300 ms.
        if !alone_in_child("owner::tests::idle_threads_stay_parked") {
            return;
        }

        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", ms(50)).on_worker(WorkerId::new(0)))
            .unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
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
        // The census: a shard is one thread, and there are no others.
        let mut names: Vec<&str> = before.values().map(|(name, _)| name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["yasmin-shard-sc", "yasmin-shard-sc"]);
        for (tid, (name, sleeps_before)) in &before {
            let (_, sleeps_after) = after[tid];
            let slept = sleeps_after - sleeps_before;
            assert!(
                slept <= 30,
                "{name} (tid {tid}) blocked {slept} times in 300 ms of a 50 ms schedule"
            );
        }
    }

    #[test]
    fn parked_thief_is_woken_by_load_appearing_mid_tick() {
        let _clock = wall_clock();
        // Tick 250 ms; shard 1 runs one light job at the first edge and
        // parks with nothing to steal. A burst lands on shard 0 between
        // two edges and is over long before the second (≈ 40 ms of work
        // for one worker; under ThreadSanitizer on a loaded two-core
        // host the 4 ms sleeps stretch to 10 ms, hence the wide tick):
        // unless shard 1 is woken *by the load* — not by its next tick
        // — nothing is stolen before the burst is over.
        const BURST: usize = 8;
        const TICK_MS: u64 = 250;
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let light = b
                .task_decl(TaskSpec::periodic("light", ms(TICK_MS)).on_worker(WorkerId::new(1)))
                .unwrap();
            let vl = b
                .version_decl(light, VersionSpec::new("v", Duration::from_micros(10)))
                .unwrap();
            let mut heavy = Vec::new();
            for i in 0..BURST {
                let t = b
                    .task_decl(TaskSpec::aperiodic(format!("h{i}")).on_worker(WorkerId::new(0)))
                    .unwrap();
                let v = b.version_decl(t, VersionSpec::new("v", ms(5))).unwrap();
                heavy.push((t, v));
            }
            let ts = Arc::new(b.build().unwrap());
            // Taken before any runtime thread exists, so no tick edge
            // after the first falls before `epoch + TICK_MS`.
            let epoch = std::time::Instant::now();
            let ran = Arc::new(AtomicU32::new(0));
            let last_done_us = Arc::new(AtomicU32::new(0));
            let mut builder = RuntimeBuilder::new(ts, sharded_config(2))
                .work_stealing(true)
                .body(light, vl, |_| {});
            for &(t, v) in &heavy {
                let ran = Arc::clone(&ran);
                let last = Arc::clone(&last_done_us);
                builder = builder.body(t, v, move |_| {
                    std::thread::sleep(std::time::Duration::from_millis(4));
                    last.fetch_max(epoch.elapsed().as_micros() as u32, Ordering::SeqCst);
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            let rt = builder.build().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            for &(t, _) in &heavy {
                rt.activate(t).unwrap();
            }
            while (ran.load(Ordering::SeqCst) as usize) < BURST
                && epoch.elapsed() < std::time::Duration::from_secs(2)
            {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            rt.stop();
            let report = rt.cleanup();
            assert_eq!(ran.load(Ordering::SeqCst) as usize, BURST);
            assert_eq!(report.engine_stats.stolen, report.engine_stats.donated);
            let last = last_done_us.load(Ordering::SeqCst);
            if report.engine_stats.stolen == 0 {
                return Err(format!(
                    "nothing stolen although the burst finished {last} µs in"
                ));
            }
            if u64::from(last) >= TICK_MS * 1_000 {
                return Err(format!(
                    "burst finished {last} µs in, past the next tick edge"
                ));
            }
            Ok(())
        });
    }

    #[test]
    fn control_lane_wakes_a_parked_scheduler() {
        let _clock = wall_clock();
        // Tick 50 ms, both shards parked between edges: an activation
        // and an admission must take effect when they are sent, not at
        // the next edge.
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let p = b
                .task_decl(TaskSpec::periodic("p", ms(50)).on_worker(WorkerId::new(0)))
                .unwrap();
            let vp = b
                .version_decl(p, VersionSpec::new("v", Duration::from_micros(10)))
                .unwrap();
            let a = b
                .task_decl(TaskSpec::aperiodic("a").on_worker(WorkerId::new(1)))
                .unwrap();
            let va = b
                .version_decl(a, VersionSpec::new("v", Duration::from_micros(10)))
                .unwrap();
            let ts = Arc::new(b.build().unwrap());
            let epoch = std::time::Instant::now();
            let ran_at_us = Arc::new(AtomicU32::new(0));
            let ran = Arc::clone(&ran_at_us);
            let rt = RuntimeBuilder::new(ts, sharded_config(2))
                .body(p, vp, |_| {})
                .body(a, va, move |_| {
                    ran.store(epoch.elapsed().as_micros() as u32, Ordering::SeqCst);
                })
                .build()
                .unwrap();
            std::thread::sleep(std::time::Duration::from_millis(15));

            let sent_us = epoch.elapsed().as_micros() as u32;
            rt.activate(a).unwrap();
            while ran_at_us.load(Ordering::SeqCst) == 0
                && epoch.elapsed() < std::time::Duration::from_secs(1)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let activation_us = ran_at_us.load(Ordering::SeqCst).saturating_sub(sent_us);

            // `admit` returns once every shard has acknowledged the
            // splice, so its duration is the control lane's round trip.
            let noop = Arc::new(AtomicU32::new(0));
            let (cand, bodies) = candidate(50, Duration::from_micros(50), 1, &noop);
            let t = std::time::Instant::now();
            let admitted = rt.admit(&cand, bodies, None);
            let admission_us = t.elapsed().as_micros();
            rt.stop();
            let _ = rt.cleanup();

            assert!(ran_at_us.load(Ordering::SeqCst) > 0, "activation never ran");
            admitted.expect("a light tenant on the running tick is admitted");
            if activation_us >= 5_000 || admission_us >= 5_000 {
                return Err(format!(
                    "activation took {activation_us} µs, admission {admission_us} µs"
                ));
            }
            Ok(())
        });
    }

    /// Declares a task pinned to `worker` with one version of `wcet`.
    fn task(
        b: &mut TaskSetBuilder,
        spec: TaskSpec,
        worker: u16,
        wcet: Duration,
    ) -> (TaskId, VersionId) {
        let t = b.task_decl(spec.on_worker(WorkerId::new(worker))).unwrap();
        let v = b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        (t, v)
    }

    #[test]
    fn spinning_shards_keep_their_schedule() {
        let _clock = wall_clock();
        // `WaitChoice::Spin`, one 5 ms task per shard for 200 ms: each
        // shard busy-waits alone on its thread, no job is lost and
        // `cleanup` returns. That every job starts within a period of
        // its release is the harness's to check
        // (`spinning_shards_start_every_job_within_a_period`): here a
        // busy host's late wake-ups would move it, not the runtime.
        let mut b = TaskSetBuilder::new();
        let ids = [0, 1].map(|w| {
            let spec = TaskSpec::periodic(format!("t{w}"), ms(5));
            task(&mut b, spec, w, Duration::from_micros(100))
        });
        let ts = Arc::new(b.build().unwrap());
        let config = sharded(2).waiting(WaitChoice::Spin).build().unwrap();
        let mut builder = RuntimeBuilder::new(ts, config);
        for (t, v) in ids {
            builder = builder.body(t, v, |_| {});
        }
        let rt = builder.build().unwrap();
        nap_ms(200);
        rt.stop();
        let report = rt.cleanup();
        for (task, _) in ids {
            let seqs: Vec<u64> = report
                .records
                .iter()
                .filter(|r| r.job.task == task)
                .map(|r| r.job.seq)
                .collect();
            assert!(seqs.len() >= 30, "{task} ran {seqs:?}");
            assert!(
                seqs.iter().copied().eq(0..seqs.len() as u64),
                "{task} lost a job: {seqs:?}"
            );
        }
    }

    #[test]
    fn late_hist_keeps_four_leading_bits() {
        let mut h = LateHist::new();
        assert_eq!(h.median(), 0);
        // Small values are exact, the largest a `u64` holds has a bucket.
        for ns in [0, 7, 8, 15, u64::MAX] {
            let mut one = LateHist::new();
            one.record(Duration::from_nanos(ns));
            let width = if ns < 16 { 1 } else { 1u64 << (ns.ilog2() - 3) };
            assert!(one.median().abs_diff(ns) <= width / 2 + 1, "{ns}");
        }
        // 60 µs three times, 170 µs twice: the median is the 60 µs
        // bucket's middle, within a sixteenth of the value.
        for us in [170, 60, 60, 170, 60] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!((h.count, h.max), (5, 170_000));
        assert!(h.median().abs_diff(60_000) <= 60_000 / 16, "{}", h.median());
    }

    #[test]
    fn no_job_starts_before_its_release() {
        let _clock = wall_clock();
        // 1 s of a 2 ms tick — some 490 edges met with the park armed
        // early, on one owner and on two shards: arming early moves no
        // dispatch ahead of its edge (in debug builds `tick_round`
        // asserts the same of every round).
        for config in [one_owner(1), sharded_config(2)] {
            let workers = config.workers() as u16;
            let mut b = TaskSetBuilder::new();
            let mut ids = Vec::new();
            for w in 0..workers {
                for period in [2, 6] {
                    let spec = TaskSpec::periodic(format!("t{w}p{period}"), ms(period));
                    ids.push(task(&mut b, spec, w, Duration::from_micros(20)));
                }
            }
            let ts = Arc::new(b.build().unwrap());
            let mut builder = RuntimeBuilder::new(ts, config);
            for (t, v) in ids {
                builder = builder.body(t, v, |_| {});
            }
            let rt = builder.build().unwrap();
            nap_ms(1_000);
            rt.stop();
            let report = rt.cleanup();
            assert!(report.records.len() >= 100, "the schedule ran");
            for r in &report.records {
                assert!(
                    r.started >= r.job.release,
                    "{:?} started {} ahead of its release",
                    r.job,
                    r.job.release - r.started
                );
            }
            assert_eq!(report.tick_stats.len(), usize::from(workers));
            for t in &report.tick_stats {
                assert!(t.edges >= 50, "{t:?}");
                assert!(t.late_p50_ns <= t.late_max_ns, "{t:?}");
            }
        }
    }

    #[test]
    fn a_body_may_post_more_than_its_home_lane_holds() {
        let _clock = wall_clock();
        // Every src job posts 100 high messages: 100 events from a body
        // on shard 0 into the shared lane of shard 1, dst's owner, which
        // holds 64 — the job waits for room, which shard 1 makes at its
        // job boundary, or inside dst's body whenever a drain moves that
        // lane behind its own queue. dst drains them all in one job on
        // shard 1: 100 drain events into that queue, which never waits.
        // Nothing may hang, and every boost must balance (in debug
        // builds the engine asserts that no drain overtakes its post).
        const PER_JOB: u32 = 100;
        let (sent, got) = must_return(|| {
            let mut b = TaskSetBuilder::new();
            let (src, vs) = task(&mut b, TaskSpec::periodic("src", ms(10)), 0, ms(1));
            let (dst, vd) = task(&mut b, TaskSpec::graph_node("dst"), 1, ms(1));
            let c = b.channel_decl_prioritized("data", 64, 8, 256, Priority::HIGHEST);
            b.channel_connect(src, dst, c).unwrap();
            let ts = Arc::new(b.build().unwrap());
            let config = sharded(2).max_pending_jobs(64).build().unwrap();
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
            nap_ms(60);
            rt.stop();
            let _ = rt.cleanup();
            (sent.load(Ordering::SeqCst), got.load(Ordering::SeqCst))
        });
        assert!(sent >= 3 * PER_JOB, "only {sent} posts");
        assert_eq!(sent, got, "every post was drained");
    }

    #[test]
    fn a_body_may_activate_while_another_thread_admits() {
        let _clock = wall_clock();
        // base (shard 0, every 5 ms) activates an aperiodic task of its
        // own shard 100 times per job — more than the 64 slots of the
        // control lane only its own thread drains — while this thread
        // admits and retires tenants back to back: `admit` waits for
        // shard 0's job boundary, which base reaches only if `activate`
        // gets past whatever `admit` holds.
        const PER_JOB: u32 = 100;
        let (activated, ran) = must_return(|| {
            let mut b = TaskSetBuilder::new();
            let (base, vb) = task(&mut b, TaskSpec::periodic("base", ms(5)), 0, ms(1));
            let (aper, va) = task(
                &mut b,
                TaskSpec::aperiodic("aper"),
                0,
                Duration::from_micros(1),
            );
            let ts = Arc::new(b.build().unwrap());
            // Where the body finds the runtime it runs on.
            let slot: Arc<std::sync::RwLock<Option<Runtime>>> = Arc::default();
            let rt = Arc::clone(&slot);
            let activated = Arc::new(AtomicU32::new(0));
            let ran = Arc::new(AtomicU32::new(0));
            let (act, r) = (Arc::clone(&activated), Arc::clone(&ran));
            let config = sharded(2).max_pending_jobs(64).build().unwrap();
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
            {
                let rt = slot.read().unwrap();
                let rt = rt.as_ref().unwrap();
                let noop = Arc::new(AtomicU32::new(0));
                let until = std::time::Instant::now() + std::time::Duration::from_millis(60);
                while std::time::Instant::now() < until {
                    let (cand, bodies) = candidate(5, Duration::from_micros(50), 1, &noop);
                    let tenant = rt.admit(&cand, bodies, None).unwrap();
                    rt.retire(tenant).unwrap();
                }
                rt.stop();
            }
            // Taken once the bodies in flight have let go of it.
            let rt = slot.write().unwrap().take().unwrap();
            let stats = rt.cleanup().engine_stats;
            // A tenant retired while its first job waited culls it.
            assert_eq!(stats.released, stats.completed + stats.culled);
            (activated.load(Ordering::SeqCst), ran.load(Ordering::SeqCst))
        });
        assert!(activated >= 3 * PER_JOB, "only {activated} activations");
        // The ready queue holds 64 too; what it refused is dropped.
        assert!(ran >= 64, "only {ran} of {activated} activations ran");
    }

    #[test]
    fn admit_and_retire_wait_one_body_at_most() {
        let _clock = wall_clock();
        // Shard 0 spends 20 ms of every 50 in one body. An `admit`
        // issued inside it is acknowledged at the job boundary, a
        // `retire` only has to be sent: both return within two bodies.
        const BODY_MS: u64 = 20;
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let (base, vb) = task(&mut b, TaskSpec::periodic("base", ms(50)), 0, ms(25));
            let ts = Arc::new(b.build().unwrap());
            let bodies_begun = Arc::new(AtomicU32::new(0));
            let begun = Arc::clone(&bodies_begun);
            let rt = RuntimeBuilder::new(ts, sharded_config(2))
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
            let noop = Arc::new(AtomicU32::new(0));
            let (cand, bodies) = candidate(50, Duration::from_micros(50), 1, &noop);
            let t = inside_body(1);
            let admitted = rt.admit(&cand, bodies, None);
            let admit_ms = t.elapsed().as_millis() as u64;
            let t = inside_body(2);
            let retired = admitted.as_ref().ok().map(|&tenant| rt.retire(tenant));
            let retire_ms = t.elapsed().as_millis() as u64;
            rt.stop();
            let _ = rt.cleanup();
            admitted.expect("a light tenant on the running tick is admitted");
            retired.unwrap().expect("a live tenant retires");
            if admit_ms >= 2 * BODY_MS || retire_ms >= 2 * BODY_MS {
                return Err(format!("admit took {admit_ms} ms, retire {retire_ms} ms"));
            }
            Ok(())
        });
    }
}
