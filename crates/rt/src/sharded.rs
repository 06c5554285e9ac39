//! The **owner loop** every thread runtime runs — one owner or one per
//! shard, **one thread per core** — and what feeds it.
//!
//! An *owner* is one thread that owns one engine: the whole
//! [`OnlineEngine`] over worker slots `0..n`, or — under
//! `Config::sharded_dispatch`, where the engine state splits into
//! independent per-worker shards (`yasmin_sched::shard`, the paper's
//! Fig. 1b: one scheduler per virtual CPU) — one shard's engine per
//! thread. [`Runtime`] is the handle on either; the configuration its
//! builder was given decides how many owners `spawn` brings up and
//! what each engine owns. All run the same thread function
//! (`owner_main`) and are talked to over the same lanes with the same
//! commands (`ShardMsg`).
//!
//! **Who executes a body follows from the owner's slot count alone.** An
//! owner with *one* slot — every shard, and the whole engine with one
//! worker — is scheduler and worker at once: it runs an engine round,
//! executes the body that round dispatched *itself*, retires it, and
//! goes back to its mailbox at the **job boundary**. A job costs no
//! hand-off: no dispatch ring, no completion message, no second thread
//! to wake. An owner with *n ≥ 2* slots is a dedicated scheduling
//! thread and **never** executes a body: under global scheduling a
//! worker that finishes while the owner is inside someone's long body
//! would idle beside ready work. Its dispatches go to `n` helper
//! threads (`yasmin-worker-{w}`), each fed through a one-slot
//! `yasmin_sync::spsc` ring with a `Doorbell` beside it and answering
//! on a one-slot mailbox lane of its own (`ShardMsg::Done`) — the
//! engine books a slot again only after retiring what ran there, so one
//! job is all either ever holds. Completions found pending at one drain
//! retire in one engine round.
//!
//! Everything else reaches an owner through the MPSC command mailbox of
//! `yasmin_sync::mailbox`: one lane for control commands
//! (activate/admit/retire/stop/shutdown), **one lane per peer shard**
//! carrying the cross-shard protocol — routed DAG activation tokens
//! (`CrossActivate`), forwarded message-plane events and the drain
//! barrier — and one *message lane* fed by the channel notify hooks
//! that fire on other threads. (Stolen jobs do not travel by mailbox:
//! see "Work stealing" below.) Lanes are sized by what they
//! carry: a peer lane is `max_pending_jobs` deep (a peer never waits,
//! and each token becomes a pending job), the control and message lanes
//! hold 64 commands (their senders wait for room), a helper's lane and
//! the lane a shard would use to write to itself one. Ticks are
//! generated locally by each owner at the shared gcd period.
//!
//! # The job boundary
//!
//! Both runtimes schedule **non-preemptively** (`preemption(false)`;
//! preemptive configurations are exercised by the simulator, sharded
//! ones by its driver `yasmin_sim::par`), and an owner inside a body
//! does nothing else. Whatever reaches it meanwhile waits for the
//! boundary — at most **one body**, i.e. one WCET of a job that keeps
//! to it — and is applied there in the order it happened: what the body
//! posted, what arrived while it ran, and only then its completion. An
//! activation, a token or a boost that arrived during the body is
//! therefore in the queue when the round that retires the body picks
//! the next job — one lower-priority body of blocking, not two:
//!
//! * **Tick edges** that passed while the body ran are handled when it
//!   returns, each at its nominal instant, in time order and *before*
//!   the completion retires: `enforce_wcet` and the miss trip find the
//!   overrunning job still in its slot. The releases carry their
//!   nominal times and are dispatched late by the rest of the body —
//!   the analysis' non-preemptive blocking term.
//! * **Thieves do not wait for it.** What an owner can spare lies on
//!   its shelf for the whole of the body (see "Work stealing" below);
//!   the boundary is where the owner takes back what nobody took,
//!   before anything else happens there.
//! * **`admit`**: an owner splices at its boundary. With two shards or
//!   more every shard acknowledges before the commit is sent, so
//!   [`Runtime::admit`] returns after the longest body then in
//!   flight; with one owner nothing is waited for. `Commit`, `retire`
//!   (which returns at once), `activate` and `stop` take effect there
//!   too.
//! * **`DrainFlush`** is acknowledged at the boundary; the shutdown
//!   drain waits out the bodies in flight in any case.
//! * **Tokens and boosts from other threads** (`CrossActivate`,
//!   `MsgHigh`, `MsgDrained`): a boost cannot displace a running body
//!   on any design; it re-orders the queue the next dispatch reads.
//! * **Message-plane events from an owner's own bodies.** A notify hook
//!   firing on its channel's *home* thread must not send into the
//!   message lane: only that thread drains it, so waiting for room
//!   would wait for itself. It appends to a queue the thread owns
//!   (`post`), applied at the boundary ahead of the mailbox — no lock,
//!   no bound. Each post first moves what the lane holds behind what is
//!   queued, so queue-then-lane stays the one FIFO route per channel
//!   and a drain never overtakes its post.
//! * **Calls from a body.** `activate`, `retire`, `stop` and a post to
//!   another home may wait: for room in a lane, or for the ledger lock
//!   of a caller that is itself waiting for room. Every such wait
//!   (`wait_for`) holds nothing and, on an owner's thread, keeps moving
//!   that thread's mailbox into its own queue — so the room others wait
//!   for is always made, and two bodies can never wait on each other.
//!   An `admit` that waits for acknowledgements does so with nothing
//!   held, which lets those calls through; it must not itself come from
//!   a body, whose own shard would never get there.
//!
//! An owner that feeds helpers has no boundary of this kind: it is
//! never inside a body, so ticks, commands and completions are handled
//! as they arrive, and its helpers' bodies reach it like any foreign
//! thread — over the control and message lanes.
//!
//! # Wake-up protocol
//!
//! Every sleep in this file is a `yasmin_sync::doorbell::Doorbell` wait
//! (the paper's "sleep" waiting strategy, §3.5); there is no polling
//! nap. An owner with no job to run parks on its mailbox
//! (`MailboxReceiver::park`) until its next tick edge — less the
//! lateness such a park has shown, see "The tick edge" below — a helper
//! with an empty ring on the bell beside it, and:
//!
//! * Every `send` into any lane rings the owner: a peer's
//!   `CrossActivate` / `MsgHigh` / `Drain*`, a helper's
//!   `Done`, the control lane (`activate`, `admit`, `retire`, `stop`,
//!   `cleanup`) and the notify hooks on the message lane. A lane
//!   closing rings it too. Every push into a helper's ring rings the
//!   helper.
//! * Two things an owner waits for are *not* messages, so their writers
//!   ring explicitly (`MailboxSender::wake`) and the sleeper re-checks
//!   them after announcing its sleep: **a peer's shelf filling** — an
//!   idle thief that found nothing to take raises its idle flag on the
//!   [`LoadBoard`] before parking, and a victim that has put jobs on
//!   its shelf wakes the flagged peers — and **the shutdown drain
//!   board** — a shard that raises its drained flag wakes every peer.
//! * One thing has no event at all: room appearing in a full peer lane.
//!   While a shard holds spilled peer sends its park is bounded by
//!   `SPILL_RETRY`.
//!
//! No wake-up is lost because both sides follow the doorbell's rule
//! (see its module docs): the ringer publishes, fences, then looks for
//! a sleeper; the sleeper announces itself, fences, then looks for
//! work. A ring at an awake thread — one inside a body included — costs
//! one load. The full list of conditions the loop re-evaluates on
//! waking sits at its park site in `owner_main`. Under
//! [`WaitChoice::Spin`] nobody parks: owners spin on their mailbox and
//! the clock between jobs, helpers on their ring, each alone on its
//! core.
//!
//! # The tick edge
//!
//! A timed park returns late, and on a given host most of that lateness
//! is the same every time (timer slack, then the way back onto a core:
//! some 100 µs of a 10 ms park where this was written). It used to be
//! the largest single term of a periodic job's dispatch latency. An
//! owner therefore measures it — `woke − armed` of its own parks that
//! ran into their timeout, the last 64 of them, in a
//! `yasmin_sync::wait::TimerLead` — and arms the next park *early* by
//! the smallest value it has seen (at most `TimerLead::CAP`, and at
//! most an eighth of a tick): the park then ends at or just after the
//! edge, and nothing is spun away. A host whose timer is on time
//! teaches a lead of zero and runs the loop as if there were none.
//!
//! The lead moves the *wake-up*, never the schedule: a tick round runs
//! only once `clock.now() >= next_tick`, so no release, dispatch or
//! overrun check happens ahead of its edge, and the engine sees the
//! same instants as before. An owner that is nevertheless idle inside
//! `[next_tick − lead, next_tick)` — its park ended sooner than any of
//! the last 64, or its last job did — spins to the edge, polling what
//! the park's re-check polls, so a command that lands there is served
//! at once. [`TickStats`], one per owner in
//! [`crate::RuntimeReport::tick_stats`], says what came of it: how late
//! the tick rounds began, the lead in force, how often the owner was
//! early and how long it spun. [`WaitChoice::Spin`] has no park and no
//! lead.
//!
//! A pass that finds completions *and* a due tick coalesces both into
//! **one** engine round ([`OnlineEngine::advance_into`]): the single
//! dispatch round sees the freed workers and the fresh releases
//! together.
//!
//! # Work stealing
//!
//! With [`RuntimeBuilder::work_stealing`] enabled every shard has a
//! **shelf** (`yasmin_sync::shelf`, [`MAX_STEAL_BATCH`] slots). A shard
//! inside a body cannot answer anybody, so it answers beforehand:
//! **right before it runs a body** it detaches the stealable jobs
//! queued behind that one — most urgent first, up to the first that
//! must stay (an accelerator-bound task's, one that already migrated
//! once, or *another instance of the task it is about to run*, which
//! a thief would run beside this one) —
//! [`OnlineEngine::try_steal_batch`] /
//! [`OnlineEngine::release_stolen_batch`] — lays them on its shelf and
//! wakes the peers flagged idle. **The first thing after the body** it
//! closes the shelf: what a thief claimed is donated, what nobody
//! claimed goes back into the ready queue
//! ([`OnlineEngine::return_unclaimed`]) under its own key — a total
//! order, so the queue is as if those jobs had never left it. No
//! engine round runs while a shelf is open, and a shelf is open only
//! during a body: wherever the loop below looks at the engine or the
//! drain protocol looks at the shard, its shelf is empty.
//!
//! An idle shard (empty queue, no job, drained mailbox) asks the
//! advisory [`LoadBoard`] for a victim among the peers whose shelf has
//! something on it — most loaded peer first, exact load ties broken
//! towards DAG-adjacent shards (wired from the task set's cross-shard
//! edges at startup) and recent donors — claims up to `k` jobs from
//! that shelf with one compare-and-swap, `k` derived from the load gap
//! ([`LoadBoard::steal_batch_size`]), adopts them with one dispatch
//! round ([`OnlineEngine::adopt_stolen_batch`]) and runs them itself —
//! global [`WorkerId`]s keep every record truthful about where a job
//! actually ran. It waits for nobody: a steal costs the thief a wake-up
//! at most, whatever the victim is doing. ([`StealStats`], one per
//! owner in [`crate::RuntimeReport::steal_stats`], counts both sides.)
//! The simulator's protocol loop keeps the request/grant messages of
//! `yasmin_sched::ShardCmd`: in virtual time a victim answers at once,
//! which is what the shelf gives real threads.
//!
//! Cross-shard DAG successors of any completion (stolen or local) are
//! drained from the shard outbox and routed to the owning peer's lane.
//! Scheduling decisions run through the zero-allocation [`ActionSink`]
//! path.

use crate::runtime::{
    JobCtx, RtJobRecord, Runtime, RuntimeBuilder, StealStats, TaskBody, TickStats,
};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use yasmin_core::config::{Config, WaitChoice};
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::priority::Priority;
use yasmin_core::time::{Clock, Duration, Instant, MonotonicClock};
use yasmin_sched::admission::{reservation_for, AdmissionControl, TenantLedger};
use yasmin_sched::msg::{MsgEvent, NotifyHandle};
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{
    Action, ActionSink, EngineStats, Job, JobBatch, JobOutcome, OnlineEngine, RemoteActivation,
    StealHint, MAX_STEAL_BATCH,
};
use yasmin_sync::doorbell::Doorbell;
use yasmin_sync::mailbox::{mailbox_with_capacities, MailboxFull, MailboxReceiver, MailboxSender};
use yasmin_sync::shelf;
use yasmin_sync::spsc;
use yasmin_sync::steal::LoadBoard;
use yasmin_sync::wait::{Backoff, TimerLead};

/// Lane indices of each owner's command mailbox; lane `LANE_PEER0 + p`
/// belongs to peer shard `p` (a shard's own peer lane stays unused, so
/// indexing needs no adjustment). Lane `LANE_PEER0 + n` is the *message
/// lane* (see [`MsgLanes`]); an owner's helpers answer on the lanes
/// after it.
const LANE_CONTROL: usize = 0;
const LANE_PEER0: usize = 1;

/// Slots of a control or message lane. Whoever finds one full waits for
/// room ([`wait_for`]) — back-pressure, never loss — so the depth only
/// says how many commands may queue behind one body, and a lane as deep
/// as the engine's ready queue would spend its slots on holding a
/// handful of commands.
const COMMAND_LANE_DEPTH: usize = 64;

/// Longest park of a shard thread that holds spilled peer sends
/// ([`PeerLinks::pending`]): room appearing in a full lane rings no
/// bell, so the flush is retried on this period until the backlog is
/// gone.
const SPILL_RETRY: std::time::Duration = std::time::Duration::from_micros(200);

/// Commands flowing into an owner thread.
pub(crate) enum ShardMsg {
    /// A helper ran the job this owner dispatched to it, to completion
    /// or into a panic.
    Done(RtJobRecord),
    /// Explicit activation of a task owned by the shard.
    Activate(TaskId),
    /// A DAG token routed from a peer shard (cross-shard edge whose
    /// destination this shard owns).
    CrossActivate { edge: u32, graph_release: Instant },
    /// A high-priority message entered a channel lane. Lands first on
    /// the channel's *home* shard (the sending task's, so one channel's
    /// posts and drains share one FIFO route); a home shard that does
    /// not own `dst` forwards it over the per-peer lane to the owner,
    /// exactly like a [`ShardMsg::CrossActivate`] token.
    MsgHigh { dst: TaskId, ceiling: Priority },
    /// A high-lane message was consumed; routed like
    /// [`ShardMsg::MsgHigh`], releasing the boost when posts and drains
    /// balance.
    MsgDrained { dst: TaskId },
    /// Phase one of a tenant admission (see [`Runtime::admit`]): splice
    /// the merged task set — its suffix is the new tenant — into this
    /// owner's engine and register the tenant's bodies, with every new
    /// release left **disarmed**. With two shards or more each
    /// decrements `ack` when its splice is done, and the admitting
    /// thread holds the commit until the counter hits zero so a
    /// cross-shard token for a new task can never reach a shard that has
    /// not yet heard of it; one owner's lane is FIFO and carries no
    /// counter.
    Admit {
        taskset: Arc<TaskSet>,
        bodies: Arc<HashMap<(TaskId, VersionId), TaskBody>>,
        budget: Option<TenantBudget>,
        at: Instant,
        ack: Option<Arc<AtomicUsize>>,
    },
    /// Phase two: arm the tenant's releases. Each owner anchors them at
    /// its **next local tick edge** (not the commit send instant): it
    /// dispatches on a fixed tick grid, so an off-grid release phase
    /// would delay every dispatch of the tenant by up to one tick —
    /// enough to sink a deadline equal to the period.
    Commit { tenant: TenantId },
    /// Quiesce a tenant: cull its ready jobs, disarm its releases, drop
    /// its pending tokens; a job in flight finishes but fires no
    /// successors.
    Retire { tenant: TenantId, at: Instant },
    /// Stop releasing periodic jobs.
    Stop,
    /// Drain and exit (two-phase: see the drain protocol in
    /// [`owner_main`]).
    Shutdown,
    /// Phase one of the loss-free shutdown drain: a quiesced shard
    /// barriers each peer lane with this marker. Peer lanes are FIFO,
    /// so by the time the receiver sees the flush, every token the
    /// sender routed before it has been received; the receiver answers
    /// with [`ShardMsg::DrainAck`].
    DrainFlush { from: usize },
    /// The ack completing a [`ShardMsg::DrainFlush`] barrier: the
    /// sending peer has observed everything routed to it before the
    /// flush (the peer's identity is implied by its lane).
    DrainAck,
}

// Every slot of every lane is this large, and a peer lane is
// `max_pending_jobs` slots deep: a variant that carries a batch of jobs
// inline (a steal grant once did, 456 bytes) is paid for in every one
// of them. `Done` — a job and its timing, 80 bytes — is the largest.
const _: () = assert!(std::mem::size_of::<ShardMsg>() <= 80);

/// [`Runtime`] under a configuration with `Config::sharded_dispatch`.
/// An alias kept for source compatibility; it goes at the next
/// benchmark re-baseline.
pub type ShardedRuntime = Runtime;

/// [`RuntimeBuilder`], whose `Config` says whether the runtime is
/// sharded. An alias kept for source compatibility, like
/// [`ShardedRuntime`].
pub type ShardedRuntimeBuilder = RuntimeBuilder;

/// What the builder collects and hands to [`spawn`].
pub(crate) struct Launch {
    pub(crate) taskset: Arc<TaskSet>,
    pub(crate) config: Config,
    pub(crate) bodies: HashMap<(TaskId, VersionId), TaskBody>,
    pub(crate) channels: Vec<NotifyHandle>,
    pub(crate) pin_offset: usize,
    /// Only shards steal; off unless the builder turns it on.
    pub(crate) work_stealing: bool,
}

impl Launch {
    pub(crate) fn new(taskset: Arc<TaskSet>, config: Config) -> Self {
        Launch {
            taskset,
            config,
            bodies: HashMap::new(),
            channels: Vec::new(),
            pin_offset: 0,
            work_stealing: false,
        }
    }
}

/// What an owner thread returns when it exits: its records, its engine
/// counters, how it met its tick edges, what it shelved and stole, and
/// whether it ran pinned.
pub(crate) type OwnerExit = (Vec<RtJobRecord>, EngineStats, TickStats, StealStats, bool);

/// A shard's shelf: the jobs it can spare while it is inside a body.
type JobShelf = shelf::Owner<Job, MAX_STEAL_BATCH>;
/// Where a thief finds them.
type PeerShelf = shelf::Thief<Job, MAX_STEAL_BATCH>;

/// A sender into one lane of an owner's mailbox that threads share: the
/// mutex keeps the lane at one logical producer.
pub(crate) type SharedLane = Mutex<MailboxSender<ShardMsg>>;

/// The message lanes of one runtime, by home shard: where the channel
/// notify hooks post from threads other than the home's own. Shared by
/// the hooks, the runtime handle and the owner threads, which tell
/// their own runtime by it.
pub(crate) type MsgLanes = Arc<Vec<SharedLane>>;

/// What code running inside a body finds of the owner thread it is on:
/// the queue of events the thread owns, and the mailbox only this
/// thread drains.
struct ShardLocal {
    lanes: MsgLanes,
    me: usize,
    rx: Rc<RefCell<MailboxReceiver<ShardMsg>>>,
    /// Events this thread's bodies posted to their own home, and what
    /// [`post`] and [`wait_for`] moved here from the mailbox; applied at
    /// the job boundary, ahead of the mailbox.
    posts: VecDeque<ShardMsg>,
}

thread_local! {
    static LOCAL: RefCell<Option<ShardLocal>> = const { RefCell::new(None) };
}

/// Retries `attempt` until it yields, from whichever thread and with
/// nothing held in between. What it waits for — room in a lane, a lock
/// another caller holds while *it* waits for room — comes from an owner
/// reaching its job boundary, and the caller may be inside a body on one
/// of `lanes`' owners: that thread keeps moving its mailbox into its own
/// queue meanwhile, so it always makes the room others are waiting for
/// and two bodies can never wait on each other.
pub(crate) fn wait_for<T>(lanes: &MsgLanes, mut attempt: impl FnMut() -> Option<T>) -> T {
    let mut backoff = Backoff::new();
    loop {
        if let Some(v) = attempt() {
            return v;
        }
        LOCAL.with_borrow_mut(|local| {
            if let Some(l) = local.as_mut().filter(|l| Arc::ptr_eq(&l.lanes, lanes)) {
                let mut rx = l.rx.borrow_mut();
                while let Some(msg) = rx.try_recv() {
                    l.posts.push_back(msg);
                }
            }
        });
        backoff.snooze();
    }
}

pub(crate) fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::WouldBlock) => None,
        Err(TryLockError::Poisoned(_)) => panic!("runtime mutex poisoned"),
    }
}

/// Sends `msg` into a shared lane, waiting for room ([`wait_for`]).
pub(crate) fn send_waiting(lanes: &MsgLanes, lane: &SharedLane, msg: ShardMsg) {
    let mut msg = Some(msg);
    wait_for(lanes, || {
        let sent = try_lock(lane)?.send(msg.take()?);
        sent.map_err(|MailboxFull(v)| msg = Some(v)).ok()
    });
}

/// Delivers a message-plane event to its channel's `home` owner from
/// whichever thread the notify hook fired on (see "The job boundary" in
/// the module docs). On the home thread itself: the thread-owned queue,
/// behind what the message lane holds — no lock, never full. Anywhere
/// else: the home's message lane.
fn post(lanes: &MsgLanes, home: usize, msg: ShardMsg) {
    let elsewhere = LOCAL.with_borrow_mut(|local| {
        let at_home = |l: &&mut ShardLocal| Arc::ptr_eq(&l.lanes, lanes) && l.me == home;
        let Some(l) = local.as_mut().filter(at_home) else {
            return Some(msg);
        };
        let mut rx = l.rx.borrow_mut();
        while let Some(earlier) = rx.pop_lane(LANE_PEER0 + lanes.len()) {
            l.posts.push_back(earlier);
        }
        l.posts.push_back(msg);
        None
    });
    if let Some(msg) = elsewhere {
        send_waiting(lanes, &lanes[home], msg);
    }
}

/// The owner that has task `t` of `taskset`: the one owner of a runtime
/// that is not `sharded` has every task, assigned to a worker or not; a
/// shard has those assigned to its worker.
pub(crate) fn owner_of(taskset: &TaskSet, sharded: bool, t: TaskId) -> Result<usize> {
    let task = taskset.task(t)?;
    if !sharded {
        return Ok(0);
    }
    let assigned = task.spec().assigned_worker();
    assigned
        .map(WorkerId::index)
        .ok_or(Error::MissingPartition(t))
}

/// Spawns one owner thread per engine of `engines` — every shard of
/// a partitioned set in worker order, or the one whole engine — and
/// the helpers of each owner that has more than one slot.
pub(crate) fn spawn(engines: Vec<OnlineEngine>, launch: Launch) -> Result<Runtime> {
    let clock = Arc::new(MonotonicClock::new());
    // A peer never waits for room — what finds none spills
    // (`PeerLinks::pending`) — and every token it sends becomes a
    // pending job of the receiver: as deep as an engine's queue.
    let peer_depth = launch.config.max_pending_jobs().max(64);
    let waiting = launch.config.waiting();
    let n = engines.len();
    let tick = engines
        .first()
        .map(OnlineEngine::tick_period)
        .ok_or_else(|| Error::InvalidConfig("a thread runtime needs at least one worker".into()))?;
    let admission = AdmissionControl::new(launch.config.clone(), tick);
    let board = Arc::new(LoadBoard::new(n));
    let taskset = &launch.taskset;
    let sharded = launch.config.sharded_dispatch();
    let owner = |t: TaskId| owner_of(taskset, sharded, t);
    // Seed the victim-selection hints: shards joined by a
    // cross-shard DAG edge are marked adjacent, so on exact load
    // ties a thief prefers a victim whose jobs have successors (or
    // predecessors) on the thief's own shard — the stolen work's
    // tokens then travel a lane that already exists.
    for e in taskset.edges() {
        if let (Ok(a), Ok(b)) = (owner(e.src), owner(e.dst)) {
            if a != b {
                board.set_adjacent(a, b);
            }
        }
    }
    let drain_board: Arc<Vec<AtomicBool>> =
        Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
    // One shelf per owner (module docs, "Work stealing"): the filling
    // end is its owner's, every owner gets a taking end.
    let (shelves, peer_shelves): (Vec<JobShelf>, Vec<PeerShelf>) =
        (0..n).map(|_| shelf::new()).unzip();

    // One mailbox per owner: control lane, one lane per peer shard
    // for the cross-shard protocol, the message lane fed by the
    // channel notify hooks, and one lane per helper. Peer senders
    // are regrouped so owner `s` holds, for every target `t`, the
    // sender feeding lane `LANE_PEER0 + s` of `t`'s mailbox.
    let mut control = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    let mut peer_lanes_by_target = Vec::with_capacity(n);
    let mut msg_txs = Vec::with_capacity(n);
    let mut done_lanes_by_owner = Vec::with_capacity(n);
    for (s, engine) in engines.iter().enumerate() {
        // Who executes: an owner with one slot itself, one with
        // more hands every job to the slot's helper.
        let slots = engine.shard_worker().map_or(launch.config.workers(), |_| 1);
        let helpers = if slots > 1 { slots } else { 0 };
        let mut capacities = vec![peer_depth; LANE_PEER0 + n + 1];
        capacities[LANE_CONTROL] = COMMAND_LANE_DEPTH;
        capacities[LANE_PEER0 + s] = 1; // nobody writes to itself
        capacities[LANE_PEER0 + n] = COMMAND_LANE_DEPTH;
        capacities.resize(capacities.len() + helpers, 1); // one job in flight each
        let (mut lanes, mailbox_rx) = mailbox_with_capacities::<ShardMsg>(&capacities);
        done_lanes_by_owner.push(lanes.split_off(LANE_PEER0 + n + 1));
        let mut peer_lanes = lanes.split_off(LANE_PEER0);
        msg_txs.push(Mutex::new(peer_lanes.pop().expect("message lane present")));
        peer_lanes_by_target.push(peer_lanes);
        control.push(Mutex::new(lanes.swap_remove(LANE_CONTROL)));
        receivers.push(mailbox_rx);
    }
    let msg_lanes: MsgLanes = Arc::new(msg_txs);

    // Arm the channel notify hooks: each channel posts its events to
    // its *home* owner — the sending task's, so one channel's posts
    // and drains travel one FIFO route and can never reorder. A
    // home shard that does not own the receiver forwards over the
    // per-peer lanes (see `ShardMsg::MsgHigh`). Channels without a
    // declared ceiling never reach an engine.
    for handle in &launch.channels {
        if handle.ceiling().is_none() {
            continue;
        }
        let edge = taskset
            .edges()
            .iter()
            .find(|e| Some(e.channel) == handle.channel());
        let home = owner(edge.map_or(handle.dst(), |e| e.src))?;
        let lanes = Arc::clone(&msg_lanes);
        let _ = handle.set_notify(Arc::new(move |ev| {
            let msg = match ev {
                MsgEvent::HighPosted { dst, ceiling } => ShardMsg::MsgHigh { dst, ceiling },
                MsgEvent::HighDrained { dst } => ShardMsg::MsgDrained { dst },
            };
            post(&lanes, home, msg);
        }));
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

    let mut threads = Vec::with_capacity(n);
    let mut helpers = Vec::new();
    for ((((engine, mailbox_rx), peers), done_lanes), shelf) in engines
        .into_iter()
        .zip(receivers)
        .zip(peer_txs)
        .zip(done_lanes_by_owner)
        .zip(shelves)
    {
        let mut to_helpers = Vec::with_capacity(done_lanes.len());
        for (w, done_tx) in done_lanes.into_iter().enumerate() {
            let (ring, from_owner) = spsc::channel(1);
            let bell = Arc::new(Doorbell::new());
            to_helpers.push(HelperLink {
                ring,
                bell: Arc::clone(&bell),
            });
            let core = launch.pin_offset + w;
            let clock = Arc::clone(&clock);
            helpers.push(
                std::thread::Builder::new()
                    .name(format!("yasmin-worker-{w}"))
                    .spawn(move || {
                        let pinned = crate::os::enter_runtime_thread(core);
                        let worker = WorkerId::new(w as u16);
                        helper_main(from_owner, &bell, done_tx, &clock, worker, waiting);
                        pinned
                    })
                    .map_err(|e| Error::Os(format!("spawning worker {w}: {e}")))?,
            );
        }
        // An owner that executes sits on its worker's core, one that
        // only schedules on the core after its helpers'.
        let (name, core) = match engine.shard_worker() {
            Some(w) => (format!("yasmin-shard-sched-{w}"), w.index()),
            None => ("yasmin-scheduler".to_owned(), to_helpers.len()),
        };
        let core = launch.pin_offset + core;
        let bodies = launch.bodies.clone();
        let clock = Arc::clone(&clock);
        let lanes = Arc::clone(&msg_lanes);
        let links = PeerLinks {
            txs: peers,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            board: Arc::clone(&board),
            stealing: launch.work_stealing && n > 1,
            shelf,
            shelves: peer_shelves.clone(),
            drained: Arc::clone(&drain_board),
        };
        threads.push(
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || {
                    let pinned = crate::os::enter_runtime_thread(core);
                    let (records, stats, ticks, steals) =
                        owner_main(engine, bodies, mailbox_rx, &clock, links, lanes, to_helpers);
                    (records, stats, ticks, steals, pinned)
                })
                .map_err(|e| Error::Os(format!("spawning {name}: {e}")))?,
        );
    }

    Ok(Runtime {
        ledger: Mutex::new(TenantLedger::new(admission, launch.taskset)),
        clock,
        config: launch.config,
        control,
        lanes: msg_lanes,
        threads,
        helpers,
    })
}

/// Runs one job's body on the calling thread. A panic is contained: the
/// job reads as [`JobOutcome::Failed`] and the thread — an owner, and
/// with it its whole shard, or a helper — survives. `TaskBody` is a
/// shared closure and not `UnwindSafe`, but its captured state is never
/// observed by the runtime after a panic, so the assertion is sound.
fn run_body(body: &TaskBody, ctx: &JobCtx, clock: &MonotonicClock) -> RtJobRecord {
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

/// What an owner hands a helper: one dispatched job.
struct Run {
    job: Job,
    version: VersionId,
    body: TaskBody,
}

/// An owner's end of one helper: the dispatch ring — `None` dismisses
/// the helper — and the bell the helper sleeps on while it is empty.
struct HelperLink {
    ring: spsc::Producer<Option<Run>>,
    bell: Arc<Doorbell>,
}

impl HelperLink {
    fn push(&mut self, run: Option<Run>) {
        // One slot is enough: the engine books a worker again only once
        // it has retired the job the helper popped from here.
        if self.ring.push(run).is_err() {
            unreachable!("the engine never double-books a worker");
        }
        self.bell.ring();
    }
}

/// A helper thread: worker slot `worker` of an owner that does not
/// execute. Runs what the ring holds, answers on its own mailbox lane.
fn helper_main(
    mut ring: spsc::Consumer<Option<Run>>,
    bell: &Doorbell,
    mut done: MailboxSender<ShardMsg>,
    clock: &MonotonicClock,
    worker: WorkerId,
    waiting: WaitChoice,
) {
    loop {
        let Some(msg) = ring.pop() else {
            match waiting {
                WaitChoice::Sleep => bell.wait(None, || !ring.is_empty()),
                WaitChoice::Spin => std::hint::spin_loop(),
            }
            continue;
        };
        let Some(Run { job, version, body }) = msg else {
            break;
        };
        let ctx = JobCtx {
            job,
            version,
            worker,
        };
        let record = run_body(&body, &ctx, clock);
        // The owner took the previous answer out of the lane before it
        // dispatched this job.
        if done.send(ShardMsg::Done(record)).is_err() {
            unreachable!("one job in flight per helper");
        }
    }
}

/// A shard thread's links to its peers: one mailbox sender per target
/// shard (its own slot is `None`), the advisory load board, whether
/// stealing is enabled, and the shelves stolen jobs change hands on.
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
    /// The shared drain board of the two-phase shutdown: `drained[s]`
    /// is raised by shard `s` once it is quiet during shutdown and
    /// cleared by `s` when late work arrives. A shard exits only at
    /// global quiescence — every flag raised *and* its own mailbox and
    /// spill backlog empty — so no in-flight message is ever dropped.
    drained: Arc<Vec<AtomicBool>>,
}

impl PeerLinks {
    fn send(&mut self, target: usize, msg: ShardMsg) {
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

    /// Raises this shard's drained flag. `Release` pairs with the
    /// `Acquire` in [`PeerLinks::all_drained`]: everything this shard
    /// sent before raising the flag (tokens already landed in peer
    /// mailboxes) is visible to a peer that observes the flag before it
    /// checks its own mailbox. A flag going up may complete global
    /// quiescence, which parked peers are waiting for: wake them.
    fn set_drained(&self, me: usize) {
        if !self.drained[me].swap(true, Ordering::AcqRel) {
            for tx in self.txs.iter().flatten() {
                tx.wake();
            }
        }
    }

    /// Clears this shard's drained flag — late work arrived after the
    /// shard advertised quiescence.
    fn clear_drained(&self, me: usize) {
        self.drained[me].store(false, Ordering::Release);
    }

    /// `true` when every shard has advertised quiescence.
    fn all_drained(&self) -> bool {
        self.drained.iter().all(|d| d.load(Ordering::Acquire))
    }
}

/// What tests make of the lead: `u64::MAX` leaves it learned, anything
/// else pins every owner of the process to that many nanoseconds,
/// whatever its estimator has been fed.
#[cfg(test)]
static PINNED_LEAD_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(u64::MAX);

/// `None` outside tests: the lead is what [`TimerLead`] learned.
fn pinned_lead() -> Option<Duration> {
    #[cfg(test)]
    {
        let ns = PINNED_LEAD_NS.load(Ordering::Relaxed);
        (ns != u64::MAX).then(|| Duration::from_nanos(ns))
    }
    #[cfg(not(test))]
    None
}

/// How far ahead of a tick edge an owner arms its timed park: what its
/// parks taught it, and never more than an eighth of a tick — a lead as
/// long as the tick would leave nothing to park for.
fn lead_in_force(pinned: Option<Duration>, learned: &TimerLead, tick: Duration) -> Duration {
    pinned.unwrap_or_else(|| learned.lead()).min(tick / 8)
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

/// One owner's thread: engine rounds over `engine` — a shard's, or the
/// whole — and between them either the one job the last round
/// dispatched, run right here (no `helpers`: one slot), or nothing but
/// scheduling (one helper per slot).
#[allow(clippy::too_many_lines)]
fn owner_main(
    mut engine: OnlineEngine,
    mut bodies: HashMap<(TaskId, VersionId), TaskBody>,
    rx: MailboxReceiver<ShardMsg>,
    clock: &Arc<MonotonicClock>,
    mut peers: PeerLinks,
    lanes: MsgLanes,
    mut helpers: Vec<HelperLink>,
) -> (Vec<RtJobRecord>, EngineStats, TickStats, StealStats) {
    // The whole engine owns slots `0..n` and sits at index 0 of its
    // one-owner runtime; alone on one slot it is worker 0 itself.
    let worker = engine.shard_worker().unwrap_or(WorkerId::new(0));
    let me = worker.index();
    let tick = engine.tick_period();
    let waiting = engine.config().waiting();
    let mut records: Vec<RtJobRecord> = Vec::new();
    let mut shutting_down = false;
    // Steal scratch, reused so that neither side of a steal allocates:
    // what the engine names stealable, and the jobs on their way to or
    // from a shelf.
    let mut steal_hints: Vec<StealHint> = Vec::with_capacity(MAX_STEAL_BATCH);
    let mut steal_batch = JobBatch::new();
    let mut steals = StealStats::default();
    // Two-phase drain state: whether this shard has barriered its peer
    // lanes with `DrainFlush`, and how many peers have acked.
    let mut flush_sent = false;
    let mut drain_acks = 0usize;
    let peer_count = peers.txs.len().saturating_sub(1);

    // The mailbox is shared with the notify hooks that fire on this
    // thread (`post`): they run inside a body, when this loop holds no
    // borrow of it.
    let rx = Rc::new(RefCell::new(rx));
    LOCAL.set(Some(ShardLocal {
        lanes,
        me,
        rx: Rc::clone(&rx),
        posts: VecDeque::new(),
    }));
    // What the body just run left in `ShardLocal::posts`, swapped out at
    // the boundary (the two buffers alternate, neither reallocates).
    let mut posts: VecDeque<ShardMsg> = VecDeque::new();

    // One reusable sink: the steady-state loop allocates nothing for
    // actions.
    let mut sink = ActionSink::new();
    // The job the engine's last round dispatched to this thread — one
    // slot, never preempted, so at most one — run at the top of the
    // next pass. Stays empty on an owner that feeds helpers.
    let mut next_job: Option<(Job, VersionId)> = None;
    // Completions not yet retired — the body just run, or what the
    // helpers reported this drain, one per slot at most: folded into a
    // due tick, or retired together ahead of the first command of the
    // pass.
    let mut done: Vec<(WorkerId, JobId)> = Vec::with_capacity(helpers.len().max(1));
    let mut last_done = Instant::ZERO;
    // Cross-shard DAG tokens drained from the shard outbox, reused.
    let mut outbox: Vec<RemoteActivation> = Vec::with_capacity(8);
    // The tick edge (module docs): the lateness this thread's timed
    // parks show, how late its tick rounds began, and what waking
    // early cost.
    let mut timer_lead = TimerLead::new();
    let pinned_lead = pinned_lead();
    let mut late = LateHist::new();
    let mut ticks = TickStats::default();

    // The advertised load is the *stealable* load: zero whenever the
    // steal probe would yield no hint (empty queue, or a top job that
    // must not migrate). Advertising raw ready counts would rank a
    // shard whose queue holds only unstealable work above one a thief
    // can actually relieve.
    let stealable_load =
        |engine: &OnlineEngine| -> usize { engine.steal_hint().map_or(0, |_| engine.ready_len()) };

    // Everything an engine round leaves behind: a dispatch becomes this
    // thread's next job or goes to its slot's helper, cross-shard
    // tokens route to their owning peers, and — when anyone actually
    // probes — the advisory load is republished (with stealing off, the
    // probe and the store would be pure overhead on the benchmarked
    // dispatch path).
    macro_rules! settle_round {
        () => {{
            for &a in sink.as_slice() {
                // Boost actions are priority bookkeeping only;
                // preemption is disabled, so Preempt cannot occur.
                let Action::Dispatch {
                    worker: slot,
                    job,
                    version,
                } = a
                else {
                    continue;
                };
                if let Some(helper) = helpers.get_mut(slot.index()) {
                    let body = Arc::clone(&bodies[&(job.task, version)]);
                    helper.push(Some(Run { job, version, body }));
                } else {
                    debug_assert!(next_job.is_none(), "one slot, one job");
                    next_job = Some((job, version));
                }
            }
            engine.drain_outbox_into(&mut outbox);
            for ra in outbox.drain(..) {
                peers.send(
                    ra.worker.index(),
                    ShardMsg::CrossActivate {
                        edge: ra.edge,
                        graph_release: ra.graph_release,
                    },
                );
            }
            if peers.stealing {
                peers.board.publish(me, stealable_load(&engine));
            }
        }};
    }
    // Retires the pending completions, if any, in a round of their own.
    macro_rules! retire_done {
        () => {
            if !done.is_empty() {
                sink.clear();
                engine
                    .on_jobs_completed_into(&done, last_done, &mut sink)
                    .expect("completion protocol upheld");
                done.clear();
                settle_round!();
            }
        };
    }
    // The tick round at `$at` for the edge `$edge`, begun at `$now`,
    // folding in the pending completions: one dispatch round sees the
    // freed workers and the fresh releases together. Never ahead of its
    // edge, however early the park before it was armed.
    macro_rules! tick_round {
        ($at:expr, $edge:expr, $now:expr) => {{
            debug_assert!($now >= $edge, "a tick round ahead of its edge");
            late.record($now.saturating_since($edge));
            sink.clear();
            engine
                .advance_into(&done, $at, &mut sink)
                .expect("completion protocol upheld");
            done.clear();
            settle_round!();
            // Age the donation history once per tick, from one shard
            // only (every shard halving it would decay n times faster
            // than intended). "Recent donor" then means "donated within
            // the last few ticks".
            if peers.stealing && me == 0 {
                peers.board.decay_donations();
            }
        }};
    }
    // A job ran, here or on a helper: its record, and its completion
    // queued for the next retiring round.
    macro_rules! job_done {
        ($record:expr) => {{
            let r: RtJobRecord = $record;
            records.push(r);
            last_done = last_done.max(r.completed);
            match r.outcome {
                JobOutcome::Completed => done.push((r.worker, r.job.id)),
                // Rare by construction: retired alone through the
                // failure path (successors are policy-gated there).
                JobOutcome::Failed => {
                    sink.clear();
                    engine
                        .on_job_failed_into(r.worker, r.job.id, r.completed, &mut sink)
                        .expect("failure protocol upheld");
                    settle_round!();
                }
            }
        }};
    }

    // One instant anchors both grids: the releases `start_into` arms
    // and the tick edges that dispatch them. An anchor taken after the
    // first dispatch round would make every tick of the run trail its
    // release by however long that round took.
    let t0 = clock.now();
    engine
        .start_into(t0, &mut sink)
        .expect("fresh engine starts");
    settle_round!();
    let mut next_tick = t0 + tick;

    loop {
        // The job boundary. Run the dispatched job here, on the owner's
        // own thread; everything below waited for it (module docs).
        if let Some((job, version)) = next_job.take() {
            let ctx = JobCtx {
                job,
                version,
                worker,
            };
            // Nobody can ask this thread for work while it is inside
            // the body, so what it can spare goes on the shelf first
            // (module docs, "Work stealing"): the stealable jobs behind
            // this one, most urgent first, and nothing from another
            // instance of this task onwards: a thief would run it
            // beside this one.
            let mut shelved = 0;
            if peers.stealing {
                engine.try_steal_batch(peers.shelf.room(), &mut steal_hints);
                if let Some(n) = steal_hints.iter().position(|h| h.task == job.task) {
                    steal_hints.truncate(n);
                }
                steal_batch.clear();
                shelved = engine.release_stolen_batch(&steal_hints, &mut steal_batch);
                for &spare in steal_batch.as_slice() {
                    peers.shelf.put(spare).expect("room was counted");
                }
                if shelved > 0 {
                    steals.shelved += shelved as u64;
                    peers.wake_thieves(me, shelved);
                }
            }
            let record = run_body(&bodies[&(job.task, version)], &ctx, clock);
            // Close the shelf before anything looks at the engine: what
            // a thief claimed is donated, the rest is back in the queue
            // under its own key, as if it had never left.
            if shelved > 0 {
                steal_batch.clear();
                let unclaimed = peers.shelf.close(|spare| {
                    steal_batch.push(spare);
                });
                engine.return_unclaimed(steal_batch.as_slice());
                if unclaimed < shelved {
                    steals.taken += (shelved - unclaimed) as u64;
                    // Future load ties break towards this shard: recent
                    // donors tend to stay the imbalanced ones.
                    peers.board.record_donation(me);
                }
            }
            // The edges the body ran across, in time order and ahead of
            // its completion: overrun enforcement and the miss trip
            // find the job still in its slot.
            while next_tick <= record.completed {
                tick_round!(next_tick, next_tick, record.completed);
                next_tick += tick;
            }
            job_done!(record);
            LOCAL.with_borrow_mut(|l| {
                let l = l.as_mut().expect("set when the thread started");
                std::mem::swap(&mut posts, &mut l.posts);
            });
        }

        // Retry any peer sends that found a full lane earlier — before
        // draining our own mailbox, so two busy shards always make
        // mutual progress.
        peers.flush();
        // Drain on the zero-alloc path, in the order things happened:
        // what the body posted, what reached the mailbox while it ran
        // (control, peer protocol, message lane — or, on an owner that
        // feeds helpers, whatever rang it, their completions among it),
        // and only then the completions: an activation or a boost that
        // arrived during a body finds its slot still taken and queues,
        // so the round that retires the body picks the most urgent of
        // everything that is ready by then — what a scheduler thread of
        // its own would have decided. All completions of one drain
        // retire in one round, folded into the tick round below when
        // one is due.
        let mut drained_any = false;
        loop {
            let Some(msg) = posts.pop_front().or_else(|| rx.borrow_mut().try_recv()) else {
                break;
            };
            drained_any = true;
            // Late work arriving after this shard advertised quiescence
            // revokes the advertisement before any effect of the work
            // (dispatches, routed tokens) becomes visible to peers. The
            // drain-protocol markers themselves are not work.
            if shutting_down && !matches!(msg, ShardMsg::DrainFlush { .. } | ShardMsg::DrainAck) {
                peers.clear_drained(me);
            }
            match msg {
                ShardMsg::Done(record) => job_done!(record),
                ShardMsg::Activate(task) => {
                    sink.clear();
                    if engine.activate_into(task, clock.now(), &mut sink).is_ok() {
                        settle_round!();
                    }
                }
                ShardMsg::CrossActivate {
                    edge,
                    graph_release,
                } => {
                    sink.clear();
                    engine
                        .on_remote_token(edge, graph_release, clock.now(), &mut sink)
                        .expect("cross-shard token routed to the owning shard");
                    settle_round!();
                }
                ShardMsg::MsgHigh { dst, .. } | ShardMsg::MsgDrained { dst } => {
                    // The whole engine has every task; a shard's, those
                    // assigned to its worker.
                    let owner = match engine.shard_worker() {
                        None => Some(worker),
                        Some(_) => engine
                            .taskset()
                            .tasks()
                            .get(dst.index())
                            .and_then(|t| t.spec().assigned_worker()),
                    };
                    match owner {
                        Some(o) if o == worker => {
                            let at = clock.now();
                            sink.clear();
                            let applied = match msg {
                                ShardMsg::MsgHigh { ceiling, .. } => {
                                    engine.on_high_posted_into(dst, ceiling, at, &mut sink)
                                }
                                _ => engine.on_high_drained_into(dst, at, &mut sink),
                            };
                            if applied.is_ok() {
                                settle_round!();
                            }
                        }
                        // Not ours: ride the per-peer lane to the owner,
                        // like a cross-shard activation token.
                        Some(o) => peers.send(o.index(), msg),
                        None => {}
                    }
                }
                ShardMsg::Admit {
                    taskset,
                    bodies: tenant_bodies,
                    budget,
                    at,
                    ack,
                } => {
                    // Control path: allocation here is fine, the tenant
                    // is not running yet (see module docs of
                    // `yasmin_sched::admission`).
                    for (k, b) in tenant_bodies.iter() {
                        bodies.insert(*k, Arc::clone(b));
                    }
                    let tenant = TenantId::new(engine.tenant_count() as u32);
                    engine
                        .splice_taskset(taskset, reservation_for(tenant, budget, at))
                        .expect("admission validated by the admitting thread");
                    if let Some(ack) = ack {
                        ack.fetch_sub(1, Ordering::AcqRel);
                    }
                }
                ShardMsg::Commit { tenant } => {
                    sink.clear();
                    // A commit racing a `stop()` is refused by the
                    // engine (`ScheduleNotRunning`) — the schedule is
                    // ending anyway, so the tenant simply never starts.
                    if engine
                        .commit_tenant_anchored_into(tenant, next_tick, clock.now(), &mut sink)
                        .is_ok()
                    {
                        settle_round!();
                    }
                }
                ShardMsg::Retire { tenant, at } => {
                    sink.clear();
                    engine
                        .retire_tenant_into(tenant, at, &mut sink)
                        .expect("retirement validated by the retiring thread");
                    settle_round!();
                }
                ShardMsg::Stop => engine.stop(),
                ShardMsg::Shutdown => {
                    // Shutdown implies stop: the drain below terminates
                    // only once releases cease.
                    engine.stop();
                    shutting_down = true;
                }
                ShardMsg::DrainFlush { from } => {
                    // The flush rode the FIFO peer lane behind every
                    // token `from` routed here before quiescing; acking
                    // it proves all of them have been received.
                    peers.send(from, ShardMsg::DrainAck);
                }
                ShardMsg::DrainAck => drain_acks += 1,
            }
        }
        let rx = rx.borrow();

        // Two-phase loss-free drain. Phase one: a shard that has gone
        // locally quiet — no job, spill backlog flushed, and (as
        // everywhere outside a body) nothing on its shelf — barriers
        // every peer lane with `DrainFlush` and waits for all acks; the
        // FIFO lanes turn each ack into a proof that the peer received
        // everything routed to it before the flush. Phase two: with all acks in and its own mailbox empty,
        // the shard raises its flag on the shared drain board. Exit
        // happens only at global quiescence — every shard drained *and*
        // this shard's mailbox and backlog still empty. A late token
        // un-drains its receiver before any effect of the work is
        // visible, and an undelivered message always shows up either in
        // its sender's backlog (sender not drained) or its receiver's
        // mailbox (receiver re-checks before exiting), so no message
        // can be lost. (An engine with a completion still to retire is
        // not idle: helpers' jobs are waited out like the owner's own.)
        if shutting_down && engine.is_idle() && peers.pending_empty() {
            if !flush_sent {
                for p in 0..peers.txs.len() {
                    if p != me {
                        peers.send(p, ShardMsg::DrainFlush { from: me });
                    }
                }
                flush_sent = true;
            }
            if drain_acks >= peer_count && rx.is_empty() {
                peers.set_drained(me);
                if peers.all_drained() && rx.is_empty() && peers.pending_empty() {
                    break;
                }
            }
        }

        // Tick edge, generated locally by this owner.
        let now = clock.now();
        if now >= next_tick {
            tick_round!(now, next_tick, now);
            while next_tick <= now {
                next_tick += tick;
            }
            continue;
        }
        retire_done!();

        // Fully idle (empty queue, no job, drained mailbox): take from
        // the shelf of the most loaded peer that has one filled.
        let thief = peers.stealing && !shutting_down && engine.is_idle() && rx.is_empty();
        if thief {
            steal_batch.clear();
            if let Some(victim) = peers.victim(me) {
                // Half the advertised load gap: a thief this idle takes
                // more from a deeply loaded victim, and never more than
                // a shelf holds.
                let k = peers
                    .board
                    .steal_batch_size(victim, engine.ready_len(), MAX_STEAL_BATCH);
                peers.shelves[victim].claim(k, |job| {
                    steal_batch.push(job);
                });
            }
            if steal_batch.is_empty() {
                // Nothing on offer, or another thief was faster.
                steals.empty_probes += 1;
            } else {
                steals.claims += 1;
                steals.jobs_claimed += steal_batch.len() as u64;
                sink.clear();
                engine
                    .adopt_stolen_batch(steal_batch.as_slice(), clock.now(), &mut sink)
                    .expect("a shelf holds its own shard's jobs only");
                settle_round!();
                continue;
            }
        }

        if drained_any || next_job.is_some() {
            // Something arrived this pass, or there is a job to run:
            // back to the top before sleeping.
            continue;
        }
        match waiting {
            WaitChoice::Sleep => {
                // Sleep until the next tick edge or the first ring.
                // Everything this loop acts on, and what wakes it:
                //
                //  * a mailbox command (control, peer protocol incl.
                //    `DrainFlush`/`DrainAck`, message lane, a helper's
                //    `Done`)          — `send` rings;
                //  * a peer's shelf filling
                //                     — idle flag up, the filler wakes
                //                       idle-flagged peers, re-checked
                //                       below;
                //  * `all_drained()`  — `set_drained` wakes,
                //                       re-checked below;
                //  * the tick edge    — the timeout, armed `lead`
                //                       ahead of the edge: the park
                //                       returns late by about that,
                //                       and a return that is still
                //                       early is spun out below;
                //  * room in a full peer lane for `peers.flush()`
                //                     — no event: timeout capped at
                //                       `SPILL_RETRY` while spilled
                //                       (and the spin at the lead).
                //
                // A job to run and this thread's own posts are not in
                // the list: neither outlives the pass that found it.
                //
                // The two re-checks run inside `park`, after this
                // thread has announced its sleep: a writer that changes
                // the state after the look is then guaranteed to see
                // the announcement and ring. A condition added to this
                // loop needs a line here: a ring from its writer, a
                // re-check below, or a bound on the timeout.
                //
                // The lead is the smallest `woke − armed` of this
                // thread's last 64 parks that *ran into their timeout*:
                // woken with the mailbox still empty and neither
                // re-check true, not capped by `SPILL_RETRY`, not back
                // before `armed` (a stale token). A park a ring ended
                // says nothing about the timer and is not sampled.
                //
                // Idle at or past `armed` — the park returned earlier
                // than it ever had, or the pass began that close to
                // the edge — the thread spins to the edge. The spin
                // polls what `park` polls and nothing else: the
                // mailbox's pending count and the two re-checks; every
                // other line above is a ring that shows there, or the
                // edge itself. It ends at the first of them and the
                // pass starts over, so a command that lands inside the
                // lead is served at once and the tick round still
                // waits for `clock.now() >= next_tick`.
                let lead = lead_in_force(pinned_lead, &timer_lead, tick);
                let armed = next_tick - lead;
                if thief {
                    peers.board.set_idle(me, true);
                }
                let also_ready = || {
                    (thief && peers.victim(me).is_some()) || (shutting_down && peers.all_drained())
                };
                if now < armed {
                    let spilled = !peers.pending_empty();
                    let mut timeout: std::time::Duration = (armed - now).into();
                    if spilled {
                        timeout = timeout.min(SPILL_RETRY);
                    }
                    rx.park(Some(timeout), also_ready);
                    let timed_out = !spilled && rx.is_empty() && !also_ready();
                    timer_lead.observe(armed, clock.now(), timed_out);
                } else {
                    ticks.early_wakes += 1;
                    let mut spun_to = now;
                    while spun_to < next_tick && rx.is_empty() && !also_ready() {
                        std::hint::spin_loop();
                        spun_to = clock.now();
                    }
                    ticks.spin_ns += spun_to.saturating_since(now).as_nanos();
                }
                if thief {
                    peers.board.set_idle(me, false);
                }
            }
            WaitChoice::Spin => std::hint::spin_loop(),
        }
    }

    // Global quiescence (see the drain protocol above): nothing can be
    // in flight, so exiting here loses no routed token and no job.
    debug_assert!(peers.shelf.is_empty(), "a shelf is open during a body only");
    debug_assert!(
        peers.pending_empty(),
        "drained shard with spilled peer messages"
    );
    debug_assert!(
        rx.borrow().is_empty(),
        "drained shard with a non-empty mailbox"
    );
    peers.board.publish(me, 0);
    for helper in &mut helpers {
        helper.push(None);
    }
    ticks.edges = late.count;
    ticks.late_p50_ns = late.median();
    ticks.late_max_ns = late.max;
    ticks.lead_ns = lead_in_force(pinned_lead, &timer_lead, tick).as_nanos();
    (records, engine.stats().clone(), ticks, steals)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_os = "linux")]
    use crate::test_util::{alone_in_child, thread_sleeps};
    use crate::test_util::{must_return, nap_ms, one_owner, sharded, within_attempts};
    use std::sync::atomic::{AtomicU32, Ordering};
    use yasmin_core::config::MappingScheme;
    use yasmin_core::graph::TaskSetBuilder;
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
        // src (periodic, worker 0) -> dst (graph node, worker 1): the
        // successor must run on worker 1, fed by CrossActivate commands
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
        // Every 50 ms shard 0 spends 20 ms in `busy` with `spare` queued
        // behind it. Shard 1 takes `spare` off the shelf at once — and
        // for the rest of those 20 ms the load board still shows shard 0
        // loaded (it publishes between bodies) while its shelf is empty:
        // the thief has to sleep on the shelf, not poll the board.
        if !alone_in_child("sharded::tests::an_idle_thief_with_empty_shelves_stays_parked") {
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
        // src (worker 0) streams typed messages to dst (worker 1) over
        // the channel bound to their DAG edge; every third message rides
        // the high lane. The post hook runs in src's body on shard 0's
        // thread and takes that thread's own queue, the drain hook runs
        // on shard 1's and crosses shard 0's message lane, and both are
        // forwarded over a peer lane to shard 1 — the thread crossings
        // this smoke test exists to put under TSan. dst outlasts the src
        // period, so a high post always finds a live dst job to boost.
        use yasmin_core::priority::Priority;
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
    ) -> (TaskSet, HashMap<(TaskId, VersionId), TaskBody>) {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("tenant", ms(period_ms)).on_worker(WorkerId::new(worker)))
            .unwrap();
        let v = b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        let c = Arc::clone(counter);
        let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
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
        for r in &tenant_recs {
            assert!(!r.missed(), "admitted tenant missed a deadline");
            assert_eq!(r.worker, WorkerId::new(1));
        }
        // The build-time tenant ran throughout.
        assert!(base_count.load(Ordering::SeqCst) >= 10);
    }

    #[test]
    fn overloaded_tenant_is_rejected_with_the_violated_bound() {
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
            rt.admit(&cand, HashMap::new(), None),
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
        // A parked thread blocks a few times per tick, a polling one (a
        // 100 µs nap) thousands of times in 300 ms.
        if !alone_in_child("sharded::tests::idle_threads_stay_parked") {
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
        // `WaitChoice::Spin`, one 5 ms task per shard for 200 ms: each
        // shard busy-waits alone on its thread, so every job starts
        // within a period of its release, none is lost, and `cleanup`
        // has no backlog to wait out.
        within_attempts(3, || {
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
            let t = std::time::Instant::now();
            let report = rt.cleanup();
            let cleanup_ms = t.elapsed().as_millis();
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
            let late = report
                .records
                .iter()
                .filter(|r| r.start_latency() >= ms(5))
                .count();
            if late > 0 || cleanup_ms >= 1_000 {
                return Err(format!(
                    "{late} jobs a period late, cleanup took {cleanup_ms} ms"
                ));
            }
            Ok(())
        });
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
        // 1 s of a 2 ms tick — some 490 edges met with the park armed
        // early, on one owner and on two shards: arming early moves no
        // dispatch ahead of its edge (in debug builds `tick_round!`
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

    /// 400 ms of one 5 ms task on one owner; what its edges cost.
    #[cfg(target_os = "linux")]
    fn tick_stats_of_a_short_run() -> TickStats {
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic("t", ms(5));
        let (t, v) = task(&mut b, spec, 0, Duration::from_micros(20));
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, one_owner(1))
            .body(t, v, |_| {})
            .build()
            .unwrap();
        nap_ms(400);
        rt.stop();
        rt.cleanup().tick_stats[0]
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn the_lead_is_bounded_and_cheap() {
        // Alone: the pinned lead is process-wide.
        if !alone_in_child("sharded::tests::the_lead_is_bounded_and_cheap") {
            return;
        }
        within_attempts(3, || {
            PINNED_LEAD_NS.store(0, Ordering::Relaxed);
            let plain = tick_stats_of_a_short_run();
            PINNED_LEAD_NS.store(u64::MAX, Ordering::Relaxed);
            let led = tick_stats_of_a_short_run();

            assert_eq!((plain.lead_ns, plain.spin_ns), (0, 0), "lead pinned to 0");
            assert!(led.edges >= 20 && plain.edges >= 20, "{led:?} {plain:?}");
            assert!(led.lead_ns <= TimerLead::CAP.as_nanos(), "{led:?}");
            if led.spin_ns > 400_000_000 / 50 {
                return Err(format!("spun more than 2 % of 400 ms: {led:?}"));
            }
            if led.late_p50_ns > plain.late_p50_ns {
                return Err(format!(
                    "later with the lead {led:?} than without {plain:?}"
                ));
            }
            Ok(())
        });
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_command_inside_the_lead_is_served_before_the_edge() {
        // Tick 50 ms and a lead pinned to 5 ms, so the owner spins
        // through a window wide enough to aim at: an activation sent
        // 2.5 ms ahead of an edge finds the owner spinning, and its job
        // starts before that edge — the spin polls the mailbox.
        if !alone_in_child("sharded::tests::a_command_inside_the_lead_is_served_before_the_edge") {
            return;
        }
        const TICK_MS: u64 = 50;
        let lead = ms(5);
        PINNED_LEAD_NS.store(lead.as_nanos(), Ordering::Relaxed);
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let (p, vp) = task(&mut b, TaskSpec::periodic("p", ms(TICK_MS)), 0, ms(1));
            let (a, va) = task(&mut b, TaskSpec::aperiodic("a"), 0, ms(1));
            let ts = Arc::new(b.build().unwrap());
            // The grid: `p`'s first release is the owner's anchor.
            let anchor_ns = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let anchor = Arc::clone(&anchor_ns);
            let rt = RuntimeBuilder::new(ts, one_owner(1))
                .body(p, vp, move |ctx| {
                    if ctx.job.seq == 0 {
                        anchor.store(ctx.job.release.as_nanos(), Ordering::SeqCst);
                    }
                })
                .body(a, va, |_| {})
                .build()
                .unwrap();
            nap_ms(10);
            let anchor = Instant::from_nanos(anchor_ns.load(Ordering::SeqCst));
            let edge = anchor + ms(2 * TICK_MS);
            let aim = edge - lead / 2;
            // Sleep to a millisecond short of it, then watch the clock.
            std::thread::sleep((aim - ms(1)).saturating_since(rt.clock.now()).into());
            while rt.clock.now() < aim {
                std::hint::spin_loop();
            }
            rt.activate(a).unwrap();
            let sent = rt.clock.now();
            nap_ms(TICK_MS);
            rt.stop();
            let report = rt.cleanup();

            assert!(anchor > Instant::ZERO, "p ran at the anchor");
            let ticks = report.tick_stats[0];
            assert_eq!(ticks.lead_ns, lead.as_nanos());
            assert!(ticks.early_wakes >= 1 && ticks.spin_ns > 0, "{ticks:?}");
            let ran: Vec<_> = report.records.iter().filter(|r| r.job.task == a).collect();
            assert_eq!(ran.len(), 1, "activated once");
            if sent >= edge {
                return Err(format!("sent {} past the edge", sent - edge));
            }
            if ran[0].started >= edge {
                return Err(format!(
                    "sent {} ahead of the edge, started {} past it",
                    edge - sent,
                    ran[0].started - edge
                ));
            }
            Ok(())
        });
    }

    #[test]
    fn a_body_may_post_more_than_its_home_lane_holds() {
        // Every src job posts 100 high messages: 100 events from shard
        // 0's own thread to its own home, whose message lane holds 64 —
        // sent there, the first job would wait for room only its own
        // thread can make. dst drains them all in one job on shard 1:
        // 100 drain events into that lane from a foreign body, which
        // does wait for room, while shard 0 forwards 100 posts the other
        // way. Nothing may hang, and every boost must balance (in debug
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
            assert_eq!(stats.released, stats.completed);
            (activated.load(Ordering::SeqCst), ran.load(Ordering::SeqCst))
        });
        assert!(activated >= 3 * PER_JOB, "only {activated} activations");
        // The ready queue holds 64 too; what it refused is dropped.
        assert!(ran >= 64, "only {ran} of {activated} activations ran");
    }

    #[test]
    fn admit_and_retire_wait_one_body_at_most() {
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
