//! The sharded real-thread runtime: **one thread per core**.
//!
//! The classic [`crate::runtime::Runtime`] owns one scheduler thread for
//! the whole engine and hands every job to a worker thread. Under
//! partitioned mapping the engine state splits into independent
//! per-worker shards ([`EngineShard`]) — the paper's Fig. 1b, one
//! scheduler per virtual CPU — so this runtime spawns **one thread per
//! shard** that is scheduler and worker at once: it runs an engine
//! round, executes the body that round dispatched *itself*, retires it,
//! and goes back to its mailbox at the **job boundary**. A job costs no
//! hand-off: no dispatch ring, no completion message, no second thread
//! to wake on the same core.
//!
//! Everything else reaches a shard through the MPSC command mailbox of
//! `yasmin_sync::mailbox`: one lane for control commands
//! (activate/admit/retire/stop/shutdown), **one lane per peer shard**
//! carrying the cross-shard protocol — routed DAG activation tokens
//! (`CrossActivate`), forwarded message-plane events and the
//! work-stealing handshake (`StealRequest` / `StolenBatch` /
//! `StealDeny`) — and one *message lane* fed by the channel notify
//! hooks that fire on other threads. Ticks are generated locally by
//! each shard thread at the shared gcd period.
//!
//! # The job boundary
//!
//! Shards schedule **non-preemptively** (`preemption(false)`, like the
//! single-owner runtime; preemptive sharded configurations are
//! exercised by the simulator driver `yasmin_sim::par`), and a shard
//! thread inside a body does nothing else. Whatever reaches the shard
//! meanwhile waits for the boundary — at most **one body**, i.e. one
//! WCET of a job that keeps to it:
//!
//! * **Tick edges** that passed while the body ran are handled when it
//!   returns, each at its nominal instant, in time order and *before*
//!   the completion retires: `enforce_wcet` and the miss trip find the
//!   overrunning job still in its slot. The releases carry their
//!   nominal times and are dispatched late by the rest of the body —
//!   the analysis' non-preemptive blocking term.
//! * **Steal requests**: a victim grants or refuses at its boundary;
//!   the thief has one request in flight and sleeps until the answer
//!   rings. Fewer jobs migrate than a free-running scheduler thread
//!   would give away.
//! * **`admit`**: a shard splices and acknowledges at its boundary, so
//!   [`ShardedRuntime::admit`] returns after the longest body then in
//!   flight. `Commit`, [`ShardedRuntime::retire`] (which returns at
//!   once), `activate` and `stop` take effect there too.
//! * **`DrainFlush`** is acknowledged at the boundary; the shutdown
//!   drain waits out the bodies in flight in any case.
//! * **Tokens and boosts from other threads** (`CrossActivate`,
//!   `MsgHigh`, `MsgDrained`): a boost cannot displace a running body
//!   on any design; it re-orders the queue the next dispatch reads.
//! * **Message-plane events from a shard's own bodies.** A notify hook
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
//!   (`wait_for`) holds nothing and, on a shard thread, keeps moving
//!   that thread's mailbox into its own queue — so the room others wait
//!   for is always made, and two bodies can never wait on each other.
//!   `admit` waits for every shard's boundary with nothing held, which
//!   lets those calls through; it must not itself come from a body,
//!   whose own shard would never get there.
//!
//! # Wake-up protocol
//!
//! Every sleep in this file is a `yasmin_sync::doorbell::Doorbell` wait
//! (the paper's "sleep" waiting strategy, §3.5); there is no polling
//! nap. A shard thread with no job to run parks on its mailbox
//! (`MailboxReceiver::park`) until its next tick edge, and:
//!
//! * Every `send` into any lane rings it: a peer's `CrossActivate` /
//!   `Steal*` / `MsgHigh` / `Drain*`, the control lane (`activate`,
//!   `admit`, `retire`, `stop`, `cleanup`) and the notify hooks on the
//!   message lane. A lane closing rings it too.
//! * Two things it waits for are *not* messages, so their writers ring
//!   explicitly (`MailboxSender::wake`) and the sleeper re-checks them
//!   after announcing its sleep: **stealable load** — an idle thief
//!   that found no victim raises its idle flag on the [`LoadBoard`]
//!   before parking, and a victim publishing a stealable load above
//!   zero wakes the flagged peers — and **the shutdown drain board** —
//!   a shard that raises its drained flag wakes every peer.
//! * One thing has no event at all: room appearing in a full peer lane.
//!   While a shard holds spilled peer sends its park is bounded by
//!   `SPILL_RETRY`.
//!
//! No wake-up is lost because both sides follow the doorbell's rule
//! (see its module docs): the ringer publishes, fences, then looks for
//! a sleeper; the sleeper announces itself, fences, then looks for
//! work. A ring at an awake thread — one inside a body included — costs
//! one load. The full list of conditions the loop re-evaluates on
//! waking sits at its park site in `shard_scheduler_main`. Under
//! [`WaitChoice::Spin`] nobody parks: the shard thread spins on its
//! mailbox and the clock between jobs, alone on its core.
//!
//! A pass that finds the completion of the body it has just run *and* a
//! due tick coalesces both into **one** engine round
//! ([`EngineShard::advance_into`]): the single dispatch round sees the
//! freed worker and the fresh releases together.
//!
//! With [`ShardedRuntimeBuilder::work_stealing`] enabled, an idle shard
//! (empty queue, no job, drained mailbox) probes the advisory
//! [`LoadBoard`] for a victim — most loaded peer first, exact load
//! ties broken towards DAG-adjacent shards (wired from the task set's
//! cross-shard edges at startup) and recent donors — and sends it a
//! `StealRequest` carrying a batch size `k` derived from the load gap
//! ([`LoadBoard::steal_batch_size`], capped at
//! [`yasmin_sched::MAX_STEAL_BATCH`]). The victim detaches up to `k` of
//! its most urgent accelerator-free ready jobs in one exchange
//! ([`EngineShard::try_steal_batch`] /
//! [`EngineShard::release_stolen_batch`]) and grants them back as a
//! single `StolenBatch` ack, and the thief adopts the whole batch with
//! one dispatch round and runs the jobs itself — global [`WorkerId`]s
//! keep every record truthful about where a job actually ran.
//! Cross-shard DAG successors of any completion (stolen or local) are
//! drained from the shard outbox and routed to the owning peer's lane.
//! Scheduling decisions run through the same zero-allocation
//! [`ActionSink`] path as the single-owner runtime.

use crate::runtime::{check_bodies, JobCtx, RtJobRecord, RuntimeReport, TaskBody};
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
use yasmin_core::time::{Clock, Instant, MonotonicClock};
use yasmin_sched::admission::{AdmissionControl, AdmissionError, TenantLedger};
use yasmin_sched::msg::{MsgEvent, NotifyHandle, Receiver as MsgReceiver, Sender as MsgSender};
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{
    validate_sharding, Action, ActionSink, EngineShard, EngineStats, Job, JobBatch, JobOutcome,
    RemoteActivation, ShardCmd, StealHint, MAX_STEAL_BATCH,
};
use yasmin_sync::mailbox::{mailbox, MailboxFull, MailboxReceiver, MailboxSender};
use yasmin_sync::steal::LoadBoard;
use yasmin_sync::wait::Backoff;

/// Lane indices of each shard's command mailbox; lane `LANE_PEER0 + p`
/// belongs to peer shard `p` (a shard's own peer lane stays unused, so
/// indexing needs no adjustment). Lane `LANE_PEER0 + n` is the *message
/// lane* (see [`MsgLanes`]).
const LANE_CONTROL: usize = 0;
const LANE_PEER0: usize = 1;

/// Longest park of a shard thread that holds spilled peer sends
/// ([`PeerLinks::pending`]): room appearing in a full lane rings no
/// bell, so the flush is retried on this period until the backlog is
/// gone.
const SPILL_RETRY: std::time::Duration = std::time::Duration::from_micros(200);

/// Commands flowing into a shard thread.
// The steal-grant variant embeds a fixed-size `JobBatch` (see
// `ShardCmd`): boxing it would allocate on the steal hot path, and the
// messages live in preallocated mailbox lanes anyway.
#[allow(clippy::large_enum_variant)]
enum ShardMsg {
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
    /// An idle peer asks for up to `k` ready jobs; `k` is sized by the
    /// thief from the advertised load gap
    /// ([`LoadBoard::steal_batch_size`]).
    StealRequest { thief: WorkerId, k: u8 },
    /// A victim's grant: up to [`MAX_STEAL_BATCH`] detached jobs in one
    /// ack (a single steal is a batch of one); the thief adopts them
    /// all with one dispatch round.
    StolenBatch { jobs: JobBatch },
    /// A victim's refusal; the thief may re-probe.
    StealDeny,
    /// Phase one of a two-phase tenant admission (see
    /// [`ShardedRuntime::admit`]): splice the merged task set — its
    /// suffix is the new tenant — into this shard and register the
    /// tenant's bodies, with every new release left **disarmed**. The
    /// shard decrements `ack` when its splice is done; the admitting
    /// thread holds the commit until the counter hits zero so a
    /// cross-shard token for a new task can never reach a shard that has
    /// not yet heard of it.
    Admit {
        taskset: Arc<TaskSet>,
        bodies: Arc<HashMap<(TaskId, VersionId), TaskBody>>,
        budget: Option<TenantBudget>,
        at: Instant,
        ack: Arc<AtomicUsize>,
    },
    /// Phase two: arm the tenant's releases. Each shard anchors them at
    /// its **next local tick edge** (not the commit send instant): the
    /// shard dispatches on a fixed tick grid, so an off-grid release
    /// phase would delay every dispatch of the tenant by up to one tick
    /// — enough to sink a deadline equal to the period.
    Commit { tenant: TenantId },
    /// Quiesce a tenant: cull its ready jobs, disarm its releases, drop
    /// its pending tokens; a job in flight finishes but fires no
    /// successors.
    Retire { tenant: TenantId, at: Instant },
    /// Stop releasing periodic jobs.
    Stop,
    /// Drain and exit (two-phase: see the drain protocol in
    /// [`shard_scheduler_main`]).
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

/// Builder for the sharded runtime, mirroring
/// [`crate::runtime::RuntimeBuilder`].
pub struct ShardedRuntimeBuilder {
    taskset: Arc<TaskSet>,
    config: Config,
    bodies: HashMap<(TaskId, VersionId), TaskBody>,
    channels: Vec<NotifyHandle>,
    pin_offset: usize,
    lock_memory: bool,
    work_stealing: bool,
}

impl ShardedRuntimeBuilder {
    /// Starts building a sharded runtime for `taskset` under `config`.
    ///
    /// `config` must use partitioned mapping with
    /// `Config::sharded_dispatch(true)` and `preemption(false)`.
    #[must_use]
    pub fn new(taskset: Arc<TaskSet>, config: Config) -> Self {
        ShardedRuntimeBuilder {
            taskset,
            config,
            bodies: HashMap::new(),
            channels: Vec::new(),
            pin_offset: 0,
            lock_memory: false,
            work_stealing: false,
        }
    }

    /// Opens the typed endpoints of a declared channel and registers its
    /// notify hook, mirroring [`crate::runtime::RuntimeBuilder::channel`].
    /// Under sharding the channel's events land on its *home* shard (the
    /// sending task's); when the receiving task lives on another shard
    /// the home shard forwards them over the per-peer lanes, exactly
    /// like cross-shard DAG activation tokens.
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
    /// its high-lane traffic reaches the shard owning the receiver.
    #[must_use]
    pub fn register_channel(mut self, handle: NotifyHandle) -> Self {
        self.channels.push(handle);
        self
    }

    /// Enables work stealing: an idle shard probes the advisory load
    /// board and pulls the most urgent accelerator-free ready jobs off
    /// the most loaded peer, running them itself. Off by default, which
    /// preserves strict task-to-worker placement.
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

    /// Pins the thread of shard *w* to core `offset + w`, best-effort: a
    /// thread the kernel refuses to pin (no such core, restricted
    /// cpuset) runs unpinned and is counted in
    /// [`RuntimeReport::unpinned_threads`].
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

    /// Validates the sharding contract and spawns one thread per shard;
    /// the schedule starts immediately.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] when preemption is enabled, sharded
    ///   dispatch is not opted into, a version has no registered body,
    ///   or the task set violates the sharding contract
    ///   ([`yasmin_sched::validate_sharding`]);
    /// * engine construction errors (partition validation etc.).
    pub fn build(self) -> Result<ShardedRuntime> {
        if self.config.preemption() {
            return Err(Error::InvalidConfig(
                "the sharded thread runtime schedules non-preemptively at job \
                 boundaries; build the Config with .preemption(false)"
                    .into(),
            ));
        }
        check_bodies(&self.taskset, &self.bodies)?;
        let shards = EngineShard::build_all(&self.taskset, &self.config)?;
        if self.lock_memory {
            // Best-effort; containers commonly deny it.
            let _ = crate::os::lock_all_memory();
        }
        ShardedRuntime::spawn(self, shards)
    }
}

/// What a shard thread returns when it exits: its records, its engine
/// counters, and whether it ran pinned.
type ShardExit = (Vec<RtJobRecord>, EngineStats, bool);

/// The running sharded middleware: one scheduling-and-executing thread
/// per core.
pub struct ShardedRuntime {
    /// Tenant state; the mutex serialises the splice and retire
    /// broadcasts of concurrent callers, so every shard hears them in
    /// ledger order. Retirements are validated here because shard
    /// threads cannot reply.
    ledger: Mutex<TenantLedger>,
    config: Config,
    clock: Arc<MonotonicClock>,
    /// One control sender per shard (lane [`LANE_CONTROL`]), shared by
    /// the callers of this `&self` handle.
    control: Vec<SharedLane>,
    /// Tells a caller that is inside a body of this runtime ([`wait_for`]).
    lanes: MsgLanes,
    shards: Vec<std::thread::JoinHandle<ShardExit>>,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// A sender into one lane of a shard's mailbox that threads share: the
/// mutex keeps the lane at one logical producer.
type SharedLane = Mutex<MailboxSender<ShardMsg>>;

/// The message lanes of one runtime, by home shard: where the channel
/// notify hooks post from threads other than the home shard's own.
/// Shared by the hooks, the runtime handle and the shard threads, which
/// tell their own runtime by it.
type MsgLanes = Arc<Vec<SharedLane>>;

/// What code running inside a body finds of the shard thread it is on:
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
/// another caller holds while *it* waits for room — comes from a shard
/// reaching its job boundary, and the caller may be inside a body of one
/// of `lanes`' shards: that thread keeps moving its mailbox into its own
/// queue meanwhile, so it always makes the room others are waiting for
/// and two bodies can never wait on each other.
fn wait_for<T>(lanes: &MsgLanes, mut attempt: impl FnMut() -> Option<T>) -> T {
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

fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::WouldBlock) => None,
        Err(TryLockError::Poisoned(_)) => panic!("runtime mutex poisoned"),
    }
}

/// Sends `msg` into a shared lane, waiting for room ([`wait_for`]).
fn send_waiting(lanes: &MsgLanes, lane: &SharedLane, msg: ShardMsg) {
    let mut msg = Some(msg);
    wait_for(lanes, || {
        let sent = try_lock(lane)?.send(msg.take()?);
        sent.map_err(|MailboxFull(v)| msg = Some(v)).ok()
    });
}

/// Delivers a message-plane event to its channel's `home` shard from
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

impl ShardedRuntime {
    fn spawn(builder: ShardedRuntimeBuilder, shards: Vec<EngineShard>) -> Result<Self> {
        let clock = Arc::new(MonotonicClock::new());
        let cap = builder.config.max_pending_jobs();
        let waiting = builder.config.waiting();
        let n = shards.len();
        let tick = shards
            .first()
            .map(EngineShard::tick_period)
            .ok_or_else(|| {
                Error::InvalidConfig("sharded runtime needs at least one worker".into())
            })?;
        let admission = AdmissionControl::new(builder.config.clone(), tick);
        let board = Arc::new(LoadBoard::new(n));
        let taskset = &builder.taskset;
        let owner_of = |t: TaskId| -> Result<usize> {
            let owner = taskset.task(t)?.spec().assigned_worker();
            Ok(owner.ok_or(Error::MissingPartition(t))?.index())
        };
        // Seed the victim-selection hints: shards joined by a
        // cross-shard DAG edge are marked adjacent, so on exact load
        // ties a thief prefers a victim whose jobs have successors (or
        // predecessors) on the thief's own shard — the stolen work's
        // tokens then travel a lane that already exists.
        for e in taskset.edges() {
            if let (Ok(a), Ok(b)) = (owner_of(e.src), owner_of(e.dst)) {
                if a != b {
                    board.set_adjacent(a, b);
                }
            }
        }
        let drain_board: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());

        // One mailbox per shard: control lane, one lane per peer shard
        // for the cross-shard protocol, and a final message lane fed by
        // the channel notify hooks. Peer senders are regrouped so shard
        // thread `s` owns, for every target `t`, the sender feeding lane
        // `LANE_PEER0 + s` of `t`'s mailbox.
        let mut control = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        let mut peer_lanes_by_target = Vec::with_capacity(n);
        let mut msg_txs = Vec::with_capacity(n);
        for _ in 0..n {
            let (mut lanes, mailbox_rx) = mailbox::<ShardMsg>(LANE_PEER0 + n + 1, cap.max(64));
            let mut peer_lanes = lanes.split_off(LANE_PEER0);
            msg_txs.push(Mutex::new(peer_lanes.pop().expect("message lane present")));
            peer_lanes_by_target.push(peer_lanes);
            control.push(Mutex::new(lanes.swap_remove(LANE_CONTROL)));
            receivers.push(mailbox_rx);
        }
        let msg_lanes: MsgLanes = Arc::new(msg_txs);

        // Arm the channel notify hooks: each channel posts its events to
        // its *home* shard — the sending task's shard, so one channel's
        // posts and drains travel one FIFO route and can never reorder.
        // A home shard that does not own the receiver forwards over the
        // per-peer lanes (see `ShardMsg::MsgHigh`).
        for handle in &builder.channels {
            if handle.ceiling().is_none() {
                continue;
            }
            let edge = taskset
                .edges()
                .iter()
                .find(|e| Some(e.channel) == handle.channel());
            let home = owner_of(edge.map_or(handle.dst(), |e| e.src))?;
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
        for ((shard, mailbox_rx), peers) in shards.into_iter().zip(receivers).zip(peer_txs) {
            let w = shard.worker();
            let core = builder.pin_offset + w.index();
            let bodies = builder.bodies.clone();
            let clock = Arc::clone(&clock);
            let lanes = Arc::clone(&msg_lanes);
            let links = PeerLinks {
                txs: peers,
                pending: (0..n).map(|_| VecDeque::new()).collect(),
                board: Arc::clone(&board),
                stealing: builder.work_stealing && n > 1,
                drained: Arc::clone(&drain_board),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("yasmin-shard-sched-{w}"))
                    .spawn(move || {
                        let pinned = crate::os::pin_current_thread(core).is_ok();
                        let (records, stats) = shard_scheduler_main(
                            shard, bodies, mailbox_rx, &clock, waiting, links, lanes,
                        );
                        (records, stats, pinned)
                    })
                    .map_err(|e| Error::Os(format!("spawning shard thread {w}: {e}")))?,
            );
        }

        Ok(ShardedRuntime {
            ledger: Mutex::new(TenantLedger::new(admission, builder.taskset)),
            config: builder.config,
            clock,
            control,
            lanes: msg_lanes,
            shards: threads,
        })
    }

    /// Sends one `msg()` down every shard's control lane.
    fn broadcast(&self, msg: impl Fn() -> ShardMsg) {
        for lane in &self.control {
            send_waiting(&self.lanes, lane, msg());
        }
    }

    fn lock_ledger(&self) -> MutexGuard<'_, TenantLedger> {
        wait_for(&self.lanes, || try_lock(&self.ledger))
    }

    /// Activates an aperiodic or sporadic task on its owning shard (the
    /// paper's `yas_task_activate`). Like [`ShardedRuntime::retire`] and
    /// [`ShardedRuntime::stop`] it may be called from a task body of
    /// this runtime, whatever the other callers are doing.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] / [`Error::MissingPartition`] when the
    /// task does not exist or has no worker assignment.
    pub fn activate(&self, task: TaskId) -> Result<()> {
        let owner = self
            .lock_ledger()
            .merged()
            .task(task)?
            .spec()
            .assigned_worker();
        let w = owner.ok_or(Error::MissingPartition(task))?;
        send_waiting(
            &self.lanes,
            &self.control[w.index()],
            ShardMsg::Activate(task),
        );
        Ok(())
    }

    /// Admits a new tenant into the **running** sharded schedule.
    ///
    /// `candidate` is the tenant's task set declared in its own id
    /// space; `bodies` maps its `(task, version)` pairs (candidate-local
    /// ids) to executable bodies; `budget`, when given, caps the
    /// tenant's share with a per-shard replica of its reservation server
    /// — under partitioned scheduling the budget bounds the tenant **per
    /// worker** (a tenant spanning `k` shards may consume up to `k ×`
    /// capacity per period).
    ///
    /// The schedulability check ([`AdmissionControl::evaluate`] on the
    /// live tenants only — see [`TenantLedger`] — plus the sharding
    /// contract, [`validate_sharding`]) runs on the **caller's**
    /// thread — the paper's non-real-time admission path. An accepted
    /// tenant is then spliced in **two phases** over the control lanes:
    /// every shard first adopts the merged set with the new releases
    /// disarmed and acknowledges, and only once all shards have
    /// acknowledged is the commit broadcast that arms the releases. The
    /// barrier guarantees a cross-shard DAG token of the new tenant can
    /// never arrive at a shard that has not yet spliced. A shard
    /// acknowledges at its next job boundary, so the call lasts as long
    /// as the longest body then running — and must not come from a task
    /// body of this runtime, whose own shard could then never
    /// acknowledge. Existing tenants' scheduling is untouched either way.
    ///
    /// Returns the assigned [`TenantId`] (use it with
    /// [`ShardedRuntime::retire`]); the tenant's task ids are its
    /// candidate ids offset by the number of tasks admitted before it.
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
        check_bodies(candidate, &bodies).map_err(AdmissionError::Invalid)?;
        let ack = Arc::new(AtomicUsize::new(self.control.len()));
        // Phase 1: broadcast the splice, under the ledger lock so that
        // every shard hears concurrent admissions in ledger order.
        let tenant = self
            .lock_ledger()
            .admit(candidate, budget.as_ref(), |admission| {
                validate_sharding(admission.merged, &self.config)?;
                let remapped: Arc<HashMap<(TaskId, VersionId), TaskBody>> = Arc::new(
                    bodies
                        .into_iter()
                        .map(|((t, v), b)| ((TaskId::new(admission.task_offset + t.raw()), v), b))
                        .collect(),
                );
                let at = self.clock.now();
                self.broadcast(|| ShardMsg::Admit {
                    taskset: Arc::clone(admission.merged),
                    bodies: Arc::clone(&remapped),
                    budget,
                    at,
                    ack: Arc::clone(&ack),
                });
                Ok(())
            })?;
        // Wait for every shard to acknowledge, holding nothing: a body
        // that calls `activate`, `retire` or `stop` meanwhile gets
        // through, returns, and lets its shard reach the boundary this
        // wait is for.
        wait_for(&self.lanes, || {
            (ack.load(Ordering::Acquire) == 0).then_some(())
        });
        // Phase 2: every shard knows the tenant — arm its releases
        // (each shard anchors them at its next local tick edge).
        self.broadcast(|| ShardMsg::Commit { tenant });
        Ok(tenant)
    }

    /// Retires an admitted tenant on every shard: its future releases
    /// stop, its ready jobs are culled, a job of its in flight finishes
    /// without firing successors, and racing cross-shard tokens are
    /// dropped silently. Other tenants are untouched, and the tenant's
    /// bandwidth is available to the next [`ShardedRuntime::admit`].
    /// Returns once the command is sent; each shard applies it at its
    /// next job boundary.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] / [`Error::TenantRetired`] for ids never
    /// admitted or already retired; [`Error::InvalidConfig`] for tenant
    /// 0 (the build-time set — use [`ShardedRuntime::stop`]).
    pub fn retire(&self, tenant: TenantId) -> Result<()> {
        let mut ledger = self.lock_ledger();
        // The ledger forgets the tenant before the shards hear of it:
        // a later admission's splice travels the same FIFO control
        // lanes, so every shard has retired the tenant by the time it
        // commits a tenant admitted into the freed bandwidth.
        ledger.retire(tenant)?;
        let at = self.clock.now();
        self.broadcast(|| ShardMsg::Retire { tenant, at });
        Ok(())
    }

    /// Stops releasing new periodic jobs on every shard; in-flight jobs
    /// drain (the paper's `yas_stop`).
    pub fn stop(&self) {
        self.broadcast(|| ShardMsg::Stop);
    }

    /// Drains every shard, joins all threads and returns the merged run
    /// report (the paper's `yas_cleanup`). Records are ordered by
    /// completion time across shards.
    ///
    /// # Panics
    ///
    /// Panics if a runtime thread panicked.
    #[must_use]
    pub fn cleanup(mut self) -> RuntimeReport {
        self.broadcast(|| ShardMsg::Shutdown);
        let mut report = RuntimeReport {
            records: Vec::new(),
            engine_stats: EngineStats::default(),
            unpinned_threads: 0,
        };
        for s in self.shards.drain(..) {
            let (records, stats, pinned) = s.join().expect("shard thread panicked");
            report.records.extend(records);
            report.engine_stats.merge(&stats);
            report.unpinned_threads += usize::from(!pinned);
        }
        report
            .records
            .sort_by_key(|r| (r.completed, r.job.task, r.job.seq));
        report
    }
}

/// A shard thread's links to its peers: one mailbox sender per target
/// shard (its own slot is `None`), the advisory load board, and whether
/// stealing is enabled.
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

    /// Publishes this shard's stealable load and, when there is
    /// something to take, wakes up to that many thieves parked for want
    /// of a victim (see "Parked thieves" in `yasmin_sync::steal`).
    fn publish_load(&self, me: usize, load: usize) {
        self.board.publish(me, load);
        if load > 0 {
            for thief in self.board.idle_peers(me).take(load) {
                if let Some(tx) = &self.txs[thief] {
                    tx.wake();
                }
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

/// One shard's thread: engine rounds, and between them the one job the
/// last round dispatched, run right here.
#[allow(clippy::too_many_lines)]
fn shard_scheduler_main(
    mut shard: EngineShard,
    mut bodies: HashMap<(TaskId, VersionId), TaskBody>,
    rx: MailboxReceiver<ShardMsg>,
    clock: &Arc<MonotonicClock>,
    waiting: WaitChoice,
    mut peers: PeerLinks,
    lanes: MsgLanes,
) -> (Vec<RtJobRecord>, EngineStats) {
    let worker = shard.worker();
    let me = worker.index();
    let tick = shard.tick_period();
    let mut records: Vec<RtJobRecord> = Vec::new();
    let mut shutting_down = false;
    // The victim worker index of the one in-flight steal request, if
    // any — cleared by its grant/refusal, or when the victim's lane
    // closes without answering (the victim exited).
    let mut pending_steal: Option<usize> = None;
    // Victim-side batch-steal scratch, reused across grants so the
    // steal path stays allocation-free after the first exchange.
    let mut steal_hints: Vec<StealHint> = Vec::with_capacity(MAX_STEAL_BATCH);
    let mut steal_batch = JobBatch::new();
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
    // The job the engine's last round dispatched — one worker, never
    // preempted, so at most one — run at the top of the next pass.
    let mut next_job: Option<(Job, VersionId)> = None;
    // The completion of the body just run, not yet retired: folded into
    // a due tick, or retired ahead of the first command of the pass.
    let mut done: Option<(WorkerId, JobId)> = None;
    let mut last_done = Instant::ZERO;
    // Cross-shard DAG tokens drained from the shard outbox, reused.
    let mut outbox: Vec<RemoteActivation> = Vec::with_capacity(8);

    // The advertised load is the *stealable* load: zero whenever the
    // steal probe would yield no hint (empty queue, or a top job that
    // must not migrate). Advertising raw ready counts would invite a
    // persistent request/deny ping-pong against a shard whose queue
    // holds only unstealable work.
    let stealable_load =
        |shard: &EngineShard| -> usize { shard.try_steal().map_or(0, |_| shard.ready_len()) };

    // Everything an engine round leaves behind: the dispatch becomes
    // the next job, cross-shard tokens route to their owning peers, and
    // — when anyone actually probes — the advisory load is republished
    // (with stealing off, the probe and the store would be pure
    // overhead on the benchmarked dispatch path).
    macro_rules! settle_round {
        () => {{
            for &a in sink.as_slice() {
                // Boost actions are priority bookkeeping only;
                // preemption is disabled, so Preempt cannot occur.
                if let Action::Dispatch { job, version, .. } = a {
                    debug_assert!(next_job.is_none(), "one worker, one job");
                    next_job = Some((job, version));
                }
            }
            shard.drain_outbox_into(&mut outbox);
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
                peers.publish_load(me, stealable_load(&shard));
            }
        }};
    }
    // Retires the pending completion, if any, in a round of its own.
    macro_rules! retire_done {
        () => {
            if let Some(c) = done.take() {
                sink.clear();
                shard
                    .on_jobs_completed_into(&[c], last_done, &mut sink)
                    .expect("completion protocol upheld");
                settle_round!();
            }
        };
    }
    // The tick round at `$at`, folding in the pending completion: one
    // dispatch round sees the freed worker and the fresh releases
    // together.
    macro_rules! tick_round {
        ($at:expr) => {{
            sink.clear();
            shard
                .advance_into(done.as_slice(), $at, &mut sink)
                .expect("completion protocol upheld");
            done = None;
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

    // One instant anchors both grids: the releases `start_into` arms
    // and the tick edges that dispatch them. An anchor taken after the
    // first dispatch round would make every tick of the run trail its
    // release by however long that round took.
    let t0 = clock.now();
    shard.start_into(t0, &mut sink).expect("fresh shard starts");
    settle_round!();
    let mut next_tick = t0 + tick;

    loop {
        // The job boundary. Run the dispatched job here, on the shard's
        // own thread; everything below waited for it (module docs).
        if let Some((job, version)) = next_job.take() {
            let ctx = JobCtx {
                job,
                version,
                worker,
            };
            let body = &bodies[&(job.task, version)];
            let started = clock.now();
            // Contain body panics: a panicking job retires as Failed
            // instead of killing the thread and with it the whole shard.
            // `TaskBody` is a shared closure and not `UnwindSafe`, but
            // its captured state is never observed by the runtime after
            // a panic, so the assertion is sound.
            let outcome =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx))) {
                    Ok(()) => JobOutcome::Completed,
                    Err(_) => JobOutcome::Failed,
                };
            let completed = clock.now();
            // The edges the body ran across, in time order and ahead of
            // its completion: overrun enforcement and the miss trip
            // find the job still in its slot.
            while next_tick <= completed {
                tick_round!(next_tick);
                next_tick += tick;
            }
            records.push(RtJobRecord {
                job,
                version,
                worker,
                started,
                completed,
                outcome,
            });
            last_done = completed;
            match outcome {
                JobOutcome::Completed => done = Some((worker, job.id)),
                // Rare by construction: retired alone through the
                // failure path (successors are policy-gated there).
                JobOutcome::Failed => {
                    sink.clear();
                    shard
                        .on_job_failed_into(worker, job.id, completed, &mut sink)
                        .expect("failure protocol upheld");
                    settle_round!();
                }
            }
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
        // what the body posted, its completion, then the mailbox
        // (control, peer protocol, message lane). The completion
        // retires ahead of the first command, so command effects stay
        // ordered behind it; if none arrived it is folded into the tick
        // round below when one is due.
        let mut drained_any = false;
        loop {
            let msg = match posts.pop_front() {
                Some(msg) => msg,
                None => {
                    let Some(msg) = rx.borrow_mut().try_recv() else {
                        break;
                    };
                    retire_done!();
                    msg
                }
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
                ShardMsg::Activate(task) => {
                    sink.clear();
                    if shard.activate_into(task, clock.now(), &mut sink).is_ok() {
                        settle_round!();
                    }
                }
                ShardMsg::CrossActivate {
                    edge,
                    graph_release,
                } => {
                    sink.clear();
                    shard
                        .on_remote_token(edge, graph_release, clock.now(), &mut sink)
                        .expect("cross-shard token routed to the owning shard");
                    settle_round!();
                }
                ShardMsg::MsgHigh { dst, .. } | ShardMsg::MsgDrained { dst } => {
                    let owner = shard
                        .taskset()
                        .tasks()
                        .get(dst.index())
                        .and_then(|t| t.spec().assigned_worker());
                    match owner {
                        Some(o) if o.index() == me => {
                            let at = clock.now();
                            let cmd = match msg {
                                ShardMsg::MsgHigh { ceiling, .. } => {
                                    ShardCmd::MsgHigh { dst, ceiling, at }
                                }
                                _ => ShardCmd::MsgDrained { dst, at },
                            };
                            sink.clear();
                            if shard.process_into(cmd, &mut sink).is_ok() {
                                settle_round!();
                            }
                        }
                        // Not ours: ride the per-peer lane to the owner,
                        // like a cross-shard activation token.
                        Some(o) => peers.send(o.index(), msg),
                        None => {}
                    }
                }
                ShardMsg::StealRequest { thief, k } => {
                    // Answer authoritatively: detach up to `k` of the
                    // most urgent accelerator-free ready jobs in one
                    // exchange, or refuse. Scratch buffers are retained
                    // across rounds — the grant path allocates nothing.
                    steal_hints.clear();
                    steal_batch.clear();
                    shard.try_steal_batch(k as usize, &mut steal_hints);
                    let granted = shard.release_stolen_batch(&steal_hints, &mut steal_batch);
                    let reply = if granted == 0 {
                        ShardMsg::StealDeny
                    } else {
                        // Record the donation so future load ties break
                        // towards this shard — recent donors tend to
                        // stay the imbalanced ones.
                        peers.board.record_donation(me);
                        ShardMsg::StolenBatch { jobs: steal_batch }
                    };
                    peers.send(thief.index(), reply);
                    if peers.stealing {
                        peers.publish_load(me, stealable_load(&shard));
                    }
                }
                ShardMsg::StolenBatch { jobs } => {
                    pending_steal = None;
                    sink.clear();
                    shard
                        .adopt_stolen_batch(jobs.as_slice(), clock.now(), &mut sink)
                        .expect("stolen batch adoptable by the requesting shard");
                    settle_round!();
                }
                ShardMsg::StealDeny => pending_steal = None,
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
                    shard
                        .admit_tasks(taskset, budget, at)
                        .expect("admission validated by the admitting thread");
                    ack.fetch_sub(1, Ordering::AcqRel);
                }
                ShardMsg::Commit { tenant } => {
                    sink.clear();
                    // A commit racing a `stop()` is refused by the
                    // engine (`ScheduleNotRunning`) — the schedule is
                    // ending anyway, so the tenant simply never starts.
                    if shard
                        .commit_tenant_anchored_into(tenant, next_tick, clock.now(), &mut sink)
                        .is_ok()
                    {
                        settle_round!();
                    }
                }
                ShardMsg::Retire { tenant, at } => {
                    sink.clear();
                    shard
                        .retire_tenant_into(tenant, at, &mut sink)
                        .expect("retirement validated by the retiring thread");
                    settle_round!();
                }
                ShardMsg::Stop => shard.stop(),
                ShardMsg::Shutdown => {
                    // Shutdown implies stop: the drain below terminates
                    // only once releases cease.
                    shard.stop();
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

        // A steal request outstanding towards a victim that exited
        // unanswered (its lane closed and drained) counts as a refusal.
        if let Some(v) = pending_steal {
            let lane = LANE_PEER0 + v;
            if !rx.lane_open(lane) && rx.peek_lane(lane).is_none() {
                pending_steal = None;
            }
        }
        // Two-phase loss-free drain. Phase one: a shard that has gone
        // locally quiet — no job, no steal in flight, spill backlog
        // flushed — barriers every peer lane with `DrainFlush` and
        // waits for all acks; the FIFO lanes turn each ack into a proof
        // that the peer received everything routed to it before the
        // flush. Phase two: with all acks in and its own mailbox empty,
        // the shard raises its flag on the shared drain board. Exit
        // happens only at global quiescence — every shard drained *and*
        // this shard's mailbox and backlog still empty. A late token
        // un-drains its receiver before any effect of the work is
        // visible, and an undelivered message always shows up either in
        // its sender's backlog (sender not drained) or its receiver's
        // mailbox (receiver re-checks before exiting), so no message
        // can be lost.
        if shutting_down && shard.is_idle() && pending_steal.is_none() && peers.pending_empty() {
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

        // Tick edge, generated locally by this shard's owner.
        let now = clock.now();
        if now >= next_tick {
            tick_round!(now);
            while next_tick <= now {
                next_tick += tick;
            }
            continue;
        }
        retire_done!();

        // Fully idle (empty queue, no job, drained mailbox): probe the
        // load board and ask the most loaded peer for work.
        let thief = peers.stealing
            && !shutting_down
            && pending_steal.is_none()
            && shard.is_idle()
            && rx.is_empty();
        if thief {
            if let Some(victim) = peers.board.pick_victim(me) {
                // Size the request to half the advertised load gap: a
                // thief this idle asks for more from a deeply loaded
                // victim, and never for more than the batch cap.
                let k = peers
                    .board
                    .steal_batch_size(victim, shard.ready_len(), MAX_STEAL_BATCH);
                peers.send(
                    victim,
                    ShardMsg::StealRequest {
                        thief: worker,
                        k: k as u8,
                    },
                );
                pending_steal = Some(victim);
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
                //    `DrainFlush`/`DrainAck`, message lane)
                //                     — `send` rings;
                //  * `pending_steal` towards a victim that is gone
                //    (its thread died: a live victim always answers)
                //                     — a closing lane rings; one that
                //                       closes between the look above
                //                       and the park waits a tick;
                //  * a victim appearing on the load board
                //                     — idle flag up, `publish_load`
                //                       wakes, re-probed below;
                //  * `all_drained()`  — `set_drained` wakes,
                //                       re-checked below;
                //  * the tick edge    — the timeout;
                //  * room in a full peer lane for `peers.flush()`
                //                     — no event: timeout capped at
                //                       `SPILL_RETRY` while spilled.
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
                let mut timeout: std::time::Duration = (next_tick - now).into();
                if !peers.pending_empty() {
                    timeout = timeout.min(SPILL_RETRY);
                }
                if thief {
                    peers.board.set_idle(me, true);
                }
                rx.park(Some(timeout), || {
                    (thief && peers.board.pick_victim(me).is_some())
                        || (shutting_down && peers.all_drained())
                });
                if thief {
                    peers.board.set_idle(me, false);
                }
            }
            WaitChoice::Spin => std::hint::spin_loop(),
        }
    }

    // Global quiescence (see the drain protocol above): nothing can be
    // in flight, so exiting here loses no routed token or steal grant.
    debug_assert!(
        peers.pending_empty(),
        "drained shard with spilled peer messages"
    );
    debug_assert!(
        rx.borrow().is_empty(),
        "drained shard with a non-empty mailbox"
    );
    peers.board.publish(me, 0);
    (records, shard.stats().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::within_attempts;
    #[cfg(target_os = "linux")]
    use crate::test_util::{alone_in_child, thread_sleeps};
    use std::sync::atomic::{AtomicU32, Ordering};
    use yasmin_core::config::{ConfigBuilder, MappingScheme};
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::{OverrunPolicy, TaskSpec};
    use yasmin_core::time::Duration;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn sharded(workers: usize) -> ConfigBuilder {
        Config::builder()
            .workers(workers)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
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
        let mut builder = ShardedRuntimeBuilder::new(ts, sharded_config(2));
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
        let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
    fn preemptive_or_unsharded_config_rejected() {
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
        assert!(ShardedRuntimeBuilder::new(Arc::clone(&ts), preemptive)
            .body(t, v, |_| {})
            .build()
            .is_err());
        let unsharded = Config::builder()
            .workers(1)
            .mapping(MappingScheme::Partitioned)
            .preemption(false)
            .build()
            .unwrap();
        assert!(ShardedRuntimeBuilder::new(ts, unsharded)
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
        let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
        let mut builder = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
        let mut builder = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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

        let mut builder = ShardedRuntimeBuilder::new(ts, sharded_config(2));
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
        let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
        let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
    fn retired_bandwidth_is_returned() {
        // Base U = 0.2 on worker 0; a U = 0.5 tenant on the same worker,
        // admitted and retired three times over. With the retired
        // copies still counted the second round reads density 1.2.
        let mut b = TaskSetBuilder::new();
        let base = b
            .task_decl(TaskSpec::periodic("base", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vb = b.version_decl(base, VersionSpec::new("v", ms(2))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        let noop = Arc::new(AtomicU32::new(0));
        for round in 1..=3 {
            let (cand, bodies) = candidate(10, ms(5), 0, &noop);
            let tenant = rt
                .admit(&cand, bodies, None)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(tenant.raw(), round);
            // Beside the live copy a second one does not fit.
            let (cand, bodies) = candidate(10, ms(5), 0, &noop);
            assert!(matches!(
                rt.admit(&cand, bodies, None),
                Err(AdmissionError::Rejected(
                    yasmin_sched::BoundViolation::WorkerOverload { .. }
                ))
            ));
            rt.retire(tenant).unwrap();
        }
        rt.stop();
        let _ = rt.cleanup();
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
        let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
            let mut builder = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
            let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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

    #[test]
    fn latency_is_sane_per_shard() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(20)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = ShardedRuntimeBuilder::new(ts, sharded_config(1))
            .body(t, v, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        rt.stop();
        let report = rt.cleanup();
        assert!(report.records.len() >= 3);
        for r in &report.records {
            assert!(
                r.start_latency() < ms(10),
                "latency {} exceeds the period",
                r.start_latency()
            );
            assert!(!r.missed(), "missed deadline in an idle host run");
        }
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

    fn nap_ms(v: u64) {
        std::thread::sleep(std::time::Duration::from_millis(v));
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
            let mut builder = ShardedRuntimeBuilder::new(ts, config);
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
    fn overrunning_body_is_flagged_in_its_slot() {
        // Tick 5 ms (quick's period). slow's first body sleeps across
        // two edges on a 2 ms WCET; the thread that handles them was
        // inside that body, so they are handled when it returns — before
        // its completion retires, or the overrun would find the slot
        // empty and the killed job's successor would fire.
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let slow = TaskSpec::periodic("slow", ms(50)).with_overrun_policy(OverrunPolicy::Kill);
            let (slow, vs) = task(&mut b, slow, 0, ms(2));
            let (succ, vsucc) = task(&mut b, TaskSpec::graph_node("succ"), 0, ms(2));
            let (quick, vq) = task(&mut b, TaskSpec::periodic("quick", ms(5)), 0, ms(2));
            let c = b.channel_decl("c", 1, 8);
            b.channel_connect(slow, succ, c).unwrap();
            let ts = Arc::new(b.build().unwrap());
            let config = sharded(1).enforce_wcet(true).build().unwrap();
            let first = AtomicBool::new(true);
            let rt = ShardedRuntimeBuilder::new(ts, config)
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

    /// Runs `scenario` on a thread of its own and fails if it has not
    /// returned within 20 s: the scenarios below hang when a shard
    /// thread waits for itself.
    fn must_return<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
        let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || verdict_tx.send(scenario()));
        verdict_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a shard thread waits for itself")
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
            let mut builder = ShardedRuntimeBuilder::new(ts, config);
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
            let slot: Arc<std::sync::RwLock<Option<ShardedRuntime>>> = Arc::default();
            let rt = Arc::clone(&slot);
            let activated = Arc::new(AtomicU32::new(0));
            let ran = Arc::new(AtomicU32::new(0));
            let (act, r) = (Arc::clone(&activated), Arc::clone(&ran));
            let config = sharded(2).max_pending_jobs(64).build().unwrap();
            let built = ShardedRuntimeBuilder::new(ts, config)
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
            let rt = ShardedRuntimeBuilder::new(ts, sharded_config(2))
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
