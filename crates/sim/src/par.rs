//! Multi-threaded partitioned simulation driver (PR 3), extended with
//! the cross-shard protocol loop (PR 5).
//!
//! Runs one simulation thread per engine shard — each owning the
//! independent per-worker scheduler state of
//! [`yasmin_sched::EngineShard`] — while **N producer threads** feed
//! sporadic activations through the lock-free command mailbox
//! (`yasmin_sync::mailbox`, one SPSC lane per producer per shard). This
//! exercises the exact concurrency topology of the sharded real-time
//! runtime: multiple producers racing into a mailbox drained by a single
//! shard owner.
//!
//! Task sets with **cross-shard DAG edges**, and runs with
//! [`ParSimOptions::steal`], execute the same `ShardCmd` protocol under
//! the deterministic in-process *protocol loop* (see
//! [`run_partitioned_parallel`]): producer threads still race into the
//! mailboxes, while the shard engines advance in one global
//! simulated-time order so routed activations and steal hand-offs land
//! at exact event boundaries — zero-lookahead cross-shard traffic would
//! serialise a free-running conservative merge behind null messages
//! anyway, and schedule validation needs reproducible traces.
//!
//! ## Determinism
//!
//! The result is **bit-identical to the single-threaded
//! [`crate::Simulation`]** for the same partitioned task set (modulo
//! shard-stamped job ids), no matter how the OS schedules the threads:
//!
//! * shards share no mutable state, so cross-shard thread timing cannot
//!   matter;
//! * each producer sends its commands in non-decreasing simulated time,
//!   so a lane's head is the lane's minimum;
//! * a shard processes a command only once every still-open lane has
//!   revealed its next command (the *watermark*), merging lanes and
//!   local events in simulated-time order — external commands win ties;
//! * randomised execution-time and kernel models sample in dispatch
//!   order, which is a global order the shards don't share: exact trace
//!   equality therefore holds for the deterministic models
//!   ([`crate::ExecModel::Wcet`], no kernel model). Each shard seeds its
//!   samplers from `seed ^ worker` so randomised runs are still
//!   per-shard deterministic.
//!
//! Two tie classes bound the equality claim. First, when a **sporadic
//! activation coincides exactly** with another event of the same shard
//! (e.g. its offset lands on the tick grid), the single-threaded
//! simulator breaks the tie by event *insertion order* — a
//! history-dependent global sequence the mailbox merge cannot observe —
//! while this driver applies its own fixed rule (external command
//! first). Second, under the protocol loop, when a **cross-shard
//! successor's release coincides exactly** with another event of the
//! destination shard (e.g. two workers' finishes land on the same
//! instant), the single-owner engine retires the whole same-timestamp
//! batch before one dispatch round while the routed token queues behind
//! the destination's already-scheduled event. Both drivers remain
//! individually deterministic in every case, but their traces may
//! differ at a tied instant. Keep sporadic offsets — and, for
//! cross-shard sets, WCETs — off each other's grid (odd sub-tick values
//! do it) when cross-checking traces; shard-local ties (tick vs
//! completion) are unaffected because each shard replays the
//! single-owner engine's own insertion order.

use crate::engine::{FaultEvent, SimConfig, Simulation};
use crate::exec::ExecSampler;
use crate::trace::{JobRecord, SimResult};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use yasmin_core::config::Config;
use yasmin_core::energy::Energy;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{CoreId, TaskId, VersionId, WorkerId};
use yasmin_core::task::ActivationKind;
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::{
    Action, ActionSink, EngineShard, Job, JobBatch, MsgEvent, RemoteActivation, ShardCmd,
    MAX_STEAL_BATCH,
};
use yasmin_sync::mailbox::{mailbox, MailboxFull, MailboxReceiver, MailboxSender};
use yasmin_sync::wait::Backoff;

/// Options of the multi-threaded driver.
#[derive(Debug, Clone, Copy)]
pub struct ParSimOptions {
    /// Producer threads feeding activations (≥ 1). Sporadic root tasks
    /// are distributed over producers round-robin by task index.
    pub producers: usize,
    /// Floor on each mailbox lane's capacity. Lanes are sized to hold
    /// their producer's entire schedule for the shard (computed up
    /// front), so producers never block mid-schedule — a producer
    /// stalled on one shard's full lane while another shard waits on
    /// that producer's open-but-empty lane would deadlock the
    /// conservative watermark merge.
    pub lane_capacity: usize,
    /// Enables work stealing between shards: at every event boundary an
    /// idle shard (no running slice, empty queue) adopts the most
    /// urgent accelerator-free ready job of the most loaded peer.
    /// Stealing (like cross-shard DAG edges) routes the run through the
    /// deterministic protocol loop — see
    /// [`run_partitioned_parallel`].
    pub steal: bool,
    /// Cap on the batch size of one steal exchange (clamped to
    /// `1..=`[`yasmin_sched::MAX_STEAL_BATCH`]). An idle thief takes up
    /// to half the victim's ready load, at least one job and at most
    /// this many, in one [`ShardCmd::StolenBatch`] exchange sized
    /// deterministically from the victim's queue length at the event
    /// boundary. At the default `1` every exchange is a batch of one —
    /// the most urgent stealable job — booked like any other in
    /// `EngineStats::stolen_batch`.
    pub steal_batch: usize,
}

impl Default for ParSimOptions {
    fn default() -> Self {
        ParSimOptions {
            producers: 4,
            lane_capacity: 64,
            steal: false,
            steal_batch: 1,
        }
    }
}

/// The external command source of one shard simulation: a mailbox
/// receiver whose lanes each deliver commands in non-decreasing time.
#[derive(Debug)]
pub(crate) struct ShardFeed {
    rx: MailboxReceiver<ShardCmd>,
    exhausted: bool,
}

impl ShardFeed {
    pub(crate) fn new(rx: MailboxReceiver<ShardCmd>) -> Self {
        ShardFeed {
            rx,
            exhausted: false,
        }
    }

    /// The earliest pending (time, lane), blocking (bounded spin: every
    /// producer pushes a finite schedule and closes its lane) until
    /// that minimum is *known* — i.e. no lane is simultaneously open
    /// and empty. Ties across lanes break by lane index, so the result
    /// is a pure function of the lane contents. `None` once every lane
    /// is closed and drained.
    fn watermark(&mut self) -> Option<(u64, usize)> {
        if self.exhausted {
            return None;
        }
        let mut backoff = Backoff::new();
        loop {
            let mut min: Option<(u64, usize)> = None;
            let mut must_wait = false;
            for i in 0..self.rx.lane_count() {
                match self.rx.peek_lane(i) {
                    Some(cmd) => {
                        let t = cmd.at().as_nanos();
                        if min.is_none_or(|(mt, _)| t < mt) {
                            min = Some((t, i));
                        }
                    }
                    None => {
                        if self.rx.lane_open(i) {
                            must_wait = true;
                        }
                    }
                }
            }
            if must_wait {
                backoff.snooze();
                continue;
            }
            if min.is_none() {
                self.exhausted = true;
            }
            return min;
        }
    }

    /// The earliest pending command's time without consuming it
    /// (blocking as [`ShardFeed::watermark`]); `None` when exhausted.
    pub(crate) fn peek_time(&mut self) -> Option<u64> {
        self.watermark().map(|(t, _)| t)
    }

    /// Pops the earliest pending command if it is due at or before
    /// `local` (`None` = no local event pending, pop unconditionally);
    /// blocks as [`ShardFeed::watermark`].
    pub(crate) fn pop_if_at_or_before(&mut self, local: Option<u64>) -> Option<ShardCmd> {
        let (t, lane) = self.watermark()?;
        if local.is_some_and(|lt| t > lt) {
            return None; // the local event comes first
        }
        Some(self.rx.pop_lane(lane).expect("peeked lane head present"))
    }
}

/// The per-producer activation schedule: every sporadic root task is
/// released at its minimum inter-arrival from its offset — the same law
/// the single-threaded simulator applies: the offset release happens
/// whenever `offset <= horizon` (the single-threaded driver arms it
/// unconditionally and its event filter is inclusive), re-releases only
/// while strictly before the horizon — and assigned to producer
/// `task.index() % producers`. Each list is (time, task), time-ordered.
fn producer_schedules(
    taskset: &TaskSet,
    producers: usize,
    horizon: Duration,
) -> Vec<Vec<(Instant, TaskId)>> {
    let end = Instant::ZERO + horizon;
    let mut schedules = vec![Vec::new(); producers];
    for t in taskset.tasks() {
        if t.spec().kind() != ActivationKind::Sporadic || taskset.in_degree(t.id()) != 0 {
            continue;
        }
        let schedule = &mut schedules[t.id().index() % producers];
        let period = t.spec().period();
        let first = Instant::ZERO + t.spec().release_offset();
        if first <= end {
            schedule.push((first, t.id()));
        }
        let mut at = first + period;
        while at < end {
            schedule.push((at, t.id()));
            at += period;
        }
    }
    for s in &mut schedules {
        s.sort_by_key(|&(at, task)| (at, task));
    }
    schedules
}

/// Runs `schedule` into the per-shard senders, retrying full lanes with
/// backoff, then drops the senders (closing this producer's lanes).
fn producer_main(
    schedule: Vec<(Instant, TaskId)>,
    mut senders: Vec<MailboxSender<ShardCmd>>,
    owner: &[usize],
) {
    let mut backoff = Backoff::new();
    for (at, task) in schedule {
        let mut cmd = ShardCmd::Activate { task, at };
        loop {
            match senders[owner[task.index()]].send(cmd) {
                Ok(()) => {
                    backoff.reset();
                    break;
                }
                Err(MailboxFull(v)) => {
                    cmd = v;
                    backoff.snooze();
                }
            }
        }
    }
}

/// Sums per-shard results into the whole-system result. Records are
/// ordered by (completion, task, seq) — a deterministic total order,
/// since each (task, seq) completes exactly once.
fn merge_results(results: Vec<SimResult>, workers: usize) -> SimResult {
    let mut merged = SimResult {
        records: Vec::new(),
        unfinished: 0,
        unfinished_missed: 0,
        engine_stats: yasmin_sched::EngineStats::default(),
        horizon: Instant::ZERO,
        sched_overhead_ns: yasmin_core::stats::Samples::new(),
        worker_busy: vec![Duration::ZERO; workers],
        energy: yasmin_core::energy::Energy::ZERO,
        replayed_cycles: 0,
        replayed_jobs: 0,
    };
    for r in results {
        merged.records.extend(r.records);
        merged.unfinished += r.unfinished;
        merged.unfinished_missed += r.unfinished_missed;
        merged.engine_stats.merge(&r.engine_stats);
        merged.horizon = r.horizon;
        merged.sched_overhead_ns.merge(&r.sched_overhead_ns);
        for (w, busy) in r.worker_busy.iter().enumerate() {
            merged.worker_busy[w] += *busy;
        }
        merged.energy += r.energy;
    }
    merged
        .records
        .sort_by_key(|r| (r.completion, r.task, r.seq));
    merged
}

/// Per-producer activation schedules plus the per-shard mailboxes they
/// feed, senders regrouped by producer. Shared by both drivers.
struct ProducerFeeds {
    schedules: Vec<Vec<(Instant, TaskId)>>,
    owner: Vec<usize>,
    receivers: Vec<MailboxReceiver<ShardCmd>>,
    by_producer: Vec<Vec<MailboxSender<ShardCmd>>>,
}

fn build_producer_feeds(
    taskset: &TaskSet,
    opts: &ParSimOptions,
    horizon: Duration,
    workers: usize,
) -> ProducerFeeds {
    let schedules = producer_schedules(taskset, opts.producers, horizon);
    // Task -> owning shard, for producer routing.
    let owner: Vec<usize> = taskset
        .tasks()
        .iter()
        .map(|t| {
            t.spec()
                .assigned_worker()
                .expect("validated by build_all")
                .index()
        })
        .collect();

    // A lane must be able to hold its producer's *entire* schedule for
    // that shard: with bounded lanes, a producer blocked pushing into
    // one shard's full lane while another shard spins on that
    // producer's still-open-but-empty lane is a cross-shard deadlock
    // (the watermark wait is conservative). The schedules are
    // precomputed, so exact sizing costs nothing; `opts.lane_capacity`
    // only sets the floor.
    let mut per_lane = vec![vec![0usize; opts.producers]; workers];
    for (p, schedule) in schedules.iter().enumerate() {
        for &(_, task) in schedule {
            per_lane[owner[task.index()]][p] += 1;
        }
    }

    // One mailbox per shard, one lane per producer; re-group the senders
    // by producer so each producer thread owns one sender per shard.
    let mut receivers = Vec::with_capacity(workers);
    let mut by_producer: Vec<Vec<MailboxSender<ShardCmd>>> = (0..opts.producers)
        .map(|_| Vec::with_capacity(workers))
        .collect();
    for lanes in &per_lane {
        let cap = lanes
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(opts.lane_capacity);
        let (senders, rx) = mailbox::<ShardCmd>(opts.producers, cap);
        receivers.push(rx);
        for (p, tx) in senders.into_iter().enumerate() {
            by_producer[p].push(tx);
        }
    }
    ProducerFeeds {
        schedules,
        owner,
        receivers,
        by_producer,
    }
}

/// The receiving task of a message-plane event (its owner routes it).
fn msg_dst(ev: &yasmin_sched::MsgEvent) -> TaskId {
    match *ev {
        yasmin_sched::MsgEvent::HighPosted { dst, .. }
        | yasmin_sched::MsgEvent::HighDrained { dst } => dst,
    }
}

/// `true` when some DAG edge's endpoints live on different workers.
fn has_cross_shard_edges(taskset: &TaskSet) -> bool {
    taskset.edges().iter().any(|e| {
        let w = |t: TaskId| taskset.tasks()[t.index()].spec().assigned_worker();
        w(e.src) != w(e.dst)
    })
}

/// Runs a partitioned task set with **one simulation thread per worker
/// shard** and [`ParSimOptions::producers`] producer threads feeding
/// sporadic activations through per-shard command mailboxes.
///
/// `config` must opt in via `Config::sharded_dispatch(true)`; the task
/// set must satisfy the sharding contract (accelerators within one
/// worker — see [`yasmin_sched::validate_sharding`]).
///
/// Task sets whose DAG edges **cross shards**, and runs with
/// [`ParSimOptions::steal`] enabled, are executed by the deterministic
/// *protocol loop* instead of one free-running thread per shard: the
/// producer threads still race their activations into the mailbox
/// lanes, but the shard engines advance in one global simulated-time
/// order, exchanging [`ShardCmd::CrossActivate`] tokens and steal
/// hand-offs at exact event boundaries. Cross-shard activation routing
/// has **zero lookahead** (a token sent at time *t* can alter the
/// destination shard's behaviour at that same *t*), so a conservative
/// free-running merge would serialise behind null messages anyway —
/// the protocol loop keeps the run reproducible and bit-comparable to
/// the single-owner reference, which is what schedule validation
/// needs. The protocol loop supports non-preemptive configurations
/// without kernel models or mode schedules.
///
/// # Errors
///
/// Sharding-contract violations, engine construction errors, a shard
/// simulation failing (driver protocol violation), or an unsupported
/// protocol-loop configuration (preemption, kernel model, mode
/// schedule) for cross-shard/stealing runs.
///
/// # Panics
///
/// Panics if a shard or producer thread itself panicked.
pub fn run_partitioned_parallel(
    taskset: Arc<TaskSet>,
    config: Config,
    sim: SimConfig,
    opts: ParSimOptions,
) -> Result<SimResult> {
    if opts.producers == 0 {
        return Err(Error::InvalidConfig(
            "the parallel driver needs at least one producer thread".into(),
        ));
    }
    let workers = config.workers();
    let shards = EngineShard::build_all(&taskset, &config)?;
    if opts.steal || has_cross_shard_edges(&taskset) {
        return run_protocol(&taskset, &config, &sim, &opts, shards);
    }
    let ProducerFeeds {
        schedules,
        owner,
        receivers,
        by_producer,
    } = build_producer_feeds(&taskset, &opts, sim.horizon, workers);

    let results: Vec<Result<SimResult>> = std::thread::scope(|scope| {
        let owner = &owner;
        let mut shard_handles = Vec::with_capacity(workers);
        for (shard, rx) in shards.into_iter().zip(receivers) {
            let worker = shard.worker();
            let mut cfg = sim.clone();
            // Per-shard sampler streams: deterministic given (seed,
            // worker), independent across shards.
            cfg.seed ^= u64::from(worker.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Message events are owned by the receiving task's shard,
            // exactly like cross-shard activation tokens.
            cfg.msg_schedule
                .retain(|(_, ev)| owner[msg_dst(ev).index()] == worker.index());
            // Fault injections land on the shard owning the target task.
            cfg.fault_schedule
                .retain(|(_, ev)| owner[ev.task().index()] == worker.index());
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("yasmin-sim-shard-{worker}"))
                    .spawn_scoped(scope, move || {
                        Simulation::from_engine(shard.into_inner(), cfg)?
                            .run_with_feed(ShardFeed::new(rx))
                    })
                    .expect("spawning shard simulation thread"),
            );
        }
        let mut producer_handles = Vec::with_capacity(opts.producers);
        for (schedule, senders) in schedules.into_iter().zip(by_producer) {
            producer_handles.push(
                std::thread::Builder::new()
                    .name("yasmin-sim-producer".into())
                    .spawn_scoped(scope, move || producer_main(schedule, senders, owner))
                    .expect("spawning producer thread"),
            );
        }
        for p in producer_handles {
            p.join().expect("producer thread panicked");
        }
        shard_handles
            .into_iter()
            .map(|h| h.join().expect("shard simulation thread panicked"))
            .collect()
    });
    let results: Result<Vec<SimResult>> = results.into_iter().collect();
    Ok(merge_results(results?, workers))
}

/// One in-flight slice of a protocol-loop shard (non-preemptive: a
/// dispatched job runs to its modelled finish).
#[derive(Debug, Clone, Copy)]
struct ProtoSlice {
    job: Job,
    version: VersionId,
    start: Instant,
    finish: Instant,
}

/// Protocol-loop state of one shard.
struct ProtoShard {
    shard: EngineShard,
    feed: ShardFeed,
    exec: ExecSampler,
    slice: Option<ProtoSlice>,
    records: Vec<JobRecord>,
    busy: Duration,
}

/// A protocol-loop event targeting one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PEv {
    /// Scheduler tick on the shared gcd grid.
    Tick,
    /// The shard's worker finishes its running slice.
    Finish { job: yasmin_core::ids::JobId },
    /// A cross-shard DAG token routed from a peer at its completion
    /// time.
    Cross { edge: u32, graph_release: Instant },
    /// A scheduled message-plane event ([`SimConfig::msg_schedule`])
    /// delivered to the shard owning the receiving task.
    Msg { ev: MsgEvent },
    /// A scheduled fault injection ([`SimConfig::fault_schedule`])
    /// delivered to the shard owning the target task.
    Fault { ev: FaultEvent },
}

#[derive(Debug)]
struct PItem {
    time: u64,
    seq: u64,
    shard: usize,
    ev: PEv,
}

impl PartialEq for PItem {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for PItem {}
impl Ord for PItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for PItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The deterministic multi-shard protocol loop: all shard engines
/// advance in one global simulated-time order, exchanging cross-shard
/// tokens and steal hand-offs as [`ShardCmd`]s at exact event
/// boundaries, while producer threads feed sporadic activations
/// through the per-shard mailboxes exactly as in the free-running
/// driver.
struct Protocol<'a> {
    sim: &'a SimConfig,
    horizon: Instant,
    tick: Duration,
    steal: bool,
    steal_batch: usize,
    states: Vec<ProtoShard>,
    heap: BinaryHeap<Reverse<PItem>>,
    seq: u64,
    sink: ActionSink,
    outbox: Vec<RemoteActivation>,
    accel_busy: Vec<Duration>,
    /// Wall-clock samples of every engine call, recorded when
    /// `SimConfig::measure_engine_time` is set — the same measured
    /// scheduler-overhead metric the other drivers report.
    overhead_ns: yasmin_core::stats::Samples,
}

impl Protocol<'_> {
    fn push_event(&mut self, at: Instant, shard: usize, ev: PEv) {
        self.seq += 1;
        self.heap.push(Reverse(PItem {
            time: at.as_nanos(),
            seq: self.seq,
            shard,
            ev,
        }));
    }

    /// Reference work → wall time on `worker`'s core.
    fn wall_time(&self, worker: WorkerId, reference: Duration) -> Duration {
        let (num, den) = self
            .sim
            .platform
            .class_of(CoreId::new(worker.raw()))
            .speed();
        reference.scale(den, num)
    }

    /// Models the engine's dispatch: samples the execution demand and
    /// schedules the finish event.
    fn model_dispatch(&mut self, s: usize, at: Instant, job: Job, version: VersionId) {
        debug_assert!(self.states[s].slice.is_none(), "worker already busy");
        let worker = self.states[s].shard.worker();
        let wcet = self.states[s].shard.taskset().tasks()[job.task.index()].versions()
            [version.index()]
        .wcet();
        let d = self.states[s].exec.sample(wcet);
        let start = at + self.sim.overheads.dispatch;
        let finish = start + self.wall_time(worker, d);
        self.states[s].slice = Some(ProtoSlice {
            job,
            version,
            start,
            finish,
        });
        self.push_event(finish, s, PEv::Finish { job: job.id });
    }

    fn apply_actions(&mut self, s: usize, at: Instant, sink: &ActionSink) {
        for &a in sink.as_slice() {
            match a {
                Action::Dispatch { job, version, .. } => self.model_dispatch(s, at, job, version),
                Action::Boost { .. } => {}
                Action::Preempt { .. } => {
                    unreachable!("the protocol loop runs non-preemptive configurations")
                }
            }
        }
    }

    /// Routes everything the last engine round left in shard `s`'s
    /// outbox: each cross-shard token becomes a [`PEv::Cross`] event on
    /// the owning shard at time `at`.
    fn settle_outbox(&mut self, s: usize, at: Instant) {
        let mut outbox = std::mem::take(&mut self.outbox);
        self.states[s].shard.drain_outbox_into(&mut outbox);
        for ra in outbox.drain(..) {
            self.push_event(
                at,
                ra.worker.index(),
                PEv::Cross {
                    edge: ra.edge,
                    graph_release: ra.graph_release,
                },
            );
        }
        self.outbox = outbox;
    }

    /// One engine interaction of shard `s` through the command
    /// protocol, with action modelling and outbox routing.
    fn interact(&mut self, s: usize, cmd: ShardCmd) -> Result<()> {
        let at = cmd.at();
        let mut sink = std::mem::take(&mut self.sink);
        sink.clear();
        let res = if self.sim.measure_engine_time {
            let t0 = std::time::Instant::now();
            let res = self.states[s].shard.process_into(cmd, &mut sink);
            self.overhead_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            res
        } else {
            self.states[s].shard.process_into(cmd, &mut sink)
        };
        if res.is_ok() {
            self.apply_actions(s, at, &sink);
        }
        self.sink = sink;
        res?;
        self.settle_outbox(s, at);
        Ok(())
    }

    /// Books shard `s`'s finish at `now` and hands the completion back
    /// to the engine.
    fn finish(&mut self, s: usize, now: Instant, job: yasmin_core::ids::JobId) -> Result<()> {
        let worker = self.states[s].shard.worker();
        // Without preemption a finish can only be stale when the slice
        // was crashed by a scheduled fault; job ids are unique, so the
        // id mismatch (or an already-empty worker) identifies it.
        if self.states[s].slice.is_none_or(|sl| sl.job.id != job) {
            return Ok(());
        }
        let slice = self.states[s].slice.take().expect("checked above");
        let wall = now.saturating_since(slice.start);
        self.states[s].busy += wall;
        if let Some(a) = self.states[s].shard.taskset().tasks()[slice.job.task.index()].versions()
            [slice.version.index()]
        .accel()
        {
            self.accel_busy[a.index()] += wall;
        }
        let j = slice.job;
        self.states[s].records.push(JobRecord {
            job: j.id,
            task: j.task,
            seq: j.seq,
            release: j.release,
            graph_release: j.graph_release,
            abs_deadline: j.abs_deadline,
            first_start: slice.start,
            completion: now,
            version: slice.version,
            worker,
            preemptions: 0,
        });
        self.interact(
            s,
            ShardCmd::JobCompleted {
                worker,
                job,
                at: now,
            },
        )
    }

    /// Delivers one scheduled fault to shard `s` — the protocol-loop
    /// analogue of `Simulation::apply_fault`, with the same policy:
    /// overruns and crashes are no-ops when the task is not running,
    /// bursts tolerate non-activatable targets.
    fn fault(&mut self, s: usize, now: Instant, ev: FaultEvent) -> Result<()> {
        match ev {
            FaultEvent::Overrun { task } => {
                let mut sink = std::mem::take(&mut self.sink);
                sink.clear();
                let _ = self.states[s].shard.force_overrun(task, now, &mut sink);
                self.apply_actions(s, now, &sink);
                self.sink = sink;
                self.settle_outbox(s, now);
            }
            FaultEvent::Crash { task } => {
                // Non-preemptive: the running slice is the only
                // candidate. Its already-scheduled finish event goes
                // stale (see `finish`).
                if self.states[s]
                    .slice
                    .is_none_or(|sl| sl.job.task != task || now > sl.finish)
                {
                    return Ok(());
                }
                let slice = self.states[s].slice.take().expect("checked above");
                let worker = self.states[s].shard.worker();
                let wall = now
                    .saturating_since(slice.start)
                    .min(slice.finish.saturating_since(slice.start));
                self.states[s].busy += wall;
                if let Some(a) = self.states[s].shard.taskset().tasks()[slice.job.task.index()]
                    .versions()[slice.version.index()]
                .accel()
                {
                    self.accel_busy[a.index()] += wall;
                }
                // No completion record — a failed job never completed.
                let mut sink = std::mem::take(&mut self.sink);
                sink.clear();
                let res =
                    self.states[s]
                        .shard
                        .on_job_failed_into(worker, slice.job.id, now, &mut sink);
                if res.is_ok() {
                    self.apply_actions(s, now, &sink);
                }
                self.sink = sink;
                res?;
                self.settle_outbox(s, now);
            }
            FaultEvent::Burst { task, count } => {
                for _ in 0..count {
                    let mut sink = std::mem::take(&mut self.sink);
                    sink.clear();
                    let res = self.states[s]
                        .shard
                        .process_into(ShardCmd::Activate { task, at: now }, &mut sink);
                    if res.is_ok() {
                        self.apply_actions(s, now, &sink);
                    }
                    self.sink = sink;
                    self.settle_outbox(s, now);
                }
            }
        }
        Ok(())
    }

    /// At an event boundary, every fully idle shard (no slice, empty
    /// queue) adopts work from the most loaded *stealable* peer (one
    /// whose probe yields a hint; ties towards the lowest worker
    /// index); rounds repeat until no steal succeeds. Each exchange
    /// moves up to half the victim's ready load in one
    /// [`ShardCmd::StolenBatch`], at least one job and at most
    /// [`ParSimOptions::steal_batch`]: the size depends only on the
    /// victim's queue length, so reruns stay bit-identical.
    fn steal_pass(&mut self, at: Instant) -> Result<()> {
        let n = self.states.len();
        let cap = self.steal_batch.clamp(1, MAX_STEAL_BATCH);
        let mut hints = Vec::new();
        loop {
            let mut stole = false;
            for thief in 0..n {
                if self.states[thief].slice.is_some() || self.states[thief].shard.ready_len() > 0 {
                    continue;
                }
                let victim = (0..n)
                    .filter(|&v| v != thief)
                    .filter(|&v| self.states[v].shard.steal_hint().is_some())
                    .map(|v| (self.states[v].shard.ready_len(), v))
                    .max_by_key(|&(load, v)| (load, Reverse(v)));
                let Some((load, v)) = victim else { continue };
                // Half the load gap (the thief is empty, so the gap is
                // the victim's whole ready load) — the same sizing rule
                // the free-running runtime derives from its load board.
                let k = (load / 2).clamp(1, cap);
                if self.states[v].shard.try_steal_batch(k, &mut hints) == 0 {
                    continue;
                }
                let mut jobs = JobBatch::new();
                if self.states[v].shard.release_stolen_batch(&hints, &mut jobs) == 0 {
                    continue;
                }
                self.interact(thief, ShardCmd::StolenBatch { jobs, at })?;
                stole = true;
            }
            if !stole {
                return Ok(());
            }
        }
    }

    fn run(&mut self) -> Result<()> {
        // Start every shard at time zero and arm the shared tick grid.
        let n = self.states.len();
        for s in 0..n {
            let mut sink = std::mem::take(&mut self.sink);
            sink.clear();
            self.states[s].shard.start_into(Instant::ZERO, &mut sink)?;
            self.apply_actions(s, Instant::ZERO, &sink);
            self.sink = sink;
            self.settle_outbox(s, Instant::ZERO);
        }
        for s in 0..n {
            self.push_event(Instant::ZERO + self.tick, s, PEv::Tick);
        }
        // Arm the scheduled message-plane events on their owning
        // shards, after the tick train like the single-owner driver
        // (ties at a tick instant resolve tick-first in both).
        for i in 0..self.sim.msg_schedule.len() {
            let (offset, ev) = self.sim.msg_schedule[i];
            let dst = msg_dst(&ev);
            let s = self.states[0].shard.taskset().tasks()[dst.index()]
                .spec()
                .assigned_worker()
                .expect("validated by build_all")
                .index();
            self.push_event(Instant::ZERO + offset, s, PEv::Msg { ev });
        }
        // Arm the fault schedule on the shard owning each target task,
        // after the message events like the single-owner driver.
        for i in 0..self.sim.fault_schedule.len() {
            let (offset, ev) = self.sim.fault_schedule[i];
            let s = self.states[0].shard.taskset().tasks()[ev.task().index()]
                .spec()
                .assigned_worker()
                .expect("validated by build_all")
                .index();
            self.push_event(Instant::ZERO + offset, s, PEv::Fault { ev });
        }
        if self.steal {
            self.steal_pass(Instant::ZERO)?;
        }

        loop {
            // One globally-earliest item per iteration: the minimum
            // over every shard's external-command watermark and the
            // event heap, re-evaluated after each application (applying
            // anything can schedule earlier finish events or cross
            // tokens). External commands win exact ties with local
            // events, like the single-threaded feed merge; command
            // ties across shards break by worker index.
            let local_t = self
                .heap
                .peek()
                .map(|Reverse(item)| item.time)
                .filter(|&t| Instant::from_nanos(t) <= self.horizon);
            let mut due_cmd: Option<(u64, usize)> = None;
            for s in 0..n {
                if let Some(t) = self.states[s].feed.peek_time() {
                    if due_cmd.is_none_or(|(bt, _)| t < bt) {
                        due_cmd = Some((t, s));
                    }
                }
            }
            if let Some((tc, s)) = due_cmd {
                if local_t.is_none_or(|lt| tc <= lt) {
                    let cmd = self.states[s]
                        .feed
                        .pop_if_at_or_before(Some(tc))
                        .expect("peeked command present");
                    let at = cmd.at();
                    if at <= self.horizon {
                        self.interact(s, cmd)?;
                        if self.steal {
                            self.steal_pass(at)?;
                        }
                    }
                    // Past-horizon commands are drained but not
                    // simulated (producers must be unblocked).
                    continue;
                }
            }
            if local_t.is_none() {
                break;
            }
            let Some(Reverse(item)) = self.heap.pop() else {
                break;
            };
            let now = Instant::from_nanos(item.time);
            let s = item.shard;
            match item.ev {
                PEv::Tick => {
                    self.interact(s, ShardCmd::Tick { at: now })?;
                    let next = now + self.tick;
                    // Horizon exclusive for new releases, like the
                    // single-threaded driver.
                    if next < self.horizon {
                        self.push_event(next, s, PEv::Tick);
                    }
                }
                PEv::Finish { job } => self.finish(s, now, job)?,
                PEv::Cross {
                    edge,
                    graph_release,
                } => self.interact(
                    s,
                    ShardCmd::CrossActivate {
                        edge,
                        graph_release,
                        at: now,
                    },
                )?,
                PEv::Msg { ev } => {
                    let cmd = match ev {
                        MsgEvent::HighPosted { dst, ceiling } => ShardCmd::MsgHigh {
                            dst,
                            ceiling,
                            at: now,
                        },
                        MsgEvent::HighDrained { dst } => ShardCmd::MsgDrained { dst, at: now },
                    };
                    self.interact(s, cmd)?;
                }
                PEv::Fault { ev } => self.fault(s, now, ev)?,
            }
            if self.steal {
                self.steal_pass(now)?;
            }
        }
        Ok(())
    }

    /// Folds the per-shard states into the whole-system [`SimResult`],
    /// with the same accounting rules as the single-threaded driver.
    fn into_result(mut self) -> SimResult {
        let horizon_dur = self.sim.horizon;
        let horizon = self.horizon;
        let mut records = Vec::new();
        let mut engine_stats = yasmin_sched::EngineStats::default();
        let mut worker_busy = Vec::with_capacity(self.states.len());
        let mut unfinished = 0usize;
        let mut unfinished_missed = 0usize;
        let mut energy = Energy::ZERO;
        let accels: Vec<_> = self
            .states
            .first()
            .map(|st| st.shard.taskset().accels().to_vec())
            .unwrap_or_default();
        for (w, st) in self.states.iter_mut().enumerate() {
            let mut busy = st.busy;
            if let Some(slice) = st.slice {
                // Account the still-running slice up to the horizon.
                busy += horizon
                    .saturating_since(slice.start)
                    .min(slice.finish.saturating_since(slice.start));
                unfinished += 1;
                if slice.job.deadline_missed_at(horizon) {
                    unfinished_missed += 1;
                }
            }
            unfinished += st.shard.ready_len();
            records.append(&mut st.records);
            engine_stats.merge(st.shard.stats());
            let class = self.sim.platform.class_of(CoreId::new(w as u16));
            energy += class.active_power().energy_over(busy);
            energy += class
                .idle_power()
                .energy_over(horizon_dur.saturating_sub(busy));
            worker_busy.push(busy);
        }
        for (a, spec) in accels.iter().enumerate() {
            energy += spec.active_power().energy_over(self.accel_busy[a]);
        }
        records.sort_by_key(|r| (r.completion, r.task, r.seq));
        SimResult {
            records,
            unfinished,
            unfinished_missed,
            engine_stats,
            horizon,
            sched_overhead_ns: self.overhead_ns,
            worker_busy,
            energy,
            replayed_cycles: 0,
            replayed_jobs: 0,
        }
    }
}

/// Runs the cross-shard/stealing protocol loop; see
/// [`run_partitioned_parallel`].
fn run_protocol(
    taskset: &Arc<TaskSet>,
    config: &Config,
    sim: &SimConfig,
    opts: &ParSimOptions,
    shards: Vec<EngineShard>,
) -> Result<SimResult> {
    if config.preemption() {
        return Err(Error::InvalidConfig(
            "cross-shard/stealing simulation is non-preemptive: build the Config \
             with .preemption(false)"
                .into(),
        ));
    }
    if sim.kernel.is_some() || !sim.mode_schedule.is_empty() {
        return Err(Error::InvalidConfig(
            "cross-shard/stealing simulation supports neither kernel models nor \
             mode schedules yet"
                .into(),
        ));
    }
    let workers = config.workers();
    let tick = shards[0].tick_period();
    let ProducerFeeds {
        schedules,
        owner,
        receivers,
        by_producer,
    } = build_producer_feeds(taskset, opts, sim.horizon, workers);

    std::thread::scope(|scope| {
        let owner = &owner;
        let mut producer_handles = Vec::with_capacity(opts.producers);
        for (schedule, senders) in schedules.into_iter().zip(by_producer) {
            producer_handles.push(
                std::thread::Builder::new()
                    .name("yasmin-sim-producer".into())
                    .spawn_scoped(scope, move || producer_main(schedule, senders, owner))
                    .expect("spawning producer thread"),
            );
        }
        let states = shards
            .into_iter()
            .zip(receivers)
            .map(|(shard, rx)| {
                let w = u64::from(shard.worker().raw());
                let seed = (sim.seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ 0xE5E5;
                ProtoShard {
                    shard,
                    feed: ShardFeed::new(rx),
                    exec: ExecSampler::new(sim.exec, seed),
                    slice: None,
                    records: Vec::new(),
                    busy: Duration::ZERO,
                }
            })
            .collect();
        let mut protocol = Protocol {
            sim,
            horizon: Instant::ZERO + sim.horizon,
            tick,
            steal: opts.steal,
            steal_batch: opts.steal_batch,
            states,
            heap: BinaryHeap::new(),
            seq: 0,
            sink: ActionSink::new(),
            outbox: Vec::new(),
            accel_busy: vec![Duration::ZERO; taskset.accels().len()],
            overhead_ns: yasmin_core::stats::Samples::new(),
        };
        let res = protocol.run();
        for p in producer_handles {
            p.join().expect("producer thread panicked");
        }
        res.map(|()| protocol.into_result())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::config::MappingScheme;
    use yasmin_core::ids::WorkerId;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn producer_schedules_cover_the_horizon() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for i in 0..3u16 {
            let t = b
                .task_decl(
                    TaskSpec::sporadic(format!("s{i}"), ms(10))
                        .with_release_offset(ms(1))
                        .on_worker(WorkerId::new(0)),
                )
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let ts = b.build().unwrap();
        let schedules = producer_schedules(&ts, 2, ms(50));
        let total: usize = schedules.iter().map(Vec::len).sum();
        // Each task activates at 1, 11, 21, 31, 41 -> 5 each.
        assert_eq!(total, 15);
        // Round-robin: producer 0 gets tasks 0 and 2, producer 1 task 1.
        assert_eq!(schedules[0].len(), 10);
        assert_eq!(schedules[1].len(), 5);
        for s in &schedules {
            assert!(s.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
        }
    }

    #[test]
    fn zero_producers_rejected() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let err = run_partitioned_parallel(
            ts,
            cfg,
            SimConfig::uniform(1, ms(50)),
            ParSimOptions {
                producers: 0,
                lane_capacity: 8,
                ..ParSimOptions::default()
            },
        );
        assert!(err.is_err());
    }
}
