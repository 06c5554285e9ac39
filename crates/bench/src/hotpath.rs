//! Dispatch hot-path latency experiment (the PR-2 perf baseline).
//!
//! Drives a steady-state tick/complete loop against the *real*
//! [`OnlineEngine`] — the same interaction pattern the Figure 2 overhead
//! experiment times — and reports per-call latency percentiles for the
//! two hot entry points:
//!
//! * `on_tick`: periodic releases + a dispatch round;
//! * `on_job_completed`: worker hand-back + successor dispatch.
//!
//! The binary `exp_hotpath` renders the result as machine-readable JSON
//! (`results/BENCH_PR2.json`) so successive PRs have a recorded
//! trajectory to compare against.

use std::sync::Arc;
use std::time::Instant as WallInstant;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::ids::{JobId, TaskId, WorkerId};
use yasmin_core::priority::{Priority, PriorityPolicy};
use yasmin_core::stats::Samples;
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::{
    Action, ActionSink, EngineShard, Job, JobBatch, OnlineEngine, ReadyQueue, ShardCmd, StealHint,
};
use yasmin_sync::mailbox::{mailbox, MailboxReceiver, MailboxSender};
use yasmin_taskgen::taskset::{build_independent, build_partitioned, IndependentSetParams};

/// Parameters of the steady-state loop.
#[derive(Debug, Clone, Copy)]
pub struct HotpathParams {
    /// Number of independent periodic tasks.
    pub tasks: usize,
    /// Worker (and queue-feeding) count.
    pub workers: usize,
    /// Total utilisation of the generated set.
    pub total_utilisation: f64,
    /// Taskset seed.
    pub seed: u64,
    /// Iterations measured (after warm-up).
    pub iters: u32,
    /// Warm-up iterations (excluded from the samples).
    pub warmup: u32,
}

impl Default for HotpathParams {
    fn default() -> Self {
        HotpathParams {
            tasks: 64,
            workers: 2,
            total_utilisation: 1.5,
            seed: 42,
            iters: 10_000,
            warmup: 1_000,
        }
    }
}

/// Latency percentiles of one entry point, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Worst observed.
    pub max_ns: u64,
    /// Sample count.
    pub count: usize,
}

impl LatencyStats {
    fn from_samples(s: &mut Samples) -> LatencyStats {
        LatencyStats {
            p50_ns: s.percentile(50).unwrap_or(0),
            p99_ns: s.percentile(99).unwrap_or(0),
            mean_ns: s.mean().unwrap_or(0.0),
            max_ns: s.max().unwrap_or(0),
            count: s.count(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {:.1}, \"max_ns\": {}, \"count\": {}}}",
            self.p50_ns, self.p99_ns, self.mean_ns, self.max_ns, self.count
        )
    }
}

/// The measured report.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Parameters the loop ran with.
    pub params: HotpathParams,
    /// `on_tick` latency.
    pub tick: LatencyStats,
    /// `on_job_completed` latency.
    pub completion: LatencyStats,
    /// Dispatch actions emitted over the measured window.
    pub dispatches: u64,
}

fn engine_for(p: &HotpathParams) -> OnlineEngine {
    let ts = build_independent(&IndependentSetParams {
        n: p.tasks,
        total_utilisation: p.total_utilisation,
        seed: p.seed,
        ..IndependentSetParams::default()
    })
    .expect("valid taskset");
    let config = Config::builder()
        .workers(p.workers)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    OnlineEngine::new(Arc::new(ts), config).expect("valid engine")
}

/// Replays the engine's actions onto a per-worker `running` model —
/// the minimal driver bookkeeping every steady-state measurement loop
/// (and the zero-alloc harness) needs to know which job to complete
/// next.
pub fn track_actions(running: &mut [Option<JobId>], actions: &[Action]) {
    for a in actions {
        match *a {
            Action::Dispatch { worker, job, .. } => running[worker.index()] = Some(job.id),
            Action::Preempt { worker, .. } => running[worker.index()] = None,
            Action::Boost { .. } => {}
        }
    }
}

/// Runs the steady-state loop and collects per-call latencies.
///
/// Drives the `*_into` sink API — the zero-allocation path a production
/// driver uses; the legacy `Vec`-returning wrappers delegate to it.
#[must_use]
pub fn run(p: &HotpathParams) -> HotpathReport {
    let mut engine = engine_for(p);
    let mut running: Vec<Option<JobId>> = vec![None; p.workers];
    let mut sink = ActionSink::with_capacity(256);

    engine
        .start_into(Instant::ZERO, &mut sink)
        .expect("fresh engine starts");
    track_actions(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;
    let mut tick_ns = Samples::with_capacity(p.iters as usize);
    let mut completion_ns = Samples::with_capacity(p.iters as usize);
    let dispatched_before_measure = engine.stats().dispatched;

    for i in 0..(p.warmup + p.iters) {
        let measuring = i >= p.warmup;
        // Complete everything running midway through the tick window, so
        // the next tick's releases find idle workers (steady state).
        let mid = now + tick.scale(1, 2);
        for w in 0..p.workers {
            if let Some(job) = running[w].take() {
                let worker = yasmin_core::ids::WorkerId::new(w as u16);
                sink.clear();
                let t0 = WallInstant::now();
                engine
                    .on_job_completed_into(worker, job, mid, &mut sink)
                    .expect("completion protocol upheld");
                let dt = t0.elapsed();
                if measuring {
                    completion_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
                }
                track_actions(&mut running, sink.as_slice());
            }
        }
        now += tick;
        sink.clear();
        let t0 = WallInstant::now();
        engine.on_tick_into(now, &mut sink);
        let dt = t0.elapsed();
        if measuring {
            tick_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
        track_actions(&mut running, sink.as_slice());
    }

    HotpathReport {
        params: *p,
        tick: LatencyStats::from_samples(&mut tick_ns),
        completion: LatencyStats::from_samples(&mut completion_ns),
        dispatches: engine.stats().dispatched - dispatched_before_measure,
    }
}

/// Runs the steady-state loop against the **sharded** engine, feeding
/// every interaction through the lock-free command mailbox: each
/// completion/tick is pushed as a [`ShardCmd`] into the shard's mailbox
/// lane, drained by the owner and applied via the zero-alloc sink path.
/// The samples therefore measure the *mailbox-feed dispatch latency* —
/// ring push + drain + engine call — the per-command cost a per-core
/// scheduler thread pays in the sharded runtime.
///
/// # Panics
///
/// Panics on engine/taskset construction failure (parameter bug).
#[must_use]
pub fn run_sharded(p: &HotpathParams) -> HotpathReport {
    let ts = Arc::new(
        build_partitioned(
            &IndependentSetParams {
                n: p.tasks,
                total_utilisation: p.total_utilisation,
                seed: p.seed,
                ..IndependentSetParams::default()
            },
            p.workers,
        )
        .expect("valid taskset"),
    );
    let config = Config::builder()
        .workers(p.workers)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut feeds: Vec<_> = (0..p.workers)
        .map(|_| mailbox::<ShardCmd>(1, 256))
        .collect();
    let mut running: Vec<Option<JobId>> = vec![None; p.workers];
    let mut sink = ActionSink::with_capacity(256);

    let mut dispatched_before_measure = 0;
    for shard in &mut shards {
        shard
            .start_into(Instant::ZERO, &mut sink)
            .expect("fresh shard starts");
        dispatched_before_measure += shard.stats().dispatched;
    }
    track_actions(&mut running, sink.as_slice());
    let tick = shards[0].tick_period();
    let mut now = Instant::ZERO;
    let mut tick_ns = Samples::with_capacity(p.iters as usize);
    let mut completion_ns = Samples::with_capacity(p.iters as usize);

    for i in 0..(p.warmup + p.iters) {
        let measuring = i >= p.warmup;
        let mid = now + tick.scale(1, 2);
        for (w, shard) in shards.iter_mut().enumerate() {
            if let Some(job) = running[w].take() {
                let worker = yasmin_core::ids::WorkerId::new(w as u16);
                let cmd = ShardCmd::JobCompleted {
                    worker,
                    job,
                    at: mid,
                };
                feed_one(
                    shard,
                    &mut feeds[w],
                    cmd,
                    &mut sink,
                    &mut completion_ns,
                    measuring,
                );
                track_actions(&mut running, sink.as_slice());
            }
        }
        now += tick;
        for (w, shard) in shards.iter_mut().enumerate() {
            let cmd = ShardCmd::Tick { at: now };
            feed_one(
                shard,
                &mut feeds[w],
                cmd,
                &mut sink,
                &mut tick_ns,
                measuring,
            );
            track_actions(&mut running, sink.as_slice());
        }
    }

    let dispatches: u64 = shards.iter().map(|s| s.stats().dispatched).sum();
    HotpathReport {
        params: *p,
        tick: LatencyStats::from_samples(&mut tick_ns),
        completion: LatencyStats::from_samples(&mut completion_ns),
        dispatches: dispatches - dispatched_before_measure,
    }
}

/// One mailbox-feed round: push `cmd` into the shard's lane, drain the
/// mailbox as the owner, apply via the sink — timed end to end.
fn feed_one(
    shard: &mut EngineShard,
    feed: &mut (Vec<MailboxSender<ShardCmd>>, MailboxReceiver<ShardCmd>),
    cmd: ShardCmd,
    sink: &mut ActionSink,
    samples: &mut Samples,
    measuring: bool,
) {
    let (txs, rx) = feed;
    sink.clear();
    let t0 = WallInstant::now();
    txs[0].send(cmd).expect("mailbox lane sized for the loop");
    while let Some(cmd) = rx.try_recv() {
        shard
            .process_into(cmd, sink)
            .expect("driver protocol upheld");
    }
    let dt = t0.elapsed();
    if measuring {
        samples.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// The remove-heavy queue measurement: `remove`-then-`pop` against
/// `pop` alone on a full [`ReadyQueue`] — the asymptotic check behind
/// the PR 4 index heap (the former tombstone queue scanned O(n) per
/// removal, so `remove_then_pop` blew past any constant multiple of
/// `pop` at n = 1024).
#[derive(Debug, Clone)]
pub struct RemoveHeavyReport {
    /// Live queue size held throughout the measurement.
    pub n: usize,
    /// Latency of one `pop` (the job is pushed back untimed).
    pub pop: LatencyStats,
    /// Latency of one mid-queue `remove` followed by one `pop` (both
    /// jobs pushed back untimed).
    pub remove_then_pop: LatencyStats,
}

fn queue_job(id: u64, prio: u64) -> Job {
    Job {
        id: JobId::new(id),
        task: TaskId::new(id as u32),
        seq: 0,
        release: Instant::ZERO,
        graph_release: Instant::ZERO,
        abs_deadline: Instant::ZERO + Duration::from_millis(1),
        priority: Priority::new(prio),
        preempted: false,
    }
}

/// Runs the remove-heavy queue loops at a steady live size of `n`.
///
/// The acceptance bound the perf gate enforces: `remove_then_pop` p50
/// within 2× of `pop` p50 — i.e. a removal costs no more than a pop,
/// with no size-dependent scan on any path.
#[must_use]
pub fn run_remove_heavy(n: usize, iters: u32, warmup: u32) -> RemoveHeavyReport {
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }
    let mut rng = Lcg(0x243F_6A88_85A3_08D3);
    fn fill(q: &mut ReadyQueue, n: usize, rng: &mut Lcg) {
        for id in 0..n as u64 {
            q.push(queue_job(id, rng.next() % 1024))
                .expect("sized for n");
        }
    }

    let mut pop_ns = Samples::with_capacity(iters as usize);
    let mut q = ReadyQueue::with_capacity(n);
    fill(&mut q, n, &mut rng);
    for i in 0..(warmup + iters) {
        let t0 = WallInstant::now();
        let j = q.pop().expect("queue stays full");
        let dt = t0.elapsed();
        q.push(j).expect("push back below capacity");
        if i >= warmup {
            pop_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    let mut remove_ns = Samples::with_capacity(iters as usize);
    let mut q = ReadyQueue::with_capacity(n);
    fill(&mut q, n, &mut rng);
    for i in 0..(warmup + iters) {
        // Ids 0..n stay live across iterations (everything is pushed
        // back), so any id in range is a valid mid-queue victim.
        let victim = JobId::new(rng.next() % n as u64);
        let t0 = WallInstant::now();
        let removed = q.remove(victim).expect("victim is live");
        let popped = q.pop().expect("queue non-empty");
        let dt = t0.elapsed();
        q.push(removed).expect("push back below capacity");
        q.push(popped).expect("push back below capacity");
        if i >= warmup {
            remove_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    RemoveHeavyReport {
        n,
        pop: LatencyStats::from_samples(&mut pop_ns),
        remove_then_pop: LatencyStats::from_samples(&mut remove_ns),
    }
}

/// The bursty-completion measurement: per cycle, every busy worker's
/// completion retired either **sequentially** (one
/// `on_job_completed_into` — and thus one dispatch round — per worker)
/// or **batched** (one `on_jobs_completed_into` for the whole burst,
/// one dispatch round total). One sample = the whole per-cycle
/// completion phase, so the two series are directly comparable.
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// Workers completing per cycle.
    pub workers: usize,
    /// Per-burst latency of the sequential per-completion path.
    pub sequential: LatencyStats,
    /// Per-burst latency of the batch API.
    pub batched: LatencyStats,
}

fn burst_engine(p: &HotpathParams, workers: usize) -> OnlineEngine {
    let ts = build_independent(&IndependentSetParams {
        n: p.tasks,
        // Enough demand to keep every worker busy each cycle.
        total_utilisation: workers as f64 * 0.75,
        seed: p.seed,
        ..IndependentSetParams::default()
    })
    .expect("valid taskset");
    let config = Config::builder()
        .workers(workers)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    OnlineEngine::new(Arc::new(ts), config).expect("valid engine")
}

/// Runs the bursty-completion loops with `workers` workers completing
/// each cycle.
#[must_use]
pub fn run_burst(p: &HotpathParams, workers: usize) -> BurstReport {
    let run_variant = |batched: bool| -> LatencyStats {
        let mut engine = burst_engine(p, workers);
        let mut running: Vec<Option<JobId>> = vec![None; workers];
        let mut batch: Vec<(WorkerId, JobId)> = Vec::with_capacity(workers);
        let mut sink = ActionSink::with_capacity(256);
        engine
            .start_into(Instant::ZERO, &mut sink)
            .expect("fresh engine starts");
        track_actions(&mut running, sink.as_slice());
        let tick = engine.tick_period();
        let mut now = Instant::ZERO;
        let mut samples = Samples::with_capacity(p.iters as usize);
        for i in 0..(p.warmup + p.iters) {
            let mid = now + tick.scale(1, 2);
            batch.clear();
            for (w, slot) in running.iter_mut().enumerate() {
                if let Some(job) = slot.take() {
                    batch.push((WorkerId::new(w as u16), job));
                }
            }
            sink.clear();
            let t0 = WallInstant::now();
            if batched {
                engine
                    .on_jobs_completed_into(&batch, mid, &mut sink)
                    .expect("completion protocol upheld");
            } else {
                for &(w, job) in &batch {
                    engine
                        .on_job_completed_into(w, job, mid, &mut sink)
                        .expect("completion protocol upheld");
                }
            }
            let dt = t0.elapsed();
            if i >= p.warmup {
                samples.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
            }
            track_actions(&mut running, sink.as_slice());
            now += tick;
            sink.clear();
            engine.on_tick_into(now, &mut sink);
            track_actions(&mut running, sink.as_slice());
        }
        LatencyStats::from_samples(&mut samples)
    };

    BurstReport {
        workers,
        sequential: run_variant(false),
        batched: run_variant(true),
    }
}

/// The steal-path measurement: the full work-stealing hand-off of one
/// job — a batch of one: ordered `try_steal_batch` probe, O(log n)
/// `release_stolen_batch` detach, thief `adopt_stolen_batch` with its
/// dispatch round — against a plain local dispatch (completion pops the
/// most urgent job onto the worker), on a victim queue held at a steady
/// size. Both sides run in the same process, so the ratio is
/// host-independent: the perf gate bounds the steal cycle at 2× the
/// local pop path.
#[derive(Debug, Clone)]
pub struct StealReport {
    /// Steady live size of the victim's ready queue.
    pub n: usize,
    /// Latency of a local completion→pop→dispatch on the victim.
    pub local_pop: LatencyStats,
    /// Latency of the full steal cycle (probe + detach + adopt).
    pub steal_cycle: LatencyStats,
}

/// Runs the steal-path loops with the victim queue held at `n_tasks`
/// (minus the job parked on the victim's worker).
///
/// # Panics
///
/// Panics on engine/taskset construction failure (parameter bug).
#[must_use]
pub fn run_steal(n_tasks: usize, iters: u32, warmup: u32) -> StealReport {
    use yasmin_core::time::Instant as SimInstant;
    let (mut victim, mut thief) = steal_pair(n_tasks);
    let mut sink = ActionSink::with_capacity(64);
    let mut hints: Vec<StealHint> = Vec::with_capacity(1);
    let mut batch = JobBatch::new();
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let mut now = SimInstant::ZERO;
    let step = Duration::from_micros(1);
    let mut local_ns = Samples::with_capacity(iters as usize);
    let mut steal_ns = Samples::with_capacity(iters as usize);

    for i in 0..(warmup + iters) {
        let measuring = i >= warmup;
        now += step;
        // Timed steal cycle: probe, detach, adopt (thief dispatches).
        sink.clear();
        batch.clear();
        let t0 = WallInstant::now();
        victim.try_steal_batch(1, &mut hints);
        victim.release_stolen_batch(&hints, &mut batch);
        thief
            .adopt_stolen_batch(batch.as_slice(), now, &mut sink)
            .expect("thief is idle");
        let dt = t0.elapsed();
        if measuring {
            steal_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
        // Untimed: retire the stolen job and refill the victim queue.
        let job = batch.as_slice()[0];
        sink.clear();
        thief
            .on_job_completed_into(w1, job.id, now, &mut sink)
            .expect("completion protocol upheld");
        sink.clear();
        victim.activate_into(job.task, now, &mut sink).unwrap();
        // Timed local comparator: completion pops the most urgent job
        // onto the victim's own worker.
        let running = victim.running().expect("victim worker busy").job;
        sink.clear();
        let t0 = WallInstant::now();
        victim
            .on_job_completed_into(w0, running.id, now, &mut sink)
            .expect("completion protocol upheld");
        let dt = t0.elapsed();
        if measuring {
            local_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
        sink.clear();
        victim.activate_into(running.task, now, &mut sink).unwrap();
    }
    assert!(victim.stats().donated >= u64::from(iters));
    StealReport {
        n: n_tasks.saturating_sub(1),
        local_pop: LatencyStats::from_samples(&mut local_ns),
        steal_cycle: LatencyStats::from_samples(&mut steal_ns),
    }
}

/// The batch-steal measurement (PR 10): moving `k` jobs from a loaded
/// victim to an idle thief as `k` exchanges of one job each against
/// **one** batched exchange — with the victim's scheduler on a real
/// second thread, as in the sharded runtime. Every exchange therefore
/// pays the genuine cross-thread cost the protocol pays in production:
/// a request hop on a mailbox lane, the victim thread's scan + detach,
/// a grant hop carrying the jobs back, and the thief's adoption round.
/// The one-job series serialises k of those round trips (the runtime
/// holds one outstanding request per thief); the batch pays one. One
/// sample = the whole k-job hand-off; the perf gate requires the
/// one-job series to cost at least 2× the batched one (i.e. batch
/// throughput ≥ 2× one-at-a-time throughput at k = 8).
#[derive(Debug, Clone)]
pub struct StealBatchReport {
    /// Steady live size of the victim's ready queue.
    pub n: usize,
    /// Jobs moved per sample.
    pub k: usize,
    /// Latency of `k` rounds of one job each (request hop + probe +
    /// detach + grant hop + adopt, per job, serialised).
    pub single: LatencyStats,
    /// Latency of one k-job batched round (request hop + ordered scan +
    /// detach pass + one grant hop + one adoption round).
    pub batch: LatencyStats,
}

/// A started two-shard pair for the steal loops: `n_tasks` aperiodic
/// tasks homed on the victim (worker 0), all activated, and an idle
/// thief (worker 1).
fn steal_pair(n_tasks: usize) -> (EngineShard, EngineShard) {
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::Instant as SimInstant;
    let mut b = yasmin_core::graph::TaskSetBuilder::new();
    for i in 0..n_tasks {
        let t = b
            .task_decl(TaskSpec::aperiodic(format!("a{i}")).on_worker(WorkerId::new(0)))
            .unwrap();
        b.version_decl(
            t,
            yasmin_core::version::VersionSpec::new("v", Duration::from_millis(1)),
        )
        .unwrap();
    }
    let ts = std::sync::Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .tick(Duration::from_millis(1_000))
        .max_pending_jobs(n_tasks + 8)
        .build()
        .unwrap();
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut thief = shards.pop().unwrap();
    let mut victim = shards.pop().unwrap();
    let mut sink = ActionSink::with_capacity(64);
    victim.start_into(SimInstant::ZERO, &mut sink).unwrap();
    thief.start_into(SimInstant::ZERO, &mut sink).unwrap();
    // Fill the victim: the first activation parks on its worker, the
    // rest hold the queue at its steady size.
    for t in ts.tasks() {
        victim
            .activate_into(t.id(), SimInstant::ZERO, &mut sink)
            .unwrap();
    }
    (victim, thief)
}

/// Victim-thread request codes carried on the `u8` lane: `1..=0xF0` is
/// a steal request for that many jobs, [`REQ_REFILL`] asks the victim
/// to re-activate every task it donated (ack'd with a discarded
/// [`ShardCmd::Tick`]), [`REQ_STOP`] shuts the thread down.
const REQ_REFILL: u8 = 0xFF;
const REQ_STOP: u8 = 0xFE;

/// Runs the batch-steal loops with the victim queue held near `n_tasks`
/// and `k` jobs moved per sample, the victim scheduler served from its
/// own thread.
///
/// # Panics
///
/// Panics on engine/taskset construction failure (parameter bug) or a
/// victim thread that stalls past ten seconds (a protocol bug, not
/// host noise).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_steal_batch(n_tasks: usize, k: usize, iters: u32, warmup: u32) -> StealBatchReport {
    use yasmin_core::time::Instant as SimInstant;
    assert!(
        (2..=0xF0).contains(&k),
        "k must fit the request encoding and exercise batching"
    );
    let w1 = WorkerId::new(1);
    let step = Duration::from_micros(1);
    let stall = std::time::Duration::from_secs(10);

    let run_variant = |batched: bool| -> LatencyStats {
        let (victim, mut thief) = steal_pair(n_tasks);
        let (mut req_lanes, req_rx) = mailbox::<u8>(1, 16);
        let mut req_tx = req_lanes.pop().expect("one lane requested");
        let (mut grant_lanes, mut grant_rx) = mailbox::<ShardCmd>(1, 16);
        let grant_tx = grant_lanes.pop().expect("one lane requested");

        // The victim's shard loop: serve steal requests off the lane,
        // restore donated tasks on refill, exit on stop. Runs on its
        // own thread so every request/grant pair is a genuine
        // cross-thread round trip, as in the sharded runtime.
        let victim_thread = std::thread::spawn(move || {
            let mut victim = victim;
            let mut req_rx = req_rx;
            let mut grant_tx = grant_tx;
            let mut sink = ActionSink::with_capacity(64);
            let mut hints: Vec<StealHint> = Vec::with_capacity(k);
            let mut donated: Vec<TaskId> = Vec::with_capacity(k + 1);
            let mut now = SimInstant::ZERO;
            let mut idle = WallInstant::now();
            loop {
                let Some(req) = req_rx.try_recv() else {
                    assert!(idle.elapsed() < stall, "thief went quiet; victim bailing");
                    // Yield, not spin: on a loaded (or single-core) host
                    // a hard spin burns the peer's timeslice and turns
                    // every round trip into a full scheduler quantum.
                    std::thread::yield_now();
                    continue;
                };
                idle = WallInstant::now();
                now += step;
                match req {
                    REQ_STOP => break,
                    REQ_REFILL => {
                        for t in donated.drain(..) {
                            sink.clear();
                            victim.activate_into(t, now, &mut sink).unwrap();
                        }
                        grant_tx
                            .send(ShardCmd::Tick { at: now })
                            .expect("grant lane sized for the loop");
                    }
                    want => {
                        let got = victim.try_steal_batch(want as usize, &mut hints);
                        debug_assert_eq!(got, want as usize, "victim queue is loaded");
                        let mut jobs = JobBatch::new();
                        victim.release_stolen_batch(&hints, &mut jobs);
                        for j in jobs.as_slice() {
                            donated.push(j.task);
                        }
                        grant_tx
                            .send(ShardCmd::StolenBatch { jobs, at: now })
                            .expect("grant lane sized for the loop");
                    }
                }
            }
            victim
        });

        // Spin-wait for the next grant; the victim always answers.
        let recv_grant = |grant_rx: &mut MailboxReceiver<ShardCmd>| -> ShardCmd {
            let t0 = WallInstant::now();
            loop {
                if let Some(cmd) = grant_rx.try_recv() {
                    return cmd;
                }
                assert!(t0.elapsed() < stall, "victim thread stalled");
                std::thread::yield_now();
            }
        };

        let mut sink = ActionSink::with_capacity(64);
        let mut now = SimInstant::ZERO;
        let mut samples = Samples::with_capacity(iters as usize);
        for i in 0..(warmup + iters) {
            now += step;
            let t0 = WallInstant::now();
            if batched {
                req_tx
                    .send(u8::try_from(k).expect("k fits the encoding"))
                    .expect("request lane sized for the loop");
                let cmd = recv_grant(&mut grant_rx);
                sink.clear();
                thief
                    .process_into(cmd, &mut sink)
                    .expect("thief adopts the batch");
            } else {
                // The runtime keeps one outstanding request per thief,
                // so k batches of one are k serialised round trips.
                for _ in 0..k {
                    req_tx.send(1).expect("request lane sized for the loop");
                    let cmd = recv_grant(&mut grant_rx);
                    sink.clear();
                    thief
                        .process_into(cmd, &mut sink)
                        .expect("thief adopts the grant");
                }
            }
            let dt = t0.elapsed();
            if i >= warmup {
                samples.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
            }
            // Untimed: retire the thief's haul, hand the tasks back.
            while let Some(r) = thief.running() {
                let job = r.job.id;
                sink.clear();
                thief
                    .on_job_completed_into(w1, job, now, &mut sink)
                    .expect("completion protocol upheld");
            }
            req_tx
                .send(REQ_REFILL)
                .expect("request lane sized for the loop");
            let _ack = recv_grant(&mut grant_rx);
        }
        req_tx
            .send(REQ_STOP)
            .expect("request lane sized for the loop");
        let victim = victim_thread.join().expect("victim thread exits cleanly");
        let rounds = u64::from(iters + warmup);
        let exchanges = if batched { rounds } else { rounds * k as u64 };
        assert!(thief.stats().stolen_batch >= exchanges);
        assert!(victim.stats().donated >= rounds * k as u64);
        LatencyStats::from_samples(&mut samples)
    };

    let single = run_variant(false);
    let batch = run_variant(true);
    StealBatchReport {
        n: n_tasks.saturating_sub(1),
        k,
        single,
        batch,
    }
}

/// Frozen copy of the **PR 4 ready-queue layout** — the 4-ary
/// index-tracked heap with the full [`Job`] payload inline in every
/// heap entry — kept as the comparator the perf gate measures the PR 10
/// struct-of-arrays split against. Only the operations the scan bench
/// times (push/pop with full index maintenance on every sift move) are
/// reproduced; the live queue must never regress behind this layout.
mod inline_ref {
    use super::{Job, JobId};

    const D: usize = 4;
    const EMPTY: u32 = u32::MAX;

    #[derive(Clone, Copy)]
    struct Slot {
        id: JobId,
        pos: u32,
    }

    /// The inline-payload (array-of-structs) heap: each entry carries
    /// the full job next to its index back-pointer, so every sift level
    /// drags whole payloads through the cache.
    pub struct InlineQueue {
        heap: Vec<(Job, u32)>,
        index: Vec<Slot>,
        mask: usize,
    }

    impl InlineQueue {
        pub fn with_capacity(capacity: usize) -> Self {
            let slots = (capacity.max(1) * 2).next_power_of_two();
            InlineQueue {
                heap: Vec::with_capacity(capacity),
                index: vec![
                    Slot {
                        id: JobId::new(0),
                        pos: EMPTY,
                    };
                    slots
                ],
                mask: slots - 1,
            }
        }

        fn home(&self, id: JobId) -> usize {
            let h = id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 32) as usize & self.mask
        }

        fn index_insert(&mut self, id: JobId, pos: u32) -> u32 {
            let mut i = self.home(id);
            while self.index[i].pos != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.index[i] = Slot { id, pos };
            i as u32
        }

        fn index_delete(&mut self, mut i: usize) {
            loop {
                self.index[i].pos = EMPTY;
                let mut j = i;
                loop {
                    j = (j + 1) & self.mask;
                    if self.index[j].pos == EMPTY {
                        return;
                    }
                    let h = self.home(self.index[j].id);
                    let stays = (j.wrapping_sub(h) & self.mask) < (j.wrapping_sub(i) & self.mask);
                    if !stays {
                        self.index[i] = self.index[j];
                        self.heap[self.index[i].pos as usize].1 = i as u32;
                        i = j;
                        break;
                    }
                }
            }
        }

        fn sift_up(&mut self, mut pos: usize) {
            let ent = self.heap[pos];
            let key = ent.0.queue_key();
            while pos > 0 {
                let parent = (pos - 1) / D;
                let pe = self.heap[parent];
                if pe.0.queue_key() <= key {
                    break;
                }
                self.heap[pos] = pe;
                self.index[pe.1 as usize].pos = pos as u32;
                pos = parent;
            }
            self.heap[pos] = ent;
            self.index[ent.1 as usize].pos = pos as u32;
        }

        fn sift_down(&mut self, mut pos: usize) {
            let ent = self.heap[pos];
            let key = ent.0.queue_key();
            let n = self.heap.len();
            loop {
                let first = pos * D + 1;
                if first >= n {
                    break;
                }
                let mut best = first;
                let mut best_key = self.heap[first].0.queue_key();
                for c in (first + 1)..(first + D).min(n) {
                    let k = self.heap[c].0.queue_key();
                    if k < best_key {
                        best = c;
                        best_key = k;
                    }
                }
                if key <= best_key {
                    break;
                }
                let ce = self.heap[best];
                self.heap[pos] = ce;
                self.index[ce.1 as usize].pos = pos as u32;
                pos = best;
            }
            self.heap[pos] = ent;
            self.index[ent.1 as usize].pos = pos as u32;
        }

        pub fn push(&mut self, job: Job) {
            let pos = self.heap.len();
            let islot = self.index_insert(job.id, pos as u32);
            self.heap.push((job, islot));
            self.sift_up(pos);
        }

        pub fn pop(&mut self) -> Option<Job> {
            if self.heap.is_empty() {
                return None;
            }
            let (job, islot) = self.heap[0];
            self.index_delete(islot as usize);
            let last = self.heap.pop().expect("non-empty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.index[last.1 as usize].pos = 0;
                self.sift_down(0);
            }
            Some(job)
        }

        /// The frontier walk of `ReadyQueue::scan_in_order`, verbatim,
        /// except that every key comparison reads through the full
        /// inline entry instead of the packed key array — the traffic
        /// the struct-of-arrays split removes from the batch-steal
        /// probe.
        pub fn scan_in_order(&self, frontier: &mut Vec<u32>, mut visit: impl FnMut(&Job) -> bool) {
            frontier.clear();
            if self.heap.is_empty() {
                return;
            }
            frontier.push(0);
            while !frontier.is_empty() {
                let mut mi = 0;
                for i in 1..frontier.len() {
                    if self.heap[frontier[i] as usize].0.queue_key()
                        < self.heap[frontier[mi] as usize].0.queue_key()
                    {
                        mi = i;
                    }
                }
                let pos = frontier.swap_remove(mi) as usize;
                if !visit(&self.heap[pos].0) {
                    return;
                }
                let first = pos * D + 1;
                for c in first..(first + D).min(self.heap.len()) {
                    frontier.push(c as u32);
                }
            }
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

/// The queue key-scan measurement (PR 10): a steady-state churn cycle
/// — pop the most-urgent job, push it back under a fresh random
/// priority, then run the key-only ordered frontier scan the
/// batch-steal probe runs ([`ReadyQueue::scan_in_order`] over the top
/// `2 × MAX_STEAL_BATCH` jobs) — at high occupancy, on the live
/// struct-of-arrays [`ReadyQueue`] against the frozen inline-payload
/// `inline_ref` layout it replaced. The random re-priority makes
/// every cycle sift through a different heap path instead of
/// re-walking one cache-hot root chain; both sides consume the
/// identical priority stream and run the identical operation sequence
/// with identical index bookkeeping, so the only difference is what
/// the sift and scan loops drag through the cache — packed 24-byte
/// keys against whole `Job` payloads. Same host, same process: the
/// perf gate bounds the SoA cycle at the inline cycle plus a small
/// slack.
#[derive(Debug, Clone)]
pub struct QueueScanReport {
    /// Live queue size held throughout the measurement.
    pub n: usize,
    /// Pop + push + frontier-scan cycle on the struct-of-arrays queue.
    pub soa: LatencyStats,
    /// The same cycle on the frozen inline-payload heap.
    pub inline_ref: LatencyStats,
}

/// Runs the key-scan loops at a steady live size of `n`.
#[must_use]
pub fn run_queue_scan(n: usize, iters: u32, warmup: u32) -> QueueScanReport {
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    // Jobs the frontier scan enumerates per cycle — twice the largest
    // batch a steal exchange may ask the probe for.
    let scan_k = 2 * yasmin_sched::MAX_STEAL_BATCH;
    let mut frontier: Vec<u32> = Vec::with_capacity(scan_k * 4 + 1);

    let mut soa_ns = Samples::with_capacity(iters as usize);
    let mut q = ReadyQueue::with_capacity(n);
    let mut rng = Lcg(0x1234_5678_9ABC_DEF0);
    for id in 0..n as u64 {
        q.push(queue_job(id, rng.next() % (1 << 20)))
            .expect("sized for n");
    }
    let mut acc = 0u64;
    for i in 0..(warmup + iters) {
        let t0 = WallInstant::now();
        let j = q.pop().expect("queue stays full");
        q.push(queue_job(j.id.raw(), rng.next() % (1 << 20)))
            .expect("push back below capacity");
        let mut seen = 0usize;
        q.scan_in_order(&mut frontier, |job| {
            acc ^= job.id.raw();
            seen += 1;
            seen < scan_k
        });
        let dt = t0.elapsed();
        if i >= warmup {
            soa_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    assert_eq!(q.len(), n);
    std::hint::black_box(acc);

    let mut inline_ns = Samples::with_capacity(iters as usize);
    let mut q = inline_ref::InlineQueue::with_capacity(n);
    let mut rng = Lcg(0x1234_5678_9ABC_DEF0);
    for id in 0..n as u64 {
        q.push(queue_job(id, rng.next() % (1 << 20)));
    }
    let mut acc = 0u64;
    for i in 0..(warmup + iters) {
        let t0 = WallInstant::now();
        let j = q.pop().expect("queue stays full");
        q.push(queue_job(j.id.raw(), rng.next() % (1 << 20)));
        let mut seen = 0usize;
        q.scan_in_order(&mut frontier, |job| {
            acc ^= job.id.raw();
            seen += 1;
            seen < scan_k
        });
        let dt = t0.elapsed();
        if i >= warmup {
            inline_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    assert_eq!(q.len(), n);
    std::hint::black_box(acc);

    QueueScanReport {
        n,
        soa: LatencyStats::from_samples(&mut soa_ns),
        inline_ref: LatencyStats::from_samples(&mut inline_ns),
    }
}

/// The real-thread hand-off measurement (PR 10): a burst of short jobs
/// lands on worker 0's shard of a running [`ShardedRuntime`](yasmin_rt::ShardedRuntime) while
/// worker 1 idles; the wall-clock drain time with work stealing on is
/// recorded against the same burst with stealing off (victim drains
/// alone). Real scheduler threads, real mailbox lanes, real batch
/// grants — absolute numbers are host-dependent, so this section is
/// recorded for the trajectory rather than gated.
#[derive(Debug, Clone)]
pub struct HandoffReport {
    /// Jobs in the burst.
    pub jobs: usize,
    /// Spin time each job body burns, microseconds.
    pub spin_us: u64,
    /// Wall-clock drain of the burst with stealing off, ns.
    pub local_wall_ns: u64,
    /// Wall-clock drain of the burst with stealing on, ns.
    pub steal_wall_ns: u64,
    /// Jobs migrated in the stealing run.
    pub stolen: u64,
    /// Batch grants those migrations rode.
    pub stolen_batch: u64,
}

/// Runs the hand-off burst on real threads, stealing off then on
/// (best of `tries` runs each).
///
/// # Panics
///
/// Panics on runtime construction failure or a burst that fails to
/// drain within two seconds (a scheduler bug, not host noise).
#[must_use]
pub fn run_handoff(jobs: usize, spin_us: u64, tries: u32) -> HandoffReport {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use yasmin_core::task::TaskSpec;
    use yasmin_rt::RuntimeBuilder;

    let run_once = |stealing: bool| -> (u64, u64, u64) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let light = b
            .task_decl(
                TaskSpec::periodic("light", Duration::from_millis(5)).on_worker(WorkerId::new(1)),
            )
            .unwrap();
        let vl = b
            .version_decl(
                light,
                yasmin_core::version::VersionSpec::new("v", Duration::from_micros(50)),
            )
            .unwrap();
        let mut burst = Vec::with_capacity(jobs);
        for i in 0..jobs {
            let t = b
                .task_decl(TaskSpec::aperiodic(format!("h{i}")).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = b
                .version_decl(
                    t,
                    yasmin_core::version::VersionSpec::new("v", Duration::from_millis(2)),
                )
                .unwrap();
            burst.push((t, v));
        }
        let ts = std::sync::Arc::new(b.build().unwrap());
        let config = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .max_pending_jobs(jobs + 8)
            .build()
            .unwrap();
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let mut builder = RuntimeBuilder::new(ts, config)
            .work_stealing(stealing)
            .body(light, vl, |_| {});
        let spin = std::time::Duration::from_micros(spin_us);
        for &(t, v) in &burst {
            let d = std::sync::Arc::clone(&done);
            builder = builder.body(t, v, move |_| {
                let t0 = WallInstant::now();
                while t0.elapsed() < spin {
                    std::hint::spin_loop();
                }
                d.fetch_add(1, Ordering::Release);
            });
        }
        let rt = builder.build().expect("valid sharded runtime");
        // Let the scheduler threads settle before the burst lands.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t0 = WallInstant::now();
        for &(t, _) in &burst {
            rt.activate(t).expect("activation accepted");
        }
        while done.load(Ordering::Acquire) < jobs {
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(2),
                "hand-off burst failed to drain"
            );
            // Yield the core to the scheduler/worker threads; a hard
            // spin here starves them on small or loaded hosts.
            std::thread::yield_now();
        }
        let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        rt.stop();
        let report = rt.cleanup();
        (
            wall,
            report.engine_stats.stolen,
            report.engine_stats.stolen_batch,
        )
    };

    let best = |stealing: bool| -> (u64, u64, u64) {
        let mut best = run_once(stealing);
        for _ in 1..tries {
            let r = run_once(stealing);
            if r.0 < best.0 {
                best = r;
            }
        }
        best
    };
    let (local_wall_ns, _, _) = best(false);
    let (steal_wall_ns, stolen, stolen_batch) = best(true);
    HandoffReport {
        jobs,
        spin_us,
        local_wall_ns,
        steal_wall_ns,
        stolen,
        stolen_batch,
    }
}

/// The cross-shard activation measurement (PR 5): a completion whose
/// DAG successor lives on the same shard (fires locally in the same
/// engine call) against one whose successor lives on a foreign shard —
/// completion, outbox drain, and the destination shard's
/// `CrossActivate` round, end to end. Same process, host-independent
/// ratio.
#[derive(Debug, Clone)]
pub struct CrossActReport {
    /// Completion + local successor firing + dispatch, one shard.
    pub local_fire: LatencyStats,
    /// Completion + outbox drain + routed `CrossActivate` + dispatch.
    pub routed: LatencyStats,
}

fn pipeline_set(dst_worker: u16) -> std::sync::Arc<yasmin_core::graph::TaskSet> {
    use yasmin_core::task::TaskSpec;
    let mut b = yasmin_core::graph::TaskSetBuilder::new();
    let src = b
        .task_decl(TaskSpec::periodic("src", Duration::from_millis(10)).on_worker(WorkerId::new(0)))
        .unwrap();
    let dst = b
        .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(dst_worker)))
        .unwrap();
    b.version_decl(
        src,
        yasmin_core::version::VersionSpec::new("s", Duration::from_millis(1)),
    )
    .unwrap();
    b.version_decl(
        dst,
        yasmin_core::version::VersionSpec::new("d", Duration::from_millis(1)),
    )
    .unwrap();
    let c = b.channel_decl("c", 1, 8);
    b.channel_connect(src, dst, c).unwrap();
    std::sync::Arc::new(b.build().unwrap())
}

/// Runs the cross-shard-activation loops.
///
/// # Panics
///
/// Panics on engine/taskset construction failure (parameter bug).
#[must_use]
pub fn run_cross_activation(iters: u32, warmup: u32) -> CrossActReport {
    use yasmin_core::time::Instant as SimInstant;
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .max_pending_jobs(64)
        .build()
        .unwrap();
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let tick = Duration::from_millis(10);
    let mut sink = ActionSink::with_capacity(64);

    // Local variant: both DAG nodes on worker 0's shard.
    let ts = pipeline_set(0);
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut local = shards.remove(0);
    local.start_into(SimInstant::ZERO, &mut sink).unwrap();
    let mut now = SimInstant::ZERO;
    let mut local_ns = Samples::with_capacity(iters as usize);
    for i in 0..(warmup + iters) {
        let src_job = local.running().expect("src runs").job.id;
        let mid = now + tick.scale(1, 4);
        sink.clear();
        let t0 = WallInstant::now();
        local
            .on_job_completed_into(w0, src_job, mid, &mut sink)
            .expect("completion protocol upheld");
        let dt = t0.elapsed();
        if i >= warmup {
            local_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
        // Untimed: retire the successor, advance to the next period.
        let dst_job = local.running().expect("dst dispatched").job.id;
        sink.clear();
        local
            .on_job_completed_into(w0, dst_job, now + tick.scale(1, 2), &mut sink)
            .expect("completion protocol upheld");
        now += tick;
        sink.clear();
        local.on_tick_into(now, &mut sink);
    }

    // Routed variant: the successor lives on worker 1's shard.
    let ts = pipeline_set(1);
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut dst_shard = shards.remove(1);
    let mut src_shard = shards.remove(0);
    src_shard.start_into(SimInstant::ZERO, &mut sink).unwrap();
    dst_shard.start_into(SimInstant::ZERO, &mut sink).unwrap();
    let mut outbox: Vec<yasmin_sched::RemoteActivation> = Vec::with_capacity(4);
    let mut now = SimInstant::ZERO;
    let mut routed_ns = Samples::with_capacity(iters as usize);
    for i in 0..(warmup + iters) {
        let src_job = src_shard.running().expect("src runs").job.id;
        let mid = now + tick.scale(1, 4);
        sink.clear();
        let t0 = WallInstant::now();
        src_shard
            .on_job_completed_into(w0, src_job, mid, &mut sink)
            .expect("completion protocol upheld");
        src_shard.drain_outbox_into(&mut outbox);
        for ra in outbox.drain(..) {
            dst_shard
                .process_into(
                    ShardCmd::CrossActivate {
                        edge: ra.edge,
                        graph_release: ra.graph_release,
                        at: mid,
                    },
                    &mut sink,
                )
                .expect("token routed to the owning shard");
        }
        let dt = t0.elapsed();
        if i >= warmup {
            routed_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
        let dst_job = dst_shard.running().expect("dst dispatched").job.id;
        sink.clear();
        dst_shard
            .on_job_completed_into(w1, dst_job, now + tick.scale(1, 2), &mut sink)
            .expect("completion protocol upheld");
        now += tick;
        sink.clear();
        src_shard.on_tick_into(now, &mut sink);
        dst_shard.on_tick_into(now, &mut sink);
    }

    CrossActReport {
        local_fire: LatencyStats::from_samples(&mut local_ns),
        routed: LatencyStats::from_samples(&mut routed_ns),
    }
}

/// The typed message-plane measurement (PR 8): endpoint and
/// scheduler-side costs of `yasmin_sched::msg`, all in one process so
/// the ratios are host-independent.
#[derive(Debug, Clone)]
pub struct MsgReport {
    /// Normal-lane `send` → `recv` round trip, endpoints only.
    pub send_recv: LatencyStats,
    /// Full PIP cycle: `send_high` + `on_high_posted_into` (boost of
    /// the pending receiver job) + `recv_high` + `on_high_drained_into`
    /// (restore).
    pub boost_cycle: LatencyStats,
    /// `send_high` + notify hook + command-lane hop + the owning
    /// shard's `MsgHigh` round, receiver on the sender's home shard.
    pub local_send: LatencyStats,
    /// Same, plus the peer-lane hop to a foreign owner — the
    /// cross-shard routing path of the sharded runtime.
    pub routed_send: LatencyStats,
}

/// Runs the message-plane loops.
///
/// # Panics
///
/// Panics on engine/taskset/channel construction failure (parameter
/// bug).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_msg(iters: u32, warmup: u32) -> MsgReport {
    use std::sync::Mutex;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::Instant as SimInstant;
    use yasmin_core::version::VersionSpec;
    use yasmin_sched::msg::{ChannelBuilder, MsgEvent};

    // A notify hook that feeds a mailbox lane, as both runtimes wire it.
    let feed_hook = |mut lanes: Vec<MailboxSender<MsgEvent>>| {
        let feed = Mutex::new(lanes.pop().expect("one lane requested"));
        std::sync::Arc::new(move |ev: MsgEvent| {
            feed.lock()
                .expect("notify hook never panics")
                .send(ev)
                .expect("event lane sized for the loop");
        })
    };

    // Four tasks on a 2-worker partitioned set: each shard holds a
    // `runner` occupying its worker and a receiver parked in the queue,
    // so every high post finds a pending job to boost.
    let mut b = yasmin_core::graph::TaskSetBuilder::new();
    let mut decl = |name: &str, worker: u16| {
        let t = b
            .task_decl(TaskSpec::aperiodic(name).on_worker(WorkerId::new(worker)))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
            .unwrap();
        t
    };
    let runner0 = decl("runner0", 0);
    let dst_local = decl("dst_local", 0);
    let runner1 = decl("runner1", 1);
    let dst_routed = decl("dst_routed", 1);
    let ts = std::sync::Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .tick(Duration::from_millis(1_000))
        .max_pending_jobs(16)
        .build()
        .unwrap();
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut far = shards.pop().unwrap();
    let mut home = shards.pop().unwrap();
    let mut sink = ActionSink::with_capacity(64);
    home.start_into(SimInstant::ZERO, &mut sink).unwrap();
    far.start_into(SimInstant::ZERO, &mut sink).unwrap();
    for (shard, runner, dst) in [
        (&mut home, runner0, dst_local),
        (&mut far, runner1, dst_routed),
    ] {
        shard
            .activate_into(runner, SimInstant::ZERO, &mut sink)
            .unwrap();
        shard
            .activate_into(dst, SimInstant::ZERO, &mut sink)
            .unwrap();
    }

    // --- normal lane, endpoints only ----------------------------------
    let (plain_tx, plain_rx) = ChannelBuilder::standalone("plain", dst_local)
        .capacity(8)
        .build::<u64>()
        .expect("valid channel");
    let mut send_recv_ns = Samples::with_capacity(iters as usize);
    for i in 0..(warmup + iters) {
        let t0 = WallInstant::now();
        plain_tx.send(u64::from(i)).expect("lane has room");
        let got = plain_rx.recv().expect("value just sent");
        let dt = t0.elapsed();
        assert_eq!(got, u64::from(i));
        if i >= warmup {
            send_recv_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    // --- full boost cycle on the owning shard --------------------------
    let (hot_tx, hot_rx) = ChannelBuilder::standalone("hot", dst_local)
        .capacity(8)
        .high_lane(8, Priority::HIGHEST)
        .build::<u64>()
        .expect("valid channel");
    let (lanes, mut hot_events) = mailbox::<MsgEvent>(1, 16);
    assert!(hot_tx.notify_handle().set_notify(feed_hook(lanes)));
    let mut now = SimInstant::ZERO;
    let step = Duration::from_micros(1);
    let mut boost_ns = Samples::with_capacity(iters as usize);
    let pump = |events: &mut MailboxReceiver<MsgEvent>,
                shard: &mut EngineShard,
                at: SimInstant,
                sink: &mut ActionSink| {
        while let Some(ev) = events.try_recv() {
            sink.clear();
            match ev {
                MsgEvent::HighPosted { dst, ceiling } => shard
                    .process_into(ShardCmd::MsgHigh { dst, ceiling, at }, sink)
                    .expect("receiver is live"),
                MsgEvent::HighDrained { dst } => shard
                    .process_into(ShardCmd::MsgDrained { dst, at }, sink)
                    .expect("receiver is live"),
            }
        }
    };
    for i in 0..(warmup + iters) {
        now += step;
        let t0 = WallInstant::now();
        hot_tx.send_high(u64::from(i)).expect("lane has room");
        pump(&mut hot_events, &mut home, now, &mut sink);
        let got = hot_rx.recv_high().expect("value just sent");
        pump(&mut hot_events, &mut home, now, &mut sink);
        let dt = t0.elapsed();
        assert_eq!(got, u64::from(i));
        if i >= warmup {
            boost_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    assert!(home.stats().msg_boosts >= u64::from(iters));

    // --- local vs routed post --------------------------------------
    // Local: the sender's home shard owns the receiver, so the event
    // popped off the sender lane is applied directly. Routed: the
    // receiver lives on the far shard — the home shard forwards the
    // event over a peer lane first, exactly one extra hop.
    let (far_tx, far_rx) = ChannelBuilder::standalone("far", dst_routed)
        .capacity(8)
        .high_lane(8, Priority::HIGHEST)
        .build::<u64>()
        .expect("valid channel");
    let (lanes, mut far_events) = mailbox::<MsgEvent>(1, 16);
    assert!(far_tx.notify_handle().set_notify(feed_hook(lanes)));
    let (mut peer_lanes, mut peer_rx) = mailbox::<ShardCmd>(1, 16);
    let mut peer_tx = peer_lanes.pop().expect("one lane requested");

    let mut local_ns = Samples::with_capacity(iters as usize);
    let mut routed_ns = Samples::with_capacity(iters as usize);
    for i in 0..(warmup + iters) {
        now += step;
        // Timed local post: hook → sender lane → owner's MsgHigh round.
        let t0 = WallInstant::now();
        hot_tx.send_high(u64::from(i)).expect("lane has room");
        while let Some(ev) = hot_events.try_recv() {
            if let MsgEvent::HighPosted { dst, ceiling } = ev {
                sink.clear();
                home.process_into(
                    ShardCmd::MsgHigh {
                        dst,
                        ceiling,
                        at: now,
                    },
                    &mut sink,
                )
                .expect("home shard owns dst_local");
            }
        }
        let dt = t0.elapsed();
        if i >= warmup {
            local_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
        // Untimed: drain to rebalance the lane and release the boost.
        hot_rx.recv_high().expect("value just sent");
        pump(&mut hot_events, &mut home, now, &mut sink);

        // Timed routed post: one extra peer-lane hop to the far owner.
        let t0 = WallInstant::now();
        far_tx.send_high(u64::from(i)).expect("lane has room");
        while let Some(ev) = far_events.try_recv() {
            if let MsgEvent::HighPosted { dst, ceiling } = ev {
                peer_tx
                    .send(ShardCmd::MsgHigh {
                        dst,
                        ceiling,
                        at: now,
                    })
                    .expect("peer lane sized for the loop");
            }
        }
        while let Some(cmd) = peer_rx.try_recv() {
            sink.clear();
            far.process_into(cmd, &mut sink)
                .expect("far shard owns dst_routed");
        }
        let dt = t0.elapsed();
        if i >= warmup {
            routed_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
        far_rx.recv_high().expect("value just sent");
        pump(&mut far_events, &mut far, now, &mut sink);
    }
    assert!(far.stats().msg_boosts >= u64::from(iters));

    MsgReport {
        send_recv: LatencyStats::from_samples(&mut send_recv_ns),
        boost_cycle: LatencyStats::from_samples(&mut boost_ns),
        local_send: LatencyStats::from_samples(&mut local_ns),
        routed_send: LatencyStats::from_samples(&mut routed_ns),
    }
}

/// The enforcement-overhead measurement (PR 9): the steady-state
/// tick/complete loop of [`run`] with WCET-overrun enforcement and the
/// deadline-miss trip wire **off** against the identical loop with both
/// **armed** (`Config::enforce_wcet` + `Config::miss_trip`). The armed
/// side pays the per-tick overrun scan over busy workers and the
/// miss-window bookkeeping on every late retirement; the gate bounds
/// `tick_on` within +15% of `tick_off` (same host, same process).
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Parameters the loops ran with.
    pub params: HotpathParams,
    /// `on_tick` with enforcement off (the [`run`] baseline loop).
    pub tick_off: LatencyStats,
    /// `on_tick` with `enforce_wcet` + `miss_trip` armed.
    pub tick_on: LatencyStats,
    /// `on_job_completed` with enforcement off.
    pub completion_off: LatencyStats,
    /// `on_job_completed` with enforcement armed.
    pub completion_on: LatencyStats,
    /// Overruns the armed loop detected (zero when every completion
    /// lands inside its WCET window; the scan runs either way).
    pub overruns: u64,
}

fn fault_engine(p: &HotpathParams, enforced: bool) -> OnlineEngine {
    let ts = build_independent(&IndependentSetParams {
        n: p.tasks,
        total_utilisation: p.total_utilisation,
        seed: p.seed,
        ..IndependentSetParams::default()
    })
    .expect("valid taskset");
    let mut b = Config::builder()
        .workers(p.workers)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192);
    if enforced {
        // A budget the loop never exhausts: the window bookkeeping runs
        // on every miss, but the trip wire stays untripped so the two
        // loops dispatch identically and the comparison isolates the
        // detection cost.
        b = b
            .enforce_wcet(true)
            .miss_trip(Duration::from_millis(100), u32::MAX);
    }
    OnlineEngine::new(Arc::new(ts), b.build().expect("valid config")).expect("valid engine")
}

/// Runs the enforcement-overhead loops (off, then armed).
///
/// # Panics
///
/// Panics on engine/taskset construction failure (parameter bug).
#[must_use]
pub fn run_faults(p: &HotpathParams) -> FaultReport {
    let measure = |enforced: bool| -> (LatencyStats, LatencyStats, u64) {
        let mut engine = fault_engine(p, enforced);
        let mut running: Vec<Option<JobId>> = vec![None; p.workers];
        let mut sink = ActionSink::with_capacity(256);
        engine
            .start_into(Instant::ZERO, &mut sink)
            .expect("fresh engine starts");
        track_actions(&mut running, sink.as_slice());
        let tick = engine.tick_period();
        let mut now = Instant::ZERO;
        let mut tick_ns = Samples::with_capacity(p.iters as usize);
        let mut completion_ns = Samples::with_capacity(p.iters as usize);
        for i in 0..(p.warmup + p.iters) {
            let measuring = i >= p.warmup;
            let mid = now + tick.scale(1, 2);
            for w in 0..p.workers {
                if let Some(job) = running[w].take() {
                    let worker = WorkerId::new(w as u16);
                    sink.clear();
                    let t0 = WallInstant::now();
                    engine
                        .on_job_completed_into(worker, job, mid, &mut sink)
                        .expect("completion protocol upheld");
                    let dt = t0.elapsed();
                    if measuring {
                        completion_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
                    }
                    track_actions(&mut running, sink.as_slice());
                }
            }
            now += tick;
            sink.clear();
            let t0 = WallInstant::now();
            engine.on_tick_into(now, &mut sink);
            let dt = t0.elapsed();
            if measuring {
                tick_ns.record(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
            }
            track_actions(&mut running, sink.as_slice());
        }
        (
            LatencyStats::from_samples(&mut tick_ns),
            LatencyStats::from_samples(&mut completion_ns),
            engine.stats().overruns,
        )
    };
    let (tick_off, completion_off, _) = measure(false);
    let (tick_on, completion_on, overruns) = measure(true);
    FaultReport {
        params: *p,
        tick_off,
        tick_on,
        completion_off,
        completion_on,
        overruns,
    }
}

/// Renders `results/BENCH_PR10.json` — one file carrying every section
/// the CI perf gate reads, all measured in one process on one host:
/// `after` (the direct dispatch path), `mailbox_feed`, `remove_heavy`,
/// `burst`, `steal`, `cross_activation`, the message-plane (`msg`) and
/// enforcement (`fault`) sections, `steal_batch` (k hand-offs of one
/// job vs one batched exchange), `queue_scan` (SoA key sift vs the
/// frozen inline-payload layout) and `handoff` (real-thread drain of an
/// imbalanced burst, recorded but not gated).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn render_json(
    direct: &HotpathReport,
    sharded: &HotpathReport,
    remove_heavy: &RemoveHeavyReport,
    burst: &BurstReport,
    steal: &StealReport,
    crossact: &CrossActReport,
    msg: &MsgReport,
    faults: &FaultReport,
    steal_batch: &StealBatchReport,
    queue_scan: &QueueScanReport,
    handoff: &HandoffReport,
) -> String {
    let mut out = String::from("{\n  \"bench\": \"hotpath\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"tasks\": {}, \"workers\": {}, \"total_utilisation\": {}, \"seed\": {}, \"iters\": {}}},\n",
        direct.params.tasks,
        direct.params.workers,
        direct.params.total_utilisation,
        direct.params.seed,
        direct.params.iters
    ));
    out.push_str(
        "  \"note\": \"'after' is the direct dispatch path on this host (best of three \
         runs by p50 sum); every other section is a same-host, same-process ratio. \
         'steal' times the hand-off of one job as a batch of one; 'steal_batch' \
         compares k=8 exchanges of one job (request hop + probe + detach + grant hop \
         + adoption, per job) against one batched exchange moving the same 8 jobs; \
         'queue_scan' compares a pop+push sift cycle at n=8192 on the \
         struct-of-arrays ReadyQueue against the frozen inline-payload PR 4 layout; \
         'handoff' drains a short-job burst on real sharded Runtime threads with \
         stealing off vs on (recorded, not gated)\",\n",
    );
    out.push_str(&format!(
        "  \"after\": {{\"on_tick\": {}, \"on_job_completed\": {}}},\n",
        direct.tick.json(),
        direct.completion.json()
    ));
    out.push_str(&format!(
        "  \"mailbox_feed\": {{\"on_tick\": {}, \"on_job_completed\": {}, \"dispatches\": {}}},\n",
        sharded.tick.json(),
        sharded.completion.json(),
        sharded.dispatches
    ));
    out.push_str(&format!(
        "  \"remove_heavy\": {{\"pop\": {}, \"remove_then_pop\": {}, \"n\": {}}},\n",
        remove_heavy.pop.json(),
        remove_heavy.remove_then_pop.json(),
        remove_heavy.n
    ));
    out.push_str(&format!(
        "  \"burst\": {{\"sequential\": {}, \"batched\": {}, \"workers\": {}}},\n",
        burst.sequential.json(),
        burst.batched.json(),
        burst.workers
    ));
    out.push_str(&format!(
        "  \"steal\": {{\"local_pop\": {}, \"steal_cycle\": {}, \"n\": {}}},\n",
        steal.local_pop.json(),
        steal.steal_cycle.json(),
        steal.n
    ));
    out.push_str(&format!(
        "  \"cross_activation\": {{\"local_fire\": {}, \"routed\": {}}},\n",
        crossact.local_fire.json(),
        crossact.routed.json()
    ));
    out.push_str(&format!(
        "  \"msg\": {{\"send_recv\": {}, \"boost_cycle\": {}, \"local_send\": {}, \
         \"routed_send\": {}}},\n",
        msg.send_recv.json(),
        msg.boost_cycle.json(),
        msg.local_send.json(),
        msg.routed_send.json()
    ));
    out.push_str(&format!(
        "  \"fault\": {{\"tick_off\": {}, \"tick_on\": {}, \"completion_off\": {}, \
         \"completion_on\": {}}},\n",
        faults.tick_off.json(),
        faults.tick_on.json(),
        faults.completion_off.json(),
        faults.completion_on.json()
    ));
    out.push_str(&format!(
        "  \"steal_batch\": {{\"single\": {}, \"batch\": {}, \"n\": {}, \"k\": {}}},\n",
        steal_batch.single.json(),
        steal_batch.batch.json(),
        steal_batch.n,
        steal_batch.k
    ));
    out.push_str(&format!(
        "  \"queue_scan\": {{\"soa\": {}, \"inline_ref\": {}, \"n\": {}}},\n",
        queue_scan.soa.json(),
        queue_scan.inline_ref.json(),
        queue_scan.n
    ));
    out.push_str(&format!(
        "  \"handoff\": {{\"jobs\": {}, \"spin_us\": {}, \"local_wall_ns\": {}, \
         \"steal_wall_ns\": {}, \"stolen\": {}, \"stolen_batch\": {}}},\n",
        handoff.jobs,
        handoff.spin_us,
        handoff.local_wall_ns,
        handoff.steal_wall_ns,
        handoff.stolen,
        handoff.stolen_batch
    ));
    out.push_str(&format!("  \"dispatches\": {}\n}}\n", direct.dispatches));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_loop_runs_and_reports() {
        let p = HotpathParams {
            tasks: 8,
            iters: 50,
            warmup: 10,
            ..HotpathParams::default()
        };
        let r = run(&p);
        assert_eq!(r.tick.count, 50);
        assert!(r.completion.count > 0);
        assert!(r.dispatches > 0);
    }

    #[test]
    fn sharded_mailbox_loop_runs_and_reports() {
        let p = HotpathParams {
            tasks: 8,
            iters: 50,
            warmup: 10,
            ..HotpathParams::default()
        };
        let sharded = run_sharded(&p);
        // One tick command per shard per iteration.
        assert_eq!(sharded.tick.count, 50 * p.workers);
        assert!(sharded.completion.count > 0);
        assert!(sharded.dispatches > 0);
    }

    #[test]
    fn remove_heavy_loop_runs_and_reports() {
        let r = run_remove_heavy(64, 200, 50);
        assert_eq!(r.n, 64);
        assert_eq!(r.pop.count, 200);
        assert_eq!(r.remove_then_pop.count, 200);
        assert!(r.pop.p50_ns > 0 || r.pop.max_ns > 0);
    }

    #[test]
    fn burst_loop_runs_and_reports() {
        let p = HotpathParams {
            tasks: 16,
            iters: 50,
            warmup: 10,
            ..HotpathParams::default()
        };
        let r = run_burst(&p, 4);
        assert_eq!(r.workers, 4);
        assert_eq!(r.batched.count, 50);
        assert_eq!(r.sequential.count, 50);
    }

    #[test]
    fn steal_loop_runs_and_reports() {
        let r = run_steal(16, 50, 10);
        assert_eq!(r.n, 15);
        assert_eq!(r.local_pop.count, 50);
        assert_eq!(r.steal_cycle.count, 50);
    }

    #[test]
    fn cross_activation_loop_runs_and_reports() {
        let r = run_cross_activation(50, 10);
        assert_eq!(r.local_fire.count, 50);
        assert_eq!(r.routed.count, 50);
    }

    #[test]
    fn fault_loop_runs_and_reports() {
        let p = HotpathParams {
            tasks: 8,
            iters: 50,
            warmup: 10,
            ..HotpathParams::default()
        };
        let r = run_faults(&p);
        assert_eq!(r.tick_off.count, 50);
        assert_eq!(r.tick_on.count, 50);
        assert!(r.completion_on.count > 0);
    }

    #[test]
    fn steal_batch_loop_runs_and_reports() {
        let r = run_steal_batch(16, 4, 30, 5);
        assert_eq!(r.n, 15);
        assert_eq!(r.k, 4);
        assert_eq!(r.single.count, 30);
        assert_eq!(r.batch.count, 30);
    }

    #[test]
    fn queue_scan_loop_runs_and_reports() {
        let r = run_queue_scan(256, 100, 20);
        assert_eq!(r.n, 256);
        assert_eq!(r.soa.count, 100);
        assert_eq!(r.inline_ref.count, 100);
    }

    #[test]
    fn inline_ref_heap_orders_like_the_live_queue() {
        // The frozen comparator must implement the same ordering
        // contract, or the scan bench compares different work.
        let mut soa = ReadyQueue::with_capacity(64);
        let mut aos = inline_ref::InlineQueue::with_capacity(64);
        let mut state = 0xDEAD_BEEFu64;
        for id in 0..64u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = queue_job(id, state >> 40);
            soa.push(j).unwrap();
            aos.push(j);
        }
        for _ in 0..64 {
            assert_eq!(soa.pop(), aos.pop());
        }
        assert!(aos.pop().is_none());
    }

    #[test]
    fn handoff_burst_drains_on_real_threads() {
        // 6 × 50 µs is over in 300 µs: whether the thief is awake in time
        // to have a request granted at one of the victim's five job
        // boundaries is the host's call, so migration is asserted on the
        // longer burst below.
        let r = run_handoff(6, 50, 1);
        assert_eq!(r.jobs, 6);
        assert!(r.local_wall_ns > 0);
        assert!(r.steal_wall_ns > 0);
        assert!(r.stolen_batch <= r.stolen, "a grant carries a job ({r:?})");
        assert_eq!(r.stolen == 0, r.stolen_batch == 0);
    }

    #[test]
    fn handoff_burst_outlasting_the_thief_is_shared() {
        // 6 × 1 ms outlasts the thief's two wake-ups (by the load, then
        // by the grant) on cores the parallel test runner keeps busy.
        let r = run_handoff(6, 1000, 1);
        assert_eq!(r.jobs, 6);
        assert!(r.stolen >= 1, "the idle shard must steal ({r:?})");
        assert!(r.stolen_batch >= 1);
    }

    #[test]
    fn json_has_every_section() {
        let p = HotpathParams {
            tasks: 8,
            iters: 20,
            warmup: 5,
            ..HotpathParams::default()
        };
        let direct = run(&p);
        let sharded = run_sharded(&p);
        let rh = run_remove_heavy(32, 50, 10);
        let burst = run_burst(&p, 2);
        let steal = run_steal(16, 20, 5);
        let crossact = run_cross_activation(20, 5);
        let msg = run_msg(20, 5);
        let faults = run_faults(&p);
        let sb = run_steal_batch(16, 4, 20, 5);
        let qs = run_queue_scan(128, 50, 10);
        let handoff = HandoffReport {
            jobs: 6,
            spin_us: 50,
            local_wall_ns: 1,
            steal_wall_ns: 1,
            stolen: 1,
            stolen_batch: 1,
        };
        let json = render_json(
            &direct, &sharded, &rh, &burst, &steal, &crossact, &msg, &faults, &sb, &qs, &handoff,
        );
        for section in [
            "\"after\"",
            "\"mailbox_feed\"",
            "\"remove_heavy\"",
            "\"burst\"",
            "\"steal\"",
            "\"cross_activation\"",
            "\"msg\"",
            "\"fault\"",
            "\"steal_batch\"",
            "\"queue_scan\"",
            "\"handoff\"",
        ] {
            assert!(json.contains(section), "missing {section}: {json}");
        }
        assert!(crate::compare::extract_p50(&json, "steal_batch", "single").is_some());
        assert!(crate::compare::extract_p50(&json, "steal_batch", "batch").is_some());
        assert!(crate::compare::extract_p50(&json, "queue_scan", "soa").is_some());
        assert!(crate::compare::extract_p50(&json, "queue_scan", "inline_ref").is_some());
        assert!(crate::compare::extract_p50(&json, "fault", "tick_on").is_some());
        assert!(crate::compare::extract_p50(&json, "msg", "routed_send").is_some());
        assert!(crate::compare::extract_p50(&json, "steal", "steal_cycle").is_some());
        assert!(crate::compare::extract_p50(&json, "cross_activation", "routed").is_some());
        assert!(crate::compare::gate_ratio(
            &json,
            ("fault", "tick_on"),
            ("fault", "tick_off"),
            10_000
        )
        .is_ok());
    }
}
