//! Proves the dispatch hot path is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up phase (rank caches fill, scratch buffers and the action sink
//! grow to their high-water marks) each scenario drives 10 000 further
//! steady-state scheduler interactions and asserts the allocation
//! counter did not move at all. Fifteen scenarios cover the paths the
//! ROADMAP names, a sixteenth the caller's side of an admission, a
//! seventeenth the trip wire's level and an eighteenth work-first
//! continuation:
//!
//! 1. **independent / global** — the EDF tick/complete loop of PR 2;
//! 2. **DAG firing** — fork → (left, right) → join released through the
//!    engine's token machinery on every cycle;
//! 3. **partitioned / sharded** — per-worker [`EngineShard`]s fed
//!    through the lock-free command mailbox, i.e. the full sharded
//!    dispatch path of PR 3 including the mailbox push and drain;
//! 4. **accelerator contention / PIP** — a GPU-only urgent task blocks
//!    on the held accelerator every cycle, boosting the holder (the
//!    Boost action, wish scratch and blocked-job re-queue paths);
//! 5. **burst completion** — every worker's completion retired through
//!    one `Input::Completed` batch per cycle (PR 4), including
//!    the caller-side reusable batch buffer;
//! 6. **mode switching** — the execution mode flips every cycle, so
//!    each dispatch re-ranks versions through the invalidated rank
//!    cache (PR 5: the cache-refresh path itself must run on the
//!    pre-grown per-task entries and the in-place rank scratch);
//! 7. **steady-state stealing** — every cycle an idle thief shard
//!    takes one job — a batch of one — through the full migration of
//!    scenario 13 and retires it, its end goes home, and the victim
//!    refills;
//! 8. **multi-tenant serving** — a budgeted tenant admitted on-line
//!    (evaluate → splice → commit) before the measured window; the
//!    post-admission steady loop, including the per-dispatch budget
//!    charge against the tenant's reservation server, must not touch
//!    the allocator (admission itself is a control-path event and *may*
//!    allocate — the guarantee is about the state it leaves behind);
//! 9. **message plane** — every cycle sends one normal and one
//!    high-priority message over a ceiling-bearing channel, routes the
//!    resulting `MsgEvent`s through the notify hook into the lock-free
//!    mailbox (the runtimes' wiring), boosts the receiver's pending job
//!    via the PIP machinery, drains, restores and retires — the
//!    send/recv/boost loop of the typed message plane;
//! 10. **cross-shard outbox** — a completion fires a successor on a
//!     foreign shard every cycle: outbox fire, drain, route and
//!     destination release all on pre-grown storage (PR 9);
//! 11. **enforcement on** — `enforce_wcet` + `miss_trip` armed, one
//!     forced overrun with a background demotion per cycle (PR 9);
//! 12. **battery Energy refresh** — the battery probe's reading drifts
//!     every cycle under `VersionPolicy::Energy`, so every dispatch
//!     round re-ranks through a freshly invalidated rank cache keyed by
//!     the new battery context (the last zero-alloc gap the ROADMAP
//!     names);
//! 13. **steady-state batch stealing** — every cycle the thief shard
//!     runs the full batched migration, k = 4 (ordered `Input::Lend`
//!     scan, `Input::Lend` detach into a [`JobBatch`] grown
//!     in the warm-up, `Input::Adopt` dispatch round), retires
//!     all k stolen jobs and routes their ends home, while the victim
//!     refills;
//! 14. **deadline culling** — `cull_missed` on an overloaded worker:
//!     every tick culls the jobs past their deadline and reports each
//!     as an `Action::Cull`;
//! 15. **tenant churn** — four live tenants of one shape: every cycle
//!     one is installed in the slot the last retirement freed,
//!     committed and run, and the oldest is retired — installing in
//!     place overwrites the slot's tables in their own storage;
//! 16. **admission into a spare** — the same churn through a
//!     [`TenantLedger`], each tenant written into the set its engines
//!     let go of: a cycle makes as many allocations beside 12 base tasks
//!     as beside 192 (22 and 202 merged tasks), so it costs the tenant,
//!     not the merged set;
//! 17. **trip and untrip** — every cycle a late completion trips the
//!     miss wire while `LogOnly` jobs wait and run, and the next tick's
//!     roll untrips it, each flip re-keying them; a job that overran is
//!     preempted meanwhile and resumes with its mark;
//! 18. **kept instance** — every cycle a shard inside a body offers its
//!     successor's next instance through a door, the peer that
//!     completes the predecessor keeps it instead of routing the token,
//!     the home books it when the door closes, and the instance's end,
//!     once retired, goes home.
//!
//! Runs without the libtest harness (`harness = false` in Cargo.toml)
//! so no other thread can touch the allocator during the measured
//! windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::graph::TaskSetBuilder;
use yasmin_core::ids::{JobId, TaskId, TenantId, WorkerId};
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::VersionSpec;
use yasmin_sched::{
    Action, ActionSink, EngineShard, HomeNote, Input, JobBatch, OnlineEngine, RemoteActivation,
};
use yasmin_sync::mailbox::{mailbox, MailboxReceiver, MailboxSender};
use yasmin_taskgen::taskset::{build_independent, build_partitioned, IndependentSetParams};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WARMUP: u32 = 1_000;
const STEADY: u32 = 10_000;

/// Replays the engine's actions onto a per-worker `running` model, so
/// a scenario knows which job to complete next.
fn track(running: &mut [Option<JobId>], actions: &[Action]) {
    for a in actions {
        match *a {
            Action::Dispatch { worker, job, .. } => running[worker.index()] = Some(job.id),
            Action::Preempt { worker, .. } => running[worker.index()] = None,
            Action::Boost { .. } | Action::Cull { .. } => {}
            Action::Lend { .. } | Action::Offer(_) => {}
        }
    }
}

/// Commits `tenant` at `now` and ticks there, as an exact driver does.
fn commit(
    engine: &mut OnlineEngine,
    tenant: TenantId,
    now: Instant,
    sink: &mut ActionSink,
) -> yasmin_core::error::Result<()> {
    let (anchor, since) = (now, now);
    engine.apply(
        now,
        &Input::Commit {
            tenant,
            anchor,
            since,
        },
        sink,
    )?;
    engine.apply(now, &Input::Tick { done: &[] }, sink)
}

/// Runs `iter` WARMUP times unmeasured, then STEADY times measured, and
/// asserts zero allocations across the measured window.
fn assert_zero_alloc(name: &str, mut iter: impl FnMut()) {
    for _ in 0..WARMUP {
        iter();
    }
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    for _ in 0..STEADY {
        iter();
    }
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "{name}: dispatch hot path allocated {delta} times across {STEADY} \
         steady-state iterations"
    );
    println!("zero_alloc[{name}]: OK — 0 allocations across {STEADY} steady-state iterations");
}

/// Scenario 1: EDF over independent tasks, global mapping (the PR 2
/// coverage).
fn independent_global() {
    const WORKERS: usize = 2;
    let ts = build_independent(&IndependentSetParams {
        n: 64,
        total_utilisation: 1.5,
        seed: 42,
        ..IndependentSetParams::default()
    })
    .expect("valid taskset");
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(Arc::new(ts), config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(256);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;

    assert_zero_alloc("independent-global", || {
        let mid = now + tick.scale(1, 2);
        for w in 0..WORKERS {
            if let Some(job) = running[w].take() {
                sink.clear();
                engine
                    .apply(
                        mid,
                        &Input::Completed(&[(WorkerId::new(w as u16), job)]),
                        &mut sink,
                    )
                    .expect("completion protocol upheld");
                track(&mut running, sink.as_slice());
            }
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
    });
    assert!(
        engine.stats().dispatched > u64::from(WARMUP),
        "loop must actually dispatch (got {})",
        engine.stats().dispatched
    );
}

/// Scenario 2: a fork → (left, right) → join DAG fired every period —
/// token pushes, join release and successor dispatch must all run on
/// pre-grown storage.
fn dag_firing() {
    const WORKERS: usize = 2;
    let mut b = TaskSetBuilder::new();
    let fork = b
        .task_decl(TaskSpec::periodic("fork", Duration::from_millis(10)))
        .unwrap();
    let left = b.task_decl(TaskSpec::graph_node("left")).unwrap();
    let right = b.task_decl(TaskSpec::graph_node("right")).unwrap();
    let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
    for t in [fork, left, right, join] {
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
            .unwrap();
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
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(256)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(ts, config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(64);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let step = tick.scale(1, 16);
    let mut now = Instant::ZERO;

    assert_zero_alloc("dag-firing", || {
        // Drain the whole graph instance: every completion may fire
        // successors, which dispatch immediately.
        let mut sub = now + step;
        loop {
            let mut any = false;
            for w in 0..WORKERS {
                if let Some(job) = running[w].take() {
                    sink.clear();
                    engine
                        .apply(
                            sub,
                            &Input::Completed(&[(WorkerId::new(w as u16), job)]),
                            &mut sink,
                        )
                        .expect("completion protocol upheld");
                    track(&mut running, sink.as_slice());
                    any = true;
                }
            }
            if !any {
                break;
            }
            sub += step;
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
    });
    // 4 jobs per period: the DAG must really have fired.
    assert!(
        engine.stats().completed > u64::from(4 * WARMUP),
        "DAG loop must complete all nodes (got {})",
        engine.stats().completed
    );
}

/// What scenario 3's mailbox carries: the two engine calls of its loop,
/// by value.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Completed { job: JobId, at: Instant },
    Tick { at: Instant },
}

type Feed = (Vec<MailboxSender<Cmd>>, MailboxReceiver<Cmd>);

/// Scenario 3: partitioned mapping with one [`EngineShard`] per worker,
/// every interaction fed as a message through the lock-free mailbox —
/// the sharded dispatch path must be allocation-free *including* the
/// mailbox push and drain.
fn partitioned_sharded_mailbox() {
    const WORKERS: usize = 2;
    let ts = Arc::new(
        build_partitioned(
            &IndependentSetParams {
                n: 64,
                total_utilisation: 1.5,
                seed: 42,
                ..IndependentSetParams::default()
            },
            WORKERS,
        )
        .expect("valid taskset"),
    );
    let config = Config::builder()
        .workers(WORKERS)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut feeds: Vec<Feed> = (0..WORKERS).map(|_| mailbox::<Cmd>(1, 64)).collect();
    let mut sink = ActionSink::with_capacity(256);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];

    for shard in &mut shards {
        shard
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .expect("fresh shard starts");
    }
    track(&mut running, sink.as_slice());
    let tick = shards[0].tick_period();
    let mut now = Instant::ZERO;

    let feed = |shard: &mut EngineShard, feed: &mut Feed, cmd: Cmd, sink: &mut ActionSink| {
        let (txs, rx) = feed;
        txs[0].send(cmd).expect("lane sized for the loop");
        sink.clear();
        let worker = shard.worker();
        while let Some(cmd) = rx.try_recv() {
            match cmd {
                Cmd::Completed { job, at } => shard
                    .apply(at, &Input::Completed(&[(worker, job)]), sink)
                    .expect("driver protocol upheld"),
                Cmd::Tick { at } => shard.apply(at, &Input::Tick { done: &[] }, sink).unwrap(),
            }
        }
    };

    assert_zero_alloc("partitioned-sharded-mailbox", || {
        let mid = now + tick.scale(1, 2);
        for (w, shard) in shards.iter_mut().enumerate() {
            if let Some(job) = running[w].take() {
                let cmd = Cmd::Completed { job, at: mid };
                feed(shard, &mut feeds[w], cmd, &mut sink);
                track(&mut running, sink.as_slice());
            }
        }
        now += tick;
        for (w, shard) in shards.iter_mut().enumerate() {
            feed(shard, &mut feeds[w], Cmd::Tick { at: now }, &mut sink);
            track(&mut running, sink.as_slice());
        }
    });
    let dispatched: u64 = shards.iter().map(|s| s.stats().dispatched).sum();
    assert!(
        dispatched > u64::from(WARMUP),
        "sharded loop must actually dispatch (got {dispatched})"
    );
}

/// Scenario 4: accelerator contention with PIP boosts. A GPU holder
/// with a lax deadline and a GPU-only urgent task releasing mid-period
/// onto an idle second worker: every cycle the urgent job pops, finds
/// the accelerator busy, stays ready, and boosts the holder — Boost
/// actions, the accelerator wish scratch and the blocked-job re-queue
/// must all run on pre-grown storage.
fn accel_contention_pip() {
    let p = Duration::from_millis(40);
    let mut b = TaskSetBuilder::new();
    let gpu = b.hwaccel_decl("gpu");
    let hold = b.task_decl(TaskSpec::periodic("hold", p)).unwrap();
    let urgent = b
        .task_decl(
            TaskSpec::periodic("urgent", p)
                .with_release_offset(p.scale(1, 4))
                .with_constrained_deadline(p.scale(1, 4)),
        )
        .unwrap();
    b.version_decl(hold, VersionSpec::new("gpu", p.scale(1, 8)).with_accel(gpu))
        .unwrap();
    b.version_decl(
        urgent,
        VersionSpec::new("gpu", p.scale(1, 8)).with_accel(gpu),
    )
    .unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(64)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(ts, config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(64);
    let w0 = WorkerId::new(0);

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    let mut now = Instant::ZERO;

    assert_zero_alloc("accel-contention-pip", || {
        // Urgent releases while the holder owns the GPU: blocked + boost.
        sink.clear();
        engine
            .apply(now + p.scale(1, 4), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        // Holder completes: urgent takes the GPU...
        let holder = engine.running(w0).expect("holder runs").job.id;
        sink.clear();
        engine
            .apply(
                now + p.scale(1, 2),
                &Input::Completed(&[(w0, holder)]),
                &mut sink,
            )
            .expect("completion protocol upheld");
        // ...and completes before the next period's holder release.
        let u = engine.running(w0).expect("urgent runs").job.id;
        sink.clear();
        engine
            .apply(
                now + p.scale(3, 4),
                &Input::Completed(&[(w0, u)]),
                &mut sink,
            )
            .expect("completion protocol upheld");
        now += p;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
    });
    assert!(
        engine.stats().pip_boosts > u64::from(WARMUP),
        "every cycle must boost the holder (got {})",
        engine.stats().pip_boosts
    );
    assert!(
        engine.stats().blocked_skips > u64::from(WARMUP),
        "urgent must block on the busy accelerator (got {})",
        engine.stats().blocked_skips
    );
}

/// Scenario 5: bursty completions through the batch API — all workers'
/// completions of a cycle retired by ONE `Input::Completed` call
/// (a single dispatch round per burst), with the caller-side batch
/// buffer reused across cycles.
fn burst_batch_completion() {
    const WORKERS: usize = 4;
    let ts = build_independent(&IndependentSetParams {
        n: 64,
        total_utilisation: 3.0,
        seed: 42,
        ..IndependentSetParams::default()
    })
    .expect("valid taskset");
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(Arc::new(ts), config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(256);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];
    let mut batch: Vec<(WorkerId, JobId)> = Vec::with_capacity(WORKERS);

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;

    assert_zero_alloc("burst-batch-completion", || {
        let mid = now + tick.scale(1, 2);
        batch.clear();
        for (w, slot) in running.iter_mut().enumerate() {
            if let Some(job) = slot.take() {
                batch.push((WorkerId::new(w as u16), job));
            }
        }
        sink.clear();
        engine
            .apply(mid, &Input::Completed(&batch), &mut sink)
            .expect("completion protocol upheld");
        track(&mut running, sink.as_slice());
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
    });
    assert!(
        engine.stats().completed > u64::from(WARMUP),
        "burst loop must retire batches (got {})",
        engine.stats().completed
    );
}

/// Scenario 6: a mode switch every cycle invalidates the whole rank
/// cache, so every dispatch re-ranks its task's versions under the new
/// selection context — the refresh must fill the pre-grown cache
/// entries through the in-place rank scratch without touching the
/// allocator.
fn mode_switch_rank_refresh() {
    use yasmin_core::config::VersionPolicy;
    use yasmin_core::version::{ExecMode, ModeMask};
    const WORKERS: usize = 2;
    let alt = ExecMode::new(1);
    let mut b = TaskSetBuilder::new();
    for i in 0..32 {
        let t = b
            .task_decl(TaskSpec::periodic(
                format!("t{i}"),
                Duration::from_millis(10),
            ))
            .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("norm", Duration::from_millis(1))
                .with_modes(ModeMask::only(ExecMode::NORMAL)),
        )
        .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("alt", Duration::from_millis(2)).with_modes(ModeMask::only(alt)),
        )
        .unwrap();
    }
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .version_policy(VersionPolicy::Mode)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(ts, config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(128);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;
    let mut flip = false;

    assert_zero_alloc("mode-switch-rank-refresh", || {
        flip = !flip;
        let mode = Input::Mode(if flip { alt } else { ExecMode::NORMAL });
        engine.apply(now, &mode, &mut sink).unwrap();
        let mid = now + tick.scale(1, 2);
        for w in 0..WORKERS {
            if let Some(job) = running[w].take() {
                sink.clear();
                engine
                    .apply(
                        mid,
                        &Input::Completed(&[(WorkerId::new(w as u16), job)]),
                        &mut sink,
                    )
                    .expect("completion protocol upheld");
                track(&mut running, sink.as_slice());
            }
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
    });
    assert!(
        engine.stats().dispatched > u64::from(WARMUP),
        "mode-switch loop must dispatch (got {})",
        engine.stats().dispatched
    );
}

/// Scenario 7: the full work-stealing migration every cycle, one job
/// at a time — a batch of one: probe, detach, adopt, dispatch on the
/// thief, completion hand-back — plus the victim's refill, all on
/// pre-grown storage.
fn steady_state_stealing() {
    steal_every_cycle("steady-state-stealing", 1);
}

/// Scenario 8: multi-tenant steady state. A budgeted tenant is admitted
/// on-line — evaluated, spliced and committed — before the measured
/// window; afterwards the engine serves two tenants, and every dispatch
/// of the admitted one charges its reservation server. Splicing is
/// allowed to allocate (control path); the steady state it leaves
/// behind is not.
fn admitted_tenant_steady_state() {
    use yasmin_sched::admission::AdmissionControl;
    use yasmin_sched::server::TenantBudget;
    const WORKERS: usize = 2;
    let p = Duration::from_millis(10);
    let build_set = |prefix: &str, n: usize| {
        let mut b = TaskSetBuilder::new();
        for i in 0..n {
            let t = b
                .task_decl(TaskSpec::periodic(format!("{prefix}{i}"), p))
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
                .unwrap();
        }
        b.build().unwrap()
    };
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut engine =
        OnlineEngine::new(Arc::new(build_set("base", 8)), config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(256);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());

    // On-line admission of a second, budgeted tenant: 4 tasks of
    // utilisation 0.1 under a half-capacity deferrable budget.
    let tenant_set = build_set("tenant", 4);
    let budget = TenantBudget::deferrable(Duration::from_millis(5), p);
    let admission = AdmissionControl::for_engine(&engine);
    let merged = admission
        .evaluate(engine.taskset(), &tenant_set, Some(&budget))
        .expect("tenant is admissible");
    let tenant = TenantId::new(engine.tenant_count() as u32);
    let install = Input::Install {
        merged: &merged,
        tenant,
        first_task: engine.taskset().len() as u32,
        budget: Some(budget),
    };
    engine
        .apply(Instant::ZERO, &install, &mut sink)
        .expect("valid splice");
    sink.clear();
    commit(&mut engine, tenant, Instant::ZERO, &mut sink).expect("tenant commits");
    track(&mut running, sink.as_slice());

    let tick = engine.tick_period();
    let mut now = Instant::ZERO;

    assert_zero_alloc("admitted-tenant-steady-state", || {
        let mid = now + tick.scale(1, 2);
        for w in 0..WORKERS {
            if let Some(job) = running[w].take() {
                sink.clear();
                engine
                    .apply(
                        mid,
                        &Input::Completed(&[(WorkerId::new(w as u16), job)]),
                        &mut sink,
                    )
                    .expect("completion protocol upheld");
                track(&mut running, sink.as_slice());
            }
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
    });
    assert!(
        engine.stats().dispatched > u64::from(WARMUP),
        "multi-tenant loop must dispatch (got {})",
        engine.stats().dispatched
    );
    let charged = engine
        .tenant_server(tenant)
        .expect("tenant is budgeted")
        .total_charged();
    assert!(
        !charged.is_zero(),
        "the admitted tenant's dispatches must charge its reservation server"
    );
}

/// Pumps queued [`MsgEvent`]s from the notify mailbox into the engine's
/// message entry point — the role the scheduler thread plays in the
/// real runtimes.
fn pump_msg_events(
    events: &mut MailboxReceiver<yasmin_sched::msg::MsgEvent>,
    engine: &mut OnlineEngine,
    now: Instant,
    sink: &mut ActionSink,
    running: &mut [Option<JobId>],
) {
    while let Some(ev) = events.try_recv() {
        sink.clear();
        engine
            .apply(now, &Input::Msg(ev), sink)
            .expect("receiver is live");
        track(running, sink.as_slice());
    }
}

/// Scenario 9: the typed message plane in steady state. One worker runs
/// `runner` while `dst` waits in the queue, so every high-lane post
/// finds a pending job to boost; each cycle does the full
/// send → notify → boost → recv → drain → restore → retire round trip
/// with the notify hook feeding a wait-free mailbox lane exactly as the
/// runtimes wire it.
fn message_plane_steady_state() {
    use std::sync::Mutex;
    use yasmin_core::priority::Priority;
    use yasmin_sched::msg::{ChannelBuilder, MsgEvent};

    let mut b = TaskSetBuilder::new();
    let runner = b.task_decl(TaskSpec::aperiodic("runner")).unwrap();
    b.version_decl(runner, VersionSpec::new("v", Duration::from_millis(1)))
        .unwrap();
    let dst = b.task_decl(TaskSpec::aperiodic("dst")).unwrap();
    b.version_decl(dst, VersionSpec::new("v", Duration::from_millis(1)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .tick(Duration::from_millis(1_000))
        .max_pending_jobs(16)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(ts, config).expect("valid engine");

    let (tx, rx) = ChannelBuilder::standalone("ctl", dst)
        .capacity(8)
        .high_lane(8, Priority::HIGHEST)
        .build::<u64>()
        .expect("valid channel");
    let (mut lanes, mut events) = mailbox::<MsgEvent>(1, 64);
    let feed = Mutex::new(lanes.pop().expect("one lane requested"));
    assert!(tx.notify_handle().set_notify(Arc::new(move |ev| {
        feed.lock()
            .expect("notify hook never panics")
            .send(ev)
            .expect("event lane sized for the cycle");
    })));

    let mut sink = ActionSink::with_capacity(64);
    let mut running: Vec<Option<JobId>> = vec![None; 1];
    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());

    let step = Duration::from_micros(10);
    let mut now = Instant::ZERO;
    let mut seq = 0u64;

    assert_zero_alloc("message-plane", || {
        now += step;
        seq += 1;
        // `runner` takes the single worker; `dst` parks in the queue.
        sink.clear();
        engine
            .apply(now, &Input::Activate(runner), &mut sink)
            .expect("worker is idle");
        track(&mut running, sink.as_slice());
        let active = running[0].expect("runner dispatched");
        sink.clear();
        engine
            .apply(now, &Input::Activate(dst), &mut sink)
            .expect("queue has room");
        // Post both lanes; the high post boosts the queued `dst` job.
        tx.send(seq).expect("normal lane has room");
        tx.send_high(seq).expect("high lane has room");
        pump_msg_events(&mut events, &mut engine, now, &mut sink, &mut running);
        // Drain high lane first, then the normal lane; the drain event
        // restores the queued job's base priority.
        assert_eq!(rx.recv(), Some(seq));
        assert_eq!(rx.recv(), Some(seq));
        pump_msg_events(&mut events, &mut engine, now, &mut sink, &mut running);
        // Retire `runner`, which dispatches the restored `dst` job,
        // then retire that too so the next cycle starts idle.
        sink.clear();
        engine
            .apply(
                now,
                &Input::Completed(&[(WorkerId::new(0), active)]),
                &mut sink,
            )
            .expect("completion protocol upheld");
        track(&mut running, sink.as_slice());
        let drained = running[0].take().expect("dst dispatched after runner");
        sink.clear();
        engine
            .apply(
                now,
                &Input::Completed(&[(WorkerId::new(0), drained)]),
                &mut sink,
            )
            .expect("completion protocol upheld");
        track(&mut running, sink.as_slice());
    });
    assert!(
        engine.stats().msg_boosts > u64::from(WARMUP),
        "every cycle must boost the pending receiver (got {})",
        engine.stats().msg_boosts
    );
    assert!(rx.is_empty(), "both lanes drained every cycle");
}

/// Scenario 10: the cross-shard outbox path. Every cycle a source job
/// completes on shard 0 and lands its successor token in the outbox as
/// a `RemoteActivation`; the driver drains the outbox into a reusable
/// buffer and routes it to shard 1 as a token, releasing and
/// dispatching the destination — the fire, drain, route and release
/// must all run on pre-grown storage.
fn cross_shard_outbox() {
    let mut b = TaskSetBuilder::new();
    let src = b
        .task_decl(TaskSpec::aperiodic("src").on_worker(WorkerId::new(0)))
        .unwrap();
    let dst = b
        .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
        .unwrap();
    b.version_decl(src, VersionSpec::new("v", Duration::from_millis(1)))
        .unwrap();
    b.version_decl(dst, VersionSpec::new("v", Duration::from_millis(1)))
        .unwrap();
    let c = b.channel_decl("c", 4, 8);
    b.channel_connect(src, dst, c).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .tick(Duration::from_millis(1_000))
        .max_pending_jobs(16)
        .build()
        .expect("valid config");
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut s1 = shards.pop().unwrap();
    let mut s0 = shards.pop().unwrap();
    let mut sink = ActionSink::with_capacity(64);
    s0.apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh shard starts");
    s1.apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh shard starts");
    let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
    let mut running: Vec<Option<JobId>> = vec![None; 2];
    let mut outbox: Vec<RemoteActivation> = Vec::with_capacity(8);
    let step = Duration::from_micros(1);
    let mut now = Instant::ZERO;

    assert_zero_alloc("cross-shard-outbox", || {
        now += step;
        sink.clear();
        s0.apply(now, &Input::Activate(src), &mut sink)
            .expect("worker 0 idle");
        track(&mut running, sink.as_slice());
        let j0 = running[0].take().expect("src dispatched");
        sink.clear();
        s0.apply(now, &Input::Completed(&[(w0, j0)]), &mut sink)
            .expect("completion protocol upheld");
        outbox.clear();
        s0.drain_outbox_into(&mut outbox);
        for ra in outbox.drain(..) {
            sink.clear();
            s1.apply(now, &Input::Token(ra), &mut sink)
                .expect("cross token routes");
            track(&mut running, sink.as_slice());
        }
        let j1 = running[1].take().expect("dst dispatched");
        sink.clear();
        s1.apply(now, &Input::Completed(&[(w1, j1)]), &mut sink)
            .expect("completion protocol upheld");
    });
    assert!(
        s0.stats().cross_activations > u64::from(WARMUP),
        "every cycle must route a cross-shard token (got {})",
        s0.stats().cross_activations
    );
}

/// Scenario 11: steady state with fault-tolerance machinery armed —
/// `enforce_wcet` scans the running slots every tick, the miss-trip
/// window rolls, and every cycle one job is flagged as overrunning and
/// demoted to background (the Boost surfacing of `OverrunPolicy`
/// enforcement). None of it may touch the allocator.
fn enforcement_steady_state() {
    use yasmin_core::task::OverrunPolicy;
    const WORKERS: usize = 2;
    let mut b = TaskSetBuilder::new();
    for i in 0..32 {
        let t = b
            .task_decl(
                TaskSpec::periodic(format!("t{i}"), Duration::from_millis(10))
                    .with_overrun_policy(OverrunPolicy::DemoteToBackground),
            )
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
            .unwrap();
    }
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .enforce_wcet(true)
        .miss_trip(Duration::from_millis(100), 64)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(ts, config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(128);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;

    assert_zero_alloc("enforcement-steady-state", || {
        let mid = now + tick.scale(1, 2);
        // Flag worker 0's running job as overrunning: the Demote policy
        // books the overrun and emits the background Boost.
        if let Some(r) = engine.running(WorkerId::new(0)) {
            let t = r.job.task;
            sink.clear();
            engine.apply(mid, &Input::Overrun(t), &mut sink).unwrap();
        }
        for w in 0..WORKERS {
            if let Some(job) = running[w].take() {
                sink.clear();
                engine
                    .apply(
                        mid,
                        &Input::Completed(&[(WorkerId::new(w as u16), job)]),
                        &mut sink,
                    )
                    .expect("completion protocol upheld");
                track(&mut running, sink.as_slice());
            }
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
    });
    assert!(
        engine.stats().overruns > u64::from(WARMUP),
        "every cycle must book an overrun (got {})",
        engine.stats().overruns
    );
    assert!(!engine.is_tripped(), "on-time completions never trip");
}

/// Scenario 12: version selection under `VersionPolicy::Energy` with a
/// live battery probe whose reading drifts every cycle. Each dispatch
/// round pays the probe, sees a context different from the cached one,
/// invalidates the whole rank cache and re-ranks its task's versions
/// under the new affordability cut-off — the worst case for the refresh
/// path, which must run entirely on the pre-grown cache entries and the
/// in-place rank scratch.
fn battery_energy_refresh() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use yasmin_core::config::VersionPolicy;
    use yasmin_core::energy::{BatteryLevel, Energy};
    use yasmin_sched::Action;
    const WORKERS: usize = 2;
    let mut b = TaskSetBuilder::new();
    for i in 0..32 {
        let t = b
            .task_decl(TaskSpec::periodic(
                format!("t{i}"),
                Duration::from_millis(10),
            ))
            .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("cheap", Duration::from_millis(2))
                .with_energy(Energy::from_millijoules(5))
                .with_energy_budget(Energy::from_millijoules(5)),
        )
        .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("hungry", Duration::from_millis(1))
                .with_energy(Energy::from_millijoules(12))
                .with_energy_budget(Energy::from_millijoules(12)),
        )
        .unwrap();
    }
    let ts = Arc::new(b.build().unwrap());
    let level = Arc::new(AtomicU32::new(1000));
    let probe = Arc::clone(&level);
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .version_policy(VersionPolicy::Energy)
        .battery_source(move || BatteryLevel::from_permille(probe.load(Ordering::Relaxed) as u16))
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(ts, config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(128);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;
    let (mut cheap, mut hungry) = (0u64, 0u64);
    let mut count = |sink: &ActionSink| {
        for a in sink.as_slice() {
            if let Action::Dispatch { version, .. } = a {
                match version.index() {
                    0 => cheap += 1,
                    _ => hungry += 1,
                }
            }
        }
    };

    assert_zero_alloc("battery-energy-refresh", || {
        // Saw the battery between full (hungry affordable) and nearly
        // drained (only cheap affordable): the context differs on every
        // probe, so no dispatch ever hits a warm cache entry.
        let cur = level.load(Ordering::Relaxed);
        level.store(if cur <= 100 { 1000 } else { cur - 60 }, Ordering::Relaxed);
        let mid = now + tick.scale(1, 2);
        for w in 0..WORKERS {
            if let Some(job) = running[w].take() {
                sink.clear();
                engine
                    .apply(
                        mid,
                        &Input::Completed(&[(WorkerId::new(w as u16), job)]),
                        &mut sink,
                    )
                    .expect("completion protocol upheld");
                track(&mut running, sink.as_slice());
                count(&sink);
            }
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
        count(&sink);
    });
    assert!(
        engine.stats().dispatched > u64::from(WARMUP),
        "battery loop must dispatch (got {})",
        engine.stats().dispatched
    );
    assert!(
        cheap > 0 && hungry > 0,
        "the drifting probe must flip the selection both ways \
         (cheap {cheap}, hungry {hungry})"
    );
}

/// Scenario 13: the batched work-stealing migration every cycle —
/// ordered hint scan, k-job detach into a reused [`JobBatch`], one
/// adopt dispatch round on the thief, all k retirements and the
/// victim's refill, all on pre-grown storage.
fn steady_state_batch_stealing() {
    steal_every_cycle("steady-state-batch-stealing", 4);
}

/// Scenarios 7 and 13: every cycle an idle thief takes `k` jobs off a
/// loaded victim in one exchange and retires them, and the victim
/// refills.
fn steal_every_cycle(label: &str, k: usize) {
    const TASKS: usize = 32;
    let mut b = TaskSetBuilder::new();
    let mut tasks = Vec::new();
    for i in 0..TASKS {
        let t = b
            .task_decl(TaskSpec::aperiodic(format!("a{i}")).on_worker(WorkerId::new(0)))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
            .unwrap();
        tasks.push(t);
    }
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .tick(Duration::from_millis(1_000))
        .max_pending_jobs(TASKS + 8)
        .build()
        .expect("valid config");
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut thief = shards.pop().unwrap();
    let mut victim = shards.pop().unwrap();
    let mut sink = ActionSink::with_capacity(64);
    victim
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh shard starts");
    thief
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh shard starts");
    // The first activation parks on the victim's worker; the rest hold
    // the queue at its steady size.
    for &t in &tasks {
        victim
            .apply(Instant::ZERO, &Input::Activate(t), &mut sink)
            .unwrap();
    }
    let w1 = WorkerId::new(1);
    let mut now = Instant::ZERO;
    let step = Duration::from_micros(1);
    let mut lent = ActionSink::with_capacity(k);
    let mut batch = JobBatch::new();
    let mut notes: Vec<HomeNote> = Vec::with_capacity(k);

    assert_zero_alloc(label, || {
        now += step;
        lent.clear();
        victim.apply(now, &Input::Lend { k }, &mut lent).unwrap();
        batch.clear();
        for a in &lent {
            if let Action::Lend { job } = *a {
                batch.push(job);
            }
        }
        assert_eq!(batch.len(), k, "victim queue is loaded");
        sink.clear();
        thief
            .apply(now, &Input::Adopt(batch.as_slice()), &mut sink)
            .expect("thief is idle");
        // The adopt round dispatched the most urgent stolen job; each
        // retirement dispatches the next from the thief's local queue.
        for _ in 0..k {
            let job = thief.running().expect("an adopted job runs").job.id;
            sink.clear();
            thief
                .apply(now, &Input::Completed(&[(w1, job)]), &mut sink)
                .expect("completion protocol upheld");
        }
        assert!(thief.running().is_none(), "all k stolen jobs retired");
        // Their ends go home: only then may their tasks leave again.
        thief.drain_homeward_into(&mut notes);
        assert_eq!(notes.len(), k);
        for note in notes.drain(..) {
            sink.clear();
            victim.apply(now, &Input::Home(note), &mut sink).unwrap();
        }
        for job in batch.as_slice() {
            sink.clear();
            victim
                .apply(now, &Input::Activate(job.task), &mut sink)
                .unwrap();
        }
    });
    assert!(
        thief.stats().stolen_batch > u64::from(WARMUP),
        "every cycle must run one exchange (got {})",
        thief.stats().stolen_batch
    );
    assert_eq!(victim.stats().donated, thief.stats().stolen);
    assert_eq!(thief.stats().stolen, k as u64 * thief.stats().stolen_batch);
    assert!(thief.stats().completed > u64::from(k as u32 * WARMUP));
}

/// Scenario 14: deadline culling under overload. Four jobs of 4 ms due
/// 5 ms after their release share one worker every 10 ms: two run, and
/// every tick culls the other two past their deadline — the cull scan,
/// its scratch and the `Cull` actions must all run on pre-grown storage.
fn cull_missed_overload() {
    let mut b = TaskSetBuilder::new();
    for i in 0..4 {
        let spec = TaskSpec::periodic(format!("t{i}"), Duration::from_millis(10))
            .with_constrained_deadline(Duration::from_millis(5));
        let t = b.task_decl(spec).unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(4)))
            .unwrap();
    }
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .cull_missed(true)
        .max_pending_jobs(64)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(Arc::new(b.build().unwrap()), config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(64);
    let mut running: Vec<Option<JobId>> = vec![None; 1];

    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;
    let mut culls = 0u64;

    assert_zero_alloc("cull-missed-overload", || {
        // The running job ends at half-tick and the next one, due right
        // then, starts; at the tick the rest are past their deadline.
        if let Some(job) = running[0].take() {
            sink.clear();
            engine
                .apply(
                    now + tick.scale(1, 2),
                    &Input::Completed(&[(WorkerId::new(0), job)]),
                    &mut sink,
                )
                .expect("completion protocol upheld");
            track(&mut running, sink.as_slice());
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
        let culled = sink.as_slice().iter();
        culls += culled.filter(|a| matches!(a, Action::Cull { .. })).count() as u64;
    });
    assert!(
        engine.stats().culled >= u64::from(2 * STEADY),
        "every tick must cull (got {})",
        engine.stats().culled
    );
    assert_eq!(culls, engine.stats().culled, "each cull is reported");
}

/// Scenario 15: tenant churn. Beside the base set, four tenants of one
/// shape — a two-task DAG over a channel — are live at any time: every
/// cycle one is installed in the slot the last retirement freed
/// (`Input::Install`), committed, runs a tick, and the oldest is
/// retired. The test plays the ledger's part: it builds the merged sets
/// once and holds them, so the engine frees none either.
fn tenant_churn() {
    use std::collections::VecDeque;
    const WORKERS: usize = 2;
    let p = Duration::from_millis(10);
    let mut b = TaskSetBuilder::new();
    for i in 0..2 {
        let t = b
            .task_decl(TaskSpec::periodic(format!("base{i}"), p))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
            .unwrap();
    }
    let base = Arc::new(b.build().unwrap());
    let mut b = TaskSetBuilder::new();
    let root = b.task_decl(TaskSpec::periodic("root", p)).unwrap();
    let node = b.task_decl(TaskSpec::graph_node("node")).unwrap();
    for t in [root, node] {
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
            .unwrap();
    }
    let ch = b.channel_decl("ch", 2, 8);
    b.channel_connect(root, node, ch).unwrap();
    let tenant = b.build().unwrap();
    // The base grown by one to five tenants; the last one has a tenant
    // in every slot, and is what every heir is installed from.
    let mut sets = vec![Arc::clone(&base)];
    for _ in 0..5 {
        let grown = sets.last().unwrap().extended(&tenant).unwrap();
        sets.push(Arc::new(grown));
    }
    let full = Arc::clone(&sets[5]);
    let config = Config::builder()
        .workers(WORKERS)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(256)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(Arc::clone(&base), config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(256);
    let mut running: Vec<Option<JobId>> = vec![None; WORKERS];
    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    track(&mut running, sink.as_slice());

    // Five tenants appended, the first retired: four live, one slot free.
    let mut live: VecDeque<(TenantId, u32)> = VecDeque::with_capacity(8);
    for set in &sets[1..] {
        let first = engine.taskset().len() as u32;
        let t = TenantId::new(engine.tenant_count() as u32);
        let install = Input::Install {
            merged: set,
            tenant: t,
            first_task: first,
            budget: None,
        };
        engine.apply(Instant::ZERO, &install, &mut sink).unwrap();
        sink.clear();
        commit(&mut engine, t, Instant::ZERO, &mut sink).unwrap();
        track(&mut running, sink.as_slice());
        live.push_back((t, first));
    }
    let (oldest, mut free) = live.pop_front().unwrap();
    sink.clear();
    engine
        .apply(Instant::ZERO, &Input::Retire(oldest), &mut sink)
        .unwrap();
    let tick = engine.tick_period();
    let mut now = Instant::ZERO;
    let mut next = engine.tenant_count() as u32;

    assert_zero_alloc("tenant-churn", || {
        let heir = TenantId::new(next);
        next += 1;
        let install = Input::Install {
            merged: &full,
            tenant: heir,
            first_task: free,
            budget: None,
        };
        engine
            .apply(now, &install, &mut sink)
            .expect("the freed slot fits the heir");
        sink.clear();
        commit(&mut engine, heir, now, &mut sink).expect("the heir commits");
        track(&mut running, sink.as_slice());
        live.push_back((heir, free));
        let mid = now + tick.scale(1, 2);
        for w in 0..WORKERS {
            if let Some(job) = running[w].take() {
                sink.clear();
                engine
                    .apply(
                        mid,
                        &Input::Completed(&[(WorkerId::new(w as u16), job)]),
                        &mut sink,
                    )
                    .expect("completion protocol upheld");
                track(&mut running, sink.as_slice());
            }
        }
        now += tick;
        sink.clear();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        track(&mut running, sink.as_slice());
        let (oldest, slot) = live.pop_front().expect("four live");
        sink.clear();
        engine
            .apply(now, &Input::Retire(oldest), &mut sink)
            .expect("the oldest is live");
        free = slot;
    });
    assert_eq!(engine.taskset().len(), full.len(), "no slot was added");
    assert!(engine.tenant_count() > STEADY as usize);
    // Both workers run a job every cycle; what the retirements cull
    // never ran.
    let stats = engine.stats();
    assert!(
        stats.dispatched >= u64::from(2 * STEADY) && stats.culled > 0,
        "the tenants must run and retire (got {stats:?})"
    );
}

/// Scenario 16: four live tenants of one shape beside a base of `base`
/// tasks, admitted through a [`TenantLedger`] that is handed back, each
/// time, the set the stand-in engines just let go of; the oldest tenant
/// retires after each admission. Returns the allocations of `STEADY`
/// admit/retire cycles after `WARMUP` of them.
fn ledger_churn_allocs(base: usize) -> u64 {
    use std::collections::VecDeque;
    use yasmin_sched::admission::{AdmissionControl, Generation, TenantLedger};
    let p = Duration::from_millis(10);
    let set = |name: &str, tasks: usize| {
        let mut b = TaskSetBuilder::new();
        for i in 0..tasks {
            let t = b
                .task_decl(TaskSpec::periodic(format!("{name}{i}"), p))
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", Duration::from_micros(1)))
                .unwrap();
        }
        b.build().unwrap()
    };
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::DeadlineMonotonic)
        .preemption(false)
        .build()
        .expect("valid config");
    let base = Arc::new(set("base", base));
    let mut ledger = TenantLedger::new(AdmissionControl::new(config, p), Arc::clone(&base));
    let tenant = set("tenant", 2);
    // What the engines run, and what they last let go of.
    let mut running = Generation {
        set: base,
        number: 0,
    };
    let mut spare = None;
    let mut live = VecDeque::with_capacity(8);
    let mut cycle = |retire: bool| {
        let mut adopted = None;
        let id = ledger
            .admit_reusing(&mut spare, &tenant, None, |a| {
                let set = Arc::clone(a.merged);
                adopted = Some(Generation {
                    set,
                    number: a.generation,
                });
                Ok(())
            })
            .expect("four tenants fit");
        spare = Some(std::mem::replace(&mut running, adopted.unwrap()));
        live.push_back(id);
        if retire {
            ledger.retire(live.pop_front().unwrap()).unwrap();
        }
    };
    for _ in 0..4 {
        cycle(false);
    }
    for _ in 0..WARMUP {
        cycle(true);
    }
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    for _ in 0..STEADY {
        cycle(true);
    }
    ALLOC_CALLS.load(Ordering::SeqCst) - before
}

fn admission_into_a_spare() {
    let (small, large) = (ledger_churn_allocs(12), ledger_churn_allocs(192));
    assert_eq!(
        small, large,
        "admission-into-a-spare: {STEADY} admit/retire cycles allocated {small} times \
         beside 12 base tasks and {large} times beside 192"
    );
    println!(
        "zero_alloc[admission-into-a-spare]: OK — {small} allocations across {STEADY} \
         admit/retire cycles beside 12 base tasks and beside 192"
    );
}

/// Completes every running job of `tasks` at `now`.
fn finish(engine: &mut OnlineEngine, tasks: &[TaskId], now: Instant, sink: &mut ActionSink) {
    for w in (0..engine.config().workers() as u16).map(WorkerId::new) {
        let Some(r) = engine.running(w).filter(|r| tasks.contains(&r.job.task)) else {
            continue;
        };
        sink.clear();
        let job = r.job.id;
        engine
            .apply(now, &Input::Completed(&[(w, job)]), sink)
            .expect("completion protocol upheld");
    }
}

/// Scenario 17: the trip wire as a level. Two workers, preemptive EDF,
/// a budget of no miss per 10 ms window; `d` (deadline 2 ms, demoted on
/// overrun), the `LogOnly` tasks `l1` and `l2`, all periodic at 10 ms,
/// and the aperiodic `u` (deadline 1 ms). Each cycle from its tick `t`:
/// at `t+1` `d` is forced to overrun and `u`'s activation preempts it;
/// at `t+3` `u` completes late and trips the wire, which sheds the
/// running `l1` and the queued `l2`, and `d` resumes with its mark; at
/// `t+5` `d` and `l1` complete and `l2` starts; the tick at `t+10`
/// releases the next cycle and untrips the wire, which restores the
/// queued `l1`, `l2` and the running `l2`, and that completes.
fn trip_and_untrip() {
    use yasmin_core::task::OverrunPolicy;
    let ms = Duration::from_millis;
    let mut b = TaskSetBuilder::new();
    let spec = TaskSpec::periodic("d", ms(10)).with_constrained_deadline(ms(2));
    let d = b
        .task_decl(spec.with_overrun_policy(OverrunPolicy::DemoteToBackground))
        .unwrap();
    let l1 = b.task_decl(TaskSpec::periodic("l1", ms(10))).unwrap();
    let l2 = b.task_decl(TaskSpec::periodic("l2", ms(10))).unwrap();
    let spec = TaskSpec::aperiodic("u").with_constrained_deadline(ms(1));
    let u = b
        .task_decl(spec.with_overrun_policy(OverrunPolicy::Kill))
        .unwrap();
    for t in [d, l1, l2, u] {
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
    }
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .miss_trip(ms(10), 0)
        .build()
        .expect("valid config");
    let mut engine = OnlineEngine::new(Arc::new(b.build().unwrap()), config).expect("valid engine");
    let mut sink = ActionSink::with_capacity(64);
    engine
        .apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh engine starts");
    let mut t = Instant::ZERO;

    assert_zero_alloc("trip-and-untrip", || {
        sink.clear();
        let overruns = engine.stats().overruns;
        engine
            .apply(t + ms(1), &Input::Overrun(d), &mut sink)
            .unwrap();
        assert_eq!(engine.stats().overruns, overruns + 1, "d is flagged");
        engine
            .apply(t + ms(1), &Input::Activate(u), &mut sink)
            .expect("u is aperiodic");
        finish(&mut engine, &[u], t + ms(3), &mut sink);
        assert!(engine.is_tripped());
        finish(&mut engine, &[d, l1], t + ms(5), &mut sink);
        t += ms(10);
        sink.clear();
        engine
            .apply(t, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert!(!engine.is_tripped());
        finish(&mut engine, &[l2], t, &mut sink);
    });
    let cycles = u64::from(WARMUP + STEADY);
    let stats = engine.stats();
    assert_eq!(stats.miss_trips, cycles, "one trip a cycle");
    assert_eq!(stats.overruns, cycles, "a resume books no second overrun");
    assert_eq!(stats.preempted, cycles);
    assert_eq!(stats.completed, 4 * cycles);
}

/// Scenario 18: work-first continuation. `busy` keeps shard 0 inside a
/// body while `src` on shard 1 feeds `dst`, homed on shard 0. Every
/// cycle shard 0 opens its door on `dst`'s next instance as it enters
/// `busy`, shard 1 completes `src` and keeps that instance instead of
/// routing the token, shard 0 books it as it closes the door, shard 1
/// retires it and its end goes home — on pre-grown storage, doors
/// included.
fn kept_instance() {
    use yasmin_sched::Continuation;
    use yasmin_sync::door;
    let mut b = TaskSetBuilder::new();
    let busy = b
        .task_decl(TaskSpec::aperiodic("busy").on_worker(WorkerId::new(0)))
        .unwrap();
    let src = b
        .task_decl(TaskSpec::aperiodic("src").on_worker(WorkerId::new(1)))
        .unwrap();
    let dst = b
        .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(0)))
        .unwrap();
    for t in [busy, src, dst] {
        b.version_decl(t, VersionSpec::new("v", Duration::from_millis(1)))
            .unwrap();
    }
    let c = b.channel_decl("c", 4, 8);
    b.channel_connect(src, dst, c).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .tick(Duration::from_millis(1_000))
        .max_pending_jobs(16)
        .build()
        .expect("valid config");
    let mut shards = EngineShard::build_all(&ts, &config).expect("valid shards");
    let mut s1 = shards.pop().unwrap();
    let mut s0 = shards.pop().unwrap();
    let (mut doors, keeper) = door::new(ts.len());
    let mut sink = ActionSink::with_capacity(64);
    s0.apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh shard starts");
    s1.apply(Instant::ZERO, &Input::Start, &mut sink)
        .expect("fresh shard starts");
    let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
    let mut running: Vec<Option<JobId>> = vec![None; 2];
    let mut offered: Vec<Continuation> = Vec::with_capacity(ts.len());
    let mut outbox: Vec<RemoteActivation> = Vec::with_capacity(8);
    let mut notes: Vec<HomeNote> = Vec::with_capacity(8);
    let step = Duration::from_micros(1);
    let mut now = Instant::ZERO;

    assert_zero_alloc("kept-instance", || {
        now += step;
        // Shard 0 enters `busy`'s body with its door on `dst` open.
        sink.clear();
        s0.apply(now, &Input::Activate(busy), &mut sink).unwrap();
        track(&mut running, sink.as_slice());
        sink.clear();
        s0.apply(now, &Input::Offer, &mut sink).unwrap();
        for a in &sink {
            if let Action::Offer(c) = *a {
                offered.push(c);
            }
        }
        assert_eq!(offered.len(), 1, "dst's next instance");
        for c in &offered {
            doors.open(c.task.index(), c.seq, c.id.raw());
        }
        // Shard 1 completes `src` and keeps what the token would release.
        sink.clear();
        s1.apply(now, &Input::Activate(src), &mut sink).unwrap();
        track(&mut running, sink.as_slice());
        let j1 = running[1].take().expect("src dispatched");
        sink.clear();
        s1.apply(now, &Input::Completed(&[(w1, j1)]), &mut sink)
            .unwrap();
        s1.drain_outbox_into(&mut outbox);
        for ra in outbox.drain(..) {
            let task = s1.keepable(&ra).expect("a single-input successor");
            let (seq, id) = keeper.keep(task.index()).expect("the door is open");
            let c = Continuation {
                task,
                seq,
                id: JobId::new(id),
            };
            sink.clear();
            s1.apply(now, &Input::Kept(ra, c), &mut sink).unwrap();
            track(&mut running, sink.as_slice());
        }
        // Shard 0 leaves its body and books what was kept.
        for c in offered.drain(..) {
            if doors.close(c.task.index()) {
                s0.apply(now, &Input::Booked(c), &mut sink).unwrap();
            }
        }
        let j0 = running[0].take().expect("busy dispatched");
        sink.clear();
        s0.apply(now, &Input::Completed(&[(w0, j0)]), &mut sink)
            .unwrap();
        // Shard 1 retires the kept instance; its end goes home.
        let kept = running[1].take().expect("the kept instance dispatched");
        sink.clear();
        s1.apply(now, &Input::Completed(&[(w1, kept)]), &mut sink)
            .unwrap();
        s1.drain_homeward_into(&mut notes);
        for note in notes.drain(..) {
            sink.clear();
            s0.apply(now, &Input::Home(note), &mut sink).unwrap();
        }
    });
    let cycles = u64::from(WARMUP + STEADY);
    assert_eq!(s1.stats().stolen, cycles, "one kept instance a cycle");
    assert_eq!(s0.stats().donated, cycles);
    assert_eq!(s0.stats().released, 2 * cycles, "busy, and dst kept");
    assert_eq!(s1.stats().completed, 2 * cycles);
}

fn main() {
    independent_global();
    dag_firing();
    partitioned_sharded_mailbox();
    accel_contention_pip();
    burst_batch_completion();
    mode_switch_rank_refresh();
    steady_state_stealing();
    admitted_tenant_steady_state();
    message_plane_steady_state();
    cross_shard_outbox();
    enforcement_steady_state();
    battery_energy_refresh();
    steady_state_batch_stealing();
    cull_missed_overload();
    tenant_churn();
    admission_into_a_spare();
    trip_and_untrip();
    kept_instance();
}
