//! Per-layer probes of the traced run: each layer's public calls, timed
//! from outside on the harness thread — loops over the `sync` and
//! `vendor` types, the workload's own task set replayed through the
//! engine in virtual time, the analyses on the same set. Nothing here
//! reaches inside a crate; spans inside the program are a later issue.
//!
//! A probe times a *batch* of calls with one clock pair and reports the
//! median over batches of the per-call mean, so a 20 ns clock read does
//! not drown a 30 ns operation and one host stall does not move it.

use crate::gen::{self, ChurnInputs};
use crate::host::pin;
use crate::report::Outcome;
use crate::stats::median_u64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yasmin::analysis::{edf_schedulable, response_times, WcetAssumption};
use yasmin::core::ids::{JobId, TaskId};
use yasmin::core::time::{Duration as RtDuration, Instant as RtInstant};
use yasmin::prelude::*;
use yasmin::sched::{
    Action, ActionSink, EngineShard, JobBatch, RemoteActivation, StealHint, MAX_STEAL_BATCH,
};
use yasmin::sync::mailbox::mailbox;
use yasmin::sync::spsc;
use yasmin::sync::steal::LoadBoard;
use yasmin::sync::wait::{wait_for, WaitMode};
use yasmin::taskgen::taskset::{build_independent, IndependentSetParams};

/// Median over `batches` of the mean ns of `per_batch` calls of `op`.
fn per_call_ns(batches: usize, per_batch: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<u64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t.elapsed().as_nanos() as u64 * 16 / per_batch as u64
        })
        .collect();
    median_u64(&samples) / 16.0
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The replays that use the workload's own task set (for `explore`, its
/// largest generated set): engine, analyses, set building, admission.
/// The probes that do not depend on a task set belong to the one
/// workload whose end-to-end metrics they explain — [`wake_probes`] to
/// `cyclic`, [`ring_probes`], [`msg_probes`] and [`shard_replay`] to
/// `pipeline`, [`taskgen_probes`] to `explore` — so a full traced run
/// measures each once.
pub fn own_set(taskset: &Arc<TaskSet>, config: &Config, out: &mut Outcome) {
    engine_replay(taskset, config, out);
    analysis_probes(taskset, out);
    core_probes(taskset, config, out);
}

// ----- vendor / sync ----------------------------------------------------

/// What `cyclic`'s latency is made of: the hand-off channel's wake-up
/// and the timed wait's lateness.
pub fn wake_probes(out: &mut Outcome) {
    // The channel the single-owner runtime hands every job over (and
    // every completion back): two pinned threads, ping-pong.
    let (ping_tx, ping_rx) = crossbeam::channel::bounded::<u32>(1);
    let (pong_tx, pong_rx) = crossbeam::channel::bounded::<u32>(1);
    let rounds = 1_000u32;
    let echo = std::thread::spawn(move || {
        pin(1);
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    pin(0);
    let mut rtt = Vec::with_capacity(rounds as usize);
    for i in 0..rounds {
        let t = Instant::now();
        ping_tx.send(i).expect("echo thread alive");
        pong_rx.recv().expect("echo thread alive");
        rtt.push(t.elapsed().as_nanos() as u64);
    }
    drop(ping_tx);
    echo.join().expect("echo thread");
    out.layer("vendor.chan_rtt_p50_us", us(median_u64(&rtt)));

    // How late a 1 ms wait ends under each strategy the runtimes use.
    let late = |mode| {
        let v: Vec<u64> = (0..60)
            .map(|_| wait_for(mode, Duration::from_millis(1)).as_nanos() as u64)
            .collect();
        us(median_u64(&v))
    };
    out.layer("sync.wait_sleep_late_p50_us", late(WaitMode::Sleep));
    out.layer(
        "sync.wait_hybrid_late_p50_us",
        late(WaitMode::HybridSpin {
            spin_window_us: 200,
        }),
    );
}

/// Single-thread loops over the wait-free types the sharded runtime is
/// built from.
pub fn ring_probes(out: &mut Outcome) {
    let (mut tx, mut rx) = spsc::channel::<u64>(64);
    out.layer(
        "sync.spsc_push_pop_p50_ns",
        per_call_ns(200, 1_000, || {
            let _ = tx.push(std::hint::black_box(7));
            std::hint::black_box(rx.pop());
        }),
    );

    let (mut lanes, mut mrx) = mailbox::<u64>(3, 64);
    let lane = &mut lanes[1];
    out.layer(
        "sync.mailbox_send_recv_p50_ns",
        per_call_ns(200, 1_000, || {
            let _ = lane.send(std::hint::black_box(7));
            std::hint::black_box(mrx.try_recv());
        }),
    );

    let board = LoadBoard::new(8);
    for i in 0..8 {
        board.publish(i, (i * 3) % 7);
    }
    board.set_adjacent(0, 5);
    out.layer(
        "sync.loadboard_pick_p50_ns",
        per_call_ns(200, 1_000, || {
            std::hint::black_box(board.pick_victim(std::hint::black_box(0)));
        }),
    );
}

// ----- sched::msg -------------------------------------------------------

pub fn msg_probes(out: &mut Outcome) {
    let (tx, rx) = ChannelBuilder::standalone("probe", TaskId::new(0))
        .capacity(16)
        .build::<u64>()
        .expect("non-zero capacity");
    out.layer(
        "sched.msg_send_recv_p50_ns",
        per_call_ns(200, 1_000, || {
            let _ = tx.send(std::hint::black_box(7));
            std::hint::black_box(rx.recv());
        }),
    );

    // A high-lane post + drain with the notify hook armed, as a runtime
    // arms it (the hook here only counts; the engine's side of a boost
    // cycle shows in the replays' `on_*` timings).
    let (tx, rx) = ChannelBuilder::standalone("probe-high", TaskId::new(0))
        .capacity(16)
        .high_lane(16, Priority::HIGHEST)
        .build::<u64>()
        .expect("non-zero capacity");
    let events = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&events);
    let _ = tx.notify_handle().set_notify(Arc::new(move |_| {
        e.fetch_add(1, Ordering::Relaxed);
    }));
    out.layer(
        "sched.msg_high_cycle_p50_ns",
        per_call_ns(200, 1_000, || {
            let _ = tx.send_high(std::hint::black_box(7));
            std::hint::black_box(rx.recv());
        }),
    );
    debug_assert!(events.load(Ordering::Relaxed) > 0);
}

// ----- sched: the engine in virtual time --------------------------------

/// Books the dispatches of one engine round.
fn book(sink: &ActionSink, running: &mut [Option<JobId>]) {
    for a in sink.as_slice() {
        if let Action::Dispatch { worker, job, .. } = *a {
            running[worker.index()] = Some(job.id);
        }
    }
}

/// Replays `taskset` through one [`OnlineEngine`] for 400 ticks of
/// virtual time — tick, then completions one at a time until the
/// workers drain — with one timer per public call.
fn engine_replay(taskset: &Arc<TaskSet>, config: &Config, out: &mut Outcome) {
    // The thread runtimes' non-preemptive variant of the workload's
    // configuration, so a round never preempts what the replay believes
    // is running.
    let cfg = Config::builder()
        .workers(config.workers())
        .mapping(config.mapping())
        .priority(config.priority())
        .preemption(false)
        .max_pending_jobs(8192)
        .build()
        .expect("valid replay config");
    let mut engine = match OnlineEngine::new(Arc::clone(taskset), cfg) {
        Ok(engine) => engine,
        Err(e) => {
            out.fail(
                1,
                format!("probe: the workload's set builds no engine ({e})"),
            );
            return;
        }
    };
    let tick = engine.tick_period();
    let mut sink = ActionSink::new();
    let mut running: Vec<Option<JobId>> = vec![None; config.workers()];
    let mut now = RtInstant::ZERO;
    engine
        .start_into(now, &mut sink)
        .expect("fresh engine starts");
    book(&sink, &mut running);
    let (mut tick_ns, mut done_ns) = (Vec::new(), Vec::new());
    let mut rounds = 0u64;
    for _ in 0..400 {
        // Drain: every running job completes 1 µs after the last event.
        while let Some(w) = running.iter().position(Option::is_some) {
            let job = running[w].take().expect("position found it");
            now += RtDuration::from_micros(1);
            sink.clear();
            let t = Instant::now();
            engine
                .on_job_completed_into(WorkerId::new(w as u16), job, now, &mut sink)
                .expect("the replay completes what the engine dispatched");
            done_ns.push(t.elapsed().as_nanos() as u64);
            rounds += 1;
            book(&sink, &mut running);
        }
        now = RtInstant::from_nanos((now.as_nanos() / tick.as_nanos() + 1) * tick.as_nanos());
        sink.clear();
        let t = Instant::now();
        engine.on_tick_into(now, &mut sink);
        tick_ns.push(t.elapsed().as_nanos() as u64);
        rounds += 1;
        book(&sink, &mut running);
    }
    out.layer("sched.on_tick_p50_ns", median_u64(&tick_ns));
    out.layer("sched.on_completed_p50_ns", median_u64(&done_ns));
    // Useful outcomes over attempts: dispatches per dispatch round.
    out.layer(
        "sched.dispatch_per_round",
        engine.stats().dispatched as f64 / rounds.max(1) as f64,
    );
}

/// Delivers shard `s`'s pending cross-shard tokens to their owners, one
/// timed `on_remote_token` each; `true` if there were any.
fn route(
    shards: &mut [EngineShard],
    s: usize,
    now: RtInstant,
    outbox: &mut Vec<RemoteActivation>,
    sink: &mut ActionSink,
    running: &mut [Option<JobId>],
    token_ns: &mut Vec<u64>,
) -> bool {
    shards[s].drain_outbox_into(outbox);
    let any = !outbox.is_empty();
    for ra in outbox.drain(..) {
        sink.clear();
        let t = Instant::now();
        shards[ra.worker.index()]
            .on_remote_token(ra.edge, ra.graph_release, now, sink)
            .expect("token routed to the owning shard");
        token_ns.push(t.elapsed().as_nanos() as u64);
        book(sink, running);
    }
    any
}

/// Replays the `pipeline` set through its two [`EngineShard`]s in
/// virtual time: the
/// coalesced completion + tick round, routed DAG tokens, and the batch
/// steal exchange, one timer per public call.
pub fn shard_replay(out: &mut Outcome) {
    let declared = crate::pipeline::taskset();
    let mut shards = EngineShard::build_all(&declared.taskset, &crate::pipeline::config())
        .expect("the pipeline set satisfies the sharding contract");
    let n = shards.len();
    let tick = shards[0].tick_period();
    let mut sink = ActionSink::new();
    let mut running: Vec<Option<JobId>> = vec![None; n];
    let mut outbox = Vec::new();
    let mut hints: Vec<StealHint> = Vec::with_capacity(MAX_STEAL_BATCH);
    let (mut advance_ns, mut token_ns, mut steal_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut now = RtInstant::ZERO;
    for shard in &mut shards {
        sink.clear();
        shard
            .start_into(now, &mut sink)
            .expect("fresh shard starts");
        book(&sink, &mut running);
    }
    for period in 0..400 {
        // Every other period the shards drain completely — complete,
        // route tokens, steal — so the next edge is a plain tick. In the
        // periods between, nothing completes, so the edge after them
        // finds a completion pending on every busy shard: the coalesced
        // round.
        if period % 2 == 0 {
            loop {
                let mut progressed = false;
                for s in 0..n {
                    now += RtDuration::from_micros(1);
                    if let Some(job) = running[s].take() {
                        progressed = true;
                        let done = [(shards[s].worker(), job)];
                        sink.clear();
                        shards[s]
                            .on_jobs_completed_into(&done, now, &mut sink)
                            .expect("completion protocol upheld");
                        book(&sink, &mut running);
                    } else if shards[s].is_idle() {
                        // Idle shard: the whole exchange — victim probes and
                        // detaches, thief adopts with one dispatch round.
                        let victim = (s + 1) % n;
                        if shards[victim].ready_len() < 2 {
                            continue;
                        }
                        hints.clear();
                        let mut batch = JobBatch::new();
                        sink.clear();
                        let t = Instant::now();
                        shards[victim].try_steal_batch(4, &mut hints);
                        let granted = shards[victim].release_stolen_batch(&hints, &mut batch);
                        if granted > 0 {
                            shards[s]
                                .adopt_stolen_batch(batch.as_slice(), now, &mut sink)
                                .expect("a stolen batch is adoptable by the idle shard");
                            steal_ns.push(t.elapsed().as_nanos() as u64);
                            book(&sink, &mut running);
                            progressed = true;
                        }
                    }
                    progressed |= route(
                        &mut shards,
                        s,
                        now,
                        &mut outbox,
                        &mut sink,
                        &mut running,
                        &mut token_ns,
                    );
                }
                if !progressed {
                    break;
                }
            }
        }
        // The tick edge: a shard with a completion pending retires it
        // and releases in one round ([`EngineShard::advance_into`]), as
        // the runtime does when a wake finds both.
        now = RtInstant::from_nanos((now.as_nanos() / tick.as_nanos() + 1) * tick.as_nanos());
        for s in 0..n {
            sink.clear();
            match running[s].take() {
                Some(job) => {
                    let done = [(shards[s].worker(), job)];
                    let t = Instant::now();
                    shards[s]
                        .advance_into(&done, now, &mut sink)
                        .expect("completion protocol upheld");
                    advance_ns.push(t.elapsed().as_nanos() as u64);
                }
                None => shards[s].on_tick_into(now, &mut sink),
            }
            book(&sink, &mut running);
            route(
                &mut shards,
                s,
                now,
                &mut outbox,
                &mut sink,
                &mut running,
                &mut token_ns,
            );
        }
    }
    out.layer("sched.shard_advance_p50_ns", median_u64(&advance_ns));
    out.layer("sched.remote_token_p50_ns", median_u64(&token_ns));
    out.layer("sched.steal_batch_p50_ns", median_u64(&steal_ns));
}

// ----- analysis / core / taskgen ----------------------------------------

fn timed_us<T>(reps: usize, budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let mut v = Vec::with_capacity(reps);
    let start = Instant::now();
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        v.push(t.elapsed().as_nanos() as u64);
        if start.elapsed() > budget {
            break;
        }
    }
    us(median_u64(&v))
}

fn analysis_probes(taskset: &TaskSet, out: &mut Outcome) {
    let a = WcetAssumption::MaxVersion;
    let budget = Duration::from_millis(200);
    if !out.layers.contains_key("analysis.rta_p50_us") {
        out.layer(
            "analysis.rta_p50_us",
            timed_us(50, budget, || {
                response_times(taskset, PriorityPolicy::DeadlineMonotonic, a)
            }),
        );
        out.layer("analysis.rta_tasks_p50", taskset.len() as f64);
    }
    out.layer(
        "analysis.edf_dbf_p50_us",
        timed_us(50, budget, || edf_schedulable(taskset, a)),
    );
}

/// An accelerator-free `ts` declared again through the builder;
/// `pin_to` may place each task.
pub fn rebuild(ts: &TaskSet, pin_to: impl Fn(usize) -> Option<WorkerId>) -> TaskSet {
    assert!(
        ts.accels().is_empty(),
        "rebuild does not re-bind accelerators"
    );
    let mut b = TaskSetBuilder::new();
    for t in ts.tasks() {
        let mut spec = t.spec().clone();
        if let Some(w) = pin_to(t.id().index()) {
            spec = spec.on_worker(w);
        }
        let id = b.task_decl(spec).expect("spec was valid the first time");
        for v in t.versions() {
            b.version_decl(id, v.clone())
                .expect("version was valid the first time");
        }
    }
    for e in ts.edges() {
        let c = ts
            .channel(e.channel)
            .expect("edge names a declared channel");
        let ch = b.channel_decl(c.name(), c.capacity(), c.elem_bytes());
        b.channel_connect(e.src, e.dst, ch).expect("same edges");
    }
    b.build().expect("same graph")
}

/// A one-task tenant every configuration can host: period four ticks,
/// 2 µs, pinned when the mapping needs it.
fn small_candidate(tick: RtDuration, config: &Config) -> TaskSet {
    let mut b = TaskSetBuilder::new();
    let mut spec = TaskSpec::periodic("probe", tick * 4);
    if config.mapping() == MappingScheme::Partitioned {
        spec = spec.on_worker(WorkerId::new(0));
    }
    let t = b.task_decl(spec).expect("valid probe task");
    b.version_decl(t, VersionSpec::new("v", RtDuration::from_micros(2)))
        .expect("valid probe version");
    b.build().expect("valid probe tenant")
}

fn core_probes(taskset: &Arc<TaskSet>, config: &Config, out: &mut Outcome) {
    let budget = Duration::from_millis(200);
    if taskset.accels().is_empty() {
        out.layer(
            "core.taskset_build_p50_us",
            timed_us(50, budget, || rebuild(taskset, |_| None)),
        );
    }
    let Some(tick) = taskset.scheduler_tick() else {
        out.fail(1, "probe: the workload's set has no scheduler tick");
        return;
    };
    let cand = small_candidate(tick, config);
    if !out.layers.contains_key("core.extend_p50_us") {
        out.layer(
            "core.extend_p50_us",
            timed_us(50, budget, || taskset.extended(&cand)),
        );
    }
    if out.layers.contains_key("sched.admission_eval_p50_us") {
        return; // `churn` replayed its own sequence of sets
    }
    // Admission of one small tenant against the workload's set:
    // evaluate alone, then splice + commit on a started engine.
    let gate = AdmissionControl::new(config.clone(), tick);
    if gate.evaluate(taskset, &cand, None).is_err() {
        // No admission test admits a tenant beside this set (an
        // over-utilised grid set, say): the layer does not apply.
        out.skipped.push("sched.admission_eval_p50_us, sched.splice_commit_p50_us: the gate refuses a tenant beside this set");
        return;
    }
    out.layer(
        "sched.admission_eval_p50_us",
        timed_us(50, budget, || gate.evaluate(taskset, &cand, None)),
    );
    let merged = gate
        .evaluate(taskset, &cand, None)
        .expect("evaluated a moment ago");
    let mut splice = Vec::new();
    for _ in 0..20 {
        let mut engine = OnlineEngine::new(Arc::clone(taskset), config.clone())
            .expect("the replay above built an engine from this set");
        let mut sink = ActionSink::new();
        engine
            .start_into(RtInstant::ZERO, &mut sink)
            .expect("fresh engine starts");
        sink.clear();
        let t = Instant::now();
        let spliced = engine
            .splice_taskset(Arc::clone(&merged), None)
            .and_then(|tenant| engine.commit_tenant_into(tenant, RtInstant::ZERO, &mut sink));
        splice.push(t.elapsed().as_nanos() as u64);
        if let Err(e) = spliced {
            out.fail(
                1,
                format!("probe: an evaluated tenant does not splice ({e})"),
            );
            return;
        }
    }
    out.layer("sched.splice_commit_p50_us", us(median_u64(&splice)));
}

pub fn taskgen_probes(seed: u64, out: &mut Outcome) {
    let mut v = Vec::new();
    for i in 0..30u64 {
        let p = IndependentSetParams {
            n: 60,
            total_utilisation: 1.0,
            seed: seed.wrapping_mul(1_000).wrapping_add(i),
            ..IndependentSetParams::default()
        };
        let t = Instant::now();
        std::hint::black_box(build_independent(&p).expect("U = 1 over 60 tasks is feasible"));
        v.push(t.elapsed().as_nanos() as u64);
    }
    out.layer("taskgen.set_p50_us", us(median_u64(&v)));
    out.layer("taskgen.sets", v.len() as f64);
}

// ----- churn: the run's own sequence of sets ----------------------------

/// Replays `churn`'s admissions with no runtime: for each feasible
/// candidate in order, `AdmissionControl::evaluate` against the merged
/// set so far, the RTA and `TaskSet::extended` alone on the same sets,
/// and `splice_taskset` + `commit_tenant_into` on a started engine.
/// Returns each candidate's evaluate time in ns (0 for refused ones),
/// which the trace uses to split an admit into evaluate and the rest.
pub fn admission_replay(inputs: &ChurnInputs, config: &Config, out: &mut Outcome) -> Vec<u64> {
    let a = WcetAssumption::MaxVersion;
    let mut current = crate::churn::base_taskset(&inputs.base);
    let mut engine =
        OnlineEngine::new(Arc::clone(&current), config.clone()).expect("base set builds");
    let gate = AdmissionControl::for_engine(&engine);
    let mut sink = ActionSink::new();
    let mut now = RtInstant::ZERO;
    engine
        .start_into(now, &mut sink)
        .expect("fresh engine starts");
    let (mut eval, mut rta, mut extend, mut splice, mut sizes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut per_candidate = Vec::with_capacity(inputs.candidates.len());
    let mut mismatch = 0u64;
    for c in &inputs.candidates {
        let cand = crate::churn::candidate_taskset(c);
        let t = Instant::now();
        let verdict = gate.evaluate(&current, &cand, None);
        let eval_ns = t.elapsed().as_nanos() as u64;
        let Ok(merged) = verdict else {
            mismatch += u64::from(!c.infeasible);
            per_candidate.push(0);
            continue;
        };
        mismatch += u64::from(c.infeasible);
        per_candidate.push(eval_ns);
        eval.push(eval_ns);
        sizes.push(merged.len() as u64);

        let t = Instant::now();
        let verdicts = response_times(&merged, config.priority(), a);
        rta.push(t.elapsed().as_nanos() as u64);
        // The gate accepted, so the RTA it is built on must agree.
        mismatch += u64::from(verdicts.iter().any(|r| !r.schedulable()));

        let t = Instant::now();
        std::hint::black_box(current.extended(&cand).expect("ids fit"));
        extend.push(t.elapsed().as_nanos() as u64);

        now += RtDuration::from_millis(gen::CHURN_ADMIT_EVERY_MS);
        sink.clear();
        let t = Instant::now();
        engine
            .splice_taskset(Arc::clone(&merged), None)
            .and_then(|tenant| engine.commit_tenant_into(tenant, now, &mut sink))
            .expect("an evaluated tenant splices");
        splice.push(t.elapsed().as_nanos() as u64);
        current = merged;
    }
    out.layer("sched.admission_eval_p50_us", us(median_u64(&eval)));
    out.layer("sched.splice_commit_p50_us", us(median_u64(&splice)));
    out.layer("analysis.rta_p50_us", us(median_u64(&rta)));
    out.layer("analysis.rta_tasks_p50", median_u64(&sizes));
    out.layer("analysis.verdict_mismatch", mismatch as f64);
    out.layer("core.extend_p50_us", us(median_u64(&extend)));
    per_candidate
}
