//! PR 5 acceptance checks for cross-shard traffic under the sharded
//! driver in `yasmin_sim::par`:
//!
//! * a DAG task set whose edges span workers runs under
//!   `run_partitioned_parallel` and produces **the same trace** as the
//!   single-owner reference simulation (records matched on
//!   `(task, seq)`, compared on every timing/placement field);
//! * an imbalanced partitioned set with stealing enabled shows
//!   `stolen > 0` and a strictly lower makespan than the same run
//!   without stealing;
//! * the driver is deterministic run to run.

use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::ids::WorkerId;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::VersionSpec;
use yasmin_sim::{run_partitioned_parallel, ParSimOptions, SimConfig, SimResult, Simulation};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn us(v: u64) -> Duration {
    Duration::from_micros(v)
}

fn config(workers: usize, sharded: bool) -> Config {
    Config::builder()
        .workers(workers)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(sharded)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .unwrap()
}

fn opts(steal: bool) -> ParSimOptions {
    ParSimOptions {
        steal,
        ..ParSimOptions::default()
    }
}

/// A DAG with edges crossing shards in both directions, plus local
/// work on each worker. WCETs are odd microsecond values so no event
/// ever ties with an event from another source.
fn cross_shard_set() -> Arc<TaskSet> {
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let mut b = TaskSetBuilder::new();
    let a = b
        .task_decl(TaskSpec::periodic("a", ms(20)).on_worker(w0))
        .unwrap();
    let a_dst = b
        .task_decl(TaskSpec::graph_node("a_dst").on_worker(w1))
        .unwrap();
    let bb = b
        .task_decl(TaskSpec::periodic("b", ms(40)).on_worker(w1))
        .unwrap();
    let b_dst = b
        .task_decl(TaskSpec::graph_node("b_dst").on_worker(w0))
        .unwrap();
    b.version_decl(a, VersionSpec::new("a", us(3_137))).unwrap();
    b.version_decl(a_dst, VersionSpec::new("ad", us(2_411)))
        .unwrap();
    b.version_decl(bb, VersionSpec::new("b", us(5_071)))
        .unwrap();
    b.version_decl(b_dst, VersionSpec::new("bd", us(1_913)))
        .unwrap();
    let c1 = b.channel_decl("c1", 1, 8);
    let c2 = b.channel_decl("c2", 1, 8);
    b.channel_connect(a, a_dst, c1).unwrap();
    b.channel_connect(bb, b_dst, c2).unwrap();
    Arc::new(b.build().unwrap())
}

fn assert_same_trace(single: &SimResult, par: &SimResult) {
    assert_eq!(single.records.len(), par.records.len(), "trace lengths");
    let key = |r: &yasmin_sim::JobRecord| (r.task, r.seq);
    let mut s = single.records.clone();
    let mut p = par.records.clone();
    s.sort_by_key(key);
    p.sort_by_key(key);
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(key(a), key(b), "record identity");
        assert_eq!(a.release, b.release, "{a:?} vs {b:?}");
        assert_eq!(a.graph_release, b.graph_release);
        assert_eq!(a.abs_deadline, b.abs_deadline);
        assert_eq!(a.first_start, b.first_start, "{a:?} vs {b:?}");
        assert_eq!(a.completion, b.completion, "{a:?} vs {b:?}");
        assert_eq!(a.version, b.version);
        assert_eq!(a.worker, b.worker);
    }
    assert_eq!(single.unfinished, par.unfinished);
    assert_eq!(single.unfinished_missed, par.unfinished_missed);
    assert_eq!(single.engine_stats.released, par.engine_stats.released);
    assert_eq!(single.engine_stats.dispatched, par.engine_stats.dispatched);
    assert_eq!(single.engine_stats.completed, par.engine_stats.completed);
    assert_eq!(single.worker_busy, par.worker_busy);
    assert_eq!(
        single.energy.as_microjoules(),
        par.energy.as_microjoules(),
        "per-shard energy accounting sums to the whole-system figure"
    );
}

#[test]
fn cross_shard_dag_matches_single_owner_reference() {
    let ts = cross_shard_set();
    let sim = SimConfig::uniform(2, ms(200));
    let single = Simulation::new(Arc::clone(&ts), config(2, false), sim.clone())
        .unwrap()
        .run()
        .unwrap();
    let par = run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim, opts(false)).unwrap();
    // The parallel run really crossed shards.
    assert!(
        par.engine_stats.cross_activations >= 10,
        "expected routed activations, got {}",
        par.engine_stats.cross_activations
    );
    // Successors genuinely ran on their own (foreign) worker.
    for r in par.records.iter().filter(|r| r.task.index() == 1) {
        assert_eq!(r.worker, WorkerId::new(1), "a_dst pinned to worker 1");
    }
    assert_same_trace(&single, &par);
}

#[test]
fn cross_shard_protocol_loop_is_deterministic() {
    let ts = cross_shard_set();
    let mut sim = SimConfig::uniform(2, ms(120));
    sim.measure_engine_time = true;
    let run =
        || run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim.clone(), opts(false));
    let x = run().unwrap();
    let y = run().unwrap();
    assert_eq!(x.records.len(), y.records.len());
    for (a, b) in x.records.iter().zip(&y.records) {
        assert_eq!(a, b);
    }
    // A sharded run records measured scheduler overhead like a single
    // simulation.
    assert!(x.sched_overhead_ns.count() > 10);
}

#[test]
fn cross_shard_sporadic_commands_merge_in_global_time_order() {
    // Regression: the driver once applied every sporadic activation
    // due before the *pre-pass* event minimum in one batch, so shard
    // 1's sporadic at 4 ms was dispatched before shard 0's finish at
    // ~2 ms emitted its cross-shard token — the successor then found
    // worker 1 busy and started late, diverging from the single-owner
    // reference. Arrivals and every other event of every shard must
    // interleave in one global time order.
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let mut b = TaskSetBuilder::new();
    let s0 = b
        .task_decl(
            TaskSpec::sporadic("s0", ms(40))
                .with_release_offset(us(1_003))
                .on_worker(w0),
        )
        .unwrap();
    let d = b
        .task_decl(TaskSpec::graph_node("d").on_worker(w1))
        .unwrap();
    let s1 = b
        .task_decl(
            TaskSpec::sporadic("s1", ms(40))
                .with_release_offset(us(4_001))
                .on_worker(w1),
        )
        .unwrap();
    b.version_decl(s0, VersionSpec::new("s0", us(1_009)))
        .unwrap();
    b.version_decl(d, VersionSpec::new("d", us(1_013))).unwrap();
    b.version_decl(s1, VersionSpec::new("s1", us(5_003)))
        .unwrap();
    let c = b.channel_decl("c", 1, 8);
    b.channel_connect(s0, d, c).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let sim = SimConfig::uniform(2, ms(40));
    let single = Simulation::new(Arc::clone(&ts), config(2, false), sim.clone())
        .unwrap()
        .run()
        .unwrap();
    let par = run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim, opts(false)).unwrap();
    // The successor must start right after its predecessor (~2.012 ms),
    // before the 4.001 ms sporadic occupies worker 1.
    let d_rec = par
        .records
        .iter()
        .find(|r| r.task == d)
        .expect("successor completed");
    assert_eq!(d_rec.first_start, Instant::from_nanos(2_012_000));
    assert_same_trace(&single, &par);
}

/// Everything lands on worker 0 (four 10 ms sporadic one-shot jobs);
/// worker 1 owns only a light periodic tick source.
fn imbalanced_set() -> Arc<TaskSet> {
    let mut b = TaskSetBuilder::new();
    for i in 0..4u64 {
        let t = b
            .task_decl(
                TaskSpec::sporadic(format!("h{i}"), ms(500))
                    .with_release_offset(us(701 + 4 * i))
                    .on_worker(WorkerId::new(0)),
            )
            .unwrap();
        b.version_decl(t, VersionSpec::new("h", ms(10))).unwrap();
    }
    let light = b
        .task_decl(TaskSpec::periodic("light", ms(10)).on_worker(WorkerId::new(1)))
        .unwrap();
    b.version_decl(light, VersionSpec::new("l", us(103)))
        .unwrap();
    Arc::new(b.build().unwrap())
}

fn makespan(r: &SimResult) -> Instant {
    r.records
        .iter()
        .filter(|rec| rec.task.index() < 4)
        .map(|rec| rec.completion)
        .max()
        .expect("heavy jobs completed")
}

#[test]
fn stealing_lowers_the_makespan_of_an_imbalanced_set() {
    let ts = imbalanced_set();
    let sim = SimConfig::uniform(2, ms(100));
    let no_steal =
        run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim.clone(), opts(false))
            .unwrap();
    let steal =
        run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim, opts(true)).unwrap();

    // All four heavy jobs complete in both runs.
    for r in [&no_steal, &steal] {
        assert_eq!(
            r.records.iter().filter(|rec| rec.task.index() < 4).count(),
            4
        );
    }
    assert_eq!(no_steal.engine_stats.stolen, 0);
    assert!(
        steal.engine_stats.stolen >= 1,
        "the idle shard must steal: {:?}",
        steal.engine_stats
    );
    assert_eq!(steal.engine_stats.stolen, steal.engine_stats.donated);
    // Stolen jobs really ran on the foreign worker.
    assert!(steal
        .records
        .iter()
        .any(|rec| rec.task.index() < 4 && rec.worker == WorkerId::new(1)));
    let (m0, m1) = (makespan(&no_steal), makespan(&steal));
    assert!(m1 < m0, "stealing must lower the makespan: {m1} !< {m0}");
    // Serial execution on worker 0 takes ~40 ms; two workers should
    // roughly halve it.
    assert!(m0 >= Instant::from_nanos(40_000_000));
    assert!(m1 <= Instant::from_nanos(31_000_000));
}

/// PR 10 acceptance, batch stealing: 24 tasks — 20 short heavy
/// one-shots plus a train of three accelerator-bound jobs on worker 0,
/// and a light tick source on worker 1. The accel jobs carry the
/// shortest deadlines, so once they land they head worker 0's EDF
/// queue and **close the steal window** (the steal probe refuses
/// accel-bound heads). A k=1 thief grabs only a couple of heavies
/// before the window shuts and then idles; a batched thief prefetches
/// half the victim's queue in one exchange and keeps working straight
/// through the closed window — measurably lowering the heavy-set
/// makespan. Reruns stay bit-identical.
///
/// k = 1 is a batch of one: every exchange rides the same grant and is
/// booked in the length-1 bucket. The constants are the schedule a
/// dedicated single-steal path produced for this scenario before it was
/// deleted — what the surviving path must keep.
#[test]
fn batch_steals_beat_single_steals_when_the_steal_window_closes() {
    let mut b = TaskSetBuilder::new();
    for i in 0..20u64 {
        let t = b
            .task_decl(
                TaskSpec::sporadic(format!("h{i}"), ms(500))
                    .with_release_offset(us(701 + 4 * i))
                    .on_worker(WorkerId::new(0)),
            )
            .unwrap();
        b.version_decl(t, VersionSpec::new("h", ms(2))).unwrap();
    }
    let gpu = b.hwaccel_decl("gpu");
    for i in 0..3u64 {
        let t = b
            .task_decl(
                TaskSpec::sporadic(format!("g{i}"), ms(60))
                    .with_release_offset(us(3_101 + 10 * i))
                    .on_worker(WorkerId::new(0)),
            )
            .unwrap();
        b.version_decl(t, VersionSpec::new("g", ms(15)).with_accel(gpu))
            .unwrap();
    }
    let light = b
        .task_decl(TaskSpec::periodic("light", ms(10)).on_worker(WorkerId::new(1)))
        .unwrap();
    b.version_decl(light, VersionSpec::new("l", us(103)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());
    assert_eq!(ts.tasks().len(), 24, "the scenario is a 24-task set");

    let sim = SimConfig::uniform(2, ms(150));
    let run = |steal_batch: usize| {
        run_partitioned_parallel(
            Arc::clone(&ts),
            config(2, true),
            sim.clone(),
            ParSimOptions {
                steal_batch,
                ..opts(true)
            },
        )
        .unwrap()
    };
    let single = run(1);
    let batched = run(8);

    let heavy_makespan = |r: &SimResult| {
        r.records
            .iter()
            .filter(|rec| rec.task.index() < 20)
            .map(|rec| rec.completion)
            .max()
            .expect("heavy jobs completed")
    };
    for r in [&single, &batched] {
        assert_eq!(
            r.records.iter().filter(|rec| rec.task.index() < 20).count(),
            20,
            "every heavy one-shot completes"
        );
        assert!(r.engine_stats.stolen >= 1);
        assert_eq!(r.engine_stats.stolen, r.engine_stats.donated);
    }
    // k = 1: one job per exchange, every exchange booked.
    assert_eq!(single.engine_stats.stolen_batch, single.engine_stats.stolen);
    assert_eq!(
        single.engine_stats.steal_batch_len[0],
        single.engine_stats.stolen_batch
    );
    assert_eq!(single.records.len(), 42);
    assert_eq!(single.engine_stats.stolen, 14);
    assert_eq!(single.engine_stats.donated, 14);
    assert_eq!(single.engine_stats.dispatched, 43);
    assert_eq!(heavy_makespan(&single), Instant::from_nanos(58_907_000));
    // k = 8: at least one exchange moved more than one job.
    assert!(batched.engine_stats.stolen_batch >= 1);
    assert!(
        batched.engine_stats.steal_batch_len[1..]
            .iter()
            .sum::<u64>()
            >= 1,
        "a multi-job grant happened: {:?}",
        batched.engine_stats.steal_batch_len
    );
    let (m1, mk) = (heavy_makespan(&single), heavy_makespan(&batched));
    assert!(
        mk < m1,
        "batch steals must lower the heavy makespan: {mk} !< {m1}"
    );
    // Deterministic: a rerun of the batched steal pass is
    // bit-identical, batch sizing included.
    let again = run(8);
    assert_eq!(batched.records, again.records);
    assert_eq!(batched.engine_stats.stolen, again.engine_stats.stolen);
    assert_eq!(
        batched.engine_stats.steal_batch_len,
        again.engine_stats.steal_batch_len
    );
}

#[test]
fn stealing_run_is_deterministic() {
    let ts = imbalanced_set();
    let sim = SimConfig::uniform(2, ms(60));
    let run =
        || run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim.clone(), opts(true));
    let x = run().unwrap();
    let y = run().unwrap();
    assert_eq!(x.records, y.records);
    assert_eq!(x.engine_stats.stolen, y.engine_stats.stolen);
}

/// PR 8 acceptance: scheduled high-lane message events are delivered
/// deterministically at event boundaries, produce the *same trace* in
/// the single-owner reference and the sharded driver, and the boost
/// visibly reorders dispatch.
#[test]
fn message_boost_matches_single_owner_reference() {
    use yasmin_core::priority::Priority;
    use yasmin_sched::MsgEvent;
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    // Worker 0: a blocker (earliest deadline) plus two queued tasks m1
    // (deadline 40 ms) and m2 (deadline 80 ms). Without the boost EDF
    // runs m1 before m2; the high post at 2.001 ms — while both wait
    // behind the blocker — must flip that order. Worker 1 only carries
    // a light tick source. WCETs/offsets are odd so no event ties.
    let mut b = TaskSetBuilder::new();
    let blocker = b
        .task_decl(TaskSpec::periodic("blocker", ms(20)).on_worker(w0))
        .unwrap();
    let m1 = b
        .task_decl(TaskSpec::periodic("m1", ms(40)).on_worker(w0))
        .unwrap();
    let m2 = b
        .task_decl(TaskSpec::periodic("m2", ms(80)).on_worker(w0))
        .unwrap();
    let light = b
        .task_decl(TaskSpec::periodic("light", ms(20)).on_worker(w1))
        .unwrap();
    b.version_decl(blocker, VersionSpec::new("b", us(5_003)))
        .unwrap();
    b.version_decl(m1, VersionSpec::new("m1", us(3_001)))
        .unwrap();
    b.version_decl(m2, VersionSpec::new("m2", us(2_003)))
        .unwrap();
    b.version_decl(light, VersionSpec::new("l", us(103)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());

    let mut sim = SimConfig::uniform(2, ms(40));
    sim.msg_schedule = vec![
        (
            us(2_001),
            MsgEvent::HighPosted {
                dst: m2,
                ceiling: Priority::HIGHEST,
            },
        ),
        (us(8_501), MsgEvent::HighDrained { dst: m2 }),
    ];

    let single = Simulation::new(Arc::clone(&ts), config(2, false), sim.clone())
        .unwrap()
        .run()
        .unwrap();
    let par = run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim, opts(false)).unwrap();

    for r in [&single, &par] {
        assert_eq!(r.engine_stats.msg_boosts, 1, "{:?}", r.engine_stats);
        let start_of = |t| {
            r.records
                .iter()
                .find(|rec| rec.task == t)
                .expect("completed")
                .first_start
        };
        assert!(
            start_of(m2) < start_of(m1),
            "the boosted m2 must dispatch before the shorter-deadline m1 \
             ({} !< {})",
            start_of(m2),
            start_of(m1)
        );
        assert_eq!(start_of(m2), Instant::from_nanos(5_003_000));
    }
    assert_same_trace(&single, &par);

    // Determinism: the same schedule replays to an identical trace.
    let mut sim2 = SimConfig::uniform(2, ms(40));
    sim2.msg_schedule = vec![(
        us(2_001),
        MsgEvent::HighPosted {
            dst: m2,
            ceiling: Priority::HIGHEST,
        },
    )];
    let x = run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim2.clone(), opts(false))
        .unwrap();
    let y = run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim2, opts(false)).unwrap();
    assert_eq!(x.records, y.records);
}

/// A shard is a full `Simulation`, so a cross-shard run follows a mode
/// schedule (every shard switches at the scheduled instant) and matches
/// the single-owner trace — `InvalidConfig` before the drivers merged.
#[test]
fn cross_shard_dag_with_a_mode_schedule_matches_single_owner_reference() {
    use yasmin_core::config::VersionPolicy;
    use yasmin_core::version::{ExecMode, ModeMask};
    const ALT: ExecMode = ExecMode::new(1);
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let mut b = TaskSetBuilder::new();
    let src = b
        .task_decl(TaskSpec::periodic("src", ms(20)).on_worker(w0))
        .unwrap();
    let dst = b
        .task_decl(TaskSpec::graph_node("dst").on_worker(w1))
        .unwrap();
    let local = b
        .task_decl(TaskSpec::periodic("local", ms(40)).on_worker(w1))
        .unwrap();
    // Every task is slower in the alternative mode, by odd amounts.
    for (t, normal, alt) in [
        (src, 3_137, 4_649),
        (dst, 2_411, 5_003),
        (local, 5_071, 6_121),
    ] {
        for (name, wcet, mode) in [("n", normal, ExecMode::NORMAL), ("a", alt, ALT)] {
            let v = VersionSpec::new(name, us(wcet)).with_modes(ModeMask::only(mode));
            b.version_decl(t, v).unwrap();
        }
    }
    let c = b.channel_decl("c", 1, 8);
    b.channel_connect(src, dst, c).unwrap();
    let ts = Arc::new(b.build().unwrap());

    let config = |sharded: bool| {
        Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(sharded)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::Mode)
            .preemption(false)
            .build()
            .unwrap()
    };
    let mut sim = SimConfig::uniform(2, ms(200));
    sim.mode_schedule = vec![(us(70_001), ALT), (us(150_001), ExecMode::NORMAL)];
    let single = Simulation::new(Arc::clone(&ts), config(false), sim.clone())
        .unwrap()
        .run()
        .unwrap();
    let par = run_partitioned_parallel(Arc::clone(&ts), config(true), sim, opts(false)).unwrap();
    // Both shards really switched: each ran both versions of a task.
    for task in [src, dst] {
        let versions: std::collections::BTreeSet<_> =
            par.records_of(task).map(|r| r.version).collect();
        assert_eq!(versions.len(), 2, "{task} ran in both modes");
    }
    assert!(par.engine_stats.cross_activations >= 9);
    assert_same_trace(&single, &par);
}

/// A kernel model samples a wake-up latency per dispatch from each
/// shard's own stream: a cross-shard run under one is reproducible, and
/// the latency shows in every start — `InvalidConfig` before the
/// drivers merged.
#[test]
fn cross_shard_dag_with_a_kernel_model_is_deterministic() {
    let ts = cross_shard_set();
    let mut sim = SimConfig::uniform(2, ms(200));
    sim.kernel = Some(yasmin_sim::KernelKind::PreemptRt);
    sim.stress = yasmin_sim::StressProfile::PAPER;
    sim.seed = 7;
    let run =
        || run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim.clone(), opts(false));
    let x = run().unwrap();
    let y = run().unwrap();
    assert_eq!(x.records, y.records);
    assert!(x.engine_stats.cross_activations >= 10);
    assert!(x.records.len() >= 28);
    for r in &x.records {
        assert!(
            r.start_latency() >= us(170),
            "kernel base latency applies: {}",
            r.start_latency()
        );
    }
    sim.seed = 8;
    let z = run_partitioned_parallel(Arc::clone(&ts), config(2, true), sim, opts(false)).unwrap();
    assert_ne!(
        x.records, z.records,
        "the seed reaches the shards' samplers"
    );
}

#[test]
fn protocol_loop_rejects_preemptive_configs() {
    let ts = cross_shard_set();
    let preemptive = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap();
    let err = run_partitioned_parallel(ts, preemptive, SimConfig::uniform(2, ms(50)), opts(false));
    assert!(err.is_err());
}
