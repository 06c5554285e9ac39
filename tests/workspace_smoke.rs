//! Workspace smoke test: every member crate links through the `yasmin`
//! facade and its headline types are constructible. This is the
//! first-line defence against manifest rot — a crate dropped from the
//! facade, a broken re-export, or a member that stops compiling fails
//! here before any behavioural test runs.

use std::sync::Arc;
use yasmin::prelude::*;

/// `yasmin-core` via the facade: builder, task, version, channel.
#[test]
fn core_links_and_builds_a_taskset() {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("smoke", Duration::from_millis(10)))
        .expect("task_decl");
    let v = b
        .version_decl(t, VersionSpec::new("v0", Duration::from_micros(100)))
        .expect("version_decl");
    let set = b.build().expect("build");
    assert_eq!(set.task(t).expect("task").versions().len(), 1);
    let _: VersionId = v;
}

/// `yasmin-core::config` via the facade prelude.
#[test]
fn config_links_and_validates() {
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .expect("config");
    assert!(!config.label().is_empty());
}

/// `yasmin-sched` via the facade: the online engine is constructible.
#[test]
fn sched_links_and_constructs_engine() {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("e", Duration::from_millis(5)))
        .expect("task_decl");
    b.version_decl(t, VersionSpec::new("v0", Duration::from_millis(1)))
        .expect("version_decl");
    let ts = Arc::new(b.build().expect("build"));
    let config = Config::builder().workers(1).build().expect("config");
    let engine = OnlineEngine::new(ts, config).expect("engine");
    assert_eq!(engine.stats().dispatched, 0);
}

/// `yasmin-sched::offline` via the facade: table synthesis runs.
#[test]
fn sched_offline_links_and_synthesizes() {
    use yasmin::sched::offline::{synthesize, SynthesisOptions};
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("o", Duration::from_millis(4)))
        .expect("task_decl");
    b.version_decl(t, VersionSpec::new("v0", Duration::from_millis(1)))
        .expect("version_decl");
    let ts = b.build().expect("build");
    let table: ScheduleTable = synthesize(&ts, 1, SynthesisOptions::default()).expect("synthesize");
    assert!(table.validate(&ts).is_ok());
}

/// `yasmin-rt` via the facade: a runtime starts, runs jobs, stops.
#[test]
fn rt_links_and_runs_a_job() {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("rt", Duration::from_millis(2)))
        .expect("task_decl");
    let v = b
        .version_decl(t, VersionSpec::new("v0", Duration::from_micros(10)))
        .expect("version_decl");
    let ts = Arc::new(b.build().expect("build"));
    let config = Config::builder()
        .workers(1)
        .preemption(false) // the thread runtime is job-level non-preemptive
        .build()
        .expect("config");
    let rt = RuntimeBuilder::new(ts, config)
        .body(t, v, |ctx| {
            let _ = ctx.job.seq;
        })
        .build()
        .expect("runtime");
    std::thread::sleep(std::time::Duration::from_millis(20));
    rt.stop();
    let report = rt.cleanup();
    assert!(
        !report.records.is_empty(),
        "runtime produced no job records"
    );
}

/// `yasmin-sim` via the facade: the simulator runs a tiny horizon.
#[test]
fn sim_links_and_simulates() {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("s", Duration::from_millis(5)))
        .expect("task_decl");
    b.version_decl(t, VersionSpec::new("v0", Duration::from_millis(1)))
        .expect("version_decl");
    let ts = Arc::new(b.build().expect("build"));
    let config = Config::builder().workers(1).build().expect("config");
    let sim = SimConfig::uniform(1, Duration::from_millis(50));
    let result = Simulation::new(ts, config, sim)
        .expect("sim")
        .run()
        .expect("run");
    assert!(result.records.len() >= 9, "expected ~10 releases in 50ms");
}

/// `yasmin-sync` via the facade: rings construct.
#[test]
fn sync_links_and_locks() {
    let (mut tx, mut rx) = yasmin::sync::spsc::channel::<u8>(2);
    tx.push(3).expect("push");
    assert_eq!(rx.pop(), Some(3));
}

/// `yasmin-taskgen` via the facade: generators produce valid vectors.
#[test]
fn taskgen_links_and_generates() {
    let d = yasmin::taskgen::drs(8, 2.0, 1.0, 42).expect("drs");
    assert_eq!(d.len(), 8);
    assert!((d.iter().sum::<f64>() - 2.0).abs() < 1e-6);
}

/// `yasmin-analysis` via the facade: the classic bounds answer.
#[test]
fn analysis_links_and_answers() {
    use yasmin::analysis::{edf_utilisation_test, liu_layland_bound, WcetAssumption};
    let bound = liu_layland_bound(2);
    assert!(bound > 0.82 && bound < 0.83);
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("a", Duration::from_millis(10)))
        .expect("task_decl");
    b.version_decl(t, VersionSpec::new("v0", Duration::from_millis(4)))
        .expect("version_decl");
    let ts = b.build().expect("build");
    assert!(edf_utilisation_test(&ts, WcetAssumption::MaxVersion));
}

/// `yasmin-baselines` via the facade: configuration types construct.
#[test]
fn baselines_links_and_configures() {
    let cfg = yasmin::baselines::CyclictestConfig::default();
    let _variant = yasmin::baselines::Variant::Native;
    assert!(cfg.interval >= Duration::from_micros(1));
}

/// `yasmin-bench` via the facade: the experiment harness and its result
/// writer are reachable, and Table 2 defaults to the paper's
/// `cyclictest -t 6 -i 10000 -l 10000`. Writes nothing to `results/`.
#[test]
fn bench_links_and_writes_results() {
    let _: fn(&str, &str) = yasmin::bench::write_result;
    let p = yasmin::bench::table2::Table2Params::default();
    assert_eq!(p.cyclictest.threads, 6);
    assert_eq!(p.cyclictest.interval, Duration::from_micros(10_000));
    assert_eq!(p.cyclictest.loops, 10_000);
}

/// Energy/battery/platform types from the prelude are constructible.
#[test]
fn prelude_value_types_construct() {
    let e = Energy::from_millijoules(5);
    assert!((e.as_millijoules_f64() - 5.0).abs() < 1e-9);
    let p = Power::from_milliwatts(1000);
    let over_1s = p.energy_over(Duration::from_secs(1));
    assert!((over_1s.as_millijoules_f64() - 1000.0).abs() < 1e-6);
    let b = BatteryLevel::from_permille(500);
    assert!(b.as_fraction() > 0.49 && b.as_fraction() < 0.51);
    let plat = PlatformSpec::odroid_xu4();
    assert!(plat.cores().count() >= 1);
}
