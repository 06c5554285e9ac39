//! End-to-end tests of the real-thread runtime through the public facade.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use yasmin::prelude::*;

fn base_config(workers: usize) -> Config {
    Config::builder()
        .workers(workers)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .expect("valid config")
}

#[test]
fn diamond_graph_flows_data_end_to_end() {
    let mut b = TaskSetBuilder::new();
    let fork = b
        .task_decl(TaskSpec::periodic("fork", Duration::from_millis(5)))
        .unwrap();
    let left = b.task_decl(TaskSpec::graph_node("left")).unwrap();
    let right = b.task_decl(TaskSpec::graph_node("right")).unwrap();
    let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
    let mut vs = Vec::new();
    for t in [fork, left, right, join] {
        vs.push(
            b.version_decl(t, VersionSpec::new("v", Duration::from_micros(30)))
                .unwrap(),
        );
    }
    for (i, (s, d)) in [(fork, left), (fork, right), (left, join), (right, join)]
        .into_iter()
        .enumerate()
    {
        let c = b.channel_decl(format!("c{i}"), 4, 8);
        b.channel_connect(s, d, c).unwrap();
    }
    let ts = Arc::new(b.build().unwrap());

    let (ltx, lrx) = yasmin::sync::spsc::channel::<u64>(16);
    let (rtx, rrx) = yasmin::sync::spsc::channel::<u64>(16);
    let (ltx, lrx) = (Mutex::new(ltx), Mutex::new(lrx));
    let (rtx, rrx) = (Mutex::new(rtx), Mutex::new(rrx));
    let sum = Arc::new(AtomicU32::new(0));
    let sum_join = Arc::clone(&sum);

    let rt = RuntimeBuilder::new(ts, base_config(2))
        .body(fork, vs[0], |_| {})
        .body(left, vs[1], move |ctx| {
            let _ = ltx.lock().unwrap().push(ctx.job.seq + 1);
        })
        .body(right, vs[2], move |ctx| {
            let _ = rtx.lock().unwrap().push(ctx.job.seq + 1);
        })
        .body(join, vs[3], move |_| {
            let l = lrx.lock().unwrap().pop().unwrap_or(0);
            let r = rrx.lock().unwrap().pop().unwrap_or(0);
            assert_eq!(l, r, "join consumed mismatched frames");
            sum_join.fetch_add(l as u32, Ordering::SeqCst);
        })
        .build()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(60));
    rt.stop();
    let report = rt.cleanup();
    assert!(sum.load(Ordering::SeqCst) > 0);
    // Every completed frame ran the four tasks exactly once.
    let count = |t: TaskId| report.records.iter().filter(|r| r.job.task == t).count();
    assert_eq!(count(left), count(join));
    assert_eq!(count(right), count(join));
    assert!(count(fork) >= count(join));
    assert_eq!(report.engine_stats.channel_overflows, 0);
}

#[test]
fn partitioned_runtime_respects_pinning() {
    let mut b = TaskSetBuilder::new();
    let t0 = b
        .task_decl(TaskSpec::periodic("w0", Duration::from_millis(4)).on_worker(WorkerId::new(0)))
        .unwrap();
    let t1 = b
        .task_decl(TaskSpec::periodic("w1", Duration::from_millis(4)).on_worker(WorkerId::new(1)))
        .unwrap();
    let v0 = b
        .version_decl(t0, VersionSpec::new("v", Duration::from_micros(20)))
        .unwrap();
    let v1 = b
        .version_decl(t1, VersionSpec::new("v", Duration::from_micros(20)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .priority(PriorityPolicy::DeadlineMonotonic)
        .preemption(false)
        .build()
        .unwrap();
    let rt = RuntimeBuilder::new(ts, config)
        .body(t0, v0, |ctx| assert_eq!(ctx.worker, WorkerId::new(0)))
        .body(t1, v1, |ctx| assert_eq!(ctx.worker, WorkerId::new(1)))
        .build()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    rt.stop();
    let report = rt.cleanup();
    for r in &report.records {
        let expected = if r.job.task == t0 { 0 } else { 1 };
        assert_eq!(r.worker.index(), expected);
    }
    assert!(report.records.len() >= 4);
}

#[test]
fn user_defined_priorities_are_honoured() {
    // Two tasks with equal periods; user priority makes t_b strictly more
    // urgent, so on one worker t_b's job always runs before t_a's at each
    // tick.
    let mut b = TaskSetBuilder::new();
    let t_a = b
        .task_decl(
            TaskSpec::periodic("a", Duration::from_millis(6)).with_priority(Priority::new(20)),
        )
        .unwrap();
    let t_b = b
        .task_decl(
            TaskSpec::periodic("b", Duration::from_millis(6)).with_priority(Priority::new(10)),
        )
        .unwrap();
    let va = b
        .version_decl(t_a, VersionSpec::new("v", Duration::from_micros(20)))
        .unwrap();
    let vb = b
        .version_decl(t_b, VersionSpec::new("v", Duration::from_micros(20)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::UserDefined)
        .preemption(false)
        .build()
        .unwrap();
    let rt = RuntimeBuilder::new(ts, config)
        .body(t_a, va, |_| {})
        .body(t_b, vb, |_| {})
        .build()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    rt.stop();
    let report = rt.cleanup();
    // In every release — the pair of jobs with one `seq` — b starts
    // before a. Pairing executions in the order they happened instead
    // would fail on a host stall longer than the period: two releases in
    // one tick run `b b a a`.
    let started = |task, seq| {
        let mut of_job = report.records.iter().filter(|r| r.job.task == task);
        of_job.find(|r| r.job.seq == seq).map(|r| r.started)
    };
    let releases = report.records.iter().filter(|r| r.job.task == t_a).count() as u64;
    assert!(releases >= 2, "only {releases} releases");
    for seq in 0..releases {
        let (a, b) = (started(t_a, seq), started(t_b, seq));
        assert!(
            b.is_some() && b < a,
            "user priority violated in release {seq}: {report:?}"
        );
    }
}

#[test]
fn stop_drains_inflight_jobs() {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("slow", Duration::from_millis(20)))
        .unwrap();
    let v = b
        .version_decl(t, VersionSpec::new("v", Duration::from_millis(5)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());
    let rt = RuntimeBuilder::new(ts, base_config(1))
        .body(t, v, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        })
        .build()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(22));
    rt.stop();
    let report = rt.cleanup(); // must not hang and must keep the records
    assert!(!report.records.is_empty());
    assert_eq!(report.engine_stats.completed, report.records.len() as u64);
}
