//! Acceptance checks for on-line admission in the deterministic
//! simulator:
//!
//! * a tenant admitted into a *running* partitioned system executes and
//!   meets its deadlines;
//! * admitting and then retiring tenant B leaves tenant A's trace
//!   **identical** to a solo run of A (every [`JobRecord`] field except
//!   `job` — the single-owner engine numbers jobs from one shared
//!   counter, so absolute ids shift when B's jobs interleave);
//! * retirement quiesces B: no B completion after the retire instant's
//!   in-flight jobs drain, and B's periodic releases stop;
//! * a rejected tenant names the violated analysis bound and perturbs
//!   nothing.

use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::ids::{TaskId, WorkerId};
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::VersionSpec;
use yasmin_sched::admission::{AdmissionError, BoundViolation};
use yasmin_sched::server::TenantBudget;
use yasmin_sim::{JobRecord, SimConfig, Simulation};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn config(workers: usize) -> Config {
    Config::builder()
        .workers(workers)
        .mapping(MappingScheme::Partitioned)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap()
}

/// Tenant A (the build-time set): two periodic tasks on worker 0.
fn tenant_a() -> Arc<TaskSet> {
    let mut b = TaskSetBuilder::new();
    for (name, period, wcet) in [("a_fast", 10, 2), ("a_slow", 20, 3)] {
        let t = b
            .task_decl(TaskSpec::periodic(name, ms(period)).on_worker(WorkerId::new(0)))
            .unwrap();
        b.version_decl(t, VersionSpec::new(name, ms(wcet))).unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// Tenant B: one periodic task on worker 1 (its own id space).
fn tenant_b(wcet_ms: u64) -> TaskSet {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("b_task", ms(10)).on_worker(WorkerId::new(1)))
        .unwrap();
    b.version_decl(t, VersionSpec::new("b", ms(wcet_ms)))
        .unwrap();
    b.build().unwrap()
}

/// Every field except the absolute job id (see module docs).
fn key(r: &JobRecord) -> impl PartialEq + std::fmt::Debug {
    (
        r.task,
        r.seq,
        r.release,
        r.graph_release,
        r.abs_deadline,
        r.first_start,
        r.completion,
        r.version,
        r.worker,
        r.preemptions,
    )
}

#[test]
fn admitted_tenant_runs_and_meets_deadlines() {
    let mut sim = Simulation::new(tenant_a(), config(2), SimConfig::uniform(2, ms(200))).unwrap();
    let tenant = sim
        .admit_at(
            ms(50),
            &tenant_b(2),
            Some(TenantBudget::deferrable(ms(4), ms(10))),
        )
        .unwrap();
    assert_eq!(tenant.raw(), 1);
    let res = sim.run().unwrap();
    // B's task is merged id 2 (after A's two tasks); admitted at 50ms
    // into a 200ms run with a 10ms period -> 15 releases, all on time.
    let b_task = TaskId::new(2);
    let b_records: Vec<_> = res.records_of(b_task).collect();
    assert_eq!(b_records.len(), 15, "B releases from the commit instant");
    assert_eq!(res.miss_count(b_task), 0);
    assert!(
        b_records
            .iter()
            .all(|r| r.release >= Instant::ZERO + ms(50)),
        "no B release before its admission"
    );
    assert!(
        b_records.iter().all(|r| r.worker == WorkerId::new(1)),
        "B is partitioned onto worker 1"
    );
    assert_eq!(res.total_misses(), 0);
}

#[test]
fn mid_run_tenant_leaves_other_tenants_trace_unchanged() {
    let horizon = ms(300);
    // Reference: A alone.
    let solo = Simulation::new(tenant_a(), config(2), SimConfig::uniform(2, horizon))
        .unwrap()
        .run()
        .unwrap();
    // Same run with B admitted at 60ms and retired at 180ms.
    let mut sim = Simulation::new(tenant_a(), config(2), SimConfig::uniform(2, horizon)).unwrap();
    let b = sim.admit_at(ms(60), &tenant_b(3), None).unwrap();
    sim.retire_at(ms(180), b).unwrap();
    let shared = sim.run().unwrap();

    // A's records (tasks 0 and 1) must match the solo run on every
    // field but the absolute job id.
    for task in [TaskId::new(0), TaskId::new(1)] {
        let solo_recs: Vec<_> = solo.records_of(task).map(key).collect();
        let shared_recs: Vec<_> = shared.records_of(task).map(key).collect();
        assert_eq!(
            solo_recs, shared_recs,
            "task {task} trace perturbed by tenant B's lifecycle"
        );
    }

    // B ran while admitted and was quiesced by the retire: releases
    // stop at 180ms, so the last completion is its 170ms job.
    let b_task = TaskId::new(2);
    let b_recs: Vec<_> = shared.records_of(b_task).collect();
    assert_eq!(b_recs.len(), 12, "12 releases in [60ms, 180ms)");
    let last = b_recs.iter().map(|r| r.completion).max().unwrap();
    assert!(
        last <= Instant::ZERO + ms(180),
        "no B activity after retirement (last completion {last:?})"
    );
    assert_eq!(shared.total_misses(), 0);
}

#[test]
fn rejected_tenant_names_the_bound_and_perturbs_nothing() {
    let horizon = ms(100);
    let solo = Simulation::new(tenant_a(), config(2), SimConfig::uniform(2, horizon))
        .unwrap()
        .run()
        .unwrap();
    let mut sim = Simulation::new(tenant_a(), config(2), SimConfig::uniform(2, horizon)).unwrap();
    // 12ms of work every 10ms on worker 1: density 1.2 > 1.
    match sim.admit_at(ms(20), &tenant_b(12), None) {
        Err(AdmissionError::Rejected(BoundViolation::WorkerOverload { worker, density })) => {
            assert_eq!(worker, WorkerId::new(1));
            assert!(density > 1.0);
        }
        other => panic!("expected worker-overload rejection, got {other:?}"),
    }
    let res = sim.run().unwrap();
    assert_eq!(
        res.records.len(),
        solo.records.len(),
        "a rejected admission must leave the run untouched"
    );
    for (a, b) in solo.records.iter().zip(res.records.iter()) {
        assert_eq!(key(a), key(b));
    }
}

#[test]
fn stacked_admissions_get_sequential_tenant_ids() {
    let mut sim = Simulation::new(tenant_a(), config(2), SimConfig::uniform(2, ms(100))).unwrap();
    let t1 = sim.admit_at(ms(10), &tenant_b(1), None).unwrap();
    let t2 = sim.admit_at(ms(30), &tenant_b(1), None).unwrap();
    assert_eq!((t1.raw(), t2.raw()), (1, 2));
    // Out-of-order scheduling is refused.
    assert!(matches!(
        sim.admit_at(ms(20), &tenant_b(1), None),
        Err(AdmissionError::Invalid(_))
    ));
    let res = sim.run().unwrap();
    // Merged ids: first B copy is task 2, second is task 3.
    assert!(res.records_of(TaskId::new(2)).count() > 0);
    assert!(res.records_of(TaskId::new(3)).count() > 0);
    assert_eq!(res.total_misses(), 0);
}

/// Base U = 0.2 on worker 1; a U = 0.5 tenant admitted and retired three
/// times over. Each admission is scheduled after the previous tenant's
/// `retire_at` at the same instant, so it is analysed without it — and a
/// second copy *beside* a still-live one is refused.
#[test]
fn retired_bandwidth_is_returned() {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic("base", ms(10)).on_worker(WorkerId::new(1)))
        .unwrap();
    b.version_decl(t, VersionSpec::new("v", ms(2))).unwrap();
    let base = Arc::new(b.build().unwrap());
    let mut sim = Simulation::new(base, config(2), SimConfig::uniform(2, ms(400))).unwrap();

    let mut live = sim.admit_at(ms(20), &tenant_b(5), None).unwrap();
    match sim.admit_at(ms(50), &tenant_b(5), None) {
        Err(AdmissionError::Rejected(BoundViolation::WorkerOverload { density, .. })) => {
            assert!((density - 1.2).abs() < 1e-9, "density = {density}");
        }
        other => panic!("expected an overload beside the live tenant, got {other:?}"),
    }
    let mut copies = vec![live];
    for round in 1..3u64 {
        let at = ms(20 + 100 * round);
        sim.retire_at(at, live).unwrap();
        live = sim
            .admit_at(at, &tenant_b(5), None)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        copies.push(live);
    }
    // Each copy takes the slot the one before it left: task T1.
    for &copy in &copies {
        assert_eq!(sim.first_task(copy), Some(TaskId::new(1)));
    }
    // A retirement scheduled *later* than an admission stays in its view.
    sim.retire_at(ms(350), live).unwrap();
    assert!(matches!(
        sim.admit_at(ms(300), &tenant_b(5), None),
        Err(AdmissionError::Rejected(_))
    ));

    let res = sim.run().unwrap();
    assert_eq!(res.total_misses(), 0, "the analysis held at run time");
    // Each copy ran as T1 for its own ≥ 100 ms window.
    for round in 0..3u64 {
        let window = Instant::ZERO + ms(20 + 100 * round)..Instant::ZERO + ms(120 + 100 * round);
        let mine = |r: &&JobRecord| window.contains(&r.release);
        let n = res.records_of(TaskId::new(1)).filter(mine).count();
        assert!(n >= 9, "copy {round} ran {n} jobs");
    }
}
