//! Multi-tenant serving — admit a tenant into a *running* schedule,
//! let it execute under a budget, then retire it.
//!
//! The runtime starts with one build-time task set (tenant 0). While it
//! is running, a second task set arrives. An admission gate on the
//! caller's (non-real-time) thread re-runs the schedulability analysis
//! over the merged set; only if every bound still holds is the tenant
//! spliced into the live engine — over the same control lanes the
//! scheduler shards already drain — with its releases anchored to the
//! next tick edge so the first deadline is as safe as the analysis
//! assumed. A third, oversubscribed task set is refused with the exact
//! bound it violates, and the running schedule never hears of it.
//! Retirement returns the tenant's bandwidth: a task set that needs a
//! whole worker is refused while the guest is live and admitted once it
//! has retired.
//!
//! Run: `cargo run --release --example multi_tenant`
//!
//! See `yasmin_sched::admission` for the full tenancy model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use yasmin::prelude::*;

const MS: u64 = 1_000; // microseconds per millisecond

fn ms(n: u64) -> Duration {
    Duration::from_micros(n * MS)
}

/// A single-task tenant: one periodic task pinned to `worker`, one
/// version, one body that bumps `counter`. Tenants are ordinary task
/// sets — built with the same `TaskSetBuilder` as the build-time set.
fn tenant_taskset(
    name: &str,
    period: Duration,
    wcet: Duration,
    worker: u16,
    counter: &Arc<AtomicU32>,
) -> (TaskSet, HashMap<(TaskId, VersionId), TaskBody>) {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(TaskSpec::periodic(name, period).on_worker(WorkerId::new(worker)))
        .expect("task decl");
    let v = b
        .version_decl(t, VersionSpec::new("v", wcet))
        .expect("version decl");
    let c = Arc::clone(counter);
    let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
    // Bodies are keyed by the tenant's *local* ids; the runtime remaps
    // them onto the merged id space during the splice.
    bodies.insert(
        (t, v),
        Arc::new(move |_: &JobCtx| {
            c.fetch_add(1, Ordering::Relaxed);
        }),
    );
    (b.build().expect("tenant build"), bodies)
}

fn main() -> Result<(), yasmin::Error> {
    // ----- tenant 0: the build-time task set ---------------------------
    // One 5 ms periodic task pinned to worker 0. Partitioned mapping +
    // sharded dispatch gives each worker its own scheduler shard, so the
    // tenant we admit later lands on worker 1 without ever contending
    // with this one.
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()?;

    let mut b = TaskSetBuilder::new();
    let base = b.task_decl(TaskSpec::periodic("base", ms(5)).on_worker(WorkerId::new(0)))?;
    let vb = b.version_decl(base, VersionSpec::new("v", Duration::from_micros(60)))?;
    let taskset = Arc::new(b.build()?);

    let base_runs = Arc::new(AtomicU32::new(0));
    let br = Arc::clone(&base_runs);
    let rt = RuntimeBuilder::new(taskset, config)
        .body(base, vb, move |_| {
            br.fetch_add(1, Ordering::Relaxed);
        })
        .build()?;
    std::thread::sleep(std::time::Duration::from_millis(15));
    println!(
        "schedule running: tenant 0 completed {} jobs",
        base_runs.load(Ordering::Relaxed)
    );

    // ----- admit: a well-behaved tenant with a budget ------------------
    // 10 ms period, 80 µs WCET, pinned to worker 1. The deferrable
    // budget caps the tenant at 2 ms of CPU per 10 ms window *per
    // shard* — overrunning jobs are deferred, not dropped, and the
    // build-time tenant is insulated either way.
    let tenant_runs = Arc::new(AtomicU32::new(0));
    let (cand, bodies) =
        tenant_taskset("guest", ms(10), Duration::from_micros(80), 1, &tenant_runs);
    let tenant = rt
        .admit(&cand, bodies, Some(TenantBudget::deferrable(ms(2), ms(10))))
        .expect("guest tenant passes every bound");
    println!("tenant {} admitted while the schedule runs", tenant.raw());
    // Its candidate-local T0 runs as this merged id.
    let guest_task = rt.first_task(tenant).expect("the guest is live");

    // ----- reject: an oversubscribed tenant ----------------------------
    // 12 ms of work every 10 ms on worker 1 — density 1.2. The gate
    // names the violated bound; no scheduler thread ever saw the set.
    let noop = Arc::new(AtomicU32::new(0));
    let (bad, bad_bodies) = tenant_taskset("greedy", ms(10), ms(12), 1, &noop);
    match rt.admit(&bad, bad_bodies, None) {
        Err(AdmissionError::Rejected(violation)) => {
            println!("greedy tenant refused: {violation}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // A tenant declaring 9.95 ms of work every 10 ms needs worker 1 to
    // itself: beside the guest (density 0.008) it is refused too.
    let heir_runs = Arc::new(AtomicU32::new(0));
    let heir = || tenant_taskset("heir", ms(10), Duration::from_micros(9_950), 1, &heir_runs);
    let (cand, bodies) = heir();
    match rt.admit(&cand, bodies, None) {
        Err(AdmissionError::Rejected(violation)) => {
            println!("heir refused while the guest is live: {violation}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // ----- run, then retire --------------------------------------------
    std::thread::sleep(std::time::Duration::from_millis(50));
    let served = tenant_runs.load(Ordering::Relaxed);
    rt.retire(tenant)?;
    println!("tenant {} retired after {served} jobs", tenant.raw());

    // ----- re-admit: the retired tenant's bandwidth is back ------------
    // The analysis forgets a retired tenant: the same request now
    // passes. Tenant ids are never reused (the heir becomes tenant 2),
    // but the guest's slot goes to the next tenant of its shape: the
    // heir's task runs as the guest's did, T1.
    let (cand, bodies) = heir();
    let heir_id = rt
        .admit(&cand, bodies, None)
        .expect("the retired guest's bandwidth is available again");
    assert_eq!(
        rt.first_task(heir_id),
        Some(guest_task),
        "the heir takes the slot"
    );
    assert_eq!(rt.first_task(tenant), None, "the guest is gone");
    println!(
        "heir admitted as tenant {} in the guest's slot ({guest_task}) after the retire",
        heir_id.raw()
    );

    std::thread::sleep(std::time::Duration::from_millis(30));
    rt.stop();
    let report = rt.cleanup();

    // Tenant 0 ran undisturbed from start to stop; the guest's jobs all
    // ran on its own worker and none after the in-flight one at retire.
    // The heir's jobs of the shared task id continue its sequence
    // numbers: the guest's are the first ones.
    let mut seqs: Vec<u64> = (report.records.iter())
        .filter(|r| r.job.task == guest_task)
        .map(|r| r.job.seq)
        .collect();
    seqs.sort_unstable();
    let heir_recs = heir_runs.load(Ordering::Relaxed) as usize;
    let guest_recs = seqs.len() - heir_recs;
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "one job per (task, seq)"
    );
    println!(
        "final tally: tenant 0 ran {} jobs, guest ran {} (records agree: {}), heir ran {}",
        base_runs.load(Ordering::Relaxed),
        tenant_runs.load(Ordering::Relaxed),
        guest_recs,
        heir_runs.load(Ordering::Relaxed)
    );
    assert!(heir_recs > 0, "the re-admitted tenant ran");
    assert_eq!(
        guest_recs,
        tenant_runs.load(Ordering::Relaxed) as usize,
        "every guest job has its record"
    );
    Ok(())
}
