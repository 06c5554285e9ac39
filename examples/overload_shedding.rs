//! Fault-tolerant execution under overload: a fast producer floods a
//! slow consumer, and a flaky sensor task panics every few activations.
//!
//! Two PR 9 mechanisms keep the system live:
//!
//! * **Overload shedding** — the consumer joins a fast `frames` edge
//!   (2 ms producer) with a slow `pace` edge (12 ms pacer), so frame
//!   tokens pile up waiting for the next pace token. The `frames`
//!   channel is declared with [`BackpressurePolicy::DropOldest`]: when
//!   the wait fills its declared capacity, the scheduler sheds the
//!   *stalest* pending activation token instead of rejecting the new
//!   one, so each join consumes recent data and the backlog is bounded.
//!   `EngineStats::shed_drops` counts the sheds; `channel_overflows`
//!   stays zero because nothing is ever refused.
//! * **Worker-panic containment** — the sensor body panics on every
//!   third frame. The worker catches the unwind, reports the job as
//!   [`JobOutcome::Failed`], and keeps serving later activations; the
//!   panic messages printed below are the contained unwinds, not
//!   crashes. `EngineStats::failed` counts them.
//!
//! Run: `cargo run --release --example overload_shedding`
//!
//! See `docs/ARCHITECTURE.md` ("Fault model") for the full policy
//! matrix (overrun enforcement, kill/demote, trip wire, drain).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use yasmin::prelude::*;

fn ms(n: u64) -> Duration {
    Duration::from_micros(n * 1_000)
}

fn main() -> Result<(), yasmin::Error> {
    // ----- the graph --------------------------------------------------
    // producer (periodic 2 ms, worker 0) ──frames──▶ consumer (worker 1)
    // pacer    (periodic 12 ms, worker 1) ──pace───▶ consumer  (join)
    // sensor   (periodic 10 ms, worker 0; panics every 3rd activation)
    let mut b = TaskSetBuilder::new();
    let producer =
        b.task_decl(TaskSpec::periodic("producer", ms(2)).on_worker(WorkerId::new(0)))?;
    let vp = b.version_decl(producer, VersionSpec::new("v", Duration::from_micros(50)))?;
    let pacer = b.task_decl(TaskSpec::periodic("pacer", ms(12)).on_worker(WorkerId::new(1)))?;
    let vpc = b.version_decl(pacer, VersionSpec::new("v", Duration::from_micros(50)))?;
    let consumer = b.task_decl(TaskSpec::graph_node("consumer").on_worker(WorkerId::new(1)))?;
    let vc = b.version_decl(consumer, VersionSpec::new("v", Duration::from_micros(200)))?;
    let sensor = b.task_decl(TaskSpec::periodic("sensor", ms(10)).on_worker(WorkerId::new(0)))?;
    let vs = b.version_decl(sensor, VersionSpec::new("v", Duration::from_micros(100)))?;

    // Four pending frame tokens at most; beyond that the scheduler
    // sheds the oldest token rather than rejecting the newest.
    let frames = b.channel_decl_shedding("frames", 4, 8, BackpressurePolicy::DropOldest);
    b.channel_connect(producer, consumer, frames)?;
    let pace = b.channel_decl("pace", 4, 1);
    b.channel_connect(pacer, consumer, pace)?;
    let taskset = Arc::new(b.build()?);

    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()?;

    let mut builder = RuntimeBuilder::new(taskset, config);
    let (frames_tx, frames_rx) = builder.channel::<u64>(frames)?;

    let produced = Arc::new(AtomicU32::new(0));
    let consumed = Arc::new(AtomicU32::new(0));
    let freshest = Arc::new(AtomicU64::new(0));
    let sensed = Arc::new(AtomicU32::new(0));

    let p = Arc::clone(&produced);
    let (c, fresh) = (Arc::clone(&consumed), Arc::clone(&freshest));
    let s = Arc::clone(&sensed);
    let rt = builder
        .body(producer, vp, move |_| {
            let n = u64::from(p.fetch_add(1, Ordering::SeqCst));
            // Lossy payload send: token-side shedding is the
            // scheduler's job, the typed channel only carries the
            // payloads — a full lane here just means the consumer will
            // see a gap, exactly like the shed token it mirrors.
            let _ = frames_tx.send(n);
        })
        .body(pacer, vpc, move |_| {})
        .body(consumer, vc, move |_| {
            // One join per pace token: drain whatever payloads the kept
            // (recent) frame tokens correspond to.
            while let Some(n) = frames_rx.recv() {
                c.fetch_add(1, Ordering::SeqCst);
                fresh.store(n, Ordering::SeqCst);
            }
        })
        .body(sensor, vs, move |_| {
            let k = s.fetch_add(1, Ordering::SeqCst);
            assert!(k % 3 != 2, "sensor glitch on frame {k} (injected)");
        })
        .build()?;

    std::thread::sleep(std::time::Duration::from_millis(150));
    rt.stop();
    let report = rt.cleanup();

    println!(
        "producer emitted {} frames; consumer processed {} (freshest seq {})",
        produced.load(Ordering::SeqCst),
        consumed.load(Ordering::SeqCst),
        freshest.load(Ordering::SeqCst)
    );
    println!(
        "scheduler shed {} stale activation tokens (DropOldest); {} refusals",
        report.engine_stats.shed_drops, report.engine_stats.channel_overflows
    );
    println!(
        "sensor activations: {}, contained panics: {} (worker lived on)",
        sensed.load(Ordering::SeqCst),
        report.engine_stats.failed
    );
    assert!(
        report.engine_stats.shed_drops >= 1,
        "a 2 ms producer joined against a 12 ms pacer must shed"
    );
    assert_eq!(
        report.engine_stats.channel_overflows, 0,
        "DropOldest sheds instead of refusing"
    );
    assert!(
        report.engine_stats.failed >= 1,
        "every third sensor activation panics; containment must record it"
    );
    Ok(())
}
