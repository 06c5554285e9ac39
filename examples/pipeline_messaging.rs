//! A telemetry pipeline over the typed message plane:
//! producer → filter → sink, with a high-priority control lane.
//!
//! The producer emits one frame every 5 ms over a channel bound to its
//! DAG edge; every fourth frame is urgent and rides the channel's
//! **high lane**, whose declared ceiling the scheduler can see. The
//! filter stage is deliberately slower than the frame period, so a
//! backlog of filter jobs builds up on its worker — and each urgent
//! post boosts the pending filter job to the ceiling through the
//! priority-inheritance machinery until the lane drains, letting
//! control traffic overtake the data backlog. Kept frames cross a
//! second (plain) channel to the sink on the other worker, so the
//! hand-off also exercises the cross-shard routing path.
//!
//! Run: `cargo run --release --example pipeline_messaging`
//!
//! See `yasmin_sched::msg` for the full lane/boost protocol.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use yasmin::prelude::*;

fn ms(n: u64) -> Duration {
    Duration::from_micros(n * 1_000)
}

fn main() -> Result<(), yasmin::Error> {
    // ----- the pipeline graph -----------------------------------------
    // producer (periodic, worker 0) ──frames──▶ filter (worker 1)
    //                                             │
    //                                           kept (plain channel)
    //                                             ▼
    //                                           sink (worker 0)
    let mut b = TaskSetBuilder::new();
    let producer =
        b.task_decl(TaskSpec::periodic("producer", ms(5)).on_worker(WorkerId::new(0)))?;
    let vp = b.version_decl(producer, VersionSpec::new("v", Duration::from_micros(50)))?;
    let filter = b.task_decl(TaskSpec::graph_node("filter").on_worker(WorkerId::new(1)))?;
    let vf = b.version_decl(filter, VersionSpec::new("v", ms(8)))?;
    let sink = b.task_decl(TaskSpec::graph_node("sink").on_worker(WorkerId::new(0)))?;
    let vs = b.version_decl(sink, VersionSpec::new("v", Duration::from_micros(100)))?;

    // 64-slot data lane + 16-slot high lane: an urgent frame boosts the
    // pending `filter` job to the ceiling until the lane drains.
    let frames = b.channel_decl_prioritized("frames", 64, 8, 16, Priority::HIGHEST);
    b.channel_connect(producer, filter, frames)?;
    // The kept-frames channel is plain: no ceiling, no boost.
    let kept = b.channel_decl("kept", 64, 8);
    b.channel_connect(filter, sink, kept)?;
    let taskset = Arc::new(b.build()?);

    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()?;

    // ----- typed endpoints, validated against the declared spec -------
    let mut builder = RuntimeBuilder::new(taskset, config);
    let (frames_tx, frames_rx) = builder.channel::<u64>(frames)?;
    let (kept_tx, kept_rx) = builder.channel::<u64>(kept)?;

    let produced = Arc::new(AtomicU32::new(0));
    let urgent = Arc::new(AtomicU32::new(0));
    let filtered = Arc::new(AtomicU32::new(0));
    let sunk = Arc::new(AtomicU32::new(0));
    let checksum = Arc::new(AtomicU64::new(0));

    let (p, u) = (Arc::clone(&produced), Arc::clone(&urgent));
    let f = Arc::clone(&filtered);
    let (s, c) = (Arc::clone(&sunk), Arc::clone(&checksum));
    let rt = builder
        .body(producer, vp, move |_| {
            let n = u64::from(p.fetch_add(1, Ordering::SeqCst));
            if n % 4 == 0 {
                u.fetch_add(1, Ordering::SeqCst);
                let _ = frames_tx.send_high(n); // control lane: boosts `filter`
            } else {
                let _ = frames_tx.send(n); // data lane
            }
        })
        .body(filter, vf, move |_| {
            // Keep even frames; `recv` drains the high lane first, so
            // urgent frames are seen before the queued data backlog.
            while let Some(n) = frames_rx.recv() {
                if n % 2 == 0 {
                    f.fetch_add(1, Ordering::SeqCst);
                    let _ = kept_tx.send(n);
                }
            }
            // The expensive stage the backlog piles up behind.
            std::thread::sleep(std::time::Duration::from_millis(8));
        })
        .body(sink, vs, move |_| {
            while let Some(n) = kept_rx.recv() {
                s.fetch_add(1, Ordering::SeqCst);
                c.fetch_add(n, Ordering::SeqCst);
            }
        })
        .build()?;

    std::thread::sleep(std::time::Duration::from_millis(120));
    rt.stop();
    let report = rt.cleanup();

    println!(
        "producer emitted {} frames ({} urgent, on the high lane)",
        produced.load(Ordering::SeqCst),
        urgent.load(Ordering::SeqCst)
    );
    println!(
        "filter kept {} even frames; sink received {} (checksum {})",
        filtered.load(Ordering::SeqCst),
        sunk.load(Ordering::SeqCst),
        checksum.load(Ordering::SeqCst)
    );
    println!(
        "scheduler boosts from the control lane: {} (released on drain)",
        report.engine_stats.msg_boosts
    );
    assert!(
        report.engine_stats.msg_boosts >= 1,
        "an urgent post while filter work is pending must boost it"
    );
    Ok(())
}
