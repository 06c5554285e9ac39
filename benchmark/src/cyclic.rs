//! `cyclic` — the paper's Table 2 cyclictest shape on the single-owner
//! [`Runtime`]: 6 periodic tasks at 10 ms with 8–12 µs spin bodies
//! (60 µs per burst whatever the seed), one worker (worker → core 0,
//! scheduler → core 1), EDF, open loop at 600 jobs/s.
//!
//! Headline latency: `RtJobRecord::start_latency()` (nominal release →
//! body start), the median within each 1 s window and the lowest decile
//! across windows ([`crate::stats::LEVEL`]; the across-window median is
//! printed beside it). Every job of a burst is released at the same
//! tick, so the median job waits for the tick edge plus ~2.5 hand-offs
//! (completion → engine → channel → worker wake).

use crate::gen::{self, CYCLIC_PERIOD_MS};
use crate::host::spin_us;
use crate::live::{self, Live, LiveRun, Plan, RecordIndex};
use crate::probes;
use crate::report::Outcome;
use crate::stats::{Windows, LEVEL};
use crate::trace::{Stamps, Trace};
use crate::Args;
use std::sync::Arc;
use std::time::{Duration, Instant};
use yasmin::core::ids::{TaskId, VersionId};
use yasmin::prelude::*;

const PERIOD_NS: u64 = CYCLIC_PERIOD_MS * 1_000_000;

pub fn taskset(inputs: &gen::CyclicInputs) -> (Arc<TaskSet>, Vec<(TaskId, VersionId)>) {
    let mut b = TaskSetBuilder::new();
    let mut ids = Vec::new();
    for i in 0..inputs.body_us.len() {
        let t = b
            .task_decl(TaskSpec::periodic(
                format!("cyc{i}"),
                yasmin::core::time::Duration::from_millis(CYCLIC_PERIOD_MS),
            ))
            .expect("valid periodic spec");
        let v = b
            .version_decl(
                t,
                VersionSpec::new("v", yasmin::core::time::Duration::from_micros(100)),
            )
            .expect("valid version");
        ids.push((t, v));
    }
    (Arc::new(b.build().expect("valid task set")), ids)
}

pub fn config() -> Config {
    Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .expect("valid config")
}

/// One full set-up: inputs from the seed, task set, runtime threads.
/// Traced bodies stamp into row `row0 + task` of `stamps`.
fn build(seed: u64, stamps: Option<(&Arc<Stamps>, usize)>) -> (Live, Duration) {
    let inputs = gen::cyclic(seed);
    let (ts, ids) = taskset(&inputs);
    let mut builder = RuntimeBuilder::new(ts, config());
    for (i, ((t, v), &us)) in ids.into_iter().zip(&inputs.body_us).enumerate() {
        builder = match stamps {
            None => builder.body(t, v, move |_| spin_us(us)),
            Some((s, row0)) => {
                let s = Arc::clone(s);
                builder.body(t, v, move |ctx| {
                    let t0 = s.now_ns();
                    spin_us(us);
                    s.put(row0 + i, ctx.job.seq, t0, s.now_ns());
                })
            }
        };
    }
    let t = Instant::now();
    let rt = builder.build().expect("cyclic runtime builds");
    (Live::Single(rt), t.elapsed())
}

struct Measured {
    /// Per-job `started − release`, windowed by release.
    waits: Windows,
    latency_us: f64,
    due: u64,
    lost: u64,
}

fn measure(run: &LiveRun, out: &mut Outcome) -> Measured {
    let (mut due, mut lost) = (0, 0);
    for seg in &run.segments {
        let idx = RecordIndex::new(&seg.report.records);
        for t in 0..gen::CYCLIC_TASKS {
            let task = TaskId::new(t as u32);
            let seqs = idx.due_seqs(task, PERIOD_NS, run.from_ns, run.to_ns);
            let (d, l) = live::conservation(&idx, task, seqs);
            due += d;
            lost += l;
        }
        out.fail(
            seg.report
                .engine_stats
                .released
                .abs_diff(seg.report.records.len() as u64),
            "cyclic: engine released != records returned",
        );
    }
    out.attempted += due;
    out.fail(
        lost,
        "cyclic: job due in the span has no Completed record after drain",
    );
    let mut waits = live::wait_windows(run, |_| true);
    Measured {
        latency_us: waits.level_of(0.5, 10).unwrap_or(f64::NAN),
        waits,
        due,
        lost,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if !args.trace {
        let run = live::run_live(
            Plan::segmented(args.span()),
            |_| build(args.seed, None),
            |_, _, _| {},
        );
        let m = measure(&run, &mut out);
        let rs = live::record_stats(&run, |_| true);
        out.e2e = vec![
            ("setup_s", run.setup_s()),
            ("peak_rss_mb", run.peak_rss_mb),
            ("latency_us", m.latency_us),
            ("cpu_us_per_job", run.cpu_us_per_job(LEVEL)),
        ];
        let mut waits = m.waits;
        out.notes = vec![
            ("latency_wmed_us", waits.median_of(0.5, 10).unwrap_or(0.0)),
            ("cpu_wmed_us_per_job", run.cpu_us_per_job(0.5)),
            ("latency_samples", waits.samples() as f64),
            ("latency_windows", waits.full_windows(10) as f64),
            ("deadline_misses_ratio", rs.miss_ratio),
        ];
        return out;
    }

    // Traced: the same schedule twice for a shorter span — plain, then
    // with stamping bodies — so the tracing overhead is measured inside
    // this one invocation.
    let plan = Plan::segmented(args.traced_span());
    let plain = live::run_live(plan, |_| build(args.seed, None), |_, _, _| {});
    let plain_lat = measure(&plain, &mut out).latency_us;
    drop(plain);

    let per_task = (live::WARMUP + plan.seg_span + Duration::from_secs(1)).as_millis() as usize
        / CYCLIC_PERIOD_MS as usize;
    let stamps = Arc::new(Stamps::new(gen::CYCLIC_TASKS * plan.segments, per_task));
    let run = live::run_live(
        plan,
        |seg| build(args.seed, Some((&stamps, seg * gen::CYCLIC_TASKS))),
        |_, _, _| {},
    );
    let mut m = measure(&run, &mut out);
    let rs = live::record_stats(&run, |_| true);
    // Every job here is a periodic root, so the per-job wait *is* the
    // headline latency.
    out.latency_layers(&mut m.waits);
    out.layer("e2e.cpu_wmed_us_per_job", run.cpu_us_per_job(0.5));
    out.wait_layers(&mut m.waits);
    live::rt_layers(&run, &rs, m.due, m.lost, &mut out);
    out.layer(
        "harness.trace_overhead_pct",
        (m.latency_us - plain_lat) / plain_lat * 100.0,
    );

    // Spans: job ⊃ {wait, body}, one id per job.
    let mut trace = Trace::with_capacity(rs.completed_in_span as usize * 3);
    for (si, seg) in run.segments.iter().enumerate() {
        let row0 = si * gen::CYCLIC_TASKS;
        let stamp = |r: &yasmin::rt::RtJobRecord| stamps.get(row0 + r.job.task.index(), r.job.seq);
        let skew = live::clock_skew(seg, stamp);
        let at = |t: u64| run.trace_ns(si, t);
        for r in &seg.report.records {
            if !run.in_span(r.job.release.as_nanos()) {
                continue;
            }
            let id = (si as u64) << 48 | u64::from(r.job.task.raw()) << 32 | r.job.seq;
            let (release, started) = (at(r.job.release.as_nanos()), at(r.started.as_nanos()));
            let job = trace.span("rt.job", id, None, release, at(r.completed.as_nanos()));
            trace.span("rt.wait", id, Some(job), release, started);
            if let Some((s, e)) = stamp(r) {
                trace.span("body", id, Some(job), at(s - skew), at(e - skew));
            }
        }
    }
    out.layer("harness.spans", trace.len() as f64);
    out.trace = Some(trace);

    let inputs = gen::cyclic(args.seed);
    let (ts, _) = taskset(&inputs);
    probes::own_set(&ts, &config(), &mut out);
    // The layers this workload's latency is made of: the hand-off
    // channel and the timed wait.
    probes::wake_probes(&mut out);
    out
}
