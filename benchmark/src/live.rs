//! Shared driver for the three real-thread workloads: repeated set-up,
//! a fixed warm-up, measured segments the harness sleeps through, drain,
//! and the record post-processing every `rt.*` layer metric comes from.
//!
//! All instants in a [`yasmin::rt::RtJobRecord`] are on the runtime's
//! own monotonic clock, whose epoch is inside `build()`; a measured
//! segment is `[WARMUP, WARMUP + seg_span)` **on that clock**, so
//! windows line up with the release grid whatever the harness thread is
//! doing.
//!
//! **Why segments.** A runtime anchors its tick grid a little after its
//! release grid (`next_tick = now() + tick` once the first dispatches
//! are out), by however long that first dispatch took: 20–120 µs, drawn
//! once per instantiation and then added to *every* dispatch of the run.
//! One 20 s run of one instantiation therefore repeats to ±3 % window to
//! window yet differs by 15 % from the next process. A run is cut into
//! 1 s segments, each on a fresh runtime, and statistics are taken over
//! the windows of all segments, so the draw is averaged inside a run
//! instead of showing up between runs. Every segment is also one set-up
//! cycle, which is where `setup_s`'s repetitions come from.

use crate::host;
use crate::report::Outcome;
use crate::stats::{median, median_u64, quantile, Windows};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use yasmin::core::ids::TaskId;
use yasmin::rt::{RtJobRecord, Runtime, RuntimeReport, ShardedRuntime};
use yasmin::sched::JobOutcome;

/// Unmeasured prefix of every instantiation's schedule, counted into
/// `setup_s`.
pub const WARMUP: Duration = Duration::from_millis(250);
/// How long after a segment the harness lets the runtime go on before
/// it calls `stop()`: longer than the worst host stall seen (250 ms),
/// so a scheduler thread stalled across the end of the span still
/// releases every job due in it before `stop()` arrives, and job
/// conservation needs no exemption. (With 50 ms, one run in sixty had
/// `stop()` overtake the late ticks and 76 due jobs were never
/// released.)
const TAIL: Duration = Duration::from_millis(300);
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Either thread runtime.
pub enum Live {
    Single(Runtime),
    Sharded(ShardedRuntime),
}

impl Live {
    fn stop(&self) {
        match self {
            Live::Single(rt) => rt.stop(),
            Live::Sharded(rt) => rt.stop(),
        }
    }

    fn cleanup(self) -> RuntimeReport {
        match self {
            Live::Single(rt) => rt.cleanup(),
            Live::Sharded(rt) => rt.cleanup(),
        }
    }
}

/// How a run's measured time is laid out over runtime instantiations.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-up cycles that are torn down right after their warm-up.
    pub throwaway: usize,
    /// Measured instantiations, each `seg_span` long.
    pub segments: usize,
    pub seg_span: Duration,
}

impl Plan {
    /// `total` cut into 1 s segments: as many draws of the per-start
    /// phase as 1 s windows allow.
    pub fn segmented(total: Duration) -> Plan {
        Plan {
            throwaway: 0,
            segments: total.as_secs().max(1) as usize,
            seg_span: Duration::from_secs(1),
        }
    }

    /// One measured instantiation of `total`, after `throwaway` set-up
    /// cycles — for a workload whose state must build up over the run.
    pub fn single(total: Duration, throwaway: usize) -> Plan {
        Plan {
            throwaway,
            segments: 1,
            seg_span: total,
        }
    }
}

/// One measured instantiation.
pub struct Segment {
    pub report: RuntimeReport,
    /// Process CPU over the segment's measured span.
    pub cpu_ns: u64,
    /// On-CPU time of the scheduler and worker threads over the span.
    pub sched_cpu_ns: u64,
    pub worker_cpu_ns: u64,
    /// `stop()` → `cleanup()` returned.
    pub drain_ms: f64,
}

/// What one live run hands to the workload for checking and reporting.
pub struct LiveRun {
    pub segments: Vec<Segment>,
    /// Wall seconds of every set-up cycle (inputs → warm-up end).
    pub setup_s: Vec<f64>,
    /// Milliseconds inside the runtime builder's `build()`, per cycle.
    pub build_ms: Vec<f64>,
    /// A segment's measured span on its runtime clock, ns.
    pub from_ns: u64,
    pub to_ns: u64,
    /// `VmHWM` once the last runtime is torn down: the program's peak
    /// (threads, engine, records), before the harness's own
    /// post-processing allocates on top of it.
    pub peak_rss_mb: f64,
}

impl LiveRun {
    fn windows_per_segment(&self) -> u64 {
        (self.to_ns - self.from_ns) / WINDOW_NS
    }

    /// 1 s windows over all segments, addressed through [`LiveRun::at`].
    pub fn windows(&self) -> Windows {
        Windows::new(
            0,
            WINDOW_NS,
            (self.windows_per_segment() * self.segments.len() as u64) as usize,
        )
    }

    /// Position of runtime-clock instant `t_ns` of segment `seg` on the
    /// run's window axis; `None` outside the segment's whole windows.
    pub fn at(&self, seg: usize, t_ns: u64) -> Option<u64> {
        let whole = self.windows_per_segment() * WINDOW_NS;
        (t_ns >= self.from_ns && t_ns - self.from_ns < whole)
            .then(|| seg as u64 * whole + (t_ns - self.from_ns))
    }

    pub fn in_span(&self, t_ns: u64) -> bool {
        (self.from_ns..self.to_ns).contains(&t_ns)
    }

    /// Instant `t_ns` of segment `seg` on one axis for trace files:
    /// segments laid end to end, a second apart.
    pub fn trace_ns(&self, seg: usize, t_ns: u64) -> u64 {
        seg as u64 * (self.to_ns + WINDOW_NS) + t_ns
    }

    /// Median over the set-up cycles.
    pub fn setup_s(&self) -> f64 {
        median(&mut self.setup_s.clone()).unwrap_or(f64::NAN)
    }

    /// Process CPU per job completed in the measured span, µs: the
    /// `across`-quantile over the segments (the plain ratio for a
    /// single one). [`crate::stats::LEVEL`] is the gated value, 0.5 its
    /// diagnostic.
    pub fn cpu_us_per_job(&self, across: f64) -> f64 {
        let mut per_segment: Vec<f64> = self
            .segments
            .iter()
            .map(|s| {
                let done = s
                    .report
                    .records
                    .iter()
                    .filter(|r| self.in_span(r.completed.as_nanos()))
                    .count();
                s.cpu_ns as f64 / 1e3 / done.max(1) as f64
            })
            .collect();
        quantile(&mut per_segment, across).unwrap_or(f64::NAN)
    }

    /// Every record of every segment, with its segment's index.
    pub fn records(&self) -> impl Iterator<Item = (usize, &RtJobRecord)> {
        self.segments
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.report.records.iter().map(move |r| (i, r)))
    }
}

/// Runs `plan`: every cycle calls `build(cycle)` — which must do *all*
/// set-up work, input generation and analysis included, and returns the
/// runtime plus the time spent in the runtime builder's own `build()` —
/// then sleeps through the warm-up. A throwaway cycle is torn down
/// there; a measured one lets `during(runtime, open, segment)` occupy
/// the segment (it is handed the instant the span opens), sleeps out
/// the rest of it and drains.
pub fn run_live(
    plan: Plan,
    mut build: impl FnMut(usize) -> (Live, Duration),
    mut during: impl FnMut(&Live, Instant, usize),
) -> LiveRun {
    let mut run = LiveRun {
        segments: Vec::with_capacity(plan.segments),
        setup_s: Vec::new(),
        build_ms: Vec::new(),
        from_ns: WARMUP.as_nanos() as u64,
        to_ns: (WARMUP + plan.seg_span).as_nanos() as u64,
        peak_rss_mb: 0.0,
    };
    let sched_cpu =
        || host::thread_cpu_ns("yasmin-scheduler") + host::thread_cpu_ns("yasmin-shard-sched");
    for cycle in 0..plan.throwaway + plan.segments {
        let t0 = Instant::now();
        let (live, in_build) = build(cycle);
        let open = Instant::now() + WARMUP;
        sleep_until(open);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        run.build_ms.push(in_build.as_secs_f64() * 1e3);
        if cycle < plan.throwaway {
            live.stop();
            let _ = live.cleanup();
            continue;
        }

        let sched0 = sched_cpu();
        let worker0 = host::thread_cpu_ns("yasmin-worker");
        let cpu0 = host::process_cpu_ns();
        during(&live, open, cycle - plan.throwaway);
        sleep_until(open + plan.seg_span);
        let cpu_ns = host::process_cpu_ns() - cpu0;
        let sched_cpu_ns = sched_cpu() - sched0;
        let worker_cpu_ns = host::thread_cpu_ns("yasmin-worker") - worker0;

        std::thread::sleep(TAIL);
        let t_stop = Instant::now();
        live.stop();
        let report = live.cleanup();
        run.segments.push(Segment {
            report,
            cpu_ns,
            sched_cpu_ns,
            worker_cpu_ns,
            drain_ms: t_stop.elapsed().as_secs_f64() * 1e3,
        });
    }
    run.peak_rss_mb = host::peak_rss_mb();
    run
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Records indexed by `(task, seq)`, with each task's first release.
pub struct RecordIndex<'a> {
    by_key: HashMap<(u32, u64), &'a RtJobRecord>,
    /// Per task: its first release.
    released: BTreeMap<u32, u64>,
}

impl<'a> RecordIndex<'a> {
    pub fn new(records: &'a [RtJobRecord]) -> Self {
        let mut by_key = HashMap::with_capacity(records.len());
        let mut released = BTreeMap::new();
        for r in records {
            by_key.insert((r.job.task.raw(), r.job.seq), r);
            let first = released.entry(r.job.task.raw()).or_insert(u64::MAX);
            *first = (*first).min(r.job.release.as_nanos());
        }
        RecordIndex { by_key, released }
    }

    pub fn get(&self, task: TaskId, seq: u64) -> Option<&'a RtJobRecord> {
        self.by_key.get(&(task.raw(), seq)).copied()
    }

    /// Sequence numbers of the periodic root `task` whose *nominal*
    /// release `first + k·period` lies in `[from, to)` — computed from
    /// the period, not from what the runtime happened to release, so a
    /// job the runtime lost, or stopped releasing, still counts as
    /// attempted.
    pub fn due_seqs(
        &self,
        task: TaskId,
        period_ns: u64,
        from: u64,
        to: u64,
    ) -> std::ops::Range<u64> {
        let Some(&first) = self.released.get(&task.raw()) else {
            // Never released at all: everything the period implies is due.
            return 0..(to - from) / period_ns;
        };
        let k = |t: u64| t.saturating_sub(first).div_ceil(period_ns);
        k(from)..k(to)
    }
}

/// `started − release` of every job released in a measured span,
/// bucketed by release — `rt.wait_*`, and `cyclic`'s headline latency.
pub fn wait_windows(run: &LiveRun, keep: impl Fn(&RtJobRecord) -> bool) -> Windows {
    let mut w = run.windows();
    for (seg, r) in run.records().filter(|(_, r)| keep(r)) {
        if let Some(at) = run.at(seg, r.job.release.as_nanos()) {
            w.push(at, r.start_latency().as_nanos() as f64 / 1e3);
        }
    }
    w
}

/// Layer metrics every real-thread workload derives from its records.
pub struct RecordStats {
    /// First job of each release burst: `started − release`, µs.
    pub tick_late_p50_us: f64,
    /// Next `started` − previous `completed` on one worker within a
    /// burst, µs.
    pub handoff_p50_us: f64,
    pub body_p50_us: f64,
    pub miss_ratio: f64,
    pub completed_in_span: u64,
}

pub fn record_stats(run: &LiveRun, is_root: impl Fn(TaskId) -> bool) -> RecordStats {
    let mut bursts: BTreeMap<(usize, u64), Vec<&RtJobRecord>> = BTreeMap::new();
    let mut body = Vec::new();
    let (mut missed, mut completed_in_span, mut released_in_span) = (0u64, 0u64, 0u64);
    for (seg, r) in run.records() {
        if run.in_span(r.completed.as_nanos()) {
            completed_in_span += 1;
        }
        if !run.in_span(r.job.release.as_nanos()) {
            continue;
        }
        released_in_span += 1;
        missed += u64::from(r.missed());
        body.push(r.completed.as_nanos() - r.started.as_nanos());
        if is_root(r.job.task) {
            bursts
                .entry((seg, r.job.release.as_nanos()))
                .or_default()
                .push(r);
        }
    }
    let mut tick_late = Vec::with_capacity(bursts.len());
    let mut handoff = Vec::new();
    for burst in bursts.values_mut() {
        burst.sort_by_key(|r| r.started);
        tick_late.push(burst[0].start_latency().as_nanos());
        let mut last_done: HashMap<u16, u64> = HashMap::new();
        for r in burst.iter() {
            if let Some(prev) = last_done.insert(r.worker.raw(), r.completed.as_nanos()) {
                handoff.push(r.started.as_nanos().saturating_sub(prev));
            }
        }
    }
    RecordStats {
        tick_late_p50_us: median_u64(&tick_late) / 1e3,
        handoff_p50_us: median_u64(&handoff) / 1e3,
        body_p50_us: median_u64(&body) / 1e3,
        miss_ratio: if released_in_span == 0 {
            0.0
        } else {
            missed as f64 / released_in_span as f64
        },
        completed_in_span,
    }
}

/// Jobs that are due in the span but have no `Completed` record after
/// `stop()` + `cleanup()`: `(due, lost)`.
pub fn conservation(idx: &RecordIndex<'_>, task: TaskId, seqs: std::ops::Range<u64>) -> (u64, u64) {
    let due = seqs.end - seqs.start;
    let lost = seqs
        .filter(|&k| !matches!(idx.get(task, k), Some(r) if r.outcome == JobOutcome::Completed))
        .count() as u64;
    (due, lost)
}

/// The `rt.*` and `sched.*` counter layers common to the three
/// real-thread workloads.
pub fn rt_layers(run: &LiveRun, rs: &RecordStats, due: u64, lost: u64, out: &mut Outcome) {
    let jobs = rs.completed_in_span.max(1) as f64;
    let sum = |f: fn(&Segment) -> u64| run.segments.iter().map(f).sum::<u64>() as f64;
    out.layer("rt.tick_late_p50_us", rs.tick_late_p50_us);
    out.layer("rt.handoff_p50_us", rs.handoff_p50_us);
    out.layer("rt.body_p50_us", rs.body_p50_us);
    out.layer(
        "rt.sched_cpu_us_per_job",
        sum(|s| s.sched_cpu_ns) / 1e3 / jobs,
    );
    out.layer(
        "rt.worker_cpu_us_per_job",
        sum(|s| s.worker_cpu_ns) / 1e3 / jobs,
    );
    out.layer(
        "rt.build_ms",
        median(&mut run.build_ms.clone()).unwrap_or(0.0),
    );
    let mut drains: Vec<f64> = run.segments.iter().map(|s| s.drain_ms).collect();
    out.layer("rt.drain_ms", median(&mut drains).unwrap_or(0.0));
    let records = sum(|s| s.report.records.len() as u64);
    out.layer(
        "rt.records_mb",
        records * std::mem::size_of::<RtJobRecord>() as f64 / (1024.0 * 1024.0),
    );
    out.layer("rt.miss_ratio", rs.miss_ratio);
    out.layer("rt.lost_jobs", lost as f64);
    out.layer("rt.jobs", due as f64);
    let mut merged = yasmin::sched::EngineStats::default();
    let mut max_ready = 0;
    for seg in &run.segments {
        merged.merge(&seg.report.engine_stats);
        max_ready = max_ready.max(seg.report.engine_stats.max_ready);
    }
    out.engine_layers(&merged, max_ready);
}

/// Offset between the traced bodies' stamp clock and a segment's
/// runtime clock: a body starts right after the worker reads `started`,
/// so the smallest `stamp − started` over the segment's jobs is the
/// epoch difference (to within one call).
pub fn clock_skew(seg: &Segment, stamp_of: impl Fn(&RtJobRecord) -> Option<(u64, u64)>) -> u64 {
    seg.report
        .records
        .iter()
        .filter_map(|r| Some(stamp_of(r)?.0.saturating_sub(r.started.as_nanos())))
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin::core::ids::{JobId, VersionId, WorkerId};
    use yasmin::core::priority::Priority;
    use yasmin::core::time::Instant as RtInstant;
    use yasmin::sched::Job;

    fn rec(task: u32, seq: u64, release: u64, started: u64, completed: u64) -> RtJobRecord {
        RtJobRecord {
            job: Job {
                id: JobId::new(u64::from(task) << 32 | seq),
                task: TaskId::new(task),
                seq,
                release: RtInstant::from_nanos(release),
                graph_release: RtInstant::from_nanos(release),
                abs_deadline: RtInstant::from_nanos(release + 10_000),
                priority: Priority::HIGHEST,
                preempted: false,
            },
            version: VersionId::new(0),
            worker: WorkerId::new(0),
            started: RtInstant::from_nanos(started),
            completed: RtInstant::from_nanos(completed),
            outcome: JobOutcome::Completed,
        }
    }

    #[test]
    fn due_jobs_are_counted_from_the_period_and_lost_ones_found() {
        // Period 10, first release at 3: releases 3, 13, 23, 33, 43.
        let records = vec![
            rec(0, 0, 3, 4, 5),
            rec(0, 2, 23, 24, 25),
            rec(0, 3, 33, 34, 35),
        ];
        let idx = RecordIndex::new(&records);
        let due = idx.due_seqs(TaskId::new(0), 10, 10, 40);
        assert_eq!(due, 1..4, "releases 13, 23 and 33 fall in [10, 40)");
        assert_eq!(
            conservation(&idx, TaskId::new(0), due),
            (3, 1),
            "seq 1 was lost"
        );
        // A task with no record at all still owes its jobs.
        assert_eq!(idx.due_seqs(TaskId::new(9), 10, 10, 40), 0..3);
    }

    #[test]
    fn a_runtime_that_stops_releasing_still_owes_the_rest() {
        // Period 100 ms, released seqs 0..=17, span [0, 2 s): seqs 18
        // and 19 are due and were never released — both are lost.
        let ms = 1_000_000;
        let records: Vec<_> = (0..18)
            .map(|k| rec(0, k, k * 100 * ms, k * 100 * ms + 1, k * 100 * ms + 2))
            .collect();
        let idx = RecordIndex::new(&records);
        let due = idx.due_seqs(TaskId::new(0), 100 * ms, 0, 2_000 * ms);
        assert_eq!(due, 0..20);
        assert_eq!(conservation(&idx, TaskId::new(0), due), (20, 2));
    }

    #[test]
    fn segments_share_one_window_axis() {
        let run = LiveRun {
            segments: Vec::new(),
            setup_s: vec![0.4, 0.2, 0.3, 0.1, 0.5],
            build_ms: Vec::new(),
            from_ns: 250_000_000,
            to_ns: 2_250_000_000,
            peak_rss_mb: 0.0,
        };
        assert_eq!(run.at(0, 250_000_000), Some(0));
        assert_eq!(run.at(1, 250_000_000), Some(2_000_000_000));
        assert_eq!(run.at(1, 2_249_999_999), Some(3_999_999_999));
        assert_eq!(run.at(0, 249_999_999), None, "warm-up is not measured");
        assert_eq!(run.at(0, 2_250_000_000), None, "nor is the tail");
        assert!((run.setup_s() - 0.3).abs() < 1e-12, "the median cycle");
        let p = Plan::segmented(Duration::from_secs(7));
        assert_eq!((p.segments, p.seg_span), (7, Duration::from_secs(1)));
    }
}
