//! `churn` — the control plane beside a running schedule. Single-owner
//! [`Runtime`], 1 worker, deadline-monotonic (static priority, so
//! admission runs response-time analysis). Tenant 0 is six tasks on the
//! {5, 10, 20, 40} ms grid at U = 0.2. The harness thread admits a
//! 3-task, 2 µs-WCET tenant every 50 ms + U[0, 20 ms) of seeded jitter,
//! keeps 4 live and retires the oldest; every 8th candidate has density
//! > 1 and **must** be `Rejected`.
//!
//! Headline latency: due instant → `Runtime::admit` returns `Ok`, plain
//! median over the span's ≈ 350 accepted admits. Retirement tombstones,
//! so the set admission evaluates against only grows (by ≈ 50 tasks per
//! measured second): the latency is `analysis` cost over that ramp plus
//! one wait, uniform in 0–5 ms, for the scheduler thread's next wake.
//! Windows are not exchangeable along a ramp, and 17 admits a window
//! are too few against that wait: the windowed low quantile the other
//! workloads use spread 25 % here, the plain median 3–7 %.

use crate::gen::{self, Candidate, CHURN_LIVE_TENANTS, CHURN_TENANT_WCET_US};
use crate::host::spin_us;
use crate::live::{self, Live, LiveRun, Plan, RecordIndex};
use crate::probes;
use crate::report::Outcome;
use crate::stats::{median, median_u64, Windows, LEVEL};
use crate::trace::Trace;
use crate::Args;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yasmin::analysis::{self, WcetAssumption};
use yasmin::core::ids::{TaskId, VersionId};
use yasmin::core::time::Duration as RtDuration;
use yasmin::prelude::*;

const POLICY: PriorityPolicy = PriorityPolicy::DeadlineMonotonic;

pub fn base_taskset(base: &[gen::BaseTask]) -> Arc<TaskSet> {
    let mut b = TaskSetBuilder::new();
    for (i, t) in base.iter().enumerate() {
        let id = b
            .task_decl(TaskSpec::periodic(
                format!("base{i}"),
                RtDuration::from_millis(t.period_ms),
            ))
            .expect("valid base task");
        b.version_decl(
            id,
            VersionSpec::new("v", RtDuration::from_micros(t.wcet_us)),
        )
        .expect("valid version");
    }
    Arc::new(b.build().expect("valid base set"))
}

pub fn candidate_taskset(c: &Candidate) -> TaskSet {
    let mut b = TaskSetBuilder::new();
    for (i, &p) in c.periods_ms.iter().enumerate() {
        let id = b
            .task_decl(TaskSpec::periodic(
                format!("t{i}"),
                RtDuration::from_millis(p),
            ))
            .expect("valid tenant task");
        let wcet = if c.infeasible {
            RtDuration::from_micros(p * 1_200) // density 1.2
        } else {
            RtDuration::from_micros(CHURN_TENANT_WCET_US)
        };
        b.version_decl(id, VersionSpec::new("v", wcet))
            .expect("valid version");
    }
    b.build().expect("valid candidate")
}

pub fn config() -> Config {
    Config::builder()
        .workers(1)
        .priority(POLICY)
        .preemption(false)
        // Base tenant and four live tenants release ≈ 1300 jobs/s, and a
        // job that does not fit the ready queue is dropped at release
        // (`channel_overflows`; the `queue_overflows` note). The host
        // stalls one vCPU for up to a second now and then: with the
        // worker's stalled and the scheduler's still releasing, the
        // default 1024 fills in 0.8 s — one run in 75 on a noisy
        // afternoon lost 124 base-tenant jobs. 4096 rides out 3 s.
        .max_pending_jobs(4096)
        .build()
        .expect("valid config")
}

fn admits_in(span: Duration) -> usize {
    (span.as_millis() as u64 / gen::CHURN_ADMIT_EVERY_MS) as usize
}

struct Built {
    inputs: gen::ChurnInputs,
    candidates: Vec<TaskSet>,
}

fn build(seed: u64, span: Duration) -> (Live, Duration, Built) {
    let inputs = gen::churn(seed, admits_in(span));
    let ts = base_taskset(&inputs.base);
    assert!(
        analysis::schedulable(&ts, POLICY, WcetAssumption::MaxVersion),
        "the base tenant is schedulable by construction"
    );
    let candidates = inputs.candidates.iter().map(candidate_taskset).collect();
    let mut builder = RuntimeBuilder::new(Arc::clone(&ts), config());
    for (i, t) in inputs.base.iter().enumerate() {
        // A quarter of the declared WCET: the analysis is pessimistic,
        // as it is for real applications.
        let us = t.wcet_us / 4;
        builder = builder.body(TaskId::new(i as u32), VersionId::new(0), move |_| {
            spin_us(us)
        });
    }
    let t = Instant::now();
    let rt = builder.build().expect("churn runtime builds");
    (Live::Single(rt), t.elapsed(), Built { inputs, candidates })
}

/// What the harness thread saw while it drove the control plane.
#[derive(Default)]
struct Control {
    /// `(due, due → admit returned Ok)`, ns; accepted admits only.
    admit_ns: Vec<(u64, u64)>,
    admit_rtt_ns: Vec<u64>,
    retire_rtt_ns: Vec<u64>,
    gen_late_ns: Vec<u64>,
    /// `(due, call, return)` offsets from the span's opening, per admit.
    admits: Vec<(u64, u64, u64)>,
    ops: u64,
    wrong_verdict: u64,
    retire_failed: u64,
}

fn drive(rt: &Runtime, open: Instant, built: &Built) -> Control {
    let mut c = Control::default();
    let mut live_tenants: VecDeque<TenantId> = VecDeque::new();
    for (cand, ts) in built.inputs.candidates.iter().zip(&built.candidates) {
        let due = open + Duration::from_nanos(cand.due_ns);
        live::sleep_until(due);
        let call = Instant::now();
        c.gen_late_ns.push((call - due).as_nanos() as u64);
        let bodies: HashMap<(TaskId, VersionId), TaskBody> = (0..ts.len())
            .map(|i| {
                let body: TaskBody = Arc::new(|_: &JobCtx| {});
                ((TaskId::new(i as u32), VersionId::new(0)), body)
            })
            .collect();
        let res = rt.admit(ts, bodies, None);
        let ret = Instant::now();
        c.ops += 1;
        c.admits.push((
            cand.due_ns,
            (call - open).as_nanos() as u64,
            (ret - open).as_nanos() as u64,
        ));
        match (res, cand.infeasible) {
            (Ok(tenant), false) => {
                c.admit_ns
                    .push((cand.due_ns, (ret - due).as_nanos() as u64));
                c.admit_rtt_ns.push((ret - call).as_nanos() as u64);
                live_tenants.push_back(tenant);
            }
            (Err(AdmissionError::Rejected(_)), true) => {}
            (Ok(tenant), true) => {
                c.wrong_verdict += 1;
                live_tenants.push_back(tenant);
            }
            (Err(_), _) => c.wrong_verdict += 1,
        }
        if live_tenants.len() > CHURN_LIVE_TENANTS {
            let oldest = live_tenants.pop_front().expect("non-empty");
            let t = Instant::now();
            c.ops += 1;
            if rt.retire(oldest).is_err() {
                c.retire_failed += 1;
            }
            c.retire_rtt_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    c
}

/// Accepted admits' latencies in 1 s windows by due instant.
fn admit_windows(c: &Control, span: Duration) -> Windows {
    let mut w = Windows::new(0, live::WINDOW_NS, span.as_secs() as usize);
    for &(due, latency) in &c.admit_ns {
        w.push(due, latency as f64 / 1e3);
    }
    w
}

struct Measured {
    latency_us: f64,
    due: u64,
    lost: u64,
}

fn measure(run: &LiveRun, built: &Built, c: &Control, out: &mut Outcome) -> Measured {
    let seg = &run.segments[0];
    let idx = RecordIndex::new(&seg.report.records);
    let (mut due, mut lost) = (0, 0);
    for (i, t) in built.inputs.base.iter().enumerate() {
        let task = TaskId::new(i as u32);
        let seqs = idx.due_seqs(task, t.period_ms * 1_000_000, run.from_ns, run.to_ns);
        let (d, l) = live::conservation(&idx, task, seqs);
        due += d;
        lost += l;
    }
    out.attempted += c.ops;
    out.fail(
        lost,
        "churn: base-tenant job due in the span never Completed",
    );
    out.fail(
        c.wrong_verdict,
        "churn: admit answered Ok/Err against expectation",
    );
    out.fail(c.retire_failed, "churn: retire of a live tenant failed");
    let s = &seg.report.engine_stats;
    // Every released job either completed or was culled by a retirement.
    out.fail(
        s.released
            .abs_diff(seg.report.records.len() as u64 + s.culled),
        "churn: engine released != records returned + culled",
    );
    // Admission cost ramps with the merged set, so windows are not
    // exchangeable here: the plain median over the span's admits.
    let mut admit_us: Vec<f64> = c.admit_ns.iter().map(|&(_, l)| l as f64 / 1e3).collect();
    Measured {
        latency_us: median(&mut admit_us).unwrap_or(f64::NAN),
        due,
        lost,
    }
}

/// Set-up cycles torn down before the measured one: the merged set must
/// grow over one uninterrupted span, so `churn` cannot be cut into
/// segments and repeats its set-up this way instead.
const THROWAWAY_SETUPS: usize = 4;

fn live_run(args: &Args, throwaway: usize, span: Duration) -> (LiveRun, Built, Control) {
    let built = std::cell::RefCell::new(None);
    let mut control = None;
    let run = live::run_live(
        Plan::single(span, throwaway),
        |_| {
            let (live, t, b) = build(args.seed, span);
            *built.borrow_mut() = Some(b);
            (live, t)
        },
        |live, open, _| {
            let Live::Single(rt) = live else {
                unreachable!("churn runs on the single-owner runtime")
            };
            let built = built.borrow();
            let built = built.as_ref().expect("built before the span");
            control = Some(drive(rt, open, built));
        },
    );
    (
        run,
        built.into_inner().expect("built"),
        control.expect("the span ran"),
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let is_base = |t: TaskId| t.index() < 6;
    if !args.trace {
        let throwaway = if args.smoke { 1 } else { THROWAWAY_SETUPS };
        let (run, built, control) = live_run(args, throwaway, args.span());
        let m = measure(&run, &built, &control, &mut out);
        let rs = live::record_stats(&run, is_base);
        out.e2e = vec![
            ("setup_s", run.setup_s()),
            ("peak_rss_mb", run.peak_rss_mb),
            ("latency_us", m.latency_us),
            ("cpu_us_per_job", run.cpu_us_per_job(LEVEL)),
        ];
        out.notes = vec![
            ("latency_samples", control.admit_ns.len() as f64),
            ("base_jobs_due", m.due as f64),
            ("deadline_misses_ratio", rs.miss_ratio),
            ("gen_late_p50_us", median_u64(&control.gen_late_ns) / 1e3),
            (
                "merged_tasks_at_end",
                (6 + 3 * control.admit_ns.len()) as f64,
            ),
            (
                "queue_overflows",
                run.segments[0].report.engine_stats.channel_overflows as f64,
            ),
        ];
        return out;
    }

    // Tracing here is timers round the harness's own calls: there is no
    // traced variant of the bodies, so the "overhead" is the A/A
    // difference of two identical shorter runs.
    let span = args.traced_span();
    let (plain, plain_built, plain_control) = live_run(args, 0, span);
    let plain_lat = measure(&plain, &plain_built, &plain_control, &mut out).latency_us;
    drop(plain);
    let (run, built, control) = live_run(args, 0, span);
    let m = measure(&run, &built, &control, &mut out);
    let rs = live::record_stats(&run, is_base);

    let mut aw = admit_windows(&control, span);
    out.latency_layers(&mut aw);
    let mut w = live::wait_windows(&run, |r| is_base(r.job.task));
    out.layer("rt.base_wait_p50_us", w.level_of(0.5, 10).unwrap_or(0.0));
    let mut all = live::wait_windows(&run, |_| true);
    out.wait_layers(&mut all);
    live::rt_layers(&run, &rs, m.due, m.lost, &mut out);
    out.layer(
        "rt.admit_rtt_p50_us",
        median_u64(&control.admit_rtt_ns) / 1e3,
    );
    out.layer(
        "rt.retire_rtt_p50_us",
        median_u64(&control.retire_rtt_ns) / 1e3,
    );
    out.layer(
        "harness.gen_late_p50_us",
        median_u64(&control.gen_late_ns) / 1e3,
    );
    out.layer(
        "harness.trace_overhead_pct",
        (m.latency_us - plain_lat) / plain_lat * 100.0,
    );

    // Replays the run's own sequence of sets through the admission
    // layers alone (no runtime): admit ⊃ {evaluate, splice_rtt}.
    let replay = probes::admission_replay(&built.inputs, &config(), &mut out);
    let mut trace = Trace::with_capacity(control.admits.len() * 3);
    let origin = run.from_ns;
    for (k, &(due, call, ret)) in control.admits.iter().enumerate() {
        let admit = trace.span("admit", k as u64, None, origin + due, origin + ret);
        // The evaluate share of the call, as measured by the replay of
        // the same set; the rest of the round trip is the splice and
        // the wait for the scheduler thread.
        let eval = replay.get(k).copied().unwrap_or(0).min(ret - call);
        trace.span(
            "sched.evaluate",
            k as u64,
            Some(admit),
            origin + call,
            origin + call + eval,
        );
        trace.span(
            "rt.splice_rtt",
            k as u64,
            Some(admit),
            origin + call + eval,
            origin + ret,
        );
    }
    out.layer("harness.spans", trace.len() as f64);
    out.trace = Some(trace);

    probes::own_set(&base_taskset(&built.inputs.base), &config(), &mut out);
    out
}
