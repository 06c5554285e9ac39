//! `explore` — the paper's design-space-exploration use, closed loop on
//! the harness thread: repetitions of one sweep until the span is over.
//!
//! One sweep is (a) the Fig. 2 grid — DRS sets (`gen::explore`) n ∈
//! {20, 60, 120} × U ∈ {0.6, 1.0, 1.4} × 2 draws × {EDF, RM}, 2 workers,
//! preemptive, through [`Simulation::run`]; (b) Fig. 4 — the drone
//! workload × 3 version restrictions × 2 version policies × 2 platforms;
//! (c) `taskgen::dag` sets partitioned over 2 workers through
//! [`run_partitioned_parallel`] with stealing (the deterministic
//! protocol loop, one producer thread).
//!
//! Headline "latency": host µs per 1000 simulated jobs, and
//! `cpu_us_per_job`, process CPU per simulated job — both over the
//! **fastest run of every configuration**: each of the 52 configurations
//! is simulated once per repetition (50–80 times a run), its fastest
//! wall time and its fastest CPU time are kept, and the 52 minima are
//! summed and divided by the sweep's job count ([`fastest`]).
//!
//! Why the minimum, here and nowhere else in the benchmark: every run
//! of a configuration does bit-identical work on one thread (the
//! fingerprints are compared), so the program contributes no variance
//! and whatever separates two timings of one configuration is the host
//! — which runs this code ×1.5–1.7 slower in bursts of 0.1–5 s that
//! cover anything from none to all of a run. A configuration takes
//! 0.5–10 ms, so its fastest of 60 needs one quiet 10 ms in 20 s; a
//! low quantile over whole repetitions needs quiet quarter seconds, and
//! with the lowest decile over repetitions the driver measured a 32 %
//! spread between runs of the same code. On the same samples the
//! per-configuration minima spread 1–7 % per ten runs, 18 % in one ten
//! where two runs never ran at full speed at all; dividing by a
//! reference kernel timed beside each configuration does not help (the
//! host slows every kernel tried less than it slows the simulator). The
//! README's "Host noise" section has the tables.
//!
//! The median over repetitions is printed beside the gated value
//! (`latency_wmed_us`, `cpu_wmed_us_per_job`): it says how noisy the
//! host was during the run. Set-up is repeated *between* repetitions,
//! every eighth one, so its median sees several host phases too.

use crate::gen::{self, ExploreInputs};
use crate::host;
use crate::json::Json;
use crate::report::Outcome;
use crate::stats::{median, median_u64, quantile};
use crate::trace::Trace;
use crate::{probes, Args};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yasmin::analysis::{gfb_global_edf_test, WcetAssumption};
use yasmin::core::platform::PlatformSpec;
use yasmin::core::time::Duration as RtDuration;
use yasmin::core::version::ExecMode;
use yasmin::prelude::*;
use yasmin::sim::{run_partitioned_parallel, OverheadModel, ParSimOptions, SimResult};
use yasmin::taskgen::dag::build_dag;
use yasmin::taskgen::drone::{self, VersionRestriction, FRAME_PERIOD, SECURE_MODE};

const GRID_HORIZON: RtDuration = RtDuration::from_secs(20);
const DRONE_HORIZON: RtDuration = RtDuration::from_secs(30);
const DAG_HORIZON: RtDuration = RtDuration::from_secs(10);
const GRID_WORKERS: usize = 2;
/// A set-up cycle (inputs → sets → verdicts → warm-up) is repeated
/// after every this many repetitions.
const SETUP_EVERY_REPS: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Grid,
    Drone,
    Dag,
}

/// One simulator configuration of the sweep, ready to run.
#[derive(Clone)]
struct SimJob {
    label: String,
    kind: Kind,
    taskset: Arc<TaskSet>,
    config: Config,
    sim: SimConfig,
    /// `Some(true)` when `yasmin_analysis` admits the set under this
    /// configuration: the simulation must then show no miss.
    admitted: Option<bool>,
}

/// What one configuration produced: exact, so it must repeat.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Fingerprint {
    jobs: u64,
    misses: u64,
    /// Order-independent hash of every `(task, seq, completion)`.
    hash: u64,
}

/// One SplitMix64 step from `z`: the harness's one bit mixer.
fn mix(z: u64) -> u64 {
    gen::Rng::new(z).next_u64()
}

fn fingerprint(r: &SimResult) -> Fingerprint {
    let hash = r.records.iter().fold(0u64, |h, rec| {
        h.wrapping_add(mix(u64::from(rec.task.raw()) << 40
            ^ rec.seq << 1
            ^ mix(rec.completion.as_nanos())))
    });
    Fingerprint {
        jobs: r.records.len() as u64,
        misses: r.total_misses() as u64,
        hash,
    }
}

fn grid_jobs(inputs: &ExploreInputs, jobs: &mut Vec<SimJob>) {
    for (i, set) in inputs.grid.iter().enumerate() {
        let mut b = TaskSetBuilder::new();
        for g in &set.tasks {
            let t = b
                .task_decl(TaskSpec::periodic(&g.name, g.period))
                .expect("valid generated task");
            b.version_decl(t, VersionSpec::new(&g.name, g.wcet))
                .expect("valid generated version");
        }
        let ts = Arc::new(b.build().expect("valid generated set"));
        let gfb = gfb_global_edf_test(&ts, GRID_WORKERS, WcetAssumption::MaxVersion);
        for policy in [
            PriorityPolicy::EarliestDeadlineFirst,
            PriorityPolicy::RateMonotonic,
        ] {
            let config = Config::builder()
                .workers(GRID_WORKERS)
                .priority(policy)
                .max_pending_jobs(8192)
                .build()
                .expect("valid config");
            jobs.push(SimJob {
                label: format!(
                    "grid/n{}/u{:.1}/s{}/{}",
                    set.n,
                    set.utilisation,
                    i % gen::EXPLORE_SETS_PER_CELL as usize,
                    policy.label()
                ),
                kind: Kind::Grid,
                taskset: Arc::clone(&ts),
                config,
                sim: SimConfig::uniform(GRID_WORKERS, GRID_HORIZON),
                // GFB is a global-EDF test; nothing is claimed for RM.
                admitted: (policy == PriorityPolicy::EarliestDeadlineFirst).then_some(gfb),
            });
        }
    }
}

fn drone_jobs(inputs: &ExploreInputs, jobs: &mut Vec<SimJob>) {
    // One secure/normal decision per frame, 35 % secure, as in Fig. 4.
    let mut rng = gen::Rng::new(inputs.mode_seed);
    let frames = DRONE_HORIZON.as_nanos() / FRAME_PERIOD.as_nanos();
    let mode_schedule: Vec<(RtDuration, ExecMode)> = (0..frames)
        .map(|k| {
            let mode = if rng.below(100) < 35 {
                SECURE_MODE
            } else {
                ExecMode::NORMAL
            };
            (RtDuration::from_nanos(FRAME_PERIOD.as_nanos() * k), mode)
        })
        .collect();
    for platform in [PlatformSpec::apalis_tk1(), PlatformSpec::odroid_xu4()] {
        for restriction in VersionRestriction::ALL {
            for policy in [VersionPolicy::Mode, VersionPolicy::ShortestWcet] {
                let workload = drone::build(restriction).expect("valid drone workload");
                let config = Config::builder()
                    .workers(3)
                    .priority(PriorityPolicy::EarliestDeadlineFirst)
                    .version_policy(policy.clone())
                    .max_pending_jobs(4096)
                    .build()
                    .expect("valid config");
                let mut sim = SimConfig::uniform(3, DRONE_HORIZON);
                sim.platform = platform.clone();
                sim.overheads = OverheadModel::default();
                sim.mode_schedule = mode_schedule.clone();
                jobs.push(SimJob {
                    label: format!(
                        "drone/{}/{}/{}",
                        platform.name(),
                        restriction.label(),
                        policy.label()
                    ),
                    kind: Kind::Drone,
                    taskset: Arc::new(workload.taskset),
                    config,
                    sim,
                    admitted: None,
                });
            }
        }
    }
}

fn dag_jobs(inputs: &ExploreInputs, jobs: &mut Vec<SimJob>) {
    for (i, p) in inputs.dags.iter().enumerate() {
        // A generated DAG carries no placement; the sharded drivers need
        // one: round-robin by task index.
        let ts = probes::rebuild(&build_dag(p).expect("valid DAG parameters"), |i| {
            Some(WorkerId::new((i % 2) as u16))
        });
        let config = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .max_pending_jobs(4096)
            .build()
            .expect("valid config");
        jobs.push(SimJob {
            label: format!("dag/s{i}"),
            kind: Kind::Dag,
            taskset: Arc::new(ts),
            config,
            sim: SimConfig::uniform(2, DAG_HORIZON),
            admitted: None,
        });
    }
}

fn sweep_jobs(seed: u64) -> Vec<SimJob> {
    let inputs = gen::explore(seed);
    let mut jobs = Vec::new();
    grid_jobs(&inputs, &mut jobs);
    drone_jobs(&inputs, &mut jobs);
    dag_jobs(&inputs, &mut jobs);
    jobs
}

fn simulate(job: &SimJob, measure_engine_time: bool) -> SimResult {
    let mut sim = job.sim.clone();
    sim.measure_engine_time = measure_engine_time;
    let ts = Arc::clone(&job.taskset);
    match job.kind {
        Kind::Grid | Kind::Drone => Simulation::new(ts, job.config.clone(), sim)
            .expect("valid simulation")
            .run()
            .expect("simulation runs"),
        Kind::Dag => run_partitioned_parallel(
            ts,
            job.config.clone(),
            sim,
            ParSimOptions {
                producers: 1,
                lane_capacity: 64,
                steal: true,
                steal_batch: 4,
            },
        )
        .expect("protocol loop runs"),
    }
}

/// One repetition of the sweep.
struct Rep {
    start_ns: u64,
    /// `(start, end)` of every configuration, ns since the run's epoch.
    spans: Vec<(u64, u64)>,
    /// Process CPU ns of every configuration.
    cpu: Vec<u64>,
    prints: Vec<Fingerprint>,
    jobs: u64,
    engine_call_ns: Vec<u64>,
    records_bytes: u64,
    stats: yasmin::sched::EngineStats,
}

/// The unmeasured warm-up that closes every set-up cycle, counted into
/// `setup_s` like the live workloads' 250 ms of schedule: a fixed
/// *time*, so `setup_s` is the cost of generating, building and
/// analysing the sweep plus a constant, and does not follow the host's
/// speed (as a fixed 600 k simulated jobs it read 0.100 s in one set of
/// ten runs and 0.125 s in the next).
const WARMUP: Duration = Duration::from_millis(250);

/// Simulates configurations while another one still fits before
/// `until` (judged by twice the longest so far), then sleeps out the
/// rest, so the cycle ends on the deadline.
fn warm_up(jobs: &[SimJob], until: Instant) {
    let mut longest = Duration::ZERO;
    for job in jobs.iter().cycle() {
        let t = Instant::now();
        if t + longest * 2 >= until {
            break;
        }
        std::hint::black_box(simulate(job, false));
        longest = longest.max(t.elapsed());
    }
    crate::live::sleep_until(until);
}

fn sweep(jobs: &[SimJob], epoch: Instant, traced: bool) -> Rep {
    let mut rep = Rep {
        start_ns: epoch.elapsed().as_nanos() as u64,
        spans: Vec::with_capacity(jobs.len()),
        cpu: Vec::with_capacity(jobs.len()),
        prints: Vec::with_capacity(jobs.len()),
        jobs: 0,
        engine_call_ns: Vec::new(),
        records_bytes: 0,
        stats: Default::default(),
    };
    for job in jobs {
        let c0 = host::process_cpu_ns();
        let t0 = epoch.elapsed().as_nanos() as u64;
        let result = std::hint::black_box(simulate(job, traced));
        let t1 = epoch.elapsed().as_nanos() as u64;
        rep.cpu.push(host::process_cpu_ns() - c0);
        let fp = fingerprint(&result);
        rep.spans.push((t0, t1));
        rep.jobs += fp.jobs;
        rep.prints.push(fp);
        rep.records_bytes +=
            (result.records.len() * std::mem::size_of::<yasmin::sim::JobRecord>()) as u64;
        rep.stats.merge(&result.engine_stats);
        if traced {
            rep.engine_call_ns
                .extend_from_slice(result.sched_overhead_ns.values());
        }
    }
    rep
}

/// The golden file's text for a list of fingerprints.
fn golden_text(jobs: &[SimJob], prints: &[Fingerprint]) -> String {
    Json::Arr(
        jobs.iter()
            .zip(prints)
            .map(|(j, p)| {
                Json::obj([
                    ("config", Json::str(&j.label)),
                    ("jobs", Json::Int(p.jobs)),
                    ("misses", Json::Int(p.misses)),
                    ("hash", Json::str(format!("{:016x}", p.hash))),
                ])
            })
            .collect(),
    )
    .to_pretty()
}

/// Output checks over all repetitions: determinism, golden, sim ⊆
/// analysis. Returns the number of analysis/simulation disagreements.
fn check(jobs: &[SimJob], reps: &[Rep], args: &Args, out: &mut Outcome) -> u64 {
    let first = &reps[0].prints;
    let unstable = reps
        .iter()
        .flat_map(|r| r.prints.iter().zip(first))
        .filter(|(a, b)| a != b)
        .count() as u64;
    out.fail(
        unstable,
        "explore: (jobs, misses, hash) of a sim config differs between repetitions",
    );
    let mismatch = jobs
        .iter()
        .zip(first)
        .filter(|(j, p)| j.admitted == Some(true) && p.misses > 0)
        .count() as u64;
    out.fail(
        mismatch,
        "explore: deadline miss on a set yasmin_analysis admits",
    );
    let empty = first.iter().filter(|p| p.jobs == 0).count() as u64;
    out.fail(empty, "explore: sim config completed no job");
    if args.seed == 1 && !args.write_golden {
        let want = include_str!("../golden/seed1.json");
        let got = golden_text(jobs, first);
        if want != got {
            let line = want
                .lines()
                .zip(got.lines())
                .position(|(a, b)| a != b)
                .map_or(0, |i| i + 1);
            out.fail(
                1,
                format!("explore: result differs from golden/seed1.json (first at line {line})"),
            );
        }
    }
    mismatch
}

/// One set-up cycle: inputs from the seed, task sets, analysis
/// verdicts, then the fixed warm-up. Returns the sweep and the seconds
/// taken.
fn set_up(seed: u64) -> (Vec<SimJob>, f64) {
    let t0 = Instant::now();
    let jobs = sweep_jobs(seed);
    warm_up(&jobs, Instant::now() + WARMUP);
    (jobs, t0.elapsed().as_secs_f64())
}

/// Closed loop: sweeps until `span` has elapsed (at least three). With
/// `setups`, the set-up cycle is repeated every [`SETUP_EVERY_REPS`]
/// repetitions and timed into it.
fn repeat(
    jobs: &mut Vec<SimJob>,
    span: Duration,
    epoch: Instant,
    traced: bool,
    mut setups: Option<(u64, &mut Vec<f64>)>,
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < span || reps.len() < 3 {
        reps.push(sweep(jobs, epoch, traced));
        if let Some((seed, times)) = &mut setups {
            if reps.len() % SETUP_EVERY_REPS == 0 {
                let (again, secs) = set_up(*seed);
                *jobs = again;
                times.push(secs);
            }
        }
    }
    reps
}

/// The `across`-quantile of `f` over the repetitions.
fn over_reps(reps: &[Rep], across: f64, f: impl Fn(&Rep) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    quantile(&mut v, across).unwrap_or(f64::NAN)
}

/// The sweep at the speed the host allows when it leaves the program
/// alone: the fastest `ns_of(rep, configuration)` of every
/// configuration that `keep`s, over all repetitions, summed, per
/// simulated job of those configurations (every repetition simulates
/// the same jobs). See the module docs for why this workload, and only
/// this one, takes a minimum.
fn fastest(reps: &[Rep], keep: impl Fn(usize) -> bool, ns_of: impl Fn(&Rep, usize) -> u64) -> f64 {
    let (mut ns, mut jobs) = (0u64, 0u64);
    for c in (0..reps[0].spans.len()).filter(|&c| keep(c)) {
        ns += reps.iter().map(|r| ns_of(r, c)).min().unwrap_or(0);
        jobs += reps[0].prints[c].jobs;
    }
    ns as f64 / jobs.max(1) as f64
}

fn wall_ns(rep: &Rep, config: usize) -> u64 {
    rep.spans[config].1 - rep.spans[config].0
}

/// Host µs per 1000 simulated jobs = ns per job.
fn fastest_us_per_kjob(reps: &[Rep]) -> f64 {
    fastest(reps, |_| true, wall_ns)
}

fn fastest_cpu_us_per_job(reps: &[Rep]) -> f64 {
    fastest(reps, |_| true, |r, c| r.cpu[c]) / 1e3
}

/// One repetition's µs per 1000 jobs and CPU µs per job inside the
/// simulator calls: what [`fastest`] is the noise-free version of.
fn us_per_kjob(rep: &Rep) -> f64 {
    (0..rep.spans.len()).map(|c| wall_ns(rep, c)).sum::<u64>() as f64 / rep.jobs.max(1) as f64
}

fn cpu_us_per_job(rep: &Rep) -> f64 {
    rep.cpu.iter().sum::<u64>() as f64 / 1e3 / rep.jobs.max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();

    let (mut jobs, first_setup) = set_up(args.seed);
    let mut setups = vec![first_setup];

    if args.write_golden {
        let rep = sweep(&jobs, epoch, false);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/seed1.json");
        std::fs::write(&path, golden_text(&jobs, &rep.prints)).expect("writing the golden file");
        eprintln!("wrote {}", path.display());
    }

    if !args.trace {
        let resetup = (!args.smoke).then_some((args.seed, &mut setups));
        let reps = repeat(&mut jobs, args.span(), epoch, false, resetup);
        let peak_rss_mb = host::peak_rss_mb();
        check(&jobs, &reps, args, &mut out);
        out.attempted = (jobs.len() * reps.len()) as u64;
        let latency_us = fastest_us_per_kjob(&reps);
        out.e2e = vec![
            ("setup_s", median(&mut setups).unwrap_or(f64::NAN)),
            ("peak_rss_mb", peak_rss_mb),
            ("latency_us", latency_us),
            ("cpu_us_per_job", fastest_cpu_us_per_job(&reps)),
        ];
        out.notes = vec![
            ("latency_wmed_us", over_reps(&reps, 0.5, us_per_kjob)),
            ("cpu_wmed_us_per_job", over_reps(&reps, 0.5, cpu_us_per_job)),
            ("latency_samples", reps.len() as f64),
            ("setup_samples", setups.len() as f64),
            ("sim_mjobs_per_s", 1e3 / latency_us),
            ("sim_jobs_per_rep", reps[0].jobs as f64),
            ("sim_configs", jobs.len() as f64),
        ];
        return out;
    }

    // Traced: plain repetitions, then repetitions with the simulator
    // timing every engine call (`SimConfig::measure_engine_time`).
    let span = args.traced_span();
    let plain = repeat(&mut jobs, span, epoch, false, None);
    check(&jobs, &plain, args, &mut out);
    let plain_lat = fastest_us_per_kjob(&plain);
    let reps = repeat(&mut jobs, span, epoch, true, None);
    let mismatch = check(&jobs, &reps, args, &mut out);
    out.attempted = (jobs.len() * (plain.len() + reps.len())) as u64;

    let mut lat: Vec<f64> = reps.iter().map(us_per_kjob).collect();
    let traced_lat = fastest_us_per_kjob(&reps);
    out.layer("e2e.latency_wmed_us", over_reps(&reps, 0.5, us_per_kjob));
    out.layer(
        "e2e.cpu_wmed_us_per_job",
        over_reps(&plain, 0.5, cpu_us_per_job),
    );
    out.layer(
        "e2e.latency_p90w_us",
        quantile(&mut lat, 0.9).unwrap_or(0.0),
    );
    out.layer(
        "e2e.latency_p99w_us",
        quantile(&mut lat, 0.99).unwrap_or(0.0),
    );
    out.layer(
        "e2e.latency_p99_us",
        quantile(&mut lat, 0.99).unwrap_or(0.0),
    );
    out.layer("e2e.latency_samples", lat.len() as f64);
    out.layer("e2e.latency_windows", lat.len() as f64);
    out.layer(
        "harness.trace_overhead_pct",
        (traced_lat - plain_lat) / plain_lat * 100.0,
    );
    // Throughput of the untraced repetitions (the traced ones pay two
    // clock reads per engine call).
    out.layer("sim.mjobs_per_s", 1e3 / plain_lat);
    let per_job = |k: Kind| fastest(&plain, |c| jobs[c].kind == k, wall_ns);
    out.layer("sim.single_ns_per_job", per_job(Kind::Grid));
    out.layer("sim.drone_ns_per_job", per_job(Kind::Drone));
    out.layer("sim.protocol_ns_per_job", per_job(Kind::Dag));
    let calls: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.engine_call_ns.iter().copied())
        .collect();
    out.layer("sim.engine_call_p50_ns", median_u64(&calls));
    out.layer("sim.jobs", reps[0].jobs as f64);
    out.layer(
        "sim.misses",
        reps[0].prints.iter().map(|p| p.misses).sum::<u64>() as f64,
    );
    out.layer(
        "sim.records_mb_per_rep",
        reps[0].records_bytes as f64 / (1024.0 * 1024.0),
    );
    out.layer("analysis.verdict_mismatch", mismatch as f64);
    // One sweep's counters, summed over its configurations.
    out.engine_layers(&reps[0].stats, reps[0].stats.max_ready);

    // Spans: rep ⊃ sim.run, one id per sim config.
    let mut trace = Trace::with_capacity(reps.len() * (jobs.len() + 1));
    for (r, rep) in reps.iter().enumerate() {
        let end = rep.spans.last().map_or(rep.start_ns, |s| s.1);
        let parent = trace.span("explore.rep", r as u64, None, rep.start_ns, end);
        for (c, &(s, e)) in rep.spans.iter().enumerate() {
            trace.span("sim.run", c as u64, Some(parent), s, e);
        }
    }
    out.layer("harness.spans", trace.len() as f64);
    out.trace = Some(trace);

    // Replay the largest grid set through the layers.
    let big = jobs
        .iter()
        .filter(|j| j.kind == Kind::Grid)
        .max_by_key(|j| j.taskset.len())
        .expect("the grid is never empty");
    probes::own_set(&big.taskset, &big.config, &mut out);
    // The layer this workload's set-up is made of.
    probes::taskgen_probes(args.seed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_has_the_documented_shape_and_repeats() {
        let jobs = sweep_jobs(1);
        assert_eq!(jobs.iter().filter(|j| j.kind == Kind::Grid).count(), 36);
        assert_eq!(jobs.iter().filter(|j| j.kind == Kind::Drone).count(), 12);
        assert_eq!(jobs.iter().filter(|j| j.kind == Kind::Dag).count(), 4);
        // One short config of each kind, plain and traced: same result.
        for kind in [Kind::Grid, Kind::Drone, Kind::Dag] {
            let mut job = jobs.iter().find(|j| j.kind == kind).unwrap().clone();
            job.sim.horizon = RtDuration::from_millis(500);
            job.sim.mode_schedule.clear();
            let (a, b) = (simulate(&job, false), simulate(&job, true));
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", job.label);
            assert!(fingerprint(&a).jobs > 0, "{}", job.label);
        }
    }

    #[test]
    fn fastest_sums_each_configurations_minimum() {
        // Two configurations (1000 and 3000 jobs), three repetitions;
        // the host slowed a different configuration each time.
        let rep = |wall: [u64; 2], cpu: [u64; 2]| Rep {
            start_ns: 0,
            spans: vec![(0, wall[0]), (wall[0], wall[0] + wall[1])],
            cpu: cpu.to_vec(),
            prints: [1000, 3000]
                .map(|jobs| Fingerprint {
                    jobs,
                    misses: 0,
                    hash: 0,
                })
                .to_vec(),
            jobs: 4000,
            engine_call_ns: Vec::new(),
            records_bytes: 0,
            stats: Default::default(),
        };
        let reps = [
            rep([100_000, 900_000], [100_000, 880_000]),
            rep([160_000, 600_000], [150_000, 610_000]),
            rep([110_000, 640_000], [90_000, 700_000]),
        ];
        assert_eq!(
            fastest_us_per_kjob(&reps),
            (100_000 + 600_000) as f64 / 4000.0
        );
        assert_eq!(
            fastest_cpu_us_per_job(&reps),
            (90_000 + 610_000) as f64 / 4000.0 / 1e3
        );
        assert_eq!(fastest(&reps, |c| c == 1, wall_ns), 600_000.0 / 3000.0);
        // A repetition's own figure takes everything it ran.
        assert_eq!(us_per_kjob(&reps[0]), 1_000_000.0 / 4000.0);
    }

    #[test]
    fn pinning_keeps_the_graph() {
        let p = &gen::explore(3).dags[0];
        let ts = build_dag(p).unwrap();
        let pinned = probes::rebuild(&ts, |i| Some(WorkerId::new((i % 2) as u16)));
        assert_eq!(ts.len(), pinned.len());
        assert_eq!(ts.edges().len(), pinned.edges().len());
        assert!(pinned
            .tasks()
            .iter()
            .all(|t| t.spec().assigned_worker().is_some()));
    }
}
