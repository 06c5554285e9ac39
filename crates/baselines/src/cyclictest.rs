//! cyclictest — the response-latency measurement of §4.2 / Table 2.
//!
//! The paper invokes `cyclictest -t 6 -d 0 -i 10000 -m -l 10000`:
//! 6 threads woken every 10 ms, 10 000 activations, memory locked,
//! under stress-ng interference. It compares the stock tool ("RTapps")
//! against a YASMIN-managed variant on Linux+PREEMPT_RT and LitmusRT.
//!
//! Three layers here:
//!
//! * [`run_real`] — an actual cyclictest loop on the host (threads +
//!   absolute sleeps), used by examples and smoke tests;
//! * [`measure_engine_overhead`] — wall-clock-times the *real* YASMIN
//!   engine handling a cyclictest-shaped task set, producing the
//!   middleware-cost distribution;
//! * [`simulate`] — regenerates a Table 2 row: kernel wake-up latency
//!   from the calibrated kernel model, plus (for the YASMIN variant) the
//!   measured engine cost and a calibrated dispatch-path term.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use yasmin_core::config::Config;
use yasmin_core::graph::TaskSetBuilder;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::stats::{Samples, Summary};
use yasmin_core::task::TaskSpec;
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::VersionSpec;
use yasmin_core::WorkerId;
use yasmin_sched::{Action, ActionSink, Input, OnlineEngine};
use yasmin_sim::{KernelKind, KernelModel};

/// Configuration mirroring the paper's cyclictest invocation.
#[derive(Clone, Copy, Debug)]
pub struct CyclictestConfig {
    /// `-t`: measurement threads.
    pub threads: usize,
    /// `-i`: activation interval.
    pub interval: Duration,
    /// `-l`: activations per thread.
    pub loops: usize,
}

impl Default for CyclictestConfig {
    fn default() -> Self {
        // -t 6 -i 10000 (µs) -l 10000
        CyclictestConfig {
            threads: 6,
            interval: Duration::from_millis(10),
            loops: 10_000,
        }
    }
}

/// Which cyclictest variant a row measures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// The stock tool: threads woken directly by the kernel ("RTapps" /
    /// the litmus-shipped versions).
    Native,
    /// Threads managed by YASMIN: the scheduler thread relays wake-ups.
    Yasmin,
}

impl Variant {
    /// Row label as in Table 2.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Variant::Native => "RTapps",
            Variant::Yasmin => "YASMIN",
        }
    }
}

/// Calibrated middleware-path parameters per kernel (see module docs —
/// the deltas of Table 2 between the YASMIN and native rows).
#[derive(Clone, Copy, Debug)]
struct YasminPathParams {
    /// Probability the scheduler thread is already awake at the timer
    /// edge (its gcd tick matches the 10 ms interval), bypassing the
    /// kernel wake-up.
    fast_path_prob: f64,
    /// Latency bounds (µs) of that fast path.
    fast_path_us: (f64, f64),
    /// Fixed signal/dispatch cost added on the normal path.
    base_us: f64,
    /// Uniform spread on top of the fixed cost.
    spread_us: f64,
}

fn yasmin_path(kernel: KernelKind) -> YasminPathParams {
    match kernel {
        KernelKind::PreemptRt => YasminPathParams {
            fast_path_prob: 0.10,
            fast_path_us: (80.0, 150.0),
            base_us: 75.0,
            spread_us: 20.0,
        },
        KernelKind::LitmusGsnEdf | KernelKind::LitmusPres => YasminPathParams {
            fast_path_prob: 0.0,
            fast_path_us: (0.0, 0.0),
            base_us: 34.0,
            spread_us: 90.0,
        },
        KernelKind::VanillaLinux => YasminPathParams {
            fast_path_prob: 0.05,
            fast_path_us: (100.0, 300.0),
            base_us: 80.0,
            spread_us: 80.0,
        },
    }
}

/// Builds the cyclictest-shaped task set (`threads` periodic tasks with
/// the given interval) and wall-clock-times the real scheduling engine
/// processing `iterations` tick/completion rounds. The returned samples
/// (nanoseconds per engine call) are the middleware's measured cost.
///
/// # Panics
///
/// Panics on invalid configurations (zero threads).
#[must_use]
pub fn measure_engine_overhead(cfg: &CyclictestConfig, iterations: usize) -> Samples {
    assert!(cfg.threads > 0, "need at least one thread");
    let mut b = TaskSetBuilder::new();
    for i in 0..cfg.threads {
        let t = b
            .task_decl(TaskSpec::periodic(format!("cyclic{i}"), cfg.interval))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
    }
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(cfg.threads)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap();
    let mut engine = OnlineEngine::new(ts, config).unwrap();
    let mut samples = Samples::with_capacity(iterations * 2);

    let mut now = Instant::ZERO;
    let mut sink = ActionSink::with_capacity(256);
    let t0 = std::time::Instant::now();
    engine.apply(now, &Input::Start, &mut sink).unwrap();
    samples.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let mut running: Vec<(WorkerId, yasmin_core::JobId)> = sink
        .as_slice()
        .iter()
        .filter_map(|a| match a {
            Action::Dispatch { worker, job, .. } => Some((*worker, job.id)),
            _ => None,
        })
        .collect();

    for _ in 0..iterations {
        // Complete everything running, then tick the next period.
        for (w, j) in running.drain(..) {
            sink.clear();
            let t0 = std::time::Instant::now();
            let _ = engine.apply(
                now + Duration::from_micros(100),
                &Input::Completed(&[(w, j)]),
                &mut sink,
            );
            samples.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        now += cfg.interval;
        sink.clear();
        let t0 = std::time::Instant::now();
        engine
            .apply(now, &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        samples.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        running = sink
            .as_slice()
            .iter()
            .filter_map(|a| match a {
                Action::Dispatch { worker, job, .. } => Some((*worker, job.id)),
                _ => None,
            })
            .collect();
    }
    samples
}

/// Regenerates one Table 2 measurement: `threads × loops` wake-up
/// latencies under `kernel` at `stress` intensity. For the YASMIN
/// variant the measured `engine_cost` samples and the calibrated
/// dispatch-path terms are added on top of the kernel wake-up.
#[must_use]
pub fn simulate(
    kernel: KernelKind,
    variant: Variant,
    cfg: &CyclictestConfig,
    stress: f64,
    engine_cost: &Samples,
    seed: u64,
) -> Summary {
    let mut model = KernelModel::new(kernel, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1C1);
    let path = yasmin_path(kernel);
    let total = cfg.threads * cfg.loops;
    let mut out = Summary::new();
    for _ in 0..total {
        let kernel_wake = model.sample_latency(stress);
        let latency_ns = match variant {
            Variant::Native => kernel_wake.as_nanos(),
            Variant::Yasmin => {
                let wake_ns = if path.fast_path_prob > 0.0
                    && rng.random_range(0.0..1.0) < path.fast_path_prob
                {
                    let us: f64 = rng.random_range(path.fast_path_us.0..=path.fast_path_us.1);
                    (us * 1_000.0) as u64
                } else {
                    let extra: f64 = if path.spread_us > 0.0 {
                        rng.random_range(0.0..path.spread_us)
                    } else {
                        0.0
                    };
                    kernel_wake.as_nanos() + ((path.base_us + extra) * 1_000.0) as u64
                };
                let engine_ns = if engine_cost.is_empty() {
                    0
                } else {
                    let idx = rng.random_range(0..engine_cost.count());
                    engine_cost.values()[idx]
                };
                wake_ns + engine_ns
            }
        };
        out.record(latency_ns);
    }
    out
}

/// Runs a *real* cyclictest loop on the host: `threads` threads, each
/// sleeping to an absolute next-period instant and recording its wake-up
/// lateness. This is the "RTapps" analogue for whatever kernel this host
/// runs; YASMIN-managed measurement lives in `yasmin-rt`.
#[must_use]
pub fn run_real(cfg: &CyclictestConfig) -> Summary {
    let handles: Vec<_> = (0..cfg.threads)
        .map(|_| {
            let loops = cfg.loops;
            let interval: std::time::Duration = cfg.interval.into();
            std::thread::spawn(move || {
                let mut s = Summary::new();
                let mut next = std::time::Instant::now() + interval;
                for _ in 0..loops {
                    let late =
                        yasmin_sync::wait::wait_until(yasmin_sync::wait::WaitMode::Sleep, next);
                    s.record(u64::try_from(late.as_nanos()).unwrap_or(u64::MAX));
                    next += interval;
                }
                s
            })
        })
        .collect();
    let mut total = Summary::new();
    for h in handles {
        total.merge(&h.join().expect("cyclictest thread panicked"));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CyclictestConfig {
        CyclictestConfig {
            threads: 6,
            interval: Duration::from_millis(10),
            loops: 2_000,
        }
    }

    #[test]
    fn engine_overhead_measured() {
        let s = measure_engine_overhead(&small_cfg(), 200);
        assert!(s.count() >= 200);
        // Engine calls on this machine are well under a millisecond.
        assert!(s.mean().unwrap() < 1_000_000.0);
    }

    #[test]
    fn native_rows_match_kernel_models() {
        let engine = Samples::new();
        let rt = simulate(
            KernelKind::PreemptRt,
            Variant::Native,
            &small_cfg(),
            1.0,
            &engine,
            1,
        );
        let (min, max, avg) = rt.as_micros_triple();
        assert!((100.0..300.0).contains(&min), "min {min}");
        assert!((700.0..2_500.0).contains(&max), "max {max}");
        assert!((300.0..650.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn yasmin_adds_overhead_on_litmus() {
        let engine = measure_engine_overhead(&small_cfg(), 100);
        let native = simulate(
            KernelKind::LitmusGsnEdf,
            Variant::Native,
            &small_cfg(),
            1.0,
            &engine,
            2,
        );
        let yasmin = simulate(
            KernelKind::LitmusGsnEdf,
            Variant::Yasmin,
            &small_cfg(),
            1.0,
            &engine,
            2,
        );
        assert!(
            yasmin.mean().unwrap() > native.mean().unwrap(),
            "middleware must cost something on LitmusRT"
        );
        // Paper's YASMIN row: <67, 318, 170> µs; check the decade.
        let (min, _max, avg) = yasmin.as_micros_triple();
        assert!((50.0..120.0).contains(&min), "min {min}");
        assert!((100.0..260.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn yasmin_fast_path_lowers_min_on_preempt_rt() {
        let engine = Samples::new();
        let native = simulate(
            KernelKind::PreemptRt,
            Variant::Native,
            &small_cfg(),
            1.0,
            &engine,
            3,
        );
        let yasmin = simulate(
            KernelKind::PreemptRt,
            Variant::Yasmin,
            &small_cfg(),
            1.0,
            &engine,
            3,
        );
        // Paper: YASMIN min (90) < RTapps min (176) on PREEMPT_RT.
        assert!(yasmin.min().unwrap() < native.min().unwrap());
        // ... while the average is slightly higher (500 vs 463).
        assert!(yasmin.mean().unwrap() > native.mean().unwrap());
    }

    #[test]
    fn pres_dominates_everything() {
        let engine = Samples::new();
        let pres = simulate(
            KernelKind::LitmusPres,
            Variant::Native,
            &small_cfg(),
            1.0,
            &engine,
            4,
        );
        let (min, _, avg) = pres.as_micros_triple();
        assert!(min > 900.0, "min {min}");
        assert!(avg > 950.0, "avg {avg}");
    }

    #[test]
    fn real_loop_smoke() {
        let cfg = CyclictestConfig {
            threads: 2,
            interval: Duration::from_millis(2),
            loops: 20,
        };
        let s = run_real(&cfg);
        assert_eq!(s.count(), 40);
        // Lateness is non-negative and this host should stay under 1s.
        assert!(s.max().unwrap() < 1_000_000_000);
    }
}
