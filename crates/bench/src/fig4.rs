//! Experiment E4 — Figure 4: scheduling exploration for the drone
//! use-case.
//!
//! Twelve configurations: {G-EDF, G-DM, P-EDF, P-DM} × {CPU-only,
//! GPU-only, both}. The workload is the SAR application of Figure 3b on
//! an Apalis-TK1-class platform: three workers plus the dedicated
//! scheduler thread on the quad-core Cortex-A15. A fraction of frames
//! "detect boats", switching the system into the secure mode where the
//! `encode` task runs its AES version (§5) — the mechanism behind the
//! CPU-only/GPU-only deadline misses that the multi-version "both"
//! configurations absorb.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme, VersionPolicy};
use yasmin_core::platform::PlatformSpec;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::time::Duration;
use yasmin_core::version::ExecMode;
use yasmin_sim::{ExecModel, SimConfig, Simulation};
use yasmin_taskgen::drone::{self, VersionRestriction, FRAME_PERIOD, SECURE_MODE};

/// Parameters of the exploration.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Params {
    /// Simulated mission length.
    pub mission: Duration,
    /// Fraction (percent) of frames that detect boats and require secure
    /// (AES) encoding.
    pub secure_pct: u32,
    /// Worker threads (the 4th A15 core hosts the scheduler thread).
    pub workers: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Fig4Params {
    fn default() -> Self {
        Fig4Params {
            mission: Duration::from_secs(60),
            secure_pct: 35,
            workers: 3,
            seed: 7,
        }
    }
}

impl Fig4Params {
    /// A fast variant for tests.
    #[must_use]
    pub fn quick() -> Self {
        Fig4Params {
            mission: Duration::from_secs(10),
            ..Fig4Params::default()
        }
    }
}

/// One bar group of Figure 4.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Configuration label, e.g. `G-EDF-both`.
    pub label: String,
    /// Frames completed.
    pub frames: usize,
    /// Average frame-processing time (ms).
    pub avg_frame_ms: f64,
    /// Maximum frame-processing time (ms).
    pub max_frame_ms: f64,
    /// Deadline misses among frame-pipeline jobs (completed late or
    /// unfinished).
    pub frame_misses: usize,
    /// Deadline misses of the flight-control handler.
    pub fc_misses: usize,
    /// Overall deadline-miss ratio (all completed jobs).
    pub miss_ratio: f64,
}

/// The secure/normal mode schedule: one decision per frame window.
fn mode_schedule(p: &Fig4Params) -> Vec<(Duration, ExecMode)> {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let frames = p.mission / FRAME_PERIOD;
    (0..frames)
        .map(|k| {
            let secure = rng.random_range(0..100u32) < p.secure_pct;
            let mode = if secure {
                SECURE_MODE
            } else {
                ExecMode::NORMAL
            };
            (FRAME_PERIOD * k, mode)
        })
        .collect()
}

/// Runs one configuration and returns its row. Panics on internal
/// configuration errors (the parameter space is closed, so none are
/// expected).
fn run_one(
    mapping: MappingScheme,
    priority: PriorityPolicy,
    restriction: VersionRestriction,
    p: &Fig4Params,
) -> Fig4Row {
    let workload = match mapping {
        MappingScheme::Global => drone::build(restriction).expect("valid workload"),
        MappingScheme::Partitioned => {
            drone::build_partitioned(restriction, p.workers).expect("valid workload")
        }
    };
    let config = Config::builder()
        .workers(p.workers)
        .mapping(mapping)
        .priority(priority)
        .version_policy(VersionPolicy::Mode)
        .max_pending_jobs(4096)
        .build()
        .expect("valid config");
    let sim = SimConfig {
        platform: PlatformSpec::apalis_tk1(),
        horizon: p.mission,
        exec: ExecModel::Wcet,
        kernel: None,
        stress: yasmin_sim::StressProfile::IDLE,
        overheads: yasmin_sim::OverheadModel::default(),
        seed: p.seed,
        measure_engine_time: false,
        mode_schedule: mode_schedule(p),
        msg_schedule: Vec::new(),
        fault_schedule: Vec::new(),
    };
    let taskset = Arc::new(workload.taskset.clone());
    let result = Simulation::new(taskset, config, sim)
        .expect("valid simulation")
        .run()
        .expect("simulation runs");

    let frame_tasks = [
        workload.tasks.fetch,
        workload.tasks.extract,
        workload.tasks.augment,
        workload.tasks.store,
        workload.tasks.detect,
        workload.tasks.estimate,
        workload.tasks.highlight,
        workload.tasks.create,
        workload.tasks.encode,
        workload.tasks.send,
    ];
    let e2e = result.end_to_end(workload.tasks.send);
    let frame_misses: usize = frame_tasks
        .iter()
        .map(|&t| result.miss_count(t))
        .sum::<usize>()
        + result.unfinished_missed;
    let fc_misses = result.miss_count(workload.tasks.fc_handler);
    let total_jobs = result.records.len();
    let total_misses = result.total_misses();
    let label = format!(
        "{}-{}-{}",
        mapping.label(),
        priority.label(),
        restriction.label()
    );
    Fig4Row {
        label,
        frames: result.records_of(workload.tasks.send).count(),
        avg_frame_ms: e2e.mean().unwrap_or(0.0) / 1e6,
        max_frame_ms: e2e.max().unwrap_or(0) as f64 / 1e6,
        frame_misses,
        fc_misses,
        miss_ratio: if total_jobs == 0 {
            0.0
        } else {
            total_misses as f64 / total_jobs as f64
        },
    }
}

/// Runs the full 12-configuration exploration.
#[must_use]
pub fn run(p: &Fig4Params) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for (mapping, priority) in [
        (MappingScheme::Global, PriorityPolicy::EarliestDeadlineFirst),
        (MappingScheme::Global, PriorityPolicy::DeadlineMonotonic),
        (
            MappingScheme::Partitioned,
            PriorityPolicy::EarliestDeadlineFirst,
        ),
        (
            MappingScheme::Partitioned,
            PriorityPolicy::DeadlineMonotonic,
        ),
    ] {
        for restriction in VersionRestriction::ALL {
            rows.push(run_one(mapping, priority, restriction, p));
        }
    }
    rows
}

/// Renders rows as a markdown table.
#[must_use]
pub fn render(rows: &[Fig4Row]) -> String {
    let mut out = String::from(
        "| config | frames | avg frame (ms) | max frame (ms) | frame misses | FC misses | miss ratio |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.1} | {} | {} | {:.3} |\n",
            r.label,
            r.frames,
            r.avg_frame_ms,
            r.max_frame_ms,
            r.frame_misses,
            r.fc_misses,
            r.miss_ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_shape_matches_paper() {
        let p = Fig4Params::quick();
        let rows = run(&p);
        assert_eq!(rows.len(), 12);
        let find = |label: &str| rows.iter().find(|r| r.label == label).unwrap();

        let g_edf_cpu = find("G-EDF-cpu");
        let g_edf_gpu = find("G-EDF-gpu");
        let g_edf_both = find("G-EDF-both");

        // (1) GPU-including configurations process frames faster.
        assert!(
            g_edf_gpu.avg_frame_ms < g_edf_cpu.avg_frame_ms,
            "gpu {} vs cpu {}",
            g_edf_gpu.avg_frame_ms,
            g_edf_cpu.avg_frame_ms
        );
        assert!(g_edf_both.avg_frame_ms < g_edf_cpu.avg_frame_ms);

        // (2) CPU-only and GPU-only miss deadlines (on secure frames).
        assert!(g_edf_cpu.frame_misses > 0, "{g_edf_cpu:?}");
        assert!(g_edf_gpu.frame_misses > 0, "{g_edf_gpu:?}");

        // (3) Multi-version "both" eliminates the misses.
        assert_eq!(g_edf_both.frame_misses, 0, "{g_edf_both:?}");
        assert_eq!(g_edf_both.fc_misses, 0);
    }

    #[test]
    fn all_strategies_similar_for_both() {
        let p = Fig4Params::quick();
        let rows = run(&p);
        // "In the overall, all scheduling strategies display the same
        // overhead and deadline misses" — the 'both' variants stay within
        // a small band of each other.
        let both: Vec<_> = rows.iter().filter(|r| r.label.ends_with("both")).collect();
        assert_eq!(both.len(), 4);
        let avg_min = both.iter().map(|r| r.avg_frame_ms).fold(f64::MAX, f64::min);
        let avg_max = both.iter().map(|r| r.avg_frame_ms).fold(0.0, f64::max);
        assert!(
            avg_max - avg_min < 60.0,
            "both-configs spread too wide: {avg_min}..{avg_max}"
        );
    }
}
