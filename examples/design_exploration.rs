//! Design-space exploration (the middleware's raison d'être): the same
//! application swept across scheduling policies, mappings and version-
//! selection strategies, entirely in the simulator — "RT-experts and
//! non-experts alike can explore the scheduling design space to select
//! the best performing technique" (§1).
//!
//! Run: `cargo run --release --example design_exploration`

use std::sync::Arc;
use yasmin::prelude::*;
use yasmin::sim::ExecModel;
use yasmin::taskgen::taskset::{build_independent, build_partitioned, IndependentSetParams};
use yasmin::Error;

/// One sweep over mapping × priority × preemption. Every row also says
/// how much of its horizon the simulator simulated: a worst-case run of
/// a synchronous periodic set recurs after one hyperperiod, and
/// `Simulation::run` replays the rest (`SimResult::replayed_cycles`).
fn sweep(params: &IndependentSetParams, exec: ExecModel, horizon: Duration) -> Result<(), Error> {
    println!(
        "| mapping | priority | preemption | misses | max response (ms) | preemptions \
         | jobs | cycles replayed | host ms |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for mapping in [MappingScheme::Global, MappingScheme::Partitioned] {
        for priority in [
            PriorityPolicy::EarliestDeadlineFirst,
            PriorityPolicy::DeadlineMonotonic,
            PriorityPolicy::RateMonotonic,
        ] {
            for preemption in [true, false] {
                let ts = match mapping {
                    MappingScheme::Global => build_independent(params)?,
                    MappingScheme::Partitioned => build_partitioned(params, 2)?,
                };
                let config = Config::builder()
                    .workers(2)
                    .mapping(mapping)
                    .priority(priority)
                    .preemption(preemption)
                    .max_pending_jobs(8192)
                    .build()?;
                let mut sim = SimConfig::uniform(2, horizon);
                sim.exec = exec;
                sim.seed = 99;
                let t0 = std::time::Instant::now();
                let result = Simulation::new(Arc::new(ts), config, sim)?.run()?;
                let host_ms = t0.elapsed().as_secs_f64() * 1e3;
                let max_resp = result
                    .records
                    .iter()
                    .map(|r| r.response_time().as_nanos())
                    .max()
                    .unwrap_or(0) as f64
                    / 1e6;
                println!(
                    "| {} | {} | {} | {} | {:.2} | {} | {} | {} | {:.1} |",
                    mapping.label(),
                    priority.label(),
                    if preemption { "on" } else { "off" },
                    result.total_misses(),
                    max_resp,
                    result.engine_stats.preempted,
                    result.records.len(),
                    result.replayed_cycles,
                    host_ms,
                );
            }
        }
    }
    Ok(())
}

fn main() -> Result<(), Error> {
    let params = IndependentSetParams {
        n: 24,
        total_utilisation: 1.6,
        seed: 11,
        ..IndependentSetParams::default()
    };
    println!("Execution times drawn from 80-100 % of the WCET, 2 s:\n");
    let spread = ExecModel::UniformPct {
        min_pct: 80,
        max_pct: 100,
    };
    sweep(&params, spread, Duration::from_secs(2))?;
    println!("\nEvery job at its WCET, 60 s (one hyperperiod simulated, the rest replayed):\n");
    sweep(&params, ExecModel::Wcet, Duration::from_secs(60))?;
    println!(
        "\nSwitching any of these knobs is one builder call — the paper's\n\
         'recompile with a different config.h', without the recompile."
    );
    Ok(())
}
