//! The metric and workload registry (the single source `BENCHMARK.json`
//! is generated from) and the result one workload run produces.

use crate::json::Json;
use crate::stats::Windows;
use crate::trace::Trace;
use std::collections::BTreeMap;
use yasmin::sched::EngineStats;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cyclic",
        why: "6 periodic tasks at 10 ms on the single-owner Runtime: the tick, channel hand-off and wake-up path does all the work, engine and shards none",
    },
    Workload {
        name: "pipeline",
        why: "4 DAG chains of 8 nodes over 2 shards with typed channels and stealing: mailbox lanes, SPSC rings and the message plane do the work, the crossbeam channel none",
    },
    Workload {
        name: "churn",
        why: "a tenant admitted and one retired every 50 ms beside a running base set: analysis and splice/commit share the engine with the hot path, so a gain that taxes admission shows",
    },
    Workload {
        name: "explore",
        why: "closed-loop design-space sweep in the simulator (Fig. 2 grid, Fig. 4 drone, partitioned DAGs): engine CPU cost alone, no threads or wake-ups",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is reported on every workload; what
/// `latency_us` and a "job" mean per workload is in the README. One
/// bound covers a metric on all four workloads, so its noisiest row
/// sets it, at three times that row's run-to-run spread: the two timing
/// metrics follow the host's minutes-long drift by 4–12 % whatever the
/// estimator, so they sit at the contract's maximum; memory repeats to
/// 1–3 % (`pipeline` 3–9 %). `setup_s` gets the largest bound, as the
/// contract asks. The README's "Bounds" section has the measurements
/// and says which of the issue's criteria this does not meet.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_job",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics of the traced run. Every traced run's result
/// object carries all of them; one that does not apply to the workload
/// reads 0 there and is left out of the printed lines.
pub const PER_LAYER: &[Layer] = &[
    // The headline latency's tails and sample counts: diagnostics, never gated.
    l("e2e.latency_wmed_us", "us", "lower"),
    l("e2e.cpu_wmed_us_per_job", "us", "lower"),
    l("e2e.latency_p90w_us", "us", "lower"),
    l("e2e.latency_p99w_us", "us", "lower"),
    l("e2e.latency_p99_us", "us", "lower"),
    l("e2e.latency_samples", "count", "higher"),
    l("e2e.latency_windows", "count", "higher"),
    // rt: read off the RtJobRecords the runtime returns.
    l("rt.wait_p50_us", "us", "lower"),
    l("rt.wait_p90w_us", "us", "lower"),
    l("rt.wait_p99w_us", "us", "lower"),
    l("rt.tick_late_p50_us", "us", "lower"),
    l("rt.handoff_p50_us", "us", "lower"),
    l("rt.body_p50_us", "us", "lower"),
    l("rt.hop_cross_p50_us", "us", "lower"),
    l("rt.hop_local_p50_us", "us", "lower"),
    l("rt.chain_model_ratio", "ratio", "lower"),
    l("rt.sched_cpu_us_per_job", "us", "lower"),
    l("rt.worker_cpu_us_per_job", "us", "lower"),
    l("rt.build_ms", "ms", "lower"),
    l("rt.drain_ms", "ms", "lower"),
    l("rt.records_mb", "MB", "lower"),
    l("rt.admit_rtt_p50_us", "us", "lower"),
    l("rt.retire_rtt_p50_us", "us", "lower"),
    l("rt.base_wait_p50_us", "us", "lower"),
    l("rt.miss_ratio", "ratio", "lower"),
    l("rt.lost_jobs", "count", "lower"),
    l("rt.jobs", "count", "higher"),
    // vendor / sync: loops over the public types.
    l("vendor.chan_rtt_p50_us", "us", "lower"),
    l("sync.spsc_push_pop_p50_ns", "ns", "lower"),
    l("sync.mailbox_send_recv_p50_ns", "ns", "lower"),
    l("sync.loadboard_pick_p50_ns", "ns", "lower"),
    l("sync.wait_sleep_late_p50_us", "us", "lower"),
    l("sync.wait_hybrid_late_p50_us", "us", "lower"),
    // sched: the workload's own task set replayed in virtual time.
    l("sched.on_tick_p50_ns", "ns", "lower"),
    l("sched.on_completed_p50_ns", "ns", "lower"),
    l("sched.shard_advance_p50_ns", "ns", "lower"),
    l("sched.remote_token_p50_ns", "ns", "lower"),
    l("sched.steal_batch_p50_ns", "ns", "lower"),
    l("sched.dispatch_per_round", "ratio", "higher"),
    l("sched.admission_eval_p50_us", "us", "lower"),
    l("sched.splice_commit_p50_us", "us", "lower"),
    l("sched.msg_send_recv_p50_ns", "ns", "lower"),
    l("sched.msg_high_cycle_p50_ns", "ns", "lower"),
    l("msg.normal_lane_p50_us", "us", "lower"),
    l("msg.high_lane_p50_us", "us", "lower"),
    l("msg.payloads_displaced", "count", "lower"),
    // EngineStats of the live run (or summed over the sweep).
    l("sched.released", "count", "higher"),
    l("sched.dispatched", "count", "higher"),
    l("sched.completed", "count", "higher"),
    l("sched.stolen", "count", "higher"),
    l("sched.stolen_batch", "count", "higher"),
    l("sched.cross_activations", "count", "higher"),
    l("sched.msg_boosts", "count", "higher"),
    l("sched.budget_deferrals", "count", "lower"),
    l("sched.max_ready", "count", "lower"),
    l("sched.culled", "count", "lower"),
    // analysis / core / taskgen on the run's own sets.
    l("analysis.rta_p50_us", "us", "lower"),
    l("analysis.rta_tasks_p50", "count", "lower"),
    l("analysis.edf_dbf_p50_us", "us", "lower"),
    l("analysis.verdict_mismatch", "count", "lower"),
    l("core.taskset_build_p50_us", "us", "lower"),
    l("core.extend_p50_us", "us", "lower"),
    l("taskgen.set_p50_us", "us", "lower"),
    l("taskgen.sets", "count", "higher"),
    // sim: per sub-sweep timers and exact counts.
    l("sim.mjobs_per_s", "Mjobs/s", "higher"),
    l("sim.single_ns_per_job", "ns", "lower"),
    l("sim.drone_ns_per_job", "ns", "lower"),
    l("sim.protocol_ns_per_job", "ns", "lower"),
    l("sim.engine_call_p50_ns", "ns", "lower"),
    l("sim.jobs", "count", "higher"),
    l("sim.misses", "count", "lower"),
    l("sim.records_mb_per_rep", "MB", "lower"),
    // harness / host: tells a noisy host from a regression.
    l("harness.gen_late_p50_us", "us", "lower"),
    l("harness.trace_overhead_pct", "%", "lower"),
    l("harness.spans", "count", "higher"),
    l("host.wake_p50_us", "us", "lower"),
    l("host.spin_mops", "Mops/s", "higher"),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 20;

/// The root `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut o = named(m.name, m.unit, m.better);
                        o.push(("bound", Json::Num(m.bound)));
                        Json::obj(o)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations the workload owed (jobs due, admits + retires, sim
    /// configs) and how many of them came out wrong.
    pub attempted: u64,
    pub failed: u64,
    /// One line per kind of failure, printed by name.
    pub failures: Vec<String>,
    /// End-to-end values of an untraced run.
    pub e2e: Vec<(&'static str, f64)>,
    /// Layer values of a traced run. A name that is missing does not
    /// apply to the workload: it is left out of the printed lines and
    /// reads 0 in the contract's result object, which must carry every
    /// name as a number.
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts and other context printed beside the metrics.
    pub notes: Vec<(&'static str, f64)>,
    /// Layers a probe could not measure on this workload, with the
    /// reason (a layer that simply belongs to another workload is not
    /// listed: see the README's table).
    pub skipped: Vec<&'static str>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn fail(&mut self, count: u64, what: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.failures.push(format!("{} x{count}", what.into()));
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer registry"
        );
        self.layers.insert(name, value);
    }

    /// The headline latency's tails and counts from its windows.
    pub fn latency_layers(&mut self, w: &mut Windows) {
        self.layer("e2e.latency_wmed_us", w.median_of(0.5, 10).unwrap_or(0.0));
        self.layer("e2e.latency_p90w_us", w.level_of(0.9, 10).unwrap_or(0.0));
        self.layer("e2e.latency_p99w_us", w.level_of(0.99, 10).unwrap_or(0.0));
        self.layer("e2e.latency_p99_us", w.raw(0.99).unwrap_or(0.0));
        self.layer("e2e.latency_samples", w.samples() as f64);
        self.layer("e2e.latency_windows", w.full_windows(10) as f64);
    }

    /// `rt.wait_*` from the windows of per-job `started − release`.
    pub fn wait_layers(&mut self, w: &mut Windows) {
        self.layer("rt.wait_p50_us", w.level_of(0.5, 10).unwrap_or(0.0));
        self.layer("rt.wait_p90w_us", w.level_of(0.9, 10).unwrap_or(0.0));
        self.layer("rt.wait_p99w_us", w.level_of(0.99, 10).unwrap_or(0.0));
    }

    /// The engine's counters (`max_ready` apart: merging sums it).
    pub fn engine_layers(&mut self, s: &EngineStats, max_ready: usize) {
        self.layer("sched.released", s.released as f64);
        self.layer("sched.dispatched", s.dispatched as f64);
        self.layer("sched.completed", s.completed as f64);
        self.layer("sched.stolen", s.stolen as f64);
        self.layer("sched.stolen_batch", s.stolen_batch as f64);
        self.layer("sched.cross_activations", s.cross_activations as f64);
        self.layer("sched.msg_boosts", s.msg_boosts as f64);
        self.layer("sched.budget_deferrals", s.budget_deferrals as f64);
        self.layer("sched.max_ready", max_ready as f64);
        self.layer("sched.culled", s.culled as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest().to_pretty(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().to_pretty().len() < 64 * 1024);
    }
}
