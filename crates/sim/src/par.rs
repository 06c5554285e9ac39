//! The sharded driver: one [`Simulation`] per engine shard, stepped on
//! one thread in one global event order.
//!
//! [`run_partitioned_parallel`] builds the per-worker shards of
//! [`yasmin_sched::EngineShard`], wraps each in a full [`Simulation`]
//! (preemption, kernel models, mode schedules and fault handling are
//! the single-owner simulator's own code) and repeatedly steps the
//! shard holding the globally earliest event. What remains here is the
//! part of the sharded protocol a single engine does not have:
//!
//! * **token routing** — a completion whose DAG successor lives on a
//!   foreign worker leaves a `RemoteActivation` in its shard's outbox;
//!   after every step the outbox is drained into events of the owning
//!   shards, at the same simulated instant;
//! * **the steal pass** ([`ParSimOptions::steal`]) — at every event
//!   boundary an idle shard adopts the most urgent migratable jobs of
//!   the most loaded peer.
//!
//! ## Determinism
//!
//! There is one thread and one order: events of all shards are ordered
//! by (time, insertion number), the insertion counter being shared by
//! the shards of a run, so a run is a pure function of its inputs.
//! Randomised execution-time and kernel models sample in dispatch
//! order, which is a global order the shards do not share with the
//! single-owner engine, so each shard seeds its samplers from
//! `seed ^ worker`: such runs are reproducible, but equal to the
//! single-owner trace only under the deterministic models
//! ([`crate::ExecModel::Wcet`], no kernel model). Under those, the
//! result is **bit-identical to the single [`Simulation`]** over the
//! whole engine (modulo shard-stamped job ids), cross-shard edges
//! included; each shard replays the single-owner engine's own
//! insertion order for its events (ticks, completions, sporadic
//! arrivals, scheduled message and fault events).
//!
//! One tie class bounds that claim: when a **cross-shard successor's
//! release coincides exactly** with another event of the destination
//! shard (e.g. two workers' finishes land on the same instant), the
//! single-owner engine retires the whole same-timestamp batch before
//! one dispatch round, while the routed token queues behind the
//! destination's already-scheduled event. Both drivers remain
//! deterministic, but their traces may differ at the tied instant: keep
//! the WCETs of cross-shard sets off each other's grid (odd sub-tick
//! values do it) when cross-checking traces.

use crate::engine::{SimConfig, Simulation};
use crate::trace::SimResult;
use std::cmp::Reverse;
use std::sync::Arc;
use yasmin_core::config::Config;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::TaskId;
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::{
    Action, ActionSink, EngineShard, HomeNote, Input, JobBatch, RemoteActivation, MAX_STEAL_BATCH,
};

/// Options of the sharded driver.
#[derive(Debug, Clone, Copy)]
pub struct ParSimOptions {
    /// Read by nothing: the driver has no producer threads any more.
    /// Kept, with `lane_capacity`, until the benchmark harness — which
    /// spells this struct literal in full — can be re-baselined.
    #[doc(hidden)]
    pub producers: usize,
    /// Read by nothing; see `producers`.
    #[doc(hidden)]
    pub lane_capacity: usize,
    /// Enables work stealing between shards: at every event boundary an
    /// idle shard (no running slice, empty queue) adopts the most
    /// urgent accelerator-free ready jobs of the most loaded peer.
    /// Requires `Config::preemption(false)`, like cross-shard DAG edges
    /// — see [`run_partitioned_parallel`].
    pub steal: bool,
    /// Cap on the batch size of one steal exchange (clamped to
    /// `1..=`[`yasmin_sched::MAX_STEAL_BATCH`]). An idle thief takes up
    /// to half the victim's ready load, at least one job and at most
    /// this many, in one exchange sized deterministically from the
    /// victim's queue length at the event boundary. At the default `1`
    /// every exchange is a batch of one — the most urgent stealable job
    /// — booked like any other in `EngineStats::stolen_batch`.
    pub steal_batch: usize,
}

impl Default for ParSimOptions {
    fn default() -> Self {
        ParSimOptions {
            producers: 4,
            lane_capacity: 64,
            steal: false,
            steal_batch: 1,
        }
    }
}

/// Sums per-shard results into the whole-system result. Records are
/// ordered by (completion, task, seq) — a deterministic total order,
/// since each (task, seq) completes exactly once.
fn merge_results(results: impl Iterator<Item = SimResult>, workers: usize) -> SimResult {
    let mut merged = SimResult {
        records: Vec::new(),
        unfinished: 0,
        unfinished_missed: 0,
        engine_stats: yasmin_sched::EngineStats::default(),
        horizon: Instant::ZERO,
        sched_overhead_ns: yasmin_core::stats::Samples::new(),
        worker_busy: vec![Duration::ZERO; workers],
        energy: yasmin_core::energy::Energy::ZERO,
        replayed_cycles: 0,
        replayed_jobs: 0,
    };
    for r in results {
        merged.records.extend(r.records);
        merged.unfinished += r.unfinished;
        merged.unfinished_missed += r.unfinished_missed;
        merged.engine_stats.merge(&r.engine_stats);
        merged.horizon = r.horizon;
        merged.sched_overhead_ns.merge(&r.sched_overhead_ns);
        for (w, busy) in r.worker_busy.iter().enumerate() {
            merged.worker_busy[w] += *busy;
        }
        merged.energy += r.energy;
    }
    merged
        .records
        .sort_by_key(|r| (r.completion, r.task, r.seq));
    merged
}

/// `true` when some DAG edge's endpoints live on different workers.
fn has_cross_shard_edges(taskset: &TaskSet) -> bool {
    taskset.edges().iter().any(|e| {
        let w = |t: TaskId| taskset.tasks()[t.index()].spec().assigned_worker();
        w(e.src) != w(e.dst)
    })
}

/// The shards of one run and what they share.
struct Shards {
    /// One simulation per worker, indexed by worker.
    sims: Vec<Simulation>,
    /// The event insertion counter of the whole run
    /// ([`Simulation::with_seq`]).
    seq: u64,
    /// `Some(cap)` when stealing: the largest batch of one exchange.
    steal_cap: Option<usize>,
    outbox: Vec<RemoteActivation>,
    /// Ends of stolen jobs on their way home, reused.
    homeward: Vec<HomeNote>,
    /// Steal scratch, reused: what the victim lends, and the jobs of
    /// one exchange.
    lent: ActionSink,
    stolen: JobBatch,
}

impl Shards {
    /// Runs `f` on shard `s` at `at` under the shared insertion
    /// counter, then routes what the engine left behind: each
    /// cross-shard token becomes an event of the owning shard at `at`,
    /// and the ends of stolen jobs go home ([`Shards::route_home`]).
    ///
    /// # Errors
    ///
    /// A routing bug the home's engine reports.
    fn on<R>(&mut self, s: usize, at: Instant, f: impl FnOnce(&mut Simulation) -> R) -> Result<R> {
        let out = self.sims[s].with_seq(&mut self.seq, f);
        self.sims[s].engine.drain_outbox_into(&mut self.outbox);
        for ra in self.outbox.drain(..) {
            self.sims[ra.worker.index()].with_seq(&mut self.seq, |dst| {
                dst.push_cross(at, ra);
            });
        }
        self.sims[s].engine.drain_homeward_into(&mut self.homeward);
        if !self.homeward.is_empty() {
            self.route_home(at)?;
        }
        Ok(out)
    }

    /// The end of each stolen job in `homeward` is home at once
    /// ([`Simulation::instance_home`]), where its task's next instance
    /// may then run — a dispatch round, which leaves no token and no
    /// end behind. Out of line: most events leave none.
    #[cold]
    fn route_home(&mut self, at: Instant) -> Result<()> {
        for note in self.homeward.drain(..) {
            let home = &mut self.sims[note.worker.index()];
            home.with_seq(&mut self.seq, |h| h.instance_home(note, at))?;
        }
        Ok(())
    }

    /// At an event boundary, every fully idle shard (no slice, empty
    /// queue) adopts work from the most loaded *stealable* peer (one
    /// whose probe yields a hint; ties towards the lowest worker
    /// index); rounds repeat until no steal succeeds. Each exchange
    /// moves up to half the victim's ready load, at least one job and
    /// at most `cap`: the size depends only on the victim's queue
    /// length, so reruns stay bit-identical.
    fn steal_pass(&mut self, at: Instant, cap: usize) -> Result<()> {
        let n = self.sims.len();
        loop {
            let mut stole = false;
            for thief in 0..n {
                if !self.sims[thief].engine.is_idle() {
                    continue;
                }
                let victim = (0..n)
                    .filter(|&v| v != thief)
                    .filter(|&v| self.sims[v].engine.steal_hint().is_some())
                    .map(|v| (self.sims[v].engine.ready_len(), v))
                    .max_by_key(|&(load, v)| (load, Reverse(v)));
                let Some((load, v)) = victim else { continue };
                // Half the load gap (the thief is empty, so the gap is
                // the victim's whole ready load) — the same sizing rule
                // the thread runtime derives from its load board.
                let k = (load / 2).clamp(1, cap);
                self.lent.clear();
                self.sims[v]
                    .engine
                    .apply(at, &Input::Lend { k }, &mut self.lent)?;
                self.stolen.clear();
                for a in &self.lent {
                    if let Action::Lend { job } = *a {
                        self.stolen.push(job);
                    }
                }
                if self.stolen.is_empty() {
                    continue;
                }
                let jobs = std::mem::take(&mut self.stolen);
                let adopted = self.on(thief, at, |sim| sim.adopt_stolen(&jobs, at));
                self.stolen = jobs;
                adopted??;
                stole = true;
            }
            if !stole {
                return Ok(());
            }
        }
    }

    /// Arms every shard, then steps the shard holding the globally
    /// earliest event until none is left before the horizon.
    fn run(&mut self) -> Result<()> {
        for s in 0..self.sims.len() {
            self.on(s, Instant::ZERO, |sim| sim.arm(false))??;
        }
        let mut now = Instant::ZERO;
        loop {
            if let Some(cap) = self.steal_cap {
                self.steal_pass(now, cap)?;
            }
            let next = self
                .sims
                .iter()
                .enumerate()
                .filter_map(|(s, sim)| sim.next_key().map(|key| (key, s)))
                .min();
            let Some(((time, _), s)) = next else {
                return Ok(());
            };
            now = Instant::from_nanos(time);
            self.on(s, now, Simulation::step)?;
        }
    }
}

/// Runs a partitioned task set as **one [`Simulation`] per worker
/// shard**, stepped on the calling thread in one global event order
/// (the name keeps "parallel" only until the benchmark harness, which
/// calls it, can be re-baselined and the function renamed).
///
/// `config` must opt in via `Config::sharded_dispatch(true)`; the task
/// set must satisfy the sharding contract (accelerators within one
/// worker — see [`yasmin_sched::validate_sharding`]). Each shard arms
/// the sporadic roots, message events and faults of the tasks it owns
/// and seeds its samplers from `sim.seed ^ worker`; every shard follows
/// the whole mode schedule.
///
/// DAG edges may **cross shards** and [`ParSimOptions::steal`] may move
/// ready jobs between them (module docs). Both need a non-preemptive
/// configuration: a preempted job's progress lives in the simulation of
/// the shard that started it, so it cannot resume elsewhere, and the
/// single-owner engine a cross-shard run is compared with orders
/// preemptions by a global dispatch round the shards do not have.
///
/// # Errors
///
/// Sharding-contract violations, engine construction errors, a driver
/// protocol violation, or a preemptive configuration for a
/// cross-shard/stealing run.
pub fn run_partitioned_parallel(
    taskset: Arc<TaskSet>,
    config: Config,
    sim: SimConfig,
    opts: ParSimOptions,
) -> Result<SimResult> {
    let workers = config.workers();
    let shards = EngineShard::build_all(&taskset, &config)?;
    if config.preemption() && (opts.steal || has_cross_shard_edges(&taskset)) {
        return Err(Error::InvalidConfig(
            "cross-shard/stealing simulation is non-preemptive: build the Config \
             with .preemption(false)"
                .into(),
        ));
    }
    let sims = shards.into_iter().map(|shard| {
        let mut cfg = sim.clone();
        // Per-shard sampler streams: deterministic given (seed,
        // worker), independent across shards.
        cfg.seed ^= u64::from(shard.worker().raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Simulation::from_engine(shard.into_inner(), cfg)
    });
    let mut run = Shards {
        sims: sims.collect::<Result<_>>()?,
        seq: 0,
        steal_cap: opts
            .steal
            .then(|| opts.steal_batch.clamp(1, MAX_STEAL_BATCH)),
        outbox: Vec::new(),
        homeward: Vec::new(),
        lent: ActionSink::with_capacity(MAX_STEAL_BATCH),
        stolen: JobBatch::with_capacity(MAX_STEAL_BATCH),
    };
    run.run()?;
    Ok(merge_results(
        run.sims.into_iter().map(Simulation::finish),
        workers,
    ))
}
