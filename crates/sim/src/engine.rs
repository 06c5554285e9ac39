//! The discrete-event simulation driver.
//!
//! [`Simulation`] executes a task set on a modelled platform by driving
//! the *real* scheduling engine (`yasmin_sched::OnlineEngine`) with
//! simulated time: scheduler ticks, job completions, sporadic arrivals
//! and scheduled events are consumed in time order from their sources;
//! the engine's actions (dispatch, preempt, boost) are applied to
//! modelled workers whose speed comes from the platform description.
//!
//! Overheads are handled two ways at once:
//!
//! * *modelled* overheads ([`OverheadModel`]) delay dispatches and charge
//!   context switches, so schedules shift the way they would on hardware;
//! * *measured* overhead: every engine call is wall-clock timed and the
//!   samples land in [`SimResult::sched_overhead_ns`] — this is the
//!   quantity the Figure 2 experiment reports for YASMIN, so the
//!   middleware's own cost is measured from the implementation rather
//!   than assumed.

use crate::exec::{ExecModel, ExecSampler};
use crate::kernel::{KernelKind, KernelModel};
use crate::stress::StressProfile;
use crate::trace::{JobRecord, SimResult};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use yasmin_core::config::Config;
use yasmin_core::energy::Energy;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::{Slot, TaskSet};
use yasmin_core::ids::{CoreId, JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::platform::PlatformSpec;
use yasmin_core::stats::Samples;
use yasmin_core::task::ActivationKind;
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::admission::{AdmissionControl, AdmissionError, TenantLedger};
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{
    Action, ActionSink, CycleMark, HomeNote, Input, Job, MsgEvent, OnlineEngine, RemoteActivation,
};

/// Modelled fixed costs of scheduler interactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverheadModel {
    /// Cost added to a job's start on every dispatch.
    pub dispatch: Duration,
    /// Cost of a preemption context switch (charged to the worker).
    pub context_switch: Duration,
}

/// A deterministically scheduled fault ([`SimConfig::fault_schedule`]).
///
/// Faults are events like any other: delivered at exact instants, so a
/// fault schedule replays bit-identically across runs — and across
/// both drivers (one [`Simulation`] over the whole engine, or one per
/// shard under [`crate::par`]), which is what the failure-injection
/// parity tests lock in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// Force a WCET overrun on the running job of `task`: the engine
    /// applies the task's [`yasmin_core::task::OverrunPolicy`] exactly
    /// as the enforcement tick would (no-op if the task is not running).
    Overrun {
        /// The task whose running job overruns.
        task: TaskId,
    },
    /// Crash the running job of `task` — the simulated analogue of a
    /// body panic: the job retires through the failure path (counted in
    /// `EngineStats::failed`, successors policy-gated), the worker is
    /// freed (no-op if the task is not running).
    Crash {
        /// The task whose running job panics.
        task: TaskId,
    },
    /// A burst of `count` back-to-back activations of `task` at one
    /// instant — the overload source for shedding scenarios.
    Burst {
        /// The (sporadic/aperiodic) task to activate.
        task: TaskId,
        /// Number of activations delivered at the instant.
        count: u32,
    },
}

impl FaultEvent {
    /// The task the fault targets.
    #[must_use]
    pub const fn task(&self) -> TaskId {
        match *self {
            FaultEvent::Overrun { task }
            | FaultEvent::Crash { task }
            | FaultEvent::Burst { task, .. } => task,
        }
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            // A few microseconds each — representative of the paper's
            // Cortex-A15 measurements.
            dispatch: Duration::from_micros(3),
            context_switch: Duration::from_micros(8),
        }
    }
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The modelled platform; worker *w* runs on core *w*.
    pub platform: PlatformSpec,
    /// How long to simulate.
    pub horizon: Duration,
    /// Execution-time model.
    pub exec: ExecModel,
    /// Optional kernel latency model applied to job wake-ups.
    pub kernel: Option<KernelKind>,
    /// Interference profile feeding the kernel model.
    pub stress: StressProfile,
    /// Modelled overheads.
    pub overheads: OverheadModel,
    /// Master seed.
    pub seed: u64,
    /// Wall-clock-time every engine call (measured overhead samples).
    pub measure_engine_time: bool,
    /// Timed execution-mode switches (offset from start, new mode) — e.g.
    /// the drone's secure mode "activated when boats are detected" (§5).
    pub mode_schedule: Vec<(Duration, yasmin_core::version::ExecMode)>,
    /// Timed message-plane events (offset from start, event): high-lane
    /// posts/drains delivered deterministically at event boundaries, so
    /// a simulated run reproduces the priority boosts a real channel's
    /// notify hook would raise (see `yasmin_sched::msg`).
    pub msg_schedule: Vec<(Duration, MsgEvent)>,
    /// Timed fault injections (offset from start, fault): overruns,
    /// crashes and activation bursts delivered deterministically, so
    /// fault handling is parity-testable bit-for-bit across drivers.
    pub fault_schedule: Vec<(Duration, FaultEvent)>,
}

impl SimConfig {
    /// A convenient uniform-platform configuration.
    #[must_use]
    pub fn uniform(workers: usize, horizon: Duration) -> Self {
        SimConfig {
            platform: PlatformSpec::uniform(workers),
            horizon,
            exec: ExecModel::Wcet,
            kernel: None,
            stress: StressProfile::IDLE,
            overheads: OverheadModel {
                dispatch: Duration::ZERO,
                context_switch: Duration::ZERO,
            },
            seed: 0,
            measure_engine_time: false,
            mode_schedule: Vec::new(),
            msg_schedule: Vec::new(),
            fault_schedule: Vec::new(),
        }
    }
}

/// What orders events: (time in ns, insertion number). Every event
/// gets the next insertion number when it is scheduled, so no two keys
/// are equal and same-instant events run in the order they were
/// scheduled in.
type Key = (u64, u64);

/// An event fixed before the run: [`Simulation::arm`] sorts them once.
#[derive(Debug, Clone, Copy)]
enum Planned {
    /// An execution-mode switch ([`SimConfig::mode_schedule`]).
    Mode(yasmin_core::version::ExecMode),
    /// A message-plane event ([`SimConfig::msg_schedule`]): a high-lane
    /// post or drain delivered to the engine at this exact instant.
    Msg(MsgEvent),
    /// A fault injection ([`SimConfig::fault_schedule`]).
    Fault(FaultEvent),
    /// Splice + commit a pre-validated tenant admission: an index into
    /// [`Simulation`]'s admit payload table (the merged set travels by
    /// `Arc` there).
    Admit(usize),
    /// Quiesce an admitted tenant.
    Retire(TenantId),
}

/// An arrival created during the run. (Ordered only so that a
/// `(Key, Arrival)` is: keys are unique, so it never decides.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Arrival {
    /// The next job of a sporadic train of the tenant that armed it.
    Sporadic(TaskId, TenantId),
    /// A DAG activation token a peer shard's completion routed to this
    /// one, which owns the edge's destination ([`crate::par`]).
    Cross(RemoteActivation),
}

/// The event source holding the next event ([`Simulation::head`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Tick,
    /// The running slice of this worker finishes.
    Finish(usize),
    Planned,
    Arrival,
}

/// A job in flight, from its first dispatch to its finish, crash or
/// cull: the simulator's one record of it. While the job runs, its
/// slice is its worker's entry of [`Simulation::slices`]; while it is
/// preempted, the same slice waits in [`Simulation::suspended`] with
/// the work it has left.
#[derive(Debug, Clone, Copy)]
struct Slice {
    /// The job as it was first dispatched.
    job: Job,
    /// The version this slice runs.
    version: VersionId,
    /// When the job first started.
    first_start: Instant,
    /// How often the job has been preempted.
    preemptions: u32,
    /// When this slice starts: its dispatch plus the dispatch delay.
    start: Instant,
    /// Reference-time work left at `start`.
    remaining_ref: Duration,
    /// When the slice finishes, unless it is preempted or crashed first.
    finish: Key,
}

/// What the simulator has accumulated at a recurrence boundary
/// ([`Simulation::run`]): with the next boundary's counts, one cycle.
#[derive(Debug)]
struct Boundary {
    engine: CycleMark,
    /// `records.len()` at the boundary.
    records: usize,
    worker_busy: Vec<Duration>,
    accel_busy: Vec<Duration>,
}

/// The discrete-event simulator.
#[derive(Debug)]
pub struct Simulation {
    /// [`crate::par`] reaches in for what only a sharded run needs: the
    /// steal probes and the cross-shard outbox.
    pub(crate) engine: OnlineEngine,
    cfg: SimConfig,
    // The event sources, merged by key in `head`: the armed tick, each
    // worker's running slice, the planned schedule and the run-time
    // arrivals.
    next_tick: Option<Key>,
    /// The running slice of each worker; its `finish` is the worker's
    /// one pending completion.
    slices: Vec<Option<Slice>>,
    /// Every event fixed before the run, latest first once
    /// [`Simulation::arm`] has sorted it: the next is the last.
    planned: Vec<(Key, Planned)>,
    /// Sporadic trains and cross-shard tokens.
    arrivals: BinaryHeap<Reverse<(Key, Arrival)>>,
    /// The last insertion number handed out.
    seq: u64,
    exec: ExecSampler,
    kernel: Option<KernelModel>,
    stress_intensity: f64,
    /// The slices of preempted jobs, each waiting for the engine to
    /// dispatch its job again (or to cull it) with the work it has left.
    suspended: Vec<Slice>,
    /// Reusable action buffer passed to every engine interaction.
    sink: ActionSink,
    /// Same-timestamp completions gathered for one batched engine call.
    finish_batch: Vec<(WorkerId, JobId)>,
    /// Sporadic root tasks and their release offsets, precomputed.
    sporadic_roots: Vec<(TaskId, Duration)>,
    /// Minimum inter-arrival per task index (ZERO for non-sporadic).
    sporadic_period: Vec<Duration>,
    records: Vec<JobRecord>,
    overhead_ns: Samples,
    worker_busy: Vec<Duration>,
    accel_busy: Vec<Duration>,
    tick: Duration,
    /// The end of the run: `cfg.horizon` as an instant.
    horizon: Instant,
    /// `Some(w)`: this simulation drives the engine *shard* of worker
    /// `w` ([`crate::par`] steps one per worker). It then arms only the
    /// sporadic roots, message events and faults of tasks `w` owns, and
    /// energy/idle accounting covers only worker `w`, so per-shard
    /// results sum to the whole-system result.
    shard: Option<WorkerId>,
    /// Payload of each [`Planned::Admit`]: the merged set to splice, the
    /// budget, the tenant and its slot, pre-validated by
    /// [`Simulation::admit_at`].
    admit_events: Vec<(Arc<TaskSet>, Option<TenantBudget>, TenantId, Slot)>,
    /// Tenant state as it will stand at `last_admit_offset`: every
    /// scheduled admission, minus the retirements scheduled up to then.
    ledger: TenantLedger,
    /// Retirements scheduled past `last_admit_offset`: they leave the
    /// ledger's view once an admission is scheduled at or after them.
    planned_retirements: Vec<(Duration, TenantId)>,
    /// Admissions must be scheduled in non-decreasing time order (their
    /// splice order defines tenant ids).
    last_admit_offset: Duration,
    /// The last recurrence boundary, while nothing but ticks and
    /// finishes has been consumed since.
    boundary: Option<Boundary>,
    /// Whether this run replays recurring cycles ([`Simulation::run`]
    /// decides; set by [`Simulation::arm`]).
    folding: bool,
    replayed_cycles: u64,
    replayed_jobs: u64,
}

impl Simulation {
    /// Builds a simulation of `taskset` under middleware `config` and
    /// simulator `sim` settings.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the platform has fewer cores than
    /// workers, plus any engine construction error.
    pub fn new(taskset: Arc<TaskSet>, config: Config, sim: SimConfig) -> Result<Self> {
        let engine = OnlineEngine::new(taskset, config)?;
        Self::from_engine(engine, sim)
    }

    /// Builds a simulation around an already-constructed engine — the
    /// whole-system engine, or one shard of it ([`crate::par`] builds
    /// one per worker and steps them in one global order).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the platform has fewer cores than
    /// workers.
    pub(crate) fn from_engine(engine: OnlineEngine, mut sim: SimConfig) -> Result<Self> {
        let workers = engine.config().workers();
        if workers > sim.platform.core_count() {
            return Err(Error::InvalidConfig(format!(
                "{workers} workers need {workers} cores but platform {} has {}",
                sim.platform.name(),
                sim.platform.core_count()
            )));
        }
        let shard = engine.shard_worker();
        let accels = engine.taskset().accels().len();
        let tick = engine.tick_period();
        let stress_intensity = sim.stress.intensity(sim.platform.core_count());
        // Sporadic bookkeeping is fixed by the task set: build it once
        // here instead of on every `run()` (released at the minimum
        // inter-arrival — the worst-case law the Fig. 2 harness wants).
        let ts = engine.taskset();
        // A shard is the event source of the tasks it owns, no others.
        let owns =
            |t: TaskId| shard.is_none() || ts.tasks()[t.index()].spec().assigned_worker() == shard;
        let mut sporadic_roots = Vec::new();
        let mut sporadic_period = vec![Duration::ZERO; ts.len()];
        for t in ts.tasks() {
            if t.spec().kind() == ActivationKind::Sporadic {
                sporadic_period[t.id().index()] = t.spec().period();
                if ts.in_degree(t.id()) == 0 && owns(t.id()) {
                    sporadic_roots.push((t.id(), t.spec().release_offset()));
                }
            }
        }
        sim.msg_schedule.retain(|(_, ev)| owns(ev.dst()));
        sim.fault_schedule.retain(|(_, ev)| owns(ev.task()));
        Ok(Simulation {
            exec: ExecSampler::new(sim.exec, sim.seed ^ 0xE5E5),
            kernel: sim.kernel.map(|k| KernelModel::new(k, sim.seed ^ 0x5EED)),
            stress_intensity,
            next_tick: None,
            slices: vec![None; workers],
            planned: Vec::new(),
            arrivals: BinaryHeap::new(),
            suspended: Vec::new(),
            sink: ActionSink::with_capacity(workers * 2),
            finish_batch: Vec::with_capacity(workers),
            sporadic_roots,
            sporadic_period,
            records: Vec::new(),
            overhead_ns: Samples::new(),
            worker_busy: vec![Duration::ZERO; workers],
            accel_busy: vec![Duration::ZERO; accels],
            seq: 0,
            tick,
            horizon: Instant::ZERO + sim.horizon,
            shard,
            admit_events: Vec::new(),
            ledger: TenantLedger::new(AdmissionControl::for_engine(&engine), engine.taskset_arc()),
            planned_retirements: Vec::new(),
            last_admit_offset: Duration::ZERO,
            boundary: None,
            folding: false,
            replayed_cycles: 0,
            replayed_jobs: 0,
            engine,
            cfg: sim,
        })
    }

    /// Schedules a tenant admission at `offset` from the start:
    /// `tenant` (declared in its own id space) is schedulability-checked
    /// **now** against the tenants planned to be live at `offset` — the
    /// base set, plus every previously scheduled admission, minus every
    /// [`Simulation::retire_at`] already scheduled at or before `offset`
    /// — exactly as the runtime's admission thread would, and on
    /// acceptance an internal admit event splices and commits it at the
    /// simulated instant. Returns the [`TenantId`] the splice will
    /// assign.
    ///
    /// Deterministic by construction: the admission instant, the merged
    /// set and the tenant id are all fixed before the run starts, so two
    /// runs with the same schedule produce identical traces.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Rejected`] with the violated bound;
    /// [`AdmissionError::Invalid`] for malformed requests, including
    /// admissions scheduled out of time order.
    pub fn admit_at(
        &mut self,
        offset: Duration,
        tenant: &TaskSet,
        budget: Option<TenantBudget>,
    ) -> std::result::Result<TenantId, AdmissionError> {
        if offset < self.last_admit_offset {
            return Err(AdmissionError::Invalid(Error::InvalidConfig(
                "admissions must be scheduled in non-decreasing time order".into(),
            )));
        }
        // Retirements that will have happened by `offset` (their events
        // were pushed first, so they also run first at an equal
        // instant); `retire_at` refused any the ledger would.
        let ledger = &mut self.ledger;
        self.planned_retirements.retain(|&(at, retired)| {
            if at <= offset {
                ledger
                    .retire(retired)
                    .expect("retire_at validated the retirement");
            }
            at > offset
        });
        let idx = self.admit_events.len();
        let events = &mut self.admit_events;
        let id = self.ledger.admit(tenant, budget.as_ref(), |a| {
            events.push((Arc::clone(a.merged), budget, a.tenant, a.slot));
            Ok(())
        })?;
        self.last_admit_offset = offset;
        self.plan(offset, Planned::Admit(idx));
        Ok(id)
    }

    /// The merged id of `tenant`'s first task, as its admission places
    /// it: its candidate-local `T<k>` runs as `T<first + k>` — in the
    /// slot of a tenant retired before it, or past every earlier one.
    /// `None` for an id no admission was scheduled under.
    #[must_use]
    pub fn first_task(&self, tenant: TenantId) -> Option<TaskId> {
        if tenant.raw() == 0 {
            return Some(TaskId::new(0));
        }
        let mut events = self.admit_events.iter();
        let (.., slot) = events.find(|e| e.2 == tenant)?;
        Some(TaskId::new(slot.first_task))
    }

    /// Schedules the retirement of an admitted tenant at `offset` from
    /// the start. An admission scheduled **after** this call at an equal
    /// or later offset is analysed without the tenant.
    ///
    /// # Errors
    ///
    /// [`TenantLedger::retire`]'s, at call time: [`Error::InvalidConfig`]
    /// for tenant 0, [`Error::UnknownTenant`] for an id no
    /// [`Simulation::admit_at`] at or before `offset` returned, and
    /// [`Error::TenantRetired`] for a second retirement of the tenant.
    pub fn retire_at(&mut self, offset: Duration, tenant: TenantId) -> Result<()> {
        if tenant.index() == 0 {
            // The ledger refuses tenant 0 before it changes anything.
            return self.ledger.retire(tenant);
        }
        let at = (Instant::ZERO + offset).as_nanos();
        let admitted = |&((t, _), ev): &(Key, Planned)| match ev {
            Planned::Admit(i) => t <= at && self.admit_events[i].2 == tenant,
            _ => false,
        };
        let retired = |&(_, ev): &(Key, Planned)| matches!(ev, Planned::Retire(r) if r == tenant);
        if self.planned.iter().any(retired) {
            return Err(Error::TenantRetired(tenant.raw()));
        }
        if !self.planned.iter().any(admitted) {
            return Err(Error::UnknownTenant(tenant.raw()));
        }
        self.planned_retirements.push((offset, tenant));
        self.plan(offset, Planned::Retire(tenant));
        Ok(())
    }

    /// The key of an event scheduled now for `at`.
    fn key(&mut self, at: Instant) -> Key {
        self.seq += 1;
        (at.as_nanos(), self.seq)
    }

    fn plan(&mut self, offset: Duration, ev: Planned) {
        let key = self.key(Instant::ZERO + offset);
        self.planned.push((key, ev));
    }

    fn push_arrival(&mut self, at: Instant, arrival: Arrival) {
        let key = self.key(at);
        self.arrivals.push(Reverse((key, arrival)));
    }

    fn speed_of(&self, worker: WorkerId) -> (u64, u64) {
        self.cfg
            .platform
            .class_of(CoreId::new(worker.raw()))
            .speed()
    }

    /// Reference-work → wall time on `worker`.
    fn wall_time(&self, worker: WorkerId, reference: Duration) -> Duration {
        match self.speed_of(worker) {
            (num, den) if num == den => reference,
            (num, den) => reference.scale(den, num),
        }
    }

    /// Wall time → reference work on `worker`.
    fn ref_work(&self, worker: WorkerId, wall: Duration) -> Duration {
        match self.speed_of(worker) {
            (num, den) if num == den => wall,
            (num, den) => wall.scale(num, den),
        }
    }

    /// One engine interaction at `now`: `f` makes the call with the
    /// cleared action sink — wall-clock timed when
    /// [`SimConfig::measure_engine_time`] is set — and the actions it
    /// left are then modelled on the workers.
    fn engine_call<R>(
        &mut self,
        now: Instant,
        f: impl FnOnce(&mut OnlineEngine, &mut ActionSink) -> R,
    ) -> R {
        let mut sink = std::mem::take(&mut self.sink);
        sink.clear();
        let out = if self.cfg.measure_engine_time {
            let t0 = std::time::Instant::now();
            let out = f(&mut self.engine, &mut sink);
            self.overhead_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            out
        } else {
            f(&mut self.engine, &mut sink)
        };
        self.apply_actions(now, &sink);
        self.sink = sink;
        out
    }

    fn apply_actions(&mut self, now: Instant, actions: &ActionSink) {
        for &a in actions.as_slice() {
            match a {
                Action::Dispatch {
                    worker,
                    job,
                    version,
                } => self.apply_dispatch(now, worker, job, version),
                Action::Preempt { worker, job } => self.apply_preempt(now, worker, job),
                Action::Boost { .. } => {
                    // Priority bookkeeping only; nothing to model.
                }
                Action::Cull { job } => {
                    // A culled job is never dispatched again: a preempted
                    // one leaves the simulation with its remaining work.
                    self.take_suspended(job);
                }
                // Answers to inputs a driver reads off the sink itself
                // (`crate::par` lends with a sink of its own).
                Action::Lend { .. } | Action::Offer(_) => {}
            }
        }
    }

    /// Detaches the slice of a preempted job awaiting re-dispatch.
    fn take_suspended(&mut self, job: JobId) -> Option<Slice> {
        let pos = self.suspended.iter().position(|s| s.job.id == job)?;
        Some(self.suspended.swap_remove(pos))
    }

    /// Puts a slice of `job` on `worker`. A job the engine has preempted
    /// before resumes its suspended slice, with the work it has left,
    /// and pays the context switch; anything else is a fresh start whose
    /// execution demand is sampled once, and which pays the kernel's
    /// wake-up latency.
    fn apply_dispatch(&mut self, now: Instant, worker: WorkerId, job: Job, version: VersionId) {
        let mut delay = self.cfg.overheads.dispatch;
        let mut slice = match self.take_suspended(job.id) {
            Some(slice) => {
                delay += self.cfg.overheads.context_switch;
                slice
            }
            None => {
                let task = &self.engine.taskset().tasks()[job.task.index()];
                let remaining_ref = self.exec.sample(task.versions()[version.index()].wcet());
                if let Some(k) = self.kernel.as_mut() {
                    delay += k.sample_latency(self.stress_intensity);
                }
                Slice {
                    job,
                    version,
                    first_start: now + delay,
                    preemptions: 0,
                    start: now + delay,
                    remaining_ref,
                    finish: (0, 0),
                }
            }
        };
        slice.version = version;
        slice.start = now + delay;
        slice.finish = self.key(slice.start + self.wall_time(worker, slice.remaining_ref));
        self.slices[worker.index()] = Some(slice);
    }

    /// Takes `w`'s slice off the worker at `now` — it finished, was
    /// preempted or crashed, or the run ended — and books the time it
    /// ran to the worker and to the accelerator of its version.
    fn end_slice(&mut self, w: usize, now: Instant) -> Option<Slice> {
        let slice = self.slices[w].take()?;
        // Nothing runs before the dispatch delay is over, and no slice
        // past its finish: that is consumed no later than `now`.
        let ran = now.saturating_since(slice.start);
        debug_assert!(ran <= self.wall_time(WorkerId::new(w as u16), slice.remaining_ref));
        self.worker_busy[w] += ran;
        let task = &self.engine.taskset().tasks()[slice.job.task.index()];
        if let Some(a) = task.versions()[slice.version.index()].accel() {
            self.accel_busy[a.index()] += ran;
        }
        Some(slice)
    }

    /// Suspends the slice on `worker` with the work it has left.
    fn apply_preempt(&mut self, now: Instant, worker: WorkerId, job: JobId) {
        let Some(mut slice) = self.end_slice(worker.index(), now) else {
            return;
        };
        debug_assert_eq!(slice.job.id, job, "engine preempted a different job");
        let done = self.ref_work(worker, now.saturating_since(slice.start));
        slice.remaining_ref -= done.min(slice.remaining_ref);
        slice.preemptions += 1;
        self.suspended.push(slice);
    }

    /// Ends `w`'s slice with its job's record, and returns the
    /// completion pair for the engine call, which the event loop batches
    /// across same-timestamp finishes.
    fn settle_finish(&mut self, now: Instant, w: usize) -> (WorkerId, JobId) {
        let slice = self
            .end_slice(w, now)
            .expect("a finish is a running slice's");
        let (job, worker) = (slice.job, WorkerId::new(w as u16));
        self.records.push(JobRecord {
            job: job.id,
            task: job.task,
            seq: job.seq,
            release: job.release,
            graph_release: job.graph_release,
            abs_deadline: job.abs_deadline,
            first_start: slice.first_start,
            completion: now,
            version: slice.version,
            worker,
            preemptions: slice.preemptions,
        });
        (worker, job.id)
    }

    /// Delivers one scheduled fault ([`SimConfig::fault_schedule`]).
    fn apply_fault(&mut self, now: Instant, ev: FaultEvent) {
        match ev {
            FaultEvent::Overrun { task } => {
                // No-op when the task is not running at the instant
                // (e.g. it already finished) — the schedule stays
                // valid across parameter sweeps.
                self.engine_call(now, |e, sink| e.apply(now, &Input::Overrun(task), sink))
                    .expect("an overrun is never refused");
            }
            FaultEvent::Crash { task } => self.apply_crash(now, task),
            FaultEvent::Burst { task, count } => {
                for _ in 0..count {
                    // Tolerates non-activatable targets so burst
                    // schedules compose with retirement schedules.
                    let _ =
                        self.engine_call(now, |e, sink| e.apply(now, &Input::Activate(task), sink));
                }
            }
        }
    }

    /// Crashes the running job of `task` — the simulated analogue of a
    /// worker catching a body panic (`yasmin-rt` wraps bodies in
    /// `catch_unwind`). The slice ends as a preempted one would, and is
    /// dropped *without* a completion record (a failed job never
    /// completed); the engine retires the job through its failure path.
    /// No-op if the task is not running at the instant.
    fn apply_crash(&mut self, now: Instant, task: TaskId) {
        let Some(w) = self
            .slices
            .iter()
            .position(|s| matches!(s, Some(sl) if sl.job.task == task))
        else {
            return;
        };
        let slice = self.end_slice(w, now).expect("position matched");
        let worker = WorkerId::new(w as u16);
        self.engine_call(now, |e, sink| {
            e.apply(now, &Input::Failed(worker, slice.job.id), sink)
                .expect("crashed job is running on its worker");
        });
    }

    /// Runs the simulation to the horizon and aggregates the result.
    ///
    /// # Recurrence
    ///
    /// A schedule that recurs is simulated once and replayed. A
    /// **recurrence boundary** is a tick consumed at *t* with no other
    /// event pending, no job in flight and the engine at a recurrence
    /// point ([`OnlineEngine::recurrence_mark`]: quiescent, every
    /// auto-released task due exactly at *t*); the start of a set
    /// without release offsets is one. Only events that will still
    /// happen are pending: a preempted or crashed slice takes its
    /// finish with it, so it holds back no boundary. When the previous
    /// boundary *t₀* is still valid — only ticks and finishes were
    /// consumed since — the records of [*t₀*, *t*) are appended
    /// ⌊(horizon − *t*) / (*t* − *t₀*)⌋ more times, each copy the
    /// previous one with instants, `seq` and job ids shifted by one
    /// cycle; engine counters and busy times advance by as many cycles,
    /// and the run carries on event by event from the instant it
    /// reached, so a horizon that is no multiple of the cycle gets its
    /// tail the ordinary way. The [`SimResult`] is the one the
    /// event-by-event loop produces, field for field, save two:
    /// [`SimResult::replayed_cycles`] / [`SimResult::replayed_jobs`]
    /// say what was replayed, and [`SimResult::sched_overhead_ns`] holds
    /// one sample per engine call actually made.
    ///
    /// Nothing selects this; a run folds or not by what the simulator
    /// sees in its own state. What keeps it from folding: random
    /// execution times ([`ExecModel::UniformPct`]) or a kernel model;
    /// sporadic trains, release offsets, or any scheduled mode, message,
    /// fault, admission or retirement event still pending (after the
    /// last one, the next two clean boundaries fold again); backlog at
    /// every candidate boundary (an over-utilised set); and whatever
    /// keeps the engine from a recurrence point.
    ///
    /// # Errors
    ///
    /// Engine errors (protocol violations) — not expected in normal
    /// operation.
    pub fn run(self) -> Result<SimResult> {
        let fold = self.cfg.exec == ExecModel::Wcet && self.kernel.is_none();
        self.run_folding(fold)
    }

    /// [`Simulation::run`] without the replay: every cycle simulated —
    /// the reference the parity tests hold `run` against.
    #[cfg(test)]
    pub(crate) fn run_event_by_event(self) -> Result<SimResult> {
        self.run_folding(false)
    }

    fn run_folding(mut self, fold: bool) -> Result<SimResult> {
        self.arm(fold)?;
        while let Some(next) = self.next() {
            self.consume(next);
        }
        Ok(self.finish())
    }

    /// Called at the start and with a tick consumed at `now` while no
    /// planned event or arrival is pending. If `now` is a recurrence boundary
    /// ([`Simulation::run`]) it becomes `self.boundary`; if the previous
    /// one is still valid, the cycle between the two is first replayed
    /// as often as fits before the horizon. Returns the instant the run
    /// continues from: `now`, or the end of the last replayed cycle.
    fn fold(&mut self, now: Instant) -> Instant {
        let horizon = self.horizon;
        if self.slices.iter().any(Option::is_some) || !self.suspended.is_empty() {
            return now;
        }
        let Some(mut here) = self.engine.recurrence_mark(now) else {
            return now;
        };
        let mut at = now;
        if let Some(prev) = self.boundary.take() {
            let cycle = now.saturating_since(prev.engine.at);
            let n = horizon.saturating_since(now).as_nanos() / cycle.as_nanos();
            at = now + cycle * n;
            if n > 0 {
                let len = self.records.len() - prev.records;
                let jobs = here.job_counter - prev.engine.job_counter;
                let seqs: Vec<u64> = here
                    .activation_seq
                    .iter()
                    .zip(&prev.engine.activation_seq)
                    .map(|(now, before)| now - before)
                    .collect();
                // One reservation: the copies, and the tail's records
                // (fewer than a cycle's) when the horizon leaves one.
                let copies = usize::try_from(n).expect("a cycle count fits the address space");
                self.records
                    .reserve_exact(len * (copies + usize::from(at < horizon)));
                // Each copy is the previous cycle's, one cycle later.
                for _ in 0..n {
                    let from = self.records.len() - len;
                    self.records.extend_from_within(from..);
                    for r in &mut self.records[from + len..] {
                        r.job = JobId::new(r.job.raw() + jobs);
                        r.seq += seqs[r.task.index()];
                        r.release += cycle;
                        r.graph_release += cycle;
                        r.first_start += cycle;
                        r.completion += cycle;
                        if r.abs_deadline != Instant::MAX {
                            r.abs_deadline += cycle;
                        }
                    }
                }
                let busy = self.worker_busy.iter_mut().zip(&prev.worker_busy);
                for (busy, before) in busy.chain(self.accel_busy.iter_mut().zip(&prev.accel_busy)) {
                    *busy += (*busy - *before) * n;
                }
                let skip = Input::Skip {
                    since: &prev.engine,
                    n,
                };
                self.engine
                    .apply(now, &skip, &mut self.sink)
                    .expect("the engine stands at the recurrence point just marked");
                here = self
                    .engine
                    .recurrence_mark(at)
                    .expect("whole cycles later the engine stands at one again");
                self.replayed_cycles += n;
                self.replayed_jobs += len as u64 * n;
            }
        }
        self.boundary = Some(Boundary {
            engine: here,
            records: self.records.len(),
            worker_busy: self.worker_busy.clone(),
            accel_busy: self.accel_busy.clone(),
        });
        at
    }

    /// Runs `f` with the insertion counter `seq` in place of this
    /// simulation's own: [`crate::par`] numbers the events of all the
    /// shards of a run from one counter, so same-instant events of
    /// different shards keep the order they were scheduled in.
    pub(crate) fn with_seq<R>(&mut self, seq: &mut u64, f: impl FnOnce(&mut Self) -> R) -> R {
        std::mem::swap(&mut self.seq, seq);
        let out = f(self);
        std::mem::swap(&mut self.seq, seq);
        out
    }

    /// Schedules a cross-shard activation token for `at`
    /// ([`crate::par`] routes a peer's outbox here).
    pub(crate) fn push_cross(&mut self, at: Instant, token: RemoteActivation) {
        self.push_arrival(at, Arrival::Cross(token));
    }

    /// Adopts jobs a peer shard released to this (idle) one at `now`.
    ///
    /// # Errors
    ///
    /// [`Input::Adopt`]'s: a driver protocol
    /// violation.
    pub(crate) fn adopt_stolen(&mut self, jobs: &[Job], now: Instant) -> Result<()> {
        self.engine_call(now, |e, sink| e.apply(now, &Input::Adopt(jobs), sink))
    }

    /// The end of a job that migrated from this shard is home at `now`
    /// ([`Input::Home`]).
    ///
    /// # Errors
    ///
    /// [`Input::Home`]'s: a driver routing bug.
    pub(crate) fn instance_home(&mut self, note: HomeNote, now: Instant) -> Result<()> {
        self.engine_call(now, |e, sink| e.apply(now, &Input::Home(note), sink))
    }

    /// Starts the schedule at time zero and arms the event sources: the
    /// tick train, the sporadic roots, the mode, message and fault
    /// schedules. `fold` as [`Simulation::run`] decided.
    ///
    /// # Errors
    ///
    /// [`Input::Start`]'s.
    pub(crate) fn arm(&mut self, fold: bool) -> Result<()> {
        self.folding = fold;
        if fold {
            self.fold(Instant::ZERO);
        }
        self.engine_call(Instant::ZERO, |e, sink| {
            e.apply(Instant::ZERO, &Input::Start, sink)
        })?;
        self.next_tick = Some(self.key(Instant::ZERO + self.tick));
        for i in 0..self.sporadic_roots.len() {
            let (task, offset) = self.sporadic_roots[i];
            let base = TenantId::new(0);
            self.push_arrival(Instant::ZERO + offset, Arrival::Sporadic(task, base));
        }
        for (offset, mode) in std::mem::take(&mut self.cfg.mode_schedule) {
            self.plan(offset, Planned::Mode(mode));
        }
        for (offset, ev) in std::mem::take(&mut self.cfg.msg_schedule) {
            self.plan(offset, Planned::Msg(ev));
        }
        for (offset, ev) in std::mem::take(&mut self.cfg.fault_schedule) {
            self.plan(offset, Planned::Fault(ev));
        }
        self.planned.sort_unstable_by_key(|&(key, _)| Reverse(key));
        Ok(())
    }

    /// The key and source of the next event: the least key of the armed
    /// tick, the running slices' finishes, the next planned event and
    /// the earliest arrival.
    #[inline]
    fn head(&self) -> Option<(Key, Source)> {
        let mut head = self.next_tick.map(|key| (key, Source::Tick));
        let mut offer = |key: Key, source: Source| {
            if head.is_none_or(|(least, _)| key < least) {
                head = Some((key, source));
            }
        };
        for (w, slice) in self.slices.iter().enumerate() {
            if let Some(slice) = slice {
                offer(slice.finish, Source::Finish(w));
            }
        }
        if let Some(&(key, _)) = self.planned.last() {
            offer(key, Source::Planned);
        }
        if let Some(&Reverse((key, _))) = self.arrivals.peek() {
            offer(key, Source::Arrival);
        }
        head
    }

    /// The next event, or `None` when the run is over: the first event
    /// past the horizon ends it (nothing later can be earlier).
    #[inline]
    fn next(&self) -> Option<(Key, Source)> {
        self.head()
            .filter(|&((t, _), _)| Instant::from_nanos(t) <= self.horizon)
    }

    /// The (time in ns, insertion number) of the next event, or `None`
    /// when the run is over.
    pub(crate) fn next_key(&self) -> Option<(u64, u64)> {
        self.next().map(|(key, _)| key)
    }

    /// Consumes the next event ([`Simulation::next_key`] must be `Some`).
    // Inlined, with `consume`, into the sharded driver's loop: as a call
    // of its own it cost the DAG runs ≈ 1.5 % (224 → 228 ns per job).
    #[inline(always)]
    pub(crate) fn step(&mut self) {
        if let Some(next) = self.head() {
            self.consume(next);
        }
    }

    /// Consumes the event `head` answered.
    // Inlined into `run_folding`'s loop and `step`: as a call of its own
    // it cost the drone sweep ≈ 3 % (135 → 139 ns per job), the price of
    // the frame of so large a function once per event.
    #[inline(always)]
    fn consume(&mut self, ((time, _), source): (Key, Source)) {
        let now = Instant::from_nanos(time);
        match source {
            Source::Tick => self.on_tick(now),
            Source::Finish(w) => {
                let mut batch = std::mem::take(&mut self.finish_batch);
                batch.clear();
                batch.push(self.settle_finish(now, w));
                // Coalesce the consecutive run of same-timestamp
                // finishes at the head into one batched engine call — a
                // burst of completions pays a single dispatch round.
                // Only the Finish prefix is absorbed, so ordering
                // against ticks and arrivals at the same instant is
                // unchanged.
                while let Some(((t, _), Source::Finish(w))) = self.head() {
                    if t != time {
                        break;
                    }
                    batch.push(self.settle_finish(now, w));
                }
                self.engine_call(now, |e, sink| {
                    e.apply(now, &Input::Completed(&batch), sink)
                        .expect("driver protocol upheld");
                });
                self.finish_batch = batch;
            }
            Source::Planned => {
                self.boundary = None;
                let (_, ev) = self.planned.pop().expect("the head is planned");
                self.apply_planned(now, ev);
            }
            Source::Arrival => {
                self.boundary = None;
                let Reverse((_, arrival)) = self.arrivals.pop().expect("the head is an arrival");
                self.apply_arrival(now, arrival);
            }
        }
    }

    /// The armed tick at `now`: first the replay, when nothing but ticks
    /// and finishes can happen from here ([`Simulation::fold`]).
    fn on_tick(&mut self, mut now: Instant) {
        self.next_tick = None;
        if self.folding && self.planned.is_empty() && self.arrivals.is_empty() {
            let reached = self.fold(now);
            if reached > now && reached == self.horizon {
                // The last replayed cycle's tick found the horizon and
                // armed no successor.
                return;
            }
            now = reached;
        }
        self.engine_call(now, |e, sink| {
            e.apply(now, &Input::Tick { done: &[] }, sink).unwrap()
        });
        let next = now + self.tick;
        // The horizon is exclusive for new releases, so runs over
        // [0, horizon) release exactly horizon/T jobs.
        if next < self.horizon {
            self.next_tick = Some(self.key(next));
        }
    }

    fn apply_arrival(&mut self, now: Instant, arrival: Arrival) {
        match arrival {
            Arrival::Sporadic(task, tenant) => {
                // A retired tenant's sporadic train ends silently: no
                // activation, no re-arm — also once its slot has a new
                // holder.
                if self.engine.is_task_retired(task)
                    || self.engine.tenant_of_task(task) != Some(tenant)
                {
                    return;
                }
                self.engine_call(now, |e, sink| {
                    e.apply(now, &Input::Activate(task), sink)
                        .expect("sporadic task is activatable");
                });
                let next = now + self.sporadic_period[task.index()];
                if next < self.horizon {
                    self.push_arrival(next, Arrival::Sporadic(task, tenant));
                }
            }
            Arrival::Cross(ra) => self.engine_call(now, |e, sink| {
                e.apply(now, &Input::Token(ra), sink)
                    .expect("a token is routed to the shard owning its edge");
            }),
        }
    }

    fn apply_planned(&mut self, now: Instant, ev: Planned) {
        match ev {
            Planned::Mode(mode) => {
                let _ = self.engine.apply(now, &Input::Mode(mode), &mut self.sink);
            }
            Planned::Msg(ev) => self.engine_call(now, |e, sink| {
                e.apply(now, &Input::Msg(ev), sink)
                    .expect("scheduled message event targets a known task");
            }),
            Planned::Fault(ev) => self.apply_fault(now, ev),
            Planned::Admit(idx) => self.apply_admit(now, idx),
            Planned::Retire(tenant) => self.engine_call(now, |e, sink| {
                e.apply(now, &Input::Retire(tenant), sink)
                    .expect("retired tenant was admitted");
            }),
        }
    }

    /// Installs and commits the tenant [`Simulation::admit_at`]
    /// validated as admission `idx`, and arms its sporadic roots.
    fn apply_admit(&mut self, now: Instant, idx: usize) {
        let (merged, budget, tenant, slot) = self.admit_events[idx].clone();
        let install = Input::Install {
            merged: &merged,
            tenant,
            first_task: slot.first_task,
            budget,
        };
        // Pre-validated at admit_at time, so a failure here is a driver
        // bug, not a tenant fault.
        self.engine
            .apply(now, &install, &mut self.sink)
            .expect("admission was validated by admit_at");
        // The per-task / per-accel side state the sim keeps alongside
        // the engine: grown, or overwritten in a recycled slot.
        self.accel_busy
            .resize(merged.accels().len(), Duration::ZERO);
        self.sporadic_period.resize(merged.len(), Duration::ZERO);
        let tasks = &merged.tasks()[slot.task_range()];
        for t in tasks {
            self.sporadic_period[t.id().index()] = match t.spec().kind() {
                ActivationKind::Sporadic => t.spec().period(),
                _ => Duration::ZERO,
            };
        }
        self.engine_call(now, |e, sink| {
            let (anchor, since) = (now, now);
            e.apply(
                now,
                &Input::Commit {
                    tenant,
                    anchor,
                    since,
                },
                sink,
            )
            .and_then(|()| e.apply(now, &Input::Tick { done: &[] }, sink))
            .expect("spliced tenant commits");
        });
        // Arm the tenant's sporadic roots from the commit instant, like
        // the base set's at start.
        for t in tasks {
            if t.spec().kind() == ActivationKind::Sporadic && merged.in_degree(t.id()) == 0 {
                let first = now + t.spec().release_offset();
                if first < self.horizon {
                    self.push_arrival(first, Arrival::Sporadic(t.id(), tenant));
                }
            }
        }
    }

    /// Aggregates the run into its result, once
    /// [`Simulation::next_key`] has answered `None`.
    pub(crate) fn finish(mut self) -> SimResult {
        let horizon = self.horizon;
        // The running slices end at the horizon. A preempted job waits
        // in the engine's ready queue, so it counts once, there.
        let mut unfinished = self.engine.ready_len();
        let missed = |s: &Slice| usize::from(s.job.deadline_missed_at(horizon));
        let mut unfinished_missed: usize = self.suspended.iter().map(missed).sum();
        for w in 0..self.slices.len() {
            if let Some(slice) = self.end_slice(w, horizon) {
                unfinished += 1;
                unfinished_missed += missed(&slice);
            }
        }

        // Energy model: busy at active power, idle at idle power, accels
        // at their active power. A shard accounts only its own worker
        // (busy *and* idle), so per-shard energies sum to the
        // whole-system figure without double-counting idle cores.
        let mut energy = Energy::ZERO;
        for (w, busy) in self.worker_busy.iter().enumerate() {
            if self.shard.is_some_and(|sw| sw.index() != w) {
                continue;
            }
            let class = self.cfg.platform.class_of(CoreId::new(w as u16));
            let idle = self.cfg.horizon.saturating_sub(*busy);
            energy += class.active_power().energy_over(*busy);
            energy += class.idle_power().energy_over(idle);
        }
        for (a, busy) in self.accel_busy.iter().enumerate() {
            let spec = &self.engine.taskset().accels()[a];
            energy += spec.active_power().energy_over(*busy);
        }

        SimResult {
            records: self.records,
            unfinished,
            unfinished_missed,
            engine_stats: self.engine.stats().clone(),
            horizon,
            sched_overhead_ns: self.overhead_ns,
            worker_busy: self.worker_busy,
            energy,
            replayed_cycles: self.replayed_cycles,
            replayed_jobs: self.replayed_jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold_parity::assert_conserved;
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn edf(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    }

    fn simple_set(n: usize, period_ms: u64, wcet_ms: u64) -> Arc<TaskSet> {
        let mut b = TaskSetBuilder::new();
        for i in 0..n {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{i}"), ms(period_ms)))
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(wcet_ms)))
                .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn single_task_runs_every_period() {
        let ts = simple_set(1, 10, 2);
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100))).unwrap();
        let r = sim.run().unwrap();
        // Releases at 0,10,...,90 -> 10 jobs, all complete, none missed.
        assert_eq!(r.records.len(), 10);
        assert_eq!(r.total_misses(), 0);
        let rt = r.response_times(TaskId::new(0));
        assert_eq!(rt.max(), Some(ms(2).as_nanos()));
        assert_eq!(r.unfinished, 0);
        // Worker busy 10 * 2ms = 20ms over 100ms.
        assert!((r.worker_utilisation(0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn overload_misses_deadlines() {
        // One worker, two tasks each needing 6ms per 10ms -> U = 1.2.
        let ts = simple_set(2, 10, 6);
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(200))).unwrap();
        let r = sim.run().unwrap();
        assert!(r.total_misses() > 0, "overload must miss deadlines");
    }

    #[test]
    fn edf_u_le_1_never_misses() {
        // Classic EDF optimality on one core: U = 0.9.
        let mut b = TaskSetBuilder::new();
        for (p, c) in [(10u64, 3u64), (20, 6), (40, 12)] {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{p}"), ms(p)))
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(c))).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(400))).unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.total_misses(), 0);
        assert!(r.engine_stats.preempted > 0, "EDF at U=0.9 must preempt");
    }

    #[test]
    fn little_cores_stretch_execution() {
        let ts = simple_set(1, 100, 10);
        let mut cfg = SimConfig::uniform(1, ms(100));
        cfg.platform = PlatformSpec::odroid_xu4();
        // Worker 0 on a big core.
        let r_big = Simulation::new(Arc::clone(&ts), edf(1), cfg.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            r_big.records[0].response_time(),
            ms(10),
            "big core runs at reference speed"
        );
        // Re-map: platform where core 0 is LITTLE (use cores 4.. of the
        // odroid by building a custom platform).
        let little = PlatformSpec::new(
            "little-only",
            vec![yasmin_core::platform::CoreClass::new("LITTLE", 2, 5)],
            vec![0],
        );
        cfg.platform = little;
        let r_little = Simulation::new(ts, edf(1), cfg).unwrap().run().unwrap();
        assert_eq!(
            r_little.records[0].response_time(),
            ms(25),
            "0.4x speed -> 10ms of work takes 25ms"
        );
    }

    #[test]
    fn dag_pipeline_completes_in_order() {
        let mut b = TaskSetBuilder::new();
        let src = b.task_decl(TaskSpec::periodic("src", ms(50))).unwrap();
        let dst = b.task_decl(TaskSpec::graph_node("dst")).unwrap();
        b.version_decl(src, VersionSpec::new("s", ms(5))).unwrap();
        b.version_decl(dst, VersionSpec::new("d", ms(5))).unwrap();
        let c = b.channel_decl("c", 1, 8);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(2), SimConfig::uniform(2, ms(100))).unwrap();
        let r = sim.run().unwrap();
        let srcs: Vec<_> = r.records_of(TaskId::new(0)).collect();
        let dsts: Vec<_> = r.records_of(TaskId::new(1)).collect();
        assert_eq!(srcs.len(), 2);
        assert_eq!(dsts.len(), 2);
        for (s, d) in srcs.iter().zip(&dsts) {
            assert!(d.first_start >= s.completion, "consumer after producer");
            assert_eq!(d.graph_release, s.release);
            assert_eq!(d.end_to_end(), d.completion.saturating_since(s.release));
        }
    }

    #[test]
    fn preemption_progress_is_preserved() {
        // Long job preempted by short periodic urgent task; total work
        // must be conserved (response = own work + interference).
        let mut b = TaskSetBuilder::new();
        let long = b.task_decl(TaskSpec::periodic("long", ms(100))).unwrap();
        b.version_decl(long, VersionSpec::new("l", ms(40))).unwrap();
        let short = b
            .task_decl(TaskSpec::periodic("short", ms(20)).with_constrained_deadline(ms(5)))
            .unwrap();
        b.version_decl(short, VersionSpec::new("s", ms(2))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100))).unwrap();
        let r = sim.run().unwrap();
        let long_rec = r.records_of(TaskId::new(0)).next().expect("long finished");
        // 40ms of own work + 2ms interference per 20ms window.
        assert!(long_rec.preemptions >= 1);
        let resp = long_rec.response_time();
        assert!(resp >= ms(44), "resp = {resp}");
        assert!(resp <= ms(50), "resp = {resp}");
        assert_eq!(r.total_misses(), 0);
    }

    #[test]
    fn kernel_latency_shifts_starts() {
        let ts = simple_set(1, 10, 1);
        let mut cfg = SimConfig::uniform(1, ms(100));
        cfg.kernel = Some(KernelKind::PreemptRt);
        cfg.stress = StressProfile::PAPER;
        let r = Simulation::new(ts, edf(1), cfg).unwrap().run().unwrap();
        assert!(!r.records.is_empty());
        for rec in &r.records {
            assert!(
                rec.start_latency() >= Duration::from_micros(170),
                "kernel base latency applies: {}",
                rec.start_latency()
            );
        }
    }

    #[test]
    fn measured_overhead_samples_collected() {
        let ts = simple_set(5, 10, 1);
        let mut cfg = SimConfig::uniform(2, ms(100));
        cfg.measure_engine_time = true;
        // One sample per engine call made: ten periods of them when
        // every period is simulated, one period's when the rest is
        // replayed.
        let every = Simulation::new(Arc::clone(&ts), edf(2), cfg.clone()).unwrap();
        let every = every.run_event_by_event().unwrap();
        let r = Simulation::new(ts, edf(2), cfg).unwrap().run().unwrap();
        assert_eq!(r.replayed_cycles, 9);
        assert!(every.sched_overhead_ns.count() > 10);
        assert!(r.sched_overhead_ns.count() < every.sched_overhead_ns.count() / 5);
        assert!(r.sched_overhead_ns.max().unwrap() > 0);
    }

    #[test]
    fn sporadic_roots_fire() {
        let mut b = TaskSetBuilder::new();
        let s = b.task_decl(TaskSpec::sporadic("s", ms(10))).unwrap();
        b.version_decl(s, VersionSpec::new("v", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100))).unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.records.len(), 10);
        assert_eq!(r.engine_stats.sporadic_violations, 0);
    }

    #[test]
    fn energy_accumulates() {
        let ts = simple_set(1, 10, 5);
        let r = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100)))
            .unwrap()
            .run()
            .unwrap();
        // Uniform platform: 1W active. 50ms busy -> 50 mJ active + idle.
        assert!(r.energy.as_microjoules() > 50_000);
    }

    #[test]
    fn too_many_workers_rejected() {
        let ts = simple_set(1, 10, 1);
        let err = Simulation::new(ts, edf(4), SimConfig::uniform(2, ms(10)));
        assert!(err.is_err());
    }

    fn rm(workers: usize) -> yasmin_core::config::ConfigBuilder {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::RateMonotonic)
    }

    fn periodic_set(tasks: &[(u64, u64)]) -> Arc<TaskSet> {
        let mut b = TaskSetBuilder::new();
        for &(p, c) in tasks {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{p}"), ms(p)))
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(c))).unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn a_culled_preempted_job_leaves_the_simulation() {
        // The 97 ms task is preempted, then culled past its deadline
        // while it waits to resume.
        let ts = periodic_set(&[(10, 5), (20, 9), (97, 30)]);
        let config = rm(1).cull_missed(true).build().unwrap();
        let r = Simulation::new(ts, config, SimConfig::uniform(1, ms(400)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.engine_stats.released, 65);
        assert!(r.engine_stats.culled > 0);
        assert_conserved(&r);
    }

    #[test]
    fn a_retired_tenants_preempted_job_leaves_the_simulation() {
        // t0 preempts the tenant's job at 20 ms (14 of its 20 ms done);
        // the tenant retires at 21 ms while the job waits to resume.
        let ts = periodic_set(&[(10, 3)]);
        let mut sim =
            Simulation::new(ts, rm(1).build().unwrap(), SimConfig::uniform(1, ms(50))).unwrap();
        let tenant = sim
            .admit_at(Duration::ZERO, &periodic_set(&[(100, 20)]), None)
            .unwrap();
        sim.retire_at(ms(21), tenant).unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.engine_stats.released, 6);
        assert_eq!(r.engine_stats.culled, 1);
        assert_eq!(r.records.len(), 5);
        assert_conserved(&r);
    }

    #[test]
    fn a_preempted_job_is_unfinished_once() {
        // t0 runs 0..5 ms; t1 runs from 5 ms until t0's second job
        // preempts it at 10 ms. At the 12 ms horizon t0 runs and t1
        // waits in the ready queue to resume.
        let ts = periodic_set(&[(10, 5), (97, 30)]);
        let r = Simulation::new(ts, rm(1).build().unwrap(), SimConfig::uniform(1, ms(12)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.engine_stats.released, 3);
        assert_eq!(r.engine_stats.preempted, 1);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.unfinished, 2);
        assert_conserved(&r);
    }

    #[test]
    fn an_accelerator_busy_at_the_horizon_draws_its_power() {
        let mut b = TaskSetBuilder::new();
        let gpu = b.hwaccel_decl_with_power("gpu", yasmin_core::energy::Power::from_watts(10));
        let t = b.task_decl(TaskSpec::periodic("t", ms(100))).unwrap();
        let v = b.version_decl(t, VersionSpec::new("gpu", ms(10))).unwrap();
        b.hwaccel_use(t, v, gpu).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let r = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(5)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.unfinished, 1);
        // The worker at 1 W and the GPU at 10 W, both busy all 5 ms.
        assert_eq!(r.energy.as_microjoules(), 5_000 + 50_000);
    }

    #[test]
    fn retire_at_refuses_a_retirement_the_run_could_not_make() {
        let ts = periodic_set(&[(10, 3)]);
        let mut sim =
            Simulation::new(ts, rm(1).build().unwrap(), SimConfig::uniform(1, ms(50))).unwrap();
        let refused = |r: Result<()>| r.unwrap_err();
        assert!(matches!(
            refused(sim.retire_at(ms(5), TenantId::new(7))),
            Error::UnknownTenant(7)
        ));
        assert!(matches!(
            refused(sim.retire_at(ms(5), TenantId::new(0))),
            Error::InvalidConfig(_)
        ));
        let tenant = sim
            .admit_at(ms(10), &periodic_set(&[(100, 20)]), None)
            .unwrap();
        // Before its admission, the tenant does not exist yet.
        assert!(matches!(
            refused(sim.retire_at(ms(5), tenant)),
            Error::UnknownTenant(1)
        ));
        sim.retire_at(ms(10), tenant).unwrap();
        assert!(matches!(
            refused(sim.retire_at(ms(30), tenant)),
            Error::TenantRetired(1)
        ));
        let r = sim.run().unwrap();
        assert_eq!(r.records.len(), 5);
        assert_conserved(&r);
    }

    #[test]
    fn same_instant_events_run_in_insertion_order() {
        // At 10 ms: p's first job finishes, the tick releases its second,
        // the sporadic s arrives and preempts it (deadline 15 < 20 ms),
        // the mode switches and s is forced to overrun — in the order
        // they were scheduled in, whatever their source.
        let mut b = TaskSetBuilder::new();
        let p = b.task_decl(TaskSpec::periodic("p", ms(10))).unwrap();
        b.version_decl(p, VersionSpec::new("p", ms(10))).unwrap();
        let spec = TaskSpec::sporadic("s", ms(10))
            .with_constrained_deadline(ms(5))
            .with_release_offset(ms(10));
        let s = b.task_decl(spec).unwrap();
        b.version_decl(s, VersionSpec::new("s", ms(1))).unwrap();
        let mut cfg = SimConfig::uniform(1, ms(25));
        cfg.mode_schedule = vec![(ms(10), yasmin_core::version::ExecMode::new(1))];
        cfg.fault_schedule = vec![(ms(10), FaultEvent::Overrun { task: s })];
        let ts = Arc::new(b.build().unwrap());
        let mut sim = Simulation::new(ts, edf(1), cfg).unwrap();
        sim.arm(false).unwrap();
        let mut consumed = Vec::new();
        while let Some(((t, seq), source)) = sim.head() {
            if Instant::from_nanos(t) > sim.horizon {
                break;
            }
            consumed.push((t / 1_000_000, seq, source));
            sim.step();
        }
        use Source::{Arrival, Finish, Planned, Tick};
        let at_10: Vec<_> = consumed.iter().filter(|c| c.0 == 10).collect();
        assert_eq!(
            at_10.iter().map(|c| c.2).collect::<Vec<_>>(),
            [Finish(0), Tick, Arrival, Planned, Planned],
            "{consumed:?}"
        );
        assert!(at_10.windows(2).all(|w| w[0].1 < w[1].1), "{consumed:?}");
        // p's preempted slice would have finished at 20 ms; only the
        // tick and s's next arrival happen then, and p finishes at 21.
        let times: Vec<_> = consumed.iter().map(|c| (c.0, c.2)).collect();
        assert_eq!(
            times,
            [
                (10, Finish(0)),
                (10, Tick),
                (10, Arrival),
                (10, Planned),
                (10, Planned),
                (11, Finish(0)),
                (20, Tick),
                (20, Arrival),
                (21, Finish(0)),
                (22, Finish(0)),
            ]
        );
        let r = sim.finish();
        assert_eq!(r.engine_stats.preempted, 1);
        assert_eq!(r.engine_stats.overruns, 1);
        assert_eq!(r.records.len(), 4);
        assert_eq!(r.records[2].preemptions, 1);
    }

    #[test]
    fn deterministic_runs() {
        let mk = || {
            let ts = simple_set(4, 10, 2);
            let mut cfg = SimConfig::uniform(2, ms(200));
            cfg.exec = ExecModel::UniformPct {
                min_pct: 60,
                max_pct: 100,
            };
            cfg.seed = 1234;
            Simulation::new(ts, edf(2), cfg).unwrap().run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.completion, y.completion);
            assert_eq!(x.worker, y.worker);
        }
    }
}
