//! The real-thread YASMIN runtime (Fig. 1a/1b brought to life).
//!
//! One **scheduler thread** owns the scheduling engine, wakes at the gcd
//! tick (§3.3), processes completion notifications from workers between
//! ticks, and pushes dispatches into per-worker mailboxes. **Worker
//! threads** ("virtual CPUs") are pinned to cores best-effort and execute
//! registered version bodies to completion.
//!
//! The scheduler thread has **one wait**: a timed receive on its inbox,
//! which carries workers' completions and every control command
//! (`activate`, `admit`, `retire`, message boosts, `stop`) alike, bounded
//! by the next tick edge. A command therefore takes effect when it is
//! sent, not at the next completion or tick; the table of what the loop
//! acts on and what wakes it sits at the wait in `scheduler_main`. The
//! receive sleeps in the kernel whatever `Config::waiting` says
//! (busy-waiting between jobs is the sharded runtime's, where a thread
//! has its core to itself), and the tick grid is anchored at the instant
//! the engine started.
//!
//! Substitution note (DESIGN.md): the paper preempts workers with POSIX
//! signals and a hand-written `swapcontext`. Safe Rust cannot hijack a
//! thread asynchronously, so this runtime schedules **non-preemptively at
//! job boundaries** — configurations must set `preemption(false)`;
//! preemptive behaviour is exercised in the simulator, which drives the
//! same engine.
//!
//! Data channels: the engine tracks *activation tokens*; the actual data
//! travels through `yasmin_sync::spsc` endpoints captured inside the task
//! closures (the Rust analogue of the paper's macro-generated static
//! FIFO buffers — see `examples/quickstart.rs`).

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use yasmin_core::config::Config;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::priority::Priority;
use yasmin_core::time::{Clock, Instant, MonotonicClock};
use yasmin_sched::admission::{reservation_for, AdmissionControl, AdmissionError, TenantLedger};
use yasmin_sched::msg::{MsgEvent, NotifyHandle, Receiver as MsgReceiver, Sender as MsgSender};
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{Action, ActionSink, EngineStats, Job, JobOutcome, OnlineEngine};

/// Context handed to a task body for each job.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// The job being executed.
    pub job: Job,
    /// The version selected by the scheduler.
    pub version: VersionId,
    /// The worker (virtual CPU) executing it.
    pub worker: WorkerId,
}

/// A task-version body: the user function of `version_decl`.
pub type TaskBody = Arc<dyn Fn(&JobCtx) + Send + Sync>;

/// One completed job, as observed by the runtime.
#[derive(Debug, Clone, Copy)]
pub struct RtJobRecord {
    /// The job.
    pub job: Job,
    /// Version executed.
    pub version: VersionId,
    /// Worker that ran it.
    pub worker: WorkerId,
    /// When the body started.
    pub started: Instant,
    /// When the body returned.
    pub completed: Instant,
    /// Whether the body returned normally or panicked (panics are
    /// contained on the worker and retired as failures).
    pub outcome: JobOutcome,
}

impl RtJobRecord {
    /// Dispatch latency: body start − release.
    #[must_use]
    pub fn start_latency(&self) -> yasmin_core::time::Duration {
        self.started.saturating_since(self.job.release)
    }

    /// Response time: completion − release.
    #[must_use]
    pub fn response_time(&self) -> yasmin_core::time::Duration {
        self.completed.saturating_since(self.job.release)
    }

    /// `true` if the job completed past its deadline.
    #[must_use]
    pub fn missed(&self) -> bool {
        self.job.abs_deadline != Instant::MAX && self.completed > self.job.abs_deadline
    }
}

/// Final report returned by [`Runtime::cleanup`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// Every completed job.
    pub records: Vec<RtJobRecord>,
    /// Engine counters.
    pub engine_stats: EngineStats,
    /// Runtime threads the kernel refused to pin to their core (no such
    /// core, restricted cpuset, `os-rt` disabled): they ran wherever
    /// the host put them, so the run's timing is that of a floating
    /// thread, not of the placement the builder asked for.
    pub unpinned_threads: usize,
}

enum WorkerMsg {
    Run {
        job: Job,
        version: VersionId,
        body: TaskBody,
    },
    Exit,
}

struct Completion {
    worker: WorkerId,
    job: Job,
    version: VersionId,
    started: Instant,
    completed: Instant,
    outcome: JobOutcome,
}

enum Cmd {
    Activate(TaskId),
    /// A high-priority message entered a channel lane: boost the
    /// receiving task through the engine's PIP machinery (see
    /// `yasmin_sched::msg`). Raised by the channel notify hooks wired in
    /// [`RuntimeBuilder::channel`], from whichever thread sent.
    MsgHigh {
        dst: TaskId,
        ceiling: Priority,
    },
    /// A high-lane message was consumed; the boost drops when the lane
    /// drains (posts and drains balance).
    MsgDrained {
        dst: TaskId,
    },
    /// Splice-and-commit an already-evaluated tenant (see
    /// [`Runtime::admit`]): the scheduler thread adopts the merged set,
    /// registers the tenant's bodies, arms its releases and replies with
    /// the assigned id — all between two engine rounds, so the splice is
    /// atomic with respect to scheduling decisions.
    Admit {
        merged: Arc<TaskSet>,
        bodies: HashMap<(TaskId, VersionId), TaskBody>,
        budget: Option<TenantBudget>,
        reply: Sender<Result<TenantId>>,
    },
    /// Quiesce a tenant: cull its ready jobs and stop its releases;
    /// in-flight jobs finish but fire no successors.
    Retire {
        tenant: TenantId,
        reply: Sender<Result<()>>,
    },
    Stop,
    Shutdown,
}

/// Everything the scheduler thread waits for, on one channel: a worker's
/// completion or a command from any other thread. One inbox means one
/// blocking receive covers both, and the FIFO keeps a command ordered
/// after the completions sent before it.
enum Event {
    Done(Completion),
    Cmd(Cmd),
}

/// Builder mirroring the paper's init/declare phase.
pub struct RuntimeBuilder {
    taskset: Arc<TaskSet>,
    config: Config,
    bodies: HashMap<(TaskId, VersionId), TaskBody>,
    channels: Vec<NotifyHandle>,
    pin_offset: usize,
    lock_memory: bool,
}

impl RuntimeBuilder {
    /// Starts building a runtime for `taskset` under `config`.
    #[must_use]
    pub fn new(taskset: Arc<TaskSet>, config: Config) -> Self {
        RuntimeBuilder {
            taskset,
            config,
            bodies: HashMap::new(),
            channels: Vec::new(),
            pin_offset: 0,
            lock_memory: false,
        }
    }

    /// Opens the typed endpoints of a channel declared in the task set
    /// (`TaskSetBuilder::channel_decl` /
    /// `TaskSetBuilder::channel_decl_prioritized`) and registers its
    /// notify hook with the runtime: once built, a
    /// [`yasmin_sched::msg::Sender::send_high`] on this channel boosts
    /// the receiving task's pending job through the scheduler until the
    /// high lane drains. Capacity and element size are validated
    /// against the [`yasmin_core::channel::ChannelSpec`].
    ///
    /// Hand the [`yasmin_sched::msg::Sender`] to the producing task's
    /// body and the [`yasmin_sched::msg::Receiver`] to the consuming
    /// one (they are `Send + Sync`; capture them in the closures).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownChannel`] / [`Error::ChannelNotConnected`] for a
    /// bad id, [`Error::InvalidConfig`] when `T` does not fit the
    /// spec's element size.
    pub fn channel<T: Send>(
        &mut self,
        id: yasmin_core::ids::ChannelId,
    ) -> Result<(MsgSender<T>, MsgReceiver<T>)> {
        let (tx, rx) = yasmin_sched::msg::channel(&self.taskset, id)?;
        self.channels.push(tx.notify_handle());
        Ok((tx, rx))
    }

    /// Registers a standalone channel (built with
    /// [`yasmin_sched::ChannelBuilder`], outside the task-set graph) so
    /// its high-lane traffic reaches this runtime's scheduler.
    #[must_use]
    pub fn register_channel(mut self, handle: NotifyHandle) -> Self {
        self.channels.push(handle);
        self
    }

    /// Registers the executable body of `(task, version)`.
    #[must_use]
    pub fn body(
        mut self,
        task: TaskId,
        version: VersionId,
        f: impl Fn(&JobCtx) + Send + Sync + 'static,
    ) -> Self {
        self.bodies.insert((task, version), Arc::new(f));
        self
    }

    /// Pins worker *w* to core `offset + w` (scheduler thread to
    /// `offset + workers`), best-effort: a thread the kernel refuses to
    /// pin runs unpinned and is counted in
    /// [`RuntimeReport::unpinned_threads`] — the scheduler's, for one,
    /// whenever the host has no more cores than workers.
    #[must_use]
    pub fn pin_cores_from(mut self, offset: usize) -> Self {
        self.pin_offset = offset;
        self
    }

    /// Calls `mlockall` at start (best-effort, §3.5).
    #[must_use]
    pub fn lock_memory(mut self) -> Self {
        self.lock_memory = true;
        self
    }

    /// Validates the declarations and spawns the scheduler and worker
    /// threads. The schedule starts immediately: the scheduler thread
    /// starts the engine as its first act, so periodic tasks with a zero
    /// release offset are dispatched before `build` has returned to a
    /// slow caller. There is no separate `start` call.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] when preemption is enabled (see module
    ///   docs) or a version has no registered body;
    /// * engine construction errors (partition validation etc.).
    pub fn build(self) -> Result<Runtime> {
        if self.config.preemption() {
            return Err(Error::InvalidConfig(
                "the thread runtime schedules non-preemptively at job boundaries; \
                 build the Config with .preemption(false) (the simulator exercises \
                 preemptive configurations)"
                    .into(),
            ));
        }
        check_bodies(&self.taskset, &self.bodies)?;
        let engine = OnlineEngine::new(Arc::clone(&self.taskset), self.config.clone())?;
        if self.lock_memory {
            // Best-effort; containers commonly deny it.
            let _ = crate::os::lock_all_memory();
        }
        Runtime::spawn(self, engine)
    }
}

/// The running middleware: scheduler thread + pinned workers.
pub struct Runtime {
    inbox: Sender<Event>,
    scheduler: Option<std::thread::JoinHandle<RuntimeReport>>,
    /// Each worker returns whether it ran pinned.
    workers: Vec<std::thread::JoinHandle<bool>>,
    worker_tx: Vec<Sender<WorkerMsg>>,
    /// Tenant state; the mutex serialises admissions and retirements
    /// from concurrent callers.
    ledger: Mutex<TenantLedger>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.worker_tx.len())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    fn spawn(builder: RuntimeBuilder, mut engine: OnlineEngine) -> Result<Self> {
        let workers_n = builder.config.workers();
        let clock = Arc::new(MonotonicClock::new());
        let (inbox, inbox_rx) = bounded::<Event>(builder.config.max_pending_jobs());

        // Arm the channel notify hooks: a high-lane post/drain from any
        // thread becomes a scheduler command. Channels without a
        // declared ceiling never reach the scheduler.
        for handle in &builder.channels {
            if handle.ceiling().is_none() {
                continue;
            }
            let tx = inbox.clone();
            let _ = handle.set_notify(Arc::new(move |ev| {
                let _ = tx.send(Event::Cmd(match ev {
                    MsgEvent::HighPosted { dst, ceiling } => Cmd::MsgHigh { dst, ceiling },
                    MsgEvent::HighDrained { dst } => Cmd::MsgDrained { dst },
                }));
            }));
        }

        // Worker threads.
        let mut worker_tx = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        for w in 0..workers_n {
            let (tx, rx) = bounded::<WorkerMsg>(builder.config.max_pending_jobs());
            worker_tx.push(tx);
            let done_tx = inbox.clone();
            let clock = Arc::clone(&clock);
            let core = builder.pin_offset + w;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("yasmin-worker-{w}"))
                    .spawn(move || {
                        let pinned = crate::os::pin_current_thread(core).is_ok();
                        worker_main(&rx, &done_tx, &clock, WorkerId::new(w as u16));
                        pinned
                    })
                    .map_err(|e| Error::Os(format!("spawning worker {w}: {e}")))?,
            );
        }

        // Scheduler thread.
        let bodies = builder.bodies;
        let sched_core = builder.pin_offset + workers_n;
        let worker_tx_sched = worker_tx.clone();
        let tick = engine.tick_period();
        let ledger = TenantLedger::new(AdmissionControl::for_engine(&engine), builder.taskset);
        let scheduler = std::thread::Builder::new()
            .name("yasmin-scheduler".into())
            .spawn(move || {
                let pinned = crate::os::pin_current_thread(sched_core).is_ok();
                let mut report = scheduler_main(
                    &mut engine,
                    bodies,
                    &worker_tx_sched,
                    &inbox_rx,
                    &clock,
                    tick,
                );
                report.unpinned_threads = usize::from(!pinned);
                report
            })
            .map_err(|e| Error::Os(format!("spawning scheduler: {e}")))?;

        Ok(Runtime {
            inbox,
            scheduler: Some(scheduler),
            workers,
            worker_tx,
            ledger: Mutex::new(ledger),
        })
    }

    fn send(&self, cmd: Cmd) -> Result<()> {
        self.inbox
            .send(Event::Cmd(cmd))
            .map_err(|_| Error::ScheduleNotRunning)
    }

    /// Activates an aperiodic or sporadic task (the paper's
    /// `yas_task_activate`).
    ///
    /// # Errors
    ///
    /// [`Error::ScheduleNotRunning`] when the scheduler thread is gone.
    pub fn activate(&self, task: TaskId) -> Result<()> {
        self.send(Cmd::Activate(task))
    }

    /// Admits a new tenant into the **running** schedule.
    ///
    /// `candidate` is the tenant's task set declared in its own id
    /// space; `bodies` maps its `(task, version)` pairs (candidate-local
    /// ids) to executable bodies; `budget`, when given, caps the
    /// tenant's processor share with a per-tenant reservation server.
    ///
    /// The schedulability check ([`AdmissionControl::evaluate`], on the
    /// live tenants only — see [`TenantLedger`]) runs on the **caller's**
    /// thread — the paper's non-real-time admission path — and only an
    /// accepted tenant ever reaches the scheduler thread, which is woken
    /// by the command and splices and commits it between two engine
    /// rounds. Existing tenants' scheduling is untouched either way.
    /// Returns the assigned [`TenantId`] (use it with
    /// [`Runtime::retire`]); task ids of the tenant are its candidate
    /// ids offset by the number of tasks admitted before it.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Rejected`] names the violated analysis bound;
    /// [`AdmissionError::Invalid`] covers malformed requests (missing
    /// bodies, partition violations, a period off the running tick) and
    /// a scheduler that is no longer running.
    pub fn admit(
        &self,
        candidate: &TaskSet,
        bodies: HashMap<(TaskId, VersionId), TaskBody>,
        budget: Option<TenantBudget>,
    ) -> std::result::Result<TenantId, AdmissionError> {
        check_bodies(candidate, &bodies).map_err(AdmissionError::Invalid)?;
        let mut ledger = self.ledger.lock().expect("tenant ledger mutex poisoned");
        ledger.admit(candidate, budget.as_ref(), |admission| {
            let remapped = bodies
                .into_iter()
                .map(|((t, v), b)| ((TaskId::new(admission.task_offset + t.raw()), v), b))
                .collect();
            let (reply_tx, reply_rx) = bounded(1);
            self.send(Cmd::Admit {
                merged: Arc::clone(admission.merged),
                bodies: remapped,
                budget,
                reply: reply_tx,
            })?;
            let spliced = reply_rx.recv().map_err(|_| Error::ScheduleNotRunning)??;
            debug_assert_eq!(spliced, admission.tenant, "engine and ledger count alike");
            Ok(())
        })
    }

    /// Retires an admitted tenant: its future releases stop, its ready
    /// jobs are culled, its in-flight jobs finish without firing
    /// successors. Other tenants are untouched. Returns once the
    /// scheduler thread has applied the retirement; from then on the
    /// tenant's bandwidth is available to [`Runtime::admit`] (up to
    /// `workers` of its jobs, already executing, may still finish — see
    /// `yasmin_sched::admission`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] / [`Error::TenantRetired`] for bad ids
    /// or a double retire; [`Error::InvalidConfig`] for tenant 0 (the
    /// build-time set — use [`Runtime::stop`]);
    /// [`Error::ScheduleNotRunning`] when the scheduler is gone.
    pub fn retire(&self, tenant: TenantId) -> Result<()> {
        let mut ledger = self.ledger.lock().expect("tenant ledger mutex poisoned");
        let (reply_tx, reply_rx) = bounded(1);
        self.send(Cmd::Retire {
            tenant,
            reply: reply_tx,
        })?;
        reply_rx.recv().map_err(|_| Error::ScheduleNotRunning)??;
        ledger.retire(tenant)
    }

    /// Stops releasing new periodic jobs; in-flight jobs drain (the
    /// paper's `yas_stop`).
    pub fn stop(&self) {
        let _ = self.send(Cmd::Stop);
    }

    /// Waits for all worker threads to finish and closes (the paper's
    /// `yas_cleanup`), returning the run report.
    ///
    /// # Panics
    ///
    /// Panics if a runtime thread panicked.
    #[must_use]
    pub fn cleanup(mut self) -> RuntimeReport {
        let _ = self.send(Cmd::Shutdown);
        let mut report = self
            .scheduler
            .take()
            .expect("cleanup runs once")
            .join()
            .expect("scheduler thread panicked");
        for tx in &self.worker_tx {
            let _ = tx.send(WorkerMsg::Exit);
        }
        for w in self.workers.drain(..) {
            let pinned = w.join().expect("worker thread panicked");
            report.unpinned_threads += usize::from(!pinned);
        }
        report
    }
}

/// Verifies every version of every task of `taskset` — a build-time set,
/// or a candidate tenant in its own id space — has a registered body,
/// before any runtime thread hears of it.
pub(crate) fn check_bodies(
    taskset: &TaskSet,
    bodies: &HashMap<(TaskId, VersionId), TaskBody>,
) -> Result<()> {
    for t in taskset.tasks() {
        for (vi, _) in t.versions().iter().enumerate() {
            let key = (t.id(), VersionId::new(vi as u16));
            if !bodies.contains_key(&key) {
                return Err(Error::InvalidConfig(format!(
                    "no body registered for task {} version v{vi}",
                    t.id()
                )));
            }
        }
    }
    Ok(())
}

fn worker_main(
    rx: &Receiver<WorkerMsg>,
    done_tx: &Sender<Event>,
    clock: &Arc<MonotonicClock>,
    me: WorkerId,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Exit => break,
            WorkerMsg::Run { job, version, body } => {
                let started = clock.now();
                let ctx = JobCtx {
                    job,
                    version,
                    worker: me,
                };
                // Contain body panics on the worker: a panicking job is
                // reported as Failed instead of poisoning the thread (the
                // whole point of fault isolation — one bad tenant body
                // must not take a virtual CPU down with it). `TaskBody`
                // is not `UnwindSafe` because it is a shared closure, but
                // the runtime never observes its captured state after a
                // panic, so the assertion is sound.
                let outcome =
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx))) {
                        Ok(()) => JobOutcome::Completed,
                        Err(_) => JobOutcome::Failed,
                    };
                let completed = clock.now();
                if done_tx
                    .send(Event::Done(Completion {
                        worker: me,
                        job,
                        version,
                        started,
                        completed,
                        outcome,
                    }))
                    .is_err()
                {
                    break; // scheduler gone
                }
            }
        }
    }
}

/// Retires the completions gathered so far (possibly none) in one
/// engine round, leaving only that round's actions in `sink`, and
/// empties both batches.
fn retire_gathered(
    engine: &mut OnlineEngine,
    done: &mut Vec<(WorkerId, JobId)>,
    failed: &mut Vec<(WorkerId, JobId)>,
    at: Instant,
    sink: &mut ActionSink,
) {
    sink.clear();
    for (worker, job) in failed.drain(..) {
        engine
            .on_job_failed_into(worker, job, at, sink)
            .expect("failure protocol upheld");
    }
    if !done.is_empty() {
        engine
            .on_jobs_completed_into(done, at, sink)
            .expect("completion protocol upheld");
        done.clear();
    }
}

fn scheduler_main(
    engine: &mut OnlineEngine,
    mut bodies: HashMap<(TaskId, VersionId), TaskBody>,
    worker_tx: &[Sender<WorkerMsg>],
    inbox: &Receiver<Event>,
    clock: &Arc<MonotonicClock>,
    tick: yasmin_core::time::Duration,
) -> RuntimeReport {
    let mut records: Vec<RtJobRecord> = Vec::new();
    let mut shutting_down = false;

    // One reusable sink for every engine interaction: the scheduler
    // thread's steady-state loop performs no allocation for actions.
    let mut sink = ActionSink::new();
    // Completions pending at one wake are retired together through the
    // engine's batch API: N workers finishing close together cost one
    // dispatch round, not N.
    let mut done_batch: Vec<(WorkerId, JobId)> = Vec::with_capacity(worker_tx.len().max(4));
    // Failed (panicked) jobs retire through the failure path, one by
    // one — rare by construction, so no batch API is warranted.
    let mut failed_batch: Vec<(WorkerId, JobId)> = Vec::with_capacity(worker_tx.len().max(4));
    // `bodies` is passed explicitly (not captured) because admission
    // grows the map between rounds.
    let dispatch = |sink: &ActionSink, bodies: &HashMap<(TaskId, VersionId), TaskBody>| {
        for &a in sink.as_slice() {
            if let Action::Dispatch {
                worker,
                job,
                version,
            } = a
            {
                let body = Arc::clone(&bodies[&(job.task, version)]);
                // Bounded mailbox: a full mailbox is a protocol bug since
                // the engine never double-books a worker.
                worker_tx[worker.index()]
                    .send(WorkerMsg::Run { job, version, body })
                    .expect("worker mailbox closed");
            }
            // Preempt/Boost cannot occur: preemption is disabled.
        }
    };

    // One instant anchors both grids: the releases `start_into` arms
    // and the tick edges that dispatch them. An anchor taken after the
    // first dispatch round would make every tick of the run trail its
    // release by however long that round took.
    let t0 = clock.now();
    engine
        .start_into(t0, &mut sink)
        .expect("fresh engine starts");
    dispatch(&sink, &bodies);
    let mut next_tick = t0 + tick;

    loop {
        if shutting_down && engine.is_idle() {
            break;
        }

        // The one wait. Everything this loop acts on, and what wakes
        // it:
        //
        //  * a worker's completion      — `Event::Done` on the inbox;
        //  * `activate`, `admit`, `retire`, a high-lane post or drain,
        //    `stop`, `cleanup`          — `Event::Cmd` on the inbox,
        //                                 from the calling thread;
        //  * the tick edge              — the timeout.
        //
        // A condition added to this loop needs a line here: an event
        // on the inbox from whoever changes it, or the timeout.
        let now = clock.now();
        let timeout: std::time::Duration = if next_tick > now {
            (next_tick - now).into()
        } else {
            std::time::Duration::ZERO
        };
        let first = match inbox.recv_timeout(timeout) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => {
                // Tick edge: the timed receive has slept up to it.
                let now = clock.now();
                sink.clear();
                engine.on_tick_into(now, &mut sink);
                dispatch(&sink, &bodies);
                while next_tick <= now {
                    next_tick += tick;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };

        // Coalesce the burst: every completion already pending joins
        // one batch and one dispatch round. A command flushes the batch
        // gathered so far, so it acts on an engine that has seen every
        // completion sent before it.
        let mut last_completed = Instant::ZERO;
        let mut pending = Some(first);
        while let Some(event) = pending {
            match event {
                Event::Done(c) => {
                    last_completed = last_completed.max(c.completed);
                    match c.outcome {
                        JobOutcome::Completed => done_batch.push((c.worker, c.job.id)),
                        JobOutcome::Failed => failed_batch.push((c.worker, c.job.id)),
                    }
                    records.push(RtJobRecord {
                        job: c.job,
                        version: c.version,
                        worker: c.worker,
                        started: c.started,
                        completed: c.completed,
                        outcome: c.outcome,
                    });
                }
                Event::Cmd(cmd) => {
                    retire_gathered(
                        engine,
                        &mut done_batch,
                        &mut failed_batch,
                        last_completed,
                        &mut sink,
                    );
                    dispatch(&sink, &bodies);
                    sink.clear();
                    let now = clock.now();
                    // An engine refusal (unknown task, retired tenant,
                    // failed splice) leaves nothing to dispatch.
                    let applied = match cmd {
                        Cmd::Activate(task) => engine.activate_into(task, now, &mut sink).is_ok(),
                        Cmd::MsgHigh { dst, ceiling } => engine
                            .on_high_posted_into(dst, ceiling, now, &mut sink)
                            .is_ok(),
                        Cmd::MsgDrained { dst } => {
                            engine.on_high_drained_into(dst, now, &mut sink).is_ok()
                        }
                        Cmd::Admit {
                            merged,
                            bodies: tenant_bodies,
                            budget,
                            reply,
                        } => {
                            // Control path: allocation here is fine, the
                            // tenant is not running yet (see module docs
                            // of `yasmin_sched::admission`).
                            let tenant = TenantId::new(engine.tenant_count() as u32);
                            let server = reservation_for(tenant, budget, now);
                            // Anchor the release train at the next tick
                            // edge: this thread dispatches on a fixed
                            // tick grid, and an off-grid phase would
                            // delay every dispatch of the tenant by up
                            // to one tick.
                            let res = engine.splice_taskset(merged, server).and_then(|t| {
                                bodies.extend(tenant_bodies);
                                engine.commit_tenant_anchored_into(t, next_tick, now, &mut sink)?;
                                Ok(t)
                            });
                            let applied = res.is_ok();
                            let _ = reply.send(res);
                            applied
                        }
                        Cmd::Retire { tenant, reply } => {
                            let res = engine.retire_tenant_into(tenant, now, &mut sink);
                            let applied = res.is_ok();
                            let _ = reply.send(res);
                            applied
                        }
                        Cmd::Stop => {
                            engine.stop();
                            false
                        }
                        Cmd::Shutdown => {
                            shutting_down = true;
                            false
                        }
                    };
                    if applied {
                        dispatch(&sink, &bodies);
                    }
                }
            }
            pending = inbox.try_recv().ok();
        }
        retire_gathered(
            engine,
            &mut done_batch,
            &mut failed_batch,
            last_completed,
            &mut sink,
        );
        dispatch(&sink, &bodies);
    }

    RuntimeReport {
        records,
        engine_stats: engine.stats().clone(),
        unpinned_threads: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::within_attempts;
    #[cfg(target_os = "linux")]
    use crate::test_util::{alone_in_child, thread_sleeps};
    use std::sync::atomic::{AtomicU32, Ordering};
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::Duration;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap()
    }

    #[test]
    fn periodic_task_fires_repeatedly() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("tick", ms(5))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let count = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&count);
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(t, v, move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        let n = count.load(Ordering::SeqCst);
        // 60ms / 5ms = 12 expected; tolerate scheduling slack.
        assert!(n >= 6, "only {n} activations");
        assert_eq!(report.records.len() as u32, n);
        assert_eq!(report.engine_stats.completed as u32, n);
    }

    #[test]
    fn failed_pins_are_counted() {
        // No host has core 100 000: every thread of either runtime runs
        // unpinned and says so.
        let mut b = TaskSetBuilder::new();
        let spec = TaskSpec::periodic("t", ms(5)).on_worker(WorkerId::new(0));
        let t = b.task_decl(spec).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(Arc::clone(&ts), config(2))
            .body(t, v, |_| {})
            .pin_cores_from(100_000)
            .build()
            .unwrap();
        assert_eq!(
            rt.cleanup().unpinned_threads,
            3,
            "two workers, one scheduler"
        );
        let sharded = Config::builder()
            .workers(2)
            .mapping(yasmin_core::config::MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .preemption(false)
            .build()
            .unwrap();
        let rt = crate::sharded::ShardedRuntimeBuilder::new(ts, sharded)
            .body(t, v, |_| {})
            .pin_cores_from(100_000)
            .build()
            .unwrap();
        assert_eq!(rt.cleanup().unpinned_threads, 2, "two shards");
    }

    #[test]
    fn preemptive_config_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(5))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder().workers(1).build().unwrap(); // preemption on
        let r = RuntimeBuilder::new(ts, cfg).body(t, v, |_| {}).build();
        assert!(matches!(r, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn missing_body_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(5))).unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let r = RuntimeBuilder::new(ts, config(1)).build();
        assert!(matches!(r, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn dag_data_flows_through_spsc() {
        // fork -> join with a real typed channel captured in the bodies.
        let mut b = TaskSetBuilder::new();
        let fork = b.task_decl(TaskSpec::periodic("fork", ms(5))).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        let vf = b
            .version_decl(fork, VersionSpec::new("f", Duration::from_micros(50)))
            .unwrap();
        let vj = b
            .version_decl(join, VersionSpec::new("j", Duration::from_micros(50)))
            .unwrap();
        let ch = b.channel_decl("c", 8, 8);
        b.channel_connect(fork, join, ch).unwrap();
        let ts = Arc::new(b.build().unwrap());

        let (tx, rx) = yasmin_sync::spsc::channel::<u64>(8);
        let tx = std::sync::Mutex::new(tx);
        let rx = std::sync::Mutex::new(rx);
        let sum = Arc::new(AtomicU32::new(0));
        let sum2 = Arc::clone(&sum);

        let rt = RuntimeBuilder::new(ts, config(2))
            .body(fork, vf, move |ctx| {
                let _ = tx.lock().unwrap().push(ctx.job.seq);
            })
            .body(join, vj, move |_| {
                if let Some(v) = rx.lock().unwrap().pop() {
                    sum2.fetch_add(v as u32 + 1, Ordering::SeqCst);
                }
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(40));
        rt.stop();
        let report = rt.cleanup();
        assert!(sum.load(Ordering::SeqCst) > 0, "join never saw data");
        // Join jobs inherit the graph deadline and release.
        let join_rec = report
            .records
            .iter()
            .find(|r| r.job.task == join)
            .expect("join ran");
        assert!(join_rec.job.graph_release <= join_rec.job.release);
    }

    #[test]
    fn aperiodic_activation_runs_once() {
        let mut b = TaskSetBuilder::new();
        let p = b.task_decl(TaskSpec::periodic("p", ms(5))).unwrap();
        let a = b.task_decl(TaskSpec::aperiodic("a")).unwrap();
        let vp = b
            .version_decl(p, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let va = b
            .version_decl(a, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let rt = RuntimeBuilder::new(ts, config(2))
            .body(p, vp, |_| {})
            .body(a, va, move |_| {
                h2.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        rt.activate(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.stop();
        let _ = rt.cleanup();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tenant_admission_on_the_single_owner_runtime() {
        let mut b = TaskSetBuilder::new();
        let base = b.task_decl(TaskSpec::periodic("base", ms(5))).unwrap();
        let vb = b
            .version_decl(base, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));

        // Candidate in its own id space: one periodic task.
        let mut c = TaskSetBuilder::new();
        let t = c.task_decl(TaskSpec::periodic("tenant", ms(10))).unwrap();
        let v = c
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let cand = c.build().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
        bodies.insert(
            (t, v),
            Arc::new(move |_: &JobCtx| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let tenant = rt.admit(&cand, bodies, None).unwrap();
        assert_eq!(tenant.raw(), 1);
        std::thread::sleep(std::time::Duration::from_millis(35));
        let ran = hits.load(Ordering::SeqCst);
        assert!(ran >= 2, "admitted tenant only ran {ran} jobs");
        rt.retire(tenant).unwrap();
        assert!(matches!(rt.retire(tenant), Err(Error::TenantRetired(_))));
        std::thread::sleep(std::time::Duration::from_millis(25));
        let after = hits.load(Ordering::SeqCst);
        assert!(after <= ran + 1, "tenant kept running after retirement");
        rt.stop();
        let report = rt.cleanup();
        // The tenant's task is the merged suffix id T1; none of its jobs
        // missed a deadline.
        for r in report
            .records
            .iter()
            .filter(|r| r.job.task == TaskId::new(1))
        {
            assert!(!r.missed());
        }
    }

    #[test]
    fn oversubscribed_tenant_is_rejected() {
        let mut b = TaskSetBuilder::new();
        let base = b.task_decl(TaskSpec::periodic("base", ms(5))).unwrap();
        let vb = b.version_decl(base, VersionSpec::new("v", ms(3))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        // Base already uses 3/5 of the single worker; 3ms/5ms more
        // pushes utilisation to 1.2.
        let mut c = TaskSetBuilder::new();
        let t = c.task_decl(TaskSpec::periodic("greedy", ms(5))).unwrap();
        let v = c.version_decl(t, VersionSpec::new("v", ms(3))).unwrap();
        let cand = c.build().unwrap();
        let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
        bodies.insert((t, v), Arc::new(|_: &JobCtx| {}));
        assert!(matches!(
            rt.admit(&cand, bodies, None),
            Err(AdmissionError::Rejected(_))
        ));
        rt.stop();
        let _ = rt.cleanup();
    }

    /// A candidate tenant in its own id space: one periodic task with
    /// the given period and declared WCET, and a no-op body.
    fn candidate(
        period_ms: u64,
        wcet: Duration,
    ) -> (TaskSet, HashMap<(TaskId, VersionId), TaskBody>) {
        let mut c = TaskSetBuilder::new();
        let t = c
            .task_decl(TaskSpec::periodic("tenant", ms(period_ms)))
            .unwrap();
        let v = c.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
        bodies.insert((t, v), Arc::new(|_: &JobCtx| {}));
        (c.build().unwrap(), bodies)
    }

    #[test]
    fn retired_bandwidth_is_returned() {
        // Base U = 0.2; a U = 0.5 tenant admitted and retired three
        // times over. With the retired copies still counted the second
        // round reads `TotalUtilisation { total: 1.2 }`.
        let mut b = TaskSetBuilder::new();
        let base = b.task_decl(TaskSpec::periodic("base", ms(10))).unwrap();
        let vb = b.version_decl(base, VersionSpec::new("v", ms(2))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        for round in 1..=3 {
            let (cand, bodies) = candidate(10, ms(5));
            let tenant = rt
                .admit(&cand, bodies, None)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(tenant.raw(), round);
            // Beside the live copy a second one does not fit.
            let (cand, bodies) = candidate(10, ms(5));
            assert!(matches!(
                rt.admit(&cand, bodies, None),
                Err(AdmissionError::Rejected(_))
            ));
            rt.retire(tenant).unwrap();
        }
        rt.stop();
        let _ = rt.cleanup();
    }

    #[test]
    fn command_wakes_a_parked_scheduler() {
        // Tick 50 ms, the scheduler parked between edges: an admission,
        // a retirement, an activation and a high-lane boost must take
        // effect when they are sent — not at the next completion or
        // tick, which is when a loop that reads its commands only after
        // waking for something else would see them.
        use yasmin_core::priority::Priority;
        use yasmin_sched::ChannelBuilder;
        within_attempts(3, || {
            let mut b = TaskSetBuilder::new();
            let mut task = |spec: TaskSpec, prio: u64| {
                let t = b
                    .task_decl(spec.with_priority(Priority::new(prio)))
                    .unwrap();
                let v = b
                    .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
                    .unwrap();
                (t, v)
            };
            let (p, vp) = task(TaskSpec::periodic("p", ms(50)), 0);
            let (blocker, vblocker) = task(TaskSpec::aperiodic("blocker"), 1);
            let (mid, vmid) = task(TaskSpec::aperiodic("mid"), 2);
            let (rcv, vrcv) = task(TaskSpec::aperiodic("rcv"), 3);
            let ts = Arc::new(b.build().unwrap());
            let cfg = Config::builder()
                .workers(1)
                .priority(PriorityPolicy::UserDefined)
                .preemption(false)
                .build()
                .unwrap();
            let (tx, _rx) = ChannelBuilder::standalone("urgent", rcv)
                .high_lane(2, Priority::HIGHEST)
                .build::<u64>()
                .unwrap();

            let epoch = std::time::Instant::now();
            let blocker_at_us = Arc::new(AtomicU32::new(0));
            // Start order of `mid` and `rcv`: 1 for whoever runs first.
            let order = Arc::new(AtomicU32::new(0));
            let (mid_rank, rcv_rank) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
            let started = Arc::clone(&blocker_at_us);
            let rank = |slot: &Arc<AtomicU32>| {
                let (order, slot) = (Arc::clone(&order), Arc::clone(slot));
                move |_: &JobCtx| {
                    slot.store(order.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst)
                }
            };
            let rt = RuntimeBuilder::new(ts, cfg)
                .register_channel(tx.notify_handle())
                .body(p, vp, |_| {})
                .body(blocker, vblocker, move |_| {
                    started.store(epoch.elapsed().as_micros() as u32, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                })
                .body(mid, vmid, rank(&mid_rank))
                .body(rcv, vrcv, rank(&rcv_rank))
                .build()
                .unwrap();
            // Past the first edge's job, 40 ms short of the next edge.
            std::thread::sleep(std::time::Duration::from_millis(10));

            // `admit` and `retire` return once the scheduler thread has
            // replied, so their durations are the command round trips.
            let (cand, bodies) = candidate(50, Duration::from_micros(50));
            let t = std::time::Instant::now();
            let admitted = rt.admit(&cand, bodies, None);
            let admit_us = t.elapsed().as_micros();
            let t = std::time::Instant::now();
            let retired = admitted.as_ref().ok().map(|&tenant| rt.retire(tenant));
            let retire_us = t.elapsed().as_micros();

            let sent_us = epoch.elapsed().as_micros() as u32;
            rt.activate(blocker).unwrap();
            while blocker_at_us.load(Ordering::SeqCst) == 0
                && epoch.elapsed() < std::time::Duration::from_secs(1)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let activate_us = blocker_at_us.load(Ordering::SeqCst).saturating_sub(sent_us);
            // Both wait behind the blocker; the post lifts `rcv` over
            // `mid` only if the engine hears of it before the blocker's
            // completion hands the worker to `mid`.
            rt.activate(mid).unwrap();
            rt.activate(rcv).unwrap();
            tx.send_high(1).unwrap();
            while order.load(Ordering::SeqCst) < 2
                && epoch.elapsed() < std::time::Duration::from_secs(1)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            rt.stop();
            let report = rt.cleanup();

            admitted.expect("a light tenant on the running tick is admitted");
            retired
                .expect("admitted")
                .expect("the tenant just admitted retires");
            assert!(
                blocker_at_us.load(Ordering::SeqCst) > 0,
                "activation never ran"
            );
            assert_eq!(order.load(Ordering::SeqCst), 2, "mid and rcv both ran");
            if admit_us >= 5_000 || retire_us >= 5_000 || activate_us >= 5_000 {
                return Err(format!(
                    "admit took {admit_us} µs, retire {retire_us} µs, activation {activate_us} µs"
                ));
            }
            if rcv_rank.load(Ordering::SeqCst) != 1 {
                return Err(format!(
                    "the boost came too late: mid ran before rcv ({} boosts counted)",
                    report.engine_stats.msg_boosts
                ));
            }
            Ok(())
        });
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_scheduler_stays_parked() {
        // The command wake must be an event, not a poll: over 300 ms of
        // a 50 ms schedule the scheduler thread blocks a few times per
        // tick (timed receive, the sleep before the spin window, the
        // job's completion), where a polling loop blocks thousands of
        // times. Same bound as `sharded::tests::idle_threads_stay_parked`.
        if !alone_in_child("runtime::tests::idle_scheduler_stays_parked") {
            return;
        }
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(50))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(t, v, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let names = ["yasmin-schedule", "yasmin-worker-"];
        let before = thread_sleeps(&names);
        std::thread::sleep(std::time::Duration::from_millis(300));
        let after = thread_sleeps(&names);
        rt.stop();
        let report = rt.cleanup();
        assert!(report.records.len() >= 5, "the schedule ran meanwhile");
        assert_eq!(before.len(), 2, "one scheduler and one worker thread");
        for (tid, (name, sleeps_before)) in &before {
            let (_, sleeps_after) = after[tid];
            let slept = sleeps_after - sleeps_before;
            assert!(
                slept <= 30,
                "{name} (tid {tid}) blocked {slept} times in 300 ms of a 50 ms schedule"
            );
        }
    }

    #[test]
    fn latency_is_sane() {
        // Wake-up latency on this host should be far below one period.
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(10))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(20)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(t, v, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        rt.stop();
        let report = rt.cleanup();
        assert!(report.records.len() >= 3);
        for r in &report.records {
            assert!(
                r.start_latency() < ms(10),
                "latency {} exceeds the period",
                r.start_latency()
            );
            assert!(!r.missed(), "missed deadline in an idle host run");
        }
    }
}
