//! Engine shards: one scheduler per worker under partitioned mapping
//! (Fig. 1b), cross-shard activation routing and work stealing.
//!
//! Under [`MappingScheme::Partitioned`] every worker already has its own
//! ready queue, yet one whole-system [`OnlineEngine`] funnels all of
//! them through one owner. A **shard is an [`OnlineEngine`]** that owns
//! exactly one worker — its own [`crate::ReadyQueue`], running slot,
//! rank cache and scratch buffers — with **zero mutable state shared
//! between shards** (the task set is shared through an `Arc`).
//! [`EngineShard::build_all`] validates the sharding contract once and
//! builds one per worker; an [`EngineShard`] dereferences to its
//! engine, so every scheduling call is [`OnlineEngine`]'s own `*_into`
//! API, reporting the shard's **global** [`WorkerId`] in every action.
//!
//! ## What may cross shards, and how
//!
//! * **DAG edges** may span workers. An edge's activation-token state
//!   is owned by the shard owning the edge's *destination* task; a
//!   completion whose out-edge points at a foreign destination lands in
//!   the shard's **outbox** as a [`crate::engine::RemoteActivation`],
//!   which the driver drains ([`OnlineEngine::drain_outbox_into`]) and
//!   routes to the owner ([`Input::Token`](crate::Input::Token)). Only the
//!   destination's owner ever touches an edge's tokens, so two shards
//!   never race on them — ownership, not exclusion.
//! * **Ready jobs** may migrate once, via work stealing. A stolen job
//!   runs and completes on the thief, under the thief's [`WorkerId`];
//!   its successors are routed by destination ownership, as above.
//!
//! ## The steal protocol
//!
//! One exchange moves up to [`crate::MAX_STEAL_BATCH`] jobs; a "single
//! steal" is the batch of one (`k = 1`), not a protocol of its own.
//! The thief asks for `k` jobs (sized from the load gap on the
//! `yasmin_sync::steal::LoadBoard`). The victim's driver collects up to
//! `k` hints, most urgent first and stopping at the first job that must
//! not migrate ([`Input::Lend`](crate::Input::Lend), a non-mutating
//! scan), and detaches the still-fresh ones into a plain
//! [`crate::JobBatch`] ([`Input::Lend`](crate::Input::Lend)) —
//! atomically with respect to its own scheduling, since the driver owns
//! the shard. The batch lands on the thief in one piece, which adopts
//! it with **one dispatch round for all of it**
//! ([`Input::Adopt`](crate::Input::Adopt)). [`OnlineEngine::steal_hint`]
//! is the O(1) "is my most urgent job stealable" probe a driver
//! advertises its load by; it never grants.
//!
//! That is the exchange as the simulator's sharded driver runs it
//! (`yasmin_sim::par`), where a victim answers in the same virtual
//! instant. A victim on a real thread is inside a body when it is
//! asked, so `yasmin-rt` makes the same engine calls in another order:
//! the victim detaches what it can spare *before* each body and lays it
//! out on a `yasmin_sync::shelf`, thieves take from there without
//! asking, and after the body [`Input::Returned`](crate::Input::Returned) puts
//! back what nobody took.
//!
//! **Migrate-at-most-once** is enforced on both sides: the victim's
//! scan refuses jobs whose task is not homed on its own worker (jobs it
//! adopted itself), and the thief's adopt rejects any batch containing
//! a job its shard already owns. Budgets follow the tenant: a stolen
//! job charges the **thief's** replica of its tenant's reservation
//! server, at dispatch.
//!
//! **One instance at a time.** A job that leaves its home's queue for a
//! thief is *in flight* there until its end is home: the thief's engine
//! leaves a [`crate::HomeNote`] when it retires or culls the job, which
//! the driver drains ([`OnlineEngine::drain_homeward_into`]) and routes
//! to the home ([`Input::Home`](crate::Input::Home)) as it routes the
//! outbox. Meanwhile the home neither dispatches nor hands out another
//! instance of the task, so no two instances of one task ever run side
//! by side, wherever each runs.
//!
//! **Kept instances.** A shard about to enter a body may also offer the
//! next instance of each single-input task whose token a peer may
//! produce meanwhile ([`Input::Offer`](crate::Input::Offer)); the peer
//! that completes the predecessor keeps it ([`OnlineEngine::keepable`],
//! [`Input::Kept`](crate::Input::Kept)) instead of routing the token, and the
//! home books it when its body ends ([`Input::Booked`](crate::Input::Booked)). How
//! the offer and the claim meet is the driver's: `yasmin-rt` puts them
//! on a `yasmin_sync::door`; `yasmin_sim::par`, whose victims answer in
//! the instant they are asked, never keeps.
//!
//! ## What cannot cross shards, and why
//!
//! * **Accelerator bindings.** [`validate_sharding`] rejects a task set
//!   whose accelerator is used from more than one worker, and no job of
//!   a task with an accelerator-bound version is ever hinted for
//!   stealing: each shard arbitrates its accelerators locally, so a
//!   migrated user would let two shards grant one device concurrently.
//! * **Worker slots.** A shard dispatches onto exactly its own worker;
//!   stealing moves the *job* to the thief's shard, so the "one owner
//!   per running slot" invariant survives.
//!
//! Job ids carry the shard's worker index in their high bits, so they
//! stay unique across shards numbering concurrently and meaningful when
//! a job migrates; per-task sequence numbers (`Job::seq`) equal the
//! single-owner engine's, which is what trace cross-checks compare on.

use crate::engine::{OnlineEngine, RunningJob};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{TaskId, WorkerId};

/// Checks the sharding contract for `taskset` under `config` (module
/// docs): `Config::sharded_dispatch` is on, every task is assigned to
/// an existing worker, and no accelerator is used from two workers.
/// DAG edges may cross shards.
///
/// # Errors
///
/// [`Error::InvalidConfig`] naming the violated rule;
/// [`Error::MissingPartition`] / [`Error::UnknownWorker`] for a task.
pub fn validate_sharding(taskset: &TaskSet, config: &Config) -> Result<()> {
    if !config.sharded_dispatch() {
        return Err(Error::InvalidConfig(
            "enable Config::sharded_dispatch to build engine shards".into(),
        ));
    }
    debug_assert_eq!(config.mapping(), MappingScheme::Partitioned);
    let assigned = |t: TaskId| taskset.partition_of(t, config.workers());
    for e in taskset.edges() {
        // Both endpoints assigned and in range; the edge may cross.
        let _ = (assigned(e.src)?, assigned(e.dst)?);
    }
    let mut accel_owner = vec![None; taskset.accels().len()];
    for t in taskset.tasks() {
        let w = assigned(t.id())?;
        for v in t.versions() {
            if let Some(a) = v.accel() {
                match accel_owner[a.index()] {
                    None => accel_owner[a.index()] = Some(w),
                    Some(prev) if prev == w => {}
                    Some(prev) => {
                        return Err(Error::InvalidConfig(format!(
                            "accelerator {a} is used from workers {prev} and {w}: \
                             shards arbitrate accelerators independently"
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// An [`OnlineEngine`] known to be a shard. Dereferences to the engine
/// — every scheduling call is the engine's own — and keeps what only a
/// shard can answer without an argument: which worker it is.
#[derive(Debug)]
pub struct EngineShard(OnlineEngine);

impl EngineShard {
    /// Builds one shard per worker, indexed by worker, validating the
    /// sharding contract once for the whole set.
    ///
    /// # Errors
    ///
    /// See [`validate_sharding`] and [`OnlineEngine::new`].
    pub fn build_all(taskset: &Arc<TaskSet>, config: &Config) -> Result<Vec<EngineShard>> {
        validate_sharding(taskset, config)?;
        (0..config.workers())
            .map(|w| {
                let worker = WorkerId::new(w as u16);
                OnlineEngine::new_shard(Arc::clone(taskset), config.clone(), worker)
                    .map(EngineShard)
            })
            .collect()
    }

    /// The worker this shard owns.
    #[must_use]
    pub fn worker(&self) -> WorkerId {
        self.0.shard_worker().expect("built by new_shard")
    }

    /// What the shard's worker is currently executing.
    #[must_use]
    pub fn running(&self) -> Option<&RunningJob> {
        self.0.running(self.worker())
    }

    /// Unwraps the engine, for drivers that own it by value.
    #[must_use]
    pub fn into_inner(self) -> OnlineEngine {
        self.0
    }
}

impl Deref for EngineShard {
    type Target = OnlineEngine;

    fn deref(&self) -> &OnlineEngine {
        &self.0
    }
}

impl DerefMut for EngineShard {
    fn deref_mut(&mut self) -> &mut OnlineEngine {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Action, EngineStats, RemoteActivation};
    use crate::input::Input;
    use crate::job::{JobBatch, MAX_STEAL_BATCH};
    use crate::server::TenantBudget;
    use crate::sink::ActionSink;
    use yasmin_core::graph::Slot;
    use yasmin_core::ids::{JobId, TenantId};
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::{Duration, Instant};
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: u64) -> Instant {
        Instant::from_nanos(v * 1_000_000)
    }

    /// What one [`Input::Lend`] of up to `k` detaches from `shard`.
    fn lend(shard: &mut EngineShard, k: usize) -> JobBatch {
        let mut sink = ActionSink::new();
        shard
            .apply(Instant::ZERO, &Input::Lend { k }, &mut sink)
            .unwrap();
        let lent = |a: &Action| match *a {
            Action::Lend { job } => job,
            other => panic!("{other:?}"),
        };
        sink.iter().map(lent).collect()
    }

    /// [`Input::Commit`] of `tenant`.
    fn commit(tenant: TenantId, anchor: Instant, since: Instant) -> Input<'static> {
        Input::Commit {
            tenant,
            anchor,
            since,
        }
    }

    fn partitioned_config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    }

    /// Two workers, two tasks each.
    fn two_worker_set() -> Arc<TaskSet> {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for (name, period, w) in [("a0", 10, 0), ("a1", 20, 0), ("b0", 10, 1), ("b1", 40, 1)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(period)).on_worker(WorkerId::new(w)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(2))).unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn build_all_yields_one_shard_per_worker() {
        let shards = EngineShard::build_all(&two_worker_set(), &partitioned_config(2)).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].worker(), WorkerId::new(0));
        assert_eq!(shards[1].worker(), WorkerId::new(1));
        assert_eq!(shards[0].tick_period(), shards[1].tick_period());
    }

    #[test]
    fn requires_sharded_dispatch_opt_in() {
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .build()
            .unwrap();
        assert!(matches!(
            EngineShard::build_all(&two_worker_set(), &cfg),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn shards_release_only_their_own_tasks_with_global_worker_ids() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        for shard in &mut shards {
            sink.clear();
            shard
                .apply(Instant::ZERO, &Input::Start, &mut sink)
                .unwrap();
            assert_eq!(sink.len(), 1, "one dispatch per shard worker");
            match sink.as_slice()[0] {
                Action::Dispatch { worker, job, .. } => {
                    assert_eq!(worker, shard.worker(), "global id in actions");
                    assert_eq!(
                        ts.tasks()[job.task.index()].spec().assigned_worker(),
                        Some(shard.worker())
                    );
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(shard.ready_len(), 1, "second own task queued");
        }
    }

    #[test]
    fn job_ids_are_disjoint_across_shards() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        let mut ids = Vec::new();
        for shard in &mut shards {
            sink.clear();
            shard
                .apply(Instant::ZERO, &Input::Start, &mut sink)
                .unwrap();
            ids.push(shard.running().unwrap().job.id);
        }
        assert_ne!(ids[0], ids[1]);
        assert_eq!(ids[1].raw() >> 48, 1, "shard index in the high bits");
    }

    #[test]
    fn foreign_completion_and_activation_rejected() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        let job = shards[0].running().unwrap().job.id;
        // Completion reported by the wrong worker id.
        assert!(shards[0]
            .apply(
                at(1),
                &Input::Completed(&[(WorkerId::new(1), job)]),
                &mut sink
            )
            .is_err());
        // Activation of a task owned by the other shard.
        let foreign = ts
            .tasks()
            .iter()
            .find(|t| t.spec().assigned_worker() == Some(WorkerId::new(1)))
            .unwrap()
            .id();
        assert!(shards[0]
            .apply(at(1), &Input::Activate(foreign), &mut sink)
            .is_err());
    }

    #[test]
    fn a_shard_runs_the_full_cycle() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let shard = &mut shards[0];
        let mut sink = ActionSink::new();
        shard
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        let first = shard.running().unwrap().job;
        let worker = shard.worker();
        sink.clear();
        shard
            .apply(at(2), &Input::Completed(&[(worker, first.id)]), &mut sink)
            .unwrap();
        assert_eq!(sink.len(), 1, "next own task dispatches");
        sink.clear();
        shard
            .apply(at(10), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_eq!(shard.stats().released, 3, "period-10 task re-released");
        shard.apply(at(10), &Input::Stop, &mut sink).unwrap();
        sink.clear();
        shard
            .apply(at(20), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        assert_eq!(shard.stats().released, 3, "no releases after stop");
    }

    #[test]
    fn batched_completion_matches_sequential_on_a_shard() {
        let ts = two_worker_set();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let shard = &mut shards[0];
        let mut sink = ActionSink::new();
        shard
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        let first = shard.running().unwrap().job.id;
        let worker = shard.worker();
        sink.clear();
        shard
            .apply(at(2), &Input::Completed(&[(worker, first)]), &mut sink)
            .unwrap();
        assert_eq!(sink.len(), 1, "next own task dispatches from the batch");
        // A batch naming a foreign worker is a protocol error.
        let second = shard.running().unwrap().job.id;
        assert!(shard
            .apply(
                at(3),
                &Input::Completed(&[(WorkerId::new(1), second)]),
                &mut sink
            )
            .is_err());
    }

    /// src (periodic, worker 0) -> dst (graph node, worker 1).
    fn cross_shard_pipeline() -> (Arc<TaskSet>, TaskId, TaskId) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
            .unwrap();
        b.version_decl(src, VersionSpec::new("s", ms(1))).unwrap();
        b.version_decl(dst, VersionSpec::new("d", ms(1))).unwrap();
        let c = b.channel_decl("c", 1, 1);
        b.channel_connect(src, dst, c).unwrap();
        (Arc::new(b.build().unwrap()), src, dst)
    }

    #[test]
    fn cross_shard_edge_routes_through_the_outbox() {
        let (ts, src, dst) = cross_shard_pipeline();
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        shards[1]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        assert_eq!(sink.len(), 1, "only src dispatches at start");
        let s = shards[0].running().unwrap().job.id;
        sink.clear();
        shards[0]
            .apply(
                at(1),
                &Input::Completed(&[(WorkerId::new(0), s)]),
                &mut sink,
            )
            .unwrap();
        assert!(
            !sink
                .as_slice()
                .iter()
                .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == dst)),
            "the successor must not fire on the src shard"
        );
        let mut outbox = Vec::new();
        shards[0].drain_outbox_into(&mut outbox);
        assert_eq!(outbox.len(), 1);
        let mut again = Vec::new();
        shards[0].drain_outbox_into(&mut again);
        assert!(again.is_empty(), "outbox drained");
        let ra = outbox[0];
        assert_eq!(ra.worker, WorkerId::new(1));
        assert_eq!(ra.graph_release, Instant::ZERO);
        assert_eq!(ts.edges()[ra.edge as usize].src, src);
        assert_eq!(shards[0].stats().cross_activations, 1);

        // Route it (what a driver does) to the owning shard.
        sink.clear();
        shards[1]
            .apply(at(1), &Input::Token(ra), &mut sink)
            .unwrap();
        match sink.as_slice()[0] {
            Action::Dispatch { worker, job, .. } => {
                assert_eq!(worker, WorkerId::new(1));
                assert_eq!(job.task, dst);
                assert_eq!(
                    job.graph_release,
                    Instant::ZERO,
                    "join inherits the root release"
                );
            }
            other => panic!("{other:?}"),
        }
        // Routing it to the wrong shard is a protocol error.
        assert!(shards[0]
            .apply(at(1), &Input::Token(ra), &mut sink)
            .is_err());
        let stray = RemoteActivation { edge: 999, ..ra };
        assert!(shards[1]
            .apply(at(1), &Input::Token(stray), &mut sink)
            .is_err());
    }

    #[test]
    fn a_message_event_is_refused_by_a_shard_not_owning_its_task() {
        use crate::msg::MsgEvent;
        use yasmin_core::priority::Priority;
        let mut shards = EngineShard::build_all(&two_worker_set(), &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        let b0 = TaskId::new(2);
        let post = MsgEvent::HighPosted {
            dst: b0,
            ceiling: Priority::HIGHEST,
        };
        assert!(matches!(
            shards[0].apply(at(1), &Input::Msg(post), &mut sink),
            Err(Error::InvalidConfig(_))
        ));
        shards[1]
            .apply(at(1), &Input::Msg(post), &mut sink)
            .unwrap();
        assert_eq!(shards[1].active_msg_ceiling(b0), Some(Priority::HIGHEST));
    }

    #[test]
    fn a_steal_of_one_is_a_batch_of_one() {
        // Both tasks live on worker 0; worker 1's shard is idle.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for name in ["a0", "a1"] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(10)).on_worker(WorkerId::new(0)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(2))).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        shards[1]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        assert!(shards[1].is_idle());
        assert_eq!(
            shards[0].ready_len(),
            1,
            "one job queued behind the running one"
        );

        // The O(1) probe and a lend of one name the same job.
        let top = shards[0].steal_hint().expect("victim has a stealable job");
        let batch = lend(&mut shards[0], 1);
        assert_eq!(batch, [top]);
        let job = batch.as_slice()[0];
        assert_eq!(shards[0].ready_len(), 0);
        assert_eq!(shards[0].stats().donated, 1);
        assert!(shards[0].steal_hint().is_none(), "nothing left to offer");

        sink.clear();
        shards[1]
            .apply(at(1), &Input::Adopt(batch.as_slice()), &mut sink)
            .unwrap();
        match sink.as_slice()[0] {
            Action::Dispatch { worker, job: j, .. } => {
                assert_eq!(worker, WorkerId::new(1), "thief reports its global id");
                assert_eq!(j.id, job.id);
            }
            other => panic!("{other:?}"),
        }
        // One job, and one exchange booked in the length-1 bucket.
        assert_eq!(shards[1].stats().stolen, 1);
        assert_eq!(shards[1].stats().stolen_batch, 1);
        assert_eq!(shards[1].stats().steal_batch_len[0], 1);
        // The stolen job completes on the thief like any local job.
        sink.clear();
        shards[1]
            .apply(
                at(2),
                &Input::Completed(&[(WorkerId::new(1), job.id)]),
                &mut sink,
            )
            .unwrap();
        assert_eq!(shards[1].stats().completed, 1);
        // Nothing is left to lend.
        assert!(lend(&mut shards[0], 1).is_empty());
        // Adopting a job the shard already owns is a protocol error.
        assert!(shards[0]
            .apply(at(2), &Input::Adopt(&[job]), &mut sink)
            .is_err());
    }

    /// The guest tenant: two 40 ms tasks of 4 ms on worker 0.
    fn guest() -> TaskSet {
        let mut g = yasmin_core::graph::TaskSetBuilder::new();
        for name in ["g0", "g1"] {
            let t = g
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(WorkerId::new(0)))
                .unwrap();
            g.version_decl(t, VersionSpec::new(name, ms(4))).unwrap();
        }
        g.build().unwrap()
    }

    /// One 40 ms base task per worker, both shards started, plus a
    /// [`guest`] tenant spliced and committed on
    /// both with a 6 ms / 40 ms deferrable budget: capacity for one
    /// guest WCET on a replica, not for two. Worker 0 runs its base
    /// task with both guest jobs queued behind it; worker 1 has finished
    /// its own and idles — the steal scenario.
    fn idle_thief_beside_two_budgeted_guest_jobs() -> (Vec<EngineShard>, TenantId) {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for (name, w) in [("base0", 0), ("base1", 1)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(WorkerId::new(w)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(1))).unwrap();
        }
        let live = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&live, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        shards[1]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();

        let merged = Arc::new(live.extended(&guest()).unwrap());
        // Every shard splices its own server replica.
        let budget = Some(TenantBudget::deferrable(ms(6), ms(40)));
        let tenant = TenantId::new(1);
        for s in &mut shards {
            let install = Input::Install {
                merged: &merged,
                tenant,
                first_task: 2,
                budget,
            };
            s.apply(Instant::ZERO, &install, &mut sink).unwrap();
            let (anchor, since) = (Instant::ZERO, Instant::ZERO);
            let commit = Input::Commit {
                tenant,
                anchor,
                since,
            };
            s.apply(Instant::ZERO, &commit, &mut sink).unwrap();
            s.apply(Instant::ZERO, &Input::Tick { done: &[] }, &mut sink)
                .unwrap();
        }
        assert_eq!(shards[0].ready_len(), 2);
        let b1 = shards[1].running().expect("base1 runs").job.id;
        shards[1]
            .apply(
                at(1),
                &Input::Completed(&[(WorkerId::new(1), b1)]),
                &mut sink,
            )
            .unwrap();
        assert!(shards[1].is_idle());
        (shards, tenant)
    }

    /// One exchange of up to `k` jobs from shard 0 to shard 1 at `now`;
    /// returns the jobs that moved.
    fn steal(
        shards: &mut [EngineShard],
        k: usize,
        now: Instant,
        sink: &mut ActionSink,
    ) -> JobBatch {
        let batch = lend(&mut shards[0], k);
        sink.clear();
        shards[1]
            .apply(now, &Input::Adopt(batch.as_slice()), sink)
            .unwrap();
        batch
    }

    /// Migrating cannot mint budget: with the first stolen guest job
    /// charged (4 of 6 ms) and completed, the thief's replica refuses
    /// the second 4 ms charge and the job defers instead of running.
    fn second_guest_job_defers_on_the_thief(
        shards: &mut [EngineShard],
        tenant: TenantId,
        first: JobId,
        sink: &mut ActionSink,
    ) {
        shards[1]
            .apply(at(5), &Input::Completed(&[(WorkerId::new(1), first)]), sink)
            .unwrap();
        assert!(
            shards[1].running().is_none(),
            "deferred job must not dispatch"
        );
        assert_eq!(shards[1].ready_len(), 1, "it stays queued instead");
        assert!(shards[1].stats().budget_deferrals >= 1);
        let thief = shards[1].tenant_server(tenant).expect("replica spliced");
        assert_eq!(
            thief.total_charged(),
            ms(4),
            "no charge beyond the replica's capacity"
        );
    }

    #[test]
    fn stolen_job_charges_the_thief_shard_tenant_replica() {
        let (mut shards, tenant) = idle_thief_beside_two_budgeted_guest_jobs();
        let mut sink = ActionSink::new();
        let first = steal(&mut shards, 1, at(1), &mut sink).as_slice()[0];
        assert!(
            matches!(sink.as_slice()[0], Action::Dispatch { job: j, .. } if j.id == first.id),
            "{:?}",
            sink.as_slice()
        );
        // The dispatch charged the *thief's* replica with the guest
        // version's WCET; the victim's replica is untouched (its guest
        // job is still queued behind base0).
        let thief = shards[1].tenant_server(tenant).expect("replica spliced");
        assert_eq!(thief.total_charged(), ms(4));
        let victim = shards[0].tenant_server(tenant).expect("replica spliced");
        assert_eq!(victim.total_charged(), Duration::ZERO);

        // The second guest job follows in an exchange of its own.
        assert_eq!(steal(&mut shards, 1, at(2), &mut sink).len(), 1);
        second_guest_job_defers_on_the_thief(&mut shards, tenant, first.id, &mut sink);

        // A heir's budget is its own. The guest, its thief replica
        // spent and deferring, is retired; a budgeted heir takes its slot
        // and starts with a full budget and no deferral on every shard.
        let slot = Slot {
            first_task: 2,
            task_count: 2,
            ..Slot::default()
        };
        let heir = Arc::new(shards[0].taskset().placed(&guest(), slot).unwrap());
        let budget = TenantBudget::deferrable(ms(6), ms(40));
        let budgeted = TenantId::new(2);
        for s in &mut shards {
            s.apply(at(6), &Input::Retire(tenant), &mut sink).unwrap();
            let install = Input::Install {
                merged: &heir,
                tenant: budgeted,
                first_task: 2,
                budget: Some(budget),
            };
            s.apply(at(6), &install, &mut sink).unwrap();
            // Nothing charged to it yet: its budget is full.
            let fresh = s.tenant_server(budgeted).expect("the heir's own server");
            assert_eq!(fresh.total_charged(), Duration::ZERO);
            assert_eq!(fresh.deferral_count(), 0);
            let commit = Input::Commit {
                tenant: budgeted,
                anchor: at(40),
                since: at(6),
            };
            s.apply(at(6), &commit, &mut sink).unwrap();
            s.apply(at(6), &Input::Retire(budgeted), &mut sink).unwrap();
        }
        // An heir without a budget is never deferred: both of its 4 ms
        // jobs run on worker 0, where a 6 ms budget would defer one.
        let unbudgeted = TenantId::new(3);
        for s in &mut shards {
            let install = Input::Install {
                merged: &heir,
                tenant: unbudgeted,
                first_task: 2,
                budget: None,
            };
            s.apply(at(6), &install, &mut sink).unwrap();
            assert!(s.tenant_server(unbudgeted).is_none());
        }
        let base0 = shards[0].running().expect("base0 still runs").job.id;
        shards[0]
            .apply(
                at(7),
                &Input::Completed(&[(WorkerId::new(0), base0)]),
                &mut sink,
            )
            .unwrap();
        let deferrals = shards[0].stats().budget_deferrals;
        shards[0]
            .apply(at(40), &commit(unbudgeted, at(40), at(40)), &mut sink)
            .unwrap();
        shards[0]
            .apply(at(40), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        let mut ran = Vec::new();
        while let Some(r) = shards[0].running() {
            let (job, done) = (r.job, at(41 + 5 * ran.len() as u64));
            ran.push(job.task);
            shards[0]
                .apply(
                    done,
                    &Input::Completed(&[(WorkerId::new(0), job.id)]),
                    &mut sink,
                )
                .unwrap();
        }
        assert_eq!(ran.len(), 3, "base0 and both of the heir's jobs: {ran:?}");
        assert_eq!(shards[0].stats().budget_deferrals, deferrals);
    }

    #[test]
    fn accel_bound_tasks_are_never_hinted_for_stealing() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        for (name, accel) in [("plain", false), ("gpu0", true), ("gpu1", true)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(10)).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = VersionSpec::new(name, ms(1));
            let v = if accel { v.with_accel(gpu) } else { v };
            b.version_decl(t, v).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        // EDF ties break by release then id: the running job is "plain",
        // the queue holds gpu0 then gpu1 — both accelerator-bound.
        assert_eq!(shards[0].ready_len(), 2);
        assert!(
            shards[0].steal_hint().is_none(),
            "accelerator-bound jobs never migrate"
        );
        assert!(lend(&mut shards[0], 8).is_empty());
    }

    #[test]
    fn batch_steal_cycle_moves_k_jobs_in_one_exchange() {
        // Five tasks on worker 0: one runs, four queue — all stealable.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for i in 0..5u64 {
            let t = b
                .task_decl(
                    TaskSpec::periodic(format!("a{i}"), ms(10 * (i + 1)))
                        .on_worker(WorkerId::new(0)),
                )
                .unwrap();
            b.version_decl(t, VersionSpec::new(format!("a{i}"), ms(1)))
                .unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        shards[1]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        assert_eq!(shards[0].ready_len(), 4);
        assert!(shards[1].is_idle());

        // A lend of two takes a prefix; given back, the queue is intact.
        let two = lend(&mut shards[0], 2);
        assert_eq!(two.len(), 2);
        shards[0]
            .apply(at(0), &Input::Returned(&two), &mut sink)
            .unwrap();
        assert_eq!(shards[0].ready_len(), 4);

        // Up to 8: the victim lends all four ready jobs, most urgent
        // first (EDF: ascending deadline).
        let batch = lend(&mut shards[0], 8);
        assert_eq!(batch.len(), 4);
        assert!(
            batch.windows(2).all(|w| w[0].priority <= w[1].priority),
            "lent in ascending key order"
        );
        assert_eq!(&batch[..2], &two[..]);
        assert_eq!(shards[0].ready_len(), 0);
        assert_eq!(shards[0].stats().donated, 4);
        // Nothing is left to lend.
        assert!(lend(&mut shards[0], 8).is_empty());

        // One exchange lands all four on the thief.
        sink.clear();
        shards[1]
            .apply(at(1), &Input::Adopt(batch.as_slice()), &mut sink)
            .unwrap();
        let dispatches = sink
            .as_slice()
            .iter()
            .filter(|a| matches!(a, Action::Dispatch { .. }))
            .count();
        assert_eq!(dispatches, 1, "one dispatch round for the whole batch");
        assert_eq!(shards[1].stats().stolen, 4);
        assert_eq!(shards[1].stats().stolen_batch, 1);
        assert_eq!(shards[1].stats().steal_batch_len[3], 1, "len-4 bucket");
        assert_eq!(shards[1].ready_len(), 3);
        match sink.as_slice()[0] {
            Action::Dispatch { worker, job, .. } => {
                assert_eq!(worker, WorkerId::new(1), "thief reports its global id");
                assert_eq!(job.id, batch.as_slice()[0].id, "most urgent runs first");
            }
            other => panic!("{other:?}"),
        }

        // Migrate-at-most-once: the thief never re-offers adopted jobs.
        assert!(lend(&mut shards[1], 8).is_empty());
        assert!(shards[1].steal_hint().is_none());

        // A batch containing a job the shard already owns is rejected
        // whole — nothing enqueued.
        let own = batch.as_slice()[1];
        assert!(shards[0]
            .apply(at(2), &Input::Adopt(&[own]), &mut sink)
            .is_err());
        assert_eq!(shards[0].stats().stolen, 0);
        // An empty batch is a no-op, not an error.
        shards[1]
            .apply(at(2), &Input::Adopt(&[]), &mut sink)
            .unwrap();
        assert_eq!(shards[1].stats().stolen_batch, 1);
    }

    #[test]
    fn one_exchange_detaches_at_most_max_steal_batch_jobs() {
        // p0 runs, nine jobs queue. A lend of nine detaches the first
        // eight; the ninth job stays queued.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for i in 0..=MAX_STEAL_BATCH as u64 + 1 {
            let spec = TaskSpec::periodic(format!("p{i}"), ms(10 * (i + 1)));
            let t = b.task_decl(spec.on_worker(WorkerId::new(0))).unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        assert_eq!(shards[0].ready_len(), MAX_STEAL_BATCH + 1);
        // The lend stops at the cap, most urgent first.
        let top = shards[0].steal_hint().expect("the first job");
        let batch = lend(&mut shards[0], MAX_STEAL_BATCH + 1);
        assert_eq!(batch.len(), MAX_STEAL_BATCH);
        assert_eq!(batch[0], top);
        assert_eq!(shards[0].ready_len(), 1);
    }

    #[test]
    fn returned_jobs_are_queued_as_if_they_had_never_left() {
        // p0 runs, p1..p4 queue. Detach all four, let a thief have the
        // second, return the other three: the victim then runs p1, p3,
        // p4 in that order and has donated exactly one job.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for i in 0..5u64 {
            let spec = TaskSpec::periodic(format!("p{i}"), ms(10 * (i + 1)));
            let t = b.task_decl(spec.on_worker(WorkerId::new(0))).unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        let jobs = lend(&mut shards[0], 8);
        assert_eq!(jobs.len(), 4);
        // Returned out of order on purpose: the key decides, not the
        // order of the pushes.
        let unclaimed = [jobs[3], jobs[0], jobs[2]];
        shards[0]
            .apply(at(0), &Input::Returned(&unclaimed), &mut sink)
            .unwrap();
        assert_eq!(shards[0].stats().donated, 1);
        assert_eq!(shards[0].ready_len(), 3);
        let mut ran = Vec::new();
        while let Some(running) = shards[0].running() {
            let id = running.job.id;
            ran.push(id);
            shards[0]
                .apply(
                    at(1),
                    &Input::Completed(&[(WorkerId::new(0), id)]),
                    &mut sink,
                )
                .unwrap();
        }
        assert_eq!(ran[1..], [jobs[0].id, jobs[2].id, jobs[3].id]);
    }

    #[test]
    fn batch_scan_stops_at_the_first_non_stealable_job() {
        // EDF order on worker 0's queue: p1 (deadline 20) < gpu (40) <
        // p2 (80). The scan must offer p1 and stop at gpu — it may not
        // skip over the pinned job to reach p2.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        for (name, period, accel) in [
            ("p0", 10, false),
            ("p1", 20, false),
            ("g", 40, true),
            ("p2", 80, false),
        ] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(period)).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = VersionSpec::new(name, ms(1));
            let v = if accel { v.with_accel(gpu) } else { v };
            b.version_decl(t, v).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        assert_eq!(shards[0].ready_len(), 3, "p0 runs; p1, g, p2 queue");
        let lent = lend(&mut shards[0], 8);
        assert_eq!(lent.len(), 1);
        assert_eq!(ts.tasks()[lent[0].task.index()].spec().name(), "p1");
    }

    #[test]
    fn stolen_batch_charges_the_thief_replica_at_dispatch_not_at_adoption() {
        // Both guest jobs migrate in ONE exchange: budgets must still
        // charge the thief's replica per dispatch, not per adopt.
        let (mut shards, tenant) = idle_thief_beside_two_budgeted_guest_jobs();
        let mut sink = ActionSink::new();
        let batch = steal(&mut shards, 8, at(1), &mut sink);
        assert_eq!(batch.len(), 2);
        // The single dispatch charged one WCET on the thief; adoption of
        // the still-queued second job charged nothing.
        let thief = shards[1].tenant_server(tenant).expect("replica spliced");
        assert_eq!(thief.total_charged(), ms(4));
        let victim = shards[0].tenant_server(tenant).expect("replica spliced");
        assert_eq!(victim.total_charged(), Duration::ZERO);
        let first = batch.as_slice()[0].id;
        second_guest_job_defers_on_the_thief(&mut shards, tenant, first, &mut sink);
    }

    #[test]
    fn a_token_that_beats_its_shards_commit_waits_for_it() {
        // Tenant A (`src` on worker 0 feeding `dst` on worker 1) is
        // retired, and B, of its shape, takes its slot on both shards.
        // Shard 0 hears B's commit first and runs B's root; its token
        // reaches shard 1 before the commit does, beside a token of A's.
        // Shard 1 keeps both until its commit, then drops A's and
        // releases B's node.
        use crate::admission::{AdmissionControl, TenantLedger};
        let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for (name, w) in [("p0", w0), ("p1", w1)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(w))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(1))).unwrap();
        }
        let base = Arc::new(b.build().unwrap());
        let tenant = {
            let mut b = yasmin_core::graph::TaskSetBuilder::new();
            let src = b.task_decl(TaskSpec::aperiodic("src").on_worker(w0));
            let dst = b.task_decl(TaskSpec::graph_node("dst").on_worker(w1));
            let (src, dst) = (src.unwrap(), dst.unwrap());
            b.version_decl(src, VersionSpec::new("s", ms(1))).unwrap();
            b.version_decl(dst, VersionSpec::new("d", ms(1))).unwrap();
            let c = b.channel_decl("c", 1, 4);
            b.channel_connect(src, dst, c).unwrap();
            b.build().unwrap()
        };
        let mut shards = EngineShard::build_all(&base, &partitioned_config(2)).unwrap();
        let mut ledger = TenantLedger::new(AdmissionControl::for_engine(&shards[0]), base);
        let mut sink = ActionSink::new();
        for (s, w) in shards.iter_mut().zip([w0, w1]) {
            s.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
            let base_job = s.running().unwrap().job.id;
            s.apply(at(1), &Input::Completed(&[(w, base_job)]), &mut sink)
                .unwrap();
        }
        let admit = |ledger: &mut TenantLedger, shards: &mut [EngineShard]| {
            let admitted = ledger.admit(&tenant, None, |a| {
                let install = Input::Install {
                    merged: a.merged,
                    tenant: a.tenant,
                    first_task: a.slot.first_task,
                    budget: None,
                };
                for s in shards.iter_mut() {
                    s.apply(at(1), &install, &mut ActionSink::new())?;
                }
                Ok(())
            });
            admitted.unwrap()
        };
        let a = admit(&mut ledger, &mut shards);
        for s in &mut shards {
            s.apply(at(1), &commit(a, at(1), at(1)), &mut sink).unwrap();
            s.apply(at(1), &Input::Retire(a), &mut sink).unwrap();
        }
        ledger.retire(a).unwrap();
        let b = admit(&mut ledger, &mut shards);
        let (src, dst) = (TaskId::new(2), TaskId::new(3));
        assert_eq!(shards[1].tenant_of_task(dst), Some(b), "B took A's slot");
        shards[0]
            .apply(at(2), &commit(b, at(2), at(2)), &mut sink)
            .unwrap();
        shards[0]
            .apply(at(2), &Input::Activate(src), &mut sink)
            .unwrap();
        let root = shards[0].running().expect("B's root runs").job.id;
        shards[0]
            .apply(at(3), &Input::Completed(&[(w0, root)]), &mut sink)
            .unwrap();
        let mut outbox = Vec::new();
        shards[0].drain_outbox_into(&mut outbox);
        assert_eq!(outbox[0].graph_release, at(2));
        for graph_release in [at(1), at(2)] {
            let token = RemoteActivation {
                graph_release,
                ..outbox[0]
            };
            shards[1]
                .apply(at(3), &Input::Token(token), &mut sink)
                .unwrap();
        }
        assert_eq!(shards[1].ready_len(), 0, "held until the commit");
        assert!(shards[1].running().is_none());
        let released = shards[1].stats().released;
        shards[1]
            .apply(at(4), &commit(b, at(4), at(2)), &mut sink)
            .unwrap();
        assert_eq!(shards[1].stats().released, released + 1, "B's token only");
        sink.clear();
        shards[1]
            .apply(at(4), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        let node = shards[1].running().expect("B's node runs").job;
        assert_eq!((node.task, node.graph_release), (dst, at(2)));
    }

    #[test]
    fn a_job_stolen_before_its_shards_commit_fires_once_committed() {
        // Tenant A and then B, of its shape, hold one slot: a root `src`
        // on worker 0 feeding `d0` on worker 0 and `d1` on worker 1.
        // Shard 0 runs its base task throughout, so every root queues
        // there and idle shard 1 steals it. A's root is taken before A
        // is retired, and B's after shard 0 committed B. Shard 1 runs
        // both before it hears B's commit: B's tokens release each
        // successor exactly once, A's release nothing.
        use crate::admission::{AdmissionControl, TenantLedger};
        let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for (name, w) in [("p0", w0), ("p1", w1)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(40)).on_worker(w))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(1))).unwrap();
        }
        let base = Arc::new(b.build().unwrap());
        let tenant = {
            let mut b = yasmin_core::graph::TaskSetBuilder::new();
            let src = b.task_decl(TaskSpec::aperiodic("src").on_worker(w0));
            let src = src.unwrap();
            b.version_decl(src, VersionSpec::new("s", ms(1))).unwrap();
            for (name, w) in [("d0", w0), ("d1", w1)] {
                let d = b.task_decl(TaskSpec::graph_node(name).on_worker(w));
                let d = d.unwrap();
                b.version_decl(d, VersionSpec::new(name, ms(1))).unwrap();
                let c = b.channel_decl(name, 1, 4);
                b.channel_connect(src, d, c).unwrap();
            }
            b.build().unwrap()
        };
        let mut shards = EngineShard::build_all(&base, &partitioned_config(2)).unwrap();
        let mut ledger = TenantLedger::new(AdmissionControl::for_engine(&shards[0]), base);
        let mut sink = ActionSink::new();
        for s in &mut shards {
            s.apply(Instant::ZERO, &Input::Start, &mut sink).unwrap();
        }
        let p1 = shards[1].running().unwrap().job.id;
        shards[1]
            .apply(at(1), &Input::Completed(&[(w1, p1)]), &mut sink)
            .unwrap();
        let admit = |ledger: &mut TenantLedger, shards: &mut [EngineShard]| {
            let admitted = ledger.admit(&tenant, None, |a| {
                let install = Input::Install {
                    merged: a.merged,
                    tenant: a.tenant,
                    first_task: a.slot.first_task,
                    budget: None,
                };
                for s in shards.iter_mut() {
                    s.apply(at(1), &install, &mut ActionSink::new())?;
                }
                Ok(())
            });
            admitted.unwrap()
        };
        let src = TaskId::new(2);
        // Activates the root on shard 0 and detaches it for a thief.
        let root = |shards: &mut [EngineShard], now: Instant, sink: &mut ActionSink| {
            shards[0].apply(now, &Input::Activate(src), sink).unwrap();
            let batch = lend(&mut shards[0], 1);
            assert_eq!(batch.len(), 1);
            batch[0]
        };
        let a = admit(&mut ledger, &mut shards);
        for s in &mut shards {
            s.apply(at(1), &commit(a, at(1), at(1)), &mut sink).unwrap();
        }
        let former = root(&mut shards, at(1), &mut sink);
        for s in &mut shards {
            s.apply(at(1), &Input::Retire(a), &mut sink).unwrap();
        }
        ledger.retire(a).unwrap();
        let b = admit(&mut ledger, &mut shards);
        assert_eq!(shards[1].tenant_of_task(src), Some(b), "B took A's slot");
        shards[0]
            .apply(at(2), &commit(b, at(2), at(2)), &mut sink)
            .unwrap();
        let heirs = root(&mut shards, at(2), &mut sink);
        let released = [0, 1].map(|k| shards[k].stats().released);
        // Shard 1 runs both roots before it hears B's commit.
        for (job, done) in [(former, at(3)), (heirs, at(4))] {
            shards[1]
                .apply(done, &Input::Adopt(&[job]), &mut sink)
                .unwrap();
            let ran = shards[1].running().expect("the stolen root runs").job;
            assert_eq!((ran.task, ran.graph_release), (src, job.graph_release));
            shards[1]
                .apply(done, &Input::Completed(&[(w1, ran.id)]), &mut sink)
                .unwrap();
        }
        assert_eq!(shards[1].ready_len(), 0, "d1 waits for the commit");
        let mut outbox = Vec::new();
        shards[1].drain_outbox_into(&mut outbox);
        assert_eq!(outbox.len(), 2, "both roots' d0 tokens are routed");
        for token in outbox {
            shards[0]
                .apply(at(4), &Input::Token(token), &mut sink)
                .unwrap();
        }
        shards[1]
            .apply(at(5), &commit(b, at(5), at(2)), &mut sink)
            .unwrap();
        let now = [0, 1].map(|k| shards[k].stats().released);
        assert_eq!(now, released.map(|n| n + 1), "d0 and d1 once each");
        sink.clear();
        shards[1]
            .apply(at(5), &Input::Tick { done: &[] }, &mut sink)
            .unwrap();
        let d1 = shards[1].running().expect("B's d1 runs").job;
        assert_eq!((d1.task, d1.graph_release), (TaskId::new(4), at(2)));
    }

    #[test]
    fn advance_into_matches_separate_completion_and_tick_rounds() {
        let ts = two_worker_set();
        let mut split = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut fused = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let mut sink_a = ActionSink::new();
        let mut sink_b = ActionSink::new();
        split[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink_a)
            .unwrap();
        fused[0]
            .apply(Instant::ZERO, &Input::Start, &mut sink_b)
            .unwrap();
        for tick in 1..=6u64 {
            let done_a = split[0].running().map(|r| (split[0].worker(), r.job.id));
            let done_b = fused[0].running().map(|r| (fused[0].worker(), r.job.id));
            assert_eq!(done_a.map(|d| d.1), done_b.map(|d| d.1));
            let now = at(tick * 10);
            sink_a.clear();
            if let Some(d) = done_a {
                split[0]
                    .apply(now, &Input::Completed(&[d]), &mut sink_a)
                    .unwrap();
            }
            split[0]
                .apply(now, &Input::Tick { done: &[] }, &mut sink_a)
                .unwrap();
            sink_b.clear();
            let batch: Vec<_> = done_b.into_iter().collect();
            fused[0]
                .apply(now, &Input::Tick { done: &batch }, &mut sink_b)
                .unwrap();
            // The fused round may merge two dispatch rounds into one,
            // but the dispatched jobs and engine counters must agree.
            // (`max_ready` legitimately differs: the fused round sees
            // fresh releases queued before the first pop.)
            let mut sa = split[0].stats().clone();
            let mut sb = fused[0].stats().clone();
            sa.max_ready = 0;
            sb.max_ready = 0;
            assert_eq!(sa, sb, "tick {tick}");
            assert_eq!(
                split[0].running().map(|r| r.job.id),
                fused[0].running().map(|r| r.job.id)
            );
        }
    }

    #[test]
    fn cross_shard_accelerator_rejected() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        for w in 0..2u16 {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{w}"), ms(10)).on_worker(WorkerId::new(w)))
                .unwrap();
            b.version_decl(t, VersionSpec::new("g", ms(1)).with_accel(gpu))
                .unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let err = EngineShard::build_all(&ts, &partitioned_config(2));
        assert!(matches!(err, Err(Error::InvalidConfig(msg)) if msg.contains("accelerator")));
    }

    #[test]
    fn intra_shard_dag_fires_locally() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let w = WorkerId::new(1);
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(10)).on_worker(w))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(w))
            .unwrap();
        b.version_decl(src, VersionSpec::new("s", ms(1))).unwrap();
        b.version_decl(dst, VersionSpec::new("d", ms(1))).unwrap();
        let c = b.channel_decl("c", 1, 1);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut shards = EngineShard::build_all(&ts, &partitioned_config(2)).unwrap();
        let shard = &mut shards[1];
        let mut sink = ActionSink::new();
        shard
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        let s = shard.running().unwrap().job.id;
        sink.clear();
        shard
            .apply(at(1), &Input::Completed(&[(w, s)]), &mut sink)
            .unwrap();
        assert!(
            sink.as_slice()
                .iter()
                .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == dst)),
            "successor fires inside the shard: {:?}",
            sink.as_slice()
        );
        // Shard 0 owns nothing: starting it dispatches nothing.
        let mut empty_sink = ActionSink::new();
        shards[0]
            .apply(Instant::ZERO, &Input::Start, &mut empty_sink)
            .unwrap();
        assert!(empty_sink.is_empty());
        assert!(shards[0].is_idle());
        assert!(shards[0].most_urgent_hint().is_none());
    }

    #[test]
    fn shard_matches_single_owner_dispatch_order() {
        // The load-bearing equivalence: per worker, the shard emits the
        // same (task, seq, version) dispatch sequence as the single-owner
        // partitioned engine driven identically.
        let ts = two_worker_set();
        let sharded_cfg = partitioned_config(2);
        let single_cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let mut single = OnlineEngine::new(Arc::clone(&ts), single_cfg).unwrap();
        let mut shards = EngineShard::build_all(&ts, &sharded_cfg).unwrap();

        // Drive both for 8 ticks, completing everything mid-tick.
        let mut single_log: Vec<(u16, u32, u64)> = Vec::new();
        let mut shard_log: Vec<(u16, u32, u64)> = Vec::new();
        let log_actions = |log: &mut Vec<(u16, u32, u64)>, actions: &[Action]| {
            for a in actions {
                if let Action::Dispatch { worker, job, .. } = a {
                    log.push((worker.raw(), job.task.raw(), job.seq));
                }
            }
        };
        let mut sink = ActionSink::new();
        single
            .apply(Instant::ZERO, &Input::Start, &mut sink)
            .unwrap();
        log_actions(&mut single_log, sink.as_slice());
        for shard in &mut shards {
            sink.clear();
            shard
                .apply(Instant::ZERO, &Input::Start, &mut sink)
                .unwrap();
            log_actions(&mut shard_log, sink.as_slice());
        }
        for tick in 1..=8u64 {
            let mid = at(tick * 10 - 5);
            for w in 0..2u16 {
                let worker = WorkerId::new(w);
                if let Some(r) = single.running(worker) {
                    let id = r.job.id;
                    sink.clear();
                    single
                        .apply(mid, &Input::Completed(&[(worker, id)]), &mut sink)
                        .unwrap();
                    log_actions(&mut single_log, sink.as_slice());
                }
                if let Some(r) = shards[w as usize].running() {
                    let id = r.job.id;
                    sink.clear();
                    shards[w as usize]
                        .apply(mid, &Input::Completed(&[(worker, id)]), &mut sink)
                        .unwrap();
                    log_actions(&mut shard_log, sink.as_slice());
                }
            }
            sink.clear();
            single
                .apply(at(tick * 10), &Input::Tick { done: &[] }, &mut sink)
                .unwrap();
            log_actions(&mut single_log, sink.as_slice());
            for shard in &mut shards {
                sink.clear();
                shard
                    .apply(at(tick * 10), &Input::Tick { done: &[] }, &mut sink)
                    .unwrap();
                log_actions(&mut shard_log, sink.as_slice());
            }
        }
        // Compare per-worker subsequences (global interleaving across
        // workers is driver-defined, not engine-defined).
        for w in 0..2u16 {
            let s: Vec<_> = single_log.iter().filter(|e| e.0 == w).collect();
            let p: Vec<_> = shard_log.iter().filter(|e| e.0 == w).collect();
            assert_eq!(s, p, "worker {w} dispatch sequence diverged");
        }
        let mut merged = EngineStats::default();
        for shard in &shards {
            merged.merge(shard.stats());
        }
        assert_eq!(merged.released, single.stats().released);
        assert_eq!(merged.dispatched, single.stats().dispatched);
        assert_eq!(merged.completed, single.stats().completed);
    }

    /// A shard offers a chain homed on it node after node whatever the
    /// nodes' ids: `n2` (id 0) is offered because `n1` (id 1), whose
    /// predecessor ends on the other shard, is offered before it; the
    /// ids are reserved in task order.
    #[test]
    fn continuations_follow_a_chain_whatever_its_ids() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let on = |spec: TaskSpec, w| spec.on_worker(WorkerId::new(w));
        let n2 = b.task_decl(on(TaskSpec::graph_node("n2"), 0)).unwrap();
        let n1 = b.task_decl(on(TaskSpec::graph_node("n1"), 0)).unwrap();
        let src = b.task_decl(on(TaskSpec::aperiodic("src"), 1)).unwrap();
        for t in [n2, n1, src] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        for (name, from, to) in [("a", src, n1), ("b", n1, n2)] {
            let c = b.channel_decl(name, 4, 8);
            b.channel_connect(from, to, c).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .tick(ms(10))
            .build()
            .unwrap();
        let mut shards = EngineShard::build_all(&ts, &cfg).unwrap();
        let offers = |shard: &mut EngineShard| {
            let mut sink = ActionSink::new();
            shard
                .apply(Instant::ZERO, &Input::Offer, &mut sink)
                .unwrap();
            let offer = |a: &Action| match *a {
                Action::Offer(c) => c,
                other => panic!("{other:?}"),
            };
            sink.iter().map(offer).collect::<Vec<_>>()
        };
        let offered = offers(&mut shards[0]);
        let first = offered.first().expect("offers").id.raw();
        let got: Vec<_> = offered
            .iter()
            .map(|c| (c.task, c.seq, c.id.raw() - first))
            .collect();
        assert_eq!(got, [(n2, 0, 0), (n1, 0, 1)]);
        assert!(offers(&mut shards[1]).is_empty(), "a root is never offered");
    }
}
