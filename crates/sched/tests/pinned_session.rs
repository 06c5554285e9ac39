//! One scripted session through every way a driver changes an engine,
//! compared action by action, and counter by counter, with the list
//! written below. On a two-shard pair it covers a DAG edge across the
//! shards, a steal and a lent job taken back, a kept continuation and
//! the note that brings its end home, a high-lane post and its drain, a
//! forced overrun, a failed body, a tenant's install, commit and
//! retirement, a mode change and stop; a single-owner engine takes a
//! permission change and skips recurring cycles. A change to when an
//! input runs a dispatch round, or to what it emits, shows as a
//! changed line.

use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme, VersionPolicy};
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::ids::{JobId, TaskId, TenantId, WorkerId};
use yasmin_core::priority::{Priority, PriorityPolicy};
use yasmin_core::task::{OverrunPolicy, TaskSpec};
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::{ExecMode, ModeMask, PermMask, VersionSpec};
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{
    Action, ActionSink, Continuation, EngineShard, HomeNote, Input, Job, MsgEvent, OnlineEngine,
    RemoteActivation,
};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn at(us: u64) -> Instant {
    Instant::from_nanos(us * 1_000)
}

/// `src` (10 ms, worker 0) feeds `dst` (worker 1) across the shards;
/// `a`, `b`, `c` are worker 0's spare work, `m` worker 1's, with one
/// version per mode.
fn base() -> Arc<TaskSet> {
    let mut b = TaskSetBuilder::new();
    let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
    let src = b
        .task_decl(TaskSpec::periodic("src", ms(10)).on_worker(w0))
        .unwrap();
    let dst = b
        .task_decl(TaskSpec::graph_node("dst").on_worker(w1))
        .unwrap();
    for t in [src, dst] {
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
    }
    for name in ["a", "b", "c"] {
        let t = b
            .task_decl(TaskSpec::aperiodic(name).on_worker(w0))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
    }
    let spec = TaskSpec::aperiodic("m").on_worker(w1);
    let m = b
        .task_decl(spec.with_overrun_policy(OverrunPolicy::Kill))
        .unwrap();
    let normal = ModeMask::only(ExecMode::NORMAL);
    b.version_decl(m, VersionSpec::new("slow", ms(2)).with_modes(normal))
        .unwrap();
    let fast = ModeMask::only(ExecMode::new(1));
    b.version_decl(m, VersionSpec::new("fast", ms(1)).with_modes(fast))
        .unwrap();
    let c = b.channel_decl("c", 4, 8);
    b.channel_connect(src, dst, c).unwrap();
    Arc::new(b.build().unwrap())
}

/// One 20 ms task on worker 1.
fn guest() -> TaskSet {
    let mut b = TaskSetBuilder::new();
    let g = b
        .task_decl(TaskSpec::periodic("g", ms(20)).on_worker(WorkerId::new(1)))
        .unwrap();
    b.version_decl(g, VersionSpec::new("v", ms(1))).unwrap();
    b.build().unwrap()
}

/// What every step left, one line each.
struct Log {
    lines: Vec<String>,
    sink: ActionSink,
}

impl Log {
    fn step(&mut self, label: &str) {
        self.lines.push(format!("{label}: {:?}", self.sink));
        self.sink.clear();
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// The job running on `shard`.
fn running(shard: &EngineShard) -> JobId {
    shard.running().expect("a job runs").job.id
}

/// Each note `from` holds, delivered to `to`.
fn send_home(log: &mut Log, from: &mut EngineShard, to: &mut EngineShard, now: Instant) {
    let mut notes: Vec<HomeNote> = Vec::new();
    from.drain_homeward_into(&mut notes);
    for note in notes {
        to.apply(now, &Input::Home(note), &mut log.sink).unwrap();
        log.step(&format!("home {:?}", note.task));
    }
}

/// What one lend of up to `k` detaches from `shard`.
fn lend(log: &mut Log, shard: &mut EngineShard, k: usize, now: Instant) -> Vec<Job> {
    shard.apply(now, &Input::Lend { k }, &mut log.sink).unwrap();
    let lent = |a: Action| match a {
        Action::Lend { job } => job,
        other => panic!("{other:?}"),
    };
    let batch: Vec<Job> = log.sink.drain(..).map(lent).collect();
    log.line(format!(
        "s0 lends {:?}",
        batch.iter().map(|j| j.id).collect::<Vec<_>>()
    ));
    batch
}

/// Each token `from` holds, delivered to `to`.
fn send_tokens(log: &mut Log, from: &mut EngineShard, to: &mut EngineShard, now: Instant) {
    let mut outbox: Vec<RemoteActivation> = Vec::new();
    from.drain_outbox_into(&mut outbox);
    for ra in outbox {
        to.apply(now, &Input::Token(ra), &mut log.sink).unwrap();
        log.step(&format!("token {}", ra.graph_release));
    }
}

fn shard_session(log: &mut Log) {
    let ts = base();
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .version_policy(VersionPolicy::Mode)
        .preemption(false)
        .build()
        .unwrap();
    let mut shards = EngineShard::build_all(&ts, &config).unwrap();
    let mut s1 = shards.pop().unwrap();
    let mut s0 = shards.pop().unwrap();
    let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
    let [_, dst, a, b, c, m] = [0, 1, 2, 3, 4, 5].map(TaskId::new);

    s0.apply(at(0), &Input::Start, &mut log.sink).unwrap();
    log.step("s0 start");
    s1.apply(at(0), &Input::Start, &mut log.sink).unwrap();
    log.step("s1 start");
    for t in [a, b, c] {
        s0.apply(at(0), &Input::Activate(t), &mut log.sink).unwrap();
        log.step("s0 activate");
    }

    // A steal of two, then a lent job nobody took.
    let batch = lend(log, &mut s0, 2, at(100));
    s1.apply(at(100), &Input::Adopt(&batch), &mut log.sink)
        .unwrap();
    log.step("s1 adopts");
    let batch = lend(log, &mut s0, 4, at(100));
    s0.apply(at(100), &Input::Returned(&batch), &mut log.sink)
        .unwrap();
    // `a`'s next instance waits at home while the stolen one runs.
    s0.apply(at(200), &Input::Activate(a), &mut log.sink)
        .unwrap();
    log.step("s0 activate a again");

    // Shard 1, inside the stolen body, offers `dst`'s next instance;
    // shard 0 completes `src` and keeps it.
    s1.apply(at(200), &Input::Offer, &mut log.sink).unwrap();
    let offer = |a: Action| match a {
        Action::Offer(c) => c,
        other => panic!("{other:?}"),
    };
    let offered: Vec<Continuation> = log.sink.drain(..).map(offer).collect();
    log.line(format!("s1 offers {offered:?}"));
    let job = running(&s0);
    s0.apply(at(1_000), &Input::Completed(&[(w0, job)]), &mut log.sink)
        .unwrap();
    log.step("s0 completes src");
    let mut outbox = Vec::new();
    s0.drain_outbox_into(&mut outbox);
    let ra = outbox[0];
    assert_eq!(s0.keepable(&ra), Some(dst));
    s0.apply(at(1_000), &Input::Kept(ra, offered[0]), &mut log.sink)
        .unwrap();
    log.step("s0 keeps dst");
    s1.apply(at(1_000), &Input::Booked(offered[0]), &mut log.sink)
        .unwrap();

    let job = running(&s0);
    s0.apply(at(1_500), &Input::Completed(&[(w0, job)]), &mut log.sink)
        .unwrap();
    log.step("s0 completes c");
    s0.apply(at(1_600), &Input::Completed(&[]), &mut log.sink)
        .unwrap();
    log.step("s0 completes nothing");
    let job = running(&s0);
    s0.apply(at(1_800), &Input::Completed(&[(w0, job)]), &mut log.sink)
        .unwrap();
    log.step("s0 completes dst, holds a");
    send_home(log, &mut s0, &mut s1, at(1_800));
    let job = running(&s1);
    s1.apply(at(2_000), &Input::Completed(&[(w1, job)]), &mut log.sink)
        .unwrap();
    log.step("s1 completes a");
    send_home(log, &mut s1, &mut s0, at(2_000));
    let job = running(&s1);
    s1.apply(at(3_000), &Input::Completed(&[(w1, job)]), &mut log.sink)
        .unwrap();
    log.step("s1 completes b");
    send_home(log, &mut s1, &mut s0, at(3_000));
    let job = running(&s0);
    s0.apply(at(3_000), &Input::Completed(&[(w0, job)]), &mut log.sink)
        .unwrap();
    log.step("s0 completes a");

    // The second period: two posts and their drains, an overrun, a
    // routed token and a failed body.
    s0.apply(at(10_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("s0 tick");
    s1.apply(at(10_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("s1 tick");
    s1.apply(at(10_000), &Input::Activate(m), &mut log.sink)
        .unwrap();
    log.step("s1 activate m");
    for ceiling in [Priority::new(2), Priority::new(1)] {
        let post = MsgEvent::HighPosted { dst: m, ceiling };
        s1.apply(at(10_100), &Input::Msg(post), &mut log.sink)
            .unwrap();
        log.step("s1 post");
    }
    for _ in 0..2 {
        let drain = MsgEvent::HighDrained { dst: m };
        s1.apply(at(10_200), &Input::Msg(drain), &mut log.sink)
            .unwrap();
        log.step("s1 drain");
    }
    s1.apply(at(10_300), &Input::Overrun(m), &mut log.sink)
        .unwrap();
    s1.apply(at(10_400), &Input::Overrun(m), &mut log.sink)
        .unwrap();
    log.step(&format!("s1 overruns {}", s1.stats().overruns));
    let job = running(&s0);
    s0.apply(
        at(11_000),
        &Input::Tick { done: &[(w0, job)] },
        &mut log.sink,
    )
    .unwrap();
    log.step("s0 advance");
    send_tokens(log, &mut s0, &mut s1, at(11_000));
    let job = running(&s1);
    s1.apply(at(12_000), &Input::Failed(w1, job), &mut log.sink)
        .unwrap();
    log.step("s1 fails m");
    let job = running(&s1);
    s1.apply(at(13_000), &Input::Completed(&[(w1, job)]), &mut log.sink)
        .unwrap();
    log.step("s1 completes dst");

    // A tenant on worker 1, budgeted there, and a mode change.
    let merged = Arc::new(ts.extended(&guest()).unwrap());
    let tenant = TenantId::new(1);
    let install = |budget| Input::Install {
        merged: &merged,
        tenant,
        first_task: 6,
        budget,
    };
    s0.apply(at(14_000), &install(None), &mut log.sink).unwrap();
    let budget = TenantBudget::deferrable(ms(5), ms(20));
    s1.apply(at(14_000), &install(Some(budget)), &mut log.sink)
        .unwrap();
    let commit = |anchor| Input::Commit {
        tenant,
        anchor,
        since: at(14_000),
    };
    s0.apply(at(14_000), &commit(at(14_000)), &mut log.sink)
        .unwrap();
    s0.apply(at(14_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("s0 commits");
    s1.apply(at(14_000), &commit(at(20_000)), &mut log.sink)
        .unwrap();
    let mode = Input::Mode(ExecMode::new(1));
    s1.apply(at(14_000), &mode, &mut log.sink).unwrap();
    s1.apply(at(15_000), &Input::Activate(m), &mut log.sink)
        .unwrap();
    log.step("s1 activate m in mode 1");
    let job = running(&s1);
    s1.apply(at(16_000), &Input::Completed(&[(w1, job)]), &mut log.sink)
        .unwrap();
    log.step("s1 completes m");
    s0.apply(at(20_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("s0 tick");
    s1.apply(at(20_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("s1 tick");
    s1.apply(at(20_000), &Input::Retire(tenant), &mut log.sink)
        .unwrap();
    log.step("s1 retires");
    s0.apply(at(20_000), &Input::Retire(tenant), &mut log.sink)
        .unwrap();
    log.step("s0 retires");
    let job = running(&s1);
    s1.apply(at(21_000), &Input::Completed(&[(w1, job)]), &mut log.sink)
        .unwrap();
    log.step("s1 completes g");
    let job = running(&s0);
    s0.apply(at(21_000), &Input::Completed(&[(w0, job)]), &mut log.sink)
        .unwrap();
    log.step("s0 completes src");
    send_tokens(log, &mut s0, &mut s1, at(21_000));
    let job = running(&s1);
    s1.apply(at(22_000), &Input::Completed(&[(w1, job)]), &mut log.sink)
        .unwrap();
    log.step("s1 completes dst");

    s0.apply(at(22_000), &Input::Stop, &mut log.sink).unwrap();
    s1.apply(at(22_000), &Input::Stop, &mut log.sink).unwrap();
    s0.apply(at(30_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("s0 tick after stop");
    s1.apply(at(30_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("s1 tick after stop");
    log.line(format!("s0 {:?}", s0.stats()));
    log.line(format!("s1 {:?}", s1.stats()));
}

fn single_owner_session(log: &mut Log) {
    let mut b = TaskSetBuilder::new();
    let p = b.task_decl(TaskSpec::periodic("p", ms(5))).unwrap();
    b.version_decl(
        p,
        VersionSpec::new("one", ms(2)).with_permissions(PermMask::from_bits(0b01)),
    )
    .unwrap();
    b.version_decl(
        p,
        VersionSpec::new("two", ms(1)).with_permissions(PermMask::from_bits(0b10)),
    )
    .unwrap();
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .version_policy(VersionPolicy::Permission)
        .build()
        .unwrap();
    let mut e = OnlineEngine::new(Arc::new(b.build().unwrap()), config).unwrap();
    let w = WorkerId::new(0);
    let done = |e: &OnlineEngine| e.running(w).expect("a job runs").job.id;
    let first = e.recurrence_mark(at(0)).expect("the start recurs");
    let perms = Input::Permissions(PermMask::from_bits(0b10));
    e.apply(at(0), &perms, &mut log.sink).unwrap();
    e.apply(at(0), &Input::Start, &mut log.sink).unwrap();
    log.step("e start");
    e.apply(
        at(1_000),
        &Input::Completed(&[(w, done(&e))]),
        &mut log.sink,
    )
    .unwrap();
    log.step("e completes");
    assert!(e.recurrence_mark(at(5_000)).is_some(), "one cycle later");
    let skip = Input::Skip {
        since: &first,
        n: 3,
    };
    e.apply(at(5_000), &skip, &mut log.sink).unwrap();
    e.apply(at(20_000), &Input::Tick { done: &[] }, &mut log.sink)
        .unwrap();
    log.step("e tick after three skipped cycles");
    e.apply(
        at(21_000),
        &Input::Completed(&[(w, done(&e))]),
        &mut log.sink,
    )
    .unwrap();
    log.step("e completes");
    log.line(format!("e {:?}", e.stats()));
}

/// The session as the engine ran it before `OnlineEngine::apply` took
/// over its entry points.
const PINNED: &str = r"
s0 start: [Dispatch { worker: W0, job: Job { id: J0, task: T0, seq: 0, release: @0ns, graph_release: @0ns, abs_deadline: @10.000ms, priority: prio(10000000), preempted: false }, version: v0 }]
s1 start: []
s0 activate: []
s0 activate: []
s0 activate: []
s0 lends [J1, J2]
s1 adopts: [Dispatch { worker: W1, job: Job { id: J1, task: T2, seq: 0, release: @0ns, graph_release: @0ns, abs_deadline: @inf, priority: prio(18446744073709551615), preempted: false }, version: v0 }]
s0 lends [J3]
s0 activate a again: []
s1 offers [Continuation { task: T1, seq: 0, id: J281474976710656 }]
s0 completes src: [Dispatch { worker: W0, job: Job { id: J3, task: T4, seq: 0, release: @0ns, graph_release: @0ns, abs_deadline: @inf, priority: prio(18446744073709551615), preempted: false }, version: v0 }]
s0 keeps dst: []
s0 completes c: [Dispatch { worker: W0, job: Job { id: J281474976710656, task: T1, seq: 0, release: @0ns, graph_release: @0ns, abs_deadline: @10.000ms, priority: prio(10000000), preempted: false }, version: v0 }]
s0 completes nothing: []
s0 completes dst, holds a: []
home T1: []
s1 completes a: [Dispatch { worker: W1, job: Job { id: J2, task: T3, seq: 0, release: @0ns, graph_release: @0ns, abs_deadline: @inf, priority: prio(18446744073709551615), preempted: false }, version: v0 }]
home T2: [Dispatch { worker: W0, job: Job { id: J4, task: T2, seq: 1, release: @200us, graph_release: @200us, abs_deadline: @inf, priority: prio(18446744073709551615), preempted: false }, version: v0 }]
s1 completes b: []
home T3: []
s0 completes a: []
s0 tick: [Dispatch { worker: W0, job: Job { id: J5, task: T0, seq: 1, release: @10.000ms, graph_release: @10.000ms, abs_deadline: @20.000ms, priority: prio(20000000), preempted: false }, version: v0 }]
s1 tick: []
s1 activate m: [Dispatch { worker: W1, job: Job { id: J281474976710657, task: T5, seq: 0, release: @10.000ms, graph_release: @10.000ms, abs_deadline: @inf, priority: prio(18446744073709551615), preempted: false }, version: v0 }]
s1 post: [Boost { worker: W1, job: J281474976710657, priority: prio(2) }]
s1 post: [Boost { worker: W1, job: J281474976710657, priority: prio(1) }]
s1 drain: []
s1 drain: [Boost { worker: W1, job: J281474976710657, priority: prio(18446744073709551615) }]
s1 overruns 1: []
s0 advance: []
token 10.000ms: []
s1 fails m: [Dispatch { worker: W1, job: Job { id: J281474976710658, task: T1, seq: 1, release: @10.000ms, graph_release: @10.000ms, abs_deadline: @20.000ms, priority: prio(20000000), preempted: false }, version: v0 }]
s1 completes dst: []
s0 commits: []
s1 activate m in mode 1: [Dispatch { worker: W1, job: Job { id: J281474976710659, task: T5, seq: 1, release: @15.000ms, graph_release: @15.000ms, abs_deadline: @inf, priority: prio(18446744073709551615), preempted: false }, version: v1 }]
s1 completes m: []
s0 tick: [Dispatch { worker: W0, job: Job { id: J6, task: T0, seq: 2, release: @20.000ms, graph_release: @20.000ms, abs_deadline: @30.000ms, priority: prio(30000000), preempted: false }, version: v0 }]
s1 tick: [Dispatch { worker: W1, job: Job { id: J281474976710660, task: T6, seq: 0, release: @20.000ms, graph_release: @20.000ms, abs_deadline: @40.000ms, priority: prio(40000000), preempted: false }, version: v0 }]
s1 retires: []
s0 retires: []
s1 completes g: []
s0 completes src: []
token 20.000ms: [Dispatch { worker: W1, job: Job { id: J281474976710661, task: T1, seq: 2, release: @20.000ms, graph_release: @20.000ms, abs_deadline: @30.000ms, priority: prio(30000000), preempted: false }, version: v0 }]
s1 completes dst: []
s0 tick after stop: []
s1 tick after stop: []
s0 EngineStats { released: 7, dispatched: 6, completed: 6, preempted: 0, pip_boosts: 0, blocked_skips: 0, sporadic_violations: 0, channel_overflows: 0, max_ready: 3, stolen: 1, donated: 2, stolen_batch: 0, steal_batch_len: [0, 0, 0, 0, 0, 0, 0, 0], cross_activations: 3, culled: 0, culled_migrated: 0, budget_deferrals: 0, msg_boosts: 0, overruns: 0, failed: 0, shed_drops: 0, miss_trips: 0 }
s1 EngineStats { released: 6, dispatched: 7, completed: 6, preempted: 0, pip_boosts: 0, blocked_skips: 0, sporadic_violations: 0, channel_overflows: 0, max_ready: 2, stolen: 2, donated: 1, stolen_batch: 1, steal_batch_len: [0, 1, 0, 0, 0, 0, 0, 0], cross_activations: 0, culled: 0, culled_migrated: 0, budget_deferrals: 0, msg_boosts: 2, overruns: 1, failed: 1, shed_drops: 0, miss_trips: 0 }
e start: [Dispatch { worker: W0, job: Job { id: J0, task: T0, seq: 0, release: @0ns, graph_release: @0ns, abs_deadline: @5.000ms, priority: prio(5000000), preempted: false }, version: v1 }]
e completes: []
e tick after three skipped cycles: [Dispatch { worker: W0, job: Job { id: J4, task: T0, seq: 4, release: @20.000ms, graph_release: @20.000ms, abs_deadline: @25.000ms, priority: prio(25000000), preempted: false }, version: v1 }]
e completes: []
e EngineStats { released: 5, dispatched: 5, completed: 5, preempted: 0, pip_boosts: 0, blocked_skips: 0, sporadic_violations: 0, channel_overflows: 0, max_ready: 1, stolen: 0, donated: 0, stolen_batch: 0, steal_batch_len: [0, 0, 0, 0, 0, 0, 0, 0], cross_activations: 0, culled: 0, culled_migrated: 0, budget_deferrals: 0, msg_boosts: 0, overruns: 0, failed: 0, shed_drops: 0, miss_trips: 0 }
";

#[test]
fn every_input_keeps_its_actions_and_its_round() {
    let mut log = Log {
        lines: Vec::new(),
        sink: ActionSink::new(),
    };
    shard_session(&mut log);
    single_owner_session(&mut log);
    let got = log.lines.join("\n");
    assert!(
        got == PINNED.trim(),
        "the session changed; it now reads:\n{got}"
    );
}
