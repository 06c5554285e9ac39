//! The **test shell**: the [`Owner`]s [`wire`] returns, stepped on one
//! thread over their real mailboxes, shelves, [`LoadBoard`] and helper
//! mailboxes — all deterministic when one thread drives them — under a
//! virtual clock ([`SteppedClock`]), with the step order, the body
//! durations, the park lateness and the instants commands arrive chosen
//! by a seed. The clock charges a tick round nothing unless a scenario
//! models its cost.
//!
//! It calls what `owner_thread` calls (`start`, `step`, `begin_body`,
//! `in_body`, `end_body`, `also_ready`, `woke`, `spun`, `into_report`)
//! and stands in for what that thread *does*: a body is a span of
//! virtual time, a spin is waiting for the next event, and a park is
//! the two halves of `MailboxReceiver::park` with the rest of the world
//! in between — the owner stays announced, and goes on only once a
//! ringer has claimed the announcement or its (late) timeout is up.
//! That makes a lost wake-up a failed assertion instead of a slow test.
//! What the prose of the module docs promises is checked after every
//! event and again when all owners have left ([`World::finish`]).
//!
//! Not under test here: `Runtime`'s caller side (its [`Tenancy`]
//! builds the `Admit`s, but validation and the acknowledgement wait
//! stay with the thread tests), memory orderings (the thread tests
//! under ThreadSanitizer), and scenarios that need two threads to make
//! progress — a body waiting for room in a full lane never returns on
//! one.
//!
//! A failure prints its [`Case`] and the last steps of the trace; put
//! the case into [`REPLAY`] and run `harness::replay` with
//! `--nocapture` for the whole trace. A trace line reads
//! `<virtual ns> o<owner> <event> -> <what step answered>`.

use super::*;
use crate::test_util::{one_owner, sharded};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64};
use yasmin_core::config::Config;
use yasmin_core::graph::TaskSetBuilder;
use yasmin_core::priority::Priority;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::ManualClock;
use yasmin_core::version::VersionSpec;
use yasmin_sched::server::TenantBudget;
use yasmin_sched::validate_sharding;

fn us(v: u64) -> Duration {
    Duration::from_micros(v)
}

/// Where every run's clock starts: not zero, which `Instant` uses for
/// "never".
const T0: Instant = Instant::from_nanos(1_000_000);

/// splitmix64: all a schedule needs, and no second RNG API to follow.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn span(&mut self, lo: Duration, hi: Duration) -> Duration {
        Duration::from_nanos(lo.as_nanos() + self.next() % (hi.as_nanos() - lo.as_nanos() + 1))
    }
}

/// How long a job's body lasts.
type BodyTime = dyn FnMut(&Job, &mut Rng) -> Duration;

/// How late a park's timeout fires, given how far ahead it was armed.
type Lateness = dyn FnMut(Duration, &mut Rng) -> Duration;

/// The harness's virtual time: a [`ManualClock`] that also charges every
/// tick round an owner times ([`OwnerClock::round_end`]) the cost of the
/// owner being stepped ([`World::round_cost`]), which is zero until a
/// scenario sets it — so a round lead stays zero and no edge is
/// pre-staged unless the scenario models what a round costs.
#[derive(Default)]
struct SteppedClock {
    manual: ManualClock,
    round_cost_ns: AtomicU64,
    /// Whether the rounds charged cost all, 3/4, 1/2 and 1/4 of it in
    /// turn.
    spread: AtomicBool,
    charged: AtomicU64,
}

impl SteppedClock {
    fn set(&self, t: Instant) {
        self.manual.set(t);
    }

    fn advance(&self, d: Duration) {
        self.manual.advance(d);
    }

    /// What every tick round an owner times costs until told otherwise.
    fn charge_rounds(&self, cost: Duration) {
        self.round_cost_ns.store(cost.as_nanos(), Ordering::SeqCst);
    }
}

impl Clock for SteppedClock {
    fn now(&self) -> Instant {
        self.manual.now()
    }
}

impl OwnerClock for SteppedClock {
    fn round_end(&self) -> Instant {
        let mut cost = self.round_cost_ns.load(Ordering::SeqCst);
        if self.spread.load(Ordering::SeqCst) {
            cost -= cost * (self.charged.fetch_add(1, Ordering::SeqCst) % 4) / 4;
        }
        self.manual.advance(Duration::from_nanos(cost));
        self.manual.now()
    }
}

/// What a seat's owner is doing, as its thread would be.
enum Seat {
    /// Not started yet.
    Fresh,
    /// To be stepped.
    Ready,
    /// `step` answered a job: `begin_body` is next. Anything may happen
    /// in between, as between the two calls on a thread.
    Entering(Job, VersionId),
    /// Between `begin_body` and `end_body`; the record says until when.
    InBody(RtJobRecord),
    /// Announced on its mailbox; its timeout fires `late` after `until`.
    Asleep {
        until: Instant,
        late: Duration,
        wake: WakeSet,
    },
    Spinning {
        edge: Instant,
        wake: WakeSet,
    },
    Exited,
}

/// A command on its way to the owners.
enum Cmd {
    Activate(TaskId),
    /// A high-lane post (`high`) or drain for `dst`, sent to `home`,
    /// the owner of `dst`.
    Msg {
        home: usize,
        dst: TaskId,
        high: bool,
    },
    /// A one-task tenant on `worker` with `period`, spliced through the
    /// ledger and sent as `Runtime::admit` sends it; retired
    /// `retire_after` its commit when that is given.
    Admit {
        worker: u16,
        period: Duration,
        retire_after: Option<Duration>,
    },
    /// The tenant `.0` with bodies `.1` and budget `.2`, admitted as
    /// [`Cmd::Admit`] admits its own ([`admit_set`]: with a no-op body
    /// for each version and no budget).
    AdmitSet(Box<TaskSet>, Bodies, Option<TenantBudget>),
    /// Sent to shards once every one has acknowledged the splice.
    Commit {
        tenant: TenantId,
        ack: Option<Arc<AtomicUsize>>,
        retire_after: Option<Duration>,
    },
    Retire(TenantId),
    Stop,
    Shutdown,
}

#[derive(Clone, Copy)]
enum Event {
    Step(usize),
    BeginBody(usize),
    EndBody(usize),
    Wake(usize),
    EndSpin(usize),
    /// Helper `.1` of owner `.0` takes what its mailbox holds.
    Pop(usize, usize),
    /// … and answers `Done`.
    Done(usize, usize),
    Deliver(usize),
}

/// A helper thread's stand-in: its end of the owner, and the job it
/// "runs" until `completed`.
struct HelperSeat {
    end: HelperEnd,
    busy: Option<RtJobRecord>,
}

struct World {
    label: String,
    clock: Arc<SteppedClock>,
    rng: Rng,
    owners: Vec<Owner<SteppedClock>>,
    seats: Vec<Seat>,
    helpers: Vec<Vec<HelperSeat>>,
    lanes: Lanes,
    config: Config,
    /// Admits as `Runtime` does.
    tenancy: Tenancy,
    /// Undelivered commands and the instant each is due.
    script: Vec<(Instant, Cmd)>,
    body_time: Box<BodyTime>,
    lateness: Box<Lateness>,
    /// Longest stretch of virtual time one event takes.
    jitter: Duration,
    trace: VecDeque<String>,
    /// Trace lines kept.
    keep: usize,
    shutdown_at: Option<Instant>,
    records_at_shutdown: usize,
    /// Cross-shard tokens routed before `Shutdown` was sent.
    routed_at_shutdown: u64,
    longest_body: Duration,
    next_seen: [u64; 4],
    /// Per owner: commands sent to it quietly since its last step, which
    /// drained its mailbox. They may wait for its park's timeout.
    quiet: Vec<usize>,
    /// Parks a ringer ended.
    rung_wakes: u64,
    /// Admissions into the slot of a retired tenant.
    recycled: u64,
    /// Steps that left an owner holding a pre-staged edge with arrivals
    /// queued for it.
    held_arrivals: u64,
    /// What each owner's timed tick rounds cost it: charged by the
    /// clock while that owner steps. Zero unless a scenario says.
    round_cost: Vec<Duration>,
    /// The tasks of the built-in set, which no admission retires.
    base_tasks: usize,
    /// An owner whose `begin_body` waits until a scenario lets it go.
    paused_entry: Option<usize>,
}

fn noop_bodies(taskset: &TaskSet) -> Bodies {
    let mut bodies = Bodies::new();
    for t in taskset.tasks() {
        for v in 0..t.versions().len() {
            let key = (t.id(), VersionId::new(v as u16));
            bodies.insert(key, Arc::new(|_: &JobCtx| {}));
        }
    }
    bodies
}

fn admit_set(candidate: TaskSet) -> Cmd {
    let bodies = noop_bodies(&candidate);
    Cmd::AdmitSet(Box::new(candidate), bodies, None)
}

/// Counts `msg` and sends it into the shared lane of `owner` by `how`,
/// as [`send_waiting`] does, but never waiting for room.
fn send_by(lanes: &SharedLanes, owner: usize, msg: ShardMsg, how: SendFn) {
    if lanes.open() {
        let sent = how(&mut try_lock(&lanes[owner]).expect("one thread"), msg);
        assert!(sent.is_ok(), "the script overfills a command lane");
    }
}

fn send(lanes: &SharedLanes, owner: usize, msg: ShardMsg) {
    send_by(lanes, owner, msg, MailboxSender::send);
}

/// A tenant command down every shared lane, as `Runtime` sends it
/// ([`tenant_send`]: quietly to one owner), counted in `quiet` when so.
fn tenant_broadcast(lanes: &SharedLanes, quiet: &mut [usize], msg: impl Fn() -> ShardMsg) {
    let (how, alone) = (tenant_send(lanes.len()), lanes.len() == 1);
    for (owner, quiet) in quiet.iter_mut().enumerate() {
        send_by(lanes, owner, msg(), how);
        *quiet += usize::from(alone);
    }
}

impl World {
    fn new(label: String, seed: u64, taskset: TaskSet, config: Config, stealing: bool) -> Self {
        let mut launch = RuntimeBuilder::new(Arc::new(taskset), config);
        launch.work_stealing = stealing;
        Self::wired(label, seed, launch)
    }

    /// The world of `launch` — its task set, configuration, stealing and
    /// channels — with a no-op body for every version: what a body does
    /// a scenario does through `Owner::in_body`, as [`Cmd::Msg`] does.
    fn wired(label: String, seed: u64, mut launch: RuntimeBuilder) -> Self {
        let (taskset, config) = (Arc::clone(&launch.taskset), launch.config.clone());
        launch.bodies = noop_bodies(&taskset);
        let clock = Arc::new(SteppedClock::default());
        clock.set(T0);
        let (owners, lanes, bodies) = wire(&launch, &clock).unwrap();
        let (owners, ends): (Vec<_>, Vec<Vec<HelperEnd>>) = owners.into_iter().unzip();
        let (tick, n, base_tasks) = (owners[0].tick, owners.len(), taskset.len());
        let helper = |end| HelperSeat { end, busy: None };
        World {
            label,
            clock,
            rng: Rng(seed),
            seats: owners.iter().map(|_| Seat::Fresh).collect(),
            owners,
            helpers: (ends.into_iter())
                .map(|e| e.into_iter().map(helper).collect())
                .collect(),
            lanes,
            tenancy: Tenancy::new(AdmissionControl::new(config.clone(), tick), taskset, bodies),
            config,
            script: Vec::new(),
            body_time: Box::new(|_, rng| match rng.below(10) {
                0 => rng.span(us(2_000), us(5_000)), // across an edge or two
                _ => rng.span(us(10), us(400)),
            }),
            lateness: Box::new(|_, rng| rng.span(Duration::ZERO, us(200))),
            jitter: us(3),
            trace: VecDeque::new(),
            keep: 48,
            shutdown_at: None,
            records_at_shutdown: 0,
            routed_at_shutdown: 0,
            longest_body: Duration::ZERO,
            next_seen: [0; 4],
            quiet: vec![0; n],
            rung_wakes: 0,
            recycled: 0,
            held_arrivals: 0,
            round_cost: vec![Duration::ZERO; n],
            base_tasks,
            paused_entry: None,
        }
    }

    fn now(&self) -> Instant {
        self.clock.now()
    }

    fn at(&mut self, when: Instant, cmd: Cmd) {
        self.script.push((when, cmd));
    }

    fn note(&mut self, line: String) {
        if self.trace.len() == self.keep {
            self.trace.pop_front();
        }
        self.trace
            .push_back(format!("{:>10} {line}", self.now().as_nanos()));
    }

    /// Whether owner `i` sleeps with its announcement still standing.
    fn announced(&self, i: usize) -> bool {
        matches!(self.seats[i], Seat::Asleep { .. }) && self.owners[i].mailbox().is_announced()
    }

    fn due(&self, k: usize) -> bool {
        let (when, cmd) = &self.script[k];
        *when <= self.now() && match cmd {
            Cmd::Commit { ack, .. } => ack.as_ref().is_none_or(|a| a.load(Ordering::Acquire) == 0),
            // A drain follows its post, as a receiver's drain does.
            &Cmd::Msg {
                dst, high: false, ..
            } => !self.script.iter().any(
                |(w, c)| matches!(*c, Cmd::Msg { dst: d, high: true, .. } if d == dst && w <= when),
            ),
            _ => true,
        }
    }

    /// Everything that can happen at this instant.
    fn enabled(&self) -> Vec<Event> {
        let now = self.now();
        let mut on = Vec::new();
        for (i, seat) in self.seats.iter().enumerate() {
            let owner = &self.owners[i];
            match seat {
                Seat::Fresh | Seat::Ready => on.push(Event::Step(i)),
                Seat::Entering(..) if self.paused_entry != Some(i) => {
                    on.push(Event::BeginBody(i));
                }
                Seat::InBody(r) if r.completed <= now => on.push(Event::EndBody(i)),
                Seat::Asleep { until, late, .. }
                    if !owner.mailbox().is_announced() || *until + *late <= now =>
                {
                    on.push(Event::Wake(i));
                }
                Seat::Spinning { edge, wake }
                    if *edge <= now || !owner.mailbox().is_empty() || owner.also_ready(*wake) =>
                {
                    on.push(Event::EndSpin(i));
                }
                _ => {}
            }
            for (h, helper) in self.helpers[i].iter().enumerate() {
                match helper.busy {
                    None if !helper.end.rx.is_empty() => on.push(Event::Pop(i, h)),
                    Some(r) if r.completed <= now => on.push(Event::Done(i, h)),
                    _ => {}
                }
            }
        }
        on.extend(
            (0..self.script.len())
                .filter(|&k| self.due(k))
                .map(Event::Deliver),
        );
        on
    }

    /// The next instant at which the clock alone enables something.
    fn next_instant(&self) -> Option<Instant> {
        let seats = self.seats.iter().filter_map(|s| match s {
            Seat::InBody(r) => Some(r.completed),
            Seat::Asleep { until, late, .. } => Some(*until + *late),
            Seat::Spinning { edge, .. } => Some(*edge),
            _ => None,
        });
        let helpers = self.helpers.iter().flatten();
        let busy = helpers.filter_map(|h| h.busy.map(|r| r.completed));
        let script = self.script.iter().map(|(when, _)| *when);
        seats
            .chain(busy)
            .chain(script)
            .filter(|t| *t > self.now())
            .min()
    }

    /// Runs until every owner has left, or until the clock reaches
    /// `stop` with nothing left to do before it.
    fn run_until(&mut self, stop: Instant) {
        for _ in 0..400_000 {
            if self.now() >= stop {
                return;
            }
            let on = self.enabled();
            if on.is_empty() {
                if self.seats.iter().all(|s| matches!(s, Seat::Exited)) {
                    return;
                }
                let next = self.next_instant().expect("nothing can ever happen again");
                if next > stop {
                    return self.clock.set(stop);
                }
                if let Some(down) = self.shutdown_at {
                    let after = self.records().saturating_sub(self.records_at_shutdown) as u64;
                    let bound = self.owners[0].tick * 8 + self.longest_body * (after + 2);
                    assert!(next <= down + bound, "still running {bound} after Shutdown");
                }
                self.clock.set(next);
                continue;
            }
            let event = on[self.rng.below(on.len())];
            self.apply(event);
            self.check_sleepers();
            let pause = self.rng.span(Duration::ZERO, self.jitter);
            self.clock.advance(pause);
        }
        panic!("the run does not end");
    }

    fn run(&mut self) {
        self.run_until(Instant::MAX);
    }

    fn records(&self) -> usize {
        self.owners.iter().map(|o| o.report.records.len()).sum()
    }

    /// Cross-shard tokens routed so far.
    fn routed(&self) -> u64 {
        let stats = self.owners.iter().map(|o| o.engine.stats());
        stats.map(|s| s.cross_activations).sum()
    }

    fn apply(&mut self, event: Event) {
        let now = self.now();
        match event {
            Event::Step(i) => {
                let (edges, edge) = self.edges_met(i);
                let fresh = matches!(self.seats[i], Seat::Fresh);
                self.clock.charge_rounds(self.round_cost[i]);
                let next = match fresh {
                    true => self.owners[i].start(),
                    false => self.owners[i].step(),
                };
                // `start` answers its first dispatch before it looks at
                // the mailbox; a command may already wait there.
                let drained = self.owners[i].mailbox().is_empty();
                assert!(fresh || drained, "o{i}: step left mail");
                if drained {
                    self.quiet[i] = 0;
                }
                self.tick_rounds_kept_to(i, edges, edge);
                if let Some(held) = self.owners[i].held {
                    let holds = matches!(next, Next::SpinTo { edge, .. } if edge == held);
                    assert!(
                        holds && self.now() < held,
                        "o{i}: let go of the pre-staged edge {held} early"
                    );
                    let queued = self.owners[i].local.as_ref().map(|l| l.posts.len());
                    self.held_arrivals += u64::from(queued > Some(0));
                }
                assert!(self.owners[i].peers.shelf.is_empty(), "o{i}: shelf open");
                self.stepped(i, next);
            }
            Event::BeginBody(i) => self.begin_body(i),
            Event::EndBody(i) => {
                let Seat::InBody(record) = std::mem::replace(&mut self.seats[i], Seat::Ready)
                else {
                    unreachable!()
                };
                let (edges, edge) = self.edges_met(i);
                self.owners[i].end_body(record);
                self.tick_rounds_kept_to(i, edges, edge);
                self.note(format!("o{i} end_body {:?}", record.job.id));
            }
            Event::Wake(i) => {
                let Seat::Asleep { until, wake, .. } =
                    std::mem::replace(&mut self.seats[i], Seat::Ready)
                else {
                    unreachable!()
                };
                // The sleep's second half: over at once, it withdraws
                // the announcement and uses up a ringer's token.
                let rung =
                    (self.owners[i].mailbox()).park_announced(Some(std::time::Duration::ZERO));
                self.rung_wakes += u64::from(rung);
                self.owners[i].woke(until, wake, !rung);
                let late = now.saturating_since(until);
                self.note(format!("o{i} woke rung={rung} {late} past its timeout"));
            }
            Event::EndSpin(i) => {
                let Seat::Spinning { wake, .. } =
                    std::mem::replace(&mut self.seats[i], Seat::Ready)
                else {
                    unreachable!()
                };
                self.owners[i].spun(now, wake);
                self.note(format!("o{i} spun"));
            }
            Event::Pop(i, h) => {
                let helper = &mut self.helpers[i][h];
                let Some(Run(job, version, _)) = helper.end.rx.try_recv().unwrap() else {
                    return self.note(format!("o{i} helper {h} dismissed"));
                };
                let spent = (self.body_time)(&job, &mut self.rng);
                self.longest_body = self.longest_body.max(spent);
                helper.busy = Some(RtJobRecord {
                    job,
                    version,
                    worker: WorkerId::new(h as u16),
                    started: now,
                    completed: now + spent,
                    outcome: JobOutcome::Completed,
                });
                self.note(format!("o{i} helper {h} runs {:?} for {spent}", job.id));
            }
            Event::Done(i, h) => {
                let helper = &mut self.helpers[i][h];
                let record = helper.busy.take().unwrap();
                let sent = helper.end.done.send(ShardMsg::Done(record));
                assert!(sent.is_ok(), "one job in flight per helper");
                self.note(format!("o{i} helper {h} done {:?}", record.job.id));
            }
            Event::Deliver(k) => {
                let (_, cmd) = self.script.swap_remove(k);
                self.deliver(cmd);
            }
        }
    }

    /// How many edges owner `i` has met, and the next it is to meet: the
    /// one it holds pre-staged, or its next tick.
    fn edges_met(&self, i: usize) -> (u64, Instant) {
        let owner = &self.owners[i];
        (owner.late.count, owner.held.unwrap_or(owner.next_tick))
    }

    /// No edge met ahead of itself: `i` had met `edges` edges and the
    /// next was due at `edge` before the call that just returned. A
    /// pre-staged edge counts as met when its hold ends, and while it
    /// holds, its step answers a spin to the edge (`apply`).
    fn tick_rounds_kept_to(&self, i: usize, edges: u64, edge: Instant) {
        let ran = self.owners[i].late.count > edges;
        assert!(
            !ran || self.now() >= edge,
            "o{i}: a tick round ahead of {edge}"
        );
    }

    /// What the thread shell does with a job `step` answered: enter
    /// its body.
    fn begin_body(&mut self, i: usize) {
        let now = self.now();
        let Seat::Entering(job, version) = self.seats[i] else {
            unreachable!()
        };
        // `wake_thieves`' contract: of the peers flagged idle, lowest
        // index first, as many as jobs were shelved are rung. (A
        // flagged sleeper past those may look at a filled shelf until a
        // woken one empties it: not lost.)
        let flagged: Vec<usize> = (0..self.seats.len())
            .filter(|&p| match self.seats[p] {
                Seat::Asleep { wake, .. } | Seat::Spinning { wake, .. } => {
                    wake.has(WakeSource::PeerShelf)
                }
                _ => false,
            })
            .collect();
        let asleep: Vec<bool> = flagged.iter().map(|&p| self.announced(p)).collect();
        self.owners[i].begin_body();
        let shelved = self.owners[i].shelved;
        for (&p, was) in flagged.iter().zip(asleep).take(shelved) {
            assert!(
                !(was && self.announced(p)),
                "lost wake: o{i} shelved {shelved} jobs and left thief o{p} asleep"
            );
        }
        let spent = (self.body_time)(&job, &mut self.rng);
        self.longest_body = self.longest_body.max(spent);
        self.seats[i] = Seat::InBody(RtJobRecord {
            job,
            version,
            worker: self.owners[i].worker,
            started: now,
            completed: now + spent,
            outcome: JobOutcome::Completed,
        });
        self.note(format!(
            "o{i} begin_body {:?} for {spent}, {shelved} shelved",
            job.id
        ));
    }

    /// What the thread shell does with `step`'s answer.
    fn stepped(&mut self, i: usize, next: Next) {
        let now = self.now();
        match next {
            Next::Run(job, version) => {
                self.next_seen[0] += 1;
                self.seats[i] = Seat::Entering(job, version);
                self.note(format!("o{i} step -> Run({:?} of {})", job.id, job.task));
            }
            Next::Park { until, wake } => {
                self.next_seen[1] += 1;
                let owner = &self.owners[i];
                // The sleep's first half. What it finds is found.
                let kind = if owner.parked_near { "near" } else { "far" };
                if owner.mailbox().announce(|| owner.also_ready(wake)) {
                    let late = (self.lateness)(until.saturating_since(now), &mut self.rng);
                    self.seats[i] = Seat::Asleep { until, late, wake };
                } else {
                    self.owners[i].woke(until, wake, false);
                    self.seats[i] = Seat::Ready;
                }
                self.note(format!(
                    "o{i} step -> Park ({kind}) until {until} {}",
                    sources(wake)
                ));
            }
            Next::SpinTo { edge, wake } => {
                self.next_seen[2] += 1;
                self.seats[i] = Seat::Spinning { edge, wake };
                self.note(format!("o{i} step -> SpinTo {edge} {}", sources(wake)));
            }
            Next::Exit => {
                self.next_seen[3] += 1;
                self.seats[i] = Seat::Exited;
                self.note(format!("o{i} step -> Exit"));
                // Global quiescence: nothing is on its way to anybody.
                for (p, owner) in self.owners.iter().enumerate() {
                    assert!(
                        owner.peers.pending_empty(),
                        "o{i} left, o{p} holds spilled sends"
                    );
                    assert!(
                        owner.mailbox().is_empty(),
                        "o{i} left, o{p}'s mailbox is not empty"
                    );
                    assert!(
                        owner.peers.shelf.is_empty(),
                        "o{i} left, o{p}'s shelf is open"
                    );
                }
            }
        }
    }

    /// A sleeper whose announcement stands has nothing to wake up for:
    /// every `send` rings, and so does the owner whose drain brings the
    /// count of unfinished work to 0. What a quiet send left may wait
    /// for the park's timeout, its next tick edge.
    fn check_sleepers(&self) {
        for i in (0..self.seats.len()).filter(|&i| self.announced(i)) {
            let Seat::Asleep { wake, .. } = self.seats[i] else {
                unreachable!()
            };
            let owner = &self.owners[i];
            assert!(
                owner.mailbox().len() <= self.quiet[i] && wake.has(WakeSource::TickEdge),
                "lost wake: o{i} sleeps on a mailbox that is not empty"
            );
            assert!(
                !(wake.has(WakeSource::AllDrained) && self.lanes.finished()),
                "lost wake: o{i} sleeps although every owner has drained"
            );
        }
    }

    fn broadcast(&self, msg: impl Fn() -> ShardMsg) {
        for owner in 0..self.lanes.len() {
            send(&self.lanes, owner, msg());
        }
    }

    /// Admits `candidate` with `budget` through the [`Tenancy`] and sends
    /// it as `Runtime::admit` sends it: the commit gated on every shard's
    /// acknowledgement, the retirement `retire_after` it when given.
    fn admit(
        &mut self,
        candidate: &TaskSet,
        bodies: Bodies,
        budget: Option<TenantBudget>,
        retire_after: Option<Duration>,
    ) {
        let (now, sharded) = (self.now(), self.config.sharded_dispatch());
        let owners = self.lanes.len();
        let ack = (owners > 1).then(|| Arc::new(AtomicUsize::new(owners)));
        let then = match &ack {
            Some(ack) => Spliced::Ack(Arc::clone(ack)),
            None => Spliced::Commit,
        };
        let end = self.tenancy.ledger.merged().len() as u32;
        let (lanes, quiet, config) = (&self.lanes, &mut self.quiet, &self.config);
        let mut recycled = false;
        let admitted = self.tenancy.admit(
            candidate,
            &bodies_of(candidate, &bodies).unwrap(),
            budget.as_ref(),
            |admission, table| {
                if sharded {
                    validate_sharding(admission.merged, config)?;
                }
                recycled = admission.slot.first_task < end;
                tenant_broadcast(lanes, quiet, || ShardMsg::Admit {
                    taskset: Arc::clone(admission.merged),
                    bodies: Arc::clone(table),
                    tenant: admission.tenant,
                    first_task: admission.slot.first_task,
                    budget,
                    at: now,
                    then: then.clone(),
                });
                Ok(())
            },
        );
        self.recycled += u64::from(admitted.is_ok() && recycled);
        self.note(format!("admit -> {admitted:?}, recycled={recycled}"));
        let Ok(tenant) = admitted else { return };
        if ack.is_some() {
            let commit = Cmd::Commit {
                tenant,
                ack,
                retire_after,
            };
            self.at(now, commit);
        } else if let Some(after) = retire_after {
            self.at(now + after, Cmd::Retire(tenant));
        }
    }

    fn deliver(&mut self, cmd: Cmd) {
        let now = self.now();
        let sharded = self.config.sharded_dispatch();
        match cmd {
            Cmd::Activate(task) => {
                let owner = owner_of(self.tenancy.ledger.merged(), sharded, task).unwrap();
                send(&self.lanes, owner, ShardMsg::Activate(task));
                self.note(format!("activate {task} -> o{owner}"));
            }
            Cmd::Msg { home, dst, high } => {
                let msg = ShardMsg::Msg(match high {
                    true => MsgEvent::HighPosted {
                        dst,
                        ceiling: Priority::HIGHEST,
                    },
                    false => MsgEvent::HighDrained { dst },
                });
                // From a body of the owner of `dst` when it is inside
                // one — the thread-owned queue — and from a foreign
                // thread otherwise.
                if let Seat::InBody(r) = self.seats[home] {
                    let lanes = Arc::clone(&self.lanes);
                    self.owners[home].in_body((r.job.task, r.version), |_| post(&lanes, home, msg));
                } else {
                    send(&self.lanes, home, msg);
                }
                self.note(format!("msg high={high} for {dst} to o{home}"));
            }
            Cmd::Admit {
                worker,
                period,
                retire_after,
            } => {
                let mut b = TaskSetBuilder::new();
                let mut spec = TaskSpec::periodic("tenant", period);
                if sharded {
                    spec = spec.on_worker(WorkerId::new(worker));
                }
                let t = b.task_decl(spec).unwrap();
                b.version_decl(t, VersionSpec::new("v", us(50))).unwrap();
                let candidate = b.build().unwrap();
                self.admit(&candidate, noop_bodies(&candidate), None, retire_after);
            }
            Cmd::AdmitSet(candidate, bodies, budget) => {
                self.admit(&candidate, bodies, budget, None);
            }
            Cmd::Commit {
                tenant,
                retire_after,
                ..
            } => {
                self.broadcast(|| ShardMsg::Commit { tenant, since: now });
                self.note(format!("commit {tenant}"));
                if let Some(after) = retire_after {
                    self.at(now + after, Cmd::Retire(tenant));
                }
            }
            Cmd::Retire(tenant) => {
                self.tenancy.ledger.retire(tenant).unwrap();
                tenant_broadcast(&self.lanes, &mut self.quiet, || ShardMsg::Retire(tenant));
                self.note(format!("retire {tenant}"));
            }
            Cmd::Stop => {
                self.broadcast(|| ShardMsg::Stop);
                self.note("stop".into());
            }
            Cmd::Shutdown => {
                // A body may still post to the message plane while the
                // owners drain; nothing else is sent after `Shutdown`.
                let posts = self
                    .script
                    .iter()
                    .all(|(_, c)| matches!(c, Cmd::Msg { .. }));
                assert!(posts, "Shutdown is the last command but for posts");
                self.broadcast(|| ShardMsg::Shutdown);
                self.shutdown_at = Some(now);
                self.records_at_shutdown = self.records();
                self.routed_at_shutdown = self.routed();
                self.note("shutdown".into());
            }
        }
    }

    /// Every owner has left: what must hold of the whole run.
    fn finish(mut self) -> Vec<OwnerReport> {
        assert!(self.seats.iter().all(|s| matches!(s, Seat::Exited)));
        let merged = Arc::clone(self.tenancy.ledger.merged());
        for (i, owner) in self.owners.iter().enumerate() {
            // Nothing is queued, dispatched or half retired at exit …
            assert!(owner.engine.is_idle(), "o{i}: engine not idle at exit");
            assert!(owner.next_job.is_none() && owner.done.is_empty());
            // … and every posted boost was drained.
            for t in merged.tasks() {
                assert_eq!(
                    owner.engine.high_lane_depth(t.id()),
                    0,
                    "o{i}: {} boosted",
                    t.id()
                );
            }
        }
        let owners = std::mem::take(&mut self.owners);
        let reports: Vec<_> = owners.into_iter().map(|o| o.into_report(true)).collect();
        for (i, t) in reports.iter().map(|r| r.ticks).enumerate() {
            // Each edge was pre-staged, or one cause kept it from that.
            let why = t.body_crossed + t.woke_late + t.no_lead + t.held_busy;
            assert_eq!(t.prestaged + why, t.edges, "o{i}: {t:?}");
        }
        let mut stats = EngineStats::default();
        let mut seen = HashSet::new();
        let mut migrated = 0;
        for r in reports
            .iter()
            .inspect(|r| stats.merge(&r.stats))
            .flat_map(|r| &r.records)
        {
            assert!(
                seen.insert((r.job.task, r.job.seq)),
                "{:?} ran twice",
                r.job
            );
            assert!(
                r.started >= r.job.release,
                "{:?} started before its release",
                r.job
            );
            let home = merged.tasks()[r.job.task.index()].spec().assigned_worker();
            migrated += u64::from(self.config.sharded_dispatch() && home != Some(r.worker));
        }
        // Every released job is in exactly one place.
        assert_eq!(
            stats.released,
            seen.len() as u64 + stats.culled,
            "{stats:?}"
        );
        // Both sides of every steal and every kept instance agree, and a
        // job migrates once.
        let sum = |f: fn(&StealStats) -> u64| reports.iter().map(|r| f(&r.steals)).sum::<u64>();
        assert_eq!(stats.stolen, stats.donated);
        assert_eq!(sum(|s| s.taken) + sum(|s| s.continued), stats.donated);
        assert_eq!(sum(|s| s.jobs_claimed) + sum(|s| s.continued), stats.stolen);
        assert_eq!(sum(|s| s.claims), stats.stolen_batch);
        // (A migrated job culled on the thief ran nowhere.)
        assert_eq!(
            migrated + stats.culled_migrated,
            stats.stolen,
            "a job migrated twice, or home again: {migrated} ran away, {stats:?}"
        );
        let base = self.base_tasks;
        let records = || reports.iter().flat_map(|r| &r.records);
        // No two instances of one task of the built-in set overlap —
        // where one instance at a time is the contract: on shards, and
        // on an owner that runs its bodies itself.
        let one_at_a_time = self.helpers.iter().all(Vec::is_empty);
        if one_at_a_time {
            let mut ran: Vec<_> = records().filter(|r| r.job.task.index() < base).collect();
            ran.sort_by_key(|r| (r.job.task, r.started));
            for w in ran.windows(2).filter(|w| w[0].job.task == w[1].job.task) {
                assert!(
                    w[1].started >= w[0].completed,
                    "{:?} on {} overlaps {:?} on {}",
                    w[1].job,
                    w[1].worker,
                    w[0].job,
                    w[0].worker
                );
            }
        }
        // On a single-input chain that shed nothing, every node's seq is
        // its root instance's: the one the home would have released,
        // whoever ran it. (With three shards, a root instance stolen by
        // the third sends its token over another lane than the next
        // instance's, and the two may arrive out of order.)
        let shed = stats.shed_drops + stats.channel_overflows;
        if one_at_a_time && reports.len() <= 2 && shed == 0 {
            let root_of = |mut t: TaskId| loop {
                match merged.in_edge_ids(t) {
                    [] => return Some(t),
                    &[e] => t = merged.edges()[e].src,
                    _ => return None,
                }
            };
            let roots: HashMap<_, _> = records()
                .filter(|r| merged.in_degree(r.job.task) == 0)
                .map(|r| ((r.job.task, r.job.graph_release), r.job.seq))
                .collect();
            let node = |t: TaskId| t.index() < base && merged.in_degree(t) > 0;
            for r in records().filter(|r| node(r.job.task)) {
                let Some(root) = root_of(r.job.task) else {
                    continue;
                };
                if let Some(&seq) = roots.get(&(root, r.job.graph_release)) {
                    assert_eq!(r.job.seq, seq, "{:?}: not its root's instance", r.job);
                }
            }
        }
        reports
    }
}

fn sources(wake: WakeSet) -> String {
    use WakeSource::{AllDrained, Mailbox, PeerShelf, SpillRetry, TickEdge};
    let all = [Mailbox, PeerShelf, AllDrained, SpillRetry, TickEdge];
    format!(
        "{:?}",
        all.into_iter().filter(|s| wake.has(*s)).collect::<Vec<_>>()
    )
}

impl Drop for World {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("harness: {} — the last steps:", self.label);
            self.trace.iter().for_each(|line| eprintln!("  {line}"));
        }
    }
}

/// Declares a task with one version of `wcet`, pinned to `worker` when
/// the set is sharded.
fn task(b: &mut TaskSetBuilder, spec: TaskSpec, worker: Option<u16>, wcet: Duration) -> TaskId {
    let spec = match worker {
        Some(w) => spec.on_worker(WorkerId::new(w)),
        None => spec,
    };
    let t = b.task_decl(spec).unwrap();
    b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
    t
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One owner over one slot: it executes.
    Alone,
    /// One owner over two slots: two helpers execute.
    Helpers,
    Shards(usize),
}

/// One generated run: everything else follows from these.
#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    shape: Shape,
    stealing: bool,
    /// Periodic tasks per worker.
    tasks: usize,
    /// Commands before the `Shutdown`.
    commands: usize,
    /// Shut down right after the last command, inside the horizon, with
    /// jobs and tokens in flight; otherwise after a quiet tail.
    early: bool,
}

/// What [`explore`] leaves.
struct Explored {
    reports: Vec<OwnerReport>,
    /// How often `step` answered each kind of [`Next`].
    seen: [u64; 4],
    /// Admissions into a retired tenant's slot.
    recycled: u64,
    /// Steps that held a pre-staged edge with arrivals queued for it.
    held_arrivals: u64,
    /// Cross-shard tokens routed after `Shutdown` was sent, each handled
    /// during the drain.
    routed_late: u64,
    trace: VecDeque<String>,
}

/// Builds `case`'s world and script, runs it to the end and checks it.
fn explore(case: Case, keep: usize) -> Explored {
    let mut rng = Rng(case.seed ^ 0x5EED);
    let (workers, config) = match case.shape {
        Shape::Alone => (1, one_owner(1)),
        Shape::Helpers => (2, one_owner(2)),
        Shape::Shards(n) => (n, sharded(n).build().unwrap()),
    };
    let pinned = config.sharded_dispatch();
    let mut b = TaskSetBuilder::new();
    let (mut periodic, mut aperiodic) = (Vec::new(), Vec::new());
    for w in 0..workers as u16 {
        let on = pinned.then_some(w);
        for i in 0..case.tasks {
            let period = us([2_000, 4_000][rng.below(2)]);
            let spec = TaskSpec::periodic(format!("p{w}.{i}"), period);
            periodic.push(task(&mut b, spec, on, us(300)));
        }
        aperiodic.push(task(
            &mut b,
            TaskSpec::aperiodic(format!("a{w}")),
            on,
            us(300),
        ));
    }
    if workers > 1 {
        // A chain across owners and back: every job of `src` sends `dst`
        // a token, and every job of `dst` sends `back` one — over a peer
        // lane when the set is sharded, where the home of `dst` or
        // `back` is often inside a body when its token is due: a peer
        // that completes the predecessor then keeps the instance.
        let src = task(
            &mut b,
            TaskSpec::periodic("src", us(4_000)),
            pinned.then_some(0),
            us(200),
        );
        let dst = task(
            &mut b,
            TaskSpec::graph_node("dst"),
            pinned.then_some(1),
            us(200),
        );
        let back = task(
            &mut b,
            TaskSpec::graph_node("back"),
            pinned.then_some(0),
            us(200),
        );
        for (from, to) in [(src, dst), (dst, back)] {
            let c = b.channel_decl(format!("c{to}"), 1, 8);
            b.channel_connect(from, to, c).unwrap();
        }
    }
    let stealing = case.stealing && pinned && workers > 1;
    let mut world = World::new(
        format!("{case:?}"),
        case.seed,
        b.build().unwrap(),
        config,
        stealing,
    );
    world.keep = keep;
    // Two seeds in three model what a timed tick round costs — up to 20
    // or 40 µs, spread — so owners that run their own bodies learn a
    // round lead and pre-stage edges, and hold for up to 3/4 of it; they
    // get as many commands again once the leads are learnt, each in the
    // last 40 µs before an edge, where the holds are.
    let cost = us(case.seed % 3 * 20);
    world.round_cost.iter_mut().for_each(|c| *c = cost);
    world.clock.spread.store(true, Ordering::SeqCst);
    let (tick, costed) = (world.owners[0].tick, !cost.is_zero());

    let horizon = us(16_000);
    for k in 0..case.commands * (1 + usize::from(costed)) {
        let when = match k < case.commands {
            true => T0 + rng.span(Duration::ZERO, horizon),
            false => T0 + tick * (10 + rng.below(8) as u64) - rng.span(Duration::ZERO, us(40)),
        };
        match rng.below(20) {
            0..=9 => world.at(when, Cmd::Activate(aperiodic[rng.below(aperiodic.len())])),
            10..=13 => {
                let dst = periodic[rng.below(periodic.len())];
                let home = owner_of(world.tenancy.ledger.merged(), pinned, dst).unwrap();
                let drain = when + rng.span(us(1), us(3_000));
                world.at(
                    when,
                    Cmd::Msg {
                        home,
                        dst,
                        high: true,
                    },
                );
                world.at(
                    drain,
                    Cmd::Msg {
                        home,
                        dst,
                        high: false,
                    },
                );
            }
            14..=18 => {
                let worker = rng.below(workers) as u16;
                let retire_after = (rng.below(2) == 0).then(|| rng.span(us(1), us(6_000)));
                world.at(
                    when,
                    Cmd::Admit {
                        worker,
                        period: us(4_000),
                        retire_after,
                    },
                );
            }
            _ => world.at(when, Cmd::Stop),
        }
    }
    // Early: shut down as soon as the last command is out, with jobs
    // and tokens in flight. Otherwise after a quiet tail: parks then run
    // into their timeouts, enough of them to teach both tick leads, so
    // the spin path is explored too.
    let last = world.script.iter().map(|(when, _)| *when).max();
    let (quiet, step) = match case.early {
        true => (last.unwrap_or(T0), us(1)),
        false => (T0 + horizon + us(40_000), us(1_000)),
    };
    world.run_until(quiet);
    // Whatever was gated on an acknowledgement or scheduled at a commit.
    while !world.script.is_empty() {
        world.run_until(world.now() + step);
    }
    let down = world.now();
    world.at(down, Cmd::Shutdown);
    world.run();
    let (seen, recycled, held_arrivals) = (world.next_seen, world.recycled, world.held_arrivals);
    let routed_late = world.routed() - world.routed_at_shutdown;
    let trace = std::mem::take(&mut world.trace);
    Explored {
        reports: world.finish(),
        seen,
        recycled,
        held_arrivals,
        routed_late,
        trace,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

    /// The invariants of [`World`] over seed × shape × task-set size ×
    /// command schedule.
    #[test]
    fn any_schedule_keeps_the_protocol(
        seed in any::<u64>(),
        shape in 0usize..5,
        stealing in any::<bool>(),
        tasks in 1usize..3,
        commands in 0usize..14,
        early in any::<bool>(),
    ) {
        const SHAPES: [Shape; 5] =
            [Shape::Alone, Shape::Helpers, Shape::Shards(2), Shape::Shards(3), Shape::Shards(3)];
        explore(Case { seed, shape: SHAPES[shape], stealing, tasks, commands, early }, 48);
    }
}

/// The case to replay: paste what a failure printed. Until then, the
/// generated case that found two instances of one task overlapping.
const REPLAY: Case = Case {
    seed: 9185883544293053237,
    shape: Shape::Shards(2),
    stealing: true,
    tasks: 2,
    commands: 12,
    early: false,
};

#[test]
fn replay() {
    let run = explore(REPLAY, usize::MAX);
    run.trace.iter().for_each(|line| println!("{line}"));
    let [steps, park, spin, exit] = run.seen;
    println!("{REPLAY:?}: {steps} Run, {park} Park, {spin} SpinTo, {exit} Exit");
    (run.reports)
        .iter()
        .for_each(|r| println!("{:?} {:?}", r.ticks, r.steals));
}

#[test]
fn the_exploration_reaches_every_part_of_the_protocol() {
    // What the generated runs are made of: unless they steal, keep
    // instances, route tokens — during the drain too — splice tenants —
    // into a retired one's slot too — and park for every reason there
    // is, their invariants hold of nothing.
    let mut stats = EngineStats::default();
    let (mut seen, mut recycled, mut routed_late, mut kept) = ([0; 4], 0, 0, 0);
    for seed in 0..if cfg!(miri) { 2 } else { 24 } {
        let case = Case {
            seed,
            shape: Shape::Shards(2 + (seed % 2) as usize),
            stealing: true,
            tasks: 2,
            commands: 12,
            early: seed % 4 < 2,
        };
        let run = explore(case, 48);
        recycled += run.recycled;
        routed_late += run.routed_late;
        run.reports.iter().for_each(|r| stats.merge(&r.stats));
        kept += run.reports.iter().map(|r| r.steals.continued).sum::<u64>();
        (0..4).for_each(|k| seen[k] += run.seen[k]);
    }
    if cfg!(miri) {
        return;
    }
    assert!(stats.stolen > 0 && stats.cross_activations > 0, "{stats:?}");
    assert!(stats.culled > 0 && stats.msg_boosts > 0, "{stats:?}");
    assert!(
        seen.iter().all(|&n| n > 0),
        "Run/Park/SpinTo/Exit: {seen:?}"
    );
    assert!(recycled > 0, "no admission took a retired tenant's slot");
    assert!(kept > 0, "no peer kept an instance");
    assert!(routed_late > 0, "no token was routed after Shutdown");
}

/// Park lateness by kind: `far` for parks armed a millisecond or more
/// ahead, `near` for the others.
fn by_kind(
    mut far: impl FnMut(&mut Rng) -> Duration + 'static,
    mut near: impl FnMut(&mut Rng) -> Duration + 'static,
) -> Box<Lateness> {
    Box::new(move |armed, rng| match armed >= us(1_000) {
        true => far(rng),
        false => near(rng),
    })
}

/// Lateness as `late` lists it, in µs, one value per park; the last
/// holds for good.
fn listed(late: &[u64]) -> impl FnMut(&mut Rng) -> Duration {
    let mut late: VecDeque<u64> = late.iter().copied().collect();
    move |_| match late.len() {
        1 => us(late[0]),
        _ => us(late.pop_front().expect("a list of one or more")),
    }
}

/// One owner over one slot with `p` every 50 ms (the tick) and the
/// aperiodic `a`, no jitter, 5 µs bodies, and parks that return as late
/// as `lateness` says. The owner's anchor is [`T0`], so its `k`-th edge
/// is `T0 + k × 50 ms`.
fn ticking_alone(lateness: Box<Lateness>) -> (World, TaskId) {
    let mut b = TaskSetBuilder::new();
    task(&mut b, TaskSpec::periodic("p", us(50_000)), None, us(100));
    let a = task(&mut b, TaskSpec::aperiodic("a"), None, us(100));
    let label = "ticking_alone".to_owned();
    let mut world = World::new(label, 0, b.build().unwrap(), one_owner(1), false);
    world.jitter = Duration::ZERO;
    world.body_time = Box::new(|_, _| us(5));
    world.lateness = lateness;
    (world, a)
}

fn edge(k: u64) -> Instant {
    T0 + us(50_000) * k
}

/// How late the tick round of edge `k` began: the start latency of the
/// first job released there (no jitter, so it starts as the round ends).
fn round_late(world: &World, k: u64) -> Duration {
    let records = world.owners[0].report.records.iter();
    let burst = records.filter(|r| r.job.release == edge(k));
    burst
        .map(RtJobRecord::start_latency)
        .min()
        .expect("a job of edge k ran")
}

#[test]
fn a_command_inside_the_lead_is_served_before_the_edge() {
    // Far parks return 100 µs late. Eight of them teach the far lead,
    // and from edge 9 on each far park ends the margin ahead of the
    // near park's arming point. The next eight near parks teach the
    // near lead their lower quartile, 120 µs. The ninth, armed that
    // much early, ends on edge 17. The tenth returns after 60 µs only:
    // 60 µs ahead of edge 18 and inside the near lead, so the owner
    // spins — and an activation that lands 20 µs ahead of the edge is
    // applied at that instant.
    let near = listed(&[130, 99, 167, 120, 126, 140, 111, 150, 120, 60]);
    let (mut world, a) = ticking_alone(by_kind(listed(&[100]), near));
    world.run_until(edge(16) + us(1_000));
    assert_eq!(
        world.owners[0].leads(),
        (us(120), us(100) + FAR_MARGIN),
        "the near window's lower quartile, the far window's upper decile"
    );
    world.run_until(edge(17) + us(1_000));
    assert_eq!(round_late(&world, 17), Duration::ZERO);
    assert_eq!(world.next_seen[2], 0, "no spin so far");
    let sent = edge(18) - us(20);
    world.at(sent, Cmd::Activate(a));
    world.at(edge(18) + us(10_000), Cmd::Shutdown);
    world.run();
    let ran: Vec<_> = (world.owners[0].report.records.iter())
        .filter(|r| r.job.task == a)
        .collect();
    assert_eq!(ran.len(), 1, "activated once");
    assert_eq!(ran[0].job.release, sent, "applied when it arrived");
    assert_eq!(ran[0].started, sent, "and started then: ahead of the edge");
    let ticks = world.finish()[0].ticks;
    // Spun from 60 µs ahead of the edge to the command, and again from
    // the end of `a`'s 5 µs to the edge.
    assert_eq!(
        (ticks.early_wakes, ticks.spin_ns),
        (2, 40_000 + 15_000),
        "{ticks:?}"
    );
    // 60 99 [111] 120 120 …: the tenth sample moved the lead one rank.
    assert_eq!(ticks.lead_ns, 111_000);
    assert_eq!(ticks.far_lead_ns, (us(100) + FAR_MARGIN).as_nanos());
    assert_eq!(
        (ticks.edges, ticks.near_parks),
        (18, 10),
        "and no round ahead of its edge: `tick_rounds_kept_to`"
    );
}

#[test]
fn the_lead_is_bounded_and_cheap() {
    let run = |far: u64, near: u64, edges: u64| {
        let (mut world, _) = ticking_alone(by_kind(listed(&[far]), listed(&[near])));
        world.at(edge(edges) + us(10_000), Cmd::Shutdown);
        world.run();
        let spins = world.next_seen[2];
        (world.finish()[0].ticks, spins)
    };
    let margin = FAR_MARGIN.as_nanos();
    // A timer that is on time teaches no lead: every far park ends the
    // margin ahead of its edge, every near park on it, and an owner
    // without a near lead never spins.
    let (plain, spins) = run(0, 0, 24);
    assert_eq!((plain.lead_ns, plain.far_lead_ns), (0, margin));
    assert_eq!((plain.spin_ns, plain.early_wakes, spins), (0, 0, 0));
    assert_eq!(
        (plain.edges, plain.near_parks, plain.late_max_ns),
        (24, 24, 0)
    );
    // Far parks 100 µs late and near ones 60 µs teach exactly that:
    // eight rounds begin 80 µs late (the far park alone, armed the
    // margin ahead), eight 60 µs late (no near lead yet), every later
    // one on its edge, and with nothing ever early nothing is spun away.
    let (led, spins) = run(100, 60, 40);
    assert_eq!((led.lead_ns, led.far_lead_ns), (60_000, 100_000 + margin));
    assert_eq!((led.late_max_ns, led.late_p50_ns), (100_000 - margin, 0));
    assert_eq!(
        (
            led.edges,
            led.near_parks,
            led.spin_ns,
            led.early_wakes,
            spins
        ),
        (40, 32, 0, 0, 0)
    );
    // However late the timer, the two leads stop at the cap together
    // (and at an eighth of the tick, 6.25 ms here).
    let (capped, _) = run(4_000, 4_000, 24);
    assert_eq!(
        capped.lead_ns + capped.far_lead_ns,
        TimerLead::CAP.as_nanos()
    );
    assert_eq!(capped.late_max_ns, 4_000_000 - margin);
}

#[test]
fn a_quarter_of_the_parks_end_early_and_spin_to_their_edge() {
    // Far parks return 100 µs late, near ones 160, 140, 120, 100 µs,
    // over and over. Eight far parks teach the far lead; the next eight
    // near parks a near lead of 120 µs, the lower quartile, and it stays
    // there: every window holds as many 100s as its rank, never more.
    // From edge 17 on, the 120s end on their edge, the 140s and 160s 20
    // and 40 µs past it, and the 100s — a quarter — 20 µs ahead, spun
    // away.
    let cycle = [160, 140, 120, 100];
    let near: Vec<u64> = (0..100).map(|k| cycle[k % 4]).collect();
    let (mut world, _) = ticking_alone(by_kind(listed(&[100]), listed(&near)));
    for k in 16..=80 {
        world.run_until(edge(k) + us(1_000));
        assert_eq!(world.owners[0].leads().0, us(120), "after edge {k}");
    }
    world.at(edge(80) + us(10_000), Cmd::Shutdown);
    world.run();
    let ticks = world.finish()[0].ticks;
    assert_eq!(
        (ticks.edges, ticks.lead_ns, ticks.near_parks),
        (80, 120_000, 72)
    );
    assert_eq!(
        (ticks.early_wakes, ticks.spin_ns),
        (64 / 4, 64 / 4 * 20_000),
        "{ticks:?}"
    );
    // After the warm-ups half the rounds begin on their edge, a quarter
    // 20 µs late and a quarter 40 µs; with the warm-ups' sixteen late
    // ones the median is the 20 µs residual.
    let mut residual = LateHist::new();
    residual.record(us(20));
    assert_eq!(ticks.late_p50_ns, residual.median());
    assert_eq!(ticks.late_max_ns, 160_000, "a warm-up round");
}

#[test]
fn a_far_then_a_near_park_meet_every_edge() {
    // Far parks end 80–130 µs late, near ones 58–62 µs: the far lead
    // settles at the far parks' upper decile, ≈ 125 µs, so with the
    // margin no far park ends past the near arming point, and the near
    // lead at the near parks' lower quartile, ≈ 59 µs, so every near
    // park ends within 4 µs of its edge — ahead of it, spun away, or
    // past it. Far park 60 (the one before edge 60) is 175 µs late:
    // past the near arming point, ≈ 205 µs ahead of the edge, but short
    // of the edge, so the owner spins. Far park 65, 400 µs late, ends
    // past its edge, whose round is late. Those two are the far parks
    // that overshoot from edge 21 on.
    let mut far_parks = 0;
    let far = move |rng: &mut Rng| {
        far_parks += 1;
        match far_parks {
            60 => us(175),
            65 => us(400),
            _ => rng.span(us(80), us(130)),
        }
    };
    let near = |rng: &mut Rng| rng.span(us(58), us(62));
    let (mut world, _) = ticking_alone(by_kind(far, near));
    // Quiet admissions: one lands in a far park, one in a near park.
    world.at(edge(30) + us(10_000), admit_every_tick());
    world.at(edge(40) - us(30), admit_every_tick());
    world.run_until(edge(20) + us(1_000));
    let mut before = world.owners[0].report.ticks;
    for k in 21..=70 {
        world.run_until(edge(k) + us(1_000));
        let ticks = world.owners[0].report.ticks;
        let near_parks = ticks.near_parks - before.near_parks;
        let early = ticks.early_wakes - before.early_wakes;
        let overshot = ticks.far_overshoots - before.far_overshoots;
        assert_eq!(overshot, u64::from(k == 60 || k == 65), "edge {k}");
        let late = round_late(&world, k);
        match k {
            60 => assert_eq!(
                (near_parks, early, late),
                (0, 1, Duration::ZERO),
                "edge {k}: the far park overshot, the owner spun to the edge"
            ),
            65 => assert!(
                near_parks == 0 && early == 0 && late > us(100),
                "edge {k}: the far park overshot the edge, the round is late: {late}"
            ),
            _ => {
                assert_eq!(near_parks, 1, "edge {k}: one near park");
                assert!(late <= us(5), "edge {k}: the round began {late} past it");
            }
        }
        before = ticks;
    }
    // Both tenants' releases are anchored at the edge after their
    // admission.
    let first_release = |t: u32| {
        let records = world.owners[0].report.records.iter();
        let of_t = records.filter(|r| r.job.task == TaskId::new(t));
        of_t.map(|r| r.job.release).min()
    };
    assert_eq!(first_release(2), Some(edge(31)));
    assert_eq!(first_release(3), Some(edge(40)));
    assert_eq!(world.rung_wakes, 0, "both were heard without a ring");
    world.at(edge(70) + us(10_000), Cmd::Shutdown);
    world.run();
    world.finish();
}

#[test]
fn a_message_event_goes_straight_to_the_receivers_owner() {
    // `s` (shard 0) feeds `r` (shard 1) over a DAG edge bound to a
    // channel with a ceiling. Shard 1 runs `busy` from the start for
    // 3 ms; `s` is activated at 100 µs and runs for 500 µs. From inside
    // `s`'s body a high message is sent, and the post goes into the
    // shared lane of shard 1, `r`'s owner. `s`'s completion sends `r` its
    // token over the peer lane. Shard 1 hears both at its job boundary,
    // the shared lane first — its mailbox was never served before — so
    // `r`'s job is released boosted. `r`'s body takes the message, and
    // the drain goes into shard 1's own queue. No peer lane ever
    // carries either event.
    let mut b = TaskSetBuilder::new();
    let s = task(&mut b, TaskSpec::aperiodic("s"), Some(0), us(500));
    let r = task(&mut b, TaskSpec::graph_node("r"), Some(1), us(100));
    let busy = task(
        &mut b,
        TaskSpec::periodic("busy", us(4_000)),
        Some(1),
        us(3_000),
    );
    let c = b.channel_decl_prioritized("c", 4, 8, 4, Priority::HIGHEST);
    b.channel_connect(s, r, c).unwrap();
    let config = sharded(2).build().unwrap();
    let mut launch = RuntimeBuilder::new(Arc::new(b.build().unwrap()), config);
    let (tx, rx) = launch.channel::<u64>(c).unwrap();
    let mut world = World::wired("straight".into(), 0, launch);
    world.jitter = Duration::ZERO;
    world.body_time = Box::new(move |job, _| match job.task {
        t if t == busy => us(3_000),
        t if t == s => us(500),
        _ => us(100),
    });
    let shared_len = |world: &World, o: usize| try_lock(&world.lanes[o]).unwrap().len();
    let peer_len = |world: &World| {
        let txs = world
            .owners
            .iter()
            .flat_map(|o| o.peers.txs.iter().flatten());
        txs.map(MailboxSender::len).sum::<usize>()
    };
    let in_body = |world: &World, o: usize, t: TaskId| match world.seats[o] {
        Seat::InBody(rec) => rec.job.task == t,
        _ => false,
    };
    world.at(T0 + us(100), Cmd::Activate(s));
    world.run_until(T0 + us(300));
    assert!(in_body(&world, 0, s) && in_body(&world, 1, busy));
    let Seat::InBody(rec) = world.seats[0] else {
        unreachable!()
    };
    world.owners[0].in_body((rec.job.task, rec.version), |_| tx.send_high(7).unwrap());
    assert_eq!(shared_len(&world, 1), 1, "the post is in r's owner's lane");
    assert_eq!(world.owners[0].local().posts.len(), 0);
    assert_eq!(peer_len(&world), 0);
    world.run_until(T0 + us(1_000));
    assert!(in_body(&world, 1, busy), "shard 1 is still inside busy");
    assert_eq!(
        (shared_len(&world, 1), peer_len(&world)),
        (1, 1),
        "the post in shard 1's lane, the token alone on the peer lane"
    );
    world.run_until(T0 + us(3_050));
    assert!(in_body(&world, 1, r), "r runs after busy");
    let shard1 = &world.owners[1].engine;
    assert_eq!(shard1.high_lane_depth(r), 1);
    assert_eq!(
        shard1.stats().msg_boosts,
        0,
        "no queued job was boosted: r's job was released boosted"
    );
    let Seat::InBody(rec) = world.seats[1] else {
        unreachable!()
    };
    assert_eq!(
        rec.job.priority,
        Priority::HIGHEST,
        "released under the ceiling"
    );
    world.owners[1].in_body((r, rec.version), |_| assert_eq!(rx.recv(), Some(7)));
    let posts = &world.owners[1].local().posts;
    assert!(
        matches!(posts.front(), Some(ShardMsg::Msg(MsgEvent::HighDrained { dst })) if *dst == r)
            && posts.len() == 1,
        "the drain is in shard 1's own queue"
    );
    assert_eq!((shared_len(&world, 1), peer_len(&world)), (0, 0));
    world.run_until(T0 + us(3_200));
    assert_eq!(world.owners[1].engine.high_lane_depth(r), 0, "drained");
    world.at(world.now(), Cmd::Shutdown);
    world.run();
    world.finish();
}

#[test]
fn a_post_during_the_drain_loses_no_token() {
    // Two shards, each with a periodic task every 100 ms for the tick,
    // and a chain `c0 → … → c7` that alternates shard 0 and 1: `c0` is
    // activated at 100 µs and `Shutdown` sent at 175 µs, while `c1`
    // runs on shard 1, so six tokens of the chain cross shards during
    // the drain. Shard 0 runs `c2` for 500 µs, and from inside its body
    // a high message is posted and drained for `p0`: events into shard
    // 0's own queue, handled at its job boundary beside the token it
    // routes to `c3`. Every node of the chain runs, on every seed.
    for seed in 0..64 {
        let mut b = TaskSetBuilder::new();
        let p0 = task(
            &mut b,
            TaskSpec::periodic("p0", us(100_000)),
            Some(0),
            us(50),
        );
        task(
            &mut b,
            TaskSpec::periodic("p1", us(100_000)),
            Some(1),
            us(50),
        );
        let chain: Vec<TaskId> = (0..8u16)
            .map(|k| {
                let spec = match k {
                    0 => TaskSpec::aperiodic("c0"),
                    _ => TaskSpec::graph_node(format!("c{k}")),
                };
                task(&mut b, spec, Some(k % 2), us(50))
            })
            .collect();
        for pair in chain.windows(2) {
            let c = b.channel_decl("c", 1, 8);
            b.channel_connect(pair[0], pair[1], c).unwrap();
        }
        let config = sharded(2).build().unwrap();
        let label = format!("drain post, seed {seed}");
        let mut world = World::new(label, seed, b.build().unwrap(), config, false);
        world.jitter = Duration::ZERO;
        let c2 = chain[2];
        world.body_time = Box::new(move |job, _| match job.task == c2 {
            true => us(500),
            false => us(50),
        });
        world.at(T0 + us(100), Cmd::Activate(chain[0]));
        world.at(T0 + us(175), Cmd::Shutdown);
        for (at, high) in [(450, true), (460, false)] {
            let msg = Cmd::Msg {
                home: 0,
                dst: p0,
                high,
            };
            world.at(T0 + us(at), msg);
        }
        world.run();
        let records = world.owners.iter().flat_map(|o| &o.report.records);
        let ran: HashSet<TaskId> = records.map(|r| r.job.task).collect();
        for (k, c) in chain.iter().enumerate() {
            assert!(ran.contains(c), "seed {seed}: c{k} never ran");
        }
        world.finish();
    }
}

/// An admission of a one-task tenant with the tick as its period.
fn admit_every_tick() -> Cmd {
    Cmd::Admit {
        worker: 0,
        period: us(50_000),
        retire_after: None,
    }
}

#[test]
fn one_owner_hears_an_admission_and_a_retirement_at_its_next_edge() {
    // Tenant A (T2) is admitted 10 ms after edge 1. Ten ms after edge
    // 3, tenant B (T3) is admitted and A retired behind it. Both
    // commands are sent quietly: the owner sleeps through them to its
    // timeout, and its next pass applies them ahead of the tick round.
    let (mut world, _) = ticking_alone(by_kind(listed(&[30]), listed(&[30])));
    world.at(edge(1) + us(10_000), admit_every_tick());
    world.at(edge(3) + us(10_000), admit_every_tick());
    world.at(edge(3) + us(10_001), Cmd::Retire(TenantId::new(1)));
    world.run_until(edge(4) + us(1_000));
    assert_eq!(world.rung_wakes, 0, "no park ended before its timeout");
    assert!(
        world.script.is_empty() && world.quiet[0] == 0,
        "all applied"
    );
    let releases = |world: &World, t: u32| -> Vec<Instant> {
        let records = world.owners[0].report.records.iter();
        let of_t = records.filter(|r| r.job.task == TaskId::new(t));
        of_t.map(|r| r.job.release).collect()
    };
    // A's releases are anchored at the edge after its admission, where
    // a rung commit would have anchored them too, and B's likewise. The
    // retirement applied ahead of edge 4's round: A released nothing
    // there, so nothing of it was culled.
    assert_eq!(releases(&world, 2), [edge(2), edge(3)]);
    assert_eq!(releases(&world, 3), [edge(4)]);
    let stats = world.owners[0].engine.stats();
    assert_eq!((stats.culled, stats.released), (0, 5 + 2 + 1), "{stats:?}");
    world.at(edge(5) + us(10_000), Cmd::Shutdown);
    world.run();
    world.finish();
}

#[test]
fn a_park_that_times_out_beside_a_quiet_command_teaches_the_lead() {
    // Every far park from the start to edge 8 runs into its timeout
    // 130 µs late with a quietly sent admission waiting: eight samples,
    // so the far lead is 130 µs once edge 8 is past.
    let (mut world, _) = ticking_alone(by_kind(listed(&[130]), listed(&[130])));
    for k in 0..8 {
        world.at(edge(k) + us(20_000), admit_every_tick());
    }
    world.run_until(edge(8) + us(1_000));
    assert_eq!(world.rung_wakes, 0);
    assert_eq!(world.owners[0].leads().1, us(130) + FAR_MARGIN);
    world.at(edge(8) + us(10_000), Cmd::Shutdown);
    world.run();
    world.finish();
}

/// A tenant of two tasks: `root`, aperiodic, feeding `node` over a
/// channel, on `workers.0` and `workers.1` when the set is sharded.
fn dag_tenant(workers: (Option<u16>, Option<u16>)) -> TaskSet {
    let mut b = TaskSetBuilder::new();
    let root = task(&mut b, TaskSpec::aperiodic("root"), workers.0, us(100));
    let node = task(&mut b, TaskSpec::graph_node("node"), workers.1, us(100));
    let c = b.channel_decl("c", 1, 8);
    b.channel_connect(root, node, c).unwrap();
    b.build().unwrap()
}

#[test]
fn a_helpers_straggler_fires_nothing_of_the_heir() {
    // One owner, two helpers, `p` every 4 ms. Tenant A (T1 `root` →
    // T2 `node`) is admitted, and its root, activated at 4.5 ms, runs
    // 5 ms on a helper. Meanwhile A is retired and B, of A's shape,
    // admitted: both quietly, so both apply at the 8 ms edge, where B
    // takes A's slot. When the helper finishes A's root, B's node gets
    // no token and releases nothing. B's own root then feeds it.
    let mut b = TaskSetBuilder::new();
    task(&mut b, TaskSpec::periodic("p", us(4_000)), None, us(100));
    let set = b.build().unwrap();
    let mut world = World::new("straggler".into(), 0, set, one_owner(2), false);
    world.jitter = Duration::ZERO;
    let (root, node) = (TaskId::new(1), TaskId::new(2));
    world.body_time = Box::new(move |job, _| match job.task == root && job.seq == 0 {
        true => us(5_000),
        false => us(100),
    });
    world.at(T0 + us(500), admit_set(dag_tenant((None, None))));
    world.at(T0 + us(4_500), Cmd::Activate(root));
    world.at(T0 + us(5_000), Cmd::Retire(TenantId::new(1)));
    world.at(T0 + us(5_001), admit_set(dag_tenant((None, None))));
    world.run_until(T0 + us(9_000));
    assert_eq!(world.recycled, 1);
    let engine = &world.owners[0].engine;
    assert_eq!(engine.tenant_of_task(node), Some(TenantId::new(2)));
    let busy = world.helpers[0].iter().filter_map(|h| h.busy);
    let straggler = busy.filter(|r| r.job.task == root).count();
    assert_eq!(straggler, 1, "A's root still runs on a helper");
    let released = engine.stats().released;
    // It ends at 9.5 ms; the next release of `p` is at 12 ms.
    world.run_until(T0 + us(11_000));
    let ran = |world: &World, t: TaskId| {
        let records = world.owners[0].report.records.iter();
        records.filter(|r| r.job.task == t).count()
    };
    assert_eq!(ran(&world, root), 1, "the straggler finished");
    assert_eq!(
        world.owners[0].engine.stats().released,
        released,
        "A's root fired nothing of B"
    );
    world.at(T0 + us(11_000), Cmd::Activate(root));
    world.run_until(T0 + us(11_500));
    assert_eq!(ran(&world, node), 1, "B's root fed B's node");
    world.at(T0 + us(12_500), Cmd::Shutdown);
    world.run();
    world.finish();
}

#[test]
fn a_former_holders_token_after_the_heirs_splice_is_dropped() {
    // Two shards, `p0` and `p1` every 4 ms. Tenant A: `root` on shard 0
    // feeding `node` on shard 1. Shard 1 runs `busy` from 1 ms to 4 ms;
    // A's root runs at 1.1 ms, and its completion sends `node` a token
    // over the peer lane, which is held back in flight, as a full lane's
    // spill would hold it. A is retired and B, of A's shape, admitted:
    // both shards splice B into A's slot, acknowledge and commit. Then
    // the token arrives. It names B's edge, but A's graph instance,
    // released before B began: shard 1 drops it, and B's node releases
    // nothing.
    let mut b = TaskSetBuilder::new();
    for w in 0..2 {
        let spec = TaskSpec::periodic(format!("p{w}"), us(4_000));
        task(&mut b, spec, Some(w), us(100));
    }
    let busy = task(&mut b, TaskSpec::aperiodic("busy"), Some(1), us(3_000));
    let config = sharded(2).build().unwrap();
    let mut world = World::new("late token".into(), 0, b.build().unwrap(), config, false);
    world.jitter = Duration::ZERO;
    world.body_time = Box::new(move |job, _| match job.task == busy {
        true => us(3_000),
        false => us(100),
    });
    let (root, node) = (TaskId::new(3), TaskId::new(4));
    world.at(T0 + us(500), admit_set(dag_tenant((Some(0), Some(1)))));
    world.at(T0 + us(1_000), Cmd::Activate(busy));
    world.at(T0 + us(1_100), Cmd::Activate(root));
    world.run_until(T0 + us(1_500));
    let lane = &mut world.owners[1].local.as_mut().unwrap().rx;
    let token = lane.pop_lane(LANE_PEER0).expect("A's token is on its way");
    assert!(matches!(token, ShardMsg::Token(_)));
    // Out of the lane, off the count: `peers.send` counts it again.
    world.lanes.finish();
    world.at(T0 + us(1_600), Cmd::Retire(TenantId::new(1)));
    world.at(T0 + us(1_700), admit_set(dag_tenant((Some(0), Some(1)))));
    world.run_until(T0 + us(4_500));
    assert!(world.script.is_empty(), "B spliced and committed");
    assert_eq!(world.recycled, 1);
    let shard1 = &world.owners[1].engine;
    assert_eq!(shard1.tenant_of_task(node), Some(TenantId::new(2)));
    let released = shard1.stats().released;
    world.owners[0].peers.send(1, token);
    world.run_until(T0 + us(5_000));
    let shard1 = &world.owners[1].engine;
    assert_eq!(
        shard1.stats().released,
        released,
        "B's node released nothing"
    );
    let records = world.owners[1].report.records.iter();
    assert_eq!(records.filter(|r| r.job.task == node).count(), 0);
    world.at(T0 + us(5_500), Cmd::Shutdown);
    world.run();
    world.finish();
}

#[test]
fn bodies_beyond_the_tenant_are_never_filed() {
    // One owner, `p` every 4 ms. Tenants A and B, of one task each,
    // take T1 and T2. A is retired, and C, of their shape, takes T1
    // with a body for a second task it does not have; D is appended
    // with one too. The owner runs the one table the admissions built:
    // B's task keeps B's body, the table holds one body per task, and
    // the extra key is never read.
    let mut b = TaskSetBuilder::new();
    task(&mut b, TaskSpec::periodic("p", us(4_000)), None, us(100));
    let mut world = World::new("extra".into(), 0, b.build().unwrap(), one_owner(1), false);
    let one = || {
        let mut b = TaskSetBuilder::new();
        task(&mut b, TaskSpec::aperiodic("t"), None, us(100));
        b.build().unwrap()
    };
    let v0 = VersionId::new(0);
    let extra: TaskBody = Arc::new(|_: &JobCtx| unreachable!("never filed"));
    let with_extra = |set: TaskSet| {
        let mut bodies = noop_bodies(&set);
        bodies.insert((TaskId::new(1), v0), Arc::clone(&extra));
        Cmd::AdmitSet(Box::new(set), bodies, None)
    };
    let (b_set, b_bodies) = (one(), noop_bodies(&one()));
    let b_body = Arc::clone(&b_bodies[&(TaskId::new(0), v0)]);
    world.at(T0 + us(500), admit_set(one()));
    world.at(T0 + us(600), Cmd::AdmitSet(Box::new(b_set), b_bodies, None));
    world.at(T0 + us(700), Cmd::Retire(TenantId::new(1)));
    world.at(T0 + us(800), with_extra(one()));
    world.at(T0 + us(900), with_extra(one()));
    world.run_until(T0 + us(5_000));
    assert!(world.script.is_empty(), "every tenant spliced");
    assert_eq!(world.recycled, 1);
    let owner = &world.owners[0];
    let holder = |t: u32| owner.engine.tenant_of_task(TaskId::new(t));
    assert_eq!(holder(1), Some(TenantId::new(3)));
    assert_eq!(holder(3), Some(TenantId::new(4)));
    let current = &world.tenancy.generations.last().unwrap().1;
    assert!(Arc::ptr_eq(&owner.bodies, current), "the shared table");
    let filed = owner.bodies.get(TaskId::new(2), v0);
    assert!(Arc::ptr_eq(filed, &b_body), "B's task keeps B's body");
    assert_eq!(owner.bodies.bodies.len(), 4);
    assert_eq!(Arc::strong_count(&extra), 1, "the extra key is never read");
    world.at(T0 + us(5_000), Cmd::Shutdown);
    world.run();
    world.finish();
}

#[test]
fn two_instances_of_one_task_never_overlap() {
    // Shard 0 enters `gate` with two instances of `t` queued behind it,
    // so both go on the shelf. Shard 1 takes one (`k = 1`: half the
    // load gap of 2) and runs it for 10 ms. `gate` ends after 2 ms, the
    // other instance comes home when the shelf closes, and shard 0
    // dispatches it — while the first still runs on shard 1.
    let mut b = TaskSetBuilder::new();
    let pre = task(&mut b, TaskSpec::aperiodic("pre"), Some(0), us(1_000));
    let gate = task(&mut b, TaskSpec::aperiodic("gate"), Some(0), us(2_000));
    let t = task(&mut b, TaskSpec::aperiodic("t"), Some(0), us(10_000));
    task(
        &mut b,
        TaskSpec::periodic("light", us(100_000)),
        Some(1),
        us(10),
    );
    let config = sharded(2).build().unwrap();
    let mut world = World::new("overlap".into(), 0, b.build().unwrap(), config, true);
    world.jitter = Duration::ZERO;
    world.body_time = Box::new(move |job, _| match job.task {
        task if task == pre => us(1_000),
        task if task == gate => us(2_000),
        task if task == t => us(10_000),
        _ => us(10),
    });
    // All three arrive inside `pre` and are queued, in this order, at
    // its end.
    world.at(T0 + us(100), Cmd::Activate(pre));
    for (i, queued) in [gate, t, t].into_iter().enumerate() {
        world.at(T0 + us(300 + i as u64), Cmd::Activate(queued));
    }
    world.run_until(T0 + us(50_000));
    world.at(world.now(), Cmd::Shutdown);
    world.run();
    let records = world.owners.iter().flat_map(|o| &o.report.records);
    let mut ran: Vec<_> = records.filter(|r| r.job.task == t).collect();
    ran.sort_by_key(|r| r.started);
    assert_eq!(ran.len(), 2, "both instances ran");
    assert!(
        ran[1].started >= ran[0].completed,
        "{:?} started on {} at {}, {} before {:?} ended on {}",
        ran[1].job.id,
        ran[1].worker,
        ran[1].started,
        ran[0].completed - ran[1].started,
        ran[0].job.id,
        ran[0].worker,
    );
    world.finish();
}

/// [`ticking_alone`] with parks on time and tick rounds that cost 20 µs
/// up to edge 11 and 5 µs after it. Eight rounds teach a round lead of
/// 20 µs, their upper decile, and it stays there for dozens of edges:
/// from edge 9 on each round is pre-staged 20 µs ahead of its edge, and
/// from edge 12 on the owner holds what it dispatched for the 15 µs the
/// round did not take, `[edge − 15 µs, edge)`.
fn holding_alone() -> (World, TaskId) {
    let (mut world, a) = ticking_alone(by_kind(listed(&[0]), listed(&[0])));
    world.round_cost[0] = us(20);
    world.run_until(edge(11) + us(1_000));
    world.round_cost[0] = us(5);
    assert_eq!(world.owners[0].round_lead, us(20));
    (world, a)
}

/// Runs `world` to `edge − 1 µs` and checks that its owner 0 holds the
/// pre-staged `edge` with `queued` arrivals in its own queue.
fn held_at(world: &mut World, edge: Instant, queued: usize) {
    world.run_until(edge - us(1));
    let owner = &world.owners[0];
    assert_eq!(owner.held, Some(edge), "pre-staged");
    assert!(matches!(world.seats[0], Seat::Spinning { edge: e, .. } if e == edge));
    assert_eq!(owner.local.as_ref().unwrap().posts.len(), queued, "queued");
}

/// The first job of task `t` that owner 0 ran.
fn first_of(world: &World, t: TaskId) -> RtJobRecord {
    let records = world.owners[0].report.records.iter();
    *records
        .filter(|r| r.job.task == t)
        .min_by_key(|r| r.started)
        .unwrap()
}

#[test]
fn a_pre_staged_edge_leaves_the_records_as_they_were() {
    // One owner over one slot, four periodic tasks on a 1 ms tick; the
    // 10 ms one runs across an edge. Far parks end 30 µs late, near ones
    // 10 µs. Run once with rounds that cost nothing, and once with rounds
    // that cost 7, 3 and 5 µs in turn: the second run learns a round
    // lead of 7 µs and pre-stages its edges, holding each dispatch for
    // the 0–4 µs its round did not take. Past the warm-up both runs
    // start every job at the same instant, and no body starts before
    // its edge — `finish` checks every release, `apply` every hold.
    let ms = |k: u64| T0 + us(1_000) * k;
    let run = |costs: &[u64]| {
        let mut b = TaskSetBuilder::new();
        let periods = [1_000, 2_000, 5_000, 10_000];
        let spans = [40, 100, 150, 1_300];
        let ids: Vec<TaskId> = (periods.iter())
            .map(|&p| task(&mut b, TaskSpec::periodic("p", us(p)), None, us(100)))
            .collect();
        let mut world = World::new("records".into(), 0, b.build().unwrap(), one_owner(1), false);
        world.jitter = Duration::ZERO;
        world.body_time =
            Box::new(move |job, _| us(spans[ids.iter().position(|&t| t == job.task).unwrap()]));
        world.lateness = Box::new(|armed, _| match armed > us(100) {
            true => us(30),
            false => us(10),
        });
        for k in 0..200 {
            world.round_cost[0] = us(costs[k as usize % costs.len()]);
            world.run_until(ms(k) + us(700));
        }
        world.at(world.now(), Cmd::Shutdown);
        world.run();
        let reports = world.finish();
        let settled = |r: &&RtJobRecord| r.job.release >= ms(40) && r.job.release < ms(190);
        let records: Vec<_> = reports[0].records.iter().filter(settled).copied().collect();
        (records, reports[0].ticks)
    };
    let (plain, plain_ticks) = run(&[0]);
    let (staged, staged_ticks) = run(&[7, 3, 5]);
    assert_eq!((plain_ticks.prestaged, plain_ticks.round_lead_ns), (0, 0));
    assert_eq!(staged_ticks.round_lead_ns, 7_000);
    assert!(staged_ticks.prestaged >= 150, "{staged_ticks:?}");
    let key = |r: &RtJobRecord| (r.job.id, r.job.release, r.started, r.completed);
    assert_eq!(
        plain.iter().map(key).collect::<Vec<_>>(),
        staged.iter().map(key).collect::<Vec<_>>()
    );
    // Each edge's first job starts on it — held to it, never ahead — but
    // where the 10 ms task's body runs across the edge.
    for k in (40..190).filter(|k| k % 10 != 1) {
        let first = staged.iter().filter(|r| r.job.release == ms(k));
        assert_eq!(first.map(|r| r.started).min(), Some(ms(k)), "edge {k}");
    }
}

#[test]
fn what_lands_in_a_hold_is_applied_at_its_edge_ahead_of_the_held_body() {
    // Shard 0 has `p0` (the 50 ms tick), `a0` and `dst`; shard 1 has
    // `p1` and `src`, which feeds `dst` over a DAG edge. Shard 0's rounds
    // cost as in `holding_alone`; shard 1's cost nothing, so it never
    // pre-stages and never moves shard 0's time. At edge 14 shard 0 holds
    // `p0`'s job from 15 µs ahead of the edge. Inside the hold `a0` is
    // activated, a high message for `a0` is posted, and `src`, activated
    // 100 µs ahead of the edge for 90 µs, sends `dst` its token. All three
    // wait in shard 0's own queue and are applied at the edge: `a0`'s job
    // is released at the edge, `dst`'s at its graph's release, both are
    // queued behind `p0`'s, and the boost is in place when `p0`'s body
    // begins.
    let mut b = TaskSetBuilder::new();
    let p0 = task(
        &mut b,
        TaskSpec::periodic("p0", us(50_000)),
        Some(0),
        us(100),
    );
    let a0 = task(&mut b, TaskSpec::aperiodic("a0"), Some(0), us(100));
    let dst = task(&mut b, TaskSpec::graph_node("dst"), Some(0), us(100));
    task(
        &mut b,
        TaskSpec::periodic("p1", us(50_000)),
        Some(1),
        us(100),
    );
    let src = task(&mut b, TaskSpec::aperiodic("src"), Some(1), us(100));
    let c = b.channel_decl("c", 1, 8);
    b.channel_connect(src, dst, c).unwrap();
    let config = sharded(2).build().unwrap();
    let mut world = World::new("hold".into(), 0, b.build().unwrap(), config, false);
    world.jitter = Duration::ZERO;
    world.body_time = Box::new(move |job, _| match job.task {
        t if t == src => us(90),
        _ => us(5),
    });
    world.lateness = by_kind(listed(&[0]), listed(&[0]));
    world.round_cost[0] = us(20);
    world.run_until(edge(11) + us(1_000));
    world.round_cost[0] = us(5);
    let e = edge(14);
    world.at(e - us(100), Cmd::Activate(src));
    world.at(e - us(12), Cmd::Activate(a0));
    let msg = |high| Cmd::Msg {
        home: 0,
        dst: a0,
        high,
    };
    world.at(e - us(11), msg(true));
    held_at(&mut world, e, 3);
    let released = world.owners[0].engine.stats().released;
    assert_eq!(world.owners[0].engine.high_lane_depth(a0), 0, "not yet");
    world.run_until(e + us(1));
    let Seat::InBody(held) = world.seats[0] else {
        panic!("shard 0 runs the held body")
    };
    assert_eq!((held.job.task, held.job.release, held.started), (p0, e, e));
    let engine = &world.owners[0].engine;
    assert_eq!(engine.stats().released, released + 2, "a0's and dst's jobs");
    assert_eq!(engine.ready_len(), 2, "behind the held one");
    assert_eq!(engine.high_lane_depth(a0), 1, "the post applied");
    world.at(e + us(1_000), msg(false));
    world.at(e + us(10_000), Cmd::Shutdown);
    world.run();
    for (t, release) in [(a0, e), (dst, e - us(100))] {
        let r = first_of(&world, t);
        assert_eq!(r.job.release, release, "{t}");
        assert!(r.started >= held.completed, "{t} ran after the held body");
    }
    world.finish();
}

#[test]
fn a_quiet_admission_in_a_hold_anchors_at_the_following_edge() {
    // One lands 10 µs ahead of edge 14, inside its hold; one 1 µs past
    // edge 16, inside the held body. Both are applied after their edge's
    // round, so both tenants' releases begin at the edge after it.
    let (mut world, _) = holding_alone();
    world.at(edge(14) - us(10), admit_every_tick());
    world.at(edge(16) + us(1), admit_every_tick());
    held_at(&mut world, edge(14), 1);
    world.run_until(edge(17) + us(1_000));
    assert_eq!(first_of(&world, TaskId::new(2)).job.release, edge(15));
    assert_eq!(first_of(&world, TaskId::new(3)).job.release, edge(17));
    assert_eq!(world.rung_wakes, 0, "heard without a ring");
    world.at(edge(18) + us(10_000), Cmd::Shutdown);
    world.run();
    world.finish();
}

/// Owner 0's tick counters as they stand, `edges` included.
fn ticks_now(world: &World) -> TickStats {
    let owner = &world.owners[0];
    TickStats {
        edges: owner.late.count,
        ..owner.report.ticks
    }
}

#[test]
fn edges_ahead_of_a_learnt_round_lead_are_not_pre_staged() {
    // `holding_alone`'s first eight rounds teach the round lead: until
    // then there is none to pre-stage by, and from edge 9 on each edge
    // is pre-staged.
    let (mut world, _) = holding_alone();
    let ticks = ticks_now(&world);
    assert_eq!((ticks.edges, ticks.no_lead, ticks.prestaged), (11, 8, 3));
    world.at(edge(12) + us(10_000), Cmd::Shutdown);
    world.run();
    let ticks = world.finish()[0].ticks;
    assert_eq!((ticks.edges, ticks.no_lead, ticks.prestaged), (12, 8, 4));
}

#[test]
fn an_edge_a_body_runs_across_is_not_pre_staged() {
    // `a` runs 60 ms from 1 ms past edge 12: edge 13 falls inside its
    // body, and its round runs when the body is over.
    let (mut world, a) = holding_alone();
    world.body_time = Box::new(move |job, _| match job.task == a {
        true => us(60_000),
        false => us(5),
    });
    world.at(edge(12) + us(1_000), Cmd::Activate(a));
    world.at(edge(15) + us(10_000), Cmd::Shutdown);
    world.run();
    let ticks = world.finish()[0].ticks;
    assert_eq!(ticks.round_lead_ns, 20_000);
    assert_eq!(
        (ticks.edges, ticks.body_crossed, ticks.prestaged),
        (15, 1, 6)
    );
}

#[test]
fn an_edge_a_park_ends_past_is_not_pre_staged() {
    // From edge 12 on, near parks end 200 µs late: armed 20 µs ahead of
    // the edge, each ends 180 µs past it, and three such parks leave the
    // near lead, their lower quartile, at zero.
    let (mut world, _) = holding_alone();
    world.lateness = by_kind(listed(&[0]), listed(&[200]));
    world.at(edge(14) + us(10_000), Cmd::Shutdown);
    world.run();
    let ticks = world.finish()[0].ticks;
    assert_eq!((ticks.edges, ticks.woke_late, ticks.prestaged), (14, 3, 3));
    assert_eq!(ticks.lead_ns, 0);
}

#[test]
fn an_edge_that_passes_while_the_owner_works_is_not_pre_staged() {
    // From edge 12 on, a high-lane post for `a`, which has nothing to
    // run, rings the owner 25 µs ahead of each edge and its drain 1 ms
    // past it, and up to 30 µs go by between any two steps of the run:
    // a post that wakes the owner ahead of the edge, served past it,
    // kept that edge from being pre-staged.
    let (mut world, a) = holding_alone();
    world.jitter = us(30);
    for k in 12..40 {
        let msg = |high| Cmd::Msg {
            home: 0,
            dst: a,
            high,
        };
        world.at(edge(k) - us(25), msg(true));
        world.at(edge(k) + us(1_000), msg(false));
    }
    world.at(edge(40) + us(10_000), Cmd::Shutdown);
    world.run();
    let ticks = world.finish()[0].ticks;
    assert!(ticks.held_busy > 0 && ticks.prestaged > 0, "{ticks:?}");
}

#[test]
fn a_shutdown_in_a_hold_drains_without_loss() {
    // `Shutdown` lands 10 µs ahead of edge 14, inside its hold: the held
    // job runs at the edge, and the owner drains and exits after it
    // (`finish`: every released job ran or was culled).
    let (mut world, p) = (holding_alone().0, TaskId::new(0));
    world.at(edge(14) - us(10), Cmd::Shutdown);
    held_at(&mut world, edge(14), 1);
    world.run();
    let last = world.owners[0]
        .report
        .records
        .iter()
        .max_by_key(|r| r.started);
    let last = *last.unwrap();
    assert_eq!(
        (last.job.task, last.job.release, last.started),
        (p, edge(14), edge(14))
    );
    let ticks = world.finish()[0].ticks;
    assert_eq!((ticks.edges, ticks.prestaged), (14, 6), "{ticks:?}");
}

#[test]
fn generated_schedules_pre_stage_edges_with_arrivals_in_their_holds() {
    // The generated runs whose rounds cost something pre-stage edges on
    // owners that run their bodies, alone or as shards, and commands
    // land in their holds — so `any_schedule_keeps_the_protocol` checks
    // holds too. An owner that feeds helpers never pre-stages.
    let (mut prestaged, mut held_arrivals, mut helpers) = (0, 0, 0);
    for seed in (0..if cfg!(miri) { 2 } else { 24 }).filter(|s| s % 3 != 0) {
        for shape in [Shape::Alone, Shape::Helpers, Shape::Shards(2)] {
            let case = Case {
                seed,
                shape,
                stealing: true,
                tasks: 2,
                commands: 12,
                early: false,
            };
            let run = explore(case, 48);
            let staged: u64 = run.reports.iter().map(|r| r.ticks.prestaged).sum();
            match shape {
                Shape::Helpers => helpers += staged,
                _ => prestaged += staged,
            }
            held_arrivals += run.held_arrivals;
        }
    }
    assert_eq!(helpers, 0);
    assert!(
        prestaged > 0 && held_arrivals > 0,
        "{prestaged} {held_arrivals}"
    );
}

/// Two shards with stealing: `busy` keeps shard 1 inside a body from
/// 0.1 ms to 3.1 ms; `src` and `also` on shard 0 run at 0.5 ms, each
/// for 100 µs. `src` feeds `dst`, and `src` and `also` both feed `join`,
/// both homed on shard 1. Returns the world run to its end, and the
/// tasks `(busy, src, dst, join)`.
fn a_successor_due_inside_a_body() -> (World, [TaskId; 4]) {
    let mut b = TaskSetBuilder::new();
    let busy = task(&mut b, TaskSpec::aperiodic("busy"), Some(1), us(3_000));
    let src = task(&mut b, TaskSpec::aperiodic("src"), Some(0), us(100));
    let also = task(&mut b, TaskSpec::aperiodic("also"), Some(0), us(100));
    let dst = task(&mut b, TaskSpec::graph_node("dst"), Some(1), us(100));
    let join = task(&mut b, TaskSpec::graph_node("join"), Some(1), us(100));
    let light = TaskSpec::periodic("light", us(100_000));
    task(&mut b, light, Some(0), us(10));
    for (i, (from, to)) in [(src, dst), (src, join), (also, join)]
        .into_iter()
        .enumerate()
    {
        let c = b.channel_decl(format!("c{i}"), 1, 8);
        b.channel_connect(from, to, c).unwrap();
    }
    let config = sharded(2).build().unwrap();
    let mut world = World::new("kept".into(), 0, b.build().unwrap(), config, true);
    world.jitter = Duration::ZERO;
    world.body_time = Box::new(move |job, _| match job.task == busy {
        true => us(3_000),
        false => us(100),
    });
    world.at(T0 + us(100), Cmd::Activate(busy));
    world.at(T0 + us(500), Cmd::Activate(src));
    world.at(T0 + us(500), Cmd::Activate(also));
    world.run_until(T0 + us(10_000));
    world.at(world.now(), Cmd::Shutdown);
    world.run();
    (world, [busy, src, dst, join])
}

#[test]
fn a_completer_keeps_the_successor_whose_home_is_inside_a_body() {
    // `src` ends at 0.6 ms on shard 0, inside `busy` on shard 1, whose
    // door on `dst` is open: shard 0 keeps `dst`'s instance and runs it
    // at once — the one shard 1 would have released, seq 0 of `src`'s
    // graph instance — instead of sending the token to wait until
    // 3.1 ms. Shard 1 books it released and donated when `busy` ends,
    // and its end comes home.
    let (world, [busy, src, dst, _]) = a_successor_due_inside_a_body();
    let of = |t: TaskId| -> Vec<RtJobRecord> {
        let records = world.owners.iter().flat_map(|o| &o.report.records);
        records.filter(|r| r.job.task == t).copied().collect()
    };
    let (busy, src, kept) = (of(busy)[0], of(src)[0], of(dst));
    assert_eq!(kept.len(), 1);
    let kept = kept[0];
    assert_eq!(kept.worker, WorkerId::new(0), "ran where src ended");
    assert!(kept.started < busy.completed, "ran while its home was busy");
    assert_eq!((kept.job.seq, kept.job.graph_release), (0, src.job.release));
    let deadline = world.owners[1].engine.taskset().effective_deadline(dst);
    let deadline = (deadline != Duration::MAX).then(|| src.job.release + deadline);
    assert_eq!(kept.job.abs_deadline, deadline.unwrap_or(Instant::MAX));
    let (steals, stats) = (
        &world.owners[0].report.steals,
        world.owners[0].engine.stats(),
    );
    assert_eq!((steals.continued, stats.stolen), (1, 1), "{steals:?}");
    let home = world.owners[1].engine.stats();
    assert_eq!(home.donated, 1);
    assert_eq!(home.released, 3, "busy, join, and dst where it was kept");
    world.finish();
}

#[test]
fn a_token_for_a_join_inside_a_body_bounces() {
    // `join` has two inputs: no door offers it, and the tokens of `src`
    // and `also` go to shard 1 while it is inside `busy` — two bounces,
    // and `join` runs at home once `busy` ends.
    let (world, [busy, _, _, join]) = a_successor_due_inside_a_body();
    let steals = world.owners[0].report.steals;
    assert_eq!((steals.bounced, steals.continued), (2, 1), "{steals:?}");
    let records = world.owners.iter().flat_map(|o| &o.report.records);
    let at = |t: TaskId| records.clone().find(|r| r.job.task == t).copied().unwrap();
    let (busy, join) = (at(busy), at(join));
    assert_eq!(join.worker, WorkerId::new(1));
    assert!(join.started >= busy.completed);
    world.finish();
}

#[test]
fn a_token_on_its_way_is_not_overtaken_by_a_kept_instance() {
    // `src` on shard 0 feeds `dst` on shard 1. Shard 1 drains its
    // mailbox at 0.15 ms and answers `busy`; before it enters the body,
    // `src`'s first instance ends on shard 0 and its token lands in
    // shard 1's lane, unread. Entering `busy`, shard 1 opens its door on
    // `dst` with seq 0. `src`'s second instance ends inside `busy`: had
    // shard 0 kept seq 0 for it, the instance of the later graph
    // release would run first and the earlier one get seq 1. The token
    // on its way refuses the door, so the second token is sent too, and
    // both instances run at home in graph order.
    let mut b = TaskSetBuilder::new();
    let busy = task(&mut b, TaskSpec::aperiodic("busy"), Some(1), us(3_000));
    let src = task(&mut b, TaskSpec::aperiodic("src"), Some(0), us(100));
    let dst = task(&mut b, TaskSpec::graph_node("dst"), Some(1), us(100));
    let light = TaskSpec::periodic("light", us(100_000));
    task(&mut b, light, Some(0), us(10));
    let c = b.channel_decl("c", 1, 8);
    b.channel_connect(src, dst, c).unwrap();
    let config = sharded(2).build().unwrap();
    let mut world = World::new("on its way".into(), 0, b.build().unwrap(), config, true);
    world.jitter = Duration::ZERO;
    world.body_time = Box::new(move |job, _| match job.task == busy {
        true => us(3_000),
        false => us(100),
    });
    world.paused_entry = Some(1);
    world.at(T0 + us(100), Cmd::Activate(src));
    world.at(T0 + us(150), Cmd::Activate(busy));
    world.at(T0 + us(400), Cmd::Activate(src));
    world.run_until(T0 + us(250));
    assert!(matches!(world.seats[1], Seat::Entering(job, _) if job.task == busy));
    let unread = world.owners[0].peers.txs[1]
        .as_ref()
        .map(MailboxSender::len);
    assert_eq!(unread, Some(1), "src's first token waits in shard 1's lane");
    world.paused_entry = None;
    world.run_until(T0 + us(10_000));
    world.at(world.now(), Cmd::Shutdown);
    world.run();
    let steals = world.owners[0].report.steals;
    assert_eq!((steals.continued, steals.bounced), (0, 1), "{steals:?}");
    let records = world.owners.iter().flat_map(|o| &o.report.records);
    let mut ran: Vec<_> = records.filter(|r| r.job.task == dst).copied().collect();
    ran.sort_by_key(|r| r.started);
    let srcs: Vec<_> = (world.owners[0].report.records.iter())
        .filter(|r| r.job.task == src)
        .map(|r| (r.job.seq, r.job.release))
        .collect();
    let dsts: Vec<_> = ran
        .iter()
        .map(|r| (r.job.seq, r.job.graph_release))
        .collect();
    assert_eq!(dsts, srcs, "dst's instances in graph order, seq by seq");
    assert!(ran.iter().all(|r| r.worker == WorkerId::new(1)));
    world.finish();
}

#[test]
fn an_admitted_tenant_meets_its_deadlines_and_retires() {
    // The deadline claim of the thread test
    // `tenant_admitted_into_running_schedule_executes_and_retires`, on
    // the harness's clock, where a busy host cannot move it: `base`
    // every 5 ms on shard 0; at 20 ms a tenant of one 5 ms task on
    // shard 1 with a 2 ms / 5 ms budget is admitted, as `Runtime::admit`
    // admits it; at 60 ms it is retired. Every one of its jobs ran on
    // shard 1 and completed by its deadline, and none after the
    // retirement but the one in flight.
    let mut b = TaskSetBuilder::new();
    task(
        &mut b,
        TaskSpec::periodic("base", us(5_000)),
        Some(0),
        us(50),
    );
    let config = sharded(2).build().unwrap();
    let mut world = World::new("tenant".into(), 0, b.build().unwrap(), config, false);
    world.body_time = Box::new(|_, _| us(50));
    let mut c = TaskSetBuilder::new();
    task(
        &mut c,
        TaskSpec::periodic("tenant", us(5_000)),
        Some(1),
        us(50),
    );
    let tenant = c.build().unwrap();
    let budget = Some(TenantBudget::deferrable(us(2_000), us(5_000)));
    let bodies = noop_bodies(&tenant);
    world.at(
        T0 + us(20_000),
        Cmd::AdmitSet(Box::new(tenant), bodies, budget),
    );
    world.at(T0 + us(60_000), Cmd::Retire(TenantId::new(1)));
    world.run_until(T0 + us(60_000));
    let ran = |world: &World| {
        let records = world.owners.iter().flat_map(|o| &o.report.records);
        records.filter(|r| r.job.task == TaskId::new(1)).count()
    };
    let before = ran(&world);
    assert!(before >= 7, "the tenant ran {before} jobs in 40 ms");
    world.run_until(T0 + us(90_000));
    assert!(ran(&world) <= before + 1, "it ran on after its retirement");
    world.at(world.now(), Cmd::Shutdown);
    world.run();
    let records = world.owners.iter().flat_map(|o| &o.report.records);
    for r in records.filter(|r| r.job.task == TaskId::new(1)) {
        assert!(!r.missed(), "admitted tenant missed a deadline: {r:?}");
        assert_eq!(r.worker, WorkerId::new(1));
    }
    world.finish();
}

#[test]
fn spinning_shards_start_every_job_within_a_period() {
    // The timing claim of the thread test
    // `spinning_shards_keep_their_schedule`, on the harness's clock,
    // where a busy host cannot move it: under `WaitChoice::Spin`, one
    // 5 ms task per shard for 200 ms. Every job starts within a period
    // of its release, and none is lost.
    let mut b = TaskSetBuilder::new();
    let ids = [0, 1].map(|w| {
        let spec = TaskSpec::periodic(format!("t{w}"), us(5_000));
        task(&mut b, spec, Some(w), us(100))
    });
    let config = sharded(2).waiting(WaitChoice::Spin).build().unwrap();
    let mut world = World::new("spin".into(), 0, b.build().unwrap(), config, false);
    world.body_time = Box::new(|_, _| us(100));
    world.run_until(T0 + us(200_000));
    world.at(world.now(), Cmd::Shutdown);
    world.run();
    for t in ids {
        let records = world.owners.iter().flat_map(|o| &o.report.records);
        let ran: Vec<_> = records.filter(|r| r.job.task == t).collect();
        assert!(ran.len() >= 40, "{t} ran {} jobs", ran.len());
        let seqs = ran.iter().map(|r| r.job.seq);
        assert!(seqs.eq(0..ran.len() as u64), "{t} lost a job");
        for r in ran {
            assert!(r.start_latency() < us(5_000), "a period late: {r:?}");
        }
    }
    world.finish();
}
