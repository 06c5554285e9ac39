//! [`Simulation::run`] replays a schedule that recurs; these tests hold
//! it against [`Simulation::run_event_by_event`], which simulates every
//! cycle, on generated task sets: whatever `run` decides to fold, the
//! two results are equal field for field.

use crate::engine::{FaultEvent, SimConfig, Simulation};
use crate::trace::SimResult;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme, VersionPolicy};
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::ids::{TaskId, WorkerId};
use yasmin_core::platform::{CoreClass, PlatformSpec};
use yasmin_core::priority::{Priority, PriorityPolicy};
use yasmin_core::task::TaskSpec;
use yasmin_core::time::Duration;
use yasmin_core::version::{ExecMode, ModeMask, VersionSpec};
use yasmin_sched::MsgEvent;
use yasmin_taskgen::periods::PeriodModel;
use yasmin_taskgen::taskset::{assign_worst_fit, generate_params, IndependentSetParams};

/// Periods in ms: every set recurs after 200 ms at the latest.
const GRID: &[u64] = &[10, 20, 40, 50, 100];
const HYPERPERIOD_MS: u64 = 200;
const CASES: u32 = 256;
const ALT_MODE: ExecMode = ExecMode::new(1);

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// What a case adds to a plain periodic set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Plain,
    /// `odroid_xu4`; every other task has a faster accelerator version.
    Hetero,
    /// More work than the workers have time: never quiescent.
    Overloaded,
    /// Two tasks released 1 and 2 ms late: never synchronous.
    Offsets,
    Fault,
    /// Every task has a cheaper version for [`ALT_MODE`], switched to mid-run.
    Mode,
    Msg,
    Admit,
    AdmitRetire,
    /// Preemptive and global on [`big_little`]: a job preempted on the
    /// LITTLE core may finish on a big one before its slice would have
    /// ended, and a job preempted on a big one resumes slower.
    Migrate,
}

const SHAPES: [Shape; 10] = [
    Shape::Plain,
    Shape::Hetero,
    Shape::Overloaded,
    Shape::Offsets,
    Shape::Fault,
    Shape::Mode,
    Shape::Msg,
    Shape::Admit,
    Shape::AdmitRetire,
    Shape::Migrate,
];

/// Worker 0 on a core at 0.4× the reference speed, the others at 1×.
fn big_little(workers: usize) -> PlatformSpec {
    let classes = vec![CoreClass::new("big", 1, 1), CoreClass::new("LITTLE", 2, 5)];
    let mut cores = vec![0; workers];
    cores[0] = 1;
    PlatformSpec::new("big.LITTLE", classes, cores)
}

#[derive(Debug, Clone, Copy)]
struct Case {
    shape: Shape,
    seed: u64,
    policy: PriorityPolicy,
    preemptive: bool,
    partitioned: bool,
    workers: usize,
    tasks: usize,
    /// Whole hyperperiods in the horizon, and the ms past the last.
    cycles: u64,
    tail_ms: u64,
}

impl Case {
    fn taskset(&self) -> Arc<TaskSet> {
        let overloaded = self.shape == Shape::Overloaded;
        // Enough tasks to spread the utilisation under either cap.
        let n = self.tasks.max(2 * self.workers);
        let per_worker = if overloaded {
            1.25
        } else {
            0.2 + (self.seed % 5) as f64 * 0.1
        };
        let params = generate_params(&IndependentSetParams {
            n,
            total_utilisation: per_worker * self.workers as f64,
            cap: if overloaded { 1.0 } else { 0.5 },
            periods: PeriodModel::Grid(GRID),
            seed: self.seed,
            periodic: true,
        })
        .expect("a feasible DRS request");
        let utils: Vec<f64> = params.iter().map(|g| g.utilisation).collect();
        let home = assign_worst_fit(&utils, self.workers);
        let mut b = TaskSetBuilder::new();
        let gpu = (self.shape == Shape::Hetero).then(|| b.hwaccel_decl("gpu"));
        for (i, g) in params.iter().enumerate() {
            let mut spec = TaskSpec::periodic(&g.name, g.period);
            if self.partitioned {
                spec = spec.on_worker(home[i]);
            }
            if self.shape == Shape::Offsets && i < 2 {
                spec = spec.with_release_offset(ms(i as u64 + 1));
            }
            let t = b.task_decl(spec).unwrap();
            let half = Duration::from_nanos((g.wcet.as_nanos() / 2).max(1));
            let base = VersionSpec::new("base", g.wcet);
            if self.shape == Shape::Mode {
                let base = base.with_modes(ModeMask::only(ExecMode::NORMAL));
                b.version_decl(t, base).unwrap();
                let alt = VersionSpec::new("alt", half).with_modes(ModeMask::only(ALT_MODE));
                b.version_decl(t, alt).unwrap();
            } else {
                b.version_decl(t, base).unwrap();
            }
            if let Some(gpu) = gpu.filter(|_| i % 2 == 0) {
                let v = b.version_decl(t, VersionSpec::new("gpu", half)).unwrap();
                b.hwaccel_use(t, v, gpu).unwrap();
            }
        }
        Arc::new(b.build().unwrap())
    }

    /// A one-task tenant for the admission shapes.
    fn tenant(&self) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let mut spec = TaskSpec::periodic("tenant", ms(GRID[(self.seed % 4) as usize]));
        if self.partitioned {
            spec = spec.on_worker(WorkerId::new(0));
        }
        let t = b.task_decl(spec).unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        b.build().unwrap()
    }

    fn simulation(&self) -> Simulation {
        let mut config = Config::builder()
            .workers(self.workers)
            .priority(self.policy)
            .preemption(self.preemptive)
            .max_pending_jobs(4096);
        if self.partitioned {
            config = config.mapping(MappingScheme::Partitioned);
        }
        if self.shape == Shape::Mode {
            config = config.version_policy(VersionPolicy::Mode);
        }
        let horizon = ms(self.cycles * HYPERPERIOD_MS + self.tail_ms);
        let mut sim = SimConfig::uniform(self.workers, horizon);
        match self.shape {
            Shape::Hetero => sim.platform = PlatformSpec::odroid_xu4(),
            Shape::Migrate => sim.platform = big_little(self.workers),
            _ => {}
        }
        // The one scheduled event: somewhere in the first two
        // hyperperiods, on or off a tick.
        let at = ms(5 * (1 + (self.seed >> 8) % 79));
        let task = TaskId::new(((self.seed >> 16) % self.tasks as u64) as u32);
        match self.shape {
            Shape::Fault if self.seed & 1 == 0 => {
                sim.fault_schedule = vec![(at, FaultEvent::Crash { task })];
            }
            Shape::Fault => sim.fault_schedule = vec![(at, FaultEvent::Overrun { task })],
            Shape::Mode => sim.mode_schedule = vec![(at, ALT_MODE)],
            Shape::Msg => {
                let ceiling = Priority::HIGHEST;
                sim.msg_schedule = vec![
                    (at, MsgEvent::HighPosted { dst: task, ceiling }),
                    (at + ms(3), MsgEvent::HighDrained { dst: task }),
                ];
            }
            _ => {}
        }
        let mut s = Simulation::new(self.taskset(), config.build().unwrap(), sim).unwrap();
        if matches!(self.shape, Shape::Admit | Shape::AdmitRetire) {
            // A refused tenant leaves a plain run, which is a case too.
            if let Ok(id) = s.admit_at(at, &self.tenant(), None) {
                if self.shape == Shape::AdmitRetire {
                    s.retire_at(at + ms(95), id).unwrap();
                }
            }
        }
        s
    }
}

/// Every released job is a record, culled, failed or unfinished: once.
pub(crate) fn assert_conserved(r: &SimResult) {
    let s = &r.engine_stats;
    assert_eq!(
        s.released,
        r.records.len() as u64 + s.culled + s.failed + r.unfinished as u64,
        "records {} culled {} failed {} unfinished {}",
        r.records.len(),
        s.culled,
        s.failed,
        r.unfinished
    );
}

fn assert_same(case: &Case, folded: &SimResult, reference: &SimResult) {
    assert_conserved(folded);
    assert_conserved(reference);
    assert_eq!(reference.replayed_cycles, 0, "{case:?}");
    assert_eq!(folded.records.len(), reference.records.len(), "{case:?}");
    for (i, (f, r)) in folded.records.iter().zip(&reference.records).enumerate() {
        assert_eq!(f, r, "record {i} of {case:?}");
    }
    assert_eq!(folded.unfinished, reference.unfinished, "{case:?}");
    assert_eq!(
        folded.unfinished_missed, reference.unfinished_missed,
        "{case:?}"
    );
    assert_eq!(folded.engine_stats, reference.engine_stats, "{case:?}");
    assert_eq!(folded.worker_busy, reference.worker_busy, "{case:?}");
    assert_eq!(folded.energy, reference.energy, "{case:?}");
    assert_eq!(folded.horizon, reference.horizon, "{case:?}");
}

/// Cases run by, and cases folded in, the property below.
static RAN: AtomicU32 = AtomicU32::new(0);
static FOLDED: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn a_folded_run_is_the_event_by_event_run(
        shape in 0usize..SHAPES.len(),
        seed in any::<u64>(),
        policy in 0usize..3,
        preemptive in any::<bool>(),
        partitioned in any::<bool>(),
        workers in 1usize..4,
        tasks in 2usize..9,
        cycles in 5u64..8,
        tail_ms in 0u64..HYPERPERIOD_MS,
        whole in any::<bool>(),
    ) {
        let migrate = SHAPES[shape] == Shape::Migrate;
        let case = Case {
            shape: SHAPES[shape],
            seed,
            policy: [
                PriorityPolicy::EarliestDeadlineFirst,
                PriorityPolicy::RateMonotonic,
                PriorityPolicy::DeadlineMonotonic,
            ][policy],
            preemptive: preemptive || migrate,
            partitioned: partitioned && !migrate,
            workers: if migrate { workers.max(2) } else { workers },
            tasks,
            cycles,
            tail_ms: if whole { 0 } else { tail_ms },
        };
        let folded = case.simulation().run().unwrap();
        let reference = case.simulation().run_event_by_event().unwrap();
        assert_same(&case, &folded, &reference);
        match case.shape {
            Shape::Overloaded | Shape::Offsets => {
                prop_assert_eq!(folded.replayed_cycles, 0, "{:?}", case);
            }
            // A light set is idle at its hyperperiod: it folds, and after
            // a one-off event it folds again from the next two clean
            // boundaries. (An admitted tenant's releases need not line
            // up with the base set's ever again.)
            Shape::Plain | Shape::Fault | Shape::Mode | Shape::Msg | Shape::AdmitRetire => {
                prop_assert!(folded.replayed_cycles > 0, "{:?}", case);
            }
            Shape::Hetero | Shape::Admit | Shape::Migrate => {}
        }
        if folded.replayed_cycles > 0 {
            prop_assert!(folded.replayed_jobs > 0, "{:?}", case);
            FOLDED.fetch_add(1, Ordering::Relaxed);
        }
        if RAN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            let folded = FOLDED.load(Ordering::Relaxed);
            prop_assert!(folded > 0, "vacuous: none of {} cases folded", CASES);
        }
    }
}

fn light_case(shape: Shape) -> Case {
    Case {
        shape,
        seed: 7,
        policy: PriorityPolicy::EarliestDeadlineFirst,
        preemptive: true,
        partitioned: false,
        workers: 2,
        tasks: 6,
        cycles: 6,
        tail_ms: 0,
    }
}

#[test]
fn a_whole_horizon_is_one_cycle_and_its_copies() {
    let case = light_case(Shape::Plain);
    let hyperperiod = case.taskset().hyperperiod().unwrap();
    let cycles = ms(case.cycles * HYPERPERIOD_MS).as_nanos() / hyperperiod.as_nanos();
    let folded = case.simulation().run().unwrap();
    assert_eq!(folded.replayed_cycles, cycles - 1);
    assert_eq!(
        folded.replayed_jobs as usize * cycles as usize,
        folded.records.len() * (cycles as usize - 1)
    );
    assert_eq!(folded.unfinished, 0);
    assert!(folded
        .records
        .windows(2)
        .all(|w| w[0].completion <= w[1].completion));
}

#[test]
fn the_tail_past_the_last_whole_cycle_is_simulated() {
    let case = Case {
        tail_ms: 137,
        ..light_case(Shape::Plain)
    };
    let folded = case.simulation().run().unwrap();
    let reference = case.simulation().run_event_by_event().unwrap();
    assert_same(&case, &folded, &reference);
    assert!(folded.replayed_cycles > 0);
    let end = folded.records.last().unwrap().completion;
    assert!(end > yasmin_core::time::Instant::ZERO + ms(case.cycles * HYPERPERIOD_MS));
}

#[test]
fn no_cycle_is_replayed_across_a_scheduled_event() {
    // One worker, EDF, a 20 ms cycle: t0 = (10 ms, 4 ms), t1 = (20 ms,
    // 6 ms). t1's second job runs 24..30 ms and is crashed at 25 ms.
    let simulation = || {
        let mut b = TaskSetBuilder::new();
        for (name, period, wcet) in [("t0", 10, 4), ("t1", 20, 6)] {
            let t = b.task_decl(TaskSpec::periodic(name, ms(period))).unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(wcet))).unwrap();
        }
        let config = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst);
        let mut sim = SimConfig::uniform(1, ms(200));
        let task = TaskId::new(1);
        sim.fault_schedule = vec![(ms(25), FaultEvent::Crash { task })];
        Simulation::new(Arc::new(b.build().unwrap()), config.build().unwrap(), sim).unwrap()
    };
    let folded = simulation().run().unwrap();
    let reference = simulation().run_event_by_event().unwrap();
    assert_eq!(folded.records, reference.records);
    assert_eq!(folded.engine_stats, reference.engine_stats);
    assert_eq!(folded.engine_stats.failed, 1, "the crash hit a running job");
    assert_eq!(folded.records_of(TaskId::new(1)).count(), 9);
    // Pending until 25 ms, the crash keeps 20 ms from being a boundary
    // and voids the start; 40 and 60 ms are the next two clean ones,
    // and the seven cycles left are replayed from there.
    assert_eq!(folded.replayed_cycles, 7);
}

#[test]
fn a_slice_preempted_before_its_end_holds_back_no_boundary() {
    // A 100 ms cycle in which a job preempted on the LITTLE core resumes
    // on the big one and finishes within the cycle, where its first
    // slice would have ended after the cycle's end. While that slice's
    // finish stayed pending, it held back every boundary and nothing
    // was replayed.
    let case = Case {
        shape: Shape::Migrate,
        seed: 16_332_089_260_941_435_463,
        policy: PriorityPolicy::RateMonotonic,
        preemptive: true,
        partitioned: false,
        workers: 2,
        tasks: 5,
        cycles: 5,
        tail_ms: 23,
    };
    let folded = case.simulation().run().unwrap();
    let reference = case.simulation().run_event_by_event().unwrap();
    assert_same(&case, &folded, &reference);
    assert!(folded.records.iter().any(|r| r.preemptions > 0));
    assert_eq!(folded.replayed_cycles, 9);
}

#[test]
fn random_execution_times_and_kernel_models_never_fold() {
    let case = light_case(Shape::Plain);
    let run = |edit: fn(&mut SimConfig)| {
        let config = Config::builder().workers(2).build().unwrap();
        let mut sim = SimConfig::uniform(2, ms(1000));
        edit(&mut sim);
        let s = Simulation::new(case.taskset(), config, sim).unwrap();
        s.run().unwrap().replayed_cycles
    };
    assert!(run(|_| {}) > 0);
    assert_eq!(run(|s| s.exec = crate::ExecModel::default()), 0);
    assert_eq!(run(|s| s.kernel = Some(crate::KernelKind::PreemptRt)), 0);
}
