//! Property-based tests over the workspace invariants.

use proptest::prelude::*;
use std::sync::Arc;
use yasmin::prelude::*;
use yasmin::sim::ExecModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DRS: the drawn vector sums to the target and respects the cap.
    #[test]
    fn drs_invariants(n in 1usize..40, total_pct in 1u32..100, seed in any::<u64>()) {
        let cap = 1.0;
        let total = f64::from(total_pct) / 100.0 * n as f64 * cap;
        let total = total.max(1e-6);
        let v = yasmin::taskgen::drs(n, total, cap, seed).unwrap();
        prop_assert_eq!(v.len(), n);
        let sum: f64 = v.iter().sum();
        prop_assert!((sum - total).abs() < 1e-6, "sum {} != {}", sum, total);
        for u in v {
            prop_assert!((0.0..=cap + 1e-9).contains(&u));
        }
    }

    /// gcd/lcm: divisibility and bounds.
    #[test]
    fn gcd_lcm_laws(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        use yasmin::core::time::{gcd, lcm};
        let da = Duration::from_nanos(a);
        let db = Duration::from_nanos(b);
        let g = gcd(da, db);
        let l = lcm(da, db);
        prop_assert_eq!(a % g.as_nanos(), 0);
        prop_assert_eq!(b % g.as_nanos(), 0);
        prop_assert_eq!(l.as_nanos() % a, 0);
        prop_assert_eq!(l.as_nanos() % b, 0);
        // gcd * lcm == a * b for u64-safe ranges.
        prop_assert_eq!(
            u128::from(g.as_nanos()) * u128::from(l.as_nanos()),
            u128::from(a) * u128::from(b)
        );
    }

    /// Ready queue pops exactly the sorted order of what was pushed.
    #[test]
    fn ready_queue_is_a_priority_queue(prios in prop::collection::vec(0u64..1000, 1..64)) {
        use yasmin::sched::{Job, ReadyQueue};
        let mut q = ReadyQueue::with_capacity(prios.len());
        for (i, p) in prios.iter().enumerate() {
            let job = Job {
                id: JobId::new(i as u64),
                task: TaskId::new(i as u32),
                seq: 0,
                release: Instant::ZERO,
                graph_release: Instant::ZERO,
                abs_deadline: Instant::MAX,
                priority: Priority::new(*p),
                preempted: false,
            };
            q.push(job).unwrap();
        }
        let mut popped = Vec::new();
        while let Some(j) = q.pop() {
            popped.push(j.priority.raw());
        }
        let mut expected = prios.clone();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// SPSC ring: output sequence equals input sequence, whatever the
    /// interleaving of pushes and pops.
    #[test]
    fn spsc_fifo_order(ops in prop::collection::vec(any::<bool>(), 1..200), cap in 1usize..16) {
        let (mut tx, mut rx) = yasmin::sync::spsc::channel::<u32>(cap);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for push in ops {
            if push {
                if tx.push(next_in).is_ok() {
                    next_in += 1;
                }
            } else if let Some(v) = rx.pop() {
                prop_assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        while let Some(v) = rx.pop() {
            prop_assert_eq!(v, next_out);
            next_out += 1;
        }
        prop_assert_eq!(next_out, next_in);
    }

    /// EDF optimality on one core: any implicit-deadline periodic set
    /// with U <= 1 runs without misses in the zero-overhead simulator.
    #[test]
    fn edf_uniprocessor_optimality(
        n in 1usize..6,
        util_pct in 10u32..100,
        seed in 0u64..1000,
    ) {
        let params = yasmin::taskgen::taskset::IndependentSetParams {
            n,
            total_utilisation: f64::from(util_pct) / 100.0,
            cap: 1.0,
            seed,
            ..Default::default()
        };
        let ts = yasmin::taskgen::taskset::build_independent(&params).unwrap();
        let horizon = ts.hyperperiod().unwrap().min(Duration::from_secs(4)) * 2;
        let config = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .max_pending_jobs(16384)
            .build()
            .unwrap();
        let mut sim = SimConfig::uniform(1, horizon);
        sim.exec = ExecModel::Wcet;
        let result = Simulation::new(Arc::new(ts), config, sim).unwrap().run().unwrap();
        prop_assert_eq!(result.total_misses(), 0, "EDF with U <= 1 missed");
    }

    /// Off-line tables synthesised from random independent sets always
    /// validate structurally.
    #[test]
    fn offline_tables_always_validate(n in 1usize..8, util_pct in 10u32..90, seed in 0u64..500) {
        use yasmin::sched::offline::{synthesize, SynthesisOptions};
        let params = yasmin::taskgen::taskset::IndependentSetParams {
            n,
            total_utilisation: f64::from(util_pct) / 100.0,
            seed,
            ..Default::default()
        };
        let ts = yasmin::taskgen::taskset::build_independent(&params).unwrap();
        let table = synthesize(&ts, 2, SynthesisOptions::default()).unwrap();
        prop_assert!(table.validate(&ts).is_ok());
    }

    /// Battery levels clamp and order consistently.
    #[test]
    fn battery_monotone(a in 0u16..2000, b in 0u16..2000) {
        let la = BatteryLevel::from_permille(a);
        let lb = BatteryLevel::from_permille(b);
        prop_assert_eq!(la <= lb, a.min(1000) <= b.min(1000));
        prop_assert!(la.as_fraction() <= 1.0);
    }
}

/// What a row's generated tenants look like.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tenants {
    /// `taskgen`'s default period grid.
    Grid,
    /// Periods of 20 or 40 ms only: equal DM and RM priorities across
    /// tenants are the rule, not the exception.
    TwoPeriods,
    /// [`Tenants::TwoPeriods`], each task with a second version of the
    /// same WCET bound to one of its tenant's own two accelerators: the
    /// PIP blocking path.
    Accelerators,
    /// [`Tenants::TwoPeriods`] with every deadline drawn from `[C, T]`:
    /// the hyperbolic bound's DM case.
    Constrained,
}

/// A `taskgen` set of `n` tasks at utilisation `u` with periods of 20
/// or 40 ms — ties are the rule — each deadline drawn from `[C, T]`
/// when `constrained` and equal to the period otherwise, pinned
/// worst-fit onto `workers` when that is given.
fn two_period_set(
    n: usize,
    u: f64,
    seed: u64,
    constrained: bool,
    workers: Option<usize>,
) -> TaskSet {
    use yasmin::taskgen::periods::{constrained_deadlines, PeriodModel};
    use yasmin::taskgen::taskset::{assign_worst_fit, generate_params, IndependentSetParams};
    let p = IndependentSetParams {
        n,
        total_utilisation: u,
        periods: PeriodModel::Grid(&[20, 40]),
        seed,
        ..Default::default()
    };
    let tasks = generate_params(&p).unwrap();
    let wcets: Vec<Duration> = tasks.iter().map(|g| g.wcet).collect();
    let periods: Vec<Duration> = tasks.iter().map(|g| g.period).collect();
    let deadlines = match constrained {
        true => constrained_deadlines(&wcets, &periods, seed ^ 0xD1),
        false => periods.clone(),
    };
    let utils: Vec<f64> = tasks.iter().map(|g| g.utilisation).collect();
    let on = workers.map(|m| assign_worst_fit(&utils, m));
    let mut b = TaskSetBuilder::new();
    for (i, g) in tasks.iter().enumerate() {
        let mut spec =
            TaskSpec::periodic(&g.name, g.period).with_constrained_deadline(deadlines[i]);
        if let Some(on) = &on {
            spec = spec.on_worker(on[i]);
        }
        let t = b.task_decl(spec).unwrap();
        b.version_decl(t, VersionSpec::new("v", g.wcet)).unwrap();
    }
    b.build().unwrap()
}

/// On one core under `policy` — DM with deadlines in `[C, T]`, RM with
/// `D = T` — a [`two_period_set`]: whether the hyperbolic bound accepts
/// it, and whether the RTA finds every task schedulable.
fn bound_and_rta(n: usize, u: f64, seed: u64, policy: PriorityPolicy) -> (bool, bool) {
    use yasmin::analysis::{extend_rows, hyperbolic_bound, response_times, Placement};
    use yasmin::analysis::{ResponseTime, WcetAssumption};
    let dm = policy == PriorityPolicy::DeadlineMonotonic;
    let ts = two_period_set(n, u, seed, dm, None);
    let mut rows = Vec::new();
    let a = WcetAssumption::MaxVersion;
    extend_rows(&mut rows, &ts, 0, policy, a, Placement::OneCore);
    let rta = response_times(&ts, policy, a);
    (
        hyperbolic_bound(&rows, policy),
        rta.iter().all(ResponseTime::schedulable),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The hyperbolic bound is sufficient: whenever it accepts a set —
    /// 2 to 60 tasks at U 0.1 to 1, DM with deadlines in `[C, T]` or RM
    /// with `D = T`, periods tied more often than not — the RTA finds
    /// every task within its deadline. Admission skips a partition's
    /// RTA on its word.
    #[test]
    fn hyperbolic_bound_is_sound(
        n in 2usize..=60,
        u_pct in 10u32..=100,
        seed in any::<u64>(),
        dm in any::<bool>(),
    ) {
        let policy = match dm {
            true => PriorityPolicy::DeadlineMonotonic,
            false => PriorityPolicy::RateMonotonic,
        };
        let (bound, rta) = bound_and_rta(n, f64::from(u_pct) / 100.0, seed, policy);
        prop_assert!(!bound || rta, "the bound accepted a set the RTA refuses");
    }
}

/// [`hyperbolic_bound_is_sound`] is not vacuous: over a sweep of the
/// same space the bound accepts sets under both policies, and leaves
/// sets the RTA accepts to it.
#[test]
fn hyperbolic_bound_is_exercised() {
    let (mut accepted, mut left_to_rta) = ([0; 2], [0; 2]);
    for seed in 0..400u64 {
        let n = 2 + (seed % 59) as usize;
        let u = 0.1 + (seed % 10) as f64 * 0.1;
        for (k, policy) in [
            PriorityPolicy::RateMonotonic,
            PriorityPolicy::DeadlineMonotonic,
        ]
        .into_iter()
        .enumerate()
        {
            let (bound, rta) = bound_and_rta(n, u, seed, policy);
            accepted[k] += usize::from(bound);
            left_to_rta[k] += usize::from(!bound && rta);
        }
    }
    assert!(
        accepted.iter().chain(&left_to_rta).all(|&c| c > 20),
        "accepted {accepted:?}, left to the RTA {left_to_rta:?}"
    );
}

/// One row of the admission test table (`AdmissionControl` rustdoc),
/// with the tenants it is driven with.
fn admission_rows() -> Vec<(Config, Tenants)> {
    let row = |workers, mapping, priority| {
        Config::builder()
            .workers(workers)
            .mapping(mapping)
            .priority(priority)
            .build()
            .unwrap()
    };
    use MappingScheme::{Global, Partitioned};
    use PriorityPolicy::{DeadlineMonotonic, EarliestDeadlineFirst, RateMonotonic};
    vec![
        (row(2, Partitioned, RateMonotonic), Tenants::Grid),
        (row(2, Partitioned, DeadlineMonotonic), Tenants::TwoPeriods),
        (row(2, Partitioned, DeadlineMonotonic), Tenants::Constrained),
        (row(2, Partitioned, EarliestDeadlineFirst), Tenants::Grid),
        (row(1, Global, EarliestDeadlineFirst), Tenants::Grid),
        (row(3, Global, EarliestDeadlineFirst), Tenants::Grid),
        (row(1, Global, DeadlineMonotonic), Tenants::Grid),
        (row(1, Global, DeadlineMonotonic), Tenants::TwoPeriods),
        (row(1, Global, DeadlineMonotonic), Tenants::Constrained),
        (row(1, Global, DeadlineMonotonic), Tenants::Accelerators),
        // Refused whatever the candidate: no sound test is implemented.
        (row(2, Global, DeadlineMonotonic), Tenants::Grid),
    ]
}

/// A `taskgen` set of `n` tasks at utilisation `u`, pinned worst-fit
/// when `config` is partitioned.
/// Whether `b` fits a slot `a` held: as many tasks, edges, channels
/// and accelerators, and for each task as many versions on the same
/// worker.
fn same_shape(a: &TaskSet, b: &TaskSet) -> bool {
    a.len() == b.len()
        && a.edges().len() == b.edges().len()
        && a.channels().len() == b.channels().len()
        && a.accels().len() == b.accels().len()
        && (a.tasks().iter().zip(b.tasks())).all(|(x, y)| {
            x.versions().len() == y.versions().len()
                && x.spec().assigned_worker() == y.spec().assigned_worker()
        })
}

fn generated_tenant(config: &Config, tenants: Tenants, n: usize, u: f64, seed: u64) -> TaskSet {
    use yasmin::taskgen::periods::PeriodModel;
    use yasmin::taskgen::taskset::{
        build_independent, build_partitioned, generate_params, IndependentSetParams,
    };
    if tenants == Tenants::Constrained {
        let partitioned = config.mapping() == MappingScheme::Partitioned;
        return two_period_set(n, u, seed, true, partitioned.then(|| config.workers()));
    }
    let mut p = IndependentSetParams {
        n,
        total_utilisation: u,
        seed,
        ..Default::default()
    };
    if tenants != Tenants::Grid {
        p.periods = PeriodModel::Grid(&[20, 40]);
    }
    if tenants == Tenants::Accelerators {
        let mut b = TaskSetBuilder::new();
        let accels = [b.hwaccel_decl("gpu"), b.hwaccel_decl("dsp")];
        for (i, g) in generate_params(&p).unwrap().into_iter().enumerate() {
            let t = b.task_decl(TaskSpec::periodic(g.name, g.period)).unwrap();
            b.version_decl(t, VersionSpec::new("cpu", g.wcet)).unwrap();
            let v = b.version_decl(t, VersionSpec::new("acc", g.wcet)).unwrap();
            let accel = accels[(seed >> (i % 8)) as usize & 1];
            b.hwaccel_use(t, v, accel).unwrap();
        }
        return b.build().unwrap();
    }
    match config.mapping() {
        MappingScheme::Partitioned => build_partitioned(&p, config.workers()),
        MappingScheme::Global => build_independent(&p),
    }
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tenant ledger against the stateless gate, under every row of
    /// the admission test table: over a random admit/retire sequence the
    /// ledger's verdict over its row table is
    /// `AdmissionControl::evaluate` on a set built from scratch out of
    /// exactly the live tenants, with task ids moved to the merged
    /// space and every refusal equal field for field; after every step
    /// its rows are those of the base and the live tenants' tasks and
    /// nothing else, and after 200 its merged set — built in recycled
    /// storage from the third admission on — is the base extended by
    /// every accepted candidate in turn. Under static priorities both
    /// verdicts are also that of an RTA run on every partition, which no
    /// hyperbolic bound cut short. The rows include a PIP one whose
    /// tenants bind their own accelerators, four whose periods tie
    /// across tenants — two of them with deadlines short of the period —
    /// and the global static one on two workers, which refuses every
    /// candidate.
    #[test]
    fn ledger_matches_from_scratch_evaluation(
        seed in any::<u64>(),
        ops in prop::collection::vec(0u32..1_000, 200..201),
    ) {
        use yasmin::sched::admission::{AdmissionControl, AdmissionError, BoundViolation, TenantLedger};
        // Every `taskgen` grid period is a multiple of 5 ms.
        let tick = Duration::from_millis(5);
        for (config, tenants) in admission_rows() {
            let gate = AdmissionControl::new(config.clone(), tick);
            let base = Arc::new(generated_tenant(
                &config,
                tenants,
                3,
                0.2 * config.workers() as f64,
                seed,
            ));
            let mut ledger = TenantLedger::new(gate.clone(), Arc::clone(&base));
            // The model: every slot past the base as (first merged id,
            // set, holder) — the holder `None` once retired, the set its
            // last holder's.
            let mut slots: Vec<(usize, TaskSet, Option<TenantId>)> = Vec::new();
            let mut merged_len = base.len();
            let (mut accepted, mut refused, mut recycled) = (0, 0, 0);

            for (i, &op) in ops.iter().enumerate() {
                let live: Vec<usize> = (0..slots.len()).filter(|&k| slots[k].2.is_some()).collect();
                if live.len() >= 5 || (op % 3 == 0 && !live.is_empty()) {
                    let k = live[op as usize / 3 % live.len()];
                    let tenant = slots[k].2.take().unwrap();
                    prop_assert!(ledger.retire(tenant).is_ok());
                    prop_assert!(ledger.retire(tenant).is_err(), "double retire");
                    continue;
                }
                // Heavy enough, on any worker count, that a full house
                // of five refuses its share of candidates.
                let n = 1 + op as usize % 3;
                let u = (0.1 + 0.15 * f64::from(op % 5)) * config.workers() as f64;
                let u = u.min(0.9 * n as f64);
                let cand = generated_tenant(&config, tenants, n, u, seed.wrapping_add(i as u64));
                // The first free slot of the candidate's shape, else the end.
                let free = slots.iter().position(|(_, set, holder)| holder.is_none() && same_shape(set, &cand));
                let first = free.map_or(merged_len, |k| slots[k].0);
                // From scratch with the same slots: the live tenants
                // before the candidate's, then the candidate followed by
                // the live ones after it — the ledger's row order.
                let live_sets = || slots.iter().filter(|s| s.2.is_some());
                let mut scratch = (*base).clone();
                let mut parts = vec![(0, base.len())];
                for (at, set, _) in live_sets().filter(|s| s.0 < first) {
                    scratch = scratch.extended(set).unwrap();
                    parts.push((*at, set.len()));
                }
                let mut suffix = cand.clone();
                parts.push((first, cand.len()));
                for (at, set, _) in live_sets().filter(|s| s.0 > first) {
                    suffix = suffix.extended(set).unwrap();
                    parts.push((*at, set.len()));
                }
                // Scratch id → merged id, from the model alone.
                let to_merged = |t: TaskId| {
                    let mut at = 0;
                    for &(first, len) in &parts {
                        if t.index() < at + len {
                            return Some(TaskId::new((first + t.index() - at) as u32));
                        }
                        at += len;
                    }
                    None
                };
                let verdict = gate.evaluate(&scratch, &suffix, None);
                // The RTA-always reference: under static priorities the
                // gate's verdict is the first miss, in partition then id
                // order, of an RTA that iterates every row — the
                // blocking-aware one on one core — whatever the
                // hyperbolic bound says first.
                let merged = scratch.extended(&suffix).unwrap();
                let (policy, a) = (config.priority(), yasmin::analysis::WcetAssumption::MaxVersion);
                let reference = match (config.mapping(), config.workers()) {
                    _ if !policy.is_static() => None,
                    (MappingScheme::Global, 1) => {
                        Some(yasmin::analysis::response_times_blocking(&merged, policy, a))
                    }
                    (MappingScheme::Partitioned, m) => Some(
                        yasmin::analysis::rta::partitioned_response_times(&merged, m, policy, a)
                            .into_iter()
                            .map(|(_, r)| r)
                            .collect(),
                    ),
                    (MappingScheme::Global, _) => None, // refused, no test
                };
                if let Some(rta) = reference {
                    let miss = rta.into_iter().find(|r| !r.schedulable());
                    let named = match &verdict {
                        Err(AdmissionError::Rejected(BoundViolation::TaskUnschedulable {
                            task, wcrt, deadline,
                        })) => Some((*task, *wcrt, *deadline)),
                        _ => None,
                    };
                    prop_assert_eq!(miss.map(|r| (r.task, r.wcrt, r.deadline)), named);
                    prop_assert_eq!(named.is_none(), verdict.is_ok());
                }
                let expected = verdict.map(|_| ()).map_err(|e| match e {
                    AdmissionError::Rejected(BoundViolation::TaskUnschedulable { task, wcrt, deadline }) => {
                        AdmissionError::Rejected(BoundViolation::TaskUnschedulable {
                            task: to_merged(task).expect("names a live or candidate task"),
                            wcrt,
                            deadline,
                        })
                    }
                    other => other,
                });
                let got = ledger.admit(&cand, None, |a| {
                    assert_eq!(a.slot.first_task as usize, first);
                    let grown = if free.is_some() { 0 } else { cand.len() };
                    assert_eq!(a.merged.len(), merged_len + grown);
                    Ok(())
                });
                match got {
                    Ok(tenant) => {
                        prop_assert_eq!(expected, Ok(()));
                        match free {
                            Some(k) => {
                                slots[k] = (first, cand.clone(), Some(tenant));
                                recycled += 1;
                            }
                            None => {
                                slots.push((first, cand.clone(), Some(tenant)));
                                merged_len += cand.len();
                            }
                        }
                        accepted += 1;
                    }
                    Err(e) => {
                        prop_assert_eq!(Err(e), expected);
                        refused += 1;
                    }
                }
                let rows = ledger.live_rows().iter().map(|r| r.task.index());
                let live_sets = slots.iter().filter(|s| s.2.is_some());
                let tenant_ids = live_sets.flat_map(|(first, set, _)| *first..first + set.len());
                prop_assert!(rows.eq((0..base.len()).chain(tenant_ids)));
                prop_assert_eq!(ledger.merged().len(), merged_len);
            }
            // A tenant in every slot, the last holder of a free one.
            let mut every_slot = (*base).clone();
            for (_, set, _) in &slots {
                every_slot = every_slot.extended(set).unwrap();
            }
            prop_assert_eq!(format!("{:?}", ledger.merged()), format!("{every_slot:?}"));
            if config.mapping() == MappingScheme::Global
                && config.workers() > 1
                && config.priority().is_static()
            {
                prop_assert_eq!(accepted, 0);
                continue;
            }
            prop_assert!(
                accepted > 10 && refused > 10 && recycled > 0,
                "{:?} {:?}: {} accepted ({} into a freed slot), {} refused — one-sided sequence",
                config.priority(), tenants, accepted, recycled, refused
            );
        }
    }
}

/// The three tenant shapes of `recycled_slots_keep_tenants_apart`, on
/// worker 1: one task; a root and a node joined by a channel; three
/// independent tasks.
fn shaped_tenant(shape: usize, wcet_us: u64) -> TaskSet {
    let ms = Duration::from_millis;
    let mut b = TaskSetBuilder::new();
    let on_1 = |spec: TaskSpec| spec.on_worker(WorkerId::new(1));
    let task = |b: &mut TaskSetBuilder, spec: TaskSpec| {
        let t = b.task_decl(on_1(spec)).unwrap();
        let wcet = Duration::from_micros(wcet_us);
        b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        t
    };
    match shape {
        0 => {
            task(&mut b, TaskSpec::periodic("solo", ms(10)));
        }
        1 => {
            let root = task(&mut b, TaskSpec::periodic("root", ms(20)));
            let node = task(&mut b, TaskSpec::graph_node("node"));
            let ch = b.channel_decl("ch", 2, 8);
            b.channel_connect(root, node, ch).unwrap();
        }
        _ => {
            for (i, p) in [10, 20, 40].into_iter().enumerate() {
                task(&mut b, TaskSpec::periodic(format!("t{i}"), ms(p)));
            }
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random admit/retire sequences over three tenant shapes through
    /// `Simulation`, partitioned: the base set on worker 0, tenants on
    /// worker 1. A retired tenant's slot goes to the next tenant of its
    /// shape, and then: live tenants' task ranges never overlap; the
    /// merged set holds at most the base plus, per shape, the most
    /// tenants of it ever live at once; tenant 0's records are a solo
    /// run's, field for field but the job id; and every record of a
    /// slot's task belongs to the holder live at its release, which
    /// started it no later than its retirement — what ran after that
    /// was already running then.
    #[test]
    fn recycled_slots_keep_tenants_apart(
        ops in prop::collection::vec(0u64..1_000_000, 1..40),
    ) {
        let ms = Duration::from_millis;
        let horizon = ms(600);
        let config = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let mut b = TaskSetBuilder::new();
        for (name, period, wcet) in [("a_fast", 10, 2), ("a_slow", 20, 3)] {
            let t = b
                .task_decl(TaskSpec::periodic(name, ms(period)).on_worker(WorkerId::new(0)))
                .unwrap();
            b.version_decl(t, VersionSpec::new(name, ms(wcet))).unwrap();
        }
        let base = Arc::new(b.build().unwrap());
        let mut sim = Simulation::new(Arc::clone(&base), config.clone(), SimConfig::uniform(2, horizon)).unwrap();
        // (tenant, shape, first task, admitted at, retired at)
        let mut tenants: Vec<(TenantId, usize, usize, Duration, Option<Duration>)> = Vec::new();
        let (mut live_of, mut max_live) = ([0usize; 3], [0usize; 3]);
        let mut now = Duration::ZERO;
        for &draw in &ops {
            // A shape, an operation and a whole number of ms to wait,
            // zero now and then: a retirement and an admission may
            // share an instant.
            let (shape, op, step) = (draw % 3, (draw / 3 % 10) as u32, draw / 30 % 40);
            now += ms(step);
            let live: Vec<usize> = (0..tenants.len()).filter(|&k| tenants[k].4.is_none()).collect();
            if op < 4 && !live.is_empty() {
                let k = live[op as usize % live.len()];
                sim.retire_at(now, tenants[k].0).unwrap();
                tenants[k].4 = Some(now);
                live_of[tenants[k].1] -= 1;
                continue;
            }
            let cand = shaped_tenant(shape as usize, 200 + 100 * u64::from(op));
            let Ok(t) = sim.admit_at(now, &cand, None) else { continue };
            let first = sim.first_task(t).unwrap().index();
            tenants.push((t, shape as usize, first, now, None));
            live_of[shape as usize] += 1;
            max_live[shape as usize] = max_live[shape as usize].max(live_of[shape as usize]);
            // Live tenants' ranges are disjoint.
            let mut ranges: Vec<(usize, usize)> = tenants
                .iter()
                .filter(|t| t.4.is_none())
                .map(|t| (t.2, t.2 + shaped_tenant(t.1, 1).len()))
                .collect();
            ranges.sort_unstable();
            prop_assert!(ranges.windows(2).all(|w| w[0].1 <= w[1].0), "{ranges:?}");
            prop_assert!(ranges[0].0 >= base.len());
        }
        let lens = [0, 1, 2].map(|s| shaped_tenant(s, 1).len());
        let merged_len = tenants.iter().map(|t| t.2 + lens[t.1]).max().unwrap_or(base.len());
        let bound = base.len() + (0..3).map(|s| max_live[s] * lens[s]).sum::<usize>();
        prop_assert!(merged_len <= bound, "{merged_len} > {bound}");

        let res = sim.run().unwrap();
        let solo = Simulation::new(Arc::clone(&base), config, SimConfig::uniform(2, horizon))
            .unwrap()
            .run()
            .unwrap();
        let key = |r: &yasmin::sim::JobRecord| {
            (r.task, r.seq, r.release, r.graph_release, r.abs_deadline, r.first_start,
             r.completion, r.version, r.worker, r.preemptions)
        };
        let own = |r: &&yasmin::sim::JobRecord| r.task.index() < base.len();
        prop_assert!(res.records.iter().filter(own).map(key).eq(solo.records.iter().map(key)));
        for r in res.records.iter().filter(|r| r.task.index() >= base.len()) {
            let zero = Instant::ZERO;
            // The slot's holder live at the release: the last admitted
            // into it at or before then.
            let holder = tenants
                .iter()
                .filter(|t| (t.2..t.2 + lens[t.1]).contains(&r.task.index()))
                .filter(|t| zero + t.3 <= r.release)
                .max_by_key(|t| t.3);
            prop_assert!(holder.is_some(), "{r:?} released before any holder");
            let &(tenant, _, _, admitted, retired) = holder.unwrap();
            prop_assert!(r.graph_release >= zero + admitted, "{tenant}: {r:?}");
            if let Some(retired) = retired {
                prop_assert!(r.release <= zero + retired, "{tenant} released after retiring: {r:?}");
                prop_assert!(r.first_start <= zero + retired, "{tenant} started after retiring: {r:?}");
            }
        }
    }
}
