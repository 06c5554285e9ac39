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

    /// UUniFast: non-negative and exact-sum.
    #[test]
    fn uunifast_invariants(n in 1usize..50, total_milli in 1u32..3000, seed in any::<u64>()) {
        let total = f64::from(total_milli) / 1000.0;
        let v = yasmin::taskgen::uunifast(n, total, seed);
        let sum: f64 = v.iter().sum();
        prop_assert!((sum - total).abs() < 1e-9);
        prop_assert!(v.iter().all(|&u| u >= 0.0));
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
            // The model: live tenants as (id, first merged id, set).
            let mut live: Vec<(TenantId, usize, TaskSet)> = Vec::new();
            let mut merged_len = base.len();
            let mut every_tenant = (*base).clone();
            let (mut accepted, mut refused) = (0, 0);

            for (i, &op) in ops.iter().enumerate() {
                if live.len() >= 5 || (op % 3 == 0 && !live.is_empty()) {
                    let (tenant, _, _) = live.remove(op as usize / 3 % live.len());
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
                let mut scratch = (*base).clone();
                for (_, _, set) in &live {
                    scratch = scratch.extended(set).unwrap();
                }
                // Scratch id → merged id, from the model alone.
                let to_merged = |t: TaskId| {
                    let mut at = base.len();
                    if t.index() < at {
                        return Some(t);
                    }
                    for (_, first, set) in &live {
                        if t.index() < at + set.len() {
                            return Some(TaskId::new((first + t.index() - at) as u32));
                        }
                        at += set.len();
                    }
                    (t.index() < at + cand.len())
                        .then(|| TaskId::new((merged_len + t.index() - at) as u32))
                };
                let verdict = gate.evaluate(&scratch, &cand, None);
                // The RTA-always reference: under static priorities the
                // gate's verdict is the first miss, in partition then id
                // order, of an RTA that iterates every row — the
                // blocking-aware one on one core — whatever the
                // hyperbolic bound says first.
                let merged = scratch.extended(&cand).unwrap();
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
                    assert_eq!(a.task_offset as usize, merged_len);
                    assert_eq!(a.merged.len(), merged_len + cand.len());
                    Ok(())
                });
                match got {
                    Ok(tenant) => {
                        prop_assert_eq!(expected, Ok(()));
                        every_tenant = every_tenant.extended(&cand).unwrap();
                        live.push((tenant, merged_len, cand.clone()));
                        merged_len += cand.len();
                        accepted += 1;
                    }
                    Err(e) => {
                        prop_assert_eq!(Err(e), expected);
                        refused += 1;
                    }
                }
                let rows = ledger.live_rows().iter().map(|r| r.task.index());
                let tenant_ids = live.iter().flat_map(|(_, first, set)| *first..first + set.len());
                prop_assert!(rows.eq((0..base.len()).chain(tenant_ids)));
                prop_assert_eq!(ledger.merged().len(), merged_len);
            }
            prop_assert_eq!(format!("{:?}", ledger.merged()), format!("{every_tenant:?}"));
            if config.mapping() == MappingScheme::Global
                && config.workers() > 1
                && config.priority().is_static()
            {
                prop_assert_eq!(accepted, 0);
                continue;
            }
            prop_assert!(
                accepted > 10 && refused > 10,
                "{:?} {:?}: {} accepted, {} refused — one-sided sequence",
                config.priority(), tenants, accepted, refused
            );
        }
    }
}
