//! Seeded input generation. The seed drives `yasmin::taskgen` (DRS
//! utilisations, period draws, DAG shapes) and the harness's own draws
//! (body lengths, tenant periods, arrival jitter); the program under
//! test only ever sees the generated inputs.
//!
//! Shapes are fixed and only *details* are drawn: a workload's job
//! rate, its total body time and its task count are the same for every
//! seed, so a metric's value does not depend on which seed a run got.

use yasmin::core::time::Duration;
use yasmin::taskgen::dag::DagParams;
use yasmin::taskgen::periods::{wcets_from_utilisation, GRID_1S};
use yasmin::taskgen::taskset::GeneratedTask;
use yasmin::taskgen::{drs, drs_bounded};

/// SplitMix64: the harness's own deterministic draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is < 2⁻⁴⁰ here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A distinct stream per (seed, purpose).
fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Splits `total_us` over `n` bodies, each within `[lo_us, hi_us]`, by
/// DRS, rounded to whole microseconds.
fn split_us(n: usize, total_us: u64, lo_us: u64, hi_us: u64, seed: u64) -> Vec<u64> {
    let lo = vec![lo_us as f64; n];
    let hi = vec![hi_us as f64; n];
    drs_bounded(&lo, &hi, total_us as f64, seed)
        .expect("body split is feasible by construction")
        .into_iter()
        .map(|u| u.round() as u64)
        .collect()
}

// ----- cyclic -----------------------------------------------------------

/// Tasks of the `cyclic` workload (the paper's Table 2 cyclictest
/// shape: 6 threads at 10 ms).
pub const CYCLIC_TASKS: usize = 6;
pub const CYCLIC_PERIOD_MS: u64 = 10;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclicInputs {
    /// Spin length of each task's body, µs; 60 µs in total. Jobs of a
    /// burst run in task order, so the median job waits for the first
    /// three bodies: the draw is kept within ±2 µs of the mean, or the
    /// headline latency would follow the seed by ±2.5 %.
    pub body_us: Vec<u64>,
}

pub fn cyclic(seed: u64) -> CyclicInputs {
    CyclicInputs {
        body_us: split_us(CYCLIC_TASKS, 60, 8, 12, sub_seed(seed, 1)),
    }
}

// ----- pipeline ---------------------------------------------------------

pub const PIPE_CHAINS: usize = 4;
pub const PIPE_NODES: usize = 8;
pub const PIPE_SIDE_TASKS: usize = 6;
pub const PIPE_PERIOD_MS: u64 = 20;
/// Shard of node `j` of every chain: 4 cross-shard and 3 same-shard
/// edges, source and sink both on shard 0.
pub const PIPE_PLACEMENT: [u16; PIPE_NODES] = [0, 1, 1, 0, 0, 1, 1, 0];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineInputs {
    /// Spin length of node `j` of chain `c`, µs; 160 µs per chain.
    pub node_body_us: Vec<Vec<u64>>,
    /// Spin lengths of the independent shard-0 tasks, µs; 1200 µs in
    /// total, so shard 0 always has stealable work.
    pub side_body_us: Vec<u64>,
}

pub fn pipeline(seed: u64) -> PipelineInputs {
    PipelineInputs {
        node_body_us: (0..PIPE_CHAINS)
            .map(|c| split_us(PIPE_NODES, 160, 10, 30, sub_seed(seed, 10 + c as u64)))
            .collect(),
        side_body_us: split_us(PIPE_SIDE_TASKS, 1200, 100, 300, sub_seed(seed, 20)),
    }
}

// ----- churn ------------------------------------------------------------

pub const CHURN_ADMIT_EVERY_MS: u64 = 50;
pub const CHURN_JITTER_MS: u64 = 20;
pub const CHURN_LIVE_TENANTS: usize = 4;
pub const CHURN_TENANT_TASKS: usize = 3;
pub const CHURN_TENANT_WCET_US: u64 = 2;
/// Every 8th candidate (k ≡ 7 mod 8) is infeasible and must be refused.
pub const CHURN_REJECT_EVERY: usize = 8;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseTask {
    pub period_ms: u64,
    pub wcet_us: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Periods of the tenant's tasks, ms (multiples of the 5 ms tick).
    pub periods_ms: Vec<u64>,
    /// Density > 1: admission must answer `Rejected`.
    pub infeasible: bool,
    /// When the admit is due, ns after the measured span opens.
    pub due_ns: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnInputs {
    /// Tenant 0: six tasks, periods a shuffle of {5,5,10,10,20,40} ms,
    /// utilisations by DRS summing to 0.2.
    pub base: Vec<BaseTask>,
    pub candidates: Vec<Candidate>,
}

pub fn churn(seed: u64, admits: usize) -> ChurnInputs {
    let mut rng = Rng::new(sub_seed(seed, 30));
    let mut periods = [5u64, 5, 10, 10, 20, 40];
    rng.shuffle(&mut periods);
    let utils = drs(periods.len(), 0.2, 0.1, sub_seed(seed, 31)).expect("0.2 over six tasks");
    let base = periods
        .iter()
        .zip(utils)
        .map(|(&period_ms, u)| BaseTask {
            period_ms,
            wcet_us: ((u * period_ms as f64 * 1e3).round() as u64).max(4),
        })
        .collect();
    let candidates = (0..admits)
        .map(|k| {
            let infeasible = k % CHURN_REJECT_EVERY == CHURN_REJECT_EVERY - 1;
            let n = if infeasible { 1 } else { CHURN_TENANT_TASKS };
            Candidate {
                periods_ms: (0..n)
                    .map(|_| [10, 20, 40][rng.below(3) as usize])
                    .collect(),
                infeasible,
                due_ns: k as u64 * CHURN_ADMIT_EVERY_MS * 1_000_000
                    + rng.below(CHURN_JITTER_MS * 1_000_000),
            }
        })
        .collect();
    ChurnInputs { base, candidates }
}

// ----- explore ----------------------------------------------------------

pub const EXPLORE_TASK_COUNTS: [usize; 3] = [20, 60, 120];
pub const EXPLORE_UTILISATIONS: [f64; 3] = [0.6, 1.0, 1.4];
pub const EXPLORE_SETS_PER_CELL: u64 = 2;
pub const EXPLORE_DAG_SETS: u64 = 4;

/// One generated independent set of the Fig. 2 grid.
#[derive(Debug, Clone)]
pub struct GridSet {
    pub n: usize,
    pub utilisation: f64,
    pub tasks: Vec<GeneratedTask>,
}

#[derive(Debug, Clone)]
pub struct ExploreInputs {
    pub grid: Vec<GridSet>,
    /// Seed of the drone sweep's secure-mode schedule.
    pub mode_seed: u64,
    pub dags: Vec<DagParams>,
}

/// One independent set: utilisations by DRS from the seed, periods the
/// 1 s grid dealt round-robin and then shuffled by the seed. The
/// *multiset* of periods — and with it the set's job rate and the size
/// of the simulator's record vector — is the same for every seed, or
/// host time per simulated job would follow the draw by ±10 %.
fn grid_set(n: usize, utilisation: f64, seed: u64) -> GridSet {
    let mut period_ms: Vec<u64> = (0..n).map(|i| GRID_1S[i % GRID_1S.len()]).collect();
    Rng::new(seed).shuffle(&mut period_ms);
    let periods: Vec<Duration> = period_ms.into_iter().map(Duration::from_millis).collect();
    let utils = drs(n, utilisation, 1.0, seed).expect("U <= n, so DRS is feasible");
    let wcets = wcets_from_utilisation(&utils, &periods);
    GridSet {
        n,
        utilisation,
        tasks: (0..n)
            .map(|i| GeneratedTask {
                name: format!("t{i}"),
                utilisation: utils[i],
                period: periods[i],
                wcet: wcets[i],
            })
            .collect(),
    }
}

pub fn explore(seed: u64) -> ExploreInputs {
    let mut grid = Vec::new();
    for &n in &EXPLORE_TASK_COUNTS {
        for &u in &EXPLORE_UTILISATIONS {
            for s in 0..EXPLORE_SETS_PER_CELL {
                let stream = 100 + (n as u64) * 1_000 + (u * 10.0) as u64 * 10 + s;
                grid.push(grid_set(n, u, sub_seed(seed, stream)));
            }
        }
    }
    let dags = (0..EXPLORE_DAG_SETS)
        .map(|s| DagParams {
            layers: 5,
            max_width: 4,
            extra_edge_pct: 30,
            period: Duration::from_millis(20),
            // Odd sub-tick WCETs keep cross-shard events off each
            // other's grid (see `yasmin::sim::par`).
            wcet_us: (101, 1_501),
            seed: sub_seed(seed, 200 + s),
        })
        .collect();
    ExploreInputs {
        grid,
        mode_seed: sub_seed(seed, 300),
        dags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_key(e: &ExploreInputs) -> Vec<(u64, u64)> {
        e.grid
            .iter()
            .flat_map(|g| &g.tasks)
            .map(|t| (t.period.as_nanos(), t.wcet.as_nanos()))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(cyclic(7), cyclic(7));
        assert_eq!(pipeline(7), pipeline(7));
        assert_eq!(churn(7, 64), churn(7, 64));
        let (a, b) = (explore(7), explore(7));
        assert_eq!(grid_key(&a), grid_key(&b));
        assert_eq!(a.mode_seed, b.mode_seed);
        assert_eq!(
            a.dags.iter().map(|d| d.seed).collect::<Vec<_>>(),
            b.dags.iter().map(|d| d.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(cyclic(1), cyclic(2));
        assert_ne!(pipeline(1), pipeline(2));
        let (a, b) = (churn(1, 64), churn(2, 64));
        assert_ne!(a.candidates, b.candidates, "jitter must follow the seed");
        assert_ne!(grid_key(&explore(1)), grid_key(&explore(2)));
    }

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        for seed in 0..20 {
            let c = cyclic(seed);
            assert_eq!(c.body_us.len(), CYCLIC_TASKS);
            let total: u64 = c.body_us.iter().sum();
            assert!((57..=63).contains(&total), "cyclic bodies sum to {total}");

            let p = pipeline(seed);
            for chain in &p.node_body_us {
                let total: u64 = chain.iter().sum();
                assert!((156..=164).contains(&total), "chain bodies sum to {total}");
            }
            let side: u64 = p.side_body_us.iter().sum();
            assert!((1194..=1206).contains(&side), "side bodies sum to {side}");

            let ch = churn(seed, 40);
            let mut periods: Vec<u64> = ch.base.iter().map(|b| b.period_ms).collect();
            periods.sort_unstable();
            assert_eq!(periods, [5, 5, 10, 10, 20, 40]);
            assert_eq!(ch.candidates.iter().filter(|c| c.infeasible).count(), 5);
            for (k, c) in ch.candidates.iter().enumerate() {
                let slot = k as u64 * CHURN_ADMIT_EVERY_MS * 1_000_000;
                assert!(c.due_ns >= slot && c.due_ns < slot + CHURN_JITTER_MS * 1_000_000);
            }

            let e = explore(seed);
            assert_eq!(e.grid.len(), 18);
            assert_eq!(e.dags.len(), 4);
            let rate = |g: &GridSet| -> u64 {
                g.tasks
                    .iter()
                    .map(|t| 1_000_000_000 / t.period.as_nanos())
                    .sum()
            };
            let reference = explore(0);
            for (g, r) in e.grid.iter().zip(&reference.grid) {
                assert_eq!(rate(g), rate(r), "job rate must not follow the seed");
            }
        }
    }
}
