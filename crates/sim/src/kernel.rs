//! OS kernel wake-up latency models.
//!
//! Table 2 of the paper compares cyclictest latencies on
//! Linux+PREEMPT_RT 4.14-rt63 and LitmusRT 4.9.30 under stress-ng load.
//! Those kernels are not available in this reproduction environment, so
//! each becomes a *latency distribution*: a base wake-up cost, a
//! load-sensitive component, and a heavy tail. Parameters are calibrated
//! from the paper's reported `<min, max, avg>` triples (documented in
//! EXPERIMENTS.md); what the middleware *adds on top* is measured from our
//! own scheduler implementation, so the YASMIN-vs-native deltas are
//! produced, not transcribed.
//!
//! The model: `latency = base + load·stress + Exp(mean_jitter)`, with a
//! small probability of a tail spike drawn uniformly up to `tail_max`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yasmin_core::time::Duration;

/// Which kernel the platform boots (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KernelKind {
    /// Vanilla Linux without real-time patches ("only soft-real-time
    /// applications can be enforced on a vanilla Linux", §1).
    VanillaLinux,
    /// Linux 4.14-rt63 with the PREEMPT_RT patch set.
    PreemptRt,
    /// LitmusRT 4.9.30 with the GSN-EDF plugin.
    LitmusGsnEdf,
    /// LitmusRT 4.9.30 with the P-RES (partitioned reservation) plugin —
    /// the paper measures it an order of magnitude slower.
    LitmusPres,
}

impl KernelKind {
    /// Display label matching the paper's Table 2 rows.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            KernelKind::VanillaLinux => "Linux (vanilla)",
            KernelKind::PreemptRt => "Linux+PREEMPT_RT 4.14.134-rt63",
            KernelKind::LitmusGsnEdf => "LitmusRT 4.9.30 (GSN-EDF)",
            KernelKind::LitmusPres => "LitmusRT 4.9.30 (P-RES)",
        }
    }
}

/// Calibrated latency-distribution parameters (all microseconds except
/// the probability).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelParams {
    /// Minimum wake-up cost with no load.
    pub base_us: f64,
    /// Upper bound of the uniform load-dependent component, scaled by the
    /// stress intensity (0–1); a wake-up that slips between stressor
    /// bursts pays almost nothing, hence uniform rather than additive.
    pub load_us: f64,
    /// Mean of the exponential jitter component.
    pub jitter_mean_us: f64,
    /// Probability of a tail spike per sample.
    pub tail_prob: f64,
    /// Upper bound of the uniform tail spike.
    pub tail_max_us: f64,
}

impl KernelKind {
    /// Calibrated parameters reproducing the ordering and rough
    /// magnitudes of Table 2 under full stress.
    #[must_use]
    pub const fn params(self) -> KernelParams {
        match self {
            // Paper (RTapps row): <176, 1550, 463>.
            KernelKind::PreemptRt => KernelParams {
                base_us: 175.0,
                load_us: 450.0,
                jitter_mean_us: 60.0,
                tail_prob: 0.003,
                tail_max_us: 420.0,
            },
            // Paper (RTapps row): <33, 222, 74>.
            KernelKind::LitmusGsnEdf => KernelParams {
                base_us: 33.0,
                load_us: 50.0,
                jitter_mean_us: 16.0,
                tail_prob: 0.003,
                tail_max_us: 60.0,
            },
            // Paper (litmus+P-RES row): <988, 1206, 1027> — a reservation
            // server with a high fixed polling cost and little spread.
            KernelKind::LitmusPres => KernelParams {
                base_us: 985.0,
                load_us: 40.0,
                jitter_mean_us: 20.0,
                tail_prob: 0.002,
                tail_max_us: 60.0,
            },
            // Vanilla Linux: similar base to PREEMPT_RT but a far heavier
            // tail under load (no priority inheritance in the fast path).
            KernelKind::VanillaLinux => KernelParams {
                base_us: 60.0,
                load_us: 450.0,
                jitter_mean_us: 250.0,
                tail_prob: 0.02,
                tail_max_us: 9_000.0,
            },
        }
    }
}

/// A seeded sampler of wake-up latencies for one kernel.
#[derive(Debug)]
pub struct KernelModel {
    kind: KernelKind,
    params: KernelParams,
    rng: StdRng,
}

impl KernelModel {
    /// Creates a sampler for `kind` with its calibrated parameters.
    #[must_use]
    pub fn new(kind: KernelKind, seed: u64) -> Self {
        KernelModel {
            kind,
            params: kind.params(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The modelled kernel.
    #[must_use]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Draws one wake-up latency under `stress` intensity in `[0, 1]`.
    pub fn sample_latency(&mut self, stress: f64) -> Duration {
        let stress = stress.clamp(0.0, 1.0);
        let p = &self.params;
        let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let jitter = -u.ln() * p.jitter_mean_us;
        let load: f64 = self.rng.random_range(0.0..1.0) * p.load_us * stress;
        let mut us = p.base_us + load + jitter;
        if self.rng.random_range(0.0..1.0) < p.tail_prob * (0.25 + 0.75 * stress) {
            us += self.rng.random_range(0.0..p.tail_max_us);
        }
        Duration::from_nanos((us * 1_000.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::stats::Summary;

    fn collect(kind: KernelKind, stress: f64, n: usize) -> Summary {
        let mut m = KernelModel::new(kind, 7);
        (0..n)
            .map(|_| m.sample_latency(stress).as_nanos())
            .collect()
    }

    #[test]
    fn ordering_matches_table2() {
        // Under full stress: GSN-EDF < PREEMPT_RT < P-RES on average.
        let gsn = collect(KernelKind::LitmusGsnEdf, 1.0, 20_000);
        let rt = collect(KernelKind::PreemptRt, 1.0, 20_000);
        let pres = collect(KernelKind::LitmusPres, 1.0, 20_000);
        // (summaries hold nanoseconds; ordering is unit-free)
        assert!(gsn.mean().unwrap() < rt.mean().unwrap());
        assert!(rt.mean().unwrap() < pres.mean().unwrap());
    }

    #[test]
    fn preempt_rt_magnitudes() {
        let s = collect(KernelKind::PreemptRt, 1.0, 60_000);
        let (min, max, avg) = s.as_micros_triple();
        // Paper RTapps row: <176, 1550, 463> — accept the right decade.
        assert!((100.0..300.0).contains(&min), "min {min}");
        assert!((800.0..2_500.0).contains(&max), "max {max}");
        assert!((300.0..650.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn gsn_edf_magnitudes() {
        let s = collect(KernelKind::LitmusGsnEdf, 1.0, 60_000);
        let (min, max, avg) = s.as_micros_triple();
        // Paper RTapps row: <33, 222, 74>.
        assert!((20.0..60.0).contains(&min), "min {min}");
        assert!((120.0..400.0).contains(&max), "max {max}");
        assert!((50.0..120.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn pres_magnitudes() {
        let s = collect(KernelKind::LitmusPres, 1.0, 60_000);
        let (min, max, avg) = s.as_micros_triple();
        // Paper: <988, 1206, 1027>.
        assert!((900.0..1_100.0).contains(&min), "min {min}");
        assert!((1_050.0..1_600.0).contains(&max), "max {max}");
        assert!((950.0..1_150.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn stress_increases_latency() {
        let idle = collect(KernelKind::PreemptRt, 0.0, 20_000);
        let busy = collect(KernelKind::PreemptRt, 1.0, 20_000);
        assert!(busy.mean().unwrap() > idle.mean().unwrap());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = KernelModel::new(KernelKind::PreemptRt, 3);
        let mut b = KernelModel::new(KernelKind::PreemptRt, 3);
        for _ in 0..100 {
            assert_eq!(a.sample_latency(0.5), b.sample_latency(0.5));
        }
    }

    #[test]
    fn labels() {
        assert!(KernelKind::PreemptRt.label().contains("PREEMPT_RT"));
        assert!(KernelKind::LitmusPres.label().contains("P-RES"));
    }
}
