//! A stress-ng-like interference profile.
//!
//! The paper generates load with `stress-ng -C 8 -c 8 -T 8 -y 8`:
//! 8 threads each of cache-thrashing, CPU computation, timer events and
//! `sched_yield` stressors (§4.2). For the simulator this becomes a
//! scalar *intensity* in `[0, 1]` fed into the kernel latency model; the
//! real-thread analogue lives in `yasmin-baselines::stress`.

/// Thread counts per stressor class, mirroring stress-ng's `-C -c -T -y`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StressProfile {
    /// Cache-thrashing threads (`-C`).
    pub cache: u32,
    /// CPU-computation threads (`-c`).
    pub cpu: u32,
    /// Timer-event threads (`-T`).
    pub timer: u32,
    /// `sched_yield` threads (`-y`).
    pub yield_: u32,
}

impl StressProfile {
    /// No interference.
    pub const IDLE: StressProfile = StressProfile {
        cache: 0,
        cpu: 0,
        timer: 0,
        yield_: 0,
    };

    /// The paper's configuration: `-C 8 -c 8 -T 8 -y 8`.
    pub const PAPER: StressProfile = StressProfile {
        cache: 8,
        cpu: 8,
        timer: 8,
        yield_: 8,
    };

    /// Scalar intensity in `[0, 1]` for a platform with `cores` cores.
    ///
    /// Saturates once the stressors oversubscribe the machine by 4×
    /// (beyond that, extra threads mostly queue behind each other).
    /// Timer and yield stressors count double: they enter the kernel on
    /// every iteration, which is what actually perturbs wake-up latency.
    #[must_use]
    pub fn intensity(&self, cores: usize) -> f64 {
        if cores == 0 {
            return 1.0;
        }
        let weighted =
            f64::from(self.cache) + f64::from(self.cpu) + 2.0 * f64::from(self.timer + self.yield_);
        let saturation = 4.0 * cores as f64;
        (weighted / saturation).min(1.0)
    }
}

impl Default for StressProfile {
    fn default() -> Self {
        StressProfile::IDLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_is_zero() {
        assert_eq!(StressProfile::IDLE.intensity(8), 0.0);
    }

    #[test]
    fn paper_profile_saturates_odroid() {
        // 8+8+2*(8+8) = 48 weighted threads on 8 cores: 48/32 > 1 -> 1.0.
        let p = StressProfile::PAPER;
        assert!((p.intensity(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_load_scales() {
        let p = StressProfile {
            cache: 4,
            cpu: 4,
            timer: 0,
            yield_: 0,
        };
        // 8 weighted / 32 = 0.25.
        assert!((p.intensity(8) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn more_cores_dilute() {
        let p = StressProfile {
            cache: 8,
            cpu: 0,
            timer: 0,
            yield_: 0,
        };
        assert!(p.intensity(2) > p.intensity(16));
    }

    #[test]
    fn zero_cores_is_full() {
        assert_eq!(StressProfile::PAPER.intensity(0), 1.0);
    }
}
