//! Real stressor threads — the stress-ng analogue (§4.2).
//!
//! `stress-ng -C 8 -c 8 -T 8 -y 8` spawns cache-thrashing, CPU, timer and
//! `sched_yield` stressors. [`StressRunner`] spawns the same mix as plain
//! threads so real-machine latency measurements (cyclictest, Table 2) run
//! under comparable interference. The *simulated* counterpart is
//! `yasmin_sim::StressProfile`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use yasmin_sim::StressProfile;

/// Running stressor threads; stops and joins on [`StressRunner::stop`] or
/// drop.
#[derive(Debug)]
pub struct StressRunner {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Total iterations executed across stressors (a liveness indicator).
    iterations: Arc<AtomicU64>,
}

impl StressRunner {
    /// Spawns the stressor mix described by `profile`.
    #[must_use]
    pub fn spawn(profile: StressProfile) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let iterations = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();

        for _ in 0..profile.cache {
            let stop = Arc::clone(&stop);
            let iters = Arc::clone(&iterations);
            threads.push(std::thread::spawn(move || cache_stressor(&stop, &iters)));
        }
        for _ in 0..profile.cpu {
            let stop = Arc::clone(&stop);
            let iters = Arc::clone(&iterations);
            threads.push(std::thread::spawn(move || cpu_stressor(&stop, &iters)));
        }
        for _ in 0..profile.timer {
            let stop = Arc::clone(&stop);
            let iters = Arc::clone(&iterations);
            threads.push(std::thread::spawn(move || timer_stressor(&stop, &iters)));
        }
        for _ in 0..profile.yield_ {
            let stop = Arc::clone(&stop);
            let iters = Arc::clone(&iterations);
            threads.push(std::thread::spawn(move || yield_stressor(&stop, &iters)));
        }

        StressRunner {
            stop,
            threads,
            iterations,
        }
    }

    /// Iterations executed so far across all stressors.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Stops and joins all stressors.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for StressRunner {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Walks a 4 MiB buffer with a large stride to defeat the cache
/// (stress-ng's `-C`).
fn cache_stressor(stop: &AtomicBool, iters: &AtomicU64) {
    const SIZE: usize = 4 * 1024 * 1024;
    const STRIDE: usize = 4099; // prime, larger than a cache line
    let mut buf = vec![0u8; SIZE];
    let mut idx = 0usize;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..1024 {
            idx = (idx + STRIDE) % SIZE;
            buf[idx] = buf[idx].wrapping_add(1);
        }
        iters.fetch_add(1, Ordering::Relaxed);
    }
    std::hint::black_box(&buf);
}

/// Integer arithmetic loop (stress-ng's `-c`).
fn cpu_stressor(stop: &AtomicBool, iters: &AtomicU64) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
        iters.fetch_add(1, Ordering::Relaxed);
    }
}

/// Frequent short sleeps generating timer traffic (stress-ng's `-T`).
fn timer_stressor(stop: &AtomicBool, iters: &AtomicU64) {
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_micros(200));
        iters.fetch_add(1, Ordering::Relaxed);
    }
}

/// Scheduler churn via `yield` (stress-ng's `-y`).
fn yield_stressor(stop: &AtomicBool, iters: &AtomicU64) {
    while !stop.load(Ordering::Relaxed) {
        std::thread::yield_now();
        iters.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawns_and_stops_the_mix() {
        let profile = StressProfile {
            cache: 1,
            cpu: 1,
            timer: 1,
            yield_: 1,
        };
        let runner = StressRunner::spawn(profile);
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(runner.iterations() > 0, "stressors made no progress");
        runner.stop();
    }

    #[test]
    fn idle_profile_spawns_nothing() {
        let runner = StressRunner::spawn(StressProfile::IDLE);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(runner.iterations(), 0);
        runner.stop();
    }

    #[test]
    fn drop_joins() {
        let runner = StressRunner::spawn(StressProfile {
            cache: 0,
            cpu: 2,
            timer: 0,
            yield_: 0,
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(runner); // must not hang
    }
}
