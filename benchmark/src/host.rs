//! What the harness reads from the host: CPU clocks, memory high-water
//! mark, per-thread run time, and the fingerprint + calibration that
//! tell a noisy host from a regression.

use crate::json::Json;
use crate::stats::median_u64;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // The vendored `libc` shim does not declare it; std links the real
    // libc, which does.
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, exited ones
/// included, in nanoseconds. `/proc/self/stat` counts in 10 ms ticks,
/// which made µs-per-job figures bimodal; this clock is exact.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock id every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU nanoseconds of every live thread whose name starts with
/// `prefix`, summed (`/proc/self/task/*/schedstat`, first field). The
/// kernel truncates thread names to 15 bytes, so prefixes are compared
/// on at most that many.
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let prefix = &prefix[..prefix.len().min(15)];
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| {
            let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
            if !comm.trim_end().starts_with(prefix) {
                return None;
            }
            let stat = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Pins the calling thread, best effort (containers may refuse).
pub fn pin(core: usize) {
    let _ = yasmin::rt::os::pin_current_thread(core);
}

/// Busy-waits `us` microseconds on the monotonic clock: a task body of
/// fixed length whatever the core's speed.
#[inline]
pub fn spin_us(us: u64) {
    let end = Instant::now() + Duration::from_micros(us);
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// One-second host calibration: `(wake_p50_us, spin_mops)`.
///
/// * `wake_p50_us` — half the round trip of a bare condvar ping-pong
///   between two threads on cores 0 and 1: what one OS wake-up costs
///   here with no middleware in the way.
/// * `spin_mops` — millions of iterations per second of a fixed
///   dependent-multiply loop: the core's speed with no memory traffic.
pub fn calibrate() -> (f64, f64) {
    // Wake-up cost.
    let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
    let rounds = 2_000u32;
    let echo = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            pin(1);
            let (m, cv) = &*pair;
            let mut g = m.lock().expect("calibration mutex");
            for r in 0..rounds {
                while *g != 2 * r + 1 {
                    g = cv.wait(g).expect("calibration condvar");
                }
                *g += 1;
                cv.notify_one();
            }
        })
    };
    pin(0);
    let mut rtts = Vec::with_capacity(rounds as usize);
    {
        let (m, cv) = &*pair;
        let mut g = m.lock().expect("calibration mutex");
        for r in 0..rounds {
            let t = Instant::now();
            *g = 2 * r + 1;
            cv.notify_one();
            while *g != 2 * r + 2 {
                g = cv.wait(g).expect("calibration condvar");
            }
            rtts.push(t.elapsed().as_nanos() as u64);
        }
    }
    echo.join().expect("calibration echo thread");
    let wake_us = median_u64(&rtts) / 2.0 / 1e3;

    // Core speed: median of 9 slices of a fixed loop.
    let iters = 2_000_000u64;
    let mut slices = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..iters {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        slices.push(t.elapsed().as_nanos() as u64);
    }
    let spin_mops = iters as f64 / median_u64(&slices) * 1e3;
    (wake_us, spin_mops)
}

/// Static description of the machine and build, attached to every
/// output file. `rustc` and `git_commit` come from `run.sh` through the
/// environment (the checkout a driver runs in is not a git repository).
pub fn fingerprint(seed: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(env("YASMIN_BENCH_RUSTC"))),
        ("git_commit", Json::Str(env("YASMIN_BENCH_COMMIT"))),
        ("seed", Json::Int(seed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        spin_us(2_000);
        let b = process_cpu_ns();
        assert!(b - a >= 1_000_000, "2 ms spin charged only {} ns", b - a);
        assert!(peak_rss_mb() > 0.0);
    }
}
