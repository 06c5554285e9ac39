//! OS interactions of the runtime (§3.3/§3.5): core pinning, memory
//! locking, real-time priorities, timer slack.
//!
//! These are the calls the paper relies on — `pthread_setaffinity_np`,
//! `mlockall`, `SCHED_FIFO` — and the timer slack that `SCHED_FIFO`
//! would have set (`prctl(PR_SET_TIMERSLACK)`), none of which `std`
//! exposes, hence the `libc` dependency behind the default `os-rt`
//! feature. Every call degrades gracefully: unprivileged containers
//! return an [`Error::Os`] which callers may log and ignore, matching the
//! middleware's best-effort stance on COTS systems.

use yasmin_core::error::{Error, Result};

/// Pins the calling thread to `core` (zero-based).
///
/// # Errors
///
/// [`Error::Os`] when the kernel rejects the affinity call (out-of-range
/// core, restricted cpuset) or the feature is disabled.
#[cfg(all(feature = "os-rt", target_os = "linux"))]
pub fn pin_current_thread(core: usize) -> Result<()> {
    if core >= libc::CPU_SETSIZE as usize {
        return Err(Error::Os(format!(
            "core {core} exceeds CPU_SETSIZE ({})",
            libc::CPU_SETSIZE
        )));
    }
    // SAFETY: CPU_SET/CPU_ZERO manipulate a plain stack value; the index
    // is bounds-checked above; pthread_setaffinity_np reads it for the
    // calling thread only.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        libc::CPU_SET(core, &mut set);
        let rc = libc::pthread_setaffinity_np(
            libc::pthread_self(),
            std::mem::size_of::<libc::cpu_set_t>(),
            &set,
        );
        if rc == 0 {
            Ok(())
        } else {
            Err(Error::Os(format!(
                "pthread_setaffinity_np({core}) failed: {rc}"
            )))
        }
    }
}

/// Pins the calling thread to `core` — no-op stub without `os-rt` on Linux.
///
/// # Errors
///
/// Always [`Error::Os`] (feature disabled or non-Linux host).
#[cfg(not(all(feature = "os-rt", target_os = "linux")))]
pub fn pin_current_thread(core: usize) -> Result<()> {
    let _ = core;
    Err(Error::Os("os-rt disabled or non-Linux host".into()))
}

/// Locks current and future pages in memory (`mlockall(MCL_CURRENT |
/// MCL_FUTURE)`) — the paper's protection against page faults (§3.5).
///
/// # Errors
///
/// [`Error::Os`] when the kernel refuses (usually `RLIMIT_MEMLOCK`).
#[cfg(all(feature = "os-rt", target_os = "linux"))]
pub fn lock_all_memory() -> Result<()> {
    // SAFETY: mlockall takes flags only and affects the whole process.
    let rc = unsafe { libc::mlockall(libc::MCL_CURRENT | libc::MCL_FUTURE) };
    if rc == 0 {
        Ok(())
    } else {
        Err(Error::Os("mlockall failed (RLIMIT_MEMLOCK?)".into()))
    }
}

/// Locks memory — no-op stub without `os-rt` on Linux.
///
/// # Errors
///
/// Always [`Error::Os`] (feature disabled or non-Linux host).
#[cfg(not(all(feature = "os-rt", target_os = "linux")))]
pub fn lock_all_memory() -> Result<()> {
    Err(Error::Os("os-rt disabled or non-Linux host".into()))
}

/// Gives the calling thread a `SCHED_FIFO` priority (1–99; higher wins).
///
/// # Errors
///
/// [`Error::Os`] when unprivileged (no `CAP_SYS_NICE`).
#[cfg(all(feature = "os-rt", target_os = "linux"))]
pub fn set_fifo_priority(priority: i32) -> Result<()> {
    // SAFETY: sched_param is a plain struct passed by pointer.
    unsafe {
        let param = libc::sched_param {
            sched_priority: priority.clamp(1, 99),
        };
        let rc = libc::pthread_setschedparam(libc::pthread_self(), libc::SCHED_FIFO, &param);
        if rc == 0 {
            Ok(())
        } else {
            Err(Error::Os(format!("SCHED_FIFO({priority}) refused: {rc}")))
        }
    }
}

/// Sets a FIFO priority — no-op stub without `os-rt` on Linux.
///
/// # Errors
///
/// Always [`Error::Os`] (feature disabled or non-Linux host).
#[cfg(not(all(feature = "os-rt", target_os = "linux")))]
pub fn set_fifo_priority(priority: i32) -> Result<()> {
    let _ = priority;
    Err(Error::Os("os-rt disabled or non-Linux host".into()))
}

/// The timer slack of every runtime thread, in ns: what Linux gives a
/// `SCHED_FIFO` thread. Under the default policy a thread's timed
/// sleeps may end up to 50 µs past their timeout so that the kernel can
/// batch wake-ups; an owner's tick-edge parks are timed to the µs.
pub const RUNTIME_TIMER_SLACK_NS: u64 = 1;

/// Sets the calling thread's timer slack to `ns` nanoseconds
/// (`prctl(PR_SET_TIMERSLACK)`): how far past its timeout the kernel
/// may end one of its timed sleeps. A thread with a real-time policy
/// has none whatever this says.
///
/// # Errors
///
/// [`Error::Os`] when the kernel refuses.
#[cfg(all(feature = "os-rt", target_os = "linux"))]
pub fn set_timer_slack(ns: u64) -> Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // affects the calling thread only.
    let rc = unsafe { libc::prctl(libc::PR_SET_TIMERSLACK, ns as libc::c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(Error::Os(format!("PR_SET_TIMERSLACK({ns}) refused: {rc}")))
    }
}

/// Sets the timer slack — no-op stub without `os-rt` on Linux.
///
/// # Errors
///
/// Always [`Error::Os`] (feature disabled or non-Linux host).
#[cfg(not(all(feature = "os-rt", target_os = "linux")))]
pub fn set_timer_slack(ns: u64) -> Result<()> {
    let _ = ns;
    Err(Error::Os("os-rt disabled or non-Linux host".into()))
}

/// What every runtime thread — owner or helper — does before its loop:
/// pin to `core` and take a timer slack of [`RUNTIME_TIMER_SLACK_NS`],
/// both best-effort. Returns whether the kernel agreed to the pinning;
/// a thread it refused runs wherever the host puts it and is counted in
/// `RuntimeReport::unpinned_threads`. Where a runtime thread runs, and
/// how late the kernel may end its timed parks, are decided here and
/// nowhere else. Its priority is not: it keeps the policy it was
/// spawned with ([`set_fifo_priority`] is a caller's).
#[must_use]
pub fn enter_runtime_thread(core: usize) -> bool {
    let _ = set_timer_slack(RUNTIME_TIMER_SLACK_NS);
    pin_current_thread(core).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_to_core_zero_usually_works() {
        // Core 0 exists everywhere; in restricted cpusets this may fail,
        // which is also an accepted outcome.
        match pin_current_thread(0) {
            Ok(()) => {}
            Err(Error::Os(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn pin_to_absurd_core_fails() {
        assert!(pin_current_thread(100_000).is_err());
    }

    #[cfg(all(feature = "os-rt", target_os = "linux"))]
    #[test]
    fn a_runtime_thread_sleeps_with_a_nanosecond_of_timer_slack() {
        // On a thread of its own: entering pins it, and the slack is
        // the thread's.
        let slack = std::thread::spawn(|| {
            let _ = enter_runtime_thread(0);
            // SAFETY: PR_GET_TIMERSLACK reads the calling thread's
            // slack and takes no further argument.
            unsafe { libc::prctl(libc::PR_GET_TIMERSLACK) }
        });
        assert_eq!(slack.join().unwrap(), 1);
    }

    #[cfg(not(all(feature = "os-rt", target_os = "linux")))]
    #[test]
    fn the_timer_slack_stub_does_nothing() {
        assert!(set_timer_slack(RUNTIME_TIMER_SLACK_NS).is_err());
    }
}
