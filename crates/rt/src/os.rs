//! OS interactions of the runtime (§3.3/§3.5): core pinning, memory
//! locking, real-time priorities.
//!
//! These are exactly the calls the paper relies on —
//! `pthread_setaffinity_np`, `mlockall`, `SCHED_FIFO` — none of which
//! `std` exposes, hence the `libc` dependency behind the default `os-rt`
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

/// What every runtime thread — owner or helper — does before its loop:
/// pin to `core`, best-effort. Returns whether the kernel agreed; a
/// thread it refused runs wherever the host puts it and is counted in
/// `RuntimeReport::unpinned_threads`. Where a runtime thread runs is
/// decided here and nowhere else. Its priority is not: it keeps the
/// policy it was spawned with ([`set_fifo_priority`] is a caller's).
#[must_use]
pub fn enter_runtime_thread(core: usize) -> bool {
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
}
