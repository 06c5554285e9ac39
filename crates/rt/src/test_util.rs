//! Helpers shared by the tests of the runtime and of its owner loop.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use yasmin_core::config::{Config, ConfigBuilder, MappingScheme};
use yasmin_core::priority::PriorityPolicy;

/// Non-preemptive partitioned EDF with one owner per shard.
pub(crate) fn sharded(workers: usize) -> ConfigBuilder {
    Config::builder()
        .workers(workers)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
}

/// Non-preemptive global EDF under one owner over `workers` slots.
pub(crate) fn one_owner(workers: usize) -> Config {
    Config::builder()
        .workers(workers)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .unwrap()
}

/// Runs a timing scenario up to `n` times. The scenarios claim "well
/// inside one tick"; the shared hosts these tests run on stall a vCPU
/// for tens of milliseconds a few times a minute, which fails an
/// attempt, not the protocol.
pub(crate) fn within_attempts(n: usize, attempt: impl Fn() -> Result<(), String>) {
    let mut last = String::new();
    for _ in 0..n {
        match attempt() {
            Ok(()) => return,
            Err(e) => last = e,
        }
    }
    panic!("{last}");
}

/// Holds the wall clock for one test. Every test that starts a
/// runtime's threads takes it first, so no two run at once: on a host
/// with few CPUs, another test's owners and helpers can hold an owner
/// off its core long enough to start a job milliseconds late and miss a
/// deadline that the scenario meets on its own. A test that failed
/// while holding it leaves nothing behind that the next one reads.
pub(crate) fn wall_clock() -> MutexGuard<'static, ()> {
    static CLOCK: Mutex<()> = Mutex::new(());
    CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn nap_ms(v: u64) {
    std::thread::sleep(std::time::Duration::from_millis(v));
}

/// Runs `scenario` on a thread of its own and fails if it has not
/// returned within 20 s: the scenarios that use it hang when an owner
/// thread waits for itself.
pub(crate) fn must_return<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || verdict_tx.send(scenario()));
    verdict_rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("an owner thread waits for itself")
}

/// `voluntary_ctxt_switches` of every live thread of this process whose
/// name starts with one of `prefixes`, by tid: `(name, count)`. Every
/// blocking sleep is one voluntary context switch, so the count tells a
/// parked thread (a few per tick) from a polling one (thousands a
/// second).
#[cfg(target_os = "linux")]
pub(crate) fn thread_sleeps(prefixes: &[&str]) -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let dir = entry.path();
        // A thread may exit between the listing and the reads.
        let (Ok(name), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        // `comm` keeps 15 bytes of the name.
        if !prefixes.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let sleeps = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("status lists voluntary_ctxt_switches");
        let tid = entry.file_name().to_string_lossy().into_owned();
        out.insert(tid, (name.trim().to_owned(), sleeps));
    }
    out
}

/// Re-executes the test binary so that `test` (its full path, e.g.
/// `owner::tests::idle_threads_stay_parked`) runs alone in a child
/// process — thread names are all that tells a runtime's threads from
/// those of the tests running beside it. Returns `true` in the child,
/// where the caller goes on to measure; in the parent it asserts the
/// child passed and returns `false`.
#[cfg(target_os = "linux")]
pub(crate) fn alone_in_child(test: &str) -> bool {
    const CHILD: &str = "YASMIN_TEST_ALONE_CHILD";
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", test, "--test-threads=1", "--nocapture"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    false
}
