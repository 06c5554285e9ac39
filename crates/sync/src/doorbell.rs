//! A one-sleeper / many-ringers **doorbell**: the blocking half of the
//! paper's "sleep" waiting strategy (§3.5) for threads fed by lock-free
//! queues.
//!
//! The [`crate::spsc`] rings and the [`mod@crate::mailbox`] never
//! block, so a consumer with nothing to do must either poll (burning
//! its core, or napping and paying the nap's remainder on every
//! hand-off) or sleep until a producer *tells* it there is work. The
//! doorbell is that signal, and nothing more: it carries no payload and
//! no count. A producer first **publishes** its work where the sleeper
//! will look (a ring push, a flag store), then [`Doorbell::ring`]s; the
//! sleeper calls [`Doorbell::wait`] with a closure that looks again.
//!
//! # Why no wake-up is lost
//!
//! The sleeper announces itself *before* its last look, the ringer
//! publishes *before* it checks for a sleeper, and each side puts a
//! `SeqCst` fence between its store and its load (Dekker's pattern):
//!
//! ```text
//! sleeper                            ringer
//! sleeping.store(true)               publish work
//! fence(SeqCst)                      fence(SeqCst)
//! if ready() { don't park }          if sleeping.load() { unpark }
//! park
//! ```
//!
//! Whichever fence comes first in the single total order of `SeqCst`
//! operations, the other side's load sees the store before it: either
//! `ready()` finds the work, or the ringer finds `sleeping` set and
//! unparks. `std`'s park token covers the remaining window (an
//! `unpark` that lands before the `park` makes that `park` return at
//! once).
//!
//! # Cost
//!
//! A ring at an awake sleeper is the fence plus one load that finds
//! `false` — no syscall, no lock, no allocation. A ringer whose publish
//! was itself a `SeqCst` read-modify-write on a location the sleeper's
//! `ready()` re-reads with `SeqCst` (the mailbox's pending counter) may
//! skip the fence: [`Doorbell::ring_published`] is then one `SeqCst`
//! load, a plain `mov` on x86. Only a ring that finds the sleeper
//! asleep pays `unpark` (a futex wake), and of several concurrent
//! ringers only the one that claims the flag does.
//!
//! # What it is not
//!
//! Not a semaphore: a ring at an awake sleeper is forgotten, so
//! `wait`'s closure — not the ring — is what says "there is work". Not
//! exact either: `wait` may return with nothing to do (a timeout, a
//! spurious `park` return, or the token of a ring that raced a `wait`
//! whose closure had already found the work — at most one such stale
//! token can exist, so at most one later `wait` is cut short). Callers
//! loop.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::Duration;

/// Wakes one sleeping thread from many ringing threads; see the module
/// docs for the protocol and its proof sketch.
#[derive(Debug, Default)]
pub struct Doorbell {
    /// Set by the sleeper before its last look, cleared by whoever ends
    /// the sleep (the claiming ringer, or the sleeper on return).
    sleeping: AtomicBool,
    /// The one thread that waits on this bell, registered by its first
    /// [`Doorbell::wait`].
    sleeper: OnceLock<Thread>,
}

impl Doorbell {
    /// A bell nobody sleeps on yet.
    #[must_use]
    pub const fn new() -> Self {
        Doorbell {
            sleeping: AtomicBool::new(false),
            sleeper: OnceLock::new(),
        }
    }

    /// Sleeper side: parks the calling thread until the bell is rung or
    /// `timeout` elapses (`None` waits for a ring alone) — unless
    /// `ready()`, evaluated *after* the thread has announced itself,
    /// already finds work. `ready` must re-read every piece of shared
    /// state whose change is signalled by a ring, with at least
    /// `Acquire` loads.
    ///
    /// May return early with nothing to do (module docs); loop.
    ///
    /// All calls must come from one thread: the bell has one sleeper.
    pub fn wait(&self, timeout: Option<Duration>, ready: impl FnOnce() -> bool) {
        if self.announce(ready) {
            self.park(timeout);
        }
    }

    /// The first half of [`Doorbell::wait`]: announces the sleep, then
    /// looks. `true` says `ready()` found nothing and the announcement
    /// stands — every ring from now on claims it — so the caller goes
    /// on to [`Doorbell::park`]; `false` says there is work and nobody
    /// is announced.
    pub fn announce(&self, ready: impl FnOnce() -> bool) -> bool {
        let me = self.sleeper.get_or_init(std::thread::current);
        debug_assert_eq!(
            me.id(),
            std::thread::current().id(),
            "a doorbell has exactly one sleeper"
        );
        self.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let asleep = !ready();
        if !asleep {
            self.sleeping.store(false, Ordering::Relaxed);
        }
        asleep
    }

    /// The second half: parks the announced thread until a ring or
    /// `timeout`, and withdraws the announcement. Returns `true` when a
    /// ringer claimed it; `false` when nobody did — the timeout ended
    /// the park, or it returned early with nothing to do (module docs).
    pub fn park(&self, timeout: Option<Duration>) -> bool {
        match timeout {
            Some(d) => std::thread::park_timeout(d),
            None => std::thread::park(),
        }
        // A read-modify-write, like the ringer's claim: of the two, one
        // finds the flag still set.
        !self.sleeping.swap(false, Ordering::Relaxed)
    }

    /// `true` from an [`Doorbell::announce`] that returned `true` until
    /// a ringer claims the announcement or [`Doorbell::park`] returns:
    /// what a driver that stands in for the sleeping thread (one thread
    /// stepping several sleepers in virtual time) asks before it lets
    /// that sleeper go on ahead of its timeout.
    #[must_use]
    pub fn is_announced(&self) -> bool {
        self.sleeping.load(Ordering::SeqCst)
    }

    /// Ringer side: wakes the sleeper if it sleeps. Call *after*
    /// publishing the work `wait`'s closure looks for.
    pub fn ring(&self) {
        fence(Ordering::SeqCst);
        self.ring_published();
    }

    /// [`Doorbell::ring`] without the fence, for a ringer that
    /// published with a `SeqCst` read-modify-write or store on a
    /// location the sleeper's closure re-reads with a `SeqCst` load —
    /// the four operations are then ordered by `SeqCst` alone.
    pub fn ring_published(&self) {
        // Load before swap: the common case (sleeper awake) must not
        // write to the line every producer reads.
        if self.sleeping.load(Ordering::SeqCst) && self.sleeping.swap(false, Ordering::SeqCst) {
            // `sleeping` was set, so the sleeper registered before it.
            if let Some(t) = self.sleeper.get() {
                t.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn published_work_rung_before_the_wait_returns_immediately() {
        let bell = Doorbell::new();
        let flag = AtomicBool::new(false);
        flag.store(true, Ordering::Release);
        bell.ring();
        let t0 = Instant::now();
        bell.wait(None, || flag.load(Ordering::Acquire));
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn timeout_bounds_an_unrung_wait() {
        let bell = Doorbell::new();
        let t0 = Instant::now();
        // Spurious `park` returns are allowed; the deadline is not.
        while t0.elapsed() < Duration::from_millis(5) {
            bell.wait(Some(Duration::from_millis(5)), || false);
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn rings_at_an_awake_sleeper_leave_no_token_behind() {
        // A ring that finds nobody asleep is forgotten: however many
        // arrive, they shorten no later wait.
        let bell = Doorbell::new();
        bell.wait(Some(Duration::ZERO), || true); // registers the sleeper
        for _ in 0..100 {
            bell.ring();
        }
        // One stale token is allowed by contract (none is expected
        // here), so the *second* wait must run its full timeout.
        bell.wait(Some(Duration::from_millis(20)), || false);
        let t0 = Instant::now();
        bell.wait(Some(Duration::from_millis(20)), || false);
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "second wait returned after {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn a_ring_claims_a_standing_announcement() {
        let bell = Doorbell::new();
        assert!(!bell.announce(|| true), "work found: nobody announced");
        assert!(!bell.is_announced());
        assert!(bell.announce(|| false));
        assert!(bell.is_announced());
        bell.ring();
        assert!(!bell.is_announced(), "the ringer claimed it");
        // Its token ends the park at once, whatever the timeout, and
        // the park says it was rung.
        let t0 = Instant::now();
        assert!(bell.park(Some(Duration::from_secs(5))));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // An announcement nobody claims stands until the park is over,
        // which says nobody rang.
        assert!(bell.announce(|| false));
        assert!(!bell.park(Some(Duration::ZERO)));
        assert!(!bell.is_announced());
    }

    #[test]
    fn a_racing_ring_skips_at_most_one_later_wait() {
        // The stale-token case made deterministic: the closure rings
        // the bell itself while `sleeping` is set — a ringer that found
        // the sleeper "asleep" although it is about to find its work —
        // so `unpark` leaves a token behind.
        let bell = Doorbell::new();
        bell.wait(None, || {
            bell.ring();
            true
        });
        bell.wait(Some(Duration::from_millis(20)), || false); // may consume it
        let t0 = Instant::now();
        bell.wait(Some(Duration::from_millis(20)), || false);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn ping_pong_with_untimed_waits_loses_no_wake_up() {
        // Two threads bounce a counter through a pair of SPSC rings,
        // each sleeping *untimed* on its own bell between rounds: one
        // lost wake-up and the test never terminates.
        const ROUNDS: u64 = 200_000;
        let (mut ping_tx, mut ping_rx) = spsc::channel::<u64>(1);
        let (mut pong_tx, mut pong_rx) = spsc::channel::<u64>(1);
        let ping_bell = Arc::new(Doorbell::new());
        let pong_bell = Arc::new(Doorbell::new());

        let echo = {
            let ping_bell = Arc::clone(&ping_bell);
            let pong_bell = Arc::clone(&pong_bell);
            std::thread::spawn(move || loop {
                match ping_rx.pop() {
                    Some(v) => {
                        pong_tx.push(v).expect("one value in flight");
                        pong_bell.ring();
                        if v == ROUNDS {
                            break;
                        }
                    }
                    None => ping_bell.wait(None, || !ping_rx.is_empty()),
                }
            })
        };

        for round in 1..=ROUNDS {
            ping_tx.push(round).expect("one value in flight");
            ping_bell.ring();
            loop {
                if let Some(v) = pong_rx.pop() {
                    assert_eq!(v, round);
                    break;
                }
                pong_bell.wait(None, || !pong_rx.is_empty());
            }
        }
        echo.join().unwrap();
    }

    #[test]
    fn many_ringers_wake_one_sleeper() {
        // Several producers publish by SeqCst increment and ring
        // without the fence (the mailbox's shape); the sleeper must see
        // every increment with untimed waits only.
        use std::sync::atomic::AtomicU64;
        const RINGERS: u64 = 3;
        const PER_RINGER: u64 = 20_000;
        let bell = Arc::new(Doorbell::new());
        let published = Arc::new(AtomicU64::new(0));
        let ringers: Vec<_> = (0..RINGERS)
            .map(|_| {
                let bell = Arc::clone(&bell);
                let published = Arc::clone(&published);
                std::thread::spawn(move || {
                    for _ in 0..PER_RINGER {
                        published.fetch_add(1, Ordering::SeqCst);
                        bell.ring_published();
                    }
                })
            })
            .collect();
        let mut seen = 0;
        while seen < RINGERS * PER_RINGER {
            bell.wait(None, || published.load(Ordering::SeqCst) != seen);
            seen = published.load(Ordering::SeqCst);
        }
        for r in ringers {
            r.join().unwrap();
        }
    }
}
