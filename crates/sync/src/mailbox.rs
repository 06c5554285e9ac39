//! A lock-free multi-producer / single-consumer **command mailbox**.
//!
//! The sharded scheduler (one engine shard per worker, PR 3) needs a
//! feed path that lets several producers — worker threads handing back
//! completions, control threads injecting activations, external tick
//! sources — deliver commands to a single shard owner without any lock
//! on the hot path. Rather than a CAS-looping MPMC queue, the mailbox
//! composes the existing wait-free [`crate::spsc`] ring: **one SPSC lane
//! per producer**, drained by the single owner. Every `send` and every
//! `recv` therefore completes in a bounded number of steps (no retry
//! loops under contention), which keeps the path WCET-analysable — the
//! same argument the paper makes for its FIFO channels (§3.5).
//!
//! Properties:
//!
//! * **per-lane FIFO**: commands from one producer arrive in order;
//!   cross-lane order is decided by the consumer (round-robin in
//!   [`MailboxReceiver::try_recv`], or one lane at a time with
//!   [`MailboxReceiver::pop_lane`]);
//! * **O(1) emptiness**: a shared counter tracks pending commands so an
//!   idle owner does not scan all lanes to discover there is nothing to
//!   do (the counter is advisory — it may transiently over-count while
//!   a `send` is in flight, but never under-counts);
//! * **no allocation after construction**: lanes are fixed-capacity
//!   rings created up front;
//! * **event-driven idling**: an owner with nothing to do may
//!   [`MailboxReceiver::park`] until the next `send` on any lane. The
//!   mailbox carries a [`Doorbell`] next to its pending counter; every
//!   successful `send` rings it, which against
//!   an owner that is awake is one load of a flag on the cache line the
//!   `send` has just written. A [`MailboxSender::send_quiet`] does not
//!   ring: its command waits for whatever ends the park next, the
//!   owner's timeout at the latest.

use crate::doorbell::Doorbell;
use crate::spsc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Error returned by [`MailboxSender::send`] when the sender's lane is
/// full (the owner is not draining fast enough — back-pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxFull<T>(pub T);

impl<T> std::fmt::Display for MailboxFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("mailbox lane is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for MailboxFull<T> {}

/// What every lane shares with the owner: the pending counter and the
/// owner's doorbell, side by side so a `send`'s ring reads the line its
/// count has just written.
struct Shared {
    pending: AtomicUsize,
    bell: Doorbell,
}

/// Creates a command mailbox with `lanes` producers, each backed by a
/// private SPSC ring of `lane_capacity` slots.
///
/// Returns one [`MailboxSender`] per lane plus the single
/// [`MailboxReceiver`]. Senders are `Send` and are meant to be moved to
/// their producer threads; each is single-producer (it owns its lane).
///
/// # Panics
///
/// Panics if `lanes` or `lane_capacity` is zero.
#[must_use]
pub fn mailbox<T: Send>(
    lanes: usize,
    lane_capacity: usize,
) -> (Vec<MailboxSender<T>>, MailboxReceiver<T>) {
    mailbox_with_capacities(&vec![lane_capacity; lanes])
}

/// [`mailbox`] with one lane per entry of `capacities`, each ring sized
/// by what its producer can have in flight: a lane that carries one
/// reply at a time needs one slot, not the depth of the command lanes
/// beside it (a slot is as large as the largest command).
///
/// # Panics
///
/// Panics if `capacities` is empty or holds a zero.
#[must_use]
pub fn mailbox_with_capacities<T: Send>(
    capacities: &[usize],
) -> (Vec<MailboxSender<T>>, MailboxReceiver<T>) {
    assert!(!capacities.is_empty(), "mailbox needs at least one lane");
    let shared = Arc::new(Shared {
        pending: AtomicUsize::new(0),
        bell: Doorbell::new(),
    });
    let mut senders = Vec::with_capacity(capacities.len());
    let mut receivers = Vec::with_capacity(capacities.len());
    for &lane_capacity in capacities {
        let (tx, rx) = spsc::channel::<T>(lane_capacity);
        senders.push(MailboxSender {
            lane: tx,
            shared: Arc::clone(&shared),
        });
        receivers.push(rx);
    }
    (
        senders,
        MailboxReceiver {
            lanes: receivers,
            next: 0,
            shared,
        },
    )
}

/// The producing endpoint of one mailbox lane (single producer).
pub struct MailboxSender<T> {
    lane: spsc::Producer<T>,
    shared: Arc<Shared>,
}

impl<T: Send> std::fmt::Debug for MailboxSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxSender")
            .field("buffered", &self.lane.len())
            .finish()
    }
}

impl<T: Send> MailboxSender<T> {
    /// Enqueues `cmd` on this producer's lane.
    ///
    /// # Errors
    ///
    /// [`MailboxFull`] returning the command when the lane has no room;
    /// the producer should back off and retry (the owner drains).
    pub fn send(&mut self, cmd: T) -> Result<(), MailboxFull<T>> {
        self.send_quiet(cmd)?;
        // The count is a `SeqCst` read-modify-write the parking owner
        // re-reads, which makes the ring fence-free.
        self.shared.bell.ring_published();
        Ok(())
    }

    /// [`MailboxSender::send`] without the ring: the command is queued
    /// and counted, but a parked owner sleeps on until something else
    /// ends its park — another `send`, a `wake`, or its timeout. For a
    /// command that is not due before the owner's next timed wake-up
    /// anyway: the owner finds it then, and the sender saves the futex
    /// wake a ring costs when the owner is asleep (an IPI, when it
    /// sleeps on another core).
    ///
    /// An owner that parks with no timeout may never see it: only send
    /// quietly to one whose every park is timed.
    ///
    /// # Errors
    ///
    /// As [`MailboxSender::send`].
    pub fn send_quiet(&mut self, cmd: T) -> Result<(), MailboxFull<T>> {
        // Count *before* the push: the counter must never under-count,
        // or an owner could believe the mailbox empty while a command is
        // already visible in a lane. `SeqCst` because the count is also
        // what a parking owner re-reads (`MailboxReceiver::park`).
        let shared = &*self.shared;
        shared.pending.fetch_add(1, Ordering::SeqCst);
        self.lane.push(cmd).map_err(|spsc::Full(v)| {
            shared.pending.fetch_sub(1, Ordering::Release);
            MailboxFull(v)
        })
    }

    /// Wakes the owner if it is parked, without sending anything — for
    /// a producer that changed state the owner watches *outside* the
    /// mailbox (a shared flag, an advisory board) and re-checks in the
    /// closure it passes to [`MailboxReceiver::park`].
    pub fn wake(&self) {
        self.shared.bell.ring();
    }

    /// Commands currently buffered in this lane.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lane.len()
    }

    /// `true` when this lane holds no commands.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty()
    }

    /// The fixed per-lane capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lane.capacity()
    }
}

/// The single consuming endpoint of a mailbox (the shard owner).
pub struct MailboxReceiver<T> {
    lanes: Vec<spsc::Consumer<T>>,
    next: usize,
    shared: Arc<Shared>,
}

impl<T> std::fmt::Debug for MailboxReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxReceiver")
            .field("lanes", &self.lanes.len())
            .field("pending", &self.shared.pending.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Send> MailboxReceiver<T> {
    /// Removes and returns one command, scanning lanes round-robin from
    /// just past the lane served last (so a chatty producer cannot
    /// starve the others). Returns `None` when every lane is empty.
    #[must_use]
    pub fn try_recv(&mut self) -> Option<T> {
        if self.shared.pending.load(Ordering::Acquire) == 0 {
            return None; // O(1) idle fast path
        }
        let n = self.lanes.len();
        for k in 0..n {
            let i = (self.next + k) % n;
            if let Some(cmd) = self.lanes[i].pop() {
                self.shared.pending.fetch_sub(1, Ordering::Release);
                self.next = (i + 1) % n;
                return Some(cmd);
            }
        }
        None
    }

    /// Commands pending across all lanes. Advisory: may transiently
    /// over-count while a `send` is mid-flight, never under-counts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// `true` when no command is pending (subject to the same advisory
    /// caveat as [`MailboxReceiver::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes the oldest command of lane `i` specifically.
    #[must_use]
    pub fn pop_lane(&mut self, i: usize) -> Option<T> {
        let cmd = self.lanes[i].pop();
        if cmd.is_some() {
            self.shared.pending.fetch_sub(1, Ordering::Release);
        }
        cmd
    }

    /// Parks the owner thread until a command is pending, a producer
    /// calls [`MailboxSender::wake`], or `timeout`
    /// elapses (`None`: no deadline). `also_ready` is the owner's look
    /// at whatever it watches besides the mailbox; it runs after the
    /// owner has announced itself, so a state change followed by a
    /// `wake` cannot slip between the look and the sleep. Returns at
    /// once when a command is already pending or `also_ready()` holds.
    ///
    /// May return with nothing to do (see [`Doorbell::wait`]): call it
    /// from a loop that drains and re-evaluates. Always from the same
    /// thread — the mailbox has one owner.
    ///
    /// Returns `true` when the owner slept and nobody rang: its timeout
    /// ended the sleep (or it returned early, see [`Doorbell::wait`]),
    /// whatever quiet sends ([`MailboxSender::send_quiet`]) arrived
    /// meanwhile. `false` when a ringer ended it, or the look found
    /// something and it never slept.
    pub fn park(&self, timeout: Option<Duration>, also_ready: impl FnOnce() -> bool) -> bool {
        self.announce(also_ready) && !self.park_announced(timeout)
    }

    /// The first half of [`MailboxReceiver::park`] — the owner
    /// announces its sleep, then looks at the pending count and at
    /// `also_ready` ([`Doorbell::announce`]); `true` when it found
    /// nothing and is to go on to [`MailboxReceiver::park_announced`].
    pub fn announce(&self, also_ready: impl FnOnce() -> bool) -> bool {
        let shared = &*self.shared;
        shared
            .bell
            .announce(|| shared.pending.load(Ordering::SeqCst) != 0 || also_ready())
    }

    /// The second half: the sleep itself ([`Doorbell::park`]); `true`
    /// when a ringer claimed it.
    pub fn park_announced(&self, timeout: Option<Duration>) -> bool {
        self.shared.bell.park(timeout)
    }

    /// `true` while an announced sleep stands that no `send` or `wake`
    /// has claimed yet ([`Doorbell::is_announced`]).
    #[must_use]
    pub fn is_announced(&self) -> bool {
        self.shared.bell.is_announced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::Backoff;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn round_robin_serves_all_lanes() {
        let (mut txs, mut rx) = mailbox::<u32>(3, 4);
        for (i, tx) in txs.iter_mut().enumerate() {
            tx.send(i as u32 * 10).unwrap();
            tx.send(i as u32 * 10 + 1).unwrap();
        }
        assert_eq!(rx.len(), 6);
        // One command per lane per round, lane order 0,1,2.
        assert_eq!(rx.try_recv(), Some(0));
        assert_eq!(rx.try_recv(), Some(10));
        assert_eq!(rx.try_recv(), Some(20));
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(11));
        assert_eq!(rx.try_recv(), Some(21));
        assert_eq!(rx.try_recv(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn full_lane_rejects_and_returns_command() {
        let (mut txs, mut rx) = mailbox::<u8>(1, 2);
        txs[0].send(1).unwrap();
        txs[0].send(2).unwrap();
        assert_eq!(txs[0].send(3), Err(MailboxFull(3)));
        assert_eq!(rx.len(), 2, "failed send must not leak into the count");
        assert_eq!(rx.try_recv(), Some(1));
        txs[0].send(3).unwrap();
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
    }

    #[test]
    fn lanes_are_sized_one_by_one() {
        let (mut txs, mut rx) = mailbox_with_capacities::<u8>(&[1, 3]);
        assert_eq!((txs[0].capacity(), txs[1].capacity()), (1, 3));
        txs[0].send(1).unwrap();
        assert_eq!(txs[0].send(2), Err(MailboxFull(2)));
        for v in 10..13 {
            txs[1].send(v).unwrap();
        }
        assert_eq!(rx.len(), 4);
        assert_eq!(rx.pop_lane(0), Some(1));
        txs[0].send(2).unwrap();
    }

    #[test]
    fn concurrent_producers_preserve_lane_fifo_and_lose_nothing() {
        const PER_LANE: u64 = 20_000;
        const LANES: usize = 3;
        let (txs, mut rx) = mailbox::<(usize, u64)>(LANES, 16);
        let producers: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(lane, mut tx)| {
                std::thread::spawn(move || {
                    let mut backoff = Backoff::new();
                    for i in 0..PER_LANE {
                        let mut cmd = (lane, i);
                        loop {
                            match tx.send(cmd) {
                                Ok(()) => {
                                    backoff.reset();
                                    break;
                                }
                                Err(MailboxFull(v)) => {
                                    cmd = v;
                                    backoff.snooze();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let mut seen = [0u64; LANES];
        let mut total = 0u64;
        let mut backoff = Backoff::new();
        while total < PER_LANE * LANES as u64 {
            match rx.try_recv() {
                Some((lane, i)) => {
                    assert_eq!(i, seen[lane], "lane {lane} out of order");
                    seen[lane] += 1;
                    total += 1;
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(rx.is_empty());
        assert_eq!(seen, [PER_LANE; LANES]);
    }

    #[test]
    fn parked_owner_is_woken_by_send_and_wake() {
        // Untimed parks throughout: a missed ring hangs the test.
        let (mut txs, mut rx) = mailbox::<u64>(2, 4);
        let flag = Arc::new(AtomicBool::new(false));
        let tx1 = txs.pop().unwrap();
        let mut tx0 = txs.pop().unwrap();
        let producer = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx0.send(7).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                // State outside the mailbox: publish, then wake.
                flag.store(true, Ordering::Release);
                tx1.wake();
            })
        };
        let mut got = None;
        while got.is_none() {
            rx.park(None, || false);
            got = rx.try_recv();
        }
        assert_eq!(got, Some(7));
        while !flag.load(Ordering::Acquire) {
            rx.park(None, || flag.load(Ordering::Acquire));
        }
        producer.join().unwrap();
        // A pending command makes park return at once, deadline or not.
        let (mut txs, rx) = mailbox::<u64>(1, 4);
        txs[0].send(1).unwrap();
        rx.park(None, || false);
    }

    #[test]
    fn a_quiet_send_waits_for_the_timeout_and_a_ring_claims_the_park() {
        let (mut txs, mut rx) = mailbox::<u64>(2, 4);
        let (mut quiet, loud) = (txs.remove(0), txs.remove(0));
        // Queued and counted, yet nobody is rung: the timeout ends the
        // park, which says so, and the command is there.
        assert!(rx.announce(|| false));
        quiet.send_quiet(1).unwrap();
        assert!(rx.is_announced(), "a quiet send claims no park");
        assert!(!rx.park_announced(Some(Duration::ZERO)), "not rung");
        assert_eq!(rx.try_recv(), Some(1));
        // A park that finds a quiet command pending does not sleep.
        quiet.send_quiet(2).unwrap();
        assert!(!rx.park(Some(Duration::from_secs(5)), || false));
        assert_eq!(rx.try_recv(), Some(2));
        // A ring claims the announcement, and the park says it was rung.
        assert!(rx.announce(|| false));
        loud.wake();
        assert!(rx.park_announced(Some(Duration::from_secs(5))));
        // Nobody rings: the timeout ends it.
        assert!(rx.park(Some(Duration::from_millis(1)), || false));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = mailbox::<u8>(0, 4);
    }
}
