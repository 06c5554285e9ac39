//! Advisory load board for work-stealing victim selection.
//!
//! The steal *hand-off* is the [`crate::shelf`]: a victim lays the jobs
//! it can spare out before it runs a body, and a thief takes them with
//! one compare-and-swap — no message, and no waiting for the victim.
//! (The simulator's sharded driver, `yasmin_sim::par`, moves a batch
//! from the victim's engine to the thief's in one call: in virtual
//! time a victim answers at once, which is what the shelf gives real
//! threads.)
//!
//! What the shelf cannot tell a thief is *whom to rob*: an idle shard
//! should go to the peer it relieves most. The [`LoadBoard`] is that
//! probe surface: one cache-padded atomic per shard, updated by its
//! owner after every engine interaction with its current ready count,
//! read by thieves with plain `Acquire` loads. The values are
//! **advisory** — a probe may race with a dispatch and name a victim
//! that turns out to have nothing on its shelf — which is fine: what a
//! thief gets is decided by the claim on the shelf, filled from the
//! victim's engine (`Input::Lend` / `Input::Lend` in
//! `yasmin-sched`). Stale reads cost a wasted probe, never correctness.
//!
//! # Victim ranking
//!
//! [`LoadBoard::pick_victim`] ranks candidates by published load first —
//! the most loaded peer always wins, so the board never trades imbalance
//! correction for locality. A *tie* between equally loaded peers breaks
//! towards a **DAG-adjacent** one ([`LoadBoard::set_adjacent`]): a shard
//! connected to the thief by a cross-shard DAG edge, whose stolen jobs
//! keep their produced/consumed edge data on a core that already touches
//! it. The hints are a cache-padded per-shard bitmask filled once at
//! runtime start from the task graph; shards past index 63 carry none.
//!
//! # Parked thieves
//!
//! A thief that sleeps between probes instead of polling (the sharded
//! runtime under the sleep waiting strategy) would never notice load
//! appearing on a peer. The board therefore also carries one **idle
//! flag** per shard: a thief that found nothing to take raises its
//! flag ([`LoadBoard::set_idle`]) before it parks, and a victim that
//! has just put jobs on its shelf asks the board who is waiting
//! ([`LoadBoard::idle_peers`]) and wakes them. The thief must probe
//! once more *after* announcing its sleep — between its wake-up
//! primitive's `SeqCst` fence and the park (the `also_ready` closure of
//! `MailboxReceiver::park`) — so that a shelf filling which it misses
//! is guaranteed to see the flag: the same store / fence / load pairing
//! on both sides as [`crate::doorbell`].
//!
//! The full ranking key is `(load, adjacent-to-me, lowest index)` —
//! every component is a pure function of published state, so
//! selection is deterministic for deterministic inputs (the
//! simulator's steal pass, which needs bit-reproducible runs, ranks by
//! load and lowest index alone).

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Cache-line padding so two shards' load counters never share a line
/// (the publish side writes on every engine interaction).
#[repr(align(64))]
struct PaddedLoad(AtomicUsize);

/// Cache-line-padded per-shard bitmask (adjacency hints); same sharing
/// argument as [`PaddedLoad`].
#[repr(align(64))]
struct PaddedWord(AtomicU64);

/// Cache-line-padded per-shard flag; same sharing argument again.
#[repr(align(64))]
struct PaddedFlag(AtomicBool);

/// One advisory ready-count slot per shard, plus the DAG-adjacency
/// tie-breaker and the parked-thief flags; see the module docs.
pub struct LoadBoard {
    loads: Vec<PaddedLoad>,
    /// Bit `v` of `adjacency[t]` set ⇔ shards `t` and `v` share a
    /// cross-shard DAG edge (symmetric; shards ≥ 64 carry no hint).
    adjacency: Vec<PaddedWord>,
    /// `idle[t]` raised ⇔ shard `t` is parked (or about to park) with
    /// nothing to run and nobody to steal from.
    idle: Vec<PaddedFlag>,
}

impl std::fmt::Debug for LoadBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.loads.iter().map(|l| l.0.load(Ordering::Relaxed)))
            .finish()
    }
}

impl LoadBoard {
    /// A board for `shards` shards, all starting at load 0 with no
    /// adjacency hints.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        LoadBoard {
            loads: (0..shards)
                .map(|_| PaddedLoad(AtomicUsize::new(0)))
                .collect(),
            adjacency: (0..shards).map(|_| PaddedWord(AtomicU64::new(0))).collect(),
            idle: (0..shards)
                .map(|_| PaddedFlag(AtomicBool::new(false)))
                .collect(),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// `true` when the board tracks no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Publishes shard `i`'s current ready count (owner side; called
    /// after every engine interaction).
    pub fn publish(&self, i: usize, ready: usize) {
        self.loads[i].0.store(ready, Ordering::Release);
    }

    /// Shard `i`'s last published ready count (advisory).
    #[must_use]
    pub fn load(&self, i: usize) -> usize {
        self.loads[i].0.load(Ordering::Acquire)
    }

    /// Marks shards `a` and `b` as DAG-adjacent (symmetric) — they own
    /// tasks connected by a cross-shard edge, so stealing between them
    /// keeps edge data warm. Hints for shards past index 63 are dropped.
    pub fn set_adjacent(&self, a: usize, b: usize) {
        if a == b {
            return;
        }
        if b < 64 {
            self.adjacency[a].0.fetch_or(1 << b, Ordering::Relaxed);
        }
        if a < 64 {
            self.adjacency[b].0.fetch_or(1 << a, Ordering::Relaxed);
        }
    }

    /// `true` when shards `a` and `b` were hinted adjacent.
    #[must_use]
    pub fn adjacent(&self, a: usize, b: usize) -> bool {
        b < 64 && self.adjacency[a].0.load(Ordering::Relaxed) & (1 << b) != 0
    }

    /// The victim an idle thief should ask first: the most loaded shard
    /// other than `me` with at least one ready job. Ties on load break
    /// towards DAG-adjacent shards, then towards the lowest index — a
    /// deterministic total order over the published state. `None` when every peer looks empty.
    #[must_use]
    pub fn pick_victim(&self, me: usize) -> Option<usize> {
        self.pick_victim_among(me, |_| true)
    }

    /// [`LoadBoard::pick_victim`] among the peers `has_offer` admits —
    /// for a thief that can see which peers have anything to take right
    /// now (a non-empty shelf) and must not be sent back to the most
    /// loaded one while it has not.
    #[must_use]
    pub fn pick_victim_among(&self, me: usize, has_offer: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<((usize, bool), usize)> = None;
        for (i, slot) in self.loads.iter().enumerate() {
            if i == me || !has_offer(i) {
                continue;
            }
            let l = slot.0.load(Ordering::Acquire);
            if l == 0 {
                continue;
            }
            let key = (l, self.adjacent(me, i));
            if best.is_none_or(|(bk, _)| key > bk) {
                best = Some((key, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Thief side: raises (before parking for want of a victim) or
    /// lowers (on waking) shard `i`'s idle flag. Raise it *before*
    /// announcing the sleep and re-probe [`LoadBoard::pick_victim`]
    /// after — see "Parked thieves" in the module docs.
    pub fn set_idle(&self, i: usize, idle: bool) {
        self.idle[i].0.store(idle, Ordering::SeqCst);
    }

    /// Victim side, right after it made work available (filled its
    /// shelf, having published its load before): the shards other than
    /// `me` whose idle flag is raised, lowest index first. The `SeqCst`
    /// fence orders what the victim wrote before the flag reads, so a
    /// thief whose last probe missed it is seen here.
    pub fn idle_peers(&self, me: usize) -> impl Iterator<Item = usize> + '_ {
        fence(Ordering::SeqCst);
        self.idle
            .iter()
            .enumerate()
            .filter(move |(i, f)| *i != me && f.0.load(Ordering::Relaxed))
            .map(|(i, _)| i)
    }

    /// The batch size a thief should take from `victim`: half the
    /// published load gap (the thief takes what levels the pair without
    /// overshooting into a reverse imbalance), at least 1, capped at
    /// `max`. Advisory like every board read — how many jobs are
    /// actually stealable is what the victim's engine put on offer.
    #[must_use]
    pub fn steal_batch_size(&self, victim: usize, thief_ready: usize, max: usize) -> usize {
        let gap = self.load(victim).saturating_sub(thief_ready);
        (gap / 2).clamp(1, max.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_most_loaded_peer() {
        let b = LoadBoard::new(4);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b.pick_victim(0), None, "everyone idle");
        b.publish(1, 2);
        b.publish(2, 7);
        b.publish(3, 7);
        assert_eq!(b.pick_victim(0), Some(2), "max load, lowest index");
        assert_eq!(b.load(2), 7);
        // A shard never names itself.
        b.publish(0, 100);
        assert_eq!(b.pick_victim(0), Some(2));
        assert_eq!(b.pick_victim(2), Some(0));
    }

    #[test]
    fn publish_overwrites_and_zero_hides() {
        let b = LoadBoard::new(2);
        b.publish(1, 3);
        assert_eq!(b.pick_victim(0), Some(1));
        b.publish(1, 0);
        assert_eq!(b.pick_victim(0), None, "drained victims disappear");
    }

    #[test]
    fn load_always_dominates_the_tie_breakers() {
        // Locality must never override a genuine imbalance: a strictly
        // higher load wins against adjacency.
        let b = LoadBoard::new(3);
        b.publish(1, 3);
        b.publish(2, 4);
        b.set_adjacent(0, 1);
        assert_eq!(b.pick_victim(0), Some(2), "higher load beats the hint");
    }

    #[test]
    fn adjacency_breaks_load_ties() {
        let b = LoadBoard::new(4);
        b.publish(1, 5);
        b.publish(2, 5);
        b.publish(3, 5);
        assert_eq!(b.pick_victim(0), Some(1), "no hints: lowest index");
        b.set_adjacent(0, 2);
        assert!(b.adjacent(0, 2) && b.adjacent(2, 0), "hints are symmetric");
        assert!(!b.adjacent(0, 1));
        assert_eq!(b.pick_victim(0), Some(2), "DAG neighbour wins the tie");
        // Adjacency is per-thief: shard 3 has no neighbours, so its pick
        // falls through to the index tie-break.
        assert_eq!(b.pick_victim(3), Some(1));
    }

    #[test]
    fn a_peer_without_an_offer_is_passed_over() {
        let b = LoadBoard::new(4);
        b.publish(1, 9);
        b.publish(2, 4);
        b.publish(3, 4);
        b.set_adjacent(0, 3);
        assert_eq!(b.pick_victim_among(0, |_| true), b.pick_victim(0));
        // The most loaded peer has nothing to take: the ranking goes on
        // among the others, by the same key.
        assert_eq!(b.pick_victim_among(0, |p| p != 1), Some(3));
        assert_eq!(b.pick_victim_among(0, |p| p == 2), Some(2));
        assert_eq!(b.pick_victim_among(0, |_| false), None);
        // An offer does not make up for a published load of zero.
        assert_eq!(b.pick_victim_among(1, |p| p == 0), None);
    }

    #[test]
    fn idle_flags_name_the_parked_peers() {
        let b = LoadBoard::new(4);
        assert_eq!(b.idle_peers(0).count(), 0);
        b.set_idle(0, true);
        b.set_idle(1, true);
        b.set_idle(3, true);
        assert_eq!(b.idle_peers(0).collect::<Vec<_>>(), [1, 3], "never me");
        b.set_idle(3, false);
        assert_eq!(b.idle_peers(2).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn steal_batch_size_tracks_half_the_load_gap() {
        let b = LoadBoard::new(2);
        b.publish(1, 12);
        assert_eq!(b.steal_batch_size(1, 0, 8), 6, "half the gap");
        assert_eq!(b.steal_batch_size(1, 8, 8), 2);
        assert_eq!(b.steal_batch_size(1, 12, 8), 1, "never below 1");
        b.publish(1, 100);
        assert_eq!(b.steal_batch_size(1, 0, 8), 8, "capped at max");
        assert_eq!(
            b.steal_batch_size(1, 0, 0),
            1,
            "degenerate cap still asks for one"
        );
    }

    #[test]
    fn concurrent_publishes_and_probes_stay_coherent() {
        use std::sync::Arc;
        let b = Arc::new(LoadBoard::new(3));
        let publisher = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                for i in 0..50_000usize {
                    b.publish(1, i % 8);
                    b.publish(2, (i * 3) % 8);
                }
                b.publish(1, 5);
                b.publish(2, 1);
            })
        };
        let prober = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    if let Some(v) = b.pick_victim(0) {
                        assert!(v == 1 || v == 2);
                    }
                }
            })
        };
        publisher.join().unwrap();
        prober.join().unwrap();
        assert_eq!(b.pick_victim(0), Some(1), "final publishes visible");
    }
}
