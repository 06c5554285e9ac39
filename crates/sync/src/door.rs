//! **Doors**: the instances a busy scheduler would release next, laid
//! out for a peer to keep — the other half of work stealing's hand-off
//! ([`crate::shelf`]), for work that does not exist yet.
//!
//! A scheduler that runs its bodies on its own thread reads its mailbox
//! between bodies only. A token for one of its tasks that arrives while
//! it is inside a body waits there, and the peer that sent it may idle
//! meanwhile. So before it enters a body the **home** opens one door per
//! task whose next instance a peer could produce the token for, naming
//! the `seq` and the id that instance would get; until the home is back
//! and closes its doors, the peer that completes the predecessor may
//! [`Keeper::keep`] the instance — one compare-and-swap — and run it
//! itself instead of sending the token. What a door may offer and who
//! keeps is not decided here (the engine does that): a door is pure
//! mechanism, like the shelf.
//!
//! # States
//!
//! One atomic word per door holds the offered `seq` and two state bits:
//!
//! ```text
//! CLOSED --open--> OPEN --keep (CAS)--> KEPT --close--> CLOSED
//!                    \-------------------close-----------/
//! ```
//!
//! The home opens and closes (a store, then a swap); a keeper moves OPEN
//! to KEPT with one CAS, which succeeds for one keeper and only while the
//! door is open, so the swap that closes the door tells the home whether
//! the instance was kept. The id the door offers is written before the
//! word that opens it (`Release`); a keeper reads it after seeing the
//! door open (`Acquire`). A keeper delayed past a close and a reopening
//! with the same `seq` may take the id of the earlier opening: every id
//! offered is one the home set aside and does not release itself, and
//! each opening is kept at most once, so no id is used twice.
//!
//! # Tokens on their way
//!
//! A door names the instance the home would release *next*. A token for
//! the task that a peer sent before the door opened, and that still
//! waits in a lane or a spill queue, is for an earlier graph instance:
//! the instance it releases comes before the one a keeper would take.
//! So every sender counts the tokens it sends for a door's task
//! ([`Keeper::sending`], before the send), the home counts those it
//! applied ([`Home::applied`], after applying one), and a door is kept
//! only while the two counts agree. The home applies tokens between
//! bodies only, with its doors closed; a keeper that reads the counts
//! equal (`Acquire` on the home's) therefore meets an opening made
//! after the home applied the last of them, whose `seq` counts it.
//!
//! # Inside a body
//!
//! Beside its doors, the home raises a flag for the span of its body —
//! the span its shelf is open. A sender that finds it raised knows its
//! token waits for that body: [`Keeper::inside`] is what a count of
//! such tokens reads (advisory: the next moment may differ).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const STATE: u64 = 0b11;
const OPEN: u64 = 1;
const KEPT: u64 = 2;

struct Door {
    word: AtomicU64,
    id: AtomicU64,
    /// Tokens for the door's task sent to the home, and applied there.
    sent: AtomicU64,
    applied: AtomicU64,
}

struct Block {
    inside: AtomicBool,
    doors: Box<[Door]>,
}

/// The doors of one home, `n` of them, all closed: its one home end and
/// a keeper end to clone for every peer.
///
/// # Examples
///
/// ```
/// let (mut home, keeper) = yasmin_sync::door::new(4);
/// home.enter();
/// home.open(2, 7, 100);
/// assert!(keeper.inside());
/// assert_eq!(keeper.keep(2), Some((7, 100)));
/// assert_eq!(keeper.keep(2), None, "kept once");
/// assert_eq!(keeper.keep(1), None, "never opened");
/// assert!(home.close(2));
/// home.leave();
/// assert!(!keeper.inside());
/// ```
#[must_use]
pub fn new(n: usize) -> (Home, Keeper) {
    let door = || Door {
        word: AtomicU64::new(0),
        id: AtomicU64::new(0),
        sent: AtomicU64::new(0),
        applied: AtomicU64::new(0),
    };
    let block = Arc::new(Block {
        inside: AtomicBool::new(false),
        doors: (0..n).map(|_| door()).collect(),
    });
    (
        Home {
            block: Arc::clone(&block),
        },
        Keeper { block },
    )
}

/// The opening end of a set of doors; there is one, and it does not
/// clone.
pub struct Home {
    block: Arc<Block>,
}

impl Home {
    /// Raises the flag that says the home is inside a body.
    pub fn enter(&mut self) {
        self.block.inside.store(true, Ordering::Release);
    }

    /// Lowers it.
    pub fn leave(&mut self) {
        self.block.inside.store(false, Ordering::Release);
    }

    /// Opens door `i` on the instance of `seq` with id `id`.
    ///
    /// # Panics
    ///
    /// When `i` is out of range, or `seq` does not fit in 62 bits.
    pub fn open(&mut self, i: usize, seq: u64, id: u64) {
        assert!(seq >> 62 == 0, "a seq of 62 bits at most");
        let door = &self.block.doors[i];
        door.id.store(id, Ordering::Relaxed);
        // Release publishes the id to the keeper that sees the door open.
        door.word.store(seq << 2 | OPEN, Ordering::Release);
    }

    /// Closes door `i`; `true` when a keeper kept its instance.
    pub fn close(&mut self, i: usize) -> bool {
        self.block.doors[i].word.swap(0, Ordering::AcqRel) & STATE == KEPT
    }

    /// Counts a token for door `i`'s task as applied; a door out of
    /// range counts nothing.
    pub fn applied(&mut self, i: usize) {
        if let Some(door) = self.block.doors.get(i) {
            let n = door.applied.load(Ordering::Relaxed);
            // Release: what applying it changed precedes the count.
            door.applied.store(n + 1, Ordering::Release);
        }
    }
}

/// A keeping end of a set of doors; clone one for every peer.
#[derive(Clone)]
pub struct Keeper {
    block: Arc<Block>,
}

impl Keeper {
    /// `true` while the home is inside a body (advisory).
    #[must_use]
    pub fn inside(&self) -> bool {
        self.block.inside.load(Ordering::Relaxed)
    }

    /// Counts a token for door `i`'s task about to be sent to the home;
    /// a door out of range counts nothing.
    pub fn sending(&self, i: usize) {
        if let Some(door) = self.block.doors.get(i) {
            door.sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Keeps the instance door `i` offers: its `(seq, id)`, or `None`
    /// when the door is closed, out of range, a token for its task is
    /// on its way to the home, or another keeper was faster.
    #[must_use]
    pub fn keep(&self, i: usize) -> Option<(u64, u64)> {
        let door = self.block.doors.get(i)?;
        // Every token counted before this one was applied: the opening
        // the CAS below meets came after (module docs).
        if door.applied.load(Ordering::Acquire) != door.sent.load(Ordering::Relaxed) {
            return None;
        }
        let word = door.word.load(Ordering::Acquire);
        if word & STATE != OPEN {
            return None;
        }
        let id = door.id.load(Ordering::Relaxed);
        let kept = word & !STATE | KEPT;
        let won = door
            .word
            .compare_exchange(word, kept, Ordering::AcqRel, Ordering::Relaxed);
        won.ok().map(|_| (word >> 2, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_door_is_kept_only_while_it_is_open() {
        let (mut home, keeper) = new(2);
        assert_eq!(keeper.keep(0), None, "closed");
        assert_eq!(keeper.keep(9), None, "no such door");
        home.open(0, 3, 30);
        home.open(1, 5, 31);
        assert!(!home.close(1), "closed unkept");
        assert_eq!(keeper.keep(1), None, "closed again");
        assert_eq!(keeper.clone().keep(0), Some((3, 30)));
        assert_eq!(keeper.keep(0), None, "one keeper");
        assert!(home.close(0));
        assert!(!home.close(0), "closing twice finds nothing");
        home.open(0, 4, 32);
        assert_eq!(keeper.keep(0), Some((4, 32)), "and it serves again");
    }

    #[test]
    fn a_door_is_not_kept_while_a_token_for_its_task_is_on_its_way() {
        let (mut home, keeper) = new(2);
        keeper.sending(0);
        keeper.sending(1);
        home.open(0, 3, 30);
        assert_eq!(keeper.keep(0), None, "the token's instance comes first");
        home.applied(1);
        assert!(!home.close(0));
        home.applied(0);
        home.applied(5); // no such door: nothing counted
        home.open(0, 4, 31);
        assert_eq!(keeper.keep(0), Some((4, 31)), "applied: seq 4 counts it");
    }

    #[test]
    fn every_opening_is_kept_once_or_closed_unkept() {
        // The home opens a door and closes it, 10⁵ times, against two
        // keepers that keep whatever they find open: each opening is
        // kept by at most one of them, exactly when the home's close
        // says so, with the seq and id it was opened with.
        const ROUNDS: u64 = if cfg!(miri) { 200 } else { 100_000 };
        let (mut home, keeper) = new(1);
        let stop = Arc::new(AtomicBool::new(false));
        let keepers: Vec<_> = (0..2)
            .map(|_| {
                let (keeper, stop) = (keeper.clone(), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut kept = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        match keeper.keep(0) {
                            Some(k) => kept.push(k),
                            None => std::thread::yield_now(),
                        }
                    }
                    kept
                })
            })
            .collect();
        let mut closed_kept = Vec::new();
        for round in 0..ROUNDS {
            home.open(0, round, round + 1_000);
            if round % 16 == 0 {
                std::thread::yield_now();
            }
            if home.close(0) {
                closed_kept.push(round);
            }
        }
        stop.store(true, Ordering::Release);
        let mut kept: Vec<_> = keepers
            .into_iter()
            .flat_map(|k| k.join().unwrap())
            .collect();
        kept.sort_unstable();
        assert!(kept.iter().all(|&(seq, id)| id == seq + 1_000));
        let seqs: Vec<u64> = kept.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, closed_kept, "kept exactly what the home saw kept");
    }
}
