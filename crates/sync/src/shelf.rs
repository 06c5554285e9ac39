//! A **shelf**: a fixed single-producer / multi-consumer exchange on
//! which a busy scheduler lays out the work it can spare and idle peers
//! help themselves — the hand-off of work stealing, with no request, no
//! grant and no waiting for the victim.
//!
//! A steal over the mailbox is answered when the victim next reads its
//! mailbox, and a victim that runs its bodies on its own thread reads
//! it between bodies only: the thief idles for the rest of a body it
//! has no part in. The shelf turns the exchange around. The **owner**
//! [`Owner::put`]s its surplus *before* it disappears into a body and
//! [`Owner::close`]s the shelf when it is back, getting the leftovers
//! returned; in between any number of **thieves** [`Thief::claim`] what
//! lies there, each with one compare-and-swap, without the owner taking
//! part. What the owner may spare and whom a thief robs is not decided
//! here (the engine and the [`crate::steal::LoadBoard`] do that): the
//! shelf is pure mechanism. Its sibling [`crate::door`] hands out, the
//! same way, instances the owner has not released yet.
//!
//! # Slots
//!
//! `N ≤ 16` slots, and one atomic word that holds two bits per slot:
//!
//! ```text
//! EMPTY --put--> FULL --claim/close (CAS)--> TAKEN --copied out--> EMPTY
//! ```
//!
//! * **EMPTY** — only the owner touches the cell: it writes the item,
//!   then sets the slot's FULL bit (`Release`).
//! * **FULL** — nobody touches the cell. A taker — a thief, or the
//!   owner closing — moves any number of FULL slots to TAKEN with one
//!   CAS on the word (`Acquire`: it then sees the items).
//! * **TAKEN** — only the taker that won the CAS touches the cell: it
//!   copies the item out and clears the TAKEN bit (`Release`), which is
//!   the DONE the owner's next `put` looks for (`Acquire`) before it
//!   writes that cell again. A slot copied out and a slot never filled
//!   need no telling apart, so DONE *is* EMPTY.
//!
//! A cell therefore has exactly one accessor at any time; the word is
//! only ever changed by read-modify-writes, so every `Acquire` read of
//! it synchronises with every `Release` write before it in the word's
//! modification order. Items are `Copy`: nothing is dropped, nothing is
//! allocated after [`new`], nobody blocks — a CAS fails only because
//! another taker or a `put` succeeded.
//!
//! # Order
//!
//! Takers take the lowest FULL slots first and the owner fills upwards
//! from above the highest FULL one, so items are claimed in the order
//! they were put — for a scheduler: most urgent first.
//!
//! # Sleeping thieves
//!
//! The shelf rings no bell. A thief that sleeps re-checks
//! [`Thief::is_empty`] after announcing its sleep, and an owner that
//! has put something looks for announced sleepers after a `SeqCst`
//! fence (`LoadBoard::idle_peers`) — the [`crate::doorbell`] pairing.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Bit of slot 0's TAKEN flag; slot `i`'s FULL flag is bit `i`.
const TAKEN_SHIFT: u32 = 16;
/// The FULL flags of every slot a shelf can have.
const FULL_MASK: u32 = (1 << TAKEN_SHIFT) - 1;

/// The state word on a cache line of its own: thieves poll it while
/// the owner writes the cells beside it.
#[repr(align(64))]
struct State(AtomicU32);

#[repr(align(64))]
struct Slots<T, const N: usize> {
    state: State,
    cells: [UnsafeCell<MaybeUninit<T>>; N],
}

// SAFETY: `state` is atomic. A cell is written only by the one `Owner`
// (not `Clone`, `put` takes `&mut self`) while its slot is EMPTY, and
// read only by the taker whose CAS moved the slot from FULL to TAKEN;
// the Release/Acquire pairs on `state` (module docs) order each access
// after the previous one. Items cross threads by copy, hence `T: Send`.
unsafe impl<T: Copy + Send, const N: usize> Sync for Slots<T, N> {}

impl<T: Copy + Send, const N: usize> Slots<T, N> {
    /// Moves up to `k` FULL slots, lowest first, to TAKEN with one CAS,
    /// hands their items to `sink` in slot order and frees the slots.
    fn take(&self, k: usize, mut sink: impl FnMut(T)) -> usize {
        let mut word = self.state.0.load(Ordering::Acquire);
        let taken = loop {
            let mut rest = word & FULL_MASK;
            let mut take = 0u32;
            while rest != 0 && (take.count_ones() as usize) < k {
                let lowest = rest & rest.wrapping_neg();
                take |= lowest;
                rest ^= lowest;
            }
            if take == 0 {
                return 0;
            }
            // Acquire pairs with the Release of the `put`s that set
            // these FULL bits: their items are visible below.
            match self.state.0.compare_exchange_weak(
                word,
                (word ^ take) | (take << TAKEN_SHIFT),
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break take,
                Err(now) => word = now,
            }
        };
        for (i, cell) in self.cells.iter().enumerate() {
            if taken & (1 << i) != 0 {
                // SAFETY: the CAS above moved slot `i` from FULL to
                // TAKEN, so its `put` completed (the item is
                // initialised) and until the TAKEN bit is cleared below
                // neither the owner nor another taker touches the cell.
                sink(unsafe { (*cell.get()).assume_init_read() });
            }
        }
        // Release pairs with the Acquire load in `put`: the reads above
        // are over before the owner writes these cells again.
        self.state
            .0
            .fetch_and(!(taken << TAKEN_SHIFT), Ordering::Release);
        taken.count_ones() as usize
    }

    fn is_empty(&self) -> bool {
        self.state.0.load(Ordering::Acquire) & FULL_MASK == 0
    }
}

/// The slots the owner may fill next, as a bit set: those neither FULL
/// nor TAKEN *above* the highest FULL one, which keeps claim order equal
/// to put order whatever thieves have taken in between.
fn fillable<const N: usize>(word: u32) -> u32 {
    let full = word & FULL_MASK;
    let above_full = u32::BITS - full.leading_zeros();
    !(full | word >> TAKEN_SHIFT) & ((1u32 << N) - 1) & (u32::MAX << above_full)
}

/// A shelf of `N` slots (1 to 16), empty: its one owner end and a thief
/// end to clone for every peer.
///
/// # Examples
///
/// ```
/// let (mut owner, thief) = yasmin_sync::shelf::new::<u32, 4>();
/// for item in [7, 8, 9] {
///     owner.put(item).unwrap();
/// }
/// let mut stolen = Vec::new();
/// assert_eq!(thief.claim(2, |item| stolen.push(item)), 2);
/// assert_eq!(stolen, [7, 8]);
/// let mut left = Vec::new();
/// assert_eq!(owner.close(|item| left.push(item)), 1);
/// assert_eq!(left, [9]);
/// assert!(thief.is_empty());
/// ```
#[must_use]
pub fn new<T: Copy + Send, const N: usize>() -> (Owner<T, N>, Thief<T, N>) {
    const { assert!(N >= 1 && N <= TAKEN_SHIFT as usize) };
    let slots = Arc::new(Slots {
        state: State(AtomicU32::new(0)),
        cells: [const { UnsafeCell::new(MaybeUninit::uninit()) }; N],
    });
    (
        Owner {
            slots: Arc::clone(&slots),
        },
        Thief { slots },
    )
}

/// The filling end of a shelf; there is one, and it does not clone.
pub struct Owner<T, const N: usize> {
    slots: Arc<Slots<T, N>>,
}

impl<T: Copy + Send, const N: usize> Owner<T, N> {
    /// How many [`Owner::put`]s are certain to succeed from here on:
    /// `N`, less what is on the shelf, less the slots a thief is still
    /// copying out of. Thieves only ever add to it.
    #[must_use]
    pub fn room(&self) -> usize {
        fillable::<N>(self.slots.state.0.load(Ordering::Acquire)).count_ones() as usize
    }

    /// Lays `item` out behind what already lies there.
    ///
    /// # Errors
    ///
    /// Returns `item` when there is no [`Owner::room`].
    pub fn put(&mut self, item: T) -> Result<(), T> {
        // Acquire pairs with the Release that cleared a TAKEN bit in
        // `take`: that taker is done reading the cell written below.
        let free = fillable::<N>(self.slots.state.0.load(Ordering::Acquire));
        if free == 0 {
            return Err(item);
        }
        let slot = free.trailing_zeros();
        // SAFETY: the slot is EMPTY and stays so until the `fetch_or`
        // below — only this owner fills, and takers touch FULL and
        // TAKEN slots only — so nobody else accesses the cell.
        unsafe { (*self.slots.cells[slot as usize].get()).write(item) };
        // Release publishes the item to the taker whose CAS reads this
        // bit.
        self.slots.state.0.fetch_or(1 << slot, Ordering::Release);
        Ok(())
    }

    /// Clears the shelf: what no thief claimed goes to `unclaimed`, in
    /// put order; returns how many that were. Afterwards nothing can be
    /// claimed until the next [`Owner::put`].
    pub fn close(&mut self, unclaimed: impl FnMut(T)) -> usize {
        self.slots.take(N, unclaimed)
    }

    /// `true` when nothing lies on the shelf to be claimed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A taking end of a shelf; clone one for every thread that may steal.
pub struct Thief<T, const N: usize> {
    slots: Arc<Slots<T, N>>,
}

impl<T, const N: usize> Clone for Thief<T, N> {
    fn clone(&self) -> Self {
        Thief {
            slots: Arc::clone(&self.slots),
        }
    }
}

impl<T: Copy + Send, const N: usize> Thief<T, N> {
    /// Takes up to `k` items, oldest first, and hands them to `sink`;
    /// returns how many. Zero when the shelf is empty or closed, or
    /// when others were faster. The slots stay out of the owner's hands
    /// until `sink` has returned for the last item.
    pub fn claim(&self, k: usize, sink: impl FnMut(T)) -> usize {
        self.slots.take(k, sink)
    }

    /// `true` when nothing lies on the shelf to be claimed (advisory:
    /// the next moment may differ).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<const N: usize>(owner: &mut Owner<u32, N>) -> Vec<u32> {
        let mut left = Vec::new();
        let n = owner.close(|item| left.push(item));
        assert_eq!(n, left.len());
        left
    }

    #[test]
    fn claims_come_in_put_order() {
        let (mut owner, thief) = new::<u32, 8>();
        for item in 0..8 {
            owner.put(item).unwrap();
        }
        assert_eq!(owner.put(99), Err(99), "eight slots");
        let mut got = Vec::new();
        assert_eq!(thief.claim(3, |item| got.push(item)), 3);
        assert_eq!(thief.clone().claim(2, |item| got.push(item)), 2);
        assert_eq!(got, [0, 1, 2, 3, 4]);
        // The freed slots are *below* what still lies there: filling
        // them now would put 8 ahead of 5.
        assert_eq!(owner.room(), 0);
        assert_eq!(thief.claim(8, |item| got.push(item)), 3);
        assert_eq!(got, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(owner.room(), 8);
    }

    #[test]
    fn close_returns_exactly_the_unclaimed() {
        let (mut owner, thief) = new::<u32, 4>();
        for item in [10, 11, 12] {
            owner.put(item).unwrap();
        }
        assert_eq!(thief.claim(1, |item| assert_eq!(item, 10)), 1);
        assert!(!thief.is_empty() && !owner.is_empty());
        assert_eq!(drain(&mut owner), [11, 12]);
        assert!(thief.is_empty() && owner.is_empty());
        assert_eq!(thief.claim(4, |_| unreachable!("closed")), 0);
        assert_eq!(drain(&mut owner), [], "closing twice finds nothing");
        // And the shelf serves again.
        owner.put(13).unwrap();
        assert_eq!(drain(&mut owner), [13]);
    }

    #[test]
    fn claiming_nothing_takes_nothing() {
        let (mut owner, thief) = new::<u32, 2>();
        assert!(thief.is_empty());
        assert_eq!(thief.claim(2, |_| unreachable!("empty")), 0);
        owner.put(1).unwrap();
        assert_eq!(thief.claim(0, |_| unreachable!("k = 0")), 0);
        assert_eq!(drain(&mut owner), [1]);
    }

    #[test]
    fn a_slot_is_refilled_only_once_its_taker_is_done() {
        let (mut owner, thief) = new::<u32, 4>();
        owner.put(0).unwrap();
        let n = thief.claim(1, |item| {
            assert_eq!(item, 0);
            // Slot 0 is TAKEN for as long as this closure runs: the
            // owner has the other three, and no more.
            assert_eq!(owner.room(), 3);
            for item in 1..4 {
                owner.put(item).unwrap();
            }
            assert_eq!(owner.put(4), Err(4), "slot 0 is still being read");
            assert_eq!(drain(&mut owner), [1, 2, 3]);
        });
        assert_eq!(n, 1);
        assert_eq!(owner.room(), 4, "done: the slot is the owner's again");
        for item in 4..8 {
            owner.put(item).unwrap();
        }
        assert_eq!(drain(&mut owner), [4, 5, 6, 7]);
    }

    #[test]
    fn every_item_ends_up_on_exactly_one_side() {
        // The owner lays out one to four items and closes, 10⁵ times,
        // against a thief that claims whatever it finds. An item is
        // eight equal words — the size of a job — so a copy torn by a
        // concurrent refill would show.
        // (A few hundred rounds under Miri, which checks every access
        // of them for a data race but runs them a thousand times slower.)
        const ROUNDS: u64 = if cfg!(miri) { 300 } else { 100_000 };
        type Item = [u64; 8];
        let (mut owner, thief) = new::<Item, 8>();
        let start = Arc::new(std::sync::Barrier::new(2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let check = |item: Item| {
            assert!(item.iter().all(|&w| w == item[0]), "torn: {item:?}");
            item[0]
        };
        let away = {
            let (start, stop) = (Arc::clone(&start), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut away = Vec::new();
                start.wait();
                while !stop.load(Ordering::Acquire) {
                    let k = 1 + away.len() % 3;
                    if thief.claim(k, |item| away.push(check(item))) == 0 {
                        std::thread::yield_now();
                    }
                }
                away
            })
        };
        let mut home = Vec::new();
        let mut next = 0u64;
        start.wait();
        for round in 0..ROUNDS {
            for _ in 0..=round % 4 {
                owner.put([next; 8]).expect("closed every round");
                next += 1;
            }
            // One core may be all there is: let the thief at it.
            if round % 16 == 0 {
                std::thread::yield_now();
            }
            owner.close(|item| home.push(check(item)));
        }
        stop.store(true, Ordering::Release);
        let away = away.join().expect("the thief's checks held");
        assert!(owner.is_empty());
        assert!(
            away.is_sorted() && home.is_sorted(),
            "put order on each side"
        );
        let mut all = home;
        all.extend(&away);
        all.sort_unstable();
        assert!(all.iter().copied().eq(0..next), "lost or doubled an item");
    }
}
