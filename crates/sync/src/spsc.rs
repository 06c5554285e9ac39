//! A bounded, wait-free single-producer single-consumer FIFO ring.
//!
//! This is the executable form of the paper's FIFO channels: each
//! `channel_connect(src, dst, CID)` wires exactly one producer task to one
//! consumer task (§3.1), so SPSC semantics suffice and both `push` and
//! `pop` complete in a bounded number of steps — a prerequisite for WCET
//! analysis of the task bodies that call them.
//!
//! Capacity is fixed at creation; there is no allocation after
//! construction, matching the paper's "no dynamic memory allocation" rule.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Error returned by [`Producer::push`] when the ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full<T>(pub T);

impl<T> std::fmt::Display for Full<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("channel is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for Full<T> {}

#[derive(Debug)]
struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to read; only advanced by the consumer.
    head: AtomicUsize,
    /// Next slot to write; only advanced by the producer.
    tail: AtomicUsize,
}

// SAFETY: head/tail indices partition the slots between the single
// producer and the single consumer; a slot is touched by exactly one side
// at a time.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drain any items never consumed.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let cap = self.buf.len();
        let mut i = head;
        while i != tail {
            // SAFETY: slots in [head, tail) hold initialised values.
            unsafe {
                (*self.buf[i % cap].get()).assume_init_drop();
            }
            i = i.wrapping_add(1);
        }
    }
}

/// Creates a bounded SPSC channel with room for `capacity` items.
///
/// # Panics
///
/// Panics if `capacity` is zero — zero-capacity (precedence-only)
/// channels are handled one level up, in the runtime, as token counters.
///
/// # Examples
///
/// ```
/// let (mut tx, mut rx) = yasmin_sync::spsc::channel::<u32>(2);
/// tx.push(1).unwrap();
/// tx.push(2).unwrap();
/// assert!(tx.push(3).is_err());
/// assert_eq!(rx.pop(), Some(1));
/// assert_eq!(rx.pop(), Some(2));
/// assert_eq!(rx.pop(), None);
/// ```
#[must_use]
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "spsc capacity must be positive");
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        buf,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

/// The producing endpoint; owned by the source task.
#[derive(Debug)]
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> Producer<T> {
    /// Appends `value`, or returns it in [`Full`] when the ring has no
    /// space.
    ///
    /// # Errors
    ///
    /// [`Full`] when `capacity` items are already buffered.
    pub fn push(&mut self, value: T) -> Result<(), Full<T>> {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.ring.buf.len() {
            return Err(Full(value));
        }
        let slot = &self.ring.buf[tail % self.ring.buf.len()];
        // SAFETY: the slot is outside [head, tail), so the consumer does
        // not touch it; we are the only producer.
        unsafe {
            (*slot.get()).write(value);
        }
        self.ring
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of items currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.buf.len()
    }
}

/// The consuming endpoint; owned by the destination task.
#[derive(Debug)]
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> Consumer<T> {
    /// Removes and returns the oldest item, or `None` when empty.
    #[must_use]
    pub fn pop(&mut self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed);
        let tail = self.ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.ring.buf[head % self.ring.buf.len()];
        // SAFETY: the slot is inside [head, tail), initialised by the
        // producer and not yet consumed; we are the only consumer.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.ring
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Number of items currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = channel(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(4), Err(Full(4)), "full at capacity");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn push_to_full_returns_value() {
        let (mut tx, _rx) = channel(1);
        tx.push("a").unwrap();
        assert_eq!(tx.push("b"), Err(Full("b")));
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = channel(3);
        for round in 0u64..1000 {
            tx.push(round).unwrap();
            assert_eq!(rx.pop(), Some(round));
        }
    }

    #[test]
    fn cross_thread_transfer_preserves_order() {
        let (mut tx, mut rx) = channel::<u64>(16);
        let producer = std::thread::spawn(move || {
            let mut backoff = crate::wait::Backoff::new();
            for i in 0..100_000u64 {
                loop {
                    match tx.push(i) {
                        Ok(()) => {
                            backoff.reset();
                            break;
                        }
                        Err(Full(_)) => backoff.snooze(),
                    }
                }
            }
        });
        let mut expected = 0u64;
        let mut backoff = crate::wait::Backoff::new();
        while expected < 100_000 {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected);
                expected += 1;
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }

    #[test]
    fn dropping_nonempty_ring_drops_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = channel(8);
        for _ in 0..5 {
            tx.push(Tracked).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = channel::<u8>(0);
    }
}
