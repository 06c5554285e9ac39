//! A FIFO ticket spinlock.
//!
//! The simplest of the "lock-free algorithm" family the paper selects for
//! WCET analysability (§3.5, citing Mellor-Crummey & Scott): acquisition
//! order is the ticket order, so waiting time is bounded by the number of
//! earlier tickets — exactly the property a static timing analysis needs.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use yasmin_sync::wait::Backoff;

/// A FIFO spinlock protecting a value of type `T`.
///
/// # Examples
///
/// ```
/// use yasmin_bench::ticket::TicketLock;
///
/// let lock = TicketLock::new(0u64);
/// *lock.lock() += 1;
/// assert_eq!(*lock.lock(), 1);
/// ```
#[derive(Debug)]
pub struct TicketLock<T> {
    next_ticket: AtomicU64,
    now_serving: AtomicU64,
    data: UnsafeCell<T>,
}

// SAFETY: the ticket protocol guarantees mutual exclusion, so `&TicketLock`
// may be shared across threads whenever `T: Send`.
unsafe impl<T: Send> Sync for TicketLock<T> {}
unsafe impl<T: Send> Send for TicketLock<T> {}

impl<T> TicketLock<T> {
    /// Creates a lock around `value`.
    #[must_use]
    pub const fn new(value: T) -> Self {
        TicketLock {
            next_ticket: AtomicU64::new(0),
            now_serving: AtomicU64::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning in ticket order.
    ///
    /// The wait backs off from pure spinning to `yield_now` so that,
    /// under the default time-sharing policies, a waiter does not burn
    /// its whole timeslice starving the holder on hosts with fewer
    /// cores than contenders. (Under `SCHED_FIFO`, `yield_now` only
    /// rotates within the same priority level; priority assignment
    /// must keep holder and waiters comparable.)
    pub fn lock(&self) -> TicketGuard<'_, T> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self.now_serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        TicketGuard { lock: self }
    }

    /// Tries to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<TicketGuard<'_, T>> {
        let serving = self.now_serving.load(Ordering::Acquire);
        // Only take a ticket if it would be served immediately.
        if self
            .next_ticket
            .compare_exchange(serving, serving + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            Some(TicketGuard { lock: self })
        } else {
            None
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// RAII guard for [`TicketLock`]; releases on drop.
#[derive(Debug)]
pub struct TicketGuard<'a, T> {
    lock: &'a TicketLock<T>,
}

impl<T> std::ops::Deref for TicketGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive ownership of the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for TicketGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusive ownership of the lock.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for TicketGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.now_serving.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(TicketLock::new(0u64));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lock.lock(), 80_000);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = TicketLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn into_inner_returns_value() {
        let lock = TicketLock::new(vec![1, 2, 3]);
        *lock.lock() = vec![9];
        assert_eq!(lock.into_inner(), vec![9]);
    }
}
