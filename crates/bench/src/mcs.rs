//! The Mellor-Crummey & Scott (MCS) queue lock.
//!
//! YASMIN's lock-free locking option "relies on lock-free algorithms from
//! [Mellor-Crummey & Scott 1991]" because queue locks spin on a *local*
//! flag — each waiter has bounded, analysable waiting behaviour and the
//! cache traffic of a global spin flag is avoided (§3.5).
//!
//! Queue nodes live in thread-local storage (a small per-thread stack of
//! nodes supports nested acquisition of distinct MCS locks). A node is
//! only ever touched by other threads between `lock()` and `unlock()` of
//! its owning thread, so thread-local lifetime is sufficient.

use std::cell::{Cell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use yasmin_sync::wait::Backoff;

/// Maximum nesting depth of MCS locks held simultaneously by one thread.
const MAX_NESTING: usize = 8;

#[derive(Debug)]
struct McsNode {
    locked: AtomicBool,
    next: AtomicPtr<McsNode>,
}

impl McsNode {
    const fn new() -> Self {
        McsNode {
            locked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

thread_local! {
    static NODES: [McsNode; MAX_NESTING] = const { [
        McsNode::new(), McsNode::new(), McsNode::new(), McsNode::new(),
        McsNode::new(), McsNode::new(), McsNode::new(), McsNode::new(),
    ] };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// An MCS queue spinlock protecting a value of type `T`.
///
/// # Examples
///
/// ```
/// use yasmin_bench::mcs::McsLock;
///
/// let lock = McsLock::new(41);
/// *lock.lock() += 1;
/// assert_eq!(*lock.lock(), 42);
/// ```
#[derive(Debug)]
pub struct McsLock<T> {
    tail: AtomicPtr<McsNode>,
    data: UnsafeCell<T>,
}

// SAFETY: the MCS protocol guarantees mutual exclusion.
unsafe impl<T: Send> Sync for McsLock<T> {}
unsafe impl<T: Send> Send for McsLock<T> {}

impl<T> McsLock<T> {
    /// Creates a lock around `value`.
    #[must_use]
    pub const fn new(value: T) -> Self {
        McsLock {
            tail: AtomicPtr::new(ptr::null_mut()),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning on a thread-local flag.
    ///
    /// # Panics
    ///
    /// Panics if one thread nests more than 8 simultaneous MCS
    /// acquisitions.
    pub fn lock(&self) -> McsGuard<'_, T> {
        let node = Self::claim_node();
        // SAFETY: `node` points into this thread's TLS node array; the slot
        // was just claimed via the DEPTH counter, so no other acquisition
        // uses it until the matching `drop` releases it.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        let prev = self.tail.swap(node, Ordering::AcqRel);
        if !prev.is_null() {
            // SAFETY: `prev` was the queue tail; its owner is inside
            // lock()..unlock() (it cannot release before publishing us as
            // its successor), so the node is alive.
            unsafe {
                (*prev).next.store(node, Ordering::Release);
                let mut backoff = Backoff::new();
                while (*node).locked.load(Ordering::Acquire) {
                    backoff.snooze();
                }
            }
        }
        McsGuard { lock: self, node }
    }

    /// Tries to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<McsGuard<'_, T>> {
        let node = Self::claim_node();
        // SAFETY: freshly claimed TLS node, see `lock`.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        if self
            .tail
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            Some(McsGuard { lock: self, node })
        } else {
            Self::release_node();
            None
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    fn claim_node() -> *mut McsNode {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            assert!(v < MAX_NESTING, "MCS nesting deeper than {MAX_NESTING}");
            d.set(v + 1);
            v
        });
        NODES.with(|nodes| &nodes[depth] as *const McsNode as *mut McsNode)
    }

    fn release_node() {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// RAII guard for [`McsLock`]; releases on drop.
#[derive(Debug)]
pub struct McsGuard<'a, T> {
    lock: &'a McsLock<T>,
    node: *mut McsNode,
}

impl<T> std::ops::Deref for McsGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive ownership of the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for McsGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusive ownership of the lock.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for McsGuard<'_, T> {
    fn drop(&mut self) {
        let node = self.node;
        // SAFETY: `node` is this guard's TLS node, alive until we return.
        unsafe {
            let mut next = (*node).next.load(Ordering::Acquire);
            if next.is_null() {
                // No known successor: try to swing the tail back to null.
                if self
                    .lock
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    McsLock::<T>::release_node();
                    return;
                }
                // A successor is in the middle of enqueueing; wait for it.
                let mut backoff = Backoff::new();
                loop {
                    next = (*node).next.load(Ordering::Acquire);
                    if !next.is_null() {
                        break;
                    }
                    backoff.snooze();
                }
            }
            (*next).locked.store(false, Ordering::Release);
        }
        McsLock::<T>::release_node();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(McsLock::new(0u64));
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
        let lock = McsLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        let g2 = lock.try_lock();
        assert!(g2.is_some());
    }

    #[test]
    fn nested_distinct_locks() {
        let a = McsLock::new(1);
        let b = McsLock::new(2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn critical_sections_do_not_interleave() {
        // Each thread appends a begin/end pair; a correct lock never
        // interleaves the pairs of different threads.
        let log = Arc::new(McsLock::new(Vec::<(usize, bool)>::new()));
        let threads: Vec<_> = (0..4)
            .map(|id| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let mut g = log.lock();
                        g.push((id, true));
                        g.push((id, false));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let log = log.lock();
        for pair in log.chunks(2) {
            assert_eq!(pair[0].0, pair[1].0, "interleaved critical sections");
            assert!(pair[0].1 && !pair[1].1);
        }
    }

    #[test]
    fn into_inner_returns_value() {
        let lock = McsLock::new(7);
        assert_eq!(lock.into_inner(), 7);
    }
}
