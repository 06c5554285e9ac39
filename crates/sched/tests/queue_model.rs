//! Property test: [`ReadyQueue`] (the struct-of-arrays index-tracked
//! 4-ary heap) against a naive sorted-`Vec` reference model, under
//! random push/pop/remove sequences. Catches ordering bugs the unit
//! tests' hand-picked sequences would miss — in particular mid-heap
//! removals repairing the heap and the id → position index through
//! sifts, the payload slab staying aligned with the sifting node array,
//! (in the at-capacity variant) the exact `len()` accounting at the
//! bound, and (in the scan variant) `scan_in_order` enumerating exactly
//! the reference's sorted order, with early stops, without mutating.
//!
//! One plain test beside the properties guards a complexity, not an
//! order: `remove_stays_logarithmic_on_a_large_queue` drains 2¹⁶
//! entries by `remove`, which only an index-tracked heap does quickly.

use proptest::prelude::*;
use yasmin_core::ids::{JobId, TaskId};
use yasmin_core::priority::Priority;
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::{Job, ReadyQueue};

fn job(id: u64, prio: u64, release_ns: u64) -> Job {
    Job {
        id: JobId::new(id),
        task: TaskId::new(id as u32),
        seq: 0,
        release: Instant::from_nanos(release_ns),
        graph_release: Instant::from_nanos(release_ns),
        abs_deadline: Instant::from_nanos(release_ns) + Duration::from_millis(10),
        priority: Priority::new(prio),
        preempted: false,
    }
}

/// The reference: an unordered `Vec` popped by minimum `queue_key`.
#[derive(Default)]
struct ModelQueue {
    jobs: Vec<Job>,
}

impl ModelQueue {
    fn push(&mut self, j: Job) {
        self.jobs.push(j);
    }

    fn pop(&mut self) -> Option<Job> {
        let i = self
            .jobs
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| j.queue_key())
            .map(|(i, _)| i)?;
        Some(self.jobs.remove(i))
    }

    fn peek(&self) -> Option<Job> {
        self.jobs.iter().min_by_key(|j| j.queue_key()).copied()
    }

    fn remove(&mut self, id: JobId) -> Option<Job> {
        let i = self.jobs.iter().position(|j| j.id == id)?;
        Some(self.jobs.remove(i))
    }

    fn sorted(&self) -> Vec<Job> {
        let mut v = self.jobs.clone();
        v.sort_by_key(Job::queue_key);
        v
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn ready_queue_matches_reference_model(ops in prop::collection::vec(0u64..(1u64 << 62), 8..120)) {
        let mut q = ReadyQueue::with_capacity(256);
        let mut m = ModelQueue::default();
        let mut next_id = 0u64;
        for op in ops {
            match op % 4 {
                // Pushes twice as likely as each other op, so queues fill.
                0 | 1 => {
                    // Few distinct priorities/releases on purpose: ties
                    // exercise the deterministic id tiebreaker.
                    let j = job(next_id, (op >> 2) % 8, (op >> 5) % 4);
                    next_id += 1;
                    q.push(j).unwrap();
                    m.push(j);
                }
                2 => {
                    prop_assert_eq!(q.pop(), m.pop());
                }
                3 => {
                    // Remove a live id most of the time, a missing id
                    // sometimes (both must be no-op-identical).
                    let target = if m.jobs.is_empty() || op & (1 << 40) != 0 {
                        JobId::new(next_id + 1_000)
                    } else {
                        m.jobs[((op >> 2) as usize) % m.jobs.len()].id
                    };
                    prop_assert_eq!(q.remove(target), m.remove(target));
                }
                _ => unreachable!(),
            }
            prop_assert_eq!(q.len(), m.jobs.len());
            prop_assert_eq!(q.is_empty(), m.jobs.is_empty());
            prop_assert_eq!(q.peek().copied(), m.peek());
            prop_assert_eq!(q.peek_priority(), m.peek().map(|j| j.priority));
        }
        // Drain both fully: the complete surviving order must agree.
        loop {
            let (a, b) = (q.pop(), m.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Interleaved `remove`/`push`/`pop` **at capacity**: a tiny bound
    /// keeps the queue pinned against its limit, so pushes regularly hit
    /// `CapacityExceeded` and removals must free exactly one slot — the
    /// accounting is exact (no lazy-delete debt to subtract).
    #[test]
    fn ready_queue_matches_reference_model_at_capacity(ops in prop::collection::vec(0u64..(1u64 << 62), 16..200)) {
        const CAP: usize = 8;
        let mut q = ReadyQueue::with_capacity(CAP);
        let mut m = ModelQueue::default();
        let mut next_id = 0u64;
        for op in ops {
            match op % 4 {
                0 | 1 => {
                    let j = job(next_id, (op >> 2) % 8, (op >> 5) % 4);
                    next_id += 1;
                    let res = q.push(j);
                    if m.jobs.len() < CAP {
                        prop_assert!(res.is_ok());
                        m.push(j);
                    } else {
                        prop_assert!(res.is_err(), "push past the bound must fail");
                    }
                }
                2 => {
                    prop_assert_eq!(q.pop(), m.pop());
                }
                3 => {
                    let target = if m.jobs.is_empty() || op & (1 << 40) != 0 {
                        JobId::new(next_id + 1_000)
                    } else {
                        m.jobs[((op >> 2) as usize) % m.jobs.len()].id
                    };
                    let removed = q.remove(target);
                    prop_assert_eq!(removed, m.remove(target));
                    if removed.is_some() && m.jobs.len() == CAP - 1 {
                        // A removal at the bound frees exactly one slot.
                        let j = job(next_id, (op >> 3) % 8, 0);
                        next_id += 1;
                        prop_assert!(q.push(j).is_ok());
                        m.push(j);
                    }
                }
                _ => unreachable!(),
            }
            prop_assert_eq!(q.len(), m.jobs.len());
            prop_assert_eq!(q.is_empty(), m.jobs.is_empty());
            prop_assert_eq!(q.peek().copied(), m.peek());
        }
        loop {
            let (a, b) = (q.pop(), m.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// `scan_in_order` against the reference's sorted order, checked at
    /// intervals through a random push/pop/remove history: the full
    /// enumeration must equal the sorted model exactly, a random-length
    /// early-stopped scan must yield precisely the k most urgent jobs,
    /// and neither scan may mutate the queue — the contract batch
    /// stealing's hint enumeration stands on.
    #[test]
    fn scan_in_order_matches_sorted_reference(ops in prop::collection::vec(0u64..(1u64 << 62), 8..80)) {
        let mut q = ReadyQueue::with_capacity(128);
        let mut m = ModelQueue::default();
        let mut next_id = 0u64;
        let mut frontier = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            match op % 4 {
                0 | 1 => {
                    let j = job(next_id, (op >> 2) % 8, (op >> 5) % 4);
                    next_id += 1;
                    q.push(j).unwrap();
                    m.push(j);
                }
                2 => {
                    prop_assert_eq!(q.pop(), m.pop());
                }
                3 => {
                    let target = if m.jobs.is_empty() || op & (1 << 40) != 0 {
                        JobId::new(next_id + 1_000)
                    } else {
                        m.jobs[((op >> 2) as usize) % m.jobs.len()].id
                    };
                    prop_assert_eq!(q.remove(target), m.remove(target));
                }
                _ => unreachable!(),
            }
            // Scanning every op would square the case cost; every few
            // ops still crosses plenty of distinct heap shapes.
            if step % 4 == 3 {
                let expect = m.sorted();
                let mut seen: Vec<Job> = Vec::new();
                q.scan_in_order(&mut frontier, |j| {
                    seen.push(*j);
                    true
                });
                prop_assert_eq!(&seen, &expect, "full scan == sorted model");
                prop_assert_eq!(q.len(), expect.len(), "scan must not mutate");
                if !expect.is_empty() {
                    let k = 1 + (op >> 7) as usize % expect.len();
                    seen.clear();
                    q.scan_in_order(&mut frontier, |j| {
                        seen.push(*j);
                        seen.len() < k
                    });
                    prop_assert_eq!(&seen, &expect[..k], "early stop yields the k most urgent");
                }
            }
        }
    }
}

/// Drains a 2¹⁶-entry queue by `remove` in an order unrelated to
/// priority, a `pop` in front of every fourth one, against the sorted
/// model walked with tombstones (the model's own `pop`/`remove` are
/// linear and would be the slow side here). With the id → position
/// index every `remove` is O(log n) and the drain takes ≈ 45 ms in a
/// test build on a 2-vCPU host; a `remove` that scans the node array
/// for the id reads ≈ 2³⁰ entries over the drain — ≈ 5 s in the same
/// build — and trips the bound below: one absolute limit with a
/// factor of twenty of room on the fast side, no ratio of two timings.
/// (An optimised build scans in ≈ 0.75 s and would slip under it; the
/// guard is for the unoptimised build `cargo test` makes.)
#[test]
fn remove_stays_logarithmic_on_a_large_queue() {
    const N: u64 = 1 << 16;
    const BOUND: std::time::Duration = std::time::Duration::from_secs(1);

    let mut q = ReadyQueue::with_capacity(N as usize);
    let mut m = ModelQueue::default();
    for id in 0..N {
        // Priority and release are hashes of the id: 64 levels with
        // ties, nothing a walk over the ids could follow.
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let j = job(id, h >> 58, (h >> 20) % 4);
        q.push(j).unwrap();
        m.push(j);
    }
    let sorted = m.sorted();
    let mut gone = vec![false; N as usize];
    let mut head = 0usize;

    let started = std::time::Instant::now();
    for i in 0..N {
        if i % 4 == 3 {
            while head < sorted.len() && gone[sorted[head].id.raw() as usize] {
                head += 1;
            }
            let expect = sorted.get(head).copied();
            assert_eq!(q.pop(), expect, "pop {i}");
            if let Some(j) = expect {
                gone[j.id.raw() as usize] = true;
            }
        }
        // An odd multiplier permutes 0..N.
        let id = i * 40_503 % N;
        let expect = (!gone[id as usize]).then(|| m.jobs[id as usize]);
        assert_eq!(q.remove(JobId::new(id)), expect, "remove {id}");
        gone[id as usize] = true;
    }
    let took = started.elapsed();

    assert!(q.is_empty() && gone.iter().all(|&g| g));
    assert!(
        took < BOUND,
        "draining {N} entries by remove took {took:?}: an O(n) scan is back in ReadyQueue::remove"
    );
}
