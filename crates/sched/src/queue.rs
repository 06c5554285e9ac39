//! Priority-ordered ready queues.
//!
//! With global scheduling "all worker threads share a common ready queue,
//! whereas with partitioned scheduling each worker thread has its own
//! ready queue" (§3.3, Fig. 1a/1b). The queue is an **index-tracked
//! 4-ary heap** over [`Job::queue_key`] with a fixed capacity decided at
//! `start()` — no allocation on any path after construction.
//!
//! The heap is laid out **struct-of-arrays**: the array that sifts is a
//! dense vector of 32-byte nodes — the bare queue key (priority word,
//! release instant, job id: the exact words every comparison reads)
//! packed with the payload-slab slot and the index back-pointer — while
//! the [`Job`] payloads themselves sit in a stable slab that never
//! moves. The PR 4 layout kept the full `Job` inline in each heap
//! entry, so at multi-thousand-job occupancy every sift level dragged
//! ~64 payload bytes per compared child through the cache; here the
//! comparison loop touches only the packed nodes (the priority word
//! decides almost every comparison, the release/id words break ties) in
//! a single bounds-checked stream — half the traffic, two nodes per
//! cache line, with a node's four heap children adjacent — and payloads
//! are read exactly once, on pop, peek or remove.
//!
//! Every heap entry is tracked by an open-addressed index slab at most
//! half full, keyed by a Fibonacci (multiplicative) hash of the job id
//! (engines number jobs sequentially — shards stamp their shard index
//! into the high bits — so masking raw low bits would pile the live
//! window into one long occupied run and make probe scans O(queue);
//! the multiplicative spread keeps runs O(1) expected). The slab stores
//! the full [`JobId`] next to the heap position, so a lookup is
//! generation-checked: a colliding foreign id probes on instead of
//! aliasing. Deletion uses backward-shift compaction (no probe
//! tombstones), keeping lookups O(1) expected forever — there is no
//! lazy-delete state anywhere, so `len()` is exact,
//! [`ReadyQueue::peek`] takes `&self`, and removal never scans.
//!
//! | operation | cost |
//! |-----------|------|
//! | [`ReadyQueue::push`]   | O(log n) sift-up, O(1) index insert |
//! | [`ReadyQueue::pop`]    | O(log n) sift-down, O(1) index delete |
//! | [`ReadyQueue::remove`] | O(log n) sift from the tracked position |
//! | [`ReadyQueue::peek`]   | O(1), `&self` |
//! | [`ReadyQueue::scan_in_order`] | O(v·D) comparisons for v visited |
//!
//! Earlier revisions used a `BinaryHeap` with tombstoned lazy deletion:
//! `remove` was an O(n) scan, `peek` needed `&mut self` to purge dead
//! entries, and a `compact()` rebuild guarded the capacity bound. The
//! index heap removes all three caveats; cheap `remove` + shared-ref
//! `peek` are also what work stealing needs to probe a victim queue, and
//! the ordered scan is what **batch** stealing uses to enumerate the k
//! most urgent stealable jobs without detaching anything.

use crate::job::Job;
use yasmin_core::error::{Error, Result};
use yasmin_core::ids::JobId;
use yasmin_core::priority::Priority;
use yasmin_core::time::Instant;

/// Heap arity: 4 halves the depth of a binary heap for the queue sizes
/// the engine runs (dozens to a few thousand ready jobs), and the
/// four-child minimum scan stays within two cache lines of packed keys.
const D: usize = 4;

/// Marker for an unoccupied index-slab slot.
const EMPTY: u32 = u32::MAX;

/// The words the hot comparison loop reads — exactly
/// [`Job::queue_key`]'s return, kept dense so sifts never touch the
/// payload slab.
type Key = (Priority, Instant, JobId);

/// One slot of the open-addressed id → heap-position index.
#[derive(Debug, Clone, Copy)]
struct IndexSlot {
    /// Full id stored for the generation check: a probe matches only on
    /// id equality, never on the hashed home slot alone.
    id: JobId,
    /// Position in the heap array, or [`EMPTY`].
    pos: u32,
}

/// One heap entry: the queue key first (so the sift and scan comparison
/// loops read the leading words of a single dense stream), then where
/// the payload lives in the slab and which index-slab slot tracks this
/// entry (so sift moves update the index by direct indexing — no
/// hashing or probing anywhere on the sift path). 32 bytes: two per
/// cache line, and a node's four heap children sit adjacent.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The comparison words — exactly [`Job::queue_key`]'s return.
    key: Key,
    /// Payload-slab slot holding the [`Job`]; stable for the entry's
    /// whole residence — sifts move `Node`s, never payloads.
    slot: u32,
    /// The index-slab slot tracking this entry.
    islot: u32,
}

/// A bounded, priority-ordered job queue (smaller priority value pops
/// first; ties broken by release time, then job id).
#[derive(Debug)]
pub struct ReadyQueue {
    /// Dense 4-ary min-heap of key-first nodes — the only array the
    /// sift and peek comparison loops touch.
    nodes: Vec<Node>,
    /// Stable payload slab; `free` lists vacated slots for reuse.
    slab: Vec<Job>,
    free: Vec<u32>,
    /// Open-addressed index over the heap, ≥ 2× capacity and a power of
    /// two, so a free slot always terminates a probe.
    index: Vec<IndexSlot>,
    /// `index.len() - 1`, for masked probing.
    mask: usize,
    capacity: usize,
    pushes: u64,
    pops: u64,
}

impl ReadyQueue {
    /// Creates a queue bounded to `capacity` pending jobs, pre-allocating
    /// the backing storage (node array, payload slab, index slab).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(1) * 2).next_power_of_two();
        ReadyQueue {
            nodes: Vec::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            index: vec![
                IndexSlot {
                    id: JobId::new(0),
                    pos: EMPTY,
                };
                slots
            ],
            mask: slots - 1,
            capacity,
            pushes: 0,
            pops: 0,
        }
    }

    /// The index-slab slot an id probes from: a Fibonacci hash (the
    /// golden-ratio multiplier's high bits), so the sequential ids the
    /// engine mints scatter uniformly instead of forming one contiguous
    /// occupied run whose probe scans would grow with the queue.
    #[inline]
    fn home(&self, id: JobId) -> usize {
        let h = id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// The slab slot holding `id`, or `None`.
    #[inline]
    fn index_lookup(&self, id: JobId) -> Option<usize> {
        let mut i = self.home(id);
        loop {
            let slot = self.index[i];
            if slot.pos == EMPTY {
                return None;
            }
            if slot.id == id {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Records `id` at heap position `pos` (id must not be present);
    /// returns the slab slot chosen.
    #[inline]
    fn index_insert(&mut self, id: JobId, pos: u32) -> u32 {
        let mut i = self.home(id);
        while self.index[i].pos != EMPTY {
            debug_assert_ne!(self.index[i].id, id, "duplicate live job id");
            i = (i + 1) & self.mask;
        }
        self.index[i] = IndexSlot { id, pos };
        i as u32
    }

    /// Deletes slab slot `i` by backward-shift compaction: entries in
    /// the probe chain whose home precedes the freed slot move back (the
    /// slab never accumulates probe tombstones), and each moved entry's
    /// heap back-pointer is re-aimed at its new slot.
    fn index_delete(&mut self, mut i: usize) {
        loop {
            self.index[i].pos = EMPTY;
            let mut j = i;
            loop {
                j = (j + 1) & self.mask;
                if self.index[j].pos == EMPTY {
                    return;
                }
                let h = self.home(self.index[j].id);
                // Keep the entry where it is iff its home lies cyclically
                // in (i, j]; otherwise it belongs at or before the hole.
                let stays = (j.wrapping_sub(h) & self.mask) < (j.wrapping_sub(i) & self.mask);
                if !stays {
                    self.index[i] = self.index[j];
                    self.nodes[self.index[i].pos as usize].islot = i as u32;
                    i = j;
                    break;
                }
            }
        }
    }

    /// Moves the entry at `pos` up towards the root until the heap
    /// property holds; only 32-byte nodes move (payloads stay put in
    /// the slab), and every shifted entry's index-slab slot is updated
    /// by direct indexing.
    fn sift_up(&mut self, mut pos: usize) {
        let node = self.nodes[pos];
        while pos > 0 {
            let parent = (pos - 1) / D;
            let pn = self.nodes[parent];
            if pn.key <= node.key {
                break;
            }
            self.nodes[pos] = pn;
            self.index[pn.islot as usize].pos = pos as u32;
            pos = parent;
        }
        self.nodes[pos] = node;
        self.index[node.islot as usize].pos = pos as u32;
    }

    /// Moves the entry at `pos` down towards the leaves until the heap
    /// property holds. The four-child minimum scan reads the leading
    /// key words of the dense node array only.
    fn sift_down(&mut self, mut pos: usize) {
        let node = self.nodes[pos];
        let n = self.nodes.len();
        loop {
            let first = pos * D + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            let mut best_key = self.nodes[first].key;
            for c in (first + 1)..(first + D).min(n) {
                let k = self.nodes[c].key;
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if node.key <= best_key {
                break;
            }
            let cn = self.nodes[best];
            self.nodes[pos] = cn;
            self.index[cn.islot as usize].pos = pos as u32;
            pos = best;
        }
        self.nodes[pos] = node;
        self.index[node.islot as usize].pos = pos as u32;
    }

    /// Detaches and returns the job at heap position `pos`, restoring
    /// the heap property around the hole and recycling the payload slot.
    fn remove_at(&mut self, pos: usize) -> Job {
        let node = self.nodes[pos];
        let job = self.slab[node.slot as usize];
        self.free.push(node.slot);
        self.index_delete(node.islot as usize);
        let last = self.nodes.pop().expect("pos is in bounds");
        if pos < self.nodes.len() {
            self.nodes[pos] = last;
            self.index[last.islot as usize].pos = pos as u32;
            // The filler came from a leaf: it may be out of order in
            // either direction relative to its new neighbourhood.
            if pos > 0 && last.key < self.nodes[(pos - 1) / D].key {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        job
    }

    /// Inserts a job. Live job ids must be unique per queue (the engine
    /// numbers jobs monotonically, so this holds by construction; an id
    /// may be re-pushed after its previous instance left the queue).
    ///
    /// # Errors
    ///
    /// [`Error::CapacityExceeded`] when the bound would be crossed — a
    /// sizing error, not a runtime condition to paper over.
    #[inline]
    pub fn push(&mut self, job: Job) -> Result<()> {
        if self.nodes.len() >= self.capacity {
            return Err(Error::CapacityExceeded {
                what: "ready queue",
                capacity: self.capacity,
            });
        }
        let pos = self.nodes.len();
        let islot = self.index_insert(job.id, pos as u32);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = job;
                s
            }
            None => {
                self.slab.push(job);
                (self.slab.len() - 1) as u32
            }
        };
        self.nodes.push(Node {
            key: job.queue_key(),
            slot,
            islot,
        });
        self.sift_up(pos);
        self.pushes += 1;
        Ok(())
    }

    /// Removes and returns the most urgent job (O(log n)).
    #[inline]
    pub fn pop(&mut self) -> Option<Job> {
        if self.nodes.is_empty() {
            return None;
        }
        self.pops += 1;
        Some(self.remove_at(0))
    }

    /// The most urgent job without removing it — O(1), through a shared
    /// reference, with no side effect.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> Option<&Job> {
        self.nodes.first().map(|n| &self.slab[n.slot as usize])
    }

    /// The most urgent job's priority — what the dispatch paths that
    /// only compare urgency (the preemption check) need. Reads the root
    /// node's leading key word alone; the payload slab is never touched.
    #[inline]
    #[must_use]
    pub fn peek_priority(&self) -> Option<Priority> {
        self.nodes.first().map(|n| n.key.0)
    }

    /// Visits queued jobs in ascending [`Job::queue_key`] order without
    /// mutating the queue, stopping when `visit` returns `false`.
    ///
    /// `frontier` is caller-retained scratch (cleared here, grown only
    /// to its high-water mark): the candidate set starts at the root and
    /// gains at most `D - 1` net entries per visit, so enumerating the
    /// k most urgent jobs costs O(k²·D) key comparisons on a frontier
    /// that never exceeds `k·(D-1) + 1` slots — tiny for the batch
    /// sizes work stealing uses, and allocation-free once warm.
    ///
    /// Visit order is deterministic: live keys are unique (the job id
    /// word is unique per queue), so the frontier minimum is unique at
    /// every step regardless of the frontier's internal layout.
    pub fn scan_in_order(&self, frontier: &mut Vec<u32>, mut visit: impl FnMut(&Job) -> bool) {
        frontier.clear();
        if self.nodes.is_empty() {
            return;
        }
        frontier.push(0);
        while !frontier.is_empty() {
            let mut mi = 0;
            for i in 1..frontier.len() {
                if self.nodes[frontier[i] as usize].key < self.nodes[frontier[mi] as usize].key {
                    mi = i;
                }
            }
            let pos = frontier.swap_remove(mi) as usize;
            if !visit(&self.slab[self.nodes[pos].slot as usize]) {
                return;
            }
            let first = pos * D + 1;
            for c in first..(first + D).min(self.nodes.len()) {
                frontier.push(c as u32);
            }
        }
    }

    /// Removes a specific job in O(log n): the index locates its heap
    /// position, the last leaf fills the hole and sifts into place
    /// (used when cancelling, and by work stealing on victim queues).
    pub fn remove(&mut self, id: JobId) -> Option<Job> {
        let slot = self.index_lookup(id)?;
        let pos = self.index[slot].pos as usize;
        Some(self.remove_at(pos))
    }

    /// Number of queued jobs (exact — there is no lazy-delete debt).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total pushes since creation (overhead accounting).
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total pops since creation (overhead accounting).
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Iterates over queued jobs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.nodes.iter().map(|n| &self.slab[n.slot as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::ids::TaskId;
    use yasmin_core::priority::Priority;
    use yasmin_core::time::{Duration, Instant};

    fn job(id: u64, prio: u64) -> Job {
        Job {
            id: JobId::new(id),
            task: TaskId::new(id as u32),
            seq: 0,
            release: Instant::ZERO,
            graph_release: Instant::ZERO,
            abs_deadline: Instant::ZERO + Duration::from_millis(1),
            priority: Priority::new(prio),
            preempted: false,
        }
    }

    #[test]
    fn pops_in_priority_order() {
        let mut q = ReadyQueue::with_capacity(8);
        q.push(job(1, 30)).unwrap();
        q.push(job(2, 10)).unwrap();
        q.push(job(3, 20)).unwrap();
        assert_eq!(q.peek().unwrap().id, JobId::new(2));
        assert_eq!(q.pop().unwrap().priority, Priority::new(10));
        assert_eq!(q.pop().unwrap().priority, Priority::new(20));
        assert_eq!(q.pop().unwrap().priority, Priority::new(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_priority_breaks_ties_deterministically() {
        let mut q = ReadyQueue::with_capacity(8);
        q.push(job(5, 10)).unwrap();
        q.push(job(2, 10)).unwrap();
        // Same priority & release: lower JobId first.
        assert_eq!(q.pop().unwrap().id, JobId::new(2));
        assert_eq!(q.pop().unwrap().id, JobId::new(5));
    }

    #[test]
    fn capacity_enforced() {
        let mut q = ReadyQueue::with_capacity(2);
        q.push(job(1, 1)).unwrap();
        q.push(job(2, 2)).unwrap();
        assert!(matches!(
            q.push(job(3, 3)),
            Err(Error::CapacityExceeded { capacity: 2, .. })
        ));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_specific_job() {
        let mut q = ReadyQueue::with_capacity(8);
        for i in 1..=4 {
            q.push(job(i, i)).unwrap();
        }
        let removed = q.remove(JobId::new(3)).unwrap();
        assert_eq!(removed.id, JobId::new(3));
        assert_eq!(q.len(), 3);
        assert!(q.remove(JobId::new(99)).is_none());
        // Remaining order intact.
        assert_eq!(q.pop().unwrap().id, JobId::new(1));
        assert_eq!(q.pop().unwrap().id, JobId::new(2));
        assert_eq!(q.pop().unwrap().id, JobId::new(4));
    }

    #[test]
    fn pop_after_remove_preserves_order() {
        // Removed entries must never surface from pop/peek, and the
        // surviving order must match a queue that never held them.
        let mut q = ReadyQueue::with_capacity(16);
        for i in 1..=8 {
            q.push(job(i, i)).unwrap();
        }
        assert!(q.remove(JobId::new(1)).is_some()); // current top
        assert!(q.remove(JobId::new(5)).is_some()); // mid-heap
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek().unwrap().id, JobId::new(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id.raw()).collect();
        assert_eq!(order, vec![2, 3, 4, 6, 7, 8]);
        assert!(q.is_empty());
        // Removing an already-removed id is a no-op.
        assert!(q.remove(JobId::new(5)).is_none());
    }

    #[test]
    fn peek_is_immutable_and_exact() {
        let mut q = ReadyQueue::with_capacity(8);
        q.push(job(1, 10)).unwrap();
        q.push(job(2, 20)).unwrap();
        q.push(job(3, 30)).unwrap();
        assert!(q.remove(JobId::new(1)).is_some()); // remove the top
        let top = |q: &ReadyQueue| q.peek().map(|j| j.id);
        assert_eq!(top(&q), Some(JobId::new(2)), "peek sees the live top");
        assert_eq!(top(&q), Some(JobId::new(2)), "no side effect");
        assert!(ReadyQueue::with_capacity(2).peek().is_none());
    }

    #[test]
    fn interleaved_remove_push_pop() {
        let mut q = ReadyQueue::with_capacity(8);
        q.push(job(1, 10)).unwrap();
        q.push(job(2, 20)).unwrap();
        q.push(job(3, 30)).unwrap();
        assert_eq!(q.remove(JobId::new(2)).unwrap().id, JobId::new(2));
        // A new, more urgent job after the removal.
        q.push(job(4, 5)).unwrap();
        assert_eq!(q.pop().unwrap().id, JobId::new(4));
        assert_eq!(q.pop().unwrap().id, JobId::new(1));
        assert_eq!(q.pop().unwrap().id, JobId::new(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_after_remove_of_same_id_is_live() {
        // Re-pushing an id after its previous instance was removed must
        // enqueue the new instance under its new key.
        let mut q = ReadyQueue::with_capacity(8);
        q.push(job(5, 30)).unwrap();
        q.push(job(1, 20)).unwrap();
        assert_eq!(q.remove(JobId::new(5)).unwrap().priority, Priority::new(30));
        // Same id, now more urgent than job 1.
        q.push(job(5, 10)).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().priority, Priority::new(10));
        assert_eq!(q.pop().unwrap().priority, Priority::new(10));
        assert_eq!(q.pop().unwrap().id, JobId::new(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn removal_frees_capacity_for_pushes() {
        // Removed jobs free their slot immediately — the bound is on
        // live jobs and the index holds no lazy-delete debt.
        let mut q = ReadyQueue::with_capacity(2);
        q.push(job(1, 1)).unwrap();
        q.push(job(2, 2)).unwrap();
        assert!(q.remove(JobId::new(2)).is_some());
        assert_eq!(q.len(), 1);
        q.push(job(3, 3)).unwrap();
        assert!(matches!(
            q.push(job(4, 4)),
            Err(Error::CapacityExceeded { capacity: 2, .. })
        ));
        assert_eq!(q.pop().unwrap().id, JobId::new(1));
        assert_eq!(q.pop().unwrap().id, JobId::new(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn op_counters() {
        let mut q = ReadyQueue::with_capacity(4);
        q.push(job(1, 1)).unwrap();
        q.push(job(2, 2)).unwrap();
        let _ = q.pop();
        assert_eq!(q.pushes(), 2);
        assert_eq!(q.pops(), 1);
        let _ = q.pop();
        let _ = q.pop(); // empty pop does not count
        assert_eq!(q.pops(), 2);
    }

    #[test]
    fn index_survives_colliding_homes() {
        // Three ids hashing to the same home slot of the 8-slot slab:
        // the full-id check and linear probing must keep them distinct,
        // and backward shift must keep the probe chain unbroken through
        // removals.
        let mask = 7usize; // (4.max(1) * 2).next_power_of_two() - 1
        let home = |id: u64| ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask;
        let mut colliders = vec![0u64];
        let mut id = 1u64;
        while colliders.len() < 3 {
            if home(id) == home(0) {
                colliders.push(id);
            }
            id += 1;
        }
        let mut q = ReadyQueue::with_capacity(4);
        for (i, &c) in colliders.iter().enumerate() {
            q.push(job(c, 10 * (i as u64 + 1))).unwrap();
        }
        assert_eq!(q.len(), 3);
        // Remove the middle collider; its probe-chain successor must
        // still resolve.
        assert_eq!(
            q.remove(JobId::new(colliders[1])).unwrap().priority,
            Priority::new(20)
        );
        assert_eq!(
            q.remove(JobId::new(colliders[2])).unwrap().priority,
            Priority::new(30)
        );
        assert_eq!(q.pop().unwrap().id, JobId::new(colliders[0]));
        assert!(q.is_empty());
    }

    #[test]
    fn scan_in_order_enumerates_by_key_without_mutating() {
        let mut q = ReadyQueue::with_capacity(16);
        for (id, prio) in [(1, 40), (2, 10), (3, 30), (4, 20), (5, 50), (6, 5)] {
            q.push(job(id, prio)).unwrap();
        }
        let mut frontier = Vec::new();
        let mut seen = Vec::new();
        q.scan_in_order(&mut frontier, |j| {
            seen.push(j.id.raw());
            true
        });
        assert_eq!(seen, vec![6, 2, 4, 3, 1, 5], "ascending key order");
        assert_eq!(q.len(), 6, "scan must not mutate");
        // Early stop: the visitor's `false` ends the scan.
        seen.clear();
        q.scan_in_order(&mut frontier, |j| {
            seen.push(j.id.raw());
            seen.len() < 3
        });
        assert_eq!(seen, vec![6, 2, 4]);
        // Empty queue: no visits, no panic.
        let empty = ReadyQueue::with_capacity(4);
        empty.scan_in_order(&mut frontier, |_| panic!("no jobs to visit"));
    }

    #[test]
    fn churn_with_interleaved_removes_stays_consistent() {
        // Deterministic churn: push/remove/pop across several index
        // wrap-arounds; every op's result is cross-checked against a
        // naive model. Also the shape Miri runs in CI.
        let mut q = ReadyQueue::with_capacity(16);
        let mut model: Vec<Job> = Vec::new();
        let mut next_id = 0u64;
        let mut state = 0x9E37_79B9u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match state % 4 {
                0 | 1 => {
                    if model.len() < 16 {
                        let j = job(next_id, (state >> 8) % 5);
                        next_id += 1;
                        q.push(j).unwrap();
                        model.push(j);
                    }
                }
                2 => {
                    let expect = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, j)| j.queue_key())
                        .map(|(i, _)| i);
                    let got = q.pop();
                    match expect {
                        Some(i) => assert_eq!(got.unwrap(), model.remove(i)),
                        None => assert!(got.is_none()),
                    }
                }
                3 => {
                    if !model.is_empty() {
                        let i = (state >> 16) as usize % model.len();
                        let id = model[i].id;
                        assert_eq!(q.remove(id).unwrap(), model.remove(i));
                    }
                }
                _ => unreachable!(),
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(
                q.peek().copied(),
                model.iter().min_by_key(|j| j.queue_key()).copied()
            );
        }
    }
}
