//! Spans recorded around the calls into each layer, kept in memory and
//! written when the run ends, plus the preallocated stamp buffer traced
//! task bodies write into.
//!
//! A span is `(span, parent, id, name, start_ns, end_ns)`: `id` is the
//! request it belongs to (one per job, chain instance, admit or sim
//! config), `parent` the span that caused it. A layer's self time is
//! its span's duration minus what its children cover.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            spans: Vec::with_capacity(n),
        }
    }

    /// Records a span and returns its index, for use as a `parent`.
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self, workload: &str, clock: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("clock", Json::str(clock)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::obj([
                                ("span", Json::Int(i as u64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                                ),
                                ("id", Json::Int(s.id)),
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Int(s.start_ns)),
                                ("end_ns", Json::Int(s.end_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Body start/end stamps, two preallocated slots per `(task, seq)`, so
/// a traced body only does two clock reads and two relaxed stores.
/// Stamps are nanoseconds since `epoch` + 1 (0 = never written).
pub struct Stamps {
    epoch: Instant,
    per_task: usize,
    slots: Vec<AtomicU64>,
}

impl Stamps {
    pub fn new(tasks: usize, per_task: usize) -> Self {
        Stamps {
            epoch: Instant::now(),
            per_task,
            slots: (0..tasks * per_task * 2)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    /// Stores the body span of job `seq` of task `task`; jobs past the
    /// preallocated range are dropped, never reallocated for.
    #[inline]
    pub fn put(&self, task: usize, seq: u64, start_ns: u64, end_ns: u64) {
        if (seq as usize) < self.per_task {
            let i = (task * self.per_task + seq as usize) * 2;
            // Relaxed: read only after the runtime's threads are joined.
            self.slots[i].store(start_ns, Ordering::Relaxed);
            self.slots[i + 1].store(end_ns, Ordering::Relaxed);
        }
    }

    pub fn get(&self, task: usize, seq: u64) -> Option<(u64, u64)> {
        if (seq as usize) >= self.per_task {
            return None;
        }
        let i = (task * self.per_task + seq as usize) * 2;
        let (s, e) = (
            self.slots[i].load(Ordering::Relaxed),
            self.slots[i + 1].load(Ordering::Relaxed),
        );
        (s != 0 && e != 0).then_some((s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parent_links() {
        let mut t = Trace::with_capacity(2);
        let job = t.span("job", 7, None, 10, 50);
        t.span("body", 7, Some(job), 20, 40);
        let text = t.to_json("cyclic", "runtime").to_line();
        assert!(text
            .contains(r#"{"span":1,"parent":0,"id":7,"name":"body","start_ns":20,"end_ns":40}"#));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn stamps_drop_jobs_past_the_preallocated_range() {
        let s = Stamps::new(2, 3);
        s.put(1, 2, 5, 9);
        s.put(1, 3, 5, 9);
        assert_eq!(s.get(1, 2), Some((5, 9)));
        assert_eq!(s.get(1, 3), None);
        assert_eq!(s.get(0, 0), None);
    }
}
