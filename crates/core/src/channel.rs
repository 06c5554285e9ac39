//! FIFO channel declarations connecting causally dependent tasks.
//!
//! The paper declares channels with the `channel_decl(CID, datatype, size)`
//! macro and wires them with `channel_connect(src, dst, CID)` (§3.1). A
//! channel of capacity zero expresses a pure precedence dependency without
//! data exchange (Listing 2 line 3).
//!
//! This module holds the *static description*; the executable typed FIFO
//! lives in `yasmin-rt`, and the simulator tracks channel occupancy as
//! token counts.

use crate::ids::{ChannelId, TaskId};
use crate::priority::Priority;

/// What happens to a token posted to a channel that is already at
/// capacity (the overload-shedding policy).
///
/// The default, [`BackpressurePolicy::Reject`], preserves the historic
/// behaviour: the overflow is counted (`EngineStats::channel_overflows`)
/// and the token is still queued — producers are never blocked on the
/// hot path. The dropping policies shed load instead, bounding the
/// backlog a slow consumer can accumulate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BackpressurePolicy {
    /// Count the overflow and keep the token (no shedding).
    #[default]
    Reject,
    /// Drop the *oldest* buffered token to make room for the new one —
    /// the right policy for telemetry lanes where only the freshest
    /// sample matters.
    DropOldest,
    /// Drop the token with the *latest* downstream release time (the one
    /// whose derived deadline is furthest away), keeping urgent work.
    DeadlineAwareDrop,
}

/// Static description of a FIFO channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    id: ChannelId,
    name: String,
    capacity: usize,
    elem_bytes: usize,
    /// Capacity of the optional high-priority lane (0 = normal lane only).
    high_capacity: usize,
    /// Ceiling priority the consumer inherits while the high lane is
    /// non-empty (`None` = no scheduler-visible boost).
    high_ceiling: Option<Priority>,
    /// What to do with tokens that arrive while the channel is full.
    backpressure: BackpressurePolicy,
}

impl ChannelSpec {
    /// Creates a channel holding up to `capacity` items of `elem_bytes`
    /// each. A zero capacity declares a dependency without data exchange.
    #[must_use]
    pub fn new(id: ChannelId, name: impl Into<String>, capacity: usize, elem_bytes: usize) -> Self {
        ChannelSpec {
            id,
            name: name.into(),
            capacity,
            elem_bytes,
            high_capacity: 0,
            high_ceiling: None,
            backpressure: BackpressurePolicy::Reject,
        }
    }

    /// Sets the overload-shedding policy applied when a token arrives on
    /// a full channel (default [`BackpressurePolicy::Reject`]).
    #[must_use]
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// The overload-shedding policy for tokens arriving on a full
    /// channel.
    #[must_use]
    pub const fn backpressure(&self) -> BackpressurePolicy {
        self.backpressure
    }

    /// Adds a high-priority lane of `capacity` slots. While that lane is
    /// non-empty the consuming task's pending job inherits `ceiling`
    /// (smaller = more urgent) through the engine's PIP machinery; the
    /// boost is released when the lane drains.
    #[must_use]
    pub fn with_high_lane(mut self, capacity: usize, ceiling: Priority) -> Self {
        self.high_capacity = capacity;
        self.high_ceiling = Some(ceiling);
        self
    }

    /// Rebinds the spec to a new id (used when splicing task sets, which
    /// offsets channel ids); every other field is preserved.
    #[must_use]
    pub fn with_id(mut self, id: ChannelId) -> Self {
        self.id = id;
        self
    }

    /// Capacity of the high-priority lane (0 = no high lane).
    #[must_use]
    pub const fn high_capacity(&self) -> usize {
        self.high_capacity
    }

    /// The ceiling priority the consumer inherits while the high lane is
    /// non-empty, `None` when the channel declares no boost.
    #[must_use]
    pub const fn high_ceiling(&self) -> Option<Priority> {
        self.high_ceiling
    }

    /// The channel identifier.
    #[must_use]
    pub const fn id(&self) -> ChannelId {
        self.id
    }

    /// The channel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum number of buffered items (0 = precedence only).
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Size of one item in bytes.
    #[must_use]
    pub const fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    /// `true` if the channel only expresses precedence (capacity 0).
    #[must_use]
    pub const fn is_precedence_only(&self) -> bool {
        self.capacity == 0
    }
}

/// A directed connection `src → dst` over a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// The channel carrying the data (or the precedence token).
    pub channel: ChannelId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_spec_fields() {
        let c = ChannelSpec::new(ChannelId::new(2), "rj", 2, 4);
        assert_eq!(c.id(), ChannelId::new(2));
        assert_eq!(c.name(), "rj");
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.elem_bytes(), 4);
        assert!(!c.is_precedence_only());
    }

    #[test]
    fn zero_capacity_is_precedence_only() {
        let c = ChannelSpec::new(ChannelId::new(0), "fl", 0, 1);
        assert!(c.is_precedence_only());
    }

    #[test]
    fn high_lane_declaration_and_rebind() {
        let plain = ChannelSpec::new(ChannelId::new(1), "c", 4, 8);
        assert_eq!(plain.high_capacity(), 0);
        assert_eq!(plain.high_ceiling(), None);

        let c = plain.clone().with_high_lane(2, Priority::new(5));
        assert_eq!(c.high_capacity(), 2);
        assert_eq!(c.high_ceiling(), Some(Priority::new(5)));

        let moved = c.clone().with_id(ChannelId::new(9));
        assert_eq!(moved.id(), ChannelId::new(9));
        assert_eq!(moved.name(), "c");
        assert_eq!(moved.high_capacity(), 2);
        assert_eq!(moved.high_ceiling(), Some(Priority::new(5)));
    }
}
