//! Typed identifiers for every entity YASMIN manages.
//!
//! The paper's C API hands out opaque `TID` / `VID` / `HID` / `CID`
//! integers (Table 1); here each gets its own newtype so tasks, versions,
//! accelerators, channels, jobs and workers can never be confused
//! (C-NEWTYPE).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $repr:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($repr);

        impl $name {
            /// Creates an identifier from its raw index.
            #[must_use]
            pub const fn new(raw: $repr) -> Self {
                $name(raw)
            }

            /// The raw index backing this identifier.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// The raw value.
            #[must_use]
            pub const fn raw(self) -> $repr {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifies a task (`TID` in the paper's API).
    TaskId,
    "T",
    u32
);

id_type!(
    /// Identifies a version *within its task* (`VID` in the paper's API).
    ///
    /// Version identifiers are indices into [`crate::task::Task::versions`];
    /// a `(TaskId, VersionId)` pair is globally unique.
    VersionId,
    "v",
    u16
);

id_type!(
    /// Identifies a declared hardware accelerator (`HID`).
    AccelId,
    "H",
    u16
);

id_type!(
    /// Identifies a FIFO channel connecting two tasks (`CID`).
    ChannelId,
    "C",
    u32
);

id_type!(
    /// Identifies a worker thread, i.e. a *virtual CPU* pinned to a core
    /// (§3.3).
    WorkerId,
    "W",
    u16
);

id_type!(
    /// Identifies a physical core of the platform model.
    CoreId,
    "c",
    u16
);

id_type!(
    /// Identifies a *tenant*: a task-set namespace admitted into a running
    /// schedule.
    ///
    /// Tenant 0 is always the task set the engine was built with; each
    /// successful on-line admission allocates the next id in order. Ids are
    /// never reused, even after the tenant is retired — but its task ids
    /// are: a retired tenant's slot goes to the next tenant of its shape
    /// (`yasmin_sched::admission`).
    TenantId,
    "N",
    u32
);

/// Identifies one activation (job) of a task. Monotonically increasing and
/// globally unique within a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job identifier from its raw sequence number.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw sequence number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        let t = TaskId::new(42);
        assert_eq!(t.index(), 42);
        assert_eq!(t.raw(), 42);
        assert_eq!(usize::from(t), 42);
        assert_eq!(format!("{t}"), "T42");
        assert_eq!(format!("{t:?}"), "T42");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just confirm the formats.
        assert_eq!(VersionId::new(1).to_string(), "v1");
        assert_eq!(AccelId::new(2).to_string(), "H2");
        assert_eq!(ChannelId::new(3).to_string(), "C3");
        assert_eq!(WorkerId::new(4).to_string(), "W4");
        assert_eq!(CoreId::new(5).to_string(), "c5");
        assert_eq!(JobId::new(6).to_string(), "J6");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(TaskId::new(1) < TaskId::new(2));
        assert!(JobId::new(9) > JobId::new(3));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(TaskId::default(), TaskId::new(0));
        assert_eq!(JobId::default().raw(), 0);
    }
}
