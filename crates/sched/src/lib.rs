//! # yasmin-sched
//!
//! The scheduling engine of YASMIN (Rouxel, Altmeyer & Grelck,
//! Middleware 2021): pure scheduling logic with no threads and no clock,
//! driven by events and answering with actions. Both the discrete-event
//! simulator (`yasmin-sim`) and the real-thread runtime (`yasmin-rt`)
//! drive this same engine.
//!
//! * [`job`] — jobs (task activations) and their queue ordering;
//! * [`queue`] — bounded priority-ordered ready queues (Fig. 1a/1b);
//! * [`select`] — the multi-version selection engine (§3.2): energy,
//!   energy/time trade-off, mode, permission mask, user-defined, and the
//!   shortest-WCET default;
//! * [`accel`] — accelerator arbitration with Priority Inheritance;
//! * [`engine`] — the on-line global/partitioned scheduler (§3.3);
//! * [`input`] — what a driver tells an engine, the one way to change
//!   it ([`OnlineEngine::apply`]);
//! * [`shard`] — per-worker engine shards for partitioned mapping: one
//!   independent [`OnlineEngine`] per worker, and the cross-shard steal
//!   protocol;
//! * [`msg`] — the typed priority message plane: dual-lane
//!   (normal/high) channels over the wait-free SPSC rings, whose high
//!   lane boosts the receiving task through the engine's PIP machinery;
//! * [`offline`] — off-line table synthesis, validation, and the run-time
//!   dispatcher (§3.4, Fig. 1c);
//! * [`server`] — deferrable reservation servers backing admitted
//!   tenants' budgets (the paper's §7 future-work item);
//! * [`tenancy`] — the tenant slot table of a ledger and of each
//!   engine, and the rules that tell a slot's holder from its former
//!   holders;
//! * [`admission`] — on-line admission control: schedulability-checks an
//!   arriving tenant against the live set and produces the merged task
//!   set to splice into a running engine, with structured refusals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod admission;
pub mod engine;
pub mod input;
pub mod job;
pub mod msg;
pub mod offline;
pub mod queue;
pub mod select;
pub mod server;
pub mod shard;
pub mod sink;
pub mod tenancy;

pub use accel::AccelManager;
pub use admission::{AdmissionControl, AdmissionError, BoundViolation, TenantLedger};
pub use engine::{
    Action, Continuation, CycleMark, EngineStats, HomeNote, JobOutcome, OnlineEngine,
    RemoteActivation, RunningJob, StealHint,
};
pub use input::Input;
pub use job::{Job, JobBatch, MAX_STEAL_BATCH};
pub use msg::{ChannelBuilder, MsgEvent, MsgNotify, NotifyHandle, Receiver, SendError, Sender};
pub use offline::{
    synthesize, synthesize_strict, OfflineDispatcher, ScheduleTable, SynthesisOptions,
};
pub use queue::ReadyQueue;
pub use select::{rank_versions, rank_versions_into, RankBuf};
pub use server::{ReservationServer, TenantBudget};
pub use shard::{validate_sharding, EngineShard};
pub use sink::ActionSink;
