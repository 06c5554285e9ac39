//! # yasmin-sync
//!
//! Synchronisation substrate for the YASMIN middleware (§3.5 of Rouxel,
//! Altmeyer & Grelck, Middleware 2021):
//!
//! * [`spsc`] — bounded wait-free SPSC FIFO ring backing the task
//!   channels;
//! * [`mod@mailbox`] — lock-free MPSC command mailbox (one SPSC lane
//!   per producer, single owner) feeding the sharded per-worker
//!   scheduler;
//! * [`steal`] — the advisory [`steal::LoadBoard`] work-stealing
//!   thieves pick their victim by;
//! * [`shelf`] — the single-producer / multi-consumer exchange a
//!   victim lays its spare jobs out on before it runs a body, and from
//!   which a thief takes them with one compare-and-swap;
//! * [`door`] — the doors a busy scheduler opens on the instances it
//!   would release next, one of which the peer that completes the
//!   predecessor keeps with one compare-and-swap;
//! * [`doorbell`] — [`doorbell::Doorbell`], the one-sleeper /
//!   many-ringers wake-up signal (`park`/`unpark` behind a Dekker
//!   flag) that lets the owner of a mailbox or an SPSC ring sleep until
//!   a producer has work for it instead of polling;
//! * [`wait`] — sleep vs spin waiting strategies.
//!
//! Every unsafe block carries its justification, and the stress tests
//! exercise the FIFO and exchange invariants under real contention.
//! There is no lock here: the runtime takes none, so the lock choice
//! of the paper's §3.5 is not reproduced (`docs/ARCHITECTURE.md`,
//! "Locking").

#![warn(missing_docs)]

pub mod door;
pub mod doorbell;
pub mod mailbox;
pub mod shelf;
pub mod spsc;
pub mod steal;
pub mod wait;

pub use doorbell::Doorbell;
pub use mailbox::{mailbox, MailboxFull, MailboxReceiver, MailboxSender};
pub use spsc::{channel as spsc_channel, Consumer, Producer};
pub use steal::LoadBoard;
pub use wait::{wait_for, wait_until, WaitMode};
