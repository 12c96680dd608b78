//! The asynchronous message-passing model of §3, executable.
//!
//! This crate provides everything needed to *run* the paper's protocols
//! without a physical network:
//!
//! * [`party`] — party identities and hierarchical session identifiers,
//! * [`protocol`] — the deterministic state-machine model every protocol
//!   implements,
//! * [`mux`] — the hierarchical session router: instance paths, the flat
//!   wire envelope, the child-instance [`Router`](mux::Router) with its
//!   bounded pre-activation buffer, and the multi-session
//!   [`SessionHost`](mux::SessionHost),
//! * [`scheduler`] — adversarial delivery schedules (arbitrary delay and
//!   reordering with eventual delivery),
//! * [`sim`] — the simulator: exact byte accounting through the wire codec,
//!   causal-depth round counting, crash/Byzantine fault injection,
//! * [`metrics`] — the three performance metrics of §3 (communication,
//!   messages, asynchronous rounds),
//! * [`faults`] — generic Byzantine/crash behaviours for fault-injection
//!   testing, and the [`FaultPlan`] that applies them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod metrics;
pub mod mux;
pub mod party;
pub mod protocol;
pub mod scheduler;
pub mod sim;

pub use faults::{CrashAfter, DuplicatingParty, FaultPlan, SilentParty};
pub use metrics::{Metrics, SessionImbalance};
pub use mux::{
    decode_cache_stats, envelope_path, BufferStats, CapPolicy, DecodeCacheStats, Envelope,
    InstancePath, Leaf, MuxNode, PathSeg, PreActivationBuffer, Router, SessionHost,
};
pub use party::{PartyId, Sid};
pub use protocol::{Dest, Outgoing, ProtocolInstance, Step};
pub use scheduler::{
    FifoScheduler, PartitionScheduler, PendingInfo, RandomScheduler, Scheduler,
    SessionPartitionScheduler, SessionTargetedDelayScheduler, TargetedDelayScheduler,
};
pub use setupfree_obs::ObsPath;
pub use sim::{BoxedParty, RunReport, Simulation, StopReason};
