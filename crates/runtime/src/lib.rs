//! Sharded multi-session runtime.
//!
//! The paper's protocols are built to run *many concurrent instances* —
//! per-epoch beacons (§7.3), per-view VBAs (§7.1), `k` parallel BAs (the
//! concurrent-agreement regime of Cohen et al., arXiv:2312.14506).  PR 4's
//! `SessionHost` made that workload expressible (k sessions multiplexed
//! over one network by a leading path segment); this crate makes it
//! **operable at scale**:
//!
//! * [`ShardedHost`] — partitions sessions across `W` worker shards (shard
//!   key = the leading session segment of the instance path, i.e. session
//!   index mod `W`), each session owning its complete execution state:
//!   party machines, adversarial scheduler, in-flight slab, delivery
//!   budget, metrics.  A session runs once, to its close, through
//!   `Simulation::run`; one coordinator admits sessions and collects their
//!   reports, and either runs them in admission order on the calling
//!   thread ([`ShardedHost::run`]) or hands them to `W` OS threads over
//!   bounded [`ShardQueue`]s ([`ShardedHost::run_parallel`]).  Per-session
//!   results are identical for every `W` and for both modes.
//! * [`SessionMetrics`] / [`SessionReport`] — per-session accounting
//!   (sent/delivered/purged/in-flight/rounds) with the conservation law
//!   checked per session, and [`StopReason::BudgetExhausted`] attributed to
//!   the offending session instead of the whole run.
//! * [`AdmissionPolicy`] ([`Unlimited`] / [`MaxConcurrent`] /
//!   [`TokenBucket`]) — sessions are opened mid-run under a policy instead
//!   of pre-spawned, so pipelined beacon epochs become *admitted* sessions
//!   with a bounded live-session window.
//!
//! The per-session fairness adversaries this runtime is measured under
//! (`SessionTargetedDelayScheduler`, `SessionPartitionScheduler`) live in
//! `setupfree_net::scheduler`, built on the same Fenwick-arena scheduler
//! API as the party-level adversaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod host;
pub mod queue;

pub use admission::{AdmissionPolicy, MaxConcurrent, TokenBucket, Unlimited};
pub use host::{
    SessionFactory, SessionMetrics, SessionReport, SessionSetup, ShardedHost, ShardedRunReport,
    WorkerFailure,
};
pub use queue::ShardQueue;

// Re-exported so downstream code can name the session stop reason without a
// separate net import.
pub use setupfree_net::StopReason;
