//! The worker-partitioned session host.
//!
//! [`ShardedHost`] runs `k` top-level protocol sessions partitioned across
//! `W` worker shards by session index (the leading session segment of the
//! mux's `InstancePath` is the shard key — shard `= session mod W`).  Where
//! PR 4's `SessionHost` multiplexed every session through **one** simulator
//! loop — one scheduler pool of all sessions' in-flight messages, one
//! aggregate `Metrics`, one global delivery budget — each sharded session
//! owns its complete execution state: party machines, adversarial
//! scheduler, in-flight slab, delivery budget and [`SessionMetrics`].  That
//! buys three things the single loop cannot offer:
//!
//! * **isolation** — a session that exhausts its budget is reported as
//!   [`StopReason::BudgetExhausted`] *for that session* while the rest run
//!   to completion, and per-session metrics make cross-session interference
//!   measurable instead of folded into one aggregate;
//! * **scalability** — scheduler pools stay session-sized (the single
//!   loop's pool grows with `k`, and its per-pick cost with `log` of that),
//!   and the shards can run on real OS threads ([`ShardedHost::run_parallel`]);
//! * **admission** — sessions are *opened* by an
//!   [`AdmissionPolicy`](crate::admission::AdmissionPolicy) instead of
//!   pre-spawned, so pipelined workloads (beacon epochs, view streams)
//!   become admitted sessions under a concurrency/rate policy.
//!
//! # Execution and determinism contract
//!
//! A session runs once, to its close: the host builds its setup, applies
//! the fault plan, and calls `Simulation::run(budget)` — the same call a
//! bare simulation makes.  One coordinator admits sessions and collects
//! their reports for both modes: [`ShardedHost::run`] executes the admitted
//! sessions in admission order on the calling thread, and
//! [`ShardedHost::run_parallel`] hands them to `W` worker threads.  Every
//! session's scheduler is seeded by the caller per session and top-level
//! sessions exchange no traffic, so a session's delivery sequence is a
//! pure function of its own setup — per-session results (deliveries,
//! rounds, bytes, outputs, trace stream) are **identical for every `W`**
//! and for both modes.  The golden tests pin exactly this.  Host-level
//! *telemetry* ([`ShardedRunReport::peak_live_sessions`], the admission
//! trace) depends on when sessions close and is excluded from the contract.

use std::collections::VecDeque;
use std::fmt;

use setupfree_net::{BoxedParty, FaultPlan, Scheduler, Simulation, StopReason};
use setupfree_obs::{EventKind, TraceEvent, VecSink, NO_PARTY};

use crate::admission::{AdmissionPolicy, Unlimited};
use crate::queue::ShardQueue;

/// What running a session to its close yields: its report, its outputs,
/// and its trace stream (empty unless tracing is on).
type ClosedSession<O> = (SessionReport, Vec<Option<O>>, Vec<TraceEvent>);

/// Everything needed to run one session: the per-party state machines,
/// the session's own adversarial scheduler (seed it per session — that is
/// what makes per-session execution independent of the shard count), its
/// delivery budget, and the fault plan.
pub struct SessionSetup<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    /// Party `i`'s state machine for this session.
    pub parties: Vec<BoxedParty<M, O>>,
    /// The session's delivery scheduler.
    pub scheduler: Box<dyn Scheduler>,
    /// The session's delivery budget; exhausting it closes *this* session
    /// with [`StopReason::BudgetExhausted`] and touches no other.
    pub budget: u64,
    faults: FaultPlan,
}

impl<M, O> SessionSetup<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + 'static,
{
    /// An all-honest session with the given parties, scheduler and budget.
    pub fn new(parties: Vec<BoxedParty<M, O>>, scheduler: Box<dyn Scheduler>, budget: u64) -> Self {
        SessionSetup { parties, scheduler, budget, faults: FaultPlan::default() }
    }

    /// Wraps party `i` so it crashes (goes permanently silent) after
    /// `activations` deliveries — the testkit's mid-run crash fault, now
    /// composable with per-session schedulers: a fairness sweep can starve
    /// one session *and* crash a quorum member of another.  The party stays
    /// honest (pre-crash traffic is charged to the honest complexity, a
    /// pre-crash output joins the agreement quantifier); it is just no
    /// longer awaited for termination.
    pub fn crash_after(mut self, i: usize, activations: usize) -> Self {
        self.faults.crash_after(&mut self.parties, i, activations);
        self
    }

    /// Replaces party `i` with a fully silent Byzantine machine.
    pub fn silence(mut self, i: usize) -> Self {
        self.faults.silence(&mut self.parties, i);
        self
    }
}

/// Builds the [`SessionSetup`] of session `index` (0-based, in admission
/// order).  `Sync` because [`ShardedHost::run_parallel`]'s workers build
/// their sessions on their own threads — party machines never cross a
/// thread boundary, only the factory reference does.
pub trait SessionFactory<M, O>: Sync
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
{
    /// Creates session `index`'s setup.
    fn build(&self, index: usize) -> SessionSetup<M, O>;
}

impl<M, O, F> SessionFactory<M, O> for F
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: Fn(usize) -> SessionSetup<M, O> + Sync,
{
    fn build(&self, index: usize) -> SessionSetup<M, O> {
        self(index)
    }
}

/// The per-session accounting of one closed session — the sharded analogue
/// of the aggregate `Metrics`, plus the conservation law every session obeys
/// individually: `sent == delivered + purged + in_flight`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Message copies sent (honest and Byzantine senders).
    pub sent: u64,
    /// Messages sent by honest parties only.
    pub honest_messages: u64,
    /// Bytes sent by honest parties (exact wire encoding).
    pub honest_bytes: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages purged (receiver crashed).
    pub purged: u64,
    /// Messages still in flight when the session closed (non-zero only for
    /// budget-exhausted sessions).
    pub in_flight: u64,
    /// Asynchronous rounds until every awaited party output (`None` when the
    /// session closed without full termination).
    pub rounds: Option<u64>,
}

impl SessionMetrics {
    /// `true` when the session's books balance:
    /// `sent == delivered + purged + in_flight`.
    pub fn conserved(&self) -> bool {
        self.sent == self.delivered + self.purged + self.in_flight
    }
}

/// The outcome of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// Session index (admission order).
    pub session: usize,
    /// The shard that executed it (`session mod workers`).
    pub shard: usize,
    /// Why the session stopped — a [`StopReason::BudgetExhausted`] here is
    /// attributed to exactly this session.
    pub reason: StopReason,
    /// Deliveries the session consumed from its own budget.
    pub deliveries: u64,
    /// The session's metrics.
    pub metrics: SessionMetrics,
}

/// One worker shard that died before finishing its sessions — the
/// structured form of what used to be a host-thread panic.  A poisoned
/// shard now fails the run *loudly* (the failure is in the report, and
/// [`ShardedRunReport::all_terminated`] is false) without aborting the
/// process: the healthy shards' sessions still report normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The shard whose worker thread died.
    pub shard: usize,
    /// The worker's panic payload (best-effort string form).
    pub message: String,
    /// Sessions assigned to this shard that never reported: the one that
    /// killed the worker, anything still queued in its inbox, and anything
    /// never admitted because the run aborted.
    pub lost_sessions: Vec<usize>,
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker shard {} died ({}); sessions {:?} never reported",
            self.shard, self.message, self.lost_sessions
        )
    }
}

/// The outcome of a whole sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRunReport<O> {
    /// One report per *closed* session, indexed by session.  Complete
    /// (`sessions.len() == k`) exactly when [`ShardedRunReport::failures`]
    /// is empty; a failed parallel run reports only the sessions that
    /// closed before (or despite) the failure.
    pub sessions: Vec<SessionReport>,
    /// Every session's per-party outputs, indexed by session then party
    /// (empty for sessions lost to a worker failure).
    pub outputs: Vec<Vec<Option<O>>>,
    /// Maximum number of concurrently live (admitted, not yet filed)
    /// sessions observed — telemetry that depends on when sessions close,
    /// *not* covered by the determinism contract.
    pub peak_live_sessions: usize,
    /// Worker shards that died mid-run (always empty for
    /// [`ShardedHost::run`], which executes sessions on the host thread).
    pub failures: Vec<WorkerFailure>,
    /// Per-session trace streams (indexed by session; all empty unless the
    /// host was built [`ShardedHost::with_tracing`]).  Each stream is the
    /// session's own deterministic event sequence — identical for every
    /// worker count, the trace-level form of the determinism contract.
    pub session_traces: Vec<Vec<TraceEvent>>,
    /// The host's admission-decision trace ([`EventKind::Admission`]): one
    /// event per committed admission (and per first refusal of a delayed
    /// session), stamped with the deliveries of every session closed so
    /// far.  Empty unless tracing is on.  Close-order-dependent telemetry,
    /// like [`ShardedRunReport::peak_live_sessions`].
    pub admission_trace: Vec<TraceEvent>,
}

impl<O> ShardedRunReport<O> {
    /// Sessions that exhausted their delivery budget.
    pub fn exhausted_sessions(&self) -> Vec<usize> {
        self.sessions
            .iter()
            .filter(|r| r.reason == StopReason::BudgetExhausted)
            .map(|r| r.session)
            .collect()
    }

    /// `true` when no worker died and every session terminated with all
    /// awaited outputs.
    pub fn all_terminated(&self) -> bool {
        self.failures.is_empty()
            && self.sessions.iter().all(|r| r.reason == StopReason::AllOutputs)
    }

    /// Component-wise sum of every session's metrics (`rounds` is the
    /// maximum over terminated sessions) — comparable to the single-loop
    /// aggregate `Metrics`.
    pub fn aggregate(&self) -> SessionMetrics {
        let mut total = SessionMetrics::default();
        for r in &self.sessions {
            total.sent += r.metrics.sent;
            total.honest_messages += r.metrics.honest_messages;
            total.honest_bytes += r.metrics.honest_bytes;
            total.delivered += r.metrics.delivered;
            total.purged += r.metrics.purged;
            total.in_flight += r.metrics.in_flight;
            total.rounds = match (total.rounds, r.metrics.rounds) {
                (a, None) => a,
                (None, b) => b,
                (Some(a), Some(b)) => Some(a.max(b)),
            };
        }
        total
    }

    /// Panics unless every session's books balance individually and their
    /// sums match the aggregate — the per-session conservation law.
    pub fn assert_conservation(&self) {
        for r in &self.sessions {
            assert!(
                r.metrics.conserved(),
                "session {} books do not balance: {:?}",
                r.session,
                r.metrics
            );
        }
        let agg = self.aggregate();
        assert_eq!(agg.sent, agg.delivered + agg.purged + agg.in_flight);
    }

    /// The per-session fingerprint the determinism golden pins:
    /// `(session, deliveries, rounds, sent, honest_bytes)` must be
    /// cell-for-cell identical for every worker count and for the parallel
    /// mode.
    pub fn fingerprints(&self) -> Vec<(usize, u64, Option<u64>, u64, u64)> {
        self.sessions
            .iter()
            .map(|r| (r.session, r.deliveries, r.metrics.rounds, r.metrics.sent, r.metrics.honest_bytes))
            .collect()
    }
}

/// Capacity of each worker inbox in parallel mode: deep enough to keep a
/// worker busy while the coordinator does other work, small enough that
/// admission (and its policy) stays in control of how much work is
/// committed ahead.
const INBOX_CAPACITY: usize = 4;

/// Runs `k` sessions over `W` worker shards.  See the module docs for the
/// execution and determinism model.
pub struct ShardedHost<M, O, F>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: SessionFactory<M, O>,
{
    factory: F,
    sessions: usize,
    workers: usize,
    policy: Box<dyn AdmissionPolicy>,
    tracing: bool,
    _marker: std::marker::PhantomData<fn() -> (M, O)>,
}

impl<M, O, F> ShardedHost<M, O, F>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: SessionFactory<M, O>,
{
    /// Creates a host running `sessions` sessions over `workers` shards with
    /// unlimited admission (every session opened immediately — the PR 4
    /// pre-spawn behaviour).
    pub fn new(workers: usize, sessions: usize, factory: F) -> Self {
        assert!(workers > 0, "at least one worker shard is required");
        assert!(sessions > 0, "a host with zero sessions has nothing to run");
        ShardedHost {
            factory,
            sessions,
            workers,
            policy: Box::new(Unlimited),
            tracing: false,
            _marker: std::marker::PhantomData,
        }
    }

    /// Enables protocol tracing: every session records its own
    /// [`TraceEvent`] stream (surfaced as
    /// [`ShardedRunReport::session_traces`]) and the host records its
    /// admission decisions ([`ShardedRunReport::admission_trace`]).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Replaces the admission policy (see [`crate::admission`]).
    ///
    /// Liveness floor: when no session is live, one pending session is
    /// opened even against the policy's verdict — an empty host generates no
    /// deliveries, so a delivery-clocked policy could otherwise never refill
    /// and the run would wedge.
    pub fn with_admission(mut self, policy: impl AdmissionPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Runs every session to its close on the current thread, one at a
    /// time in admission order; a session's shard is `session mod W`.
    pub fn run(self) -> ShardedRunReport<O> {
        let w = self.workers;
        let mut coordinator = Coordinator::new(self.sessions, self.policy, self.tracing);
        let mut admitted = VecDeque::new();
        loop {
            coordinator.admit(
                |_| true,
                |index| {
                    admitted.push_back(index);
                    true
                },
            );
            let Some(index) = admitted.pop_front() else { break };
            coordinator.close(run_session(&self.factory, index, index % w, self.tracing));
        }
        debug_assert_eq!(coordinator.closed, self.sessions, "every session closed");
        coordinator.finish(Vec::new())
    }

    /// Runs the shards on `W` OS threads — the opt-in parallel mode.
    ///
    /// Admitted session indices flow to the workers over bounded
    /// [`ShardQueue`]s and reports flow back the same way.  Each worker
    /// runs its sessions exactly as [`ShardedHost::run`] does, so
    /// per-session results match it bit-for-bit; only the host telemetry
    /// (peak live sessions, admission-trace clocks) depends on thread
    /// timing.
    pub fn run_parallel(self) -> ShardedRunReport<O>
    where
        O: Send,
    {
        let k = self.sessions;
        let w = self.workers;
        let ShardedHost { factory, policy, tracing, .. } = self;
        let factory = &factory;
        let inboxes: Vec<ShardQueue<usize>> = (0..w).map(|_| ShardQueue::new(INBOX_CAPACITY)).collect();
        // Outbox capacity k: a worker can always hand its report back
        // without blocking, so the coordinator can never deadlock it.
        let outboxes: Vec<ShardQueue<ClosedSession<O>>> =
            (0..w).map(|_| ShardQueue::new(k)).collect();
        let mut coordinator = Coordinator::new(k, policy, tracing);
        let mut failures: Vec<WorkerFailure> = Vec::new();

        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(w);
            for (shard, (inbox, outbox)) in inboxes.iter().zip(&outboxes).enumerate() {
                workers.push(scope.spawn(move || {
                    // The whole session lives and dies on this thread; only
                    // the index in and the report out cross threads.
                    while let Some(index) = inbox.pop() {
                        if outbox.push(run_session(factory, index, shard, tracing)).is_err() {
                            break;
                        }
                    }
                }));
            }

            // Coordinator (this thread): admission + report collection.  It
            // never blocks on an inbox (try_push only), so worker and
            // coordinator can never wait on each other in a cycle.
            let mut aborted = false;
            while coordinator.closed < k {
                // Room is checked BEFORE the policy is consulted: `admit`
                // commits the admission (a token bucket debits a token), so
                // asking it while the target inbox is full would burn
                // admissions without admitting anything.  The coordinator is
                // each inbox's only producer, so observed room cannot vanish
                // before the push; if that invariant ever breaks, the run
                // aborts and reports it instead of taking the process down.
                aborted = !coordinator.admit(
                    |index| inboxes[index % w].has_capacity(),
                    |index| inboxes[index % w].try_push(index).is_ok(),
                );
                let mut got = false;
                for outbox in &outboxes {
                    while let Some(closed) = outbox.try_pop() {
                        coordinator.close(closed);
                        got = true;
                    }
                }
                if aborted {
                    break;
                }
                if !got {
                    // A worker only exits after its inbox closes (below), so
                    // one finishing early has panicked — its sessions will
                    // never report.  Stop admitting and collect what the
                    // healthy shards produced instead of spinning forever.
                    if workers.iter().any(|h| h.is_finished()) {
                        aborted = true;
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            // Closing the inboxes releases every healthy worker: each drains
            // its queued indices, runs them to close, and exits.
            for inbox in &inboxes {
                inbox.close();
            }
            // Join explicitly, consuming panic payloads so the scope does not
            // re-panic on drop.  A `Err` here is the worker's own panic; its
            // payload becomes the structured failure message.
            let mut dead: Vec<(usize, String)> = Vec::new();
            for (shard, handle) in workers.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked with a non-string payload".into());
                    dead.push((shard, message));
                }
            }
            // Healthy workers kept reporting while we joined the dead one;
            // drain the outboxes once more so their sessions are not misread
            // as lost.
            for outbox in &outboxes {
                while let Some(closed) = outbox.try_pop() {
                    coordinator.close(closed);
                }
            }
            for (shard, message) in dead {
                let lost_sessions = coordinator.unreported(|i| i % w == shard);
                failures.push(WorkerFailure { shard, message, lost_sessions });
            }
            if aborted && failures.is_empty() {
                // The abort came from the coordinator side (capacity-invariant
                // breach), not a worker panic; record it against shard `w` so
                // the report still fails loudly.
                failures.push(WorkerFailure {
                    shard: w,
                    message: "single-producer inbox lost capacity".into(),
                    lost_sessions: coordinator.unreported(|_| true),
                });
            }
        });

        coordinator.finish(failures)
    }
}

/// Admission and report collection, shared by both execution modes: it
/// decides which pending session opens next, and files each closed
/// session's report, outputs and trace.
struct Coordinator<O> {
    policy: Box<dyn AdmissionPolicy>,
    tracing: bool,
    reports: Vec<Option<SessionReport>>,
    outputs: Vec<Vec<Option<O>>>,
    session_traces: Vec<Vec<TraceEvent>>,
    admission_trace: Vec<TraceEvent>,
    /// The next session to admit.
    next: usize,
    /// Sessions admitted and not yet closed.
    active: usize,
    closed: usize,
    peak: usize,
    /// Deliveries of every closed session: the admission trace's clock.
    clock: u64,
    /// Dedup of refusal events: one per delayed session, not one per pass.
    last_refused: Option<usize>,
}

impl<O> Coordinator<O> {
    fn new(sessions: usize, policy: Box<dyn AdmissionPolicy>, tracing: bool) -> Self {
        Coordinator {
            policy,
            tracing,
            reports: vec![None; sessions],
            outputs: (0..sessions).map(|_| Vec::new()).collect(),
            session_traces: vec![Vec::new(); sessions],
            admission_trace: Vec::new(),
            next: 0,
            active: 0,
            closed: 0,
            peak: 0,
            clock: 0,
            last_refused: None,
        }
    }

    /// Admits pending sessions while `room(next)` holds and the policy
    /// allows, with the liveness floor of one forced admission on an idle
    /// host; `push` hands an admitted index to its executor.  Returns
    /// `false` when a push failed.
    fn admit(&mut self, room: impl Fn(usize) -> bool, mut push: impl FnMut(usize) -> bool) -> bool {
        while self.next < self.reports.len() && room(self.next) {
            let verdict = self.policy.admit(self.active);
            let forced = !verdict && self.active == 0;
            if self.tracing && (verdict || forced || self.last_refused != Some(self.next)) {
                self.admission_trace.push(admission_event(
                    self.next,
                    verdict,
                    forced,
                    self.policy.token_state(),
                    self.active,
                    self.clock,
                ));
            }
            if !(verdict || forced) {
                self.last_refused = Some(self.next);
                break;
            }
            if !push(self.next) {
                return false;
            }
            self.next += 1;
            self.active += 1;
            self.peak = self.peak.max(self.active);
        }
        true
    }

    /// Files one closed session and ticks the policy clock by its
    /// deliveries.
    fn close(&mut self, (report, outputs, trace): ClosedSession<O>) {
        self.policy.on_deliveries(report.deliveries);
        self.policy.on_session_closed();
        self.clock += report.deliveries;
        self.active -= 1;
        self.closed += 1;
        let session = report.session;
        self.outputs[session] = outputs;
        self.session_traces[session] = trace;
        self.reports[session] = Some(report);
    }

    /// Sessions matching `filter` that never reported.
    fn unreported(&self, filter: impl Fn(usize) -> bool) -> Vec<usize> {
        (0..self.reports.len()).filter(|&i| filter(i) && self.reports[i].is_none()).collect()
    }

    fn finish(self, failures: Vec<WorkerFailure>) -> ShardedRunReport<O> {
        ShardedRunReport {
            sessions: self.reports.into_iter().flatten().collect(),
            outputs: self.outputs,
            peak_live_sessions: self.peak,
            failures,
            session_traces: self.session_traces,
            admission_trace: self.admission_trace,
        }
    }
}

/// Builds one host-level admission-decision event (no party context; the
/// clock is the deliveries of every session closed at decision time).
fn admission_event(
    session: usize,
    admitted: bool,
    forced: bool,
    tokens: Option<u64>,
    live: usize,
    clock: u64,
) -> TraceEvent {
    TraceEvent {
        party: NO_PARTY,
        clock,
        wall_ns: 0,
        cause: None,
        kind: EventKind::Admission {
            session: session as u32,
            admitted,
            forced,
            tokens,
            live: live as u32,
        },
    }
}

/// Runs session `index` to its close on the current thread: builds its
/// setup, applies the fault plan, runs the simulation within its budget
/// (under a fresh trace sink when `traced`), and snapshots its report,
/// outputs and trace stream.  The session's state is freed on return — a
/// completed session retains nothing.
fn run_session<M, O, F>(factory: &F, index: usize, shard: usize, traced: bool) -> ClosedSession<O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug,
    F: SessionFactory<M, O>,
{
    let setup = factory.build(index);
    let mut sim = Simulation::new(setup.parties, setup.scheduler);
    setup.faults.apply(&mut sim);
    if traced {
        setupfree_obs::install(Box::new(VecSink::new()));
    }
    let run = sim.run(setup.budget);
    let trace = if traced {
        setupfree_obs::uninstall().map(|mut sink| sink.drain()).unwrap_or_default()
    } else {
        Vec::new()
    };
    let m = sim.metrics();
    debug_assert_eq!(run.deliveries, m.delivered_messages, "budget units must be deliveries");
    let metrics = SessionMetrics {
        sent: m.honest_messages + m.byzantine_messages,
        honest_messages: m.honest_messages,
        honest_bytes: m.honest_bytes,
        delivered: m.delivered_messages,
        purged: m.purged_messages,
        in_flight: sim.in_flight() as u64,
        rounds: m.rounds_to_all_outputs(),
    };
    (
        SessionReport { session: index, shard, reason: run.reason, deliveries: run.deliveries, metrics },
        sim.outputs(),
        trace,
    )
}
