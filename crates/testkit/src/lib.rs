//! Deterministic adversarial test harness for the `setupfree` workspace.
//!
//! Every integration test in the workspace answers the same three questions
//! about a protocol ensemble: does it **terminate** under adversarial
//! scheduling, do the honest parties **agree**, and is the common output
//! **valid**?  Asynchronous-BA correctness arguments quantify over *all*
//! message schedules and fault patterns, so a test that runs one FIFO
//! execution checks almost nothing.  This crate makes the quantifier
//! explicit and cheap:
//!
//! * [`Adversary`] — a seeded, reproducible description of one delivery
//!   schedule (FIFO, uniformly random, targeted delay of a victim set, or a
//!   half/half partition), instantiable into a
//!   [`Scheduler`](setupfree_net::Scheduler);
//! * [`Ensemble`] — a set of [`BoxedParty`] state machines plus a
//!   [`FaultPlan`] (silent Byzantine parties, mid-run crashes via
//!   [`CrashAfter`](setupfree_net::CrashAfter), pre-run crashes);
//! * [`sweep`] — builds a fresh ensemble per adversary, runs each to
//!   completion, and returns one [`SweepRun`] per schedule;
//! * [`SweepRun`] — uniform assertions: [`SweepRun::assert_termination`],
//!   [`SweepRun::assert_agreement`], [`SweepRun::assert_validity`].
//!
//! Everything is deterministic: an `(Adversary, ensemble seed)` pair fully
//! determines the execution, so a failure message names the schedule that
//! produced it and re-running reproduces it exactly.
//!
//! # Example
//!
//! ```
//! use setupfree_net::{BoxedParty, PartyId, ProtocolInstance, Step};
//! use setupfree_testkit::{sweep, Adversary, Ensemble};
//!
//! // A toy protocol: multicast once, output after hearing 3 parties.
//! #[derive(Debug)]
//! struct Echo(std::collections::BTreeSet<usize>, Option<usize>);
//! impl ProtocolInstance for Echo {
//!     type Message = u8;
//!     type Output = usize;
//!     fn on_activation(&mut self) -> Step<u8> { Step::multicast(1) }
//!     fn on_message(&mut self, from: PartyId, _m: u8) -> Step<u8> {
//!         self.0.insert(from.index());
//!         if self.0.len() >= 3 { self.1 = Some(3); }
//!         Step::none()
//!     }
//!     fn output(&self) -> Option<usize> { self.1 }
//! }
//!
//! let runs = sweep(&Adversary::standard_sweep(4, 3), 10_000, |_adv| {
//!     Ensemble::new(
//!         (0..4)
//!             .map(|_| Box::new(Echo(Default::default(), None)) as BoxedParty<u8, usize>)
//!             .collect(),
//!     )
//! });
//! for run in &runs {
//!     run.assert_termination();
//!     run.assert_agreement();
//!     run.assert_validity(|&v| v == 3);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use setupfree_net::{
    BoxedParty, FaultPlan, FifoScheduler, Metrics, ObsPath, PartitionScheduler, PartyId,
    RandomScheduler, RunReport, Scheduler, SessionPartitionScheduler,
    SessionTargetedDelayScheduler, Simulation, StopReason, TargetedDelayScheduler,
};

/// One reproducible adversarial delivery schedule.
///
/// An `Adversary` is *data*, not a live scheduler, so sweeps can print which
/// schedule failed and re-instantiate it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Adversary {
    /// Deliver messages in the order they were sent.
    Fifo,
    /// Deliver a uniformly random pending message (seeded, reproducible) —
    /// the standard oblivious asynchronous adversary.
    Random {
        /// Scheduler seed.
        seed: u64,
    },
    /// Worst-case reordering against a victim set: every message from or to
    /// a target is delayed as long as any other message is pending.
    TargetedDelay {
        /// The starved parties (by index).
        targets: Vec<usize>,
        /// Scheduler seed for tie-breaking.
        seed: u64,
    },
    /// Deliver all intra-half traffic before any cross-half traffic,
    /// approximating a long (but eventually healing) network partition.
    Partition {
        /// Parties with index `< boundary` form one side.
        boundary: usize,
        /// Scheduler seed for tie-breaking.
        seed: u64,
    },
    /// Starve a single **session** of a concurrent-session workload: every
    /// message of the target session is delayed as long as any other message
    /// is pending.  Requires the ensemble to install a path classifier
    /// ([`Ensemble::with_path_of`]) — without one no message carries a
    /// session and the schedule degenerates to uniform random.
    SessionTargetedDelay {
        /// The starved session index.
        session: u16,
        /// Scheduler seed for tie-breaking.
        seed: u64,
    },
    /// Starve the trailing **group of sessions**: all traffic of sessions
    /// `< boundary` is delivered before any traffic of the rest.
    SessionPartition {
        /// Sessions with index `< boundary` form the preferred group.
        boundary: u16,
        /// Scheduler seed for tie-breaking.
        seed: u64,
    },
}

impl Adversary {
    /// Instantiates the described scheduler.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        match self {
            Adversary::Fifo => Box::new(FifoScheduler::default()),
            Adversary::Random { seed } => Box::new(RandomScheduler::new(*seed)),
            Adversary::TargetedDelay { targets, seed } => Box::new(TargetedDelayScheduler::new(
                targets.iter().map(|&i| PartyId(i)).collect(),
                *seed,
            )),
            Adversary::Partition { boundary, seed } => {
                Box::new(PartitionScheduler::new(*boundary, *seed))
            }
            Adversary::SessionTargetedDelay { session, seed } => {
                Box::new(SessionTargetedDelayScheduler::new(*session, *seed))
            }
            Adversary::SessionPartition { boundary, seed } => {
                Box::new(SessionPartitionScheduler::new(*boundary, *seed))
            }
        }
    }

    /// The standard sweep every protocol should survive: FIFO, `seeds`
    /// distinct random schedules, a targeted delay against party 0, and a
    /// half/half partition of the `n` parties.
    pub fn standard_sweep(n: usize, seeds: u64) -> Vec<Adversary> {
        let mut sweep = vec![Adversary::Fifo];
        sweep.extend((0..seeds).map(|seed| Adversary::Random { seed }));
        sweep.push(Adversary::TargetedDelay { targets: vec![0], seed: 0xadd });
        sweep.push(Adversary::Partition { boundary: n / 2, seed: 0xcafe });
        sweep
    }

    /// `seeds` distinct random-delivery schedules only (the cheapest useful
    /// sweep, for expensive full-stack ensembles).
    pub fn random_sweep(seeds: u64) -> Vec<Adversary> {
        (0..seeds).map(|seed| Adversary::Random { seed }).collect()
    }

    /// The sweep for committee-subsampled protocols: FIFO, `seeds` random
    /// schedules, a targeted-delay starvation of the first committee
    /// **member** (the schedule most likely to break a member-quorum
    /// protocol), a starvation of the first **listener** (must not matter —
    /// listeners send nothing), and a half/half partition of all `n`
    /// parties (which also splits the committee, since members are spread
    /// across the index space).
    pub fn committee_sweep(n: usize, members: &[usize], seeds: u64) -> Vec<Adversary> {
        let mut sweep = vec![Adversary::Fifo];
        sweep.extend((0..seeds).map(|seed| Adversary::Random { seed }));
        if let Some(&member) = members.first() {
            sweep.push(Adversary::TargetedDelay { targets: vec![member], seed: 0xc0 });
        }
        if let Some(listener) = (0..n).find(|i| !members.contains(i)) {
            sweep.push(Adversary::TargetedDelay { targets: vec![listener], seed: 0xc1 });
        }
        sweep.push(Adversary::Partition { boundary: n / 2, seed: 0xc2 });
        sweep
    }

    /// The per-session fairness sweep for a `k`-session concurrent workload:
    /// `seeds` random schedules, a targeted starvation of session 0, and a
    /// partition starving the trailing half of the sessions.  Ensembles run
    /// under it must install a path classifier
    /// ([`Ensemble::with_path_of`]).
    pub fn session_sweep(k: u16, seeds: u64) -> Vec<Adversary> {
        let mut sweep: Vec<Adversary> =
            (0..seeds).map(|seed| Adversary::Random { seed }).collect();
        sweep.push(Adversary::SessionTargetedDelay { session: 0, seed: 0x5e5 });
        sweep.push(Adversary::SessionPartition { boundary: k.div_ceil(2), seed: 0x5e6 });
        sweep
    }
}

impl fmt::Display for Adversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Adversary::Fifo => write!(f, "fifo"),
            Adversary::Random { seed } => write!(f, "random(seed={seed})"),
            Adversary::TargetedDelay { targets, seed } => {
                write!(f, "targeted-delay(targets={targets:?}, seed={seed})")
            }
            Adversary::Partition { boundary, seed } => {
                write!(f, "partition(boundary={boundary}, seed={seed})")
            }
            Adversary::SessionTargetedDelay { session, seed } => {
                write!(f, "session-targeted-delay(session={session}, seed={seed})")
            }
            Adversary::SessionPartition { boundary, seed } => {
                write!(f, "session-partition(boundary={boundary}, seed={seed})")
            }
        }
    }
}

/// A set of party state machines plus the fault plan to apply to them.
///
/// Index `i` of `parties` is party `P_i`.  Faults compose: a party can be
/// replaced by a silent machine, wrapped in a mid-run crash, or crashed
/// before the run starts.
pub struct Ensemble<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + 'static,
{
    parties: Vec<BoxedParty<M, O>>,
    faults: FaultPlan,
    path_of: Option<fn(&M) -> ObsPath>,
}

impl<M, O> Ensemble<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + 'static,
{
    /// An all-honest ensemble.
    pub fn new(parties: Vec<BoxedParty<M, O>>) -> Self {
        Ensemble { parties, faults: FaultPlan::default(), path_of: None }
    }

    /// Installs a path classifier on the simulation (see
    /// [`Simulation::set_path_of`]): per-session counters appear in the
    /// run's [`Metrics`] — with their conservation law asserted by [`sweep`]
    /// — and the session-aware adversaries
    /// ([`Adversary::SessionTargetedDelay`], [`Adversary::SessionPartition`])
    /// see which session each message belongs to.  Concurrent-session
    /// ensembles (`SessionHost` workloads) pass
    /// [`setupfree_net::envelope_path`].
    pub fn with_path_of(mut self, f: fn(&M) -> ObsPath) -> Self {
        self.path_of = Some(f);
        self
    }

    /// Builds an all-honest ensemble from a per-party constructor.
    pub fn build(n: usize, mut make: impl FnMut(PartyId) -> BoxedParty<M, O>) -> Self {
        Ensemble::new((0..n).map(|i| make(PartyId(i))).collect())
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.parties.len()
    }

    /// Replaces party `i` with a fully silent Byzantine machine.
    pub fn silence(mut self, i: usize) -> Self {
        self.faults.silence(&mut self.parties, i);
        self
    }

    /// Marks party `i` Byzantine without changing its machine (used when the
    /// caller installed a custom adversarial implementation).
    pub fn mark_byzantine(mut self, i: usize) -> Self {
        self.faults.mark_byzantine(i);
        self
    }

    /// Wraps party `i` so it crashes (goes permanently silent) after
    /// `activations` deliveries — the mid-run crash fault of
    /// [`setupfree_net::faults`].  The party stays *honest*: its pre-crash
    /// traffic is charged to the honest communication complexity and its
    /// output (if it produces one before crashing) participates in the
    /// agreement quantifier; only termination stops awaiting it.
    pub fn crash_after(mut self, i: usize, activations: usize) -> Self {
        self.faults.crash_after(&mut self.parties, i, activations);
        self
    }

    /// Crashes party `i` before the run starts (it never activates).
    pub fn crash_at_start(mut self, i: usize) -> Self {
        self.faults.crash_at_start(i);
        self
    }

    fn into_simulation(self, adversary: &Adversary) -> (Simulation<M, O>, Vec<bool>, Vec<bool>) {
        let n = self.parties.len();
        let mut sim = Simulation::new(self.parties, adversary.scheduler());
        if let Some(f) = self.path_of {
            sim.set_path_of(f);
        }
        self.faults.apply(&mut sim);
        (sim, self.faults.honest(n), self.faults.awaited(n))
    }
}

/// The outcome of one ensemble execution under one adversary.
#[derive(Debug, Clone)]
pub struct SweepRun<O> {
    /// The schedule this run executed under.
    pub adversary: Adversary,
    /// Why the simulation stopped and how many deliveries it took.
    pub report: RunReport,
    /// Every party's final output (by party index).
    pub outputs: Vec<Option<O>>,
    /// `honest[i]` is `false` for parties the fault plan removed from the
    /// agreement/validity quantifiers (Byzantine or crashed at start).
    /// Crash-faulty parties stay honest: if one outputs before crashing,
    /// that output must agree.
    pub honest: Vec<bool>,
    /// `awaited[i]` is `false` for parties the termination quantifier does
    /// not wait for (Byzantine, crashed, or honest-but-crash-faulty).
    pub awaited: Vec<bool>,
    /// The paper's three performance metrics for this run (communication,
    /// messages, asynchronous rounds).
    pub metrics: Metrics,
}

impl<O: Clone + fmt::Debug> SweepRun<O> {
    /// The outputs of the honest parties that produced one.
    pub fn honest_outputs(&self) -> Vec<O> {
        self.outputs
            .iter()
            .zip(&self.honest)
            .filter(|(_, &h)| h)
            .filter_map(|(o, _)| o.clone())
            .collect()
    }

    /// Asserts **termination**: the run stopped because every honest party
    /// produced an output (not by budget exhaustion or quiescence).
    pub fn assert_termination(&self) {
        assert_eq!(
            self.report.reason,
            StopReason::AllOutputs,
            "termination violated under {}: {:?} after {} deliveries",
            self.adversary,
            self.report.reason,
            self.report.deliveries
        );
        let missing: Vec<usize> = self
            .outputs
            .iter()
            .zip(&self.awaited)
            .enumerate()
            .filter(|(_, (o, &awaited))| awaited && o.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(
            missing.is_empty(),
            "termination violated under {}: honest parties {missing:?} have no output",
            self.adversary
        );
    }

    /// Asserts **agreement**: all honest outputs are pairwise equal.
    pub fn assert_agreement(&self)
    where
        O: PartialEq,
    {
        let outs = self.honest_outputs();
        for (i, pair) in outs.windows(2).enumerate() {
            assert!(
                pair[0] == pair[1],
                "agreement violated under {}: honest output {i} = {:?} but {} = {:?}",
                self.adversary,
                pair[0],
                i + 1,
                pair[1]
            );
        }
    }

    /// Asserts **validity**: every honest output satisfies the predicate.
    pub fn assert_validity(&self, valid: impl Fn(&O) -> bool) {
        for (i, out) in self.honest_outputs().iter().enumerate() {
            assert!(
                valid(out),
                "validity violated under {}: honest output {i} = {out:?}",
                self.adversary
            );
        }
    }

    /// Committee-aware termination + agreement: every awaited party —
    /// member and listener alike — produced an output, all honest outputs
    /// are pairwise equal, **and** at least one honest *member* decided.
    /// The last clause keeps the assertion non-vacuous: listeners only
    /// adopt, so a run where no member decided could not have terminated
    /// for a legitimate reason.
    pub fn assert_committee_agreement(&self, members: &[usize])
    where
        O: PartialEq,
    {
        self.assert_termination();
        self.assert_agreement();
        let member_decided =
            members.iter().any(|&i| self.honest[i] && self.outputs[i].is_some());
        assert!(
            member_decided,
            "no honest committee member decided under {}",
            self.adversary
        );
    }

    /// The first honest output (panics if there is none — call
    /// [`Self::assert_termination`] first).
    pub fn first_output(&self) -> O {
        self.honest_outputs()
            .into_iter()
            .next()
            .unwrap_or_else(|| panic!("no honest output under {}", self.adversary))
    }
}

/// Runs a freshly built ensemble under every adversary in the sweep.
///
/// `make` is called once per adversary so each run starts from fresh state
/// machines; the adversary is passed in so ensembles can derive
/// schedule-distinct session identifiers if they want distinct randomness.
pub fn sweep<M, O>(
    adversaries: &[Adversary],
    budget: u64,
    mut make: impl FnMut(&Adversary) -> Ensemble<M, O>,
) -> Vec<SweepRun<O>>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + 'static,
{
    adversaries
        .iter()
        .map(|adversary| {
            let (mut sim, honest, awaited) = make(adversary).into_simulation(adversary);
            let report = sim.run(budget);
            // Budget reconciliation: the delivery engine purges traffic to
            // crashed parties, so every consumed budget unit must be an
            // actual delivery.  Enforced here so every harness user checks
            // it on every run for free.
            assert_eq!(
                report.deliveries,
                sim.metrics().delivered_messages,
                "budget/delivery mismatch under {adversary}: the engine burned budget on \
                 undeliverable messages"
            );
            // Per-session conservation: for every session the classifier
            // attributed traffic to, sent = delivered + purged + in-flight,
            // and the per-session counters sum to the aggregate.  Trivially
            // true for ensembles without a classifier, checked on every
            // concurrent-session sweep for free.
            assert_eq!(
                sim.metrics().session_conservation_violation(),
                None,
                "per-session accounting books do not balance under {adversary}"
            );
            SweepRun {
                adversary: adversary.clone(),
                report,
                outputs: sim.outputs(),
                honest,
                awaited,
                metrics: sim.metrics().clone(),
            }
        })
        .collect()
}

/// [`sweep`] + [`SweepRun::assert_termination`] + [`SweepRun::assert_agreement`]
/// in one call — the common case for agreement protocols.  Returns the runs
/// for further protocol-specific checks.
pub fn assert_agreement_sweep<M, O>(
    adversaries: &[Adversary],
    budget: u64,
    make: impl FnMut(&Adversary) -> Ensemble<M, O>,
) -> Vec<SweepRun<O>>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + fmt::Debug + 'static,
    O: Clone + fmt::Debug + PartialEq + 'static,
{
    let runs = sweep(adversaries, budget, make);
    for run in &runs {
        run.assert_termination();
        run.assert_agreement();
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_net::{ProtocolInstance, Step};

    /// Toy quorum protocol: output after hearing from `quorum` parties.
    #[derive(Debug)]
    struct Echo {
        quorum: usize,
        heard: std::collections::BTreeSet<usize>,
        output: Option<usize>,
    }

    impl Echo {
        fn boxed(quorum: usize) -> BoxedParty<u64, usize> {
            Box::new(Echo { quorum, heard: Default::default(), output: None })
        }
    }

    impl ProtocolInstance for Echo {
        type Message = u64;
        type Output = usize;

        fn on_activation(&mut self) -> Step<u64> {
            Step::multicast(1)
        }

        fn on_message(&mut self, from: PartyId, _msg: u64) -> Step<u64> {
            self.heard.insert(from.index());
            if self.heard.len() >= self.quorum && self.output.is_none() {
                self.output = Some(self.quorum);
            }
            Step::none()
        }

        fn output(&self) -> Option<usize> {
            self.output
        }
    }

    #[test]
    fn standard_sweep_covers_all_adversary_kinds() {
        let sweep = Adversary::standard_sweep(4, 3);
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0], Adversary::Fifo);
        assert!(matches!(sweep[1], Adversary::Random { seed: 0 }));
        assert!(matches!(sweep[4], Adversary::TargetedDelay { .. }));
        assert!(matches!(sweep[5], Adversary::Partition { boundary: 2, .. }));
    }

    #[test]
    fn committee_sweep_targets_a_member_and_a_listener() {
        let sweep = Adversary::committee_sweep(10, &[2, 5, 9], 2);
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0], Adversary::Fifo);
        // Starves member 2, then listener 0 (first non-member index).
        assert_eq!(sweep[3], Adversary::TargetedDelay { targets: vec![2], seed: 0xc0 });
        assert_eq!(sweep[4], Adversary::TargetedDelay { targets: vec![0], seed: 0xc1 });
        assert!(matches!(sweep[5], Adversary::Partition { boundary: 5, .. }));
    }

    #[test]
    fn honest_ensemble_passes_all_invariants() {
        let runs = assert_agreement_sweep(&Adversary::standard_sweep(4, 3), 10_000, |_| {
            Ensemble::build(4, |_| Echo::boxed(3))
        });
        for run in &runs {
            run.assert_validity(|&v| v == 3);
            assert_eq!(run.first_output(), 3);
        }
    }

    #[test]
    fn silent_party_is_excluded_from_the_quantifiers() {
        let runs = sweep(&Adversary::standard_sweep(4, 2), 10_000, |_| {
            Ensemble::build(4, |_| Echo::boxed(3)).silence(1)
        });
        for run in &runs {
            run.assert_termination();
            run.assert_agreement();
            assert_eq!(run.honest_outputs().len(), 3);
            assert!(run.outputs[1].is_none());
        }
    }

    #[test]
    fn crash_after_goes_silent_mid_run() {
        // With quorum 3 of 4 and one party crashing after its first two
        // deliveries, the remaining three parties still hear three senders
        // (the crasher's activation multicast was already in flight).
        let runs = sweep(&[Adversary::Fifo, Adversary::Random { seed: 1 }], 10_000, |_| {
            Ensemble::build(4, |_| Echo::boxed(3)).crash_after(0, 2)
        });
        for run in &runs {
            run.assert_termination();
            assert_eq!(run.honest_outputs().len(), 3);
        }
    }

    #[test]
    fn crash_at_start_party_never_speaks() {
        let runs = sweep(&[Adversary::Fifo], 10_000, |_| {
            Ensemble::build(4, |_| Echo::boxed(3)).crash_at_start(2)
        });
        runs[0].assert_termination();
        assert!(runs[0].outputs[2].is_none());
        // The three live parties' copies to the crashed party are charged
        // to the senders but purged by the engine, never delivered — and
        // the budget books balance exactly (also asserted inside `sweep`).
        assert_eq!(runs[0].metrics.purged_messages, 3);
        assert_eq!(runs[0].report.deliveries, runs[0].metrics.delivered_messages);
        assert_eq!(runs[0].metrics.honest_messages, 12);
    }

    #[test]
    #[should_panic(expected = "termination violated")]
    fn starved_quorum_fails_termination_with_schedule_in_message() {
        // Quorum of 4 with one silent party can never complete.
        let runs = sweep(&[Adversary::Random { seed: 3 }], 10_000, |_| {
            Ensemble::build(4, |_| Echo::boxed(4)).silence(0)
        });
        runs[0].assert_termination();
    }

    #[test]
    fn runs_are_deterministic_per_adversary() {
        let run_once = || {
            let runs = sweep(&[Adversary::Random { seed: 9 }], 10_000, |_| {
                Ensemble::build(7, |_| Echo::boxed(5))
            });
            runs[0].report.deliveries
        };
        assert_eq!(run_once(), run_once());
    }
}
