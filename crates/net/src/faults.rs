//! Generic Byzantine / crash fault wrappers, and the fault plan that
//! applies them to a simulation.
//!
//! Protocol-specific attacks (equivocating AVSS dealers, silent Seeding
//! leaders, lying WCS participants, …) live next to the protocols they
//! attack; this module provides the behaviour-agnostic faults every protocol
//! is tested against.

use crate::party::PartyId;
use crate::protocol::{ProtocolInstance, Step};
use crate::sim::{BoxedParty, Simulation};

/// Which parties of one run are faulty, and how.  Three kinds, each with
/// its own accounting rule:
///
/// * **Byzantine** ([`FaultPlan::silence`], [`FaultPlan::mark_byzantine`]):
///   traffic not charged to the honest complexity, not awaited for
///   termination, outside the agreement quantifier;
/// * **crash-faulty** ([`FaultPlan::crash_after`]): honest until it goes
///   silent mid-run — its traffic is charged and a pre-crash output joins
///   the agreement quantifier, but it is not awaited;
/// * **crashed at start** ([`FaultPlan::crash_at_start`]): never activates,
///   and traffic to it is purged.
///
/// The plan is data until [`FaultPlan::apply`] marks the parties on a
/// [`Simulation`], so the test harness and the sharded runtime share one
/// reading of each fault.
#[derive(Debug, Default)]
pub struct FaultPlan {
    byzantine: Vec<usize>,
    crash_faulty: Vec<usize>,
    crashed_at_start: Vec<usize>,
}

impl FaultPlan {
    /// Replaces party `i` with a fully silent Byzantine machine.
    pub fn silence<M, O>(&mut self, parties: &mut [BoxedParty<M, O>], i: usize)
    where
        M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
        O: Clone + std::fmt::Debug + 'static,
    {
        parties[i] = Box::new(SilentParty::new());
        self.byzantine.push(i);
    }

    /// Marks party `i` Byzantine without changing its machine (for callers
    /// that installed a custom adversarial implementation).
    pub fn mark_byzantine(&mut self, i: usize) {
        self.byzantine.push(i);
    }

    /// Wraps party `i` in [`CrashAfter`] so it goes permanently silent after
    /// `activations` deliveries, and marks it crash-faulty.
    pub fn crash_after<M, O>(&mut self, parties: &mut [BoxedParty<M, O>], i: usize, activations: usize)
    where
        M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
        O: Clone + std::fmt::Debug + 'static,
    {
        let machine = std::mem::replace(&mut parties[i], Box::new(SilentParty::new()));
        parties[i] = Box::new(CrashAfter::new(machine, activations));
        self.crash_faulty.push(i);
    }

    /// Crashes party `i` before the run starts (it never activates).
    pub fn crash_at_start(&mut self, i: usize) {
        self.crashed_at_start.push(i);
    }

    /// Marks every planned fault on `sim`.  Call before activation: a party
    /// crashed at start must never activate.
    pub fn apply<M, O>(&self, sim: &mut Simulation<M, O>)
    where
        M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
        O: Clone + std::fmt::Debug,
    {
        for &i in &self.byzantine {
            sim.mark_byzantine(PartyId(i));
        }
        for &i in &self.crash_faulty {
            sim.mark_crash_faulty(PartyId(i));
        }
        for &i in &self.crashed_at_start {
            sim.crash(PartyId(i));
        }
    }

    /// `honest[i]` is `false` for the parties outside the agreement and
    /// validity quantifiers: Byzantine or crashed at start.
    pub fn honest(&self, n: usize) -> Vec<bool> {
        let mut honest = vec![true; n];
        for &i in self.byzantine.iter().chain(&self.crashed_at_start) {
            honest[i] = false;
        }
        honest
    }

    /// `awaited[i]` is `false` for the parties termination does not wait
    /// for: every faulty party, crash-faulty ones included.
    pub fn awaited(&self, n: usize) -> Vec<bool> {
        let mut awaited = vec![true; n];
        for &i in self.byzantine.iter().chain(&self.crash_faulty).chain(&self.crashed_at_start) {
            awaited[i] = false;
        }
        awaited
    }
}

/// A party that never sends anything (a crash fault present from the start,
/// or equivalently a fully silent Byzantine party).
#[derive(Debug, Default)]
pub struct SilentParty<M, O> {
    _marker: std::marker::PhantomData<(M, O)>,
}

impl<M, O> SilentParty<M, O> {
    /// Creates a silent party.
    pub fn new() -> Self {
        SilentParty { _marker: std::marker::PhantomData }
    }
}

impl<M, O> ProtocolInstance for SilentParty<M, O>
where
    M: setupfree_wire::Encode + setupfree_wire::Decode + Clone + std::fmt::Debug + 'static,
    O: Clone + std::fmt::Debug,
{
    type Message = M;
    type Output = O;

    fn on_activation(&mut self) -> Step<M> {
        Step::none()
    }

    fn on_message(&mut self, _from: PartyId, _msg: M) -> Step<M> {
        Step::none()
    }

    fn output(&self) -> Option<O> {
        None
    }
}

/// Wraps an honest implementation but crashes it (goes permanently silent)
/// after a fixed number of activations — modelling a mid-protocol crash.
#[derive(Debug)]
pub struct CrashAfter<P> {
    inner: P,
    remaining: usize,
}

impl<P> CrashAfter<P> {
    /// Crashes after `activations` message deliveries (the activation itself
    /// counts as one).
    pub fn new(inner: P, activations: usize) -> Self {
        CrashAfter { inner, remaining: activations }
    }
}

impl<P: ProtocolInstance> ProtocolInstance for CrashAfter<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn on_activation(&mut self) -> Step<Self::Message> {
        if self.remaining == 0 {
            return Step::none();
        }
        self.remaining -= 1;
        self.inner.on_activation()
    }

    fn on_message(&mut self, from: PartyId, msg: Self::Message) -> Step<Self::Message> {
        if self.remaining == 0 {
            return Step::none();
        }
        self.remaining -= 1;
        self.inner.on_message(from, msg)
    }

    fn output(&self) -> Option<Self::Output> {
        // A crashed party never reports output (it may have produced one
        // internally, but the simulator treats it as gone).
        if self.remaining == 0 {
            None
        } else {
            self.inner.output()
        }
    }

    fn pre_activation_stats(&self) -> crate::mux::BufferStats {
        self.inner.pre_activation_stats()
    }
}

/// Wraps an honest implementation and duplicates every outgoing message —
/// a crude "spamming" Byzantine behaviour that checks protocols are robust
/// to duplicate delivery (all handlers must be idempotent on the
/// "first time" pattern of the paper's pseudocode).
#[derive(Debug)]
pub struct DuplicatingParty<P> {
    inner: P,
}

impl<P> DuplicatingParty<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        DuplicatingParty { inner }
    }
}

impl<P: ProtocolInstance> ProtocolInstance for DuplicatingParty<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn on_activation(&mut self) -> Step<Self::Message> {
        duplicate(self.inner.on_activation())
    }

    fn on_message(&mut self, from: PartyId, msg: Self::Message) -> Step<Self::Message> {
        duplicate(self.inner.on_message(from, msg))
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }

    fn pre_activation_stats(&self) -> crate::mux::BufferStats {
        self.inner.pre_activation_stats()
    }
}

fn duplicate<M: Clone>(step: Step<M>) -> Step<M> {
    let mut out = Step::none();
    for o in step.outgoing {
        out.outgoing.push(o.clone());
        out.outgoing.push(o);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Dest;

    #[derive(Debug)]
    struct Chatty;

    impl ProtocolInstance for Chatty {
        type Message = u8;
        type Output = u8;
        fn on_activation(&mut self) -> Step<u8> {
            Step::multicast(1)
        }
        fn on_message(&mut self, _from: PartyId, m: u8) -> Step<u8> {
            Step::multicast(m + 1)
        }
        fn output(&self) -> Option<u8> {
            Some(9)
        }
    }

    #[test]
    fn silent_party_says_nothing() {
        let mut p: SilentParty<u8, u8> = SilentParty::new();
        assert!(p.on_activation().is_empty());
        assert!(p.on_message(PartyId(0), 1).is_empty());
        assert!(p.output().is_none());
    }

    #[test]
    fn crash_after_limits_activity() {
        let mut p = CrashAfter::new(Chatty, 2);
        assert!(!p.on_activation().is_empty());
        assert!(!p.on_message(PartyId(0), 1).is_empty());
        assert!(p.on_message(PartyId(0), 2).is_empty());
        assert!(p.output().is_none());
    }

    #[test]
    fn fault_plan_quantifiers_follow_the_fault_kind() {
        let mut parties: Vec<BoxedParty<u8, u8>> = (0..4).map(|_| Box::new(Chatty) as _).collect();
        let mut plan = FaultPlan::default();
        plan.silence(&mut parties, 0);
        plan.crash_after(&mut parties, 1, 1);
        plan.crash_at_start(2);
        assert_eq!(plan.honest(4), vec![false, true, false, true]);
        assert_eq!(plan.awaited(4), vec![false, false, false, true]);
        assert!(parties[0].output().is_none(), "a silenced party is a silent machine");
    }

    #[test]
    fn duplicating_party_doubles_traffic() {
        let mut p = DuplicatingParty::new(Chatty);
        let step = p.on_activation();
        assert_eq!(step.outgoing.len(), 2);
        assert_eq!(step.outgoing[0].dest, Dest::All);
        assert_eq!(p.output(), Some(9));
    }
}
