//! Quantitative performance metrics (§3 of the paper):
//! communication complexity (bits exchanged among honest parties), message
//! complexity, and asynchronous rounds (the causal-depth / virtual-round
//! measure of Canetti–Rabin).

use crate::party::PartyId;

/// Counters collected by the simulator for one protocol execution.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Messages sent by honest parties.
    pub honest_messages: u64,
    /// Total bytes of messages sent by honest parties (exact wire encoding).
    pub honest_bytes: u64,
    /// Messages sent by corrupted parties (not charged to the protocol, but
    /// useful for debugging adversaries).
    pub byzantine_messages: u64,
    /// Messages actually delivered.
    pub delivered_messages: u64,
    /// Messages purged undelivered because their receiver crashed (dropped
    /// at send time or withdrawn from flight when the receiver crashed).
    /// `sent == delivered + purged + still-in-flight` at every point.
    pub purged_messages: u64,
    /// Per-party bytes sent (indexed by party id), honest and corrupted.
    pub per_party_bytes: Vec<u64>,
    /// Per-party messages sent.
    pub per_party_messages: Vec<u64>,
    /// Causal depth ("asynchronous rounds") at which each party produced its
    /// output; `None` if it never did.
    pub output_rounds: Vec<Option<u64>>,
    /// Parties excluded from the round metric (Byzantine or crashed): they
    /// are not expected to ever produce an output.
    pub excluded: Vec<bool>,
    /// Maximum causal depth reached by any delivered message.
    pub max_depth: u64,
    /// Pre-activation envelopes still buffered inside the parties' routers
    /// when the run stopped (occupancy; see
    /// [`PreActivationBuffer`](crate::mux::PreActivationBuffer)).  Polled
    /// from the party state machines at the end of a run.
    pub pre_activation_buffered: u64,
    /// Pre-activation envelopes dropped by the routers' per-sender caps,
    /// duplicate filters, or retirement tombstones over the whole run.
    pub pre_activation_dropped: u64,
    /// Per-session messages sent (indexed by the leading session segment),
    /// recorded only when the simulation has a path classifier installed
    /// ([`Simulation::set_path_of`](crate::sim::Simulation::set_path_of)).
    pub session_sent: Vec<u64>,
    /// Per-session messages delivered.
    pub session_delivered: Vec<u64>,
    /// Per-session messages purged (receiver crashed).
    pub session_purged: Vec<u64>,
    /// Per-session messages currently in flight.
    pub session_in_flight: Vec<u64>,
    /// Messages the session classifier could not attribute (no leading
    /// session segment).  `Σ session_sent + unclassified_sent` equals the
    /// total sent count whenever a classifier is installed.
    pub unclassified_sent: u64,
}

impl Metrics {
    /// Creates zeroed metrics for `n` parties.
    pub fn new(n: usize) -> Self {
        Metrics {
            per_party_bytes: vec![0; n],
            per_party_messages: vec![0; n],
            output_rounds: vec![None; n],
            excluded: vec![false; n],
            ..Default::default()
        }
    }

    /// Excludes a party (Byzantine or crashed) from the round metric.
    pub fn exclude(&mut self, party: PartyId) {
        if let Some(e) = self.excluded.get_mut(party.index()) {
            *e = true;
        }
    }

    /// Records that `sender` sent a message of `bytes` bytes.
    pub fn record_send(&mut self, sender: PartyId, bytes: usize, honest: bool) {
        if honest {
            self.honest_messages += 1;
            self.honest_bytes += bytes as u64;
        } else {
            self.byzantine_messages += 1;
        }
        if let Some(b) = self.per_party_bytes.get_mut(sender.index()) {
            *b += bytes as u64;
        }
        if let Some(m) = self.per_party_messages.get_mut(sender.index()) {
            *m += 1;
        }
    }

    /// Records a delivery at the given causal depth.
    pub fn record_delivery(&mut self, depth: u64) {
        self.delivered_messages += 1;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Records a message that left the network undelivered (receiver
    /// crashed).
    pub fn record_purge(&mut self) {
        self.purged_messages += 1;
    }

    /// Records the causal depth at which a party first produced output.
    pub fn record_output(&mut self, party: PartyId, depth: u64) {
        if let Some(slot) = self.output_rounds.get_mut(party.index()) {
            if slot.is_none() {
                *slot = Some(depth);
            }
        }
    }

    /// The asynchronous-round count of the execution: the largest causal
    /// depth at which an honest party produced its output.  `None` if some
    /// honest (non-excluded) party has not output yet.  Excluded parties'
    /// outputs are ignored entirely — an adversarial machine must not be
    /// able to inflate the honest round count.
    pub fn rounds_to_all_outputs(&self) -> Option<u64> {
        let mut max = None;
        for (i, r) in self.output_rounds.iter().enumerate() {
            if self.excluded.get(i).copied().unwrap_or(false) {
                continue;
            }
            match r {
                Some(d) => max = Some(max.unwrap_or(0).max(*d)),
                None => return None,
            }
        }
        // `None` when no party is measurable (all excluded): there is no
        // honest execution to report a round count for.
        max
    }

    /// Communication in bits (the paper reports bits, the simulator counts
    /// bytes).
    pub fn honest_bits(&self) -> u64 {
        self.honest_bytes * 8
    }

    fn session_slot(vec: &mut Vec<u64>, session: u16) -> &mut u64 {
        let idx = session as usize;
        if vec.len() <= idx {
            vec.resize(idx + 1, 0);
        }
        &mut vec[idx]
    }

    /// Records a sent message copy attributed to `session` (`None` counts as
    /// unclassified).
    pub fn record_session_send(&mut self, session: Option<u16>) {
        match session {
            Some(s) => *Self::session_slot(&mut self.session_sent, s) += 1,
            None => self.unclassified_sent += 1,
        }
    }

    /// Records that a copy attributed to `session` entered the network.
    pub fn record_session_enqueue(&mut self, session: Option<u16>) {
        if let Some(s) = session {
            *Self::session_slot(&mut self.session_in_flight, s) += 1;
        }
    }

    /// Decrements a session's in-flight count, failing loudly on misuse (a
    /// delivery/withdrawal recorded without a matching enqueue) instead of
    /// panicking on an index or wrapping to 2⁶⁴−1 in release builds.
    fn session_in_flight_down(&mut self, session: u16) {
        let in_flight = Self::session_slot(&mut self.session_in_flight, session);
        debug_assert!(*in_flight > 0, "session {session} has nothing in flight to consume");
        *in_flight = in_flight.saturating_sub(1);
    }

    /// Records a delivery attributed to `session`.
    pub fn record_session_delivery(&mut self, session: Option<u16>) {
        if let Some(s) = session {
            *Self::session_slot(&mut self.session_delivered, s) += 1;
            self.session_in_flight_down(s);
        }
    }

    /// Records a purge attributed to `session`; `in_flight` is `true` when
    /// the copy was withdrawn from flight (receiver crashed mid-run) rather
    /// than dropped at send time.
    pub fn record_session_purge(&mut self, session: Option<u16>, in_flight: bool) {
        if let Some(s) = session {
            *Self::session_slot(&mut self.session_purged, s) += 1;
            if in_flight {
                self.session_in_flight_down(s);
            }
        }
    }

    /// Number of sessions the classifier has attributed traffic to.
    pub fn session_count(&self) -> usize {
        self.session_sent
            .len()
            .max(self.session_delivered.len())
            .max(self.session_purged.len())
            .max(self.session_in_flight.len())
    }

    /// Per-session counter at `session` (zero beyond the recorded range).
    fn at(vec: &[u64], session: usize) -> u64 {
        vec.get(session).copied().unwrap_or(0)
    }

    /// The per-session conservation law: for every session,
    /// `sent == delivered + purged + in-flight`, and the per-session counters
    /// plus the unclassified remainder sum to the aggregate counters.
    /// Returns the first violation found, or `None` when the books balance
    /// (trivially true when no classifier was installed).
    pub fn session_conservation_violation(&self) -> Option<SessionImbalance> {
        for s in 0..self.session_count() {
            let sent = Self::at(&self.session_sent, s);
            let delivered = Self::at(&self.session_delivered, s);
            let purged = Self::at(&self.session_purged, s);
            let in_flight = Self::at(&self.session_in_flight, s);
            if sent != delivered + purged + in_flight {
                return Some(SessionImbalance::Session(s));
            }
        }
        let total_sent: u64 = self.session_sent.iter().sum::<u64>() + self.unclassified_sent;
        if self.session_count() > 0
            && total_sent != self.honest_messages + self.byzantine_messages
        {
            return Some(SessionImbalance::Aggregate);
        }
        None
    }
}

/// A violation of the per-session conservation law (see
/// [`Metrics::session_conservation_violation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionImbalance {
    /// This session's `sent != delivered + purged + in-flight`.
    Session(usize),
    /// Every session balances individually, but the per-session sums plus
    /// the unclassified remainder do not add up to the aggregate counters.
    Aggregate,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new(3);
        m.record_send(PartyId(0), 10, true);
        m.record_send(PartyId(1), 20, true);
        m.record_send(PartyId(2), 99, false);
        assert_eq!(m.honest_messages, 2);
        assert_eq!(m.honest_bytes, 30);
        assert_eq!(m.honest_bits(), 240);
        assert_eq!(m.byzantine_messages, 1);
        assert_eq!(m.per_party_bytes, vec![10, 20, 99]);
        assert_eq!(m.per_party_messages, vec![1, 1, 1]);
    }

    #[test]
    fn output_rounds_tracking() {
        let mut m = Metrics::new(2);
        assert_eq!(m.rounds_to_all_outputs(), None);
        m.record_output(PartyId(0), 3);
        m.record_output(PartyId(0), 9); // later output does not overwrite
        assert_eq!(m.rounds_to_all_outputs(), None);
        m.record_output(PartyId(1), 5);
        assert_eq!(m.rounds_to_all_outputs(), Some(5));
        assert_eq!(m.output_rounds[0], Some(3));
    }

    #[test]
    fn excluded_parties_do_not_block_round_metric() {
        let mut m = Metrics::new(3);
        m.record_output(PartyId(0), 3);
        m.record_output(PartyId(1), 6);
        // Party 2 is a silent Byzantine party: without exclusion the metric
        // is undefined, with exclusion it reflects the honest parties.
        assert_eq!(m.rounds_to_all_outputs(), None);
        m.exclude(PartyId(2));
        assert_eq!(m.rounds_to_all_outputs(), Some(6));
        // An excluded (adversarial) party outputting late must not inflate
        // the honest round count.
        m.record_output(PartyId(2), 9);
        assert_eq!(m.rounds_to_all_outputs(), Some(6));
        // With every party excluded there is nothing to measure.
        m.exclude(PartyId(0));
        m.exclude(PartyId(1));
        assert_eq!(m.rounds_to_all_outputs(), None);
    }

    #[test]
    fn session_conservation_law_holds_and_violations_are_found() {
        let mut m = Metrics::new(3);
        assert_eq!(m.session_conservation_violation(), None, "trivially true without sessions");
        // Session 0: two sends, one delivered, one in flight.
        m.record_send(PartyId(0), 4, true);
        m.record_session_send(Some(0));
        m.record_session_enqueue(Some(0));
        m.record_send(PartyId(0), 4, true);
        m.record_session_send(Some(0));
        m.record_session_enqueue(Some(0));
        m.record_delivery(1);
        m.record_session_delivery(Some(0));
        // Session 2 (sparse indices work): one send purged at send time.
        m.record_send(PartyId(1), 4, true);
        m.record_session_send(Some(2));
        m.record_purge();
        m.record_session_purge(Some(2), false);
        assert_eq!(m.session_conservation_violation(), None);
        assert_eq!(m.session_sent, vec![2, 0, 1]);
        assert_eq!(m.session_in_flight[0], 1);
        // An unbalanced session is reported.
        m.record_session_send(Some(1));
        assert_eq!(m.session_conservation_violation(), Some(SessionImbalance::Session(1)));
    }

    #[test]
    fn delivery_depth_tracked() {
        let mut m = Metrics::new(1);
        m.record_delivery(2);
        m.record_delivery(7);
        m.record_delivery(4);
        assert_eq!(m.delivered_messages, 3);
        assert_eq!(m.max_depth, 7);
    }
}
