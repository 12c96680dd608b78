//! Derived analysis over a recorded event stream.
//!
//! Everything here is pure post-processing: the hot path only ever appends
//! [`TraceEvent`]s; trees, histograms, distributions and critical paths are
//! reconstructed after the run from path prefixes and causal edges.

use std::collections::BTreeMap;

use crate::event::{EventKind, ObsPath, Phase, TraceEvent};

/// One phase mark inside a span: `(phase, info, clock, wall_ns)`.
pub type PhaseMark = (Phase, u32, u64, u64);

/// One node of a reconstructed per-instance span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Absolute instance path of this span.
    pub path: ObsPath,
    /// Delivery clock at activation (`None` when the stream holds no
    /// activation marker for the path — e.g. a prefix node synthesised
    /// because only its descendants emitted).
    pub activated: Option<u64>,
    /// Delivery clock of the last event observed at exactly this path.
    pub last_clock: u64,
    /// Phase marks emitted at exactly this path, in stream order.
    pub phases: Vec<PhaseMark>,
    /// Clock of a [`EventKind::Decided`] marker at this path, if any.
    pub decided: Option<u64>,
    /// Child spans, ordered by path.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(path: ObsPath) -> SpanNode {
        SpanNode {
            path,
            activated: None,
            last_clock: 0,
            phases: Vec::new(),
            decided: None,
            children: Vec::new(),
        }
    }

    /// Total nodes in this subtree (the root included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }

    /// Finds the node at exactly `path` in this subtree.
    pub fn find(&self, path: &ObsPath) -> Option<&SpanNode> {
        if self.path == *path {
            return Some(self);
        }
        if !path.starts_with(&self.path) {
            return None;
        }
        self.children.iter().find_map(|c| c.find(path))
    }
}

/// Reconstructs the per-instance span tree of one party's events from path
/// prefixes alone: every path that appears in an activation, decide or
/// phase event becomes a span, attached under its longest emitting ancestor
/// (prefix nodes are synthesised as needed, so a stream that only traced a
/// deep leaf still yields a rooted tree).
pub fn span_tree(events: &[TraceEvent]) -> SpanNode {
    fn touch<'a>(nodes: &'a mut BTreeMap<Vec<u8>, SpanNode>, path: &ObsPath) -> &'a mut SpanNode {
        nodes.entry(path.as_bytes().to_vec()).or_insert_with(|| SpanNode::new(*path))
    }
    let mut nodes: BTreeMap<Vec<u8>, SpanNode> = BTreeMap::new();
    touch(&mut nodes, &ObsPath::ROOT);
    for e in events {
        match &e.kind {
            EventKind::Activated { path } => {
                let node = touch(&mut nodes, path);
                node.activated.get_or_insert(e.clock);
                node.last_clock = node.last_clock.max(e.clock);
            }
            EventKind::Decided { path } => {
                let node = touch(&mut nodes, path);
                node.decided.get_or_insert(e.clock);
                node.last_clock = node.last_clock.max(e.clock);
            }
            EventKind::Phase { path, phase, info } => {
                let node = touch(&mut nodes, path);
                node.phases.push((*phase, *info, e.clock, e.wall_ns));
                node.last_clock = node.last_clock.max(e.clock);
            }
            _ => {}
        }
    }
    // Ensure every node's parent chain exists, then attach children to
    // parents deepest-first (BTreeMap order sorts prefixes before their
    // extensions, so draining in reverse order sees children before
    // parents).
    let keys: Vec<Vec<u8>> = nodes.keys().cloned().collect();
    for key in keys {
        let mut path = ObsPath::from_bytes(&key);
        while let Some(parent) = path.parent() {
            nodes.entry(parent.as_bytes().to_vec()).or_insert_with(|| SpanNode::new(parent));
            path = parent;
        }
    }
    let mut ordered: Vec<SpanNode> = nodes.into_values().collect();
    while ordered.len() > 1 {
        let child = ordered.pop().expect("len > 1");
        let parent_path = child.path.parent().expect("only the root has no parent");
        let parent = ordered
            .iter_mut()
            .rev()
            .find(|n| n.path == parent_path)
            .expect("parent chain was completed above");
        parent.last_clock = parent.last_clock.max(child.last_clock);
        parent.children.push(child);
        // Keep children in path order (they were popped in reverse).
        let len = parent.children.len();
        parent.children[..len].rotate_right(1);
    }
    ordered.pop().expect("the root always exists")
}

/// One phase's share of a run's latency.
#[derive(Debug, Clone)]
pub struct PhaseShare {
    /// The phase.
    pub phase: Phase,
    /// Phase events observed.
    pub events: u64,
    /// Delivery-clock units attributed to the phase (per party: the gap
    /// from each phase mark to the party's next mark).
    pub clock: u64,
    /// Wall nanoseconds attributed the same way (0 without wall stamps).
    pub wall_ns: u64,
    /// `clock` as a fraction of all attributed clock units.
    pub clock_share: f64,
    /// `wall_ns` as a fraction of all attributed wall time.
    pub wall_share: f64,
    /// Log₂-bucketed histogram of the per-gap clock latencies: entry `b`
    /// counts gaps in `[2^b, 2^(b+1))` (bucket 0 holds 0 and 1).
    pub clock_histogram: Vec<u64>,
}

/// Attributes a run's latency to protocol phases: per party, the stream of
/// phase marks is walked in order and the delivery-clock / wall gap from
/// each mark to the party's next mark (or final event) is charged to the
/// earlier mark's phase — "time spent inside the phase entered here".
pub fn phase_breakdown(events: &[TraceEvent]) -> Vec<PhaseShare> {
    // Per party: (clock, wall, phase) marks in stream order, plus the
    // party's final observed stamps to close the last gap.
    let mut marks: BTreeMap<u16, Vec<(u64, u64, Phase)>> = BTreeMap::new();
    let mut finals: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
    for e in events {
        if let EventKind::Phase { phase, .. } = &e.kind {
            marks.entry(e.party).or_default().push((e.clock, e.wall_ns, *phase));
        }
        let f = finals.entry(e.party).or_insert((0, 0));
        f.0 = f.0.max(e.clock);
        f.1 = f.1.max(e.wall_ns);
    }
    let mut shares: BTreeMap<Phase, PhaseShare> = BTreeMap::new();
    for (party, party_marks) in &marks {
        let (final_clock, final_wall) = finals[party];
        for (i, &(clock, wall, phase)) in party_marks.iter().enumerate() {
            let (next_clock, next_wall) = party_marks
                .get(i + 1)
                .map(|&(c, w, _)| (c, w))
                .unwrap_or((final_clock, final_wall));
            let share = shares.entry(phase).or_insert_with(|| PhaseShare {
                phase,
                events: 0,
                clock: 0,
                wall_ns: 0,
                clock_share: 0.0,
                wall_share: 0.0,
                clock_histogram: Vec::new(),
            });
            share.events += 1;
            let gap = next_clock.saturating_sub(clock);
            share.clock += gap;
            share.wall_ns += next_wall.saturating_sub(wall);
            let bucket = (64 - gap.max(1).leading_zeros() as usize).saturating_sub(1);
            if share.clock_histogram.len() <= bucket {
                share.clock_histogram.resize(bucket + 1, 0);
            }
            share.clock_histogram[bucket] += 1;
        }
    }
    let clock_total: u64 = shares.values().map(|s| s.clock).sum();
    let wall_total: u64 = shares.values().map(|s| s.wall_ns).sum();
    let mut out: Vec<PhaseShare> = shares.into_values().collect();
    for s in &mut out {
        s.clock_share = if clock_total > 0 { s.clock as f64 / clock_total as f64 } else { 0.0 };
        s.wall_share = if wall_total > 0 { s.wall_ns as f64 / wall_total as f64 } else { 0.0 };
    }
    out.sort_by_key(|s| std::cmp::Reverse(s.clock));
    out
}

/// ABA round counts per instance: for every path that emitted
/// [`Phase::AbaRound`] marks, the number of rounds started (max round + 1),
/// keyed by `(party, path)`.
pub fn aba_round_counts(events: &[TraceEvent]) -> Vec<((u16, ObsPath), u32)> {
    let mut rounds: BTreeMap<(u16, Vec<u8>), (ObsPath, u32)> = BTreeMap::new();
    for e in events {
        if let EventKind::Phase { path, phase: Phase::AbaRound, info } = &e.kind {
            let entry = rounds
                .entry((e.party, path.as_bytes().to_vec()))
                .or_insert((*path, 0));
            entry.1 = entry.1.max(info + 1);
        }
    }
    rounds.into_iter().map(|((party, _), (path, r))| ((party, path), r)).collect()
}

/// The highest round any party started in the stream's (single) ABA — the
/// per-seed observable of the expected-constant-rounds claim.
pub fn aba_rounds_to_decide(events: &[TraceEvent]) -> u32 {
    aba_round_counts(events).into_iter().map(|(_, r)| r).max().unwrap_or(0)
}

/// Bytes and message copies sent, attributed by instance-path prefix of
/// length `depth` (depth 1 over a `SessionHost` stream = bytes per session;
/// depth 2 under a composite = bytes per sub-protocol).
pub fn byte_attribution(events: &[TraceEvent], depth: usize) -> Vec<(ObsPath, u64, u64)> {
    let mut bins: BTreeMap<Vec<u8>, (ObsPath, u64, u64)> = BTreeMap::new();
    for e in events {
        if let EventKind::Send { bytes, path, .. } = &e.kind {
            let prefix = path.prefix(depth);
            let entry = bins
                .entry(prefix.as_bytes().to_vec())
                .or_insert((prefix, 0, 0));
            entry.1 += u64::from(*bytes);
            entry.2 += 1;
        }
    }
    bins.into_values().collect()
}

/// One hop of a reconstructed critical path, outermost (earliest) first.
#[derive(Debug, Clone)]
pub struct CriticalHop {
    /// The message's seq.
    pub seq: u64,
    /// Sender.
    pub from: u16,
    /// Receiver.
    pub to: u16,
    /// Delivery clock when the message was *sent*.
    pub sent_clock: u64,
    /// Wire bytes.
    pub bytes: u32,
    /// Destination instance path of the message.
    pub path: ObsPath,
}

/// Walks causal edges backward from `decide` to the message chain that
/// gated it: the decide's triggering envelope, the envelope whose delivery
/// caused *that* send, and so on back to an activation-time send (no
/// cause).  Returns hops earliest-first.  The walk is exact because every
/// [`EventKind::Send`] records the ambient cause at emission.
pub fn critical_path(events: &[TraceEvent], decide: &TraceEvent) -> Vec<CriticalHop> {
    // seq → (send event index, cause at send time).
    let mut sends: BTreeMap<u64, (&TraceEvent, Option<u64>)> = BTreeMap::new();
    for e in events {
        if let EventKind::Send { seq, .. } = &e.kind {
            sends.insert(*seq, (e, e.cause));
        }
    }
    let mut hops = Vec::new();
    let mut cursor = decide.cause;
    while let Some(seq) = cursor {
        let Some((send, cause)) = sends.get(&seq) else { break };
        if let EventKind::Send { seq, from, to, bytes, path, .. } = &send.kind {
            hops.push(CriticalHop {
                seq: *seq,
                from: *from,
                to: *to,
                sent_clock: send.clock,
                bytes: *bytes,
                path: *path,
            });
        }
        cursor = *cause;
    }
    hops.reverse();
    hops
}

/// The first decide event for `party` (root-path [`EventKind::Decided`]),
/// the usual starting point of a critical-path walk.
pub fn first_decide(events: &[TraceEvent], party: u16) -> Option<&TraceEvent> {
    events.iter().find(|e| {
        e.party == party && matches!(&e.kind, EventKind::Decided { path } if path.is_root())
    })
}

/// Conservation counters reconstructed from a stream (see the net crate's
/// trace tests): sends, deliveries, in-flight purges, send-time purges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounts {
    /// [`EventKind::Send`] events (copies enqueued).
    pub sends: u64,
    /// [`EventKind::Deliver`] events.
    pub delivers: u64,
    /// [`EventKind::Purge`] events with a seq (withdrawn in flight).
    pub purged_in_flight: u64,
    /// [`EventKind::Purge`] events without a seq (dropped at send time).
    pub purged_at_send: u64,
}

impl FlowCounts {
    /// Tallies a stream.
    pub fn of(events: &[TraceEvent]) -> FlowCounts {
        let mut c = FlowCounts::default();
        for e in events {
            match &e.kind {
                EventKind::Send { .. } => c.sends += 1,
                EventKind::Deliver { .. } => c.delivers += 1,
                EventKind::Purge { seq: Some(_), .. } => c.purged_in_flight += 1,
                EventKind::Purge { seq: None, .. } => c.purged_at_send += 1,
                _ => {}
            }
        }
        c
    }

    /// Copies charged to senders: enqueued plus dropped-at-send.
    pub fn sent_copies(&self) -> u64 {
        self.sends + self.purged_at_send
    }

    /// All purges, matching `Metrics::purged_messages`.
    pub fn purged(&self) -> u64 {
        self.purged_in_flight + self.purged_at_send
    }

    /// Copies still in flight implied by the stream.
    pub fn in_flight(&self) -> u64 {
        self.sends - self.delivers - self.purged_in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_PARTY;

    fn ev(party: u16, clock: u64, cause: Option<u64>, kind: EventKind) -> TraceEvent {
        TraceEvent { party, clock, wall_ns: 0, cause, kind }
    }

    fn p(segs: &[(u8, u16)]) -> ObsPath {
        ObsPath::from_segments(segs)
    }

    #[test]
    fn span_tree_reconstructs_nesting_from_prefixes() {
        let events = vec![
            ev(0, 0, None, EventKind::Activated { path: ObsPath::ROOT }),
            ev(0, 1, Some(0), EventKind::Phase { path: p(&[(0, 0)]), phase: Phase::AbaRound, info: 0 }),
            // Only the deep leaf emits under (0,0)/(1,2) — the middle node
            // is synthesised.
            ev(0, 4, Some(2), EventKind::Phase {
                path: p(&[(0, 0), (1, 2), (3, 0)]),
                phase: Phase::CoinRevealed,
                info: 1,
            }),
            ev(0, 9, Some(7), EventKind::Decided { path: ObsPath::ROOT }),
        ];
        let tree = span_tree(&events);
        assert_eq!(tree.path, ObsPath::ROOT);
        assert_eq!(tree.activated, Some(0));
        assert_eq!(tree.decided, Some(9));
        assert_eq!(tree.size(), 4, "root + (0,0) + synthesised (1,2) + leaf");
        let aba = tree.find(&p(&[(0, 0)])).expect("aba span");
        assert_eq!(aba.phases.len(), 1);
        assert_eq!(aba.last_clock, 4, "children roll up into ancestors");
        let leaf = tree.find(&p(&[(0, 0), (1, 2), (3, 0)])).expect("leaf span");
        assert_eq!(leaf.phases[0].0, Phase::CoinRevealed);
        let mid = tree.find(&p(&[(0, 0), (1, 2)])).expect("synthesised prefix");
        assert!(mid.activated.is_none());
    }

    #[test]
    fn phase_breakdown_attributes_gaps_to_the_entered_phase() {
        let events = vec![
            ev(0, 10, None, EventKind::Phase { path: ObsPath::ROOT, phase: Phase::AbaRound, info: 0 }),
            ev(0, 30, None, EventKind::Phase { path: ObsPath::ROOT, phase: Phase::AbaAux, info: 1 }),
            ev(0, 35, None, EventKind::Decided { path: ObsPath::ROOT }),
        ];
        let shares = phase_breakdown(&events);
        assert_eq!(shares.len(), 2);
        let round = shares.iter().find(|s| s.phase == Phase::AbaRound).unwrap();
        let aux = shares.iter().find(|s| s.phase == Phase::AbaAux).unwrap();
        assert_eq!(round.clock, 20, "10 → 30");
        assert_eq!(aux.clock, 5, "30 → final 35");
        assert!((round.clock_share - 0.8).abs() < 1e-9);
        assert!((aux.clock_share - 0.2).abs() < 1e-9);
        // 20 lands in bucket 4 ([16, 32)), 5 in bucket 2 ([4, 8)).
        assert_eq!(round.clock_histogram[4], 1);
        assert_eq!(aux.clock_histogram[2], 1);
    }

    #[test]
    fn round_counts_take_the_max_round_per_instance() {
        let aba0 = p(&[(0xFE, 0)]);
        let aba1 = p(&[(0xFE, 1)]);
        let events = vec![
            ev(0, 1, None, EventKind::Phase { path: aba0, phase: Phase::AbaRound, info: 0 }),
            ev(0, 5, None, EventKind::Phase { path: aba0, phase: Phase::AbaRound, info: 2 }),
            ev(1, 2, None, EventKind::Phase { path: aba1, phase: Phase::AbaRound, info: 0 }),
        ];
        let counts = aba_round_counts(&events);
        assert_eq!(counts.len(), 2);
        assert!(counts.contains(&((0, aba0), 3)));
        assert!(counts.contains(&((1, aba1), 1)));
        assert_eq!(aba_rounds_to_decide(&events), 3);
    }

    #[test]
    fn byte_attribution_groups_by_prefix() {
        let send = |seq: u64, path: ObsPath, bytes: u32| {
            ev(0, seq, None, EventKind::Send { seq, from: 0, to: 1, session: None, bytes, path })
        };
        let events = vec![
            send(0, p(&[(0xFE, 0), (1, 1)]), 100),
            send(1, p(&[(0xFE, 0), (2, 0)]), 50),
            send(2, p(&[(0xFE, 1)]), 7),
        ];
        let bins = byte_attribution(&events, 1);
        assert_eq!(bins.len(), 2);
        assert!(bins.contains(&(p(&[(0xFE, 0)]), 150, 2)));
        assert!(bins.contains(&(p(&[(0xFE, 1)]), 7, 1)));
    }

    #[test]
    fn critical_path_walks_causes_back_to_activation() {
        // Activation send seq 0 → delivery causes send seq 5 → delivery
        // causes the decide.
        let events = vec![
            ev(0, 0, None, EventKind::Send {
                seq: 0, from: 0, to: 1, session: None, bytes: 8, path: ObsPath::ROOT,
            }),
            ev(1, 1, Some(0), EventKind::Deliver { seq: 0, from: 0, to: 1, session: None }),
            ev(1, 1, Some(0), EventKind::Send {
                seq: 5, from: 1, to: 0, session: None, bytes: 16, path: ObsPath::ROOT,
            }),
            ev(0, 2, Some(5), EventKind::Deliver { seq: 5, from: 1, to: 0, session: None }),
            ev(0, 2, Some(5), EventKind::Decided { path: ObsPath::ROOT }),
        ];
        let decide = first_decide(&events, 0).expect("decide exists");
        let hops = critical_path(&events, decide);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].seq, 0, "earliest first");
        assert_eq!(hops[1].seq, 5);
        assert_eq!(hops[1].bytes, 16);
        assert!(first_decide(&events, NO_PARTY).is_none());
    }

    #[test]
    fn flow_counts_balance() {
        let events = vec![
            ev(0, 0, None, EventKind::Send {
                seq: 0, from: 0, to: 1, session: None, bytes: 8, path: ObsPath::ROOT,
            }),
            ev(0, 0, None, EventKind::Send {
                seq: 1, from: 0, to: 2, session: None, bytes: 8, path: ObsPath::ROOT,
            }),
            ev(0, 0, None, EventKind::Purge { seq: None, session: None }),
            ev(1, 1, Some(0), EventKind::Deliver { seq: 0, from: 0, to: 1, session: None }),
            ev(0, 1, None, EventKind::Purge { seq: Some(1), session: None }),
        ];
        let c = FlowCounts::of(&events);
        assert_eq!(c.sent_copies(), 3);
        assert_eq!(c.delivers, 1);
        assert_eq!(c.purged(), 2);
        assert_eq!(c.in_flight(), 0);
    }
}
