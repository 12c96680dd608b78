//! Observation from outside the program: a party wrapper, a scheduler
//! wrapper and the span tally they feed.
//!
//! Both wrappers forward every call unchanged, so a wrapped run delivers
//! the same messages in the same order as an unwrapped one.  The party
//! wrapper always records when its machine first produced output (the
//! decide clock).  With a [`Tally`] attached it also times each
//! `on_activation`/`on_message` call as one span, named by the layer that
//! owns the delivered envelope's instance path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use setupfree_net::mux::{BufferStats, Envelope, InstancePath};
use setupfree_net::{BoxedParty, PartyId, PendingInfo, ProtocolInstance, Scheduler, Step};

/// Nanoseconds since the first call in this process: the time base of
/// every recorded span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layers a delivery is attributed to: the protocol crate whose
/// instance the envelope's path ends at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Aba,
    Coin,
    Seeding,
    Avss,
    Wcs,
    Rbc,
    Vba,
    /// A path no crate mounts (never expected; counted, not dropped).
    Other,
}

/// Every layer, in table order.
pub const LAYERS: [Layer; 8] = [
    Layer::Avss,
    Layer::Wcs,
    Layer::Seeding,
    Layer::Coin,
    Layer::Aba,
    Layer::Rbc,
    Layer::Vba,
    Layer::Other,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Aba => "aba",
            Layer::Coin => "coin",
            Layer::Seeding => "seeding",
            Layer::Avss => "avss",
            Layer::Wcs => "wcs",
            Layer::Rbc => "rbc",
            Layer::Vba => "vba",
            Layer::Other => "other",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// A composite machine in the mux tree; its children are addressed by the
/// `K_*` path kinds its crate exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    Aba,
    Coin,
    Election,
    Vba,
}

/// The layer that handles an envelope delivered at `path` to a `top`
/// machine, and whether the path runs through an election.  The election
/// sends no messages of its own (its work happens in deliveries to its
/// coin, RBCs and ABA), so it is measured as a subtree.
pub fn classify(top: Node, path: &InstancePath) -> (Layer, bool) {
    use setupfree_core::{coin, election};
    let mut node = top;
    let mut in_election = top == Node::Election;
    for seg in path.segments() {
        node = match (node, seg.kind) {
            (Node::Aba, setupfree_aba::K_COIN) => Node::Coin,
            (Node::Coin, coin::K_SEEDING) => return (Layer::Seeding, in_election),
            (Node::Coin, coin::K_AVSS) => return (Layer::Avss, in_election),
            (Node::Coin, coin::K_WCS) => return (Layer::Wcs, in_election),
            (Node::Coin, coin::K_GATHER) => return (Layer::Rbc, in_election),
            (Node::Election, election::K_COIN) => Node::Coin,
            (Node::Election, election::K_RBC) => return (Layer::Rbc, in_election),
            (Node::Election, election::K_ABA) => Node::Aba,
            (Node::Vba, setupfree_vba::K_ELECTION) => {
                in_election = true;
                Node::Election
            }
            (Node::Vba, setupfree_vba::K_VOTE_ABA) => Node::Aba,
            _ => return (Layer::Other, in_election),
        };
    }
    let layer = match node {
        Node::Aba => Layer::Aba,
        Node::Coin => Layer::Coin,
        Node::Vba => Layer::Vba,
        Node::Election => Layer::Other,
    };
    (layer, in_election)
}

/// Encoded size of an envelope: path length byte, path, payload.
pub fn envelope_len(env: &Envelope) -> usize {
    1 + env.path.as_bytes().len() + env.payload.len()
}

/// One recorded span.  Structural spans (instance, session) carry small
/// ids; leaf spans point at them through `parent`.
#[derive(Clone, Debug)]
pub struct Span {
    pub instance: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Where a wrapper's spans hang: the instance they belong to and the
/// structural span that is their parent.
#[derive(Clone, Copy, Debug)]
pub struct SpanCtx {
    pub instance: u32,
    pub parent: u32,
}

/// Retained raw spans per wrapper are capped so a long instance cannot
/// exhaust memory; the totals keep counting past the cap.
const SPANS_PER_WRAPPER: usize = 1 << 16;

/// Per-layer totals of a traced pass, merged from every wrapper as it is
/// dropped (a wrapper lives on the thread that runs its session).
#[derive(Default, Clone)]
pub struct Tally {
    pub layer_ns: [u64; 8],
    pub layer_deliveries: [u64; 8],
    pub election_ns: u64,
    pub election_deliveries: u64,
    pub deliveries: u64,
    pub path_depth_sum: u64,
    pub envelope_bytes: u64,
    pub sched_ns: u64,
    pub build_ns: u64,
    pub buffered: u64,
    pub dropped: u64,
    /// Envelopes captured for the wire replay, with their layer.
    pub sample: Vec<(Layer, Envelope)>,
    /// Instance, session and session-build spans: always kept, the
    /// engine and runtime metrics are computed from them.
    pub structural: Vec<Span>,
    /// Leaf spans of the units that keep them, up to [`MAX_SPANS`].
    pub spans: Vec<Span>,
}

impl Tally {
    pub fn party_ns(&self) -> u64 {
        self.layer_ns.iter().sum::<u64>()
    }

    fn merge(&mut self, o: Tally) {
        for i in 0..8 {
            self.layer_ns[i] += o.layer_ns[i];
            self.layer_deliveries[i] += o.layer_deliveries[i];
        }
        self.election_ns += o.election_ns;
        self.election_deliveries += o.election_deliveries;
        self.deliveries += o.deliveries;
        self.path_depth_sum += o.path_depth_sum;
        self.envelope_bytes += o.envelope_bytes;
        self.sched_ns += o.sched_ns;
        self.build_ns += o.build_ns;
        self.buffered += o.buffered;
        self.dropped += o.dropped;
        let room = MAX_SAMPLE.saturating_sub(self.sample.len());
        self.sample.extend(o.sample.into_iter().take(room));
        self.structural.extend(o.structural);
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(o.spans.into_iter().take(room));
    }
}

/// The shared sink wrappers flush into.
pub type SharedTally = Arc<Mutex<Tally>>;

/// Called from `Drop`, so it must not panic: a sink poisoned by another
/// wrapper's panic loses this tally, and that panic already fails the run.
fn flush(sink: &SharedTally, local: Tally) {
    if let Ok(mut tally) = sink.lock() {
        tally.merge(local);
    }
}

/// How a traced wrapper records: its sink, its span placement, whether
/// it keeps raw spans, and whether it captures envelopes for the wire
/// replay (both on for a few units only, to bound memory).
#[derive(Clone)]
pub struct Tracing {
    pub sink: SharedTally,
    pub ctx: SpanCtx,
    pub keep_spans: bool,
    pub capture: bool,
}

/// Every `SAMPLE_EVERY`-th delivery to a party is captured, up to
/// `SAMPLES_PER_WRAPPER` per party.
const SAMPLE_EVERY: u64 = 61;
const SAMPLES_PER_WRAPPER: usize = 64;
/// The wire replay needs no more envelopes than this.
const MAX_SAMPLE: usize = 4096;
/// Leaf spans written out per traced run.
const MAX_SPANS: usize = 1 << 18;

struct Recorder {
    cfg: Tracing,
    local: Tally,
}

impl Recorder {
    fn span(&mut self, name: &'static str, start: u64, end: u64) {
        if self.cfg.keep_spans && self.local.spans.len() < SPANS_PER_WRAPPER {
            let ctx = self.cfg.ctx;
            self.local.spans.push(Span {
                instance: ctx.instance,
                id: 0,
                parent: Some(ctx.parent),
                name,
                start,
                end,
            });
        }
    }
}

/// When a party first output: nanoseconds since [`now_ns`]'s epoch, or 0
/// while undecided.
pub type DecideSlot = Arc<AtomicU64>;

/// A party wrapper: decide clock always, per-layer spans when traced.
pub struct Probe<O: Clone + std::fmt::Debug + 'static> {
    inner: BoxedParty<Envelope, O>,
    top: Node,
    decided: DecideSlot,
    rec: Option<Recorder>,
}

impl<O: Clone + std::fmt::Debug + 'static> Probe<O> {
    pub fn wrap(
        inner: BoxedParty<Envelope, O>,
        top: Node,
        decided: DecideSlot,
        tracing: Option<Tracing>,
    ) -> BoxedParty<Envelope, O> {
        let rec = tracing.map(|cfg| Recorder {
            cfg,
            local: Tally::default(),
        });
        Box::new(Probe {
            inner,
            top,
            decided,
            rec,
        })
    }
}

impl<O: Clone + std::fmt::Debug + 'static> ProtocolInstance for Probe<O> {
    type Message = Envelope;
    type Output = O;

    fn on_activation(&mut self) -> Step<Envelope> {
        let Some(rec) = self.rec.as_mut() else {
            return self.inner.on_activation();
        };
        let t0 = now_ns();
        let step = self.inner.on_activation();
        let t1 = now_ns();
        let (layer, _) = classify(self.top, &InstancePath::root());
        rec.local.layer_ns[layer.slot()] += t1 - t0;
        rec.span(layer.name(), t0, t1);
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        let Some(rec) = self.rec.as_mut() else {
            return self.inner.on_message(from, msg);
        };
        let (layer, in_election) = classify(self.top, &msg.path);
        let t = &mut rec.local;
        t.deliveries += 1;
        t.path_depth_sum += msg.path.depth() as u64;
        t.envelope_bytes += envelope_len(&msg) as u64;
        if rec.cfg.capture
            && t.deliveries % SAMPLE_EVERY == 0
            && t.sample.len() < SAMPLES_PER_WRAPPER
        {
            t.sample.push((layer, msg.clone()));
        }
        let t0 = now_ns();
        let step = self.inner.on_message(from, msg);
        let t1 = now_ns();
        let t = &mut rec.local;
        t.layer_ns[layer.slot()] += t1 - t0;
        t.layer_deliveries[layer.slot()] += 1;
        if in_election {
            t.election_ns += t1 - t0;
            t.election_deliveries += 1;
        }
        rec.span(layer.name(), t0, t1);
        step
    }

    fn output(&self) -> Option<O> {
        let out = self.inner.output();
        if out.is_some() && self.decided.load(Ordering::Relaxed) == 0 {
            self.decided.store(now_ns().max(1), Ordering::Relaxed);
        }
        out
    }

    fn pre_activation_stats(&self) -> BufferStats {
        self.inner.pre_activation_stats()
    }
}

impl<O: Clone + std::fmt::Debug + 'static> Drop for Probe<O> {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            let stats = self.inner.pre_activation_stats();
            rec.local.buffered += stats.buffered;
            rec.local.dropped += stats.dropped;
            flush(&rec.cfg.sink, rec.local);
        }
    }
}

/// A scheduler wrapper timing `on_enqueue`/`select_next`/`on_remove`.
/// In the sharded workload it also closes the session span when the
/// session's simulation is dropped at its close.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    rec: Recorder,
    /// `(build start, build end)` of the session this scheduler serves.
    session: Option<(u64, u64)>,
}

impl TimedScheduler {
    pub fn wrap(
        inner: Box<dyn Scheduler>,
        cfg: Tracing,
        session: Option<(u64, u64)>,
    ) -> Box<dyn Scheduler> {
        Box::new(TimedScheduler {
            inner,
            rec: Recorder {
                cfg,
                local: Tally::default(),
            },
            session,
        })
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Scheduler) -> T) -> T {
        let t0 = now_ns();
        let out = f(&mut *self.inner);
        let t1 = now_ns();
        self.rec.local.sched_ns += t1 - t0;
        self.rec.span(name, t0, t1);
        out
    }
}

impl Scheduler for TimedScheduler {
    fn on_enqueue(&mut self, info: PendingInfo) {
        self.timed("sched.enqueue", |s| s.on_enqueue(info))
    }

    fn select_next(&mut self) -> u64 {
        self.timed("sched.select", |s| s.select_next())
    }

    fn on_remove(&mut self, seq: u64) {
        self.timed("sched.remove", |s| s.on_remove(seq))
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        let mut local = std::mem::take(&mut self.rec.local);
        if let Some((start, built)) = self.session {
            let ctx = self.rec.cfg.ctx;
            let end = now_ns();
            local.build_ns += built - start;
            local.structural.push(Span {
                instance: ctx.instance,
                id: ctx.parent,
                parent: Some(0),
                name: "runtime.session",
                start,
                end,
            });
            local.structural.push(Span {
                instance: ctx.instance,
                id: 0,
                parent: Some(ctx.parent),
                name: "runtime.build",
                start,
                end: built,
            });
        }
        flush(&self.rec.cfg.sink, local);
    }
}
