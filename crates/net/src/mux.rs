//! Hierarchical session router — one mux subsystem for all composite
//! protocols.
//!
//! The paper composes everything hierarchically with instance identifiers
//! `⟨ID, j⟩` (§3, Alg 4–8): ABA wraps per-round Coins, the Election wraps
//! `n` RBCs + an ABA + a Coin, the VBA wraps Elections + ABAs, the ADKG
//! wraps a VBA.  This module is the single implementation of that
//! composition:
//!
//! * [`InstancePath`] — the `⟨ID, j⟩` tag chain as a compact inline byte
//!   path (no heap allocation), one [`PathSeg`] (kind byte + `u16` index)
//!   per wrapping level;
//! * [`Envelope`] — the **flat wire format**: `(path bytes, leaf payload)`
//!   encoded once at the leaf and routed by a single path dispatch per
//!   level, instead of the former recursive enum-tag encode/decode descent;
//! * [`MuxNode`] — the interface composite protocols implement (a
//!   path-routing state machine), with [`Leaf`] adapting any typed
//!   [`ProtocolInstance`] into the tree;
//! * [`Router`] — owns the child instances of one kind, keyed by path
//!   segment, and handles wrapping *without per-hop re-allocation*: a
//!   child's outgoing [`Step<Envelope>`] is prefixed in place
//!   ([`Step::prefix`]), so a message crossing `d` wrapping levels costs one
//!   payload encoding and zero intermediate `Vec`s (the former `Step::map`
//!   chain allocated a fresh `Vec` per level);
//! * [`PreActivationBuffer`] — the **single** well-tested "buffer until the
//!   child exists" mechanism (replacing the hand-rolled `aba_buffer`,
//!   `election_buffer`, `coin_buffer` and `avss_buffers`), with a
//!   per-sender cap and duplicate dropping so a Byzantine flooder cannot
//!   grow memory without bound;
//! * [`SessionHost`] — runs many top-level sessions over one simulated
//!   network (k concurrent ABA instances, pipelined beacon epochs, …) by
//!   routing on a leading session segment.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use setupfree_obs::ObsPath;
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::party::PartyId;
use crate::protocol::{ProtocolInstance, Step};

/// Maximum nesting depth of an [`InstancePath`].
///
/// The deepest composite in the workspace is
/// session → ADKG → VBA → Election → ABA → Coin → Seeding/AVSS
/// (7 segments); one level of headroom is kept.
pub const MAX_PATH_SEGMENTS: usize = 8;

/// Encoded size of one [`PathSeg`]: kind byte + little-endian `u16` index.
const SEG_BYTES: usize = 3;

/// Maximum encoded length of an [`InstancePath`].
pub const MAX_PATH_BYTES: usize = MAX_PATH_SEGMENTS * SEG_BYTES;

/// One level of the paper's `⟨ID, j⟩` tag chain: which *kind* of child
/// (Seeding vs AVSS vs ABA, a protocol-local constant) and which *instance*
/// of that kind (dealer index, round number, epoch, session id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathSeg {
    /// The child kind, unique among the siblings of one parent.
    pub kind: u8,
    /// The instance index within the kind.
    pub index: u16,
}

impl PathSeg {
    /// Creates a segment, asserting the index fits the wire width (all
    /// indices in this workspace are party indices, bounded round numbers or
    /// epochs, far below `u16::MAX`).
    pub fn new(kind: u8, index: usize) -> Self {
        assert!(index <= u16::MAX as usize, "instance index {index} exceeds the path width");
        PathSeg { kind, index: index as u16 }
    }
}

/// A compact, inline (no-allocation, `Copy`) hierarchical instance path —
/// the paper's `⟨ID, j⟩` tags of one message, outermost segment first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstancePath {
    len: u8,
    buf: [u8; MAX_PATH_BYTES],
}

impl InstancePath {
    /// The empty path: the message belongs to the receiving protocol itself
    /// (its "local" messages), not to a sub-instance.
    pub fn root() -> Self {
        InstancePath::default()
    }

    /// A single-segment path.
    pub fn of(seg: PathSeg) -> Self {
        let mut p = InstancePath::root();
        p.push_front(seg);
        p
    }

    /// `true` for the empty path.
    pub fn is_root(&self) -> bool {
        self.len == 0
    }

    /// Number of segments.
    pub fn depth(&self) -> usize {
        self.len as usize / SEG_BYTES
    }

    /// The canonical byte representation.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Prepends `seg` as the new outermost segment — the wrapping operation
    /// a parent applies to a child's outgoing messages.  A small in-place
    /// `memmove`; no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the path is already [`MAX_PATH_SEGMENTS`] deep (the
    /// workspace hierarchy is statically shallower).
    pub fn push_front(&mut self, seg: PathSeg) {
        let len = self.len as usize;
        assert!(len + SEG_BYTES <= MAX_PATH_BYTES, "instance path deeper than MAX_PATH_SEGMENTS");
        self.buf.copy_within(..len, SEG_BYTES);
        self.buf[0] = seg.kind;
        self.buf[1..3].copy_from_slice(&seg.index.to_le_bytes());
        self.len = (len + SEG_BYTES) as u8;
    }

    /// Splits off the outermost segment — the routing operation a parent
    /// applies to an inbound message.
    pub fn split_first(&self) -> Option<(PathSeg, InstancePath)> {
        if self.is_root() {
            return None;
        }
        let seg = PathSeg {
            kind: self.buf[0],
            index: u16::from_le_bytes([self.buf[1], self.buf[2]]),
        };
        let mut rest = InstancePath::root();
        let rest_len = self.len as usize - SEG_BYTES;
        rest.buf[..rest_len].copy_from_slice(&self.buf[SEG_BYTES..self.len as usize]);
        rest.len = rest_len as u8;
        Some((seg, rest))
    }

    /// Iterates the segments, outermost first.
    pub fn segments(&self) -> impl Iterator<Item = PathSeg> + '_ {
        self.as_bytes().chunks_exact(SEG_BYTES).map(|c| PathSeg {
            kind: c[0],
            index: u16::from_le_bytes([c[1], c[2]]),
        })
    }
}

impl fmt::Debug for InstancePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path[")?;
        for (i, seg) in self.segments().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{}@{}", seg.kind, seg.index)?;
        }
        write!(f, "]")
    }
}

impl Encode for InstancePath {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(self.len);
        w.write_bytes(self.as_bytes());
    }
}

impl Decode for InstancePath {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.read_u8()? as usize;
        if len > MAX_PATH_BYTES || !len.is_multiple_of(SEG_BYTES) {
            return Err(WireError::InvalidValue { ty: "InstancePath" });
        }
        let bytes = r.read_bytes(len)?;
        let mut p = InstancePath::root();
        p.buf[..len].copy_from_slice(bytes);
        p.len = len as u8;
        Ok(p)
    }
}

/// The flat wire envelope every composite protocol exchanges: the instance
/// path plus the *leaf* payload, encoded exactly once at the leaf that
/// produced it.
///
/// On the wire this is `len(path) ‖ path ‖ payload` — the payload runs to
/// the end of the message, so wrapping a message `d` levels deep costs
/// `1 + 3d` bytes of header and **zero** re-encodings, and decoding is one
/// path read plus one payload slice instead of a recursive enum-tag
/// descent.  The payload is reference-counted so routing a message down the
/// tree, buffering it, and the simulator's decode-once cache all share one
/// allocation.
#[derive(Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Which instance in the hierarchy the payload belongs to.
    pub path: InstancePath,
    /// The leaf message's encoding.
    pub payload: Arc<[u8]>,
}

impl Envelope {
    /// Encodes a leaf message under the given path.
    pub fn seal<M: Encode>(path: InstancePath, msg: &M) -> Self {
        Envelope { path, payload: setupfree_wire::to_shared_bytes(msg) }
    }

    /// Decodes the payload as a leaf message of type `M`, `None` when
    /// malformed (a misrouted or Byzantine payload — dropped by routers).
    pub fn open<M: Decode>(&self) -> Option<M> {
        decode_payload(&self.payload)
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Envelope({:?}, {} payload bytes)", self.path, self.payload.len())
    }
}

impl Encode for Envelope {
    fn encode(&self, w: &mut Writer) {
        self.path.encode(w);
        w.write_bytes(&self.payload);
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let path = InstancePath::decode(r)?;
        let payload: Arc<[u8]> = r.read_bytes(r.remaining())?.into();
        Ok(Envelope { path, payload })
    }
}

/// Decodes a leaf payload, requiring full consumption; `None` on malformed
/// input (routers drop such messages, mirroring the old enum decoders'
/// `InvalidTag` rejection).
pub fn decode_payload<M: Decode>(payload: &[u8]) -> Option<M> {
    setupfree_wire::from_bytes(payload).ok()
}

/// Capacity of the thread-local typed-decode cache (distinct payloads).
///
/// A multicast is decoded by up to `n` recipient leaves in short succession
/// (the simulator delivers all copies of one send within a window of at most
/// a few hundred other deliveries under every scheduler here), so a small
/// FIFO window captures the n-fold fan-out without retaining payloads for
/// the whole run.
const DECODE_CACHE_CAPACITY: usize = 128;

struct DecodeCacheEntry {
    /// The cached payload.  Holding the `Arc` pins its allocation, so the
    /// pointer identity used as the lookup key cannot be recycled by a new
    /// payload while the entry lives.
    payload: Arc<[u8]>,
    decoded: Box<dyn std::any::Any>,
}

/// The decode-cache key: the payload's allocation address plus the decoded
/// type.  Every live entry holds its `Arc`, so a live key's address cannot
/// be handed to a new allocation — address equality on a *live* entry
/// therefore implies `Arc::ptr_eq`, which is the same key-safety argument
/// the pre-index linear scan made by calling `Arc::ptr_eq` directly.
type DecodeCacheKey = (usize, std::any::TypeId);

fn decode_cache_key<M: 'static>(payload: &Arc<[u8]>) -> DecodeCacheKey {
    (Arc::as_ptr(payload).cast::<u8>() as usize, std::any::TypeId::of::<M>())
}

/// Hit/occupancy counters of the calling thread's typed-decode cache (see
/// [`decode_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served by a cached clone.
    pub hits: u64,
    /// Lookups that paid a real decode (failed decodes included).
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Hasher for the decode-cache index.  The key's dominant component is an
/// allocation address, already well-spread by the allocator, so a
/// multiply-xor mix of the written words is plenty — and the index is not
/// attacker-seedable (capacity 128, keyed by *local* allocation identity,
/// never by attacker-chosen bytes), so SipHash's flooding resistance buys
/// nothing here while costing more per lookup than the 1–3-step linear
/// probe this index replaced.
#[derive(Default)]
struct PtrHasher(u64);

impl std::hash::Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for hash impls that feed raw bytes (TypeId on some
        // toolchains): fold them FNV-style into the running state.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

type BuildPtrHasher = std::hash::BuildHasherDefault<PtrHasher>;

/// The typed-decode cache: a FIFO window of recently decoded payloads with
/// an O(1) index keyed by allocation identity + decoded type.  The FIFO
/// (`order`) decides eviction exactly as the old `VecDeque`-only cache did;
/// the map makes the per-delivery lookup O(1) instead of an O(capacity)
/// reverse scan (at capacity 128 that scan sat on the hot path of every
/// leaf delivery whose payload was *not* recently shared — i.e. most of a
/// big run under a reordering scheduler).
struct DecodeCache {
    order: VecDeque<DecodeCacheKey>,
    entries: HashMap<DecodeCacheKey, DecodeCacheEntry, BuildPtrHasher>,
    hits: u64,
    misses: u64,
}

impl DecodeCache {
    fn new() -> Self {
        DecodeCache {
            order: VecDeque::with_capacity(DECODE_CACHE_CAPACITY),
            entries: HashMap::with_capacity_and_hasher(
                DECODE_CACHE_CAPACITY,
                BuildPtrHasher::default(),
            ),
            hits: 0,
            misses: 0,
        }
    }
}

std::thread_local! {
    /// Per-payload typed-decode cache shared by every [`Leaf`] on the
    /// thread, keyed by **`Arc` allocation identity** (plus the decoded
    /// type): the simulator shares one `Arc<[u8]>` among all `n` in-flight
    /// copies of a send, so the first recipient's decode can be cloned to
    /// the other `n − 1` — while two *different* sends (even with equal
    /// bytes, even from an equivocating Byzantine sender) never share an
    /// entry, exactly like the simulator's envelope-level cache.
    static DECODE_CACHE: RefCell<DecodeCache> = RefCell::new(DecodeCache::new());
}

/// [`decode_payload`] with the per-payload typed-decode cache in front: the
/// first recipient of a shared payload pays the real decode (group
/// decompression included), later recipients of the **same allocation** get
/// `M::clone`s.  In debug builds every cached clone is re-encoded and
/// checked against the wire bytes (clone transparency), mirroring the
/// simulator's envelope-level assert.
pub fn decode_payload_cached<M>(payload: &Arc<[u8]>) -> Option<M>
where
    M: Encode + Decode + Clone + 'static,
{
    let key = decode_cache_key::<M>(payload);
    DECODE_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(entry) = cache.entries.get(&key) {
            debug_assert!(
                Arc::ptr_eq(&entry.payload, payload),
                "decode-cache address collision on a live entry (pinned Arc recycled?)"
            );
            let value = entry
                .decoded
                .downcast_ref::<M>()
                .expect("decode-cache entry type mismatch despite TypeId key")
                .clone();
            debug_assert_eq!(
                setupfree_wire::to_bytes(&value)[..],
                payload[..],
                "cached typed decode is not clone-transparent for this message type"
            );
            cache.hits += 1;
            return Some(value);
        }
        cache.misses += 1;
        let value: M = decode_payload(payload)?;
        if cache.order.len() >= DECODE_CACHE_CAPACITY {
            let oldest = cache.order.pop_front().expect("a full cache has an oldest entry");
            let evicted = cache.entries.remove(&oldest);
            debug_assert!(evicted.is_some(), "FIFO order and index must stay in lockstep");
        }
        cache.order.push_back(key);
        cache
            .entries
            .insert(key, DecodeCacheEntry { payload: Arc::clone(payload), decoded: Box::new(value.clone()) });
        Some(value)
    })
}

/// Snapshot of the calling thread's typed-decode cache counters — hit-rate
/// telemetry for benches and the cache's own regression tests.
pub fn decode_cache_stats() -> DecodeCacheStats {
    DECODE_CACHE.with(|cache| {
        let cache = cache.borrow();
        DecodeCacheStats { hits: cache.hits, misses: cache.misses, entries: cache.entries.len() }
    })
}

/// Occupancy and drop counters of one (or the recursive sum of many)
/// [`PreActivationBuffer`]s — the buffer-pressure telemetry surfaced through
/// [`Metrics`](crate::metrics::Metrics) at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Envelopes currently buffered (occupancy at poll time).
    pub buffered: u64,
    /// Envelopes dropped so far: per-sender cap, duplicate filter, or
    /// traffic addressed to a retired child.
    pub dropped: u64,
}

impl BufferStats {
    /// Component-wise sum.
    pub fn merge(self, other: BufferStats) -> BufferStats {
        BufferStats {
            buffered: self.buffered + other.buffered,
            dropped: self.dropped + other.dropped,
        }
    }
}

/// Encodes every message of a typed step into an envelope under `path`
/// (one payload encoding per message — the only encoding it will ever get).
fn seal_step_at<M: Encode>(path: InstancePath, step: Step<M>) -> Step<Envelope> {
    Step {
        outgoing: step
            .outgoing
            .into_iter()
            .map(|o| crate::protocol::Outgoing { dest: o.dest, msg: Envelope::seal(path, &o.msg) })
            .collect(),
    }
}

/// Encodes every message of a typed leaf step into an envelope under `seg`.
pub fn sealed_step<M: Encode>(seg: PathSeg, step: Step<M>) -> Step<Envelope> {
    seal_step_at(InstancePath::of(seg), step)
}

/// Encodes a protocol's *local* (root-path) messages.
pub fn local_step<M: Encode>(step: Step<M>) -> Step<Envelope> {
    seal_step_at(InstancePath::root(), step)
}

impl Step<Envelope> {
    /// Prefixes every outgoing envelope's path with `seg`, **in place** —
    /// the per-hop wrapping operation.  Reuses the step's buffer across
    /// hops; no allocation.
    #[must_use = "the prefixed step still has to be sent"]
    pub fn prefix(mut self, seg: PathSeg) -> Step<Envelope> {
        for o in &mut self.outgoing {
            o.msg.path.push_front(seg);
        }
        self
    }
}

/// A path-routing protocol state machine — the interface every *composite*
/// protocol implements (leaves implement [`ProtocolInstance`] and are
/// adapted by [`Leaf`]).
///
/// The contract mirrors [`ProtocolInstance`]: deterministic, activated
/// exactly once before any envelope is delivered.  [`Router::insert`]
/// upholds the activation-before-delivery order for children created
/// mid-run.
pub trait MuxNode {
    /// The output type produced by this node.
    type Output: Clone + fmt::Debug;

    /// Called exactly once when the instance starts.
    fn on_activation(&mut self) -> Step<Envelope>;

    /// Called for every envelope routed to this node; `path` is relative to
    /// the node (the parent has stripped its own segment).
    fn on_envelope(&mut self, from: PartyId, path: InstancePath, payload: &Arc<[u8]>)
        -> Step<Envelope>;

    /// Returns the output, once produced.
    fn output(&self) -> Option<Self::Output>;

    /// Nudges the node to re-evaluate its pending "upon" conditions even
    /// though no envelope of its own arrived.  Parents call this on a child
    /// whose progress can be driven by state shared *out of band* with a
    /// sibling (e.g. ABA coin rounds reading seeds a sibling round's seeding
    /// published); a self-contained node — the default — has nothing to
    /// re-evaluate and returns an empty step.
    fn poke(&mut self) -> Step<Envelope> {
        Step::none()
    }

    /// Buffer-pressure telemetry: the recursive sum of this node's (and its
    /// children's) [`PreActivationBuffer`] counters.  Composite nodes built
    /// on [`Router`] override this with [`Router::stats`].
    fn pre_activation_stats(&self) -> BufferStats {
        BufferStats::default()
    }
}

/// Adapts a typed leaf [`ProtocolInstance`] (RBC, AVSS, Seeding, a trusted
/// coin, …) into the mux tree: inbound payloads are decoded to the leaf's
/// message type, outbound messages are sealed at the root path (the parent
/// prefixes its segment).
#[derive(Debug)]
pub struct Leaf<P> {
    inner: P,
}

impl<P> Leaf<P> {
    /// Wraps a leaf protocol.
    pub fn new(inner: P) -> Self {
        Leaf { inner }
    }

    /// Typed access to the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Typed mutable access to the wrapped protocol (for protocol-specific
    /// inputs like [`provide_input`](../../setupfree_rbc/struct.Rbc.html)
    /// or reconstruction starts; seal the returned step with
    /// [`sealed_step`]).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: ProtocolInstance> MuxNode for Leaf<P> {
    type Output = P::Output;

    fn on_activation(&mut self) -> Step<Envelope> {
        local_step(self.inner.on_activation())
    }

    fn on_envelope(
        &mut self,
        from: PartyId,
        path: InstancePath,
        payload: &Arc<[u8]>,
    ) -> Step<Envelope> {
        if !path.is_root() {
            // A leaf has no sub-instances: deeper paths are misrouted or
            // Byzantine and are dropped.
            return Step::none();
        }
        match decode_payload_cached::<P::Message>(payload) {
            Some(msg) => local_step(self.inner.on_message(from, msg)),
            None => Step::none(),
        }
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn pre_activation_stats(&self) -> BufferStats {
        self.inner.pre_activation_stats()
    }
}

/// Default per-sender cap of the [`PreActivationBuffer`].
///
/// Honest pre-activation traffic per `(sender, child instance)` is bounded
/// by the child protocol's per-sender message count — `O(n)` even for a
/// full Coin (a few messages per embedded Seeding/AVSS instance).  The cap
/// sits far above that for every `n` the workspace runs, while bounding a
/// Byzantine flooder to `cap × senders` buffered envelopes per child.
pub const DEFAULT_PER_SENDER_CAP: usize = 1024;

/// How a [`PreActivationBuffer`] sizes its per-sender cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapPolicy {
    /// A fixed per-sender cap (the pre-PR 6 behaviour; still the right
    /// policy for leaf-child routers whose honest traffic is `O(1)` per
    /// sender).
    Static(usize),
    /// An occupancy-driven cap: per `(child, sender)` the cap starts at
    /// `floor`, and raises to `ceiling` for a child once at least
    /// `witnesses` **distinct senders** concurrently hold `floor / 2` or
    /// more buffered envelopes for that same child.
    ///
    /// The discriminator is *breadth*, read from the buffer's own occupancy
    /// telemetry (the per-`(child, sender)` counts behind
    /// [`PreActivationBuffer::stats`]): honest multi-round lag is
    /// correlated — every fast party runs ahead of the straggler together,
    /// so many senders fill up side by side — while a Byzantine flooder
    /// floods alone (at most `f` colluders).  With `witnesses = f + 1`, a
    /// raise requires at least one *honest* sender near the floor, which
    /// only happens under genuine lag; a flooder stays pinned at `floor`,
    /// and even a flood mounted during real lag is still bounded by
    /// `ceiling`.
    Adaptive {
        /// The cap while breadth is below `witnesses` — and the value the
        /// pre-PR 6 static policy used, so behaviour under a lone flooder
        /// is unchanged.
        floor: usize,
        /// The hard per-sender bound once lag is witnessed (memory stays
        /// `O(senders · ceiling)` per child).
        ceiling: usize,
        /// Distinct senders (self included) that must concurrently hold
        /// `floor / 2`+ envelopes for the child before the cap raises.
        witnesses: usize,
    },
}

impl From<usize> for CapPolicy {
    fn from(cap: usize) -> Self {
        CapPolicy::Static(cap)
    }
}

/// Cap policy for routers whose children are *deep* composites (a full Coin
/// or Election per round): a slow party can lag several rounds behind its
/// peers, and each pending round contributes `O(n)` honest envelopes per
/// sender, so the floor scales with `n` to keep typical honest traffic
/// below it (dropping an honest pre-activation message would be a liveness
/// bug — protocols never retransmit).  PR 6 made the cap *adaptive* on top
/// of that floor: deep lag at high `n` can legitimately exceed any fixed
/// cap, so when the buffer's occupancy telemetry shows `f + 1` senders
/// filling up together (at least one of them honest), the cap raises to an
/// 8× ceiling — while a lone flooder still hits the floor, exactly as under
/// the old static cap.
pub fn composite_cap(n: usize) -> CapPolicy {
    let floor = DEFAULT_PER_SENDER_CAP.max(64 * n);
    CapPolicy::Adaptive { floor, ceiling: 8 * floor, witnesses: n.saturating_sub(1) / 3 + 1 }
}

/// Cap policy for composite children hosted *inside a committee*: only the
/// `m` committee members ever legitimately send child traffic, so both the
/// floor (honest per-sender lag is `O(m)` per pending round, not `O(n)`)
/// and the witness quorum (`f_c + 1` of the committee's own tolerance,
/// since only members can be honest witnesses) scale with the committee
/// size.  Sizing these from the full `n` — as [`composite_cap`] does —
/// would hand every non-member flooder an `n/m`-times-too-generous budget
/// and make the adaptive raise unreachable for small committees.
pub fn committee_cap(committee_size: usize) -> CapPolicy {
    let floor = DEFAULT_PER_SENDER_CAP.max(64 * committee_size);
    CapPolicy::Adaptive {
        floor,
        ceiling: 8 * floor,
        witnesses: committee_size.saturating_sub(1) / 3 + 1,
    }
}

/// One buffered pre-activation message.
#[derive(Debug, Clone)]
struct BufferedEnvelope {
    from: PartyId,
    path: InstancePath,
    payload: Arc<[u8]>,
    /// FNV-1a digest of `(path, payload)` — the cheap first-stage key of
    /// the duplicate filter.
    digest: u64,
}

/// FNV-1a over the path and payload bytes.  Only a duplicate-filter
/// prefilter (never trusted on its own: a digest hit is confirmed by a byte
/// comparison), so a non-cryptographic hash is fine.
fn envelope_digest(path: &InstancePath, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in path.as_bytes().iter().chain(payload) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The single "buffer until the child instance exists" mechanism.
///
/// Composite protocols create children on demand (the ABA's round-`r` coin,
/// the VBA's round-`r` election, the Coin's AVSS for a dealer whose seed is
/// pending); traffic for a child that does not exist yet is held here and
/// replayed — in arrival order — when [`Router::insert`] creates it.
///
/// Unlike the four hand-rolled buffers this replaces, it is *bounded*:
///
/// * **per-sender cap** — at most `cap` buffered envelopes per
///   `(child index, sender)`; beyond that the sender's traffic for that
///   child is dropped (a Byzantine flooder only starves itself: honest
///   traffic never reaches the cap);
/// * **duplicate dropping** — a byte-identical `(sender, path, payload)`
///   already buffered for the child is not stored again (replay to an
///   honest child is idempotent anyway — the paper's "first time" handlers
///   — so duplicates only cost memory).
#[derive(Debug)]
pub struct PreActivationBuffer {
    policy: CapPolicy,
    entries: BTreeMap<u16, Vec<BufferedEnvelope>>,
    counts: BTreeMap<(u16, PartyId), usize>,
    /// `(child, sender, digest)` of every buffered envelope — the duplicate
    /// prefilter.  A digest hit falls back to a byte comparison, so hash
    /// collisions can never drop a genuinely new message; this keeps the
    /// common push O(log B) instead of a linear byte scan over the bucket
    /// (which dominated the ABA hot path when every round's coin traffic
    /// races ahead of the local Aux quorum).
    seen: BTreeSet<(u16, PartyId, u64)>,
    dropped: u64,
    /// Envelopes accepted *above* the floor by an adaptive raise — the
    /// telemetry that shows the adaptive cap actually fired.
    raised: u64,
}

impl PreActivationBuffer {
    /// Creates a buffer with a fixed per-sender cap.
    pub fn new(per_sender_cap: usize) -> Self {
        Self::with_policy(CapPolicy::Static(per_sender_cap))
    }

    /// Creates a buffer under the given [`CapPolicy`].
    pub fn with_policy(policy: CapPolicy) -> Self {
        PreActivationBuffer {
            policy,
            entries: BTreeMap::new(),
            counts: BTreeMap::new(),
            seen: BTreeSet::new(),
            dropped: 0,
            raised: 0,
        }
    }

    /// The cap currently applying to a sender holding `count` buffered
    /// envelopes for child `index`.  Below the floor the answer is the
    /// floor without any occupancy scan (the hot path); at the floor the
    /// adaptive policy consults the child's occupancy breadth.
    fn effective_cap(&self, index: u16, count: usize) -> usize {
        match self.policy {
            CapPolicy::Static(cap) => cap,
            CapPolicy::Adaptive { floor, ceiling, witnesses } => {
                if count < floor {
                    return floor;
                }
                let breadth = self
                    .counts
                    .range((index, PartyId(0))..=(index, PartyId(usize::MAX)))
                    .filter(|(_, &c)| c >= floor / 2)
                    .count();
                if breadth >= witnesses {
                    ceiling
                } else {
                    floor
                }
            }
        }
    }

    /// Buffers one envelope for the child at `index`; returns `false` when
    /// the message was dropped (cap reached or duplicate).
    pub fn push(
        &mut self,
        index: u16,
        from: PartyId,
        path: InstancePath,
        payload: &Arc<[u8]>,
    ) -> bool {
        let count = self.counts.get(&(index, from)).copied().unwrap_or(0);
        let cap = self.effective_cap(index, count);
        if count >= cap {
            self.dropped += 1;
            return false;
        }
        let digest = envelope_digest(&path, payload);
        let bucket = self.entries.entry(index).or_default();
        if !self.seen.insert((index, from, digest)) {
            // Digest already buffered for this (child, sender): confirm it
            // is a true byte-identical duplicate (collisions pass through).
            let duplicate = bucket.iter().any(|b| {
                b.from == from
                    && b.digest == digest
                    && b.path == path
                    && b.payload[..] == payload[..]
            });
            if duplicate {
                self.dropped += 1;
                return false;
            }
        }
        if let CapPolicy::Adaptive { floor, .. } = self.policy {
            if count >= floor {
                self.raised += 1;
            }
        }
        *self.counts.entry((index, from)).or_insert(0) += 1;
        bucket.push(BufferedEnvelope { from, path, payload: Arc::clone(payload), digest });
        true
    }

    /// Removes and returns everything buffered for `index`, in arrival
    /// order.
    fn drain(&mut self, index: u16) -> Vec<BufferedEnvelope> {
        let drained = self.entries.remove(&index).unwrap_or_default();
        self.counts.retain(|(i, _), _| *i != index);
        let stale: Vec<(u16, PartyId, u64)> = self
            .seen
            .range((index, PartyId(0), 0)..=(index, PartyId(usize::MAX), u64::MAX))
            .copied()
            .collect();
        for key in stale {
            self.seen.remove(&key);
        }
        drained
    }

    /// Number of envelopes currently buffered (all children).
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of envelopes dropped by the cap or duplicate filter.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of envelopes accepted above the floor by an adaptive cap
    /// raise (always 0 under [`CapPolicy::Static`]).
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// The buffer's occupancy/drop counters.
    pub fn stats(&self) -> BufferStats {
        BufferStats { buffered: self.len() as u64, dropped: self.dropped }
    }
}

/// Owns the child instances of one *kind* inside a composite protocol,
/// keyed by path-segment index, and implements the two halves of routing:
///
/// * **inbound** ([`Router::route`]) — strip the segment, deliver to the
///   child (or buffer until it exists), prefix the child's response;
/// * **outbound** ([`Router::insert`], [`sealed_step`] +
///   [`Router::seg`]) — wrap child steps by prefixing the segment in
///   place.
#[derive(Debug)]
pub struct Router<N> {
    kind: u8,
    /// Children in a dense slot vector: instance indices in this workspace
    /// are small and dense (party indices, bounded round numbers, epochs,
    /// session ids), and parents poll children on the per-delivery hot path
    /// — O(1) slot access matters (a `BTreeMap` here cost double-digit
    /// percents of ABA wall-clock).
    children: Vec<Option<N>>,
    /// Tombstones of retired children ([`Router::retire`]): the slot stays
    /// occupied so the index can never be recreated, but the instance state
    /// is freed and late traffic for it is dropped instead of buffered.
    retired: Vec<bool>,
    /// Envelopes dropped because they addressed a retired child.
    retired_drops: u64,
    buffer: PreActivationBuffer,
}

impl<N: MuxNode> Router<N> {
    /// Creates an empty router for children of `kind` with the default
    /// pre-activation cap.
    pub fn new(kind: u8) -> Self {
        Self::with_cap(kind, DEFAULT_PER_SENDER_CAP)
    }

    /// Creates an empty router with an explicit per-sender pre-activation
    /// cap policy (a plain `usize` converts to [`CapPolicy::Static`];
    /// composite parents pass [`composite_cap`]).
    pub fn with_cap(kind: u8, cap: impl Into<CapPolicy>) -> Self {
        Router {
            kind,
            children: Vec::new(),
            retired: Vec::new(),
            retired_drops: 0,
            buffer: PreActivationBuffer::with_policy(cap.into()),
        }
    }

    /// The path segment of the child at `index` (for wrapping typed side
    /// steps via [`sealed_step`]).
    pub fn seg(&self, index: usize) -> PathSeg {
        PathSeg::new(self.kind, index)
    }

    /// `true` if the child at `index` exists.
    pub fn contains(&self, index: usize) -> bool {
        self.get(index).is_some()
    }

    /// The child at `index`, if created.
    pub fn get(&self, index: usize) -> Option<&N> {
        self.children.get(index).and_then(Option::as_ref)
    }

    /// Mutable access to the child at `index`, if created.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut N> {
        self.children.get_mut(index).and_then(Option::as_mut)
    }

    /// Iterates the created children.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &N)> {
        self.children.iter().enumerate().filter_map(|(i, c)| c.as_ref().map(|c| (i, c)))
    }

    /// Installs the child at `index`, activates it, replays any buffered
    /// traffic (in arrival order), and returns the resulting outgoing step
    /// already wrapped under this router's segment.
    ///
    /// # Panics
    ///
    /// Panics if a child already exists at `index` (composite protocols
    /// guard creation with their own "first time" flags).
    pub fn insert(&mut self, index: usize, mut child: N) -> Step<Envelope> {
        assert!(!self.is_retired(index), "child {}@{} recreated after retirement", self.kind, index);
        let seg = self.seg(index);
        // The ambient trace path tracks routing descent: the guard makes
        // every event the child emits carry its absolute instance path.
        let _trace = setupfree_obs::PathGuard::push(self.kind, seg.index);
        setupfree_obs::activated();
        let mut step = child.on_activation();
        for b in self.buffer.drain(seg.index) {
            step.extend(child.on_envelope(b.from, b.path, &b.payload));
        }
        if self.children.len() <= index {
            self.children.resize_with(index + 1, || None);
        }
        let slot = &mut self.children[index];
        assert!(slot.is_none(), "child {}@{} created twice", self.kind, index);
        *slot = Some(child);
        step.prefix(seg)
    }

    /// Retires the child at `index`: frees its state and leaves a tombstone,
    /// so late traffic for it is *dropped* (not buffered — a flooder could
    /// otherwise park unbounded traffic behind a retired slot) and the index
    /// can never be recreated.  Callers retire a child only once its output
    /// is quorum-acknowledged: every straggler can then finish from traffic
    /// the acknowledging quorum already sent, so dropping our responses
    /// cannot cost liveness.  Returns `true` if a live child was retired.
    pub fn retire(&mut self, index: usize) -> bool {
        let retired_child = self.children.get_mut(index).and_then(Option::take);
        let live = retired_child.is_some();
        if let Some(child) = retired_child {
            // The child's accumulated drop history (its own sub-routers
            // included) must survive its state: `pre_activation_dropped` is
            // documented as a whole-run counter and may never decrease.
            // Occupancy is *not* preserved — those buffers are genuinely
            // freed.
            self.retired_drops += child.pre_activation_stats().dropped;
        }
        if self.retired.len() <= index {
            self.retired.resize(index + 1, false);
        }
        if !self.retired[index] {
            // Flush anything still buffered for the index (a child retired
            // before creation — e.g. an epoch acknowledged by a quorum this
            // party never reached — frees its buffered traffic too).
            self.retired_drops += self.buffer.drain(index as u16).len() as u64;
            self.retired[index] = true;
        }
        live
    }

    /// `true` if the child at `index` has been retired.
    pub fn is_retired(&self, index: usize) -> bool {
        self.retired.get(index).copied().unwrap_or(false)
    }

    /// Number of live (created, not retired) children.
    pub fn live_children(&self) -> usize {
        self.children.iter().filter(|c| c.is_some()).count()
    }

    /// Number of retired child slots.
    pub fn retired_children(&self) -> usize {
        self.retired.iter().filter(|&&r| r).count()
    }

    /// Routes one inbound envelope (whose leading segment this router's
    /// parent already stripped and matched to this router's kind) to the
    /// child at `index`; buffers if the child does not exist yet.
    pub fn route(
        &mut self,
        from: PartyId,
        index: u16,
        rest: InstancePath,
        payload: &Arc<[u8]>,
    ) -> Step<Envelope> {
        match self.children.get_mut(index as usize).and_then(Option::as_mut) {
            Some(child) => {
                let _trace = setupfree_obs::PathGuard::push(self.kind, index);
                child.on_envelope(from, rest, payload).prefix(PathSeg { kind: self.kind, index })
            }
            None => {
                if self.is_retired(index as usize) {
                    self.retired_drops += 1;
                } else {
                    self.buffer.push(index, from, rest, payload);
                }
                Step::none()
            }
        }
    }

    /// Number of pre-activation envelopes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Number of pre-activation envelopes dropped by the cap/duplicate
    /// filter.
    pub fn buffer_dropped(&self) -> u64 {
        self.buffer.dropped()
    }

    /// Number of pre-activation envelopes accepted above the adaptive
    /// floor (see [`CapPolicy::Adaptive`]; always 0 under a static cap).
    pub fn buffer_raised(&self) -> u64 {
        self.buffer.raised()
    }

    /// The recursive buffer telemetry of this router: its own pre-activation
    /// buffer (plus retirement drops) and every live child's stats.
    pub fn stats(&self) -> BufferStats {
        let own = BufferStats {
            buffered: self.buffer.len() as u64,
            dropped: self.buffer.dropped() + self.retired_drops,
        };
        self.iter().fold(own, |acc, (_, child)| acc.merge(child.pre_activation_stats()))
    }
}

/// The reserved path kind of [`SessionHost`] session segments.
pub const KIND_SESSION: u8 = 0xFE;

/// The destination instance path of an envelope, in the trace's
/// representation — the path classifier of mux workloads
/// ([`Simulation::set_path_of`](crate::sim::Simulation::set_path_of)).
pub fn envelope_path(env: &Envelope) -> ObsPath {
    ObsPath::from_bytes(env.path.as_bytes())
}

/// The session a classified path belongs to: the index of its leading
/// [`KIND_SESSION`] segment (a [`SessionHost`]-multiplexed message), `None`
/// for any other traffic.  The session-aware adversarial schedulers and the
/// per-session metrics are keyed by it.
pub(crate) fn path_session(path: &ObsPath) -> Option<u16> {
    path.segments().next().filter(|&(kind, _)| kind == KIND_SESSION).map(|(_, index)| index)
}

/// Runs `k` independent top-level sessions of one protocol over a single
/// simulated network — the concurrent-session workload (k parallel ABA
/// instances, pipelined beacon epochs, …).
///
/// Each session is a [`MuxNode`]; its traffic is wrapped under a leading
/// `(KIND_SESSION, session index)` segment.  The host's output is the
/// vector of all session outputs, available once **every** session has
/// produced one.
pub struct SessionHost<N> {
    sessions: Router<N>,
    pending: Vec<N>,
    count: usize,
}

impl<N: MuxNode> SessionHost<N> {
    /// Creates a host over the given sessions (index `i` becomes session
    /// segment `i`).
    ///
    /// # Panics
    ///
    /// Panics on an empty session list: a host with zero sessions could
    /// never produce an output, wedging any simulation built over it.
    pub fn new(sessions: Vec<N>) -> Self {
        assert!(!sessions.is_empty(), "SessionHost needs at least one session");
        let count = sessions.len();
        SessionHost { sessions: Router::new(KIND_SESSION), pending: sessions, count }
    }

    /// Number of sessions.
    pub fn session_count(&self) -> usize {
        self.count
    }

    /// Access to a session (after activation).
    pub fn session(&self, index: usize) -> Option<&N> {
        self.sessions.get(index)
    }

    /// The outputs produced so far, by session index.
    pub fn session_outputs(&self) -> Vec<Option<N::Output>> {
        self.sessions.iter().map(|(_, s)| s.output()).collect()
    }
}

impl<N: MuxNode> fmt::Debug for SessionHost<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHost")
            .field("sessions", &self.session_count())
            .field(
                "decided",
                &self.session_outputs().iter().filter(|o| o.is_some()).count(),
            )
            .finish()
    }
}

impl<N: MuxNode> MuxNode for SessionHost<N> {
    type Output = Vec<N::Output>;

    fn on_activation(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        for (i, session) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            step.extend(self.sessions.insert(i, session));
        }
        step
    }

    fn on_envelope(
        &mut self,
        from: PartyId,
        path: InstancePath,
        payload: &Arc<[u8]>,
    ) -> Step<Envelope> {
        match path.split_first() {
            // All sessions exist from activation; out-of-range indices are
            // Byzantine and dropped outright (they must never reach the
            // pre-activation buffer, where a flooder could park traffic for
            // up to 65536 never-created slots).
            Some((seg, rest)) if seg.kind == KIND_SESSION && (seg.index as usize) < self.count => {
                self.sessions.route(from, seg.index, rest, payload)
            }
            _ => Step::none(),
        }
    }

    fn output(&self) -> Option<Vec<N::Output>> {
        let outs = self.session_outputs();
        if outs.is_empty() || outs.iter().any(Option::is_none) {
            return None;
        }
        Some(outs.into_iter().map(|o| o.expect("checked above")).collect())
    }

    fn pre_activation_stats(&self) -> BufferStats {
        self.sessions.stats()
    }
}

impl<N: MuxNode> ProtocolInstance for SessionHost<N> {
    type Message = Envelope;
    type Output = Vec<N::Output>;

    fn on_activation(&mut self) -> Step<Envelope> {
        MuxNode::on_activation(self)
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        self.on_envelope(from, msg.path, &msg.payload)
    }

    fn output(&self) -> Option<Vec<N::Output>> {
        MuxNode::output(self)
    }

    fn pre_activation_stats(&self) -> BufferStats {
        MuxNode::pre_activation_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Dest;
    use proptest::prelude::*;

    #[test]
    fn path_push_and_split_roundtrip() {
        let mut p = InstancePath::root();
        assert!(p.is_root());
        p.push_front(PathSeg::new(3, 7));
        p.push_front(PathSeg::new(1, 40000));
        assert_eq!(p.depth(), 2);
        let (first, rest) = p.split_first().unwrap();
        assert_eq!(first, PathSeg::new(1, 40000));
        let (second, rest) = rest.split_first().unwrap();
        assert_eq!(second, PathSeg::new(3, 7));
        assert!(rest.is_root());
        assert!(rest.split_first().is_none());
    }

    #[test]
    #[should_panic(expected = "deeper than MAX_PATH_SEGMENTS")]
    fn path_overflow_panics() {
        let mut p = InstancePath::root();
        for i in 0..=MAX_PATH_SEGMENTS {
            p.push_front(PathSeg::new(0, i));
        }
    }

    #[test]
    fn malformed_path_length_rejected() {
        // Length not a multiple of the segment size.
        let err = setupfree_wire::from_bytes::<InstancePath>(&[2, 0xaa, 0xbb]).unwrap_err();
        assert!(matches!(err, WireError::InvalidValue { ty: "InstancePath" }));
        // Length beyond the maximum depth.
        let mut bytes = vec![(MAX_PATH_BYTES + SEG_BYTES) as u8];
        bytes.extend(std::iter::repeat_n(0u8, MAX_PATH_BYTES + SEG_BYTES));
        let err = setupfree_wire::from_bytes::<InstancePath>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::InvalidValue { ty: "InstancePath" }));
        // Truncated: header promises more bytes than present.
        let err = setupfree_wire::from_bytes::<InstancePath>(&[6, 1, 2, 3]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEnd { .. }));
    }

    #[test]
    fn envelope_seal_open_roundtrip() {
        let env = Envelope::seal(InstancePath::of(PathSeg::new(2, 9)), &(7u32, true));
        let bytes = setupfree_wire::to_bytes(&env);
        let decoded: Envelope = setupfree_wire::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, env);
        assert_eq!(decoded.open::<(u32, bool)>(), Some((7, true)));
        assert_eq!(decoded.open::<(u64, u64)>(), None, "wrong-type payloads are rejected");
    }

    #[test]
    fn step_prefix_is_in_place_and_order_preserving() {
        let mut inner: Step<u32> = Step::multicast(5);
        inner.push_send(PartyId(2), 6);
        let step = sealed_step(PathSeg::new(4, 1), inner).prefix(PathSeg::new(9, 3));
        assert_eq!(step.outgoing.len(), 2);
        assert_eq!(step.outgoing[0].dest, Dest::All);
        assert_eq!(step.outgoing[1].dest, Dest::One(PartyId(2)));
        let segs: Vec<PathSeg> = step.outgoing[0].msg.path.segments().collect();
        assert_eq!(segs, vec![PathSeg::new(9, 3), PathSeg::new(4, 1)]);
        assert_eq!(step.outgoing[0].msg.open::<u32>(), Some(5));
    }

    /// A trivial leaf: echoes every received u32 back as a multicast and
    /// outputs the sum once it exceeds a threshold.
    #[derive(Debug)]
    struct SumLeaf {
        sum: u32,
        threshold: u32,
    }

    impl ProtocolInstance for SumLeaf {
        type Message = u32;
        type Output = u32;

        fn on_activation(&mut self) -> Step<u32> {
            Step::multicast(1)
        }

        fn on_message(&mut self, _from: PartyId, msg: u32) -> Step<u32> {
            self.sum += msg;
            Step::none()
        }

        fn output(&self) -> Option<u32> {
            (self.sum >= self.threshold).then_some(self.sum)
        }
    }

    #[test]
    fn router_buffers_until_insert_and_replays_in_order() {
        let mut router: Router<Leaf<SumLeaf>> = Router::new(7);
        let payload = |v: u32| setupfree_wire::to_shared_bytes(&v);
        // Traffic for child 3 before it exists.
        let s = router.route(PartyId(0), 3, InstancePath::root(), &payload(10));
        assert!(s.is_empty());
        let s = router.route(PartyId(1), 3, InstancePath::root(), &payload(20));
        assert!(s.is_empty());
        assert_eq!(router.buffered(), 2);
        // Creation replays both, and the activation multicast is wrapped.
        let step = router.insert(3, Leaf::new(SumLeaf { sum: 0, threshold: 30 }));
        assert_eq!(step.outgoing.len(), 1);
        let segs: Vec<PathSeg> = step.outgoing[0].msg.path.segments().collect();
        assert_eq!(segs, vec![PathSeg::new(7, 3)]);
        assert_eq!(router.buffered(), 0);
        assert_eq!(router.get(3).unwrap().inner().sum, 30);
        assert_eq!(MuxNode::output(router.get_mut(3).unwrap()), Some(30));
        // Post-creation traffic is delivered directly.
        let _ = router.route(PartyId(2), 3, InstancePath::root(), &payload(5));
        assert_eq!(router.get(3).unwrap().inner().sum, 35);
    }

    #[test]
    fn buffer_enforces_per_sender_cap_and_drops_duplicates() {
        let mut buffer = PreActivationBuffer::new(4);
        let payload = |v: u32| setupfree_wire::to_shared_bytes(&v);
        // Duplicates (same sender, path, bytes) are dropped.
        let p = payload(9);
        assert!(buffer.push(0, PartyId(1), InstancePath::root(), &p));
        assert!(!buffer.push(0, PartyId(1), InstancePath::root(), &p));
        assert_eq!(buffer.len(), 1);
        // A different sender with the same bytes is kept.
        assert!(buffer.push(0, PartyId(2), InstancePath::root(), &p));
        // Distinct payloads count towards the per-sender cap.
        for v in 0..10u32 {
            buffer.push(0, PartyId(1), InstancePath::root(), &payload(100 + v));
        }
        let from_p1 = buffer.entries[&0].iter().filter(|b| b.from == PartyId(1)).count();
        assert_eq!(from_p1, 4, "per-sender cap");
        assert!(buffer.dropped() > 0);
        // Caps are per child index: the same sender can buffer for another
        // child.
        assert!(buffer.push(1, PartyId(1), InstancePath::root(), &payload(1)));
    }

    #[test]
    fn session_host_runs_sessions_to_joint_output() {
        let mut host = SessionHost::new(vec![
            Leaf::new(SumLeaf { sum: 0, threshold: 5 }),
            Leaf::new(SumLeaf { sum: 0, threshold: 5 }),
        ]);
        let step = MuxNode::on_activation(&mut host);
        assert_eq!(step.outgoing.len(), 2);
        let segs: Vec<PathSeg> = step.outgoing[0].msg.path.segments().collect();
        assert_eq!(segs, vec![PathSeg::new(KIND_SESSION, 0)]);
        assert!(MuxNode::output(&host).is_none());
        let feed = |host: &mut SessionHost<Leaf<SumLeaf>>, session: u16, v: u32| {
            let path = InstancePath::of(PathSeg { kind: KIND_SESSION, index: session });
            let payload = setupfree_wire::to_shared_bytes(&v);
            let _ = host.on_envelope(PartyId(0), path, &payload);
        };
        feed(&mut host, 0, 9);
        assert!(MuxNode::output(&host).is_none(), "one session still undecided");
        feed(&mut host, 1, 9);
        assert_eq!(MuxNode::output(&host), Some(vec![9, 9]));
        // Unknown leading kinds are dropped.
        let stray = host.on_envelope(
            PartyId(0),
            InstancePath::of(PathSeg::new(3, 0)),
            &setupfree_wire::to_shared_bytes(&1u32),
        );
        assert!(stray.is_empty());
    }

    #[test]
    fn retired_children_drop_traffic_and_cannot_be_recreated() {
        let mut router: Router<Leaf<SumLeaf>> = Router::new(7);
        let payload = |v: u32| setupfree_wire::to_shared_bytes(&v);
        let _ = router.insert(0, Leaf::new(SumLeaf { sum: 0, threshold: 1 }));
        let _ = router.insert(1, Leaf::new(SumLeaf { sum: 0, threshold: 1 }));
        assert_eq!(router.live_children(), 2);
        // Retire child 0: its state is freed, late traffic is dropped (not
        // buffered — a flooder could otherwise park unbounded traffic
        // behind the tombstone).
        assert!(router.retire(0));
        assert_eq!(router.live_children(), 1);
        assert_eq!(router.retired_children(), 1);
        assert!(router.is_retired(0));
        assert!(!router.contains(0));
        let step = router.route(PartyId(2), 0, InstancePath::root(), &payload(5));
        assert!(step.is_empty());
        assert_eq!(router.buffered(), 0, "traffic to a retired child is not buffered");
        assert_eq!(router.stats().dropped, 1);
        // Retiring twice is idempotent; retiring a never-created child
        // leaves a tombstone and flushes its buffered traffic.
        assert!(!router.retire(0));
        let _ = router.route(PartyId(0), 5, InstancePath::root(), &payload(9));
        assert_eq!(router.buffered(), 1);
        assert!(!router.retire(5));
        assert_eq!(router.buffered(), 0, "retirement flushes the pre-activation buffer");
        assert!(router.is_retired(5));
    }

    /// A node reporting fixed buffer stats (stands in for a composite child
    /// with its own sub-router buffers).
    #[derive(Debug)]
    struct StatNode(BufferStats);

    impl MuxNode for StatNode {
        type Output = u32;

        fn on_activation(&mut self) -> Step<Envelope> {
            Step::none()
        }

        fn on_envelope(&mut self, _: PartyId, _: InstancePath, _: &Arc<[u8]>) -> Step<Envelope> {
            Step::none()
        }

        fn output(&self) -> Option<u32> {
            None
        }

        fn pre_activation_stats(&self) -> BufferStats {
            self.0
        }
    }

    #[test]
    fn retire_preserves_the_childs_accumulated_drop_history() {
        let mut router: Router<StatNode> = Router::new(3);
        let _ = router.insert(0, StatNode(BufferStats { buffered: 5, dropped: 7 }));
        let _ = router.insert(1, StatNode(BufferStats { buffered: 2, dropped: 1 }));
        assert_eq!(router.stats(), BufferStats { buffered: 7, dropped: 8 });
        router.retire(0);
        // Occupancy of the retired child is genuinely freed; its drop
        // history is folded into the router so the whole-run counter never
        // decreases.
        assert_eq!(router.stats(), BufferStats { buffered: 2, dropped: 8 });
    }

    #[test]
    #[should_panic(expected = "recreated after retirement")]
    fn recreating_a_retired_child_panics() {
        let mut router: Router<Leaf<SumLeaf>> = Router::new(7);
        let _ = router.insert(0, Leaf::new(SumLeaf { sum: 0, threshold: 1 }));
        router.retire(0);
        let _ = router.insert(0, Leaf::new(SumLeaf { sum: 0, threshold: 1 }));
    }

    #[test]
    fn typed_decode_cache_hits_share_one_decode_per_allocation() {
        let payload = setupfree_wire::to_shared_bytes(&(41u32, true));
        // Same allocation: first call decodes, second is served by the cache
        // (the debug re-encode assert inside verifies clone transparency).
        let a: Option<(u32, bool)> = decode_payload_cached(&payload);
        let b: Option<(u32, bool)> = decode_payload_cached(&payload);
        assert_eq!(a, Some((41, true)));
        assert_eq!(a, b);
        // A byte-identical but *distinct* allocation gets its own entry —
        // allocation identity, not byte equality, is the key (an
        // equivocating sender cannot poison another recipient's decode).
        let twin: Arc<[u8]> = payload.to_vec().into();
        assert!(!Arc::ptr_eq(&payload, &twin));
        let c: Option<(u32, bool)> = decode_payload_cached(&twin);
        assert_eq!(c, Some((41, true)));
        // Same allocation, different target type: entries are keyed by type
        // too, and a wrong-type decode still fails.
        let d: Option<(u64, u64)> = decode_payload_cached(&payload);
        assert_eq!(d, None);
    }

    #[test]
    fn typed_decode_cache_is_bounded() {
        // Flood the cache far past its capacity; the oldest entries are
        // evicted and re-decodes still succeed (correctness never depends on
        // a hit).
        let payloads: Vec<Arc<[u8]>> =
            (0..3 * DECODE_CACHE_CAPACITY as u32).map(|v| setupfree_wire::to_shared_bytes(&v)).collect();
        for (v, p) in payloads.iter().enumerate() {
            assert_eq!(decode_payload_cached::<u32>(p), Some(v as u32));
        }
        assert!(decode_cache_stats().entries <= DECODE_CACHE_CAPACITY);
        DECODE_CACHE.with(|c| {
            let c = c.borrow();
            assert_eq!(c.order.len(), c.entries.len(), "FIFO order and index stay in lockstep");
        });
        for (v, p) in payloads.iter().enumerate() {
            assert_eq!(decode_payload_cached::<u32>(p), Some(v as u32), "evicted entries re-decode");
        }
    }

    #[test]
    fn typed_decode_cache_hit_rate_and_equivocation_safety_survive_the_index() {
        // The O(1) index must not change *what* hits: same allocation hits,
        // byte-identical twins and other types miss.  Counters are
        // thread-local, so deltas are taken inside one test thread.
        let before = decode_cache_stats();
        let payload = setupfree_wire::to_shared_bytes(&0xfeedu16);
        assert_eq!(decode_payload_cached::<u16>(&payload), Some(0xfeed));
        for _ in 0..9 {
            // The n-fold multicast fan-out: every further recipient of the
            // same allocation is a hit.
            assert_eq!(decode_payload_cached::<u16>(&payload), Some(0xfeed));
        }
        let after = decode_cache_stats();
        assert_eq!(after.hits - before.hits, 9, "9 of 10 same-allocation decodes hit");
        assert_eq!(after.misses - before.misses, 1, "exactly one real decode");

        // Equivocation safety: a byte-identical twin allocation never hits
        // another send's entry, exactly as before the index.
        let twin: Arc<[u8]> = payload.to_vec().into();
        assert!(!Arc::ptr_eq(&payload, &twin));
        assert_eq!(decode_payload_cached::<u16>(&twin), Some(0xfeed));
        let twinned = decode_cache_stats();
        assert_eq!(twinned.hits, after.hits, "a distinct allocation must not hit");
        assert_eq!(twinned.misses, after.misses + 1);
    }

    #[test]
    fn envelope_path_session_reads_the_leading_session_segment() {
        let mut path = InstancePath::of(PathSeg::new(3, 7));
        path.push_front(PathSeg { kind: KIND_SESSION, index: 5 });
        let env = Envelope { path, payload: setupfree_wire::to_shared_bytes(&1u8) };
        assert_eq!(envelope_path(&env), ObsPath::from_segments(&[(KIND_SESSION, 5), (3, 7)]));
        assert_eq!(path_session(&envelope_path(&env)), Some(5));
        let unsessioned = Envelope::seal(InstancePath::of(PathSeg::new(3, 7)), &1u8);
        assert_eq!(path_session(&envelope_path(&unsessioned)), None);
        let root = Envelope::seal(InstancePath::root(), &1u8);
        assert_eq!(envelope_path(&root), ObsPath::ROOT);
        assert_eq!(path_session(&ObsPath::ROOT), None);
    }

    fn arb_path() -> impl Strategy<Value = InstancePath> {
        proptest::collection::vec((any::<u8>(), any::<u16>()), 0..MAX_PATH_SEGMENTS + 1).prop_map(
            |segs| {
                let mut p = InstancePath::root();
                for (kind, index) in segs.into_iter().rev() {
                    p.push_front(PathSeg { kind, index });
                }
                p
            },
        )
    }

    proptest! {
        #[test]
        fn prop_path_wire_roundtrip(path in arb_path()) {
            let bytes = setupfree_wire::to_bytes(&path);
            prop_assert_eq!(setupfree_wire::from_bytes::<InstancePath>(&bytes).unwrap(), path);
        }

        #[test]
        fn prop_envelope_wire_roundtrip(
            path in arb_path(),
            payload in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let env = Envelope { path, payload: payload.into() };
            let bytes = setupfree_wire::to_bytes(&env);
            let decoded: Envelope = setupfree_wire::from_bytes(&bytes).unwrap();
            prop_assert_eq!(decoded, env);
        }

        #[test]
        fn prop_envelope_truncation_rejected(
            path in arb_path(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            // Cutting into the path header (not the payload, which is
            // tail-encoded) must fail, never panic.
            let env = Envelope { path, payload: payload.into() };
            let bytes = setupfree_wire::to_bytes(&env);
            let header = 1 + path.as_bytes().len();
            for cut in 0..header {
                prop_assert!(setupfree_wire::from_bytes::<Envelope>(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = setupfree_wire::from_bytes::<Envelope>(&bytes);
            let _ = setupfree_wire::from_bytes::<InstancePath>(&bytes);
        }

        #[test]
        fn prop_split_first_inverts_push_front(path in arb_path(), kind in any::<u8>(), index in any::<u16>()) {
            prop_assume!(path.depth() < MAX_PATH_SEGMENTS);
            let seg = PathSeg { kind, index };
            let mut pushed = path;
            pushed.push_front(seg);
            let (first, rest) = pushed.split_first().unwrap();
            prop_assert_eq!(first, seg);
            prop_assert_eq!(rest, path);
        }
    }
}
