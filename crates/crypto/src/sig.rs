//! EUF-CMA digital signatures (Schnorr over the discrete-log group, in the
//! random-oracle model).
//!
//! These are the bulletin-PKI signatures used by every protocol in the paper:
//! the `KeyStored` acknowledgements of the AVSS dealer (Alg 1), the
//! `Confirm`/`Commit` quorum proofs of WCS (Alg 3), the `AggPvssStored`
//! certificates of Seeding (Alg 7), and the quorum certificates of the VBA's
//! provable broadcasts (§7.2).  Signatures are always domain-separated by a
//! protocol session identifier, mirroring the paper's `Sign^ID_i(m)` notation.

use std::fmt;

use rand::Rng;
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::group::GroupElement;
use crate::hash::{hash_block, hash_fields, Digest, BLOCK_PAYLOAD_MAX, BLOCK_TAG_LEN, DIGEST_LEN};
use crate::multiexp;
use crate::scalar::Scalar;

/// Serialized signature length in bytes (challenge + response scalars).
pub const SIGNATURE_LEN: usize = 16;

/// [`hash_block`] tags of the one-compression random oracles: the nonce
/// `H(sk ‖ μ)`, the challenge `H(R ‖ pk ‖ μ)` and the aggregation-weight
/// expansion `H(agg-bind digest ‖ j)`.
const NONCE_TAG: &[u8; BLOCK_TAG_LEN] = b"sig/nk\xff";
const CHALLENGE_TAG: &[u8; BLOCK_TAG_LEN] = b"sig/ch\xff";
const WEIGHT_TAG: &[u8; BLOCK_TAG_LEN] = b"sig/zw\xff";

/// A Schnorr signing key.
#[derive(Clone)]
pub struct SigningKey {
    sk: Scalar,
    pk: VerifyingKey,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret exponent.
        write!(f, "SigningKey(pk={:?})", self.pk)
    }
}

/// A Schnorr verification (public) key, registered at the bulletin PKI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(GroupElement);

/// A Schnorr signature `(c, s)` with `c` the Fiat–Shamir challenge and `s`
/// the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    c: Scalar,
    s: Scalar,
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let sk = Scalar::random_nonzero(rng);
        Self::from_secret(sk)
    }

    /// Builds a key pair from a known secret exponent (used by tests and by
    /// the "maliciously generated key" adversary hooks).
    pub fn from_secret(sk: Scalar) -> Self {
        let pk = VerifyingKey(multiexp::fixed_pow_g1(sk));
        SigningKey { sk, pk }
    }

    /// The corresponding verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.pk
    }

    /// Secret verifier-side entropy derived from the signing key, for the
    /// random weights of local batch verifications (e.g.
    /// [`crate::pedersen::PedersenCommitment::verify_shares_batch`]).  Never
    /// leaves the party, so an adversary fixing the batched claims cannot
    /// predict the weights derived from it.
    pub fn batch_entropy(&self) -> [u8; 32] {
        hash_fields("setupfree/sig/batch-entropy", &[&self.sk.to_bytes()])
    }

    /// Signs `message` under the given domain-separation `context`
    /// (the paper's `Sign^ID_i(m)`).
    pub fn sign(&self, context: &[u8], message: &[u8]) -> Signature {
        self.sign_digest(&MessageDigest::new(context, message))
    }

    /// Signs the statement `mu` stands for; equal to [`SigningKey::sign`]
    /// on the `(context, message)` it was computed from.
    pub fn sign_digest(&self, mu: &MessageDigest) -> Signature {
        // Derandomized nonce: k = H(sk ‖ μ).  Deterministic signing keeps the
        // protocol state machines reproducible under a fixed seed.
        let k = nonzero(oracle_scalar(NONCE_TAG, &[&self.sk.to_bytes(), &mu.0]));
        let r = multiexp::fixed_pow_g1(k);
        let c = challenge(&r, &self.pk, mu);
        let s = k + c * self.sk;
        Signature { c, s }
    }
}

impl VerifyingKey {
    /// Verifies `sig` on `(context, message)`.
    pub fn verify(&self, context: &[u8], message: &[u8], sig: &Signature) -> bool {
        self.verify_digest(&MessageDigest::new(context, message), sig)
    }

    /// Verifies `sig` on the statement `mu` stands for.
    pub fn verify_digest(&self, mu: &MessageDigest, sig: &Signature) -> bool {
        // R' = g^s * pk^{-c}; valid iff H(R' ‖ pk ‖ μ) == c.  The g-part
        // uses the fixed-base table and pk^{-c} is a single exponentiation
        // with the negated scalar (order-q elements satisfy x^{-c} = x^{q-c}),
        // avoiding the full field inversion the naive form would pay.
        let r = multiexp::fixed_pow_g1(sig.s) * self.0.pow(sig.c.negate());
        challenge(&r, self, mu) == sig.c
    }

    /// The underlying group element.
    pub fn element(&self) -> GroupElement {
        self.0
    }
}

/// The digest `μ = H(ctx, m)` of a signed statement, which the nonce, the
/// challenge and the aggregation transcript bind instead of the raw bytes.
///
/// Each `(context, message)` method hashes its message into a fresh `μ`,
/// so a certificate check costs `O(k + |m|)` hashing rather than
/// `O(k·|m|)`.  A party that signs, verifies or certifies one statement
/// several times computes `μ` once and passes it to the `*_digest`
/// methods instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageDigest(Digest);

impl MessageDigest {
    /// Hashes the statement `message` under `context`.
    pub fn new(context: &[u8], message: &[u8]) -> Self {
        MessageDigest(hash_fields("setupfree/sig/message", &[context, message]))
    }
}

/// `H(tag ‖ parts)` in one compression, reduced to a scalar.
fn oracle_scalar(tag: &[u8; BLOCK_TAG_LEN], parts: &[&[u8]]) -> Scalar {
    let mut payload = [0u8; BLOCK_PAYLOAD_MAX];
    let mut len = 0;
    for part in parts {
        payload[len..len + part.len()].copy_from_slice(part);
        len += part.len();
    }
    let digest = hash_block(tag, &payload[..len]);
    Scalar::from_le_128(digest[..16].try_into().expect("16 bytes"))
}

/// Maps the (negligibly likely) zero scalar to one, for nonces and weights.
fn nonzero(x: Scalar) -> Scalar {
    if x.is_zero() {
        Scalar::one()
    } else {
        x
    }
}

/// The Fiat–Shamir challenge `c = H(R ‖ pk ‖ μ)`.
fn challenge(r: &GroupElement, pk: &VerifyingKey, mu: &MessageDigest) -> Scalar {
    oracle_scalar(CHALLENGE_TAG, &[&r.to_bytes(), &pk.0.to_bytes(), &mu.0])
}

// ---------------------------------------------------------------------------
// Half-aggregation of Schnorr signatures over a repeated message.
// ---------------------------------------------------------------------------

/// Why an aggregation or certificate operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// No signatures were provided.
    Empty,
    /// The same signer index appeared more than once.
    DuplicateSigner(usize),
    /// A signer index is not registered at the PKI (`index ≥ n`).
    SignerOutOfRange(usize),
    /// Per-signature verification identified these contributions as invalid;
    /// the remaining entries are fine and can be re-aggregated without them.
    BadContributors(Vec<usize>),
    /// Fewer valid signatures than the pinned quorum size.
    BelowQuorum {
        /// Number of signatures provided.
        have: usize,
        /// The pinned quorum size.
        need: usize,
    },
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::Empty => write!(f, "no signatures to aggregate"),
            AggregateError::DuplicateSigner(i) => write!(f, "duplicate signer {i}"),
            AggregateError::SignerOutOfRange(i) => write!(f, "signer {i} out of range"),
            AggregateError::BadContributors(v) => write!(f, "invalid contributions from {v:?}"),
            AggregateError::BelowQuorum { have, need } => {
                write!(f, "only {have} valid signatures, quorum needs {need}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// A half-aggregated Schnorr multi-signature on one repeated `(ctx, msg)`.
///
/// The aggregator keeps each signer's nonce commitment `R_i` (recomputed from
/// the individual signature via the verification equation `R_i = g^{s_i} ·
/// pk_i^{-c_i}`) but collapses the `k` response scalars into one random
/// linear combination `s̄ = Σ z_i·s_i`, with the weights `z_i` derived by
/// Fiat–Shamir from the full transcript (signer bitmap, all `R_i`, and the
/// message digest `μ = H(ctx, msg)`).  Verification checks the combined
/// equation
///
/// ```text
///   g^{s̄}  ==  Π R_i^{z_i} · Π pk_i^{c_i·z_i}
/// ```
///
/// with a single fixed-base exponentiation and one Pippenger multi-exp over
/// `2k` bases — and the wire carries one response scalar instead of `k`,
/// and a `⌈n/8⌉`-byte signer bitmap instead of `k` party ids.  The bitmap
/// representation makes duplicate signers unrepresentable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateSignature {
    /// Signer bitmap: bit `i` (byte `i/8`, bit `i%8`) set iff party `i`
    /// contributed.  Trailing zero bytes are non-canonical and rejected.
    signers: Vec<u8>,
    /// Nonce commitments `R_i`, in ascending signer order.
    rs: Vec<GroupElement>,
    /// Weighted aggregate response `s̄ = Σ z_i·s_i`.
    s: Scalar,
}

fn bitmap_indices(bitmap: &[u8]) -> impl Iterator<Item = usize> + '_ {
    bitmap.iter().enumerate().flat_map(|(byte, bits)| {
        (0..8).filter_map(move |bit| (bits & (1 << bit) != 0).then_some(byte * 8 + bit))
    })
}

/// The Fiat–Shamir weights of `k` signers (by ascending index) given the
/// transcript digest: block `j = H(digest ‖ j)` of one expansion yields the
/// weights of slots `2j` and `2j + 1` from its two 128-bit halves, so `k`
/// weights cost `⌈k/2⌉` compressions.  Weights are fixed only after every
/// `R_i` and the signer set are, so a forger cannot steer the linear
/// combination.
fn agg_weights(digest: &Digest, k: usize) -> Vec<Scalar> {
    let mut payload = [0u8; DIGEST_LEN + 8];
    payload[..DIGEST_LEN].copy_from_slice(digest);
    (0..k.div_ceil(2) as u64)
        .flat_map(|j| {
            payload[DIGEST_LEN..].copy_from_slice(&j.to_le_bytes());
            let block = hash_block(WEIGHT_TAG, &payload);
            let half = |i: usize| {
                nonzero(Scalar::from_le_128(block[16 * i..16 * (i + 1)].try_into().expect("16 bytes")))
            };
            [half(0), half(1)]
        })
        .take(k)
        .collect()
}

impl AggregateSignature {
    /// Aggregates individual signatures on one `(context, message)` into a
    /// half-aggregated multi-signature.
    ///
    /// Each input signature is verified while its nonce commitment is
    /// recomputed, so invalid contributions are identified by signer index
    /// ([`AggregateError::BadContributors`]) rather than poisoning the
    /// aggregate — the caller drops them and re-aggregates the rest.
    pub fn aggregate(
        entries: &[(usize, Signature)],
        keys: &[VerifyingKey],
        context: &[u8],
        message: &[u8],
    ) -> Result<Self, AggregateError> {
        Self::aggregate_digest(entries, keys, &MessageDigest::new(context, message))
    }

    fn aggregate_digest(
        entries: &[(usize, Signature)],
        keys: &[VerifyingKey],
        mu: &MessageDigest,
    ) -> Result<Self, AggregateError> {
        if entries.is_empty() {
            return Err(AggregateError::Empty);
        }
        let mut sorted: Vec<(usize, Signature)> = entries.to_vec();
        sorted.sort_by_key(|(i, _)| *i);
        for pair in sorted.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(AggregateError::DuplicateSigner(pair[0].0));
            }
        }
        if let Some(&(i, _)) = sorted.iter().find(|(i, _)| *i >= keys.len()) {
            return Err(AggregateError::SignerOutOfRange(i));
        }
        let mut bad = Vec::new();
        let mut rs = Vec::with_capacity(sorted.len());
        for &(i, sig) in &sorted {
            // R_i = g^{s_i} · pk_i^{-c_i}; the signature is valid iff the
            // challenge recomputed from R_i matches c_i.
            let r = multiexp::fixed_pow_g1(sig.s) * keys[i].0.pow(sig.c.negate());
            if challenge(&r, &keys[i], mu) != sig.c {
                bad.push(i);
            }
            rs.push(r);
        }
        if !bad.is_empty() {
            return Err(AggregateError::BadContributors(bad));
        }
        let mut signers = vec![0u8; keys.len().div_ceil(8)];
        for &(i, _) in &sorted {
            signers[i / 8] |= 1 << (i % 8);
        }
        while signers.last() == Some(&0) {
            signers.pop();
        }
        let digest = Self::transcript_digest(&signers, &rs, mu);
        let weights = agg_weights(&digest, sorted.len());
        let s = sorted.iter().zip(weights).map(|(&(_, sig), z)| z * sig.s).sum();
        Ok(AggregateSignature { signers, rs, s })
    }

    fn transcript_digest(signers: &[u8], rs: &[GroupElement], mu: &MessageDigest) -> Digest {
        let mut r_bytes = Vec::with_capacity(rs.len() * 8);
        for r in rs {
            r_bytes.extend_from_slice(&r.to_bytes());
        }
        hash_fields("setupfree/sig/agg-bind", &[signers, &r_bytes, &mu.0])
    }

    /// Verifies the aggregate against the registered keys with one fixed-base
    /// exponentiation and a single multi-exponentiation over `2k` bases.
    pub fn verify(&self, keys: &[VerifyingKey], context: &[u8], message: &[u8]) -> bool {
        self.verify_digest(keys, &MessageDigest::new(context, message))
    }

    fn verify_digest(&self, keys: &[VerifyingKey], mu: &MessageDigest) -> bool {
        if self.rs.is_empty() || self.signers.last() == Some(&0) {
            return false;
        }
        let indices: Vec<usize> = bitmap_indices(&self.signers).collect();
        if indices.len() != self.rs.len() || indices.last().is_some_and(|&i| i >= keys.len()) {
            return false;
        }
        let digest = Self::transcript_digest(&self.signers, &self.rs, mu);
        let weights = agg_weights(&digest, indices.len());
        let mut bases = Vec::with_capacity(2 * indices.len());
        let mut exps = Vec::with_capacity(2 * indices.len());
        for ((&i, &r), z) in indices.iter().zip(&self.rs).zip(weights) {
            let c = challenge(&r, &keys[i], mu);
            bases.push(r);
            exps.push(z);
            bases.push(keys[i].0);
            exps.push(c * z);
        }
        multiexp::fixed_pow_g1(self.s) == multiexp::multi_exp(&bases, &exps)
    }

    /// Signer indices in ascending order.
    pub fn signer_indices(&self) -> Vec<usize> {
        bitmap_indices(&self.signers).collect()
    }

    /// Number of contributing signers.
    pub fn signer_count(&self) -> usize {
        self.signers.iter().map(|b| b.count_ones() as usize).sum()
    }
}

impl Encode for AggregateSignature {
    fn encode(&self, w: &mut Writer) {
        self.signers.encode(w);
        self.rs.encode(w);
        self.s.encode(w);
    }
}

impl Decode for AggregateSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let signers = Vec::<u8>::decode(r)?;
        let rs = Vec::<GroupElement>::decode(r)?;
        let s = Scalar::decode(r)?;
        // Internal consistency: bitmap popcount matches the commitment count
        // and the bitmap has no non-canonical trailing zero bytes.
        let count: usize = signers.iter().map(|b| b.count_ones() as usize).sum();
        if count != rs.len() || count == 0 || signers.last() == Some(&0) {
            return Err(WireError::InvalidValue { ty: "AggregateSignature" });
        }
        Ok(AggregateSignature { signers, rs, s })
    }
}

/// A quorum certificate: an aggregated multi-signature plus the pinned quorum
/// size it must meet.
///
/// This is the compact wire form of the paper's `Σ = {Sign^ID_i(m)}` quorum
/// justifications: one [`AggregateSignature`] instead of `n − f` individual
/// `(PartyId, Signature)` pairs.  Construction rejects duplicate and
/// out-of-range signers and identifies bad contributions by per-signature
/// verification; [`QuorumCert::verify`] additionally pins the signer count to
/// the quorum, and [`QuorumCert::verify_within`] restricts the signer set to
/// an explicit membership list (committee-relative quorums).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCert {
    quorum: u32,
    agg: AggregateSignature,
}

impl QuorumCert {
    /// Builds a certificate from at least `quorum` verified signatures.
    pub fn new(
        quorum: usize,
        entries: &[(usize, Signature)],
        keys: &[VerifyingKey],
        context: &[u8],
        message: &[u8],
    ) -> Result<Self, AggregateError> {
        Self::new_digest(quorum, entries, keys, &MessageDigest::new(context, message))
    }

    /// [`QuorumCert::new`] on the statement `mu` stands for.
    pub fn new_digest(
        quorum: usize,
        entries: &[(usize, Signature)],
        keys: &[VerifyingKey],
        mu: &MessageDigest,
    ) -> Result<Self, AggregateError> {
        if entries.len() < quorum {
            return Err(AggregateError::BelowQuorum { have: entries.len(), need: quorum });
        }
        let agg = AggregateSignature::aggregate_digest(entries, keys, mu)?;
        Ok(QuorumCert { quorum: quorum as u32, agg })
    }

    /// The pinned quorum size.
    pub fn quorum(&self) -> usize {
        self.quorum as usize
    }

    /// Signer indices in ascending order.
    pub fn signer_indices(&self) -> Vec<usize> {
        self.agg.signer_indices()
    }

    /// Number of contributing signers.
    pub fn signer_count(&self) -> usize {
        self.agg.signer_count()
    }

    /// Verifies the certificate: at least `quorum` distinct registered
    /// signers and a valid aggregate on `(context, message)`.
    pub fn verify(&self, keys: &[VerifyingKey], context: &[u8], message: &[u8]) -> bool {
        self.verify_digest(keys, &MessageDigest::new(context, message))
    }

    /// [`QuorumCert::verify`] on the statement `mu` stands for.
    pub fn verify_digest(&self, keys: &[VerifyingKey], mu: &MessageDigest) -> bool {
        self.agg.signer_count() >= self.quorum() && self.agg.verify_digest(keys, mu)
    }

    /// Verifies the certificate against a committee: every signer must be in
    /// `members` (global party indices), with at least `quorum` of them.
    pub fn verify_within(
        &self,
        keys: &[VerifyingKey],
        members: &[usize],
        context: &[u8],
        message: &[u8],
    ) -> bool {
        self.agg.signer_indices().iter().all(|i| members.contains(i))
            && self.verify(keys, context, message)
    }
}

impl Encode for QuorumCert {
    fn encode(&self, w: &mut Writer) {
        w.write_u32(self.quorum);
        self.agg.encode(w);
    }
}

impl Decode for QuorumCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let quorum = r.read_u32()?;
        let agg = AggregateSignature::decode(r)?;
        Ok(QuorumCert { quorum, agg })
    }
}

impl Encode for VerifyingKey {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decode for VerifyingKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VerifyingKey(GroupElement::decode(r)?))
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        self.c.encode(w);
        self.s.encode(w);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Signature { c: Scalar::decode(r)?, s: Scalar::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = keypair(1);
        let sig = sk.sign(b"ctx", b"hello");
        assert!(sk.verifying_key().verify(b"ctx", b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = keypair(2);
        let sig = sk.sign(b"ctx", b"hello");
        assert!(!sk.verifying_key().verify(b"ctx", b"hellp", &sig));
    }

    #[test]
    fn wrong_context_rejected() {
        let sk = keypair(3);
        let sig = sk.sign(b"ctx-a", b"hello");
        assert!(!sk.verifying_key().verify(b"ctx-b", b"hello", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = keypair(4);
        let sk2 = keypair(5);
        let sig = sk1.sign(b"ctx", b"hello");
        assert!(!sk2.verifying_key().verify(b"ctx", b"hello", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let sk = keypair(6);
        assert_eq!(sk.sign(b"c", b"m"), sk.sign(b"c", b"m"));
    }

    #[test]
    fn known_answer() {
        // Pins the signature definition: nonce SHA-256("sig/nk" 0xff ‖ sk
        // ‖ μ), challenge SHA-256("sig/ch" 0xff ‖ R ‖ pk ‖ μ), each reduced
        // from its first 16 bytes, with μ = H(ctx, m).  Any change to the
        // hashing changes these bytes, which were cross-checked against a
        // separate implementation of the same definition over an
        // independent SHA-256 (`c ‖ s`, little-endian).
        let sk = SigningKey::from_secret(Scalar::from_u64(0x0123_4567_89ab_cdef));
        let sig = sk.sign(b"setupfree/kat", b"known answer");
        assert_eq!(
            setupfree_wire::to_bytes(&sig),
            [190, 210, 80, 25, 112, 127, 128, 17, 146, 161, 5, 245, 197, 4, 54, 12]
        );
        assert!(sk.verifying_key().verify(b"setupfree/kat", b"known answer", &sig));
    }

    /// SHA-256 compressions `op` runs on this thread.
    fn compressions_of<T>(op: impl FnOnce() -> T) -> u64 {
        let before = crate::hash::compressions();
        std::hint::black_box(op());
        crate::hash::compressions() - before
    }

    /// Blocks SHA-256 pads an `len`-byte input to.
    fn blocks(len: usize) -> u64 {
        (len + 9).div_ceil(64) as u64
    }

    #[test]
    fn hashing_cost_per_operation() {
        // Op-count goldens: μ, then one compression each for the nonce and
        // the challenge of a signature, the challenge of a verification,
        // and per certificate check the agg-bind transcript, ⌈k/2⌉ weight
        // blocks and k challenges.
        let (sks, pks) = quorum_setup(7, 23);
        let (ctx, msg) = (b"session/avss/keystored".as_slice(), [7u8; 19]);
        let entries = signed_entries(&sks, &[0, 2, 3, 5, 6], ctx, &msg);
        let cert = QuorumCert::new(5, &entries, &pks, ctx, &msg).unwrap();
        // "setupfree/sig/message" framed, the field count, two framed fields.
        let mu = blocks(8 + 21 + 8 + 8 + ctx.len() + 8 + msg.len());
        assert_eq!(mu, 2);
        assert_eq!(compressions_of(|| MessageDigest::new(ctx, &msg)), mu);
        assert_eq!(compressions_of(|| sks[1].sign(ctx, &msg)), mu + 2);
        assert_eq!(compressions_of(|| pks[0].verify(ctx, &msg, &entries[0].1)), mu + 1);
        // "setupfree/sig/agg-bind" framed, the count, a 1-byte bitmap, five
        // 8-byte commitments and μ.
        let agg_bind = blocks(8 + 22 + 8 + 8 + 1 + 8 + 5 * 8 + 8 + 32);
        assert_eq!(agg_bind, 3);
        assert_eq!(compressions_of(|| cert.verify(&pks, ctx, &msg)), mu + agg_bind + 3 + 5);
        let digest = MessageDigest::new(ctx, &msg);
        assert_eq!(compressions_of(|| sks[1].sign_digest(&digest)), 2);
        assert_eq!(compressions_of(|| pks[0].verify_digest(&digest, &entries[0].1)), 1);
        assert_eq!(compressions_of(|| cert.verify_digest(&pks, &digest)), agg_bind + 3 + 5);
    }

    #[test]
    fn digest_methods_match_message_methods() {
        let (sks, pks) = quorum_setup(4, 24);
        let digest = MessageDigest::new(b"ctx", b"msg");
        let sig = sks[0].sign(b"ctx", b"msg");
        assert_eq!(sks[0].sign_digest(&digest), sig);
        assert!(pks[0].verify_digest(&digest, &sig));
        assert!(!pks[0].verify_digest(&MessageDigest::new(b"ctx", b"msh"), &sig));
        let entries = signed_entries(&sks, &[0, 1, 3], b"ctx", b"msg");
        let cert = QuorumCert::new_digest(3, &entries, &pks, &digest).unwrap();
        assert_eq!(cert, QuorumCert::new(3, &entries, &pks, b"ctx", b"msg").unwrap());
        assert!(cert.verify_digest(&pks, &digest));
        assert!(!cert.verify_digest(&pks, &MessageDigest::new(b"ctx", b"msh")));
    }

    #[test]
    fn weights_are_one_block_expansion() {
        // Reference: block j = SHA-256("sig/zw" 0xff ‖ digest ‖ j as u64 LE)
        // on the streaming hasher; slot 2j reduces bytes 0..16, slot 2j + 1
        // bytes 16..32.
        let digest: Digest = std::array::from_fn(|i| (i * 7 + 3) as u8);
        for k in 1..=9 {
            let expected: Vec<Scalar> = (0..k)
                .map(|slot| {
                    let mut input = WEIGHT_TAG.to_vec();
                    input.extend_from_slice(&digest);
                    input.extend_from_slice(&((slot / 2) as u64).to_le_bytes());
                    let block = crate::hash::sha256(&input);
                    let half = &block[16 * (slot % 2)..16 * (slot % 2 + 1)];
                    nonzero(Scalar::from_le_128(half.try_into().unwrap()))
                })
                .collect();
            let mut weights = Vec::new();
            assert_eq!(compressions_of(|| weights = agg_weights(&digest, k)), k.div_ceil(2) as u64);
            assert_eq!(weights, expected, "k = {k}");
        }
    }

    #[test]
    fn context_and_message_are_framed() {
        // Moving a byte across the context/message boundary is a different
        // statement, for single signatures and for certificates alike.
        let sk = keypair(9);
        let sig = sk.sign(b"ab", b"c");
        assert!(sk.verifying_key().verify(b"ab", b"c", &sig));
        assert!(!sk.verifying_key().verify(b"a", b"bc", &sig));
        assert!(!sk.verifying_key().verify(b"abc", b"", &sig));
        let (sks, pks) = quorum_setup(4, 21);
        let entries = signed_entries(&sks, &[0, 1, 2], b"ab", b"c");
        let cert = QuorumCert::new(3, &entries, &pks, b"ab", b"c").unwrap();
        assert!(cert.verify(&pks, b"ab", b"c"));
        assert!(!cert.verify(&pks, b"a", b"bc"));
        assert_eq!(
            QuorumCert::new(3, &entries, &pks, b"a", b"bc"),
            Err(AggregateError::BadContributors(vec![0, 1, 2]))
        );
    }

    #[test]
    fn quorum_cert_rejects_one_byte_changes() {
        let (sks, pks) = quorum_setup(7, 22);
        let ctx = b"session/avss/keystored".to_vec();
        let msg: Vec<u8> = (0..200u8).collect();
        let entries = signed_entries(&sks, &[0, 2, 3, 5, 6], &ctx, &msg);
        let cert = QuorumCert::new(5, &entries, &pks, &ctx, &msg).unwrap();
        assert!(cert.verify(&pks, &ctx, &msg));
        for pos in [0, ctx.len() / 2, ctx.len() - 1] {
            let mut bad = ctx.clone();
            bad[pos] ^= 1;
            assert!(!cert.verify(&pks, &bad, &msg), "context byte {pos}");
        }
        for pos in [0, msg.len() / 2, msg.len() - 1] {
            let mut bad = msg.clone();
            bad[pos] ^= 1;
            assert!(!cert.verify(&pks, &ctx, &bad), "message byte {pos}");
        }
        assert!(!cert.verify(&pks, &ctx, &msg[..msg.len() - 1]));
    }

    #[test]
    fn signature_wire_roundtrip() {
        let sk = keypair(7);
        let sig = sk.sign(b"c", b"m");
        let bytes = setupfree_wire::to_bytes(&sig);
        assert_eq!(bytes.len(), SIGNATURE_LEN);
        assert_eq!(setupfree_wire::from_bytes::<Signature>(&bytes).unwrap(), sig);
        let pk = sk.verifying_key();
        let pk_bytes = setupfree_wire::to_bytes(&pk);
        assert_eq!(setupfree_wire::from_bytes::<VerifyingKey>(&pk_bytes).unwrap(), pk);
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let sk = keypair(8);
        let printed = format!("{sk:?}");
        assert!(!printed.contains(&sk.sk.to_u64().to_string()));
    }

    fn quorum_setup(n: usize, seed: u64) -> (Vec<SigningKey>, Vec<VerifyingKey>) {
        let sks: Vec<SigningKey> = (0..n as u64).map(|i| keypair(seed * 1000 + i)).collect();
        let pks = sks.iter().map(SigningKey::verifying_key).collect();
        (sks, pks)
    }

    fn signed_entries(sks: &[SigningKey], signers: &[usize], ctx: &[u8], msg: &[u8]) -> Vec<(usize, Signature)> {
        signers.iter().map(|&i| (i, sks[i].sign(ctx, msg))).collect()
    }

    #[test]
    fn aggregate_roundtrip_verifies() {
        let (sks, pks) = quorum_setup(7, 10);
        let entries = signed_entries(&sks, &[0, 2, 3, 5, 6], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        assert!(agg.verify(&pks, b"ctx", b"msg"));
        assert_eq!(agg.signer_indices(), vec![0, 2, 3, 5, 6]);
        let bytes = setupfree_wire::to_bytes(&agg);
        let decoded = setupfree_wire::from_bytes::<AggregateSignature>(&bytes).unwrap();
        assert_eq!(decoded, agg);
        assert!(decoded.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn aggregate_is_compact_on_the_wire() {
        let (sks, pks) = quorum_setup(22, 11);
        let signers: Vec<usize> = (0..15).collect();
        let entries = signed_entries(&sks, &signers, b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        let agg_len = setupfree_wire::to_bytes(&agg).len();
        let naive_len = setupfree_wire::to_bytes(&entries).len();
        // bitmap (1+3) + 15 commitments (1+15·8) + one response (8) = 133 B,
        // versus 15 × (usize + 16-byte sig) pairs.
        assert!(agg_len * 2 < naive_len, "aggregate {agg_len} B vs naive {naive_len} B");
    }

    #[test]
    fn aggregate_rejects_wrong_message_and_context() {
        let (sks, pks) = quorum_setup(5, 12);
        let entries = signed_entries(&sks, &[0, 1, 2, 3], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        assert!(!agg.verify(&pks, b"ctx", b"other"));
        assert!(!agg.verify(&pks, b"other", b"msg"));
    }

    #[test]
    fn aggregate_identifies_bad_contributors() {
        let (sks, pks) = quorum_setup(6, 13);
        let mut entries = signed_entries(&sks, &[0, 1, 2, 3, 4], b"ctx", b"msg");
        entries[1].1 = sks[1].sign(b"ctx", b"different message");
        entries[3].1 = Signature { c: entries[3].1.c, s: entries[3].1.s + Scalar::one() };
        match AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg") {
            Err(AggregateError::BadContributors(bad)) => assert_eq!(bad, vec![1, 3]),
            other => panic!("expected BadContributors, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_rejects_duplicate_and_out_of_range_signers() {
        let (sks, pks) = quorum_setup(5, 14);
        let mut entries = signed_entries(&sks, &[0, 1, 2], b"ctx", b"msg");
        entries.push(entries[0]);
        assert_eq!(
            AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg"),
            Err(AggregateError::DuplicateSigner(0))
        );
        let oor = vec![(7usize, sks[0].sign(b"ctx", b"msg"))];
        assert_eq!(
            AggregateSignature::aggregate(&oor, &pks, b"ctx", b"msg"),
            Err(AggregateError::SignerOutOfRange(7))
        );
        assert_eq!(
            AggregateSignature::aggregate(&[], &pks, b"ctx", b"msg"),
            Err(AggregateError::Empty)
        );
    }

    #[test]
    fn forged_aggregate_rejected() {
        let (sks, pks) = quorum_setup(5, 15);
        let entries = signed_entries(&sks, &[0, 1, 2, 3], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        // Tamper the aggregate response.
        let mut forged = agg.clone();
        forged.s += Scalar::one();
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
        // Tamper one nonce commitment.
        let mut forged = agg.clone();
        forged.rs[2] = GroupElement::generator();
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn signer_bitmap_tampering_rejected() {
        let (sks, pks) = quorum_setup(8, 16);
        let entries = signed_entries(&sks, &[0, 1, 2, 3, 4], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        // Claim a different signer set (swap signer 4 for signer 5): the
        // transcript digest and challenges change, so verification fails.
        let mut forged = agg.clone();
        forged.signers[0] = (forged.signers[0] & !(1 << 4)) | (1 << 5);
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
        // Add a signer bit without a matching commitment: structurally invalid.
        let mut forged = agg.clone();
        forged.signers[0] |= 1 << 6;
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
        // Out-of-range signer bit.
        let mut forged = agg;
        forged.signers.push(0x01);
        forged.rs.push(GroupElement::generator());
        assert!(!forged.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn quorum_cert_verifies_and_pins_quorum() {
        let (sks, pks) = quorum_setup(7, 17);
        let entries = signed_entries(&sks, &[0, 1, 3, 4, 6], b"ctx", b"msg");
        let cert = QuorumCert::new(5, &entries, &pks, b"ctx", b"msg").unwrap();
        assert!(cert.verify(&pks, b"ctx", b"msg"));
        assert_eq!(cert.quorum(), 5);
        assert_eq!(cert.signer_count(), 5);
        let bytes = setupfree_wire::to_bytes(&cert);
        let decoded = setupfree_wire::from_bytes::<QuorumCert>(&bytes).unwrap();
        assert!(decoded.verify(&pks, b"ctx", b"msg"));
        // Below quorum at construction.
        assert_eq!(
            QuorumCert::new(6, &entries, &pks, b"ctx", b"msg"),
            Err(AggregateError::BelowQuorum { have: 5, need: 6 })
        );
        // A decoded cert whose quorum field was inflated must fail verify.
        let mut r = setupfree_wire::Reader::new(&bytes);
        let mut tampered = QuorumCert::decode(&mut r).unwrap();
        tampered.quorum = 6;
        assert!(!tampered.verify(&pks, b"ctx", b"msg"));
    }

    #[test]
    fn quorum_cert_rejects_non_members() {
        let (sks, pks) = quorum_setup(8, 18);
        let members = [1usize, 2, 4, 5, 7];
        let entries = signed_entries(&sks, &[1, 2, 4, 5], b"ctx", b"msg");
        let cert = QuorumCert::new(4, &entries, &pks, b"ctx", b"msg").unwrap();
        assert!(cert.verify_within(&pks, &members, b"ctx", b"msg"));
        // A cert padded with a valid signature from a non-member must reject
        // under the committee-relative check even though the aggregate itself
        // is valid.
        let padded = signed_entries(&sks, &[1, 2, 4, 5, 6], b"ctx", b"msg");
        let cert = QuorumCert::new(4, &padded, &pks, b"ctx", b"msg").unwrap();
        assert!(cert.verify(&pks, b"ctx", b"msg"));
        assert!(!cert.verify_within(&pks, &members, b"ctx", b"msg"));
    }

    #[test]
    fn aggregate_decode_rejects_inconsistent_bitmap() {
        let (sks, pks) = quorum_setup(5, 19);
        let entries = signed_entries(&sks, &[0, 1, 2], b"ctx", b"msg");
        let agg = AggregateSignature::aggregate(&entries, &pks, b"ctx", b"msg").unwrap();
        // Append a commitment without a bitmap bit.
        let mut forged = agg.clone();
        forged.rs.push(GroupElement::generator());
        let err = setupfree_wire::from_bytes::<AggregateSignature>(&setupfree_wire::to_bytes(&forged));
        assert!(err.is_err());
        // Trailing zero byte in the bitmap is non-canonical.
        let mut forged = agg;
        forged.signers.push(0);
        let err = setupfree_wire::from_bytes::<AggregateSignature>(&setupfree_wire::to_bytes(&forged));
        assert!(err.is_err());
    }

    proptest! {
        #[test]
        fn prop_aggregate_equivalent_to_per_sig_verification(
            seed in 0u64..1000,
            signer_mask in 1u8..64,
            tamper in proptest::option::of(0usize..6),
        ) {
            // The aggregate verifies iff every per-signature verification
            // passes — over random signer subsets and optional tampering.
            let (sks, pks) = quorum_setup(6, 20 + seed);
            let signers: Vec<usize> = (0..6).filter(|i| signer_mask & (1 << i) != 0).collect();
            let mut entries = signed_entries(&sks, &signers, b"p", b"m");
            if let Some(t) = tamper {
                if let Some(slot) = entries.iter().position(|(i, _)| *i == t) {
                    entries[slot].1 = sks[t].sign(b"p", b"tampered");
                }
            }
            let per_sig_ok = entries.iter().all(|(i, sig)| pks[*i].verify(b"p", b"m", sig));
            match AggregateSignature::aggregate(&entries, &pks, b"p", b"m") {
                Ok(agg) => {
                    prop_assert!(per_sig_ok);
                    prop_assert!(agg.verify(&pks, b"p", b"m"));
                }
                Err(AggregateError::BadContributors(bad)) => {
                    prop_assert!(!per_sig_ok);
                    for i in &bad {
                        prop_assert!(!pks[*i].verify(b"p", b"m", &entries.iter().find(|(j, _)| j == i).unwrap().1));
                    }
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }

        #[test]
        fn prop_valid_signatures_verify(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            let sk = keypair(seed);
            let sig = sk.sign(b"prop", &msg);
            prop_assert!(sk.verifying_key().verify(b"prop", &msg, &sig));
        }

        #[test]
        fn prop_tampered_signature_rejected(seed in any::<u64>(), delta in 1u64..1000) {
            let sk = keypair(seed);
            let sig = sk.sign(b"prop", b"msg");
            let bad = Signature { c: sig.c, s: sig.s + Scalar::from_u64(delta) };
            prop_assert!(!sk.verifying_key().verify(b"prop", b"msg", &bad));
        }
    }
}
