//! Aggregatable public verifiable secret sharing (Gurkan et al.,
//! EUROCRYPT '21), following the algorithm suite in the paper's Appendix B
//! (Alg 6): `Deal`, `VrfyScript`, `AggScripts`, `GetShare`, `VrfyShare`,
//! `AggShares`, `VrfySecret` and `Weights`, with per-contributor weight tags
//! authenticated by signatures of knowledge.
//!
//! The scheme is instantiated over the simulated bilinear group
//! ([`crate::pairing`]); see ARCHITECTURE.md §"Simulated pairing group" for
//! the substitution rationale.
//! Every verification equation from Alg 6 is implemented verbatim:
//!
//! * low-degree consistency of the evaluation vector (`∏ A_j^{ℓ_j(α)} = ∏ F_k^{α^k}`),
//! * `e(F_0, û_1) = e(g_1, û_2)`,
//! * `e(g_1, Ŷ_j) = e(A_j, ek_j)` for every share,
//! * signature-of-knowledge checks for every non-zero weight,
//! * `∏ C_i^{w_i} = F_0`.

use rand::Rng;
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::hash::hash_fields;
use crate::multiexp::powers_of;
use crate::pairing::{pairing, G1, G2};
use crate::poly::{lagrange_table, share_point_table, Polynomial};
use crate::scalar::Scalar;
use crate::sig::{Signature, SigningKey, VerifyingKey};

/// Parameters of a `(n, degree)` aggregatable PVSS: `n` receivers, secret
/// polynomial of degree `degree`, reconstruction from any `degree + 1`
/// shares.  The Seeding protocol uses `degree = 2f` (secrecy threshold
/// `2f + 1`, per Appendix B.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PvssParams {
    /// Number of receiving parties.
    pub n: usize,
    /// Degree of the shared polynomial.
    pub degree: usize,
}

impl PvssParams {
    /// Creates parameters, validating that reconstruction is possible.
    ///
    /// # Panics
    ///
    /// Panics if `degree + 1 > n`.
    pub fn new(n: usize, degree: usize) -> Self {
        assert!(degree < n, "cannot reconstruct a degree-{degree} polynomial with only {n} shares");
        PvssParams { n, degree }
    }

    /// Number of shares required to reconstruct.
    pub fn reconstruction_threshold(&self) -> usize {
        self.degree + 1
    }
}

/// A PVSS decryption key (held privately by each receiver).
#[derive(Debug, Clone, Copy)]
pub struct PvssDecryptionKey(pub(crate) Scalar);

/// A PVSS encryption key (registered at the bulletin PKI): `ek_i = ĥ_1^{dk_i}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PvssEncryptionKey(pub(crate) G2);

impl PvssDecryptionKey {
    /// Generates a fresh decryption/encryption key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> (Self, PvssEncryptionKey) {
        let dk = Scalar::random_nonzero(rng);
        (PvssDecryptionKey(dk), PvssEncryptionKey(G2::generator().pow(dk)))
    }

    /// Secret verifier-side entropy derived from the decryption key, for the
    /// random challenges of [`verify_single_dealer_batch`].  Never leaves the
    /// party, so an adversary fixing transcripts cannot predict the batch
    /// weights derived from it.
    pub fn batch_entropy(&self) -> [u8; 32] {
        hash_fields("setupfree/pvss/batch-entropy", &[&self.0.to_bytes()])
    }
}

/// The second G2 generator `û_1` (independent of `ĥ_1`), derived by hashing.
fn u1() -> G2 {
    G2::generator_pow(Scalar::from_hash("setupfree/pvss/u1", &[b"generator"]))
}

/// A decrypted share `ĥ_1^{F(ω_i)}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PvssShare(pub(crate) G2);

/// The reconstructed committed secret `ĥ_1^{F(0)}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PvssSecret(pub(crate) G2);

impl PvssSecret {
    /// Canonical byte representation, used to derive the λ-bit seed output by
    /// the Seeding protocol.
    pub fn to_seed_bytes(&self) -> [u8; 32] {
        hash_fields("setupfree/pvss/seed", &[&setupfree_wire::to_bytes(&self.0)])
    }
}

/// A PVSS transcript ("script" in the paper): the polynomial commitment, the
/// encrypted shares, and the aggregatable weight tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvssScript {
    /// `F_0 … F_t`: commitments to the polynomial coefficients (`g_1^{a_k}`).
    f_coeffs: Vec<G1>,
    /// `û_2 = û_1^{a_0}`.
    u2: G2,
    /// `A_1 … A_n`: commitments to the evaluations (`g_1^{F(ω_j)}`).
    a_evals: Vec<G1>,
    /// `Ŷ_1 … Ŷ_n`: encrypted shares (`ek_j^{F(ω_j)}`).
    y_encs: Vec<G2>,
    /// `C_i`: per-contributor commitments to their constant term.
    c_comms: Vec<Option<G1>>,
    /// Contribution weights `w`.
    weights: Vec<u32>,
    /// Signatures of knowledge binding each contribution to its author.
    soks: Vec<Option<Signature>>,
}

/// Error returned by the fallible PVSS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PvssError {
    /// The two scripts being aggregated have inconsistent dimensions.
    DimensionMismatch,
    /// Aggregation found two different commitments claimed by the same party.
    ConflictingContribution {
        /// The party whose contributions conflict.
        party: usize,
    },
    /// Not enough valid shares to reconstruct.
    NotEnoughShares {
        /// Shares provided.
        got: usize,
        /// Shares required.
        need: usize,
    },
    /// Duplicate share indices were provided to reconstruction.
    DuplicateShare {
        /// The duplicated index.
        index: usize,
    },
}

impl std::fmt::Display for PvssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PvssError::DimensionMismatch => write!(f, "pvss scripts have mismatched dimensions"),
            PvssError::ConflictingContribution { party } => {
                write!(f, "conflicting contribution for party {party}")
            }
            PvssError::NotEnoughShares { got, need } => {
                write!(f, "not enough shares to reconstruct: got {got}, need {need}")
            }
            PvssError::DuplicateShare { index } => write!(f, "duplicate share for index {index}"),
        }
    }
}

impl std::error::Error for PvssError {}

impl PvssScript {
    /// `Deal(ek, sk_i, s)`: produces a fresh single-contributor script for
    /// dealer `dealer` (0-based) sharing secret `secret`.
    pub fn deal<R: Rng + ?Sized>(
        params: &PvssParams,
        eks: &[PvssEncryptionKey],
        signing_key: &SigningKey,
        dealer: usize,
        secret: Scalar,
        rng: &mut R,
    ) -> Self {
        assert_eq!(eks.len(), params.n, "one encryption key per receiver is required");
        assert!(dealer < params.n, "dealer index out of range");
        let poly = Polynomial::random_with_constant(secret, params.degree, rng);
        let f_coeffs: Vec<G1> = poly.coeffs().iter().map(|c| G1::generator_pow(*c)).collect();
        let u2 = u1().pow(secret);
        let a_evals: Vec<G1> =
            (1..=params.n).map(|j| G1::generator_pow(poly.eval_at_index(j))).collect();
        let y_encs: Vec<G2> =
            (1..=params.n).map(|j| eks[j - 1].0.pow(poly.eval_at_index(j))).collect();
        let mut c_comms = vec![None; params.n];
        let mut weights = vec![0u32; params.n];
        let mut soks = vec![None; params.n];
        let c_i = G1::generator_pow(secret);
        c_comms[dealer] = Some(c_i);
        weights[dealer] = 1;
        soks[dealer] = Some(sok_sign(signing_key, dealer, &c_i));
        PvssScript { f_coeffs, u2, a_evals, y_encs, c_comms, weights, soks }
    }

    /// `Weights(pvss)`: the per-party contribution weight vector.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Number of distinct contributors (non-zero weights).
    pub fn contributor_count(&self) -> usize {
        self.weights.iter().filter(|w| **w > 0).count()
    }

    /// `F_0`, the commitment to the aggregated secret.
    pub fn public_commitment(&self) -> G1 {
        self.f_coeffs[0]
    }

    /// `VrfyScript(ek, vk, pvss)`: full public verification of the script.
    pub fn verify(
        &self,
        params: &PvssParams,
        eks: &[PvssEncryptionKey],
        vks: &[VerifyingKey],
    ) -> bool {
        if self.f_coeffs.len() != params.degree + 1
            || self.a_evals.len() != params.n
            || self.y_encs.len() != params.n
            || self.c_comms.len() != params.n
            || self.weights.len() != params.n
            || self.soks.len() != params.n
            || eks.len() != params.n
            || vks.len() != params.n
        {
            return false;
        }
        // (1) Low-degree consistency at a Fiat–Shamir challenge point α:
        //     ∏_j A_j^{ℓ_j(α)} must equal ∏_k F_k^{α^k}.  The coefficient
        //     vector comes from the cached share-point Lagrange table (O(n)
        //     after the first use) and both products are single multi-exps.
        let alpha = self.challenge_point();
        let coeffs = share_point_table(params.n).coefficients_at(alpha);
        let lhs = G1::multi_exp(&self.a_evals, &coeffs);
        let rhs = G1::multi_exp(&self.f_coeffs, &powers_of(alpha, self.f_coeffs.len()));
        if lhs != rhs {
            return false;
        }
        // (2) e(F_0, û_1) = e(g_1, û_2).
        if pairing(self.f_coeffs[0], u1()) != pairing(G1::generator(), self.u2) {
            return false;
        }
        // (3) e(g_1, Ŷ_j) = e(A_j, ek_j) for every receiver.
        for ((y_j, a_j), ek_j) in self.y_encs.iter().zip(&self.a_evals).zip(eks) {
            if pairing(G1::generator(), *y_j) != pairing(*a_j, ek_j.0) {
                return false;
            }
        }
        // (4) Signature-of-knowledge check for every claimed contributor.
        for (i, vk_i) in vks.iter().enumerate() {
            if self.weights[i] != 0 {
                match (&self.c_comms[i], &self.soks[i]) {
                    (Some(c_i), Some(sok)) => {
                        if !sok_verify(vk_i, i, c_i, sok) {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
        }
        // (5) ∏ C_i^{w_i} = F_0.
        let mut acc = G1::identity();
        for i in 0..params.n {
            if self.weights[i] != 0 {
                let c_i = match self.c_comms[i] {
                    Some(c) => c,
                    None => return false,
                };
                acc = acc * c_i.pow(Scalar::from_u64(u64::from(self.weights[i])));
            }
        }
        acc == self.f_coeffs[0]
    }

    /// Verifies a fresh single-dealer script: in addition to [`Self::verify`],
    /// requires weight exactly one at `dealer` and zero elsewhere (the check
    /// performed by the Seeding leader in Alg 7 line 19).
    pub fn verify_single_dealer(
        &self,
        params: &PvssParams,
        eks: &[PvssEncryptionKey],
        vks: &[VerifyingKey],
        dealer: usize,
    ) -> bool {
        if dealer >= params.n {
            return false;
        }
        let weights_ok = self
            .weights
            .iter()
            .enumerate()
            .all(|(i, w)| if i == dealer { *w == 1 } else { *w == 0 });
        weights_ok && self.verify(params, eks, vks)
    }

    /// `AggScripts(pvss1, pvss2)`: aggregates two scripts.
    ///
    /// # Errors
    ///
    /// Returns [`PvssError`] if the scripts have mismatched dimensions or
    /// conflicting per-party contributions.
    pub fn aggregate(&self, other: &PvssScript) -> Result<PvssScript, PvssError> {
        if self.f_coeffs.len() != other.f_coeffs.len()
            || self.a_evals.len() != other.a_evals.len()
            || self.y_encs.len() != other.y_encs.len()
        {
            return Err(PvssError::DimensionMismatch);
        }
        let f_coeffs =
            self.f_coeffs.iter().zip(other.f_coeffs.iter()).map(|(a, b)| *a * *b).collect();
        let u2 = self.u2 * other.u2;
        let a_evals = self.a_evals.iter().zip(other.a_evals.iter()).map(|(a, b)| *a * *b).collect();
        let y_encs = self.y_encs.iter().zip(other.y_encs.iter()).map(|(a, b)| *a * *b).collect();
        let n = self.weights.len();
        let mut c_comms = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        let mut soks = Vec::with_capacity(n);
        for i in 0..n {
            weights.push(self.weights[i] + other.weights[i]);
            let c = match (self.c_comms[i], other.c_comms[i]) {
                (Some(a), Some(b)) => {
                    if a != b {
                        return Err(PvssError::ConflictingContribution { party: i });
                    }
                    Some(a)
                }
                (Some(a), None) => Some(a),
                (None, b) => b,
            };
            c_comms.push(c);
            soks.push(self.soks[i].or(other.soks[i]));
        }
        Ok(PvssScript { f_coeffs, u2, a_evals, y_encs, c_comms, weights, soks })
    }

    /// Aggregates a non-empty collection of scripts.
    ///
    /// # Errors
    ///
    /// Propagates aggregation errors; errors if `scripts` is empty.
    pub fn aggregate_all(scripts: &[PvssScript]) -> Result<PvssScript, PvssError> {
        let (first, rest) = scripts.split_first().ok_or(PvssError::DimensionMismatch)?;
        let mut acc = first.clone();
        for s in rest {
            acc = acc.aggregate(s)?;
        }
        Ok(acc)
    }

    /// `GetShare(dk_i, pvss)`: decrypts party `i`'s share `ĥ_1^{F(ω_i)}`.
    pub fn decrypt_share(&self, index: usize, dk: &PvssDecryptionKey) -> PvssShare {
        PvssShare(self.y_encs[index].pow(dk.0.invert()))
    }

    /// `VrfyShare(j, sh_j, pvss)`: checks `e(A_j, ĥ_1) = e(g_1, sh_j)`.
    pub fn verify_share(&self, index: usize, share: &PvssShare) -> bool {
        if index >= self.a_evals.len() {
            return false;
        }
        pairing(self.a_evals[index], G2::generator()) == pairing(G1::generator(), share.0)
    }


    /// `AggShares({(j, sh_j)})`: reconstructs the committed secret from
    /// `degree + 1` or more valid shares (Lagrange interpolation in the
    /// exponent).
    ///
    /// # Errors
    ///
    /// Returns [`PvssError`] on insufficient or duplicate shares.
    pub fn reconstruct(
        &self,
        params: &PvssParams,
        shares: &[(usize, PvssShare)],
    ) -> Result<PvssSecret, PvssError> {
        let need = params.reconstruction_threshold();
        let mut seen = std::collections::BTreeSet::new();
        let mut valid: Vec<(usize, PvssShare)> = Vec::new();
        for (idx, share) in shares {
            if !seen.insert(*idx) {
                return Err(PvssError::DuplicateShare { index: *idx });
            }
            if self.verify_share(*idx, share) {
                valid.push((*idx, *share));
            }
        }
        if valid.len() < need {
            return Err(PvssError::NotEnoughShares { got: valid.len(), need });
        }
        let subset = &valid[..need];
        let xs: Vec<Scalar> = subset.iter().map(|(i, _)| Scalar::from_u64(*i as u64 + 1)).collect();
        let coeffs = lagrange_table(&xs).coefficients_at(Scalar::zero());
        let shares_g2: Vec<G2> = subset.iter().map(|(_, share)| share.0).collect();
        Ok(PvssSecret(G2::multi_exp(&shares_g2, &coeffs)))
    }

    /// `VrfySecret(s, pvss)`: checks `e(F_0, ĥ_1) = e(g_1, s)`.
    pub fn verify_secret(&self, secret: &PvssSecret) -> bool {
        pairing(self.f_coeffs[0], G2::generator()) == pairing(G1::generator(), secret.0)
    }

    /// Deterministic Fiat–Shamir challenge for the low-degree test.
    fn challenge_point(&self) -> Scalar {
        let encoded = setupfree_wire::to_bytes(&(self.f_coeffs.clone(), self.a_evals.clone()));
        Scalar::from_hash("setupfree/pvss/alpha", &[&encoded])
    }

    /// Dimension and weight-vector checks for a fresh single-dealer script —
    /// the non-algebraic screening a batched verification still performs per
    /// transcript.
    fn single_dealer_shape_ok(&self, params: &PvssParams, dealer: usize) -> bool {
        dealer < params.n
            && self.f_coeffs.len() == params.degree + 1
            && self.a_evals.len() == params.n
            && self.y_encs.len() == params.n
            && self.c_comms.len() == params.n
            && self.weights.len() == params.n
            && self.soks.len() == params.n
            && self.c_comms[dealer].is_some()
            && self
                .weights
                .iter()
                .enumerate()
                .all(|(i, w)| if i == dealer { *w == 1 } else { *w == 0 })
    }

    /// The dealer's signature-of-knowledge check (signatures cannot be
    /// folded into a random linear combination, so batching keeps them
    /// per-transcript).
    fn dealer_sok_ok(&self, vks: &[VerifyingKey], dealer: usize) -> bool {
        match (&self.c_comms[dealer], &self.soks[dealer]) {
            (Some(c_i), Some(sok)) => sok_verify(&vks[dealer], dealer, c_i, sok),
            _ => false,
        }
    }
}

/// Verifies `n` fresh single-dealer PVSS transcripts — the exact workload a
/// Seeding leader faces when aggregating an AVSS/coin setup — with one
/// random-linear-combination check instead of `n` independent
/// [`PvssScript::verify_single_dealer`] calls.
///
/// **Randomness.** This is *local* verification (the verdict is never sent
/// as a proof), so instead of deriving per-transcript Fiat–Shamir challenges
/// — which would mean hashing every transcript and is exactly the cost this
/// function exists to remove — the batch draws its randomness from
/// `entropy`, a secret only the verifier knows (e.g.
/// [`PvssDecryptionKey::batch_entropy`]).  A secret scalar `ρ` and challenge
/// point `α` are derived from `entropy` and the batch's dealer set; the
/// weights are the powers `ρ⁰, ρ¹, …` (Bellare–Garay–Rabin-style screening),
/// so a forged batch passes only if a nonzero polynomial of degree `< n`
/// vanishes at the secret `ρ` — probability `< n/q`.  An adversary who fixed
/// the transcripts cannot bias this because it never sees `ρ` or `α`.
///
/// With weights `ρⁱ`, the per-script algebraic equations collapse into:
///
/// * one combined low-degree identity at the shared secret point `α`:
///   `∏_j (Σᵢ ρⁱ·A_{i,j})^{ℓ_j(α)} = ∏_k (Σᵢ ρⁱ·F_{i,k})^{α^k}`
///   (written additively in the exponents) — and since `α` is verifier-chosen
///   the per-transcript challenge hashes disappear entirely,
/// * one pairing equation `e(∏_i F_{i,0}^{ρⁱ}, û_1) = e(g_1, ∏_i û_{2,i}^{ρⁱ})`
///   instead of one per transcript,
/// * two pairings **per receiver** `e(∏_i A_{i,j}^{ρⁱ}, ek_j) =
///   e(g_1, ∏_i Ŷ_{i,j}^{ρⁱ})` instead of two per receiver *per transcript*
///   (`2n` total rather than `2n²`),
/// * one combined contributor-commitment identity
///   `∏_i C_{i,d_i}^{ρⁱ} = ∏_i F_{i,0}^{ρⁱ}`.
///
/// Shape/weight screening and the dealer signatures of knowledge stay
/// per-transcript (compact Schnorr signatures transmit the challenge, not
/// the nonce commitment, so they cannot be folded into a linear
/// combination).  **Fallback:** when the batch has fewer than two
/// algebraically screenable transcripts, or when any combined check fails,
/// every surviving transcript is re-verified with the exact per-transcript
/// path, so the returned flags always equal what `verify_single_dealer`
/// would report, transcript by transcript.
///
/// `entries` are `(dealer, script)` pairs; the result is one flag per entry.
pub fn verify_single_dealer_batch(
    params: &PvssParams,
    eks: &[PvssEncryptionKey],
    vks: &[VerifyingKey],
    entries: &[(usize, &PvssScript)],
    entropy: &[u8],
) -> Vec<bool> {
    let mut flags = vec![false; entries.len()];
    if eks.len() != params.n || vks.len() != params.n {
        return flags;
    }
    let survivors: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, (dealer, script))| {
            script.single_dealer_shape_ok(params, *dealer)
                && script.dealer_sok_ok(vks, *dealer)
        })
        .map(|(slot, _)| slot)
        .collect();
    let fallback = |flags: &mut Vec<bool>| {
        for &slot in &survivors {
            let (dealer, script) = entries[slot];
            flags[slot] = script.verify_single_dealer(params, eks, vks, dealer);
        }
    };
    if survivors.len() < 2 {
        fallback(&mut flags);
        return flags;
    }
    // One small hash binds the secret entropy to this batch's dealer set;
    // everything random below expands from it without touching the (large)
    // transcripts again.
    let mut binding = Vec::with_capacity(8 * (survivors.len() + 1));
    binding.extend_from_slice(&(survivors.len() as u64).to_le_bytes());
    for &slot in &survivors {
        binding.extend_from_slice(&(entries[slot].0 as u64).to_le_bytes());
    }
    let rho = nonzero(Scalar::from_hash("setupfree/pvss/batch/rho", &[entropy, &binding]));
    let alpha = nonzero(Scalar::from_hash("setupfree/pvss/batch/alpha", &[entropy, &binding]));
    let weights = powers_of(rho, survivors.len());
    // Column accumulators: Σ_i ρⁱ·(component of script i), per position.
    let mut f_cols = vec![G1::identity(); params.degree + 1];
    let mut a_cols = vec![G1::identity(); params.n];
    let mut y_cols = vec![G2::identity(); params.n];
    let mut u2_combined = G2::identity();
    let mut c_combined = G1::identity();
    for (&slot, r) in survivors.iter().zip(weights.iter()) {
        let (dealer, script) = entries[slot];
        for (col, f_k) in f_cols.iter_mut().zip(script.f_coeffs.iter()) {
            *col = *col * f_k.pow(*r);
        }
        for (col, a_j) in a_cols.iter_mut().zip(script.a_evals.iter()) {
            *col = *col * a_j.pow(*r);
        }
        for (col, y_j) in y_cols.iter_mut().zip(script.y_encs.iter()) {
            *col = *col * y_j.pow(*r);
        }
        u2_combined = u2_combined * script.u2.pow(*r);
        c_combined = c_combined * script.c_comms[dealer].expect("shape-checked above").pow(*r);
    }
    let coeffs = share_point_table(params.n).coefficients_at(alpha);
    let lowdeg_lhs = G1::multi_exp(&a_cols, &coeffs);
    let lowdeg_rhs = G1::multi_exp(&f_cols, &powers_of(alpha, f_cols.len()));
    let ok = lowdeg_lhs == lowdeg_rhs
        && pairing(f_cols[0], u1()) == pairing(G1::generator(), u2_combined)
        && c_combined == f_cols[0]
        && (0..params.n).all(|j| {
            pairing(a_cols[j], eks[j].0) == pairing(G1::generator(), y_cols[j])
        });
    if ok {
        for &slot in &survivors {
            flags[slot] = true;
        }
    } else {
        // At least one transcript is bad: identify it with the exact path.
        fallback(&mut flags);
    }
    flags
}

/// Maps the zero scalar to one (batch challenges must be non-zero).
fn nonzero(s: Scalar) -> Scalar {
    if s.is_zero() {
        Scalar::one()
    } else {
        s
    }
}

fn sok_context(dealer: usize) -> Vec<u8> {
    let mut ctx = b"setupfree/pvss/sok/".to_vec();
    ctx.extend_from_slice(&(dealer as u64).to_le_bytes());
    ctx
}

fn sok_sign(sk: &SigningKey, dealer: usize, c_i: &G1) -> Signature {
    sk.sign(&sok_context(dealer), &setupfree_wire::to_bytes(c_i))
}

fn sok_verify(vk: &VerifyingKey, dealer: usize, c_i: &G1, sig: &Signature) -> bool {
    vk.verify(&sok_context(dealer), &setupfree_wire::to_bytes(c_i), sig)
}

impl Encode for PvssEncryptionKey {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decode for PvssEncryptionKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PvssEncryptionKey(G2::decode(r)?))
    }
}

impl Encode for PvssShare {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decode for PvssShare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PvssShare(G2::decode(r)?))
    }
}

impl Encode for PvssSecret {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decode for PvssSecret {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PvssSecret(G2::decode(r)?))
    }
}

// The wire format omits everything derivable or sparse:
//
// * `a_evals` never travels — `A_j = g1^{F(ω_j)} = Π_k F_k^{ω_j^k}` is fully
//   determined by `f_coeffs`, so the decoder recomputes it (n multi-exps of
//   size `deg+1` over the simulated group).  This drops `n` group elements
//   per script and makes wire-level `a_evals` tampering unrepresentable: the
//   low-degree check (1) holds by construction for every decoded script,
//   while the per-receiver pairing checks still bind the encrypted shares to
//   the committed polynomial.
// * `c_comms` / `weights` / `soks` are dense `n`-vectors with only
//   `contributor_count()` live entries (one for a fresh deal); they travel as
//   a sparse, strictly-ascending contributor list.
impl Encode for PvssScript {
    fn encode(&self, w: &mut Writer) {
        self.f_coeffs.encode(w);
        self.u2.encode(w);
        self.y_encs.encode(w);
        let contributors: Vec<(u32, u32, &G1, &Signature)> = self
            .weights
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0)
            .map(|(i, weight)| {
                let c = self.c_comms[i].as_ref().expect("contributor without commitment");
                let sok = self.soks[i].as_ref().expect("contributor without SoK");
                (i as u32, *weight, c, sok)
            })
            .collect();
        contributors.encode(w);
    }
}

impl Decode for PvssScript {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let f_coeffs = Vec::<G1>::decode(r)?;
        let u2 = G2::decode(r)?;
        let y_encs = Vec::<G2>::decode(r)?;
        let n = y_encs.len();
        if f_coeffs.is_empty() || f_coeffs.len() > n {
            return Err(WireError::InvalidValue { ty: "PvssScript" });
        }
        let a_evals: Vec<G1> = (1..=n)
            .map(|j| G1::multi_exp(&f_coeffs, &powers_of(Scalar::from_u64(j as u64), f_coeffs.len())))
            .collect();
        let contributors = Vec::<(u32, u32, G1, Signature)>::decode(r)?;
        let mut c_comms = vec![None; n];
        let mut weights = vec![0u32; n];
        let mut soks = vec![None; n];
        let mut prev: Option<u32> = None;
        for (idx, weight, c, sok) in contributors {
            if idx as usize >= n || weight == 0 || prev.is_some_and(|p| p >= idx) {
                return Err(WireError::InvalidValue { ty: "PvssScript" });
            }
            prev = Some(idx);
            c_comms[idx as usize] = Some(c);
            weights[idx as usize] = weight;
            soks[idx as usize] = Some(sok);
        }
        Ok(PvssScript { f_coeffs, u2, a_evals, y_encs, c_comms, weights, soks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        params: PvssParams,
        dks: Vec<PvssDecryptionKey>,
        eks: Vec<PvssEncryptionKey>,
        sig_keys: Vec<SigningKey>,
        vks: Vec<VerifyingKey>,
    }

    fn fixture(n: usize, degree: usize, seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = PvssParams::new(n, degree);
        let mut dks = Vec::new();
        let mut eks = Vec::new();
        let mut sig_keys = Vec::new();
        let mut vks = Vec::new();
        for _ in 0..n {
            let (dk, ek) = PvssDecryptionKey::generate(&mut rng);
            dks.push(dk);
            eks.push(ek);
            let sk = SigningKey::generate(&mut rng);
            vks.push(sk.verifying_key());
            sig_keys.push(sk);
        }
        Fixture { params, dks, eks, sig_keys, vks }
    }

    fn deal(fx: &Fixture, dealer: usize, secret: u64, seed: u64) -> PvssScript {
        let mut rng = StdRng::seed_from_u64(seed);
        PvssScript::deal(
            &fx.params,
            &fx.eks,
            &fx.sig_keys[dealer],
            dealer,
            Scalar::from_u64(secret),
            &mut rng,
        )
    }

    #[test]
    fn deal_verify_single() {
        let fx = fixture(7, 4, 1);
        let script = deal(&fx, 2, 777, 10);
        assert!(script.verify(&fx.params, &fx.eks, &fx.vks));
        assert!(script.verify_single_dealer(&fx.params, &fx.eks, &fx.vks, 2));
        assert!(!script.verify_single_dealer(&fx.params, &fx.eks, &fx.vks, 3));
        assert_eq!(script.contributor_count(), 1);
    }

    #[test]
    fn shares_decrypt_verify_and_reconstruct() {
        let fx = fixture(7, 4, 2);
        let secret = 424242u64;
        let script = deal(&fx, 0, secret, 11);
        let mut shares = Vec::new();
        for i in 0..fx.params.n {
            let share = script.decrypt_share(i, &fx.dks[i]);
            assert!(script.verify_share(i, &share));
            shares.push((i, share));
        }
        let reconstructed = script.reconstruct(&fx.params, &shares[..5]).unwrap();
        assert!(script.verify_secret(&reconstructed));
        // The committed secret is ĥ^{F(0)} = ĥ^{secret}.
        assert_eq!(reconstructed.0, G2::generator_pow(Scalar::from_u64(secret)));
    }

    #[test]
    fn reconstruct_rejects_insufficient_or_duplicate_shares() {
        let fx = fixture(7, 4, 3);
        let script = deal(&fx, 1, 5, 12);
        let shares: Vec<(usize, PvssShare)> =
            (0..4).map(|i| (i, script.decrypt_share(i, &fx.dks[i]))).collect();
        assert!(matches!(
            script.reconstruct(&fx.params, &shares),
            Err(PvssError::NotEnoughShares { got: 4, need: 5 })
        ));
        let mut dup = shares.clone();
        dup.push(shares[0]);
        assert!(matches!(
            script.reconstruct(&fx.params, &dup),
            Err(PvssError::DuplicateShare { index: 0 })
        ));
    }

    #[test]
    fn invalid_shares_are_ignored_during_reconstruction() {
        let fx = fixture(7, 2, 4);
        let script = deal(&fx, 1, 99, 13);
        let mut shares: Vec<(usize, PvssShare)> =
            (0..3).map(|i| (i, script.decrypt_share(i, &fx.dks[i]))).collect();
        // A corrupted share from party 3.
        shares.push((3, PvssShare(G2::generator_pow(Scalar::from_u64(1)))));
        let reconstructed = script.reconstruct(&fx.params, &shares).unwrap();
        assert!(script.verify_secret(&reconstructed));
    }

    #[test]
    fn aggregation_sums_secrets_and_weights() {
        let fx = fixture(7, 4, 5);
        let s1 = deal(&fx, 0, 100, 14);
        let s2 = deal(&fx, 3, 23, 15);
        let agg = s1.aggregate(&s2).unwrap();
        assert!(agg.verify(&fx.params, &fx.eks, &fx.vks));
        assert_eq!(agg.weights()[0], 1);
        assert_eq!(agg.weights()[3], 1);
        assert_eq!(agg.contributor_count(), 2);
        // Reconstruct and check the aggregated secret is the sum.
        let shares: Vec<(usize, PvssShare)> =
            (0..5).map(|i| (i, agg.decrypt_share(i, &fx.dks[i]))).collect();
        let secret = agg.reconstruct(&fx.params, &shares).unwrap();
        assert_eq!(secret.0, G2::generator_pow(Scalar::from_u64(123)));
    }

    #[test]
    fn aggregate_all_matches_pairwise() {
        let fx = fixture(4, 2, 6);
        let scripts: Vec<PvssScript> = (0..3).map(|i| deal(&fx, i, (i as u64 + 1) * 10, 20 + i as u64)).collect();
        let all = PvssScript::aggregate_all(&scripts).unwrap();
        let pairwise = scripts[0].aggregate(&scripts[1]).unwrap().aggregate(&scripts[2]).unwrap();
        assert_eq!(all, pairwise);
        assert!(all.verify(&fx.params, &fx.eks, &fx.vks));
    }

    #[test]
    fn tampered_script_rejected() {
        let fx = fixture(7, 4, 7);
        let mut script = deal(&fx, 2, 7, 16);
        // Tamper with one encrypted share: pairing check (3) must fail.
        script.y_encs[1] = script.y_encs[1] * G2::generator();
        assert!(!script.verify(&fx.params, &fx.eks, &fx.vks));
    }

    #[test]
    fn forged_weight_without_sok_rejected() {
        let fx = fixture(7, 4, 8);
        let mut script = deal(&fx, 2, 7, 17);
        // Claim a contribution from party 5 without a valid SoK.
        script.weights[5] = 1;
        script.c_comms[5] = Some(G1::generator());
        assert!(!script.verify(&fx.params, &fx.eks, &fx.vks));
    }

    #[test]
    fn wrong_degree_rejected() {
        let fx = fixture(7, 4, 9);
        let script = deal(&fx, 2, 7, 18);
        let wrong = PvssParams::new(7, 3);
        assert!(!script.verify(&wrong, &fx.eks, &fx.vks));
    }

    #[test]
    fn wire_roundtrip() {
        let fx = fixture(5, 2, 10);
        let script = deal(&fx, 1, 55, 19);
        let bytes = setupfree_wire::to_bytes(&script);
        let decoded = setupfree_wire::from_bytes::<PvssScript>(&bytes).unwrap();
        assert_eq!(decoded, script);
        assert!(decoded.verify(&fx.params, &fx.eks, &fx.vks));
    }

    #[test]
    fn script_size_is_linear_in_n() {
        let sizes: Vec<usize> = [4usize, 8, 16]
            .iter()
            .map(|&n| {
                let fx = fixture(n, 2 * ((n - 1) / 3), 11);
                let script = deal(&fx, 0, 1, 30);
                setupfree_wire::to_bytes(&script).len()
            })
            .collect();
        // Doubling n should roughly double the size (within 3x slack for the
        // constant-size parts).
        assert!(sizes[1] < sizes[0] * 3);
        assert!(sizes[2] < sizes[1] * 3);
        assert!(sizes[2] > sizes[0]);
    }

    #[test]
    #[should_panic(expected = "cannot reconstruct")]
    fn invalid_params_panic() {
        PvssParams::new(3, 3);
    }

    #[test]
    fn batch_verification_accepts_a_full_honest_setup() {
        let n = 7;
        let fx = fixture(n, 4, 40);
        let scripts: Vec<PvssScript> =
            (0..n).map(|d| deal(&fx, d, 100 + d as u64, 50 + d as u64)).collect();
        let entries: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();
        let flags = verify_single_dealer_batch(&fx.params, &fx.eks, &fx.vks, &entries, b"test-entropy");
        assert_eq!(flags, vec![true; n]);
    }

    #[test]
    fn batch_verification_flags_exactly_the_tampered_transcript() {
        let n = 5;
        let fx = fixture(n, 2, 41);
        let mut scripts: Vec<PvssScript> =
            (0..n).map(|d| deal(&fx, d, 7 + d as u64, 60 + d as u64)).collect();
        // Tamper with one encrypted share of script 2 (an algebraic defect
        // the shape screening cannot see).
        scripts[2].y_encs[1] = scripts[2].y_encs[1] * G2::generator();
        let entries: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();
        let flags = verify_single_dealer_batch(&fx.params, &fx.eks, &fx.vks, &entries, b"test-entropy");
        assert_eq!(flags, vec![true, true, false, true, true]);
    }

    #[test]
    fn batch_verification_rejects_wrong_dealer_claims() {
        let fx = fixture(5, 2, 42);
        let script = deal(&fx, 1, 9, 61);
        let other = deal(&fx, 2, 10, 62);
        // Claiming the wrong dealer index fails the weight screening.
        let entries = vec![(0usize, &script), (2usize, &other)];
        let flags = verify_single_dealer_batch(&fx.params, &fx.eks, &fx.vks, &entries, b"test-entropy");
        assert_eq!(flags, vec![false, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_verify_rejects_any_tampered_transcript(
            secret in any::<u64>(),
            dealer in 0usize..5,
            seed in any::<u64>(),
            tamper in 0usize..6,
            slot in 0usize..5,
        ) {
            // Whatever single component of a valid script an adversary
            // mutates — a coefficient commitment, the secret commitment, an
            // evaluation commitment, an encrypted share, a claimed weight or
            // a contributor commitment — verification must reject.
            let n = 5;
            let degree = 2;
            let fx = fixture(n, degree, seed);
            let mut script = deal(&fx, dealer, secret, seed ^ 0x5eed);
            prop_assert!(script.verify(&fx.params, &fx.eks, &fx.vks));
            match tamper {
                0 => {
                    let k = slot % (degree + 1);
                    script.f_coeffs[k] = script.f_coeffs[k] * G1::generator();
                }
                1 => script.u2 = script.u2 * G2::generator(),
                2 => script.a_evals[slot] = script.a_evals[slot] * G1::generator(),
                3 => script.y_encs[slot] = script.y_encs[slot] * G2::generator(),
                4 => script.weights[dealer] += 1,
                _ => {
                    let prev = script.c_comms[dealer].expect("dealer contributed");
                    script.c_comms[dealer] = Some(prev * G1::generator());
                }
            }
            prop_assert!(
                !script.verify(&fx.params, &fx.eks, &fx.vks),
                "tamper kind {} (slot {}) went undetected", tamper, slot
            );
        }

        #[test]
        fn prop_batch_verification_equals_per_transcript(
            seed in any::<u64>(),
            tampered in 0usize..5,
            tamper_kind in 0usize..4,
            do_tamper in any::<bool>(),
        ) {
            // Batch verification must accept exactly the transcripts the
            // per-transcript path accepts — for fully honest batches and for
            // batches with any single tampered transcript.
            let n = 5;
            let fx = fixture(n, 2, seed);
            let mut scripts: Vec<PvssScript> =
                (0..n).map(|d| deal(&fx, d, seed ^ d as u64, seed.wrapping_add(d as u64))).collect();
            if do_tamper {
                let s = &mut scripts[tampered];
                match tamper_kind {
                    0 => s.f_coeffs[0] = s.f_coeffs[0] * G1::generator(),
                    1 => s.u2 = s.u2 * G2::generator(),
                    2 => s.a_evals[0] = s.a_evals[0] * G1::generator(),
                    _ => s.y_encs[0] = s.y_encs[0] * G2::generator(),
                }
            }
            let entries: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();
            let batch = verify_single_dealer_batch(&fx.params, &fx.eks, &fx.vks, &entries, b"test-entropy");
            let individual: Vec<bool> = entries
                .iter()
                .map(|(d, s)| s.verify_single_dealer(&fx.params, &fx.eks, &fx.vks, *d))
                .collect();
            prop_assert_eq!(batch, individual);
        }
    }

    use proptest::prelude::*;
}
