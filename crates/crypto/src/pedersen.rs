//! Pedersen polynomial commitments (Pedersen '91), exactly as used by the
//! paper's AVSS (Alg 1, lines 2–6 and 14): the dealer commits to two random
//! polynomials `A(x)`, `B(x)` of degree at most `f` via
//! `c_j = g1^{a_j} · g2^{b_j}` and each party verifies its share `(A(i), B(i))`
//! against the commitment vector.

use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::group::GroupElement;
use crate::multiexp;
use crate::poly::Polynomial;
use crate::scalar::Scalar;

/// A Pedersen commitment to a pair of polynomials `(A, B)` of equal degree.
///
/// Element `j` commits to the `j`-th coefficients: `c_j = g1^{a_j} g2^{b_j}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PedersenCommitment {
    commitments: Vec<GroupElement>,
}

impl PedersenCommitment {
    /// Commits to the coefficient vectors of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the polynomials have different degrees.
    pub fn commit(a: &Polynomial, b: &Polynomial) -> Self {
        assert_eq!(a.degree(), b.degree(), "blinding polynomial must match the secret polynomial's degree");
        let commitments = a
            .coeffs()
            .iter()
            .zip(b.coeffs().iter())
            .map(|(aj, bj)| GroupElement::commit(*aj, *bj))
            .collect();
        PedersenCommitment { commitments }
    }

    /// The committed degree (`f` in the AVSS).
    pub fn degree(&self) -> usize {
        self.commitments.len().saturating_sub(1)
    }

    /// The commitment vector `{c_j}`.
    pub fn elements(&self) -> &[GroupElement] {
        &self.commitments
    }

    /// Verifies that `(a_i, b_i)` opens this commitment at evaluation point
    /// `i`, i.e. `g1^{a_i} g2^{b_i} = ∏_k c_k^{i^k}` (Alg 1 line 14 and
    /// Alg 2 line 7).
    pub fn verify_share(&self, index: usize, a_i: Scalar, b_i: Scalar) -> bool {
        let lhs = GroupElement::commit(a_i, b_i);
        lhs == self.eval_in_exponent(index)
    }

    /// Verifies a batch of claimed openings `(index, a_i, b_i)` in one
    /// random-linear-combination check.
    ///
    /// This is *local* verification, so the weights are the powers
    /// `ρ⁰, ρ¹, …` of a scalar derived from `entropy` — a secret only the
    /// verifier knows (e.g. [`crate::sig::SigningKey::batch_entropy`]) —
    /// rather than Fiat–Shamir hashes of the batch: one small hash instead
    /// of rehashing every share, and a forged batch passes only if a nonzero
    /// polynomial of degree `< k` vanishes at the secret `ρ`.
    ///
    /// The combined equation
    /// `g1^{Σ ρⁱaᵢ} · g2^{Σ ρⁱbᵢ} = ∏_k c_k^{Σᵢ ρⁱ·xᵢᵏ}` collapses the whole
    /// batch into a single fixed-base commit plus one multi-exponentiation
    /// over the `deg + 1` commitment elements, instead of one commit and one
    /// evaluation per share.  If the combined check fails, falls back to
    /// per-share verification so callers learn exactly which openings are
    /// bad.  Returns one flag per input share.
    pub fn verify_shares_batch(
        &self,
        shares: &[(usize, Scalar, Scalar)],
        entropy: &[u8],
    ) -> Vec<bool> {
        if shares.len() < 2 {
            return shares.iter().map(|(i, a, b)| self.verify_share(*i, *a, *b)).collect();
        }
        let rho = Scalar::from_hash(
            "setupfree/pedersen/batch/rho",
            &[entropy, &(shares.len() as u64).to_le_bytes()],
        );
        let rho = if rho.is_zero() { Scalar::one() } else { rho };
        let mut lhs_a = Scalar::zero();
        let mut lhs_b = Scalar::zero();
        let mut rhs_exps = vec![Scalar::zero(); self.commitments.len()];
        let mut r = Scalar::one();
        for (index, a, b) in shares.iter() {
            lhs_a += r * *a;
            lhs_b += r * *b;
            let x = Scalar::from_u64(*index as u64);
            let mut power = r;
            for exp in rhs_exps.iter_mut() {
                *exp += power;
                power *= x;
            }
            r *= rho;
        }
        let lhs = GroupElement::commit(lhs_a, lhs_b);
        let rhs = multiexp::multi_exp(&self.commitments, &rhs_exps);
        if lhs == rhs {
            return vec![true; shares.len()];
        }
        // The combination failed: at least one opening is bad; identify them.
        shares.iter().map(|(i, a, b)| self.verify_share(*i, *a, *b)).collect()
    }

    /// Computes `∏_k c_k^{i^k}`, the commitment to the evaluation at `i`,
    /// as one multi-exponentiation over the commitment vector.
    pub fn eval_in_exponent(&self, index: usize) -> GroupElement {
        let x = Scalar::from_u64(index as u64);
        let powers = multiexp::powers_of(x, self.commitments.len());
        multiexp::multi_exp(&self.commitments, &powers)
    }
}

impl Encode for PedersenCommitment {
    fn encode(&self, w: &mut Writer) {
        self.commitments.encode(w);
    }
}

impl Decode for PedersenCommitment {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let commitments = Vec::<GroupElement>::decode(r)?;
        if commitments.is_empty() {
            return Err(WireError::InvalidValue { ty: "PedersenCommitment" });
        }
        Ok(PedersenCommitment { commitments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(degree: usize, seed: u64) -> (Polynomial, Polynomial, PedersenCommitment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Polynomial::random(degree, &mut rng);
        let b = Polynomial::random(degree, &mut rng);
        let c = PedersenCommitment::commit(&a, &b);
        (a, b, c)
    }

    #[test]
    fn valid_shares_verify() {
        let (a, b, c) = sample(3, 1);
        for i in 1..=10usize {
            assert!(c.verify_share(i, a.eval_at_index(i), b.eval_at_index(i)));
        }
    }

    #[test]
    fn tampered_shares_rejected() {
        let (a, b, c) = sample(3, 2);
        let i = 4usize;
        let good_a = a.eval_at_index(i);
        let good_b = b.eval_at_index(i);
        assert!(!c.verify_share(i, good_a + Scalar::one(), good_b));
        assert!(!c.verify_share(i, good_a, good_b + Scalar::one()));
        assert!(!c.verify_share(i + 1, good_a, good_b));
    }

    #[test]
    fn commitment_hides_but_binds_degree() {
        let (_, _, c) = sample(5, 3);
        assert_eq!(c.degree(), 5);
        assert_eq!(c.elements().len(), 6);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_degrees_panic() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Polynomial::random(2, &mut rng);
        let b = Polynomial::random(3, &mut rng);
        PedersenCommitment::commit(&a, &b);
    }

    #[test]
    fn wire_roundtrip() {
        let (_, _, c) = sample(2, 5);
        let bytes = setupfree_wire::to_bytes(&c);
        assert_eq!(setupfree_wire::from_bytes::<PedersenCommitment>(&bytes).unwrap(), c);
    }

    #[test]
    fn batch_share_verification_accepts_valid_batches() {
        let (a, b, c) = sample(4, 6);
        let shares: Vec<(usize, Scalar, Scalar)> =
            (1..=7).map(|i| (i, a.eval_at_index(i), b.eval_at_index(i))).collect();
        assert_eq!(c.verify_shares_batch(&shares, b"test-entropy"), vec![true; shares.len()]);
    }

    #[test]
    fn batch_share_verification_flags_exactly_the_bad_shares() {
        let (a, b, c) = sample(3, 7);
        let mut shares: Vec<(usize, Scalar, Scalar)> =
            (1..=6).map(|i| (i, a.eval_at_index(i), b.eval_at_index(i))).collect();
        shares[2].1 += Scalar::one();
        shares[4].2 += Scalar::from_u64(9);
        let flags = c.verify_shares_batch(&shares, b"test-entropy");
        assert_eq!(flags, vec![true, true, false, true, false, true]);
    }

    proptest! {
        #[test]
        fn prop_batch_verification_matches_per_share(
            seed in any::<u64>(),
            degree in 1usize..5,
            tamper_mask in 0u8..32,
        ) {
            let (a, b, c) = sample(degree, seed);
            let mut shares: Vec<(usize, Scalar, Scalar)> =
                (1..=5).map(|i| (i, a.eval_at_index(i), b.eval_at_index(i))).collect();
            for (bit, share) in shares.iter_mut().enumerate() {
                if tamper_mask & (1 << bit) != 0 {
                    share.1 += Scalar::one();
                }
            }
            let per_share: Vec<bool> =
                shares.iter().map(|(i, x, y)| c.verify_share(*i, *x, *y)).collect();
            prop_assert_eq!(c.verify_shares_batch(&shares, &seed.to_le_bytes()), per_share);
        }
    }

    #[test]
    fn empty_commitment_rejected_on_decode() {
        let bytes = setupfree_wire::to_bytes(&Vec::<GroupElement>::new());
        assert!(setupfree_wire::from_bytes::<PedersenCommitment>(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_all_shares_verify(seed in any::<u64>(), degree in 1usize..6, index in 1usize..32) {
            let (a, b, c) = sample(degree, seed);
            prop_assert!(c.verify_share(index, a.eval_at_index(index), b.eval_at_index(index)));
        }

        #[test]
        fn prop_wrong_index_rejected(seed in any::<u64>(), degree in 1usize..5) {
            let (a, b, c) = sample(degree, seed);
            // Evaluations at 1 presented as index 2 must fail (degree ≥ 1 keeps
            // the polynomial non-constant with overwhelming probability).
            let a1 = a.eval_at_index(1);
            let b1 = b.eval_at_index(1);
            prop_assume!(a.eval_at_index(2) != a1 || b.eval_at_index(2) != b1);
            prop_assert!(!c.verify_share(2, a1, b1));
        }
    }
}
