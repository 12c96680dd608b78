//! Simulated bilinear group used by the aggregatable PVSS (Appendix B).
//!
//! The paper instantiates Gurkan et al.'s aggregatable PVSS over a
//! pairing-friendly curve under the SXDH assumption.  Reproducing the
//! *protocol behaviour* (verification equations, aggregation, share
//! reconstruction, complexity) does not require computational hardness, so —
//! per the substitution policy in ARCHITECTURE.md §"Simulated pairing group"
//! — this module provides a
//! **functionally exact but non-hiding** bilinear group: `G1`, `G2` and `Gt`
//! are sealed wrappers around the discrete log of the element with respect to
//! the fixed generators, the group law is addition of exponents, and the
//! pairing is multiplication of exponents.  Bilinearity
//! `e(g1^a, g2^b) = gt^{ab}` holds *exactly*, so every pairing equation in
//! the PVSS code is the same code a real pairing engine would run.
//!
//! The wrappers are deliberately opaque (no public accessor for the exponent)
//! so protocol code cannot accidentally "cheat"; only this module and the
//! serialization layer can see the representation.

use std::fmt;
use std::ops::Mul;

use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::scalar::Scalar;

/// Serialized size of a simulated group element.  Padded to 32 bytes so that
/// communication measurements reflect realistic pairing-group element sizes
/// (BLS12-381 G1 is 48 bytes; we use the hash length λ = 32 bytes).
pub const SIM_ELEMENT_LEN: usize = 32;

macro_rules! sim_group {
    ($name:ident, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(Scalar);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "(exp={})"), self.0)
            }
        }

        impl $name {
            /// The group identity.
            pub fn identity() -> Self {
                $name(Scalar::zero())
            }

            /// The fixed generator.
            pub fn generator() -> Self {
                $name(Scalar::one())
            }

            /// `generator^e` — the standard way to build elements.
            pub fn generator_pow(e: Scalar) -> Self {
                $name(e)
            }

            /// Group exponentiation `self^e`.
            pub fn pow(self, e: Scalar) -> Self {
                $name(self.0 * e)
            }

            /// Group inverse.
            pub fn inverse(self) -> Self {
                $name(self.0.negate())
            }

            /// Returns `true` for the identity element.
            pub fn is_identity(self) -> bool {
                self.0.is_zero()
            }

            /// Simultaneous multi-exponentiation `∏ elems[i]^{exps[i]}`.
            ///
            /// In the simulated group this is the inner product of the
            /// stored discrete logs with the exponent vector — the same
            /// operation a Pippenger engine would perform over a real curve,
            /// at the cost model of the simulation.
            ///
            /// # Panics
            ///
            /// Panics if the slices have different lengths.
            pub fn multi_exp(elems: &[$name], exps: &[Scalar]) -> $name {
                assert_eq!(
                    elems.len(),
                    exps.len(),
                    "multi_exp requires equal-length inputs"
                );
                $name(
                    elems
                        .iter()
                        .zip(exps.iter())
                        .fold(Scalar::zero(), |acc, (g, e)| acc + g.0 * *e),
                )
            }
        }

        impl Mul for $name {
            type Output = $name;
            // The simulated group element stores its discrete log, so the
            // group operation really is exponent addition.
            #[allow(clippy::suspicious_arithmetic_impl)]
            fn mul(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Encode for $name {
            fn encode(&self, w: &mut Writer) {
                let mut bytes = [0u8; SIM_ELEMENT_LEN];
                bytes[..8].copy_from_slice(&self.0.to_bytes());
                w.write_bytes(&bytes);
            }
        }

        impl Decode for $name {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes: [u8; SIM_ELEMENT_LEN] = <[u8; SIM_ELEMENT_LEN]>::decode(r)?;
                if bytes[8..].iter().any(|b| *b != 0) {
                    return Err(WireError::InvalidValue { ty: stringify!($name) });
                }
                let mut head = [0u8; 8];
                head.copy_from_slice(&bytes[..8]);
                let exp = Scalar::from_bytes(head)
                    .ok_or(WireError::InvalidValue { ty: stringify!($name) })?;
                Ok($name(exp))
            }
        }
    };
}

sim_group!(G1, "An element of the simulated source group G1.");
sim_group!(G2, "An element of the simulated source group G2.");
sim_group!(Gt, "An element of the simulated target group Gt.");

/// The bilinear pairing `e : G1 × G2 → Gt`.
///
/// Satisfies `e(a^x, b^y) = e(a, b)^{xy}` exactly.
pub fn pairing(a: G1, b: G2) -> Gt {
    Gt(a.0 * b.0)
}

/// Multi-pairing product `∏ e(a_i, b_i)`.
pub fn multi_pairing(pairs: &[(G1, G2)]) -> Gt {
    pairs.iter().fold(Gt::identity(), |acc, (a, b)| acc * pairing(*a, *b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(v: u64) -> Scalar {
        Scalar::from_u64(v)
    }

    #[test]
    fn bilinearity() {
        let a = s(11);
        let b = s(13);
        let lhs = pairing(G1::generator_pow(a), G2::generator_pow(b));
        let rhs = pairing(G1::generator(), G2::generator()).pow(a * b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_is_non_degenerate() {
        let e = pairing(G1::generator(), G2::generator());
        assert!(!e.is_identity());
    }

    #[test]
    fn pairing_linear_in_each_argument() {
        let x = G1::generator_pow(s(3));
        let y = G1::generator_pow(s(5));
        let z = G2::generator_pow(s(7));
        assert_eq!(pairing(x * y, z), pairing(x, z) * pairing(y, z));
        let w = G2::generator_pow(s(11));
        assert_eq!(pairing(x, z * w), pairing(x, z) * pairing(x, w));
    }

    #[test]
    fn group_laws() {
        let a = G1::generator_pow(s(4));
        assert_eq!(a * a.inverse(), G1::identity());
        assert_eq!(a * G1::identity(), a);
        assert_eq!(a.pow(s(3)), a * a * a);
    }

    #[test]
    fn wire_roundtrip_and_padding_enforced() {
        let a = G2::generator_pow(s(99));
        let bytes = setupfree_wire::to_bytes(&a);
        assert_eq!(bytes.len(), SIM_ELEMENT_LEN);
        assert_eq!(setupfree_wire::from_bytes::<G2>(&bytes).unwrap(), a);
        let mut bad = bytes.clone();
        bad[20] = 1;
        assert!(setupfree_wire::from_bytes::<G2>(&bad).is_err());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let pairs = vec![
            (G1::generator_pow(s(2)), G2::generator_pow(s(3))),
            (G1::generator_pow(s(5)), G2::generator_pow(s(7))),
        ];
        let expected = pairing(pairs[0].0, pairs[0].1) * pairing(pairs[1].0, pairs[1].1);
        assert_eq!(multi_pairing(&pairs), expected);
    }

    proptest! {
        #[test]
        fn prop_bilinearity(a in any::<u64>(), b in any::<u64>()) {
            let a = Scalar::from_u64(a);
            let b = Scalar::from_u64(b);
            prop_assert_eq!(
                pairing(G1::generator_pow(a), G2::generator_pow(b)),
                Gt::generator_pow(a * b)
            );
        }
    }
}
