//! Global discrete-log group parameters.
//!
//! The paper's model admits "global parameters … such as an agreed group
//! description and group generators" as part of the bulletin-PKI setup (§3,
//! "Note on private-setup free").  We realise that setup with a Schnorr group:
//! a safe prime `p = 2q + 1` with `q` prime, and two independent generators of
//! the order-`q` subgroup of `Z_p^*` derived by hashing (nothing-up-my-sleeve).
//!
//! The modulus is ~62 bits — a deliberately *toy-sized but structurally real*
//! group (see ARCHITECTURE.md §"Simulated pairing group"): all protocol
//! algebra (commitments, Shamir in the exponent, Schnorr signatures, DLEQ
//! proofs) is executed for real, while the small size keeps simulations of
//! hundreds of protocol instances fast.  All
//! serialized sizes are fixed, so communication-complexity measurements scale
//! exactly as the paper's O(λ·nᵏ) terms.

use std::sync::OnceLock;

use crate::hash::hash_fields;
use crate::modarith::{is_prime, mul_mod, pow_mod};

/// Discrete-log group description: safe prime `p = 2q + 1`, subgroup order
/// `q`, and two independent subgroup generators `g1`, `g2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupParams {
    /// Safe prime modulus.
    pub p: u64,
    /// Prime order of the subgroup of quadratic residues (`p = 2q + 1`).
    pub q: u64,
    /// Primary generator of the order-`q` subgroup.
    pub g1: u64,
    /// Secondary generator with unknown discrete log relative to `g1`
    /// (derived by hashing a different domain tag).
    pub g2: u64,
}

static PARAMS: OnceLock<GroupParams> = OnceLock::new();

/// Returns the global group parameters, generating them deterministically on
/// first use.
pub fn group_params() -> &'static GroupParams {
    PARAMS.get_or_init(generate)
}

fn generate() -> GroupParams {
    // Derive a starting point for the Sophie Germain prime search from a
    // fixed domain tag: nothing up our sleeves and fully reproducible.
    let seed = hash_fields("setupfree/group/v1", &[b"safe-prime-search"]);
    let mut q = u64::from_le_bytes(seed[..8].try_into().expect("8 bytes"));
    // Constrain q to 61 bits so p = 2q + 1 stays below 2^63.
    q &= (1u64 << 61) - 1;
    q |= 1u64 << 60; // ensure ~61-bit size
    q |= 1; // odd
    loop {
        if is_prime(q) {
            let p = 2 * q + 1;
            if is_prime(p) {
                let g1 = derive_generator(p, q, "setupfree/group/g1");
                let g2 = derive_generator(p, q, "setupfree/group/g2");
                debug_assert_ne!(g1, g2);
                return GroupParams { p, q, g1, g2 };
            }
        }
        q += 2;
    }
}

/// Hash-to-subgroup: maps a domain tag to an element of the order-`q`
/// subgroup (the quadratic residues) by squaring a hashed representative.
fn derive_generator(p: u64, q: u64, domain: &str) -> u64 {
    let mut counter: u64 = 0;
    loop {
        let digest = hash_fields(domain, &[&counter.to_le_bytes()]);
        let x = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")) % p;
        if x > 1 {
            let candidate = mul_mod(x, x, p);
            if candidate != 1 {
                debug_assert_eq!(pow_mod(candidate, q, p), 1, "candidate must lie in the subgroup");
                return candidate;
            }
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_are_well_formed() {
        let gp = group_params();
        assert!(is_prime(gp.q), "q must be prime");
        assert!(is_prime(gp.p), "p must be prime");
        assert_eq!(gp.p, 2 * gp.q + 1, "p must be a safe prime");
        assert!(gp.q > (1 << 60), "q should be ~61 bits");
    }

    #[test]
    fn generators_have_order_q() {
        let gp = group_params();
        for g in [gp.g1, gp.g2] {
            assert_ne!(g, 1);
            assert_eq!(pow_mod(g, gp.q, gp.p), 1);
            // Order is not 1 or 2, hence exactly q (q prime).
            assert_ne!(pow_mod(g, 2, gp.p), 1);
        }
        assert_ne!(gp.g1, gp.g2);
    }

    #[test]
    fn params_are_deterministic() {
        let a = *group_params();
        let b = *group_params();
        assert_eq!(a, b);
    }
}
