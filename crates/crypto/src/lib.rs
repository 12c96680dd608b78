//! Cryptographic substrate for the `setupfree` workspace, implemented from
//! scratch (no external cryptography crates).
//!
//! The paper ("Efficient Asynchronous Byzantine Agreement without Private
//! Setups", Gao et al., ICDCS 2022) builds its protocols out of five
//! cryptographic ingredients, all provided here:
//!
//! * a collision-resistant hash / random oracle — [`hash`] (SHA-256),
//! * EUF-CMA digital signatures registered at a bulletin PKI — [`sig`],
//! * Pedersen polynomial commitments over a discrete-log group —
//!   [`group`], [`pedersen`], [`poly`],
//! * a verifiable random function with unpredictability under malicious key
//!   generation — [`vrf`],
//! * an aggregatable PVSS over a bilinear group — [`pairing`], [`pvss`].
//!
//! All discrete-log hot paths route through the exponentiation engine in
//! [`multiexp`] (Pippenger multi-exponentiation, fixed-base comb tables for
//! the two generators, Shamir double exponentiation), and repeated Lagrange
//! interpolations reuse the cached coefficient tables of [`poly`].  PVSS
//! transcripts can be verified in bulk via
//! [`pvss::verify_single_dealer_batch`] (random-linear-combination batching
//! with a per-transcript fallback); see `ARCHITECTURE.md` §"Crypto hot-path
//! engine" for the algorithm choices.
//!
//! See `ARCHITECTURE.md` §"Simulated pairing group" for the documented
//! substitutions (toy-sized but real discrete-log group; simulated pairing
//! for the PVSS).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod group;
pub mod hash;
pub mod keyring;
pub mod modarith;
pub mod multiexp;
pub mod pairing;
pub mod params;
pub mod pedersen;
pub mod poly;
pub mod pvss;
pub mod scalar;
pub mod sig;
pub mod vrf;

pub use group::GroupElement;
pub use hash::{sha256, Digest};
pub use keyring::{generate_pki, generate_pki_with_malicious, Keyring, PartyPublic, PartySecrets};
pub use pedersen::PedersenCommitment;
pub use poly::Polynomial;
pub use pvss::{PvssParams, PvssScript, PvssSecret, PvssShare};
pub use scalar::Scalar;
pub use sig::{
    AggregateError, AggregateSignature, MessageDigest, QuorumCert, Signature, SigningKey, VerifyingKey,
};
pub use vrf::{VrfOutput, VrfProof, VrfPublicKey, VrfSecretKey};
