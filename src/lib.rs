//! # setupfree — asynchronous Byzantine agreement without private setups
//!
//! A from-scratch Rust reproduction of *"Efficient Asynchronous Byzantine
//! Agreement without Private Setups"* (Gao, Lu, Lu, Tang, Xu, Zhang —
//! ICDCS 2022): a private-setup-free common coin, binary agreement, leader
//! election with perfect agreement, validated Byzantine agreement, and the
//! ADKG / random-beacon applications, together with every substrate they
//! need (AVSS, weak core-set selection, PVSS-based seeding, reliable
//! broadcast, an asynchronous network simulator with adversarial scheduling,
//! and the cryptographic toolbox).
//!
//! This crate is a facade that re-exports the workspace components under one
//! roof.  Start with [`prelude`], the `examples/` directory, and `README.md`.
//!
//! ## Quickstart
//!
//! ```
//! use setupfree::prelude::*;
//! use std::sync::Arc;
//!
//! // A 4-party system registered at the bulletin PKI.
//! let (keyring, secrets) = generate_pki(4, 7);
//! let keyring = Arc::new(keyring);
//! let secrets: Vec<_> = secrets.into_iter().map(Arc::new).collect();
//!
//! // Every party runs the private-setup-free common coin (Alg 4).  Composite
//! // protocols exchange the session router's flat `Envelope` on the wire.
//! let parties: Vec<BoxedParty<Envelope, CoinOutput>> = (0..4)
//!     .map(|i| {
//!         Box::new(Coin::new(Sid::new("demo"), PartyId(i), keyring.clone(), secrets[i].clone()))
//!             as BoxedParty<Envelope, CoinOutput>
//!     })
//!     .collect();
//! let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(1)));
//! sim.run(10_000_000);
//! assert!(sim.all_honest_output());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use setupfree_aba as aba;
pub use setupfree_app as app;
pub use setupfree_avss as avss;
pub use setupfree_baselines as baselines;
pub use setupfree_core as core;
pub use setupfree_crypto as crypto;
pub use setupfree_net as net;
pub use setupfree_rbc as rbc;
pub use setupfree_runtime as runtime;
pub use setupfree_seeding as seeding;
pub use setupfree_transport as transport;
pub use setupfree_vba as vba;
pub use setupfree_wcs as wcs;
pub use setupfree_wire as wire;

/// The most commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use setupfree_aba::{setup_free_aba_factory, AbaMessage, MmrAba, MmrAbaFactory};
    pub use setupfree_app::adkg::{Adkg, AdkgOutput};
    pub use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
    pub use setupfree_avss::{Avss, AvssMessage};
    pub use setupfree_core::coin::{Coin, CoinMessage, CoinOutput, CoinProtocolFactory, CoreSetMode};
    pub use setupfree_core::election::{Election, ElectionOutput};
    pub use setupfree_core::traits::{AbaFactory, CoinFactory, ElectionFactory};
    pub use setupfree_core::{TrustedCoin, TrustedCoinFactory};
    pub use setupfree_crypto::{generate_pki, generate_pki_with_malicious, Keyring, PartySecrets};
    pub use setupfree_net::{
        envelope_path, BoxedParty, Envelope, FifoScheduler, InstancePath, Leaf, MuxNode,
        PartyId, PathSeg, ProtocolInstance, RandomScheduler, Router, SessionHost,
        SessionPartitionScheduler, SessionTargetedDelayScheduler, Sid, Simulation, StopReason,
        TargetedDelayScheduler,
    };
    pub use setupfree_rbc::{Rbc, RbcMessage};
    pub use setupfree_runtime::{
        MaxConcurrent, SessionSetup, ShardedHost, TokenBucket, Unlimited,
    };
    pub use setupfree_seeding::{Seeding, SeedingMessage};
    pub use setupfree_transport::{SocketRunReport, TcpPeerGroup, TransportFailure};
    pub use setupfree_vba::{accept_all, Predicate, Vba, VbaMessage};
    pub use setupfree_wcs::{Wcs, WcsMessage};
}
