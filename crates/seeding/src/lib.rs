//! Reliable broadcasted seeding (`Seeding`) — paper §6.1, Definition 4,
//! constructed from aggregatable PVSS in Appendix B, Algorithm 7.
//!
//! A designated *leader* aggregates `n − f` fresh PVSS scripts (each
//! contributed by a distinct party), commits the aggregated script with a
//! signature quorum, collects decrypted shares, reconstructs the aggregated
//! secret, and reliably disseminates it: the output `seed` is an
//! unpredictable λ-bit string that is *committed before it is revealed*
//! (committing + unpredictability), and if one honest party outputs it, all
//! do (totality).
//!
//! In the Coin protocol (Alg 4) each party leads one Seeding instance; the
//! resulting seed patches that party's VRF so a maliciously generated VRF key
//! cannot bias its evaluations.
//!
//! Costs: `O(n²)` messages, `O(λn²)` bits, constant rounds (Lemma 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use setupfree_crypto::hash::sha256;
use setupfree_crypto::pvss::{
    verify_single_dealer_batch, PvssParams, PvssScript, PvssSecret, PvssShare,
};
use setupfree_crypto::scalar::Scalar;
use setupfree_crypto::sig::{MessageDigest, QuorumCert, Signature};
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::{PartyId, ProtocolInstance, Sid, Step};
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

/// The λ-bit seed output by the protocol.
pub type Seed = [u8; 32];

/// Messages of one Seeding instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedingMessage {
    /// Party → leader: a fresh single-contributor PVSS script (Alg 7 line 2).
    Contribute {
        /// The contributed script.
        script: PvssScript,
    },
    /// Leader → all: the aggregated script (line 22).
    AggPvss {
        /// The aggregate of `n − f` contributions.
        script: PvssScript,
    },
    /// Party → leader: signature on the aggregated script (line 5).
    AggPvssStored {
        /// The signature.
        signature: Signature,
    },
    /// Leader → all: signature quorum committing the aggregated script
    /// (line 27).
    AggPvssCommit {
        /// Aggregated certificate over `n − f` signatures from distinct
        /// parties.
        quorum: QuorumCert,
    },
    /// Party → leader: decrypted share of the committed script (line 8).
    SeedShare {
        /// The share.
        share: PvssShare,
    },
    /// Leader → all: the reconstructed secret with the commitment quorum
    /// (line 31).
    Seed {
        /// The commitment quorum (same as in `AggPvssCommit`).
        quorum: QuorumCert,
        /// The reconstructed aggregated secret.
        secret: PvssSecret,
    },
    /// Bracha-style echo of the revealed secret (line 11).
    SeedEcho {
        /// The echoed secret.
        secret: PvssSecret,
    },
    /// Bracha-style ready for the revealed secret (lines 13/15).
    SeedReady {
        /// The committed secret.
        secret: PvssSecret,
    },
}

impl Encode for SeedingMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            SeedingMessage::Contribute { script } => {
                w.write_u8(0);
                script.encode(w);
            }
            SeedingMessage::AggPvss { script } => {
                w.write_u8(1);
                script.encode(w);
            }
            SeedingMessage::AggPvssStored { signature } => {
                w.write_u8(2);
                signature.encode(w);
            }
            SeedingMessage::AggPvssCommit { quorum } => {
                w.write_u8(3);
                quorum.encode(w);
            }
            SeedingMessage::SeedShare { share } => {
                w.write_u8(4);
                share.encode(w);
            }
            SeedingMessage::Seed { quorum, secret } => {
                w.write_u8(5);
                quorum.encode(w);
                secret.encode(w);
            }
            SeedingMessage::SeedEcho { secret } => {
                w.write_u8(6);
                secret.encode(w);
            }
            SeedingMessage::SeedReady { secret } => {
                w.write_u8(7);
                secret.encode(w);
            }
        }
    }
}

impl Decode for SeedingMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(SeedingMessage::Contribute { script: PvssScript::decode(r)? }),
            1 => Ok(SeedingMessage::AggPvss { script: PvssScript::decode(r)? }),
            2 => Ok(SeedingMessage::AggPvssStored { signature: Signature::decode(r)? }),
            3 => Ok(SeedingMessage::AggPvssCommit { quorum: QuorumCert::decode(r)? }),
            4 => Ok(SeedingMessage::SeedShare { share: PvssShare::decode(r)? }),
            5 => Ok(SeedingMessage::Seed {
                quorum: QuorumCert::decode(r)?,
                secret: PvssSecret::decode(r)?,
            }),
            6 => Ok(SeedingMessage::SeedEcho { secret: PvssSecret::decode(r)? }),
            7 => Ok(SeedingMessage::SeedReady { secret: PvssSecret::decode(r)? }),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "SeedingMessage" }),
        }
    }
}

/// Leader-side state.
#[derive(Debug, Default)]
struct LeaderState {
    /// Arrived-but-unverified contributions `(dealer, script)`; verified in
    /// bulk — one random-linear-combination check for the whole pending set —
    /// once enough have arrived to possibly reach the quorum.
    pending: Vec<(usize, PvssScript)>,
    contributions: Vec<PvssScript>,
    contributed_by: BTreeSet<usize>,
    /// The aggregated script and its μ under the session's signing context,
    /// shared by every `AggPvssStored` check and the certificate.
    aggregated: Option<(PvssScript, MessageDigest)>,
    agg_sent: bool,
    stored_sigs: Vec<(usize, Signature)>,
    stored_by: BTreeSet<usize>,
    /// The aggregated certificate built once at quorum from `stored_sigs`
    /// and reused by both `AggPvssCommit` and `Seed`.
    commit_cert: Option<QuorumCert>,
    commit_sent: bool,
    shares: Vec<(usize, PvssShare)>,
    shares_by: BTreeSet<usize>,
    seed_sent: bool,
}

/// One party's state machine for a single Seeding instance.
#[derive(Debug)]
pub struct Seeding {
    sid: Sid,
    me: PartyId,
    leader: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
    params: PvssParams,
    leader_state: Option<LeaderState>,
    /// The aggregated script this party recorded and signed (line 5).
    recorded: Option<PvssScript>,
    /// μ of `recorded`, set with it: signed once and reused to check the
    /// leader's certificates.
    recorded_mu: Option<MessageDigest>,
    /// Whether we have seen a valid commitment quorum for the recorded script.
    committed: bool,
    share_sent: bool,
    echo_sent: bool,
    ready_sent: bool,
    echoes: BTreeMap<[u8; 32], (BTreeSet<usize>, PvssSecret)>,
    readies: BTreeMap<[u8; 32], (BTreeSet<usize>, PvssSecret)>,
    output: Option<Seed>,
}

impl Seeding {
    /// Creates the state machine for party `me` in instance `sid` with the
    /// given `leader`.
    pub fn new(
        sid: Sid,
        me: PartyId,
        leader: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
    ) -> Self {
        let params = PvssParams::new(keyring.n(), 2 * keyring.f());
        let leader_state = if me == leader { Some(LeaderState::default()) } else { None };
        Seeding {
            sid,
            me,
            leader,
            keyring,
            secrets,
            params,
            leader_state,
            recorded: None,
            recorded_mu: None,
            committed: false,
            share_sent: false,
            echo_sent: false,
            ready_sent: false,
            echoes: BTreeMap::new(),
            readies: BTreeMap::new(),
            output: None,
        }
    }

    /// The designated leader of this instance.
    pub fn leader(&self) -> PartyId {
        self.leader
    }

    /// The output seed, once produced.
    pub fn seed(&self) -> Option<Seed> {
        self.output
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    fn f(&self) -> usize {
        self.keyring.f()
    }

    fn quorum(&self) -> usize {
        self.keyring.quorum()
    }

    /// μ of `script` under the session's signing context.
    fn script_digest(sid: &Sid, script: &PvssScript) -> MessageDigest {
        let mut ctx = sid.as_bytes().to_vec();
        ctx.extend_from_slice(b"/seeding/agg");
        MessageDigest::new(&ctx, &setupfree_wire::to_bytes(script))
    }

    fn contribution_secret(&self) -> Scalar {
        // Each party's contributed secret is sampled from a private seed so
        // the adversary cannot predict it; derandomization keeps runs
        // reproducible.
        Scalar::from_hash(
            "setupfree/seeding/contribution",
            &[
                &self.secrets.pvss_dk_bytes(),
                self.sid.as_bytes(),
                &self.leader.index().to_le_bytes(),
                &self.me.index().to_le_bytes(),
            ],
        )
    }

    fn secret_digest(secret: &PvssSecret) -> [u8; 32] {
        sha256(&setupfree_wire::to_bytes(secret))
    }

    /// Whether `quorum` certifies the recorded script.
    fn verify_quorum(&self, quorum: &QuorumCert) -> bool {
        // The declared quorum must itself be ≥ n − f: `verify` only enforces
        // signer_count ≥ the *declared* quorum, so a cert declaring a smaller
        // quorum must not pass.
        let Some(mu) = &self.recorded_mu else { return false };
        quorum.quorum() >= self.quorum() && quorum.verify_digest(self.keyring.sig_key_slice(), mu)
    }
}

impl ProtocolInstance for Seeding {
    type Message = SeedingMessage;
    type Output = Seed;

    fn on_activation(&mut self) -> Step<SeedingMessage> {
        // Alg 7 lines 1–2: every party deals a fresh script to the leader.
        let mut rng_seed = Vec::new();
        rng_seed.extend_from_slice(self.sid.as_bytes());
        rng_seed.extend_from_slice(&self.me.index().to_le_bytes());
        rng_seed.extend_from_slice(&self.secrets.pvss_dk_bytes());
        let mut rng = StdRng::seed_from_u64(u64::from_le_bytes(
            sha256(&rng_seed)[..8].try_into().expect("8 bytes"),
        ));
        let script = PvssScript::deal(
            &self.params,
            &self.keyring.pvss_eks(),
            &self.secrets.sig,
            self.me.index(),
            self.contribution_secret(),
            &mut rng,
        );
        Step::send(self.leader, SeedingMessage::Contribute { script })
    }

    fn on_message(&mut self, from: PartyId, msg: SeedingMessage) -> Step<SeedingMessage> {
        if from.index() >= self.n() {
            return Step::none();
        }
        match msg {
            SeedingMessage::Contribute { script } => self.on_contribute(from, script),
            SeedingMessage::AggPvss { script } => self.on_agg_pvss(from, script),
            SeedingMessage::AggPvssStored { signature } => self.on_agg_stored(from, signature),
            SeedingMessage::AggPvssCommit { quorum } => self.on_agg_commit(from, quorum),
            SeedingMessage::SeedShare { share } => self.on_seed_share(from, share),
            SeedingMessage::Seed { quorum, secret } => self.on_seed(from, quorum, secret),
            SeedingMessage::SeedEcho { secret } => self.on_seed_echo(from, secret),
            SeedingMessage::SeedReady { secret } => self.on_seed_ready(from, secret),
        }
    }

    fn output(&self) -> Option<Seed> {
        self.output
    }
}

impl Seeding {
    fn on_contribute(&mut self, from: PartyId, script: PvssScript) -> Step<SeedingMessage> {
        let params = self.params;
        let eks = self.keyring.pvss_eks();
        let vks = self.keyring.sig_keys();
        let quorum = self.quorum();
        let Some(ls) = &mut self.leader_state else { return Step::none() };
        if ls.agg_sent || ls.contributed_by.contains(&from.index()) {
            return Step::none();
        }
        // Alg 7 line 19 requires a single-dealer script with weight 1 at
        // `from`.  Verification is deferred: contributions are buffered and
        // checked in bulk once the pending set could complete the quorum —
        // one random-linear-combination batch check for n transcripts
        // instead of n independent ones.  Bad transcripts are identified by
        // the per-transcript fallback inside the batch and discarded, so a
        // Byzantine contribution never blocks the honest quorum.
        ls.contributed_by.insert(from.index());
        ls.pending.push((from.index(), script));
        if ls.contributions.len() + ls.pending.len() < quorum {
            return Step::none();
        }
        let pending = std::mem::take(&mut ls.pending);
        let entries: Vec<(usize, &PvssScript)> = pending.iter().map(|(d, s)| (*d, s)).collect();
        // The batch challenges come from the leader's secret decryption key:
        // contributors fixed their transcripts without knowing it, so they
        // cannot craft scripts that fool the combined check.
        let entropy = self.secrets.pvss_dk.batch_entropy();
        let flags = verify_single_dealer_batch(&params, &eks, &vks, &entries, &entropy);
        for ((_, script), ok) in pending.into_iter().zip(flags) {
            if ok {
                ls.contributions.push(script);
            }
        }
        if ls.contributions.len() >= quorum {
            let aggregated = PvssScript::aggregate_all(&ls.contributions)
                .expect("verified single-dealer scripts always aggregate");
            let mu = Self::script_digest(&self.sid, &aggregated);
            ls.aggregated = Some((aggregated.clone(), mu));
            ls.agg_sent = true;
            return Step::multicast(SeedingMessage::AggPvss { script: aggregated });
        }
        Step::none()
    }

    fn on_agg_pvss(&mut self, from: PartyId, script: PvssScript) -> Step<SeedingMessage> {
        if from != self.leader || self.recorded.is_some() {
            return Step::none();
        }
        // Alg 7 line 4: the aggregate must verify and carry ≥ n − f distinct
        // contributions.
        if script.contributor_count() < self.quorum()
            || !script.verify(&self.params, &self.keyring.pvss_eks(), &self.keyring.sig_keys())
        {
            return Step::none();
        }
        let mu = Self::script_digest(&self.sid, &script);
        let signature = self.secrets.sig.sign_digest(&mu);
        self.recorded = Some(script);
        self.recorded_mu = Some(mu);
        Step::send(self.leader, SeedingMessage::AggPvssStored { signature })
    }

    fn on_agg_stored(&mut self, from: PartyId, signature: Signature) -> Step<SeedingMessage> {
        let quorum = self.quorum();
        let Some(ls) = &mut self.leader_state else { return Step::none() };
        if ls.commit_sent || ls.stored_by.contains(&from.index()) {
            return Step::none();
        }
        let Some((_, mu)) = &ls.aggregated else { return Step::none() };
        if !self.keyring.sig_key(from.index()).verify_digest(mu, &signature) {
            return Step::none();
        }
        ls.stored_by.insert(from.index());
        ls.stored_sigs.push((from.index(), signature));
        if ls.stored_sigs.len() >= quorum {
            ls.commit_sent = true;
            // Build the aggregated certificate once, draining the raw
            // signatures; it is reused verbatim by the later `Seed` message.
            let entries = std::mem::take(&mut ls.stored_sigs);
            let cert = QuorumCert::new_digest(quorum, &entries, self.keyring.sig_key_slice(), mu)
                .expect("individually verified quorum signatures always aggregate");
            ls.commit_cert = Some(cert.clone());
            return Step::multicast(SeedingMessage::AggPvssCommit { quorum: cert });
        }
        Step::none()
    }

    fn on_agg_commit(&mut self, from: PartyId, quorum: QuorumCert) -> Step<SeedingMessage> {
        if from != self.leader || self.share_sent {
            return Step::none();
        }
        if !self.verify_quorum(&quorum) {
            return Step::none();
        }
        let Some(recorded) = &self.recorded else { return Step::none() };
        let share = recorded.decrypt_share(self.me.index(), &self.secrets.pvss_dk);
        // Alg 7 line 8: the script is now committed; release our share.
        self.committed = true;
        self.share_sent = true;
        Step::send(self.leader, SeedingMessage::SeedShare { share })
    }

    fn on_seed_share(&mut self, from: PartyId, share: PvssShare) -> Step<SeedingMessage> {
        let params = self.params;
        let Some(ls) = &mut self.leader_state else { return Step::none() };
        if ls.seed_sent || ls.shares_by.contains(&from.index()) {
            return Step::none();
        }
        let Some((agg, _)) = &ls.aggregated else { return Step::none() };
        // Share verification is deferred to `reconstruct` (which validates
        // every collected share and drops invalid ones), so the honest path
        // pays one verification per share instead of the former two — once
        // on arrival and again inside reconstruction.  Invalid shares only
        // cost re-checks on the (Byzantine-triggered) retry path.
        ls.shares_by.insert(from.index());
        ls.shares.push((from.index(), share));
        if ls.shares.len() >= params.reconstruction_threshold() && ls.commit_sent {
            if let Ok(secret) = agg.reconstruct(&params, &ls.shares) {
                ls.seed_sent = true;
                let quorum = ls.commit_cert.clone().expect("commit_sent implies commit_cert");
                return Step::multicast(SeedingMessage::Seed { quorum, secret });
            }
        }
        Step::none()
    }

    fn on_seed(
        &mut self,
        from: PartyId,
        quorum: QuorumCert,
        secret: PvssSecret,
    ) -> Step<SeedingMessage> {
        if from != self.leader || self.echo_sent {
            return Step::none();
        }
        let Some(recorded) = &self.recorded else { return Step::none() };
        if !recorded.verify_secret(&secret) || !self.verify_quorum(&quorum) {
            return Step::none();
        }
        self.echo_sent = true;
        Step::multicast(SeedingMessage::SeedEcho { secret })
    }

    fn on_seed_echo(&mut self, from: PartyId, secret: PvssSecret) -> Step<SeedingMessage> {
        let quorum = 2 * self.f() + 1;
        let digest = Self::secret_digest(&secret);
        let entry = self.echoes.entry(digest).or_insert_with(|| (BTreeSet::new(), secret));
        entry.0.insert(from.index());
        if entry.0.len() >= quorum && !self.ready_sent {
            self.ready_sent = true;
            let secret = entry.1;
            return Step::multicast(SeedingMessage::SeedReady { secret });
        }
        Step::none()
    }

    fn on_seed_ready(&mut self, from: PartyId, secret: PvssSecret) -> Step<SeedingMessage> {
        let quorum = 2 * self.f() + 1;
        let amplify = self.f() + 1;
        let digest = Self::secret_digest(&secret);
        let entry = self.readies.entry(digest).or_insert_with(|| (BTreeSet::new(), secret));
        entry.0.insert(from.index());
        let count = entry.0.len();
        let secret = entry.1;
        let mut step = Step::none();
        if count >= amplify && !self.ready_sent {
            self.ready_sent = true;
            step.push_multicast(SeedingMessage::SeedReady { secret });
        }
        if count >= quorum && self.output.is_none() {
            setupfree_obs::phase(setupfree_obs::Phase::CoinSeeded, 0);
            self.output = Some(secret.to_seed_bytes());
        }
        step
    }
}

/// A Byzantine leader that goes silent after receiving contributions: the
/// protocol must not output (no honest party is harmed; the leader only
/// "harms itself", §1.2).
#[derive(Debug)]
pub struct SilentLeader;

impl ProtocolInstance for SilentLeader {
    type Message = SeedingMessage;
    type Output = Seed;

    fn on_activation(&mut self) -> Step<SeedingMessage> {
        Step::none()
    }

    fn on_message(&mut self, _from: PartyId, _msg: SeedingMessage) -> Step<SeedingMessage> {
        Step::none()
    }

    fn output(&self) -> Option<Seed> {
        None
    }
}

/// Helper giving [`PartySecrets`] a stable byte representation of the PVSS
/// decryption key for derandomization purposes.
trait PvssDkBytes {
    fn pvss_dk_bytes(&self) -> [u8; 8];
}

impl PvssDkBytes for PartySecrets {
    fn pvss_dk_bytes(&self) -> [u8; 8] {
        // The decryption key is private to the party; hashing it into local
        // randomness derivation never leaves the party.
        setupfree_crypto::hash::sha256(&self.index.to_le_bytes())[..8]
            .try_into()
            .expect("8 bytes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_crypto::generate_pki;
    use setupfree_net::{BoxedParty, FifoScheduler, RandomScheduler, SilentParty, Simulation, StopReason};

    fn setup(n: usize) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
        let (keyring, secrets) = generate_pki(n, 21);
        (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
    }

    fn parties(
        n: usize,
        leader: usize,
        keyring: &Arc<Keyring>,
        secrets: &[Arc<PartySecrets>],
    ) -> Vec<BoxedParty<SeedingMessage, Seed>> {
        (0..n)
            .map(|i| {
                Box::new(Seeding::new(
                    Sid::new("seeding"),
                    PartyId(i),
                    PartyId(leader),
                    keyring.clone(),
                    secrets[i].clone(),
                )) as BoxedParty<SeedingMessage, Seed>
            })
            .collect()
    }

    #[test]
    fn honest_leader_all_output_same_seed() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        let mut sim =
            Simulation::new(parties(n, 0, &keyring, &secrets), Box::new(FifoScheduler::default()));
        let report = sim.run(1_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let outs: Vec<Seed> = sim.outputs().into_iter().flatten().collect();
        assert_eq!(outs.len(), n);
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "commitment: all honest output the same seed");
    }

    #[test]
    fn random_schedules_agree() {
        for seed in 0..5 {
            let n = 4;
            let (keyring, secrets) = setup(n);
            let mut sim = Simulation::new(
                parties(n, 2, &keyring, &secrets),
                Box::new(RandomScheduler::new(seed)),
            );
            let report = sim.run(2_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            let outs: Vec<Seed> = sim.outputs().into_iter().flatten().collect();
            assert!(outs.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
        }
    }

    #[test]
    fn different_leaders_produce_different_seeds() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        let run = |leader: usize| {
            let mut sim =
                Simulation::new(parties(n, leader, &keyring, &secrets), Box::new(FifoScheduler::default()));
            sim.run(1_000_000);
            sim.outputs()[0].unwrap()
        };
        assert_ne!(run(0), run(1));
    }

    #[test]
    fn silent_leader_blocks_output_but_harms_no_one() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        let mut ps = parties(n, 0, &keyring, &secrets);
        ps[0] = Box::new(SilentLeader);
        let mut sim = Simulation::new(ps, Box::new(FifoScheduler::default()));
        sim.mark_byzantine(PartyId(0));
        let report = sim.run(200_000);
        assert_eq!(report.reason, StopReason::Quiescent);
        assert!(sim.outputs().into_iter().skip(1).all(|o| o.is_none()));
    }

    #[test]
    fn tolerates_f_silent_contributors() {
        let n = 7;
        let (keyring, secrets) = setup(n);
        let mut ps = parties(n, 0, &keyring, &secrets);
        ps[5] = Box::new(SilentParty::new());
        ps[6] = Box::new(SilentParty::new());
        let mut sim = Simulation::new(ps, Box::new(RandomScheduler::new(4)));
        sim.mark_byzantine(PartyId(5));
        sim.mark_byzantine(PartyId(6));
        let report = sim.run(5_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        let outs: Vec<Seed> = sim.outputs().into_iter().take(5).flatten().collect();
        assert_eq!(outs.len(), 5);
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn seed_is_committed_before_reveal() {
        // The leader cannot send a Seed for a different secret than the one
        // committed: parties check VrfySecret against their recorded script.
        let n = 4;
        let (keyring, secrets) = setup(n);
        let mut party = Seeding::new(
            Sid::new("seeding"),
            PartyId(1),
            PartyId(0),
            keyring.clone(),
            secrets[1].clone(),
        );
        let _ = party.on_activation();
        // Forge a Seed message without any recorded script: ignored.
        let bogus = PvssSecret::decode(&mut setupfree_wire::Reader::new(&setupfree_wire::to_bytes(
            &setupfree_crypto::pairing::G2::generator(),
        )))
        .unwrap();
        // Even a structurally valid certificate (over an unrelated message)
        // cannot substitute for the recorded-script check.
        let sig = secrets[1].sig.sign(b"x", b"y");
        let cert = QuorumCert::new(1, &[(1, sig)], keyring.sig_key_slice(), b"x", b"y").unwrap();
        let step = party.on_message(PartyId(0), SeedingMessage::Seed { quorum: cert, secret: bogus });
        assert!(step.is_empty());
    }

    #[test]
    fn replayed_agg_stored_does_not_inflate_the_quorum() {
        // A Byzantine party replaying its AggPvssStored signature must not
        // count more than once toward the n − f commitment quorum.
        let n = 4;
        let (keyring, secrets) = setup(n);
        let sid = Sid::new("seeding");
        let mut leader =
            Seeding::new(sid.clone(), PartyId(0), PartyId(0), keyring.clone(), secrets[0].clone());
        let _ = leader.on_activation();
        // Feed the leader all four contributions so it aggregates.
        let mut agg_script = None;
        for (i, secret) in secrets.iter().enumerate().take(n) {
            let mut p = Seeding::new(
                sid.clone(),
                PartyId(i),
                PartyId(0),
                keyring.clone(),
                secret.clone(),
            );
            let step = p.on_activation();
            for o in step.outgoing {
                let out = leader.on_message(PartyId(i), o.msg);
                for o2 in out.outgoing {
                    if let SeedingMessage::AggPvss { script } = o2.msg {
                        agg_script = Some(script);
                    }
                }
            }
        }
        let agg_script = agg_script.expect("leader aggregated after n contributions");
        // Collect each party's signature on the aggregate.
        let ctx = {
            let mut c = sid.as_bytes().to_vec();
            c.extend_from_slice(b"/seeding/agg");
            c
        };
        let msg_bytes = setupfree_wire::to_bytes(&agg_script);
        let sign = |i: usize| secrets[i].sig.sign(&ctx, &msg_bytes);
        // Party 1 replays its signature three times: still one vote.
        for _ in 0..3 {
            let step = leader
                .on_message(PartyId(1), SeedingMessage::AggPvssStored { signature: sign(1) });
            assert!(step.is_empty(), "replays must not complete the quorum");
        }
        let step =
            leader.on_message(PartyId(2), SeedingMessage::AggPvssStored { signature: sign(2) });
        assert!(step.is_empty(), "two distinct signers are below the quorum of three");
        let step =
            leader.on_message(PartyId(3), SeedingMessage::AggPvssStored { signature: sign(3) });
        let commit = step
            .outgoing
            .iter()
            .find_map(|o| match &o.msg {
                SeedingMessage::AggPvssCommit { quorum } => Some(quorum.clone()),
                _ => None,
            })
            .expect("third distinct signer completes the quorum");
        assert_eq!(commit.signer_count(), 3);
        assert_eq!(commit.signer_indices(), vec![1, 2, 3]);
    }

    #[test]
    fn quadratic_communication() {
        let measure = |n: usize| {
            let (keyring, secrets) = setup(n);
            let mut sim =
                Simulation::new(parties(n, 0, &keyring, &secrets), Box::new(FifoScheduler::default()));
            sim.run(5_000_000);
            sim.metrics().honest_bytes as f64
        };
        let b4 = measure(4);
        let b8 = measure(8);
        let ratio = b8 / b4;
        // O(λ n²) with O(λ n)-sized scripts: between quadratic and cubic-ish
        // growth is acceptable for small n; it must be far from n⁴.
        assert!(ratio > 2.0 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn message_wire_roundtrip() {
        let n = 4;
        let (keyring, secrets) = setup(n);
        let mut p = Seeding::new(Sid::new("w"), PartyId(1), PartyId(0), keyring, secrets[1].clone());
        let step = p.on_activation();
        for o in step.outgoing {
            let bytes = setupfree_wire::to_bytes(&o.msg);
            assert_eq!(setupfree_wire::from_bytes::<SeedingMessage>(&bytes).unwrap(), o.msg);
        }
        assert!(setupfree_wire::from_bytes::<SeedingMessage>(&[99]).is_err());
    }
}
