//! Determinism goldens and behaviour tests for the sharded runtime.
//!
//! The central contract: per-session results of [`ShardedHost::run`] are a
//! pure function of each session's own setup — **cell-for-cell identical
//! for every worker count** `W`, and (while sessions exchange no cross-shard
//! traffic) identical to the opt-in parallel mode too.  Plus: per-session
//! budget attribution, admission policies, and the per-session conservation
//! law.

use std::sync::Arc;

use setupfree_aba::MmrAba;
use setupfree_core::coin::CoinProtocolFactory;
use setupfree_core::TrustedCoinFactory;
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{BoxedParty, Envelope, PartyId, RandomScheduler, Sid, StopReason};
use setupfree_runtime::{MaxConcurrent, SessionSetup, ShardedHost, TokenBucket};

/// One trusted-coin ABA session: session `s` gets mixed inputs
/// `(i + s) % 2`, and — crucially for the `W`-independence of the golden —
/// its own scheduler seeded by `(base, session)` only.
fn trusted_aba_session(n: usize, session: usize, base_seed: u64, budget: u64) -> SessionSetup<Envelope, bool> {
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            Box::new(MmrAba::new(
                Sid::new("sharded-golden").derive("session", session),
                PartyId(i),
                n,
                (n - 1) / 3,
                (i + session).is_multiple_of(2),
                TrustedCoinFactory,
            )) as BoxedParty<Envelope, bool>
        })
        .collect();
    SessionSetup::new(
        parties,
        Box::new(RandomScheduler::new(base_seed ^ (session as u64).wrapping_mul(0x9e37_79b9))),
        budget,
    )
}

#[test]
fn per_session_results_identical_for_every_worker_count() {
    let n = 4;
    let k = 6;
    let run_with = |workers: usize| {
        ShardedHost::new(workers, k, move |s| trusted_aba_session(n, s, 0xD5, 1_000_000)).run()
    };
    let golden = run_with(1);
    assert!(golden.all_terminated());
    golden.assert_conservation();
    for workers in [2, 4] {
        let report = run_with(workers);
        assert_eq!(
            report.fingerprints(),
            golden.fingerprints(),
            "per-session (deliveries, rounds, sent, bytes) must be cell-for-cell identical \
             between W=1 and W={workers}"
        );
        // Outputs too: every party of every session decides the same value
        // regardless of the shard partition.
        for s in 0..k {
            assert_eq!(report.outputs[s], golden.outputs[s], "session {s} outputs diverged");
        }
        report.assert_conservation();
    }
    // The shard assignment itself follows the session-mod-W key.
    let w4 = run_with(4);
    for r in &w4.sessions {
        assert_eq!(r.shard, r.session % 4);
    }
}

#[test]
fn parallel_mode_matches_the_deterministic_merge() {
    let n = 4;
    let k = 5;
    let deterministic =
        ShardedHost::new(4, k, move |s| trusted_aba_session(n, s, 0xAB, 1_000_000)).run();
    let parallel =
        ShardedHost::new(4, k, move |s| trusted_aba_session(n, s, 0xAB, 1_000_000)).run_parallel();
    assert_eq!(parallel.fingerprints(), deterministic.fingerprints());
    for s in 0..k {
        assert_eq!(parallel.outputs[s], deterministic.outputs[s]);
    }
    parallel.assert_conservation();
}

#[test]
fn budget_exhaustion_is_attributed_to_the_offending_session() {
    let n = 4;
    let k = 4;
    let starved = 2usize;
    let report = ShardedHost::new(2, k, move |s| {
        // Session 2 gets a budget far below what an ABA needs; the others
        // are unconstrained.
        let budget = if s == starved { 40 } else { 1_000_000 };
        trusted_aba_session(n, s, 0x1CE, budget)
    })
    .run();
    assert_eq!(report.exhausted_sessions(), vec![starved], "only the starved session exhausts");
    for r in &report.sessions {
        if r.session == starved {
            assert_eq!(r.reason, StopReason::BudgetExhausted);
            assert_eq!(r.deliveries, 40, "it consumed exactly its own budget");
            assert!(r.metrics.in_flight > 0, "it still had traffic in flight");
        } else {
            assert_eq!(r.reason, StopReason::AllOutputs, "other sessions run to completion");
        }
    }
    // The books balance even with a budget-killed session in the mix.
    report.assert_conservation();
}

#[test]
fn zero_budget_session_closes_without_delivering_in_both_modes() {
    // The stop-order contract: outputs, quiescence, then the budget verdict
    // are checked BEFORE each delivery — exactly `Simulation::run`'s order —
    // so a zero-budget session exhausts with zero deliveries, identically
    // inline and on the parallel workers.
    let n = 4;
    let k = 2;
    let make = move |s: usize| {
        let budget = if s == 1 { 0 } else { 1_000_000 };
        trusted_aba_session(n, s, 0xB0, budget)
    };
    let det = ShardedHost::new(2, k, make).run();
    let par = ShardedHost::new(2, k, make).run_parallel();
    for report in [&det, &par] {
        assert_eq!(report.sessions[1].reason, StopReason::BudgetExhausted);
        assert_eq!(report.sessions[1].deliveries, 0, "a zero budget buys zero deliveries");
        assert_eq!(report.sessions[0].reason, StopReason::AllOutputs);
        report.assert_conservation();
    }
    assert_eq!(det.fingerprints(), par.fingerprints());
}

#[test]
fn max_concurrent_admission_bounds_the_live_window() {
    let n = 4;
    let k = 8;
    let report = ShardedHost::new(2, k, move |s| trusted_aba_session(n, s, 0xFA, 1_000_000))
        .with_admission(MaxConcurrent(2))
        .run();
    assert!(report.all_terminated());
    assert!(
        report.peak_live_sessions <= 2,
        "MaxConcurrent(2) must bound the live-session window, saw {}",
        report.peak_live_sessions
    );
    // Admission order is the session order: later sessions still complete.
    assert_eq!(report.sessions.len(), k);
}

#[test]
fn token_bucket_admission_still_drains_the_whole_queue() {
    let n = 4;
    let k = 6;
    // A stingy bucket: one admission per 2000 deliveries after the initial
    // burst of two.  The liveness floor guarantees the queue still drains
    // even if the bucket runs dry while the host is idle.
    let report = ShardedHost::new(2, k, move |s| trusted_aba_session(n, s, 0x70, 1_000_000))
        .with_admission(TokenBucket::new(2, 2000))
        .run();
    assert!(report.all_terminated());
    assert!(report.peak_live_sessions <= k);
    report.assert_conservation();
}

#[test]
fn full_stack_sessions_shard_identically() {
    // The real thing, scaled down: two concurrent setup-free ABA sessions
    // (every round flips the real Coin), sharded vs single-shard.
    let n = 4;
    let k = 2;
    let (keyring, secrets) = generate_pki(n, 91);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let make = |keyring: Arc<Keyring>, secrets: Vec<Arc<PartySecrets>>| {
        move |s: usize| {
            let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
                .map(|i| {
                    let factory = CoinProtocolFactory::new(
                        PartyId(i),
                        keyring.clone(),
                        secrets[i].clone(),
                    );
                    Box::new(MmrAba::new(
                        Sid::new("sharded-full").derive("session", s),
                        PartyId(i),
                        n,
                        keyring.f(),
                        (i + s).is_multiple_of(2),
                        factory,
                    )) as BoxedParty<Envelope, bool>
                })
                .collect();
            SessionSetup::new(parties, Box::new(RandomScheduler::new(7 + s as u64)), 1 << 30)
        }
    };
    let w1 = ShardedHost::new(1, k, make(keyring.clone(), secrets.clone())).run();
    let w2 = ShardedHost::new(2, k, make(keyring, secrets)).run();
    assert!(w1.all_terminated());
    assert_eq!(w1.fingerprints(), w2.fingerprints());
    for s in 0..k {
        assert_eq!(w1.outputs[s], w2.outputs[s]);
        // Per-session agreement: all parties of a session decide together.
        let decided: Vec<bool> = w1.outputs[s].iter().map(|o| o.unwrap()).collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "session {s} agreement");
    }
}
