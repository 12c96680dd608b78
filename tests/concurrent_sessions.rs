//! Concurrent-session workloads over one simulated network (PR 4).
//!
//! The session router's [`SessionHost`] multiplexes many top-level protocol
//! sessions over a single network by routing on a leading session segment —
//! the workload studied by Cohen et al. for concurrent asynchronous BA
//! (arXiv:2312.14506).  These tests run the two workloads the benchmarks
//! measure — `k` concurrent ABA instances and pipelined beacon epochs —
//! through the shared adversarial harness, asserting per-session agreement
//! and validity under every schedule.

use std::sync::Arc;

use setupfree::prelude::*;
use setupfree_testkit::{assert_agreement_sweep, Adversary, Ensemble};

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

#[test]
fn concurrent_trusted_abas_agree_per_session_across_schedules() {
    let n = 4;
    let k = 4usize;
    // Session s has mixed inputs (i + s) % 2 — per-session validity is then
    // trivially satisfied by any decision; agreement is the interesting part.
    let runs = assert_agreement_sweep(&Adversary::standard_sweep(n, 3), 10_000_000, |adv| {
        Ensemble::build(n, |i| {
            let sessions: Vec<MmrAba<TrustedCoinFactory>> = (0..k)
                .map(|s| {
                    MmrAba::new(
                        Sid::new(&format!("it-kaba-{adv}")).derive("session", s),
                        i,
                        n,
                        1,
                        (i.index() + s) % 2 == 0,
                        TrustedCoinFactory,
                    )
                })
                .collect();
            Box::new(SessionHost::new(sessions)) as BoxedParty<Envelope, Vec<bool>>
        })
        .with_path_of(envelope_path)
    });
    for run in &runs {
        run.assert_validity(|out| out.len() == k);
    }
}

#[test]
fn concurrent_full_stack_abas_agree_per_session() {
    // The real thing: two concurrent ABA sessions whose every round flips
    // the private-setup-free Coin, multiplexed over one network.
    let n = 4;
    let k = 2usize;
    let (keyring, secrets) = keys(n, 91);
    let runs = assert_agreement_sweep(&Adversary::random_sweep(2), 1 << 30, |adv| {
        Ensemble::build(n, |i| {
            let sessions: Vec<MmrAba<CoinProtocolFactory>> = (0..k)
                .map(|s| {
                    let factory = CoinProtocolFactory::new(
                        i,
                        keyring.clone(),
                        secrets[i.index()].clone(),
                    );
                    MmrAba::new(
                        Sid::new(&format!("it-kaba-full-{adv}")).derive("session", s),
                        i,
                        n,
                        keyring.f(),
                        (i.index() + s) % 2 == 0,
                        factory,
                    )
                })
                .collect();
            Box::new(SessionHost::new(sessions)) as BoxedParty<Envelope, Vec<bool>>
        })
        .with_path_of(envelope_path)
    });
    for run in &runs {
        run.assert_validity(|out| out.len() == k);
    }
}

#[test]
fn concurrent_sessions_tolerate_a_silent_party() {
    let n = 4;
    let k = 3usize;
    let runs = assert_agreement_sweep(&Adversary::random_sweep(3), 10_000_000, |adv| {
        Ensemble::build(n, |i| {
            let sessions: Vec<MmrAba<TrustedCoinFactory>> = (0..k)
                .map(|s| {
                    MmrAba::new(
                        Sid::new(&format!("it-kaba-crash-{adv}")).derive("session", s),
                        i,
                        n,
                        1,
                        (i.index() + s) % 2 == 1,
                        TrustedCoinFactory,
                    )
                })
                .collect();
            Box::new(SessionHost::new(sessions)) as BoxedParty<Envelope, Vec<bool>>
        })
        .with_path_of(envelope_path)
        .silence(2)
    });
    for run in &runs {
        assert_eq!(run.honest_outputs().len(), 3, "under {}", run.adversary);
    }
}

#[test]
fn starved_session_still_terminates_and_interference_is_measured() {
    // The per-session fairness regime (Cohen et al., arXiv:2312.14506):
    // the adversary starves ONE session's traffic — every other session's
    // messages deliver first — and the starved session must still
    // terminate by eventual delivery.  The session classifier exposes the
    // per-session delivery split, so the sweep also *measures* the
    // cross-session interference it creates, and asserts the per-session
    // conservation law (checked inside `sweep` for every run).
    let n = 4;
    let k = 4usize;
    let runs = assert_agreement_sweep(&Adversary::session_sweep(k as u16, 2), 10_000_000, |adv| {
        Ensemble::build(n, |i| {
            let sessions: Vec<MmrAba<TrustedCoinFactory>> = (0..k)
                .map(|s| {
                    MmrAba::new(
                        Sid::new(&format!("it-starve-{adv}")).derive("session", s),
                        i,
                        n,
                        1,
                        (i.index() + s) % 2 == 0,
                        TrustedCoinFactory,
                    )
                })
                .collect();
            Box::new(SessionHost::new(sessions)) as BoxedParty<Envelope, Vec<bool>>
        })
        .with_path_of(envelope_path)
    });
    for run in &runs {
        run.assert_validity(|out| out.len() == k);
        // Every session was attributed traffic, and none was silently lost.
        assert_eq!(run.metrics.session_conservation_violation(), None);
        assert!(run.metrics.session_count() >= k, "under {}", run.adversary);
        assert_eq!(run.metrics.unclassified_sent, 0, "all SessionHost traffic has a session");
        let delivered = &run.metrics.session_delivered;
        assert!(
            delivered.iter().take(k).all(|&d| d > 0),
            "every session (starved included) makes progress under {}: {delivered:?}",
            run.adversary
        );
    }
}

#[test]
fn session_partition_starves_the_trailing_group_but_everyone_terminates() {
    let n = 4;
    let k = 4usize;
    let boundary = 2u16;
    let runs = assert_agreement_sweep(
        &[setupfree_testkit::Adversary::SessionPartition { boundary, seed: 0xF00 }],
        10_000_000,
        |adv| {
            Ensemble::build(n, |i| {
                let sessions: Vec<MmrAba<TrustedCoinFactory>> = (0..k)
                    .map(|s| {
                        MmrAba::new(
                            Sid::new(&format!("it-spart-{adv}")).derive("session", s),
                            i,
                            n,
                            1,
                            (i.index() + s) % 2 == 1,
                            TrustedCoinFactory,
                        )
                    })
                    .collect();
                Box::new(SessionHost::new(sessions)) as BoxedParty<Envelope, Vec<bool>>
            })
            .with_path_of(envelope_path)
        },
    );
    for run in &runs {
        run.assert_validity(|out| out.len() == k);
        assert_eq!(run.metrics.session_conservation_violation(), None);
    }
}

#[test]
fn pipelined_beacon_epochs_agree_on_leaders() {
    // Pipelined beacon: all epoch elections run concurrently in a
    // SessionHost (the sequential variant is `RandomBeacon`).  Leaders must
    // agree per epoch; the winning VRF is speculative per-party state, so
    // compare leaders only.
    let n = 4;
    let epochs = 3usize;
    let (keyring, secrets) = keys(n, 92);
    let runs = setupfree_testkit::sweep(&Adversary::random_sweep(2), 1 << 30, |adv| {
        Ensemble::build(n, |i| {
            let sessions: Vec<Election<MmrAbaFactory<TrustedCoinFactory>>> = (0..epochs)
                .map(|e| {
                    let aba = MmrAbaFactory::new(i, n, keyring.f(), TrustedCoinFactory);
                    Election::new(
                        Sid::new(&format!("it-pipe-beacon-{adv}")).derive("epoch", e),
                        i,
                        keyring.clone(),
                        secrets[i.index()].clone(),
                        aba,
                    )
                })
                .collect();
            Box::new(SessionHost::new(sessions)) as BoxedParty<Envelope, Vec<ElectionOutput>>
        })
        .with_path_of(envelope_path)
    });
    for run in &runs {
        run.assert_termination();
        let outs = run.honest_outputs();
        for pair in outs.windows(2) {
            assert_eq!(pair[0].len(), epochs);
            for (a, b) in pair[0].iter().zip(pair[1].iter()) {
                assert_eq!(a.leader, b.leader, "per-epoch leader agreement under {}", run.adversary);
            }
        }
    }
}

#[test]
fn the_path_classifier_attributes_sends_to_sessions_in_metrics_and_trace() {
    // One classifier feeds both ledgers: the per-session Metrics counters
    // and the path carried by every trace Send event.  They must agree
    // session for session.
    use setupfree::net::mux::KIND_SESSION;
    use setupfree_obs::analysis::byte_attribution;
    use setupfree_obs::{EventKind, ObsPath, VecSink};

    let (n, k) = (4, 3usize);
    let parties: Vec<BoxedParty<Envelope, Vec<bool>>> = (0..n)
        .map(|i| {
            let sessions: Vec<MmrAba<TrustedCoinFactory>> = (0..k)
                .map(|s| {
                    MmrAba::new(
                        Sid::new("it-path-classifier").derive("session", s),
                        PartyId(i),
                        n,
                        1,
                        (i + s) % 2 == 0,
                        TrustedCoinFactory,
                    )
                })
                .collect();
            Box::new(SessionHost::new(sessions)) as BoxedParty<Envelope, Vec<bool>>
        })
        .collect();
    let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(0xC1A5)));
    sim.set_path_of(envelope_path);
    setupfree_obs::install(Box::new(VecSink::new()));
    let report = sim.run(10_000_000);
    let trace = setupfree_obs::uninstall().map(|mut s| s.drain()).unwrap_or_default();
    assert_eq!(report.reason, StopReason::AllOutputs);

    let metrics = sim.metrics();
    assert_eq!(metrics.session_conservation_violation(), None);
    assert_eq!(metrics.unclassified_sent, 0, "every SessionHost send carries a session");
    let bins = byte_attribution(&trace, 1);
    assert_eq!(bins.len(), k, "one depth-1 path prefix per session");
    for (prefix, _bytes, sends) in &bins {
        let segments: Vec<(u8, u16)> = prefix.segments().collect();
        let [(kind, s)] = segments[..] else { panic!("depth-1 prefix {prefix}") };
        assert_eq!(kind, KIND_SESSION);
        assert_eq!(metrics.session_sent[s as usize], *sends, "session {s}");
    }
    let mut checked = 0;
    for e in &trace {
        if let EventKind::Send { session, path, .. } = &e.kind {
            let leading = path.segments().next().map(|(_, index)| index);
            assert_eq!(*session, leading, "Send on {path} carries session {session:?}");
            assert_ne!(*path, ObsPath::ROOT);
            checked += 1;
        }
    }
    assert_eq!(checked, metrics.session_sent.iter().sum::<u64>());
}
