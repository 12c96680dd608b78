//! Tracing under the sharded runtime: the per-session event streams are
//! part of the determinism contract, the admission trace records every
//! policy consultation, and a full-stack beacon session's stream
//! reconstructs into the protocol's span tree.
//!
//! The W-invariance pin matters because traces are recorded by
//! thread-local sinks, one installed per session on whichever thread runs
//! it: if any event leaked to the wrong session's sink, or a worker
//! reordered a session's own events, the streams would differ between
//! worker counts.  And a sharded session must be exactly the bare
//! simulation of its setup: same counts, same outputs, same stream.

use std::sync::Arc;

use setupfree_aba::{MmrAba, MmrAbaFactory};
use setupfree_app::beacon::{BeaconEpoch, RandomBeacon};
use setupfree_core::TrustedCoinFactory;
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::{
    BoxedParty, CrashAfter, Envelope, PartyId, RandomScheduler, Sid, SilentParty, Simulation,
};
use setupfree_obs::analysis::span_tree;
use setupfree_obs::{EventKind, Phase, VecSink, NO_PARTY};
use setupfree_runtime::{SessionSetup, ShardedHost, TokenBucket};

fn trusted_aba_session(n: usize, session: usize, base_seed: u64) -> SessionSetup<Envelope, bool> {
    let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
        .map(|i| {
            Box::new(MmrAba::new(
                Sid::new("traced-sharded").derive("session", session),
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
        1_000_000,
    )
}

#[test]
fn session_traces_are_identical_for_every_worker_count() {
    let n = 4;
    let k = 5;
    let run_with = |workers: usize, parallel: bool| {
        let host =
            ShardedHost::new(workers, k, move |s| trusted_aba_session(n, s, 0x7E)).with_tracing();
        if parallel { host.run_parallel() } else { host.run() }
    };
    let golden = run_with(1, false);
    assert!(golden.all_terminated());
    for (s, trace) in golden.session_traces.iter().enumerate() {
        assert!(!trace.is_empty(), "session {s} recorded no events");
        // Deterministic installs leave the wall clock off: the stream is a
        // pure function of the session, so it can be a golden at all.
        assert!(trace.iter().all(|e| e.wall_ns == 0), "session streams are wall-free");
    }
    for workers in [2, 4] {
        let report = run_with(workers, false);
        assert_eq!(
            report.session_traces, golden.session_traces,
            "W={workers} must replay every session's exact event stream"
        );
    }
    // The opt-in parallel mode records the same streams too — suspension
    // hands each session's sink to whichever worker thread resumes it.
    let parallel = run_with(4, true);
    assert_eq!(parallel.session_traces, golden.session_traces);
}

#[test]
fn a_sharded_session_is_a_bare_simulation() {
    let (n, k, seed) = (4, 4, 0xBA5E);
    // Session 2's party 3 crashes mid-run: honest traffic, not awaited.
    let crash = |s: usize| (s == 2).then_some((3, 5));
    let make = move |s: usize| {
        let setup = trusted_aba_session(n, s, seed);
        match crash(s) {
            Some((i, activations)) => setup.crash_after(i, activations),
            None => setup,
        }
    };
    let inline = ShardedHost::new(2, k, make).with_tracing().run();
    let parallel = ShardedHost::new(2, k, make).with_tracing().run_parallel();
    assert!(inline.all_terminated() && parallel.all_terminated());

    for s in 0..k {
        let setup = trusted_aba_session(n, s, seed);
        let mut parties = setup.parties;
        if let Some((i, activations)) = crash(s) {
            let machine = std::mem::replace(&mut parties[i], Box::new(SilentParty::new()));
            parties[i] = Box::new(CrashAfter::new(machine, activations));
        }
        let mut sim = Simulation::new(parties, setup.scheduler);
        if let Some((i, _)) = crash(s) {
            sim.mark_crash_faulty(PartyId(i));
        }
        setupfree_obs::install(Box::new(VecSink::new()));
        let run = sim.run(setup.budget);
        let trace = setupfree_obs::uninstall().map(|mut sink| sink.drain()).unwrap_or_default();
        let m = sim.metrics();
        let bare = (
            s,
            run.deliveries,
            m.rounds_to_all_outputs(),
            m.honest_messages + m.byzantine_messages,
            m.honest_bytes,
        );
        for (mode, report) in [("run", &inline), ("run_parallel", &parallel)] {
            assert_eq!(report.sessions[s].reason, run.reason, "{mode}: session {s} stop reason");
            assert_eq!(report.fingerprints()[s], bare, "{mode}: session {s} fingerprint");
            assert_eq!(report.outputs[s], sim.outputs(), "{mode}: session {s} outputs");
            assert_eq!(report.session_traces[s], trace, "{mode}: session {s} trace stream");
        }
        if crash(s).is_some() {
            assert_eq!(sim.outputs()[3], None, "the crashed party reports no output");
        }
    }
}

#[test]
fn untraced_runs_record_nothing() {
    let report = ShardedHost::new(2, 3, move |s| trusted_aba_session(4, s, 0x7E)).run();
    assert!(report.all_terminated());
    assert!(report.session_traces.iter().all(Vec::is_empty));
    assert!(report.admission_trace.is_empty());
}

#[test]
fn the_admission_trace_records_every_decision() {
    let n = 4;
    let k = 6;
    let report = ShardedHost::new(2, k, move |s| trusted_aba_session(n, s, 0xAD))
        .with_admission(TokenBucket::new(2, 2000))
        .with_tracing()
        .run();
    assert!(report.all_terminated());

    let decisions: Vec<_> = report
        .admission_trace
        .iter()
        .map(|e| match e.kind {
            EventKind::Admission { session, admitted, forced, tokens, live } => {
                assert_eq!(e.party, NO_PARTY, "admission is a host decision, not a party's");
                (session, admitted, forced, tokens, live)
            }
            ref other => panic!("non-admission event in the admission trace: {other:?}"),
        })
        .collect();

    // Every session was eventually admitted — by the policy's own verdict
    // or the liveness floor's forced override — in session order.
    let admitted: Vec<u32> =
        decisions.iter().filter(|d| d.1 || d.2).map(|d| d.0).collect();
    assert_eq!(admitted, (0..k as u32).collect::<Vec<_>>());
    // A stingy bucket (burst 2, one token per 2000 deliveries) cannot wave
    // everything through up front: the trace shows the policy saying no —
    // or the idle-host liveness floor overriding it.
    assert!(
        decisions.iter().any(|d| !d.1 || d.2),
        "a TokenBucket(2, 2000) over 6 sessions must defer or force at least once"
    );
    // Token-bucket decisions expose their token state.
    assert!(decisions.iter().all(|d| d.3.is_some()), "TokenBucket reports its tokens");
}

#[test]
fn a_full_stack_beacon_session_reconstructs_its_span_tree() {
    let n = 4;
    let epochs = 2u32;
    let (keyring, secrets) = generate_pki(n, 0xBEAC);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    let make = {
        let keyring: Arc<Keyring> = keyring.clone();
        let secrets = secrets.clone();
        move |s: usize| {
            let parties: Vec<BoxedParty<Envelope, Vec<BeaconEpoch>>> = (0..n)
                .map(|i| {
                    let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
                    Box::new(RandomBeacon::new(
                        Sid::new("traced-beacon").derive("session", s),
                        PartyId(i),
                        keyring.clone(),
                        secrets[i].clone(),
                        aba,
                        epochs,
                    )) as BoxedParty<Envelope, Vec<BeaconEpoch>>
                })
                .collect();
            SessionSetup::new(parties, Box::new(RandomScheduler::new(0xB0)), 1 << 30)
        }
    };
    let report = ShardedHost::new(1, 1, make).with_tracing().run();
    assert!(report.all_terminated());
    let trace = &report.session_traces[0];

    // One party's view of the run is a rooted span tree.
    let party0: Vec<_> = trace.iter().filter(|e| e.party == 0).cloned().collect();
    let tree = span_tree(&party0);
    assert!(tree.path.is_root());
    assert!(tree.decided.is_some(), "the root beacon machine decided");
    assert!(
        tree.children.len() >= epochs as usize,
        "at least one child span per epoch, saw {}",
        tree.children.len()
    );
    // The beacon nests elections, which nest coins, which nest sharing —
    // the tree must be deep, not a flat list of leaves.
    fn depth(node: &setupfree_obs::analysis::SpanNode) -> usize {
        1 + node.children.iter().map(depth).max().unwrap_or(0)
    }
    assert!(depth(&tree) >= 3, "full-stack spans nest, saw depth {}", depth(&tree));
    // Both epoch phases were marked on the root span.
    for epoch in 0..epochs {
        assert!(
            tree.phases.iter().any(|&(phase, info, _, _)| phase == Phase::BeaconEpoch && info == epoch),
            "epoch {epoch} phase mark missing from the root span"
        );
    }
    // Every span the tree synthesised is reachable by its own path.
    fn walk(node: &setupfree_obs::analysis::SpanNode, tree: &setupfree_obs::analysis::SpanNode) {
        assert!(tree.find(&node.path).is_some());
        for c in &node.children {
            assert!(c.path.starts_with(&node.path), "children extend their parent's path");
            walk(c, tree);
        }
    }
    walk(&tree, &tree);
}
