//! Traced measurement harness: the same simulator workloads as the parent
//! module, run with a [`setupfree_obs`] sink installed so the returned
//! [`Measurement`] comes with the full path-keyed event stream — the input
//! to phase-latency breakdowns, ABA round distributions, and critical-path
//! extraction.
//!
//! Also home to the two instruments the `gates` binary's tracing checks
//! use: [`aba_overhead_arm`] (what does tracing cost when off / when
//! counting?) and [`aba_round_distribution`] (does the round count still
//! look expected-constant across seeds?).

use std::time::{Duration, Instant};

use setupfree_aba::MmrAba;
use setupfree_core::coin::{Coin, CoinOutput, CoinProtocolFactory, CoreSetMode};
use setupfree_net::{
    envelope_path, BoxedParty, Envelope, PartyId, RandomScheduler, Sid, Simulation, StopReason,
};
use setupfree_obs::analysis::aba_rounds_to_decide;
use setupfree_obs::{TraceEvent, VecSink};

use crate::{keys, Measurement};

/// One traced execution: the usual metrics plus the recorded event stream.
pub struct TracedRun {
    /// The paper's metrics for the run.
    pub measurement: Measurement,
    /// Every trace event the run emitted, in emission order.
    pub trace: Vec<TraceEvent>,
}

/// Drives `parties` to completion with a [`VecSink`] installed and the
/// envelope-path classifier wired, so sends are attributed to destination
/// instance paths (and, under a `SessionHost`, to sessions).
fn run_traced<O: Clone + std::fmt::Debug>(
    parties: Vec<BoxedParty<Envelope, O>>,
    seed: u64,
    budget: u64,
) -> TracedRun {
    let n = parties.len();
    let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    sim.set_path_of(envelope_path);
    setupfree_obs::install(Box::new(VecSink::new()));
    let report = sim.run(budget);
    let trace = setupfree_obs::uninstall().map(|mut s| s.drain()).unwrap_or_default();
    assert_eq!(report.reason, StopReason::AllOutputs, "traced run did not terminate");
    let metrics = sim.metrics();
    TracedRun {
        measurement: Measurement {
            n,
            f: (n - 1) / 3,
            honest_bytes: metrics.honest_bytes,
            honest_messages: metrics.honest_messages,
            rounds: metrics.rounds_to_all_outputs().unwrap_or(0),
            deliveries: report.deliveries,
            agreed: true,
            reason: report.reason,
        },
        trace,
    }
}

fn coin_parties(n: usize, seed: u64) -> Vec<BoxedParty<Envelope, CoinOutput>> {
    let (keyring, secrets) = keys(n, seed);
    (0..n)
        .map(|i| {
            Box::new(Coin::with_core_mode(
                Sid::new(&format!("bench-coin-{seed}")),
                PartyId(i),
                keyring.clone(),
                secrets[i].clone(),
                CoreSetMode::Weak,
            )) as BoxedParty<Envelope, CoinOutput>
        })
        .collect()
}

fn aba_parties(n: usize, seed: u64) -> Vec<BoxedParty<Envelope, bool>> {
    let (keyring, secrets) = keys(n, seed);
    (0..n)
        .map(|i| {
            let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
            Box::new(MmrAba::new(
                Sid::new(&format!("bench-aba-{seed}")),
                PartyId(i),
                n,
                keyring.f(),
                i % 2 == 0,
                factory,
            )) as BoxedParty<Envelope, bool>
        })
        .collect()
}

/// Traces one instance of the paper's Coin (weak core-set mode) — the same
/// workload as [`crate::measure_coin`].
pub fn trace_coin(n: usize, seed: u64) -> TracedRun {
    run_traced(coin_parties(n, seed), seed, 1 << 28)
}

/// Traces one full setup-free ABA (real coin per round) — the same workload
/// as [`crate::measure_setupfree_aba`], seed-for-seed.
pub fn trace_setupfree_aba(n: usize, seed: u64) -> TracedRun {
    run_traced(aba_parties(n, seed), seed, 1 << 30)
}

/// The three tracing configurations the overhead gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadArm {
    /// No sink installed — the uninstrumented baseline.
    Plain,
    /// A sink installed but emission toggled off: measures the cost of the
    /// instrumentation points themselves (one thread-local flag read each).
    DisabledSink,
    /// The cheapest live sink: one counter bump per event, nothing retained.
    CountingSink,
}

/// Runs the standard ABA workload (same construction as
/// [`crate::measure_setupfree_aba`]) under one tracing arm and returns
/// `(wall, deliveries, events)` — deliveries must be bit-identical across
/// arms (tracing observes, never steers), and the wall-clock ratio between
/// arms is the overhead gate.
pub fn aba_overhead_arm(n: usize, seed: u64, arm: OverheadArm) -> (Duration, u64, u64) {
    let parties = aba_parties(n, seed);
    let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
    let counted = match arm {
        OverheadArm::Plain => None,
        OverheadArm::DisabledSink => {
            setupfree_obs::install(Box::new(VecSink::new()));
            setupfree_obs::set_enabled(false);
            None
        }
        OverheadArm::CountingSink => {
            let (sink, count) = setupfree_obs::counter();
            setupfree_obs::install(Box::new(sink));
            Some(count)
        }
    };
    let start = Instant::now();
    let report = sim.run(1 << 30);
    let wall = start.elapsed();
    let events = counted.map(|c| c.get()).unwrap_or(0);
    setupfree_obs::uninstall();
    assert_eq!(report.reason, StopReason::AllOutputs, "overhead arm did not terminate");
    (wall, report.deliveries, events)
}

/// Trace-derived rounds-to-decide of the standard ABA workload for each of
/// `seeds` — the distribution whose mean the round-sanity gate bands.
pub fn aba_round_distribution(n: usize, seeds: impl IntoIterator<Item = u64>) -> Vec<u64> {
    seeds
        .into_iter()
        .map(|seed| {
            let run = trace_setupfree_aba(n, seed);
            let rounds = aba_rounds_to_decide(&run.trace);
            assert!(rounds > 0, "a decided ABA has round phases");
            u64::from(rounds)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_obs::analysis::{phase_breakdown, FlowCounts};

    #[test]
    fn traced_aba_reproduces_the_untraced_run_exactly() {
        let traced = trace_setupfree_aba(4, 0xF00D);
        let plain = crate::measure_setupfree_aba(4, 0xF00D);
        assert_eq!(traced.measurement.deliveries, plain.deliveries, "tracing must not steer");
        assert_eq!(traced.measurement.honest_bytes, plain.honest_bytes);
        assert!(!traced.trace.is_empty());
        // The stream's flow counters obey the simulator's conservation law.
        let flows = FlowCounts::of(&traced.trace);
        assert_eq!(flows.sent_copies(), flows.delivers + flows.purged() + flows.in_flight());
    }

    #[test]
    fn the_phase_breakdown_covers_the_pipeline() {
        let run = trace_coin(4, 0xC0);
        let shares = phase_breakdown(&run.trace);
        assert!(
            shares.iter().any(|s| s.phase == setupfree_obs::Phase::CoinRevealed),
            "a decided coin must reveal"
        );
    }

    #[test]
    fn overhead_arms_replay_identical_work() {
        let (_, plain, _) = aba_overhead_arm(4, 0xF00D, OverheadArm::Plain);
        let (_, off, zero) = aba_overhead_arm(4, 0xF00D, OverheadArm::DisabledSink);
        let (_, counting, events) = aba_overhead_arm(4, 0xF00D, OverheadArm::CountingSink);
        assert_eq!(plain, off);
        assert_eq!(plain, counting);
        assert_eq!(zero, 0);
        assert!(events > 0, "the counting arm must observe events");
    }
}
