//! The CI regression gates: a binary with no flags that runs every check
//! below, prints one line per run, and exits 1 if any check failed (after
//! running all of them).  It records nothing.  The repository benchmark is
//! `perfbench/` (declared in `BENCHMARK.json`); the `BENCH_pr*.json` files
//! at the workspace root are frozen history that no code reads.
//!
//! ```sh
//! cargo run --release -p setupfree-bench --bin gates
//! ```
//!
//! The checks, in run order:
//!
//! 1. **Simulator liveness** — coin, AVSS, beacon and the setup-free ABA at
//!    every n in [`LIVENESS_SIZES`] reach `AllOutputs` within their delivery
//!    budgets (a run that regresses to `BudgetExhausted` is a liveness bug).
//! 2. **Exact ABA deliveries** — the ABA at each size in
//!    [`ABA_DELIVERY_GOLDENS`] runs [`GOLDEN_REPLAYS`] times in this process
//!    and every run replays the golden delivery count *exactly*: the
//!    simulator is deterministic, so the counts are machine-independent and
//!    any drift means the default all-to-all path changed behaviour.  The
//!    n = 22 run also replays [`ABA22_COMPRESSIONS_GOLDEN`] exactly.
//! 3. **Certificate bytes** — ABA n = 22 honest bytes stay within 110 % of
//!    [`ABA22_CERT_BYTES_BASELINE`] and at least 2× under
//!    [`ABA22_PRE_AGGREGATION_BYTES`].
//! 4. **Sharded runtime** — four ABA sessions on [`SHARD_WORKERS`] shards in
//!    both the inline and the parallel mode, and a four-epoch
//!    pipelined beacon under a `MaxConcurrent(2)` admission window, reach
//!    `AllOutputs` and agree per session.
//! 5. **Committee grid** — all-to-all and committee-sampled ABA/VBA cells up
//!    to n = 250 (among them the m = 22 ABA at n = 100) decide, with
//!    listeners adopting, and agree; at fixed m, per-node messages grow at
//!    most [`COMMITTEE_SUBLINEAR_BOUND`]× from n = 100 to n = 250.
//! 6. **Starved sessions** — each [`STARVED_SESSION_RUNS`] run, one session
//!    starved by `SessionTargetedDelay`, still terminates.
//! 7. **Socket transport** — the beacon over real loopback TCP peers at every
//!    n in [`SOCKET_SIZES`] decides and agrees within [`SOCKET_LIMIT_MS`],
//!    and the 4-peer beacon under [`chaos_plan`] (1 % frame drops, ≤ 20 ms
//!    jitter, one forced link cut) redials, replays its outboxes, and still
//!    decides and agrees within [`CHAOS_LIMIT_MS`].
//! 8. **Tracing overhead** — the golden ABA n = 22 replay with a sink
//!    installed but off stays within [`TRACE_OFF_CEILING`] of the
//!    uninstrumented run and with a counting sink within
//!    [`TRACE_COUNTING_CEILING`], and every arm replays the golden delivery
//!    count exactly (tracing observes, it never steers).
//! 9. **ABA rounds** — the trace-derived mean rounds-to-decide at n = 10
//!    over [`ABA_ROUNDS_SEEDS`] stays within [`ABA_ROUNDS_BAND`] of
//!    [`ABA_ROUNDS_GOLDEN_MEAN`].

use std::ops::Range;
use std::time::Instant;

use setupfree_bench::tracing::{aba_overhead_arm, aba_round_distribution, OverheadArm};
use setupfree_bench::{
    measure_avss, measure_beacon, measure_coin, measure_committee_aba, measure_committee_vba,
    measure_setupfree_aba, measure_sharded_abas, measure_sharded_pipelined_beacon,
    measure_socket_beacon, measure_starved_session_abas, measure_trusted_aba, measure_trusted_vba,
    Measurement, SocketMeasurement,
};
use setupfree_core::coin::CoreSetMode;
use setupfree_crypto::hash::compressions;
use setupfree_net::StopReason;
use setupfree_transport::LinkFaultPlan;

/// Party counts of the simulator liveness table.
const LIVENESS_SIZES: [usize; 4] = [4, 10, 22, 40];

/// Seed bases of the liveness table: a run at n uses base + n for its PKI
/// and its random scheduler.
const COIN_SEED: u64 = 7_000;
const AVSS_SEED: u64 = 7_100;
const BEACON_SEED: u64 = 7_200;
const ABA_SEED: u64 = 7_300;

/// Sequential epochs of every beacon run (simulated and socket).
const BEACON_EPOCHS: u32 = 2;

/// Exact delivery counts of the setup-free ABA at (n, seed [`ABA_SEED`] + n),
/// pinned when aggregated quorum certificates and shared coin seeding
/// landed.
const ABA_DELIVERY_GOLDENS: [(usize, u64); 2] = [(22, 195_801), (40, 791_847)];

/// Runs of each golden ABA size in one process: the repeat checks that
/// process-wide caches warmed by the first run do not steer the second.
const GOLDEN_REPLAYS: usize = 2;

/// Exact SHA-256 compressions of the n = 22 golden ABA run on the calling
/// thread, PKI generation included.  It was 370 575 before the signature
/// oracles took one compression each and parties reused one message digest
/// per signed object.
const ABA22_COMPRESSIONS_GOLDEN: u64 = 196_665;

/// ABA n = 22 honest bytes recorded when aggregated certificates landed;
/// the gate fails on growth past 110 % of it.
const ABA22_CERT_BYTES_BASELINE: u64 = 9_479_964;

/// ABA n = 22 honest bytes before certificate aggregation; the gate fails
/// unless the current bytes are at most half of it.
const ABA22_PRE_AGGREGATION_BYTES: u64 = 31_092_836;

/// Worker shards, session count and seed of the sharded ABA runs.
const SHARD_WORKERS: usize = 4;
const SHARD_SESSIONS: usize = 4;
const SHARD_SEED: u64 = 7_600;

/// Epochs, workers, admission window and seed of the sharded pipelined
/// beacon.
const PIPE_EPOCHS: usize = 4;
const PIPE_WORKERS: usize = 2;
const PIPE_WINDOW: usize = 2;
const PIPE_SEED: u64 = 7_700;

/// Party counts of the committee grid.
const COMMITTEE_SIZES: [usize; 3] = [40, 100, 250];

/// Committee sizes swept at each n: ABA and VBA.
const COMMITTEE_ABA_MEMBERS: [usize; 2] = [10, 22];
const COMMITTEE_VBA_MEMBERS: [usize; 2] = [10, 16];

/// Largest n of the all-to-all VBA comparator: its signature work grows
/// ~n³, and the ABA comparator already anchors the n = 250 column.
const COMMITTEE_VBA_FULL_MAX: usize = 100;

/// Seed bases of the committee grid (base + n) and the VBA proposal size.
const COMMITTEE_ABA_SEED: u64 = 7_800;
const COMMITTEE_VBA_SEED: u64 = 7_850;
const COMMITTEE_VBA_PAYLOAD: usize = 32;

/// Largest allowed growth of per-node messages from n = 100 to n = 250 at a
/// fixed committee size (a linear term would show 2.5×).
const COMMITTEE_SUBLINEAR_BOUND: f64 = 1.5;

/// Starved-session runs as (n, sessions, seed); session 0 is starved.
const STARVED_SESSION_RUNS: [(usize, usize, u64); 3] =
    [(4, 3, 0x5717), (10, 4, 0x5717), (22, 4, 0x5718)];

/// Peer counts of the clean socket beacon (seed [`BEACON_SEED`] + n).
const SOCKET_SIZES: [usize; 3] = [4, 10, 22];

/// Wall-clock caps of the clean and the chaos socket beacon.  The group's
/// own watchdog bounds a run; the caps catch a transport that still
/// finishes but has silently become pathological.
const SOCKET_LIMIT_MS: f64 = 60_000.0;
const CHAOS_LIMIT_MS: f64 = 120_000.0;

/// Peers and fault-plan seed of the chaos socket beacon.
const CHAOS_PEERS: usize = 4;
const CHAOS_SEED: u64 = 0x0C8A05;

/// Tracing-overhead workload: the golden ABA at n = 22 (seed [`ABA_SEED`] +
/// 22), repeated with the arm order rotated every repetition.
const TRACE_N: usize = 22;
const TRACE_REPS: usize = 6;

/// Ceilings on the ratio of each tracing arm's fastest run to the fastest
/// uninstrumented run: sink installed but off, and a counting sink.
const TRACE_OFF_CEILING: f64 = 1.02;
const TRACE_COUNTING_CEILING: f64 = 1.10;

/// Trace-derived ABA round band: mean rounds-to-decide at n = 10 over the
/// pinned seeds.  The simulator is deterministic, so a drift is a behaviour
/// change in the ABA or in the trace's round accounting, not noise.
const ABA_ROUNDS_N: usize = 10;
const ABA_ROUNDS_SEEDS: Range<u64> = 9_000..9_020;
const ABA_ROUNDS_GOLDEN_MEAN: f64 = 4.00;
const ABA_ROUNDS_BAND: f64 = 1.0;

/// Failed checks, reported as they happen and again at exit.
#[derive(Default)]
struct Gates {
    failures: Vec<String>,
}

impl Gates {
    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            let failure = failure();
            eprintln!("  FAIL: {failure}");
            self.failures.push(failure);
        }
    }

    /// A simulator run must reach `AllOutputs`.
    fn terminated(&mut self, what: &str, m: &Measurement) {
        self.check(m.reason == StopReason::AllOutputs, || {
            format!("{what} n={} stopped with {:?}", m.n, m.reason)
        });
    }

    /// A simulator run must reach `AllOutputs` with agreeing outputs.
    fn live(&mut self, what: &str, m: &Measurement) {
        self.terminated(what, m);
        self.check(m.agreed, || format!("{what} n={} did not agree", m.n));
    }

    /// A socket run must decide and agree within `limit_ms`.
    fn socket(&mut self, what: &str, s: &SocketMeasurement, limit_ms: f64) {
        self.check(s.failure.is_none(), || {
            format!("{what} n={}: {}", s.n, s.failure.as_deref().unwrap_or_default())
        });
        self.check(s.agreed, || format!("{what} n={} did not decide and agree", s.n));
        self.check(s.wall_ms <= limit_ms, || {
            format!("{what} n={} took {:.0} ms (limit {limit_ms:.0} ms)", s.n, s.wall_ms)
        });
    }
}

fn timed(what: &str, run: impl FnOnce() -> Measurement) -> Measurement {
    let start = Instant::now();
    let m = run();
    println!(
        "  {what:<18} n={:<3} {:>9.1} ms  deliveries={:<8} bytes={:<11} msgs={:<8} rounds={}",
        m.n,
        start.elapsed().as_secs_f64() * 1e3,
        m.deliveries,
        m.honest_bytes,
        m.honest_messages,
        m.rounds
    );
    m
}

/// Checks 1–3: the liveness table, the exact ABA goldens and the
/// certificate-bytes budget.
fn simulator_gates(g: &mut Gates) {
    println!("simulator liveness, exact ABA deliveries and certificate bytes");
    for n in LIVENESS_SIZES {
        let seed = |base: u64| base + n as u64;
        let coin = timed("coin", || measure_coin(n, seed(COIN_SEED), CoreSetMode::Weak));
        // The weak core-set coin may disagree by design; only liveness is
        // gated.
        g.terminated("coin", &coin);
        let avss = timed("avss", || measure_avss(n, seed(AVSS_SEED)));
        g.live("avss", &avss);
        let beacon = timed("beacon", || measure_beacon(n, BEACON_EPOCHS, seed(BEACON_SEED)).0);
        g.live("beacon", &beacon);
        let golden = ABA_DELIVERY_GOLDENS.iter().find(|(gn, _)| *gn == n).map(|&(_, d)| d);
        let runs = if golden.is_some() { GOLDEN_REPLAYS } else { 1 };
        for _ in 0..runs {
            let hashed_before = compressions();
            let aba = timed("aba", || measure_setupfree_aba(n, seed(ABA_SEED)));
            let hashed = compressions() - hashed_before;
            g.live("aba", &aba);
            if let Some(golden) = golden {
                g.check(aba.deliveries == golden, || {
                    format!("aba n={n} replayed {} deliveries, golden {golden}", aba.deliveries)
                });
            }
            if n == 22 {
                println!("  aba n=22 hashed {hashed} SHA-256 blocks");
                g.check(hashed == ABA22_COMPRESSIONS_GOLDEN, || {
                    format!("aba n=22 hashed {hashed} blocks, golden {ABA22_COMPRESSIONS_GOLDEN}")
                });
                let bytes = aba.honest_bytes;
                g.check(bytes <= ABA22_CERT_BYTES_BASELINE + ABA22_CERT_BYTES_BASELINE / 10, || {
                    format!("aba n=22 honest bytes {bytes} > 110 % of {ABA22_CERT_BYTES_BASELINE}")
                });
                g.check(bytes <= ABA22_PRE_AGGREGATION_BYTES / 2, || {
                    format!(
                        "aba n=22 honest bytes {bytes} lost the 2x cut from \
                         {ABA22_PRE_AGGREGATION_BYTES}"
                    )
                });
            }
        }
    }
}

/// Check 4: both sharded execution modes and admission-controlled epochs.
fn sharded_gates(g: &mut Gates) {
    println!("sharded runtime");
    let (n, k, w) = (4, SHARD_SESSIONS, SHARD_WORKERS);
    let inline = timed("aba-x4-shard-w4", || measure_sharded_abas(n, k, w, SHARD_SEED, false));
    g.live("aba-x4-shard-w4", &inline);
    let parallel = timed("aba-x4-par-w4", || measure_sharded_abas(n, k, w, SHARD_SEED, true));
    g.live("aba-x4-par-w4", &parallel);
    let pipe = timed("beacon-pipe4-shard", || {
        measure_sharded_pipelined_beacon(n, PIPE_EPOCHS, PIPE_WORKERS, PIPE_WINDOW, PIPE_SEED)
    });
    g.live("beacon-pipe4-shard", &pipe);
}

/// Check 5: every committee cell decides and agrees; sampled cells' per-node
/// messages are sublinear in n.
fn committee_gates(g: &mut Gates) {
    println!("committee grid (m = n: all-to-all comparator)");
    let mut cells: Vec<(&str, usize, Measurement)> = Vec::new();
    for n in COMMITTEE_SIZES {
        let seed = COMMITTEE_ABA_SEED + n as u64;
        cells.push(("aba", n, timed(&format!("aba m={n}"), || measure_trusted_aba(n, seed))));
        for m in COMMITTEE_ABA_MEMBERS {
            let meas = timed(&format!("aba m={m}"), || measure_committee_aba(n, m, seed));
            cells.push(("aba", m, meas));
        }
    }
    for n in COMMITTEE_SIZES {
        let seed = COMMITTEE_VBA_SEED + n as u64;
        let payload = COMMITTEE_VBA_PAYLOAD;
        if n <= COMMITTEE_VBA_FULL_MAX {
            let meas = timed(&format!("vba m={n}"), || measure_trusted_vba(n, payload, seed));
            cells.push(("vba", n, meas));
        }
        for m in COMMITTEE_VBA_MEMBERS {
            let meas =
                timed(&format!("vba m={m}"), || measure_committee_vba(n, m, payload, seed));
            cells.push(("vba", m, meas));
        }
    }
    for (protocol, _, meas) in &cells {
        g.live(protocol, meas);
    }
    let per_node = |protocol: &str, m: usize, n: usize| {
        cells
            .iter()
            .find(|(p, cm, meas)| *p == protocol && *cm == m && meas.n == n)
            .map(|(_, _, meas)| meas.honest_messages as f64 / n as f64)
    };
    for (protocol, members) in [("aba", COMMITTEE_ABA_MEMBERS), ("vba", COMMITTEE_VBA_MEMBERS)] {
        for m in members {
            let (small, large) = (per_node(protocol, m, 100), per_node(protocol, m, 250));
            if let (Some(small), Some(large)) = (small, large) {
                println!(
                    "  {protocol} m={m}: per-node messages {small:.1} at n=100, {large:.1} at n=250"
                );
                g.check(large <= COMMITTEE_SUBLINEAR_BOUND * small, || {
                    format!("{protocol} m={m}: per-node messages grew {small:.1} -> {large:.1}")
                });
            }
        }
    }
}

/// Check 6: a starved session still terminates.
fn starved_session_gates(g: &mut Gates) {
    println!("starved sessions (session 0 delayed behind all other traffic)");
    for (n, k, seed) in STARVED_SESSION_RUNS {
        let (m, per_session) = measure_starved_session_abas(n, k, 0, seed);
        let others = per_session[1..].iter().sum::<u64>() as f64 / (k - 1) as f64;
        println!(
            "  starve n={n} k={k}: starved session delivered {} vs {others:.0} mean elsewhere",
            per_session[0]
        );
        g.live("starved-session aba", &m);
    }
}

/// The chaos socket beacon's fault plan: 1 % frame drops, up to 20 ms of
/// per-frame jitter, and one forced cut of the 0→1 link at its 50th frame.
fn chaos_plan() -> LinkFaultPlan {
    LinkFaultPlan::new(CHAOS_SEED)
        .drop_probability(0.01)
        .delay(std::time::Duration::ZERO, std::time::Duration::from_millis(20))
        .cut_link(0, 1, 50)
}

/// Check 7: the socket transport is live, clean and under chaos.
fn socket_gates(g: &mut Gates) {
    println!("socket transport (loopback TCP peers)");
    for n in SOCKET_SIZES {
        let s = measure_socket_beacon(n, BEACON_EPOCHS, BEACON_SEED + n as u64, None);
        println!(
            "  beacon   n={n:<3} {:>9.1} ms  envelopes={} bytes={}",
            s.wall_ms, s.sent_envelopes, s.sent_bytes
        );
        g.socket("socket beacon", &s, SOCKET_LIMIT_MS);
    }
    let n = CHAOS_PEERS;
    let s = measure_socket_beacon(n, BEACON_EPOCHS, BEACON_SEED + n as u64, Some(&chaos_plan()));
    println!(
        "  chaos    n={n:<3} {:>9.1} ms  drops={} retransmitted={} redials={}",
        s.wall_ms, s.drops_injected, s.retransmitted, s.redials
    );
    g.socket("chaos socket beacon", &s, CHAOS_LIMIT_MS);
}

/// Check 8: tracing is (nearly) free when nobody is looking.  Each
/// repetition runs all three arms, starting one arm later than the last, so
/// every arm runs in every position equally often.  Each arm's fastest run
/// is its least-disturbed one; the gate judges the ratio of those minima.
fn tracing_overhead_gate(g: &mut Gates) {
    const ARMS: [OverheadArm; 3] =
        [OverheadArm::Plain, OverheadArm::DisabledSink, OverheadArm::CountingSink];
    let n = TRACE_N;
    let golden = ABA_DELIVERY_GOLDENS.iter().find(|(gn, _)| *gn == n).map(|&(_, d)| d);
    let golden = golden.expect("the tracing workload has a delivery golden");
    println!("tracing overhead: aba n={n}, {TRACE_REPS} repetitions, arm order rotated");
    let mut fastest = [f64::INFINITY; 3];
    let mut events = 0u64;
    for rep in 0..TRACE_REPS {
        for offset in 0..ARMS.len() {
            let slot = (rep + offset) % ARMS.len();
            let (wall, deliveries, counted) = aba_overhead_arm(n, ABA_SEED + n as u64, ARMS[slot]);
            g.check(deliveries == golden, || {
                format!("{:?} arm replayed {deliveries} deliveries, golden {golden}", ARMS[slot])
            });
            fastest[slot] = fastest[slot].min(wall.as_secs_f64());
            events = events.max(counted);
        }
    }
    let off = fastest[1] / fastest[0];
    let counting = fastest[2] / fastest[0];
    println!(
        "  fastest plain {:.1} ms; sink-off {:+.1} %, counting {:+.1} % ({events} events)",
        fastest[0] * 1e3,
        (off - 1.0) * 100.0,
        (counting - 1.0) * 100.0
    );
    g.check(off <= TRACE_OFF_CEILING, || {
        format!("sink-off overhead {:+.1} % exceeds {TRACE_OFF_CEILING}", (off - 1.0) * 100.0)
    });
    g.check(counting <= TRACE_COUNTING_CEILING, || {
        format!(
            "counting-sink overhead {:+.1} % exceeds {TRACE_COUNTING_CEILING}",
            (counting - 1.0) * 100.0
        )
    });
    g.check(events > 0, || "the counting sink observed no events".into());
}

/// Check 9: the ABA stays in the expected-constant-round regime.
fn aba_rounds_gate(g: &mut Gates) {
    let rounds = aba_round_distribution(ABA_ROUNDS_N, ABA_ROUNDS_SEEDS);
    let mean = rounds.iter().sum::<u64>() as f64 / rounds.len() as f64;
    println!(
        "aba rounds from traces: n={ABA_ROUNDS_N}, {} seeds: mean {mean:.2} (golden \
         {ABA_ROUNDS_GOLDEN_MEAN:.2} ± {ABA_ROUNDS_BAND:.1}), min {}, max {}",
        rounds.len(),
        rounds.iter().min().unwrap(),
        rounds.iter().max().unwrap()
    );
    g.check((mean - ABA_ROUNDS_GOLDEN_MEAN).abs() <= ABA_ROUNDS_BAND, || {
        format!("aba round mean {mean:.2} left {ABA_ROUNDS_GOLDEN_MEAN:.2} ± {ABA_ROUNDS_BAND:.1}")
    });
}

fn main() {
    let start = Instant::now();
    let mut g = Gates::default();
    simulator_gates(&mut g);
    sharded_gates(&mut g);
    committee_gates(&mut g);
    starved_session_gates(&mut g);
    socket_gates(&mut g);
    tracing_overhead_gate(&mut g);
    aba_rounds_gate(&mut g);
    let secs = start.elapsed().as_secs_f64();
    if g.failures.is_empty() {
        println!("all gates passed in {secs:.1} s");
    } else {
        eprintln!("{} gate(s) failed in {secs:.1} s:", g.failures.len());
        for failure in &g.failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}
