//! The four workloads, built from public constructors only, and the
//! correctness checks applied to every instance they run.
//!
//! Every instance's PKI, scheduler seed, inputs and fault plan derive from
//! the workload seed and the instance's index, so a seed names one fixed
//! sequence of instances.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setupfree_aba::MmrAba;
use setupfree_core::coin::CoinProtocolFactory;
use setupfree_core::traits::ElectionFactory;
use setupfree_core::{Election, TrustedCoinFactory};
use setupfree_crypto::{generate_pki, Keyring, PartySecrets};
use setupfree_net::mux::Envelope;
use setupfree_net::{BoxedParty, PartyId, RandomScheduler, Scheduler, Sid, Simulation, StopReason};
use setupfree_obs::{EventKind, ObsPath, Phase, TraceEvent, TraceSink};
use setupfree_runtime::{SessionSetup, ShardedHost};
use setupfree_vba::{accept_all, Vba};

use crate::probe::{
    now_ns, DecideSlot, Node, Probe, SharedTally, Span, SpanCtx, TimedScheduler, Tracing,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AbaSetupfree,
    AbaTrusted,
    Sharded,
    Vba,
}

/// Concurrent sessions per batch and worker threads of the sharded
/// workload (two workers: the cores this benchmark was sized on).
pub const SESSIONS: usize = 16;
pub const WORKERS: usize = 2;
/// Proposal size of the VBA workload.
const PROPOSAL_BYTES: usize = 64;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AbaSetupfree,
        Workload::AbaTrusted,
        Workload::Sharded,
        Workload::Vba,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AbaSetupfree => "aba-setupfree-n7",
            Workload::AbaTrusted => "aba-trusted-n100",
            Workload::Sharded => "sharded-aba-n10-k16",
            Workload::Vba => "vba-n4-crash1",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn n(self) -> usize {
        match self {
            Workload::AbaSetupfree => 7,
            Workload::AbaTrusted => 100,
            Workload::Sharded => 10,
            Workload::Vba => 4,
        }
    }

    pub fn f(self) -> usize {
        (self.n() - 1) / 3
    }

    /// Parties crashed before activation in every instance.
    pub fn crashed(self) -> usize {
        match self {
            Workload::Vba => self.f(),
            _ => 0,
        }
    }

    /// Units (instances, or batches for the sharded workload) every
    /// untraced run completes whatever `--seconds` says: about 15 s of work
    /// on a 2-core x86-64 host.  The deterministic metrics are taken over
    /// exactly these units, so one seed always reports the same values.
    pub fn fixed_units(self) -> u64 {
        match self {
            Workload::AbaSetupfree => 450,
            Workload::AbaTrusted => 400,
            Workload::Sharded => 18,
            Workload::Vba => 500,
        }
    }

    /// Units the traced run replays (three times): the first third of
    /// [`Self::fixed_units`], so a traced run takes about as long as an
    /// untraced one.
    pub fn traced_units(self) -> u64 {
        self.fixed_units() / 3
    }

    /// Delivery budget of one instance (or session): far above what any
    /// checked seed needs, low enough that a livelock fails in seconds.
    fn budget(self) -> u64 {
        match self {
            Workload::AbaSetupfree | Workload::AbaTrusted | Workload::Vba => 4_000_000,
            Workload::Sharded => 1_000_000,
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// SplitMix64: the seed-derivation step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of one random stream of unit `j` (and session `s` within it).
fn derive(seed: u64, w: Workload, j: u64, s: u64, stream: u64) -> u64 {
    mix(mix(mix(mix(seed ^ w.tag().rotate_left(56)) ^ j) ^ s) ^ stream)
}

const PKI: u64 = 1;
const SCHED: u64 = 2;
const INPUTS: u64 = 3;

/// One decided (or failed) agreement instance.
#[derive(Clone, Debug, Default)]
pub struct Decision {
    pub ok: bool,
    /// Per honest party that output: ns from the instance's start.
    pub decide_ns: Vec<u64>,
    pub bytes: u64,
    pub msgs: u64,
    pub rounds: u64,
    pub deliveries: u64,
}

/// One unit of work: an instance, or a batch of sessions.
#[derive(Debug, Default)]
pub struct Unit {
    pub decisions: Vec<Decision>,
    pub wall_ns: u64,
    pub setup_ns: u64,
    pub peak_live_sessions: usize,
    pub problems: Vec<String>,
}

/// A protocol phase mark kept for the useful-work ratios.
#[derive(Clone, Copy, Debug)]
pub struct PhaseMark {
    pub unit: u32,
    pub session: u32,
    pub path: ObsPath,
    pub phase: Phase,
    pub info: u32,
}

pub type SharedPhases = Arc<Mutex<Vec<PhaseMark>>>;

/// A trace sink that keeps only the phase marks the ratios need.
struct PhaseSink {
    unit: u32,
    session: u32,
    out: SharedPhases,
}

impl TraceSink for PhaseSink {
    fn record(&mut self, event: TraceEvent) {
        if let EventKind::Phase { path, phase, info } = event.kind {
            if matches!(
                phase,
                Phase::CoinRevealed | Phase::AbaRound | Phase::VbaView
            ) {
                let mark = PhaseMark {
                    unit: self.unit,
                    session: self.session,
                    path,
                    phase,
                    info,
                };
                self.out.lock().expect("phase sink poisoned").push(mark);
            }
        }
    }
}

/// What a pass observes besides the decide clock.
#[derive(Clone, Default)]
pub struct Probes {
    /// Per-layer spans and counts.
    pub tally: Option<SharedTally>,
    /// Keep the raw spans of this unit.
    pub keep_spans: bool,
    /// Capture envelopes of this unit for the wire replay.
    pub capture: bool,
    /// Protocol phase marks from the program's own trace events.
    pub phases: Option<SharedPhases>,
}

impl Probes {
    fn tracing(&self, ctx: SpanCtx) -> Option<Tracing> {
        self.tally.as_ref().map(|sink| Tracing {
            sink: sink.clone(),
            ctx,
            keep_spans: self.keep_spans,
            capture: self.capture,
        })
    }

    fn scheduler(
        &self,
        inner: Box<dyn Scheduler>,
        ctx: SpanCtx,
        session: Option<(u64, u64)>,
    ) -> Box<dyn Scheduler> {
        match self.tracing(ctx) {
            Some(cfg) => TimedScheduler::wrap(inner, cfg, session),
            None => inner,
        }
    }

    fn install_phases(&self, unit: u32, session: u32) {
        if let Some(out) = &self.phases {
            setupfree_obs::install(Box::new(PhaseSink {
                unit,
                session,
                out: out.clone(),
            }));
        }
    }

    fn record_instance(&self, unit: u32, start: u64, end: u64) {
        if let Some(t) = &self.tally {
            let span = Span {
                instance: unit,
                id: 0,
                parent: None,
                name: "instance",
                start,
                end,
            };
            t.lock().expect("tally poisoned").structural.push(span);
        }
    }
}

fn pki(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (
        Arc::new(keyring),
        secrets.into_iter().map(Arc::new).collect(),
    )
}

/// Mixed binary inputs: party 0 proposes 0, party 1 proposes 1, the rest
/// are random.
fn binary_inputs(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| if i < 2 { i == 1 } else { rng.gen() })
        .collect()
}

/// Elections with the real Coin and real-coin ABAs, for the VBA's views.
#[derive(Clone)]
struct FullElections {
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
}

impl ElectionFactory for FullElections {
    type Instance = Election<setupfree_aba::MmrAbaFactory<CoinProtocolFactory>>;

    fn create(&self, sid: Sid) -> Self::Instance {
        let aba = setupfree_aba::setup_free_aba_factory(
            self.me,
            self.keyring.clone(),
            self.secrets.clone(),
        );
        Election::new(
            sid,
            self.me,
            self.keyring.clone(),
            self.secrets.clone(),
            aba,
        )
    }
}

/// Checks one instance's outputs: termination, agreement and validity.
fn check<O: PartialEq + std::fmt::Debug>(
    reason: StopReason,
    outputs: &[Option<O>],
    honest: &[usize],
    valid: impl Fn(&O) -> bool,
) -> Result<(), String> {
    if reason != StopReason::AllOutputs {
        return Err(format!("stopped with {reason:?}"));
    }
    let first = outputs[honest[0]]
        .as_ref()
        .ok_or("honest party without output")?;
    for &i in honest {
        match &outputs[i] {
            Some(o) if o == first => {}
            Some(o) => {
                return Err(format!(
                    "disagreement: P{} output {o:?}, P{} output {first:?}",
                    i, honest[0]
                ))
            }
            None => return Err(format!("P{i} did not output")),
        }
    }
    if !valid(first) {
        return Err(format!("invalid output {first:?}"));
    }
    Ok(())
}

fn decide_times(slots: &[DecideSlot], honest: &[usize], start: u64) -> Vec<u64> {
    honest
        .iter()
        .map(|&i| slots[i].load(Ordering::Relaxed))
        .filter(|&t| t != 0)
        .map(|t| t.saturating_sub(start))
        .collect()
}

impl Workload {
    /// Runs unit `j` of this workload's sequence for `seed`.  A panic in
    /// the program fails the unit's instances instead of the process.
    pub fn run_unit(self, seed: u64, j: u64, probes: &Probes) -> Unit {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self {
            Workload::Sharded => self.run_batch(seed, j, probes),
            _ => self.run_instance(seed, j, probes),
        }));
        run.unwrap_or_else(|payload| {
            setupfree_obs::uninstall();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            let instances = if self == Workload::Sharded {
                SESSIONS
            } else {
                1
            };
            Unit {
                decisions: vec![Decision::default(); instances],
                problems: vec![format!("{} unit {j}: panicked: {message}", self.name())],
                ..Unit::default()
            }
        })
    }

    fn run_instance(self, seed: u64, j: u64, probes: &Probes) -> Unit {
        let n = self.n();
        let setup_start = now_ns();
        let s = |stream| derive(seed, self, j, 0, stream);
        let sid = Sid::new(&format!("perfbench/{}/{seed}/{j}", self.name()));
        let ctx = SpanCtx {
            instance: j as u32,
            parent: 0,
        };
        let slots: Vec<DecideSlot> = (0..n).map(|_| DecideSlot::default()).collect();
        let mut rng = StdRng::seed_from_u64(s(INPUTS));
        let sched = probes.scheduler(Box::new(RandomScheduler::new(s(SCHED))), ctx, None);

        let mut crashed: Vec<usize> = (0..n).collect();
        for i in 0..self.crashed() {
            let k = rng.gen_range(i..n);
            crashed.swap(i, k);
        }
        crashed.truncate(self.crashed());
        let honest: Vec<usize> = (0..n).filter(|i| !crashed.contains(i)).collect();

        enum Sim {
            Binary(Simulation<Envelope, bool>, Vec<bool>),
            Values(Simulation<Envelope, Vec<u8>>, Vec<Vec<u8>>),
        }
        let mut sim = match self {
            Workload::AbaSetupfree | Workload::AbaTrusted => {
                let inputs = binary_inputs(n, s(INPUTS));
                let keys = (self == Workload::AbaSetupfree).then(|| pki(n, s(PKI)));
                let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
                    .map(|i| {
                        let me = PartyId(i);
                        let aba: BoxedParty<Envelope, bool> = match &keys {
                            Some((keyring, secrets)) => {
                                let coins = CoinProtocolFactory::new(
                                    me,
                                    keyring.clone(),
                                    secrets[i].clone(),
                                );
                                Box::new(MmrAba::new(
                                    sid.clone(),
                                    me,
                                    n,
                                    self.f(),
                                    inputs[i],
                                    coins,
                                ))
                            }
                            None => Box::new(MmrAba::new(
                                sid.clone(),
                                me,
                                n,
                                self.f(),
                                inputs[i],
                                TrustedCoinFactory,
                            )),
                        };
                        Probe::wrap(aba, Node::Aba, slots[i].clone(), probes.tracing(ctx))
                    })
                    .collect();
                Sim::Binary(Simulation::new(parties, sched), inputs)
            }
            Workload::Vba => {
                let (keyring, secrets) = pki(n, s(PKI));
                let proposals: Vec<Vec<u8>> = (0..n)
                    .map(|_| (0..PROPOSAL_BYTES).map(|_| rng.gen()).collect())
                    .collect();
                let parties: Vec<BoxedParty<Envelope, Vec<u8>>> = (0..n)
                    .map(|i| {
                        let me = PartyId(i);
                        let elections = FullElections {
                            me,
                            keyring: keyring.clone(),
                            secrets: secrets[i].clone(),
                        };
                        let votes = setupfree_aba::setup_free_aba_factory(
                            me,
                            keyring.clone(),
                            secrets[i].clone(),
                        );
                        let vba = Vba::new(
                            sid.clone(),
                            me,
                            keyring.clone(),
                            secrets[i].clone(),
                            proposals[i].clone(),
                            accept_all(),
                            elections,
                            votes,
                        );
                        Probe::wrap(
                            Box::new(vba),
                            Node::Vba,
                            slots[i].clone(),
                            probes.tracing(ctx),
                        )
                    })
                    .collect();
                let mut sim = Simulation::new(parties, sched);
                for &c in &crashed {
                    sim.crash(PartyId(c));
                }
                Sim::Values(sim, proposals)
            }
            Workload::Sharded => unreachable!("the sharded workload runs batches"),
        };
        let setup_ns = now_ns() - setup_start;

        probes.install_phases(j as u32, 0);
        let start = now_ns();
        let (report, metrics, verdict) = match &mut sim {
            Sim::Binary(sim, inputs) => {
                let report = sim.run(self.budget());
                let valid = |b: &bool| honest.iter().any(|&i| inputs[i] == *b);
                (
                    report,
                    sim.metrics().clone(),
                    check(report.reason, &sim.outputs(), &honest, valid),
                )
            }
            Sim::Values(sim, proposals) => {
                let report = sim.run(self.budget());
                let valid = |v: &Vec<u8>| honest.iter().any(|&i| proposals[i] == *v);
                (
                    report,
                    sim.metrics().clone(),
                    check(report.reason, &sim.outputs(), &honest, valid),
                )
            }
        };
        let end = now_ns();
        if probes.phases.is_some() {
            setupfree_obs::uninstall();
        }
        // Wrappers flush their tallies as the parties are dropped.
        drop(sim);
        probes.record_instance(j as u32, start, end);

        let mut problems = Vec::new();
        if let Err(e) = &verdict {
            problems.push(format!("{} unit {j}: {e}", self.name()));
        }
        if report.deliveries != metrics.delivered_messages {
            problems.push(format!("{} unit {j}: delivery count mismatch", self.name()));
        }
        let decision = Decision {
            ok: problems.is_empty(),
            decide_ns: decide_times(&slots, &honest, start),
            bytes: metrics.honest_bytes,
            msgs: metrics.honest_messages,
            rounds: metrics.rounds_to_all_outputs().unwrap_or(0),
            deliveries: report.deliveries,
        };
        Unit {
            decisions: vec![decision],
            wall_ns: end - start,
            setup_ns,
            peak_live_sessions: 1,
            problems,
        }
    }

    /// One batch: `SESSIONS` setup-free ABA sessions over one PKI, run by
    /// `WORKERS` shards in parallel.  Each session is its own instance.
    fn run_batch(self, seed: u64, j: u64, probes: &Probes) -> Unit {
        let n = self.n();
        let setup_start = now_ns();
        let (keyring, secrets) = pki(n, derive(seed, self, j, 0, PKI));
        let pki_ns = now_ns() - setup_start;
        let inputs: Vec<Vec<bool>> = (0..SESSIONS)
            .map(|s| binary_inputs(n, derive(seed, self, j, s as u64, INPUTS)))
            .collect();
        let slots: Vec<Vec<DecideSlot>> = (0..SESSIONS)
            .map(|_| (0..n).map(|_| DecideSlot::default()).collect())
            .collect();
        let build_ns: Vec<AtomicU64> = (0..SESSIONS).map(|_| AtomicU64::new(0)).collect();

        let factory = |s: usize| {
            let t0 = now_ns();
            probes.install_phases(j as u32, s as u32);
            let ctx = SpanCtx {
                instance: j as u32,
                parent: 1 + s as u32,
            };
            let sid = Sid::new(&format!("perfbench/{}/{seed}/{j}/{s}", self.name()));
            let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
                .map(|i| {
                    let me = PartyId(i);
                    let coins = CoinProtocolFactory::new(me, keyring.clone(), secrets[i].clone());
                    let aba = MmrAba::new(sid.clone(), me, n, self.f(), inputs[s][i], coins);
                    Probe::wrap(
                        Box::new(aba),
                        Node::Aba,
                        slots[s][i].clone(),
                        probes.tracing(ctx),
                    )
                })
                .collect();
            let sched = Box::new(RandomScheduler::new(derive(seed, self, j, s as u64, SCHED)));
            let t1 = now_ns();
            build_ns[s].store(t1 - t0, Ordering::Relaxed);
            SessionSetup::new(
                parties,
                probes.scheduler(sched, ctx, Some((t0, t1))),
                self.budget(),
            )
        };
        let host = ShardedHost::new(WORKERS, SESSIONS, factory);
        let start = now_ns();
        let report = host.run_parallel();
        let end = now_ns();
        probes.record_instance(j as u32, start, end);

        let mut problems: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("{} unit {j}: worker failure: {f}", self.name()))
            .collect();
        let honest: Vec<usize> = (0..n).collect();
        let mut by_session: BTreeMap<usize, &setupfree_runtime::SessionReport> = BTreeMap::new();
        for r in &report.sessions {
            by_session.insert(r.session, r);
        }
        let decisions = (0..SESSIONS)
            .map(|s| {
                let Some(r) = by_session.get(&s) else {
                    problems.push(format!("{} unit {j} session {s}: lost", self.name()));
                    return Decision::default();
                };
                let valid = |b: &bool| inputs[s].contains(b);
                let mut ok = true;
                if let Err(e) = check(r.reason, &report.outputs[s], &honest, valid) {
                    problems.push(format!("{} unit {j} session {s}: {e}", self.name()));
                    ok = false;
                }
                if !r.metrics.conserved() {
                    problems.push(format!(
                        "{} unit {j} session {s}: message conservation violated",
                        self.name()
                    ));
                    ok = false;
                }
                Decision {
                    ok,
                    decide_ns: decide_times(&slots[s], &honest, start),
                    bytes: r.metrics.honest_bytes,
                    msgs: r.metrics.honest_messages,
                    rounds: r.metrics.rounds.unwrap_or(0),
                    deliveries: r.deliveries,
                }
            })
            .collect();
        let build_total: u64 = build_ns.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        Unit {
            decisions,
            wall_ns: end - start,
            setup_ns: pki_ns + build_total,
            peak_live_sessions: report.peak_live_sessions,
            problems,
        }
    }
}
