//! The repository benchmark: runs one workload of the setupfree stack on
//! the deterministic simulator and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload aba-trusted-n100 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: a closed loop with one
//! client runs instances back to back for `--seconds` (and at least the
//! workload's fixed units), untraced.  `--trace 1` runs each traced unit
//! three times, interleaved (untraced, with per-layer spans, with the
//! program's phase events), runs the crypto and wire calibration stages,
//! and reports the per-layer metrics; it writes the layer table and the
//! raw spans of the first traced unit under `perfbench/out/`.  The last
//! line of standard output is one JSON object; the exit code is non-zero
//! on bad arguments.

mod calib;
mod probe;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use probe::{Layer, Span, Tally, LAYERS};
use setupfree_obs::Phase;
use workloads::{PhaseMark, Probes, Unit, Workload, WORKERS};

/// Decide-latency samples a run collects at least, so the p95 has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 200;
/// Index of the warm-up unit, outside the measured sequence; it is run
/// again at the end as the replay check.
const WARMUP_UNIT: u64 = 1 << 40;
/// Traced units whose envelopes are captured for the wire replay.
const CAPTURE_UNITS: u64 = 8;
/// A run stops starting new units after this long, whatever it still
/// lacks, to stay inside the harness's time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    let mut json = String::new();
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    )
    .expect("writing to a String cannot fail");
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * (pos - lo as f64)
}

fn median(values: impl IntoIterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = values.into_iter().collect();
    v.sort_unstable();
    quantile(&v, 0.5)
}

/// Returns the heap memory earlier units freed to the kernel, then resets
/// the kernel's peak-RSS mark to the current RSS (Linux 4.0 and later), so
/// the next reading covers one unit and not what larger units before it
/// left cached in the allocator.
fn reset_peak_rss() {
    release_free_heap();
    // Where the reset is unsupported the mark stays the process peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, may be called from
    // any thread at any time, and only hands free heap pages back to the
    // kernel; no allocation this program holds is touched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident memory of this process since the last reset, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The deterministic counts of one unit, compared across repetitions.
fn fingerprint(unit: &Unit) -> Vec<(bool, u64, u64, u64, u64)> {
    unit.decisions
        .iter()
        .map(|d| (d.ok, d.deliveries, d.bytes, d.msgs, d.rounds))
        .collect()
}

/// Failures and problems of a set of units.
fn tally_failures(units: &[Unit], problems: &mut Vec<String>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for u in units {
        attempted += u.decisions.len() as u64;
        failed += u.decisions.iter().filter(|d| !d.ok).count() as u64;
        problems.extend(u.problems.iter().cloned());
    }
    (attempted, failed)
}

/// Mean deterministic counts per decided instance.
fn per_decision(units: &[Unit]) -> (f64, f64, f64) {
    let ok: Vec<_> = units
        .iter()
        .flat_map(|u| &u.decisions)
        .filter(|d| d.ok)
        .collect();
    let k = ok.len().max(1) as f64;
    let sum = |f: fn(&workloads::Decision) -> u64| ok.iter().map(|d| f(d)).sum::<u64>() as f64 / k;
    (sum(|d| d.bytes), sum(|d| d.msgs), sum(|d| d.rounds))
}

fn warm_and_replay_check(w: Workload, seed: u64, warm: &Unit, problems: &mut Vec<String>) {
    let again = w.run_unit(seed, WARMUP_UNIT, &Probes::default());
    if fingerprint(&again) != fingerprint(warm) {
        problems.push(format!(
            "{}: replaying a unit gave different counts",
            w.name()
        ));
    }
}

/// `--trace 0`: the end-to-end metrics from an untraced closed loop.
fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let plain = Probes::default();
    let warm = w.run_unit(args.seed, WARMUP_UNIT, &plain);
    let window = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    let mut samples = 0usize;
    let mut peak_rss: Vec<u64> = Vec::new();
    while (units.len() as u64) < w.fixed_units() || t0.elapsed() < window || samples < MIN_SAMPLES {
        if t0.elapsed() > HARD_STOP {
            break;
        }
        reset_peak_rss();
        let unit = w.run_unit(args.seed, units.len() as u64, &plain);
        peak_rss.push(peak_rss_kib());
        samples += unit
            .decisions
            .iter()
            .filter(|d| d.ok)
            .map(|d| d.decide_ns.len())
            .sum::<usize>();
        units.push(unit);
    }
    let mut problems = Vec::new();
    warm_and_replay_check(w, args.seed, &warm, &mut problems);
    let (attempted, failed) = tally_failures(&units, &mut problems);

    let mut decide: Vec<u64> = units
        .iter()
        .flat_map(|u| &u.decisions)
        .filter(|d| d.ok)
        .flat_map(|d| d.decide_ns.iter().copied())
        .collect();
    decide.sort_unstable();
    if decide.len() < MIN_SAMPLES {
        problems.push(format!(
            "only {} decide samples; the p95 needs {MIN_SAMPLES}",
            decide.len()
        ));
    }
    let decided = attempted - failed;
    let wall_s = units.iter().map(|u| u.wall_ns).sum::<u64>() as f64 / 1e9;
    let fixed = &units[..(w.fixed_units() as usize).min(units.len())];
    let (bytes, msgs, rounds) = per_decision(fixed);
    let setup_s = median(units.iter().map(|u| u.setup_ns)) / 1e9;

    let metrics = vec![
        metric("decide_ms_p50", quantile(&decide, 0.50) / 1e6, "ms"),
        metric("decide_ms_p95", quantile(&decide, 0.95) / 1e6, "ms"),
        metric("decisions_per_s", decided as f64 / wall_s, "1/s"),
        metric("bytes_per_decision", bytes, "B"),
        metric("msgs_per_decision", msgs, "count"),
        metric("rounds_per_decision", rounds, "count"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", median(peak_rss) / 1024.0, "MiB"),
    ];
    let notes = vec![format!(
        "{} seed {}: {} units, {decided} decisions, {} decide samples, {:.2} s measured, fail_ratio {}",
        w.name(),
        args.seed,
        units.len(),
        decide.len(),
        wall_s,
        failed as f64 / attempted.max(1) as f64
    )];
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes,
    }
}

fn take<T: Default>(shared: &Arc<Mutex<T>>) -> T {
    std::mem::take(&mut *shared.lock().expect("probe sink poisoned"))
}

/// The useful-work ratios from the program's phase marks: mean rounds per
/// ABA instance, the share of coin flips every honest party saw alike,
/// and mean views per VBA instance.
fn useful_work(marks: &[PhaseMark]) -> (f64, f64, f64) {
    let mut aba: BTreeMap<_, u32> = BTreeMap::new();
    let mut coins: BTreeMap<_, BTreeSet<u32>> = BTreeMap::new();
    let mut views: BTreeMap<_, u32> = BTreeMap::new();
    for m in marks {
        match m.phase {
            Phase::AbaRound => {
                let r = aba.entry((m.unit, m.session, m.path)).or_default();
                *r = (*r).max(m.info + 1);
            }
            Phase::CoinRevealed => {
                coins
                    .entry((m.unit, m.session, m.path))
                    .or_default()
                    .insert(m.info);
            }
            Phase::VbaView => {
                let v = views.entry((m.unit, m.session)).or_default();
                *v = (*v).max(m.info + 1);
            }
            _ => {}
        }
    }
    fn mean<K>(m: &BTreeMap<K, u32>) -> f64 {
        if m.is_empty() {
            0.0
        } else {
            m.values().map(|&v| v as f64).sum::<f64>() / m.len() as f64
        }
    }
    let common = if coins.is_empty() {
        0.0
    } else {
        coins.values().filter(|bits| bits.len() == 1).count() as f64 / coins.len() as f64
    };
    (mean(&aba), common, mean(&views))
}

/// `--trace 1`: the per-layer metrics of the traced units.
fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let seed = args.seed;
    let mut problems = Vec::new();
    let warm = w.run_unit(seed, WARMUP_UNIT, &Probes::default());
    warm_and_replay_check(w, seed, &warm, &mut problems);

    // The three passes run interleaved, unit by unit, so a change in the
    // host's speed during the run affects all three alike.
    let spans_sink = Arc::new(Mutex::new(Tally::default()));
    let recount_sink = Arc::new(Mutex::new(Tally::default()));
    let phase_sink = Arc::new(Mutex::new(Vec::new()));
    let (mut plain, mut timed, mut phased) = (Vec::new(), Vec::new(), Vec::new());
    for j in 0..w.traced_units() {
        plain.push(w.run_unit(seed, j, &Probes::default()));
        timed.push(w.run_unit(
            seed,
            j,
            &Probes {
                tally: Some(spans_sink.clone()),
                keep_spans: j == 0,
                capture: j < CAPTURE_UNITS,
                phases: None,
            },
        ));
        phased.push(w.run_unit(
            seed,
            j,
            &Probes {
                tally: Some(recount_sink.clone()),
                keep_spans: false,
                capture: false,
                phases: Some(phase_sink.clone()),
            },
        ));
    }
    let wall = |units: &[Unit]| units.iter().map(|u| u.wall_ns).sum::<u64>();
    let (plain_wall, timed_wall) = (wall(&plain), wall(&timed));
    let tally = take(&spans_sink);
    let recount = take(&recount_sink);
    let marks = take(&phase_sink);

    let (attempted, failed) = tally_failures(&plain, &mut problems);
    for (name, other) in [("traced", &timed), ("phase-traced", &phased)] {
        let same = plain
            .iter()
            .zip(other.iter())
            .all(|(a, b)| fingerprint(a) == fingerprint(b));
        if !same {
            problems.push(format!(
                "{}: the {name} pass changed the deterministic counts",
                w.name()
            ));
        }
        tally_failures(other, &mut problems);
    }
    if recount.layer_deliveries != tally.layer_deliveries
        || recount.election_deliveries != tally.election_deliveries
    {
        problems.push(format!(
            "{}: per-layer delivery counts differ between traced passes",
            w.name()
        ));
    }
    let plain_deliveries: u64 = plain
        .iter()
        .flat_map(|u| &u.decisions)
        .map(|d| d.deliveries)
        .sum();
    if tally.deliveries != plain_deliveries {
        problems.push(format!(
            "{}: wrapped deliveries differ from the simulator's count",
            w.name()
        ));
    }
    if tally.layer_deliveries[Layer::Other as usize] > 0 {
        problems.push(format!("{}: deliveries at paths no layer owns", w.name()));
    }

    let mut calib_spans = Vec::new();
    let calib_start = probe::now_ns();
    let crypto = calib::crypto(w.n(), seed, &mut calib_spans);
    let wire = calib::wire(&tally.sample, &mut calib_spans);
    calib_spans.push(Span {
        instance: calib::CALIBRATION,
        id: 0,
        parent: None,
        name: "calibration",
        start: calib_start,
        end: probe::now_ns(),
    });
    problems.extend(crypto.problems.iter().cloned());
    problems.extend(wire.problems.iter().cloned());

    let decided = (attempted - failed).max(1) as f64;
    let deliveries = tally.deliveries.max(1) as f64;
    let structural = |name: &'static str| tally.structural.iter().filter(move |s| s.name == name);
    let instance_ns: u64 = structural("instance").map(|s| s.end - s.start).sum();
    let sessions: Vec<&Span> = structural("runtime.session").collect();
    let session_ns: u64 = sessions.iter().map(|s| s.end - s.start).sum();
    let sharded = w == Workload::Sharded;
    // Thread time the layers share: the instance span on one thread, or
    // the batch span on every worker.
    let thread_ns = if sharded {
        WORKERS as u64 * instance_ns
    } else {
        instance_ns
    } as f64;
    let engine_parent_ns = if sharded {
        session_ns - tally.build_ns
    } else {
        instance_ns
    };
    let engine_ns = engine_parent_ns.saturating_sub(tally.party_ns() + tally.sched_ns);

    let mut metrics = vec![
        metric("sim.deliveries", tally.deliveries as f64 / decided, "count"),
        metric(
            "sim.deliveries_per_s",
            plain_deliveries as f64 / (plain_wall as f64 / 1e9),
            "1/s",
        ),
        metric(
            "sim.self_ns_per_delivery",
            engine_ns as f64 / deliveries,
            "ns",
        ),
        metric(
            "sched.ns_per_delivery",
            tally.sched_ns as f64 / deliveries,
            "ns",
        ),
        metric(
            "wire.bytes_per_delivery",
            tally.envelope_bytes as f64 / deliveries,
            "B",
        ),
        metric("wire.encode_ns_per_kib", wire.encode_ns_per_kib, "ns"),
        metric("wire.decode_ns_per_kib", wire.decode_ns_per_kib, "ns"),
        metric(
            "mux.pre_activation_buffered",
            tally.buffered as f64 / decided,
            "count",
        ),
        metric(
            "mux.pre_activation_drop_ratio",
            tally.dropped as f64 / deliveries,
            "ratio",
        ),
        metric(
            "mux.path_depth_mean",
            tally.path_depth_sum as f64 / deliveries,
            "count",
        ),
    ];
    let mut layer_rows: Vec<(&str, f64, u64)> = Vec::new();
    for layer in LAYERS {
        let i = layer as usize;
        layer_rows.push((
            layer.name(),
            tally.layer_ns[i] as f64,
            tally.layer_deliveries[i],
        ));
    }
    layer_rows.push((
        "election",
        tally.election_ns as f64,
        tally.election_deliveries,
    ));
    for (name, ns, n) in &layer_rows {
        if *name == "other" {
            continue;
        }
        metrics.push(metric(
            format!("{name}.handle_ms"),
            ns / decided / 1e6,
            "ms",
        ));
        metrics.push(metric(format!("{name}.share"), ns / thread_ns, "ratio"));
        metrics.push(metric(
            format!("{name}.deliveries"),
            *n as f64 / decided,
            "count",
        ));
    }
    let (aba_rounds, coin_common, vba_views) = useful_work(&marks);
    metrics.push(metric("aba.rounds_per_decision", aba_rounds, "count"));
    metrics.push(metric("coin.common_ratio", coin_common, "ratio"));
    metrics.push(metric("vba.views_per_decision", vba_views, "count"));
    for (name, ns) in &crypto.values {
        metrics.push(metric(*name, *ns, "ns"));
    }
    // Runtime metrics: the session spans the sharded workload records.
    let (busy, session_p50, wait, peak) = if sharded {
        let batch_start: BTreeMap<u32, u64> = structural("instance")
            .map(|s| (s.instance, s.start))
            .collect();
        let completion: u64 = sessions
            .iter()
            .map(|s| s.end - batch_start[&s.instance])
            .sum();
        (
            session_ns as f64 / thread_ns,
            median(sessions.iter().map(|s| s.end - s.start)) / 1e6,
            1.0 - session_ns as f64 / completion.max(1) as f64,
            timed
                .iter()
                .map(|u| u.peak_live_sessions)
                .max()
                .unwrap_or(0) as f64,
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    metrics.push(metric("runtime.busy_share", busy, "ratio"));
    metrics.push(metric("runtime.session_ms_p50", session_p50, "ms"));
    metrics.push(metric("runtime.session_wait_share", wait, "ratio"));
    metrics.push(metric("runtime.peak_live_sessions", peak, "count"));
    metrics.push(metric(
        "trace.overhead_ratio",
        timed_wall as f64 / plain_wall.max(1) as f64,
        "ratio",
    ));

    // The layer table: self time per layer over the traced pass.
    let mut table = String::new();
    let per = |ns: f64| ns / decided / 1e6;
    let _ = writeln!(
        table,
        "### {} (seed {seed}, {} decisions, n={})\n",
        w.name(),
        attempted - failed,
        w.n()
    );
    let _ = writeln!(
        table,
        "| layer | self ms/decision | share | deliveries/decision |"
    );
    let _ = writeln!(table, "|---|---:|---:|---:|");
    for (name, ns, n) in &layer_rows {
        if *name == "other" && *n == 0 {
            continue;
        }
        let label = if *name == "election" {
            "election (subtree, overlaps the rows above)"
        } else {
            name
        };
        let _ = writeln!(
            table,
            "| {label} | {:.3} | {:.3} | {:.0} |",
            per(*ns),
            ns / thread_ns,
            *n as f64 / decided
        );
    }
    let sched = tally.sched_ns as f64;
    let _ = writeln!(
        table,
        "| net::scheduler | {:.3} | {:.3} | |",
        per(sched),
        sched / thread_ns
    );
    let _ = writeln!(
        table,
        "| net::sim engine (self) | {:.3} | {:.3} | |",
        per(engine_ns as f64),
        engine_ns as f64 / thread_ns
    );
    if sharded {
        let build = tally.build_ns as f64;
        let idle = thread_ns - session_ns as f64;
        let _ = writeln!(
            table,
            "| runtime session build | {:.3} | {:.3} | |",
            per(build),
            build / thread_ns
        );
        let _ = writeln!(
            table,
            "| runtime idle/coordination (self) | {:.3} | {:.3} | |",
            per(idle),
            idle / thread_ns
        );
    }
    let _ = writeln!(
        table,
        "\nwall {:.1} ms untraced, {:.1} ms traced (trace.overhead_ratio {:.3}); wire replay over {} captured envelopes.",
        plain_wall as f64 / 1e6,
        timed_wall as f64 / 1e6,
        timed_wall as f64 / plain_wall.max(1) as f64,
        wire.messages
    );
    let spans = tally
        .structural
        .iter()
        .chain(&tally.spans)
        .chain(&calib_spans);
    if let Err(e) = write_outputs(w, seed, &table, spans) {
        problems.push(format!("writing the trace outputs: {e}"));
    }

    let notes = table.lines().map(str::to_owned).collect();
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes,
    }
}

/// Writes the layer table and the raw spans, one CSV row per span:
/// `instance,id,parent,name,start_ns,end_ns`.  Structural spans keep their
/// ids (0 for an instance or the calibration, 1 + session index for a
/// session); leaf spans are numbered after them.
fn write_outputs<'a>(
    w: Workload,
    seed: u64,
    table: &str,
    spans: impl Iterator<Item = &'a Span>,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{seed}", w.name());
    std::fs::write(dir.join(format!("{stem}.layers.md")), table)?;
    let mut csv = String::from("instance,id,parent,name,start_ns,end_ns\n");
    let mut next_leaf = 1 + workloads::SESSIONS as u32;
    for s in spans {
        let structural = s.parent.is_none() || s.name == "runtime.session";
        let id = if structural {
            s.id
        } else {
            next_leaf += 1;
            next_leaf
        };
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        let _ = writeln!(
            csv,
            "{},{id},{parent},{},{},{}",
            s.instance, s.name, s.start, s.end
        );
    }
    std::fs::write(dir.join(format!("{stem}.spans.csv")), csv)
}
