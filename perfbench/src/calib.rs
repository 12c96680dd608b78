//! Calibration stages of the traced run: per-operation cost of the public
//! `crypto` functions at the workload's n, and a replay of the wire codec
//! over envelopes captured from the workload itself.
//!
//! Each operation is warmed up first (lazy tables, caches), then timed in
//! chunks; the reported cost is the median chunk's time per operation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use setupfree_aba::AbaMessage;
use setupfree_avss::AvssMessage;
use setupfree_core::CoinMessage;
use setupfree_crypto::pvss::{verify_single_dealer_batch, PvssParams, PvssScript};
use setupfree_crypto::{generate_pki, multiexp, sha256, GroupElement, QuorumCert, Scalar};
use setupfree_net::mux::Envelope;
use setupfree_rbc::RbcMessage;
use setupfree_seeding::SeedingMessage;
use setupfree_vba::VbaMessage;
use setupfree_wcs::WcsMessage;
use setupfree_wire::{from_bytes, to_bytes, WireError};

use crate::probe::{now_ns, Layer, Span};

/// Instance id of calibration spans.
pub const CALIBRATION: u32 = u32::MAX;

const WARMUP: Duration = Duration::from_millis(30);
const CHUNK: Duration = Duration::from_millis(15);
const CHUNKS: usize = 7;

/// Times `op` and returns the median ns per call.  One span covers the
/// whole measurement.
fn time_op(name: &'static str, spans: &mut Vec<Span>, mut op: impl FnMut()) -> f64 {
    let start = now_ns();
    let warm = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || warm.elapsed() < WARMUP {
        op();
        calls += 1;
    }
    let per_call = warm.elapsed().as_nanos() as f64 / calls as f64;
    let reps = ((CHUNK.as_nanos() as f64 / per_call).ceil() as u64).max(1);
    let mut chunks: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                op();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    chunks.sort_by(f64::total_cmp);
    spans.push(Span {
        instance: CALIBRATION,
        id: 0,
        parent: Some(0),
        name,
        start,
        end: now_ns(),
    });
    chunks[CHUNKS / 2]
}

/// Per-operation crypto costs, in ns (SHA-256 in ns per KiB).
pub struct CryptoCosts {
    pub values: Vec<(&'static str, f64)>,
    /// Verifications that returned `false` on valid inputs.
    pub problems: Vec<String>,
}

pub fn crypto(n: usize, seed: u64, spans: &mut Vec<Span>) -> CryptoCosts {
    let f = (n - 1) / 3;
    let (keyring, secrets) = generate_pki(n, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let ctx: &[u8] = b"perfbench-calibration";
    let msg: &[u8] = b"calibration message";
    let mut problems = Vec::new();
    let mut expect = |name: &str, ok: bool| {
        if !ok {
            problems.push(format!("crypto calibration: {name} rejected a valid input"));
        }
    };

    let kib = vec![0xa5u8; 1024];
    let exps: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
    let bases: Vec<GroupElement> = exps
        .iter()
        .map(|e| GroupElement::generator().pow(*e))
        .collect();
    let sig = secrets[0].sig.sign(ctx, msg);
    expect("sig", keyring.sig_key(0).verify(ctx, msg, &sig));
    let quorum = n - f;
    let entries: Vec<_> = (0..quorum)
        .map(|i| (i, secrets[i].sig.sign(ctx, msg)))
        .collect();
    let qc = QuorumCert::new(quorum, &entries, keyring.sig_key_slice(), ctx, msg)
        .expect("signatures from the PKI aggregate");
    expect("qc", qc.verify(keyring.sig_key_slice(), ctx, msg));
    let (vrf_out, vrf_proof) = secrets[0].vrf.eval(ctx, msg);
    expect(
        "vrf",
        keyring.vrf_key(0).verify(ctx, msg, &vrf_out, &vrf_proof),
    );
    // The Seeding protocol's PVSS parameters.
    let params = PvssParams::new(n, 2 * f);
    let eks = keyring.pvss_eks();
    let vks = keyring.sig_keys();
    let scripts: Vec<PvssScript> = (0..n)
        .map(|d| {
            PvssScript::deal(
                &params,
                &eks,
                &secrets[d].sig,
                d,
                Scalar::random(&mut rng),
                &mut rng,
            )
        })
        .collect();
    expect(
        "pvss",
        scripts[0].verify_single_dealer(&params, &eks, &vks, 0),
    );
    let batch: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();
    let entropy = secrets[0].pvss_dk.batch_entropy();
    expect(
        "pvss batch",
        verify_single_dealer_batch(&params, &eks, &vks, &batch, &entropy)
            .iter()
            .all(|&ok| ok),
    );

    let mut i = 0usize;
    let values = vec![
        (
            "crypto.sha256_ns_per_kib",
            time_op("crypto.sha256", spans, || {
                black_box(sha256(black_box(&kib)));
            }),
        ),
        (
            "crypto.group_exp_ns",
            time_op("crypto.group_exp", spans, || {
                i = (i + 1) % n;
                black_box(GroupElement::generator().pow(black_box(exps[i])));
            }),
        ),
        (
            "crypto.multiexp_ns",
            time_op("crypto.multiexp", spans, || {
                black_box(multiexp::multi_exp(black_box(&bases), &exps));
            }),
        ),
        (
            "crypto.sig_verify_ns",
            time_op("crypto.sig_verify", spans, || {
                black_box(keyring.sig_key(0).verify(ctx, black_box(msg), &sig));
            }),
        ),
        (
            "crypto.qc_verify_ns",
            time_op("crypto.qc_verify", spans, || {
                black_box(qc.verify(keyring.sig_key_slice(), ctx, black_box(msg)));
            }),
        ),
        (
            "crypto.vrf_verify_ns",
            time_op("crypto.vrf_verify", spans, || {
                black_box(
                    keyring
                        .vrf_key(0)
                        .verify(ctx, black_box(msg), &vrf_out, &vrf_proof),
                );
            }),
        ),
        (
            "crypto.pvss_verify_ns",
            time_op("crypto.pvss_verify", spans, || {
                black_box(black_box(&scripts[0]).verify_single_dealer(&params, &eks, &vks, 0));
            }),
        ),
        (
            "crypto.pvss_batch_verify_ns",
            time_op("crypto.pvss_batch_verify", spans, || {
                black_box(verify_single_dealer_batch(
                    &params,
                    &eks,
                    &vks,
                    black_box(&batch),
                    &entropy,
                ));
            }),
        ),
    ];
    CryptoCosts { values, problems }
}

/// A captured envelope's payload decoded as its leaf message type.
enum Leaf {
    Aba(AbaMessage),
    Coin(CoinMessage),
    Seeding(SeedingMessage),
    Avss(AvssMessage),
    Wcs(WcsMessage),
    Rbc(RbcMessage),
    Vba(VbaMessage),
}

fn decode_leaf(layer: Layer, payload: &[u8]) -> Result<Leaf, WireError> {
    Ok(match layer {
        Layer::Aba => Leaf::Aba(from_bytes(payload)?),
        Layer::Coin => Leaf::Coin(from_bytes(payload)?),
        Layer::Seeding => Leaf::Seeding(from_bytes(payload)?),
        Layer::Avss => Leaf::Avss(from_bytes(payload)?),
        Layer::Wcs => Leaf::Wcs(from_bytes(payload)?),
        Layer::Rbc => Leaf::Rbc(from_bytes(payload)?),
        Layer::Vba => Leaf::Vba(from_bytes(payload)?),
        Layer::Other => {
            return Err(WireError::InvalidValue {
                ty: "unattributed envelope",
            })
        }
    })
}

fn encode_leaf(leaf: &Leaf) -> Vec<u8> {
    match leaf {
        Leaf::Aba(m) => to_bytes(m),
        Leaf::Coin(m) => to_bytes(m),
        Leaf::Seeding(m) => to_bytes(m),
        Leaf::Avss(m) => to_bytes(m),
        Leaf::Wcs(m) => to_bytes(m),
        Leaf::Rbc(m) => to_bytes(m),
        Leaf::Vba(m) => to_bytes(m),
    }
}

/// Codec cost over the captured sample, in ns per KiB of wire bytes.
pub struct WireCosts {
    pub encode_ns_per_kib: f64,
    pub decode_ns_per_kib: f64,
    pub messages: usize,
    pub problems: Vec<String>,
}

/// Replays the codec over `sample`: encoding is the leaf encode plus the
/// envelope encode the simulator performs per send, decoding is the
/// simulator's envelope decode plus the router's leaf decode.  Every
/// captured payload must decode and re-encode to its exact bytes.
pub fn wire(sample: &[(Layer, Envelope)], spans: &mut Vec<Span>) -> WireCosts {
    let mut problems = Vec::new();
    let mut leaves = Vec::with_capacity(sample.len());
    let mut envelopes = Vec::with_capacity(sample.len());
    let mut frames = Vec::with_capacity(sample.len());
    for (layer, env) in sample {
        match decode_leaf(*layer, &env.payload) {
            Ok(leaf) if encode_leaf(&leaf)[..] == env.payload[..] => {
                leaves.push((*layer, leaf));
                envelopes.push(env.clone());
                frames.push(to_bytes(env));
            }
            Ok(_) => problems.push(format!(
                "wire replay: a {} payload does not re-encode to its bytes",
                layer.name()
            )),
            Err(e) => problems.push(format!(
                "wire replay: a {} payload does not decode: {e:?}",
                layer.name()
            )),
        }
    }
    let kib = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    if frames.is_empty() {
        problems.push("wire replay: no envelopes captured".into());
        return WireCosts {
            encode_ns_per_kib: 0.0,
            decode_ns_per_kib: 0.0,
            messages: 0,
            problems,
        };
    }
    let encode = time_op("wire.encode", spans, || {
        for ((_, leaf), env) in leaves.iter().zip(&envelopes) {
            black_box(encode_leaf(black_box(leaf)));
            black_box(to_bytes(black_box(env)));
        }
    });
    let mut failed = false;
    let decode = time_op("wire.decode", spans, || {
        for ((layer, _), frame) in leaves.iter().zip(&frames) {
            match from_bytes::<Envelope>(black_box(frame)) {
                Ok(env) => failed |= decode_leaf(*layer, &env.payload).map(black_box).is_err(),
                Err(_) => failed = true,
            }
        }
    });
    if failed {
        problems.push("wire replay: a captured frame failed to decode".into());
    }
    WireCosts {
        encode_ns_per_kib: encode / kib,
        decode_ns_per_kib: decode / kib,
        messages: frames.len(),
        problems,
    }
}
