//! Criterion micro-benchmarks for the cryptographic substrate: the
//! per-operation costs that multiply into the protocol-level complexity.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use setupfree_crypto::pvss::{
    verify_single_dealer_batch, PvssDecryptionKey, PvssParams, PvssScript,
};
use setupfree_crypto::{
    hash::{hash_block, sha256, BLOCK_PAYLOAD_MAX},
    PedersenCommitment, Polynomial, QuorumCert, Scalar, SigningKey, VrfSecretKey,
};

fn bench_hash(c: &mut Criterion) {
    let data = vec![0xabu8; 1024];
    c.bench_function("sha256/1KiB", |b| b.iter(|| sha256(&data)));
    // One padded 64-byte block: a single compression.
    let payload = [0xabu8; BLOCK_PAYLOAD_MAX];
    c.bench_function("sha256/64B", |b| b.iter(|| hash_block(b"bench/\xff", &payload)));
}

fn bench_group(c: &mut Criterion) {
    let g = setupfree_crypto::GroupElement::generator();
    let e = Scalar::from_u64(0x1234_5678_9abc);
    c.bench_function("group/exponentiation", |b| b.iter(|| g.pow(e)));
    c.bench_function("group/hash_to_group", |b| {
        b.iter(|| setupfree_crypto::GroupElement::hash_to_group("bench", &[b"input"]))
    });
}

fn bench_multiexp(c: &mut Criterion) {
    use setupfree_crypto::multiexp;
    let mut rng = StdRng::seed_from_u64(9);
    let k = 22;
    let bases: Vec<setupfree_crypto::GroupElement> = (0..k)
        .map(|_| setupfree_crypto::GroupElement::generator().pow(Scalar::random(&mut rng)))
        .collect();
    let exps: Vec<Scalar> = (0..k).map(|_| Scalar::random(&mut rng)).collect();
    c.bench_function("multiexp/pippenger_22", |b| b.iter(|| multiexp::multi_exp(&bases, &exps)));
    c.bench_function("multiexp/naive_fold_22", |b| {
        b.iter(|| {
            bases
                .iter()
                .zip(exps.iter())
                .fold(setupfree_crypto::GroupElement::identity(), |acc, (base, e)| {
                    acc * base.pow(*e)
                })
        })
    });
    let e = Scalar::from_u64(0x0123_4567_89ab_cdef);
    c.bench_function("multiexp/fixed_base_g1", |b| b.iter(|| multiexp::fixed_pow_g1(e)));
    c.bench_function("multiexp/commit", |b| b.iter(|| multiexp::commit(e, e)));
}

fn bench_signatures(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let sk = SigningKey::generate(&mut rng);
    let pk = sk.verifying_key();
    let sig = sk.sign(b"ctx", b"message");
    c.bench_function("sig/sign", |b| b.iter(|| sk.sign(b"ctx", b"message")));
    c.bench_function("sig/verify", |b| b.iter(|| pk.verify(b"ctx", b"message", &sig)));

    // A 15-of-22 certificate over a 1 KiB message (the size of a commitment
    // or PVSS script): the message is hashed once per check, not per signer.
    let sks: Vec<SigningKey> = (0..22).map(|_| SigningKey::generate(&mut rng)).collect();
    let pks: Vec<_> = sks.iter().map(SigningKey::verifying_key).collect();
    let message = vec![0x5au8; 1024];
    let entries: Vec<(usize, _)> = (0..15).map(|i| (i, sks[i].sign(b"ctx", &message))).collect();
    let cert = QuorumCert::new(15, &entries, &pks, b"ctx", &message).expect("valid quorum");
    c.bench_function("sig/qc_verify_n22_1KiB", |b| b.iter(|| cert.verify(&pks, b"ctx", &message)));

    // A 5-of-7 certificate on a 19-byte message: the shape the benchmark's
    // crypto calibration times.
    let message = b"calibration message";
    let entries: Vec<(usize, _)> = (0..5).map(|i| (i, sks[i].sign(b"ctx", message))).collect();
    let cert = QuorumCert::new(5, &entries, &pks[..7], b"ctx", message).expect("valid quorum");
    c.bench_function("sig/qc_verify_n7_19B", |b| b.iter(|| cert.verify(&pks[..7], b"ctx", message)));
}

fn bench_vrf(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let sk = VrfSecretKey::generate(&mut rng);
    let pk = sk.public_key();
    let (out, proof) = sk.eval(b"ctx", b"seed");
    c.bench_function("vrf/eval", |b| b.iter(|| sk.eval(b"ctx", b"seed")));
    c.bench_function("vrf/verify", |b| b.iter(|| pk.verify(b"ctx", b"seed", &out, &proof)));
}

fn bench_pedersen(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = Polynomial::random(5, &mut rng);
    let bpoly = Polynomial::random(5, &mut rng);
    let commitment = PedersenCommitment::commit(&a, &bpoly);
    c.bench_function("pedersen/commit_deg5", |b| {
        b.iter(|| PedersenCommitment::commit(&a, &bpoly))
    });
    c.bench_function("pedersen/verify_share", |b| {
        b.iter(|| commitment.verify_share(3, a.eval_at_index(3), bpoly.eval_at_index(3)))
    });
}

fn bench_pvss(c: &mut Criterion) {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(4);
    let params = PvssParams::new(n, 2 * ((n - 1) / 3));
    let mut dks = Vec::new();
    let mut eks = Vec::new();
    let mut sig_keys = Vec::new();
    let mut vks = Vec::new();
    for _ in 0..n {
        let (dk, ek) = PvssDecryptionKey::generate(&mut rng);
        dks.push(dk);
        eks.push(ek);
        let sk = SigningKey::generate(&mut rng);
        vks.push(sk.verifying_key());
        sig_keys.push(sk);
    }
    let script =
        PvssScript::deal(&params, &eks, &sig_keys[0], 0, Scalar::from_u64(7), &mut rng);
    let script2 =
        PvssScript::deal(&params, &eks, &sig_keys[1], 1, Scalar::from_u64(9), &mut rng);
    c.bench_function("pvss/deal_n16", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(5),
            |mut r| PvssScript::deal(&params, &eks, &sig_keys[0], 0, Scalar::from_u64(7), &mut r),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("pvss/verify_n16", |b| b.iter(|| script.verify(&params, &eks, &vks)));
    c.bench_function("pvss/aggregate_n16", |b| b.iter(|| script.aggregate(&script2).unwrap()));

    // Batch verification of a full setup's worth of single-dealer scripts
    // against the per-transcript loop it replaces.
    let scripts: Vec<PvssScript> = (0..n)
        .map(|d| PvssScript::deal(&params, &eks, &sig_keys[d], d, Scalar::from_u64(d as u64), &mut rng))
        .collect();
    let entries: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();
    let entropy = dks[0].batch_entropy();
    c.bench_function("pvss/verify_setup_n16_per_transcript", |b| {
        b.iter(|| {
            entries
                .iter()
                .all(|(d, s)| s.verify_single_dealer(&params, &eks, &vks, *d))
        })
    });
    c.bench_function("pvss/verify_setup_n16_batched", |b| {
        b.iter(|| verify_single_dealer_batch(&params, &eks, &vks, &entries, &entropy))
    });
}

criterion_group!(
    benches,
    bench_hash,
    bench_group,
    bench_multiexp,
    bench_signatures,
    bench_vrf,
    bench_pedersen,
    bench_pvss
);
criterion_main!(benches);
