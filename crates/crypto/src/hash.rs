//! SHA-256 implemented from scratch (FIPS 180-4), plus domain-separated
//! convenience helpers used throughout the protocol suite as the random
//! oracle.
//!
//! The implementation is validated against the NIST test vectors in the unit
//! tests below.

use std::cell::Cell;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub type Digest = [u8; DIGEST_LEN];

/// Length of a [`hash_block`] tag.
pub const BLOCK_TAG_LEN: usize = 7;

/// The largest [`hash_block`] payload: tag, payload, the `0x80` pad byte
/// and the 8-byte length fill exactly one 64-byte block.
pub const BLOCK_PAYLOAD_MAX: usize = 64 - BLOCK_TAG_LEN - 1 - 8;

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// SHA-256 compressions run so far on the calling thread.  Read it before
/// and after an operation to count what the operation hashed; the op-count
/// goldens in the tests and the `gates` binary pin such differences.
pub fn compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use setupfree_crypto::hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let want = 64 - self.buffer_len;
            let take = want.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Absorbs a length-prefixed chunk, providing unambiguous (injective)
    /// framing when hashing multiple variable-length fields.
    pub fn update_framed(&mut self, data: &[u8]) {
        self.update(&(data.len() as u64).to_le_bytes());
        self.update(data);
    }

    /// Finalizes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Pad in place: 0x80, zeros up to byte 56 of a block, then the
        // message length in bits, big-endian.  If fewer than 9 bytes are
        // free the length spills into one extra block.
        let bit_len = self.total_len.wrapping_mul(8);
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            compress(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block);
        digest(&self.state)
    }
}

/// The big-endian serialization of a final hash state.
fn digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One SHA-256 compression of `block` into `state`.
///
/// The 64 rounds run eight at a time with the working variables renamed
/// instead of shifted, and the message schedule is a rolling window of 16
/// words: round `i ≥ 16` overwrites `w[i mod 16]` with `W_i` in place.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    COMPRESSIONS.with(|c| c.set(c.get() + 1));
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr, $w:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add($g ^ ($e & ($f ^ $g)))
                .wrapping_add(K[$i])
                .wrapping_add($w);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) | ($c & ($a | $b)));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    macro_rules! eight {
        ($base:expr, $w:ident) => {
            round!(a, b, c, d, e, f, g, h, $base, $w($base));
            round!(h, a, b, c, d, e, f, g, $base + 1, $w($base + 1));
            round!(g, h, a, b, c, d, e, f, $base + 2, $w($base + 2));
            round!(f, g, h, a, b, c, d, e, $base + 3, $w($base + 3));
            round!(e, f, g, h, a, b, c, d, $base + 4, $w($base + 4));
            round!(d, e, f, g, h, a, b, c, $base + 5, $w($base + 5));
            round!(c, d, e, f, g, h, a, b, $base + 6, $w($base + 6));
            round!(b, c, d, e, f, g, h, a, $base + 7, $w($base + 7));
        };
    }
    let message = |i: usize| w[i];
    eight!(0, message);
    eight!(8, message);
    for base in (16..64).step_by(8) {
        let mut schedule = |i: usize| {
            let w15 = w[(i + 1) & 15];
            let w2 = w[(i + 14) & 15];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            let next = w[i & 15].wrapping_add(s0).wrapping_add(w[(i + 9) & 15]).wrapping_add(s1);
            w[i & 15] = next;
            next
        };
        eight!(base, schedule);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Domain-separated hash of a sequence of fields.
///
/// Every field is length-prefixed so the mapping from `(domain, fields)` to
/// the digest is injective; this is the "random oracle" used by signatures,
/// the VRF, and Fiat–Shamir challenges.
pub fn hash_fields(domain: &str, fields: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    h.update_framed(domain.as_bytes());
    h.update(&(fields.len() as u64).to_le_bytes());
    for f in fields {
        h.update_framed(f);
    }
    h.finalize()
}

/// SHA-256 of `tag ‖ payload` in exactly one compression, for the
/// fixed-size random-oracle inputs of the signature hot path (nonce,
/// challenge, aggregation weights).
///
/// Byte 6 of every tag is `0xff`, which keeps these inputs disjoint from
/// [`hash_fields`] inputs: a block input is at most 55 bytes, so a
/// `hash_fields` input equal to it would frame a domain of at most 39
/// bytes, whose 8-byte little-endian length prefix has byte 6 zero.
///
/// # Panics
///
/// Panics if `tag[6] != 0xff` or the payload exceeds
/// [`BLOCK_PAYLOAD_MAX`] bytes.
pub fn hash_block(tag: &[u8; BLOCK_TAG_LEN], payload: &[u8]) -> Digest {
    assert_eq!(tag[BLOCK_TAG_LEN - 1], 0xff, "hash_block tags end in 0xff");
    assert!(payload.len() <= BLOCK_PAYLOAD_MAX, "hash_block payload of {} bytes", payload.len());
    let len = BLOCK_TAG_LEN + payload.len();
    let mut block = [0u8; 64];
    block[..BLOCK_TAG_LEN].copy_from_slice(tag);
    block[BLOCK_TAG_LEN..len].copy_from_slice(payload);
    block[len] = 0x80;
    block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &block);
    digest(&state)
}

/// Expands `(domain, seed)` into `len` pseudorandom bytes using SHA-256 in
/// counter mode: block `i` is `hash_fields(domain, [seed, i as u64])`.  Used
/// as the symmetric stream cipher for the AVSS ciphertext and anywhere a
/// deterministic expansion of a short key is required.
pub fn prg(domain: &str, seed: &[u8], len: usize) -> Vec<u8> {
    // Absorb everything before the counter bytes once — the framed domain,
    // the field count, the framed seed and the counter's length prefix —
    // and finish a clone of that state per block.
    let mut prefix = Sha256::new();
    prefix.update_framed(domain.as_bytes());
    prefix.update(&2u64.to_le_bytes());
    prefix.update_framed(seed);
    prefix.update(&8u64.to_le_bytes());
    let mut out = Vec::with_capacity(len);
    let mut counter: u64 = 0;
    while out.len() < len {
        let mut h = prefix.clone();
        h.update(&counter.to_le_bytes());
        let block = h.finalize();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
        counter += 1;
    }
    out
}

/// XORs `data` with the PRG stream derived from `(domain, key)`.
/// Applying it twice with the same key recovers the plaintext.
pub fn stream_xor(domain: &str, key: &[u8], data: &[u8]) -> Vec<u8> {
    let pad = prg(domain, key, data.len());
    data.iter().zip(pad.iter()).map(|(a, b)| a ^ b).collect()
}

#[cfg(test)]
fn hex(digest: &Digest) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nist_empty() {
        assert_eq!(hex(&sha256(b"")), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn nist_abc() {
        assert_eq!(hex(&sha256(b"abc")), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn nist_448_bit() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha256(&data)), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 13, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
        // Padding boundaries: up to 55 bytes the 0x80 byte and the length fit
        // in the last block; 56..=63 spill the length into an extra block; 64
        // and 119/120 repeat the pattern one block later.  The digests come
        // from an independent SHA-256 implementation.
        for (len, expected) in [
            (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"),
            (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"),
            (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"),
            (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"),
            (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"),
            (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"),
        ] {
            let msg = &data[..len];
            assert_eq!(hex(&sha256(msg)), expected, "length {len}");
            for split in [1, len / 2, len - 1] {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(hex(&h.finalize()), expected, "length {len}, split at {split}");
            }
        }
    }

    #[test]
    fn hash_fields_is_injective_on_framing() {
        // ["ab", "c"] must differ from ["a", "bc"] and from ["abc"].
        let a = hash_fields("t", &[b"ab", b"c"]);
        let b = hash_fields("t", &[b"a", b"bc"]);
        let c = hash_fields("t", &[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn hash_fields_domain_separated() {
        assert_ne!(hash_fields("d1", &[b"x"]), hash_fields("d2", &[b"x"]));
    }

    #[test]
    fn prg_deterministic_and_prefix_consistent() {
        let a = prg("prg", b"seed", 100);
        let b = prg("prg", b"seed", 100);
        assert_eq!(a, b);
        let c = prg("prg", b"seed", 40);
        assert_eq!(&a[..40], &c[..]);
        let d = prg("prg", b"other", 100);
        assert_ne!(a, d);
    }

    /// The exact bytes [`hash_fields`] feeds to SHA-256.
    fn fields_input(domain: &str, fields: &[&[u8]]) -> Vec<u8> {
        let mut input = (domain.len() as u64).to_le_bytes().to_vec();
        input.extend_from_slice(domain.as_bytes());
        input.extend_from_slice(&(fields.len() as u64).to_le_bytes());
        for f in fields {
            input.extend_from_slice(&(f.len() as u64).to_le_bytes());
            input.extend_from_slice(f);
        }
        input
    }

    #[test]
    fn hash_block_is_sha256_of_tag_and_payload_in_one_compression() {
        let tag = *b"test/t\xff";
        let data: Vec<u8> = (0..BLOCK_PAYLOAD_MAX as u8).collect();
        for len in 0..=BLOCK_PAYLOAD_MAX {
            let mut input = tag.to_vec();
            input.extend_from_slice(&data[..len]);
            let before = compressions();
            let digest = hash_block(&tag, &data[..len]);
            assert_eq!(compressions() - before, 1, "payload length {len}");
            assert_eq!(digest, sha256(&input), "payload length {len}");
        }
        // One byte more and the streaming hasher needs a second block.
        let before = compressions();
        sha256(&[0u8; BLOCK_TAG_LEN + BLOCK_PAYLOAD_MAX + 1]);
        assert_eq!(compressions() - before, 2);
    }

    #[test]
    #[should_panic(expected = "payload of 49 bytes")]
    fn hash_block_rejects_long_payloads() {
        hash_block(b"test/t\xff", &[0u8; BLOCK_PAYLOAD_MAX + 1]);
    }

    #[test]
    #[should_panic(expected = "tags end in 0xff")]
    fn hash_block_rejects_tags_without_the_marker() {
        hash_block(b"test/t0", b"");
    }

    #[test]
    fn block_inputs_never_equal_field_inputs() {
        // A block input is at most 55 bytes and has 0xff at byte 6.  Any
        // `hash_fields` input of at most 55 bytes frames a short domain, so
        // its byte 6 — the sixth byte of the domain's length — is zero.
        let max = BLOCK_TAG_LEN + BLOCK_PAYLOAD_MAX;
        let field_sets: [&[&[u8]]; 4] = [&[], &[b""], &[b"ab", b"c"], &[&[0xff; 7]]];
        for domain_len in 0..=max {
            let domain = "d".repeat(domain_len);
            for fields in field_sets {
                let input = fields_input(&domain, fields);
                assert_eq!(sha256(&input), hash_fields(&domain, fields));
                if input.len() <= max {
                    assert_eq!(input[BLOCK_TAG_LEN - 1], 0, "domain length {domain_len}");
                }
            }
        }
    }

    #[test]
    fn prg_matches_per_block_hash_fields() {
        // The reference is the definition: block i is hash_fields(domain,
        // [seed, i]).  The absorbed prefix is 35 + |seed| bytes, so seeds of
        // 28..=30 bytes put it on both sides of the 64-byte block boundary,
        // and 12 or 13 bytes put the counter's padding on both sides of it.
        let reference = |domain: &str, seed: &[u8], len: usize| -> Vec<u8> {
            (0u64..)
                .flat_map(|i| hash_fields(domain, &[seed, &i.to_le_bytes()]))
                .take(len)
                .collect()
        };
        let bytes: Vec<u8> = (0..=255).collect();
        for seed_len in [0, 1, 12, 13, 28, 29, 30, 64, 100, 200] {
            let seed = &bytes[..seed_len];
            for len in 0..200 {
                assert_eq!(prg("prg", seed, len), reference("prg", seed, len), "seed {seed_len} B, {len} B");
            }
        }
    }

    #[test]
    fn stream_xor_roundtrips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let ct = stream_xor("enc", b"key", data);
        assert_ne!(&ct[..], &data[..]);
        let pt = stream_xor("enc", b"key", &ct);
        assert_eq!(&pt[..], &data[..]);
    }

    proptest! {
        #[test]
        fn prop_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn prop_stream_xor_involutive(key in proptest::collection::vec(any::<u8>(), 1..64), data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let ct = stream_xor("d", &key, &data);
            prop_assert_eq!(stream_xor("d", &key, &ct), data);
        }
    }
}
