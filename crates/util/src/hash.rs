//! Self-contained hashing: SHA-1 for DHT keys, FxHash for hot-path maps.
//!
//! The paper's discovery substrate stores service metadata under
//! `key = secure_hash(function_name)` on a Pastry ring. We implement SHA-1
//! locally (RFC 3174) rather than pulling in a crypto crate; the DHT only
//! needs a well-mixed 160-bit digest, of which the top 128 bits become the
//! Pastry key.
//!
//! [`FxHashMap`]/[`FxHashSet`] are `std` collections behind rustc's Fx hash
//! (a multiply-xor hash, far cheaper than SipHash for the small integer
//! keys the BCP hot loops use, and deterministic — no per-process random
//! state, so experiment output never depends on iteration-order accidents).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from rustc's `FxHasher` (a Fibonacci-style constant).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's Fx hash: one rotate-xor-multiply per word of input.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the Fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// A 160-bit SHA-1 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// Returns the most significant 128 bits as a `u128`, the keyspace used
    /// by the Pastry ring in `spidernet-dht`.
    pub fn to_u128(&self) -> u128 {
        let mut v: u128 = 0;
        for &b in &self.0[..16] {
            v = (v << 8) | u128::from(b);
        }
        v
    }

    /// Lower-case hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            use std::fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

/// SHA-1's initial hash state.
const SHA1_INIT: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = SHA1_INIT;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        sha1_block(&mut h, block);
    }
    // Message padding, in one stack block or two: the tail, 0x80, zeros,
    // then the 64-bit big-endian bit length.
    let tail = blocks.remainder();
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let len = if tail.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    pad[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
    for block in pad[..len].chunks_exact(64) {
        sha1_block(&mut h, block);
    }
    sha1_digest(&h)
}

/// Folds one 64-byte block into the hash state `h`.
fn sha1_block(h: &mut [u32; 5], block: &[u8]) {
    let mut w = [0u32; 80];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// The digest of the final hash state `h`.
fn sha1_digest(h: &[u32; 5]) -> Digest {
    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Hashes a service function name into the 128-bit DHT keyspace.
///
/// All functionally duplicated service components share one function name and
/// therefore one key, so the responsible DHT node accumulates the full
/// replica list — exactly the paper's registration scheme.
pub fn function_key(function_name: &str) -> u128 {
    sha1(function_name.as_bytes()).to_u128()
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 3174 / FIPS-180 reference vectors.
    #[test]
    fn sha1_known_vectors() {
        assert_eq!(sha1(b"abc").to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(sha1(b"").to_hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn sha1_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(sha1(&data).to_hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn sha1_crosses_block_boundaries() {
        // Lengths straddling the 55/56/63/64-byte padding edge cases must
        // all produce distinct, deterministic digests.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xABu8; len];
            let d = sha1(&data);
            assert_eq!(d, sha1(&data), "determinism at len {len}");
            assert!(seen.insert(d.0), "collision at len {len}");
        }
    }

    /// SHA-1 over a message padded in a heap `Vec` — the padding `sha1`
    /// used before it padded in a stack block — as the oracle for it.
    fn sha1_vec_padded(data: &[u8]) -> Digest {
        let mut h = SHA1_INIT;
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = Vec::with_capacity(data.len() + 72);
        msg.extend_from_slice(data);
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());
        for block in msg.chunks_exact(64) {
            sha1_block(&mut h, block);
        }
        sha1_digest(&h)
    }

    #[test]
    fn sha1_stack_padding_matches_vec_padding_at_every_length() {
        // Every tail length, one- and two-block paddings and the 55/56 and
        // 63/64-byte edges of the first three blocks included.
        let data: Vec<u8> = (0..=192u32).map(|i| (i.wrapping_mul(151) ^ 0x5A) as u8).collect();
        for len in 0..=192 {
            let msg = &data[..len];
            assert_eq!(sha1(msg), sha1_vec_padded(msg), "length {len}");
        }
    }

    #[test]
    fn function_key_is_stable_and_discriminating() {
        let k1 = function_key("video-upscale");
        let k2 = function_key("video-upscale");
        let k3 = function_key("video-downscale");
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn fx_map_behaves_like_std_map() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
        let mut s: FxHashSet<(usize, usize)> = FxHashSet::default();
        assert!(s.insert((3, 4)));
        assert!(!s.insert((3, 4)));
    }

    #[test]
    fn fx_hash_is_deterministic_and_discriminating() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        let hb = |b: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        };
        assert_eq!(hb(b"abc"), hb(b"abc"));
        assert_ne!(hb(b"abc"), hb(b"abd"));
        assert_ne!(hb(b"abc"), hb(b"abcd"));
    }

    #[test]
    fn digest_to_u128_takes_top_bytes() {
        let mut raw = [0u8; 20];
        raw[0] = 0x01;
        raw[15] = 0xFF;
        let d = Digest(raw);
        assert_eq!(d.to_u128() >> 120, 0x01);
        assert_eq!(d.to_u128() & 0xFF, 0xFF);
    }
}
