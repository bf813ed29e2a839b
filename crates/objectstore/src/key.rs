//! Ring keys that carry their placement hash.
//!
//! A request hashes its `/account/container/object` string exactly once, at
//! the proxy's front door. That XXH64 picks the partition (top bits), the
//! op stripe, catalog shard and node stripe ([`stripe_of`], middle bits)
//! and — through [`KeyMap`]'s pass-through hasher — the bucket inside each
//! map (low bits), so no layer below the front door hashes the text again.
//!
//! Lookups borrow ([`KeyRef`]); only a write that creates a map entry needs
//! the owned form ([`RingKey`]), minted at most once per write
//! ([`WriteKey`]), whose `Arc<str>` every replica and the catalog then
//! share. An overwrite finds its entries and allocates no key at all.

use std::borrow::Borrow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use h2util::hash64;

/// A borrowed ring key and the XXH64 that places it.
#[derive(Debug, Clone, Copy)]
pub struct KeyRef<'a> {
    pub hash: u64,
    pub text: &'a str,
}

impl<'a> KeyRef<'a> {
    pub fn new(text: &'a str) -> Self {
        KeyRef {
            hash: hash64(text.as_bytes()),
            text,
        }
    }

    /// The owned form: one allocation, shared from then on.
    fn owned(self) -> RingKey {
        RingKey {
            hash: self.hash,
            text: self.text.into(),
        }
    }
}

/// An owned ring key as the maps store it. Clones share the text.
#[derive(Debug, Clone)]
pub struct RingKey {
    hash: u64,
    text: Arc<str>,
}

impl RingKey {
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The borrowed view (no hashing: the hash travels with the key).
    pub fn at(&self) -> KeyRef<'_> {
        KeyRef {
            hash: self.hash,
            text: &self.text,
        }
    }
}

/// One write's key: borrowed for lookups, and minted into the owned form by
/// the first map that has to create an entry for it — the maps after it get
/// clones of that one `Arc<str>`.
#[derive(Debug)]
pub struct WriteKey<'a> {
    at: KeyRef<'a>,
    minted: OnceCell<RingKey>,
}

impl<'a> WriteKey<'a> {
    pub fn new(at: KeyRef<'a>) -> Self {
        WriteKey {
            at,
            minted: OnceCell::new(),
        }
    }

    /// A write to a key some map already holds (repair, migration): the
    /// owned form exists, so nothing is ever minted.
    pub fn of(key: &'a RingKey) -> Self {
        WriteKey {
            at: key.at(),
            minted: OnceCell::from(key.clone()),
        }
    }

    pub fn at(&self) -> KeyRef<'a> {
        self.at
    }

    pub fn owned(&self) -> RingKey {
        self.minted.get_or_init(|| self.at.owned()).clone()
    }
}

/// Stripe (or shard) index for a key hash. Uses bits 32 and up: the low
/// bits index buckets inside the chosen map, so taking them here too would
/// leave every map using one bucket in `n`.
pub fn stripe_of(hash: u64, n: usize) -> usize {
    (hash >> 32) as usize % n
}

/// What a [`KeyMap`] compares and hashes: lets a map keyed by [`RingKey`]
/// be queried with a [`KeyRef`] (the `Borrow<dyn Trait>` idiom).
pub trait Keyed {
    fn key_ref(&self) -> KeyRef<'_>;
}

impl Keyed for KeyRef<'_> {
    fn key_ref(&self) -> KeyRef<'_> {
        *self
    }
}

impl Keyed for RingKey {
    fn key_ref(&self) -> KeyRef<'_> {
        self.at()
    }
}

impl<'a> Borrow<dyn Keyed + 'a> for RingKey {
    fn borrow(&self) -> &(dyn Keyed + 'a) {
        self
    }
}

impl Hash for dyn Keyed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key_ref().hash);
    }
}

impl PartialEq for dyn Keyed + '_ {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.key_ref(), other.key_ref());
        a.hash == b.hash && a.text == b.text
    }
}

impl Eq for dyn Keyed + '_ {}

// The owned key hashes and compares exactly like its borrowed view, as
// `Borrow` requires.
impl Hash for RingKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for RingKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.text == other.text
    }
}

impl Eq for RingKey {}

/// Hasher for maps keyed by [`RingKey`]: the key already is a hash.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("ring keys feed their hash through write_u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map from ring keys that never re-hashes them (not even when it grows).
pub type KeyMap<V> = HashMap<RingKey, V, BuildHasherDefault<PassThrough>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrowed_lookup_finds_owned_key() {
        let mut m: KeyMap<u32> = KeyMap::default();
        m.insert(KeyRef::new("/a/c/o").owned(), 7);
        let q = KeyRef::new("/a/c/o");
        assert_eq!(m.get(&q as &dyn Keyed), Some(&7));
        assert_eq!(m.get(&KeyRef::new("/a/c/p") as &dyn Keyed), None);
        assert_eq!(m.get(&q.owned()), Some(&7));
    }

    #[test]
    fn equal_hash_different_text_is_a_different_key() {
        let mut m: KeyMap<u32> = KeyMap::default();
        m.insert(KeyRef::new("/a/c/o").owned(), 1);
        let forged = KeyRef {
            hash: hash64(b"/a/c/o"),
            text: "/a/c/other",
        };
        assert_eq!(m.get(&forged as &dyn Keyed), None);
        m.insert(forged.owned(), 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn stripes_and_buckets_use_different_bits() {
        // Keys of one stripe still spread over the low bits a map indexes by.
        let low: std::collections::HashSet<u64> = (0..4096)
            .map(|i| hash64(format!("/a/c/{i}").as_bytes()))
            .filter(|h| stripe_of(*h, 16) == 3)
            .map(|h| h & 0xf)
            .collect();
        assert_eq!(low.len(), 16);
    }
}
