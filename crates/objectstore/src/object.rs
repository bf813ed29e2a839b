//! Accounts, containers, object keys and payloads.

use bytes::Bytes;
use h2util::hash::{hash128, Digest128};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Fully qualified object name `/account/container/object`, the unit the
/// ring hashes (Swift hashes exactly this triple).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey {
    pub account: Arc<str>,
    pub container: Arc<str>,
    pub name: Arc<str>,
}

impl ObjectKey {
    pub fn new(account: &str, container: &str, name: &str) -> Self {
        ObjectKey {
            account: account.into(),
            container: container.into(),
            name: name.into(),
        }
    }

    /// The byte string fed to the placement hash.
    pub fn ring_key(&self) -> String {
        let mut s =
            String::with_capacity(3 + self.account.len() + self.container.len() + self.name.len());
        for part in [&self.account, &self.container, &self.name] {
            s.push('/');
            s.push_str(part);
        }
        s
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}/{}/{}", self.account, self.container, self.name)
    }
}

/// Object payload: real bytes or a size-only stand-in for huge content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real bytes (cheaply clonable).
    Inline(Bytes),
    /// Simulated large content: only size and a content digest are kept, so
    /// multi-GB files cost no memory while still paying transfer time.
    Simulated { size: u64, digest: Digest128 },
}

impl Payload {
    pub fn from_string(s: String) -> Self {
        Payload::Inline(Bytes::from(s))
    }

    pub fn from_static(s: &'static str) -> Self {
        Payload::Inline(Bytes::from_static(s.as_bytes()))
    }

    pub fn simulated(size: u64, seed: &str) -> Self {
        Payload::Simulated {
            size,
            digest: hash128(seed.as_bytes()),
        }
    }

    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(b) => b.len() as u64,
            Payload::Simulated { size, .. } => *size,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Content digest (ETag).
    pub fn digest(&self) -> Digest128 {
        match self {
            Payload::Inline(b) => hash128(b),
            Payload::Simulated { digest, .. } => *digest,
        }
    }

    /// Inline bytes as UTF-8, if this payload carries real bytes.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Payload::Inline(b) => std::str::from_utf8(b).ok(),
            Payload::Simulated { .. } => None,
        }
    }
}

/// Small user-metadata map attached to an object (Swift `X-Object-Meta-*`).
///
/// Copy-on-write: a clone is a refcount bump, so the replicas of a version
/// and every reader's [`Object`] share one map, and an empty meta allocates
/// nothing. `None` is the only empty representation (nothing removes single
/// entries), which keeps the derived equality exact.
#[derive(Clone, Default, PartialEq)]
pub struct Meta(Option<Arc<BTreeMap<String, String>>>);

impl Meta {
    pub fn new() -> Self {
        Meta(None)
    }

    pub fn get(&self, key: &str) -> Option<&String> {
        self.0.as_ref()?.get(key)
    }

    /// Set `key`, copying the map first if a clone still shares it.
    pub fn insert(&mut self, key: String, value: String) -> Option<String> {
        Arc::make_mut(self.0.get_or_insert_with(Arc::default)).insert(key, value)
    }

    pub fn clear(&mut self) {
        self.0 = None;
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl<const N: usize> From<[(String, String); N]> for Meta {
    fn from(entries: [(String, String); N]) -> Self {
        Meta((N > 0).then(|| Arc::new(BTreeMap::from(entries))))
    }
}

impl Index<&str> for Meta {
    type Output = String;

    fn index(&self, key: &str) -> &String {
        self.get(key).expect("no such meta key")
    }
}

impl fmt::Debug for Meta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().flat_map(|m| m.iter()))
            .finish()
    }
}

/// A stored object: payload + metadata + write stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    pub key: ObjectKey,
    pub payload: Payload,
    pub meta: Meta,
    /// Milliseconds of the winning write (last-writer-wins across replicas).
    pub modified_ms: u64,
}

/// HEAD response: everything but the payload (and the key, which the
/// caller already holds).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInfo {
    pub size: u64,
    pub etag: Digest128,
    pub meta: Meta,
    pub modified_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_key_matches_swift_shape() {
        let k = ObjectKey::new("alice", "fs", "home/ubuntu/file1");
        assert_eq!(k.ring_key(), "/alice/fs/home/ubuntu/file1");
        assert_eq!(k.to_string(), k.ring_key());
    }

    #[test]
    fn payload_lengths_and_digests() {
        let p = Payload::from_static("hello");
        assert_eq!(p.len(), 5);
        assert_eq!(p.as_str(), Some("hello"));
        let s = Payload::simulated(5 << 30, "video-1");
        assert_eq!(s.len(), 5 << 30);
        assert_eq!(s.as_str(), None);
        assert_ne!(p.digest(), s.digest());
        // Same seed → same digest (deterministic simulated content).
        assert_eq!(s.digest(), Payload::simulated(5 << 30, "video-1").digest());
    }

    #[test]
    fn meta_is_copy_on_write() {
        assert!(Meta::new().is_empty());
        assert_eq!(Meta::new(), Meta::default());
        assert_eq!(Meta::from([]), Meta::new());
        let mut a = Meta::from([("kind".to_string(), "file".to_string())]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b["kind"], "file");
        // Writing to one clone leaves the other as it was.
        assert_eq!(
            a.insert("kind".to_string(), "dir".to_string()).as_deref(),
            Some("file")
        );
        a.insert("owner".to_string(), "alice".to_string());
        assert_eq!(a["kind"], "dir");
        assert_eq!(b["kind"], "file");
        assert_eq!(b.get("owner"), None);
        assert_ne!(a, b);
        // Cleared is the same value as never filled.
        a.clear();
        assert_eq!(a, Meta::new());
        assert_eq!(format!("{b:?}"), r#"{"kind": "file"}"#);
    }
}
