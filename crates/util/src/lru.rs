//! A small bounded LRU map, backing the middleware's NameRing cache and
//! full-path resolve cache.
//!
//! Entries live in a slab (`Vec` of nodes, freed slots reused) threaded
//! onto an intrusive doubly linked recency list by slot index; a `HashMap`
//! maps each key to its slot. Every operation is O(1): one hash lookup,
//! then a few index writes to relink the node. Keys are looked up by a
//! borrowed form and cloned only when an entry is created (the map and the
//! node each hold one, so eviction can unmap its victim) — a hit copies
//! nothing. The hasher is a parameter: callers whose keys already carry a
//! hash plug in a cheap one instead of paying SipHash per probe.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// "No slot": the link past either end of the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Towards the most recently used end (`NIL` at the head).
    prev: usize,
    /// Towards the least recently used end (`NIL` at the tail).
    next: usize,
}

/// A least-recently-used cache with a fixed capacity.
///
/// A capacity of 0 disables the cache entirely: `insert` is a no-op and
/// `get` always misses, so callers can keep one code path for the
/// enabled/disabled cases.
#[derive(Debug)]
pub struct LruCache<K, V, S = RandomState> {
    capacity: usize,
    map: HashMap<K, usize, S>,
    /// `None` marks a vacant slot, listed in `free`.
    slab: Vec<Option<Node<K, V>>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot — the next eviction victim.
    tail: usize,
    /// Slots vacated by `remove`, reused before the slab grows.
    free: Vec<usize>,
}

impl<K: Eq + Hash + Clone, V, S: BuildHasher + Default> LruCache<K, V, S> {
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::default(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn node(&self, slot: usize) -> &Node<K, V> {
        self.slab[slot].as_ref().expect("mapped slot is occupied")
    }

    fn node_mut(&mut self, slot: usize) -> &mut Node<K, V> {
        self.slab[slot].as_mut().expect("mapped slot is occupied")
    }

    /// Take `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let n = self.node(slot);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Put `slot` at the most recently used end.
    fn link_front(&mut self, slot: usize) {
        let old = self.head;
        {
            let n = self.node_mut(slot);
            n.prev = NIL;
            n.next = old;
        }
        match old {
            NIL => self.tail = slot,
            h => self.node_mut(h).prev = slot,
        }
        self.head = slot;
    }

    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Unlink `slot`, vacate it and hand back what it held.
    fn release(&mut self, slot: usize) -> Node<K, V> {
        self.unlink(slot);
        self.free.push(slot);
        self.slab[slot].take().expect("mapped slot is occupied")
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        self.touch(slot);
        Some(&self.node(slot).value)
    }

    /// Look up `key` without touching recency.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&slot| &self.node(slot).value)
    }

    /// Insert or replace `key`, evicting the least recently used entry if
    /// the cache is full. No-op when capacity is 0.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.node_mut(slot).value = value;
            self.touch(slot);
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self.release(self.tail);
            self.map.remove(&victim.key);
        }
        let node = Some(Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = node;
                slot
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.link_front(slot);
    }

    /// Drop `key` if present; returns true when an entry was removed.
    pub fn remove<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.map.remove(key) {
            Some(slot) => {
                self.release(slot);
                true
            }
            None => false,
        }
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Iterate over the cached keys (arbitrary order, recency untouched).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c: LruCache<&str, i32> = LruCache::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"missing"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch "a" so "b" is the cold one.
        assert!(c.get(&"a").is_some());
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&"b"), None, "cold entry should be evicted");
        assert!(c.peek(&"a").is_some());
        assert!(c.peek(&"c").is_some());
    }

    #[test]
    fn replace_updates_value_without_growing() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: LruCache<&str, i32> = LruCache::new(0);
        c.insert("a", 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn remove_and_clear() {
        let mut c: LruCache<&str, i32> = LruCache::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(c.remove(&"a"));
        assert!(!c.remove(&"a"));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        // Still usable after clear.
        c.insert("c", 3);
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Peeking "a" must not save it from eviction.
        assert!(c.peek(&"a").is_some());
        c.insert("c", 3);
        assert_eq!(c.peek(&"a"), None);
    }

    #[test]
    fn owned_keys_are_found_by_their_borrowed_form() {
        let mut c: LruCache<String, i32> = LruCache::new(2);
        c.insert("a".to_string(), 1);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.peek("a"), Some(&1));
        assert!(c.remove("a"));
    }

    /// The obvious LRU: a vector ordered coldest first.
    struct Reference {
        capacity: usize,
        entries: Vec<(u8, u32)>,
    }

    impl Reference {
        fn position(&self, key: u8) -> Option<usize> {
            self.entries.iter().position(|(k, _)| *k == key)
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            let entry = self.entries.remove(self.position(key)?);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: u8, value: u32) {
            if let Some(i) = self.position(key) {
                self.entries.remove(i);
            } else if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((key, value));
        }

        fn remove(&mut self, key: u8) -> bool {
            self.position(key).map(|i| self.entries.remove(i)).is_some()
        }
    }

    #[test]
    fn interleaved_ops_evict_in_the_reference_models_order() {
        use rand::Rng;
        // Keys from a universe three times the capacity, so inserts evict
        // constantly and slots vacated by `remove` are reused. Comparing
        // the whole membership after every step pins the eviction order:
        // one wrong victim and the two diverge.
        let mut rng = crate::rng::rng(0x12b);
        let mut lru: LruCache<u8, u32> = LruCache::new(8);
        let mut reference = Reference {
            capacity: 8,
            entries: Vec::new(),
        };
        for step in 0..20_000u32 {
            let key = rng.gen_range(0..24u8);
            match rng.gen_range(0..10u8) {
                0..=3 => assert_eq!(lru.get(&key).copied(), reference.get(key), "step {step}"),
                4..=8 => {
                    lru.insert(key, step);
                    reference.insert(key, step);
                }
                _ => assert_eq!(lru.remove(&key), reference.remove(key), "step {step}"),
            }
            assert_eq!(lru.len(), reference.entries.len(), "step {step}");
            for k in 0..24u8 {
                let want = reference.position(k).map(|i| reference.entries[i].1);
                assert_eq!(lru.peek(&k).copied(), want, "key {k} after step {step}");
            }
        }
    }
}
