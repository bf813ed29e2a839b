//! The NameRing data structure and its merge algorithm (§3.1, §3.3.2).
//!
//! A NameRing maintains the *direct children* of one directory as tuples
//! `(child, t)`; deletion appends a `Deleted` tag instead of removing the
//! tuple (the paper's "fake deletion", §3.3.3a), and the merge algorithm
//! resolves conflicts by larger-timestamp-wins. Tuples are kept sorted by
//! name (the Formatter serialises them alphabetically, §4.4).
//!
//! Patches are "in the same format as a NameRing" (§3.3.2), so a patch *is*
//! a [`NameRing`] here, and merging a patch is merging two NameRings.
//!
//! The merge is deliberately a state-based CRDT join: commutative,
//! associative and idempotent (see the property tests), because phase 2 of
//! the maintenance protocol applies patches in whatever order intra-node
//! chains and gossip deliver them.
//!
//! ```
//! use h2cloud::{NameRing, Tuple};
//! use h2util::{NodeId, Timestamp};
//!
//! let ts = |m| Timestamp::new(m, 0, NodeId(1));
//! let mut ring = NameRing::new();
//! ring.apply("cat", Tuple::file(ts(1), 4096));
//! ring.apply("bash", Tuple::file(ts(2), 1 << 20));
//!
//! // A patch is just another NameRing; merging is larger-timestamp-wins.
//! let mut patch = NameRing::new();
//! patch.apply("cat", Tuple::file(ts(1), 4096).tombstone(ts(3))); // "fake deletion"
//! ring.merge_from(&patch);
//!
//! assert!(ring.get("cat").is_none());       // hidden by the Deleted tag
//! assert_eq!(ring.live_len(), 1);           // only bash remains live
//! assert_eq!(ring.len(), 2);                // tombstone kept until compaction
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use h2util::{NamespaceId, Timestamp};

/// What a tuple points at: a regular file (with its size) or a
/// sub-directory (with the namespace that owns its NameRing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChildRef {
    File { size: u64 },
    Dir { ns: NamespaceId },
}

impl ChildRef {
    pub fn is_dir(&self) -> bool {
        matches!(self, ChildRef::Dir { .. })
    }
}

/// One `(child, t)` tuple. `deleted` is the paper's `Deleted` tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    pub ts: Timestamp,
    pub child: ChildRef,
    pub deleted: bool,
    /// Set only on a tombstone: the object the child's name keys (a file's
    /// content, a directory's descriptor) was already deleted, so GC sends
    /// no DELETE for it when it compacts the tombstone.
    pub reclaimed: bool,
}

impl Tuple {
    pub fn file(ts: Timestamp, size: u64) -> Self {
        Tuple {
            ts,
            child: ChildRef::File { size },
            deleted: false,
            reclaimed: false,
        }
    }

    pub fn dir(ts: Timestamp, ns: NamespaceId) -> Self {
        Tuple {
            ts,
            child: ChildRef::Dir { ns },
            deleted: false,
            reclaimed: false,
        }
    }

    pub fn tombstone(self, ts: Timestamp) -> Self {
        Tuple {
            ts,
            child: self.child,
            deleted: true,
            reclaimed: false,
        }
    }

    /// This tombstone, marked reclaimed: it wins the merge against its
    /// unmarked self.
    pub fn mark_reclaimed(self) -> Self {
        debug_assert!(self.deleted, "only a tombstone is marked");
        Tuple {
            reclaimed: true,
            ..self
        }
    }

    /// Total order used by the merge: timestamp first (larger wins, as the
    /// paper specifies), then — only for byte-identical timestamps, which
    /// hybrid clocks make impossible for distinct events — a deterministic
    /// tie-break so the merge stays commutative no matter what. The one
    /// same-stamp pair that does occur is a tombstone and its marked copy,
    /// and the mark wins.
    fn merge_key(&self) -> (Timestamp, bool, bool, ChildRef) {
        (self.ts, self.deleted, self.reclaimed, self.child)
    }

    /// Whether this tuple wins the merge against `other` — or is `other`:
    /// joining `other` into a ring holding this tuple changes nothing.
    pub(crate) fn covers(&self, other: &Tuple) -> bool {
        self.merge_key() >= other.merge_key()
    }

    /// Whether GC dropping this tombstone drops `other` too: `other` loses
    /// to it in either of its states, so a marked copy of a compacted
    /// unmarked tombstone goes with it.
    pub(crate) fn floors(&self, other: &Tuple) -> bool {
        self.mark_reclaimed().covers(other)
    }
}

/// Patches up to this many tuples merge tuple by tuple (a binary search
/// each); larger ones merge in one lockstep pass over both rings.
const SMALL_PATCH: usize = 8;

/// One child of the arena: where its name sits in [`NameRing`]'s `names`,
/// and its tuple.
#[derive(Clone, Copy)]
struct Entry {
    off: u32,
    len: u32,
    tuple: Tuple,
}

impl Entry {
    fn name<'a>(&self, names: &'a str) -> &'a str {
        &names[self.off as usize..(self.off + self.len) as usize]
    }
}

/// A NameRing: the children of one directory, one tuple per name, in name
/// order — the order the Formatter writes them in (§4.4).
///
/// Held as one sorted arena: every name in a single `String`, and one
/// `(offset, length, tuple)` entry per child, strictly ascending and unique
/// by name. A ring is therefore two allocations whatever its size, a clone
/// is two copies, and parsing a body in Formatter order appends. Where a
/// name sits in the arena carries no meaning (insertions append theirs);
/// equality and `Debug` look at the tuples in name order only.
#[derive(Clone)]
pub struct NameRing {
    names: String,
    entries: Vec<Entry>,
    /// Newest timestamp held (ZERO when empty), kept so `version()` is O(1).
    version: Timestamp,
}

impl Default for NameRing {
    fn default() -> Self {
        NameRing {
            names: String::new(),
            entries: Vec::new(),
            version: Timestamp::ZERO,
        }
    }
}

impl PartialEq for NameRing {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for NameRing {}

impl fmt::Debug for NameRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl NameRing {
    pub fn new() -> Self {
        NameRing::default()
    }

    /// An empty ring with room for `entries` tuples whose names total
    /// `name_bytes` bytes.
    pub(crate) fn with_capacity(entries: usize, name_bytes: usize) -> Self {
        NameRing {
            names: String::with_capacity(name_bytes),
            entries: Vec::with_capacity(entries),
            version: Timestamp::ZERO,
        }
    }

    /// Number of tuples, *including* tombstones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of all names, tombstones included.
    pub(crate) fn name_bytes(&self) -> usize {
        self.names.len()
    }

    /// Number of live (non-deleted) children — the paper's `m`.
    pub fn live_len(&self) -> usize {
        self.entries.iter().filter(|e| !e.tuple.deleted).count()
    }

    fn name(&self, e: &Entry) -> &str {
        e.name(&self.names)
    }

    fn search(&self, name: &str) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by(|e| self.name(e).cmp(name))
    }

    /// Copy `name` into the arena and return its entry.
    fn entry_for(&mut self, name: &str, tuple: Tuple) -> Entry {
        let off = self.names.len();
        assert!(
            off + name.len() <= u32::MAX as usize,
            "NameRing names exceed 4 GiB"
        );
        self.names.push_str(name);
        self.version = self.version.max(tuple.ts);
        Entry {
            off: off as u32,
            len: name.len() as u32,
            tuple,
        }
    }

    /// Upsert a tuple for `name`. The incoming tuple only lands if it wins
    /// the merge order against any existing tuple (so replayed stale
    /// updates are no-ops).
    pub fn apply(&mut self, name: &str, tuple: Tuple) {
        match self.search(name) {
            Ok(i) => {
                let existing = &mut self.entries[i].tuple;
                if !existing.covers(&tuple) {
                    *existing = tuple;
                    self.version = self.version.max(tuple.ts);
                }
            }
            Err(i) => {
                let entry = self.entry_for(name, tuple);
                self.entries.insert(i, entry);
            }
        }
    }

    /// [`apply`](Self::apply), appending without a search when `name`
    /// sorts after every name held — the parser's path for a body in
    /// Formatter order.
    pub(crate) fn push(&mut self, name: &str, tuple: Tuple) {
        match self.entries.last() {
            Some(last) if self.name(last) >= name => self.apply(name, tuple),
            _ => {
                let entry = self.entry_for(name, tuple);
                self.entries.push(entry);
            }
        }
    }

    /// The live tuple for `name` (tombstones are invisible here).
    pub fn get(&self, name: &str) -> Option<&Tuple> {
        self.get_raw(name).filter(|t| !t.deleted)
    }

    /// The raw tuple including tombstones (maintenance needs them).
    pub fn get_raw(&self, name: &str) -> Option<&Tuple> {
        self.search(name).ok().map(|i| &self.entries[i].tuple)
    }

    /// Live children in name order — exactly what a names-only LIST
    /// returns in O(1) object reads (§3.1).
    pub fn live(&self) -> impl Iterator<Item = (&str, &Tuple)> {
        self.iter().filter(|(_, t)| !t.deleted)
    }

    /// All tuples, tombstones included, in name order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            names: &self.names,
            entries: self.entries.iter(),
        }
    }

    /// §3.3.2's merging algorithm: iterate the children of `other` (the
    /// patch, already "converted into another virtual NameRing"); a child
    /// present in both is overridden by the larger timestamp; a child only
    /// in the patch is inserted. Nothing is ever removed here — removal is
    /// deferred to [`NameRing::compact`].
    ///
    /// A small patch is applied tuple by tuple. A large one is one lockstep
    /// pass: tuples of names both rings hold are overridden in place, and
    /// the names only `other` holds are merged in from the back.
    pub fn merge_from(&mut self, other: &NameRing) {
        // Every tuple of `other` either lands or loses to a newer one.
        self.version = self.version.max(other.version);
        if other.len() <= SMALL_PATCH {
            for (name, tuple) in other.iter() {
                self.apply(name, *tuple);
            }
            return;
        }
        let mut added: Vec<Entry> = Vec::new();
        let mut i = 0;
        for theirs in &other.entries {
            let name = other.name(theirs);
            while i < self.entries.len() && self.name(&self.entries[i]) < name {
                i += 1;
            }
            if i < self.entries.len() && self.name(&self.entries[i]) == name {
                let ours = &mut self.entries[i].tuple;
                if !ours.covers(&theirs.tuple) {
                    *ours = theirs.tuple;
                }
                i += 1;
            } else {
                added.push(self.entry_for(name, theirs.tuple));
            }
        }
        if added.is_empty() {
            return;
        }
        // Both runs are sorted and share no name: merge from the back into
        // the grown vector, so every entry moves once.
        let (mut a, mut b) = (self.entries.len(), added.len());
        self.entries.extend_from_slice(&added);
        while b > 0 {
            let w = a + b - 1;
            if a > 0 && self.name(&self.entries[a - 1]) > self.name(&added[b - 1]) {
                self.entries[w] = self.entries[a - 1];
                a -= 1;
            } else {
                self.entries[w] = added[b - 1];
                b -= 1;
            }
        }
    }

    /// Whether merging `other` into this ring would change nothing: every
    /// name `other` holds is here with a tuple that wins or ties the merge.
    pub fn subsumes(&self, other: &NameRing) -> bool {
        if other.len() > self.len() {
            return false;
        }
        if other.len() <= SMALL_PATCH {
            return other
                .iter()
                .all(|(name, t)| self.get_raw(name).is_some_and(|ours| ours.covers(t)));
        }
        let mut ours = self.iter().peekable();
        other.iter().all(|(name, theirs)| {
            while ours.next_if(|(n, _)| *n < name).is_some() {}
            ours.next_if(|(n, _)| *n == name)
                .is_some_and(|(_, t)| t.covers(theirs))
        })
    }

    /// Pure merge: `A ⊔ B`.
    pub fn merged(mut a: NameRing, b: &NameRing) -> NameRing {
        a.merge_from(b);
        a
    }

    /// Drop tombstones with `ts < horizon` — the deferred "really removing
    /// the tuple from the NameRing … when this NameRing is in use". Returns
    /// the removed `(name, tuple)` pairs, in name order, so callers can
    /// reclaim the children's objects.
    pub fn compact(&mut self, horizon: Timestamp) -> Vec<(String, Tuple)> {
        let mut removed = Vec::new();
        self.drop_where(
            |_, t| doomed(t, horizon),
            |name, t| removed.push((name.to_string(), *t)),
        );
        removed
    }

    /// Drop every tuple that the tombstone `dropped` holds for its name
    /// covers in the merge order, in either of its states (`dropped`:
    /// tombstones in name order, as [`compact`](Self::compact) returns
    /// them). GC floors every local ring with this, so neither a compacted
    /// tombstone, nor its marked copy, nor the live tuple it deleted
    /// rejoins the global ring. Returns how many were dropped.
    pub fn drop_covered(&mut self, dropped: &[(String, Tuple)]) -> usize {
        self.drop_where(
            |name, t| {
                dropped
                    .binary_search_by(|(n, _)| n.as_str().cmp(name))
                    .is_ok_and(|i| dropped[i].1.floors(t))
            },
            |_, _| {},
        )
    }

    /// Rebuild the ring without the tuples `doomed` picks, handing each
    /// dropped tuple to `on_drop`; recomputes the version. Returns how many
    /// were dropped.
    fn drop_where(
        &mut self,
        doomed: impl Fn(&str, &Tuple) -> bool,
        mut on_drop: impl FnMut(&str, &Tuple),
    ) -> usize {
        let dropped = self.iter().filter(|(name, t)| doomed(name, t)).count();
        if dropped == 0 {
            return 0;
        }
        let mut kept = NameRing::with_capacity(self.len() - dropped, self.names.len());
        for (name, t) in self.iter() {
            if doomed(name, t) {
                on_drop(name, t);
            } else {
                kept.push(name, *t);
            }
        }
        *self = kept;
        dropped
    }

    /// Newest timestamp in the ring (ZERO when empty). A middleware's
    /// clock observes it whenever a ring body enters the middleware, so
    /// the tuples it stamps next outrank every tuple it has read. It is
    /// not the ring's version: a ring object's write stamp is.
    pub fn version(&self) -> Timestamp {
        self.version
    }
}

fn doomed(t: &Tuple, horizon: Timestamp) -> bool {
    t.deleted && t.ts < horizon
}

/// A ring's tuples in name order, tombstones included.
#[derive(Clone, Default)]
pub struct Iter<'a> {
    names: &'a str,
    entries: std::slice::Iter<'a, Entry>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a Tuple);

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.entries.next()?;
        Some((e.name(self.names), &e.tuple))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

/// A read-only *join view* over a fetched global ring and a middleware's
/// local patch overlay (`fd.local`), evaluated per key.
///
/// It holds `Arc`s to both sides and computes the CRDT join lazily, so a
/// resolve level allocates nothing proportional to the ring: `get` joins
/// the two tuples for one key, [`RingView::live`] walks both sorted rings
/// in lockstep. Cloning the view is two refcount bumps.
///
/// Note this is a *view*, not a cache: it never assumes one side subsumes
/// the other (the global ring object is not monotone across nodes —
/// concurrent merge cycles can overwrite each other's folds until gossip
/// reconciles them), so every read is a genuine per-key join.
#[derive(Debug, Clone)]
pub struct RingView {
    global: Arc<NameRing>,
    overlay: Option<Arc<NameRing>>,
    /// Whether the global ring came from the middleware's parsed-ring
    /// cache (no cloud GET) — the resolve path charges the cheaper
    /// in-memory lookup cost when it did.
    from_cache: bool,
}

impl RingView {
    pub fn new(global: Arc<NameRing>, overlay: Option<Arc<NameRing>>) -> Self {
        // An empty overlay, or the global ring itself (what gossip leaves
        // behind once the global ring covers the local one), joins as
        // identity; drop it so the view degenerates to a plain borrow.
        let overlay = overlay.filter(|o| !o.is_empty() && !Arc::ptr_eq(o, &global));
        RingView {
            global,
            overlay,
            from_cache: false,
        }
    }
    /// Mark the view as served from the parsed-ring cache.
    pub fn mark_cached(mut self) -> Self {
        self.from_cache = true;
        self
    }

    /// Whether the global ring was served from the parsed-ring cache.
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// View over a single owned ring (tests, already-merged inputs).
    pub fn from_ring(ring: NameRing) -> Self {
        RingView::new(Arc::new(ring), None)
    }

    fn join<'a>(a: Option<&'a Tuple>, b: Option<&'a Tuple>) -> Option<&'a Tuple> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if x.covers(y) { x } else { y }),
            (x, None) => x,
            (None, y) => y,
        }
    }

    /// The joined tuple for `name`, tombstones included.
    pub fn get_raw(&self, name: &str) -> Option<&Tuple> {
        let over = self.overlay.as_deref().and_then(|o| o.get_raw(name));
        Self::join(self.global.get_raw(name), over)
    }

    /// The joined live tuple for `name` (tombstones are invisible here).
    pub fn get(&self, name: &str) -> Option<&Tuple> {
        self.get_raw(name).filter(|t| !t.deleted)
    }

    /// All joined tuples in name order, tombstones included.
    pub fn iter(&self) -> RingViewIter<'_> {
        RingViewIter {
            global: self.global.iter().peekable(),
            overlay: self
                .overlay
                .as_deref()
                .map(NameRing::iter)
                .unwrap_or_default()
                .peekable(),
        }
    }

    /// Joined live children in name order — the LIST fast path.
    pub fn live(&self) -> impl Iterator<Item = (&str, &Tuple)> {
        self.iter().filter(|(_, t)| !t.deleted)
    }

    pub fn live_len(&self) -> usize {
        self.live().count()
    }

    /// Whether the joined ring holds a tombstone with `ts < horizon` —
    /// whether [`NameRing::compact`] on the materialised ring would drop
    /// anything.
    pub(crate) fn has_tombstone_below(&self, horizon: Timestamp) -> bool {
        self.iter().any(|(_, t)| doomed(t, horizon))
    }

    /// Fold the view into an owned ring (compat path for callers that
    /// still need a materialised `NameRing`).
    pub fn materialize(&self) -> NameRing {
        match &self.overlay {
            None => (*self.global).clone(),
            Some(o) => NameRing::merged((*self.global).clone(), o),
        }
    }
}

/// Lockstep merge over the two sorted rings of a [`RingView`].
pub struct RingViewIter<'a> {
    global: std::iter::Peekable<Iter<'a>>,
    overlay: std::iter::Peekable<Iter<'a>>,
}

impl<'a> Iterator for RingViewIter<'a> {
    type Item = (&'a str, &'a Tuple);

    fn next(&mut self) -> Option<Self::Item> {
        match (self.global.peek(), self.overlay.peek()) {
            (Some((g, _)), Some((o, _))) => match g.cmp(o) {
                Ordering::Less => self.global.next(),
                Ordering::Greater => self.overlay.next(),
                Ordering::Equal => {
                    let (name, gt) = self.global.next().expect("peeked");
                    let (_, ot) = self.overlay.next().expect("peeked");
                    Some((name, if gt.covers(ot) { gt } else { ot }))
                }
            },
            (Some(_), None) => self.global.next(),
            (None, _) => self.overlay.next(),
        }
    }
}

impl FromIterator<(String, Tuple)> for NameRing {
    fn from_iter<I: IntoIterator<Item = (String, Tuple)>>(iter: I) -> Self {
        let mut r = NameRing::new();
        for (n, t) in iter {
            r.push(&n, t);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2util::NodeId;

    fn ts(millis: u64, seq: u32, node: u16) -> Timestamp {
        Timestamp::new(millis, seq, NodeId(node))
    }

    #[test]
    fn apply_and_list_live_children() {
        let mut r = NameRing::new();
        r.apply("cat", Tuple::file(ts(1, 0, 1), 100));
        r.apply("bash", Tuple::file(ts(2, 0, 1), 200));
        r.apply("nc", Tuple::file(ts(3, 0, 1), 300));
        let names: Vec<_> = r.live().map(|(n, _)| n).collect();
        assert_eq!(names, ["bash", "cat", "nc"]); // alphabetical
        assert_eq!(r.live_len(), 3);
    }

    #[test]
    fn newer_timestamp_overrides() {
        let mut r = NameRing::new();
        r.apply("f", Tuple::file(ts(1, 0, 1), 10));
        r.apply("f", Tuple::file(ts(5, 0, 1), 50));
        assert_eq!(r.get("f").unwrap().child, ChildRef::File { size: 50 });
        // Stale write is a no-op.
        r.apply("f", Tuple::file(ts(3, 0, 1), 30));
        assert_eq!(r.get("f").unwrap().child, ChildRef::File { size: 50 });
    }

    #[test]
    fn fake_deletion_hides_but_keeps_tuple() {
        let mut r = NameRing::new();
        let t = Tuple::file(ts(1, 0, 1), 10);
        r.apply("f", t);
        r.apply("f", t.tombstone(ts(2, 0, 1)));
        assert!(r.get("f").is_none());
        assert!(r.get_raw("f").unwrap().deleted);
        assert_eq!(r.len(), 1);
        assert_eq!(r.live_len(), 0);
    }

    #[test]
    fn recreate_after_delete_wins_with_newer_ts() {
        let mut r = NameRing::new();
        r.apply("f", Tuple::file(ts(1, 0, 1), 10));
        r.apply("f", Tuple::file(ts(1, 0, 1), 10).tombstone(ts(2, 0, 1)));
        r.apply("f", Tuple::file(ts(3, 0, 1), 99));
        assert_eq!(r.get("f").unwrap().child, ChildRef::File { size: 99 });
    }

    #[test]
    fn merge_inserts_and_overrides_like_the_paper() {
        // N_A with children a(t1), b(t2); patch N_B with b(t5), c(t3).
        let mut a = NameRing::new();
        a.apply("a", Tuple::file(ts(1, 0, 1), 1));
        a.apply("b", Tuple::file(ts(2, 0, 1), 2));
        let mut b = NameRing::new();
        b.apply("b", Tuple::file(ts(5, 0, 1), 5));
        b.apply("c", Tuple::file(ts(3, 0, 1), 3));
        a.merge_from(&b);
        assert_eq!(a.live_len(), 3);
        assert_eq!(a.get("b").unwrap().child, ChildRef::File { size: 5 });
        assert_eq!(a.get("c").unwrap().child, ChildRef::File { size: 3 });
    }

    #[test]
    fn merge_never_removes() {
        let mut a = NameRing::new();
        a.apply("a", Tuple::file(ts(1, 0, 1), 1));
        let empty = NameRing::new();
        a.merge_from(&empty);
        assert_eq!(a.live_len(), 1);
    }

    #[test]
    fn compact_drops_old_tombstones_only() {
        let mut r = NameRing::new();
        r.apply("old", Tuple::file(ts(1, 0, 1), 1).tombstone(ts(2, 0, 1)));
        r.apply("new", Tuple::file(ts(1, 0, 1), 1).tombstone(ts(9, 0, 1)));
        r.apply("live", Tuple::file(ts(1, 0, 1), 1));
        let removed = r.compact(ts(5, 0, 0));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].0, "old");
        assert_eq!(r.len(), 2);
        assert!(r.get_raw("new").is_some());
        assert!(r.get("live").is_some());
    }

    #[test]
    fn a_reclaimed_mark_wins_its_tombstone_and_falls_with_it() {
        let tomb = Tuple::file(ts(1, 0, 1), 1).tombstone(ts(2, 0, 1));
        let marked = tomb.mark_reclaimed();
        for (first, second) in [(tomb, marked), (marked, tomb)] {
            let mut r = NameRing::new();
            r.apply("f", first);
            r.apply("f", second);
            assert_eq!(r.get_raw("f"), Some(&marked));
            assert!(r.get("f").is_none());
        }
        // A newer tuple still wins against the mark.
        let mut r = NameRing::new();
        r.apply("f", marked);
        r.apply("f", Tuple::file(ts(3, 0, 1), 5));
        assert_eq!(r.get("f").unwrap().child, ChildRef::File { size: 5 });
        // GC compacting the unmarked tombstone drops the marked copy too.
        let mut local = NameRing::new();
        local.apply("f", marked);
        assert_eq!(local.drop_covered(&[("f".to_string(), tomb)]), 1);
        assert!(local.is_empty());
    }

    #[test]
    fn version_is_max_timestamp() {
        let mut r = NameRing::new();
        assert_eq!(r.version(), Timestamp::ZERO);
        r.apply("a", Tuple::file(ts(7, 2, 1), 1));
        r.apply("b", Tuple::file(ts(3, 0, 1), 1).tombstone(ts(9, 0, 2)));
        assert_eq!(r.version(), ts(9, 0, 2));
    }

    #[test]
    fn dir_tuples_carry_namespaces() {
        let ns = NamespaceId::new(6, NodeId(1), 1_469_346_604_539);
        let mut r = NameRing::new();
        r.apply("home", Tuple::dir(ts(1, 0, 1), ns));
        match r.get("home").unwrap().child {
            ChildRef::Dir { ns: got } => assert_eq!(got, ns),
            _ => panic!("expected dir"),
        }
        assert!(r.get("home").unwrap().child.is_dir());
    }

    #[test]
    fn ring_view_joins_per_key_like_a_materialised_merge() {
        let mut global = NameRing::new();
        global.apply("a", Tuple::file(ts(1, 0, 1), 1));
        global.apply("b", Tuple::file(ts(2, 0, 1), 2));
        global.apply("c", Tuple::file(ts(3, 0, 1), 3));
        let mut overlay = NameRing::new();
        overlay.apply("b", Tuple::file(ts(5, 0, 2), 20)); // newer override
        overlay.apply("c", Tuple::file(ts(1, 0, 2), 30)); // stale, loses
        overlay.apply("d", Tuple::file(ts(4, 0, 2), 40)); // overlay-only
        let view = RingView::new(Arc::new(global.clone()), Some(Arc::new(overlay.clone())));

        let folded = NameRing::merged(global, &overlay);
        for name in ["a", "b", "c", "d", "missing"] {
            assert_eq!(view.get(name), folded.get(name), "key {name}");
            assert_eq!(view.get_raw(name), folded.get_raw(name), "raw {name}");
        }
        let via_view: Vec<_> = view.live().map(|(n, t)| (n.to_string(), *t)).collect();
        let via_fold: Vec<_> = folded.live().map(|(n, t)| (n.to_string(), *t)).collect();
        assert_eq!(via_view, via_fold);
        assert_eq!(view.live_len(), folded.live_len());
        assert_eq!(view.materialize(), folded);
    }

    #[test]
    fn ring_view_overlay_tombstone_hides_global_entry() {
        let mut global = NameRing::new();
        global.apply("f", Tuple::file(ts(1, 0, 1), 1));
        let mut overlay = NameRing::new();
        overlay.apply("f", Tuple::file(ts(1, 0, 1), 1).tombstone(ts(2, 0, 2)));
        let view = RingView::new(Arc::new(global), Some(Arc::new(overlay)));
        assert!(view.get("f").is_none());
        assert!(view.get_raw("f").unwrap().deleted);
        assert_eq!(view.live_len(), 0);
        assert_eq!(view.iter().count(), 1);
    }

    #[test]
    fn ring_view_without_overlay_borrows_the_global_ring() {
        let mut global = NameRing::new();
        global.apply("x", Tuple::file(ts(1, 0, 1), 7));
        let view = RingView::new(Arc::new(global.clone()), Some(Arc::new(NameRing::new())));
        assert_eq!(view.materialize(), global);
        assert_eq!(view.get("x"), global.get("x"));
        assert_eq!(view.live().count(), 1);
    }

    #[test]
    fn equal_timestamp_tiebreak_is_symmetric() {
        // Pathological: identical timestamps, different payloads. The merge
        // must pick the same winner regardless of order.
        let t = ts(5, 0, 1);
        let x = Tuple::file(t, 1);
        let y = Tuple::file(t, 2);
        let mut ab = NameRing::new();
        ab.apply("f", x);
        ab.apply("f", y);
        let mut ba = NameRing::new();
        ba.apply("f", y);
        ba.apply("f", x);
        assert_eq!(ab, ba);
    }
}
