//! A storage node: one device of the simulated rack.
//!
//! Each node owns an in-memory map from ring keys to stored replicas,
//! **lock-striped** so concurrent PUT/GET/DELETE on different keys never
//! contend on a whole-device lock: the map is split into `stripes` shards
//! keyed by ring-key hash, each behind its own `RwLock`. The down flag is a
//! plain atomic — checking it costs one relaxed load on the hot path.
//!
//! A map entry is small — stamp, flags and a pointer — and the content it
//! points to ([`Record`]) is written once and shared by every replica of
//! that version, so a probe that only votes reads the entry and nothing
//! behind it.
//!
//! Nodes can be marked down (failure injection); the proxy then routes to
//! handoff devices, and [`crate::cluster::Cluster::repair`] later restores
//! proper placement — the moral equivalent of Swift's object replicator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::key::{stripe_of, KeyMap, KeyRef, Keyed, RingKey, WriteKey};
use crate::lock_rank;
use crate::object::{Meta, Payload};
use h2ring::DeviceId;
use h2util::faults::{FaultInjector, OpClass};
use h2util::hash::Digest128;
use h2util::OrderedRwLock;

/// Default lock-stripe count per device. Sixteen stripes keep the per-key
/// critical sections independent for any realistic client count while the
/// per-node footprint stays trivial (16 empty HashMaps).
pub const DEFAULT_NODE_STRIPES: usize = 16;

/// The content of one object version. Immutable once written; the replicas
/// that store the version and the readers that fetched it all hold the same
/// allocation.
#[derive(Debug)]
pub struct Record {
    pub payload: Payload,
    pub meta: Meta,
    etag: OnceLock<Digest128>,
}

impl Record {
    pub fn new(payload: Payload, meta: Meta) -> Arc<Self> {
        Arc::new(Record {
            payload,
            meta,
            etag: OnceLock::new(),
        })
    }

    /// Content digest, hashed at most once per version: by the first HEAD
    /// that asks, never on the write path (NameRings and blocks are written
    /// often and never HEADed).
    pub fn etag(&self) -> Digest128 {
        *self.etag.get_or_init(|| self.payload.digest())
    }
}

/// One replica as stored on a device: the version's stamp and flags inline,
/// its content behind a shared pointer.
#[derive(Debug, Clone)]
pub struct StoredReplica {
    pub modified_ms: u64,
    /// True when this replica lives here only because an assigned device
    /// was down at write time (Swift handoff semantics).
    pub handoff: bool,
    /// Tombstone: the object was deleted at `modified_ms`; kept so late
    /// replicas don't resurrect deleted data during repair.
    pub deleted: bool,
    pub record: Arc<Record>,
}

impl StoredReplica {
    /// A live replica of `record`, written at `modified_ms`.
    pub fn live(record: Arc<Record>, modified_ms: u64, handoff: bool) -> Self {
        StoredReplica {
            modified_ms,
            handoff,
            deleted: false,
            record,
        }
    }

    /// A tombstone stamped `modified_ms`.
    pub fn tombstone(modified_ms: u64) -> Self {
        StoredReplica {
            modified_ms,
            handoff: false,
            deleted: true,
            record: Record::new(Payload::Inline(bytes::Bytes::new()), Meta::new()),
        }
    }

    /// The same version as it would sit on another device.
    pub fn placed(&self, handoff: bool) -> Self {
        StoredReplica {
            handoff,
            ..self.clone()
        }
    }
}

/// Outcome of one replica probe, as observed by the cluster read path.
///
/// This is the vote a device casts during a quorum read, shaped for the
/// trace layer: reachability, the stamp it answered with, and whether the
/// stored replica is a tombstone. Defining it here keeps the vote
/// vocabulary next to the storage it describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaProbe {
    /// Device down.
    Down,
    /// Injected per-replica fault: the device is up but treated as
    /// unreachable for this one request, like a transient timeout.
    Faulted,
    /// Device up but holds nothing under this key.
    Miss,
    /// Device answered with a replica (possibly a tombstone).
    Hit { modified_ms: u64, tombstone: bool },
}

impl ReplicaProbe {
    /// Short label recorded as the device's vote in trace span notes:
    /// `down` / `faulted` / `miss` / `ms=17` / `tomb ms=17`.
    pub fn vote(&self) -> String {
        match self {
            ReplicaProbe::Down => "down".to_string(),
            ReplicaProbe::Faulted => "faulted".to_string(),
            ReplicaProbe::Miss => "miss".to_string(),
            ReplicaProbe::Hit {
                modified_ms,
                tombstone: false,
            } => format!("ms={modified_ms}"),
            ReplicaProbe::Hit {
                modified_ms,
                tombstone: true,
            } => format!("tomb ms={modified_ms}"),
        }
    }
}

/// An in-memory storage device.
#[derive(Debug)]
pub struct StorageNode {
    id: DeviceId,
    zone: u8,
    /// Lock stripes: `stripes[stripe_of(hash(key), n)]` owns every replica
    /// whose ring key hashes there. All per-key operations touch exactly
    /// one stripe. Rank [`lock_rank::NODE_STRIPE`]: acquired after the
    /// proxy's op stripe, before any map shard (validated in debug builds).
    stripes: Box<[OrderedRwLock<KeyMap<StoredReplica>>]>,
    down: AtomicBool,
}

impl StorageNode {
    pub fn new(id: DeviceId, zone: u8) -> Self {
        Self::with_stripes(id, zone, DEFAULT_NODE_STRIPES)
    }

    /// Node with an explicit stripe count (1 reproduces the seed's single
    /// whole-device lock; equivalence tests rely on that).
    pub fn with_stripes(id: DeviceId, zone: u8, stripes: usize) -> Self {
        assert!(stripes >= 1, "need at least one stripe");
        StorageNode {
            id,
            zone,
            stripes: (0..stripes)
                .map(|_| {
                    OrderedRwLock::new(
                        lock_rank::NODE_STRIPE,
                        "objectstore.node_stripe",
                        KeyMap::default(),
                    )
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            down: AtomicBool::new(false),
        }
    }

    pub fn id(&self) -> DeviceId {
        self.id
    }

    pub fn zone(&self) -> u8 {
        self.zone
    }

    fn stripe(&self, hash: u64) -> &OrderedRwLock<KeyMap<StoredReplica>> {
        &self.stripes[stripe_of(hash, self.stripes.len())]
    }

    /// Failure injection: a down node rejects all traffic.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Release);
    }

    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Write (or overwrite) a live replica; see [`StorageNode::store`].
    pub fn put(
        &self,
        ring_key: &str,
        payload: Payload,
        meta: Meta,
        modified_ms: u64,
        handoff: bool,
    ) -> bool {
        let replica = StoredReplica::live(Record::new(payload, meta), modified_ms, handoff);
        self.store(&WriteKey::new(KeyRef::new(ring_key)), replica, None)
    }

    /// Tombstone a replica; see [`StorageNode::store`].
    pub fn delete(&self, ring_key: &str, modified_ms: u64) -> bool {
        let tombstone = StoredReplica::tombstone(modified_ms);
        self.store(&WriteKey::new(KeyRef::new(ring_key)), tombstone, None)
    }

    /// Install `replica` under `key`. Last-writer-wins by `modified_ms`: a
    /// stale write never clobbers a newer replica or tombstone. A tombstone
    /// is recorded even for an object this device never saw, so a late
    /// replicated PUT cannot resurrect it; it keeps the `handoff` flag of
    /// the replica it replaces (false when there was none).
    ///
    /// Returns false — nothing written — if the node is down or if `fault`,
    /// the request's injector, draws a per-replica fault: the device then
    /// behaves as unreachable for this one request. Client-path writes pass
    /// the injector; repair, migration and reclamation pass `None`, because
    /// their sweep order is nondeterministic and drawing there would break
    /// seeded replay.
    pub fn store(
        &self,
        key: &WriteKey<'_>,
        replica: StoredReplica,
        fault: Option<&FaultInjector>,
    ) -> bool {
        let class = if replica.deleted {
            OpClass::Delete
        } else {
            OpClass::Put
        };
        if self.is_down() || fault.is_some_and(|f| f.replica_fails(class)) {
            return false;
        }
        let at = key.at();
        let mut store = self.stripe(at.hash).write();
        match store.get_mut(&at as &dyn Keyed) {
            Some(existing) if existing.modified_ms > replica.modified_ms => {}
            Some(existing) => {
                let handoff = if replica.deleted {
                    existing.handoff
                } else {
                    replica.handoff
                };
                *existing = StoredReplica { handoff, ..replica };
            }
            None => {
                let handoff = replica.handoff && !replica.deleted;
                store.insert(key.owned(), StoredReplica { handoff, ..replica });
            }
        }
        true
    }

    /// Read a replica (not tombstoned). `None` when down or absent.
    pub fn get(&self, ring_key: &str) -> Option<StoredReplica> {
        self.get_raw(ring_key).filter(|r| !r.deleted)
    }

    /// Raw replica including tombstones (repair needs to see them).
    pub fn get_raw(&self, ring_key: &str) -> Option<StoredReplica> {
        self.probe(ring_key).0
    }

    /// Raw fetch plus the structured outcome the trace layer records as
    /// this device's quorum vote.
    pub fn probe(&self, ring_key: &str) -> (Option<StoredReplica>, ReplicaProbe) {
        self.probe_newer(KeyRef::new(ring_key), None, None)
    }

    /// One quorum-read probe: always reports this device's vote, and hands
    /// the replica back only when its stamp is strictly newer than `than`,
    /// the best the caller holds so far (`None`: any replica is). A device
    /// that merely agrees, or lags, costs the reader no refcount traffic.
    ///
    /// `fault` is the request's injector, drawn only once the node is known
    /// to be up (as in [`StorageNode::store`]); probes that must not draw —
    /// handoff scans, repair, migration — pass `None`.
    pub fn probe_newer(
        &self,
        key: KeyRef<'_>,
        than: Option<u64>,
        fault: Option<&FaultInjector>,
    ) -> (Option<StoredReplica>, ReplicaProbe) {
        if self.is_down() {
            return (None, ReplicaProbe::Down);
        }
        if fault.is_some_and(|f| f.replica_fails(OpClass::Get)) {
            return (None, ReplicaProbe::Faulted);
        }
        match self.stripe(key.hash).read().get(&key as &dyn Keyed) {
            Some(r) => {
                let vote = ReplicaProbe::Hit {
                    modified_ms: r.modified_ms,
                    tombstone: r.deleted,
                };
                let newer = than.is_none_or(|best| r.modified_ms > best);
                (newer.then(|| r.clone()), vote)
            }
            None => (None, ReplicaProbe::Miss),
        }
    }

    /// Stamp of whatever this device holds under `key`, tombstones
    /// included; `None` when down or absent. Copies nothing.
    pub fn stamp(&self, key: KeyRef<'_>) -> Option<u64> {
        match self.probe_newer(key, Some(u64::MAX), None).1 {
            ReplicaProbe::Hit { modified_ms, .. } => Some(modified_ms),
            _ => None,
        }
    }

    /// Drop a replica entirely (used by repair when moving handoffs home,
    /// and by tombstone reclamation).
    pub fn purge(&self, key: KeyRef<'_>) {
        self.stripe(key.hash).write().remove(&key as &dyn Keyed);
    }

    /// Drop a replica only if it is not newer than `upto_ms`. Repair uses
    /// this instead of [`purge`](Self::purge) so a writer racing the
    /// replicator can never have its just-written newer replica removed.
    /// Returns true when a replica was removed.
    pub fn purge_upto(&self, key: KeyRef<'_>, upto_ms: u64) -> bool {
        let mut store = self.stripe(key.hash).write();
        match store.get(&key as &dyn Keyed) {
            Some(r) if r.modified_ms <= upto_ms => {
                store.remove(&key as &dyn Keyed);
                true
            }
            _ => false,
        }
    }

    /// Snapshot of all keys currently held (including tombstones). The
    /// keys share the stored text; nothing is copied or re-hashed.
    pub fn keys(&self) -> Vec<RingKey> {
        let mut out = Vec::new();
        for s in self.stripes.iter() {
            out.extend(s.read().keys().cloned());
        }
        out
    }

    /// Live (non-tombstone) replica count.
    pub fn replica_count(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().values().filter(|r| !r.deleted).count())
            .sum()
    }

    /// Logical bytes of live replicas on this device.
    pub fn bytes(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|r| !r.deleted)
                    .map(|r| r.record.payload.len())
                    .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> StorageNode {
        StorageNode::new(DeviceId(0), 0)
    }

    fn sorted_keys(n: &StorageNode) -> Vec<String> {
        let mut keys: Vec<String> = n.keys().iter().map(|k| k.as_str().to_string()).collect();
        keys.sort();
        keys
    }

    #[test]
    fn probe_reports_down_miss_hit_and_tombstone() {
        let n = node();
        assert_eq!(n.probe("/k").1, ReplicaProbe::Miss);
        assert!(n.put("/k", Payload::from_static("x"), Meta::new(), 7, false));
        let (r, p) = n.probe("/k");
        assert_eq!(r.unwrap().modified_ms, 7);
        assert_eq!(
            p,
            ReplicaProbe::Hit {
                modified_ms: 7,
                tombstone: false
            }
        );
        assert_eq!(p.vote(), "ms=7");
        assert!(n.delete("/k", 9));
        let (_, p) = n.probe("/k");
        assert_eq!(p.vote(), "tomb ms=9");
        n.set_down(true);
        let (r, p) = n.probe("/k");
        assert!(r.is_none());
        assert_eq!(p, ReplicaProbe::Down);
        assert_eq!(p.vote(), "down");
    }

    #[test]
    fn put_get_roundtrip() {
        let n = node();
        assert!(n.put("/a/c/o", Payload::from_static("hi"), Meta::new(), 1, false));
        let r = n.get("/a/c/o").unwrap();
        assert_eq!(r.record.payload.as_str(), Some("hi"));
        assert!(!r.handoff);
        assert_eq!(n.replica_count(), 1);
        assert_eq!(n.bytes(), 2);
    }

    #[test]
    fn last_writer_wins_on_device() {
        let n = node();
        n.put("/k", Payload::from_static("new"), Meta::new(), 10, false);
        n.put("/k", Payload::from_static("stale"), Meta::new(), 5, false);
        assert_eq!(n.get("/k").unwrap().record.payload.as_str(), Some("new"));
        n.put("/k", Payload::from_static("newest"), Meta::new(), 20, false);
        assert_eq!(n.get("/k").unwrap().record.payload.as_str(), Some("newest"));
    }

    #[test]
    fn tombstones_hide_and_block_resurrection() {
        let n = node();
        n.put("/k", Payload::from_static("x"), Meta::new(), 10, false);
        assert!(n.delete("/k", 11));
        assert!(n.get("/k").is_none());
        assert!(n.get_raw("/k").unwrap().deleted);
        // A stale write (ms 10 < tombstone 11) must not resurrect.
        n.put("/k", Payload::from_static("ghost"), Meta::new(), 10, false);
        assert!(n.get("/k").is_none());
        // A genuinely newer write may recreate.
        n.put("/k", Payload::from_static("alive"), Meta::new(), 12, false);
        assert_eq!(n.get("/k").unwrap().record.payload.as_str(), Some("alive"));
    }

    #[test]
    fn tombstone_without_prior_replica_is_recorded() {
        let n = node();
        assert!(n.delete("/never-seen", 5));
        assert!(n.get("/never-seen").is_none());
        n.put(
            "/never-seen",
            Payload::from_static("late"),
            Meta::new(),
            4,
            false,
        );
        assert!(n.get("/never-seen").is_none(), "late stale PUT resurrected");
    }

    #[test]
    fn down_node_rejects_everything() {
        let n = node();
        n.put("/k", Payload::from_static("x"), Meta::new(), 1, false);
        n.set_down(true);
        assert!(n.is_down());
        assert!(!n.put("/k2", Payload::from_static("y"), Meta::new(), 2, false));
        assert!(n.get("/k").is_none());
        assert!(!n.delete("/k", 3));
        n.set_down(false);
        assert!(n.get("/k").is_some());
    }

    #[test]
    fn purge_removes_outright() {
        let n = node();
        n.put("/k", Payload::from_static("x"), Meta::new(), 1, true);
        assert!(n.get("/k").unwrap().handoff);
        n.purge(KeyRef::new("/k"));
        assert!(n.get_raw("/k").is_none());
        assert_eq!(n.keys().len(), 0);
    }

    #[test]
    fn purge_upto_spares_newer_replicas() {
        let n = node();
        n.put("/k", Payload::from_static("v2"), Meta::new(), 20, true);
        // Replicator decided on ms 10 → the newer handoff copy survives.
        assert!(!n.purge_upto(KeyRef::new("/k"), 10));
        assert_eq!(n.get("/k").unwrap().record.payload.as_str(), Some("v2"));
        // With a current horizon it goes.
        assert!(n.purge_upto(KeyRef::new("/k"), 20));
        assert!(n.get_raw("/k").is_none());
        // Absent key: no-op.
        assert!(!n.purge_upto(KeyRef::new("/k"), 99));
    }

    #[test]
    fn striping_spreads_keys_but_preserves_semantics() {
        let one = StorageNode::with_stripes(DeviceId(1), 0, 1);
        let many = StorageNode::with_stripes(DeviceId(2), 0, 16);
        for i in 0..64 {
            let key = format!("/a/c/obj{i}");
            let val = Payload::from_string(format!("v{i}"));
            one.put(&key, val.clone(), Meta::new(), i, false);
            many.put(&key, val, Meta::new(), i, false);
        }
        assert_eq!(one.replica_count(), many.replica_count());
        assert_eq!(one.bytes(), many.bytes());
        assert_eq!(sorted_keys(&one), sorted_keys(&many));
        for i in 0..64 {
            let key = format!("/a/c/obj{i}");
            assert_eq!(
                one.get(&key).unwrap().record.payload,
                many.get(&key).unwrap().record.payload
            );
        }
    }

    #[test]
    fn replica_faults_reject_requests_but_repair_path_bypasses() {
        use h2util::faults::FaultPlan;
        let n = node();
        let inj = FaultInjector::new(FaultPlan::new(1).with_replica_errors(1.0));
        let key = WriteKey::new(KeyRef::new("/k"));
        let v1 = StoredReplica::live(
            Record::new(Payload::from_static("x"), Meta::new()),
            1,
            false,
        );
        assert!(!n.store(&key, v1.clone(), Some(&inj)));
        assert!(n.get_raw("/k").is_none());
        assert!(!n.store(&key, StoredReplica::tombstone(2), Some(&inj)));
        // The repair path passes no injector and always lands.
        assert!(n.store(&key, v1, None));
        assert_eq!(n.get("/k").unwrap().record.payload.as_str(), Some("x"));
        assert!(n.store(&key, StoredReplica::tombstone(4), None));
        assert!(n.get_raw("/k").unwrap().deleted);
        // An up node's probe draws too; a down node draws nothing, so the
        // fault stream stays aligned with the devices actually asked.
        assert_eq!(
            n.probe_newer(key.at(), None, Some(&inj)).1,
            ReplicaProbe::Faulted
        );
        let draws = inj.stats().draws;
        n.set_down(true);
        assert!(!n.store(&key, StoredReplica::tombstone(5), Some(&inj)));
        assert_eq!(
            n.probe_newer(key.at(), None, Some(&inj)).1,
            ReplicaProbe::Down
        );
        assert_eq!(inj.stats().draws, draws);
    }

    #[test]
    fn probe_newer_votes_always_and_clones_only_the_newer() {
        let n = node();
        let at = KeyRef::new("/k");
        n.put("/k", Payload::from_static("x"), Meta::new(), 7, false);
        let hit = ReplicaProbe::Hit {
            modified_ms: 7,
            tombstone: false,
        };
        // Older and equal bests get the vote but no replica.
        for best in [7, 8] {
            let (r, vote) = n.probe_newer(at, Some(best), None);
            assert!(r.is_none(), "best {best}");
            assert_eq!(vote, hit);
        }
        let (r, vote) = n.probe_newer(at, Some(6), None);
        assert_eq!(r.unwrap().modified_ms, 7);
        assert_eq!(vote, hit);
        // A newer tombstone is handed back: it must be able to win the read.
        n.delete("/k", 9);
        let (r, vote) = n.probe_newer(at, Some(7), None);
        assert!(r.unwrap().deleted);
        assert_eq!(
            vote,
            ReplicaProbe::Hit {
                modified_ms: 9,
                tombstone: true
            }
        );
        n.set_down(true);
        assert_eq!(n.probe_newer(at, None, None).1, ReplicaProbe::Down);
        assert_eq!(n.probe_newer(at, Some(0), None).1, ReplicaProbe::Down);
        assert_eq!(n.stamp(at), None);
    }

    #[test]
    fn replicas_of_one_version_share_its_record_and_key() {
        let (a, b) = (node(), StorageNode::new(DeviceId(1), 1));
        let key = WriteKey::new(KeyRef::new("/k"));
        let v = StoredReplica::live(
            Record::new(Payload::from_static("x"), Meta::new()),
            1,
            false,
        );
        assert!(a.store(&key, v.placed(false), None));
        assert!(b.store(&key, v.placed(true), None));
        let (ra, rb) = (a.get("/k").unwrap(), b.get("/k").unwrap());
        assert!(Arc::ptr_eq(&ra.record, &rb.record));
        assert!(!ra.handoff && rb.handoff);
        assert!(std::ptr::eq(
            a.keys()[0].as_str().as_ptr(),
            b.keys()[0].as_str().as_ptr()
        ));
        // The digest is computed on demand, once for all holders.
        assert_eq!(ra.record.etag(), Payload::from_static("x").digest());
    }

    #[test]
    fn tombstone_keeps_the_handoff_flag_of_what_it_replaces() {
        let n = node();
        n.put("/k", Payload::from_static("x"), Meta::new(), 1, true);
        n.delete("/k", 2);
        let r = n.get_raw("/k").unwrap();
        assert!(r.deleted && r.handoff);
        assert!(r.record.payload.is_empty() && r.record.meta.is_empty());
    }

    #[test]
    fn concurrent_distinct_keys_do_not_interfere() {
        let n = std::sync::Arc::new(node());
        std::thread::scope(|s| {
            for t in 0..4 {
                let n = n.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        let key = format!("/a/c/t{t}-k{i}");
                        assert!(n.put(
                            &key,
                            Payload::from_string(format!("{t}-{i}")),
                            Meta::new(),
                            (t * 1000 + i) as u64,
                            false
                        ));
                        assert_eq!(
                            n.get(&key).unwrap().record.payload.as_str(),
                            Some(format!("{t}-{i}").as_str())
                        );
                    }
                });
            }
        });
        assert_eq!(n.replica_count(), 800);
    }
}
