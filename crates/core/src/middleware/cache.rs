//! The two read-path caches, each `Some` only while enabled: the NameRing
//! cache of parsed global rings and the full-path resolve cache whose
//! entries the namespace epochs validate. A disabled cache registers none
//! of its counters, so its metrics output stays clean.

use super::*;

/// Counter name for name-ring cache hits (ring served from memory).
pub const RING_CACHE_HITS: &str = "ring_cache_hits";

/// Counter name for name-ring cache misses (ring fetched or rebuilt).
pub const RING_CACHE_MISSES: &str = "ring_cache_misses";

/// Counter name for cloud GETs avoided by the ring cache.
pub const GETS_SAVED: &str = "gets_saved";

/// Counter name for full-path resolve cache hits.
pub const PATH_CACHE_HITS: &str = "path_cache_hits";

/// Counter name for full-path resolve cache misses.
pub const PATH_CACHE_MISSES: &str = "path_cache_misses";

/// Counter name for negative-entry cache hits (known-absent paths).
pub const NEG_CACHE_HITS: &str = "neg_cache_hits";

/// Counter name for ring refetches that brought back the very copy the
/// ring cache last held (same write stamp), and so invalidated nothing.
pub const RING_REFETCH_UNCHANGED: &str = "ring_refetch_unchanged";

/// A parsed global ring held by the NameRing cache, stamped with the
/// version (max tuple timestamp) it carried when it entered the cache.
/// The ring is shared: a cache hit hands out a refcount bump, not a clone
/// of the tuple map.
struct CachedRing {
    version: Timestamp,
    ring: Arc<NameRing>,
}

/// Lock stripes for the NameRing cache. The cache sits on every resolve
/// level of every operation; one mutex over the whole LRU serialised all
/// of them. Striping by ring key keeps resolves of unrelated directories
/// off each other's lock (total capacity is split evenly across stripes,
/// so eviction becomes per-stripe LRU — same budget, slightly coarser
/// recency).
const RING_SHARDS: usize = 8;

/// Lock stripes for the full-path resolve cache (entries are tiny and
/// probed once per operation, so contention is the only sizing concern).
const PATH_SHARDS: usize = 16;

/// The path cache holds `PATH_CACHE_FACTOR ×` the ring-cache capacity:
/// one entry is a couple of strings plus a tuple, versus a whole parsed
/// ring per ring-cache entry, and a working set of files is a multiple of
/// its directory count.
const PATH_CACHE_FACTOR: usize = 8;

/// A full-path resolve-cache answer: what one O(1) probe replaces the O(d)
/// NameRing walk with.
#[derive(Debug, Clone, Copy)]
pub enum PathAnswer {
    /// The path's final component is this live tuple in `parent_ns`'s ring.
    Hit {
        parent_ns: NamespaceId,
        tuple: crate::namering::Tuple,
    },
    /// The path was NotFound when the entry was stored (negative entry).
    Missing,
}

/// The epoch fingerprint of a resolve: `(namespace, epoch)` of every ring
/// it consulted, root first. Shared, because a hit on a directory hands it
/// to the resolve of a child, which extends it by one ring.
pub type Fingerprint = Arc<[(NamespaceId, u64)]>;

/// One full-path cache entry: the answer plus the epoch fingerprint of
/// every ring consulted to produce it. The entry is valid exactly while
/// every `(namespace, epoch)` pair still matches [`H2Middleware::ns_epoch`]
/// — any ring write, gossip application, patch fold or GC notification on
/// an ancestor bumps that ancestor's epoch and thereby invalidates exactly
/// the affected subtree's entries (checked lazily at probe time).
///
/// The cache is keyed by the 64-bit hash of `(account, path)`; the entry
/// keeps both so a probe can tell its own path from one that merely shares
/// the hash (which it treats as a miss, and a store overwrites).
struct PathEntry {
    account: Arc<str>,
    path: Box<str>,
    fp: Fingerprint,
    answer: PathAnswer,
}

/// Version-stamped cache of parsed *global* rings (no local overlay),
/// consulted by [`H2Middleware::read_ring`] — the O(d) resolve hot path.
/// Kept fresh by write-through in `put_global_ring` and refresh on gossip;
/// never consulted by `fetch_global_ring`, which must see the cloud's
/// current object (merge cycles and gossip handling depend on that).
pub(super) struct RingCache {
    /// Striped by ring key ([`RING_SHARDS`]); each stripe is an
    /// independent LRU over an even share of the capacity.
    ring_cache: Vec<OrderedMutex<LruCache<FdKey, CachedRing, WordBuild>>>,
    /// Write stamp ([`swiftsim::Object::modified_ms`], unique per write
    /// across the cluster) of the copy of each ring that last entered the
    /// cache; no entry once it was dropped, or when an absent object was
    /// cached as an empty ring. A refetch that brings back the same stamp
    /// brought back the same bytes, so it is no mutation: see
    /// [`H2Middleware::cache_store`]. Taken innermost under a
    /// stripe, so the cached copy and its stamp change together.
    cached_ms: OrderedMutex<FdMap<u64>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    /// NameRing GETs that the cache absorbed (one per hit — kept as its own
    /// counter so dashboards don't have to know that equivalence).
    gets_saved: Arc<Counter>,
    /// See [`RING_REFETCH_UNCHANGED`].
    refetch_unchanged: Arc<Counter>,
}

impl RingCache {
    /// A cache of `capacity` parsed rings; `None` when `capacity` is 0.
    pub(super) fn new(capacity: usize, metrics: &MetricsRegistry) -> Option<Self> {
        (capacity > 0).then(|| RingCache {
            ring_cache: (0..RING_SHARDS)
                .map(|_| {
                    OrderedMutex::new(
                        lock_rank::CACHE_STRIPE,
                        "middleware.ring_cache",
                        LruCache::new(capacity.div_ceil(RING_SHARDS)),
                    )
                })
                .collect(),
            cached_ms: OrderedMutex::new(lock_rank::LEAF, "middleware.cached_ms", FdMap::default()),
            hits: metrics.counter(RING_CACHE_HITS),
            misses: metrics.counter(RING_CACHE_MISSES),
            gets_saved: metrics.counter(GETS_SAVED),
            refetch_unchanged: metrics.counter(RING_REFETCH_UNCHANGED),
        })
    }

    /// The stripe holding `key`.
    fn ring_shard(&self, key: &FdKey) -> &OrderedMutex<LruCache<FdKey, CachedRing, WordBuild>> {
        &self.ring_cache[key.hash as usize % RING_SHARDS]
    }
}

/// Full-path resolve cache: hash of `(account, path)` → [`PathEntry`],
/// striped by that hash. It requires the ring cache: the epoch
/// fingerprints assume ring freshness is driven by write-through and
/// gossip, exactly the ring cache's contract.
pub(super) struct PathCache {
    path_cache: Vec<OrderedMutex<LruCache<u64, PathEntry, WordBuild>>>,
    /// Per-namespace mutation epochs backing the fingerprints. Bumped after
    /// *every* mutation of this middleware's joined view of a ring —
    /// global-cache store (written, or fetched unless the fetch brought
    /// back the copy the cache last held), local-overlay patch fold, gossip
    /// application, GC floor/forget/invalidate. Keyed by namespace alone:
    /// non-root namespaces are globally unique UUIDs, and the shared `ROOT`
    /// id merely makes a bump in one account invalidate other accounts'
    /// root-anchored entries too — over-invalidation, never staleness.
    /// Entries are never evicted (one u64 per touched namespace), so a
    /// fingerprint can always be checked in O(1).
    ns_epochs: OrderedRwLock<HashMap<NamespaceId, u64, WordBuild>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    neg_hits: Arc<Counter>,
    /// Which answers it keeps: positive ([`PathAnswer::Hit`]) and
    /// negative ([`PathAnswer::Missing`]) ones.
    positive: bool,
    negative: bool,
}

impl PathCache {
    /// The cache `cfg` asks for; `None` when it keeps no kind of answer
    /// or the ring cache is off.
    pub(super) fn new(cfg: &H2Config, metrics: &MetricsRegistry) -> Option<Self> {
        let capacity = cfg.cache_capacity;
        let (positive, negative) = (cfg.path_cache, cfg.neg_cache);
        (capacity > 0 && (positive || negative)).then(|| PathCache {
            path_cache: (0..PATH_SHARDS)
                .map(|_| {
                    OrderedMutex::new(
                        lock_rank::CACHE_STRIPE,
                        "middleware.path_cache",
                        LruCache::new((capacity * PATH_CACHE_FACTOR).div_ceil(PATH_SHARDS)),
                    )
                })
                .collect(),
            ns_epochs: OrderedRwLock::new(
                lock_rank::LEAF,
                "middleware.ns_epochs",
                HashMap::default(),
            ),
            hits: metrics.counter(PATH_CACHE_HITS),
            misses: metrics.counter(PATH_CACHE_MISSES),
            neg_hits: metrics.counter(NEG_CACHE_HITS),
            positive,
            negative,
        })
    }
}

impl H2Middleware {
    /// Cached copy of the global ring for `key`, if the cache is enabled
    /// and holds one. Counts hit/miss. A hit is a refcount bump.
    pub(super) fn cached_global(&self, key: &FdKey) -> Option<Arc<NameRing>> {
        let rc = self.rings.as_ref()?;
        let ring = rc
            .ring_shard(key)
            .lock()
            .get(key)
            .map(|entry| Arc::clone(&entry.ring));
        match &ring {
            Some(_) => {
                rc.hits.incr();
                rc.gets_saved.incr();
            }
            None => rc.misses.incr(),
        }
        ring
    }

    /// Store `ring` in the cache, stamped `ms` (`None`: the object was
    /// absent and reads as an empty ring). A ring this middleware has just
    /// `written` to the cloud replaces the entry unconditionally — the
    /// cloud object now IS this ring, even if its version went backwards
    /// (GC compaction can drop the newest tombstone). A ring obtained from
    /// a cloud *read* is guarded: a fetch that raced with a concurrent
    /// write-through must not replace the newer entry, so it only enters
    /// the cache if its version is at least the cached one.
    ///
    /// The epoch bumps unless a fetch brought back the copy the cache last
    /// held — evicted since, or still there. Write stamps are unique per
    /// write, so an equal stamp means identical bytes: nothing a path
    /// entry was built from has changed, and the entries under this ring
    /// outlive its eviction. A fetch that loses the guard bumps too: its
    /// caller builds a view from a copy that is not the cached one, and the
    /// entry it then stores must not validate.
    pub(super) fn cache_store(
        &self,
        key: &FdKey,
        ring: &Arc<NameRing>,
        ms: Option<u64>,
        written: bool,
    ) {
        let Some(rc) = &self.rings else {
            return;
        };
        let version = ring.version();
        let unchanged = {
            let mut cache = rc.ring_shard(key).lock();
            if !written && cache.peek(key).is_some_and(|e| version < e.version) {
                false
            } else {
                cache.insert(
                    key.clone(),
                    CachedRing {
                        version,
                        ring: Arc::clone(ring),
                    },
                );
                let mut stamps = rc.cached_ms.lock();
                let same = !written && ms.is_some() && stamps.get(key).copied() == ms;
                match ms {
                    Some(ms) => stamps.insert(key.clone(), ms),
                    None => stamps.remove(key),
                };
                same
            }
        };
        if unchanged {
            rc.refetch_unchanged.incr();
        } else {
            self.bump_ns_epoch(key.ns);
        }
    }

    /// Drop the cached copy of `key`, if any, and bump its epoch.
    pub(super) fn drop_cached(&self, key: &FdKey) {
        if let Some(rc) = &self.rings {
            let mut cache = rc.ring_shard(key).lock();
            cache.remove(key);
            rc.cached_ms.lock().remove(key);
        }
        self.bump_ns_epoch(key.ns);
    }

    /// Every ring the NameRing cache holds.
    pub(super) fn cached_rings(&self) -> Vec<FdKey> {
        let Some(rc) = &self.rings else {
            return Vec::new();
        };
        rc.ring_cache
            .iter()
            .flat_map(|shard| shard.lock().keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// NameRing-cache `(hits, misses)` so far (zeros when disabled).
    pub fn ring_cache_stats(&self) -> (u64, u64) {
        self.rings
            .as_ref()
            .map_or((0, 0), |rc| (rc.hits.get(), rc.misses.get()))
    }

    /// Current mutation epoch of `ns` on this middleware (0 if never
    /// bumped, or without a path cache). `PathCache::ns_epochs` says what
    /// counts as a mutation.
    pub fn ns_epoch(&self, ns: NamespaceId) -> u64 {
        let Some(pc) = &self.paths else {
            return 0;
        };
        pc.ns_epochs.read().get(&ns).copied().unwrap_or(0)
    }

    /// Bump `ns`'s epoch. Called *after* the mutation is visible, so a
    /// fingerprint captured before a concurrent mutation's data is always
    /// invalidated by its bump (the conservative direction — a racing
    /// reader can over-invalidate, never validate stale data).
    pub(super) fn bump_ns_epoch(&self, ns: NamespaceId) {
        if let Some(pc) = &self.paths {
            *pc.ns_epochs.write().entry(ns).or_insert(0) += 1;
        }
    }

    /// Whether this middleware keeps a full-path cache (of positive
    /// answers, negative ones, or both).
    pub fn path_cache_active(&self) -> bool {
        self.paths.is_some()
    }

    /// Hash of `(account, path)`: picks the path-cache stripe and keys the
    /// entry inside it.
    fn path_hash(keys: &H2Keys, path: &str) -> u64 {
        hash64(path.as_bytes()) ^ keys.account_hash()
    }

    /// The cached resolution of `path` under `keys`' account, with the
    /// entry's fingerprint so the resolve of a child can extend it by one
    /// level instead of re-walking. The fingerprint is validated against
    /// the current namespace epochs; a mismatched entry is dropped on the
    /// spot (lazy invalidation) and reported as a miss.
    pub fn path_cache_lookup(
        &self,
        keys: &H2Keys,
        path: &str,
    ) -> Option<(PathAnswer, Fingerprint)> {
        let pc = self.paths.as_ref()?;
        let hash = Self::path_hash(keys, path);
        let mut cache = pc.path_cache[hash as usize % PATH_SHARDS].lock();
        // `Err(stale)`: nothing usable; `stale` when the entry is this
        // path's own but an ancestor ring has moved on since.
        let found = match cache.get(&hash) {
            Some(entry) if *entry.path == *path && *entry.account == *keys.account() => {
                // Epoch map is the innermost lock in this crate: it is only
                // ever taken as a leaf, so holding the path stripe across
                // it is safe.
                let epochs = pc.ns_epochs.read();
                let valid = entry
                    .fp
                    .iter()
                    .all(|(ns, e)| epochs.get(ns).copied().unwrap_or(0) == *e);
                if valid {
                    Ok((entry.answer, Arc::clone(&entry.fp)))
                } else {
                    Err(true)
                }
            }
            _ => Err(false),
        };
        match found {
            Ok(hit) => {
                drop(cache);
                pc.hits.incr();
                if matches!(hit.0, PathAnswer::Missing) {
                    pc.neg_hits.incr();
                }
                Some(hit)
            }
            Err(stale) => {
                if stale {
                    cache.remove(&hash);
                }
                drop(cache);
                pc.misses.incr();
                None
            }
        }
    }

    /// Store a resolve outcome for `path`. Positive answers are kept only
    /// when the path cache keeps them, negative ones likewise — the store
    /// is a no-op otherwise, so resolve can call it unconditionally.
    pub fn path_cache_store(&self, keys: &H2Keys, path: &str, answer: PathAnswer, fp: Fingerprint) {
        let Some(pc) = &self.paths else {
            return;
        };
        let keep = match answer {
            PathAnswer::Hit { .. } => pc.positive,
            PathAnswer::Missing => pc.negative,
        };
        if !keep {
            return;
        }
        let hash = Self::path_hash(keys, path);
        let entry = PathEntry {
            account: Arc::clone(keys.account_shared()),
            path: path.into(),
            fp,
            answer,
        };
        pc.path_cache[hash as usize % PATH_SHARDS]
            .lock()
            .insert(hash, entry);
    }

    /// Charge the cost of one full-path cache probe (hash lookup plus
    /// fingerprint validation).
    pub fn charge_path_probe(&self, ctx: &mut OpCtx) {
        ctx.charge_time(self.store.cost_model().path_cache_cpu);
    }
}
