//! The two read-path caches: the NameRing cache, whose copies and stamps
//! sit in the ring records, and the full-path resolve cache, whose entries
//! the records' epochs validate. A disabled cache registers no counter.

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

/// One ring's mark in a fingerprint: the epoch its record held when a
/// resolve read the ring, and the record's epoch itself, to re-read.
#[derive(Debug, Clone, Default)]
pub struct EpochMark {
    /// The record's epoch; `None`: the ring had no record.
    cell: Option<Arc<AtomicU64>>,
    seen: u64,
}

impl EpochMark {
    /// Whether the ring's record is still at the epoch this mark saw. An
    /// epoch never takes a value twice and a removed record's reads 0, so a
    /// mark that holds now held throughout: checking a fingerprint's marks
    /// one by one, without a lock, is as good as at once.
    pub(super) fn holds(&self) -> bool {
        let current = self.cell.as_ref().map(|cell| cell.load(Ordering::Acquire));
        self.seen != 0 && current == Some(self.seen)
    }
}

/// The epoch fingerprint of a resolve: the [`EpochMark`] of every ring it
/// consulted, root first. Shared, because a hit on a directory hands it to
/// the resolve of a child, which extends it by one ring.
pub type Fingerprint = Arc<[EpochMark]>;

/// One full-path cache entry: the answer plus the epoch fingerprint of
/// every ring consulted to produce it, valid exactly while every mark
/// holds (checked lazily at probe time). The cache is keyed by the 64-bit
/// hash of `(account, path)`; the entry keeps both so a probe can tell its
/// own path from one that merely shares the hash.
struct PathEntry {
    account: Arc<str>,
    path: Box<str>,
    fp: Fingerprint,
    answer: PathAnswer,
}

/// The NameRing cache's counters. The cache keeps parsed *global* rings in
/// the ring records for the resolve path, fresh by write-through and
/// gossip; `fetch_to_cache` never consults it (ring cycles must see the
/// cloud's current object).
pub(super) struct RingCache {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    /// NameRing GETs that the cache absorbed (one per hit).
    gets_saved: Arc<Counter>,
    /// See [`RING_REFETCH_UNCHANGED`].
    refetch_unchanged: Arc<Counter>,
}

impl RingCache {
    /// `None` when `capacity` is 0.
    pub(super) fn new(capacity: usize, metrics: &MetricsRegistry) -> Option<Self> {
        (capacity > 0).then(|| RingCache {
            hits: metrics.counter(RING_CACHE_HITS),
            misses: metrics.counter(RING_CACHE_MISSES),
            gets_saved: metrics.counter(GETS_SAVED),
            refetch_unchanged: metrics.counter(RING_REFETCH_UNCHANGED),
        })
    }
}

/// Full-path resolve cache: hash of `(account, path)` → [`PathEntry`],
/// striped by that hash. It requires the ring cache: the epoch
/// fingerprints assume ring freshness is driven by write-through and
/// gossip, exactly the ring cache's contract.
pub(super) struct PathCache {
    path_cache: Vec<OrderedMutex<LruCache<u64, PathEntry, WordBuild>>>,
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
            hits: metrics.counter(PATH_CACHE_HITS),
            misses: metrics.counter(PATH_CACHE_MISSES),
            neg_hits: metrics.counter(NEG_CACHE_HITS),
            positive,
            negative,
        })
    }
}

impl H2Middleware {
    /// What a read needs of `key`'s record, in one look: its epoch mark,
    /// the NameRing cache's copy (a counted hit marks it most recently
    /// used) and the descriptor's local version.
    pub(super) fn read_record(
        &self,
        key: &FdKey,
    ) -> (EpochMark, Option<Arc<NameRing>>, Option<Arc<NameRing>>) {
        let read = {
            let mut shard = self.ring_shard(key).lock();
            let RingShard { records, lru, .. } = &mut *shard;
            records.get(key).map_or(Default::default(), |record| {
                if record.copy.is_some() {
                    lru.get(key);
                }
                let mark = EpochMark {
                    seen: record.epoch.load(Ordering::Acquire),
                    cell: Some(Arc::clone(&record.epoch)),
                };
                let local = record.fd.as_ref().map(|fd| Arc::clone(&fd.local));
                (mark, record.copy.clone(), local)
            })
        };
        if let Some(rc) = &self.cache {
            if read.1.is_some() {
                rc.hits.incr();
                rc.gets_saved.incr();
            } else {
                rc.misses.incr();
            }
        }
        read
    }

    /// Store `ring` in the cache, stamped `ms` (`None`: the object was
    /// absent). A ring this middleware has just `written` replaces the copy
    /// unconditionally. A *fetched* ring enters only if its write stamp is
    /// at least the cached copy's, so a fetch that raced a write-through
    /// cannot replace the newer copy; stamps only grow, even where GC
    /// compaction drops a ring's newest tuple.
    ///
    /// The epoch bumps unless a fetch brought back the copy the cache last
    /// held, evicted since or not: an equal stamp means identical bytes, so
    /// the path entries under the ring outlive its eviction. A fetch that
    /// loses the guard bumps too: its caller's view is not the cached copy.
    pub(super) fn cache_store(
        &self,
        key: &FdKey,
        ring: &Arc<NameRing>,
        ms: Option<u64>,
        written: bool,
    ) {
        let Some(rc) = &self.cache else {
            return;
        };
        let unchanged = {
            let mut shard = self.ring_shard(key).lock();
            let record = shard.records.entry(key.clone()).or_default();
            let held = record.stamp;
            // `None` (an absent object) orders below every stamp.
            let enters = written || record.copy.is_none() || ms >= held;
            let unchanged = enters && !written && ms.is_some() && held == ms;
            if enters {
                record.copy = Some(Arc::clone(ring));
                record.stamp = ms;
            }
            if !unchanged {
                bump(&record.epoch);
            }
            if enters {
                // The LRU victim, if the stripe is full, loses its copy.
                if let Some((victim, ())) = shard.lru.insert(key.clone(), ()) {
                    if let Some(record) = shard.records.get_mut(&victim) {
                        record.copy = None;
                    }
                }
            }
            unchanged
        };
        if unchanged {
            rc.refetch_unchanged.incr();
        }
    }

    /// NameRing-cache `(hits, misses)` so far (zeros when disabled).
    pub fn ring_cache_stats(&self) -> (u64, u64) {
        self.cache
            .as_ref()
            .map_or((0, 0), |rc| (rc.hits.get(), rc.misses.get()))
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
    /// level instead of re-walking. An entry whose fingerprint no longer
    /// holds is dropped on the spot and reported as a miss.
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
                let valid = entry.fp.iter().all(EpochMark::holds);
                valid
                    .then(|| (entry.answer, Arc::clone(&entry.fp)))
                    .ok_or(true)
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
