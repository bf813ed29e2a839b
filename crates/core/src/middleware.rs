//! The H2Middleware (§4.2): H2 Lookup, NameRing Maintenance, Gossip.
//!
//! Each middleware wraps the object cloud the way a Swift proxy server is
//! wrapped in the paper's deployment. It holds:
//!
//! * the **File Descriptor Cache** — one descriptor per NameRing this node
//!   has touched, tracking the node's local (possibly not yet globally
//!   merged) version of the ring and the chain of submitted-but-unmerged
//!   patches (§3.3.2 phase 2, step 1);
//! * the **Background Merger** — merges a node's patch chain into one "big"
//!   patch and folds it into the NameRing object in the cloud;
//! * the **Gossip Arrangement** — emits `(N_i, H_j, t_k)` update
//!   notifications to peer middlewares and applies incoming ones, aborting
//!   forwarding when the local version is already at least as new
//!   (§3.3.2's loop-back avoidance).
//!
//! Maintenance runs in one of two modes:
//!
//! * [`MaintenanceMode::Eager`] — patches merge synchronously inside the
//!   submitting operation (deterministic; what the figure harness uses; the
//!   merge cost is visible in the operation time, which is why H2Cloud's
//!   MKDIR is slower than Swift's in Figure 12);
//! * [`MaintenanceMode::Deferred`] — patches accumulate per descriptor and
//!   merge when [`H2Middleware::step_merges`] (or the layer's pump/threads)
//!   runs, the paper's actual asynchronous protocol.

use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use h2util::chunker::{self, ChunkParams};
use h2util::hash::{hash128, Digest128};
use h2util::hash64;
use h2util::id::NamespaceAllocator;
use h2util::metrics::{Counter, MetricsRegistry};
use h2util::trace::{TraceCollector, STAGE_GOSSIP, STAGE_MERGE, STAGE_MW, STAGE_RESOLVE};
use h2util::{
    H2Error, HybridClock, LruCache, NamespaceId, NodeId, OpCtx, Result, RetryPolicy, Timestamp,
    WordBuild,
};
use swiftsim::{Cluster, Meta, Object, ObjectKey, ObjectStore, Payload};

use crate::formatter;
use crate::keys::{DirDescriptor, H2Keys};
use crate::namering::{NameRing, RingView};

/// Counter name for merge cycles that failed and were left for retry
/// (chain restored). Incremented by [`H2Middleware::step_merges`].
pub const MERGE_FAILURES: &str = "merge_failures";

/// Counter name for global-ring GETs actually issued against the cloud
/// (cache hits and group-commit coalescing both avoid these).
pub const RING_FETCHES: &str = "ring_fetches";

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

/// `content-type` meta of a whole-object file: the file's bytes are the
/// object at its content key, whatever their size.
pub const CONTENT_TYPE_FILE: &str = "h2/file";

/// `content-type` meta of a CAS manifest stored at a file's content key
/// (the blocks live under the cluster's reserved `::cas/blk` namespace).
pub const CONTENT_TYPE_CAS: &str = "h2/cas";

/// Fan-out of the CAS block tree: a manifest or branch block points at up
/// to this many children before another branch level is introduced.
/// Venti-style: 128 pointers ≈ 6 KiB of ASCII per branch, and two levels
/// already cover 128² × 1 MiB ≈ 16 TiB files.
pub const CAS_FANOUT: usize = 128;

/// Meta key on a CAS manifest carrying the file's logical byte size, so one
/// HEAD answers STAT without fetching the manifest.
pub const META_LOGICAL_BYTES: &str = "h2-logical-bytes";

/// When patches are merged into their NameRings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Merge at submission time, inside the client operation.
    Eager,
    /// Merge when the background merger runs (`step_merges` / layer pump).
    Deferred,
}

/// A `(N_i, H_j, t_k)` gossip tuple: "the local version of NameRing `ns` in
/// node `from` has been updated at `version`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipMsg {
    pub account: String,
    pub ns: NamespaceId,
    pub from: NodeId,
    pub version: Timestamp,
}

/// The patch chain: patch numbers submitted but not yet merged, with an
/// O(1) membership index.
///
/// Acking a patch used to run `pending.retain(|&no| no != patch_no)` — a
/// linear scan under the descriptor lock, O(chain) per acked patch and
/// O(chain²) across a deep chain. The index makes removal a swap-remove
/// plus one index fix-up. Physical order in `order` is *not* submission
/// order after a removal; [`PatchChain::take`] sorts on drain, and patch
/// numbers are allocated monotonically, so merge cycles still walk the
/// chain in submission order — order is preserved everywhere it is
/// observable (the merge itself is a commutative CRDT join regardless).
#[derive(Debug, Default)]
struct PatchChain {
    order: Vec<u32>,
    pos: HashMap<u32, usize>,
}

impl PatchChain {
    fn push(&mut self, no: u32) {
        if self.pos.contains_key(&no) {
            return;
        }
        self.pos.insert(no, self.order.len());
        self.order.push(no);
    }

    /// O(1) removal: swap-remove and re-point the moved element's index.
    fn remove(&mut self, no: u32) {
        if let Some(idx) = self.pos.remove(&no) {
            self.order.swap_remove(idx);
            if let Some(&moved) = self.order.get(idx) {
                self.pos.insert(moved, idx);
            }
        }
    }

    fn contains(&self, no: u32) -> bool {
        self.pos.contains_key(&no)
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Drain the chain in submission order (patch numbers are monotone).
    fn take(&mut self) -> Vec<u32> {
        self.pos.clear();
        let mut chain = std::mem::take(&mut self.order);
        chain.sort_unstable();
        chain
    }

    /// Re-chain numbers after a failed merge cycle (order is restored by
    /// the sort in `take`, so a plain re-insert suffices).
    fn restore(&mut self, chain: &[u32]) {
        for &no in chain {
            self.push(no);
        }
    }
}

/// What one Background Merger sweep accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Rings whose chains merged into the cloud this sweep.
    pub applied: usize,
    /// Rings whose merge cycle failed (chain restored for retry; also
    /// counted in the [`MERGE_FAILURES`] metric).
    pub failed: usize,
}

impl MergeOutcome {
    /// Total rings attempted this sweep.
    pub fn attempted(&self) -> usize {
        self.applied + self.failed
    }
}

/// Per-NameRing state in the File Descriptor Cache.
#[derive(Debug, Default)]
struct FileDescriptor {
    /// This node's local version of the ring (its own submitted patches are
    /// always folded in, giving read-your-writes on this middleware).
    /// `Arc`-backed so the resolve path can snapshot it without cloning the
    /// tuple map; writers go through `Arc::make_mut`.
    local: Arc<NameRing>,
    /// Patch numbers submitted but not yet merged (the patch chain,
    /// starting at 0 like the paper's "patch No. 0").
    pending: PatchChain,
    /// Next patch number to hand out.
    next_patch: u32,
}

/// Key of a per-(account, namespace) entry. It shares the account name
/// with the [`H2Keys`] it was minted from and carries its hash — the
/// account's XXH64, which `H2Keys` computed once for the whole operation,
/// folded with the namespace's words — so minting one allocates nothing and
/// no map hashes the account text per probe. The same hash picks the
/// ring-cache stripe.
#[derive(Debug, Clone)]
struct FdKey {
    hash: u64,
    account: Arc<str>,
    ns: NamespaceId,
}

impl FdKey {
    fn new(keys: &H2Keys, ns: NamespaceId) -> Self {
        let hash = keys.account_hash()
            ^ ns.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((ns.node.0 as u64) << 48)
            ^ ns.millis;
        FdKey {
            hash,
            account: Arc::clone(keys.account_shared()),
            ns,
        }
    }

    /// For callers that hold an account name rather than a key factory
    /// (GC notifications, gossip): allocates the shared name.
    fn of(account: &str, ns: NamespaceId) -> Self {
        FdKey::new(&H2Keys::new(account), ns)
    }
}

impl PartialEq for FdKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.ns == other.ns && self.account == other.account
    }
}

impl Eq for FdKey {}

impl std::hash::Hash for FdKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A map from ring keys that never re-hashes the account text.
type FdMap<V> = HashMap<FdKey, V, WordBuild>;

/// What this middleware remembers about the stored copies of one ring it
/// has handled: write stamps ([`Object::modified_ms`]), unique per write
/// across the cluster.
#[derive(Debug, Default, Clone, Copy)]
struct RingStamps {
    /// Stamp of this middleware's last PUT of the ring — the freshness
    /// floor handed to [`Cluster::get_expecting`] on the read path, proving
    /// a handoff scan redundant when the best assigned replica already
    /// carries at least this node's own last write.
    put_ms: Option<u64>,
    /// Stamp of the copy that last entered the ring cache (`None` once it
    /// was dropped, or when an absent object was cached as an empty ring).
    /// A refetch that brings back the same stamp brought back the same
    /// bytes, so it is no mutation: see
    /// [`H2Middleware::cache_store_fetched`].
    cached_ms: Option<u64>,
}

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

/// A full-path resolve-cache answer (tentpole of the read-path overhaul):
/// what one O(1) probe replaces the O(d) NameRing walk with.
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

/// Hit/miss accounting for the full-path cache.
struct PathCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    neg_hits: Arc<Counter>,
}

/// The outcome one group-commit waiter receives: the shared batch result
/// plus the virtual time the leader spent on the batch (charged to each
/// waiter's context — every submitter waited out the same PUT).
#[derive(Debug, Clone)]
struct CommitResult {
    outcome: Result<()>,
    cost: std::time::Duration,
}

/// Per-ring group-commit coordination point. Arrivals enqueue their patch;
/// whoever finds the queue idle becomes the commit leader, drains the
/// batch, performs one combined submission, posts per-ticket results and
/// wakes the waiters parked on `cv`.
#[derive(Default)]
struct CommitQueue {
    state: Mutex<CommitState>,
    cv: Condvar,
}

#[derive(Default)]
struct CommitState {
    /// True while a leader is processing; arrivals during that window park.
    busy: bool,
    /// Waiting patches, tagged with their wake-up tickets.
    batch: Vec<(u64, NameRing)>,
    /// Finished results, keyed by ticket, awaiting pickup.
    results: HashMap<u64, CommitResult>,
    next_ticket: u64,
}

/// Hit/miss accounting for the NameRing cache, shared with the owning
/// registry so `op=metrics` and the benches can read it.
struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    /// NameRing GETs that the cache absorbed (one per hit — kept as its own
    /// counter so dashboards don't have to know that equivalence).
    gets_saved: Arc<Counter>,
    /// See [`RING_REFETCH_UNCHANGED`].
    refetch_unchanged: Arc<Counter>,
}

/// One H2Middleware instance.
pub struct H2Middleware {
    node: NodeId,
    store: Arc<Cluster>,
    mode: MaintenanceMode,
    clock: HybridClock,
    ns_alloc: NamespaceAllocator,
    metrics: Arc<MetricsRegistry>,
    /// Version-stamped cache of parsed *global* rings (no local overlay),
    /// consulted by [`read_ring`](Self::read_ring) — the O(d) resolve hot
    /// path. Kept fresh by write-through in `put_global_ring` and refresh
    /// on gossip; never consulted by `fetch_global_ring`, which must see
    /// the cloud's current object (merge cycles and gossip handling depend
    /// on that). Capacity 0 disables it. Striped by ring key
    /// ([`RING_SHARDS`]); each stripe is an independent LRU over an even
    /// share of the capacity.
    ring_cache: Vec<Mutex<LruCache<FdKey, CachedRing, WordBuild>>>,
    /// `Some` iff the cache is enabled (counters are only registered then,
    /// so disabled instances keep their metrics output clean).
    cache_counters: Option<CacheCounters>,
    /// Full-path resolve cache: hash of `(account, path)` → [`PathEntry`],
    /// striped by that hash. Empty (no stripes) when disabled — positive entries need
    /// `path_cache_on`, negative entries `neg_cache_on`, and both require
    /// the ring cache to be enabled (the epoch fingerprints assume ring
    /// freshness is driven by write-through and gossip, exactly the ring
    /// cache's contract).
    path_cache: Vec<Mutex<LruCache<u64, PathEntry, WordBuild>>>,
    path_counters: Option<PathCounters>,
    path_cache_on: bool,
    neg_cache_on: bool,
    /// Per-namespace mutation epochs backing the path-cache fingerprints.
    /// Bumped after *every* mutation of this middleware's joined view of a
    /// ring — global-cache store (written, or fetched unless the fetch
    /// brought back the copy the cache last held), local-overlay patch
    /// fold, gossip application, GC floor/forget/invalidate. Keyed by
    /// namespace alone: non-root namespaces are globally unique UUIDs, and
    /// the shared `ROOT` id merely makes a bump in one account invalidate
    /// other accounts' root-anchored entries too — over-invalidation,
    /// never staleness. Entries are never evicted (one u64 per touched
    /// namespace), so a fingerprint can always be checked in O(1).
    ns_epochs: RwLock<HashMap<NamespaceId, u64, WordBuild>>,
    /// Per-ring write stamps (see [`RingStamps`]). A leaf lock: taken
    /// alone, or innermost under a ring-cache stripe so the cached copy
    /// and the stamp remembered for it change together.
    ring_stamps: Mutex<FdMap<RingStamps>>,
    fds: Mutex<FdMap<FileDescriptor>>,
    /// Per-ring merge serialisation: a merge cycle is a read-modify-write
    /// of the ring object, so two concurrent cycles for the same ring on
    /// this node could overwrite each other. (Cycles on *different* nodes
    /// are reconciled by gossip, by design.)
    merge_locks: Mutex<FdMap<Arc<Mutex<()>>>>,
    /// When true, concurrent `submit_patch` calls against the same ring
    /// coalesce behind a per-ring commit leader (one combined patch PUT per
    /// batch) instead of each issuing their own PUT.
    group_commit: bool,
    /// Per-ring group-commit queues (populated lazily, like `merge_locks`).
    commit_queues: Mutex<FdMap<Arc<CommitQueue>>>,
    /// Write-generation counter for CAS manifest stamps; combined with the
    /// node id so generations are unique across middlewares.
    part_stamp: std::sync::atomic::AtomicU64,
    /// When true, file content is stored through the content-addressed
    /// block plane (chunk → dedup'd leaf blocks → branch tree → manifest)
    /// instead of as one whole object per file.
    cas: bool,
    /// Global-ring GETs actually issued (see [`RING_FETCHES`]).
    ring_fetches: Arc<Counter>,
    /// Merge cycles that failed and were restored for retry.
    merge_failures: Arc<Counter>,
    /// Backoff schedule for transient cloud failures (`Unavailable` /
    /// `Conflict`) on the middleware's own cloud ops — ring reads/writes,
    /// patch submission, descriptor I/O. Seeded per node so independent
    /// middlewares draw decorrelated jitter, yet replays are identical.
    retry: RetryPolicy,
    /// Bounded ring buffer of sampled operation traces served by `op=trace`;
    /// a disabled collector (the default) keeps the span machinery inert.
    tracer: Arc<TraceCollector>,
    outbox: Mutex<Vec<GossipMsg>>,
    /// Virtual time + op counts spent on background maintenance (merges and
    /// gossip handling in Deferred mode) — the ablation benches report it.
    background: Mutex<(std::time::Duration, h2util::BackendCounts)>,
}

impl H2Middleware {
    /// Plain middleware: private metrics registry, NameRing cache disabled.
    pub fn new(node: NodeId, store: Arc<Cluster>, mode: MaintenanceMode) -> Arc<Self> {
        Self::with_cache(node, store, mode, Arc::new(MetricsRegistry::new()), 0)
    }

    /// Middleware reporting into a shared `metrics` registry, with a
    /// NameRing cache of `cache_capacity` parsed rings (0 disables it).
    pub fn with_cache(
        node: NodeId,
        store: Arc<Cluster>,
        mode: MaintenanceMode,
        metrics: Arc<MetricsRegistry>,
        cache_capacity: usize,
    ) -> Arc<Self> {
        Self::with_observability(
            node,
            store,
            mode,
            metrics,
            cache_capacity,
            Arc::new(TraceCollector::disabled()),
            false,
            false,
            false,
            false,
        )
    }

    /// Full constructor: like [`with_cache`](Self::with_cache), plus a span
    /// collector for sampled operation traces, the group-commit switch,
    /// the read-path switches (full-path resolve cache / negative-entry
    /// cache — both also require `cache_capacity > 0`), and the CAS
    /// content-plane switch.
    #[allow(clippy::too_many_arguments)]
    pub fn with_observability(
        node: NodeId,
        store: Arc<Cluster>,
        mode: MaintenanceMode,
        metrics: Arc<MetricsRegistry>,
        cache_capacity: usize,
        tracer: Arc<TraceCollector>,
        group_commit: bool,
        path_cache: bool,
        neg_cache: bool,
        cas: bool,
    ) -> Arc<Self> {
        assert!(
            node.0 > 0,
            "middleware node ids are 1-based (0 is reserved)"
        );
        let cache_counters = (cache_capacity > 0).then(|| CacheCounters {
            hits: metrics.counter(RING_CACHE_HITS),
            misses: metrics.counter(RING_CACHE_MISSES),
            gets_saved: metrics.counter(GETS_SAVED),
            refetch_unchanged: metrics.counter(RING_REFETCH_UNCHANGED),
        });
        let path_cache_on = path_cache && cache_capacity > 0;
        let neg_cache_on = neg_cache && cache_capacity > 0;
        let path_counters = (path_cache_on || neg_cache_on).then(|| PathCounters {
            hits: metrics.counter(PATH_CACHE_HITS),
            misses: metrics.counter(PATH_CACHE_MISSES),
            neg_hits: metrics.counter(NEG_CACHE_HITS),
        });
        let path_stripes = if path_counters.is_some() {
            let per_stripe = (cache_capacity * PATH_CACHE_FACTOR).div_ceil(PATH_SHARDS);
            (0..PATH_SHARDS)
                .map(|_| Mutex::new(LruCache::new(per_stripe)))
                .collect()
        } else {
            Vec::new()
        };
        let ring_fetches = metrics.counter(RING_FETCHES);
        let merge_failures = metrics.counter(MERGE_FAILURES);
        Arc::new(H2Middleware {
            node,
            clock: HybridClock::new(node, 1_600_000_000_000),
            ns_alloc: NamespaceAllocator::new(node),
            store,
            mode,
            metrics,
            ring_cache: (0..RING_SHARDS)
                .map(|_| Mutex::new(LruCache::new(cache_capacity.div_ceil(RING_SHARDS))))
                .collect(),
            cache_counters,
            path_cache: path_stripes,
            path_counters,
            path_cache_on,
            neg_cache_on,
            ns_epochs: RwLock::new(HashMap::default()),
            ring_stamps: Mutex::new(FdMap::default()),
            fds: Mutex::new(FdMap::default()),
            merge_locks: Mutex::new(FdMap::default()),
            group_commit,
            commit_queues: Mutex::new(FdMap::default()),
            part_stamp: std::sync::atomic::AtomicU64::new(0),
            cas,
            ring_fetches,
            merge_failures,
            retry: RetryPolicy::new(0x4852_5452 ^ node.0 as u64),
            tracer,
            outbox: Mutex::new(Vec::new()),
            background: Mutex::new(Default::default()),
        })
    }

    /// The metrics registry this middleware reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn mode(&self) -> MaintenanceMode {
        self.mode
    }

    pub fn store(&self) -> &Arc<Cluster> {
        &self.store
    }

    /// Next hybrid timestamp from this middleware's clock.
    pub fn tick(&self) -> Timestamp {
        self.clock.tick()
    }

    /// Allocate a fresh namespace UUID (`seq.node.millis`).
    pub fn allocate_namespace(&self) -> NamespaceId {
        self.ns_alloc.allocate(self.clock.peek().millis)
    }

    /// Total background maintenance spend so far.
    pub fn background_spend(&self) -> (std::time::Duration, h2util::BackendCounts) {
        *self.background.lock()
    }

    /// The retry policy this middleware applies to its own cloud ops.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The span collector holding this middleware's sampled traces.
    pub fn tracer(&self) -> &Arc<TraceCollector> {
        &self.tracer
    }

    /// Run a cloud operation under this middleware's retry policy, charging
    /// backoff as virtual latency and recording `op_retries` / `op_gave_up`
    /// in the middleware's registry. The fs layer routes content-object I/O
    /// through here so file data gets the same availability treatment as
    /// metadata.
    pub fn with_retry<T, F>(&self, ctx: &mut OpCtx, op: &str, f: F) -> Result<T>
    where
        F: FnMut(&mut OpCtx) -> Result<T>,
    {
        ctx.span(STAGE_MW, op, |ctx| {
            self.retry.run_virtual(ctx, Some(&self.metrics), op, f)
        })
    }

    fn absorb_background(&self, ctx: &OpCtx) {
        let mut bg = self.background.lock();
        bg.0 += ctx.elapsed();
        bg.1.add(&ctx.counts());
    }

    // ----- content I/O (two planes) ----------------------------------------
    //
    // `H2Config::cas` selects the plane for everything this middleware
    // writes. Off (the paper profile): a file is one object at its child
    // key, every size — one PUT, one GET, one DELETE, one server-side COPY.
    // On: the block plane below. Reads dispatch on the stored object's
    // `content-type`, so either middleware reads what the other wrote.

    /// Stamp for a CAS manifest: unique per (middleware, write), so a
    /// retried torn manifest PUT is told apart from an identical overwrite.
    fn next_part_stamp(&self) -> u64 {
        let n = self
            .part_stamp
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (n << 8) | (self.node.0 as u64 & 0xff)
    }

    /// Built once per process: every plain file object shares this map.
    fn file_meta() -> Meta {
        static META: OnceLock<Meta> = OnceLock::new();
        META.get_or_init(|| Meta::from([("content-type".into(), CONTENT_TYPE_FILE.into())]))
            .clone()
    }

    /// As [`Self::file_meta`], for directory descriptors.
    fn dir_meta() -> Meta {
        static META: OnceLock<Meta> = OnceLock::new();
        META.get_or_init(|| Meta::from([("content-type".into(), "h2/dir".into())]))
            .clone()
    }

    /// Store a file's content.
    pub fn put_content(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        name: &str,
        payload: Payload,
    ) -> Result<()> {
        let key = keys.child(ns, name);
        if self.cas {
            return self.cas_put(ctx, &key, payload);
        }
        self.with_retry(ctx, "put_content", |ctx| {
            self.store
                .put(ctx, &key, payload.clone(), Self::file_meta())
        })
    }

    /// Fetch a file's logical content: one GET for a whole-object file; a
    /// CAS file reads its manifest, then its block tree in bounded parallel
    /// waves.
    pub fn get_content(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        name: &str,
    ) -> Result<Payload> {
        let key = keys.child(ns, name);
        let obj = self.with_retry(ctx, "get_content", |ctx| self.store.get(ctx, &key))?;
        match obj.meta.get("content-type").map(String::as_str) {
            Some(CONTENT_TYPE_CAS) => {
                let s = obj.payload.as_str().ok_or_else(|| {
                    H2Error::Corrupt(format!("cas manifest {key} is not a string object"))
                })?;
                let m = formatter::cas_manifest_from_str(s)?;
                self.cas_get(ctx, &key, &m)
            }
            _ => Ok(obj.payload),
        }
    }

    /// Delete a file's content.
    pub fn delete_content(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        name: &str,
    ) -> Result<()> {
        let key = keys.child(ns, name);
        if self.cas {
            return self.cas_delete(ctx, &key);
        }
        self.with_retry(ctx, "delete_content", |ctx| self.store.delete(ctx, &key))
    }

    /// Server-side copy of a file's content: one COPY for a whole-object
    /// file; a CAS file shares its block tree with the copy.
    pub fn copy_content(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        src_ns: NamespaceId,
        src_name: &str,
        dst_ns: NamespaceId,
        dst_name: &str,
    ) -> Result<()> {
        let src = keys.child(src_ns, src_name);
        let dst = keys.child(dst_ns, dst_name);
        if self.cas {
            return self.cas_copy(ctx, &src, &dst);
        }
        self.store.copy(ctx, &src, &dst)
    }

    // ----- content I/O (content-addressed block plane) ---------------------
    //
    // With `cas` on, file content is chunked (FastCDC-style, ~1 MiB target
    // leaves), each chunk stored as an immutable refcounted block under the
    // cluster's reserved `::cas/blk` namespace, children grouped
    // [`CAS_FANOUT`] at a time into branch blocks, and a small manifest
    // written at the file's child key as the commit point (root list +
    // logical length, so STAT stays one HEAD). Identical chunks across
    // files and users collapse to the same block — a share costs one
    // HEAD-shaped refcount bump instead of a replicated write.
    //
    // Failure policy: block references are released only after a manifest
    // that held them was verifiably displaced or deleted. A failed upload
    // releases exactly the references it took; a failed *manifest* PUT
    // releases nothing (the write may have torn — replicas of the new
    // manifest can exist, so its blocks must stay pinned). Leaks are
    // bounded and unreachable; a readable file pointing at missing blocks
    // is impossible.

    /// Whether this middleware stores content through the CAS block plane.
    pub fn cas_active(&self) -> bool {
        self.cas
    }

    fn cas_meta(total: u64) -> Meta {
        let mut meta = Meta::new();
        meta.insert("content-type".into(), CONTENT_TYPE_CAS.into());
        meta.insert(META_LOGICAL_BYTES.into(), total.to_string());
        meta
    }

    /// Leaf chunks of `payload`: content-defined for real bytes, the
    /// digest-seeded schedule for simulated content.
    fn cas_chunks(params: &ChunkParams, payload: &Payload) -> Vec<chunker::Chunk> {
        match payload {
            Payload::Inline(b) => chunker::chunk_bytes(params, b),
            Payload::Simulated { size, digest } => chunker::chunk_simulated(params, *digest, *size),
        }
    }

    /// The block payload for one leaf chunk of `payload`.
    fn cas_leaf(payload: &Payload, c: &chunker::Chunk) -> Payload {
        match payload {
            // Zero-copy: each leaf is a view over the caller's buffer.
            Payload::Inline(b) => {
                Payload::Inline(b.slice(c.offset as usize..(c.offset + c.len) as usize))
            }
            Payload::Simulated { .. } => Payload::Simulated {
                size: c.len,
                digest: c.digest,
            },
        }
    }

    /// Store a file's content through the block plane.
    fn cas_put(&self, ctx: &mut OpCtx, key: &ObjectKey, payload: Payload) -> Result<()> {
        let params = ChunkParams::default();
        let total = payload.len();
        let chunks = Self::cas_chunks(&params, &payload);
        // 1. Leaves, one bounded parallel wave. Track which landed so a
        //    mid-wave failure releases exactly the references taken.
        let mut landed: Vec<bool> = vec![false; chunks.len()];
        if !chunks.is_empty() {
            let wave = ctx.parallel(chunks.len(), |ctx, i| {
                let c = &chunks[i];
                let leaf = Self::cas_leaf(&payload, c);
                self.with_retry(ctx, "cas_put_block", |ctx| {
                    self.store
                        .cas_put_block(ctx, &c.digest.to_hex(), leaf.clone(), Meta::new(), c.len)
                        .map(|_| ())
                })?;
                landed[i] = true;
                Ok(())
            });
            if let Err(e) = wave {
                let owned = chunks
                    .iter()
                    .zip(&landed)
                    .filter(|(_, ok)| **ok)
                    .map(|(c, _)| c.digest)
                    .collect();
                self.cas_release(ctx, owned);
                return Err(e);
            }
        }
        // 2. Branch levels until the root list fits one manifest.
        let mut level: Vec<(Digest128, u64)> = chunks.iter().map(|c| (c.digest, c.len)).collect();
        let mut depth = 0u32;
        while level.len() > CAS_FANOUT {
            let mut next: Vec<(Digest128, u64)> =
                Vec::with_capacity(level.len().div_ceil(CAS_FANOUT));
            for (g, group) in level.chunks(CAS_FANOUT).enumerate() {
                let body = formatter::cas_branch_to_string(group);
                let digest = hash128(body.as_bytes());
                let span: u64 = group.iter().map(|(_, l)| *l).sum();
                let put = self.with_retry(ctx, "cas_put_branch", |ctx| {
                    self.store.cas_put_block(
                        ctx,
                        &digest.to_hex(),
                        Payload::from_string(body.clone()),
                        Meta::new(),
                        span,
                    )
                });
                match put {
                    // Fresh branch: it takes over the references this
                    // upload held on its children; the upload now owns one
                    // reference to the branch instead.
                    Ok(true) => {}
                    Ok(false) => {
                        // The branch already existed and already owns
                        // references to exactly these children — drop the
                        // duplicates taken while writing them. The live
                        // branch pins every child, so nothing can cascade.
                        for (d, _) in group {
                            let _ = self.store.cas_decref(ctx, &d.to_hex());
                        }
                    }
                    Err(e) => {
                        // Release everything this upload still owns: the
                        // roots built so far plus the unconsumed tail.
                        let mut owned: Vec<Digest128> = next.iter().map(|(d, _)| *d).collect();
                        owned.extend(level[g * CAS_FANOUT..].iter().map(|(d, _)| *d));
                        self.cas_release(ctx, owned);
                        return Err(e);
                    }
                }
                next.push((digest, span));
            }
            level = next;
            depth += 1;
        }
        // 3. The manifest is the commit point.
        let m = formatter::CasManifest {
            stamp: self.next_part_stamp(),
            depth,
            inline: matches!(payload, Payload::Inline(_)),
            total,
            digest: payload.digest(),
            params,
            entries: level,
        };
        self.cas_commit_manifest(ctx, key, &m)
    }

    /// PUT `m` at `key` — the commit point of a CAS write or copy — and
    /// release the generation it displaced.
    ///
    /// On failure the new blocks stay pinned (see the failure policy
    /// above): the PUT may have torn, leaving readable replicas of the new
    /// manifest. The displaced generation is released unless it is this
    /// very body: then a retry displaced its own torn earlier attempt (same
    /// stamp), whose references the caller owns exactly once.
    fn cas_commit_manifest(
        &self,
        ctx: &mut OpCtx,
        key: &ObjectKey,
        m: &formatter::CasManifest,
    ) -> Result<()> {
        let body = formatter::cas_manifest_to_string(m);
        let prev = self.with_retry(ctx, "put_manifest", |ctx| {
            self.store.put_returning_prev(
                ctx,
                key,
                Payload::from_string(body.clone()),
                Self::cas_meta(m.total),
            )
        })?;
        if let Some(prev) = prev {
            if prev.payload.as_str() != Some(body.as_str()) {
                self.cas_release_manifest(ctx, &prev);
            }
        }
        Ok(())
    }

    /// Fetch and reassemble a CAS file. Every hop re-checks content
    /// addresses — the read path *is* the integrity check (fsck's file
    /// pass reads through here).
    fn cas_get(
        &self,
        ctx: &mut OpCtx,
        key: &ObjectKey,
        m: &formatter::CasManifest,
    ) -> Result<Payload> {
        // Descend branch levels to the leaf list.
        let mut entries = m.entries.clone();
        for _ in 0..m.depth {
            let n = entries.len();
            let mut fetched: Vec<Option<Vec<(Digest128, u64)>>> = vec![None; n];
            ctx.parallel(n, |ctx, i| {
                let (d, len) = entries[i];
                fetched[i] = Some(self.cas_fetch_branch(ctx, d, len)?);
                Ok(())
            })?;
            entries = fetched
                .into_iter()
                .flat_map(|c| c.expect("every branch fetched"))
                .collect();
        }
        let span: u64 = entries.iter().map(|(_, l)| *l).sum();
        if span != m.total {
            return Err(H2Error::Corrupt(format!(
                "cas file {key}: leaves cover {span} bytes, manifest says {}",
                m.total
            )));
        }
        // Leaves in one bounded parallel wave, each verified against its
        // content address.
        let n = entries.len();
        let mut leaves: Vec<Option<Payload>> = vec![None; n];
        ctx.parallel(n, |ctx, i| {
            let (d, len) = entries[i];
            leaves[i] = Some(self.cas_fetch_leaf(ctx, d, len, m.inline)?);
            Ok(())
        })?;
        if !m.inline {
            return Ok(Payload::Simulated {
                size: m.total,
                digest: m.digest,
            });
        }
        let mut out = Vec::with_capacity(m.total as usize);
        for p in leaves {
            match p.expect("every leaf fetched") {
                Payload::Inline(b) => out.extend_from_slice(&b),
                Payload::Simulated { .. } => unreachable!("cas_fetch_leaf verified the leaf kind"),
            }
        }
        if hash128(&out) != m.digest {
            return Err(H2Error::Corrupt(format!(
                "cas file {key}: content digest mismatch"
            )));
        }
        Ok(Payload::Inline(bytes::Bytes::from(out)))
    }

    fn cas_fetch_branch(
        &self,
        ctx: &mut OpCtx,
        d: Digest128,
        len: u64,
    ) -> Result<Vec<(Digest128, u64)>> {
        let bkey = Cluster::cas_block_key(&d.to_hex());
        let obj = self.with_retry(ctx, "get_cas_branch", |ctx| self.store.get(ctx, &bkey))?;
        let s = obj
            .payload
            .as_str()
            .ok_or_else(|| H2Error::Corrupt(format!("cas branch {bkey} is not a string object")))?;
        if hash128(s.as_bytes()) != d {
            return Err(H2Error::Corrupt(format!(
                "cas branch {bkey} fails its content address"
            )));
        }
        let children = formatter::cas_branch_from_str(s)?;
        let span: u64 = children.iter().map(|(_, l)| *l).sum();
        if span != len {
            return Err(H2Error::Corrupt(format!(
                "cas branch {bkey} spans {span} bytes, parent says {len}"
            )));
        }
        Ok(children)
    }

    fn cas_fetch_leaf(
        &self,
        ctx: &mut OpCtx,
        d: Digest128,
        len: u64,
        inline: bool,
    ) -> Result<Payload> {
        let bkey = Cluster::cas_block_key(&d.to_hex());
        let obj = self.with_retry(ctx, "get_cas_block", |ctx| self.store.get(ctx, &bkey))?;
        let ok = match (&obj.payload, inline) {
            (Payload::Inline(b), true) => b.len() as u64 == len && hash128(b) == d,
            (Payload::Simulated { size, digest }, false) => *size == len && *digest == d,
            _ => false,
        };
        if !ok {
            return Err(H2Error::Corrupt(format!(
                "cas leaf {bkey} fails its content address"
            )));
        }
        Ok(obj.payload)
    }

    /// Delete a CAS file: tombstone the manifest, then release the block
    /// references it held. A repeated delete — or one retried past its own
    /// torn tombstone — finds no manifest and releases nothing, so
    /// references drop exactly once per committed generation.
    fn cas_delete(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<()> {
        let prev = self.with_retry(ctx, "delete_content", |ctx| {
            self.store.delete_returning_prev(ctx, key)
        })?;
        self.cas_release_manifest(ctx, &prev);
        Ok(())
    }

    /// Server-side copy of a CAS file: no content moves — the destination
    /// manifest reuses the source's block tree after taking one extra
    /// reference per top entry. Losing the race with a delete that
    /// reclaimed a block rolls the references back and reports the miss.
    fn cas_copy(&self, ctx: &mut OpCtx, src: &ObjectKey, dst: &ObjectKey) -> Result<()> {
        let obj = self.with_retry(ctx, "get_manifest", |ctx| self.store.get(ctx, src))?;
        if obj.meta.get("content-type").map(String::as_str) != Some(CONTENT_TYPE_CAS) {
            // Not block-plane content (written before the knob): plain copy.
            return self.store.copy(ctx, src, dst);
        }
        let s = obj.payload.as_str().ok_or_else(|| {
            H2Error::Corrupt(format!("cas manifest {src} is not a string object"))
        })?;
        let m = formatter::cas_manifest_from_str(s)?;
        let mut taken = 0usize;
        for (d, _) in &m.entries {
            match self.store.cas_incref(ctx, &d.to_hex()) {
                Ok(()) => taken += 1,
                Err(e) => {
                    let owned = m.entries[..taken].iter().map(|(d, _)| *d).collect();
                    self.cas_release(ctx, owned);
                    return Err(e);
                }
            }
        }
        let new = formatter::CasManifest {
            stamp: self.next_part_stamp(),
            ..m
        };
        self.cas_commit_manifest(ctx, dst, &new)
    }

    /// Release one reference to each root, cascading through branch blocks
    /// whose count reaches zero (their children lose their referrer too).
    /// Iterative worklist — never holds two block op stripes at once.
    /// Best-effort: a failure strands unreachable blocks, never an error.
    fn cas_release(&self, ctx: &mut OpCtx, mut work: Vec<Digest128>) {
        while let Some(d) = work.pop() {
            let Ok(Some(obj)) = self.store.cas_decref(ctx, &d.to_hex()) else {
                continue;
            };
            // The block was reclaimed; if it was a branch, cascade.
            if let Some(s) = obj.payload.as_str() {
                if s.starts_with(formatter::CAS_BRANCH_MAGIC) {
                    if let Ok(children) = formatter::cas_branch_from_str(s) {
                        work.extend(children.into_iter().map(|(d, _)| d));
                    }
                }
            }
        }
    }

    /// Release the block tree a displaced or deleted CAS manifest held.
    fn cas_release_manifest(&self, ctx: &mut OpCtx, prev: &Object) {
        if prev.meta.get("content-type").map(String::as_str) != Some(CONTENT_TYPE_CAS) {
            return;
        }
        let Some(s) = prev.payload.as_str() else {
            return;
        };
        let Ok(m) = formatter::cas_manifest_from_str(s) else {
            return;
        };
        self.cas_release(ctx, m.entries.into_iter().map(|(d, _)| d).collect());
    }

    // ----- ring access ----------------------------------------------------

    /// The ring-cache stripe holding `key`.
    fn ring_shard(&self, key: &FdKey) -> &Mutex<LruCache<FdKey, CachedRing, WordBuild>> {
        &self.ring_cache[key.hash as usize % RING_SHARDS]
    }

    /// Cached copy of the global ring for `key`, if the cache is enabled
    /// and holds one. Counts hit/miss. A hit is a refcount bump.
    fn cached_global(&self, key: &FdKey) -> Option<Arc<NameRing>> {
        let counters = self.cache_counters.as_ref()?;
        let mut cache = self.ring_shard(key).lock();
        match cache.get(key) {
            Some(entry) => {
                let ring = Arc::clone(&entry.ring);
                drop(cache);
                counters.hits.incr();
                counters.gets_saved.incr();
                Some(ring)
            }
            None => {
                drop(cache);
                counters.misses.incr();
                None
            }
        }
    }

    /// Store a ring obtained from a cloud *read*, stamped `fetched_ms`
    /// (`None`: the object was absent and reads as an empty ring). Guarded:
    /// a fetch that raced with a concurrent write-through must not replace
    /// the newer entry, so the ring only enters the cache if its version is
    /// at least the cached one.
    ///
    /// The epoch bumps unless the fetch brought back the copy the cache
    /// last held — evicted since, or still there. Write stamps are unique
    /// per write, so an equal stamp means identical bytes: nothing a path
    /// entry was built from has changed, and the entries under this ring
    /// outlive its eviction. A fetch that loses the guard bumps too: its
    /// caller builds a view from a copy that is not the cached one, and the
    /// entry it then stores must not validate.
    fn cache_store_fetched(&self, key: &FdKey, ring: &Arc<NameRing>, fetched_ms: Option<u64>) {
        let Some(counters) = &self.cache_counters else {
            return;
        };
        let version = ring.version();
        let unchanged = {
            let mut cache = self.ring_shard(key).lock();
            if cache.peek(key).is_some_and(|e| version < e.version) {
                false
            } else {
                cache.insert(
                    key.clone(),
                    CachedRing {
                        version,
                        ring: Arc::clone(ring),
                    },
                );
                let mut stamps = self.ring_stamps.lock();
                let rec = stamps.entry(key.clone()).or_default();
                let same = fetched_ms.is_some() && rec.cached_ms == fetched_ms;
                rec.cached_ms = fetched_ms;
                same
            }
        };
        if unchanged {
            counters.refetch_unchanged.incr();
        } else {
            self.bump_ns_epoch(key.ns);
        }
    }

    /// Record a ring this middleware just *wrote* to the cloud, stamped
    /// `put_ms`, and write it through to the cache. Replaces
    /// unconditionally — the cloud object now IS this ring, even if its
    /// version went backwards (GC compaction can drop the newest
    /// tombstone).
    fn cache_store_written(&self, key: &FdKey, ring: &Arc<NameRing>, put_ms: u64) {
        if self.cache_counters.is_none() {
            self.ring_stamps
                .lock()
                .entry(key.clone())
                .or_default()
                .put_ms = Some(put_ms);
            return;
        }
        {
            let mut cache = self.ring_shard(key).lock();
            cache.insert(
                key.clone(),
                CachedRing {
                    version: ring.version(),
                    ring: Arc::clone(ring),
                },
            );
            *self.ring_stamps.lock().entry(key.clone()).or_default() = RingStamps {
                put_ms: Some(put_ms),
                cached_ms: Some(put_ms),
            };
        }
        self.bump_ns_epoch(key.ns);
    }

    /// Drop the cached copy of `(account, ns)`, if any. Called by GC after
    /// it deletes a dead ring object out from under the middleware.
    pub fn invalidate_ring(&self, account: &str, ns: NamespaceId) {
        self.drop_cached(&FdKey::of(account, ns));
    }

    fn drop_cached(&self, key: &FdKey) {
        {
            let mut cache = self.ring_shard(key).lock();
            cache.remove(key);
            if let Some(rec) = self.ring_stamps.lock().get_mut(key) {
                rec.cached_ms = None;
            }
        }
        self.bump_ns_epoch(key.ns);
    }

    // ----- namespace epochs + full-path cache (read-path overhaul) ---------

    /// Current mutation epoch of `ns` on this middleware (0 if never
    /// bumped). See the `ns_epochs` field for what counts as a mutation.
    pub fn ns_epoch(&self, ns: NamespaceId) -> u64 {
        if self.path_cache.is_empty() {
            return 0;
        }
        self.ns_epochs.read().get(&ns).copied().unwrap_or(0)
    }

    /// Bump `ns`'s epoch. Called *after* the mutation is visible, so a
    /// fingerprint captured before a concurrent mutation's data is always
    /// invalidated by its bump (the conservative direction — a racing
    /// reader can over-invalidate, never validate stale data).
    fn bump_ns_epoch(&self, ns: NamespaceId) {
        if self.path_cache.is_empty() {
            return;
        }
        *self.ns_epochs.write().entry(ns).or_insert(0) += 1;
    }

    /// Whether this middleware caches positive full-path resolutions.
    pub fn path_cache_active(&self) -> bool {
        self.path_cache_on
    }

    /// Whether this middleware caches negative (NotFound) resolutions.
    pub fn neg_cache_active(&self) -> bool {
        self.neg_cache_on
    }

    /// Full-path cache `(hits, misses, neg_hits)` so far (zeros when
    /// disabled). A negative hit counts in both `hits` and `neg_hits`.
    pub fn path_cache_stats(&self) -> (u64, u64, u64) {
        match &self.path_counters {
            Some(c) => (c.hits.get(), c.misses.get(), c.neg_hits.get()),
            None => (0, 0, 0),
        }
    }

    /// Hash of `(account, path)`: picks the path-cache stripe and keys the
    /// entry inside it.
    fn path_hash(keys: &H2Keys, path: &str) -> u64 {
        hash64(path.as_bytes()) ^ keys.account_hash()
    }

    /// Probe the full-path cache for `path` under `keys`' account. The
    /// entry's epoch fingerprint is validated against the current namespace
    /// epochs; a mismatched entry is dropped on the spot (lazy
    /// invalidation) and reported as a miss. A hit copies the answer out
    /// and runs `extra` on the entry, still under the stripe lock.
    fn path_probe<T>(
        &self,
        keys: &H2Keys,
        path: &str,
        extra: impl FnOnce(&PathEntry) -> T,
    ) -> Option<(PathAnswer, T)> {
        let counters = self.path_counters.as_ref()?;
        let hash = Self::path_hash(keys, path);
        let mut cache = self.path_cache[hash as usize % PATH_SHARDS].lock();
        // `Err(stale)`: nothing usable; `stale` when the entry is this
        // path's own but an ancestor ring has moved on since.
        let found = match cache.get(&hash) {
            Some(entry) if *entry.path == *path && *entry.account == *keys.account() => {
                // Epoch map is the innermost lock in this crate: it is only
                // ever taken as a leaf, so holding the path stripe across
                // it is safe.
                let epochs = self.ns_epochs.read();
                let valid = entry
                    .fp
                    .iter()
                    .all(|(ns, e)| epochs.get(ns).copied().unwrap_or(0) == *e);
                if valid {
                    Ok((entry.answer, extra(entry)))
                } else {
                    Err(true)
                }
            }
            _ => Err(false),
        };
        match found {
            Ok(hit) => {
                drop(cache);
                counters.hits.incr();
                if matches!(hit.0, PathAnswer::Missing) {
                    counters.neg_hits.incr();
                }
                Some(hit)
            }
            Err(stale) => {
                if stale {
                    cache.remove(&hash);
                }
                drop(cache);
                counters.misses.incr();
                None
            }
        }
    }

    /// The cached resolution of `path`, if a valid one is held.
    pub fn path_cache_lookup(&self, keys: &H2Keys, path: &str) -> Option<PathAnswer> {
        self.path_probe(keys, path, |_| ())
            .map(|(answer, ())| answer)
    }

    /// [`path_cache_lookup`](Self::path_cache_lookup) plus the entry's
    /// fingerprint, so the resolve of a child can extend it by one level
    /// instead of re-walking.
    pub fn path_cache_lookup_fp(
        &self,
        keys: &H2Keys,
        path: &str,
    ) -> Option<(PathAnswer, Fingerprint)> {
        self.path_probe(keys, path, |entry| Arc::clone(&entry.fp))
    }

    /// Store a resolve outcome for `path`. Positive answers are kept only
    /// when the path cache is on, negative ones only when the negative
    /// cache is on — the store is a no-op otherwise, so resolve can call
    /// it unconditionally.
    pub fn path_cache_store(&self, keys: &H2Keys, path: &str, answer: PathAnswer, fp: Fingerprint) {
        if self.path_counters.is_none() {
            return;
        }
        match answer {
            PathAnswer::Hit { .. } if !self.path_cache_on => return,
            PathAnswer::Missing if !self.neg_cache_on => return,
            _ => {}
        }
        let hash = Self::path_hash(keys, path);
        let entry = PathEntry {
            account: Arc::clone(keys.account_shared()),
            path: path.into(),
            fp,
            answer,
        };
        self.path_cache[hash as usize % PATH_SHARDS]
            .lock()
            .insert(hash, entry);
    }

    /// Charge the cost of one full-path cache probe (hash lookup plus
    /// fingerprint validation).
    pub fn charge_path_probe(&self, ctx: &mut OpCtx) {
        ctx.charge_time(self.store.cost_model().path_cache_cpu);
    }

    /// GC notification: the global ring for `(account, ns)` was compacted
    /// at `horizon`. Floor this middleware's local version to the same
    /// horizon, so a tombstone GC already reclaimed can't re-enter the
    /// global object through a later merge's local-overlay join (tombstone
    /// resurrection). The cached global copy is dropped too — it predates
    /// the compaction.
    pub fn gc_floor(&self, account: &str, ns: NamespaceId, horizon: Timestamp) {
        let key = FdKey::of(account, ns);
        {
            let mut fds = self.fds.lock();
            if let Some(fd) = fds.get_mut(&key) {
                Arc::make_mut(&mut fd.local).floor_tombstones(horizon);
            }
        }
        self.drop_cached(&key);
    }

    /// GC notification: the ring object for `(account, ns)` was deleted
    /// (its directory is unreachable). Drop every bit of local state that
    /// refers to it, so this middleware can't write the dead ring back.
    pub fn forget_ring(&self, account: &str, ns: NamespaceId) {
        let key = FdKey::of(account, ns);
        self.fds.lock().remove(&key);
        self.drop_cached(&key);
    }

    /// NameRing-cache `(hits, misses)` so far (zeros when disabled).
    pub fn ring_cache_stats(&self) -> (u64, u64) {
        match &self.cache_counters {
            Some(c) => (c.hits.get(), c.misses.get()),
            None => (0, 0),
        }
    }

    /// Materialised variant of [`read_ring_view`](Self::read_ring_view) for
    /// callers that need an owned ring (fsck, GC, bulk import).
    pub fn read_ring(&self, ctx: &mut OpCtx, keys: &H2Keys, ns: NamespaceId) -> Result<NameRing> {
        Ok(self.read_ring_view(ctx, keys, ns)?.materialize())
    }

    /// Fetch the NameRing object for `ns` — from the cache when it holds a
    /// copy, from the cloud otherwise (empty if the object does not exist
    /// yet) — joined with this node's local version, so the caller sees
    /// both global state and this node's own not-yet-merged updates. The
    /// result is a per-key join *view* over shared ring snapshots: the
    /// resolve hot path allocates nothing proportional to ring size.
    pub fn read_ring_view(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<RingView> {
        self.read_ring_view_stamped(ctx, keys, ns).map(|(v, _)| v)
    }

    /// [`read_ring_view`](Self::read_ring_view) plus the namespace epoch
    /// observed *before* the ring was read. Fingerprinting resolves with
    /// this pre-read epoch is conservative by construction: any mutation
    /// that lands after the epoch read bumps past it, so an entry built
    /// from this view can never validate against data it did not see. (The
    /// cost is one wasted store when the read was a cloud fetch of a copy
    /// the cache had not held before — that fetch's own cache store bumps
    /// the epoch — which the next walk repairs. Refetching an evicted ring
    /// that nobody rewrote bumps nothing and wastes nothing.)
    pub fn read_ring_view_stamped(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<(RingView, u64)> {
        ctx.span(STAGE_RESOLVE, "read_ring", |ctx| {
            ctx.span_note("ns", || ns.to_string());
            let key = FdKey::new(keys, ns);
            let epoch = self.ns_epoch(ns);
            let (global, hit) = match self.cached_global(&key) {
                Some(cached) => {
                    ctx.span_note("ring_cache", || "hit".to_string());
                    (cached, true)
                }
                None => {
                    if self.cache_counters.is_some() {
                        ctx.span_note("ring_cache", || "miss".to_string());
                    }
                    // Read path: pass this middleware's last ring-PUT stamp
                    // as a freshness hint, so the cluster can skip a handoff
                    // scan that provably cannot change the answer this
                    // caller needs (read-your-writes is already satisfied;
                    // anything newer on a handoff still reaches this node
                    // through gossip or repair, which never use the hint).
                    let floor = self.ring_stamps.lock().get(&key).and_then(|r| r.put_ms);
                    let (global, ms) = self.fetch_ring_stamped(ctx, keys, ns, floor)?;
                    let global = Arc::new(global);
                    self.cache_store_fetched(&key, &global, ms);
                    (global, false)
                }
            };
            let overlay = self.fds.lock().get(&key).map(|fd| Arc::clone(&fd.local));
            let view = RingView::new(global, overlay);
            Ok((if hit { view.mark_cached() } else { view }, epoch))
        })
    }

    /// The ring object exactly as stored (no local overlay). Merge cycles
    /// and gossip use this un-hinted read: both are read-modify-write
    /// paths whose written result shadows older copies at the object level
    /// (LWW by `modified_ms`), so they must see the freshest copy any
    /// handoff may hold or its updates would be lost for good.
    pub fn fetch_global_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<NameRing> {
        self.fetch_ring_stamped(ctx, keys, ns, None)
            .map(|(ring, _)| ring)
    }

    /// GET and parse the ring object, with the write stamp of the copy
    /// that answered; an absent object reads as an empty ring with no
    /// stamp. `expected_ms` is [`Cluster::get_expecting`]'s freshness
    /// floor — pure reads only, never a read-modify-write.
    fn fetch_ring_stamped(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        expected_ms: Option<u64>,
    ) -> Result<(NameRing, Option<u64>)> {
        let key = keys.namering(ns);
        self.ring_fetches.incr();
        match self.with_retry(ctx, "fetch_ring", |ctx| {
            self.store.get_expecting(ctx, &key, expected_ms)
        }) {
            Ok(obj) => {
                let s = obj.payload.as_str().ok_or_else(|| {
                    H2Error::Corrupt(format!("NameRing {ns} is not a string object"))
                })?;
                Ok((formatter::namering_from_str(s)?, Some(obj.modified_ms)))
            }
            Err(H2Error::NotFound(_)) => Ok((NameRing::new(), None)),
            Err(e) => Err(e),
        }
    }

    /// Write a ring object back (formatter + PUT), writing through to the
    /// NameRing cache on success. Every ring write on this middleware —
    /// COPY's `write_ring`, merge cycles, gossip write-backs, `create_ring`
    /// — funnels through here, so the cache can never serve a ring older
    /// than what this middleware itself last wrote.
    fn put_global_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        ring: &Arc<NameRing>,
    ) -> Result<()> {
        let body = formatter::namering_to_string(ring);
        let key = keys.namering(ns);
        // Build the payload once; retry attempts re-send the same shared
        // bytes instead of re-materialising the serialised ring.
        let payload = Payload::from_string(body);
        let ms = self.with_retry(ctx, "put_ring", |ctx| {
            self.store
                .put_stamped(ctx, &key, payload.clone(), Meta::new())
        })?;
        self.cache_store_written(&FdKey::new(keys, ns), ring, ms);
        Ok(())
    }

    /// Create the (empty) NameRing object for a fresh namespace.
    pub fn create_ring(&self, ctx: &mut OpCtx, keys: &H2Keys, ns: NamespaceId) -> Result<()> {
        self.put_global_ring(ctx, keys, ns, &Arc::new(NameRing::new()))
    }

    /// Write a fully materialised ring for a namespace this node just
    /// created (COPY builds destination rings wholesale — no concurrent
    /// writers can exist for a namespace nobody else has seen). Also primes
    /// the local descriptor cache.
    pub fn write_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        ring: &NameRing,
    ) -> Result<()> {
        let shared = Arc::new(ring.clone());
        self.put_global_ring(ctx, keys, ns, &shared)?;
        {
            let mut fds = self.fds.lock();
            let fd = fds.entry(FdKey::new(keys, ns)).or_default();
            fd.local = shared;
        }
        self.bump_ns_epoch(ns);
        Ok(())
    }

    // ----- patch submission (§3.3.2 phase 1) -------------------------------

    /// Submit a patch against `ns`'s NameRing: PUT the patch object (keyed
    /// `ns::/NameRing/.Node<this>.Patch<k>`), append it to the node's chain,
    /// and fold it into the local version immediately. In Eager mode the
    /// merge into the global ring happens here too.
    ///
    /// With group commit enabled, concurrent submissions against the same
    /// ring coalesce: one leader joins the waiting patches into a single
    /// combined patch object, allocates the batch a contiguous patch-number
    /// range, and performs one PUT (plus, in Eager mode, one merge) on
    /// behalf of everyone — waiters park on a condvar and wake with the
    /// shared result.
    pub fn submit_patch(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        patch: NameRing,
    ) -> Result<()> {
        ctx.charge_time(self.store.cost_model().patch_submit_cpu);
        if self.group_commit {
            self.submit_patch_grouped(ctx, keys, ns, patch)
        } else {
            self.submit_patch_direct(ctx, keys, ns, patch)
        }
    }

    fn submit_patch_direct(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        patch: NameRing,
    ) -> Result<()> {
        let key = FdKey::new(keys, ns);
        // Allocate the patch number AND chain it in one critical section,
        // before the PUT. If it only entered the chain after the PUT (as an
        // earlier revision did), there was a window in which the patch was
        // invisible to `pending_descriptors` — `is_quiescent` could report
        // a quiet layer while a submitted update had reached neither the
        // chain nor the local ring.
        let patch_no = {
            let mut fds = self.fds.lock();
            let fd = fds.entry(key.clone()).or_default();
            let no = fd.next_patch;
            fd.next_patch += 1;
            fd.pending.push(no);
            no
        };
        let put = self.put_patch_object(ctx, keys, ns, patch_no, &patch);
        self.settle_patch(&key, patch_no, &patch, &put);
        put?;
        if self.mode == MaintenanceMode::Eager {
            self.merge_ns(ctx, keys, ns)?;
        }
        Ok(())
    }

    /// Serialise and PUT one patch object (payload built once; retries
    /// re-send the same shared bytes).
    fn put_patch_object(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        patch_no: u32,
        patch: &NameRing,
    ) -> Result<()> {
        let payload = Payload::from_string(formatter::patch_to_string(patch));
        let patch_key = keys.patch(ns, self.node, patch_no);
        self.with_retry(ctx, "submit_patch", |ctx| {
            self.store
                .put(ctx, &patch_key, payload.clone(), Meta::new())
        })
    }

    /// Re-validate the descriptor under the lock once a patch PUT settled.
    fn settle_patch(&self, key: &FdKey, patch_no: u32, patch: &NameRing, put: &Result<()>) {
        {
            let mut fds = self.fds.lock();
            let fd = fds.entry(key.clone()).or_default();
            match put {
                Ok(()) => {
                    Arc::make_mut(&mut fd.local).merge_from(patch);
                    if !fd.pending.contains(patch_no) {
                        // A concurrent merge cycle consumed the chain entry
                        // while the PUT was in flight; it saw NotFound for
                        // this patch object and skipped it, so the object
                        // we just wrote is referenced by nothing. Re-chain
                        // it: the next cycle merges and deletes it. (The
                        // content is also safe in `fd.local`, which every
                        // cycle folds in.)
                        fd.pending.push(patch_no);
                    }
                }
                Err(_) => {
                    // The patch object never made it to the cloud: drop the
                    // chain entry so the merger does not chase a ghost, and
                    // skip the local fold so the failed write stays
                    // invisible, like any other failed operation.
                    fd.pending.remove(patch_no);
                }
            }
        }
        if put.is_ok() {
            // The local overlay gained the patch: write-through
            // invalidation for any path/negative entry under this ring.
            self.bump_ns_epoch(key.ns);
        }
    }

    /// Group-commit submission: enqueue the patch; lead or wait.
    fn submit_patch_grouped(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        patch: NameRing,
    ) -> Result<()> {
        let key = FdKey::new(keys, ns);
        let queue = self.commit_queues.lock().entry(key).or_default().clone();
        let mut st = queue.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.batch.push((ticket, patch));
        if st.busy {
            // Follower: park until the leader posts this ticket's result,
            // then charge the batch's virtual cost — every waiter sat out
            // the same combined PUT.
            loop {
                if let Some(res) = st.results.remove(&ticket) {
                    drop(st);
                    ctx.charge_time(res.cost);
                    return res.outcome;
                }
                st = queue.cv.wait(st);
            }
        }
        // Leader: drain and commit batches until no new arrivals remain.
        st.busy = true;
        loop {
            let batch = std::mem::take(&mut st.batch);
            drop(st);
            let results = self.commit_batch(ctx, keys, ns, batch);
            st = queue.state.lock();
            st.results.extend(results);
            queue.cv.notify_all();
            if st.batch.is_empty() {
                st.busy = false;
                break;
            }
        }
        let own = st
            .results
            .remove(&ticket)
            .expect("leader's own commit result");
        drop(st);
        // The leader's context already carried the batch's charges.
        own.outcome
    }

    /// Commit one batch on the leader's context: join the patches into one
    /// combined patch, allocate the batch a contiguous patch-number range
    /// (only the base number carries an object — the combined PUT), chain
    /// the base pre-PUT, perform the PUT, re-validate, and (Eager) merge.
    /// Failure unwinding matches the single-patch path exactly: a failed
    /// PUT unchains the base and skips the local fold, so the whole batch
    /// stays invisible.
    fn commit_batch(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        batch: Vec<(u64, NameRing)>,
    ) -> Vec<(u64, CommitResult)> {
        let start = ctx.elapsed();
        let mut combined = NameRing::new();
        for (_, patch) in &batch {
            combined.merge_from(patch);
        }
        let key = FdKey::new(keys, ns);
        let base = {
            let mut fds = self.fds.lock();
            let fd = fds.entry(key.clone()).or_default();
            let base = fd.next_patch;
            fd.next_patch += batch.len() as u32;
            fd.pending.push(base);
            base
        };
        let put = self.put_patch_object(ctx, keys, ns, base, &combined);
        self.settle_patch(&key, base, &combined, &put);
        let mut outcome = put;
        if outcome.is_ok() && self.mode == MaintenanceMode::Eager {
            outcome = self.merge_ns(ctx, keys, ns).map(|_| ());
        }
        let cost = ctx.elapsed().saturating_sub(start);
        batch
            .into_iter()
            .map(|(ticket, _)| {
                (
                    ticket,
                    CommitResult {
                        outcome: outcome.clone(),
                        cost,
                    },
                )
            })
            .collect()
    }

    /// How many descriptors have unmerged patch chains.
    pub fn pending_descriptors(&self) -> usize {
        self.fds
            .lock()
            .values()
            .filter(|fd| !fd.pending.is_empty())
            .count()
    }

    // ----- intra-node merging (§3.3.2 phase 2, step 1) ---------------------

    /// Merge this node's patch chain for `ns` into the global NameRing
    /// object: fetch each patch in chain order, merge them into one "big"
    /// patch, fold it into the ring, write the ring back, delete the patch
    /// objects, and queue a gossip notification. Returns true if any patch
    /// was merged.
    pub fn merge_ns(&self, ctx: &mut OpCtx, keys: &H2Keys, ns: NamespaceId) -> Result<bool> {
        ctx.span(STAGE_MERGE, "merge_ns", |ctx| {
            ctx.span_note("ns", || ns.to_string());
            self.merge_ns_inner(ctx, keys, ns)
        })
    }

    fn merge_ns_inner(&self, ctx: &mut OpCtx, keys: &H2Keys, ns: NamespaceId) -> Result<bool> {
        // One merge cycle per ring at a time on this node.
        let key = FdKey::new(keys, ns);
        let gate = self
            .merge_locks
            .lock()
            .entry(key.clone())
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone();
        let _guard = gate.lock();
        let chain: Vec<u32> = {
            let mut fds = self.fds.lock();
            match fds.get_mut(&key) {
                Some(fd) if !fd.pending.is_empty() => fd.pending.take(),
                _ => return Ok(false),
            }
        };
        ctx.charge_time(self.store.cost_model().patch_cycle_cpu);
        // Run the fallible cycle; on *any* failure, restore the chain so a
        // retry re-merges (crash recovery for the Background Merger).
        let ring = match self.merge_cycle(ctx, keys, ns, &chain) {
            Ok(ring) => ring,
            Err(e) => {
                let mut fds = self.fds.lock();
                let fd = fds.entry(key).or_default();
                fd.pending.restore(&chain);
                return Err(e);
            }
        };
        let version = ring.version();
        {
            let mut fds = self.fds.lock();
            let fd = fds.entry(key).or_default();
            // Monotone: a patch submitted while this merge was in flight
            // must stay visible in the local version (its chain entry will
            // carry it into the global object on the next cycle).
            Arc::make_mut(&mut fd.local).merge_from(&ring);
        }
        self.bump_ns_epoch(ns);
        self.outbox.lock().push(GossipMsg {
            account: keys.account().to_string(),
            ns,
            from: self.node,
            version,
        });
        Ok(true)
    }

    /// The fallible portion of one merge cycle: fetch the chain's patch
    /// objects, merge them (plus the local version) into the global ring,
    /// write it back and delete the consumed patches.
    fn merge_cycle(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        chain: &[u32],
    ) -> Result<Arc<NameRing>> {
        // Walk the linked list: start with patch No. chain[0], repeatedly
        // fetch the successor and merge the two.
        let mut big = NameRing::new();
        for &no in chain {
            let key = keys.patch(ns, self.node, no);
            match self.with_retry(ctx, "fetch_patch", |ctx| self.store.get(ctx, &key)) {
                Ok(obj) => {
                    let s = obj.payload.as_str().ok_or_else(|| {
                        H2Error::Corrupt(format!("patch {key} is not a string object"))
                    })?;
                    big.merge_from(&formatter::patch_from_str(s)?);
                }
                // A patch can be missing if a previous merge crashed between
                // deleting patches and clearing state; the local ring
                // already contains its effect, so skip it.
                Err(H2Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        // Merge the big patch into the ring object.
        let mut ring = self.fetch_global_ring(ctx, keys, ns)?;
        ring.merge_from(&big);
        // Also fold in anything only our local version knows (e.g. effects
        // of patches deleted by an earlier interrupted merge).
        {
            let fds = self.fds.lock();
            if let Some(fd) = fds.get(&FdKey::new(keys, ns)) {
                ring.merge_from(&fd.local);
            }
        }
        let ring = Arc::new(ring);
        self.put_global_ring(ctx, keys, ns, &ring)?;
        for &no in chain {
            // Patch objects are transient; a NotFound here is harmless.
            let key = keys.patch(ns, self.node, no);
            match self.with_retry(ctx, "delete_patch", |ctx| self.store.delete(ctx, &key)) {
                Ok(()) | Err(H2Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(ring)
    }

    /// Run the Background Merger over every descriptor with pending patches
    /// (Deferred mode's pump). Background spend is accounted internally.
    ///
    /// Every ring with a pending chain is attempted; a failing cycle
    /// restores its chain, bumps [`MERGE_FAILURES`], and does *not* stop
    /// the sweep. The outcome separates applied from failed counts so
    /// callers that loop "until nothing merges" terminate even while some
    /// rings keep failing (an earlier revision returned the *attempted*
    /// count, which such loops would spin on).
    pub fn step_merges(&self) -> MergeOutcome {
        let work: Vec<FdKey> = {
            let fds = self.fds.lock();
            fds.iter()
                .filter(|(_, fd)| !fd.pending.is_empty())
                .map(|(key, _)| key.clone())
                .collect()
        };
        let mut outcome = MergeOutcome::default();
        let mut ctx = OpCtx::new(self.store.cost_model());
        // Background merge pumps are sampled like client ops, so Deferred
        // mode's maintenance shows up as MERGE-PUMP root traces.
        let sampled = !work.is_empty() && self.tracer.sample_next();
        if sampled {
            ctx.begin_trace(STAGE_MERGE, "MERGE-PUMP");
        }
        let mut first_error: Option<H2Error> = None;
        for FdKey { account, ns, .. } in work {
            let keys = H2Keys::new(&account);
            match self.merge_ns(&mut ctx, &keys, ns) {
                Ok(true) => outcome.applied += 1,
                Ok(false) => {}
                Err(e) => {
                    outcome.failed += 1;
                    self.merge_failures.incr();
                    first_error.get_or_insert(e);
                }
            }
        }
        if sampled {
            let err = first_error.as_ref().map(|e| e.to_string());
            if let Some(spans) = ctx.end_trace(err) {
                self.tracer.offer(spans, &self.metrics);
            }
        }
        self.absorb_background(&ctx);
        outcome
    }

    // ----- gossip (§3.3.2 phase 2, step 2) ---------------------------------

    /// Drain queued outbound gossip messages.
    pub fn take_outbox(&self) -> Vec<GossipMsg> {
        std::mem::take(&mut *self.outbox.lock())
    }

    /// Handle one incoming gossip tuple. Returns true when the update was
    /// news to this node (and should be forwarded); false aborts the flood
    /// (the local version is already at least as new — §3.3.2's loop-back
    /// avoidance by timestamp comparison).
    pub fn on_gossip(&self, msg: &GossipMsg) -> Result<bool> {
        self.on_gossip_batch(std::slice::from_ref(msg))
            .pop()
            .expect("one result per message")
    }

    /// Handle a whole inbox of gossip tuples in one sweep, with per-message
    /// results (index-aligned with `msgs`, so a failing message can be
    /// requeued individually — batching never couples one message's fate
    /// to another's).
    ///
    /// Compared with applying messages one at a time, a batch takes the
    /// descriptor lock O(1) times instead of O(messages): one acquisition
    /// for the loop-back version check, one for applying every fetched
    /// ring. Messages for the same ring are deduplicated — the ring is
    /// fetched and joined once on behalf of all of them (each such message
    /// reports `Ok(true)`, since the update was news to this node).
    pub fn on_gossip_batch(&self, msgs: &[GossipMsg]) -> Vec<Result<bool>> {
        let mut results: Vec<Option<Result<bool>>> = (0..msgs.len()).map(|_| None).collect();
        // Pass 1 — loop-back avoidance for the whole batch under one lock;
        // fresh messages are grouped by ring.
        let mut fresh: Vec<(FdKey, Vec<usize>)> = Vec::new();
        {
            let mut slots: FdMap<usize> = FdMap::default();
            let fds = self.fds.lock();
            for (i, msg) in msgs.iter().enumerate() {
                let key = FdKey::of(&msg.account, msg.ns);
                let stale = fds
                    .get(&key)
                    .is_some_and(|fd| fd.local.version() >= msg.version);
                if stale {
                    results[i] = Some(Ok(false));
                } else {
                    match slots.get(&key) {
                        Some(&slot) => fresh[slot].1.push(i),
                        None => {
                            slots.insert(key.clone(), fresh.len());
                            fresh.push((key, vec![i]));
                        }
                    }
                }
            }
        }
        if fresh.is_empty() {
            return results
                .into_iter()
                .map(|r| r.expect("stale message settled"))
                .collect();
        }
        // Gossip runs on its own context, so batches self-sample into
        // GOSSIP-APPLY root traces.
        let mut ctx = OpCtx::new(self.store.cost_model());
        let sampled = self.tracer.sample_next();
        if sampled {
            ctx.begin_trace(STAGE_GOSSIP, "GOSSIP-APPLY");
            ctx.span_note("batch", || msgs.len().to_string());
            ctx.span_note("rings", || fresh.len().to_string());
        }
        let mut first_error: Option<String> = None;
        // Pass 2 — fetch each unique ring once, refreshing the NameRing
        // cache (gossip is what keeps cached rings fresh across nodes).
        let mut fetched: Vec<(FdKey, Arc<NameRing>, Vec<usize>)> = Vec::new();
        for (key, idxs) in fresh {
            let keys = H2Keys::new(&key.account);
            match self.fetch_ring_stamped(&mut ctx, &keys, key.ns, None) {
                Ok((global, ms)) => {
                    let global = Arc::new(global);
                    self.cache_store_fetched(&key, &global, ms);
                    fetched.push((key, global, idxs));
                }
                Err(e) => {
                    first_error.get_or_insert_with(|| e.to_string());
                    for i in idxs {
                        results[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        // Pass 3 — one descriptor-lock acquisition applies every join.
        let mut writebacks: Vec<(FdKey, Arc<NameRing>, Vec<usize>)> = Vec::new();
        let mut applied_ns: Vec<NamespaceId> = Vec::new();
        {
            let mut fds = self.fds.lock();
            for (key, global, idxs) in fetched {
                let fd = fds.entry(key.clone()).or_default();
                let merged = NameRing::merged((*global).clone(), &fd.local);
                let had_extra = merged != *global;
                let merged = Arc::new(merged);
                fd.local = Arc::clone(&merged);
                applied_ns.push(key.ns);
                if had_extra {
                    writebacks.push((key, merged, idxs));
                } else {
                    for i in idxs {
                        results[i] = Some(Ok(true));
                    }
                }
            }
        }
        for ns in applied_ns {
            self.bump_ns_epoch(ns);
        }
        // Pass 4 — when this node knew updates the global object lacked,
        // write the join back and re-gossip (our information is now part
        // of the global version). A write-back failure fails only that
        // ring's messages; the local join above is idempotent on requeue.
        for (key, local, idxs) in writebacks {
            let keys = H2Keys::new(&key.account);
            ctx.span_note("write_back", || {
                "local updates joined into global".to_string()
            });
            match self.put_global_ring(&mut ctx, &keys, key.ns, &local) {
                Ok(()) => {
                    self.outbox.lock().push(GossipMsg {
                        account: key.account.to_string(),
                        ns: key.ns,
                        from: self.node,
                        version: local.version(),
                    });
                    for i in idxs {
                        results[i] = Some(Ok(true));
                    }
                }
                Err(e) => {
                    first_error.get_or_insert_with(|| e.to_string());
                    for i in idxs {
                        results[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        if sampled {
            if let Some(spans) = ctx.end_trace(first_error) {
                self.tracer.offer(spans, &self.metrics);
            }
        }
        // Observe the newest version this node actually absorbed.
        let applied_max = msgs
            .iter()
            .enumerate()
            .filter(|(i, _)| matches!(results[*i], Some(Ok(true))))
            .map(|(_, m)| m.version)
            .max();
        if let Some(v) = applied_max {
            self.clock.observe(v);
        }
        self.absorb_background(&ctx);
        results
            .into_iter()
            .map(|r| r.expect("every message settled"))
            .collect()
    }

    /// Bounded anti-entropy sweep: re-fetch from the cloud every NameRing
    /// this middleware holds state for — descriptor-cache entries and
    /// cached global rings alike — join each with the local version, and
    /// write back + re-gossip any ring where this node knew updates the
    /// global object lacked. Returns how many rings were refreshed.
    ///
    /// This closes the post-fault re-convergence gap: gossip only refreshes
    /// rings whose update notifications *arrived*, so a notification dropped
    /// during a fault window leaves the cached copy stale until some later
    /// write happens to touch that ring. A resync revalidates every known
    /// ring unconditionally (each refresh bumps the namespace epoch, so
    /// dependent full-path cache entries are invalidated too). The sweep is
    /// bounded by this node's own state — it never enumerates the cloud —
    /// and the same call doubles as the cache refresh after a placement
    /// ring swap ([`Cluster::ring_epoch`] bump): the re-fetches run under
    /// the new placement, re-validating any answer the old one produced.
    pub fn resync(&self) -> Result<usize> {
        let keys: Vec<FdKey> = {
            let mut set: std::collections::HashSet<FdKey> =
                self.fds.lock().keys().cloned().collect();
            for shard in &self.ring_cache {
                set.extend(shard.lock().keys().cloned());
            }
            let mut v: Vec<FdKey> = set.into_iter().collect();
            v.sort_by(|a, b| (&a.account, a.ns).cmp(&(&b.account, b.ns)));
            v
        };
        let mut ctx = OpCtx::new(self.store.cost_model());
        let sampled = !keys.is_empty() && self.tracer.sample_next();
        if sampled {
            ctx.begin_trace(STAGE_GOSSIP, "RESYNC");
            ctx.span_note("rings", || keys.len().to_string());
        }
        let mut first_error: Option<H2Error> = None;
        let mut refreshed = 0usize;
        for key in keys {
            let h2keys = H2Keys::new(&key.account);
            let global = match self.fetch_ring_stamped(&mut ctx, &h2keys, key.ns, None) {
                Ok((g, ms)) => {
                    let g = Arc::new(g);
                    self.cache_store_fetched(&key, &g, ms);
                    g
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                    continue;
                }
            };
            let (had_extra, merged) = {
                let mut fds = self.fds.lock();
                match fds.get_mut(&key) {
                    Some(fd) => {
                        let merged = NameRing::merged((*global).clone(), &fd.local);
                        let had_extra = merged != *global;
                        let merged = Arc::new(merged);
                        fd.local = Arc::clone(&merged);
                        (had_extra, merged)
                    }
                    None => (false, global),
                }
            };
            self.bump_ns_epoch(key.ns);
            refreshed += 1;
            if had_extra {
                match self.put_global_ring(&mut ctx, &h2keys, key.ns, &merged) {
                    Ok(()) => self.outbox.lock().push(GossipMsg {
                        account: key.account.to_string(),
                        ns: key.ns,
                        from: self.node,
                        version: merged.version(),
                    }),
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
        if sampled {
            let err = first_error.as_ref().map(|e| e.to_string());
            if let Some(spans) = ctx.end_trace(err) {
                self.tracer.offer(spans, &self.metrics);
            }
        }
        self.absorb_background(&ctx);
        match first_error {
            Some(e) => Err(e),
            None => Ok(refreshed),
        }
    }

    // ----- descriptor objects ----------------------------------------------

    /// PUT a directory descriptor object at `parent_ns::name`.
    pub fn put_descriptor(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        parent_ns: NamespaceId,
        name: &str,
        desc: &DirDescriptor,
    ) -> Result<()> {
        let key = keys.child(parent_ns, name);
        let payload = Payload::from_string(formatter::dir_to_string(desc));
        self.with_retry(ctx, "put_descriptor", |ctx| {
            self.store.put(ctx, &key, payload.clone(), Self::dir_meta())
        })
    }

    /// GET and parse a directory descriptor.
    pub fn get_descriptor(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        parent_ns: NamespaceId,
        name: &str,
    ) -> Result<DirDescriptor> {
        let key = keys.child(parent_ns, name);
        let obj = self.with_retry(ctx, "get_descriptor", |ctx| self.store.get(ctx, &key))?;
        let s = obj
            .payload
            .as_str()
            .ok_or_else(|| H2Error::Corrupt(format!("descriptor {name} not a string")))?;
        formatter::dir_from_str(s)
    }

    /// Object key helper (exposed for the fs layer).
    pub fn child_key(&self, keys: &H2Keys, ns: NamespaceId, name: &str) -> ObjectKey {
        keys.child(ns, name)
    }

    /// Charge middleware CPU for processing `entries` listing rows.
    pub fn charge_listing_cpu(&self, ctx: &mut OpCtx, entries: usize) {
        ctx.charge_time(self.store.cost_model().per_entry_cpu * entries as u32);
    }

    /// Charge one resolve level. A level whose ring came from the
    /// parsed-ring cache skipped the GET *and* the parse/plumbing work, so
    /// it pays the in-memory `cached_lookup_cpu` instead of `lookup_cpu`.
    pub fn charge_lookup_step(&self, ctx: &mut OpCtx, cached: bool) {
        let model = self.store.cost_model();
        ctx.charge_time(if cached {
            model.cached_lookup_cpu
        } else {
            model.lookup_cpu
        });
    }

    /// Record an index-server-free primitive count for Table 1 (H2 issues
    /// no IndexRpc; method exists so call sites read symmetrically with the
    /// DP baseline).
    pub fn no_index_rpc(&self, _ctx: &mut OpCtx) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namering::Tuple;
    use swiftsim::ClusterConfig;

    fn setup(mode: MaintenanceMode) -> (Arc<Cluster>, Arc<H2Middleware>, H2Keys) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            replicas: 3,
            part_power: 6,
            cost: Arc::new(h2util::CostModel::zero()),
            faults: None,
        });
        cluster.create_account("alice").unwrap();
        cluster
            .create_container("alice", crate::keys::H2_CONTAINER, false)
            .unwrap();
        let mw = H2Middleware::new(NodeId(1), cluster.clone(), mode);
        (cluster, mw, H2Keys::new("alice"))
    }

    fn ns(seq: u64) -> NamespaceId {
        NamespaceId::new(seq, NodeId(1), 42)
    }

    #[test]
    fn missing_ring_reads_as_empty() {
        let (_c, mw, keys) = setup(MaintenanceMode::Eager);
        let mut ctx = OpCtx::for_test();
        let ring = mw.read_ring(&mut ctx, &keys, ns(9)).unwrap();
        assert!(ring.is_empty());
    }

    #[test]
    fn eager_patch_is_immediately_global() {
        let (_c, mw, keys) = setup(MaintenanceMode::Eager);
        let mut ctx = OpCtx::for_test();
        let mut patch = NameRing::new();
        patch.apply("file1", Tuple::file(mw.tick(), 10));
        mw.submit_patch(&mut ctx, &keys, ns(1), patch).unwrap();
        // Globally visible (no local overlay needed).
        let global = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert!(global.get("file1").is_some());
        assert_eq!(mw.pending_descriptors(), 0);
        // Patch object was deleted after the merge.
        let patch_key = keys.patch(ns(1), NodeId(1), 0);
        assert!(mw.store().get(&mut ctx, &patch_key).is_err());
        // A gossip message was queued.
        assert_eq!(mw.take_outbox().len(), 1);
    }

    #[test]
    fn deferred_patch_visible_locally_only_until_merge() {
        let (_c, mw, keys) = setup(MaintenanceMode::Deferred);
        let mut ctx = OpCtx::for_test();
        let mut patch = NameRing::new();
        patch.apply("f", Tuple::file(mw.tick(), 1));
        mw.submit_patch(&mut ctx, &keys, ns(1), patch).unwrap();
        // Local overlay sees it; global object does not.
        assert!(mw
            .read_ring(&mut ctx, &keys, ns(1))
            .unwrap()
            .get("f")
            .is_some());
        assert!(mw
            .fetch_global_ring(&mut ctx, &keys, ns(1))
            .unwrap()
            .get("f")
            .is_none());
        assert_eq!(mw.pending_descriptors(), 1);
        // Patch object exists in the cloud under the paper's key scheme.
        assert!(mw
            .store()
            .get(&mut ctx, &keys.patch(ns(1), NodeId(1), 0))
            .is_ok());
        // Background merger folds it in.
        assert_eq!(
            mw.step_merges(),
            MergeOutcome {
                applied: 1,
                failed: 0
            }
        );
        assert!(mw
            .fetch_global_ring(&mut ctx, &keys, ns(1))
            .unwrap()
            .get("f")
            .is_some());
        let (bg_time, bg_counts) = mw.background_spend();
        assert_eq!(bg_time, std::time::Duration::ZERO); // zero cost model
        assert!(bg_counts.total() > 0);
    }

    #[test]
    fn chain_of_patches_merges_in_order() {
        let (_c, mw, keys) = setup(MaintenanceMode::Deferred);
        let mut ctx = OpCtx::for_test();
        for i in 0..5u64 {
            let mut p = NameRing::new();
            p.apply(&format!("f{i}"), Tuple::file(mw.tick(), i));
            mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        }
        // One descriptor, five chained patches.
        assert_eq!(mw.pending_descriptors(), 1);
        assert_eq!(mw.step_merges().applied, 1);
        let g = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert_eq!(g.live_len(), 5);
    }

    #[test]
    fn delete_then_recreate_through_patches() {
        let (_c, mw, keys) = setup(MaintenanceMode::Eager);
        let mut ctx = OpCtx::for_test();
        let t1 = mw.tick();
        let mut p = NameRing::new();
        p.apply("f", Tuple::file(t1, 1));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        let mut p = NameRing::new();
        p.apply("f", Tuple::file(t1, 1).tombstone(mw.tick()));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        assert!(mw
            .read_ring(&mut ctx, &keys, ns(1))
            .unwrap()
            .get("f")
            .is_none());
        let mut p = NameRing::new();
        p.apply("f", Tuple::file(mw.tick(), 2));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        let ring = mw.read_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert_eq!(
            ring.get("f").unwrap().child,
            crate::namering::ChildRef::File { size: 2 }
        );
    }

    #[test]
    fn gossip_round_trip_between_two_middlewares() {
        let (cluster, mw1, keys) = setup(MaintenanceMode::Eager);
        let mw2 = H2Middleware::new(NodeId(2), cluster, MaintenanceMode::Eager);
        let mut ctx = OpCtx::for_test();
        let mut p = NameRing::new();
        p.apply("shared", Tuple::file(mw1.tick(), 7));
        mw1.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        let msgs = mw1.take_outbox();
        assert_eq!(msgs.len(), 1);
        // mw2 learns of the update and fetches it.
        assert!(mw2.on_gossip(&msgs[0]).unwrap());
        let ring = mw2.read_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert!(ring.get("shared").is_some());
        // Replayed gossip is aborted (loop-back avoidance).
        assert!(!mw2.on_gossip(&msgs[0]).unwrap());
    }

    #[test]
    fn gossip_merges_divergent_views_both_ways() {
        let (cluster, mw1, keys) = setup(MaintenanceMode::Deferred);
        let mw2 = H2Middleware::new(NodeId(2), cluster, MaintenanceMode::Deferred);
        let mut ctx = OpCtx::for_test();
        // Both nodes patch the same ring, unaware of each other.
        let mut p1 = NameRing::new();
        p1.apply("from-1", Tuple::file(mw1.tick(), 1));
        mw1.submit_patch(&mut ctx, &keys, ns(1), p1).unwrap();
        let mut p2 = NameRing::new();
        p2.apply("from-2", Tuple::file(mw2.tick(), 2));
        mw2.submit_patch(&mut ctx, &keys, ns(1), p2).unwrap();
        // Node 1 merges first; node 2 merges after — the global object now
        // has both (step_merges folds local knowledge in).
        assert_eq!(mw1.step_merges().applied, 1);
        assert_eq!(mw2.step_merges().applied, 1);
        let g = mw1.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert_eq!(g.live_len(), 2, "second merge lost first node's update");
        // Gossip completes the exchange: node 1 hears node 2's update.
        for msg in mw2.take_outbox() {
            mw1.on_gossip(&msg).unwrap();
        }
        let r1 = mw1.read_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert_eq!(r1.live_len(), 2);
    }

    #[test]
    fn descriptor_roundtrip_through_cloud() {
        let (_c, mw, keys) = setup(MaintenanceMode::Eager);
        let mut ctx = OpCtx::for_test();
        let desc = DirDescriptor {
            ns: ns(5),
            name: "docs".into(),
            created: mw.tick(),
        };
        mw.put_descriptor(&mut ctx, &keys, NamespaceId::ROOT, "docs", &desc)
            .unwrap();
        let got = mw
            .get_descriptor(&mut ctx, &keys, NamespaceId::ROOT, "docs")
            .unwrap();
        assert_eq!(got, desc);
    }

    #[test]
    fn merge_failure_restores_the_patch_chain_for_retry() {
        // Submit patches in Deferred mode, kill the whole cluster, watch
        // the merge fail — then recover and verify nothing was lost.
        let (cluster, mw, keys) = setup(MaintenanceMode::Deferred);
        let mut ctx = OpCtx::for_test();
        for i in 0..3u64 {
            let mut p = NameRing::new();
            p.apply(&format!("f{i}"), Tuple::file(mw.tick(), i));
            mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        }
        for i in 0..4 {
            cluster.set_node_down(h2ring::DeviceId(i), true);
        }
        let out = mw.step_merges();
        assert_eq!(
            out,
            MergeOutcome {
                applied: 0,
                failed: 1
            },
            "merge should fail with cluster down"
        );
        assert!(out.attempted() == 1);
        assert!(mw.metrics().counter_value(MERGE_FAILURES) >= 1);
        // The chain survived the failure.
        assert_eq!(mw.pending_descriptors(), 1);
        for i in 0..4 {
            cluster.set_node_down(h2ring::DeviceId(i), false);
        }
        assert_eq!(mw.step_merges().applied, 1);
        let g = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert_eq!(g.live_len(), 3, "updates lost across merge crash/retry");
        // Patch objects were cleaned up after the successful merge.
        for no in 0..3 {
            assert!(mw
                .store()
                .get(&mut ctx, &keys.patch(ns(1), NodeId(1), no))
                .is_err());
        }
    }

    #[test]
    fn namespaces_allocated_are_unique_per_middleware() {
        let (_c, mw, _keys) = setup(MaintenanceMode::Eager);
        let a = mw.allocate_namespace();
        let b = mw.allocate_namespace();
        assert_ne!(a, b);
        assert_eq!(a.node, NodeId(1));
    }

    #[test]
    fn patch_chain_survives_many_pending_patches() {
        // The chain must ack (remove) patches in arbitrary order without
        // losing entries, and drain in submission order afterwards.
        let mut chain = PatchChain::default();
        for no in 0..200u32 {
            chain.push(no);
        }
        assert_eq!(chain.len(), 200);
        // Ack every third patch, front-biased — the pattern the old
        // `retain` scan paid O(chain) for.
        for no in (0..200u32).step_by(3) {
            chain.remove(no);
        }
        for no in 0..200u32 {
            assert_eq!(chain.contains(no), no % 3 != 0, "patch {no}");
        }
        // Removing a missing number is a no-op.
        chain.remove(0);
        chain.remove(999);
        // Drain comes out sorted == submission order (numbers are monotone).
        let drained = chain.take();
        let expect: Vec<u32> = (0..200).filter(|n| n % 3 != 0).collect();
        assert_eq!(drained, expect);
        assert!(chain.is_empty());
        // Restore after a failed merge keeps the set intact even if new
        // numbers were pushed meanwhile.
        chain.push(500);
        chain.restore(&drained);
        assert_eq!(chain.len(), expect.len() + 1);
        assert!(chain.contains(500));
        let redrained = chain.take();
        let mut expect2 = expect.clone();
        expect2.push(500);
        assert_eq!(redrained, expect2);
    }

    fn setup_grouped(mode: MaintenanceMode) -> (Arc<Cluster>, Arc<H2Middleware>, H2Keys) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            replicas: 3,
            part_power: 6,
            cost: Arc::new(h2util::CostModel::zero()),
            faults: None,
        });
        cluster.create_account("alice").unwrap();
        cluster
            .create_container("alice", crate::keys::H2_CONTAINER, false)
            .unwrap();
        let mw = H2Middleware::with_observability(
            NodeId(1),
            cluster.clone(),
            mode,
            Arc::new(MetricsRegistry::new()),
            0,
            Arc::new(TraceCollector::disabled()),
            true,
            false,
            false,
            false,
        );
        (cluster, mw, H2Keys::new("alice"))
    }

    #[test]
    fn group_commit_single_submitter_behaves_like_direct_path() {
        let (_c, mw, keys) = setup_grouped(MaintenanceMode::Deferred);
        let mut ctx = OpCtx::for_test();
        let mut p = NameRing::new();
        p.apply("f", Tuple::file(mw.tick(), 1));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        assert!(mw
            .read_ring(&mut ctx, &keys, ns(1))
            .unwrap()
            .get("f")
            .is_some());
        assert_eq!(mw.pending_descriptors(), 1);
        assert_eq!(mw.step_merges().applied, 1);
        assert!(mw
            .fetch_global_ring(&mut ctx, &keys, ns(1))
            .unwrap()
            .get("f")
            .is_some());
    }

    #[test]
    fn group_commit_coalesces_concurrent_submissions() {
        // N threads submit against the same ring; every update must land,
        // and the combined patch objects must number strictly fewer than
        // the submissions whenever any batch formed (the contiguous-range
        // allocation leaves gaps where coalesced patches would have been).
        const THREADS: usize = 8;
        const PER_THREAD: usize = 4;
        let (_c, mw, keys) = setup_grouped(MaintenanceMode::Deferred);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let mw = Arc::clone(&mw);
            let keys = H2Keys::new("alice");
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    let mut ctx = OpCtx::for_test();
                    let mut p = NameRing::new();
                    p.apply(&format!("t{t}-f{i}"), Tuple::file(mw.tick(), 1));
                    mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut ctx = OpCtx::for_test();
        // Read-your-writes on this middleware: every name is visible.
        let local = mw.read_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert_eq!(local.live_len(), THREADS * PER_THREAD);
        // Merge drains the chain and the global object has everything.
        while mw.step_merges().applied > 0 {}
        assert_eq!(mw.pending_descriptors(), 0);
        let global = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
        assert_eq!(global.live_len(), THREADS * PER_THREAD);
    }

    #[test]
    fn group_commit_failed_batch_leaves_no_trace() {
        let (cluster, mw, keys) = setup_grouped(MaintenanceMode::Deferred);
        let mut ctx = OpCtx::for_test();
        for i in 0..4 {
            cluster.set_node_down(h2ring::DeviceId(i), true);
        }
        let mut p = NameRing::new();
        p.apply("ghost", Tuple::file(mw.tick(), 1));
        assert!(mw.submit_patch(&mut ctx, &keys, ns(1), p).is_err());
        // The failed batch unchained itself and skipped the local fold.
        assert_eq!(mw.pending_descriptors(), 0);
        for i in 0..4 {
            cluster.set_node_down(h2ring::DeviceId(i), false);
        }
        assert!(mw
            .read_ring(&mut ctx, &keys, ns(1))
            .unwrap()
            .get("ghost")
            .is_none());
    }

    #[test]
    fn merge_pump_loop_terminates_while_merges_keep_failing() {
        // Regression: `step_merges` used to report the *attempted* count,
        // so "pump until 0" loops spun forever against a down cluster.
        let (cluster, mw, keys) = setup(MaintenanceMode::Deferred);
        let mut ctx = OpCtx::for_test();
        let mut p = NameRing::new();
        p.apply("f", Tuple::file(mw.tick(), 1));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        for i in 0..4 {
            cluster.set_node_down(h2ring::DeviceId(i), true);
        }
        // The canonical caller loop: merge until nothing more applies.
        // With the cluster down this must exit on the first sweep (and the
        // failure is still visible via `failed` and the counter).
        let mut sweeps = 0;
        while mw.step_merges().applied > 0 {
            sweeps += 1;
            assert!(sweeps < 100, "merge pump failed to terminate");
        }
        assert_eq!(sweeps, 0);
        assert!(mw.metrics().counter_value(MERGE_FAILURES) >= 1);
        // Chain intact for the eventual retry.
        assert_eq!(mw.pending_descriptors(), 1);
    }
}
