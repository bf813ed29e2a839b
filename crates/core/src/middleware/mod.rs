//! The H2Middleware (§4.2): H2 Lookup, NameRing Maintenance, Gossip.
//!
//! Each middleware wraps the object cloud the way a Swift proxy server is
//! wrapped in the paper's deployment. It holds one record per NameRing it
//! knows of, in one striped map, and in it:
//!
//! * the **File Descriptor Cache** — one descriptor per NameRing this node
//!   has submitted a patch to, tracking the node's local (possibly not yet
//!   globally merged) version of the ring and the chain of
//!   submitted-but-unmerged patches (§3.3.2 phase 2, step 1), plus the
//!   ring's merge gate and group-commit queue;
//! * the **Background Merger** — writes a node's patch chain, already
//!   folded into its local version at submission, to the cloud through the
//!   one read-modify-write that gossip and resync run too, and deletes the
//!   chain's patch objects, one segment of up to 32 submits each, without
//!   reading them back; a pump runs its rings' cycles as one wave;
//! * the **Gossip Arrangement** — emits `(N_i, H_j, t_k)` update
//!   notifications to peer middlewares through its outbox and applies the
//!   ones queued in its inbox. A notification is news only for a ring this
//!   node holds a record of, and only if it names an object newer than any
//!   this node has heard of (§3.3.2's loop-back avoidance, by write stamp);
//!   a node that holds nothing of a ring reads it from the cloud.
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
//!
//! This file holds the middleware, its ring records and the retry and
//! accounting shell; `content.rs` has both content planes, `cache.rs` the
//! NameRing and full-path caches, `ring.rs` ring reads and writes and the
//! GC notifications, `maintenance.rs` patch submission, merge, gossip and
//! resync. The submodules share this file's imports.

mod cache;
mod content;
mod maintenance;
mod ring;
#[cfg(test)]
mod tests;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};

use h2util::chunker::{self, ChunkParams};
use h2util::hash::{hash128, Digest128};
use h2util::id::NamespaceAllocator;
use h2util::metrics::{Counter, MetricsRegistry};
use h2util::trace::Stage::{self, Content, Ring};
use h2util::trace::{Note, StageHistograms, StageTimes, TraceCollector, DEFAULT_TRACE_CAP};
use h2util::{
    hash64, lock_rank, H2Error, HybridClock, LruCache, NamespaceId, NodeId, OpCtx, OrderedMutex,
    Result, RetryPolicy, Timestamp, WordBuild,
};
use swiftsim::{Cluster, Meta, Object, ObjectKey, ObjectStore, Payload};

use crate::formatter;
use crate::fs::H2Config;
use crate::keys::{DirDescriptor, H2Keys};
use crate::namering::{NameRing, RingView, Tuple};

pub use cache::{
    EpochMark, Fingerprint, PathAnswer, GETS_SAVED, NEG_CACHE_HITS, PATH_CACHE_HITS,
    PATH_CACHE_MISSES, RING_CACHE_HITS, RING_CACHE_MISSES, RING_REFETCH_UNCHANGED,
};
use cache::{PathCache, RingCache};
pub use content::{
    CAS_FANOUT, CONTENT_TYPE_CAS, CONTENT_TYPE_FILE, META_DIGEST, META_LOGICAL_BYTES,
};
use maintenance::{CommitState, Inbox, Segment};
pub use maintenance::{
    GossipMsg, InboxOutcome, MaintenanceMode, MergeOutcome, GOSSIP_APPLY_FAILURES, MERGE_FAILURES,
};
pub use ring::RING_FETCHES;

/// Per-NameRing state in the File Descriptor Cache, one descriptor per
/// NameRing this node has submitted a patch to, kept in the ring's
/// [`RingRecord`]. Only patch submission creates one; a ring write never
/// does.
#[derive(Default)]
struct FileDescriptor {
    /// This node's local version of the ring (its own submitted patches are
    /// always folded in, giving read-your-writes on this middleware).
    /// `Arc`-backed so the resolve path can snapshot it without cloning the
    /// tuple map; writers go through `Arc::make_mut`.
    local: Arc<NameRing>,
    /// Numbers of the patch objects written but not yet merged (the patch
    /// chain, starting at 0 like the paper's "patch No. 0"). Each object
    /// is a segment: the run of submits' tuples one [`Segment`] gathered.
    /// Numbers are handed out monotonically, so set order is submission
    /// order.
    pending: BTreeSet<u32>,
    /// Next segment number to hand out: it advances per segment, not per
    /// submit, and restarts at 0 for a new descriptor.
    next_patch: u32,
    /// The segment this node's submits append to, until a merge takes the
    /// chain or it holds [`SEGMENT_SUBMITS`](maintenance::SEGMENT_SUBMITS)
    /// submits.
    open: Option<Segment>,
    /// The newest write stamp of the ring object this node has absorbed
    /// through a ring cycle or written through `write_ring`. Stamps are
    /// unique and monotone across the cluster, so an object with a stamp at
    /// most this one is folded into `local` already, or was overwritten by
    /// one that is (a merge can fold in a write older than the ring's
    /// newest tuple, so the tuples' maximum stamp cannot tell).
    heard: u64,
    /// The ring's merge gate and commit queue.
    sync: Arc<RingSync>,
}

impl FileDescriptor {
    /// Record that this node absorbed or wrote the ring object stamped
    /// `stamp` (`None`: there was no object).
    fn hear(&mut self, stamp: Option<u64>) {
        self.heard = self.heard.max(stamp.unwrap_or(0));
    }

    /// Fold the global ring, the object stamped `stamp`, into the local
    /// version. A global ring that already holds everything the local one
    /// does becomes the local ring as it is; otherwise the two are joined
    /// into a copy, which is returned: this node knew updates the global
    /// object lacks.
    fn absorb(&mut self, global: Arc<NameRing>, stamp: Option<u64>) -> Option<Arc<NameRing>> {
        self.hear(stamp);
        if global.subsumes(&self.local) {
            self.local = global;
            return None;
        }
        let joined = Arc::new(NameRing::merged((*global).clone(), &self.local));
        self.local = Arc::clone(&joined);
        Some(joined)
    }
}

/// A ring's two serialisation points on this node.
struct RingSync {
    /// One merge cycle at a time: a cycle is a read-modify-write of the
    /// ring object, so two concurrent cycles on this node could overwrite
    /// each other. (Cycles on *different* nodes are reconciled by gossip,
    /// by design.) Rank [`lock_rank::MERGE_GATE`]: held across the cycle's
    /// cloud requests, so it sits outside every store lock.
    merge: OrderedMutex<()>,
    /// Group commit: arrivals enqueue their patch; whoever finds the queue
    /// idle becomes the commit leader, drains the batch, performs one
    /// combined submission, posts per-ticket results and wakes the waiters
    /// parked on `committed`.
    commit: OrderedMutex<CommitState>,
    committed: Condvar,
}

impl Default for RingSync {
    fn default() -> Self {
        RingSync {
            merge: OrderedMutex::new(lock_rank::MERGE_GATE, "middleware.merge_gate", ()),
            commit: OrderedMutex::new(
                lock_rank::LEAF,
                "middleware.commit_queue",
                CommitState::default(),
            ),
            committed: Condvar::new(),
        }
    }
}

/// Lock stripes of the ring records, each with an even share of the
/// NameRing cache's capacity (so eviction is per-stripe LRU).
const RING_SHARDS: usize = 8;

/// Everything this node knows about one NameRing, under one stripe lock. A
/// record exists while it keeps a descriptor, which only a patch makes, or
/// a cache record, which only the NameRing cache makes while it is on.
#[derive(Default)]
struct RingRecord {
    /// Boxed: most records are cache records, which it keeps small.
    fd: Option<Box<FileDescriptor>>,
    /// The NameRing cache's copy of the ring object, without the local
    /// overlay; the stripe's LRU evicts it and keeps the record.
    copy: Option<Arc<NameRing>>,
    /// Write stamp of the copy that last entered the cache (`None`: an
    /// absent object, or none entered): it guards a fetched copy's entry,
    /// and a refetch with the same stamp brought back the same bytes. See
    /// [`H2Middleware::cache_store`].
    stamp: Option<u64>,
    /// The namespace epoch, [`bump`]ed after every mutation of this node's
    /// joined view of the ring; 0: never bumped. Shared with the path
    /// cache's fingerprints ([`EpochMark`]), which re-read it unlocked.
    epoch: Arc<AtomicU64>,
}

impl RingRecord {
    /// The newest write stamp of the ring this node has heard of, which
    /// gossip must exceed to be news: the descriptor's `heard`, else the
    /// cached copy's stamp. Never their maximum: a resolve-path fetch can
    /// cache a peer's stale write-back without folding it into `local`, and
    /// the peer's announcement must still make this node write back.
    fn heard(&self) -> u64 {
        self.fd
            .as_ref()
            .map_or(self.stamp.unwrap_or(0), |fd| fd.heard)
    }
}

/// Move a ring's epoch on, under its record's lock with the mutation it
/// announces. An epoch only grows and a removed record's reads 0, so a mark
/// never holds again once its ring has moved on. The `Release` pairs with
/// [`EpochMark`]'s `Acquire` loads.
fn bump(epoch: &AtomicU64) {
    epoch.fetch_add(1, Ordering::Release);
}

/// One lock stripe of the ring records.
struct RingShard {
    records: FdMap<RingRecord>,
    /// The records holding a descriptor, so the merger's sweep walks the
    /// rings this node patched, not every cache record.
    patched: HashSet<FdKey, WordBuild>,
    /// The NameRing cache's recency over the records holding a copy.
    lru: LruCache<FdKey, (), WordBuild>,
}

impl RingShard {
    /// Drop `key`'s record. Its epoch reads 0 from now on, so no
    /// fingerprint built on it validates again.
    fn remove(&mut self, key: &FdKey) {
        self.lru.remove(key);
        self.patched.remove(key);
        if let Some(record) = self.records.remove(key) {
            record.epoch.store(0, Ordering::Release);
        }
    }
}

/// Key of a per-(account, namespace) entry. It shares the account name
/// with the [`H2Keys`] it was minted from and carries its hash — the
/// account's XXH64, which `H2Keys` computed once for the whole operation,
/// folded with the namespace's words — so minting one allocates nothing and
/// no map hashes the account text per probe. The same hash picks the
/// record's stripe.
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

/// One H2Middleware instance.
pub struct H2Middleware {
    node: NodeId,
    store: Arc<Cluster>,
    mode: MaintenanceMode,
    clock: HybridClock,
    ns_alloc: NamespaceAllocator,
    /// The ring records, striped by ring key.
    rings: Vec<OrderedMutex<RingShard>>,
    /// The NameRing cache's counters; `None` when `cache_capacity` is 0,
    /// and then no record keeps a copy or stamp.
    cache: Option<RingCache>,
    /// The full-path resolve cache (see [`PathCache`]); `None` unless the
    /// ring cache is on and it keeps positive or negative answers.
    paths: Option<PathCache>,
    /// When true, concurrent `submit_patch` calls against the same ring
    /// coalesce behind a per-ring commit leader (one combined patch PUT per
    /// batch); when false, every submission is a batch of one.
    group_commit: bool,
    /// Write-generation counter for CAS manifest stamps; combined with the
    /// node id so generations are unique across middlewares.
    part_stamp: AtomicU64,
    /// When true, file content is stored through the content-addressed
    /// block plane (chunk → dedup'd leaf blocks → branch tree → manifest)
    /// instead of as one whole object per file.
    cas: bool,
    /// Global-ring GETs actually issued (see [`RING_FETCHES`]).
    ring_fetches: Arc<Counter>,
    /// Merge cycles that failed and were restored for retry.
    merge_failures: Arc<Counter>,
    /// Gossip applications that failed and were requeued or dropped.
    gossip_apply_failures: Arc<Counter>,
    /// Backoff schedule for transient cloud failures (`Unavailable` /
    /// `Conflict`) on the middleware's own cloud ops — ring reads/writes,
    /// patch submission, descriptor I/O. Seeded per node so independent
    /// middlewares draw decorrelated jitter, yet replays are identical.
    retry: RetryPolicy,
    /// Bounded ring buffer of sampled operation traces served by `op=trace`;
    /// a disabled collector (the default) keeps the span machinery inert.
    tracer: Arc<TraceCollector>,
    /// The registry's stage histograms, fed by every root ([`Self::root`]).
    stage_hists: StageHistograms,
    /// Gossip this node announced, waiting for the layer to flood it.
    outbox: OrderedMutex<Vec<GossipMsg>>,
    /// Gossip delivered to this node, waiting for [`Self::apply_inbox`].
    inbox: OrderedMutex<Inbox>,
    /// Virtual time per stage + op counts spent on background maintenance
    /// (merges, gossip, resync) — the ablation benches report it.
    background: OrderedMutex<(StageTimes, h2util::BackendCounts)>,
}

impl H2Middleware {
    /// Middleware `node` (1-based) over `store`, reporting into the
    /// store's metrics registry and configured by `cfg`: its maintenance mode,
    /// a NameRing cache of `cfg.cache_capacity` parsed rings (0 disables
    /// it), a span collector sampling `cfg.trace_sample` of its
    /// operations, and the group-commit, read-path (full-path and
    /// negative caches, both requiring the ring cache) and CAS switches.
    ///
    /// `cfg.middlewares`, `cfg.cluster` and `cfg.hedged_reads` describe
    /// the layer and the store, not one middleware, and are ignored here:
    /// [`H2Layer::new`](crate::H2Layer::new) applies them, hedged replica
    /// reads included.
    pub fn new(node: NodeId, store: Arc<Cluster>, cfg: &H2Config) -> Arc<Self> {
        assert!(
            node.0 > 0,
            "middleware node ids are 1-based (0 is reserved)"
        );
        let metrics = store.metrics();
        Arc::new(H2Middleware {
            stage_hists: StageHistograms::new(metrics),
            node,
            clock: HybridClock::new(node, 1_600_000_000_000),
            ns_alloc: NamespaceAllocator::new(node),
            mode: cfg.mode,
            rings: (0..RING_SHARDS)
                .map(|_| {
                    OrderedMutex::new(
                        lock_rank::LEAF,
                        "middleware.rings",
                        RingShard {
                            records: FdMap::default(),
                            patched: HashSet::default(),
                            lru: LruCache::new(cfg.cache_capacity.div_ceil(RING_SHARDS)),
                        },
                    )
                })
                .collect(),
            cache: RingCache::new(cfg.cache_capacity, metrics),
            paths: PathCache::new(cfg, metrics),
            group_commit: cfg.group_commit,
            part_stamp: AtomicU64::new(0),
            cas: cfg.cas,
            ring_fetches: metrics.counter(RING_FETCHES),
            merge_failures: metrics.counter(MERGE_FAILURES),
            gossip_apply_failures: metrics.counter(GOSSIP_APPLY_FAILURES),
            retry: RetryPolicy::new(0x4852_5452 ^ node.0 as u64),
            tracer: Arc::new(TraceCollector::new(
                cfg.trace_sample,
                DEFAULT_TRACE_CAP,
                node.0,
            )),
            outbox: OrderedMutex::new(lock_rank::LEAF, "middleware.outbox", Vec::new()),
            inbox: OrderedMutex::new(lock_rank::LEAF, "middleware.inbox", Inbox::new()),
            background: OrderedMutex::new(
                lock_rank::LEAF,
                "middleware.background",
                Default::default(),
            ),
            store,
        })
    }

    /// The metrics registry this middleware reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.store.metrics()
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
        let (stages, counts) = *self.background.lock();
        (stages.total(), counts)
    }

    /// [`Self::background_spend`]'s time, split by stage.
    pub fn background_stages(&self) -> StageTimes {
        self.background.lock().0
    }

    /// The span collector holding this middleware's sampled traces.
    pub fn tracer(&self) -> &Arc<TraceCollector> {
        &self.tracer
    }

    /// Run a cloud operation in `stage` (ring or content) under this
    /// middleware's retry policy, charging backoff as virtual latency and
    /// recording `op_retries` / `op_gave_up` in the middleware's registry.
    /// Content-object I/O goes through here too, so file data gets the
    /// same availability treatment as metadata.
    pub fn with_retry<T>(
        &self,
        ctx: &mut OpCtx,
        stage: Stage,
        op: &'static str,
        f: impl FnMut(&mut OpCtx) -> Result<T>,
    ) -> Result<T> {
        ctx.span(stage, op, |ctx| {
            self.retry.run_virtual(ctx, Some(self.metrics()), op, f)
        })
    }

    /// Run `f` on `ctx` as one root — a client op or a maintenance pass —
    /// in `stage`: sampled into a root trace named `name`, and the time it
    /// spent per stage fed to the stage histograms, traced or not. Returns
    /// `f`'s output and that split. `err` renders the outcome's error for
    /// the trace root; it only runs on a sampled root.
    pub(crate) fn root<T>(
        &self,
        ctx: &mut OpCtx,
        stage: Stage,
        name: &'static str,
        f: impl FnOnce(&mut OpCtx) -> T,
        err: impl FnOnce(&T) -> Option<String>,
    ) -> (T, StageTimes) {
        // A root arriving on an already-traced context (none today) keeps
        // the existing root span.
        let sampled = !ctx.trace_active() && self.tracer.sample_next();
        if sampled {
            ctx.begin_trace(stage, name);
        }
        let before = ctx.stage_times();
        let out = ctx.in_stage(stage, f);
        let spent = ctx.stage_times().since(&before);
        self.stage_hists.record(&spent);
        if sampled {
            if let Some(spans) = ctx.end_trace(err(&out)) {
                self.tracer.offer(spans);
            }
        }
        (out, spent)
    }

    fn absorb_background(&self, ctx: &OpCtx) {
        let (stages, counts) = (ctx.stage_times(), ctx.counts());
        let mut bg = self.background.lock();
        bg.0.add(&stages);
        bg.1.add(&counts);
    }

    /// The stripe holding `key`'s record.
    fn ring_shard(&self, key: &FdKey) -> &OrderedMutex<RingShard> {
        &self.rings[key.hash as usize % RING_SHARDS]
    }

    /// `f` on `key`'s record, if there is one.
    fn with_record<T>(&self, key: &FdKey, f: impl FnOnce(&mut RingRecord) -> T) -> Option<T> {
        self.ring_shard(key).lock().records.get_mut(key).map(f)
    }

    /// `f` on `key`'s descriptor, if there is one.
    fn with_fd<T>(&self, key: &FdKey, f: impl FnOnce(&mut FileDescriptor) -> T) -> Option<T> {
        let mut shard = self.ring_shard(key).lock();
        shard.records.get_mut(key)?.fd.as_deref_mut().map(f)
    }

    /// `f` on `key`'s descriptor, made first if there is none (only patch
    /// submission does that), and its record's epoch.
    fn with_descriptor<T>(
        &self,
        key: &FdKey,
        f: impl FnOnce(&mut FileDescriptor, &AtomicU64) -> T,
    ) -> T {
        let mut guard = self.ring_shard(key).lock();
        let shard = &mut *guard;
        let record = shard.records.entry(key.clone()).or_default();
        if record.fd.is_none() {
            shard.patched.insert(key.clone());
        }
        let fd = record.fd.get_or_insert_with(Default::default);
        f(fd, &record.epoch)
    }

    /// Built once per process: every directory descriptor shares this map.
    fn dir_meta() -> Meta {
        static META: OnceLock<Meta> = OnceLock::new();
        META.get_or_init(|| Meta::from([("content-type".into(), "h2/dir".into())]))
            .clone()
    }

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
        self.with_retry(ctx, Ring, "put_descriptor", |ctx| {
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
        let obj = self.with_retry(ctx, Ring, "get_descriptor", |ctx| self.store.get(ctx, &key))?;
        let s = obj
            .payload
            .as_str()
            .ok_or_else(|| H2Error::Corrupt(format!("descriptor {name} not a string")))?;
        formatter::dir_from_str(s)
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
}
