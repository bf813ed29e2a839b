//! The proxy layer (§5.1): a proxy in front of storage nodes keeping three
//! replicas per object. Writes succeed when a majority of replicas land
//! (on deterministic handoff devices when assigned ones are down); reads
//! return the newest replica reachable; a background `repair` pass plays
//! Swift's object replicator, moving handoff copies home and reclaiming
//! tombstones.
//!
//! This file holds the cluster, its fault plane and the [`ObjectStore`]
//! front door. `replica.rs` has the quorum read and the one commit every
//! write goes through; `topology.rs` the published shape, the operator ops
//! and the migrator; `repair.rs` the replicator; `accounts.rs` accounts,
//! containers, the listing index and the catalog; `cas.rs` the block
//! refcounts. The submodules share this file's imports.
//!
//! # Concurrency
//!
//! No whole-cluster lock sits on the object hot path: every
//! [`StorageNode`]'s replica map, the `containers` and `catalog` maps and
//! the CAS refcounts are sharded, and writes take a **per-key op stripe**
//! for the mutate-and-account critical section, so two writers of one key
//! — or a writer racing [`Cluster::repair`] — serialize while other keys
//! proceed. `repair` purges only replicas *not newer than* the version it
//! decided on ([`StorageNode::purge_upto`]), so it never undoes a
//! concurrent write.
//!
//! # The request path
//!
//! A request builds its ring key and hashes it once ([`KeyRef`]); that
//! hash picks the partition, the op stripe, the catalog shard, every node
//! stripe and the bucket inside each map. It loads the cluster's shape —
//! ring, nodes, pending migration, fault injector — as one immutable
//! `Topology` snapshot (one lock, one refcount) and passes it down. A
//! read asks each device for its vote and takes a replica only from a
//! device that beats the best so far ([`StorageNode::probe_newer`]); a
//! write builds one [`Record`] and hands every device a pointer to it.

mod accounts;
mod cas;
mod repair;
mod replica;
#[cfg(test)]
mod tests;
mod topology;

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use h2ring::{DeviceId, Ring, RingBuilder};
use h2util::faults::{
    torn_survivors, FaultDecision, FaultInjector, FaultPlan, FaultStats, OpClass,
};
use h2util::metrics::{Counter, MetricsRegistry};
use h2util::trace::{Note, Stage};
use h2util::trace::{
    CAS_BLOCKS_SHARED, CAS_BLOCKS_WRITTEN, DEDUP_BYTES_SAVED, HEDGED_READS, MIGRATION_DUAL_WRITES,
    MIGRATION_KEYS_COPIED, MIGRATION_PARTS_MOVED, MIGRATION_READ_RESCUES,
};
use h2util::{
    hash64, lock_rank, CostModel, H2Error, OpCtx, OrderedMutex, OrderedRwLock, PrimKind, Result,
};

use crate::container::{ContainerIndex, IndexRecord, ListEntry, ListOptions};
use crate::key::{stripe_of, KeyMap, KeyRef, Keyed, PassThrough, RingKey, WriteKey};
use crate::node::{Record, ReplicaProbe, StorageNode, StoredReplica};
use crate::object::{Meta, Object, ObjectInfo, ObjectKey, Payload};
use crate::ObjectStore;

use accounts::{CatalogShard, ContainerShard, IndexUpdate};
use replica::{install, newest_on, KeySet};
use topology::Topology;

/// Default shard count for the proxy's container/catalog maps and the
/// per-key write stripes. 16 keeps contention negligible for any realistic
/// client-thread count while costing nothing when idle.
pub const DEFAULT_CLUSTER_STRIPES: usize = 16;

/// Reserved account holding content-addressed blocks. The `::` prefix
/// cannot collide with a user account (names come from path components),
/// and registering it like any other account means repair, migration and
/// rebalance treat blocks as ordinary objects for free.
pub const CAS_ACCOUNT: &str = "::cas";

/// The (unindexed) container under [`CAS_ACCOUNT`] where blocks live.
pub const CAS_CONTAINER: &str = "blk";

/// Cluster shape. Defaults follow the paper: 8 storage nodes (each its own
/// zone, like the 8 rack servers), 3 replicas.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub nodes: u16,
    pub replicas: usize,
    pub part_power: u8,
    pub cost: Arc<CostModel>,
    /// Request-level fault plan (chaos harness). `None` (the default)
    /// disables the plane entirely — no draws, byte-identical behavior to
    /// a faultless cluster. Can also be toggled at runtime via
    /// [`Cluster::set_fault_plan`].
    pub faults: Option<FaultPlan>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            replicas: 3,
            part_power: 10,
            cost: Arc::new(CostModel::rack_default()),
            faults: None,
        }
    }
}

impl ClusterConfig {
    /// Zero-latency single-replica config for semantic unit tests.
    pub fn tiny() -> Self {
        ClusterConfig {
            nodes: 4,
            replicas: 1,
            part_power: 6,
            cost: Arc::new(CostModel::zero()),
            faults: None,
        }
    }
}

/// The simulated object storage cloud.
pub struct Cluster {
    /// The current [`Topology`]. A leaf lock: held only to clone the `Arc`
    /// out or to swap a new one in, never across anything else.
    topo: OrderedRwLock<Arc<Topology>>,
    /// Serializes operator topology changes end to end (finish the prior
    /// migration, rebuild, swap). Rank [`lock_rank::TOPOLOGY_OPS`], the
    /// outermost: held across a whole migration's requests.
    topology_ops: OrderedMutex<()>,
    /// Lock-stripe count, remembered so nodes added later match.
    stripes: usize,
    cfg: ClusterConfig,
    accounts: OrderedRwLock<HashSet<String>>,
    /// Container states, sharded by (account, container) hash so listing
    /// and index updates for different containers never contend.
    containers: Box<[ContainerShard]>,
    /// Simulator bookkeeping (not visible to designs): logical catalog of
    /// live objects for Figures 14/15. Maps ring key → logical size,
    /// sharded by ring-key hash.
    catalog: Box<[CatalogShard]>,
    catalog_bytes: AtomicU64,
    /// Per-key write stripes: `op_locks[stripe_of(hash(ring_key), n)]` serializes
    /// mutations (and repair) of the same key without blocking other keys.
    /// Rank [`lock_rank::OP_STRIPE`], the store's outermost request tier:
    /// it must be taken before any node stripe or map shard, and never two
    /// at once (validated at runtime in debug builds).
    op_locks: Box<[OrderedMutex<()>]>,
    /// Millisecond stamp source for writes: strictly increasing.
    ms: AtomicU64,
    /// Eventual-consistency mode for the container listing DB: real Swift
    /// updates container databases *asynchronously* after object writes
    /// (the paper leans on exactly this: "OpenStack Swift … only provides
    /// eventual consistency"). When enabled, index updates queue until
    /// [`Cluster::flush_index_updates`] runs.
    async_index: AtomicBool,
    pending_index: OrderedRwLock<VecDeque<IndexUpdate>>,
    /// Hedged replica reads: probe every assigned device as one parallel
    /// wave (virtual cost = the slowest probe of the wave, not the sum)
    /// and, when the assigned set is suspect, scan the handoffs as a
    /// second parallel hedge wave instead of serially. Same probes in the
    /// same deterministic order — only the charging shape and span
    /// structure change. Off by default; toggled per instance.
    hedged: AtomicBool,
    /// The monitoring registry (see [`Cluster::metrics`]). The counters
    /// below are handles on it, registered under the shared names in
    /// [`h2util::trace`].
    metrics: Arc<MetricsRegistry>,
    /// Reads where the handoff hedge wave fired (hedged mode only).
    hedged_reads: Arc<Counter>,
    /// Partitions the migrator flipped to their new assignment.
    migration_parts_moved: Arc<Counter>,
    /// Replica copies the migrator installed on newly assigned devices.
    migration_keys_copied: Arc<Counter>,
    /// Reads on a pending partition rescued by the old assignment.
    migration_read_rescues: Arc<Counter>,
    /// Acked writes dual-applied to the old assignment while pending.
    migration_dual_writes: Arc<Counter>,
    /// CAS block refcounts, sharded by digest hash: hex digest → number of
    /// direct referrers (manifests and branch blocks). An entry exists iff
    /// the block is live. Rank [`lock_rank::CAS_REFCOUNT`], the store's
    /// innermost request tier: only ever taken briefly under the block's op
    /// stripe and never held across node or map access.
    cas_ref: Box<[OrderedMutex<HashMap<String, u64>>]>,
    /// CAS blocks physically written (fresh content).
    cas_blocks_written: Arc<Counter>,
    /// CAS block puts that deduplicated against an existing block.
    cas_blocks_shared: Arc<Counter>,
    /// Logical bytes that dedup avoided re-writing.
    dedup_bytes_saved: Arc<Counter>,
}

/// The [`Object`] a reader gets for a stored replica: shares the payload
/// and the meta with it.
fn object_of(key: &ObjectKey, r: &StoredReplica) -> Object {
    Object {
        key: key.clone(),
        payload: r.record.payload.clone(),
        meta: r.record.meta.clone(),
        modified_ms: r.modified_ms,
    }
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Arc<Self> {
        Cluster::with_stripes(cfg, DEFAULT_CLUSTER_STRIPES)
    }

    /// Cluster with an explicit lock-stripe count for the proxy maps and
    /// storage-node stores. `stripes == 1` reproduces the seed's
    /// one-big-lock behavior; equivalence tests compare against it.
    pub fn with_stripes(cfg: ClusterConfig, stripes: usize) -> Arc<Self> {
        assert!(cfg.nodes as usize >= cfg.replicas, "need nodes >= replicas");
        assert!(stripes >= 1, "need at least one stripe");
        let mut rb = RingBuilder::new(cfg.part_power, cfg.replicas);
        let mut nodes = Vec::with_capacity(cfg.nodes as usize);
        for i in 0..cfg.nodes {
            // One zone per node, like one rack server per failure domain.
            rb.add_device(DeviceId(i), (i % u8::MAX as u16) as u8, 1.0);
            nodes.push(Arc::new(StorageNode::with_stripes(
                DeviceId(i),
                i as u8,
                stripes,
            )));
        }
        let fault = cfg
            .faults
            .clone()
            .filter(FaultPlan::is_active)
            .map(|p| Arc::new(FaultInjector::new(p)));
        let metrics = Arc::new(MetricsRegistry::new());
        let cluster = Arc::new(Cluster {
            topo: OrderedRwLock::new(
                lock_rank::LEAF,
                "objectstore.topology",
                Arc::new(Topology {
                    ring: Arc::new(rb.build()),
                    nodes,
                    migration: None,
                    fault,
                }),
            ),
            topology_ops: OrderedMutex::new(
                lock_rank::TOPOLOGY_OPS,
                "objectstore.topology_ops",
                (),
            ),
            stripes,
            cfg,
            accounts: OrderedRwLock::new(lock_rank::LEAF, "objectstore.accounts", HashSet::new()),
            containers: (0..stripes)
                .map(|_| {
                    OrderedRwLock::new(
                        lock_rank::MAP_SHARD,
                        "objectstore.container_shard",
                        HashMap::new(),
                    )
                })
                .collect(),
            catalog: (0..stripes)
                .map(|_| {
                    OrderedRwLock::new(
                        lock_rank::MAP_SHARD,
                        "objectstore.catalog_shard",
                        KeyMap::default(),
                    )
                })
                .collect(),
            catalog_bytes: AtomicU64::new(0),
            op_locks: (0..stripes)
                .map(|_| OrderedMutex::new(lock_rank::OP_STRIPE, "objectstore.op_stripe", ()))
                .collect(),
            ms: AtomicU64::new(1_600_000_000_000),
            async_index: AtomicBool::new(false),
            pending_index: OrderedRwLock::new(
                lock_rank::LEAF,
                "objectstore.pending_index",
                VecDeque::new(),
            ),
            hedged: AtomicBool::new(false),
            hedged_reads: metrics.counter(HEDGED_READS),
            migration_parts_moved: metrics.counter(MIGRATION_PARTS_MOVED),
            migration_keys_copied: metrics.counter(MIGRATION_KEYS_COPIED),
            migration_read_rescues: metrics.counter(MIGRATION_READ_RESCUES),
            migration_dual_writes: metrics.counter(MIGRATION_DUAL_WRITES),
            cas_ref: (0..stripes)
                .map(|_| {
                    OrderedMutex::new(
                        lock_rank::CAS_REFCOUNT,
                        "objectstore.cas_refcount",
                        HashMap::new(),
                    )
                })
                .collect(),
            cas_blocks_written: metrics.counter(CAS_BLOCKS_WRITTEN),
            cas_blocks_shared: metrics.counter(CAS_BLOCKS_SHARED),
            dedup_bytes_saved: metrics.counter(DEDUP_BYTES_SAVED),
            metrics,
        });
        // The reserved block namespace exists from birth so repair and
        // migration treat CAS blocks like any other account's objects.
        cluster
            .create_account(CAS_ACCOUNT)
            .expect("fresh cluster: reserved CAS account");
        cluster
            .create_container(CAS_ACCOUNT, CAS_CONTAINER, false)
            .expect("fresh cluster: reserved CAS container");
        cluster
    }

    /// Enable or disable hedged replica reads (see the `hedged` field).
    pub fn set_hedged_reads(&self, on: bool) {
        self.hedged.store(on, Ordering::Relaxed);
    }

    /// The monitoring registry (the paper's §4.2 system monitoring): the
    /// cluster's own counters — hedged reads, migration progress, CAS
    /// dedup — count straight into it, and every middleware layered over
    /// this cluster reports into the same one.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Install (or clear) the request-level fault plan at runtime. Chaos
    /// tests disable the plane (`None`) before their clean reconciliation
    /// phase so the final convergence pump runs faultless; replica faults
    /// must be off before running [`Cluster::repair`] when seeded replay
    /// matters (repair's sweep order is nondeterministic).
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let fault = plan
            .filter(FaultPlan::is_active)
            .map(|p| Arc::new(FaultInjector::new(p)));
        self.publish(|t| Topology { fault, ..t.clone() });
    }

    /// Snapshot of what the active injector has done so far (`None` when
    /// the fault plane is disabled). Chaos tests compare this across runs
    /// to assert byte-identical replay.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.topology().fault().map(FaultInjector::stats)
    }

    /// Default rack (8 nodes × 3 replicas, calibrated costs).
    pub fn rack() -> Arc<Self> {
        Cluster::new(ClusterConfig::default())
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
    pub fn cost_model(&self) -> Arc<CostModel> {
        self.cfg.cost.clone()
    }

    fn next_ms(&self) -> u64 {
        self.ms.fetch_add(1, Ordering::Relaxed)
    }
    fn op_lock(&self, hash: u64) -> &OrderedMutex<()> {
        &self.op_locks[stripe_of(hash, self.op_locks.len())]
    }

    /// Failure injection: take a storage node down / bring it back.
    pub fn set_node_down(&self, id: DeviceId, down: bool) {
        self.topology().node(id).set_down(down);
    }

    /// Consult the fault plane for one front-door request. `Ok(None)`:
    /// proceed normally (latency inflation, if drawn, is already charged).
    /// `Ok(Some(k))`: a write request must tear — apply at most `k` replica
    /// placements, then report failure. `Err`: fail up front, no state
    /// touched.
    fn fault_gate(
        &self,
        ctx: &mut OpCtx,
        topo: &Topology,
        class: OpClass,
        target: &str,
    ) -> Result<Option<usize>> {
        let Some(inj) = topo.fault() else {
            return Ok(None);
        };
        match inj.decide(class) {
            FaultDecision::Clean => Ok(None),
            FaultDecision::Slow(d) => {
                ctx.span_note("slow_us", || Note::U64(d.as_micros() as u64));
                ctx.charge_time(d);
                Ok(None)
            }
            FaultDecision::Error => {
                ctx.span_note("fault_error", || Note::Str(class.label()));
                Err(H2Error::Unavailable(format!(
                    "injected {} fault for {target}",
                    class.label()
                )))
            }
            FaultDecision::Torn { raw } => {
                let cap = torn_survivors(raw, self.cfg.replicas);
                ctx.span_note("torn_cap", || Note::U64(cap as u64));
                Ok(Some(cap))
            }
        }
    }

    /// [`ObjectStore::put`] that also returns the version stamp the write
    /// landed with, so a caller can tell a later read of this very copy
    /// (same stamp) from a read of someone else's write.
    pub fn put_stamped(
        &self,
        ctx: &mut OpCtx,
        key: &ObjectKey,
        payload: Payload,
        meta: Meta,
    ) -> Result<u64> {
        self.write_object(ctx, key, payload, meta, false)
            .map(|(ms, _)| ms)
    }

    /// The PUT behind [`Cluster::put_stamped`] and
    /// [`Cluster::put_returning_prev`]: replicate one new version under the
    /// key's op stripe, then account for it. With `read_prev` the live
    /// version it displaces is read first, inside the same critical
    /// section, and returned.
    fn write_object(
        &self,
        ctx: &mut OpCtx,
        key: &ObjectKey,
        payload: Payload,
        meta: Meta,
        read_prev: bool,
    ) -> Result<(u64, Option<StoredReplica>)> {
        self.check_container(key)?;
        let ring_key = key.ring_key();
        let at = KeyRef::new(&ring_key);
        ctx.span(Stage::Cloud, "PUT", |ctx| {
            ctx.span_note("key", || Note::Text(ring_key.as_str().into()));
            let topo = self.topology();
            let torn = self.fault_gate(ctx, &topo, OpClass::Put, &ring_key)?;
            let size = payload.len();
            ctx.charge(PrimKind::Put, Duration::ZERO);
            let record = Record::new(payload, meta);
            let _guard = self.op_lock(at.hash).lock();
            let prev = if read_prev {
                // h2lint: allow(guard-across-blocking): the per-key op stripe serializes the read-modify-write (read prev + replicate + catalog + index) by design; only same-key ops wait.
                ctx.span(Stage::Quorum, "read-replicas", |ctx| {
                    self.read_replica(ctx, &topo, at)
                })?
            } else {
                None
            };
            let replica = StoredReplica::live(record, self.next_ms(), false);
            let cost = self.cfg.cost.put_cost(size as usize);
            self.commit(ctx, &topo, at, &replica, cost, torn)?;
            self.index_upsert(ctx, key, size, replica.modified_ms, &replica.record.meta);
            Ok((replica.modified_ms, prev))
        })
    }

    /// The DELETE behind [`ObjectStore::delete`] and
    /// [`Cluster::delete_returning_prev`]: tombstone the key under its op
    /// stripe and return the live version the tombstone displaced. A
    /// missing object is NotFound.
    fn delete_object(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<StoredReplica> {
        self.check_container(key)?;
        let ring_key = key.ring_key();
        let at = KeyRef::new(&ring_key);
        ctx.span(Stage::Cloud, "DELETE", |ctx| {
            ctx.span_note("key", || Note::Text(ring_key.as_str().into()));
            let topo = self.topology();
            let torn = self.fault_gate(ctx, &topo, OpClass::Delete, &ring_key)?;
            let _guard = self.op_lock(at.hash).lock();
            // h2lint: allow(guard-across-blocking): the per-key op stripe serializes the read-modify-write (read prev + tombstone + catalog) by design; only same-key ops wait.
            let existing = ctx.span(Stage::Quorum, "read-replicas", |ctx| {
                self.read_replica(ctx, &topo, at)
            })?;
            let Some(existing) = existing else {
                ctx.charge(PrimKind::Delete, self.cfg.cost.delete_cost());
                // An earlier torn delete may have tombstoned every replica
                // without reaching the catalog; absence is now confirmed, so
                // heal that divergence (a no-op in the common case).
                self.catalog_remove(at);
                return Err(H2Error::NotFound(ring_key.clone()));
            };
            let tombstone = StoredReplica::tombstone(self.next_ms());
            ctx.charge(PrimKind::Delete, Duration::ZERO);
            self.commit(
                ctx,
                &topo,
                at,
                &tombstone,
                self.cfg.cost.delete_cost(),
                torn,
            )?;
            self.index_remove(ctx, key);
            Ok(existing)
        })
    }

    /// One HEAD on a loaded topology: the body [`ObjectStore::head`] runs,
    /// and every item of [`Cluster::head_many`]. NotFound when no reachable
    /// device holds a live version.
    fn head_at(&self, ctx: &mut OpCtx, topo: &Topology, at: KeyRef<'_>) -> Result<StoredReplica> {
        ctx.span(Stage::Cloud, "HEAD", |ctx| {
            ctx.span_note("key", || Note::Text(at.text.into()));
            ctx.charge(PrimKind::Head, self.cfg.cost.head_cost());
            self.fault_gate(ctx, topo, OpClass::Head, at.text)?;
            let found = ctx.span(Stage::Quorum, "read-replicas", |ctx| {
                self.read_replica(ctx, topo, at)
            })?;
            found.ok_or_else(|| H2Error::NotFound(at.text.to_string()))
        })
    }

    /// HEAD `/{account}/{container}/{prefix}{name}` for each of `names`, as
    /// one [`OpCtx::parallel`] fan-out: the stamp of each object, `None`
    /// where it does not exist. The batch checks the container once, loads
    /// the topology once and builds every key in one buffer; item `i` then
    /// runs exactly what [`ObjectStore::head`] runs for name `i`, so the
    /// requests, virtual time and fault draws are those of a loop of `head`
    /// calls inside one `parallel` section. A missing container is
    /// NotFound, as for `head`; after that, any error but an object's
    /// NotFound aborts the batch.
    pub fn head_many<I>(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        container: &str,
        prefix: impl std::fmt::Display,
        names: I,
    ) -> Result<Vec<Option<u64>>>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: AsRef<str>,
    {
        self.check_container_of(account, container)?;
        let topo = self.topology();
        let mut names = names.into_iter();
        let mut stamps = Vec::with_capacity(names.len());
        let mut key = String::new();
        write!(key, "/{account}/{container}/{prefix}").expect("formatting into a String");
        let stem = key.len();
        ctx.parallel(names.len(), |ctx, _| {
            let name = names
                .next()
                .expect("an exact-size iterator yields len() items");
            key.truncate(stem);
            key.push_str(name.as_ref());
            stamps.push(match self.head_at(ctx, &topo, KeyRef::new(&key)) {
                Ok(r) => Some(r.modified_ms),
                Err(H2Error::NotFound(_)) => None,
                Err(e) => return Err(e),
            });
            Ok(())
        })?;
        Ok(stamps)
    }

    /// [`ObjectStore::put`] that atomically returns the live object it
    /// displaced (`None` on first write). The read-modify-write runs under
    /// the key's op stripe, so two racing overwrites each observe exactly
    /// the generation they displaced — the CAS layer relies on this to
    /// decref each displaced manifest's blocks exactly once.
    pub fn put_returning_prev(
        &self,
        ctx: &mut OpCtx,
        key: &ObjectKey,
        payload: Payload,
        meta: Meta,
    ) -> Result<Option<Object>> {
        let (_, prev) = self.write_object(ctx, key, payload, meta, true)?;
        Ok(prev.map(|r| object_of(key, &r)))
    }

    /// [`ObjectStore::delete`] that atomically returns the object the
    /// tombstone displaced. Missing object is NotFound exactly like
    /// `delete`, which also makes a retried CAS delete idempotent: the
    /// second attempt finds nothing and therefore decrefs nothing.
    pub fn delete_returning_prev(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<Object> {
        self.delete_object(ctx, key).map(|r| object_of(key, &r))
    }
}

impl ObjectStore for Cluster {
    fn put(&self, ctx: &mut OpCtx, key: &ObjectKey, payload: Payload, meta: Meta) -> Result<()> {
        self.put_stamped(ctx, key, payload, meta).map(|_| ())
    }

    fn get(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<Object> {
        self.check_container(key)?;
        let ring_key = key.ring_key();
        let at = KeyRef::new(&ring_key);
        ctx.span(Stage::Cloud, "GET", |ctx| {
            ctx.span_note("key", || Note::Text(ring_key.as_str().into()));
            let topo = self.topology();
            self.fault_gate(ctx, &topo, OpClass::Get, &ring_key)?;
            let found = ctx.span(Stage::Quorum, "read-replicas", |ctx| {
                let r = self.read_replica(ctx, &topo, at)?;
                let len = r.as_ref().map_or(0, |r| r.record.payload.len() as usize);
                ctx.charge(PrimKind::Get, self.cfg.cost.get_cost(len));
                Ok(r)
            })?;
            match found {
                Some(r) => Ok(object_of(key, &r)),
                None => Err(H2Error::NotFound(ring_key.clone())),
            }
        })
    }

    fn head(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<ObjectInfo> {
        self.check_container(key)?;
        let ring_key = key.ring_key();
        let r = self.head_at(ctx, &self.topology(), KeyRef::new(&ring_key))?;
        Ok(ObjectInfo {
            size: r.record.payload.len(),
            etag: r.record.etag(),
            meta: r.record.meta.clone(),
            modified_ms: r.modified_ms,
        })
    }

    fn delete(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<()> {
        self.delete_object(ctx, key).map(|_| ())
    }

    fn copy(&self, ctx: &mut OpCtx, src: &ObjectKey, dst: &ObjectKey) -> Result<()> {
        self.check_container(src)?;
        self.check_container(dst)?;
        let src_key = src.ring_key();
        let dst_key = dst.ring_key();
        let (src_at, dst_at) = (KeyRef::new(&src_key), KeyRef::new(&dst_key));
        ctx.span(Stage::Cloud, "COPY", |ctx| {
            ctx.span_note("src", || Note::Text(src_key.as_str().into()));
            ctx.span_note("dst", || Note::Text(dst_key.as_str().into()));
            let topo = self.topology();
            let torn = self.fault_gate(ctx, &topo, OpClass::Copy, &src_key)?;
            let found = ctx.span(Stage::Quorum, "read-replicas", |ctx| {
                self.read_replica(ctx, &topo, src_at)
            })?;
            let Some(r) = found else {
                ctx.charge(PrimKind::Copy, self.cfg.cost.copy_cost(0));
                return Err(H2Error::NotFound(src_key.clone()));
            };
            let size = r.record.payload.len();
            ctx.charge(PrimKind::Copy, self.cfg.cost.copy_cost(size as usize));
            let _guard = self.op_lock(dst_at.hash).lock();
            // The copy is a new version of the same content: it shares the
            // source's record.
            let replica = StoredReplica::live(r.record, self.next_ms(), false);
            // h2lint: allow(guard-across-blocking): the destination op stripe serializes the copy's write half by design; only same-key ops wait.
            self.commit(ctx, &topo, dst_at, &replica, Duration::ZERO, torn)?;
            self.index_upsert(ctx, dst, size, replica.modified_ms, &replica.record.meta);
            Ok(())
        })
    }

    fn list(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        container: &str,
        opts: &ListOptions,
    ) -> Result<Vec<ListEntry>> {
        ctx.span(Stage::Cloud, "LIST", |ctx| {
            ctx.span_note("account", || Note::Text(account.into()));
            ctx.span_note("container", || Note::Text(container.into()));
            self.fault_gate(ctx, &self.topology(), OpClass::List, container)?;
            // The shard guard is scoped to the index walk: the virtual-time
            // charges below must not run with the container shard held.
            let (rows, index_len) = self
                .with_container(account, container, |state| {
                    if !state.indexed {
                        return Err(H2Error::Unsupported(
                            "container has no listing index (created unindexed)",
                        ));
                    }
                    Ok((state.index.list(opts), state.index.len() as u64))
                })
                .ok_or_else(|| H2Error::NotFound(format!("container {account}/{container}")))??;
            ctx.charge(PrimKind::DbQuery, self.cfg.cost.db_query_cost(index_len));
            ctx.charge_time(self.cfg.cost.per_entry_cpu * rows.len() as u32);
            Ok(rows)
        })
    }
}
