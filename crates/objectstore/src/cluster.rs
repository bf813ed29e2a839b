//! The proxy layer: ring placement, quorum replication, handoffs, repair.
//!
//! Mirrors the paper's deployment (§5.1): a proxy in front of storage nodes
//! keeping three replicas per object. Writes succeed when a majority of
//! replicas land (writing to deterministic handoff devices when assigned
//! ones are down); reads return the newest replica reachable; a background
//! `repair` pass plays the role of Swift's object replicator, moving handoff
//! copies home and reclaiming tombstones.
//!
//! # Concurrency
//!
//! The cluster is safe to drive from many client threads at once and holds
//! no whole-cluster lock on the object hot path:
//!
//! * every [`StorageNode`]'s replica map is lock-striped internally;
//! * the proxy's `containers` and `catalog` maps are split into shards,
//!   each behind its own lock, keyed by container / ring-key hash;
//! * writes (`put`/`delete`/`copy`-destination) take a **per-key op
//!   stripe** for the mutate-and-account critical section, so two writers
//!   of the same key — or a writer racing [`Cluster::repair`] — serialize,
//!   while writers of different keys proceed in parallel.
//!
//! `repair` takes the same per-key op stripe for each key it reconciles and
//! only ever purges replicas *not newer than* the version it decided on
//! ([`StorageNode::purge_upto`]), so a concurrent write can never be undone
//! by the replicator.
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

use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use h2ring::{DeviceId, Ring, RingBuilder};
use h2util::faults::{
    torn_survivors, FaultDecision, FaultInjector, FaultPlan, FaultStats, OpClass,
};
use h2util::lockorder::OrderedMutexGuard;
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

#[derive(Debug)]
struct ContainerState {
    indexed: bool,
    index: ContainerIndex,
}

/// Account → container → state: both levels are looked up by `&str`, so a
/// request checks its container without building a key.
type ContainerShard = OrderedRwLock<HashMap<String, HashMap<String, ContainerState>>>;
type CatalogShard = OrderedRwLock<KeyMap<u64>>;

/// An in-flight live rebalance. Created atomically with a ring swap; the
/// previous ring keeps serving as a *handoff source* for every partition
/// whose assignment changed until the migrator flips it:
///
/// * reads on a pending partition extend their handoff scan with the old
///   assignment (data may not have been copied yet);
/// * acked writes on a pending partition dual-apply to the old assignment
///   (so the old copies never serve stale);
/// * [`Cluster::migrate_step`] copies each pending partition's newest
///   versions onto the new assignment under the per-key op stripe, then
///   flips the partition (removes it from `pending`).
struct Migration {
    /// The ring that was live before the swap.
    old_ring: Arc<Ring>,
    /// Partitions whose replica set changed and have not been flipped yet.
    pending: OrderedMutex<HashSet<u64>>,
    /// Partition count at swap time (progress reporting).
    total: usize,
}

/// The cluster's shape as one immutable value. Every request loads the
/// current one once, at entry, and works on it throughout; whoever changes
/// any part publishes a whole new value ([`Cluster::publish`]). Readers
/// therefore never see a ring without the migration record that goes with
/// it, or a device id without its node.
#[derive(Clone)]
struct Topology {
    /// Placement ring, replaced by the topology ops ([`Cluster::add_node`]
    /// / [`Cluster::drain_node`] / [`Cluster::set_weight`]).
    ring: Arc<Ring>,
    /// Storage nodes, append-only: `nodes[id.0]` is the device's node
    /// forever — drained devices leave the ring but keep their node (and
    /// any not-yet-migrated replicas) until migration/repair empties it.
    nodes: Vec<Arc<StorageNode>>,
    /// In-flight rebalance, if any (see [`Migration`]).
    migration: Option<Arc<Migration>>,
    /// Active request-level fault injector: one deterministic draw stream
    /// for front-door decisions and per-replica faults alike. `None` =
    /// fault plane disabled.
    fault: Option<Arc<FaultInjector>>,
}

impl Topology {
    fn node(&self, id: DeviceId) -> &StorageNode {
        &self.nodes[id.0 as usize]
    }

    fn fault(&self) -> Option<&FaultInjector> {
        self.fault.as_deref()
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
    async_index: std::sync::atomic::AtomicBool,
    pending_index: OrderedRwLock<std::collections::VecDeque<IndexUpdate>>,
    /// Hedged replica reads: probe every assigned device as one parallel
    /// wave (virtual cost = the slowest probe of the wave, not the sum)
    /// and, when the assigned set is suspect, scan the handoffs as a
    /// second parallel hedge wave instead of serially. Same probes in the
    /// same deterministic order — only the charging shape and span
    /// structure change. Off by default; toggled per instance.
    hedged: std::sync::atomic::AtomicBool,
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

/// A deferred container-DB update.
#[derive(Debug, Clone)]
enum IndexUpdate {
    Upsert {
        key: ObjectKey,
        size: u64,
        ms: u64,
        ctype: String,
    },
    Remove {
        key: ObjectKey,
    },
}

/// What a quorum read has learnt so far. Votes are folded in as each device
/// answers, in device order, so the serial and the hedged execution shape
/// produce byte-identical results.
#[derive(Default)]
struct Quorum {
    /// Newest replica seen; the first device to report a stamp keeps it.
    best: Option<StoredReplica>,
    /// Devices that could be asked at all.
    reachable: usize,
    /// An assigned device was down or drew a fault.
    assigned_down: bool,
    /// An injected fault hid an assigned device's answer.
    replica_faulted: bool,
    /// The answer every up assigned device has given so far (inner `None`:
    /// "I hold nothing"); outer `None` until the first one answers.
    agreed: Option<Option<u64>>,
    /// Two up assigned devices answered differently.
    split: bool,
}

impl Quorum {
    fn best_ms(&self) -> Option<u64> {
        self.best.as_ref().map(|r| r.modified_ms)
    }

    /// Fold in one device's vote. An assigned device's answer also counts
    /// toward agreement; a handoff only toward reachability.
    fn hear(&mut self, vote: ReplicaProbe, handoff: bool) {
        let stamp = match vote {
            ReplicaProbe::Down => {
                self.assigned_down |= !handoff;
                return;
            }
            ReplicaProbe::Faulted => {
                self.assigned_down = true;
                self.replica_faulted = true;
                return;
            }
            ReplicaProbe::Miss => None,
            ReplicaProbe::Hit { modified_ms, .. } => Some(modified_ms),
        };
        self.reachable += 1;
        if !handoff {
            self.split |= *self.agreed.get_or_insert(stamp) != stamp;
        }
    }

    /// Whether the assigned set might be stale: a device could not be
    /// asked, nothing was found, or the up devices do not all hold the
    /// same version.
    fn assigned_suspect(&self) -> bool {
        self.assigned_down || self.best.is_none() || self.split
    }
}

/// Run `probe` for devices `0..k` in index order: as one parallel wave when
/// `hedged` (the read waits for the slowest probe of the wave, not their
/// sum), serially otherwise. Same probes, same order, same fault draws
/// either way — [`OpCtx::parallel`] executes its items in index order and
/// only *charges* them as concurrent.
fn wave(
    ctx: &mut OpCtx,
    hedged: bool,
    k: usize,
    mut probe: impl FnMut(&mut OpCtx, usize),
) -> Result<()> {
    if hedged {
        ctx.parallel(k, |ctx, i| {
            probe(ctx, i);
            Ok(())
        })
    } else {
        (0..k).for_each(|i| probe(ctx, i));
        Ok(())
    }
}

/// Ring keys seen by a sweep over the devices (repair, migration).
type KeySet = HashSet<RingKey, std::hash::BuildHasherDefault<PassThrough>>;

/// Newest version of `key` (tombstones included) on the reachable ones of
/// `nodes`; the first device holding the newest stamp supplies it.
fn newest_on<'a>(
    nodes: impl Iterator<Item = &'a StorageNode>,
    key: KeyRef<'_>,
) -> Option<StoredReplica> {
    let mut newest: Option<StoredReplica> = None;
    for n in nodes {
        let than = newest.as_ref().map(|r| r.modified_ms);
        if let (Some(r), _) = n.probe_newer(key, than, None) {
            newest = Some(r);
        }
    }
    newest
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
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            catalog: (0..stripes)
                .map(|_| {
                    OrderedRwLock::new(
                        lock_rank::MAP_SHARD,
                        "objectstore.catalog_shard",
                        KeyMap::default(),
                    )
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            catalog_bytes: AtomicU64::new(0),
            op_locks: (0..stripes)
                .map(|_| OrderedMutex::new(lock_rank::OP_STRIPE, "objectstore.op_stripe", ()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            ms: AtomicU64::new(1_600_000_000_000),
            async_index: std::sync::atomic::AtomicBool::new(false),
            pending_index: OrderedRwLock::new(
                lock_rank::LEAF,
                "objectstore.pending_index",
                std::collections::VecDeque::new(),
            ),
            hedged: std::sync::atomic::AtomicBool::new(false),
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
                .collect::<Vec<_>>()
                .into_boxed_slice(),
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

    /// Switch the container listing DB to asynchronous (eventually
    /// consistent) updates, like real Swift's container updaters.
    pub fn set_async_index(&self, on: bool) {
        self.async_index.store(on, Ordering::Relaxed);
    }

    /// Apply all queued container-DB updates. Returns how many were
    /// applied — the moral equivalent of Swift's container-updater daemon
    /// catching up.
    pub fn flush_index_updates(&self) -> usize {
        let drained: Vec<IndexUpdate> = self.pending_index.write().drain(..).collect();
        let n = drained.len();
        for u in drained {
            match u {
                IndexUpdate::Upsert {
                    key,
                    size,
                    ms,
                    ctype,
                } => self.index_apply_upsert(&key, size, ms, &ctype),
                IndexUpdate::Remove { key } => {
                    self.index_apply_remove(&key);
                }
            }
        }
        n
    }

    /// Queued (not yet applied) container-DB updates.
    pub fn pending_index_updates(&self) -> usize {
        self.pending_index.read().len()
    }

    /// Default rack (8 nodes × 3 replicas, calibrated costs).
    pub fn rack() -> Arc<Self> {
        Cluster::new(ClusterConfig::default())
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Snapshot of the current placement ring. Stable for the caller's
    /// lifetime even across a concurrent rebalance — operations that need
    /// placement coherence take one snapshot and use it throughout.
    pub fn ring(&self) -> Arc<Ring> {
        self.topology().ring.clone()
    }

    /// The current topology snapshot: what a request loads once, at entry.
    fn topology(&self) -> Arc<Topology> {
        self.topo.read().clone()
    }

    /// Replace the topology with `next(current)`, atomically with respect
    /// to every other publisher. Because a reader only ever holds one
    /// whole snapshot, whatever `next` changes together becomes visible
    /// together.
    fn publish(&self, next: impl FnOnce(&Topology) -> Topology) {
        let mut cur = self.topo.write();
        *cur = Arc::new(next(&cur));
    }

    pub fn cost_model(&self) -> Arc<CostModel> {
        self.cfg.cost.clone()
    }

    fn next_ms(&self) -> u64 {
        self.ms.fetch_add(1, Ordering::Relaxed)
    }

    fn container_shard(&self, account: &str, container: &str) -> &ContainerShard {
        let h = hash64(account.as_bytes()) ^ hash64(container.as_bytes()).rotate_left(1);
        &self.containers[h as usize % self.containers.len()]
    }

    fn catalog_shard(&self, hash: u64) -> &CatalogShard {
        &self.catalog[stripe_of(hash, self.catalog.len())]
    }

    fn op_lock(&self, hash: u64) -> &OrderedMutex<()> {
        &self.op_locks[stripe_of(hash, self.op_locks.len())]
    }

    /// Failure injection: take a storage node down / bring it back.
    pub fn set_node_down(&self, id: DeviceId, down: bool) {
        self.topology().node(id).set_down(down);
    }

    // ----- elastic topology ------------------------------------------------

    /// Install `new_ring` (and the node of a device it adds) and register
    /// the partitions whose assignment changed as a pending migration — in
    /// one publish, so any operation that sees the new ring also sees the
    /// pending set and the old assignment to fall back on. Callers hold
    /// the topology-ops lock, so the ring cannot change under them.
    fn swap_ring(&self, new_ring: Ring, added: Option<Arc<StorageNode>>) {
        let old_ring = self.ring();
        let changed = old_ring.changed_parts(&new_ring);
        let migration = Arc::new(Migration {
            old_ring,
            total: changed.len(),
            pending: OrderedMutex::new(
                lock_rank::LEAF,
                "objectstore.migration_pending",
                changed.into_iter().collect(),
            ),
        });
        self.publish(|t| Topology {
            ring: Arc::new(new_ring),
            nodes: t.nodes.iter().cloned().chain(added).collect(),
            migration: Some(migration),
            fault: t.fault.clone(),
        });
    }

    /// Drop `mig` from the topology once its pending set has drained (a
    /// no-op if a later rebalance already replaced it); the old ring then
    /// becomes garbage.
    fn retire_migration(&self, mig: &Arc<Migration>) {
        self.publish(|t| Topology {
            migration: t.migration.clone().filter(|m| !Arc::ptr_eq(m, mig)),
            ..t.clone()
        });
    }

    /// Topology-op preamble: serialize against other operator ops and
    /// finish any rebalance already in flight — stacking a second ring
    /// swap on top of an unfinished migration would lose the old-ring
    /// fallback for its still-pending partitions.
    fn topology_guard(&self) -> Result<OrderedMutexGuard<'_, ()>> {
        let guard = self.topology_ops.lock();
        self.migrate_all();
        if self.migration_active() {
            return Err(H2Error::Unavailable(
                "previous rebalance incomplete (devices down?); retry after repair".to_string(),
            ));
        }
        Ok(guard)
    }

    /// Operator op: add a storage device in `zone` with `weight` and
    /// rebalance onto it. Returns the new device's id. Only partitions
    /// whose rendezvous winner changed start migrating (bounded movement);
    /// reads and writes keep working throughout via the pending-partition
    /// fallbacks.
    pub fn add_node(&self, zone: u8, weight: f64) -> Result<DeviceId> {
        if weight.is_nan() || weight <= 0.0 {
            return Err(H2Error::Conflict(format!(
                "device weight must be positive, got {weight}"
            )));
        }
        let _t = self.topology_guard()?;
        let topo = self.topology();
        let id = DeviceId(topo.nodes.len() as u16);
        let node = Arc::new(StorageNode::with_stripes(id, zone, self.stripes));
        let new_ring = topo.ring.rebuild(|b| {
            b.add_device(id, zone, weight);
        });
        self.swap_ring(new_ring, Some(node));
        Ok(id)
    }

    /// Operator op: remove a device from the ring and migrate its
    /// partitions away. The device object stays addressable (its replicas
    /// are drained by migration and `repair`, not dropped), it just stops
    /// being assigned new data.
    pub fn drain_node(&self, id: DeviceId) -> Result<()> {
        let _t = self.topology_guard()?;
        let ring = self.ring();
        if !ring.devices().iter().any(|d| d.id == id) {
            return Err(H2Error::NotFound(format!("device {} not in ring", id.0)));
        }
        if ring.devices().len() <= ring.replicas() {
            return Err(H2Error::Conflict(format!(
                "cannot drain device {}: ring would fall below {} devices",
                id.0,
                ring.replicas()
            )));
        }
        let new_ring = ring.rebuild(|b| {
            b.remove_device(id);
        });
        self.swap_ring(new_ring, None);
        Ok(())
    }

    /// Operator op: change a device's weight and rebalance. A weight of 0
    /// (or below) is an explicit drain request and behaves exactly like
    /// [`Cluster::drain_node`] — the ring builder rejects non-positive
    /// weights, and "assigned but weightless" has no useful meaning.
    pub fn set_weight(&self, id: DeviceId, weight: f64) -> Result<()> {
        if weight <= 0.0 {
            return self.drain_node(id);
        }
        let _t = self.topology_guard()?;
        let ring = self.ring();
        if !ring.devices().iter().any(|d| d.id == id) {
            return Err(H2Error::NotFound(format!("device {} not in ring", id.0)));
        }
        let new_ring = ring.rebuild(|b| {
            b.set_weight(id, weight);
        });
        self.swap_ring(new_ring, None);
        Ok(())
    }

    /// One throttled migrator round: copy-then-flip up to `max_parts`
    /// pending partitions, lowest partition number first (deterministic).
    /// Returns how many partitions flipped. A partition only flips once
    /// every key it holds has its newest version on a quorum of the *new*
    /// assignment — a partition blocked by down devices stays pending (its
    /// reads keep falling back to the old assignment) and is retried on a
    /// later round. When the pending set drains, the migration record is
    /// dropped and the old ring becomes garbage.
    pub fn migrate_step(&self, max_parts: usize) -> usize {
        let topo = self.topology();
        let Some(mig) = topo.migration.clone() else {
            return 0;
        };
        let batch: Vec<u64> = {
            let pending = mig.pending.lock();
            let mut v: Vec<u64> = pending.iter().copied().collect();
            v.sort_unstable();
            v.truncate(max_parts);
            v
        };
        if batch.is_empty() {
            self.retire_migration(&mig);
            return 0;
        }
        // Union of keys anywhere (old assignment included — those devices
        // may already be out of the new ring), grouped by partition.
        let batch_set: HashSet<u64> = batch.iter().copied().collect();
        let mut by_part: HashMap<u64, Vec<RingKey>> = HashMap::new();
        let mut seen: KeySet = KeySet::default();
        for n in &topo.nodes {
            for key in n.keys() {
                let part = topo.ring.partition_of_hash(key.at().hash);
                if batch_set.contains(&part) && seen.insert(key.clone()) {
                    by_part.entry(part).or_default().push(key);
                }
            }
        }
        let mut flipped = 0usize;
        for part in batch {
            let mut keys = by_part.remove(&part).unwrap_or_default();
            keys.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
            if self.migrate_partition(&topo, &mig, part, &keys) {
                mig.pending.lock().remove(&part);
                self.migration_parts_moved.incr();
                flipped += 1;
            }
        }
        if mig.pending.lock().is_empty() {
            self.retire_migration(&mig);
        }
        flipped
    }

    /// Drive the migrator until it can make no more progress. Returns how
    /// many partitions flipped. `migration_active()` afterwards means some
    /// partitions are blocked on unreachable devices.
    pub fn migrate_all(&self) -> usize {
        let mut total = 0usize;
        loop {
            let n = self.migrate_step(usize::MAX);
            total += n;
            if n == 0 {
                break;
            }
        }
        total
    }

    /// Copy one partition's keys onto the new assignment. Returns whether
    /// the partition may flip (every key reached quorum on the new
    /// assignment). Each key is reconciled under its op stripe — the same
    /// lock client writers hold — so the copy never races a write to the
    /// same key; writes to *other* keys of the partition land on the new
    /// assignment directly (plus the dual-apply) and need no copy.
    fn migrate_partition(
        &self,
        topo: &Topology,
        mig: &Migration,
        part: u64,
        keys: &[RingKey],
    ) -> bool {
        let new_assigned = topo.ring.devices_for_part(part);
        let old_assigned = mig.old_ring.devices_for_part(part);
        let quorum = self.cfg.replicas / 2 + 1;
        let mut can_flip = true;
        for key in keys {
            let at = key.at();
            let _guard = self.op_lock(at.hash).lock();
            // Racing `delete_account`: replicas of a dead account are
            // garbage, not data to migrate — `repair` purges them.
            if !self.account_of_key_exists(key) {
                continue;
            }
            // Newest version across both assignments (incl. tombstones).
            let devs = old_assigned.iter().chain(new_assigned);
            let Some(newest) = newest_on(devs.map(|&d| topo.node(d)), at) else {
                continue;
            };
            let mut holders = 0usize;
            for &dev in new_assigned {
                let n = topo.node(dev);
                if n.is_down() {
                    continue;
                }
                if n.stamp(at) != Some(newest.modified_ms) {
                    n.store(&WriteKey::of(key), newest.placed(false), None);
                    self.migration_keys_copied.incr();
                }
                holders += 1;
            }
            if holders < quorum {
                can_flip = false;
            }
        }
        can_flip
    }

    /// Whether the account a ring key belongs to still exists.
    fn account_of_key_exists(&self, key: &RingKey) -> bool {
        key.as_str()
            .strip_prefix('/')
            .and_then(|k| k.split('/').next())
            .is_none_or(|account| self.account_exists(account))
    }

    /// Whether a rebalance is still in flight (pending partitions exist).
    pub fn migration_active(&self) -> bool {
        self.topology().migration.is_some()
    }

    /// Partitions the active migration started with (0 when idle).
    pub fn migration_total_parts(&self) -> usize {
        self.topology().migration.as_ref().map_or(0, |m| m.total)
    }

    /// Pending (not yet flipped) partitions of the active migration.
    pub fn migration_pending_parts(&self) -> usize {
        self.topology()
            .migration
            .as_ref()
            .map_or(0, |m| m.pending.lock().len())
    }

    // ----- account / container management -------------------------------

    pub fn create_account(&self, name: &str) -> Result<()> {
        if !self.accounts.write().insert(name.to_string()) {
            return Err(H2Error::AlreadyExists(format!("account {name}")));
        }
        Ok(())
    }

    /// [`Cluster::create_account`] charging the account-DB row insert to
    /// the caller's context — what every filesystem model should use on a
    /// client-facing CREATE-ACCOUNT path (the no-ctx variant is for test
    /// fixtures and harness setup, which are free by design).
    pub fn create_account_ctx(&self, ctx: &mut OpCtx, name: &str) -> Result<()> {
        ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        self.create_account(name)
    }

    /// Delete an account, its containers, and its objects. Replicas on
    /// downed devices are deliberately left in place — a down node cannot
    /// be asked to do anything, exactly as in a real cluster — and are
    /// reconciled by [`Cluster::repair`] once the node returns (repair
    /// purges replicas whose account no longer exists).
    pub fn delete_account(&self, name: &str) -> Result<()> {
        self.delete_account_impl(name).map(|_| ())
    }

    /// [`Cluster::delete_account`] charging the account-DB row removal plus
    /// one DELETE per dropped object to the caller's context.
    pub fn delete_account_ctx(&self, ctx: &mut OpCtx, name: &str) -> Result<()> {
        let dropped = self.delete_account_impl(name)?;
        ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        for _ in 0..dropped {
            ctx.charge(PrimKind::Delete, self.cfg.cost.delete_cost());
        }
        Ok(())
    }

    fn delete_account_impl(&self, name: &str) -> Result<usize> {
        if !self.accounts.write().remove(name) {
            return Err(H2Error::NoSuchAccount(name.to_string()));
        }
        for shard in self.containers.iter() {
            shard.write().remove(name);
        }
        // Drop the account's objects from reachable nodes and the catalog.
        let prefix = format!("/{name}/");
        let doomed: Vec<RingKey> = self
            .catalog
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .keys()
                    .filter(|k| k.as_str().starts_with(&prefix))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        let dropped = doomed.len();
        let topo = self.topology();
        for key in doomed {
            let at = key.at();
            let _guard = self.op_lock(at.hash).lock();
            self.catalog_remove(at);
            // All nodes, not just ring members: replicas of a mid-migration
            // key may still sit on drained (ex-ring) devices.
            for n in &topo.nodes {
                if !n.is_down() {
                    n.purge(at);
                }
            }
        }
        Ok(dropped)
    }

    pub fn account_exists(&self, name: &str) -> bool {
        self.accounts.read().contains(name)
    }

    /// Create a container; `indexed` controls whether the Swift file-path DB
    /// is maintained for it (H2Cloud containers say no).
    pub fn create_container(&self, account: &str, container: &str, indexed: bool) -> Result<()> {
        if !self.account_exists(account) {
            return Err(H2Error::NoSuchAccount(account.to_string()));
        }
        let mut shard = self.container_shard(account, container).write();
        let containers = shard.entry(account.to_string()).or_default();
        if containers.contains_key(container) {
            return Err(H2Error::AlreadyExists(format!(
                "container {account}/{container}"
            )));
        }
        containers.insert(
            container.to_string(),
            ContainerState {
                indexed,
                index: ContainerIndex::new(),
            },
        );
        Ok(())
    }

    /// Run `f` on a container's state, if the container exists.
    fn with_container<T>(
        &self,
        account: &str,
        container: &str,
        f: impl FnOnce(&ContainerState) -> T,
    ) -> Option<T> {
        let shard = self.container_shard(account, container).read();
        shard.get(account)?.get(container).map(f)
    }

    /// As [`Cluster::with_container`], for updates.
    fn with_container_mut<T>(
        &self,
        key: &ObjectKey,
        f: impl FnOnce(&mut ContainerState) -> T,
    ) -> Option<T> {
        let mut shard = self.container_shard(&key.account, &key.container).write();
        shard
            .get_mut(&*key.account)?
            .get_mut(&*key.container)
            .map(f)
    }

    fn check_container(&self, key: &ObjectKey) -> Result<()> {
        self.check_container_of(&key.account, &key.container)
    }

    fn check_container_of(&self, account: &str, container: &str) -> Result<()> {
        self.with_container(account, container, |_| ())
            .ok_or_else(|| H2Error::NotFound(format!("container {account}/{container}")))
    }

    /// Rows currently held in this container's listing DB (0 if unindexed).
    pub fn index_rows(&self, account: &str, container: &str) -> u64 {
        self.with_container(account, container, |c| c.index.len() as u64)
            .unwrap_or(0)
    }

    /// Bytes occupied by listing-DB rows across all containers.
    pub fn total_index_bytes(&self) -> u64 {
        self.containers
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .values()
                    .flat_map(HashMap::values)
                    .filter(|c| c.indexed)
                    .map(|c| c.index.index_bytes())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Rows across all indexed containers.
    pub fn total_index_rows(&self) -> u64 {
        self.containers
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .values()
                    .flat_map(HashMap::values)
                    .filter(|c| c.indexed)
                    .map(|c| c.index.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    // ----- stats ---------------------------------------------------------

    /// Logical live objects in the cloud (replicas not multiple-counted).
    pub fn object_count(&self) -> u64 {
        self.catalog
            .iter()
            .map(|shard| shard.read().len() as u64)
            .sum()
    }

    /// Logical live bytes in the cloud.
    pub fn byte_count(&self) -> u64 {
        self.catalog_bytes.load(Ordering::Relaxed)
    }

    /// Live replica count per device (balance inspection).
    pub fn device_loads(&self) -> Vec<(DeviceId, usize)> {
        self.topology()
            .nodes
            .iter()
            .map(|n| (n.id(), n.replica_count()))
            .collect()
    }

    // ----- fault plane -----------------------------------------------------

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

    // ----- replica placement helpers --------------------------------------

    /// Write one replica set with quorum + handoffs: every device gets a
    /// pointer to the same `replica` (a tombstone when `replica.deleted`).
    /// Returns Err if quorum unreachable.
    ///
    /// `cap` is the torn-write injection hook: when `Some(k)`, at most `k`
    /// replicas are written and the call always reports `Unavailable` —
    /// the proxy "crashed" mid-replication (fail-after-write). State is
    /// partially applied; repair and the retry layer must absorb it.
    fn replicated_put_capped(
        &self,
        ctx: &mut OpCtx,
        topo: &Topology,
        key: &WriteKey<'_>,
        replica: &StoredReplica,
        cap: Option<usize>,
    ) -> Result<()> {
        let verb = if replica.deleted { "delete" } else { "put" };
        let ring_key = key.at().text;
        let part = topo.ring.partition_of_hash(key.at().hash);
        let assigned = topo.ring.devices_for_part(part);
        let quorum = self.cfg.replicas / 2 + 1;
        let mut placed = 0usize;
        for &dev in assigned {
            if cap.is_some_and(|c| placed >= c) {
                break;
            }
            let ok = topo
                .node(dev)
                .store(key, replica.placed(false), topo.fault());
            ctx.span_instant(Stage::Replica, verb, || {
                vec![
                    ("dev", Note::U64(dev.0.into())),
                    ("vote", Note::Str(if ok { "stored" } else { "unreachable" })),
                ]
            });
            if ok {
                placed += 1;
            }
        }
        if placed < self.cfg.replicas {
            for dev in topo.ring.handoffs(part) {
                if placed >= self.cfg.replicas || cap.is_some_and(|c| placed >= c) {
                    break;
                }
                let ok = topo
                    .node(dev)
                    .store(key, replica.placed(true), topo.fault());
                ctx.span_instant(Stage::Replica, verb, || {
                    vec![
                        ("dev", Note::U64(dev.0.into())),
                        ("handoff", Note::Str("yes")),
                        ("vote", Note::Str(if ok { "stored" } else { "unreachable" })),
                    ]
                });
                if ok {
                    placed += 1;
                }
            }
        }
        ctx.span_note("placed", || Note::U64(placed as u64));
        if cap.is_some() {
            return Err(H2Error::Unavailable(format!(
                "injected torn write: {placed}/{} replicas applied for {ring_key}",
                self.cfg.replicas
            )));
        }
        if placed < quorum {
            return Err(H2Error::Unavailable(format!(
                "only {placed}/{quorum} replicas reachable for {ring_key}"
            )));
        }
        // Dual-apply: an acked write must stay readable through a
        // concurrent rebalance. Two placements can diverge from the
        // snapshot this request works on, so the topology is loaded a
        // second time here, *after* the quorum placement: (a) it swapped
        // mid-call (re-home onto the *current* assignment), and (b) the
        // key's partition is still pending migration, so readers may
        // resolve it through the *old* ring's assignment (old-assignment-
        // as-handoff). Because both checks run after the placement, a
        // completed migration can never have scanned past this key without
        // one of them firing. No injector is passed, so no extra fault
        // draws are consumed — an acked write stays acked regardless of
        // the fault plan, and seeded replay stays byte-identical whether
        // or not a migration is running.
        let now = self.topology();
        let mut extra: Vec<DeviceId> = Vec::new();
        if !Arc::ptr_eq(&now.ring, &topo.ring) {
            for &dev in now.ring.devices_for_part(part) {
                if !assigned.contains(&dev) {
                    extra.push(dev);
                }
            }
        }
        if let Some(mig) = &now.migration {
            if mig.pending.lock().contains(&part) {
                for &dev in mig.old_ring.devices_for_part(part) {
                    if !assigned.contains(&dev) && !extra.contains(&dev) {
                        extra.push(dev);
                    }
                }
            }
        }
        if !extra.is_empty() {
            for &dev in &extra {
                now.node(dev).store(key, replica.placed(true), None);
                ctx.span_instant(Stage::Migrate, verb, || {
                    vec![("dev", Note::U64(dev.0.into())), ("dual", Note::Str("yes"))]
                });
            }
            self.migration_dual_writes.incr();
        }
        Ok(())
    }

    /// One device's part in a quorum read: its vote, its span record, and
    /// its replica if that beats the best so far. Assigned devices draw
    /// the per-replica read fault; handoffs are consulted whether up or
    /// down, draw nothing, and only count toward reachability.
    fn probe_device(
        ctx: &mut OpCtx,
        topo: &Topology,
        dev: DeviceId,
        key: KeyRef<'_>,
        handoff: bool,
        seen: &mut Quorum,
    ) {
        let fault = if handoff { None } else { topo.fault() };
        let (newer, vote) = topo.node(dev).probe_newer(key, seen.best_ms(), fault);
        ctx.span_instant(Stage::Replica, "read", || {
            let mut notes = vec![("dev", Note::U64(dev.0.into()))];
            if handoff {
                notes.push(("handoff", Note::Str("yes")));
            }
            notes.push(("vote", Note::Str(vote.vote())));
            if let ReplicaProbe::Hit { modified_ms, .. } = vote {
                notes.push(("ms", Note::U64(modified_ms)));
            }
            notes
        });
        seen.hear(vote, handoff);
        if newer.is_some() {
            seen.best = newer;
        }
    }

    /// Newest reachable replica. `Ok(None)` means the object verifiably
    /// does not exist on any reachable device; `Err(Unavailable)` means no
    /// assigned device could even be asked, so absence cannot be concluded.
    ///
    /// Handoff devices are consulted not only when no assigned replica was
    /// found, but whenever the assigned set *might* be stale: some assigned
    /// device is down, or an up assigned device is missing the newest
    /// assigned version. In both situations a write may have landed on a
    /// handoff with a newer timestamp than anything assigned (the
    /// stale-read window: all assigned down at write time, then one
    /// returns with an old copy). If all assigned devices are up and
    /// agree, handoffs cannot hold anything newer that matters — agreement
    /// after a full outage is repaired by [`Cluster::repair`], as in real
    /// Swift.
    fn read_replica(
        &self,
        ctx: &mut OpCtx,
        topo: &Topology,
        key: KeyRef<'_>,
    ) -> Result<Option<StoredReplica>> {
        let part = topo.ring.partition_of_hash(key.hash);
        let hedged = self.hedged.load(Ordering::Relaxed);
        let assigned = topo.ring.devices_for_part(part);
        let mut seen = Quorum::default();
        wave(ctx, hedged, assigned.len(), |ctx, i| {
            Self::probe_device(ctx, topo, assigned[i], key, false, &mut seen)
        })?;
        if seen.assigned_suspect() {
            ctx.span_note("handoff_scan", || {
                Note::Str(if seen.assigned_down {
                    "assigned device down or faulted"
                } else {
                    "assigned replicas missing or disagreeing"
                })
            });
            let mut handoffs: Vec<DeviceId> = topo.ring.handoffs(part);
            // Migration handoff rescue: while this partition is pending,
            // the authoritative copies may still sit only on the *old*
            // ring's assigned devices (and those devices may have left the
            // new ring entirely, e.g. a drain). Extend the scan with the
            // old assignment so a read issued between the ring swap and
            // the partition's copy-then-flip never misses an acked write.
            if let Some(mig) = &topo.migration {
                if mig.pending.lock().contains(&part) {
                    let mut rescued = false;
                    for &dev in mig.old_ring.devices_for_part(part) {
                        if !assigned.contains(&dev) && !handoffs.contains(&dev) {
                            handoffs.push(dev);
                            rescued = true;
                        }
                    }
                    if rescued {
                        self.migration_read_rescues.incr();
                        ctx.span_note("migrate_rescue_part", || Note::U64(part));
                    }
                }
            }
            let hedge = hedged && !handoffs.is_empty();
            if hedge {
                // Hedge: the fallback probes fan out as their own wave
                // instead of serialising after the assigned ones.
                self.hedged_reads.incr();
                ctx.span_note("hedged_handoffs", || Note::U64(handoffs.len() as u64));
            }
            wave(ctx, hedge, handoffs.len(), |ctx, i| {
                Self::probe_device(ctx, topo, handoffs[i], key, true, &mut seen)
            })?;
        }
        if seen.best.is_none() && seen.reachable == 0 {
            return Err(H2Error::Unavailable(format!(
                "no device reachable for {}",
                key.text
            )));
        }
        if seen.best.is_none() && seen.replica_faulted {
            // An injected fault hid at least one assigned replica and no
            // copy was found elsewhere: the hidden device may be the only
            // holder, so absence cannot be concluded — report a retryable
            // outage instead of a (possibly wrong) verified miss.
            return Err(H2Error::Unavailable(format!(
                "replica fault hides {}; absence unverified",
                key.text
            )));
        }
        Ok(seen.best.filter(|r| !r.deleted))
    }

    fn container_indexed(&self, key: &ObjectKey) -> bool {
        self.with_container(&key.account, &key.container, |c| c.indexed)
            .unwrap_or(false)
    }

    fn index_apply_upsert(&self, key: &ObjectKey, size: u64, ms: u64, ctype: &str) {
        self.with_container_mut(key, |state| {
            if state.indexed {
                state.index.upsert(
                    &key.name,
                    IndexRecord {
                        size,
                        modified_ms: ms,
                        content_type: ctype.to_string(),
                    },
                );
            }
        });
    }

    fn index_apply_remove(&self, key: &ObjectKey) -> bool {
        self.with_container_mut(key, |state| state.indexed && state.index.remove(&key.name))
            .unwrap_or(false)
    }

    /// Record a write in the container's listing DB, if it keeps one (H2's
    /// containers do not, and pay nothing here). The content type is the
    /// `content-type` entry of the written `meta`.
    fn index_upsert(&self, ctx: &mut OpCtx, key: &ObjectKey, size: u64, ms: u64, meta: &Meta) {
        if !self.container_indexed(key) {
            return;
        }
        let ctype = meta.get("content-type").map_or("", String::as_str);
        if self.async_index.load(Ordering::Relaxed) {
            // Asynchronous container update: the client does not wait (and
            // is not charged); the listing lags until the updater runs.
            self.pending_index.write().push_back(IndexUpdate::Upsert {
                key: key.clone(),
                size,
                ms,
                ctype: ctype.to_string(),
            });
        } else {
            self.index_apply_upsert(key, size, ms, ctype);
            ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        }
    }

    fn index_remove(&self, ctx: &mut OpCtx, key: &ObjectKey) {
        if !self.container_indexed(key) {
            return;
        }
        if self.async_index.load(Ordering::Relaxed) {
            self.pending_index
                .write()
                .push_back(IndexUpdate::Remove { key: key.clone() });
        } else if self.index_apply_remove(key) {
            ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        }
    }

    fn catalog_put(&self, key: &WriteKey<'_>, size: u64) {
        let at = key.at();
        let mut cat = self.catalog_shard(at.hash).write();
        match cat.get_mut(&at as &dyn Keyed) {
            Some(old) => {
                self.catalog_bytes.fetch_sub(*old, Ordering::Relaxed);
                *old = size;
            }
            None => {
                cat.insert(key.owned(), size);
            }
        }
        self.catalog_bytes.fetch_add(size, Ordering::Relaxed);
    }

    fn catalog_remove(&self, key: KeyRef<'_>) {
        let removed = self
            .catalog_shard(key.hash)
            .write()
            .remove(&key as &dyn Keyed);
        if let Some(size) = removed {
            self.catalog_bytes.fetch_sub(size, Ordering::Relaxed);
        }
    }

    // ----- repair ----------------------------------------------------------

    /// One full replicator pass: ensure every live object has its replicas
    /// on the assigned (reachable) devices, drop handoff copies that made it
    /// home, and reclaim fully propagated tombstones. Returns the number of
    /// replicas moved or created.
    ///
    /// Safe to run concurrently with client writers: each key is
    /// reconciled under its op stripe (the same lock writers hold), and
    /// purges are bounded by the reconciled version's timestamp, so a
    /// racing newer write is never removed or resurrected.
    pub fn repair(&self) -> usize {
        let mut moved = 0usize;
        let topo = self.topology();
        // All nodes, not just current ring members: drained (ex-ring)
        // devices may still hold replicas from before their drain, and
        // those must be found, re-homed, and eventually purged.
        let nodes = &topo.nodes;
        // Collect the union of keys present anywhere.
        let mut keys = KeySet::default();
        for n in nodes {
            if !n.is_down() {
                keys.extend(n.keys());
            }
        }
        for key in keys {
            let at = key.at();
            let _guard = self.op_lock(at.hash).lock();
            // Replicas of a deleted account linger on devices that were
            // down during `delete_account`; drop them once reachable.
            if !self.account_of_key_exists(&key) {
                for n in nodes {
                    if n.stamp(at).is_some() {
                        n.purge(at);
                        moved += 1;
                    }
                }
                continue;
            }
            let part = topo.ring.partition_of_hash(at.hash);
            let assigned = topo.ring.devices_for_part(part);
            // Find newest version anywhere reachable (incl. tombstones).
            // Scan every node — ring handoffs cover all in-ring devices,
            // but a drained device outside the ring can hold the newest
            // copy (e.g. it was drained right after taking a write).
            let Some(newest) = newest_on(nodes.iter().map(|n| &**n), at) else {
                continue;
            };
            let ms = newest.modified_ms;
            if newest.deleted {
                // Reclaim the tombstone only when every device that could
                // hold a stale live copy is reachable — otherwise a replica
                // on a downed node would resurrect once the node returns
                // (the reason real Swift keeps tombstones for reclaim_age).
                if nodes.iter().all(|n| !n.is_down()) {
                    for n in nodes {
                        n.purge_upto(at, ms);
                    }
                } else {
                    // Propagate the tombstone to reachable devices that
                    // missed it, so the delete survives further failures.
                    for &dev in assigned {
                        let n = topo.node(dev);
                        if !n.is_down() && n.stamp(at) != Some(ms) {
                            n.store(&WriteKey::of(&key), newest.placed(false), None);
                        }
                    }
                    moved += 1;
                }
                continue;
            }
            // Install newest on assigned devices that lack it.
            for &dev in assigned {
                let n = topo.node(dev);
                if !n.is_down() && n.stamp(at) != Some(ms) {
                    n.store(&WriteKey::of(&key), newest.placed(false), None);
                    moved += 1;
                }
            }
            // Drop handoff copies once all reachable assigned devices hold
            // it — but never a handoff copy newer than the version we
            // reconciled (a concurrent writer may have just landed there).
            let all_assigned_have = assigned.iter().all(|&d| {
                let n = topo.node(d);
                n.is_down() || n.stamp(at) == Some(ms)
            });
            if all_assigned_have {
                for n in nodes.iter().filter(|n| !assigned.contains(&n.id())) {
                    if !n.is_down() && n.purge_upto(at, ms) {
                        moved += 1;
                    }
                }
            }
        }
        moved
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
            ctx.charge(PrimKind::Put, std::time::Duration::ZERO);
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
            let ms = self.next_ms();
            let wkey = WriteKey::new(at);
            let replica = StoredReplica::live(record, ms, false);
            // A torn write applies to a strict subset of replicas, then
            // errors out before the catalog/index updates — fail-after-write.
            ctx.span(Stage::Quorum, "replicate", |ctx| {
                ctx.charge_time(self.cfg.cost.put_cost(size as usize));
                self.replicated_put_capped(ctx, &topo, &wkey, &replica, torn)
            })?;
            self.catalog_put(&wkey, size);
            self.index_upsert(ctx, key, size, ms, &replica.record.meta);
            Ok((ms, prev))
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
            ctx.charge(PrimKind::Delete, std::time::Duration::ZERO);
            ctx.span(Stage::Quorum, "replicate", |ctx| {
                ctx.charge_time(self.cfg.cost.delete_cost());
                self.replicated_put_capped(ctx, &topo, &WriteKey::new(at), &tombstone, torn)
            })?;
            self.catalog_remove(at);
            self.index_remove(ctx, key);
            Ok(existing)
        })
    }

    // ----- CAS block store -------------------------------------------------
    //
    // Content-addressed blocks live under the reserved `::cas/blk`
    // namespace as ordinary replicated objects, plus one piece of proxy
    // state: a sharded refcount map (hex digest → direct referrers). The
    // invariant is per-block: a refcount entry exists iff the block is
    // live, and every mutation of a block's count happens under that
    // block's op stripe — the same stripe its replica writes use — so
    // share-vs-write and decref-vs-incref races serialize per block.

    /// The object key a CAS block is stored under.
    pub fn cas_block_key(digest_hex: &str) -> ObjectKey {
        ObjectKey::new(CAS_ACCOUNT, CAS_CONTAINER, digest_hex)
    }

    /// The ring key of [`Cluster::cas_block_key`], without building it.
    fn cas_ring_key(digest_hex: &str) -> String {
        format!("/{CAS_ACCOUNT}/{CAS_CONTAINER}/{digest_hex}")
    }

    fn cas_ref_shard(&self, digest_hex: &str) -> &OrderedMutex<HashMap<String, u64>> {
        &self.cas_ref[hash64(digest_hex.as_bytes()) as usize % self.cas_ref.len()]
    }

    /// Current refcount of a block (0 = not live). Fsck/test introspection.
    pub fn cas_refcount(&self, digest_hex: &str) -> u64 {
        self.cas_ref_shard(digest_hex)
            .lock()
            .get(digest_hex)
            .copied()
            .unwrap_or(0)
    }

    /// Number of live (refcounted) CAS blocks.
    pub fn cas_live_blocks(&self) -> u64 {
        self.cas_ref.iter().map(|s| s.lock().len() as u64).sum()
    }

    /// Store an immutable block under its content address, or share the
    /// one already live. `Ok(true)`: the block was physically replicated
    /// (refcount now 1). `Ok(false)`: identical content was already live —
    /// the refcount was bumped and only a HEAD-shaped round trip was paid.
    /// `logical_len` is the span of content the block covers, credited to
    /// `dedup_bytes_saved` on a share.
    ///
    /// On failure nothing is refcounted: a torn write leaves partial
    /// replicas with no refcount entry, which is garbage a later put of
    /// the same content harmlessly overwrites (blocks are immutable).
    pub fn cas_put_block(
        &self,
        ctx: &mut OpCtx,
        digest_hex: &str,
        payload: Payload,
        meta: Meta,
        logical_len: u64,
    ) -> Result<bool> {
        let ring_key = Self::cas_ring_key(digest_hex);
        let at = KeyRef::new(&ring_key);
        ctx.span(Stage::Cloud, "CAS-PUT", |ctx| {
            ctx.span_note("key", || Note::Text(ring_key.as_str().into()));
            let topo = self.topology();
            let _guard = self.op_lock(at.hash).lock();
            // The count is stable while the block's op stripe is held
            // (incref/decref take the same stripe), so check-then-act here
            // is atomic even though the shard lock is scoped per access.
            let live = self
                .cas_ref_shard(digest_hex)
                .lock()
                .contains_key(digest_hex);
            if live {
                // h2lint: allow(guard-across-blocking): the block op stripe pins the refcount across the share's HEAD round trip by design; only same-block ops wait.
                self.fault_gate(ctx, &topo, OpClass::Head, &ring_key)?;
                ctx.charge(PrimKind::Head, self.cfg.cost.head_cost());
                if let Some(rc) = self.cas_ref_shard(digest_hex).lock().get_mut(digest_hex) {
                    *rc += 1;
                }
                self.cas_blocks_shared.incr();
                self.dedup_bytes_saved.add(logical_len);
                ctx.span_note("dedup_bytes_saved", || Note::U64(logical_len));
                return Ok(false);
            }
            let torn = self.fault_gate(ctx, &topo, OpClass::Put, &ring_key)?;
            let size = payload.len();
            ctx.charge(PrimKind::Put, std::time::Duration::ZERO);
            let wkey = WriteKey::new(at);
            let replica = StoredReplica::live(Record::new(payload, meta), self.next_ms(), false);
            // h2lint: allow(guard-across-blocking): the block op stripe serializes the write-then-refcount by design; only same-block ops wait.
            ctx.span(Stage::Quorum, "replicate", |ctx| {
                ctx.charge_time(self.cfg.cost.put_cost(size as usize));
                self.replicated_put_capped(ctx, &topo, &wkey, &replica, torn)
            })?;
            self.catalog_put(&wkey, size);
            self.cas_ref_shard(digest_hex)
                .lock()
                .insert(digest_hex.to_string(), 1);
            self.cas_blocks_written.incr();
            Ok(true)
        })
    }

    /// Take one more reference to a live block (COPY paths). NotFound when
    /// the block is not live: the caller lost the race with a delete that
    /// reclaimed it, and must roll back any increfs it already took.
    pub fn cas_incref(&self, ctx: &mut OpCtx, digest_hex: &str) -> Result<()> {
        let ring_key = Self::cas_ring_key(digest_hex);
        self.fault_gate(ctx, &self.topology(), OpClass::Head, &ring_key)?;
        ctx.charge(PrimKind::Head, self.cfg.cost.head_cost());
        let _guard = self.op_lock(KeyRef::new(&ring_key).hash).lock();
        match self.cas_ref_shard(digest_hex).lock().get_mut(digest_hex) {
            Some(rc) => {
                *rc += 1;
                Ok(())
            }
            None => Err(H2Error::NotFound(format!("cas block {digest_hex}"))),
        }
    }

    /// Drop one reference to a block. When the count reaches zero the
    /// block is reclaimed — replicas tombstoned with no injector passed
    /// (no fault draws: reclamation must not tear), catalog row
    /// dropped — and the block's final content is returned so the caller
    /// can cascade to any child blocks it references. `Ok(None)` when the
    /// block stays live, or was not refcounted at all (a retried delete,
    /// or a block orphaned by an earlier torn write).
    pub fn cas_decref(&self, ctx: &mut OpCtx, digest_hex: &str) -> Result<Option<Object>> {
        let ring_key = Self::cas_ring_key(digest_hex);
        let at = KeyRef::new(&ring_key);
        let _guard = self.op_lock(at.hash).lock();
        let reclaim = {
            let mut shard = self.cas_ref_shard(digest_hex).lock();
            match shard.get_mut(digest_hex) {
                None => return Ok(None),
                Some(rc) if *rc > 1 => {
                    *rc -= 1;
                    false
                }
                Some(_) => {
                    shard.remove(digest_hex);
                    true
                }
            }
        };
        if !reclaim {
            return Ok(None);
        }
        // h2lint: allow(guard-across-blocking): block reclamation (read newest + tombstone + catalog) is a read-modify-write under the block's op stripe by design; only same-block ops wait.
        ctx.charge(PrimKind::Delete, self.cfg.cost.delete_cost());
        let wkey = WriteKey::new(at);
        let tombstone = StoredReplica::tombstone(self.next_ms());
        let mut newest: Option<StoredReplica> = None;
        // Stale replicas on downed devices are tolerated (a down device
        // answers no probe): with the refcount entry gone they are garbage,
        // and a future write of the same content overwrites them with
        // identical bytes.
        for n in &self.topology().nodes {
            let newest_live = newest.as_ref().map(|r| r.modified_ms);
            let (r, vote) = n.probe_newer(at, newest_live, None);
            if let Some(r) = r.filter(|r| !r.deleted) {
                newest = Some(r);
            }
            if matches!(vote, ReplicaProbe::Hit { .. }) {
                n.store(&wkey, tombstone.placed(false), None);
            }
        }
        self.catalog_remove(at);
        Ok(newest.map(|r| object_of(&Self::cas_block_key(digest_hex), &r)))
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
            let ms = self.next_ms();
            // The copy is a new version of the same content: it shares the
            // source's record.
            let wkey = WriteKey::new(dst_at);
            let replica = StoredReplica::live(r.record, ms, false);
            // h2lint: allow(guard-across-blocking): the destination op stripe serializes the copy's write half by design; only same-key ops wait.
            ctx.span(Stage::Quorum, "replicate", |ctx| {
                self.replicated_put_capped(ctx, &topo, &wkey, &replica, torn)
            })?;
            self.catalog_put(&wkey, size);
            self.index_upsert(ctx, dst, size, ms, &replica.record.meta);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Arc<Cluster> {
        let c = Cluster::new(ClusterConfig {
            nodes: 8,
            replicas: 3,
            part_power: 8,
            cost: Arc::new(CostModel::zero()),
            faults: None,
        });
        c.create_account("alice").unwrap();
        c.create_container("alice", "fs", true).unwrap();
        c
    }

    fn key(name: &str) -> ObjectKey {
        ObjectKey::new("alice", "fs", name)
    }

    #[test]
    fn put_get_roundtrip_with_replication() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(
            &mut ctx,
            &key("a/b"),
            Payload::from_static("data"),
            Meta::new(),
        )
        .unwrap();
        let obj = c.get(&mut ctx, &key("a/b")).unwrap();
        assert_eq!(obj.payload.as_str(), Some("data"));
        // 3 physical replicas exist.
        let total: usize = c.device_loads().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 3);
        // Logical catalog counts once.
        assert_eq!(c.object_count(), 1);
        assert_eq!(c.byte_count(), 4);
    }

    #[test]
    fn get_missing_is_not_found() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        assert_eq!(
            c.get(&mut ctx, &key("nope")).unwrap_err().code(),
            "not-found"
        );
    }

    #[test]
    fn put_requires_container() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        let k = ObjectKey::new("alice", "missing", "x");
        assert!(c
            .put(&mut ctx, &k, Payload::from_static("d"), Meta::new())
            .is_err());
    }

    #[test]
    fn delete_then_get_fails_and_catalog_updates() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(
            &mut ctx,
            &key("f"),
            Payload::from_static("1234"),
            Meta::new(),
        )
        .unwrap();
        c.delete(&mut ctx, &key("f")).unwrap();
        assert!(c.get(&mut ctx, &key("f")).is_err());
        assert_eq!(c.object_count(), 0);
        assert_eq!(c.byte_count(), 0);
        assert_eq!(
            c.delete(&mut ctx, &key("f")).unwrap_err().code(),
            "not-found"
        );
    }

    #[test]
    fn overwrite_replaces_size_in_catalog() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(&mut ctx, &key("f"), Payload::from_static("aa"), Meta::new())
            .unwrap();
        c.put(
            &mut ctx,
            &key("f"),
            Payload::from_static("aaaa"),
            Meta::new(),
        )
        .unwrap();
        assert_eq!(c.object_count(), 1);
        assert_eq!(c.byte_count(), 4);
    }

    #[test]
    fn copy_duplicates_payload_and_meta() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        let mut meta = Meta::new();
        meta.insert("content-type".into(), "file".into());
        c.put(&mut ctx, &key("src"), Payload::from_static("body"), meta)
            .unwrap();
        c.copy(&mut ctx, &key("src"), &key("dst")).unwrap();
        let dst = c.get(&mut ctx, &key("dst")).unwrap();
        assert_eq!(dst.payload.as_str(), Some("body"));
        assert_eq!(dst.meta["content-type"], "file");
        assert_eq!(c.object_count(), 2);
        assert_eq!(ctx.counts().copies, 1);
    }

    #[test]
    fn head_projects_the_winning_version() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        let meta = Meta::from([("kind".to_string(), "file".to_string())]);
        c.put(
            &mut ctx,
            &key("f"),
            Payload::from_static("old"),
            Meta::new(),
        )
        .unwrap();
        let ms = c
            .put_stamped(&mut ctx, &key("f"), Payload::from_static("body"), meta)
            .unwrap();
        let info = c.head(&mut ctx, &key("f")).unwrap();
        assert_eq!(info.size, 4);
        assert_eq!(info.etag, Payload::from_static("body").digest());
        assert_eq!(info.meta["kind"], "file");
        assert_eq!(info.modified_ms, ms);
        assert_eq!(ctx.counts().heads, 1);
    }

    #[test]
    fn listing_reflects_puts_and_deletes() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        for n in ["dir/a", "dir/b", "dir/sub/c", "top"] {
            c.put(&mut ctx, &key(n), Payload::from_static("x"), Meta::new())
                .unwrap();
        }
        let rows = c
            .list(
                &mut ctx,
                "alice",
                "fs",
                &ListOptions::dir_level("dir/", '/'),
            )
            .unwrap();
        let names: Vec<_> = rows.iter().map(|e| e.name().to_string()).collect();
        assert_eq!(names, ["dir/a", "dir/b", "dir/sub/"]);
        c.delete(&mut ctx, &key("dir/a")).unwrap();
        let rows = c
            .list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(ctx.counts().db_queries >= 2);
    }

    #[test]
    fn unindexed_container_refuses_listing() {
        let c = cluster();
        c.create_container("alice", "h2", false).unwrap();
        let mut ctx = OpCtx::for_test();
        let k = ObjectKey::new("alice", "h2", "obj");
        c.put(&mut ctx, &k, Payload::from_static("x"), Meta::new())
            .unwrap();
        assert_eq!(
            c.list(&mut ctx, "alice", "h2", &ListOptions::all())
                .unwrap_err()
                .code(),
            "unsupported"
        );
        // And no DB rows were maintained.
        assert_eq!(c.index_rows("alice", "h2"), 0);
        assert_eq!(ctx.counts().db_updates, 0);
    }

    #[test]
    fn writes_survive_single_node_failure() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.set_node_down(DeviceId(0), true);
        c.set_node_down(DeviceId(1), true);
        for i in 0..50 {
            c.put(
                &mut ctx,
                &key(&format!("f{i}")),
                Payload::from_static("x"),
                Meta::new(),
            )
            .unwrap();
            assert!(c.get(&mut ctx, &key(&format!("f{i}"))).is_ok());
        }
    }

    #[test]
    fn too_many_failures_yield_unavailable() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        for i in 0..8 {
            c.set_node_down(DeviceId(i), true);
        }
        assert_eq!(
            c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
                .unwrap_err()
                .code(),
            "unavailable"
        );
    }

    #[test]
    fn repair_moves_handoffs_home() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.set_node_down(DeviceId(3), true);
        for i in 0..40 {
            c.put(
                &mut ctx,
                &key(&format!("f{i}")),
                Payload::from_static("x"),
                Meta::new(),
            )
            .unwrap();
        }
        c.set_node_down(DeviceId(3), false);
        let moved = c.repair();
        // Node 3 was assigned some of those partitions; repair must have
        // done work and afterwards everything reads fine with handoffs gone.
        assert!(moved > 0, "repair did nothing");
        for i in 0..40 {
            assert!(c.get(&mut ctx, &key(&format!("f{i}"))).is_ok());
        }
        // Second pass is a no-op: state converged.
        assert_eq!(c.repair(), 0);
    }

    #[test]
    fn repair_reclaims_tombstones() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
            .unwrap();
        c.delete(&mut ctx, &key("f")).unwrap();
        // Tombstones still occupy device maps until repair.
        let before: usize = c.topology().nodes.iter().map(|n| n.keys().len()).sum();
        assert!(before > 0);
        c.repair();
        let after: usize = c.topology().nodes.iter().map(|n| n.keys().len()).sum();
        assert_eq!(after, 0);
        assert!(c.get(&mut ctx, &key("f")).is_err());
    }

    #[test]
    fn reads_prefer_newest_replica_after_partial_write() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(&mut ctx, &key("f"), Payload::from_static("v1"), Meta::new())
            .unwrap();
        // Take one assigned device down, overwrite, bring it back: the stale
        // replica must lose to the newer ones.
        let part = c.ring().partition_of(key("f").ring_key().as_bytes());
        let dev = c.ring().devices_for_part(part)[0];
        c.set_node_down(dev, true);
        c.put(&mut ctx, &key("f"), Payload::from_static("v2"), Meta::new())
            .unwrap();
        c.set_node_down(dev, false);
        assert_eq!(
            c.get(&mut ctx, &key("f")).unwrap().payload.as_str(),
            Some("v2")
        );
    }

    #[test]
    fn handoff_write_beats_returning_stale_assigned_replica() {
        // Regression for the stale-read window: v1 lands on all assigned
        // devices; ALL of them go down; v2 lands entirely on handoffs; one
        // assigned device returns with its stale v1. The read must still
        // find v2 on the handoffs, not serve the shadowing stale copy.
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(&mut ctx, &key("f"), Payload::from_static("v1"), Meta::new())
            .unwrap();
        let part = c.ring().partition_of(key("f").ring_key().as_bytes());
        let assigned: Vec<DeviceId> = c.ring().devices_for_part(part).to_vec();
        for &d in &assigned {
            c.set_node_down(d, true);
        }
        c.put(&mut ctx, &key("f"), Payload::from_static("v2"), Meta::new())
            .unwrap();
        c.set_node_down(assigned[0], false);
        assert_eq!(
            c.get(&mut ctx, &key("f")).unwrap().payload.as_str(),
            Some("v2"),
            "stale assigned replica shadowed the newer handoff copy"
        );
        // Same window for deletes: tombstone lands on handoffs only, then a
        // stale live assigned copy must not resurrect the object.
        c.delete(&mut ctx, &key("f")).unwrap();
        assert!(c.get(&mut ctx, &key("f")).is_err());
        // Full recovery converges via repair.
        for &d in &assigned {
            c.set_node_down(d, false);
        }
        c.repair();
        assert!(c.get(&mut ctx, &key("f")).is_err());
    }

    #[test]
    fn delete_account_purges_objects() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
            .unwrap();
        c.delete_account("alice").unwrap();
        assert_eq!(c.object_count(), 0);
        assert!(!c.account_exists("alice"));
        assert!(c.delete_account("alice").is_err());
    }

    #[test]
    fn delete_account_skips_down_nodes_and_repair_reconciles() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
            .unwrap();
        // One replica holder goes down before the account is deleted.
        let part = c.ring().partition_of(key("f").ring_key().as_bytes());
        let dev = c.ring().devices_for_part(part)[0];
        c.set_node_down(dev, true);
        c.delete_account("alice").unwrap();
        assert_eq!(c.object_count(), 0);
        // The downed node was not asked to purge (it can't be): its stale
        // replica survives the account deletion.
        c.set_node_down(dev, false);
        assert!(
            c.topology()
                .node(dev)
                .get_raw(&key("f").ring_key())
                .is_some(),
            "down node should have kept its replica"
        );
        // Repair reconciles: the account is gone, so the orphan is purged.
        assert!(c.repair() > 0);
        assert!(c
            .topology()
            .node(dev)
            .get_raw(&key("f").ring_key())
            .is_none());
        // A recreated account starts clean — no resurrected objects.
        c.create_account("alice").unwrap();
        c.create_container("alice", "fs", true).unwrap();
        assert_eq!(c.get(&mut ctx, &key("f")).unwrap_err().code(), "not-found");
    }

    #[test]
    fn duplicate_account_or_container_rejected() {
        let c = cluster();
        assert!(c.create_account("alice").is_err());
        assert!(c.create_container("alice", "fs", true).is_err());
        assert!(c.create_container("ghost", "fs", true).is_err());
    }

    #[test]
    fn async_index_updates_lag_until_flushed() {
        let c = cluster();
        c.set_async_index(true);
        let mut ctx = OpCtx::for_test();
        c.put(
            &mut ctx,
            &key("dir/a"),
            Payload::from_static("x"),
            Meta::new(),
        )
        .unwrap();
        c.put(
            &mut ctx,
            &key("dir/b"),
            Payload::from_static("y"),
            Meta::new(),
        )
        .unwrap();
        // The object is readable immediately…
        assert!(c.get(&mut ctx, &key("dir/a")).is_ok());
        // …but the listing has not caught up (eventual consistency).
        let rows = c
            .list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
            .unwrap();
        assert!(rows.is_empty(), "listing should lag: {rows:?}");
        assert_eq!(c.pending_index_updates(), 2);
        // The container updater catches up.
        assert_eq!(c.flush_index_updates(), 2);
        let rows = c
            .list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
            .unwrap();
        assert_eq!(rows.len(), 2);
        // Deletes lag the same way.
        c.delete(&mut ctx, &key("dir/a")).unwrap();
        assert_eq!(
            c.list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
                .unwrap()
                .len(),
            2,
            "deletion visible in listing before the updater ran"
        );
        c.flush_index_updates();
        assert_eq!(
            c.list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn async_index_does_not_charge_the_writer() {
        let c = Cluster::new(ClusterConfig {
            nodes: 4,
            replicas: 1,
            part_power: 6,
            cost: Arc::new(CostModel::rack_default()),
            faults: None,
        });
        c.create_account("a").unwrap();
        c.create_container("a", "c", true).unwrap();
        let k = ObjectKey::new("a", "c", "o");
        let mut sync_ctx = OpCtx::new(c.cost_model());
        c.put(&mut sync_ctx, &k, Payload::from_static("x"), Meta::new())
            .unwrap();
        c.set_async_index(true);
        let mut async_ctx = OpCtx::new(c.cost_model());
        c.put(&mut async_ctx, &k, Payload::from_static("y"), Meta::new())
            .unwrap();
        assert_eq!(sync_ctx.counts().db_updates, 1);
        assert_eq!(async_ctx.counts().db_updates, 0);
        assert!(async_ctx.elapsed() < sync_ctx.elapsed());
    }

    #[test]
    fn timing_uses_cost_model() {
        let c = Cluster::new(ClusterConfig {
            nodes: 4,
            replicas: 3,
            part_power: 6,
            cost: Arc::new(CostModel::rack_default()),
            faults: None,
        });
        c.create_account("a").unwrap();
        c.create_container("a", "c", false).unwrap();
        let mut ctx = OpCtx::new(c.cost_model());
        let k = ObjectKey::new("a", "c", "o");
        c.put(&mut ctx, &k, Payload::from_static("x"), Meta::new())
            .unwrap();
        let after_put = ctx.elapsed();
        assert!(after_put > std::time::Duration::ZERO);
        c.get(&mut ctx, &k).unwrap();
        assert!(ctx.elapsed() > after_put);
    }

    #[test]
    fn single_stripe_cluster_matches_default_striping() {
        // with_stripes(1) is the seed's one-big-lock layout; the default 16
        // stripes must be observably identical over a mixed op sequence.
        let run = |stripes: usize| {
            let c = Cluster::with_stripes(
                ClusterConfig {
                    nodes: 8,
                    replicas: 3,
                    part_power: 8,
                    cost: Arc::new(CostModel::zero()),
                    faults: None,
                },
                stripes,
            );
            c.create_account("alice").unwrap();
            c.create_container("alice", "fs", true).unwrap();
            let mut ctx = OpCtx::for_test();
            for i in 0..60 {
                c.put(
                    &mut ctx,
                    &key(&format!("d/f{i}")),
                    Payload::from_string(format!("v{i}")),
                    Meta::new(),
                )
                .unwrap();
            }
            for i in (0..60).step_by(3) {
                c.delete(&mut ctx, &key(&format!("d/f{i}"))).unwrap();
            }
            c.copy(&mut ctx, &key("d/f1"), &key("d/c1")).unwrap();
            let mut loads = c.device_loads();
            loads.sort();
            (
                c.object_count(),
                c.byte_count(),
                c.total_index_rows(),
                loads,
            )
        };
        assert_eq!(run(1), run(16));
    }

    // ----- fault plane ----------------------------------------------------

    use h2util::faults::FaultSpec;

    fn faulty_cluster(plan: FaultPlan) -> Arc<Cluster> {
        let c = Cluster::new(ClusterConfig {
            nodes: 8,
            replicas: 3,
            part_power: 8,
            cost: Arc::new(CostModel::zero()),
            faults: Some(plan),
        });
        c.create_account("alice").unwrap();
        c.create_container("alice", "fs", true).unwrap();
        c
    }

    #[test]
    fn injected_errors_replay_byte_identically() {
        let plan = FaultPlan::uniform(1234, FaultSpec::errors(0.3));
        let run = || {
            let c = faulty_cluster(plan.clone());
            let mut ctx = OpCtx::for_test();
            let mut outcomes = Vec::new();
            for i in 0..50 {
                outcomes.push(
                    c.put(
                        &mut ctx,
                        &key(&format!("f{i}")),
                        Payload::from_string(format!("v{i}")),
                        Meta::new(),
                    )
                    .map_err(|e| e.code())
                    .is_ok(),
                );
                outcomes.push(c.get(&mut ctx, &key(&format!("f{i}"))).is_ok());
            }
            (outcomes, c.fault_stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        assert_eq!(sa, sb);
        let stats = sa.expect("plan active");
        assert!(stats.errors > 0, "0.3 error rate over 100 ops: {stats:?}");
    }

    #[test]
    fn torn_write_applies_a_subset_and_repair_reconciles() {
        // Every put tears; find one that leaves at least one replica.
        let plan = FaultPlan::uniform(77, FaultSpec::default().with_torn(1.0));
        let c = faulty_cluster(plan);
        let mut ctx = OpCtx::for_test();
        let mut partial = None;
        for i in 0..30 {
            let k = key(&format!("torn{i}"));
            let err = c
                .put(&mut ctx, &k, Payload::from_static("data"), Meta::new())
                .expect_err("torn writes must report failure");
            assert_eq!(err.code(), "unavailable");
            let replicas: usize = c.device_loads().iter().map(|(_, n)| n).sum();
            // The catalog was never updated — the write is torn.
            assert_eq!(c.object_count(), 0);
            if replicas > 0 {
                partial = Some(k);
                break;
            }
        }
        let k = partial.expect("a torn write with surviving replicas");
        // The client was told the write failed, yet a retry after clearing
        // the plane (or Swift repair) completes it normally.
        c.set_fault_plan(None);
        assert!(c.fault_stats().is_none());
        c.put(&mut ctx, &k, Payload::from_static("data"), Meta::new())
            .unwrap();
        c.repair();
        assert_eq!(c.get(&mut ctx, &k).unwrap().payload.as_str(), Some("data"));
        assert_eq!(c.object_count(), 1);
    }

    #[test]
    fn slow_faults_inflate_latency_without_failing() {
        let plan = FaultPlan::uniform(
            5,
            FaultSpec::default().with_slow(1.0, std::time::Duration::from_millis(25)),
        );
        let c = faulty_cluster(plan);
        let mut ctx = OpCtx::for_test();
        c.put(&mut ctx, &key("s"), Payload::from_static("x"), Meta::new())
            .unwrap();
        c.get(&mut ctx, &key("s")).unwrap();
        // Zero-cost model: all elapsed time is injected inflation.
        assert_eq!(ctx.elapsed(), std::time::Duration::from_millis(50));
        assert_eq!(c.fault_stats().expect("active").slowdowns, 2);
    }

    #[test]
    fn replica_write_faults_engage_handoffs_and_quorum() {
        // Per-replica faults only: the front door stays clean, but each
        // replica placement may fail, pushing writes onto handoffs.
        let plan = FaultPlan::new(9).with_replica_errors(0.4);
        let c = faulty_cluster(plan);
        let mut ctx = OpCtx::for_test();
        let mut quorum_failures = 0;
        let mut acked: Vec<usize> = Vec::new();
        for i in 0..40 {
            let k = key(&format!("r{i}"));
            match c.put(
                &mut ctx,
                &k,
                Payload::from_string(format!("v{i}")),
                Meta::new(),
            ) {
                Ok(()) => {
                    acked.push(i);
                    // While faults are live a read may be hidden from every
                    // holder (retryable outage), but it must never report a
                    // verified miss or the wrong value for an acked write.
                    match c.get(&mut ctx, &k) {
                        Ok(obj) => {
                            assert_eq!(obj.payload.as_str(), Some(format!("v{i}").as_str()));
                        }
                        Err(e) => assert_eq!(e.code(), "unavailable", "{e}"),
                    }
                }
                Err(e) => {
                    assert_eq!(e.code(), "unavailable");
                    quorum_failures += 1;
                }
            }
        }
        let stats = c.fault_stats().expect("active");
        assert!(stats.replica_errors > 0, "{stats:?}");
        // 0.4^2-ish per-write quorum-loss probability: some but not all.
        assert!(quorum_failures < 40);
        assert!(!acked.is_empty());
        // After clearing faults, every acknowledged write is durable even
        // though some replicas landed on handoff devices; repair converges
        // placement back onto the assigned devices.
        c.set_fault_plan(None);
        c.repair();
        for i in acked {
            let k = key(&format!("r{i}"));
            assert_eq!(
                c.get(&mut ctx, &k).unwrap().payload.as_str(),
                Some(format!("v{i}").as_str()),
                "acked write r{i} lost"
            );
        }
    }

    // ----- elastic topology ------------------------------------------------

    fn populate(c: &Cluster, n: usize) -> Vec<ObjectKey> {
        let mut ctx = OpCtx::for_test();
        (0..n)
            .map(|i| {
                let k = key(&format!("mig/f{i}"));
                c.put(
                    &mut ctx,
                    &k,
                    Payload::from_string(format!("body-{i}")),
                    Meta::new(),
                )
                .unwrap();
                k
            })
            .collect()
    }

    fn assert_all_readable(c: &Cluster, keys: &[ObjectKey]) {
        let mut ctx = OpCtx::for_test();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                c.get(&mut ctx, k).unwrap().payload.as_str(),
                Some(format!("body-{i}").as_str()),
                "key {} unreadable",
                k.ring_key()
            );
        }
    }

    #[test]
    fn add_node_migrates_and_everything_stays_readable() {
        let c = cluster();
        let keys = populate(&c, 60);
        let id = c.add_node(9, 1.0).unwrap();
        assert_eq!(id, DeviceId(8));
        assert!(c.migration_active());
        let total = c.migration_total_parts();
        assert!(total > 0, "adding a device must move some partitions");
        // Mid-migration reads work (old assignment serves as handoff).
        assert_all_readable(&c, &keys);
        // Throttled steps make monotone progress until done.
        let mut flipped = 0;
        while c.migration_active() {
            let n = c.migrate_step(8);
            assert!(n > 0, "migrator stalled with no down devices");
            flipped += n;
        }
        assert_eq!(flipped, total);
        assert_eq!(
            c.metrics().counter_value(MIGRATION_PARTS_MOVED),
            total as u64
        );
        assert_all_readable(&c, &keys);
        // Repair drops the now-redundant old-assignment copies, after
        // which the new device actually holds data.
        c.repair();
        assert_all_readable(&c, &keys);
        let loads = c.device_loads();
        assert!(
            loads.iter().any(|&(d, n)| d == id && n > 0),
            "new device took no replicas: {loads:?}"
        );
        // Replica population is exactly replicas-per-object again.
        let total_replicas: usize = loads.iter().map(|&(_, n)| n).sum();
        assert_eq!(total_replicas, keys.len() * 3);
    }

    #[test]
    fn drain_node_rescues_sole_reachable_replica() {
        let c = cluster();
        let keys = populate(&c, 40);
        // Pick a victim device and a key assigned to it; take the key's
        // *other* assigned devices down so the victim holds the only
        // reachable replica, then drain the victim.
        let victim = DeviceId(3);
        let ring = c.ring();
        let probe = keys
            .iter()
            .find(|k| {
                ring.devices_for_part(ring.partition_of(k.ring_key().as_bytes()))
                    .contains(&victim)
            })
            .expect("some key lands on the victim");
        let part = ring.partition_of(probe.ring_key().as_bytes());
        let others: Vec<DeviceId> = ring
            .devices_for_part(part)
            .iter()
            .copied()
            .filter(|&d| d != victim)
            .collect();
        for &d in &others {
            c.set_node_down(d, true);
        }
        c.drain_node(victim).unwrap();
        // The partition cannot flip to quorum while the other replicas
        // are down on the *new* assignment too... but whatever happens,
        // the data stays readable: pending partitions fall back to the
        // old assignment, where the victim still answers.
        c.migrate_all();
        let mut ctx = OpCtx::for_test();
        let idx = keys.iter().position(|k| k == probe).unwrap();
        assert_eq!(
            c.get(&mut ctx, probe).unwrap().payload.as_str(),
            Some(format!("body-{idx}").as_str()),
            "sole-replica key lost during drain"
        );
        assert!(
            c.metrics().counter_value(MIGRATION_READ_RESCUES) > 0,
            "read should have scanned the old assignment"
        );
        // Nodes return; migration completes; victim fully drained.
        for &d in &others {
            c.set_node_down(d, false);
        }
        c.migrate_all();
        assert!(!c.migration_active());
        c.repair();
        assert_all_readable(&c, &keys);
        let loads = c.device_loads();
        assert_eq!(
            loads.iter().find(|&&(d, _)| d == victim).unwrap().1,
            0,
            "drained device still holds replicas: {loads:?}"
        );
    }

    #[test]
    fn set_weight_zero_is_a_drain_and_rejects_unknown_devices() {
        let c = cluster();
        let keys = populate(&c, 20);
        c.set_weight(DeviceId(5), 0.0).unwrap();
        assert!(!c.ring().devices().iter().any(|d| d.id == DeviceId(5)));
        c.migrate_all();
        assert!(!c.migration_active());
        c.repair();
        assert_all_readable(&c, &keys);
        // A second drain of the same device: no longer in the ring.
        assert_eq!(c.drain_node(DeviceId(5)).unwrap_err().code(), "not-found");
        assert_eq!(
            c.set_weight(DeviceId(5), 2.0).unwrap_err().code(),
            "not-found"
        );
        // Re-weighting an in-ring device rebalances without data loss.
        c.set_weight(DeviceId(0), 3.0).unwrap();
        c.migrate_all();
        c.repair();
        assert_all_readable(&c, &keys);
    }

    #[test]
    fn drain_below_replica_count_is_rejected() {
        let c = Cluster::new(ClusterConfig {
            nodes: 3,
            replicas: 3,
            part_power: 6,
            cost: Arc::new(CostModel::zero()),
            faults: None,
        });
        assert_eq!(c.drain_node(DeviceId(0)).unwrap_err().code(), "conflict");
        assert_eq!(c.add_node(7, -1.0).unwrap_err().code(), "conflict");
    }

    #[test]
    fn add_then_immediately_drain_round_trips() {
        let c = cluster();
        let keys = populate(&c, 30);
        let id = c.add_node(9, 2.0).unwrap();
        // Drain it again before a single migration step ran: the drain
        // first completes the in-flight migration, then swaps back.
        c.drain_node(id).unwrap();
        c.migrate_all();
        assert!(!c.migration_active());
        c.repair();
        assert_all_readable(&c, &keys);
        let loads = c.device_loads();
        assert_eq!(loads.iter().find(|&&(d, _)| d == id).unwrap().1, 0);
        // Back to the original topology: replica population intact.
        let total_replicas: usize = loads.iter().map(|&(_, n)| n).sum();
        assert_eq!(total_replicas, keys.len() * 3);
    }

    #[test]
    fn migration_racing_delete_account_leaves_no_garbage() {
        let c = cluster();
        let keys = populate(&c, 30);
        let id = c.add_node(9, 1.5).unwrap();
        // Flip a few partitions, then delete the account mid-migration.
        c.migrate_step(4);
        let mut ctx = OpCtx::for_test();
        c.delete_account("alice").unwrap();
        // Remaining steps must not resurrect the dead account's objects.
        c.migrate_all();
        assert!(!c.migration_active());
        c.repair();
        for k in &keys {
            assert!(c.get(&mut ctx, k).is_err(), "{} resurrected", k.ring_key());
        }
        let loads = c.device_loads();
        let total_replicas: usize = loads.iter().map(|&(_, n)| n).sum();
        assert_eq!(total_replicas, 0, "orphan replicas survive: {loads:?}");
        let _ = id;
    }

    #[test]
    fn writes_during_migration_dual_apply_and_survive_flip() {
        let c = cluster();
        let mut keys = populate(&c, 30);
        c.add_node(9, 1.0).unwrap();
        assert!(c.migration_active());
        // Write fresh keys while partitions are pending; some will land
        // on pending partitions and dual-apply to the old assignment.
        let mut ctx = OpCtx::for_test();
        for i in 30..60 {
            let k = key(&format!("mig/f{i}"));
            c.put(
                &mut ctx,
                &k,
                Payload::from_string(format!("body-{i}")),
                Meta::new(),
            )
            .unwrap();
            keys.push(k);
            if i % 7 == 0 {
                c.migrate_step(2);
            }
        }
        c.migrate_all();
        c.repair();
        assert_all_readable(&c, &keys);
    }

    // ----- CAS block store -------------------------------------------------

    #[test]
    fn cas_put_dedups_and_refcounts() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        let hex = h2util::hash128(b"blockbody").to_hex();
        assert_eq!(
            Cluster::cas_ring_key(&hex),
            Cluster::cas_block_key(&hex).ring_key()
        );
        let fresh = c
            .cas_put_block(
                &mut ctx,
                &hex,
                Payload::from_static("blockbody"),
                Meta::new(),
                9,
            )
            .unwrap();
        assert!(fresh);
        assert_eq!(c.cas_refcount(&hex), 1);
        assert_eq!(c.metrics().counter_value(CAS_BLOCKS_WRITTEN), 1);
        // Second put of identical content: shared, not rewritten.
        let fresh = c
            .cas_put_block(
                &mut ctx,
                &hex,
                Payload::from_static("blockbody"),
                Meta::new(),
                9,
            )
            .unwrap();
        assert!(!fresh);
        assert_eq!(c.cas_refcount(&hex), 2);
        assert_eq!(c.metrics().counter_value(CAS_BLOCKS_WRITTEN), 1);
        assert_eq!(c.metrics().counter_value(CAS_BLOCKS_SHARED), 1);
        assert_eq!(c.metrics().counter_value(DEDUP_BYTES_SAVED), 9);
        // The block is a readable object in the reserved namespace.
        let obj = c.get(&mut ctx, &Cluster::cas_block_key(&hex)).unwrap();
        assert_eq!(obj.payload.len(), 9);
    }

    #[test]
    fn cas_decref_reclaims_at_zero_and_returns_content() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        let hex = h2util::hash128(b"short-lived").to_hex();
        c.cas_put_block(
            &mut ctx,
            &hex,
            Payload::from_static("short-lived"),
            Meta::new(),
            11,
        )
        .unwrap();
        c.cas_incref(&mut ctx, &hex).unwrap();
        assert_eq!(c.cas_refcount(&hex), 2);
        // First decref: still live, nothing reclaimed.
        assert!(c.cas_decref(&mut ctx, &hex).unwrap().is_none());
        assert_eq!(c.cas_refcount(&hex), 1);
        // Second decref: reclaimed, final content returned for cascading.
        let gone = c.cas_decref(&mut ctx, &hex).unwrap().unwrap();
        assert_eq!(gone.payload.as_str(), Some("short-lived"));
        assert_eq!(c.cas_refcount(&hex), 0);
        assert_eq!(c.cas_live_blocks(), 0);
        assert!(matches!(
            c.get(&mut ctx, &Cluster::cas_block_key(&hex)),
            Err(H2Error::NotFound(_))
        ));
        // Decref of an unknown block is a tolerated no-op (retry paths).
        assert!(c.cas_decref(&mut ctx, &hex).unwrap().is_none());
        // Incref after reclaim is the copy-vs-delete race: NotFound.
        assert!(matches!(
            c.cas_incref(&mut ctx, &hex),
            Err(H2Error::NotFound(_))
        ));
        // Re-put after reclaim is a fresh write again.
        assert!(c
            .cas_put_block(
                &mut ctx,
                &hex,
                Payload::from_static("short-lived"),
                Meta::new(),
                11,
            )
            .unwrap());
        assert_eq!(c.cas_refcount(&hex), 1);
    }

    #[test]
    fn cas_refcounts_survive_concurrent_shares_and_drops() {
        let c = cluster();
        let hex = h2util::hash128(b"contended").to_hex();
        let mut ctx = OpCtx::for_test();
        c.cas_put_block(
            &mut ctx,
            &hex,
            Payload::from_static("contended"),
            Meta::new(),
            9,
        )
        .unwrap();
        // 8 threads each share the block 50 times, then drop it 50 times:
        // the count must come back to exactly 1 with the block still live.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = &c;
                let hex = hex.clone();
                s.spawn(move || {
                    let mut ctx = OpCtx::for_test();
                    for _ in 0..50 {
                        c.cas_put_block(
                            &mut ctx,
                            &hex,
                            Payload::from_static("contended"),
                            Meta::new(),
                            9,
                        )
                        .unwrap();
                    }
                    for _ in 0..50 {
                        assert!(c.cas_decref(&mut ctx, &hex).unwrap().is_none());
                    }
                });
            }
        });
        assert_eq!(c.cas_refcount(&hex), 1);
        assert_eq!(c.metrics().counter_value(CAS_BLOCKS_WRITTEN), 1);
        assert_eq!(c.metrics().counter_value(CAS_BLOCKS_SHARED), 400);
    }

    #[test]
    fn put_returning_prev_hands_back_exactly_the_displaced_generation() {
        let c = cluster();
        let mut ctx = OpCtx::for_test();
        let k = key("gen/file");
        let prev = c
            .put_returning_prev(&mut ctx, &k, Payload::from_static("g0"), Meta::new())
            .unwrap();
        assert!(prev.is_none());
        let prev = c
            .put_returning_prev(&mut ctx, &k, Payload::from_static("g1"), Meta::new())
            .unwrap()
            .unwrap();
        assert_eq!(prev.payload.as_str(), Some("g0"));
        let prev = c.delete_returning_prev(&mut ctx, &k).unwrap();
        assert_eq!(prev.payload.as_str(), Some("g1"));
        assert!(matches!(
            c.delete_returning_prev(&mut ctx, &k),
            Err(H2Error::NotFound(_))
        ));
        // After a delete, the next overwrite sees no predecessor.
        let prev = c
            .put_returning_prev(&mut ctx, &k, Payload::from_static("g2"), Meta::new())
            .unwrap();
        assert!(prev.is_none());
    }
}
