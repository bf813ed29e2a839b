//! The cluster's shape — ring, nodes, pending migration, fault injector —
//! as one published value, the operator ops that replace it, and the
//! migrator that copies pending partitions onto their new assignment.

use h2util::lockorder::OrderedMutexGuard;

use super::*;

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
pub(super) struct Migration {
    /// The ring that was live before the swap.
    pub(super) old_ring: Arc<Ring>,
    /// Partitions whose replica set changed and have not been flipped yet.
    pub(super) pending: OrderedMutex<HashSet<u64>>,
    /// Partition count at swap time (progress reporting).
    total: usize,
}

/// The cluster's shape as one immutable value. Every request loads the
/// current one once, at entry, and works on it throughout; whoever changes
/// any part publishes a whole new value ([`Cluster::publish`]). Readers
/// therefore never see a ring without the migration record that goes with
/// it, or a device id without its node.
#[derive(Clone)]
pub(super) struct Topology {
    /// Placement ring, replaced by the topology ops ([`Cluster::add_node`]
    /// / [`Cluster::drain_node`] / [`Cluster::set_weight`]).
    pub(super) ring: Arc<Ring>,
    /// Storage nodes, append-only: `nodes[id.0]` is the device's node
    /// forever — drained devices leave the ring but keep their node (and
    /// any not-yet-migrated replicas) until migration/repair empties it.
    pub(super) nodes: Vec<Arc<StorageNode>>,
    /// In-flight rebalance, if any (see [`Migration`]).
    pub(super) migration: Option<Arc<Migration>>,
    /// Active request-level fault injector: one deterministic draw stream
    /// for front-door decisions and per-replica faults alike. `None` =
    /// fault plane disabled.
    pub(super) fault: Option<Arc<FaultInjector>>,
}

impl Topology {
    pub(super) fn node(&self, id: DeviceId) -> &StorageNode {
        &self.nodes[id.0 as usize]
    }

    pub(super) fn fault(&self) -> Option<&FaultInjector> {
        self.fault.as_deref()
    }
}

impl Cluster {
    /// Snapshot of the current placement ring. Stable for the caller's
    /// lifetime even across a concurrent rebalance — operations that need
    /// placement coherence take one snapshot and use it throughout.
    pub fn ring(&self) -> Arc<Ring> {
        self.topology().ring.clone()
    }

    /// The current topology snapshot: what a request loads once, at entry.
    pub(super) fn topology(&self) -> Arc<Topology> {
        self.topo.read().clone()
    }

    /// Replace the topology with `next(current)`, atomically with respect
    /// to every other publisher. Because a reader only ever holds one
    /// whole snapshot, whatever `next` changes together becomes visible
    /// together.
    pub(super) fn publish(&self, next: impl FnOnce(&Topology) -> Topology) {
        let mut cur = self.topo.write();
        *cur = Arc::new(next(&cur));
    }

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
            let (copies, holders) = install(topo, new_assigned, key, &newest);
            self.migration_keys_copied.add(copies as u64);
            if holders < quorum {
                can_flip = false;
            }
        }
        can_flip
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
}
