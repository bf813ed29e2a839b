//! The replicator pass: re-home handoff copies, propagate and reclaim
//! tombstones, and purge replicas of accounts deleted while their devices
//! were down.

use super::*;

impl Cluster {
    /// Whether the account a ring key belongs to still exists.
    pub(super) fn account_of_key_exists(&self, key: &RingKey) -> bool {
        key.as_str()
            .strip_prefix('/')
            .and_then(|k| k.split('/').next())
            .is_none_or(|account| self.account_exists(account))
    }

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
                    install(&topo, assigned, &key, &newest);
                    moved += 1;
                }
                continue;
            }
            moved += install(&topo, assigned, &key, &newest).0;
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
}
