//! Quorum replication: the read that asks every assigned device (and the
//! handoffs when the assigned set is suspect), the write every mutation
//! commits through, and the helpers repair and the migrator reconcile with.

use super::*;

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
pub(super) type KeySet = HashSet<RingKey, std::hash::BuildHasherDefault<PassThrough>>;

/// Newest version of `key` (tombstones included) on the reachable ones of
/// `nodes`; the first device holding the newest stamp supplies it.
pub(super) fn newest_on<'a>(
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

/// Store `newest` on the up devices of `assigned` that lack it. Returns
/// how many copies that made and how many up devices hold it afterwards.
pub(super) fn install(
    topo: &Topology,
    assigned: &[DeviceId],
    key: &RingKey,
    newest: &StoredReplica,
) -> (usize, usize) {
    let (at, mut copies, mut holders) = (key.at(), 0, 0);
    for &dev in assigned {
        let n = topo.node(dev);
        if n.is_down() {
            continue;
        }
        if n.stamp(at) != Some(newest.modified_ms) {
            n.store(&WriteKey::of(key), newest.placed(false), None);
            copies += 1;
        }
        holders += 1;
    }
    (copies, holders)
}

impl Cluster {
    /// The write half of every mutation: place `replica` (a tombstone when
    /// `replica.deleted`) under the `replicate` span, charging `cost` in
    /// it, then record the version in the catalog. The caller holds the
    /// key's op stripe and updates the listing index after. A torn write
    /// applies to a strict subset of replicas and errors out before the
    /// catalog — fail-after-write.
    pub(super) fn commit(
        &self,
        ctx: &mut OpCtx,
        topo: &Topology,
        at: KeyRef<'_>,
        replica: &StoredReplica,
        cost: Duration,
        torn: Option<usize>,
    ) -> Result<()> {
        let wkey = WriteKey::new(at);
        ctx.span(Stage::Quorum, "replicate", |ctx| {
            ctx.charge_time(cost);
            self.replicated_put_capped(ctx, topo, &wkey, replica, torn)
        })?;
        if replica.deleted {
            self.catalog_remove(at);
        } else {
            self.catalog_put(&wkey, replica.record.payload.len());
        }
        Ok(())
    }

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
        // concurrent rebalance, so the topology is loaded again *after* the
        // quorum placement. If the ring swapped mid-call, the write re-homes
        // onto the current assignment; while its partition is pending, it
        // also lands on the old ring's assignment, which readers fall back
        // to. Both checks follow the placement, so a completed migration
        // cannot have scanned past this key without one firing. No injector
        // is passed: no extra fault draws, so an acked write stays acked and
        // seeded replay stays byte-identical, migration or not.
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
    pub(super) fn read_replica(
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
}
