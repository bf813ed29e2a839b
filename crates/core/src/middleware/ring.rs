//! Ring reads and writes: the resolve path's cached, overlay-joined view,
//! the exact cloud object that merge cycles and gossip read, the two ring
//! writes — an unannounced first PUT of a fresh ring and an announced
//! rewrite — and the two GC notifications that prune a ring's local state:
//! a compaction's floor and a dead ring's removal.

use super::*;

/// Counter name for global-ring GETs actually issued against the cloud
/// (cache hits and group-commit coalescing both avoid these).
pub const RING_FETCHES: &str = "ring_fetches";

impl H2Middleware {
    /// Drop the cached copy of `(account, ns)` and its stamp, and with them
    /// every path entry built on the ring: a record that keeps a descriptor
    /// gets a new epoch, any other goes. No rewrite needs it — each one
    /// refreshes the writer's copy and is announced to the peers — so only
    /// tests and probes call it, to make the next read go to the cloud.
    pub fn invalidate_ring(&self, account: &str, ns: NamespaceId) {
        let key = FdKey::of(account, ns);
        let mut guard = self.ring_shard(&key).lock();
        let shard = &mut *guard;
        match shard.records.get_mut(&key) {
            Some(record) if record.fd.is_some() => {
                shard.lru.remove(&key);
                record.copy = None;
                record.stamp = None;
                bump(&record.epoch);
            }
            _ => shard.remove(&key),
        }
    }

    /// GC notification: the global ring for `(account, ns)` is being
    /// compacted, and `removed` holds the tombstones it drops, in name
    /// order. Drop from this middleware's local version every tuple those
    /// tombstones cover, so neither a reclaimed tombstone nor the older
    /// live tuple it deleted can re-enter the global object through a
    /// later join (resurrection of an acknowledged DELETE). GC calls it
    /// before it writes the compacted ring.
    pub fn gc_floor(&self, account: &str, ns: NamespaceId, removed: &[(String, Tuple)]) {
        self.with_fd(&FdKey::of(account, ns), |fd| {
            // Copy a shared local ring only when there is something to drop:
            // the test is `drop_covered`'s, a tombstone in either state.
            let covered = |(name, t): &(String, Tuple)| {
                fd.local.get_raw(name).is_some_and(|ours| t.floors(ours))
            };
            if removed.iter().any(covered) {
                Arc::make_mut(&mut fd.local).drop_covered(removed);
            }
        });
    }

    /// GC notification: the ring object for `(account, ns)` was deleted
    /// (its directory is unreachable). Drop its record, descriptor and all,
    /// so this middleware can't write the dead ring back.
    pub fn forget_ring(&self, account: &str, ns: NamespaceId) {
        let key = FdKey::of(account, ns);
        self.ring_shard(&key).lock().remove(&key);
    }

    /// How many descriptors this middleware keeps: its per-ring
    /// maintenance state.
    #[cfg(test)]
    pub(crate) fn ring_state_entries(&self) -> usize {
        self.rings.iter().map(|s| s.lock().patched.len()).sum()
    }

    /// How many ring records this middleware keeps, descriptors or not.
    #[cfg(test)]
    pub(crate) fn ring_records(&self) -> usize {
        self.rings.iter().map(|s| s.lock().records.len()).sum()
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

    /// [`read_ring_view`](Self::read_ring_view) plus the ring's epoch mark,
    /// read with the cached copy and the local version, or before a fetch.
    /// Any mutation after that bumps past it, so an entry built from this
    /// view never validates against data it did not see. (A fetch of a copy
    /// the cache did not hold bumps too, wasting the entry stored from it
    /// until the next walk; refetching an unchanged evicted ring does not.)
    pub fn read_ring_view_stamped(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<(RingView, EpochMark)> {
        ctx.span(Stage::Resolve, "read_ring", |ctx| {
            ctx.span_note("ns", || Note::Ns(ns));
            let key = FdKey::new(keys, ns);
            let (epoch, cached, overlay) = self.read_record(&key);
            let (global, hit) = match cached {
                Some(cached) => {
                    ctx.span_note("ring_cache", || Note::Str("hit"));
                    (cached, true)
                }
                None => {
                    if self.cache.is_some() {
                        ctx.span_note("ring_cache", || Note::Str("miss"));
                    }
                    (self.fetch_to_cache(ctx, keys, &key)?.0, false)
                }
            };
            let view = RingView::new(global, overlay);
            Ok((if hit { view.mark_cached() } else { view }, epoch))
        })
    }

    /// The ring object exactly as stored (no local overlay), as merge
    /// cycles and gossip read it.
    pub fn fetch_global_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<NameRing> {
        self.fetch_ring_stamped(ctx, keys, ns).map(|(ring, _)| ring)
    }

    /// [`fetch_global_ring`](Self::fetch_global_ring), plus whether the
    /// stored body is byte for byte what the Formatter writes for the ring
    /// it parses to (an absent object reads as an empty, canonical ring).
    /// The parser's append-only fast path assumes such bodies; fsck audits
    /// that with this, in the same one GET.
    pub(crate) fn fetch_global_ring_audited(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<(NameRing, bool)> {
        Ok(match self.fetch_ring_object(ctx, keys, ns)? {
            Some(obj) => {
                let body = Self::ring_body(&obj, ns)?;
                let ring = formatter::namering_from_str(body)?;
                let canonical = formatter::namering_to_string(&ring) == body;
                (ring, canonical)
            }
            None => (NameRing::new(), true),
        })
    }

    /// The global ring for `key`, fetched from the cloud and stored in the
    /// NameRing cache (see [`Self::cache_store`]), with the write stamp of
    /// the copy that answered (`None`: no object).
    pub(super) fn fetch_to_cache(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        key: &FdKey,
    ) -> Result<(Arc<NameRing>, Option<u64>)> {
        let (ring, ms) = self.fetch_ring_stamped(ctx, keys, key.ns)?;
        let ring = Arc::new(ring);
        self.cache_store(key, &ring, ms, false);
        Ok((ring, ms))
    }

    /// GET and parse the ring object, with the write stamp of the copy
    /// that answered; an absent object reads as an empty ring with no
    /// stamp. The clock observes the ring's newest tuple timestamp (the
    /// HLC receive rule), so a tuple this node stamps after reading the
    /// ring outranks every tuple it read — whether or not it ever heard
    /// the ring's gossip.
    fn fetch_ring_stamped(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<(NameRing, Option<u64>)> {
        let Some(obj) = self.fetch_ring_object(ctx, keys, ns)? else {
            return Ok((NameRing::new(), None));
        };
        let ring = formatter::namering_from_str(Self::ring_body(&obj, ns)?)?;
        self.clock.observe(ring.version());
        Ok((ring, Some(obj.modified_ms)))
    }

    /// GET the ring object with this middleware's retries (`None`: absent).
    fn fetch_ring_object(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<Option<Object>> {
        let key = keys.namering(ns);
        self.ring_fetches.incr();
        match self.with_retry(ctx, Ring, "fetch_ring", |ctx| self.store.get(ctx, &key)) {
            Ok(obj) => Ok(Some(obj)),
            Err(H2Error::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn ring_body(obj: &Object, ns: NamespaceId) -> Result<&str> {
        obj.payload
            .as_str()
            .ok_or_else(|| H2Error::Corrupt(format!("NameRing {ns} is not a string object")))
    }

    /// PUT a ring object (formatter + PUT), writing through to the
    /// NameRing cache on success, and return the write stamp the object
    /// landed with. Only the two ring writes, `create_ring` and
    /// `write_ring`, reach it, so the cache can never serve a ring older
    /// than what this middleware itself last wrote.
    fn put_global_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        ring: &Arc<NameRing>,
    ) -> Result<u64> {
        let body = formatter::namering_to_string(ring);
        let key = keys.namering(ns);
        // Built once: retries re-send the same shared bytes.
        let payload = Payload::from_string(body);
        let ms = self.with_retry(ctx, Ring, "put_ring", |ctx| {
            self.store
                .put_stamped(ctx, &key, payload.clone(), Meta::new())
        })?;
        self.cache_store(&FdKey::new(keys, ns), ring, Some(ms), true);
        Ok(ms)
    }

    /// The first PUT of a fresh namespace's ring, one that no ring names
    /// yet: the account root, a new directory, COPY's destination rings,
    /// bulk import's new directories. No peer can hold such a ring, so the
    /// write announces nothing, and no patch was submitted, so it creates
    /// no descriptor.
    pub fn create_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        ring: NameRing,
    ) -> Result<()> {
        self.put_global_ring(ctx, keys, ns, &Arc::new(ring))
            .map(|_| ())
    }

    /// Rewrite a ring object a peer may hold — a ring cycle's join, GC's
    /// compaction, bulk import into an existing directory — and announce
    /// it: every rewrite is a `(N_i, H_j, t_k)` tuple (§3.3.2), so a peer
    /// whose write this one overwrote hears a stamp above its own, refetches
    /// and writes back its join. A descriptor, if this node keeps one for
    /// the ring, hears the stamp; none is created.
    pub fn write_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        ring: &Arc<NameRing>,
    ) -> Result<()> {
        let stamp = self.put_global_ring(ctx, keys, ns, ring)?;
        self.with_fd(&FdKey::new(keys, ns), |fd| fd.hear(Some(stamp)));
        self.outbox.lock().push(GossipMsg {
            account: keys.account().to_string(),
            ns,
            stamp,
        });
        Ok(())
    }
}
