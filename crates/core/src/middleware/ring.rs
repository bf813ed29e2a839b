//! Ring reads and writes: the resolve path's cached, overlay-joined view,
//! the exact cloud object that merge cycles and gossip read, the one write
//! path every ring PUT funnels through, and the GC notifications that prune
//! a ring's local state.

use super::*;

/// Counter name for global-ring GETs actually issued against the cloud
/// (cache hits and group-commit coalescing both avoid these).
pub const RING_FETCHES: &str = "ring_fetches";

impl H2Middleware {
    /// Drop the cached copy of `(account, ns)`, if any. Called by GC after
    /// it deletes a dead ring object out from under the middleware.
    pub fn invalidate_ring(&self, account: &str, ns: NamespaceId) {
        self.drop_cached(&FdKey::of(account, ns));
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
            // Copy a shared local ring only when there is something to drop.
            if let Some(fd) = fds.get_mut(&key) {
                if fd.local.has_tombstone_below(horizon) {
                    Arc::make_mut(&mut fd.local).floor_tombstones(horizon);
                }
            }
        }
        self.drop_cached(&key);
    }

    /// GC notification: the ring object for `(account, ns)` was deleted
    /// (its directory is unreachable). Drop every bit of local state that
    /// refers to it — the descriptor, with its chain, merge gate and commit
    /// queue, and the cached copy — so this middleware can't write the dead
    /// ring back.
    pub fn forget_ring(&self, account: &str, ns: NamespaceId) {
        let key = FdKey::of(account, ns);
        self.fds.lock().remove(&key);
        self.drop_cached(&key);
    }

    /// Entries across this middleware's per-ring maintenance maps — the
    /// descriptor cache is the only one. (The ring cache and its write
    /// stamps are caches, which GC notifications prune on their own.)
    #[cfg(test)]
    pub(crate) fn ring_state_entries(&self) -> usize {
        self.fds.lock().len()
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
        ctx.span(Stage::Resolve, "read_ring", |ctx| {
            ctx.span_note("ns", || Note::Ns(ns));
            let key = FdKey::new(keys, ns);
            let epoch = self.ns_epoch(ns);
            let (global, hit) = match self.cached_global(&key) {
                Some(cached) => {
                    ctx.span_note("ring_cache", || Note::Str("hit"));
                    (cached, true)
                }
                None => {
                    if self.rings.is_some() {
                        ctx.span_note("ring_cache", || Note::Str("miss"));
                    }
                    (self.fetch_to_cache(ctx, keys, &key)?, false)
                }
            };
            let overlay = self.fds.lock().get(&key).map(|fd| Arc::clone(&fd.local));
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
    /// NameRing cache (see [`Self::cache_store`]).
    pub(super) fn fetch_to_cache(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        key: &FdKey,
    ) -> Result<Arc<NameRing>> {
        let (ring, ms) = self.fetch_ring_stamped(ctx, keys, key.ns)?;
        let ring = Arc::new(ring);
        self.cache_store(key, &ring, ms, false);
        Ok(ring)
    }

    /// GET and parse the ring object, with the write stamp of the copy
    /// that answered; an absent object reads as an empty ring with no
    /// stamp.
    fn fetch_ring_stamped(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
    ) -> Result<(NameRing, Option<u64>)> {
        Ok(match self.fetch_ring_object(ctx, keys, ns)? {
            Some(obj) => (
                formatter::namering_from_str(Self::ring_body(&obj, ns)?)?,
                Some(obj.modified_ms),
            ),
            None => (NameRing::new(), None),
        })
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

    /// Write a ring object back (formatter + PUT), writing through to the
    /// NameRing cache on success. Every ring write on this middleware —
    /// COPY's `write_ring`, merge cycles, gossip write-backs, `create_ring`
    /// — funnels through here, so the cache can never serve a ring older
    /// than what this middleware itself last wrote.
    pub(super) fn put_global_ring(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        ring: &Arc<NameRing>,
    ) -> Result<()> {
        let body = formatter::namering_to_string(ring);
        let key = keys.namering(ns);
        // Built once: retries re-send the same shared bytes.
        let payload = Payload::from_string(body);
        let ms = self.with_retry(ctx, Ring, "put_ring", |ctx| {
            self.store
                .put_stamped(ctx, &key, payload.clone(), Meta::new())
        })?;
        self.cache_store(&FdKey::new(keys, ns), ring, Some(ms), true);
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
}
