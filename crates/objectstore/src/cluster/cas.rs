//! The CAS block store: content-addressed blocks live under the reserved
//! `::cas/blk` namespace as ordinary replicated objects, plus the one piece
//! of proxy state no Swift proxy has — a sharded refcount map (hex digest
//! → direct referrers). The invariant is per-block: a refcount entry exists
//! iff the block is live, and every mutation of a block's count happens
//! under that block's op stripe — the same stripe its replica writes use —
//! so share-vs-write and decref-vs-incref races serialize per block.

use super::*;

impl Cluster {
    /// The object key a CAS block is stored under.
    pub fn cas_block_key(digest_hex: &str) -> ObjectKey {
        ObjectKey::new(CAS_ACCOUNT, CAS_CONTAINER, digest_hex)
    }

    /// The ring key of [`Cluster::cas_block_key`], without building it.
    pub(super) fn cas_ring_key(digest_hex: &str) -> String {
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
            ctx.charge(PrimKind::Put, Duration::ZERO);
            let cost = self.cfg.cost.put_cost(payload.len() as usize);
            let replica = StoredReplica::live(Record::new(payload, meta), self.next_ms(), false);
            self.commit(ctx, &topo, at, &replica, cost, torn)?;
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
}
