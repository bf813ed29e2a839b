//! File content, in one of two planes. `H2Config::cas` selects the plane
//! for everything this middleware writes. Off (the paper profile): a file
//! is one object at its child key, every size — one PUT, one GET, one
//! DELETE, one server-side COPY. On: the content-addressed block plane —
//! content is chunked (FastCDC-style, ~1 MiB target leaves), each chunk
//! stored as an immutable refcounted block under the cluster's reserved
//! `::cas/blk` namespace, children grouped [`CAS_FANOUT`] at a time into
//! branch blocks, and a small manifest written at the file's child key as
//! the commit point (root list + logical length, so STAT stays one HEAD).
//! Identical chunks across files and users collapse to the same block — a
//! share costs one HEAD-shaped refcount bump instead of a replicated
//! write. Reads dispatch on the stored object's `content-type`, so either
//! middleware reads what the other wrote.
//!
//! Failure policy: block references are released only after a manifest
//! that held them was verifiably displaced or deleted. A failed upload
//! releases exactly the references it took; a failed *manifest* PUT
//! releases nothing (the write may have torn — replicas of the new
//! manifest can exist, so its blocks must stay pinned). Leaks are bounded
//! and unreachable; a readable file pointing at missing blocks is
//! impossible.

use super::*;

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

impl H2Middleware {
    /// Stamp for a CAS manifest: unique per (middleware, write), so a
    /// retried torn manifest PUT is told apart from an identical overwrite.
    fn next_part_stamp(&self) -> u64 {
        let n = self.part_stamp.fetch_add(1, Ordering::Relaxed);
        (n << 8) | (self.node.0 as u64 & 0xff)
    }

    /// Built once per process: every plain file object shares this map.
    fn file_meta() -> Meta {
        static META: OnceLock<Meta> = OnceLock::new();
        META.get_or_init(|| Meta::from([("content-type".into(), CONTENT_TYPE_FILE.into())]))
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
        self.with_retry(ctx, Content, "put_content", |ctx| {
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
        let obj = self.with_retry(ctx, Content, "get_content", |ctx| self.store.get(ctx, &key))?;
        match Self::manifest_of(&obj) {
            Some(m) => self.cas_get(ctx, &key, &m?),
            None => Ok(obj.payload),
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
        self.with_retry(ctx, Content, "delete_content", |ctx| {
            self.store.delete(ctx, &key)
        })
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
        ctx.in_stage(Content, |ctx| self.store.copy(ctx, &src, &dst))
    }

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
                self.with_retry(ctx, Content, "cas_put_block", |ctx| {
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
        // 2. Branch levels until the root list fits one manifest; each
        //    level's branch PUTs are one bounded parallel wave.
        let mut level: Vec<(Digest128, u64)> = chunks.iter().map(|c| (c.digest, c.len)).collect();
        let mut depth = 0u32;
        while level.len() > CAS_FANOUT {
            let groups = level.len().div_ceil(CAS_FANOUT);
            let mut next: Vec<(Digest128, u64)> = Vec::with_capacity(groups);
            ctx.in_stage(Content, |ctx| {
                ctx.parallel(groups, |ctx, g| {
                    let group = &level[g * CAS_FANOUT..level.len().min((g + 1) * CAS_FANOUT)];
                    let body = formatter::cas_branch_to_string(group);
                    let digest = hash128(body.as_bytes());
                    let span: u64 = group.iter().map(|(_, l)| *l).sum();
                    let put = self.with_retry(ctx, Content, "cas_put_branch", |ctx| {
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
                        // upload held on its children; the upload now owns
                        // one reference to the branch instead.
                        Ok(true) => {}
                        Ok(false) => {
                            // The branch already existed and already owns
                            // references to exactly these children — drop
                            // the duplicates taken while writing them. The
                            // live branch pins every child, so nothing can
                            // cascade.
                            for (d, _) in group {
                                let _ = self.store.cas_decref(ctx, &d.to_hex());
                            }
                        }
                        Err(e) => {
                            // Release everything this upload still owns:
                            // the roots built so far plus the unconsumed
                            // tail.
                            let mut owned: Vec<Digest128> = next.iter().map(|(d, _)| *d).collect();
                            owned.extend(level[g * CAS_FANOUT..].iter().map(|(d, _)| *d));
                            self.cas_release(ctx, owned);
                            return Err(e);
                        }
                    }
                    next.push((digest, span));
                    Ok(())
                })
            })?;
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
        let prev = self.with_retry(ctx, Content, "put_manifest", |ctx| {
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
        let obj = self.with_retry(ctx, Content, "get_cas_branch", |ctx| {
            self.store.get(ctx, &bkey)
        })?;
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
        let obj = self.with_retry(ctx, Content, "get_cas_block", |ctx| {
            self.store.get(ctx, &bkey)
        })?;
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
        let prev = self.with_retry(ctx, Content, "delete_content", |ctx| {
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
        let obj = self.with_retry(ctx, Content, "get_manifest", |ctx| self.store.get(ctx, src))?;
        let Some(m) = Self::manifest_of(&obj) else {
            // Not block-plane content (written before the knob): plain copy.
            return ctx.in_stage(Content, |ctx| self.store.copy(ctx, src, dst));
        };
        let m = m?;
        // The increfs are one bounded parallel wave; the first failure
        // stops it, and exactly the references taken before it roll back.
        let mut taken = 0usize;
        let increfs = ctx.in_stage(Content, |ctx| {
            ctx.parallel(m.entries.len(), |ctx, i| {
                self.store.cas_incref(ctx, &m.entries[i].0.to_hex())?;
                taken += 1;
                Ok(())
            })
        });
        if let Err(e) = increfs {
            let owned = m.entries[..taken].iter().map(|(d, _)| *d).collect();
            self.cas_release(ctx, owned);
            return Err(e);
        }
        let new = formatter::CasManifest {
            stamp: self.next_part_stamp(),
            ..m
        };
        self.cas_commit_manifest(ctx, dst, &new)
    }

    /// Release one reference to each root, cascading through branch blocks
    /// whose count reaches zero (their children lose their referrer too).
    /// Level by level: a level's decrefs are one bounded parallel wave, and
    /// the children of the branches it reclaimed are the next level. Items
    /// run one after another, so none holds two block op stripes at once.
    /// Best-effort: a failure strands unreachable blocks, never an error.
    fn cas_release(&self, ctx: &mut OpCtx, mut work: Vec<Digest128>) {
        while !work.is_empty() {
            let mut next = Vec::new();
            // Items never fail: a decref error strands its block.
            let _ = ctx.in_stage(Content, |ctx| {
                ctx.parallel(work.len(), |ctx, i| {
                    let Ok(Some(obj)) = self.store.cas_decref(ctx, &work[i].to_hex()) else {
                        return Ok(());
                    };
                    // The block was reclaimed; if it was a branch, cascade.
                    if let Some(s) = obj.payload.as_str() {
                        if s.starts_with(formatter::CAS_BRANCH_MAGIC) {
                            if let Ok(children) = formatter::cas_branch_from_str(s) {
                                next.extend(children.into_iter().map(|(d, _)| d));
                            }
                        }
                    }
                    Ok(())
                })
            });
            work = next;
        }
    }

    /// Release the block tree a displaced or deleted CAS manifest held.
    fn cas_release_manifest(&self, ctx: &mut OpCtx, prev: &Object) {
        if let Some(Ok(m)) = Self::manifest_of(prev) {
            self.cas_release(ctx, m.entries.into_iter().map(|(d, _)| d).collect());
        }
    }

    /// The CAS manifest `obj` holds, parsed; `None` when `obj` is a
    /// whole-object file.
    fn manifest_of(obj: &Object) -> Option<Result<formatter::CasManifest>> {
        if obj.meta.get("content-type").map(String::as_str) != Some(CONTENT_TYPE_CAS) {
            return None;
        }
        Some(match obj.payload.as_str() {
            Some(s) => formatter::cas_manifest_from_str(s),
            None => Err(H2Error::Corrupt(format!(
                "cas manifest {} is not a string object",
                obj.key
            ))),
        })
    }
}
