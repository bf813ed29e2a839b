//! NameRing Maintenance (§3.3.2): patch submission with group commit, the
//! Background Merger, and the Gossip Arrangement with its anti-entropy
//! `resync`.

use super::*;

/// Counter name for merge cycles that failed and were left for retry
/// (chain restored). Incremented by [`H2Middleware::step_merges`].
pub const MERGE_FAILURES: &str = "merge_failures";

/// When patches are merged into their NameRings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Merge at submission time, inside the client operation.
    Eager,
    /// Merge when the background merger runs (`step_merges` / layer pump).
    Deferred,
}

/// A `(N_i, H_j, t_k)` gossip tuple: "the local version of NameRing `ns` in
/// node `from` has been updated at `version`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipMsg {
    pub account: String,
    pub ns: NamespaceId,
    pub from: NodeId,
    pub version: Timestamp,
}

/// What one Background Merger sweep accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Rings whose chains merged into the cloud this sweep.
    pub applied: usize,
    /// Rings whose merge cycle failed (chain restored for retry; also
    /// counted in the [`MERGE_FAILURES`] metric).
    pub failed: usize,
}

impl MergeOutcome {
    /// Total rings attempted this sweep.
    pub fn attempted(&self) -> usize {
        self.applied + self.failed
    }
}

/// The outcome one group-commit waiter receives: the shared batch result
/// plus the virtual time the leader spent on the batch (charged to each
/// waiter's context — every submitter waited out the same PUT).
#[derive(Debug, Clone)]
struct CommitResult {
    outcome: Result<()>,
    cost: std::time::Duration,
}

/// A ring's group-commit queue ([`RingSync::commit`]).
#[derive(Default)]
pub(super) struct CommitState {
    /// True while a leader is processing; arrivals during that window park.
    busy: bool,
    /// Waiting patches, tagged with their wake-up tickets.
    batch: Vec<(u64, NameRing)>,
    /// Finished results, keyed by ticket, awaiting pickup.
    results: HashMap<u64, CommitResult>,
    next_ticket: u64,
}

impl H2Middleware {
    /// Submit a patch against `ns`'s NameRing: PUT the patch object (keyed
    /// `ns::/NameRing/.Node<this>.Patch<k>`), append it to the node's chain,
    /// and fold it into the local version immediately. In Eager mode the
    /// merge into the global ring happens here too.
    ///
    /// Every submission is one `commit_batch`. Without group commit it is
    /// a batch of one. With it, concurrent submissions against the same
    /// ring coalesce: one leader commits the waiting patches as one batch
    /// on behalf of everyone — waiters park on the ring's condvar and wake
    /// with the shared result.
    pub fn submit_patch(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        patch: NameRing,
    ) -> Result<()> {
        ctx.charge_time(self.store.cost_model().patch_submit_cpu);
        if !self.group_commit {
            return self.commit_batch(ctx, keys, ns, std::iter::once(patch));
        }
        let sync = self
            .fds
            .lock()
            .entry(FdKey::new(keys, ns))
            .or_default()
            .sync();
        let mut st = sync.commit.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.batch.push((ticket, patch));
        if st.busy {
            // Follower: park until the leader posts this ticket's result,
            // then charge the batch's virtual cost — every waiter sat out
            // the same combined PUT.
            loop {
                if let Some(res) = st.results.remove(&ticket) {
                    drop(st);
                    ctx.charge_time(res.cost);
                    return res.outcome;
                }
                st = st.wait(&sync.committed);
            }
        }
        // Leader: drain and commit batches until no new arrivals remain.
        st.busy = true;
        loop {
            let batch = std::mem::take(&mut st.batch);
            drop(st);
            let tickets: Vec<u64> = batch.iter().map(|(ticket, _)| *ticket).collect();
            let start = ctx.elapsed();
            let outcome = self.commit_batch(ctx, keys, ns, batch.into_iter().map(|(_, p)| p));
            let cost = ctx.elapsed().saturating_sub(start);
            st = sync.commit.lock();
            st.results.extend(tickets.into_iter().map(|ticket| {
                let outcome = outcome.clone();
                (ticket, CommitResult { outcome, cost })
            }));
            sync.committed.notify_all();
            if st.batch.is_empty() {
                st.busy = false;
                break;
            }
        }
        let own = st
            .results
            .remove(&ticket)
            .expect("leader's own commit result");
        drop(st);
        // The leader's context already carried the batch's charges.
        own.outcome
    }

    /// Commit a batch of patches on the caller's context: join them into
    /// one combined patch, allocate the batch a contiguous patch-number
    /// range (only the base number carries an object — the combined PUT)
    /// and chain the base, both in one critical section before the PUT,
    /// then PUT, re-validate the descriptor and (Eager) merge. A failed PUT
    /// unchains the base and skips the local fold, so the whole batch
    /// stays invisible.
    ///
    /// Chaining before the PUT keeps the batch visible to
    /// `pending_descriptors` throughout, so `is_quiescent` never reports a
    /// quiet layer while a submitted update has reached neither the chain
    /// nor the local ring.
    fn commit_batch(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        mut patches: impl ExactSizeIterator<Item = NameRing>,
    ) -> Result<()> {
        let count = patches.len() as u32;
        let mut combined = patches.next().expect("a batch holds a patch");
        for patch in patches {
            combined.merge_from(&patch);
        }
        let key = FdKey::new(keys, ns);
        let base = {
            let mut fds = self.fds.lock();
            let fd = fds.entry(key.clone()).or_default();
            let base = fd.next_patch;
            fd.next_patch += count;
            fd.pending.insert(base);
            base
        };
        // Built once: retries re-send the same shared bytes.
        let payload = Payload::from_string(formatter::patch_to_string(&combined));
        let patch_key = keys.patch(ns, self.node, base);
        let put = self.with_retry(ctx, Ring, "submit_patch", |ctx| {
            self.store
                .put(ctx, &patch_key, payload.clone(), Meta::new())
        });
        {
            let mut fds = self.fds.lock();
            let fd = fds.entry(key).or_default();
            if put.is_ok() {
                Arc::make_mut(&mut fd.local).merge_from(&combined);
                // A concurrent merge cycle may have consumed the chain entry
                // while the PUT was in flight; it saw NotFound for this
                // patch object and skipped it, so the object just written
                // is referenced by nothing. Re-chain it: the next cycle
                // merges and deletes it. (The content is also safe in
                // `fd.local`, which every cycle folds in.)
                fd.pending.insert(base);
            } else {
                // The patch object never made it to the cloud: drop the
                // chain entry so the merger does not chase a ghost, and
                // skip the local fold so the failed write stays invisible,
                // like any other failed operation.
                fd.pending.remove(&base);
            }
        }
        put?;
        // The local overlay gained the batch: write-through invalidation
        // for any path/negative entry under this ring.
        self.bump_ns_epoch(ns);
        if self.mode == MaintenanceMode::Eager {
            self.merge_ns(ctx, keys, ns)?;
        }
        Ok(())
    }

    /// How many descriptors have unmerged patch chains.
    pub fn pending_descriptors(&self) -> usize {
        self.fds
            .lock()
            .values()
            .filter(|fd| !fd.pending.is_empty())
            .count()
    }

    /// Merge this node's patch chain for `ns` into the global NameRing
    /// object: fetch each patch in chain order, merge them into one "big"
    /// patch, fold it into the ring, write the ring back, delete the patch
    /// objects, and queue a gossip notification. Returns true if any patch
    /// was merged.
    pub fn merge_ns(&self, ctx: &mut OpCtx, keys: &H2Keys, ns: NamespaceId) -> Result<bool> {
        ctx.span(Stage::Merge, "merge_ns", |ctx| {
            ctx.span_note("ns", || Note::Ns(ns));
            self.merge_ns_inner(ctx, keys, ns)
        })
    }

    fn merge_ns_inner(&self, ctx: &mut OpCtx, keys: &H2Keys, ns: NamespaceId) -> Result<bool> {
        let key = FdKey::new(keys, ns);
        // One merge cycle per ring at a time on this node. The gate is taken
        // even when the chain is empty: an Eager submitter whose patch an
        // in-flight cycle already took must wait for that cycle to land it.
        let Some(sync) = self.fds.lock().get_mut(&key).map(FileDescriptor::sync) else {
            return Ok(false);
        };
        let _cycle = sync.merge.lock();
        let chain = {
            let mut fds = self.fds.lock();
            match fds.get_mut(&key) {
                Some(fd) if !fd.pending.is_empty() => std::mem::take(&mut fd.pending),
                _ => return Ok(false),
            }
        };
        // h2lint: allow(guard-across-blocking): the merge gate serializes this ring's merge cycles on this node by design; only the same ring's next cycle (or an Eager submitter waiting for its patch to land) waits.
        ctx.charge_time(self.store.cost_model().patch_cycle_cpu);
        // Run the fallible cycle; on *any* failure, restore the chain so a
        // retry re-merges (crash recovery for the Background Merger).
        let ring = match self.merge_cycle(ctx, keys, ns, &chain) {
            Ok(ring) => ring,
            Err(e) => {
                self.fds
                    .lock()
                    .entry(key)
                    .or_default()
                    .pending
                    .extend(chain);
                return Err(e);
            }
        };
        let version = ring.version();
        // Monotone: a patch submitted while this cycle was in flight stays
        // in the local version, and its chain entry carries it into the
        // global object on the next cycle — so the join is not written back.
        self.fds.lock().entry(key).or_default().absorb(ring);
        self.bump_ns_epoch(ns);
        self.announce(keys.account(), ns, version);
        Ok(true)
    }

    /// The fallible portion of one merge cycle: fetch the chain's patch
    /// objects, merge them (plus the local version) into the global ring,
    /// write it back and delete the consumed patches.
    fn merge_cycle(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        chain: &BTreeSet<u32>,
    ) -> Result<Arc<NameRing>> {
        // Walk the linked list: start with the lowest-numbered patch,
        // repeatedly fetch the successor and merge the two.
        let mut big = NameRing::new();
        for &no in chain {
            let key = keys.patch(ns, self.node, no);
            match self.with_retry(ctx, Ring, "fetch_patch", |ctx| self.store.get(ctx, &key)) {
                Ok(obj) => {
                    let s = obj.payload.as_str().ok_or_else(|| {
                        H2Error::Corrupt(format!("patch {key} is not a string object"))
                    })?;
                    big.merge_from(&formatter::patch_from_str(s)?);
                }
                // A patch can be missing if a previous merge crashed between
                // deleting patches and clearing state; the local ring
                // already contains its effect, so skip it.
                Err(H2Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let mut ring = self.fetch_global_ring(ctx, keys, ns)?;
        ring.merge_from(&big);
        // Also fold in anything only our local version knows (e.g. effects
        // of patches deleted by an earlier interrupted merge).
        {
            let fds = self.fds.lock();
            if let Some(fd) = fds.get(&FdKey::new(keys, ns)) {
                ring.merge_from(&fd.local);
            }
        }
        let ring = Arc::new(ring);
        self.put_global_ring(ctx, keys, ns, &ring)?;
        for &no in chain {
            // Patch objects are transient; a NotFound here is harmless.
            let key = keys.patch(ns, self.node, no);
            match self.with_retry(ctx, Ring, "delete_patch", |ctx| {
                self.store.delete(ctx, &key)
            }) {
                Ok(()) | Err(H2Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(ring)
    }

    /// Run the Background Merger over every descriptor with pending patches
    /// (Deferred mode's pump). Background spend is accounted internally.
    ///
    /// Every ring with a pending chain is attempted; a failing cycle
    /// restores its chain, bumps [`MERGE_FAILURES`], and does *not* stop
    /// the sweep. The outcome separates applied from failed counts so
    /// callers that loop "until nothing merges" terminate even while some
    /// rings keep failing.
    pub fn step_merges(&self) -> MergeOutcome {
        let work: Vec<FdKey> = {
            let fds = self.fds.lock();
            fds.iter()
                .filter(|(_, fd)| !fd.pending.is_empty())
                .map(|(key, _)| key.clone())
                .collect()
        };
        if work.is_empty() {
            return MergeOutcome::default();
        }
        // Background merge pumps are sampled like client ops, so Deferred
        // mode's maintenance shows up as MERGE-PUMP root traces.
        let merge_all = |ctx: &mut OpCtx| {
            let mut outcome = MergeOutcome::default();
            let mut first_error: Option<H2Error> = None;
            for FdKey { account, ns, .. } in work {
                let keys = H2Keys::new(&account);
                match self.merge_ns(ctx, &keys, ns) {
                    Ok(true) => outcome.applied += 1,
                    Ok(false) => {}
                    Err(e) => {
                        outcome.failed += 1;
                        self.merge_failures.incr();
                        first_error.get_or_insert(e);
                    }
                }
            }
            (outcome, first_error)
        };
        let mut ctx = OpCtx::new(self.store.cost_model());
        let ((outcome, _), _) =
            self.root(&mut ctx, Stage::Merge, "MERGE-PUMP", merge_all, |(_, e)| {
                e.as_ref().map(ToString::to_string)
            });
        self.absorb_background(&ctx);
        outcome
    }

    /// Queue a gossip notification: this node's local version of
    /// `(account, ns)` has been updated at `version`.
    fn announce(&self, account: &str, ns: NamespaceId, version: Timestamp) {
        self.outbox.lock().push(GossipMsg {
            account: account.to_string(),
            ns,
            from: self.node,
            version,
        });
    }

    /// Write back a join in which this node's local version added updates
    /// the global object lacked, and announce it: this node's information
    /// is now part of the global version.
    fn write_back(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        ns: NamespaceId,
        joined: &Arc<NameRing>,
    ) -> Result<()> {
        self.put_global_ring(ctx, keys, ns, joined)?;
        self.announce(keys.account(), ns, joined.version());
        Ok(())
    }

    /// Drain queued outbound gossip messages.
    pub fn take_outbox(&self) -> Vec<GossipMsg> {
        std::mem::take(&mut *self.outbox.lock())
    }

    /// How many outbound gossip messages are queued.
    pub(crate) fn queued_gossip(&self) -> usize {
        self.outbox.lock().len()
    }

    /// This node's local version of a ring, if it holds state for it.
    #[cfg(test)]
    pub(crate) fn local_ring(&self, keys: &H2Keys, ns: NamespaceId) -> Option<Arc<NameRing>> {
        let fds = self.fds.lock();
        fds.get(&FdKey::new(keys, ns))
            .map(|fd| Arc::clone(&fd.local))
    }

    /// Handle a whole inbox of gossip tuples in one sweep, with per-message
    /// results (index-aligned with `msgs`, so a failing message can be
    /// requeued individually — batching never couples one message's fate
    /// to another's). A message reports `Ok(true)` when its update was news
    /// to this node and `Ok(false)` when the local version is already at
    /// least as new (§3.3.2's loop-back avoidance by timestamp comparison).
    ///
    /// Compared with applying messages one at a time, a batch takes the
    /// descriptor lock O(1) times instead of O(messages): one acquisition
    /// for the loop-back version check, one for applying every fetched
    /// ring. Messages for the same ring are deduplicated — the ring is
    /// fetched and joined once on behalf of all of them (each such message
    /// reports `Ok(true)`, since the update was news to this node).
    pub fn on_gossip_batch(&self, msgs: &[GossipMsg]) -> Vec<Result<bool>> {
        let mut results: Vec<Option<Result<bool>>> = (0..msgs.len()).map(|_| None).collect();
        // Pass 1 — loop-back avoidance for the whole batch under one lock;
        // fresh messages are grouped by ring.
        let mut fresh: Vec<(FdKey, Vec<usize>)> = Vec::new();
        {
            let mut slots: FdMap<usize> = FdMap::default();
            let fds = self.fds.lock();
            for (i, msg) in msgs.iter().enumerate() {
                let key = FdKey::of(&msg.account, msg.ns);
                let stale = fds.get(&key).is_some_and(|fd| fd.knows(msg.version));
                if stale {
                    results[i] = Some(Ok(false));
                } else {
                    match slots.get(&key) {
                        Some(&slot) => fresh[slot].1.push(i),
                        None => {
                            slots.insert(key.clone(), fresh.len());
                            fresh.push((key, vec![i]));
                        }
                    }
                }
            }
        }
        let any_fresh = !fresh.is_empty();
        // Gossip runs on its own context, so batches self-sample into
        // GOSSIP-APPLY root traces.
        let apply = |ctx: &mut OpCtx| {
            ctx.span_note("batch", || Note::U64(msgs.len() as u64));
            ctx.span_note("rings", || Note::U64(fresh.len() as u64));
            let mut first_error: Option<String> = None;
            // Pass 2 — fetch each unique ring once, refreshing the NameRing
            // cache (gossip is what keeps cached rings fresh across nodes).
            let mut fetched: Vec<(FdKey, Arc<NameRing>, Vec<usize>)> = Vec::new();
            for (key, idxs) in fresh {
                let keys = H2Keys::new(&key.account);
                match self.fetch_to_cache(ctx, &keys, &key) {
                    Ok(global) => fetched.push((key, global, idxs)),
                    Err(e) => {
                        first_error.get_or_insert_with(|| e.to_string());
                        for i in idxs {
                            results[i] = Some(Err(e.clone()));
                        }
                    }
                }
            }
            // Pass 3 — one descriptor-lock acquisition applies every join.
            let mut writebacks: Vec<(FdKey, Arc<NameRing>, Vec<usize>)> = Vec::new();
            let mut applied_ns: Vec<NamespaceId> = Vec::new();
            {
                let mut fds = self.fds.lock();
                for (key, global, idxs) in fetched {
                    applied_ns.push(key.ns);
                    match fds.entry(key.clone()).or_default().absorb(global) {
                        None => {
                            for i in idxs {
                                results[i] = Some(Ok(true));
                            }
                        }
                        Some(joined) => writebacks.push((key, joined, idxs)),
                    }
                }
            }
            for ns in applied_ns {
                self.bump_ns_epoch(ns);
            }
            // Pass 4 — when this node knew updates the global object lacked,
            // write the join back and re-gossip (our information is now part
            // of the global version). A write-back failure fails only that
            // ring's messages; the local join above is idempotent on requeue.
            for (key, joined, idxs) in writebacks {
                ctx.span_note("write_back", || {
                    Note::Str("local updates joined into global")
                });
                let outcome = self
                    .write_back(ctx, &H2Keys::new(&key.account), key.ns, &joined)
                    .map(|()| true);
                if let Err(e) = &outcome {
                    first_error.get_or_insert_with(|| e.to_string());
                }
                for i in idxs {
                    results[i] = Some(outcome.clone());
                }
            }
            first_error
        };
        if any_fresh {
            let mut ctx = OpCtx::new(self.store.cost_model());
            self.root(&mut ctx, Stage::Gossip, "GOSSIP-APPLY", apply, Clone::clone);
            self.absorb_background(&ctx);
        }
        // Observe the newest version this node actually absorbed.
        let applied_max = msgs
            .iter()
            .enumerate()
            .filter(|(i, _)| matches!(results[*i], Some(Ok(true))))
            .map(|(_, m)| m.version)
            .max();
        if let Some(v) = applied_max {
            self.clock.observe(v);
        }
        results
            .into_iter()
            .map(|r| r.expect("every message settled"))
            .collect()
    }

    /// Bounded anti-entropy sweep: re-fetch from the cloud every NameRing
    /// this middleware holds state for — descriptor-cache entries and
    /// cached global rings alike — join each with the local version, and
    /// write back + re-gossip any ring where this node knew updates the
    /// global object lacked. Returns how many rings were refreshed.
    ///
    /// This closes the post-fault re-convergence gap: gossip only refreshes
    /// rings whose update notifications *arrived*, so a notification dropped
    /// during a fault window leaves the cached copy stale until some later
    /// write happens to touch that ring. A resync revalidates every known
    /// ring unconditionally (each refresh bumps the namespace epoch, so
    /// dependent full-path cache entries are invalidated too). The sweep is
    /// bounded by this node's own state — it never enumerates the cloud —
    /// and the same call doubles as the cache refresh after a
    /// placement-ring swap (an `add_node`, `drain_node` or `set_weight`):
    /// the re-fetches run under the new placement, re-validating any answer
    /// the old one produced.
    pub fn resync(&self) -> Result<usize> {
        let keys: Vec<FdKey> = {
            let mut set: HashSet<FdKey> = self.fds.lock().keys().cloned().collect();
            set.extend(self.cached_rings());
            let mut v: Vec<FdKey> = set.into_iter().collect();
            v.sort_by(|a, b| (&a.account, a.ns).cmp(&(&b.account, b.ns)));
            v
        };
        if keys.is_empty() {
            return Ok(0);
        }
        let refresh_all = |ctx: &mut OpCtx| {
            ctx.span_note("rings", || Note::U64(keys.len() as u64));
            let mut first_error: Option<H2Error> = None;
            let mut refreshed = 0usize;
            for key in keys {
                let h2keys = H2Keys::new(&key.account);
                let global = match self.fetch_to_cache(ctx, &h2keys, &key) {
                    Ok(global) => global,
                    Err(e) => {
                        first_error.get_or_insert(e);
                        continue;
                    }
                };
                let joined = self
                    .fds
                    .lock()
                    .get_mut(&key)
                    .and_then(|fd| fd.absorb(global));
                self.bump_ns_epoch(key.ns);
                refreshed += 1;
                if let Some(joined) = joined {
                    if let Err(e) = self.write_back(ctx, &h2keys, key.ns, &joined) {
                        first_error.get_or_insert(e);
                    }
                }
            }
            match first_error {
                Some(e) => Err(e),
                None => Ok(refreshed),
            }
        };
        let mut ctx = OpCtx::new(self.store.cost_model());
        let (refreshed, _) = self.root(&mut ctx, Stage::Gossip, "RESYNC", refresh_all, |r| {
            r.as_ref().err().map(ToString::to_string)
        });
        self.absorb_background(&ctx);
        refreshed
    }
}
