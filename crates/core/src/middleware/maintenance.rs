//! NameRing Maintenance (§3.3.2): patch submission with group commit, the
//! Background Merger, and the Gossip Arrangement with its anti-entropy
//! `resync`.
//!
//! A node's patch chain for a ring is a run of segments. A segment is one
//! patch object, `{ns}::/NameRing/.Node{n}.Patch{k}`, that each submit
//! re-PUTs with its batch appended, until a merge takes the chain or the
//! segment holds [`SEGMENT_SUBMITS`] submits; a merge then deletes one
//! object per segment, not one per write. At most one PUT per segment key
//! is in flight: a submit that finds one writes a fresh segment instead.

use super::*;

/// Counter name for merge cycles that failed and were left for retry
/// (chain restored). Incremented by [`H2Middleware::step_merges`].
pub const MERGE_FAILURES: &str = "merge_failures";

/// Counter bumped when applying an incoming gossip message fails (the
/// message is requeued with bounded attempts, not dropped).
pub const GOSSIP_APPLY_FAILURES: &str = "gossip_apply_failures";

/// How many times a gossip message that fails to apply is re-attempted
/// before it is finally dropped. Transient faults redraw on every attempt,
/// so even sustained high error rates survive this budget; a message that
/// exhausts it was facing a persistent outage, and its news then waits for
/// a later merge on the same ring or a `resync` (ROADMAP item 21).
const MAX_GOSSIP_ATTEMPTS: u32 = 32;

/// How many submits one patch segment gathers before the next submit
/// opens a fresh one. Every rewrite re-sends the segment's whole body, so
/// the cap bounds a rewrite's bytes, while a merge still deletes one
/// object per run of up to this many submits.
pub(super) const SEGMENT_SUBMITS: u32 = 32;

/// A ring's open patch segment on this node: the chained patch object the
/// next submit rewrites with its batch appended.
pub(super) struct Segment {
    /// Its number in the chain.
    no: u32,
    /// The body its acknowledged submits wrote.
    body: Payload,
    /// The tuples `body` holds.
    tuples: usize,
    /// The acknowledged submits `body` holds.
    submits: u32,
    /// True while a PUT of the segment is in flight. A submit that finds
    /// it so writes a fresh segment instead: one PUT per segment key in
    /// flight, so no rewrite lands over a later one.
    writing: bool,
}

/// The segment one commit writes: its number, and the body and tuple
/// count its acknowledged submits left (`None`: a fresh segment).
pub(super) type Claim = (u32, Option<(Payload, usize)>);

impl FileDescriptor {
    /// Claim a segment for one commit: the open segment, unless its PUT is
    /// in flight; else a fresh one, chained before its PUT and made the
    /// open one.
    pub(super) fn claim_segment(&mut self) -> Claim {
        if let Some(seg) = self.open.as_mut().filter(|seg| !seg.writing) {
            seg.writing = true;
            return (seg.no, Some((seg.body.clone(), seg.tuples)));
        }
        let no = self.next_patch;
        self.next_patch += 1;
        self.pending.insert(no);
        self.open = Some(Segment {
            no,
            body: Payload::from_static(""),
            tuples: 0,
            submits: 0,
            writing: true,
        });
        (no, None)
    }

    /// Settle a commit's PUT of segment `no` (`fresh`: the claim made it).
    /// A landed PUT chains the segment again — a merge cycle running during
    /// the PUT may have consumed the chain entry and deleted the object
    /// before it landed, so the next cycle deletes it — and, if the
    /// segment is still the open one, makes `landed` (body, tuples,
    /// submits added) its acknowledged state, closing it once it holds
    /// [`SEGMENT_SUBMITS`] submits. A failed PUT leaves a segment's
    /// acknowledged state and its chain entry as they were; a fresh
    /// segment has none, so it is unchained and closed.
    pub(super) fn settle_segment(
        &mut self,
        no: u32,
        fresh: bool,
        landed: Option<(Payload, usize, u32)>,
    ) {
        let open = self.open.as_mut().filter(|seg| seg.no == no);
        let close = if let Some((body, tuples, submits)) = landed {
            self.pending.insert(no);
            open.is_some_and(|seg| {
                seg.body = body;
                seg.tuples = tuples;
                seg.submits += submits;
                seg.writing = false;
                seg.submits >= SEGMENT_SUBMITS
            })
        } else {
            if fresh {
                self.pending.remove(&no);
            }
            open.is_some_and(|seg| {
                seg.writing = false;
                fresh
            })
        };
        if close {
            self.open = None;
        }
    }
}

/// When patches are merged into their NameRings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Merge at submission time, inside the client operation.
    Eager,
    /// Merge when the background merger runs (`step_merges` / layer pump).
    Deferred,
}

/// A `(N_i, H_j, t_k)` gossip tuple: "NameRing `ns` of `account` was
/// updated, in the ring object written at `stamp`". The write stamp is the
/// ring's one version: the loop-back check compares it, and a receiver's
/// clock learns the ring's tuple timestamps when it fetches the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipMsg {
    pub account: String,
    pub ns: NamespaceId,
    pub stamp: u64,
}

/// A middleware's gossip waiting to be applied, each message with the
/// number of times its application has already failed.
pub(super) type Inbox = Vec<(GossipMsg, u32)>;

/// What one [`H2Middleware::apply_inbox`] call did.
#[derive(Debug, Default)]
pub struct InboxOutcome {
    /// Messages applied, news or not.
    pub applied: usize,
    /// The most failed attempts among the messages requeued for the next
    /// apply (`None`: nothing was requeued).
    pub retrying: Option<u32>,
    /// The error of the first message that spent its attempt budget and
    /// was dropped.
    pub dropped: Option<H2Error>,
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
    pub(super) busy: bool,
    /// Waiting patches, tagged with their wake-up tickets.
    pub(super) batch: Vec<(u64, NameRing)>,
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
        let key = FdKey::new(keys, ns);
        let sync = self.with_descriptor(&key, |fd, _| Arc::clone(&fd.sync));
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

    /// Commit a batch of patches on the caller's context: join them, claim
    /// a segment — the ring's open one, or a fresh one chained before the
    /// PUT — and PUT the segment's acknowledged body with the batch's
    /// tuples appended, then settle the descriptor and (Eager) merge. Only
    /// the batch is formatted. A landed PUT folds the batch into the local
    /// version, the copy a merge cycle merges; the segment object is the
    /// chain's durable record and is never read back. A failed PUT skips
    /// the local fold, so the whole batch stays invisible: a rewritten
    /// segment stays chained with its acknowledged tuples, a fresh one is
    /// unchained. A failed merge after a landed PUT is counted in
    /// [`MERGE_FAILURES`] and left to the next cycle.
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
        let (no, held) = self.with_descriptor(&key, |fd, _| fd.claim_segment());
        let (held_body, held_tuples) = held.as_ref().map_or(("", 0), |(body, tuples)| {
            (body.as_str().expect("a segment body is text"), *tuples)
        });
        let tuples = held_tuples + combined.len();
        // Built once: retries re-send the same shared bytes.
        let payload =
            Payload::from_string(formatter::patch_extend(held_body, held_tuples, &combined));
        let patch_key = keys.patch(ns, self.node, no);
        let put = self.with_retry(ctx, Ring, "submit_patch", |ctx| {
            self.store
                .put(ctx, &patch_key, payload.clone(), Meta::new())
        });
        let landed = put.is_ok().then_some((payload, tuples, count));
        self.with_descriptor(&key, |fd, epoch| {
            if landed.is_some() {
                Arc::make_mut(&mut fd.local).merge_from(&combined);
                // The local overlay gained the batch.
                bump(epoch);
            }
            fd.settle_segment(no, held.is_none(), landed);
        });
        put?;
        // The submit reports the patch, not its merge: once the PUT landed
        // the update is durable and chained, and a failed merge restored
        // the chain for the next cycle.
        if self.mode == MaintenanceMode::Eager && self.merge_ns(ctx, keys, ns).is_err() {
            self.merge_failures.incr();
        }
        Ok(())
    }

    /// How many descriptors have unmerged patch chains.
    pub fn pending_descriptors(&self) -> usize {
        self.pending_rings().len()
    }

    /// The rings whose descriptors have unmerged patch chains.
    fn pending_rings(&self) -> Vec<FdKey> {
        let mut rings = Vec::new();
        for shard in &self.rings {
            let shard = shard.lock();
            for key in &shard.patched {
                let fd = shard.records.get(key).and_then(|r| r.fd.as_ref());
                if fd.is_some_and(|fd| !fd.pending.is_empty()) {
                    rings.push(key.clone());
                }
            }
        }
        rings
    }

    /// Mark `name`'s tombstone `tomb` reclaimed in this node's local
    /// version of `ns`: the caller deleted the object the name keys. It
    /// marks only while the local version still holds `tomb` and the chain
    /// is pending, so the merge that is due anyway writes the mark; an
    /// Eager submit merged in its own op, and marks nothing. The epoch
    /// stays: a mark changes nothing a reader of live tuples sees.
    pub fn mark_reclaimed(&self, keys: &H2Keys, ns: NamespaceId, name: &str, tomb: Tuple) {
        self.with_fd(&FdKey::new(keys, ns), |fd| {
            if !fd.pending.is_empty() && fd.local.get_raw(name) == Some(&tomb) {
                Arc::make_mut(&mut fd.local).apply(name, tomb.mark_reclaimed());
            }
        });
    }

    /// Merge this node's patch chain for `ns` into the global NameRing
    /// object: bring the ring object up to date with the local version,
    /// which holds every chained patch already, through `ring_cycle`, and
    /// delete the chain's patch objects as one bounded parallel section.
    /// Returns true if any patch was merged.
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
        let Some(sync) = self.with_fd(&key, |fd| Arc::clone(&fd.sync)) else {
            return Ok(false);
        };
        let _cycle = sync.merge.lock();
        // Taking the chain closes the open segment: the cycle deletes it.
        let chain = self.with_fd(&key, |fd| {
            fd.open = None;
            std::mem::take(&mut fd.pending)
        });
        let Some(chain) = chain.filter(|chain| !chain.is_empty()) else {
            return Ok(false);
        };
        // h2lint: allow(guard-across-blocking): the merge gate serializes this ring's merge cycles on this node by design; only the same ring's next cycle (or an Eager submitter waiting for its patch to land) waits.
        ctx.charge_time(self.store.cost_model().patch_cycle_cpu);
        // Run the fallible cycle; on *any* failure, restore the chain so a
        // retry re-merges (crash recovery for the Background Merger).
        if let Err(e) = self.merge_cycle(ctx, keys, &key, &chain) {
            self.with_descriptor(&key, |fd, _| fd.pending.extend(chain));
            return Err(e);
        }
        Ok(true)
    }

    /// The fallible portion of one merge cycle: run
    /// [`ring_cycle`](Self::ring_cycle) on the ring — which writes the
    /// join back and announces it, unless the cloud already holds it — and
    /// delete the consumed patches.
    ///
    /// The cycle reads no patch object: `commit_batch` folded each one into
    /// the local version when its PUT landed, so the ring cycle's join
    /// already carries the whole chain. The objects are the durable record
    /// of the chain for crash recovery, not an input of the merge.
    fn merge_cycle(
        &self,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        key: &FdKey,
        chain: &BTreeSet<u32>,
    ) -> Result<()> {
        let cycle = self.ring_cycle(ctx, std::slice::from_ref(key)).pop();
        cycle.expect("one result per ring")?;
        // Patch objects are transient; a NotFound here is harmless. The
        // consumed chain goes as one bounded parallel section, issued in
        // chain order.
        let mut delete = chain.iter();
        ctx.parallel(chain.len(), |ctx, _| {
            let no = *delete.next().expect("one item per chained patch");
            let patch = keys.patch(key.ns, self.node, no);
            match self.with_retry(ctx, Ring, "delete_patch", |ctx| {
                self.store.delete(ctx, &patch)
            }) {
                Ok(()) | Err(H2Error::NotFound(_)) => Ok(()),
                Err(e) => Err(e),
            }
        })?;
        Ok(())
    }

    /// Run the Background Merger over every descriptor with pending patches
    /// (Deferred mode's pump). Background spend is accounted internally.
    ///
    /// The rings' cycles do not depend on each other, so they run as one
    /// bounded [`OpCtx::parallel`] section, issued in `pending_rings`
    /// order: the requests are those of a serial sweep, and the modelled
    /// time is ⌈R / parallelism⌉ waves, each as long as its slowest cycle.
    /// Every ring with a pending chain is attempted; a failing cycle
    /// restores its chain, bumps [`MERGE_FAILURES`], and does *not* stop
    /// the sweep. The outcome separates applied from failed counts so
    /// callers that loop "until nothing merges" terminate even while some
    /// rings keep failing.
    pub fn step_merges(&self) -> MergeOutcome {
        let work = self.pending_rings();
        if work.is_empty() {
            return MergeOutcome::default();
        }
        // Background merge pumps are sampled like client ops, so Deferred
        // mode's maintenance shows up as MERGE-PUMP root traces.
        let merge_all = |ctx: &mut OpCtx| {
            let mut outcome = MergeOutcome::default();
            let mut first_error: Option<H2Error> = None;
            // Every item reports `Ok`, so a failing cycle ends nothing.
            let wave = ctx.parallel(work.len(), |ctx, i| {
                let FdKey { account, ns, .. } = &work[i];
                match self.merge_ns(ctx, &H2Keys::new(account), *ns) {
                    Ok(true) => outcome.applied += 1,
                    Ok(false) => {}
                    Err(e) => {
                        outcome.failed += 1;
                        self.merge_failures.incr();
                        first_error.get_or_insert(e);
                    }
                }
                Ok(())
            });
            wave.expect("a merge item never fails");
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

    /// Drain queued outbound gossip messages.
    pub fn take_outbox(&self) -> Vec<GossipMsg> {
        std::mem::take(&mut *self.outbox.lock())
    }

    /// Queue an inbound gossip message for the next
    /// [`apply_inbox`](Self::apply_inbox).
    pub fn deliver(&self, msg: GossipMsg) {
        self.inbox.lock().push((msg, 0));
    }

    /// How many gossip messages are queued, outbound and inbound.
    pub(crate) fn queued_gossip(&self) -> usize {
        let outbound = self.outbox.lock().len();
        outbound + self.inbox.lock().len()
    }

    /// Apply the whole inbox as one [`on_gossip_batch`](Self::on_gossip_batch)
    /// call, taken out of the queue first so deliveries never wait on the
    /// cloud. Every message that fails is counted in
    /// [`GOSSIP_APPLY_FAILURES`] and requeued one attempt older, so a bad
    /// message never holds the rest of the batch hostage. A message that
    /// spends `MAX_GOSSIP_ATTEMPTS` is dropped instead.
    pub fn apply_inbox(&self) -> InboxOutcome {
        let queued = std::mem::take(&mut *self.inbox.lock());
        let mut outcome = InboxOutcome::default();
        if queued.is_empty() {
            return outcome;
        }
        let (msgs, attempts): (Vec<GossipMsg>, Vec<u32>) = queued.into_iter().unzip();
        let results = self.on_gossip_batch(&msgs);
        let mut retry = Inbox::new();
        for ((msg, attempts), res) in msgs.into_iter().zip(attempts).zip(results) {
            match res {
                Ok(_) => outcome.applied += 1,
                Err(e) => {
                    self.gossip_apply_failures.incr();
                    if attempts + 1 < MAX_GOSSIP_ATTEMPTS {
                        retry.push((msg, attempts + 1));
                        outcome.retrying = outcome.retrying.max(Some(attempts + 1));
                    } else {
                        outcome.dropped.get_or_insert(e);
                    }
                }
            }
        }
        if !retry.is_empty() {
            self.inbox.lock().append(&mut retry);
        }
        outcome
    }

    /// This node's local version of a ring, if it holds state for it.
    #[cfg(test)]
    pub(crate) fn local_ring(&self, keys: &H2Keys, ns: NamespaceId) -> Option<Arc<NameRing>> {
        self.with_fd(&FdKey::new(keys, ns), |fd| Arc::clone(&fd.local))
    }

    /// Handle a whole inbox of gossip tuples in one sweep, with per-message
    /// results (index-aligned with `msgs`, so a failing message can be
    /// requeued individually). A message reports `Ok(true)` when it is
    /// news: it names a ring this node keeps a record of, in an object newer
    /// than any of it this node has heard of (`RingRecord::heard`). Every
    /// other message reports `Ok(false)`, costs nothing and creates no
    /// state: it is old news (§3.3.2's loop-back avoidance), or this node
    /// keeps nothing of the ring and reads it from the cloud when needed.
    ///
    /// `refresh` then runs `ring_cycle` once for each ring that is news, on
    /// behalf of all its messages.
    pub fn on_gossip_batch(&self, msgs: &[GossipMsg]) -> Vec<Result<bool>> {
        // The rings that are news, in message order, and each message's
        // slot among them.
        let mut rings: Vec<FdKey> = Vec::new();
        let mut slots: FdMap<usize> = FdMap::default();
        let news: Vec<Option<usize>> = msgs
            .iter()
            .map(|msg| {
                let key = FdKey::of(&msg.account, msg.ns);
                let heard = self.with_record(&key, |record| record.heard());
                heard.is_some_and(|heard| heard < msg.stamp).then(|| {
                    *slots.entry(key.clone()).or_insert_with(|| {
                        rings.push(key);
                        rings.len() - 1
                    })
                })
            })
            .collect();
        let results = self.refresh("GOSSIP-APPLY", &rings);
        news.into_iter()
            .map(|slot| slot.map_or(Ok(false), |i| results[i].clone().map(|()| true)))
            .collect()
    }

    /// Bounded anti-entropy sweep: `refresh` every NameRing this
    /// middleware keeps a record of. Returns how many rings were refreshed.
    ///
    /// This closes the post-fault re-convergence gap: gossip only refreshes
    /// rings whose update notifications *arrived*, so a notification dropped
    /// during a fault window leaves the held copy stale until some later
    /// write happens to touch that ring. A resync revalidates every record
    /// (each refresh bumps its epoch, invalidating dependent path entries),
    /// one whose copy was evicted included: its path entries outlive the
    /// copy. The sweep is bounded by this node's own state and creates
    /// none, and it doubles as the cache refresh after a placement-ring
    /// swap (an `add_node`, `drain_node` or `set_weight`): the re-fetches
    /// run under the new placement.
    pub fn resync(&self) -> Result<usize> {
        let mut rings: Vec<FdKey> = Vec::new();
        for shard in &self.rings {
            rings.extend(shard.lock().records.keys().cloned());
        }
        rings.sort_by(|a, b| (&a.account, a.ns).cmp(&(&b.account, b.ns)));
        let results = self.refresh("RESYNC", &rings);
        results.into_iter().collect::<Result<()>>()?;
        Ok(rings.len())
    }

    /// [`ring_cycle`](Self::ring_cycle) over `rings` as one background
    /// root named `root`, the wrapper gossip and [`resync`](Self::resync)
    /// share. Returns one result per ring.
    fn refresh(&self, root: &'static str, rings: &[FdKey]) -> Vec<Result<()>> {
        if rings.is_empty() {
            return Vec::new();
        }
        let run = |ctx: &mut OpCtx| {
            ctx.span_note("rings", || Note::U64(rings.len() as u64));
            self.ring_cycle(ctx, rings)
        };
        // A refresh runs on its own context, so it self-samples into a
        // root trace named `root`.
        let mut ctx = OpCtx::new(self.store.cost_model());
        let (results, _) = self.root(&mut ctx, Stage::Gossip, root, run, |results| {
            results
                .iter()
                .find_map(|r| r.as_ref().err().map(ToString::to_string))
        });
        self.absorb_background(&ctx);
        results
    }

    /// The one read-modify-write of ring objects, shared by merge cycles,
    /// gossip and resync, on the caller's context: fetch each of `rings`
    /// from the cloud into the NameRing cache, fold every fetched ring into
    /// its descriptor (a ring without one is only re-cached) and bump its
    /// epoch under the record's lock, and where this node knew updates the
    /// global object lacked, write the join back and announce it. Returns one result per ring; a failure fails only its
    /// own ring, and the fold is idempotent on a retry.
    fn ring_cycle(&self, ctx: &mut OpCtx, rings: &[FdKey]) -> Vec<Result<()>> {
        let mut results: Vec<Result<()>> = vec![Ok(()); rings.len()];
        let mut fetched = Vec::new();
        for (i, key) in rings.iter().enumerate() {
            match self.fetch_to_cache(ctx, &H2Keys::new(&key.account), key) {
                Ok(global) => fetched.push((i, global)),
                Err(e) => results[i] = Err(e),
            }
        }
        let mut writebacks: Vec<(usize, Arc<NameRing>)> = Vec::new();
        for (i, (global, stamp)) in fetched {
            let joined = self.with_record(&rings[i], |record| {
                bump(&record.epoch);
                record.fd.as_mut()?.absorb(global, stamp)
            });
            if let Some(joined) = joined.flatten() {
                writebacks.push((i, joined));
            }
        }
        for (i, joined) in writebacks {
            ctx.span_note("write_back", || {
                Note::Str("local updates joined into global")
            });
            let key = &rings[i];
            if let Err(e) = self.write_ring(ctx, &H2Keys::new(&key.account), key.ns, &joined) {
                results[i] = Err(e);
            }
        }
        results
    }
}
