//! The H2Layer: a set of H2Middlewares and the gossip fabric between them.
//!
//! The paper deploys "a number of H2Middlewares … to distribute workloads
//! for load balancing" (§4.1), synchronised by gossip flooding
//! (§3.3.2). The fabric is one inbox per middleware and one flooding rule:
//! every message in a middleware's outbox goes to each of its peers once,
//! and nothing a peer receives is forwarded. A receiver gossips again only
//! from its own outbox, when its join taught the global ring object
//! something new (the write-back of [`H2Middleware::on_gossip_batch`]). On
//! a full mesh every peer hears the origin directly, so a forwarded copy
//! would only repeat a message the peer already has.
//!
//! An inbox is applied as one batch; a message that fails to apply stays
//! queued, with bounded attempts. Two schedulers drive the inboxes:
//!
//! * [`H2Layer::pump`] — deterministic and single-threaded, used by tests,
//!   the figure harness and the benchmark: merge, flood, apply every inbox
//!   in rounds, repeat until nothing moves.
//! * [`H2Layer::run_threaded`] — one thread per middleware, its inbox fed
//!   by a channel; gossip flows concurrently until the handle is dropped.
//!   Used by the concurrency integration tests and the
//!   `gossip_convergence` example.
//!
//! Delivery is at-least-once and unordered on purpose — the NameRing merge
//! is a CRDT join, so duplicates and reordering are harmless, and the tests
//! inject both.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use h2util::metrics::{Counter, MetricsRegistry};
use h2util::{H2Error, NodeId, Result};
use swiftsim::Cluster;

use crate::fs::H2Config;
use crate::middleware::{GossipMsg, H2Middleware, MERGE_FAILURES};

/// Counter bumped when applying an incoming gossip message fails (the
/// message is requeued with bounded attempts, not dropped).
pub const GOSSIP_APPLY_FAILURES: &str = "gossip_apply_failures";

/// How many times a gossip message that fails to apply is re-attempted
/// before it is finally dropped. Transient faults redraw on every attempt,
/// so even sustained high error rates survive this budget; a message that
/// exhausts it was facing a persistent outage, and the next merge on the
/// same ring re-gossips the state anyway.
const MAX_GOSSIP_ATTEMPTS: u32 = 32;

/// Gossip delivery fault injection for the convergence tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct GossipFaults {
    /// Drop every k-th message (0 = drop nothing). Gossip is unreliable in
    /// real systems; convergence must survive because merges re-gossip.
    pub drop_every: usize,
    /// Duplicate every k-th message (0 = duplicate nothing).
    pub duplicate_every: usize,
}

impl GossipFaults {
    /// How many copies of the `seq`-th outbox message (1-based) are
    /// flooded: 0 when it is dropped, 2 when it is duplicated, else 1.
    fn copies(self, seq: usize) -> usize {
        if self.drop_every > 0 && seq.is_multiple_of(self.drop_every) {
            0
        } else if self.duplicate_every > 0 && seq.is_multiple_of(self.duplicate_every) {
            2
        } else {
            1
        }
    }
}

/// The one flooding rule (§3.3.2): `msg`, from the outbox of the middleware
/// at index `origin`, goes once to every other middleware's `peer`.
fn flood<P>(
    peers: impl IntoIterator<Item = P>,
    origin: usize,
    msg: &GossipMsg,
    deliver: impl Fn(P, GossipMsg),
) {
    for (idx, peer) in peers.into_iter().enumerate() {
        if idx != origin {
            deliver(peer, msg.clone());
        }
    }
}

/// One middleware's gossip waiting to be applied, each message with the
/// number of times its application has already failed.
#[derive(Default)]
struct Inbox {
    msgs: Vec<GossipMsg>,
    attempts: Vec<u32>,
}

impl Inbox {
    fn push(&mut self, msg: GossipMsg) {
        self.msgs.push(msg);
        self.attempts.push(0);
    }

    fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Apply the whole inbox to `mw` as one
    /// [`H2Middleware::on_gossip_batch`] call. Every message that fails is
    /// counted in `failures` and stays queued, one attempt older, for the
    /// next apply — a bad message never holds the rest of the batch
    /// hostage. A message that spends [`MAX_GOSSIP_ATTEMPTS`] is dropped
    /// instead, and the first such message's error is returned beside the
    /// number of messages applied.
    fn apply(&mut self, mw: &H2Middleware, failures: &Counter) -> (usize, Option<H2Error>) {
        if self.is_empty() {
            return (0, None);
        }
        let results = mw.on_gossip_batch(&self.msgs);
        let msgs = std::mem::take(&mut self.msgs);
        let attempts = std::mem::take(&mut self.attempts);
        let mut applied = 0usize;
        let mut exhausted = None;
        for ((msg, attempts), res) in msgs.into_iter().zip(attempts).zip(results) {
            match res {
                Ok(_) => applied += 1,
                Err(e) => {
                    failures.incr();
                    if attempts + 1 < MAX_GOSSIP_ATTEMPTS {
                        self.msgs.push(msg);
                        self.attempts.push(attempts + 1);
                    } else {
                        exhausted.get_or_insert(e);
                    }
                }
            }
        }
        (applied, exhausted)
    }
}

/// The middleware layer in front of one object cloud.
pub struct H2Layer {
    middlewares: Vec<Arc<H2Middleware>>,
    cluster: Arc<Cluster>,
    gossip_apply_failures: Arc<Counter>,
}

impl H2Layer {
    /// Build `cfg.middlewares` middlewares (node ids 1..=n) over `cluster`,
    /// all reporting into the shared `metrics` registry and each configured
    /// by `cfg` (see [`H2Middleware::new`]). The one knob that lives in the
    /// store, hedged replica reads, is applied to `cluster` here.
    pub fn new(cluster: Arc<Cluster>, cfg: &H2Config, metrics: Arc<MetricsRegistry>) -> Self {
        assert!(cfg.middlewares >= 1, "need at least one middleware");
        // Pre-register the layer's failure counters so `op=metrics` always
        // lists them, even before the first failure.
        let gossip_apply_failures = metrics.counter(GOSSIP_APPLY_FAILURES);
        metrics.counter(MERGE_FAILURES);
        metrics.counter(h2util::retry::OP_RETRIES);
        metrics.counter(h2util::retry::OP_GAVE_UP);
        metrics.histogram(h2util::retry::RETRY_BACKOFF_MS);
        if cfg.trace_sample > 0.0 {
            // Same idea for the per-stage breakdown histograms: only listed
            // when tracing can actually feed them.
            metrics.histogram(h2util::trace::STAGE_RING_MS);
            metrics.histogram(h2util::trace::STAGE_CONTENT_MS);
            metrics.histogram(h2util::trace::STAGE_QUORUM_MS);
            metrics.histogram(h2util::trace::STAGE_BACKOFF_MS);
        }
        cluster.set_hedged_reads(cfg.hedged_reads);
        let middlewares = (1..=cfg.middlewares as u16)
            .map(|i| H2Middleware::new(NodeId(i), cluster.clone(), cfg, metrics.clone()))
            .collect();
        H2Layer {
            middlewares,
            cluster,
            gossip_apply_failures,
        }
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn middlewares(&self) -> &[Arc<H2Middleware>] {
        &self.middlewares
    }

    pub fn len(&self) -> usize {
        self.middlewares.len()
    }

    pub fn is_empty(&self) -> bool {
        self.middlewares.is_empty()
    }

    /// Middleware by 0-based index.
    pub fn mw(&self, idx: usize) -> &Arc<H2Middleware> {
        &self.middlewares[idx]
    }

    /// Sticky middleware choice for an account (same account always lands
    /// on the same middleware, like a load balancer with session affinity).
    pub fn mw_for_account(&self, account: &str) -> &Arc<H2Middleware> {
        let h = h2util::hash64(account.as_bytes()) as usize;
        &self.middlewares[h % self.middlewares.len()]
    }

    /// Deterministic gossip pump: run background mergers, then flood
    /// outboxes to all peers, repeating until no work remains. Returns the
    /// number of gossip deliveries performed.
    pub fn pump(&self) -> Result<usize> {
        self.pump_with_faults(GossipFaults::default())
    }

    /// [`pump`](Self::pump) with fault injection. Each pass runs every
    /// middleware's merger, floods every outbox through the `faults`
    /// selection, then applies the inboxes in rounds — each inbox as one
    /// batch, its failed messages retried in the next round — until they
    /// are empty. Passes repeat until one merges and floods nothing. A
    /// message that spends its attempt budget fails the pump with its
    /// error.
    pub fn pump_with_faults(&self, faults: GossipFaults) -> Result<usize> {
        let mut inboxes: Vec<Inbox> = self.middlewares.iter().map(|_| Inbox::default()).collect();
        let mut deliveries = 0usize;
        let mut msg_seq = 0usize;
        loop {
            let mut progressed = false;
            for mw in &self.middlewares {
                if mw.step_merges().applied > 0 {
                    progressed = true;
                }
            }
            for (origin, mw) in self.middlewares.iter().enumerate() {
                for msg in mw.take_outbox() {
                    msg_seq += 1;
                    let copies = faults.copies(msg_seq);
                    for _ in 0..copies {
                        flood(&mut inboxes, origin, &msg, Inbox::push);
                    }
                    progressed |= copies > 0;
                }
            }
            while inboxes.iter().any(|inbox| !inbox.is_empty()) {
                for (mw, inbox) in self.middlewares.iter().zip(&mut inboxes) {
                    let (applied, exhausted) = inbox.apply(mw, &self.gossip_apply_failures);
                    deliveries += applied;
                    if let Some(e) = exhausted {
                        return Err(e);
                    }
                }
            }
            if !progressed {
                return Ok(deliveries);
            }
        }
    }

    /// True when no middleware holds unmerged patches or queued gossip.
    pub fn is_quiescent(&self) -> bool {
        self.middlewares
            .iter()
            .all(|mw| mw.pending_descriptors() == 0 && mw.queued_gossip() == 0)
    }

    /// Anti-entropy sweep across the layer: every middleware re-validates
    /// every NameRing it holds state for against the cloud
    /// ([`H2Middleware::resync`]), then a pump floods the re-gossips the
    /// sweep produced. Run this after a fault window (gossip dropped during
    /// it leaves untouched rings stale forever otherwise) or after a
    /// placement-ring swap. Returns the total rings refreshed.
    pub fn resync(&self) -> Result<usize> {
        let mut refreshed = 0usize;
        for mw in &self.middlewares {
            refreshed += mw.resync()?;
        }
        self.pump()?;
        Ok(refreshed)
    }

    // ----- elastic topology -------------------------------------------------

    /// Operator op: add a storage device and rebalance onto it — the
    /// layer-level wrapper over [`Cluster::add_node`] that also drives the
    /// migrator `steps_per_round` partitions at a time (0 = all at once)
    /// and resyncs the middleware caches once movement stops.
    pub fn add_node(&self, zone: u8, weight: f64, steps_per_round: usize) -> Result<u16> {
        let id = self.cluster.add_node(zone, weight)?;
        self.finish_rebalance(steps_per_round)?;
        Ok(id.0)
    }

    /// Operator op: drain a device out of the ring (see
    /// [`Cluster::drain_node`]), migrating its partitions away.
    pub fn drain_node(&self, device: u16, steps_per_round: usize) -> Result<()> {
        self.cluster.drain_node(swiftsim::DeviceId(device))?;
        self.finish_rebalance(steps_per_round)
    }

    /// Operator op: re-weight a device (0 drains it; see
    /// [`Cluster::set_weight`]).
    pub fn set_weight(&self, device: u16, weight: f64, steps_per_round: usize) -> Result<()> {
        self.cluster
            .set_weight(swiftsim::DeviceId(device), weight)?;
        self.finish_rebalance(steps_per_round)
    }

    /// Drive the migrator until it stops making progress, then resync the
    /// middleware caches under the new placement. Blocked partitions (down
    /// devices) stay pending — serving falls back to the old assignment —
    /// and a later call (or [`Cluster::migrate_all`]) finishes the job.
    fn finish_rebalance(&self, steps_per_round: usize) -> Result<()> {
        if steps_per_round == 0 {
            self.cluster.migrate_all();
        } else {
            loop {
                if self.cluster.migrate_step(steps_per_round) == 0 {
                    break;
                }
            }
        }
        self.resync()?;
        Ok(())
    }

    /// Spawn one thread per middleware that continuously merges pending
    /// patches, floods its outbox to its peers' channels and applies its
    /// inbox. Returns a handle; drop it or call [`ThreadedGossip::stop`] to
    /// join the threads.
    pub fn run_threaded(&self) -> ThreadedGossip {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            self.middlewares.iter().map(|_| channel()).unzip();
        let stop = Arc::new(AtomicBool::new(false));
        let handles = self
            .middlewares
            .iter()
            .zip(receivers)
            .enumerate()
            .map(|(idx, (mw, rx))| {
                let mw = mw.clone();
                let senders = senders.clone();
                let failures = self.gossip_apply_failures.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut inbox = Inbox::default();
                    let mut idle_rounds = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        // Merge failures restore the chain internally and
                        // are counted by the middleware; the next round
                        // retries.
                        let mut worked = mw.step_merges().applied > 0;
                        for msg in mw.take_outbox() {
                            flood(&senders, idx, &msg, |peer, msg| {
                                let _ = peer.send(msg);
                            });
                            worked = true;
                        }
                        for msg in rx.try_iter() {
                            inbox.push(msg);
                            worked = true;
                        }
                        // A message that spent its budget is dropped: the
                        // next merge on its ring re-gossips the state.
                        let (applied, _dropped) = inbox.apply(&mw, &failures);
                        worked |= applied > 0;
                        if let Some(&attempt) = inbox.attempts.iter().max() {
                            // Back off before the next application round so
                            // a sustained outage doesn't burn the attempt
                            // budget in microseconds.
                            idle_rounds = 0;
                            let backoff = Duration::from_millis(1)
                                .saturating_mul(1u32 << attempt.min(5))
                                .min(Duration::from_millis(20));
                            h2util::clock::wall_sleep(backoff);
                        } else if !worked {
                            // Adaptive idle: poll tightly right after real
                            // work (more is probably coming) and ramp
                            // towards ~5ms naps on a quiet fabric instead of
                            // burning a core.
                            let nap = Duration::from_micros(200)
                                .saturating_mul(1u32 << idle_rounds.min(5))
                                .min(Duration::from_millis(5));
                            idle_rounds = idle_rounds.saturating_add(1);
                            h2util::clock::wall_sleep(nap);
                        } else {
                            idle_rounds = 0;
                        }
                    }
                })
            })
            .collect();
        ThreadedGossip { stop, handles }
    }
}

/// Handle to the threaded gossip fabric; dropping it stops and joins the
/// threads.
pub struct ThreadedGossip {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadedGossip {
    /// Signal the gossip threads to finish and join them.
    pub fn stop(self) {
        drop(self)
    }
}

impl Drop for ThreadedGossip {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::H2Keys;
    use crate::middleware::MaintenanceMode;
    use crate::namering::{NameRing, Tuple};
    use h2util::{NamespaceId, OpCtx};
    use proptest::prelude::*;
    use swiftsim::ClusterConfig;

    fn layer(n: usize, mode: MaintenanceMode) -> H2Layer {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            replicas: 3,
            part_power: 6,
            cost: Arc::new(h2util::CostModel::zero()),
            faults: None,
        });
        cluster.create_account("alice").unwrap();
        cluster
            .create_container("alice", crate::keys::H2_CONTAINER, false)
            .unwrap();
        let cfg = H2Config {
            middlewares: n,
            mode,
            ..H2Config::default()
        };
        H2Layer::new(cluster, &cfg, Arc::new(MetricsRegistry::new()))
    }

    fn ns(seq: u64) -> NamespaceId {
        NamespaceId::new(seq, NodeId(1), 42)
    }

    #[test]
    fn pump_converges_all_middlewares() {
        let layer = layer(3, MaintenanceMode::Deferred);
        let keys = H2Keys::new("alice");
        let mut ctx = OpCtx::for_test();
        // Each middleware writes a different child into the same ring.
        for (i, mw) in layer.middlewares().iter().enumerate() {
            let mut p = NameRing::new();
            p.apply(&format!("f{i}"), Tuple::file(mw.tick(), i as u64));
            mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        }
        assert!(!layer.is_quiescent());
        layer.pump().unwrap();
        assert!(layer.is_quiescent());
        // Every middleware's view has all three children.
        for mw in layer.middlewares() {
            let r = mw.read_ring(&mut ctx, &keys, ns(1)).unwrap();
            assert_eq!(r.live_len(), 3, "node {} diverged", mw.node());
        }
    }

    #[test]
    fn pump_survives_dropped_and_duplicated_gossip() {
        let layer = layer(4, MaintenanceMode::Deferred);
        let keys = H2Keys::new("alice");
        let mut ctx = OpCtx::for_test();
        for round in 0..3 {
            for (i, mw) in layer.middlewares().iter().enumerate() {
                let mut p = NameRing::new();
                p.apply(&format!("r{round}-f{i}"), Tuple::file(mw.tick(), i as u64));
                mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
            }
            layer
                .pump_with_faults(GossipFaults {
                    drop_every: 3,
                    duplicate_every: 4,
                })
                .unwrap();
        }
        // Gossip losses may leave some nodes behind, but the global object
        // must contain everything (merges write through) …
        let g = layer
            .mw(0)
            .fetch_global_ring(&mut ctx, &keys, ns(1))
            .unwrap();
        assert_eq!(g.live_len(), 12);
        // … and a clean pump round brings every local view up to date.
        layer.pump().unwrap();
        for mw in layer.middlewares() {
            let local_plus_global = mw.read_ring(&mut ctx, &keys, ns(1)).unwrap();
            assert_eq!(local_plus_global.live_len(), 12);
        }
    }

    #[test]
    fn queued_gossip_keeps_the_layer_busy() {
        let layer = layer(2, MaintenanceMode::Deferred);
        let keys = H2Keys::new("alice");
        let mut ctx = OpCtx::for_test();
        let mw = layer.mw(0);
        let mut p = NameRing::new();
        p.apply("f", Tuple::file(mw.tick(), 1));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        assert_eq!(mw.step_merges().applied, 1);
        // The chain is merged, but its gossip still sits in the outbox.
        assert_eq!(mw.pending_descriptors(), 0);
        assert_eq!(mw.queued_gossip(), 1);
        assert!(!layer.is_quiescent());
        layer.pump().unwrap();
        assert!(layer.is_quiescent());
    }

    /// One scripted write `(mw, ring, name, size, merge)`: middleware `mw`
    /// puts file `f{name}` of `size` bytes into ring `ns(ring)`, then runs
    /// its merger when `merge` is set.
    type Write = (usize, u64, usize, u64, bool);

    fn arb_write() -> impl Strategy<Value = Write> {
        (0usize..4, 1u64..4, 0usize..6, 0u64..1000, any::<bool>())
    }

    /// Play `script` on `layer`, then give the receiver (middleware 0) an
    /// unmerged patch on every ring. Returns, in order, every gossip message
    /// the other middlewares sent.
    fn play(layer: &H2Layer, script: &[Write]) -> Vec<GossipMsg> {
        let keys = H2Keys::new("alice");
        let mut ctx = OpCtx::for_test();
        let mut sent = Vec::new();
        for &(idx, ring, name, size, merge) in script {
            let mw = layer.mw(idx);
            let mut p = NameRing::new();
            p.apply(&format!("f{name}"), Tuple::file(mw.tick(), size));
            mw.submit_patch(&mut ctx, &keys, ns(ring), p).unwrap();
            if merge {
                mw.step_merges();
            }
            let out = mw.take_outbox();
            if idx != 0 {
                sent.extend(out);
            }
        }
        let receiver = layer.mw(0);
        for ring in 1..4 {
            let mut p = NameRing::new();
            p.apply("local", Tuple::file(receiver.tick(), ring));
            receiver.submit_patch(&mut ctx, &keys, ns(ring), p).unwrap();
        }
        sent
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The per-message reference for `on_gossip_batch`: one batch leaves
        // the receiver's local rings and the global ring objects exactly as
        // applying the same messages one at a time does — across several
        // rings and origins, duplicates, stale replays (picks of an older
        // message after a newer one) and unmerged local state.
        #[test]
        fn batch_apply_equals_one_message_at_a_time(
            script in prop::collection::vec(arb_write(), 1..24),
            picks in prop::collection::vec(0usize..64, 1..32),
        ) {
            let batched = layer(4, MaintenanceMode::Deferred);
            let single = layer(4, MaintenanceMode::Deferred);
            let sent = play(&batched, &script);
            prop_assert_eq!(play(&single, &script), sent.clone());
            prop_assume!(!sent.is_empty());
            let msgs: Vec<GossipMsg> =
                picks.iter().map(|&i| sent[i % sent.len()].clone()).collect();
            for res in batched.mw(0).on_gossip_batch(&msgs) {
                prop_assert!(res.is_ok());
            }
            for msg in &msgs {
                for res in single.mw(0).on_gossip_batch(std::slice::from_ref(msg)) {
                    prop_assert!(res.is_ok());
                }
            }
            let keys = H2Keys::new("alice");
            let mut ctx = OpCtx::for_test();
            for ring in 1..4 {
                prop_assert_eq!(
                    batched.mw(0).local_ring(&keys, ns(ring)),
                    single.mw(0).local_ring(&keys, ns(ring)),
                    "local ring {} differs", ring
                );
                let global = |layer: &H2Layer, ctx: &mut OpCtx| {
                    layer.mw(0).fetch_global_ring(ctx, &keys, ns(ring)).unwrap()
                };
                prop_assert_eq!(
                    global(&batched, &mut ctx),
                    global(&single, &mut ctx),
                    "global ring {} differs", ring
                );
            }
        }
    }

    #[test]
    fn threaded_gossip_converges() {
        let layer = layer(3, MaintenanceMode::Deferred);
        let keys = H2Keys::new("alice");
        let handle = layer.run_threaded();
        let mut ctx = OpCtx::for_test();
        for (i, mw) in layer.middlewares().iter().enumerate() {
            let mut p = NameRing::new();
            p.apply(&format!("t{i}"), Tuple::file(mw.tick(), i as u64));
            mw.submit_patch(&mut ctx, &keys, ns(2), p).unwrap();
        }
        // Wait (bounded) for the threads to merge and gossip everything.
        let deadline = h2util::clock::wall_now() + std::time::Duration::from_secs(10);
        loop {
            let done = layer.middlewares().iter().all(|mw| {
                let mut c = OpCtx::for_test();
                mw.read_ring(&mut c, &keys, ns(2))
                    .map(|r| r.live_len() == 3)
                    .unwrap_or(false)
            });
            if done {
                break;
            }
            assert!(
                h2util::clock::wall_now() < deadline,
                "threaded gossip failed to converge within 10s"
            );
            h2util::clock::wall_sleep(std::time::Duration::from_millis(5));
        }
        handle.stop();
    }

    #[test]
    fn threaded_gossip_survives_transient_apply_failures() {
        use h2util::faults::{FaultPlan, FaultSpec, OpClass};
        let layer = layer(3, MaintenanceMode::Deferred);
        let keys = H2Keys::new("alice");
        let mut ctx = OpCtx::for_test();
        // Heavy transient GET faults: merge cycles and gossip applications
        // fail often — even through the middleware's retry budget — until
        // the plan is cleared. Patch PUTs stay clean so submission works.
        let plan = FaultPlan::new(21).set(OpClass::Get, FaultSpec::errors(0.9));
        layer.cluster().set_fault_plan(Some(plan));
        for (i, mw) in layer.middlewares().iter().enumerate() {
            let mut p = NameRing::new();
            p.apply(&format!("g{i}"), Tuple::file(mw.tick(), i as u64));
            mw.submit_patch(&mut ctx, &keys, ns(3), p).unwrap();
        }
        let handle = layer.run_threaded();
        // Let the workers run into the fault wall, then clear it.
        h2util::clock::wall_sleep(std::time::Duration::from_millis(100));
        layer.cluster().set_fault_plan(None);
        let deadline = h2util::clock::wall_now() + std::time::Duration::from_secs(20);
        loop {
            let done = layer.middlewares().iter().all(|mw| {
                let mut c = OpCtx::for_test();
                mw.read_ring(&mut c, &keys, ns(3))
                    .map(|r| r.live_len() == 3)
                    .unwrap_or(false)
            });
            if done {
                break;
            }
            assert!(
                h2util::clock::wall_now() < deadline,
                "gossip did not recover from transient apply failures"
            );
            h2util::clock::wall_sleep(std::time::Duration::from_millis(5));
        }
        handle.stop();
        // The failures were observed, counted, and survived.
        let m = layer.mw(0).metrics();
        assert!(
            m.counter_value(GOSSIP_APPLY_FAILURES) + m.counter_value(MERGE_FAILURES) > 0,
            "expected at least one counted transient failure"
        );
    }

    #[test]
    fn sticky_account_routing_is_stable() {
        let layer = layer(3, MaintenanceMode::Eager);
        let a = layer.mw_for_account("alice").node();
        for _ in 0..10 {
            assert_eq!(layer.mw_for_account("alice").node(), a);
        }
    }
}
