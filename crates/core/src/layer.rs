//! The H2Layer: a set of H2Middlewares and the gossip fabric between them.
//!
//! The paper deploys "a number of H2Middlewares … to distribute workloads
//! for load balancing" (§4.1), synchronised by gossip flooding (§3.3.2).
//! The layer owns the middlewares and moves gossip between them in one of
//! two ways:
//!
//! * [`H2Layer::pump`] — deterministic, single-threaded delivery loop used
//!   by tests and the figure harness: drain every outbox, deliver to every
//!   peer, repeat until quiescent.
//! * [`H2Layer::run_threaded`] — each middleware gets a real thread with a
//!   channel inbox; gossip flows concurrently until the layer is told to
//!   stop. Used by the concurrency integration tests and the
//!   `gossip_convergence` example.
//!
//! Delivery is at-least-once and unordered on purpose — the NameRing merge
//! is a CRDT join, so duplicates and reordering are harmless, and the tests
//! inject both.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use h2util::metrics::MetricsRegistry;
use h2util::{NodeId, Result};
use swiftsim::Cluster;

use crate::middleware::{GossipMsg, H2Middleware, MaintenanceMode};
// Historically defined here; the middleware now owns the counter (it bumps
// it inside `step_merges`), so the layer re-exports the name.
pub use crate::middleware::MERGE_FAILURES;

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

/// The middleware layer in front of one object cloud.
pub struct H2Layer {
    middlewares: Vec<Arc<H2Middleware>>,
    cluster: Arc<Cluster>,
}

impl H2Layer {
    /// Build `n` middlewares (node ids 1..=n) over `cluster`, NameRing
    /// cache disabled, each middleware with a private metrics registry.
    pub fn new(cluster: Arc<Cluster>, n: usize, mode: MaintenanceMode) -> Self {
        Self::with_cache(cluster, n, mode, Arc::new(MetricsRegistry::new()), 0)
    }

    /// Build `n` middlewares (node ids 1..=n) over `cluster`, all reporting
    /// into the shared `metrics` registry, each with a NameRing cache of
    /// `cache_capacity` rings (0 disables the cache).
    pub fn with_cache(
        cluster: Arc<Cluster>,
        n: usize,
        mode: MaintenanceMode,
        metrics: Arc<MetricsRegistry>,
        cache_capacity: usize,
    ) -> Self {
        Self::with_observability(
            cluster,
            n,
            mode,
            metrics,
            cache_capacity,
            0.0,
            false,
            false,
            false,
            false,
        )
    }

    /// Like [`with_cache`](Self::with_cache), plus span tracing: each
    /// middleware gets a bounded [`h2util::trace::TraceCollector`] sampling
    /// `trace_sample` of its operations (0 disables tracing entirely), the
    /// group-commit switch (see
    /// [`H2Middleware::submit_patch`](crate::middleware::H2Middleware)),
    /// the read-path cache switches (`path_cache` / `neg_cache`, see
    /// [`H2Middleware::path_cache_lookup`]), and the content-addressed
    /// content plane switch (`cas`, see DESIGN.md).
    #[allow(clippy::too_many_arguments)]
    pub fn with_observability(
        cluster: Arc<Cluster>,
        n: usize,
        mode: MaintenanceMode,
        metrics: Arc<MetricsRegistry>,
        cache_capacity: usize,
        trace_sample: f64,
        group_commit: bool,
        path_cache: bool,
        neg_cache: bool,
        cas: bool,
    ) -> Self {
        assert!(n >= 1, "need at least one middleware");
        // Pre-register the layer's failure counters so `op=metrics` always
        // lists them, even before the first failure.
        metrics.counter(GOSSIP_APPLY_FAILURES);
        metrics.counter(MERGE_FAILURES);
        metrics.counter(h2util::retry::OP_RETRIES);
        metrics.counter(h2util::retry::OP_GAVE_UP);
        metrics.histogram(h2util::retry::RETRY_BACKOFF_MS);
        if trace_sample > 0.0 {
            // Same idea for the per-stage breakdown histograms: only listed
            // when tracing can actually feed them.
            metrics.histogram(h2util::trace::STAGE_RING_MS);
            metrics.histogram(h2util::trace::STAGE_CONTENT_MS);
            metrics.histogram(h2util::trace::STAGE_QUORUM_MS);
            metrics.histogram(h2util::trace::STAGE_BACKOFF_MS);
        }
        let middlewares = (1..=n as u16)
            .map(|i| {
                H2Middleware::with_observability(
                    NodeId(i),
                    cluster.clone(),
                    mode,
                    metrics.clone(),
                    cache_capacity,
                    Arc::new(h2util::trace::TraceCollector::new(
                        trace_sample,
                        h2util::trace::DEFAULT_TRACE_CAP,
                        i,
                    )),
                    group_commit,
                    path_cache,
                    neg_cache,
                    cas,
                )
            })
            .collect();
        H2Layer {
            middlewares,
            cluster,
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

    /// [`pump`](Self::pump) but delivering each round's messages to a
    /// target middleware as one [`H2Middleware::on_gossip_batch`] call
    /// (single lock acquisition per target), the way the threaded fabric
    /// applies its inbox. Observationally equivalent to per-message
    /// delivery; the equivalence suite proves it.
    pub fn pump_batched(&self) -> Result<usize> {
        self.pump_batched_with_faults(GossipFaults::default())
    }

    /// [`pump_batched`](Self::pump_batched) with fault injection.
    pub fn pump_batched_with_faults(&self, faults: GossipFaults) -> Result<usize> {
        self.pump_impl(faults, true)
    }

    /// [`pump`](Self::pump) with fault injection.
    pub fn pump_with_faults(&self, faults: GossipFaults) -> Result<usize> {
        self.pump_impl(faults, false)
    }

    fn pump_impl(&self, faults: GossipFaults, batched: bool) -> Result<usize> {
        let mut deliveries = 0usize;
        let mut msg_seq = 0usize;
        loop {
            let mut progressed = false;
            for mw in &self.middlewares {
                if mw.step_merges().applied > 0 {
                    progressed = true;
                }
            }
            let mut batch: Vec<(NodeId, GossipMsg)> = Vec::new();
            for mw in &self.middlewares {
                for msg in mw.take_outbox() {
                    batch.push((mw.node(), msg));
                }
            }
            // Expand the batch into per-target deliveries so one failing
            // target can be retried without re-applying to the others.
            let mut queue: VecDeque<(usize, GossipMsg, u32)> = VecDeque::new();
            for (origin, msg) in batch {
                msg_seq += 1;
                if faults.drop_every > 0 && msg_seq.is_multiple_of(faults.drop_every) {
                    continue;
                }
                let copies = if faults.duplicate_every > 0
                    && msg_seq.is_multiple_of(faults.duplicate_every)
                {
                    2
                } else {
                    1
                };
                for _ in 0..copies {
                    for (idx, mw) in self.middlewares.iter().enumerate() {
                        if mw.node() != origin {
                            queue.push_back((idx, msg.clone(), 0));
                        }
                    }
                }
                progressed = true;
            }
            if batched {
                // Drain the queue in rounds: all messages bound for one
                // target this round go down in a single batch application.
                // Failures requeue individually for the next round.
                while !queue.is_empty() {
                    let mut per_target: Vec<Vec<(GossipMsg, u32)>> =
                        vec![Vec::new(); self.middlewares.len()];
                    for (idx, msg, attempts) in queue.drain(..) {
                        per_target[idx].push((msg, attempts));
                    }
                    for (idx, entries) in per_target.into_iter().enumerate() {
                        if entries.is_empty() {
                            continue;
                        }
                        let mw = &self.middlewares[idx];
                        let msgs: Vec<GossipMsg> = entries.iter().map(|(m, _)| m.clone()).collect();
                        for ((msg, attempts), res) in
                            entries.into_iter().zip(mw.on_gossip_batch(&msgs))
                        {
                            match res {
                                Ok(_) => deliveries += 1,
                                Err(e) => {
                                    mw.metrics().counter(GOSSIP_APPLY_FAILURES).incr();
                                    if attempts + 1 >= MAX_GOSSIP_ATTEMPTS {
                                        return Err(e);
                                    }
                                    queue.push_back((idx, msg, attempts + 1));
                                }
                            }
                        }
                    }
                }
            } else {
                while let Some((idx, msg, attempts)) = queue.pop_front() {
                    let mw = &self.middlewares[idx];
                    match mw.on_gossip(&msg) {
                        Ok(_) => deliveries += 1,
                        Err(e) => {
                            // An earlier revision `?`-propagated here,
                            // silently losing the message (it was already
                            // drained from the outbox). Requeue with bounded
                            // attempts — transient faults redraw on retry —
                            // and only propagate once the budget is spent.
                            mw.metrics().counter(GOSSIP_APPLY_FAILURES).incr();
                            if attempts + 1 >= MAX_GOSSIP_ATTEMPTS {
                                return Err(e);
                            }
                            queue.push_back((idx, msg, attempts + 1));
                        }
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
            .all(|mw| mw.pending_descriptors() == 0)
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
    /// patches and exchanges gossip over channels. Returns a handle; drop
    /// or call [`ThreadedGossip::stop`] to join the threads.
    pub fn run_threaded(&self) -> ThreadedGossip {
        let n = self.middlewares.len();
        let (senders, receivers): (Vec<Sender<GossipMsg>>, Vec<Receiver<GossipMsg>>) =
            (0..n).map(|_| channel()).unzip();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::with_capacity(n);
        for (i, (mw, rx)) in self.middlewares.iter().zip(receivers).enumerate() {
            let mw = mw.clone();
            let peers: Vec<Sender<GossipMsg>> = senders
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, s)| s.clone())
                .collect();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                // Messages whose application failed, waiting for another
                // attempt. An earlier revision `unwrap_or`-swallowed the
                // error and dropped the message permanently — a peer that
                // hit a transient fault stayed stale until some unrelated
                // merge happened to re-gossip the same ring.
                let mut backlog: VecDeque<(GossipMsg, u32)> = VecDeque::new();
                let mut idle_rounds = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let mut worked = false;
                    // Merge failures restore the chain internally and are
                    // counted by the middleware; the next round retries.
                    if mw.step_merges().applied > 0 {
                        worked = true;
                    }
                    for msg in mw.take_outbox() {
                        for p in &peers {
                            let _ = p.send(msg.clone());
                        }
                        worked = true;
                    }
                    while let Ok(msg) = rx.try_recv() {
                        backlog.push_back((msg, 0));
                        worked = true;
                    }
                    // One application attempt per backlog entry per round,
                    // the whole backlog applied as a single batch (one lock
                    // acquisition, one ring fetch per distinct ring).
                    // Failing messages requeue individually — a bad message
                    // never holds the rest of the batch hostage.
                    let mut max_requeued_attempt: Option<u32> = None;
                    if !backlog.is_empty() {
                        let entries: Vec<(GossipMsg, u32)> = backlog.drain(..).collect();
                        let msgs: Vec<GossipMsg> = entries.iter().map(|(m, _)| m.clone()).collect();
                        for ((msg, attempts), res) in
                            entries.into_iter().zip(mw.on_gossip_batch(&msgs))
                        {
                            match res {
                                Ok(forward) => {
                                    if forward {
                                        for p in &peers {
                                            let _ = p.send(msg.clone());
                                        }
                                    }
                                    worked = true;
                                }
                                Err(_) => {
                                    mw.metrics().counter(GOSSIP_APPLY_FAILURES).incr();
                                    if attempts + 1 < MAX_GOSSIP_ATTEMPTS {
                                        max_requeued_attempt = Some(
                                            max_requeued_attempt.unwrap_or(0).max(attempts + 1),
                                        );
                                        backlog.push_back((msg, attempts + 1));
                                    }
                                }
                            }
                        }
                    }
                    if let Some(attempt) = max_requeued_attempt {
                        // Back off before the next application round so a
                        // sustained outage doesn't burn the attempt budget
                        // in microseconds.
                        idle_rounds = 0;
                        let backoff = std::time::Duration::from_millis(1)
                            .saturating_mul(1u32 << attempt.min(5))
                            .min(std::time::Duration::from_millis(20));
                        h2util::clock::wall_sleep(backoff);
                    } else if !worked {
                        // Adaptive idle: poll tightly right after real work
                        // (more is probably coming) and ramp towards ~5ms
                        // naps on a quiet fabric instead of burning a core.
                        let nap = std::time::Duration::from_micros(200)
                            .saturating_mul(1u32 << idle_rounds.min(5))
                            .min(std::time::Duration::from_millis(5));
                        idle_rounds = idle_rounds.saturating_add(1);
                        h2util::clock::wall_sleep(nap);
                    } else {
                        idle_rounds = 0;
                    }
                }
            }));
        }
        ThreadedGossip { stop, handles }
    }
}

/// Handle to the threaded gossip fabric.
pub struct ThreadedGossip {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadedGossip {
    /// Signal the gossip threads to finish and join them.
    pub fn stop(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedGossip {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::H2Keys;
    use crate::namering::{NameRing, Tuple};
    use h2util::{NamespaceId, OpCtx};
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
        H2Layer::new(cluster, n, mode)
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
    fn batched_pump_survives_dropped_and_duplicated_gossip() {
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
                .pump_batched_with_faults(GossipFaults {
                    drop_every: 3,
                    duplicate_every: 4,
                })
                .unwrap();
        }
        let g = layer
            .mw(0)
            .fetch_global_ring(&mut ctx, &keys, ns(1))
            .unwrap();
        assert_eq!(g.live_len(), 12);
        layer.pump_batched().unwrap();
        for mw in layer.middlewares() {
            let local_plus_global = mw.read_ring(&mut ctx, &keys, ns(1)).unwrap();
            assert_eq!(local_plus_global.live_len(), 12);
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
