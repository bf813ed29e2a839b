use super::*;
use crate::namering::Tuple;
use swiftsim::ClusterConfig;

/// Middleware `node` over `cluster`: the paper profile in `mode`.
fn paper_mw(node: u16, cluster: Arc<Cluster>, mode: MaintenanceMode) -> Arc<H2Middleware> {
    let cfg = H2Config {
        mode,
        ..H2Config::default()
    };
    H2Middleware::new(NodeId(node), cluster, &cfg)
}

fn setup_with(cfg: &H2Config) -> (Arc<Cluster>, Arc<H2Middleware>, H2Keys) {
    let cluster = Cluster::new(ClusterConfig {
        replicas: 3,
        ..ClusterConfig::tiny()
    });
    cluster.create_account("alice").unwrap();
    cluster
        .create_container("alice", crate::keys::H2_CONTAINER, false)
        .unwrap();
    let mw = H2Middleware::new(NodeId(1), cluster.clone(), cfg);
    (cluster, mw, H2Keys::new("alice"))
}

fn setup(mode: MaintenanceMode) -> (Arc<Cluster>, Arc<H2Middleware>, H2Keys) {
    setup_with(&H2Config {
        mode,
        ..H2Config::default()
    })
}

fn ns(seq: u64) -> NamespaceId {
    NamespaceId::new(seq, NodeId(1), 42)
}

#[test]
fn missing_ring_reads_as_empty() {
    let (_c, mw, keys) = setup(MaintenanceMode::Eager);
    let mut ctx = OpCtx::for_test();
    let ring = mw.read_ring(&mut ctx, &keys, ns(9)).unwrap();
    assert!(ring.is_empty());
}

#[test]
fn eager_patch_is_immediately_global() {
    let (_c, mw, keys) = setup(MaintenanceMode::Eager);
    let mut ctx = OpCtx::for_test();
    let mut patch = NameRing::new();
    patch.apply("file1", Tuple::file(mw.tick(), 10));
    mw.submit_patch(&mut ctx, &keys, ns(1), patch).unwrap();
    // Globally visible (no local overlay needed).
    let global = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert!(global.get("file1").is_some());
    assert_eq!(mw.pending_descriptors(), 0);
    // Patch object was deleted after the merge.
    let patch_key = keys.patch(ns(1), NodeId(1), 0);
    assert!(mw.store().get(&mut ctx, &patch_key).is_err());
    // A gossip message was queued.
    assert_eq!(mw.take_outbox().len(), 1);
}

#[test]
fn deferred_patch_visible_locally_only_until_merge() {
    let (_c, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let mut patch = NameRing::new();
    patch.apply("f", Tuple::file(mw.tick(), 1));
    mw.submit_patch(&mut ctx, &keys, ns(1), patch).unwrap();
    // Local overlay sees it; global object does not.
    assert!(mw
        .read_ring(&mut ctx, &keys, ns(1))
        .unwrap()
        .get("f")
        .is_some());
    assert!(mw
        .fetch_global_ring(&mut ctx, &keys, ns(1))
        .unwrap()
        .get("f")
        .is_none());
    assert_eq!(mw.pending_descriptors(), 1);
    // Patch object exists in the cloud under the paper's key scheme.
    assert!(mw
        .store()
        .get(&mut ctx, &keys.patch(ns(1), NodeId(1), 0))
        .is_ok());
    // Background merger folds it in.
    assert_eq!(
        mw.step_merges(),
        MergeOutcome {
            applied: 1,
            failed: 0
        }
    );
    assert!(mw
        .fetch_global_ring(&mut ctx, &keys, ns(1))
        .unwrap()
        .get("f")
        .is_some());
    let (bg_time, bg_counts) = mw.background_spend();
    assert_eq!(bg_time, std::time::Duration::ZERO); // zero cost model
    assert!(bg_counts.total() > 0);
}

#[test]
fn chain_of_patches_merges_in_order() {
    let (_c, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    for i in 0..5u64 {
        let mut p = NameRing::new();
        p.apply(&format!("f{i}"), Tuple::file(mw.tick(), i));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    }
    // One descriptor, five chained patches.
    assert_eq!(mw.pending_descriptors(), 1);
    assert_eq!(mw.step_merges().applied, 1);
    let g = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert_eq!(g.live_len(), 5);
}

#[test]
fn delete_then_recreate_through_patches() {
    let (_c, mw, keys) = setup(MaintenanceMode::Eager);
    let mut ctx = OpCtx::for_test();
    let t1 = mw.tick();
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(t1, 1));
    mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(t1, 1).tombstone(mw.tick()));
    mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    assert!(mw
        .read_ring(&mut ctx, &keys, ns(1))
        .unwrap()
        .get("f")
        .is_none());
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(mw.tick(), 2));
    mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    let ring = mw.read_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert_eq!(
        ring.get("f").unwrap().child,
        crate::namering::ChildRef::File { size: 2 }
    );
}

#[test]
fn gossip_round_trip_between_two_middlewares() {
    let (cluster, mw1, keys) = setup(MaintenanceMode::Eager);
    let mw2 = paper_mw(2, cluster, MaintenanceMode::Eager);
    let mut ctx = OpCtx::for_test();
    let mut p = NameRing::new();
    p.apply("shared", Tuple::file(mw1.tick(), 7));
    mw1.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    let msgs = mw1.take_outbox();
    assert_eq!(msgs.len(), 1);
    // mw2 learns of the update and fetches it.
    assert!(matches!(mw2.on_gossip_batch(&msgs)[..], [Ok(true)]));
    let ring = mw2.read_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert!(ring.get("shared").is_some());
    // Replayed gossip is aborted (loop-back avoidance).
    assert!(matches!(mw2.on_gossip_batch(&msgs)[..], [Ok(false)]));
}

#[test]
fn gossip_merges_divergent_views_both_ways() {
    let (cluster, mw1, keys) = setup(MaintenanceMode::Deferred);
    let mw2 = paper_mw(2, cluster, MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    // Both nodes patch the same ring, unaware of each other.
    let mut p1 = NameRing::new();
    p1.apply("from-1", Tuple::file(mw1.tick(), 1));
    mw1.submit_patch(&mut ctx, &keys, ns(1), p1).unwrap();
    let mut p2 = NameRing::new();
    p2.apply("from-2", Tuple::file(mw2.tick(), 2));
    mw2.submit_patch(&mut ctx, &keys, ns(1), p2).unwrap();
    // Node 1 merges first; node 2 merges after — the global object now
    // has both (step_merges folds local knowledge in).
    assert_eq!(mw1.step_merges().applied, 1);
    assert_eq!(mw2.step_merges().applied, 1);
    let g = mw1.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert_eq!(g.live_len(), 2, "second merge lost first node's update");
    // Gossip completes the exchange: node 1 hears node 2's update.
    for res in mw1.on_gossip_batch(&mw2.take_outbox()) {
        res.unwrap();
    }
    let r1 = mw1.read_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert_eq!(r1.live_len(), 2);
}

#[test]
fn descriptor_roundtrip_through_cloud() {
    let (_c, mw, keys) = setup(MaintenanceMode::Eager);
    let mut ctx = OpCtx::for_test();
    let desc = DirDescriptor {
        ns: ns(5),
        name: "docs".into(),
        created: mw.tick(),
    };
    mw.put_descriptor(&mut ctx, &keys, NamespaceId::ROOT, "docs", &desc)
        .unwrap();
    let got = mw
        .get_descriptor(&mut ctx, &keys, NamespaceId::ROOT, "docs")
        .unwrap();
    assert_eq!(got, desc);
}

#[test]
fn merge_failure_restores_the_patch_chain_for_retry() {
    // Submit patches in Deferred mode, kill the whole cluster, watch
    // the merge fail — then recover and verify nothing was lost.
    let (cluster, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    for i in 0..3u64 {
        let mut p = NameRing::new();
        p.apply(&format!("f{i}"), Tuple::file(mw.tick(), i));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    }
    for i in 0..4 {
        cluster.set_node_down(h2ring::DeviceId(i), true);
    }
    let out = mw.step_merges();
    assert_eq!(
        out,
        MergeOutcome {
            applied: 0,
            failed: 1
        },
        "merge should fail with cluster down"
    );
    assert!(out.attempted() == 1);
    assert!(mw.metrics().counter_value(MERGE_FAILURES) >= 1);
    // The chain survived the failure.
    assert_eq!(mw.pending_descriptors(), 1);
    for i in 0..4 {
        cluster.set_node_down(h2ring::DeviceId(i), false);
    }
    assert_eq!(mw.step_merges().applied, 1);
    let g = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert_eq!(g.live_len(), 3, "updates lost across merge crash/retry");
    // Patch objects were cleaned up after the successful merge.
    for no in 0..3 {
        assert!(mw
            .store()
            .get(&mut ctx, &keys.patch(ns(1), NodeId(1), no))
            .is_err());
    }
}

#[test]
fn merge_drains_a_gapped_chain_in_order_and_restores_it() {
    // Three submissions, the middle one's PUT failing: the chain loses
    // its middle number, survives a failed merge whole, and a good
    // merge then walks what is left in submission order.
    let (cluster, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let set_down = |down: bool| {
        for i in 0..4 {
            cluster.set_node_down(h2ring::DeviceId(i), down);
        }
    };
    let mut submit = |name: &str| {
        let mut p = NameRing::new();
        p.apply(name, Tuple::file(mw.tick(), 1));
        mw.submit_patch(&mut ctx, &keys, ns(1), p)
    };
    submit("first").unwrap();
    set_down(true);
    assert!(submit("middle").is_err());
    set_down(false);
    submit("last").unwrap();
    let mut ctx = OpCtx::for_test();
    let patch_exists = |ctx: &mut OpCtx, no: u32| {
        mw.store()
            .get(ctx, &keys.patch(ns(1), NodeId(1), no))
            .is_ok()
    };
    let patches = |ctx: &mut OpCtx| (0..3).map(|no| patch_exists(ctx, no)).collect::<Vec<_>>();
    // Patch 1 never reached the cloud and left the chain.
    assert_eq!(patches(&mut ctx), [true, false, true]);
    assert_eq!(mw.pending_descriptors(), 1);
    // A failed merge restores the chain.
    set_down(true);
    assert_eq!(mw.step_merges().failed, 1);
    set_down(false);
    assert_eq!(mw.pending_descriptors(), 1);
    assert_eq!(patches(&mut ctx), [true, false, true]);
    // The retry fetches patches 0 and 2, in that order.
    ctx.begin_trace(Stage::Merge, "MERGE");
    assert!(mw.merge_ns(&mut ctx, &keys, ns(1)).unwrap());
    let spans = ctx.end_trace(None).unwrap();
    let fetched: Vec<String> = spans
        .iter()
        .filter(|s| s.name == "GET")
        .flat_map(|s| &s.notes)
        .filter(|(k, _)| *k == "key")
        .map(|(_, v)| v.to_string())
        .filter(|k| k.contains(".Patch"))
        .collect();
    let key_of = |no| {
        keys.patch(ns(1), NodeId(1), no)
            .ring_key()
            .as_str()
            .to_string()
    };
    assert_eq!(fetched, [key_of(0), key_of(2)]);
    // Drained: the global ring holds the first and last names, and no
    // patch object is left.
    assert_eq!(mw.pending_descriptors(), 0);
    let g = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    let names: Vec<&str> = g.iter().map(|(name, _)| name).collect();
    assert_eq!(names, ["first", "last"]);
    assert_eq!(patches(&mut ctx), [false, false, false]);
}

#[test]
fn namespaces_allocated_are_unique_per_middleware() {
    let (_c, mw, _keys) = setup(MaintenanceMode::Eager);
    let a = mw.allocate_namespace();
    let b = mw.allocate_namespace();
    assert_ne!(a, b);
    assert_eq!(a.node, NodeId(1));
}

fn setup_grouped(mode: MaintenanceMode) -> (Arc<Cluster>, Arc<H2Middleware>, H2Keys) {
    setup_with(&H2Config {
        mode,
        group_commit: true,
        ..H2Config::default()
    })
}

#[test]
fn group_commit_single_submitter_behaves_like_direct_path() {
    let (_c, mw, keys) = setup_grouped(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(mw.tick(), 1));
    mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    assert!(mw
        .read_ring(&mut ctx, &keys, ns(1))
        .unwrap()
        .get("f")
        .is_some());
    assert_eq!(mw.pending_descriptors(), 1);
    assert_eq!(mw.step_merges().applied, 1);
    assert!(mw
        .fetch_global_ring(&mut ctx, &keys, ns(1))
        .unwrap()
        .get("f")
        .is_some());
}

#[test]
fn group_commit_coalesces_concurrent_submissions() {
    // N threads submit against the same ring; every update must land,
    // and the combined patch objects must number strictly fewer than
    // the submissions whenever any batch formed (the contiguous-range
    // allocation leaves gaps where coalesced patches would have been).
    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;
    let (_c, mw, keys) = setup_grouped(MaintenanceMode::Deferred);
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let mw = Arc::clone(&mw);
        let keys = H2Keys::new("alice");
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..PER_THREAD {
                let mut ctx = OpCtx::for_test();
                let mut p = NameRing::new();
                p.apply(&format!("t{t}-f{i}"), Tuple::file(mw.tick(), 1));
                mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut ctx = OpCtx::for_test();
    // Read-your-writes on this middleware: every name is visible.
    let local = mw.read_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert_eq!(local.live_len(), THREADS * PER_THREAD);
    // Merge drains the chain and the global object has everything.
    while mw.step_merges().applied > 0 {}
    assert_eq!(mw.pending_descriptors(), 0);
    let global = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    assert_eq!(global.live_len(), THREADS * PER_THREAD);
}

#[test]
fn group_commit_failed_batch_leaves_no_trace() {
    let (cluster, mw, keys) = setup_grouped(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    for i in 0..4 {
        cluster.set_node_down(h2ring::DeviceId(i), true);
    }
    let mut p = NameRing::new();
    p.apply("ghost", Tuple::file(mw.tick(), 1));
    assert!(mw.submit_patch(&mut ctx, &keys, ns(1), p).is_err());
    // The failed batch unchained itself and skipped the local fold.
    assert_eq!(mw.pending_descriptors(), 0);
    for i in 0..4 {
        cluster.set_node_down(h2ring::DeviceId(i), false);
    }
    assert!(mw
        .read_ring(&mut ctx, &keys, ns(1))
        .unwrap()
        .get("ghost")
        .is_none());
}

#[test]
fn merge_pump_loop_terminates_while_merges_keep_failing() {
    // Regression: `step_merges` used to report the *attempted* count,
    // so "pump until 0" loops spun forever against a down cluster.
    let (cluster, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(mw.tick(), 1));
    mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    for i in 0..4 {
        cluster.set_node_down(h2ring::DeviceId(i), true);
    }
    // The canonical caller loop: merge until nothing more applies.
    // With the cluster down this must exit on the first sweep (and the
    // failure is still visible via `failed` and the counter).
    let mut sweeps = 0;
    while mw.step_merges().applied > 0 {
        sweeps += 1;
        assert!(sweeps < 100, "merge pump failed to terminate");
    }
    assert_eq!(sweeps, 0);
    assert!(mw.metrics().counter_value(MERGE_FAILURES) >= 1);
    // Chain intact for the eventual retry.
    assert_eq!(mw.pending_descriptors(), 1);
}

#[test]
fn middleware_locks_sit_in_the_validated_hierarchy() {
    // The merge gate is held across a cycle's cloud requests, so it
    // ranks outside every store lock; `fds` is a leaf. Taking the gate
    // under `fds` inverts the hierarchy, and the validator must report
    // it as a panic naming both locks, not let it deadlock some day.
    if !h2util::lockorder::validation_enabled() {
        return;
    }
    let (_c, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(mw.tick(), 1));
    mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    assert_eq!(mw.pending_descriptors(), 1);
    let key = FdKey::new(&keys, ns(1));
    let inverted = std::thread::spawn(move || {
        let mut fds = mw.fds.lock();
        let Some(sync) = fds.get_mut(&key).map(FileDescriptor::sync) else {
            return;
        };
        // h2lint: allow(lock-order): the inversion is the point — this test asserts that the runtime validator panics on it.
        let _gate = sync.merge.lock();
    })
    .join()
    .expect_err("taking the merge gate under `fds` must panic");
    let msg = inverted.downcast_ref::<String>().map_or("", String::as_str);
    assert!(msg.contains("lock-order violation"), "{msg}");
    assert!(
        msg.contains("middleware.merge_gate") && msg.contains("middleware.fds"),
        "{msg}"
    );
}
