use super::maintenance::SEGMENT_SUBMITS;
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

/// Patch object `no` of node 1's chain for `ring`, parsed; read at no cost.
fn patch_object(mw: &H2Middleware, keys: &H2Keys, ring: NamespaceId, no: u32) -> Result<NameRing> {
    let key = keys.patch(ring, NodeId(1), no);
    let obj = mw.store().get(&mut OpCtx::for_test(), &key)?;
    formatter::patch_from_str(obj.payload.as_str().expect("a string body"))
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
fn a_mark_lands_only_on_an_unmerged_tombstone_and_falls_to_gc_floor() {
    for mode in [MaintenanceMode::Eager, MaintenanceMode::Deferred] {
        let (_c, mw, keys) = setup(mode);
        let mut ctx = OpCtx::for_test();
        let tomb = Tuple::file(mw.tick(), 1).tombstone(mw.tick());
        let mut p = NameRing::new();
        p.apply("f", tomb);
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        let held = || mw.local_ring(&keys, ns(1)).unwrap().get_raw("f").copied();
        // Another tombstone's mark changes nothing.
        let other = Tuple::file(mw.tick(), 1).tombstone(mw.tick());
        mw.mark_reclaimed(&keys, ns(1), "f", other);
        assert_eq!(held(), Some(tomb));
        // An Eager submit merged its patch already: no mark.
        mw.mark_reclaimed(&keys, ns(1), "f", tomb);
        let want = match mode {
            MaintenanceMode::Eager => tomb,
            _ => tomb.mark_reclaimed(),
        };
        assert_eq!(held(), Some(want), "{mode:?}");
        // GC compacting the unmarked tombstone drops the marked copy.
        mw.gc_floor(keys.account(), ns(1), &[("f".to_string(), tomb)]);
        assert_eq!(held(), None, "{mode:?}");
    }
}

#[test]
fn gossip_round_trip_between_two_middlewares() {
    let (cluster, mw1, keys) = setup(MaintenanceMode::Eager);
    let cfg = H2Config {
        cache_capacity: 128,
        ..H2Config::default()
    };
    let mw2 = H2Middleware::new(NodeId(2), cluster.clone(), &cfg);
    let mw3 = H2Middleware::new(NodeId(3), cluster, &cfg);
    let mut ctx = OpCtx::for_test();
    // mw2 reads the ring before it exists, so it holds a cached copy.
    assert!(mw2.read_ring(&mut ctx, &keys, ns(1)).unwrap().is_empty());
    let mut p = NameRing::new();
    p.apply("shared", Tuple::file(mw1.tick(), 7));
    mw1.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    let msgs = mw1.take_outbox();
    assert_eq!(msgs.len(), 1);
    // mw2 learns of the update and fetches it into its cache.
    assert!(matches!(mw2.on_gossip_batch(&msgs)[..], [Ok(true)]));
    let mut read = OpCtx::for_test();
    let ring = mw2.read_ring(&mut read, &keys, ns(1)).unwrap();
    assert!(ring.get("shared").is_some());
    assert_eq!(read.counts().total(), 0, "the cached copy was refreshed");
    // Replayed gossip is aborted (loop-back avoidance).
    assert!(matches!(mw2.on_gossip_batch(&msgs)[..], [Ok(false)]));
    // mw3 never read the ring: the message is no news and costs nothing.
    assert!(matches!(mw3.on_gossip_batch(&msgs)[..], [Ok(false)]));
    assert_eq!(mw3.background_spend().1.total(), 0);
    assert_eq!(mw3.ring_state_entries(), 0);
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

/// A ring read from the cloud teaches the reader's clock, though the
/// reader never heard the ring's gossip: the next tuple it stamps outranks
/// every tuple it read. A DELETE or re-create stamped below the tuple it
/// replaces would be acknowledged and then lost to last-writer-wins.
#[test]
fn read_ring_lifts_the_clock_past_every_tuple_read() {
    for cache_capacity in [0, 128] {
        let cfg = H2Config {
            cache_capacity,
            ..H2Config::default()
        };
        let (cluster, mw1, keys) = setup_with(&cfg);
        let mw2 = H2Middleware::new(NodeId(2), cluster, &cfg);
        let mut ctx = OpCtx::for_test();
        let mut p = NameRing::new();
        for i in 0..50 {
            p.apply(&format!("f{i}"), Tuple::file(mw2.tick(), 1));
        }
        mw2.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
        let ring = mw1.read_ring(&mut ctx, &keys, ns(1)).unwrap();
        let newest = ring.iter().map(|(_, t)| t.ts).max().unwrap();
        assert!(mw1.tick() > newest, "cache_capacity {cache_capacity}");
    }
}

/// The ring cache admits a fetched copy by write stamp alone. An older
/// stamp never replaces the entry, though its tuples are newer; the epoch
/// still bumps, because the fetch's caller builds a view from that copy.
/// A newer stamp always replaces it, though its newest tuple is older:
/// the shape of a GC compaction that drops the newest tombstone.
#[test]
fn a_fetched_ring_enters_the_cache_by_write_stamp() {
    let (_c, mw, keys) = setup_with(&H2Config {
        cache_capacity: 128,
        path_cache: true,
        ..H2Config::default()
    });
    let key = FdKey::new(&keys, ns(1));
    let (old, mid, new) = (mw.tick(), mw.tick(), mw.tick());
    let ring = |tuples: &[(&str, Tuple)]| {
        let mut ring = NameRing::new();
        for (name, tuple) in tuples {
            ring.apply(name, *tuple);
        }
        Arc::new(ring)
    };
    let cached = |mw: &H2Middleware| mw.read_record(&key).1.unwrap();
    let held = ring(&[
        ("f", Tuple::file(old, 1)),
        ("g", Tuple::file(old, 1).tombstone(mid)),
    ]);
    mw.cache_store(&key, &held, Some(20), true);
    let mark = mw.read_record(&key).0;
    mw.cache_store(&key, &ring(&[("f", Tuple::file(new, 1))]), Some(10), false);
    assert!(Arc::ptr_eq(&cached(&mw), &held), "older stamp replaced");
    assert!(!mark.holds(), "refused fetch bumped no epoch");
    let compacted = ring(&[("f", Tuple::file(old, 1))]);
    mw.cache_store(&key, &compacted, Some(30), false);
    assert!(Arc::ptr_eq(&cached(&mw), &compacted), "newer stamp refused");
}

/// A resync refreshes every ring this middleware has cached, yet a ring
/// it only read gains no descriptor: descriptors are for the rings this
/// node maintains.
#[test]
fn resync_refreshes_a_ring_it_only_read_without_a_descriptor() {
    let cfg = H2Config {
        cache_capacity: 128,
        ..H2Config::default()
    };
    let (cluster, reader, keys) = setup_with(&cfg);
    let writer = H2Middleware::new(NodeId(2), cluster, &cfg);
    let mut ctx = OpCtx::for_test();
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(writer.tick(), 1));
    writer.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    reader.read_ring(&mut ctx, &keys, ns(1)).unwrap();
    let entries = reader.ring_state_entries();
    assert_eq!(reader.resync().unwrap(), 1);
    assert_eq!(reader.ring_state_entries(), entries);
}

/// A merge cycle is the read-modify-write gossip runs: when a refresh has
/// already written this node's chain into the ring object, the cycle only
/// reads the ring and deletes its patch, and announces nothing.
#[test]
fn a_merge_whose_chain_the_cloud_already_holds_writes_nothing() {
    let (cluster, mw1, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let mut p = NameRing::new();
    p.apply("f", Tuple::file(mw1.tick(), 1));
    mw1.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    // A concurrent ring PUT hides the patch; its stamp reaches mw1, whose
    // refresh writes back the join with the patch in it.
    let mut hiding = NameRing::new();
    hiding.apply("g", Tuple::file(mw1.tick(), 1));
    let body = Payload::from_string(formatter::namering_to_string(&hiding));
    let stamp = cluster
        .put_stamped(&mut ctx, &keys.namering(ns(1)), body, Meta::new())
        .unwrap();
    mw1.deliver(GossipMsg {
        account: "alice".into(),
        ns: ns(1),
        stamp,
    });
    assert_eq!(mw1.apply_inbox().applied, 1);
    assert_eq!(mw1.take_outbox().len(), 1, "the join was written back");
    let before = mw1.background_spend().1;
    assert_eq!(mw1.step_merges().applied, 1);
    let after = mw1.background_spend().1;
    assert_eq!(after.total() - before.total(), 2);
    let spent = (
        after.gets - before.gets,
        after.puts - before.puts,
        after.deletes - before.deletes,
    );
    assert_eq!(spent, (1, 0, 1), "GETs, PUTs and DELETEs of the merge");
    assert!(mw1.take_outbox().is_empty());
    let global = mw1.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    let names: Vec<&str> = global.live().map(|(name, _)| name).collect();
    assert_eq!(names, ["f", "g"]);
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
    // Three submissions into one segment, the middle one's PUT failing:
    // the segment keeps the first and last and never the middle, survives
    // a failed merge whole, and a good merge then deletes it without
    // reading it back.
    let (cluster, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let set_down = |down: bool| {
        for i in 0..4 {
            cluster.set_node_down(h2ring::DeviceId(i), down);
        }
    };
    let file = |name: &str| {
        let mut p = NameRing::new();
        p.apply(name, Tuple::file(mw.tick(), 1));
        p
    };
    let (first, middle, last) = (file("first"), file("middle"), file("last"));
    let mut submit = |p: &NameRing| mw.submit_patch(&mut ctx, &keys, ns(1), p.clone());
    submit(&first).unwrap();
    set_down(true);
    assert!(submit(&middle).is_err());
    set_down(false);
    submit(&last).unwrap();
    let mut ctx = OpCtx::for_test();
    let segment = |no: u32| patch_object(&mw, &keys, ns(1), no);
    let patches = || (0..3).map(|no| segment(no).is_ok()).collect::<Vec<_>>();
    // All three submits went to segment 0, and it holds exactly the two
    // acknowledged ones.
    let mut acked = first.clone();
    acked.merge_from(&last);
    assert_eq!(segment(0).unwrap(), acked);
    assert_eq!(patches(), [true, false, false]);
    assert_eq!(mw.pending_descriptors(), 1);
    // A failed merge restores the chain.
    set_down(true);
    assert_eq!(mw.step_merges().failed, 1);
    set_down(false);
    assert_eq!(mw.pending_descriptors(), 1);
    assert_eq!(segment(0).unwrap(), acked);
    // The retry reads no patch back and deletes the one segment.
    ctx.begin_trace(Stage::Merge, "MERGE");
    assert!(mw.merge_ns(&mut ctx, &keys, ns(1)).unwrap());
    let spans = ctx.end_trace(None).unwrap();
    let patch_keys = |request: &str| -> Vec<String> {
        spans
            .iter()
            .filter(|s| s.name == request)
            .flat_map(|s| &s.notes)
            .filter(|(k, _)| *k == "key")
            .map(|(_, v)| v.to_string())
            .filter(|k| k.contains(".Patch"))
            .collect()
    };
    let key_of = |no| {
        keys.patch(ns(1), NodeId(1), no)
            .ring_key()
            .as_str()
            .to_string()
    };
    assert_eq!(patch_keys("GET"), Vec::<String>::new());
    assert_eq!(patch_keys("DELETE"), [key_of(0)]);
    // Drained: the global ring holds the first and last names, and no
    // patch object is left.
    assert_eq!(mw.pending_descriptors(), 0);
    let g = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
    let names: Vec<&str> = g.iter().map(|(name, _)| name).collect();
    assert_eq!(names, ["first", "last"]);
    assert_eq!(patches(), [false, false, false]);
}

/// The tuned profile in Deferred mode on the paper's rack cost model.
fn rack_deferred() -> (Arc<Cluster>, Arc<H2Middleware>, H2Keys) {
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.create_account("alice").unwrap();
    cluster
        .create_container("alice", crate::keys::H2_CONTAINER, false)
        .unwrap();
    let cfg = H2Config {
        mode: MaintenanceMode::Deferred,
        ..H2Config::tuned()
    };
    let mw = H2Middleware::new(NodeId(1), cluster.clone(), &cfg);
    (cluster, mw, H2Keys::new("alice"))
}

/// A Deferred cycle over 33 submits on the paper's rack: they fill one
/// segment of [`SEGMENT_SUBMITS`] (32) and open a second, so the chain is
/// two patch objects. The cycle reads neither back and deletes both in one
/// wave: its spend is the cycle CPU, the ring's GET and PUT, and one
/// DELETE. A serial walk spends a DELETE more; one object per submit
/// deletes 33 in two waves of the client pool (`parallelism` 32).
#[test]
fn a_merge_cycle_deletes_its_chain_in_waves() {
    let (cluster, mw, keys) = rack_deferred();
    let mut ctx = OpCtx::new(cluster.cost_model());
    mw.create_ring(&mut ctx, &keys, ns(1), NameRing::new())
        .unwrap();
    for i in 0..33u64 {
        let mut p = NameRing::new();
        p.apply(&format!("f{i:02}"), Tuple::file(mw.tick(), i));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    }
    // The sizes the cycle's requests are charged by, read at no cost.
    let size = |key: &ObjectKey| {
        let obj = mw.store().get(&mut OpCtx::for_test(), key).unwrap();
        obj.payload.len() as usize
    };
    let ring_before = size(&keys.namering(ns(1)));
    let segments = || {
        (0..3)
            .map(|no| patch_object(&mw, &keys, ns(1), no).is_ok())
            .collect::<Vec<_>>()
    };
    assert_eq!(segments(), [true, true, false]);
    assert_eq!(mw.background_spend().1.total(), 0);

    assert_eq!(mw.step_merges().applied, 1);

    let model = cluster.cost_model();
    let expected = model.patch_cycle_cpu
        + model.get_cost(ring_before)
        + model.put_cost(size(&keys.namering(ns(1))))
        + model.delete_cost();
    let (spent, counts) = mw.background_spend();
    assert_eq!(spent, expected);
    assert_eq!(spent, std::time::Duration::from_micros(48_536));
    let requests = (counts.gets, counts.puts, counts.deletes, counts.total());
    assert_eq!(requests, (1, 1, 2, 4), "GETs, PUTs, DELETEs, all");
    assert_eq!(mw.pending_descriptors(), 0);
    assert_eq!(segments(), [false, false, false]);
}

/// A Deferred ring with 65 submits and one merge on the paper's rack: the
/// submits fill two segments of [`SEGMENT_SUBMITS`] and open a third, and
/// the cycle deletes the three as one wave.
#[test]
fn a_segment_closes_at_its_submit_cap() {
    let (cluster, mw, keys) = rack_deferred();
    let mut ctx = OpCtx::new(cluster.cost_model());
    mw.create_ring(&mut ctx, &keys, ns(1), NameRing::new())
        .unwrap();
    let submits = 2 * SEGMENT_SUBMITS + 1;
    for i in 0..submits {
        let mut p = NameRing::new();
        p.apply(&format!("f{i:02}"), Tuple::file(mw.tick(), 1));
        mw.submit_patch(&mut ctx, &keys, ns(1), p).unwrap();
    }
    let segment = |no: u32| patch_object(&mw, &keys, ns(1), no);
    let sizes: Vec<usize> = (0..3).map(|no| segment(no).unwrap().len()).collect();
    assert_eq!(sizes, [32, 32, 1]);
    assert!(matches!(segment(3), Err(H2Error::NotFound(_))));
    // The sizes the cycle's requests are charged by, read at no cost.
    let size = |key: &ObjectKey| {
        let obj = mw.store().get(&mut OpCtx::for_test(), key).unwrap();
        obj.payload.len() as usize
    };
    let ring_before = size(&keys.namering(ns(1)));

    assert_eq!(mw.step_merges().applied, 1);

    let model = cluster.cost_model();
    let expected = model.patch_cycle_cpu
        + model.get_cost(ring_before)
        + model.put_cost(size(&keys.namering(ns(1))))
        + model.delete_cost();
    let (spent, counts) = mw.background_spend();
    assert_eq!(spent, expected);
    let requests = (counts.gets, counts.puts, counts.deletes, counts.total());
    assert_eq!(requests, (1, 1, 3, 5), "GETs, PUTs, DELETEs, all");
    assert!((0..3).all(|no| matches!(segment(no), Err(H2Error::NotFound(_)))));
    let ring = mw.fetch_global_ring(&mut OpCtx::for_test(), &keys, ns(1));
    assert_eq!(ring.unwrap().live_len(), submits as usize);
}

/// A segment rewrite that fails (every device down) between two
/// acknowledged submits, on both profiles: the rewrite after it carries
/// the first and the last submit, and never the failed one, so the object
/// parses to exactly the acknowledged tuples, and so do the local and the
/// merged ring.
#[test]
fn a_failed_rewrite_leaves_the_segment_its_acknowledged_tuples() {
    let profiles = [H2Config::default(), H2Config::tuned()];
    for profile in profiles {
        let (cluster, mw, keys) = setup_with(&H2Config {
            mode: MaintenanceMode::Deferred,
            ..profile
        });
        let set_down = |down: bool| {
            for i in 0..4 {
                cluster.set_node_down(h2ring::DeviceId(i), down);
            }
        };
        let file = |name: &str| {
            let mut p = NameRing::new();
            p.apply(name, Tuple::file(mw.tick(), 1));
            p
        };
        let segment = || patch_object(&mw, &keys, ns(1), 0).unwrap();
        let mut ctx = OpCtx::for_test();
        let (a, b, c) = (file("a"), file("b"), file("c"));
        mw.submit_patch(&mut ctx, &keys, ns(1), a.clone()).unwrap();
        set_down(true);
        assert!(mw.submit_patch(&mut ctx, &keys, ns(1), b).is_err());
        set_down(false);
        assert_eq!(
            segment(),
            a,
            "the failed rewrite left the acknowledged body"
        );
        mw.submit_patch(&mut ctx, &keys, ns(1), c.clone()).unwrap();
        let mut acked = a;
        acked.merge_from(&c);
        assert_eq!(segment(), acked);
        assert_eq!(*mw.local_ring(&keys, ns(1)).unwrap(), acked);
        assert_eq!(mw.step_merges().applied, 1);
        let global = mw.fetch_global_ring(&mut ctx, &keys, ns(1)).unwrap();
        let names: Vec<&str> = global.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "c"]);
    }
}

/// The segment state machine on one descriptor: a claim that meets the
/// open segment's PUT in flight opens a fresh segment, so one PUT per
/// segment key is ever in flight; a landed PUT makes its body the open
/// segment's; a failed rewrite keeps the acknowledged body and the chain
/// entry, and a failed fresh segment leaves the chain.
#[test]
fn a_claim_meeting_a_segment_in_flight_opens_a_fresh_one() {
    let body = |text: &'static str| Payload::from_static(text);
    let mut fd = FileDescriptor::default();
    assert_eq!(fd.claim_segment(), (0, None));
    // Segment 0's PUT is in flight: the next claim writes segment 1.
    assert_eq!(fd.claim_segment(), (1, None));
    assert_eq!(fd.pending, BTreeSet::from([0, 1]));
    // Segment 0 lands but is no longer the open one; segment 1 lands and
    // takes the next claim, with its acknowledged body.
    fd.settle_segment(0, true, Some((body("zero"), 1, 1)));
    fd.settle_segment(1, true, Some((body("one"), 1, 1)));
    assert_eq!(fd.claim_segment(), (1, Some((body("one"), 1))));
    // The rewrite fails: segment 1 keeps its body and its chain entry.
    fd.settle_segment(1, false, None);
    assert_eq!(fd.pending, BTreeSet::from([0, 1]));
    assert_eq!(fd.claim_segment(), (1, Some((body("one"), 1))));
    // A merge takes the chain while the rewrite is in flight: the landed
    // rewrite chains segment 1 again, for the next cycle to delete, and
    // the next claim opens segment 2.
    let taken = std::mem::take(&mut fd.pending);
    fd.open = None;
    assert_eq!(taken, BTreeSet::from([0, 1]));
    fd.settle_segment(1, false, Some((body("one two"), 2, 1)));
    assert_eq!(fd.pending, BTreeSet::from([1]));
    assert_eq!(fd.claim_segment(), (2, None));
    // A fresh segment whose PUT fails leaves the chain and closes.
    fd.settle_segment(2, true, None);
    assert_eq!(fd.pending, BTreeSet::from([1]));
    assert_eq!(fd.claim_segment(), (3, None));
}

/// A Deferred pump over more pending rings than the client pool holds (33
/// rings, `parallelism` 32) on the paper's rack runs their cycles in two
/// waves, each as long as its slowest cycle: the cycle CPU, the ring's GET
/// and PUT, and the patch DELETE. The requests are those of a serial
/// sweep.
#[test]
fn a_merge_pump_runs_its_rings_cycles_in_waves() {
    let (cluster, mw, keys) = rack_deferred();
    let mut ctx = OpCtx::new(cluster.cost_model());
    let rings: Vec<NamespaceId> = (1..=33).map(ns).collect();
    for (i, &ring) in rings.iter().enumerate() {
        mw.create_ring(&mut ctx, &keys, ring, NameRing::new())
            .unwrap();
        let mut p = NameRing::new();
        p.apply(&format!("f{i:02}"), Tuple::file(mw.tick(), i as u64));
        mw.submit_patch(&mut ctx, &keys, ring, p).unwrap();
    }
    // The sizes each cycle's requests are charged by, read at no cost.
    let size = |key: &ObjectKey| {
        let obj = mw.store().get(&mut OpCtx::for_test(), key).unwrap();
        obj.payload.len() as usize
    };
    let model = cluster.cost_model();
    let before: Vec<std::time::Duration> = rings
        .iter()
        .map(|&ring| {
            model.patch_cycle_cpu + model.get_cost(size(&keys.namering(ring))) + model.delete_cost()
        })
        .collect();
    assert_eq!(mw.background_spend().1.total(), 0);

    let outcome = mw.step_merges();
    assert_eq!(
        outcome,
        MergeOutcome {
            applied: 33,
            failed: 0
        }
    );

    let cycles: Vec<std::time::Duration> = rings
        .iter()
        .zip(before)
        .map(|(&ring, cost)| cost + model.put_cost(size(&keys.namering(ring))))
        .collect();
    // Every cycle costs the same here, so which ring lands in the second
    // wave does not matter: two waves of one cycle each. A serial sweep
    // spends 33.
    let slowest = *cycles.iter().max().unwrap();
    assert!(cycles.iter().all(|&cycle| cycle == slowest), "{cycles:?}");
    let (spent, counts) = mw.background_spend();
    assert_eq!(spent, slowest * 2);
    let requests = (counts.gets, counts.puts, counts.deletes, counts.total());
    assert_eq!(requests, (33, 33, 33, 99), "GETs, PUTs, DELETEs, all");
    assert_eq!(mw.pending_descriptors(), 0);
}

/// A ring whose cycle fails does not stop the pump: with one of three
/// pending rings' objects unparseable, the sweep still merges the other
/// two and restores the failing ring's chain.
#[test]
fn a_failing_ring_does_not_stop_the_pump() {
    let (_c, mw, keys) = setup(MaintenanceMode::Deferred);
    let mut ctx = OpCtx::for_test();
    let rings = [ns(1), ns(2), ns(3)];
    for ring in rings {
        let mut p = NameRing::new();
        p.apply("f", Tuple::file(mw.tick(), 1));
        mw.submit_patch(&mut ctx, &keys, ring, p).unwrap();
    }
    let garbage = Payload::from_string("not a NameRing\n".to_string());
    mw.store()
        .put(&mut ctx, &keys.namering(ns(2)), garbage, Meta::new())
        .unwrap();

    let outcome = mw.step_merges();
    assert_eq!(
        outcome,
        MergeOutcome {
            applied: 2,
            failed: 1
        }
    );
    assert_eq!(mw.metrics().counter_value(MERGE_FAILURES), 1);
    // Only the failing ring's chain is left, and its patch object with it.
    assert_eq!(mw.pending_descriptors(), 1);
    for ring in rings {
        let patch = mw.store().get(&mut ctx, &keys.patch(ring, NodeId(1), 0));
        assert_eq!(patch.is_ok(), ring == ns(2), "{ring}");
    }
    for ring in [ns(1), ns(3)] {
        let global = mw.fetch_global_ring(&mut ctx, &keys, ring).unwrap();
        assert!(global.get("f").is_some(), "{ring}");
    }
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

/// A merge cycle reads no patch object back: it takes the chain from the
/// local version, into which `commit_batch` folded each batch when its PUT
/// landed. So the segment a batch opens must hold exactly the batch that
/// was folded — for a lone submit, and for a group-commit batch of three
/// submitters, two of them parked behind a commit in flight and the third
/// leading the batch that carries all three.
#[test]
fn a_committed_patch_object_is_its_batch() {
    let (_c, mw, keys) = setup_grouped(MaintenanceMode::Deferred);
    let file = |name: &str| {
        let mut p = NameRing::new();
        p.apply(name, Tuple::file(mw.tick(), 1));
        p
    };

    let lone = file("lone");
    mw.submit_patch(&mut OpCtx::for_test(), &keys, ns(1), lone.clone())
        .unwrap();
    assert_eq!(patch_object(&mw, &keys, ns(1), 0).unwrap(), lone);
    assert_eq!(*mw.local_ring(&keys, ns(1)).unwrap(), lone);

    // A commit in flight on the ring parks the first two submitters.
    let sync = mw.with_descriptor(&FdKey::new(&keys, ns(2)), |fd, _| Arc::clone(&fd.sync));
    sync.commit.lock().busy = true;
    let patches = [file("a"), file("b"), file("c")];
    let parked: Vec<_> = patches[..2]
        .iter()
        .map(|p| {
            let (mw, p) = (Arc::clone(&mw), p.clone());
            std::thread::spawn(move || {
                let keys = H2Keys::new("alice");
                mw.submit_patch(&mut OpCtx::for_test(), &keys, ns(2), p)
            })
        })
        .collect();
    while sync.commit.lock().batch.len() < 2 {
        std::thread::yield_now();
    }
    sync.commit.lock().busy = false;
    mw.submit_patch(&mut OpCtx::for_test(), &keys, ns(2), patches[2].clone())
        .unwrap();
    for submitter in parked {
        submitter.join().unwrap().unwrap();
    }
    let mut batch = NameRing::new();
    for p in &patches {
        batch.merge_from(p);
    }
    assert_eq!(batch.live_len(), 3);
    // One object for the batch: segment 0, and no number past it.
    assert_eq!(patch_object(&mw, &keys, ns(2), 0).unwrap(), batch);
    for no in 1..3 {
        assert!(matches!(
            patch_object(&mw, &keys, ns(2), no),
            Err(H2Error::NotFound(_))
        ));
    }
    assert_eq!(*mw.local_ring(&keys, ns(2)).unwrap(), batch);
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
    // ranks outside every store lock; a ring-record stripe is a leaf.
    // Taking the gate under the stripe inverts the hierarchy, and the
    // validator must report it as a panic naming both locks, not let it
    // deadlock some day.
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
        let shard = mw.ring_shard(&key).lock();
        let Some(fd) = shard.records.get(&key).and_then(|r| r.fd.as_ref()) else {
            return;
        };
        let sync = Arc::clone(&fd.sync);
        // h2lint: allow(lock-order): the inversion is the point — this test asserts that the runtime validator panics on it.
        let _gate = sync.merge.lock();
    })
    .join()
    .expect_err("taking the merge gate under a record stripe must panic");
    let msg = inverted.downcast_ref::<String>().map_or("", String::as_str);
    assert!(msg.contains("lock-order violation"), "{msg}");
    assert!(
        msg.contains("middleware.merge_gate") && msg.contains("middleware.rings"),
        "{msg}"
    );
}
