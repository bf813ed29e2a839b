use super::*;

/// The rack's 8 nodes × 3 replicas on a smaller ring, free of charge.
fn shape() -> ClusterConfig {
    ClusterConfig {
        part_power: 8,
        cost: Arc::new(CostModel::zero()),
        ..ClusterConfig::default()
    }
}

/// A cluster of `cfg` with account `alice` and its indexed container `fs`.
fn alice(cfg: ClusterConfig) -> Arc<Cluster> {
    let c = Cluster::new(cfg);
    c.create_account("alice").unwrap();
    c.create_container("alice", "fs", true).unwrap();
    c
}

fn cluster() -> Arc<Cluster> {
    alice(shape())
}

fn key(name: &str) -> ObjectKey {
    ObjectKey::new("alice", "fs", name)
}

#[test]
fn put_get_roundtrip_with_replication() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(
        &mut ctx,
        &key("a/b"),
        Payload::from_static("data"),
        Meta::new(),
    )
    .unwrap();
    let obj = c.get(&mut ctx, &key("a/b")).unwrap();
    assert_eq!(obj.payload.as_str(), Some("data"));
    // 3 physical replicas exist.
    let total: usize = c.device_loads().iter().map(|(_, n)| n).sum();
    assert_eq!(total, 3);
    // Logical catalog counts once.
    assert_eq!(c.object_count(), 1);
    assert_eq!(c.byte_count(), 4);
}

#[test]
fn get_missing_is_not_found() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    assert_eq!(
        c.get(&mut ctx, &key("nope")).unwrap_err().code(),
        "not-found"
    );
}

#[test]
fn put_requires_container() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    let k = ObjectKey::new("alice", "missing", "x");
    assert!(c
        .put(&mut ctx, &k, Payload::from_static("d"), Meta::new())
        .is_err());
}

#[test]
fn delete_then_get_fails_and_catalog_updates() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(
        &mut ctx,
        &key("f"),
        Payload::from_static("1234"),
        Meta::new(),
    )
    .unwrap();
    c.delete(&mut ctx, &key("f")).unwrap();
    assert!(c.get(&mut ctx, &key("f")).is_err());
    assert_eq!(c.object_count(), 0);
    assert_eq!(c.byte_count(), 0);
    assert_eq!(
        c.delete(&mut ctx, &key("f")).unwrap_err().code(),
        "not-found"
    );
}

#[test]
fn overwrite_replaces_size_in_catalog() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key("f"), Payload::from_static("aa"), Meta::new())
        .unwrap();
    c.put(
        &mut ctx,
        &key("f"),
        Payload::from_static("aaaa"),
        Meta::new(),
    )
    .unwrap();
    assert_eq!(c.object_count(), 1);
    assert_eq!(c.byte_count(), 4);
}

#[test]
fn copy_duplicates_payload_and_meta() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    let mut meta = Meta::new();
    meta.insert("content-type".into(), "file".into());
    c.put(&mut ctx, &key("src"), Payload::from_static("body"), meta)
        .unwrap();
    c.copy(&mut ctx, &key("src"), &key("dst")).unwrap();
    let dst = c.get(&mut ctx, &key("dst")).unwrap();
    assert_eq!(dst.payload.as_str(), Some("body"));
    assert_eq!(dst.meta["content-type"], "file");
    assert_eq!(c.object_count(), 2);
    assert_eq!(ctx.counts().copies, 1);
}

#[test]
fn head_projects_the_winning_version() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    let meta = Meta::from([("kind".to_string(), "file".to_string())]);
    c.put(
        &mut ctx,
        &key("f"),
        Payload::from_static("old"),
        Meta::new(),
    )
    .unwrap();
    let ms = c
        .put_stamped(&mut ctx, &key("f"), Payload::from_static("body"), meta)
        .unwrap();
    let info = c.head(&mut ctx, &key("f")).unwrap();
    assert_eq!(info.size, 4);
    assert_eq!(info.etag, Payload::from_static("body").digest());
    assert_eq!(info.meta["kind"], "file");
    assert_eq!(info.modified_ms, ms);
    assert_eq!(ctx.counts().heads, 1);
}

#[test]
fn listing_reflects_puts_and_deletes() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    for n in ["dir/a", "dir/b", "dir/sub/c", "top"] {
        c.put(&mut ctx, &key(n), Payload::from_static("x"), Meta::new())
            .unwrap();
    }
    let rows = c
        .list(
            &mut ctx,
            "alice",
            "fs",
            &ListOptions::dir_level("dir/", '/'),
        )
        .unwrap();
    let names: Vec<_> = rows.iter().map(|e| e.name().to_string()).collect();
    assert_eq!(names, ["dir/a", "dir/b", "dir/sub/"]);
    c.delete(&mut ctx, &key("dir/a")).unwrap();
    let rows = c
        .list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert!(ctx.counts().db_queries >= 2);
}

#[test]
fn unindexed_container_refuses_listing() {
    let c = cluster();
    c.create_container("alice", "h2", false).unwrap();
    let mut ctx = OpCtx::for_test();
    let k = ObjectKey::new("alice", "h2", "obj");
    c.put(&mut ctx, &k, Payload::from_static("x"), Meta::new())
        .unwrap();
    assert_eq!(
        c.list(&mut ctx, "alice", "h2", &ListOptions::all())
            .unwrap_err()
            .code(),
        "unsupported"
    );
    // And no DB rows were maintained.
    assert_eq!(c.index_rows("alice", "h2"), 0);
    assert_eq!(ctx.counts().db_updates, 0);
}

#[test]
fn writes_survive_single_node_failure() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.set_node_down(DeviceId(0), true);
    c.set_node_down(DeviceId(1), true);
    for i in 0..50 {
        c.put(
            &mut ctx,
            &key(&format!("f{i}")),
            Payload::from_static("x"),
            Meta::new(),
        )
        .unwrap();
        assert!(c.get(&mut ctx, &key(&format!("f{i}"))).is_ok());
    }
}

#[test]
fn too_many_failures_yield_unavailable() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    for i in 0..8 {
        c.set_node_down(DeviceId(i), true);
    }
    assert_eq!(
        c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
            .unwrap_err()
            .code(),
        "unavailable"
    );
}

#[test]
fn repair_moves_handoffs_home() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.set_node_down(DeviceId(3), true);
    for i in 0..40 {
        c.put(
            &mut ctx,
            &key(&format!("f{i}")),
            Payload::from_static("x"),
            Meta::new(),
        )
        .unwrap();
    }
    c.set_node_down(DeviceId(3), false);
    let moved = c.repair();
    // Node 3 was assigned some of those partitions; repair must have
    // done work and afterwards everything reads fine with handoffs gone.
    assert!(moved > 0, "repair did nothing");
    for i in 0..40 {
        assert!(c.get(&mut ctx, &key(&format!("f{i}"))).is_ok());
    }
    // Second pass is a no-op: state converged.
    assert_eq!(c.repair(), 0);
}

#[test]
fn repair_reclaims_tombstones() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
        .unwrap();
    c.delete(&mut ctx, &key("f")).unwrap();
    // Tombstones still occupy device maps until repair.
    let before: usize = c.topology().nodes.iter().map(|n| n.keys().len()).sum();
    assert!(before > 0);
    c.repair();
    let after: usize = c.topology().nodes.iter().map(|n| n.keys().len()).sum();
    assert_eq!(after, 0);
    assert!(c.get(&mut ctx, &key("f")).is_err());
}

#[test]
fn reads_prefer_newest_replica_after_partial_write() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key("f"), Payload::from_static("v1"), Meta::new())
        .unwrap();
    // Take one assigned device down, overwrite, bring it back: the stale
    // replica must lose to the newer ones.
    let part = c.ring().partition_of(key("f").ring_key().as_bytes());
    let dev = c.ring().devices_for_part(part)[0];
    c.set_node_down(dev, true);
    c.put(&mut ctx, &key("f"), Payload::from_static("v2"), Meta::new())
        .unwrap();
    c.set_node_down(dev, false);
    assert_eq!(
        c.get(&mut ctx, &key("f")).unwrap().payload.as_str(),
        Some("v2")
    );
}

#[test]
fn handoff_write_beats_returning_stale_assigned_replica() {
    // Regression for the stale-read window: v1 lands on all assigned
    // devices; ALL of them go down; v2 lands entirely on handoffs; one
    // assigned device returns with its stale v1. The read must still
    // find v2 on the handoffs, not serve the shadowing stale copy.
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key("f"), Payload::from_static("v1"), Meta::new())
        .unwrap();
    let part = c.ring().partition_of(key("f").ring_key().as_bytes());
    let assigned: Vec<DeviceId> = c.ring().devices_for_part(part).to_vec();
    for &d in &assigned {
        c.set_node_down(d, true);
    }
    c.put(&mut ctx, &key("f"), Payload::from_static("v2"), Meta::new())
        .unwrap();
    c.set_node_down(assigned[0], false);
    assert_eq!(
        c.get(&mut ctx, &key("f")).unwrap().payload.as_str(),
        Some("v2"),
        "stale assigned replica shadowed the newer handoff copy"
    );
    // Same window for deletes: tombstone lands on handoffs only, then a
    // stale live assigned copy must not resurrect the object.
    c.delete(&mut ctx, &key("f")).unwrap();
    assert!(c.get(&mut ctx, &key("f")).is_err());
    // Full recovery converges via repair.
    for &d in &assigned {
        c.set_node_down(d, false);
    }
    c.repair();
    assert!(c.get(&mut ctx, &key("f")).is_err());
}

#[test]
fn delete_account_purges_objects() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
        .unwrap();
    c.delete_account(&mut ctx, "alice").unwrap();
    assert_eq!(c.object_count(), 0);
    assert!(!c.account_exists("alice"));
    assert!(c.delete_account(&mut ctx, "alice").is_err());
}

#[test]
fn delete_account_skips_down_nodes_and_repair_reconciles() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key("f"), Payload::from_static("x"), Meta::new())
        .unwrap();
    // One replica holder goes down before the account is deleted.
    let part = c.ring().partition_of(key("f").ring_key().as_bytes());
    let dev = c.ring().devices_for_part(part)[0];
    c.set_node_down(dev, true);
    c.delete_account(&mut ctx, "alice").unwrap();
    assert_eq!(c.object_count(), 0);
    // The downed node was not asked to purge (it can't be): its stale
    // replica survives the account deletion.
    c.set_node_down(dev, false);
    assert!(
        c.topology()
            .node(dev)
            .get_raw(&key("f").ring_key())
            .is_some(),
        "down node should have kept its replica"
    );
    // Repair reconciles: the account is gone, so the orphan is purged.
    assert!(c.repair() > 0);
    assert!(c
        .topology()
        .node(dev)
        .get_raw(&key("f").ring_key())
        .is_none());
    // A recreated account starts clean — no resurrected objects.
    c.create_account("alice").unwrap();
    c.create_container("alice", "fs", true).unwrap();
    assert_eq!(c.get(&mut ctx, &key("f")).unwrap_err().code(), "not-found");
}

#[test]
fn duplicate_account_or_container_rejected() {
    let c = cluster();
    assert!(c.create_account("alice").is_err());
    assert!(c.create_container("alice", "fs", true).is_err());
    assert!(c.create_container("ghost", "fs", true).is_err());
}

#[test]
fn async_index_updates_lag_until_flushed() {
    let c = cluster();
    c.set_async_index(true);
    let mut ctx = OpCtx::for_test();
    c.put(
        &mut ctx,
        &key("dir/a"),
        Payload::from_static("x"),
        Meta::new(),
    )
    .unwrap();
    c.put(
        &mut ctx,
        &key("dir/b"),
        Payload::from_static("y"),
        Meta::new(),
    )
    .unwrap();
    // The object is readable immediately…
    assert!(c.get(&mut ctx, &key("dir/a")).is_ok());
    // …but the listing has not caught up (eventual consistency).
    let rows = c
        .list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
        .unwrap();
    assert!(rows.is_empty(), "listing should lag: {rows:?}");
    assert_eq!(c.pending_index_updates(), 2);
    // The container updater catches up.
    assert_eq!(c.flush_index_updates(), 2);
    let rows = c
        .list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
        .unwrap();
    assert_eq!(rows.len(), 2);
    // Deletes lag the same way.
    c.delete(&mut ctx, &key("dir/a")).unwrap();
    assert_eq!(
        c.list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
            .unwrap()
            .len(),
        2,
        "deletion visible in listing before the updater ran"
    );
    c.flush_index_updates();
    assert_eq!(
        c.list(&mut ctx, "alice", "fs", &ListOptions::with_prefix("dir/"))
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn async_index_does_not_charge_the_writer() {
    let c = Cluster::new(ClusterConfig {
        cost: Arc::new(CostModel::rack_default()),
        ..ClusterConfig::tiny()
    });
    c.create_account("a").unwrap();
    c.create_container("a", "c", true).unwrap();
    let k = ObjectKey::new("a", "c", "o");
    let mut sync_ctx = OpCtx::new(c.cost_model());
    c.put(&mut sync_ctx, &k, Payload::from_static("x"), Meta::new())
        .unwrap();
    c.set_async_index(true);
    let mut async_ctx = OpCtx::new(c.cost_model());
    c.put(&mut async_ctx, &k, Payload::from_static("y"), Meta::new())
        .unwrap();
    assert_eq!(sync_ctx.counts().db_updates, 1);
    assert_eq!(async_ctx.counts().db_updates, 0);
    assert!(async_ctx.elapsed() < sync_ctx.elapsed());
}

#[test]
fn timing_uses_cost_model() {
    let c = Cluster::new(ClusterConfig {
        nodes: 4,
        part_power: 6,
        ..ClusterConfig::default()
    });
    c.create_account("a").unwrap();
    c.create_container("a", "c", false).unwrap();
    let mut ctx = OpCtx::new(c.cost_model());
    let k = ObjectKey::new("a", "c", "o");
    c.put(&mut ctx, &k, Payload::from_static("x"), Meta::new())
        .unwrap();
    let after_put = ctx.elapsed();
    assert!(after_put > std::time::Duration::ZERO);
    c.get(&mut ctx, &k).unwrap();
    assert!(ctx.elapsed() > after_put);

    // Every store request shape on the calibrated rack, pinned to the
    // virtual time and primitives it paid before the split into modules.
    use PrimKind as K;
    assert_charges(
        &Cluster::rack(),
        &[
            ("put indexed", "ok", 14_312_000, &[K::Put, K::DbUpdate]),
            ("put unindexed", "ok", 12_012_000, &[K::Put]),
            ("overwrite", "ok", 14_312_000, &[K::Put, K::DbUpdate]),
            ("copy hit", "ok", 14_803_000, &[K::Copy, K::DbUpdate]),
            ("copy miss", "not-found", 12_500_000, &[K::Copy]),
            ("delete hit", "ok", 14_300_000, &[K::Delete, K::DbUpdate]),
            ("delete miss", "not-found", 12_000_000, &[K::Delete]),
            ("cas fresh", "ok", 12_012_000, &[K::Put]),
            ("cas shared", "ok", 9_500_000, &[K::Head]),
            ("cas decref kept", "ok", 0, &[]),
            ("cas incref", "ok", 9_500_000, &[K::Head]),
            ("cas decref kept", "ok", 0, &[]),
            ("cas decref reclaim", "ok", 12_000_000, &[K::Delete]),
        ],
    );
    // The same sequence under a seeded 10 % fault plan: errors, torn
    // writes and replica faults replay to the same charges and draws.
    let plan = FaultPlan::uniform(11, FaultSpec::errors(0.1).with_torn(0.1));
    let faulty = Cluster::new(ClusterConfig {
        faults: Some(plan.with_replica_errors(0.1)),
        ..ClusterConfig::default()
    });
    assert_charges(
        &faulty,
        &[
            ("put indexed", "ok", 14_312_000, &[K::Put, K::DbUpdate]),
            ("put unindexed", "ok", 12_012_000, &[K::Put]),
            ("overwrite", "unavailable", 12_012_000, &[K::Put]),
            ("copy hit", "ok", 14_803_000, &[K::Copy, K::DbUpdate]),
            ("copy miss", "unavailable", 0, &[]),
            ("delete hit", "unavailable", 0, &[]),
            ("delete miss", "ok", 14_300_000, &[K::Delete, K::DbUpdate]),
            ("cas fresh", "ok", 12_012_000, &[K::Put]),
            ("cas shared", "ok", 9_500_000, &[K::Head]),
            ("cas decref kept", "ok", 0, &[]),
            ("cas incref", "unavailable", 0, &[]),
            ("cas decref kept", "ok", 12_000_000, &[K::Delete]),
            ("cas decref reclaim", "ok", 0, &[]),
        ],
    );
    let stats = faulty.fault_stats().expect("plan active");
    let want = FaultStats {
        draws: 37,
        errors: 2,
        slowdowns: 0,
        torn: 2,
        replica_errors: 2,
    };
    assert_eq!(stats, want);
}

/// `(shape, outcome, virtual ns, primitives charged)` of one request.
type Pinned = (&'static str, &'static str, u64, &'static [PrimKind]);

/// Run one request of each shape on `c`, each on its own context, and
/// check it against `pinned`: the outcome, the virtual time, the counts,
/// and a stage split with all of the time in the op stage.
fn assert_charges(c: &Cluster, pinned: &[Pinned]) {
    c.create_account("a").unwrap();
    c.create_container("a", "idx", true).unwrap();
    c.create_container("a", "raw", false).unwrap();
    let idx = ObjectKey::new("a", "idx", "o");
    let raw = ObjectKey::new("a", "raw", "o");
    let none = ObjectKey::new("a", "idx", "none");
    let dst = ObjectKey::new("a", "idx", "dst");
    let blk = h2util::hash128(b"block").to_hex();
    let body = Payload::from_static;
    type Op<'a> = Box<dyn Fn(&mut OpCtx) -> Result<()> + 'a>;
    let put_block = |ctx: &mut OpCtx| {
        c.cas_put_block(ctx, &blk, body("block"), Meta::new(), 5)
            .map(drop)
    };
    let decref = |ctx: &mut OpCtx| c.cas_decref(ctx, &blk).map(drop);
    let ops: Vec<Op> = vec![
        Box::new(|ctx| c.put(ctx, &idx, body("body"), Meta::new())),
        Box::new(|ctx| c.put(ctx, &raw, body("body"), Meta::new())),
        Box::new(|ctx| {
            c.put_returning_prev(ctx, &idx, body("body2"), Meta::new())
                .map(drop)
        }),
        Box::new(|ctx| c.copy(ctx, &idx, &dst)),
        Box::new(|ctx| c.copy(ctx, &none, &dst)),
        Box::new(|ctx| c.delete(ctx, &idx)),
        Box::new(|ctx| c.delete(ctx, &idx)),
        Box::new(put_block),
        Box::new(put_block),
        Box::new(decref),
        Box::new(|ctx| c.cas_incref(ctx, &blk)),
        Box::new(decref),
        Box::new(decref),
    ];
    assert_eq!(ops.len(), pinned.len());
    for (op, &(shape, outcome, ns, kinds)) in ops.iter().zip(pinned) {
        let mut got = OpCtx::new(c.cost_model());
        let result = op(&mut got).err().map_or("ok", |e| e.code());
        let mut want = OpCtx::new(c.cost_model());
        kinds.iter().for_each(|&k| want.charge(k, Duration::ZERO));
        want.charge_time(Duration::from_nanos(ns));
        assert_eq!(result, outcome, "{shape}");
        assert_eq!(
            (got.elapsed(), got.counts(), got.stage_times()),
            (want.elapsed(), want.counts(), want.stage_times()),
            "{shape}"
        );
    }
}

#[test]
fn single_stripe_cluster_matches_default_striping() {
    // with_stripes(1) is the seed's one-big-lock layout; the default 16
    // stripes must be observably identical over a mixed op sequence.
    let run = |stripes: usize| {
        let c = Cluster::with_stripes(shape(), stripes);
        c.create_account("alice").unwrap();
        c.create_container("alice", "fs", true).unwrap();
        let mut ctx = OpCtx::for_test();
        for i in 0..60 {
            c.put(
                &mut ctx,
                &key(&format!("d/f{i}")),
                Payload::from_string(format!("v{i}")),
                Meta::new(),
            )
            .unwrap();
        }
        for i in (0..60).step_by(3) {
            c.delete(&mut ctx, &key(&format!("d/f{i}"))).unwrap();
        }
        c.copy(&mut ctx, &key("d/f1"), &key("d/c1")).unwrap();
        let mut loads = c.device_loads();
        loads.sort();
        (
            c.object_count(),
            c.byte_count(),
            c.total_index_rows(),
            loads,
        )
    };
    assert_eq!(run(1), run(16));
}

// ----- fault plane ----------------------------------------------------

use h2util::faults::FaultSpec;

fn faulty_cluster(plan: FaultPlan) -> Arc<Cluster> {
    alice(ClusterConfig {
        faults: Some(plan),
        ..shape()
    })
}

#[test]
fn injected_errors_replay_byte_identically() {
    let plan = FaultPlan::uniform(1234, FaultSpec::errors(0.3));
    let run = || {
        let c = faulty_cluster(plan.clone());
        let mut ctx = OpCtx::for_test();
        let mut outcomes = Vec::new();
        for i in 0..50 {
            outcomes.push(
                c.put(
                    &mut ctx,
                    &key(&format!("f{i}")),
                    Payload::from_string(format!("v{i}")),
                    Meta::new(),
                )
                .map_err(|e| e.code())
                .is_ok(),
            );
            outcomes.push(c.get(&mut ctx, &key(&format!("f{i}"))).is_ok());
        }
        (outcomes, c.fault_stats())
    };
    let (a, sa) = run();
    let (b, sb) = run();
    assert_eq!(a, b, "same seed must replay the same fault schedule");
    assert_eq!(sa, sb);
    let stats = sa.expect("plan active");
    assert!(stats.errors > 0, "0.3 error rate over 100 ops: {stats:?}");
}

#[test]
fn torn_write_applies_a_subset_and_repair_reconciles() {
    // Every put tears; find one that leaves at least one replica.
    let plan = FaultPlan::uniform(77, FaultSpec::default().with_torn(1.0));
    let c = faulty_cluster(plan);
    let mut ctx = OpCtx::for_test();
    let mut partial = None;
    for i in 0..30 {
        let k = key(&format!("torn{i}"));
        let err = c
            .put(&mut ctx, &k, Payload::from_static("data"), Meta::new())
            .expect_err("torn writes must report failure");
        assert_eq!(err.code(), "unavailable");
        let replicas: usize = c.device_loads().iter().map(|(_, n)| n).sum();
        // The catalog was never updated — the write is torn.
        assert_eq!(c.object_count(), 0);
        if replicas > 0 {
            partial = Some(k);
            break;
        }
    }
    let k = partial.expect("a torn write with surviving replicas");
    // The client was told the write failed, yet a retry after clearing
    // the plane (or Swift repair) completes it normally.
    c.set_fault_plan(None);
    assert!(c.fault_stats().is_none());
    c.put(&mut ctx, &k, Payload::from_static("data"), Meta::new())
        .unwrap();
    c.repair();
    assert_eq!(c.get(&mut ctx, &k).unwrap().payload.as_str(), Some("data"));
    assert_eq!(c.object_count(), 1);
}

#[test]
fn slow_faults_inflate_latency_without_failing() {
    let plan = FaultPlan::uniform(
        5,
        FaultSpec::default().with_slow(1.0, std::time::Duration::from_millis(25)),
    );
    let c = faulty_cluster(plan);
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key("s"), Payload::from_static("x"), Meta::new())
        .unwrap();
    c.get(&mut ctx, &key("s")).unwrap();
    // Zero-cost model: all elapsed time is injected inflation.
    assert_eq!(ctx.elapsed(), std::time::Duration::from_millis(50));
    assert_eq!(c.fault_stats().expect("active").slowdowns, 2);
}

#[test]
fn replica_write_faults_engage_handoffs_and_quorum() {
    // Per-replica faults only: the front door stays clean, but each
    // replica placement may fail, pushing writes onto handoffs.
    let plan = FaultPlan::new(9).with_replica_errors(0.4);
    let c = faulty_cluster(plan);
    let mut ctx = OpCtx::for_test();
    let mut quorum_failures = 0;
    let mut acked: Vec<usize> = Vec::new();
    for i in 0..40 {
        let k = key(&format!("r{i}"));
        match c.put(
            &mut ctx,
            &k,
            Payload::from_string(format!("v{i}")),
            Meta::new(),
        ) {
            Ok(()) => {
                acked.push(i);
                // While faults are live a read may be hidden from every
                // holder (retryable outage), but it must never report a
                // verified miss or the wrong value for an acked write.
                match c.get(&mut ctx, &k) {
                    Ok(obj) => {
                        assert_eq!(obj.payload.as_str(), Some(format!("v{i}").as_str()));
                    }
                    Err(e) => assert_eq!(e.code(), "unavailable", "{e}"),
                }
            }
            Err(e) => {
                assert_eq!(e.code(), "unavailable");
                quorum_failures += 1;
            }
        }
    }
    let stats = c.fault_stats().expect("active");
    assert!(stats.replica_errors > 0, "{stats:?}");
    // 0.4^2-ish per-write quorum-loss probability: some but not all.
    assert!(quorum_failures < 40);
    assert!(!acked.is_empty());
    // After clearing faults, every acknowledged write is durable even
    // though some replicas landed on handoff devices; repair converges
    // placement back onto the assigned devices.
    c.set_fault_plan(None);
    c.repair();
    for i in acked {
        let k = key(&format!("r{i}"));
        assert_eq!(
            c.get(&mut ctx, &k).unwrap().payload.as_str(),
            Some(format!("v{i}").as_str()),
            "acked write r{i} lost"
        );
    }
}

// ----- elastic topology ------------------------------------------------

fn populate(c: &Cluster, n: usize) -> Vec<ObjectKey> {
    let mut ctx = OpCtx::for_test();
    (0..n)
        .map(|i| {
            let k = key(&format!("mig/f{i}"));
            c.put(
                &mut ctx,
                &k,
                Payload::from_string(format!("body-{i}")),
                Meta::new(),
            )
            .unwrap();
            k
        })
        .collect()
}

fn assert_all_readable(c: &Cluster, keys: &[ObjectKey]) {
    let mut ctx = OpCtx::for_test();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            c.get(&mut ctx, k).unwrap().payload.as_str(),
            Some(format!("body-{i}").as_str()),
            "key {} unreadable",
            k.ring_key()
        );
    }
}

#[test]
fn add_node_migrates_and_everything_stays_readable() {
    let c = cluster();
    let keys = populate(&c, 60);
    let id = c.add_node(9, 1.0).unwrap();
    assert_eq!(id, DeviceId(8));
    assert!(c.migration_active());
    let total = c.migration_total_parts();
    assert!(total > 0, "adding a device must move some partitions");
    // Mid-migration reads work (old assignment serves as handoff).
    assert_all_readable(&c, &keys);
    // Throttled steps make monotone progress until done.
    let mut flipped = 0;
    while c.migration_active() {
        let n = c.migrate_step(8);
        assert!(n > 0, "migrator stalled with no down devices");
        flipped += n;
    }
    assert_eq!(flipped, total);
    assert_eq!(
        c.metrics().counter_value(MIGRATION_PARTS_MOVED),
        total as u64
    );
    assert_all_readable(&c, &keys);
    // Repair drops the now-redundant old-assignment copies, after
    // which the new device actually holds data.
    c.repair();
    assert_all_readable(&c, &keys);
    let loads = c.device_loads();
    assert!(
        loads.iter().any(|&(d, n)| d == id && n > 0),
        "new device took no replicas: {loads:?}"
    );
    // Replica population is exactly replicas-per-object again.
    let total_replicas: usize = loads.iter().map(|&(_, n)| n).sum();
    assert_eq!(total_replicas, keys.len() * 3);
}

#[test]
fn drain_node_rescues_sole_reachable_replica() {
    let c = cluster();
    let keys = populate(&c, 40);
    // Pick a victim device and a key assigned to it; take the key's
    // *other* assigned devices down so the victim holds the only
    // reachable replica, then drain the victim.
    let victim = DeviceId(3);
    let ring = c.ring();
    let probe = keys
        .iter()
        .find(|k| {
            ring.devices_for_part(ring.partition_of(k.ring_key().as_bytes()))
                .contains(&victim)
        })
        .expect("some key lands on the victim");
    let part = ring.partition_of(probe.ring_key().as_bytes());
    let others: Vec<DeviceId> = ring
        .devices_for_part(part)
        .iter()
        .copied()
        .filter(|&d| d != victim)
        .collect();
    for &d in &others {
        c.set_node_down(d, true);
    }
    c.drain_node(victim).unwrap();
    // The partition cannot flip to quorum while the other replicas
    // are down on the *new* assignment too... but whatever happens,
    // the data stays readable: pending partitions fall back to the
    // old assignment, where the victim still answers.
    c.migrate_all();
    let mut ctx = OpCtx::for_test();
    let idx = keys.iter().position(|k| k == probe).unwrap();
    assert_eq!(
        c.get(&mut ctx, probe).unwrap().payload.as_str(),
        Some(format!("body-{idx}").as_str()),
        "sole-replica key lost during drain"
    );
    assert!(
        c.metrics().counter_value(MIGRATION_READ_RESCUES) > 0,
        "read should have scanned the old assignment"
    );
    // Nodes return; migration completes; victim fully drained.
    for &d in &others {
        c.set_node_down(d, false);
    }
    c.migrate_all();
    assert!(!c.migration_active());
    c.repair();
    assert_all_readable(&c, &keys);
    let loads = c.device_loads();
    assert_eq!(
        loads.iter().find(|&&(d, _)| d == victim).unwrap().1,
        0,
        "drained device still holds replicas: {loads:?}"
    );
}

#[test]
fn set_weight_zero_is_a_drain_and_rejects_unknown_devices() {
    let c = cluster();
    let keys = populate(&c, 20);
    c.set_weight(DeviceId(5), 0.0).unwrap();
    assert!(!c.ring().devices().iter().any(|d| d.id == DeviceId(5)));
    c.migrate_all();
    assert!(!c.migration_active());
    c.repair();
    assert_all_readable(&c, &keys);
    // A second drain of the same device: no longer in the ring.
    assert_eq!(c.drain_node(DeviceId(5)).unwrap_err().code(), "not-found");
    assert_eq!(
        c.set_weight(DeviceId(5), 2.0).unwrap_err().code(),
        "not-found"
    );
    // Re-weighting an in-ring device rebalances without data loss.
    c.set_weight(DeviceId(0), 3.0).unwrap();
    c.migrate_all();
    c.repair();
    assert_all_readable(&c, &keys);
}

#[test]
fn drain_below_replica_count_is_rejected() {
    let c = Cluster::new(ClusterConfig {
        nodes: 3,
        replicas: 3,
        ..ClusterConfig::tiny()
    });
    assert_eq!(c.drain_node(DeviceId(0)).unwrap_err().code(), "conflict");
    assert_eq!(c.add_node(7, -1.0).unwrap_err().code(), "conflict");
}

#[test]
fn add_then_immediately_drain_round_trips() {
    let c = cluster();
    let keys = populate(&c, 30);
    let id = c.add_node(9, 2.0).unwrap();
    // Drain it again before a single migration step ran: the drain
    // first completes the in-flight migration, then swaps back.
    c.drain_node(id).unwrap();
    c.migrate_all();
    assert!(!c.migration_active());
    c.repair();
    assert_all_readable(&c, &keys);
    let loads = c.device_loads();
    assert_eq!(loads.iter().find(|&&(d, _)| d == id).unwrap().1, 0);
    // Back to the original topology: replica population intact.
    let total_replicas: usize = loads.iter().map(|&(_, n)| n).sum();
    assert_eq!(total_replicas, keys.len() * 3);
}

#[test]
fn migration_racing_delete_account_leaves_no_garbage() {
    let c = cluster();
    let keys = populate(&c, 30);
    let id = c.add_node(9, 1.5).unwrap();
    // Flip a few partitions, then delete the account mid-migration.
    c.migrate_step(4);
    let mut ctx = OpCtx::for_test();
    c.delete_account(&mut ctx, "alice").unwrap();
    // Remaining steps must not resurrect the dead account's objects.
    c.migrate_all();
    assert!(!c.migration_active());
    c.repair();
    for k in &keys {
        assert!(c.get(&mut ctx, k).is_err(), "{} resurrected", k.ring_key());
    }
    let loads = c.device_loads();
    let total_replicas: usize = loads.iter().map(|&(_, n)| n).sum();
    assert_eq!(total_replicas, 0, "orphan replicas survive: {loads:?}");
    let _ = id;
}

#[test]
fn writes_during_migration_dual_apply_and_survive_flip() {
    let c = cluster();
    let mut keys = populate(&c, 30);
    c.add_node(9, 1.0).unwrap();
    assert!(c.migration_active());
    // Write fresh keys while partitions are pending; some will land
    // on pending partitions and dual-apply to the old assignment.
    let mut ctx = OpCtx::for_test();
    for i in 30..60 {
        let k = key(&format!("mig/f{i}"));
        c.put(
            &mut ctx,
            &k,
            Payload::from_string(format!("body-{i}")),
            Meta::new(),
        )
        .unwrap();
        keys.push(k);
        if i % 7 == 0 {
            c.migrate_step(2);
        }
    }
    c.migrate_all();
    c.repair();
    assert_all_readable(&c, &keys);
}

// ----- CAS block store -------------------------------------------------

#[test]
fn cas_put_dedups_and_refcounts() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    let hex = h2util::hash128(b"blockbody").to_hex();
    assert_eq!(
        Cluster::cas_ring_key(&hex),
        Cluster::cas_block_key(&hex).ring_key()
    );
    let fresh = c
        .cas_put_block(
            &mut ctx,
            &hex,
            Payload::from_static("blockbody"),
            Meta::new(),
            9,
        )
        .unwrap();
    assert!(fresh);
    assert_eq!(c.cas_refcount(&hex), 1);
    assert_eq!(c.metrics().counter_value(CAS_BLOCKS_WRITTEN), 1);
    // Second put of identical content: shared, not rewritten.
    let fresh = c
        .cas_put_block(
            &mut ctx,
            &hex,
            Payload::from_static("blockbody"),
            Meta::new(),
            9,
        )
        .unwrap();
    assert!(!fresh);
    assert_eq!(c.cas_refcount(&hex), 2);
    assert_eq!(c.metrics().counter_value(CAS_BLOCKS_WRITTEN), 1);
    assert_eq!(c.metrics().counter_value(CAS_BLOCKS_SHARED), 1);
    assert_eq!(c.metrics().counter_value(DEDUP_BYTES_SAVED), 9);
    // The block is a readable object in the reserved namespace.
    let obj = c.get(&mut ctx, &Cluster::cas_block_key(&hex)).unwrap();
    assert_eq!(obj.payload.len(), 9);
}

#[test]
fn cas_decref_reclaims_at_zero_and_returns_content() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    let hex = h2util::hash128(b"short-lived").to_hex();
    c.cas_put_block(
        &mut ctx,
        &hex,
        Payload::from_static("short-lived"),
        Meta::new(),
        11,
    )
    .unwrap();
    c.cas_incref(&mut ctx, &hex).unwrap();
    assert_eq!(c.cas_refcount(&hex), 2);
    // First decref: still live, nothing reclaimed.
    assert!(c.cas_decref(&mut ctx, &hex).unwrap().is_none());
    assert_eq!(c.cas_refcount(&hex), 1);
    // Second decref: reclaimed, final content returned for cascading.
    let gone = c.cas_decref(&mut ctx, &hex).unwrap().unwrap();
    assert_eq!(gone.payload.as_str(), Some("short-lived"));
    assert_eq!(c.cas_refcount(&hex), 0);
    assert_eq!(c.cas_live_blocks(), 0);
    assert!(matches!(
        c.get(&mut ctx, &Cluster::cas_block_key(&hex)),
        Err(H2Error::NotFound(_))
    ));
    // Decref of an unknown block is a tolerated no-op (retry paths).
    assert!(c.cas_decref(&mut ctx, &hex).unwrap().is_none());
    // Incref after reclaim is the copy-vs-delete race: NotFound.
    assert!(matches!(
        c.cas_incref(&mut ctx, &hex),
        Err(H2Error::NotFound(_))
    ));
    // Re-put after reclaim is a fresh write again.
    assert!(c
        .cas_put_block(
            &mut ctx,
            &hex,
            Payload::from_static("short-lived"),
            Meta::new(),
            11,
        )
        .unwrap());
    assert_eq!(c.cas_refcount(&hex), 1);
}

#[test]
fn cas_refcounts_survive_concurrent_shares_and_drops() {
    let c = cluster();
    let hex = h2util::hash128(b"contended").to_hex();
    let mut ctx = OpCtx::for_test();
    c.cas_put_block(
        &mut ctx,
        &hex,
        Payload::from_static("contended"),
        Meta::new(),
        9,
    )
    .unwrap();
    // 8 threads each share the block 50 times, then drop it 50 times:
    // the count must come back to exactly 1 with the block still live.
    std::thread::scope(|s| {
        for _ in 0..8 {
            let c = &c;
            let hex = hex.clone();
            s.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for _ in 0..50 {
                    c.cas_put_block(
                        &mut ctx,
                        &hex,
                        Payload::from_static("contended"),
                        Meta::new(),
                        9,
                    )
                    .unwrap();
                }
                for _ in 0..50 {
                    assert!(c.cas_decref(&mut ctx, &hex).unwrap().is_none());
                }
            });
        }
    });
    assert_eq!(c.cas_refcount(&hex), 1);
    assert_eq!(c.metrics().counter_value(CAS_BLOCKS_WRITTEN), 1);
    assert_eq!(c.metrics().counter_value(CAS_BLOCKS_SHARED), 400);
}

#[test]
fn put_returning_prev_hands_back_exactly_the_displaced_generation() {
    let c = cluster();
    let mut ctx = OpCtx::for_test();
    let k = key("gen/file");
    let prev = c
        .put_returning_prev(&mut ctx, &k, Payload::from_static("g0"), Meta::new())
        .unwrap();
    assert!(prev.is_none());
    let prev = c
        .put_returning_prev(&mut ctx, &k, Payload::from_static("g1"), Meta::new())
        .unwrap()
        .unwrap();
    assert_eq!(prev.payload.as_str(), Some("g0"));
    let prev = c.delete_returning_prev(&mut ctx, &k).unwrap();
    assert_eq!(prev.payload.as_str(), Some("g1"));
    assert!(matches!(
        c.delete_returning_prev(&mut ctx, &k),
        Err(H2Error::NotFound(_))
    ));
    // After a delete, the next overwrite sees no predecessor.
    let prev = c
        .put_returning_prev(&mut ctx, &k, Payload::from_static("g2"), Meta::new())
        .unwrap();
    assert!(prev.is_none());
}
