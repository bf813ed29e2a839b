//! Property tests: the replicated object store behaves like a simple
//! key→value map, even with up to `replicas − quorum` nodes down at any
//! moment and repair passes interleaved.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use h2ring::DeviceId;
use h2util::{CostModel, OpCtx};
use swiftsim::{Cluster, ClusterConfig, Meta, ObjectKey, ObjectStore, Payload};

#[derive(Debug, Clone)]
enum StoreOp {
    Put(u8, u16), // key id, value
    Get(u8),
    Delete(u8),
    Head(u8),
    Copy(u8, u8), // src, dst
    NodeFlap(u8), // toggle node (bounded below quorum)
    Repair,
}

fn arb_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0u8..12, any::<u16>()).prop_map(|(k, v)| StoreOp::Put(k, v)),
        (0u8..12).prop_map(StoreOp::Get),
        (0u8..12).prop_map(StoreOp::Delete),
        (0u8..12).prop_map(StoreOp::Head),
        (0u8..12, 0u8..12).prop_map(|(a, b)| StoreOp::Copy(a, b)),
        (0u8..8).prop_map(StoreOp::NodeFlap),
        Just(StoreOp::Repair),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_map_model_under_bounded_failures(
        ops in prop::collection::vec(arb_op(), 1..120)
    ) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 8,
            replicas: 3,
            part_power: 7,
            cost: Arc::new(CostModel::zero()),
            faults: None,
        });
        cluster.create_account("a").unwrap();
        cluster.create_container("a", "c", true).unwrap();
        let mut model: HashMap<u8, u16> = HashMap::new();
        let mut down: Option<u8> = None; // at most ONE node down (quorum safe)
        let mut ctx = OpCtx::for_test();
        let key = |k: u8| ObjectKey::new("a", "c", &format!("obj{k:02}"));

        for op in &ops {
            match op {
                StoreOp::Put(k, v) => {
                    cluster
                        .put(&mut ctx, &key(*k), Payload::from_string(v.to_string()), Meta::new())
                        .unwrap();
                    model.insert(*k, *v);
                }
                StoreOp::Get(k) => match (cluster.get(&mut ctx, &key(*k)), model.get(k)) {
                    (Ok(obj), Some(v)) => {
                        let want = v.to_string();
                        prop_assert_eq!(obj.payload.as_str(), Some(want.as_str()));
                    }
                    (Err(e), None) => prop_assert_eq!(e.code(), "not-found"),
                    (got, want) => prop_assert!(false, "GET diverged: {:?} vs {:?}", got, want),
                },
                StoreOp::Head(k) => {
                    let got = cluster.head(&mut ctx, &key(*k)).is_ok();
                    prop_assert_eq!(got, model.contains_key(k));
                }
                StoreOp::Delete(k) => {
                    let got = cluster.delete(&mut ctx, &key(*k));
                    prop_assert_eq!(got.is_ok(), model.remove(k).is_some());
                }
                StoreOp::Copy(a, b) => {
                    let got = cluster.copy(&mut ctx, &key(*a), &key(*b));
                    match model.get(a).copied() {
                        Some(v) => {
                            prop_assert!(got.is_ok());
                            model.insert(*b, v);
                        }
                        None => prop_assert_eq!(got.unwrap_err().code(), "not-found"),
                    }
                }
                StoreOp::NodeFlap(n) => {
                    // Keep at most one node down so every quorum stays
                    // reachable (2/3 with 8 nodes).
                    if let Some(prev) = down.take() {
                        cluster.set_node_down(DeviceId(prev as u16), false);
                    }
                    if Some(*n) != down {
                        cluster.set_node_down(DeviceId(*n as u16), true);
                        down = Some(*n);
                    }
                }
                StoreOp::Repair => {
                    cluster.repair();
                }
            }
        }

        // Bring everything back, repair to convergence, and do a final
        // full audit against the model.
        if let Some(prev) = down {
            cluster.set_node_down(DeviceId(prev as u16), false);
        }
        cluster.repair();
        for k in 0u8..12 {
            match (cluster.get(&mut ctx, &key(k)), model.get(&k)) {
                (Ok(obj), Some(v)) => {
                    let want = v.to_string();
                    prop_assert_eq!(obj.payload.as_str(), Some(want.as_str()));
                }
                (Err(e), None) => prop_assert_eq!(e.code(), "not-found"),
                (got, want) => prop_assert!(false, "final audit diverged for {}: {:?} vs {:?}", k, got, want),
            }
        }
        prop_assert_eq!(cluster.object_count() as usize, model.len());
    }

    // The lock-striped cluster (16 node stripes + 16 map shards) must be
    // observably equivalent to the seed's single-lock layout
    // (`with_stripes(1)`): same op results, same final content, same
    // replica placement. Striping is a pure concurrency optimisation.
    #[test]
    fn striped_cluster_is_observably_equivalent_to_single_lock(
        ops in prop::collection::vec(arb_op(), 1..100)
    ) {
        let cfg = || ClusterConfig {
            nodes: 8,
            replicas: 3,
            part_power: 7,
            cost: Arc::new(CostModel::zero()),
            faults: None,
        };
        let seed = Cluster::with_stripes(cfg(), 1);
        let sharded = Cluster::with_stripes(cfg(), 16);
        for c in [&seed, &sharded] {
            c.create_account("a").unwrap();
            c.create_container("a", "c", true).unwrap();
        }
        let mut ctx = OpCtx::for_test();
        let key = |k: u8| ObjectKey::new("a", "c", &format!("obj{k:02}"));
        let mut down: Option<u8> = None;

        for op in &ops {
            match op {
                StoreOp::Put(k, v) => {
                    let a = seed.put(&mut ctx, &key(*k), Payload::from_string(v.to_string()), Meta::new());
                    let b = sharded.put(&mut ctx, &key(*k), Payload::from_string(v.to_string()), Meta::new());
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
                StoreOp::Get(k) => {
                    match (seed.get(&mut ctx, &key(*k)), sharded.get(&mut ctx, &key(*k))) {
                        (Ok(x), Ok(y)) => prop_assert_eq!(x.payload, y.payload),
                        (Err(x), Err(y)) => prop_assert_eq!(x.code(), y.code()),
                        (x, y) => prop_assert!(false, "GET diverged: {:?} vs {:?}", x, y),
                    }
                }
                StoreOp::Head(k) => {
                    prop_assert_eq!(
                        seed.head(&mut ctx, &key(*k)).is_ok(),
                        sharded.head(&mut ctx, &key(*k)).is_ok()
                    );
                }
                StoreOp::Delete(k) => {
                    prop_assert_eq!(
                        seed.delete(&mut ctx, &key(*k)).is_ok(),
                        sharded.delete(&mut ctx, &key(*k)).is_ok()
                    );
                }
                StoreOp::Copy(a, b) => {
                    prop_assert_eq!(
                        seed.copy(&mut ctx, &key(*a), &key(*b)).is_ok(),
                        sharded.copy(&mut ctx, &key(*a), &key(*b)).is_ok()
                    );
                }
                StoreOp::NodeFlap(n) => {
                    if let Some(prev) = down.take() {
                        seed.set_node_down(DeviceId(prev as u16), false);
                        sharded.set_node_down(DeviceId(prev as u16), false);
                    }
                    seed.set_node_down(DeviceId(*n as u16), true);
                    sharded.set_node_down(DeviceId(*n as u16), true);
                    down = Some(*n);
                }
                StoreOp::Repair => {
                    seed.repair();
                    sharded.repair();
                }
            }
        }

        // Recover both, repair home, and compare every observable surface.
        if let Some(prev) = down {
            seed.set_node_down(DeviceId(prev as u16), false);
            sharded.set_node_down(DeviceId(prev as u16), false);
        }
        seed.repair();
        sharded.repair();
        prop_assert_eq!(seed.object_count(), sharded.object_count());
        prop_assert_eq!(seed.byte_count(), sharded.byte_count());
        prop_assert_eq!(seed.total_index_rows(), sharded.total_index_rows());
        for k in 0u8..12 {
            match (seed.get(&mut ctx, &key(k)), sharded.get(&mut ctx, &key(k))) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x.payload, y.payload),
                (Err(x), Err(y)) => prop_assert_eq!(x.code(), y.code()),
                (x, y) => prop_assert!(false, "final GET diverged for {}: {:?} vs {:?}", k, x, y),
            }
        }
        let mut la = seed.device_loads();
        let mut lb = sharded.device_loads();
        la.sort();
        lb.sort();
        prop_assert_eq!(la, lb, "replica placement diverged");
    }

    #[test]
    fn listing_always_reflects_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        // Synchronous index mode: the listing DB is always exact.
        let cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            replicas: 1,
            part_power: 6,
            cost: Arc::new(CostModel::zero()),
            faults: None,
        });
        cluster.create_account("a").unwrap();
        cluster.create_container("a", "c", true).unwrap();
        let mut model: HashMap<u8, u16> = HashMap::new();
        let mut ctx = OpCtx::for_test();
        let key = |k: u8| ObjectKey::new("a", "c", &format!("obj{k:02}"));
        for op in &ops {
            match op {
                StoreOp::Put(k, v) => {
                    cluster
                        .put(&mut ctx, &key(*k), Payload::from_string(v.to_string()), Meta::new())
                        .unwrap();
                    model.insert(*k, *v);
                }
                StoreOp::Delete(k) => {
                    let _ = cluster.delete(&mut ctx, &key(*k));
                    model.remove(k);
                }
                _ => {}
            }
        }
        let rows = cluster
            .list(&mut ctx, "a", "c", &swiftsim::ListOptions::all())
            .unwrap();
        let mut got: Vec<String> = rows.iter().map(|e| e.name().to_string()).collect();
        got.sort();
        let mut want: Vec<String> = model.keys().map(|k| format!("obj{k:02}")).collect();
        want.sort();
        prop_assert_eq!(got, want);
    }
}

/// One writer overwrites a key with matched `(payload_i, meta_i)` pairs
/// while readers GET and HEAD it. A version's payload, meta and digest live
/// in one shared record, so whatever version a reader gets, it gets whole.
#[test]
fn readers_racing_an_overwriting_writer_never_see_a_mixed_version() {
    const VERSIONS: u32 = 2_000;
    let cluster = Cluster::new(ClusterConfig {
        nodes: 8,
        replicas: 3,
        part_power: 7,
        cost: Arc::new(CostModel::zero()),
        faults: None,
    });
    cluster.create_account("a").unwrap();
    cluster.create_container("a", "c", false).unwrap();
    let key = ObjectKey::new("a", "c", "contended");
    let body = |i: u32| format!("payload of version {i}");
    let put = |i: u32| {
        let meta = Meta::from([("gen".to_string(), i.to_string())]);
        cluster
            .put(
                &mut OpCtx::for_test(),
                &key,
                Payload::from_string(body(i)),
                meta,
            )
            .unwrap();
    };
    put(0);
    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            (1..=VERSIONS).for_each(put);
            done.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(|| {
                let mut ctx = OpCtx::for_test();
                start.wait();
                let mut last = 0u32;
                // At least one pass after the writer has finished, so the
                // final version is checked even if this thread was starved.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let obj = cluster.get(&mut ctx, &key).unwrap();
                    let gen: u32 = obj.meta["gen"].parse().unwrap();
                    assert_eq!(obj.payload.as_str(), Some(body(gen).as_str()));
                    assert!(gen >= last, "GET went back from {last} to {gen}");
                    let info = cluster.head(&mut ctx, &key).unwrap();
                    let head_gen: u32 = info.meta["gen"].parse().unwrap();
                    let expect = Payload::from_string(body(head_gen));
                    assert_eq!((info.size, info.etag), (expect.len(), expect.digest()));
                    assert!(head_gen >= gen, "HEAD went back from {gen} to {head_gen}");
                    last = head_gen;
                    if finished {
                        assert_eq!(last, VERSIONS);
                        break;
                    }
                }
            });
        }
    });
}

/// A reader racing a topology swap never sees the new ring without the
/// migration record that tells it where the data still is. With one replica
/// there is no second copy to fall back on, and a drained device is not even
/// among the new ring's handoffs: a read that used the new placement for a
/// moved, not yet migrated partition without the old assignment would come
/// back NotFound.
#[test]
fn readers_racing_add_node_and_drain_find_every_key() {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 4,
        replicas: 1,
        part_power: 6,
        cost: Arc::new(CostModel::zero()),
        faults: None,
    });
    cluster.create_account("a").unwrap();
    cluster.create_container("a", "c", false).unwrap();
    let keys: Vec<ObjectKey> = (0..256)
        .map(|i| ObjectKey::new("a", "c", &format!("obj{i:03}")))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        let body = Payload::from_string(i.to_string());
        cluster
            .put(&mut OpCtx::for_test(), k, body, Meta::new())
            .unwrap();
    }
    let start = Barrier::new(3);
    let swapped = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            // The drain first finishes the add's migration, then swaps and
            // migrates nothing: device 0's partitions stay pending, their
            // only copies on a device outside the ring, for as long as the
            // readers run.
            cluster.add_node(9, 1.0).unwrap();
            cluster.drain_node(DeviceId(0)).unwrap();
            swapped.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(|| {
                let mut ctx = OpCtx::for_test();
                start.wait();
                // Passes overlapping the swaps, then one wholly after them.
                loop {
                    let after_swaps = swapped.load(Ordering::Acquire);
                    for (i, k) in keys.iter().enumerate() {
                        let obj = cluster.get(&mut ctx, k).unwrap();
                        assert_eq!(obj.payload.as_str(), Some(i.to_string().as_str()));
                    }
                    if after_swaps {
                        break;
                    }
                }
            });
        }
    });
    assert!(
        cluster.migration_pending_parts() > 0,
        "the drain moved nothing"
    );
    assert!(cluster.migration_read_rescue_count() > 0);
}
