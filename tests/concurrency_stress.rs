//! Concurrency stress: the simulated cluster and H2Cloud are shared-state
//! concurrent systems (ranked `Ordered*` locks, atomics, channels);
//! these tests hammer them from many threads — with failures injected —
//! and assert the invariants that must survive: no lost updates after
//! quiescence, stable reads after repair, fsck-clean metadata.

use std::sync::Arc;

use h2cloud::check::fsck;
use h2cloud::{H2Cloud, H2Config, H2Keys, MaintenanceMode, NameRing, Tuple};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2ring::DeviceId;
use h2util::{CostModel, H2Error, NamespaceId, OpCtx};
use swiftsim::{Cluster, ClusterConfig, Meta, ObjectKey, ObjectStore, Payload};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

#[test]
fn cluster_survives_concurrent_writers_readers_and_flapping_nodes() {
    const WRITERS: usize = 4;
    const KEYS: usize = 32;
    const ROUNDS: usize = 40;

    let cluster = Cluster::new(ClusterConfig {
        nodes: 8,
        replicas: 3,
        part_power: 8,
        cost: Arc::new(CostModel::zero()),
        faults: None,
    });
    cluster.create_account("acct").unwrap();
    cluster.create_container("acct", "c", true).unwrap();

    std::thread::scope(|scope| {
        // Writers: every (writer, round) writes a distinct marker value to
        // a shared key set.
        for w in 0..WRITERS {
            let cluster = cluster.clone();
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for r in 0..ROUNDS {
                    let key = ObjectKey::new("acct", "c", &format!("k{:02}", (w * 7 + r) % KEYS));
                    let body = format!("w{w}-r{r}");
                    cluster
                        .put(&mut ctx, &key, Payload::from_string(body), Meta::new())
                        .unwrap();
                }
            });
        }
        // Readers: concurrent gets must never see corruption (absence is
        // fine while writers race).
        for _ in 0..2 {
            let cluster = cluster.clone();
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for r in 0..ROUNDS * 2 {
                    let key = ObjectKey::new("acct", "c", &format!("k{:02}", r % KEYS));
                    if let Ok(obj) = cluster.get(&mut ctx, &key) {
                        let s = obj.payload.as_str().expect("string payload");
                        assert!(s.starts_with('w'), "corrupt payload {s:?}");
                    }
                }
            });
        }
        // Chaos: one thread flaps nodes and runs the replicator.
        {
            let cluster = cluster.clone();
            scope.spawn(move || {
                for i in 0..20u16 {
                    let dev = DeviceId(i % 8);
                    cluster.set_node_down(dev, true);
                    std::thread::yield_now();
                    cluster.set_node_down(dev, false);
                    cluster.repair();
                }
            });
        }
    });

    // All nodes up: repair to convergence, then every key written must be
    // present with a well-formed value, stable across reads.
    cluster.repair();
    assert_eq!(cluster.repair(), 0, "repair did not converge");
    let mut ctx = OpCtx::for_test();
    for k in 0..KEYS {
        let key = ObjectKey::new("acct", "c", &format!("k{k:02}"));
        let a = cluster.get(&mut ctx, &key).expect("key lost").payload;
        let b = cluster.get(&mut ctx, &key).expect("key lost").payload;
        assert_eq!(a, b, "unstable read for k{k:02}");
    }
}

#[test]
fn repair_loop_under_concurrent_puts_and_deletes_loses_nothing() {
    // The replicator runs as a loop *while* clients mutate the store and a
    // node flaps. Two invariants must hold once the dust settles: no live
    // object is lost (repair must never purge a replica a racing writer
    // just wrote), and no deleted object is resurrected (tombstones may
    // only be reclaimed once every holder of a stale copy is reachable).
    const LIVE: usize = 24;
    const DOOMED: usize = 16;
    const WRITERS: usize = 3;
    const ROUNDS: usize = 24;

    let cluster = Cluster::new(ClusterConfig {
        nodes: 8,
        replicas: 3,
        part_power: 8,
        cost: Arc::new(CostModel::zero()),
        faults: None,
    });
    cluster.create_account("acct").unwrap();
    cluster.create_container("acct", "c", true).unwrap();

    // Pre-populate the keys the deleter will remove mid-churn.
    let mut ctx = OpCtx::for_test();
    for d in 0..DOOMED {
        cluster
            .put(
                &mut ctx,
                &ObjectKey::new("acct", "c", &format!("doomed{d:02}")),
                Payload::from_string(format!("d{d}")),
                Meta::new(),
            )
            .unwrap();
    }

    std::thread::scope(|scope| {
        // Writers: together they cover every live key (writer w steps by
        // WRITERS from offset w).
        for w in 0..WRITERS {
            let cluster = cluster.clone();
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for r in 0..ROUNDS {
                    let key = ObjectKey::new(
                        "acct",
                        "c",
                        &format!("live{:02}", (w + WRITERS * r) % LIVE),
                    );
                    cluster
                        .put(
                            &mut ctx,
                            &key,
                            Payload::from_string(format!("w{w}-r{r}")),
                            Meta::new(),
                        )
                        .unwrap();
                }
            });
        }
        // Deleter: removes every doomed key exactly once, racing repair.
        {
            let cluster = cluster.clone();
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for d in 0..DOOMED {
                    cluster
                        .delete(
                            &mut ctx,
                            &ObjectKey::new("acct", "c", &format!("doomed{d:02}")),
                        )
                        .unwrap();
                    std::thread::yield_now();
                }
            });
        }
        // Repair loop + node chaos: one node down at a time, replicator
        // passes interleaved with the mutations above.
        {
            let cluster = cluster.clone();
            scope.spawn(move || {
                for i in 0..20u16 {
                    let dev = DeviceId(i % 8);
                    cluster.set_node_down(dev, true);
                    cluster.repair();
                    std::thread::yield_now();
                    cluster.set_node_down(dev, false);
                    cluster.repair();
                }
            });
        }
    });

    // All nodes up: repair to convergence (tombstone reclaim may take an
    // extra pass after the flapped replicas come home).
    for _ in 0..4 {
        cluster.repair();
    }
    assert_eq!(cluster.repair(), 0, "repair did not converge");

    let mut ctx = OpCtx::for_test();
    for k in 0..LIVE {
        let key = ObjectKey::new("acct", "c", &format!("live{k:02}"));
        let got = cluster
            .get(&mut ctx, &key)
            .unwrap_or_else(|e| panic!("live{k:02} lost: {e:?}"))
            .payload;
        let s = got.as_str().expect("string payload");
        assert!(s.starts_with('w'), "corrupt payload {s:?}");
    }
    for d in 0..DOOMED {
        let key = ObjectKey::new("acct", "c", &format!("doomed{d:02}"));
        assert!(
            cluster.get(&mut ctx, &key).is_err(),
            "doomed{d:02} resurrected after repair"
        );
    }
    assert_eq!(cluster.object_count() as usize, LIVE);
}

#[test]
fn h2cloud_concurrent_writers_one_middleware_lose_nothing() {
    const THREADS: usize = 6;
    const FILES: usize = 30;

    let fs = Arc::new(H2Cloud::new(H2Config {
        middlewares: 1,
        mode: MaintenanceMode::Eager,
        cluster: ClusterConfig {
            cost: Arc::new(CostModel::zero()),
            ..ClusterConfig::default()
        },
        cache_capacity: 128,
        trace_sample: 0.0,
        ..H2Config::default()
    }));
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/hot")).unwrap();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let fs = fs.clone();
            scope.spawn(move || {
                // Half the threads write into the shared hot directory,
                // half build private subtrees.
                let mut ctx = OpCtx::for_test();
                if t % 2 == 0 {
                    for i in 0..FILES {
                        fs.write(
                            &mut ctx,
                            "team",
                            &p(&format!("/hot/t{t}-f{i:02}")),
                            FileContent::Simulated(64),
                        )
                        .unwrap();
                    }
                } else {
                    fs.mkdir(&mut ctx, "team", &p(&format!("/own{t}"))).unwrap();
                    for i in 0..FILES {
                        fs.write(
                            &mut ctx,
                            "team",
                            &p(&format!("/own{t}/f{i:02}")),
                            FileContent::Simulated(64),
                        )
                        .unwrap();
                    }
                }
            });
        }
    });
    fs.quiesce();

    let mut ctx = OpCtx::for_test();
    let hot = fs.list(&mut ctx, "team", &p("/hot")).unwrap();
    assert_eq!(
        hot.len(),
        (THREADS / 2) * FILES,
        "lost updates in the shared directory"
    );
    for t in (1..THREADS).step_by(2) {
        let own = fs.list(&mut ctx, "team", &p(&format!("/own{t}"))).unwrap();
        assert_eq!(own.len(), FILES, "thread {t} subtree incomplete");
    }
    let report = fsck(&fs, &mut ctx, "team").unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn submit_patch_chain_survives_concurrent_merges() {
    // Regression for a double-lock race in `submit_patch`: the patch number
    // used to be allocated in one lock scope and recorded in the pending
    // chain in a *second* lock scope after the PUT. A merge cycle racing the
    // PUT could run in between, consume the (not yet chained) number's
    // object as NotFound, and leave the freshly written patch object
    // orphaned in the cloud — referenced by no chain, never merged, never
    // deleted — while `is_quiescent` reported a quiet layer. This hammers
    // direct patch submissions against a concurrent merger and asserts
    // nothing is lost and nothing leaks. A patch object is a segment that
    // later submits rewrite: without group commit, two submitters meet
    // one open segment, and the second must write a fresh one rather than
    // race the first one's rewrite; with it, the commit leader writes.
    for group_commit in [false, true] {
        chain_survives_concurrent_merges(group_commit);
    }
}

fn chain_survives_concurrent_merges(group_commit: bool) {
    const WRITERS: usize = 4;
    const PATCHES: usize = 50;

    let fs = Arc::new(H2Cloud::new(H2Config {
        middlewares: 1,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig {
            cost: Arc::new(CostModel::zero()),
            ..ClusterConfig::default()
        },
        cache_capacity: 128,
        trace_sample: 0.0,
        group_commit,
        ..H2Config::default()
    }));
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();

    let mw = fs.layer().mw(0).clone();
    let keys = H2Keys::new("team");
    let ns = NamespaceId::ROOT;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let mw = mw.clone();
            let keys = keys.clone();
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for i in 0..PATCHES {
                    let mut patch = NameRing::new();
                    patch.apply(&format!("w{w}-f{i:03}"), Tuple::file(mw.tick(), 1));
                    mw.submit_patch(&mut ctx, &keys, ns, patch).unwrap();
                }
            });
        }
        // Merger: runs merge cycles concurrently with the submissions. The
        // race window is a cycle consuming the chain while a patch PUT is
        // still in flight.
        {
            let mw = mw.clone();
            scope.spawn(move || {
                for _ in 0..400 {
                    mw.step_merges();
                    std::thread::yield_now();
                }
            });
        }
    });
    fs.quiesce();
    assert_eq!(mw.pending_descriptors(), 0, "quiesce left pending chains");

    // No lost updates: every submitted entry made it into the global ring.
    let mut ctx = OpCtx::for_test();
    let global = mw.fetch_global_ring(&mut ctx, &keys, ns).unwrap();
    for w in 0..WRITERS {
        for i in 0..PATCHES {
            let name = format!("w{w}-f{i:03}");
            assert!(
                global.get(&name).is_some(),
                "update {name} lost in the submit/merge race (group commit {group_commit})"
            );
        }
    }
    assert_eq!(global.live_len(), WRITERS * PATCHES);

    // No orphaned patch objects: segment numbers are allocated densely
    // from 0, at most one per submit, so every object a writer ever PUT
    // lives at one of these keys — all must have been merged and deleted
    // (probe a little past the end too).
    let total = (WRITERS * PATCHES) as u32;
    for no in 0..total + 8 {
        let key = keys.patch(ns, mw.node(), no);
        assert!(
            matches!(fs.cluster().get(&mut ctx, &key), Err(H2Error::NotFound(_))),
            "orphaned patch object #{no} left in the cloud (group commit {group_commit})"
        );
    }
}

#[test]
fn one_rings_record_survives_reads_patches_gossip_and_invalidations() {
    // Everything a middleware knows of a ring sits in one record behind one
    // stripe lock. Hammer one ring's record from every path at once: patch
    // submissions, resolve-path reads, merges with gossip applied on both
    // middlewares (each a ring cycle), and GC's invalidation. Nothing
    // submitted may be lost, and once the layer is quiet both middlewares
    // read what the cloud holds.
    const WRITERS: usize = 2;
    const PATCHES: usize = 150;

    let fs = H2Cloud::new(H2Config {
        middlewares: 2,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig {
            cost: Arc::new(CostModel::zero()),
            ..ClusterConfig::default()
        },
        cache_capacity: 16,
        trace_sample: 0.0,
        ..H2Config::tuned()
    });
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    let (mw, peer) = (fs.layer().mw(0), fs.layer().mw(1));
    let keys = H2Keys::new("team");
    let ns = NamespaceId::ROOT;
    let done = std::sync::atomic::AtomicUsize::new(0);
    let running = || done.load(std::sync::atomic::Ordering::Relaxed) < WRITERS;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (keys, done) = (&keys, &done);
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for i in 0..PATCHES {
                    let mut patch = NameRing::new();
                    patch.apply(&format!("w{w}-f{i:03}"), Tuple::file(mw.tick(), 1));
                    mw.submit_patch(&mut ctx, keys, ns, patch).unwrap();
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        // Merges, with every announcement applied on both middlewares.
        scope.spawn(|| {
            while running() {
                mw.step_merges();
                for msg in mw.take_outbox() {
                    peer.deliver(msg.clone());
                    mw.deliver(msg);
                }
                mw.apply_inbox();
                peer.apply_inbox();
            }
        });
        // Reads on both middlewares, and GC's invalidation of the ring.
        scope.spawn(|| {
            let mut ctx = OpCtx::for_test();
            while running() {
                for m in [mw, peer] {
                    m.read_ring_view(&mut ctx, &keys, ns).unwrap();
                }
            }
        });
        scope.spawn(|| {
            while running() {
                for m in [mw, peer] {
                    m.invalidate_ring("team", ns);
                }
                std::thread::yield_now();
            }
        });
    });
    fs.quiesce();
    fs.layer().resync().unwrap();
    assert_eq!(mw.pending_descriptors(), 0, "quiesce left pending chains");
    let mut ctx = OpCtx::for_test();
    let global = mw.fetch_global_ring(&mut ctx, &keys, ns).unwrap();
    assert_eq!(global.live_len(), WRITERS * PATCHES, "an update was lost");
    for m in [mw, peer] {
        let view = m.read_ring(&mut ctx, &keys, ns).unwrap();
        assert_eq!(view.live_len(), WRITERS * PATCHES, "node {}", m.node());
    }
}

#[test]
fn h2cloud_concurrent_structure_churn_stays_consistent() {
    // Threads repeatedly create + remove their own directories while one
    // thread GCs concurrently — the tree must end consistent and fsck
    // clean, with all survivors intact.
    let fs = Arc::new(H2Cloud::new(H2Config {
        middlewares: 1,
        mode: MaintenanceMode::Eager,
        cluster: ClusterConfig {
            cost: Arc::new(CostModel::zero()),
            ..ClusterConfig::default()
        },
        cache_capacity: 128,
        trace_sample: 0.0,
        ..H2Config::default()
    }));
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();

    std::thread::scope(|scope| {
        for t in 0..4 {
            let fs = fs.clone();
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for round in 0..10 {
                    let dir = p(&format!("/churn-t{t}-r{round}"));
                    fs.mkdir(&mut ctx, "team", &dir).unwrap();
                    fs.write(
                        &mut ctx,
                        "team",
                        &dir.child("payload").unwrap(),
                        FileContent::Simulated(32),
                    )
                    .unwrap();
                    if round % 2 == 0 {
                        fs.rmdir(&mut ctx, "team", &dir).unwrap();
                    }
                }
            });
        }
        {
            let fs = fs.clone();
            scope.spawn(move || {
                let mut ctx = OpCtx::for_test();
                for _ in 0..5 {
                    // GC with an old horizon: concurrent-safe grace window.
                    let _ = h2cloud::gc::collect(
                        &fs,
                        &mut ctx,
                        "team",
                        h2util::Timestamp::new(1, 0, h2util::NodeId(0)),
                    );
                    std::thread::yield_now();
                }
            });
        }
    });
    fs.quiesce();

    let mut ctx = OpCtx::for_test();
    let survivors = fs.list(&mut ctx, "team", &p("/")).unwrap();
    // Odd rounds survive: 5 per thread × 4 threads.
    assert_eq!(survivors.len(), 20, "{survivors:?}");
    for dir in &survivors {
        let listing = fs.list(&mut ctx, "team", &p(&format!("/{dir}"))).unwrap();
        assert_eq!(listing, vec!["payload".to_string()], "/{dir}");
    }
    let report = fsck(&fs, &mut ctx, "team").unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn eager_contention_ring_fetches_stay_linear() {
    // Regression for the submit_patch contention blowup: under Eager
    // maintenance, every submitter used to run its own merge cycle, and a
    // cycle stalled behind the per-ring merge lock re-fetched the global
    // ring it had already read — N contending writers cost O(N²) ring GETs.
    // With group commit the batch leader merges once per batch and reuses
    // one fetched ring, so the total must stay linear in submissions (a
    // quadratic regression here would be ~30× over the bound).
    const THREADS: usize = 8;
    const PER_THREAD: usize = 8;

    let fs = Arc::new(H2Cloud::new(H2Config {
        middlewares: 1,
        mode: MaintenanceMode::Eager,
        cluster: ClusterConfig {
            cost: Arc::new(CostModel::zero()),
            ..ClusterConfig::default()
        },
        group_commit: true,
        ..H2Config::default()
    }));
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();

    let mw = fs.layer().mw(0).clone();
    let keys = H2Keys::new("team");
    let ns = NamespaceId::ROOT;
    let before = fs.metrics().counter_value("ring_fetches");

    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let mw = mw.clone();
            let keys = keys.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                barrier.wait();
                let mut ctx = OpCtx::for_test();
                for i in 0..PER_THREAD {
                    let mut patch = NameRing::new();
                    patch.apply(&format!("c{t}-f{i}"), Tuple::file(mw.tick(), 1));
                    mw.submit_patch(&mut ctx, &keys, ns, patch).unwrap();
                }
            });
        }
    });
    fs.quiesce();

    let submissions = (THREADS * PER_THREAD) as u64;
    let fetches = fs.metrics().counter_value("ring_fetches") - before;
    assert!(
        fetches <= 2 * submissions,
        "{fetches} ring GETs for {submissions} contended submissions — \
         quadratic refetching is back"
    );

    // And nothing was lost along the way.
    let mut ctx = OpCtx::for_test();
    let global = mw.fetch_global_ring(&mut ctx, &keys, ns).unwrap();
    assert_eq!(global.live_len() as u64, submissions);
}
