//! Multi-middleware convergence: the asynchronous NameRing maintenance
//! protocol (§3.3) under concurrent writers, gossip faults, and real
//! threads — every middleware must end with the same filesystem view.

use std::collections::BTreeSet;
use std::sync::Arc;

use h2cloud::layer::GossipFaults;
use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::OpCtx;
use proptest::prelude::*;
use swiftsim::ClusterConfig;

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

/// The paper profile only. Gossip drops a message whose ring version — the
/// maximum tuple timestamp — a merge of older writes did not raise
/// (ROADMAP.md, "Gossip that every merge advances";
/// `older_stamped_write_back_reaches_every_ring_cache` below reproduces it
/// on the tuned profile). `threaded_writers_with_threaded_gossip_converge`
/// hits that hole about 1 run in 15 on a 2-core machine even here, when two
/// merges rewrite the ring object at once. Until the hole is closed the
/// tuned profile's convergence is covered deterministically by
/// `tests/chaos.rs` and `tests/prop_equivalence.rs`.
fn h2(middlewares: usize) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig {
            cost: std::sync::Arc::new(h2util::CostModel::zero()),
            ..ClusterConfig::default()
        },
        // These tests read through specific middlewares (`via`) after lossy
        // gossip and rely on read-through-global freshness — cache off.
        cache_capacity: 0,
        trace_sample: 0.0,
        ..H2Config::default()
    })
}

fn listing_on(fs: &H2Cloud, mw: usize, dir: &FsPath) -> Vec<String> {
    let mut ctx = OpCtx::for_test();
    fs.via(mw).list(&mut ctx, "team", dir).unwrap()
}

#[test]
fn concurrent_updates_to_one_directory_converge() {
    let fs = h2(4);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/shared")).unwrap();
    fs.quiesce();
    // Interleave writes from all four middlewares before any merging.
    for round in 0..5 {
        for mw in 0..4 {
            let mut ctx = OpCtx::for_test();
            fs.via(mw)
                .write(
                    &mut ctx,
                    "team",
                    &p(&format!("/shared/r{round}-m{mw}")),
                    FileContent::Simulated(100),
                )
                .unwrap();
        }
    }
    fs.quiesce();
    let reference = listing_on(&fs, 0, &p("/shared"));
    assert_eq!(reference.len(), 20);
    for mw in 1..4 {
        assert_eq!(
            listing_on(&fs, mw, &p("/shared")),
            reference,
            "mw {mw} diverged"
        );
    }
}

#[test]
fn create_delete_races_resolve_by_timestamp() {
    let fs = h2(2);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/d")).unwrap();
    fs.quiesce();
    // mw0 creates, both merge, then mw1 deletes and mw0 recreates —
    // delivery order of the final two is scrambled by the pump, but the
    // newer recreate must win deterministically.
    let mut c0 = OpCtx::for_test();
    fs.via(0)
        .write(
            &mut c0,
            "team",
            &p("/d/contested"),
            FileContent::from_str("v1"),
        )
        .unwrap();
    fs.quiesce();
    let mut c1 = OpCtx::for_test();
    fs.via(1)
        .delete_file(&mut c1, "team", &p("/d/contested"))
        .unwrap();
    let mut c0 = OpCtx::for_test();
    // mw0 has not yet heard the delete (it's unmerged on mw1)...
    fs.via(0)
        .write(
            &mut c0,
            "team",
            &p("/d/contested"),
            FileContent::from_str("v2"),
        )
        .unwrap();
    fs.quiesce();
    // Both views agree; hybrid timestamps give a total order. (Which write
    // wins depends on clock interleaving; views must simply agree.)
    let a = listing_on(&fs, 0, &p("/d"));
    let b = listing_on(&fs, 1, &p("/d"));
    assert_eq!(a, b);
}

#[test]
fn gossip_faults_do_not_prevent_convergence() {
    let fs = h2(4);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/lossy")).unwrap();
    fs.layer().pump().unwrap();
    for round in 0..4 {
        for mw in 0..4 {
            let mut ctx = OpCtx::for_test();
            fs.via(mw)
                .write(
                    &mut ctx,
                    "team",
                    &p(&format!("/lossy/r{round}-m{mw}")),
                    FileContent::Simulated(10),
                )
                .unwrap();
        }
        // Drop a third of gossip, duplicate a quarter.
        fs.layer()
            .pump_with_faults(GossipFaults {
                drop_every: 3,
                duplicate_every: 4,
            })
            .unwrap();
    }
    // A final clean pump reconciles whatever the losses left behind.
    fs.layer().pump().unwrap();
    let reference = listing_on(&fs, 0, &p("/lossy"));
    assert_eq!(reference.len(), 16);
    for mw in 1..4 {
        assert_eq!(listing_on(&fs, mw, &p("/lossy")), reference);
    }
}

#[test]
fn threaded_writers_with_threaded_gossip_converge() {
    let fs = Arc::new(h2(3));
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/hot")).unwrap();
    fs.quiesce();
    let gossip = fs.layer().run_threaded();
    std::thread::scope(|scope| {
        for mw in 0..3 {
            let fs = fs.clone();
            scope.spawn(move || {
                let view = fs.via(mw);
                for i in 0..20 {
                    let mut ctx = OpCtx::for_test();
                    view.write(
                        &mut ctx,
                        "team",
                        &p(&format!("/hot/t{mw}-{i:02}")),
                        FileContent::Simulated(64),
                    )
                    .unwrap();
                }
            });
        }
    });
    // All writers are done. Stop the threaded fabric (joins the gossip
    // threads, so every in-flight inbox application has finished) and
    // settle the remainder with the deterministic pump. The threaded phase
    // exercised concurrent gossip under real contention; final convergence
    // must not depend on how the scheduler treated those threads — on a
    // loaded machine they can be starved for minutes, which is exactly the
    // wall-clock flake the old 120 s polling deadline papered over.
    gossip.stop();
    fs.layer().pump().unwrap();
    // Convergence is now deterministic; the deadline is a tight safety net.
    let deadline = h2util::clock::wall_now() + std::time::Duration::from_secs(30);
    loop {
        let views: Vec<usize> = (0..3)
            .map(|mw| listing_on(&fs, mw, &p("/hot")).len())
            .collect();
        if views.iter().all(|&v| v == 60) {
            break;
        }
        assert!(
            h2util::clock::wall_now() < deadline,
            "no convergence; views {views:?}"
        );
        h2util::clock::wall_sleep(std::time::Duration::from_millis(10));
    }
    // And the contents agree everywhere.
    let reference = listing_on(&fs, 0, &p("/hot"));
    for mw in 1..3 {
        assert_eq!(listing_on(&fs, mw, &p("/hot")), reference);
    }
}

#[test]
fn gc_compaction_is_not_resurrected_by_peer_local_rings() {
    // Regression for a tombstone-resurrection hazard: GC compacts a
    // tombstone out of the global ring, but a peer middleware's *local*
    // ring still holds it. That peer's next merge cycle folds its local
    // overlay into the global object — before the fix, the reclaimed
    // tombstone re-entered the ring and GC had to compact it all over
    // again (and a recreate racing that window could be shadowed).
    use h2cloud::H2Keys;
    use h2util::{NamespaceId, NodeId, Timestamp};
    let far_future = Timestamp::new(u64::MAX, 0, NodeId(0));
    let fs = h2(2);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.via(0)
        .write(&mut ctx, "team", &p("/zombie"), FileContent::from_str("z"))
        .unwrap();
    fs.quiesce(); // both middlewares now hold the tuple locally
    fs.via(0)
        .delete_file(&mut ctx, "team", &p("/zombie"))
        .unwrap();
    fs.quiesce(); // ... and now the tombstone
    let report = h2cloud::gc::collect(&fs, &mut ctx, "team", far_future).unwrap();
    assert!(report.tuples_compacted >= 1, "{report:?}");
    // mw1 touches the same ring and merges. Its stale local tombstone must
    // NOT rejoin the global object.
    let mut c1 = OpCtx::for_test();
    fs.via(1)
        .write(&mut c1, "team", &p("/fresh"), FileContent::from_str("f"))
        .unwrap();
    fs.quiesce();
    let keys = H2Keys::new("team");
    let mut c = OpCtx::for_test();
    let global = fs
        .layer()
        .mw(0)
        .fetch_global_ring(&mut c, &keys, NamespaceId::ROOT)
        .unwrap();
    assert!(
        global.get_raw("zombie").is_none(),
        "compacted tombstone resurrected into the global ring"
    );
    // A second pass finds nothing to re-reclaim, and views agree.
    let second = h2cloud::gc::collect(&fs, &mut ctx, "team", far_future).unwrap();
    assert_eq!(second.tuples_compacted, 0, "{second:?}");
    assert_eq!(listing_on(&fs, 0, &p("/")), vec!["fresh"]);
    assert_eq!(listing_on(&fs, 0, &p("/")), listing_on(&fs, 1, &p("/")));
}

#[test]
fn deferred_mode_reads_your_own_writes_before_merge() {
    let fs = h2(2);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    // Written through mw0 and immediately visible there — before any
    // merge/gossip (the File Descriptor Cache overlay).
    let mut c0 = OpCtx::for_test();
    fs.via(0)
        .write(&mut c0, "team", &p("/ryw"), FileContent::from_str("mine"))
        .unwrap();
    assert_eq!(
        fs.via(0).read(&mut c0, "team", &p("/ryw")).unwrap(),
        FileContent::from_str("mine")
    );
    // mw1 does not see it yet (eventual consistency)…
    let mut c1 = OpCtx::for_test();
    assert!(fs.via(1).read(&mut c1, "team", &p("/ryw")).is_err());
    // …until maintenance runs.
    fs.quiesce();
    assert!(fs.via(1).read(&mut c1, "team", &p("/ryw")).is_ok());
}

/// One step of a seeded gossip schedule.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Write `/d{dir}/f{file}` through middleware `mw`.
    Write { mw: usize, dir: usize, file: usize },
    /// Run middleware `mw`'s merger alone; its gossip stays in its outbox.
    Merge(usize),
    /// One pump with these drop/duplicate periods (0 = none).
    Pump(GossipFaults),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let write = || {
        (0usize..3, 0usize..2, 0usize..6).prop_map(|(mw, dir, file)| Step::Write { mw, dir, file })
    };
    // The shim's `prop_oneof!` picks uniformly: writes are half the steps.
    prop_oneof![
        write(),
        write(),
        (0usize..3).prop_map(Step::Merge),
        (0usize..4, 0usize..4).prop_map(|(drop_every, duplicate_every)| {
            Step::Pump(GossipFaults {
                drop_every,
                duplicate_every,
            })
        }),
    ]
}

/// Play `steps` on three Deferred middlewares of `profile`, then run one
/// anti-entropy sweep ([`h2cloud::H2Layer::resync`]): every middleware must
/// then list exactly the names written.
fn schedule_converges(profile: H2Config, steps: &[Step]) -> Result<(), TestCaseError> {
    let fs = H2Cloud::new(H2Config {
        middlewares: 3,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::tiny(),
        ..profile
    });
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    let dirs = [p("/d0"), p("/d1")];
    for dir in &dirs {
        fs.via(0).mkdir(&mut ctx, "team", dir).unwrap();
    }
    fs.layer().pump().unwrap();
    let mut model = [BTreeSet::new(), BTreeSet::new()];
    for &step in steps {
        match step {
            Step::Write { mw, dir, file } => {
                let name = format!("f{file}");
                let path = p(&format!("/d{dir}/{name}"));
                fs.via(mw)
                    .write(&mut ctx, "team", &path, FileContent::Simulated(64))
                    .unwrap();
                model[dir].insert(name);
            }
            Step::Merge(mw) => {
                fs.layer().mw(mw).step_merges();
            }
            Step::Pump(faults) => {
                fs.layer().pump_with_faults(faults).unwrap();
            }
        }
    }
    fs.layer().resync().unwrap();
    for (dir, want) in dirs.iter().zip(&model) {
        let want: Vec<String> = want.iter().cloned().collect();
        for mw in 0..3 {
            prop_assert_eq!(
                listing_on(&fs, mw, dir),
                want.clone(),
                "middleware {} lists {} wrongly after {:?}",
                mw,
                dir,
                steps
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ROADMAP item 15's convergence proof: any interleaving of writes
    // through any middleware, lone merger runs and lossy pumps, settled by
    // one anti-entropy sweep, leaves every middleware listing exactly the
    // names written.
    #[test]
    fn seeded_gossip_schedules_converge_after_resync(
        steps in prop::collection::vec(arb_step(), 1..40),
    ) {
        schedule_converges(H2Config::default(), &steps)?;
    }

    // The same property on the tuned profile fails: see
    // `older_stamped_write_back_reaches_every_ring_cache` for the smallest
    // schedule found.
    #[test]
    #[ignore = "ROADMAP item 11: a ring rewrite does not always advance the gossip version"]
    fn seeded_gossip_schedules_converge_after_resync_tuned(
        steps in prop::collection::vec(arb_step(), 1..40),
    ) {
        schedule_converges(H2Config::tuned(), &steps)?;
    }
}

/// ROADMAP item 11's hole, found by the schedule property on the tuned
/// profile. mw2 has heard mw1's first write, so mw1's second write (`f4`)
/// carries an older stamp than mw2's overwrite of `f3`. The sweep writes
/// `f4` back into the ring object, but the ring's version stays `f3`'s
/// stamp, so middleware 0 drops the notification as stale and its ring
/// cache keeps serving a listing without `f4`. The paper profile has no
/// ring cache: every listing reads the ring object, so the same schedule
/// passes there.
#[test]
#[ignore = "ROADMAP item 11: a ring rewrite does not always advance the gossip version"]
fn older_stamped_write_back_reaches_every_ring_cache() {
    let write = |mw, file| Step::Write { mw, dir: 0, file };
    let steps = [
        write(1, 3),
        Step::Pump(GossipFaults::default()),
        write(2, 3),
        Step::Merge(2),
        write(1, 4),
    ];
    schedule_converges(H2Config::tuned(), &steps).unwrap();
}
