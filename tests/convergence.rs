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

/// The paper profile, Deferred. Gossip's loop-back check compares the write
/// stamp of the ring object, which every rewrite advances — also a merge
/// that folds in writes older than the ring's newest tuple — and gossip
/// that the threaded fabric left queued at its stop stays in the
/// middlewares' inboxes for the next pump.
/// The schedule properties below run both profiles; `tests/chaos.rs` and
/// `tests/prop_equivalence.rs` cover the tuned profile under faults.
fn h2(middlewares: usize) -> H2Cloud {
    h2_in(middlewares, MaintenanceMode::Deferred)
}

/// The paper profile in `mode`.
fn h2_in(middlewares: usize, mode: MaintenanceMode) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares,
        mode,
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

/// Two paper-profile middlewares in `mode` that both know `/d`.
fn two_over_d(mode: MaintenanceMode) -> H2Cloud {
    let fs = h2_in(2, mode);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/d")).unwrap();
    fs.quiesce();
    fs
}

/// Run mw0's clock about fifty ticks ahead of mw1's: fifty writes into
/// `/d` whose gossip mw1 does not hear.
fn run_mw0_ahead(fs: &H2Cloud) {
    let mut ctx = OpCtx::for_test();
    for i in 0..50 {
        let path = p(&format!("/d/w{i}"));
        fs.via(0)
            .write(&mut ctx, "team", &path, FileContent::Simulated(1))
            .unwrap();
    }
}

/// An acknowledged DELETE through a middleware that read the ring from the
/// cloud but missed its gossip. Its tombstone must outrank the tuple it
/// read: stamped from a clock that lags the writer's, it would lose to `f`
/// under last-writer-wins, and the pump would bring `f` back everywhere.
#[test]
fn delete_through_a_middleware_that_missed_the_gossip_sticks() {
    for mode in [MaintenanceMode::Eager, MaintenanceMode::Deferred] {
        let fs = two_over_d(mode);
        run_mw0_ahead(&fs);
        let mut ctx = OpCtx::for_test();
        fs.via(0)
            .write(&mut ctx, "team", &p("/d/f"), FileContent::from_str("f"))
            .unwrap();
        fs.layer().middlewares()[0].step_merges();
        fs.via(1).delete_file(&mut ctx, "team", &p("/d/f")).unwrap();
        fs.quiesce();
        for mw in 0..2 {
            let names = listing_on(&fs, mw, &p("/d"));
            assert!(
                !names.iter().any(|n| n == "f"),
                "{mode:?}: mw {mw} still lists the deleted f"
            );
        }
    }
}

/// The same lag against a peer's newer tombstone: an acknowledged
/// re-create through the lagging middleware must outrank the tombstone it
/// read, or it vanishes on every middleware.
#[test]
fn recreate_over_a_peers_newer_tombstone_sticks() {
    for mode in [MaintenanceMode::Eager, MaintenanceMode::Deferred] {
        let fs = two_over_d(mode);
        let mut ctx = OpCtx::for_test();
        fs.via(0)
            .write(&mut ctx, "team", &p("/d/f"), FileContent::from_str("v1"))
            .unwrap();
        run_mw0_ahead(&fs);
        fs.via(0).delete_file(&mut ctx, "team", &p("/d/f")).unwrap();
        fs.layer().middlewares()[0].step_merges();
        fs.via(1)
            .write(&mut ctx, "team", &p("/d/f"), FileContent::from_str("v2"))
            .unwrap();
        fs.quiesce();
        for mw in 0..2 {
            let names = listing_on(&fs, mw, &p("/d"));
            assert!(
                names.iter().any(|n| n == "f"),
                "{mode:?}: mw {mw} lost the re-created f"
            );
        }
    }
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

    // The same property on the tuned profile, whose ring caches trust the
    // loop-back check: `older_stamped_write_back_reaches_every_ring_cache`
    // pins the smallest schedule that once broke it.
    #[test]
    fn seeded_gossip_schedules_converge_after_resync_tuned(
        steps in prop::collection::vec(arb_step(), 1..40),
    ) {
        schedule_converges(H2Config::tuned(), &steps)?;
    }
}

/// Found by the schedule property on the tuned profile. mw2 has heard
/// mw1's first write, so mw1's second write (`f4`) carries an older tuple
/// timestamp than mw2's overwrite of `f3`. The sweep writes `f4` back into
/// the ring object without raising the ring's newest tuple timestamp, so a
/// loop-back check on that timestamp let middleware 0 drop the notification
/// as stale, and its ring cache kept serving a listing without `f4`. The
/// object's write stamp does advance, so the notification is news.
#[test]
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

/// The tuned profile on two Deferred middlewares, with the indices of the
/// middleware `team` is routed to (the sticky one, through which bulk
/// import and GC run) and of its peer.
fn tuned_pair() -> (H2Cloud, usize, usize) {
    let fs = H2Cloud::new(H2Config {
        middlewares: 2,
        mode: MaintenanceMode::Deferred,
        ..H2Config::for_test()
    });
    let layer = fs.layer();
    let sticky = layer
        .middlewares()
        .iter()
        .position(|mw| Arc::ptr_eq(mw, layer.mw_for_account("team")))
        .unwrap();
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/d")).unwrap();
    layer.pump().unwrap();
    (fs, sticky, 1 - sticky)
}

/// Bulk import rewrites the ring of an existing directory; the rewrite is
/// announced like any other, so a peer that cached the directory hears of
/// it in one clean pump.
#[test]
fn bulk_import_into_a_directory_a_peer_cached_reaches_the_peer() {
    let (fs, _, peer) = tuned_pair();
    assert!(listing_on(&fs, peer, &p("/d")).is_empty());
    let mut ctx = OpCtx::for_test();
    fs.bulk_import(&mut ctx, "team", &[], &[(p("/d/x"), 1)])
        .unwrap();
    fs.layer().pump().unwrap();
    assert_eq!(listing_on(&fs, peer, &p("/d")), vec!["x"]);
}

/// A peer's ring cycle on `/d` fetched before bulk import's tuple was
/// merged into the ring object and writes its join back after, without
/// it (the hiding PUT below). The importer keeps the tuple in the
/// descriptor its patch made, so hearing the peer's stamp makes it write
/// back a join that restores it, and both middlewares list it.
#[test]
fn bulk_import_overwritten_by_a_peers_stale_write_back_is_restored() {
    use h2cloud::middleware::GossipMsg;
    use h2cloud::{formatter, NameRing, Tuple};
    use h2util::NamespaceId;
    use swiftsim::{Meta, Payload};
    let (fs, sticky, peer) = tuned_pair();
    assert!(listing_on(&fs, peer, &p("/d")).is_empty());
    let mut ctx = OpCtx::for_test();
    fs.bulk_import(&mut ctx, "team", &[], &[(p("/d/x"), 1)])
        .unwrap();
    let mws = fs.layer().middlewares();
    let keys = h2cloud::H2Keys::new("team");
    let d = mws[sticky]
        .get_descriptor(&mut ctx, &keys, NamespaceId::ROOT, "d")
        .unwrap()
        .ns;
    mws[sticky].step_merges();
    // The peer's join: the ring it fetched before the merge, plus its own
    // update `y`, written after the merge and announced to the importer.
    let mut stale = NameRing::new();
    stale.apply("y", Tuple::file(mws[peer].tick(), 1));
    let body = Payload::from_string(formatter::namering_to_string(&stale));
    let stamp = fs
        .cluster()
        .put_stamped(&mut ctx, &keys.namering(d), body, Meta::new())
        .unwrap();
    mws[sticky].deliver(GossipMsg {
        account: "team".into(),
        ns: d,
        stamp,
    });
    fs.layer().pump().unwrap();
    fs.layer().pump().unwrap();
    for mw in [sticky, peer] {
        assert_eq!(
            listing_on(&fs, mw, &p("/d")),
            vec!["x", "y"],
            "middleware {mw}"
        );
    }
}

/// A resolve-path fetch caches a copy without folding it into the
/// descriptor. Here the copy is a peer's stale write-back (the hiding PUT
/// below), which dropped the sticky middleware's merged `x`; the sticky
/// middleware re-caches it after `invalidate_ring` and lists `/d` from it.
/// The peer's announcement must still be news: the descriptor has heard
/// only its own write, whatever stamp the cached copy carries. So the
/// sticky middleware writes back its join, and both middlewares list `x`
/// and `y`. Were the two stamps merged into one, `x` would be lost from
/// the cloud.
#[test]
fn a_stale_write_back_a_read_re_cached_is_still_news() {
    use h2cloud::middleware::GossipMsg;
    use h2cloud::{formatter, NameRing, Tuple};
    use h2util::NamespaceId;
    use swiftsim::{Meta, Payload};
    let (fs, sticky, peer) = tuned_pair();
    let mut ctx = OpCtx::for_test();
    fs.via(sticky)
        .write(&mut ctx, "team", &p("/d/x"), FileContent::from_str("x"))
        .unwrap();
    let mws = fs.layer().middlewares();
    mws[sticky].step_merges();
    let keys = h2cloud::H2Keys::new("team");
    let d = mws[sticky]
        .get_descriptor(&mut ctx, &keys, NamespaceId::ROOT, "d")
        .unwrap()
        .ns;
    let mut stale = NameRing::new();
    stale.apply("y", Tuple::file(mws[peer].tick(), 1));
    let body = Payload::from_string(formatter::namering_to_string(&stale));
    let stamp = fs
        .cluster()
        .put_stamped(&mut ctx, &keys.namering(d), body, Meta::new())
        .unwrap();
    mws[sticky].invalidate_ring("team", d);
    assert_eq!(listing_on(&fs, sticky, &p("/d")), vec!["x", "y"]);
    mws[sticky].deliver(GossipMsg {
        account: "team".into(),
        ns: d,
        stamp,
    });
    fs.layer().pump().unwrap();
    fs.layer().pump().unwrap();
    for mw in [sticky, peer] {
        assert_eq!(
            listing_on(&fs, mw, &p("/d")),
            vec!["x", "y"],
            "middleware {mw}"
        );
    }
}

/// GC compacts `/d` from the sticky middleware's cached copy, which missed
/// the peer's write of `f1`, so the compacted object lacks `f1`. The
/// compaction is announced: the peer hears a stamp above its own, writes
/// back its join, and both middlewares list `f1` after two clean pumps —
/// no resync needed.
#[test]
fn gc_compaction_from_a_stale_cache_keeps_a_peers_write() {
    use h2util::{NodeId, Timestamp};
    let (fs, sticky, peer) = tuned_pair();
    let mut ctx = OpCtx::for_test();
    let f0 = p("/d/f0");
    fs.via(sticky)
        .write(&mut ctx, "team", &f0, FileContent::from_str("0"))
        .unwrap();
    fs.via(sticky).delete_file(&mut ctx, "team", &f0).unwrap();
    fs.layer().pump().unwrap();
    assert!(listing_on(&fs, sticky, &p("/d")).is_empty());
    fs.via(peer)
        .write(&mut ctx, "team", &p("/d/f1"), FileContent::from_str("1"))
        .unwrap();
    let drop_all = GossipFaults {
        drop_every: 1,
        duplicate_every: 0,
    };
    fs.layer().pump_with_faults(drop_all).unwrap();
    let horizon = Timestamp::new(u64::MAX, 0, NodeId(0));
    let report = h2cloud::gc::collect(&fs, &mut ctx, "team", horizon).unwrap();
    assert_eq!(report.tuples_compacted, 1, "{report:?}");
    fs.layer().pump().unwrap();
    fs.layer().pump().unwrap();
    for mw in [sticky, peer] {
        assert_eq!(listing_on(&fs, mw, &p("/d")), vec!["f1"], "middleware {mw}");
    }
}

/// GC must not undo an acknowledged DELETE. The peer writes `/d/f`, and
/// after a pump its local version holds `f` live. The sticky middleware
/// deletes `f` and merges; GC compacts the tombstone while the merge's
/// announcement is still queued, or after it was lost. GC's floor drops
/// from the peer's local version the live tuple the compacted tombstone
/// covers, so when the peer absorbs the compaction it does not put `f`
/// back — live, with its content reclaimed. On the paper and the tuned
/// profile.
#[test]
fn gc_does_not_undo_an_acknowledged_delete() {
    use h2util::{NodeId, Timestamp};
    let far_future = Timestamp::new(u64::MAX, 0, NodeId(0));
    for (profile, config) in [("paper", H2Config::default()), ("tuned", H2Config::tuned())] {
        for lost in [false, true] {
            let case = format!("{profile}, announcement lost: {lost}");
            let fs = H2Cloud::new(H2Config {
                middlewares: 2,
                mode: MaintenanceMode::Deferred,
                cluster: ClusterConfig::tiny(),
                ..config.clone()
            });
            let layer = fs.layer();
            let mws = layer.middlewares();
            let sticky = mws
                .iter()
                .position(|mw| Arc::ptr_eq(mw, layer.mw_for_account("team")))
                .unwrap();
            let peer = 1 - sticky;
            let mut ctx = OpCtx::for_test();
            fs.create_account(&mut ctx, "team").unwrap();
            fs.mkdir(&mut ctx, "team", &p("/d")).unwrap();
            layer.pump().unwrap();
            let f = p("/d/f");
            fs.via(peer)
                .write(&mut ctx, "team", &f, FileContent::from_str("f"))
                .unwrap();
            layer.pump().unwrap();
            fs.via(sticky).delete_file(&mut ctx, "team", &f).unwrap();
            mws[sticky].step_merges();
            if lost {
                mws[sticky].take_outbox();
            }
            let report = h2cloud::gc::collect(&fs, &mut ctx, "team", far_future).unwrap();
            assert_eq!(report.tuples_compacted, 1, "{case}: {report:?}");
            for _ in 0..3 {
                layer.pump().unwrap();
            }
            for mw in [sticky, peer] {
                let listed = listing_on(&fs, mw, &p("/d"));
                assert!(
                    listed.is_empty(),
                    "{case}: middleware {mw} lists {listed:?}"
                );
            }
            let fsck = h2cloud::check::fsck(&fs, &mut ctx, "team").unwrap();
            assert!(fsck.is_clean(), "{case}: {:?}", fsck.violations);
        }
    }
}

/// GC's floor holds against a node's own pending patch. The peer's
/// overwrite of `/d/f` stays in its chain while the sticky middleware, its
/// clock well ahead, deletes `f` and GC compacts the tombstone and floors
/// the peer's local version. The peer's next merge cycle must not fold its
/// patch object back in and write `f` back live, with its content
/// reclaimed. On the paper and the tuned profile.
#[test]
fn gc_floor_holds_against_a_pending_patch() {
    use h2util::{NodeId, Timestamp};
    let far_future = Timestamp::new(u64::MAX, 0, NodeId(0));
    for (profile, config) in [("paper", H2Config::default()), ("tuned", H2Config::tuned())] {
        let fs = H2Cloud::new(H2Config {
            middlewares: 2,
            mode: MaintenanceMode::Deferred,
            cluster: ClusterConfig::tiny(),
            ..config
        });
        let layer = fs.layer();
        let mws = layer.middlewares();
        let sticky = mws
            .iter()
            .position(|mw| Arc::ptr_eq(mw, layer.mw_for_account("team")))
            .unwrap();
        let peer = 1 - sticky;
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "team").unwrap();
        fs.mkdir(&mut ctx, "team", &p("/d")).unwrap();
        let f = p("/d/f");
        fs.via(sticky)
            .write(&mut ctx, "team", &f, FileContent::from_str("f"))
            .unwrap();
        layer.pump().unwrap();
        fs.via(peer)
            .write(&mut ctx, "team", &f, FileContent::from_str("g"))
            .unwrap();
        for _ in 0..50 {
            mws[sticky].tick();
        }
        fs.via(sticky).delete_file(&mut ctx, "team", &f).unwrap();
        mws[sticky].step_merges();
        let report = h2cloud::gc::collect(&fs, &mut ctx, "team", far_future).unwrap();
        assert_eq!(report.tuples_compacted, 1, "{profile}: {report:?}");
        for _ in 0..3 {
            layer.pump().unwrap();
        }
        for mw in [sticky, peer] {
            let listed = listing_on(&fs, mw, &p("/d"));
            assert!(
                listed.is_empty(),
                "{profile}: middleware {mw} lists {}",
                listed.join(", ")
            );
        }
        let fsck = h2cloud::check::fsck(&fs, &mut ctx, "team").unwrap();
        assert!(fsck.is_clean(), "{profile}: {:?}", fsck.violations);
    }
}
