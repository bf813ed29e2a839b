//! Property-based adversarial equivalence: *arbitrary* operation sequences
//! (mostly invalid!) must produce identical outcomes on the reference
//! model, H2Cloud and Swift — and H2Cloud's on-cloud representation must
//! pass fsck afterwards no matter what was thrown at it.

use proptest::prelude::*;

use h2baselines::SwiftFs;
use h2cloud::check::fsck;
use h2cloud::layer::GossipFaults;
use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::{CloudFs, FsPath};
use h2util::OpCtx;
use h2workload::{ModelFs, Op, Trace};
use swiftsim::{Cluster, ClusterConfig};

/// Small path universe: names from a 4-letter alphabet, depth ≤ 3 — dense
/// enough that random ops frequently collide, alias and conflict.
fn arb_path() -> impl Strategy<Value = FsPath> {
    prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "d"]), 0..4)
        .prop_map(|parts| FsPath::from_components(parts).expect("letters are valid names"))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_path().prop_map(Op::Mkdir),
        arb_path().prop_map(Op::Rmdir),
        (arb_path(), 0u64..10_000).prop_map(|(p, s)| Op::Write(p, s)),
        arb_path().prop_map(Op::Read),
        arb_path().prop_map(Op::Delete),
        (arb_path(), arb_path()).prop_map(|(a, b)| Op::Mv(a, b)),
        (arb_path(), arb_path()).prop_map(|(a, b)| Op::Copy(a, b)),
        arb_path().prop_map(Op::List),
        arb_path().prop_map(Op::ListDetailed),
        arb_path().prop_map(Op::Stat),
    ]
}

/// Multi-middleware Deferred-mode H2Cloud with the given NameRing cache
/// capacity and trace sampling rate — everything else identical, so any
/// observable difference between two instances is that knob's fault.
fn h2_deferred(cache_capacity: usize, trace_sample: f64) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares: 3,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::tiny(),
        cache_capacity,
        trace_sample,
        ..H2Config::default()
    })
}

/// Multi-middleware Deferred-mode H2Cloud differing only in the
/// group-commit knob (cache and tracing off).
fn h2_deferred_commit(group_commit: bool) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares: 3,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::tiny(),
        cache_capacity: 0,
        trace_sample: 0.0,
        group_commit,
        path_cache: false,
        neg_cache: false,
        hedged_reads: false,
        cas: false,
    })
}

/// Ring-cache capacities the read-path equivalence runs at. 512 rings is
/// far beyond the proptest path universe, so eviction never enters the
/// picture and the argument is about invalidation alone. 8 rings is one per
/// cache stripe: rings are evicted and refetched all the time, so a path
/// entry routinely outlives the ring it was built from, and the rule that
/// a refetch bringing back the same write stamp invalidates nothing runs
/// under the property too.
const READOPT_CAPACITIES: [usize; 2] = [512, 8];

/// Multi-middleware Deferred-mode H2Cloud differing only in the read-path
/// knobs (full-path cache, negative cache, hedged reads).
fn h2_deferred_readopt(on: bool, cache_capacity: usize) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares: 3,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::tiny(),
        cache_capacity,
        trace_sample: 0.0,
        group_commit: false,
        path_cache: on,
        neg_cache: on,
        hedged_reads: on,
        cas: false,
    })
}

/// Multi-middleware Deferred-mode H2Cloud differing only in the CAS
/// content-plane knob: one chunks every file into content-addressed,
/// refcounted blocks, the other stores whole content objects. Storage
/// layout is the one thing a filesystem client must never observe.
fn h2_deferred_cas(cas: bool) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares: 3,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::tiny(),
        cache_capacity: 0,
        trace_sample: 0.0,
        group_commit: false,
        path_cache: false,
        neg_cache: false,
        hedged_reads: false,
        cas,
    })
}

/// The base op universe plus the content-churn ops the CAS plane exists
/// for: overwrites, growing appends and shared-content uploads. Sizes span
/// sub-chunk to multi-chunk so both single-leaf and branch-bearing trees
/// come up.
fn arb_op_cas() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` picks uniformly, so the base universe is
    // listed four times to keep content churn at ~3/7 of the mix.
    prop_oneof![
        arb_op(),
        arb_op(),
        arb_op(),
        arb_op(),
        (arb_path(), 0u64..3_000_000).prop_map(|(p, s)| Op::Overwrite(p, s)),
        (arb_path(), 1u64..3_000_000).prop_map(|(p, s)| Op::Append(p, s)),
        (arb_path(), 0u64..4, 1u64..2_000_000).prop_map(|(p, seed, s)| Op::WriteShared(p, s, seed)),
    ]
}

/// Flatten the whole tree (paths, kinds, file sizes) into a sorted,
/// comparable snapshot.
fn tree_snapshot(fs: &dyn CloudFs, account: &str) -> Vec<String> {
    let mut ctx = OpCtx::for_test();
    let mut out = Vec::new();
    let mut stack = vec![FsPath::root()];
    while let Some(dir) = stack.pop() {
        let mut entries = fs
            .list_detailed(&mut ctx, account, &dir)
            .unwrap_or_else(|e| panic!("LIST {dir} failed: {e}"));
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for e in entries {
            if e.kind == h2fsapi::EntryKind::Directory {
                out.push(format!("{dir} {} dir", e.name));
                stack.push(dir.child(&e.name).expect("valid name"));
            } else {
                out.push(format!("{dir} {} file {}", e.name, e.size));
            }
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_op_sequences_agree_and_leave_h2_consistent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        let h2 = H2Cloud::new(H2Config::for_test());
        let swift = SwiftFs::new(Cluster::new(ClusterConfig::tiny()), true);
        let mut ctx = OpCtx::for_test();
        h2.create_account(&mut ctx, "u").unwrap();
        swift.create_account(&mut ctx, "u").unwrap();
        let mut model = ModelFs::new();

        for op in &ops {
            let want = Trace::apply_model(&mut model, op);
            for (fs, label) in [(&h2 as &dyn CloudFs, "h2"), (&swift, "swift")] {
                let got = Trace::apply_fs(fs, &mut ctx, "u", op);
                match (&want, &got) {
                    (Ok(()), Ok(())) => {}
                    (Err(e), Err(g)) => prop_assert_eq!(
                        e.class(), g.class(),
                        "{}: {:?}: {} vs {}", label, op, e, g
                    ),
                    _ => prop_assert!(
                        false,
                        "{}: {:?} diverged: model={:?} fs={:?}", label, op, want, got
                    ),
                }
            }
        }

        // Final trees agree with the model.
        let mut want_root = model.list(&FsPath::root()).unwrap();
        want_root.sort();
        for (fs, label) in [(&h2 as &dyn CloudFs, "h2"), (&swift, "swift")] {
            let mut got = fs.list(&mut ctx, "u", &FsPath::root()).unwrap();
            got.sort();
            prop_assert_eq!(&got, &want_root, "{} final root listing", label);
        }

        // However hostile the sequence, H2's representation is consistent.
        let report = fsck(&h2, &mut ctx, "u").unwrap();
        prop_assert!(report.is_clean(), "fsck violations: {:?}", report.violations);
    }

    #[test]
    fn namering_cache_is_observably_transparent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        // Same random sequence against a cache-on and a cache-off H2Cloud —
        // three middlewares, Deferred maintenance, gossip pumped with drops
        // and duplicates mid-sequence. Clients go through the sticky
        // `CloudFs` routing (one middleware per account), which is exactly
        // the regime where the per-middleware cache must be invisible:
        // every outcome, error class and final tree must match the
        // uncached instance's.
        let cached = h2_deferred(64, 0.0);
        let plain = h2_deferred(0, 0.0);
        let mut ctx = OpCtx::for_test();
        cached.create_account(&mut ctx, "u").unwrap();
        plain.create_account(&mut ctx, "u").unwrap();

        for (i, op) in ops.iter().enumerate() {
            let with_cache = Trace::apply_fs(&cached, &mut ctx, "u", op);
            let without = Trace::apply_fs(&plain, &mut ctx, "u", op);
            match (&with_cache, &without) {
                (Ok(()), Ok(())) => {}
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.class(), b.class(),
                    "{:?}: cached={} plain={}", op, a, b
                ),
                _ => prop_assert!(
                    false,
                    "{:?} diverged: cached={:?} plain={:?}", op, with_cache, without
                ),
            }
            // Periodically run lossy gossip on both instances: a third of
            // notifications dropped, a quarter duplicated.
            if i % 3 == 2 {
                for fs in [&cached, &plain] {
                    fs.layer()
                        .pump_with_faults(GossipFaults {
                            drop_every: 3,
                            duplicate_every: 4,
                        })
                        .unwrap();
                }
            }
        }

        // Drain maintenance on both; observable state must be identical.
        cached.quiesce();
        plain.quiesce();
        prop_assert_eq!(
            tree_snapshot(&cached, "u"),
            tree_snapshot(&plain, "u"),
            "cache changed the observable filesystem"
        );
        // And the cached instance's on-cloud representation is consistent.
        let report = fsck(&cached, &mut ctx, "u").unwrap();
        prop_assert!(report.is_clean(), "fsck violations: {:?}", report.violations);
    }

    #[test]
    fn group_commit_is_observably_transparent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        // Same random sequence against a group-commit and a direct-submit
        // H2Cloud — three middlewares, Deferred maintenance, gossip pumped
        // with drops and duplicates mid-sequence. Group commit changes HOW
        // patches reach the cloud (one combined object per batch, a
        // contiguous patch-number range) but must not change WHAT any
        // client observes: every ack, error class and final tree must
        // match the direct instance's.
        let grouped = h2_deferred_commit(true);
        let direct = h2_deferred_commit(false);
        let mut ctx = OpCtx::for_test();
        grouped.create_account(&mut ctx, "u").unwrap();
        direct.create_account(&mut ctx, "u").unwrap();

        for (i, op) in ops.iter().enumerate() {
            let with_gc = Trace::apply_fs(&grouped, &mut ctx, "u", op);
            let without = Trace::apply_fs(&direct, &mut ctx, "u", op);
            match (&with_gc, &without) {
                (Ok(()), Ok(())) => {}
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.class(), b.class(),
                    "{:?}: grouped={} direct={}", op, a, b
                ),
                _ => prop_assert!(
                    false,
                    "{:?} diverged: grouped={:?} direct={:?}", op, with_gc, without
                ),
            }
            if i % 3 == 2 {
                for fs in [&grouped, &direct] {
                    fs.layer()
                        .pump_with_faults(GossipFaults {
                            drop_every: 3,
                            duplicate_every: 4,
                        })
                        .unwrap();
                }
            }
        }

        grouped.quiesce();
        direct.quiesce();
        prop_assert_eq!(
            tree_snapshot(&grouped, "u"),
            tree_snapshot(&direct, "u"),
            "group commit changed the observable filesystem"
        );
        let report = fsck(&grouped, &mut ctx, "u").unwrap();
        prop_assert!(report.is_clean(), "fsck violations: {:?}", report.violations);
    }

    #[test]
    fn read_path_caches_are_observably_transparent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        // Same random sequence against a read-path-optimised (full-path
        // cache + negative cache + hedged reads) and a plain H2Cloud —
        // three middlewares, Deferred maintenance, gossip pumped with
        // drops and duplicates mid-sequence. The caches change how a
        // resolve is *answered*, never what it answers: every outcome,
        // error class and final tree must match the plain instance's,
        // including NotFound results served from the negative cache.
        for capacity in READOPT_CAPACITIES {
            let opt = h2_deferred_readopt(true, capacity);
            let plain = h2_deferred_readopt(false, capacity);
            let mut ctx = OpCtx::for_test();
            opt.create_account(&mut ctx, "u").unwrap();
            plain.create_account(&mut ctx, "u").unwrap();

            for (i, op) in ops.iter().enumerate() {
                let with_opt = Trace::apply_fs(&opt, &mut ctx, "u", op);
                let without = Trace::apply_fs(&plain, &mut ctx, "u", op);
                match (&with_opt, &without) {
                    (Ok(()), Ok(())) => {}
                    (Err(a), Err(b)) => prop_assert_eq!(
                        a.class(), b.class(),
                        "{:?}: optimised={} plain={}", op, a, b
                    ),
                    _ => prop_assert!(
                        false,
                        "{:?} diverged: optimised={:?} plain={:?}", op, with_opt, without
                    ),
                }
                if i % 3 == 2 {
                    for fs in [&opt, &plain] {
                        fs.layer()
                            .pump_with_faults(GossipFaults {
                                drop_every: 3,
                                duplicate_every: 4,
                            })
                            .unwrap();
                    }
                }
            }

            opt.quiesce();
            plain.quiesce();
            prop_assert_eq!(
                tree_snapshot(&opt, "u"),
                tree_snapshot(&plain, "u"),
                "read-path caches changed the observable filesystem"
            );
            let report = fsck(&opt, &mut ctx, "u").unwrap();
            prop_assert!(report.is_clean(), "fsck violations: {:?}", report.violations);
        }
    }

    #[test]
    fn cas_plane_is_observably_transparent(
        ops in prop::collection::vec(arb_op_cas(), 1..60)
    ) {
        // Same random sequence — including overwrites, appends and
        // shared-content uploads — against a CAS-chunking and a
        // whole-object H2Cloud, three middlewares, Deferred maintenance,
        // gossip pumped with drops and duplicates mid-sequence. The CAS
        // plane rearranges how bytes live in the cloud (chunked,
        // deduplicated, refcounted) but must not change anything a client
        // can observe: every outcome, error class and final tree must
        // match the whole-object instance's.
        let cas = h2_deferred_cas(true);
        let plain = h2_deferred_cas(false);
        let mut ctx = OpCtx::for_test();
        cas.create_account(&mut ctx, "u").unwrap();
        plain.create_account(&mut ctx, "u").unwrap();

        for (i, op) in ops.iter().enumerate() {
            let with_cas = Trace::apply_fs(&cas, &mut ctx, "u", op);
            let without = Trace::apply_fs(&plain, &mut ctx, "u", op);
            match (&with_cas, &without) {
                (Ok(()), Ok(())) => {}
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.class(), b.class(),
                    "{:?}: cas={} plain={}", op, a, b
                ),
                _ => prop_assert!(
                    false,
                    "{:?} diverged: cas={:?} plain={:?}", op, with_cas, without
                ),
            }
            if i % 3 == 2 {
                for fs in [&cas, &plain] {
                    fs.layer()
                        .pump_with_faults(GossipFaults {
                            drop_every: 3,
                            duplicate_every: 4,
                        })
                        .unwrap();
                }
            }
        }

        cas.quiesce();
        plain.quiesce();
        prop_assert_eq!(
            tree_snapshot(&cas, "u"),
            tree_snapshot(&plain, "u"),
            "the CAS plane changed the observable filesystem"
        );
        let report = fsck(&cas, &mut ctx, "u").unwrap();
        prop_assert!(report.is_clean(), "fsck violations: {:?}", report.violations);
    }

    #[test]
    fn tracing_is_observably_transparent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        // Same random sequence against a trace-everything and a trace-off
        // H2Cloud (both with the NameRing cache on, gossip pumped lossily
        // mid-sequence). Spans observe virtual time but never charge it,
        // so every ack, error class, listing and final tree must be
        // identical — tracing is pure observation.
        let traced = h2_deferred(64, 1.0);
        let silent = h2_deferred(64, 0.0);
        let mut ctx = OpCtx::for_test();
        traced.create_account(&mut ctx, "u").unwrap();
        silent.create_account(&mut ctx, "u").unwrap();

        for (i, op) in ops.iter().enumerate() {
            let with_trace = Trace::apply_fs(&traced, &mut ctx, "u", op);
            let without = Trace::apply_fs(&silent, &mut ctx, "u", op);
            match (&with_trace, &without) {
                (Ok(()), Ok(())) => {}
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.class(), b.class(),
                    "{:?}: traced={} silent={}", op, a, b
                ),
                _ => prop_assert!(
                    false,
                    "{:?} diverged: traced={:?} silent={:?}", op, with_trace, without
                ),
            }
            if i % 3 == 2 {
                for fs in [&traced, &silent] {
                    fs.layer()
                        .pump_with_faults(GossipFaults {
                            drop_every: 3,
                            duplicate_every: 4,
                        })
                        .unwrap();
                }
            }
        }

        traced.quiesce();
        silent.quiesce();
        prop_assert_eq!(
            tree_snapshot(&traced, "u"),
            tree_snapshot(&silent, "u"),
            "tracing changed the observable filesystem"
        );
        // Sampling at 1.0 really did collect something: every client op
        // went through a middleware whose collector kept its root span.
        let collected = traced.recent_traces(usize::MAX);
        prop_assert!(
            !collected.is_empty(),
            "trace_sample = 1.0 collected no traces over {} ops", ops.len()
        );
        let report = fsck(&traced, &mut ctx, "u").unwrap();
        prop_assert!(report.is_clean(), "fsck violations: {:?}", report.violations);
    }

    #[test]
    fn h2_gc_after_arbitrary_ops_preserves_live_tree(
        ops in prop::collection::vec(arb_op(), 1..40)
    ) {
        let h2 = H2Cloud::new(H2Config::for_test());
        let mut ctx = OpCtx::for_test();
        h2.create_account(&mut ctx, "u").unwrap();
        let mut model = ModelFs::new();
        for op in &ops {
            let want = Trace::apply_model(&mut model, op);
            let got = Trace::apply_fs(&h2, &mut ctx, "u", op);
            prop_assert_eq!(want.is_ok(), got.is_ok());
        }
        let before = fsck(&h2, &mut ctx, "u").unwrap();
        h2cloud::gc::collect(
            &h2,
            &mut ctx,
            "u",
            h2util::Timestamp::new(u64::MAX, 0, h2util::NodeId(0)),
        )
        .unwrap();
        let after = fsck(&h2, &mut ctx, "u").unwrap();
        prop_assert!(after.is_clean(), "{:?}", after.violations);
        // GC removes tombstones, never live entries.
        prop_assert_eq!(after.dirs, before.dirs);
        prop_assert_eq!(after.files, before.files);
        prop_assert_eq!(after.tombstones, 0);
        // Every live model file still reads correctly.
        for (path, size) in model.all_files() {
            let st = h2.stat(&mut ctx, "u", &path).unwrap();
            prop_assert_eq!(st.size, size);
        }
    }

    #[test]
    fn mid_workload_rebalance_is_observably_transparent(
        ops in prop::collection::vec(arb_op(), 8..60)
    ) {
        // Same random sequence against a topology-stable instance and one
        // whose ring is rebalanced LIVE mid-sequence: a device is added a
        // third of the way in with the migrator deliberately throttled (a
        // few partitions per client op, so most ops run against a
        // partially-moved ring), and a founding device is drained two
        // thirds of the way in. Placement is the one thing a filesystem
        // client must never observe: every ack, every error class and the
        // final tree must match the stable instance's exactly.
        let moving = h2_deferred(0, 0.0);
        let stable = h2_deferred(0, 0.0);
        let mut ctx = OpCtx::for_test();
        moving.create_account(&mut ctx, "u").unwrap();
        stable.create_account(&mut ctx, "u").unwrap();

        let add_at = ops.len() / 3;
        let drain_at = 2 * ops.len() / 3;
        for (i, op) in ops.iter().enumerate() {
            if i == add_at {
                // Swap the ring but do NOT finish the migration: the next
                // stretch of ops interleaves with pending partitions,
                // exercising dual-apply writes and old-assignment reads.
                moving.cluster().add_node(0, 1.0).unwrap();
            }
            if i == drain_at {
                moving.cluster().migrate_all();
                moving.layer().drain_node(0, 4).unwrap();
            }
            let on_moving = Trace::apply_fs(&moving, &mut ctx, "u", op);
            let on_stable = Trace::apply_fs(&stable, &mut ctx, "u", op);
            match (&on_moving, &on_stable) {
                (Ok(()), Ok(())) => {}
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.class(), b.class(),
                    "{:?}: moving={} stable={}", op, a, b
                ),
                _ => prop_assert!(
                    false,
                    "{:?} diverged: moving={:?} stable={:?}", op, on_moving, on_stable
                ),
            }
            // Trickle the migrator between ops, a few partitions at a time.
            if i > add_at {
                moving.cluster().migrate_step(4);
            }
            if i % 5 == 4 {
                moving.layer().pump().unwrap();
                stable.layer().pump().unwrap();
            }
        }

        // Let movement finish, then settle both instances.
        moving.cluster().migrate_all();
        prop_assert!(
            !moving.cluster().migration_active(),
            "healthy devices only — migration must complete"
        );
        moving.layer().resync().unwrap();
        moving.quiesce();
        stable.quiesce();
        prop_assert_eq!(
            tree_snapshot(&moving, "u"),
            tree_snapshot(&stable, "u"),
            "live rebalance changed the observable filesystem"
        );
        let report = fsck(&moving, &mut ctx, "u").unwrap();
        prop_assert!(report.is_clean(), "fsck violations: {:?}", report.violations);
    }
}

#[test]
fn batched_gossip_apply_loses_nothing_under_5pct_faults() {
    use h2util::faults::{FaultPlan, FaultSpec};

    // Two identical Deferred instances build the same tree through all
    // three middlewares (so convergence genuinely rides on gossip), then
    // run maintenance under 5% transient faults — one applying gossip
    // per-message, the other in batches. Batching must lose nothing: after
    // the faults clear, every middleware on both instances holds the same
    // tree.
    let per_msg = h2_deferred_commit(false);
    let batched = h2_deferred_commit(true);
    let mut ctx = OpCtx::for_test();
    for fs in [&per_msg, &batched] {
        fs.create_account(&mut ctx, "u").unwrap();
        for (i, d) in ["a", "b", "c"].iter().enumerate() {
            let view = fs.via(i);
            let dir = FsPath::parse(&format!("/{d}")).unwrap();
            view.mkdir(&mut ctx, "u", &dir).unwrap();
            for f in 0..4 {
                let file = FsPath::parse(&format!("/{d}/f{f}")).unwrap();
                view.write(&mut ctx, "u", &file, h2fsapi::FileContent::Simulated(64))
                    .unwrap();
            }
        }
    }

    let spec = FaultSpec::errors(0.05);
    for fs in [&per_msg, &batched] {
        fs.cluster()
            .set_fault_plan(Some(FaultPlan::uniform(0xBA7C4ED, spec)));
    }
    // Maintenance under fire: rounds may error out once a message burns
    // its whole retry budget — state is still never lost, so keep going.
    for _ in 0..6 {
        let _ = per_msg.layer().pump();
        let _ = batched.layer().pump_batched();
    }
    for fs in [&per_msg, &batched] {
        fs.cluster().set_fault_plan(None);
    }
    per_msg.layer().pump().unwrap();
    batched.layer().pump_batched().unwrap();

    let want = tree_snapshot(&per_msg, "u");
    assert_eq!(want.len(), 3 + 12, "per-message instance lost writes");
    assert_eq!(
        tree_snapshot(&batched, "u"),
        want,
        "batched apply diverged from per-message apply"
    );
    for i in 0..3 {
        assert_eq!(
            tree_snapshot(&per_msg.via(i), "u"),
            want,
            "per-message middleware {i} diverged"
        );
        assert_eq!(
            tree_snapshot(&batched.via(i), "u"),
            want,
            "batched middleware {i} diverged"
        );
    }
    let report = fsck(&batched, &mut ctx, "u").unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn read_path_caches_lose_nothing_under_5pct_faults() {
    for capacity in READOPT_CAPACITIES {
        read_path_caches_under_5pct_faults(capacity);
    }
}

fn read_path_caches_under_5pct_faults(cache_capacity: usize) {
    use h2util::faults::{FaultPlan, FaultSpec};

    // Chaos leg for the read-path caches: an optimised and a plain
    // instance build the same tree through all three middlewares, then run
    // gossip maintenance under 5% transient faults *and* lossy delivery.
    // Once the faults clear, every middleware on both instances must hold
    // the identical tree — a cache that served anything stale past
    // convergence would show up as a diverged snapshot here.
    let opt = h2_deferred_readopt(true, cache_capacity);
    let plain = h2_deferred_readopt(false, cache_capacity);
    let mut ctx = OpCtx::for_test();
    for fs in [&opt, &plain] {
        fs.create_account(&mut ctx, "u").unwrap();
        for (i, d) in ["a", "b", "c"].iter().enumerate() {
            let view = fs.via(i);
            let dir = FsPath::parse(&format!("/{d}")).unwrap();
            view.mkdir(&mut ctx, "u", &dir).unwrap();
            for f in 0..4 {
                let file = FsPath::parse(&format!("/{d}/f{f}")).unwrap();
                view.write(&mut ctx, "u", &file, h2fsapi::FileContent::Simulated(64))
                    .unwrap();
            }
        }
    }

    let spec = FaultSpec::errors(0.05);
    for fs in [&opt, &plain] {
        fs.cluster()
            .set_fault_plan(Some(FaultPlan::uniform(0xBA7C4ED, spec)));
    }
    for _ in 0..6 {
        let _ = opt.layer().pump_with_faults(GossipFaults {
            drop_every: 3,
            duplicate_every: 4,
        });
        let _ = plain.layer().pump_with_faults(GossipFaults {
            drop_every: 3,
            duplicate_every: 4,
        });
    }
    for fs in [&opt, &plain] {
        fs.cluster().set_fault_plan(None);
    }
    // Convergence point: with the ring cache on, a middleware that lost a
    // gossip message serves its cached ring until the next message for
    // that ring arrives (the documented cache trade-off — true with or
    // without the path cache). The anti-entropy sweep closes exactly that
    // gap: every middleware re-fetches each ring it holds state for, joins
    // its local overlay, and re-floods the merged result — no fresh writes
    // needed to nudge untouched rings back into circulation.
    for fs in [&opt, &plain] {
        fs.layer().resync().unwrap();
    }

    let want = tree_snapshot(&plain, "u");
    assert_eq!(want.len(), 3 + 12, "plain instance lost writes");
    assert_eq!(
        tree_snapshot(&opt, "u"),
        want,
        "read-path caches diverged from the plain instance"
    );
    for i in 0..3 {
        assert_eq!(
            tree_snapshot(&opt.via(i), "u"),
            want,
            "optimised middleware {i} diverged"
        );
        assert_eq!(
            tree_snapshot(&plain.via(i), "u"),
            want,
            "plain middleware {i} diverged"
        );
    }
    // The comparison was not vacuous: the optimised instance really served
    // resolves out of the path cache during the tree walks above.
    assert!(
        opt.metrics().counter_value("path_cache_hits") > 0,
        "path cache never hit — the chaos leg exercised nothing"
    );
    if cache_capacity == 8 {
        assert!(
            opt.metrics().counter_value("ring_refetch_unchanged") > 0,
            "no evicted ring was refetched unchanged — the small-cache leg exercised nothing"
        );
    }
    let report = fsck(&opt, &mut ctx, "u").unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn cas_plane_loses_nothing_under_5pct_faults() {
    use h2util::faults::{FaultPlan, FaultSpec};

    // Chaos leg for the CAS content plane: a chunking and a whole-object
    // instance build the same tree — including deduplicated shared content
    // — through all three middlewares, then run gossip maintenance under
    // 5% transient faults *and* lossy delivery. After the faults clear,
    // every middleware on both instances must hold the identical tree: a
    // lost leaf block, a miscounted refcount or a torn manifest would
    // surface as a diverged snapshot or an fsck violation here.
    let cas = h2_deferred_cas(true);
    let plain = h2_deferred_cas(false);
    let mut ctx = OpCtx::for_test();
    for fs in [&cas, &plain] {
        fs.create_account(&mut ctx, "u").unwrap();
        for (i, d) in ["a", "b", "c"].iter().enumerate() {
            let view = fs.via(i);
            let dir = FsPath::parse(&format!("/{d}")).unwrap();
            view.mkdir(&mut ctx, "u", &dir).unwrap();
            for f in 0..4 {
                let file = FsPath::parse(&format!("/{d}/f{f}")).unwrap();
                // Every middleware uploads the same shared identities, so
                // the CAS instance dedups across all three front doors.
                view.write(
                    &mut ctx,
                    "u",
                    &file,
                    h2fsapi::FileContent::SimulatedShared {
                        size: 700_000 + f * 100_000,
                        seed: f,
                    },
                )
                .unwrap();
            }
        }
    }

    let spec = FaultSpec::errors(0.05);
    for fs in [&cas, &plain] {
        fs.cluster()
            .set_fault_plan(Some(FaultPlan::uniform(0xBA7C4ED, spec)));
    }
    for _ in 0..6 {
        let _ = cas.layer().pump_with_faults(GossipFaults {
            drop_every: 3,
            duplicate_every: 4,
        });
        let _ = plain.layer().pump_with_faults(GossipFaults {
            drop_every: 3,
            duplicate_every: 4,
        });
    }
    for fs in [&cas, &plain] {
        fs.cluster().set_fault_plan(None);
    }
    for fs in [&cas, &plain] {
        fs.layer().resync().unwrap();
    }

    let want = tree_snapshot(&plain, "u");
    assert_eq!(want.len(), 3 + 12, "whole-object instance lost writes");
    assert_eq!(
        tree_snapshot(&cas, "u"),
        want,
        "the CAS plane diverged from the whole-object instance"
    );
    for i in 0..3 {
        assert_eq!(
            tree_snapshot(&cas.via(i), "u"),
            want,
            "CAS middleware {i} diverged"
        );
        assert_eq!(
            tree_snapshot(&plain.via(i), "u"),
            want,
            "whole-object middleware {i} diverged"
        );
    }
    // Not vacuous: the CAS instance really chunked, and really deduplicated
    // the shared identities the three middlewares uploaded.
    assert!(
        cas.cluster().cas_blocks_written_count() > 0,
        "CAS plane never wrote a block"
    );
    assert!(
        cas.cluster().dedup_bytes_saved_count() > 0,
        "shared uploads deduplicated nothing"
    );
    let report = fsck(&cas, &mut ctx, "u").unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn stale_negative_cannot_hide_acked_file_past_convergence() {
    // The negative cache's one dangerous failure mode: middleware A caches
    // "path missing", the file is then created — through another
    // middleware or through A itself — and A keeps serving NotFound. The
    // epoch fingerprint must kill the negative in both cases.
    let fs = h2_deferred_readopt(true, READOPT_CAPACITIES[0]);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "u").unwrap();
    let a = fs.via(0);
    let b = fs.via(1);

    // Cross-middleware: A proves /a/f absent (negative cached against the
    // root ring's epoch), B creates it, gossip converges, A must see it.
    let file = FsPath::parse("/a/f").unwrap();
    // Three probes: the first walks cold (its negative dies with the ring
    // fetch's own epoch bump — the protocol's deliberate cold-start cost),
    // the second re-walks warm and stores a live negative, the third hits.
    for _ in 0..3 {
        assert!(a.stat(&mut ctx, "u", &file).is_err());
    }
    b.mkdir(&mut ctx, "u", &FsPath::parse("/a").unwrap())
        .unwrap();
    b.write(&mut ctx, "u", &file, h2fsapi::FileContent::Simulated(64))
        .unwrap();
    fs.layer().pump().unwrap();
    let st = a
        .stat(&mut ctx, "u", &file)
        .expect("stale negative outlived convergence");
    assert_eq!(st.size, 64);

    // Same-middleware write-through: no gossip needed — A's own write must
    // invalidate A's own negative immediately (read-your-writes).
    let local = FsPath::parse("/b/g").unwrap();
    assert!(a.stat(&mut ctx, "u", &local).is_err());
    assert!(
        a.stat(&mut ctx, "u", &local).is_err(),
        "repeat hits the negative"
    );
    a.mkdir(&mut ctx, "u", &FsPath::parse("/b").unwrap())
        .unwrap();
    a.write(&mut ctx, "u", &local, h2fsapi::FileContent::Simulated(32))
        .unwrap();
    let st = a
        .stat(&mut ctx, "u", &local)
        .expect("negative survived the middleware's own write");
    assert_eq!(st.size, 32);
    // And the negatives did real work: the misses above were cache hits.
    assert!(
        fs.metrics().counter_value("neg_cache_hits") > 0,
        "negative cache never hit"
    );
}
