//! Property-based adversarial equivalence: *arbitrary* operation sequences
//! (mostly invalid!) must produce identical outcomes on the reference
//! model, H2Cloud and Swift — and H2Cloud's on-cloud representation must
//! pass fsck afterwards no matter what was thrown at it.
//!
//! The rest is differential: every knob of `H2Config`, and the tuned profile
//! that turns them all on, must be observably the paper profile. Each
//! property drives one random sequence through two instances that differ in
//! that knob alone ([`differential`]), and each 5 %-fault leg builds one
//! tree on two such instances and checks every middleware after the faults
//! ([`converge_under_5pct_faults`]).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use h2baselines::SwiftFs;
use h2cloud::check::fsck;
use h2cloud::layer::GossipFaults;
use h2cloud::{H2Cloud, H2Config, H2Layer, MaintenanceMode};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::faults::{FaultPlan, FaultSpec};
use h2util::trace::{Stage, StageTimes, CAS_BLOCKS_WRITTEN, DEDUP_BYTES_SAVED};
use h2util::{BackendCounts, CostModel, OpCtx};
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

/// The paper profile as the differential properties run it — three
/// middlewares, Deferred maintenance, the zero-latency tiny cluster.
fn paper() -> H2Config {
    in_shape(H2Config::default())
}

/// The tuned profile in the same shape, with a `cache_capacity`-ring cache.
fn tuned(cache_capacity: usize) -> H2Config {
    H2Config {
        cache_capacity,
        ..in_shape(H2Config::tuned())
    }
}

fn in_shape(profile: H2Config) -> H2Config {
    H2Config {
        middlewares: 3,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::tiny(),
        ..profile
    }
}

/// The paper profile plus a `cache_capacity`-ring cache: the side the
/// read-path knobs are compared against.
fn ring_cached(cache_capacity: usize) -> H2Config {
    H2Config {
        cache_capacity,
        ..paper()
    }
}

/// [`ring_cached`] plus the read-path knobs: full-path cache, negative
/// cache, hedged reads.
fn read_path_opt(cache_capacity: usize) -> H2Config {
    H2Config {
        path_cache: true,
        neg_cache: true,
        hedged_reads: true,
        ..ring_cached(cache_capacity)
    }
}

/// Ring-cache capacities the read-path equivalence runs at. 512 rings is
/// far beyond the proptest path universe, so eviction never enters the
/// picture and the argument is about invalidation alone. 8 rings is one per
/// cache stripe: rings are evicted and refetched all the time, so a path
/// entry routinely outlives the ring it was built from, and the rule that
/// a refetch bringing back the same write stamp invalidates nothing runs
/// under the property too.
const READOPT_CAPACITIES: [usize; 2] = [512, 8];

/// Lossy gossip: a third of notifications dropped, a quarter duplicated.
const LOSSY: GossipFaults = GossipFaults {
    drop_every: 3,
    duplicate_every: 4,
};

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

/// Flatten the whole tree (paths, kinds, listed file sizes and what reading
/// each file returns) into a sorted, comparable snapshot.
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
            let path = dir.child(&e.name).expect("valid name");
            if e.kind == h2fsapi::EntryKind::Directory {
                out.push(format!("{dir} {} dir", e.name));
                stack.push(path);
            } else {
                let content = fs
                    .read(&mut ctx, account, &path)
                    .unwrap_or_else(|e| panic!("READ {path} failed: {e}"));
                out.push(format!("{dir} {} file {} {content:?}", e.name, e.size));
            }
        }
    }
    out.sort();
    out
}

/// Both sides answered `op` alike: both acked it, or both failed it with
/// the same error class.
fn same_outcome(
    op: &Op,
    a: &h2util::Result<()>,
    b: &h2util::Result<()>,
    label: &str,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(()), Ok(())) => {}
        (Err(x), Err(y)) => {
            prop_assert_eq!(x.class(), y.class(), "{}: {:?}: {} vs {}", label, op, x, y)
        }
        _ => prop_assert!(false, "{}: {:?} diverged: {:?} vs {:?}", label, op, a, b),
    }
    Ok(())
}

/// Both instances hold the same tree, and `b`'s on-cloud representation
/// is consistent.
fn same_tree(a: &H2Cloud, b: &H2Cloud) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        tree_snapshot(a, "u"),
        tree_snapshot(b, "u"),
        "the knob changed the observable filesystem"
    );
    let report = fsck(b, &mut OpCtx::for_test(), "u").unwrap();
    prop_assert!(
        report.is_clean(),
        "fsck violations: {:?}",
        report.violations
    );
    Ok(())
}

/// Drive `ops` through an instance built from `a` and one built from `b`,
/// clients going through the sticky `CloudFs` routing (one middleware per
/// account — the regime in which every knob must be invisible), lossy
/// gossip pumped on both every third op. Every ack and error class must
/// match, and after both quiesce so must the trees ([`same_tree`]).
/// Returns the `b` instance for knob-specific checks.
fn differential(a: H2Config, b: H2Config, ops: &[Op]) -> Result<H2Cloud, TestCaseError> {
    lockstep(a, b, ops, |_, _, _| Ok(()))
}

/// What one op cost its caller: the backend calls it issued and the
/// virtual time it took.
type Spend = (BackendCounts, Duration);

/// [`differential`], each op on its own context on each side, with
/// `per_op` checking the op's [`Spend`] on `a` against that on `b`.
fn lockstep(
    a: H2Config,
    b: H2Config,
    ops: &[Op],
    mut per_op: impl FnMut(&Op, Spend, Spend) -> Result<(), TestCaseError>,
) -> Result<H2Cloud, TestCaseError> {
    let (a, b) = (H2Cloud::new(a), H2Cloud::new(b));
    let mut ctx = OpCtx::for_test();
    a.create_account(&mut ctx, "u").unwrap();
    b.create_account(&mut ctx, "u").unwrap();
    let run = |fs: &H2Cloud, op: &Op| {
        let mut ctx = OpCtx::new(fs.cluster().cost_model());
        let outcome = Trace::apply_fs(fs, &mut ctx, "u", op);
        (outcome, (ctx.counts(), ctx.elapsed()))
    };
    for (i, op) in ops.iter().enumerate() {
        let (on_a, spent_a) = run(&a, op);
        let (on_b, spent_b) = run(&b, op);
        same_outcome(op, &on_a, &on_b, "a vs b")?;
        per_op(op, spent_a, spent_b)?;
        if i % 3 == 2 {
            for fs in [&a, &b] {
                fs.layer().pump_with_faults(LOSSY).unwrap();
            }
        }
    }
    a.quiesce();
    b.quiesce();
    same_tree(&a, &b)?;
    Ok(b)
}

/// Every client op and maintenance pass of `ops` on `profile` (three
/// middlewares over the tiny cluster with the rack's costs, so every stage
/// has time to hold) sampled at `trace_sample`, as the stage split of the
/// time it took. Checks on the way that each split sums to its op's or
/// pass's time, and that an op feeds exactly the stage histograms of its
/// non-zero stages.
fn stage_splits(
    profile: H2Config,
    trace_sample: f64,
    ops: &[Op],
) -> Result<Vec<StageTimes>, TestCaseError> {
    let fs = H2Cloud::new(H2Config {
        middlewares: 3,
        cluster: ClusterConfig {
            cost: Arc::new(CostModel::rack_default()),
            ..ClusterConfig::tiny()
        },
        trace_sample,
        ..profile
    });
    let mut ctx = OpCtx::new(fs.cluster().cost_model());
    fs.create_account(&mut ctx, "u").unwrap();
    let mws = fs.layer().middlewares();
    let background = || {
        mws.iter()
            .map(|mw| (mw.background_spend().0, mw.background_stages()))
    };
    let hist_counts =
        || Stage::OWNERS.map(|s| s.histogram().map(|h| fs.metrics().histogram(h).count()));
    let mut splits = Vec::new();
    let pass = |splits: &mut Vec<StageTimes>, run: &dyn Fn()| {
        let before: Vec<_> = background().collect();
        run();
        for ((t0, s0), (t1, s1)) in before.into_iter().zip(background()) {
            let split = s1.since(&s0);
            prop_assert_eq!(split.total(), t1 - t0, "a maintenance pass's split");
            splits.push(split);
        }
        Ok(())
    };
    for (i, op) in ops.iter().enumerate() {
        let mut ctx = OpCtx::new(fs.cluster().cost_model());
        let counts = hist_counts();
        let _ = Trace::apply_fs(&fs.via(i % 3), &mut ctx, "u", op);
        let split = ctx.stage_times();
        prop_assert_eq!(split.total(), ctx.elapsed(), "{:?}", op);
        for ((stage, before), after) in Stage::OWNERS.iter().zip(counts).zip(hist_counts()) {
            let fed = u64::from(!split.get(*stage).is_zero());
            prop_assert_eq!(after, before.map(|n| n + fed), "{:?}: {:?}", op, stage);
        }
        splits.push(split);
        if i % 3 == 2 {
            pass(&mut splits, &|| {
                fs.layer().pump_with_faults(LOSSY).unwrap();
            })?;
        }
    }
    pass(&mut splits, &|| fs.quiesce())?;
    pass(&mut splits, &|| {
        for mw in mws {
            mw.resync().unwrap();
        }
    })?;
    Ok(splits)
}

/// [`stage_splits`] on both profiles, traced and untraced: the splits
/// must be identical, since spans only observe.
fn stage_splits_ignore_tracing(ops: &[Op]) -> Result<(), TestCaseError> {
    for profile in [in_shape(H2Config::default()), H2Config::for_test()] {
        let untraced = stage_splits(profile.clone(), 0.0, ops)?;
        let traced = stage_splits(profile, 1.0, ops)?;
        prop_assert_eq!(untraced, traced, "tracing moved time between stages");
    }
    Ok(())
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
                same_outcome(op, &want, &got, label)?;
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
        differential(paper(), ring_cached(64), &ops)?;
    }

    #[test]
    fn group_commit_is_observably_transparent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        // Group commit changes HOW concurrent patches reach the cloud (one
        // combined object per batch, a contiguous patch-number range),
        // never WHAT a client observes. One client submits alone, so every
        // batch is a batch of one, and a batch of one is the plain
        // submission: the same backend calls and virtual time, op for op
        // (at the rack's costs, so the time has something to hold).
        let racked = H2Config {
            cluster: ClusterConfig {
                cost: Arc::new(CostModel::rack_default()),
                ..ClusterConfig::tiny()
            },
            ..paper()
        };
        let grouped = H2Config { group_commit: true, ..racked.clone() };
        lockstep(racked, grouped, &ops, |op, plain, grouped| {
            prop_assert_eq!(plain, grouped, "{:?}: a batch of one cost otherwise", op);
            Ok(())
        })?;
    }

    #[test]
    fn read_path_caches_are_observably_transparent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        // The caches change how a resolve is *answered*, never what it
        // answers — NotFound results served from the negative cache
        // included.
        for capacity in READOPT_CAPACITIES {
            differential(ring_cached(capacity), read_path_opt(capacity), &ops)?;
        }
    }

    #[test]
    fn cas_plane_is_observably_transparent(
        ops in prop::collection::vec(arb_op_cas(), 1..60)
    ) {
        // Overwrites, appends and shared-content uploads included: the CAS
        // plane rearranges how bytes live in the cloud (chunked,
        // deduplicated, refcounted), never what a client can observe.
        differential(paper(), H2Config { cas: true, ..paper() }, &ops)?;
    }

    #[test]
    fn tuned_profile_is_observably_the_paper_profile(
        ops in prop::collection::vec(arb_op_cas(), 1..60)
    ) {
        // Every knob at once, at both ring-cache sizes: the benchmark's
        // profile against the paper's, op for op.
        for capacity in READOPT_CAPACITIES {
            differential(paper(), tuned(capacity), &ops)?;
        }
    }

    #[test]
    fn tracing_is_observably_transparent(
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        // Spans observe virtual time but never charge it: tracing is pure
        // observation.
        let traced = differential(
            ring_cached(64),
            H2Config { trace_sample: 1.0, ..ring_cached(64) },
            &ops,
        )?;
        // Sampling at 1.0 really did collect something: every client op
        // went through a middleware whose collector kept its root span.
        prop_assert!(
            !traced.recent_traces(usize::MAX).is_empty(),
            "trace_sample = 1.0 collected no traces over {} ops", ops.len()
        );
    }

    #[test]
    fn stage_splits_sum_to_elapsed_traced_or_not(
        ops in prop::collection::vec(arb_op_cas(), 1..40)
    ) {
        stage_splits_ignore_tracing(&ops)?;
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
        let moving = H2Cloud::new(paper());
        let stable = H2Cloud::new(paper());
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
            same_outcome(op, &on_moving, &on_stable, "moving vs stable")?;
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
        same_tree(&stable, &moving)?;
    }
}

/// How a 5 %-fault leg runs gossip on one instance.
#[derive(Debug, Clone, Copy)]
enum Gossip {
    /// Nothing is dropped, so a clean pump settles it.
    Clean,
    /// [`LOSSY`] delivery. A middleware that lost a message serves its
    /// cached ring until the next message for that ring arrives (the
    /// documented cache trade-off), so the anti-entropy sweep settles it:
    /// every middleware re-fetches each ring it holds state for, joins its
    /// local overlay and re-floods the result — no fresh writes needed.
    Lossy,
}

impl Gossip {
    fn pump(self, layer: &H2Layer) -> h2util::Result<usize> {
        match self {
            Gossip::Clean => layer.pump(),
            Gossip::Lossy => layer.pump_with_faults(LOSSY),
        }
    }

    fn settle(self, layer: &H2Layer) -> h2util::Result<usize> {
        match self {
            Gossip::Clean => layer.pump(),
            Gossip::Lossy => layer.resync(),
        }
    }
}

/// Build one tree on an instance of `a` and one of `b` — a directory per
/// middleware, written through that middleware with four files of
/// `content(f)` each, so convergence genuinely rides on gossip — then run
/// each instance's gossip under 5 % transient faults. Rounds may error out
/// once a message burns its whole retry budget; state is still never lost,
/// so the faults are cleared and each instance settled. Every middleware
/// of both instances must then hold the same tree, and `b` must pass fsck.
/// Returns both instances for knob-specific checks.
fn converge_under_5pct_faults(
    [(a, gossip_a), (b, gossip_b)]: [(H2Config, Gossip); 2],
    content: impl Fn(u64) -> FileContent,
) -> (H2Cloud, H2Cloud) {
    let sides = [(H2Cloud::new(a), gossip_a), (H2Cloud::new(b), gossip_b)];
    let mut ctx = OpCtx::for_test();
    for (fs, _) in &sides {
        fs.create_account(&mut ctx, "u").unwrap();
        for (i, d) in ["a", "b", "c"].iter().enumerate() {
            let view = fs.via(i);
            let dir = FsPath::parse(&format!("/{d}")).unwrap();
            view.mkdir(&mut ctx, "u", &dir).unwrap();
            for f in 0..4 {
                let file = FsPath::parse(&format!("/{d}/f{f}")).unwrap();
                view.write(&mut ctx, "u", &file, content(f)).unwrap();
            }
        }
    }

    for (fs, _) in &sides {
        fs.cluster()
            .set_fault_plan(Some(FaultPlan::uniform(0xBA7C4ED, FaultSpec::errors(0.05))));
    }
    for _ in 0..6 {
        for (fs, gossip) in &sides {
            let _ = gossip.pump(fs.layer());
        }
    }
    for (fs, gossip) in &sides {
        fs.cluster().set_fault_plan(None);
        gossip.settle(fs.layer()).unwrap();
    }

    let [(a, _), (b, _)] = sides;
    let want = tree_snapshot(&a, "u");
    assert_eq!(want.len(), 3 + 12, "the first instance lost writes");
    assert_eq!(tree_snapshot(&b, "u"), want, "the instances diverged");
    for i in 0..3 {
        assert_eq!(
            tree_snapshot(&a.via(i), "u"),
            want,
            "a: middleware {i} diverged"
        );
        assert_eq!(
            tree_snapshot(&b.via(i), "u"),
            want,
            "b: middleware {i} diverged"
        );
    }
    let report = fsck(&b, &mut ctx, "u").unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    (a, b)
}

/// Small files, unique content.
fn small(_: u64) -> FileContent {
    FileContent::Simulated(64)
}

/// Sub-chunk to multi-chunk files whose identities repeat across the three
/// middlewares, so a CAS instance dedups across all three front doors.
fn shared(f: u64) -> FileContent {
    FileContent::SimulatedShared {
        size: 700_000 + f * 100_000,
        seed: f,
    }
}

#[test]
fn batched_gossip_apply_loses_nothing_under_5pct_faults() {
    // Both instances apply every inbox as one batch, one of them with
    // group commit on: under 5 % faults neither loses anything. (The
    // per-message reference for the batch apply is the `layer.rs` property
    // `batch_apply_equals_one_message_at_a_time`.)
    converge_under_5pct_faults(
        [
            (paper(), Gossip::Clean),
            (
                H2Config {
                    group_commit: true,
                    ..paper()
                },
                Gossip::Clean,
            ),
        ],
        small,
    );
}

#[test]
fn read_path_caches_lose_nothing_under_5pct_faults() {
    // A cache that served anything stale past convergence would show up as
    // a diverged snapshot.
    for capacity in READOPT_CAPACITIES {
        let (_, opt) = converge_under_5pct_faults(
            [
                (ring_cached(capacity), Gossip::Lossy),
                (read_path_opt(capacity), Gossip::Lossy),
            ],
            small,
        );
        // Not vacuous: the optimised instance really served resolves out of
        // the path cache during the tree walks.
        assert!(
            opt.metrics().counter_value("path_cache_hits") > 0,
            "path cache never hit — the chaos leg exercised nothing"
        );
        if capacity == 8 {
            assert!(
                opt.metrics().counter_value("ring_refetch_unchanged") > 0,
                "no evicted ring was refetched unchanged — the small-cache leg exercised nothing"
            );
        }
    }
}

#[test]
fn cas_plane_loses_nothing_under_5pct_faults() {
    // A lost leaf block, a miscounted refcount or a torn manifest would
    // surface as a diverged snapshot or an fsck violation.
    let (_, cas) = converge_under_5pct_faults(
        [
            (paper(), Gossip::Lossy),
            (
                H2Config {
                    cas: true,
                    ..paper()
                },
                Gossip::Lossy,
            ),
        ],
        shared,
    );
    assert_chunked_and_deduplicated(&cas);
}

#[test]
fn tuned_profile_loses_nothing_under_5pct_faults() {
    for capacity in READOPT_CAPACITIES {
        let (_, tuned) = converge_under_5pct_faults(
            [(paper(), Gossip::Lossy), (tuned(capacity), Gossip::Lossy)],
            shared,
        );
        assert!(
            tuned.metrics().counter_value("path_cache_hits") > 0,
            "path cache never hit — the chaos leg exercised nothing"
        );
        assert_chunked_and_deduplicated(&tuned);
    }
}

/// Not vacuous: the instance really chunked, and really deduplicated the
/// shared identities the three middlewares uploaded.
fn assert_chunked_and_deduplicated(fs: &H2Cloud) {
    assert!(
        fs.metrics().counter_value(CAS_BLOCKS_WRITTEN) > 0,
        "CAS plane never wrote a block"
    );
    assert!(
        fs.metrics().counter_value(DEDUP_BYTES_SAVED) > 0,
        "shared uploads deduplicated nothing"
    );
}

#[test]
fn stale_negative_cannot_hide_acked_file_past_convergence() {
    // The negative cache's one dangerous failure mode: middleware A caches
    // "path missing", the file is then created — through another
    // middleware or through A itself — and A keeps serving NotFound. The
    // epoch fingerprint must kill the negative in both cases.
    let fs = H2Cloud::new(read_path_opt(READOPT_CAPACITIES[0]));
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
    b.write(&mut ctx, "u", &file, FileContent::Simulated(64))
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
    a.write(&mut ctx, "u", &local, FileContent::Simulated(32))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    #[ignore = "deep run: cargo test --release --test prop_equivalence -- --ignored"]
    fn stage_splits_sum_to_elapsed_traced_or_not_deep(
        ops in prop::collection::vec(arb_op_cas(), 1..40)
    ) {
        stage_splits_ignore_tracing(&ops)?;
    }
}
