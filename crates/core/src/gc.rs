//! Lazy reclamation: compacting tombstones and deleting unreachable state.
//!
//! The paper defers "really removing the tuple from the NameRing … until
//! this NameRing is in use" (§3.3.2) and removes directories in O(1) by
//! tombstoning the parent tuple only — leaving the subtree's objects in the
//! cloud. This module is the background pass that finishes the job:
//!
//! 1. walk the live tree from the root once, NameRing by NameRing,
//!    collecting the live namespaces and the rings that hold a tombstone
//!    older than the horizon;
//! 2. compact each of those rings: read it again, drop those tombstones,
//!    floor every middleware's local version by them, and rewrite the ring
//!    object — a rewrite that refreshes this node's cached copy and is
//!    announced to the peers, like every other ring rewrite;
//! 3. for every dropped directory tombstone, recursively delete the whole
//!    orphaned subtree (descriptors, NameRings, content objects), and the
//!    directory's descriptor — also under a MOVE's tombstone, whose
//!    namespace lives on under the new name, since a failed DELETE may have
//!    left the old one behind;
//! 4. for every dropped file tombstone, delete the content object.
//!
//! A tombstone marked reclaimed skips step 3's descriptor DELETE and step
//! 4's content DELETE, and so does each marked tombstone a dead subtree
//! holds: the node that wrote it deleted that object already (a DELETE, or
//! a MOVE's DELETE of the old key) and said so before the tombstone's merge.
//! An unmarked one is sent its DELETE, which finds nothing when an Eager
//! node's foreground DELETE succeeded, and what a failed one left otherwise.
//!
//! Compaction and reclamation fan out: the doomed rings are compacted as
//! one bounded [`OpCtx::parallel`] section, issued in walk order; a
//! compacted ring's removed tuples are one wave (a dead subtree is one
//! item), in the content stage; and a dead ring's children are one wave
//! before the ring object goes. The walk itself stays serial. The requests
//! are those of a serial pass; only the modelled wall time is a wave's.
//!
//! GC is driven explicitly ([`collect`]) — benches and examples call it the
//! way an operator would schedule a nightly pass.

use std::collections::HashSet;
use std::sync::Arc;

use h2util::trace::Stage;
use h2util::{H2Error, NamespaceId, OpCtx, Result, Timestamp};
use swiftsim::ObjectStore;

use crate::fs::H2Cloud;
use crate::keys::H2Keys;
use crate::middleware::H2Middleware;
use crate::namering::{ChildRef, Tuple};

/// Outcome of one GC pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Tombstoned tuples compacted out of NameRings.
    pub tuples_compacted: usize,
    /// Objects (descriptors, rings, file content) deleted from the cloud.
    pub objects_deleted: usize,
    /// NameRing objects rewritten.
    pub rings_rewritten: usize,
    /// DELETEs not sent: the tombstone was marked reclaimed.
    pub deletes_skipped: usize,
}

/// Run a GC pass over `account`'s tree. Tombstones with timestamps `<
/// horizon` are compacted; pass the current clock reading to reclaim
/// everything, or an older stamp to keep a concurrency grace window.
///
/// The walk is a worklist, not recursion (directory chains can be
/// arbitrarily deep), and no ring is compacted before it ends: a MOVE's
/// tombstone still carries the moved directory's namespace, which lives
/// on because a live tuple somewhere in the tree names it.
pub fn collect(
    fs: &H2Cloud,
    ctx: &mut OpCtx,
    account: &str,
    horizon: Timestamp,
) -> Result<GcReport> {
    let keys = H2Keys::new(account);
    let mw = fs.layer().mw_for_account(account).clone();
    let mut live = HashSet::from([NamespaceId::ROOT]);
    let mut doomed = Vec::new();
    let mut stack = vec![NamespaceId::ROOT];
    while let Some(ns) = stack.pop() {
        let view = mw.read_ring_view(ctx, &keys, ns)?;
        if view.has_tombstone_below(horizon) {
            doomed.push(ns);
        }
        for (_, tuple) in view.live() {
            if let ChildRef::Dir { ns: child } = tuple.child {
                if live.insert(child) {
                    stack.push(child);
                }
            }
        }
    }
    // The doomed rings are compacted as one bounded parallel section, in
    // walk order; the first error ends the pass.
    let mut report = GcReport::default();
    ctx.parallel(doomed.len(), |ctx, i| {
        compact_ring(fs, &mw, ctx, &keys, doomed[i], horizon, &live, &mut report)
    })?;
    Ok(report)
}

/// Compact one ring and reclaim what its dropped tombstones named. The
/// ring is read again here, just before its rewrite, so a write that
/// landed during the walk is not lost to the walk's older view.
#[allow(clippy::too_many_arguments)]
fn compact_ring(
    fs: &H2Cloud,
    mw: &H2Middleware,
    ctx: &mut OpCtx,
    keys: &H2Keys,
    ns: NamespaceId,
    horizon: Timestamp,
    live: &HashSet<NamespaceId>,
    report: &mut GcReport,
) -> Result<()> {
    let mut ring = mw.read_ring(ctx, keys, ns)?;
    let removed = ring.compact(horizon);
    if removed.is_empty() {
        return Ok(());
    }
    // Floor every middleware before the rewrite is announced: a local tuple
    // a compacted tombstone covers would otherwise rejoin the global object
    // when its node absorbs the compaction, undoing an acknowledged DELETE.
    for m in fs.layer().middlewares() {
        m.gc_floor(keys.account(), ns, &removed);
    }
    // Refreshes this node's cached copy; the peers refresh from the stamp.
    mw.write_ring(ctx, keys, ns, &Arc::new(ring))?;
    report.rings_rewritten += 1;
    report.tuples_compacted += removed.len();
    // The removed tuples' objects are reclaimed as one bounded parallel
    // wave; a dead subtree is one item.
    ctx.in_stage(Stage::Content, |ctx| {
        ctx.parallel(removed.len(), |ctx, i| {
            let (name, tuple) = &removed[i];
            match tuple.child {
                ChildRef::File { .. } => {
                    delete_named(tuple, report, || mw.delete_content(ctx, keys, ns, name))
                }
                ChildRef::Dir { ns: dir_ns } => {
                    // Only reclaim subtrees nothing live points at: a MOVE's
                    // tombstone still names the (re-parented, live)
                    // namespace.
                    if !live.contains(&dir_ns) {
                        delete_subtree(fs, mw, ctx, keys, dir_ns, live, report)?;
                    }
                    // The descriptor.
                    delete_named(tuple, report, || {
                        fs.cluster().delete(ctx, &keys.child(ns, name))
                    })
                }
            }
        })
    })
}

/// Delete everything reachable from `ns` (the directory was tombstoned:
/// nothing live points here anymore) but the `live` namespaces a
/// tombstone in it names: a directory moved out before its parent was
/// removed lives on under its new name.
fn delete_subtree(
    fs: &H2Cloud,
    mw: &H2Middleware,
    ctx: &mut OpCtx,
    keys: &H2Keys,
    ns: NamespaceId,
    live: &HashSet<NamespaceId>,
    report: &mut GcReport,
) -> Result<()> {
    let mut stack = vec![ns];
    while let Some(ns) = stack.pop() {
        let ring = mw.read_ring_view(ctx, keys, ns)?;
        // The ring's children are one bounded parallel wave, before the
        // ring object itself; child rings are visited depth-first after.
        let children: Vec<(&str, &Tuple)> = ring.iter().collect();
        ctx.in_stage(Stage::Content, |ctx| {
            ctx.parallel(children.len(), |ctx, i| {
                let (name, tuple) = children[i];
                match tuple.child {
                    ChildRef::File { .. } => {
                        delete_named(tuple, report, || mw.delete_content(ctx, keys, ns, name))
                    }
                    ChildRef::Dir { ns: child_ns } => {
                        if !live.contains(&child_ns) {
                            stack.push(child_ns);
                        }
                        // The descriptor.
                        delete_named(tuple, report, || {
                            fs.cluster().delete(ctx, &keys.child(ns, name))
                        })
                    }
                }
            })
        })?;
        // The ring object itself.
        delete_quiet(fs.cluster().delete(ctx, &keys.namering(ns)), report)?;
        // The object is gone; every middleware's local state for it (cached
        // global copy, local overlay, pending chain) must go too, or a peer
        // could write the dead ring straight back into the cloud.
        for m in fs.layer().middlewares() {
            m.forget_ring(keys.account(), ns);
        }
    }
    Ok(())
}

/// Delete the object `tuple`'s name keys, unless its tombstone is marked
/// reclaimed: its node deleted that object already.
fn delete_named(
    tuple: &Tuple,
    report: &mut GcReport,
    delete: impl FnOnce() -> Result<()>,
) -> Result<()> {
    if tuple.reclaimed {
        report.deletes_skipped += 1;
        return Ok(());
    }
    delete_quiet(delete(), report)
}

/// Tally one object delete, tolerating its prior reclaim: an Eager node's
/// foreground DELETE removes the object without marking its tombstone, so
/// GC's DELETE finds nothing.
fn delete_quiet(outcome: Result<()>, report: &mut GcReport) -> Result<()> {
    match outcome {
        Ok(()) => {
            report.objects_deleted += 1;
            Ok(())
        }
        Err(H2Error::NotFound(_)) => Ok(()), // already reclaimed eagerly
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{H2Cloud, H2Config};
    use h2fsapi::{CloudFs, FileContent, FsPath};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn far_future() -> Timestamp {
        Timestamp::new(u64::MAX, 0, h2util::NodeId(0))
    }

    fn setup() -> (H2Cloud, OpCtx) {
        let fs = H2Cloud::new(H2Config::for_test());
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn rmdir_leaves_garbage_until_gc() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/docs")).unwrap();
        for i in 0..10 {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/docs/f{i}")),
                FileContent::from_str("data"),
            )
            .unwrap();
        }
        let before = fs.storage_stats().objects;
        fs.rmdir(&mut ctx, "alice", &p("/docs")).unwrap();
        // O(1) rmdir: the subtree is still physically present.
        let after_rmdir = fs.storage_stats().objects;
        assert!(after_rmdir >= before - 1, "rmdir must not walk the subtree");
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert_eq!(report.tuples_compacted, 1);
        assert!(report.objects_deleted >= 11, "{report:?}"); // 10 files + ring + descriptor
        let after_gc = fs.storage_stats().objects;
        assert!(after_gc < after_rmdir, "{after_gc} !< {after_rmdir}");
        // The directory is really gone.
        assert!(fs.list(&mut ctx, "alice", &p("/docs")).is_err());
    }

    #[test]
    fn gc_recurses_into_nested_removed_trees() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a/b/c")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/a/b/c/deep"),
            FileContent::from_str("x"),
        )
        .unwrap();
        fs.rmdir(&mut ctx, "alice", &p("/a")).unwrap();
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        // file + 3 rings + 2 nested descriptors + 1 top descriptor
        assert!(report.objects_deleted >= 7, "{report:?}");
        // Only the root ring remains.
        assert_eq!(fs.storage_stats().objects, 1);
    }

    #[test]
    fn gc_respects_horizon() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/keep")).unwrap();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
            .unwrap();
        fs.delete_file(&mut ctx, "alice", &p("/f")).unwrap();
        // Horizon in the past: nothing is old enough to compact.
        let report = collect(
            &fs,
            &mut ctx,
            "alice",
            Timestamp::new(0, 0, h2util::NodeId(0)),
        )
        .unwrap();
        assert_eq!(report.tuples_compacted, 0);
        assert_eq!(report.rings_rewritten, 0);
        // Live tree untouched.
        assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap(), vec!["keep"]);
    }

    #[test]
    fn gc_never_reclaims_moved_subtrees() {
        // Regression: MOVE leaves a tombstone in the old parent that still
        // carries the directory's namespace; GC must not treat it as dead.
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/photos")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/photos/trip.jpg"),
            FileContent::Simulated(4 << 20),
        )
        .unwrap();
        fs.mv(&mut ctx, "alice", &p("/photos"), &p("/pictures"))
            .unwrap();
        collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        // The moved content must still be fully readable.
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/pictures/trip.jpg"))
                .unwrap(),
            FileContent::Simulated(4 << 20)
        );
        assert!(fs.storage_stats().bytes >= 4 << 20);
        // Same for a rename chained after the move.
        fs.mv(&mut ctx, "alice", &p("/pictures"), &p("/final"))
            .unwrap();
        collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert!(fs.read(&mut ctx, "alice", &p("/final/trip.jpg")).is_ok());
    }

    #[test]
    fn gc_keeps_a_directory_moved_out_of_a_removed_one() {
        // The removed directory's ring still holds the moved directory's
        // tombstone, naming a namespace that lives on under `/c`: reclaiming
        // the dead subtree must stop there.
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap();
        fs.write(&mut ctx, "alice", &p("/a/b/f"), FileContent::from_str("x"))
            .unwrap();
        fs.mv(&mut ctx, "alice", &p("/a/b"), &p("/c")).unwrap();
        fs.rmdir(&mut ctx, "alice", &p("/a")).unwrap();
        collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/c/f")).unwrap(),
            FileContent::from_str("x")
        );
        let report = crate::check::fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        // The root ring, `/c`'s descriptor and ring, and `f`.
        assert_eq!(fs.storage_stats().objects, 4);
    }

    /// Levels in the deep-chain regressions: a few thousand stack frames
    /// overflow a test thread's stack.
    const DEEP_CHAIN: usize = 5000;

    /// Build the chain `/d0/d1/…` of [`DEEP_CHAIN`] directories through
    /// middleware primitives (O(depth)); fs.mkdir would resolve from the
    /// root each time (O(depth²)).
    fn deep_chain(fs: &H2Cloud, ctx: &mut OpCtx) {
        use crate::keys::DirDescriptor;
        use crate::namering::{NameRing, Tuple};
        let mw = fs.layer().mw_for_account("alice").clone();
        let keys = H2Keys::new("alice");
        let mut parent = NamespaceId::ROOT;
        for i in 0..DEEP_CHAIN {
            let child = mw.allocate_namespace();
            mw.create_ring(ctx, &keys, child, NameRing::new()).unwrap();
            let name = format!("d{i}");
            mw.put_descriptor(
                ctx,
                &keys,
                parent,
                &name,
                &DirDescriptor {
                    ns: child,
                    name: name.clone(),
                    created: mw.tick(),
                },
            )
            .unwrap();
            let mut patch = NameRing::new();
            patch.apply(&name, Tuple::dir(mw.tick(), child));
            mw.submit_patch(ctx, &keys, parent, patch).unwrap();
            parent = child;
        }
    }

    #[test]
    fn deep_directory_chains_do_not_overflow_the_stack() {
        // Regression: collect_live / walk_and_compact / delete_subtree were
        // recursive — one stack frame per directory level — and blew the
        // stack on chains a few thousand deep.
        let (fs, mut ctx) = setup();
        deep_chain(&fs, &mut ctx);
        // The live walk must traverse all 5k levels without recursing.
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert_eq!(report.tuples_compacted, 0);
        // Tombstone the chain's top link, then reclaim every level.
        fs.rmdir(&mut ctx, "alice", &p("/d0")).unwrap();
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert!(
            report.objects_deleted >= 2 * DEEP_CHAIN - 1,
            "expected ~2 objects per level, got {report:?}"
        );
        // Only the root ring remains.
        assert_eq!(fs.storage_stats().objects, 1);
    }

    #[test]
    fn copying_a_deep_directory_chain_does_not_overflow_the_stack() {
        // Regression: COPY's copy_tree recursed once per directory level.
        let (fs, mut ctx) = setup();
        deep_chain(&fs, &mut ctx);
        fs.layer().pump().unwrap();
        let before = fs.storage_stats().objects;
        fs.copy(&mut ctx, "alice", &p("/d0"), &p("/c")).unwrap();
        fs.layer().pump().unwrap();
        // Each copied level is one descriptor and one ring …
        assert_eq!(fs.storage_stats().objects, before + 2 * DEEP_CHAIN as u64);
        assert_eq!(fs.list(&mut ctx, "alice", &p("/c")).unwrap(), ["d1"]);
        // … and each is named in its parent: the live walk reclaims none.
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert_eq!(report.objects_deleted, 0, "{report:?}");
    }

    #[test]
    fn gc_drops_every_per_ring_entry_of_a_dead_tree() {
        // Every middleware's per-ring state for a reclaimed directory goes
        // with it, its cache record and epoch included: a churning tree
        // must not leave one entry per directory it ever held.
        let paper = H2Config {
            cluster: swiftsim::ClusterConfig::tiny(),
            ..H2Config::default()
        };
        for profile in [paper, H2Config::for_test()] {
            let fs = H2Cloud::new(H2Config {
                middlewares: 3,
                ..profile
            });
            let mut ctx = OpCtx::for_test();
            fs.create_account(&mut ctx, "alice").unwrap();
            let entries = || {
                fs.layer()
                    .middlewares()
                    .iter()
                    .map(|mw| (mw.ring_state_entries(), mw.ring_records()))
                    .collect::<Vec<_>>()
            };
            fs.mkdir(&mut ctx, "alice", &p("/keep")).unwrap();
            fs.quiesce();
            let recorded = entries();
            for i in 0..8 {
                fs.mkdir(&mut ctx, "alice", &p(&format!("/d{i}"))).unwrap();
                fs.write(
                    &mut ctx,
                    "alice",
                    &p(&format!("/d{i}/f")),
                    FileContent::from_str("x"),
                )
                .unwrap();
            }
            fs.quiesce();
            for i in 0..8 {
                fs.rmdir(&mut ctx, "alice", &p(&format!("/d{i}"))).unwrap();
            }
            fs.quiesce();
            collect(&fs, &mut ctx, "alice", far_future()).unwrap();
            assert_eq!(entries(), recorded);
        }
    }

    #[test]
    fn only_a_patch_makes_a_descriptor() {
        // COPY, bulk import and GC compaction write rings without
        // submitting a patch to them, bar bulk import's one patch per
        // existing ring it adds to: the writing middleware keeps a
        // descriptor only for the rings it patched.
        let fs = H2Cloud::new(H2Config {
            middlewares: 2,
            ..H2Config::for_test()
        });
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        let sticky = fs.layer().mw_for_account("alice");
        let peer = fs
            .layer()
            .middlewares()
            .iter()
            .position(|mw| !std::sync::Arc::ptr_eq(mw, sticky))
            .unwrap();
        // Patches to the root: the only ring the sticky middleware patches.
        fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
        let f = p("/src/f");
        fs.via(peer)
            .write(&mut ctx, "alice", &f, FileContent::from_str("x"))
            .unwrap();
        fs.quiesce();
        fs.copy(&mut ctx, "alice", &p("/src"), &p("/c")).unwrap();
        let dirs = [p("/imp"), p("/imp/a")];
        let files = [(p("/imp/a/g"), 1), (p("/c/h"), 1)];
        fs.bulk_import(&mut ctx, "alice", &dirs, &files).unwrap();
        fs.via(peer).delete_file(&mut ctx, "alice", &f).unwrap();
        fs.quiesce();
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert_eq!(report.rings_rewritten, 1, "{report:?}");
        // The root, and `/c`, which bulk import added `h` to.
        assert_eq!(sticky.ring_state_entries(), 2);
    }

    #[test]
    fn one_pass_reads_each_live_ring_once() {
        // The paper profile on the paper's rack keeps no ring cache, so
        // every ring read is a GET: 21 live rings, one of them holding
        // `/d0/f`'s tombstone.
        use h2util::BackendCounts;
        use std::time::Duration;
        let fs = H2Cloud::new(H2Config::default());
        let mut ctx = OpCtx::new(fs.cost_model());
        fs.create_account(&mut ctx, "alice").unwrap();
        for i in 0..20 {
            fs.mkdir(&mut ctx, "alice", &p(&format!("/d{i}"))).unwrap();
        }
        let f = p("/d0/f");
        fs.write(&mut ctx, "alice", &f, FileContent::from_str("x"))
            .unwrap();
        fs.delete_file(&mut ctx, "alice", &f).unwrap();
        let mut gc = OpCtx::new(fs.cost_model());
        let report = collect(&fs, &mut gc, "alice", far_future()).unwrap();
        let compacted = GcReport {
            tuples_compacted: 1,
            objects_deleted: 0,
            rings_rewritten: 1,
            deletes_skipped: 0,
        };
        assert_eq!(report, compacted);
        // The walk reads each live ring once and the compaction its ring
        // once more; then the ring's PUT and `f`'s content DELETE, which
        // finds the object the file delete already reclaimed. Walking the
        // tree twice read 42 rings.
        let counts = BackendCounts {
            gets: 22,
            puts: 1,
            deletes: 1,
            ..BackendCounts::default()
        };
        assert_eq!(gc.counts(), counts);
        // A sub-KiB GET is 9.512 ms, the PUT 12.012 ms and the DELETE 12 ms:
        // 233.276 ms, where the second walk's 20 GETs cost 190.24 ms more.
        let spent = 22 * 9_512_000 + 12_012_000 + 12_000_000;
        assert_eq!(gc.elapsed(), Duration::from_nanos(spent));
    }

    #[test]
    fn a_pass_compacts_its_rings_in_one_wave() {
        // The same 21 live rings on the paper's rack, three of them holding
        // a file's tombstone: the compactions are one wave, so the pass
        // spends the walk and one compaction, and its requests are those of
        // a serial pass.
        use h2util::BackendCounts;
        use std::time::Duration;
        let fs = H2Cloud::new(H2Config::default());
        let mut ctx = OpCtx::new(fs.cost_model());
        fs.create_account(&mut ctx, "alice").unwrap();
        for i in 0..20 {
            fs.mkdir(&mut ctx, "alice", &p(&format!("/d{i}"))).unwrap();
        }
        for i in 0..3 {
            let f = p(&format!("/d{i}/f"));
            fs.write(&mut ctx, "alice", &f, FileContent::from_str("x"))
                .unwrap();
            fs.delete_file(&mut ctx, "alice", &f).unwrap();
        }
        let mut gc = OpCtx::new(fs.cost_model());
        let report = collect(&fs, &mut gc, "alice", far_future()).unwrap();
        let compacted = GcReport {
            tuples_compacted: 3,
            objects_deleted: 0,
            rings_rewritten: 3,
            deletes_skipped: 0,
        };
        assert_eq!(report, compacted);
        // The walk's 21 GETs, then per compacted ring a GET, the PUT and
        // the content DELETE.
        let counts = BackendCounts {
            gets: 24,
            puts: 3,
            deletes: 3,
            ..BackendCounts::default()
        };
        assert_eq!(gc.counts(), counts);
        // A compaction is 9.512 + 12.012 + 12 ms, and the three take one
        // compaction's time: 233.276 ms, as with one compacted ring. A
        // serial pass spends 67.048 ms more.
        let spent = 21 * 9_512_000 + 9_512_000 + 12_012_000 + 12_000_000;
        assert_eq!(gc.elapsed(), Duration::from_nanos(spent));
    }

    #[test]
    fn gc_is_idempotent() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.write(&mut ctx, "alice", &p("/d/f"), FileContent::from_str("x"))
            .unwrap();
        fs.rmdir(&mut ctx, "alice", &p("/d")).unwrap();
        collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        let second = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert_eq!(second, GcReport::default());
    }
}
