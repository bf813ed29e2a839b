//! Lazy reclamation: compacting tombstones and deleting unreachable state.
//!
//! The paper defers "really removing the tuple from the NameRing … until
//! this NameRing is in use" (§3.3.2) and removes directories in O(1) by
//! tombstoning the parent tuple only — leaving the subtree's objects in the
//! cloud. This module is the background pass that finishes the job:
//!
//! 1. walk the live tree from the root, NameRing by NameRing;
//! 2. compact each ring: tombstones older than the horizon are dropped
//!    (the ring object is rewritten if anything changed);
//! 3. for every dropped directory tombstone, recursively delete the whole
//!    orphaned subtree (descriptors, NameRings, content objects);
//! 4. for every dropped file tombstone, delete the content object (a no-op
//!    if the file delete already reclaimed it eagerly).
//!
//! GC is driven explicitly ([`collect`]) — benches and examples call it the
//! way an operator would schedule a nightly pass.

use h2util::{H2Error, NamespaceId, OpCtx, Result, Timestamp};
use swiftsim::ObjectStore;

use crate::fs::H2Cloud;
use crate::keys::H2Keys;
use crate::middleware::H2Middleware;
use crate::namering::ChildRef;

/// Outcome of one GC pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Tombstoned tuples compacted out of NameRings.
    pub tuples_compacted: usize,
    /// Objects (descriptors, rings, file content) deleted from the cloud.
    pub objects_deleted: usize,
    /// NameRing objects rewritten.
    pub rings_rewritten: usize,
}

/// Run a GC pass over `account`'s tree. Tombstones with timestamps `<
/// horizon` are compacted; pass the current clock reading to reclaim
/// everything, or an older stamp to keep a concurrency grace window.
pub fn collect(
    fs: &H2Cloud,
    ctx: &mut OpCtx,
    account: &str,
    horizon: Timestamp,
) -> Result<GcReport> {
    let keys = H2Keys::new(account);
    let mw = fs.layer().mw_for_account(account).clone();
    let mut report = GcReport::default();
    // Pass 1: namespaces reachable through *live* tuples. A MOVE leaves a
    // tombstone in the old parent that still carries the directory's
    // namespace — the subtree must survive because the new parent's live
    // tuple points at the same namespace.
    let mut live = std::collections::HashSet::new();
    live.insert(NamespaceId::ROOT);
    collect_live(&mw, ctx, &keys, NamespaceId::ROOT, &mut live)?;
    // Pass 2: compact and reclaim.
    walk_and_compact(
        fs,
        &mw,
        ctx,
        &keys,
        NamespaceId::ROOT,
        horizon,
        &live,
        &mut report,
    )?;
    Ok(report)
}

/// Worklist traversal, not recursion: directory chains can be arbitrarily
/// deep (one stack frame per level overflowed around a few thousand), so
/// every tree walk in this module drives an explicit stack instead.
fn collect_live(
    mw: &H2Middleware,
    ctx: &mut OpCtx,
    keys: &H2Keys,
    ns: NamespaceId,
    live: &mut std::collections::HashSet<NamespaceId>,
) -> Result<()> {
    let mut stack = vec![ns];
    while let Some(ns) = stack.pop() {
        let ring = mw.read_ring(ctx, keys, ns)?;
        for (_, tuple) in ring.live() {
            if let ChildRef::Dir { ns: child } = tuple.child {
                if live.insert(child) {
                    stack.push(child);
                }
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn walk_and_compact(
    fs: &H2Cloud,
    mw: &H2Middleware,
    ctx: &mut OpCtx,
    keys: &H2Keys,
    ns: NamespaceId,
    horizon: Timestamp,
    live: &std::collections::HashSet<NamespaceId>,
    report: &mut GcReport,
) -> Result<()> {
    let mut stack = vec![ns];
    while let Some(ns) = stack.pop() {
        let mut ring = mw.read_ring(ctx, keys, ns)?;
        let removed = ring.compact(horizon);
        if !removed.is_empty() {
            mw.write_ring(ctx, keys, ns, &ring)?;
            // Floor every middleware's local ring to the GC horizon. A peer
            // whose local version still held a compacted tombstone would
            // otherwise fold it back into the global object on its next
            // merge — resurrecting the tuple GC just reclaimed.
            for m in fs.layer().middlewares() {
                m.gc_floor(keys.account(), ns, horizon);
            }
            report.rings_rewritten += 1;
            report.tuples_compacted += removed.len();
            for (name, tuple) in removed {
                match tuple.child {
                    ChildRef::File { .. } => {
                        delete_quiet(mw.delete_content(ctx, keys, ns, &name), report)?;
                    }
                    // Only reclaim subtrees nothing live points at: a MOVE's
                    // tombstone still names the (re-parented, live) namespace.
                    ChildRef::Dir { ns: dead_ns } if !live.contains(&dead_ns) => {
                        delete_subtree(fs, mw, ctx, keys, dead_ns, report)?;
                        // The descriptor.
                        delete_quiet(fs.cluster().delete(ctx, &keys.child(ns, &name)), report)?;
                    }
                    ChildRef::Dir { .. } => {}
                }
            }
        }
        // Visit live children (worklist, not recursion — sibling order is
        // irrelevant, compaction is per-namespace).
        for (_, t) in ring.live() {
            if let ChildRef::Dir { ns: child } = t.child {
                stack.push(child);
            }
        }
    }
    Ok(())
}

/// Delete everything reachable from `ns` (the directory was tombstoned:
/// nothing live points here anymore).
fn delete_subtree(
    fs: &H2Cloud,
    mw: &H2Middleware,
    ctx: &mut OpCtx,
    keys: &H2Keys,
    ns: NamespaceId,
    report: &mut GcReport,
) -> Result<()> {
    let mut stack = vec![ns];
    while let Some(ns) = stack.pop() {
        let ring = mw.read_ring(ctx, keys, ns)?;
        for (name, tuple) in ring.iter() {
            match tuple.child {
                ChildRef::File { .. } => {
                    delete_quiet(mw.delete_content(ctx, keys, ns, name), report)?;
                }
                ChildRef::Dir { ns: child_ns } => {
                    stack.push(child_ns);
                    // The descriptor.
                    delete_quiet(fs.cluster().delete(ctx, &keys.child(ns, name)), report)?;
                }
            }
        }
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

/// Tally one object delete, tolerating its prior eager reclaim.
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
    fn deep_directory_chains_do_not_overflow_the_stack() {
        // Regression: collect_live / walk_and_compact / delete_subtree were
        // recursive — one stack frame per directory level — and blew the
        // stack on chains a few thousand deep. Built through middleware
        // primitives (O(depth)); fs.mkdir would resolve from the root each
        // time (O(depth²)).
        use crate::keys::DirDescriptor;
        use crate::namering::{NameRing, Tuple};
        let (fs, mut ctx) = setup();
        let mw = fs.layer().mw_for_account("alice").clone();
        let keys = H2Keys::new("alice");
        const DEPTH: usize = 5000;
        let mut parent = NamespaceId::ROOT;
        for i in 0..DEPTH {
            let child = mw.allocate_namespace();
            mw.create_ring(&mut ctx, &keys, child).unwrap();
            let name = format!("d{i}");
            mw.put_descriptor(
                &mut ctx,
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
            mw.submit_patch(&mut ctx, &keys, parent, patch).unwrap();
            parent = child;
        }
        // The live walk must traverse all 5k levels without recursing.
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert_eq!(report.tuples_compacted, 0);
        // Tombstone the chain's top link, then reclaim every level.
        fs.rmdir(&mut ctx, "alice", &p("/d0")).unwrap();
        let report = collect(&fs, &mut ctx, "alice", far_future()).unwrap();
        assert!(
            report.objects_deleted >= 2 * DEPTH - 1,
            "expected ~2 objects per level, got {report:?}"
        );
        // Only the root ring remains.
        assert_eq!(fs.storage_stats().objects, 1);
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
