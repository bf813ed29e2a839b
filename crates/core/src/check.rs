//! `fsck` for H2: verify the on-cloud representation invariants.
//!
//! H2 spreads one directory across several objects (a descriptor under the
//! parent namespace, a NameRing under its own namespace, plus the parent's
//! NameRing tuple). This checker walks an account's live tree and verifies
//! that the pieces agree:
//!
//! 1. every live directory tuple has a parseable descriptor object whose
//!    namespace matches the tuple's;
//! 2. every live directory's NameRing object exists (or is validly empty)
//!    and its body is canonical: re-formatting the parsed ring reproduces
//!    it byte for byte (the parser's append-only fast path relies on
//!    Formatter order);
//! 3. every live file tuple has a content object, and the object's size
//!    matches the tuple's recorded size;
//! 4. no two live directory tuples share a namespace (each NameRing has
//!    exactly one live owner);
//! 5. timestamps in tuples are never newer than the issuing middleware
//!    clocks would allow (sanity: no timestamps from the far future);
//! 6. with the CAS content plane active, every file's content re-reads
//!    cleanly — the CAS read path re-hashes every branch and leaf block
//!    against its content address, so a clean read is an end-to-end
//!    integrity proof of the file's whole block tree;
//! 7. no tombstone marked reclaimed names a live object: GC sends no
//!    DELETE for it, so one that exists would never be reclaimed. This
//!    costs one HEAD per marked tombstone.
//!
//! Used by integration tests after random workloads, failure injection and
//! GC — and usable by operators the way a real deployment would run a
//! nightly consistency audit.

use std::collections::{HashMap, HashSet};

use h2util::{H2Error, NamespaceId, OpCtx, Result};
use swiftsim::ObjectStore;

use crate::fs::H2Cloud;
use crate::keys::H2Keys;
use crate::namering::ChildRef;

/// Outcome of one fsck pass.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Live directories visited (excluding the root).
    pub dirs: usize,
    /// Live files visited.
    pub files: usize,
    /// Tombstoned tuples seen (awaiting GC — not a violation).
    pub tombstones: usize,
    /// Human-readable invariant violations.
    pub violations: Vec<String>,
}

impl FsckReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run a full consistency check over `account`'s tree.
pub fn fsck(fs: &H2Cloud, ctx: &mut OpCtx, account: &str) -> Result<FsckReport> {
    let keys = H2Keys::new(account);
    let mw = fs.layer().mw_for_account(account).clone();
    let mut report = FsckReport::default();
    let mut seen_ns: HashMap<NamespaceId, String> = HashMap::new();
    let mut stack: Vec<(NamespaceId, String)> = vec![(NamespaceId::ROOT, "/".to_string())];
    let mut visited: HashSet<NamespaceId> = HashSet::new();
    visited.insert(NamespaceId::ROOT);

    while let Some((ns, dir_path)) = stack.pop() {
        let ring = mw.read_ring_view(ctx, &keys, ns)?;
        for (name, tuple) in ring.iter() {
            let child_path = if dir_path == "/" {
                format!("/{name}")
            } else {
                format!("{dir_path}/{name}")
            };
            if tuple.deleted {
                report.tombstones += 1;
                // (7) a marked tombstone's object is gone.
                if tuple.reclaimed {
                    match fs.cluster().head(ctx, &keys.child(ns, name)) {
                        Ok(_) => report.violations.push(format!(
                            "{child_path}: reclaimed tombstone names a live object"
                        )),
                        Err(H2Error::NotFound(_)) => {}
                        Err(e) => report.violations.push(format!(
                            "{child_path}: reclaimed tombstone's object unreadable: {e}"
                        )),
                    }
                }
                continue;
            }
            match tuple.child {
                ChildRef::Dir { ns: child_ns } => {
                    report.dirs += 1;
                    // (4) unique live owner per namespace.
                    if let Some(other) = seen_ns.insert(child_ns, child_path.clone()) {
                        report.violations.push(format!(
                            "namespace {child_ns} referenced live by both {other} and {child_path}"
                        ));
                    }
                    // (1) descriptor exists, parses, and agrees.
                    match mw.get_descriptor(ctx, &keys, ns, name) {
                        Ok(desc) => {
                            if desc.ns != child_ns {
                                report.violations.push(format!(
                                    "{child_path}: descriptor namespace {} != tuple namespace {child_ns}",
                                    desc.ns
                                ));
                            }
                        }
                        Err(H2Error::NotFound(_)) => report.violations.push(format!(
                            "{child_path}: live directory tuple without descriptor object"
                        )),
                        Err(e) => report
                            .violations
                            .push(format!("{child_path}: descriptor unreadable: {e}")),
                    }
                    // (2) the ring object must be fetchable (empty is fine —
                    // read_ring treats missing as empty, so only transport
                    // or corruption errors count) and in canonical form.
                    match mw.fetch_global_ring_audited(ctx, &keys, child_ns) {
                        Ok((_, true)) => {}
                        Ok((_, false)) => report.violations.push(format!(
                            "{child_path}: NameRing {child_ns} is not in canonical form \
                             (sorted, unique, as the Formatter writes it)"
                        )),
                        Err(e) => report
                            .violations
                            .push(format!("{child_path}: NameRing unreadable: {e}")),
                    }
                    if visited.insert(child_ns) {
                        stack.push((child_ns, child_path.clone()));
                    }
                }
                ChildRef::File { size } => {
                    report.files += 1;
                    // (3) content object present with matching size.
                    match fs.stat_relative(ctx, account, ns, name) {
                        Ok((obj_size, _)) => {
                            if obj_size != size {
                                report.violations.push(format!(
                                    "{child_path}: tuple size {size} != object size {obj_size}"
                                ));
                            }
                        }
                        Err(H2Error::NotFound(_)) => report.violations.push(format!(
                            "{child_path}: live file tuple without content object"
                        )),
                        Err(e) => report
                            .violations
                            .push(format!("{child_path}: content unreadable: {e}")),
                    }
                    // (6) CAS hash-integrity audit: re-read the content.
                    // Hash mismatches anywhere in the manifest → branch →
                    // leaf tree surface as Corrupt here.
                    if mw.cas_active() {
                        match mw.get_content(ctx, &keys, ns, name) {
                            Ok(payload) => {
                                if payload.len() != size {
                                    report.violations.push(format!(
                                        "{child_path}: reassembled content is {} bytes, tuple says {size}",
                                        payload.len()
                                    ));
                                }
                            }
                            // Already reported by (3).
                            Err(H2Error::NotFound(_)) => {}
                            Err(e) => report
                                .violations
                                .push(format!("{child_path}: content fails CAS verification: {e}")),
                        }
                    }
                }
            }
            // (5) timestamps from the far future are clock corruption.
            if tuple.ts.millis > 4_000_000_000_000 {
                report.violations.push(format!(
                    "{child_path}: tuple timestamp {} is in the far future",
                    tuple.ts
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::H2Config;
    use h2fsapi::{CloudFs, FileContent, FsPath};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn setup() -> (H2Cloud, OpCtx) {
        let fs = H2Cloud::new(H2Config::for_test());
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn clean_tree_passes() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap();
        fs.write(&mut ctx, "alice", &p("/a/b/f"), FileContent::Simulated(123))
            .unwrap();
        fs.delete_file(&mut ctx, "alice", &p("/a/b/f")).unwrap();
        fs.write(&mut ctx, "alice", &p("/top"), FileContent::from_str("x"))
            .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.dirs, 2);
        assert_eq!(report.files, 1);
        assert_eq!(report.tombstones, 1);
    }

    #[test]
    fn clean_after_moves_copies_and_gc() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
        for i in 0..5 {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/src/f{i}")),
                FileContent::Simulated(10 + i),
            )
            .unwrap();
        }
        fs.copy(&mut ctx, "alice", &p("/src"), &p("/copy")).unwrap();
        fs.mv(&mut ctx, "alice", &p("/src"), &p("/moved")).unwrap();
        fs.rmdir(&mut ctx, "alice", &p("/copy")).unwrap();
        crate::gc::collect(
            &fs,
            &mut ctx,
            "alice",
            h2util::Timestamp::new(u64::MAX, 0, h2util::NodeId(0)),
        )
        .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.dirs, 1);
        assert_eq!(report.files, 5);
    }

    #[test]
    fn detects_missing_content_object() {
        let (fs, mut ctx) = setup();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(7))
            .unwrap();
        // Vandalise: delete the content object directly in the cloud.
        let keys = crate::keys::H2Keys::new("alice");
        fs.cluster()
            .delete(&mut ctx, &keys.child(h2util::NamespaceId::ROOT, "f"))
            .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("without content object"));
    }

    #[test]
    fn detects_missing_descriptor() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        let keys = crate::keys::H2Keys::new("alice");
        fs.cluster()
            .delete(&mut ctx, &keys.child(h2util::NamespaceId::ROOT, "d"))
            .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(!report.is_clean());
        assert!(report.violations[0].contains("without descriptor"));
    }

    #[test]
    fn cas_audit_detects_tampered_block() {
        // The test profile is the tuned one: the CAS plane is on.
        let fs = H2Cloud::new(H2Config::for_test());
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        // One leaf's worth of bytes: a shorter file has no block tree.
        let leaf = h2util::chunker::ChunkParams::default().min as usize;
        let precious: Vec<u8> = (0..leaf).map(|i| (i % 251) as u8).collect();
        fs.write(
            &mut ctx,
            "alice",
            &p("/f"),
            FileContent::Inline(h2util::SharedBuf::from_slice(&precious)),
        )
        .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        // Vandalise the leaf block behind the manifest's first entry.
        let keys = crate::keys::H2Keys::new("alice");
        let manifest = fs
            .cluster()
            .get(&mut ctx, &keys.child(h2util::NamespaceId::ROOT, "f"))
            .unwrap();
        let m =
            crate::formatter::cas_manifest_from_str(manifest.payload.as_str().unwrap()).unwrap();
        let block = swiftsim::Cluster::cas_block_key(&m.entries[0].0.to_hex());
        fs.cluster()
            .put(
                &mut ctx,
                &block,
                swiftsim::Payload::from_static("garbage"),
                swiftsim::Meta::new(),
            )
            .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("CAS verification")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn cas_audit_detects_a_tampered_small_file() {
        // A file shorter than one leaf is one whole object on the CAS
        // plane: the content address in its meta is what the audit checks.
        let (fs, mut ctx) = setup();
        fs.write(
            &mut ctx,
            "alice",
            &p("/f"),
            FileContent::from_str("precious bytes"),
        )
        .unwrap();
        assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
        // Vandalise the bytes and keep the length and the meta: only the
        // content address can tell.
        let keys = H2Keys::new("alice");
        let key = keys.child(NamespaceId::ROOT, "f");
        let obj = fs.cluster().get(&mut ctx, &key).unwrap();
        fs.cluster()
            .put(
                &mut ctx,
                &key,
                swiftsim::Payload::from_static("precious BYTES"),
                obj.meta,
            )
            .unwrap();
        let mw = fs.layer().mw_for_account("alice").clone();
        let read = mw.get_content(&mut ctx, &keys, NamespaceId::ROOT, "f");
        assert!(matches!(read, Err(H2Error::Corrupt(_))), "{read:?}");
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(
            report.violations[0].contains("CAS verification: corrupt object"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn detects_a_ring_body_out_of_formatter_order() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        for name in ["a", "b", "c"] {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/d/{name}")),
                FileContent::Simulated(1),
            )
            .unwrap();
        }
        let keys = H2Keys::new("alice");
        let mw = fs.layer().mw_for_account("alice").clone();
        let root = mw.read_ring(&mut ctx, &keys, NamespaceId::ROOT).unwrap();
        let Some(ChildRef::Dir { ns }) = root.get("d").map(|t| t.child) else {
            panic!("/d is a directory");
        };
        let ring = mw.fetch_global_ring(&mut ctx, &keys, ns).unwrap();
        // Plant the same tuples in reverse name order.
        let body = crate::formatter::namering_to_string(&ring);
        let mut lines: Vec<&str> = body.lines().collect();
        lines[1..].reverse();
        let planted = lines.join("\n") + "\n";
        fs.cluster()
            .put(
                &mut ctx,
                &keys.namering(ns),
                swiftsim::Payload::from_string(planted),
                swiftsim::Meta::new(),
            )
            .unwrap();
        mw.invalidate_ring("alice", ns);
        // The parser falls back to the merge rule: reads are unaffected.
        assert_eq!(mw.fetch_global_ring(&mut ctx, &keys, ns).unwrap(), ring);
        assert_eq!(
            fs.list(&mut ctx, "alice", &p("/d")).unwrap(),
            ["a", "b", "c"]
        );
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(
            report.violations[0].contains(&format!("NameRing {ns} is not in canonical form")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn detects_a_reclaimed_tombstone_naming_a_live_object() {
        let (fs, mut ctx) = setup();
        for name in ["/f", "/g"] {
            fs.write(&mut ctx, "alice", &p(name), FileContent::Simulated(7))
                .unwrap();
        }
        // Forge: tombstone both names without deleting their content, and
        // mark `f`'s reclaimed. An unmarked tombstone's object is garbage
        // GC deletes; a marked one's would never be reclaimed.
        let keys = H2Keys::new("alice");
        let mw = fs.layer().mw_for_account("alice").clone();
        let tomb = || crate::namering::Tuple::file(mw.tick(), 7).tombstone(mw.tick());
        let mut patch = crate::namering::NameRing::new();
        patch.apply("f", tomb().mark_reclaimed());
        patch.apply("g", tomb());
        mw.submit_patch(&mut ctx, &keys, NamespaceId::ROOT, patch)
            .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert_eq!(report.tombstones, 2);
        assert_eq!(
            report.violations,
            ["/f: reclaimed tombstone names a live object"]
        );
        // Once the object is gone, the mark is true.
        fs.cluster()
            .delete(&mut ctx, &keys.child(NamespaceId::ROOT, "f"))
            .unwrap();
        assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
    }

    #[test]
    fn detects_size_mismatch() {
        let (fs, mut ctx) = setup();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(100))
            .unwrap();
        // Vandalise: overwrite the object with different-sized content
        // without updating the NameRing tuple.
        let keys = crate::keys::H2Keys::new("alice");
        fs.cluster()
            .put(
                &mut ctx,
                &keys.child(h2util::NamespaceId::ROOT, "f"),
                swiftsim::Payload::simulated(999, "tampered"),
                swiftsim::Meta::new(),
            )
            .unwrap();
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(!report.is_clean());
        assert!(report.violations[0].contains("size"));
    }
}
