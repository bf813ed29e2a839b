//! The OpenStack Swift pseudo-filesystem: Consistent Hash over full file
//! paths, optionally accelerated by the per-container file-path DB (§2,
//! Figures 1b and 3).
//!
//! * Files are objects named by their full path (`home/alice/a.txt`);
//!   directories are zero-byte marker objects with a trailing slash
//!   (`home/alice/`). File access hashes the full path — O(1).
//! * Any operation that traverses or changes directory structure must touch
//!   every object under the prefix: RMDIR and MOVE re-key `n` objects,
//!   which is exactly the O(n) the paper measures in Figures 7 and 8.
//! * With the file-path DB (`with_db = true`, the "OpenStack Swift" row),
//!   directory enumeration binary-searches the sorted DB: LIST costs
//!   O(m·log N), COPY O(n + log N).
//! * Without it (`with_db = false`, the plain "Consistent Hash" row),
//!   enumeration pages through the entire flat listing: O(N).

use std::sync::Arc;

use h2fsapi::{CloudFs, DirEntry, EntryKind, FileContent, FsPath, StoreStats};
use h2util::{H2Error, OpCtx, PrimKind, Result};
use swiftsim::{
    Cluster, ClusterConfig, ListEntry, ListOptions, Meta, ObjectKey, ObjectStore, Payload,
};

/// Container holding each account's pseudo-filesystem.
const FS_CONTAINER: &str = "fs";
/// Page size of plain-CH full listings.
const SCAN_PAGE: u64 = 1000;

/// The Swift pseudo-filesystem baseline.
pub struct SwiftFs {
    cluster: Arc<Cluster>,
    with_db: bool,
}

impl SwiftFs {
    /// Wrap an existing cluster. `with_db` selects the CH+file-path-DB row
    /// (true, i.e. OpenStack Swift) or the plain CH row (false).
    pub fn new(cluster: Arc<Cluster>, with_db: bool) -> Self {
        SwiftFs { cluster, with_db }
    }

    /// Stand-alone rack-shaped instance.
    pub fn rack(with_db: bool) -> Self {
        SwiftFs::new(Cluster::new(ClusterConfig::default()), with_db)
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn cost_model(&self) -> Arc<h2util::CostModel> {
        self.cluster.cost_model()
    }

    fn obj_name(path: &FsPath) -> String {
        path.components().join("/")
    }

    fn marker_name(path: &FsPath) -> String {
        let mut s = Self::obj_name(path);
        s.push('/');
        s
    }

    fn key(&self, account: &str, name: &str) -> ObjectKey {
        ObjectKey::new(account, FS_CONTAINER, name)
    }

    fn check_account(&self, account: &str) -> Result<()> {
        if self.cluster.account_exists(account) {
            Ok(())
        } else {
            Err(H2Error::NoSuchAccount(account.to_string()))
        }
    }

    /// Does a directory exist (root always does)?
    fn dir_exists(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<bool> {
        if path.is_root() {
            return Ok(true);
        }
        self.cluster
            .exists(ctx, &self.key(account, &Self::marker_name(path)))
    }

    /// Extra charges that model the enumeration strategy of each variant.
    /// `matched` rows were returned; the DB (or flat listing) holds
    /// `total` rows. One base `DbQuery` was already charged by the cluster.
    fn charge_enumeration(&self, ctx: &mut OpCtx, total: u64, matched: usize) {
        let model = ctx.model.clone();
        if self.with_db {
            // O(m·log N): one binary search per returned row (the paper's
            // stated complexity for Swift's DB-assisted LIST).
            for _ in 1..matched.max(1) {
                ctx.charge(PrimKind::DbQuery, model.db_query_cost(total));
            }
        } else {
            // Plain CH: page through the entire flat namespace.
            let pages = total.div_ceil(SCAN_PAGE).max(1);
            for _ in 0..pages {
                ctx.charge(PrimKind::Get, model.get_cost((SCAN_PAGE as usize) * 64));
            }
            ctx.charge_time(model.per_entry_cpu * total as u32);
        }
    }

    /// Enumerate all index rows under `prefix` (no delimiter).
    fn enumerate(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        prefix: &str,
    ) -> Result<Vec<(String, u64, u64, String)>> {
        let total = self.cluster.index_rows(account, FS_CONTAINER);
        let rows = self.cluster.list(
            ctx,
            account,
            FS_CONTAINER,
            &ListOptions::with_prefix(prefix),
        )?;
        self.charge_enumeration(ctx, total, rows.len());
        Ok(rows
            .into_iter()
            .filter_map(|e| match e {
                ListEntry::Object {
                    name,
                    size,
                    modified_ms,
                    content_type,
                } => Some((name, size, modified_ms, content_type)),
                ListEntry::Subdir { .. } => None,
            })
            .collect())
    }

    fn put_marker(&self, ctx: &mut OpCtx, account: &str, name: &str) -> Result<()> {
        let mut meta = Meta::new();
        meta.insert("content-type".into(), "application/directory".into());
        self.cluster.put(
            ctx,
            &self.key(account, name),
            Payload::Inline(bytes::Bytes::new()),
            meta,
        )
    }
}

impl CloudFs for SwiftFs {
    fn name(&self) -> &'static str {
        if self.with_db {
            "Swift (CH+DB)"
        } else {
            "Plain CH"
        }
    }

    fn uses_separate_index(&self) -> bool {
        false // single cloud; the DB lives on the storage nodes
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.cluster.create_account_ctx(ctx, account)?;
        // The container row is one more account-DB update.
        let model = ctx.model.clone();
        ctx.charge(PrimKind::DbUpdate, model.db_update_cost());
        self.cluster.create_container(account, FS_CONTAINER, true)
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.cluster.delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.check_account(account)?;
        if path.is_root() {
            return Err(H2Error::AlreadyExists("/".into()));
        }
        let parent = path.parent().expect("non-root");
        if !self.dir_exists(ctx, account, &parent)? {
            return Err(H2Error::NotFound(parent.to_string()));
        }
        if self.dir_exists(ctx, account, path)?
            || self
                .cluster
                .exists(ctx, &self.key(account, &Self::obj_name(path)))?
        {
            return Err(H2Error::AlreadyExists(path.to_string()));
        }
        self.put_marker(ctx, account, &Self::marker_name(path))
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.check_account(account)?;
        if path.is_root() {
            return Err(H2Error::InvalidPath("cannot remove /".into()));
        }
        if !self.dir_exists(ctx, account, path)? {
            // Maybe it is a file.
            if self
                .cluster
                .exists(ctx, &self.key(account, &Self::obj_name(path)))?
            {
                return Err(H2Error::NotADirectory(path.to_string()));
            }
            return Err(H2Error::NotFound(path.to_string()));
        }
        // O(n): every object under the prefix must be deleted individually.
        let prefix = Self::marker_name(path);
        let rows = self.enumerate(ctx, account, &prefix)?;
        for (name, _, _, _) in rows {
            // The listing includes the directory's own marker; it is
            // deleted in this same sweep.
            self.cluster.delete(ctx, &self.key(account, &name))?;
        }
        Ok(())
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.check_account(account)?;
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot move to or from /".into()));
        }
        if from == to {
            // A self-move is a no-op, but not a free one: the client still
            // paid the source lookup (one HEAD) before concluding so.
            let model = ctx.model.clone();
            ctx.charge(PrimKind::Head, model.head_cost());
            return Ok(());
        }
        if from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot move {from} inside itself"
            )));
        }
        // Canonical order: source first, then destination parent, then
        // destination conflict.
        let from_file = Self::obj_name(from);
        let src_is_file = self.cluster.exists(ctx, &self.key(account, &from_file))?;
        if !src_is_file && !self.dir_exists(ctx, account, from)? {
            return Err(H2Error::NotFound(from.to_string()));
        }
        let to_parent = to.parent().expect("non-root");
        if !self.dir_exists(ctx, account, &to_parent)? {
            return Err(H2Error::NotFound(to_parent.to_string()));
        }
        if self.dir_exists(ctx, account, to)?
            || self
                .cluster
                .exists(ctx, &self.key(account, &Self::obj_name(to)))?
        {
            return Err(H2Error::AlreadyExists(to.to_string()));
        }
        if src_is_file {
            // Single file: copy + delete (full path changes → re-keyed).
            self.cluster.copy(
                ctx,
                &self.key(account, &from_file),
                &self.key(account, &Self::obj_name(to)),
            )?;
            return self.cluster.delete(ctx, &self.key(account, &from_file));
        }
        // Directory: every object under the prefix is re-keyed — O(n).
        let src_prefix = Self::marker_name(from);
        let dst_prefix = Self::marker_name(to);
        let rows = self.enumerate(ctx, account, &src_prefix)?;
        for (name, _, _, _) in rows {
            // Rows include the source marker itself, which re-keys to the
            // destination marker.
            let new_name = format!("{dst_prefix}{}", &name[src_prefix.len()..]);
            self.cluster.copy(
                ctx,
                &self.key(account, &name),
                &self.key(account, &new_name),
            )?;
            self.cluster.delete(ctx, &self.key(account, &name))?;
        }
        Ok(())
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.check_account(account)?;
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot copy to or from /".into()));
        }
        if from == to || from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot copy {from} onto/inside itself"
            )));
        }
        // Canonical order: source, destination parent, destination.
        let from_file = Self::obj_name(from);
        let src_is_file = self.cluster.exists(ctx, &self.key(account, &from_file))?;
        if !src_is_file && !self.dir_exists(ctx, account, from)? {
            return Err(H2Error::NotFound(from.to_string()));
        }
        let to_parent = to.parent().expect("non-root");
        if !self.dir_exists(ctx, account, &to_parent)? {
            return Err(H2Error::NotFound(to_parent.to_string()));
        }
        if self.dir_exists(ctx, account, to)?
            || self
                .cluster
                .exists(ctx, &self.key(account, &Self::obj_name(to)))?
        {
            return Err(H2Error::AlreadyExists(to.to_string()));
        }
        if src_is_file {
            return self.cluster.copy(
                ctx,
                &self.key(account, &from_file),
                &self.key(account, &Self::obj_name(to)),
            );
        }
        let src_prefix = Self::marker_name(from);
        let dst_prefix = Self::marker_name(to);
        let rows = self.enumerate(ctx, account, &src_prefix)?;
        for (name, _, _, _) in rows {
            let new_name = format!("{dst_prefix}{}", &name[src_prefix.len()..]);
            self.cluster.copy(
                ctx,
                &self.key(account, &name),
                &self.key(account, &new_name),
            )?;
        }
        self.put_marker(ctx, account, &dst_prefix)
    }

    fn list(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<Vec<String>> {
        Ok(self
            .list_detailed(ctx, account, path)?
            .into_iter()
            .map(|e| e.name)
            .collect())
    }

    fn list_detailed(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        self.check_account(account)?;
        if !self.dir_exists(ctx, account, path)? {
            if self
                .cluster
                .exists(ctx, &self.key(account, &Self::obj_name(path)))?
            {
                return Err(H2Error::NotADirectory(path.to_string()));
            }
            return Err(H2Error::NotFound(path.to_string()));
        }
        let prefix = if path.is_root() {
            String::new()
        } else {
            Self::marker_name(path)
        };
        let total = self.cluster.index_rows(account, FS_CONTAINER);
        let rows = self.cluster.list(
            ctx,
            account,
            FS_CONTAINER,
            &ListOptions::dir_level(&prefix, '/'),
        )?;
        self.charge_enumeration(ctx, total, rows.len());
        Ok(rows
            .into_iter()
            .filter_map(|e| match e {
                ListEntry::Object {
                    name,
                    size,
                    modified_ms,
                    content_type,
                } => {
                    if content_type == "application/directory" {
                        // A marker directly at this level would be the
                        // directory's own marker; skip.
                        None
                    } else {
                        Some(DirEntry {
                            name: name[prefix.len()..].to_string(),
                            kind: EntryKind::File,
                            size,
                            modified_ms,
                        })
                    }
                }
                ListEntry::Subdir { prefix: sub } => Some(DirEntry {
                    name: sub[prefix.len()..sub.len() - 1].to_string(),
                    kind: EntryKind::Directory,
                    size: 0,
                    modified_ms: 0,
                }),
            })
            .collect())
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        self.check_account(account)?;
        let Some(_) = path.name() else {
            return Err(H2Error::IsADirectory("/".into()));
        };
        let parent = path.parent().expect("non-root");
        if !self.dir_exists(ctx, account, &parent)? {
            return Err(H2Error::NotFound(parent.to_string()));
        }
        if self.dir_exists(ctx, account, path)? {
            return Err(H2Error::IsADirectory(path.to_string()));
        }
        let payload = match content {
            FileContent::Inline(v) => Payload::Inline(v.into_bytes()),
            FileContent::Simulated(n) => Payload::simulated(n, &path.to_string()),
            FileContent::SimulatedShared { size, seed } => {
                Payload::simulated(size, &format!("shared:{seed}"))
            }
        };
        let mut meta = Meta::new();
        meta.insert("content-type".into(), "application/octet-stream".into());
        self.cluster.put(
            ctx,
            &self.key(account, &Self::obj_name(path)),
            payload,
            meta,
        )
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        self.check_account(account)?;
        if path.is_root() {
            return Err(H2Error::IsADirectory("/".into()));
        }
        // O(1): one hash of the full path, one GET.
        match self
            .cluster
            .get(ctx, &self.key(account, &Self::obj_name(path)))
        {
            Ok(obj) => Ok(match obj.payload {
                Payload::Inline(b) => FileContent::Inline(h2util::SharedBuf::from_bytes(b)),
                Payload::Simulated { size, .. } => FileContent::Simulated(size),
            }),
            Err(H2Error::NotFound(_)) if self.dir_exists(ctx, account, path)? => {
                Err(H2Error::IsADirectory(path.to_string()))
            }
            Err(e) => Err(e),
        }
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.check_account(account)?;
        if path.is_root() {
            return Err(H2Error::IsADirectory("/".into()));
        }
        match self
            .cluster
            .delete(ctx, &self.key(account, &Self::obj_name(path)))
        {
            Err(H2Error::NotFound(_)) if self.dir_exists(ctx, account, path)? => {
                Err(H2Error::IsADirectory(path.to_string()))
            }
            other => other,
        }
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        self.check_account(account)?;
        if path.is_root() {
            // Root is synthesized, but the client still paid the account
            // HEAD that proves it exists.
            let model = ctx.model.clone();
            ctx.charge(PrimKind::Head, model.head_cost());
            return Ok(DirEntry {
                name: "/".into(),
                kind: EntryKind::Directory,
                size: 0,
                modified_ms: 0,
            });
        }
        match self
            .cluster
            .head(ctx, &self.key(account, &Self::obj_name(path)))
        {
            Ok(info) => Ok(DirEntry {
                name: path.name().unwrap().to_string(),
                kind: EntryKind::File,
                size: info.size,
                modified_ms: info.modified_ms,
            }),
            Err(H2Error::NotFound(_)) => {
                let info = self
                    .cluster
                    .head(ctx, &self.key(account, &Self::marker_name(path)))
                    .map_err(|_| H2Error::NotFound(path.to_string()))?;
                Ok(DirEntry {
                    name: path.name().unwrap().to_string(),
                    kind: EntryKind::Directory,
                    size: 0,
                    modified_ms: info.modified_ms,
                })
            }
            Err(e) => Err(e),
        }
    }

    fn quiesce(&self) {
        // When the cluster runs with asynchronous container updates, this
        // is the container-updater daemon catching up.
        self.cluster.flush_index_updates();
    }

    fn storage_stats(&self) -> StoreStats {
        StoreStats {
            objects: self.cluster.object_count(),
            bytes: self.cluster.byte_count(),
            index_records: if self.with_db {
                self.cluster.total_index_rows()
            } else {
                0
            },
            index_bytes: if self.with_db {
                self.cluster.total_index_bytes()
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn setup() -> (SwiftFs, OpCtx) {
        let cluster = Cluster::new(ClusterConfig::tiny());
        let fs = SwiftFs::new(cluster, true);
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn mkdir_write_list_roundtrip() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/home")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/home/a.txt"),
            FileContent::from_str("hi"),
        )
        .unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/home/sub")).unwrap();
        let rows = fs.list_detailed(&mut ctx, "alice", &p("/home")).unwrap();
        let names: Vec<_> = rows.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.txt", "sub"]);
        assert_eq!(rows[0].kind, EntryKind::File);
        assert_eq!(rows[1].kind, EntryKind::Directory);
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/home/a.txt")).unwrap(),
            FileContent::from_str("hi")
        );
    }

    #[test]
    fn parent_must_exist() {
        let (fs, mut ctx) = setup();
        assert_eq!(
            fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap_err().code(),
            "not-found"
        );
        assert_eq!(
            fs.write(&mut ctx, "alice", &p("/a/f"), FileContent::from_str("x"))
                .unwrap_err()
                .code(),
            "not-found"
        );
    }

    #[test]
    fn move_directory_rekeys_every_object() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
        for i in 0..5 {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/src/f{i}")),
                FileContent::from_str("x"),
            )
            .unwrap();
        }
        let mut mv_ctx = OpCtx::for_test();
        fs.mv(&mut mv_ctx, "alice", &p("/src"), &p("/dst")).unwrap();
        // O(n): 5 copies + 5 deletes at least.
        assert!(mv_ctx.counts().copies >= 5);
        assert!(mv_ctx.counts().deletes >= 5);
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/dst/f3")).unwrap(),
            FileContent::from_str("x")
        );
        assert!(fs.stat(&mut ctx, "alice", &p("/src")).is_err());
    }

    #[test]
    fn rmdir_deletes_subtree() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/d/nested")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/d/nested/f"),
            FileContent::from_str("x"),
        )
        .unwrap();
        fs.rmdir(&mut ctx, "alice", &p("/d")).unwrap();
        assert!(fs.stat(&mut ctx, "alice", &p("/d")).is_err());
        assert!(fs.read(&mut ctx, "alice", &p("/d/nested/f")).is_err());
        assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    }

    #[test]
    fn copy_directory_preserves_source() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.write(&mut ctx, "alice", &p("/a/f"), FileContent::from_str("x"))
            .unwrap();
        fs.copy(&mut ctx, "alice", &p("/a"), &p("/b")).unwrap();
        assert!(fs.read(&mut ctx, "alice", &p("/a/f")).is_ok());
        assert!(fs.read(&mut ctx, "alice", &p("/b/f")).is_ok());
    }

    #[test]
    fn file_access_is_a_single_get() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/very")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/very/deep")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/very/deep/f"),
            FileContent::from_str("x"),
        )
        .unwrap();
        let mut read_ctx = OpCtx::for_test();
        fs.read(&mut read_ctx, "alice", &p("/very/deep/f")).unwrap();
        assert_eq!(read_ctx.counts().gets, 1);
        assert_eq!(read_ctx.counts().total(), 1);
    }

    #[test]
    fn move_cycle_and_conflict_rejected() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/b")).unwrap();
        assert_eq!(
            fs.mv(&mut ctx, "alice", &p("/a"), &p("/a/inner"))
                .unwrap_err()
                .code(),
            "invalid-path"
        );
        assert_eq!(
            fs.mv(&mut ctx, "alice", &p("/a"), &p("/b"))
                .unwrap_err()
                .code(),
            "already-exists"
        );
    }

    #[test]
    fn dir_file_kind_confusion_is_caught() {
        let (fs, mut ctx) = setup();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
            .unwrap();
        assert_eq!(
            fs.rmdir(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
            "not-a-directory"
        );
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/d")).unwrap_err().code(),
            "is-a-directory"
        );
        assert_eq!(
            fs.delete_file(&mut ctx, "alice", &p("/d"))
                .unwrap_err()
                .code(),
            "is-a-directory"
        );
        assert_eq!(
            fs.mkdir(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
            "already-exists"
        );
    }

    #[test]
    fn stats_report_db_rows_only_with_db() {
        let (fs, mut ctx) = setup();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
            .unwrap();
        assert!(fs.storage_stats().index_records > 0);
        let plain = SwiftFs::new(Cluster::new(ClusterConfig::tiny()), false);
        plain.create_account(&mut ctx, "bob").unwrap();
        plain
            .write(&mut ctx, "bob", &p("/f"), FileContent::from_str("x"))
            .unwrap();
        assert_eq!(plain.storage_stats().index_records, 0);
        assert_eq!(plain.name(), "Plain CH");
    }
}
