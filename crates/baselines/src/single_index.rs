//! Single Index Server — the GFS/HDFS namenode architecture (§2).
//!
//! One metadata server holds the entire directory tree for every account;
//! file content lives in the object cloud. Directory operations are O(1)
//! pointer updates and file access is an O(d) in-memory walk plus one RPC,
//! so per-operation latency is excellent — the paper's objection is the
//! *centralised* architecture's scalability, not its speed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use h2fsapi::{CloudFs, DirEntry, EntryKind, FileContent, FsPath, StoreStats};
use h2util::{lock_rank, H2Error, OpCtx, OrderedMutex, PrimKind, Result};
use swiftsim::{Cluster, ClusterConfig, Meta, ObjectKey, ObjectStore, Payload};

use crate::tree::{Node, TreeIndex};

const CONTENT_CONTAINER: &str = "content";

/// The namenode filesystem.
pub struct SingleIndexFs {
    cluster: Arc<Cluster>,
    trees: OrderedMutex<HashMap<String, TreeIndex>>,
    next_object: AtomicU64,
    ms: AtomicU64,
    name: &'static str,
    separate_index: bool,
}

impl SingleIndexFs {
    pub fn new(cluster: Arc<Cluster>) -> Self {
        Self::with_flavor(cluster, "Single Index", true)
    }

    /// Shared constructor: the Static Partition baseline reuses the exact
    /// same mechanics (per-account tree + object cloud) under a different
    /// architectural label — see [`crate::static_partition`].
    pub(crate) fn with_flavor(
        cluster: Arc<Cluster>,
        name: &'static str,
        separate_index: bool,
    ) -> Self {
        SingleIndexFs {
            cluster,
            trees: OrderedMutex::new(
                lock_rank::BASELINE_STATE,
                "baselines.single_index",
                HashMap::new(),
            ),
            next_object: AtomicU64::new(1),
            ms: AtomicU64::new(1_600_000_000_000),
            name,
            separate_index,
        }
    }

    pub fn rack() -> Self {
        Self::new(Cluster::new(ClusterConfig::default()))
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn cost_model(&self) -> Arc<h2util::CostModel> {
        self.cluster.cost_model()
    }

    fn next_ms(&self) -> u64 {
        self.ms.fetch_add(1, Ordering::Relaxed)
    }

    fn new_object_name(&self) -> String {
        format!(
            "blob-{:016x}",
            self.next_object.fetch_add(1, Ordering::Relaxed)
        )
    }

    fn key(&self, account: &str, object: &str) -> ObjectKey {
        ObjectKey::new(account, CONTENT_CONTAINER, object)
    }

    fn rpc(&self, ctx: &mut OpCtx) {
        let cost = ctx.model.index_rpc_cost();
        ctx.charge(PrimKind::IndexRpc, cost);
    }

    fn with_tree<T>(
        &self,
        account: &str,
        f: impl FnOnce(&mut TreeIndex) -> Result<T>,
    ) -> Result<T> {
        let mut trees = self.trees.lock();
        let tree = trees
            .get_mut(account)
            .ok_or_else(|| H2Error::NoSuchAccount(account.to_string()))?;
        f(tree)
    }
}

impl CloudFs for SingleIndexFs {
    fn name(&self) -> &'static str {
        self.name
    }

    fn uses_separate_index(&self) -> bool {
        self.separate_index
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        // Seeding the per-account index tree is one round trip to the
        // index server on top of the account and container rows.
        self.rpc(ctx);
        self.cluster.create_account_ctx(ctx, account)?;
        let model = ctx.model.clone();
        ctx.charge(PrimKind::DbUpdate, model.db_update_cost());
        self.cluster
            .create_container(account, CONTENT_CONTAINER, false)?;
        self.trees
            .lock()
            .insert(account.to_string(), TreeIndex::new());
        Ok(())
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.rpc(ctx);
        self.trees.lock().remove(account);
        self.cluster.delete_account_ctx(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.rpc(ctx);
        let ms = self.next_ms();
        self.with_tree(account, |tree| {
            let (parent, name, _) = tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::AlreadyExists("/".into()),
                other => other,
            })?;
            tree.mkdir(parent, name, ms)
                .map(|_| ())
                .map_err(|e| match e {
                    H2Error::AlreadyExists(_) => H2Error::AlreadyExists(path.to_string()),
                    other => other,
                })
        })
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.rpc(ctx);
        if path.is_root() {
            return Err(H2Error::InvalidPath("cannot remove /".into()));
        }
        let orphaned = self.with_tree(account, |tree| {
            let r = tree.resolve(path)?;
            if !tree.get(r.id).expect("resolved").is_dir() {
                return Err(H2Error::NotADirectory(path.to_string()));
            }
            let (parent, name, _) = tree.resolve_parent(path)?;
            tree.detach(parent, name)?;
            Ok(tree.remove_subtree(r.id))
        })?;
        // Content reclamation happens asynchronously in the object cloud.
        let mut bg = OpCtx::new(ctx.model.clone());
        for obj in orphaned {
            let _ = self.cluster.delete(&mut bg, &self.key(account, &obj));
        }
        Ok(())
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.rpc(ctx);
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot move to or from /".into()));
        }
        if from == to {
            return Ok(());
        }
        if from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot move {from} inside itself"
            )));
        }
        let ms = self.next_ms();
        self.with_tree(account, |tree| {
            let (src_parent, src_name, _) = tree.resolve_parent(from)?;
            let (dst_parent, dst_name, _) = tree.resolve_parent(to)?;
            if tree.dir_children(dst_parent)?.contains_key(dst_name) {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            if !tree.dir_children(src_parent)?.contains_key(src_name) {
                return Err(H2Error::NotFound(from.to_string()));
            }
            let id = tree.detach(src_parent, src_name)?;
            tree.attach(dst_parent, dst_name, id, ms)
        })
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.rpc(ctx);
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot copy to or from /".into()));
        }
        if from == to || from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot copy {from} onto/inside itself"
            )));
        }
        let ms = self.next_ms();
        let (files, dirs, src_is_dir, src_size, src_obj) = self.with_tree(account, |tree| {
            let r = tree.resolve(from)?;
            let (dst_parent, dst_name, _) = tree.resolve_parent(to)?;
            if tree.dir_children(dst_parent)?.contains_key(dst_name) {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            match &tree.get(r.id).expect("resolved").node {
                Node::File { size, object } => {
                    Ok((Vec::new(), Vec::new(), false, *size, object.clone()))
                }
                Node::Dir { .. } => Ok((
                    tree.subtree_files(r.id),
                    tree.subtree_dirs(r.id),
                    true,
                    0,
                    String::new(),
                )),
            }
        })?;
        let mut copied = Vec::with_capacity(files.len().max(1));
        if src_is_dir {
            for (rel, size, object) in files {
                let new_obj = self.new_object_name();
                self.cluster.copy(
                    ctx,
                    &self.key(account, &object),
                    &self.key(account, &new_obj),
                )?;
                copied.push((rel, size, new_obj));
            }
        } else {
            let new_obj = self.new_object_name();
            self.cluster.copy(
                ctx,
                &self.key(account, &src_obj),
                &self.key(account, &new_obj),
            )?;
            copied.push((Vec::new(), src_size, new_obj));
        }
        self.with_tree(account, |tree| {
            let (dst_parent, dst_name, _) = tree.resolve_parent(to)?;
            if src_is_dir {
                let root_id = tree.mkdir(dst_parent, dst_name, ms)?;
                for rel in &dirs {
                    let mut cur = root_id;
                    for comp in rel {
                        cur = match tree.dir_children(cur)?.get(comp) {
                            Some(&id) => id,
                            None => tree.mkdir(cur, comp, ms)?,
                        };
                    }
                }
                for (rel, size, object) in copied {
                    let mut cur = root_id;
                    for comp in &rel[..rel.len() - 1] {
                        cur = *tree.dir_children(cur)?.get(comp).expect("dir created");
                    }
                    tree.put_file(cur, rel.last().expect("file name"), size, object, ms)?;
                }
            } else {
                let (_, size, object) = copied.into_iter().next().expect("one file");
                tree.put_file(dst_parent, dst_name, size, object, ms)?;
            }
            Ok(())
        })
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
        self.rpc(ctx);
        self.with_tree(account, |tree| {
            let r = tree.resolve(path)?;
            let rows = tree.list(r.id)?;
            ctx.charge_time(ctx.model.per_entry_cpu * rows.len() as u32);
            Ok(rows)
        })
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        self.rpc(ctx);
        let ms = self.next_ms();
        let object = self.new_object_name();
        self.with_tree(account, |tree| {
            let (parent, name, _) = tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::IsADirectory("/".into()),
                other => other,
            })?;
            if let Some(&id) = tree.dir_children(parent)?.get(name) {
                if tree.get(id).expect("child").is_dir() {
                    return Err(H2Error::IsADirectory(path.to_string()));
                }
            }
            Ok(())
        })?;
        let payload = match content {
            FileContent::Inline(v) => Payload::Inline(v.into_bytes()),
            FileContent::Simulated(n) => Payload::simulated(n, &path.to_string()),
            FileContent::SimulatedShared { size, seed } => {
                Payload::simulated(size, &format!("shared:{seed}"))
            }
        };
        let size = payload.len();
        self.cluster
            .put(ctx, &self.key(account, &object), payload, Meta::new())?;
        let old = self.with_tree(account, |tree| {
            let (parent, name, _) = tree.resolve_parent(path)?;
            tree.put_file(parent, name, size, object, ms)
        })?;
        if let Some(old_obj) = old {
            let mut bg = OpCtx::new(ctx.model.clone());
            let _ = self.cluster.delete(&mut bg, &self.key(account, &old_obj));
        }
        Ok(())
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        self.rpc(ctx);
        let object = self.with_tree(account, |tree| {
            let r = tree.resolve(path)?;
            match &tree.get(r.id).expect("resolved").node {
                Node::File { object, .. } => Ok(object.clone()),
                Node::Dir { .. } => Err(H2Error::IsADirectory(path.to_string())),
            }
        })?;
        let obj = self.cluster.get(ctx, &self.key(account, &object))?;
        Ok(match obj.payload {
            Payload::Inline(b) => FileContent::Inline(h2util::SharedBuf::from_bytes(b)),
            Payload::Simulated { size, .. } => FileContent::Simulated(size),
        })
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.rpc(ctx);
        let object = self.with_tree(account, |tree| {
            let (parent, name, _) = tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::IsADirectory("/".into()),
                other => other,
            })?;
            let &id = tree
                .dir_children(parent)?
                .get(name)
                .ok_or_else(|| H2Error::NotFound(path.to_string()))?;
            if tree.get(id).expect("child").is_dir() {
                return Err(H2Error::IsADirectory(path.to_string()));
            }
            tree.detach(parent, name)?;
            Ok(tree.remove_subtree(id).into_iter().next().expect("object"))
        })?;
        self.cluster.delete(ctx, &self.key(account, &object))
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        self.rpc(ctx);
        self.with_tree(account, |tree| {
            let r = tree.resolve(path)?;
            let inode = tree.get(r.id).expect("resolved");
            Ok(match &inode.node {
                Node::Dir { .. } => DirEntry {
                    name: path.name().unwrap_or("/").to_string(),
                    kind: EntryKind::Directory,
                    size: 0,
                    modified_ms: inode.modified_ms,
                },
                Node::File { size, .. } => DirEntry {
                    name: path.name().unwrap_or("/").to_string(),
                    kind: EntryKind::File,
                    size: *size,
                    modified_ms: inode.modified_ms,
                },
            })
        })
    }

    fn quiesce(&self) {}

    fn storage_stats(&self) -> StoreStats {
        let trees = self.trees.lock();
        let (records, bytes) = trees
            .values()
            .map(|t| (t.record_count(), t.record_bytes()))
            .fold((0, 0), |(r, b), (r2, b2)| (r + r2, b + b2));
        StoreStats {
            objects: self.cluster.object_count(),
            bytes: self.cluster.byte_count(),
            index_records: records,
            index_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn setup() -> (SingleIndexFs, OpCtx) {
        let fs = SingleIndexFs::new(Cluster::new(ClusterConfig::tiny()));
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn roundtrip_and_constant_dir_ops() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        for i in 0..20 {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/d/f{i}")),
                FileContent::from_str("x"),
            )
            .unwrap();
        }
        let mut mv = OpCtx::for_test();
        fs.mv(&mut mv, "alice", &p("/d"), &p("/e")).unwrap();
        // O(1): just the namenode RPC.
        assert_eq!(mv.counts().index_rpcs, 1);
        assert_eq!(mv.counts().total(), 1);
        assert!(fs.read(&mut ctx, "alice", &p("/e/f7")).is_ok());
        let mut rm = OpCtx::for_test();
        fs.rmdir(&mut rm, "alice", &p("/e")).unwrap();
        assert_eq!(rm.counts().total(), 1);
        assert_eq!(fs.storage_stats().objects, 0);
    }

    #[test]
    fn copy_is_linear_in_files() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        for i in 0..8 {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/d/f{i}")),
                FileContent::from_str("x"),
            )
            .unwrap();
        }
        let mut cp = OpCtx::for_test();
        fs.copy(&mut cp, "alice", &p("/d"), &p("/d2")).unwrap();
        assert_eq!(cp.counts().copies, 8);
        assert_eq!(fs.list(&mut ctx, "alice", &p("/d2")).unwrap().len(), 8);
    }

    #[test]
    fn list_detailed_matches_tree() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(123))
            .unwrap();
        let rows = fs.list_detailed(&mut ctx, "alice", &p("/")).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.iter().find(|e| e.name == "f").unwrap().size, 123);
    }

    #[test]
    fn index_is_separate_state() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        assert!(fs.uses_separate_index());
        let s = fs.storage_stats();
        assert_eq!(s.objects, 0); // no content yet
        assert_eq!(s.index_records, 1); // but index state exists
    }
}
