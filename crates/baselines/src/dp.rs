//! Dynamic Partition — the two-cloud architecture the paper infers Dropbox
//! uses (§2, §5.3, Figure 1c).
//!
//! Directory metadata lives in a set of index servers; the directory tree is
//! partitioned across them by subtree, and a load balancer re-partitions
//! when a server grows too hot. Leaf entries point at content objects in
//! the object cloud. Directory operations are index pointer updates — O(1)
//! — which is exactly why Dropbox's MOVE/RMDIR stay flat in Figures 7–8.
//!
//! Cost model: every client operation pays a fixed *service overhead*
//! (Dropbox's metadata service commit/processing path; calibrated so MKDIR
//! lands in the paper's 150–200 ms band and file access near the ~110 ms
//! the α ≈ 0.5 RTT analysis implies), plus one index RPC per partition
//! crossed, plus per-entry CPU for listings, plus object-cloud costs for
//! content.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use h2fsapi::{CloudFs, DirEntry, EntryKind, FileContent, FsPath, StoreStats};
use h2util::{lock_rank, H2Error, OpCtx, OrderedMutex, PrimKind, Result};
use swiftsim::{Cluster, ClusterConfig, Meta, ObjectKey, ObjectStore, Payload};

use crate::tree::{InodeId, Node, TreeIndex};

/// Container holding file content blobs.
const CONTENT_CONTAINER: &str = "content";

/// Fixed service-path latency of every metadata operation.
const SERVICE_OVERHEAD: Duration = Duration::from_millis(105);
/// Extra commit latency of metadata *mutations* (journal + replication in
/// the index cloud).
const COMMIT_OVERHEAD: Duration = Duration::from_millis(55);
/// Per-listing-entry processing in the index server.
const PER_ENTRY: Duration = Duration::from_micros(260);

/// Per-account metadata state: the tree plus its partition map.
struct AccountMeta {
    tree: TreeIndex,
    /// Which index server owns each directory inode.
    placement: HashMap<InodeId, usize>,
}

impl AccountMeta {
    fn new() -> Self {
        let tree = TreeIndex::new();
        let mut placement = HashMap::new();
        placement.insert(tree.root(), 0);
        AccountMeta { tree, placement }
    }

    fn server_of(&self, dir: InodeId) -> usize {
        *self.placement.get(&dir).unwrap_or(&0)
    }
}

/// The Dynamic Partition filesystem.
pub struct DpFs {
    cluster: Arc<Cluster>,
    by_account: OrderedMutex<HashMap<String, AccountMeta>>,
    /// Number of index servers.
    servers: usize,
    /// Directories per server above which a repartition is triggered.
    split_threshold: usize,
    next_object: AtomicU64,
    ms: AtomicU64,
}

impl DpFs {
    pub fn new(cluster: Arc<Cluster>, servers: usize) -> Self {
        assert!(servers >= 1);
        DpFs {
            cluster,
            by_account: OrderedMutex::new(
                lock_rank::BASELINE_STATE,
                "baselines.dp",
                HashMap::new(),
            ),
            servers,
            split_threshold: 512,
            next_object: AtomicU64::new(1),
            ms: AtomicU64::new(1_600_000_000_000),
        }
    }

    /// Rack-shaped stand-alone instance with 4 index servers.
    pub fn rack() -> Self {
        DpFs::new(Cluster::new(ClusterConfig::default()), 4)
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

    fn charge_service(&self, ctx: &mut OpCtx, mutation: bool) {
        ctx.charge_time(SERVICE_OVERHEAD);
        if mutation {
            ctx.charge_time(COMMIT_OVERHEAD);
        }
        let cost = ctx.model.index_rpc_cost();
        ctx.charge(PrimKind::IndexRpc, cost);
    }

    /// Charge the index RPCs a path walk incurs: one per partition crossed
    /// beyond the first. When the whole walk stays in one index server the
    /// access is effectively O(1) — the behaviour the paper observes for
    /// Dropbox's file access (Figure 13).
    fn charge_walk(&self, ctx: &mut OpCtx, meta: &AccountMeta, path: &FsPath) -> Result<()> {
        let mut crossings = 0usize;
        let mut cur = meta.tree.root();
        let mut server = meta.server_of(cur);
        for comp in path.components() {
            let children = match meta.tree.dir_children(cur) {
                Ok(c) => c,
                Err(_) => break, // final component is a file
            };
            let Some(&next) = children.get(comp) else {
                break;
            };
            if meta
                .tree
                .get(next)
                .map(|inode| inode.is_dir())
                .unwrap_or(false)
            {
                let next_server = meta.server_of(next);
                if next_server != server {
                    crossings += 1;
                    server = next_server;
                }
            }
            cur = next;
        }
        let cost = ctx.model.index_rpc_cost();
        for _ in 0..crossings {
            ctx.charge(PrimKind::IndexRpc, cost);
        }
        Ok(())
    }

    /// Re-partition when a server holds too many directories: move the
    /// largest subtree rooted directly under a directory it owns to the
    /// least-loaded server. (A deliberately simple version of the
    /// sophisticated balancers in Ceph/GIGA+ — enough to exercise the
    /// architecture.)
    fn maybe_repartition(&self, meta: &mut AccountMeta) {
        if self.servers < 2 {
            return;
        }
        let mut load = vec![0usize; self.servers];
        for &s in meta.placement.values() {
            load[s] += 1;
        }
        let (hot, &hot_load) = load
            .iter()
            .enumerate()
            .max_by_key(|(_, l)| **l)
            .expect("at least one server");
        if hot_load <= self.split_threshold {
            return;
        }
        let (cold, _) = load
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| **l)
            .expect("at least one server");
        // Find the largest directory subtree currently on the hot server
        // whose parent is also on the hot server, and move it wholesale.
        let candidates: Vec<InodeId> = meta
            .placement
            .iter()
            .filter(|(_, &s)| s == hot)
            .map(|(&id, _)| id)
            .collect();
        let Some(&victim) = candidates
            .iter()
            .filter(|&&id| id != meta.tree.root())
            .max_by_key(|&&id| meta.tree.subtree_size(id))
        else {
            return;
        };
        // Move victim and every directory below it.
        let mut stack = vec![victim];
        while let Some(cur) = stack.pop() {
            meta.placement.insert(cur, cold);
            if let Ok(children) = meta.tree.dir_children(cur) {
                for &c in children.values() {
                    if meta.tree.get(c).map(|i| i.is_dir()).unwrap_or(false) {
                        stack.push(c);
                    }
                }
            }
        }
    }

    /// Current directory count per index server (for the balance tests).
    pub fn server_loads(&self, account: &str) -> Vec<usize> {
        let accounts = self.by_account.lock();
        let mut load = vec![0usize; self.servers];
        if let Some(meta) = accounts.get(account) {
            for &s in meta.placement.values() {
                load[s] += 1;
            }
        }
        load
    }

    fn with_meta<T>(
        &self,
        account: &str,
        f: impl FnOnce(&mut AccountMeta) -> Result<T>,
    ) -> Result<T> {
        let mut accounts = self.by_account.lock();
        let meta = accounts
            .get_mut(account)
            .ok_or_else(|| H2Error::NoSuchAccount(account.to_string()))?;
        f(meta)
    }
}

impl CloudFs for DpFs {
    fn name(&self) -> &'static str {
        "Dropbox (DP)"
    }

    fn uses_separate_index(&self) -> bool {
        true
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        // Registering the account is one metadata-service mutation on top
        // of the cloud-side account and container rows.
        self.charge_service(ctx, true);
        self.cluster.create_account_ctx(ctx, account)?;
        let model = ctx.model.clone();
        ctx.charge(PrimKind::DbUpdate, model.db_update_cost());
        self.cluster
            .create_container(account, CONTENT_CONTAINER, false)?;
        self.by_account
            .lock()
            .insert(account.to_string(), AccountMeta::new());
        Ok(())
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.charge_service(ctx, true);
        self.by_account.lock().remove(account);
        self.cluster.delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.charge_service(ctx, true);
        let ms = self.next_ms();
        self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let (parent, name, _) = meta.tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::AlreadyExists("/".into()),
                other => other,
            })?;
            let id = meta.tree.mkdir(parent, name, ms).map_err(|e| match e {
                H2Error::AlreadyExists(_) => H2Error::AlreadyExists(path.to_string()),
                other => other,
            })?;
            // New directory starts on its parent's server.
            let server = meta.server_of(parent);
            meta.placement.insert(id, server);
            self.maybe_repartition(meta);
            Ok(())
        })
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.charge_service(ctx, true);
        if path.is_root() {
            return Err(H2Error::InvalidPath("cannot remove /".into()));
        }
        // O(1) at operation time: detach the subtree pointer. Content
        // objects are reclaimed asynchronously (charged to background, not
        // to this op) — like Dropbox's deferred deletion.
        let orphaned = self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let r = meta.tree.resolve(path)?;
            if !meta.tree.get(r.id).expect("resolved inode").is_dir() {
                return Err(H2Error::NotADirectory(path.to_string()));
            }
            let (parent, name, _) = meta.tree.resolve_parent(path)?;
            meta.tree.detach(parent, name)?;
            let objs = meta.tree.remove_subtree(r.id);
            meta.placement.retain(|id, _| meta.tree.get(*id).is_some());
            Ok(objs)
        })?;
        let mut bg = OpCtx::new(ctx.model.clone());
        for obj in orphaned {
            let _ = self.cluster.delete(&mut bg, &self.key(account, &obj));
        }
        Ok(())
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.charge_service(ctx, true);
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
        self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, from)?;
            self.charge_walk(ctx, meta, to)?;
            let (src_parent, src_name, _) = meta.tree.resolve_parent(from)?;
            let (dst_parent, dst_name, _) = meta.tree.resolve_parent(to)?;
            if meta.tree.dir_children(dst_parent)?.contains_key(dst_name) {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            if !meta.tree.dir_children(src_parent)?.contains_key(src_name) {
                return Err(H2Error::NotFound(from.to_string()));
            }
            // O(1): pointer detach + attach, whatever the subtree holds.
            let id = meta.tree.detach(src_parent, src_name)?;
            meta.tree.attach(dst_parent, dst_name, id, ms)?;
            Ok(())
        })
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.charge_service(ctx, true);
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot copy to or from /".into()));
        }
        if from == to || from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot copy {from} onto/inside itself"
            )));
        }
        let ms = self.next_ms();
        // Phase 1 (index): snapshot the source subtree.
        let (files, dirs, src_is_dir, src_size, src_obj) = self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, from)?;
            self.charge_walk(ctx, meta, to)?;
            let r = meta.tree.resolve(from)?;
            let inode = meta.tree.get(r.id).expect("resolved");
            let (dst_parent, dst_name, _) = meta.tree.resolve_parent(to)?;
            if meta.tree.dir_children(dst_parent)?.contains_key(dst_name) {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            match &inode.node {
                Node::File { size, object } => {
                    Ok((Vec::new(), Vec::new(), false, *size, object.clone()))
                }
                Node::Dir { .. } => Ok((
                    meta.tree.subtree_files(r.id),
                    meta.tree.subtree_dirs(r.id),
                    true,
                    0,
                    String::new(),
                )),
            }
        })?;
        // Phase 2 (object cloud): copy content — O(n) object copies.
        let mut copied: Vec<(Vec<String>, u64, String)> = Vec::with_capacity(files.len());
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
        // Phase 3 (index): build the destination subtree.
        self.with_meta(account, |meta| {
            let (dst_parent, dst_name, _) = meta.tree.resolve_parent(to)?;
            if src_is_dir {
                let root_id = meta.tree.mkdir(dst_parent, dst_name, ms)?;
                let server = meta.server_of(dst_parent);
                meta.placement.insert(root_id, server);
                for rel in &dirs {
                    let mut cur = root_id;
                    for comp in rel {
                        cur = match meta.tree.dir_children(cur)?.get(comp) {
                            Some(&id) => id,
                            None => {
                                let id = meta.tree.mkdir(cur, comp, ms)?;
                                meta.placement.insert(id, server);
                                id
                            }
                        };
                    }
                }
                for (rel, size, object) in copied {
                    let mut cur = root_id;
                    for comp in &rel[..rel.len() - 1] {
                        cur = *meta.tree.dir_children(cur)?.get(comp).expect("dir created");
                    }
                    meta.tree
                        .put_file(cur, rel.last().expect("file name"), size, object, ms)?;
                }
            } else {
                let (_, size, object) = copied.into_iter().next().expect("one file");
                meta.tree.put_file(dst_parent, dst_name, size, object, ms)?;
            }
            self.maybe_repartition(meta);
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
        self.charge_service(ctx, false);
        self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let r = meta.tree.resolve(path)?;
            let rows = meta.tree.list(r.id)?;
            ctx.charge_time(PER_ENTRY * rows.len() as u32);
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
        self.charge_service(ctx, true);
        let ms = self.next_ms();
        let object = self.new_object_name();
        // Validate placement first (cheap index check), then stream content,
        // then commit the index entry.
        self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let (parent, name, _) = meta.tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::IsADirectory("/".into()),
                other => other,
            })?;
            if let Some(&id) = meta.tree.dir_children(parent)?.get(name) {
                if meta.tree.get(id).expect("child").is_dir() {
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
        let old = self.with_meta(account, |meta| {
            let (parent, name, _) = meta.tree.resolve_parent(path)?;
            meta.tree.put_file(parent, name, size, object, ms)
        })?;
        if let Some(old_obj) = old {
            let mut bg = OpCtx::new(ctx.model.clone());
            let _ = self.cluster.delete(&mut bg, &self.key(account, &old_obj));
        }
        Ok(())
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        self.charge_service(ctx, false);
        let object = self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let r = meta.tree.resolve(path)?;
            match &meta.tree.get(r.id).expect("resolved").node {
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
        self.charge_service(ctx, true);
        let object = self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let (parent, name, _) = meta.tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::IsADirectory("/".into()),
                other => other,
            })?;
            let &id = meta
                .tree
                .dir_children(parent)?
                .get(name)
                .ok_or_else(|| H2Error::NotFound(path.to_string()))?;
            if meta.tree.get(id).expect("child").is_dir() {
                return Err(H2Error::IsADirectory(path.to_string()));
            }
            meta.tree.detach(parent, name)?;
            let objs = meta.tree.remove_subtree(id);
            Ok(objs.into_iter().next().expect("file has an object"))
        })?;
        self.cluster.delete(ctx, &self.key(account, &object))
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        self.charge_service(ctx, false);
        self.with_meta(account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let r = meta.tree.resolve(path)?;
            let inode = meta.tree.get(r.id).expect("resolved");
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
        let accounts = self.by_account.lock();
        let (records, bytes) = accounts
            .values()
            .map(|m| (m.tree.record_count(), m.tree.record_bytes()))
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

    fn setup() -> (DpFs, OpCtx) {
        let fs = DpFs::new(Cluster::new(ClusterConfig::tiny()), 3);
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn basic_roundtrip() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/docs")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/docs/f"),
            FileContent::from_str("hello"),
        )
        .unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/docs/f")).unwrap(),
            FileContent::from_str("hello")
        );
        assert_eq!(fs.list(&mut ctx, "alice", &p("/docs")).unwrap(), ["f"]);
        assert!(fs.uses_separate_index());
        assert!(fs.storage_stats().index_records >= 2);
    }

    #[test]
    fn move_is_constant_backend_ops() {
        let (fs, mut ctx) = setup();
        for &n in &[5usize, 50] {
            let d = format!("/d{n}");
            fs.mkdir(&mut ctx, "alice", &p(&d)).unwrap();
            for i in 0..n {
                fs.write(
                    &mut ctx,
                    "alice",
                    &p(&format!("{d}/f{i}")),
                    FileContent::from_str("x"),
                )
                .unwrap();
            }
        }
        let mut small = OpCtx::for_test();
        fs.mv(&mut small, "alice", &p("/d5"), &p("/m5")).unwrap();
        let mut large = OpCtx::for_test();
        fs.mv(&mut large, "alice", &p("/d50"), &p("/m50")).unwrap();
        assert_eq!(small.counts().total(), large.counts().total());
        // Content still reachable after the move.
        assert!(fs.read(&mut ctx, "alice", &p("/m50/f49")).is_ok());
    }

    #[test]
    fn rmdir_reclaims_content_objects() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        for i in 0..10 {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/d/f{i}")),
                FileContent::from_str("x"),
            )
            .unwrap();
        }
        assert_eq!(fs.storage_stats().objects, 10);
        fs.rmdir(&mut ctx, "alice", &p("/d")).unwrap();
        assert_eq!(fs.storage_stats().objects, 0);
        assert!(fs.stat(&mut ctx, "alice", &p("/d")).is_err());
    }

    #[test]
    fn copy_directory_deep() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a/sub")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/a/sub/f"),
            FileContent::from_str("v"),
        )
        .unwrap();
        fs.copy(&mut ctx, "alice", &p("/a"), &p("/b")).unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/b/sub/f")).unwrap(),
            FileContent::from_str("v")
        );
        fs.delete_file(&mut ctx, "alice", &p("/b/sub/f")).unwrap();
        assert!(fs.read(&mut ctx, "alice", &p("/a/sub/f")).is_ok());
    }

    #[test]
    fn service_overhead_dominates_small_ops() {
        let fs = DpFs::new(
            Cluster::new(ClusterConfig {
                cost: Arc::new(h2util::CostModel::rack_default()),
                ..ClusterConfig::default()
            }),
            3,
        );
        let mut ctx = OpCtx::new(fs.cost_model());
        fs.create_account(&mut ctx, "a").unwrap();
        let mut mk = OpCtx::new(fs.cost_model());
        fs.mkdir(&mut mk, "a", &p("/d")).unwrap();
        let ms = mk.elapsed().as_secs_f64() * 1e3;
        assert!(
            (120.0..260.0).contains(&ms),
            "DP MKDIR should land in the paper's 150-200ms band, got {ms}"
        );
    }

    #[test]
    fn repartition_spreads_directories() {
        let mut fs = DpFs::new(Cluster::new(ClusterConfig::tiny()), 3);
        fs.split_threshold = 32;
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "a").unwrap();
        fs.mkdir(&mut ctx, "a", &p("/big")).unwrap();
        for i in 0..100 {
            fs.mkdir(&mut ctx, "a", &p(&format!("/big/d{i}"))).unwrap();
        }
        let loads = fs.server_loads("a");
        let used = loads.iter().filter(|&&l| l > 0).count();
        assert!(used >= 2, "repartition never moved anything: {loads:?}");
        // Tree still fully functional after repartitions.
        assert_eq!(fs.list(&mut ctx, "a", &p("/big")).unwrap().len(), 100);
    }

    #[test]
    fn kind_errors() {
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
            fs.mv(&mut ctx, "alice", &p("/d"), &p("/d/x"))
                .unwrap_err()
                .code(),
            "invalid-path"
        );
    }

    #[test]
    fn overwrite_reclaims_old_blob() {
        let (fs, mut ctx) = setup();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("old"))
            .unwrap();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("newer"))
            .unwrap();
        assert_eq!(fs.storage_stats().objects, 1);
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/f")).unwrap(),
            FileContent::from_str("newer")
        );
    }
}
