//! Dynamic Partition — the two-cloud architecture the paper infers Dropbox
//! uses (§2, §5.3, Figure 1c) — and, as its one-server case, the Single
//! Index Server of GFS/HDFS (§2).
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
//!
//! [`DpFs::single_index`] is the namenode: one server holds every tree, so
//! no walk crosses a partition and nothing is repartitioned, and no service
//! path is paid beyond the one RPC. Directory operations stay O(1) and file
//! access is an O(d) in-memory walk plus that RPC, so per-operation latency
//! is excellent — the paper's objection is the *centralised*
//! architecture's scalability, not its speed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use h2fsapi::{CloudFs, DirEntry, FileContent, FsPath, StoreStats};
use h2util::{lock_rank, OpCtx, OrderedMutex, PrimKind, Result};
use swiftsim::{Cluster, Meta, ObjectKey, ObjectStore};

use crate::tree::{InodeId, TreeIndex};
use crate::{to_content, to_payload, with_account, AccountMap};

/// Container holding file content blobs.
const CONTENT_CONTAINER: &str = "content";

/// What one index-service design adds to the index RPCs, and its name.
struct IndexService {
    name: &'static str,
    /// Fixed service-path latency of every metadata operation.
    overhead: Duration,
    /// Extra commit latency of metadata *mutations* (journal + replication
    /// in the index cloud).
    commit: Duration,
    /// Processing per listed entry; `None` charges the cost model's
    /// `per_entry_cpu`.
    per_entry: Option<Duration>,
}

/// Dropbox's metadata service.
const DROPBOX: IndexService = IndexService {
    name: "Dropbox (DP)",
    overhead: Duration::from_millis(105),
    commit: Duration::from_millis(55),
    per_entry: Some(Duration::from_micros(260)),
};

/// A namenode: the index RPC is the whole service path.
const NAMENODE: IndexService = IndexService {
    name: "Single Index",
    overhead: Duration::ZERO,
    commit: Duration::ZERO,
    per_entry: None,
};

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
    by_account: AccountMap<AccountMeta>,
    /// Number of index servers.
    servers: usize,
    service: IndexService,
    /// Directories per server above which a repartition is triggered.
    split_threshold: usize,
    next_object: AtomicU64,
    ms: AtomicU64,
}

impl DpFs {
    pub fn new(cluster: Arc<Cluster>, servers: usize) -> Self {
        Self::build(cluster, servers, DROPBOX)
    }

    /// The Single Index Server (GFS/HDFS namenode): one index server with
    /// no service overhead.
    pub fn single_index(cluster: Arc<Cluster>) -> Self {
        Self::build(cluster, 1, NAMENODE)
    }

    fn build(cluster: Arc<Cluster>, servers: usize, service: IndexService) -> Self {
        assert!(servers >= 1);
        DpFs {
            cluster,
            by_account: OrderedMutex::new(
                lock_rank::BASELINE_STATE,
                "baselines.dp",
                HashMap::new(),
            ),
            servers,
            service,
            split_threshold: 512,
            next_object: AtomicU64::new(1),
            ms: AtomicU64::new(1_600_000_000_000),
        }
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
        ctx.charge_time(self.service.overhead);
        if mutation {
            ctx.charge_time(self.service.commit);
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

    /// DELETE the file at `path` and return its size, which the index
    /// entry the delete drops records: a caller that accounts for bytes
    /// (Static Partition's volume quota) pays no second RPC to learn it.
    pub(crate) fn delete_file_sized(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<u64> {
        self.charge_service(ctx, true);
        let (object, size) = with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            meta.tree.unlink(path)
        })?;
        self.cluster.delete(ctx, &self.key(account, &object))?;
        Ok(size)
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
}

impl CloudFs for DpFs {
    fn name(&self) -> &'static str {
        self.service.name
    }

    fn uses_separate_index(&self) -> bool {
        true
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        // Registering the account is one metadata-service mutation on top
        // of the cloud-side account and container rows.
        self.charge_service(ctx, true);
        self.cluster
            .create_account_ctx(ctx, account, CONTENT_CONTAINER, false)?;
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
        with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let (parent, id) = meta.tree.mkdir(path, ms)?;
            // New directory starts on its parent's server.
            let server = meta.server_of(parent);
            meta.placement.insert(id, server);
            self.maybe_repartition(meta);
            Ok(())
        })
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.charge_service(ctx, true);
        TreeIndex::check_rmdir(path)?;
        // O(1) at operation time: detach the subtree pointer. Content
        // objects are reclaimed asynchronously (charged to background, not
        // to this op) — like Dropbox's deferred deletion.
        let orphaned = with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let objs = meta.tree.rmdir(path)?;
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
        if !TreeIndex::move_needed(from, to)? {
            return Ok(());
        }
        let ms = self.next_ms();
        with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, from)?;
            self.charge_walk(ctx, meta, to)?;
            meta.tree.rename(from, to, ms)
        })
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.charge_service(ctx, true);
        TreeIndex::check_copy(from, to)?;
        let ms = self.next_ms();
        // Phase 1 (index): snapshot the source subtree.
        let mut snapshot = with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, from)?;
            self.charge_walk(ctx, meta, to)?;
            meta.tree.copy_snapshot(from, to)
        })?;
        // Phase 2 (object cloud): copy content — O(n) object copies.
        for (_, _, object) in &mut snapshot.files {
            let new_obj = self.new_object_name();
            self.cluster.copy(
                ctx,
                &self.key(account, object),
                &self.key(account, &new_obj),
            )?;
            *object = new_obj;
        }
        // Phase 3 (index): build the destination subtree, on the server of
        // its parent.
        with_account(&self.by_account, account, |meta| {
            let (parent, made) = meta.tree.graft(to, snapshot, ms)?;
            let server = meta.server_of(parent);
            for id in made {
                meta.placement.insert(id, server);
            }
            self.maybe_repartition(meta);
            Ok(())
        })
    }

    fn list_detailed(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        self.charge_service(ctx, false);
        with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            let rows = meta.tree.list(path)?;
            let per_entry = self.service.per_entry.unwrap_or(ctx.model.per_entry_cpu);
            ctx.charge_time(per_entry * rows.len() as u32);
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
        with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            meta.tree.check_write(path)
        })?;
        let payload = to_payload(content, path);
        let size = payload.len();
        self.cluster
            .put(ctx, &self.key(account, &object), payload, Meta::new())?;
        let old = with_account(&self.by_account, account, |meta| {
            meta.tree.write(path, size, object, ms)
        })?;
        if let Some(old_obj) = old {
            let mut bg = OpCtx::new(ctx.model.clone());
            let _ = self.cluster.delete(&mut bg, &self.key(account, &old_obj));
        }
        Ok(())
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        self.charge_service(ctx, false);
        let object = with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            meta.tree.file_object(path).map(str::to_string)
        })?;
        let obj = self.cluster.get(ctx, &self.key(account, &object))?;
        Ok(to_content(obj.payload))
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.delete_file_sized(ctx, account, path).map(drop)
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        self.charge_service(ctx, false);
        with_account(&self.by_account, account, |meta| {
            self.charge_walk(ctx, meta, path)?;
            meta.tree.stat(path)
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
    use swiftsim::ClusterConfig;

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
    fn setup_single_index() -> (DpFs, OpCtx) {
        let fs = DpFs::single_index(Cluster::new(ClusterConfig::tiny()));
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn roundtrip_and_constant_dir_ops() {
        let (fs, mut ctx) = setup_single_index();
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
        let (fs, mut ctx) = setup_single_index();
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
        let (fs, mut ctx) = setup_single_index();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(123))
            .unwrap();
        let rows = fs.list_detailed(&mut ctx, "alice", &p("/")).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.iter().find(|e| e.name == "f").unwrap().size, 123);
    }

    #[test]
    fn index_is_separate_state() {
        let (fs, mut ctx) = setup_single_index();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        assert!(fs.uses_separate_index());
        let s = fs.storage_stats();
        assert_eq!(s.objects, 0); // no content yet
        assert_eq!(s.index_records, 1); // but index state exists
    }
}
