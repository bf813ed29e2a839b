//! Content Addressable Storage with a multi-layer (pointer-block) index —
//! the Foundation/Venti/Camlistore architecture (§2).
//!
//! Every block — file content or directory *pointer block* — is stored at
//! the address derived from its own content hash. Hierarchy is expressed by
//! pointer blocks listing `(name, child-hash)` pairs, up to a per-account
//! root hash. Consequences, exactly as Table 1 states:
//!
//! * file access **by hash** is O(1) — one GET at the content address
//!   ([`CasFs::read_by_hash`]);
//! * any structural change invalidates hashes up the tree, and the paper's
//!   model has the system "reconstruct the whole hierarchical index" —
//!   O(N) pointer-block rewrites for MKDIR, RMDIR, MOVE and COPY;
//! * identical content is stored once (deduplication for free);
//! * old blocks become garbage (immutable store).

use std::collections::HashMap;
use std::sync::Arc;

use h2fsapi::{CloudFs, DirEntry, EntryKind, FileContent, FsPath, StoreStats};
use h2util::hash::Digest128;
use h2util::{lock_rank, H2Error, OpCtx, OrderedMutex, PrimKind, Result};
use swiftsim::{Cluster, ClusterConfig, Meta, ObjectKey, ObjectStore, Payload};

use crate::tree::{Node, TreeIndex};

const CONTAINER: &str = "blocks";

/// Per-account state: the shadow tree used to rebuild the index, plus the
/// current root pointer-block hash.
struct AccountState {
    tree: TreeIndex,
    root_hash: Digest128,
    ms: u64,
}

/// The content-addressable filesystem.
pub struct CasFs {
    cluster: Arc<Cluster>,
    by_account: OrderedMutex<HashMap<String, AccountState>>,
}

impl CasFs {
    pub fn new(cluster: Arc<Cluster>) -> Self {
        CasFs {
            cluster,
            by_account: OrderedMutex::new(
                lock_rank::BASELINE_STATE,
                "baselines.cas",
                HashMap::new(),
            ),
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

    fn key(&self, account: &str, hash: Digest128) -> ObjectKey {
        ObjectKey::new(account, CONTAINER, &format!("blk-{hash}"))
    }

    fn with_state<T>(
        &self,
        account: &str,
        f: impl FnOnce(&mut AccountState) -> Result<T>,
    ) -> Result<T> {
        let mut accounts = self.by_account.lock();
        let st = accounts
            .get_mut(account)
            .ok_or_else(|| H2Error::NoSuchAccount(account.to_string()))?;
        f(st)
    }

    /// Store a block if not already present (dedup: identical content has
    /// an identical address).
    fn put_block(&self, ctx: &mut OpCtx, account: &str, payload: Payload) -> Result<Digest128> {
        let hash = payload.digest();
        let key = self.key(account, hash);
        if !self.cluster.exists(ctx, &key)? {
            self.cluster.put(ctx, &key, payload, Meta::new())?;
        }
        Ok(hash)
    }

    /// Rebuild every pointer block bottom-up from the shadow tree and
    /// return the new root hash. This is the O(N) "reconstruct the whole
    /// hierarchical index" that every structural operation pays.
    fn rebuild_index(&self, ctx: &mut OpCtx, account: &str, st: &mut AccountState) -> Result<()> {
        fn build(
            fs: &CasFs,
            ctx: &mut OpCtx,
            account: &str,
            tree: &TreeIndex,
            id: u64,
            file_hashes: &HashMap<u64, Digest128>,
        ) -> Result<Digest128> {
            let children = tree.dir_children(id)?;
            let mut body = String::from("CAS-DIR\n");
            for (name, &cid) in children {
                let inode = tree.get(cid).expect("child inode");
                match &inode.node {
                    Node::Dir { .. } => {
                        let h = build(fs, ctx, account, tree, cid, file_hashes)?;
                        body.push_str(&format!("{name}\tD\t{h}\t0\t{}\n", inode.modified_ms));
                    }
                    Node::File { size, .. } => {
                        let h = file_hashes[&cid];
                        body.push_str(&format!("{name}\tF\t{h}\t{size}\t{}\n", inode.modified_ms));
                    }
                }
            }
            fs.put_block(ctx, account, Payload::from_string(body))
        }

        // Collect file content hashes recorded in the shadow tree (stored
        // in the `object` field as the hex digest).
        let mut file_hashes = HashMap::new();
        let mut stack = vec![st.tree.root()];
        while let Some(id) = stack.pop() {
            match &st.tree.get(id).expect("inode").node {
                Node::Dir { children } => stack.extend(children.values().copied()),
                Node::File { object, .. } => {
                    let h = Digest128::from_hex(object)
                        .ok_or_else(|| H2Error::Corrupt(format!("bad stored hash {object}")))?;
                    file_hashes.insert(id, h);
                }
            }
        }
        st.root_hash = build(self, ctx, account, &st.tree, st.tree.root(), &file_hashes)?;
        Ok(())
    }

    /// O(1) file access by content hash — the CAS fast path of Table 1.
    pub fn read_by_hash(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        hash: Digest128,
    ) -> Result<FileContent> {
        let obj = self.cluster.get(ctx, &self.key(account, hash))?;
        Ok(match obj.payload {
            Payload::Inline(b) => FileContent::Inline(h2util::SharedBuf::from_bytes(b)),
            Payload::Simulated { size, .. } => FileContent::Simulated(size),
        })
    }

    /// Content hash of the file at `path` (what a CAS client would keep).
    pub fn hash_of(&self, account: &str, path: &FsPath) -> Result<Digest128> {
        self.with_state(account, |st| {
            let r = st.tree.resolve(path)?;
            match &st.tree.get(r.id).expect("resolved").node {
                Node::File { object, .. } => Digest128::from_hex(object)
                    .ok_or_else(|| H2Error::Corrupt(format!("bad stored hash {object}"))),
                Node::Dir { .. } => Err(H2Error::IsADirectory(path.to_string())),
            }
        })
    }

    /// Current root pointer-block hash.
    pub fn root_hash(&self, account: &str) -> Result<Digest128> {
        self.with_state(account, |st| Ok(st.root_hash))
    }

    /// Garbage-sweep the immutable block store: every structural change
    /// leaves old pointer blocks (and possibly unreferenced content
    /// blocks) behind; this pass walks the current root, marks reachable
    /// blocks, and deletes the rest. Returns the number reclaimed.
    pub fn sweep_garbage(&self, ctx: &mut OpCtx, account: &str) -> Result<usize> {
        // Mark: every block reachable from the current root.
        let root = self.with_state(account, |st| Ok(st.root_hash))?;
        let mut live: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(h) = stack.pop() {
            if !live.insert(format!("blk-{h}")) {
                continue;
            }
            let obj = self.cluster.get(ctx, &self.key(account, h))?;
            let Some(body) = obj.payload.as_str() else {
                continue;
            };
            if !body.starts_with("CAS-DIR") {
                continue; // content block: no children
            }
            for line in body.lines().skip(1) {
                let mut f = line.split('\t');
                if let (Some(_), Some(_), Some(hash)) = (f.next(), f.next(), f.next()) {
                    if let Some(d) = Digest128::from_hex(hash) {
                        stack.push(d);
                    }
                }
            }
        }
        // Sweep: enumerate the arena and delete unreachable blocks.
        let rows = self.cluster.list(
            ctx,
            account,
            CONTAINER,
            &swiftsim::ListOptions::with_prefix("blk-"),
        )?;
        let mut reclaimed = 0usize;
        for row in rows {
            let name = row.name().to_string();
            if !live.contains(&name) {
                self.cluster
                    .delete(ctx, &swiftsim::ObjectKey::new(account, CONTAINER, &name))?;
                reclaimed += 1;
            }
        }
        Ok(reclaimed)
    }

    /// Walk pointer blocks from the root — the path-based lookup that costs
    /// one GET per level.
    fn walk_blocks(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        root: Digest128,
        path: &FsPath,
    ) -> Result<(char, Digest128, u64, u64)> {
        // Returns (kind, hash, size, ms) of the final component.
        let mut cur = root;
        let comps = path.components();
        if comps.is_empty() {
            return Ok(('D', cur, 0, 0));
        }
        for (i, comp) in comps.iter().enumerate() {
            let obj = self.cluster.get(ctx, &self.key(account, cur))?;
            let body = obj
                .payload
                .as_str()
                .ok_or_else(|| H2Error::Corrupt("pointer block not a string".into()))?;
            let mut found = None;
            for line in body.lines().skip(1) {
                let mut f = line.split('\t');
                match (f.next(), f.next(), f.next(), f.next(), f.next()) {
                    (Some(name), Some(kind), Some(hash), Some(size), Some(ms)) if name == comp => {
                        let kind = kind.chars().next().unwrap_or('?');
                        let hash = Digest128::from_hex(hash)
                            .ok_or_else(|| H2Error::Corrupt("bad hash in block".into()))?;
                        let size: u64 = size.parse().unwrap_or(0);
                        let ms: u64 = ms.parse().unwrap_or(0);
                        found = Some((kind, hash, size, ms));
                        break;
                    }
                    _ => {}
                }
            }
            let (kind, hash, size, ms) =
                found.ok_or_else(|| H2Error::NotFound(path.to_string()))?;
            if i + 1 == comps.len() {
                return Ok((kind, hash, size, ms));
            }
            if kind != 'D' {
                return Err(H2Error::NotADirectory(path.to_string()));
            }
            cur = hash;
        }
        unreachable!()
    }

    fn next_ms(st: &mut AccountState) -> u64 {
        st.ms += 1;
        st.ms
    }
}

impl CloudFs for CasFs {
    fn name(&self) -> &'static str {
        "CAS (Multi-Layer)"
    }

    fn uses_separate_index(&self) -> bool {
        false // the index is itself made of blocks in the cloud
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.cluster.create_account_ctx(ctx, account)?;
        let model = ctx.model.clone();
        ctx.charge(PrimKind::DbUpdate, model.db_update_cost());
        // Indexed: a CAS arena keeps a block index (Venti's index) — here
        // it also lets the garbage sweep enumerate blocks.
        self.cluster.create_container(account, CONTAINER, true)?;
        let empty_root = self.put_block(ctx, account, Payload::from_string("CAS-DIR\n".into()))?;
        self.by_account.lock().insert(
            account.to_string(),
            AccountState {
                tree: TreeIndex::new(),
                root_hash: empty_root,
                ms: 1_600_000_000_000,
            },
        );
        Ok(())
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.by_account.lock().remove(account);
        self.cluster.delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.with_state(account, |st| {
            let ms = Self::next_ms(st);
            let (parent, name, _) = st.tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::AlreadyExists("/".into()),
                other => other,
            })?;
            st.tree.mkdir(parent, name, ms).map_err(|e| match e {
                H2Error::AlreadyExists(_) => H2Error::AlreadyExists(path.to_string()),
                other => other,
            })?;
            self.rebuild_index(ctx, account, st)
        })
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        if path.is_root() {
            return Err(H2Error::InvalidPath("cannot remove /".into()));
        }
        self.with_state(account, |st| {
            let r = st.tree.resolve(path)?;
            if !st.tree.get(r.id).expect("resolved").is_dir() {
                return Err(H2Error::NotADirectory(path.to_string()));
            }
            let (parent, name, _) = st.tree.resolve_parent(path)?;
            st.tree.detach(parent, name)?;
            st.tree.remove_subtree(r.id);
            // Old blocks stay as garbage (immutable store); the index is
            // reconstructed without them.
            self.rebuild_index(ctx, account, st)
        })
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
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
        self.with_state(account, |st| {
            let ms = Self::next_ms(st);
            let (src_parent, src_name, _) = st.tree.resolve_parent(from)?;
            let (dst_parent, dst_name, _) = st.tree.resolve_parent(to)?;
            if st.tree.dir_children(dst_parent)?.contains_key(dst_name) {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            if !st.tree.dir_children(src_parent)?.contains_key(src_name) {
                return Err(H2Error::NotFound(from.to_string()));
            }
            let id = st.tree.detach(src_parent, src_name)?;
            st.tree.attach(dst_parent, dst_name, id, ms)?;
            self.rebuild_index(ctx, account, st)
        })
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot copy to or from /".into()));
        }
        if from == to || from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot copy {from} onto/inside itself"
            )));
        }
        self.with_state(account, |st| {
            let ms = Self::next_ms(st);
            let r = st.tree.resolve(from)?;
            let (dst_parent, dst_name, _) = st.tree.resolve_parent(to)?;
            if st.tree.dir_children(dst_parent)?.contains_key(dst_name) {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            // Content blocks are shared (same hash!); only the tree and the
            // pointer blocks change.
            match &st.tree.get(r.id).expect("resolved").node.clone() {
                Node::File { size, object } => {
                    st.tree
                        .put_file(dst_parent, dst_name, *size, object.clone(), ms)?;
                }
                Node::Dir { .. } => {
                    let files = st.tree.subtree_files(r.id);
                    let dirs = st.tree.subtree_dirs(r.id);
                    let root_id = st.tree.mkdir(dst_parent, dst_name, ms)?;
                    for rel in &dirs {
                        let mut cur = root_id;
                        for comp in rel {
                            cur = match st.tree.dir_children(cur)?.get(comp) {
                                Some(&id) => id,
                                None => st.tree.mkdir(cur, comp, ms)?,
                            };
                        }
                    }
                    for (rel, size, object) in files {
                        let mut cur = root_id;
                        for comp in &rel[..rel.len() - 1] {
                            cur = *st.tree.dir_children(cur)?.get(comp).expect("dir created");
                        }
                        st.tree
                            .put_file(cur, rel.last().expect("name"), size, object, ms)?;
                    }
                }
            }
            self.rebuild_index(ctx, account, st)
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
        let root = self.with_state(account, |st| Ok(st.root_hash))?;
        let (kind, hash, _, _) = self.walk_blocks(ctx, account, root, path)?;
        if kind != 'D' {
            return Err(H2Error::NotADirectory(path.to_string()));
        }
        let obj = self.cluster.get(ctx, &self.key(account, hash))?;
        let body = obj
            .payload
            .as_str()
            .ok_or_else(|| H2Error::Corrupt("pointer block not a string".into()))?;
        let mut out = Vec::new();
        for line in body.lines().skip(1) {
            let mut f = line.split('\t');
            if let (Some(name), Some(kind), Some(_h), Some(size), Some(ms)) =
                (f.next(), f.next(), f.next(), f.next(), f.next())
            {
                out.push(DirEntry {
                    name: name.to_string(),
                    kind: if kind == "D" {
                        EntryKind::Directory
                    } else {
                        EntryKind::File
                    },
                    size: size.parse().unwrap_or(0),
                    modified_ms: ms.parse().unwrap_or(0),
                });
            }
        }
        ctx.charge_time(ctx.model.per_entry_cpu * out.len() as u32);
        Ok(out)
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        let payload = match content {
            FileContent::Inline(v) => Payload::Inline(v.into_bytes()),
            FileContent::Simulated(n) => Payload::simulated(n, &path.to_string()),
            FileContent::SimulatedShared { size, seed } => {
                Payload::simulated(size, &format!("shared:{seed}"))
            }
        };
        let size = payload.len();
        let hash = self.put_block(ctx, account, payload)?;
        self.with_state(account, |st| {
            let ms = Self::next_ms(st);
            let (parent, name, _) = st.tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::IsADirectory("/".into()),
                other => other,
            })?;
            if let Some(&id) = st.tree.dir_children(parent)?.get(name) {
                if st.tree.get(id).expect("child").is_dir() {
                    return Err(H2Error::IsADirectory(path.to_string()));
                }
            }
            st.tree.put_file(parent, name, size, hash.to_hex(), ms)?;
            self.rebuild_index(ctx, account, st)
        })
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        let root = self.with_state(account, |st| Ok(st.root_hash))?;
        let (kind, hash, _, _) = self.walk_blocks(ctx, account, root, path)?;
        if kind == 'D' {
            return Err(H2Error::IsADirectory(path.to_string()));
        }
        self.read_by_hash(ctx, account, hash)
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.with_state(account, |st| {
            let (parent, name, _) = st.tree.resolve_parent(path).map_err(|e| match e {
                H2Error::InvalidPath(_) => H2Error::IsADirectory("/".into()),
                other => other,
            })?;
            let &id = st
                .tree
                .dir_children(parent)?
                .get(name)
                .ok_or_else(|| H2Error::NotFound(path.to_string()))?;
            if st.tree.get(id).expect("child").is_dir() {
                return Err(H2Error::IsADirectory(path.to_string()));
            }
            st.tree.detach(parent, name)?;
            st.tree.remove_subtree(id);
            self.rebuild_index(ctx, account, st)
        })
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        if path.is_root() {
            // Even the synthetic root entry costs the client a HEAD on the
            // root block before it can be reported as a directory.
            let model = ctx.model.clone();
            ctx.charge(PrimKind::Head, model.head_cost());
            return Ok(DirEntry {
                name: "/".into(),
                kind: EntryKind::Directory,
                size: 0,
                modified_ms: 0,
            });
        }
        let root = self.with_state(account, |st| Ok(st.root_hash))?;
        let (kind, _, size, ms) = self.walk_blocks(ctx, account, root, path)?;
        Ok(DirEntry {
            name: path.name().unwrap().to_string(),
            kind: if kind == 'D' {
                EntryKind::Directory
            } else {
                EntryKind::File
            },
            size,
            modified_ms: ms,
        })
    }

    fn quiesce(&self) {}

    /// Mass import: write all content blocks, then rebuild the pointer
    /// index once — instead of one full O(N) rebuild per entry.
    fn bulk_import(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        dirs: &[FsPath],
        files: &[(FsPath, u64)],
    ) -> Result<()> {
        // Store content blocks first (outside the account lock).
        let mut hashes = Vec::with_capacity(files.len());
        for (f, size) in files {
            let payload = Payload::simulated(*size, &f.to_string());
            hashes.push(self.put_block(ctx, account, payload)?);
        }
        self.with_state(account, |st| {
            for d in dirs {
                let ms = Self::next_ms(st);
                let (parent, name, _) = st.tree.resolve_parent(d).map_err(|e| match e {
                    H2Error::InvalidPath(_) => H2Error::AlreadyExists("/".into()),
                    other => other,
                })?;
                st.tree.mkdir(parent, name, ms)?;
            }
            for ((f, size), hash) in files.iter().zip(hashes) {
                let ms = Self::next_ms(st);
                let (parent, name, _) = st.tree.resolve_parent(f)?;
                st.tree.put_file(parent, name, *size, hash.to_hex(), ms)?;
            }
            self.rebuild_index(ctx, account, st)
        })
    }

    fn storage_stats(&self) -> StoreStats {
        StoreStats {
            objects: self.cluster.object_count(),
            bytes: self.cluster.byte_count(),
            index_records: 0,
            index_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn setup() -> (CasFs, OpCtx) {
        let fs = CasFs::new(Cluster::new(ClusterConfig::tiny()));
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn write_read_through_pointer_blocks() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.write(&mut ctx, "alice", &p("/d/f"), FileContent::from_str("cas!"))
            .unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/d/f")).unwrap(),
            FileContent::from_str("cas!")
        );
        let rows = fs.list_detailed(&mut ctx, "alice", &p("/d")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].size, 4);
    }

    #[test]
    fn access_by_hash_is_one_get() {
        let (fs, mut ctx) = setup();
        fs.write(
            &mut ctx,
            "alice",
            &p("/f"),
            FileContent::from_str("addressable"),
        )
        .unwrap();
        let h = fs.hash_of("alice", &p("/f")).unwrap();
        let mut quick = OpCtx::for_test();
        assert_eq!(
            fs.read_by_hash(&mut quick, "alice", h).unwrap(),
            FileContent::from_str("addressable")
        );
        assert_eq!(quick.counts().gets, 1);
        assert_eq!(quick.counts().total(), 1);
    }

    #[test]
    fn identical_content_is_deduplicated() {
        let (fs, mut ctx) = setup();
        fs.write(
            &mut ctx,
            "alice",
            &p("/a"),
            FileContent::from_str("same-bytes"),
        )
        .unwrap();
        let objects = fs.storage_stats().objects;
        fs.write(
            &mut ctx,
            "alice",
            &p("/b"),
            FileContent::from_str("same-bytes"),
        )
        .unwrap();
        // Content block shared; only pointer blocks changed (pointer-block
        // garbage may add objects, but no second content block).
        let h_a = fs.hash_of("alice", &p("/a")).unwrap();
        let h_b = fs.hash_of("alice", &p("/b")).unwrap();
        assert_eq!(h_a, h_b);
        assert!(fs.storage_stats().objects >= objects);
    }

    #[test]
    fn structural_changes_rewrite_pointer_blocks() {
        let (fs, mut ctx) = setup();
        for i in 0..6 {
            fs.mkdir(&mut ctx, "alice", &p(&format!("/d{i}"))).unwrap();
        }
        // MKDIR in a tree with more directories rewrites more blocks.
        let mut big = OpCtx::for_test();
        fs.mkdir(&mut big, "alice", &p("/final")).unwrap();
        assert!(
            big.counts().puts >= 1,
            "index rebuild must write pointer blocks"
        );
        // Root hash changes on every structural op.
        let r1 = fs.root_hash("alice").unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/one-more")).unwrap();
        assert_ne!(fs.root_hash("alice").unwrap(), r1);
    }

    #[test]
    fn move_and_rmdir_work_via_rebuild() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.write(&mut ctx, "alice", &p("/a/f"), FileContent::from_str("v"))
            .unwrap();
        fs.mv(&mut ctx, "alice", &p("/a"), &p("/b")).unwrap();
        assert!(fs.read(&mut ctx, "alice", &p("/a/f")).is_err());
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/b/f")).unwrap(),
            FileContent::from_str("v")
        );
        fs.rmdir(&mut ctx, "alice", &p("/b")).unwrap();
        assert!(fs.stat(&mut ctx, "alice", &p("/b")).is_err());
        assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    }

    #[test]
    fn garbage_sweep_reclaims_dead_blocks_only() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/d/keep"),
            FileContent::from_str("keep me"),
        )
        .unwrap();
        // Churn: overwrites and structural changes strand old blocks.
        for i in 0..5 {
            fs.write(
                &mut ctx,
                "alice",
                &p("/d/churn"),
                FileContent::from_str(&format!("version {i}")),
            )
            .unwrap();
        }
        fs.mkdir(&mut ctx, "alice", &p("/tmp")).unwrap();
        fs.rmdir(&mut ctx, "alice", &p("/tmp")).unwrap();
        let before = fs.storage_stats().objects;
        let reclaimed = fs.sweep_garbage(&mut ctx, "alice").unwrap();
        assert!(reclaimed > 0, "churn must leave garbage blocks");
        assert_eq!(fs.storage_stats().objects, before - reclaimed as u64);
        // Live data untouched.
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/d/keep")).unwrap(),
            FileContent::from_str("keep me")
        );
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/d/churn")).unwrap(),
            FileContent::from_str("version 4")
        );
        // A second sweep finds nothing.
        assert_eq!(fs.sweep_garbage(&mut ctx, "alice").unwrap(), 0);
    }

    #[test]
    fn copy_shares_content_blocks() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/src/f"),
            FileContent::from_str("shared"),
        )
        .unwrap();
        let mut cp = OpCtx::for_test();
        fs.copy(&mut cp, "alice", &p("/src"), &p("/dst")).unwrap();
        // No server-side content copies: hashes are reused.
        assert_eq!(cp.counts().copies, 0);
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/dst/f")).unwrap(),
            FileContent::from_str("shared")
        );
        assert_eq!(
            fs.hash_of("alice", &p("/src/f")).unwrap(),
            fs.hash_of("alice", &p("/dst/f")).unwrap()
        );
    }
}
