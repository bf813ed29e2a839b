//! Shared in-memory directory tree — the metadata index of the tree-backed
//! baselines: the index-server designs (Dynamic Partition, and with one
//! server Single Index and Static Partition) and the shadow tree from which
//! CAS rebuilds its pointer blocks.
//!
//! The tree stores directories as inodes with sorted child maps and files as
//! leaf inodes carrying the object-cloud key of their content. It owns the
//! namespace rules those baselines share — resolution, kind and conflict
//! checks, and the error each failure reports — as path-level operations;
//! the baselines wrap them with their own charges, object-cloud I/O and
//! placement.

use std::collections::{BTreeMap, HashMap};

use h2fsapi::{DirEntry, EntryKind, FsPath};
use h2util::{H2Error, Result};

/// Inode identifier within one tree.
pub type InodeId = u64;

/// Inode payload.
#[derive(Debug, Clone)]
pub enum Node {
    Dir { children: BTreeMap<String, InodeId> },
    File { size: u64, object: String },
}

/// One inode.
#[derive(Debug, Clone)]
pub struct Inode {
    pub node: Node,
    pub modified_ms: u64,
}

impl Inode {
    pub fn is_dir(&self) -> bool {
        matches!(self.node, Node::Dir { .. })
    }
}

/// Result of resolving a path: the inode plus how many parent-to-child hops
/// the walk took (the paper's `d`).
#[derive(Debug, Clone, Copy)]
pub struct ResolvedInode {
    pub id: InodeId,
    pub hops: usize,
}

/// What COPY reads from its source before any content moves: every file
/// with its path below the source (one row with an empty path when the
/// source is itself a file) and every directory below it. A baseline that
/// copies content rewrites each file's object key before the graft.
#[derive(Debug)]
pub(crate) struct CopySnapshot {
    pub(crate) files: Vec<(Vec<String>, u64, String)>,
    dirs: Vec<Vec<String>>,
    is_dir: bool,
}

/// An in-memory filesystem tree for one account.
#[derive(Debug)]
pub struct TreeIndex {
    nodes: HashMap<InodeId, Inode>,
    root: InodeId,
    next: InodeId,
}

impl Default for TreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeIndex {
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert(
            0,
            Inode {
                node: Node::Dir {
                    children: BTreeMap::new(),
                },
                modified_ms: 0,
            },
        );
        TreeIndex {
            nodes,
            root: 0,
            next: 1,
        }
    }

    pub fn root(&self) -> InodeId {
        self.root
    }

    pub fn get(&self, id: InodeId) -> Option<&Inode> {
        self.nodes.get(&id)
    }

    /// Total inodes (directories + files) excluding the root — the index
    /// records a separate metadata service would hold.
    pub fn record_count(&self) -> u64 {
        (self.nodes.len() - 1) as u64
    }

    /// Rough byte footprint of the index (name bytes + fixed per inode).
    pub fn record_bytes(&self) -> u64 {
        self.nodes
            .values()
            .map(|i| match &i.node {
                Node::Dir { children } => {
                    48 + children.keys().map(|k| k.len() as u64 + 16).sum::<u64>()
                }
                Node::File { object, .. } => 48 + object.len() as u64,
            })
            .sum()
    }

    /// Walk `path` from the root. Each component costs one hop.
    pub fn resolve(&self, path: &FsPath) -> Result<ResolvedInode> {
        let mut id = self.root;
        let mut hops = 0usize;
        for comp in path.components() {
            let inode = &self.nodes[&id];
            match &inode.node {
                Node::Dir { children } => {
                    id = *children
                        .get(comp)
                        .ok_or_else(|| H2Error::NotFound(path.to_string()))?;
                    hops += 1;
                }
                Node::File { .. } => return Err(H2Error::NotADirectory(path.to_string())),
            }
        }
        Ok(ResolvedInode { id, hops })
    }

    /// Resolve the parent directory of `path` and return it with the leaf
    /// name; the root has no parent (`InvalidPath`).
    fn resolve_parent<'p>(&self, path: &'p FsPath) -> Result<(InodeId, &'p str)> {
        let name = path
            .name()
            .ok_or_else(|| H2Error::InvalidPath("/ has no parent".into()))?;
        let parent = path.parent().expect("non-root path");
        let r = self.resolve(&parent)?;
        if !self.nodes[&r.id].is_dir() {
            return Err(H2Error::NotADirectory(parent.to_string()));
        }
        Ok((r.id, name))
    }

    /// [`TreeIndex::resolve_parent`] that reports `/`, which has no parent,
    /// as `root_error("/")`.
    fn resolve_parent_or<'p>(
        &self,
        path: &'p FsPath,
        root_error: fn(String) -> H2Error,
    ) -> Result<(InodeId, &'p str)> {
        self.resolve_parent(path).map_err(|e| match e {
            H2Error::InvalidPath(_) => root_error("/".into()),
            other => other,
        })
    }

    /// RMDIR's check before any index access: `/` cannot be removed.
    pub(crate) fn check_rmdir(path: &FsPath) -> Result<()> {
        if path.is_root() {
            return Err(H2Error::InvalidPath("cannot remove /".into()));
        }
        Ok(())
    }

    /// MOVE's checks before any index access. `Ok(false)` is a move of a
    /// path onto itself: valid, and nothing to do.
    pub(crate) fn move_needed(from: &FsPath, to: &FsPath) -> Result<bool> {
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot move to or from /".into()));
        }
        if from == to {
            return Ok(false);
        }
        if from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot move {from} inside itself"
            )));
        }
        Ok(true)
    }

    /// COPY's checks before any index access.
    pub(crate) fn check_copy(from: &FsPath, to: &FsPath) -> Result<()> {
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot copy to or from /".into()));
        }
        if from == to || from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot copy {from} onto/inside itself"
            )));
        }
        Ok(())
    }

    /// MKDIR `path`; returns the parent's inode and the new directory's.
    pub(crate) fn mkdir(&mut self, path: &FsPath, ms: u64) -> Result<(InodeId, InodeId)> {
        let (parent, name) = self.resolve_parent_or(path, H2Error::AlreadyExists)?;
        let id = self.mkdir_in(parent, name, ms).map_err(|e| match e {
            H2Error::AlreadyExists(_) => H2Error::AlreadyExists(path.to_string()),
            other => other,
        })?;
        Ok((parent, id))
    }

    /// RMDIR `path` (not `/`, see [`TreeIndex::check_rmdir`]) with all it
    /// holds; returns the content-object keys of the files removed.
    pub(crate) fn rmdir(&mut self, path: &FsPath) -> Result<Vec<String>> {
        let r = self.resolve(path)?;
        if !self.nodes[&r.id].is_dir() {
            return Err(H2Error::NotADirectory(path.to_string()));
        }
        let (parent, name) = self.resolve_parent(path)?;
        self.detach(parent, name)?;
        Ok(self.remove_subtree(r.id))
    }

    /// MOVE `from` to `to` as one pointer detach and attach, whatever the
    /// subtree holds (after [`TreeIndex::move_needed`]).
    pub(crate) fn rename(&mut self, from: &FsPath, to: &FsPath, ms: u64) -> Result<()> {
        let (src_parent, src_name) = self.resolve_parent(from)?;
        let (dst_parent, dst_name) = self.resolve_parent(to)?;
        if self.dir_children(dst_parent)?.contains_key(dst_name) {
            return Err(H2Error::AlreadyExists(to.to_string()));
        }
        if !self.dir_children(src_parent)?.contains_key(src_name) {
            return Err(H2Error::NotFound(from.to_string()));
        }
        let id = self.detach(src_parent, src_name)?;
        self.attach(dst_parent, dst_name, id, ms)
    }

    /// Whether a WRITE may put a file at `path`: its parent is a directory
    /// and `path` is not one.
    pub(crate) fn check_write(&self, path: &FsPath) -> Result<()> {
        let (parent, name) = self.resolve_parent_or(path, H2Error::IsADirectory)?;
        if let Some(&id) = self.dir_children(parent)?.get(name) {
            if self.nodes[&id].is_dir() {
                return Err(H2Error::IsADirectory(path.to_string()));
            }
        }
        Ok(())
    }

    /// Create or overwrite the file at `path` (after
    /// [`TreeIndex::check_write`]); returns the previous content-object key
    /// when overwriting.
    pub(crate) fn write(
        &mut self,
        path: &FsPath,
        size: u64,
        object: String,
        ms: u64,
    ) -> Result<Option<String>> {
        let (parent, name) = self.resolve_parent(path)?;
        self.put_file(parent, name, size, object, ms)
    }

    /// DELETE the file at `path`; returns its content-object key and size.
    pub(crate) fn unlink(&mut self, path: &FsPath) -> Result<(String, u64)> {
        let (parent, name) = self.resolve_parent_or(path, H2Error::IsADirectory)?;
        let &id = self
            .dir_children(parent)?
            .get(name)
            .ok_or_else(|| H2Error::NotFound(path.to_string()))?;
        let size = match &self.nodes[&id].node {
            Node::File { size, .. } => *size,
            Node::Dir { .. } => return Err(H2Error::IsADirectory(path.to_string())),
        };
        self.detach(parent, name)?;
        Ok((self.remove_subtree(id).remove(0), size))
    }

    /// The content-object key of the file at `path`.
    pub(crate) fn file_object(&self, path: &FsPath) -> Result<&str> {
        let r = self.resolve(path)?;
        match &self.nodes[&r.id].node {
            Node::File { object, .. } => Ok(object),
            Node::Dir { .. } => Err(H2Error::IsADirectory(path.to_string())),
        }
    }

    /// STAT `path`.
    pub(crate) fn stat(&self, path: &FsPath) -> Result<DirEntry> {
        let r = self.resolve(path)?;
        Ok(Self::entry(
            path.name().unwrap_or("/").to_string(),
            &self.nodes[&r.id],
        ))
    }

    /// LIST-DETAIL the directory at `path`, in name order.
    pub(crate) fn list(&self, path: &FsPath) -> Result<Vec<DirEntry>> {
        let r = self.resolve(path)?;
        let Node::Dir { children } = &self.nodes[&r.id].node else {
            return Err(H2Error::NotADirectory(path.to_string()));
        };
        Ok(children
            .iter()
            .map(|(name, cid)| Self::entry(name.clone(), &self.nodes[cid]))
            .collect())
    }

    fn entry(name: String, inode: &Inode) -> DirEntry {
        let (kind, size) = match &inode.node {
            Node::Dir { .. } => (EntryKind::Directory, 0),
            Node::File { size, .. } => (EntryKind::File, *size),
        };
        DirEntry {
            name,
            kind,
            size,
            modified_ms: inode.modified_ms,
        }
    }

    /// COPY's first step (after [`TreeIndex::check_copy`]): check that
    /// `from` exists and `to` is free, and read what the copy must recreate.
    pub(crate) fn copy_snapshot(&self, from: &FsPath, to: &FsPath) -> Result<CopySnapshot> {
        let r = self.resolve(from)?;
        let (dst_parent, dst_name) = self.resolve_parent(to)?;
        if self.dir_children(dst_parent)?.contains_key(dst_name) {
            return Err(H2Error::AlreadyExists(to.to_string()));
        }
        Ok(match &self.nodes[&r.id].node {
            Node::File { size, object } => CopySnapshot {
                files: vec![(Vec::new(), *size, object.clone())],
                dirs: Vec::new(),
                is_dir: false,
            },
            Node::Dir { .. } => CopySnapshot {
                files: self.subtree_files(r.id),
                dirs: self.subtree_dirs(r.id),
                is_dir: true,
            },
        })
    }

    /// COPY's last step: build `snapshot` at `to`. Returns the parent of
    /// `to` and every directory created, the copy's root first.
    pub(crate) fn graft(
        &mut self,
        to: &FsPath,
        snapshot: CopySnapshot,
        ms: u64,
    ) -> Result<(InodeId, Vec<InodeId>)> {
        let (dst_parent, dst_name) = self.resolve_parent(to)?;
        let CopySnapshot {
            files,
            dirs,
            is_dir,
        } = snapshot;
        if !is_dir {
            let (_, size, object) = files.into_iter().next().expect("one file");
            self.put_file(dst_parent, dst_name, size, object, ms)?;
            return Ok((dst_parent, Vec::new()));
        }
        let root_id = self.mkdir_in(dst_parent, dst_name, ms)?;
        let mut made = vec![root_id];
        for rel in &dirs {
            let mut cur = root_id;
            for comp in rel {
                cur = match self.dir_children(cur)?.get(comp) {
                    Some(&id) => id,
                    None => {
                        let id = self.mkdir_in(cur, comp, ms)?;
                        made.push(id);
                        id
                    }
                };
            }
        }
        for (rel, size, object) in files {
            let mut cur = root_id;
            for comp in &rel[..rel.len() - 1] {
                cur = *self.dir_children(cur)?.get(comp).expect("dir created");
            }
            self.put_file(cur, rel.last().expect("file name"), size, object, ms)?;
        }
        Ok((dst_parent, made))
    }

    fn alloc(&mut self, node: Node, ms: u64) -> InodeId {
        let id = self.next;
        self.next += 1;
        self.nodes.insert(
            id,
            Inode {
                node,
                modified_ms: ms,
            },
        );
        id
    }

    fn dir_children_mut(&mut self, id: InodeId) -> &mut BTreeMap<String, InodeId> {
        match &mut self.nodes.get_mut(&id).expect("inode exists").node {
            Node::Dir { children } => children,
            Node::File { .. } => panic!("inode {id} is not a directory"),
        }
    }

    pub fn dir_children(&self, id: InodeId) -> Result<&BTreeMap<String, InodeId>> {
        match &self
            .nodes
            .get(&id)
            .ok_or_else(|| H2Error::NotFound(format!("inode {id}")))?
            .node
        {
            Node::Dir { children } => Ok(children),
            Node::File { .. } => Err(H2Error::NotADirectory(format!("inode {id}"))),
        }
    }

    /// Create a directory under `parent`.
    fn mkdir_in(&mut self, parent: InodeId, name: &str, ms: u64) -> Result<InodeId> {
        if self.dir_children(parent)?.contains_key(name) {
            return Err(H2Error::AlreadyExists(name.to_string()));
        }
        let id = self.alloc(
            Node::Dir {
                children: BTreeMap::new(),
            },
            ms,
        );
        self.dir_children_mut(parent).insert(name.to_string(), id);
        Ok(id)
    }

    /// Create or overwrite a file entry under `parent`. Returns the
    /// previous content-object key when overwriting.
    fn put_file(
        &mut self,
        parent: InodeId,
        name: &str,
        size: u64,
        object: String,
        ms: u64,
    ) -> Result<Option<String>> {
        let existing = self.dir_children(parent)?.get(name).copied();
        match existing {
            Some(id) => {
                let inode = self.nodes.get_mut(&id).expect("child inode");
                match &mut inode.node {
                    Node::File { size: s, object: o } => {
                        let old = std::mem::replace(o, object);
                        *s = size;
                        inode.modified_ms = ms;
                        Ok(Some(old))
                    }
                    Node::Dir { .. } => Err(H2Error::IsADirectory(name.to_string())),
                }
            }
            None => {
                let id = self.alloc(Node::File { size, object }, ms);
                self.dir_children_mut(parent).insert(name.to_string(), id);
                Ok(None)
            }
        }
    }

    /// Detach `name` from `parent` and return the subtree root inode id.
    fn detach(&mut self, parent: InodeId, name: &str) -> Result<InodeId> {
        let id = self
            .dir_children_mut(parent)
            .remove(name)
            .ok_or_else(|| H2Error::NotFound(name.to_string()))?;
        Ok(id)
    }

    /// Attach an existing inode under a (new) parent — the O(1) pointer
    /// move that makes index-server MOVE constant-time.
    fn attach(&mut self, parent: InodeId, name: &str, id: InodeId, ms: u64) -> Result<()> {
        if self.dir_children(parent)?.contains_key(name) {
            return Err(H2Error::AlreadyExists(name.to_string()));
        }
        self.dir_children_mut(parent).insert(name.to_string(), id);
        if let Some(n) = self.nodes.get_mut(&id) {
            n.modified_ms = ms;
        }
        Ok(())
    }

    /// Delete the subtree rooted at `id`, returning the content-object keys
    /// of every file removed (so the caller can reclaim cloud objects).
    fn remove_subtree(&mut self, id: InodeId) -> Vec<String> {
        let mut objects = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(inode) = self.nodes.remove(&cur) {
                match inode.node {
                    Node::Dir { children } => stack.extend(children.into_values()),
                    Node::File { object, .. } => objects.push(object),
                }
            }
        }
        objects
    }

    /// All `(relative components, size, object)` files in the subtree at
    /// `id`, in deterministic order — what COPY iterates.
    fn subtree_files(&self, id: InodeId) -> Vec<(Vec<String>, u64, String)> {
        let mut out = Vec::new();
        let mut stack: Vec<(InodeId, Vec<String>)> = vec![(id, Vec::new())];
        while let Some((cur, prefix)) = stack.pop() {
            match &self.nodes[&cur].node {
                Node::Dir { children } => {
                    for (name, cid) in children.iter().rev() {
                        let mut p = prefix.clone();
                        p.push(name.clone());
                        stack.push((*cid, p));
                    }
                }
                Node::File { size, object } => out.push((prefix, *size, object.clone())),
            }
        }
        out
    }

    /// All directories (relative component paths) in the subtree at `id`,
    /// parents before children.
    fn subtree_dirs(&self, id: InodeId) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut stack: Vec<(InodeId, Vec<String>)> = vec![(id, Vec::new())];
        while let Some((cur, prefix)) = stack.pop() {
            if let Node::Dir { children } = &self.nodes[&cur].node {
                if !prefix.is_empty() {
                    out.push(prefix.clone());
                }
                for (name, cid) in children.iter().rev() {
                    let mut p = prefix.clone();
                    p.push(name.clone());
                    stack.push((*cid, p));
                }
            }
        }
        out.sort();
        out
    }

    /// Count live inodes in the subtree at `id` (dirs + files).
    pub fn subtree_size(&self, id: InodeId) -> usize {
        let mut n = 0usize;
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            n += 1;
            if let Node::Dir { children } = &self.nodes[&cur].node {
                stack.extend(children.values().copied());
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn sample() -> TreeIndex {
        let mut t = TreeIndex::new();
        t.mkdir(&p("/home"), 1).unwrap();
        t.mkdir(&p("/home/alice"), 2).unwrap();
        t.write(&p("/home/alice/a.txt"), 10, "obj-a".into(), 3)
            .unwrap();
        t.write(&p("/home/alice/b.txt"), 20, "obj-b".into(), 4)
            .unwrap();
        t.mkdir(&p("/home/alice/docs"), 5).unwrap();
        t
    }

    #[test]
    fn resolve_counts_hops() {
        let t = sample();
        assert_eq!(t.resolve(&p("/")).unwrap().hops, 0);
        assert_eq!(t.resolve(&p("/home/alice/a.txt")).unwrap().hops, 3);
        assert_eq!(t.resolve(&p("/missing")).unwrap_err().code(), "not-found");
        assert_eq!(
            t.resolve(&p("/home/alice/a.txt/x")).unwrap_err().code(),
            "not-a-directory"
        );
    }

    #[test]
    fn mkdir_and_duplicates() {
        let mut t = sample();
        assert_eq!(
            t.mkdir(&p("/home/alice/docs"), 9).unwrap_err().to_string(),
            "already exists: /home/alice/docs"
        );
        assert_eq!(
            t.mkdir(&p("/"), 9).unwrap_err().to_string(),
            "already exists: /"
        );
        t.mkdir(&p("/home/alice/new"), 9).unwrap();
        assert!(t.resolve(&p("/home/alice/new")).is_ok());
    }

    #[test]
    fn put_file_overwrites_and_returns_old_object() {
        let mut t = sample();
        let old = t
            .write(&p("/home/alice/a.txt"), 99, "obj-a2".into(), 9)
            .unwrap();
        assert_eq!(old.as_deref(), Some("obj-a"));
        let id = t.resolve(&p("/home/alice/a.txt")).unwrap().id;
        match &t.get(id).unwrap().node {
            Node::File { size, object } => {
                assert_eq!(*size, 99);
                assert_eq!(object, "obj-a2");
            }
            _ => panic!(),
        }
        // Overwriting a dir with a file is rejected, checked or not.
        let docs = p("/home/alice/docs");
        assert_eq!(t.check_write(&docs).unwrap_err().code(), "is-a-directory");
        assert_eq!(
            t.write(&docs, 1, "x".into(), 9).unwrap_err().code(),
            "is-a-directory"
        );
    }

    #[test]
    fn detach_attach_is_constant_pointer_move() {
        let mut t = sample();
        t.rename(&p("/home/alice"), &p("/alice-moved"), 99).unwrap();
        assert!(t.resolve(&p("/home/alice")).is_err());
        assert_eq!(t.resolve(&p("/alice-moved/a.txt")).unwrap().hops, 2);
    }

    #[test]
    fn remove_subtree_returns_all_objects() {
        let mut t = sample();
        let mut objs = t.rmdir(&p("/home/alice")).unwrap();
        objs.sort();
        assert_eq!(objs, ["obj-a", "obj-b"]);
        assert_eq!(t.record_count(), 1); // only /home remains
    }

    #[test]
    fn list_is_sorted_with_kinds() {
        let t = sample();
        let rows = t.list(&p("/home/alice")).unwrap();
        let names: Vec<_> = rows.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.txt", "b.txt", "docs"]);
        assert_eq!(rows[2].kind, EntryKind::Directory);
        assert_eq!(rows[0].size, 10);
    }

    #[test]
    fn subtree_files_and_dirs() {
        let t = sample();
        let home = t.resolve(&p("/home")).unwrap().id;
        let files = t.subtree_files(home);
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].0, ["alice", "a.txt"]);
        let dirs = t.subtree_dirs(home);
        assert_eq!(
            dirs,
            [
                vec!["alice".to_string()],
                vec!["alice".into(), "docs".into()]
            ]
        );
        assert_eq!(t.subtree_size(home), 5);
    }

    #[test]
    fn record_accounting() {
        let t = sample();
        assert_eq!(t.record_count(), 5);
        assert!(t.record_bytes() > 0);
    }
}
