//! Compressed Snapshot — Cumulus (§2, Figure 1a).
//!
//! Cumulus backs a filesystem up into an object cloud as *segments* (packed
//! file content) plus a flat *metadata log* listing every path. Appending
//! (new file, new directory) is cheap — write into the current segment and
//! append a log record. Everything else pays for the flatness:
//!
//! * file access scans the metadata log — O(N);
//! * RMDIR/MOVE rewrite the whole log — O(N);
//! * LIST scans the log — O(N);
//! * COPY rewrites the log *and* duplicates content — O(N).
//!
//! Exactly the Table 1 row: "able to backup a filesystem but not competent
//! to maintain a 'real' filesystem that frequently changes."
//!
//! The metadata log is stored in the cloud as chunked `metalog-*` objects
//! and file content as `segment-*` pack objects (inline bytes hex-encoded so
//! every stored object stays an ASCII string, like Cumulus's TAR-of-text
//! segments). An in-memory mirror keeps semantics simple; all costs are
//! charged as if every scan and rewrite went to the cloud — which the PUT
//! and GET calls actually do.

use std::collections::HashMap;
use std::sync::Arc;

use h2fsapi::{CloudFs, DirEntry, EntryKind, FileContent, FsPath, StoreStats};
use h2util::{lock_rank, H2Error, OpCtx, OrderedMutex, Result};
use swiftsim::{Cluster, Meta, ObjectKey, ObjectStore, Payload};

use crate::{to_content, to_payload, with_account, AccountMap};

const CONTAINER: &str = "backup";
/// Files per segment object.
const SEG_CAP: usize = 64;
/// Log records per metalog chunk object.
const LOG_CHUNK: usize = 1024;

/// One metadata-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LogRecord {
    /// Absolute path string.
    path: String,
    kind: EntryKind,
    size: u64,
    /// Segment holding the content (files only).
    segment: u32,
    /// Index within the segment (files only).
    item: u32,
    /// Tombstone: the path was deleted after this record.
    dead: bool,
    modified_ms: u64,
}

struct AccountState {
    log: Vec<LogRecord>,
    /// Next content slot: (segment, item). Writes stream into the current
    /// segment; restores use ranged GETs addressed by (segment, item) —
    /// stored here as one object per item, `segment-<seg>-<item>`.
    cur_segment: u32,
    cur_item: u32,
    ms: u64,
}

impl AccountState {
    fn new() -> Self {
        AccountState {
            log: Vec::new(),
            cur_segment: 0,
            cur_item: 0,
            ms: 1_600_000_000_000,
        }
    }

    fn next_slot(&mut self) -> (u32, u32) {
        let slot = (self.cur_segment, self.cur_item);
        self.cur_item += 1;
        if self.cur_item as usize >= SEG_CAP {
            self.cur_segment += 1;
            self.cur_item = 0;
        }
        slot
    }

    fn next_ms(&mut self) -> u64 {
        self.ms += 1;
        self.ms
    }

    /// Latest live record for `path` (linear scan, newest wins).
    fn find(&self, path: &str) -> Option<&LogRecord> {
        self.log
            .iter()
            .rev()
            .find(|r| r.path == path)
            .filter(|r| !r.dead)
    }

    fn dir_exists(&self, path: &FsPath) -> bool {
        if path.is_root() {
            return true;
        }
        matches!(
            self.find(&path.to_string()),
            Some(LogRecord {
                kind: EntryKind::Directory,
                ..
            })
        )
    }

    /// Drop shadowed and dead records (runs during full rewrites).
    fn compact(&mut self) {
        let mut latest: HashMap<String, usize> = HashMap::new();
        for (i, r) in self.log.iter().enumerate() {
            latest.insert(r.path.clone(), i);
        }
        let mut keep: Vec<LogRecord> = Vec::with_capacity(latest.len());
        for (i, r) in self.log.iter().enumerate() {
            if latest[&r.path] == i && !r.dead {
                keep.push(r.clone());
            }
        }
        keep.sort_by(|a, b| a.path.cmp(&b.path));
        self.log = keep;
    }
}

/// The Cumulus-style snapshot filesystem.
pub struct CumulusFs {
    cluster: Arc<Cluster>,
    by_account: AccountMap<AccountState>,
}

impl CumulusFs {
    pub fn new(cluster: Arc<Cluster>) -> Self {
        CumulusFs {
            cluster,
            by_account: OrderedMutex::new(
                lock_rank::BASELINE_STATE,
                "baselines.cumulus",
                HashMap::new(),
            ),
        }
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn cost_model(&self) -> Arc<h2util::CostModel> {
        self.cluster.cost_model()
    }

    fn key(&self, account: &str, name: &str) -> ObjectKey {
        ObjectKey::new(account, CONTAINER, name)
    }

    /// Charge a full metadata-log scan: GET every metalog chunk + per-entry
    /// CPU. This is the O(N) that dominates every Cumulus operation.
    fn charge_scan(&self, ctx: &mut OpCtx, n: usize) {
        let model = ctx.model.clone();
        let chunks = n.div_ceil(LOG_CHUNK).max(1);
        for _ in 0..chunks {
            ctx.charge(
                h2util::PrimKind::Get,
                model.get_cost(LOG_CHUNK.min(n.max(1)) * 80),
            );
        }
        ctx.charge_time(model.per_entry_cpu * n as u32);
    }

    /// Persist the (compacted) metadata log back to the cloud — the O(N)
    /// rewrite structural changes pay.
    fn rewrite_log(&self, ctx: &mut OpCtx, account: &str, st: &AccountState) -> Result<()> {
        let chunks: Vec<&[LogRecord]> = st.log.chunks(LOG_CHUNK).collect();
        if chunks.is_empty() {
            return self.cluster.put(
                ctx,
                &self.key(account, "metalog-0"),
                Payload::from_string("CUMULUS-LOG 0\n".to_string()),
                Meta::new(),
            );
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let mut body = format!("CUMULUS-LOG {}\n", chunk.len());
            for r in *chunk {
                body.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\n",
                    r.path,
                    match r.kind {
                        EntryKind::File => "F",
                        EntryKind::Directory => "D",
                    },
                    r.size,
                    r.segment,
                    r.item,
                    r.modified_ms,
                ));
            }
            self.cluster.put(
                ctx,
                &self.key(account, &format!("metalog-{i}")),
                Payload::from_string(body),
                Meta::new(),
            )?;
        }
        Ok(())
    }

    /// The object holding one segment item (Cumulus restores address into
    /// segments with ranged GETs; one object per item models that without
    /// re-uploading the whole segment on every append).
    fn seg_key(&self, account: &str, seg: u32, item: u32) -> ObjectKey {
        self.key(account, &format!("segment-{seg:04}-{item:03}"))
    }

    fn append_record(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        st: &mut AccountState,
        rec: LogRecord,
    ) -> Result<()> {
        st.log.push(rec);
        // O(1) amortised: only the tail chunk is rewritten.
        let tail_start = (st.log.len() - 1) / LOG_CHUNK * LOG_CHUNK;
        let tail_len = st.log.len() - tail_start;
        self.cluster.put(
            ctx,
            &self.key(account, &format!("metalog-{}", tail_start / LOG_CHUNK)),
            Payload::from_string(format!("CUMULUS-LOG {tail_len}\n…")),
            Meta::new(),
        )?;
        let _ = account;
        Ok(())
    }

    /// Direct live children of `path`: full scan.
    fn scan_children(&self, st: &AccountState, path: &FsPath) -> Vec<DirEntry> {
        let prefix = if path.is_root() {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut latest: HashMap<&str, &LogRecord> = HashMap::new();
        for r in &st.log {
            if let Some(rest) = r.path.strip_prefix(&prefix) {
                if !rest.is_empty() && !rest.contains('/') {
                    latest.insert(rest, r);
                }
            }
        }
        let mut out: Vec<DirEntry> = latest
            .into_iter()
            .filter(|(_, r)| !r.dead)
            .map(|(name, r)| DirEntry {
                name: name.to_string(),
                kind: r.kind,
                size: r.size,
                modified_ms: r.modified_ms,
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

impl CloudFs for CumulusFs {
    fn name(&self) -> &'static str {
        "Cumulus (Snapshot)"
    }

    fn uses_separate_index(&self) -> bool {
        false
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.cluster
            .create_account_ctx(ctx, account, CONTAINER, false)?;
        self.by_account
            .lock()
            .insert(account.to_string(), AccountState::new());
        Ok(())
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.by_account.lock().remove(account);
        self.cluster.delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        with_account(&self.by_account, account, |st| {
            if path.is_root() {
                return Err(H2Error::AlreadyExists("/".into()));
            }
            let parent = path.parent().expect("non-root");
            if !st.dir_exists(&parent) {
                return Err(H2Error::NotFound(parent.to_string()));
            }
            if st.find(&path.to_string()).is_some() {
                return Err(H2Error::AlreadyExists(path.to_string()));
            }
            let ms = st.next_ms();
            // O(1): append one record.
            self.append_record(
                ctx,
                account,
                st,
                LogRecord {
                    path: path.to_string(),
                    kind: EntryKind::Directory,
                    size: 0,
                    segment: 0,
                    item: 0,
                    dead: false,
                    modified_ms: ms,
                },
            )
        })
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        with_account(&self.by_account, account, |st| {
            if path.is_root() {
                return Err(H2Error::InvalidPath("cannot remove /".into()));
            }
            match st.find(&path.to_string()) {
                Some(r) if r.kind == EntryKind::Directory => {}
                Some(_) => return Err(H2Error::NotADirectory(path.to_string())),
                None => return Err(H2Error::NotFound(path.to_string())),
            }
            // O(N): scan + full rewrite without the subtree.
            self.charge_scan(ctx, st.log.len());
            let prefix = format!("{path}/");
            let target = path.to_string();
            st.log
                .retain(|r| r.path != target && !r.path.starts_with(&prefix));
            st.compact();
            self.rewrite_log(ctx, account, st)
        })
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        with_account(&self.by_account, account, |st| {
            if from.is_root() || to.is_root() {
                return Err(H2Error::InvalidPath("cannot move to or from /".into()));
            }
            if from == to {
                // A self-move is a no-op, but the client still scanned the
                // metadata log to locate the source before concluding so.
                self.charge_scan(ctx, st.log.len());
                return Ok(());
            }
            if from.is_ancestor_of(to) {
                return Err(H2Error::InvalidPath(format!(
                    "cannot move {from} inside itself"
                )));
            }
            if st.find(&from.to_string()).is_none() {
                return Err(H2Error::NotFound(from.to_string()));
            }
            if st.find(&to.to_string()).is_some() {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            let to_parent = to.parent().expect("non-root");
            if !st.dir_exists(&to_parent) {
                return Err(H2Error::NotFound(to_parent.to_string()));
            }
            // O(N): every record under the prefix is rewritten.
            self.charge_scan(ctx, st.log.len());
            let from_s = from.to_string();
            let from_prefix = format!("{from}/");
            let to_s = to.to_string();
            st.compact();
            for r in &mut st.log {
                if r.path == from_s {
                    r.path = to_s.clone();
                } else if let Some(rest) = r.path.strip_prefix(&from_prefix) {
                    r.path = format!("{to_s}/{rest}");
                }
            }
            st.log.sort_by(|a, b| a.path.cmp(&b.path));
            self.rewrite_log(ctx, account, st)
        })
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        with_account(&self.by_account, account, |st| {
            if from.is_root() || to.is_root() {
                return Err(H2Error::InvalidPath("cannot copy to or from /".into()));
            }
            if from == to || from.is_ancestor_of(to) {
                return Err(H2Error::InvalidPath(format!(
                    "cannot copy {from} onto/inside itself"
                )));
            }
            if st.find(&from.to_string()).is_none() {
                return Err(H2Error::NotFound(from.to_string()));
            }
            let to_parent = to.parent().expect("non-root");
            if !st.dir_exists(&to_parent) {
                return Err(H2Error::NotFound(to_parent.to_string()));
            }
            if st.find(&to.to_string()).is_some() {
                return Err(H2Error::AlreadyExists(to.to_string()));
            }
            self.charge_scan(ctx, st.log.len());
            st.compact();
            let from_s = from.to_string();
            let from_prefix = format!("{from}/");
            let to_s = to.to_string();
            let mut additions = Vec::new();
            for r in &st.log {
                let new_path = if r.path == from_s {
                    Some(to_s.clone())
                } else {
                    r.path
                        .strip_prefix(&from_prefix)
                        .map(|rest| format!("{to_s}/{rest}"))
                };
                if let Some(path) = new_path {
                    // Content is shared segment-side (snapshots are
                    // content-addressed-ish); only metadata duplicates.
                    additions.push(LogRecord { path, ..r.clone() });
                }
            }
            st.log.extend(additions);
            st.log.sort_by(|a, b| a.path.cmp(&b.path));
            self.rewrite_log(ctx, account, st)
        })
    }

    fn list_detailed(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        with_account(&self.by_account, account, |st| {
            // O(N): the whole log must be scanned — even to discover the
            // listing target is missing or a plain file.
            self.charge_scan(ctx, st.log.len());
            if !st.dir_exists(path) {
                return match st.find(&path.to_string()) {
                    Some(_) => Err(H2Error::NotADirectory(path.to_string())),
                    None => Err(H2Error::NotFound(path.to_string())),
                };
            }
            Ok(self.scan_children(st, path))
        })
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        with_account(&self.by_account, account, |st| {
            let Some(_) = path.name() else {
                return Err(H2Error::IsADirectory("/".into()));
            };
            let parent = path.parent().expect("non-root");
            if !st.dir_exists(&parent) {
                return Err(H2Error::NotFound(parent.to_string()));
            }
            if let Some(r) = st.find(&path.to_string()) {
                if r.kind == EntryKind::Directory {
                    return Err(H2Error::IsADirectory(path.to_string()));
                }
            }
            let size = content.len();
            let (seg, item) = st.next_slot();
            // Stream the content into the current segment: one PUT of the
            // item's own bytes (appends never re-upload the segment).
            let payload = to_payload(content, path);
            self.cluster
                .put(ctx, &self.seg_key(account, seg, item), payload, Meta::new())?;
            let ms = st.next_ms();
            self.append_record(
                ctx,
                account,
                st,
                LogRecord {
                    path: path.to_string(),
                    kind: EntryKind::File,
                    size,
                    segment: seg,
                    item,
                    dead: false,
                    modified_ms: ms,
                },
            )
        })
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        with_account(&self.by_account, account, |st| {
            // O(N): scan the metadata log to locate the file.
            self.charge_scan(ctx, st.log.len());
            let rec = st
                .find(&path.to_string())
                .ok_or_else(|| H2Error::NotFound(path.to_string()))?;
            if rec.kind == EntryKind::Directory {
                return Err(H2Error::IsADirectory(path.to_string()));
            }
            // Then a ranged GET into the segment holding it.
            let obj = self
                .cluster
                .get(ctx, &self.seg_key(account, rec.segment, rec.item))?;
            Ok(to_content(obj.payload))
        })
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        with_account(&self.by_account, account, |st| {
            match st.find(&path.to_string()) {
                Some(r) if r.kind == EntryKind::File => {}
                Some(_) => return Err(H2Error::IsADirectory(path.to_string())),
                None => return Err(H2Error::NotFound(path.to_string())),
            }
            let ms = st.next_ms();
            self.append_record(
                ctx,
                account,
                st,
                LogRecord {
                    path: path.to_string(),
                    kind: EntryKind::File,
                    size: 0,
                    segment: 0,
                    item: 0,
                    dead: true,
                    modified_ms: ms,
                },
            )
        })
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        with_account(&self.by_account, account, |st| {
            if path.is_root() {
                // The root always exists, but answering still costs the
                // client the first metalog chunk fetch.
                self.charge_scan(ctx, 0);
                return Ok(DirEntry {
                    name: "/".into(),
                    kind: EntryKind::Directory,
                    size: 0,
                    modified_ms: 0,
                });
            }
            self.charge_scan(ctx, st.log.len());
            let rec = st
                .find(&path.to_string())
                .ok_or_else(|| H2Error::NotFound(path.to_string()))?;
            Ok(DirEntry {
                name: path.name().unwrap().to_string(),
                kind: rec.kind,
                size: rec.size,
                modified_ms: rec.modified_ms,
            })
        })
    }

    fn quiesce(&self) {}

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
    use swiftsim::ClusterConfig;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn setup() -> (CumulusFs, OpCtx) {
        let fs = CumulusFs::new(Cluster::new(ClusterConfig::tiny()));
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        (fs, ctx)
    }

    #[test]
    fn backup_and_restore_files() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/home")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/home/a"),
            FileContent::from_str("alpha"),
        )
        .unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/home/b"),
            FileContent::Simulated(1 << 20),
        )
        .unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/home/a")).unwrap(),
            FileContent::from_str("alpha")
        );
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/home/b")).unwrap(),
            FileContent::Simulated(1 << 20)
        );
        let names = fs.list(&mut ctx, "alice", &p("/home")).unwrap();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn file_access_scans_whole_log() {
        let (fs, mut ctx) = setup();
        for i in 0..30 {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("/f{i}")),
                FileContent::from_str("x"),
            )
            .unwrap();
        }
        let mut read_ctx = OpCtx::new(Arc::new(h2util::CostModel::rack_default()));
        fs.read(&mut read_ctx, "alice", &p("/f29")).unwrap();
        let mut small_ctx = OpCtx::new(Arc::new(h2util::CostModel::rack_default()));
        // A fresh account with 1 record scans less.
        fs.create_account(&mut small_ctx, "bob").unwrap();
        fs.write(
            &mut small_ctx,
            "bob",
            &p("/only"),
            FileContent::from_str("x"),
        )
        .unwrap();
        let mut bob_read = OpCtx::new(Arc::new(h2util::CostModel::rack_default()));
        fs.read(&mut bob_read, "bob", &p("/only")).unwrap();
        assert!(read_ctx.elapsed() > bob_read.elapsed());
    }

    #[test]
    fn move_rewrites_log_but_works() {
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
    }

    #[test]
    fn rmdir_removes_subtree_records() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/d/sub")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/d/sub/f"),
            FileContent::from_str("x"),
        )
        .unwrap();
        fs.rmdir(&mut ctx, "alice", &p("/d")).unwrap();
        assert!(fs.stat(&mut ctx, "alice", &p("/d")).is_err());
        assert!(fs.read(&mut ctx, "alice", &p("/d/sub/f")).is_err());
        assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    }

    #[test]
    fn copy_shares_segments() {
        let (fs, mut ctx) = setup();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/a/f"),
            FileContent::from_str("shared"),
        )
        .unwrap();
        let objects_before = fs.storage_stats().objects;
        fs.copy(&mut ctx, "alice", &p("/a"), &p("/b")).unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/b/f")).unwrap(),
            FileContent::from_str("shared")
        );
        // Metadata grew, but no new segment objects were created.
        assert!(fs.storage_stats().objects <= objects_before + 1);
    }

    #[test]
    fn delete_and_overwrite_take_latest_record() {
        let (fs, mut ctx) = setup();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("v1"))
            .unwrap();
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("v2"))
            .unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/f")).unwrap(),
            FileContent::from_str("v2")
        );
        fs.delete_file(&mut ctx, "alice", &p("/f")).unwrap();
        assert!(fs.read(&mut ctx, "alice", &p("/f")).is_err());
        assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    }
}
