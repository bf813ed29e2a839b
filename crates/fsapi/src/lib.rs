//! The common cloud-filesystem interface.
//!
//! The paper compares several designs (H2, Swift's CH + file-path DB,
//! Dynamic Partition, …) on the *same* POSIX-like operation set: READ,
//! WRITE, MKDIR, RMDIR, MOVE/RENAME, LIST and COPY. This crate defines that
//! operation set once — the [`CloudFs`] trait — together with the path and
//! entry types, so the identical workload generator, test suite and figure
//! harness can drive every implementation.

pub mod path;

use std::time::Duration;

use h2util::{BackendCounts, OpCtx, Result};

pub use path::FsPath;

/// What kind of node a directory entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    File,
    Directory,
}

/// A directory entry with the detail a `LIST -l` would return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    pub name: String,
    pub kind: EntryKind,
    /// Logical size in bytes (0 for directories).
    pub size: u64,
    /// Millisecond timestamp of the last structural update.
    pub modified_ms: u64,
}

/// File payload. Large simulated files carry only a size so benchmarks can
/// host "multi-GB videos" without allocating gigabytes; small files carry
/// real bytes that round-trip through the store. Inline bytes live in a
/// [`h2util::SharedBuf`], so cloning a `FileContent` (and handing it middleware →
/// cluster → replicas) shares storage instead of deep-copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileContent {
    /// Real bytes, stored and returned verbatim.
    Inline(h2util::SharedBuf),
    /// Size-only stand-in for large content; the store tracks the size and
    /// charges transfer costs for it.
    Simulated(u64),
    /// Size-only stand-in whose identity is the `seed`, not the file path:
    /// two writes with the same seed and size represent *the same bytes*,
    /// so content-addressed stores (the `cas` plane) deduplicate them
    /// across files, users and accounts. Stores without content addressing
    /// treat it exactly like [`FileContent::Simulated`].
    SimulatedShared { size: u64, seed: u64 },
}

impl FileContent {
    pub fn len(&self) -> u64 {
        match self {
            FileContent::Inline(b) => b.len() as u64,
            FileContent::Simulated(n) => *n,
            FileContent::SimulatedShared { size, .. } => *size,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inline content from a text literal. (Deliberately *not*
    /// `std::str::FromStr` — construction is infallible.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Self {
        FileContent::Inline(h2util::SharedBuf::from_slice(s.as_bytes()))
    }
}

/// Aggregate storage-side statistics, the basis of the paper's Figures 14
/// (number of objects) and 15 (size of objects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total objects held in the object cloud (files + any index objects the
    /// design stores there).
    pub objects: u64,
    /// Total logical bytes of those objects.
    pub bytes: u64,
    /// Records held in *separate* (non-object-cloud) indexes: file-path DB
    /// rows, DP/namenode index entries. Zero for pure single-cloud designs —
    /// this is exactly the state the paper wants to eliminate.
    pub index_records: u64,
    /// Logical bytes of that separate index state.
    pub index_bytes: u64,
}

/// Result of one filesystem operation: virtual service time plus the
/// backend-primitive counts that produced it.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpReport {
    pub time: Duration,
    pub backend: BackendCounts,
}

impl OpReport {
    pub fn from_ctx(ctx: &OpCtx) -> Self {
        OpReport {
            time: ctx.elapsed(),
            backend: ctx.counts(),
        }
    }
}

/// The POSIX-like cloud filesystem interface every design implements.
///
/// All methods take an explicit [`OpCtx`] that accumulates the operation's
/// virtual time and backend-op counts; `ctx.elapsed()` after the call is the
/// paper's "operation time" for that request.
///
/// Semantics shared by all implementations (matching §5's workload):
///
/// * Paths are absolute, `/`-separated, account-rooted ([`FsPath`]).
/// * `mkdir` creates one directory; the parent must exist.
/// * `rmdir` removes a directory *and its contents* (the paper's RMDIR is
///   O(n)-vs-O(1) on exactly this: how much work removing a populated
///   directory takes).
/// * `mv` moves/renames a file or directory (RENAME is `mv` within the same
///   parent, as the paper notes).
/// * `copy` deep-copies a file or directory tree.
/// * `list` returns names of direct children only (the paper's O(1) LIST on
///   H2); `list_detailed` returns full [`DirEntry`] info (the O(m) variant
///   measured in Figures 9 and 10).
/// * `read` performs the *lookup* and returns the content handle; the
///   figures measure lookup time only, exactly as §5.2 does.
pub trait CloudFs {
    /// Short system name used in figure rows, e.g. `"H2Cloud"`.
    fn name(&self) -> &'static str;

    /// Whether the design needs a separate (non-object-cloud) index — the
    /// two-cloud architectures of Table 1.
    fn uses_separate_index(&self) -> bool;

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()>;
    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()>;

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()>;
    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()>;
    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()>;
    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()>;

    /// Names of direct children: by default the names of
    /// [`CloudFs::list_detailed`], at its cost.
    fn list(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<Vec<String>> {
        Ok(self
            .list_detailed(ctx, account, path)?
            .into_iter()
            .map(|e| e.name)
            .collect())
    }
    /// Direct children with full metadata.
    fn list_detailed(&self, ctx: &mut OpCtx, account: &str, path: &FsPath)
        -> Result<Vec<DirEntry>>;

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()>;
    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent>;
    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()>;

    /// Metadata for one path.
    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry>;

    /// Bulk-load a tree (`dirs` parents-first, then `files`) — the mass
    /// import path a migration tool would use. The default issues ordinary
    /// per-entry operations; designs with per-directory index objects
    /// (H2's NameRings, CAS's pointer blocks) override it to build each
    /// index object once instead of rewriting it per entry.
    fn bulk_import(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        dirs: &[FsPath],
        files: &[(FsPath, u64)],
    ) -> Result<()> {
        for d in dirs {
            self.mkdir(ctx, account, d)?;
        }
        for (f, size) in files {
            self.write(ctx, account, f, FileContent::Simulated(*size))?;
        }
        Ok(())
    }

    /// Drive any asynchronous maintenance (patch merging, gossip,
    /// replication) to quiescence. No-op for synchronous designs.
    fn quiesce(&self);

    /// Storage-side totals for the overhead figures.
    fn storage_stats(&self) -> StoreStats;
}

/// References forward to the underlying implementation, so generic drivers
/// (the multi-client load generator in particular) can treat an owned view
/// and a shared `&SwiftFs` uniformly as `V: CloudFs`.
impl<T: CloudFs + ?Sized> CloudFs for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn uses_separate_index(&self) -> bool {
        (**self).uses_separate_index()
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        (**self).create_account(ctx, account)
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        (**self).delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        (**self).mkdir(ctx, account, path)
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        (**self).rmdir(ctx, account, path)
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        (**self).mv(ctx, account, from, to)
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        (**self).copy(ctx, account, from, to)
    }

    fn list(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<Vec<String>> {
        (**self).list(ctx, account, path)
    }

    fn list_detailed(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        (**self).list_detailed(ctx, account, path)
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        (**self).write(ctx, account, path, content)
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        (**self).read(ctx, account, path)
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        (**self).delete_file(ctx, account, path)
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        (**self).stat(ctx, account, path)
    }

    fn bulk_import(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        dirs: &[FsPath],
        files: &[(FsPath, u64)],
    ) -> Result<()> {
        (**self).bulk_import(ctx, account, dirs, files)
    }

    fn quiesce(&self) {
        (**self).quiesce()
    }

    fn storage_stats(&self) -> StoreStats {
        (**self).storage_stats()
    }
}

/// Convenience: run `op` in a fresh context derived from `model` and return
/// its report together with the result.
pub fn measured<T>(
    model: std::sync::Arc<h2util::CostModel>,
    op: impl FnOnce(&mut OpCtx) -> Result<T>,
) -> (Result<T>, OpReport) {
    let mut ctx = OpCtx::new(model);
    let r = op(&mut ctx);
    let report = OpReport::from_ctx(&ctx);
    (r, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_content_length() {
        assert_eq!(FileContent::from_str("hello").len(), 5);
        assert_eq!(FileContent::Simulated(1 << 30).len(), 1 << 30);
        assert!(FileContent::Inline(h2util::SharedBuf::new()).is_empty());
        assert!(!FileContent::Simulated(1).is_empty());
    }

    #[test]
    fn measured_reports_context_spend() {
        use h2util::{CostModel, PrimKind};
        use std::sync::Arc;
        let (r, rep) = measured(Arc::new(CostModel::rack_default()), |ctx| {
            let c = ctx.model.get_cost(100);
            ctx.charge(PrimKind::Get, c);
            Ok(42)
        });
        assert_eq!(r.unwrap(), 42);
        assert_eq!(rep.backend.gets, 1);
        assert!(rep.time > Duration::ZERO);
    }
}
