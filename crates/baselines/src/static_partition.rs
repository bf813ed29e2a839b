//! Static Partition — the AFS architecture (§2).
//!
//! Users are statically assigned to object storage servers ("volumes"),
//! each of which serves its users' directory trees locally: CMU's 2 GB per
//! enrolled student. Per-operation mechanics and complexities match the
//! index-server design (file access O(d), directory ops O(1), LIST O(m),
//! COPY O(n)), so the volumes run one [`DpFs::single_index`]; the
//! architectural difference the paper criticises is that
//! the assignment is static — a volume cannot grow past its server, and
//! cross-partition operations are not supported at all.
//!
//! We model a set of volumes; each account hashes to one at creation and
//! stays there forever. Volume capacity is enforced: once a volume's byte
//! quota is exhausted, writes fail with `Unavailable` even if other volumes
//! have room — the "scalability: No" entry of Table 1 made observable.

use std::collections::HashMap;
use std::sync::Arc;

use h2fsapi::{CloudFs, DirEntry, FileContent, FsPath, StoreStats};
use h2util::{hash64, lock_rank, H2Error, OpCtx, OrderedMutex, Result};
use swiftsim::Cluster;

use crate::dp::DpFs;

/// The static-partition filesystem: fixed volumes over one object cloud.
pub struct StaticPartitionFs {
    inner: DpFs,
    volumes: usize,
    /// Bytes written per volume (quota accounting).
    usage: OrderedMutex<Vec<u64>>,
    /// Account → volume, fixed at account creation.
    assignment: OrderedMutex<HashMap<String, usize>>,
    /// Per-volume byte quota (u64::MAX = unbounded).
    quota: u64,
}

impl StaticPartitionFs {
    pub fn new(cluster: Arc<Cluster>, volumes: usize, quota: u64) -> Self {
        assert!(volumes >= 1);
        StaticPartitionFs {
            inner: DpFs::single_index(cluster),
            volumes,
            usage: OrderedMutex::new(
                lock_rank::BASELINE_STATE,
                "baselines.volume_usage",
                vec![0; volumes],
            ),
            assignment: OrderedMutex::new(
                lock_rank::BASELINE_STATE,
                "baselines.volume_assignment",
                HashMap::new(),
            ),
            quota,
        }
    }

    pub fn cost_model(&self) -> Arc<h2util::CostModel> {
        self.inner.cost_model()
    }

    /// Which volume serves this account.
    pub fn volume_of(&self, account: &str) -> Option<usize> {
        self.assignment.lock().get(account).copied()
    }

    /// Bytes used per volume.
    pub fn volume_usage(&self) -> Vec<u64> {
        self.usage.lock().clone()
    }

    fn check_quota(&self, account: &str, additional: u64) -> Result<usize> {
        let vol = self
            .volume_of(account)
            .ok_or_else(|| H2Error::NoSuchAccount(account.to_string()))?;
        let usage = self.usage.lock();
        if usage[vol].saturating_add(additional) > self.quota {
            return Err(H2Error::Unavailable(format!(
                "volume {vol} quota exhausted ({} + {additional} > {})",
                usage[vol], self.quota
            )));
        }
        Ok(vol)
    }
}

impl CloudFs for StaticPartitionFs {
    fn name(&self) -> &'static str {
        "Static Partition"
    }

    fn uses_separate_index(&self) -> bool {
        false // the index lives with each partition's storage server
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.inner.create_account(ctx, account)?;
        let vol = (hash64(account.as_bytes()) % self.volumes as u64) as usize;
        self.assignment.lock().insert(account.to_string(), vol);
        Ok(())
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.assignment.lock().remove(account);
        self.inner.delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.check_quota(account, 0)?;
        self.inner.mkdir(ctx, account, path)
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        let before = self.inner.cluster().byte_count();
        self.inner.rmdir(ctx, account, path)?;
        let freed = before.saturating_sub(self.inner.cluster().byte_count());
        if let Some(vol) = self.volume_of(account) {
            let mut usage = self.usage.lock();
            usage[vol] = usage[vol].saturating_sub(freed);
        }
        Ok(())
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.inner.mv(ctx, account, from, to)
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        let before = self.inner.cluster().byte_count();
        self.inner.copy(ctx, account, from, to)?;
        let added = self.inner.cluster().byte_count().saturating_sub(before);
        let vol = self.check_quota(account, 0)?;
        self.usage.lock()[vol] += added;
        Ok(())
    }

    fn list_detailed(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        self.inner.list_detailed(ctx, account, path)
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        let vol = self.check_quota(account, content.len())?;
        let size = content.len();
        self.inner.write(ctx, account, path, content)?;
        self.usage.lock()[vol] += size;
        Ok(())
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        self.inner.read(ctx, account, path)
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        let size = self.inner.delete_file_sized(ctx, account, path)?;
        if let Some(vol) = self.volume_of(account) {
            let mut usage = self.usage.lock();
            usage[vol] = usage[vol].saturating_sub(size);
        }
        Ok(())
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        self.inner.stat(ctx, account, path)
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn storage_stats(&self) -> StoreStats {
        // The per-partition indexes are not a *separate* cloud, but we
        // still report their size for the overhead comparison.
        self.inner.storage_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim::ClusterConfig;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    #[test]
    fn accounts_stick_to_volumes() {
        let fs = StaticPartitionFs::new(Cluster::new(ClusterConfig::tiny()), 4, u64::MAX);
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        fs.create_account(&mut ctx, "bob").unwrap();
        let a = fs.volume_of("alice").unwrap();
        for _ in 0..5 {
            assert_eq!(fs.volume_of("alice").unwrap(), a);
        }
        assert!(fs.volume_of("carol").is_none());
    }

    #[test]
    fn quota_blocks_writes_even_with_free_volumes() {
        let fs = StaticPartitionFs::new(Cluster::new(ClusterConfig::tiny()), 4, 100);
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        fs.write(&mut ctx, "alice", &p("/a"), FileContent::Simulated(80))
            .unwrap();
        // 80 + 30 > 100 → static partitioning cannot spill elsewhere.
        assert_eq!(
            fs.write(&mut ctx, "alice", &p("/b"), FileContent::Simulated(30))
                .unwrap_err()
                .code(),
            "unavailable"
        );
        // Deleting frees quota.
        fs.delete_file(&mut ctx, "alice", &p("/a")).unwrap();
        fs.write(&mut ctx, "alice", &p("/b"), FileContent::Simulated(30))
            .unwrap();
    }

    #[test]
    fn behaves_like_a_filesystem_within_the_partition() {
        let fs = StaticPartitionFs::new(Cluster::new(ClusterConfig::tiny()), 2, u64::MAX);
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        fs.write(&mut ctx, "alice", &p("/d/f"), FileContent::from_str("v"))
            .unwrap();
        fs.mv(&mut ctx, "alice", &p("/d"), &p("/e")).unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/e/f")).unwrap(),
            FileContent::from_str("v")
        );
        fs.rmdir(&mut ctx, "alice", &p("/e")).unwrap();
        assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
        assert_eq!(fs.volume_usage().iter().sum::<u64>(), 0);
    }
}
