//! Construction of the systems under test, all rack-shaped (8 storage
//! nodes × 3 replicas) with the calibrated cost model.

use std::sync::Arc;

use h2baselines::{CasFs, CumulusFs, DpFs, SingleIndexFs, StaticPartitionFs, SwiftFs};
use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::CloudFs;
use h2util::CostModel;
use swiftsim::{Cluster, ClusterConfig};

/// Every filesystem design in Table 1 that we run experiments on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// H2Cloud (this paper).
    H2Cloud,
    /// OpenStack Swift: Consistent Hash + file-path DB.
    SwiftDb,
    /// Plain Consistent Hash (no DB).
    PlainCh,
    /// Dynamic Partition (the paper's Dropbox stand-in).
    Dp,
    /// Single index server (GFS/HDFS namenode).
    SingleIndex,
    /// Static partition (AFS).
    StaticPartition,
    /// Compressed Snapshot (Cumulus).
    Cumulus,
    /// Content Addressable Storage with multi-layer index.
    Cas,
}

impl SystemKind {
    /// The three systems the paper's figures compare.
    pub const FIGURE_TRIO: [SystemKind; 3] =
        [SystemKind::SwiftDb, SystemKind::H2Cloud, SystemKind::Dp];

    /// Everything, for Table 1.
    pub const ALL: [SystemKind; 8] = [
        SystemKind::H2Cloud,
        SystemKind::SwiftDb,
        SystemKind::PlainCh,
        SystemKind::Dp,
        SystemKind::SingleIndex,
        SystemKind::StaticPartition,
        SystemKind::Cumulus,
        SystemKind::Cas,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SystemKind::H2Cloud => "H2Cloud",
            SystemKind::SwiftDb => "Swift (CH+DB)",
            SystemKind::PlainCh => "Plain CH",
            SystemKind::Dp => "Dropbox (DP)",
            SystemKind::SingleIndex => "Single Index",
            SystemKind::StaticPartition => "Static Partition",
            SystemKind::Cumulus => "Cumulus (Snapshot)",
            SystemKind::Cas => "CAS (Multi-Layer)",
        }
    }
}

/// A constructed system: the trait object plus its cost model.
pub struct Sys {
    pub kind: SystemKind,
    pub fs: Box<dyn CloudFs>,
    pub cost: Arc<CostModel>,
}

fn rack_cluster() -> Arc<Cluster> {
    Cluster::new(ClusterConfig::default())
}

/// Build a fresh rack-shaped instance of `kind` with one account
/// (`"user"`) already created.
pub fn build_system(kind: SystemKind) -> Sys {
    let fs: Box<dyn CloudFs> = match kind {
        SystemKind::H2Cloud => Box::new(H2Cloud::new(H2Config {
            middlewares: 1,
            mode: MaintenanceMode::Eager,
            cluster: ClusterConfig::default(),
            // Figures reproduce the paper's uncached O(d) resolution.
            cache_capacity: 0,
            trace_sample: 0.0,
            ..H2Config::default()
        })),
        SystemKind::SwiftDb => Box::new(SwiftFs::new(rack_cluster(), true)),
        SystemKind::PlainCh => Box::new(SwiftFs::new(rack_cluster(), false)),
        SystemKind::Dp => Box::new(DpFs::new(rack_cluster(), 4)),
        SystemKind::SingleIndex => Box::new(SingleIndexFs::new(rack_cluster())),
        SystemKind::StaticPartition => {
            Box::new(StaticPartitionFs::new(rack_cluster(), 8, u64::MAX))
        }
        SystemKind::Cumulus => Box::new(CumulusFs::new(rack_cluster())),
        SystemKind::Cas => Box::new(CasFs::new(rack_cluster())),
    };
    let cost = Arc::new(CostModel::rack_default());
    let mut ctx = h2util::OpCtx::new(cost.clone());
    fs.create_account(&mut ctx, "user")
        .expect("fresh system accepts the account"); // h2lint: allow(panic-safety): bench harness fails fast; the cluster is healthy by construction
    Sys { kind, fs, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2fsapi::{FileContent, FsPath};

    #[test]
    fn every_system_builds_and_does_basic_io() {
        for kind in SystemKind::ALL {
            let sys = build_system(kind);
            let mut ctx = h2util::OpCtx::new(sys.cost.clone());
            let p = FsPath::parse("/smoke.txt").unwrap();
            sys.fs
                .write(&mut ctx, "user", &p, FileContent::from_str("ok"))
                .unwrap_or_else(|e| panic!("{kind:?} write failed: {e}"));
            let back = sys
                .fs
                .read(&mut ctx, "user", &p)
                .unwrap_or_else(|e| panic!("{kind:?} read failed: {e}"));
            assert_eq!(back, FileContent::from_str("ok"), "{kind:?}");
            assert_eq!(sys.fs.name(), kind.label());
        }
    }

    #[test]
    fn every_model_pays_the_account_and_container_rows() {
        for kind in SystemKind::ALL {
            let sys = build_system(kind);
            let mut ctx = h2util::OpCtx::new(sys.cost.clone());
            sys.fs.create_account(&mut ctx, "other").unwrap();
            // CAS also writes its empty root block into its indexed block
            // arena, which pays that block's own listing row.
            let index_rows = u64::from(kind == SystemKind::Cas);
            assert_eq!(
                ctx.counts().get(h2util::PrimKind::DbUpdate),
                2 + index_rows,
                "{kind:?}"
            );
        }
    }
}
