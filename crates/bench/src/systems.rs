//! Construction of the systems under test, all rack-shaped (8 storage
//! nodes × 3 replicas) with the calibrated cost model.

use std::sync::Arc;

use h2baselines::{CasFs, CumulusFs, DpFs, StaticPartitionFs, SwiftFs};
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
        SystemKind::SingleIndex => Box::new(DpFs::single_index(rack_cluster())),
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

    /// A fixed script of successful ops, then failing ones, on the account
    /// `"user"`: `verb path [path | text | size]`.
    const CHARGE_SCRIPT: [&str; 24] = [
        "mkdir /a",
        "mkdir /a/b",
        "mkdir /a/b/c",
        "write /a/b/f hello",
        "write-sim /a/b/c/s 4096",
        "write /a/b/f hello-again",
        "stat /a/b/f",
        "stat /a/b",
        "stat /",
        "list_detailed /a/b",
        "mv /a/b /a/m",
        "mv /a/m /a/m",
        "copy /a/m /k",
        "delete /k/f",
        "rmdir /k",
        "mkdir /a",
        "mkdir /",
        "rmdir /a/m/f",
        "list_detailed /a/m/f",
        "mv /a /a/m/x",
        "write /a/m x",
        "write / x",
        "delete /",
        "copy /a/m/f /a/m/c",
    ];

    fn run_script_op(fs: &dyn CloudFs, ctx: &mut h2util::OpCtx, op: &str) -> h2util::Result<()> {
        let w: Vec<&str> = op.split(' ').collect();
        let p = |i: usize| FsPath::parse(w[i]).unwrap();
        match w[0] {
            "mkdir" => fs.mkdir(ctx, "user", &p(1)),
            "rmdir" => fs.rmdir(ctx, "user", &p(1)),
            "write" => fs.write(ctx, "user", &p(1), FileContent::from_str(w[2])),
            "write-sim" => {
                let size = w[2].parse().unwrap();
                fs.write(ctx, "user", &p(1), FileContent::Simulated(size))
            }
            "stat" => fs.stat(ctx, "user", &p(1)).map(drop),
            "list_detailed" => fs.list_detailed(ctx, "user", &p(1)).map(drop),
            "mv" => fs.mv(ctx, "user", &p(1), &p(2)),
            "copy" => fs.copy(ctx, "user", &p(1), &p(2)),
            "delete" => fs.delete_file(ctx, "user", &p(1)),
            other => panic!("unknown script verb {other}"),
        }
    }

    /// Every system's per-operation virtual time, primitives and outcome
    /// (error text included) on [`CHARGE_SCRIPT`], one
    /// `op | ns | primitives | outcome` row each: a model refactor that
    /// moves one request, one charge or one error message changes a row.
    #[test]
    fn every_system_pays_its_pinned_per_operation_charges() {
        let mut got = String::new();
        for kind in SystemKind::ALL {
            let sys = build_system(kind);
            got += &format!("== {kind:?}\n");
            for op in CHARGE_SCRIPT {
                let mut ctx = h2util::OpCtx::new(sys.cost.clone());
                let outcome = run_script_op(&*sys.fs, &mut ctx, op)
                    .map_or_else(|e| e.to_string(), |()| "ok".into());
                let counts = ctx.counts();
                let prims: Vec<String> = h2util::PrimKind::ALL
                    .iter()
                    .filter(|&&k| counts.get(k) > 0)
                    .map(|&k| format!("{}x{}", k.name(), counts.get(k)))
                    .collect();
                let ns = ctx.elapsed().as_nanos();
                got += &format!("{op} | {ns} | {} | {outcome}\n", prims.join(" "));
            }
        }
        for (i, (g, want)) in got.lines().zip(PINNED_CHARGES.lines()).enumerate() {
            assert_eq!(g, want, "pinned charge row {} differs", i + 1);
        }
        assert_eq!(got.lines().count(), PINNED_CHARGES.lines().count());
    }

    const PINNED_CHARGES: &str = "\
== H2Cloud
mkdir /a | 86560000 | GETx2 PUTx4 DELETEx1 | ok
mkdir /a/b | 100572000 | GETx3 PUTx4 DELETEx1 | ok
mkdir /a/b/c | 114584000 | GETx4 PUTx4 DELETEx1 | ok
write /a/b/f hello | 114584000 | GETx4 PUTx3 DELETEx1 | ok
write-sim /a/b/c/s 4096 | 128632000 | GETx5 PUTx3 DELETEx1 | ok
write /a/b/f hello-again | 114584000 | GETx4 PUTx3 DELETEx1 | ok
stat /a/b/f | 42036000 | GETx3 | ok
stat /a/b | 28024000 | GETx2 | ok
stat / | 0 |  | ok
list_detailed /a/b | 47060000 | GETx3 HEADx2 | ok
mv /a/b /a/m | 215144000 | GETx7 PUTx5 DELETEx3 | ok
mv /a/m /a/m | 0 |  | ok
copy /a/m /k | 194659000 | GETx6 PUTx6 DELETEx1 COPYx2 | ok
delete /k/f | 105060000 | GETx3 PUTx2 DELETEx2 | ok
rmdir /k | 79048000 | GETx2 PUTx2 DELETEx1 | ok
mkdir /a | 9512000 | GETx1 | already exists: /a
mkdir / | 0 |  | already exists: /
rmdir /a/m/f | 42036000 | GETx3 | not a directory: /a/m/f
list_detailed /a/m/f | 42036000 | GETx3 | not a directory: /a/m/f
mv /a /a/m/x | 0 |  | invalid path: cannot move /a inside itself (/a/m/x)
write /a/m x | 23524000 | GETx2 | is a directory: /a/m
write / x | 0 |  | is a directory: /
delete / | 0 |  | is a directory: /
copy /a/m/f /a/m/c | 79572000 | GETx6 | already exists: /a/m/c
== SwiftDb
mkdir /a | 33300000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
mkdir /a/b | 42800000 | PUTx1 HEADx3 DB-UPDATEx1 | ok
mkdir /a/b/c | 42800000 | PUTx1 HEADx3 DB-UPDATEx1 | ok
write /a/b/f hello | 33312000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
write-sim /a/b/c/s 4096 | 33348000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
write /a/b/f hello-again | 33312000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
stat /a/b/f | 9500000 | HEADx1 | ok
stat /a/b | 19000000 | HEADx2 | ok
stat / | 9500000 | HEADx1 | ok
list_detailed /a/b | 12116000 | HEADx1 DB-QUERYx3 | ok
mv /a/b /a/m | 167403000 | DELETEx4 HEADx5 COPYx4 DB-QUERYx4 DB-UPDATEx8 | ok
mv /a/m /a/m | 9500000 | HEADx1 | ok
copy /a/m /k | 115003000 | PUTx1 HEADx4 COPYx4 DB-QUERYx4 DB-UPDATEx5 | ok
delete /k/f | 14300000 | DELETEx1 DB-UPDATEx1 | ok
rmdir /k | 55376000 | DELETEx3 HEADx1 DB-QUERYx3 DB-UPDATEx3 | ok
mkdir /a | 9500000 | HEADx1 | already exists: /a
mkdir / | 0 |  | already exists: /
rmdir /a/m/f | 19000000 | HEADx2 | not a directory: /a/m/f
list_detailed /a/m/f | 19000000 | HEADx2 | not a directory: /a/m/f
mv /a /a/m/x | 0 |  | invalid path: cannot move /a inside itself
write /a/m x | 19000000 | HEADx2 | is a directory: /a/m
write / x | 0 |  | is a directory: /
delete / | 0 |  | is a directory: /
copy /a/m/f /a/m/c | 28500000 | HEADx3 | already exists: /a/m/c
== PlainCh
mkdir /a | 33300000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
mkdir /a/b | 42800000 | PUTx1 HEADx3 DB-UPDATEx1 | ok
mkdir /a/b/c | 42800000 | PUTx1 HEADx3 DB-UPDATEx1 | ok
write /a/b/f hello | 33312000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
write-sim /a/b/c/s 4096 | 33348000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
write /a/b/f hello-again | 33312000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
stat /a/b/f | 9500000 | HEADx1 | ok
stat /a/b | 19000000 | HEADx2 | ok
stat / | 9500000 | HEADx1 | ok
list_detailed /a/b | 20712000 | GETx1 HEADx1 DB-QUERYx1 | ok
mv /a/b /a/m | 175139000 | GETx1 DELETEx4 HEADx5 COPYx4 DB-QUERYx1 DB-UPDATEx8 | ok
mv /a/m /a/m | 9500000 | HEADx1 | ok
copy /a/m /k | 122739000 | GETx1 PUTx1 HEADx4 COPYx4 DB-QUERYx1 DB-UPDATEx5 | ok
delete /k/f | 14300000 | DELETEx1 DB-UPDATEx1 | ok
rmdir /k | 63768000 | GETx1 DELETEx3 HEADx1 DB-QUERYx1 DB-UPDATEx3 | ok
mkdir /a | 9500000 | HEADx1 | already exists: /a
mkdir / | 0 |  | already exists: /
rmdir /a/m/f | 19000000 | HEADx2 | not a directory: /a/m/f
list_detailed /a/m/f | 19000000 | HEADx2 | not a directory: /a/m/f
mv /a /a/m/x | 0 |  | invalid path: cannot move /a inside itself
write /a/m x | 19000000 | HEADx2 | is a directory: /a/m
write / x | 0 |  | is a directory: /
delete / | 0 |  | is a directory: /
copy /a/m/f /a/m/c | 28500000 | HEADx3 | already exists: /a/m/c
== Dp
mkdir /a | 160450000 | INDEX-RPCx1 | ok
mkdir /a/b | 160450000 | INDEX-RPCx1 | ok
mkdir /a/b/c | 160450000 | INDEX-RPCx1 | ok
write /a/b/f hello | 172462000 | PUTx1 INDEX-RPCx1 | ok
write-sim /a/b/c/s 4096 | 172498000 | PUTx1 INDEX-RPCx1 | ok
write /a/b/f hello-again | 172462000 | PUTx1 INDEX-RPCx1 | ok
stat /a/b/f | 105450000 | INDEX-RPCx1 | ok
stat /a/b | 105450000 | INDEX-RPCx1 | ok
stat / | 105450000 | INDEX-RPCx1 | ok
list_detailed /a/b | 105970000 | INDEX-RPCx1 | ok
mv /a/b /a/m | 160450000 | INDEX-RPCx1 | ok
mv /a/m /a/m | 160450000 | INDEX-RPCx1 | ok
copy /a/m /k | 185465000 | COPYx2 INDEX-RPCx1 | ok
delete /k/f | 172450000 | DELETEx1 INDEX-RPCx1 | ok
rmdir /k | 160450000 | INDEX-RPCx1 | ok
mkdir /a | 160450000 | INDEX-RPCx1 | already exists: /a
mkdir / | 160450000 | INDEX-RPCx1 | already exists: /
rmdir /a/m/f | 160450000 | INDEX-RPCx1 | not a directory: /a/m/f
list_detailed /a/m/f | 105450000 | INDEX-RPCx1 | not a directory: /a/m/f
mv /a /a/m/x | 160450000 | INDEX-RPCx1 | invalid path: cannot move /a inside itself
write /a/m x | 160450000 | INDEX-RPCx1 | is a directory: /a/m
write / x | 160450000 | INDEX-RPCx1 | is a directory: /
delete / | 160450000 | INDEX-RPCx1 | is a directory: /
copy /a/m/f /a/m/c | 160450000 | INDEX-RPCx1 | already exists: /a/m/c
== SingleIndex
mkdir /a | 450000 | INDEX-RPCx1 | ok
mkdir /a/b | 450000 | INDEX-RPCx1 | ok
mkdir /a/b/c | 450000 | INDEX-RPCx1 | ok
write /a/b/f hello | 12462000 | PUTx1 INDEX-RPCx1 | ok
write-sim /a/b/c/s 4096 | 12498000 | PUTx1 INDEX-RPCx1 | ok
write /a/b/f hello-again | 12462000 | PUTx1 INDEX-RPCx1 | ok
stat /a/b/f | 450000 | INDEX-RPCx1 | ok
stat /a/b | 450000 | INDEX-RPCx1 | ok
stat / | 450000 | INDEX-RPCx1 | ok
list_detailed /a/b | 474000 | INDEX-RPCx1 | ok
mv /a/b /a/m | 450000 | INDEX-RPCx1 | ok
mv /a/m /a/m | 450000 | INDEX-RPCx1 | ok
copy /a/m /k | 25465000 | COPYx2 INDEX-RPCx1 | ok
delete /k/f | 12450000 | DELETEx1 INDEX-RPCx1 | ok
rmdir /k | 450000 | INDEX-RPCx1 | ok
mkdir /a | 450000 | INDEX-RPCx1 | already exists: /a
mkdir / | 450000 | INDEX-RPCx1 | already exists: /
rmdir /a/m/f | 450000 | INDEX-RPCx1 | not a directory: /a/m/f
list_detailed /a/m/f | 450000 | INDEX-RPCx1 | not a directory: /a/m/f
mv /a /a/m/x | 450000 | INDEX-RPCx1 | invalid path: cannot move /a inside itself
write /a/m x | 450000 | INDEX-RPCx1 | is a directory: /a/m
write / x | 450000 | INDEX-RPCx1 | is a directory: /
delete / | 450000 | INDEX-RPCx1 | is a directory: /
copy /a/m/f /a/m/c | 450000 | INDEX-RPCx1 | already exists: /a/m/c
== StaticPartition
mkdir /a | 450000 | INDEX-RPCx1 | ok
mkdir /a/b | 450000 | INDEX-RPCx1 | ok
mkdir /a/b/c | 450000 | INDEX-RPCx1 | ok
write /a/b/f hello | 12462000 | PUTx1 INDEX-RPCx1 | ok
write-sim /a/b/c/s 4096 | 12498000 | PUTx1 INDEX-RPCx1 | ok
write /a/b/f hello-again | 12462000 | PUTx1 INDEX-RPCx1 | ok
stat /a/b/f | 450000 | INDEX-RPCx1 | ok
stat /a/b | 450000 | INDEX-RPCx1 | ok
stat / | 450000 | INDEX-RPCx1 | ok
list_detailed /a/b | 474000 | INDEX-RPCx1 | ok
mv /a/b /a/m | 450000 | INDEX-RPCx1 | ok
mv /a/m /a/m | 450000 | INDEX-RPCx1 | ok
copy /a/m /k | 25465000 | COPYx2 INDEX-RPCx1 | ok
delete /k/f | 12450000 | DELETEx1 INDEX-RPCx1 | ok
rmdir /k | 450000 | INDEX-RPCx1 | ok
mkdir /a | 450000 | INDEX-RPCx1 | already exists: /a
mkdir / | 450000 | INDEX-RPCx1 | already exists: /
rmdir /a/m/f | 450000 | INDEX-RPCx1 | not a directory: /a/m/f
list_detailed /a/m/f | 450000 | INDEX-RPCx1 | not a directory: /a/m/f
mv /a /a/m/x | 450000 | INDEX-RPCx1 | invalid path: cannot move /a inside itself
write /a/m x | 450000 | INDEX-RPCx1 | is a directory: /a/m
write / x | 450000 | INDEX-RPCx1 | is a directory: /
delete / | 450000 | INDEX-RPCx1 | is a directory: /
copy /a/m/f /a/m/c | 450000 | INDEX-RPCx1 | already exists: /a/m/c
== Cumulus
mkdir /a | 12012000 | PUTx1 | ok
mkdir /a/b | 12012000 | PUTx1 | ok
mkdir /a/b/c | 12012000 | PUTx1 | ok
write /a/b/f hello | 24024000 | PUTx2 | ok
write-sim /a/b/c/s 4096 | 24060000 | PUTx2 | ok
write /a/b/f hello-again | 24024000 | PUTx2 | ok
stat /a/b/f | 9584000 | GETx1 | ok
stat /a/b | 9584000 | GETx1 | ok
stat / | 9512000 | GETx1 | ok
list_detailed /a/b | 9584000 | GETx1 | ok
mv /a/b /a/m | 21596000 | GETx1 PUTx1 | ok
mv /a/m /a/m | 9572000 | GETx1 | ok
copy /a/m /k | 21584000 | GETx1 PUTx1 | ok
delete /k/f | 12012000 | PUTx1 | ok
rmdir /k | 21644000 | GETx1 PUTx1 | ok
mkdir /a | 0 |  | already exists: /a
mkdir / | 0 |  | already exists: /
rmdir /a/m/f | 0 |  | not a directory: /a/m/f
list_detailed /a/m/f | 9572000 | GETx1 | not a directory: /a/m/f
mv /a /a/m/x | 0 |  | invalid path: cannot move /a inside itself
write /a/m x | 0 |  | is a directory: /a/m
write / x | 0 |  | is a directory: /
delete / | 0 |  | not found: /
copy /a/m/f /a/m/c | 0 |  | already exists: /a/m/c
== Cas
mkdir /a | 33312000 | PUTx1 HEADx2 DB-UPDATEx1 | ok
mkdir /a/b | 57124000 | PUTx2 HEADx3 DB-UPDATEx2 | ok
mkdir /a/b/c | 80936000 | PUTx3 HEADx4 DB-UPDATEx3 | ok
write /a/b/f hello | 104748000 | PUTx4 HEADx5 DB-UPDATEx4 | ok
write-sim /a/b/c/s 4096 | 119096000 | PUTx5 HEADx5 DB-UPDATEx5 | ok
write /a/b/f hello-again | 104748000 | PUTx4 HEADx5 DB-UPDATEx4 | ok
stat /a/b/f | 28536000 | GETx3 | ok
stat /a/b | 19024000 | GETx2 | ok
stat / | 9500000 | HEADx1 | ok
list_detailed /a/b | 28560000 | GETx3 | ok
mv /a/b /a/m | 66624000 | PUTx2 HEADx4 DB-UPDATEx2 | ok
mv /a/m /a/m | 9500000 | HEADx1 | ok
copy /a/m /k | 99936000 | PUTx3 HEADx6 DB-UPDATEx3 | ok
delete /k/f | 85624000 | PUTx2 HEADx6 DB-UPDATEx2 | ok
rmdir /k | 38000000 | HEADx4 | ok
mkdir /a | 0 |  | already exists: /a
mkdir / | 0 |  | already exists: /
rmdir /a/m/f | 0 |  | not a directory: /a/m/f
list_detailed /a/m/f | 28536000 | GETx3 | not a directory: /a/m/f
mv /a /a/m/x | 0 |  | invalid path: cannot move /a inside itself
write /a/m x | 23812000 | PUTx1 HEADx1 DB-UPDATEx1 | is a directory: /a/m
write / x | 9500000 | HEADx1 | is a directory: /
delete / | 0 |  | is a directory: /
copy /a/m/f /a/m/c | 0 |  | already exists: /a/m/c
";
}
