//! The gate: `cargo test` fails if the real workspace tree has any lint
//! finding, so invariant regressions surface in tier-1, not just in the
//! dedicated CI job. Also pins the derived facts the v2 analyzer infers
//! from the tree (the cloud-op set, the rank table) and the
//! byte-determinism of the SARIF renderer.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xtask::lint::analyze_tree;
use xtask::sarif;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn workspace_tree_has_no_findings() {
    let (findings, _) = analyze_tree(&workspace_root(), None).expect("lint runs");
    let lines: Vec<String> = findings.iter().map(|f| format!("  {f}")).collect();
    assert!(
        findings.is_empty(),
        "h2lint found {} problem(s) in the workspace:\n{}",
        findings.len(),
        lines.join("\n")
    );
}

#[test]
fn derived_cloud_op_set_matches_the_traits() {
    // The panic-safety and vtime-accounting rules key off the cloud-op
    // set *derived* from the `CloudFs`/`ObjectStore` traits plus the
    // configured extras. If a trait method is added or renamed, this
    // snapshot fails and must be updated alongside — that drift is the
    // thing the derivation exists to catch.
    let (_, globals) = analyze_tree(&workspace_root(), None).expect("lint runs");
    let expected: BTreeSet<String> = [
        // CloudFs (crates/fsapi/src/lib.rs)
        "create_account",
        "delete_account",
        "mkdir",
        "rmdir",
        "read",
        "write",
        "delete_file",
        "stat",
        "list",
        "mv",
        "bulk_import",
        // ObjectStore (crates/objectstore/src/lib.rs)
        "put",
        "get",
        "head",
        "delete",
        "copy",
        "exists",
        "list_detailed",
        // [panic_safety] extra
        "submit_patch",
        "read_ring",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(
        globals.cloud_ops, expected,
        "derived cloud-op set drifted from the trait definitions"
    );
}

#[test]
fn inferred_rank_table_covers_the_lock_hierarchy() {
    // Rank inference replaces the hand-written h2lint.toml name lists;
    // losing a name here silently disables lock-order checking for it.
    let (_, globals) = analyze_tree(&workspace_root(), None).expect("lint runs");
    for (name, rank, label) in [
        ("op_locks", 1, "objectstore.op_stripe"),
        ("op_lock", 1, "objectstore.op_stripe"),
        ("stripes", 2, "objectstore.node_stripe"),
        ("stripe", 2, "objectstore.node_stripe"),
        ("containers", 3, "objectstore.container_shard"),
        ("container_shard", 3, "objectstore.container_shard"),
        ("catalog", 3, "objectstore.catalog_shard"),
        ("catalog_shard", 3, "objectstore.catalog_shard"),
    ] {
        let got = globals
            .ranks
            .get(name)
            .unwrap_or_else(|| panic!("no inferred rank for `{name}`"));
        assert_eq!((got.rank, got.label.as_str()), (rank, label), "`{name}`");
    }
}

#[test]
fn sarif_output_is_byte_deterministic() {
    let root = workspace_root();
    let (f1, _) = analyze_tree(&root, None).expect("lint runs");
    let (f2, _) = analyze_tree(&root, None).expect("lint runs");
    assert_eq!(
        sarif::render(&f1),
        sarif::render(&f2),
        "SARIF output must be byte-identical across runs"
    );
}
