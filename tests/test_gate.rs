//! The tier-1 gate guards itself: `cargo test` at the root runs the whole
//! workspace only because `[workspace] default-members` lists every member,
//! and it runs every integration-test file only while those files exist.
//! Both can shrink without any test failing — so this one counts them. It
//! also covers every configuration a build can run only while no cargo
//! feature picks one — so this one forbids them.

use std::path::{Path, PathBuf};

/// Integration-test files at this commit. Raise it when you add one; a PR
/// that lowers it says in CHANGES.md which file went and why.
const TEST_FILES: usize = 21;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `*.rs` directly under `dir/tests` — what cargo discovers as `[[test]]`.
fn test_files(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir.join("tests")) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "rs"))
        .count()
}

#[test]
fn integration_test_files_do_not_silently_disappear() {
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ exists");
    let found = test_files(root())
        + crates
            .filter_map(|e| e.ok())
            .map(|e| test_files(&e.path()))
            .sum::<usize>();
    assert!(
        found >= TEST_FILES,
        "{found} integration-test files under tests/ and crates/*/tests/, expected >= {TEST_FILES}"
    );
}

#[test]
fn default_members_cover_the_whole_workspace() {
    let manifest = std::fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let list = |key: &str| -> Vec<String> {
        let start = manifest
            .find(&format!("\n{key} = ["))
            .unwrap_or_else(|| panic!("no `{key}` list in the root manifest"));
        let body = &manifest[start..];
        body[..body.find(']').expect("list closes")]
            .split('"')
            .skip(1)
            .step_by(2)
            .map(String::from)
            .collect()
    };
    let default = list("default-members");
    assert!(default.contains(&".".to_string()), "root package missing");
    for member in list("members") {
        assert!(
            default.contains(&member),
            "workspace member {member} is not a default member: the tier-1 \
             `cargo test` would skip it"
        );
    }
}

/// The one cargo feature the workspace keeps: runtime lock-order validation
/// in release builds. Configurations are `H2Config` values — `default()` is
/// the paper profile, `tuned()` the benchmark's — never build flags, so one
/// `cargo test` covers both.
const FEATURE: &str = "lock-order-validation";

/// Files under `dir`, recursively, whose path ends in `suffix`.
fn files(dir: &Path, suffix: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        if path.is_dir() {
            files(&path, suffix, out);
        } else if path.to_string_lossy().ends_with(suffix) {
            out.push(path);
        }
    }
}

/// Names declared in a manifest's `[features]` table.
fn declared_features(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[features]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split('=').next())
        .map(|name| name.trim().trim_matches('"').to_string())
        .collect()
}

/// Names a Rust source tests as `feature = …`, in `cfg!`, `#[cfg]` or
/// `cfg_attr` alike.
fn tested_features(src: &str) -> Vec<String> {
    src.split("feature")
        .skip(1)
        .filter_map(|tail| {
            let quoted = tail.trim_start().strip_prefix('=')?;
            let name = quoted.trim_start().strip_prefix('"')?;
            Some(name[..name.find('"')?].to_string())
        })
        .collect()
}

#[test]
fn no_cargo_feature_but_lock_order_validation() {
    let mut manifests = vec![root().join("Cargo.toml")];
    files(&root().join("crates"), "/Cargo.toml", &mut manifests);
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files(&root().join(dir), ".rs", &mut sources);
    }
    let mut stray = Vec::new();
    let mut scan = |paths: &[PathBuf], names: fn(&str) -> Vec<String>| {
        for path in paths {
            let text = std::fs::read_to_string(path).expect("readable");
            for name in names(&text).into_iter().filter(|n| n != FEATURE) {
                stray.push(format!("{}: {name}", path.display()));
            }
        }
    };
    scan(&manifests, declared_features);
    scan(&sources, tested_features);
    assert!(
        manifests.len() > 10 && sources.len() > 100,
        "the scan found {} manifests and {} sources: it is looking in the wrong place",
        manifests.len(),
        sources.len()
    );
    assert!(
        stray.is_empty(),
        "cargo features other than {FEATURE} (pick a configuration with an \
         `H2Config` profile instead): {stray:#?}"
    );
}

/// The longest a Rust source under `crates/` may grow, tests included. A
/// file past it holds several subsystems; split it into a module tree.
const MAX_FILE_LINES: usize = 1_500;

#[test]
fn no_source_file_outgrows_the_split_threshold() {
    let mut sources = Vec::new();
    files(&root().join("crates"), ".rs", &mut sources);
    assert!(
        sources.len() > 100,
        "the scan found {} sources",
        sources.len()
    );
    let long: Vec<String> = sources
        .iter()
        .filter_map(|path| {
            let lines = std::fs::read_to_string(path)
                .expect("readable")
                .lines()
                .count();
            (lines > MAX_FILE_LINES).then(|| format!("{}: {lines} lines", path.display()))
        })
        .collect();
    assert!(
        long.is_empty(),
        "sources over {MAX_FILE_LINES} lines: {long:#?}"
    );
}

/// Calls into every middleware outside the layer that owns them, per
/// non-test source of `crates/core/src` (the text before its inline test
/// module). Real middlewares are separate processes that share only the
/// cloud and gossip (§3.3); each call here reaches into a peer's memory. The filesystem reads the peers' traces
/// (`recent_traces`), and GC floors their local rings (`gc_floor`) and
/// forgets dead rings (`forget_ring`). A new one must argue its case
/// against ROADMAP item 24(c) and raise this table.
const PEER_CALLS: &[(&str, usize)] = &[("fs.rs", 1), ("gc.rs", 2)];

#[test]
fn calls_into_peers_are_pinned() {
    let dir = root().join("crates/core/src");
    let mut sources = Vec::new();
    files(&dir, ".rs", &mut sources);
    let mut found: Vec<(String, usize)> = sources
        .iter()
        .filter(|path| !path.ends_with("layer.rs") && !path.ends_with("tests.rs"))
        .filter_map(|path| {
            let text = std::fs::read_to_string(path).expect("readable");
            // The file's inline test module closes it; `tests.rs` files are
            // test modules whole.
            let tests = text.find("#[cfg(test)]\nmod tests {");
            let code = tests.map_or(&text[..], |end| &text[..end]);
            let calls = code.matches(".middlewares()").count();
            let name = path.strip_prefix(&dir).expect("under src");
            (calls > 0).then(|| (name.display().to_string(), calls))
        })
        .collect();
    found.sort();
    let want: Vec<(String, usize)> = PEER_CALLS
        .iter()
        .map(|&(name, calls)| (name.to_string(), calls))
        .collect();
    assert!(
        sources.len() > 10,
        "the scan found {} sources",
        sources.len()
    );
    assert_eq!(found, want, "calls into every middleware, per source");
}
