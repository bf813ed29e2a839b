//! The tier-1 gate guards itself: `cargo test` at the root runs the whole
//! workspace only because `[workspace] default-members` lists every member,
//! and it runs every integration-test file only while those files exist.
//! Both can shrink without any test failing — so this one counts them.

use std::path::Path;

/// Integration-test files at this commit. Raise it when you add one; a PR
/// that lowers it says in CHANGES.md which file went and why.
const TEST_FILES: usize = 20;

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
