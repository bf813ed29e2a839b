//! Fixture self-tests: every violating fixture must be flagged (with the
//! expected rule and count), and no clean fixture may produce a single
//! finding — the lexer/rule edge cases live in `fixtures/clean/`.
//!
//! Each fixture is linted as a two-file workspace: `rank_model.rs` (the
//! companion that carries the OrderedMutex/OrderedRwLock construction
//! sites, the CloudFs trait, and the metric-const vocabulary — the facts
//! the v2 analyzer *infers*) plus the fixture under test.

use std::path::Path;

use xtask::config::{self, Config};
use xtask::lint::lint_sources;
use xtask::rules::Finding;

const FIXTURE_CONFIG: &str = r#"
[lint]
skip = []

[determinism]
exempt = ["crates/util/src/clock.rs"]

[panic_safety]
traits = ["CloudFs"]
extra = []

[blocking]
calls = ["wall_sleep", "run_real", "run_virtual", "take_outbox", "on_gossip", "on_gossip_batch"]

[metrics]
methods = ["counter", "histogram", "record", "counter_value"]
"#;

fn cfg() -> Config {
    config::parse(FIXTURE_CONFIG).expect("fixture config parses")
}

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    let sources = vec![
        (
            "fixtures/rank_model.rs".to_string(),
            read_fixture("rank_model.rs"),
        ),
        (format!("fixtures/{name}"), read_fixture(name)),
    ];
    lint_sources(&sources, &cfg())
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn violating_fixtures_are_flagged() {
    // (fixture, rule, expected findings of that rule)
    let expected = [
        ("violating/lockorder_inversion.rs", "lock-order", 1),
        ("violating/lockorder_double_op.rs", "lock-order", 1),
        ("violating/lockorder_nested_temp.rs", "lock-order", 1),
        ("violating/lockorder_same_rank_shards.rs", "lock-order", 1),
        ("violating/lockorder_shadowed_guard.rs", "lock-order", 1),
        ("violating/lockorder_match_scrutinee.rs", "lock-order", 1),
        ("violating/lockorder_interprocedural.rs", "lock-order", 2),
        ("violating/guard_blocking.rs", "guard-across-blocking", 2),
        ("violating/vtime_uncharged.rs", "vtime-accounting", 2),
        ("violating/vtime_double_charge.rs", "vtime-accounting", 1),
        ("violating/metrics_literal.rs", "metrics-hygiene", 2),
        ("violating/panic_unwrap_lock.rs", "panic-safety", 2),
        ("violating/panic_cloud_expect.rs", "panic-safety", 3),
        ("violating/determinism_wall_time.rs", "determinism", 3),
        ("violating/unranked_lock.rs", "unranked-lock", 3),
        ("violating/allow_unjustified.rs", "determinism", 1),
        ("violating/allow_unjustified.rs", "allow-syntax", 1),
    ];
    for (fixture, rule, n) in expected {
        let findings = lint_fixture(fixture);
        assert_eq!(
            count(&findings, rule),
            n,
            "{fixture}: wanted {n} `{rule}` finding(s), got: {findings:#?}"
        );
    }
}

#[test]
fn violating_fixtures_have_no_stray_findings() {
    // The violations are deliberate and specific: a fixture must not trip
    // rules it doesn't target (that would be a false positive).
    let only = [
        ("violating/lockorder_inversion.rs", vec!["lock-order"]),
        ("violating/lockorder_double_op.rs", vec!["lock-order"]),
        ("violating/lockorder_nested_temp.rs", vec!["lock-order"]),
        (
            "violating/lockorder_same_rank_shards.rs",
            vec!["lock-order"],
        ),
        ("violating/lockorder_shadowed_guard.rs", vec!["lock-order"]),
        ("violating/lockorder_match_scrutinee.rs", vec!["lock-order"]),
        ("violating/lockorder_interprocedural.rs", vec!["lock-order"]),
        ("violating/guard_blocking.rs", vec!["guard-across-blocking"]),
        ("violating/vtime_uncharged.rs", vec!["vtime-accounting"]),
        ("violating/vtime_double_charge.rs", vec!["vtime-accounting"]),
        ("violating/metrics_literal.rs", vec!["metrics-hygiene"]),
        ("violating/panic_unwrap_lock.rs", vec!["panic-safety"]),
        ("violating/panic_cloud_expect.rs", vec!["panic-safety"]),
        ("violating/determinism_wall_time.rs", vec!["determinism"]),
        ("violating/unranked_lock.rs", vec!["unranked-lock"]),
        (
            "violating/allow_unjustified.rs",
            vec!["determinism", "allow-syntax"],
        ),
    ];
    for (fixture, rules) in only {
        for f in lint_fixture(fixture) {
            assert!(
                rules.contains(&f.rule),
                "{fixture}: unexpected `{}` finding: {f:?}",
                f.rule
            );
        }
    }
}

#[test]
fn clean_fixtures_produce_zero_findings() {
    for fixture in [
        "clean/lockorder_ok.rs",
        "clean/lexer_edges.rs",
        "clean/tests_ok.rs",
        "clean/allow_justified.rs",
        "clean/vtime_ok.rs",
        "clean/metrics_ok.rs",
    ] {
        let findings = lint_fixture(fixture);
        assert!(
            findings.is_empty(),
            "{fixture}: expected zero findings, got: {findings:#?}"
        );
    }
}

#[test]
fn rank_model_is_itself_clean() {
    // The companion file rides along in every run; a finding there would
    // pollute every count above.
    let sources = vec![(
        "fixtures/rank_model.rs".to_string(),
        read_fixture("rank_model.rs"),
    )];
    let findings = lint_sources(&sources, &cfg());
    assert!(findings.is_empty(), "rank_model.rs: {findings:#?}");
}

#[test]
fn findings_carry_usable_locations() {
    let findings = lint_fixture("violating/lockorder_inversion.rs");
    assert_eq!(findings.len(), 1);
    // The inversion is on the line acquiring the op stripe.
    assert_eq!(findings[0].line, 8);
    assert!(findings[0].message.contains("op-stripe"));
    assert!(findings[0].message.contains("map-shard"));
}

#[test]
fn a_cfg_test_module_file_is_test_code() {
    // A helper in `tests.rs` unwraps a cloud op: flagged while the file is
    // ordinary code, not once `mod.rs` declares it `#[cfg(test)] mod tests;`.
    let helper = "fn helper(fs: &dyn CloudFs, ctx: &mut OpCtx) {\n    fs.mkdir(ctx, \"a\", &p).unwrap();\n}\n";
    let run = |decl: &str| {
        let sources = vec![
            (
                "fixtures/rank_model.rs".to_string(),
                read_fixture("rank_model.rs"),
            ),
            ("crates/x/src/m/mod.rs".to_string(), decl.to_string()),
            ("crates/x/src/m/tests.rs".to_string(), helper.to_string()),
        ];
        count(&lint_sources(&sources, &cfg()), "panic-safety")
    };
    assert_eq!(run("mod tests;\n"), 1);
    assert_eq!(run("#[cfg(test)]\nmod tests;\n"), 0);
}
