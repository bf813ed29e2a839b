//! Fixture: a justified allow that suppresses nothing is flagged by the
//! unused-allow rule. A directive quoted in a doc comment, like
//! `// h2lint: allow(determinism): an example`, is documentation.

/// Also documentation: `// h2lint: allow(panic-safety): an example`.
fn pace(d: Duration) -> Duration {
    // h2lint: allow(determinism): VIOLATION, nothing below reads the clock
    d
}

fn total(xs: &[u64]) -> u64 {
    xs.iter().sum() // h2lint: allow(panic-safety): VIOLATION, nothing unwraps
}
