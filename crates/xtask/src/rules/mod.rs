//! The h2lint rule catalogue. Each rule lives in its own module and
//! consumes the shared per-file parse ([`crate::dataflow::ParsedFile`])
//! plus the workspace-global facts ([`crate::dataflow::Globals`]):
//!
//! * [`lockorder`] — `lock-order` (rank inversions and same-rank double
//!   acquisition, with inferred ranks and one-level interprocedural
//!   summaries) and `guard-across-blocking` (ranked guard live across a
//!   virtual-time-charging op, gossip send, retry `run_*`, or
//!   `wall_sleep`).
//! * [`vtime`] — `vtime-accounting`: cloud-op helpers taking an `OpCtx`
//!   must charge (or delegate the ctx) on every success path, and never
//!   charge the same primitive class twice on one path.
//! * [`metrics`] — `metrics-hygiene`: counter/histogram names at call
//!   sites must be shared consts from the registration vocabulary, not
//!   raw string literals.
//! * [`panic_safety`] — no `.unwrap()`/`.expect()` on lock results or
//!   cloud-op `Result`s outside tests (cloud-op list derived from the
//!   `CloudFs`/`ObjectStore` traits).
//! * [`determinism`] — wall-clock reads and real sleeps only in the
//!   `h2util::clock` facade.
//!
//! Findings are suppressed by a justified
//! `// h2lint: allow(rule): why` on the finding's line or the line
//! above; malformed or unjustified directives are themselves flagged by
//! the `allow-syntax` pseudo-rule.

pub mod determinism;
pub mod lockorder;
pub mod metrics;
pub mod panic_safety;
pub mod vtime;

use crate::config::Config;
use crate::dataflow::{Globals, ParsedFile};
use crate::lexer::{AllowDirective, TokKind, Token};
use crate::parse;

/// One reported problem. `rule` is the name an allow directive must use
/// to suppress it.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// The canonical one-line form: `file:line: [rule] message`.
impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_GUARD_BLOCKING: &str = "guard-across-blocking";
pub const RULE_VTIME: &str = "vtime-accounting";
pub const RULE_METRICS: &str = "metrics-hygiene";
pub const RULE_PANIC_SAFETY: &str = "panic-safety";
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_ALLOW_SYNTAX: &str = "allow-syntax";

/// True for paths whose code is test/bench harness, where panic-safety,
/// vtime and metrics discipline do not apply (determinism and lock-order
/// still do).
pub fn in_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

/// An identifier that names (or forwards) an `OpCtx` by convention.
pub(crate) fn ctxish(t: &Token) -> bool {
    t.kind == TokKind::Ident && t.text.contains("ctx")
}

/// Does the call's argument list forward an `OpCtx`? Only idents at the
/// argument top level count — closure parameters (`|ctx| ...`) and
/// anything inside nested parens/braces/brackets belong to an inner call
/// or closure, not this call's immediate arguments.
pub(crate) fn call_forwards_ctx(toks: &[Token], open: usize) -> bool {
    let end = parse::skip_group(toks, open);
    let mut paren = 0i32;
    let mut brace = 0i32;
    let mut bracket = 0i32;
    let mut in_pipes = false;
    for t in &toks[open + 1..end.saturating_sub(1)] {
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && brace == 0 && bracket == 0 {
            if t.is_punct('|') {
                in_pipes = !in_pipes;
            } else if !in_pipes && ctxish(t) {
                return true;
            }
        }
    }
    false
}

/// Lint one parsed file against the global facts.
pub fn lint_file(pf: &ParsedFile, cfg: &Config, g: &Globals) -> Vec<Finding> {
    let path = &pf.path;
    let mut findings = Vec::new();

    findings.extend(lockorder::check(pf, cfg, g));

    if !in_test_path(path) {
        findings.extend(panic_safety::check(pf, g));
        findings.extend(vtime::check(pf, g));
        findings.extend(metrics::check(pf, cfg, g));
    }

    let exempt = cfg
        .determinism_exempt
        .iter()
        .any(|f| path.contains(f.as_str()));
    if !exempt {
        findings.extend(determinism::check(pf));
    }

    // Apply allow directives, flagging malformed or unjustified ones.
    for a in &pf.lexed.allows {
        if !a.well_formed {
            findings.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: RULE_ALLOW_SYNTAX,
                message: "malformed h2lint directive; expected \
                          `// h2lint: allow(rule): justification`"
                    .into(),
            });
        } else if !a.justified {
            findings.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: RULE_ALLOW_SYNTAX,
                message: format!(
                    "allow({}) needs a justification: \
                     `// h2lint: allow({}): why this is safe`",
                    a.rule, a.rule
                ),
            });
        }
    }
    findings.retain(|f| !suppressed(f, &pf.lexed.allows));
    // Deterministic per-file order: line, then rule, then message.
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    findings
}

/// A justified allow on the finding's line (trailing comment) or the line
/// directly above suppresses it.
fn suppressed(f: &Finding, allows: &[AllowDirective]) -> bool {
    f.rule != RULE_ALLOW_SYNTAX
        && allows.iter().any(|a| {
            a.well_formed
                && a.justified
                && a.rule == f.rule
                && (a.line == f.line || a.line + 1 == f.line)
        })
}
