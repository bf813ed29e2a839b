//! Workspace-global analysis: the facts every rule shares, computed once
//! over all lexed files before per-file linting.
//!
//! * **Rank inference** — the lock-rank table is not configured, it is
//!   *inferred* from `OrderedMutex::new(rank, label, ..)` /
//!   `OrderedRwLock::new(..)` construction sites. The rank argument may
//!   be an integer literal or a constant (resolved through the workspace
//!   const table, e.g. `lock_rank::MAP_SHARD`); the construction is
//!   attributed to the field or `let` binding it initializes, and
//!   accessor fns that return `&Ordered*` (directly or through a type
//!   alias) inherit the rank of the field they expose. The result is the
//!   set of identifiers whose `.lock()/.read()/.write()/.try_lock()` is
//!   a ranked acquisition — anywhere in the workspace.
//! * **Function summaries** — one-level interprocedural facts: which
//!   ranks a fn's body acquires directly, and whether its tail
//!   expression *returns* a live guard to the caller.
//! * **Metric-name consts** — every non-test `const NAME: &str = "..."`
//!   in the workspace, the registration vocabulary the metrics-hygiene
//!   rule checks call sites against.
//! * **Derived cloud ops** — the panic-safety cloud-op list is read off
//!   the `CloudFs`/`ObjectStore` trait declarations (methods carrying an
//!   `OpCtx`), not hand-listed in config.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::{self, Lexed, TokKind, Token};
use crate::parse::{self, FileItems};

/// A file lexed and item-scanned, ready for global + per-file analysis.
pub struct ParsedFile {
    pub path: String,
    pub lexed: Lexed,
    pub macro_masked: Vec<bool>,
    pub test_mask: Vec<bool>,
    pub items: FileItems,
}

impl ParsedFile {
    pub fn new(path: &str, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let macro_masked = parse::macro_mask(&lexed.tokens);
        let test_mask = parse::test_regions(&lexed.tokens, &macro_masked);
        let items = parse::scan(&lexed.tokens, &macro_masked, &test_mask);
        ParsedFile {
            path: path.to_string(),
            lexed,
            macro_masked,
            test_mask,
            items,
        }
    }
}

impl ParsedFile {
    /// Workspace paths of the files this one declares as
    /// `#[cfg(test)] mod name;` — `name.rs` or `name/mod.rs` beside a
    /// `mod.rs`/`lib.rs`/`main.rs`, under the file's own stem otherwise.
    pub fn test_module_files(&self) -> Vec<String> {
        let toks = &self.lexed.tokens;
        let (dir, file) = self.path.rsplit_once('/').unwrap_or(("", &self.path));
        let base = match file {
            "mod.rs" | "lib.rs" | "main.rs" => dir.to_string(),
            _ => self.path.trim_end_matches(".rs").to_string(),
        };
        let mut out = Vec::new();
        for i in 0..toks.len().saturating_sub(9) {
            let cfg_test = ["#", "[", "cfg", "(", "test", ")", "]", "mod"]
                .iter()
                .zip(&toks[i..])
                .all(|(want, t)| t.text == *want);
            if cfg_test && !self.macro_masked[i] && toks[i + 9].is_punct(';') {
                let name = &toks[i + 8].text;
                let prefix = if base.is_empty() {
                    String::new()
                } else {
                    format!("{base}/")
                };
                out.push(format!("{prefix}{name}.rs"));
                out.push(format!("{prefix}{name}/mod.rs"));
            }
        }
        out
    }

    /// Treat the whole file as test code (it is a `#[cfg(test)]` module).
    pub fn mark_test(&mut self) {
        self.test_mask.fill(true);
        self.items = parse::scan(&self.lexed.tokens, &self.macro_masked, &self.test_mask);
    }
}

/// The inferred rank of one lock-bearing identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankInfo {
    pub rank: u16,
    pub label: String,
}

/// One-level interprocedural summary of a fn.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    pub self_ty: Option<String>,
    /// Ranks the body acquires directly (rank → label).
    pub acquires: BTreeMap<u16, String>,
    /// The fn's tail expression is itself an acquisition: callers that
    /// bind the result hold a guard of this rank.
    pub returns_guard: Option<RankInfo>,
}

/// Shared facts for the whole workspace run.
#[derive(Debug, Default)]
pub struct Globals {
    /// Identifier (field or accessor fn) → inferred rank.
    pub ranks: BTreeMap<String, RankInfo>,
    /// fn name → summaries (one per distinct defining impl). Only fns
    /// that acquire or return ranked guards are present.
    pub summaries: BTreeMap<String, Vec<FnSummary>>,
    /// Known metric-name consts: const ident → string value.
    pub metric_consts: BTreeMap<String, String>,
    /// Cloud-op method names derived from the configured traits plus the
    /// configured extras.
    pub cloud_ops: BTreeSet<String>,
}

/// A recognized lock acquisition: `ranked_ident [(...)|[...]] . method ( )`
/// ending at token index `end` (just past the `)`).
#[derive(Debug, Clone)]
pub struct Acq {
    pub rank: u16,
    pub label: String,
    pub name: String,
    pub line: u32,
    pub end: usize,
}

pub const LOCK_METHODS: [&str; 4] = ["lock", "try_lock", "read", "write"];

/// Try to match an acquisition whose ranked identifier sits at `i`.
pub fn match_acquisition(
    tokens: &[Token],
    i: usize,
    ranks: &BTreeMap<String, RankInfo>,
) -> Option<Acq> {
    if tokens[i].kind != TokKind::Ident {
        return None;
    }
    let info = ranks.get(&tokens[i].text)?;
    let mut j = i + 1;
    // Optional one balanced group: `op_lock(&key)` or `op_locks[idx]`.
    if tokens.get(j).map(|t| t.is_punct('(') || t.is_punct('[')) == Some(true) {
        j = parse::skip_group(tokens, j);
    }
    if tokens.get(j).map(|t| t.is_punct('.')) != Some(true) {
        return None;
    }
    let method = tokens.get(j + 1)?;
    if method.kind != TokKind::Ident || !LOCK_METHODS.contains(&method.text.as_str()) {
        return None;
    }
    // Zero-argument call: `.lock()` — anything with arguments is a
    // different method that merely shares the name (e.g. `fs.write(ctx,..)`).
    if tokens.get(j + 2).map(|t| t.is_punct('(')) != Some(true)
        || tokens.get(j + 3).map(|t| t.is_punct(')')) != Some(true)
    {
        return None;
    }
    Some(Acq {
        rank: info.rank,
        label: info.label.clone(),
        name: tokens[i].text.clone(),
        line: method.line,
        end: j + 4,
    })
}

/// Compute the shared facts over all files.
pub fn analyze(files: &[ParsedFile], cfg: &Config) -> Globals {
    let mut g = Globals::default();

    // Workspace const tables (non-test).
    let mut int_consts: BTreeMap<String, u64> = BTreeMap::new();
    for f in files {
        for c in &f.items.consts {
            if c.in_test {
                continue;
            }
            if let Some(v) = c.int {
                int_consts.insert(c.name.clone(), v);
            }
            if let Some(s) = &c.str_val {
                g.metric_consts.insert(c.name.clone(), s.clone());
            }
        }
    }

    // Cloud ops derived from trait declarations.
    for f in files {
        for t in &f.items.traits {
            if cfg.panic_traits.iter().any(|n| n == &t.name) {
                for m in &t.methods {
                    if m.has_ctx_param {
                        g.cloud_ops.insert(m.name.clone());
                    }
                }
            }
        }
    }
    for extra in &cfg.panic_extra {
        g.cloud_ops.insert(extra.clone());
    }

    // Rank inference, pass 1: construction sites → fields/bindings.
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    for f in files {
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if f.macro_masked[i] || f.test_mask[i] {
                continue;
            }
            if !(toks[i].is_ident("OrderedMutex") || toks[i].is_ident("OrderedRwLock")) {
                continue;
            }
            if !(toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(i + 3).map(|t| t.is_ident("new")) == Some(true)
                && toks.get(i + 4).map(|t| t.is_punct('(')) == Some(true))
            {
                continue;
            }
            let Some(info) = parse_ctor_args(toks, i + 4, &int_consts) else {
                continue;
            };
            let Some(target) = attribute_ctor(toks, i) else {
                continue;
            };
            insert_rank(&mut g.ranks, &mut ambiguous, target, info);
        }
    }

    // Type aliases that name an Ordered lock (workspace-wide).
    let mut lock_aliases: BTreeSet<String> = BTreeSet::new();
    for f in files {
        for (alias, rhs) in &f.items.aliases {
            if rhs
                .iter()
                .any(|s| s == "OrderedMutex" || s == "OrderedRwLock")
            {
                lock_aliases.insert(alias.clone());
            }
        }
    }

    // Rank inference, pass 2: accessor fns returning `&Ordered*`/alias
    // inherit the rank of the ranked field their body exposes.
    for f in files {
        for item in &f.items.fns {
            if item.in_test {
                continue;
            }
            let Some((bs, be)) = item.body else { continue };
            let returns_lock = item
                .ret
                .iter()
                .any(|s| s == "OrderedMutex" || s == "OrderedRwLock" || lock_aliases.contains(s));
            if !returns_lock {
                continue;
            }
            let toks = &f.lexed.tokens;
            let found = toks[bs..=be]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .find_map(|t| g.ranks.get(&t.text).cloned());
            if let Some(info) = found {
                insert_rank(&mut g.ranks, &mut ambiguous, item.name.clone(), info);
            }
        }
    }
    for name in &ambiguous {
        g.ranks.remove(name);
    }

    // Function summaries: direct acquisitions + returned guards.
    for f in files {
        for item in &f.items.fns {
            if item.in_test {
                continue;
            }
            let Some((bs, be)) = item.body else { continue };
            let toks = &f.lexed.tokens;
            let mut sum = FnSummary {
                self_ty: item.self_ty.clone(),
                ..Default::default()
            };
            let mut j = bs + 1;
            while j < be {
                // A nested fn's acquisitions belong to its own summary.
                if toks[j].is_ident("fn") && !f.macro_masked[j] {
                    if let Some((_, ne)) = parse::fn_body(toks, j) {
                        j = ne + 1;
                        continue;
                    }
                }
                if !f.macro_masked[j] {
                    if let Some(acq) = match_acquisition(toks, j, &g.ranks) {
                        // A tail-expression acquisition is returned to the
                        // caller, not dropped here.
                        if acq.end == be {
                            sum.returns_guard = Some(RankInfo {
                                rank: acq.rank,
                                label: acq.label.clone(),
                            });
                        }
                        sum.acquires.entry(acq.rank).or_insert(acq.label);
                        j = acq.end;
                        continue;
                    }
                }
                j += 1;
            }
            if !sum.acquires.is_empty() || sum.returns_guard.is_some() {
                g.summaries.entry(item.name.clone()).or_default().push(sum);
            }
        }
    }

    g
}

fn insert_rank(
    ranks: &mut BTreeMap<String, RankInfo>,
    ambiguous: &mut BTreeSet<String>,
    name: String,
    info: RankInfo,
) {
    match ranks.get(&name) {
        Some(prev) if prev.rank != info.rank => {
            // Two construction sites disagree: the name is not a reliable
            // acquisition signal, drop it rather than misreport.
            ambiguous.insert(name);
        }
        _ => {
            ranks.insert(name, info);
        }
    }
}

/// Parse `(rank_expr, "label", ...)` starting at the `(` index. The rank
/// is an integer literal or a const resolved via the workspace table.
fn parse_ctor_args(
    tokens: &[Token],
    open: usize,
    int_consts: &BTreeMap<String, u64>,
) -> Option<RankInfo> {
    let close = parse::skip_group(tokens, open);
    // First arg: up to the first top-level comma.
    let mut depth = 0i32;
    let mut comma = None;
    for (j, t) in tokens.iter().enumerate().take(close - 1).skip(open + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            comma = Some(j);
            break;
        }
    }
    let comma = comma?;
    let rank = tokens[open + 1..comma]
        .iter()
        .rev()
        .find_map(|t| t.int_value().or_else(|| int_consts.get(&t.text).copied()))?
        as u16;
    // Second arg: the label string, when present.
    let label = tokens[comma + 1..close]
        .iter()
        .find_map(|t| t.str_content())
        .map(str::to_string)
        .unwrap_or_else(|| format!("rank {rank}"));
    Some(RankInfo { rank, label })
}

/// Walk backward from a construction site to the binding it initializes:
/// the nearest enclosing `field:` (struct literal) or `let x =` /
/// `target =` at or outside the construction's nesting depth.
fn attribute_ctor(tokens: &[Token], ctor: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut j = ctor;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth -= 1;
            continue;
        }
        if t.is_punct('{') {
            depth -= 1;
            if depth < -1 {
                // Left the enclosing struct literal entirely.
                return None;
            }
            continue;
        }
        if depth > 0 {
            continue;
        }
        if t.is_punct(';') || t.is_ident("fn") {
            return None;
        }
        if t.is_punct('=') && j > 0 && tokens[j - 1].kind == TokKind::Ident {
            // `let x = ...` or `target = ...` (skip `==`, `=>`, `<=` ...).
            if !tokens[j - 1].is_ident("mut")
                && tokens.get(j + 1).map(|t| t.is_punct('=')) != Some(true)
                && !tokens[j - 1].is_punct('=')
            {
                return Some(tokens[j - 1].text.clone());
            }
        }
        if t.is_punct(':')
            && j > 0
            && tokens[j - 1].kind == TokKind::Ident
            && tokens.get(j + 1).map(|t| t.is_punct(':')) != Some(true)
            && (j < 2 || !tokens[j - 2].is_punct(':'))
        {
            // `field: <ctor-bearing expression>` in a struct literal.
            return Some(tokens[j - 1].text.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn globals(src: &str) -> Globals {
        let f = ParsedFile::new("x.rs", src);
        analyze(&[f], &Config::default())
    }

    #[test]
    fn infers_ranks_from_construction_and_consts() {
        let g = globals(
            "pub const OP_STRIPE: u16 = 1;\n\
             pub const MAP_SHARD: u16 = 3;\n\
             impl Cluster {\n\
               fn new() -> Self { Self {\n\
                 op_locks: (0..8).map(|_| OrderedMutex::new(lock_rank::OP_STRIPE, \"op-stripe\", ())).collect(),\n\
                 containers: (0..8).map(|_| OrderedRwLock::new(MAP_SHARD, \"map-shard\", HashMap::new())).collect(),\n\
               } }\n\
             }",
        );
        assert_eq!(g.ranks.get("op_locks").map(|r| r.rank), Some(1));
        assert_eq!(g.ranks.get("containers").map(|r| r.rank), Some(3));
        assert_eq!(g.ranks.get("op_locks").unwrap().label, "op-stripe");
    }

    #[test]
    fn accessors_inherit_field_ranks_through_aliases() {
        let g = globals(
            "const NODE_STRIPE: u16 = 2;\n\
             type Shard = OrderedRwLock<Map>;\n\
             impl Node {\n\
               fn new() -> Self { Self { stripes: core::iter::repeat_with(|| OrderedRwLock::new(NODE_STRIPE, \"node-stripe\", Map::new())).collect() } }\n\
               fn stripe(&self, k: &str) -> &Shard { &self.stripes[self.idx(k)] }\n\
             }",
        );
        assert_eq!(g.ranks.get("stripes").map(|r| r.rank), Some(2));
        assert_eq!(g.ranks.get("stripe").map(|r| r.rank), Some(2));
    }

    #[test]
    fn let_bindings_and_ambiguity() {
        let g = globals(
            "fn a() { let gate = OrderedMutex::new(1, \"gate\", ()); gate.lock(); }\n\
             fn b() { let dup = OrderedMutex::new(1, \"x\", ()); }\n\
             fn c() { let dup = OrderedMutex::new(2, \"y\", ()); }",
        );
        assert_eq!(g.ranks.get("gate").map(|r| r.rank), Some(1));
        // Conflicting ranks for the same name: dropped, not guessed.
        assert!(!g.ranks.contains_key("dup"));
    }

    #[test]
    fn summaries_record_acquired_and_returned_ranks() {
        let g = globals(
            "const R1: u16 = 1;\n\
             impl C {\n\
               fn new() -> Self { Self { op_locks: vec![OrderedMutex::new(R1, \"op\", ())] } }\n\
               fn takes(&self) { let _g = self.op_locks[0].lock(); }\n\
               fn hands_out(&self) -> Guard { self.op_locks[0].lock() }\n\
             }",
        );
        let takes = &g.summaries.get("takes").unwrap()[0];
        assert!(takes.acquires.contains_key(&1));
        assert!(takes.returns_guard.is_none());
        let hands = &g.summaries.get("hands_out").unwrap()[0];
        assert_eq!(hands.returns_guard.as_ref().map(|r| r.rank), Some(1));
    }

    #[test]
    fn test_region_constructions_do_not_pollute_ranks() {
        let g = globals(
            "#[cfg(test)]\nmod tests {\n fn t() { let a = OrderedMutex::new(1, \"a\", ()); }\n}",
        );
        assert!(g.ranks.is_empty());
    }

    #[test]
    fn cloud_ops_derive_from_traits() {
        let f = ParsedFile::new(
            "t.rs",
            "pub trait CloudFs { fn mkdir(&self, ctx: &mut OpCtx) -> R; fn storage_stats(&self) -> S; }",
        );
        let cfg = Config {
            panic_traits: vec!["CloudFs".into()],
            panic_extra: vec!["submit_patch".into()],
            ..Default::default()
        };
        let g = analyze(&[f], &cfg);
        assert!(g.cloud_ops.contains("mkdir"));
        assert!(g.cloud_ops.contains("submit_patch"));
        assert!(!g.cloud_ops.contains("storage_stats"));
    }
}
