//! `vtime-accounting`: a cloud-op helper (an `OpCtx`-carrying method of
//! the `CloudFs`/`ObjectStore` traits, or a configured extra) must reach
//! a virtual-time charge — `ctx.charge(..)`, `ctx.charge_time(..)`,
//! `ctx.parallel(..)`, or a call the ctx is *delegated* to — on every success path. Paths that
//! exit with `return Err(..)` (or diverge: `?`-free early errors,
//! `panic!`, `unreachable!`) are exempt: a failed op may legitimately
//! charge nothing. Separately, for **any** ctx-carrying fn, charging the
//! same primitive class twice on one path (`ctx.charge(PrimKind::Get, ..)`
//! … `ctx.charge(PrimKind::Get, ..)`) is flagged: double accounting
//! inflates virtual latency and corrupts the simulated cost model.
//!
//! The evaluator is a keyword-driven path walk, deliberately optimistic:
//! `if`/`else` chains merge by requiring every live arm to charge before
//! the merged state counts as charged (classes intersect); `match` arms
//! likewise; loop bodies charge optimistically (may run once); delegation
//! clears the class set (the callee owns its own accounting). Optimism
//! trades false negatives for zero false positives on real control flow.

use std::collections::BTreeSet;

use crate::dataflow::{Globals, ParsedFile};
use crate::lexer::{TokKind, Token};
use crate::parse;

use super::{call_forwards_ctx, ctxish, Finding, RULE_VTIME};

/// ctx-receiver methods that charge virtual time themselves.
const CHARGE_METHODS: [&str; 3] = ["charge", "charge_time", "parallel"];

#[derive(Debug, Clone, Default)]
struct State {
    charged: bool,
    /// Primitive classes charged on this path via `ctx.charge(PrimKind::X, ..)`.
    classes: BTreeSet<String>,
}

struct Eval<'a> {
    pf: &'a ParsedFile,
    /// The fn must charge on every success path (it is a derived cloud op).
    must: bool,
    fn_name: &'a str,
    findings: Vec<Finding>,
}

pub fn check(pf: &ParsedFile, g: &Globals) -> Vec<Finding> {
    let mut findings = Vec::new();
    for item in &pf.items.fns {
        if item.in_test || !item.has_ctx_param {
            continue;
        }
        let Some((bs, be)) = item.body else { continue };
        let must = g.cloud_ops.contains(&item.name);
        let mut ev = Eval {
            pf,
            must,
            fn_name: &item.name,
            findings: Vec::new(),
        };
        let (st, diverges) = ev.eval_seq(bs + 1, be, State::default());
        if must && !st.charged && !diverges {
            ev.findings.push(Finding {
                file: pf.path.clone(),
                line: item.line,
                rule: RULE_VTIME,
                message: format!(
                    "cloud op `{}` has a success path that never charges \
                     virtual time (no ctx.charge/charge_time/parallel and \
                     no call forwarding the OpCtx) — \
                     uncharged ops make the simulated latency model lie",
                    item.name
                ),
            });
        }
        findings.extend(ev.findings);
    }
    findings
}

/// First `{` at zero paren/bracket depth in `from..end` (a block opener
/// after a condition/scrutinee/loop header).
fn find_block(toks: &[Token], from: usize, end: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = from;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            return Some(j);
        }
        j += 1;
    }
    None
}

impl Eval<'_> {
    /// Evaluate a token range as one sequential path. Returns the state at
    /// the end plus whether the path diverges (return/panic/...) before
    /// reaching it.
    fn eval_seq(&mut self, start: usize, end: usize, mut st: State) -> (State, bool) {
        let toks = &self.pf.lexed.tokens;
        let mut diverges = false;
        let mut i = start;
        while i < end {
            if self.pf.macro_masked[i] {
                i += 1;
                continue;
            }
            let t = &toks[i];
            // Nested fn: its own accounting scope.
            if t.is_ident("fn") {
                if let Some((_, ne)) = parse::fn_body(toks, i) {
                    i = ne + 1;
                    continue;
                }
            }
            if t.is_ident("if") {
                i = self.eval_if_chain(i, end, &mut st, &mut diverges);
                continue;
            }
            if t.is_ident("match") {
                i = self.eval_match(i, end, &mut st);
                continue;
            }
            // `let .. else { .. }`: an `else` reaching the sequential walk
            // was not consumed by an if-chain, so it is a let-else block.
            // Rust requires it to diverge — nothing in it affects the
            // fall-through path, so its charges must not leak out.
            if t.is_ident("else") && toks.get(i + 1).map(|t| t.is_punct('{')) == Some(true) {
                i = parse::match_brace(toks, i + 1) + 1;
                continue;
            }
            if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
                if let Some(bs) = find_block(toks, i + 1, end) {
                    let be = parse::match_brace(toks, bs);
                    let (bst, _) = self.eval_seq(bs + 1, be, st.clone());
                    // Optimistic: the body may run (charge), but don't carry
                    // its classes out — per-iteration charges are per-op.
                    st.charged |= bst.charged;
                    i = be + 1;
                    continue;
                }
            }
            if t.is_ident("return") {
                let is_err = toks.get(i + 1).map(|t| t.is_ident("Err")) == Some(true);
                if !is_err && self.must && !st.charged {
                    self.findings.push(Finding {
                        file: self.pf.path.clone(),
                        line: t.line,
                        rule: RULE_VTIME,
                        message: format!(
                            "cloud op `{}` returns success here without having \
                             charged virtual time on this path",
                            self.fn_name
                        ),
                    });
                }
                diverges = true;
                i += 1;
                continue;
            }
            if (t.is_ident("panic") || t.is_ident("unreachable") || t.is_ident("todo"))
                && toks.get(i + 1).map(|t| t.is_punct('!')) == Some(true)
            {
                diverges = true;
                i += 2;
                continue;
            }
            if t.is_ident("continue") || t.is_ident("break") {
                diverges = true;
                i += 1;
                continue;
            }
            // Calls: charges, delegations.
            if t.kind == TokKind::Ident && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true) {
                let name = t.text.as_str();
                let is_method = i > 0 && toks[i - 1].is_punct('.');
                let recv_ctx = is_method && i >= 2 && ctxish(&toks[i - 2]);
                if recv_ctx && CHARGE_METHODS.contains(&name) {
                    st.charged = true;
                    let close = parse::skip_group(toks, i + 1);
                    if name == "charge" {
                        if let Some(class) = first_arg_class(toks, i + 1, close) {
                            if !st.classes.insert(class.clone()) {
                                self.findings.push(Finding {
                                    file: self.pf.path.clone(),
                                    line: t.line,
                                    rule: RULE_VTIME,
                                    message: format!(
                                        "`{}` charges PrimKind::{} twice on the same \
                                         path — double accounting inflates virtual \
                                         latency",
                                        self.fn_name, class
                                    ),
                                });
                            }
                        }
                    }
                    // Skip the argument group: a closure inside parallel
                    // charges a forked ctx, not this path.
                    i = close;
                    continue;
                }
                if !recv_ctx && call_forwards_ctx(toks, i + 1) {
                    // Delegation: the callee owns the accounting from here.
                    st.charged = true;
                    st.classes.clear();
                    i = parse::skip_group(toks, i + 1);
                    continue;
                }
                // ctx.span(..) and plain calls: fall through — the walker
                // descends into the argument tokens (incl. closure bodies
                // running on this same ctx path).
            }
            i += 1;
        }
        (st, diverges)
    }

    /// `if c {..} else if c {..} else {..}` — returns the index just past
    /// the chain, merging branch states into `st`.
    fn eval_if_chain(
        &mut self,
        if_idx: usize,
        end: usize,
        st: &mut State,
        diverges: &mut bool,
    ) -> usize {
        let toks = &self.pf.lexed.tokens;
        let mut branches: Vec<(State, bool)> = Vec::new();
        let mut has_else = false;
        let mut j = if_idx;
        let after;
        loop {
            let Some(bs) = find_block(toks, j + 1, end) else {
                return j + 1;
            };
            let be = parse::match_brace(toks, bs);
            if j == if_idx {
                // The first condition always runs; a charge or delegation
                // inside it (`if self.delegate(ctx)? { .. }`) counts on
                // every path. Later conditions only run on some paths.
                let (cst, _) = self.eval_seq(j + 1, bs, st.clone());
                *st = cst;
            }
            branches.push(self.eval_seq(bs + 1, be, st.clone()));
            let k = be + 1;
            if toks.get(k).map(|t| t.is_ident("else")) == Some(true) {
                if toks.get(k + 1).map(|t| t.is_ident("if")) == Some(true) {
                    j = k + 1;
                    continue;
                }
                if toks.get(k + 1).map(|t| t.is_punct('{')) == Some(true) {
                    let ee = parse::match_brace(toks, k + 1);
                    branches.push(self.eval_seq(k + 2, ee, st.clone()));
                    has_else = true;
                    after = ee + 1;
                    break;
                }
            }
            after = k;
            break;
        }
        let live: Vec<&State> = branches
            .iter()
            .filter(|(_, d)| !d)
            .map(|(s, _)| s)
            .collect();
        if has_else {
            if live.is_empty() {
                // Every arm diverges and the chain is exhaustive.
                *diverges = true;
            } else {
                if live.iter().all(|s| s.charged) {
                    st.charged = true;
                }
                // Classes charged on every live arm are charged after the
                // merge point.
                let mut common = live[0].classes.clone();
                for s in &live[1..] {
                    common = common.intersection(&s.classes).cloned().collect();
                }
                st.classes.extend(common);
            }
        }
        // No final else: the fall-through arm keeps the incoming state.
        after
    }

    /// `match scrutinee { arms }` — exhaustive merge over arm values.
    fn eval_match(&mut self, m_idx: usize, end: usize, st: &mut State) -> usize {
        let toks = &self.pf.lexed.tokens;
        let Some(bs) = find_block(toks, m_idx + 1, end) else {
            return m_idx + 1;
        };
        let be = parse::match_brace(toks, bs);
        // The scrutinee always runs: a delegation or charge there (e.g.
        // `match self.head(ctx, key) { .. }`) counts on every arm's path.
        let (sst, _) = self.eval_seq(m_idx + 1, bs, st.clone());
        *st = sst;
        let mut branches: Vec<(State, bool)> = Vec::new();
        let mut j = bs + 1;
        let mut depth = 0i32;
        while j < be {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0
                && t.is_punct('=')
                && toks.get(j + 1).map(|t| t.is_punct('>')) == Some(true)
            {
                // Arm value: either a brace block or an expression up to the
                // next depth-0 comma.
                let vs = j + 2;
                let ve = if toks.get(vs).map(|t| t.is_punct('{')) == Some(true) {
                    parse::match_brace(toks, vs)
                } else {
                    let mut d2 = 0i32;
                    let mut k = vs;
                    while k < be {
                        let tk = &toks[k];
                        if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('{') {
                            d2 += 1;
                        } else if tk.is_punct(')') || tk.is_punct(']') || tk.is_punct('}') {
                            d2 -= 1;
                        } else if tk.is_punct(',') && d2 == 0 {
                            break;
                        }
                        k += 1;
                    }
                    k
                };
                branches.push(self.eval_seq(vs, ve.min(be), st.clone()));
                j = ve + 1;
                continue;
            }
            j += 1;
        }
        let live: Vec<&State> = branches
            .iter()
            .filter(|(_, d)| !d)
            .map(|(s, _)| s)
            .collect();
        if !branches.is_empty() && !live.is_empty() {
            if live.iter().all(|s| s.charged) {
                st.charged = true;
            }
            let mut common = live[0].classes.clone();
            for s in &live[1..] {
                common = common.intersection(&s.classes).cloned().collect();
            }
            st.classes.extend(common);
        }
        be + 1
    }
}

/// The charge class: last ident of the first top-level argument
/// (`PrimKind::Get` → `Get`).
fn first_arg_class(toks: &[Token], open: usize, close: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut last: Option<String> = None;
    for t in &toks[open + 1..close.saturating_sub(1)] {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(',') {
                break;
            }
            if t.kind == TokKind::Ident {
                last = Some(t.text.clone());
            }
        }
    }
    last
}
