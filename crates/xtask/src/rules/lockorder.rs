//! Guard-liveness engine and the two rules built on it.
//!
//! **`lock-order`** — within each fn, model every ranked guard's
//! lifetime (let bindings incl. shadowing, temporaries, `match`
//! scrutinee temporaries, explicit `drop()`, scope exit) and flag an
//! acquisition whose rank is less than *or equal to* any held rank —
//! exactly the condition the runtime validator
//! (`h2util::lockorder`) panics on in debug builds. Ranks come from
//! workspace inference ([`crate::dataflow`]), so the rule covers every
//! crate with no file allowlist. One-level interprocedural summaries
//! extend the check through direct calls: holding rank R and calling a
//! fn whose body acquires rank ≤ R is flagged at the call site, and a
//! fn whose tail expression hands a guard back to the caller counts as
//! an acquisition when its result is bound.
//!
//! **`guard-across-blocking`** — a ranked guard live across a
//! virtual-time-charging cloud op (`ctx.charge*`/`parallel`/`span`…, or
//! any call the `OpCtx` is forwarded to), a gossip send, a retry
//! `run_*`, or a `wall_sleep` is both a deadlock hazard and a latency
//! cliff: every key hashing to the same stripe stalls behind the
//! charged work. Reported once per guard, at the first crossing.

use crate::config::Config;
use crate::dataflow::{match_acquisition, FnSummary, Globals, ParsedFile};
use crate::lexer::{TokKind, Token};
use crate::parse;

use super::{
    call_forwards_ctx, ctxish, in_test_path, Finding, RULE_GUARD_BLOCKING, RULE_LOCK_ORDER,
};

/// How long a held guard lives.
#[derive(Debug, Clone, PartialEq)]
enum Scope {
    /// `let g = ...;` — to the end of the block at `depth`.
    Binding { name: String, depth: i32 },
    /// An un-bound acquisition — to the end of the statement.
    Temp,
    /// A `match` scrutinee temporary — to the end of the match body.
    MatchTemp { depth: i32 },
}

#[derive(Debug, Clone)]
struct Guard {
    rank: u16,
    label: String,
    name: String,
    line: u32,
    scope: Scope,
    /// The blocking rule fired for this guard already (report once).
    blocking_flagged: bool,
}

/// `ctx`-receiver methods that charge (or wrap charged work in) virtual
/// time. `span_note`/`span_instant`/`vnow` are bookkeeping, not charges.
const CTX_CHARGE_METHODS: [&str; 5] = ["charge", "charge_time", "parallel", "span", "in_stage"];

pub fn check(pf: &ParsedFile, cfg: &Config, g: &Globals) -> Vec<Finding> {
    let mut findings = Vec::new();
    if g.ranks.is_empty() {
        return findings;
    }
    let blocking_in_file = !in_test_path(&pf.path);
    for item in &pf.items.fns {
        let Some((bs, be)) = item.body else { continue };
        let blocking = blocking_in_file && !item.in_test;
        analyze_fn(
            pf,
            cfg,
            g,
            item.self_ty.as_deref(),
            bs,
            be,
            blocking,
            &mut findings,
        );
    }
    findings
}

#[allow(clippy::too_many_arguments)]
fn analyze_fn(
    pf: &ParsedFile,
    cfg: &Config,
    g: &Globals,
    self_ty: Option<&str>,
    body_start: usize,
    body_end: usize,
    blocking: bool,
    findings: &mut Vec<Finding>,
) {
    let toks = &pf.lexed.tokens;
    let masked = &pf.macro_masked;
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut at_stmt_start = true;
    let mut stmt_is_let = false;
    let mut let_name: Option<String> = None;
    let mut pending_match = false;
    let mut i = body_start;
    while i <= body_end {
        let t = &toks[i];
        // A nested fn is its own scope with its own FnItem — skip it.
        if !masked[i] && t.is_ident("fn") && i > body_start {
            if let Some((_, ne)) = parse::fn_body(toks, i) {
                i = ne + 1;
                at_stmt_start = true;
                stmt_is_let = false;
                pending_match = false;
                continue;
            }
        }
        if t.is_punct('{') {
            depth += 1;
            if pending_match {
                // `match x.lock() { ... }`: the scrutinee temporary lives
                // through the whole match body.
                for h in held.iter_mut() {
                    if h.scope == Scope::Temp {
                        h.scope = Scope::MatchTemp { depth };
                    }
                }
                pending_match = false;
            } else {
                held.retain(|h| h.scope != Scope::Temp);
            }
            at_stmt_start = true;
            stmt_is_let = false;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|h| match &h.scope {
                Scope::Binding { depth: d, .. } | Scope::MatchTemp { depth: d } => {
                    *d <= depth && depth > 0
                }
                Scope::Temp => false,
            });
            at_stmt_start = true;
            stmt_is_let = false;
        } else if t.is_punct(';') {
            held.retain(|h| h.scope != Scope::Temp);
            at_stmt_start = true;
            stmt_is_let = false;
            pending_match = false;
        } else if !masked[i] {
            if at_stmt_start {
                at_stmt_start = false;
                stmt_is_let = t.is_ident("let");
                pending_match = t.is_ident("match");
                let_name = None;
                if stmt_is_let {
                    let mut k = i + 1;
                    if toks.get(k).map(|t| t.is_ident("mut")) == Some(true) {
                        k += 1;
                    }
                    if let Some(n) = toks.get(k) {
                        if n.kind == TokKind::Ident {
                            let_name = Some(n.text.clone());
                        }
                    }
                }
            }
            // Explicit drop: `drop(g)` / `mem::drop(g)` releases bindings.
            if t.is_ident("drop") && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true) {
                let end = parse::skip_group(toks, i + 1);
                let dropped: Vec<String> = toks[i + 2..end.saturating_sub(1)]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                held.retain(|h| match &h.scope {
                    Scope::Binding { name, .. } => !dropped.contains(name),
                    _ => true,
                });
                i = end;
                continue;
            }
            // Direct ranked acquisition.
            if let Some(acq) = match_acquisition(toks, i, &g.ranks) {
                for h in &held {
                    if h.rank > acq.rank {
                        findings.push(Finding {
                            file: pf.path.clone(),
                            line: acq.line,
                            rule: RULE_LOCK_ORDER,
                            message: format!(
                                "acquiring `{}` ({}, rank {}) while holding `{}` \
                                 ({}, rank {}) taken on line {} — ranks must be \
                                 acquired in strictly increasing order",
                                acq.name, acq.label, acq.rank, h.name, h.label, h.rank, h.line
                            ),
                        });
                    } else if h.rank == acq.rank {
                        findings.push(Finding {
                            file: pf.path.clone(),
                            line: acq.line,
                            rule: RULE_LOCK_ORDER,
                            message: format!(
                                "acquiring a second `{}` lock ({}, rank {}) while \
                                 one is already held (line {}) — same-rank double \
                                 acquisition deadlocks and the runtime validator \
                                 rejects it",
                                acq.name, acq.label, acq.rank, h.line
                            ),
                        });
                    }
                }
                let let_bound =
                    stmt_is_let && toks.get(acq.end).map(|t| t.is_punct(';')) == Some(true);
                let scope = if let_bound {
                    match let_name.as_deref() {
                        // `let _ = guard` drops immediately, like a temp.
                        Some("_") | None => Scope::Temp,
                        Some(n) => Scope::Binding {
                            name: n.to_string(),
                            depth,
                        },
                    }
                } else {
                    Scope::Temp
                };
                held.push(Guard {
                    rank: acq.rank,
                    label: acq.label,
                    name: acq.name,
                    line: acq.line,
                    scope,
                    blocking_flagged: false,
                });
                i = acq.end;
                continue;
            }
            // Call sites: interprocedural summaries + blocking events.
            if t.kind == TokKind::Ident && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true) {
                let name = t.text.as_str();
                let is_method = i > 0 && toks[i - 1].is_punct('.');
                let recv_is_ctx = is_method && i >= 2 && ctxish(&toks[i - 2]);

                // One-level interprocedural check: the callee's own
                // acquisitions against our held set.
                if !held.is_empty() && !recv_is_ctx {
                    if let Some(sum) = resolve_summary(g, name, is_method, self_ty, toks, i) {
                        'out: for (rank, label) in &sum.acquires {
                            for h in &held {
                                if h.rank >= *rank {
                                    findings.push(Finding {
                                        file: pf.path.clone(),
                                        line: t.line,
                                        rule: RULE_LOCK_ORDER,
                                        message: format!(
                                            "calling `{}()` which acquires {} (rank {}) \
                                             while holding `{}` ({}, rank {}) taken on \
                                             line {} — the callee's acquisition breaks \
                                             the rank order",
                                            name, label, rank, h.name, h.label, h.rank, h.line
                                        ),
                                    });
                                    break 'out;
                                }
                            }
                        }
                    }
                }
                // A call whose tail expression returns a live guard: the
                // caller now holds it.
                if let Some(sum) = resolve_summary(g, name, is_method, self_ty, toks, i) {
                    if let Some(rg) = &sum.returns_guard {
                        let end = parse::skip_group(toks, i + 1);
                        let let_bound =
                            stmt_is_let && toks.get(end).map(|t| t.is_punct(';')) == Some(true);
                        let scope = if let_bound {
                            match let_name.as_deref() {
                                Some("_") | None => Scope::Temp,
                                Some(n) => Scope::Binding {
                                    name: n.to_string(),
                                    depth,
                                },
                            }
                        } else {
                            Scope::Temp
                        };
                        held.push(Guard {
                            rank: rg.rank,
                            label: rg.label.clone(),
                            name: name.to_string(),
                            line: t.line,
                            scope,
                            blocking_flagged: false,
                        });
                        i = end;
                        continue;
                    }
                }
                // Blocking events under a held ranked guard.
                if blocking && held.iter().any(|h| !h.blocking_flagged) {
                    let event: Option<String> = if recv_is_ctx {
                        CTX_CHARGE_METHODS
                            .contains(&name)
                            .then(|| format!("`ctx.{name}(..)` (virtual-time charge)"))
                    } else if cfg.blocking_calls.iter().any(|c| c == name) {
                        Some(format!("`{name}(..)` (blocking/real-time call)"))
                    } else if call_forwards_ctx(toks, i + 1) {
                        Some(format!("`{name}(..)` which the OpCtx is forwarded to"))
                    } else {
                        None
                    };
                    if let Some(desc) = event {
                        for h in held.iter_mut().filter(|h| !h.blocking_flagged) {
                            h.blocking_flagged = true;
                            findings.push(Finding {
                                file: pf.path.clone(),
                                line: t.line,
                                rule: RULE_GUARD_BLOCKING,
                                message: format!(
                                    "`{}` guard ({}, rank {}, acquired on line {}) is \
                                     held across {} — charged cloud work under a \
                                     ranked lock stalls every key on the stripe; \
                                     drop the guard first or justify the serialization",
                                    h.name, h.label, h.rank, h.line, desc
                                ),
                            });
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Resolve a call site to a unique fn summary. Only two call shapes are
/// resolvable without real type information: `self.m(..)` (the receiver's
/// type is the enclosing impl's `Self`) and free-fn calls `f(..)` (no
/// receiver at all). Method calls on *other* receivers are never resolved
/// — `map.get(..)` on a `HashMap` must not inherit the summary of a cloud
/// op that happens to be named `get` (better a false negative than a
/// cross-type false positive).
fn resolve_summary<'g>(
    g: &'g Globals,
    name: &str,
    is_method: bool,
    self_ty: Option<&str>,
    toks: &[Token],
    i: usize,
) -> Option<&'g FnSummary> {
    let cands = g.summaries.get(name)?;
    if is_method {
        if i >= 2 && toks[i - 2].is_ident("self") {
            let ty = self_ty?;
            return cands.iter().find(|s| s.self_ty.as_deref() == Some(ty));
        }
        return None;
    }
    // Free-fn call: resolve only when the name is workspace-unique among
    // free fns (no `self_ty`).
    let mut free = cands.iter().filter(|s| s.self_ty.is_none());
    let first = free.next()?;
    if free.next().is_some() {
        return None;
    }
    Some(first)
}
