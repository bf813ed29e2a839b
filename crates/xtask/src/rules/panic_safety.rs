//! `panic-safety`: no `.unwrap()`/`.expect(..)` on lock-acquisition
//! results or on cloud-op `Result`s in non-test code. A panic while a
//! lock is held poisons it for every other thread; a panic on a cloud-op
//! result turns a routine failure (NotFound, quorum loss) into a node
//! crash. The cloud-op method list is **derived** from the `CloudFs` /
//! `ObjectStore` trait declarations (methods carrying an `OpCtx`), not
//! hand-listed in config.

use crate::dataflow::{Globals, ParsedFile, LOCK_METHODS};
use crate::lexer::TokKind;
use crate::parse;

use super::{Finding, RULE_PANIC_SAFETY};

pub fn check(pf: &ParsedFile, g: &Globals) -> Vec<Finding> {
    let tokens = &pf.lexed.tokens;
    let mut findings = Vec::new();
    for i in 0..tokens.len() {
        if pf.macro_masked[i] || pf.test_mask[i] || tokens[i].kind != TokKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        // Pattern A: `.lock().unwrap()` / `.read().expect(...)` etc.
        if LOCK_METHODS.contains(&name)
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            && tokens.get(i + 2).map(|t| t.is_punct(')')) == Some(true)
            && tokens.get(i + 3).map(|t| t.is_punct('.')) == Some(true)
        {
            if let Some(u) = tokens.get(i + 4) {
                if (u.is_ident("unwrap") || u.is_ident("expect"))
                    && tokens.get(i + 5).map(|t| t.is_punct('(')) == Some(true)
                {
                    findings.push(Finding {
                        file: pf.path.clone(),
                        line: u.line,
                        rule: RULE_PANIC_SAFETY,
                        message: format!(
                            ".{}().{}() on a lock can poison-cascade across \
                             threads; use the h2util::Ordered* lock types, which \
                             recover and count a poisoned lock, instead",
                            name, u.text
                        ),
                    });
                }
            }
        }
        // Pattern B: `fs.write(&mut ctx, ...).unwrap()` — a cloud-op call
        // (recognized by carrying an OpCtx argument) whose Result is
        // unwrapped.
        if g.cloud_ops.contains(name) && tokens.get(i + 1).map(|t| t.is_punct('(')) == Some(true) {
            let close = parse::skip_group(tokens, i + 1);
            let has_ctx_arg = tokens[i + 1..close.saturating_sub(1)]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text.contains("ctx"));
            if has_ctx_arg && tokens.get(close).map(|t| t.is_punct('.')) == Some(true) {
                if let Some(u) = tokens.get(close + 1) {
                    if (u.is_ident("unwrap") || u.is_ident("expect"))
                        && tokens.get(close + 2).map(|t| t.is_punct('(')) == Some(true)
                    {
                        findings.push(Finding {
                            file: pf.path.clone(),
                            line: u.line,
                            rule: RULE_PANIC_SAFETY,
                            message: format!(
                                "cloud op `{}` returns a Result that is {}()ed; \
                                 cloud calls fail routinely (NotFound, quorum \
                                 loss) — propagate the error instead",
                                name, u.text
                            ),
                        });
                    }
                }
            }
        }
    }
    findings
}
