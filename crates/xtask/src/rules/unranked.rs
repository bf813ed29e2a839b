//! `unranked-lock`: every lock is an `OrderedMutex`/`OrderedRwLock` built
//! with an `h2util::lock_rank` rank, so the runtime validator checks it
//! and the lock-order rule can infer it. A bare `Mutex::new` or
//! `RwLock::new` (any path, `std::sync::` included) in non-test code is
//! flagged everywhere but the wrapper file itself.

use crate::dataflow::ParsedFile;

use super::{Finding, RULE_UNRANKED_LOCK};

/// The one file that may build a bare lock: the ranked wrappers' own.
pub const WRAPPER_FILE: &str = "crates/util/src/lockorder.rs";

pub fn check(pf: &ParsedFile) -> Vec<Finding> {
    let tokens = &pf.lexed.tokens;
    let mut findings = Vec::new();
    for i in 0..tokens.len() {
        if pf.macro_masked[i] || pf.test_mask[i] {
            continue;
        }
        for lock in ["Mutex", "RwLock"] {
            if tokens[i].is_ident(lock)
                && tokens.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
                && tokens.get(i + 2).map(|t| t.is_punct(':')) == Some(true)
                && tokens.get(i + 3).map(|t| t.is_ident("new")) == Some(true)
            {
                findings.push(Finding {
                    file: pf.path.clone(),
                    line: tokens[i + 3].line,
                    rule: RULE_UNRANKED_LOCK,
                    message: format!(
                        "{lock}::new builds a lock neither the runtime validator nor \
                         lock-order can see; build an h2util::Ordered{lock} with a rank \
                         from h2util::lock_rank instead"
                    ),
                });
            }
        }
    }
    findings
}
