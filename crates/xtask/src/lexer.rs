//! A small hand-rolled Rust lexer: the build environment has no registry
//! access, so `h2lint` cannot lean on `syn`/`proc-macro2`. The rules need
//! a token stream with comments stripped but literal *contents* preserved
//! (the metrics-hygiene rule reads string literals, rank inference reads
//! integer literals), plus the allow directives that comments carry (see
//! [`AllowDirective`]). Because every rule that matches code gates on
//! [`TokKind::Ident`], a `"lock()"` inside a string still cannot trip a
//! lock rule — the whole string is one `Literal` token.
//!
//! Handled surface (exercised by `tests/lexer_edges.rs`):
//! line comments (incl. `///` and `//!` doc comments), nested block
//! comments, string literals with escapes, raw strings `r#"..."#` with any
//! number of hashes, byte and raw-byte strings, raw identifiers `r#match`,
//! char literals vs lifetimes, and numeric literals that do not swallow a
//! following `..` range operator.

/// What a token is, as far as the lint rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`self`, `lock`, `fn`, `r#match` → `match`).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// Any literal: string, raw string, byte string, char, number.
    /// String literals carry their contents quoted (`"name"`), numbers
    /// carry their source text; char and byte-string contents are masked
    /// (no rule reads them). Use [`Token::str_content`] /
    /// [`Token::int_value`] rather than matching `text` directly.
    Literal,
    /// A single punctuation character (`.`, `:`, `(`, `{`, ...).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
    /// The contents of a plain or raw string literal (`"..."`), without
    /// the quotes. `None` for every other token (numbers, chars, byte
    /// strings, idents).
    pub fn str_content(&self) -> Option<&str> {
        if self.kind != TokKind::Literal {
            return None;
        }
        self.text.strip_prefix('"')?.strip_suffix('"')
    }
    /// The value of a decimal/hex integer literal, ignoring `_`
    /// separators and a type suffix. `None` for non-numeric literals.
    pub fn int_value(&self) -> Option<u64> {
        if self.kind != TokKind::Literal {
            return None;
        }
        let t: String = self.text.chars().filter(|c| *c != '_').collect();
        if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
            let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
            return u64::from_str_radix(&digits, 16).ok();
        }
        let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.is_empty() {
            return None;
        }
        digits.parse().ok()
    }
}

/// An allow comment directive: `h2lint:` followed by
/// `allow(rule): justification` inside a line comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    pub line: u32,
    /// The rule name inside `allow(...)`. Empty when the directive is
    /// malformed beyond recognition.
    pub rule: String,
    /// True when a non-empty justification follows the closing paren.
    pub justified: bool,
    /// False when the comment mentions `h2lint:` but is not a
    /// well-formed `allow(rule): justification` — reported by the
    /// `allow-syntax` pseudo-rule and never suppresses anything.
    pub well_formed: bool,
}

/// Lexer output: the token stream plus any allow directives found in
/// comments (which are otherwise stripped).
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowDirective>,
}

pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` doc comments, whose
        // text is documentation: a directive quoted there is an example).
        if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i + 2;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            let content: String = b[start..i].iter().collect();
            let doc = content.starts_with('!')
                || (content.starts_with('/') && !content.starts_with("//"));
            if let Some(dir) = parse_directive(&content, line).filter(|_| !doc) {
                out.allows.push(dir);
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw identifiers and raw / byte string prefixes.
        if c == 'r' || c == 'b' {
            let (is_b, j) = if c == 'b' && b.get(i + 1) == Some(&'r') {
                (true, i + 2) // br"..." / br#"..."#
            } else {
                (c == 'b', i + 1)
            };
            let raw = b.get(j.wrapping_sub(1)) == Some(&'r') || c == 'r';
            if raw {
                // Count hashes after the `r`.
                let hash_start = if c == 'b' { i + 2 } else { i + 1 };
                let mut hashes = 0usize;
                while b.get(hash_start + hashes) == Some(&'#') {
                    hashes += 1;
                }
                let q = hash_start + hashes;
                if b.get(q) == Some(&'"') {
                    // Raw (byte) string: scan for `"` followed by `hashes` #s.
                    let tline = line;
                    let mut k = q + 1;
                    let mut close = b.len();
                    'scan: while k < b.len() {
                        if b[k] == '\n' {
                            line += 1;
                        }
                        if b[k] == '"' {
                            let mut h = 0usize;
                            while h < hashes && b.get(k + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if h == hashes {
                                close = k;
                                k += 1 + hashes;
                                break 'scan;
                            }
                        }
                        k += 1;
                    }
                    // Byte strings stay masked (no rule reads them); raw
                    // string contents are preserved, quoted.
                    let text = if c == 'b' {
                        "b\"\"".to_string()
                    } else {
                        let content: String = b[q + 1..close.min(b.len())].iter().collect();
                        format!("\"{content}\"")
                    };
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text,
                        line: tline,
                    });
                    i = k;
                    continue;
                }
                if c == 'r' && hashes == 1 && b.get(q).map(|c| is_ident_start(*c)) == Some(true) {
                    // Raw identifier r#match — token text drops the prefix.
                    let mut k = q;
                    while k < b.len() && is_ident_continue(b[k]) {
                        k += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Ident,
                        text: b[q..k].iter().collect(),
                        line,
                    });
                    i = k;
                    continue;
                }
            }
            if is_b && b.get(i + 1) == Some(&'"') {
                // b"..." byte string with escapes.
                i = lex_quoted(&b, i + 2, &mut line);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: "b\"\"".into(),
                    line,
                });
                continue;
            }
            if is_b && b.get(i + 1) == Some(&'\'') {
                // b'x' byte char.
                i = lex_char(&b, i + 2);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: "b''".into(),
                    line,
                });
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        // String literal — contents preserved (quoted) so the
        // metrics-hygiene rule can read names; escapes kept verbatim.
        if c == '"' {
            let tline = line;
            let start = i + 1;
            i = lex_quoted(&b, i + 1, &mut line);
            let end = i.saturating_sub(1).max(start);
            let content: String = b[start..end.min(b.len())].iter().collect();
            out.tokens.push(Token {
                kind: TokKind::Literal,
                text: format!("\"{content}\""),
                line: tline,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            match b.get(i + 1) {
                Some('\\') => {
                    // Escaped char literal '\n', '\u{...}'.
                    i = lex_char(&b, i + 1);
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: "''".into(),
                        line,
                    });
                    continue;
                }
                Some(&n) if is_ident_start(n) => {
                    // 'a' is a char literal iff the ident run is closed by
                    // a quote; otherwise it is a lifetime.
                    let mut k = i + 1;
                    while k < b.len() && is_ident_continue(b[k]) {
                        k += 1;
                    }
                    if b.get(k) == Some(&'\'') {
                        out.tokens.push(Token {
                            kind: TokKind::Literal,
                            text: "''".into(),
                            line,
                        });
                        i = k + 1;
                    } else {
                        out.tokens.push(Token {
                            kind: TokKind::Lifetime,
                            text: b[i + 1..k].iter().collect(),
                            line,
                        });
                        i = k;
                    }
                    continue;
                }
                Some(&n) if n != '\'' && b.get(i + 2) == Some(&'\'') => {
                    // Non-identifier char literal like '1' or '('.
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: "''".into(),
                        line,
                    });
                    i += 3;
                    continue;
                }
                _ => {
                    out.tokens.push(Token {
                        kind: TokKind::Punct,
                        text: "'".into(),
                        line,
                    });
                    i += 1;
                    continue;
                }
            }
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let mut k = i;
            while k < b.len() && is_ident_continue(b[k]) {
                k += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: b[i..k].iter().collect(),
                line,
            });
            i = k;
            continue;
        }
        // Number — must not swallow `..` (e.g. `0..stripes`).
        if c.is_ascii_digit() {
            let mut k = i + 1;
            while k < b.len() {
                let d = b[k];
                if d == '.' {
                    // Stop before a range operator; consume a fractional
                    // part only when a digit follows.
                    if b.get(k + 1) == Some(&'.') {
                        break;
                    }
                    if b.get(k + 1).map(|c| c.is_ascii_digit()) == Some(true) {
                        k += 2;
                        continue;
                    }
                    break;
                }
                if d.is_ascii_alphanumeric() || d == '_' {
                    k += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Literal,
                text: b[i..k].iter().collect(),
                line,
            });
            i = k;
            continue;
        }
        // Everything else: single punctuation character.
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scan a quoted string body starting *after* the opening quote; returns
/// the index just past the closing quote. Handles `\"` and `\\` escapes
/// and updates the line counter across embedded newlines.
fn lex_quoted(b: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            // An escape may hide a newline (line-continuation `\` at end
            // of line) — the line counter must still advance.
            '\\' => {
                if b.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scan a char-literal body starting after the opening quote; returns the
/// index just past the closing quote.
fn lex_char(b: &[char], mut i: usize) -> usize {
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Parse a line-comment body for an `h2lint:` directive. Returns `None`
/// for ordinary comments; malformed directives come back with
/// `well_formed: false` so the driver can flag them.
fn parse_directive(content: &str, line: u32) -> Option<AllowDirective> {
    let idx = content.find("h2lint:")?;
    let rest = content[idx + "h2lint:".len()..].trim();
    // Prose that merely mentions the marker (docs, examples) is not a
    // directive; only `allow...` after the marker is treated as one.
    if !rest.starts_with("allow") {
        return None;
    }
    let malformed = AllowDirective {
        line,
        rule: String::new(),
        justified: false,
        well_formed: false,
    };
    let Some(body) = rest.strip_prefix("allow(") else {
        return Some(malformed);
    };
    let Some(close) = body.find(')') else {
        return Some(malformed);
    };
    let rule = body[..close].trim().to_string();
    if rule.is_empty() {
        return Some(malformed);
    }
    let tail = body[close + 1..].trim();
    let justified = match tail.strip_prefix(':') {
        Some(j) => !j.trim().is_empty(),
        None => false,
    };
    Some(AllowDirective {
        line,
        rule,
        justified,
        well_formed: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strings_are_single_tokens_not_idents() {
        // The whole string is one Literal token: nothing inside it can
        // match an Ident-gated rule pattern.
        let t = texts(r#"let s = "self.op_lock(k).lock()";"#);
        assert!(!t.iter().any(|s| s == "op_lock"));
        let toks = lex(r#"m.counter("op_retries");"#).tokens;
        let lit = toks.iter().find(|t| t.kind == TokKind::Literal).unwrap();
        assert_eq!(lit.str_content(), Some("op_retries"));
        assert!(!toks.iter().any(|t| t.is_ident("op_retries")));
    }

    #[test]
    fn int_values_resolve() {
        let toks = lex("const A: u16 = 3; let b = 0x10u32; let c = 1_000;").tokens;
        let ints: Vec<u64> = toks.iter().filter_map(|t| t.int_value()).collect();
        assert_eq!(ints, vec![3, 16, 1000]);
    }

    #[test]
    fn nested_block_comments() {
        let t = texts("a /* x /* y */ z */ b");
        assert_eq!(t, vec!["a", "b"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let t = texts(r###"let s = r#"has "quotes" and lock()"# ; done"###);
        assert!(t.contains(&"done".to_string()));
        assert!(!t.iter().any(|s| s == "lock"));
    }

    #[test]
    fn raw_ident_and_lifetime_and_char() {
        let toks = lex("fn r#match<'a>(x: &'a char) { let c = 'b'; }").tokens;
        assert!(toks.iter().any(|t| t.is_ident("match")));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Literal));
    }

    #[test]
    fn numbers_leave_range_dots_alone() {
        let t = texts("for i in 0..stripes {}");
        assert!(t.contains(&"stripes".to_string()));
        assert_eq!(t.iter().filter(|s| *s == ".").count(), 2);
    }

    #[test]
    fn string_line_continuation_keeps_line_numbers() {
        let toks = lex("let s = \"a \\\n   b\";\nafter();\n").tokens;
        let after = toks.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn allow_directive_parses() {
        let l = lex("x(); // h2lint: allow(panic-safety): bench harness\n");
        assert_eq!(l.allows.len(), 1);
        assert!(l.allows[0].well_formed && l.allows[0].justified);
        assert_eq!(l.allows[0].rule, "panic-safety");
    }

    #[test]
    fn unjustified_allow_is_detected() {
        let l = lex("// h2lint: allow(determinism)\n// h2lint: allow bare\n");
        assert!(l.allows[0].well_formed && !l.allows[0].justified);
        assert!(!l.allows[1].well_formed);
        // Prose mentioning the marker is not a directive at all.
        assert!(lex("// see h2lint: the linter docs\n").allows.is_empty());
    }
}
