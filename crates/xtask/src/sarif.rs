//! SARIF 2.1.0 output for h2lint findings, hand-rolled (no serde in the
//! offline toolchain). The emission is fully deterministic: findings are
//! pre-sorted by (file, line, rule, message), rules are listed in a fixed
//! catalogue order, and no timestamps or absolute paths appear — two runs
//! over the same tree produce byte-identical documents, which the
//! workspace test asserts.

use crate::rules::Finding;

/// The fixed rule catalogue: (id, short description) in output order.
pub const RULE_CATALOGUE: [(&str, &str); 7] = [
    (
        "lock-order",
        "Ranked locks must be acquired in strictly increasing rank order; \
         same-rank double acquisition is forbidden.",
    ),
    (
        "guard-across-blocking",
        "A ranked lock guard must not stay live across a virtual-time \
         charge, gossip send, retry loop, or wall sleep.",
    ),
    (
        "vtime-accounting",
        "Cloud-op helpers must charge virtual time on every success path, \
         and never charge the same primitive class twice on one path.",
    ),
    (
        "metrics-hygiene",
        "Metric names at emission sites must be shared consts from the \
         registration vocabulary, not string literals.",
    ),
    (
        "panic-safety",
        "No unwrap/expect on lock results or cloud-op Results outside tests.",
    ),
    (
        "determinism",
        "Wall-clock reads and real sleeps only via the h2util::clock facade.",
    ),
    (
        "allow-syntax",
        "h2lint allow directives must be well-formed and justified.",
    ),
];

/// Render findings (already globally sorted) as a SARIF 2.1.0 document.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::with_capacity(4096 + findings.len() * 256);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"h2lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/h2cloud/h2lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (k, (id, desc)) in RULE_CATALOGUE.iter().enumerate() {
        out.push_str("            {\n");
        out.push_str(&format!("              \"id\": {},\n", json_string(id)));
        out.push_str(&format!(
            "              \"shortDescription\": {{ \"text\": {} }}\n",
            json_string(desc)
        ));
        out.push_str("            }");
        if k + 1 < RULE_CATALOGUE.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (k, f) in findings.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": {},\n", json_string(f.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{ \"text\": {} }},\n",
            json_string(&f.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{ \"uri\": {} }},\n",
            json_string(&f.file)
        ));
        out.push_str(&format!(
            "                \"region\": {{ \"startLine\": {} }}\n",
            f.line
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str("        }");
        if k + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Minimal JSON string encoder (the only serialization this tool needs).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn renders_valid_shape_and_is_deterministic() {
        let findings = vec![
            Finding {
                file: "crates/a/src/lib.rs".into(),
                line: 7,
                rule: "lock-order",
                message: "acquiring \"x\" badly".into(),
            },
            Finding {
                file: "crates/b/src/lib.rs".into(),
                line: 3,
                rule: "determinism",
                message: "Instant::now".into(),
            },
        ];
        let a = render(&findings);
        let b = render(&findings);
        assert_eq!(a, b);
        assert!(a.contains("\"version\": \"2.1.0\""));
        assert!(a.contains("\"startLine\": 7"));
        // Every rule in the catalogue is declared.
        for (id, _) in RULE_CATALOGUE {
            assert!(a.contains(&format!("\"id\": \"{id}\"")));
        }
    }
}
