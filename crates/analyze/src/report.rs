//! Diagnostics and the machine-readable JSON report.

use std::fmt;

/// The four enforced rule families plus waiver hygiene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unsafe` block/fn/impl without a `// SAFETY:` comment, or a
    /// `pub unsafe fn` without a `# Safety` doc section.
    UnsafeAudit,
    /// Deny-listed allocating construct inside the hot-path file set.
    HotAlloc,
    /// `HashMap`/`HashSet` iteration or worker-closure float
    /// accumulation in numeric code.
    Determinism,
    /// Raw clock read (`Instant::now` / `.elapsed` / `SystemTime`)
    /// inside the hot-path set instead of the non-allocating span API.
    TelemetrySpan,
    /// Malformed `// dg-analyze: allow(...)` waiver.
    Waiver,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeAudit => "unsafe_audit",
            Rule::HotAlloc => "hot_alloc",
            Rule::Determinism => "determinism",
            Rule::TelemetrySpan => "telemetry_span",
            Rule::Waiver => "waiver",
        }
    }

    /// The rule names accepted inside `allow(...)`. `waiver` is not
    /// waivable: waiving waiver hygiene is circular.
    pub fn waivable(id: &str) -> bool {
        matches!(
            id,
            "unsafe_audit" | "hot_alloc" | "determinism" | "telemetry_span"
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn id(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a workspace-relative `file:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    /// 1-based.
    pub line: usize,
    pub rule: Rule,
    pub severity: Severity,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.severity.id(),
            self.rule.id(),
            self.message
        )
    }
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned (for the JSON report's coverage record).
    pub files_scanned: usize,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Sort for stable output: file, then line, then rule.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Hand-rolled JSON (the container has no serde): one top-level
    /// object with counts and a `diagnostics` array.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"errors\": {},\n", self.errors()));
        s.push_str(&format!("  \"warnings\": {},\n", self.warnings()));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"severity\": {}, \"message\": {}}}",
                json_str(&d.file),
                d.line,
                json_str(d.rule.id()),
                json_str(d.severity.id()),
                json_str(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
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
    fn json_escapes_and_counts() {
        let mut r = Report {
            diagnostics: vec![Diagnostic {
                file: "a\"b.rs".into(),
                line: 3,
                rule: Rule::HotAlloc,
                severity: Severity::Error,
                message: "deny \"vec!\"\nhere".into(),
            }],
            files_scanned: 1,
        };
        r.sort();
        let j = r.to_json();
        assert!(j.contains("\"errors\": 1"));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\\n"));
    }
}
