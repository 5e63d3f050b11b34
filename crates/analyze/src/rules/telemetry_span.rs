//! Rule family 5: hot-path timing goes through the span API.
//!
//! The telemetry invariant — bit-identical trajectories and a
//! zero-allocation RHS whether collection is on or off — holds because
//! every hot-path measurement goes through `dg_telemetry`'s
//! `span!`/`Collector::count` layer: one branch when disabled, two
//! monotonic clock reads when enabled, no allocation either way. A raw
//! `Instant::now()` / `.elapsed()` / `SystemTime` call inside the hot
//! set bypasses that contract (it times unconditionally and invites
//! ad-hoc aggregation), so this rule denies raw clock *reads* in the
//! same file set `hot_alloc` protects. The single blessed site is
//! `now_ns()` in `crates/telemetry/src/collect.rs`, which carries the
//! waiver that documents it.

use crate::report::{Diagnostic, Rule, Severity};
use crate::rules::hot_alloc::is_hot_path;
use crate::scan::SourceFile;

/// Deny-listed clock-read constructs. Mentioning the *types* (imports,
/// struct fields) stays legal — only reads of the ambient clock are
/// denied, since those are what the span API wraps.
const DENY: &[(&str, &str)] = &[
    ("Instant::now", "`Instant::now()` is a raw clock read"),
    (".elapsed(", "`.elapsed()` is a raw clock read"),
    ("SystemTime::now", "`SystemTime::now()` is a raw clock read"),
];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !is_hot_path(&file.rel_path) {
        return Vec::new();
    }
    check_as_hot(file)
}

/// The body of the rule, path filter already applied (golden-fixture
/// tests call this directly on snippets outside the real hot set).
pub fn check_as_hot(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (li, line) in file.lines.iter().enumerate() {
        if file.in_test[li] {
            continue;
        }
        for &(needle, what) in DENY {
            if let Some(col) = line.code.find(needle) {
                // Word boundary before `Instant::now` / `SystemTime::now`
                // so e.g. `MyInstant::nowhere` cannot match; method
                // needles start with `.` and follow their receiver.
                if col > 0 && !needle.starts_with('.') {
                    let b = line.code.as_bytes()[col - 1];
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        continue;
                    }
                }
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: li + 1,
                    rule: Rule::TelemetrySpan,
                    severity: Severity::Error,
                    message: format!(
                        "{what} in a hot-path file: time through `span!(ws.probe, Phase::…)` \
                         / `now_ns()` so collection stays branch-cheap and disableable \
                         (waive the blessed clock with `// dg-analyze: allow(telemetry_span) — <reason>`)"
                    ),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_lines, test_mask};

    fn run(src: &str) -> Vec<Diagnostic> {
        let lines = scan_lines(src);
        let in_test = test_mask(&lines);
        check_as_hot(&SourceFile {
            rel_path: "hot.rs".into(),
            lines,
            in_test,
        })
    }

    #[test]
    fn raw_clock_reads_fire() {
        let d = run(
            "fn f() {\n    let t = Instant::now();\n    let dt = t.elapsed();\n    let w = SystemTime::now();\n}\n",
        );
        assert_eq!(d.len(), 3);
        assert_eq!((d[0].line, d[1].line, d[2].line), (2, 3, 4));
        assert!(d.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn type_mentions_and_span_api_are_legal() {
        let d = run(
            "use std::time::Instant;\nstatic T: OnceLock<Instant> = OnceLock::new();\nfn f(ws: &Ws) { span!(ws.probe, Phase::Volume); let t = now_ns(); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tests_and_strings_are_exempt() {
        let d = run("#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n");
        assert!(d.is_empty());
        let d = run("fn f() { let s = \"Instant::now SystemTime::now\"; }\n");
        assert!(d.is_empty());
    }
}
