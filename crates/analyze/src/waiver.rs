//! Inline waiver syntax:
//! `// dg-analyze: allow(<rule>[, <rule>…]) — <reason>`.
//!
//! A waiver on the same line as the flagged code suppresses that line.
//! A waiver on its own comment line suppresses the next code line — or,
//! when that line starts a `fn` item, the whole function body, so one
//! annotation covers a cold constructor inside a hot file without
//! peppering every allocation. A reason (after `—`, `-` or `:`) is
//! mandatory: un-justified waivers are themselves diagnostics.

use crate::report::{Diagnostic, Rule, Severity};
use crate::scan::{find_char_from, has_word, match_brace, Line, SourceFile};

/// Per-file suppression table: `covered[rule_id]` holds a line mask.
#[derive(Debug, Default)]
pub struct Suppressions {
    covered: std::collections::BTreeMap<String, Vec<bool>>,
}

impl Suppressions {
    pub fn is_suppressed(&self, rule: Rule, line: usize) -> bool {
        self.covered
            .get(rule.id())
            .is_some_and(|mask| line >= 1 && mask.get(line - 1).copied().unwrap_or(false))
    }
}

const MARKER: &str = "dg-analyze:";

/// Parse every waiver comment in `file`, returning the suppression table
/// and any waiver-hygiene diagnostics (missing reason, unknown or
/// non-waivable rule name, malformed syntax).
pub fn collect(file: &SourceFile) -> (Suppressions, Vec<Diagnostic>) {
    let mut sup = Suppressions::default();
    let mut diags = Vec::new();
    let nlines = file.lines.len();
    for (li, line) in file.lines.iter().enumerate() {
        // Doc comments never carry waivers: prose *about* the waiver
        // syntax (like this crate's own docs) must not waive anything.
        let trimmed = line.comment.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") || trimmed.starts_with("/**") {
            continue;
        }
        let Some(pos) = line.comment.find(MARKER) else {
            continue;
        };
        let rest = line.comment[pos + MARKER.len()..].trim_start();
        let bad = |msg: &str, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: li + 1,
                rule: Rule::Waiver,
                severity: Severity::Error,
                message: msg.to_string(),
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            bad(
                "malformed waiver: expected `dg-analyze: allow(<rule>) — <reason>`",
                &mut diags,
            );
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("malformed waiver: unclosed `allow(`", &mut diags);
            continue;
        };
        let rules: Vec<&str> = args[..close].split(',').map(str::trim).collect();
        if rules.iter().any(|r| r.is_empty()) || rules.is_empty() {
            bad("malformed waiver: empty rule list", &mut diags);
            continue;
        }
        let mut ok = true;
        for r in &rules {
            if !Rule::waivable(r) {
                bad(
                    &format!("waiver names unknown or non-waivable rule `{r}`"),
                    &mut diags,
                );
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        let reason = args[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '-', ':', ' '])
            .trim();
        if reason.is_empty() {
            bad(
                "waiver needs a reason: `dg-analyze: allow(<rule>) — <reason>`",
                &mut diags,
            );
            continue;
        }

        // Coverage: trailing waiver → this line; standalone comment line
        // → next code line, extended to the whole body when it opens `fn`.
        let range = if !line.is_code_blank() {
            li..li + 1
        } else {
            let mut j = li + 1;
            while j < nlines && file.lines[j].is_code_blank() {
                j += 1;
            }
            if j >= nlines {
                bad("waiver at end of file covers nothing", &mut diags);
                continue;
            }
            fn_body_range(&file.lines, j).unwrap_or(j..j + 1)
        };
        for r in rules {
            let mask = sup
                .covered
                .entry(r.to_string())
                .or_insert_with(|| vec![false; nlines]);
            for m in &mut mask[range.clone()] {
                *m = true;
            }
        }
    }
    (sup, diags)
}

/// When line `j` begins a `fn` item, the line range of its whole body
/// (signature through closing brace).
fn fn_body_range(lines: &[Line], j: usize) -> Option<std::ops::Range<usize>> {
    if !has_word(&lines[j].code, "fn") {
        return None;
    }
    let (bl, bc) = find_char_from(lines, j, 0, '{')?;
    // A `;` before the opening brace means this was a bodiless signature
    // (trait method) and the `{` belongs to something else — unless it
    // sits inside brackets, where it is an array type (`[f64; 3]`).
    let mut depth = 0usize;
    for (li, l) in lines.iter().enumerate().take(bl + 1).skip(j) {
        let upto = if li == bl { bc } else { l.code.len() };
        for c in l.code[..upto].chars() {
            match c {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                ';' if depth == 0 => return None,
                _ => {}
            }
        }
    }
    let end = match_brace(lines, bl, bc)?;
    Some(j..end + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_lines, test_mask};

    fn file(src: &str) -> SourceFile {
        let lines = scan_lines(src);
        let in_test = test_mask(&lines);
        SourceFile {
            rel_path: "x.rs".into(),
            lines,
            in_test,
        }
    }

    #[test]
    fn trailing_waiver_covers_its_line_only() {
        let f = file("let a = vec![0]; // dg-analyze: allow(hot_alloc) — setup\nlet b = 1;\n");
        let (sup, diags) = collect(&f);
        assert!(diags.is_empty());
        assert!(sup.is_suppressed(Rule::HotAlloc, 1));
        assert!(!sup.is_suppressed(Rule::HotAlloc, 2));
        assert!(!sup.is_suppressed(Rule::Determinism, 1));
    }

    #[test]
    fn standalone_waiver_covers_following_fn_body() {
        let src = "\
// dg-analyze: allow(hot_alloc) — construction-time only
fn build() -> Vec<f64> {
    vec![0.0; 8]
}
fn hot() {}
";
        let f = file(src);
        let (sup, diags) = collect(&f);
        assert!(diags.is_empty());
        for l in 2..=4 {
            assert!(sup.is_suppressed(Rule::HotAlloc, l), "line {l}");
        }
        assert!(!sup.is_suppressed(Rule::HotAlloc, 5));
    }

    #[test]
    fn array_type_in_a_signature_does_not_end_the_fn() {
        // The `;` of `[f64; 3]` is not a bodiless signature's terminator;
        // a trait method's is.
        let src = "\
// dg-analyze: allow(hot_alloc) — table constructor
fn table(n: usize) -> Vec<[f64; 3]> {
    vec![[0.0; 3]; n]
}
// dg-analyze: allow(hot_alloc) — covers one line only
fn declared(&self) -> Vec<f64>;
fn other() { let v = vec![1]; }
";
        let f = file(src);
        let (sup, diags) = collect(&f);
        assert!(diags.is_empty());
        for l in 2..=4 {
            assert!(sup.is_suppressed(Rule::HotAlloc, l), "line {l}");
        }
        assert!(sup.is_suppressed(Rule::HotAlloc, 6));
        assert!(!sup.is_suppressed(Rule::HotAlloc, 7));
    }

    #[test]
    fn reason_is_mandatory_and_rules_validated() {
        let f = file("// dg-analyze: allow(hot_alloc)\nlet a = 1;\n");
        let (_, diags) = collect(&f);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("reason"));

        let f = file("// dg-analyze: allow(waiver) — nope\nlet a = 1;\n");
        let (_, diags) = collect(&f);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("non-waivable"));
    }
}
