//! Golden-fixture tests: each rule family must fire on its seeded-bad
//! fixture with the expected diagnostics, waivers must silence a waived
//! fixture completely, and the committed workspace itself must scan
//! clean (the same gate CI runs via `dg-analyze --deny-warnings`).

use dg_analyze::{analyze_file, scan_source, Diagnostic, Rule, Severity};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Analyze a fixture under an arbitrary pretend path (hot-path rules key
/// off the relative path, so fixtures can opt in or out of the hot set).
fn analyze_fixture(name: &str, pretend_path: &str) -> (String, Vec<Diagnostic>) {
    let text = std::fs::read_to_string(fixture_dir().join(name)).expect("fixture");
    let file = scan_source(pretend_path, &text);
    (text, analyze_file(&file))
}

/// 1-indexed line of the first line containing `needle`.
fn line_of(text: &str, needle: &str) -> usize {
    text.lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("fixture lost its `{needle}` marker"))
        + 1
}

#[test]
fn unsafe_audit_fires_on_seeded_fixture() {
    let (text, diags) = analyze_fixture("bad_unsafe.rs", "crates/demo/src/lib.rs");
    assert!(
        diags.iter().all(|d| d.rule == Rule::UnsafeAudit),
        "{diags:?}"
    );

    let expect = [
        (line_of(&text, "unsafe impl Send for Wrapper"), "impl"),
        (line_of(&text, "unsafe { *p }"), "block"),
        (
            line_of(&text, "pub unsafe fn exposed_undocumented"),
            "`// SAFETY:` comment",
        ),
        (
            line_of(&text, "pub unsafe fn exposed_undocumented"),
            "# Safety",
        ),
        (
            line_of(&text, "pub unsafe fn exposed_half_documented"),
            "# Safety",
        ),
        // A doc comment without `# Safety` discharges neither obligation.
        (
            line_of(&text, "pub unsafe fn exposed_half_documented"),
            "`// SAFETY:` comment",
        ),
    ];
    assert_eq!(diags.len(), expect.len(), "{diags:?}");
    for (line, frag) in expect {
        assert!(
            diags
                .iter()
                .any(|d| d.line == line && d.message.contains(frag)),
            "missing diagnostic at line {line} containing `{frag}`: {diags:?}"
        );
    }
}

#[test]
fn hot_alloc_fires_on_seeded_fixture_inside_hot_set_only() {
    // Analyzed under a hot-path name: the three un-waived allocations in
    // `rhs_step` fire (two errors and the `.clone()` warning); the waived
    // constructor, strings, and `#[cfg(test)]` module stay silent.
    let (text, diags) = analyze_fixture("bad_hot_alloc.rs", "crates/core/src/vlasov.rs");
    assert!(diags.iter().all(|d| d.rule == Rule::HotAlloc), "{diags:?}");
    let expect = [
        (line_of(&text, "vec![0.0; out.len()]"), Severity::Error),
        (line_of(&text, ".collect()"), Severity::Error),
        (line_of(&text, "op.coeff.clone()"), Severity::Warning),
    ];
    assert_eq!(diags.len(), expect.len(), "{diags:?}");
    for (line, sev) in expect {
        assert!(
            diags.iter().any(|d| d.line == line && d.severity == sev),
            "missing {sev:?} at line {line}: {diags:?}"
        );
    }

    // The same fixture outside the hot-path set produces nothing.
    let (_, cold) = analyze_fixture("bad_hot_alloc.rs", "crates/demo/src/cold.rs");
    assert!(cold.is_empty(), "{cold:?}");
}

#[test]
fn telemetry_span_fires_on_seeded_fixture_inside_hot_set_only() {
    let (text, diags) = analyze_fixture("bad_telemetry_span.rs", "crates/core/src/vlasov.rs");
    assert!(
        diags.iter().all(|d| d.rule == Rule::TelemetrySpan),
        "{diags:?}"
    );
    let expect = [
        line_of(&text, "let t0 = Instant::now();"),
        line_of(&text, "let dt = t0.elapsed();"),
        line_of(&text, "let wall = SystemTime::now();"),
    ];
    assert_eq!(diags.len(), expect.len(), "{diags:?}");
    for line in expect {
        assert!(
            diags
                .iter()
                .any(|d| d.line == line && d.severity == Severity::Error),
            "missing diagnostic at line {line}: {diags:?}"
        );
    }

    // The same fixture outside the hot-path set produces nothing.
    let (_, cold) = analyze_fixture("bad_telemetry_span.rs", "crates/demo/src/cold.rs");
    assert!(cold.is_empty(), "{cold:?}");
}

#[test]
fn determinism_fires_on_seeded_fixture() {
    let (text, diags) = analyze_fixture("bad_determinism.rs", "crates/demo/src/lib.rs");
    assert!(
        diags.iter().all(|d| d.rule == Rule::Determinism),
        "{diags:?}"
    );
    let expect = [
        line_of(&text, "for (_k, v) in cache.entries.iter()"),
        line_of(&text, "*total += xs[ctx.index()]"),
    ];
    assert_eq!(diags.len(), expect.len(), "{diags:?}");
    for line in expect {
        assert!(
            diags.iter().any(|d| d.line == line),
            "missing diagnostic at line {line}: {diags:?}"
        );
    }
}

#[test]
fn waived_fixture_is_completely_silent() {
    let (_, diags) = analyze_fixture("clean_waived.rs", "crates/core/src/blocks.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn committed_workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    assert!(dg_analyze::looks_like_workspace_root(&root));
    let report = dg_analyze::analyze_root(&root).expect("scan");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let msgs: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "committed tree must be clean:\n{}",
        msgs.join("\n")
    );
}
