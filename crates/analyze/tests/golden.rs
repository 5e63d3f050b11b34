//! Golden-fixture tests: each rule family must fire on its seeded-bad
//! fixture with the expected diagnostics, waivers must silence a waived
//! fixture completely, and the committed workspace itself must scan
//! clean (the same gate CI runs via `dg-analyze --deny-warnings`).

use dg_analyze::rules::registry::{self, ManifestEntry};
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
fn registry_fires_on_seeded_fixture_dir() {
    let entries = vec![ManifestEntry {
        vol: "demo_vol_1x1v_p1".into(),
        surf: "demo_surf_1x1v_p1".into(),
        mom: "demo_mom_1x1v_p1".into(),
        lbo: "demo_lbo_1x1v_p1".into(),
        cdim: 1,
        vdim: 1,
    }];
    let dir = fixture_dir().join("registry_bad");
    let diags = registry::check_dir(&entries, &dir, "registry_bad");
    assert!(diags.iter().all(|d| d.rule == Rule::Registry), "{diags:?}");

    let expect = [
        // 1. missing artifact for the moment stem
        ("registry_bad/demo_mom_1x1v_p1.rs", "no committed artifact"),
        // 2. committed surf artifact never include!d
        ("registry_bad/mod.rs", "demo_surf_1x1v_p1.rs"),
        // 3. surf registry row missing
        ("registry_bad/mod.rs", "`SURFACE_REGISTRY` has no row"),
        // 4. orphan registry row
        ("registry_bad/mod.rs", "stale_vol_2x2v_p9"),
        // 5. orphan artifact on disk
        (
            "registry_bad/stale_artifact.rs",
            "orphan generated artifact",
        ),
        // 6. surf artifact exists but lacks every batched entry point of
        //    one direction (the portable one and both ISA twins) ...
        (
            "registry_bad/demo_surf_1x1v_p1.rs",
            "`pub fn demo_surf_1x1v_p1_v0_b4`",
        ),
        (
            "registry_bad/demo_surf_1x1v_p1.rs",
            "`pub fn demo_surf_1x1v_p1_v0_b4_avx2`",
        ),
        (
            "registry_bad/demo_surf_1x1v_p1.rs",
            "`pub fn demo_surf_1x1v_p1_v0_b8_avx512`",
        ),
        //    ... and exactly one entry point of the other
        (
            "registry_bad/demo_surf_1x1v_p1.rs",
            "`pub fn demo_surf_1x1v_p1_x0_b8_avx512`",
        ),
        // 7. lbo artifact exists but one stage has only its scalar
        //    (one-lane) entry point
        (
            "registry_bad/demo_lbo_1x1v_p1.rs",
            "`pub fn demo_lbo_1x1v_p1_diff_surf_v0_b4`",
        ),
        (
            "registry_bad/demo_lbo_1x1v_p1.rs",
            "`pub fn demo_lbo_1x1v_p1_diff_surf_v0_b4_avx2`",
        ),
    ];
    for (file, frag) in expect {
        assert!(
            diags
                .iter()
                .any(|d| d.file == file && d.message.contains(frag)),
            "missing diagnostic for {file} containing `{frag}`: {diags:?}"
        );
    }
    // Entry points the fixture does define must not be reported.
    for present in [
        "demo_vol_1x1v_p1_b4_avx2",
        "demo_vol_1x1v_p1_b8_avx512",
        "demo_surf_1x1v_p1_x0_b4_avx2",
        "demo_lbo_1x1v_p1_drag_vol_v0_b4",
        "demo_lbo_1x1v_p1_diff_vol_v0_b4_avx2",
        "`pub fn demo_lbo_1x1v_p1_diff_surf_v0`",
    ] {
        assert!(
            !diags.iter().any(|d| d.message.contains(present)),
            "`{present}` is defined but was reported: {diags:?}"
        );
    }
}

#[test]
fn registry_is_not_waivable() {
    assert!(!Rule::waivable("registry"));
    assert!(!Rule::waivable("waiver"));
    assert!(Rule::waivable("hot_alloc"));
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
