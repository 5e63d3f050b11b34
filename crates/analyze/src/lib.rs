//! `dg-analyze` — the workspace invariant linter.
//!
//! The repository's three load-bearing invariants — bit-identical
//! results at every thread/rank count, zero-allocation RHS hot paths,
//! and an audited `unsafe` concurrency layer — are enforced dynamically
//! by `tests/alloc_free.rs` / `tests/decomposition/mod.rs` on the configs
//! those tests happen to run. This crate enforces them *statically*, on
//! every source file, in CI:
//!
//! 1. [`rules::unsafe_audit`] — `// SAFETY:` comments and `# Safety`
//!    doc sections on every `unsafe` block/fn/impl.
//! 2. [`rules::hot_alloc`] — no allocating constructs inside the
//!    hot-path file set (waivers for cold code).
//! 3. [`rules::determinism`] — no hash-order iteration, no
//!    worker-closure accumulation outside the blessed block-ordered
//!    reduction.
//! 4. [`rules::telemetry_span`] — no raw clock reads inside the
//!    hot-path set: timing goes through the non-allocating
//!    `span!`/`now_ns()` telemetry API so collection stays disableable.
//!
//! See DESIGN.md "Static analysis & invariants" for the rule catalog
//! and the waiver syntax. The binary (`cargo run -p dg-analyze --
//! --deny-warnings --json target/analyze.json`) exits nonzero on any
//! error (or warning under `--deny-warnings`) and writes a
//! machine-readable report.

pub mod report;
pub mod rules;
pub mod scan;
pub mod waiver;

use report::Report;
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Directories scanned below the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "shims", "src", "tests"];

/// Path fragments never scanned: build output and the analyzer's own
/// seeded-bad golden fixtures.
const SKIP_FRAGMENTS: &[&str] = &["/target/", "/tests/fixtures/"];

/// Scan one source text into the per-line model rules consume.
pub fn scan_source(rel_path: &str, text: &str) -> SourceFile {
    let lines = scan::scan_lines(text);
    let in_test = scan::test_mask(&lines);
    SourceFile {
        rel_path: rel_path.to_string(),
        lines,
        in_test,
    }
}

/// Run the four per-file rule families plus waiver hygiene on one file.
pub fn analyze_file(file: &SourceFile) -> Vec<report::Diagnostic> {
    let (sup, mut diags) = waiver::collect(file);
    for d in rules::unsafe_audit::check(file)
        .into_iter()
        .chain(rules::hot_alloc::check(file))
        .chain(rules::determinism::check(file))
        .chain(rules::telemetry_span::check(file))
    {
        if !sup.is_suppressed(d.rule, d.line) {
            diags.push(d);
        }
    }
    diags
}

/// Analyze the workspace rooted at `root`: every `.rs` file under the
/// scan dirs, plus every kernel file `dg-kernels` generates at build time
/// (under its would-be path `crates/kernels/src/generated/<name>`, which
/// puts it in the hot-path set).
pub fn analyze_root(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    for path in &files {
        let rel = rel_path(root, path);
        if SKIP_FRAGMENTS.iter().any(|f| format!("/{rel}").contains(f)) {
            continue;
        }
        let text = std::fs::read_to_string(path)?;
        let file = scan_source(&rel, &text);
        report.diagnostics.extend(analyze_file(&file));
        report.files_scanned += 1;
    }
    for (name, text) in dg_tables::codegen::artifacts() {
        let file = scan_source(&format!("crates/kernels/src/generated/{name}"), &text);
        report.diagnostics.extend(analyze_file(&file));
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

/// Does `root` look like the workspace this linter is written for?
pub fn looks_like_workspace_root(root: &Path) -> bool {
    root.join("Cargo.toml").is_file() && root.join("crates").is_dir()
}

/// Locate the workspace root: `start` or the nearest ancestor with a
/// `Cargo.toml` + `crates/` pair.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if looks_like_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// True when `report` should fail the build.
pub fn failed(report: &Report, deny_warnings: bool) -> bool {
    report.errors() > 0 || (deny_warnings && report.warnings() > 0)
}

// Re-exported so the fixture tests can name the rule ids.
pub use report::{Diagnostic, Rule, Severity};
