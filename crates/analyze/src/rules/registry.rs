//! Rule family 4: kernel-registry consistency.
//!
//! A manifest config is only *actually* on the fast path when four
//! things line up: the committed `generated/<stem>.rs` artifact exists
//! and defines every expected kernel function, `generated/mod.rs`
//! `include!`s it, and the matching registry table
//! (`VOLUME_REGISTRY` / `SURFACE_REGISTRY` / `MOMENT_REGISTRY` /
//! `LBO_REGISTRY`) carries its row. A half-registered config silently
//! falls back to the runtime sparse path — correct but slow, and
//! historically exactly how two committed configs went unnoticed (see
//! ROADMAP, PR 7). This rule makes that state a CI failure, in both
//! directions: manifest entries without artifacts *and* orphan
//! artifacts / includes / registry rows without a manifest entry.
//!
//! In production the expectations come from
//! [`dg_kernels::codegen::MANIFEST`] itself — the checker can never
//! drift from the generator. Golden-fixture tests hand-build
//! [`ManifestEntry`]s against seeded-bad fixture directories.

use crate::report::{Diagnostic, Rule, Severity};
use std::collections::BTreeSet;
use std::path::Path;

/// The per-config expectations, precomputed from a `KernelSpec`.
#[derive(Debug, Clone)]
pub struct ManifestEntry {
    /// Volume stem, e.g. `vlasov_vol_1x1v_p1_ser` (artifact file stem and
    /// registry `name`).
    pub vol: String,
    pub surf: String,
    pub mom: String,
    pub lbo: String,
    pub cdim: usize,
    pub vdim: usize,
}

impl ManifestEntry {
    /// Every function name the four artifacts must define.
    fn expected_fns(&self) -> Vec<(String, String)> {
        let mut fns = Vec::new();
        let ndim = self.cdim + self.vdim;
        // Every Vlasov volume and surface kernel is one lane-generic body
        // behind four entry points: scalar (one lane), the portable `_b4`,
        // and the x86-64 `_b4_avx2` and 8-lane `_b8_avx512` (dispatch
        // selects at run time; a registry row names all of them). The LBO
        // stage kernels below stop at `_b4_avx2`.
        const VLASOV_ENTRY_POINTS: [&str; 4] = ["", "_b4", "_b4_avx2", "_b8_avx512"];
        for entry_point in VLASOV_ENTRY_POINTS {
            fns.push((self.vol.clone(), format!("{}{entry_point}", self.vol)));
        }
        for d in 0..ndim {
            let suffix = if d < self.cdim {
                format!("_x{d}")
            } else {
                format!("_v{}", d - self.cdim)
            };
            for entry_point in VLASOV_ENTRY_POINTS {
                fns.push((
                    self.surf.clone(),
                    format!("{}{suffix}{entry_point}", self.surf),
                ));
            }
        }
        fns.push((self.mom.clone(), format!("{}_m0", self.mom)));
        for j in 0..self.vdim {
            fns.push((self.mom.clone(), format!("{}_m1_v{j}", self.mom)));
        }
        fns.push((self.mom.clone(), format!("{}_m2", self.mom)));
        for stage in [
            "drag_vol",
            "drag_surf",
            "diff_grad",
            "diff_vol",
            "diff_surf",
        ] {
            // One lane-generic body per stage and direction behind three
            // entry points: scalar (one lane), `_b4` and `_b4_avx2`.
            for j in 0..self.vdim {
                for suffix in ["", "_b4", "_b4_avx2"] {
                    fns.push((
                        self.lbo.clone(),
                        format!("{}_{stage}_v{j}{suffix}", self.lbo),
                    ));
                }
            }
        }
        fns
    }

    fn stems(&self) -> [&str; 4] {
        [&self.vol, &self.surf, &self.mom, &self.lbo]
    }
}

/// Build the expectation list from the real codegen manifest.
pub fn manifest_entries() -> Vec<ManifestEntry> {
    dg_kernels::codegen::MANIFEST
        .iter()
        .map(|spec| ManifestEntry {
            vol: spec.fn_name(),
            surf: spec.surf_name(),
            mom: spec.mom_name(),
            lbo: spec.lbo_name(),
            cdim: spec.cdim,
            vdim: spec.vdim,
        })
        .collect()
}

/// The four registry tables, paired with the stem family each indexes.
const TABLES: &[(&str, usize)] = &[
    ("VOLUME_REGISTRY", 0),
    ("SURFACE_REGISTRY", 1),
    ("MOMENT_REGISTRY", 2),
    ("LBO_REGISTRY", 3),
];

/// Check `generated_dir` (normally `crates/kernels/src/generated/`)
/// against `entries`. `rel_dir` prefixes diagnostic paths.
pub fn check_dir(
    entries: &[ManifestEntry],
    generated_dir: &Path,
    rel_dir: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut file_diag = |file: String, line: usize, message: String| {
        diags.push(Diagnostic {
            file,
            line,
            rule: Rule::Registry,
            severity: Severity::Error,
            message,
        });
    };
    let mod_rel = format!("{rel_dir}/mod.rs");
    let mod_src = match std::fs::read_to_string(generated_dir.join("mod.rs")) {
        Ok(s) => s,
        Err(e) => {
            file_diag(mod_rel, 0, format!("cannot read generated mod.rs: {e}"));
            return diags;
        }
    };

    // Per-entry checks: artifact exists, defines every kernel fn, is
    // include!d, and has a row in its registry table.
    let mut expected_stems: BTreeSet<&str> = BTreeSet::new();
    for entry in entries {
        for stem in entry.stems() {
            expected_stems.insert(stem);
            let fname = format!("{stem}.rs");
            let path = generated_dir.join(&fname);
            let rel = format!("{rel_dir}/{fname}");
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(_) => {
                    file_diag(
                        rel,
                        0,
                        format!(
                            "manifest config `{stem}` has no committed artifact (run \
                             `cargo run -p dg-bench --bin gen_kernel`)"
                        ),
                    );
                    continue;
                }
            };
            for (owner, f) in entry.expected_fns() {
                if owner != *stem {
                    continue;
                }
                if !src.contains(&format!("pub fn {f}(")) {
                    file_diag(rel.clone(), 0, format!("artifact is missing `pub fn {f}`"));
                }
            }
            if !mod_src.contains(&format!("include!(\"{fname}\");")) {
                file_diag(
                    mod_rel.clone(),
                    0,
                    format!("mod.rs does not include! the committed artifact `{fname}`"),
                );
            }
        }
        // Registry rows: one `name: "<stem>"` per table.
        for (table, which) in TABLES {
            let stem = entry.stems()[*which];
            let Some(section) = table_section(&mod_src, table) else {
                file_diag(mod_rel.clone(), 0, format!("mod.rs has no `{table}` table"));
                continue;
            };
            let row = format!("name: \"{stem}\",");
            if !section.contains(&row) {
                file_diag(
                    mod_rel.clone(),
                    0,
                    format!("`{table}` has no row for manifest config `{stem}`"),
                );
            }
        }
    }

    // Orphan registry rows: names in a table with no manifest entry.
    for (table, _) in TABLES {
        if let Some(section) = table_section(&mod_src, table) {
            for name in row_names(section) {
                if !expected_stems.contains(name.as_str()) {
                    file_diag(
                        mod_rel.clone(),
                        0,
                        format!("`{table}` row `{name}` has no manifest entry"),
                    );
                }
            }
        }
    }

    // Orphan includes and artifact files.
    for line in mod_src.lines() {
        let t = line.trim();
        if let Some(f) = t
            .strip_prefix("include!(\"")
            .and_then(|r| r.strip_suffix("\");"))
        {
            let stem = f.strip_suffix(".rs").unwrap_or(f);
            if !expected_stems.contains(stem) && stem != "tests" {
                file_diag(
                    mod_rel.clone(),
                    0,
                    format!("mod.rs includes `{f}`, which no manifest entry produces"),
                );
            }
        }
    }
    if let Ok(rd) = std::fs::read_dir(generated_dir) {
        let mut names: Vec<String> = rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        for fname in names {
            let Some(stem) = fname.strip_suffix(".rs") else {
                continue;
            };
            if stem == "mod" || stem == "tests" {
                continue;
            }
            if !expected_stems.contains(stem) {
                file_diag(
                    format!("{rel_dir}/{fname}"),
                    0,
                    format!(
                        "orphan generated artifact `{fname}`: no manifest entry produces it \
                         (stale config removed from MANIFEST?)"
                    ),
                );
            }
        }
    }
    diags
}

/// The text of one `pub static <TABLE>: … = &[ … ];` section.
fn table_section<'a>(mod_src: &'a str, table: &str) -> Option<&'a str> {
    let start = mod_src.find(&format!("static {table}:"))?;
    let open = start + mod_src[start..].find("&[")?;
    let close = open + mod_src[open..].find("];")?;
    Some(&mod_src[open..close])
}

/// The `name: "<stem>"` values of a table section.
fn row_names(section: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = section;
    while let Some(p) = rest.find("name: \"") {
        let after = &rest[p + "name: \"".len()..];
        if let Some(end) = after.find('"') {
            names.push(after[..end].to_string());
            rest = &after[end..];
        } else {
            break;
        }
    }
    names
}
