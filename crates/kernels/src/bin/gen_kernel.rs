//! Regenerates every committed generated-kernel artifact.
//!
//! `cargo run -p dg-kernels --bin gen_kernel` rewrites, for each entry of
//! `dg_kernels::codegen::MANIFEST`, the unrolled volume, surface, moment,
//! and LBO kernels under `crates/kernels/src/generated/` plus the registry
//! module `mod.rs`, and removes any artifact the manifest no longer
//! produces. That closes the Gkeyll-style committed-codegen loop: the unit
//! test `generated::tests::committed_artifacts_match_generator`
//! byte-compares every artifact against the generator, and CI regenerates
//! and requires a clean tree, so generator drift cannot land unnoticed.
//! To read one kernel, run the `kernel_inspect` example instead.

use dg_kernels::codegen::{
    generated_mod_source, manifest_kernel_source, manifest_lbo_source, manifest_moment_source,
    manifest_surface_source, MANIFEST,
};
use std::path::PathBuf;

fn artifacts() -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = MANIFEST
        .iter()
        .map(|spec| (spec.file_name(), manifest_kernel_source(spec)))
        .collect();
    v.extend(
        MANIFEST
            .iter()
            .map(|spec| (spec.surf_file_name(), manifest_surface_source(spec))),
    );
    v.extend(
        MANIFEST
            .iter()
            .map(|spec| (spec.mom_file_name(), manifest_moment_source(spec))),
    );
    v.extend(
        MANIFEST
            .iter()
            .map(|spec| (spec.lbo_file_name(), manifest_lbo_source(spec))),
    );
    v.push(("mod.rs".to_string(), generated_mod_source()));
    v
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("gen_kernel: takes no arguments, got {arg}");
        std::process::exit(2);
    }
    let generated = artifacts();

    // Resolve the destination at runtime so a cached binary run from a
    // moved/copied checkout still writes into the invoking workspace; the
    // compile-time path is only the non-cargo-run fallback.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dest_dir = PathBuf::from(&manifest_dir).join("src/generated");

    // Anything under generated/ that the manifest no longer produces is a
    // stale artifact (a removed or renamed configuration) and is deleted.
    // `tests.rs` is the one handwritten file.
    let expected: Vec<&str> = generated
        .iter()
        .map(|(name, _)| name.as_str())
        .chain(["tests.rs"])
        .collect();
    let stale: Vec<PathBuf> = std::fs::read_dir(&dest_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.extension().is_some_and(|x| x == "rs")
                        && p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| !expected.contains(&n))
                })
                .collect()
        })
        .unwrap_or_default();

    for (name, src) in &generated {
        let dest = dest_dir.join(name);
        let unchanged = std::fs::read_to_string(&dest).is_ok_and(|old| &old == src);
        if unchanged {
            eprintln!("unchanged   {} ({} bytes)", dest.display(), src.len());
        } else {
            std::fs::write(&dest, src)
                .unwrap_or_else(|e| panic!("failed to write {}: {e}", dest.display()));
            eprintln!("regenerated {} ({} bytes)", dest.display(), src.len());
        }
    }
    for p in &stale {
        std::fs::remove_file(p)
            .unwrap_or_else(|e| panic!("failed to remove stale {}: {e}", p.display()));
        eprintln!("removed     {} (no longer in the manifest)", p.display());
    }
}
