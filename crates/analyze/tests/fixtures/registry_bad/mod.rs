// Seeded-bad generated-module fixture. Against the golden ManifestEntry
// (demo 1x1v config) this directory is wrong in five ways (its artifacts
// add three more: demo_surf lacks one direction's batched entry points
// and the other direction's `_b8_avx512` alone, demo_lbo the batched entry
// points of its diff_surf stage):
//   1. demo_mom_1x1v_p1.rs is not committed at all;
//   2. demo_surf_1x1v_p1.rs is committed but never include!d here;
//   3. SURFACE_REGISTRY has no row for demo_surf_1x1v_p1;
//   4. VOLUME_REGISTRY has an orphan row `stale_vol_2x2v_p9`;
//   5. stale_artifact.rs is committed but no manifest entry produces it.

include!("demo_vol_1x1v_p1.rs");
include!("demo_lbo_1x1v_p1.rs");

pub static VOLUME_REGISTRY: &[Row] = &[
    Row {
        name: "demo_vol_1x1v_p1",
    },
    Row {
        name: "stale_vol_2x2v_p9",
    },
];

pub static SURFACE_REGISTRY: &[Row] = &[];

pub static MOMENT_REGISTRY: &[Row] = &[
    Row {
        name: "demo_mom_1x1v_p1",
    },
];

pub static LBO_REGISTRY: &[Row] = &[
    Row {
        name: "demo_lbo_1x1v_p1",
    },
];
