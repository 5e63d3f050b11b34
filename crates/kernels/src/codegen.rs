//! Rust source generation of fully unrolled kernels — the Fig. 1 artifact.
//!
//! Gkeyll's kernels are C++ functions emitted by Maxima scripts: every loop
//! unrolled, every coefficient a double-precision literal, no matrices and
//! no quadrature. This module regenerates that artifact in Rust from the
//! same sparse-tensor data the runtime kernels use, so the two paths are
//! provably the same arithmetic. The generated text is what
//! `examples/kernel_inspect.rs` and the Fig. 1 bench print.

use crate::phase::{PhaseKernels, PhaseLayout};
use dg_basis::BasisKind;
use std::fmt::Write;

/// One configuration in the committed-kernel manifest.
#[derive(Clone, Copy, Debug)]
pub struct KernelSpec {
    pub kind: BasisKind,
    pub cdim: usize,
    pub vdim: usize,
    pub poly_order: usize,
}

impl KernelSpec {
    pub const fn new(kind: BasisKind, cdim: usize, vdim: usize, poly_order: usize) -> Self {
        KernelSpec {
            kind,
            cdim,
            vdim,
            poly_order,
        }
    }

    pub fn layout(&self) -> PhaseLayout {
        PhaseLayout::new(self.cdim, self.vdim)
    }

    /// Short family tag used in generated names (Gkeyll's convention).
    pub fn kind_tag(&self) -> &'static str {
        match self.kind {
            BasisKind::MaximalOrder => "max",
            BasisKind::Serendipity => "ser",
            BasisKind::Tensor => "tensor",
        }
    }

    /// Name of the generated function (and its source-file stem).
    pub fn fn_name(&self) -> String {
        format!(
            "vlasov_vol_{}x{}v_p{}_{}",
            self.cdim,
            self.vdim,
            self.poly_order,
            self.kind_tag()
        )
    }

    /// File name of the committed artifact under `src/generated/`.
    pub fn file_name(&self) -> String {
        format!("{}.rs", self.fn_name())
    }

    /// Stem of the generated surface-kernel family (registry `name` and
    /// source-file stem; per-direction functions append a suffix).
    pub fn surf_name(&self) -> String {
        format!(
            "vlasov_surf_{}x{}v_p{}_{}",
            self.cdim,
            self.vdim,
            self.poly_order,
            self.kind_tag()
        )
    }

    /// Name of the generated surface kernel for one phase direction
    /// (Gkeyll's `surfx`/`surfvx` split: `_x<d>` for configuration
    /// directions, `_v<j>` for velocity directions).
    pub fn surf_fn_name(&self, dir: usize) -> String {
        if dir < self.cdim {
            format!("{}_x{dir}", self.surf_name())
        } else {
            format!("{}_v{}", self.surf_name(), dir - self.cdim)
        }
    }

    /// File name of the committed surface artifact under `src/generated/`.
    pub fn surf_file_name(&self) -> String {
        format!("{}.rs", self.surf_name())
    }

    /// Stem of the generated moment-kernel family (registry `name` and
    /// source-file stem; the M0/M1/M2 functions append suffixes).
    pub fn mom_name(&self) -> String {
        format!(
            "vlasov_mom_{}x{}v_p{}_{}",
            self.cdim,
            self.vdim,
            self.poly_order,
            self.kind_tag()
        )
    }

    /// File name of the committed moment artifact under `src/generated/`.
    pub fn mom_file_name(&self) -> String {
        format!("{}.rs", self.mom_name())
    }

    /// Stem of the generated LBO-kernel family (registry `name` and
    /// source-file stem; the drag/diffusion stage functions append
    /// `_drag_vol_v<j>` / `_drag_surf_v<j>` / `_diff_grad_v<j>` /
    /// `_diff_vol_v<j>` / `_diff_surf_v<j>` suffixes).
    pub fn lbo_name(&self) -> String {
        format!(
            "lbo_{}x{}v_p{}_{}",
            self.cdim,
            self.vdim,
            self.poly_order,
            self.kind_tag()
        )
    }

    /// File name of the committed LBO artifact under `src/generated/`.
    pub fn lbo_file_name(&self) -> String {
        format!("{}.rs", self.lbo_name())
    }

    /// The `BasisKind` variant path for emission into generated source.
    fn kind_variant(&self) -> &'static str {
        match self.kind {
            BasisKind::MaximalOrder => "MaximalOrder",
            BasisKind::Serendipity => "Serendipity",
            BasisKind::Tensor => "Tensor",
        }
    }
}

/// The set of committed kernel configurations. Each entry produces one
/// `src/generated/<fn_name>.rs` artifact plus a registry row in the
/// generated `src/generated/mod.rs`; `cargo run -p dg-bench --bin
/// gen_kernel` regenerates all of them in place (`--check` verifies).
///
/// Coverage: the paper's Fig. 1 configuration (1X2V p=1 tensor), both
/// Landau-damping workhorses (1X1V p=1/p=2 Serendipity), the higher-order
/// 1X2V p=2 Serendipity, the Weibel 2X2V p=1 Serendipity case, the §III
/// Eop configuration (2X3V p=2 Serendipity, Np = 112), its p=1 companion,
/// and the Fig. 3 marquee workload (3X3V p=1 Serendipity, Np = 64).
/// 3X3V p=2 (Np = 256) is deliberately left to the runtime path: its
/// unrolled artifacts would dominate crate compile time for a
/// configuration no committed example or bench runs.
pub const MANIFEST: &[KernelSpec] = &[
    KernelSpec::new(BasisKind::Serendipity, 1, 1, 1),
    KernelSpec::new(BasisKind::Serendipity, 1, 1, 2),
    KernelSpec::new(BasisKind::Tensor, 1, 2, 1),
    KernelSpec::new(BasisKind::Serendipity, 1, 2, 1),
    KernelSpec::new(BasisKind::Serendipity, 1, 2, 2),
    KernelSpec::new(BasisKind::Serendipity, 2, 2, 1),
    KernelSpec::new(BasisKind::Serendipity, 2, 2, 2),
    KernelSpec::new(BasisKind::Serendipity, 2, 3, 1),
    KernelSpec::new(BasisKind::Serendipity, 2, 3, 2),
    KernelSpec::new(BasisKind::Serendipity, 3, 3, 1),
];

/// Emit the volume-kernel source for one manifest entry: one lane-generic
/// body behind its scalar and batched entry points (one artifact file, one
/// registry row).
pub fn manifest_kernel_source(spec: &KernelSpec) -> String {
    let pk = crate::cache::kernels_for(spec.kind, spec.layout(), spec.poly_order);
    volume_kernel_source(&pk, &spec.fn_name())
}

/// Emit the surface-kernel source (all phase directions) for one manifest
/// entry.
pub fn manifest_surface_source(spec: &KernelSpec) -> String {
    let pk = crate::cache::kernels_for(spec.kind, spec.layout(), spec.poly_order);
    surface_kernel_source(&pk, spec)
}

/// Emit the moment-kernel source (M0 / M1_j / M2) for one manifest entry.
pub fn manifest_moment_source(spec: &KernelSpec) -> String {
    let pk = crate::cache::kernels_for(spec.kind, spec.layout(), spec.poly_order);
    moment_kernel_source(&pk, spec)
}

/// Emit the LBO drag/diffusion kernel source (all velocity directions,
/// all five stage functions) for one manifest entry.
pub fn manifest_lbo_source(spec: &KernelSpec) -> String {
    let pk = crate::cache::kernels_for(spec.kind, spec.layout(), spec.poly_order);
    lbo_kernel_source(&pk, spec)
}

/// Everything the LBO emitter (and the equivalence tests) need for one
/// velocity direction: the sparse tensors and embeddings built exactly as
/// `dg_core::lbo::LboOp::new` builds them, so the generated kernels and
/// the runtime weak-op path are provably the same arithmetic.
pub struct LboDirTables {
    /// Drag volume tensor (`m` support: conf ⊗ {1, ξ_j}).
    pub drag_vol: crate::triple::SparseTriple,
    /// Diffusion volume tensor (`m` support: conf only).
    pub diff_vol: crate::triple::SparseTriple,
    /// Phase gradient-mass `∫ ∂_dir w_l w_m` entries (LDG gradient pass).
    pub grad_mass: Vec<(u16, u16, f64)>,
    /// conf mode → phase mode with zero velocity exponents.
    pub emb_phase: Vec<u16>,
    /// conf mode → face mode on the velocity face normal to `dir`.
    pub emb_face: Vec<u16>,
    /// Index and coefficient of the pure-ξ_j linear phase mode.
    pub lin_idx: usize,
    pub c1p: f64,
    /// Constant-mode coefficients of the phase and face bases.
    pub c0p: f64,
    pub c0f: f64,
    /// Weights of the conf→phase / conf→face constant-velocity embeddings.
    pub w_phase: f64,
    pub w_face: f64,
}

/// Build [`LboDirTables`] for velocity direction `j` of a kernel set.
pub fn lbo_dir_tables(pk: &PhaseKernels, j: usize) -> LboDirTables {
    use crate::triple::{build_triple, DimTable, TripleSpec};
    let (cdim, vdim) = (pk.layout.cdim, pk.layout.vdim);
    let p = pk.phase_basis.poly_order();
    let phase = &pk.phase_basis;
    let conf = &pk.conf_basis;
    let dir = cdim + j;
    assert!(j < vdim);

    let dim_tables: Vec<DimTable> = (0..phase.ndim())
        .map(|d| {
            if d == dir {
                DimTable::Grad
            } else {
                DimTable::Mass
            }
        })
        .collect();
    // Drag: α = −ν(v_j − u_j(x)) → conf modes plus the ξ_j mode.
    let mut caps = [0u8; dg_poly::MAX_DIM];
    for c in caps.iter_mut().take(cdim) {
        *c = p as u8;
    }
    caps[dir] = 1;
    let spec = TripleSpec {
        basis_l: phase,
        basis_m: phase,
        basis_n: phase,
        dim_tables: &dim_tables,
        m_caps: Some(&caps),
        m_filter: None,
    };
    let drag_vol = build_triple(&spec, &pk.tables);
    // Diffusion: vth²(x) → conf modes only.
    caps[dir] = 0;
    let spec = TripleSpec {
        basis_l: phase,
        basis_m: phase,
        basis_n: phase,
        dim_tables: &dim_tables,
        m_caps: Some(&caps),
        m_filter: None,
    };
    let diff_vol = build_triple(&spec, &pk.tables);

    // Phase gradient-mass `∫ ∂_dir w_l w_m` — the per-dimension product of
    // 1D `grad_mass`/`mass` tables (mirrors `dg_core::lbo::PhaseGradMass`).
    let t = dg_poly::tables::Tables1d::new(p);
    let mut grad_mass = Vec::new();
    for l in 0..phase.len() {
        for m in 0..phase.len() {
            let (el, em) = (phase.exps(l), phase.exps(m));
            let mut v = 1.0;
            for d in 0..phase.ndim() {
                v *= if d == dir {
                    t.grad_mass(el[d] as usize, em[d] as usize)
                } else if el[d] == em[d] {
                    1.0
                } else {
                    0.0
                };
                if v == 0.0 {
                    break;
                }
            }
            if v != 0.0 {
                grad_mass.push((l as u16, m as u16, v));
            }
        }
    }

    // conf → phase / conf → velocity-face embeddings.
    let fb = &pk.surfaces[dir].kernel.face.basis;
    let mut emb_phase = Vec::with_capacity(conf.len());
    let mut emb_face = Vec::with_capacity(conf.len());
    for l in 0..conf.len() {
        let mut pe = [0u8; dg_poly::MAX_DIM];
        pe[..cdim].copy_from_slice(&conf.exps(l)[..cdim]);
        emb_phase.push(phase.find(&pe).expect("conf embeds in phase") as u16);
        emb_face.push(fb.find(&pe).expect("conf embeds in velocity face") as u16);
    }

    let (lin_idx, c1p) = dg_basis::expand::linear_coeff(phase, dir).expect("p ≥ 1");
    LboDirTables {
        drag_vol,
        diff_vol,
        grad_mass,
        emb_phase,
        emb_face,
        lin_idx,
        c1p,
        c0p: dg_basis::expand::const_coeff(phase),
        c0f: dg_basis::expand::const_coeff(fb),
        w_phase: (2.0f64).powi(vdim as i32).sqrt(),
        w_face: (2.0f64).powi(vdim as i32 - 1).sqrt(),
    }
}

/// Emit the full `src/generated/mod.rs`: the `include!` lines for every
/// manifest artifact plus the static dispatch registry table. The module
/// is itself a committed generated artifact, so adding a manifest entry
/// and rerunning the generator is the *whole* procedure for registering a
/// new kernel.
pub fn generated_mod_source() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "//! Committed auto-generated kernels and their dispatch registry."
    );
    let _ = writeln!(s, "//!");
    let _ = writeln!(
        s,
        "//! Generated by `cargo run -p dg-bench --bin gen_kernel` from"
    );
    let _ = writeln!(
        s,
        "//! [`crate::codegen::MANIFEST`] — do not edit by hand. Gkeyll commits"
    );
    let _ = writeln!(
        s,
        "//! its Maxima-generated C++ kernels into the repository; these are the"
    );
    let _ = writeln!(
        s,
        "//! same artifact in Rust, and [`crate::dispatch`] routes solvers onto"
    );
    let _ = writeln!(
        s,
        "//! them. Equivalence and no-drift tests live in `tests.rs` (handwritten)."
    );
    let _ = writeln!(s);
    // rustc cuts codegen units along module lines, and a lane-generic body
    // is compiled once per entry point — four times for a Vlasov kernel,
    // three for an LBO stage. The three big families get a module, hence a
    // unit, each, so the crate's build spreads over the cores there are.
    write_family_module(
        &mut s,
        "vol",
        "The Vlasov volume kernels",
        KernelSpec::file_name,
    );
    write_family_module(
        &mut s,
        "surf",
        "The Vlasov surface kernels",
        KernelSpec::surf_file_name,
    );
    write_family_module(
        &mut s,
        "lbo",
        "The LBO stage kernels",
        KernelSpec::lbo_file_name,
    );
    for spec in MANIFEST {
        let _ = writeln!(s, "include!(\"{}\");", spec.mom_file_name());
    }
    let _ = writeln!(s);
    // Emitted pre-wrapped in rustfmt's item order (lowercase, CamelCase,
    // SCREAMING_CASE) so the artifact is a fmt fixed point.
    let _ = writeln!(s, "use crate::dispatch::{{");
    let _ = writeln!(
        s,
        "    KernelKey, LboBatchFns, LboKernelEntry, MomentKernelEntry, SurfaceKernelEntry,"
    );
    let _ = writeln!(s, "    VolumeKernelEntry,");
    let _ = writeln!(s, "}};");
    let _ = writeln!(s, "use dg_basis::BasisKind;");
    let _ = writeln!(s, "use lbo::*;");
    let _ = writeln!(s, "use surf::*;");
    let _ = writeln!(s, "use vol::*;");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// Registry of all committed unrolled volume kernels (one row per"
    );
    let _ = writeln!(s, "/// manifest entry, in manifest order).");
    let _ = writeln!(s, "pub static VOLUME_REGISTRY: &[VolumeKernelEntry] = &[");
    for spec in MANIFEST {
        // Emitted pre-expanded so the artifact is a rustfmt fixed point
        // (`cargo fmt --all` must not dirty the committed tree).
        let _ = writeln!(s, "    VolumeKernelEntry {{");
        let _ = writeln!(s, "        key: KernelKey {{");
        let _ = writeln!(s, "            kind: BasisKind::{},", spec.kind_variant());
        let _ = writeln!(s, "            cdim: {},", spec.cdim);
        let _ = writeln!(s, "            vdim: {},", spec.vdim);
        let _ = writeln!(s, "            poly_order: {},", spec.poly_order);
        let _ = writeln!(s, "        }},");
        let _ = writeln!(s, "        name: \"{}\",", spec.fn_name());
        let _ = writeln!(s, "        func: {},", spec.fn_name());
        let _ = writeln!(s, "        batch: {}_b4,", spec.fn_name());
        let _ = writeln!(s, "        #[cfg(target_arch = \"x86_64\")]");
        let _ = writeln!(s, "        batch_avx2: {}_b4_avx2,", spec.fn_name());
        let _ = writeln!(s, "        #[cfg(target_arch = \"x86_64\")]");
        let _ = writeln!(s, "        batch_avx512: {}_b8_avx512,", spec.fn_name());
        let _ = writeln!(s, "    }},");
    }
    let _ = writeln!(s, "];");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// Registry of all committed unrolled surface kernels (one row per"
    );
    let _ = writeln!(
        s,
        "/// manifest entry; per-direction functions, configuration first)."
    );
    let _ = writeln!(s, "pub static SURFACE_REGISTRY: &[SurfaceKernelEntry] = &[");
    for spec in MANIFEST {
        let _ = writeln!(s, "    SurfaceKernelEntry {{");
        let _ = writeln!(s, "        key: KernelKey {{");
        let _ = writeln!(s, "            kind: BasisKind::{},", spec.kind_variant());
        let _ = writeln!(s, "            cdim: {},", spec.cdim);
        let _ = writeln!(s, "            vdim: {},", spec.vdim);
        let _ = writeln!(s, "            poly_order: {},", spec.poly_order);
        let _ = writeln!(s, "        }},");
        let _ = writeln!(s, "        name: \"{}\",", spec.surf_name());
        // Mirror rustfmt's array layout (the artifact must be a fmt fixed
        // point): one line when it fits the 100-column width, else vertical.
        let names: Vec<String> = (0..spec.cdim + spec.vdim)
            .map(|dir| spec.surf_fn_name(dir))
            .collect();
        write_fn_array(&mut s, "dirs", &names);
        let batch_names: Vec<String> = names.iter().map(|n| format!("{n}_b4")).collect();
        write_fn_array(&mut s, "batch", &batch_names);
        let avx2_names: Vec<String> = names.iter().map(|n| format!("{n}_b4_avx2")).collect();
        let _ = writeln!(s, "        #[cfg(target_arch = \"x86_64\")]");
        write_fn_array(&mut s, "batch_avx2", &avx2_names);
        let avx512_names: Vec<String> = names.iter().map(|n| format!("{n}_b8_avx512")).collect();
        let _ = writeln!(s, "        #[cfg(target_arch = \"x86_64\")]");
        write_fn_array(&mut s, "batch_avx512", &avx512_names);
        let _ = writeln!(s, "    }},");
    }
    let _ = writeln!(s, "];");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// Registry of all committed unrolled moment kernels (M0 / per-dir M1 /"
    );
    let _ = writeln!(s, "/// M2, one row per manifest entry).");
    let _ = writeln!(s, "pub static MOMENT_REGISTRY: &[MomentKernelEntry] = &[");
    for spec in MANIFEST {
        let stem = spec.mom_name();
        let _ = writeln!(s, "    MomentKernelEntry {{");
        let _ = writeln!(s, "        key: KernelKey {{");
        let _ = writeln!(s, "            kind: BasisKind::{},", spec.kind_variant());
        let _ = writeln!(s, "            cdim: {},", spec.cdim);
        let _ = writeln!(s, "            vdim: {},", spec.vdim);
        let _ = writeln!(s, "            poly_order: {},", spec.poly_order);
        let _ = writeln!(s, "        }},");
        let _ = writeln!(s, "        name: \"{stem}\",");
        let _ = writeln!(s, "        m0: {stem}_m0,");
        let m1: Vec<String> = (0..spec.vdim).map(|j| format!("{stem}_m1_v{j}")).collect();
        write_fn_array(&mut s, "m1", &m1);
        let _ = writeln!(s, "        m2: {stem}_m2,");
        let _ = writeln!(s, "    }},");
    }
    let _ = writeln!(s, "];");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// Registry of all committed unrolled LBO collision kernels (five stage"
    );
    let _ = writeln!(
        s,
        "/// functions per velocity direction, one row per manifest entry)."
    );
    let _ = writeln!(s, "pub static LBO_REGISTRY: &[LboKernelEntry] = &[");
    for spec in MANIFEST {
        let stem = spec.lbo_name();
        let _ = writeln!(s, "    LboKernelEntry {{");
        let _ = writeln!(s, "        key: KernelKey {{");
        let _ = writeln!(s, "            kind: BasisKind::{},", spec.kind_variant());
        let _ = writeln!(s, "            cdim: {},", spec.cdim);
        let _ = writeln!(s, "            vdim: {},", spec.vdim);
        let _ = writeln!(s, "            poly_order: {},", spec.poly_order);
        let _ = writeln!(s, "        }},");
        let _ = writeln!(s, "        name: \"{stem}\",");
        for stage in LBO_STAGES {
            let fns: Vec<String> = (0..spec.vdim)
                .map(|j| format!("{stem}_{stage}_v{j}"))
                .collect();
            write_fn_array(&mut s, stage, &fns);
        }
        // The batched entry points, one bundle of five per direction.
        let ty = "LboBatchFns";
        for (field, suffix) in [("batch", "_b4"), ("batch_avx2", "_b4_avx2")] {
            if field == "batch_avx2" {
                let _ = writeln!(s, "        #[cfg(target_arch = \"x86_64\")]");
            }
            // rustfmt's layout (the artifact must be a fmt fixed point):
            // a lone element hugs the brackets, several go one per block.
            let (open, pad, close) = if spec.vdim == 1 {
                (format!("        {field}: &[{ty} {{"), "    ", "        }],")
            } else {
                (format!("        {field}: &["), "        ", "        ],")
            };
            let _ = writeln!(s, "{open}");
            for j in 0..spec.vdim {
                if spec.vdim > 1 {
                    let _ = writeln!(s, "            {ty} {{");
                }
                for stage in LBO_STAGES {
                    let _ = writeln!(s, "{pad}        {stage}: {stem}_{stage}_v{j}{suffix},");
                }
                if spec.vdim > 1 {
                    let _ = writeln!(s, "            }},");
                }
            }
            let _ = writeln!(s, "{close}");
        }
        let _ = writeln!(s, "    }},");
    }
    let _ = writeln!(s, "];");
    let _ = writeln!(s);
    let _ = writeln!(s, "#[cfg(test)]");
    let _ = writeln!(s, "mod tests;");
    s
}

/// One kernel family's artifacts `include!`d into a module of their own
/// (see [`generated_mod_source`]).
fn write_family_module(
    s: &mut String,
    module: &str,
    what: &str,
    file_name: fn(&KernelSpec) -> String,
) {
    let _ = writeln!(
        s,
        "/// {what}, in a module (and so a codegen unit) of their own."
    );
    let _ = writeln!(s, "mod {module} {{");
    let _ = writeln!(s, "    use crate::dispatch::LANES;");
    let _ = writeln!(s, "    use crate::panel::sxn;");
    let _ = writeln!(s);
    for spec in MANIFEST {
        let _ = writeln!(s, "    include!(\"{}\");", file_name(spec));
    }
    let _ = writeln!(s, "}}");
    let _ = writeln!(s);
}

/// The five LBO stage families, in registry-field order.
const LBO_STAGES: [&str; 5] = [
    "drag_vol",
    "drag_surf",
    "diff_grad",
    "diff_vol",
    "diff_surf",
];

/// Write a `field: &[fn_a, fn_b, ...],` registry line in rustfmt's array
/// layout: one line when the joined element list fits rustfmt's
/// `array_width` (60 columns under the default small-size heuristics),
/// else vertical — so the emitted module is a `cargo fmt` fixed point.
fn write_fn_array(s: &mut String, field: &str, names: &[String]) {
    let joined = names.join(", ");
    if joined.len() <= 60 {
        let _ = writeln!(s, "        {field}: &[{joined}],");
    } else {
        let _ = writeln!(s, "        {field}: &[");
        for name in names {
            let _ = writeln!(s, "            {name},");
        }
        let _ = writeln!(s, "        ],");
    }
}

/// Vlasov volume and surface kernels get all four entry points: their
/// panel width follows the ISA (8 cells or faces on AVX-512).
const VOLUME_ENTRY_POINTS: EntryPoints = EntryPoints {
    unit: "cells",
    avx512: true,
};
const SURFACE_ENTRY_POINTS: EntryPoints = EntryPoints {
    unit: "faces",
    avx512: true,
};

/// `α_j` assembly statements of one acceleration term (volume: the phase
/// expansion, surface: the face expansion — `proj` says which), for the
/// lane loop: `q/m (E_j + (v×B)_j)` with the cell centers per lane and the
/// E/B coefficients lane-constant. Mirrors `AccelProject::project` exactly.
fn accel_alpha_stmts(
    alpha: &str,
    proj: &crate::accel::AccelProject,
    j: usize,
    cdim: usize,
    vdim: usize,
    nc: usize,
) -> Vec<String> {
    let terms = cross_terms_pub(j, vdim);
    let mut stmts = Vec::new();
    for l in 0..nc {
        let mut center = format!("em[{}]", j * nc + l);
        for &(k, bc, sign) in &terms {
            let op = if sign > 0.0 { "+" } else { "-" };
            let _ = write!(
                center,
                " {op} w[{}][k] * em[{}]",
                cdim + k,
                (3 + bc) * nc + l
            );
        }
        let i0 = proj.emb0[l];
        stmts.push(format!(
            "{alpha}[{i0}][k] += qm * {:?} * ({center});",
            proj.w0
        ));
        for &(k, bc, sign) in &terms {
            if let Some(i1) = proj.emb1[k][l] {
                stmts.push(format!(
                    "{alpha}[{i1}][k] += qm * {:?} * (0.5 * dxv[{}]) * em[{}];",
                    proj.w1 * sign,
                    cdim + k,
                    (3 + bc) * nc + l
                ));
            }
        }
    }
    stmts
}

/// Emit the volume kernel (streaming + acceleration, all directions) for a
/// kernel set, in the calling convention of the paper's Fig. 1: cell center
/// `w`, cell sizes `dxv`, charge-to-mass ratio `qm`, flattened E/B
/// configuration coefficients `em` (`[Ex, Ey, Ez, Bx, By, Bz] × Nc`), the
/// distribution-function coefficients `f`, and the output increment `out`.
///
/// The body is emitted **once**, generic over the lane count
/// (`write_lane_generic_entry_points`): `w`, `f` and `out` are panels of
/// `[f64; L]` lane groups — `L` phase cells sharing one configuration cell,
/// so `em` is lane-constant while the cell centers vary per lane — and
/// `dxv`, `qm`, `em` are shared. The one-lane instantiation *is* the scalar
/// kernel (`fn_name`); `<fn_name>_b4`, `<fn_name>_b4_avx2` and
/// `<fn_name>_b8_avx512` run the same statements per lane at 4 and 8 lanes,
/// bit-identical (four-way proptest in `generated/tests.rs`).
pub fn volume_kernel_source(pk: &PhaseKernels, fn_name: &str) -> String {
    use LaneParam::{In, Out, Shared};
    let layout = pk.layout;
    let (cdim, vdim) = (layout.cdim, layout.vdim);
    let ndim = cdim + vdim;
    let nc = pk.nc();
    let np = pk.np();
    let mut s = String::new();
    let doc = format!(
        "/// Volume kernel for the Vlasov phase-space advection, {} p={} {} basis.\n\
         /// Auto-generated from exact integral tables — do not edit by hand.\n\
         ///\n\
         /// * `w`   — phase-space cell center, `[x…, v…]`, length {ndim}\n\
         /// * `dxv` — phase-space cell size, length {ndim}\n\
         /// * `qm`  — charge-to-mass ratio q/m\n\
         /// * `em`  — E/B conf-space coefficients, 6 components × {nc}\n\
         /// * `f`   — distribution coefficients, length {np}\n\
         /// * `out` — RHS increment, length {np}\n",
        layout.tag(),
        pk.phase_basis.poly_order(),
        pk.phase_basis.kind()
    );
    write_lane_generic_entry_points(
        &mut s,
        fn_name,
        &doc,
        &[
            In("w", ndim),
            Shared("dxv", "&[f64]"),
            Shared("qm", "f64"),
            Shared("em", "&[f64]"),
            In("f", np),
            Out("out", np),
        ],
        VOLUME_ENTRY_POINTS,
    );
    // The body only sequences one `#[inline(always)]` part per term
    // (streaming direction, acceleration direction): rustc's borrow checker
    // is quadratic in function size, and the 2x3v p2 body in one piece
    // (6.5k lane statements) spent 40 s there against 4 s per part.
    let mut parts = String::new();
    let mut write_part = |s: &mut String, part: &str, what: &str, with_em: bool, stmts: &str| {
        let (em_params, em_args) = if with_em {
            (", qm: f64, em: &[f64]", ", qm, em")
        } else {
            ("", "")
        };
        let _ = writeln!(s, "    {fn_name}_{part}(w, dxv{em_args}, f, out);");
        let _ = writeln!(parts);
        let _ = writeln!(parts, "/// {what} term of [`{fn_name}`].");
        let _ = writeln!(parts, "#[allow(clippy::all)]");
        let _ = writeln!(parts, "#[rustfmt::skip]");
        let _ = writeln!(parts, "#[inline(always)]");
        let _ = writeln!(
            parts,
            "fn {fn_name}_{part}<const L: usize>(w: &[[f64; L]; {ndim}], dxv: &[f64]{em_params}, f: &[[f64; L]; {np}], out: &mut [[f64; L]; {np}]) {{"
        );
        let _ = write!(parts, "{stmts}");
        let _ = writeln!(parts, "}}");
    };

    // Streaming terms: `a0` carries the per-lane cell center, `a1` is
    // lane-constant (cell sizes are one grid).
    for sv in &pk.streaming {
        let d = sv.dir;
        let vd = sv.vdim_of;
        let mut p = String::new();
        let _ = writeln!(p, "    let rd{d} = 2.0 / dxv[{d}];");
        let _ = writeln!(p, "    let mut a0_{d} = [0.0f64; L];");
        write_lane_block(
            &mut p,
            &[format!("a0_{d}[k] = {:?} * w[{vd}][k] * rd{d};", sv.c0)],
        );
        let _ = writeln!(p, "    let a1_{d} = {:?} * 0.5 * dxv[{vd}] * rd{d};", sv.c1);
        let s0: Vec<LaneAxpy> = sv
            .s0
            .entries
            .iter()
            .map(|&(l, n, c)| LaneAxpy {
                target: format!("out[{l}]"),
                coeff: format!("{c:?}"),
                operands: vec![format!("a0_{d}"), format!("f[{n}]")],
            })
            .collect();
        write_lane_runs(&mut p, &s0);
        for &(l, n, c) in &sv.s1.entries {
            let _ = writeln!(p, "    sxn(&mut out[{l}], {c:?} * a1_{d}, &f[{n}]);");
        }
        write_part(
            &mut s,
            &format!("stream{d}"),
            &format!("Streaming `∂/∂x{d} (v{} f)`", vd - cdim),
            false,
            &p,
        );
    }

    // Acceleration terms: α_j assembled per lane (velocity coordinates
    // vary across the panel; E/B coefficients are lane-constant), then
    // contracted.
    for j in 0..vdim {
        let pd = cdim + j;
        let mut p = String::new();
        let _ = writeln!(p, "    let rv{j} = 2.0 / dxv[{pd}];");
        let _ = writeln!(p, "    let mut alpha{j} = [[0.0f64; L]; {np}];");
        if cross_terms_pub(j, vdim).is_empty() {
            // 1V: no v×B cross terms, so the cell centers are never read.
            let _ = writeln!(p, "    let _ = w;");
        }
        write_lane_block(
            &mut p,
            &accel_alpha_stmts(&format!("alpha{j}"), &pk.cell_accel[j], j, cdim, vdim, nc),
        );
        let contraction: Vec<LaneAxpy> = pk.accel_vol[j]
            .entries()
            .iter()
            .map(|e| LaneAxpy {
                target: format!("out[{}]", e.l),
                coeff: format!("{:?} * rv{j}", e.coeff),
                operands: vec![format!("alpha{j}[{}]", e.m), format!("f[{}]", e.n)],
            })
            .collect();
        write_lane_runs(&mut p, &contraction);
        write_part(
            &mut s,
            &format!("accel{j}"),
            &format!("Acceleration `∂/∂v{j} (q/m (E + v×B)_{j} f)`"),
            true,
            &p,
        );
    }
    let _ = writeln!(s, "}}");
    s.push_str(&parts);
    s
}

/// Emit the surface kernels (one fully unrolled function per phase
/// direction) for a kernel set, in the committed calling convention
/// (`SurfaceKernelFn`): lower-cell center `w`, cell sizes `dxv`, `qm`,
/// flattened E/B coefficients `em`, the penalty switch, the two adjacent
/// cells' coefficients and their accumulated RHS increments.
///
/// Configuration (streaming) directions inline the affine `α̂ = v_d` and
/// its exact `sup |α̂|` penalty; velocity (acceleration) directions inline
/// the face projection of `q/m (E + v×B)_j` and its modal sup bound. The
/// trace → flux-tensor → lift pipeline is emitted statement by statement
/// from the same exact tables the runtime kernels interpret, so the two
/// paths are the same arithmetic.
///
/// Like the volume kernel, each direction's body is emitted **once**,
/// generic over the lane count: `L` faces that share one configuration
/// cell (`em` lane-constant, the lower-cell centers `w` — hence `α̂` and
/// the penalty speed `λ` — per lane, both adjacent cells' coefficients and
/// increments as panels), behind the scalar, `_b4`, `_b4_avx2` and
/// `_b8_avx512` entry points.
pub fn surface_kernel_source(pk: &PhaseKernels, spec: &KernelSpec) -> String {
    use LaneParam::{In, Out, Shared};
    let layout = pk.layout;
    let (cdim, vdim) = (layout.cdim, layout.vdim);
    let ndim = cdim + vdim;
    let nc = pk.nc();
    let np = pk.np();
    let mut s = String::new();
    // Plain `//` comments: the file is `include!`d into `generated/mod.rs`,
    // where inner `//!` docs would be ill-placed.
    let _ = writeln!(
        s,
        "// Surface kernels for the Vlasov phase-space advection, {} p={} {} basis.",
        layout.tag(),
        pk.phase_basis.poly_order(),
        pk.phase_basis.kind()
    );
    let _ = writeln!(
        s,
        "// Auto-generated from exact integral tables — do not edit by hand."
    );
    let _ = writeln!(
        s,
        "// One lane-generic body per face-normal phase direction (configuration"
    );
    let _ = writeln!(
        s,
        "// first) behind a scalar, a `_b4`, a `_b4_avx2` and a `_b8_avx512` entry"
    );
    let _ = writeln!(
        s,
        "// point; see `crate::dispatch::SurfaceKernelFn` for the calling convention."
    );
    for dir in 0..ndim {
        let surf = &pk.surfaces[dir];
        let fb = &surf.kernel.face;
        let nf = fb.len();
        let is_conf = layout.is_config_dir(dir);
        let _ = writeln!(s);
        let doc = if is_conf {
            format!("/// Streaming surface kernel, faces normal to x{dir} (α̂ = v{dir}).\n")
        } else {
            format!(
                "/// Acceleration surface kernel, faces normal to v{j} (α̂ = q/m (E + v×B)_{j}).\n",
                j = dir - cdim
            )
        };
        write_lane_generic_entry_points(
            &mut s,
            &spec.surf_fn_name(dir),
            &doc,
            &[
                In("w", ndim),
                Shared("dxv", "&[f64]"),
                Shared("qm", "f64"),
                Shared("em", "&[f64]"),
                Shared("penalty", "bool"),
                In("f_lo", np),
                In("f_hi", np),
                Out("out_lo", np),
                Out("out_hi", np),
            ],
            SURFACE_ENTRY_POINTS,
        );
        let _ = writeln!(s, "    let rd = 2.0 / dxv[{dir}];");
        let _ = writeln!(s, "    let mut alpha = [[0.0f64; L]; {nf}];");
        let _ = writeln!(s, "    let mut lam = [0.0f64; L];");
        // α̂ assembly + penalty speed λ, mirroring the runtime builders
        // operation for operation.
        let mut block = if is_conf {
            let _ = writeln!(s, "    let _ = (qm, em);");
            let vd = layout.vel_phase_dim(dir);
            let (lin_idx, c0, c1) = surf.stream_affine.expect("config dir has affine α̂");
            vec![
                format!("alpha[0][k] = w[{vd}][k] * {c0:?};"),
                format!("alpha[{lin_idx}][k] += 0.5 * dxv[{vd}] * {c1:?};"),
                format!(
                    "lam[k] = if penalty {{ w[{vd}][k].abs() + 0.5 * dxv[{vd}].abs() }} else {{ 0.0 }};"
                ),
            ]
        } else {
            let j = dir - cdim;
            let proj = surf
                .face_accel
                .as_ref()
                .expect("velocity dir has projector");
            if cross_terms_pub(j, vdim).is_empty() {
                // 1V: no v×B cross terms, so the cell centers are never read.
                let _ = writeln!(s, "    let _ = w;");
            }
            let mut block = accel_alpha_stmts("alpha", proj, j, cdim, vdim, nc);
            // Modal sup bound over the face modes α̂ can populate, in
            // ascending mode order (matches the runtime reduction; the
            // structurally-zero modes contribute exact zeros there).
            let mut support: Vec<usize> = Vec::new();
            for l in 0..nc {
                support.push(proj.emb0[l] as usize);
                for emb in &proj.emb1 {
                    if let Some(i1) = emb[l] {
                        support.push(i1 as usize);
                    }
                }
            }
            support.sort_unstable();
            support.dedup();
            let bound = support
                .iter()
                .map(|&a| format!("alpha[{a}][k].abs() * {:?}", surf.kernel.sup[a]))
                .collect::<Vec<_>>()
                .join(" + ");
            block.push(format!("lam[k] = if penalty {{ {bound} }} else {{ 0.0 }};"));
            block
        };
        write_lane_block(&mut s, &block);
        // Traces: exactly one face mode per cell mode (sparse restrict).
        let _ = writeln!(s, "    let mut fm = [[0.0f64; L]; {nf}];");
        let _ = writeln!(s, "    let mut fp = [[0.0f64; L]; {nf}];");
        for i in 0..np {
            let (a, v) = fb.trace_of(1, i);
            let _ = writeln!(s, "    sxn(&mut fm[{a}], {v:?}, &f_lo[{i}]);");
        }
        for i in 0..np {
            let (a, v) = fb.trace_of(-1, i);
            let _ = writeln!(s, "    sxn(&mut fp[{a}], {v:?}, &f_hi[{i}]);");
        }
        // Numerical flux Ĝ = D·α̂·½(f⁻+f⁺) − (λ/2)(f⁺−f⁻).
        let _ = writeln!(s, "    let mut favg = [[0.0f64; L]; {nf}];");
        let _ = writeln!(s, "    let mut ghat = [[0.0f64; L]; {nf}];");
        block.clear();
        for a in 0..nf {
            block.push(format!("favg[{a}][k] = 0.5 * (fm[{a}][k] + fp[{a}][k]);"));
            block.push(format!(
                "ghat[{a}][k] = -0.5 * lam[k] * (fp[{a}][k] - fm[{a}][k]);"
            ));
        }
        write_lane_block(&mut s, &block);
        let flux: Vec<LaneAxpy> = surf
            .kernel
            .dmat
            .entries
            .iter()
            .map(|e| LaneAxpy {
                target: format!("ghat[{}]", e.l),
                coeff: format!("{:?}", e.coeff),
                operands: vec![format!("alpha[{}]", e.m), format!("favg[{}]", e.n)],
            })
            .collect();
        write_lane_runs(&mut s, &flux);
        // Lift to both cells (sparse transpose of the traces).
        for i in 0..np {
            let (a, v) = fb.trace_of(1, i);
            let _ = writeln!(s, "    sxn(&mut out_lo[{i}], -rd * {v:?}, &ghat[{a}]);");
        }
        for i in 0..np {
            let (a, v) = fb.trace_of(-1, i);
            let _ = writeln!(s, "    sxn(&mut out_hi[{i}], rd * {v:?}, &ghat[{a}]);");
        }
        let _ = writeln!(s, "}}");
    }
    s
}

/// Emit the moment-reduction kernels (`<stem>_m0`, `<stem>_m1_v<j>`,
/// `<stem>_m2`) for a kernel set, in the `_into` accumulate convention of
/// [`crate::moments::MomentKernels`]: each function adds one phase cell's
/// contribution into the configuration-space coefficient slice. The
/// statements are unrolled from the same sparse `(phase mode, conf mode)`
/// tables the runtime path iterates, in the same order and association, so
/// the two paths are bitwise-identical arithmetic.
pub fn moment_kernel_source(pk: &PhaseKernels, spec: &KernelSpec) -> String {
    let layout = pk.layout;
    let mk = &pk.moments;
    let stem = spec.mom_name();
    let p = pk.phase_basis.poly_order();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// Velocity-moment kernels (M0 / M1_j / M2), {} p={} {} basis.",
        layout.tag(),
        p,
        pk.phase_basis.kind()
    );
    let _ = writeln!(
        s,
        "// Auto-generated from exact integral tables — do not edit by hand."
    );
    let _ = writeln!(
        s,
        "// See `crate::dispatch::MomentKernelEntry` for the calling convention."
    );
    // M0.
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// `M0` contribution of one phase cell (`jv` = velocity-cell Jacobian)."
    );
    let _ = writeln!(s, "#[allow(clippy::all)]");
    let _ = writeln!(s, "#[rustfmt::skip]");
    let _ = writeln!(s, "pub fn {stem}_m0(f: &[f64], jv: f64, m0: &mut [f64]) {{");
    let _ = writeln!(s, "    let s = jv * {:?};", mk.w0);
    for &(i, l) in &mk.r0 {
        let _ = writeln!(s, "    m0[{l}] += s * f[{i}];");
    }
    let _ = writeln!(s, "}}");
    // M1, one function per velocity direction.
    for j in 0..layout.vdim {
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "/// `M1_{j}` contribution of one phase cell (`v_c`/`dv`: cell center and width in v{j})."
        );
        let _ = writeln!(s, "#[allow(clippy::all)]");
        let _ = writeln!(s, "#[rustfmt::skip]");
        let _ = writeln!(
            s,
            "pub fn {stem}_m1_v{j}(f: &[f64], jv: f64, v_c: f64, dv: f64, m1: &mut [f64]) {{"
        );
        let _ = writeln!(s, "    let s0 = jv * {:?} * v_c;", mk.w0);
        for &(i, l) in &mk.r0 {
            let _ = writeln!(s, "    m1[{l}] += s0 * f[{i}];");
        }
        let _ = writeln!(s, "    let s1 = jv * {:?} * 0.5 * dv;", mk.w1);
        for &(i, l) in &mk.r1[j] {
            let _ = writeln!(s, "    m1[{l}] += s1 * f[{i}];");
        }
        let _ = writeln!(s, "}}");
    }
    // M2 (scalar |v|², summed over velocity dims).
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// `M2 = Σ_j ∫ v_j² f dv` contribution of one phase cell."
    );
    let _ = writeln!(s, "#[allow(clippy::all)]");
    let _ = writeln!(s, "#[rustfmt::skip]");
    let _ = writeln!(
        s,
        "pub fn {stem}_m2(f: &[f64], jv: f64, v_c: &[f64], dv: &[f64], m2: &mut [f64]) {{"
    );
    let _ = writeln!(s, "    let mut s0 = 0.0;");
    for j in 0..layout.vdim {
        let _ = writeln!(s, "    let h{j} = 0.5 * dv[{j}];");
        let _ = writeln!(s, "    s0 += v_c[{j}] * v_c[{j}] + h{j} * h{j} / 3.0;");
    }
    let _ = writeln!(s, "    let s0 = jv * {:?} * s0;", mk.w0);
    for &(i, l) in &mk.r0 {
        let _ = writeln!(s, "    m2[{l}] += s0 * f[{i}];");
    }
    for j in 0..layout.vdim {
        let _ = writeln!(
            s,
            "    let s1_{j} = jv * {:?} * 2.0 * v_c[{j}] * 0.5 * dv[{j}];",
            mk.w1
        );
        for &(i, l) in &mk.r1[j] {
            let _ = writeln!(s, "    m2[{l}] += s1_{j} * f[{i}];");
        }
        if !mk.r2[j].is_empty() {
            let _ = writeln!(s, "    let s2_{j} = jv * {:?} * h{j} * h{j};", mk.w2_of_2);
            for &(i, l) in &mk.r2[j] {
                let _ = writeln!(s, "    m2[{l}] += s2_{j} * f[{i}];");
            }
        }
    }
    let _ = writeln!(s, "}}");
    s
}

/// One parameter of a lane-generic kernel: a value shared by the lane
/// group (name, type), or a coefficient panel (name, length): `&[[f64; L]]`
/// / `&mut [[f64; L]]` in the body.
enum LaneParam {
    Shared(&'static str, &'static str),
    In(&'static str, usize),
    Out(&'static str, usize),
}

/// Which entry points a lane-generic body gets beside the scalar, `_b4`
/// and `_b4_avx2` ones, and what a lane holds (for the doc lines).
#[derive(Clone, Copy)]
struct EntryPoints {
    /// What one lane is: `"cells"`, `"pencils"`.
    unit: &'static str,
    /// Also emit the 8-lane `_b8_avx512` entry point.
    avx512: bool,
}

/// Emit the entry points of one lane-generic kernel `name` and open its
/// shared body, which the caller then fills with statements and closes.
/// The body is written **once**, as a private `#[inline(always)]` function
/// generic over the lane count `const L: usize` (panels are slices of
/// `[f64; L]` lane groups), and instantiated by thin entry points: the
/// scalar `name` (`L = 1`: its `&[f64]` arguments viewed as `&[[f64; 1]]`
/// through `as_chunks`), the portable `name_b4` (`L = LANES`), and on
/// `x86_64` only `name_b4_avx2` carrying `#[target_feature(enable =
/// "avx2")]` and — where `entry_points.avx512` — the 8-lane
/// `name_b8_avx512` under `#[target_feature(enable = "avx512f")]`. Per lane
/// all of them run the same statement stream — no `fma`, no `mul_add` — so
/// they are bit-identical (registry-wide proptests in
/// `generated/tests.rs`); which batched one runs is decided from the CPU
/// alone by [`crate::dispatch::VolumeBatch`] /
/// [`crate::dispatch::SurfaceBatch`] / [`crate::dispatch::LboBatch`].
fn write_lane_generic_entry_points(
    s: &mut String,
    name: &str,
    doc: &str,
    params: &[LaneParam],
    entry_points: EntryPoints,
) {
    let sig = |panel: &str| -> String {
        params
            .iter()
            .map(|p| match p {
                LaneParam::Shared(n, ty) => format!("{n}: {ty}"),
                LaneParam::In(n, _) => format!("{n}: &[{panel}]"),
                LaneParam::Out(n, _) => format!("{n}: &mut [{panel}]"),
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let scalar_args = params
        .iter()
        .map(|p| match p {
            LaneParam::Shared(n, _) => n.to_string(),
            LaneParam::In(n, _) => format!("{n}.as_chunks().0"),
            LaneParam::Out(n, _) => format!("{n}.as_chunks_mut().0"),
        })
        .collect::<Vec<_>>()
        .join(", ");
    let args = params
        .iter()
        .map(|p| match p {
            LaneParam::Shared(n, _) | LaneParam::In(n, _) | LaneParam::Out(n, _) => *n,
        })
        .collect::<Vec<_>>()
        .join(", ");
    let unit = entry_points.unit;
    let _ = write!(s, "{doc}");
    let _ = writeln!(s, "#[allow(clippy::all)]");
    let _ = writeln!(s, "#[rustfmt::skip]");
    let _ = writeln!(s, "pub fn {name}({}) {{", sig("f64"));
    let _ = writeln!(s, "    {name}_body::<1>({scalar_args})");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// [`{name}`] over `LANES` {unit}: the same body, bit-identical per lane."
    );
    let _ = writeln!(s, "#[allow(clippy::all)]");
    let _ = writeln!(s, "#[rustfmt::skip]");
    let _ = writeln!(s, "pub fn {name}_b4({}) {{", sig("[f64; LANES]"));
    let _ = writeln!(s, "    {name}_body({args})");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "/// [`{name}_b4`] compiled for AVX2. Reach it through `crate::dispatch`,"
    );
    let _ = writeln!(s, "/// which checks the CPU first.");
    let _ = writeln!(s, "#[cfg(target_arch = \"x86_64\")]");
    let _ = writeln!(s, "#[target_feature(enable = \"avx2\")]");
    let _ = writeln!(s, "#[allow(clippy::all)]");
    let _ = writeln!(s, "#[rustfmt::skip]");
    let _ = writeln!(s, "pub fn {name}_b4_avx2({}) {{", sig("[f64; LANES]"));
    let _ = writeln!(s, "    {name}_body({args})");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s);
    if entry_points.avx512 {
        let _ = writeln!(
            s,
            "/// [`{name}`] over 8 {unit}, compiled for AVX-512F. Reach it through"
        );
        let _ = writeln!(s, "/// `crate::dispatch`, which checks the CPU first.");
        let _ = writeln!(s, "#[cfg(target_arch = \"x86_64\")]");
        let _ = writeln!(s, "#[target_feature(enable = \"avx512f\")]");
        let _ = writeln!(s, "#[allow(clippy::all)]");
        let _ = writeln!(s, "#[rustfmt::skip]");
        let _ = writeln!(s, "pub fn {name}_b8_avx512({}) {{", sig("[f64; 8]"));
        let _ = writeln!(s, "    {name}_body({args})");
        let _ = writeln!(s, "}}");
        let _ = writeln!(s);
    }
    let _ = writeln!(
        s,
        "/// Shared lane-generic body of [`{name}`] and its batched entry points."
    );
    let _ = writeln!(s, "#[allow(clippy::all)]");
    let _ = writeln!(s, "#[rustfmt::skip]");
    let _ = writeln!(s, "#[inline(always)]");
    let _ = writeln!(s, "fn {name}_body<const L: usize>({}) {{", sig("[f64; L]"));
    // Fixed-size views: one length check per panel here instead of one
    // bounds-check branch per statement below, which leaves the body a
    // single basic block the vectorizer can work on.
    for p in params {
        match p {
            LaneParam::Shared(..) => {}
            LaneParam::In(n, len) => {
                let _ = writeln!(
                    s,
                    "    let {n}: &[[f64; L]; {len}] = {n}.first_chunk().expect(\"{n}: {len} coefficients\");"
                );
            }
            LaneParam::Out(n, len) => {
                let _ = writeln!(
                    s,
                    "    let {n}: &mut [[f64; L]; {len}] = {n}.first_chunk_mut().expect(\"{n}: {len} coefficients\");"
                );
            }
        }
    }
}

/// LBO stage kernels stop at four lanes: pencil groups stay `LANES` wide on
/// every ISA.
const LBO_ENTRY_POINTS: EntryPoints = EntryPoints {
    unit: "pencils",
    avx512: false,
};

/// One lane-generic accumulate `target[k] += coeff * operands[k]…`: `coeff`
/// is an expression shared by the lanes, `operands` the per-lane factors
/// (written without the lane index).
struct LaneAxpy {
    target: String,
    coeff: String,
    operands: Vec<String>,
}

impl LaneAxpy {
    fn new(target: String, coeff: String, operand: String) -> Self {
        LaneAxpy {
            target,
            coeff,
            operands: vec![operand],
        }
    }
}

/// Write lane-generic accumulates, consecutive statements with the same
/// target sharing one `for k in 0..L` loop. Per lane the statements run in
/// the order given, so grouping changes no result; it changes what the
/// compiler sees. A loop over a run of statements is vectorized as a unit —
/// the target's lanes live in one register across the run — where thousands
/// of one-statement lane loops were unrolled to scalars first and left the
/// SLP vectorizer to rediscover the lanes, superlinearly in the size of the
/// block: that search was most of the kernels crate's build time (2x3v p2
/// volume body: 130 s of LLVM time, 5 s emitted this way). A lone
/// one-operand accumulate (traces, lifts) goes through `sxn` instead, a
/// third of the source text. At one lane the loops vanish and the scalar
/// statement stream is left.
fn write_lane_runs(s: &mut String, stmts: &[LaneAxpy]) {
    write_lane_runs_at(s, "    ", stmts);
}

/// [`write_lane_runs`] at a given indentation (inside a branch).
fn write_lane_runs_at(s: &mut String, indent: &str, stmts: &[LaneAxpy]) {
    for run in stmts.chunk_by(|a, b| a.target == b.target) {
        if let ([a], [x]) = (run, &run[0].operands[..]) {
            let _ = writeln!(s, "{indent}sxn(&mut {}, {}, &{x});", a.target, a.coeff);
            continue;
        }
        let _ = writeln!(s, "{indent}for k in 0..L {{");
        for a in run {
            let factors: String = a.operands.iter().map(|x| format!(" * {x}[k]")).collect();
            let _ = writeln!(s, "{indent}    {}[k] += {}{factors};", a.target, a.coeff);
        }
        let _ = writeln!(s, "{indent}}}");
    }
}

/// Write lane-generic statements of differing targets as **one** lane loop
/// (short blocks of independent temporaries: `α` assembly, flux set-up).
fn write_lane_block(s: &mut String, stmts: &[String]) {
    let _ = writeln!(s, "    for k in 0..L {{");
    for stmt in stmts {
        let _ = writeln!(s, "        {stmt}");
    }
    let _ = writeln!(s, "    }}");
}

/// Emit the LBO drag/diffusion kernels (five stage functions per velocity
/// direction) for a kernel set, unrolled from [`lbo_dir_tables`] — the same
/// tables `dg_core::lbo::LboOp::new` builds for the runtime weak-op path,
/// with the same statement order and operator association. Entries whose
/// `α` operand is structurally zero (outside the conf/ξ_j embedding
/// support) are pruned; everything else is emitted verbatim.
///
/// Each stage body is emitted **once**, generic over the lane count
/// (`write_lane_generic_entry_points`): every coefficient operand —
/// including the primitive moments `u`/`vth2`, because the pencils of one
/// lane group may sit in different configuration cells — is indexed
/// `x[n][k]`, while `nu`, `v_c`/`vstar`, `dv` and `at_upper` are scalars
/// the group shares. The one-lane instantiation *is* the scalar kernel.
pub fn lbo_kernel_source(pk: &PhaseKernels, spec: &KernelSpec) -> String {
    use LaneParam::{In, Out, Shared};
    let layout = pk.layout;
    let (cdim, vdim) = (layout.cdim, layout.vdim);
    let nc = pk.nc();
    let np = pk.np();
    let stem = spec.lbo_name();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// LBO (Lenard–Bernstein / Dougherty) collision kernels, {} p={} {} basis.",
        layout.tag(),
        pk.phase_basis.poly_order(),
        pk.phase_basis.kind()
    );
    let _ = writeln!(
        s,
        "// Auto-generated from exact integral tables — do not edit by hand."
    );
    let _ = writeln!(
        s,
        "// Five stage functions per velocity direction (drag volume/surface,"
    );
    let _ = writeln!(
        s,
        "// LDG gradient, diffusion volume/surface), each one lane-generic body"
    );
    let _ = writeln!(
        s,
        "// behind a scalar, a `_b4` and a `_b4_avx2` entry point; see"
    );
    let _ = writeln!(
        s,
        "// `crate::dispatch::LboKernelEntry` for the calling conventions."
    );
    // `dst[a] += v · src[i]` per trace entry / `dst[i] += scale · v · src[a]`
    // per lift entry of one face side.
    let trace_stmts = |side: i32, dst: &str, src: &str, fb: &dg_basis::face::FaceBasis| {
        (0..np)
            .map(|i| {
                let (a, v) = fb.trace_of(side, i);
                LaneAxpy::new(
                    format!("{dst}[{a}]"),
                    format!("{v:?}"),
                    format!("{src}[{i}]"),
                )
            })
            .collect::<Vec<_>>()
    };
    let lift_stmts =
        |side: i32, dst: &str, scale: &str, src: &str, fb: &dg_basis::face::FaceBasis| {
            (0..np)
                .map(|i| {
                    let (a, v) = fb.trace_of(side, i);
                    LaneAxpy::new(
                        format!("{dst}[{i}]"),
                        format!("{scale} * {v:?}"),
                        format!("{src}[{a}]"),
                    )
                })
                .collect::<Vec<_>>()
        };
    for j in 0..vdim {
        let dir = cdim + j;
        let td = lbo_dir_tables(pk, j);
        let surf = &pk.surfaces[dir];
        let fb = &surf.kernel.face;
        let nf = fb.len();
        let phase_support: std::collections::BTreeSet<usize> = td
            .emb_phase
            .iter()
            .map(|&e| e as usize)
            .chain([0usize, td.lin_idx])
            .collect();
        let face_support: std::collections::BTreeSet<usize> = td
            .emb_face
            .iter()
            .map(|&e| e as usize)
            .chain([0usize])
            .collect();

        // ---- Drag volume: α = −ν(v_j − u_j(x)). ----
        let _ = writeln!(s);
        write_lane_generic_entry_points(
            &mut s,
            &format!("{stem}_drag_vol_v{j}"),
            &format!(
                "/// LBO drag volume term in v{j}: weak `∇_v · (ν(v − u) f)`, cell interior.\n"
            ),
            &[
                Shared("nu", "f64"),
                Shared("v_c", "f64"),
                Shared("dv", "f64"),
                In("u", nc),
                In("f", np),
                Out("out", np),
            ],
            LBO_ENTRY_POINTS,
        );
        let _ = writeln!(s, "    let scale = 2.0 / dv;");
        let _ = writeln!(s, "    let mut alpha = [[0.0f64; L]; {np}];");
        let mut block = vec![
            format!("alpha[0][k] = -nu * v_c * {:?};", td.c0p),
            format!("alpha[{}][k] = -nu * 0.5 * dv * {:?};", td.lin_idx, td.c1p),
        ];
        for l in 0..nc {
            block.push(format!(
                "alpha[{}][k] += nu * {:?} * u[{l}][k];",
                td.emb_phase[l], td.w_phase
            ));
        }
        write_lane_block(&mut s, &block);
        let contraction: Vec<LaneAxpy> = td
            .drag_vol
            .entries
            .iter()
            .filter(|e| phase_support.contains(&(e.m as usize)))
            .map(|e| LaneAxpy {
                target: format!("out[{}]", e.l),
                coeff: format!("scale * {:?}", e.coeff),
                operands: vec![format!("alpha[{}]", e.m), format!("f[{}]", e.n)],
            })
            .collect();
        write_lane_runs(&mut s, &contraction);
        let _ = writeln!(s, "}}");

        // ---- Drag surface: penalized central flux at one interior face. ----
        let _ = writeln!(s);
        write_lane_generic_entry_points(
            &mut s,
            &format!("{stem}_drag_surf_v{j}"),
            &format!(
                "/// LBO drag surface term in v{j} at one interior face (`vstar` = face\n\
                 /// velocity coordinate); penalized central flux, both sides updated.\n"
            ),
            &[
                Shared("nu", "f64"),
                Shared("vstar", "f64"),
                Shared("dv", "f64"),
                In("u", nc),
                In("f_lo", np),
                In("f_hi", np),
                Out("out_lo", np),
                Out("out_hi", np),
            ],
            LBO_ENTRY_POINTS,
        );
        let _ = writeln!(s, "    let scale = 2.0 / dv;");
        let _ = writeln!(s, "    let mut alpha = [[0.0f64; L]; {nf}];");
        let _ = writeln!(s, "    let mut lam = [0.0f64; L];");
        let mut block = vec![format!("alpha[0][k] = -nu * vstar * {:?};", td.c0f)];
        for l in 0..nc {
            block.push(format!(
                "alpha[{}][k] += nu * {:?} * u[{l}][k];",
                td.emb_face[l], td.w_face
            ));
        }
        let bound = face_support
            .iter()
            .map(|&a| format!("alpha[{a}][k].abs() * {:?}", surf.kernel.sup[a]))
            .collect::<Vec<_>>()
            .join(" + ");
        block.push(format!("lam[k] = {bound};"));
        write_lane_block(&mut s, &block);
        let _ = writeln!(s, "    let mut fm = [[0.0f64; L]; {nf}];");
        let _ = writeln!(s, "    let mut fp = [[0.0f64; L]; {nf}];");
        write_lane_runs(&mut s, &trace_stmts(1, "fm", "f_lo", fb));
        write_lane_runs(&mut s, &trace_stmts(-1, "fp", "f_hi", fb));
        let _ = writeln!(s, "    let mut favg = [[0.0f64; L]; {nf}];");
        let _ = writeln!(s, "    let mut ghat = [[0.0f64; L]; {nf}];");
        let mut block = Vec::new();
        for a in 0..nf {
            block.push(format!("favg[{a}][k] = 0.5 * (fm[{a}][k] + fp[{a}][k]);"));
            block.push(format!(
                "ghat[{a}][k] = -0.5 * lam[k] * (fp[{a}][k] - fm[{a}][k]);"
            ));
        }
        write_lane_block(&mut s, &block);
        let flux: Vec<LaneAxpy> = surf
            .kernel
            .dmat
            .entries
            .iter()
            .filter(|e| face_support.contains(&(e.m as usize)))
            .map(|e| LaneAxpy {
                target: format!("ghat[{}]", e.l),
                coeff: format!("{:?}", e.coeff),
                operands: vec![format!("alpha[{}]", e.m), format!("favg[{}]", e.n)],
            })
            .collect();
        write_lane_runs(&mut s, &flux);
        write_lane_runs(&mut s, &lift_stmts(1, "out_lo", "-scale", "ghat", fb));
        write_lane_runs(&mut s, &lift_stmts(-1, "out_hi", "scale", "ghat", fb));
        let _ = writeln!(s, "}}");

        // ---- LDG gradient pass: g = ∇_{v_j} f with one-sided fluxes. ----
        let _ = writeln!(s);
        write_lane_generic_entry_points(
            &mut s,
            &format!("{stem}_diff_grad_v{j}"),
            &format!(
                "/// LDG gradient in v{j} for one cell: volume gradient-mass plus the\n\
                 /// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and\n\
                 /// the cell's own lower trace.\n"
            ),
            &[
                Shared("dv", "f64"),
                Shared("at_upper", "bool"),
                In("f", np),
                In("f_up", np),
                Out("g", np),
            ],
            LBO_ENTRY_POINTS,
        );
        let _ = writeln!(s, "    let scale = 2.0 / dv;");
        let grad: Vec<LaneAxpy> = td
            .grad_mass
            .iter()
            .map(|&(l, m, c)| {
                LaneAxpy::new(
                    format!("g[{l}]"),
                    format!("-scale * {c:?}"),
                    format!("f[{m}]"),
                )
            })
            .collect();
        write_lane_runs(&mut s, &grad);
        let _ = writeln!(s, "    let mut tr = [[0.0f64; L]; {nf}];");
        let _ = writeln!(s, "    if at_upper {{");
        write_lane_runs_at(&mut s, "        ", &trace_stmts(1, "tr", "f", fb));
        let _ = writeln!(s, "    }} else {{");
        write_lane_runs_at(&mut s, "        ", &trace_stmts(-1, "tr", "f_up", fb));
        let _ = writeln!(s, "    }}");
        write_lane_runs(&mut s, &lift_stmts(1, "g", "scale", "tr", fb));
        let _ = writeln!(s, "    let mut tl = [[0.0f64; L]; {nf}];");
        write_lane_runs(&mut s, &trace_stmts(-1, "tl", "f", fb));
        write_lane_runs(&mut s, &lift_stmts(-1, "g", "-scale", "tl", fb));
        let _ = writeln!(s, "}}");

        // ---- Diffusion volume: weak ∇_v · (ν vth² ∇_v f), cell interior. ----
        let _ = writeln!(s);
        write_lane_generic_entry_points(
            &mut s,
            &format!("{stem}_diff_vol_v{j}"),
            &format!("/// LBO diffusion volume term in v{j}: weak `ν vth²(x) ∂_v g`.\n"),
            &[
                Shared("nu", "f64"),
                Shared("dv", "f64"),
                In("vth2", nc),
                In("g", np),
                Out("out", np),
            ],
            LBO_ENTRY_POINTS,
        );
        let _ = writeln!(s, "    let scale = 2.0 / dv;");
        let _ = writeln!(s, "    let mut alpha = [[0.0f64; L]; {np}];");
        let block: Vec<String> = (0..nc)
            .map(|l| {
                format!(
                    "alpha[{}][k] = {:?} * vth2[{l}][k];",
                    td.emb_phase[l], td.w_phase
                )
            })
            .collect();
        write_lane_block(&mut s, &block);
        let contraction: Vec<LaneAxpy> = td
            .diff_vol
            .entries
            .iter()
            .map(|e| LaneAxpy {
                target: format!("out[{}]", e.l),
                coeff: format!("-nu * scale * {:?}", e.coeff),
                operands: vec![format!("alpha[{}]", e.m), format!("g[{}]", e.n)],
            })
            .collect();
        write_lane_runs(&mut s, &contraction);
        let _ = writeln!(s, "}}");

        // ---- Diffusion surface: central flux of g at one interior face. ----
        let _ = writeln!(s);
        write_lane_generic_entry_points(
            &mut s,
            &format!("{stem}_diff_surf_v{j}"),
            &format!(
                "/// LBO diffusion surface term in v{j} at one interior face: one-sided\n\
                 /// flux of the LDG gradient (lower cell's upper trace), both sides\n\
                 /// updated.\n"
            ),
            &[
                Shared("nu", "f64"),
                Shared("dv", "f64"),
                In("vth2", nc),
                In("g_lo", np),
                Out("out_lo", np),
                Out("out_hi", np),
            ],
            LBO_ENTRY_POINTS,
        );
        let _ = writeln!(s, "    let scale = 2.0 / dv;");
        let _ = writeln!(s, "    let mut alpha = [[0.0f64; L]; {nf}];");
        let block: Vec<String> = (0..nc)
            .map(|l| {
                format!(
                    "alpha[{}][k] = {:?} * vth2[{l}][k];",
                    td.emb_face[l], td.w_face
                )
            })
            .collect();
        write_lane_block(&mut s, &block);
        let _ = writeln!(s, "    let mut tr = [[0.0f64; L]; {nf}];");
        write_lane_runs(&mut s, &trace_stmts(1, "tr", "g_lo", fb));
        let _ = writeln!(s, "    let mut ghat = [[0.0f64; L]; {nf}];");
        let flux: Vec<LaneAxpy> = surf
            .kernel
            .dmat
            .entries
            .iter()
            .filter(|e| face_support.contains(&(e.m as usize)))
            .map(|e| LaneAxpy {
                target: format!("ghat[{}]", e.l),
                coeff: format!("{:?}", e.coeff),
                operands: vec![format!("alpha[{}]", e.m), format!("tr[{}]", e.n)],
            })
            .collect();
        write_lane_runs(&mut s, &flux);
        write_lane_runs(&mut s, &lift_stmts(1, "out_lo", "nu * scale", "ghat", fb));
        write_lane_runs(&mut s, &lift_stmts(-1, "out_hi", "-nu * scale", "ghat", fb));
        let _ = writeln!(s, "}}");
    }
    s
}

/// Public shim over the cross-product term table (shared with `accel`).
pub fn cross_terms_pub(j: usize, vdim: usize) -> Vec<(usize, usize, f64)> {
    const TERMS: [[(usize, usize, f64); 2]; 3] = [
        [(1, 2, 1.0), (2, 1, -1.0)],
        [(2, 0, 1.0), (0, 2, -1.0)],
        [(0, 1, 1.0), (1, 0, -1.0)],
    ];
    TERMS[j].into_iter().filter(|&(k, _, _)| k < vdim).collect()
}

/// Count of accumulates into `out[...]` in generated volume-kernel source
/// (for audits): the lane-loop statements `out[l][k] += …` and the one-off
/// `sxn(&mut out[l], …)` calls.
pub fn count_update_statements(src: &str) -> usize {
    src.lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("out[") || l.starts_with("sxn(&mut out["))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{PhaseKernels, PhaseLayout};
    use dg_basis::BasisKind;

    #[test]
    fn generated_source_has_expected_shape() {
        let pk = PhaseKernels::build(BasisKind::Tensor, PhaseLayout::new(1, 2), 1);
        let src = volume_kernel_source(&pk, "vol_1x2v_p1_tensor");
        assert!(src.contains("pub fn vol_1x2v_p1_tensor"));
        assert!(src.contains("alpha0"));
        assert!(src.contains("alpha1"));
        // Update statement count equals total tensor nnz.
        let want = pk
            .streaming
            .iter()
            .map(|s| s.s0.nnz() + s.s1.nnz())
            .sum::<usize>()
            + pk.accel_vol
                .iter()
                .map(|a| a.entries().len())
                .sum::<usize>();
        assert_eq!(count_update_statements(&src), want);
    }

    /// Check that every lane-generic body in surface-kernel source `src`
    /// writes each of the `np` coefficients of `out_lo` and `out_hi` exactly
    /// once — a lane-loop `out_lo[i][k] += …` or a one-off
    /// `sxn(&mut out_lo[i], …)`; returns how many bodies it checked.
    fn surface_bodies_write_each_output_once(src: &str, np: usize) -> Result<usize, String> {
        let mut bodies: Vec<(&str, [Vec<usize>; 2])> = Vec::new();
        for line in src.lines().map(str::trim_start) {
            if line.starts_with("fn ") && line.contains("_body<const L: usize>") {
                bodies.push((line, [vec![0; np], vec![0; np]]));
                continue;
            }
            for (side, name) in ["out_lo[", "out_hi["].iter().enumerate() {
                let Some(rest) = line
                    .strip_prefix(name)
                    .or_else(|| line.strip_prefix("sxn(&mut ")?.strip_prefix(name))
                else {
                    continue;
                };
                let i: usize = rest[..rest.find(']').ok_or("unclosed index")?]
                    .parse()
                    .map_err(|e| format!("{line}: {e}"))?;
                let (_, writes) = bodies.last_mut().ok_or("a write outside any body")?;
                writes[side][i] += 1;
            }
        }
        for (body, writes) in &bodies {
            for (side, counts) in ["out_lo", "out_hi"].iter().zip(writes) {
                if let Some(i) = counts.iter().position(|&n| n != 1) {
                    return Err(format!("{body}: {side}[{i}] written {} times", counts[i]));
                }
            }
        }
        Ok(bodies.len())
    }

    #[test]
    fn every_surface_body_writes_each_output_coefficient_once() {
        // What lets the cell-lane pass accumulate faces straight into its
        // resident panels bit-identically to a zeroed-panel face sweep.
        for spec in MANIFEST {
            let pk = crate::kernels_for(spec.kind, spec.layout(), spec.poly_order);
            let src = surface_kernel_source(&pk, spec);
            let bodies = surface_bodies_write_each_output_once(&src, pk.np())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.surf_name()));
            assert_eq!(bodies, spec.cdim + spec.vdim, "{}", spec.surf_name());
        }
        // A doubled lift statement must not slip through.
        let spec = &MANIFEST[0];
        let pk = crate::kernels_for(spec.kind, spec.layout(), spec.poly_order);
        let src = surface_kernel_source(&pk, spec);
        let lift = src
            .lines()
            .find(|l| l.trim_start().starts_with("sxn(&mut out_hi["))
            .expect("lifts are one-off accumulates");
        let doubled = src.replacen(lift, &format!("{lift}\n{lift}"), 1);
        assert!(surface_bodies_write_each_output_once(&doubled, pk.np()).is_err());
    }

    #[test]
    fn fig1_kernel_is_compact() {
        // The paper's headline: the modal 1X2V p=1 tensor volume kernel is
        // ~70 multiplications. Each `out +=` line is 3 multiplies here
        // (coeff·scale·α·f fused by the optimizer); the statement count must
        // be well below the nodal ~250.
        let pk = PhaseKernels::build(BasisKind::Tensor, PhaseLayout::new(1, 2), 1);
        let src = volume_kernel_source(&pk, "k");
        let n = count_update_statements(&src);
        assert!(
            n < 80,
            "Fig. 1 kernel should stay compact, got {n} statements"
        );
        assert!(n > 10);
    }
}
