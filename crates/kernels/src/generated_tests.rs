//! Closed-loop tests for the generated kernels.
//!
//! Two properties per manifest entry:
//!
//! 1. **equivalence** — executing the generated, fully unrolled functions
//!    reproduces the runtime sparse-tensor kernels on random cell data to
//!    round-off (the property the dispatch layer's correctness rests on),
//!    for the volume kernel, every per-direction surface kernel, all three
//!    moment kernels, and all five LBO stage-kernel families;
//! 2. **bitwise batching** — every batched entry point of a lane-generic
//!    body (the portable `_b4` and, where the CPU has them, `_b4_avx2` and
//!    `_b8_avx512`) reproduces the one-lane (scalar) entry point bit for
//!    bit: volume and surface on panel sweeps with a partial last panel,
//!    moved by the arm's own pack / unpack-add, the five LBO stage families
//!    lane by lane with per-lane primitive moments and non-zero incoming
//!    outputs.

// Stencil/loop style: index-coupled kernel-argument sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use crate::accel::VelGeom;
use crate::codegen::{lbo_dir_tables, LboDirTables, MANIFEST};
use crate::dispatch::{
    lbo_registry, moment_registry, surface_registry, volume_registry, LboBatch, PencilLanes,
    SurfaceBatch, SurfaceKernelFn, SurfaceLanes, VolumeBatch, VolumeKernelFn, VolumeLanes, LANES,
};
use crate::kernels_for;
use crate::surface::FaceScratch;
use proptest::prelude::*;

/// Apply the runtime sparse-tensor path with the generated kernels' calling
/// convention (full phase `w`/`dxv`, flattened `em`).
fn runtime_volume_reference(
    pk: &crate::PhaseKernels,
    w: &[f64],
    dxv: &[f64],
    qm: f64,
    em: &[f64],
    f: &[f64],
    out: &mut [f64],
) {
    let (cdim, vdim) = (pk.layout.cdim, pk.layout.vdim);
    let nc = pk.nc();
    for d in 0..cdim {
        let vd = cdim + d;
        pk.streaming[d].apply(f, w[vd], dxv[vd], 2.0 / dxv[d], out);
    }
    let e = &em[..3 * nc];
    let b = [
        &em[3 * nc..4 * nc],
        &em[4 * nc..5 * nc],
        &em[5 * nc..6 * nc],
    ];
    let mut alpha = vec![0.0; pk.np()];
    for j in 0..vdim {
        pk.cell_accel[j].project(
            qm,
            &e[j * nc..(j + 1) * nc],
            b,
            VelGeom {
                v_c: &w[cdim..cdim + vdim],
                dv: &dxv[cdim..cdim + vdim],
            },
            &mut alpha,
        );
        pk.accel_vol[j].apply(&alpha, f, 2.0 / dxv[cdim + j], out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn every_registry_kernel_matches_runtime(
        qm in -3.0..3.0f64,
        w_raw in proptest::collection::vec(-2.0..2.0f64, 6),
        dxv_raw in proptest::collection::vec(0.1..2.0f64, 6),
        em_raw in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
        f_raw in proptest::collection::vec(-1.0..1.0f64, 128),
    ) {
        for entry in volume_registry() {
            let k = entry.key;
            let pk = kernels_for(k.kind, k.layout(), k.poly_order);
            let ndim = k.cdim + k.vdim;
            let (np, nc) = (pk.np(), pk.nc());
            prop_assert!(np <= f_raw.len() && 8 * nc <= em_raw.len());
            let w = &w_raw[..ndim];
            let dxv = &dxv_raw[..ndim];
            let em = &em_raw[..8 * nc];
            let f = &f_raw[..np];

            let mut out_gen = vec![0.0; np];
            (entry.func)(w, dxv, qm, em, f, &mut out_gen);
            let mut out_rt = vec![0.0; np];
            runtime_volume_reference(&pk, w, dxv, qm, em, f, &mut out_rt);

            for i in 0..np {
                prop_assert!(
                    (out_gen[i] - out_rt[i]).abs() < 1e-13,
                    "{} mode {i}: generated {} vs runtime {}",
                    entry.name, out_gen[i], out_rt[i]
                );
            }
        }
    }
}

/// The batched entry points are the inputs of the bitwise proptests, but
/// two of them the host may lack: every arm says once per test whether it
/// `ran` or was `skipped: no <isa>` (CI requires all arms to report, and
/// fails a runner that has the ISA but skipped its arm) instead of passing
/// silently. `missing` names the CPU feature an arm could not find.
fn report_arm(once: &std::sync::Once, test: &str, arm: &str, missing: Option<&str>) {
    once.call_once(|| match missing {
        None => println!("{test}: {arm} arm ran"),
        Some(isa) => println!("{test}: {arm} arm skipped: no {isa}"),
    });
}

/// A run of cells (or faces) sharing one configuration cell, as the
/// proptests draw it: per-item centers and coefficients, shared grid and
/// field data.
struct Run<'a> {
    n: usize,
    ndim: usize,
    np: usize,
    dxv: &'a [f64],
    qm: f64,
    em: &'a [f64],
    w_raw: &'a [f64],
}

impl Run<'_> {
    fn w(&self, i: usize) -> &[f64] {
        &self.w_raw[i * 6..i * 6 + self.ndim]
    }

    /// Item `i`'s coefficients in `raw` (128 slots per item).
    fn coeffs<'a>(&self, raw: &'a [f64], i: usize) -> &'a [f64] {
        &raw[i * 128..i * 128 + self.np]
    }

    /// The items of the panel starting at `i0` — a partial panel repeats
    /// its last item in the spare lanes — and how many are real.
    fn panel<const L: usize>(&self, i0: usize) -> ([usize; L], usize) {
        let lanes = L.min(self.n - i0);
        (std::array::from_fn(|k| i0 + k.min(lanes - 1)), lanes)
    }

    /// The centers of `items` as an SoA panel.
    fn w_panel<const L: usize>(&self, items: &[usize; L]) -> Vec<[f64; L]> {
        (0..self.ndim)
            .map(|d| items.map(|i| self.w(i)[d]))
            .collect()
    }
}

/// `out[items[k]] += panel lane k` for the real lanes, through the arm's
/// own unpack-add (an empty cell marks a spare lane).
fn unpack_run<const L: usize>(
    moves: &crate::panel::PanelMoves<L>,
    out: &mut [Vec<f64>],
    items: &[usize; L],
    lanes: usize,
    panel: &[[f64; L]],
) {
    let mut cells: [&mut [f64]; L] = std::array::from_fn(|_| Default::default());
    for (i, cell) in out.iter_mut().enumerate() {
        if let Some(k) = items[..lanes].iter().position(|&item| item == i) {
            cells[k] = cell;
        }
    }
    moves.unpack_add(cells, panel);
}

/// The volume sweep of `VlasovOp::volume` over one run, at lane width `L`:
/// panels packed, run and unpack-added with the arm's own moves.
fn volume_run<const L: usize>(k: VolumeLanes<L>, run: &Run, f_raw: &[f64]) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0f64; run.np]; run.n];
    for i0 in (0..run.n).step_by(L) {
        let (items, lanes) = run.panel::<L>(i0);
        let wp = run.w_panel(&items);
        let mut fp = vec![[0.0; L]; run.np];
        k.moves.pack(&mut fp, items.map(|i| run.coeffs(f_raw, i)));
        let mut op = vec![[0.0; L]; run.np];
        k.call(&wp, run.dxv, run.qm, run.em, &fp, &mut op);
        unpack_run(&k.moves, &mut out, &items, lanes, &op);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Every batched entry point of every generated volume kernel
    /// reproduces the one-lane entry point — **bit for bit**, not merely to
    /// round-off — when a run of cells is evaluated as SoA panels with a
    /// partial last one, for every run length 1..=9 (so every partial lane
    /// count of both widths is exercised): `L = 1` ≡ `_b4` ≡ `_b4_avx2` ≡
    /// `_b8_avx512`. This is the property that lets dispatch batch any run
    /// of cells and pick entry point and lane width from the CPU, all
    /// without perturbing the solver's trajectory.
    #[test]
    fn every_registry_batch_kernel_matches_scalar_bitwise(
        qm in -3.0..3.0f64,
        ncells in 1usize..=9,
        w_raw in proptest::collection::vec(-2.0..2.0f64, 6 * 9),
        dxv_raw in proptest::collection::vec(0.1..2.0f64, 6),
        em_raw in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
        f_raw in proptest::collection::vec(-1.0..1.0f64, 128 * 9),
    ) {
        const TEST: &str = "every_registry_batch_kernel_matches_scalar_bitwise";
        static ARMS: [std::sync::Once; 4] = [const { std::sync::Once::new() }; 4];
        for entry in volume_registry() {
            let k = entry.key;
            let pk = kernels_for(k.kind, k.layout(), k.poly_order);
            let (np, nc) = (pk.np(), pk.nc());
            prop_assert!(np <= 128 && 8 * nc <= em_raw.len());
            let run = Run {
                n: ncells,
                ndim: k.cdim + k.vdim,
                np,
                dxv: &dxv_raw[..k.cdim + k.vdim],
                qm,
                em: &em_raw[..8 * nc],
                w_raw: &w_raw,
            };

            // Per-cell one-lane reference (accumulating from zero, as the
            // volume term does in the RHS sweep).
            let func: VolumeKernelFn = entry.func;
            let mut scalar_out = vec![vec![0.0f64; np]; ncells];
            for c in 0..ncells {
                func(run.w(c), run.dxv, qm, run.em, run.coeffs(&f_raw, c), &mut scalar_out[c]);
            }
            report_arm(&ARMS[0], TEST, "L = 1", None);

            let (avx2, avx512) = (VolumeBatch::avx2(entry), VolumeBatch::avx512(entry));
            report_arm(&ARMS[1], TEST, "_b4", None);
            report_arm(&ARMS[2], TEST, "_b4_avx2", avx2.is_none().then_some("avx2"));
            report_arm(&ARMS[3], TEST, "_b8_avx512", avx512.is_none().then_some("avx512f"));
            let arms = [
                ("_b4", Some(VolumeBatch::baseline(entry))),
                ("_b4_avx2", avx2),
                ("_b8_avx512", avx512),
            ];
            for (arm, batch) in arms {
                let Some(batch) = batch else { continue };
                let batched_out = match batch {
                    VolumeBatch::X4(k) => volume_run(k, &run, &f_raw),
                    VolumeBatch::X8(k) => volume_run(k, &run, &f_raw),
                };
                for c in 0..ncells {
                    for i in 0..np {
                        prop_assert!(
                            scalar_out[c][i].to_bits() == batched_out[c][i].to_bits(),
                            "{}{arm} cell {c} mode {i}: batched {} vs scalar {}",
                            entry.name, batched_out[c][i], scalar_out[c][i]
                        );
                    }
                }
            }
        }
    }
}

/// Apply the runtime surface path (α̂ builder + [`SurfaceKernel::apply`])
/// with the generated kernels' calling convention for one direction.
///
/// [`SurfaceKernel::apply`]: crate::surface::SurfaceKernel::apply
#[allow(clippy::too_many_arguments)]
fn runtime_surface_reference(
    pk: &crate::PhaseKernels,
    dir: usize,
    w: &[f64],
    dxv: &[f64],
    qm: f64,
    em: &[f64],
    penalty: bool,
    f_lo: &[f64],
    f_hi: &[f64],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
) {
    let (cdim, vdim) = (pk.layout.cdim, pk.layout.vdim);
    let nc = pk.nc();
    let surf = &pk.surfaces[dir];
    let nf = surf.kernel.face.len();
    let mut alpha_face = vec![0.0; nf];
    let lam = if dir < cdim {
        let vd = cdim + dir;
        pk.stream_face_alpha(dir, w[vd], dxv[vd], &mut alpha_face)
    } else {
        let j = dir - cdim;
        let e = &em[..3 * nc];
        let b = [
            &em[3 * nc..4 * nc],
            &em[4 * nc..5 * nc],
            &em[5 * nc..6 * nc],
        ];
        surf.face_accel.as_ref().expect("velocity face").project(
            qm,
            &e[j * nc..(j + 1) * nc],
            b,
            VelGeom {
                v_c: &w[cdim..cdim + vdim],
                dv: &dxv[cdim..cdim + vdim],
            },
            &mut alpha_face,
        )
    };
    let lam = if penalty { lam } else { 0.0 };
    let mut ws = FaceScratch::default();
    surf.kernel.apply(
        f_lo,
        f_hi,
        &alpha_face,
        lam,
        2.0 / dxv[dir],
        Some(out_lo),
        Some(out_hi),
        &mut ws,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn every_registry_surface_kernel_matches_runtime(
        qm in -3.0..3.0f64,
        penalty_raw in 0usize..2,
        w_raw in proptest::collection::vec(-2.0..2.0f64, 6),
        dxv_raw in proptest::collection::vec(0.1..2.0f64, 6),
        em_raw in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
        f_lo_raw in proptest::collection::vec(-1.0..1.0f64, 128),
        f_hi_raw in proptest::collection::vec(-1.0..1.0f64, 128),
    ) {
        let penalty = penalty_raw == 1;
        for entry in surface_registry() {
            let k = entry.key;
            let pk = kernels_for(k.kind, k.layout(), k.poly_order);
            let ndim = k.cdim + k.vdim;
            let (np, nc) = (pk.np(), pk.nc());
            prop_assert!(np <= f_lo_raw.len() && 8 * nc <= em_raw.len());
            let w = &w_raw[..ndim];
            let dxv = &dxv_raw[..ndim];
            let em = &em_raw[..8 * nc];
            let f_lo = &f_lo_raw[..np];
            let f_hi = &f_hi_raw[..np];

            prop_assert!(entry.dirs.len() == ndim, "{}: direction count", entry.name);
            for (dir, kernel) in entry.dirs.iter().enumerate() {
                let mut lo_gen = vec![0.0; np];
                let mut hi_gen = vec![0.0; np];
                kernel(w, dxv, qm, em, penalty, f_lo, f_hi, &mut lo_gen, &mut hi_gen);
                let mut lo_rt = vec![0.0; np];
                let mut hi_rt = vec![0.0; np];
                runtime_surface_reference(
                    &pk, dir, w, dxv, qm, em, penalty, f_lo, f_hi, &mut lo_rt, &mut hi_rt,
                );
                for i in 0..np {
                    prop_assert!(
                        (lo_gen[i] - lo_rt[i]).abs() < 1e-13,
                        "{} dir {dir} lower mode {i}: generated {} vs runtime {}",
                        entry.name, lo_gen[i], lo_rt[i]
                    );
                    prop_assert!(
                        (hi_gen[i] - hi_rt[i]).abs() < 1e-13,
                        "{} dir {dir} upper mode {i}: generated {} vs runtime {}",
                        entry.name, hi_gen[i], hi_rt[i]
                    );
                }
            }
        }
    }
}

/// One direction's face sweep over one run at lane width `L` — the panel
/// loop of `VlasovOp::surface_velocity_panels`, with distinct cells on
/// either side of every face.
fn surface_run<const L: usize>(
    k: SurfaceLanes<L>,
    run: &Run,
    penalty: bool,
    f_lo_raw: &[f64],
    f_hi_raw: &[f64],
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut lo = vec![vec![0.0f64; run.np]; run.n];
    let mut hi = vec![vec![0.0f64; run.np]; run.n];
    for i0 in (0..run.n).step_by(L) {
        let (items, lanes) = run.panel::<L>(i0);
        let wp = run.w_panel(&items);
        let (mut flp, mut fhp) = (vec![[0.0; L]; run.np], vec![[0.0; L]; run.np]);
        k.moves
            .pack(&mut flp, items.map(|i| run.coeffs(f_lo_raw, i)));
        k.moves
            .pack(&mut fhp, items.map(|i| run.coeffs(f_hi_raw, i)));
        let (mut olp, mut ohp) = (vec![[0.0; L]; run.np], vec![[0.0; L]; run.np]);
        k.call(
            &wp, run.dxv, run.qm, run.em, penalty, &flp, &fhp, &mut olp, &mut ohp,
        );
        unpack_run(&k.moves, &mut hi, &items, lanes, &ohp);
        unpack_run(&k.moves, &mut lo, &items, lanes, &olp);
    }
    (lo, hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Every batched entry point of every generated surface kernel
    /// (`_b4`, `_b4_avx2`, `_b8_avx512`) reproduces the one-lane entry
    /// point bit for bit on a panel sweep with a partial last panel, for
    /// every run length 1..=9. This is what lets the RHS sweep batch faces,
    /// keep wall faces scalar, and pick entry point and lane width from
    /// the CPU without perturbing the trajectory.
    #[test]
    fn every_registry_surface_batch_matches_scalar_bitwise(
        qm in -3.0..3.0f64,
        penalty_raw in 0usize..2,
        n_faces in 1usize..=9,
        w_raw in proptest::collection::vec(-2.0..2.0f64, 6 * 9),
        dxv_raw in proptest::collection::vec(0.1..2.0f64, 6),
        em_raw in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
        f_lo_raw in proptest::collection::vec(-1.0..1.0f64, 128 * 9),
        f_hi_raw in proptest::collection::vec(-1.0..1.0f64, 128 * 9),
    ) {
        const TEST: &str = "every_registry_surface_batch_matches_scalar_bitwise";
        static ARMS: [std::sync::Once; 4] = [const { std::sync::Once::new() }; 4];
        let penalty = penalty_raw == 1;
        for entry in surface_registry() {
            let k = entry.key;
            let pk = kernels_for(k.kind, k.layout(), k.poly_order);
            let ndim = k.cdim + k.vdim;
            let (np, nc) = (pk.np(), pk.nc());
            prop_assert!(np <= 128 && 8 * nc <= em_raw.len());
            let run = Run {
                n: n_faces,
                ndim,
                np,
                dxv: &dxv_raw[..ndim],
                qm,
                em: &em_raw[..8 * nc],
                w_raw: &w_raw,
            };

            prop_assert!(entry.batch.len() == ndim, "{}: batch count", entry.name);
            for dir in 0..ndim {
                // Per-face one-lane reference (zero-initialized outputs).
                let kernel: SurfaceKernelFn = entry.dirs[dir];
                let mut lo_ref = vec![vec![0.0f64; np]; n_faces];
                let mut hi_ref = vec![vec![0.0f64; np]; n_faces];
                for i in 0..n_faces {
                    kernel(
                        run.w(i), run.dxv, qm, run.em, penalty,
                        run.coeffs(&f_lo_raw, i), run.coeffs(&f_hi_raw, i),
                        &mut lo_ref[i], &mut hi_ref[i],
                    );
                }
                report_arm(&ARMS[0], TEST, "L = 1", None);

                let avx2 = SurfaceBatch::avx2(entry, dir);
                let avx512 = SurfaceBatch::avx512(entry, dir);
                report_arm(&ARMS[1], TEST, "_b4", None);
                report_arm(&ARMS[2], TEST, "_b4_avx2", avx2.is_none().then_some("avx2"));
                report_arm(&ARMS[3], TEST, "_b8_avx512", avx512.is_none().then_some("avx512f"));
                let arms = [
                    ("_b4", Some(SurfaceBatch::baseline(entry, dir))),
                    ("_b4_avx2", avx2),
                    ("_b8_avx512", avx512),
                ];
                for (arm, batch) in arms {
                    let Some(batch) = batch else { continue };
                    let (lo, hi) = match batch {
                        SurfaceBatch::X4(k) => surface_run(k, &run, penalty, &f_lo_raw, &f_hi_raw),
                        SurfaceBatch::X8(k) => surface_run(k, &run, penalty, &f_lo_raw, &f_hi_raw),
                    };
                    for i in 0..n_faces {
                        for n in 0..np {
                            prop_assert!(
                                lo_ref[i][n].to_bits() == lo[i][n].to_bits(),
                                "{}{arm} dir {dir} face {i} lower mode {n}: batched {} vs scalar {}",
                                entry.name, lo[i][n], lo_ref[i][n]
                            );
                            prop_assert!(
                                hi_ref[i][n].to_bits() == hi[i][n].to_bits(),
                                "{}{arm} dir {dir} face {i} upper mode {n}: batched {} vs scalar {}",
                                entry.name, hi[i][n], hi_ref[i][n]
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Every generated moment kernel (`M0`, per-direction `M1`, `M2`)
    /// reproduces the runtime weak-op reduction of `MomentKernels`.
    #[test]
    fn every_moment_registry_kernel_matches_runtime(
        jv in 0.1..2.0f64,
        vc_raw in proptest::collection::vec(-2.0..2.0f64, 3),
        dv_raw in proptest::collection::vec(0.1..2.0f64, 3),
        f_raw in proptest::collection::vec(-1.0..1.0f64, 128),
    ) {
        for entry in moment_registry() {
            let k = entry.key;
            let pk = kernels_for(k.kind, k.layout(), k.poly_order);
            let (np, nc) = (pk.np(), pk.nc());
            prop_assert!(np <= f_raw.len());
            let f = &f_raw[..np];
            let vc = &vc_raw[..k.vdim];
            let dv = &dv_raw[..k.vdim];

            let compare = |gen: &[f64], rt: &[f64], what: &str| {
                for l in 0..nc {
                    prop_assert!(
                        (gen[l] - rt[l]).abs() < 1e-13,
                        "{} {what} mode {l}: generated {} vs runtime {}",
                        entry.name, gen[l], rt[l]
                    );
                }
            };

            let mut gen = vec![0.0; nc];
            let mut rt = vec![0.0; nc];
            (entry.m0)(f, jv, &mut gen);
            pk.moments.accumulate_m0(f, jv, &mut rt);
            compare(&gen, &rt, "M0");

            prop_assert!(entry.m1.len() == k.vdim, "{}: M1 count", entry.name);
            for j in 0..k.vdim {
                gen.iter_mut().for_each(|x| *x = 0.0);
                rt.iter_mut().for_each(|x| *x = 0.0);
                (entry.m1[j])(f, jv, vc[j], dv[j], &mut gen);
                pk.moments.accumulate_m1(j, f, jv, vc[j], dv[j], &mut rt);
                compare(&gen, &rt, &format!("M1_v{j}"));
            }

            gen.iter_mut().for_each(|x| *x = 0.0);
            rt.iter_mut().for_each(|x| *x = 0.0);
            (entry.m2)(f, jv, vc, dv, &mut gen);
            pk.moments.accumulate_m2(f, jv, vc, dv, &mut rt);
            compare(&gen, &rt, "M2");
        }
    }
}

/// Interpreted [`LboDirTables`] per registry entry, built once — the
/// sparse-tensor construction is the expensive part, not the applies.
fn lbo_reference_tables() -> &'static [Vec<LboDirTables>] {
    static TABLES: std::sync::OnceLock<Vec<Vec<LboDirTables>>> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        lbo_registry()
            .iter()
            .map(|e| {
                let pk = kernels_for(e.key.kind, e.key.layout(), e.key.poly_order);
                (0..e.key.vdim).map(|j| lbo_dir_tables(&pk, j)).collect()
            })
            .collect()
    })
}

/// Runtime drag-volume reference: the exact statement sequence of
/// `dg_core::lbo::LboOp::accumulate_rhs_range`'s drag volume loop,
/// interpreted from [`LboDirTables`].
#[allow(clippy::too_many_arguments)]
fn runtime_lbo_drag_vol(
    np: usize,
    td: &LboDirTables,
    nu: f64,
    v_c: f64,
    dv: f64,
    u: &[f64],
    f: &[f64],
    out: &mut [f64],
) {
    let mut alpha = vec![0.0; np];
    alpha[0] = -nu * v_c * td.c0p;
    alpha[td.lin_idx] = -nu * 0.5 * dv * td.c1p;
    for (l, &e) in td.emb_phase.iter().enumerate() {
        alpha[e as usize] += nu * td.w_phase * u[l];
    }
    td.drag_vol.apply(&alpha, f, 2.0 / dv, out);
}

/// Runtime drag-surface reference (penalized central flux at one interior
/// velocity face).
#[allow(clippy::too_many_arguments)]
fn runtime_lbo_drag_surf(
    pk: &crate::PhaseKernels,
    td: &LboDirTables,
    j: usize,
    nu: f64,
    vstar: f64,
    dv: f64,
    u: &[f64],
    f_lo: &[f64],
    f_hi: &[f64],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
) {
    let surf = &pk.surfaces[pk.layout.cdim + j].kernel;
    let nf = surf.face.len();
    let mut alpha_face = vec![0.0; nf];
    alpha_face[0] = -nu * vstar * td.c0f;
    for (l, &e) in td.emb_face.iter().enumerate() {
        alpha_face[e as usize] += nu * td.w_face * u[l];
    }
    let lam = surf.sup_bound(&alpha_face);
    let mut fs = FaceScratch::default();
    surf.apply(
        f_lo,
        f_hi,
        &alpha_face,
        lam,
        2.0 / dv,
        Some(out_lo),
        Some(out_hi),
        &mut fs,
    );
}

/// Runtime LDG gradient reference (`g += ∂f/∂v_j`, trace from above).
#[allow(clippy::too_many_arguments)]
fn runtime_lbo_diff_grad(
    pk: &crate::PhaseKernels,
    td: &LboDirTables,
    j: usize,
    dv: f64,
    at_upper: bool,
    f: &[f64],
    f_up: &[f64],
    g: &mut [f64],
) {
    let surf = &pk.surfaces[pk.layout.cdim + j].kernel;
    let nf = surf.face.len();
    let scale = 2.0 / dv;
    for &(l, m, c) in &td.grad_mass {
        g[l as usize] += -scale * c * f[m as usize];
    }
    let mut trace = vec![0.0; nf];
    if at_upper {
        surf.face.restrict(1, f, &mut trace);
    } else {
        surf.face.restrict(-1, f_up, &mut trace);
    }
    surf.face.lift(1, &trace, scale, g);
    trace.iter_mut().for_each(|x| *x = 0.0);
    surf.face.restrict(-1, f, &mut trace);
    surf.face.lift(-1, &trace, -scale, g);
}

/// Runtime diffusion-volume reference (weak `ν vth² ∂_{v_j} g` cell term).
fn runtime_lbo_diff_vol(
    np: usize,
    td: &LboDirTables,
    nu: f64,
    dv: f64,
    vth2: &[f64],
    g: &[f64],
    out: &mut [f64],
) {
    let mut alpha = vec![0.0; np];
    for (l, &e) in td.emb_phase.iter().enumerate() {
        alpha[e as usize] = td.w_phase * vth2[l];
    }
    td.diff_vol.apply(&alpha, g, -nu * (2.0 / dv), out);
}

/// Runtime diffusion-surface reference (one-sided LDG flux at one interior
/// velocity face, trace from below).
#[allow(clippy::too_many_arguments)]
fn runtime_lbo_diff_surf(
    pk: &crate::PhaseKernels,
    td: &LboDirTables,
    j: usize,
    nu: f64,
    dv: f64,
    vth2: &[f64],
    g_lo: &[f64],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
) {
    let surf = &pk.surfaces[pk.layout.cdim + j].kernel;
    let nf = surf.face.len();
    let scale = 2.0 / dv;
    let mut alpha_face = vec![0.0; nf];
    for (l, &e) in td.emb_face.iter().enumerate() {
        alpha_face[e as usize] = td.w_face * vth2[l];
    }
    let mut trace = vec![0.0; nf];
    surf.face.restrict(1, g_lo, &mut trace);
    let mut ghat = vec![0.0; nf];
    surf.dmat.apply(&alpha_face, &trace, 1.0, &mut ghat);
    surf.face.lift(1, &ghat, nu * scale, out_lo);
    surf.face.lift(-1, &ghat, -nu * scale, out_hi);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Every generated LBO stage kernel (drag volume/surface, LDG
    /// gradient, diffusion volume/surface, per velocity direction)
    /// reproduces the runtime sparse path interpreted from the same
    /// [`LboDirTables`] the generator unrolled.
    #[test]
    fn every_lbo_registry_kernel_matches_runtime(
        nu in 0.1..2.0f64,
        v_c in -2.0..2.0f64,
        vstar in -2.0..2.0f64,
        at_upper_raw in 0usize..2,
        dv_raw in proptest::collection::vec(0.1..2.0f64, 3),
        u_raw in proptest::collection::vec(-1.0..1.0f64, 8),
        vth2_raw in proptest::collection::vec(0.1..2.0f64, 8),
        f_raw in proptest::collection::vec(-1.0..1.0f64, 128),
        f2_raw in proptest::collection::vec(-1.0..1.0f64, 128),
    ) {
        let at_upper = at_upper_raw == 1;
        for (ei, entry) in lbo_registry().iter().enumerate() {
            let k = entry.key;
            let pk = kernels_for(k.kind, k.layout(), k.poly_order);
            let (np, nc) = (pk.np(), pk.nc());
            prop_assert!(np <= f_raw.len() && nc <= u_raw.len());
            let f = &f_raw[..np];
            let f2 = &f2_raw[..np];
            let u = &u_raw[..nc];
            let vth2 = &vth2_raw[..nc];

            let stages = [
                entry.drag_vol.len(), entry.drag_surf.len(), entry.diff_grad.len(),
                entry.diff_vol.len(), entry.diff_surf.len(),
            ];
            prop_assert!(stages == [k.vdim; 5], "{}: stage counts {stages:?}", entry.name);

            let compare = |gen: &[f64], rt: &[f64], what: &str| {
                for i in 0..np {
                    prop_assert!(
                        (gen[i] - rt[i]).abs() < 1e-13,
                        "{} {what} mode {i}: generated {} vs runtime {}",
                        entry.name, gen[i], rt[i]
                    );
                }
            };

            for j in 0..k.vdim {
                let td = &lbo_reference_tables()[ei][j];
                let dv = dv_raw[j];

                let mut gen = vec![0.0; np];
                let mut rt = vec![0.0; np];
                (entry.drag_vol[j])(nu, v_c, dv, u, f, &mut gen);
                runtime_lbo_drag_vol(np, td, nu, v_c, dv, u, f, &mut rt);
                compare(&gen, &rt, &format!("drag_vol_v{j}"));

                let (mut gen_hi, mut rt_hi) = (vec![0.0; np], vec![0.0; np]);
                gen.iter_mut().for_each(|x| *x = 0.0);
                rt.iter_mut().for_each(|x| *x = 0.0);
                (entry.drag_surf[j])(nu, vstar, dv, u, f, f2, &mut gen, &mut gen_hi);
                runtime_lbo_drag_surf(
                    &pk, td, j, nu, vstar, dv, u, f, f2, &mut rt, &mut rt_hi,
                );
                compare(&gen, &rt, &format!("drag_surf_v{j} lower"));
                compare(&gen_hi, &rt_hi, &format!("drag_surf_v{j} upper"));

                gen.iter_mut().for_each(|x| *x = 0.0);
                rt.iter_mut().for_each(|x| *x = 0.0);
                (entry.diff_grad[j])(dv, at_upper, f, f2, &mut gen);
                runtime_lbo_diff_grad(&pk, td, j, dv, at_upper, f, f2, &mut rt);
                compare(&gen, &rt, &format!("diff_grad_v{j}"));

                gen.iter_mut().for_each(|x| *x = 0.0);
                rt.iter_mut().for_each(|x| *x = 0.0);
                (entry.diff_vol[j])(nu, dv, vth2, f, &mut gen);
                runtime_lbo_diff_vol(np, td, nu, dv, vth2, f, &mut rt);
                compare(&gen, &rt, &format!("diff_vol_v{j}"));

                gen.iter_mut().for_each(|x| *x = 0.0);
                rt.iter_mut().for_each(|x| *x = 0.0);
                gen_hi.iter_mut().for_each(|x| *x = 0.0);
                rt_hi.iter_mut().for_each(|x| *x = 0.0);
                (entry.diff_surf[j])(nu, dv, vth2, f, &mut gen, &mut gen_hi);
                runtime_lbo_diff_surf(&pk, td, j, nu, dv, vth2, f, &mut rt, &mut rt_hi);
                compare(&gen, &rt, &format!("diff_surf_v{j} lower"));
                compare(&gen_hi, &rt_hi, &format!("diff_surf_v{j} upper"));
            }
        }
    }
}

/// Lane `lane` of an SoA panel as one cell's coefficients.
fn lane_of(panel: &[PencilLanes], lane: usize) -> Vec<f64> {
    panel.iter().map(|p| p[lane]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// The three instantiations of every LBO stage body agree bit for bit,
    /// lane by lane: one lane (the scalar entry point) ≡ `_b4` ≡
    /// `_b4_avx2`, for all five stage families and every velocity
    /// direction — with *different* `u`/`vth2` in every lane (the pencils
    /// of a group may sit in different configuration cells), both
    /// `at_upper` values, and non-zero incoming `out`/`g` (the pencil sweep
    /// accumulates into packed outputs, never into zeroed ones). This is
    /// what lets `LboOp` run pencil groups, split ranges anywhere and pick
    /// the entry point from the CPU without perturbing the trajectory.
    #[test]
    fn every_lbo_batch_kernel_matches_scalar_bitwise(
        nu in 0.1..2.0f64,
        v_c in -2.0..2.0f64,
        vstar in -2.0..2.0f64,
        dv_raw in proptest::collection::vec(0.1..2.0f64, 3),
        u_raw in proptest::collection::vec(-1.0..1.0f64, 8 * LANES),
        vth2_raw in proptest::collection::vec(0.1..2.0f64, 8 * LANES),
        f_raw in proptest::collection::vec(-1.0..1.0f64, 128 * LANES),
        f2_raw in proptest::collection::vec(-1.0..1.0f64, 128 * LANES),
        out_raw in proptest::collection::vec(-1.0..1.0f64, 128 * LANES),
        out2_raw in proptest::collection::vec(-1.0..1.0f64, 128 * LANES),
    ) {
        const TEST: &str = "every_lbo_batch_kernel_matches_scalar_bitwise";
        static ARMS: [std::sync::Once; 3] = [const { std::sync::Once::new() }; 3];
        // `raw` as an SoA panel of `n` coefficients (lane-major input).
        let panel = |raw: &[f64], n: usize| -> Vec<PencilLanes> {
            (0..n)
                .map(|i| std::array::from_fn(|lane| raw[lane * (raw.len() / LANES) + i]))
                .collect()
        };
        for entry in lbo_registry() {
            let k = entry.key;
            let pk = kernels_for(k.kind, k.layout(), k.poly_order);
            let (np, nc) = (pk.np(), pk.nc());
            prop_assert!(np <= 128 && nc <= 8);
            prop_assert!(entry.batch.len() == k.vdim, "{}: batch count", entry.name);
            let (u, vth2) = (panel(&u_raw, nc), panel(&vth2_raw, nc));
            let (f, f2) = (panel(&f_raw, np), panel(&f2_raw, np));
            let (out, out2) = (panel(&out_raw, np), panel(&out2_raw, np));

            for j in 0..k.vdim {
                let dv = dv_raw[j];
                let avx2 = LboBatch::avx2(entry, j);
                report_arm(&ARMS[0], TEST, "L = 1", None);
                report_arm(&ARMS[1], TEST, "_b4", None);
                report_arm(&ARMS[2], TEST, "_b4_avx2", avx2.is_none().then_some("avx2"));
                let arms = [("_b4", Some(LboBatch::baseline(entry, j))), ("_b4_avx2", avx2)];
                for (arm, batch) in arms {
                    let Some(batch) = batch else { continue };
                    // Each stage: the batched call on the panels, then per
                    // lane the scalar call on that lane's cells, from the
                    // same incoming outputs.
                    let same = |stage: &str, got: &[PencilLanes], lane: usize, want: &[f64]| {
                        for i in 0..np {
                            prop_assert!(
                                got[i][lane].to_bits() == want[i].to_bits(),
                                "{}_{stage}_v{j}{arm} lane {lane} mode {i}: batched {} vs scalar {}",
                                entry.name, got[i][lane], want[i]
                            );
                        }
                    };

                    let mut o = out.clone();
                    batch.drag_vol(nu, v_c, dv, &u, &f, &mut o);
                    for lane in 0..LANES {
                        let mut want = lane_of(&out, lane);
                        (entry.drag_vol[j])(
                            nu, v_c, dv, &lane_of(&u, lane), &lane_of(&f, lane), &mut want,
                        );
                        same("drag_vol", &o, lane, &want);
                    }

                    let (mut o, mut o2) = (out.clone(), out2.clone());
                    batch.drag_surf(nu, vstar, dv, &u, &f, &f2, &mut o, &mut o2);
                    for lane in 0..LANES {
                        let (mut want, mut want2) = (lane_of(&out, lane), lane_of(&out2, lane));
                        (entry.drag_surf[j])(
                            nu, vstar, dv, &lane_of(&u, lane),
                            &lane_of(&f, lane), &lane_of(&f2, lane), &mut want, &mut want2,
                        );
                        same("drag_surf lower", &o, lane, &want);
                        same("drag_surf upper", &o2, lane, &want2);
                    }

                    for at_upper in [false, true] {
                        let mut g = out.clone();
                        batch.diff_grad(dv, at_upper, &f, &f2, &mut g);
                        for lane in 0..LANES {
                            let mut want = lane_of(&out, lane);
                            (entry.diff_grad[j])(
                                dv, at_upper, &lane_of(&f, lane), &lane_of(&f2, lane), &mut want,
                            );
                            same(&format!("diff_grad at_upper={at_upper}"), &g, lane, &want);
                        }
                    }

                    let mut o = out.clone();
                    batch.diff_vol(nu, dv, &vth2, &f, &mut o);
                    for lane in 0..LANES {
                        let mut want = lane_of(&out, lane);
                        (entry.diff_vol[j])(
                            nu, dv, &lane_of(&vth2, lane), &lane_of(&f, lane), &mut want,
                        );
                        same("diff_vol", &o, lane, &want);
                    }

                    let (mut o, mut o2) = (out.clone(), out2.clone());
                    batch.diff_surf(nu, dv, &vth2, &f, &mut o, &mut o2);
                    for lane in 0..LANES {
                        let (mut want, mut want2) = (lane_of(&out, lane), lane_of(&out2, lane));
                        (entry.diff_surf[j])(
                            nu, dv, &lane_of(&vth2, lane), &lane_of(&f, lane),
                            &mut want, &mut want2,
                        );
                        same("diff_surf lower", &o, lane, &want);
                        same("diff_surf upper", &o2, lane, &want2);
                    }
                }
            }
        }
    }
}

/// The MANIFEST must cover every `(basis, cdim, vdim, poly_order)`
/// configuration exercised end to end by a committed example, paper test
/// or benchmark workload, so none of them silently falls back to the
/// runtime sparse path under the default `Auto` dispatch. Parameter
/// *scans* (the Fig. 2 fit in `tests/paper.rs`) intentionally sweep past
/// the manifest and are exempt. When a new example or scenario lands,
/// add its configuration here and to `codegen::MANIFEST`, and rebuild.
#[test]
fn manifest_covers_committed_example_and_bench_configs() {
    use dg_basis::BasisKind;
    let used: &[(BasisKind, usize, usize, usize, &str)] = &[
        (
            BasisKind::Serendipity,
            1,
            1,
            1,
            "tests/alloc_free.rs, dispatch registry baseline",
        ),
        (
            BasisKind::Serendipity,
            1,
            1,
            2,
            "examples/{quickstart,two_stream,landau_damping,sheath_1x1v,lbo_relaxation}, \
             tests/paper.rs (§II ablation)",
        ),
        (
            BasisKind::Tensor,
            1,
            2,
            1,
            "examples/kernel_inspect, tests/paper.rs (Fig. 1)",
        ),
        (BasisKind::Serendipity, 1, 2, 1, "examples/parallel_scaling"),
        (
            BasisKind::Serendipity,
            2,
            2,
            1,
            "Fig. 5 oblique beams (EXPERIMENTS.md)",
        ),
        (BasisKind::Serendipity, 2, 2, 2, "examples/weibel_2x2v"),
        (
            BasisKind::Serendipity,
            2,
            3,
            2,
            "tests/paper.rs (Table I), benchmark workload eop_2x3v_p2",
        ),
        (
            BasisKind::Serendipity,
            3,
            3,
            1,
            "examples/parallel_scaling (dg_parallel::scaling)",
        ),
    ];
    for &(kind, cdim, vdim, p, where_) in used {
        assert!(
            MANIFEST
                .iter()
                .any(|s| s.kind == kind && s.cdim == cdim && s.vdim == vdim && s.poly_order == p),
            "{kind:?} {cdim}x{vdim}v p={p} is used by {where_} but missing from \
             codegen::MANIFEST — committed scenarios must run on generated kernels"
        );
    }
}
