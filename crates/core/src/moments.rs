//! Velocity moments of species distribution functions.
//!
//! The plasma current `J = Σ_s q_s ∫ v f_s dv` closes the Vlasov–Maxwell
//! loop through Ampère's law, and the charge density `ρ = Σ_s q_s ∫ f_s dv`
//! feeds the divergence-cleaning potential. Both are *exact* reductions of
//! the modal expansions (see `dg-kernels::moments`), so the discrete
//! energy-exchange identity `d/dt E_particles = ∫ J_h · E_h dx` holds to
//! round-off — the property the paper's §II builds the whole algorithm
//! around.

use dg_grid::{CellStoreMut, DgField, PhaseGrid};
use dg_kernels::dispatch::{path_of, row_for, DispatchPath, KernelRow, MomentKernelEntry};
use dg_kernels::moments::MomentKernels;
use dg_kernels::PhaseKernels;
use dg_telemetry::{span, Collector, Phase};

/// Scratch for moment reductions (velocity indices and centers), carrying
/// the configuration's registry row, looked up once at construction: the
/// generated moment kernels when the configuration has a row, the runtime
/// weak-op reduction otherwise.
#[derive(Clone, Debug)]
pub struct MomentScratch {
    vidx: Vec<usize>,
    vc: Vec<f64>,
    row: Option<&'static KernelRow>,
    /// Telemetry writer for this scratch's thread (noop unless the
    /// backend instruments the run).
    pub probe: Collector,
}

impl MomentScratch {
    /// Scratch on the path the configuration of `kernels` decides.
    pub fn for_kernels(kernels: &PhaseKernels) -> Self {
        Self::with_row(row_for(kernels))
    }

    /// Scratch on an explicit registry row — the test seam: `None` on a
    /// registered configuration is the runtime-sparse oracle.
    // dg-analyze: allow(hot_alloc) — scratch constructor: empty buffers, sized once on first use
    pub fn with_row(row: Option<&'static KernelRow>) -> Self {
        MomentScratch {
            vidx: Vec::new(),
            vc: Vec::new(),
            row,
            probe: Collector::default(),
        }
    }

    /// Which moment path this scratch runs.
    pub fn dispatch_path(&self) -> DispatchPath {
        path_of(self.row)
    }
}

/// The per-cell `M0`/`M1_j`/`M2` accumulations, as a registry row's
/// generated kernels and the runtime weak-op path each provide them. Every
/// sweep below is written once over this trait.
trait MomentEval {
    fn m0(&self, f: &[f64], jv: f64, out: &mut [f64]);
    fn m1(&self, j: usize, f: &[f64], jv: f64, v_c: f64, dv: f64, out: &mut [f64]);
    fn m2(&self, f: &[f64], jv: f64, v_c: &[f64], dv: &[f64], out: &mut [f64]);
}

impl MomentEval for MomentKernelEntry {
    #[inline]
    fn m0(&self, f: &[f64], jv: f64, out: &mut [f64]) {
        (self.m0)(f, jv, out)
    }
    #[inline]
    fn m1(&self, j: usize, f: &[f64], jv: f64, v_c: f64, dv: f64, out: &mut [f64]) {
        (self.m1[j])(f, jv, v_c, dv, out)
    }
    #[inline]
    fn m2(&self, f: &[f64], jv: f64, v_c: &[f64], dv: &[f64], out: &mut [f64]) {
        (self.m2)(f, jv, v_c, dv, out)
    }
}

impl MomentEval for MomentKernels {
    #[inline]
    fn m0(&self, f: &[f64], jv: f64, out: &mut [f64]) {
        self.accumulate_m0(f, jv, out)
    }
    #[inline]
    fn m1(&self, j: usize, f: &[f64], jv: f64, v_c: f64, dv: f64, out: &mut [f64]) {
        self.accumulate_m1(j, f, jv, v_c, dv, out)
    }
    #[inline]
    fn m2(&self, f: &[f64], jv: f64, v_c: &[f64], dv: &[f64], out: &mut [f64]) {
        self.accumulate_m2(f, jv, v_c, dv, out)
    }
}

/// Run `$body` with `$m` bound to the [`MomentEval`] of `$ws`'s path: the
/// path is matched once per call, never per cell, and the body is
/// instantiated once per path.
macro_rules! with_moment_eval {
    ($ws:expr, $kernels:expr, |$m:ident| $body:block) => {
        match $ws.row {
            Some(row) => {
                let $m = &row.moments;
                $body
            }
            None => {
                let $m = &$kernels.moments;
                $body
            }
        }
    };
}

/// Accumulate the charge-weighted current (3 components × Nc per
/// configuration cell) and optionally charge density of one distribution
/// function into `j_out` / `rho_out`, for configuration cells in
/// `conf_range`. Generic over the output store so rank-local views (the
/// parallel driver's `split_cells_mut` slices) work as well as whole
/// fields.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_current<S: CellStoreMut>(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    charge: f64,
    f: &DgField,
    j_out: &mut S,
    mut rho_out: Option<&mut S>,
    conf_range: std::ops::Range<usize>,
    ws: &mut MomentScratch,
) {
    let vdim = grid.vdim();
    let nc = kernels.nc();
    let nv = grid.vel.len();
    let jv = grid.vel_jacobian();
    span!(ws.probe, Phase::FieldCoupling);
    ws.vidx.resize(vdim, 0);
    with_moment_eval!(ws, kernels, |m| {
        for clin in conf_range {
            for vlin in 0..nv {
                grid.vel.delinearize(vlin, &mut ws.vidx);
                let fc = f.cell(clin * nv + vlin);
                let jc = j_out.cell_mut(clin);
                for j in 0..vdim {
                    let vc = grid.vel.center(j, ws.vidx[j]);
                    m.m1(
                        j,
                        fc,
                        charge * jv,
                        vc,
                        grid.vel.dx()[j],
                        &mut jc[j * nc..(j + 1) * nc],
                    );
                }
                if let Some(rho) = rho_out.as_deref_mut() {
                    m.m0(fc, charge * jv, rho.cell_mut(clin));
                }
            }
        }
    })
}

/// Velocity-cell centres per linear velocity index (padded to three
/// components) — built once per operator so the sweeps that need `v_c` per
/// phase cell ([`raw_moments_range_into`], `VlasovOp`) read a table instead
/// of delinearizing every cell.
// dg-analyze: allow(hot_alloc) — table constructor, runs once per operator
pub fn vel_center_table(grid: &PhaseGrid) -> Vec<[f64; 3]> {
    let vdim = grid.vdim();
    let mut vidx = vec![0usize; vdim];
    (0..grid.vel.len())
        .map(|vlin| {
            grid.vel.delinearize(vlin, &mut vidx);
            let mut c = [0.0; 3];
            for d in 0..vdim {
                c[d] = grid.vel.center(d, vidx[d]);
            }
            c
        })
        .collect()
}

/// `M0`, every `M1_j` and `M2` of `f` for configuration cells in
/// `conf_range`, in **one** sweep over `f` (only those cells of the outputs
/// are zeroed and written): what [`number_density_range_into`], one
/// [`momentum_density_range_into`] per direction and
/// [`energy_density_range_into`] compute in `2 + vdim` sweeps. The same
/// kernels run on the same phase cells and each moment still sums its
/// velocity cells in ascending order, so the results are bitwise equal.
/// `vel_centers` is [`vel_center_table`] of `grid`.
#[allow(clippy::too_many_arguments)]
pub fn raw_moments_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    vel_centers: &[[f64; 3]],
    f: &DgField,
    m0: &mut DgField,
    m1: &mut [DgField],
    m2: &mut DgField,
    ws: &MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    let nv = grid.vel.len();
    let jv = grid.vel_jacobian();
    let vdim = grid.vdim();
    let dv = grid.vel.dx();
    span!(ws.probe, Phase::Moments);
    with_moment_eval!(ws, kernels, |m| {
        for clin in conf_range {
            m0.cell_mut(clin).fill(0.0);
            m2.cell_mut(clin).fill(0.0);
            for m1j in m1.iter_mut() {
                m1j.cell_mut(clin).fill(0.0);
            }
            for (vlin, vc) in vel_centers.iter().enumerate() {
                let fc = f.cell(clin * nv + vlin);
                m.m0(fc, jv, m0.cell_mut(clin));
                for (j, m1j) in m1.iter_mut().enumerate() {
                    m.m1(j, fc, jv, vc[j], dv[j], m1j.cell_mut(clin));
                }
                m.m2(fc, jv, &vc[..vdim], dv, m2.cell_mut(clin));
            }
        }
    })
}

/// Number-density field `M0(x)` (fresh allocation).
pub fn number_density(kernels: &PhaseKernels, grid: &PhaseGrid, f: &DgField) -> DgField {
    let mut out = DgField::zeros(grid.conf.len(), kernels.nc());
    let ws = MomentScratch::for_kernels(kernels);
    number_density_range_into(kernels, grid, f, &mut out, &ws, 0..grid.conf.len());
    out
}

/// [`number_density`] into a caller-held field, restricted to
/// configuration cells in `conf_range` (only those cells of `out` are
/// zeroed and written) — the hot-loop form the cell-block parallel LBO
/// uses with block-private scratch.
pub fn number_density_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    out: &mut DgField,
    ws: &MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    let nv = grid.vel.len();
    let jv = grid.vel_jacobian();
    span!(ws.probe, Phase::Moments);
    with_moment_eval!(ws, kernels, |m| {
        for clin in conf_range {
            out.cell_mut(clin).fill(0.0);
            for vlin in 0..nv {
                m.m0(f.cell(clin * nv + vlin), jv, out.cell_mut(clin));
            }
        }
    })
}

/// Momentum-density field `M1_j(x)` for one velocity direction.
pub fn momentum_density(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    j: usize,
) -> DgField {
    let mut out = DgField::zeros(grid.conf.len(), kernels.nc());
    let mut ws = MomentScratch::for_kernels(kernels);
    momentum_density_range_into(kernels, grid, f, j, &mut out, &mut ws, 0..grid.conf.len());
    out
}

/// [`momentum_density`] into a caller-held field, restricted to
/// configuration cells in `conf_range` (only those cells of `out` are
/// zeroed and written; no allocation once `ws` is warm).
#[allow(clippy::too_many_arguments)]
pub fn momentum_density_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    j: usize,
    out: &mut DgField,
    ws: &mut MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    let nv = grid.vel.len();
    let jv = grid.vel_jacobian();
    span!(ws.probe, Phase::Moments);
    ws.vidx.resize(grid.vdim(), 0);
    with_moment_eval!(ws, kernels, |m| {
        for clin in conf_range {
            out.cell_mut(clin).fill(0.0);
            for vlin in 0..nv {
                grid.vel.delinearize(vlin, &mut ws.vidx);
                let vc = grid.vel.center(j, ws.vidx[j]);
                m.m1(
                    j,
                    f.cell(clin * nv + vlin),
                    jv,
                    vc,
                    grid.vel.dx()[j],
                    out.cell_mut(clin),
                );
            }
        }
    })
}

/// Energy-density field `M2(x) = ∫ |v|² f dv`.
pub fn energy_density(kernels: &PhaseKernels, grid: &PhaseGrid, f: &DgField) -> DgField {
    let mut out = DgField::zeros(grid.conf.len(), kernels.nc());
    let mut ws = MomentScratch::for_kernels(kernels);
    energy_density_range_into(kernels, grid, f, &mut out, &mut ws, 0..grid.conf.len());
    out
}

/// [`energy_density`] into a caller-held field, restricted to
/// configuration cells in `conf_range` (only those cells of `out` are
/// zeroed and written; no allocation once `ws` is warm).
pub fn energy_density_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    out: &mut DgField,
    ws: &mut MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    let nv = grid.vel.len();
    let jv = grid.vel_jacobian();
    let vdim = grid.vdim();
    span!(ws.probe, Phase::Moments);
    ws.vidx.resize(vdim, 0);
    ws.vc.resize(vdim, 0.0);
    with_moment_eval!(ws, kernels, |m| {
        for clin in conf_range {
            out.cell_mut(clin).fill(0.0);
            for vlin in 0..nv {
                grid.vel.delinearize(vlin, &mut ws.vidx);
                for d in 0..vdim {
                    ws.vc[d] = grid.vel.center(d, ws.vidx[d]);
                }
                m.m2(
                    f.cell(clin * nv + vlin),
                    jv,
                    &ws.vc,
                    grid.vel.dx(),
                    out.cell_mut(clin),
                );
            }
        }
    })
}

/// Particle kinetic energy `∫∫ ½ m |v|² f dv dx`.
pub fn kinetic_energy(kernels: &PhaseKernels, grid: &PhaseGrid, mass: f64, f: &DgField) -> f64 {
    let m2 = energy_density(kernels, grid, f);
    // Only the constant configuration mode survives ∫ dx:
    // ∫_cell M2 dx = (∏ Δx/2) · m2_0(cell) · ∫ φ_0 dξ = jx · 2^{c/2} · m2_0.
    let jx: f64 = grid.conf.dx().iter().map(|d| 0.5 * d).product();
    let w = (2.0f64).powi(grid.cdim() as i32).sqrt();
    let sum0: f64 = (0..grid.conf.len()).map(|c| m2.cell(c)[0]).sum();
    0.5 * mass * jx * w * sum0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{maxwellian, Species};
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid};
    use dg_kernels::{kernels_for, PhaseLayout};

    fn setup_1x2v() -> (std::sync::Arc<PhaseKernels>, PhaseGrid, Species) {
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 2), 2);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[2.0], &[3]),
            CartGrid::new(&[-7.0, -7.0], &[7.0, 7.0], &[12, 12]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 4, &mut |_x, v| {
            maxwellian(2.0, &[0.5, -0.25], 1.1, v)
        });
        (kernels, grid, sp)
    }

    #[test]
    fn current_of_drifting_maxwellian() {
        let (k, grid, sp) = setup_1x2v();
        let mut j = DgField::zeros(grid.conf.len(), 3 * k.nc());
        let mut rho = DgField::zeros(grid.conf.len(), k.nc());
        let mut ws = MomentScratch::for_kernels(&k);
        accumulate_current(
            &k,
            &grid,
            sp.charge,
            &sp.f,
            &mut j,
            Some(&mut rho),
            0..grid.conf.len(),
            &mut ws,
        );
        // J = q n u = (−1)(2)(0.5, −0.25): check the cell means.
        let c0 = dg_basis::expand::const_coeff(&k.conf_basis);
        for clin in 0..grid.conf.len() {
            let jc = j.cell(clin);
            let jx = jc[0] / c0;
            let jy = jc[k.nc()] / c0;
            let r = rho.cell(clin)[0] / c0;
            assert!((jx + 1.0).abs() < 1e-5, "Jx {jx}");
            assert!((jy - 0.5).abs() < 1e-5, "Jy {jy}");
            assert!((r + 2.0).abs() < 1e-5, "rho {r}");
        }
    }

    #[test]
    fn kinetic_energy_of_maxwellian() {
        let (k, grid, sp) = setup_1x2v();
        // E_kin = ½ m n (|u|² + d·vth²) × volume = ½·2·(0.3125 + 2·1.21)·2.
        let want = 0.5 * 2.0 * (0.3125 + 2.0 * 1.21) * 2.0;
        let got = kinetic_energy(&k, &grid, sp.mass, &sp.f);
        assert!((got - want).abs() < 1e-4, "kinetic energy {got} vs {want}");
    }

    #[test]
    fn density_and_momentum_match_parameters() {
        let (k, grid, sp) = setup_1x2v();
        let n = number_density(&k, &grid, &sp.f);
        let m1y = momentum_density(&k, &grid, &sp.f, 1);
        let c0 = dg_basis::expand::const_coeff(&k.conf_basis);
        for clin in 0..grid.conf.len() {
            assert!((n.cell(clin)[0] / c0 - 2.0).abs() < 1e-5);
            assert!((m1y.cell(clin)[0] / c0 + 0.5).abs() < 1e-5); // n u_y = −0.5
        }
    }

    #[test]
    fn moments_are_linear_in_f() {
        let (k, grid, sp) = setup_1x2v();
        let mut f2 = sp.f.clone();
        for x in f2.as_mut_slice() {
            *x *= 3.0;
        }
        let n1 = number_density(&k, &grid, &sp.f);
        let n3 = number_density(&k, &grid, &f2);
        for c in 0..grid.conf.len() {
            for l in 0..k.nc() {
                assert!((n3.cell(c)[l] - 3.0 * n1.cell(c)[l]).abs() < 1e-12);
            }
        }
    }
}
