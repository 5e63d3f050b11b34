//! Velocity moments of species distribution functions.
//!
//! The plasma current `J = Σ_s q_s ∫ v f_s dv` closes the Vlasov–Maxwell
//! loop through Ampère's law, and the charge density `ρ = Σ_s q_s ∫ f_s dv`
//! feeds the divergence-cleaning potential. Both are *exact* reductions of
//! the modal expansions (see `dg-kernels::moments`), so the discrete
//! energy-exchange identity `d/dt E_particles = ∫ J_h · E_h dx` holds to
//! round-off — the property the paper's §II builds the whole algorithm
//! around.
//!
//! Every sweep here is **one call per configuration cell**: the cell's
//! velocity block (its `nv × Np` contiguous coefficients) goes whole to the
//! registry row's generated block kernel (`dispatch::MomentBlockFn`), or to
//! its runtime twin `MomentKernels::accumulate_block` on a configuration
//! without a row, with every moment the sweep needs selected at once
//! ([`MomentOut`]). The block kernels keep the per-phase-cell reductions'
//! order and association, so these sums are the bits the per-phase-cell
//! loop gave (DESIGN.md, "Moment kernels").

use dg_grid::{CellStoreMut, DgField, PhaseGrid};
use dg_kernels::dispatch::{path_of, row_for, DispatchPath, KernelRow};
use dg_kernels::moments::{MomentOut, VelocityGrid};
use dg_kernels::PhaseKernels;
use dg_telemetry::{span, Collector, Phase};

/// The moment path of one configuration, looked up once at construction:
/// the registry row's generated block kernel when the configuration has a
/// row, the runtime weak-op reduction otherwise.
#[derive(Clone, Debug)]
pub struct MomentScratch {
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
    pub fn with_row(row: Option<&'static KernelRow>) -> Self {
        MomentScratch {
            row,
            probe: Collector::default(),
        }
    }

    /// Which moment path this scratch runs.
    pub fn dispatch_path(&self) -> DispatchPath {
        path_of(self.row)
    }

    /// Every moment `out` selects of one configuration cell's velocity
    /// block `f`: one call, on this scratch's path.
    #[inline]
    fn block(
        &self,
        kernels: &PhaseKernels,
        f: &[f64],
        jv: f64,
        vel: &VelocityGrid,
        out: MomentOut<'_>,
    ) {
        match self.row {
            Some(row) => (row.moments.block)(f, jv, vel, out),
            None => kernels.moments.accumulate_block(f, jv, vel, out),
        }
    }
}

/// The velocity grid of `grid`, as the block kernels walk it.
fn velocity_grid(grid: &PhaseGrid) -> VelocityGrid {
    VelocityGrid::new(grid.vel.lower(), grid.vel.dx(), grid.vel.cells())
}

/// Configuration cell `clin`'s velocity block of the phase field `f`
/// (`nv` velocity cells).
#[inline]
fn velocity_block(f: &DgField, clin: usize, nv: usize) -> &[f64] {
    let len = nv * f.ncoeff();
    &f.as_slice()[clin * len..(clin + 1) * len]
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
    let m1_len = grid.vdim() * kernels.nc();
    let nv = grid.vel.len();
    let vel = velocity_grid(grid);
    let qjv = charge * grid.vel_jacobian();
    span!(ws.probe, Phase::FieldCoupling);
    for clin in conf_range {
        let out = MomentOut {
            m0: rho_out.as_deref_mut().map(|rho| rho.cell_mut(clin)),
            m1: Some(&mut j_out.cell_mut(clin)[..m1_len]),
            m2: None,
        };
        ws.block(kernels, velocity_block(f, clin, nv), qjv, &vel, out);
    }
}

/// `M0`, every `M1_j` and `M2` of `f` for configuration cells in
/// `conf_range`, in **one** call per configuration cell (only those cells
/// of the outputs are zeroed and written): what
/// [`number_density_range_into`], [`momentum_density_range_into`] and
/// [`energy_density_range_into`] compute in three sweeps, bitwise equal.
/// `m1` holds every direction, `vdim × Nc` per cell, direction-major.
#[allow(clippy::too_many_arguments)]
pub fn raw_moments_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    m0: &mut DgField,
    m1: &mut DgField,
    m2: &mut DgField,
    ws: &MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    let nv = grid.vel.len();
    let vel = velocity_grid(grid);
    let jv = grid.vel_jacobian();
    span!(ws.probe, Phase::Moments);
    for clin in conf_range {
        let out = MomentOut {
            m0: Some(zeroed(m0.cell_mut(clin))),
            m1: Some(zeroed(m1.cell_mut(clin))),
            m2: Some(zeroed(m2.cell_mut(clin))),
        };
        ws.block(kernels, velocity_block(f, clin, nv), jv, &vel, out);
    }
}

/// `cell`, zeroed.
#[inline]
fn zeroed(cell: &mut [f64]) -> &mut [f64] {
    cell.fill(0.0);
    cell
}

/// One moment of `f` into a caller-held field, restricted to configuration
/// cells in `conf_range` (only those cells of `out` are zeroed and
/// written): one call per configuration cell with `select` picking the
/// moment out of a [`MomentOut`].
fn single_moment_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    out: &mut DgField,
    ws: &MomentScratch,
    conf_range: std::ops::Range<usize>,
    select: fn(&mut [f64]) -> MomentOut<'_>,
) {
    let nv = grid.vel.len();
    let vel = velocity_grid(grid);
    let jv = grid.vel_jacobian();
    span!(ws.probe, Phase::Moments);
    for clin in conf_range {
        let cell = zeroed(out.cell_mut(clin));
        ws.block(kernels, velocity_block(f, clin, nv), jv, &vel, select(cell));
    }
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
/// zeroed and written).
pub fn number_density_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    out: &mut DgField,
    ws: &MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    single_moment_range_into(kernels, grid, f, out, ws, conf_range, |m0| MomentOut {
        m0: Some(m0),
        ..MomentOut::default()
    })
}

/// Momentum-density field `M1(x)`, every velocity direction: `vdim × Nc`
/// per configuration cell, direction-major (fresh allocation).
pub fn momentum_density(kernels: &PhaseKernels, grid: &PhaseGrid, f: &DgField) -> DgField {
    let mut out = DgField::zeros(grid.conf.len(), grid.vdim() * kernels.nc());
    let ws = MomentScratch::for_kernels(kernels);
    momentum_density_range_into(kernels, grid, f, &mut out, &ws, 0..grid.conf.len());
    out
}

/// [`momentum_density`] into a caller-held field, restricted to
/// configuration cells in `conf_range` (only those cells of `out` are
/// zeroed and written).
pub fn momentum_density_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    out: &mut DgField,
    ws: &MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    single_moment_range_into(kernels, grid, f, out, ws, conf_range, |m1| MomentOut {
        m1: Some(m1),
        ..MomentOut::default()
    })
}

/// Energy-density field `M2(x) = ∫ |v|² f dv`.
pub fn energy_density(kernels: &PhaseKernels, grid: &PhaseGrid, f: &DgField) -> DgField {
    let mut out = DgField::zeros(grid.conf.len(), kernels.nc());
    let ws = MomentScratch::for_kernels(kernels);
    energy_density_range_into(kernels, grid, f, &mut out, &ws, 0..grid.conf.len());
    out
}

/// [`energy_density`] into a caller-held field, restricted to
/// configuration cells in `conf_range` (only those cells of `out` are
/// zeroed and written).
pub fn energy_density_range_into(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    out: &mut DgField,
    ws: &MomentScratch,
    conf_range: std::ops::Range<usize>,
) {
    single_moment_range_into(kernels, grid, f, out, ws, conf_range, |m2| MomentOut {
        m2: Some(m2),
        ..MomentOut::default()
    })
}

/// The mode-0 coefficients of `M1_j` (every direction, when `momentum`)
/// and of `M2` of `f`, each summed over configuration cells in ascending
/// order: one block call per configuration cell into a stack buffer, no
/// field. The sums start where `Iterator::sum` over `f64` starts (−0.0),
/// so they are the bits of summing the mode-0 column of
/// [`momentum_density`] / [`energy_density`].
pub fn mode0_sums(
    kernels: &PhaseKernels,
    grid: &PhaseGrid,
    f: &DgField,
    momentum: bool,
) -> ([f64; 3], f64) {
    let nc = kernels.nc();
    let m1_len = if momentum { grid.vdim() * nc } else { 0 };
    let nv = grid.vel.len();
    let vel = velocity_grid(grid);
    let jv = grid.vel_jacobian();
    let ws = MomentScratch::for_kernels(kernels);
    let (mut m1_sums, mut m2_sum) = ([-0.0; 3], -0.0);
    with_cell_buffer(m1_len + nc, |buf| {
        for clin in 0..grid.conf.len() {
            let (m1, m2) = zeroed(buf).split_at_mut(m1_len);
            let out = MomentOut {
                m0: None,
                m1: momentum.then_some(&mut *m1),
                m2: Some(&mut *m2),
            };
            ws.block(kernels, velocity_block(f, clin, nv), jv, &vel, out);
            for (sum, m1j) in m1_sums.iter_mut().zip(m1.chunks_exact(nc)) {
                *sum += m1j[0];
            }
            m2_sum += m2[0];
        }
    });
    (m1_sums, m2_sum)
}

/// Run `body` on a buffer of `len` values: on the stack for up to 64
/// configuration modes per moment (every registry row and the runtime
/// configurations the examples run), on the heap past that.
fn with_cell_buffer(len: usize, body: impl FnOnce(&mut [f64])) {
    const STACK: usize = 4 * 64;
    if len <= STACK {
        body(&mut [0.0; STACK][..len]);
    } else {
        // dg-analyze: allow(hot_alloc) — bases past 64 configuration modes only; one buffer per sweep
        body(&mut vec![0.0; len]);
    }
}

/// The `∫ dx` weights of a configuration field's summed mode-0
/// coefficient: `jx · w · Σ m_0` integrates it, with `jx = ∏ Δx/2` and
/// `w = 2^{c/2}` (only the constant mode survives `∫ dx`:
/// `∫_cell m dx = jx · m_0 · ∫ φ_0 dξ`).
pub fn mode0_integral_weights(grid: &PhaseGrid) -> (f64, f64) {
    let jx: f64 = grid.conf.dx().iter().map(|d| 0.5 * d).product();
    let w = (2.0f64).powi(grid.cdim() as i32).sqrt();
    (jx, w)
}

/// Particle kinetic energy `∫∫ ½ m |v|² f dv dx`.
pub fn kinetic_energy(kernels: &PhaseKernels, grid: &PhaseGrid, mass: f64, f: &DgField) -> f64 {
    let (_, m2_sum) = mode0_sums(kernels, grid, f, false);
    let (jx, w) = mode0_integral_weights(grid);
    0.5 * mass * jx * w * m2_sum
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
        let m1 = momentum_density(&k, &grid, &sp.f);
        let c0 = dg_basis::expand::const_coeff(&k.conf_basis);
        for clin in 0..grid.conf.len() {
            assert!((n.cell(clin)[0] / c0 - 2.0).abs() < 1e-5);
            assert!((m1.cell(clin)[k.nc()] / c0 + 0.5).abs() < 1e-5); // n u_y = −0.5
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
