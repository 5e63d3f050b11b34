//! A kinetic species: its distribution function and physical parameters.

// Stencil/loop style: index-coupled per-dimension sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use dg_basis::project::Projector;
use dg_grid::{DgField, PhaseGrid};
use dg_kernels::PhaseKernels;
use std::sync::Arc;

/// One plasma species (electrons, protons, …) with its phase-space
/// distribution function as a modal DG field.
#[derive(Clone, Debug)]
pub struct Species {
    pub name: String,
    /// Charge `q` (normalized units).
    pub charge: f64,
    /// Mass `m`.
    pub mass: f64,
    /// Distribution-function coefficients, one `Np` block per phase cell.
    pub f: DgField,
}

impl Species {
    /// Allocate a zero-initialized species on the phase grid.
    pub fn new(name: &str, charge: f64, mass: f64, grid: &PhaseGrid, np: usize) -> Self {
        Species {
            name: name.to_string(),
            charge,
            mass,
            f: DgField::zeros(grid.len(), np),
        }
    }

    /// `q/m`, the factor multiplying the Lorentz acceleration.
    pub fn qm(&self) -> f64 {
        self.charge / self.mass
    }

    /// Project an initial condition `f0(x, v)` onto every phase cell with
    /// `npts` Gauss points per dimension: one [`Projector`] for the whole
    /// sweep, no allocation per cell. Each cell's coefficients depend on
    /// that cell alone, so the field is the same bit for bit however the
    /// grid is later decomposed.
    pub fn project_initial(
        &mut self,
        kernels: &Arc<PhaseKernels>,
        grid: &PhaseGrid,
        npts: usize,
        f0: &mut impl FnMut(&[f64], &[f64]) -> f64,
    ) {
        let ndim = grid.ndim();
        let cdim = grid.cdim();
        let mut projector = Projector::new(&kernels.phase_basis, npts);
        let mut center = vec![0.0; ndim];
        let mut size = vec![0.0; ndim];
        grid.cell_size(&mut size);
        let mut cidx = vec![0usize; cdim];
        let mut vidx = vec![0usize; grid.vdim()];
        let mut g = |z: &[f64]| f0(&z[..cdim], &z[cdim..]);
        for clin in 0..grid.conf.len() {
            grid.conf.delinearize(clin, &mut cidx);
            for vlin in 0..grid.vel.len() {
                grid.vel.delinearize(vlin, &mut vidx);
                grid.cell_center(&cidx, &vidx, &mut center);
                let cell = grid.phase_index(clin, vlin);
                projector.project(&center, &size, &mut g, self.f.cell_mut(cell));
            }
        }
    }

    /// Total particle number `∫ f dz` — conserved to round-off by the
    /// scheme (single-valued fluxes + zero-flux velocity boundaries).
    pub fn total_number(&self, kernels: &PhaseKernels, grid: &PhaseGrid) -> f64 {
        // The cell mean is coefficient 0 times 2^{-d/2}; the integral over
        // the cell multiplies by the physical volume.
        let vol: f64 = grid.conf.dx().iter().chain(grid.vel.dx()).product();
        let w = vol * (2.0f64).powi(-(kernels.phase_basis.ndim() as i32)).sqrt();
        (0..grid.len()).map(|c| self.f.cell(c)[0]).sum::<f64>() * w
    }
}

/// A shifted Maxwellian in up to 3 velocity dimensions — the workhorse
/// initial condition of every experiment in the paper.
pub fn maxwellian(n: f64, u: &[f64], vth: f64, v: &[f64]) -> f64 {
    let vdim = v.len();
    let mut arg = 0.0;
    for d in 0..vdim {
        let w = v[d] - u.get(d).copied().unwrap_or(0.0);
        arg += w * w;
    }
    let norm = (2.0 * std::f64::consts::PI * vth * vth)
        .powi(vdim as i32)
        .sqrt();
    n * (-arg / (2.0 * vth * vth)).exp() / norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid};
    use dg_kernels::{kernels_for, PhaseLayout};

    fn setup() -> (Arc<PhaseKernels>, PhaseGrid) {
        let k = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[4]),
            CartGrid::new(&[-6.0], &[6.0], &[16]),
            vec![Bc::Periodic],
        );
        (k, grid)
    }

    #[test]
    fn projected_maxwellian_has_unit_density() {
        let (k, grid) = setup();
        let mut s = Species::new("elc", -1.0, 1.0, &grid, k.np());
        s.project_initial(&k, &grid, 4, &mut |_x, v| maxwellian(1.0, &[0.0], 1.0, v));
        let n = s.total_number(&k, &grid);
        // Configuration volume is 1; velocity integral of the Maxwellian is
        // 1 up to the exp(-18) tail cut by the velocity extents.
        assert!((n - 1.0).abs() < 1e-6, "total number {n}");
    }

    #[test]
    fn sweep_equals_per_cell_projector_and_carries_the_analytic_mass() {
        // 2x3v, 2² × 2³ cells: the sweep is nothing but one Projector
        // applied cell by cell, so it must match a fresh Projector per
        // cell bit for bit (no state leaks from one cell to the next).
        let k = kernels_for(BasisKind::Serendipity, PhaseLayout::new(2, 3), 2);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0, 0.0], &[1.0, 1.0], &[2, 2]),
            CartGrid::new(&[-1.0; 3], &[1.0; 3], &[2, 2, 2]),
            vec![Bc::Periodic; 2],
        );
        // In the p = 2 space, so 3 points integrate it exactly.
        let mut f0 = |x: &[f64], v: &[f64]| {
            (1.0 + 0.3 * x[0] + 0.2 * x[1] * x[1]) * (2.0 + v[0] * v[0] + 0.5 * v[1] + v[2] * v[2])
        };
        let npts = 3;
        let mut s = Species::new("elc", -1.0, 1.0, &grid, k.np());
        s.project_initial(&k, &grid, npts, &mut f0);

        let mut size = [0.0; 5];
        grid.cell_size(&mut size);
        let (mut cidx, mut vidx, mut center) = ([0; 2], [0; 3], [0.0; 5]);
        let mut want = vec![0.0; k.np()];
        for cell in 0..grid.len() {
            let (clin, vlin) = grid.split_index(cell);
            grid.conf.delinearize(clin, &mut cidx);
            grid.vel.delinearize(vlin, &mut vidx);
            grid.cell_center(&cidx, &vidx, &mut center);
            Projector::new(&k.phase_basis, npts).project(
                &center,
                &size,
                &mut |z: &[f64]| f0(&z[..2], &z[2..]),
                &mut want,
            );
            assert_eq!(s.f.cell(cell), &want[..], "cell {cell}");
        }

        // ∫(1 + 0.3x + 0.2y²) over [0,1]² times ∫(2 + vx² + vy/2 + vz²)
        // over [−1,1]³.
        let mass = (1.0 + 0.15 + 0.2 / 3.0) * (16.0 + 8.0 / 3.0 + 8.0 / 3.0);
        let n = s.total_number(&k, &grid);
        assert!(
            (n - mass).abs() < 1e-12 * mass,
            "total number {n} vs {mass}"
        );
    }

    #[test]
    fn maxwellian_normalization_2v() {
        // Direct 2D quadrature over a wide box.
        let mut acc = 0.0;
        let nq = 200;
        let (lo, hi) = (-8.0, 8.0);
        let h = (hi - lo) / nq as f64;
        for i in 0..nq {
            for j in 0..nq {
                let v = [lo + (i as f64 + 0.5) * h, lo + (j as f64 + 0.5) * h];
                acc += maxwellian(2.5, &[0.3, -0.4], 1.2, &v) * h * h;
            }
        }
        assert!((acc - 2.5).abs() < 1e-6);
    }

    #[test]
    fn qm_ratio() {
        let (k, grid) = setup();
        let s = Species::new("p", 1.0, 1836.0, &grid, k.np());
        assert!((s.qm() - 1.0 / 1836.0).abs() < 1e-18);
    }
}
