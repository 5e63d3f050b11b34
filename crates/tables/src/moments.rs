//! Velocity-moment kernels: exact reduction of phase-space expansions to
//! configuration-space expansions.
//!
//! The field–particle coupling needs `M0 = ∫ f dv` (charge density),
//! `M1_j = ∫ v_j f dv` (current), and diagnostics need `M2 = ∫ |v|² f dv`
//! (particle energy — the quantity whose aliasing-free evolution the paper's
//! §II argument is about). Integrating the Legendre factors over a velocity
//! cell leaves only modes with velocity exponents 0 (`∫ P̃_k = √2 δ_k0`),
//! 1 (`∫ ξ P̃_k = √(2/3) δ_k1`) or 2 (`∫ ξ² P̃_k ∈ {√2/3 (k=0), (4/15)√(5/2)
//! (k=2)}`), and the surviving configuration factor is itself a member of
//! the configuration basis — so each moment is a short, exact, sparse sum.

// Stencil/loop style: index-coupled stencil sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use dg_basis::Basis;

/// `(phase mode, conf mode)` index pair with the constant velocity weight
/// folded in.
type Pair = (u16, u16);

/// Moment-reduction tables for one phase basis.
#[derive(Clone, Debug)]
pub struct MomentKernels {
    pub cdim: usize,
    pub vdim: usize,
    /// Modes with all velocity exponents zero; weight `(√2)^{vdim}`.
    /// (`pub(crate)`: the codegen emitter unrolls these tables into the
    /// generated moment kernels.)
    pub(crate) r0: Vec<Pair>,
    /// Per velocity dim `j`: modes with velocity exponents `e_j`;
    /// weight `√(2/3)(√2)^{vdim−1}`.
    pub(crate) r1: Vec<Vec<Pair>>,
    /// Per velocity dim `j`: modes with velocity exponents `2 e_j`;
    /// weight `(4/15)√(5/2)(√2)^{vdim−1}` (empty for p = 1).
    pub(crate) r2: Vec<Vec<Pair>>,
    pub(crate) w0: f64,
    pub(crate) w1: f64,
    pub(crate) w2_of_2: f64,
}

impl MomentKernels {
    pub fn build(phase: &Basis, conf: &Basis, cdim: usize, vdim: usize) -> Self {
        assert_eq!(phase.ndim(), cdim + vdim);
        assert_eq!(conf.ndim(), cdim);
        let mut r0 = Vec::new();
        let mut r1 = vec![Vec::new(); vdim];
        let mut r2 = vec![Vec::new(); vdim];
        for i in 0..phase.len() {
            let e = phase.exps(i);
            let vexps = &e[cdim..cdim + vdim];
            let nz: Vec<(usize, u8)> = vexps
                .iter()
                .enumerate()
                .filter(|(_, &x)| x > 0)
                .map(|(j, &x)| (j, x))
                .collect();
            // Configuration part of the mode (drop all velocity dims).
            let mut ce = *e;
            for d in cdim..dg_poly::MAX_DIM {
                ce[d] = 0;
            }
            let ce = {
                // keep the first cdim entries
                let mut out = [0u8; dg_poly::MAX_DIM];
                out[..cdim].copy_from_slice(&ce[..cdim]);
                out
            };
            let Some(l) = conf.find(&ce) else {
                continue; // conf part beyond conf basis never survives ∫dv of admissible sets
            };
            match nz.as_slice() {
                [] => r0.push((i as u16, l as u16)),
                [(j, 1)] => r1[*j].push((i as u16, l as u16)),
                [(j, 2)] => r2[*j].push((i as u16, l as u16)),
                _ => {}
            }
        }
        let w0 = (2.0f64).powi(vdim as i32).sqrt();
        let side = (2.0f64).powi(vdim as i32 - 1).sqrt();
        MomentKernels {
            cdim,
            vdim,
            r0,
            r1,
            r2,
            w0,
            w1: (2.0f64 / 3.0).sqrt() * side,
            w2_of_2: (4.0 / 15.0) * (2.5f64).sqrt() * side,
        }
    }

    /// `M0` contribution of one phase cell: `m0[l] += jv Σ w0 f_i`, where
    /// `jv = ∏_j Δv_j/2` is the velocity-cell Jacobian.
    #[inline]
    pub fn accumulate_m0(&self, f: &[f64], jv: f64, m0: &mut [f64]) {
        let s = jv * self.w0;
        for &(i, l) in &self.r0 {
            m0[l as usize] += s * f[i as usize];
        }
    }

    /// `M1_j` contribution: `m1[l] += jv ∫ v_j f dv` with
    /// `v_j = v_c + (Δv/2) ξ_j` for this cell.
    #[inline]
    pub fn accumulate_m1(&self, j: usize, f: &[f64], jv: f64, v_c: f64, dv: f64, m1: &mut [f64]) {
        let s0 = jv * self.w0 * v_c;
        for &(i, l) in &self.r0 {
            m1[l as usize] += s0 * f[i as usize];
        }
        let s1 = jv * self.w1 * 0.5 * dv;
        for &(i, l) in &self.r1[j] {
            m1[l as usize] += s1 * f[i as usize];
        }
    }

    /// `M2 = Σ_j ∫ v_j² f dv` contribution of one phase cell.
    #[inline]
    pub fn accumulate_m2(&self, f: &[f64], jv: f64, v_c: &[f64], dv: &[f64], m2: &mut [f64]) {
        // ∫ v_j² (constant mode): v_c² ∫P̃0-weight + (Δ/2)² ∫ξ²-weight.
        let mut s0 = 0.0;
        for j in 0..self.vdim {
            let h = 0.5 * dv[j];
            // ∫ ξ² P̃_0 dξ = √2/3 relative to ∫ P̃_0 dξ = √2 ⇒ factor 1/3 h².
            s0 += v_c[j] * v_c[j] + h * h / 3.0;
        }
        let s0 = jv * self.w0 * s0;
        for &(i, l) in &self.r0 {
            m2[l as usize] += s0 * f[i as usize];
        }
        for j in 0..self.vdim {
            let s1 = jv * self.w1 * 2.0 * v_c[j] * 0.5 * dv[j];
            for &(i, l) in &self.r1[j] {
                m2[l as usize] += s1 * f[i as usize];
            }
            let h = 0.5 * dv[j];
            let s2 = jv * self.w2_of_2 * h * h;
            for &(i, l) in &self.r2[j] {
                m2[l as usize] += s2 * f[i as usize];
            }
        }
    }

    /// Number of phase modes feeding `M0` (used in op audits).
    pub fn m0_nnz(&self) -> usize {
        self.r0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_basis::{project, BasisKind};

    /// Project a separable f(x,v), take moments through the kernels, and
    /// compare with the analytic reductions.
    #[test]
    fn moments_of_projected_function_match_analytic() {
        let (cdim, vdim, p) = (1, 2, 2);
        let phase = Basis::new(BasisKind::Serendipity, cdim + vdim, p);
        let conf = Basis::new(BasisKind::Serendipity, cdim, p);
        let mk = MomentKernels::build(&phase, &conf, cdim, vdim);

        // f(x, v) = g(x) · q(vx, vy): polynomial so the projection is exact.
        let g = |x: f64| 1.0 + 0.5 * x;
        let q = |vx: f64, vy: f64| 1.0 + 0.25 * vx + 0.1 * vy * vy;
        let center = [0.3, 0.5, -1.0];
        let dx = [0.8, 1.0, 2.0];
        let mut coeffs = vec![0.0; phase.len()];
        project::project_cell(
            &phase,
            4,
            &center,
            &dx,
            &mut |z: &[f64]| g(z[0]) * q(z[1], z[2]),
            &mut coeffs,
        );

        let jv = 0.25 * dx[1] * dx[2];
        let mut m0 = vec![0.0; conf.len()];
        let mut m1x = vec![0.0; conf.len()];
        let mut m2 = vec![0.0; conf.len()];
        mk.accumulate_m0(&coeffs, jv, &mut m0);
        mk.accumulate_m1(0, &coeffs, jv, center[1], dx[1], &mut m1x);
        mk.accumulate_m2(&coeffs, jv, &center[1..3], &dx[1..3], &mut m2);

        // Analytic per-x moments over the velocity cell.
        let vx0 = center[1] - 0.5 * dx[1];
        let vx1 = center[1] + 0.5 * dx[1];
        let vy0 = center[2] - 0.5 * dx[2];
        let vy1 = center[2] + 0.5 * dx[2];
        let i0 = |a: f64, b: f64| b - a; // ∫ dv
        let i1 = |a: f64, b: f64| 0.5 * (b * b - a * a);
        let i2 = |a: f64, b: f64| (b * b * b - a * a * a) / 3.0;
        let i3 = |a: f64, b: f64| (b.powi(4) - a.powi(4)) / 4.0;
        let i4 = |a: f64, b: f64| (b.powi(5) - a.powi(5)) / 5.0;
        // q = 1 + 0.25 vx + 0.1 vy²
        let q_m0 = i0(vx0, vx1) * i0(vy0, vy1)
            + 0.25 * i1(vx0, vx1) * i0(vy0, vy1)
            + 0.1 * i0(vx0, vx1) * i2(vy0, vy1);
        let q_m1x = i1(vx0, vx1) * i0(vy0, vy1)
            + 0.25 * i2(vx0, vx1) * i0(vy0, vy1)
            + 0.1 * i1(vx0, vx1) * i2(vy0, vy1);
        let q_m2 = (i2(vx0, vx1) * i0(vy0, vy1)
            + 0.25 * i3(vx0, vx1) * i0(vy0, vy1)
            + 0.1 * i2(vx0, vx1) * i2(vy0, vy1))
            + (i0(vx0, vx1) * i2(vy0, vy1)
                + 0.25 * i1(vx0, vx1) * i2(vy0, vy1)
                + 0.1 * i0(vx0, vx1) * i4(vy0, vy1));

        // Check at a few x points: moment(x) = g(x) · q-moment.
        for &x in &[-0.05, 0.3, 0.65] {
            let xi = [(x - center[0]) / (0.5 * dx[0])];
            let got0 = conf.eval_expansion(&m0, &xi);
            let got1 = conf.eval_expansion(&m1x, &xi);
            let got2 = conf.eval_expansion(&m2, &xi);
            assert!(
                (got0 - g(x) * q_m0).abs() < 1e-12,
                "M0 at {x}: {got0} vs {}",
                g(x) * q_m0
            );
            assert!((got1 - g(x) * q_m1x).abs() < 1e-12, "M1x at {x}");
            assert!(
                (got2 - g(x) * q_m2).abs() < 1e-11,
                "M2 at {x}: {got2} vs {}",
                g(x) * q_m2
            );
        }
    }

    #[test]
    fn moment_kernels_are_linear() {
        let phase = Basis::new(BasisKind::Tensor, 2, 1);
        let conf = Basis::new(BasisKind::Tensor, 1, 1);
        let mk = MomentKernels::build(&phase, &conf, 1, 1);
        let a: Vec<f64> = (0..phase.len()).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..phase.len()).map(|i| (i as f64).cos()).collect();
        let ab: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + y).collect();
        let mut ma = vec![0.0; conf.len()];
        let mut mb = vec![0.0; conf.len()];
        let mut mab = vec![0.0; conf.len()];
        mk.accumulate_m0(&a, 1.0, &mut ma);
        mk.accumulate_m0(&b, 1.0, &mut mb);
        mk.accumulate_m0(&ab, 1.0, &mut mab);
        for l in 0..conf.len() {
            assert!((mab[l] - 2.0 * ma[l] - mb[l]).abs() < 1e-13);
        }
    }
}
