//! Sum-factorised Gauss projection of analytic functions onto the modal
//! basis.
//!
//! Used once per simulation to set initial conditions (as in Gkeyll). The
//! *update loop* never calls this — the scheme is quadrature-free.
//!
//! Every basis function is a product of 1D orthonormal Legendre
//! polynomials, so the `d`-dimensional projection integral factorises: a
//! [`Projector`] samples the function once on the `npts^d` tensor Gauss
//! grid of a cell and contracts one dimension at a time against the
//! `npts × (p+1)` table `B[k][q] = w_q · P̃_k(ξ_q)`, which leaves the
//! coefficients of the full tensor space `(p+1)^d`; the Serendipity and
//! maximal-order families are subsets of it and are gathered out. Per
//! cell that is `Σ_s npts^(d−s) (p+1)^(s+1)` multiply-adds (21.6 k at 5D
//! p=2 with 5 points) where evaluating every basis function at every
//! point costs `npts^d · Np · d` (2.1 M).
//!
//! The contraction order is fixed — dimension 0 first, quadrature index
//! ascending — so a cell's coefficients depend only on that cell's
//! centre, size and function values: the result is deterministic and
//! independent of how a caller sweeps or partitions the grid.

// Stencil/loop style: the per-dimension odometer and the contraction index
// several arrays in lockstep; `needless_range_loop` rewrites would obscure
// that (workspace allow was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use crate::basis::{eval_legendre_1d, Basis};
use dg_poly::quad::GaussRule;

/// The L2 projection onto one basis with one Gauss rule, reusable across
/// cells: build once per `(basis, npts)`, then [`Projector::project`] per
/// cell allocates nothing.
///
/// Persistent storage is the 1D rule, the `npts × (p+1)` weighted
/// Legendre table, two `npts^d` ping-pong buffers and the `Np` gather
/// indices — nothing grows as `npts^d × Np`.
#[derive(Debug)]
pub struct Projector {
    ndim: usize,
    npts: usize,
    /// `p + 1`, the per-dimension extent of the coefficient tensor.
    n1: usize,
    /// Gauss nodes on `[-1, 1]` (the weights live in `table`).
    nodes: Vec<f64>,
    /// `table[k * npts + q] = w_q · P̃_k(ξ_q)`.
    table: Vec<f64>,
    /// Position of basis function `i` in the `(p+1)^d` coefficient
    /// tensor (dimension 0 slowest, like the point values).
    gather: Vec<usize>,
    /// Point values, then every other contraction result.
    ping: Vec<f64>,
    pong: Vec<f64>,
    /// Physical coordinates of the cell's nodes, `coords[d * npts + q]`.
    coords: Vec<f64>,
    /// The current point and its per-dimension node indices.
    z: Vec<f64>,
    idx: Vec<usize>,
}

impl Projector {
    /// Tables and scratch for projecting onto `basis` with `npts` Gauss
    /// points per dimension (exact for integrands of polynomial degree
    /// `2·npts − 1` per dimension, so `npts ≥ p + 1` integrates the mass
    /// matrix exactly).
    ///
    /// # Panics
    /// If `npts == 0` — there is no empty Gauss rule.
    pub fn new(basis: &Basis, npts: usize) -> Self {
        let ndim = basis.ndim();
        let n1 = basis.poly_order() + 1;
        let rule = GaussRule::new(npts);
        let mut table = vec![0.0; n1 * npts];
        let mut legendre = vec![0.0; n1];
        for q in 0..npts {
            eval_legendre_1d(rule.nodes[q], &mut legendre);
            for k in 0..n1 {
                table[k * npts + q] = rule.weights[q] * legendre[k];
            }
        }
        let gather = basis
            .all_exps()
            .iter()
            .map(|e| e[..ndim].iter().fold(0, |t, &k| t * n1 + k as usize))
            .collect();
        // `npts^d` bounds every stage when `npts ≥ p + 1`; an
        // under-integrating rule needs room for the `(p+1)^d` tensor.
        let scratch = npts.max(n1).pow(ndim as u32);
        Projector {
            ndim,
            npts,
            n1,
            nodes: rule.nodes,
            table,
            gather,
            ping: vec![0.0; scratch],
            pong: vec![0.0; scratch],
            coords: vec![0.0; ndim * npts],
            z: vec![0.0; ndim],
            idx: vec![0; ndim],
        }
    }

    /// Gauss points per cell, `npts^d`.
    pub fn npoints(&self) -> usize {
        self.npts.pow(self.ndim as u32)
    }

    /// Visit the Gauss points of the cell with the given `center`/`dx` in
    /// storage order (dimension 0 slowest): `visit(n, z)` receives the
    /// point's position `n` in a value buffer for [`Projector::contract`]
    /// and its physical coordinates.
    pub fn for_each_point(
        &mut self,
        center: &[f64],
        dx: &[f64],
        mut visit: impl FnMut(usize, &[f64]),
    ) {
        let (ndim, npts) = (self.ndim, self.npts);
        for d in 0..ndim {
            for q in 0..npts {
                self.coords[d * npts + q] = center[d] + 0.5 * dx[d] * self.nodes[q];
            }
            self.idx[d] = 0;
            self.z[d] = self.coords[d * npts];
        }
        for n in 0..self.npoints() {
            visit(n, &self.z);
            // Odometer increment, last dimension fastest.
            for d in (0..ndim).rev() {
                self.idx[d] += 1;
                if self.idx[d] == npts {
                    self.idx[d] = 0;
                }
                self.z[d] = self.coords[d * npts + self.idx[d]];
                if self.idx[d] != 0 {
                    break;
                }
            }
        }
    }

    /// Contract `npts^d` point values (in [`Projector::for_each_point`]
    /// order) into the basis coefficients `out[..Np]`.
    pub fn contract(&mut self, vals: &[f64], out: &mut [f64]) {
        let n = self.npoints();
        self.ping[..n].copy_from_slice(&vals[..n]);
        self.contract_ping(out);
    }

    /// L2-project `f(z)` (physical coordinates) onto the basis on the cell
    /// with the given `center`/`dx`: `out_i = ∫_ref f(z(ξ)) w_i(ξ) dξ`
    /// by Gauss quadrature, so that the stored DG expansion is
    /// `f_h(z) = Σ_i out_i w_i(ξ(z))`.
    pub fn project(
        &mut self,
        center: &[f64],
        dx: &[f64],
        f: &mut impl FnMut(&[f64]) -> f64,
        out: &mut [f64],
    ) {
        let mut vals = std::mem::take(&mut self.ping);
        self.for_each_point(center, dx, |n, z| vals[n] = f(z));
        self.ping = vals;
        self.contract_ping(out);
    }

    /// Contract the point values in `ping`, dimension 0 first. Stage `s`
    /// reads a `(p+1)^s × npts × npts^(d−1−s)` array and replaces its
    /// middle index `q` by the mode index `k`, summing `q` ascending; the
    /// innermost loop runs over the contiguous trailing block.
    fn contract_ping(&mut self, out: &mut [f64]) {
        let (npts, n1) = (self.npts, self.n1);
        let (mut src, mut dst) = (&mut self.ping, &mut self.pong);
        let mut head = 1;
        let mut tail = self.npts.pow(self.ndim as u32);
        for _ in 0..self.ndim {
            tail /= npts;
            for h in 0..head {
                let s = &src[h * npts * tail..(h + 1) * npts * tail];
                let d = &mut dst[h * n1 * tail..(h + 1) * n1 * tail];
                for (k, dk) in d.chunks_exact_mut(tail).enumerate() {
                    let t = &self.table[k * npts..(k + 1) * npts];
                    for (o, x) in dk.iter_mut().zip(&s[..tail]) {
                        *o = t[0] * x;
                    }
                    for q in 1..npts {
                        for (o, x) in dk.iter_mut().zip(&s[q * tail..(q + 1) * tail]) {
                            *o += t[q] * x;
                        }
                    }
                }
            }
            head *= n1;
            std::mem::swap(&mut src, &mut dst);
        }
        for (o, &g) in out.iter_mut().zip(&self.gather) {
            *o = src[g];
        }
    }
}

/// One-off [`Projector::project`]: builds the projector for this call.
/// Sweeps over many cells should build one [`Projector`] and reuse it.
///
/// `npts` Gauss points per dimension; exact for integrands of polynomial
/// degree `2·npts − 1` per dimension.
pub fn project_cell(
    basis: &Basis,
    npts: usize,
    center: &[f64],
    dx: &[f64],
    f: &mut impl FnMut(&[f64]) -> f64,
    out: &mut [f64],
) {
    Projector::new(basis, npts).project(center, dx, f, out);
}

/// The cell average of a modal expansion: the constant mode carries the
/// mean through `f̄ = f_0 · w_0 = f_0 · 2^{-d/2}`.
pub fn cell_average(basis: &Basis, coeffs: &[f64]) -> f64 {
    coeffs[0] * (2.0f64).powi(-(basis.ndim() as i32)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::BasisKind;
    use dg_poly::quad::TensorGauss;
    use proptest::prelude::*;

    /// The oracle: evaluate every basis function at every tensor Gauss
    /// point and accumulate `w · f · w_i` — `O(npts^d · Np · d)` per cell,
    /// what the library did before the projection was sum-factorised.
    fn project_cell_brute_force(
        basis: &Basis,
        npts: usize,
        center: &[f64],
        dx: &[f64],
        f: &mut impl FnMut(&[f64]) -> f64,
        out: &mut [f64],
    ) {
        let ndim = basis.ndim();
        let np = basis.len();
        out[..np].fill(0.0);
        let mut xi = vec![0.0; ndim];
        let mut z = vec![0.0; ndim];
        let mut scratch = vec![0.0; ndim * (basis.poly_order() + 1)];
        let mut wvals = vec![0.0; np];
        let mut tg = TensorGauss::new(npts, ndim);
        while let Some(w) = tg.next_point(&mut xi) {
            for d in 0..ndim {
                z[d] = center[d] + 0.5 * dx[d] * xi[d];
            }
            let fv = f(&z);
            basis.eval_all_with(&xi, &mut scratch, &mut wvals);
            for i in 0..np {
                out[i] += w * fv * wvals[i];
            }
        }
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |m, x| x.abs().max(m))
    }

    #[test]
    fn projection_reproduces_polynomials_exactly() {
        // A quadratic in the Serendipity space projects exactly and
        // evaluates back to itself.
        let b = Basis::new(BasisKind::Serendipity, 2, 2);
        let center = [1.0, -2.0];
        let dx = [0.5, 2.0];
        let mut f = |z: &[f64]| 1.0 + 0.3 * z[0] - 0.7 * z[1] + 0.2 * z[0] * z[1] + z[1] * z[1];
        let mut coeffs = vec![0.0; b.len()];
        project_cell(&b, 3, &center, &dx, &mut f, &mut coeffs);
        for &(x, y) in &[(0.9, -2.9), (1.2, -1.1), (1.0, -2.0)] {
            let xi = [
                (x - center[0]) / (0.5 * dx[0]),
                (y - center[1]) / (0.5 * dx[1]),
            ];
            let got = b.eval_expansion(&coeffs, &xi);
            let want = f(&[x, y]);
            assert!((got - want).abs() < 1e-12, "at ({x},{y}): {got} vs {want}");
        }
    }

    #[test]
    fn cell_average_of_projection_matches_mean() {
        let b = Basis::new(BasisKind::Tensor, 1, 2);
        let mut f = |z: &[f64]| 3.0 + z[0]; // mean over cell = 3 + center
        let mut coeffs = vec![0.0; b.len()];
        project_cell(&b, 4, &[2.0], &[0.8], &mut f, &mut coeffs);
        assert!((cell_average(&b, &coeffs) - 5.0).abs() < 1e-13);
    }

    #[test]
    fn projection_is_l2_optimal() {
        // Projection residual of a non-member function is orthogonal to the
        // basis: re-projecting the evaluated expansion changes nothing.
        let b = Basis::new(BasisKind::MaximalOrder, 1, 2);
        let mut f = |z: &[f64]| (z[0]).sin();
        let mut c1 = vec![0.0; b.len()];
        project_cell(&b, 8, &[0.3], &[1.0], &mut f, &mut c1);
        let mut g = |z: &[f64]| {
            let xi = [(z[0] - 0.3) / 0.5];
            b.eval_expansion(&c1, &xi)
        };
        let mut c2 = vec![0.0; b.len()];
        project_cell(&b, 8, &[0.3], &[1.0], &mut g, &mut c2);
        for i in 0..b.len() {
            assert!((c1[i] - c2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn contract_of_visited_points_is_project() {
        // The two-call form used for vector-valued functions (sample once,
        // contract per component) gives `project`'s bits.
        let b = Basis::new(BasisKind::Serendipity, 3, 2);
        let (center, dx) = ([0.2, -1.0, 3.0], [0.5, 1.5, 0.25]);
        let mut f = |z: &[f64]| (z[0] - 0.4 * z[1]).sin() * (0.3 * z[2]).exp();
        let mut proj = Projector::new(&b, 4);
        let mut want = vec![0.0; b.len()];
        proj.project(&center, &dx, &mut f, &mut want);
        let mut vals = vec![0.0; proj.npoints()];
        proj.for_each_point(&center, &dx, |n, z| vals[n] = f(z));
        let mut got = vec![0.0; b.len()];
        proj.contract(&vals, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn under_integrating_rule_stays_in_bounds() {
        // `npts < p + 1` is a caller's mistake the App rejects, but the
        // projector itself must not index out of its scratch.
        let b = Basis::new(BasisKind::Tensor, 3, 3);
        let mut got = vec![0.0; b.len()];
        let mut want = vec![0.0; b.len()];
        let mut f = |z: &[f64]| 1.0 + z[0] * z[1] - z[2];
        project_cell(&b, 2, &[0.0; 3], &[1.0; 3], &mut f, &mut got);
        project_cell_brute_force(&b, 2, &[0.0; 3], &[1.0; 3], &mut f, &mut want);
        for i in 0..b.len() {
            assert!((got[i] - want[i]).abs() < 1e-13 * (1.0 + max_abs(&want)));
        }
    }

    fn kinds() -> impl Strategy<Value = BasisKind> {
        (0usize..3).prop_map(|i| {
            [
                BasisKind::Tensor,
                BasisKind::Serendipity,
                BasisKind::MaximalOrder,
            ][i]
        })
    }

    /// Per-dimension `(centre, dx, a, b)`: the cell and the coefficients
    /// of the smooth test function `∏_d (1 + a_d sin(z_d + b_d))`
    /// plus a cross term that keeps it non-separable.
    fn dims() -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
        collection::vec((-3.0f64..3.0, 0.1f64..2.0, -0.9f64..0.9, 0.0f64..6.0), 4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn projector_matches_brute_force_oracle(
            kind in kinds(),
            ndim in 1usize..=4,
            p in 1usize..=3,
            extra in 0usize..=3,
            cell in dims(),
        ) {
            let npts = p + 1 + extra;
            let b = Basis::new(kind, ndim, p);
            let center: Vec<f64> = cell[..ndim].iter().map(|c| c.0).collect();
            let dx: Vec<f64> = cell[..ndim].iter().map(|c| c.1).collect();
            let mut f = |z: &[f64]| {
                let prod: f64 = z.iter().zip(&cell).map(|(x, c)| 1.0 + c.2 * (x + c.3).sin()).product();
                prod + 0.25 * (z[0] * z[ndim - 1]).cos()
            };
            let mut got = vec![0.0; b.len()];
            let mut want = vec![0.0; b.len()];
            let mut proj = Projector::new(&b, npts);
            proj.project(&center, &dx, &mut f, &mut got);
            project_cell_brute_force(&b, npts, &center, &dx, &mut f, &mut want);
            let scale = max_abs(&want);
            for i in 0..b.len() {
                prop_assert!(
                    (got[i] - want[i]).abs() <= 1e-13 * scale,
                    "{kind:?} {ndim}d p{p} npts {npts} mode {i}: {} vs {}", got[i], want[i]
                );
            }

            // Idempotence: the projection of the projected expansion is
            // itself (the rule integrates the mass matrix exactly).
            let mut g = |z: &[f64]| {
                let xi: Vec<f64> = (0..ndim).map(|d| (z[d] - center[d]) / (0.5 * dx[d])).collect();
                b.eval_expansion(&got, &xi)
            };
            let mut again = vec![0.0; b.len()];
            proj.project(&center, &dx, &mut g, &mut again);
            for i in 0..b.len() {
                prop_assert!(
                    (again[i] - got[i]).abs() <= 1e-12 * scale,
                    "re-projection moved mode {i}: {} vs {}", again[i], got[i]
                );
            }
        }

        #[test]
        fn projector_reproduces_in_space_polynomials(
            kind in kinds(),
            ndim in 1usize..=4,
            p in 1usize..=3,
            extra in 0usize..=3,
            cell in dims(),
            seed in 0u64..1000,
        ) {
            // Any coefficient vector is a polynomial of the family's
            // space; sampling it and projecting must return it.
            let b = Basis::new(kind, ndim, p);
            let center: Vec<f64> = cell[..ndim].iter().map(|c| c.0).collect();
            let dx: Vec<f64> = cell[..ndim].iter().map(|c| c.1).collect();
            let want: Vec<f64> = (0..b.len())
                .map(|i| ((seed as f64 + 1.0) * (i as f64 + 0.7)).sin())
                .collect();
            let mut f = |z: &[f64]| {
                let xi: Vec<f64> = (0..ndim).map(|d| (z[d] - center[d]) / (0.5 * dx[d])).collect();
                b.eval_expansion(&want, &xi)
            };
            let mut got = vec![0.0; b.len()];
            Projector::new(&b, p + 1 + extra).project(&center, &dx, &mut f, &mut got);
            for i in 0..b.len() {
                prop_assert!(
                    (got[i] - want[i]).abs() <= 1e-12,
                    "{kind:?} {ndim}d p{p} mode {i}: {} vs {}", got[i], want[i]
                );
            }
        }
    }
}
