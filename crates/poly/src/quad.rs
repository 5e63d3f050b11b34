//! Gauss–Legendre quadrature on `[-1, 1]`.
//!
//! The modal solver never calls quadrature in its update loop — that is the
//! point of the paper. Quadrature appears only in set-up and in the
//! baseline the paper compares against:
//!
//! 1. projecting analytic initial conditions onto the DG basis (Gkeyll does
//!    the same): `dg_basis::project::Projector` builds one 1D
//!    [`GaussRule`] and contracts dimension by dimension, so it never
//!    walks the tensor grid point by basis function;
//! 2. the 1D Gauss-law solve behind `FieldSpec::with_poisson_init`, which
//!    integrates the modal charge density with one [`GaussRule`];
//! 3. the alias-free **nodal** baseline (`dg-nodal`), which evaluates the
//!    very same discrete operator through interpolation → pointwise product
//!    → projection pipelines over [`TensorGauss`] so Table I's cost
//!    comparison can be reproduced. Tests use [`TensorGauss`] as the
//!    brute-force oracle for everything above.

// Stencil/loop style: index-coupled node sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use crate::legendre::legendre;
use crate::poly1::Poly1;

/// Nodes and weights of the `n`-point Gauss–Legendre rule, exact for
/// polynomials of degree `2n − 1`.
#[derive(Clone, Debug)]
pub struct GaussRule {
    pub nodes: Vec<f64>,
    pub weights: Vec<f64>,
}

impl GaussRule {
    /// Build the rule by Newton refinement of Chebyshev initial guesses for
    /// the roots of `P_n`; weights from `w_i = 2 / ((1-x²) P_n'(x)²)`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "quadrature rule needs at least one point");
        let pn: Poly1 = legendre(n);
        let dpn = pn.derivative();
        let mut nodes = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        for i in 0..n {
            // Chebyshev guess, then Newton. Converges in < 10 iterations.
            let mut x = -(std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            for _ in 0..50 {
                let f = pn.eval_f64(x);
                let df = dpn.eval_f64(x);
                let dx = f / df;
                x -= dx;
                if dx.abs() < 1e-16 {
                    break;
                }
            }
            let d = dpn.eval_f64(x);
            nodes.push(x);
            weights.push(2.0 / ((1.0 - x * x) * d * d));
        }
        GaussRule { nodes, weights }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Integrate a 1D function over `[-1, 1]`.
    pub fn integrate(&self, f: impl Fn(f64) -> f64) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }
}

/// Iterator over the tensor-product Gauss grid on `[-1,1]^ndim`, yielding
/// `(ξ, weight)` with `ξ` written into the caller's buffer to avoid
/// allocation in projection loops.
pub struct TensorGauss {
    rule: GaussRule,
    ndim: usize,
    idx: Vec<usize>,
    done: bool,
}

impl TensorGauss {
    pub fn new(npoints_per_dim: usize, ndim: usize) -> Self {
        TensorGauss {
            rule: GaussRule::new(npoints_per_dim),
            ndim,
            idx: vec![0; ndim],
            done: false,
        }
    }

    pub fn total_points(&self) -> usize {
        self.rule.len().pow(self.ndim as u32)
    }

    /// Advance to the next point; returns the weight, filling `xi` (length
    /// ≥ ndim) with the node coordinates. `None` when exhausted.
    pub fn next_point(&mut self, xi: &mut [f64]) -> Option<f64> {
        if self.done {
            return None;
        }
        let mut w = 1.0;
        for d in 0..self.ndim {
            xi[d] = self.rule.nodes[self.idx[d]];
            w *= self.rule.weights[self.idx[d]];
        }
        // Odometer increment.
        let mut d = 0;
        loop {
            if d == self.ndim {
                self.done = true;
                break;
            }
            self.idx[d] += 1;
            if self.idx[d] < self.rule.len() {
                break;
            }
            self.idx[d] = 0;
            d += 1;
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rules_match_known_values() {
        let g2 = GaussRule::new(2);
        let x = 1.0 / 3.0_f64.sqrt();
        assert!((g2.nodes[0] + x).abs() < 1e-14);
        assert!((g2.nodes[1] - x).abs() < 1e-14);
        assert!((g2.weights[0] - 1.0).abs() < 1e-14);

        let g3 = GaussRule::new(3);
        assert!((g3.nodes[1]).abs() < 1e-14);
        assert!((g3.weights[1] - 8.0 / 9.0).abs() < 1e-14);
        assert!((g3.nodes[2] - (0.6_f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn exactness_degree() {
        // n-point rule integrates ξ^k exactly for k ≤ 2n−1.
        for n in 1..8 {
            let g = GaussRule::new(n);
            for k in 0..=(2 * n - 1) {
                let exact = if k % 2 == 0 {
                    2.0 / (k as f64 + 1.0)
                } else {
                    0.0
                };
                let got = g.integrate(|x| x.powi(k as i32));
                assert!(
                    (got - exact).abs() < 1e-13,
                    "n={n} k={k}: got {got}, want {exact}"
                );
            }
        }
    }

    #[test]
    fn weights_sum_to_interval_length() {
        for n in 1..12 {
            let g = GaussRule::new(n);
            let s: f64 = g.weights.iter().sum();
            assert!((s - 2.0).abs() < 1e-13);
        }
    }

    #[test]
    fn tensor_grid_integrates_cube() {
        // ∫ ξ₀² ξ₁⁴ over [-1,1]³ = (2/3)(2/5)(2) = 8/15.
        let mut tg = TensorGauss::new(4, 3);
        let mut xi = [0.0; 3];
        let mut acc = 0.0;
        while let Some(w) = tg.next_point(&mut xi) {
            acc += w * xi[0] * xi[0] * xi[1].powi(4);
        }
        assert!((acc - 8.0 / 15.0).abs() < 1e-13);
    }

    #[test]
    fn tensor_grid_point_count() {
        let mut tg = TensorGauss::new(3, 4);
        assert_eq!(tg.total_points(), 81);
        let mut xi = [0.0; 4];
        let mut n = 0;
        while tg.next_point(&mut xi).is_some() {
            n += 1;
        }
        assert_eq!(n, 81);
    }
}
