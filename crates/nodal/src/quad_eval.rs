//! Dense quadrature tables for a phase basis: the nodal pipeline's data.

// Stencil/loop style: index-coupled quadrature sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use dg_basis::Basis;
use dg_poly::quad::TensorGauss;
use dg_tables::linalg::DMat;

/// Volume and face quadrature tables for one basis at `nq` points per
/// dimension.
#[derive(Clone, Debug)]
pub struct QuadEval {
    /// Points per dimension.
    pub nq_per_dim: usize,
    /// Volume quadrature weights (`Nq` total points).
    pub weights: Vec<f64>,
    /// Interpolation `Nq × Np`: `f(ξ_q) = Σ_l Φ_ql f_l`.
    pub phi: DMat,
    /// Per dimension: `∂w_l/∂ξ_d` at the volume points (`Nq × Np`).
    pub dphi: Vec<DMat>,
    /// Per direction: face tables.
    pub faces: Vec<FaceQuad>,
}

/// Face quadrature for one normal direction.
#[derive(Clone, Debug)]
pub struct FaceQuad {
    /// Face weights (`Nqf` points on the `(d−1)`-cube).
    pub weights: Vec<f64>,
    /// Cell basis at the lower face `ξ_dir = −1` (`Nqf × Np`).
    pub trace_lo: DMat,
    /// Cell basis at the upper face `ξ_dir = +1`.
    pub trace_hi: DMat,
    /// Face basis at the face points (`Nqf × Nf`) for interpolating `α̂`.
    pub phi_face: DMat,
}

impl QuadEval {
    pub fn new(basis: &Basis, face_bases: &[&Basis], nq_per_dim: usize) -> Self {
        let ndim = basis.ndim();
        let np = basis.len();
        // Volume tables.
        let mut tg = TensorGauss::new(nq_per_dim, ndim);
        let nq = tg.total_points();
        let mut weights = Vec::with_capacity(nq);
        let mut phi = DMat::zeros(nq, np);
        let mut dphi: Vec<DMat> = (0..ndim).map(|_| DMat::zeros(nq, np)).collect();
        let mut xi = vec![0.0; ndim];
        let mut q = 0;
        while let Some(w) = tg.next_point(&mut xi) {
            weights.push(w);
            let vals = basis.eval_all(&xi);
            phi.data[q * np..(q + 1) * np].copy_from_slice(&vals);
            for d in 0..ndim {
                let g = basis.eval_grad(d, &xi);
                dphi[d].data[q * np..(q + 1) * np].copy_from_slice(&g);
            }
            q += 1;
        }

        // Face tables.
        let mut faces = Vec::with_capacity(ndim);
        for dir in 0..ndim {
            let fdim = ndim - 1;
            let fb = face_bases[dir];
            let nf = fb.len();
            let mut tgf = TensorGauss::new(nq_per_dim, fdim);
            let nqf = tgf.total_points().max(1);
            let mut fw = Vec::with_capacity(nqf);
            let mut trace_lo = DMat::zeros(nqf, np);
            let mut trace_hi = DMat::zeros(nqf, np);
            let mut phi_face = DMat::zeros(nqf, nf);
            let mut fxi = vec![0.0; fdim.max(1)];
            let mut cxi = vec![0.0; ndim];
            if fdim == 0 {
                // 1D cells: the face is a point with unit weight.
                fw.push(1.0);
                cxi[dir] = -1.0;
                trace_lo.data[..np].copy_from_slice(&basis.eval_all(&cxi));
                cxi[dir] = 1.0;
                trace_hi.data[..np].copy_from_slice(&basis.eval_all(&cxi));
                phi_face.data[..nf].copy_from_slice(&fb.eval_all(&[]));
            } else {
                let mut q = 0;
                while let Some(w) = tgf.next_point(&mut fxi) {
                    fw.push(w);
                    // Assemble the cell point from face coordinates.
                    let mut k = 0;
                    for d in 0..ndim {
                        if d == dir {
                            continue;
                        }
                        cxi[d] = fxi[k];
                        k += 1;
                    }
                    cxi[dir] = -1.0;
                    trace_lo.data[q * np..(q + 1) * np].copy_from_slice(&basis.eval_all(&cxi));
                    cxi[dir] = 1.0;
                    trace_hi.data[q * np..(q + 1) * np].copy_from_slice(&basis.eval_all(&cxi));
                    phi_face.data[q * nf..(q + 1) * nf].copy_from_slice(&fb.eval_all(&fxi[..fdim]));
                    q += 1;
                }
            }
            faces.push(FaceQuad {
                weights: fw,
                trace_lo,
                trace_hi,
                phi_face,
            });
        }
        QuadEval {
            nq_per_dim,
            weights,
            phi,
            dphi,
            faces,
        }
    }

    pub fn nq(&self) -> usize {
        self.weights.len()
    }

    /// Multiplication count of one volume evaluation through this pipeline
    /// (3 dense matvecs + pointwise products, per direction pair as used by
    /// [`crate::NodalVlasov`]).
    pub fn volume_mults(&self, np: usize, ndirs: usize) -> usize {
        let nq = self.nq();
        // interp f once + per direction (interp α + product + project)
        nq * np + ndirs * (nq * np + nq + nq * np)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_basis::{BasisKind, FaceBasis};

    #[test]
    fn mass_matrix_is_identity_under_exact_quadrature() {
        let basis = Basis::new(BasisKind::Serendipity, 3, 2);
        let fbs: Vec<Basis> = (0..3).map(|d| FaceBasis::new(&basis, d).basis).collect();
        let fb_refs: Vec<&Basis> = fbs.iter().collect();
        let q = QuadEval::new(&basis, &fb_refs, 4);
        let np = basis.len();
        // M = Φᵀ diag(w) Φ must be the identity.
        for i in 0..np {
            for j in 0..np {
                let mut acc = 0.0;
                for qp in 0..q.nq() {
                    acc += q.weights[qp] * q.phi.at(qp, i) * q.phi.at(qp, j);
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((acc - want).abs() < 1e-12, "M[{i}][{j}] = {acc}");
            }
        }
    }

    #[test]
    fn quadrature_gradient_matches_exact_grad_mass() {
        let basis = Basis::new(BasisKind::Tensor, 2, 2);
        let fbs: Vec<Basis> = (0..2).map(|d| FaceBasis::new(&basis, d).basis).collect();
        let fb_refs: Vec<&Basis> = fbs.iter().collect();
        let q = QuadEval::new(&basis, &fb_refs, 4);
        let t = dg_poly::tables::Tables1d::new(2);
        let np = basis.len();
        for d in 0..2 {
            for l in 0..np {
                for m in 0..np {
                    let mut acc = 0.0;
                    for qp in 0..q.nq() {
                        acc += q.weights[qp] * q.dphi[d].at(qp, l) * q.phi.at(qp, m);
                    }
                    // Exact: factorized 1D gradient-mass.
                    let (el, em) = (basis.exps(l), basis.exps(m));
                    let mut want = 1.0;
                    for dd in 0..2 {
                        want *= if dd == d {
                            t.grad_mass(el[dd] as usize, em[dd] as usize)
                        } else if el[dd] == em[dd] {
                            1.0
                        } else {
                            0.0
                        };
                    }
                    assert!((acc - want).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn face_weights_cover_face_measure() {
        let basis = Basis::new(BasisKind::Serendipity, 3, 1);
        let fbs: Vec<Basis> = (0..3).map(|d| FaceBasis::new(&basis, d).basis).collect();
        let fb_refs: Vec<&Basis> = fbs.iter().collect();
        let q = QuadEval::new(&basis, &fb_refs, 2);
        for f in &q.faces {
            let s: f64 = f.weights.iter().sum();
            assert!((s - 4.0).abs() < 1e-12, "face measure {s}");
        }
    }
}
