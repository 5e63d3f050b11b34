//! Surface-integral kernels: trace → single-valued numerical flux → lift.
//!
//! For the face between a lower cell `L` and upper cell `R` along direction
//! `dir`, the update contributions are
//!
//! ```text
//! Ĝ_a   = ½ Σ_{b,c} D_abc α̂_b (f⁻ + f⁺)_c  −  (λ/2)(f⁺ − f⁻)_a
//! outL_l −= (2/Δ) T^{+}_{la} Ĝ_a ,   outR_l += (2/Δ) T^{-}_{la} Ĝ_a
//! ```
//!
//! with `f⁻ = T⁺ f_L` (trace of the lower cell at its upper face),
//! `f⁺ = T⁻ f_R`, `D_abc = ∫ φ_a φ_b φ_c dξ'` the *exact* face triple
//! tensor, and `λ` a local Lax–Friedrichs penalty speed (λ = 0 recovers the
//! central flux used for the energy-conservation experiments). All
//! quantities are exact modal operations — no face quadrature anywhere,
//! and the flux is single-valued by construction, so cell means telescope
//! and mass is conserved to round-off (asserted in `dg-core` tests).

use crate::tables1d::ExactTables;
use crate::triple::{build_triple, DimTable, SparseTriple, TripleSpec};
use dg_basis::{Basis, Exps, FaceBasis};

/// Scratch buffers for one face evaluation (sized to the largest face).
#[derive(Clone, Debug, Default)]
pub struct FaceScratch {
    pub fm: Vec<f64>,
    pub fp: Vec<f64>,
    pub favg: Vec<f64>,
    pub ghat: Vec<f64>,
    pub alpha: Vec<f64>,
}

impl FaceScratch {
    pub fn ensure(&mut self, nface: usize) {
        if self.fm.len() < nface {
            self.fm.resize(nface, 0.0);
            self.fp.resize(nface, 0.0);
            self.favg.resize(nface, 0.0);
            self.ghat.resize(nface, 0.0);
            self.alpha.resize(nface, 0.0);
        }
    }
}

/// The surface kernel for faces normal to one phase dimension.
#[derive(Clone, Debug)]
pub struct SurfaceKernel {
    pub dir: usize,
    pub face: FaceBasis,
    /// Face triple tensor with `b` restricted to the support of `α̂`.
    pub dmat: SparseTriple,
    /// Sup-norm bounds of face modes (penalty-speed estimation).
    pub sup: Vec<f64>,
}

/// Support restriction of `α̂` on this face, in face-dimension numbering:
/// which face dims may carry a single linear exponent.
pub struct FaceAlphaSupport<'a> {
    /// Per-face-dim exponent cap.
    pub caps: &'a Exps,
    /// Dims (face numbering) that may hold the single linear exponent; the
    /// filter enforces "at most one linear velocity factor overall".
    pub lin_dims: &'a [usize],
}

impl SurfaceKernel {
    pub fn build(
        cell: &Basis,
        tables: &ExactTables,
        dir: usize,
        support: &FaceAlphaSupport<'_>,
    ) -> Self {
        let face = FaceBasis::new(cell, dir);
        let fdim = cell.ndim() - 1;
        let dim_tables = vec![DimTable::Mass; fdim];
        let lin: Vec<usize> = support.lin_dims.to_vec();
        let filter = move |e: &Exps| -> bool {
            lin.iter().map(|&d| usize::from(e[d] > 0)).sum::<usize>() <= 1
        };
        let spec = TripleSpec {
            basis_l: &face.basis,
            basis_m: &face.basis,
            basis_n: &face.basis,
            dim_tables: &dim_tables,
            m_caps: Some(support.caps),
            m_filter: Some(&filter),
        };
        let dmat = build_triple(&spec, tables);
        let sup = (0..face.len()).map(|a| face.basis.sup_norm(a)).collect();
        SurfaceKernel {
            dir,
            face,
            dmat,
            sup,
        }
    }

    /// Evaluate the face flux and accumulate into the adjacent cells.
    ///
    /// `alpha_face` is the single-valued modal expansion of `α̂` on the face
    /// basis (already in `ws.alpha` by convention of the callers); `lambda`
    /// the penalty speed (0 ⇒ central flux); `scale = 2/Δ_dir`. Either
    /// output may be absent (domain boundaries, subdomain edges).
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        f_lo: &[f64],
        f_hi: &[f64],
        alpha_face: &[f64],
        lambda: f64,
        scale: f64,
        out_lo: Option<&mut [f64]>,
        out_hi: Option<&mut [f64]>,
        ws: &mut FaceScratch,
    ) {
        let nf = self.face.len();
        ws.ensure(nf);
        ws.fm[..nf].fill(0.0);
        ws.fp[..nf].fill(0.0);
        self.face.restrict(1, f_lo, &mut ws.fm);
        self.face.restrict(-1, f_hi, &mut ws.fp);
        for a in 0..nf {
            ws.favg[a] = 0.5 * (ws.fm[a] + ws.fp[a]);
            ws.ghat[a] = -0.5 * lambda * (ws.fp[a] - ws.fm[a]);
        }
        self.dmat
            .apply(alpha_face, &ws.favg[..nf], 1.0, &mut ws.ghat[..nf]);
        if let Some(out) = out_lo {
            self.face.lift(1, &ws.ghat[..nf], -scale, out);
        }
        if let Some(out) = out_hi {
            self.face.lift(-1, &ws.ghat[..nf], scale, out);
        }
    }

    /// Penalty speed from the modal sup bound of `α̂`.
    pub fn sup_bound(&self, alpha_face: &[f64]) -> f64 {
        alpha_face
            .iter()
            .zip(&self.sup)
            .map(|(a, s)| a.abs() * s)
            .sum()
    }

    /// Multiplications per face application (both sides).
    ///
    /// Restrict and lift are counted against the *actual* non-zero trace
    /// entries (exactly one per cell mode for these bases — `Np` per side,
    /// not a guess from the face-basis size), so `op_report` flop ratios
    /// and the EXPERIMENTS.md tables reflect what the kernels execute.
    pub fn mult_count(&self) -> usize {
        let nf = self.face.len();
        // One multiply per trace entry on each side: f_lo restricts through
        // the upper trace, f_hi through the lower one; the lifts reuse the
        // same entries (scale folded as in the fused production kernels).
        let restrict = self.face.nnz(1) + self.face.nnz(-1);
        let lift = self.face.nnz(1) + self.face.nnz(-1);
        // restrict (2 sides) + flux tensor + avg/penalty + lift (2 sides)
        restrict + self.dmat.mult_count() + 2 * nf + lift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_basis::BasisKind;
    use dg_poly::quad::TensorGauss;
    use dg_poly::MAX_DIM;

    fn full_support(fdim: usize, p: usize) -> (Exps, Vec<usize>) {
        let mut caps: Exps = [0; MAX_DIM];
        for c in caps.iter_mut().take(fdim) {
            *c = p as u8;
        }
        (caps, (0..fdim).collect())
    }

    #[test]
    fn central_flux_matches_symbolic_surface_integral() {
        // Check ∮ w_l Ĝ against direct (quadrature) evaluation of the exact
        // face integral for polynomial data — they must agree to round-off
        // because every D entry is exact.
        let cell = Basis::new(BasisKind::Tensor, 2, 2);
        let tables = ExactTables::new(2);
        let (caps, lin) = full_support(1, 2);
        let sk = SurfaceKernel::build(
            &cell,
            &tables,
            0,
            &FaceAlphaSupport {
                caps: &caps,
                lin_dims: &lin,
            },
        );
        let np = cell.len();
        let f_lo: Vec<f64> = (0..np).map(|i| (i as f64 * 0.13).sin()).collect();
        let f_hi: Vec<f64> = (0..np).map(|i| (i as f64 * 0.29).cos()).collect();
        let nf = sk.face.len();
        let alpha: Vec<f64> = (0..nf).map(|a| 0.5 - 0.1 * a as f64).collect();

        let mut out_lo = vec![0.0; np];
        let mut out_hi = vec![0.0; np];
        let mut ws = FaceScratch::default();
        sk.apply(
            &f_lo,
            &f_hi,
            &alpha,
            0.0,
            1.0,
            Some(&mut out_lo),
            Some(&mut out_hi),
            &mut ws,
        );

        // Quadrature reference: Ĝ(ξ') = α(ξ')·½(f_lo(1,ξ') + f_hi(−1,ξ')).
        let mut tg_counted = 0;
        for l in 0..np {
            let mut acc_lo = 0.0;
            let mut acc_hi = 0.0;
            let mut tg = TensorGauss::new(5, 1);
            let mut fxi = [0.0; 1];
            while let Some(w) = tg.next_point(&mut fxi) {
                let av = sk.face.basis.eval_expansion(&alpha, &fxi);
                let flo = cell.eval_expansion(&f_lo, &[1.0, fxi[0]]);
                let fhi = cell.eval_expansion(&f_hi, &[-1.0, fxi[0]]);
                let ghat = av * 0.5 * (flo + fhi);
                let wl_hi = cell.eval_expansion(
                    &{
                        let mut e = vec![0.0; np];
                        e[l] = 1.0;
                        e
                    },
                    &[1.0, fxi[0]],
                );
                let wl_lo = cell.eval_expansion(
                    &{
                        let mut e = vec![0.0; np];
                        e[l] = 1.0;
                        e
                    },
                    &[-1.0, fxi[0]],
                );
                acc_lo += w * ghat * wl_hi; // lower cell sees its upper face
                acc_hi += w * ghat * wl_lo;
                tg_counted += 1;
            }
            assert!(
                (out_lo[l] + acc_lo).abs() < 1e-12,
                "lower lift mode {l}: {} vs {}",
                out_lo[l],
                -acc_lo
            );
            assert!(
                (out_hi[l] - acc_hi).abs() < 1e-12,
                "upper lift mode {l}: {} vs {}",
                out_hi[l],
                acc_hi
            );
        }
        assert!(tg_counted > 0);
    }

    #[test]
    fn penalty_damps_jumps() {
        // With α = 0 and λ > 0, the flux is purely a jump penalty, which
        // must reduce the L2 difference of the two cells (dissipativity).
        let cell = Basis::new(BasisKind::Tensor, 2, 1);
        let tables = ExactTables::new(1);
        let (caps, lin) = full_support(1, 1);
        let sk = SurfaceKernel::build(
            &cell,
            &tables,
            0,
            &FaceAlphaSupport {
                caps: &caps,
                lin_dims: &lin,
            },
        );
        let np = cell.len();
        let f_lo = vec![0.0; np];
        let mut f_hi = vec![0.0; np];
        f_hi[0] = 1.0; // jump in the mean
        let alpha = vec![0.0; sk.face.len()];
        let mut out_lo = vec![0.0; np];
        let mut out_hi = vec![0.0; np];
        let mut ws = FaceScratch::default();
        sk.apply(
            &f_lo,
            &f_hi,
            &alpha,
            1.0,
            1.0,
            Some(&mut out_lo),
            Some(&mut out_hi),
            &mut ws,
        );
        // Lower cell must gain (flux points from high to low), upper lose.
        assert!(out_lo[0] > 0.0);
        assert!(out_hi[0] < 0.0);
        assert!((out_lo[0] + out_hi[0]).abs() < 1e-14);
    }
}
