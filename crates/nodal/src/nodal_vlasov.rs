//! The quadrature-pipeline Vlasov operator.
//!
//! Identical discrete operator to `dg_core::vlasov::VlasovOp` (same fluxes,
//! same `α` construction, same penalty speeds), evaluated through dense
//! interpolation/projection matrices and pointwise products — the cost
//! model of the alias-free *nodal* scheme in the paper's Table I.

use crate::quad_eval::QuadEval;
use dg_core::vlasov::FluxKind;
use dg_grid::{DgField, PhaseGrid};
use dg_tables::accel::VelGeom;
use dg_tables::PhaseKernels;
use std::ops::Range;
use std::sync::Arc;

/// Scratch buffers for the dense pipeline.
#[derive(Clone, Debug, Default)]
pub struct NodalWorkspace {
    alpha: Vec<f64>,
    alpha_face: Vec<f64>,
    f_q: Vec<f64>,
    a_q: Vec<f64>,
    prod_q: Vec<f64>,
    fl_q: Vec<f64>,
    fr_q: Vec<f64>,
    af_q: Vec<f64>,
    ghat_q: Vec<f64>,
}

/// The nodal (quadrature) evaluator.
pub struct NodalVlasov {
    pub kernels: Arc<PhaseKernels>,
    pub grid: PhaseGrid,
    pub flux: FluxKind,
    pub quad: QuadEval,
    vel_centers: Vec<[f64; 3]>,
    dv: [f64; 3],
}

impl NodalVlasov {
    /// `nq_per_dim` Gauss points per dimension: use
    /// [`crate::alias_free_points`] for the exact baseline or
    /// [`crate::aliased_points`] for the under-integrated variant.
    pub fn new(
        kernels: Arc<PhaseKernels>,
        grid: PhaseGrid,
        flux: FluxKind,
        nq_per_dim: usize,
    ) -> Self {
        let face_bases: Vec<&dg_basis::Basis> = kernels
            .surfaces
            .iter()
            .map(|s| &s.kernel.face.basis)
            .collect();
        let quad = QuadEval::new(&kernels.phase_basis, &face_bases, nq_per_dim);
        let vdim = grid.vdim();
        let mut vel_centers = Vec::with_capacity(grid.vel.len());
        let mut vidx = vec![0usize; vdim];
        for vlin in 0..grid.vel.len() {
            grid.vel.delinearize(vlin, &mut vidx);
            let mut c = [0.0; 3];
            for d in 0..vdim {
                c[d] = grid.vel.center(d, vidx[d]);
            }
            vel_centers.push(c);
        }
        let mut dv = [1.0; 3];
        dv[..vdim].copy_from_slice(grid.vel.dx());
        NodalVlasov {
            kernels,
            grid,
            flux,
            quad,
            vel_centers,
            dv,
        }
    }

    pub fn workspace(&self) -> NodalWorkspace {
        let nq = self.quad.nq();
        let nqf = self
            .quad
            .faces
            .iter()
            .map(|f| f.weights.len())
            .max()
            .unwrap_or(1);
        NodalWorkspace {
            alpha: vec![0.0; self.kernels.np()],
            alpha_face: vec![0.0; self.kernels.max_face_len()],
            f_q: vec![0.0; nq],
            a_q: vec![0.0; nq],
            prod_q: vec![0.0; nq],
            fl_q: vec![0.0; nqf],
            fr_q: vec![0.0; nqf],
            af_q: vec![0.0; nqf],
            ghat_q: vec![0.0; nqf],
        }
    }

    /// Volume terms via interpolate → pointwise multiply → project.
    pub fn volume(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut DgField,
        ws: &mut NodalWorkspace,
        conf_range: Range<usize>,
    ) {
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let nv = self.grid.vel.len();
        let nc = k.nc();
        let cdx = self.grid.conf.dx();
        let vdx = self.grid.vel.dx();
        let nq = self.quad.nq();
        for clin in conf_range {
            let em_cell = em.cell(clin);
            let e = &em_cell[..3 * nc];
            let b = [
                &em_cell[3 * nc..4 * nc],
                &em_cell[4 * nc..5 * nc],
                &em_cell[5 * nc..6 * nc],
            ];
            for vlin in 0..nv {
                let cell = clin * nv + vlin;
                let fc = f.cell(cell);
                let vc = &self.vel_centers[vlin];
                // Dense interpolation of f (once per cell).
                self.quad.phi.matvec(fc, &mut ws.f_q);
                for dir in 0..cdim + vdim {
                    // Modal α (same construction as the modal path), then
                    // dense interpolation.
                    let scale = if dir < cdim {
                        dg_basis::expand::affine(
                            &k.phase_basis,
                            cdim + dir,
                            vc[dir],
                            0.5 * vdx[dir],
                            &mut ws.alpha,
                        );
                        2.0 / cdx[dir]
                    } else {
                        let j = dir - cdim;
                        k.cell_accel[j].project(
                            qm,
                            &e[j * nc..(j + 1) * nc],
                            b,
                            VelGeom {
                                v_c: &vc[..vdim],
                                dv: &self.dv[..vdim],
                            },
                            &mut ws.alpha,
                        );
                        2.0 / vdx[j]
                    };
                    self.quad.phi.matvec(&ws.alpha, &mut ws.a_q);
                    for q in 0..nq {
                        ws.prod_q[q] = self.quad.weights[q] * ws.a_q[q] * ws.f_q[q] * scale;
                    }
                    self.quad.dphi[dir].matvec_t_acc(&ws.prod_q, out.cell_mut(cell));
                }
            }
        }
    }

    /// One configuration-direction face, dense pipeline (cf.
    /// `VlasovOp::surface_config_face`).
    #[allow(clippy::too_many_arguments)]
    pub fn surface_config_face(
        &self,
        d: usize,
        f: &DgField,
        out: &mut DgField,
        ws: &mut NodalWorkspace,
        clo: usize,
        chi: usize,
    ) {
        let k = &*self.kernels;
        let nv = self.grid.vel.len();
        let vdx = self.grid.vel.dx();
        let scale = 2.0 / self.grid.conf.dx()[d];
        let fq = &self.quad.faces[d];
        let nf = k.surfaces[d].kernel.face.len();
        let nqf = fq.weights.len();
        let central = self.flux == FluxKind::Central;
        for vlin in 0..nv {
            let vc = self.vel_centers[vlin][d];
            let lam = k.stream_face_alpha(d, vc, vdx[d], &mut ws.alpha_face[..nf]);
            let lam = if central { 0.0 } else { lam };
            let lo_cell = clo * nv + vlin;
            let hi_cell = chi * nv + vlin;
            fq.phi_face.matvec(&ws.alpha_face[..nf], &mut ws.af_q);
            fq.trace_hi.matvec(f.cell(lo_cell), &mut ws.fl_q);
            fq.trace_lo.matvec(f.cell(hi_cell), &mut ws.fr_q);
            for q in 0..nqf {
                ws.ghat_q[q] = fq.weights[q]
                    * (0.5 * ws.af_q[q] * (ws.fl_q[q] + ws.fr_q[q])
                        - 0.5 * lam * (ws.fr_q[q] - ws.fl_q[q]));
            }
            let (o_lo, o_hi) = out.cell_pair_mut(lo_cell, hi_cell);
            for q in 0..nqf {
                let g = ws.ghat_q[q];
                let row_hi = &fq.trace_hi.data[q * o_lo.len()..(q + 1) * o_lo.len()];
                let row_lo = &fq.trace_lo.data[q * o_hi.len()..(q + 1) * o_hi.len()];
                for l in 0..o_lo.len() {
                    o_lo[l] -= scale * g * row_hi[l];
                    o_hi[l] += scale * g * row_lo[l];
                }
            }
        }
    }

    /// Velocity-direction surfaces for configuration cells in `conf_range`.
    pub fn surface_velocity(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut DgField,
        ws: &mut NodalWorkspace,
        conf_range: Range<usize>,
    ) {
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let nv = self.grid.vel.len();
        let nc = k.nc();
        let vdx = self.grid.vel.dx();
        let central = self.flux == FluxKind::Central;
        let mut vidx = vec![0usize; vdim];
        for clin in conf_range {
            let em_cell = em.cell(clin);
            let e = &em_cell[..3 * nc];
            let b = [
                &em_cell[3 * nc..4 * nc],
                &em_cell[4 * nc..5 * nc],
                &em_cell[5 * nc..6 * nc],
            ];
            for j in 0..vdim {
                let dir = cdim + j;
                let surf = &k.surfaces[dir];
                let proj = surf.face_accel.as_ref().expect("velocity face");
                let fq = &self.quad.faces[dir];
                let nf = surf.kernel.face.len();
                let nqf = fq.weights.len();
                let stride = self.grid.vel.stride(j);
                let n_j = self.grid.vel.cells()[j];
                let scale = 2.0 / vdx[j];
                for vlin in 0..nv {
                    self.grid.vel.delinearize(vlin, &mut vidx);
                    if vidx[j] + 1 >= n_j {
                        continue;
                    }
                    let vc = &self.vel_centers[vlin];
                    let lam = proj.project(
                        qm,
                        &e[j * nc..(j + 1) * nc],
                        b,
                        VelGeom {
                            v_c: &vc[..vdim],
                            dv: &self.dv[..vdim],
                        },
                        &mut ws.alpha_face[..nf],
                    );
                    let lam = if central { 0.0 } else { lam };
                    let lo_cell = clin * nv + vlin;
                    let hi_cell = lo_cell + stride;
                    fq.phi_face.matvec(&ws.alpha_face[..nf], &mut ws.af_q);
                    fq.trace_hi.matvec(f.cell(lo_cell), &mut ws.fl_q);
                    fq.trace_lo.matvec(f.cell(hi_cell), &mut ws.fr_q);
                    for q in 0..nqf {
                        ws.ghat_q[q] = fq.weights[q]
                            * (0.5 * ws.af_q[q] * (ws.fl_q[q] + ws.fr_q[q])
                                - 0.5 * lam * (ws.fr_q[q] - ws.fl_q[q]));
                    }
                    let (o_lo, o_hi) = out.cell_pair_mut(lo_cell, hi_cell);
                    for q in 0..nqf {
                        let g = ws.ghat_q[q];
                        let row_hi = &fq.trace_hi.data[q * o_lo.len()..(q + 1) * o_lo.len()];
                        let row_lo = &fq.trace_lo.data[q * o_hi.len()..(q + 1) * o_hi.len()];
                        for l in 0..o_lo.len() {
                            o_lo[l] -= scale * g * row_hi[l];
                            o_hi[l] += scale * g * row_lo[l];
                        }
                    }
                }
            }
        }
    }

    /// Full RHS through the dense pipeline (serial).
    pub fn accumulate_rhs(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut DgField,
        ws: &mut NodalWorkspace,
    ) {
        let nconf = self.grid.conf.len();
        self.volume(qm, f, em, out, ws, 0..nconf);
        let cdim = self.grid.cdim();
        let mut cidx = vec![0usize; cdim];
        for d in 0..cdim {
            for clin in 0..nconf {
                self.grid.conf.delinearize(clin, &mut cidx);
                let Some(nbr) = self.grid.conf_neighbor(cidx[d], d, 1) else {
                    continue;
                };
                let mut nidx = cidx.clone();
                nidx[d] = nbr;
                let nlin = self.grid.conf.linearize(&nidx);
                if nlin == clin {
                    continue; // single-cell periodic dims unsupported here
                }
                self.surface_config_face(d, f, out, ws, clin, nlin);
            }
        }
        self.surface_velocity(qm, f, em, out, ws, 0..nconf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias_free_points;
    use dg_basis::BasisKind;
    use dg_core::vlasov::{VlasovOp, VlasovWorkspace};
    use dg_grid::{Bc, CartGrid};
    use dg_maxwell::NCOMP;
    use dg_tables::{kernels_for, PhaseLayout};
    use proptest::{Strategy, TestRng};

    fn random_setup(
        kind: BasisKind,
        cdim: usize,
        vdim: usize,
        p: usize,
        seed: u64,
    ) -> (Arc<PhaseKernels>, PhaseGrid, DgField, DgField) {
        let kernels = kernels_for(kind, PhaseLayout::new(cdim, vdim), p);
        let conf = CartGrid::new(&vec![0.0; cdim], &vec![1.0; cdim], &vec![3; cdim]);
        let vel = CartGrid::new(&vec![-4.0; vdim], &vec![4.0; vdim], &vec![4; vdim]);
        let grid = PhaseGrid::new(conf, vel, vec![Bc::Periodic; cdim]);
        let mut rng = TestRng::from_name(&format!("nodal setup {seed}"));
        let mut f = DgField::zeros(grid.len(), kernels.np());
        for x in f.as_mut_slice() {
            *x = (-1.0..1.0).sample(&mut rng);
        }
        let mut em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        for x in em.as_mut_slice() {
            *x = (-0.5..0.5).sample(&mut rng);
        }
        (kernels, grid, f, em)
    }

    /// The central claim: nodal-with-exact-quadrature and modal evaluate
    /// the *same* discrete operator.
    #[test]
    fn nodal_equals_modal_to_roundoff() {
        for &(kind, cdim, vdim, p) in &[
            (BasisKind::Tensor, 1usize, 1usize, 1usize),
            (BasisKind::Tensor, 1, 1, 2),
            (BasisKind::Serendipity, 1, 2, 2),
            (BasisKind::MaximalOrder, 1, 1, 2),
        ] {
            let (kernels, grid, f, em) = random_setup(kind, cdim, vdim, p, 42);
            let qm = -1.3;
            let modal = VlasovOp::new(Arc::clone(&kernels), grid.clone(), FluxKind::Upwind);
            let mut out_m = DgField::zeros(f.ncells(), f.ncoeff());
            let mut ws_m = VlasovWorkspace::for_kernels(&kernels);
            modal.accumulate_rhs(qm, &f, &em, &mut out_m, &mut ws_m);

            let nodal = NodalVlasov::new(
                Arc::clone(&kernels),
                grid.clone(),
                FluxKind::Upwind,
                alias_free_points(p),
            );
            let mut out_n = DgField::zeros(f.ncells(), f.ncoeff());
            let mut ws_n = nodal.workspace();
            nodal.accumulate_rhs(qm, &f, &em, &mut out_n, &mut ws_n);

            let scale = out_m.max_abs().max(1.0);
            let mut max_diff: f64 = 0.0;
            for (a, b) in out_m.as_slice().iter().zip(out_n.as_slice()) {
                max_diff = max_diff.max((a - b).abs());
            }
            assert!(
                max_diff < 1e-10 * scale,
                "{kind:?} {cdim}x{vdim}v p={p}: modal vs nodal diff {max_diff} (scale {scale})"
            );
        }
    }

    #[test]
    fn under_integration_changes_the_operator() {
        // p = 2 needs 4 points; with 3 the nonlinear term aliases and the
        // result must differ beyond round-off.
        let (kernels, grid, f, em) = random_setup(BasisKind::Tensor, 1, 1, 2, 7);
        let qm = -1.0;
        let exact = NodalVlasov::new(Arc::clone(&kernels), grid.clone(), FluxKind::Upwind, 4);
        let aliased = NodalVlasov::new(Arc::clone(&kernels), grid.clone(), FluxKind::Upwind, 3);
        let mut out_e = DgField::zeros(f.ncells(), f.ncoeff());
        let mut out_a = DgField::zeros(f.ncells(), f.ncoeff());
        let mut ws = exact.workspace();
        exact.accumulate_rhs(qm, &f, &em, &mut out_e, &mut ws);
        let mut ws = aliased.workspace();
        aliased.accumulate_rhs(qm, &f, &em, &mut out_a, &mut ws);
        let mut diff: f64 = 0.0;
        for (a, b) in out_e.as_slice().iter().zip(out_a.as_slice()) {
            diff = diff.max((a - b).abs());
        }
        assert!(
            diff > 1e-6 * out_e.max_abs(),
            "aliasing should visibly change the operator, diff {diff}"
        );
    }
}
