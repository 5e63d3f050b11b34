//! The runtime sparse-tensor evaluator, behind the generated kernels'
//! calling conventions.
//!
//! Every generated kernel has an interpreted twin here that takes the same
//! arguments — plus the tables it interprets and a caller-owned
//! [`SparseScratch`] — and does the same arithmetic from the sparse exact
//! tensors instead of unrolled literals:
//!
//! * [`PhaseKernels::sparse_volume`] — the Vlasov volume kernel
//!   (`dg_kernels::dispatch::VolumeKernelFn`);
//! * [`PhaseKernels::sparse_face`] — the face kernel of one phase direction
//!   (`SurfaceKernelFn`), `α̂` built and bounded per call;
//! * the five LBO stages of one velocity direction as methods of
//!   [`LboDirTables`] (`LboDragVolFn` … `LboDiffSurfFn`).
//!
//! This is the one runtime path: the solvers run it for configurations
//! without generated kernels (and as the oracle on ones with them), and the
//! generated kernels are tested against it. No call allocates.
//!
//! **One add per output coefficient.** Each call stages its increment in
//! the scratch and then adds it to every output coefficient exactly once
//! (`out[l] += inc[l]`) — the property every generated body has. A sweep
//! may therefore accumulate a cell's terms into a zeroed panel and add the
//! panel to the cell afterwards, bit for bit the same as adding each term
//! to the cell in turn.

use crate::accel::VelGeom;
use crate::codegen::LboDirTables;
use crate::phase::PhaseKernels;
use crate::surface::FaceScratch;

/// Scratch for the evaluator: the cell and face `α` expansions, a face
/// trace and flux, and the staged increments of both sides of a face.
/// Sized once for a kernel set; reused by every call.
#[derive(Clone, Debug, Default)]
pub struct SparseScratch {
    alpha: Vec<f64>,
    alpha_face: Vec<f64>,
    trace: Vec<f64>,
    ghat: Vec<f64>,
    face: FaceScratch,
    inc: [Vec<f64>; 2],
}

impl SparseScratch {
    /// Scratch for every kernel of `pk` (and its LBO tables).
    pub fn for_kernels(pk: &PhaseKernels) -> Self {
        let (np, nf) = (pk.np(), pk.max_face_len());
        let mut face = FaceScratch::default();
        face.ensure(nf);
        SparseScratch {
            alpha: vec![0.0; np],
            alpha_face: vec![0.0; nf],
            trace: vec![0.0; nf],
            ghat: vec![0.0; nf],
            face,
            inc: [vec![0.0; np], vec![0.0; np]],
        }
    }
}

/// The two staged increments of a scratch, zeroed, `n` coefficients each.
fn staged(inc: &mut [Vec<f64>; 2], n: usize) -> [&mut [f64]; 2] {
    let [lo, hi] = inc;
    lo[..n].fill(0.0);
    hi[..n].fill(0.0);
    [&mut lo[..n], &mut hi[..n]]
}

/// `out[l] += inc[l]`, once per coefficient.
fn add(out: &mut [f64], inc: &[f64]) {
    for (o, i) in out.iter_mut().zip(inc) {
        *o += i;
    }
}

/// The E and B component slices of a flattened EM cell (`[Ex, Ey, Ez, Bx,
/// By, Bz, …] × Nc`; trailing components are ignored).
fn em_parts(em: &[f64], nc: usize) -> (&[f64], [&[f64]; 3]) {
    let b = [
        &em[3 * nc..4 * nc],
        &em[4 * nc..5 * nc],
        &em[5 * nc..6 * nc],
    ];
    (&em[..3 * nc], b)
}

impl PhaseKernels {
    /// The Vlasov volume kernel (`VolumeKernelFn` convention): streaming in
    /// every configuration direction, then the Lorentz acceleration in every
    /// velocity direction, accumulated into `out` once.
    #[allow(clippy::too_many_arguments)]
    pub fn sparse_volume(
        &self,
        w: &[f64],
        dxv: &[f64],
        qm: f64,
        em: &[f64],
        f: &[f64],
        out: &mut [f64],
        sc: &mut SparseScratch,
    ) {
        let (cdim, vdim, nc) = (self.layout.cdim, self.layout.vdim, self.nc());
        let [inc, _] = staged(&mut sc.inc, out.len());
        for (d, s) in self.streaming.iter().enumerate() {
            s.apply(f, w[cdim + d], dxv[cdim + d], 2.0 / dxv[d], inc);
        }
        let (e, b) = em_parts(em, nc);
        let geom = VelGeom {
            v_c: &w[cdim..cdim + vdim],
            dv: &dxv[cdim..cdim + vdim],
        };
        for (j, (proj, vol)) in self.cell_accel.iter().zip(&self.accel_vol).enumerate() {
            proj.project(qm, &e[j * nc..(j + 1) * nc], b, geom, &mut sc.alpha);
            vol.apply(&sc.alpha, f, 2.0 / dxv[cdim + j], inc);
        }
        add(out, inc);
    }

    /// The face kernel of phase direction `dir` (`SurfaceKernelFn`
    /// convention): `α̂` — the streaming `v_dir` of the lower cell's paired
    /// velocity center, or the projected acceleration on a velocity face —
    /// its exact sup bound as the penalty speed, then the flux into both
    /// sides. Streaming faces never read `qm`/`em`.
    #[allow(clippy::too_many_arguments)]
    pub fn sparse_face(
        &self,
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
        sc: &mut SparseScratch,
    ) {
        let (cdim, vdim, nc) = (self.layout.cdim, self.layout.vdim, self.nc());
        let surf = &self.surfaces[dir];
        let alpha = &mut sc.alpha_face[..surf.kernel.face.len()];
        let lam = match &surf.face_accel {
            None => self.stream_face_alpha(dir, w[cdim + dir], dxv[cdim + dir], alpha),
            Some(proj) => {
                let j = dir - cdim;
                let (e, b) = em_parts(em, nc);
                let geom = VelGeom {
                    v_c: &w[cdim..cdim + vdim],
                    dv: &dxv[cdim..cdim + vdim],
                };
                proj.project(qm, &e[j * nc..(j + 1) * nc], b, geom, alpha)
            }
        };
        let lam = if penalty { lam } else { 0.0 };
        let [lo, hi] = staged(&mut sc.inc, out_lo.len());
        surf.kernel
            .apply(f_lo, f_hi, alpha, lam, 2.0 / dxv[dir], lo, hi, &mut sc.face);
        add(out_lo, lo);
        add(out_hi, hi);
    }
}

impl LboDirTables {
    /// Drag volume term (`LboDragVolFn`): `α = −ν (v_j − u_j(x))` embedded
    /// in the phase basis, contracted with the drag tensor.
    #[allow(clippy::too_many_arguments)]
    pub fn drag_vol(
        &self,
        nu: f64,
        v_c: f64,
        dv: f64,
        u: &[f64],
        f: &[f64],
        out: &mut [f64],
        sc: &mut SparseScratch,
    ) {
        let np = out.len();
        let alpha = &mut sc.alpha[..np];
        alpha.fill(0.0);
        alpha[0] = -nu * v_c * self.c0p;
        alpha[self.lin_idx] = -nu * 0.5 * dv * self.c1p;
        for (l, &e) in self.emb_phase.iter().enumerate() {
            alpha[e as usize] += nu * self.w_phase * u[l];
        }
        let [inc, _] = staged(&mut sc.inc, np);
        self.drag_tensor.apply(alpha, f, 2.0 / dv, inc);
        add(out, inc);
    }

    /// Drag surface term at one interior face (`LboDragSurfFn`): the
    /// penalized central flux of `α̂ = −ν (v* − u_j(x))`.
    #[allow(clippy::too_many_arguments)]
    pub fn drag_surf(
        &self,
        nu: f64,
        vstar: f64,
        dv: f64,
        u: &[f64],
        f_lo: &[f64],
        f_hi: &[f64],
        out_lo: &mut [f64],
        out_hi: &mut [f64],
        sc: &mut SparseScratch,
    ) {
        let alpha = &mut sc.alpha_face[..self.surf.face.len()];
        alpha.fill(0.0);
        alpha[0] = -nu * vstar * self.c0f;
        for (l, &e) in self.emb_face.iter().enumerate() {
            alpha[e as usize] += nu * self.w_face * u[l];
        }
        let lam = self.surf.sup_bound(alpha);
        let [lo, hi] = staged(&mut sc.inc, out_lo.len());
        self.surf
            .apply(f_lo, f_hi, alpha, lam, 2.0 / dv, lo, hi, &mut sc.face);
        add(out_lo, lo);
        add(out_hi, hi);
    }

    /// LDG gradient of one cell (`LboDiffGradFn`): `g += ∂f/∂v_j`, the
    /// upper face's trace from the upper neighbour `f_up` (the cell's own
    /// upper trace when `at_upper`), the lower face's from the cell.
    pub fn diff_grad(
        &self,
        dv: f64,
        at_upper: bool,
        f: &[f64],
        f_up: &[f64],
        g: &mut [f64],
        sc: &mut SparseScratch,
    ) {
        let scale = 2.0 / dv;
        let face = &self.surf.face;
        let trace = &mut sc.trace[..face.len()];
        let [inc, _] = staged(&mut sc.inc, g.len());
        for &(l, m, c) in &self.grad_mass {
            inc[l as usize] += -scale * c * f[m as usize];
        }
        trace.fill(0.0);
        if at_upper {
            face.restrict(1, f, trace);
        } else {
            face.restrict(-1, f_up, trace);
        }
        face.lift(1, trace, scale, inc);
        trace.fill(0.0);
        face.restrict(-1, f, trace);
        face.lift(-1, trace, -scale, inc);
        add(g, inc);
    }

    /// Diffusion volume term (`LboDiffVolFn`): weak `ν vth²(x) ∂_{v_j} g`.
    #[allow(clippy::too_many_arguments)]
    pub fn diff_vol(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[f64],
        g: &[f64],
        out: &mut [f64],
        sc: &mut SparseScratch,
    ) {
        let np = out.len();
        let alpha = &mut sc.alpha[..np];
        alpha.fill(0.0);
        for (l, &e) in self.emb_phase.iter().enumerate() {
            alpha[e as usize] = self.w_phase * vth2[l];
        }
        let [inc, _] = staged(&mut sc.inc, np);
        self.diff_tensor.apply(alpha, g, -nu * (2.0 / dv), inc);
        add(out, inc);
    }

    /// Diffusion surface term at one interior face (`LboDiffSurfFn`): the
    /// one-sided LDG flux `Ĝ = (vth² g)⁻`, the lower cell's upper trace.
    #[allow(clippy::too_many_arguments)]
    pub fn diff_surf(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[f64],
        g_lo: &[f64],
        out_lo: &mut [f64],
        out_hi: &mut [f64],
        sc: &mut SparseScratch,
    ) {
        let scale = 2.0 / dv;
        let face = &self.surf.face;
        let nf = face.len();
        let alpha = &mut sc.alpha_face[..nf];
        alpha.fill(0.0);
        for (l, &e) in self.emb_face.iter().enumerate() {
            alpha[e as usize] = self.w_face * vth2[l];
        }
        let (trace, ghat) = (&mut sc.trace[..nf], &mut sc.ghat[..nf]);
        trace.fill(0.0);
        face.restrict(1, g_lo, trace);
        ghat.fill(0.0);
        self.surf.dmat.apply(alpha, trace, 1.0, ghat);
        let [lo, hi] = staged(&mut sc.inc, out_lo.len());
        face.lift(1, ghat, nu * scale, lo);
        face.lift(-1, ghat, -nu * scale, hi);
        add(out_lo, lo);
        add(out_hi, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{lbo_dir_tables, MANIFEST};
    use crate::phase::PhaseLayout;
    use dg_basis::BasisKind;

    /// Deterministic, cell-to-cell different data.
    fn data(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (((i + 1) * (seed + 7) * 37 % 101) as f64 - 50.0) * 0.013)
            .collect()
    }

    /// Run `call` onto zeroed outputs and onto non-zero ones: each non-zero
    /// output must come back as its start plus the zero-start result, bit
    /// for bit — one add per coefficient.
    fn adds_once(what: &str, n: usize, mut call: impl FnMut(&mut [f64], &mut [f64])) {
        let (mut lo0, mut hi0) = (vec![0.0; n], vec![0.0; n]);
        call(&mut lo0, &mut hi0);
        let (start_lo, start_hi) = (data(n, 3), data(n, 4));
        let (mut lo, mut hi) = (start_lo.clone(), start_hi.clone());
        call(&mut lo, &mut hi);
        for (side, got, start, inc) in [
            ("lower", &lo, &start_lo, &lo0),
            ("upper", &hi, &start_hi, &hi0),
        ] {
            for i in 0..n {
                assert_eq!(
                    got[i].to_bits(),
                    (start[i] + inc[i]).to_bits(),
                    "{what} {side} coefficient {i}"
                );
            }
        }
        assert!(
            lo0.iter().chain(&hi0).any(|x| *x != 0.0),
            "{what}: the call must do something"
        );
    }

    #[test]
    fn every_call_adds_its_staged_increment_once_per_coefficient() {
        // The generated bodies write each output coefficient once; the
        // evaluator stages its increment so it does the same, which is what
        // lets a sweep run it into zeroed panels and add them later.
        let configs = MANIFEST
            .iter()
            .map(|s| (s.kind, s.layout(), s.poly_order))
            .chain([(BasisKind::Serendipity, PhaseLayout::new(1, 3), 1)]);
        for (kind, layout, p) in configs {
            let pk = crate::kernels_for(kind, layout, p);
            let (ndim, np, nc) = (layout.ndim(), pk.np(), pk.nc());
            let mut sc = SparseScratch::for_kernels(&pk);
            let w = data(ndim, 1);
            let dxv: Vec<f64> = data(ndim, 2).iter().map(|x| 0.5 + x.abs()).collect();
            let em = data(8 * nc, 5);
            let (f, f2) = (data(np, 6), data(np, 8));
            let tag = format!("{kind:?} {} p{p}", layout.tag());
            adds_once(&format!("{tag} volume"), np, |out, _| {
                pk.sparse_volume(&w, &dxv, 0.7, &em, &f, out, &mut sc)
            });
            for dir in 0..ndim {
                for penalty in [false, true] {
                    adds_once(&format!("{tag} face {dir}"), np, |lo, hi| {
                        pk.sparse_face(dir, &w, &dxv, 0.7, &em, penalty, &f, &f2, lo, hi, &mut sc)
                    });
                }
            }
            let (u, vth2) = (data(nc, 9), data(nc, 10));
            for j in 0..layout.vdim {
                let t = lbo_dir_tables(&pk, j);
                let what = |stage: &str| format!("{tag} {stage}_v{j}");
                adds_once(&what("drag_vol"), np, |out, _| {
                    t.drag_vol(0.6, 0.3, 0.8, &u, &f, out, &mut sc)
                });
                adds_once(&what("drag_surf"), np, |lo, hi| {
                    t.drag_surf(0.6, 0.7, 0.8, &u, &f, &f2, lo, hi, &mut sc)
                });
                for at_upper in [false, true] {
                    adds_once(&what("diff_grad"), np, |g, _| {
                        t.diff_grad(0.8, at_upper, &f, &f2, g, &mut sc)
                    });
                }
                adds_once(&what("diff_vol"), np, |out, _| {
                    t.diff_vol(0.6, 0.8, &vth2, &f, out, &mut sc)
                });
                adds_once(&what("diff_surf"), np, |lo, hi| {
                    t.diff_surf(0.6, 0.8, &vth2, &f, lo, hi, &mut sc)
                });
            }
        }
    }
}
