//! The paper's exactly checkable claims (Hakim & Juno, SC 2020) as tests.
//!
//! Every cost claim is checked as a multiplication count from
//! [`OpReport`](vlasov_dg::kernels::ops::OpReport) (modal) or from the
//! quadrature tables `dg_nodal` actually runs (nodal), so the numbers are
//! exact on any host and no test here reads a clock. The wall-clock side of
//! the paper (Table I's step times, the LBO cost factor, Fig. 3's scaling)
//! belongs to `benchmark/`.
//!
//! * Fig. 1 — the 1X2V p=1 tensor volume kernel's multiplication count
//!   and its ratio to the alias-free nodal pipeline;
//! * Fig. 2 — the per-cell update cost is at worst `O(Np²)`, whatever the
//!   dimensionality and basis family;
//! * Table I — at 2X3V p=2 Serendipity the nodal pipeline needs more than
//!   the paper's measured ≈16× the modal multiplications;
//! * §II — under-integration breaks the energy identity of the
//!   central-flux scheme (Juno et al., arXiv 1705.05407) while mass
//!   survives.
//!
//! Run with `--nocapture` to see the paper's numbers beside ours.

use dg_nodal::aliased::NodalSystem;
use dg_nodal::{alias_free_points, QuadEval};
use vlasov_dg::basis::{Basis, BasisKind};
use vlasov_dg::core::app::{App, AppBuilder, FieldSpec, SpeciesSpec};
use vlasov_dg::core::species::maxwellian;
use vlasov_dg::core::system::{FluxKind, SystemState};
use vlasov_dg::diag::fit::linear_fit;
use vlasov_dg::kernels::{kernels_for, PhaseKernels, PhaseLayout};
use vlasov_dg::maxwell::MaxwellFlux;

/// Multiplications of one modal volume evaluation: streaming plus
/// acceleration, `α` assembly excluded (the paper's Fig. 1 bookkeeping).
fn modal_volume_mults(pk: &PhaseKernels) -> usize {
    let r = pk.op_report();
    r.streaming_volume + r.accel_volume
}

/// Multiplications of the same volume evaluation through the alias-free
/// nodal pipeline `dg_nodal` runs: its quadrature tables at
/// `⌈(3p+1)/2⌉` Gauss points per dimension, one direction per phase
/// dimension.
fn nodal_volume_mults(pk: &PhaseKernels, p: usize) -> usize {
    let face_bases: Vec<&Basis> = pk.surfaces.iter().map(|s| &s.kernel.face.basis).collect();
    let quad = QuadEval::new(&pk.phase_basis, &face_bases, alias_free_points(p));
    quad.volume_mults(pk.np(), pk.layout.ndim())
}

#[test]
fn fig1_modal_vs_nodal_ratio() {
    let pk = kernels_for(BasisKind::Tensor, PhaseLayout::new(1, 2), 1);
    let (modal, nodal) = (modal_volume_mults(&pk), nodal_volume_mults(&pk, 1));
    let ratio = nodal as f64 / modal as f64;
    println!("Fig. 1, 1X2V p=1 tensor volume kernel:");
    println!("  paper: ~70 modal vs ~250 nodal multiplications (3.6x)");
    println!("  ours : {modal} modal vs {nodal} nodal ({ratio:.1}x)");
    assert!((40..=120).contains(&modal), "outside the paper's ballpark");
    assert!(ratio > 2.0, "nodal / modal = {ratio:.2}");
    assert_eq!(modal, 74, "modal volume multiplications");
    assert_eq!(nodal, 472, "nodal volume multiplications");
}

#[test]
fn fig2_cost_is_subquadratic_in_np() {
    let layouts = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)];
    let families = [
        BasisKind::MaximalOrder,
        BasisKind::Serendipity,
        BasisKind::Tensor,
    ];
    let (mut log_np, mut log_mults) = (Vec::new(), Vec::new());
    for (cdim, vdim) in layouts {
        // 6D stops at p = 2 (tensor p = 3 would be Np = 4096).
        let max_p = if cdim + vdim == 6 { 2 } else { 3 };
        for kind in families {
            for p in 1..=max_p {
                let r = kernels_for(kind, PhaseLayout::new(cdim, vdim), p).op_report();
                // Tiny kernels are dominated by per-face overhead terms.
                if r.np < 8 {
                    continue;
                }
                log_np.push((r.np as f64).ln());
                log_mults.push((r.total() as f64).ln());
            }
        }
    }
    let (slope, _) = linear_fit(&log_np, &log_mults);
    println!("Fig. 2, per-cell update multiplications vs Np:");
    println!("  paper: at worst O(Np^2), independent of dimension and basis family");
    println!(
        "  ours : log-log slope {slope:.2} over {} kernels",
        log_np.len()
    );
    assert!(slope < 2.0, "slope {slope:.3}");
}

#[test]
fn table1_nodal_over_modal_multiplications() {
    let p = 2;
    let pk = kernels_for(BasisKind::Serendipity, PhaseLayout::new(2, 3), p);
    assert_eq!(pk.np(), 112, "the paper's 112 DOF per cell");
    let (modal, nodal) = (modal_volume_mults(&pk), nodal_volume_mults(&pk, p));
    let ratio = nodal as f64 / modal as f64;
    println!("Table I, 2X3V p=2 Serendipity volume term:");
    println!("  paper: 1079.63 vs 67.43 s/step nodal vs modal (16x)");
    println!("  ours : {nodal} nodal vs {modal} modal multiplications ({ratio:.1}x)");
    assert!(ratio > 16.0, "nodal / modal = {ratio:.1}");
    assert_eq!(modal, 13_108, "modal volume multiplications");
    assert_eq!(nodal, 1_266_688, "nodal volume multiplications");
}

/// The two-stream instability with central fluxes everywhere, so the
/// discrete scheme conserves total energy exactly when it integrates
/// exactly.
fn two_stream() -> App {
    let u = 3.0;
    let k = (3.0f64 / 8.0).sqrt() / u;
    AppBuilder::new()
        .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / k], &[8])
        .poly_order(2)
        .basis(BasisKind::Serendipity)
        .vlasov_flux(FluxKind::Central)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-8.0], &[8.0], &[24]).initial(move |x, v| {
                (1.0 + 1e-2 * (k * x[0]).cos())
                    * (maxwellian(0.5, &[u], 0.4, v) + maxwellian(0.5, &[-u], 0.4, v))
            }),
        )
        .field(
            FieldSpec::new(8.0)
                .with_poisson_init()
                .flux(MaxwellFlux::Central),
        )
        .build()
        .unwrap()
}

/// Runs the two-stream setup through the nodal pipeline at `nq` Gauss
/// points per dimension and returns `(energy violation, mass drift)`: the
/// largest `|E_total(t) − E_total(0)|` over the run divided by the peak
/// field energy (the scale of the `J·E` exchange), and the relative drift
/// of the particle number.
fn energy_and_mass_drift(nq: usize) -> (f64, f64) {
    let (inner, mut state) = two_stream().into_parts();
    let mut sys = NodalSystem::new(inner, nq);
    let mut stage = sys.inner.new_state();
    let mut rhs = sys.inner.new_state();
    let mass =
        |sys: &NodalSystem, s: &SystemState| sys.inner.particle_numbers(s).iter().sum::<f64>();
    let n0 = mass(&sys, &state);
    let e0 = sys.inner.particle_energy(&state) + sys.inner.field_energy(&state);
    let (mut violation, mut peak_field) = (0.0f64, sys.inner.field_energy(&state));
    for _ in 0..100 {
        sys.step(&mut state, &mut stage, &mut rhs, 2e-3);
        let field = sys.inner.field_energy(&state);
        violation = violation.max((sys.inner.particle_energy(&state) + field - e0).abs());
        peak_field = peak_field.max(field);
    }
    let n1 = mass(&sys, &state);
    (violation / peak_field, ((n1 - n0) / n0).abs())
}

#[test]
fn aliasing_breaks_the_energy_identity_but_not_mass() {
    let (exact, exact_mass) = energy_and_mass_drift(alias_free_points(2));
    let (aliased, aliased_mass) = energy_and_mass_drift(2);
    println!("§II ablation, two-stream p=2 with central fluxes, 100 steps:");
    println!("  energy-identity violation / peak field energy:");
    println!("    exact (4 points) {exact:.2e}, aliased (2 points) {aliased:.2e}");
    println!("  relative mass drift: exact {exact_mass:.2e}, aliased {aliased_mass:.2e}");
    assert!(
        exact_mass.max(aliased_mass) < 1e-11,
        "mass must survive with and without aliasing: {exact_mass:.3e}, {aliased_mass:.3e}"
    );
    assert!(
        aliased >= 100.0 * exact,
        "under-integration should break the energy identity: {aliased:.3e} vs {exact:.3e}"
    );
}
