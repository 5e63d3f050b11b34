//! Order-of-accuracy: free-streaming advection against its exact solution.
//!
//! With `E = B = 0`, the Vlasov equation advects the initial condition
//! exactly: `f(x, v, t) = f₀(x − v t, v)`. The modal DG scheme must
//! converge at order `p + 1` in L2 — "retaining a high formal order of
//! convergence" is one of the paper's headline claims for the reduced
//! bases.

use vlasov_dg::basis::BasisKind;
use vlasov_dg::core::app::{AppBuilder, FieldSpec, SpeciesSpec};
use vlasov_dg::poly::quad::TensorGauss;

fn gauss_profile(x: f64, v: f64) -> f64 {
    // Smooth, periodic in x on [0, 2π], compact-ish in v.
    (1.0 + 0.5 * x.sin()) * (-v * v).exp()
}

/// L2 error of the final state against the exact advected profile.
fn advection_error(p: usize, n: usize, t_end: f64) -> f64 {
    let l = 2.0 * std::f64::consts::PI;
    let mut app = AppBuilder::new()
        .conf_grid(&[0.0], &[l], &[n])
        .poly_order(p)
        .basis(BasisKind::Serendipity)
        .init_quadrature(p + 4)
        .species(
            SpeciesSpec::new("n", 0.0, 1.0, &[-4.0], &[4.0], &[n])
                .initial(|x, v| gauss_profile(x[0], v[0])),
        )
        .field(FieldSpec::new(1.0).frozen())
        .build()
        .unwrap();
    // Keep temporal error subdominant.
    app.set_fixed_dt(2e-3 * (8.0 / n as f64));
    app.advance_by(t_end).unwrap();

    // Cell-wise Gauss quadrature of (f_h − f_exact)².
    let sys = app.system();
    let grid = &sys.grid;
    let basis = &sys.kernels.phase_basis;
    let f = &app.state().species_f[0];
    let mut err2 = 0.0;
    let jac = 0.5 * grid.conf.dx()[0] * 0.5 * grid.vel.dx()[0];
    let mut xi = [0.0; 2];
    for cx in 0..grid.conf.len() {
        for cv in 0..grid.vel.len() {
            let cell = grid.phase_index(cx, cv);
            let xc = grid.conf.center(0, cx);
            let vc = grid.vel.center(0, cv);
            let mut tg = TensorGauss::new(p + 3, 2);
            while let Some(w) = tg.next_point(&mut xi) {
                let x = xc + 0.5 * grid.conf.dx()[0] * xi[0];
                let v = vc + 0.5 * grid.vel.dx()[0] * xi[1];
                let got = basis.eval_expansion(f.cell(cell), &xi);
                // Exact: advect x back by v t (periodic).
                let x0 = (x - v * t_end).rem_euclid(l);
                let want = gauss_profile(x0, v);
                err2 += w * jac * (got - want) * (got - want);
            }
        }
    }
    err2.sqrt()
}

#[test]
fn free_streaming_converges_at_p_plus_one() {
    for (p, min_order) in [(1usize, 1.7f64), (2, 2.7)] {
        let e1 = advection_error(p, 8, 0.4);
        let e2 = advection_error(p, 16, 0.4);
        let order = (e1 / e2).log2();
        let observed = format!("p={p}: observed order {order:.2} (errors {e1:.3e} → {e2:.3e})");
        println!("{observed}");
        assert!(order > min_order, "{observed}");
    }
}

#[test]
fn finer_velocity_resolution_reduces_projection_error() {
    // Same spatial problem, refined only in v: total error must not grow.
    let e_coarse = advection_error(1, 8, 0.1);
    let e_fine = advection_error(1, 16, 0.1);
    assert!(e_fine < e_coarse);
}
