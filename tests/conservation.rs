//! Discrete conservation over full nonlinear runs — the properties the
//! paper inherits from Juno et al. 2018 and §II argues aliasing would
//! destroy:
//!
//! * particle number: conserved to round-off unconditionally;
//! * total energy (particles + fields): conserved by the semi-discrete
//!   scheme with central fluxes for Maxwell (and |v|² in the basis, p ≥ 2),
//!   so the fully discrete drift must shrink at the SSP-RK3 rate ~dt²;
//! * with the LBO collision operator switched on, density stays exact;
//! * the energy exchange itself, semi-discretely and with no stepper: the
//!   particle energy the Vlasov RHS moves is `∫ J·E` with the moment
//!   kernels' current, on every registry row with p ≥ 2.

use proptest::prelude::*;
use vlasov_dg::basis::BasisKind;
use vlasov_dg::core::app::{App, AppBuilder, FieldSpec, SpeciesSpec};
use vlasov_dg::core::backend::Backend;
use vlasov_dg::core::moments::{
    accumulate_current, energy_density, mode0_integral_weights, MomentScratch,
};
use vlasov_dg::core::species::maxwellian;
use vlasov_dg::core::system::{FluxKind, SystemState};
use vlasov_dg::core::vlasov::{VlasovOp, VlasovWorkspace};
use vlasov_dg::diag::EnergyHistory;
use vlasov_dg::grid::{Bc, CartGrid, DgField, PhaseGrid};
use vlasov_dg::kernels::dispatch::registry;
use vlasov_dg::kernels::{kernels_for, DispatchPath};
use vlasov_dg::maxwell::{MaxwellFlux, NCOMP};

fn langmuir_app(p: usize, vlasov_flux: FluxKind, mx_flux: MaxwellFlux) -> App {
    let k = 0.5;
    AppBuilder::new()
        .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / k], &[8])
        .poly_order(p)
        .basis(BasisKind::Serendipity)
        .vlasov_flux(vlasov_flux)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[16])
                .initial(move |x, v| maxwellian(1.0 + 0.05 * (k * x[0]).cos(), &[0.0], 1.0, v)),
        )
        .field(FieldSpec::new(5.0).with_poisson_init().flux(mx_flux))
        .build()
        .unwrap()
}

/// `app`'s system rebuilt on the runtime sparse-tensor path (every
/// operator, collisions included), stepped `steps` times by `dt` from the
/// App's initial state — the oracle a generated run is compared against.
fn runtime_sparse_twin(app: App, dt: f64, steps: usize) -> SystemState {
    let (system, mut state) = app.into_parts();
    let system = system.into_runtime_sparse();
    assert_eq!(system.vlasov.dispatch_path(), DispatchPath::RuntimeSparse);
    assert!(system
        .collisions()
        .iter()
        .flatten()
        .all(|op| op.dispatch_path() == DispatchPath::RuntimeSparse));
    let mut engine = Backend::new(system, 1, 1);
    for _ in 0..steps {
        engine.step(&mut state, dt);
    }
    state
}

fn run_and_record(app: &mut App, dt: f64, steps: usize) -> EnergyHistory {
    app.set_fixed_dt(dt);
    // Sample every step through the run driver (the EverySteps(1) default
    // also fires once at run start, matching the old record-then-step
    // loop).
    let mut h = EnergyHistory::new();
    app.run(app.time() + steps as f64 * dt, &mut [&mut h])
        .unwrap();
    h
}

#[test]
fn generated_and_runtime_sparse_conserve_mass_and_agree() {
    // 1X1V p=2 Serendipity is in the generated-kernel registry. A full
    // nonlinear run on the generated path must conserve mass to round-off,
    // and the end state must agree with the runtime-sparse oracle to
    // round-off — the kernel path is an implementation choice, never a
    // physics one.
    let mut app_gen = langmuir_app(2, FluxKind::Upwind, MaxwellFlux::Central);
    assert_eq!(
        app_gen.system().vlasov.dispatch_path(),
        DispatchPath::Generated
    );
    let h = run_and_record(&mut app_gen, 2e-3, 100);
    assert!(
        h.mass_drift() < 1e-12,
        "generated-path mass drift {:.3e}",
        h.mass_drift()
    );

    let rt = runtime_sparse_twin(
        langmuir_app(2, FluxKind::Upwind, MaxwellFlux::Central),
        2e-3,
        100,
    );

    let (fg, fr) = (&app_gen.state().species_f[0], &rt.species_f[0]);
    let scale = fr.max_abs().max(1.0);
    for c in 0..fr.ncells() {
        for (a, b) in fg.cell(c).iter().zip(fr.cell(c)) {
            assert!(
                (a - b).abs() < 1e-11 * scale,
                "cell {c}: paths diverged after 100 steps: {a} vs {b}"
            );
        }
    }
}

#[test]
fn mass_is_conserved_to_roundoff() {
    for flux in [FluxKind::Upwind, FluxKind::Central] {
        let mut app = langmuir_app(2, flux, MaxwellFlux::Central);
        let h = run_and_record(&mut app, 2e-3, 200);
        assert!(
            h.mass_drift() < 1e-12,
            "{flux:?}: mass drift {:.3e}",
            h.mass_drift()
        );
    }
}

#[test]
fn central_flux_total_energy_converges_at_stepper_order() {
    // Central Maxwell + central Vlasov flux, p = 2 (so |v|² is in the
    // basis): semi-discrete energy is exactly conserved; halving dt must
    // cut the fully discrete drift by ≈ 2² or better over a fixed horizon.
    let mut coarse = langmuir_app(2, FluxKind::Central, MaxwellFlux::Central);
    let h1 = run_and_record(&mut coarse, 2e-3, 100);
    let mut fine = langmuir_app(2, FluxKind::Central, MaxwellFlux::Central);
    let h2 = run_and_record(&mut fine, 1e-3, 200);
    let (d1, d2) = (h1.energy_drift(), h2.energy_drift());
    assert!(d1 < 1e-6, "coarse drift too large: {d1:.3e}");
    assert!(
        d2 < 0.5 * d1 || d1 < 1e-13,
        "energy drift not converging: {d1:.3e} → {d2:.3e}"
    );
}

#[test]
fn upwind_vlasov_flux_also_conserves_energy_with_central_maxwell() {
    // Juno et al. 2018: the jump penalty enters the |v|² moment through a
    // single-valued trace and cancels — energy conservation survives the
    // upwind kinetic flux as long as Maxwell stays central.
    let mut app = langmuir_app(2, FluxKind::Upwind, MaxwellFlux::Central);
    let h = run_and_record(&mut app, 1e-3, 200);
    assert!(
        h.energy_drift() < 1e-6,
        "upwind-Vlasov energy drift {:.3e}",
        h.energy_drift()
    );
}

#[test]
fn upwind_maxwell_flux_dissipates_monotonically() {
    // With dissipative field fluxes the total energy may only decrease
    // (up to round-off): the scheme loses the conservation property in a
    // *controlled*, sign-definite way.
    let mut app = langmuir_app(2, FluxKind::Upwind, MaxwellFlux::Upwind);
    let h = run_and_record(&mut app, 1e-3, 150);
    let e = h.total_energy();
    for w in e.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-11),
            "total energy grew under dissipative fluxes: {} → {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn momentum_is_conserved_without_fields() {
    // Pure free streaming of a drifting Maxwellian: momentum must hold to
    // round-off (no acceleration term at all).
    let mut app = AppBuilder::new()
        .conf_grid(&[0.0], &[1.0], &[6])
        .poly_order(1)
        .species(
            SpeciesSpec::new("n", 0.0, 1.0, &[-6.0], &[6.0], &[12]).initial(|x, v| {
                maxwellian(
                    1.0 + 0.3 * (2.0 * std::f64::consts::PI * x[0]).sin(),
                    &[0.7],
                    1.0,
                    v,
                )
            }),
        )
        .field(FieldSpec::new(1.0).frozen())
        .build()
        .unwrap();
    let q0 = app.conserved();
    app.set_fixed_dt(1e-3);
    for _ in 0..200 {
        app.step().unwrap();
    }
    let q1 = app.conserved();
    assert!(
        (q1.momentum[0] - q0.momentum[0]).abs() < 1e-12 * q0.momentum[0].abs(),
        "momentum drift: {} → {}",
        q0.momentum[0],
        q1.momentum[0]
    );
}

#[test]
fn lbo_collisions_preserve_density_in_full_runs() {
    let mut app = AppBuilder::new()
        .conf_grid(&[0.0], &[1.0], &[4])
        .poly_order(2)
        .species(
            SpeciesSpec::new("e", -1.0, 1.0, &[-8.0], &[8.0], &[16])
                .initial(|_x, v| maxwellian(0.6, &[-1.5], 0.7, v) + maxwellian(0.4, &[2.0], 0.5, v))
                .collisions(0.8),
        )
        .field(FieldSpec::new(1.0).frozen())
        .build()
        .unwrap();
    let q0 = app.conserved();
    let e0 = q0.particle_energy;
    app.set_fixed_dt(1e-3);
    for _ in 0..150 {
        app.step().unwrap();
    }
    let q1 = app.conserved();
    assert!(
        ((q1.numbers[0] - q0.numbers[0]) / q0.numbers[0]).abs() < 1e-11,
        "collisional density drift"
    );
    // Energy moves only through the (approximately conservative) LBO
    // boundary terms — a fraction of a percent at this resolution.
    assert!(
        ((q1.particle_energy - e0) / e0).abs() < 5e-3,
        "LBO energy drift too large: {} → {}",
        e0,
        q1.particle_energy
    );
}

#[test]
fn full_dimensionality_generated_run_conserves_and_matches_runtime() {
    // 2X3V p=2 Serendipity — the paper's Eop configuration (Np = 112) —
    // has a registry row: volume, surfaces, moments, and the LBO stages.
    // A short nonlinear collisional run on the generated path must
    // conserve mass to round-off and agree with the runtime-sparse twin
    // (collisions included) to round-off, so the full-dimensionality
    // kernels are validated end to end, not just per-cell.
    let build = || {
        AppBuilder::new()
            .conf_grid(&[0.0, 0.0], &[1.0, 1.0], &[2, 2])
            .poly_order(2)
            .basis(BasisKind::Serendipity)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0; 3], &[6.0; 3], &[3, 3, 3])
                    .initial(|x, v| {
                        maxwellian(
                            1.0 + 0.05 * (2.0 * std::f64::consts::PI * x[0]).cos(),
                            &[0.2, 0.0, -0.1],
                            1.0,
                            v,
                        )
                    })
                    .collisions(0.5),
            )
            .field(FieldSpec::new(1.0))
            .build()
            .unwrap()
    };

    let mut app_gen = build();
    assert_eq!(
        app_gen.system().vlasov.dispatch_path(),
        DispatchPath::Generated
    );
    let h = run_and_record(&mut app_gen, 1e-3, 10);
    assert!(
        h.mass_drift() < 1e-12,
        "generated-path mass drift {:.3e}",
        h.mass_drift()
    );

    let rt = runtime_sparse_twin(build(), 1e-3, 10);

    let (fg, fr) = (&app_gen.state().species_f[0], &rt.species_f[0]);
    let scale = fr.max_abs().max(1.0);
    for c in 0..fr.ncells() {
        for (a, b) in fg.cell(c).iter().zip(fr.cell(c)) {
            assert!(
                (a - b).abs() < 1e-11 * scale,
                "cell {c}: paths diverged after 10 steps: {a} vs {b}"
            );
        }
    }
}

/// Deterministic pseudo-random value in (−1, 1) from a seed and two
/// indices (the proptest shim drives the seed).
fn noise(seed: usize, a: usize, b: usize) -> f64 {
    (((seed * 7919 + a * 131 + b * 17) as f64) * 0.618_033_988_7).sin()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The semi-discrete energy exchange of Juno et al. (2018), which the
    /// paper's §II builds on: with `|v|²` in the basis (p ≥ 2), periodic
    /// configuration directions and zero-flux velocity boundaries, the
    /// particle energy the Vlasov RHS moves, `½ m ∫ v² L(f)` (the `M2` of
    /// `VlasovOp::accumulate_rhs`'s output), equals `∫ J·E` with `J` from
    /// `accumulate_current` — for random `f`, `E`, `B` and `q/m`, with
    /// either Vlasov flux, on every registry row with p ≥ 2, to round-off
    /// (relative 1e-11 of the largest per-cell term).
    #[test]
    fn energy_exchange_identity_holds_semi_discretely(
        seed in 0usize..10_000,
        qm in -3.0..3.0f64,
        mass in 0.2..5.0f64,
    ) {
        for row in registry().iter().filter(|r| r.key.poly_order >= 2) {
            let kernels = kernels_for(row.key.kind, row.key.layout(), row.key.poly_order);
            let (cdim, vdim, np, nc) = (row.key.cdim, row.key.vdim, kernels.np(), kernels.nc());
            let conf_cells = if cdim == 1 { 3 } else { 2 };
            let grid = PhaseGrid::new(
                CartGrid::new(&vec![0.0; cdim], &vec![1.5; cdim], &vec![conf_cells; cdim]),
                CartGrid::new(&vec![-4.0; vdim], &vec![5.0; vdim], &vec![3; vdim]),
                vec![Bc::Periodic; cdim],
            );
            let (nconf, nv) = (grid.conf.len(), grid.vel.len());
            let mut f = DgField::zeros(nconf * nv, np);
            for c in 0..f.ncells() {
                for (l, x) in f.cell_mut(c).iter_mut().enumerate() {
                    *x = noise(seed, c, l);
                }
            }
            // Random E and B; the trailing potentials stay zero.
            let mut em = DgField::zeros(nconf, NCOMP * nc);
            for c in 0..nconf {
                for (i, x) in em.cell_mut(c)[..6 * nc].iter_mut().enumerate() {
                    *x = noise(seed + 1, c, i);
                }
            }
            let charge = qm * mass;
            let mut j = DgField::zeros(nconf, 3 * nc);
            let mut mom = MomentScratch::for_kernels(&kernels);
            accumulate_current(&kernels, &grid, charge, &f, &mut j, None, 0..nconf, &mut mom);
            let (jx, w) = mode0_integral_weights(&grid);
            let joule: Vec<f64> = (0..nconf)
                .map(|c| {
                    let (e, jc) = (em.cell(c), j.cell(c));
                    jx * (0..3 * nc).map(|i| e[i] * jc[i]).sum::<f64>()
                })
                .collect();
            for flux in [FluxKind::Central, FluxKind::Upwind] {
                let op = VlasovOp::new(kernels.clone(), grid.clone(), flux);
                let mut out = DgField::zeros(f.ncells(), np);
                op.accumulate_rhs(qm, &f, &em, &mut out, &mut VlasovWorkspace::for_kernels(&kernels));
                let m2 = energy_density(&kernels, &grid, &out);
                let heating: Vec<f64> =
                    (0..nconf).map(|c| 0.5 * mass * jx * w * m2.cell(c)[0]).collect();
                let (lhs, rhs) = (heating.iter().sum::<f64>(), joule.iter().sum::<f64>());
                let scale = heating.iter().chain(&joule).fold(0.0f64, |m, t| m.max(t.abs()));
                prop_assert!(
                    (lhs - rhs).abs() <= 1e-11 * scale,
                    "{} {flux:?}: ½m∫v²L(f) = {lhs:e} vs ∫J·E = {rhs:e} (largest term {scale:e})",
                    row.surface.name
                );
            }
        }
    }
}
