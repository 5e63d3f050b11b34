//! The hand-wired rank-parallel driver ≡ the App: `ParVlasovMaxwell::step`
//! at fixed dt must reproduce the default App's multi-species
//! Vlasov–Maxwell trajectory bit for bit at every rank count — the same
//! `BlockRhs` engine and the same field coupling, so the floating-point
//! addition order is the one-block sweep's. The App's own decompositions
//! are covered in `threaded_equiv.rs` and `backend_equiv.rs`.

use vlasov_dg::core::app::App;
use vlasov_dg::core::species::maxwellian;
use vlasov_dg::parallel::ParVlasovMaxwell;
use vlasov_dg::prelude::*;

const DT: f64 = 5e-4;

fn make_app(nx: usize) -> App {
    let k = 0.5;
    AppBuilder::new()
        .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / k], &[nx])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6]).initial(
                move |x, v| maxwellian(1.0 + 0.06 * (k * x[0]).cos(), &[0.2, 0.0], 1.0, v),
            ),
        )
        .species(
            SpeciesSpec::new("ion", 1.0, 100.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6])
                .initial(|_x, v| maxwellian(1.0, &[0.0, 0.0], 0.1, v))
                .collisions(0.5),
        )
        .field(FieldSpec::new(2.0).with_poisson_init().cleaning(1.0, 1.0))
        .build()
        .unwrap()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Step the default App and `ParVlasovMaxwell` at `ranks × threads` side
/// by side for `steps` fixed-dt steps, then compare both species and the
/// EM field bitwise.
fn par_step_tracks_the_app(nx: usize, ranks: usize, threads: usize, steps: usize) {
    let mut app = make_app(nx);
    app.set_fixed_dt(DT);
    let (sys, mut state) = make_app(nx).into_parts();
    let mut par = ParVlasovMaxwell::new(sys, ranks, threads);
    let (mut stage, mut rhs) = (par.system.new_state(), par.system.new_state());
    for _ in 0..steps {
        app.step().unwrap();
        par.step(&mut state, &mut stage, &mut rhs, DT);
    }
    let row = format!("ranks={ranks} threads={threads} nx={nx}");
    for s in 0..2 {
        assert!(
            bits(app.state().species_f[s].as_slice()) == bits(state.species_f[s].as_slice()),
            "{row}, species {s}: trajectory diverged"
        );
    }
    assert!(
        bits(app.state().em.as_slice()) == bits(state.em.as_slice()),
        "{row}: EM trajectory diverged"
    );
}

#[test]
fn trajectories_match_bitwise_for_all_rank_counts() {
    for ranks in [2, 3, 4, 9] {
        par_step_tracks_the_app(9, ranks, 2, 8);
    }
}

#[test]
fn decomposition_survives_awkward_grid_sizes() {
    // Prime nx with a rank count that does not divide it, and more blocks
    // than cells.
    par_step_tracks_the_app(7, 5, 3, 4);
}
