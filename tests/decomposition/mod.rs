//! One declaration, every decomposition: the same App built with
//! `AppBuilder::ranks(r).threads(t)` must reproduce the default build
//! (one rank, one thread) bit for bit — the paper's Fig. 3 premise that the
//! two-level decomposition is execution policy, never physics, surfaced as
//! an API contract.
//!
//! [`ROWS`] is the one table of decompositions. `threaded_equiv.rs` checks
//! its one-rank rows and `backend_equiv.rs` its rank-parallel rows, each
//! through [`rows_match_the_default_build`]: adaptive steps through
//! `App::run` on two configurations — periodic with two species and LBO
//! collisions on one ([`periodic`]), walled with a per-species BC override
//! ([`walled`]) — comparing the dt sequence, both species, the EM field
//! and the `EnergyHistory` and `WallFluxLedger` samples.

use vlasov_dg::core::species::maxwellian;
use vlasov_dg::prelude::*;

/// `(ranks, threads, nx)`: threads beyond the blocks of a rank (1 × 5),
/// inline blocks (3 × 1), rank counts that do not divide `nx`, one rank per
/// cell (9 × 2), and more blocks than cells (8 × 2 on 3 cells: empty
/// blocks must be harmless).
pub const ROWS: [(usize, usize, usize); 8] = [
    (1, 2, 9),
    (1, 5, 9),
    (3, 1, 9),
    (2, 2, 9),
    (3, 2, 9),
    (9, 2, 9),
    (5, 3, 9),
    (8, 2, 3),
];

pub fn periodic(nx: usize) -> AppBuilder {
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
}

/// Electrons reflect on the left and are absorbed on the right, ions
/// absorb on both sides: the dim-0 edge blocks own the wall faces and
/// their ledger channels, and the halo logic must not wrap.
pub fn walled(nx: usize) -> AppBuilder {
    AppBuilder::new()
        .conf_grid(&[0.0], &[4.0], &[nx])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .conf_bc(vec![DimBc::new(Bc::Reflect, Bc::Absorb)])
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6])
                .initial(|x, v| maxwellian(1.0 + 0.05 * x[0], &[0.4, 0.0], 1.0, v)),
        )
        .species(
            SpeciesSpec::new("ion", 1.0, 25.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6])
                .initial(|_x, v| maxwellian(1.0, &[0.0], 0.2, v))
                .conf_bc(vec![Bc::Absorb]),
        )
        .field(FieldSpec::new(2.0).cleaning(1.0, 0.0))
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// What one adaptive run shows: the clock after every step, the final
/// state, and the observer samples.
pub struct Run {
    times: Vec<u64>,
    species: Vec<Vec<u64>>,
    em: Vec<u64>,
    history: EnergyHistory,
    pub ledger: WallFluxLedger,
}

fn run(builder: AppBuilder, ranks: usize, threads: usize) -> Run {
    let mut app = builder.ranks(ranks).threads(threads).build().unwrap();
    let name = if ranks == 1 {
        "serial"
    } else {
        "rank-parallel"
    };
    assert_eq!(app.backend_name(), name);
    let mut history = EnergyHistory::every(5e-3);
    let mut ledger = WallFluxLedger::every(5e-3);
    let mut times = Vec::new();
    let mut clock = observe(Trigger::EverySteps(1), |fr| {
        times.push(fr.time.to_bits());
        Ok(())
    });
    app.run(0.02, &mut [&mut history, &mut ledger, &mut clock])
        .unwrap();
    Run {
        times,
        species: app
            .state()
            .species_f
            .iter()
            .map(|f| bits(f.as_slice()))
            .collect(),
        em: bits(app.state().em.as_slice()),
        history,
        ledger,
    }
}

/// Check every row of [`ROWS`] that `keep(ranks, threads, nx)` selects
/// against the default build of `config` on the same grid; returns the
/// default build's run on the first selected row's grid.
pub fn rows_match_the_default_build(
    config: fn(usize) -> AppBuilder,
    keep: impl Fn(usize, usize, usize) -> bool,
) -> Run {
    let mut baselines: Vec<(usize, Run)> = Vec::new();
    for (ranks, threads, nx) in ROWS {
        if !keep(ranks, threads, nx) {
            continue;
        }
        let row = format!("ranks={ranks} threads={threads} nx={nx}");
        if !baselines.iter().any(|b| b.0 == nx) {
            baselines.push((nx, run(config(nx), 1, 1)));
        }
        let want = &baselines.iter().find(|b| b.0 == nx).unwrap().1;
        let got = run(config(nx), ranks, threads);
        assert_eq!(
            want.times, got.times,
            "{row}: adaptive dt sequences diverged"
        );
        assert!(want.species == got.species, "{row}: a species diverged");
        assert!(want.em == got.em, "{row}: EM field diverged");
        assert_eq!(want.history.samples.len(), got.history.samples.len());
        for (a, b) in want.history.samples.iter().zip(&got.history.samples) {
            assert_eq!(a, b, "{row}: EnergyHistory samples diverged");
        }
        assert_eq!(
            want.ledger.samples, got.ledger.samples,
            "{row}: WallFluxLedger samples diverged"
        );
    }
    assert!(!baselines.is_empty(), "no row of the table selected");
    baselines.swap_remove(0).1
}

/// The error `build` reports for `ranks × threads` on the periodic
/// configuration.
pub fn build_error(ranks: usize, threads: usize) -> Error {
    periodic(4)
        .ranks(ranks)
        .threads(threads)
        .build()
        .err()
        .expect("must not build")
}
