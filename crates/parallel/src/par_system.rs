//! The rank-parallel Vlasov–Maxwell driver, wired by hand.
//!
//! [`ParVlasovMaxwell`] pairs a [`VlasovMaxwell`] system with its rank
//! decomposition ([`RankDecomp`], whose slab faces the Fig. 3 harness
//! accounts as halo traffic) and steps it through the one coupled-RHS
//! driver, `dg_core::blocks::BlockRhs` over `ranks × threads` cell blocks,
//! and the one field coupling, `VlasovMaxwell::field_rhs`. Contribution
//! order within every cell is the one-block sweep's, so the result is
//! **bit-identical** to serial — floating-point addition order included.
//! Apps reach the same engine through `AppBuilder::ranks(..).threads(..)`.

use crate::decomp::RankDecomp;
use dg_core::blocks::BlockRhs;
use dg_core::ssprk::ssp_rk3_system;
use dg_core::system::{SystemState, VlasovMaxwell};

/// Parallel driver wrapping a [`VlasovMaxwell`] system.
pub struct ParVlasovMaxwell {
    pub system: VlasovMaxwell,
    pub decomp: RankDecomp,
    /// Two-level sweep: `ranks × threads` cell blocks (each simulated
    /// rank's slab is sub-split per thread — the intra-rank shared-memory
    /// layer).
    block: BlockRhs,
}

impl ParVlasovMaxwell {
    /// `ranks` simulated MPI ranks on `threads` OS threads (oversubscribe
    /// freely: ranks are units of decomposition, threads of execution).
    pub fn new(system: VlasovMaxwell, ranks: usize, threads: usize) -> Self {
        let decomp = RankDecomp::new(&system.grid, ranks);
        let block = BlockRhs::new(&system, ranks, threads);
        ParVlasovMaxwell {
            system,
            decomp,
            block,
        }
    }

    /// Full coupled RHS: species updates over `ranks × threads` cell
    /// blocks (volume + surfaces + LBO, block-ordered ledger reduction —
    /// see `dg_core::blocks`), then the field coupling.
    pub fn rhs(&mut self, state: &SystemState, out: &mut SystemState) {
        self.block.rhs(&mut self.system, state, out);
    }

    /// One SSP-RK3 step through the parallel RHS.
    pub fn step(
        &mut self,
        state: &mut SystemState,
        stage: &mut SystemState,
        rhs_buf: &mut SystemState,
        dt: f64,
    ) {
        let block = &mut self.block;
        ssp_rk3_system(&mut self.system, state, stage, rhs_buf, dt, |sys, s, o| {
            block.rhs(sys, s, o)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_basis::BasisKind;
    use dg_core::app::{App, AppBuilder, FieldSpec, SpeciesSpec};
    use dg_core::error::Error;
    use dg_core::species::maxwellian;
    use dg_core::vlasov::VlasovWorkspace;

    fn builder(nx: usize) -> AppBuilder {
        let kx = 0.5;
        AppBuilder::new()
            .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / kx], &[nx])
            .poly_order(1)
            .basis(BasisKind::Serendipity)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6]).initial(
                    move |x, v| maxwellian(1.0 + 0.08 * (kx * x[0]).cos(), &[0.3, -0.2], 1.0, v),
                ),
            )
            .field(FieldSpec::new(2.0).with_poisson_init().cleaning(1.0, 1.0))
    }

    fn make_app(nx: usize) -> App {
        builder(nx).build().unwrap()
    }

    /// Step `app` and this driver at `ranks × threads` side by side at
    /// fixed dt on the same `nx`-cell declaration; they must agree bitwise.
    fn par_steps_track(mut app: App, nx: usize, ranks: usize, threads: usize, steps: usize) {
        let dt = 5e-4;
        app.set_fixed_dt(dt);
        let (sys, mut state) = make_app(nx).into_parts();
        let mut par = ParVlasovMaxwell::new(sys, ranks, threads);
        let (mut stage, mut rhs) = (par.system.new_state(), par.system.new_state());
        for _ in 0..steps {
            app.step().unwrap();
            par.step(&mut state, &mut stage, &mut rhs, dt);
        }
        assert_eq!(
            app.state().species_f[0].as_slice(),
            state.species_f[0].as_slice()
        );
        assert_eq!(app.state().em.as_slice(), state.em.as_slice());
    }

    #[test]
    fn parallel_rhs_is_bit_identical_to_serial() {
        for ranks in [1usize, 2, 3, 5] {
            let (mut serial_sys, state) = make_app(7).into_parts();
            let mut serial_out = serial_sys.new_state();
            let mut ws = VlasovWorkspace::for_kernels(&serial_sys.kernels);
            serial_sys.rhs(&state, &mut serial_out, &mut ws);

            let (par_sys, _) = make_app(7).into_parts();
            let mut par = ParVlasovMaxwell::new(par_sys, ranks, 2);
            let mut par_out = par.system.new_state();
            par.rhs(&state, &mut par_out);

            assert_eq!(
                serial_out.species_f[0].as_slice(),
                par_out.species_f[0].as_slice(),
                "ranks={ranks}: species RHS must be bit-identical"
            );
            assert_eq!(
                serial_out.em.as_slice(),
                par_out.em.as_slice(),
                "ranks={ranks}: EM RHS must be bit-identical"
            );
        }
    }

    #[test]
    fn parallel_steps_track_serial_exactly() {
        par_steps_track(make_app(6), 6, 3, 2, 5);
    }

    #[test]
    fn more_ranks_than_slabs_degenerates_gracefully() {
        let (sys, state) = make_app(3).into_parts();
        let mut par = ParVlasovMaxwell::new(sys, 8, 2);
        let mut out = par.system.new_state();
        par.rhs(&state, &mut out); // empty slabs must be harmless
        assert!(out.species_f[0].max_abs().is_finite());
    }

    #[test]
    fn backend_factory_validates_and_steps() {
        // The App's engine is built from `ranks(..)`: zero ranks is a
        // typed build error, and a rank-parallel App steps exactly like
        // this driver at the same decomposition.
        let err = builder(4).ranks(0).build().err();
        assert!(matches!(err, Some(Error::Build(_))), "got {err:?}");
        let app = builder(5).ranks(2).threads(2).build().unwrap();
        assert_eq!(app.backend_name(), "rank-parallel");
        par_steps_track(app, 5, 2, 2, 1);
    }
}
