//! The rank-parallel Vlasov–Maxwell step.
//!
//! Reproduces `dg_core::system::VlasovMaxwell::rhs` with the species update
//! executed rank-parallel. Contribution order within every cell is kept
//! identical to the serial sweep (volume → dim-0 surfaces in ascending face
//! order → remaining configuration surfaces → velocity surfaces), so the
//! result is **bit-identical** to serial — floating-point addition order
//! included. The wrap-around face of the periodic dim-0 direction is the
//! one place this needs care: the serial sweep visits it last, so rank 0
//! applies its received side *after* its interior faces while the last
//! rank applies its sending side in natural order.

use std::sync::Arc;

use crate::decomp::RankDecomp;
use dg_core::backend::{Backend, BackendFactory};
use dg_core::blocks::BlockRhs;
use dg_core::error::Error;
use dg_core::moments::MomentScratch;
use dg_core::ssprk::{ssp_rk3_generic, STAGE_WEIGHTS};
use dg_core::system::{SystemState, VlasovMaxwell};
use dg_grid::DgField;
use dg_telemetry::{Counter, Registry};

/// Parallel driver wrapping a [`VlasovMaxwell`] system.
pub struct ParVlasovMaxwell {
    pub system: VlasovMaxwell,
    pub decomp: RankDecomp,
    /// Two-level species sweep: `ranks × threads` cell blocks executed by
    /// the pool's `threads` workers (each simulated rank's slab is
    /// sub-split per thread — the intra-rank shared-memory layer).
    block: BlockRhs,
    scratch_j: DgField,
    scratch_rho: DgField,
    /// One persistent moment scratch per rank for the field coupling —
    /// allocated once here rather than per RHS call inside the rank scope,
    /// so the coupling stays allocation-free and each rank's reductions
    /// land in its own telemetry slot.
    mom_ws: Vec<MomentScratch>,
}

impl ParVlasovMaxwell {
    /// `ranks` simulated MPI ranks on `threads` OS threads (oversubscribe
    /// freely: ranks are units of decomposition, threads of execution).
    pub fn new(system: VlasovMaxwell, ranks: usize, threads: usize) -> Self {
        let decomp = RankDecomp::new(&system.grid, ranks);
        let block = BlockRhs::new(&system, ranks, threads);
        let nconf = system.grid.conf.len();
        let nc = system.kernels.nc();
        let mom_ws = (0..ranks)
            .map(|_| MomentScratch::for_kernels(&system.kernels))
            .collect();
        ParVlasovMaxwell {
            system,
            decomp,
            block,
            scratch_j: DgField::zeros(nconf, 3 * nc),
            scratch_rho: DgField::zeros(nconf, nc),
            mom_ws,
        }
    }

    /// Telemetry slots the driver writes: slot 0 (orchestrating thread),
    /// one per cell block, then one per rank's moment scratch.
    pub fn telemetry_slots(&self) -> usize {
        1 + self.block.blocks().len() + self.mom_ws.len()
    }

    /// Attach a telemetry registry across the two-level decomposition.
    pub fn instrument(&mut self, reg: &Arc<Registry>) {
        self.system.instrument(&reg.collector(0));
        self.block.instrument(reg);
        let base = 1 + self.block.blocks().len();
        for (rank, mws) in self.mom_ws.iter_mut().enumerate() {
            mws.probe = reg.collector(base + rank);
        }
    }

    /// Full coupled RHS: species updates over `ranks × threads` cell
    /// blocks (volume + surfaces + LBO, block-ordered ledger reduction —
    /// see `dg_core::blocks`), then the rank-parallel field coupling.
    pub fn rhs(&mut self, state: &SystemState, out: &mut SystemState) {
        self.system.probe.count(Counter::RhsEvals, 1);
        out.em.fill(0.0);
        let decomp = &self.decomp;
        self.block.species_rhs(&mut self.system, state, out);
        // Field + coupling. Moments are rank-parallel over disjoint
        // configuration slices (no all-reduce in velocity space — the
        // paper's point about the shared-memory layer).
        let system = &self.system;
        if system.evolve_field() {
            system.maxwell.rhs(&state.em, &mut out.em);
            self.scratch_j.fill(0.0);
            self.scratch_rho.fill(0.0);
            let conf_bounds = decomp.conf_boundaries();
            let mut j_views = self.scratch_j.split_cells_mut(&conf_bounds);
            let mut rho_views = self.scratch_rho.split_cells_mut(&conf_bounds);
            let mom_ws = &mut self.mom_ws;
            self.block.pool().scope(|scope| {
                for (rank, ((jv, rv), mws)) in j_views
                    .iter_mut()
                    .zip(rho_views.iter_mut())
                    .zip(mom_ws.iter_mut())
                    .enumerate()
                {
                    scope.spawn(move |_| {
                        let range = decomp.conf_range(rank);
                        for (s, sp) in system.species.iter().enumerate() {
                            dg_core::moments::accumulate_current(
                                &system.kernels,
                                &system.grid,
                                sp.charge,
                                &state.species_f[s],
                                jv,
                                if system.track_charge() {
                                    Some(rv)
                                } else {
                                    None
                                },
                                range.clone(),
                                mws,
                            );
                        }
                    });
                }
            });
            if system.track_charge() && system.background_charge() != 0.0 {
                let c0 = dg_basis::expand::const_coeff(&system.kernels.conf_basis);
                for c in 0..system.grid.conf.len() {
                    self.scratch_rho.cell_mut(c)[0] -= system.background_charge() * c0;
                }
            }
            system.maxwell.add_sources(
                &self.scratch_j,
                if system.track_charge() {
                    Some(&self.scratch_rho)
                } else {
                    None
                },
                &mut out.em,
            );
        }
    }

    /// One SSP-RK3 step through the parallel RHS.
    pub fn step(
        &mut self,
        state: &mut SystemState,
        stage: &mut SystemState,
        rhs_buf: &mut SystemState,
        dt: f64,
    ) {
        let mut stage_idx = 0usize;
        ssp_rk3_generic(state, stage, rhs_buf, dt, |s, o| {
            self.rhs(s, o);
            // Fold this stage's wall rates into the ledger with the same
            // weights as the serial stepper.
            self.system
                .integrate_wall_ledger(STAGE_WEIGHTS[stage_idx] * dt);
            stage_idx += 1;
        });
    }
}

/// Backend factory for the rank-parallel driver:
/// `AppBuilder::backend(RankParallel { ranks: 4, threads: 2 })`.
///
/// This is `dg-parallel`'s half of the dependency inversion documented in
/// `dg_core::backend`: the trait lives in `dg-core`, the rank-parallel
/// engine registers itself by being handed to the builder as a plain
/// value object. The produced trajectories are bit-identical to the
/// [`dg_core::backend::Serial`] backend (asserted in the `backend_equiv`
/// integration test), so backend choice is pure execution policy.
#[derive(Clone, Copy, Debug)]
pub struct RankParallel {
    /// Simulated MPI ranks (units of decomposition).
    pub ranks: usize,
    /// OS threads executing them (units of execution; oversubscribe
    /// freely).
    pub threads: usize,
}

impl BackendFactory for RankParallel {
    fn make(&self, system: VlasovMaxwell) -> Result<Box<dyn Backend>, Error> {
        if self.ranks == 0 || self.threads == 0 {
            return Err(Error::Build(format!(
                "RankParallel needs ranks ≥ 1 and threads ≥ 1, got ranks={} threads={}",
                self.ranks, self.threads
            )));
        }
        Ok(Box::new(RankParallelBackend::new(ParVlasovMaxwell::new(
            system,
            self.ranks,
            self.threads,
        ))))
    }
}

/// The rank-parallel execution engine: wraps [`ParVlasovMaxwell`] plus
/// the SSP-RK3 stage buffers the hand-wired drivers used to carry around.
pub struct RankParallelBackend {
    par: ParVlasovMaxwell,
    stage: SystemState,
    rhs: SystemState,
}

impl RankParallelBackend {
    pub fn new(par: ParVlasovMaxwell) -> Self {
        let stage = par.system.new_state();
        let rhs = par.system.new_state();
        RankParallelBackend { par, stage, rhs }
    }
}

impl Backend for RankParallelBackend {
    fn step(&mut self, state: &mut SystemState, dt: f64) {
        self.par.step(state, &mut self.stage, &mut self.rhs, dt);
    }

    fn system(&self) -> &VlasovMaxwell {
        &self.par.system
    }

    fn system_mut(&mut self) -> &mut VlasovMaxwell {
        &mut self.par.system
    }

    fn into_system(self: Box<Self>) -> VlasovMaxwell {
        self.par.system
    }

    fn name(&self) -> &'static str {
        "rank-parallel"
    }

    fn telemetry_slots(&self) -> usize {
        self.par.telemetry_slots()
    }

    fn instrument(&mut self, reg: &Arc<Registry>) {
        self.par.instrument(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_basis::BasisKind;
    use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
    use dg_core::species::maxwellian;
    use dg_core::vlasov::VlasovWorkspace;

    fn make_app(nx: usize) -> dg_core::app::App {
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
            .build()
            .unwrap()
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
        let mut app = make_app(6);
        app.set_fixed_dt(5e-4);
        let (par_sys, mut p_state) = make_app(6).into_parts();
        let mut par = ParVlasovMaxwell::new(par_sys, 3, 2);
        let mut stage = par.system.new_state();
        let mut rhs = par.system.new_state();
        for _ in 0..5 {
            app.step().unwrap();
            par.step(&mut p_state, &mut stage, &mut rhs, 5e-4);
        }
        assert_eq!(
            app.state().species_f[0].as_slice(),
            p_state.species_f[0].as_slice()
        );
        assert_eq!(app.state().em.as_slice(), p_state.em.as_slice());
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
        use dg_core::backend::BackendFactory;
        let (sys, _) = make_app(4).into_parts();
        assert!(matches!(
            RankParallel {
                ranks: 0,
                threads: 2
            }
            .make(sys),
            Err(Error::Build(_))
        ));

        // One step through the Backend trait matches the serial App step.
        let mut serial = make_app(5);
        serial.set_fixed_dt(5e-4);
        serial.step().unwrap();

        let (sys, mut state) = make_app(5).into_parts();
        let mut backend = RankParallel {
            ranks: 2,
            threads: 2,
        }
        .make(sys)
        .unwrap();
        assert_eq!(backend.name(), "rank-parallel");
        backend.step(&mut state, 5e-4);
        assert_eq!(
            serial.state().species_f[0].as_slice(),
            state.species_f[0].as_slice()
        );
    }
}
