//! Full-system drivers for the nodal pipelines — exact and aliased.
//!
//! Table I times a *complete* Vlasov–Maxwell step (two species, field
//! update, current coupling, RK accumulation). [`NodalSystem`] wires the
//! quadrature-pipeline Vlasov operator into the same coupled system and
//! the same SSP-RK3 stepper as the modal solver, so the cost comparison is
//! apples-to-apples; with [`crate::aliased_points`] it becomes the
//! under-integrated scheme whose energy bookkeeping the §II argument says
//! must fail (the §II test in the facade's `tests/paper.rs`).

use crate::nodal_vlasov::{NodalVlasov, NodalWorkspace};
use dg_core::moments::{accumulate_current, MomentScratch};
use dg_core::ssprk::ssp_rk3_generic;
use dg_core::system::{SystemState, VlasovMaxwell};
use dg_grid::DgField;
use std::sync::Arc;

/// A Vlasov–Maxwell system whose kinetic update runs through the nodal
/// (quadrature) pipeline. Reuses the modal system's Maxwell solver, moment
/// reductions and species bookkeeping — those costs are common to both
/// columns of Table I.
pub struct NodalSystem {
    pub inner: VlasovMaxwell,
    pub nodal: NodalVlasov,
    ws: NodalWorkspace,
    scratch_j: DgField,
    scratch_rho: DgField,
}

impl NodalSystem {
    pub fn new(inner: VlasovMaxwell, nq_per_dim: usize) -> Self {
        let nodal = NodalVlasov::new(
            Arc::clone(&inner.kernels),
            inner.grid.clone(),
            inner.vlasov.flux,
            nq_per_dim,
        );
        let ws = nodal.workspace();
        let nconf = inner.grid.conf.len();
        let nc = inner.kernels.nc();
        NodalSystem {
            inner,
            nodal,
            ws,
            scratch_j: DgField::zeros(nconf, 3 * nc),
            scratch_rho: DgField::zeros(nconf, nc),
        }
    }

    /// Full coupled RHS with the nodal kinetic evaluator.
    pub fn rhs(&mut self, state: &SystemState, out: &mut SystemState) {
        out.fill(0.0);
        let nconf = self.inner.grid.conf.len();
        for (s, sp) in self.inner.species.iter().enumerate() {
            self.nodal.accumulate_rhs(
                sp.qm(),
                &state.species_f[s],
                &state.em,
                &mut out.species_f[s],
                &mut self.ws,
            );
        }
        if self.inner.evolve_field() {
            self.inner.maxwell.rhs(&state.em, &mut out.em);
            self.scratch_j.fill(0.0);
            self.scratch_rho.fill(0.0);
            let mut mws = MomentScratch::for_kernels(&self.inner.kernels);
            for (s, sp) in self.inner.species.iter().enumerate() {
                accumulate_current(
                    &self.inner.kernels,
                    &self.inner.grid,
                    sp.charge,
                    &state.species_f[s],
                    &mut self.scratch_j,
                    if self.inner.track_charge() {
                        Some(&mut self.scratch_rho)
                    } else {
                        None
                    },
                    0..nconf,
                    &mut mws,
                );
            }
            self.inner.maxwell.add_sources(
                &self.scratch_j,
                if self.inner.track_charge() {
                    Some(&self.scratch_rho)
                } else {
                    None
                },
                &mut out.em,
            );
        }
    }

    /// One SSP-RK3 step (same integrator as the modal path).
    pub fn step(
        &mut self,
        state: &mut SystemState,
        stage: &mut SystemState,
        rhs_buf: &mut SystemState,
        dt: f64,
    ) {
        ssp_rk3_generic(state, stage, rhs_buf, dt, |s, o| self.rhs(s, o));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{alias_free_points, aliased_points};
    use dg_basis::BasisKind;
    use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
    use dg_core::species::maxwellian;

    fn two_stream_app(p: usize) -> dg_core::app::App {
        let k = 0.5;
        AppBuilder::new()
            .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / k], &[8])
            .poly_order(p)
            .basis(BasisKind::Serendipity)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-8.0], &[8.0], &[12]).initial(move |x, v| {
                    let pert = 1.0 + 1e-2 * (k * x[0]).cos();
                    pert * 0.5
                        * (maxwellian(1.0, &[2.5], 0.5, v) + maxwellian(1.0, &[-2.5], 0.5, v))
                }),
            )
            .field(FieldSpec::new(5.0).with_poisson_init())
            .build()
            .unwrap()
    }

    #[test]
    fn nodal_system_matches_modal_system_over_steps() {
        let p = 2;
        let mut app = two_stream_app(p);
        let dt = 1e-3;
        // Nodal twin of the same initial state.
        let (sys2, mut n_state) = two_stream_app(p).into_parts();
        let mut nodal = NodalSystem::new(sys2, alias_free_points(p));
        let mut stage = nodal.inner.new_state();
        let mut rhs = nodal.inner.new_state();

        app.set_fixed_dt(dt);
        for _ in 0..5 {
            app.step().unwrap();
            nodal.step(&mut n_state, &mut stage, &mut rhs, dt);
        }
        let fm = &app.state().species_f[0];
        let fn_ = &n_state.species_f[0];
        let scale = fm.max_abs();
        let mut diff: f64 = 0.0;
        for (a, b) in fm.as_slice().iter().zip(fn_.as_slice()) {
            diff = diff.max((a - b).abs());
        }
        assert!(
            diff < 1e-9 * scale,
            "modal and alias-free nodal trajectories must agree: {diff}"
        );
    }

    #[test]
    fn aliased_system_diverges_from_exact() {
        let p = 2;
        let dt = 2e-3;
        let (sys, e_state) = two_stream_app(p).into_parts();
        let mut e_state = e_state;
        let mut exact = NodalSystem::new(sys, alias_free_points(p));
        let (sys2, mut a_state) = two_stream_app(p).into_parts();
        let mut alia = NodalSystem::new(sys2, aliased_points(p));

        let mut stage = exact.inner.new_state();
        let mut rhs = exact.inner.new_state();
        for _ in 0..20 {
            exact.step(&mut e_state, &mut stage, &mut rhs, dt);
            alia.step(&mut a_state, &mut stage, &mut rhs, dt);
        }
        let mut diff: f64 = 0.0;
        for (a, b) in e_state.species_f[0]
            .as_slice()
            .iter()
            .zip(a_state.species_f[0].as_slice())
        {
            diff = diff.max((a - b).abs());
        }
        // The field perturbation is small (1e-2) so the absolute divergence
        // is small too — but it must sit orders of magnitude above the
        // round-off floor (~1e-13) at which the alias-free nodal path tracks
        // the modal one.
        assert!(
            diff > 1e-10,
            "under-integration must alter the trajectory, diff {diff}"
        );
    }
}
