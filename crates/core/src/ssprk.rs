//! Three-stage, third-order strong-stability-preserving Runge–Kutta
//! (Shu–Osher form), the time stepper used for every run in the paper.
//!
//! ```text
//! u⁽¹⁾ = u  + Δt L(u)
//! u⁽²⁾ = ¾u + ¼(u⁽¹⁾ + Δt L(u⁽¹⁾))
//! uⁿ⁺¹ = ⅓u + ⅔(u⁽²⁾ + Δt L(u⁽²⁾))
//! ```

use crate::system::{SystemState, VlasovMaxwell};
use crate::vlasov::VlasovWorkspace;

/// Effective quadrature weights of the three SSP-RK3 stage RHS
/// evaluations: `uⁿ⁺¹ = uⁿ + Δt (⅙ L(u) + ⅙ L(u⁽¹⁾) + ⅔ L(u⁽²⁾))`. The
/// steppers fold per-stage wall-flux rates into the time-integrated wall
/// ledger with exactly these weights, so the ledger matches the state's
/// actual mass change to round-off.
pub const STAGE_WEIGHTS: [f64; 3] = [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0];

/// One SSP-RK3 step with a caller-supplied RHS evaluator — the one stage
/// sequence of the serial, threaded and rank-parallel drivers and the nodal
/// baseline (`dg-nodal`), so every Table-I/Fig.-3 contender uses the
/// identical time integration.
///
/// Each stage update is one sweep over the state with the per-element
/// expressions of `copy_from` + `axpy`, `axpy` + `lincomb` and `axpy` +
/// `lincomb` (see [`SystemState::euler_lincomb`] and its siblings), so the
/// bits are those of the six-call sequence. `stage` is scratch: the last
/// stage reads it and leaves it holding `u⁽²⁾`.
pub fn ssp_rk3_generic(
    state: &mut SystemState,
    stage: &mut SystemState,
    rhs_buf: &mut SystemState,
    dt: f64,
    mut rhs: impl FnMut(&SystemState, &mut SystemState),
) {
    rhs(&*state, rhs_buf);
    stage.euler_from(state, dt, rhs_buf);
    rhs(&*stage, rhs_buf);
    stage.euler_lincomb(dt, rhs_buf, 0.25, 0.75, state);
    rhs(&*stage, rhs_buf);
    state.lincomb_euler(1.0 / 3.0, 2.0 / 3.0, stage, dt, rhs_buf);
}

/// Reusable stage buffers for the stepper.
pub struct SspRk3 {
    stage: SystemState,
    rhs: SystemState,
    pub ws: VlasovWorkspace,
}

impl SspRk3 {
    pub fn new(system: &VlasovMaxwell) -> Self {
        SspRk3 {
            stage: system.new_state(),
            rhs: system.new_state(),
            ws: VlasovWorkspace::for_kernels(&system.kernels),
        }
    }

    /// Advance `state` by `dt` in place. Three RHS evaluations — the
    /// "three trillion multiplications" bookkeeping of Table I counts these
    /// stages explicitly.
    pub fn step(&mut self, system: &mut VlasovMaxwell, state: &mut SystemState, dt: f64) {
        let SspRk3 { stage, rhs, ws } = self;
        let mut k = 0;
        ssp_rk3_generic(state, stage, rhs, dt, |s, o| {
            system.rhs(s, o, ws);
            system.integrate_wall_ledger(STAGE_WEIGHTS[k] * dt);
            k += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{maxwellian, Species};
    use crate::system::FluxKind;
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid, PhaseGrid};
    use dg_kernels::{kernels_for, PhaseLayout};
    use dg_maxwell::flux::PhmParams;
    use dg_maxwell::{MaxwellDg, MaxwellFlux};

    fn tiny_system() -> (VlasovMaxwell, SystemState) {
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 1);
        let conf = CartGrid::new(&[0.0], &[1.0], &[4]);
        let vel = CartGrid::new(&[-6.0], &[6.0], &[8]);
        let grid = PhaseGrid::new(conf.clone(), vel, vec![Bc::Periodic]);
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            conf,
            vec![Bc::Periodic],
            1,
            PhmParams::vacuum(1.0),
            MaxwellFlux::Central,
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 3, &mut |x, v| {
            maxwellian(
                1.0 + 0.05 * (2.0 * std::f64::consts::PI * x[0]).cos(),
                &[0.0],
                1.0,
                v,
            )
        });
        let sys = VlasovMaxwell::new(kernels, grid, mx, vec![sp], FluxKind::Upwind);
        let state = sys.initial_state(sys.maxwell.new_field());
        (sys, state)
    }

    #[test]
    fn step_preserves_mass_exactly() {
        let (mut sys, mut state) = tiny_system();
        let n0 = sys.particle_numbers(&state)[0];
        let mut rk = SspRk3::new(&sys);
        for _ in 0..10 {
            rk.step(&mut sys, &mut state, 1e-3);
        }
        let n1 = sys.particle_numbers(&state)[0];
        assert!(
            ((n1 - n0) / n0).abs() < 1e-13,
            "mass drift {} over 10 steps",
            (n1 - n0) / n0
        );
    }

    #[test]
    fn step_matches_the_unfused_stage_sequence_bitwise() {
        // The fused stage sweeps against the stepper they replaced: six
        // whole-state calls of `copy_from` / `axpy` / `lincomb` per step,
        // over a few steps, so an evolving field and stage state both count.
        let (mut sys, state0) = tiny_system();
        let dt = 2e-3;
        let mut rk = SspRk3::new(&sys);
        let mut got = state0.clone();
        let mut want = state0;
        let (mut stage, mut r) = (sys.new_state(), sys.new_state());
        let mut ws = VlasovWorkspace::for_kernels(&sys.kernels);
        for step in 0..4 {
            rk.step(&mut sys, &mut got, dt);
            sys.rhs(&want, &mut r, &mut ws);
            stage.copy_from(&want);
            stage.axpy(dt, &r);
            sys.rhs(&stage, &mut r, &mut ws);
            stage.axpy(dt, &r);
            stage.lincomb(0.25, 0.75, &want);
            sys.rhs(&stage, &mut r, &mut ws);
            stage.axpy(dt, &r);
            want.lincomb(1.0 / 3.0, 2.0 / 3.0, &stage);
            let fields = |s: &SystemState| {
                let mut all: Vec<u64> = s.em.as_slice().iter().map(|x| x.to_bits()).collect();
                for f in &s.species_f {
                    all.extend(f.as_slice().iter().map(|x| x.to_bits()));
                }
                all
            };
            assert!(fields(&got) == fields(&want), "step {step} diverged");
        }
        assert!(want.em.max_abs() > 0.0, "the field never moved");
    }

    #[test]
    fn third_order_in_time() {
        // Compare one big step against two half steps on a smooth problem;
        // the difference should shrink by ~2³ when dt halves.
        let (mut sys, state0) = tiny_system();
        let dt = 2e-3;

        let run = |sys: &mut VlasovMaxwell, n: usize, dt: f64| {
            let mut s = state0.clone();
            let mut rk = SspRk3::new(sys);
            for _ in 0..n {
                rk.step(sys, &mut s, dt);
            }
            s
        };
        let a = run(&mut sys, 1, dt);
        let b = run(&mut sys, 2, dt / 2.0);
        let c = run(&mut sys, 4, dt / 4.0);
        let diff = |x: &SystemState, y: &SystemState| -> f64 {
            x.species_f[0]
                .as_slice()
                .iter()
                .zip(y.species_f[0].as_slice())
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt()
        };
        let e1 = diff(&a, &c);
        let e2 = diff(&b, &c);
        // e1/e2 ≈ (dt³ − (dt/2)³)/((dt/2)³ − (dt/4)³) ≈ 8.
        let ratio = e1 / e2.max(1e-300);
        assert!(
            ratio > 4.0,
            "time-stepper convergence ratio {ratio}, expected ≈ 8"
        );
    }
}
