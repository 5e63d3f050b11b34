//! Conserved-quantity probes.
//!
//! The paper's correctness story rests on discrete conservation: mass to
//! round-off, and total (particle + field) energy when central fluxes are
//! used for Maxwell's equations (§II, citing Juno et al. 2018). These
//! probes evaluate those functionals on a state so tests, examples, and the
//! benches can track them over a run.

use crate::system::{SystemState, VlasovMaxwell};

/// A snapshot of every conserved (or nearly conserved) functional.
#[derive(Clone, Debug, PartialEq)]
pub struct ConservedQuantities {
    pub time: f64,
    /// Particle number per species.
    pub numbers: Vec<f64>,
    /// Total particle kinetic energy.
    pub particle_energy: f64,
    /// EM field energy.
    pub field_energy: f64,
    /// Momentum per configuration direction (summed over species, ∫ m v f).
    pub momentum: Vec<f64>,
}

impl ConservedQuantities {
    pub fn total_energy(&self) -> f64 {
        self.particle_energy + self.field_energy
    }
}

/// Evaluate all conserved functionals at a state. Each species' momentum
/// and kinetic energy come from one moment sweep
/// ([`crate::moments::mode0_sums`]: one block call per configuration cell
/// into a stack buffer), summed in the order [`VlasovMaxwell::particle_energy`]
/// and the per-direction momentum sums use, so the values are theirs bit
/// for bit.
pub fn probe(system: &VlasovMaxwell, state: &SystemState, time: f64) -> ConservedQuantities {
    let vdim = system.grid.vdim();
    let mut momentum = vec![0.0; vdim];
    // `Iterator::sum` over `f64` starts at −0.0; so does this sum.
    let mut particle_energy = -0.0;
    let (jx, w) = crate::moments::mode0_integral_weights(&system.grid);
    for (s, sp) in system.species.iter().enumerate() {
        let f = &state.species_f[s];
        let (m1, m2) = crate::moments::mode0_sums(&system.kernels, &system.grid, f, true);
        for (m, sum0) in momentum.iter_mut().zip(m1) {
            *m += sp.mass * jx * w * sum0;
        }
        particle_energy += 0.5 * sp.mass * jx * w * m2;
    }
    ConservedQuantities {
        time,
        numbers: system.particle_numbers(state),
        particle_energy,
        field_energy: system.field_energy(state),
        momentum,
    }
}

/// Relative drift of a scalar series against its first entry.
pub fn relative_drift(series: &[f64]) -> f64 {
    if series.is_empty() || series[0] == 0.0 {
        return 0.0;
    }
    let first = series[0];
    series
        .iter()
        .map(|v| ((v - first) / first).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_drift_basics() {
        assert_eq!(relative_drift(&[]), 0.0);
        assert_eq!(relative_drift(&[2.0, 2.0, 2.0]), 0.0);
        assert!((relative_drift(&[2.0, 2.2, 1.9]) - 0.1).abs() < 1e-14);
        assert_eq!(relative_drift(&[0.0, 1.0]), 0.0);
    }
}
