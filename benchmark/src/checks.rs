//! Output checks shared by the timed and the traced runs.

use dg_core::diagnostics::ConservedQuantities;
use dg_core::system::SystemState;

/// FNV-1a over the little-endian bytes of every coefficient, species in
/// order then the EM field: the bit-identity fingerprint of a state.
pub fn state_hash(state: &SystemState) -> u64 {
    let mut h = Fnv::default();
    for f in state.species_f.iter().chain(std::iter::once(&state.em)) {
        for &v in f.as_slice() {
            h.write_f64(v);
        }
    }
    h.finish()
}

#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Kinetic degrees of freedom: every species' cells × coefficients.
pub fn kinetic_dof(state: &SystemState) -> usize {
    state
        .species_f
        .iter()
        .map(|f| f.ncells() * f.ncoeff())
        .sum()
}

pub fn state_is_finite(state: &SystemState) -> bool {
    state
        .species_f
        .iter()
        .chain(std::iter::once(&state.em))
        .all(|f| f.as_slice().iter().all(|v| v.is_finite()))
}

/// Largest per-species relative particle-number change.
pub fn mass_drift(q0: &ConservedQuantities, q1: &ConservedQuantities) -> f64 {
    q0.numbers
        .iter()
        .zip(&q1.numbers)
        .map(|(a, b)| ((b - a) / a).abs())
        .fold(0.0, f64::max)
}

pub fn energy_drift(q0: &ConservedQuantities, q1: &ConservedQuantities) -> f64 {
    ((q1.total_energy() - q0.total_energy()) / q0.total_energy()).abs()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_grid::DgField;

    fn state(seed: f64) -> SystemState {
        let mut f = DgField::zeros(3, 4);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = seed + i as f64 * 0.25;
        }
        SystemState {
            species_f: vec![f],
            em: DgField::zeros(2, 8),
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // FNV-1a 64 of the empty input and of eight zero bytes.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.write_u64(0);
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            want = want.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn state_hash_is_stable_and_sees_one_ulp() {
        let a = state(1.0);
        assert_eq!(state_hash(&a), state_hash(&a.clone()));
        // Pinned value: the fingerprint must not change between builds.
        assert_eq!(state_hash(&a), 0xd67e_e671_9567_7575);
        let mut b = a.clone();
        let v = &mut b.species_f[0].as_mut_slice()[5];
        *v = f64::from_bits(v.to_bits() + 1);
        assert_ne!(state_hash(&a), state_hash(&b));
        // -0.0 and 0.0 compare equal but are different bits.
        let mut c = a.clone();
        c.em.as_mut_slice()[0] = -0.0;
        assert_ne!(state_hash(&a), state_hash(&c));
    }

    #[test]
    fn finiteness_and_rss() {
        let mut s = state(0.0);
        assert!(state_is_finite(&s));
        s.em.as_mut_slice()[3] = f64::NAN;
        assert!(!state_is_finite(&s));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
