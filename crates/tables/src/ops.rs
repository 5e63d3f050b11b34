//! Operation-count audits.
//!
//! The paper quantifies its win in multiplications: the Fig. 1 modal volume
//! kernel has ∼70 multiplies where the alias-free nodal equivalent needs
//! ∼250, and Table I's ∼16× wall-clock speedup is argued to be operation-
//! bound. These reports let the benchmarks print analogous numbers for any
//! configuration, independent of wall-clock noise.

use crate::phase::PhaseKernels;

/// Which kernel path a resolution (or a measurement) actually used — the
/// unrolled generated kernels or the runtime sparse-tensor ones — carried
/// by [`OpReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchPath {
    Generated,
    #[default]
    RuntimeSparse,
}

/// Multiplication counts per *cell update* (volume + all surface work,
/// attributing each face's cost half to each adjacent cell).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpReport {
    pub np: usize,
    pub streaming_volume: usize,
    pub accel_volume: usize,
    pub alpha_assembly: usize,
    pub surface: usize,
    /// Which dispatch path produced/measured these counts. The generated
    /// and runtime paths execute the same multiplications (that is what the
    /// equivalence tests pin down), so the tag disambiguates *bench output*,
    /// not the arithmetic.
    pub path: DispatchPath,
}

impl OpReport {
    pub fn total(&self) -> usize {
        self.streaming_volume + self.accel_volume + self.alpha_assembly + self.surface
    }

    /// The same counts re-tagged with the dispatch path that was measured.
    pub fn tagged(mut self, path: DispatchPath) -> Self {
        self.path = path;
        self
    }
}

impl PhaseKernels {
    pub fn op_report(&self) -> OpReport {
        let streaming_volume = self.streaming.iter().map(|s| s.mult_count()).sum();
        let accel_volume = self.accel_vol.iter().map(|a| a.mult_count()).sum();
        let alpha_assembly = self
            .cell_accel
            .iter()
            .map(|a| a.mult_count())
            .sum::<usize>()
            + self
                .surfaces
                .iter()
                .filter_map(|s| s.face_accel.as_ref())
                .map(|a| a.mult_count())
                .sum::<usize>();
        // Each direction has two faces; each face's kernel cost is shared by
        // the two cells it borders ⇒ one full face application per cell per
        // direction.
        let surface = self.surfaces.iter().map(|s| s.kernel.mult_count()).sum();
        OpReport {
            np: self.np(),
            streaming_volume,
            accel_volume,
            alpha_assembly,
            surface,
            path: DispatchPath::RuntimeSparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseLayout;
    use dg_basis::BasisKind;

    #[test]
    fn op_report_totals_are_consistent() {
        let pk = PhaseKernels::build(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
        let r = pk.op_report();
        assert_eq!(
            r.total(),
            r.streaming_volume + r.accel_volume + r.alpha_assembly + r.surface
        );
        assert!(r.total() > 0);
        assert_eq!(r.np, pk.np());
    }
}
