//! [`dg_tables::surface`], and the property every generated surface kernel
//! keeps.

pub use dg_tables::surface::*;

#[cfg(test)]
mod tests {
    use crate::dispatch::surface_registry;
    use dg_basis::Basis;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// What leaves the lower cell enters the upper cell: mode 0's trace
        /// is the same constant on both sides of a face, so the two cells'
        /// mean increments are `∓ w_0(±1) Ĝ_0` and cancel exactly. Checked
        /// on the generated kernel of every direction of every `MANIFEST`
        /// configuration, on random cell data, with the central and the
        /// penalty flux.
        #[test]
        fn flux_is_conservative(
            qm in -3.0..3.0f64,
            w_raw in proptest::collection::vec(-2.0..2.0f64, 6),
            dxv_raw in proptest::collection::vec(0.1..2.0f64, 6),
            em_raw in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
            f_lo in proptest::collection::vec(-1.0..1.0f64, 128),
            f_hi in proptest::collection::vec(-1.0..1.0f64, 128),
        ) {
            for entry in surface_registry() {
                let k = entry.key;
                let ndim = k.cdim + k.vdim;
                let np = Basis::new(k.kind, ndim, k.poly_order).len();
                let nc = Basis::new(k.kind, k.cdim, k.poly_order).len();
                for (dir, kernel) in entry.dirs.iter().enumerate() {
                    for penalty in [false, true] {
                        let (mut out_lo, mut out_hi) = (vec![0.0; np], vec![0.0; np]);
                        kernel(
                            &w_raw[..ndim],
                            &dxv_raw[..ndim],
                            qm,
                            &em_raw[..8 * nc],
                            penalty,
                            &f_lo[..np],
                            &f_hi[..np],
                            &mut out_lo,
                            &mut out_hi,
                        );
                        prop_assert!(
                            out_lo[0] == -out_hi[0],
                            "{} dir {dir} penalty {penalty}: the face leaks mass, {} vs {}",
                            entry.name, out_lo[0], out_hi[0]
                        );
                    }
                }
            }
        }
    }
}
