//! [`dg_tables::volume`], and the property every generated volume kernel
//! keeps.

pub use dg_tables::volume::*;

#[cfg(test)]
mod tests {
    use crate::dispatch::volume_registry;
    use dg_basis::Basis;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The l = 0 row of every volume tensor vanishes (∂w_0 = 0), so a
        /// volume term never changes a cell mean: mass moves only through
        /// faces. Checked on the generated kernel of every `MANIFEST`
        /// configuration, on random cell data: `out[0]` stays bitwise
        /// `0.0` from a zeroed output.
        #[test]
        fn streaming_volume_is_divergence_free_in_mean(
            qm in -3.0..3.0f64,
            w_raw in proptest::collection::vec(-2.0..2.0f64, 6),
            dxv_raw in proptest::collection::vec(0.1..2.0f64, 6),
            em_raw in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
            f_raw in proptest::collection::vec(-1.0..1.0f64, 128),
        ) {
            for entry in volume_registry() {
                let k = entry.key;
                let ndim = k.cdim + k.vdim;
                let np = Basis::new(k.kind, ndim, k.poly_order).len();
                let nc = Basis::new(k.kind, k.cdim, k.poly_order).len();
                let mut out = vec![0.0; np];
                (entry.func)(&w_raw[..ndim], &dxv_raw[..ndim], qm, &em_raw[..8 * nc], &f_raw[..np], &mut out);
                prop_assert!(
                    out[0].to_bits() == 0,
                    "{}: the volume term moved the cell mean by {}", entry.name, out[0]
                );
            }
        }
    }
}
