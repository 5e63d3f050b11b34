//! # dg-nodal — the alias-free *nodal* (quadrature) baseline
//!
//! The paper's Table I compares its modal algorithm against the alias-free
//! nodal scheme of Juno et al. 2018: the **same discrete operator**, but
//! evaluated through the classic quadrature pipeline —
//!
//! ```text
//! interpolate f, α to Nq Gauss points  (dense Nq×Np matvecs)
//! pointwise products                   (Nq multiplies)
//! project onto ∂w_l / lift traces      (dense Np×Nq matvecs)
//! ```
//!
//! with enough points (`⌈(3p+1)/2⌉` per dimension) to integrate the
//! nonlinear term exactly. Because both pipelines evaluate the same
//! integrals exactly, **modal and nodal RHS agree to round-off** — asserted
//! in the cross-crate equivalence tests — while their costs differ by the
//! `O(Nq Np)` vs sparse-`C_lmn` gap that Table I quantifies (∼16×).
//!
//! The dense matvecs go through `dg_tables::linalg::DMat`, our stand-in
//! for the Eigen 3.3.4 calls in the paper's measurement.
//!
//! [`aliased`] additionally provides the *under-integrated* variant
//! (`Nq = p+1` points per dimension, the collocation count): the aliasing
//! the paper's §II argues is fatal for kinetic equations. The §II test in
//! the facade's `tests/paper.rs` shows its energy bookkeeping breaking.

pub mod aliased;
pub mod nodal_vlasov;
pub mod quad_eval;

pub use nodal_vlasov::NodalVlasov;
pub use quad_eval::QuadEval;

/// Gauss points per dimension needed to integrate `∂w_l α_h f_h` exactly
/// (degree ≤ 3p per dimension).
pub fn alias_free_points(p: usize) -> usize {
    (3 * p + 1).div_ceil(2)
}

/// The under-integrated (collocation) count that produces aliasing.
pub fn aliased_points(p: usize) -> usize {
    p + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_point_counts() {
        assert_eq!(alias_free_points(1), 2);
        assert_eq!(alias_free_points(2), 4);
        assert_eq!(alias_free_points(3), 5);
        assert_eq!(aliased_points(2), 3);
    }
}
