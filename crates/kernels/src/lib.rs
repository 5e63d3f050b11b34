//! # dg-kernels — the alias-free, matrix-free, quadrature-free update kernels
//!
//! This crate is the paper's principal algorithmic contribution, rebuilt in
//! Rust. The discrete weak form of the kinetic equation reduces, per cell
//! and per direction, to contractions with the tensor
//!
//! ```text
//! C^dir_lmn = ∫_{[-1,1]^d} (∂w_l/∂ξ_dir) w_m w_n dξ            (volume)
//! ```
//!
//! together with face trace matrices `T^{±,dir}` and the face product
//! tensor `D_abc = ∫_face φ_a φ_b φ_c dξ'` (surface). Because the basis is a
//! product of 1D orthonormal Legendre polynomials, **every entry factorizes
//! over dimensions into exact 1D integrals** (`dg-poly`), is extremely
//! sparse, and is evaluated symbolically once — never by quadrature. The
//! kernels below store only the non-zero entries with their analytically
//! computed coefficients and apply them in flat, allocation-free loops:
//!
//! * no mass matrix (orthonormal basis ⇒ identity — paper footnote 2),
//! * no quadrature (all integrals precomputed exactly ⇒ alias-free),
//! * no matrix data structures in the hot loop (matrix-free).
//!
//! The number of multiplications per kernel is exposed ([`ops`]) so the
//! paper's Fig. 1 claim ("∼70 multiplications modal vs ∼250 nodal for the
//! 1X2V p=1 tensor volume kernel") is auditable, and [`codegen`] emits the
//! fully unrolled Rust source of any kernel — the direct analogue of the
//! Maxima-generated C++ kernel the paper prints as Figure 1.

pub mod accel;
pub mod cache;
pub mod codegen;
pub mod dispatch;
pub mod generated;
pub mod linalg;
pub mod moments;
pub mod ops;
pub mod panel;
pub mod phase;
pub mod surface;
pub mod tables1d;
pub mod triple;
pub mod volume;
pub mod weak;

pub use cache::kernels_for;
pub use dispatch::{DispatchPath, KernelDispatch};
pub use phase::{PhaseKernels, PhaseLayout};
pub use triple::{SparseTriple, TripleEntry};
