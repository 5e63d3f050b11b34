//! # dg-kernels — the alias-free, matrix-free, quadrature-free update kernels
//!
//! This crate is the paper's principal algorithmic contribution, rebuilt in
//! Rust. The exact integral tables, the runtime sparse-tensor kernels and
//! the generator live in `dg-tables` (re-exported here, so every
//! `dg_kernels::…` path resolves); this crate compiles what the generator
//! emits. Its build script writes, for every entry of
//! [`codegen::MANIFEST`], the fully unrolled volume, surface, moment and
//! LBO kernels — every loop unrolled, every coefficient a literal, the
//! analogue of the Maxima-generated C++ kernel the paper prints as
//! Figure 1 — plus the registries that list them, into `OUT_DIR`
//! ([`generated`]). [`dispatch`] routes solvers onto them, and [`panel`]
//! holds the SIMD moves their batched entry points run on.
//!
//! To read one kernel, run the `kernel_inspect` example, or open the
//! emitted files under `target/*/build/dg-kernels-*/out/`.

pub mod dispatch;
pub mod generated;
pub mod panel;
pub mod surface;
pub mod volume;

pub use dg_tables::{accel, cache, codegen, linalg, moments, ops, phase, tables1d, triple, weak};

pub use cache::kernels_for;
pub use dispatch::{DispatchPath, KernelDispatch};
pub use phase::{PhaseKernels, PhaseLayout};
pub use triple::{SparseTriple, TripleEntry};
