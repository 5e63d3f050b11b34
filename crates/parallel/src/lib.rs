//! # dg-parallel — the two-level shared-memory decomposition
//!
//! The paper's §IV parallelization has two layers:
//!
//! 1. **configuration-space domain decomposition across MPI ranks** — each
//!    rank owns a slab of configuration cells (with its entire velocity
//!    grid), and only one layer of configuration-space ghost cells is
//!    communicated per step;
//! 2. **velocity-space work sharing inside a node via MPI-3 shared
//!    memory** — no ghost layers and no all-reduce of moments within a
//!    node, which the paper credits with 2–3× memory savings.
//!
//! This crate reproduces that structure with threads on one machine:
//! "ranks" are disjoint configuration-cell slabs ([`RankDecomp`]), each
//! split once more per thread, and the cell blocks run on the calling
//! thread or a persistent worker pool (`dg_core::blocks::BlockRhs`, the
//! one coupled-RHS driver, which `AppBuilder::ranks(..).threads(..)` also
//! runs). The slab faces play the role of halo exchange, and their data
//! volume is accounted explicitly so the Fig. 3 harness can report
//! communication/computation ratios. Because each block writes only its
//! own contiguous slice of the output field ([`dg_grid::DgFieldSlice`]),
//! the decomposition is **bit-identical to the serial sweep** — asserted
//! in tests — and data races are excluded by construction, not by locks.

pub mod decomp;
pub mod par_system;
pub mod scaling;

pub use decomp::RankDecomp;
pub use par_system::ParVlasovMaxwell;
