//! The unrolled kernels and their dispatch registry (one row per
//! configuration), generated at build time from [`crate::codegen::MANIFEST`] (see `build.rs`).
//! [`crate::dispatch`] routes solvers onto them.

include!(concat!(env!("OUT_DIR"), "/mod.rs"));

#[cfg(test)]
#[path = "generated_tests.rs"]
mod tests;
