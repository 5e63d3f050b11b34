//! The four enforced rule families. Each module documents its rule,
//! exposes `check(…) -> Vec<Diagnostic>`, and is covered by both unit
//! tests and the golden fixtures in `tests/golden.rs`.

pub mod determinism;
pub mod hot_alloc;
pub mod telemetry_span;
pub mod unsafe_audit;
