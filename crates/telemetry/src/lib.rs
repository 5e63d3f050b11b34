//! `dg-telemetry` — zero-allocation phase timers, counters, and run
//! reports.
//!
//! The paper's claims are throughput numbers (DOF/s/core, collision
//! cost factors, multi-core speedups), so the solver must be able to
//! account for its own time per phase without perturbing the physics.
//! This crate provides:
//!
//! * a static phase/counter taxonomy ([`Phase`], [`Counter`]) sized at
//!   compile time;
//! * per-writer, cache-line-padded accumulator [`Slot`]s in a shared
//!   [`Registry`], addressed through a [`Collector`] handle that is
//!   resolved to noop-or-active **once at construction** — as an
//!   operator resolves its kernel path — so the disabled cost is one branch;
//! * RAII [`span!`]/[`Collector::span`] guards that never allocate
//!   (gated by `tests/alloc_free.rs` and the `dg-analyze`
//!   `hot_alloc`/`telemetry_span` rules);
//! * cold reporting: [`Snapshot`] merges (deterministic, ascending
//!   slot order), the [`DtRing`] step-size trace, blow-up
//!   [`Breadcrumb`]s, and the schema-stable [`RunReport`]
//!   `telemetry.json` writer.
//!
//! Two invariants hold by construction: telemetry never touches
//! simulation state (trajectories are bit-identical with telemetry on
//! or off at any thread/worker/rank count), and the hot collection
//! layer performs zero heap allocations.

pub mod collect;
pub mod phase;
pub mod report;

pub use collect::{now_ns, Collector, Registry, Slot, Snapshot, SpanGuard};
pub use phase::{Counter, Phase, NCOUNTERS, NPHASES};
pub use report::{
    json_str, validate_json, write_atomic, Breadcrumb, DtRing, RunReport, DT_RING_LEN, SCHEMA,
};
