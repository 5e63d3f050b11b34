//! The execution engine: one [`App`](crate::app::App) API over every
//! `(ranks, threads)` decomposition.
//!
//! The paper's scaling story (Fig. 3) rests on the same simulation
//! declaration running unchanged across decompositions — in Gkeyll the
//! LuaJIT App layer hides the backend entirely. [`Backend`] is the Rust
//! analogue: the App owns one and only ever asks it to step a
//! [`SystemState`] by `dt`, suggest a CFL-stable `dt`, and expose the
//! underlying [`VlasovMaxwell`] for diagnostics.
//!
//! There is one engine. Its RHS is [`BlockRhs`] over `ranks × threads`
//! dim-0 cell blocks — run inline on the calling thread when
//! `threads == 1`, so the default single-rank, single-thread App is the
//! one-block case of the general one — and its step is
//! [`ssp_rk3_system`]. Every decomposition produces the same bits
//! (`tests/decomposition/mod.rs`): ranks and threads are execution
//! policy, never physics.

use std::sync::Arc;

use dg_telemetry::Registry;

use crate::blocks::BlockRhs;
use crate::cfl::suggest_dt;
use crate::ssprk::ssp_rk3_system;
use crate::system::{SystemState, VlasovMaxwell};

/// The system plus its block-decomposed RHS and the stepper's reusable
/// stage buffers.
pub struct Backend {
    system: VlasovMaxwell,
    block: BlockRhs,
    stage: SystemState,
    rhs: SystemState,
}

impl Backend {
    /// `ranks` configuration slabs (units of decomposition) on `threads`
    /// threads (units of execution; oversubscribe freely).
    ///
    /// # Panics
    ///
    /// When `ranks` or `threads` is 0 (`AppBuilder` reports those as
    /// `Error::Build` before getting here).
    pub fn new(system: VlasovMaxwell, ranks: usize, threads: usize) -> Self {
        let block = BlockRhs::new(&system, ranks, threads);
        let stage = system.new_state();
        let rhs = system.new_state();
        Backend {
            system,
            block,
            stage,
            rhs,
        }
    }

    /// Advance `state` by one SSP-RK3 step of size `dt`.
    pub fn step(&mut self, state: &mut SystemState, dt: f64) {
        let Backend {
            system,
            block,
            stage,
            rhs,
        } = self;
        ssp_rk3_system(system, state, stage, rhs, dt, |sys, s, o| {
            block.rhs(sys, s, o)
        });
    }

    /// CFL-stable `dt` suggestion for `state` (the decomposition does not
    /// change the spectrum).
    pub fn suggest_dt(&self, state: &SystemState, cfl: f64) -> f64 {
        suggest_dt(&self.system, state, cfl)
    }

    /// The underlying system, for diagnostics and moments.
    pub fn system(&self) -> &VlasovMaxwell {
        &self.system
    }

    /// Mutable system access (dispatch forcing, collision swaps).
    pub fn system_mut(&mut self) -> &mut VlasovMaxwell {
        &mut self.system
    }

    /// Dissolve the engine and hand the system back.
    pub fn into_system(self) -> VlasovMaxwell {
        self.system
    }

    /// Short human-readable tag: `"serial"` on one rank, `"rank-parallel"`
    /// otherwise (the thread count is not part of it).
    pub fn name(&self) -> &'static str {
        if self.block.blocks().ranks == 1 {
            "serial"
        } else {
            "rank-parallel"
        }
    }

    /// Telemetry slots the engine writes: slot 0 is the calling thread
    /// (every block too at one thread), plus one per block on the pool.
    /// Sizes the [`Registry`] handed to [`Backend::instrument`].
    pub fn telemetry_slots(&self) -> usize {
        self.block.telemetry_slots()
    }

    /// Attach a telemetry registry, pointing every workspace probe at its
    /// slot. Telemetry is observational only — instrumented and
    /// uninstrumented runs produce bit-identical trajectories
    /// (`tests/telemetry.rs`).
    pub fn instrument(&mut self, reg: &Arc<Registry>) {
        self.system.instrument(&reg.collector(0));
        self.block.instrument(reg);
    }
}
