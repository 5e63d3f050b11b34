//! Execution backends: one [`App`](crate::app::App) API over serial and
//! rank-parallel drivers.
//!
//! The paper's scaling story (Fig. 3) rests on the same simulation
//! declaration running unchanged across decompositions — in Gkeyll the
//! LuaJIT App layer hides the backend entirely. [`Backend`] is the Rust
//! analogue: the App owns a boxed backend and only ever asks it to step a
//! [`SystemState`] by `dt`, suggest a CFL-stable `dt`, and expose the
//! underlying [`VlasovMaxwell`] for diagnostics.
//!
//! **Dependency-inversion choice.** `dg-parallel` depends on `dg-core`
//! (the parallel driver reuses the serial operators), so the trait pair
//! lives *here* and each execution engine ships its own
//! [`BackendFactory`]: [`Serial`] in this crate, `RankParallel` in
//! `dg-parallel`. `AppBuilder::backend(...)` accepts any factory object,
//! which is how the rank-parallel implementation plugs into an `App` that
//! `dg-core` itself constructs — no registry, no generics leaking into
//! `App`, and downstream crates can provide further engines (GPU, real
//! MPI) without touching this crate.

use std::sync::Arc;

use dg_telemetry::Registry;

use crate::blocks::BlockRhs;
use crate::cfl::suggest_dt;
use crate::error::Error;
use crate::ssprk::{ssp_rk3_generic, SspRk3, STAGE_WEIGHTS};
use crate::system::{SystemState, VlasovMaxwell};

/// An execution engine that can advance a [`SystemState`] in time.
///
/// Contract: for a given [`VlasovMaxwell`] system and state, `step` must
/// produce the *same bits* as the serial SSP-RK3 sweep — backends are an
/// implementation switch, never a physics switch (asserted in the
/// `backend_equiv` integration test for the rank-parallel engine).
pub trait Backend {
    /// Advance `state` by one SSP-RK3 step of size `dt`.
    fn step(&mut self, state: &mut SystemState, dt: f64);

    /// CFL-stable `dt` suggestion for `state` (same bound for every
    /// backend: the decomposition does not change the spectrum).
    fn suggest_dt(&self, state: &SystemState, cfl: f64) -> f64 {
        suggest_dt(self.system(), state, cfl)
    }

    /// The underlying system, for diagnostics and moments.
    fn system(&self) -> &VlasovMaxwell;

    /// Mutable system access (dispatch forcing, collision swaps).
    fn system_mut(&mut self) -> &mut VlasovMaxwell;

    /// Dissolve the backend and hand the system back (used by hand-wired
    /// drivers and the nodal twin benches).
    fn into_system(self: Box<Self>) -> VlasovMaxwell;

    /// Short human-readable tag ("serial", "rank-parallel").
    fn name(&self) -> &'static str;

    /// Telemetry slots this backend writes: slot 0 is the orchestrating
    /// thread; parallel backends claim one extra slot per concurrent
    /// writer. Sizes the [`Registry`] handed to [`Backend::instrument`].
    fn telemetry_slots(&self) -> usize {
        1
    }

    /// Attach a telemetry registry, pointing every workspace probe at its
    /// slot. Default: stay on the zero-cost `Noop` collector. Telemetry is
    /// observational only — instrumented and uninstrumented runs must
    /// produce bit-identical trajectories (`tests/telemetry.rs`).
    fn instrument(&mut self, reg: &Arc<Registry>) {
        let _ = reg;
    }
}

/// Builds a [`Backend`] from an assembled system. Factories are plain
/// value objects (`Serial`, `RankParallel { ranks, threads }`) handed to
/// `AppBuilder::backend(...)`.
pub trait BackendFactory {
    /// Wrap `system` in a runnable backend.
    fn make(&self, system: VlasovMaxwell) -> Result<Box<dyn Backend>, Error>;
}

/// The default backend: the in-process SSP-RK3 sweep, single-threaded by
/// default, cell-block parallel with `threads > 1` (bit-identical either
/// way — the block decomposition preserves every cell's floating-point
/// addition order; see [`crate::blocks`]).
#[derive(Clone, Copy, Debug)]
pub struct Serial {
    /// Intra-process worker threads for the RHS sweep (1 = the plain
    /// serial sweep; 0 is a build error).
    pub threads: usize,
}

impl Default for Serial {
    fn default() -> Self {
        Serial { threads: 1 }
    }
}

impl BackendFactory for Serial {
    fn make(&self, system: VlasovMaxwell) -> Result<Box<dyn Backend>, Error> {
        match self.threads {
            0 => Err(Error::Build(
                "Serial backend needs threads ≥ 1, got 0".into(),
            )),
            1 => Ok(Box::new(SerialBackend::new(system))),
            n => Ok(Box::new(ThreadedBackend::new(system, n))),
        }
    }
}

/// Serial execution engine: owns the system plus the stepper's reusable
/// stage buffers.
pub struct SerialBackend {
    system: VlasovMaxwell,
    stepper: SspRk3,
}

impl SerialBackend {
    pub fn new(system: VlasovMaxwell) -> Self {
        let stepper = SspRk3::new(&system);
        SerialBackend { system, stepper }
    }
}

impl Backend for SerialBackend {
    fn step(&mut self, state: &mut SystemState, dt: f64) {
        self.stepper.step(&mut self.system, state, dt);
    }

    fn system(&self) -> &VlasovMaxwell {
        &self.system
    }

    fn system_mut(&mut self) -> &mut VlasovMaxwell {
        &mut self.system
    }

    fn into_system(self: Box<Self>) -> VlasovMaxwell {
        self.system
    }

    fn name(&self) -> &'static str {
        "serial"
    }

    fn instrument(&mut self, reg: &Arc<Registry>) {
        let probe = reg.collector(0);
        self.system.instrument(&probe);
        self.stepper.ws.probe = probe;
    }
}

/// Cell-block threaded execution engine (`Serial { threads: n > 1 }`):
/// the same SSP-RK3 sequence as [`SerialBackend`], with the species RHS
/// evaluated by [`BlockRhs`] on a persistent worker pool. Reports the
/// same backend name — thread count is execution policy, not physics, and
/// the trajectories are bit-identical (`tests/threaded_equiv.rs`).
pub struct ThreadedBackend {
    system: VlasovMaxwell,
    block: BlockRhs,
    stage: SystemState,
    rhs: SystemState,
}

impl ThreadedBackend {
    pub fn new(system: VlasovMaxwell, threads: usize) -> Self {
        let block = BlockRhs::new(&system, 1, threads);
        let stage = system.new_state();
        let rhs = system.new_state();
        ThreadedBackend {
            system,
            block,
            stage,
            rhs,
        }
    }
}

impl Backend for ThreadedBackend {
    fn step(&mut self, state: &mut SystemState, dt: f64) {
        let ThreadedBackend {
            system,
            block,
            stage,
            rhs,
        } = self;
        let mut stage_idx = 0usize;
        ssp_rk3_generic(state, stage, rhs, dt, |s, o| {
            block.rhs(system, s, o);
            system.integrate_wall_ledger(STAGE_WEIGHTS[stage_idx] * dt);
            stage_idx += 1;
        });
    }

    fn system(&self) -> &VlasovMaxwell {
        &self.system
    }

    fn system_mut(&mut self) -> &mut VlasovMaxwell {
        &mut self.system
    }

    fn into_system(self: Box<Self>) -> VlasovMaxwell {
        self.system
    }

    fn name(&self) -> &'static str {
        "serial"
    }

    fn telemetry_slots(&self) -> usize {
        1 + self.block.blocks().len()
    }

    fn instrument(&mut self, reg: &Arc<Registry>) {
        self.system.instrument(&reg.collector(0));
        self.block.instrument(reg);
    }
}
