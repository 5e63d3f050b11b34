//! # vlasov-dg
//!
//! A Rust reproduction of **Hakim & Juno, "Alias-free, matrix-free, and
//! quadrature-free discontinuous Galerkin algorithms for (plasma) kinetic
//! equations"** (SC 2020) — a continuum kinetic Vlasov–Maxwell solver in up
//! to 3X3V phase space built on modal, orthonormal DG bases whose update
//! kernels are assembled from analytically evaluated integrals.
//!
//! This facade crate re-exports the workspace's public API. See `DESIGN.md`
//! for the system inventory and `EXPERIMENTS.md` for the reproduced
//! tables/figures.
//!
//! ## Quick start
//!
//! ```
//! use vlasov_dg::prelude::*;
//!
//! // 1X1V electrostatic-limit Vlasov–Maxwell: weak Landau damping setup.
//! let mut app = AppBuilder::new()
//!     .conf_grid(&[-2.0 * std::f64::consts::PI], &[2.0 * std::f64::consts::PI], &[8])
//!     .poly_order(2)
//!     .basis(BasisKind::Serendipity)
//!     .species(
//!         SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[8]).initial(|x, v| {
//!             let vth: f64 = 1.0;
//!             let k = 0.5;
//!             (1.0 + 0.01 * (k * x[0]).cos())
//!                 * (-v[0] * v[0] / (2.0 * vth * vth)).exp()
//!                 / (2.0 * std::f64::consts::PI * vth * vth).sqrt()
//!         }),
//!     )
//!     .field(FieldSpec::new(1.0).with_poisson_init())
//!     // Four configuration slabs on two threads: execution policy only —
//!     // drop both lines and the same declaration runs on one thread,
//!     // bit-identically.
//!     .ranks(4)
//!     .threads(2)
//!     .build()
//!     .unwrap();
//!
//! // The run driver owns the loop; observers sample on their triggers.
//! let mut history = EnergyHistory::every(0.05);
//! app.run(0.1, &mut [&mut history]).unwrap();
//! assert!(app.time() >= 0.1);
//! assert!(history.mass_drift() < 1e-12);
//! ```

pub use dg_basis as basis;
pub use dg_core as core;
pub use dg_diag as diag;
pub use dg_ensemble as ensemble;
pub use dg_grid as grid;
pub use dg_kernels as kernels;
pub use dg_maxwell as maxwell;
pub use dg_parallel as parallel;
pub use dg_poly as poly;
pub use dg_telemetry as telemetry;

/// Shared runtime-configuration helpers (env-override parsers used by the
/// examples and the CI smoke jobs).
pub mod util {
    pub use dg_diag::util::{env_f64, env_usize};

    use dg_core::app::App;
    use dg_core::error::Error;

    /// End-of-run telemetry hand-off shared by the examples: when the app
    /// was built with collection on (`DG_TELEMETRY=1`), print the
    /// per-phase summary table and write the machine-readable report to
    /// `telemetry.json` in the working directory (override the path with
    /// `DG_TELEMETRY_PATH`). A no-op when telemetry is off, so examples
    /// call it unconditionally after `App::run`.
    pub fn emit_telemetry(app: &App, name: &str) -> Result<(), Error> {
        if !app.telemetry_enabled() {
            return Ok(());
        }
        let report = app.telemetry_report(name).expect("telemetry is enabled");
        print!("{}", report.summary_table());
        let path =
            std::env::var("DG_TELEMETRY_PATH").unwrap_or_else(|_| String::from("telemetry.json"));
        app.write_telemetry(std::path::Path::new(&path), name)?;
        println!("wrote {path}");
        Ok(())
    }
}

/// One-stop imports for applications.
pub mod prelude {
    pub use dg_basis::{Basis, BasisKind};
    pub use dg_core::app::{App, AppBuilder, FieldSpec, SpeciesSpec};
    pub use dg_core::error::Error;
    pub use dg_core::observer::{observe, Frame, Observer, Trigger};
    pub use dg_core::system::{FluxKind, SystemState, VlasovMaxwell, WallChannels};
    pub use dg_diag::csv::CsvSeries;
    pub use dg_diag::history::EnergyHistory;
    pub use dg_diag::metrics::MetricsObserver;
    pub use dg_diag::slices::SliceSeries;
    pub use dg_diag::snapshot::Checkpoint;
    pub use dg_diag::walls::WallFluxLedger;
    pub use dg_ensemble::{
        CancelToken, Ensemble, EnsembleConfig, EnsembleReport, JobOutputs, JobParams, JobRecord,
        JobSpec, JobStatus, RetryPolicy, SweepSpec,
    };
    pub use dg_grid::boundary::{Bc, DimBc};
    pub use dg_grid::grid::CartGrid;
    pub use dg_kernels::DispatchPath;
    pub use dg_telemetry::{Collector, Counter, Phase, Registry, RunReport, Snapshot};
}
