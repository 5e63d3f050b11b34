//! # dg-core — the alias-free modal DG Vlasov–Maxwell solver
//!
//! The paper's primary contribution assembled into a working kinetic code:
//!
//! * [`vlasov`] — the collisionless phase-space update
//!   `∂f/∂t + ∇_x·(v f) + ∇_v·(α f) = 0` with
//!   `α = (q/m)(E + v×B)`, evaluated entirely through the alias-free,
//!   matrix-free, quadrature-free kernels of `dg-kernels`;
//! * [`species`] / [`moments`] — per-species distribution functions and the
//!   exact velocity moments that couple them to Maxwell's equations;
//! * [`system`] — the coupled Vlasov–Maxwell system (multiple species +
//!   PHM field solver + current coupling) with its conserved-quantity
//!   bookkeeping (mass exactly; energy with central fluxes, §II);
//! * [`ssprk`] / [`cfl`] — the three-stage, third-order strong-stability-
//!   preserving Runge–Kutta stepper used in all the paper's runs;
//! * [`lbo`] — the Dougherty/Lenard–Bernstein Fokker–Planck collision
//!   operator (the paper's footnote 7: "roughly doubles the cost");
//! * [`app`] — a builder-style front end mirroring Gkeyll's App system
//!   (Fig. 4): declare a domain, species with initial conditions, and field
//!   parameters; get a runnable simulation;
//! * [`blocks`] — the two-level decomposition: the coupled RHS over
//!   `ranks × threads` contiguous dim-0 cell blocks, inline at one thread
//!   and on a persistent worker pool above, bit-identical for every
//!   decomposition;
//! * [`backend`] / [`observer`] / [`error`] — the run-driver layer: the
//!   one execution engine behind the App, trigger-scheduled observers
//!   replacing hand-rolled sampling loops, and the typed error taxonomy of
//!   every fallible public operation.

pub mod app;
pub mod backend;
pub mod blocks;
pub mod cfl;
pub mod diagnostics;
pub mod error;
pub mod lbo;
pub mod moments;
pub mod observer;
pub mod species;
pub mod ssprk;
pub mod system;
pub mod vlasov;

pub use backend::Backend;
pub use error::Error;
pub use observer::{observe, Frame, Observer, Trigger};
pub use species::Species;
pub use system::{FluxKind, SystemState, VlasovMaxwell};
