//! The App system: declarative simulation assembly (paper Fig. 4).
//!
//! Gkeyll drives its C++ kernels from LuaJIT "App" scripts: the user
//! declares a configuration grid, species with initial conditions, and
//! field parameters; the framework wires kernels, moments, field solver and
//! time stepper together. [`AppBuilder`] is the Rust analogue — everything
//! a paper experiment needs in one fluent declaration:
//!
//! ```
//! use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
//! use dg_basis::BasisKind;
//!
//! let mut app = AppBuilder::new()
//!     .conf_grid(&[0.0], &[6.283], &[8])
//!     .poly_order(1)
//!     .basis(BasisKind::Serendipity)
//!     .species(SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[8]))
//!     .field(FieldSpec::new(1.0))
//!     .build()
//!     .unwrap();
//! let dt = app.step().unwrap();
//! assert!(dt > 0.0 && app.time() > 0.0);
//! ```

use crate::backend::Backend;
use crate::error::Error;
use crate::lbo::LboOp;
use crate::observer::{Frame, Observer, Trigger};
use crate::species::Species;
use crate::system::{validate_conf_bcs, FluxKind, SystemState, VlasovMaxwell};
use dg_basis::project::Projector;
use dg_basis::{Basis, BasisKind};
use dg_grid::{Bc, CartGrid, DgField, DimBc, PhaseGrid};
use dg_kernels::{kernels_for, KernelDispatch, PhaseLayout};
use dg_maxwell::flux::PhmParams;
use dg_maxwell::{MaxwellDg, MaxwellFlux};
use dg_poly::quad::GaussRule;
use dg_telemetry::{now_ns, Breadcrumb, Collector, DtRing, Phase, Registry, RunReport, Snapshot};
use std::sync::Arc;

type DistFn = Box<dyn FnMut(&[f64], &[f64]) -> f64>;
type FieldFn = Box<dyn FnMut(&[f64]) -> [f64; 6]>;

/// Declaration of one kinetic species.
pub struct SpeciesSpec {
    name: String,
    charge: f64,
    mass: f64,
    vlower: Vec<f64>,
    vupper: Vec<f64>,
    vcells: Vec<usize>,
    init: Option<DistFn>,
    collision_nu: Option<f64>,
    conf_bc: Option<Vec<DimBc>>,
    vel_bc: Option<Vec<DimBc>>,
}

impl SpeciesSpec {
    pub fn new(
        name: &str,
        charge: f64,
        mass: f64,
        vlower: &[f64],
        vupper: &[f64],
        vcells: &[usize],
    ) -> Self {
        SpeciesSpec {
            name: name.to_string(),
            charge,
            mass,
            vlower: vlower.to_vec(),
            vupper: vupper.to_vec(),
            vcells: vcells.to_vec(),
            init: None,
            collision_nu: None,
            conf_bc: None,
            vel_bc: None,
        }
    }

    /// Initial distribution `f₀(x, v)`.
    pub fn initial(mut self, f: impl FnMut(&[f64], &[f64]) -> f64 + 'static) -> Self {
        self.init = Some(Box::new(f));
        self
    }

    /// Enable Dougherty-LBO self collisions with frequency ν.
    pub fn collisions(mut self, nu: f64) -> Self {
        self.collision_nu = Some(nu);
        self
    }

    /// Override this species' configuration-space BCs (per dimension, per
    /// side). Periodicity must match the domain declared with
    /// [`AppBuilder::conf_bc`]; only the wall flavor may differ per
    /// species (e.g. reflecting electrons against absorbing ions).
    pub fn conf_bc(mut self, bc: Vec<impl Into<DimBc>>) -> Self {
        self.conf_bc = Some(bc.into_iter().map(Into::into).collect());
        self
    }

    /// Request velocity-space BCs. Only [`Bc::ZeroFlux`] is admissible —
    /// the velocity extremes carry no flux by construction (that is what
    /// conserves particles) — so anything else is a build error; the knob
    /// exists to make the constraint explicit and checkable.
    pub fn velocity_bc(mut self, bc: Vec<impl Into<DimBc>>) -> Self {
        self.vel_bc = Some(bc.into_iter().map(Into::into).collect());
        self
    }
}

/// Declaration of the electromagnetic field.
pub struct FieldSpec {
    c: f64,
    chi_e: f64,
    chi_m: f64,
    epsilon0: f64,
    flux: MaxwellFlux,
    init: Option<FieldFn>,
    poisson_init: bool,
    evolve: bool,
}

impl FieldSpec {
    pub fn new(c: f64) -> Self {
        FieldSpec {
            c,
            chi_e: 0.0,
            chi_m: 0.0,
            epsilon0: 1.0,
            flux: MaxwellFlux::Central,
            init: None,
            poisson_init: false,
            evolve: true,
        }
    }

    /// Initial `[Ex, Ey, Ez, Bx, By, Bz](x)`.
    pub fn with_ic(mut self, f: impl FnMut(&[f64]) -> [f64; 6] + 'static) -> Self {
        self.init = Some(Box::new(f));
        self
    }

    /// Solve Gauss's law for the initial `E_x` in 1D configurations (the
    /// classic electrostatic start of Landau-damping / two-stream setups).
    pub fn with_poisson_init(mut self) -> Self {
        self.poisson_init = true;
        self
    }

    /// Divergence-cleaning speed factors (0 disables).
    pub fn cleaning(mut self, chi_e: f64, chi_m: f64) -> Self {
        self.chi_e = chi_e;
        self.chi_m = chi_m;
        self
    }

    pub fn epsilon0(mut self, e: f64) -> Self {
        self.epsilon0 = e;
        self
    }

    pub fn flux(mut self, flux: MaxwellFlux) -> Self {
        self.flux = flux;
        self
    }

    /// Freeze the field (external-field-only kinetics).
    pub fn frozen(mut self) -> Self {
        self.evolve = false;
        self
    }
}

/// The simulation builder.
pub struct AppBuilder {
    conf: Option<(Vec<f64>, Vec<f64>, Vec<usize>)>,
    conf_bc: Option<Vec<DimBc>>,
    poly_order: usize,
    kind: BasisKind,
    cfl: f64,
    flux: FluxKind,
    dispatch: KernelDispatch,
    species: Vec<SpeciesSpec>,
    field: Option<FieldSpec>,
    init_quad_npts: Option<usize>,
    ranks: usize,
    threads: usize,
    telemetry: Option<bool>,
}

impl Default for AppBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AppBuilder {
    pub fn new() -> Self {
        AppBuilder {
            conf: None,
            conf_bc: None,
            poly_order: 2,
            kind: BasisKind::Serendipity,
            cfl: 0.9,
            flux: FluxKind::Upwind,
            dispatch: KernelDispatch::Auto,
            species: Vec::new(),
            field: None,
            init_quad_npts: None,
            ranks: 1,
            threads: 1,
            telemetry: None,
        }
    }

    pub fn conf_grid(mut self, lower: &[f64], upper: &[f64], cells: &[usize]) -> Self {
        self.conf = Some((lower.to_vec(), upper.to_vec(), cells.to_vec()));
        self
    }

    /// Per-dimension configuration boundary conditions (default periodic).
    /// Accepts plain [`Bc`] values (same treatment both sides) or
    /// [`DimBc`] pairs for per-side walls. These are the *domain* BCs: the
    /// field solver derives its treatment from them (walls become
    /// perfectly conducting boundaries), and species default to them
    /// unless overridden via [`SpeciesSpec::conf_bc`].
    pub fn conf_bc(mut self, bc: Vec<impl Into<DimBc>>) -> Self {
        self.conf_bc = Some(bc.into_iter().map(Into::into).collect());
        self
    }

    pub fn poly_order(mut self, p: usize) -> Self {
        self.poly_order = p;
        self
    }

    pub fn basis(mut self, kind: BasisKind) -> Self {
        self.kind = kind;
        self
    }

    pub fn cfl(mut self, cfl: f64) -> Self {
        self.cfl = cfl;
        self
    }

    /// Kinetic-equation interface flux.
    pub fn vlasov_flux(mut self, flux: FluxKind) -> Self {
        self.flux = flux;
        self
    }

    /// Kernel dispatch policy for all four families — volume, surface,
    /// moment, and LBO kernels (default [`KernelDispatch::Auto`]:
    /// generated unrolled kernels when registered). Tests and benches use
    /// this to force either path; forcing `Generated` on a configuration
    /// outside `codegen::MANIFEST` makes [`AppBuilder::build`] return
    /// [`Error::Build`].
    pub fn kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    pub fn species(mut self, s: SpeciesSpec) -> Self {
        self.species.push(s);
        self
    }

    pub fn field(mut self, f: FieldSpec) -> Self {
        self.field = Some(f);
        self
    }

    /// Gauss points per dimension for initial-condition projection
    /// (default `p + 3`). Fewer than `p + 1` cannot integrate the mass
    /// matrix exactly and is a build error.
    pub fn init_quadrature(mut self, npts: usize) -> Self {
        self.init_quad_npts = Some(npts);
        self
    }

    /// Configuration-space ranks of the two-level decomposition: dim-0
    /// slabs, each with its whole velocity grid (default 1). The same
    /// declaration runs unchanged — and bit-identically — at every rank
    /// and thread count. `0` is a build error.
    pub fn ranks(mut self, n: usize) -> Self {
        self.ranks = n;
        self
    }

    /// Threads executing the cell-block RHS sweep (default 1: the blocks
    /// run inline on the calling thread; more runs them on a worker pool,
    /// each rank's slab split once per thread). Trajectories are
    /// bit-identical for every thread count. `0` is a build error.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Enable (or force off) phase telemetry: per-phase timers and work
    /// counters across the backend, surfaced through
    /// [`App::telemetry_report`], observer frames, and blow-up
    /// breadcrumbs. Defaults to the `DG_TELEMETRY` environment variable
    /// (`1` enables). Telemetry is observational: trajectories are
    /// bit-identical with it on or off (`tests/telemetry.rs`), and the
    /// instrumented hot path stays allocation-free
    /// (`tests/alloc_free.rs`).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = Some(on);
        self
    }

    pub fn build(mut self) -> Result<App, Error> {
        if self.ranks == 0 || self.threads == 0 {
            return Err(Error::Build(format!(
                "AppBuilder needs ranks ≥ 1 and threads ≥ 1, got ranks={} threads={}",
                self.ranks, self.threads
            )));
        }
        let (clo, chi, ccells) = self
            .conf
            .ok_or_else(|| Error::Build("configuration grid not specified".into()))?;
        let cdim = ccells.len();
        if self.species.is_empty() {
            return Err(Error::Build("at least one species required".into()));
        }
        let vdim = self.species[0].vcells.len();
        for s in &self.species {
            if s.vcells.len() != vdim || s.vlower.len() != vdim || s.vupper.len() != vdim {
                return Err(Error::Build(format!(
                    "species {} has inconsistent velocity dims",
                    s.name
                )));
            }
        }
        // All species share one velocity grid shape in this implementation
        // (as do the paper's runs); extents are per the first species.
        let vlo = self.species[0].vlower.clone();
        let vhi = self.species[0].vupper.clone();
        let vcells = self.species[0].vcells.clone();
        for s in &self.species {
            if s.vlower != vlo || s.vupper != vhi || s.vcells != vcells {
                return Err(Error::Build(
                    "all species must share one velocity grid in this build".into(),
                ));
            }
        }
        let layout = PhaseLayout::new(cdim, vdim);
        // A forced `Generated` path outside the manifest is a build error
        // here, not a panic in an operator constructor below.
        let (d, kind, p) = (self.dispatch, self.kind, self.poly_order);
        d.resolve(kind, layout, p).map_err(Error::Build)?;
        d.resolve_surface(kind, layout, p).map_err(Error::Build)?;
        d.resolve_moments(kind, layout, p).map_err(Error::Build)?;
        d.resolve_lbo(kind, layout, p).map_err(Error::Build)?;
        let kernels = kernels_for(kind, layout, p);
        let conf_grid = CartGrid::new(&clo, &chi, &ccells);
        let vel_grid = CartGrid::new(&vlo, &vhi, &vcells);
        let bc = self
            .conf_bc
            .unwrap_or_else(|| vec![DimBc::periodic(); cdim]);
        if bc.len() != cdim {
            return Err(Error::Build(format!(
                "{} boundary-condition pairs for {cdim} configuration dimensions",
                bc.len()
            )));
        }
        let grid = PhaseGrid::new(conf_grid.clone(), vel_grid, bc.clone());
        // Domain BCs: side pairing, Reflect symmetry. (Periodicity agrees
        // with itself by construction — the grid *is* the domain.)
        validate_conf_bcs(&grid, &bc, "domain")?;
        // Per-species requests: velocity space must stay zero-flux; conf
        // overrides may only change the wall flavor.
        for spec in &self.species {
            if let Some(vbc) = &spec.vel_bc {
                if vbc.len() != vdim {
                    return Err(Error::Build(format!(
                        "species {}: {} velocity BC pairs for {vdim} velocity dimensions",
                        spec.name,
                        vbc.len()
                    )));
                }
                if let Some(j) = vbc
                    .iter()
                    .position(|b| b.lower != Bc::ZeroFlux || b.upper != Bc::ZeroFlux)
                {
                    return Err(Error::Build(format!(
                        "species {}, velocity dim {j}: only ZeroFlux velocity-space \
                         boundaries are supported (particle conservation); got {:?}/{:?}",
                        spec.name, vbc[j].lower, vbc[j].upper
                    )));
                }
            }
            // Per-species conf overrides are validated by `set_conf_bcs`
            // below — one rule set, one code path.
        }

        let fspec = self.field.unwrap_or_else(|| FieldSpec::new(1.0));
        let params = PhmParams {
            c: fspec.c,
            chi_e: fspec.chi_e,
            chi_m: fspec.chi_m,
            epsilon0: fspec.epsilon0,
        };
        let maxwell = MaxwellDg::new(
            self.kind,
            conf_grid,
            bc,
            self.poly_order,
            params,
            fspec.flux,
        );

        let npts = self.init_quad_npts.unwrap_or(self.poly_order + 3);
        if npts < self.poly_order + 1 {
            return Err(Error::Build(format!(
                "init_quadrature({npts}) under-integrates the p = {} projection: \
                 at least p + 1 = {} Gauss points per dimension are needed",
                self.poly_order,
                self.poly_order + 1,
            )));
        }
        let mut species = Vec::new();
        let mut collisions: Vec<Option<LboOp>> = Vec::new();
        for spec in self.species.iter_mut() {
            let mut sp = Species::new(&spec.name, spec.charge, spec.mass, &grid, kernels.np());
            if let Some(init) = spec.init.as_mut() {
                sp.project_initial(&kernels, &grid, npts, init);
                if let Some(cell) = first_non_finite_cell(&sp.f) {
                    let (clin, vlin) = grid.split_index(cell);
                    let mut cidx = vec![0usize; cdim];
                    let mut vidx = vec![0usize; vdim];
                    let mut center = vec![0.0; cdim + vdim];
                    grid.conf.delinearize(clin, &mut cidx);
                    grid.vel.delinearize(vlin, &mut vidx);
                    grid.cell_center(&cidx, &vidx, &mut center);
                    return Err(Error::Build(format!(
                        "species {}: initial condition is not finite in the cell centred at \
                         (x, v) = {center:?}",
                        spec.name
                    )));
                }
            }
            collisions.push(spec.collision_nu.map(|nu| {
                LboOp::with_dispatch(Arc::clone(&kernels), grid.clone(), nu, self.dispatch)
            }));
            species.push(sp);
        }

        let mut system =
            VlasovMaxwell::new(Arc::clone(&kernels), grid, maxwell, species, self.flux);
        if self.dispatch != KernelDispatch::Auto {
            system.set_kernel_dispatch(self.dispatch);
        }
        system.set_collisions(collisions);
        system.set_evolve_field(fspec.evolve);
        system.set_track_charge(fspec.chi_e != 0.0);
        for (s, spec) in self.species.iter_mut().enumerate() {
            if let Some(cbc) = spec.conf_bc.take() {
                system.set_conf_bcs(s, cbc)?;
            }
        }

        // Initial EM field.
        let mut em = system.maxwell.new_field();
        if let Some(mut init) = fspec.init {
            let conf = &system.maxwell.grid;
            project_field_ic(&system.maxwell.basis, conf, npts, &mut init, &mut em);
            if let Some(cell) = first_non_finite_cell(&em) {
                let mut cidx = vec![0usize; cdim];
                let mut center = vec![0.0; cdim];
                conf.delinearize(cell, &mut cidx);
                conf.cell_center(&cidx, &mut center);
                return Err(Error::Build(format!(
                    "field initial condition is not finite in the cell centred at x = {center:?}"
                )));
            }
        }
        if fspec.poisson_init {
            if cdim != 1 {
                return Err(Error::Build(
                    "with_poisson_init is implemented for 1D configurations".into(),
                ));
            }
            if !system.grid.is_conf_periodic(0) {
                return Err(Error::Build(
                    "with_poisson_init assumes a periodic configuration (it fixes the \
                     periodic gauge); start bounded runs from an explicit field IC"
                        .into(),
                ));
            }
            poisson_init_1d(&mut system, &mut em)?;
        }
        let state = system.initial_state(em);
        let mut backend = Backend::new(system, self.ranks, self.threads);
        let telemetry_on = self.telemetry.unwrap_or_else(env_telemetry);
        let (probe, telemetry) = if telemetry_on {
            let reg = Arc::new(Registry::new(backend.telemetry_slots()));
            backend.instrument(&reg);
            let probe = reg.collector(0);
            (
                probe,
                Some(TelemetryState {
                    reg,
                    dt_ring: DtRing::default(),
                    wall_ns: 0,
                }),
            )
        } else {
            (Collector::default(), None)
        };
        Ok(App {
            backend,
            state,
            time: 0.0,
            steps_taken: 0,
            cfl: self.cfl,
            fixed_dt: None,
            last_dt: 0.0,
            probe,
            telemetry,
        })
    }
}

/// Default telemetry policy: the `DG_TELEMETRY` environment variable
/// (anything but unset/empty/`0` enables collection).
fn env_telemetry() -> bool {
    std::env::var("DG_TELEMETRY")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The first cell of `f` holding a non-finite coefficient, if any. One
/// NaN-aware reduction over the field decides; cells are searched only
/// when it fails.
fn first_non_finite_cell(f: &DgField) -> Option<usize> {
    if f.max_abs().is_finite() {
        return None;
    }
    (0..f.ncells()).find(|&c| f.cell(c).iter().any(|x| !x.is_finite()))
}

/// Project per-component field initial conditions onto the conf basis:
/// `init` is sampled once per Gauss point, and the six components'
/// point values are contracted one after the other.
fn project_field_ic(
    basis: &Basis,
    grid: &CartGrid,
    npts: usize,
    init: &mut FieldFn,
    em: &mut DgField,
) {
    let cdim = grid.ndim();
    let nc = basis.len();
    let mut projector = Projector::new(basis, npts);
    let nq = projector.npoints();
    let mut cidx = vec![0usize; cdim];
    let mut center = vec![0.0; cdim];
    let mut vals = vec![0.0; 6 * nq];
    for lin in 0..grid.len() {
        grid.delinearize(lin, &mut cidx);
        grid.cell_center(&cidx, &mut center);
        projector.for_each_point(&center, grid.dx(), |n, z| {
            for (comp, v) in init(z).into_iter().enumerate() {
                vals[comp * nq + n] = v;
            }
        });
        let cell = em.cell_mut(lin);
        for (v, out) in vals.chunks_exact(nq).zip(cell.chunks_exact_mut(nc)) {
            projector.contract(v, out);
        }
    }
}

/// Solve `dE_x/dx = ρ/ε₀` exactly on a periodic 1D configuration grid,
/// subtracting the neutralizing background (domain-average charge) and the
/// mean field (periodic gauge).
fn poisson_init_1d(system: &mut VlasovMaxwell, em: &mut DgField) -> Result<(), Error> {
    let nc = system.kernels.nc();
    let grid = system.maxwell.grid.clone();
    let nconf = grid.len();
    // Charge density.
    let mut rho = DgField::zeros(nconf, nc);
    for sp in &system.species {
        let n = crate::moments::number_density(&system.kernels, &system.grid, &sp.f);
        for c in 0..nconf {
            for l in 0..nc {
                rho.cell_mut(c)[l] += sp.charge * n.cell(c)[l];
            }
        }
    }
    // Subtract the mean (neutralizing background): mean of ρ over the domain.
    let c0 = dg_basis::expand::const_coeff(&system.maxwell.basis);
    let mean: f64 = (0..nconf).map(|c| rho.cell(c)[0] / c0).sum::<f64>() / nconf as f64;
    for c in 0..nconf {
        rho.cell_mut(c)[0] -= mean * c0;
    }
    system.set_background_charge(mean);

    let inv_eps = 1.0 / system.maxwell.params.epsilon0;
    let (e_in, emean) =
        integrate_gauss_law_1d(&system.maxwell.basis, grid.dx()[0], inv_eps, &rho, em);
    // Periodic gauge: subtract the mean field.
    for c in 0..nconf {
        em.cell_mut(c)[0] -= emean * c0;
    }
    // Consistency: with zero net charge the field must close periodically.
    if (e_in).abs() > 1e-8 * (1.0 + emean.abs()) {
        // e_in now holds E at the domain end relative to the start.
        return Err(Error::Build(format!(
            "Poisson init inconsistency: net field jump {e_in:.3e} (non-neutral plasma?)"
        )));
    }
    Ok(())
}

/// Integrate `dE_x/dx = ρ/ε₀` cell by cell from `E = 0` at the left edge,
/// writing the `E_x` coefficients into `em`; `E(ξ)` inside a cell is the
/// exact antiderivative of the modal `ρ`, projected back onto the basis.
/// Returns the field at the right edge (the net jump) and the domain
/// mean of `E_x`.
fn integrate_gauss_law_1d(
    basis: &Basis,
    dx: f64,
    inv_eps: f64,
    rho: &DgField,
    em: &mut DgField,
) -> (f64, f64) {
    let nc = basis.len();
    let nconf = rho.ncells();
    let c0 = dg_basis::expand::const_coeff(basis);
    // One rule serves both the antiderivative and the projection, and the
    // basis values at its nodes are the same in every cell.
    let rule = GaussRule::new(basis.poly_order() + 2);
    let mut legendre = vec![0.0; basis.poly_order() + 1];
    let mut node_vals = vec![0.0; rule.len() * nc];
    for (node, vals) in rule.nodes.iter().zip(node_vals.chunks_exact_mut(nc)) {
        basis.eval_all_with(&[*node], &mut legendre, vals);
    }
    let mut vals = vec![0.0; nc];
    let mut e_in = 0.0;
    let mut exc = vec![0.0; nc];
    let mut e_means = Vec::with_capacity(nconf);
    for c in 0..nconf {
        let r = rho.cell(c);
        // E(ξ) = E_in + (Δx/2)/ε₀ ∫_{−1}^{ξ} ρ_h dξ'.
        let mut e_at = |xi: f64| -> f64 {
            // Map the rule to [−1, ξ].
            let half = 0.5 * (xi + 1.0);
            let mut acc = 0.0;
            for (node, wgt) in rule.nodes.iter().zip(&rule.weights) {
                let t = -1.0 + half * (node + 1.0);
                basis.eval_all_with(&[t], &mut legendre, &mut vals);
                let rho_t: f64 = r.iter().zip(&vals).map(|(c, w)| c * w).sum();
                acc += wgt * half * rho_t;
            }
            e_in + 0.5 * dx * inv_eps * acc
        };
        // Project E(ξ) onto the basis.
        exc.fill(0.0);
        for ((node, wgt), vals) in rule
            .nodes
            .iter()
            .zip(&rule.weights)
            .zip(node_vals.chunks_exact(nc))
        {
            let ev = e_at(*node);
            for l in 0..nc {
                exc[l] += wgt * ev * vals[l];
            }
        }
        em.cell_mut(c)[..nc].copy_from_slice(&exc);
        e_means.push(exc[0] / c0);
        e_in = e_at(1.0);
    }
    let emean = e_means.iter().sum::<f64>() / nconf as f64;
    (e_in, emean)
}

/// Termination tolerance for the run/advance loops: relative to the
/// target time, so long runs (`t_end ~ 60`) never take a spurious
/// ulp-sized final step, while short runs keep landing exactly.
fn end_tolerance(t_end: f64) -> f64 {
    4.0 * f64::EPSILON * t_end.abs().max(1.0)
}

/// Per-observer scheduling state inside one `App::run` call.
enum Sched {
    Time { next: f64, period: f64 },
    Steps { period: usize },
    End,
}

/// Run-long telemetry carried by an instrumented [`App`]: the registry
/// the engine writes into, the recent-dt trace, and accumulated
/// stepping wall time.
struct TelemetryState {
    reg: Arc<Registry>,
    dt_ring: DtRing,
    wall_ns: u64,
}

/// A runnable simulation: a declaration bound to its execution
/// [`Backend`]. Diagnostics reach the system and state through the
/// accessors; stepping goes through [`App::step`], [`App::advance_by`],
/// or the observer-scheduled [`App::run`] driver.
pub struct App {
    backend: Backend,
    state: SystemState,
    time: f64,
    steps_taken: usize,
    cfl: f64,
    fixed_dt: Option<f64>,
    /// dt of the last *accepted* step (0 before the first).
    last_dt: f64,
    /// Slot-0 collector for App-level phases (step control, observers,
    /// IO); the zero-cost `Noop` when telemetry is off.
    probe: Collector,
    telemetry: Option<TelemetryState>,
}

impl App {
    pub fn time(&self) -> f64 {
        self.time
    }

    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// The underlying system (operators, species, grids) — diagnostics
    /// access, backend-agnostic.
    pub fn system(&self) -> &VlasovMaxwell {
        self.backend.system()
    }

    /// Mutable system access (dispatch forcing, collision swaps).
    pub fn system_mut(&mut self) -> &mut VlasovMaxwell {
        self.backend.system_mut()
    }

    /// The current dynamical state.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Mutable state access (custom initial data, hand-wired drivers).
    pub fn state_mut(&mut self) -> &mut SystemState {
        &mut self.state
    }

    /// The executing backend's tag ("serial", "rank-parallel").
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Dissolve the App into its system and state (hand-wired drivers,
    /// nodal twins, the scaling harness).
    pub fn into_parts(self) -> (VlasovMaxwell, SystemState) {
        (self.backend.into_system(), self.state)
    }

    /// Restore a checkpointed `(state, time)` pair — the restart path.
    /// Continuing with the same `dt` policy reproduces the uninterrupted
    /// trajectory bit-for-bit (asserted in the restart integration test).
    ///
    /// Snapshots do not record the step counter; [`App::steps_taken`]
    /// keeps its current value. Restart tooling that relies on
    /// step-stamped artifacts (e.g. the `Checkpoint` observer's file
    /// names) should re-align it with [`App::set_steps_taken`] so resumed
    /// runs don't re-stamp — and overwrite — pre-interruption outputs.
    pub fn restore(&mut self, state: SystemState, time: f64) -> Result<(), Error> {
        let shape_ok = state.species_f.len() == self.state.species_f.len()
            && state
                .species_f
                .iter()
                .zip(&self.state.species_f)
                .all(|(a, b)| a.ncells() == b.ncells() && a.ncoeff() == b.ncoeff())
            && state.em.ncells() == self.state.em.ncells()
            && state.em.ncoeff() == self.state.em.ncoeff();
        if !shape_ok {
            return Err(Error::Build(
                "restored state shape does not match this App's declaration".into(),
            ));
        }
        self.state = state;
        self.time = time;
        Ok(())
    }

    /// Re-align the step counter after a [`App::restore`] (it is not part
    /// of a snapshot). Has no effect on the trajectory — only on
    /// step-triggered observers and step-stamped artifact names.
    pub fn set_steps_taken(&mut self, steps: usize) {
        self.steps_taken = steps;
    }

    /// Override adaptive CFL stepping with a fixed `dt`.
    pub fn set_fixed_dt(&mut self, dt: f64) {
        self.fixed_dt = Some(dt);
    }

    /// The `dt` the driver would take next (fixed override or CFL bound).
    pub fn suggest_dt(&self) -> f64 {
        let _span = self.probe.span(Phase::StepControl);
        match self.fixed_dt {
            Some(dt) => dt,
            None => self.backend.suggest_dt(&self.state, self.cfl),
        }
    }

    /// Take one SSP-RK3 step; returns the `dt` used.
    pub fn step(&mut self) -> Result<f64, Error> {
        let dt = self.suggest_dt();
        self.step_dt(dt)?;
        Ok(dt)
    }

    /// Take one step with an explicit `dt`.
    pub fn step_dt(&mut self, dt: f64) -> Result<(), Error> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(Error::InvalidDt(dt));
        }
        // Step index of the step being attempted (completed steps so far).
        let step_index = self.steps_taken as u64;
        let t0 = if self.telemetry.is_some() {
            now_ns()
        } else {
            0
        };
        self.backend.step(&mut self.state, dt);
        if let Some(tel) = self.telemetry.as_mut() {
            tel.wall_ns += now_ns().saturating_sub(t0);
        }
        self.time += dt;
        self.steps_taken += 1;
        for (s, f) in self.state.species_f.iter().enumerate() {
            if !f.max_abs().is_finite() {
                let name = self.backend.system().species[s].name.clone();
                return Err(self.blow_up(Some(name), step_index));
            }
        }
        if !self.state.em.max_abs().is_finite() {
            return Err(self.blow_up(None, step_index));
        }
        // Step accepted: record its dt (failed steps never enter the
        // trace, so breadcrumbs show the last *good* history).
        self.last_dt = dt;
        if let Some(tel) = self.telemetry.as_mut() {
            tel.dt_ring.push(dt);
        }
        Ok(())
    }

    /// Assemble a blow-up error carrying the step index, the last
    /// accepted dt, and — when telemetry is on — a breadcrumb with the
    /// recent dt trace and the phase snapshot at the failure instant.
    fn blow_up(&self, species: Option<String>, step: u64) -> Error {
        Error::BlowUp {
            time: self.time,
            species,
            step,
            last_dt: self.last_dt,
            breadcrumb: self.telemetry.as_ref().map(|tel| {
                Box::new(Breadcrumb {
                    dt_trace: tel.dt_ring.to_vec(),
                    phases: tel.reg.snapshot(),
                })
            }),
        }
    }

    /// Advance until `self.time()` has increased by `duration` (the last
    /// step is clamped to land exactly).
    pub fn advance_by(&mut self, duration: f64) -> Result<(), Error> {
        let t_end = self.time + duration;
        let tol = end_tolerance(t_end);
        while self.time < t_end - tol {
            let dt = self.suggest_dt().min(t_end - self.time);
            self.step_dt(dt)?;
        }
        Ok(())
    }

    /// The run driver: advance to `until` with trigger-scheduled
    /// observers (see [`crate::observer`] for the scheduling semantics).
    /// Steps are clamped so `EveryTime` observers sample at exactly their
    /// due times and the run lands exactly on `until`.
    pub fn run(&mut self, until: f64, observers: &mut [&mut dyn Observer]) -> Result<(), Error> {
        if !until.is_finite() {
            return Err(Error::Build(format!("run target time {until} not finite")));
        }
        let tol = end_tolerance(until);
        let mut scheds = Vec::with_capacity(observers.len());
        for obs in observers.iter() {
            scheds.push(match obs.trigger() {
                Trigger::EveryTime(period) => {
                    if !(period.is_finite() && period > 0.0) {
                        return Err(Error::Build(format!(
                            "observer {:?}: EveryTime period must be positive, got {period}",
                            obs.name()
                        )));
                    }
                    // Schedule on the absolute simulation clock — the
                    // smallest multiple of `period` past the current time
                    // — so segmented/resumed runs keep sampling the same
                    // grid as an uninterrupted one (for a fresh run this
                    // is exactly `start + period`).
                    let mut next = ((self.time / period).floor() + 1.0) * period;
                    while next <= self.time + tol {
                        next += period;
                    }
                    Sched::Time { next, period }
                }
                Trigger::EverySteps(period) => {
                    if period == 0 {
                        return Err(Error::Build(format!(
                            "observer {:?}: EverySteps period must be ≥ 1",
                            obs.name()
                        )));
                    }
                    Sched::Steps { period }
                }
                Trigger::AtEnd => Sched::End,
            });
        }

        // Initial firing for periodic observers: the t = start sample.
        for (obs, sched) in observers.iter_mut().zip(&scheds) {
            if !matches!(sched, Sched::End) {
                fire(
                    self.backend.system(),
                    &self.state,
                    self.time,
                    self.steps_taken,
                    false,
                    &self.probe,
                    self.telemetry_snapshot(),
                    &mut **obs,
                )?;
            }
        }

        let mut steps_run = 0usize;
        while self.time < until - tol {
            let mut dt = self.suggest_dt().min(until - self.time);
            for sched in &scheds {
                if let Sched::Time { next, .. } = sched {
                    if *next < until {
                        dt = dt.min(*next - self.time);
                    }
                }
            }
            self.step_dt(dt)?;
            steps_run += 1;
            for (obs, sched) in observers.iter_mut().zip(scheds.iter_mut()) {
                let due = match sched {
                    Sched::Time { next, period } => {
                        let due = self.time >= *next - tol;
                        if due {
                            // Re-arm past the current clock (guards against
                            // double firing from rounding residue).
                            while *next <= self.time + tol {
                                *next += *period;
                            }
                        }
                        due
                    }
                    Sched::Steps { period } => steps_run.is_multiple_of(*period),
                    Sched::End => false,
                };
                if due {
                    fire(
                        self.backend.system(),
                        &self.state,
                        self.time,
                        self.steps_taken,
                        false,
                        &self.probe,
                        self.telemetry_snapshot(),
                        &mut **obs,
                    )?;
                }
            }
        }

        // Final firing for AtEnd observers.
        for (obs, sched) in observers.iter_mut().zip(&scheds) {
            if matches!(sched, Sched::End) {
                fire(
                    self.backend.system(),
                    &self.state,
                    self.time,
                    self.steps_taken,
                    true,
                    &self.probe,
                    self.telemetry_snapshot(),
                    &mut **obs,
                )?;
            }
        }
        Ok(())
    }

    /// Whether this App was built with telemetry collection enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Merged phase/counter snapshot across every backend slot, or
    /// `None` when telemetry is off.
    pub fn telemetry_snapshot(&self) -> Option<Snapshot> {
        self.telemetry.as_ref().map(|tel| tel.reg.snapshot())
    }

    /// End-of-run report under `name`, or `None` when telemetry is off.
    pub fn telemetry_report(&self, name: &str) -> Option<RunReport> {
        self.telemetry.as_ref().map(|tel| RunReport {
            name: name.to_string(),
            wall_s: tel.wall_ns as f64 * 1e-9,
            steps: self.steps_taken as u64,
            last_dt: self.last_dt,
            dt_trace: tel.dt_ring.to_vec(),
            nslots: tel.reg.nslots(),
            kernel_entry_points: self.backend.system().kernel_entry_points(),
            snapshot: tel.reg.snapshot(),
        })
    }

    /// Crash-safe `telemetry.json` write (no-op returning `Ok(false)`
    /// when telemetry is off; `Ok(true)` after a successful write).
    pub fn write_telemetry(&self, path: &std::path::Path, name: &str) -> Result<bool, Error> {
        let Some(report) = self.telemetry_report(name) else {
            return Ok(false);
        };
        let _span = self.probe.span(Phase::Io);
        report.write_atomic(path)?;
        Ok(true)
    }

    /// Conserved-quantity probe at the current time.
    pub fn conserved(&self) -> crate::diagnostics::ConservedQuantities {
        crate::diagnostics::probe(self.backend.system(), &self.state, self.time)
    }

    /// EM field energy (convenience).
    pub fn field_energy(&self) -> f64 {
        self.backend.system().field_energy(&self.state)
    }
}

/// Invoke one observer, wrapping foreign errors with its name.
#[allow(clippy::too_many_arguments)]
fn fire(
    system: &VlasovMaxwell,
    state: &SystemState,
    time: f64,
    steps: usize,
    at_end: bool,
    probe: &Collector,
    metrics: Option<Snapshot>,
    obs: &mut dyn Observer,
) -> Result<(), Error> {
    let _span = probe.span(Phase::Observers);
    let frame = Frame {
        system,
        state,
        time,
        steps,
        at_end,
        metrics,
    };
    obs.observe(&frame).map_err(|e| match e {
        Error::Io(io) => Error::Observer {
            name: obs.name().to_string(),
            message: io.to_string(),
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::maxwellian;

    #[test]
    fn build_rejects_missing_pieces() {
        assert!(AppBuilder::new().build().is_err());
        assert!(AppBuilder::new()
            .conf_grid(&[0.0], &[1.0], &[4])
            .build()
            .is_err());
    }

    #[test]
    fn minimal_app_steps() {
        let mut app = AppBuilder::new()
            .conf_grid(&[0.0], &[1.0], &[4])
            .poly_order(1)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[8])
                    .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
            )
            .field(FieldSpec::new(1.0))
            .build()
            .unwrap();
        let q0 = app.conserved();
        app.advance_by(0.05).unwrap();
        let q1 = app.conserved();
        assert!(app.time() >= 0.05);
        assert!(((q1.numbers[0] - q0.numbers[0]) / q0.numbers[0]).abs() < 1e-12);
    }

    #[test]
    fn poisson_init_satisfies_gauss_law() {
        // sinusoidal density perturbation → E with dE/dx = ρ/ε₀.
        let kx = 2.0 * std::f64::consts::PI / 4.0;
        let app = AppBuilder::new()
            .conf_grid(&[0.0], &[4.0], &[16])
            .poly_order(2)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[12])
                    .initial(move |x, v| maxwellian(1.0 + 0.1 * (kx * x[0]).cos(), &[0.0], 1.0, v)),
            )
            .field(FieldSpec::new(1.0).with_poisson_init())
            .build()
            .unwrap();
        // Analytic: ρ = −0.1 cos(kx) (mean removed), E = −0.1 sin(kx)/k.
        let nc = app.system().kernels.nc();
        let basis = &app.system().maxwell.basis;
        let grid = &app.system().maxwell.grid;
        for c in 0..grid.len() {
            let ex = &app.state().em.cell(c)[..nc];
            for &xi in &[-0.5, 0.0, 0.5] {
                let x = grid.center(0, c) + 0.5 * grid.dx()[0] * xi;
                let want = -0.1 * (kx * x).sin() / kx;
                let got = basis.eval_expansion(ex, &[xi]);
                assert!((got - want).abs() < 2e-4, "E at x={x}: {got} vs {want}");
            }
        }
    }

    /// `integrate_gauss_law_1d` as it was first written: two rules, the
    /// allocating `eval_all`/`eval_expansion` inside the node loops.
    fn gauss_law_reference(
        basis: &Basis,
        dx: f64,
        inv_eps: f64,
        rho: &DgField,
        em: &mut DgField,
    ) -> (f64, f64) {
        let nc = basis.len();
        let c0 = dg_basis::expand::const_coeff(basis);
        let inner = GaussRule::new(basis.poly_order() + 2);
        let proj_rule = GaussRule::new(basis.poly_order() + 2);
        let mut e_in = 0.0;
        let mut e_means = Vec::new();
        for c in 0..rho.ncells() {
            let r = rho.cell(c);
            let e_at = |xi: f64| -> f64 {
                let half = 0.5 * (xi + 1.0);
                let mut acc = 0.0;
                for (node, wgt) in inner.nodes.iter().zip(&inner.weights) {
                    let t = -1.0 + half * (node + 1.0);
                    acc += wgt * half * basis.eval_expansion(r, &[t]);
                }
                e_in + 0.5 * dx * inv_eps * acc
            };
            let mut exc = vec![0.0; nc];
            for (node, wgt) in proj_rule.nodes.iter().zip(&proj_rule.weights) {
                let vals = basis.eval_all(&[*node]);
                let ev = e_at(*node);
                for l in 0..nc {
                    exc[l] += wgt * ev * vals[l];
                }
            }
            em.cell_mut(c)[..nc].copy_from_slice(&exc);
            e_means.push(exc[0] / c0);
            e_in = e_at(1.0);
        }
        let emean = e_means.iter().sum::<f64>() / rho.ncells() as f64;
        (e_in, emean)
    }

    #[test]
    fn gauss_law_integration_keeps_the_reference_bits() {
        // The shapes of the `coll_1x2v_p2` and Landau benchmark problems:
        // p = 2 on 16 and 64 cells of a 4π box.
        let basis = Basis::new(BasisKind::Serendipity, 1, 2);
        let nc = basis.len();
        let length = 4.0 * std::f64::consts::PI;
        for (nx, inv_eps) in [(16usize, 1.0), (64, 0.25)] {
            let grid = CartGrid::new(&[0.0], &[length], &[nx]);
            let mut projector = Projector::new(&basis, 5);
            let mut rho = DgField::zeros(nx, nc);
            for c in 0..nx {
                projector.project(
                    &[grid.center(0, c)],
                    grid.dx(),
                    &mut |z: &[f64]| -0.05 * (0.5 * z[0] + 0.3).cos() + 1e-3 * (1.5 * z[0]).sin(),
                    rho.cell_mut(c),
                );
            }
            let mut want = DgField::zeros(nx, 6 * nc);
            let mut got = DgField::zeros(nx, 6 * nc);
            let w = gauss_law_reference(&basis, grid.dx()[0], inv_eps, &rho, &mut want);
            let g = integrate_gauss_law_1d(&basis, grid.dx()[0], inv_eps, &rho, &mut got);
            assert_eq!(
                (g.0.to_bits(), g.1.to_bits()),
                (w.0.to_bits(), w.1.to_bits())
            );
            let bits = |f: &DgField| f.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "nx = {nx}");
            assert!(got.max_abs() > 1e-2, "E was computed at all");
        }
    }

    fn builder_1x1v() -> AppBuilder {
        AppBuilder::new()
            .conf_grid(&[0.0], &[1.0], &[4])
            .poly_order(2)
            .field(FieldSpec::new(1.0))
    }

    #[test]
    fn init_quadrature_below_p_plus_one_is_a_build_error() {
        let species = || {
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[8])
                .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v))
        };
        for n in 0..3 {
            match builder_1x1v().species(species()).init_quadrature(n).build() {
                Err(Error::Build(msg)) => {
                    assert!(msg.contains(&format!("init_quadrature({n})")), "{msg}")
                }
                other => panic!("init_quadrature({n}) at p = 2: {:?}", other.map(|_| ())),
            }
        }
        builder_1x1v()
            .species(species())
            .init_quadrature(3)
            .build()
            .unwrap();
    }

    #[test]
    fn non_finite_initial_conditions_are_build_errors() {
        // NaN and ±∞ alike, reported with the species and the centre of
        // the first offending cell: x ∈ (0.5, 0.75), v ∈ (0, 1.5).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let res = builder_1x1v()
                .species(
                    SpeciesSpec::new("ion", 1.0, 1.0, &[-6.0], &[6.0], &[8]).initial(
                        move |x, v| {
                            if x[0] > 0.5 && v[0] > 0.0 {
                                bad
                            } else {
                                maxwellian(1.0, &[0.0], 1.0, v)
                            }
                        },
                    ),
                )
                .build();
            match res {
                Err(Error::Build(msg)) => {
                    assert!(msg.contains("species ion"), "{msg}");
                    assert!(msg.contains("[0.625, 0.75]"), "{msg}");
                }
                other => panic!("IC returning {bad}: {:?}", other.map(|_| ())),
            }
        }
        let res = builder_1x1v()
            .species(SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[8]))
            .field(FieldSpec::new(1.0).with_ic(|x| {
                let ey = if x[0] > 0.75 { f64::NAN } else { 1.0 };
                [0.0, ey, 0.0, 0.0, 0.0, 0.0]
            }))
            .build();
        match res {
            Err(Error::Build(msg)) => assert!(msg.contains("field") && msg.contains("[0.875]")),
            other => panic!("field IC returning NaN: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn field_ic_samples_once_per_point_and_matches_per_component_projection() {
        let basis = Basis::new(BasisKind::Serendipity, 2, 2);
        let grid = CartGrid::new(&[0.0, -1.0], &[1.0, 1.0], &[3, 2]);
        let npts = 4;
        let field = |z: &[f64]| -> [f64; 6] {
            std::array::from_fn(|c| ((c + 1) as f64 * z[0]).sin() * (z[1] - 0.1 * c as f64).exp())
        };
        let calls = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let counter = std::rc::Rc::clone(&calls);
        let mut init: FieldFn = Box::new(move |z| {
            counter.set(counter.get() + 1);
            field(z)
        });
        let nc = basis.len();
        let mut em = DgField::zeros(grid.len(), 6 * nc);
        project_field_ic(&basis, &grid, npts, &mut init, &mut em);
        assert_eq!(calls.get(), grid.len() * npts * npts);

        let (mut cidx, mut center) = ([0usize; 2], [0.0; 2]);
        let mut want = vec![0.0; nc];
        for lin in 0..grid.len() {
            grid.delinearize(lin, &mut cidx);
            grid.cell_center(&cidx, &mut center);
            for comp in 0..6 {
                dg_basis::project::project_cell(
                    &basis,
                    npts,
                    &center,
                    grid.dx(),
                    &mut |z: &[f64]| field(z)[comp],
                    &mut want,
                );
                assert_eq!(&em.cell(lin)[comp * nc..(comp + 1) * nc], &want[..]);
            }
        }
    }

    #[test]
    fn run_schedules_observers_and_lands_exactly() {
        use crate::observer::{observe, Trigger};
        let mut app = AppBuilder::new()
            .conf_grid(&[0.0], &[1.0], &[2])
            .poly_order(1)
            .species(
                SpeciesSpec::new("e", -1.0, 1.0, &[-4.0], &[4.0], &[4])
                    .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
            )
            .field(FieldSpec::new(1.0))
            .build()
            .unwrap();
        app.set_fixed_dt(3e-3);
        let mut sample_times = Vec::new();
        let mut step_fires = 0usize;
        let mut end_frames = Vec::new();
        {
            let mut sampler = observe(Trigger::EveryTime(0.01), |fr| {
                sample_times.push(fr.time);
                Ok(())
            });
            let mut per_step = observe(Trigger::EverySteps(2), |_fr| {
                step_fires += 1;
                Ok(())
            });
            let mut at_end = observe(Trigger::AtEnd, |fr| {
                end_frames.push((fr.time, fr.at_end));
                Ok(())
            });
            app.run(0.03, &mut [&mut sampler, &mut per_step, &mut at_end])
                .unwrap();
        }
        // EveryTime: initial sample + one per 0.01 boundary (steps clamp to
        // land exactly on the multiples).
        assert_eq!(sample_times.len(), 4, "samples at {sample_times:?}");
        for (i, t) in sample_times.iter().enumerate() {
            assert!((t - 0.01 * i as f64).abs() < 1e-12, "sample {i} at {t}");
        }
        // AtEnd: exactly once, flagged, at the target time.
        assert_eq!(end_frames.len(), 1);
        assert!(end_frames[0].1);
        assert!((end_frames[0].0 - 0.03).abs() < 1e-12);
        // EverySteps(2) fired at start plus every other step.
        assert!(step_fires >= 2);
        assert!((app.time() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn every_time_stays_on_the_absolute_grid_across_run_segments() {
        use crate::observer::{observe, Trigger};
        let mut app = AppBuilder::new()
            .conf_grid(&[0.0], &[1.0], &[2])
            .poly_order(1)
            .species(
                SpeciesSpec::new("e", -1.0, 1.0, &[-4.0], &[4.0], &[4])
                    .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
            )
            .field(FieldSpec::new(1.0))
            .build()
            .unwrap();
        app.set_fixed_dt(1e-3);
        let mut times = Vec::new();
        {
            let mut sampler = observe(Trigger::EveryTime(0.01), |fr| {
                times.push(fr.time);
                Ok(())
            });
            // Split one run at an off-grid point: the second segment must
            // keep sampling multiples of 0.01 (0.02, 0.03), not
            // start-relative times (0.025).
            app.run(0.015, &mut [&mut sampler]).unwrap();
            app.run(0.03, &mut [&mut sampler]).unwrap();
        }
        assert!(
            times.iter().any(|t| (t - 0.02).abs() < 1e-12),
            "missing on-grid sample at 0.02: {times:?}"
        );
        assert!(
            !times.iter().any(|t| (t - 0.025).abs() < 1e-12),
            "off-grid start-relative sample leaked in: {times:?}"
        );
    }

    #[test]
    fn run_rejects_bad_triggers_and_observer_errors_carry_names() {
        use crate::observer::{observe, Trigger};
        let build = || {
            AppBuilder::new()
                .conf_grid(&[0.0], &[1.0], &[2])
                .poly_order(1)
                .species(
                    SpeciesSpec::new("e", -1.0, 1.0, &[-4.0], &[4.0], &[4])
                        .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
                )
                .field(FieldSpec::new(1.0))
                .build()
                .unwrap()
        };
        let mut app = build();
        let mut bad = observe(Trigger::EveryTime(0.0), |_| Ok(()));
        assert!(matches!(
            app.run(0.01, &mut [&mut bad]),
            Err(Error::Build(_))
        ));

        let mut app = build();
        let mut failing = observe(Trigger::EverySteps(1), |_| {
            Err(Error::Io(std::io::Error::other("disk full")))
        })
        .named("ckpt");
        let err = app.run(0.01, &mut [&mut failing]).unwrap_err();
        match err {
            Error::Observer { name, message } => {
                assert_eq!(name, "ckpt");
                assert!(message.contains("disk full"));
            }
            other => panic!("expected Observer error, got {other:?}"),
        }
    }

    #[test]
    fn advance_by_termination_is_relative_not_absolute() {
        // At t_end ≈ 60 an absolute 1e-14 epsilon sits below one ulp of the
        // clock, which used to allow a spurious ulp-sized trailing step.
        // The relative tolerance must cover at least a few ulps there.
        let ulp60 = 60.0f64.next_up() - 60.0;
        assert!(super::end_tolerance(60.0) > 2.0 * ulp60);
        assert!(super::end_tolerance(0.02) < 1e-14);
        let mut app = AppBuilder::new()
            .conf_grid(&[0.0], &[1.0], &[2])
            .poly_order(1)
            .species(
                SpeciesSpec::new("e", -1.0, 1.0, &[-4.0], &[4.0], &[4])
                    .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
            )
            .field(FieldSpec::new(1.0))
            .build()
            .unwrap();
        app.set_fixed_dt(2e-3);
        app.advance_by(0.01).unwrap();
        let steps = app.steps_taken();
        assert_eq!(steps, 5, "exactly duration/dt steps, no trailing sliver");
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let build = |nv: usize| {
            AppBuilder::new()
                .conf_grid(&[0.0], &[1.0], &[2])
                .poly_order(1)
                .species(
                    SpeciesSpec::new("e", -1.0, 1.0, &[-4.0], &[4.0], &[nv])
                        .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
                )
                .field(FieldSpec::new(1.0))
                .build()
                .unwrap()
        };
        let donor = build(6);
        let mut app = build(4);
        let (_, state) = donor.into_parts();
        assert!(matches!(app.restore(state, 0.5), Err(Error::Build(_))));
        let twin = build(4);
        let (_, state) = twin.into_parts();
        app.restore(state, 0.5).unwrap();
        assert_eq!(app.time(), 0.5);
    }

    #[test]
    fn fixed_dt_is_respected() {
        let mut app = AppBuilder::new()
            .conf_grid(&[0.0], &[1.0], &[2])
            .poly_order(1)
            .species(
                SpeciesSpec::new("e", -1.0, 1.0, &[-4.0], &[4.0], &[4])
                    .initial(|_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
            )
            .field(FieldSpec::new(1.0))
            .build()
            .unwrap();
        app.set_fixed_dt(1e-4);
        let dt = app.step().unwrap();
        assert_eq!(dt, 1e-4);
        assert_eq!(app.steps_taken(), 1);
    }
}
