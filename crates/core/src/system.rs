//! The coupled Vlasov–Maxwell system.
//!
//! One [`VlasovMaxwell`] owns the phase-space discretization, the Maxwell
//! solver, and the species set, and evaluates the full coupled RHS: the
//! kinetic update for each species, the field update, and the current
//! (plus, with cleaning, charge) coupling — the complete per-stage work of
//! the paper's Table I measurement.

use crate::blocks::block_rhs;
use crate::error::Error;
use crate::lbo::LboOp;
use crate::moments::{accumulate_current, MomentScratch};
use crate::species::Species;
use crate::vlasov::{VlasovOp, VlasovWorkspace, WallAccum};
use dg_grid::{Bc, DgField, DimBc, PhaseGrid};
use dg_kernels::{KernelDispatch, PhaseKernels};
use dg_maxwell::MaxwellDg;
use dg_telemetry::{span, Collector, Counter, Phase};
use std::sync::Arc;

pub use crate::vlasov::FluxKind;

/// Per-wall channels of one species in *physical units*: the rate of
/// change (rates) or accumulated change (ledger totals) of the species'
/// particle count and kinetic energy attributable to each wall — the
/// same bucket container the sweep fills in basis units (see
/// [`WallAccum`]'s unit table).
pub type WallChannels = WallAccum;

/// Validate a per-dimension BC set against a phase grid: side pairing,
/// periodicity agreement with the domain topology, and the symmetric
/// velocity grid `Bc::Reflect` requires. `who` names the owner in errors.
pub fn validate_conf_bcs(grid: &PhaseGrid, bcs: &[DimBc], who: &str) -> Result<(), Error> {
    if bcs.len() != grid.cdim() {
        return Err(Error::Build(format!(
            "{who}: {} boundary-condition pairs for {} configuration dimensions",
            bcs.len(),
            grid.cdim()
        )));
    }
    for (d, bc) in bcs.iter().enumerate() {
        bc.validate()
            .map_err(|e| Error::Build(format!("{who}, dim {d}: {e}")))?;
        if bc.is_periodic() != grid.is_conf_periodic(d) {
            return Err(Error::Build(format!(
                "{who}, dim {d}: periodicity must match the domain topology \
                 (domain is {}periodic)",
                if grid.is_conf_periodic(d) { "" } else { "non-" }
            )));
        }
        if (bc.lower == Bc::Reflect || bc.upper == Bc::Reflect) && !grid.vel_symmetric(d) {
            return Err(Error::Build(format!(
                "{who}, dim {d}: Reflect requires a velocity grid symmetric about \
                 v = 0 in the paired dimension (got [{}, {}])",
                grid.vel.lower()[d],
                grid.vel.upper()[d]
            )));
        }
    }
    Ok(())
}

/// The dynamical state: one distribution function per species plus the EM
/// field. RK stages operate on whole states.
#[derive(Clone, Debug)]
pub struct SystemState {
    pub species_f: Vec<DgField>,
    pub em: DgField,
}

impl SystemState {
    pub fn axpy(&mut self, a: f64, rhs: &SystemState) {
        for (f, r) in self.species_f.iter_mut().zip(&rhs.species_f) {
            f.axpy(a, r);
        }
        self.em.axpy(a, &rhs.em);
    }

    pub fn lincomb(&mut self, a: f64, b: f64, other: &SystemState) {
        for (f, o) in self.species_f.iter_mut().zip(&other.species_f) {
            f.lincomb(a, b, o);
        }
        self.em.lincomb(a, b, &other.em);
    }

    pub fn fill(&mut self, v: f64) {
        for f in &mut self.species_f {
            f.fill(v);
        }
        self.em.fill(v);
    }

    pub fn copy_from(&mut self, other: &SystemState) {
        for (f, o) in self.species_f.iter_mut().zip(&other.species_f) {
            f.copy_from(o);
        }
        self.em.copy_from(&other.em);
    }

    /// `self = u + a·r`, one sweep per field ([`DgField::euler_from`]).
    pub fn euler_from(&mut self, u: &SystemState, a: f64, r: &SystemState) {
        for (f, (u, r)) in self
            .species_f
            .iter_mut()
            .zip(u.species_f.iter().zip(&r.species_f))
        {
            f.euler_from(u, a, r);
        }
        self.em.euler_from(&u.em, a, &r.em);
    }

    /// `self = b·(self + a·r) + c·u`, one sweep per field
    /// ([`DgField::euler_lincomb`]).
    pub fn euler_lincomb(&mut self, a: f64, r: &SystemState, b: f64, c: f64, u: &SystemState) {
        for (f, (r, u)) in self
            .species_f
            .iter_mut()
            .zip(r.species_f.iter().zip(&u.species_f))
        {
            f.euler_lincomb(a, r, b, c, u);
        }
        self.em.euler_lincomb(a, &r.em, b, c, &u.em);
    }

    /// `self = b·self + c·(s + a·r)`, one sweep per field, `s` untouched
    /// ([`DgField::lincomb_euler`]).
    pub fn lincomb_euler(&mut self, b: f64, c: f64, s: &SystemState, a: f64, r: &SystemState) {
        for (f, (s, r)) in self
            .species_f
            .iter_mut()
            .zip(s.species_f.iter().zip(&r.species_f))
        {
            f.lincomb_euler(b, c, s, a, r);
        }
        self.em.lincomb_euler(b, c, &s.em, a, &r.em);
    }
}

/// The coupled system (species parameters + operators; the dynamical data
/// lives in [`SystemState`] values owned by the stepper/App).
pub struct VlasovMaxwell {
    pub kernels: Arc<PhaseKernels>,
    pub grid: PhaseGrid,
    pub vlasov: VlasovOp,
    pub maxwell: MaxwellDg,
    pub species: Vec<Species>,
    /// Optional Dougherty-LBO collisions, per species (paper footnote 7).
    collisions: Vec<Option<LboOp>>,
    /// Evolve the EM field and couple currents (off = external fields only).
    evolve_field: bool,
    /// Feed `χ_e ρ/ε₀` to the cleaning potential φ.
    track_charge: bool,
    /// Uniform neutralizing background charge density (subtracted from the
    /// cleaning source; e.g. immobile ions under a mobile electron species).
    background_charge: f64,
    /// Per-species configuration-space BCs (default: the grid's domain
    /// BCs; overridable per species on non-periodic axes).
    species_bc: Vec<Vec<DimBc>>,
    /// Per-species wall-flux rates of the last RHS evaluation.
    wall_rates: Vec<WallChannels>,
    /// Per-species time-integrated wall-flux ledger (filled by the
    /// steppers with the SSP-RK3 stage weights).
    wall_totals: Vec<WallChannels>,
    /// Phase-cell mode-0 → particle-count conversion (shared by the wall
    /// ledger and `particle_numbers` so the balance invariant cannot
    /// drift between the two).
    phase_mode0_w: f64,
    /// Conf-cell `M2`-mode-0 → `∫ Σ v² · f` conversion (the ½m factor is
    /// applied per species).
    conf_mode0_w: f64,
    scratch_j: DgField,
    scratch_rho: DgField,
    /// Moment-reduction scratch, persistent so steady-state RHS evaluation
    /// allocates nothing.
    scratch_mom: MomentScratch,
    /// System-level telemetry writer (main thread, slot 0): RHS-eval
    /// counts and the wall-ledger phase. Noop unless the backend
    /// instruments the run.
    pub probe: Collector,
}

impl VlasovMaxwell {
    pub fn new(
        kernels: Arc<PhaseKernels>,
        grid: PhaseGrid,
        maxwell: MaxwellDg,
        species: Vec<Species>,
        flux: FluxKind,
    ) -> Self {
        let nconf = grid.conf.len();
        let nc = kernels.nc();
        let cdim = grid.cdim();
        let collisions = species.iter().map(|_| None).collect();
        let vlasov = VlasovOp::new(Arc::clone(&kernels), grid.clone(), flux);
        let species_bc = species.iter().map(|_| grid.conf_bc.clone()).collect();
        let wall_rates = species
            .iter()
            .map(|_| WallChannels::for_cdim(cdim))
            .collect();
        let wall_totals = species
            .iter()
            .map(|_| WallChannels::for_cdim(cdim))
            .collect();
        let phase_vol: f64 = grid.conf.dx().iter().chain(grid.vel.dx()).product();
        let conf_vol: f64 = grid.conf.dx().iter().product();
        let ndim = grid.ndim() as i32;
        let scratch_mom = MomentScratch::for_kernels(&kernels);
        VlasovMaxwell {
            kernels,
            grid,
            vlasov,
            maxwell,
            species,
            collisions,
            evolve_field: true,
            track_charge: true,
            background_charge: 0.0,
            species_bc,
            wall_rates,
            wall_totals,
            phase_mode0_w: phase_vol * (2.0f64).powi(-ndim).sqrt(),
            conf_mode0_w: conf_vol * (2.0f64).powi(-(cdim as i32)).sqrt(),
            scratch_j: DgField::zeros(nconf, 3 * nc),
            scratch_rho: DgField::zeros(nconf, nc),
            scratch_mom,
            probe: Collector::Noop,
        }
    }

    /// Point the system's main-thread telemetry (system probe, moment
    /// scratch, Maxwell operator, serial LBO scratches) at `collector` —
    /// called once by backend instrumentation. `BlockRhs` additionally
    /// instruments its per-block workspaces (slot 0 inline, their own
    /// slots on the pool).
    pub fn instrument(&mut self, collector: &Collector) {
        self.probe = collector.clone();
        self.scratch_mom.probe = collector.clone();
        self.maxwell.instrument(collector);
        for lbo in self.collisions.iter_mut().flatten() {
            lbo.instrument_scratch(collector);
        }
    }

    /// Force the kernel dispatch path (rebuilds the Vlasov operator and
    /// the moment scratch; the default from construction is
    /// [`KernelDispatch::Auto`]). Benches and equivalence tests use this
    /// to pin a path. Collision operators installed via
    /// [`Self::set_collisions`] carry their own resolved path — build them
    /// with `LboOp::with_dispatch` to force it (`AppBuilder` does).
    ///
    /// # Panics
    ///
    /// When forcing [`KernelDispatch::Generated`] for a configuration with
    /// no generated kernel (see `dg_kernels::dispatch`).
    pub fn set_kernel_dispatch(&mut self, dispatch: KernelDispatch) {
        self.vlasov = VlasovOp::with_dispatch(
            Arc::clone(&self.kernels),
            self.grid.clone(),
            self.vlasov.flux,
            dispatch,
        );
        self.scratch_mom = MomentScratch::with_dispatch(&self.kernels, dispatch);
    }

    /// Install per-species collision operators (one slot per species, in
    /// species order; `None` = collisionless).
    ///
    /// # Panics
    ///
    /// When `collisions.len()` differs from the species count.
    pub fn set_collisions(&mut self, collisions: Vec<Option<LboOp>>) {
        assert_eq!(
            collisions.len(),
            self.species.len(),
            "one collision slot per species"
        );
        self.collisions = collisions;
    }

    /// Per-species collision operators (species order).
    pub fn collisions(&self) -> &[Option<LboOp>] {
        &self.collisions
    }

    /// The kernel entry points each operator of this system resolved
    /// (`vlasov <tags>`, then `lbo <tag>` when a species collides) — for
    /// run reports and bench output.
    pub fn kernel_entry_points(&self) -> String {
        let mut s = format!("vlasov {}", self.vlasov.kernel_entry_points());
        if let Some(lbo) = self.collisions.iter().flatten().next() {
            s.push_str(", lbo ");
            s.push_str(lbo.kernel_entry_points());
        }
        s
    }

    /// Evolve the EM field and couple currents (off = external fields only).
    pub fn set_evolve_field(&mut self, evolve: bool) {
        self.evolve_field = evolve;
    }

    /// Whether the EM field is evolved and currents are coupled.
    pub fn evolve_field(&self) -> bool {
        self.evolve_field
    }

    /// Feed `χ_e ρ/ε₀` to the divergence-cleaning potential φ.
    pub fn set_track_charge(&mut self, track: bool) {
        self.track_charge = track;
    }

    /// Whether the charge density feeds the cleaning potential.
    pub fn track_charge(&self) -> bool {
        self.track_charge
    }

    /// Uniform neutralizing background charge density (subtracted from the
    /// cleaning source; e.g. immobile ions under a mobile electron species).
    pub fn set_background_charge(&mut self, rho: f64) {
        self.background_charge = rho;
    }

    /// The neutralizing background charge density.
    pub fn background_charge(&self) -> f64 {
        self.background_charge
    }

    /// Override the configuration-space BCs of one species (per dimension,
    /// per side). Periodicity must match the domain topology — overrides
    /// change the wall flavor, never the connectivity — and `Reflect`
    /// requires a velocity grid symmetric about `v = 0` in the paired
    /// dimension.
    pub fn set_conf_bcs(&mut self, species: usize, bcs: Vec<DimBc>) -> Result<(), Error> {
        if species >= self.species.len() {
            return Err(Error::Build(format!(
                "set_conf_bcs: no species with index {species}"
            )));
        }
        let who = format!("species {:?}", self.species[species].name);
        validate_conf_bcs(&self.grid, &bcs, &who)?;
        self.species_bc[species] = bcs;
        Ok(())
    }

    /// The configuration-space BCs of one species.
    pub fn conf_bcs(&self, species: usize) -> &[DimBc] {
        &self.species_bc[species]
    }

    /// Per-species wall-flux rates of the last RHS evaluation (physical
    /// units; negative = the domain is losing content through that wall).
    pub fn wall_rates(&self) -> &[WallChannels] {
        &self.wall_rates
    }

    /// Per-species time-integrated wall-flux ledger: the accumulated mass
    /// and energy change of the domain attributable to each wall since the
    /// start of the run (or the last [`VlasovMaxwell::reset_wall_ledger`]).
    /// With absorbing walls, a species' total mass change equals its
    /// ledger's [`WallAccum::net_mass`] to round-off.
    ///
    /// Decomposition note: the *state* is bit-identical at every
    /// `ranks × threads` unconditionally; the ledger is additionally
    /// bit-identical for dim-0 walls (each owned whole by one edge block —
    /// every 1D configuration qualifies, asserted in
    /// `tests/decomposition/mod.rs`). Walls of higher configuration
    /// directions are split across blocks, so their ledger entries agree
    /// with one block to round-off rather than to the bit.
    pub fn wall_totals(&self) -> &[WallChannels] {
        &self.wall_totals
    }

    /// Fold the last RHS evaluation's wall rates into the ledger with
    /// weight `w` (the steppers call this once per RK stage with
    /// `stage weight × dt`).
    pub fn integrate_wall_ledger(&mut self, w: f64) {
        span!(self.probe, Phase::Ledger);
        for (tot, rate) in self.wall_totals.iter_mut().zip(&self.wall_rates) {
            tot.axpy(w, rate);
        }
    }

    /// Zero the time-integrated wall ledger.
    pub fn reset_wall_ledger(&mut self) {
        for tot in &mut self.wall_totals {
            tot.reset();
        }
    }

    /// Convert a sweep's raw wall accumulators into this species' physical
    /// wall rates — the hook execution engines (`dg-parallel`) use after
    /// reducing their per-rank partial sums.
    pub fn record_wall_rates(&mut self, species: usize, accum: &WallAccum) {
        span!(self.probe, Phase::Ledger);
        let half_m = 0.5 * self.species[species].mass;
        let rates = &mut self.wall_rates[species];
        for (d, (mr, er)) in rates
            .mass
            .iter_mut()
            .zip(rates.energy.iter_mut())
            .enumerate()
        {
            for side in 0..2 {
                mr[side] = accum.mass[d][side] * self.phase_mode0_w;
                er[side] = half_m * accum.energy[d][side] * self.conf_mode0_w;
            }
        }
    }

    /// A zeroed state with this system's shape.
    pub fn new_state(&self) -> SystemState {
        SystemState {
            species_f: self
                .species
                .iter()
                .map(|s| DgField::zeros(s.f.ncells(), s.f.ncoeff()))
                .collect(),
            em: self.maxwell.new_field(),
        }
    }

    /// Build the initial state from the species' projected distributions and
    /// a given initial EM field.
    pub fn initial_state(&self, em: DgField) -> SystemState {
        SystemState {
            species_f: self.species.iter().map(|s| s.f.clone()).collect(),
            em,
        }
    }

    /// Evaluate the full coupled RHS at `state` into `out` (zeroed here).
    pub fn rhs(&mut self, state: &SystemState, out: &mut SystemState, ws: &mut VlasovWorkspace) {
        self.probe.count(Counter::RhsEvals, 1);
        out.em.fill(0.0);
        // Kinetic updates: the whole domain as one cell block (per-species
        // BCs; the sweep fills the workspace wall ledger, harvested right
        // after).
        let domain = 0..self.grid.conf.cells()[0];
        for s in 0..self.species.len() {
            let qm = self.species[s].qm();
            let (f, em, out_f) = (&state.species_f[s], &state.em, &mut out.species_f[s]);
            let (op, bcs, block) = (&self.vlasov, &self.species_bc[s], domain.clone());
            match self.collisions[s].as_mut() {
                Some(lbo) => lbo.with_serial_scratch(|lbo, lws| {
                    block_rhs(op, block, qm, f, em, out_f, ws, bcs, Some((lbo, lws)))
                }),
                None => block_rhs(op, block, qm, f, em, out_f, ws, bcs, None),
            }
            self.record_wall_rates(s, &ws.wall);
        }
        self.field_rhs(state, out);
    }

    /// The field half of [`VlasovMaxwell::rhs`]: Maxwell RHS plus the
    /// moment-coupled current/charge sources — the one field coupling of
    /// every driver ([`crate::blocks::BlockRhs`] runs its species sweep,
    /// then this).
    pub fn field_rhs(&mut self, state: &SystemState, out: &mut SystemState) {
        let nconf = self.grid.conf.len();
        if self.evolve_field {
            self.maxwell.rhs(&state.em, &mut out.em);
            self.scratch_j.fill(0.0);
            self.scratch_rho.fill(0.0);
            for (s, sp) in self.species.iter().enumerate() {
                accumulate_current(
                    &self.kernels,
                    &self.grid,
                    sp.charge,
                    &state.species_f[s],
                    &mut self.scratch_j,
                    if self.track_charge {
                        Some(&mut self.scratch_rho)
                    } else {
                        None
                    },
                    0..nconf,
                    &mut self.scratch_mom,
                );
            }
            if self.track_charge && self.background_charge != 0.0 {
                let c0 = dg_basis::expand::const_coeff(&self.kernels.conf_basis);
                for c in 0..nconf {
                    self.scratch_rho.cell_mut(c)[0] -= self.background_charge * c0;
                }
            }
            self.maxwell.add_sources(
                &self.scratch_j,
                if self.track_charge {
                    Some(&self.scratch_rho)
                } else {
                    None
                },
                &mut out.em,
            );
        }
    }

    /// Particle kinetic energy summed over species.
    pub fn particle_energy(&self, state: &SystemState) -> f64 {
        self.species
            .iter()
            .enumerate()
            .map(|(s, sp)| {
                crate::moments::kinetic_energy(
                    &self.kernels,
                    &self.grid,
                    sp.mass,
                    &state.species_f[s],
                )
            })
            .sum()
    }

    /// EM field energy.
    pub fn field_energy(&self, state: &SystemState) -> f64 {
        dg_maxwell::energy::em_energy(&self.maxwell, &state.em)
    }

    /// Total particle count, per species (the same mode-0 weight the wall
    /// ledger converts with, so the balance invariant is exact by
    /// construction).
    pub fn particle_numbers(&self, state: &SystemState) -> Vec<f64> {
        let w = self.phase_mode0_w;
        state
            .species_f
            .iter()
            .map(|f| (0..f.ncells()).map(|c| f.cell(c)[0]).sum::<f64>() * w)
            .collect()
    }

    /// Current-density field of the last RHS evaluation (diagnostics: the
    /// `J_h · E_h` energy-exchange analysis of the paper).
    pub fn last_current(&self) -> &DgField {
        &self.scratch_j
    }
}
