//! The traced run: per-layer numbers measured from outside, once per
//! workload, never in the timed runs.
//!
//! Two halves. **Replica step:** on the workload's own built system and
//! state the harness performs 20 SSP-RK3 steps itself, calling the
//! layers' public functions in `VlasovMaxwell::rhs` order with a span
//! around each, and checks the result bit-for-bit against
//! `App::step_dt` — so the decomposition is provably the program's own
//! computation. **Boundary spans:** around set-up, the real
//! `SspRk3::step` / `VlasovMaxwell::rhs`, the two other RHS drivers,
//! `App::run` with every observer, snapshot IO and the ensemble.

use crate::checks::{kinetic_dof, state_hash, Fnv};
use crate::child::{bare_job, build_app, energy_row, Repeat, ScratchDir};
use crate::json;
use crate::run::Dirs;
use crate::spans::{scope, SharedTracer, Tracer};
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, percentile, sorted};
use crate::workloads::{self as wl, Problem, Scale};
use dg_core::app::App;
use dg_core::blocks::BlockRhs;
use dg_core::cfl::suggest_dt;
use dg_core::lbo::LboScratch;
use dg_core::moments::{accumulate_current, MomentScratch};
use dg_core::observer::{observe, Frame, Observer, Trigger};
use dg_core::ssprk::{SspRk3, STAGE_WEIGHTS};
use dg_core::vlasov::VlasovWorkspace;
use dg_core::{Error, Species, SystemState, VlasovMaxwell};
use dg_diag::{snapshot, Checkpoint, CsvSeries, EnergyHistory};
use dg_ensemble::Ensemble;
use dg_grid::DgField;
use dg_kernels::dispatch::{find_surface_kernel, find_volume_kernel};
use dg_kernels::kernels_for;
use dg_parallel::ParVlasovMaxwell;
use dg_telemetry::{Collector, Phase, Snapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Replica steps per traced run (each checked against `App::step_dt`).
const REPLICA_STEPS: usize = 20;
/// Span names of the replica step, outermost first.
const STEP: &str = "dg_core.ssprk.step";
const RHS: &str = "dg_core.system.rhs";
const VOLUME: &str = "dg_core.vlasov.volume";
const SURF_CONF: &str = "dg_core.vlasov.surface_config";
const SURF_VEL: &str = "dg_core.vlasov.surface_velocity";
const LBO: &str = "dg_core.lbo.accumulate_rhs";
const MAXWELL_RHS: &str = "dg_maxwell.rhs";
const CURRENT: &str = "dg_core.moments.accumulate_current";
const ADD_SOURCES: &str = "dg_maxwell.add_sources";
const COPY: &str = "dg_grid.copy_from";
const AXPY: &str = "dg_grid.axpy";
const LINCOMB: &str = "dg_grid.lincomb";
const MAX_ABS: &str = "dg_grid.max_abs";
const SUGGEST_DT: &str = "dg_core.cfl.suggest_dt";
/// The spans under [`STEP`] that are a named layer (everything else is
/// the step's or the RHS's own fill/ledger/dispatch time).
const LAYER_LEAVES: [&str; 10] = [
    VOLUME,
    SURF_CONF,
    SURF_VEL,
    LBO,
    MAXWELL_RHS,
    CURRENT,
    ADD_SOURCES,
    COPY,
    AXPY,
    LINCOMB,
];

pub struct TraceReport {
    pub workload: &'static str,
    values: BTreeMap<&'static str, f64>,
    /// Ladder gaps beyond tolerance and other things worth a look.
    notes: Vec<String>,
    failures: Vec<String>,
    ops_attempted: u64,
    span_file: Option<PathBuf>,
}

impl TraceReport {
    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.values.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The driver's last line for `--trace 1`: every per-layer metric by
    /// name; one that does not apply to this workload reads 0.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name), m.unit))
            .collect();
        json::driver_line(
            self.correct(),
            self.ops_attempted.max(1),
            self.failures.len() as u64,
            &metrics,
        )
    }

    /// `step_ms_p95` comes from one plain, untraced repeat of the workload
    /// (a 200-step tail cannot come out of 20 replica steps).
    pub fn set_untraced_tail(&mut self, repeat: Result<Repeat, String>) {
        match repeat {
            Ok(r) => {
                self.set(spec::STEP_MS_P95, r.step_ms_p95);
                self.ops_attempted += r.ops_attempted;
                self.failures.extend(r.failures);
            }
            Err(e) => self.failures.push(e),
        }
    }

    pub fn print(&self) {
        println!("\ntrace {}", self.workload);
        for m in PER_LAYER {
            match self.values.get(m.name) {
                Some(v) => println!("  {:<46} {:>14.6e} {}", m.name, v, m.unit),
                None => println!("  {:<46} {:>14} {}", m.name, "n/a", m.unit),
            }
        }
        for n in &self.notes {
            println!("  NOTE: {n}");
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        if let Some(p) = &self.span_file {
            println!("  spans: {}", p.display());
        }
    }
}

/// Run `f` under a span and return its duration with the result.
fn scope_ns<R>(tr: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let idx = tr.borrow_mut().enter(name);
    let out = f();
    let mut t = tr.borrow_mut();
    t.exit(idx);
    (out, t.spans()[idx].dur_ns() as f64)
}

/// Fastest of `reps` spanned calls, in nanoseconds.
fn min_ns(tr: &SharedTracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| scope_ns(tr, name, &mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// Observer adaptor: a span around every firing of `inner`.
pub struct Traced<O> {
    inner: O,
    name: &'static str,
    tr: SharedTracer,
}

impl<O> Traced<O> {
    fn new(inner: O, name: &'static str, tr: &SharedTracer) -> Self {
        Traced {
            inner,
            name,
            tr: tr.clone(),
        }
    }
}

impl<O: Observer> Observer for Traced<O> {
    fn trigger(&self) -> Trigger {
        self.inner.trigger()
    }

    fn observe(&mut self, frame: &Frame<'_>) -> Result<(), Error> {
        scope(&self.tr, self.name, || self.inner.observe(frame))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Harness-owned scratch for the replica RHS (the system keeps its own
/// private; the values never meet, only the arithmetic is the same).
struct RhsScratch {
    ws: VlasovWorkspace,
    lbo: Vec<Option<LboScratch>>,
    mom: MomentScratch,
    j: DgField,
    rho: DgField,
}

impl RhsScratch {
    fn new(system: &VlasovMaxwell) -> Self {
        let (nconf, nc) = (system.grid.conf.len(), system.kernels.nc());
        RhsScratch {
            ws: VlasovWorkspace::for_kernels(&system.kernels),
            lbo: system
                .collisions()
                .iter()
                .map(|c| c.as_ref().map(|op| op.make_scratch()))
                .collect(),
            mom: MomentScratch::for_kernels(&system.kernels),
            j: DgField::zeros(nconf, 3 * nc),
            rho: DgField::zeros(nconf, nc),
        }
    }

    /// Point the program's own phase timers at `collector`, so its
    /// telemetry and the harness spans describe the same calls.
    fn instrument(&mut self, collector: &Collector) {
        self.ws.probe = collector.clone();
        self.mom.probe = collector.clone();
        for s in self.lbo.iter_mut().flatten() {
            s.instrument(collector);
        }
    }
}

/// `VlasovMaxwell::rhs`, performed call by call from outside.
fn replica_rhs(
    tr: &SharedTracer,
    system: &mut VlasovMaxwell,
    sc: &mut RhsScratch,
    state: &SystemState,
    out: &mut SystemState,
) {
    let rhs_span = tr.borrow_mut().enter(RHS);
    out.fill(0.0);
    let nconf = system.grid.conf.len();
    for s in 0..system.species.len() {
        let qm = system.species[s].qm();
        let (f, em) = (&state.species_f[s], &state.em);
        let out_f = &mut out.species_f[s];
        sc.ws.wall.reset();
        scope(tr, VOLUME, || {
            system.vlasov.volume(qm, f, em, out_f, &mut sc.ws, 0..nconf)
        });
        for d in 0..system.grid.cdim() {
            let bc = system.conf_bcs(s)[d];
            scope(tr, SURF_CONF, || {
                system
                    .vlasov
                    .surface_config(d, f, out_f, &mut sc.ws, 0..nconf, bc)
            });
        }
        scope(tr, SURF_VEL, || {
            system
                .vlasov
                .surface_velocity(qm, f, em, out_f, &mut sc.ws, 0..nconf)
        });
        if let (Some(op), Some(lws)) = (system.collisions()[s].as_ref(), sc.lbo[s].as_mut()) {
            scope(tr, LBO, || op.accumulate_rhs_range(f, out_f, lws, 0..nconf));
        }
        system.record_wall_rates(s, &sc.ws.wall);
    }
    if system.evolve_field() {
        scope(tr, MAXWELL_RHS, || {
            system.maxwell.rhs(&state.em, &mut out.em)
        });
        sc.j.fill(0.0);
        sc.rho.fill(0.0);
        let track = system.track_charge();
        for (s, sp) in system.species.iter().enumerate() {
            scope(tr, CURRENT, || {
                accumulate_current(
                    &system.kernels,
                    &system.grid,
                    sp.charge,
                    &state.species_f[s],
                    &mut sc.j,
                    track.then_some(&mut sc.rho),
                    0..nconf,
                    &mut sc.mom,
                )
            });
        }
        if track && system.background_charge() != 0.0 {
            let c0 = dg_basis::expand::const_coeff(&system.kernels.conf_basis);
            for c in 0..nconf {
                sc.rho.cell_mut(c)[0] -= system.background_charge() * c0;
            }
        }
        scope(tr, ADD_SOURCES, || {
            system
                .maxwell
                .add_sources(&sc.j, track.then_some(&sc.rho), &mut out.em)
        });
    }
    tr.borrow_mut().exit(rhs_span);
}

/// `SspRk3::step` followed by `App::step_dt`'s blow-up guard, call by
/// call. Returns whether the guard saw a finite state.
fn replica_step(
    tr: &SharedTracer,
    system: &mut VlasovMaxwell,
    sc: &mut RhsScratch,
    stage: &mut SystemState,
    rhs: &mut SystemState,
    state: &mut SystemState,
    dt: f64,
) -> bool {
    let step_span = tr.borrow_mut().enter(STEP);
    replica_rhs(tr, system, sc, state, rhs);
    system.integrate_wall_ledger(STAGE_WEIGHTS[0] * dt);
    scope(tr, COPY, || stage.copy_from(state));
    scope(tr, AXPY, || stage.axpy(dt, rhs));
    replica_rhs(tr, system, sc, stage, rhs);
    system.integrate_wall_ledger(STAGE_WEIGHTS[1] * dt);
    scope(tr, AXPY, || stage.axpy(dt, rhs));
    scope(tr, LINCOMB, || stage.lincomb(0.25, 0.75, state));
    replica_rhs(tr, system, sc, stage, rhs);
    system.integrate_wall_ledger(STAGE_WEIGHTS[2] * dt);
    scope(tr, AXPY, || stage.axpy(dt, rhs));
    scope(tr, LINCOMB, || state.lincomb(1.0 / 3.0, 2.0 / 3.0, stage));
    tr.borrow_mut().exit(step_span);
    scope(tr, MAX_ABS, || max_abs_guard(state))
}

fn max_abs_guard(state: &SystemState) -> bool {
    state.species_f.iter().all(|f| f.max_abs().is_finite()) && state.em.max_abs().is_finite()
}

fn state_len(state: &SystemState) -> f64 {
    (kinetic_dof(state) + state.em.ncells() * state.em.ncoeff()) as f64
}

/// Everything the passes below share.
struct Ctx<'a> {
    tr: SharedTracer,
    p: &'a Problem,
    rep: TraceReport,
    scratch: PathBuf,
    root: PathBuf,
}

pub fn trace_workload(dirs: &Dirs, workload: &'static str, seed: u64, scale: Scale) -> TraceReport {
    let rep = TraceReport {
        workload,
        values: BTreeMap::new(),
        notes: Vec::new(),
        failures: Vec::new(),
        ops_attempted: 0,
        span_file: None,
    };
    let scratch = match ScratchDir::new(&dirs.out, &format!("trace-{workload}")) {
        Ok(s) => s,
        Err(e) => {
            let mut rep = rep;
            rep.failures.push(format!("cannot create scratch dir: {e}"));
            return rep;
        }
    };
    let p = wl::problem(workload, seed, scale);
    let mut cx = Ctx {
        tr: Rc::new(RefCell::new(Tracer::default())),
        p: &p,
        rep,
        scratch: scratch.0.clone(),
        root: dirs.root.clone(),
    };
    let root_span = cx.tr.borrow_mut().enter("trace");
    if let Err(e) = single_app_layers(&mut cx) {
        cx.rep.failures.push(format!("traced run stopped: {e}"));
    }
    if workload == spec::ENSEMBLE {
        if let Err(e) = ensemble_layers(&mut cx, seed, scale) {
            cx.rep.failures.push(format!("ensemble trace stopped: {e}"));
        }
    }
    cx.tr.borrow_mut().exit(root_span);
    let path = dirs.out.join(format!("trace-{workload}.json"));
    match cx.tr.borrow().write_json(&path, workload) {
        Ok(()) => cx.rep.span_file = Some(path),
        Err(e) => cx
            .rep
            .failures
            .push(format!("writing {}: {e}", path.display())),
    }
    cx.rep
}

fn single_app_layers(cx: &mut Ctx<'_>) -> Result<(), Error> {
    let tr = cx.tr.clone();
    let p = cx.p;

    // ---- set-up boundary spans -------------------------------------
    // First call in this process: the tables are built, not fetched.
    let (_, ns) = scope_ns(&tr, "dg_kernels.kernels_for", || {
        kernels_for(dg_basis::BasisKind::Serendipity, p.layout, 2)
    });
    cx.rep.set("dg_kernels.kernels_for_s", ns * 1e-9);
    let (app, ns) = scope_ns(&tr, "dg_core.app.build", || build_app(p));
    let mut app = app?;
    cx.rep.set("dg_core.app.build_s", ns * 1e-9);
    {
        let sys = app.system();
        let mut sp = Species::new("probe", -1.0, 1.0, &sys.grid, sys.kernels.np());
        let mut ic = (p.ic0)();
        let (_, ns) = scope_ns(&tr, "dg_core.species.project_initial", || {
            sp.project_initial(&sys.kernels, &sys.grid, 5, &mut ic)
        });
        cx.rep.set("dg_core.species.project_initial_s", ns * 1e-9);
    }
    let state0 = app.state().clone();
    let dof = kinetic_dof(&state0) as f64;

    // ---- the program's own steps: App::step_dt on the twin -----------
    let mut dts = Vec::with_capacity(REPLICA_STEPS);
    let mut twin_hashes = Vec::with_capacity(REPLICA_STEPS);
    let mut step_dt_ns = Vec::with_capacity(REPLICA_STEPS);
    for _ in 0..REPLICA_STEPS {
        let dt = app.suggest_dt();
        let (res, ns) = scope_ns(&tr, "dg_core.app.step_dt", || app.step_dt(dt));
        res?;
        dts.push(dt);
        step_dt_ns.push(ns);
        twin_hashes.push(state_hash(app.state()));
    }
    let step_dt_min = sorted(step_dt_ns.clone())[0];
    cx.rep
        .set("dg_core.app.step_dt_ns_per_dof", step_dt_min / dof);

    // ---- telemetry on vs off, interleaved windows --------------------
    let mut tel_app = scope(&tr, "dg_core.app.build(telemetry)", || {
        (p.builder)().telemetry(true).build()
    })?;
    if let Some(dt) = p.fixed_dt {
        tel_app.set_fixed_dt(dt);
    }
    let (mut off_min, mut on_min) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..4 {
        for _ in 0..4 {
            let dt = app.suggest_dt();
            let (r, ns) = scope_ns(&tr, "dg_core.app.step_dt", || app.step_dt(dt));
            r?;
            off_min = off_min.min(ns);
        }
        for _ in 0..4 {
            let dt = tel_app.suggest_dt();
            let (r, ns) = scope_ns(&tr, "dg_core.app.step_dt(telemetry)", || {
                tel_app.step_dt(dt)
            });
            r?;
            on_min = on_min.min(ns);
        }
    }
    cx.rep.set(
        "dg_telemetry.collection_overhead_frac",
        (on_min - off_min) / off_min,
    );

    // ---- App::run with every observer traced -------------------------
    observer_layers(cx, &mut app, step_dt_min)?;

    // ---- replica steps vs the twin, bit for bit ----------------------
    let (mut system, _) = app.into_parts();
    let mut sc = RhsScratch::new(&system);
    let (mut stage, mut rhs) = (system.new_state(), system.new_state());
    let mut state = state0.clone();
    let mut identical = 0;
    // The real `SspRk3::step` and `VlasovMaxwell::rhs` run right after
    // each replica step, so all three meet the same host conditions and
    // can be compared step by step.
    let mut stepper = SspRk3::new(&system);
    let mut real_state = state0.clone();
    let mut out = system.new_state();
    let mut real = RealTimes::default();
    for (k, &dt) in dts.iter().enumerate() {
        tr.borrow_mut().set_id(1 + k as u64);
        if p.fixed_dt.is_none() {
            let (got, _) = scope_ns(&tr, SUGGEST_DT, || suggest_dt(&system, &state, p.cfl));
            if got.to_bits() != dt.to_bits() {
                cx.rep.failures.push(format!(
                    "step {k}: cfl::suggest_dt gave {got:e}, App::suggest_dt {dt:e}"
                ));
            }
        }
        let finite = replica_step(
            &tr,
            &mut system,
            &mut sc,
            &mut stage,
            &mut rhs,
            &mut state,
            dt,
        );
        identical += usize::from(finite && state_hash(&state) == twin_hashes[k]);
        let (_, ns) = scope_ns(&tr, "dg_core.ssprk.step(real)", || {
            stepper.step(&mut system, &mut real_state, dt)
        });
        real.step_ns.push(ns);
        let (_, ns) = scope_ns(&tr, "dg_core.system.rhs(real)", || {
            system.rhs(&state, &mut out, &mut stepper.ws)
        });
        real.rhs_ns.push(ns);
    }
    tr.borrow_mut().set_id(0);
    cx.rep.ops_attempted += REPLICA_STEPS as u64;
    if identical != REPLICA_STEPS {
        cx.rep.failures.push(format!(
            "replica step bit-identical to App::step_dt on {identical} of {REPLICA_STEPS} steps"
        ));
    }
    if state_hash(&real_state) != twin_hashes[REPLICA_STEPS - 1] {
        cx.rep
            .failures
            .push("SspRk3::step diverged from App::step_dt".to_string());
    }
    ladder(cx, dof, &state, &real);

    // ---- the other two RHS drivers -------------------------------------
    // `out` still holds the serial RHS of `state`; block and rank
    // decompositions are execution policy and must reproduce its bits.
    let serial_rhs = state_hash(&out);
    let mut same_bits = |driver: &str, out: &SystemState| {
        if state_hash(out) != serial_rhs {
            cx.rep.failures.push(format!(
                "{driver} is not bit-identical to VlasovMaxwell::rhs"
            ));
        }
    };
    let mut t1 = BlockRhs::new(&system, 1, 1);
    let t1_ns = min_ns(&tr, "dg_core.blocks.rhs(t1)", 5, || {
        t1.rhs(&mut system, &state, &mut out)
    });
    same_bits("BlockRhs::rhs at 1 thread", &out);
    let mut t2 = BlockRhs::new(&system, 1, 2);
    let t2_ns = min_ns(&tr, "dg_core.blocks.rhs(t2)", 5, || {
        t2.rhs(&mut system, &state, &mut out)
    });
    same_bits("BlockRhs::rhs at 2 threads", &out);
    drop((t1, t2));
    let mut par = ParVlasovMaxwell::new(system, 2, 1);
    let r2_ns = min_ns(&tr, "dg_parallel.rhs(r2)", 5, || par.rhs(&state, &mut out));
    same_bits("ParVlasovMaxwell::rhs at 2 ranks", &out);
    cx.rep.set("dg_core.blocks.rhs_ns_per_dof_t1", t1_ns / dof);
    cx.rep.set("dg_core.blocks.rhs_ns_per_dof_t2", t2_ns / dof);
    cx.rep.set("dg_core.blocks.speedup_t2", t1_ns / t2_ns);
    cx.rep.set("dg_parallel.rhs_ns_per_dof_r2", r2_ns / dof);
    let system = par.system;

    // ---- small layers, called directly --------------------------------
    micro_layers(cx, &system, &state, &mut stage, dof);

    // ---- the program's telemetry against the outside view ---------------
    telemetry_agreement(cx, tel_app);
    Ok(())
}

/// Durations of the real `SspRk3::step` / `VlasovMaxwell::rhs` calls, one
/// per replica step, in step order.
#[derive(Default)]
struct RealTimes {
    step_ns: Vec<f64>,
    rhs_ns: Vec<f64>,
}

/// Ladder rows from the quietest replica step, and the reconciliation of
/// the replica with the real `SspRk3::step` / `VlasovMaxwell::rhs`.
fn ladder(cx: &mut Ctx<'_>, dof: f64, state: &SystemState, real: &RealTimes) {
    let tr = cx.tr.clone();
    let t = tr.borrow();
    let ids: Vec<u64> = (1..=REPLICA_STEPS as u64).collect();
    let step_of = |id: u64| t.total_ns(STEP, id) as f64;
    let stage_of =
        |id: u64| (t.total_ns(COPY, id) + t.total_ns(AXPY, id) + t.total_ns(LINCOMB, id)) as f64;
    let quiet = *ids
        .iter()
        .min_by(|a, b| step_of(**a).total_cmp(&step_of(**b)))
        .expect("replica steps were taken");
    let total = |name| t.total_ns(name, quiet) as f64;
    let step = step_of(quiet);
    let evals = 3.0 * dof;

    let rep = &mut cx.rep;
    rep.set("dg_core.vlasov.volume_ns_per_dof", total(VOLUME) / evals);
    rep.set(
        "dg_core.vlasov.surface_config_ns_per_dof",
        total(SURF_CONF) / evals,
    );
    rep.set(
        "dg_core.vlasov.surface_velocity_ns_per_dof",
        total(SURF_VEL) / evals,
    );
    if total(LBO) > 0.0 {
        // No LBO span means no colliding species: n/a, not "free".
        rep.set("dg_core.lbo.rhs_ns_per_dof", total(LBO) / evals);
    }
    rep.set("dg_core.moments.current_ns_per_dof", total(CURRENT) / evals);
    let conf_dof = (state.em.ncells() * state.em.ncoeff()) as f64;
    rep.set(
        "dg_maxwell.rhs_ns_per_conf_dof",
        total(MAXWELL_RHS) / (3.0 * conf_dof),
    );
    rep.set("dg_maxwell.add_sources_ns", total(ADD_SOURCES) / 3.0);
    rep.set(
        "dg_core.system.rhs_self_frac",
        t.total_self_ns(RHS, quiet) as f64 / total(RHS),
    );
    rep.set("dg_grid.stage_ops_ns_per_dof", stage_of(quiet) / dof);
    rep.set(
        "dg_core.ssprk.step_overhead_frac",
        (step - total(RHS) - stage_of(quiet)) / step,
    );
    if cx.p.fixed_dt.is_none() {
        rep.set("dg_core.cfl.suggest_dt_ns_per_dof", total(SUGGEST_DT) / dof);
    }
    rep.set("dg_grid.max_abs_ns_per_dof", total(MAX_ABS) / dof);
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    rep.set("dg_core.system.rhs_ns_per_dof", fastest(&real.rhs_ns) / dof);
    rep.set(
        "dg_core.ssprk.step_ns_per_dof",
        fastest(&real.step_ns) / dof,
    );

    // Reconciliation, step by step (neighbours in time share the host's
    // mood), median over the steps. Every nanosecond of a replica step is
    // some span's self time, so the ladder closes when the replica costs
    // what the real step costs; what no named layer covers is shown as
    // `unattributed_frac`, not hidden.
    let per_step = |f: &dyn Fn(usize, u64) -> f64| {
        median(
            &ids.iter()
                .enumerate()
                .map(|(k, &id)| f(k, id))
                .collect::<Vec<_>>(),
        )
    };
    let replica_vs_real = per_step(&|k, id| (step_of(id) - real.step_ns[k]) / real.step_ns[k]);
    let rungs = per_step(&|k, id| {
        (3.0 * real.rhs_ns[k] + stage_of(id) - real.step_ns[k]) / real.step_ns[k]
    });
    let attributed: f64 = LAYER_LEAVES.iter().map(|n| total(*n)).sum();
    rep.set("ladder.replica_vs_real_frac", replica_vs_real);
    rep.set("ladder.rhs3_plus_stage_vs_step_frac", rungs);
    rep.set("ladder.unattributed_frac", (step - attributed) / step);
    if replica_vs_real.abs() > 0.03 {
        rep.notes.push(format!(
            "ladder: replica step is {:+.1} % off the real SspRk3::step (tolerance 3 %)",
            100.0 * replica_vs_real
        ));
    }
    if rungs.abs() > 0.05 {
        rep.notes.push(format!(
            "ladder: 3 x rhs + stage ops is {:+.1} % off the real SspRk3::step (tolerance 5 %)",
            100.0 * rungs
        ));
    }
    // What recording ~60 spans a step costs the step.
    let replica_p50 = per_step(&|_, id| step_of(id));
    let real_p50 = median(&real.step_ns);
    rep.set("trace.overhead_frac", (replica_p50 - real_p50) / real_p50);
}

/// `App::run` for a few steps with the IO workload's observer set, each
/// observer under its own span; then the snapshot format and file paths.
fn observer_layers(cx: &mut Ctx<'_>, app: &mut App, step_dt_min: f64) -> Result<(), Error> {
    const RUN_STEPS: usize = 20;
    const CKPT_EVERY: usize = 5;
    let tr = cx.tr.clone();
    let mut history = Traced::new(EnergyHistory::new(), "dg_diag.energy_history", &tr);
    let mut csv = Traced::new(
        CsvSeries::create(
            cx.scratch.join("trace_series.csv"),
            Trigger::EverySteps(1),
            &["t", "field_energy"],
            energy_row,
        )?,
        "dg_diag.csv_series",
        &tr,
    );
    let mut ckpt = Traced::new(
        Checkpoint::new(&cx.scratch, "trace_ckpt", Trigger::EverySteps(CKPT_EVERY)),
        "dg_diag.checkpoint",
        &tr,
    );
    // Stop after RUN_STEPS steps whatever dt the workload picks.
    let mut left = RUN_STEPS;
    let mut stop = observe(Trigger::EverySteps(1), |_| {
        if left == 0 {
            return Err(Error::Cancelled);
        }
        left -= 1;
        Ok(())
    });
    let steps_before = app.steps_taken();
    let (res, run_ns) = scope_ns(&tr, "dg_core.app.run", || {
        app.run(
            f64::MAX,
            &mut [&mut history, &mut csv, &mut ckpt, &mut stop],
        )
    });
    match res {
        Err(Error::Cancelled) => {}
        other => {
            other?;
        }
    }
    let steps = (app.steps_taken() - steps_before) as f64;
    let rep = &mut cx.rep;
    rep.set(
        "dg_core.app.run_overhead_frac",
        (run_ns - steps * step_dt_min) / run_ns,
    );
    let mean_of = |name: &str| {
        let d = tr.borrow().durations_ns(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    rep.set(
        "dg_diag.energy_history_record_us",
        mean_of("dg_diag.energy_history") * 1e-3,
    );
    rep.set("dg_diag.csv_row_us", mean_of("dg_diag.csv_series") * 1e-3);
    rep.set(
        "dg_diag.checkpoint_save_ms",
        mean_of("dg_diag.checkpoint") * 1e-6,
    );

    // The file path (temp + rename on save) and the bare format, apart.
    let last = ckpt.inner.last().map(|r| r.path.clone());
    if let Some(path) = last {
        rep.set(
            "dg_diag.checkpoint_bytes",
            std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        );
        let mut loaded = Ok(());
        let ns = min_ns(&tr, "dg_diag.snapshot.load", 3, || {
            if let Err(e) = snapshot::load(&path) {
                loaded = Err(e);
            }
        });
        loaded?;
        rep.set("dg_diag.checkpoint_load_ms", ns * 1e-6);
    }
    let state = app.state();
    let mut buf = Vec::new();
    snapshot::write_state(state, app.time(), &mut buf)?;
    let mb = buf.len() as f64 * 1e-6;
    let w_ns = min_ns(&tr, "dg_diag.snapshot.write_state", 5, || {
        buf.clear();
        snapshot::write_state(state, 0.0, &mut buf).expect("write to memory");
    });
    let r_ns = min_ns(&tr, "dg_diag.snapshot.read_state", 5, || {
        black_box(snapshot::read_state(&buf[..]).expect("read back what was written"));
    });
    rep.set("dg_diag.snapshot_write_mb_per_s", mb / (w_ns * 1e-9));
    rep.set("dg_diag.snapshot_read_mb_per_s", mb / (r_ns * 1e-9));
    Ok(())
}

/// Kernel rung, stage operations, guard and dt selection on their own.
fn micro_layers(
    cx: &mut Ctx<'_>,
    system: &VlasovMaxwell,
    state: &SystemState,
    stage: &mut SystemState,
    dof: f64,
) {
    let tr = cx.tr.clone();
    let k = &system.kernels;
    let (kind, p) = (k.phase_basis.kind(), k.phase_basis.poly_order());
    let (np, nc, ndim) = (k.np(), k.nc(), k.layout.ndim());

    // Registry kernels called directly on cache-resident synthetic cells.
    const CELLS: usize = 64;
    let f: Vec<f64> = (0..CELLS * np)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) * 1e-3)
        .collect();
    let mut o = vec![0.0; CELLS * np];
    let mut o2 = vec![0.0; np];
    let em: Vec<f64> = (0..8 * nc)
        .map(|i| ((i * 13 % 17) as f64 - 8.0) * 1e-2)
        .collect();
    let (w, dxv) = (vec![0.25; ndim], vec![0.5; ndim]);
    if let Some(entry) = find_volume_kernel(kind, k.layout, p) {
        let ns = min_ns(&tr, "dg_kernels.volume_kernel", 7, || {
            for _ in 0..16 {
                for c in 0..CELLS {
                    let r = c * np..(c + 1) * np;
                    (entry.func)(&w, &dxv, -1.0, &em, &f[r.clone()], &mut o[r]);
                }
            }
            black_box(&mut o);
        });
        cx.rep
            .set("dg_kernels.vol_ns_per_cell", ns / (16 * CELLS) as f64);
    }
    if let Some(entry) = find_surface_kernel(kind, k.layout, p) {
        let ns = min_ns(&tr, "dg_kernels.surface_kernels", 7, || {
            for _ in 0..4 {
                for func in entry.dirs {
                    for c in 0..CELLS - 1 {
                        let (lo, hi) = (c * np..(c + 1) * np, (c + 1) * np..(c + 2) * np);
                        func(
                            &w,
                            &dxv,
                            -1.0,
                            &em,
                            true,
                            &f[lo.clone()],
                            &f[hi],
                            &mut o[lo],
                            &mut o2,
                        );
                    }
                }
            }
            black_box((&mut o, &mut o2));
        });
        let faces = 4 * entry.dirs.len() * (CELLS - 1);
        cx.rep.set("dg_kernels.surf_ns_per_face", ns / faces as f64);
    }

    // The paper's yardstick: exact multiplications per DOF per RHS, and
    // the compulsory traffic computed from field sizes (f read, out read
    // and written) — computed, not measured, so no roofline ratio.
    let mults = system.vlasov.op_report().total() as f64 / np as f64;
    let bytes = 3.0 * 8.0;
    cx.rep.set("dg_kernels.mults_per_dof", mults);
    cx.rep.set("dg_kernels.bytes_per_dof_computed", bytes);
    cx.rep.set("dg_kernels.mults_per_byte", mults / bytes);
    let (gen_bytes, gen_lines) = generated_size(&cx.root.join("crates/kernels/src/generated"));
    cx.rep.set("dg_kernels.generated_bytes", gen_bytes);
    cx.rep.set("dg_kernels.generated_lines", gen_lines);

    // Stage operations on the workload's own state size; bytes computed
    // from the array lengths (copy: read + write; axpy, lincomb: two
    // reads + write).
    let n = state_len(state);
    let gb_per_s = |bytes_per_elem: f64, ns: f64| n * bytes_per_elem / ns;
    let ns = min_ns(&tr, COPY, 9, || stage.copy_from(state));
    cx.rep.set("dg_grid.copy_gb_per_s", gb_per_s(16.0, ns));
    let ns = min_ns(&tr, AXPY, 9, || stage.axpy(1e-9, state));
    cx.rep.set("dg_grid.axpy_gb_per_s", gb_per_s(24.0, ns));
    let ns = min_ns(&tr, LINCOMB, 9, || stage.lincomb(0.5, 0.5, state));
    cx.rep.set("dg_grid.lincomb_gb_per_s", gb_per_s(24.0, ns));
    if cx.p.fixed_dt.is_some() {
        // Adaptive workloads measured it inside their replica steps.
        let ns = min_ns(&tr, SUGGEST_DT, 9, || {
            black_box(suggest_dt(system, state, cx.p.cfl));
        });
        cx.rep.set("dg_core.cfl.suggest_dt_ns_per_dof", ns / dof);
    }
}

/// Bytes and lines of the committed generated kernels (code size as a
/// tracked number; moves nothing at run time).
fn generated_size(dir: &Path) -> (f64, f64) {
    let (mut bytes, mut lines) = (0u64, 0u64);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(text) = std::fs::read(e.path()) {
                bytes += text.len() as u64;
                lines += text.iter().filter(|&&b| b == b'\n').count() as u64;
            }
        }
    }
    (bytes as f64, lines as f64)
}

/// Five more replica steps on a system built with telemetry on, its phase
/// timers pointed at the replica's scratch: the program's `RunReport`
/// shares and the harness-span shares must tell the same story.
fn telemetry_agreement(cx: &mut Ctx<'_>, tel_app: App) {
    const STEPS: u64 = 5;
    const ID0: u64 = 1000;
    let tr = cx.tr.clone();
    let dt = tel_app.suggest_dt();
    let (mut system, mut state) = tel_app.into_parts();
    let Some(reg) = system.probe.registry().cloned() else {
        cx.rep
            .failures
            .push("App built with telemetry(true) carries no registry".to_string());
        return;
    };
    let mut sc = RhsScratch::new(&system);
    sc.instrument(&reg.collector(0));
    let (mut stage, mut rhs) = (system.new_state(), system.new_state());
    let before: Snapshot = reg.snapshot();
    for k in 0..STEPS {
        tr.borrow_mut().set_id(ID0 + k);
        replica_step(
            &tr,
            &mut system,
            &mut sc,
            &mut stage,
            &mut rhs,
            &mut state,
            dt,
        );
    }
    tr.borrow_mut().set_id(0);
    let delta = reg.snapshot().delta(&before);
    let t = tr.borrow();
    let span = |names: &[&str]| -> f64 {
        (ID0..ID0 + STEPS)
            .flat_map(|id| names.iter().map(move |n| (id, *n)))
            .map(|(id, n)| t.total_ns(n, id) as f64)
            .sum()
    };
    let phase = |ps: &[Phase]| -> f64 { ps.iter().map(|&p| delta.phase_ns(p) as f64).sum() };
    // The same calls, grouped the way each side names them.
    let groups: [(&[&str], &[Phase]); 5] = [
        (&[VOLUME][..], &[Phase::Volume][..]),
        (
            &[SURF_CONF, SURF_VEL][..],
            &[Phase::Surface, Phase::Ghosts][..],
        ),
        (
            &[LBO][..],
            &[Phase::LboDrag, Phase::LboDiff, Phase::Moments][..],
        ),
        (&[MAXWELL_RHS][..], &[Phase::MaxwellRhs][..]),
        (&[CURRENT, ADD_SOURCES][..], &[Phase::FieldCoupling][..]),
    ];
    let outside: Vec<f64> = groups.iter().map(|g| span(g.0)).collect();
    let inside: Vec<f64> = groups.iter().map(|g| phase(g.1)).collect();
    let (so, si): (f64, f64) = (outside.iter().sum(), inside.iter().sum());
    let worst = outside
        .iter()
        .zip(&inside)
        .map(|(o, i)| (o / so - i / si).abs())
        .fold(0.0, f64::max);
    cx.rep.set("dg_telemetry.span_disagreement_frac", worst);
    cx.rep.set(
        "dg_core.vlasov.cells_swept",
        delta.counter(dg_telemetry::Counter::CellsSwept) as f64 / STEPS as f64,
    );
    cx.rep.set(
        "dg_core.vlasov.faces_swept",
        delta.counter(dg_telemetry::Counter::FacesSwept) as f64 / STEPS as f64,
    );
}

/// `Ensemble::run` at two workers, then one worker against a bare loop of
/// the same jobs: what the queue, lifecycle and artifacts cost.
fn ensemble_layers(cx: &mut Ctx<'_>, seed: u64, scale: Scale) -> Result<(), Error> {
    let tr = cx.tr.clone();
    let jobs = wl::ensemble_jobs(scale).min(128);
    let sweep = wl::ensemble_sweep(seed, jobs);
    let run = |name: &'static str, dir: &str, workers: usize| {
        let out_dir = cx.scratch.join(dir);
        std::fs::create_dir_all(&out_dir)?;
        let mut e = Ensemble::new(wl::ensemble_config(&out_dir, workers))?;
        e.submit_sweep(&sweep)?;
        let (report, ns) = scope_ns(&tr, name, || e.run());
        Ok::<_, Error>((report?, ns, out_dir))
    };
    let (report, _, out_dir) = run("dg_ensemble.run(w2)", "ens_w2", wl::ENS_WORKERS)?;
    if report.counts() != (jobs, 0, 0) {
        cx.rep
            .failures
            .push(format!("traced ensemble: counts {:?}", report.counts()));
    }
    cx.rep.ops_attempted += jobs as u64;
    let ms = |f: &dyn Fn(&dg_ensemble::JobRecord) -> f64| {
        percentile(&sorted(report.jobs.iter().map(f).collect()), 0.5) * 1e3
    };
    cx.rep
        .set("dg_ensemble.job_run_ms_p50", ms(&|j| j.timing.run_s));
    cx.rep.set(
        "dg_ensemble.queue_wait_ms_p50",
        ms(&|j| j.timing.queue_wait_s),
    );
    cx.rep.set(
        "dg_ensemble.retries",
        report.jobs.iter().map(|j| j.retries).sum::<usize>() as f64,
    );
    cx.rep.set(
        "dg_ensemble.artifact_bytes_per_job",
        dir_bytes(&out_dir) as f64 / jobs as f64,
    );

    let (report1, ens_ns, _) = run("dg_ensemble.run(w1)", "ens_w1", 1)?;
    let setup = wl::ensemble_setup();
    let specs = sweep.jobs()?;
    let mut h = (Fnv::default(), Fnv::default());
    let (bare, bare_ns) = scope_ns(&tr, "bare_loop", || {
        specs
            .iter()
            .map(|s| bare_job(&*setup, s.params()))
            .collect::<Result<Vec<_>, _>>()
    });
    for ((steps, _, summary), rec) in bare?.iter().zip(&report1.jobs) {
        h.0.write_u64(*steps as u64);
        h.1.write_u64(rec.steps as u64);
        summary.iter().for_each(|&v| h.0.write_f64(v));
        rec.summary.iter().for_each(|&v| h.1.write_f64(v));
    }
    if h.0.finish() != h.1.finish() {
        cx.rep
            .failures
            .push("bare loop and Ensemble (1 worker) summaries differ".to_string());
    }
    cx.rep.set(
        "dg_ensemble.overhead_vs_bare_loop_frac",
        (ens_ns - bare_ns) / bare_ns,
    );
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced decomposition is the program's computation: at smoke
    /// size, every workload's replica step must match `App::step_dt`
    /// bit for bit and every declared per-layer metric must be printed.
    #[test]
    fn smoke_trace_is_bit_identical_and_names_every_layer_metric() {
        // Under the git-ignored benchmark/out/, like every run's output.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let tmp = here.join(format!("out/test-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let dirs = Dirs {
            root: here.parent().unwrap().to_path_buf(),
            out: tmp.clone(),
        };
        for w in [spec::COLL, spec::LANDAU_IO, spec::ENSEMBLE] {
            let rep = trace_workload(&dirs, w, 3, Scale::Smoke);
            assert!(rep.correct(), "{w}: {:?}", rep.failures);
            let line = rep.driver_line();
            for m in PER_LAYER {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                    "{w}: {}",
                    m.name
                );
            }
            assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
            assert!(rep.get("dg_core.vlasov.volume_ns_per_dof") > 0.0);
            let spans = std::fs::read_to_string(rep.span_file.as_ref().unwrap()).unwrap();
            assert!(spans.contains("\"name\": \"dg_core.ssprk.step\""));
        }
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
