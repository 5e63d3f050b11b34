//! Dougherty / Lenard–Bernstein (LBO) Fokker–Planck collision operator.
//!
//! ```text
//! C[f] = ν ∇_v · [ (v − u(x)) f + vth²(x) ∇_v f ]
//! ```
//!
//! The paper (§III footnote 7) reports that Gkeyll's alias-free modal
//! discretization of this operator roughly doubles the cost of the spatial
//! update; EXPERIMENTS.md ("LBO at vector width") measured 1.84× here,
//! and the benchmark's `coll_1x2v_p2` workload is where this operator
//! weighs in. The discretization here follows the same modal philosophy:
//!
//! * the **drag** term is the Vlasov machinery with phase-space flux
//!   `α = −ν (v_j − u_j(x))` — affine in `v_j` with a configuration-space
//!   profile, so its volume tensor has the same tiny `m`-support structure
//!   as the Lorentz acceleration;
//! * the **diffusion** term uses local DG (LDG) with alternating fluxes:
//!   the gradient `g_j = ∂f/∂v_j` takes its trace from the upper cell, the
//!   flux `v_th² g_j` from the lower cell; both passes are exact modal
//!   operations (no quadrature);
//! * **primitive moments** `u = M1/M0`, `vth² = (M2 − u·M1)/(d_v M0)` are
//!   obtained by *weak division* — the small per-cell solves of
//!   `dg-kernels::weak`;
//! * zero-flux velocity boundaries make the discrete operator conserve
//!   particle number exactly; momentum/energy conservation errors converge
//!   away with velocity resolution and extent (Gkeyll adds boundary
//!   corrections for exact conservation; documented difference).

use dg_basis::expand;
use dg_grid::{CellStoreMut, DgField, PhaseGrid};
use dg_kernels::dispatch::{
    DispatchPath, KernelDispatch, LboBatch, PencilLanes, ResolvedLbo, LANES, RUNTIME_SPARSE_TAG,
};
use dg_kernels::panel::LanePanel;
use dg_kernels::surface::FaceScratch;
use dg_kernels::triple::{build_triple, DimTable, SparseTriple, TripleSpec};
use dg_kernels::weak::WeakDivScratch;
use dg_kernels::PhaseKernels;
use dg_poly::MAX_DIM;
use dg_telemetry::{span, Collector, Phase};
use std::sync::Arc;

use crate::moments::MomentScratch;

/// Sparse `∫ ∂_D w_l w_m dξ` (phase-basis gradient-mass, for the LDG
/// gradient pass).
#[derive(Clone, Debug)]
struct PhaseGradMass {
    entries: Vec<(u16, u16, f64)>,
}

impl PhaseGradMass {
    // dg-analyze: allow(hot_alloc) — stencil-table construction, runs once per operator
    fn build(kernels: &PhaseKernels, dir: usize) -> Self {
        let basis = &kernels.phase_basis;
        let t = dg_poly::tables::Tables1d::new(basis.poly_order());
        let mut entries = Vec::new();
        for l in 0..basis.len() {
            for m in 0..basis.len() {
                let (el, em) = (basis.exps(l), basis.exps(m));
                let mut v = 1.0;
                for d in 0..basis.ndim() {
                    v *= if d == dir {
                        t.grad_mass(el[d] as usize, em[d] as usize)
                    } else if el[d] == em[d] {
                        1.0
                    } else {
                        0.0
                    };
                    if v == 0.0 {
                        break;
                    }
                }
                if v != 0.0 {
                    entries.push((l as u16, m as u16, v));
                }
            }
        }
        PhaseGradMass { entries }
    }

    #[inline]
    fn apply(&self, f: &[f64], scale: f64, out: &mut [f64]) {
        for &(l, m, c) in &self.entries {
            out[l as usize] += scale * c * f[m as usize];
        }
    }
}

/// Persistent scratch for one LBO operator: every moment field, primitive
/// field, pencil-group panel, and per-cell buffer the RHS evaluation
/// touches lives here, so a steady-state `accumulate_rhs` performs zero
/// heap allocations (asserted by the counting-allocator test in
/// `tests/alloc_free.rs`).
///
/// The cell-block parallel sweep gives every thread its own instance
/// (built with [`LboOp::make_scratch`]) and calls
/// [`LboOp::accumulate_rhs_range`] on disjoint configuration ranges — the
/// moment/primitive fields are conf-sized, but each thread only touches
/// its own range's cells. Nothing here is phase-space-sized: the LDG
/// gradient lives for one pencil position (generated path) or one
/// configuration cell (runtime-sparse path) at a time.
#[derive(Clone, Debug)]
pub struct LboScratch {
    /// Raw moments M0 / M1_j / M2.
    m0: DgField,
    m1: Vec<DgField>,
    m2: DgField,
    /// Primitive moments u_j and vth².
    u: Vec<DgField>,
    vth2: DgField,
    /// Generated path: the resident pencil group in SoA form — `f` and
    /// `out` of its [`LANES`] pencils (`max_j n_j × Np` lane groups each),
    /// the LDG gradient `g = ∂f/∂v_j` of one position along them (`Np`),
    /// and the pencils' primitive moments `u_j` / `vth²` (`Nc` each).
    pencil_f: LanePanel,
    pencil_out: LanePanel,
    lane_g: LanePanel,
    lane_u: LanePanel,
    lane_vth2: LanePanel,
    /// Runtime-sparse path: the LDG gradient of one configuration cell's
    /// velocity block.
    g: DgField,
    /// Per-cell weak-algebra buffers (rhs of the vth² solve, weak
    /// products, scaled densities) — formerly `vec!`'d per cell.
    rhs: Vec<f64>,
    prod: Vec<f64>,
    dv_m0: Vec<f64>,
    /// Weak-division factorization scratch.
    div: WeakDivScratch,
    /// Runtime-sparse path: phase/face expansion buffers and face scratch.
    alpha: Vec<f64>,
    alpha_face: Vec<f64>,
    trace: Vec<f64>,
    ghat: Vec<f64>,
    fs: FaceScratch,
    vidx: Vec<usize>,
    mom: MomentScratch,
    /// Telemetry writer for this scratch's thread (noop unless the
    /// backend instruments the run).
    pub probe: Collector,
}

impl LboScratch {
    // dg-analyze: allow(hot_alloc) — scratch constructor: every field/buffer persists across calls
    fn new(kernels: &PhaseKernels, grid: &PhaseGrid, dispatch: KernelDispatch) -> Self {
        let nconf = grid.conf.len();
        let (nc, np, vdim) = (kernels.nc(), kernels.np(), kernels.layout.vdim);
        let nf = kernels.max_face_len();
        let mut fs = FaceScratch::default();
        fs.ensure(nf);
        // Only the path the operator resolved to gets its buffers.
        let generated = resolve_path(kernels, dispatch).path() == DispatchPath::Generated;
        let pencil = |groups: usize| LanePanel::zeros(if generated { groups * LANES } else { 0 });
        let longest = grid.vel.cells().iter().copied().max().unwrap_or(0);
        LboScratch {
            m0: DgField::zeros(nconf, nc),
            m1: (0..vdim).map(|_| DgField::zeros(nconf, nc)).collect(),
            m2: DgField::zeros(nconf, nc),
            u: (0..vdim).map(|_| DgField::zeros(nconf, nc)).collect(),
            vth2: DgField::zeros(nconf, nc),
            pencil_f: pencil(longest * np),
            pencil_out: pencil(longest * np),
            lane_g: pencil(np),
            lane_u: pencil(nc),
            lane_vth2: pencil(nc),
            g: DgField::zeros(if generated { 0 } else { grid.vel.len() }, np),
            rhs: vec![0.0; nc],
            prod: vec![0.0; nc],
            dv_m0: vec![0.0; nc],
            div: WeakDivScratch::new(nc),
            alpha: vec![0.0; np],
            alpha_face: vec![0.0; nf],
            trace: vec![0.0; nf],
            ghat: vec![0.0; nf],
            fs,
            vidx: vec![0; vdim],
            // The moment path follows the operator's dispatch knob, so a
            // forced-`Generated` LBO also takes the generated moment path.
            mom: MomentScratch::with_dispatch(kernels, dispatch),
            probe: Collector::Noop,
        }
    }

    /// Point this scratch's telemetry (including its embedded moment
    /// scratch) at `collector` — called once by backend instrumentation.
    // dg-analyze: allow(hot_alloc) — collector handoff is cold (once per run); clones bump an Arc refcount
    pub fn instrument(&mut self, collector: &Collector) {
        self.probe = collector.clone();
        self.mom.probe = collector.clone();
    }
}

/// Resolve the LBO kernel path of a kernel set under `dispatch`.
///
/// # Panics
///
/// When `dispatch` is [`KernelDispatch::Generated`] and no generated LBO
/// kernel exists for this configuration.
fn resolve_path(kernels: &PhaseKernels, dispatch: KernelDispatch) -> ResolvedLbo {
    dispatch
        .resolve_lbo(
            kernels.phase_basis.kind(),
            kernels.layout,
            kernels.phase_basis.poly_order(),
        )
        .unwrap_or_else(|e| panic!("kernel dispatch: {e}"))
}

/// The `v_j`-pencils of one configuration cell and the batched stage
/// kernels that sweep them — the generated path's per-direction table.
struct PencilDir {
    /// Linear velocity index of every pencil's first cell (index 0 along
    /// `v_j`), ascending; the pencil's cell `i` is `i · stride(j)` above.
    bases: Vec<u32>,
    /// The five stage kernels over [`LANES`] pencils, as selected for this
    /// CPU.
    batch: LboBatch,
}

/// Copy one cell's coefficients into lane `lane` of an SoA panel.
#[inline]
fn pack_lane(panel: &mut [PencilLanes], lane: usize, cell: &[f64]) {
    for (p, &c) in panel.iter_mut().zip(cell) {
        p[lane] = c;
    }
}

/// Copy lane `lane` of an SoA panel back into one cell's coefficients.
#[inline]
fn store_lane(cell: &mut [f64], panel: &[PencilLanes], lane: usize) {
    for (c, p) in cell.iter_mut().zip(panel) {
        *c = p[lane];
    }
}

/// The LBO operator for one species on one phase grid.
pub struct LboOp {
    kernels: Arc<PhaseKernels>,
    grid: PhaseGrid,
    /// Collision frequency ν.
    pub nu: f64,
    /// Persistent scratch (why `accumulate_rhs` takes `&mut self`);
    /// `Option` so it can be lent out around the `&self`-ranged core
    /// without a self-borrow conflict — always `Some` between calls.
    scratch: Option<LboScratch>,
    /// Per velocity dir: drag volume tensor (`m` support: conf ⊗ {1, ξ_j}).
    drag_vol: Vec<SparseTriple>,
    /// Per velocity dir: diffusion volume tensor (`m` support: conf only).
    diff_vol: Vec<SparseTriple>,
    /// Per velocity dir: phase gradient-mass for the LDG gradient.
    grad_mass: Vec<PhaseGradMass>,
    /// conf mode → phase mode with zero velocity exponents.
    emb_phase: Vec<u16>,
    /// per velocity dir: conf mode → face mode (velocity-face basis).
    emb_face: Vec<Vec<u16>>,
    /// Weights of the conf→phase / conf→face constant-velocity embeddings.
    w_phase: f64,
    w_face: f64,
    /// LBO kernel path, resolved once at construction.
    path: ResolvedLbo,
    /// Generated path: the pencil table of every velocity direction
    /// (empty on the runtime-sparse path).
    pencils: Vec<PencilDir>,
    /// Velocity-cell centres per linear velocity index, for the
    /// primitive-moment sweep.
    vel_centers: Vec<[f64; 3]>,
    /// The knob the path came from (propagated to per-thread scratch).
    dispatch: KernelDispatch,
}

impl LboOp {
    pub fn new(kernels: Arc<PhaseKernels>, grid: PhaseGrid, nu: f64) -> Self {
        Self::with_dispatch(kernels, grid, nu, KernelDispatch::default())
    }

    /// Like [`LboOp::new`] with an explicit kernel-dispatch policy.
    ///
    /// # Panics
    ///
    /// When `dispatch` is [`KernelDispatch::Generated`] and no generated
    /// LBO kernel exists for this configuration.
    // dg-analyze: allow(hot_alloc) — operator constructor: per-direction tables are precomputed once
    pub fn with_dispatch(
        kernels: Arc<PhaseKernels>,
        grid: PhaseGrid,
        nu: f64,
        dispatch: KernelDispatch,
    ) -> Self {
        let (cdim, vdim) = (kernels.layout.cdim, kernels.layout.vdim);
        let p = kernels.phase_basis.poly_order();
        let phase = &kernels.phase_basis;
        let conf = &kernels.conf_basis;

        let mut drag_vol = Vec::new();
        let mut diff_vol = Vec::new();
        let mut grad_mass = Vec::new();
        let mut emb_face = Vec::new();
        for j in 0..vdim {
            let dir = cdim + j;
            let dim_tables: Vec<DimTable> = (0..phase.ndim())
                .map(|d| {
                    if d == dir {
                        DimTable::Grad
                    } else {
                        DimTable::Mass
                    }
                })
                .collect();
            // Drag: α = −ν(v_j − u_j(x)) → conf modes plus the ξ_j mode.
            let mut caps = [0u8; MAX_DIM];
            for c in caps.iter_mut().take(cdim) {
                *c = p as u8;
            }
            caps[dir] = 1;
            let spec = TripleSpec {
                basis_l: phase,
                basis_m: phase,
                basis_n: phase,
                dim_tables: &dim_tables,
                m_caps: Some(&caps),
                m_filter: None,
            };
            drag_vol.push(build_triple(&spec, &kernels.tables));
            // Diffusion: vth²(x) → conf modes only.
            caps[dir] = 0;
            let spec = TripleSpec {
                basis_l: phase,
                basis_m: phase,
                basis_n: phase,
                dim_tables: &dim_tables,
                m_caps: Some(&caps),
                m_filter: None,
            };
            diff_vol.push(build_triple(&spec, &kernels.tables));
            grad_mass.push(PhaseGradMass::build(&kernels, dir));

            // conf → velocity-face embedding (conf dims precede dir).
            let fb = &kernels.surfaces[dir].kernel.face.basis;
            let mut emb = Vec::with_capacity(conf.len());
            for l in 0..conf.len() {
                let mut fe = [0u8; MAX_DIM];
                fe[..cdim].copy_from_slice(&conf.exps(l)[..cdim]);
                emb.push(fb.find(&fe).expect("conf embeds in velocity face") as u16);
            }
            emb_face.push(emb);
        }

        let mut emb_phase = Vec::with_capacity(conf.len());
        for l in 0..conf.len() {
            let mut pe = [0u8; MAX_DIM];
            pe[..cdim].copy_from_slice(&conf.exps(l)[..cdim]);
            emb_phase.push(phase.find(&pe).expect("conf embeds in phase") as u16);
        }
        let w_phase = (2.0f64).powi(vdim as i32).sqrt();
        let w_face = (2.0f64).powi(vdim as i32 - 1).sqrt();
        let path = resolve_path(&kernels, dispatch);
        let pencils = match path {
            ResolvedLbo::Generated(e) => (0..vdim)
                .map(|j| {
                    // Row-major velocity grid: the cells with index 0 along
                    // `v_j` are the first `stride` of every `n_j · stride`.
                    let stride = grid.vel.stride(j);
                    let period = grid.vel.cells()[j] * stride;
                    PencilDir {
                        bases: (0..grid.vel.len())
                            .filter(|vlin| vlin % period < stride)
                            .map(|vlin| vlin as u32)
                            .collect(),
                        batch: LboBatch::select(e, j),
                    }
                })
                .collect(),
            ResolvedLbo::RuntimeSparse => Vec::new(),
        };
        let vel_centers = crate::moments::vel_center_table(&grid);
        let scratch = Some(LboScratch::new(&kernels, &grid, dispatch));
        LboOp {
            kernels,
            grid,
            nu,
            scratch,
            drag_vol,
            diff_vol,
            grad_mass,
            emb_phase,
            emb_face,
            w_phase,
            w_face,
            path,
            pencils,
            vel_centers,
            dispatch,
        }
    }

    /// Which LBO kernel path this operator resolved to.
    pub fn dispatch_path(&self) -> DispatchPath {
        self.path.path()
    }

    /// The entry points the sweep runs (`generated/avx2x4`, …, or
    /// `runtime-sparse`) — what this operator resolved, which need not be
    /// what the Vlasov operator beside it runs.
    pub fn kernel_entry_points(&self) -> &'static str {
        self.pencils
            .first()
            .map_or(RUNTIME_SPARSE_TAG, |dir| dir.batch.isa().tag())
    }

    /// A fresh scratch instance sized for this operator — one per thread
    /// in the cell-block parallel sweep.
    pub fn make_scratch(&self) -> LboScratch {
        LboScratch::new(&self.kernels, &self.grid, self.dispatch)
    }

    /// Point the persistent serial scratch's telemetry at `collector` —
    /// called once by backend instrumentation (`BlockRhs` instruments its
    /// per-block scratches instead).
    pub fn instrument_scratch(&mut self, collector: &Collector) {
        if let Some(ws) = self.scratch.as_mut() {
            ws.instrument(collector);
        }
    }

    /// Compute primitive moments `(u_j, vth²)` into the scratch fields for
    /// configuration cells in `conf_range`, allocation-free.
    fn primitive_moments_range(
        &self,
        f: &DgField,
        ws: &mut LboScratch,
        conf_range: std::ops::Range<usize>,
    ) {
        let k = &*self.kernels;
        let grid = &self.grid;
        let vdim = grid.vdim();
        let nc = k.nc();
        crate::moments::raw_moments_range_into(
            k,
            grid,
            &self.vel_centers,
            f,
            &mut ws.m0,
            &mut ws.m1,
            &mut ws.m2,
            &ws.mom,
            conf_range.clone(), // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
        );

        // The weak divisions below are part of the moment stage (the raw
        // moment sweep above times itself through `ws.mom.probe`).
        span!(ws.probe, Phase::Moments);
        for c in conf_range {
            for j in 0..vdim {
                k.weak.divide_with(
                    ws.m0.cell(c),
                    ws.m1[j].cell(c),
                    ws.u[j].cell_mut(c),
                    &mut ws.div,
                );
            }
            // vth² · (d_v M0) = M2 − Σ_j u_j ⊙ M1_j (weak products).
            ws.rhs.copy_from_slice(ws.m2.cell(c));
            for j in 0..vdim {
                ws.prod.fill(0.0);
                k.weak
                    .multiply_acc(ws.u[j].cell(c), ws.m1[j].cell(c), &mut ws.prod);
                for l in 0..nc {
                    ws.rhs[l] -= ws.prod[l];
                }
            }
            ws.dv_m0.copy_from_slice(ws.m0.cell(c));
            for x in ws.dv_m0.iter_mut() {
                *x *= vdim as f64;
            }
            k.weak
                .divide_with(&ws.dv_m0, &ws.rhs, ws.vth2.cell_mut(c), &mut ws.div);
        }
    }

    /// Accumulate `C[f]` into `out`. Takes `&mut self` for the persistent
    /// scratch; the evaluation itself performs no heap allocation.
    pub fn accumulate_rhs(&mut self, f: &DgField, out: &mut DgField) {
        let nconf = self.grid.conf.len();
        self.with_serial_scratch(|op, ws| op.accumulate_rhs_range(f, out, ws, 0..nconf));
    }

    /// Run `body` on the operator and its persistent serial scratch, held
    /// apart (a move out and back, no allocation).
    pub(crate) fn with_serial_scratch(&mut self, body: impl FnOnce(&LboOp, &mut LboScratch)) {
        let mut ws = self.scratch.take().expect("LBO scratch present");
        body(self, &mut ws);
        self.scratch = Some(ws);
    }

    /// Accumulate `C[f]` into `out` for configuration cells in
    /// `conf_range`, using caller-owned scratch — the cell-block parallel
    /// form. Every write lands in phase cells of `conf_range` (the LBO is
    /// local in configuration space: velocity-face fluxes stay inside one
    /// configuration cell), so disjoint ranges with per-thread scratch are
    /// race-free, and running blocks in any order then reducing in block
    /// order reproduces the serial sweep bit for bit.
    pub fn accumulate_rhs_range<S: CellStoreMut>(
        &self,
        f: &DgField,
        out: &mut S,
        ws: &mut LboScratch,
        conf_range: std::ops::Range<usize>,
    ) {
        self.primitive_moments_range(f, ws, conf_range.clone()); // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap

        // Path resolved once at construction, never per cell.
        match self.path {
            ResolvedLbo::Generated(_) => self.sweep_pencil_groups(f, out, ws, conf_range),
            ResolvedLbo::RuntimeSparse => self.sweep_runtime_sparse(f, out, ws, conf_range),
        }
    }

    /// The generated path: drag + diffusion of every velocity direction by
    /// **pencil groups**. For direction `j` the range's `v_j`-pencils
    /// (`conf_range` × the transverse velocity cells, in ascending cell
    /// order) are taken [`LANES`] at a time; the group's `f` *and* `out`
    /// are packed once into SoA panels, the batched stage kernels walk
    /// along the pencils, and `out` is stored back — three cell-moves per
    /// cell and direction, and the LDG gradient `g` is one `Np` panel that
    /// never touches memory.
    ///
    /// Every cell receives its increments in the order of the per-cell
    /// sweep this replaces (which survives as the reference of
    /// `tests::pencil_group_sweep_matches_scalar_cell_sweep_bitwise`):
    /// `drag_vol`, `drag_surf` from its lower then its upper face,
    /// `diff_surf` from its lower face, `diff_vol`, `diff_surf` to its
    /// upper face. The drag walk gives the first three (volume term at
    /// every position, then faces ascending), the diffusion walk the rest
    /// (position `i`: gradient → volume → face `i | i+1`). Because `out`
    /// is packed, not zeroed, each increment is added to the running value
    /// exactly as in the scalar statements — so a lane is bit-identical to
    /// the per-cell sweep whatever the grouping, the block split or the
    /// fill of the last group. A group may span configuration cells (in
    /// 1x1v every pencil is one), hence `u`/`vth²` are packed per lane. In
    /// a partial last group the spare lanes repeat its last pencil: finite
    /// data, computed and never stored.
    fn sweep_pencil_groups<S: CellStoreMut>(
        &self,
        f: &DgField,
        out: &mut S,
        ws: &mut LboScratch,
        conf_range: std::ops::Range<usize>,
    ) {
        let grid = &self.grid;
        let nu = self.nu;
        let (np, nv) = (self.kernels.np(), grid.vel.len());
        let probe = &ws.probe;
        let pf = ws.pencil_f.lanes_mut::<LANES>();
        let po = ws.pencil_out.lanes_mut::<LANES>();
        let g = ws.lane_g.lanes_mut::<LANES>();
        let lane_u = ws.lane_u.lanes_mut::<LANES>();
        let lane_vth2 = ws.lane_vth2.lanes_mut::<LANES>();
        for (j, dir) in self.pencils.iter().enumerate() {
            let (u, vth2) = (&ws.u[j], &ws.vth2);
            let dv = grid.vel.dx()[j];
            let stride = grid.vel.stride(j);
            let n = grid.vel.cells()[j];
            let per_conf = dir.bases.len();
            let batch = &dir.batch;
            // Position `i` of the group's pencils in its panels.
            let at = |i: usize| i * np..(i + 1) * np;
            let end = conf_range.end * per_conf;
            for first in (conf_range.start * per_conf..end).step_by(LANES) {
                let lanes = LANES.min(end - first);
                // First phase cell of each lane's pencil.
                let mut base = [0usize; LANES];
                {
                    // Pack (drag's share of the cell-moves).
                    span!(probe, Phase::LboDrag);
                    for (lane, b) in base.iter_mut().enumerate() {
                        let p = first + lane.min(lanes - 1);
                        let clin = p / per_conf;
                        *b = clin * nv + dir.bases[p % per_conf] as usize;
                        pack_lane(lane_u, lane, u.cell(clin));
                        pack_lane(lane_vth2, lane, vth2.cell(clin));
                    }
                    for i in 0..n {
                        for (lane, b) in base.iter().enumerate() {
                            let cell = b + i * stride;
                            pack_lane(&mut pf[at(i)], lane, f.cell(cell));
                            pack_lane(&mut po[at(i)], lane, out.cell_mut(cell));
                        }
                    }

                    // ---- Drag: volume, then LF fluxes at interior faces ----
                    for i in 0..n {
                        let vc = grid.vel.center(j, i);
                        batch.drag_vol(nu, vc, dv, lane_u, &pf[at(i)], &mut po[at(i)]);
                    }
                    for i in 0..n - 1 {
                        let vstar = grid.vel.lower()[j] + (i as f64 + 1.0) * dv;
                        let (o_lo, o_hi) = po[i * np..(i + 2) * np].split_at_mut(np);
                        batch.drag_surf(
                            nu,
                            vstar,
                            dv,
                            lane_u,
                            &pf[at(i)],
                            &pf[at(i + 1)],
                            o_lo,
                            o_hi,
                        );
                    }
                }

                // ---- Diffusion, LDG: g = ∂f/∂v_j with the trace from
                // above, then out += ν ∇·(vth² g) with the trace from below
                // and zero flux at the velocity boundaries ----
                span!(probe, Phase::LboDiff);
                for i in 0..n {
                    g.fill([0.0; LANES]);
                    let at_upper = i + 1 == n;
                    // `f_up` is ignored at the boundary; pass the position
                    // itself to keep the call uniform.
                    let f_up = if at_upper { at(i) } else { at(i + 1) };
                    batch.diff_grad(dv, at_upper, &pf[at(i)], &pf[f_up], g);
                    if at_upper {
                        batch.diff_vol(nu, dv, lane_vth2, g, &mut po[at(i)]);
                    } else {
                        let (o_lo, o_hi) = po[i * np..(i + 2) * np].split_at_mut(np);
                        batch.diff_vol(nu, dv, lane_vth2, g, o_lo);
                        // Upper interior face: Ĝ = (vth² g)⁻.
                        batch.diff_surf(nu, dv, lane_vth2, g, o_lo, o_hi);
                    }
                }
                for (lane, b) in base.iter().enumerate().take(lanes) {
                    for i in 0..n {
                        store_lane(out.cell_mut(b + i * stride), &po[at(i)], lane);
                    }
                }
            }
        }
    }

    /// The runtime-sparse path (oracle, and fallback for configurations
    /// without generated kernels): the same stages interpreted per cell
    /// from the sparse tensors.
    fn sweep_runtime_sparse<S: CellStoreMut>(
        &self,
        f: &DgField,
        out: &mut S,
        ws: &mut LboScratch,
        conf_range: std::ops::Range<usize>,
    ) {
        let k = &*self.kernels;
        let grid = &self.grid;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let nv = grid.vel.len();
        let vdx = grid.vel.dx();
        let phase = &k.phase_basis;

        let LboScratch {
            u,
            vth2,
            g,
            alpha,
            alpha_face,
            trace,
            ghat,
            fs,
            vidx,
            probe,
            ..
        } = ws;
        let (u, vth2) = (&*u, &*vth2);

        let c0p = expand::const_coeff(phase);

        for j in 0..vdim {
            let dir = cdim + j;
            let surf = &k.surfaces[dir];
            let nf = surf.kernel.face.len();
            let scale = 2.0 / vdx[j];
            let stride = grid.vel.stride(j);
            let n_j = grid.vel.cells()[j];
            let (lin_idx, c1p) = expand::linear_coeff(phase, dir).expect("p ≥ 1");
            let c0f = expand::const_coeff(&surf.kernel.face.basis);

            // ---- Drag: volume + LF surface fluxes ----
            let drag_span = probe.span(Phase::LboDrag);
            // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
            for clin in conf_range.clone() {
                let uc = u[j].cell(clin);
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, vidx);
                    let vc = grid.vel.center(j, vidx[j]);
                    // α = −ν (v_j − u_j(x)).
                    alpha.fill(0.0);
                    alpha[0] = -self.nu * vc * c0p;
                    alpha[lin_idx] = -self.nu * 0.5 * vdx[j] * c1p;
                    for (l, &e) in self.emb_phase.iter().enumerate() {
                        alpha[e as usize] += self.nu * self.w_phase * uc[l];
                    }
                    let cell = clin * nv + vlin;
                    self.drag_vol[j].apply(alpha, f.cell(cell), scale, out.cell_mut(cell));
                }
                // Drag surface fluxes along j-pencils (interior faces only).
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, vidx);
                    if vidx[j] + 1 >= n_j {
                        continue;
                    }
                    let vstar = grid.vel.lower()[j] + (vidx[j] as f64 + 1.0) * vdx[j];
                    alpha_face[..nf].fill(0.0);
                    alpha_face[0] = -self.nu * vstar * c0f;
                    for (l, &e) in self.emb_face[j].iter().enumerate() {
                        alpha_face[e as usize] += self.nu * self.w_face * uc[l];
                    }
                    let lam = surf.kernel.sup_bound(&alpha_face[..nf]);
                    let lo = clin * nv + vlin;
                    let hi = lo + stride;
                    let (o_lo, o_hi) = out.cell_pair_mut(lo, hi);
                    surf.kernel.apply(
                        f.cell(lo),
                        f.cell(hi),
                        &alpha_face[..nf],
                        lam,
                        scale,
                        Some(o_lo),
                        Some(o_hi),
                        fs,
                    );
                }
            }

            drop(drag_span);
            // Covers both LDG passes; dropped at the end of this `j`
            // iteration.
            let _diff_span = probe.span(Phase::LboDiff);
            // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
            for clin in conf_range.clone() {
                // ---- Diffusion, LDG pass 1: g = ∂f/∂v_j over this
                // configuration cell's velocity block, trace from above ----
                g.fill(0.0);
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, vidx);
                    let cell = clin * nv + vlin;
                    let gc = g.cell_mut(vlin);
                    self.grad_mass[j].apply(f.cell(cell), -scale, gc);
                    // Upper face: f̂ = trace of the upper neighbour (or own
                    // upper trace at the boundary).
                    trace[..nf].fill(0.0);
                    if vidx[j] + 1 < n_j {
                        surf.kernel.face.restrict(-1, f.cell(cell + stride), trace);
                    } else {
                        surf.kernel.face.restrict(1, f.cell(cell), trace);
                    }
                    surf.kernel.face.lift(1, &trace[..nf], scale, gc);
                    // Lower face: f̂ = own lower trace (f⁺ of that face).
                    trace[..nf].fill(0.0);
                    surf.kernel.face.restrict(-1, f.cell(cell), trace);
                    surf.kernel.face.lift(-1, &trace[..nf], -scale, gc);
                }

                // ---- Diffusion, LDG pass 2: out += ν ∇·(vth² g), trace
                // from below, zero flux at velocity boundaries ----
                let tc = vth2.cell(clin);
                // Embed vth² into the phase basis for the volume term.
                alpha.fill(0.0);
                for (l, &e) in self.emb_phase.iter().enumerate() {
                    alpha[e as usize] = self.w_phase * tc[l];
                }
                // Face expansion of vth².
                alpha_face[..nf].fill(0.0);
                for (l, &e) in self.emb_face[j].iter().enumerate() {
                    alpha_face[e as usize] = self.w_face * tc[l];
                }
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, vidx);
                    let cell = clin * nv + vlin;
                    // Volume: −(2/Δ)·ν·∫∂w (vth² g) … sign folded: the weak
                    // form of +∇·F gives −∫∇w·F, and the kernels accumulate
                    // +∫∂w; pass negative scale.
                    self.diff_vol[j].apply(
                        alpha,
                        g.cell(vlin),
                        -self.nu * scale,
                        out.cell_mut(cell),
                    );
                    // Upper interior face: Ĝ = (vth² g)⁻ (trace from below).
                    if vidx[j] + 1 < n_j {
                        trace[..nf].fill(0.0);
                        surf.kernel.face.restrict(1, g.cell(vlin), trace);
                        // Ĝ_a = Σ D_abc vth²_b g⁻_c.
                        ghat[..nf].fill(0.0);
                        surf.kernel.dmat.apply(
                            &alpha_face[..nf],
                            &trace[..nf],
                            1.0,
                            &mut ghat[..nf],
                        );
                        let (o_lo, o_hi) = out.cell_pair_mut(cell, cell + stride);
                        // ∫w ∇·F: upper face of the lower cell gains
                        // +T⁺Ĝ, lower face of the upper cell −T⁻Ĝ.
                        surf.kernel.face.lift(1, &ghat[..nf], self.nu * scale, o_lo);
                        surf.kernel
                            .face
                            .lift(-1, &ghat[..nf], -self.nu * scale, o_hi);
                    }
                }
            }
        }
    }

    /// Multiplicity estimate of the collisional update relative to the
    /// collisionless one (for the "collisions ≈ 2× cost" bench).
    pub fn nnz(&self) -> usize {
        self.drag_vol.iter().map(|t| t.nnz()).sum::<usize>()
            + self.diff_vol.iter().map(|t| t.nnz()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{maxwellian, Species};
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid};
    use dg_kernels::{kernels_for, PhaseLayout};

    fn setup(p: usize, nvx: usize) -> (Arc<PhaseKernels>, PhaseGrid, LboOp) {
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), p);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[2]),
            CartGrid::new(&[-8.0], &[8.0], &[nvx]),
            vec![Bc::Periodic],
        );
        let lbo = LboOp::new(Arc::clone(&kernels), grid.clone(), 0.5);
        (kernels, grid, lbo)
    }

    /// The per-cell sweep the pencil-group sweep replaced, kept as its
    /// reference: five whole-range loops per velocity direction over the
    /// scalar (one-lane) registry entries, with a phase-space-sized `g`.
    /// Adds drag + diffusion of `conf_range` into `out`, reading the
    /// primitive moments already in `ws`.
    fn scalar_cell_sweep(
        op: &LboOp,
        f: &DgField,
        out: &mut DgField,
        ws: &LboScratch,
        conf_range: std::ops::Range<usize>,
    ) {
        let ResolvedLbo::Generated(e) = op.path else {
            panic!("reference sweep needs the generated kernels");
        };
        let grid = &op.grid;
        let (nv, vdx, nu) = (grid.vel.len(), grid.vel.dx(), op.nu);
        let mut vidx = vec![0usize; grid.vdim()];
        let mut g = DgField::zeros(f.ncells(), f.ncoeff());
        for j in 0..grid.vdim() {
            let stride = grid.vel.stride(j);
            let n_j = grid.vel.cells()[j];
            for clin in conf_range.clone() {
                let uc = ws.u[j].cell(clin);
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, &mut vidx);
                    let vc = grid.vel.center(j, vidx[j]);
                    let cell = clin * nv + vlin;
                    (e.drag_vol[j])(nu, vc, vdx[j], uc, f.cell(cell), out.cell_mut(cell));
                }
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, &mut vidx);
                    if vidx[j] + 1 >= n_j {
                        continue;
                    }
                    let vstar = grid.vel.lower()[j] + (vidx[j] as f64 + 1.0) * vdx[j];
                    let lo = clin * nv + vlin;
                    let (o_lo, o_hi) = out.cell_pair_mut(lo, lo + stride);
                    (e.drag_surf[j])(
                        nu,
                        vstar,
                        vdx[j],
                        uc,
                        f.cell(lo),
                        f.cell(lo + stride),
                        o_lo,
                        o_hi,
                    );
                }
            }
            g.fill(0.0);
            for clin in conf_range.clone() {
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, &mut vidx);
                    let cell = clin * nv + vlin;
                    let at_upper = vidx[j] + 1 >= n_j;
                    let f_up = f.cell(if at_upper { cell } else { cell + stride });
                    (e.diff_grad[j])(vdx[j], at_upper, f.cell(cell), f_up, g.cell_mut(cell));
                }
            }
            for clin in conf_range.clone() {
                let tc = ws.vth2.cell(clin);
                for vlin in 0..nv {
                    grid.vel.delinearize(vlin, &mut vidx);
                    let cell = clin * nv + vlin;
                    (e.diff_vol[j])(nu, vdx[j], tc, g.cell(cell), out.cell_mut(cell));
                    if vidx[j] + 1 < n_j {
                        let (o_lo, o_hi) = out.cell_pair_mut(cell, cell + stride);
                        (e.diff_surf[j])(nu, vdx[j], tc, g.cell(cell), o_lo, o_hi);
                    }
                }
            }
        }
    }

    fn assert_bitwise(got: &DgField, want: &DgField, what: &str) {
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what}: coefficient {i} (cell {}): {a:e} vs {b:e}",
                i / got.ncoeff()
            );
        }
    }

    #[test]
    fn pencil_group_sweep_matches_scalar_cell_sweep_bitwise() {
        // Grids chosen to break the group schedule: 1x1v, where every
        // configuration cell is one pencil, with fewer pencils than lanes,
        // a group spanning cells and a partial last group (1, 2, 3, 5);
        // 1x2v with `n_j < LANES` in one direction and a transverse count
        // that is no multiple of `LANES` in either; one 2x2v case.
        type Case<'a> = ((usize, usize), usize, &'a [usize], &'a [usize]);
        let cases: [Case; 6] = [
            ((1, 1), 2, &[1], &[6]),
            ((1, 1), 2, &[2], &[6]),
            ((1, 1), 2, &[3], &[6]),
            ((1, 1), 1, &[5], &[4]),
            ((1, 2), 2, &[3], &[3, 5]),
            ((2, 2), 1, &[2, 2], &[2, 3]),
        ];
        for ((cdim, vdim), p, nconf, nvel) in cases {
            let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(cdim, vdim), p);
            let grid = PhaseGrid::new(
                CartGrid::new(&vec![0.0; cdim], &vec![1.0; cdim], nconf),
                CartGrid::new(&vec![-5.0; vdim], &vec![6.0; vdim], nvel),
                vec![Bc::Periodic; cdim],
            );
            let what = format!("{cdim}x{vdim}v p{p} conf {nconf:?} vel {nvel:?}");
            let op = LboOp::with_dispatch(
                Arc::clone(&kernels),
                grid.clone(),
                0.7,
                KernelDispatch::Generated,
            );
            // A positive, cell-to-cell different `f` (the weak divisions
            // need M0 > 0) and a non-zero incoming `out`.
            let mut sp = Species::new("e", -1.0, 1.0, &grid, kernels.np());
            sp.project_initial(&kernels, &grid, 4, &mut |x, v| {
                let drift: Vec<f64> = (0..v.len()).map(|d| 0.3 + 0.2 * d as f64).collect();
                (1.0 + 0.3 * (5.0 * x[0]).sin()) * maxwellian(1.0, &drift, 1.4, v)
            });
            let f = &sp.f;
            let mut out0 = DgField::zeros(f.ncells(), f.ncoeff());
            for (i, x) in out0.as_mut_slice().iter_mut().enumerate() {
                *x = ((i * 37 % 101) as f64 - 50.0) * 1e-3;
            }

            let nconf = grid.conf.len();
            let mut ws = op.make_scratch();
            let mut whole = out0.clone();
            op.accumulate_rhs_range(f, &mut whole, &mut ws, 0..nconf);
            let mut want = out0.clone();
            scalar_cell_sweep(&op, f, &mut want, &ws, 0..nconf);
            assert_bitwise(&whole, &want, &what);
            assert!(
                whole != out0 && whole.as_slice().iter().all(|x| x.is_finite()),
                "{what}: the sweep must do something finite"
            );

            // Every split of the range into two sub-ranges, each with its
            // own scratch, equals the whole-range call.
            for cut in 0..=nconf {
                let mut split = out0.clone();
                op.accumulate_rhs_range(f, &mut split, &mut op.make_scratch(), 0..cut);
                op.accumulate_rhs_range(f, &mut split, &mut op.make_scratch(), cut..nconf);
                assert_bitwise(&split, &whole, &format!("{what} split at {cut}"));
            }
        }
    }

    #[test]
    fn fused_primitive_moment_sweep_matches_the_three_sweeps_bitwise() {
        // One pass over `f` for M0 / M1_j / M2 against the three
        // single-moment sweeps it replaced, on both dispatch paths and on a
        // sub-range (cells outside it must stay untouched).
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 2), 2);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[4]),
            CartGrid::new(&[-5.0, -4.0], &[6.0, 5.0], &[5, 3]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("e", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 4, &mut |x, v| {
            (1.0 + 0.3 * (5.0 * x[0]).sin()) * maxwellian(1.0, &[0.3, -0.2], 1.4, v)
        });
        let (nconf, nc) = (grid.conf.len(), kernels.nc());
        let centers = crate::moments::vel_center_table(&grid);
        for dispatch in [KernelDispatch::Generated, KernelDispatch::RuntimeSparse] {
            let mut mom = MomentScratch::with_dispatch(&kernels, dispatch);
            for range in [0..nconf, 1..3] {
                let stale = || {
                    let mut m = DgField::zeros(nconf, nc);
                    m.fill(7.0);
                    m
                };
                let (mut m0, mut m2) = (stale(), stale());
                let mut m1 = [stale(), stale()];
                crate::moments::raw_moments_range_into(
                    &kernels,
                    &grid,
                    &centers,
                    &sp.f,
                    &mut m0,
                    &mut m1,
                    &mut m2,
                    &mom,
                    range.clone(),
                );
                let (mut w0, mut w2) = (stale(), stale());
                let mut w1 = [stale(), stale()];
                crate::moments::number_density_range_into(
                    &kernels,
                    &grid,
                    &sp.f,
                    &mut w0,
                    &mom,
                    range.clone(),
                );
                for (j, w) in w1.iter_mut().enumerate() {
                    crate::moments::momentum_density_range_into(
                        &kernels,
                        &grid,
                        &sp.f,
                        j,
                        w,
                        &mut mom,
                        range.clone(),
                    );
                }
                crate::moments::energy_density_range_into(
                    &kernels,
                    &grid,
                    &sp.f,
                    &mut w2,
                    &mut mom,
                    range.clone(),
                );
                let what = format!("{dispatch:?} {range:?}");
                assert_bitwise(&m0, &w0, &format!("M0 {what}"));
                assert_bitwise(&m1[0], &w1[0], &format!("M1_0 {what}"));
                assert_bitwise(&m1[1], &w1[1], &format!("M1_1 {what}"));
                assert_bitwise(&m2, &w2, &format!("M2 {what}"));
                assert!(m0.cell(1)[0] != 7.0, "range cells must be written");
            }
        }
    }

    #[test]
    fn maxwellian_is_near_equilibrium() {
        // C[Maxwellian] ≈ 0: the discrete residual is projection error that
        // shrinks rapidly with velocity resolution.
        let (k, grid, mut lbo) = setup(2, 16);
        let mut sp = Species::new("e", -1.0, 1.0, &grid, k.np());
        sp.project_initial(&k, &grid, 5, &mut |_x, v| maxwellian(1.0, &[0.4], 0.9, v));
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        lbo.accumulate_rhs(&sp.f, &mut out);
        let r16 = out.max_abs();

        let (k2, grid2, mut lbo2) = setup(2, 32);
        let mut sp2 = Species::new("e", -1.0, 1.0, &grid2, k2.np());
        sp2.project_initial(&k2, &grid2, 5, &mut |_x, v| maxwellian(1.0, &[0.4], 0.9, v));
        let mut out2 = DgField::zeros(sp2.f.ncells(), sp2.f.ncoeff());
        lbo2.accumulate_rhs(&sp2.f, &mut out2);
        let r32 = out2.max_abs();
        // Max-norm convergence is first-order (limited by the cut Maxwellian
        // tail at the velocity boundary); interior L2 converges faster.
        assert!(
            r32 < 0.6 * r16,
            "LBO residual on a Maxwellian must converge: {r16} → {r32}"
        );
    }

    #[test]
    fn density_is_conserved_exactly() {
        let (k, grid, mut lbo) = setup(2, 12);
        let mut sp = Species::new("e", -1.0, 1.0, &grid, k.np());
        // Decisively non-Maxwellian: two bumps.
        sp.project_initial(&k, &grid, 5, &mut |_x, v| {
            maxwellian(0.7, &[-2.0], 0.7, v) + maxwellian(0.3, &[2.5], 0.5, v)
        });
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        lbo.accumulate_rhs(&sp.f, &mut out);
        // d/dt ∫ f = 0: zero-flux boundaries + telescoping interior fluxes.
        let total: f64 = (0..out.ncells()).map(|c| out.cell(c)[0]).sum();
        let scale: f64 = (0..out.ncells()).map(|c| out.cell(c)[0].abs()).sum();
        assert!(
            total.abs() < 1e-11 * scale.max(1.0),
            "density leak {total} (scale {scale})"
        );
    }

    #[test]
    fn relaxes_toward_maxwellian() {
        // Forward-Euler a bi-Maxwellian; the L2 distance to the equivalent
        // Maxwellian must decrease.
        let (k, grid, mut lbo) = setup(1, 24);
        let mut sp = Species::new("e", -1.0, 1.0, &grid, k.np());
        sp.project_initial(&k, &grid, 5, &mut |_x, v| {
            maxwellian(0.5, &[-1.5], 0.6, v) + maxwellian(0.5, &[1.5], 0.6, v)
        });
        // Equivalent Maxwellian: n = 1, u = 0, vth² = 0.36 + 1.5² = 2.61.
        let mut meq = Species::new("m", -1.0, 1.0, &grid, k.np());
        meq.project_initial(&k, &grid, 5, &mut |_x, v| {
            maxwellian(1.0, &[0.0], 2.61f64.sqrt(), v)
        });
        let dist = |f: &DgField| -> f64 {
            f.as_slice()
                .iter()
                .zip(meq.f.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let d0 = dist(&sp.f);
        let dt = 5e-3;
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        for _ in 0..40 {
            out.fill(0.0);
            lbo.accumulate_rhs(&sp.f, &mut out);
            sp.f.axpy(dt, &out);
        }
        let d1 = dist(&sp.f);
        assert!(d1 < 0.9 * d0, "no relaxation: {d0} → {d1}");
    }

    #[test]
    fn momentum_and_energy_drift_converge_away() {
        // Discrete LBO without boundary corrections conserves M1/M2 only
        // approximately; the drift must shrink with velocity extent.
        let run = |vmax: f64| -> (f64, f64) {
            let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
            let grid = PhaseGrid::new(
                CartGrid::new(&[0.0], &[1.0], &[1]),
                CartGrid::new(&[-vmax], &[vmax], &[24]),
                vec![Bc::Periodic],
            );
            let mut lbo = LboOp::new(Arc::clone(&kernels), grid.clone(), 1.0);
            let mut sp = Species::new("e", -1.0, 1.0, &grid, kernels.np());
            sp.project_initial(&kernels, &grid, 5, &mut |_x, v| {
                maxwellian(1.0, &[0.8], 0.9, v)
            });
            let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
            lbo.accumulate_rhs(&sp.f, &mut out);
            let dm1 = crate::moments::momentum_density(&kernels, &grid, &out, 0);
            let dm2 = crate::moments::energy_density(&kernels, &grid, &out);
            let s1: f64 = (0..grid.conf.len()).map(|c| dm1.cell(c)[0]).sum();
            let s2: f64 = (0..grid.conf.len()).map(|c| dm2.cell(c)[0]).sum();
            (s1.abs(), s2.abs())
        };
        let (p_small, e_small) = run(6.0);
        let (p_big, e_big) = run(10.0);
        assert!(
            p_big < p_small + 1e-12,
            "momentum drift should not grow: {p_small} → {p_big}"
        );
        assert!(
            e_big < e_small + 1e-12,
            "energy drift should not grow: {e_small} → {e_big}"
        );
    }
}
