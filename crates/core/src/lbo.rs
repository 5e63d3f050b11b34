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

use dg_grid::{CellStoreMut, DgField, PhaseGrid};
use dg_kernels::codegen::{lbo_dir_tables, LboDirTables};
use dg_kernels::dispatch::{
    path_of, row_for, DispatchPath, KernelRow, LboBatch, LANES, RUNTIME_SPARSE_TAG,
};
use dg_kernels::panel::LanePanel;
use dg_kernels::sparse::SparseScratch;
use dg_kernels::weak::WeakDivScratch;
use dg_kernels::PhaseKernels;
use dg_telemetry::{span, Collector, Phase};
use std::sync::Arc;

use crate::moments::MomentScratch;

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
/// gradient lives for one pencil position at a time, on either path.
#[derive(Clone, Debug)]
pub struct LboScratch {
    /// Raw moments M0 / M1 (every direction, `vdim × Nc` per cell,
    /// direction-major) / M2.
    m0: DgField,
    m1: DgField,
    m2: DgField,
    /// Primitive moments u_j and vth².
    u: Vec<DgField>,
    vth2: DgField,
    /// The resident pencil group in SoA form — `f` and `out` of its
    /// pencils (`max_j n_j × Np` lane groups each), the LDG gradient
    /// `g = ∂f/∂v_j` of one position along them (`Np`), and the pencils'
    /// primitive moments `u_j` / `vth²` (`Nc` each) — sized for [`LANES`]
    /// pencils, viewed at the width the operator runs (one pencil on the
    /// runtime-sparse path).
    pencil_f: LanePanel,
    pencil_out: LanePanel,
    lane_g: LanePanel,
    lane_u: LanePanel,
    lane_vth2: LanePanel,
    /// Per-cell weak-algebra buffers (rhs of the vth² solve, weak
    /// products, scaled densities) — formerly `vec!`'d per cell.
    rhs: Vec<f64>,
    prod: Vec<f64>,
    dv_m0: Vec<f64>,
    /// Weak-division factorization scratch.
    div: WeakDivScratch,
    /// The runtime sparse-tensor evaluator's scratch.
    sparse: SparseScratch,
    mom: MomentScratch,
    /// Telemetry writer for this scratch's thread (noop unless the
    /// backend instruments the run).
    pub probe: Collector,
}

impl LboScratch {
    // dg-analyze: allow(hot_alloc) — scratch constructor: every field/buffer persists across calls
    fn new(kernels: &PhaseKernels, grid: &PhaseGrid, row: Option<&'static KernelRow>) -> Self {
        let nconf = grid.conf.len();
        let (nc, np, vdim) = (kernels.nc(), kernels.np(), kernels.layout.vdim);
        let pencil = |groups: usize| LanePanel::zeros(groups * LANES);
        let longest = grid.vel.cells().iter().copied().max().unwrap_or(0);
        LboScratch {
            m0: DgField::zeros(nconf, nc),
            m1: DgField::zeros(nconf, vdim * nc),
            m2: DgField::zeros(nconf, nc),
            u: (0..vdim).map(|_| DgField::zeros(nconf, nc)).collect(),
            vth2: DgField::zeros(nconf, nc),
            pencil_f: pencil(longest * np),
            pencil_out: pencil(longest * np),
            lane_g: pencil(np),
            lane_u: pencil(nc),
            lane_vth2: pencil(nc),
            rhs: vec![0.0; nc],
            prod: vec![0.0; nc],
            dv_m0: vec![0.0; nc],
            div: WeakDivScratch::new(nc),
            sparse: SparseScratch::for_kernels(kernels),
            // The moment path follows the operator's row, so the
            // runtime-sparse oracle runs its moments on that path too.
            mom: MomentScratch::with_row(row),
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

/// The five LBO stages of one velocity direction at lane width `L`, as a
/// registry row's batched entry points ([`LboBatch`], [`LANES`] pencils) and
/// the runtime sparse-tensor evaluator ([`LboDirTables`], one pencil) each
/// provide them, in the generated calling conventions over panels. The
/// pencil-group sweep is written once over this trait; `sc` is the
/// evaluator's scratch, which the generated entry points ignore.
#[allow(clippy::too_many_arguments)]
trait LboEval<const L: usize> {
    fn drag_vol(
        &self,
        nu: f64,
        v_c: f64,
        dv: f64,
        u: &[[f64; L]],
        f: &[[f64; L]],
        out: &mut [[f64; L]],
        sc: &mut SparseScratch,
    );
    fn drag_surf(
        &self,
        nu: f64,
        vstar: f64,
        dv: f64,
        u: &[[f64; L]],
        f_lo: &[[f64; L]],
        f_hi: &[[f64; L]],
        out_lo: &mut [[f64; L]],
        out_hi: &mut [[f64; L]],
        sc: &mut SparseScratch,
    );
    fn diff_grad(
        &self,
        dv: f64,
        at_upper: bool,
        f: &[[f64; L]],
        f_up: &[[f64; L]],
        g: &mut [[f64; L]],
        sc: &mut SparseScratch,
    );
    fn diff_vol(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[[f64; L]],
        g: &[[f64; L]],
        out: &mut [[f64; L]],
        sc: &mut SparseScratch,
    );
    fn diff_surf(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[[f64; L]],
        g_lo: &[[f64; L]],
        out_lo: &mut [[f64; L]],
        out_hi: &mut [[f64; L]],
        sc: &mut SparseScratch,
    );
}

#[allow(clippy::too_many_arguments)]
impl LboEval<LANES> for LboBatch {
    #[inline]
    fn drag_vol(
        &self,
        nu: f64,
        v_c: f64,
        dv: f64,
        u: &[[f64; LANES]],
        f: &[[f64; LANES]],
        out: &mut [[f64; LANES]],
        _: &mut SparseScratch,
    ) {
        LboBatch::drag_vol(self, nu, v_c, dv, u, f, out)
    }
    #[inline]
    fn drag_surf(
        &self,
        nu: f64,
        vstar: f64,
        dv: f64,
        u: &[[f64; LANES]],
        f_lo: &[[f64; LANES]],
        f_hi: &[[f64; LANES]],
        out_lo: &mut [[f64; LANES]],
        out_hi: &mut [[f64; LANES]],
        _: &mut SparseScratch,
    ) {
        LboBatch::drag_surf(self, nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
    }
    #[inline]
    fn diff_grad(
        &self,
        dv: f64,
        at_upper: bool,
        f: &[[f64; LANES]],
        f_up: &[[f64; LANES]],
        g: &mut [[f64; LANES]],
        _: &mut SparseScratch,
    ) {
        LboBatch::diff_grad(self, dv, at_upper, f, f_up, g)
    }
    #[inline]
    fn diff_vol(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[[f64; LANES]],
        g: &[[f64; LANES]],
        out: &mut [[f64; LANES]],
        _: &mut SparseScratch,
    ) {
        LboBatch::diff_vol(self, nu, dv, vth2, g, out)
    }
    #[inline]
    fn diff_surf(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[[f64; LANES]],
        g_lo: &[[f64; LANES]],
        out_lo: &mut [[f64; LANES]],
        out_hi: &mut [[f64; LANES]],
        _: &mut SparseScratch,
    ) {
        LboBatch::diff_surf(self, nu, dv, vth2, g_lo, out_lo, out_hi)
    }
}

/// One pencil: an `[[f64; 1]]` panel is a plain slice.
#[allow(clippy::too_many_arguments)]
impl LboEval<1> for LboDirTables {
    fn drag_vol(
        &self,
        nu: f64,
        v_c: f64,
        dv: f64,
        u: &[[f64; 1]],
        f: &[[f64; 1]],
        out: &mut [[f64; 1]],
        sc: &mut SparseScratch,
    ) {
        let (u, f) = (u.as_flattened(), f.as_flattened());
        LboDirTables::drag_vol(self, nu, v_c, dv, u, f, out.as_flattened_mut(), sc)
    }
    fn drag_surf(
        &self,
        nu: f64,
        vstar: f64,
        dv: f64,
        u: &[[f64; 1]],
        f_lo: &[[f64; 1]],
        f_hi: &[[f64; 1]],
        out_lo: &mut [[f64; 1]],
        out_hi: &mut [[f64; 1]],
        sc: &mut SparseScratch,
    ) {
        let (u, f_lo, f_hi) = (u.as_flattened(), f_lo.as_flattened(), f_hi.as_flattened());
        let (out_lo, out_hi) = (out_lo.as_flattened_mut(), out_hi.as_flattened_mut());
        LboDirTables::drag_surf(self, nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi, sc)
    }
    fn diff_grad(
        &self,
        dv: f64,
        at_upper: bool,
        f: &[[f64; 1]],
        f_up: &[[f64; 1]],
        g: &mut [[f64; 1]],
        sc: &mut SparseScratch,
    ) {
        let (f, f_up, g) = (f.as_flattened(), f_up.as_flattened(), g.as_flattened_mut());
        LboDirTables::diff_grad(self, dv, at_upper, f, f_up, g, sc)
    }
    fn diff_vol(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[[f64; 1]],
        g: &[[f64; 1]],
        out: &mut [[f64; 1]],
        sc: &mut SparseScratch,
    ) {
        let (vth2, g) = (vth2.as_flattened(), g.as_flattened());
        LboDirTables::diff_vol(self, nu, dv, vth2, g, out.as_flattened_mut(), sc)
    }
    fn diff_surf(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[[f64; 1]],
        g_lo: &[[f64; 1]],
        out_lo: &mut [[f64; 1]],
        out_hi: &mut [[f64; 1]],
        sc: &mut SparseScratch,
    ) {
        let (vth2, g_lo) = (vth2.as_flattened(), g_lo.as_flattened());
        let (out_lo, out_hi) = (out_lo.as_flattened_mut(), out_hi.as_flattened_mut());
        LboDirTables::diff_surf(self, nu, dv, vth2, g_lo, out_lo, out_hi, sc)
    }
}

/// The stage kernels of every velocity direction, resolved from the
/// registry row once: the batched entry points chosen for this CPU, or —
/// without a row — the runtime evaluator's tables, built by the generator's
/// own [`lbo_dir_tables`].
enum LboStages {
    X4(Vec<LboBatch>),
    X1(Vec<LboDirTables>),
}

/// Copy one cell's coefficients into lane `lane` of an SoA panel.
#[inline]
fn pack_lane<const L: usize>(panel: &mut [[f64; L]], lane: usize, cell: &[f64]) {
    for (p, &c) in panel.iter_mut().zip(cell) {
        p[lane] = c;
    }
}

/// Copy lane `lane` of an SoA panel back into one cell's coefficients.
#[inline]
fn store_lane<const L: usize>(cell: &mut [f64], panel: &[[f64; L]], lane: usize) {
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
    /// The configuration's registry row, looked up once at construction:
    /// `Some` runs the generated stage kernels, `None` the runtime path.
    row: Option<&'static KernelRow>,
    /// The stage kernels of every velocity direction, resolved with `row`.
    stages: LboStages,
    /// Per velocity direction `j`: the linear velocity index of every
    /// `v_j`-pencil's first cell (index 0 along `v_j`), ascending; the
    /// pencil's cell `i` is `i · stride(j)` above.
    pencils: Vec<Vec<u32>>,
}

impl LboOp {
    /// The operator on the path its configuration decides: the generated
    /// stage kernels when the registry has a row for it, the runtime
    /// sparse-tensor path otherwise.
    pub fn new(kernels: Arc<PhaseKernels>, grid: PhaseGrid, nu: f64) -> Self {
        let row = row_for(&kernels);
        Self::with_row(kernels, grid, nu, row)
    }

    /// Like [`LboOp::new`] on an explicit registry row — the test seam:
    /// `None` on a registered configuration is the runtime-sparse oracle.
    // dg-analyze: allow(hot_alloc) — operator constructor: per-direction tables are precomputed once
    pub fn with_row(
        kernels: Arc<PhaseKernels>,
        grid: PhaseGrid,
        nu: f64,
        row: Option<&'static KernelRow>,
    ) -> Self {
        let vdim = kernels.layout.vdim;
        let stages = match row {
            Some(row) => LboStages::X4((0..vdim).map(|j| LboBatch::select(&row.lbo, j)).collect()),
            None => LboStages::X1((0..vdim).map(|j| lbo_dir_tables(&kernels, j)).collect()),
        };
        let pencils = (0..vdim)
            .map(|j| {
                // Row-major velocity grid: the cells with index 0 along
                // `v_j` are the first `stride` of every `n_j · stride`.
                let stride = grid.vel.stride(j);
                let period = grid.vel.cells()[j] * stride;
                (0..grid.vel.len())
                    .filter(|vlin| vlin % period < stride)
                    .map(|vlin| vlin as u32)
                    .collect()
            })
            .collect();
        let scratch = Some(LboScratch::new(&kernels, &grid, row));
        LboOp {
            kernels,
            grid,
            nu,
            scratch,
            row,
            stages,
            pencils,
        }
    }

    /// This operator rebuilt on the runtime sparse-tensor path (see
    /// `VlasovMaxwell::into_runtime_sparse`).
    // dg-analyze: allow(hot_alloc) — operator constructor, runs once per oracle system
    pub(crate) fn runtime_sparse_twin(&self) -> Self {
        Self::with_row(Arc::clone(&self.kernels), self.grid.clone(), self.nu, None)
    }

    /// Which LBO kernel path this operator runs.
    pub fn dispatch_path(&self) -> DispatchPath {
        path_of(self.row)
    }

    /// The entry points the sweep runs (`generated/avx2x4`, …, or
    /// `runtime-sparse`) — what this operator resolved, which need not be
    /// what the Vlasov operator beside it runs.
    pub fn kernel_entry_points(&self) -> &'static str {
        match &self.stages {
            LboStages::X4(batch) => batch[0].isa().tag(),
            LboStages::X1(_) => RUNTIME_SPARSE_TAG,
        }
    }

    /// A fresh scratch instance sized for this operator — one per thread
    /// in the cell-block parallel sweep.
    pub fn make_scratch(&self) -> LboScratch {
        LboScratch::new(&self.kernels, &self.grid, self.row)
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
                    &ws.m1.cell(c)[j * nc..(j + 1) * nc],
                    ws.u[j].cell_mut(c),
                    &mut ws.div,
                );
            }
            // vth² · (d_v M0) = M2 − Σ_j u_j ⊙ M1_j (weak products).
            ws.rhs.copy_from_slice(ws.m2.cell(c));
            for j in 0..vdim {
                ws.prod.fill(0.0);
                let m1j = &ws.m1.cell(c)[j * nc..(j + 1) * nc];
                k.weak.multiply_acc(ws.u[j].cell(c), m1j, &mut ws.prod);
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

        // Stages resolved once at construction, never per cell.
        match &self.stages {
            LboStages::X4(batch) => self.sweep_pencil_groups(batch, f, out, ws, conf_range),
            LboStages::X1(tables) => self.sweep_pencil_groups(tables, f, out, ws, conf_range),
        }
    }

    /// Drag + diffusion of every velocity direction by **pencil groups**,
    /// at the stages' lane width `L` ([`LANES`] generated, one pencil on
    /// the runtime path). For direction `j` the range's `v_j`-pencils
    /// (`conf_range` × the transverse velocity cells, in ascending cell
    /// order) are taken `L` at a time; the group's `f` *and* `out` are
    /// packed once into SoA panels, the stage kernels walk along the
    /// pencils, and `out` is stored back — three cell-moves per cell and
    /// direction, and the LDG gradient `g` is one `Np` panel that never
    /// touches memory.
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
    fn sweep_pencil_groups<const L: usize, E: LboEval<L>, S: CellStoreMut>(
        &self,
        stages: &[E],
        f: &DgField,
        out: &mut S,
        ws: &mut LboScratch,
        conf_range: std::ops::Range<usize>,
    ) {
        let grid = &self.grid;
        let nu = self.nu;
        let (np, nc, nv) = (self.kernels.np(), self.kernels.nc(), grid.vel.len());
        let probe = &ws.probe;
        let sc = &mut ws.sparse;
        let pf = ws.pencil_f.lanes_mut::<L>();
        let po = ws.pencil_out.lanes_mut::<L>();
        let g = &mut ws.lane_g.lanes_mut::<L>()[..np];
        let lane_u = &mut ws.lane_u.lanes_mut::<L>()[..nc];
        let lane_vth2 = &mut ws.lane_vth2.lanes_mut::<L>()[..nc];
        for (j, (bases, batch)) in self.pencils.iter().zip(stages).enumerate() {
            let (u, vth2) = (&ws.u[j], &ws.vth2);
            let dv = grid.vel.dx()[j];
            let stride = grid.vel.stride(j);
            let n = grid.vel.cells()[j];
            let per_conf = bases.len();
            // Position `i` of the group's pencils in its panels.
            let at = |i: usize| i * np..(i + 1) * np;
            let end = conf_range.end * per_conf;
            for first in (conf_range.start * per_conf..end).step_by(L) {
                let lanes = L.min(end - first);
                // First phase cell of each lane's pencil.
                let mut base = [0usize; L];
                {
                    // Pack (drag's share of the cell-moves).
                    span!(probe, Phase::LboDrag);
                    for (lane, b) in base.iter_mut().enumerate() {
                        let p = first + lane.min(lanes - 1);
                        let clin = p / per_conf;
                        *b = clin * nv + bases[p % per_conf] as usize;
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
                        batch.drag_vol(nu, vc, dv, lane_u, &pf[at(i)], &mut po[at(i)], sc);
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
                            sc,
                        );
                    }
                }

                // ---- Diffusion, LDG: g = ∂f/∂v_j with the trace from
                // above, then out += ν ∇·(vth² g) with the trace from below
                // and zero flux at the velocity boundaries ----
                span!(probe, Phase::LboDiff);
                for i in 0..n {
                    g.fill([0.0; L]);
                    let at_upper = i + 1 == n;
                    // `f_up` is ignored at the boundary; pass the position
                    // itself to keep the call uniform.
                    let f_up = if at_upper { at(i) } else { at(i + 1) };
                    batch.diff_grad(dv, at_upper, &pf[at(i)], &pf[f_up], g, sc);
                    if at_upper {
                        batch.diff_vol(nu, dv, lane_vth2, g, &mut po[at(i)], sc);
                    } else {
                        let (o_lo, o_hi) = po[i * np..(i + 2) * np].split_at_mut(np);
                        batch.diff_vol(nu, dv, lane_vth2, g, o_lo, sc);
                        // Upper interior face: Ĝ = (vth² g)⁻.
                        batch.diff_surf(nu, dv, lane_vth2, g, o_lo, o_hi, sc);
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
        let Some(KernelRow { lbo: e, .. }) = op.row else {
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
            let op = LboOp::new(Arc::clone(&kernels), grid.clone(), 0.7);
            assert_eq!(op.dispatch_path(), DispatchPath::Generated, "{what}");
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
            // own scratch, equals the whole-range call — also on the
            // runtime path, whose one-pencil groups the same sweep runs.
            let sparse = op.runtime_sparse_twin();
            for op in [&op, &sparse] {
                let mut whole = out0.clone();
                op.accumulate_rhs_range(f, &mut whole, &mut op.make_scratch(), 0..nconf);
                for cut in 0..=nconf {
                    let mut split = out0.clone();
                    op.accumulate_rhs_range(f, &mut split, &mut op.make_scratch(), 0..cut);
                    op.accumulate_rhs_range(f, &mut split, &mut op.make_scratch(), cut..nconf);
                    let path = op.kernel_entry_points();
                    assert_bitwise(&split, &whole, &format!("{what} {path} split at {cut}"));
                }
            }
        }
    }

    #[test]
    fn fused_primitive_moment_sweep_matches_the_three_sweeps_bitwise() {
        // One call per configuration cell for M0 / M1 / M2 against the
        // three single-moment sweeps and against the per-phase-cell loop of
        // `MomentKernels`' accumulates (centres from `CartGrid::center`),
        // on both kernel paths and on a sub-range (cells outside it must
        // stay untouched).
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
        let (nconf, nc, nv) = (grid.conf.len(), kernels.nc(), grid.vel.len());
        let stale = |ncoeff: usize| {
            let mut m = DgField::zeros(nconf, ncoeff);
            m.fill(7.0);
            m
        };
        for row in [row_for(&kernels), None] {
            let mom = MomentScratch::with_row(row);
            for range in [0..nconf, 1..3] {
                let (mut m0, mut m1, mut m2) = (stale(nc), stale(2 * nc), stale(nc));
                crate::moments::raw_moments_range_into(
                    &kernels,
                    &grid,
                    &sp.f,
                    &mut m0,
                    &mut m1,
                    &mut m2,
                    &mom,
                    range.clone(),
                );
                let (mut w0, mut w1, mut w2) = (stale(nc), stale(2 * nc), stale(nc));
                crate::moments::number_density_range_into(
                    &kernels,
                    &grid,
                    &sp.f,
                    &mut w0,
                    &mom,
                    range.clone(),
                );
                crate::moments::momentum_density_range_into(
                    &kernels,
                    &grid,
                    &sp.f,
                    &mut w1,
                    &mom,
                    range.clone(),
                );
                crate::moments::energy_density_range_into(
                    &kernels,
                    &grid,
                    &sp.f,
                    &mut w2,
                    &mom,
                    range.clone(),
                );
                let (mut c0, mut c1, mut c2) = (stale(nc), stale(2 * nc), stale(nc));
                let mk = &kernels.moments;
                let (jv, dv) = (grid.vel_jacobian(), grid.vel.dx());
                let mut vidx = [0usize; 2];
                for clin in range.clone() {
                    c0.cell_mut(clin).fill(0.0);
                    c1.cell_mut(clin).fill(0.0);
                    c2.cell_mut(clin).fill(0.0);
                    for vlin in 0..nv {
                        grid.vel.delinearize(vlin, &mut vidx);
                        let vc = [grid.vel.center(0, vidx[0]), grid.vel.center(1, vidx[1])];
                        let fc = sp.f.cell(clin * nv + vlin);
                        mk.accumulate_m0(fc, jv, c0.cell_mut(clin));
                        for j in 0..2 {
                            let m1j = &mut c1.cell_mut(clin)[j * nc..(j + 1) * nc];
                            mk.accumulate_m1(j, fc, jv, vc[j], dv[j], m1j);
                        }
                        mk.accumulate_m2(fc, jv, &vc, dv, c2.cell_mut(clin));
                    }
                }
                let what = format!("{:?} {range:?}", mom.dispatch_path());
                let all = [
                    (&m0, &w0, &c0, "M0"),
                    (&m1, &w1, &c1, "M1"),
                    (&m2, &w2, &c2, "M2"),
                ];
                for (fused, sweep, per_cell, name) in all {
                    assert_bitwise(fused, sweep, &format!("{name} {what} vs its sweep"));
                    assert_bitwise(fused, per_cell, &format!("{name} {what} vs per-cell"));
                }
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
            let dm1 = crate::moments::momentum_density(&kernels, &grid, &out);
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
