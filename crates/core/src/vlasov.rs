//! The collisionless Vlasov phase-space update.
//!
//! Per phase-space cell the semi-discrete RHS is (paper Eq. 12)
//!
//! ```text
//! df_l/dt = Σ_dir (2/Δ_dir) [ Σ_mn C^dir_lmn α^dir_m f_n − (T⁺ Ĝ^up − T⁻ Ĝ^lo)_l ]
//! ```
//!
//! evaluated with the sparse exact kernels of `dg-kernels`. The loop
//! structure mirrors the physics:
//!
//! * **volume** — per cell: streaming (affine `α = v`) plus acceleration
//!   (projected `q/m (E + v×B)`);
//! * **configuration-direction surfaces** — faces between neighbouring
//!   configuration cells at fixed velocity cell; `α̂ = v_d` is exact and
//!   single-valued, the penalty speed is the exact `max |v_d|` on the face;
//! * **velocity-direction surfaces** — faces between velocity cells inside
//!   one configuration cell; `α̂` is projected once per *pencil* (it cannot
//!   depend on the face's own velocity coordinate) and reused along it;
//!   the outermost velocity faces use zero flux (particle conservation).
//!
//! Non-periodic configuration boundaries do not skip their faces: each
//! wall face synthesizes a **ghost state** into workspace scratch
//! ([`VlasovWorkspace`]) — vacuum for [`Bc::Absorb`], the even mirror of
//! the interior for [`Bc::Copy`], the velocity-parity-mapped mirror of the
//! reflected velocity cell for [`Bc::Reflect`] — and runs the ordinary
//! single-valued numerical flux against it, staging the interior update so
//! the net wall flux (mass and energy) is recorded in the workspace's
//! [`WallAccum`] ledger as a by-product.
//!
//! Each public method takes an explicit configuration-cell range so the
//! shared-memory layer (`dg-parallel`) can partition work without ghost
//! layers — the paper's intra-node decomposition.
//!
//! Those methods are the per-phase sweeps. The coupled RHS runs the volume
//! and every configuration face — and on one velocity dimension the
//! velocity faces too — as one **cell-lane pass** instead
//! (`VlasovOp::accumulate_block_rhs`): each run of velocity cells is
//! packed once per configuration cell, every kernel accumulates into
//! resident panels, and each cell's panel is added into `out` once.

// Stencil/loop style: index-coupled stencil sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use dg_grid::{Bc, CellStoreMut, DgField, DimBc, PhaseGrid};
use dg_kernels::accel::VelGeom;
use dg_kernels::dispatch::{
    DispatchPath, KernelDispatch, ResolvedSurface, ResolvedSurfaceDir, ResolvedVolume,
    SurfaceBatch, SurfaceKernelEntry, SurfaceKernelFn, SurfaceLanes, VolumeBatch, VolumeLanes,
};
use dg_kernels::ops::OpReport;
use dg_kernels::panel::LanePanel;
use dg_kernels::surface::FaceScratch;
use dg_kernels::PhaseKernels;
use dg_maxwell::NCOMP;
use dg_poly::MAX_DIM;
use dg_telemetry::{span, Collector, Counter, Phase, SpanGuard};
use std::ops::Range;
use std::sync::Arc;

/// Interface flux for the kinetic equation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FluxKind {
    /// Local Lax–Friedrichs (penalty) flux — robust default, as in Gkeyll.
    Upwind,
    /// Central flux — no phase-space dissipation; used in the
    /// energy-conservation experiments.
    Central,
}

/// Per-(configuration direction, wall side) mass/energy buckets — the one
/// container behind every stage of the wall-flux ledger. Side index `0`
/// is the lower wall, `1` the upper. The *units* depend on where a value
/// sits in the pipeline:
///
/// * sweep accumulators ([`VlasovWorkspace::wall`]): raw basis units —
///   `mass[d][s]` sums the interior cells' mode-0 RHS updates at the
///   wall, `energy[d][s]` the conf-mode-0 `M2` reduction of the same
///   updates;
/// * `VlasovMaxwell::wall_rates` / `wall_totals` (re-exported there as
///   `WallChannels`): physical units — rate (resp. accumulated change)
///   of the species' particle count and kinetic energy; negative = the
///   domain is losing content through that wall.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WallAccum {
    pub mass: Vec<[f64; 2]>,
    pub energy: Vec<[f64; 2]>,
}

impl WallAccum {
    // dg-analyze: allow(hot_alloc) — ledger constructor, two tiny Vecs built once per workspace
    pub fn for_cdim(cdim: usize) -> Self {
        WallAccum {
            mass: vec![[0.0; 2]; cdim],
            energy: vec![[0.0; 2]; cdim],
        }
    }

    pub fn reset(&mut self) {
        self.mass.fill([0.0; 2]);
        self.energy.fill([0.0; 2]);
    }

    /// `self += other` (rank-reduction of per-rank partial sums).
    pub fn add(&mut self, other: &WallAccum) {
        self.axpy(1.0, other);
    }

    /// `self += a · other` — the steppers fold stage rates into the
    /// time-integrated ledger with the SSP-RK3 stage weights.
    pub fn axpy(&mut self, a: f64, other: &WallAccum) {
        for (x, y) in self.mass.iter_mut().zip(&other.mass) {
            x[0] += a * y[0];
            x[1] += a * y[1];
        }
        for (x, y) in self.energy.iter_mut().zip(&other.energy) {
            x[0] += a * y[0];
            x[1] += a * y[1];
        }
    }

    pub fn copy_from(&mut self, other: &WallAccum) {
        self.mass.copy_from_slice(&other.mass);
        self.energy.copy_from_slice(&other.energy);
    }

    /// Net mass change over all walls.
    pub fn net_mass(&self) -> f64 {
        self.mass.iter().map(|s| s[0] + s[1]).sum()
    }

    /// Net energy change over all walls.
    pub fn net_energy(&self) -> f64 {
        self.energy.iter().map(|s| s[0] + s[1]).sum()
    }
}

/// Per-thread scratch for the Vlasov update (no allocation in the loops —
/// every buffer, including the face scratch and the wall-ghost staging,
/// is sized here once).
#[derive(Clone, Debug, Default)]
pub struct VlasovWorkspace {
    alpha: Vec<f64>,
    stage: FaceStage,
    /// SoA panels for the batched volume kernel: cell centers (`ndim`
    /// coordinates × the velocity cells of one panel), distribution
    /// coefficients, and the zero-initialized accumulation panel whose
    /// lanes are unpacked into `out` (phase-dim / `Np` / `Np` lane
    /// groups). Sized for the widest entry point there is; a sweep views
    /// them at the lane width its operator resolved.
    panel_w: LanePanel,
    panel_f: LanePanel,
    panel_out: LanePanel,
    /// Second coefficient/accumulation panels for the batched *surface*
    /// kernels (the upper side of each face; `panel_f`/`panel_out` carry
    /// the lower side).
    panel_f2: LanePanel,
    panel_out2: LanePanel,
    /// The cell-lane pass's resident panels, `Np` lane groups per
    /// configuration cell: `f` of every cell its block reads (own cells,
    /// then the dim-0 halo slices — see [`PassSlots`]) and one accumulation
    /// panel per own cell. Grown to the block on its first pass.
    cell_f: LanePanel,
    cell_out: LanePanel,
    /// Wall-flux ledger accumulators, filled by the configuration-surface
    /// sweep; reset by [`VlasovOp::accumulate_rhs`] and
    /// [`crate::blocks::block_rhs`] (or manually when driving the sweep
    /// methods directly).
    pub wall: WallAccum,
    /// Telemetry writer for this workspace's thread (noop unless the
    /// backend instruments the run; see `dg_telemetry`).
    pub probe: Collector,
}

/// One-cell face staging: the single-cell periodic wrap (both sides are
/// the same cell), the interior side of every wall face and the runtime
/// path's faces are computed here, then added to their cell — or to its
/// lane of a pass panel — instead of allocating per velocity cell.
#[derive(Clone, Debug, Default)]
struct FaceStage {
    alpha_face: Vec<f64>,
    face: FaceScratch,
    tmp_lo: Vec<f64>,
    tmp_hi: Vec<f64>,
    /// Synthesized ghost-cell coefficients for wall faces.
    ghost: Vec<f64>,
    /// `M2` reduction scratch for the wall energy ledger (conf-basis
    /// length).
    wall_m2: Vec<f64>,
}

impl VlasovWorkspace {
    // dg-analyze: allow(hot_alloc) — workspace constructor: every buffer here persists across RHS calls
    pub fn for_kernels(k: &PhaseKernels) -> Self {
        let mut face = FaceScratch::default();
        face.ensure(k.max_face_len());
        VlasovWorkspace {
            alpha: vec![0.0; k.np()],
            stage: FaceStage {
                alpha_face: vec![0.0; k.max_face_len()],
                face,
                tmp_lo: vec![0.0; k.np()],
                tmp_hi: vec![0.0; k.np()],
                ghost: vec![0.0; k.np()],
                wall_m2: vec![0.0; k.nc()],
            },
            panel_w: LanePanel::zeros(k.layout.ndim() * MAX_LANES),
            panel_f: LanePanel::zeros(k.np() * MAX_LANES),
            panel_out: LanePanel::zeros(k.np() * MAX_LANES),
            panel_f2: LanePanel::zeros(k.np() * MAX_LANES),
            panel_out2: LanePanel::zeros(k.np() * MAX_LANES),
            cell_f: LanePanel::default(),
            cell_out: LanePanel::default(),
            wall: WallAccum::for_cdim(k.layout.cdim),
            probe: Collector::Noop,
        }
    }
}

/// The widest panel a resolved entry point sweeps (`_b8_avx512`).
const MAX_LANES: usize = 8;

/// The workspace panels viewed at one lane width: cell centers (`ndim`
/// lane groups), then coefficients and accumulated increments (`Np` lane
/// groups each) of the lower — or only — and the upper side.
struct Panels<'a, const L: usize> {
    w: &'a mut [[f64; L]],
    f: [&'a mut [[f64; L]]; 2],
    out: [&'a mut [[f64; L]]; 2],
}

impl VlasovWorkspace {
    fn panels<const L: usize>(&mut self, k: &PhaseKernels) -> Panels<'_, L> {
        let np = k.np();
        Panels {
            w: &mut self.panel_w.lanes_mut()[..k.layout.ndim()],
            f: [
                &mut self.panel_f.lanes_mut()[..np],
                &mut self.panel_f2.lanes_mut()[..np],
            ],
            out: [
                &mut self.panel_out.lanes_mut()[..np],
                &mut self.panel_out2.lanes_mut()[..np],
            ],
        }
    }
}

/// The entry points of the cell-lane pass at one lane width: the volume
/// kernel as resolved, and every configuration direction's face kernel
/// compiled for the same ISA — so on AVX-512 the pass runs its faces at 8
/// lanes, where the per-phase [`VlasovOp::surface_config`] stops at 4.
#[derive(Clone, Debug)]
struct CellKernels<const L: usize> {
    volume: VolumeLanes<L>,
    faces: Vec<SurfaceLanes<L>>,
    /// The velocity direction's face kernel when there is one velocity
    /// direction, whose faces then join the pass ([`VlasovOp::cell_pass`]).
    velocity: Option<SurfaceLanes<L>>,
    /// The one-lane face kernels (every phase direction), for walls and
    /// the single-cell periodic wrap.
    scalar: &'static [SurfaceKernelFn],
}

/// [`CellKernels`] at the width the volume kernel resolved to; an operator
/// has one when both its volume and surface paths are generated.
#[derive(Clone, Debug)]
enum CellPass {
    X4(CellKernels<4>),
    X8(CellKernels<8>),
}

impl CellPass {
    // dg-analyze: allow(hot_alloc) — operator constructor: each direction's entry point is resolved once
    fn new(
        volume: VolumeBatch,
        surface: &'static SurfaceKernelEntry,
        cdim: usize,
        vdim: usize,
    ) -> Self {
        let face = |d| {
            SurfaceBatch::for_isa(surface, d, volume.isa())
                .expect("the volume's ISA is on this CPU")
        };
        let x4 = |d| match face(d) {
            SurfaceBatch::X4(k) => k,
            SurfaceBatch::X8(_) => unreachable!("one ISA, one lane width"),
        };
        let x8 = |d| match face(d) {
            SurfaceBatch::X8(k) => k,
            SurfaceBatch::X4(_) => unreachable!("one ISA, one lane width"),
        };
        let scalar = surface.dirs;
        let one_v = vdim == 1;
        match volume {
            VolumeBatch::X4(volume) => CellPass::X4(CellKernels {
                volume,
                faces: (0..cdim).map(x4).collect(),
                velocity: one_v.then(|| x4(cdim)),
                scalar,
            }),
            VolumeBatch::X8(volume) => CellPass::X8(CellKernels {
                volume,
                faces: (0..cdim).map(x8).collect(),
                velocity: one_v.then(|| x8(cdim)),
                scalar,
            }),
        }
    }
}

/// Which sides of a configuration face a cell block owns, and so writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Owns {
    Both,
    Lower,
    Upper,
}

/// One step of a block's configuration-face schedule
/// ([`VlasovOp::conf_faces`]).
#[derive(Clone, Copy, Debug)]
enum ConfFace {
    /// The wall face of direction `d` at boundary cell `clin`; `side` is
    /// `-1` for the lower wall, `+1` for the upper.
    Wall {
        d: usize,
        side: i32,
        bc: Bc,
        clin: usize,
    },
    /// The face between configuration cells `clo` and `chi` along `d`
    /// (the same cell for a single-cell periodic direction).
    Pair {
        d: usize,
        clo: usize,
        chi: usize,
        owns: Owns,
    },
}

/// Where the cell-lane pass keeps a configuration cell's `f` panel: the
/// block's own cells first, in order, then the dim-0 slices just below and
/// above it — periodic wrap partner included — when they lie outside it.
/// Accumulation panels exist for own cells only, in the same order.
struct PassSlots {
    own: Range<usize>,
    stride0: usize,
    halo: [Option<usize>; 2],
}

impl PassSlots {
    fn new(grid: &PhaseGrid, block: &Range<usize>, bc0: DimBc) -> Self {
        let n0 = grid.conf.cells()[0];
        let stride0 = grid.conf.len() / n0;
        let periodic = bc0.is_periodic();
        let below = match block.start {
            0 => periodic.then(|| n0 - 1),
            i0 => Some(i0 - 1),
        };
        let above = if block.end < n0 {
            Some(block.end)
        } else {
            periodic.then_some(0)
        };
        let below = below.filter(|i0| !block.contains(i0));
        let above = above.filter(|i0| !block.contains(i0) && Some(*i0) != below);
        PassSlots {
            own: block.start * stride0..block.end * stride0,
            stride0,
            halo: [below, above],
        }
    }

    /// Every configuration cell with an `f` panel, in slot order.
    fn cells(&self) -> impl Iterator<Item = usize> + '_ {
        let s = self.stride0;
        let halo = self
            .halo
            .iter()
            .flatten()
            .flat_map(move |&i0| i0 * s..(i0 + 1) * s);
        // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
        self.own.clone().chain(halo)
    }

    fn len(&self) -> usize {
        self.own.len() + self.halo.iter().flatten().count() * self.stride0
    }

    fn slot(&self, clin: usize) -> usize {
        if self.own.contains(&clin) {
            return clin - self.own.start;
        }
        let (i0, rest) = (clin / self.stride0, clin % self.stride0);
        let mut base = self.own.len();
        for h in self.halo.iter().flatten() {
            if *h == i0 {
                return base + rest;
            }
            base += self.stride0;
        }
        unreachable!("configuration cell {clin} is outside the block and its halo")
    }
}

/// The telemetry phase a cell-lane pass is in. Entering another phase ends
/// the open span before the next one starts, so spans never nest; entering
/// the open one again keeps it.
#[derive(Default)]
struct PhaseSpan(Option<(Phase, SpanGuard)>);

impl PhaseSpan {
    fn enter(&mut self, probe: &Collector, phase: Phase) {
        if !matches!(self.0, Some((open, _)) if open == phase) {
            self.exit();
            self.0 = Some((phase, probe.span(phase)));
        }
    }

    fn exit(&mut self) {
        self.0 = None;
    }
}

/// The discrete Vlasov operator for one phase-space discretization (shared
/// by all species on the same grid).
#[derive(Clone, Debug)]
pub struct VlasovOp {
    pub kernels: Arc<PhaseKernels>,
    pub grid: PhaseGrid,
    pub flux: FluxKind,
    /// Velocity-cell centers per linear velocity index (padded to 3).
    vel_centers: Vec<[f64; 3]>,
    /// Padded velocity-cell widths.
    dv: [f64; 3],
    /// Per velocity dim: linear indices of pencil bases (idx_j = 0) — the
    /// runtime sparse path walks pencils, projecting `α̂` once per pencil.
    pencil_bases: Vec<Vec<u32>>,
    /// Per velocity dim `j`: the lower cell (linear velocity index) of
    /// every interior `v_j` face, face-index-major across pencils (all
    /// pencils' face 0, then all pencils' face 1, …); the upper cell is
    /// one `stride(j)` above. The generated-kernel sweep batches this list
    /// [`LANES`] faces at a time, so panels fill across pencils instead of
    /// along one (`n_j − 1` faces rarely divide by `LANES`).
    vel_faces: Vec<Vec<u32>>,
    /// Volume-kernel path, resolved against the dispatch registry once at
    /// construction — the hot loop never branches per cell.
    volume_path: ResolvedVolume,
    /// Surface-kernel path per phase direction (configuration first),
    /// resolved once at construction — zero per-face branching.
    surface_paths: Vec<ResolvedSurfaceDir>,
    /// Summary tag of the surface resolution (all directions resolve
    /// together; the registry always carries the full direction set).
    surface_path_tag: DispatchPath,
    /// The cell-lane pass's entry points, resolved with the paths above;
    /// `None` when either path is runtime-sparse.
    cell_pass: Option<CellPass>,
    /// Full phase-space cell sizes `[Δx…, Δv…]` (the grid is uniform), in
    /// the generated kernels' calling convention.
    dxv: Vec<f64>,
    /// Configuration-cell centers, flattened `nconf × cdim` (the `x…` part
    /// of the generated kernels' `w`).
    conf_centers: Vec<f64>,
    /// Per configuration direction: upper-neighbour configuration cell of
    /// each lower cell (periodic wrap included, `None` at non-periodic
    /// boundaries). Precomputed so the surface sweep never delinearizes or
    /// allocates index scratch per cell.
    conf_nbr: Vec<Vec<Option<u32>>>,
    /// Per configuration direction: the conf cells touching the lower /
    /// upper domain boundary, ascending — the wall-face work lists.
    wall_lo: Vec<Vec<u32>>,
    wall_hi: Vec<Vec<u32>>,
    /// Per configuration direction `d`: velocity-cell index with the
    /// paired velocity dimension mirrored (`idx_d → n_d − 1 − idx_d`) —
    /// the cell holding `−v_d` on a symmetric grid (`Bc::Reflect`).
    vel_mirror: Vec<Vec<u32>>,
}

/// [`VlasovOp::kernel_entry_points`].
struct EntryPoints<'a>(&'a VlasovOp);

impl std::fmt::Display for EntryPoints<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = self.0;
        let volume = op.volume_path.tag();
        f.write_str(volume)?;
        // The directions the cell-lane pass runs at the volume's width.
        let in_pass = match op.cell_pass {
            Some(_) => op.grid.cdim() + usize::from(op.grid.vdim() == 1),
            None => 0,
        };
        let per_phase = &op.surface_paths[in_pass..];
        for (d, dir) in per_phase.iter().enumerate() {
            let seen = per_phase[..d].iter().any(|p| p.tag() == dir.tag());
            if dir.tag() != volume && !seen {
                write!(f, " + {}", dir.tag())?;
            }
        }
        Ok(())
    }
}

impl VlasovOp {
    /// Build with [`KernelDispatch::Auto`]: every solver silently gets the
    /// generated unrolled volume kernel when one is registered for its
    /// configuration, and the runtime sparse path otherwise.
    pub fn new(kernels: Arc<PhaseKernels>, grid: PhaseGrid, flux: FluxKind) -> Self {
        Self::with_dispatch(kernels, grid, flux, KernelDispatch::Auto)
    }

    /// Build with an explicit dispatch policy (benches and equivalence
    /// tests force a path this way).
    ///
    /// # Panics
    ///
    /// When `dispatch` is [`KernelDispatch::Generated`] and no generated
    /// kernel exists for this configuration (the message lists the
    /// registry and says to add the configuration to `codegen::MANIFEST`
    /// and rebuild). `AppBuilder::build` checks first and returns
    /// `Error::Build` instead.
    // dg-analyze: allow(hot_alloc) — operator constructor: geometry/stencil tables are precomputed once
    pub fn with_dispatch(
        kernels: Arc<PhaseKernels>,
        grid: PhaseGrid,
        flux: FluxKind,
        dispatch: KernelDispatch,
    ) -> Self {
        assert_eq!(kernels.layout.cdim, grid.cdim());
        assert_eq!(kernels.layout.vdim, grid.vdim());
        let vdim = grid.vdim();
        let vel_centers = crate::moments::vel_center_table(&grid);
        let mut vidx = vec![0usize; vdim];
        let mut dv = [1.0; 3];
        dv[..vdim].copy_from_slice(grid.vel.dx());
        let mut pencil_bases = vec![Vec::new(); vdim];
        for vlin in 0..grid.vel.len() {
            grid.vel.delinearize(vlin, &mut vidx);
            for (j, bases) in pencil_bases.iter_mut().enumerate() {
                if vidx[j] == 0 {
                    bases.push(vlin as u32);
                }
            }
        }
        let vel_faces: Vec<Vec<u32>> = (0..vdim)
            .map(|j| {
                let stride = grid.vel.stride(j) as u32;
                (0..grid.vel.cells()[j].saturating_sub(1) as u32)
                    .flat_map(|i| pencil_bases[j].iter().map(move |&base| base + i * stride))
                    .collect()
            })
            .collect();
        let volume_path = dispatch
            .resolve(
                kernels.phase_basis.kind(),
                kernels.layout,
                kernels.phase_basis.poly_order(),
            )
            .unwrap_or_else(|e| panic!("kernel dispatch: {e}"));
        let surface = dispatch
            .resolve_surface(
                kernels.phase_basis.kind(),
                kernels.layout,
                kernels.phase_basis.poly_order(),
            )
            .unwrap_or_else(|e| panic!("kernel dispatch: {e}"));
        let ndim = kernels.layout.ndim();
        let surface_paths: Vec<ResolvedSurfaceDir> = (0..ndim).map(|d| surface.dir(d)).collect();
        let surface_path_tag = surface.path();
        let cdim = grid.cdim();
        let cell_pass = match (volume_path, surface) {
            (ResolvedVolume::Generated { batch, .. }, ResolvedSurface::Generated(entry)) => {
                Some(CellPass::new(batch, entry, cdim, vdim))
            }
            _ => None,
        };
        let dxv: Vec<f64> = grid
            .conf
            .dx()
            .iter()
            .chain(grid.vel.dx())
            .copied()
            .collect();
        let mut conf_centers = vec![0.0; grid.conf.len() * cdim];
        let mut cidx = vec![0usize; cdim];
        for clin in 0..grid.conf.len() {
            grid.conf.delinearize(clin, &mut cidx);
            for d in 0..cdim {
                conf_centers[clin * cdim + d] = grid.conf.center(d, cidx[d]);
            }
        }
        let mut conf_nbr = vec![vec![None; grid.conf.len()]; cdim];
        let mut wall_lo = vec![Vec::new(); cdim];
        let mut wall_hi = vec![Vec::new(); cdim];
        let mut nidx = vec![0usize; cdim];
        for d in 0..cdim {
            let n_d = grid.conf.cells()[d];
            for clin in 0..grid.conf.len() {
                grid.conf.delinearize(clin, &mut cidx);
                if let Some(nbr) = grid.conf_neighbor(cidx[d], d, 1) {
                    nidx.copy_from_slice(&cidx);
                    nidx[d] = nbr;
                    conf_nbr[d][clin] = Some(grid.conf.linearize(&nidx) as u32);
                }
                if cidx[d] == 0 {
                    wall_lo[d].push(clin as u32);
                }
                if cidx[d] == n_d - 1 {
                    wall_hi[d].push(clin as u32);
                }
            }
        }
        let mut vel_mirror = vec![vec![0u32; grid.vel.len()]; cdim.min(vdim)];
        for (d, mirror) in vel_mirror.iter_mut().enumerate() {
            let n_d = grid.vel.cells()[d];
            for (vlin, slot) in mirror.iter_mut().enumerate() {
                grid.vel.delinearize(vlin, &mut vidx);
                vidx[d] = n_d - 1 - vidx[d];
                *slot = grid.vel.linearize(&vidx) as u32;
            }
        }
        VlasovOp {
            kernels,
            grid,
            flux,
            vel_centers,
            dv,
            pencil_bases,
            vel_faces,
            volume_path,
            surface_paths,
            surface_path_tag,
            cell_pass,
            dxv,
            conf_centers,
            conf_nbr,
            wall_lo,
            wall_hi,
            vel_mirror,
        }
    }

    /// Which volume path this operator resolved to.
    pub fn dispatch_path(&self) -> DispatchPath {
        self.volume_path.path()
    }

    /// Which surface path this operator resolved to (all directions
    /// resolve together).
    pub fn surface_dispatch_path(&self) -> DispatchPath {
        self.surface_path_tag
    }

    /// The entry points the RHS (`accumulate_block_rhs`) runs, from what
    /// this operator resolved (displayed, not allocated — this file is on
    /// the hot path): the volume kernel's tag (`generated/avx512x8`,
    /// `generated/avx2x4`, `generated/baselinex4` or `runtime-sparse`) —
    /// the cell-lane pass runs the configuration faces, and on 1v the
    /// velocity faces, at the same width — then, joined by `+`, the tag of
    /// every face direction outside the pass that resolved differently (the
    /// `surface_velocity` width on vdim ≥ 2). The per-phase
    /// `surface_config`, which stops at 4 lanes, is not part of the RHS.
    pub fn kernel_entry_points(&self) -> impl std::fmt::Display + '_ {
        EntryPoints(self)
    }

    /// Per-cell operation counts, tagged with the resolved volume *and*
    /// surface dispatch paths so bench output states explicitly which
    /// paths were measured.
    pub fn op_report(&self) -> OpReport {
        self.kernels
            .op_report()
            .tagged(self.dispatch_path())
            .tagged_surface(self.surface_dispatch_path())
    }

    fn nc_em(&self) -> usize {
        self.kernels.nc()
    }

    /// E/B component slices of one EM cell.
    #[inline]
    fn em_slices<'a>(&self, em_cell: &'a [f64]) -> (&'a [f64], [&'a [f64]; 3]) {
        let nc = self.nc_em();
        debug_assert_eq!(em_cell.len(), NCOMP * nc);
        (
            &em_cell[..3 * nc],
            [
                &em_cell[3 * nc..4 * nc],
                &em_cell[4 * nc..5 * nc],
                &em_cell[5 * nc..6 * nc],
            ],
        )
    }

    /// Volume terms for all phase cells whose configuration index lies in
    /// `conf_range`, through the volume path resolved at construction.
    pub fn volume<S: CellStoreMut>(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        conf_range: Range<usize>,
    ) {
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let nv = self.grid.vel.len();
        span!(ws.probe, Phase::Volume);
        let swept = (conf_range.len() * nv) as u64;
        ws.probe.count(Counter::CellsSwept, swept);
        ws.probe.count(Counter::DofProcessed, swept * k.np() as u64);
        match self.volume_path {
            // One `match` on the lane width the operator resolved; the
            // sweep itself is generic over it.
            ResolvedVolume::Generated { batch, .. } => match batch {
                VolumeBatch::X4(kernel) => self.volume_gen(kernel, qm, f, em, out, ws, conf_range),
                VolumeBatch::X8(kernel) => self.volume_gen(kernel, qm, f, em, out, ws, conf_range),
            },
            ResolvedVolume::RuntimeSparse => {
                let cdx = self.grid.conf.dx();
                let vdx = self.grid.vel.dx();
                for clin in conf_range {
                    let em_cell = em.cell(clin);
                    let (e, b) = self.em_slices(em_cell);
                    let nc = self.nc_em();
                    for vlin in 0..nv {
                        let cell = clin * nv + vlin;
                        let fc = f.cell(cell);
                        let oc = out.cell_mut(cell);
                        let vc = &self.vel_centers[vlin];
                        for d in 0..cdim {
                            k.streaming[d].apply(fc, vc[d], vdx[d], 2.0 / cdx[d], oc);
                        }
                        for j in 0..vdim {
                            k.cell_accel[j].project(
                                qm,
                                &e[j * nc..(j + 1) * nc],
                                b,
                                VelGeom {
                                    v_c: &vc[..vdim],
                                    dv: &self.dv[..vdim],
                                },
                                &mut ws.alpha,
                            );
                            k.accel_vol[j].apply(&ws.alpha, fc, 2.0 / vdx[j], oc);
                        }
                    }
                }
            }
        }
    }

    /// Committed-kernel variant of the volume sweep. Runs of `L` velocity
    /// cells of one configuration cell go through the batched kernel: SoA
    /// panels from workspace scratch, a zeroed accumulation panel, lanes
    /// unpacked into `out`. The last run of a configuration cell may be a
    /// *partial panel*, whose spare lanes repeat its last cell — finite
    /// data, computed and never unpacked. The split depends only on `nv`,
    /// never on `conf_range`, so any block decomposition batches
    /// identically; per lane the batched kernel is the scalar kernel's own
    /// body, and the volume term is each cell's first contribution (out
    /// still zero), so the unpack-add reproduces the scalar accumulation
    /// exactly. The EM cell slice is passed whole (the kernels read only
    /// the leading 6 × Nc E/B coefficients).
    #[allow(clippy::too_many_arguments)]
    fn volume_gen<const L: usize, S: CellStoreMut>(
        &self,
        kernel: VolumeLanes<L>,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        conf_range: Range<usize>,
    ) {
        let nv = self.grid.vel.len();
        let Panels {
            w,
            f: [pf, _],
            out: [po, _],
        } = ws.panels::<L>(&self.kernels);
        for clin in conf_range {
            let em_cell = em.cell(clin);
            self.fill_conf_center(w, clin);
            for v0 in (0..nv).step_by(L) {
                let lanes = L.min(nv - v0);
                let vlin: [usize; L] = std::array::from_fn(|lane| v0 + lane.min(lanes - 1));
                self.fill_vel_centers(w, &vlin);
                let cells = vlin.map(|v| clin * nv + v);
                kernel.moves.pack(pf, cells.map(|c| f.cell(c)));
                po.fill([0.0; L]);
                kernel.call(w, &self.dxv, qm, em_cell, pf, po);
                kernel.moves.unpack_add(out.cells_mut(&cells, lanes), po);
            }
        }
    }

    /// The center of configuration cell `clin` into every lane of the
    /// configuration rows of a center panel.
    fn fill_conf_center<const L: usize>(&self, w: &mut [[f64; L]], clin: usize) {
        let cdim = self.kernels.layout.cdim;
        for d in 0..cdim {
            w[d].fill(self.conf_centers[clin * cdim + d]);
        }
    }

    /// The centers of velocity cells `vlin`, one per lane, into the velocity
    /// rows of a center panel.
    fn fill_vel_centers<const L: usize>(&self, w: &mut [[f64; L]], vlin: &[usize; L]) {
        let (cdim, vdim) = (self.kernels.layout.cdim, self.kernels.layout.vdim);
        for (lane, &v) in vlin.iter().enumerate() {
            for j in 0..vdim {
                w[cdim + j][lane] = self.vel_centers[v][j];
            }
        }
    }

    /// One configuration-direction face (all velocity cells), between
    /// configuration cells `clo` and `chi` (linear indices) along `d`.
    /// `write_lo`/`write_hi` select which side receives its update — the
    /// hook for slab-parallel sweeps.
    #[allow(clippy::too_many_arguments)]
    pub fn surface_config_face<S: CellStoreMut>(
        &self,
        d: usize,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clo: usize,
        chi: usize,
        write_lo: bool,
        write_hi: bool,
    ) {
        // Telemetry: the *caller's sweep* owns the `Phase::Surface` span
        // (one per face would cost two clock reads per face); only the
        // cheap face counter is bumped here, so counts stay exact no
        // matter which sweep drives the face.
        ws.probe
            .count(Counter::FacesSwept, self.grid.vel.len() as u64);
        match self.surface_paths[d] {
            ResolvedSurfaceDir::Generated { func, batch } => {
                self.surface_config_face_gen(func, batch, f, out, ws, clo, chi, write_lo, write_hi)
            }
            ResolvedSurfaceDir::RuntimeSparse => {
                self.surface_config_face_rt(d, f, out, ws, clo, chi, write_lo, write_hi)
            }
        }
    }

    /// Committed-kernel variant of one configuration-direction face. Every
    /// face between two distinct cells goes through the batched kernel
    /// ([`Self::surface_config_panels`], at the lane width this direction
    /// resolved). Only the single-cell periodic wrap, whose two sides alias,
    /// stays on the scalar kernel, staged in the workspace.
    #[allow(clippy::too_many_arguments)]
    fn surface_config_face_gen<S: CellStoreMut>(
        &self,
        kernel: SurfaceKernelFn,
        batch: SurfaceBatch,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clo: usize,
        chi: usize,
        write_lo: bool,
        write_hi: bool,
    ) {
        if !write_lo && !write_hi {
            return;
        }
        if clo != chi {
            return match batch {
                SurfaceBatch::X4(k) => {
                    self.surface_config_panels(k, f, out, ws, clo, chi, write_lo, write_hi)
                }
                SurfaceBatch::X8(k) => {
                    self.surface_config_panels(k, f, out, ws, clo, chi, write_lo, write_hi)
                }
            };
        }
        let nv = self.grid.vel.len();
        for vlin in 0..nv {
            let (lo, hi) = self.wrap_increment(kernel, f, &mut ws.stage, clo, vlin);
            let oc = out.cell_mut(clo * nv + vlin);
            for (o, (a, b)) in oc.iter_mut().zip(lo.iter().zip(hi)) {
                *o += a + b;
            }
        }
    }

    /// The single-cell periodic wrap at phase cell `clin · Nv + vlin`: both
    /// sides of the face are that cell, so its two increments are staged
    /// and come back for the caller to add as `lo + hi`. Streaming kernels
    /// never read `qm`/`em` (α̂ = v_d).
    fn wrap_increment<'s>(
        &self,
        kernel: SurfaceKernelFn,
        f: &DgField,
        st: &'s mut FaceStage,
        clin: usize,
        vlin: usize,
    ) -> (&'s [f64], &'s [f64]) {
        let np = self.kernels.np();
        let fc = f.cell(clin * self.grid.vel.len() + vlin);
        st.tmp_lo[..np].fill(0.0);
        st.tmp_hi[..np].fill(0.0);
        kernel(
            &self.center(clin, vlin)[..self.kernels.layout.ndim()],
            &self.dxv,
            0.0,
            &[],
            self.flux != FluxKind::Central,
            fc,
            fc,
            &mut st.tmp_lo,
            &mut st.tmp_hi,
        );
        (&st.tmp_lo[..np], &st.tmp_hi[..np])
    }

    /// The phase-space center of cell `(clin, vlin)` in the generated
    /// kernels' convention (the leading `ndim` entries).
    fn center(&self, clin: usize, vlin: usize) -> [f64; MAX_DIM] {
        let (cdim, vdim) = (self.kernels.layout.cdim, self.kernels.layout.vdim);
        let mut w = [0.0f64; MAX_DIM];
        w[..cdim].copy_from_slice(&self.conf_centers[clin * cdim..][..cdim]);
        w[cdim..cdim + vdim].copy_from_slice(&self.vel_centers[vlin][..vdim]);
        w
    }

    /// One configuration-direction face between two distinct cells, in
    /// runs of `L` velocity cells (SoA panels from workspace scratch); a
    /// final run shorter than `L` is a partial panel whose spare lanes
    /// repeat its last cell and are never unpacked. Each output coefficient
    /// receives exactly one increment per face (one face mode per cell
    /// mode), so unpacking the zeroed accumulation panels reproduces the
    /// scalar accumulation bit for bit. The kernels always compute both
    /// sides; a one-sided face (a block or rank edge) unpacks only the side
    /// it owns — the other cell may lie outside `out`.
    #[allow(clippy::too_many_arguments)]
    fn surface_config_panels<const L: usize, S: CellStoreMut>(
        &self,
        kernel: SurfaceLanes<L>,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clo: usize,
        chi: usize,
        write_lo: bool,
        write_hi: bool,
    ) {
        let nv = self.grid.vel.len();
        let penalty = self.flux != FluxKind::Central;
        let Panels {
            w,
            f: [f_lo, f_hi],
            out: [o_lo, o_hi],
        } = ws.panels::<L>(&self.kernels);
        self.fill_conf_center(w, clo);
        for v0 in (0..nv).step_by(L) {
            let lanes = L.min(nv - v0);
            let vlin: [usize; L] = std::array::from_fn(|lane| v0 + lane.min(lanes - 1));
            self.fill_vel_centers(w, &vlin);
            let (lo_cells, hi_cells) = (vlin.map(|v| clo * nv + v), vlin.map(|v| chi * nv + v));
            kernel.moves.pack(f_lo, lo_cells.map(|c| f.cell(c)));
            kernel.moves.pack(f_hi, hi_cells.map(|c| f.cell(c)));
            o_lo.fill([0.0; L]);
            o_hi.fill([0.0; L]);
            // Streaming kernels never read `qm`/`em` (α̂ = v_d).
            kernel.call(w, &self.dxv, 0.0, &[], penalty, f_lo, f_hi, o_lo, o_hi);
            if write_lo {
                kernel
                    .moves
                    .unpack_add(out.cells_mut(&lo_cells, lanes), o_lo);
            }
            if write_hi {
                kernel
                    .moves
                    .unpack_add(out.cells_mut(&hi_cells, lanes), o_hi);
            }
        }
    }

    /// Runtime sparse-tensor variant of one configuration-direction face.
    #[allow(clippy::too_many_arguments)]
    fn surface_config_face_rt<S: CellStoreMut>(
        &self,
        d: usize,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clo: usize,
        chi: usize,
        write_lo: bool,
        write_hi: bool,
    ) {
        let k = &*self.kernels;
        let nv = self.grid.vel.len();
        let vdx = self.grid.vel.dx();
        let np = k.np();
        let scale = 2.0 / self.grid.conf.dx()[d];
        let surf = &k.surfaces[d];
        let nf = surf.kernel.face.len();
        let central = self.flux == FluxKind::Central;
        for vlin in 0..nv {
            let vc = self.vel_centers[vlin][d];
            let lam = k.stream_face_alpha(d, vc, vdx[d], &mut ws.stage.alpha_face[..nf]);
            let lam = if central { 0.0 } else { lam };
            let lo_cell = clo * nv + vlin;
            let hi_cell = chi * nv + vlin;
            let f_lo = f.cell(lo_cell);
            let f_hi = f.cell(hi_cell);
            if lo_cell == hi_cell {
                // Single-cell periodic direction: stage both sides in the
                // workspace, then accumulate sequentially.
                ws.stage.tmp_lo[..np].fill(0.0);
                ws.stage.tmp_hi[..np].fill(0.0);
                surf.kernel.apply(
                    f_lo,
                    f_hi,
                    &ws.stage.alpha_face[..nf],
                    lam,
                    scale,
                    Some(&mut ws.stage.tmp_lo),
                    Some(&mut ws.stage.tmp_hi),
                    &mut ws.stage.face,
                );
                let oc = out.cell_mut(lo_cell);
                for (o, (a, b)) in oc
                    .iter_mut()
                    .zip(ws.stage.tmp_lo.iter().zip(&ws.stage.tmp_hi))
                {
                    *o += a + b;
                }
                continue;
            }
            match (write_lo, write_hi) {
                (true, true) => {
                    let (a, b) = out.cell_pair_mut(lo_cell, hi_cell);
                    surf.kernel.apply(
                        f_lo,
                        f_hi,
                        &ws.stage.alpha_face[..nf],
                        lam,
                        scale,
                        Some(a),
                        Some(b),
                        &mut ws.stage.face,
                    );
                }
                (true, false) => surf.kernel.apply(
                    f_lo,
                    f_hi,
                    &ws.stage.alpha_face[..nf],
                    lam,
                    scale,
                    Some(out.cell_mut(lo_cell)),
                    None,
                    &mut ws.stage.face,
                ),
                (false, true) => surf.kernel.apply(
                    f_lo,
                    f_hi,
                    &ws.stage.alpha_face[..nf],
                    lam,
                    scale,
                    None,
                    Some(out.cell_mut(hi_cell)),
                    &mut ws.stage.face,
                ),
                (false, false) => {}
            }
        }
    }

    /// Synthesize the ghost-cell coefficients for a wall face of direction
    /// `d` into `ghost`: the interior velocity block is at phase cell
    /// `clin · Nv + vlin`.
    fn stage_ghost(&self, d: usize, bc: Bc, f: &DgField, ghost: &mut [f64], cell: usize) {
        let np = self.kernels.np();
        match bc {
            // Vacuum ghost: pure outgoing upwind flux, exactly zero inflow.
            Bc::Absorb => ghost[..np].fill(0.0),
            // Even mirror in ξ_d: the ghost trace equals the interior
            // trace, so the face flux is the pure upwind flux of the
            // interior state (open/outflow).
            Bc::Copy => {
                let fc = f.cell(cell);
                for (g, (v, s)) in ghost[..np]
                    .iter_mut()
                    .zip(fc.iter().zip(&self.kernels.mirror_signs[d]))
                {
                    *g = v * s;
                }
            }
            // Specular reflection: mirror in ξ_d and in the paired
            // velocity coordinate, sourced from the velocity cell holding
            // `−v_d` (callers must be on a symmetric velocity grid —
            // validated at App assembly).
            Bc::Reflect => {
                let nv = self.grid.vel.len();
                let (clin, vlin) = (cell / nv, cell % nv);
                let src = f.cell(clin * nv + self.vel_mirror[d][vlin] as usize);
                for (g, (v, s)) in ghost[..np]
                    .iter_mut()
                    .zip(src.iter().zip(&self.kernels.reflect_signs[d]))
                {
                    *g = v * s;
                }
            }
            Bc::Periodic | Bc::ZeroFlux => {
                unreachable!("{bc:?} is not a ghost-synthesizing boundary")
            }
        }
    }

    /// One wall face of configuration direction `d` (all velocity cells)
    /// at boundary cell `clin`; `side` is `-1` for the lower wall, `+1`
    /// for the upper. Each velocity cell's interior increment is staged by
    /// `Self::wall_increment`, which books the wall's flux in `ws.wall`,
    /// and then added to the cell.
    #[allow(clippy::too_many_arguments)]
    pub fn surface_config_wall<S: CellStoreMut>(
        &self,
        d: usize,
        side: i32,
        bc: Bc,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clin: usize,
    ) {
        let nv = self.grid.vel.len();
        span!(ws.probe, Phase::Ghosts);
        ws.probe.count(Counter::FacesSwept, nv as u64);
        for vlin in 0..nv {
            let t = self.wall_increment(d, side, bc, f, &mut ws.stage, &mut ws.wall, clin, vlin);
            for (o, t) in out.cell_mut(clin * nv + vlin).iter_mut().zip(t) {
                *o += t;
            }
        }
    }

    /// The interior increment of the wall face of direction `d` at phase
    /// cell `clin · Nv + vlin` (`side` as for [`Self::surface_config_wall`]),
    /// for the caller to add: the ghost state is synthesized into `st`, the
    /// ordinary single-valued face flux runs against it, and the interior
    /// side is staged in `st.tmp_lo` — so the net wall mass/energy flux
    /// lands in the `wall` ledger as a by-product (no extra flux
    /// evaluation). Wall faces stay scalar: each boundary cell is one face.
    #[allow(clippy::too_many_arguments)]
    fn wall_increment<'s>(
        &self,
        d: usize,
        side: i32,
        bc: Bc,
        f: &DgField,
        st: &'s mut FaceStage,
        wall: &mut WallAccum,
        clin: usize,
        vlin: usize,
    ) -> &'s [f64] {
        debug_assert!(side == 1 || side == -1);
        debug_assert!(bc.is_wall());
        let k = &*self.kernels;
        let vdim = k.layout.vdim;
        let (np, nc) = (k.np(), k.nc());
        let central = self.flux == FluxKind::Central;
        let cell = clin * self.grid.vel.len() + vlin;
        self.stage_ghost(d, bc, f, &mut st.ghost, cell);
        st.tmp_lo[..np].fill(0.0);
        match self.surface_paths[d] {
            ResolvedSurfaceDir::Generated { func: kernel, .. } => {
                // `w` of the streaming kernels only feeds the paired
                // velocity center of `α̂ = v_d` — identical for ghost and
                // interior — so the interior cell's center serves both
                // wall orientations.
                let w = self.center(clin, vlin);
                let w = &w[..k.layout.ndim()];
                st.tmp_hi[..np].fill(0.0);
                // The interior side's increment lands in `tmp_lo`, the
                // ghost side's in `tmp_hi` (discarded).
                let (f_in, ghost) = (f.cell(cell), &st.ghost[..]);
                let (lo, hi) = if side > 0 {
                    (f_in, ghost)
                } else {
                    (ghost, f_in)
                };
                let (interior, outside) = (&mut st.tmp_lo, &mut st.tmp_hi);
                let (o_lo, o_hi) = if side > 0 {
                    (interior, outside)
                } else {
                    (outside, interior)
                };
                kernel(w, &self.dxv, 0.0, &[], !central, lo, hi, o_lo, o_hi);
            }
            ResolvedSurfaceDir::RuntimeSparse => {
                let surf = &k.surfaces[d];
                let nf = surf.kernel.face.len();
                let scale = 2.0 / self.grid.conf.dx()[d];
                let vc = self.vel_centers[vlin][d];
                let lam = k.stream_face_alpha(d, vc, self.dv[d], &mut st.alpha_face[..nf]);
                let lam = if central { 0.0 } else { lam };
                let (f_in, alpha) = (f.cell(cell), &st.alpha_face[..nf]);
                let interior = Some(&mut st.tmp_lo[..np]);
                if side > 0 {
                    let (lo, hi) = (f_in, &st.ghost[..]);
                    surf.kernel
                        .apply(lo, hi, alpha, lam, scale, interior, None, &mut st.face);
                } else {
                    let (lo, hi) = (&st.ghost[..], f_in);
                    surf.kernel
                        .apply(lo, hi, alpha, lam, scale, None, interior, &mut st.face);
                }
            }
        }
        // Ledger: the staged interior update *is* the wall's flux
        // divergence for this velocity block.
        let sidx = usize::from(side > 0);
        wall.mass[d][sidx] += st.tmp_lo[0];
        st.wall_m2[..nc].fill(0.0);
        k.moments.accumulate_m2(
            &st.tmp_lo[..np],
            self.grid.vel_jacobian(),
            &self.vel_centers[vlin][..vdim],
            &self.dv[..vdim],
            &mut st.wall_m2,
        );
        wall.energy[d][sidx] += st.wall_m2[0];
        &st.tmp_lo[..np]
    }

    /// All configuration-direction surface terms of direction `d` for the
    /// given range: the lower-wall faces of boundary cells in the range,
    /// then every interior face whose *lower* cell's configuration index
    /// lies in `conf_range` (periodic wrap included), then the upper-wall
    /// faces. With the full range this covers every face exactly once, and
    /// the per-cell accumulation order (lower face first, then upper) is
    /// what the rank-parallel sweep replicates for bit-identity.
    pub fn surface_config<S: CellStoreMut>(
        &self,
        d: usize,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        conf_range: Range<usize>,
        bc: DimBc,
    ) {
        // Periodicity is baked into the neighbour table at construction;
        // per-species overrides may only change the wall flavor.
        debug_assert_eq!(bc.is_periodic(), self.grid.is_conf_periodic(d));
        if bc.lower.is_wall() {
            for &clin in &self.wall_lo[d] {
                if conf_range.contains(&(clin as usize)) {
                    self.surface_config_wall(d, -1, bc.lower, f, out, ws, clin as usize);
                }
            }
        }
        let nbrs = &self.conf_nbr[d];
        {
            // One Surface span for the whole interior-face sweep; wall
            // faces stay outside under their own `Phase::Ghosts` spans so
            // the phase taxonomy remains non-overlapping.
            span!(ws.probe, Phase::Surface);
            // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
            for clin in conf_range.clone() {
                let Some(nlin) = nbrs[clin] else {
                    continue;
                };
                self.surface_config_face(d, f, out, ws, clin, nlin as usize, true, true);
            }
        }
        if bc.upper.is_wall() {
            for &clin in &self.wall_hi[d] {
                if conf_range.contains(&(clin as usize)) {
                    self.surface_config_wall(d, 1, bc.upper, f, out, ws, clin as usize);
                }
            }
        }
    }

    /// Velocity-direction surface terms for all configuration cells in
    /// `conf_range`. Faces at the velocity-domain boundary carry zero flux.
    pub fn surface_velocity<S: CellStoreMut>(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        conf_range: Range<usize>,
    ) {
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let nv = self.grid.vel.len();
        let nc = self.nc_em();
        let vdx = self.grid.vel.dx();
        let central = self.flux == FluxKind::Central;
        span!(ws.probe, Phase::Surface);
        let faces_per_conf: u64 = self.vel_faces.iter().map(|v| v.len() as u64).sum();
        ws.probe.count(
            Counter::FacesSwept,
            conf_range.len() as u64 * faces_per_conf,
        );
        for clin in conf_range {
            let em_cell = em.cell(clin);
            for j in 0..vdim {
                let dir = cdim + j;
                let stride = self.grid.vel.stride(j);
                match self.surface_paths[dir] {
                    ResolvedSurfaceDir::Generated { batch, .. } => match batch {
                        SurfaceBatch::X4(k) => {
                            self.surface_velocity_panels(k, j, qm, f, em_cell, out, ws, clin)
                        }
                        SurfaceBatch::X8(k) => {
                            self.surface_velocity_panels(k, j, qm, f, em_cell, out, ws, clin)
                        }
                    },
                    ResolvedSurfaceDir::RuntimeSparse => {
                        let (e, b) = self.em_slices(em_cell);
                        let surf = &k.surfaces[dir];
                        let nf = surf.kernel.face.len();
                        let scale = 2.0 / vdx[j];
                        let proj = surf.face_accel.as_ref().expect("velocity face");
                        let n_j = self.grid.vel.cells()[j];
                        for &base in &self.pencil_bases[j] {
                            let base = base as usize;
                            // α̂ cannot depend on v_j, so one projection
                            // serves the whole pencil.
                            let vc = &self.vel_centers[base];
                            let lam = proj.project(
                                qm,
                                &e[j * nc..(j + 1) * nc],
                                b,
                                VelGeom {
                                    v_c: &vc[..vdim],
                                    dv: &self.dv[..vdim],
                                },
                                &mut ws.stage.alpha_face[..nf],
                            );
                            let lam = if central { 0.0 } else { lam };
                            for i in 0..n_j - 1 {
                                let lo_cell = clin * nv + base + i * stride;
                                let hi_cell = lo_cell + stride;
                                let (o_lo, o_hi) = out.cell_pair_mut(lo_cell, hi_cell);
                                surf.kernel.apply(
                                    f.cell(lo_cell),
                                    f.cell(hi_cell),
                                    &ws.stage.alpha_face[..nf],
                                    lam,
                                    scale,
                                    Some(o_lo),
                                    Some(o_hi),
                                    &mut ws.stage.face,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Committed-kernel variant of the `v_j` faces of one configuration
    /// cell: the direction's precomputed face list, `L` faces per panel
    /// (the last panel may be partial — its spare lanes repeat its last
    /// face and are never unpacked). The list runs face-index-major across
    /// pencils, so a pencil's faces appear in ascending order and every
    /// cell still receives its lower face's increment before its upper
    /// face's — also inside one panel, which is why the upper sides are
    /// unpacked first: a cell can be the upper cell of one lane and the
    /// lower cell of a later one, never the other way round. Each side's
    /// unpack-add of the zeroed accumulation panel is the single increment
    /// the scalar kernel would apply, so the result equals calling the
    /// scalar kernel face by face in list order, and (per cell, the same
    /// two increments in the same order) a pencil-by-pencil sweep, bit for
    /// bit. The inlined α̂ projection reads only the transverse velocity
    /// centers, so it is the same exact polynomial the runtime path
    /// projects once per pencil.
    #[allow(clippy::too_many_arguments)]
    fn surface_velocity_panels<const L: usize, S: CellStoreMut>(
        &self,
        kernel: SurfaceLanes<L>,
        j: usize,
        qm: f64,
        f: &DgField,
        em_cell: &[f64],
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clin: usize,
    ) {
        let nv = self.grid.vel.len();
        let stride = self.grid.vel.stride(j);
        let penalty = self.flux != FluxKind::Central;
        let Panels {
            w,
            f: [f_lo, f_hi],
            out: [o_lo, o_hi],
        } = ws.panels::<L>(&self.kernels);
        self.fill_conf_center(w, clin);
        for faces in self.vel_faces[j].chunks(L) {
            let lanes = faces.len();
            let vlo: [usize; L] = std::array::from_fn(|lane| faces[lane.min(lanes - 1)] as usize);
            self.fill_vel_centers(w, &vlo);
            let lo_cells = vlo.map(|v| clin * nv + v);
            let hi_cells = lo_cells.map(|c| c + stride);
            kernel.moves.pack(f_lo, lo_cells.map(|c| f.cell(c)));
            kernel.moves.pack(f_hi, hi_cells.map(|c| f.cell(c)));
            o_lo.fill([0.0; L]);
            o_hi.fill([0.0; L]);
            kernel.call(w, &self.dxv, qm, em_cell, penalty, f_lo, f_hi, o_lo, o_hi);
            kernel
                .moves
                .unpack_add(out.cells_mut(&hi_cells, lanes), o_hi);
            kernel
                .moves
                .unpack_add(out.cells_mut(&lo_cells, lanes), o_lo);
        }
    }

    /// The configuration faces of the dim-0 cell block `block` (a range of
    /// dimension-0 slices, as in [`crate::blocks::CellBlocks`]), in the
    /// order each of its cells receives them — which is what makes every
    /// block decomposition bit-identical to one block: directions
    /// ascending; per direction the lower walls, then the faces by
    /// ascending lower cell, then the upper walls. Along dimension 0 those
    /// faces are the received face below the block, its interior faces,
    /// and the sending face above it or the periodic wrap (both sides when
    /// the block spans the direction); the first of several blocks receives
    /// the wrap last, where a whole-domain sweep visits it. Faces of higher
    /// directions never leave a dim-0 slice, so they are all the block's.
    fn conf_faces(&self, block: Range<usize>, bcs: &[DimBc], mut visit: impl FnMut(ConfFace)) {
        /// Every face between dim-0 slices `lo` and `hi`.
        fn slices(s: usize, lo: usize, hi: usize, owns: Owns, visit: &mut impl FnMut(ConfFace)) {
            for rest in 0..s {
                let (clo, chi) = (lo * s + rest, hi * s + rest);
                visit(ConfFace::Pair {
                    d: 0,
                    clo,
                    chi,
                    owns,
                });
            }
        }
        for (d, bc) in bcs.iter().enumerate() {
            // Periodicity is baked into the neighbour table at construction;
            // per-species overrides may only change the wall flavor.
            debug_assert_eq!(bc.is_periodic(), self.grid.is_conf_periodic(d));
        }
        let n0 = self.grid.conf.cells()[0];
        let s = self.grid.conf.len() / n0;
        let bc0 = bcs[0];
        if block.start == 0 && bc0.lower.is_wall() {
            for clin in 0..s {
                visit(ConfFace::Wall {
                    d: 0,
                    side: -1,
                    bc: bc0.lower,
                    clin,
                });
            }
        }
        if block.start > 0 {
            slices(s, block.start - 1, block.start, Owns::Upper, &mut visit);
        }
        for i0 in block.start..block.end - 1 {
            slices(s, i0, i0 + 1, Owns::Both, &mut visit);
        }
        if block.end < n0 {
            slices(s, block.end - 1, block.end, Owns::Lower, &mut visit);
        } else if bc0.is_periodic() {
            let owns = if block.start == 0 {
                Owns::Both
            } else {
                Owns::Lower
            };
            slices(s, n0 - 1, 0, owns, &mut visit);
        }
        if block.start == 0 && block.end < n0 && bc0.is_periodic() {
            slices(s, n0 - 1, 0, Owns::Upper, &mut visit);
        }
        if block.end == n0 && bc0.upper.is_wall() {
            for rest in 0..s {
                let clin = (n0 - 1) * s + rest;
                visit(ConfFace::Wall {
                    d: 0,
                    side: 1,
                    bc: bc0.upper,
                    clin,
                });
            }
        }
        let conf_range = block.start * s..block.end * s;
        for (d, bc) in bcs.iter().enumerate().skip(1) {
            let walls = |cells: &[u32], side, bc: Bc, visit: &mut dyn FnMut(ConfFace)| {
                if bc.is_wall() {
                    for clin in cells.iter().map(|&c| c as usize) {
                        if conf_range.contains(&clin) {
                            visit(ConfFace::Wall { d, side, bc, clin });
                        }
                    }
                }
            };
            walls(&self.wall_lo[d], -1, bc.lower, &mut visit);
            // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
            for clo in conf_range.clone() {
                if let Some(chi) = self.conf_nbr[d][clo] {
                    let chi = chi as usize;
                    visit(ConfFace::Pair {
                        d,
                        clo,
                        chi,
                        owns: Owns::Both,
                    });
                }
            }
            walls(&self.wall_hi[d], 1, bc.upper, &mut visit);
        }
    }

    /// Every term of the collisionless RHS on the dim-0 cell block `block`:
    /// the volume, the configuration faces in the block's schedule
    /// ([`Self::conf_faces`]) and the velocity faces. With both kernel paths
    /// generated the first two — and on one velocity dimension all three —
    /// run as the cell-lane pass ([`Self::cell_pass`]); what the pass does
    /// not run goes through the per-phase sweeps.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn accumulate_block_rhs<S: CellStoreMut>(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        block: Range<usize>,
        bcs: &[DimBc],
    ) {
        if block.is_empty() {
            return;
        }
        let s = self.grid.conf.len() / self.grid.conf.cells()[0];
        let conf_range = block.start * s..block.end * s;
        let velocity_in_pass = match &self.cell_pass {
            Some(CellPass::X4(k)) => self.cell_pass(k, qm, f, em, out, ws, block, bcs),
            Some(CellPass::X8(k)) => self.cell_pass(k, qm, f, em, out, ws, block, bcs),
            None => {
                // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
                self.volume(qm, f, em, out, ws, conf_range.clone());
                // One Surface span per run of faces; the wall calls keep
                // their own `Phase::Ghosts` spans.
                let mut span = PhaseSpan::default();
                self.conf_faces(block, bcs, |face| match face {
                    ConfFace::Wall { d, side, bc, clin } => {
                        span.exit();
                        self.surface_config_wall(d, side, bc, f, out, ws, clin);
                    }
                    ConfFace::Pair { d, clo, chi, owns } => {
                        span.enter(&ws.probe, Phase::Surface);
                        let (lo, hi) = (owns != Owns::Upper, owns != Owns::Lower);
                        self.surface_config_face(d, f, out, ws, clo, chi, lo, hi);
                    }
                });
                false
            }
        };
        if !velocity_in_pass {
            // Velocity surfaces are cell-local in configuration space.
            self.surface_velocity(qm, f, em, out, ws, conf_range);
        }
    }

    /// The cell-lane pass over `block` at lane width `L`. Per run of `L`
    /// consecutive velocity cells — the volume sweep's lane groups, a
    /// partial last one included (spare lanes repeat its last cell and are
    /// never unpacked) — it packs `f` of every configuration cell the block
    /// reads once ([`PassSlots`]), zero-fills one accumulation panel per own
    /// cell, runs the volume kernel and then the block's face schedule
    /// straight into those panels, and adds each panel into `out` once. A
    /// side the block does not own goes to a discard panel; walls and the
    /// single-cell periodic wrap run the per-phase scalar code lane by lane
    /// and add their staged increment into the lane.
    ///
    /// From a zeroed `out` this is the per-phase sweeps bit for bit. Every
    /// generated surface body writes each output coefficient exactly once
    /// (`codegen` test), so the per-phase face's `out += (0 + c·g)` is the
    /// pass's `P += c·g` — `0 + x` differs from `x` only for `x = −0.0`,
    /// which adds like `+0.0` to a panel entry that, being a sum started at
    /// `+0.0`, is never `−0.0` itself under round-to-nearest; the volume is
    /// each cell's first term either way, and the final `0 + P` is `P`. The
    /// wall ledger sums the same staged increments, lane group by lane
    /// group — the per-phase order when one cell carries each wall.
    ///
    /// With one velocity direction ([`CellKernels::velocity`]) the pass also
    /// runs the velocity faces, and returns `true`: a lane group is `L`
    /// consecutive velocity cells, so a cell's `v` neighbours sit one lane
    /// over. Per own cell, after the configuration faces, lane `l` of one
    /// face call is the face below lane `l` — its lower side the resident
    /// panel shifted up a lane, lane 0 the previous group's top cell read
    /// from `f`. The upper sides land lane-aligned (each cell's lower face;
    /// nothing below the first velocity cell, zero flux), the lower sides
    /// one lane down (each cell's upper face; nothing above the last one),
    /// and lane 0's lower side goes straight into the previous group's top
    /// cell, already in `out`. Each cell so receives volume, configuration
    /// faces, lower and upper velocity face in the per-phase order, and the
    /// argument above carries over: a skipped face adds `+0.0` to a panel
    /// entry that is never `−0.0`. With more velocity directions the lane
    /// axis is the last one, whose faces each cell receives after those of
    /// the directions whose neighbours lie in other lane groups, so those
    /// faces stay in [`Self::surface_velocity`] (and this returns `false`).
    #[allow(clippy::too_many_arguments)]
    fn cell_pass<const L: usize, S: CellStoreMut>(
        &self,
        k: &CellKernels<L>,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        block: Range<usize>,
        bcs: &[DimBc],
    ) -> bool {
        let np = self.kernels.np();
        let nv = self.grid.vel.len();
        let penalty = self.flux != FluxKind::Central;
        let slots = PassSlots::new(&self.grid, &block, bcs[0]);
        // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
        let own = slots.own.clone();
        // Sized for the widest lane group on the first pass over a block
        // this large (the workspace constructor does not know the grid);
        // every later pass reuses the panels.
        ws.cell_f.ensure(slots.len() * np * MAX_LANES);
        ws.cell_out.ensure(own.len() * np * MAX_LANES);
        let VlasovWorkspace {
            stage,
            panel_w,
            panel_f,
            panel_out,
            panel_out2,
            cell_f,
            cell_out,
            wall,
            probe,
            ..
        } = ws;
        let probe: &Collector = probe;
        let w = &mut panel_w.lanes_mut::<L>()[..self.kernels.layout.ndim()];
        // The discard panel of the configuration faces is the lower-side
        // output of the velocity faces, which run after them.
        let [discard, f_lo, o_hi] =
            [panel_out, panel_f, panel_out2].map(|p| &mut p.lanes_mut::<L>()[..np]);
        let pf = &mut cell_f.lanes_mut::<L>()[..slots.len() * np];
        let po = &mut cell_out.lanes_mut::<L>()[..own.len() * np];
        let f_of = |clin: usize| slots.slot(clin) * np..(slots.slot(clin) + 1) * np;
        let out_of = |clin: usize| (clin - own.start) * np..(clin - own.start + 1) * np;
        for v0 in (0..nv).step_by(L) {
            let lanes = L.min(nv - v0);
            let vlin: [usize; L] = std::array::from_fn(|lane| v0 + lane.min(lanes - 1));
            self.fill_vel_centers(w, &vlin);
            {
                span!(probe, Phase::Volume);
                let swept = (own.len() * lanes) as u64;
                probe.count(Counter::CellsSwept, swept);
                probe.count(Counter::DofProcessed, swept * np as u64);
                for clin in slots.cells() {
                    let cells = vlin.map(|v| f.cell(clin * nv + v));
                    k.volume.moves.pack(&mut pf[f_of(clin)], cells);
                }
                // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
                for clin in own.clone() {
                    let p = &mut po[out_of(clin)];
                    p.fill([0.0; L]);
                    self.fill_conf_center(w, clin);
                    k.volume
                        .call(w, &self.dxv, qm, em.cell(clin), &pf[f_of(clin)], p);
                }
            }
            let mut span = PhaseSpan::default();
            let mut faces = 0u64;
            // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
            self.conf_faces(block.clone(), bcs, |face| {
                faces += 1;
                match face {
                    ConfFace::Wall { d, side, bc, clin } => {
                        span.enter(probe, Phase::Ghosts);
                        let p = &mut po[out_of(clin)];
                        for lane in 0..lanes {
                            let v = v0 + lane;
                            let t = self.wall_increment(d, side, bc, f, stage, wall, clin, v);
                            for (p, t) in p.iter_mut().zip(t) {
                                p[lane] += t;
                            }
                        }
                    }
                    ConfFace::Pair { d, clo, chi, .. } if clo == chi => {
                        span.enter(probe, Phase::Surface);
                        let p = &mut po[out_of(clo)];
                        for lane in 0..lanes {
                            let (lo, hi) =
                                self.wrap_increment(k.scalar[d], f, stage, clo, v0 + lane);
                            for (p, (a, b)) in p.iter_mut().zip(lo.iter().zip(hi)) {
                                p[lane] += a + b;
                            }
                        }
                    }
                    ConfFace::Pair { d, clo, chi, owns } => {
                        span.enter(probe, Phase::Surface);
                        let (o_lo, o_hi) = match owns {
                            Owns::Both => {
                                let [lo, hi] = po
                                    .get_disjoint_mut([out_of(clo), out_of(chi)])
                                    .expect("a face joins two cells");
                                (lo, hi)
                            }
                            Owns::Lower => (&mut po[out_of(clo)], &mut *discard),
                            Owns::Upper => (&mut *discard, &mut po[out_of(chi)]),
                        };
                        let (f_lo, f_hi) = (&pf[f_of(clo)], &pf[f_of(chi)]);
                        self.fill_conf_center(w, clo);
                        // Streaming kernels never read `qm`/`em` (α̂ = v_d).
                        k.faces[d].call(w, &self.dxv, 0.0, &[], penalty, f_lo, f_hi, o_lo, o_hi);
                    }
                }
            });
            probe.count(Counter::FacesSwept, faces * lanes as u64);
            span.enter(probe, Phase::Surface);
            if k.velocity.is_some() {
                // Lane `l` runs the face below it: the lower cells' centres.
                let vlo = std::array::from_fn(|lane| (v0 + lane).saturating_sub(1).min(nv - 1));
                self.fill_vel_centers(w, &vlo);
                let faces = own.len() * (lanes - usize::from(v0 == 0));
                probe.count(Counter::FacesSwept, faces as u64);
            }
            // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
            for clin in own.clone() {
                let p = &mut po[out_of(clin)];
                if let Some(kv) = &k.velocity {
                    let f_own = &pf[f_of(clin)];
                    // The lower sides: the panel shifted up a lane, lane 0
                    // the previous group's top cell — or, below the first
                    // velocity cell, where no face is, any finite value.
                    let below = v0.checked_sub(1).map(|v| f.cell(clin * nv + v));
                    for (n, (lo, at)) in f_lo.iter_mut().zip(f_own).enumerate() {
                        let first = below.map_or(at[0], |c| c[n]);
                        *lo = std::array::from_fn(|l| if l == 0 { first } else { at[l - 1] });
                    }
                    let o_lo = &mut *discard;
                    o_lo.fill([0.0; L]);
                    o_hi.fill([0.0; L]);
                    self.fill_conf_center(w, clin);
                    kv.call(
                        w,
                        &self.dxv,
                        qm,
                        em.cell(clin),
                        penalty,
                        f_lo,
                        f_own,
                        o_lo,
                        o_hi,
                    );
                    // Zero flux through the ends of the velocity domain: no
                    // lower face for the first cell, no upper face for the
                    // last (a partial group's spare lanes, or the top lane).
                    if v0 == 0 {
                        o_hi.iter_mut().for_each(|o| o[0] = 0.0);
                    }
                    o_lo.iter_mut().for_each(|o| o[lanes..].fill(0.0));
                    // Per cell the lower face's increment, then the upper's.
                    for (acc, (hi, lo)) in p.iter_mut().zip(o_hi.iter().zip(&*o_lo)) {
                        for l in 0..L {
                            acc[l] += hi[l];
                        }
                        for l in 0..L {
                            acc[l] += if l + 1 < L { lo[l + 1] } else { 0.0 };
                        }
                    }
                    // The previous group's top cell, already unpacked, gets
                    // its upper face last.
                    if let Some(v) = v0.checked_sub(1) {
                        let top = out.cell_mut(clin * nv + v);
                        for (o, lo) in top.iter_mut().zip(&*o_lo) {
                            *o += lo[0];
                        }
                    }
                }
                let cells = vlin.map(|v| clin * nv + v);
                k.volume.moves.unpack_add(out.cells_mut(&cells, lanes), p);
            }
        }
        k.velocity.is_some()
    }

    /// The full collisionless RHS, serial: `out += L(f; E, B)`, with the
    /// grid's domain-default boundary conditions. The volume and
    /// configuration-face part — velocity faces included on 1v — reaches
    /// `out` as **one increment per cell** (the cell-lane pass,
    /// `Self::accumulate_block_rhs`) — on 1v the top cell of a lane group
    /// takes its upper velocity face as a second one, on more velocity
    /// dimensions the velocity faces then add theirs. From a zeroed `out` —
    /// what every RHS driver passes — that is the per-phase sequence
    /// `volume`, `surface_config` by direction, `surface_velocity` bit for
    /// bit; onto non-zero `out` the first sum associates differently.
    /// Resets and refills the workspace's wall-flux ledger (`ws.wall`).
    /// The sweep is the one every RHS driver runs per cell block
    /// ([`crate::blocks::block_rhs`]), here with the whole domain as one
    /// block and added onto `out`.
    pub fn accumulate_rhs(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut DgField,
        ws: &mut VlasovWorkspace,
    ) {
        ws.wall.reset();
        let domain = 0..self.grid.conf.cells()[0];
        self.accumulate_block_rhs(qm, f, em, out, ws, domain, &self.grid.conf_bc);
    }

    /// Exact `max |v_d|` over the velocity grid (streaming CFL).
    pub fn max_speed(&self, d: usize) -> f64 {
        self.grid.vel.lower()[d]
            .abs()
            .max(self.grid.vel.upper()[d].abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{maxwellian, Species};
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid};
    use dg_kernels::dispatch::{find_surface_kernel, find_volume_kernel, BatchIsa};
    use dg_kernels::{kernels_for, PhaseLayout};
    use dg_telemetry::Registry;

    fn setup_1x1v(nx: usize, nvx: usize, p: usize) -> (VlasovOp, Species, DgField) {
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), p);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[2.0 * std::f64::consts::PI], &[nx]),
            CartGrid::new(&[-6.0], &[6.0], &[nvx]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, p + 2, &mut |x, v| {
            maxwellian(1.0 + 0.1 * (x[0]).cos(), &[0.5], 0.8, v)
        });
        let em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        let op = VlasovOp::new(kernels, grid, FluxKind::Upwind);
        (op, sp, em)
    }

    #[test]
    fn generated_and_runtime_dispatch_agree_on_full_rhs() {
        // 1x1v p=2 Serendipity is in the generated-kernel registry, so Auto
        // must resolve to the generated path, and the full RHS (volume
        // through either path + identical surface terms) must agree to
        // round-off between the two forced paths.
        let (op_auto, sp, mut em) = setup_1x1v(6, 10, 2);
        // Non-trivial EM data so the acceleration terms are exercised.
        for c in 0..op_auto.grid.conf.len() {
            for (i, v) in em.cell_mut(c).iter_mut().enumerate() {
                *v = ((c * 31 + i) as f64 * 0.61).sin() * 0.3;
            }
        }
        assert_eq!(op_auto.dispatch_path(), DispatchPath::Generated);
        assert_eq!(op_auto.op_report().path, DispatchPath::Generated);

        let op_rt = VlasovOp::with_dispatch(
            Arc::clone(&op_auto.kernels),
            op_auto.grid.clone(),
            FluxKind::Upwind,
            KernelDispatch::RuntimeSparse,
        );
        assert_eq!(op_rt.dispatch_path(), DispatchPath::RuntimeSparse);
        assert_eq!(op_rt.op_report().path, DispatchPath::RuntimeSparse);

        let mut ws = VlasovWorkspace::for_kernels(&op_auto.kernels);
        let mut out_gen = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        op_auto.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_gen, &mut ws);
        let mut out_rt = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        op_rt.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_rt, &mut ws);

        let scale = out_rt.max_abs().max(1.0);
        for c in 0..out_rt.ncells() {
            for (a, b) in out_gen.cell(c).iter().zip(out_rt.cell(c)) {
                assert!(
                    (a - b).abs() < 1e-13 * scale,
                    "cell {c}: generated {a} vs runtime {b}"
                );
            }
        }
    }

    #[test]
    fn generated_full_rhs_conserves_on_short_periodic_directions() {
        // nx = 1 exercises the single-cell periodic wrap (both face sides
        // are the same cell — the workspace-staged branch); nx = 2 the
        // two-cell periodic direction where every face is also the wrap
        // partner's face. Dispatch is forced Generated so the generated
        // surface kernels run, and the RHS must (a) match the runtime
        // sparse path to round-off and (b) conserve mass exactly.
        for nx in [1usize, 2] {
            let (op_rt, sp, mut em) = setup_1x1v(nx, 12, 2);
            for c in 0..op_rt.grid.conf.len() {
                for (i, v) in em.cell_mut(c).iter_mut().enumerate() {
                    *v = ((c * 17 + i) as f64 * 0.37).sin() * 0.25;
                }
            }
            let op_rt = VlasovOp::with_dispatch(
                Arc::clone(&op_rt.kernels),
                op_rt.grid.clone(),
                FluxKind::Upwind,
                KernelDispatch::RuntimeSparse,
            );
            let op_gen = VlasovOp::with_dispatch(
                Arc::clone(&op_rt.kernels),
                op_rt.grid.clone(),
                FluxKind::Upwind,
                KernelDispatch::Generated,
            );
            assert_eq!(op_gen.surface_dispatch_path(), DispatchPath::Generated);
            assert_eq!(op_gen.op_report().surface_path, DispatchPath::Generated);
            assert_eq!(op_rt.op_report().surface_path, DispatchPath::RuntimeSparse);

            let mut ws = VlasovWorkspace::for_kernels(&op_gen.kernels);
            let mut out_gen = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
            op_gen.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_gen, &mut ws);
            let mut out_rt = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
            op_rt.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_rt, &mut ws);

            let scale = out_rt.max_abs().max(1.0);
            for c in 0..out_rt.ncells() {
                for (a, b) in out_gen.cell(c).iter().zip(out_rt.cell(c)) {
                    assert!(
                        (a - b).abs() < 1e-13 * scale,
                        "nx={nx} cell {c}: generated {a} vs runtime {b}"
                    );
                }
            }
            // Mass conservation: single-valued fluxes telescope (including
            // across the wrap), velocity boundaries are zero-flux.
            let total: f64 = (0..out_gen.ncells()).map(|c| out_gen.cell(c)[0]).sum();
            let mag: f64 = (0..out_gen.ncells())
                .map(|c| out_gen.cell(c)[0].abs())
                .sum();
            assert!(
                total.abs() < 1e-12 * mag.max(1e-30) + 1e-13,
                "nx={nx}: mass leak {total} (scale {mag})"
            );
        }
    }

    /// Grids chosen to break a panel schedule — (poly order, configuration
    /// cells, velocity cells): pencil counts that are not multiples of a
    /// lane width, `n_j = 2` (one face per pencil), `n_j = 1` (no faces),
    /// fewer faces than lanes in a whole direction, one long pencil (1x1v,
    /// 63 faces), 2x3v with 3×5×2, and `nv % 8` ∈ {0, 1, 4, 7} for the
    /// partial panels of the cell sweeps.
    const SCHEDULE_CASES: &[(usize, &[usize], &[usize])] = &[
        (1, &[2], &[5, 3]),
        (2, &[1], &[2, 7]),
        (1, &[2], &[1, 6]),
        (1, &[1], &[2, 2]),
        (2, &[2], &[64]),
        (2, &[2], &[9]),
        (1, &[2], &[3, 4]),
        (1, &[2, 1], &[3, 5, 2]),
    ];

    /// A forced-`Generated` operator on one schedule case, with synthetic
    /// `f` and `em`.
    fn schedule_case(
        p: usize,
        conf_cells: &[usize],
        vel_cells: &[usize],
        flux: FluxKind,
        bcs: Vec<DimBc>,
    ) -> (VlasovOp, DgField, DgField) {
        let (cdim, vdim) = (conf_cells.len(), vel_cells.len());
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(cdim, vdim), p);
        let grid = PhaseGrid::new(
            CartGrid::new(&vec![0.0; cdim], &vec![1.0; cdim], conf_cells),
            CartGrid::new(&vec![-3.0; vdim], &vec![3.0; vdim], vel_cells),
            bcs,
        );
        let mut f = DgField::zeros(grid.conf.len() * grid.vel.len(), kernels.np());
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37 % 101) as f64 - 50.0) * 1e-2;
        }
        let mut em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        for (i, v) in em.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 13 % 17) as f64 - 8.0) * 0.1;
        }
        let op = VlasovOp::with_dispatch(kernels, grid, flux, KernelDispatch::Generated);
        (op, f, em)
    }

    fn periodic(cdim: usize) -> Vec<DimBc> {
        vec![DimBc::from(Bc::Periodic); cdim]
    }

    /// (poly order, configuration cells, velocity cells, boundary
    /// conditions).
    type CellCase = (usize, &'static [usize], &'static [usize], Vec<DimBc>);

    /// [`SCHEDULE_CASES`] and the 1x1v lane groups of the pass's velocity
    /// faces — one velocity cell, a single partial group, exactly one group
    /// at 8 lanes, a spare-heavy partial last group — on periodic grids,
    /// then two walled 1x1v cases and a walled 2x2v one: every wall flavour
    /// on either side of either axis.
    fn cell_cases() -> impl Iterator<Item = CellCase> {
        const ONE_V: &[(usize, &[usize], &[usize])] = &[
            (2, &[3], &[1]),
            (1, &[3], &[7]),
            (2, &[2], &[8]),
            (1, &[4], &[17]),
        ];
        let periodic = SCHEDULE_CASES
            .iter()
            .chain(ONE_V)
            .map(|&(p, conf, vel)| (p, conf, vel, periodic(conf.len())));
        let walled: [CellCase; 3] = [
            (2, &[3], &[9], vec![DimBc::new(Bc::Reflect, Bc::Absorb)]),
            (1, &[2], &[17], vec![DimBc::new(Bc::Copy, Bc::Reflect)]),
            (
                1,
                &[3, 2],
                &[3, 3],
                vec![
                    DimBc::new(Bc::Absorb, Bc::Copy),
                    DimBc::new(Bc::Copy, Bc::Reflect),
                ],
            ),
        ];
        periodic.chain(walled)
    }

    /// Re-resolve every batched entry point of `op` to `isa` — what the
    /// operator would have picked on a CPU whose widest ISA that is, the
    /// cell-lane pass included; `false` when this host cannot run it.
    fn force_isa(op: &mut VlasovOp, isa: BatchIsa) -> bool {
        let k = &op.kernels;
        let (kind, p) = (k.phase_basis.kind(), k.phase_basis.poly_order());
        let vol = find_volume_kernel(kind, k.layout, p).expect("case is in the registry");
        let surf = find_surface_kernel(kind, k.layout, p).expect("case is in the registry");
        let Some(batch) = VolumeBatch::for_isa(vol, isa) else {
            return false;
        };
        op.volume_path = ResolvedVolume::Generated {
            func: vol.func,
            batch,
        };
        for (d, path) in op.surface_paths.iter_mut().enumerate() {
            *path = ResolvedSurfaceDir::Generated {
                func: surf.dirs[d],
                batch: SurfaceBatch::for_isa(surf, d, isa).expect("volume resolved"),
            };
        }
        op.cell_pass = Some(CellPass::new(batch, surf, op.grid.cdim(), op.grid.vdim()));
        true
    }

    const ISAS: [BatchIsa; 3] = [BatchIsa::Baseline, BatchIsa::Avx2, BatchIsa::Avx512];

    /// Run `check` on the operator as resolved for this host, then forced
    /// to every entry-point family the host offers (so an AVX-512 machine
    /// also covers what an AVX2-only and a non-x86 one would run); which of
    /// [`ISAS`] ran comes back for [`report_widths`].
    fn at_every_width(op: &mut VlasovOp, mut check: impl FnMut(&VlasovOp, &str)) -> [bool; 3] {
        check(op, "as resolved");
        ISAS.map(|isa| {
            let ran = force_isa(op, isa);
            if ran {
                check(op, isa.tag());
            }
            ran
        })
    }

    #[test]
    fn entry_point_tags_name_what_the_rhs_runs() {
        // 1x1v: the pass runs every direction, so only its width shows, even
        // with the velocity direction's per-phase entry point forced to
        // another family. 2x3v: the velocity faces run `surface_velocity`,
        // whose width joins the tag when it differs from the pass's.
        let (mut one_v, ..) = schedule_case(1, &[3], &[8], FluxKind::Upwind, periodic(1));
        let (mut three_v, ..) =
            schedule_case(1, &[2, 2], &[2, 2, 2], FluxKind::Upwind, periodic(2));
        // As resolved, the configuration directions' 4-lane per-phase
        // entry points never show.
        assert_eq!(
            one_v.kernel_entry_points().to_string(),
            one_v.volume_path.tag()
        );
        for isa in ISAS {
            if !(force_isa(&mut one_v, isa) && force_isa(&mut three_v, isa)) {
                continue;
            }
            assert_eq!(one_v.kernel_entry_points().to_string(), isa.tag());
            assert_eq!(three_v.kernel_entry_points().to_string(), isa.tag());
            if isa == BatchIsa::Baseline {
                continue;
            }
            for op in [&mut one_v, &mut three_v] {
                let surf = find_surface_kernel(
                    op.kernels.phase_basis.kind(),
                    op.kernels.layout,
                    op.kernels.phase_basis.poly_order(),
                )
                .unwrap();
                let cdim = op.grid.cdim();
                for (d, path) in op.surface_paths.iter_mut().enumerate().skip(cdim) {
                    *path = ResolvedSurfaceDir::Generated {
                        func: surf.dirs[d],
                        batch: SurfaceBatch::for_isa(surf, d, BatchIsa::Baseline).unwrap(),
                    };
                }
            }
            assert_eq!(one_v.kernel_entry_points().to_string(), isa.tag());
            assert_eq!(
                three_v.kernel_entry_points().to_string(),
                format!("{} + {}", isa.tag(), BatchIsa::Baseline.tag())
            );
        }
        // Runtime-sparse runs no pass and names no width.
        let sparse = VlasovOp::with_dispatch(
            Arc::clone(&one_v.kernels),
            one_v.grid.clone(),
            FluxKind::Upwind,
            KernelDispatch::RuntimeSparse,
        );
        assert_eq!(
            sparse.kernel_entry_points().to_string(),
            dg_kernels::dispatch::RUNTIME_SPARSE_TAG
        );
    }

    fn report_widths(test: &str, ran: [bool; 3]) {
        for (isa, ran) in ISAS.iter().zip(ran) {
            let what = if ran {
                "ran"
            } else {
                "skipped: not on this CPU"
            };
            println!("{test}: {} {what}", isa.tag());
        }
    }

    /// `acc` plus every velocity face through the one-lane generated
    /// kernels: per configuration cell, directions ascending, pencil by
    /// pencil, faces ascending — so each cell receives its lower face before
    /// its upper one. Built from the grid alone, not from the operator's
    /// face tables.
    fn scalar_vel_faces(
        op: &VlasovOp,
        qm: f64,
        f: &DgField,
        em: &DgField,
        mut acc: DgField,
    ) -> DgField {
        let k = &op.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let grid = &op.grid;
        let (nv, nconf) = (grid.vel.len(), grid.conf.len());
        let entry =
            find_surface_kernel(BasisKind::Serendipity, k.layout, k.phase_basis.poly_order())
                .expect("case is in the registry");
        let mut vidx = vec![0usize; vdim];
        let mut w = vec![0.0; cdim + vdim];
        for clin in 0..nconf {
            w[..cdim].copy_from_slice(&op.conf_centers[clin * cdim..][..cdim]);
            for j in 0..vdim {
                let stride = grid.vel.stride(j);
                for base in 0..nv {
                    grid.vel.delinearize(base, &mut vidx);
                    if vidx[j] != 0 {
                        continue;
                    }
                    for i in 0..grid.vel.cells()[j] - 1 {
                        let vlo = base + i * stride;
                        w[cdim..].copy_from_slice(&op.vel_centers[vlo][..vdim]);
                        let lo_cell = clin * nv + vlo;
                        let (o_lo, o_hi) = acc.cell_pair_mut(lo_cell, lo_cell + stride);
                        (entry.dirs[cdim + j])(
                            &w,
                            &op.dxv,
                            qm,
                            em.cell(clin),
                            op.flux != FluxKind::Central,
                            f.cell(lo_cell),
                            f.cell(lo_cell + stride),
                            o_lo,
                            o_hi,
                        );
                    }
                }
            }
        }
        acc
    }

    #[test]
    fn face_panel_schedule_matches_scalar_pencil_sweep_bitwise() {
        // `surface_velocity` batches a face-index-major face list across
        // pencils. The reference is the sweep it replaced: the scalar
        // generated kernels, pencil by pencil, faces ascending.
        let mut ran = [false; 3];
        for &(p, conf_cells, vel_cells) in SCHEDULE_CASES {
            let (cdim, vdim) = (conf_cells.len(), vel_cells.len());
            for flux in [FluxKind::Upwind, FluxKind::Central] {
                let (mut op, f, em) = schedule_case(p, conf_cells, vel_cells, flux, periodic(cdim));
                let (nv, nconf) = (op.grid.vel.len(), op.grid.conf.len());
                // Non-zero starting increments, so the order in which a cell
                // receives its two face contributions shows in the bits.
                let mut start = DgField::zeros(nconf * nv, op.kernels.np());
                for (i, v) in start.as_mut_slice().iter_mut().enumerate() {
                    *v = ((i * 29 % 53) as f64 - 26.0) * 0.3;
                }
                let qm = -1.5;
                let want = scalar_vel_faces(&op, qm, &f, &em, start.clone());

                ran = at_every_width(&mut op, |op, width| {
                    let mut got = start.clone();
                    let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
                    op.surface_velocity(qm, &f, &em, &mut got, &mut ws, 0..nconf);
                    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{cdim}x{vdim}v p{p} vel {vel_cells:?} {flux:?} {width}: coefficient \
                             {i} face-panel sweep {a} vs scalar pencil sweep {b}"
                        );
                    }
                });
            }
        }
        report_widths("face_panel_schedule", ran);
    }

    /// `acc` plus every configuration face through the one-lane generated
    /// kernels, in a whole-domain sweep's order: directions ascending; per
    /// direction the lower walls, the faces by ascending lower cell (a
    /// single-cell periodic wrap staged and its two sides summed), the
    /// upper walls — walls through `surface_config_wall`, the per-cell
    /// scalar code both sweeps share.
    fn scalar_conf_faces(op: &VlasovOp, f: &DgField, bcs: &[DimBc], mut acc: DgField) -> DgField {
        let k = &op.kernels;
        let (cdim, vdim, np) = (k.layout.cdim, k.layout.vdim, k.np());
        let (nv, nconf) = (op.grid.vel.len(), op.grid.conf.len());
        let surf =
            find_surface_kernel(BasisKind::Serendipity, k.layout, k.phase_basis.poly_order())
                .expect("case is in the registry");
        let mut ws = VlasovWorkspace::for_kernels(k);
        let mut w = vec![0.0; cdim + vdim];
        let (mut a, mut b) = (vec![0.0; np], vec![0.0; np]);
        for d in 0..cdim {
            let mut walls = |cells: &[u32], side, bc: Bc, acc: &mut DgField| {
                if bc.is_wall() {
                    for &clin in cells {
                        op.surface_config_wall(d, side, bc, f, acc, &mut ws, clin as usize);
                    }
                }
            };
            walls(&op.wall_lo[d], -1, bcs[d].lower, &mut acc);
            for clo in 0..nconf {
                let Some(chi) = op.conf_nbr[d][clo] else {
                    continue;
                };
                w[..cdim].copy_from_slice(&op.conf_centers[clo * cdim..][..cdim]);
                for vlin in 0..nv {
                    w[cdim..].copy_from_slice(&op.vel_centers[vlin][..vdim]);
                    let (lo, hi) = (clo * nv + vlin, chi as usize * nv + vlin);
                    let kernel = surf.dirs[d];
                    if lo == hi {
                        a.fill(0.0);
                        b.fill(0.0);
                        kernel(
                            &w,
                            &op.dxv,
                            0.0,
                            &[],
                            true,
                            f.cell(lo),
                            f.cell(lo),
                            &mut a,
                            &mut b,
                        );
                        for (o, (a, b)) in acc.cell_mut(lo).iter_mut().zip(a.iter().zip(&b)) {
                            *o += a + b;
                        }
                    } else {
                        let (o_lo, o_hi) = acc.cell_pair_mut(lo, hi);
                        kernel(
                            &w,
                            &op.dxv,
                            0.0,
                            &[],
                            true,
                            f.cell(lo),
                            f.cell(hi),
                            o_lo,
                            o_hi,
                        );
                    }
                }
            }
            walls(&op.wall_hi[d], 1, bcs[d].upper, &mut acc);
        }
        acc
    }

    #[test]
    fn cell_panel_schedule_matches_scalar_cell_sweep_bitwise() {
        // The volume twin of the face-panel test, and the configuration
        // faces with it: `volume` and `surface_config` batch runs of
        // velocity cells with a partial last panel per configuration cell,
        // and the cell-lane pass runs both — on 1v the velocity faces too —
        // over panels resident for a whole lane group. The reference is the
        // scalar generated kernels cell by cell: the volume from zero (each
        // cell's first contribution), then the configuration faces with `d`
        // ascending — onto non-zero increments for the per-phase sweep, onto
        // the volume for the whole block RHS, which then takes the velocity
        // faces, lower before upper.
        let (mut ran, mut ran_1v) = ([false; 3], [false; 3]);
        for (p, conf_cells, vel_cells, bcs) in cell_cases() {
            let (cdim, vdim) = (conf_cells.len(), vel_cells.len());
            let (mut op, f, em) =
                schedule_case(p, conf_cells, vel_cells, FluxKind::Upwind, bcs.clone());
            let (nv, nconf, np) = (op.grid.vel.len(), op.grid.conf.len(), op.kernels.np());
            let qm = 0.75;
            let vol = find_volume_kernel(BasisKind::Serendipity, op.kernels.layout, p).unwrap();

            let mut w = vec![0.0; cdim + vdim];
            let mut want_vol = DgField::zeros(nconf * nv, np);
            for clin in 0..nconf {
                w[..cdim].copy_from_slice(&op.conf_centers[clin * cdim..][..cdim]);
                for vlin in 0..nv {
                    w[cdim..].copy_from_slice(&op.vel_centers[vlin][..vdim]);
                    let cell = clin * nv + vlin;
                    (vol.func)(
                        &w,
                        &op.dxv,
                        qm,
                        em.cell(clin),
                        f.cell(cell),
                        want_vol.cell_mut(cell),
                    );
                }
            }
            let mut start = DgField::zeros(nconf * nv, np);
            for (i, v) in start.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 31 % 47) as f64 - 23.0) * 0.2;
            }
            let want_faces = scalar_conf_faces(&op, &f, &bcs, start.clone());
            let want_pass = scalar_conf_faces(&op, &f, &bcs, want_vol.clone());
            let want_pass = scalar_vel_faces(&op, qm, &f, &em, want_pass);

            let widths = at_every_width(&mut op, |op, width| {
                let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
                let mut got_vol = DgField::zeros(nconf * nv, np);
                op.volume(qm, &f, &em, &mut got_vol, &mut ws, 0..nconf);
                let mut got_faces = start.clone();
                for (d, &bc) in bcs.iter().enumerate() {
                    op.surface_config(d, &f, &mut got_faces, &mut ws, 0..nconf, bc);
                }
                let per_phase_wall = ws.wall.clone();
                ws.wall.reset();
                let mut got_pass = DgField::zeros(nconf * nv, np);
                op.accumulate_block_rhs(
                    qm,
                    &f,
                    &em,
                    &mut got_pass,
                    &mut ws,
                    0..conf_cells[0],
                    &bcs,
                );
                for (what, got, want) in [
                    ("volume", &got_vol, &want_vol),
                    ("config faces", &got_faces, &want_faces),
                    ("block RHS", &got_pass, &want_pass),
                ] {
                    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{cdim}x{vdim}v p{p} vel {vel_cells:?} {bcs:?} {width}: {what} \
                             coefficient {i} panel sweep {a} vs scalar cell sweep {b}"
                        );
                    }
                }
                // The ledger sums the same staged increments: in the same
                // order while one cell carries each wall (1x), lane group
                // by lane group otherwise.
                for (a, b) in ws
                    .wall
                    .mass
                    .iter()
                    .chain(&ws.wall.energy)
                    .zip(per_phase_wall.mass.iter().chain(&per_phase_wall.energy))
                {
                    if cdim == 1 {
                        assert_eq!(a, b, "{bcs:?} {width}: wall ledger");
                    } else {
                        for s in 0..2 {
                            assert!((a[s] - b[s]).abs() <= 1e-12 * b[s].abs().max(1.0));
                        }
                    }
                }
            });
            ran = widths;
            if vdim == 1 {
                ran_1v = widths;
            }
        }
        report_widths("cell_panel_schedule", ran);
        // The velocity faces run inside the pass on 1v only.
        report_widths("cell_pass_1v_schedule", ran_1v);
    }

    #[test]
    fn cell_pass_counts_and_spans_like_the_per_phase_sweeps() {
        // The block RHS — the pass, and on more than one velocity dimension
        // `surface_velocity` after it — bumps `CellsSwept`, `DofProcessed`
        // and `FacesSwept` exactly as `volume` + `surface_config` +
        // `surface_velocity` do, charges the same phases, and its spans
        // never nest: they are disjoint slices of the call, so their times
        // add up to no more than its length.
        let count = |run: &mut dyn FnMut(&mut VlasovWorkspace), op: &VlasovOp| {
            let reg = Arc::new(Registry::new(1));
            let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
            ws.probe = reg.collector(0);
            let t0 = dg_telemetry::now_ns();
            run(&mut ws);
            (reg.snapshot(), dg_telemetry::now_ns() - t0)
        };
        for (p, conf_cells, vel_cells, bcs) in cell_cases() {
            let (op, f, em) =
                schedule_case(p, conf_cells, vel_cells, FluxKind::Upwind, bcs.clone());
            let nconf = op.grid.conf.len();
            let (per_phase, _) = count(
                &mut |ws| {
                    op.volume(0.5, &f, &em, &mut f.clone(), ws, 0..nconf);
                    for (d, &bc) in bcs.iter().enumerate() {
                        op.surface_config(d, &f, &mut f.clone(), ws, 0..nconf, bc);
                    }
                    op.surface_velocity(0.5, &f, &em, &mut f.clone(), ws, 0..nconf);
                },
                &op,
            );
            let mut out = DgField::zeros(f.ncells(), f.ncoeff());
            let (pass, elapsed) = count(
                &mut |ws| {
                    op.accumulate_block_rhs(0.5, &f, &em, &mut out, ws, 0..conf_cells[0], &bcs)
                },
                &op,
            );
            for c in [
                Counter::CellsSwept,
                Counter::DofProcessed,
                Counter::FacesSwept,
            ] {
                assert_eq!(pass.counter(c), per_phase.counter(c), "{bcs:?}: {c:?}");
            }
            let phases = [Phase::Volume, Phase::Surface, Phase::Ghosts];
            for ph in phases {
                let charged = |s: &dg_telemetry::Snapshot| s.calls[ph.idx()] > 0;
                assert_eq!(charged(&pass), charged(&per_phase), "{bcs:?}: {ph:?}");
            }
            let spanned: u64 = phases.iter().map(|&ph| pass.phase_ns(ph)).sum();
            assert!(
                spanned <= elapsed,
                "{bcs:?}: spans overlap ({spanned} > {elapsed} ns)"
            );
        }
    }

    #[test]
    fn forcing_generated_on_unregistered_config_panics_with_guidance() {
        // 1x3v p1 has no generated kernel; the forced-Generated constructor
        // must fail loudly (Auto on the same config falls back silently —
        // covered by the kernels-crate dispatch tests).
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 3), 1);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[2]),
            CartGrid::new(&[-1.0; 3], &[1.0; 3], &[2, 2, 2]),
            vec![Bc::Periodic],
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            VlasovOp::with_dispatch(kernels, grid, FluxKind::Upwind, KernelDispatch::Generated)
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("no generated volume kernel") && msg.contains("codegen::MANIFEST"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn rhs_conserves_mass_exactly() {
        let (op, sp, em) = setup_1x1v(8, 12, 2);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        // Σ_cells d/dt (cell mean) = 0 exactly (single-valued fluxes +
        // zero-flux velocity boundaries).
        let total: f64 = (0..out.ncells()).map(|c| out.cell(c)[0]).sum();
        let scale: f64 = (0..out.ncells()).map(|c| out.cell(c)[0].abs()).sum();
        assert!(
            total.abs() < 1e-12 * scale.max(1e-30) + 1e-13,
            "mass leak {total} (scale {scale})"
        );
    }

    #[test]
    fn free_streaming_shifts_density() {
        // With E = B = 0, a drifting Maxwellian must advect: the RHS of the
        // x-moments equals −∂(u n)/∂x; just check the RHS is non-trivial and
        // mean-free per velocity slab.
        let (op, sp, em) = setup_1x1v(8, 12, 1);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        assert!(
            out.max_abs() > 1e-8,
            "free streaming should move phase space"
        );
        // No acceleration ⇒ velocity-direction flux identically zero ⇒ for
        // each velocity cell, summing means over x conserves that slab.
        let nv = op.grid.vel.len();
        for vlin in 0..nv {
            let slab: f64 = (0..op.grid.conf.len())
                .map(|c| out.cell(c * nv + vlin)[0])
                .sum();
            assert!(slab.abs() < 1e-12, "slab {vlin} leak {slab}");
        }
    }

    #[test]
    fn uniform_plasma_zero_field_is_steady() {
        // Spatially uniform f, no fields: every term vanishes identically.
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 2), 1);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[4]),
            CartGrid::new(&[-5.0, -5.0], &[5.0, 5.0], &[6, 6]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 3, &mut |_x, v| {
            maxwellian(1.0, &[0.0, 0.0], 1.0, v)
        });
        let em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        let op = VlasovOp::new(kernels, grid, FluxKind::Upwind);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        assert!(
            out.max_abs() < 1e-12,
            "uniform steady state violated: {}",
            out.max_abs()
        );
    }

    #[test]
    fn constant_e_field_accelerates_with_correct_sign() {
        // Uniform f, constant E_x > 0, negative charge: ∂f/∂t = −α ∂f/∂v
        // with α = qm E < 0 pushes the distribution toward negative v:
        // d/dt ∫ v f dz = qm E ∫ f < 0.
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[2]),
            CartGrid::new(&[-8.0], &[8.0], &[16]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 4, &mut |_x, v| {
            maxwellian(1.0, &[0.0], 1.0, v)
        });
        let mut em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        let nc = kernels.nc();
        let c0 = dg_basis::expand::const_coeff(&kernels.conf_basis);
        for c in 0..grid.conf.len() {
            em.cell_mut(c)[0] = 2.0 * c0; // E_x = 2
        }
        let op = VlasovOp::new(Arc::clone(&kernels), grid.clone(), FluxKind::Upwind);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);

        // d/dt M1 via the moment kernels applied to the RHS.
        let mut dm1 = vec![0.0; nc];
        let jv = grid.vel_jacobian();
        let nv = grid.vel.len();
        let mut vidx = [0usize; 1];
        for clin in 0..grid.conf.len() {
            for vlin in 0..nv {
                grid.vel.delinearize(vlin, &mut vidx);
                let vc = grid.vel.center(0, vidx[0]);
                kernels.moments.accumulate_m1(
                    0,
                    out.cell(clin * nv + vlin),
                    jv,
                    vc,
                    grid.vel.dx()[0],
                    &mut dm1,
                );
            }
        }
        // Mean of dM1/dt over the domain: qm E n = (−1)(2)(1) = −2 per unit
        // volume; two conf cells of width 0.5 each.
        let mean_dm1: f64 = dm1[0] / c0 / grid.conf.len() as f64;
        assert!(
            (mean_dm1 + 2.0).abs() < 1e-6,
            "momentum change rate {mean_dm1}, want −2"
        );
    }
}
