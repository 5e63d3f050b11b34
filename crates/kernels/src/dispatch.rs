//! Kernel dispatch: generated unrolled kernels in the hot path.
//!
//! Gkeyll's production solvers never run a generic tensor contraction: for
//! every `(basis family, phase layout, poly order)` it ships a fully
//! unrolled, computer-algebra-generated kernel, selected once when the
//! solver is built. This module is that selection layer for the generated
//! Rust kernels under [`crate::generated`]:
//!
//! * [`VolumeKernelFn`] is the calling convention of a generated volume
//!   kernel (the paper's Fig. 1 signature: cell center, cell sizes, `q/m`,
//!   flattened EM coefficients, distribution coefficients, RHS increment);
//! * [`SurfaceKernelFn`] is the calling convention of a generated surface
//!   kernel — one function per *face-normal direction* (streaming kernels
//!   for configuration directions, acceleration kernels for velocity
//!   directions), mirroring Gkeyll's `vlasov_surf[x|vx]_*` split;
//! * the **registry** ([`registry`]) is one static table, emitted by the
//!   same generator as the kernels themselves, with one [`KernelRow`] per
//!   configuration holding its volume, surface, moment and LBO kernels.
//!
//! The configuration decides the path, and there is no knob: an operator
//! looks up its row once when it is constructed ([`row_for`]) and runs the
//! generated kernels when there is one, the runtime sparse-tensor path
//! otherwise — the runtime sparse-tensor evaluator of
//! [`crate::sparse`], behind the same calling conventions. The operators'
//! `with_row` constructors take the row as an `Option`; passing `None` on a
//! registered configuration is how the equivalence tests reach the
//! runtime-sparse oracle. The same step picks, from the CPU alone, which
//! compilation of the lane-generic kernel bodies the operator calls — and
//! with it the lane width of its panels and the pack/unpack moves
//! ([`BatchIsa`], [`VlasovBatch`], [`LboBatch`]) —
//! bit-identical whichever it is; the hot loops then run with zero per-cell
//! (and per-face) branching.
//!
//! To add a configuration, extend [`crate::codegen::MANIFEST`] and
//! rebuild (see DESIGN.md, "Kernel dispatch").

use crate::moments::{MomentOut, VelocityGrid};
use crate::panel::PanelMoves;
use crate::phase::{PhaseKernels, PhaseLayout};
use dg_basis::BasisKind;

/// Which path a resolution used; *which entry points* a generated path
/// runs is a property of each resolution, not of the process: see
/// [`VlasovBatch::isa`], [`LboBatch::isa`].
pub use crate::ops::DispatchPath;

/// Calling convention of a generated, fully unrolled volume kernel.
///
/// * `w`   — phase-space cell center `[x…, v…]`, length `cdim + vdim`;
/// * `dxv` — phase-space cell sizes, same length;
/// * `qm`  — charge-to-mass ratio `q/m`;
/// * `em`  — flattened EM configuration coefficients, `[Ex, Ey, Ez, Bx,
///   By, Bz, …] × Nc` (trailing components beyond the six used are
///   ignored, so a full 8-component PHM cell slice can be passed as-is);
/// * `f`   — distribution coefficients, length `Np`;
/// * `out` — RHS increment, length `Np` (accumulated, not overwritten).
pub type VolumeKernelFn =
    fn(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], f: &[f64], out: &mut [f64]);

/// Calling convention of a generated, fully unrolled surface kernel for
/// the face between a lower and an upper cell along one phase direction
/// (the direction is baked into the function; the registry holds one
/// function per direction, configuration directions first).
///
/// * `w`   — phase-space center of the *lower* cell `[x…, v…]` (only the
///   coordinates the face flux `α̂` depends on are read: the paired
///   velocity center for streaming faces, the transverse velocity centers
///   for acceleration faces — `α̂` never depends on the face's own normal
///   coordinate, which is what makes the flux single-valued);
/// * `dxv` — phase-space cell sizes, length `cdim + vdim`;
/// * `qm`  — charge-to-mass ratio `q/m`; ignored by streaming kernels;
/// * `em`  — flattened EM configuration coefficients as for
///   [`VolumeKernelFn`]; streaming (configuration-direction) kernels never
///   read it and tolerate an empty slice;
/// * `penalty` — `true` applies the local Lax–Friedrichs penalty with the
///   kernel's built-in exact `sup |α̂|` bound; `false` is the central flux
///   (the energy-conservation experiments);
/// * `f_lo`/`f_hi` — distribution coefficients of the two adjacent cells;
/// * `out_lo`/`out_hi` — RHS increments of the two adjacent cells
///   (accumulated, not overwritten; pass scratch for sides you discard).
pub type SurfaceKernelFn = fn(
    w: &[f64],
    dxv: &[f64],
    qm: f64,
    em: &[f64],
    penalty: bool,
    f_lo: &[f64],
    f_hi: &[f64],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
);

/// Lane count of the `_b4` / `_b4_avx2` entry points, and the width of an
/// LBO pencil group. Four `f64` fill one 256-bit register — the width the
/// `_b4_avx2` entry points run at — and split into two 128-bit SSE2/NEON
/// operations in the portable `_b4` ones. It is *not* the width of a Vlasov
/// panel: that follows the entry points an operator resolved
/// ([`VlasovBatch`]) and is 8 on AVX-512.
pub const LANES: usize = 4;

/// One coefficient across the [`LANES`] pencils of an LBO pencil group —
/// the 4-lane instance of the `[f64; L]` lane groups every lane-generic
/// body is written over (`x[n][k]` = coefficient `n` of lane `k`). A plain
/// array: the generator emits each body once, generic over `const L:
/// usize`, and `L = 1` must *be* the scalar kernel — a `&[f64]` viewed as
/// `&[[f64; 1]]` through `as_chunks` — which an over-aligned wrapper type
/// cannot be. Per lane every instantiation runs the same statements in the
/// same order, so they agree bit for bit. Alignment is the caller's
/// business: see [`crate::panel::LanePanel`].
pub type PencilLanes = [f64; LANES];

/// Calling convention of the portable batched volume entry point
/// (`<name>_b4`): the scalar [`VolumeKernelFn`] over an SoA panel of
/// [`LANES`] phase cells that share one configuration cell (so `em` is
/// lane-constant while `w` varies per lane).
///
/// * `w`   — per-coordinate SoA panel of the cell centers, length
///   `cdim + vdim` (`w[d][k]` = coordinate `d` of lane `k`);
/// * `dxv` — phase-space cell sizes (lane-constant: one grid), length
///   `cdim + vdim`;
/// * `qm`  — charge-to-mass ratio;
/// * `em`  — flattened EM coefficients of the shared configuration cell,
///   as for [`VolumeKernelFn`];
/// * `f`   — SoA panel of distribution coefficients, length `Np`
///   (`f[n][k]` = coefficient `n` of lane `k`);
/// * `out` — SoA panel of RHS increments, length `Np` (accumulated).
///
/// Scalar and batched entry points are instantiations of **one** generated
/// body (`L = 1` is the scalar kernel), so per lane the arithmetic is the
/// same statements in the same order and packing cells, running a batch
/// and unpacking reproduces the scalar results **bit for bit** at every
/// width (asserted in `generated_tests.rs`).
pub type VolumeKernelBatchFn = fn(
    w: &[[f64; LANES]],
    dxv: &[f64],
    qm: f64,
    em: &[f64],
    f: &[[f64; LANES]],
    out: &mut [[f64; LANES]],
);

/// [`VolumeKernelBatchFn`] at lane width `L`, possibly compiled with
/// `#[target_feature]` (`<name>_b4_avx2` at `L = 4`, `<name>_b8_avx512` at
/// `L = 8`): the same generated body, so the same statement stream per
/// lane, at the ISA's vector width. Calling one on a CPU without its
/// feature is undefined behaviour — go through [`VlasovBatch`], which also
/// stores the portable entry point under this type (a safe `fn` coerces to
/// it); only `x86_64` registry rows hold the `#[target_feature]` ones.
pub type VolumeKernelLanesFn<const L: usize> = unsafe fn(
    w: &[[f64; L]],
    dxv: &[f64],
    qm: f64,
    em: &[f64],
    f: &[[f64; L]],
    out: &mut [[f64; L]],
);

/// Calling convention of the portable batched surface entry point
/// (`<dir name>_b4`): the scalar [`SurfaceKernelFn`] over SoA panels of
/// [`LANES`] faces that share one configuration cell (`em` lane-constant,
/// the lower-cell centers `w` per lane). As with [`VolumeKernelBatchFn`],
/// every width is an instantiation of the scalar kernel's own body —
/// including the per-lane penalty speed `λ` — so batched and scalar calls
/// may be mixed freely over a sweep, bit for bit (asserted in
/// `generated_tests.rs`).
pub type SurfaceKernelBatchFn = fn(
    w: &[[f64; LANES]],
    dxv: &[f64],
    qm: f64,
    em: &[f64],
    penalty: bool,
    f_lo: &[[f64; LANES]],
    f_hi: &[[f64; LANES]],
    out_lo: &mut [[f64; LANES]],
    out_hi: &mut [[f64; LANES]],
);

/// [`SurfaceKernelBatchFn`] at lane width `L`, possibly compiled with
/// `#[target_feature]` (`<dir name>_b4_avx2`, `<dir name>_b8_avx512`); see
/// [`VolumeKernelLanesFn`]. Go through [`VlasovBatch`].
pub type SurfaceKernelLanesFn<const L: usize> = unsafe fn(
    w: &[[f64; L]],
    dxv: &[f64],
    qm: f64,
    em: &[f64],
    penalty: bool,
    f_lo: &[[f64; L]],
    f_hi: &[[f64; L]],
    out_lo: &mut [[f64; L]],
    out_hi: &mut [[f64; L]],
);

/// Calling convention of a generated moment kernel: accumulate every
/// moment `out` asks for ([`MomentOut`]: `M0`, all `vdim` directions of
/// `M1` direction-major, `M2`) of **one configuration cell**.
///
/// * `f`   — the cell's velocity block, its `nv × Np` contiguous phase
///   coefficients in `vel`'s row-major order (the layout of a phase field);
/// * `jv`  — the velocity-cell Jacobian `∏ Δv_j/2`, times whatever weight
///   the sum carries (the current passes `charge · jv`);
/// * `vel` — the velocity grid, whose centres the kernel forms as
///   `CartGrid::center` does.
///
/// Each present output is loaded once, summed onto in locals and stored
/// once; the sums run velocity cells ascending with the per-phase-cell
/// statements in their order, so a call equals the loop of per-cell
/// reductions it replaces bit for bit, including onto a non-zero starting
/// value (a second species adding onto the first's current).
/// [`crate::moments::MomentKernels::accumulate_block`] is the runtime twin.
pub type MomentBlockFn = fn(f: &[f64], jv: f64, vel: &VelocityGrid, out: MomentOut<'_>);

/// Calling convention of a generated LBO drag *volume* kernel for one
/// velocity direction: accumulate the weak `∇_{v_j} · (ν (v_j − u_j) f)`
/// cell term. `v_c`/`dv` are the cell's center and width in `v_j`, `u` the
/// flow-velocity configuration coefficients for this direction.
pub type LboDragVolFn = fn(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]);

/// Calling convention of a generated LBO drag *surface* kernel at one
/// interior velocity face (`vstar` = the face's velocity coordinate);
/// updates both adjacent cells with the penalized central flux.
pub type LboDragSurfFn = fn(
    nu: f64,
    vstar: f64,
    dv: f64,
    u: &[f64],
    f_lo: &[f64],
    f_hi: &[f64],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
);

/// Calling convention of a generated LDG gradient kernel for one velocity
/// direction: `g += ∇_{v_j} f` for one cell, one-sided fluxes (the upper
/// neighbor's lower trace `f_up`, or the cell's own upper trace when
/// `at_upper` — i.e. the cell sits on the upper velocity boundary).
pub type LboDiffGradFn = fn(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]);

/// Calling convention of a generated LBO diffusion *volume* kernel for one
/// velocity direction: weak `ν vth²(x) ∂_{v_j} g` cell term (`vth2` =
/// thermal-speed-squared configuration coefficients).
pub type LboDiffVolFn = fn(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]);

/// Calling convention of a generated LBO diffusion *surface* kernel at one
/// interior velocity face: one-sided flux of the LDG gradient (the lower
/// cell's upper trace), updating both adjacent cells.
pub type LboDiffSurfFn =
    fn(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]);

/// The five LBO stage kernels of one velocity direction over SoA panels of
/// [`LANES`] `v_j`-pencils: the `L = LANES` instantiation of the very
/// bodies whose one-lane instantiation is the scalar [`LboDragVolFn`] …
/// [`LboDiffSurfFn`] entry points, so each lane matches the scalar kernel
/// bit for bit (asserted in `generated_tests.rs`). Arguments are the scalar
/// conventions' with every coefficient slice a panel. The pencils of a
/// group may sit in different configuration cells, so `u`/`vth2` are
/// per-lane panels too; `nu`, `v_c`/`vstar`, `dv` and `at_upper` (one grid,
/// one position along the pencils) stay scalars shared by the group.
///
/// One type serves both compilations: the portable `<stage fn>_b4` (safe
/// functions, which coerce to `unsafe fn`) and `<stage fn>_b4_avx2`, built
/// with `#[target_feature(enable = "avx2")]` — calling one of those on a CPU
/// without AVX2 is undefined behaviour. Go through [`LboBatch`].
// The field types are the five scalar conventions above over panels;
// aliases for each would only restate them.
#[allow(clippy::type_complexity)]
#[derive(Clone, Copy, Debug)]
pub struct LboBatchFns {
    pub drag_vol: unsafe fn(
        nu: f64,
        v_c: f64,
        dv: f64,
        u: &[PencilLanes],
        f: &[PencilLanes],
        out: &mut [PencilLanes],
    ),
    pub drag_surf: unsafe fn(
        nu: f64,
        vstar: f64,
        dv: f64,
        u: &[PencilLanes],
        f_lo: &[PencilLanes],
        f_hi: &[PencilLanes],
        out_lo: &mut [PencilLanes],
        out_hi: &mut [PencilLanes],
    ),
    pub diff_grad: unsafe fn(
        dv: f64,
        at_upper: bool,
        f: &[PencilLanes],
        f_up: &[PencilLanes],
        g: &mut [PencilLanes],
    ),
    pub diff_vol: unsafe fn(
        nu: f64,
        dv: f64,
        vth2: &[PencilLanes],
        g: &[PencilLanes],
        out: &mut [PencilLanes],
    ),
    pub diff_surf: unsafe fn(
        nu: f64,
        dv: f64,
        vth2: &[PencilLanes],
        g_lo: &[PencilLanes],
        out_lo: &mut [PencilLanes],
        out_hi: &mut [PencilLanes],
    ),
}

/// Registry key: one kernel configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelKey {
    pub kind: BasisKind,
    pub cdim: usize,
    pub vdim: usize,
    pub poly_order: usize,
}

impl KernelKey {
    pub fn new(kind: BasisKind, layout: PhaseLayout, poly_order: usize) -> Self {
        KernelKey {
            kind,
            cdim: layout.cdim,
            vdim: layout.vdim,
            poly_order,
        }
    }

    pub fn layout(&self) -> PhaseLayout {
        PhaseLayout::new(self.cdim, self.vdim)
    }
}

/// The volume kernel of one registry row.
#[derive(Clone, Copy, Debug)]
pub struct VolumeKernelEntry {
    /// The generated function's name (also its source file stem).
    pub name: &'static str,
    /// The one-lane (scalar) entry point of the generated body.
    pub func: VolumeKernelFn,
    /// The portable 4-lane entry point (`<name>_b4`): `func` over an SoA
    /// panel of [`LANES`] cells, bit-identical per lane.
    pub batch: VolumeKernelBatchFn,
    /// `batch` compiled for AVX2 (`<name>_b4_avx2`), bit-identical again.
    #[cfg(target_arch = "x86_64")]
    pub batch_avx2: VolumeKernelLanesFn<4>,
    /// The 8-lane entry point compiled for AVX-512F (`<name>_b8_avx512`).
    #[cfg(target_arch = "x86_64")]
    pub batch_avx512: VolumeKernelLanesFn<8>,
}

/// The surface kernels of one registry row: all per-direction unrolled
/// surface kernels of one configuration.
#[derive(Clone, Copy, Debug)]
pub struct SurfaceKernelEntry {
    /// The generated source-file stem (per-direction functions append
    /// `_x<d>` / `_v<j>` suffixes).
    pub name: &'static str,
    /// One kernel per phase direction: configuration (streaming) directions
    /// `0..cdim` first, then velocity (acceleration) directions.
    pub dirs: &'static [SurfaceKernelFn],
    /// The portable 4-lane entry points (`<dir name>_b4`), same order as
    /// [`Self::dirs`]: each direction's kernel over an SoA panel of
    /// [`LANES`] faces, bit-identical per lane.
    pub batch: &'static [SurfaceKernelBatchFn],
    /// `batch` compiled for AVX2 (`<dir name>_b4_avx2`), same order.
    #[cfg(target_arch = "x86_64")]
    pub batch_avx2: &'static [SurfaceKernelLanesFn<4>],
    /// The 8-lane entry points compiled for AVX-512F
    /// (`<dir name>_b8_avx512`), same order.
    #[cfg(target_arch = "x86_64")]
    pub batch_avx512: &'static [SurfaceKernelLanesFn<8>],
}

/// The moment kernel of one registry row: the unrolled `M0`/`M1_j`/`M2`
/// reductions of one configuration, one call per configuration cell
/// ([`MomentBlockFn`]).
#[derive(Clone, Copy, Debug)]
pub struct MomentKernelEntry {
    /// The generated source-file stem (the kernel appends `_block`).
    pub name: &'static str,
    pub block: MomentBlockFn,
}

/// The LBO kernels of one registry row: the five unrolled stage functions
/// (drag volume/surface, LDG gradient, diffusion volume/surface) per
/// velocity direction of one configuration. The generator emits each stage
/// body once, generic over the lane count; the fields below are its
/// instantiations.
#[derive(Clone, Copy, Debug)]
pub struct LboKernelEntry {
    /// The generated source-file stem (functions append
    /// `_<stage>_v<j>` suffixes).
    pub name: &'static str,
    /// The one-lane (scalar) entry points, one per velocity direction.
    pub drag_vol: &'static [LboDragVolFn],
    pub drag_surf: &'static [LboDragSurfFn],
    pub diff_grad: &'static [LboDiffGradFn],
    pub diff_vol: &'static [LboDiffVolFn],
    pub diff_surf: &'static [LboDiffSurfFn],
    /// The [`LANES`]-lane entry points (`<stage fn>_b4`), one bundle per
    /// velocity direction — what the pencil-group sweep runs.
    pub batch: &'static [LboBatchFns],
    /// `batch` compiled for AVX2 (`<stage fn>_b4_avx2`), same order.
    #[cfg(target_arch = "x86_64")]
    pub batch_avx2: &'static [LboBatchFns],
}

/// One row of the registry (a table in the generated `mod.rs`): every
/// generated kernel of one configuration. The generator emits all four
/// families for every `MANIFEST` entry, so a configuration either has a
/// row and runs generated kernels throughout, or has none and runs the
/// runtime sparse-tensor path throughout — never a mix.
#[derive(Clone, Copy, Debug)]
pub struct KernelRow {
    pub key: KernelKey,
    pub volume: VolumeKernelEntry,
    pub surface: SurfaceKernelEntry,
    pub moments: MomentKernelEntry,
    pub lbo: LboKernelEntry,
}

/// The registry: one row per generated configuration, in manifest order.
pub fn registry() -> &'static [KernelRow] {
    crate::generated::REGISTRY
}

/// The registry row of a configuration; `None` outside the manifest.
pub fn find_row(
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
) -> Option<&'static KernelRow> {
    let key = KernelKey::new(kind, layout, poly_order);
    registry().iter().find(|row| row.key == key)
}

/// The registry row of the configuration a kernel set was built for — what
/// every operator constructor looks up.
pub fn row_for(kernels: &PhaseKernels) -> Option<&'static KernelRow> {
    find_row(
        kernels.phase_basis.kind(),
        kernels.layout,
        kernels.phase_basis.poly_order(),
    )
}

/// The path a registry row, or its absence, puts an operator on.
pub fn path_of(row: Option<&KernelRow>) -> DispatchPath {
    match row {
        Some(_) => DispatchPath::Generated,
        None => DispatchPath::RuntimeSparse,
    }
}

/// The generated volume kernel of a configuration, if one exists.
pub fn find_volume_kernel(
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
) -> Option<&'static VolumeKernelEntry> {
    find_row(kind, layout, poly_order).map(|row| &row.volume)
}

/// The generated surface kernels of a configuration, if they exist.
pub fn find_surface_kernel(
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
) -> Option<&'static SurfaceKernelEntry> {
    find_row(kind, layout, poly_order).map(|row| &row.surface)
}

/// Tag of the runtime sparse-tensor path in bench and report output; the
/// generated paths print [`BatchIsa::tag`].
pub const RUNTIME_SPARSE_TAG: &str = "runtime-sparse";

/// Which compilation of a lane-generic body an operator runs. The
/// generator emits every Vlasov volume/surface and LBO stage body once and
/// wraps it in thin entry points: the scalar one (one lane), the portable
/// `<name>_b4` (baseline target features) and, on `x86_64`, `<name>_b4_avx2`
/// and — Vlasov kernels only — the 8-lane `<name>_b8_avx512`. None enables
/// `fma` and the body has no `mul_add`, so all execute the same IEEE
/// operations in the same order per lane — the choice changes speed, never
/// bits. The CPU is the only input: there is no option, feature or
/// environment variable that selects the width.
///
/// The lane count follows the ISA rather than being a constant of its own:
/// measured on the 2x3v p2 volume body, 8 lanes on AVX2 buy 1.25× over 4
/// and lose on the streaming faces, 16 lanes on AVX-512 lose to 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchIsa {
    /// The portable 4-lane entry points: every non-`x86_64` target, and
    /// `x86_64` CPUs without AVX2.
    Baseline,
    /// The 4-lane `_b4_avx2` entry points (`x86_64` with AVX2 detected at
    /// run time).
    Avx2,
    /// The 8-lane `_b8_avx512` entry points (`x86_64` with AVX-512F
    /// detected at run time).
    Avx512,
}

impl BatchIsa {
    /// Short human-readable tag for bench and report output — ISA and lane
    /// count of the entry points, so a recorded number says which machine
    /// code produced it.
    pub fn tag(self) -> &'static str {
        match self {
            BatchIsa::Avx512 => "generated/avx512x8",
            BatchIsa::Avx2 => "generated/avx2x4",
            BatchIsa::Baseline => "generated/baselinex4",
        }
    }
}

/// A registry row's batched Vlasov entry points compiled for one ISA, at
/// its lane width `L`: the volume kernel, every phase direction's face
/// kernel (configuration directions first) and the panel moves of the same
/// ISA. The kernel pointers are private and only [`VlasovBatch::for_isa`]
/// stores them, after the check its target features need — which is what
/// makes [`Self::volume`] and [`Self::face`] safe, and this type the only
/// caller of the `#[target_feature]` Vlasov entry points.
#[derive(Clone, Debug)]
pub struct VlasovLanes<const L: usize> {
    volume: VolumeKernelLanesFn<L>,
    faces: Vec<SurfaceKernelLanesFn<L>>,
    /// Pack / unpack-add compiled for the same ISA as the kernels.
    pub moves: PanelMoves<L>,
    isa: BatchIsa,
}

impl<const L: usize> VlasovLanes<L> {
    /// Which compilation this is.
    pub fn isa(&self) -> BatchIsa {
        self.isa
    }

    /// Run the batched volume kernel ([`VolumeKernelBatchFn`] convention).
    #[inline]
    pub fn volume(
        &self,
        w: &[[f64; L]],
        dxv: &[f64],
        qm: f64,
        em: &[f64],
        f: &[[f64; L]],
        out: &mut [[f64; L]],
    ) {
        // SAFETY: the pointer is either a safe portable `_b4` function or a
        // `#[target_feature]` one, and `VlasovBatch::for_isa` — the only
        // place the latter are stored — does so only after
        // `PanelMoves::avx2` / `PanelMoves::avx512` confirmed the feature on
        // this CPU with `is_x86_feature_detected!`. The feature is the
        // function's only extra requirement; its arguments are ordinary
        // checked slices.
        unsafe { (self.volume)(w, dxv, qm, em, f, out) }
    }

    /// Run the batched face kernel of phase direction `d`
    /// ([`SurfaceKernelBatchFn`] convention).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn face(
        &self,
        d: usize,
        w: &[[f64; L]],
        dxv: &[f64],
        qm: f64,
        em: &[f64],
        penalty: bool,
        f_lo: &[[f64; L]],
        f_hi: &[[f64; L]],
        out_lo: &mut [[f64; L]],
        out_hi: &mut [[f64; L]],
    ) {
        // SAFETY: as for `Self::volume` — a `#[target_feature]` pointer is
        // only ever stored by `VlasovBatch::for_isa`, after the runtime
        // check for its feature.
        unsafe { (self.faces[d])(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi) }
    }
}

/// The batched Vlasov entry points an operator calls: one compilation of a
/// registry row's lane-generic bodies, chosen for this CPU, every direction
/// at the lane width that comes with it. Sweeps `match` on the width once
/// and run generic over it.
#[derive(Clone, Debug)]
pub enum VlasovBatch {
    X4(VlasovLanes<4>),
    X8(VlasovLanes<8>),
}

impl VlasovBatch {
    /// The compilation this CPU runs fastest: 8-lane AVX-512 when detected,
    /// else 4-lane AVX2, else the portable one.
    pub fn select(row: &KernelRow) -> Self {
        [BatchIsa::Avx512, BatchIsa::Avx2, BatchIsa::Baseline]
            .into_iter()
            .find_map(|isa| Self::for_isa(row, isa))
            .expect("the portable entry points run on every CPU")
    }

    /// The compilation for `isa` — the portable `_b4` entry points, or on
    /// `x86_64` `_b4_avx2` / `_b8_avx512`; `None` when this CPU cannot run
    /// it.
    pub fn for_isa(row: &KernelRow, isa: BatchIsa) -> Option<Self> {
        let (vol, surf) = (&row.volume, &row.surface);
        match isa {
            BatchIsa::Baseline => Some(VlasovBatch::X4(VlasovLanes {
                volume: vol.batch,
                faces: surf
                    .batch
                    .iter()
                    .map(|&k| k as SurfaceKernelLanesFn<4>)
                    .collect(),
                moves: PanelMoves::lane_copy(),
                isa,
            })),
            #[cfg(target_arch = "x86_64")]
            BatchIsa::Avx2 => PanelMoves::avx2().map(|moves| {
                VlasovBatch::X4(VlasovLanes {
                    volume: vol.batch_avx2,
                    faces: surf.batch_avx2.to_vec(),
                    moves,
                    isa,
                })
            }),
            #[cfg(target_arch = "x86_64")]
            BatchIsa::Avx512 => PanelMoves::avx512().map(|moves| {
                VlasovBatch::X8(VlasovLanes {
                    volume: vol.batch_avx512,
                    faces: surf.batch_avx512.to_vec(),
                    moves,
                    isa,
                })
            }),
            #[cfg(not(target_arch = "x86_64"))]
            _ => None,
        }
    }

    /// Which compilation this is.
    pub fn isa(&self) -> BatchIsa {
        match self {
            VlasovBatch::X4(k) => k.isa,
            VlasovBatch::X8(k) => k.isa,
        }
    }
}

/// The batched LBO stage kernels of one velocity direction, chosen for this
/// CPU; the LBO twin of [`VlasovBatch`], with the same invariant: the
/// pointers are private and an `_b4_avx2` one is only ever stored by
/// [`LboBatch::avx2`], after the runtime AVX2 check. LBO pencil groups stay
/// 4 lanes wide on every ISA (no `_b8_avx512` entry points yet).
#[derive(Clone, Copy, Debug)]
pub struct LboBatch(LboBatchFns, BatchIsa);

impl LboBatch {
    /// The entry points of velocity direction `j` this CPU runs fastest.
    pub fn select(entry: &LboKernelEntry, j: usize) -> Self {
        Self::avx2(entry, j).unwrap_or_else(|| Self::baseline(entry, j))
    }

    /// The portable `<stage fn>_b4` entry points (no CPU requirement).
    pub fn baseline(entry: &LboKernelEntry, j: usize) -> Self {
        LboBatch(entry.batch[j], BatchIsa::Baseline)
    }

    /// The `<stage fn>_b4_avx2` entry points; `None` unless this is an
    /// `x86_64` CPU with AVX2.
    pub fn avx2(entry: &LboKernelEntry, j: usize) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(LboBatch(entry.batch_avx2[j], BatchIsa::Avx2));
        }
        let _ = (entry, j);
        None
    }

    /// Which compilation this is.
    pub fn isa(&self) -> BatchIsa {
        self.1
    }

    /// Drag volume term ([`LboDragVolFn`] convention over panels).
    #[inline]
    pub fn drag_vol(
        &self,
        nu: f64,
        v_c: f64,
        dv: f64,
        u: &[PencilLanes],
        f: &[PencilLanes],
        out: &mut [PencilLanes],
    ) {
        // SAFETY: every pointer in `self.0` is either a safe portable `_b4`
        // function or a `_b4_avx2` one, and `Self::avx2` — the only place
        // the latter are stored — does so only after
        // `is_x86_feature_detected!("avx2")` returned true on this CPU.
        // AVX2 is the functions' only extra requirement; their arguments
        // are ordinary checked slices.
        unsafe { (self.0.drag_vol)(nu, v_c, dv, u, f, out) }
    }

    /// Drag surface term at one interior face ([`LboDragSurfFn`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn drag_surf(
        &self,
        nu: f64,
        vstar: f64,
        dv: f64,
        u: &[PencilLanes],
        f_lo: &[PencilLanes],
        f_hi: &[PencilLanes],
        out_lo: &mut [PencilLanes],
        out_hi: &mut [PencilLanes],
    ) {
        // SAFETY: as for `Self::drag_vol` — an `_b4_avx2` pointer is only
        // ever stored by `Self::avx2`, after the runtime AVX2 check.
        unsafe { (self.0.drag_surf)(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi) }
    }

    /// LDG gradient of one position ([`LboDiffGradFn`]).
    #[inline]
    pub fn diff_grad(
        &self,
        dv: f64,
        at_upper: bool,
        f: &[PencilLanes],
        f_up: &[PencilLanes],
        g: &mut [PencilLanes],
    ) {
        // SAFETY: as for `Self::drag_vol` — an `_b4_avx2` pointer is only
        // ever stored by `Self::avx2`, after the runtime AVX2 check.
        unsafe { (self.0.diff_grad)(dv, at_upper, f, f_up, g) }
    }

    /// Diffusion volume term ([`LboDiffVolFn`]).
    #[inline]
    pub fn diff_vol(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[PencilLanes],
        g: &[PencilLanes],
        out: &mut [PencilLanes],
    ) {
        // SAFETY: as for `Self::drag_vol` — an `_b4_avx2` pointer is only
        // ever stored by `Self::avx2`, after the runtime AVX2 check.
        unsafe { (self.0.diff_vol)(nu, dv, vth2, g, out) }
    }

    /// Diffusion surface term at one interior face ([`LboDiffSurfFn`]).
    #[inline]
    pub fn diff_surf(
        &self,
        nu: f64,
        dv: f64,
        vth2: &[PencilLanes],
        g_lo: &[PencilLanes],
        out_lo: &mut [PencilLanes],
        out_hi: &mut [PencilLanes],
    ) {
        // SAFETY: as for `Self::drag_vol` — an `_b4_avx2` pointer is only
        // ever stored by `Self::avx2`, after the runtime AVX2 check.
        unsafe { (self.0.diff_surf)(nu, dv, vth2, g_lo, out_lo, out_hi) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::MANIFEST;

    #[test]
    fn registry_covers_the_whole_manifest() {
        assert!(MANIFEST.len() >= 5, "manifest shrank below the ISSUE floor");
        for spec in MANIFEST {
            let row = find_row(spec.kind, spec.layout(), spec.poly_order)
                .unwrap_or_else(|| panic!("{} missing from registry", spec.fn_name()));
            assert_eq!(
                row.volume.name,
                spec.fn_name(),
                "registry/manifest name drift"
            );
            let e = find_volume_kernel(spec.kind, spec.layout(), spec.poly_order).unwrap();
            assert!(std::ptr::eq(e, &row.volume), "one lookup, one row");
        }
        assert_eq!(
            registry().len(),
            MANIFEST.len(),
            "registry has entries the manifest does not know about"
        );
    }

    #[test]
    fn surface_registry_covers_the_whole_manifest() {
        for spec in MANIFEST {
            let e = find_surface_kernel(spec.kind, spec.layout(), spec.poly_order)
                .unwrap_or_else(|| panic!("{} missing from surface registry", spec.surf_name()));
            assert_eq!(e.name, spec.surf_name(), "registry/manifest name drift");
            let ndim = spec.cdim + spec.vdim;
            for (what, len) in [
                ("dirs", e.dirs.len()),
                ("batch", e.batch.len()),
                #[cfg(target_arch = "x86_64")]
                ("batch_avx2", e.batch_avx2.len()),
                #[cfg(target_arch = "x86_64")]
                ("batch_avx512", e.batch_avx512.len()),
            ] {
                assert_eq!(len, ndim, "{} {what}: one per phase direction", e.name);
            }
        }
    }

    #[test]
    fn moment_and_lbo_registries_cover_the_whole_manifest() {
        for spec in MANIFEST {
            let row = find_row(spec.kind, spec.layout(), spec.poly_order).unwrap();
            let (m, l) = (&row.moments, &row.lbo);
            assert_eq!(m.name, spec.mom_name(), "registry/manifest name drift");
            assert_eq!(l.name, spec.lbo_name(), "registry/manifest name drift");
            for len in [
                l.drag_vol.len(),
                l.drag_surf.len(),
                l.diff_grad.len(),
                l.diff_vol.len(),
                l.diff_surf.len(),
                l.batch.len(),
                #[cfg(target_arch = "x86_64")]
                l.batch_avx2.len(),
            ] {
                assert_eq!(len, spec.vdim, "one stage kernel per velocity dir");
            }
        }
    }

    #[test]
    fn auto_falls_back_gracefully() {
        // 3x3v p2 is deliberately left out (Np = 256 would dominate
        // crate compile time): no row, so every family runs the runtime
        // path.
        let layout = PhaseLayout::new(3, 3);
        let row = find_row(BasisKind::Serendipity, layout, 2);
        assert!(row.is_none());
        assert!(find_volume_kernel(BasisKind::Serendipity, layout, 2).is_none());
        assert!(find_surface_kernel(BasisKind::Serendipity, layout, 2).is_none());
        assert_eq!(path_of(row), DispatchPath::RuntimeSparse);
    }

    #[test]
    fn forced_paths_resolve_for_fig1_config() {
        let row = find_row(BasisKind::Tensor, PhaseLayout::new(1, 2), 1);
        assert_eq!(path_of(row), DispatchPath::Generated);
        // No row is the oracle's runtime path, on any configuration.
        assert_eq!(path_of(None), DispatchPath::RuntimeSparse);
    }

    #[test]
    fn entry_points_follow_the_cpu_and_the_direction_kind() {
        // The volume and every face direction — configuration and velocity
        // alike — take the widest entry point the CPU has, one compilation
        // at one lane width; LBO stops at AVX2.
        let widest = if PanelMoves::avx512().is_some() {
            BatchIsa::Avx512
        } else if PanelMoves::avx2().is_some() {
            BatchIsa::Avx2
        } else {
            BatchIsa::Baseline
        };
        let four_lane = match widest {
            BatchIsa::Avx512 => BatchIsa::Avx2,
            isa => isa,
        };
        for row in registry() {
            let k = row.key;
            let (batch, faces) = match VlasovBatch::select(row) {
                VlasovBatch::X4(k) => (k.isa, k.faces.len()),
                VlasovBatch::X8(k) => (k.isa, k.faces.len()),
            };
            assert_eq!(batch, widest, "{}", row.surface.name);
            assert_eq!(faces, k.cdim + k.vdim, "{}", row.surface.name);
            assert_eq!(LboBatch::select(&row.lbo, 0).isa(), four_lane);
        }
        assert_eq!(BatchIsa::Avx512.tag(), "generated/avx512x8");
        assert_eq!(BatchIsa::Avx2.tag(), "generated/avx2x4");
        assert_eq!(BatchIsa::Baseline.tag(), "generated/baselinex4");
    }

    #[test]
    fn forced_surface_paths_resolve_for_fig1_config() {
        // Every direction of the Fig. 1 row has its portable entry point, and
        // the one-lane kernel beside it.
        let row = find_row(BasisKind::Tensor, PhaseLayout::new(1, 2), 1).unwrap();
        let Some(VlasovBatch::X4(k)) = VlasovBatch::for_isa(row, BatchIsa::Baseline) else {
            panic!("the portable entry points are 4 lanes wide");
        };
        assert_eq!((k.isa, k.faces.len()), (BatchIsa::Baseline, 3));
        assert_eq!(row.surface.dirs.len(), 3);
    }
}
