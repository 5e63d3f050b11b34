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
//! * the **registries** ([`volume_registry`], [`surface_registry`]) are
//!   static tables, emitted by the same generator as the kernels
//!   themselves, mapping a [`KernelKey`] to the generated function(s);
//! * [`KernelDispatch`] is the public knob: `Auto` resolves to the
//!   generated kernel when one exists and falls back to the runtime
//!   sparse-tensor path otherwise, while `Generated`/`RuntimeSparse` force
//!   a path (benches and equivalence tests).
//!
//! Resolution happens **once**, when an operator is constructed
//! ([`KernelDispatch::resolve`] / [`KernelDispatch::resolve_surface`]); the
//! hot loop then calls through the resolved [`ResolvedVolume`] /
//! [`ResolvedSurfaceDir`] with zero per-cell (and per-face) branching.
//! The same step picks, from the CPU alone, which compilation of the
//! lane-generic kernel bodies the operator calls — and with it the lane
//! width of its panels and the pack/unpack moves ([`BatchIsa`],
//! [`VolumeBatch`], [`SurfaceBatch`], [`LboBatch`]) — bit-identical
//! whichever it is.
//!
//! To add a configuration, extend [`crate::codegen::MANIFEST`] and
//! rebuild (see DESIGN.md, "Kernel dispatch").

use crate::panel::PanelMoves;
use crate::phase::PhaseLayout;
use dg_basis::BasisKind;

/// Which path a resolution used; *which entry points* a generated path
/// runs is a property of each resolution, not of the process: see
/// [`ResolvedVolume::tag`], [`ResolvedSurfaceDir::tag`], [`LboBatch::isa`].
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
/// panel: that follows the entry point an operator resolved
/// ([`VolumeBatch`], [`SurfaceBatch`]) and is 8 on AVX-512.
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
/// feature is undefined behaviour — go through [`VolumeBatch`], which also
/// stores the portable entry point under this type (a safe `fn` coerces to
/// it); only `x86_64` registries hold the `#[target_feature]` ones.
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
/// [`VolumeKernelLanesFn`]. Go through [`SurfaceBatch`].
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

/// Calling convention of a generated `M0` moment kernel: accumulate one
/// phase cell's contribution (`jv` = velocity-cell Jacobian `∏ Δv_j/2`)
/// into the configuration coefficients `m0` (the `_into` convention of
/// `MomentKernels::accumulate_m0`).
pub type MomentM0Fn = fn(f: &[f64], jv: f64, m0: &mut [f64]);

/// Calling convention of a generated `M1_j` moment kernel for one velocity
/// direction (`v_c`/`dv`: the cell's center and width in that direction).
pub type MomentM1Fn = fn(f: &[f64], jv: f64, v_c: f64, dv: f64, m1: &mut [f64]);

/// Calling convention of a generated `M2 = Σ_j ∫ v_j² f dv` moment kernel
/// (`v_c`/`dv`: the velocity cell's centers and widths, length `vdim`).
pub type MomentM2Fn = fn(f: &[f64], jv: f64, v_c: &[f64], dv: &[f64], m2: &mut [f64]);

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

/// One row of the volume-kernel registry (a table in the generated
/// `mod.rs`).
#[derive(Clone, Copy, Debug)]
pub struct VolumeKernelEntry {
    pub key: KernelKey,
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

/// One row of the generated surface-kernel registry: all per-direction
/// unrolled surface kernels of one configuration (a table in the
/// generated `mod.rs`).
#[derive(Clone, Copy, Debug)]
pub struct SurfaceKernelEntry {
    pub key: KernelKey,
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

/// One row of the generated moment-kernel registry: the unrolled
/// `M0`/`M1_j`/`M2` reductions of one configuration (a table in the
/// generated `mod.rs`).
#[derive(Clone, Copy, Debug)]
pub struct MomentKernelEntry {
    pub key: KernelKey,
    /// The generated source-file stem (functions append `_m0` / `_m1_v<j>`
    /// / `_m2` suffixes).
    pub name: &'static str,
    pub m0: MomentM0Fn,
    /// One `M1` kernel per velocity direction.
    pub m1: &'static [MomentM1Fn],
    pub m2: MomentM2Fn,
}

/// One row of the generated LBO-kernel registry: the five unrolled stage
/// functions (drag volume/surface, LDG gradient, diffusion volume/surface)
/// per velocity direction of one configuration (a table in the
/// generated `mod.rs`). The generator emits each stage body once, generic
/// over the lane count; the fields below are its instantiations.
#[derive(Clone, Copy, Debug)]
pub struct LboKernelEntry {
    pub key: KernelKey,
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

/// All generated unrolled volume kernels.
pub fn volume_registry() -> &'static [VolumeKernelEntry] {
    crate::generated::VOLUME_REGISTRY
}

/// All generated unrolled surface kernels.
pub fn surface_registry() -> &'static [SurfaceKernelEntry] {
    crate::generated::SURFACE_REGISTRY
}

/// All generated unrolled moment kernels.
pub fn moment_registry() -> &'static [MomentKernelEntry] {
    crate::generated::MOMENT_REGISTRY
}

/// All generated unrolled LBO collision kernels.
pub fn lbo_registry() -> &'static [LboKernelEntry] {
    crate::generated::LBO_REGISTRY
}

/// Look up the generated volume kernel for a configuration, if one exists.
pub fn find_volume_kernel(
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
) -> Option<&'static VolumeKernelEntry> {
    let key = KernelKey::new(kind, layout, poly_order);
    volume_registry().iter().find(|e| e.key == key)
}

/// Look up the generated surface kernels for a configuration, if any exist.
pub fn find_surface_kernel(
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
) -> Option<&'static SurfaceKernelEntry> {
    let key = KernelKey::new(kind, layout, poly_order);
    surface_registry().iter().find(|e| e.key == key)
}

/// Look up the generated moment kernels for a configuration, if any exist.
pub fn find_moment_kernel(
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
) -> Option<&'static MomentKernelEntry> {
    let key = KernelKey::new(kind, layout, poly_order);
    moment_registry().iter().find(|e| e.key == key)
}

/// Look up the generated LBO kernels for a configuration, if any exist.
pub fn find_lbo_kernel(
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
) -> Option<&'static LboKernelEntry> {
    let key = KernelKey::new(kind, layout, poly_order);
    lbo_registry().iter().find(|e| e.key == key)
}

/// Which volume-kernel path an operator should take. The default, `Auto`,
/// is what every solver gets unless a bench or test forces a path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelDispatch {
    /// Committed unrolled kernel when registered, runtime sparse otherwise.
    #[default]
    Auto,
    /// Force the generated unrolled kernel; resolution fails if the
    /// configuration is not in the registry.
    Generated,
    /// Force the generic runtime sparse-tensor path.
    RuntimeSparse,
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

/// One batched volume entry point at lane width `L` with the panel moves
/// of the same ISA. The kernel pointer is private and only
/// [`VolumeBatch`]'s constructors store one, each after the check its
/// target features need — which is what makes [`VolumeLanes::call`] safe,
/// and this type (with [`SurfaceLanes`]) the only caller of the
/// `#[target_feature]` Vlasov entry points.
#[derive(Clone, Copy, Debug)]
pub struct VolumeLanes<const L: usize> {
    kernel: VolumeKernelLanesFn<L>,
    /// Pack / unpack-add compiled for the same ISA as the kernel.
    pub moves: PanelMoves<L>,
    isa: BatchIsa,
}

impl<const L: usize> VolumeLanes<L> {
    /// Run the batched kernel ([`VolumeKernelBatchFn`] convention).
    #[inline]
    pub fn call(
        &self,
        w: &[[f64; L]],
        dxv: &[f64],
        qm: f64,
        em: &[f64],
        f: &[[f64; L]],
        out: &mut [[f64; L]],
    ) {
        // SAFETY: the pointer is either a safe portable `_b4` function or a
        // `#[target_feature]` one, and `VolumeBatch::avx2` /
        // `VolumeBatch::avx512` — the only places the latter are stored —
        // do so only after `is_x86_feature_detected!` confirmed the feature
        // on this CPU. The feature is the function's only extra
        // requirement; its arguments are ordinary checked slices.
        unsafe { (self.kernel)(w, dxv, qm, em, f, out) }
    }
}

/// The batched volume entry point an operator calls: one of a registry
/// row's compilations, chosen for this CPU, at the lane width that comes
/// with it. Sweeps `match` on the width once and run generic over it.
#[derive(Clone, Copy, Debug)]
pub enum VolumeBatch {
    X4(VolumeLanes<4>),
    X8(VolumeLanes<8>),
}

impl VolumeBatch {
    /// The entry point this CPU runs fastest: 8-lane AVX-512 when
    /// detected, else 4-lane AVX2, else the portable one.
    pub fn select(entry: &VolumeKernelEntry) -> Self {
        Self::avx512(entry)
            .or_else(|| Self::avx2(entry))
            .unwrap_or_else(|| Self::baseline(entry))
    }

    /// The entry point compiled for `isa`; `None` when this CPU cannot run
    /// it.
    pub fn for_isa(entry: &VolumeKernelEntry, isa: BatchIsa) -> Option<Self> {
        match isa {
            BatchIsa::Baseline => Some(Self::baseline(entry)),
            BatchIsa::Avx2 => Self::avx2(entry),
            BatchIsa::Avx512 => Self::avx512(entry),
        }
    }

    /// The portable `<name>_b4` entry point (no CPU requirement).
    pub fn baseline(entry: &VolumeKernelEntry) -> Self {
        VolumeBatch::X4(VolumeLanes {
            kernel: entry.batch,
            moves: PanelMoves::lane_copy(),
            isa: BatchIsa::Baseline,
        })
    }

    /// The `<name>_b4_avx2` entry point; `None` unless this is an `x86_64`
    /// CPU with AVX2.
    pub fn avx2(entry: &VolumeKernelEntry) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(moves) = PanelMoves::avx2() {
            return Some(VolumeBatch::X4(VolumeLanes {
                kernel: entry.batch_avx2,
                moves,
                isa: BatchIsa::Avx2,
            }));
        }
        let _ = entry;
        None
    }

    /// The `<name>_b8_avx512` entry point; `None` unless this is an
    /// `x86_64` CPU with AVX-512F.
    pub fn avx512(entry: &VolumeKernelEntry) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(moves) = PanelMoves::avx512() {
            return Some(VolumeBatch::X8(VolumeLanes {
                kernel: entry.batch_avx512,
                moves,
                isa: BatchIsa::Avx512,
            }));
        }
        let _ = entry;
        None
    }

    /// Which compilation this is.
    pub fn isa(&self) -> BatchIsa {
        match self {
            VolumeBatch::X4(k) => k.isa,
            VolumeBatch::X8(k) => k.isa,
        }
    }
}

/// One batched surface entry point of one face direction at lane width
/// `L`; the surface twin of [`VolumeLanes`], with the same invariant.
#[derive(Clone, Copy, Debug)]
pub struct SurfaceLanes<const L: usize> {
    kernel: SurfaceKernelLanesFn<L>,
    /// Pack / unpack-add compiled for the same ISA as the kernel.
    pub moves: PanelMoves<L>,
    isa: BatchIsa,
}

impl<const L: usize> SurfaceLanes<L> {
    /// Run the batched kernel ([`SurfaceKernelBatchFn`] convention).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn call(
        &self,
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
        // SAFETY: as for `VolumeLanes::call` — a `#[target_feature]`
        // pointer is only ever stored by `SurfaceBatch::avx2` /
        // `SurfaceBatch::avx512`, after the runtime check for its feature.
        unsafe { (self.kernel)(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi) }
    }
}

/// The batched surface entry point of one face direction, chosen for this
/// CPU; the surface twin of [`VolumeBatch`].
#[derive(Clone, Copy, Debug)]
pub enum SurfaceBatch {
    X4(SurfaceLanes<4>),
    X8(SurfaceLanes<8>),
}

impl SurfaceBatch {
    /// The entry point of direction `dir` this CPU runs fastest.
    pub fn select(entry: &SurfaceKernelEntry, dir: usize) -> Self {
        Self::avx512(entry, dir)
            .or_else(|| Self::avx2(entry, dir))
            .unwrap_or_else(|| Self::baseline(entry, dir))
    }

    /// The entry point of direction `dir` compiled for `isa` — at that
    /// ISA's lane width; `None` when this CPU cannot run it.
    pub fn for_isa(entry: &SurfaceKernelEntry, dir: usize, isa: BatchIsa) -> Option<Self> {
        match isa {
            BatchIsa::Baseline => Some(Self::baseline(entry, dir)),
            BatchIsa::Avx2 => Self::avx2(entry, dir),
            BatchIsa::Avx512 => Self::avx512(entry, dir),
        }
    }

    /// The portable `<dir name>_b4` entry point (no CPU requirement).
    pub fn baseline(entry: &SurfaceKernelEntry, dir: usize) -> Self {
        SurfaceBatch::X4(SurfaceLanes {
            kernel: entry.batch[dir],
            moves: PanelMoves::lane_copy(),
            isa: BatchIsa::Baseline,
        })
    }

    /// The `<dir name>_b4_avx2` entry point; `None` unless this is an
    /// `x86_64` CPU with AVX2.
    pub fn avx2(entry: &SurfaceKernelEntry, dir: usize) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(moves) = PanelMoves::avx2() {
            return Some(SurfaceBatch::X4(SurfaceLanes {
                kernel: entry.batch_avx2[dir],
                moves,
                isa: BatchIsa::Avx2,
            }));
        }
        let _ = (entry, dir);
        None
    }

    /// The `<dir name>_b8_avx512` entry point; `None` unless this is an
    /// `x86_64` CPU with AVX-512F.
    pub fn avx512(entry: &SurfaceKernelEntry, dir: usize) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(moves) = PanelMoves::avx512() {
            return Some(SurfaceBatch::X8(SurfaceLanes {
                kernel: entry.batch_avx512[dir],
                moves,
                isa: BatchIsa::Avx512,
            }));
        }
        let _ = (entry, dir);
        None
    }

    /// Which compilation this is.
    pub fn isa(&self) -> BatchIsa {
        match self {
            SurfaceBatch::X4(k) => k.isa,
            SurfaceBatch::X8(k) => k.isa,
        }
    }
}

/// The batched LBO stage kernels of one velocity direction, chosen for this
/// CPU; the LBO twin of [`VolumeBatch`], with the same invariant: the
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

/// Outcome of resolving [`KernelDispatch`] against the registry; held by
/// the solver and consulted without branching per cell.
#[derive(Clone, Copy, Debug)]
pub enum ResolvedVolume {
    Generated {
        func: VolumeKernelFn,
        /// The SIMD-batched companion for panel sweeps, as selected for
        /// this CPU.
        batch: VolumeBatch,
    },
    RuntimeSparse,
}

impl ResolvedVolume {
    fn generated(entry: &VolumeKernelEntry) -> Self {
        ResolvedVolume::Generated {
            func: entry.func,
            batch: VolumeBatch::select(entry),
        }
    }

    pub fn path(&self) -> DispatchPath {
        match self {
            ResolvedVolume::Generated { .. } => DispatchPath::Generated,
            ResolvedVolume::RuntimeSparse => DispatchPath::RuntimeSparse,
        }
    }

    /// The entry points this resolution runs ([`BatchIsa::tag`] or
    /// [`RUNTIME_SPARSE_TAG`]).
    pub fn tag(&self) -> &'static str {
        match self {
            ResolvedVolume::Generated { batch, .. } => batch.isa().tag(),
            ResolvedVolume::RuntimeSparse => RUNTIME_SPARSE_TAG,
        }
    }
}

/// Outcome of resolving [`KernelDispatch`] for the surface terms; all
/// directions of one configuration resolve together (the generator always
/// emits the full direction set).
#[derive(Clone, Copy, Debug)]
pub enum ResolvedSurface {
    Generated(&'static SurfaceKernelEntry),
    RuntimeSparse,
}

/// One direction's resolved surface path — what the solver stores per
/// phase direction and calls through without branching per face.
#[derive(Clone, Copy, Debug)]
pub enum ResolvedSurfaceDir {
    Generated {
        func: SurfaceKernelFn,
        /// The direction's SIMD-batched companion for panel sweeps, as
        /// selected for this CPU.
        batch: SurfaceBatch,
    },
    RuntimeSparse,
}

impl ResolvedSurface {
    pub fn path(&self) -> DispatchPath {
        match self {
            ResolvedSurface::Generated(_) => DispatchPath::Generated,
            ResolvedSurface::RuntimeSparse => DispatchPath::RuntimeSparse,
        }
    }

    /// The resolved kernel for one phase direction (configuration
    /// directions first, as in [`SurfaceKernelEntry::dirs`]); the batched
    /// entry point is picked here, once per direction, from the CPU and the
    /// direction kind: velocity (acceleration) directions take the widest
    /// entry point there is, configuration (streaming) directions stop at
    /// the 4-lane AVX2 one. A streaming kernel is all moves — traces and
    /// lifts around a two-entry `α̂` — and at 8 lanes its four face-sized
    /// temporaries and five panels no longer share L1 with anything (2x3v
    /// p2: 40 KB against 20): measured slower there than at 4 lanes, where
    /// the acceleration kernels are faster at 8.
    pub fn dir(&self, d: usize) -> ResolvedSurfaceDir {
        match self {
            ResolvedSurface::Generated(e) => ResolvedSurfaceDir::Generated {
                func: e.dirs[d],
                batch: if d < e.key.cdim {
                    SurfaceBatch::avx2(e, d).unwrap_or_else(|| SurfaceBatch::baseline(e, d))
                } else {
                    SurfaceBatch::select(e, d)
                },
            },
            ResolvedSurface::RuntimeSparse => ResolvedSurfaceDir::RuntimeSparse,
        }
    }
}

impl ResolvedSurfaceDir {
    /// The entry points this direction runs ([`BatchIsa::tag`] or
    /// [`RUNTIME_SPARSE_TAG`]).
    pub fn tag(&self) -> &'static str {
        match self {
            ResolvedSurfaceDir::Generated { batch, .. } => batch.isa().tag(),
            ResolvedSurfaceDir::RuntimeSparse => RUNTIME_SPARSE_TAG,
        }
    }
}

/// Outcome of resolving [`KernelDispatch`] for the velocity-moment
/// reductions (`M0`/`M1`/`M2`). `Default` is the runtime path so a
/// default-constructed scratch stays valid; moment-consuming operators
/// resolve once at construction.
#[derive(Clone, Copy, Debug, Default)]
pub enum ResolvedMoments {
    Generated(&'static MomentKernelEntry),
    #[default]
    RuntimeSparse,
}

impl ResolvedMoments {
    pub fn path(&self) -> DispatchPath {
        match self {
            ResolvedMoments::Generated(_) => DispatchPath::Generated,
            ResolvedMoments::RuntimeSparse => DispatchPath::RuntimeSparse,
        }
    }
}

/// Outcome of resolving [`KernelDispatch`] for the LBO collision operator;
/// all five stage-function families resolve together.
#[derive(Clone, Copy, Debug)]
pub enum ResolvedLbo {
    Generated(&'static LboKernelEntry),
    RuntimeSparse,
}

impl ResolvedLbo {
    pub fn path(&self) -> DispatchPath {
        match self {
            ResolvedLbo::Generated(_) => DispatchPath::Generated,
            ResolvedLbo::RuntimeSparse => DispatchPath::RuntimeSparse,
        }
    }
}

impl KernelDispatch {
    /// Resolve this knob for a configuration. `Err` only when `Generated`
    /// is forced for a configuration with no generated kernel; `Auto`
    /// falls back to the runtime path gracefully. A generated resolution
    /// also fixes, from the CPU alone, which `_b4` entry point the
    /// operator will call ([`VolumeBatch::select`]).
    pub fn resolve(
        self,
        kind: BasisKind,
        layout: PhaseLayout,
        poly_order: usize,
    ) -> Result<ResolvedVolume, String> {
        let found = find_volume_kernel(kind, layout, poly_order);
        match (self, found) {
            (KernelDispatch::RuntimeSparse, _) | (KernelDispatch::Auto, None) => {
                Ok(ResolvedVolume::RuntimeSparse)
            }
            (_, Some(e)) => Ok(ResolvedVolume::generated(e)),
            (KernelDispatch::Generated, None) => Err(not_generated(
                "volume",
                kind,
                layout,
                poly_order,
                volume_registry().iter().map(|e| e.name),
            )),
        }
    }

    /// Resolve this knob for the surface terms of a configuration. Same
    /// semantics as [`KernelDispatch::resolve`].
    pub fn resolve_surface(
        self,
        kind: BasisKind,
        layout: PhaseLayout,
        poly_order: usize,
    ) -> Result<ResolvedSurface, String> {
        let found = find_surface_kernel(kind, layout, poly_order);
        match (self, found) {
            (KernelDispatch::RuntimeSparse, _) | (KernelDispatch::Auto, None) => {
                Ok(ResolvedSurface::RuntimeSparse)
            }
            (_, Some(e)) => Ok(ResolvedSurface::Generated(e)),
            (KernelDispatch::Generated, None) => Err(not_generated(
                "surface",
                kind,
                layout,
                poly_order,
                surface_registry().iter().map(|e| e.name),
            )),
        }
    }

    /// Resolve this knob for the moment reductions of a configuration.
    /// Same semantics as [`KernelDispatch::resolve`].
    pub fn resolve_moments(
        self,
        kind: BasisKind,
        layout: PhaseLayout,
        poly_order: usize,
    ) -> Result<ResolvedMoments, String> {
        let found = find_moment_kernel(kind, layout, poly_order);
        match (self, found) {
            (KernelDispatch::RuntimeSparse, _) | (KernelDispatch::Auto, None) => {
                Ok(ResolvedMoments::RuntimeSparse)
            }
            (_, Some(e)) => Ok(ResolvedMoments::Generated(e)),
            (KernelDispatch::Generated, None) => Err(not_generated(
                "moment",
                kind,
                layout,
                poly_order,
                moment_registry().iter().map(|e| e.name),
            )),
        }
    }

    /// Resolve this knob for the LBO collision operator of a configuration.
    /// Same semantics as [`KernelDispatch::resolve`].
    pub fn resolve_lbo(
        self,
        kind: BasisKind,
        layout: PhaseLayout,
        poly_order: usize,
    ) -> Result<ResolvedLbo, String> {
        let found = find_lbo_kernel(kind, layout, poly_order);
        match (self, found) {
            (KernelDispatch::RuntimeSparse, _) | (KernelDispatch::Auto, None) => {
                Ok(ResolvedLbo::RuntimeSparse)
            }
            (_, Some(e)) => Ok(ResolvedLbo::Generated(e)),
            (KernelDispatch::Generated, None) => Err(not_generated(
                "LBO",
                kind,
                layout,
                poly_order,
                lbo_registry().iter().map(|e| e.name),
            )),
        }
    }
}

/// The error of a forced `Generated` resolution outside the manifest: what
/// is missing, what the registry holds, and how to add it.
fn not_generated(
    family: &str,
    kind: BasisKind,
    layout: PhaseLayout,
    poly_order: usize,
    registry: impl Iterator<Item = &'static str>,
) -> String {
    format!(
        "no generated {family} kernel for {kind:?} {} p={poly_order} (registry: {}); \
         add it to `codegen::MANIFEST` and rebuild",
        layout.tag(),
        registry.collect::<Vec<_>>().join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::MANIFEST;

    #[test]
    fn registry_covers_the_whole_manifest() {
        assert!(MANIFEST.len() >= 5, "manifest shrank below the ISSUE floor");
        for spec in MANIFEST {
            let e = find_volume_kernel(spec.kind, spec.layout(), spec.poly_order)
                .unwrap_or_else(|| panic!("{} missing from registry", spec.fn_name()));
            assert_eq!(e.name, spec.fn_name(), "registry/manifest name drift");
        }
        assert_eq!(
            volume_registry().len(),
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
            assert_eq!(
                e.dirs.len(),
                spec.cdim + spec.vdim,
                "{}: one surface kernel per phase direction",
                spec.surf_name()
            );
        }
        assert_eq!(
            surface_registry().len(),
            MANIFEST.len(),
            "surface registry has entries the manifest does not know about"
        );
    }

    #[test]
    fn moment_and_lbo_registries_cover_the_whole_manifest() {
        for spec in MANIFEST {
            let m = find_moment_kernel(spec.kind, spec.layout(), spec.poly_order)
                .unwrap_or_else(|| panic!("{} missing from moment registry", spec.mom_name()));
            assert_eq!(m.name, spec.mom_name(), "registry/manifest name drift");
            assert_eq!(m.m1.len(), spec.vdim, "one M1 kernel per velocity dir");
            let l = find_lbo_kernel(spec.kind, spec.layout(), spec.poly_order)
                .unwrap_or_else(|| panic!("{} missing from LBO registry", spec.lbo_name()));
            assert_eq!(l.name, spec.lbo_name(), "registry/manifest name drift");
            for len in [
                l.drag_vol.len(),
                l.drag_surf.len(),
                l.diff_grad.len(),
                l.diff_vol.len(),
                l.diff_surf.len(),
            ] {
                assert_eq!(len, spec.vdim, "one stage kernel per velocity dir");
            }
        }
        assert_eq!(moment_registry().len(), MANIFEST.len());
        assert_eq!(lbo_registry().len(), MANIFEST.len());
    }

    #[test]
    fn auto_falls_back_gracefully() {
        // 3x3v p2 is deliberately left out (Np = 256 would dominate
        // crate compile time); Auto must fall back, forced Generated must
        // error — for every kernel family.
        let layout = PhaseLayout::new(3, 3);
        let auto = KernelDispatch::Auto
            .resolve(BasisKind::Serendipity, layout, 2)
            .unwrap();
        assert_eq!(auto.path(), DispatchPath::RuntimeSparse);
        assert!(KernelDispatch::Generated
            .resolve(BasisKind::Serendipity, layout, 2)
            .is_err());
        let auto_s = KernelDispatch::Auto
            .resolve_surface(BasisKind::Serendipity, layout, 2)
            .unwrap();
        assert_eq!(auto_s.path(), DispatchPath::RuntimeSparse);
        assert!(matches!(auto_s.dir(0), ResolvedSurfaceDir::RuntimeSparse));
        assert!(KernelDispatch::Generated
            .resolve_surface(BasisKind::Serendipity, layout, 2)
            .is_err());
        let auto_m = KernelDispatch::Auto
            .resolve_moments(BasisKind::Serendipity, layout, 2)
            .unwrap();
        assert_eq!(auto_m.path(), DispatchPath::RuntimeSparse);
        assert!(KernelDispatch::Generated
            .resolve_moments(BasisKind::Serendipity, layout, 2)
            .is_err());
        let auto_l = KernelDispatch::Auto
            .resolve_lbo(BasisKind::Serendipity, layout, 2)
            .unwrap();
        assert_eq!(auto_l.path(), DispatchPath::RuntimeSparse);
        assert!(KernelDispatch::Generated
            .resolve_lbo(BasisKind::Serendipity, layout, 2)
            .is_err());
    }

    #[test]
    fn forced_paths_resolve_for_fig1_config() {
        let layout = PhaseLayout::new(1, 2);
        let gen = KernelDispatch::Generated
            .resolve(BasisKind::Tensor, layout, 1)
            .unwrap();
        assert_eq!(gen.path(), DispatchPath::Generated);
        let auto = KernelDispatch::Auto
            .resolve(BasisKind::Tensor, layout, 1)
            .unwrap();
        assert_eq!(auto.path(), DispatchPath::Generated);
        let rt = KernelDispatch::RuntimeSparse
            .resolve(BasisKind::Tensor, layout, 1)
            .unwrap();
        assert_eq!(rt.path(), DispatchPath::RuntimeSparse);
    }

    #[test]
    fn entry_points_follow_the_cpu_and_the_direction_kind() {
        // Volume and velocity faces take the widest entry point the CPU
        // has; configuration faces stop at 4 lanes; LBO stops at AVX2. The
        // tags say so per resolution, not per process.
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
        for spec in MANIFEST {
            let (kind, layout, p) = (spec.kind, spec.layout(), spec.poly_order);
            let vol = KernelDispatch::Generated.resolve(kind, layout, p).unwrap();
            assert_eq!(vol.tag(), widest.tag());
            let surf = KernelDispatch::Generated
                .resolve_surface(kind, layout, p)
                .unwrap();
            for d in 0..spec.cdim + spec.vdim {
                let want = if d < spec.cdim { four_lane } else { widest };
                assert_eq!(
                    surf.dir(d).tag(),
                    want.tag(),
                    "{} dir {d}",
                    spec.surf_name()
                );
            }
            let lbo = find_lbo_kernel(kind, layout, p).unwrap();
            assert_eq!(LboBatch::select(lbo, 0).isa(), four_lane);
        }
        let rt = KernelDispatch::RuntimeSparse
            .resolve(BasisKind::Tensor, PhaseLayout::new(1, 2), 1)
            .unwrap();
        assert_eq!(rt.tag(), RUNTIME_SPARSE_TAG);
        assert_eq!(BatchIsa::Avx512.tag(), "generated/avx512x8");
        assert_eq!(BatchIsa::Avx2.tag(), "generated/avx2x4");
        assert_eq!(BatchIsa::Baseline.tag(), "generated/baselinex4");
    }

    #[test]
    fn forced_surface_paths_resolve_for_fig1_config() {
        let layout = PhaseLayout::new(1, 2);
        let gen = KernelDispatch::Generated
            .resolve_surface(BasisKind::Tensor, layout, 1)
            .unwrap();
        assert_eq!(gen.path(), DispatchPath::Generated);
        for d in 0..3 {
            assert!(matches!(gen.dir(d), ResolvedSurfaceDir::Generated { .. }));
        }
        let rt = KernelDispatch::RuntimeSparse
            .resolve_surface(BasisKind::Tensor, layout, 1)
            .unwrap();
        assert_eq!(rt.path(), DispatchPath::RuntimeSparse);
    }
}
