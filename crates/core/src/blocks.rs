//! Intra-rank cell-block parallelism for the RHS sweep.
//!
//! The paper's single-node story (§III, Fig. 3) layers shared-memory
//! parallelism over cells on top of the per-cell unrolled kernels. This
//! module is that layer: configuration space is split into contiguous
//! dim-0 **cell blocks** — the rank slabs of `dg-parallel`, each further
//! split into per-thread sub-slabs — and every block evaluates its own
//! volume + surface + LBO contributions on the persistent workers of the
//! rayon-shim [`ThreadPool`].
//!
//! **Bit-identity.** The serial sweep is the one-block case of the same
//! [`block_species_rhs`]. Within one output cell its contribution order is
//! volume → dim-0 faces → higher configuration faces → velocity faces →
//! LBO, the volume and configuration faces summed in the cell's panel of
//! the cell-lane pass, velocity faces included on 1v. Every one of those
//! contributions comes exclusively from the cell's owning block: dim-0
//! faces write one side each (both adjacent
//! blocks evaluate the shared flux, the paper's redundant-halo-flux trick,
//! reading the neighbour's `f` from a halo slice), `d ≥ 1` faces never
//! leave a dim-0 row, and velocity faces and the LBO never leave a
//! configuration cell. So each output cell receives exactly the serial
//! sequence of additions no matter how many blocks run concurrently — the
//! threaded sweep is bit-identical to serial *by construction*, for any
//! thread count (`tests/threaded_equiv.rs` asserts it).
//!
//! **Deterministic ledger reduction.** Each block accumulates wall-flux
//! partials into its own workspace; after the barrier the main thread
//! reduces them in ascending block order — lower-wall blocks first,
//! interior, upper-wall blocks last. Dim-0 wall channels are wholly owned
//! by the first/last block, so the 1D ledger is bit-identical to serial.
//!
//! **Zero allocation.** Per-block [`VlasovWorkspace`]/[`LboScratch`]
//! instances persist across calls, blocks reach their output cells through
//! [`DgFieldSlice::from_raw`] (no per-call view `Vec`), and the pool's
//! `broadcast` publishes work through a fixed command slot — the threaded
//! sweep passes the counting-allocator gate in `tests/alloc_free.rs`.

use std::ops::Range;
use std::sync::Mutex;

use dg_grid::slab::slab_ranges;
use dg_grid::{CellStoreMut, DgField, DgFieldSlice, DimBc};
use rayon::ThreadPool;

use dg_telemetry::{Counter, Phase, Registry};

use crate::lbo::LboScratch;
use crate::system::{SystemState, VlasovMaxwell};
use crate::vlasov::{VlasovOp, VlasovWorkspace, WallAccum};

/// Contiguous dim-0 cell blocks: the rank slabs of the two-level
/// decomposition, each sub-split into per-thread pieces. Blocks ascend in
/// dim-0 globally, so "reduce in block order" and "reduce in rank order,
/// then intra-rank block order" are the same reduction.
#[derive(Clone, Debug)]
pub struct CellBlocks {
    /// Per-block dim-0 index range, globally ascending (empty ranges
    /// allowed when blocks outnumber cells).
    pub blocks: Vec<Range<usize>>,
    /// Configuration cells per unit of dim-0.
    pub stride0: usize,
}

impl CellBlocks {
    /// Split `n0` dim-0 cells into `ranks` slabs of `blocks_per_rank`
    /// blocks each (the serial backend uses `ranks = 1`).
    // dg-analyze: allow(hot_alloc) — construction-time partitioning, runs once per solver setup
    pub fn new(grid: &dg_grid::PhaseGrid, ranks: usize, blocks_per_rank: usize) -> Self {
        assert!(ranks >= 1 && blocks_per_rank >= 1);
        let n0 = grid.conf.cells()[0];
        let mut blocks = Vec::with_capacity(ranks * blocks_per_rank);
        for slab in slab_ranges(n0, ranks) {
            for sub in slab_ranges(slab.len(), blocks_per_rank) {
                blocks.push(slab.start + sub.start..slab.start + sub.end);
            }
        }
        CellBlocks {
            blocks,
            stride0: grid.conf.len() / n0,
        }
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Linear configuration-cell range of one block.
    pub fn conf_range(&self, b: usize) -> Range<usize> {
        let s = &self.blocks[b];
        s.start * self.stride0..s.end * self.stride0
    }
}

/// Kinetic RHS of one species restricted to the dim-0 cell block `block`
/// (a range of dimension-0 slices): the unit of work of the serial RHS (one
/// block), the threaded backend and each simulated rank of `dg-parallel` (a
/// rank is just a block that happens to span its whole slab). Fills
/// `ws.wall` with the block's wall-flux partial sums.
///
/// The volume and the configuration faces — and on 1v the velocity faces —
/// run as one pass (`VlasovOp::accumulate_block_rhs`), configuration faces
/// in the order the block's cells receive them in a whole-domain sweep:
/// lower walls, the received face below the block, interior faces
/// ascending, the sending face above it — or the periodic wrap / upper wall
/// for the last block, with the first block applying its received wrap side
/// last. Velocity faces the pass does not run follow.
#[allow(clippy::too_many_arguments)]
pub fn block_species_rhs<S: CellStoreMut>(
    op: &VlasovOp,
    block: Range<usize>,
    qm: f64,
    f: &DgField,
    em: &DgField,
    out: &mut S,
    ws: &mut VlasovWorkspace,
    bcs: &[DimBc],
) {
    ws.wall.reset();
    // An empty block (more blocks than dim-0 cells) is idle.
    op.accumulate_block_rhs(qm, f, em, out, ws, block, bcs);
}

/// Shareable base pointer of an output field (each worker derives its own
/// disjoint [`DgFieldSlice`] from it).
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: workers write strictly disjoint cell ranges of the field.
unsafe impl Send for SendPtr {}
// SAFETY: shared references only hand out the raw pointer; all writes
// through it target disjoint per-worker cell ranges.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// The cell-block parallel RHS driver: owns the worker pool, the block
/// decomposition, and one persistent workspace per block.
pub struct BlockRhs {
    pool: ThreadPool,
    blocks: CellBlocks,
    /// One kinetic workspace per block — `Mutex` only to satisfy the
    /// compiler: block `b` is touched by exactly one worker per sweep
    /// (`b % nthreads == worker index`), so every lock is uncontended (and
    /// the std mutex is futex-based: locking never allocates).
    ws: Vec<Mutex<VlasovWorkspace>>,
    /// One LBO scratch per block, built on the first sweep of a system
    /// with collisions enabled.
    lbo_ws: Vec<Mutex<LboScratch>>,
    /// Persistent block-ordered reduction target for the wall ledger.
    total: WallAccum,
    /// Telemetry registry, kept so lazily-built LBO scratch (see
    /// [`Self::ensure_lbo_scratch`]) is instrumented like the rest.
    probe_reg: Option<std::sync::Arc<Registry>>,
}

impl BlockRhs {
    /// A driver over `ranks × threads` blocks executed by `threads`
    /// workers (the serial backend passes `ranks = 1`; `dg-parallel`
    /// composes simulated ranks × intra-rank threads).
    // dg-analyze: allow(hot_alloc) — constructor: pool, per-block workspaces and scratch are built once
    pub fn new(system: &VlasovMaxwell, ranks: usize, threads: usize) -> Self {
        assert!(threads >= 1, "BlockRhs needs at least one thread");
        let blocks = CellBlocks::new(&system.grid, ranks, threads);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("worker pool");
        let ws = (0..blocks.len())
            .map(|_| Mutex::new(VlasovWorkspace::for_kernels(&system.kernels)))
            .collect();
        let mut this = BlockRhs {
            pool,
            blocks,
            ws,
            lbo_ws: Vec::new(),
            total: WallAccum::for_cdim(system.grid.cdim()),
            probe_reg: None,
        };
        this.ensure_lbo_scratch(system);
        this
    }

    /// Point block `b`'s workspaces at telemetry slot `1 + b` (slot 0 is
    /// the orchestrating thread). Each block is swept by exactly one worker
    /// per broadcast, so each slot keeps a single writer.
    // dg-analyze: allow(hot_alloc) — collector handoff is cold (once per run)
    pub fn instrument(&mut self, reg: &std::sync::Arc<Registry>) {
        self.probe_reg = Some(std::sync::Arc::clone(reg));
        for (b, ws) in self.ws.iter_mut().enumerate() {
            ws.get_mut().unwrap().probe = reg.collector(1 + b);
        }
        for (b, lws) in self.lbo_ws.iter_mut().enumerate() {
            lws.get_mut().unwrap().instrument(&reg.collector(1 + b));
        }
    }

    /// The worker pool (shared with `dg-parallel`'s moment reduction).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The block decomposition.
    pub fn blocks(&self) -> &CellBlocks {
        &self.blocks
    }

    /// Allocate per-block LBO scratch if the system has collisions and we
    /// have none yet (collisions may be enabled after construction; this
    /// runs once, outside the counted hot loop).
    // dg-analyze: allow(hot_alloc) — one-time scratch growth outside the counted hot loop
    fn ensure_lbo_scratch(&mut self, system: &VlasovMaxwell) {
        if !self.lbo_ws.is_empty() {
            return;
        }
        if let Some(lbo) = system.collisions().iter().flatten().next() {
            self.lbo_ws = (0..self.blocks.len())
                .map(|_| Mutex::new(lbo.make_scratch()))
                .collect();
            if let Some(reg) = self.probe_reg.clone() {
                for (b, lws) in self.lbo_ws.iter_mut().enumerate() {
                    lws.get_mut().unwrap().instrument(&reg.collector(1 + b));
                }
            }
        }
    }

    /// Kinetic RHS of every species into `out`'s species fields (each block
    /// overwrites its cells), cell-block parallel, plus the block-ordered
    /// wall-ledger reduction.
    pub fn species_rhs(
        &mut self,
        system: &mut VlasovMaxwell,
        state: &SystemState,
        out: &mut SystemState,
    ) {
        self.ensure_lbo_scratch(system);
        let nblocks = self.blocks.len();
        let stride0 = self.blocks.stride0;
        let nv = system.grid.vel.len();
        for s in 0..system.species.len() {
            {
                let sys: &VlasovMaxwell = system;
                let qm = sys.species[s].qm();
                let bcs = sys.conf_bcs(s);
                let f = &state.species_f[s];
                let em = &state.em;
                let lbo = sys.collisions()[s].as_ref();
                let op = &sys.vlasov;
                let np = out.species_f[s].ncoeff();
                let base = SendPtr(out.species_f[s].as_mut_slice().as_mut_ptr());
                let blocks = &self.blocks.blocks;
                let ws = &self.ws;
                let lbo_ws = &self.lbo_ws;
                self.pool.broadcast(|ctx| {
                    let me = ctx.index();
                    let nthreads = ctx.num_threads();
                    for b in (me..nblocks).step_by(nthreads) {
                        let block = blocks[b].clone(); // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
                        let conf_range = block.start * stride0..block.end * stride0;
                        let first = conf_range.start * nv;
                        let ncells = conf_range.len() * nv;
                        // SAFETY: blocks are disjoint cell ranges of the
                        // output field and each block is visited by
                        // exactly one worker, so the views never overlap.
                        let mut view = unsafe {
                            DgFieldSlice::from_raw(base.get().add(first * np), first, ncells, np)
                        };
                        // Zeroed by the worker that accumulates into it, in
                        // one sequential sweep: the pass adds each cell's
                        // panel in strided runs, and lines another core
                        // had just zeroed would each be fetched from it.
                        view.fill(0.0);
                        let mut bws = ws[b].lock().unwrap();
                        block_species_rhs(op, block, qm, f, em, &mut view, &mut bws, bcs);
                        if let Some(lbo) = lbo {
                            let mut lws = lbo_ws[b].lock().unwrap();
                            lbo.accumulate_rhs_range(f, &mut view, &mut lws, conf_range);
                        }
                    }
                });
            }
            // Deterministic ledger reduction: ascending block order =
            // lower-walls → interior → upper-walls. (Scoped span: ends
            // before record_wall_rates, which times itself.)
            {
                let _ledger_span = system.probe.span(Phase::Ledger);
                self.total.reset();
                for bws in &self.ws {
                    self.total.add(&bws.lock().unwrap().wall);
                }
            }
            system.record_wall_rates(s, &self.total);
        }
    }

    /// Full coupled RHS: threaded species sweep + the serial field/moment
    /// coupling of [`VlasovMaxwell::field_rhs`].
    pub fn rhs(&mut self, system: &mut VlasovMaxwell, state: &SystemState, out: &mut SystemState) {
        system.probe.count(Counter::RhsEvals, 1);
        out.em.fill(0.0);
        self.species_rhs(system, state, out);
        system.field_rhs(state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlasov::{FluxKind, VlasovOp};
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid, PhaseGrid};
    use dg_kernels::{kernels_for, KernelDispatch, PhaseLayout};

    #[test]
    fn blocks_tile_the_grid_in_order() {
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[7]),
            CartGrid::new(&[-1.0], &[1.0], &[4]),
            vec![Bc::Periodic],
        );
        let cb = CellBlocks::new(&grid, 3, 2);
        assert_eq!(cb.len(), 6);
        let mut next = 0;
        for b in &cb.blocks {
            assert_eq!(b.start, next, "blocks must be contiguous and ascending");
            next = b.end;
        }
        assert_eq!(next, 7);
        // More blocks than cells: empties, still a tiling.
        let cb = CellBlocks::new(&grid, 5, 3);
        assert_eq!(cb.len(), 15);
        assert_eq!(cb.blocks.iter().map(|b| b.len()).sum::<usize>(), 7);
    }

    /// Every split of `0..n` into consecutive non-empty blocks.
    fn partitions(n: usize) -> impl Iterator<Item = Vec<Range<usize>>> {
        (0..1u32 << (n - 1)).map(move |cuts| {
            let mut blocks = Vec::new();
            let mut start = 0;
            for i in 1..n {
                if cuts >> (i - 1) & 1 == 1 {
                    blocks.push(start..i);
                    start = i;
                }
            }
            blocks.push(start..n);
            blocks
        })
    }

    #[test]
    fn block_sweep_matches_serial_sweep_bitwise() {
        // Operator level (the system/backend level is covered by
        // tests/threaded_equiv.rs): the per-block sweeps of every partition
        // of dimension 0 add up to the one-block sweep bit for bit, and that
        // one equals the per-phase sweeps (`volume`, `surface_config` by
        // direction, `surface_velocity`). Generated dispatch runs the
        // cell-lane pass — on 1v with the velocity faces —, runtime-sparse
        // the per-phase fallback; partial lane groups at either width (a
        // partial last one after full ones on 1v: 11 cells), walls on both
        // sides of both axes.
        let walled =
            |d0: (Bc, Bc), d1: (Bc, Bc)| vec![DimBc::new(d0.0, d0.1), DimBc::new(d1.0, d1.1)];
        // (poly order, configuration cells, velocity cells, BCs)
        type Case = (usize, &'static [usize], &'static [usize], Vec<DimBc>);
        let cases: [Case; 5] = [
            (2, &[5], &[6], vec![DimBc::from(Bc::Periodic)]),
            (1, &[4], &[11], vec![DimBc::from(Bc::Periodic)]),
            (1, &[4, 3], &[3, 5], vec![DimBc::from(Bc::Periodic); 2]),
            (2, &[5], &[7], vec![DimBc::new(Bc::Reflect, Bc::Absorb)]),
            (
                1,
                &[4, 3],
                &[2, 5],
                walled((Bc::Copy, Bc::Reflect), (Bc::Absorb, Bc::Copy)),
            ),
        ];
        for (p, conf_cells, vel_cells, bcs) in cases {
            let (cdim, vdim) = (conf_cells.len(), vel_cells.len());
            let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(cdim, vdim), p);
            let grid = PhaseGrid::new(
                CartGrid::new(&vec![0.0; cdim], &vec![1.0; cdim], conf_cells),
                CartGrid::new(&vec![-6.0; vdim], &vec![6.0; vdim], vel_cells),
                bcs.clone(),
            );
            let mut f = DgField::zeros(grid.len(), kernels.np());
            for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 37 % 101) as f64 - 50.0) * 1e-2;
            }
            let mut em = DgField::zeros(grid.conf.len(), dg_maxwell::NCOMP * kernels.nc());
            for (i, v) in em.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 11 % 23) as f64 - 11.0) * 0.05;
            }
            let n0 = conf_cells[0];
            let nconf = grid.conf.len();
            for dispatch in [KernelDispatch::Generated, KernelDispatch::RuntimeSparse] {
                let op = VlasovOp::with_dispatch(
                    std::sync::Arc::clone(&kernels),
                    grid.clone(),
                    FluxKind::Upwind,
                    dispatch,
                );
                let what = format!("{cdim}x{vdim}v p{p} {bcs:?} {dispatch:?}");
                let mut ws = VlasovWorkspace::for_kernels(&kernels);
                let mut per_phase = DgField::zeros(grid.len(), kernels.np());
                op.volume(-1.0, &f, &em, &mut per_phase, &mut ws, 0..nconf);
                for (d, &bc) in bcs.iter().enumerate() {
                    op.surface_config(d, &f, &mut per_phase, &mut ws, 0..nconf, bc);
                }
                op.surface_velocity(-1.0, &f, &em, &mut per_phase, &mut ws, 0..nconf);

                let mut serial = DgField::zeros(grid.len(), kernels.np());
                block_species_rhs(&op, 0..n0, -1.0, &f, &em, &mut serial, &mut ws, &bcs);
                let serial_wall = ws.wall.clone();
                assert!(
                    per_phase.as_slice() == serial.as_slice(),
                    "{what}: one-block sweep diverged from the per-phase sweeps"
                );

                for parts in partitions(n0) {
                    let mut blocked = DgField::zeros(grid.len(), kernels.np());
                    let mut wall = WallAccum::for_cdim(cdim);
                    for blk in &parts {
                        block_species_rhs(
                            &op,
                            blk.clone(),
                            -1.0,
                            &f,
                            &em,
                            &mut blocked,
                            &mut ws,
                            &bcs,
                        );
                        wall.add(&ws.wall);
                    }
                    assert!(
                        serial.as_slice() == blocked.as_slice(),
                        "{what}: partition {parts:?} diverged from the one-block sweep"
                    );
                    // Dim-0 walls belong whole to the first / last block,
                    // so their ledger is bit-identical; higher-direction
                    // walls are split across blocks (round-off).
                    assert_eq!(wall.mass[0], serial_wall.mass[0], "{what} {parts:?}");
                    assert_eq!(wall.energy[0], serial_wall.energy[0], "{what} {parts:?}");
                    for (a, b) in wall
                        .mass
                        .iter()
                        .chain(&wall.energy)
                        .zip(serial_wall.mass.iter().chain(&serial_wall.energy))
                    {
                        for side in 0..2 {
                            assert!((a[side] - b[side]).abs() <= 1e-12 * b[side].abs().max(1.0));
                        }
                    }
                }
            }
        }
    }
}
