//! Cell-block decomposition of the RHS sweep: the one coupled-RHS driver.
//!
//! The paper's single-node story (§III, Fig. 3) layers shared-memory
//! parallelism over cells on top of the per-cell unrolled kernels. This
//! module is that layer: configuration space is split into contiguous
//! dim-0 **cell blocks** — the rank slabs of the two-level decomposition,
//! each further split into per-thread sub-slabs — and every block evaluates
//! its own volume + surface + LBO contributions ([`block_rhs`]). At one
//! thread the blocks run inline on the calling thread in ascending order;
//! with more they run on the persistent workers of this module's private
//! `Pool`, worker `w` taking blocks `w, w + threads, …`.
//!
//! **Bit-identity.** [`VlasovMaxwell::rhs`] is the one-block case of the
//! same [`block_rhs`]. Within one output cell its contribution order is
//! volume → dim-0 faces → higher configuration faces → velocity faces →
//! LBO, the volume and configuration faces summed in the cell's panel of
//! the cell-lane pass, velocity faces included on 1v. Every one of those
//! contributions comes exclusively from the cell's owning block: dim-0
//! faces write one side each (both adjacent
//! blocks evaluate the shared flux, the paper's redundant-halo-flux trick,
//! reading the neighbour's `f` from a halo slice), `d ≥ 1` faces never
//! leave a dim-0 row, and velocity faces and the LBO never leave a
//! configuration cell. So each output cell receives exactly the one-block
//! sequence of additions no matter how many blocks there are or which
//! thread runs them — every `(ranks, threads)` is bit-identical by
//! construction (`tests/decomposition/mod.rs` asserts it).
//!
//! **Deterministic ledger reduction.** Each block accumulates wall-flux
//! partials into its own workspace; after the sweep the calling thread
//! reduces them in ascending block order — lower-wall blocks first,
//! interior, upper-wall blocks last. Dim-0 wall channels are wholly owned
//! by the first/last block, so the 1D ledger is bit-identical to one block.
//!
//! **Zero allocation.** Per-block [`VlasovWorkspace`]/[`LboScratch`]
//! instances persist across calls; inline blocks write the output field
//! itself, pooled ones reach their cells through [`DgFieldSlice::from_raw`]
//! (no per-call view `Vec`), and the pool's `broadcast` publishes work
//! through a fixed epoch-stamped command slot (a mutex and two condvars, no
//! channel, no result `Vec`) — both sweeps pass the counting-allocator
//! gate in `tests/alloc_free.rs`.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use dg_grid::slab::slab_ranges;
use dg_grid::{CellStoreMut, DgField, DgFieldSlice, DimBc};

use dg_telemetry::{Counter, Phase, Registry};

use crate::lbo::{LboOp, LboScratch};
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
    /// Rank slabs the blocks were cut from.
    pub ranks: usize,
}

impl CellBlocks {
    /// Split `n0` dim-0 cells into `ranks` slabs of `blocks_per_rank`
    /// blocks each.
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
            ranks,
        }
    }
}

/// One species' RHS on the dim-0 cell block `block` (a range of
/// dimension-0 slices) — the unit of work of every driver:
/// [`VlasovMaxwell::rhs`] (the whole domain as one block) and each block of
/// [`BlockRhs`], inline or on a worker. Zeroes the block's output cells,
/// adds every collisionless term (`VlasovOp::accumulate_block_rhs`: the
/// volume and the configuration faces — on 1v the velocity faces too — as
/// one cell-lane pass, configuration faces in the order the block's cells
/// receive them in a whole-domain sweep), then the LBO on the block's
/// configuration cells with the block's scratch. Fills `ws.wall` with the
/// block's wall-flux partial sums.
#[allow(clippy::too_many_arguments)]
pub fn block_rhs<S: CellStoreMut>(
    op: &VlasovOp,
    block: Range<usize>,
    qm: f64,
    f: &DgField,
    em: &DgField,
    out: &mut S,
    ws: &mut VlasovWorkspace,
    bcs: &[DimBc],
    lbo: Option<(&LboOp, &mut LboScratch)>,
) {
    let grid = &op.grid;
    let stride0 = grid.conf.len() / grid.conf.cells()[0];
    let conf_range = block.start * stride0..block.end * stride0;
    let nv = grid.vel.len();
    // Zeroed by the thread that accumulates into it, in one sequential
    // sweep: the pass adds each cell's panel in strided runs, and lines
    // another core had just zeroed would each be fetched from it.
    out.fill_cells(conf_range.start * nv..conf_range.end * nv, 0.0);
    ws.wall.reset();
    // An empty block (more blocks than dim-0 cells) is idle.
    op.accumulate_block_rhs(qm, f, em, out, ws, block, bcs);
    if let Some((lbo, lws)) = lbo {
        lbo.accumulate_rhs_range(f, out, lws, conf_range);
    }
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

/// A job as the workers see it: the caller's closure with its lifetime
/// erased (see the `SAFETY` argument in [`Pool::broadcast`]).
type Job = &'static (dyn Fn(usize) + Sync);

/// The command slot every worker watches.
struct PoolState {
    /// Bumped once per published job, so each worker runs it exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current job.
    remaining: usize,
    shutdown: bool,
    /// The first panic of the current job, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown).
    work_cv: Condvar,
    /// The caller waits here for `remaining == 0`.
    done_cv: Condvar,
}

impl PoolShared {
    /// No code panics while holding the lock, so a poisoned lock still
    /// guards a consistent slot; ignoring poison also keeps `broadcast`
    /// from unwinding while a job is in flight.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `threads` persistent workers that each run every job published by
/// [`Pool::broadcast`] once. Dropping the pool joins them.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `threads` workers. A failed spawn drops the workers already
    /// started (joining them) and returns the error.
    // dg-analyze: allow(hot_alloc) — constructor: the worker handles and thread names are built once
    pub(crate) fn new(threads: usize) -> std::io::Result<Self> {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut pool = Pool {
            shared,
            workers: Vec::with_capacity(threads),
        };
        for index in 0..threads {
            let shared = Arc::clone(&pool.shared);
            pool.workers.push(
                std::thread::Builder::new()
                    .name(format!("dg-block-{index}"))
                    .spawn(move || worker_loop(&shared, index))?,
            );
        }
        Ok(pool)
    }

    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run `op(worker_index)` once on every worker and return when all have
    /// finished. A worker's panic is re-raised here after the others are
    /// done; the pool stays usable. Allocation-free.
    pub(crate) fn broadcast(&mut self, op: impl Fn(usize) + Sync) {
        let op: &(dyn Fn(usize) + Sync) = &op;
        // SAFETY: only the lifetime is erased. The reference is published
        // below and this function returns only after `remaining` is back
        // to 0, i.e. after every worker has returned from its call of this
        // epoch's job; a worker reads the slot again only for a new epoch,
        // and the slot is cleared before returning. Nothing in between can
        // unwind (`lock` ignores poison), and `&mut self` keeps a second
        // job from being published while this one is in flight.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(op) };
        let shared = &*self.shared;
        let mut st = shared.lock();
        st.epoch += 1;
        st.job = Some(job);
        st.remaining = self.workers.len();
        shared.work_cv.notify_all();
        let mut st = shared
            .done_cv
            .wait_while(st, |st| st.remaining > 0)
            .unwrap_or_else(PoisonError::into_inner);
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Test handle on the shared state: dead once the pool is dropped.
    #[cfg(test)]
    pub(crate) fn shared_state(&self) -> std::sync::Weak<dyn Any + Send + Sync> {
        Arc::downgrade(&self.shared) as std::sync::Weak<PoolShared>
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker: wait for a new epoch, run its job, count itself done.
fn worker_loop(shared: &PoolShared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let st = shared
                .work_cv
                .wait_while(shared.lock(), |st| !st.shutdown && st.epoch == seen)
                .unwrap_or_else(PoisonError::into_inner);
            // A new epoch always carries a job.
            let (false, Some(job)) = (st.shutdown, st.job) else {
                return;
            };
            seen = st.epoch;
            job
        };
        let result = catch_unwind(AssertUnwindSafe(|| job(index)));
        let mut st = shared.lock();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        // dg-analyze: allow(determinism) — integer completion latch under the pool mutex (counts workers still in this epoch), not a floating-point reduction; order cannot affect the value.
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// The coupled-RHS driver over `ranks × threads` cell blocks: owns the
/// block decomposition, one persistent workspace per block and — with more
/// than one thread — the worker pool.
pub struct BlockRhs {
    /// The workers, `None` at one thread: the blocks then run inline on
    /// the calling thread, in ascending block order.
    pool: Option<Pool>,
    blocks: CellBlocks,
    /// One kinetic workspace per block — `Mutex` only to satisfy the
    /// compiler: block `b` is touched by exactly one worker per sweep
    /// (`b % nthreads == worker index`), so every lock is uncontended (and
    /// the std mutex is futex-based: locking never allocates). The inline
    /// path reaches them through `get_mut`, without locking.
    ws: Vec<Mutex<VlasovWorkspace>>,
    /// One LBO scratch per block, built on the first sweep of a system
    /// with collisions enabled.
    lbo_ws: Vec<Mutex<LboScratch>>,
    /// Persistent block-ordered reduction target for the wall ledger.
    total: WallAccum,
    /// Telemetry registry, kept so lazily-built LBO scratch (see
    /// [`Self::ensure_lbo_scratch`]) is instrumented like the rest.
    probe_reg: Option<Arc<Registry>>,
}

impl BlockRhs {
    /// A driver over `ranks × threads` blocks executed by `threads`
    /// threads: the calling one when `threads == 1`, else a pool of
    /// `threads` workers.
    // dg-analyze: allow(hot_alloc) — constructor: pool, per-block workspaces and scratch are built once
    pub fn new(system: &VlasovMaxwell, ranks: usize, threads: usize) -> Self {
        assert!(threads >= 1, "BlockRhs needs at least one thread");
        let blocks = CellBlocks::new(&system.grid, ranks, threads);
        let pool = (threads > 1).then(|| Pool::new(threads).expect("spawn block-sweep workers"));
        let ws = (0..blocks.blocks.len())
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

    /// Telemetry slots the sweep writes: slot 0 (the calling thread, which
    /// at one thread also runs every block), plus one per block when the
    /// blocks run on the pool.
    pub fn telemetry_slots(&self) -> usize {
        match self.pool {
            None => 1,
            Some(_) => 1 + self.ws.len(),
        }
    }

    /// Telemetry slot of block `b`: 0 inline, `1 + b` on the pool — each
    /// slot keeps a single writer either way.
    fn slot(&self, b: usize) -> usize {
        match self.pool {
            None => 0,
            Some(_) => 1 + b,
        }
    }

    /// Point every block's workspaces at its telemetry slot.
    // dg-analyze: allow(hot_alloc) — collector handoff is cold (once per run)
    pub fn instrument(&mut self, reg: &Arc<Registry>) {
        self.probe_reg = Some(Arc::clone(reg));
        for b in 0..self.ws.len() {
            let collector = reg.collector(self.slot(b));
            self.ws[b].get_mut().unwrap().probe = collector.clone();
            if let Some(lws) = self.lbo_ws.get_mut(b) {
                lws.get_mut().unwrap().instrument(&collector);
            }
        }
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
            self.lbo_ws = (0..self.ws.len())
                .map(|_| Mutex::new(lbo.make_scratch()))
                .collect();
            if let Some(reg) = self.probe_reg.clone() {
                self.instrument(&reg);
            }
        }
    }

    /// Kinetic RHS of every species into `out`'s species fields (each block
    /// overwrites its cells), plus the block-ordered wall-ledger reduction.
    pub fn species_rhs(
        &mut self,
        system: &mut VlasovMaxwell,
        state: &SystemState,
        out: &mut SystemState,
    ) {
        self.ensure_lbo_scratch(system);
        let nblocks = self.ws.len();
        let cells0 = self.blocks.stride0 * system.grid.vel.len();
        for s in 0..system.species.len() {
            {
                let sys: &VlasovMaxwell = system;
                let qm = sys.species[s].qm();
                let bcs = sys.conf_bcs(s);
                let f = &state.species_f[s];
                let em = &state.em;
                let lbo = sys.collisions()[s].as_ref();
                let op = &sys.vlasov;
                let out_f = &mut out.species_f[s];
                let blocks = &self.blocks.blocks;
                match &mut self.pool {
                    // One thread: every block writes the whole field in
                    // turn — the one-block sweep's code, no views.
                    None => {
                        for (b, ws) in self.ws.iter_mut().enumerate() {
                            let lws = self.lbo_ws.get_mut(b).map(|l| l.get_mut().unwrap());
                            let block = blocks[b].clone(); // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
                            let ws = ws.get_mut().unwrap();
                            block_rhs(op, block, qm, f, em, out_f, ws, bcs, lbo.zip(lws));
                        }
                    }
                    Some(pool) => {
                        let np = out_f.ncoeff();
                        let base = SendPtr(out_f.as_mut_slice().as_mut_ptr());
                        let (ws, lbo_ws) = (&self.ws, &self.lbo_ws);
                        let nthreads = pool.threads();
                        pool.broadcast(|w| {
                            for b in (w..nblocks).step_by(nthreads) {
                                let block = blocks[b].clone(); // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
                                let first = block.start * cells0;
                                // SAFETY: blocks are disjoint cell ranges of
                                // the output field and each block is run by
                                // exactly one worker per sweep, so the views
                                // never overlap.
                                let mut view = unsafe {
                                    DgFieldSlice::from_raw(
                                        base.get().add(first * np),
                                        first,
                                        block.len() * cells0,
                                        np,
                                    )
                                };
                                let mut lws = lbo_ws.get(b).map(|l| l.lock().unwrap());
                                let ws = &mut ws[b].lock().unwrap();
                                let lbo = lbo.zip(lws.as_deref_mut());
                                block_rhs(op, block, qm, f, em, &mut view, ws, bcs, lbo);
                            }
                        });
                    }
                }
            }
            // Deterministic ledger reduction: ascending block order =
            // lower-walls → interior → upper-walls. (Scoped span: ends
            // before record_wall_rates, which times itself.)
            {
                let _ledger_span = system.probe.span(Phase::Ledger);
                self.total.reset();
                for bws in &mut self.ws {
                    self.total.add(&bws.get_mut().unwrap().wall);
                }
            }
            system.record_wall_rates(s, &self.total);
        }
    }

    /// Full coupled RHS: the block sweep of every species, then the field
    /// and moment coupling of [`VlasovMaxwell::field_rhs`].
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
    use dg_kernels::dispatch::row_for;
    use dg_kernels::{kernels_for, PhaseLayout};

    #[test]
    fn blocks_tile_the_grid_in_order() {
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[7]),
            CartGrid::new(&[-1.0], &[1.0], &[4]),
            vec![Bc::Periodic],
        );
        let cb = CellBlocks::new(&grid, 3, 2);
        assert_eq!(cb.blocks.len(), 6);
        let mut next = 0;
        for b in &cb.blocks {
            assert_eq!(b.start, next, "blocks must be contiguous and ascending");
            next = b.end;
        }
        assert_eq!(next, 7);
        // More blocks than cells: empties, still a tiling.
        let cb = CellBlocks::new(&grid, 5, 3);
        assert_eq!(cb.blocks.len(), 15);
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
        // tests/decomposition/mod.rs): the per-block sweeps of every partition
        // of dimension 0 add up to the one-block sweep bit for bit, and that
        // one equals the per-phase sweeps (`volume`, `surface_config` by
        // direction, `surface_velocity`). Both paths run the cell-lane pass
        // — on 1v with the velocity faces —, runtime-sparse at one lane;
        // partial lane groups at either generated width (a
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
            for row in [row_for(&kernels), None] {
                let op = VlasovOp::with_row(
                    std::sync::Arc::clone(&kernels),
                    grid.clone(),
                    FluxKind::Upwind,
                    row,
                );
                let what = format!("{cdim}x{vdim}v p{p} {bcs:?} {:?}", op.dispatch_path());
                let mut ws = VlasovWorkspace::for_kernels(&kernels);
                let mut per_phase = DgField::zeros(grid.len(), kernels.np());
                op.volume(-1.0, &f, &em, &mut per_phase, &mut ws, 0..nconf);
                for (d, &bc) in bcs.iter().enumerate() {
                    op.surface_config(d, &f, &mut per_phase, &mut ws, 0..nconf, bc);
                }
                op.surface_velocity(-1.0, &f, &em, &mut per_phase, &mut ws, 0..nconf);

                let mut serial = DgField::zeros(grid.len(), kernels.np());
                block_rhs(&op, 0..n0, -1.0, &f, &em, &mut serial, &mut ws, &bcs, None);
                let serial_wall = ws.wall.clone();
                assert!(
                    per_phase.as_slice() == serial.as_slice(),
                    "{what}: one-block sweep diverged from the per-phase sweeps"
                );

                for parts in partitions(n0) {
                    let mut blocked = DgField::zeros(grid.len(), kernels.np());
                    let mut wall = WallAccum::for_cdim(cdim);
                    for blk in &parts {
                        block_rhs(
                            &op,
                            blk.clone(),
                            -1.0,
                            &f,
                            &em,
                            &mut blocked,
                            &mut ws,
                            &bcs,
                            None,
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
