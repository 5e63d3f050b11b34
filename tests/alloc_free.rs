//! Zero-allocation guarantee for the per-step hot loops.
//!
//! The ISSUE-3 acceptance gate: once an operator and its workspace exist,
//! evaluating the collisionless RHS, the LBO collision RHS, and the
//! moment reductions — the current, the LBO's primitive moments and the
//! particle energy (each through either kernel path — generated
//! unrolled kernels and runtime sparse) — must perform **zero heap
//! allocations** — every
//! buffer, index scratch, staging slice, and weak-solve factorization
//! lives in persistent scratch. A counting global allocator enforces this
//! directly: warm everything up once, then count.
//!
//! Set-up is held to the weaker rule that fits it: the initial
//! projection may allocate its tables, but not per cell.
//!
//! This file deliberately holds a single `#[test]` — the counter is
//! process-global, and a sibling test allocating concurrently would
//! produce false positives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use vlasov_dg::basis::BasisKind;
use vlasov_dg::core::app::{App, AppBuilder, FieldSpec, SpeciesSpec};
use vlasov_dg::core::backend::Backend;
use vlasov_dg::core::blocks::BlockRhs;
use vlasov_dg::core::lbo::LboOp;
use vlasov_dg::core::moments::{
    accumulate_current, kinetic_energy, raw_moments_range_into, MomentScratch,
};
use vlasov_dg::core::species::{maxwellian, Species};
use vlasov_dg::core::ssprk::SspRk3;
use vlasov_dg::core::vlasov::{FluxKind, VlasovOp, VlasovWorkspace};
use vlasov_dg::grid::{Bc, CartGrid, DgField, DimBc, PhaseGrid};
use vlasov_dg::kernels::dispatch::row_for;
use vlasov_dg::kernels::{kernels_for, PhaseLayout};
use vlasov_dg::maxwell::NCOMP;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: pure pass-through to `System` plus a relaxed atomic bump —
// upholds `GlobalAlloc`'s contract exactly as `System` does.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` under the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: delegates to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    // SAFETY: delegates to `System::realloc` with the caller's
    // pointer/layout pair unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `body` with the allocation counter armed; returns the count.
fn count_allocs(body: impl FnOnce()) -> usize {
    ALLOCS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    body();
    COUNTING.store(false, Relaxed);
    ALLOCS.load(Relaxed)
}

#[test]
fn rhs_and_lbo_loops_allocate_nothing() {
    // --- Initial projection: one `Projector` per sweep, nothing per
    // cell — the allocation count of `project_initial` is the same on a
    // 4-cell and a 64-cell grid. ---
    {
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 2), 2);
        let sweep_allocs = |nx: usize, nv: usize| {
            let grid = PhaseGrid::new(
                CartGrid::new(&[0.0], &[1.0], &[nx]),
                CartGrid::new(&[-4.0, -4.0], &[4.0, 4.0], &[nv, nv]),
                vec![Bc::Periodic],
            );
            let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
            let n = count_allocs(|| {
                sp.project_initial(&kernels, &grid, 4, &mut |x, v| {
                    maxwellian(1.0 + 0.05 * (2.0 * x[0]).cos(), &[0.3, -0.2], 0.9, v)
                })
            });
            assert!(sp.f.max_abs() > 0.0);
            n
        };
        let (small, large) = (sweep_allocs(1, 2), sweep_allocs(4, 4));
        assert!(small > 0, "the counter was not armed");
        assert_eq!(
            small, large,
            "project_initial allocated {small} times on 4 cells but {large} on 64"
        );
    }

    // --- Collisionless RHS, both kernel paths (the registry row and the
    // runtime-sparse oracle), 1x2v p=2 Serendipity (in the registry; exercises streaming + both acceleration
    // directions, pencil reuse, and the v×B cross terms). ---
    let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 2), 2);
    let grid = PhaseGrid::new(
        CartGrid::new(&[0.0], &[1.0], &[3]),
        CartGrid::new(&[-4.0, -4.0], &[4.0, 4.0], &[4, 4]),
        vec![Bc::Periodic],
    );
    let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
    sp.project_initial(&kernels, &grid, 4, &mut |x, v| {
        maxwellian(1.0 + 0.05 * (2.0 * x[0]).cos(), &[0.3, -0.2], 0.9, v)
    });
    let mut em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
    for c in 0..grid.conf.len() {
        for (i, v) in em.cell_mut(c).iter_mut().enumerate() {
            *v = ((c * 13 + i) as f64 * 0.41).sin() * 0.2;
        }
    }
    let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
    let mut ws = VlasovWorkspace::for_kernels(&kernels);

    for row in [row_for(&kernels), None] {
        let op = VlasovOp::with_row(
            std::sync::Arc::clone(&kernels),
            grid.clone(),
            FluxKind::Upwind,
            row,
        );
        let path = op.dispatch_path();
        // Warm-up: first evaluation may size lazily-grown scratch.
        out.fill(0.0);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        let n = count_allocs(|| {
            for _ in 0..3 {
                out.fill(0.0);
                op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
            }
        });
        assert_eq!(
            n, 0,
            "collisionless RHS ({path:?}) allocated {n} times in the hot loop"
        );
    }

    // --- Velocity-face tables: `surface_velocity` batches a face list
    // precomputed with the operator. A velocity grid whose pencil counts
    // (3 and 5) leave a partial panel in both directions must sweep
    // without allocating — no per-RHS table, no per-panel scratch. Its 15
    // velocity cells also end every configuration cell's `volume` and
    // `surface_config` run on a partial panel at either lane width (spare
    // lanes repeated, unpacked through `cells_mut`): same requirement. ---
    {
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[2]),
            CartGrid::new(&[-4.0, -4.0], &[4.0, 4.0], &[5, 3]),
            vec![Bc::Periodic],
        );
        let mut f = DgField::zeros(grid.len(), kernels.np());
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37 % 101) as f64 - 50.0) * 1e-2;
        }
        let em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        let mut out = DgField::zeros(f.ncells(), f.ncoeff());
        let nconf = grid.conf.len();
        let op = VlasovOp::new(std::sync::Arc::clone(&kernels), grid, FluxKind::Upwind);
        op.surface_velocity(-1.0, &f, &em, &mut out, &mut ws, 0..nconf);
        let n = count_allocs(|| {
            for _ in 0..3 {
                op.surface_velocity(-1.0, &f, &em, &mut out, &mut ws, 0..nconf);
            }
        });
        assert_eq!(
            n, 0,
            "face-panel velocity sweep allocated {n} times in the hot loop"
        );
        let bc = op.grid.conf_bc[0];
        let n = count_allocs(|| {
            for _ in 0..3 {
                op.volume(-1.0, &f, &em, &mut out, &mut ws, 0..nconf);
                op.surface_config(0, &f, &mut out, &mut ws, 0..nconf, bc);
            }
        });
        assert_eq!(
            n, 0,
            "partial-panel cell sweeps allocated {n} times in the hot loop"
        );
    }

    // --- Wall boundary conditions: ghost synthesis (absorb + reflect),
    // staged interior updates, and the wall-flux ledger must all run out
    // of the persistent workspace — zero allocations with walls active,
    // through both kernel paths. With generated kernels this is the
    // serial cell-lane pass, velocity faces included (1x1v), its panels
    // sized on the warm-up call; 11 velocity cells end it on a partial lane
    // group at either width. ---
    let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
    let grid = PhaseGrid::new(
        CartGrid::new(&[0.0], &[1.0], &[4]),
        CartGrid::new(&[-6.0], &[6.0], &[11]),
        vec![DimBc::new(Bc::Reflect, Bc::Absorb)],
    );
    let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
    sp.project_initial(&kernels, &grid, 4, &mut |x, v| {
        maxwellian(1.0 + 0.1 * x[0], &[0.7], 0.9, v)
    });
    let mut em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
    for c in 0..grid.conf.len() {
        for (i, v) in em.cell_mut(c).iter_mut().enumerate() {
            *v = ((c * 7 + i) as f64 * 0.53).sin() * 0.2;
        }
    }
    let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
    let mut ws = VlasovWorkspace::for_kernels(&kernels);
    for row in [row_for(&kernels), None] {
        let op = VlasovOp::with_row(
            std::sync::Arc::clone(&kernels),
            grid.clone(),
            FluxKind::Upwind,
            row,
        );
        let path = op.dispatch_path();
        out.fill(0.0);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        let n = count_allocs(|| {
            for _ in 0..3 {
                out.fill(0.0);
                op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
            }
        });
        assert_eq!(
            n, 0,
            "walled RHS ({path:?}) allocated {n} times in the hot loop"
        );
    }

    // --- LBO collision RHS, 1x1v p=2 (weak divides, drag + LDG
    // diffusion) — both kernel paths: the generated stage kernels'
    // pencil-group sweep and the runtime sparse sweep each run out of
    // `LboScratch`. Six configuration cells are six pencils: one full
    // group of LANES and a partial one, both spanning cells. ---
    let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
    let grid = PhaseGrid::new(
        CartGrid::new(&[0.0], &[1.0], &[6]),
        CartGrid::new(&[-6.0], &[6.0], &[12]),
        vec![Bc::Periodic],
    );
    let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
    sp.project_initial(&kernels, &grid, 4, &mut |_x, v| {
        maxwellian(0.7, &[-1.0], 0.7, v) + maxwellian(0.3, &[1.5], 0.5, v)
    });
    for row in [row_for(&kernels), None] {
        let mut lbo = LboOp::with_row(std::sync::Arc::clone(&kernels), grid.clone(), 0.8, row);
        let path = lbo.dispatch_path();
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        lbo.accumulate_rhs(&sp.f, &mut out); // warm-up
        let n = count_allocs(|| {
            for _ in 0..3 {
                out.fill(0.0);
                lbo.accumulate_rhs(&sp.f, &mut out);
            }
        });
        assert_eq!(
            n, 0,
            "LBO RHS ({path:?}) allocated {n} times in the hot loop"
        );
    }

    // --- Moment reduction (current + charge accumulation), both kernel
    // paths: the generated M0/M1 kernels and the runtime weak-op
    // reductions both work cell-in-place through `MomentScratch`. ---
    let mut j_out = DgField::zeros(grid.conf.len(), 3 * kernels.nc());
    let mut rho_out = DgField::zeros(grid.conf.len(), kernels.nc());
    for row in [row_for(&kernels), None] {
        let mut mws = MomentScratch::with_row(row);
        let path = mws.dispatch_path();
        let nconf = grid.conf.len();
        accumulate_current(
            &kernels,
            &grid,
            sp.charge,
            &sp.f,
            &mut j_out,
            Some(&mut rho_out),
            0..nconf,
            &mut mws,
        ); // warm-up
        let n = count_allocs(|| {
            for _ in 0..3 {
                j_out.fill(0.0);
                rho_out.fill(0.0);
                accumulate_current(
                    &kernels,
                    &grid,
                    sp.charge,
                    &sp.f,
                    &mut j_out,
                    Some(&mut rho_out),
                    0..nconf,
                    &mut mws,
                );
            }
        });
        assert_eq!(
            n, 0,
            "moment accumulation ({path:?}) allocated {n} times in the hot loop"
        );
        // The LBO's primitive-moment sweep on its own (the LBO RHS above
        // runs it too), one block call per configuration cell.
        let (mut m0, mut m2) = (rho_out.clone(), rho_out.clone());
        let mut m1 = DgField::zeros(nconf, grid.vdim() * kernels.nc());
        let n = count_allocs(|| {
            raw_moments_range_into(
                &kernels,
                &grid,
                &sp.f,
                &mut m0,
                &mut m1,
                &mut m2,
                &mws,
                0..nconf,
            );
        });
        assert_eq!(n, 0, "raw moments ({path:?}) allocated {n} times");
    }
    // The particle energy the probes and the ensemble sampler read: one
    // block call per configuration cell into a stack buffer, no field.
    let n = count_allocs(|| {
        std::hint::black_box(kinetic_energy(&kernels, &grid, sp.mass, &sp.f));
    });
    assert_eq!(n, 0, "kinetic energy allocated {n} times");

    // --- Cell-block threaded sweep: the full coupled RHS (kinetic sweep
    // on the worker pool + LBO + wall ledger + field/moment coupling) must
    // also be allocation-free after warm-up. The counter is
    // process-global, so worker-thread allocations are caught too —
    // per-block workspaces (each block's cell-lane pass panels, halo
    // slices included, walls at both ends, 6 velocity cells: one partial
    // lane group), raw-pointer field views, and `BlockRhs`'s pool, whose
    // `broadcast` publishes a borrowed job through a fixed epoch-stamped
    // slot and returns no result `Vec`, are what make this pass. ---
    let (mut sys, state) = collisional_walled_1x1v().into_parts();
    let mut block = BlockRhs::new(&sys, 1, 3);
    let mut out = sys.new_state();
    block.rhs(&mut sys, &state, &mut out); // warm-up
    let n = count_allocs(|| {
        for _ in 0..3 {
            block.rhs(&mut sys, &state, &mut out);
        }
    });
    assert_eq!(
        n, 0,
        "threaded block RHS allocated {n} times in the hot loop"
    );

    // --- The serial stepper: three RHS evaluations and the fused stage
    // sweeps, on the same 1x1v system (6 velocity cells: a partial lane
    // group of the pass), out of the stepper's own buffers. ---
    let mut rk = SspRk3::new(&sys);
    let mut stepped = state.clone();
    rk.step(&mut sys, &mut stepped, 1e-3); // warm-up
    let n = count_allocs(|| {
        for _ in 0..3 {
            rk.step(&mut sys, &mut stepped, 1e-3);
        }
    });
    assert_eq!(n, 0, "SspRk3::step allocated {n} times in the hot loop");

    // --- Telemetry-active sweep: the ISSUE-10 gate. With collection ON,
    // the same coupled RHS must still allocate nothing — a span is an
    // RAII guard holding one `Arc` refcount bump over the preallocated
    // registry, and counters are relaxed atomic adds into fixed arrays.
    // The warm-up also initializes the process clock epoch (`OnceLock`
    // stores its `Instant` inline, but first-use must not be counted as
    // part of the steady state). ---
    let reg = std::sync::Arc::new(vlasov_dg::telemetry::Registry::new(block.telemetry_slots()));
    block.instrument(&reg);
    let probe = reg.collector(0);
    sys.instrument(&probe);
    block.rhs(&mut sys, &state, &mut out); // warm-up
    let snap0 = reg.snapshot();
    let n = count_allocs(|| {
        for _ in 0..3 {
            block.rhs(&mut sys, &state, &mut out);
        }
    });
    assert_eq!(
        n, 0,
        "telemetry-instrumented block RHS allocated {n} times in the hot loop"
    );
    let delta = reg.snapshot().delta(&snap0);
    assert_eq!(
        delta.counter(vlasov_dg::telemetry::Counter::RhsEvals),
        3,
        "collection was not actually active during the counted loop"
    );

    // --- The execution engine every App steps through: `Backend::step`
    // with its blocks inline on the calling thread (one rank, three ranks)
    // and on the pool (2 × 2), telemetry off and on — three RHS sweeps,
    // the ledger fold and the fused stage updates out of its own buffers.
    // The same, last, on a configuration outside the manifest (1x3v p1):
    // the runtime-sparse path the way production reaches it, from the
    // plain builder, collisions on.
    let cases = [
        (collisional_walled_1x1v as fn() -> App, 1, 1),
        (collisional_walled_1x1v, 3, 1),
        (collisional_walled_1x1v, 2, 2),
        (collisional_1x3v_p1, 1, 1),
    ];
    for (app, ranks, threads) in cases {
        for telemetry in [false, true] {
            let (sys, mut stepped) = app().into_parts();
            let mut backend = Backend::new(sys, ranks, threads);
            let reg = std::sync::Arc::new(vlasov_dg::telemetry::Registry::new(
                backend.telemetry_slots(),
            ));
            if telemetry {
                backend.instrument(&reg);
            }
            backend.step(&mut stepped, 1e-3); // warm-up
            let n = count_allocs(|| {
                for _ in 0..3 {
                    backend.step(&mut stepped, 1e-3);
                }
            });
            let path = backend.system().vlasov.dispatch_path();
            assert_eq!(
                n, 0,
                "Backend::step ({path:?}) at {ranks} rank(s) × {threads} thread(s), \
                 telemetry {telemetry}, allocated {n} times in the hot loop"
            );
            let evals = reg
                .snapshot()
                .counter(vlasov_dg::telemetry::Counter::RhsEvals);
            assert_eq!(evals, if telemetry { 12 } else { 0 });
        }
    }
}

/// The 1x1v system of the block-sweep gates: walls at both ends, LBO on,
/// 6 velocity cells (one partial lane group of the pass).
fn collisional_walled_1x1v() -> App {
    AppBuilder::new()
        .conf_grid(&[0.0], &[4.0], &[5])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .conf_bc(vec![DimBc::new(Bc::Reflect, Bc::Absorb)])
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[6])
                .initial(|x, v| maxwellian(1.0 + 0.05 * x[0], &[0.3], 0.9, v))
                .collisions(0.4),
        )
        .field(FieldSpec::new(2.0).cleaning(1.0, 0.0))
        .telemetry(false)
        .build()
        .unwrap()
}

/// A collisional 1x3v p1 system — a configuration with no registry row,
/// so every operator runs the runtime sparse-tensor path.
fn collisional_1x3v_p1() -> App {
    let app = AppBuilder::new()
        .conf_grid(&[0.0], &[1.0], &[3])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-4.0; 3], &[4.0; 3], &[3, 2, 2])
                .initial(|x, v| maxwellian(1.0 + 0.05 * x[0], &[0.3, 0.0, -0.2], 0.9, v))
                .collisions(0.4),
        )
        .field(FieldSpec::new(2.0))
        .telemetry(false)
        .build()
        .unwrap();
    assert_eq!(
        app.system().kernel_entry_points(),
        "vlasov runtime-sparse, lbo runtime-sparse"
    );
    app
}
