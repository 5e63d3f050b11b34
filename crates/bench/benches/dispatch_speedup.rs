//! Dispatch speedup: committed unrolled kernels vs the runtime sparse path.
//!
//! For every configuration in the committed-kernel manifest, this harness
//! builds the same phase-space grid twice — one `VlasovOp` forced to
//! `KernelDispatch::Generated`, one to `KernelDispatch::RuntimeSparse` —
//! and times (a) the volume sweep and (b) the **full collisionless RHS**
//! (volume + configuration-direction surfaces + velocity-direction
//! surfaces) through each. Both paths execute the same multiplications
//! (`OpReport` is identical up to its dispatch tags; the equivalence tests
//! pin the arithmetic to 1e-13), so any wall-clock difference is pure
//! dispatch overhead: flat straight-line code with literal coefficients
//! versus interpreting sparse tables entry by entry. This is the Gkeyll
//! argument for committing generated kernels, measured end to end (see
//! EXPERIMENTS.md, "Dispatch speedup").
//!
//! ```text
//! cargo bench --bench dispatch_speedup
//! DISPATCH_NV=8 DISPATCH_NX=16 cargo bench --bench dispatch_speedup   # sizes
//! ```

use dg_basis::BasisKind;
use dg_bench::report::{bench_json_path, merge_section, JsonObj};
use dg_bench::{env_usize, synth};
use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
use dg_core::blocks::BlockRhs;
use dg_core::species::maxwellian;
use dg_core::system::{FluxKind, SystemState, VlasovMaxwell};
use dg_core::vlasov::{VlasovOp, VlasovWorkspace};
use dg_grid::{Bc, CartGrid, DgField, PhaseGrid};
use dg_kernels::codegen::MANIFEST;
use dg_kernels::{kernels_for, DispatchPath, KernelDispatch};
use dg_maxwell::NCOMP;
use dg_telemetry::{Collector, Counter, Registry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds per phase-space cell for one sweep of `body`.
fn time_sweep(body: &mut dyn FnMut(), ncells: usize, min_ms: u128) -> f64 {
    // Warm-up.
    for _ in 0..3 {
        body();
    }
    let t0 = Instant::now();
    let mut iters = 0usize;
    while iters < 10 || t0.elapsed().as_millis() < min_ms {
        body();
        iters += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    ns / (iters as f64 * ncells as f64)
}

fn main() {
    let nx = env_usize("DISPATCH_NX", 16);
    let nv = env_usize("DISPATCH_NV", 8);
    let min_ms = env_usize("DISPATCH_MIN_MS", 120) as u128;

    println!("# Dispatch speedup: generated (committed unrolled) vs runtime sparse kernels");
    println!("# conf cells/dim = {nx}, vel cells/dim = {nv}, >= {min_ms} ms per measurement");
    println!("# gen / rt = the entry points each forced operator resolved (last column)");
    println!(
        "# {:<16} {:>4} {:>10} | {:>12} {:>12} {:>8} | {:>12} {:>12} {:>8} | gen entry points",
        "config", "Np", "mults", "vol gen", "vol rt", "vol", "rhs gen", "rhs rt", "rhs"
    );

    let mut fig1_vol = None;
    let mut fig1_rhs = None;
    let mut full_dim_vol = None;
    let mut full_dim_rhs = None;
    for spec in MANIFEST {
        let layout = spec.layout();
        let kernels = kernels_for(spec.kind, layout, spec.poly_order);
        // 5D/6D rows: cap the per-dimension cell counts so the working set
        // stays laptop-sized (16^2 x 8^3 cells at Np = 112 would be
        // hundreds of MB per field); the per-cell timings are what matter.
        let (nx_d, nv_d) = if layout.cdim + layout.vdim >= 5 {
            (nx.min(4), nv.min(4))
        } else {
            (nx, nv)
        };
        let grid = PhaseGrid::new(
            CartGrid::new(
                &vec![0.0; layout.cdim],
                &vec![1.0; layout.cdim],
                &vec![nx_d; layout.cdim],
            ),
            CartGrid::new(
                &vec![-4.0; layout.vdim],
                &vec![4.0; layout.vdim],
                &vec![nv_d; layout.vdim],
            ),
            vec![Bc::Periodic; layout.cdim],
        );
        let nconf = grid.conf.len();
        let ncells = nconf * grid.vel.len();
        let np = kernels.np();
        let nc = kernels.nc();
        let mut f = DgField::zeros(ncells, np);
        for c in 0..ncells {
            f.cell_mut(c).copy_from_slice(&synth(np, 11 + c as u64));
        }
        let mut em = DgField::zeros(nconf, NCOMP * nc);
        for c in 0..nconf {
            em.cell_mut(c)
                .copy_from_slice(&synth(NCOMP * nc, 29 + c as u64));
        }
        let mut out = DgField::zeros(ncells, np);

        let op_gen = VlasovOp::with_dispatch(
            kernels.clone(),
            grid.clone(),
            FluxKind::Upwind,
            KernelDispatch::Generated,
        );
        let op_rt = VlasovOp::with_dispatch(
            kernels.clone(),
            grid,
            FluxKind::Upwind,
            KernelDispatch::RuntimeSparse,
        );
        let mut ws = VlasovWorkspace::for_kernels(&kernels);

        // Both tags on each report: the volume *and* surface paths were
        // forced together, and the counts are identical across paths.
        let (rg, rr) = (op_gen.op_report(), op_rt.op_report());
        assert_eq!(rg.path, DispatchPath::Generated);
        assert_eq!(rg.surface_path, DispatchPath::Generated);
        assert_eq!(rr.path, DispatchPath::RuntimeSparse);
        assert_eq!(rr.surface_path, DispatchPath::RuntimeSparse);
        let gen_entry_points = op_gen.kernel_entry_points().to_string();
        assert!(gen_entry_points.starts_with("generated/"));
        assert_eq!(op_rt.kernel_entry_points().to_string(), "runtime-sparse");

        let mut time_op = |op: &VlasovOp, full: bool| -> f64 {
            let (f, em, out, ws) = (&f, &em, &mut out, &mut ws);
            let mut body: Box<dyn FnMut()> = if full {
                Box::new(|| op.accumulate_rhs(-1.0, f, em, out, ws))
            } else {
                Box::new(|| op.volume(-1.0, f, em, out, ws, 0..nconf))
            };
            let ns = time_sweep(&mut body, ncells, min_ms);
            drop(body);
            black_box(out.max_abs());
            out.fill(0.0);
            ns
        };
        let t_vol_gen = time_op(&op_gen, false);
        let t_vol_rt = time_op(&op_rt, false);
        let t_rhs_gen = time_op(&op_gen, true);
        let t_rhs_rt = time_op(&op_rt, true);
        let s_vol = t_vol_rt / t_vol_gen;
        let s_rhs = t_rhs_rt / t_rhs_gen;

        println!(
            "{:<18} {:>4} {:>10} | {:>12.1} {:>12.1} {:>7.2}x | {:>12.1} {:>12.1} {:>7.2}x | {}",
            format!("{}_p{}_{}", layout.tag(), spec.poly_order, spec.kind_tag()),
            np,
            rg.total(),
            t_vol_gen,
            t_vol_rt,
            s_vol,
            t_rhs_gen,
            t_rhs_rt,
            s_rhs,
            gen_entry_points
        );
        if spec.kind_tag() == "tensor" && layout.cdim == 1 && layout.vdim == 2 {
            fig1_vol = Some(s_vol);
            fig1_rhs = Some(s_rhs);
        }
        if layout.cdim == 2 && layout.vdim == 3 && spec.poly_order == 2 {
            full_dim_vol = Some(s_vol);
            full_dim_rhs = Some(s_rhs);
        }
    }

    // ISSUE acceptance gates: the Fig. 1 configuration must be in the
    // manifest, the generated volume path must win, and the *end-to-end
    // RHS sweep* (volume + all surface terms through the committed
    // kernels) must win by at least 2x.
    let sv = fig1_vol.expect("1x2v p1 tensor (Fig. 1) missing from the manifest");
    let sr = fig1_rhs.expect("1x2v p1 tensor (Fig. 1) missing from the manifest");
    println!("# Fig. 1 configuration (1x2v p1 tensor): volume {sv:.2}x, full RHS {sr:.2}x");
    // ISSUE 7: the paper's Eop configuration (2x3v p2 ser, Np = 112) must
    // be in the manifest and its generated path must win end to end.
    let fdv = full_dim_vol.expect("2x3v p2 ser (Eop config) missing from the manifest");
    let fdr = full_dim_rhs.expect("2x3v p2 ser (Eop config) missing from the manifest");
    println!("# Eop configuration (2x3v p2 ser): volume {fdv:.2}x, full RHS {fdr:.2}x");
    assert!(
        fdv > 1.0 && fdr > 1.0,
        "generated path lost to runtime sparse on the Eop config (vol {fdv:.2}x, rhs {fdr:.2}x)"
    );
    assert!(
        sv > 1.0,
        "generated path lost to runtime sparse on the Fig. 1 volume sweep ({sv:.2}x)"
    );
    assert!(
        sr >= 2.0,
        "full-RHS dispatch win below the 2x acceptance gate on Fig. 1 ({sr:.2}x)"
    );

    // --- Intra-rank cell-block threading: the full *coupled* RHS (kinetic
    // sweep on the worker pool + moment/field coupling) through `BlockRhs`
    // at 1, 2, and 4 threads on the Fig. 1 configuration. Thread counts
    // above the host's core count still run (the pool oversubscribes), so
    // the numbers stay honest on small machines — the scaling gate only
    // arms when the host actually has >= 4 cores. ---
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (mut sys, state) = AppBuilder::new()
        .conf_grid(&[0.0], &[1.0], &[nx])
        .poly_order(1)
        .basis(BasisKind::Tensor)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-4.0, -4.0], &[4.0, 4.0], &[nv, nv])
                .initial(|x, v| maxwellian(1.0 + 0.05 * (2.0 * x[0]).cos(), &[0.2, 0.0], 0.9, v)),
        )
        .field(FieldSpec::new(1.0))
        .build()
        .unwrap()
        .into_parts();
    let ncells = sys.grid.len();
    let kinetic_dofs = (ncells * sys.kernels.np()) as f64;
    let mut out = sys.new_state();

    println!("\n# Cell-block threaded full RHS (1x2v p1 tensor, {host_cores} host cores)");
    println!(
        "# {:<8} {:>12} {:>14} {:>10}",
        "threads", "ns/cell", "DOF/s", "speedup"
    );
    let thread_counts: [usize; 3] = [1, 2, 4];
    let mut dofs_per_s = Vec::new();
    let mut speedups = Vec::new();
    for &t in &thread_counts {
        let mut block = BlockRhs::new(&sys, 1, t);
        let ns_cell = {
            let (sys, state, out) = (&mut sys, &state, &mut out);
            let mut body: Box<dyn FnMut()> = Box::new(|| block.rhs(sys, state, out));
            time_sweep(&mut body, ncells, min_ms)
        };
        black_box(out.species_f[0].max_abs());
        let rate = kinetic_dofs / (ns_cell * 1e-9 * ncells as f64);
        let speedup = dofs_per_s.first().map_or(1.0, |&r0: &f64| rate / r0);
        dofs_per_s.push(rate);
        speedups.push(speedup);
        println!("# {t:<8} {ns_cell:>12.1} {rate:>14.3e} {speedup:>9.2}x");
    }
    let s4 = *speedups.last().unwrap();
    let gate_armed = host_cores >= 4;
    if gate_armed {
        assert!(
            s4 >= 2.5,
            "4-thread full-RHS speedup below the 2.5x acceptance gate ({s4:.2}x on {host_cores} cores)"
        );
    } else {
        println!("# scaling gate not armed: host has {host_cores} core(s), need >= 4");
    }

    // --- Telemetry cross-check on the 1-thread coupled-RHS row: the
    // DOF/s the phase counters imply must agree with the wall-clock
    // bookkeeping above, and enabling collection must cost at most 2%
    // (both ISSUE acceptance gates). The off/on windows are interleaved
    // and min-folded so slow clock/thermal drift cancels instead of
    // landing entirely on one side of the comparison. ---
    let mut block_off = BlockRhs::new(&sys, 1, 1);
    let mut block_on = BlockRhs::new(&sys, 1, 1);
    let reg = Arc::new(Registry::new(1 + block_on.blocks().len()));
    block_on.instrument(&reg);
    let probe_on = reg.collector(0);
    let probe_off = Collector::default();
    let state_ref = &state;
    // Per-*evaluation* minima rather than window averages: one coupled
    // RHS eval is ~0.1 ms, so each window yields hundreds of samples and
    // any eval that dodges a scheduler burst runs at the quiet-machine
    // floor. The spans execute deterministically in every eval, so their
    // true cost survives the min while ambient noise does not — window
    // averages cannot make that separation on a loaded host.
    let one_window = |block: &mut BlockRhs, sys: &mut VlasovMaxwell, out: &mut SystemState| {
        let (b, sys, out) = (&mut *block, &mut *sys, &mut *out);
        let t0 = Instant::now();
        let window_ms = (min_ms / 3).max(30);
        let mut best = f64::INFINITY;
        let mut iters = 0usize;
        while iters < 10 || t0.elapsed().as_millis() < window_ms {
            let t = Instant::now();
            b.rhs(sys, state_ref, out);
            best = best.min(t.elapsed().as_nanos() as f64);
            iters += 1;
        }
        best / ncells as f64
    };
    let (mut t_off, mut t_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..12 {
        sys.instrument(&probe_off);
        t_off = t_off.min(one_window(&mut block_off, &mut sys, &mut out));
        sys.instrument(&probe_on);
        t_on = t_on.min(one_window(&mut block_on, &mut sys, &mut out));
    }
    let overhead = t_on / t_off - 1.0;
    let mut block = block_on;

    // One extra timed window with collection on: the counters must
    // reproduce the analytic sweep size exactly, making the two DOF/s
    // numbers agree by construction rather than within a tolerance.
    let snap0 = reg.snapshot();
    let t0 = Instant::now();
    let mut iters = 0u64;
    while iters < 10 || t0.elapsed().as_millis() < min_ms {
        block.rhs(&mut sys, &state, &mut out);
        iters += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    black_box(out.species_f[0].max_abs());
    let delta = reg.snapshot().delta(&snap0);
    let dof_tel = delta.counter(Counter::DofProcessed);
    assert_eq!(
        delta.counter(Counter::RhsEvals),
        iters,
        "telemetry RHS-eval counter disagrees with the driver loop"
    );
    assert_eq!(
        dof_tel,
        iters * kinetic_dofs as u64,
        "telemetry DOF counter disagrees with the analytic sweep size"
    );
    let rate_tel = dof_tel as f64 / wall_s;
    let rate_wall = iters as f64 * kinetic_dofs / wall_s;
    assert!(
        (rate_tel - rate_wall).abs() <= 1e-9 * rate_wall,
        "telemetry DOF/s {rate_tel:.3e} disagrees with wall-clock DOF/s {rate_wall:.3e}"
    );
    println!(
        "\n# Telemetry (1-thread coupled RHS): {rate_tel:.3e} DOF/s from counters, \
         overhead {:+.2}%",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.02,
        "telemetry collection overhead {:.2}% above the 2% acceptance gate \
         (off {t_off:.1} ns/cell, on {t_on:.1} ns/cell)",
        overhead * 100.0
    );

    let section = JsonObj::new()
        .obj(
            "config",
            JsonObj::new()
                .str("layout", "1x2v")
                .str("basis", "tensor")
                .int("poly_order", 1)
                .int("conf_cells_per_dim", nx as u64)
                .int("vel_cells_per_dim", nv as u64)
                .int("kinetic_dofs", kinetic_dofs as u64),
        )
        .obj(
            "fig1_dispatch",
            JsonObj::new()
                .num("volume_speedup_vs_runtime_sparse", sv)
                .num("full_rhs_speedup_vs_runtime_sparse", sr),
        )
        .obj(
            "eop_config_dispatch_2x3v_p2_ser",
            JsonObj::new()
                .num("volume_speedup_vs_runtime_sparse", fdv)
                .num("full_rhs_speedup_vs_runtime_sparse", fdr),
        )
        .obj(
            "threading",
            JsonObj::new()
                .int("host_cores", host_cores as u64)
                .int_array("threads", &thread_counts.map(|t| t as u64))
                .num_array("dofs_per_s", &dofs_per_s)
                .num_array("speedup_vs_1_thread", &speedups)
                .raw(
                    "scaling_gate_armed",
                    if gate_armed { "true" } else { "false" },
                ),
        )
        .obj(
            "telemetry",
            JsonObj::new()
                .num("coupled_rhs_dof_per_s_wall", rate_wall)
                .num("coupled_rhs_dof_per_s_telemetry", rate_tel)
                .num("collection_overhead_fraction", overhead),
        );
    let path = bench_json_path();
    merge_section(&path, "dispatch_speedup", &section);
    println!("# wrote section \"dispatch_speedup\" to {}", path.display());
    println!("\ndispatch_speedup OK");
}
