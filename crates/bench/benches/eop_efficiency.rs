//! **§III efficiency comparison** — DOFs updated per second per core.
//!
//! The paper defines `Eop = #DOFs / (#cores · t_wall)` for one forward-
//! Euler evaluation of the full spatial operator and reports
//! `Eop ≈ 1.67e7` for p=2 Serendipity in 2X3V on a 2013 laptop core —
//! competitive with the heavily optimized 3D Navier–Stokes solver of Fehn
//! et al. even though the kinetic operator is five-dimensional. It also
//! notes (footnote 7) that adding the Fokker–Planck (LBO) collision
//! operator roughly doubles the cost. Both numbers are regenerated here.

use dg_basis::BasisKind;
use dg_bench::env_usize;
use dg_bench::report::{bench_json_path, merge_section, JsonObj};
use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
use dg_core::lbo::LboOp;
use dg_core::species::maxwellian;
use dg_core::vlasov::VlasovWorkspace;
use dg_grid::DgField;
use dg_telemetry::{Counter, Registry};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let nx = env_usize("EOP_NX", 3);
    let nv = env_usize("EOP_NV", 6);
    println!("=== §III efficiency: DOF/s/core, 2X3V p=2 Serendipity ===");
    println!("grid {nx}^2 x {nv}^3\n");

    let app = AppBuilder::new()
        .conf_grid(&[0.0, 0.0], &[1.0, 1.0], &[nx, nx])
        .poly_order(2)
        .basis(BasisKind::Serendipity)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0; 3], &[6.0; 3], &[nv, nv, nv]).initial(
                |x, v| {
                    maxwellian(
                        1.0 + 0.05 * (2.0 * std::f64::consts::PI * x[0]).cos(),
                        &[0.0; 3],
                        1.0,
                        v,
                    )
                },
            ),
        )
        .field(FieldSpec::new(1.0))
        .build()
        .unwrap();

    let sys = app.system();
    let np = sys.kernels.np();
    let ncells = sys.grid.len();
    let dofs = (np * ncells) as f64;
    let state = app.state();
    let mut out = DgField::zeros(ncells, np);
    let mut ws = VlasovWorkspace::for_kernels(&sys.kernels);
    // Collect phase counters during the timed loops so the Eop the
    // telemetry implies can be cross-checked against the wall-clock one.
    let reg = Arc::new(Registry::new(1));
    ws.probe = reg.collector(0);

    // Collisionless operator.
    sys.vlasov
        .accumulate_rhs(-1.0, &state.species_f[0], &state.em, &mut out, &mut ws);
    let reps = 3;
    let snap0 = reg.snapshot();
    let t0 = Instant::now();
    for _ in 0..reps {
        sys.vlasov
            .accumulate_rhs(-1.0, &state.species_f[0], &state.em, &mut out, &mut ws);
    }
    let t_total = t0.elapsed().as_secs_f64();
    let t_vlasov = t_total / reps as f64;
    let eop = dofs / t_vlasov;

    // Telemetry-derived Eop: counted DOFs over the same wall window. The
    // counter must reproduce the analytic size exactly, so the two rates
    // agree by construction.
    let snap1 = reg.snapshot();
    let delta = snap1.delta(&snap0);
    let dof_tel = delta.counter(Counter::DofProcessed);
    assert_eq!(
        dof_tel,
        reps as u64 * dofs as u64,
        "telemetry DOF counter disagrees with the analytic operator size"
    );
    let eop_tel = dof_tel as f64 / t_total;
    assert!(
        (eop_tel - eop).abs() <= 1e-9 * eop,
        "telemetry Eop {eop_tel:.3e} disagrees with wall-clock Eop {eop:.3e}"
    );

    // With LBO collisions (instrumented too, so the per-phase table
    // below covers drag/diffusion alongside the Vlasov phases).
    let mut lbo = LboOp::new(Arc::clone(&sys.kernels), sys.grid.clone(), 0.5);
    lbo.instrument_scratch(&ws.probe);
    lbo.accumulate_rhs(&state.species_f[0], &mut out);
    let snap2 = reg.snapshot();
    let t0 = Instant::now();
    for _ in 0..reps {
        sys.vlasov
            .accumulate_rhs(-1.0, &state.species_f[0], &state.em, &mut out, &mut ws);
        lbo.accumulate_rhs(&state.species_f[0], &mut out);
    }
    let t_with_lbo = t0.elapsed().as_secs_f64() / reps as f64;
    let eop_lbo = dofs / t_with_lbo;

    let entry_points = format!(
        "vlasov {}, lbo {}",
        sys.vlasov.kernel_entry_points(),
        lbo.kernel_entry_points()
    );
    println!("{:<44}{:>14}", "quantity", "value");
    println!("{:-<58}", "");
    println!("{:<44}{:>14}", "DOFs (cells x Np)", dofs as u64);
    println!("kernel entry points: {entry_points}");
    println!("{:<44}{:>14.3e}", "collisionless Eop (DOF/s/core)", eop);
    println!(
        "{:<44}{:>14.3e}",
        "collisionless Eop from telemetry", eop_tel
    );
    println!(
        "{:<44}{:>14.3e}",
        "with LBO collisions (DOF/s/core)", eop_lbo
    );
    println!(
        "{:<44}{:>13.2}x",
        "collision cost factor",
        t_with_lbo / t_vlasov
    );
    println!("\npaper: Eop ≈ 1.67e7 collisionless, ≈ 8e6 with collisions (≈2x cost);");
    println!("       Fehn et al. compressible Navier–Stokes (3D, p=2 tensor): ≈ 1e7.");

    // Per-phase cost table over the timed windows only (warm-up calls
    // excluded via snapshot deltas) — the EXPERIMENTS.md "Eop per-phase
    // cost" table is regenerated from this output.
    let mut timed = snap1.delta(&snap0);
    timed.merge(&reg.snapshot().delta(&snap2));
    let phase_report = dg_telemetry::RunReport {
        name: "eop_2x3v_p2_ser".into(),
        wall_s: t_vlasov * reps as f64 + t_with_lbo * reps as f64,
        steps: 0,
        last_dt: 0.0,
        dt_trace: Vec::new(),
        nslots: 1,
        kernel_entry_points: entry_points.clone(),
        snapshot: timed,
    };
    println!();
    print!("{}", phase_report.summary_table());

    assert!(eop > 1e6, "efficiency implausibly low: {eop:.3e}");
    let factor = t_with_lbo / t_vlasov;
    assert!(
        factor > 1.2 && factor < 5.0,
        "collision cost factor {factor:.2} outside the paper's ~2x ballpark"
    );

    let section = JsonObj::new()
        .obj(
            "config",
            JsonObj::new()
                .str("layout", "2x3v")
                .str("basis", "serendipity")
                .int("poly_order", 2)
                .int("conf_cells_per_dim", nx as u64)
                .int("vel_cells_per_dim", nv as u64)
                .int("dofs", dofs as u64)
                .str("kernel_entry_points", &entry_points),
        )
        .num("eop_collisionless_dof_per_s_per_core", eop)
        .num("eop_collisionless_dof_per_s_telemetry", eop_tel)
        .num("eop_with_lbo_dof_per_s_per_core", eop_lbo)
        .num("collision_cost_factor", factor)
        .num("paper_eop_collisionless", 1.67e7);
    let path = bench_json_path();
    merge_section(&path, "eop_efficiency", &section);
    println!("wrote section \"eop_efficiency\" to {}", path.display());
    println!("\neop_efficiency OK");
}
