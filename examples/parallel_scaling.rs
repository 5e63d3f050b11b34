//! Mini weak/strong scaling demo (the Fig. 3 harness at example scale).
//!
//! First drives the *same* App declaration at 1 rank × 1 thread and at
//! `PS_RANKS` ranks × the host's threads via the public builder, and
//! checks the trajectories match bit-for-bit (the decomposition is pure
//! execution policy). Then runs the paper's 3X3V p=1 two-species problem
//! family at small grids over 1, 2 and 4 simulated ranks and prints the
//! per-step timings and halo volumes. On one core the point is the
//! decomposition *machinery*; on a multicore host the same binary
//! produces real speedups.
//!
//! ```text
//! PS_RANKS=4 cargo run --release --example parallel_scaling
//! ```

use std::time::Instant;
use vlasov_dg::core::species::maxwellian;
use vlasov_dg::parallel::scaling::{strong_scaling_series, weak_scaling_series};
use vlasov_dg::prelude::*;
use vlasov_dg::util::env_usize;

/// One small 1X2V declaration, parameterized only by its decomposition.
fn build_demo(ranks: usize, threads: usize) -> Result<App, Error> {
    let k = 0.5;
    AppBuilder::new()
        .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / k], &[12])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6]).initial(
                move |x, v| maxwellian(1.0 + 0.08 * (k * x[0]).cos(), &[0.3, -0.2], 1.0, v),
            ),
        )
        .field(FieldSpec::new(2.0).with_poisson_init().cleaning(1.0, 1.0))
        .ranks(ranks)
        .threads(threads)
        .build()
}

fn main() -> Result<(), Error> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ranks = env_usize("PS_RANKS", 4);
    println!("host threads: {threads}");

    // --- one declaration, two decompositions, identical bits ---
    let t_demo = 0.05;
    let mut serial = build_demo(1, 1)?;
    let t0 = Instant::now();
    serial.run(t_demo, &mut [])?;
    let serial_s = t0.elapsed().as_secs_f64();

    let mut par = build_demo(ranks, threads)?;
    let t0 = Instant::now();
    par.run(t_demo, &mut [])?;
    let par_s = t0.elapsed().as_secs_f64();

    let identical = serial.state().species_f[0].as_slice() == par.state().species_f[0].as_slice()
        && serial.state().em.as_slice() == par.state().em.as_slice();
    println!(
        "\ndecomposition demo (t = {t_demo}, {} steps): 1x1 {serial_s:.3}s vs {ranks}x{threads} {par_s:.3}s, bit-identical: {identical}",
        serial.steps_taken(),
    );
    assert!(identical, "decompositions must agree bit-for-bit");

    // --- Fig. 3 style series through the hand-wired harness ---
    println!("\nweak scaling (3X3V p=1, per-rank conf block 2x4x4, vel 4^3):");
    println!(
        "{:>6} {:>12} {:>14} {:>14}",
        "ranks", "phase cells", "s/step", "halo bytes"
    );
    let weak = weak_scaling_series(&[2, 4, 4], &[4, 4, 4], &[1, 2, 4], threads, 2);
    let base = weak[0].seconds_per_step;
    for p in &weak {
        println!(
            "{:>6} {:>12} {:>14.4e} {:>14}  (norm {:.2})",
            p.ranks,
            p.phase_cells,
            p.seconds_per_step,
            p.halo_bytes,
            p.seconds_per_step / base
        );
    }

    println!("\nstrong scaling (fixed 4x4x4 conf, 4^3 vel):");
    println!(
        "{:>6} {:>12} {:>14} {:>14}",
        "ranks", "phase cells", "s/step", "halo bytes"
    );
    let strong = strong_scaling_series(&[4, 4, 4], &[4, 4, 4], &[1, 2, 4], threads, 2);
    let base = strong[0].seconds_per_step;
    for p in &strong {
        println!(
            "{:>6} {:>12} {:>14.4e} {:>14}  (speedup {:.2})",
            p.ranks,
            p.phase_cells,
            p.seconds_per_step,
            p.halo_bytes,
            base / p.seconds_per_step
        );
    }
    println!("\nparallel_scaling OK");
    Ok(())
}
