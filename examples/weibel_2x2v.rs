//! Counter-streaming beams in 2X2V — the paper's Fig. 5 simulation.
//!
//! An electron–proton plasma whose electrons form two counter-streaming
//! beams (±u along y) is unstable to the zoo of two-stream, filamentation,
//! and hybrid oblique modes (§V; Skoutnev et al. 2019). The run converts
//! beam kinetic energy → electromagnetic energy → thermal spread, and the
//! phase-space slices (`y–v_y`, `v_x–v_y`) show the structure a continuum
//! method resolves noise-free.
//!
//! Everything rides on the run driver: the energy history, the streaming
//! field-energy CSV, the begin/end slice panels, and the
//! nonlinear-saturation detector are all trigger-scheduled observers.
//!
//! Defaults are container-sized; scale with environment variables for the
//! full paper-like run, and pick the decomposition the same way:
//!
//! ```text
//! WEIBEL_NX=16 WEIBEL_NV=16 WEIBEL_TEND=60 cargo run --release --example weibel_2x2v
//! WEIBEL_RANKS=4 WEIBEL_THREADS=4 cargo run --release --example weibel_2x2v
//! ```
//!
//! Writes `weibel_history.csv`, `field_energy.csv` and slice CSVs into
//! `target/weibel/`.

use vlasov_dg::core::species::maxwellian;
use vlasov_dg::diag::{csv::write_grid_csv, slices::slice_2d, EnergyHistory};
use vlasov_dg::prelude::*;
use vlasov_dg::util::{env_f64, env_usize};

fn main() -> Result<(), Error> {
    let nx = env_usize("WEIBEL_NX", 8);
    let nv = env_usize("WEIBEL_NV", 8);
    let t_end = env_f64("WEIBEL_TEND", 20.0);
    let ranks = env_usize("WEIBEL_RANKS", 1);
    let threads = env_usize("WEIBEL_THREADS", 1);
    let u = 0.3; // beam drift (c = 1)
    let vth = 0.1;
    let mass_ratio = 1836.0;
    // Box sized to a few unstable wavelengths of the filamentation branch.
    let l = 2.0 * std::f64::consts::PI / 0.4;

    let builder = AppBuilder::new()
        .conf_grid(&[0.0, 0.0], &[l, l], &[nx, nx])
        .poly_order(2)
        .basis(BasisKind::Serendipity)
        .cfl(0.8)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-1.2, -1.2], &[1.2, 1.2], &[nv, nv]).initial(
                move |x, v| {
                    // Counter-streaming beams along v_y, seeded with small
                    // multi-mode spatial noise (deterministic phases).
                    let kx = 2.0 * std::f64::consts::PI / l;
                    let seed = 1.0
                        + 1e-3
                            * ((kx * x[0]).cos() + (kx * x[1]).cos() + (kx * (x[0] + x[1])).sin());
                    seed * (maxwellian(0.5, &[0.0, u], vth, v)
                        + maxwellian(0.5, &[0.0, -u], vth, v))
                },
            ),
        )
        .species(
            SpeciesSpec::new(
                "ion",
                1.0,
                mass_ratio,
                &[-1.2, -1.2],
                &[1.2, 1.2],
                &[nv, nv],
            )
            .initial(move |_x, v| maxwellian(1.0, &[0.0, 0.0], 0.15, v)),
        )
        .field(FieldSpec::new(1.0).cleaning(1.0, 1.0).with_ic(move |x| {
            // Tiny magnetic seed so the filamentation branch has a finite
            // starting amplitude to grow from (and the growth factor below
            // is well-defined).
            let kx = 2.0 * std::f64::consts::PI / l;
            [
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                1e-6 * ((kx * x[0]).sin() + (kx * x[1]).cos()),
            ]
        }));
    let mut app = builder.ranks(ranks).threads(threads).build()?;
    println!(
        "backend: {} ({ranks} rank(s) × {threads} thread(s))",
        app.backend_name()
    );

    let outdir = std::path::Path::new("target/weibel");
    std::fs::create_dir_all(outdir)?;

    let q0 = app.conserved();
    println!(
        "t=0: kinetic {:.6}, field {:.3e}",
        q0.particle_energy, q0.field_energy
    );

    let sample = (t_end / 60.0).max(0.05);
    let mut history = EnergyHistory::every(sample);
    // Streaming field-energy series (one row per sample, flushed as the
    // run progresses).
    let mut fe_series = CsvSeries::create(
        outdir.join("field_energy.csv"),
        Trigger::EveryTime(sample),
        &["t", "field_energy"],
        |fr| vec![fr.time, fr.field_energy()],
    )?;
    // Slice panels at the start and the end of the run (the EveryTime
    // trigger fires at run start and at every multiple of its period —
    // here exactly t = 0 and t = t_end).
    let mut slices_y_vy = SliceSeries::new(
        outdir,
        "f_y_vy",
        0,
        1,
        3,
        &[l / 2.0, 0.0, 0.0, 0.0],
        Trigger::EveryTime(t_end),
    )
    .labels("y", "vy");
    let mut slices_vx_vy = SliceSeries::new(
        outdir,
        "f_vx_vy",
        0,
        2,
        3,
        &[l / 2.0, l / 2.0, 0.0, 0.0],
        Trigger::EveryTime(t_end),
    )
    .labels("vx", "vy");
    // Nonlinear-saturation detector: just past the field-energy peak —
    // the middle panel of Fig. 5.
    let mut peak_field: f64 = 0.0;
    let mut saved_peak = false;
    let q0_field = q0.field_energy;
    {
        let mut saturation = observe(Trigger::EveryTime(sample), |fr| {
            let fe = fr.field_energy();
            if fe > peak_field {
                peak_field = fe;
            } else if !saved_peak && fe < 0.95 * peak_field && peak_field > 2.0 * q0_field {
                let s1 = slice_2d(
                    fr.system,
                    &fr.state.species_f[0],
                    1,
                    3,
                    &[l / 2.0, 0.0, 0.0, 0.0],
                );
                write_grid_csv(
                    outdir.join("f_y_vy_saturation.csv"),
                    "y",
                    "vy",
                    &s1.xs,
                    &s1.ys,
                    &s1.values,
                )?;
                let s2 = slice_2d(
                    fr.system,
                    &fr.state.species_f[0],
                    2,
                    3,
                    &[l / 2.0, l / 2.0, 0.0, 0.0],
                );
                write_grid_csv(
                    outdir.join("f_vx_vy_saturation.csv"),
                    "vx",
                    "vy",
                    &s2.xs,
                    &s2.ys,
                    &s2.values,
                )?;
                saved_peak = true;
            }
            Ok(())
        })
        .named("saturation-detector");

        app.run(
            t_end,
            &mut [
                &mut history,
                &mut fe_series,
                &mut slices_y_vy,
                &mut slices_vx_vy,
                &mut saturation,
            ],
        )?;
    }
    if !saved_peak {
        // No clear saturation inside the horizon: stamp the final state
        // into both panels.
        let s1 = slice_2d(
            app.system(),
            &app.state().species_f[0],
            1,
            3,
            &[l / 2.0, 0.0, 0.0, 0.0],
        );
        write_grid_csv(
            outdir.join("f_y_vy_saturation.csv"),
            "y",
            "vy",
            &s1.xs,
            &s1.ys,
            &s1.values,
        )?;
        let s2 = slice_2d(
            app.system(),
            &app.state().species_f[0],
            2,
            3,
            &[l / 2.0, l / 2.0, 0.0, 0.0],
        );
        write_grid_csv(
            outdir.join("f_vx_vy_saturation.csv"),
            "vx",
            "vy",
            &s2.xs,
            &s2.ys,
            &s2.values,
        )?;
    }
    fe_series.finish()?;
    history.write_csv(outdir.join("weibel_history.csv"))?;

    let q1 = app.conserved();
    println!(
        "t={:.1} ({} steps): kinetic {:.6}, field {:.3e}",
        app.time(),
        app.steps_taken(),
        q1.particle_energy,
        q1.field_energy
    );
    println!(
        "  field-energy growth factor : {:.2e}",
        q1.field_energy / q0.field_energy.max(1e-300)
    );
    println!(
        "  mass drift                 : {:.3e}",
        history.mass_drift()
    );
    println!(
        "  total-energy drift         : {:.3e}",
        history.energy_drift()
    );
    println!("  frames in target/weibel/");

    assert!(history.mass_drift() < 1e-9, "mass must be conserved");
    if t_end >= 10.0 {
        assert!(
            q1.field_energy > q0.field_energy,
            "beam free energy must drive field growth"
        );
    } else {
        println!("  (shrunk run: skipping the field-growth assertion)");
    }
    vlasov_dg::util::emit_telemetry(&app, "weibel_2x2v")?;
    println!("weibel_2x2v OK");
    Ok(())
}
