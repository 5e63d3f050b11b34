//! Two-stream instability: growth rate against linear theory.
//!
//! Two symmetric counter-streaming electron beams (drift ±u, total
//! density 1) drive the classic electrostatic two-stream instability. For
//! cold beams the fastest-growing mode sits at `k u = √(3/8) ω_p` with
//! `γ = ω_p / √8 ≈ 0.3536` — a closed-form anchor the kinetic run must
//! approach when the beams are cold enough (`vth ≪ u`). This exercises the
//! full nonlinear field–particle coupling the paper's alias-free kernels
//! protect: an aliased scheme fails this test by either misplacing the
//! growth or blowing up (see the §II test in `tests/paper.rs`).
//!
//! ```text
//! cargo run --release --example two_stream
//! ```

use vlasov_dg::core::species::maxwellian;
use vlasov_dg::diag::fit::growth_rate;
use vlasov_dg::prelude::*;

fn main() -> Result<(), Error> {
    let u = 3.0;
    let gamma_theory = 1.0 / (8.0f64).sqrt();
    let k = (3.0f64 / 8.0).sqrt() / u; // fastest-growing mode
    let length = 2.0 * std::f64::consts::PI / k;
    let vth = 0.3;

    let mut app = AppBuilder::new()
        .conf_grid(&[0.0], &[length], &[16])
        .poly_order(2)
        .basis(BasisKind::Serendipity)
        .cfl(0.6)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-8.0], &[8.0], &[48]).initial(move |x, v| {
                let pert = 1.0 + 1e-5 * (k * x[0]).cos();
                pert * (maxwellian(0.5, &[u], vth, v) + maxwellian(0.5, &[-u], vth, v))
            }),
        )
        .field(FieldSpec::new(10.0).with_poisson_init())
        .build()?;

    let mut times = Vec::new();
    let mut energies = Vec::new();
    let t_end = 25.0;
    {
        let mut sampler = observe(Trigger::EveryTime(0.25), |fr| {
            times.push(fr.time);
            energies.push(fr.field_energy());
            Ok(())
        });
        app.run(t_end, &mut [&mut sampler])?;
    }

    // Linear phase: once the field has grown clear of the initial
    // transient but well before trapping saturates it.
    let gamma = growth_rate(&times, &energies, 5.0, 18.0);
    println!("Two-stream instability, u = ±{u}, vth = {vth}, k u/ω_p = 0.612");
    println!("  fitted γ/ω_p = {gamma:+.4}");
    println!("  cold theory  = {gamma_theory:+.4}");
    println!(
        "  relative error = {:.1}% (warm-beam correction expected)",
        100.0 * ((gamma - gamma_theory) / gamma_theory).abs()
    );
    let q = app.conserved();
    println!("  field energy at t={t_end}: {:.4e}", q.field_energy);

    assert!(gamma > 0.2, "two-stream must grow, got γ = {gamma}");
    assert!(
        (gamma - gamma_theory).abs() < 0.15 * gamma_theory.abs() + 0.02,
        "growth rate far from cold-beam theory: {gamma} vs {gamma_theory}"
    );
    vlasov_dg::util::emit_telemetry(&app, "two_stream")?;
    println!("two_stream OK");
    Ok(())
}
