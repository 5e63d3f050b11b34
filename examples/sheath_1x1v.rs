//! Plasma sheath between two absorbing walls — the first bounded-domain
//! (non-periodic) end-to-end simulation.
//!
//! Electrons and ions start quasi-neutral and Maxwellian between two
//! absorbing walls (`Bc::Absorb` for both species, which the field solver
//! treats as perfectly conducting boundaries). Electrons out-run the ions
//! to the walls, the bulk charges positive, and a self-consistent sheath
//! potential develops that confines the remaining electrons and
//! accelerates ions outward — the classic wall-loss physics of Juno et
//! al., JCP 2018 (§ sheaths), here in 1X1V with a reduced mass ratio so
//! one shared velocity grid resolves both species.
//!
//! Everything the walls drain is accounted: the [`WallFluxLedger`]
//! balances each species' missing particles against the time-integrated
//! wall flux to round-off (asserted below at every size), and with
//! `SHEATH_RANKS ≥ 2` the identical declaration runs over that many
//! configuration slabs and must reproduce the one-rank, one-thread state
//! bit for bit.
//!
//! ```text
//! cargo run --release --example sheath_1x1v
//! ```
//!
//! CI smoke sizes via `SHEATH_NX`, `SHEATH_NV`, `SHEATH_TEND`,
//! `SHEATH_RANKS`, `SHEATH_THREADS` (`AppBuilder::ranks` / `threads`; the
//! two compose as ranks × threads cell blocks).

use vlasov_dg::core::species::maxwellian;
use vlasov_dg::prelude::*;
use vlasov_dg::util::{env_f64, env_usize};

/// Ion/electron mass ratio (reduced so the shared velocity grid resolves
/// the ion thermal width: vth_i = 1/√25 = 0.2 at T_i = T_e).
const MASS_RATIO: f64 = 25.0;

fn build(nx: usize, nv: usize, length: f64, ranks: usize, threads: usize) -> Result<App, Error> {
    let vth_i = (1.0 / MASS_RATIO).sqrt();
    AppBuilder::new()
        .conf_grid(&[0.0], &[length], &[nx])
        .poly_order(2)
        .basis(BasisKind::Serendipity)
        .cfl(0.5)
        // The domain declaration: absorbing walls on both sides. Species
        // default to it; the field derives conducting-wall BCs from it.
        .conf_bc(vec![Bc::Absorb])
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[nv])
                .initial(move |_x, v| maxwellian(1.0, &[0.0], 1.0, v)),
        )
        .species(
            SpeciesSpec::new("ion", 1.0, MASS_RATIO, &[-6.0], &[6.0], &[nv])
                .initial(move |_x, v| maxwellian(1.0, &[0.0], vth_i, v)),
        )
        // Electrostatic limit: fast light speed, electric divergence
        // cleaning keeps Gauss's law coupled to the evolving charge.
        .field(FieldSpec::new(5.0).cleaning(1.0, 0.0))
        .ranks(ranks)
        .threads(threads)
        .build()
}

/// Sheath potential: φ(center) − φ(wall) = −∫_wall^center E_x dx, from the
/// cell-mean E_x of the final state (left half of the domain).
fn sheath_potential(app: &App) -> f64 {
    let system = app.system();
    let grid = &system.maxwell.grid;
    let nc = system.maxwell.nc();
    let c0 = vlasov_dg::basis::expand::const_coeff(&system.maxwell.basis);
    let dx = grid.dx()[0];
    let half = grid.len() / 2;
    let mut integral = 0.0;
    for cell in 0..half {
        let ex_mean = app.state().em.cell(cell)[..nc][0] / c0;
        integral += ex_mean * dx;
    }
    -integral
}

fn main() -> Result<(), Error> {
    let nx = env_usize("SHEATH_NX", 24);
    let nv = env_usize("SHEATH_NV", 64);
    let t_end = env_f64("SHEATH_TEND", 5.0);
    let ranks = env_usize("SHEATH_RANKS", 1);
    let threads = env_usize("SHEATH_THREADS", 2);
    let length = 10.0;
    let full_fidelity = t_end >= 4.0 && nx >= 16 && nv >= 48;

    let mut app = build(nx, nv, length, ranks, threads)?;
    let mut ledger = WallFluxLedger::every(0.1);
    let mut history = EnergyHistory::every(0.1);
    app.run(t_end, &mut [&mut ledger, &mut history])?;

    let backend = app.backend_name();
    println!(
        "sheath_1x1v: {nx}×{nv} cells, p=2, m_i/m_e = {MASS_RATIO}, t_end = {t_end} \
         [{backend}, {ranks} rank(s) × {threads} thread(s)]"
    );
    let elc_lost = -ledger.net_mass(0);
    let ion_lost = -ledger.net_mass(1);
    let elc_energy = -ledger.net_energy(0);
    let ion_energy = -ledger.net_energy(1);
    println!("  wall losses: elc {elc_lost:.6e} particles / {elc_energy:.6e} energy");
    println!("               ion {ion_lost:.6e} particles / {ion_energy:.6e} energy");
    let balance = ledger.mass_balance_error();
    println!("  ledger mass balance error = {balance:.3e}");
    let phi = sheath_potential(&app);
    println!("  sheath potential (center − wall) = {phi:.4}  [T_e/e units]");

    // The bounded-domain conservation law: what the domain lost is what
    // the ledger integrated through the walls — at every size.
    assert!(
        balance < 1e-12,
        "wall-ledger mass balance violated: {balance:.3e}"
    );
    assert!(
        elc_lost > 0.0 && ion_lost > 0.0,
        "absorbing walls must drain both species"
    );

    if ranks >= 2 {
        // The identical declaration on one rank and one thread must match
        // the ranks × threads trajectory bit for bit, ledger included.
        let mut twin = build(nx, nv, length, 1, 1)?;
        let mut twin_ledger = WallFluxLedger::every(0.1);
        let mut twin_history = EnergyHistory::every(0.1);
        twin.run(t_end, &mut [&mut twin_ledger, &mut twin_history])?;
        for s in 0..2 {
            assert_eq!(
                app.state().species_f[s].as_slice(),
                twin.state().species_f[s].as_slice(),
                "species {s}: rank-parallel trajectory diverged from serial"
            );
        }
        assert_eq!(
            app.state().em.as_slice(),
            twin.state().em.as_slice(),
            "EM trajectory diverged from serial"
        );
        assert_eq!(
            ledger.samples, twin_ledger.samples,
            "wall ledgers diverged between decompositions"
        );
        println!("  rank-parallel ({ranks} ranks) bit-identical to serial ✓");
    }

    if full_fidelity {
        // Theory anchor: the floating-sheath potential of a Maxwellian
        // plasma is e φ/T_e = ln √(m_i / 2π m_e) ≈ 0.69 at this mass
        // ratio; the transient run should land in its neighbourhood.
        assert!(
            (0.3..2.0).contains(&phi),
            "sheath potential should confine electrons (got {phi:.3}, theory ≈ 0.69)"
        );
        assert!(
            elc_lost > ion_lost,
            "the net electron excess is what charges the sheath: elc {elc_lost:.3} vs ion {ion_lost:.3}"
        );
        // Confinement: once the potential stands, the electron loss rate
        // must fall well below the initial free-streaming rate.
        let rate = |l: &WallFluxLedger, a: usize, b: usize| {
            let (sa, sb) = (&l.samples[a], &l.samples[b]);
            -(sb.totals[0].net_mass() - sa.totals[0].net_mass()) / (sb.time - sa.time)
        };
        let n = ledger.samples.len();
        let early = rate(&ledger, 1, 3);
        let late = rate(&ledger, n - 3, n - 1);
        println!("  elc loss rate: early {early:.3e} → late {late:.3e}");
        assert!(
            late < 0.5 * early,
            "sheath should throttle electron losses: {early:.3e} → {late:.3e}"
        );
    } else {
        println!("  (shrunk run: skipping the sheath-physics assertions)");
    }
    vlasov_dg::util::emit_telemetry(&app, "sheath_1x1v")?;
    println!("sheath_1x1v OK");
    Ok(())
}
