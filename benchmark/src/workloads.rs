//! The four workloads: sizes, step/job counts, and the seeded inputs.
//!
//! `--seed` perturbs only coefficients (perturbation amplitudes and
//! phases, the ensemble's k-jitter), never sizes or counts, and the
//! program receives only the generated inputs. Every `App` is built with
//! `.telemetry(false)` so an ambient `DG_TELEMETRY=1` cannot change the
//! numbers; the traced run overrides it where it measures telemetry.

use crate::spec;
use dg_basis::BasisKind;
use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
use dg_core::species::maxwellian;
use dg_ensemble::{EnsembleConfig, JobParams, RetryPolicy, SetupFn, SweepSpec};
use dg_kernels::PhaseLayout;
use std::f64::consts::PI;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// About 1/50 of the work, every output check still armed.
    Smoke,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

/// splitmix64: the seeded coefficient source.
pub struct Rng(u64);

impl Rng {
    /// `tag` separates problems so two workloads never share a stream.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

type Ic = Box<dyn FnMut(&[f64], &[f64]) -> f64>;

/// One single-`App` problem: how to build it and how far the timed run
/// goes. Work is fixed by `steps`, never by a wall-time target.
pub struct Problem {
    pub layout: PhaseLayout,
    /// `Some` = `set_fixed_dt`; `None` = adaptive (`suggest_dt` every step).
    pub fixed_dt: Option<f64>,
    pub cfl: f64,
    pub t_end: f64,
    /// Exact number of steps `App::run(t_end)` must take.
    pub steps: usize,
    /// Steps per quiet-window (see `stats::quietest_window`): enough for
    /// a stable median and to hold every periodic cost (the IO workload's
    /// is ten sampling periods = 41 checkpoints), and well under a second,
    /// short against the interference episodes of a shared host.
    pub window: usize,
    /// Bound on the relative total-energy drift over the run.
    pub energy_drift_bound: f64,
    /// The IO path: history + CSV + checkpoints + mid-run restore, and the
    /// Landau-rate check.
    pub io: bool,
    pub builder: Box<dyn Fn() -> AppBuilder>,
    /// Species 0's initial condition, for timing `project_initial` alone.
    pub ic0: Box<dyn Fn() -> Ic>,
}

/// Exactly representable steps, so `steps × dt` lands on `t_end` with no
/// rounding sliver and the step count cannot depend on the seed.
const EOP_DT: f64 = 3.0 / 2048.0;
const COLL_DT: f64 = 3.0 / 512.0;

fn eop(seed: u64, scale: Scale) -> Problem {
    let (nx, nv, steps) = match scale {
        Scale::Full => (4, 6, 100),
        Scale::Smoke => (2, 4, 16),
    };
    let mut rng = Rng::new(seed, 1);
    let amp = 0.05 * rng.range(0.8, 1.2);
    let (ph0, ph1) = (rng.range(0.0, 2.0 * PI), rng.range(0.0, 2.0 * PI));
    let ic = move || -> Ic {
        Box::new(move |x, v| {
            let n = 1.0
                + amp * (2.0 * PI * x[0] + ph0).cos()
                + 0.5 * amp * (2.0 * PI * x[1] + ph1).cos();
            maxwellian(n, &[0.0; 3], 1.0, v)
        })
    };
    Problem {
        layout: PhaseLayout::new(2, 3),
        fixed_dt: Some(EOP_DT),
        cfl: 0.9,
        t_end: steps as f64 * EOP_DT,
        steps,
        window: 10,
        energy_drift_bound: 1e-6,
        io: false,
        builder: Box::new(move || {
            AppBuilder::new()
                .conf_grid(&[0.0, 0.0], &[1.0, 1.0], &[nx, nx])
                .poly_order(2)
                .basis(BasisKind::Serendipity)
                .telemetry(false)
                .species(
                    SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0; 3], &[6.0; 3], &[nv, nv, nv])
                        .initial(ic()),
                )
                .field(FieldSpec::new(1.0))
        }),
        ic0: Box::new(ic),
    }
}

fn coll(seed: u64, scale: Scale) -> Problem {
    let (nx, nv, steps) = match scale {
        Scale::Full => (16, 24, 200),
        Scale::Smoke => (8, 12, 16),
    };
    let mut rng = Rng::new(seed, 2);
    let k = 0.5;
    let length = 2.0 * PI / k;
    let amp = 0.05 * rng.range(0.8, 1.2);
    let phase = rng.range(0.0, 2.0 * PI);
    let drift = rng.range(-0.1, 0.1);
    let ic = move || -> Ic {
        Box::new(move |x, v| {
            maxwellian(1.0 + amp * (k * x[0] + phase).cos(), &[drift, 0.0], 1.0, v)
        })
    };
    Problem {
        layout: PhaseLayout::new(1, 2),
        fixed_dt: Some(COLL_DT),
        cfl: 0.9,
        t_end: steps as f64 * COLL_DT,
        steps,
        window: 10,
        energy_drift_bound: 1e-4,
        io: false,
        builder: Box::new(move || {
            // Both species share one velocity grid, as AppBuilder requires.
            AppBuilder::new()
                .conf_grid(&[0.0], &[length], &[nx])
                .poly_order(2)
                .basis(BasisKind::Serendipity)
                .telemetry(false)
                .species(
                    SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0; 2], &[6.0; 2], &[nv, nv])
                        .initial(ic())
                        .collisions(0.05),
                )
                .species(
                    SpeciesSpec::new("ion", 1.0, 25.0, &[-6.0; 2], &[6.0; 2], &[nv, nv])
                        .initial(|_x, v| maxwellian(1.0, &[0.0; 2], 1.0, v))
                        .collisions(0.01),
                )
                .field(FieldSpec::new(5.0).with_poisson_init())
        }),
        ic0: Box::new(ic),
    }
}

/// Landau damping at `k λ_D = 0.5`; the linear rate is −0.1533.
pub const LANDAU_K: f64 = 0.5;
pub const LANDAU_RATE: f64 = -0.1533;
/// Sampling period of the energy history and the streaming CSV.
pub const LANDAU_SAMPLE: f64 = 0.05;
pub const LANDAU_CKPT_STEPS: usize = 10;

fn landau(seed: u64, scale: Scale) -> Problem {
    // Steps land on every multiple of LANDAU_SAMPLE (EveryTime clamps
    // them), so the count is (steps per period) × periods — fixed unless
    // dt moves by ~1 %, and the seeded amplitude moves it by ~1e-5.
    let (nx, nv, steps) = match scale {
        Scale::Full => (64, 64, 4921),
        Scale::Smoke => (16, 32, 1321),
    };
    let mut rng = Rng::new(seed, 3);
    let amp = 1e-4 * rng.range(0.75, 1.25);
    let phase = rng.range(0.0, 2.0 * PI);
    let length = 2.0 * PI / LANDAU_K;
    let ic = move || -> Ic {
        Box::new(move |x, v| {
            maxwellian(1.0 + amp * (LANDAU_K * x[0] + phase).cos(), &[0.0], 1.0, v)
        })
    };
    Problem {
        layout: PhaseLayout::new(1, 1),
        fixed_dt: None,
        cfl: 0.5,
        t_end: 6.0,
        steps,
        window: 410,
        energy_drift_bound: 1e-9,
        io: true,
        builder: Box::new(move || {
            AppBuilder::new()
                .conf_grid(&[0.0], &[length], &[nx])
                .poly_order(2)
                .basis(BasisKind::Serendipity)
                .telemetry(false)
                .cfl(0.5)
                .species(SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[nv]).initial(ic()))
                .field(FieldSpec::new(10.0).with_poisson_init())
        }),
        ic0: Box::new(ic),
    }
}

/// The single-`App` problem of a workload. For the ensemble workload this
/// is one representative job (k = 0.45), which the traced run uses to
/// measure the layers at that job's size.
pub fn problem(workload: &str, seed: u64, scale: Scale) -> Problem {
    match workload {
        spec::EOP => eop(seed, scale),
        spec::COLL => coll(seed, scale),
        spec::LANDAU_IO => landau(seed, scale),
        spec::ENSEMBLE => {
            let params = JobParams::new().with("k", 0.45).with("phase", 0.0);
            let setup = ensemble_setup();
            let ic = || -> Ic {
                Box::new(|x, v| maxwellian(1.0 + ENS_AMP * (0.45 * x[0]).cos(), &[0.0], 1.0, v))
            };
            Problem {
                layout: PhaseLayout::new(1, 1),
                fixed_dt: None,
                cfl: ENS_CFL,
                t_end: ENS_T_END,
                steps: 0,
                window: 10,
                energy_drift_bound: 1e-9,
                io: false,
                builder: Box::new(move || {
                    setup(&params).expect("ensemble setup recipe").cfl(ENS_CFL)
                }),
                ic0: Box::new(ic),
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

pub const ENS_CFL: f64 = 0.5;
pub const ENS_T_END: f64 = 3.0;
pub const ENS_SAMPLE: f64 = 0.1;
pub const ENS_WORKERS: usize = 2;
/// Jobs per quiet-window of the ensemble workload.
pub const ENS_WINDOW_JOBS: usize = 64;
const ENS_AMP: f64 = 1e-4;
const ENS_NX: usize = 8;
const ENS_NV: usize = 16;
/// Kinetic DOF of one ensemble job (8 × 16 cells × Np = 8).
pub const ENS_JOB_DOF: usize = ENS_NX * ENS_NV * 8;

pub fn ensemble_jobs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 512,
        Scale::Smoke => 8,
    }
}

/// The recipe every ensemble job is built from (params → builder).
pub fn ensemble_setup() -> Arc<SetupFn> {
    Arc::new(|p| {
        let k = p.get("k")?;
        let phase = p.get("phase")?;
        let length = 2.0 * PI / k;
        Ok(AppBuilder::new()
            .conf_grid(&[0.0], &[length], &[ENS_NX])
            .poly_order(2)
            .basis(BasisKind::Serendipity)
            .telemetry(false)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[ENS_NV]).initial(
                    move |x, v| {
                        maxwellian(1.0 + ENS_AMP * (k * x[0] + phase).cos(), &[0.0], 1.0, v)
                    },
                ),
            )
            .field(FieldSpec::new(10.0).with_poisson_init()))
    })
}

/// `jobs` Landau jobs with k swept over [0.3, 0.6]; the seed jitters each
/// k inside its grid cell, orders the jobs, and draws the sweep's
/// perturbation phase.
pub fn ensemble_sweep(seed: u64, jobs: usize) -> SweepSpec {
    let mut rng = Rng::new(seed, 5);
    let dk = 0.3 / jobs as f64;
    let mut ks: Vec<f64> = (0..jobs)
        .map(|i| 0.3 + dk * (i as f64 + rng.range(0.25, 0.75)))
        .collect();
    // Cost per job falls with k; a seeded shuffle gives every window of
    // consecutive jobs the same mix.
    for i in (1..jobs).rev() {
        ks.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    SweepSpec::new("landau", ensemble_setup())
        .axis("k", &ks)
        .base_param("phase", rng.range(0.0, 2.0 * PI))
        .cfl(ENS_CFL)
        .t_end(ENS_T_END)
        .retry(RetryPolicy::none())
}

/// Names of the per-job summary columns of [`ensemble_config`].
pub const ENS_COLUMNS: [&str; 2] = ["efin", "emax"];

/// Summary of one job's sampled field-energy series.
pub fn ensemble_summary(field_energy: &[f64]) -> Vec<f64> {
    vec![
        field_energy.last().copied().unwrap_or(f64::NAN),
        field_energy.iter().copied().fold(0.0, f64::max),
    ]
}

pub fn ensemble_config(out_dir: &std::path::Path, workers: usize) -> EnsembleConfig {
    EnsembleConfig::new()
        .workers(workers)
        .out_dir(out_dir)
        .sample_every(ENS_SAMPLE)
        .checkpoint_every_steps(50)
        .summarize(&ENS_COLUMNS, |o| ensemble_summary(o.field_energy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_coefficients_not_sizes_or_counts() {
        for w in [spec::EOP, spec::COLL, spec::LANDAU_IO] {
            let (a, b) = (problem(w, 1, Scale::Full), problem(w, 2, Scale::Full));
            assert_eq!(
                (a.steps, a.t_end, a.fixed_dt),
                (b.steps, b.t_end, b.fixed_dt)
            );
            // Every driver run makes at least two repeats of a workload.
            assert!(2 * a.steps >= 200, "{w} takes {} steps", a.steps);
            let (x, v) = ([0.3, 0.7], [0.1, -0.2, 0.3]);
            let (nx, nv) = if w == spec::EOP {
                (2, 3)
            } else {
                (1, if w == spec::LANDAU_IO { 1 } else { 2 })
            };
            assert_ne!(
                (a.ic0)()(&x[..nx], &v[..nv]),
                (b.ic0)()(&x[..nx], &v[..nv]),
                "{w}"
            );
        }
        assert_eq!(ensemble_sweep(1, 16).len(), ensemble_sweep(2, 16).len());
        assert!(ensemble_jobs(Scale::Full) >= 200);
    }

    #[test]
    fn fixed_dt_steps_sum_to_t_end_exactly() {
        for w in [spec::EOP, spec::COLL] {
            let p = problem(w, 0, Scale::Full);
            let dt = p.fixed_dt.unwrap();
            let mut t = 0.0;
            for _ in 0..p.steps {
                t += dt;
            }
            assert_eq!(t, p.t_end, "{w}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(42, 3), Rng::new(42, 3));
        assert_eq!(a.next_u64(), b.next_u64());
        let u = a.unit();
        assert!((0.0..1.0).contains(&u));
        assert_ne!(Rng::new(42, 3).next_u64(), Rng::new(43, 3).next_u64());
    }
}
