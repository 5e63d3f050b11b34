//! One repeat of one workload, run in a fresh process of this binary.
//!
//! The child builds the workload (timed: `setup_s`), runs its fixed step
//! or job count under `App::run` / `Ensemble::run` (timed), checks the
//! outputs, and prints one `@`-prefixed line per number for the parent.

use crate::checks::{
    energy_drift, kinetic_dof, mass_drift, peak_rss_mib, state_hash, state_is_finite, Fnv,
};
use crate::spec;
use crate::stats::{highest_supported_tail, percentile, quietest_window, sorted, Op, Quiet};
use crate::workloads::{self as wl, Problem, Scale};
use dg_core::app::App;
use dg_core::observer::{observe, Frame, Observer, Trigger};
use dg_core::Error;
use dg_diag::fit::{envelope_peaks, growth_rate};
use dg_diag::{snapshot, Checkpoint, CsvSeries, EnergyHistory};
use dg_ensemble::Ensemble;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one repeat measured. Times in the units of the metric names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Repeat {
    pub setup_s: f64,
    pub dof_per_s: f64,
    pub step_ms_p50: f64,
    pub jobs_per_s: f64,
    pub peak_rss_mb: f64,
    /// Tail of the whole repeat's per-step times and the samples behind
    /// it: printed and fed to the traced run, not an end-to-end metric.
    pub step_ms_p95: f64,
    pub samples: usize,
    /// Steps, or jobs in the ensemble workload.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Final-state fingerprint (ensemble: of every job's summary row).
    pub hash: u64,
    /// Conservation drifts, fitted rate, … — printed, never scored.
    pub checks: Vec<(String, f64)>,
    pub failures: Vec<String>,
}

impl Repeat {
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            spec::SETUP_S => self.setup_s,
            spec::DOF_PER_S => self.dof_per_s,
            spec::STEP_MS_P50 => self.step_ms_p50,
            spec::JOBS_PER_S => self.jobs_per_s,
            spec::PEAK_RSS_MB => self.peak_rss_mb,
            other => panic!("no end-to-end metric {other:?}"),
        }
    }

    fn set_metric(&mut self, name: &str, v: f64) -> bool {
        let slot = match name {
            spec::SETUP_S => &mut self.setup_s,
            spec::DOF_PER_S => &mut self.dof_per_s,
            spec::STEP_MS_P50 => &mut self.step_ms_p50,
            spec::JOBS_PER_S => &mut self.jobs_per_s,
            spec::PEAK_RSS_MB => &mut self.peak_rss_mb,
            _ => return false,
        };
        *slot = v;
        true
    }

    fn check(&mut self, name: &str, value: f64, ok: bool, want: &str) {
        self.checks.push((name.to_string(), value));
        if !ok {
            self.ops_failed += 1;
            self.failures
                .push(format!("{name} = {value:e}, want {want}"));
        }
    }

    fn fail(&mut self, what: String) {
        self.ops_failed += 1;
        self.failures.push(what);
    }

    /// The wire form the parent parses back with [`Repeat::parse`].
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for m in spec::END_TO_END {
            out.push_str(&format!("@m {} {:e}\n", m.name, self.metric(m.name)));
        }
        out.push_str(&format!("@p95 {:e} {}\n", self.step_ms_p95, self.samples));
        out.push_str(&format!(
            "@ops {} {}\n",
            self.ops_attempted, self.ops_failed
        ));
        out.push_str(&format!("@hash {:016x}\n", self.hash));
        for (k, v) in &self.checks {
            out.push_str(&format!("@c {k} {v:e}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("@fail {}\n", f.replace('\n', " ")));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Repeat, String> {
        let mut r = Repeat::default();
        let mut saw_ops = false;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix('@') else {
                continue;
            };
            let mut it = rest.split_whitespace();
            let bad = || format!("malformed child line {line:?}");
            let f = |s: Option<&str>| s.and_then(|s| s.parse::<f64>().ok()).ok_or_else(bad);
            match it.next() {
                Some("m") => {
                    let name = it.next().ok_or_else(bad)?;
                    if !r.set_metric(name, f(it.next())?) {
                        return Err(bad());
                    }
                }
                Some("c") => {
                    let name = it.next().ok_or_else(bad)?.to_string();
                    r.checks.push((name, f(it.next())?));
                }
                Some("p95") => {
                    r.step_ms_p95 = f(it.next())?;
                    r.samples = f(it.next())? as usize;
                }
                Some("ops") => {
                    r.ops_attempted = f(it.next())? as u64;
                    r.ops_failed = f(it.next())? as u64;
                    saw_ops = true;
                }
                Some("hash") => {
                    r.hash = it
                        .next()
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .ok_or_else(bad)?;
                }
                Some("fail") => r.failures.push(it.collect::<Vec<_>>().join(" ")),
                _ => return Err(bad()),
            }
        }
        if saw_ops {
            Ok(r)
        } else {
            Err("child printed no @ops line".to_string())
        }
    }
}

/// A scratch directory under the benchmark's `out/`, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(out_root: &Path, tag: &str) -> std::io::Result<ScratchDir> {
        let dir = out_root.join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The repeat's timing numbers from its operations in completion order,
/// `segments` being stretches with no gap between them (the IO workload
/// has two, split by its restart). Throughput and the median come from
/// the quietest window, a job being `work_per_job` units of work; the
/// tail is taken over the whole repeat — p95 when ten samples lie beyond
/// it, else (smoke runs) the highest percentile that still has ten, else
/// the median.
fn fill_timings(
    r: &mut Repeat,
    segments: &[Vec<Op>],
    window: usize,
    dof_per_work: f64,
    work_per_job: f64,
) {
    let quiet = segments
        .iter()
        .filter_map(|seg| quietest_window(seg, window))
        .reduce(Quiet::best);
    let Some(quiet) = quiet else {
        r.fail("no operation was timed".to_string());
        return;
    };
    r.dof_per_s = quiet.work_per_s * dof_per_work;
    r.step_ms_p50 = quiet.p50_ms;
    r.jobs_per_s = quiet.work_per_s / work_per_job;
    let all = sorted(segments.iter().flatten().map(|o| o.ms_per_work).collect());
    r.samples = all.len();
    let tail = highest_supported_tail(all.len()).map_or(0.5, |q| q.min(0.95));
    r.step_ms_p95 = percentile(&all, tail);
}

/// Build the problem's `App`: what `setup_s` times.
pub fn build_app(p: &Problem) -> Result<App, Error> {
    let mut app = (p.builder)().build()?;
    if let Some(dt) = p.fixed_dt {
        app.set_fixed_dt(dt);
    }
    Ok(app)
}

/// Timestamp observer: fires after every step, last in the list, so the
/// gap between two firings is one whole step of `App::run` — stepper,
/// blow-up guard, dt selection and every other observer.
fn stamp_observer(stamps: &mut Vec<Instant>) -> impl Observer + '_ {
    observe(Trigger::EverySteps(1), move |_| {
        stamps.push(Instant::now());
        Ok(())
    })
    .named("bench-stamp")
}

pub fn energy_row(fr: &Frame<'_>) -> Vec<f64> {
    vec![fr.time, fr.field_energy()]
}

/// One op per gap between consecutive firings, on `t0`'s clock.
fn steps_between(stamps: &[Instant], t0: Instant) -> Vec<Op> {
    stamps
        .windows(2)
        .map(|w| {
            Op::step(
                w[0].duration_since(t0).as_secs_f64(),
                w[1].duration_since(t0).as_secs_f64(),
            )
        })
        .collect()
}

fn run_single(p: &Problem, scratch: &Path, setup_only: bool) -> Repeat {
    let mut r = Repeat::default();
    let t0 = Instant::now();
    let mut app = match build_app(p) {
        Ok(app) => app,
        Err(e) => {
            r.ops_attempted = 1;
            r.fail(format!("build failed: {e}"));
            return r;
        }
    };
    r.setup_s = t0.elapsed().as_secs_f64();
    if setup_only {
        r.ops_attempted = 1;
        return r;
    }
    r.ops_attempted = p.steps as u64;
    let dof = kinetic_dof(app.state());
    let q0 = app.conserved();
    let mut segments = Vec::new();

    let t_run = Instant::now();
    let outcome = if p.io {
        run_io_path(p, &mut app, scratch, &mut segments, &mut r)
    } else {
        let mut stamps = Vec::with_capacity(p.steps + 1);
        let res = app.run(p.t_end, &mut [&mut stamp_observer(&mut stamps)]);
        segments.push(steps_between(&stamps, t_run));
        res
    };

    if let Err(e) = outcome {
        r.fail(format!("run stopped at step {}: {e}", app.steps_taken()));
    }
    let steps = app.steps_taken();
    if steps != p.steps {
        // Unfinished steps are failed ops; a surplus is a harness bug.
        r.ops_failed += (p.steps.saturating_sub(steps)).max(1) as u64;
        r.failures
            .push(format!("took {steps} steps, workload fixes {}", p.steps));
    }
    // A "job" of a single-run workload is the run itself.
    fill_timings(
        &mut r,
        &segments,
        p.window,
        (dof * 3) as f64,
        p.steps as f64,
    );

    let q1 = app.conserved();
    let md = mass_drift(&q0, &q1);
    r.check("mass_drift", md, md <= 1e-12, "<= 1e-12");
    let ed = energy_drift(&q0, &q1);
    r.check(
        "energy_drift",
        ed,
        ed <= p.energy_drift_bound,
        &format!("<= {:e}", p.energy_drift_bound),
    );
    if !state_is_finite(app.state()) {
        r.fail("final state not finite".to_string());
    }
    r.hash = state_hash(app.state());
    r.peak_rss_mb = peak_rss_mib().unwrap_or(f64::NAN);
    r
}

/// `landau_1x1v_io`: history + streaming CSV + checkpoint every 10 steps,
/// and at the midpoint a restart from the latest checkpoint on a fresh
/// `App` — writes beside reads. `app` ends as the restarted one.
fn run_io_path(
    p: &Problem,
    app: &mut App,
    scratch: &Path,
    segments: &mut Vec<Vec<Op>>,
    r: &mut Repeat,
) -> Result<(), Error> {
    let t0 = Instant::now();
    let mut history = EnergyHistory::every(wl::LANDAU_SAMPLE);
    let mut ckpt = Checkpoint::new(scratch, "ckpt", Trigger::EverySteps(wl::LANDAU_CKPT_STEPS));
    // One `App::run` under the full observer set; returns the hash of the
    // state it ended on.
    let mut run_segment = |app: &mut App, until: f64, csv_name: &str| -> Result<u64, Error> {
        let mut stamps = Vec::with_capacity(p.steps + 1);
        let mut end_hash = 0u64;
        let mut csv = CsvSeries::create(
            scratch.join(csv_name),
            Trigger::EveryTime(wl::LANDAU_SAMPLE),
            &["t", "field_energy"],
            energy_row,
        )?;
        {
            let mut at_end = observe(Trigger::AtEnd, |fr| {
                end_hash = state_hash(fr.state);
                Ok(())
            });
            app.run(
                until,
                &mut [
                    &mut history,
                    &mut csv,
                    &mut ckpt,
                    &mut at_end,
                    &mut stamp_observer(&mut stamps),
                ],
            )?;
        }
        csv.finish()?;
        segments.push(steps_between(&stamps, t0));
        Ok(end_hash)
    };

    let mid_hash = run_segment(app, 0.5 * p.t_end, "series_a.csv")?;

    // Restart: latest checkpoint on disk → fresh App → restore.
    let steps_mid = app.steps_taken();
    let (path, ckpt_steps) = snapshot::latest_checkpoint(scratch, "ckpt")
        .ok_or_else(|| Error::Build("no checkpoint on disk at the midpoint".into()))?;
    let (state, time) = snapshot::load(&path)?;
    if ckpt_steps != steps_mid {
        r.fail(format!(
            "latest checkpoint is step {ckpt_steps}, first segment ended at step {steps_mid}"
        ));
    }
    let restored_hash = state_hash(&state);
    r.check(
        "restored_hash_matches",
        f64::from(restored_hash == mid_hash),
        restored_hash == mid_hash,
        "1 (restored state bit-equal to the checkpointed step)",
    );
    let mut fresh = build_app(p)?;
    fresh.restore(state, time)?;
    fresh.set_steps_taken(ckpt_steps);
    *app = fresh;

    run_segment(app, p.t_end, "series_b.csv")?;

    // The second segment re-samples the midpoint at its start; skip the
    // repeat before looking for envelope peaks.
    let (mut times, mut energy) = (Vec::new(), Vec::new());
    for s in &history.samples {
        if times.last().is_none_or(|&t| s.time > t) {
            times.push(s.time);
            energy.push(s.field_energy);
        }
    }
    let (peak_t, peak_e) = envelope_peaks(&times, &energy);
    let gamma = growth_rate(&peak_t, &peak_e, 1.0, 0.9 * p.t_end);
    r.check(
        "landau_rate",
        gamma,
        (gamma - wl::LANDAU_RATE).abs() <= 0.02,
        "within 0.02 of -0.1533",
    );
    r.checks
        .push(("checkpoints_written".to_string(), ckpt.written.len() as f64));
    Ok(())
}

fn run_ensemble(seed: u64, scale: Scale, scratch: &Path, setup_only: bool) -> Repeat {
    let mut r = Repeat::default();
    let jobs = wl::ensemble_jobs(scale);
    r.ops_attempted = jobs as u64;
    let sweep = wl::ensemble_sweep(seed, jobs);

    let t0 = Instant::now();
    let out_dir = scratch.join("ensemble");
    let built = std::fs::create_dir_all(&out_dir)
        .map_err(Error::from)
        .and_then(|()| Ensemble::new(wl::ensemble_config(&out_dir, wl::ENS_WORKERS)))
        .and_then(|mut e| e.submit_sweep(&sweep).map(|_| e));
    let mut ensemble = match built {
        Ok(e) => e,
        Err(e) => {
            r.fail(format!("ensemble set-up failed: {e}"));
            return r;
        }
    };
    if setup_only {
        // The first job's App is what stands between submission and the
        // first runnable step. Only set-up probes build it here: a timed
        // run leaves it — and the cold kernel tables — to the workers.
        let recipe = wl::ensemble_setup();
        let job0 = &sweep.jobs().expect("sweep expands")[0];
        if let Err(e) = recipe(job0.params()).and_then(|b| b.cfl(wl::ENS_CFL).build()) {
            r.fail(format!("first job build failed: {e}"));
        }
        r.setup_s = t0.elapsed().as_secs_f64();
        return r;
    }
    r.setup_s = t0.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let report = match ensemble.run() {
        Ok(rep) => rep,
        Err(e) => {
            r.fail(format!("Ensemble::run failed: {e}"));
            return r;
        }
    };
    let wall = t_run.elapsed().as_secs_f64();

    let counts = report.counts();
    if counts != (jobs, 0, 0) {
        r.ops_failed += (jobs - counts.0.min(jobs)) as u64;
        r.failures
            .push(format!("report.counts() = {counts:?}, want ({jobs}, 0, 0)"));
    }
    let total_steps: usize = report.jobs.iter().map(|j| j.steps).sum();
    // Jobs in completion order (each ran from its dequeue for `run_s`);
    // an op is the interval since the previous completion, so with two
    // workers the intervals tile the run instead of overlapping.
    let mut done: Vec<(f64, f64, f64)> = report
        .done()
        .filter(|j| j.steps > 0)
        .map(|j| {
            (
                j.timing.queue_wait_s + j.timing.run_s,
                j.steps as f64,
                j.timing.run_s,
            )
        })
        .collect();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut prev_end = 0.0;
    let ops: Vec<Op> = done
        .iter()
        .map(|&(end_s, work, run_s)| {
            let op = Op {
                start_s: prev_end,
                end_s,
                work,
                ms_per_work: run_s * 1e3 / work,
            };
            prev_end = end_s;
            op
        })
        .collect();
    let dof_per_step = (wl::ENS_JOB_DOF * 3) as f64;
    // A job of average size, so the rate does not depend on which jobs
    // the quietest window happened to hold.
    let steps_per_job = total_steps as f64 / counts.0.max(1) as f64;
    fill_timings(
        &mut r,
        &[ops],
        wl::ENS_WINDOW_JOBS,
        dof_per_step,
        steps_per_job,
    );
    // Per-job latencies flip between two populations when one of the two
    // cores is disturbed, so the ensemble's step time is the quietest
    // window's worker-milliseconds per step: queue gaps, per-job build
    // and artifact IO included. (The per-job tail stays in `@p95`.)
    r.step_ms_p50 = wl::ENS_WORKERS as f64 * 1e3 * dof_per_step / r.dof_per_s;
    r.checks
        .push(("whole_run_jobs_per_s".to_string(), counts.0 as f64 / wall));
    r.checks
        .push(("total_steps".to_string(), total_steps as f64));
    r.checks.push((
        "retries".to_string(),
        report.jobs.iter().map(|j| j.retries).sum::<usize>() as f64,
    ));

    let mut h = Fnv::default();
    for j in &report.jobs {
        h.write_u64(j.steps as u64);
        h.write_f64(j.time);
        j.summary.iter().for_each(|&v| h.write_f64(v));
    }
    r.hash = h.finish();

    // Four sampled jobs against a bare App::run of the same spec.
    let specs = sweep.jobs().expect("sweep expands");
    let setup = wl::ensemble_setup();
    let mut equal = 0;
    for i in [0, jobs / 3, 2 * jobs / 3, jobs - 1] {
        match bare_job(&*setup, specs[i].params()) {
            Ok((steps, time, summary)) => {
                let rec = &report.jobs[i];
                let same = rec.steps == steps
                    && rec.time.to_bits() == time.to_bits()
                    && rec.summary.len() == summary.len()
                    && rec
                        .summary
                        .iter()
                        .zip(&summary)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                equal += usize::from(same);
            }
            Err(e) => r.failures.push(format!("bare twin of job {i}: {e}")),
        }
    }
    r.check(
        "bare_twin_jobs_bit_equal",
        equal as f64,
        equal == 4,
        "4 of 4 sampled jobs",
    );
    r.peak_rss_mb = peak_rss_mib().unwrap_or(f64::NAN);
    r
}

/// One ensemble job as a plain `App::run`: `(steps, time, summary)`.
pub fn bare_job(
    setup: &dg_ensemble::SetupFn,
    params: &dg_ensemble::JobParams,
) -> Result<(usize, f64, Vec<f64>), Error> {
    let mut app = setup(params)?.cfl(wl::ENS_CFL).build()?;
    let mut field = Vec::new();
    // Same filter as the ensemble's series: on-grid samples, no repeats.
    let mut last_t = f64::NEG_INFINITY;
    let mut sampler = observe(Trigger::EveryTime(wl::ENS_SAMPLE), |fr| {
        if fr.time > last_t {
            last_t = fr.time;
            field.push(fr.field_energy());
        }
        Ok(())
    });
    app.run(wl::ENS_T_END, &mut [&mut sampler])?;
    Ok((app.steps_taken(), app.time(), wl::ensemble_summary(&field)))
}

/// Entry point of `-- child`: run one repeat and print it.
pub fn run_child(
    workload: &str,
    seed: u64,
    scale: Scale,
    setup_only: bool,
    out_root: &Path,
) -> Result<(), String> {
    let scratch = ScratchDir::new(out_root, workload).map_err(|e| {
        format!(
            "cannot create scratch dir under {}: {e}",
            out_root.display()
        )
    })?;
    let r = if workload == spec::ENSEMBLE {
        run_ensemble(seed, scale, &scratch.0, setup_only)
    } else {
        run_single(&wl::problem(workload, seed, scale), &scratch.0, setup_only)
    };
    print!("{}", r.to_lines());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_form_round_trips() {
        let r = Repeat {
            setup_s: 2.4,
            dof_per_s: 1.28e7,
            step_ms_p50: 63.25,
            jobs_per_s: 0.05,
            step_ms_p95: 79.5,
            peak_rss_mb: 41.5,
            samples: 200,
            ops_attempted: 200,
            ops_failed: 1,
            hash: 0xdead_beef_0123_4567,
            checks: vec![("mass_drift".into(), 3e-13), ("landau_rate".into(), -0.157)],
            failures: vec!["energy_drift = 1e-2, want <= 1e-4".into()],
        };
        assert_eq!(Repeat::parse(&r.to_lines()).unwrap(), r);
        assert!(Repeat::parse("noise\n").is_err());
        assert!(Repeat::parse("@m nonsense 1\n@ops 1 0\n").is_err());
    }

    fn steps(ms: impl Iterator<Item = f64>) -> Vec<Op> {
        let mut t = 0.0;
        ms.map(|d| {
            let op = Op::step(t, t + d * 1e-3);
            t = op.end_s;
            op
        })
        .collect()
    }

    #[test]
    fn timings_come_from_the_quietest_window_and_the_whole_run_tail() {
        let mut r = Repeat::default();
        // 200 steps: 1..=200 ms. Window 25: the first window is quietest.
        let seg = steps((1..=200).map(f64::from));
        fill_timings(&mut r, &[seg], 25, 10.0, 200.0);
        assert_eq!(r.samples, 200);
        assert!((r.step_ms_p50 - 13.0).abs() < 1e-9);
        assert!((r.step_ms_p95 - 190.0).abs() < 1e-9);
        let window_s = (1..=25).sum::<i32>() as f64 * 1e-3;
        assert!((r.dof_per_s - 25.0 * 10.0 / window_s).abs() < 1e-6);
        assert!((r.jobs_per_s - 25.0 / window_s / 200.0).abs() < 1e-9);
        // 50 samples: p95 would leave 2 beyond it; p75 leaves 12.
        fill_timings(&mut r, &[steps((1..=50).map(f64::from))], 25, 1.0, 1.0);
        assert!((r.step_ms_p95 - 38.0).abs() < 1e-9);
        // 15 samples: no tail has ten beyond it, so the median stands in.
        fill_timings(&mut r, &[steps((1..=15).map(f64::from))], 25, 1.0, 1.0);
        assert!((r.step_ms_p95 - 8.0).abs() < 1e-9);
        // Two segments: windows never straddle the gap; the best one wins.
        let (a, b) = (steps([9.0; 30].into_iter()), steps([7.0; 30].into_iter()));
        fill_timings(&mut r, &[a, b], 25, 1.0, 1.0);
        assert!((r.step_ms_p50 - 7.0).abs() < 1e-9);
        assert_eq!(r.ops_failed, 0);
        fill_timings(&mut r, &[], 25, 1.0, 1.0);
        assert_eq!(r.ops_failed, 1);
    }
}
