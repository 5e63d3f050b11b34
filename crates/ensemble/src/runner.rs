//! The per-job driver: build → (maybe resume) → run → summarize, with
//! the blow-up retry loop and all per-job persistence.
//!
//! ## Per-job directory convention
//!
//! With an `out_dir` configured, job `name` owns `out_dir/name/`:
//!
//! | file              | contents                                        |
//! |-------------------|-------------------------------------------------|
//! | `series.csv`      | streamed energy series on the sample grid       |
//! | `ckpt_NNNNNN.vdg` | step-stamped checkpoints (atomic temp+rename)   |
//! | `attempt`         | 0-based retry attempt the artifacts belong to   |
//! | `summary.csv`     | the persisted summary row; its presence = Done  |
//!
//! ## Resume semantics
//!
//! A re-run job first looks for `summary.csv` — if present, the job is
//! loaded as `Done` without building an `App`. Otherwise the latest
//! checkpoint (under the `attempt` file's stepping scale) restores the
//! state bit-exactly, `series.csv` is truncated back to the checkpoint
//! clock (dropping rows written after it, torn tails included) and
//! re-opened in append mode, and the run continues on the same absolute
//! sampling grid — so an interrupted job finishes byte-identical to an
//! uninterrupted one (asserted in `tests/ensemble.rs`).
//!
//! ## Retry semantics
//!
//! `Error::BlowUp` with retry budget left wipes the job's checkpoints
//! and series (they belong to the diverged attempt), bumps `attempt`,
//! and rebuilds with the spec's stepping knob scaled by
//! `dt_factor^attempt`. Any other error — and a blow-up at the budget —
//! is terminal `Failed`.

use crate::report::{JobRecord, JobStatus, JobTiming};
use crate::scheduler::{CancelToken, EnsembleConfig, JobOutputs};
use crate::spec::JobSpec;
use dg_core::error::Error;
use dg_core::observer::{observe, Frame, Observer, Trigger};
use dg_diag::csv::CsvWriter;
use dg_diag::snapshot::{self, Checkpoint};
use dg_telemetry::{now_ns, write_atomic, Counter};
use std::io::Write;
use std::path::Path;

pub(crate) const SERIES_FILE: &str = "series.csv";
pub(crate) const SUMMARY_FILE: &str = "summary.csv";
pub(crate) const ATTEMPT_FILE: &str = "attempt";
pub(crate) const CKPT_STEM: &str = "ckpt";
pub(crate) const TELEMETRY_FILE: &str = "telemetry.json";
const SERIES_HEADER: [&str; 3] = ["t", "field_energy", "particle_energy"];

/// Drive one job to a terminal state. Never panics on job failure —
/// every error becomes a `Failed` record so sibling jobs keep running.
/// `queue_wait_s` is how long the job sat queued before its worker
/// dequeued it (measured by the scheduler).
pub(crate) fn run_job(
    cfg: &EnsembleConfig,
    spec: &JobSpec,
    id: usize,
    token: &CancelToken,
    queue_wait_s: f64,
) -> JobRecord {
    let t0 = now_ns();
    let outcome = drive(cfg, spec, token, queue_wait_s, t0);
    let run_s = now_ns().saturating_sub(t0) as f64 * 1e-9;
    let (status, steps, time, retries, summary, timing) = match outcome {
        // A job loaded from its persisted summary keeps the timing of the
        // run that actually produced it; a freshly finished one was
        // stamped by `run_attempt` just before `write_summary`.
        Outcome::Done(d) => (
            JobStatus::Done,
            d.steps,
            d.time,
            d.retries,
            d.summary,
            d.timing,
        ),
        Outcome::Cancelled {
            steps,
            time,
            retries,
        } => (
            JobStatus::Cancelled,
            steps,
            time,
            retries,
            Vec::new(),
            JobTiming {
                queue_wait_s,
                run_s,
                attempts: retries + 1,
            },
        ),
        Outcome::Failed { error, retries } => (
            JobStatus::Failed(error),
            0,
            0.0,
            retries,
            Vec::new(),
            JobTiming {
                queue_wait_s,
                run_s,
                attempts: retries + 1,
            },
        ),
    };
    JobRecord {
        id,
        name: spec.name().to_string(),
        params: spec.params().clone(),
        status,
        steps,
        time,
        retries,
        summary,
        timing,
    }
}

enum Outcome {
    Done(DoneSummary),
    Cancelled {
        steps: usize,
        time: f64,
        retries: usize,
    },
    Failed {
        error: Error,
        retries: usize,
    },
}

/// What `summary.csv` persists (everything a `Done` record needs beyond
/// the spec itself). The timing columns are wall-clock and therefore the
/// only part of the file that is *not* bit-comparable across runs; the
/// bit-exactness tests compare the deterministic columns.
struct DoneSummary {
    steps: usize,
    time: f64,
    retries: usize,
    summary: Vec<f64>,
    timing: JobTiming,
}

fn drive(
    cfg: &EnsembleConfig,
    spec: &JobSpec,
    token: &CancelToken,
    queue_wait_s: f64,
    t0: u64,
) -> Outcome {
    let job_dir = cfg.out_dir.as_ref().map(|d| d.join(spec.name()));
    if let Some(dir) = &job_dir {
        if let Some(done) = read_summary(dir, &cfg.columns) {
            return Outcome::Done(done);
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            return Outcome::Failed {
                error: e.into(),
                retries: 0,
            };
        }
    }
    let max = spec.retry.max_retries;
    let first = job_dir.as_deref().map(read_attempt).unwrap_or(0).min(max);
    for attempt in first..=max {
        if token.is_aborted() {
            return Outcome::Cancelled {
                steps: 0,
                time: 0.0,
                retries: attempt,
            };
        }
        // Stamp the attempt before its first checkpoint can exist, so a
        // resume always knows which stepping scale on-disk state uses.
        if let Some(dir) = &job_dir {
            if let Err(e) = write_attempt(dir, attempt) {
                return Outcome::Failed {
                    error: e.into(),
                    retries: attempt,
                };
            }
        }
        match run_attempt(
            cfg,
            spec,
            attempt,
            job_dir.as_deref(),
            token,
            queue_wait_s,
            t0,
        ) {
            Ok(done) => return Outcome::Done(done),
            Err(Halt::Cancelled { steps, time }) => {
                return Outcome::Cancelled {
                    steps,
                    time,
                    retries: attempt,
                }
            }
            Err(Halt::Error(Error::BlowUp { .. })) if attempt < max => {
                // The diverged attempt's artifacts must not seed the next
                // one; the summary does not exist yet and `attempt` is
                // re-stamped at the top of the loop.
                if let Some(dir) = &job_dir {
                    if let Err(e) = wipe_attempt_artifacts(dir) {
                        return Outcome::Failed {
                            error: e.into(),
                            retries: attempt,
                        };
                    }
                }
            }
            Err(Halt::Error(error)) => {
                return Outcome::Failed {
                    error,
                    retries: attempt,
                }
            }
        }
    }
    unreachable!("the final retry attempt always returns")
}

enum Halt {
    Cancelled { steps: usize, time: f64 },
    Error(Error),
}

impl From<std::io::Error> for Halt {
    fn from(e: std::io::Error) -> Self {
        Halt::Error(e.into())
    }
}

fn run_attempt(
    cfg: &EnsembleConfig,
    spec: &JobSpec,
    attempt: usize,
    job_dir: Option<&Path>,
    token: &CancelToken,
    queue_wait_s: f64,
    t0: u64,
) -> Result<DoneSummary, Halt> {
    let mut app = spec.build_app(attempt).map_err(Halt::Error)?;
    if attempt > 0 {
        // Each attempt builds a fresh registry, so seed the cumulative
        // retry history into this one: `attempt` prior attempts blew up
        // and each rebuild rejected the previous stepping scale.
        let probe = &app.system().probe;
        probe.count(Counter::Retries, attempt as u64);
        probe.count(Counter::DtRejections, attempt as u64);
    }
    let mut series = SampleSeries::new(cfg.sample_every, spec.end_time());
    if let Some(dir) = job_dir {
        let series_path = dir.join(SERIES_FILE);
        if let Some((path, steps)) = snapshot::latest_checkpoint(dir, CKPT_STEM) {
            let (state, time) = snapshot::load(&path)?;
            app.restore(state, time).map_err(Halt::Error)?;
            app.set_steps_taken(steps);
            series.reload_up_to(&series_path, time)?;
        } else if series_path.exists() {
            // A stale series with no checkpoint to anchor it (e.g. an
            // interrupted checkpoint-free run) cannot be resumed —
            // the attempt restarts from t = 0 with a fresh series.
            std::fs::remove_file(&series_path)?;
        }
        series.open_writer(&series_path)?;
    }
    let run_result = {
        let series = &mut series;
        let probe = cfg.probe.clone();
        let mut sampler = observe(Trigger::EveryTime(cfg.sample_every), |fr| {
            if series.record(fr)? {
                if let Some(p) = &probe {
                    p(spec, fr)?;
                }
            }
            Ok(())
        })
        .named("ensemble-series");
        let mut cancel = observe(Trigger::EverySteps(1), |_fr| {
            if token.is_aborted() {
                Err(Error::Cancelled)
            } else {
                Ok(())
            }
        })
        .named("ensemble-cancel");
        let mut ckpt = job_dir
            .filter(|_| cfg.checkpoint_every_steps > 0)
            .map(|dir| {
                Checkpoint::new(
                    dir,
                    CKPT_STEM,
                    Trigger::EverySteps(cfg.checkpoint_every_steps),
                )
            });
        let mut obs: Vec<&mut dyn Observer> = Vec::with_capacity(3);
        obs.push(&mut sampler);
        if let Some(c) = ckpt.as_mut() {
            obs.push(c);
        }
        obs.push(&mut cancel);
        app.run(spec.end_time(), &mut obs)
    };
    // Persist the per-job run report whether the attempt finished, blew
    // up, or was cancelled (best-effort: a telemetry IO hiccup must not
    // fail an otherwise healthy job). A no-op when telemetry is off.
    if let Some(dir) = job_dir {
        let _ = app.write_telemetry(&dir.join(TELEMETRY_FILE), spec.name());
    }
    match run_result {
        Ok(()) => {}
        Err(Error::Cancelled) => {
            return Err(Halt::Cancelled {
                steps: app.steps_taken(),
                time: app.time(),
            })
        }
        Err(e) => return Err(Halt::Error(e)),
    }
    let summary = match &cfg.summarize {
        Some(f) => {
            let outputs = JobOutputs {
                spec,
                app: &app,
                times: &series.times,
                field_energy: &series.field,
                particle_energy: &series.particle,
            };
            let s = f(&outputs);
            if s.len() != cfg.columns.len() {
                return Err(Halt::Error(Error::Build(format!(
                    "job {:?}: summarize returned {} values for {} columns",
                    spec.name(),
                    s.len(),
                    cfg.columns.len()
                ))));
            }
            s
        }
        None => Vec::new(),
    };
    let done = DoneSummary {
        steps: app.steps_taken(),
        time: app.time(),
        retries: attempt,
        summary,
        timing: JobTiming {
            queue_wait_s,
            run_s: now_ns().saturating_sub(t0) as f64 * 1e-9,
            attempts: attempt + 1,
        },
    };
    if let Some(dir) = job_dir {
        write_summary(dir, &cfg.columns, &done)?;
    }
    Ok(done)
}

/// The in-memory (and optionally streamed) energy series of one attempt.
///
/// Samples are filtered to the absolute `sample_every` grid: `App::run`
/// fires periodic observers once at run *start*, which for a resumed run
/// sits wherever the checkpoint landed — recording it would make the
/// series differ from an uninterrupted run's. Off-grid firings and
/// duplicates of the last kept row are dropped instead.
struct SampleSeries {
    period: f64,
    tol: f64,
    times: Vec<f64>,
    field: Vec<f64>,
    particle: Vec<f64>,
    writer: Option<CsvWriter>,
}

impl SampleSeries {
    fn new(period: f64, t_end: f64) -> Self {
        SampleSeries {
            period,
            // Same order of slack the run driver's own end-of-run and
            // trigger comparisons use: a few ulps at the run's scale.
            tol: 32.0 * f64::EPSILON * t_end.abs().max(1.0),
            times: Vec::new(),
            field: Vec::new(),
            particle: Vec::new(),
            writer: None,
        }
    }

    /// Reload a previously streamed series, keeping only intact rows at
    /// `t <= t_upto` (rows past the checkpoint and any torn tail line
    /// are dropped), and rewrite the file atomically to match.
    fn reload_up_to(&mut self, path: &Path, t_upto: f64) -> std::io::Result<()> {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(_) => return Ok(()),
        };
        let header = SERIES_HEADER.join(",");
        let mut kept = String::with_capacity(body.len() + header.len() + 1);
        kept.push_str(&header);
        kept.push('\n');
        for line in body.lines() {
            let Some((t, fe, pe)) = parse_row(line) else {
                continue;
            };
            if t <= t_upto + self.tol {
                self.times.push(t);
                self.field.push(fe);
                self.particle.push(pe);
                kept.push_str(line);
                kept.push('\n');
            }
        }
        write_atomic(path, |w| w.write_all(kept.as_bytes()))
    }

    fn open_writer(&mut self, path: &Path) -> std::io::Result<()> {
        self.writer = Some(CsvWriter::append(path, &SERIES_HEADER)?);
        Ok(())
    }

    /// Record one frame if it sits on the sampling grid and is not a
    /// duplicate; returns whether it was recorded.
    fn record(&mut self, fr: &Frame<'_>) -> Result<bool, Error> {
        let t = fr.time;
        let n = (t / self.period).round();
        if (t - n * self.period).abs() > self.tol {
            return Ok(false);
        }
        if let Some(&last) = self.times.last() {
            if t <= last + self.tol {
                return Ok(false);
            }
        }
        let fe = fr.field_energy();
        let pe = fr.particle_energy();
        self.times.push(t);
        self.field.push(fe);
        self.particle.push(pe);
        if let Some(w) = &mut self.writer {
            w.row(&[t, fe, pe])?;
            w.flush()?;
        }
        Ok(true)
    }
}

/// Parse one streamed series row; `None` for the header, a torn tail,
/// or anything else malformed.
fn parse_row(line: &str) -> Option<(f64, f64, f64)> {
    let mut it = line.split(',');
    let t = it.next()?.trim().parse().ok()?;
    let fe = it.next()?.trim().parse().ok()?;
    let pe = it.next()?.trim().parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((t, fe, pe))
}

fn read_attempt(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join(ATTEMPT_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn write_attempt(dir: &Path, attempt: usize) -> std::io::Result<()> {
    write_atomic(&dir.join(ATTEMPT_FILE), |w| writeln!(w, "{attempt}"))
}

/// Drop the artifacts of a diverged attempt: checkpoints (tmp strays
/// included) and the streamed series. The `attempt` stamp and any
/// summary are managed by the retry loop itself.
fn wipe_attempt_artifacts(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(CKPT_STEM) || name.starts_with(SERIES_FILE) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Fixed summary columns before the configured summarize columns. The
/// first three are deterministic; `queue_wait_s`/`run_s` are wall-clock
/// (the bit-exactness tests mask them), `attempts` is deterministic
/// again (`1 + retries`).
const SUMMARY_PREFIX: &str = "steps,time,retries,queue_wait_s,run_s,attempts";

fn write_summary(dir: &Path, columns: &[String], done: &DoneSummary) -> std::io::Result<()> {
    let mut out = String::from(SUMMARY_PREFIX);
    for c in columns {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');
    out.push_str(&format!(
        "{},{:.17e},{},{:.17e},{:.17e},{}",
        done.steps,
        done.time,
        done.retries,
        done.timing.queue_wait_s,
        done.timing.run_s,
        done.timing.attempts
    ));
    for v in &done.summary {
        out.push_str(&format!(",{v:.17e}"));
    }
    out.push('\n');
    write_atomic(&dir.join(SUMMARY_FILE), |w| w.write_all(out.as_bytes()))
}

/// Load a persisted summary. `None` means "not done": missing file, or
/// a header that no longer matches the configured columns (the job is
/// then recomputed rather than half-trusted — pre-timing summaries from
/// older layouts invalidate the same way). `{:.17e}` rows round-trip
/// `f64` exactly, so a loaded record is bit-identical to the computed
/// one.
fn read_summary(dir: &Path, columns: &[String]) -> Option<DoneSummary> {
    let body = std::fs::read_to_string(dir.join(SUMMARY_FILE)).ok()?;
    let mut lines = body.lines();
    let mut expect = String::from(SUMMARY_PREFIX);
    for c in columns {
        expect.push(',');
        expect.push_str(c);
    }
    if lines.next()? != expect {
        return None;
    }
    let row = lines.next()?;
    let mut it = row.split(',');
    let steps = it.next()?.trim().parse().ok()?;
    let time = it.next()?.trim().parse().ok()?;
    let retries = it.next()?.trim().parse().ok()?;
    let queue_wait_s = it.next()?.trim().parse().ok()?;
    let run_s = it.next()?.trim().parse().ok()?;
    let attempts = it.next()?.trim().parse().ok()?;
    let summary = it
        .map(|s| s.trim().parse().ok())
        .collect::<Option<Vec<f64>>>()?;
    (summary.len() == columns.len()).then_some(DoneSummary {
        steps,
        time,
        retries,
        summary,
        timing: JobTiming {
            queue_wait_s,
            run_s,
            attempts,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dg_ensemble_runner").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn summary_roundtrip_is_bit_exact() {
        let dir = tmp_dir("summary");
        let columns = vec!["gamma".to_string(), "efin".to_string()];
        let done = DoneSummary {
            steps: 12345,
            time: 0.1 + 0.2, // deliberately not exactly 0.3
            retries: 2,
            summary: vec![-0.153_f64.exp().ln(), 3.0e-300],
            timing: JobTiming {
                queue_wait_s: 0.25,
                run_s: 1.0 / 3.0,
                attempts: 3,
            },
        };
        write_summary(&dir, &columns, &done).unwrap();
        let back = read_summary(&dir, &columns).unwrap();
        assert_eq!(back.steps, 12345);
        assert_eq!(back.time.to_bits(), done.time.to_bits());
        assert_eq!(back.retries, 2);
        assert_eq!(
            back.timing.queue_wait_s.to_bits(),
            done.timing.queue_wait_s.to_bits()
        );
        assert_eq!(back.timing.run_s.to_bits(), done.timing.run_s.to_bits());
        assert_eq!(back.timing.attempts, 3);
        let bits: Vec<u64> = back.summary.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = done.summary.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);

        // Changed columns invalidate the persisted summary.
        assert!(read_summary(&dir, &["other".to_string()]).is_none());
        assert!(read_summary(&tmp_dir("summary_none"), &columns).is_none());
    }

    #[test]
    fn attempt_stamp_roundtrip_and_default() {
        let dir = tmp_dir("attempt");
        assert_eq!(read_attempt(&dir), 0);
        write_attempt(&dir, 3).unwrap();
        assert_eq!(read_attempt(&dir), 3);
        std::fs::write(dir.join(ATTEMPT_FILE), "garbage").unwrap();
        assert_eq!(read_attempt(&dir), 0);
    }

    #[test]
    fn series_reload_truncates_tails_and_future_rows() {
        let dir = tmp_dir("series");
        let path = dir.join(SERIES_FILE);
        let mut body = String::from("t,field_energy,particle_energy\n");
        for i in 0..5 {
            body.push_str(&format!(
                "{:.17e},{:.17e},{:.17e}\n",
                0.01 * i as f64,
                1.0 / (1 + i) as f64,
                2.0
            ));
        }
        body.push_str("4.00000000000000e-2,5.5"); // torn tail
        std::fs::write(&path, &body).unwrap();

        let mut series = SampleSeries::new(0.01, 1.0);
        series.reload_up_to(&path, 0.02).unwrap();
        assert_eq!(series.times.len(), 3);
        assert_eq!(series.times[2], 0.02);

        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten.lines().count(), 4, "{rewritten}");
        assert!(rewritten.ends_with('\n'));
        assert!(!rewritten.contains("5.5"));
    }

    #[test]
    fn record_filters_off_grid_and_duplicate_samples() {
        let dir = tmp_dir("record_filter");
        let path = dir.join(SERIES_FILE);
        let mut series = SampleSeries::new(0.01, 1.0);
        // Simulate a resumed series that already holds t = 0 and t = 0.01.
        std::fs::write(
            &path,
            "t,field_energy,particle_energy\n\
             0.00000000000000000e0,1.00000000000000000e0,2.00000000000000000e0\n\
             1.00000000000000002e-2,9.00000000000000022e-1,2.00000000000000000e0\n",
        )
        .unwrap();
        series.reload_up_to(&path, 0.01).unwrap();
        assert_eq!(series.times.len(), 2);
        // An off-grid restart firing (t = 0.0137) must not be kept; the
        // grid check alone decides, no Frame needed for that path.
        let t = 0.0137;
        let n = (t / series.period).round();
        assert!((t - n * series.period).abs() > series.tol);
        // A duplicate of the last kept sample is dropped by the dedupe
        // guard even though it is on-grid.
        let t = 0.010000000000000002;
        let n = (t / series.period).round();
        assert!((t - n * series.period).abs() <= series.tol);
        assert!(t <= series.times[1] + series.tol);
    }

    #[test]
    fn wipe_removes_checkpoints_and_series_only() {
        let dir = tmp_dir("wipe");
        for name in [
            "ckpt_000010.vdg",
            "ckpt_000020.vdg.tmp",
            SERIES_FILE,
            "series.csv.tmp",
            ATTEMPT_FILE,
            SUMMARY_FILE,
        ] {
            std::fs::write(dir.join(name), "x").unwrap();
        }
        wipe_attempt_artifacts(&dir).unwrap();
        assert!(!dir.join("ckpt_000010.vdg").exists());
        assert!(!dir.join("ckpt_000020.vdg.tmp").exists());
        assert!(!dir.join(SERIES_FILE).exists());
        assert!(!dir.join("series.csv.tmp").exists());
        assert!(dir.join(ATTEMPT_FILE).exists());
        assert!(dir.join(SUMMARY_FILE).exists());
    }

    #[test]
    fn parse_row_rejects_noise() {
        assert!(parse_row("t,field_energy,particle_energy").is_none());
        assert!(parse_row("0.1,2.0").is_none());
        assert!(parse_row("0.1,2.0,3.0,4.0").is_none());
        assert_eq!(parse_row("0.1,2.0,3.0"), Some((0.1, 2.0, 3.0)));
    }
}
