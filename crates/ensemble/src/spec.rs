//! Typed job specifications: one [`JobSpec`] per simulation request, plus
//! the [`SweepSpec`] convenience layer that expands cartesian/list
//! parameter grids into deterministically named and ordered job lists.
//!
//! A job is a *recipe*, not a built solver: the setup closure maps a
//! [`JobParams`] bag to an [`AppBuilder`], and the worker that eventually
//! picks the job up builds the `App` on its own thread (builders hold
//! non-`Send` initial-condition closures, so the recipe — behind a
//! `Send + Sync` [`SetupFn`] — is what crosses threads, never the
//! builder). Stepping knobs (`cfl` / `fixed_dt`) live on the spec rather
//! than inside the setup closure so the retry policy can rescale them
//! between attempts.

use dg_core::app::{App, AppBuilder};
use dg_core::error::Error;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The job recipe: maps a parameter bag to a ready-to-build declaration.
/// `Send + Sync` so one recipe can be shared by every worker thread.
pub type SetupFn = dyn Fn(&JobParams) -> Result<AppBuilder, Error> + Send + Sync;

/// A named bag of `f64` parameters. Backed by a `BTreeMap`, so iteration
/// order is the sorted name order — deterministic everywhere it leaks
/// (report columns, job expansion, `Debug` output).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobParams {
    values: BTreeMap<String, f64>,
}

impl JobParams {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insert.
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.set(name, value);
        self
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Required lookup: a missing name is an [`Error::Build`] naming the
    /// parameters that *are* set, so a typo in a setup closure fails the
    /// job with a readable message instead of a panic on a worker thread.
    pub fn get(&self, name: &str) -> Result<f64, Error> {
        self.values.get(name).copied().ok_or_else(|| {
            let have: Vec<&str> = self.names().collect();
            Error::Build(format!("job parameter {name:?} not set (have {have:?})"))
        })
    }

    /// Optional lookup.
    pub fn try_get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Parameter names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// What to do when a run dies with [`Error::BlowUp`]: retry up to
/// `max_retries` more times, scaling the spec-level stepping knob
/// (`cfl` or `fixed_dt`) by `dt_factor` per extra attempt. Any other
/// failure kind is never retried — a build error or IO fault will not
/// fix itself at a smaller time step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = fail on first blow-up).
    pub max_retries: usize,
    /// Per-attempt multiplier on the spec's `cfl`/`fixed_dt` knob.
    pub dt_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            dt_factor: 0.5,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first blow-up is final.
    pub fn none() -> Self {
        Self::default()
    }

    /// Retry blow-ups up to `max_retries` times, shrinking the time step
    /// by `dt_factor` each attempt.
    pub fn on_blow_up(max_retries: usize, dt_factor: f64) -> Self {
        RetryPolicy {
            max_retries,
            dt_factor,
        }
    }
}

/// One validated simulation request: a name (doubling as the per-job
/// output directory), a parameter bag, the setup recipe, and run knobs.
#[derive(Clone)]
pub struct JobSpec {
    pub(crate) name: String,
    pub(crate) params: JobParams,
    pub(crate) t_end: f64,
    pub(crate) fixed_dt: Option<f64>,
    pub(crate) cfl: Option<f64>,
    pub(crate) threads: Option<usize>,
    pub(crate) retry: RetryPolicy,
    pub(crate) setup: Arc<SetupFn>,
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("t_end", &self.t_end)
            .field("fixed_dt", &self.fixed_dt)
            .field("cfl", &self.cfl)
            .field("threads", &self.threads)
            .field("retry", &self.retry)
            .finish_non_exhaustive()
    }
}

impl JobSpec {
    /// A new job named `name` (defaults: `t_end = 1.0`, no stepping
    /// override, no retries).
    pub fn new(name: &str, setup: Arc<SetupFn>) -> Self {
        JobSpec {
            name: name.to_string(),
            params: JobParams::new(),
            t_end: 1.0,
            fixed_dt: None,
            cfl: None,
            threads: None,
            retry: RetryPolicy::none(),
            setup,
        }
    }

    /// Set one parameter.
    pub fn param(mut self, name: &str, value: f64) -> Self {
        self.params.set(name, value);
        self
    }

    /// Replace the whole parameter bag.
    pub fn with_params(mut self, params: JobParams) -> Self {
        self.params = params;
        self
    }

    /// Simulation end time for `App::run`.
    pub fn t_end(mut self, t_end: f64) -> Self {
        self.t_end = t_end;
        self
    }

    /// Fixed time step (takes precedence over `cfl` when both are set).
    pub fn fixed_dt(mut self, dt: f64) -> Self {
        self.fixed_dt = Some(dt);
        self
    }

    /// CFL number applied on top of the setup's builder (overrides any
    /// `cfl` the setup closure chose).
    pub fn cfl(mut self, cfl: f64) -> Self {
        self.cfl = Some(cfl);
        self
    }

    /// Threads for this job's own cell-block sweep (composes with
    /// ensemble-level workers; applied over the setup's builder — see
    /// `AppBuilder::threads`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Blow-up retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Job name (also the per-job output directory name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter bag.
    pub fn params(&self) -> &JobParams {
        &self.params
    }

    /// Simulation end time.
    pub fn end_time(&self) -> f64 {
        self.t_end
    }

    pub(crate) fn validate(&self) -> Result<(), Error> {
        if self.name.is_empty() {
            return Err(Error::Build("job name must not be empty".into()));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        {
            return Err(Error::Build(format!(
                "job name {:?} is not filesystem-safe (use [A-Za-z0-9_.-])",
                self.name
            )));
        }
        if !(self.t_end.is_finite() && self.t_end > 0.0) {
            return Err(Error::Build(format!(
                "job {:?}: t_end = {} must be finite and positive",
                self.name, self.t_end
            )));
        }
        for (what, v) in [("fixed_dt", self.fixed_dt), ("cfl", self.cfl)] {
            if let Some(v) = v {
                if !(v.is_finite() && v > 0.0) {
                    return Err(Error::Build(format!(
                        "job {:?}: {what} = {v} must be finite and positive",
                        self.name
                    )));
                }
            }
        }
        if self.threads == Some(0) {
            return Err(Error::Build(format!(
                "job {:?}: threads = 0 (want >= 1)",
                self.name
            )));
        }
        if self.retry.max_retries > 0 {
            if self.fixed_dt.is_none() && self.cfl.is_none() {
                return Err(Error::Build(format!(
                    "job {:?}: retry-on-blow-up needs a spec-level `cfl` or \
                     `fixed_dt` to rescale between attempts",
                    self.name
                )));
            }
            if !(self.retry.dt_factor.is_finite()
                && self.retry.dt_factor > 0.0
                && self.retry.dt_factor < 1.0)
            {
                return Err(Error::Build(format!(
                    "job {:?}: retry dt_factor = {} must be in (0, 1)",
                    self.name, self.retry.dt_factor
                )));
            }
        }
        Ok(())
    }

    /// Build the `App` for attempt `attempt` (0-based): the setup recipe
    /// produces the builder, then the spec's stepping knobs — scaled by
    /// `dt_factor^attempt` — are applied on top.
    pub(crate) fn build_app(&self, attempt: usize) -> Result<App, Error> {
        let mut builder = (self.setup)(&self.params)?;
        let scale = self.retry.dt_factor.powi(attempt as i32);
        if let Some(cfl) = self.cfl {
            builder = builder.cfl(cfl * scale);
        }
        if let Some(n) = self.threads {
            builder = builder.threads(n);
        }
        let mut app = builder.build()?;
        if let Some(dt) = self.fixed_dt {
            app.set_fixed_dt(dt * scale);
        }
        Ok(app)
    }
}

/// A parameter sweep: shared base job knobs plus cartesian axes and/or
/// an explicit list of cases, expanded by [`SweepSpec::jobs`] into
/// `{name}_{0000}`, `{name}_{0001}`, … in a deterministic order — the
/// first declared axis varies slowest, the last fastest (row-major),
/// explicit cases appended after the grid.
pub struct SweepSpec {
    base: JobSpec,
    axes: Vec<(String, Vec<f64>)>,
    cases: Vec<JobParams>,
}

impl fmt::Debug for SweepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepSpec")
            .field("base", &self.base)
            .field("axes", &self.axes)
            .field("cases", &self.cases)
            .finish()
    }
}

impl SweepSpec {
    pub fn new(name: &str, setup: Arc<SetupFn>) -> Self {
        SweepSpec {
            base: JobSpec::new(name, setup),
            axes: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// Add a cartesian axis: every job gets one of `values` under `name`.
    pub fn axis(mut self, name: &str, values: &[f64]) -> Self {
        self.axes.push((name.to_string(), values.to_vec()));
        self
    }

    /// Append one explicit case (overlaid on the base parameters) after
    /// the cartesian grid.
    pub fn case(mut self, params: JobParams) -> Self {
        self.cases.push(params);
        self
    }

    /// A parameter shared by every job in the sweep.
    pub fn base_param(mut self, name: &str, value: f64) -> Self {
        self.base.params.set(name, value);
        self
    }

    /// Shared end time (see [`JobSpec::t_end`]).
    pub fn t_end(mut self, t_end: f64) -> Self {
        self.base.t_end = t_end;
        self
    }

    /// Shared fixed time step (see [`JobSpec::fixed_dt`]).
    pub fn fixed_dt(mut self, dt: f64) -> Self {
        self.base.fixed_dt = Some(dt);
        self
    }

    /// Shared CFL number (see [`JobSpec::cfl`]).
    pub fn cfl(mut self, cfl: f64) -> Self {
        self.base.cfl = Some(cfl);
        self
    }

    /// Shared per-job thread count (see [`JobSpec::threads`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.base.threads = Some(n);
        self
    }

    /// Shared retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.base.retry = retry;
        self
    }

    /// Number of jobs the sweep expands to (grid product × 1 base combo,
    /// plus explicit cases).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product::<usize>() + self.cases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand to the ordered job list. Axis names must be unique and not
    /// collide with base parameters; every axis needs at least one value.
    pub fn jobs(&self) -> Result<Vec<JobSpec>, Error> {
        for (i, (name, values)) in self.axes.iter().enumerate() {
            if values.is_empty() {
                return Err(Error::Build(format!(
                    "sweep {:?}: axis {name:?} has no values",
                    self.base.name
                )));
            }
            let clash = self.axes[..i].iter().any(|(n, _)| n == name)
                || self.base.params.try_get(name).is_some();
            if clash {
                return Err(Error::Build(format!(
                    "sweep {:?}: axis {name:?} collides with another axis or a base parameter",
                    self.base.name
                )));
            }
        }
        let mut combos = vec![self.base.params.clone()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(combos.len() * values.len());
            for combo in &combos {
                for &v in values {
                    next.push(combo.clone().with(name, v));
                }
            }
            combos = next;
        }
        for case in &self.cases {
            let mut merged = self.base.params.clone();
            for (k, v) in case.iter() {
                merged.set(k, v);
            }
            combos.push(merged);
        }
        let width = 4usize.max(combos.len().saturating_sub(1).to_string().len());
        let jobs: Vec<JobSpec> = combos
            .into_iter()
            .enumerate()
            .map(|(i, params)| JobSpec {
                name: format!("{}_{i:0width$}", self.base.name),
                params,
                ..self.base.clone()
            })
            .collect();
        for job in &jobs {
            job.validate()?;
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_setup() -> Arc<SetupFn> {
        Arc::new(|_p| Ok(AppBuilder::new()))
    }

    #[test]
    fn params_are_sorted_and_missing_names_explain_themselves() {
        let p = JobParams::new().with("zeta", 1.0).with("alpha", 2.0);
        let names: Vec<&str> = p.names().collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(p.get("alpha").unwrap(), 2.0);
        let err = p.get("beta").unwrap_err().to_string();
        assert!(err.contains("beta") && err.contains("alpha"), "{err}");
    }

    #[test]
    fn sweep_expansion_is_row_major_with_stable_names() {
        let sweep = SweepSpec::new("scan", noop_setup())
            .base_param("amp", 0.01)
            .axis("k", &[0.3, 0.4])
            .axis("vth", &[1.0, 2.0, 3.0])
            .case(JobParams::new().with("k", 9.0).with("vth", 9.0))
            .t_end(2.0);
        assert_eq!(sweep.len(), 7);
        let jobs = sweep.jobs().unwrap();
        assert_eq!(jobs.len(), 7);
        assert_eq!(jobs[0].name(), "scan_0000");
        assert_eq!(jobs[6].name(), "scan_0006");
        // Last axis fastest: vth cycles within fixed k.
        let kv: Vec<(f64, f64)> = jobs
            .iter()
            .map(|j| (j.params().get("k").unwrap(), j.params().get("vth").unwrap()))
            .collect();
        assert_eq!(
            kv,
            [
                (0.3, 1.0),
                (0.3, 2.0),
                (0.3, 3.0),
                (0.4, 1.0),
                (0.4, 2.0),
                (0.4, 3.0),
                (9.0, 9.0),
            ]
        );
        // Shared knobs and base params propagate.
        assert!(jobs.iter().all(|j| j.end_time() == 2.0));
        assert!(jobs.iter().all(|j| j.params().get("amp").unwrap() == 0.01));
    }

    #[test]
    fn sweep_axis_collisions_and_empty_axes_are_rejected() {
        let err = SweepSpec::new("s", noop_setup())
            .axis("k", &[1.0])
            .axis("k", &[2.0])
            .jobs()
            .unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");

        let err = SweepSpec::new("s", noop_setup())
            .base_param("k", 0.5)
            .axis("k", &[1.0])
            .jobs()
            .unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");

        let err = SweepSpec::new("s", noop_setup())
            .axis("k", &[])
            .jobs()
            .unwrap_err();
        assert!(err.to_string().contains("no values"), "{err}");
    }

    #[test]
    fn validation_catches_bad_knobs() {
        let ok = JobSpec::new("a-b.c_1", noop_setup()).t_end(1.0);
        assert!(ok.validate().is_ok());

        let bad_name = JobSpec::new("a/b", noop_setup());
        assert!(bad_name.validate().is_err());
        assert!(JobSpec::new("", noop_setup()).validate().is_err());

        assert!(JobSpec::new("j", noop_setup())
            .t_end(f64::NAN)
            .validate()
            .is_err());
        assert!(JobSpec::new("j", noop_setup())
            .fixed_dt(-1.0)
            .validate()
            .is_err());
        assert!(JobSpec::new("j", noop_setup())
            .threads(0)
            .validate()
            .is_err());

        // Retries need a spec-level stepping knob to rescale…
        let err = JobSpec::new("j", noop_setup())
            .retry(RetryPolicy::on_blow_up(2, 0.5))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("retry"), "{err}");
        // …and a genuinely shrinking factor.
        assert!(JobSpec::new("j", noop_setup())
            .fixed_dt(0.1)
            .retry(RetryPolicy::on_blow_up(2, 1.0))
            .validate()
            .is_err());
        assert!(JobSpec::new("j", noop_setup())
            .fixed_dt(0.1)
            .retry(RetryPolicy::on_blow_up(2, 0.5))
            .validate()
            .is_ok());
    }
}
