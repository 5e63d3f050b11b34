//! The bounded work queue and worker-pool scheduler.
//!
//! `Ensemble::run` multiplexes every submitted job over `workers` scoped
//! threads (`std::thread::scope`; a single worker runs on the calling
//! thread). Workers pull job ids off a shared FIFO and run each job to a
//! terminal state with `runner::run_job`; results land in per-job slots
//! and are collected *in submission order on the main thread* after the
//! scope joins its threads — the scheduling order never leaks into the
//! report, which is what makes per-job results bit-identical at any
//! worker count (asserted in `tests/ensemble.rs`).
//!
//! Per-job work still composes with the solver's own parallelism: a
//! `JobSpec::threads(n)` job runs its cell-block sweeps on its worker's
//! own nested pool, and setups may decompose with `AppBuilder::ranks`.

use crate::report::{EnsembleReport, JobRecord, JobStatus, JobTiming, SchedulerStats};
use crate::runner;
use crate::spec::{JobSpec, SweepSpec};
use dg_core::app::App;
use dg_core::error::Error;
use dg_core::observer::Frame;
use dg_telemetry::now_ns;
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Reduce a finished run to the per-job summary row. Receives borrowed
/// [`JobOutputs`]; returns exactly one value per configured column.
pub type SummarizeFn = dyn Fn(&JobOutputs<'_>) -> Vec<f64> + Send + Sync;

/// Optional mid-run hook, fired at every on-grid sample of every job
/// (after the sample is recorded). Returning [`Error::Cancelled`] stops
/// that job; tests use this to trigger cancellation at a deterministic
/// simulation time.
pub type ProbeFn = dyn Fn(&JobSpec, &Frame<'_>) -> Result<(), Error> + Send + Sync;

/// Everything a [`SummarizeFn`] may inspect: the finished `App` and the
/// job's sampled energy series (times are on the `sample_every` grid).
pub struct JobOutputs<'a> {
    pub spec: &'a JobSpec,
    pub app: &'a App,
    pub times: &'a [f64],
    pub field_energy: &'a [f64],
    pub particle_energy: &'a [f64],
}

/// Scheduler configuration (builder-style).
#[derive(Clone)]
pub struct EnsembleConfig {
    pub(crate) workers: usize,
    pub(crate) capacity: usize,
    pub(crate) out_dir: Option<PathBuf>,
    pub(crate) sample_every: f64,
    pub(crate) checkpoint_every_steps: usize,
    pub(crate) columns: Vec<String>,
    pub(crate) summarize: Option<Arc<SummarizeFn>>,
    pub(crate) probe: Option<Arc<ProbeFn>>,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            workers: 1,
            capacity: 4096,
            out_dir: None,
            sample_every: 0.1,
            checkpoint_every_steps: 50,
            columns: Vec::new(),
            summarize: None,
            probe: None,
        }
    }
}

impl EnsembleConfig {
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads pulling jobs off the queue (default 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Queue bound: `submit` refuses jobs beyond this (default 4096).
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = n;
        self
    }

    /// Root output directory. Each job owns `out_dir/{job_name}/`
    /// (streamed `series.csv`, step-stamped checkpoints, persisted
    /// summary); the aggregate `report.csv` lands at the root. Without
    /// an `out_dir` the ensemble runs purely in memory: no streaming
    /// output, no checkpoints, no resume.
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = Some(dir.into());
        self
    }

    /// Sampling period of the per-job energy series, on the absolute
    /// simulation clock (default 0.1).
    pub fn sample_every(mut self, dt: f64) -> Self {
        self.sample_every = dt;
        self
    }

    /// Checkpoint cadence in steps; 0 disables checkpoints. Only
    /// effective with an `out_dir` (default 50).
    pub fn checkpoint_every_steps(mut self, steps: usize) -> Self {
        self.checkpoint_every_steps = steps;
        self
    }

    /// The typed summary: named columns plus the reduction producing one
    /// row per finished job.
    pub fn summarize(
        mut self,
        columns: &[&str],
        f: impl Fn(&JobOutputs<'_>) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        self.columns = columns.iter().map(|c| c.to_string()).collect();
        self.summarize = Some(Arc::new(f));
        self
    }

    /// Install a mid-run probe (see [`ProbeFn`]).
    pub fn probe(
        mut self,
        f: impl Fn(&JobSpec, &Frame<'_>) -> Result<(), Error> + Send + Sync + 'static,
    ) -> Self {
        self.probe = Some(Arc::new(f));
        self
    }

    fn validate(&self) -> Result<(), Error> {
        if self.workers == 0 {
            return Err(Error::Build("ensemble workers must be >= 1".into()));
        }
        if self.capacity == 0 {
            return Err(Error::Build("ensemble capacity must be >= 1".into()));
        }
        if !(self.sample_every.is_finite() && self.sample_every > 0.0) {
            return Err(Error::Build(format!(
                "sample_every = {} must be finite and positive",
                self.sample_every
            )));
        }
        if self.summarize.is_some() == self.columns.is_empty() {
            return Err(Error::Build(
                "summary columns and summarize closure must be configured together".into(),
            ));
        }
        Ok(())
    }
}

/// Cooperative cancellation handle (cheaply cloneable, thread-safe).
///
/// [`CancelToken::drain`] is graceful shutdown: running jobs finish,
/// queued jobs are marked `Cancelled` without starting.
/// [`CancelToken::abort`] additionally stops running jobs at their next
/// step via an `Error::Cancelled` observer. Either way `Ensemble::run`
/// returns a complete report — cancellation never poisons sibling jobs.
#[derive(Clone, Default)]
pub struct CancelToken {
    flags: Arc<Flags>,
}

#[derive(Default)]
struct Flags {
    drain: AtomicBool,
    abort: AtomicBool,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop starting new jobs; let running jobs finish.
    pub fn drain(&self) {
        self.flags.drain.store(true, Ordering::SeqCst);
    }

    /// Stop everything: drain the queue and halt running jobs at their
    /// next step (checkpoints already on disk are kept for resume).
    pub fn abort(&self) {
        self.flags.drain.store(true, Ordering::SeqCst);
        self.flags.abort.store(true, Ordering::SeqCst);
    }

    /// Re-arm a token after a cancelled run (a fresh `run` would
    /// otherwise drain immediately).
    pub fn reset(&self) {
        self.flags.drain.store(false, Ordering::SeqCst);
        self.flags.abort.store(false, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.flags.drain.load(Ordering::SeqCst)
    }

    pub fn is_aborted(&self) -> bool {
        self.flags.abort.load(Ordering::SeqCst)
    }
}

/// Job lifecycle: `Queued → Running → Done | Failed | Cancelled`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JobState {
    Queued = 0,
    Running = 1,
    Done = 2,
    Failed = 3,
    Cancelled = 4,
}

impl JobState {
    fn from_u8(v: u8) -> JobState {
        match v {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            _ => JobState::Cancelled,
        }
    }

    fn of(status: &JobStatus) -> JobState {
        match status {
            JobStatus::Done => JobState::Done,
            JobStatus::Failed(_) => JobState::Failed,
            JobStatus::Cancelled => JobState::Cancelled,
        }
    }
}

/// The front door: submit jobs or sweeps, then `run` them all.
pub struct Ensemble {
    cfg: EnsembleConfig,
    specs: Vec<JobSpec>,
    names: BTreeSet<String>,
    states: Vec<AtomicU8>,
    token: CancelToken,
}

impl Ensemble {
    pub fn new(cfg: EnsembleConfig) -> Result<Self, Error> {
        cfg.validate()?;
        Ok(Ensemble {
            cfg,
            specs: Vec::new(),
            names: BTreeSet::new(),
            states: Vec::new(),
            token: CancelToken::new(),
        })
    }

    /// Enqueue one job. Fails when the spec is invalid, the name is
    /// already taken (names double as output directories), or the queue
    /// is at capacity.
    pub fn submit(&mut self, spec: JobSpec) -> Result<usize, Error> {
        spec.validate()?;
        if self.specs.len() >= self.cfg.capacity {
            return Err(Error::Build(format!(
                "ensemble queue full ({} jobs; raise `EnsembleConfig::capacity`)",
                self.cfg.capacity
            )));
        }
        if !self.names.insert(spec.name().to_string()) {
            return Err(Error::Build(format!(
                "duplicate job name {:?}",
                spec.name()
            )));
        }
        let id = self.specs.len();
        self.specs.push(spec);
        self.states.push(AtomicU8::new(JobState::Queued as u8));
        Ok(id)
    }

    /// Expand and enqueue a sweep; returns the submitted job ids (in
    /// sweep order). All-or-nothing: capacity and name clashes are
    /// checked before the first job is enqueued.
    pub fn submit_sweep(&mut self, sweep: &SweepSpec) -> Result<Vec<usize>, Error> {
        let jobs = sweep.jobs()?;
        if jobs.is_empty() {
            return Err(Error::Build("sweep expanded to zero jobs".into()));
        }
        if self.specs.len() + jobs.len() > self.cfg.capacity {
            return Err(Error::Build(format!(
                "sweep of {} jobs exceeds ensemble capacity {}",
                jobs.len(),
                self.cfg.capacity
            )));
        }
        if let Some(job) = jobs.iter().find(|j| self.names.contains(j.name())) {
            return Err(Error::Build(format!("duplicate job name {:?}", job.name())));
        }
        jobs.into_iter().map(|j| self.submit(j)).collect()
    }

    /// Number of submitted jobs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Lifecycle state of job `id` (live while `run` is on another
    /// thread's stack; terminal afterwards).
    pub fn state(&self, id: usize) -> Option<JobState> {
        self.states
            .get(id)
            .map(|s| JobState::from_u8(s.load(Ordering::SeqCst)))
    }

    /// The cancellation handle (share it with a probe, a signal handler,
    /// or another thread).
    pub fn cancel_token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Run every submitted job to a terminal state and collect the
    /// report in submission order. Re-running after a cancellation (and
    /// `CancelToken::reset`) resumes unfinished jobs from their latest
    /// checkpoints and loads already-finished jobs from their persisted
    /// summaries instead of recomputing them.
    pub fn run(&mut self) -> Result<EnsembleReport, Error> {
        if self.specs.is_empty() {
            return Err(Error::Build("ensemble has no jobs to run".into()));
        }
        if let Some(dir) = &self.cfg.out_dir {
            std::fs::create_dir_all(dir)?;
        }
        for s in &self.states {
            s.store(JobState::Queued as u8, Ordering::SeqCst);
        }
        let t_run_start = now_ns();
        let shared = Shared {
            cfg: &self.cfg,
            specs: &self.specs,
            states: &self.states,
            queue: Mutex::new((0..self.specs.len()).collect()),
            slots: self.specs.iter().map(|_| Mutex::new(None)).collect(),
            token: self.token.clone(),
            t_run_start,
            queue_depth_hwm: AtomicUsize::new(self.specs.len()),
        };
        if self.cfg.workers <= 1 {
            // Degenerate pool: the calling thread is the one worker.
            run_worker(&shared);
        } else {
            std::thread::scope(|s| {
                for w in 0..self.cfg.workers {
                    let spawned = std::thread::Builder::new()
                        .name(format!("dg-ensemble-{w}"))
                        .spawn_scoped(s, || run_worker(&shared));
                    if let Err(e) = spawned {
                        // The workers already running finish their current
                        // job and find the queue empty.
                        shared.queue.lock().unwrap().clear();
                        return Err(Error::Build(format!("ensemble worker pool: {e}")));
                    }
                }
                Ok(())
            })?;
        }
        // Deterministic submission-order reduction on the main thread;
        // completion order (which varies with worker count) is gone here.
        let queue_depth_hwm = shared.queue_depth_hwm.load(Ordering::SeqCst);
        let mut jobs = Vec::with_capacity(self.specs.len());
        for slot in shared.slots {
            let rec = slot
                .into_inner()
                .expect("no worker panicked holding a result slot")
                .expect("every dequeued job leaves a record");
            jobs.push(rec);
        }
        let wall_s = now_ns().saturating_sub(t_run_start) as f64 * 1e-9;
        let busy_s: f64 = jobs.iter().map(|j| j.timing.run_s).sum();
        let report = EnsembleReport {
            columns: self.cfg.columns.clone(),
            jobs,
            stats: SchedulerStats {
                wall_s,
                workers: self.cfg.workers,
                queue_depth_hwm,
                utilization: if wall_s > 0.0 {
                    busy_s / (self.cfg.workers as f64 * wall_s)
                } else {
                    0.0
                },
            },
        };
        if let Some(dir) = &self.cfg.out_dir {
            report.write_csv(dir.join("report.csv"))?;
        }
        Ok(report)
    }
}

/// State shared by the worker pool for one `run`.
struct Shared<'a> {
    cfg: &'a EnsembleConfig,
    specs: &'a [JobSpec],
    states: &'a [AtomicU8],
    queue: Mutex<VecDeque<usize>>,
    slots: Vec<Mutex<Option<JobRecord>>>,
    token: CancelToken,
    /// `now_ns` when `run` started; queue waits are measured from here.
    t_run_start: u64,
    /// Peak queue depth. Seeded with the submission count (the queue is
    /// full before workers start) and max-folded on every dequeue so it
    /// stays honest if submission ever becomes streaming.
    queue_depth_hwm: AtomicUsize,
}

/// One worker: pull job ids off the shared FIFO until it is empty. The
/// loop performs no cross-job reduction of any kind — each job writes
/// only its own slot, and `Ensemble::run` folds the slots in submission
/// order after the barrier.
fn run_worker(shared: &Shared<'_>) {
    loop {
        let (next, depth) = {
            let mut q = shared.queue.lock().unwrap();
            let depth = q.len();
            (q.pop_front(), depth)
        };
        shared.queue_depth_hwm.fetch_max(depth, Ordering::AcqRel);
        let Some(id) = next else { return };
        let queue_wait_s = now_ns().saturating_sub(shared.t_run_start) as f64 * 1e-9;
        let spec = &shared.specs[id];
        let record = if shared.token.is_draining() {
            // Graceful shutdown: jobs still queued are cancelled without
            // starting (their on-disk artifacts, if any, are untouched).
            JobRecord {
                id,
                name: spec.name().to_string(),
                params: spec.params().clone(),
                status: JobStatus::Cancelled,
                steps: 0,
                time: 0.0,
                retries: 0,
                summary: Vec::new(),
                timing: JobTiming {
                    queue_wait_s,
                    run_s: 0.0,
                    attempts: 0,
                },
            }
        } else {
            shared.states[id].store(JobState::Running as u8, Ordering::SeqCst);
            runner::run_job(shared.cfg, spec, id, &shared.token, queue_wait_s)
        };
        shared.states[id].store(JobState::of(&record.status) as u8, Ordering::SeqCst);
        *shared.slots[id].lock().unwrap() = Some(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SetupFn;
    use dg_core::app::AppBuilder;

    fn noop_setup() -> Arc<SetupFn> {
        Arc::new(|_p| Ok(AppBuilder::new()))
    }

    #[test]
    fn config_validation() {
        assert!(Ensemble::new(EnsembleConfig::new().workers(0)).is_err());
        assert!(Ensemble::new(EnsembleConfig::new().capacity(0)).is_err());
        assert!(Ensemble::new(EnsembleConfig::new().sample_every(0.0)).is_err());
        // Columns without a summarize closure (and vice versa) is a bug.
        let mut cfg = EnsembleConfig::new();
        cfg.columns = vec!["gamma".into()];
        assert!(Ensemble::new(cfg).is_err());
        assert!(Ensemble::new(EnsembleConfig::new()).is_ok());
    }

    #[test]
    fn submit_enforces_bound_and_unique_names() {
        let mut ens = Ensemble::new(EnsembleConfig::new().capacity(2)).unwrap();
        assert_eq!(ens.submit(JobSpec::new("a", noop_setup())).unwrap(), 0);
        let err = ens.submit(JobSpec::new("a", noop_setup())).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert_eq!(ens.submit(JobSpec::new("b", noop_setup())).unwrap(), 1);
        let err = ens.submit(JobSpec::new("c", noop_setup())).unwrap_err();
        assert!(err.to_string().contains("queue full"), "{err}");
        assert_eq!(ens.len(), 2);
        assert_eq!(ens.state(0), Some(JobState::Queued));
        assert_eq!(ens.state(7), None);
    }

    #[test]
    fn sweep_submission_is_all_or_nothing() {
        let mut ens = Ensemble::new(EnsembleConfig::new().capacity(3)).unwrap();
        let sweep = SweepSpec::new("s", noop_setup()).axis("k", &[1.0, 2.0, 3.0, 4.0]);
        assert!(ens.submit_sweep(&sweep).is_err());
        assert!(ens.is_empty(), "failed sweep must not half-submit");
        let sweep = SweepSpec::new("s", noop_setup()).axis("k", &[1.0, 2.0, 3.0]);
        assert_eq!(ens.submit_sweep(&sweep).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn cancel_token_drain_abort_reset() {
        let t = CancelToken::new();
        assert!(!t.is_draining() && !t.is_aborted());
        t.drain();
        assert!(t.is_draining() && !t.is_aborted());
        t.abort();
        assert!(t.is_draining() && t.is_aborted());
        t.reset();
        assert!(!t.is_draining() && !t.is_aborted());
    }

    #[test]
    fn run_of_empty_ensemble_is_an_error() {
        let mut ens = Ensemble::new(EnsembleConfig::new()).unwrap();
        assert!(ens.run().is_err());
    }
}
