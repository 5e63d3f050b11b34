//! Results collection: typed per-job summary records and the aggregate
//! report, ordered by submission id — never by completion order — so the
//! same sweep produces the same report at any worker count.

use crate::spec::JobParams;
use dg_core::error::Error;
use dg_telemetry::write_atomic;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

/// Terminal lifecycle state of one job.
#[derive(Debug)]
pub enum JobStatus {
    /// Ran to `t_end` (or was loaded from a persisted summary).
    Done,
    /// Died with the carried error after exhausting any retry budget.
    Failed(Error),
    /// Cancelled before completion (drained while queued, or stopped by
    /// an abort mid-run). Checkpoints on disk are kept, so a later
    /// `Ensemble::run` resumes the job instead of restarting it.
    Cancelled,
}

impl JobStatus {
    pub fn is_done(&self) -> bool {
        matches!(self, JobStatus::Done)
    }

    pub fn is_failed(&self) -> bool {
        matches!(self, JobStatus::Failed(_))
    }

    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobStatus::Cancelled)
    }

    /// Stable one-word label (the `status` column of `report.csv`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// Wall-clock timing of one job on its worker. Kept out of
/// [`EnsembleReport::to_csv_string`] (`report.csv` stays bit-comparable
/// across worker counts and resumes); persisted to the job's own
/// `summary.csv` and surfaced here for live inspection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobTiming {
    /// Seconds between `Ensemble::run` starting and this job's dequeue.
    pub queue_wait_s: f64,
    /// Seconds the job spent on its worker (all attempts, resume
    /// restores the originally persisted value instead of re-running).
    pub run_s: f64,
    /// Attempts consumed (`1 + retries`); 0 when the job never started
    /// (cancelled while queued).
    pub attempts: usize,
}

/// One job's result record. The deterministic fields (`steps`, `time`,
/// `retries`, `summary`) are bit-comparable across worker counts and
/// resumes and are what `report.csv` renders; wall-clock scheduling data
/// is quarantined in [`JobTiming`].
#[derive(Debug)]
pub struct JobRecord {
    /// Submission index (position in the report, stable across runs).
    pub id: usize,
    pub name: String,
    pub params: JobParams,
    pub status: JobStatus,
    /// Total steps taken by the attempt that finished (checkpoint-resumed
    /// steps included).
    pub steps: usize,
    /// Simulation clock reached.
    pub time: f64,
    /// Extra attempts consumed by the blow-up retry policy.
    pub retries: usize,
    /// The configured summary columns (empty unless `Done`).
    pub summary: Vec<f64>,
    /// Wall-clock queue-wait/run durations (never in `report.csv`).
    pub timing: JobTiming,
}

/// Wall-clock scheduling statistics of one `Ensemble::run`. Like
/// [`JobTiming`], never part of `report.csv`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedulerStats {
    /// Wall-clock seconds of the whole `run` call.
    pub wall_s: f64,
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Peak queue depth. The queue is fully populated before workers
    /// start, so this is the submission count; it is tracked as a
    /// high-water mark so streaming submission keeps the field honest.
    pub queue_depth_hwm: usize,
    /// Σ per-job run seconds / (workers × wall seconds): 1.0 means the
    /// pool was packed for the whole run.
    pub utilization: f64,
}

/// The aggregate result of one `Ensemble::run`, jobs in submission order.
#[derive(Debug)]
pub struct EnsembleReport {
    /// Names of the per-job summary columns.
    pub columns: Vec<String>,
    pub jobs: Vec<JobRecord>,
    /// Wall-clock scheduling statistics (excluded from `report.csv`).
    pub stats: SchedulerStats,
}

impl EnsembleReport {
    /// `(done, failed, cancelled)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let done = self.jobs.iter().filter(|j| j.status.is_done()).count();
        let failed = self.jobs.iter().filter(|j| j.status.is_failed()).count();
        (done, failed, self.jobs.len() - done - failed)
    }

    /// Look a job up by name.
    pub fn job(&self, name: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// The jobs that finished, in submission order.
    pub fn done(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.status.is_done())
    }

    /// One summary column across every `Done` job, in submission order.
    pub fn column(&self, name: &str) -> Result<Vec<f64>, Error> {
        let idx = self
            .columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| Error::Build(format!("no summary column {name:?}")))?;
        Ok(self.done().map(|j| j.summary[idx]).collect())
    }

    /// Render the report as CSV: fixed bookkeeping columns, then the
    /// union of parameter names (sorted), then the summary columns.
    /// Parameters a job does not define render empty.
    pub fn to_csv_string(&self) -> String {
        let mut pnames: BTreeSet<&str> = BTreeSet::new();
        for j in &self.jobs {
            pnames.extend(j.params.names());
        }
        let mut out = String::from("id,name,status,steps,time,retries");
        for p in &pnames {
            out.push(',');
            out.push_str(p);
        }
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for j in &self.jobs {
            out.push_str(&format!(
                "{},{},{},{},{:.17e},{}",
                j.id,
                j.name,
                j.status.label(),
                j.steps,
                j.time,
                j.retries
            ));
            for p in &pnames {
                out.push(',');
                if let Some(v) = j.params.try_get(p) {
                    out.push_str(&format!("{v:.17e}"));
                }
            }
            for i in 0..self.columns.len() {
                out.push(',');
                if let Some(v) = j.summary.get(i) {
                    out.push_str(&format!("{v:.17e}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Write the CSV atomically (temp + rename, [`write_atomic`]).
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let csv = self.to_csv_string();
        write_atomic(path.as_ref(), |w| w.write_all(csv.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, status: JobStatus, summary: Vec<f64>) -> JobRecord {
        JobRecord {
            id,
            name: format!("job_{id:04}"),
            params: JobParams::new().with("k", 0.1 * id as f64),
            status,
            steps: 10 * id,
            time: 1.5,
            retries: 0,
            summary,
            timing: JobTiming::default(),
        }
    }

    #[test]
    fn report_orders_counts_and_extracts_columns() {
        let report = EnsembleReport {
            columns: vec!["gamma".into()],
            jobs: vec![
                record(0, JobStatus::Done, vec![-0.15]),
                record(1, JobStatus::Failed(Error::Cancelled), vec![]),
                record(2, JobStatus::Done, vec![-0.25]),
                record(3, JobStatus::Cancelled, vec![]),
            ],
            stats: SchedulerStats::default(),
        };
        assert_eq!(report.counts(), (2, 1, 1));
        assert_eq!(report.column("gamma").unwrap(), vec![-0.15, -0.25]);
        assert!(report.column("nope").is_err());
        assert_eq!(report.job("job_0002").unwrap().id, 2);

        let csv = report.to_csv_string();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "id,name,status,steps,time,retries,k,gamma");
        assert!(lines[1].starts_with("0,job_0000,done,0,"));
        assert!(lines[2].contains(",failed,"));
        // Failed/cancelled jobs have an empty summary cell, not a fake 0.
        assert!(lines[2].ends_with(','), "{:?}", lines[2]);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("dg_ensemble_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.csv");
        let report = |jobs| EnsembleReport {
            columns: vec!["gamma".into()],
            jobs,
            stats: SchedulerStats::default(),
        };
        let long = report(
            (0..4)
                .map(|i| record(i, JobStatus::Done, vec![0.1]))
                .collect(),
        );
        long.write_csv(&path).unwrap();
        let short = report(vec![record(0, JobStatus::Done, vec![0.1])]);
        short.write_csv(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            short.to_csv_string()
        );
        assert!(!dir.join("report.csv.tmp").exists());
    }
}
