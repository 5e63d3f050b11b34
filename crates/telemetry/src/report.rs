//! Cold reporting layer: the dt trace ring, blow-up breadcrumbs, and
//! the schema-stable `telemetry.json` [`RunReport`].
//!
//! JSON is hand-rolled (the container has no serde) with a fixed key
//! order, `{:.17e}` floats, and a `schema` marker — the same contract
//! as `dg_bench::report`, so reports from different runs and ranks
//! diff cleanly. [`validate_json`] checks the full key set and is what
//! CI runs against the smoke-test artifact.

use crate::collect::Snapshot;
use crate::phase::{Counter, Phase};
use std::path::Path;

/// Schema identifier embedded in every report; bump when keys change.
pub const SCHEMA: &str = "dg-telemetry/v2";

/// Capacity of the [`DtRing`] step-size trace.
pub const DT_RING_LEN: usize = 32;

/// Fixed-capacity ring of the most recent accepted step sizes.
///
/// Pushed once per accepted step by the run driver; fixed arrays only,
/// so the hot loop never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DtRing {
    buf: [f64; DT_RING_LEN],
    head: usize,
    len: usize,
}

impl Default for DtRing {
    fn default() -> Self {
        DtRing {
            buf: [0.0; DT_RING_LEN],
            head: 0,
            len: 0,
        }
    }
}

impl DtRing {
    /// Record an accepted dt (evicting the oldest once full).
    #[inline]
    pub fn push(&mut self, dt: f64) {
        self.buf[self.head] = dt;
        self.head = (self.head + 1) % DT_RING_LEN;
        self.len = (self.len + 1).min(DT_RING_LEN);
    }

    /// Number of retained entries (≤ [`DT_RING_LEN`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most recently pushed dt.
    pub fn last(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.buf[(self.head + DT_RING_LEN - 1) % DT_RING_LEN])
        }
    }

    /// Retained trace, oldest first (cold path; allocates).
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        let start = (self.head + DT_RING_LEN - self.len) % DT_RING_LEN;
        for i in 0..self.len {
            out.push(self.buf[(start + i) % DT_RING_LEN]);
        }
        out
    }
}

/// What the solver was doing when a run blew up: attached (boxed) to
/// `Error::BlowUp` so ensemble retry logs and postmortems are
/// actionable without re-running.
#[derive(Clone, Debug, PartialEq)]
pub struct Breadcrumb {
    /// Recent accepted step sizes, oldest first.
    pub dt_trace: Vec<f64>,
    /// Cumulative phase timings and counters at the blow-up instant.
    pub phases: Snapshot,
}

/// The end-of-run `telemetry.json` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Run label (example name, ensemble job id, bench section).
    pub name: String,
    /// Wall-clock seconds spent inside the run driver.
    pub wall_s: f64,
    /// Steps taken.
    pub steps: u64,
    /// Last accepted dt (0 when no step was taken).
    pub last_dt: f64,
    /// Recent accepted dts, oldest first (≤ [`DT_RING_LEN`] entries).
    pub dt_trace: Vec<f64>,
    /// Writer slots the registry was sized with (1 = serial).
    pub nslots: usize,
    /// The kernel entry points each operator of the run resolved
    /// (`vlasov generated/avx512x8 + generated/avx2x4, lbo
    /// generated/avx2x4`, `vlasov runtime-sparse`, …), so the timings below
    /// say which machine code produced them. Empty when the report was not
    /// built from an operator.
    pub kernel_entry_points: String,
    /// Merged phase timings and counters.
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Serialize with the stable v2 schema: fixed key order, `{:.17e}`
    /// floats, every phase and counter present even when zero.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"name\": {},\n", json_str(&self.name)));
        s.push_str(&format!("  \"wall_s\": {:.17e},\n", self.wall_s));
        s.push_str(&format!("  \"steps\": {},\n", self.steps));
        s.push_str(&format!("  \"last_dt\": {:.17e},\n", self.last_dt));
        s.push_str("  \"dt_trace\": [");
        for (i, dt) in self.dt_trace.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{dt:.17e}"));
        }
        s.push_str("],\n");
        s.push_str(&format!("  \"nslots\": {},\n", self.nslots));
        s.push_str(&format!(
            "  \"kernel_entry_points\": {},\n",
            json_str(&self.kernel_entry_points)
        ));
        s.push_str("  \"phases\": {\n");
        for (i, p) in Phase::ALL.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"ns\": {}, \"calls\": {}}}{}\n",
                p.name(),
                self.snapshot.phase_ns(*p),
                self.snapshot.phase_calls(*p),
                if i + 1 < Phase::ALL.len() { "," } else { "" }
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {}{}\n",
                c.name(),
                self.snapshot.counter(*c),
                if i + 1 < Counter::ALL.len() { "," } else { "" }
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Crash-safe write: serialize to `<path>.tmp` in the same
    /// directory, then rename over `path` — a reader never sees a
    /// partial report.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        let tmp = tmp_path(path);
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Rank-ordered reduction of per-rank reports: snapshots merge in
    /// the given (rank) order, wall time is the max across ranks, and
    /// identity fields come from rank 0.
    pub fn merge_ranks(reports: &[RunReport]) -> Option<RunReport> {
        let first = reports.first()?;
        let mut out = first.clone();
        for r in &reports[1..] {
            out.snapshot.merge(&r.snapshot);
            out.wall_s = out.wall_s.max(r.wall_s);
            out.steps = out.steps.max(r.steps);
            out.nslots += r.nslots;
        }
        Some(out)
    }

    /// Human-readable per-phase table (the `DG_TELEMETRY=1` summary
    /// printed by examples).
    pub fn summary_table(&self) -> String {
        let total = self.snapshot.total_ns().max(1);
        let mut s = String::new();
        s.push_str(&format!(
            "telemetry: {} — {} steps, {:.3} s wall, last dt {:.3e}\n",
            self.name, self.steps, self.wall_s, self.last_dt
        ));
        if !self.kernel_entry_points.is_empty() {
            s.push_str(&format!("  kernels: {}\n", self.kernel_entry_points));
        }
        s.push_str(&format!(
            "  {:<16} {:>12} {:>7} {:>12}\n",
            "phase", "time (s)", "%", "calls"
        ));
        for p in Phase::ALL {
            let ns = self.snapshot.phase_ns(p);
            if ns == 0 && self.snapshot.phase_calls(p) == 0 {
                continue;
            }
            s.push_str(&format!(
                "  {:<16} {:>12.6} {:>6.1}% {:>12}\n",
                p.name(),
                ns as f64 * 1e-9,
                100.0 * ns as f64 / total as f64,
                self.snapshot.phase_calls(p)
            ));
        }
        s.push_str(&format!(
            "  {:<16} {:>12.6} {:>6.1}%\n",
            "instrumented",
            total as f64 * 1e-9,
            100.0 * total as f64 / (self.wall_s * 1e9).max(1.0)
        ));
        s.push_str("  counters:");
        for c in Counter::ALL {
            s.push_str(&format!(" {}={}", c.name(), self.snapshot.counter(c)));
        }
        s.push('\n');
        s
    }
}

/// `<path>.tmp` beside `path` (same filesystem, so the rename in
/// [`RunReport::write_atomic`] is atomic).
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Validate a serialized report against the v2 schema: the schema
/// marker, every top-level key, and every phase/counter key must be
/// present. Returns the list of missing keys on failure.
pub fn validate_json(json: &str) -> Result<(), Vec<String>> {
    let mut missing = Vec::new();
    let mut need = |key: String| {
        if !json.contains(&key) {
            missing.push(key);
        }
    };
    need(format!("\"schema\": \"{SCHEMA}\""));
    for k in [
        "name",
        "wall_s",
        "steps",
        "last_dt",
        "dt_trace",
        "nslots",
        "kernel_entry_points",
        "phases",
        "counters",
    ] {
        need(format!("\"{k}\":"));
    }
    for p in Phase::ALL {
        need(format!("\"{}\":", p.name()));
    }
    for c in Counter::ALL {
        need(format!("\"{}\":", c.name()));
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut snap = Snapshot::default();
        snap.ns[Phase::Volume.idx()] = 1_000_000;
        snap.calls[Phase::Volume.idx()] = 10;
        snap.counters[Counter::RhsEvals.idx()] = 30;
        RunReport {
            name: "sample".into(),
            wall_s: 0.5,
            steps: 10,
            last_dt: 1e-3,
            dt_trace: vec![1e-3, 1e-3],
            nslots: 1,
            kernel_entry_points: "vlasov generated/avx2x4".into(),
            snapshot: snap,
        }
    }

    #[test]
    fn dt_ring_evicts_oldest() {
        let mut r = DtRing::default();
        assert!(r.is_empty());
        assert_eq!(r.last(), None);
        for i in 0..(DT_RING_LEN + 3) {
            r.push(i as f64);
        }
        assert_eq!(r.len(), DT_RING_LEN);
        assert_eq!(r.last(), Some((DT_RING_LEN + 2) as f64));
        let v = r.to_vec();
        assert_eq!(v.len(), DT_RING_LEN);
        assert_eq!(v[0], 3.0);
        assert_eq!(*v.last().unwrap(), (DT_RING_LEN + 2) as f64);
    }

    #[test]
    fn report_roundtrips_schema_validation() {
        let json = sample().to_json();
        validate_json(&json).unwrap();
        // Dropping any phase key must fail validation.
        let broken = json.replace("\"volume\":", "\"vol\":");
        assert!(validate_json(&broken).is_err());
    }

    #[test]
    fn write_atomic_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("dg_telemetry_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.json");
        sample().write_atomic(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_json(&text).unwrap();
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_ranks_is_rank_ordered_and_additive() {
        let a = sample();
        let mut b = sample();
        b.name = "rank1".into();
        b.wall_s = 0.7;
        b.snapshot.counters[Counter::RhsEvals.idx()] = 12;
        let m = RunReport::merge_ranks(&[a.clone(), b]).unwrap();
        assert_eq!(m.name, "sample");
        assert_eq!(m.wall_s, 0.7);
        assert_eq!(m.nslots, 2);
        assert_eq!(m.snapshot.counter(Counter::RhsEvals), 42);
        assert!(RunReport::merge_ranks(&[]).is_none());
    }

    #[test]
    fn summary_table_lists_active_phases_only() {
        let t = sample().summary_table();
        assert!(t.contains("volume"));
        assert!(t.contains("kernels: vlasov generated/avx2x4"));
        assert!(!t.contains("lbo_drag"));
        assert!(t.contains("rhs_evals=30"));
    }
}
