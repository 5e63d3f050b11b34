//! The parent side: schedule repeats as fresh child processes, keep the
//! best repeat, carry the spread, check determinism, print and compare.

use crate::child::Repeat;
use crate::json::{self, array, num, object, quote};
use crate::spec::{self, EndToEnd, END_TO_END};
use crate::stats::{best_of, spread_rel, worse_by};
use crate::workloads::Scale;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where the benchmark may write: `benchmark/out/` and nothing else.
pub struct Dirs {
    pub root: PathBuf,
    pub out: PathBuf,
}

impl Dirs {
    /// The checkout root is the working directory: the driver and the
    /// README both run the benchmark from there.
    pub fn locate() -> Result<Dirs, String> {
        let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
        if !root.join("benchmark/Cargo.toml").is_file() {
            return Err("run the benchmark from the repository root".to_string());
        }
        let out = root.join("benchmark/out");
        std::fs::create_dir_all(&out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        Ok(Dirs { root, out })
    }
}

/// How many measuring repeats one run of a workload makes, and how many
/// set-up-only probe processes go before each. A function of the
/// arguments alone — never of measured time — so parent and change always
/// do identical work.
pub struct Plan {
    pub repeats: usize,
    pub probes_per_repeat: usize,
}

/// Repeats of one driver run at `--seconds = RUN_SECONDS`, sized so a run
/// takes about 20 s on the reference host: one repeat is ~9.5 s on eop
/// (set-up included), ~7 s on coll, ~4.5 s on landau, ~3.5 s on the
/// ensemble. The two-core ensemble is the noisiest and gets the most.
fn base_repeats(workload: &str) -> usize {
    match workload {
        spec::EOP | spec::COLL => 2,
        spec::LANDAU_IO => 3,
        _ => 4,
    }
}

pub fn plan(workload: &str, seconds: u32, scale: Scale) -> Plan {
    if scale == Scale::Smoke {
        return Plan {
            repeats: 2,
            probes_per_repeat: 1,
        };
    }
    let repeats = (base_repeats(workload) * seconds as usize)
        .div_ceil(spec::RUN_SECONDS as usize)
        .max(2);
    // Every repeat times its set-up, and set-up-only processes before it
    // sample it some more. The host's speed moves between plateaus that
    // last seconds (a 25 ms build reads 25, 33, 44 or 55 ms), and only
    // the lowest repeats, so the cheaper a set-up is the more often it is
    // probed; eop's (IC projection, ~2.6 s) once per repeat. The
    // ensemble's comes from probes alone (see child::run_ensemble).
    let probes_per_repeat = match workload {
        spec::EOP => 1,
        spec::LANDAU_IO => 8,
        spec::ENSEMBLE => 10,
        _ => 3,
    };
    Plan {
        repeats,
        probes_per_repeat,
    }
}

pub fn spawn_child(
    dirs: &Dirs,
    workload: &str,
    seed: u64,
    scale: Scale,
    setup_only: bool,
) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", scale.as_str()])
        .args(["--setup-only", if setup_only { "1" } else { "0" }])
        .current_dir(&dirs.root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    // `output` waits for the child, so none outlives the parent.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {workload} exited with {}", out.status));
    }
    Repeat::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Every repeat of one workload in one set, plus the parent's verdicts.
pub struct WorkloadResult {
    pub workload: &'static str,
    pub repeats: Vec<Repeat>,
    pub setup_samples: Vec<f64>,
    /// Failures only the parent can see (determinism, cross-workload).
    pub failures: Vec<String>,
}

impl WorkloadResult {
    fn values(&self, m: &EndToEnd) -> Vec<f64> {
        if m.name == spec::SETUP_S {
            self.setup_samples.clone()
        } else {
            self.repeats.iter().map(|r| r.metric(m.name)).collect()
        }
    }

    /// The reported value: the least disturbed repeat (min of a time, max
    /// of a rate) — each repeat having already kept its quietest window.
    pub fn value(&self, m: &EndToEnd) -> f64 {
        let v = self.values(m);
        if v.is_empty() {
            f64::NAN
        } else {
            best_of(&v, m.better)
        }
    }

    /// `(worst − best) / best` over the repeats: the noise floor.
    pub fn spread_rel(&self, m: &EndToEnd) -> f64 {
        let v = self.values(m);
        if v.is_empty() {
            f64::NAN
        } else {
            spread_rel(&v, m.better)
        }
    }

    pub fn ops_attempted(&self) -> u64 {
        self.repeats
            .iter()
            .map(|r| r.ops_attempted)
            .sum::<u64>()
            .max(1)
    }

    pub fn ops_failed(&self) -> u64 {
        self.repeats.iter().map(|r| r.ops_failed).sum::<u64>() + self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.ops_failed() == 0
            && !self.repeats.is_empty()
            && END_TO_END.iter().all(|m| {
                let v = self.value(m);
                v.is_finite() && v > 0.0
            })
    }

    fn all_failures(&self) -> Vec<String> {
        let mut out = self.failures.clone();
        for (i, r) in self.repeats.iter().enumerate() {
            out.extend(r.failures.iter().map(|f| format!("repeat {i}: {f}")));
        }
        out
    }
}

/// One set: `repeats(w)` measuring children per workload, scheduled
/// round-robin (A B C A B C …) so a slow minute on the host is spread over
/// all workloads, with the set-up probes in between.
pub fn run_set(
    dirs: &Dirs,
    workloads: &[&'static str],
    seed: u64,
    scale: Scale,
    plan_of: &dyn Fn(&str) -> Plan,
    progress: bool,
) -> Vec<WorkloadResult> {
    let mut results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|&w| WorkloadResult {
            workload: w,
            repeats: Vec::new(),
            setup_samples: Vec::new(),
            failures: Vec::new(),
        })
        .collect();
    let plans: Vec<Plan> = workloads.iter().map(|w| plan_of(w)).collect();
    let most = plans.iter().map(|p| p.repeats).max().unwrap_or(0);
    for rep in 0..most {
        for (res, plan) in results.iter_mut().zip(&plans) {
            if rep >= plan.repeats {
                continue;
            }
            if progress {
                eprintln!("  {} repeat {}/{}", res.workload, rep + 1, plan.repeats);
            }
            // Probes before every repeat spread the set-up samples over
            // the run instead of bunching them in one episode of the host.
            for _ in 0..plan.probes_per_repeat {
                match spawn_child(dirs, res.workload, seed, scale, true) {
                    Ok(r) if r.ops_failed == 0 => res.setup_samples.push(r.setup_s),
                    Ok(r) => res.failures.extend(r.failures),
                    Err(e) => res.failures.push(e),
                }
            }
            match spawn_child(dirs, res.workload, seed, scale, false) {
                Ok(r) => {
                    // The ensemble's set-up is timed by its probes alone.
                    if res.workload != spec::ENSEMBLE {
                        res.setup_samples.push(r.setup_s);
                    }
                    res.repeats.push(r);
                }
                Err(e) => res.failures.push(e),
            }
        }
    }
    // Determinism: every repeat of a workload ends in the same bits.
    for res in &mut results {
        if let Some(first) = res.repeats.first().map(|r| r.hash) {
            if res.repeats.iter().any(|r| r.hash != first) {
                let all: Vec<String> = res
                    .repeats
                    .iter()
                    .map(|r| format!("{:016x}", r.hash))
                    .collect();
                res.failures.push(format!(
                    "final-state hash differs across repeats: {}",
                    all.join(" ")
                ));
            }
        }
    }
    results
}

pub fn print_table(results: &[WorkloadResult]) {
    for res in results {
        println!(
            "\n{}  ops_attempted={} ops_failed={} repeats={}",
            res.workload,
            res.ops_attempted(),
            res.ops_failed(),
            res.repeats.len()
        );
        for m in END_TO_END {
            let all: Vec<String> = res.values(m).iter().map(|v| format!("{v:.5e}")).collect();
            println!(
                "  {:<12} {:>13.6e} {:<7} spread_rel={:.4} bound={:.2}  [{}]",
                m.name,
                res.value(m),
                m.unit,
                res.spread_rel(m),
                m.bound,
                all.join(" ")
            );
        }
        if let Some(r) = res.repeats.first() {
            println!(
                "  step_ms_p95 = {:.6e} ms over {} samples (whole repeat, not gated), final_hash={:016x}",
                r.step_ms_p95, r.samples, r.hash
            );
            for (k, v) in &r.checks {
                println!("  checks.{k} = {v:e}");
            }
        }
        for f in res.all_failures() {
            println!("  FAILED: {f}");
        }
    }
}

pub fn results_json(results: &[WorkloadResult], seed: u64, scale: Scale) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|res| {
            let metrics: Vec<(String, String)> = END_TO_END
                .iter()
                .map(|m| {
                    let repeats: Vec<String> = res.values(m).iter().map(|&v| num(v)).collect();
                    (
                        m.name.to_string(),
                        object(&[
                            ("value".into(), num(res.value(m))),
                            ("unit".into(), quote(m.unit)),
                            ("spread_rel".into(), num(res.spread_rel(m))),
                            ("repeats".into(), array(&repeats)),
                        ]),
                    )
                })
                .collect();
            let checks: Vec<(String, String)> = res
                .repeats
                .first()
                .map(|r| r.checks.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
                .unwrap_or_default();
            let failures: Vec<String> = res.all_failures().iter().map(|f| quote(f)).collect();
            object(&[
                ("name".into(), quote(res.workload)),
                ("ops_attempted".into(), res.ops_attempted().to_string()),
                ("ops_failed".into(), res.ops_failed().to_string()),
                (
                    "final_hash".into(),
                    quote(
                        &res.repeats
                            .first()
                            .map_or(String::new(), |r| format!("{:016x}", r.hash)),
                    ),
                ),
                ("metrics".into(), object(&metrics)),
                ("checks".into(), object(&checks)),
                ("failures".into(), array(&failures)),
            ])
        })
        .collect();
    object(&[
        ("seed".to_string(), seed.to_string()),
        ("scale".to_string(), quote(scale.as_str())),
        ("workloads".to_string(), array(&workloads)),
    ]) + "\n"
}

/// The driver's last line for `--trace 0`.
pub fn driver_line(res: &WorkloadResult) -> String {
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, res.value(m), m.unit))
        .collect();
    json::driver_line(
        res.correct(),
        res.ops_attempted(),
        res.ops_failed(),
        &metrics,
    )
}

/// Compare two sets of the same code against the benchmark's own bounds:
/// each metric of each workload must agree within its bound, and the
/// spread inside each set must stay below it. Returns the disagreements.
pub fn compare_sets(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<String> {
    let mut bad = Vec::new();
    println!(
        "\n{:<20} {:<12} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "differ", "spread1", "spread2", "bound"
    );
    for (ra, rb) in a.iter().zip(b) {
        for m in END_TO_END {
            let (va, vb) = (ra.value(m), rb.value(m));
            let differ = worse_by(va, vb, m.better)
                .abs()
                .max(worse_by(vb, va, m.better).abs());
            let (sa, sb) = (ra.spread_rel(m), rb.spread_rel(m));
            let ok = differ <= m.bound;
            println!(
                "{:<20} {:<12} {:>13.6e} {:>13.6e} {:>8.4} {:>8.4} {:>8.4} {:>6.2}{}",
                ra.workload,
                m.name,
                va,
                vb,
                differ,
                sa,
                sb,
                m.bound,
                if ok { "" } else { "  <-- outside bound" }
            );
            if !ok {
                bad.push(format!("{} {}", ra.workload, m.name));
            }
        }
    }
    bad
}

/// `git status --porcelain` of the checkout, or `None` when it is not a
/// git checkout (the driver's is not).
pub fn tree_status(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["status", "--porcelain", "--untracked-files=all"])
        .stdin(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Lines of `after` that `before` did not have: what the run dirtied.
pub fn newly_dirty(before: &str, after: &str) -> Vec<String> {
    let had: std::collections::BTreeSet<&str> = before.lines().collect();
    after
        .lines()
        .filter(|l| !had.contains(l))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeat(dof: f64, p50: f64, hash: u64) -> Repeat {
        Repeat {
            setup_s: 2.0,
            dof_per_s: dof,
            step_ms_p50: p50,
            step_ms_p95: p50 * 1.2,
            jobs_per_s: 0.1,
            peak_rss_mb: 40.0,
            samples: 200,
            ops_attempted: 200,
            hash,
            ..Repeat::default()
        }
    }

    fn result(repeats: Vec<Repeat>) -> WorkloadResult {
        WorkloadResult {
            workload: spec::EOP,
            setup_samples: vec![2.5, 2.0, 2.1],
            repeats,
            failures: Vec::new(),
        }
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn reported_value_is_the_best_repeat_and_carries_its_spread() {
        let res = result(vec![
            repeat(1.0e7, 66.0, 1),
            repeat(1.2e7, 63.0, 1),
            repeat(0.9e7, 79.0, 1),
        ]);
        assert_eq!(res.value(metric(spec::DOF_PER_S)), 1.2e7);
        assert_eq!(res.value(metric(spec::STEP_MS_P50)), 63.0);
        assert!((res.spread_rel(metric(spec::STEP_MS_P50)) - 16.0 / 63.0).abs() < 1e-15);
        assert_eq!(res.value(metric(spec::SETUP_S)), 2.0);
        assert_eq!((res.ops_attempted(), res.ops_failed()), (600, 0));
        assert!(res.correct());
    }

    #[test]
    fn a_failed_check_or_a_zero_metric_is_not_correct() {
        let mut res = result(vec![repeat(1.0e7, 66.0, 1)]);
        res.repeats[0].ops_failed = 1;
        assert!(!res.correct());
        let res = result(vec![repeat(0.0, 66.0, 1)]);
        assert!(!res.correct());
        assert!(!result(Vec::new()).correct());
    }

    #[test]
    fn driver_line_names_every_declared_end_to_end_metric_and_no_other() {
        let line = driver_line(&result(vec![repeat(1.0e7, 66.0, 1)]));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 200, \"failed\": 0, \"metrics\": {"));
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{} missing from {line}",
                m.name
            );
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn repeat_count_comes_from_the_arguments_alone() {
        assert_eq!(plan(spec::EOP, spec::RUN_SECONDS, Scale::Full).repeats, 2);
        assert_eq!(
            plan(spec::LANDAU_IO, spec::RUN_SECONDS, Scale::Full).repeats,
            3
        );
        assert_eq!(
            plan(spec::ENSEMBLE, spec::RUN_SECONDS, Scale::Full).repeats,
            4
        );
        assert_eq!(plan(spec::COLL, spec::RUN_SECONDS, Scale::Full).repeats, 2);
        assert_eq!(plan(spec::EOP, 60, Scale::Full).repeats, 10);
        assert_eq!(plan(spec::EOP, 1, Scale::Full).repeats, 2);
        assert_eq!(plan(spec::ENSEMBLE, 60, Scale::Smoke).repeats, 2);
    }

    #[test]
    fn dirty_tree_check_reports_only_new_lines() {
        let before = " M ISSUE.md\n?? benchmark/src/main.rs\n";
        let after = " M ISSUE.md\n?? benchmark/src/main.rs\n M BENCH_9.json\n";
        assert_eq!(
            newly_dirty(before, after),
            vec![" M BENCH_9.json".to_string()]
        );
        assert!(newly_dirty(before, before).is_empty());
    }
}
