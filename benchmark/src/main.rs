//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- trace --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- repeat --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- smoke
//! # what the driver runs (one workload, last line is one JSON object):
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload eop_2x3v_p2 --seed 1 --seconds 12 --trace 0
//! ```

mod checks;
mod child;
mod json;
mod run;
mod spans;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{Dirs, Plan};
use std::process::ExitCode;
use workloads::Scale;

const USAGE: &str =
    "usage: dg-benchmark <run|trace|repeat|smoke|emit-spec> [--seed N] [--workload NAME]
       dg-benchmark --workload NAME --seed N --seconds S --trace 0|1";

/// Repeats per workload in a `run`/`repeat` set.
const SET_REPEATS: usize = 3;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    scale: Scale,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        scale: Scale::Full,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = it.next();
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !spec::is_workload(&value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => args.scale = Scale::parse(&value).ok_or_else(bad)?,
            "--setup-only" => args.setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn selected(args: &Args) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

fn set_plan(scale: Scale) -> impl Fn(&str) -> Plan {
    move |w| Plan {
        repeats: SET_REPEATS,
        ..run::plan(w, spec::RUN_SECONDS, scale)
    }
}

/// One set of every selected workload: print it, write `out/result.json`.
fn run_all(dirs: &Dirs, args: &Args, scale: Scale) -> std::io::Result<bool> {
    let results = run::run_set(
        dirs,
        &selected(args),
        args.seed,
        scale,
        &set_plan(scale),
        true,
    );
    run::print_table(&results);
    let path = dirs.out.join("result.json");
    std::fs::write(&path, run::results_json(&results, args.seed, scale))?;
    println!("\nwrote {}", path.display());
    Ok(results.iter().all(|r| r.correct()))
}

fn repeat(dirs: &Dirs, args: &Args) -> bool {
    let workloads = selected(args);
    let plan = set_plan(Scale::Full);
    eprintln!("set 1");
    let a = run::run_set(dirs, &workloads, args.seed, Scale::Full, &plan, true);
    eprintln!("set 2");
    let b = run::run_set(dirs, &workloads, args.seed, Scale::Full, &plan, true);
    run::print_table(&a);
    run::print_table(&b);
    let bad = run::compare_sets(&a, &b);
    if bad.is_empty() {
        println!("\nrepeat OK: both sets agree within every bound");
    } else {
        println!("\nrepeat FAILED: {}", bad.join(", "));
    }
    bad.is_empty() && a.iter().chain(&b).all(|r| r.correct())
}

/// The traced run of one workload, plus one plain repeat for its tail.
fn traced(dirs: &Dirs, args: &Args, workload: &'static str) -> trace::TraceReport {
    let mut report = trace::trace_workload(dirs, workload, args.seed, args.scale);
    report.set_untraced_tail(run::spawn_child(
        dirs, workload, args.seed, args.scale, false,
    ));
    report
}

/// `-- trace` gives every workload a process of its own, as the driver
/// does, so each pays for its kernel tables (`dg_kernels.kernels_for_s`)
/// instead of finding them cached by the workload before it.
fn trace_in_child(args: &Args, workload: &str) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        return false;
    };
    std::process::Command::new(exe)
        .args(["--workload", workload, "--trace", "1"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--scale", args.scale.as_str()])
        .status()
        .is_ok_and(|s| s.success())
}

/// What the driver runs: one workload, one JSON object on the last line.
fn driver(dirs: &Dirs, args: &Args, workload: &'static str) -> bool {
    if args.trace {
        let report = traced(dirs, args, workload);
        report.print();
        println!("{}", report.driver_line());
        return report.correct();
    }
    let plan = |w: &str| run::plan(w, args.seconds, args.scale);
    let results = run::run_set(dirs, &[workload], args.seed, args.scale, &plan, false);
    run::print_table(&results);
    println!("{}", run::driver_line(&results[0]));
    results[0].correct()
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if args.command.as_deref() == Some("emit-spec") {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    let dirs = Dirs::locate()?;
    if args.command.as_deref() == Some("child") {
        let workload = args.workload.as_deref().ok_or("child needs --workload")?;
        return child::run_child(workload, args.seed, args.scale, args.setup_only, &dirs.out)
            .map(|()| true);
    }
    // The benchmark must not dirty the tree: everything it writes goes
    // under benchmark/out/, and a changed `git status` fails the run.
    let before = run::tree_status(&dirs.root);
    let io = |e: std::io::Error| format!("writing results: {e}");
    let ok = match args.command.as_deref() {
        Some("run") => run_all(&dirs, args, Scale::Full).map_err(io)?,
        Some("smoke") => run_all(&dirs, args, Scale::Smoke).map_err(io)?,
        Some("repeat") => repeat(&dirs, args),
        Some("trace") => selected(args).into_iter().all(|w| trace_in_child(args, w)),
        None => {
            if args.workload.is_none() {
                return Err(USAGE.to_string());
            }
            driver(&dirs, args, selected(args)[0])
        }
        Some(other) => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    if let (Some(before), Some(after)) = (before, run::tree_status(&dirs.root)) {
        let dirty = run::newly_dirty(&before, &after);
        if !dirty.is_empty() {
            return Err(format!(
                "the benchmark dirtied the tree outside benchmark/out/:\n{}",
                dirty.join("\n")
            ));
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
