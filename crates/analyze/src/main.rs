//! CLI: `dg-analyze [--root <dir>] [--deny-warnings] [--json <path>] [--quiet]`
//!
//! Exit status 0 when the tree is clean (or carries only warnings
//! without `--deny-warnings`), 1 on findings, 2 on usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    deny_warnings: bool,
    json: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        deny_warnings: false,
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-warnings" => args.deny_warnings = true,
            "--quiet" => args.quiet = true,
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root needs a directory argument")?,
                ))
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next().ok_or("--json needs a file argument")?,
                ))
            }
            "--help" | "-h" => {
                println!(
                    "dg-analyze: workspace invariant linter\n\
                     \n\
                     USAGE: dg-analyze [--root <dir>] [--deny-warnings] [--json <path>] [--quiet]\n\
                     \n\
                     Enforces the four rule families (unsafe_audit, hot_alloc, determinism,\n\
                     telemetry_span) over crates/, shims/, src/, tests/ and the kernels\n\
                     dg-kernels generates at build time. See DESIGN.md\n\
                     \"Static analysis & invariants\" for the rule catalog and waiver syntax."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dg-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match dg_analyze::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "dg-analyze: no workspace root at or above {} (pass --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match dg_analyze::analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dg-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(json) = &args.json {
        if let Some(parent) = json.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(json, report.to_json()) {
            eprintln!("dg-analyze: writing {}: {e}", json.display());
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "dg-analyze: {} files scanned, {} errors, {} warnings{}",
            report.files_scanned,
            report.errors(),
            report.warnings(),
            if args.deny_warnings {
                " (warnings denied)"
            } else {
                ""
            }
        );
    }
    if dg_analyze::failed(&report, args.deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
