//! The benchmark's declarations: metric names, units, bounds and workloads.
//!
//! `/BENCHMARK.json` is generated from these tables (`-- emit-spec`) and a
//! unit test holds the two equal, so a metric the harness prints is a
//! metric the file declares and vice versa.

use crate::json::quote;

/// How long one driver run measures; also the `--seconds` default.
pub const RUN_SECONDS: u32 = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// One per-layer metric (no bound: it explains, it does not gate).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SETUP_S: &str = "setup_s";
pub const DOF_PER_S: &str = "dof_per_s";
pub const STEP_MS_P50: &str = "step_ms_p50";
pub const STEP_MS_P95: &str = "step_ms_p95";
pub const JOBS_PER_S: &str = "jobs_per_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Bounds are relative only (the contract has no absolute floor), sized
/// from the spreads measured on the 2-core shared reference host; see
/// README "Measured baseline".
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: DOF_PER_S,
        unit: "DOF/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: STEP_MS_P50,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: JOBS_PER_S,
        unit: "jobs/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        // A 7 MiB process moves by ±0.15 MiB with the allocator and the
        // page cache: 4 % between the quartiles in the worst batch seen.
        bound: 0.15,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer = crate/module name. The README table says which end-to-end
/// metric each should move, on which workload.
pub const PER_LAYER: &[Layer] = &[
    // Demoted from the end-to-end table: a 200-step tail cannot be
    // windowed away from host interference, so it does not repeat within
    // any bound the contract allows (README "Noise protocol").
    lower(STEP_MS_P95, "ms"),
    lower("dg_kernels.kernels_for_s", "s"),
    lower("dg_kernels.vol_ns_per_cell", "ns"),
    lower("dg_kernels.surf_ns_per_face", "ns"),
    lower("dg_kernels.mults_per_dof", "count"),
    lower("dg_kernels.bytes_per_dof_computed", "count"),
    higher("dg_kernels.mults_per_byte", "count"),
    lower("dg_kernels.generated_bytes", "count"),
    lower("dg_kernels.generated_lines", "count"),
    lower("dg_core.vlasov.volume_ns_per_dof", "ns/DOF"),
    lower("dg_core.vlasov.surface_config_ns_per_dof", "ns/DOF"),
    lower("dg_core.vlasov.surface_velocity_ns_per_dof", "ns/DOF"),
    lower("dg_core.vlasov.cells_swept", "count/step"),
    lower("dg_core.vlasov.faces_swept", "count/step"),
    lower("dg_core.lbo.rhs_ns_per_dof", "ns/DOF"),
    lower("dg_core.moments.current_ns_per_dof", "ns/DOF"),
    lower("dg_maxwell.rhs_ns_per_conf_dof", "ns"),
    lower("dg_maxwell.add_sources_ns", "ns"),
    lower("dg_core.system.rhs_ns_per_dof", "ns/DOF"),
    lower("dg_core.system.rhs_self_frac", "frac"),
    higher("dg_grid.copy_gb_per_s", "GB/s"),
    higher("dg_grid.axpy_gb_per_s", "GB/s"),
    higher("dg_grid.lincomb_gb_per_s", "GB/s"),
    lower("dg_grid.stage_ops_ns_per_dof", "ns/DOF"),
    lower("dg_grid.max_abs_ns_per_dof", "ns/DOF"),
    lower("dg_core.cfl.suggest_dt_ns_per_dof", "ns/DOF"),
    lower("dg_core.ssprk.step_ns_per_dof", "ns/DOF"),
    lower("dg_core.ssprk.step_overhead_frac", "frac"),
    lower("dg_core.blocks.rhs_ns_per_dof_t1", "ns/DOF"),
    lower("dg_core.blocks.rhs_ns_per_dof_t2", "ns/DOF"),
    higher("dg_core.blocks.speedup_t2", "ratio"),
    lower("dg_parallel.rhs_ns_per_dof_r2", "ns/DOF"),
    lower("dg_core.species.project_initial_s", "s"),
    lower("dg_core.app.build_s", "s"),
    lower("dg_core.app.step_dt_ns_per_dof", "ns/DOF"),
    lower("dg_core.app.run_overhead_frac", "frac"),
    lower("dg_diag.energy_history_record_us", "us"),
    lower("dg_diag.csv_row_us", "us"),
    higher("dg_diag.snapshot_write_mb_per_s", "MB/s"),
    higher("dg_diag.snapshot_read_mb_per_s", "MB/s"),
    lower("dg_diag.checkpoint_save_ms", "ms"),
    lower("dg_diag.checkpoint_load_ms", "ms"),
    lower("dg_diag.checkpoint_bytes", "count"),
    lower("dg_ensemble.job_run_ms_p50", "ms"),
    lower("dg_ensemble.queue_wait_ms_p50", "ms"),
    lower("dg_ensemble.overhead_vs_bare_loop_frac", "frac"),
    lower("dg_ensemble.artifact_bytes_per_job", "count"),
    lower("dg_ensemble.retries", "count"),
    lower("dg_telemetry.collection_overhead_frac", "frac"),
    lower("dg_telemetry.span_disagreement_frac", "frac"),
    lower("trace.overhead_frac", "frac"),
    lower("ladder.replica_vs_real_frac", "frac"),
    lower("ladder.rhs3_plus_stage_vs_step_frac", "frac"),
    lower("ladder.unattributed_frac", "frac"),
];

pub const EOP: &str = "eop_2x3v_p2";
pub const COLL: &str = "coll_1x2v_p2";
pub const LANDAU_IO: &str = "landau_1x1v_io";
pub const ENSEMBLE: &str = "ensemble_landau_w2";

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: EOP,
        why: "paper Eop config as a run: 2x3v p2, conf 4^2 x vel 6^3, 387072 DOF, 1 thread, fixed dt; Np=112 unrolled volume/surface kernels do ~all the work; LBO, pool, IO and scheduler are bypassed",
    },
    WorkloadDecl {
        name: COLL,
        why: "two colliding species, 1x2v p2, conf 16 x vel 24^2, 368640 DOF, 1 thread, fixed dt; the only single run where LboOp (drag, LDG gradient, diffusion, moment solves) and two-species coupling weigh in",
    },
    WorkloadDecl {
        name: LANDAU_IO,
        why: "Landau damping 1x1v p2 64x64 (cache-resident), adaptive dt, EnergyHistory + streaming CSV + checkpoint every 10 steps + mid-run restore; per-step fixed costs and IO dominate, kernels are trivial",
    },
    WorkloadDecl {
        name: ENSEMBLE,
        why: "512 short Landau jobs (1x1v p2, 8x16, t_end 3) through Ensemble, 2 workers, fresh out_dir; per-job build, queue bookkeeping and small-file artifacts are first-order; many tiny states, not one large",
    },
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["benchmark"];

/// The exact contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let strs = |v: &[&str]| -> String {
        let q: Vec<String> = v.iter().map(|s| quote(s)).collect();
        format!("[{}]", q.join(", "))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strs(COMMAND),
        strs(PATHS),
        RUN_SECONDS,
        list(workloads),
        list(e2e),
        list(layers)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn benchmark_json_on_disk_is_what_the_tables_declare() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `-- emit-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
