//! Telemetry invariants, end to end through the public App/Ensemble API:
//!
//! * collection ON vs OFF is **bit-identical** — states, the adaptive dt
//!   sequence, observer samples, and wall ledgers — at every thread
//!   count and every ensemble worker count (telemetry only reads clocks
//!   and bumps its own relaxed atomics, never simulation state);
//! * instrumented ensemble jobs persist a per-job `telemetry.json` that
//!   validates against the v1 schema, while `report.csv` / series /
//!   checkpoints stay byte-identical to uninstrumented runs;
//! * `Snapshot` merging is deterministic and order-independent
//!   (property-tested over randomized per-slot partials);
//! * the `RunReport` serialization is pinned by a committed golden file
//!   (regenerate deliberately with `DG_UPDATE_GOLDEN=1`).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vlasov_dg::core::app::App;
use vlasov_dg::core::species::maxwellian;
use vlasov_dg::ensemble::SetupFn;
use vlasov_dg::prelude::*;
use vlasov_dg::telemetry::{validate_json, RunReport};

const PI: f64 = std::f64::consts::PI;

/// A two-species 1X2V box with collisions and an adaptive dt: every
/// instrumented phase (volume, surfaces, LBO, moments, Maxwell,
/// coupling, step control) is active.
fn make_app(telemetry: bool, threads: Option<usize>) -> App {
    let k = 0.5;
    let mut b = AppBuilder::new()
        .conf_grid(&[0.0], &[2.0 * PI / k], &[9])
        .poly_order(1)
        .basis(BasisKind::Serendipity)
        .telemetry(telemetry)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6])
                .initial(move |x, v| maxwellian(1.0 + 0.06 * (k * x[0]).cos(), &[0.2, 0.0], 1.0, v))
                .collisions(0.5),
        )
        .field(FieldSpec::new(2.0).with_poisson_init().cleaning(1.0, 1.0));
    if let Some(n) = threads {
        b = b.threads(n);
    }
    b.build().unwrap()
}

#[test]
fn telemetry_on_is_bit_identical_to_off_at_every_thread_count() {
    let t_end = 0.02;
    let mut baseline = make_app(false, None);
    let mut baseline_hist = EnergyHistory::every(5e-3);
    baseline.run(t_end, &mut [&mut baseline_hist]).unwrap();
    assert!(!baseline.telemetry_enabled());

    for threads in [None, Some(1), Some(2), Some(5)] {
        let mut on = make_app(true, threads);
        assert!(on.telemetry_enabled());
        let mut hist = EnergyHistory::every(5e-3);
        on.run(t_end, &mut [&mut hist]).unwrap();

        assert_eq!(
            baseline.steps_taken(),
            on.steps_taken(),
            "threads={threads:?}: adaptive dt sequences diverged with telemetry on"
        );
        assert_eq!(
            baseline.state().species_f[0].as_slice(),
            on.state().species_f[0].as_slice(),
            "threads={threads:?}: trajectory diverged with telemetry on"
        );
        assert_eq!(
            baseline.state().em.as_slice(),
            on.state().em.as_slice(),
            "threads={threads:?}: EM trajectory diverged with telemetry on"
        );
        assert_eq!(baseline_hist.samples.len(), hist.samples.len());
        for (a, b) in baseline_hist.samples.iter().zip(&hist.samples) {
            assert_eq!(a, b, "threads={threads:?}: history diverged");
        }

        // The run must actually have been measured, not silently noop'd.
        let report = on.telemetry_report("equiv").unwrap();
        assert_eq!(report.steps, on.steps_taken() as u64);
        assert!(
            report.snapshot.counter(Counter::RhsEvals) > 0,
            "threads={threads:?}: no RHS evals recorded"
        );
        assert!(report.snapshot.phase_ns(Phase::Volume) > 0);
        validate_json(&report.to_json()).unwrap();
    }
}

/// Ensemble setup: a small Landau box, with or without telemetry.
fn setup(telemetry: bool) -> Arc<SetupFn> {
    Arc::new(move |p| {
        let k = p.get("k")?;
        Ok(AppBuilder::new()
            .conf_grid(&[0.0], &[2.0 * PI / k], &[4])
            .poly_order(1)
            .basis(BasisKind::Serendipity)
            .telemetry(telemetry)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[6])
                    .initial(move |x, v| maxwellian(1.0 + 0.01 * (k * x[0]).cos(), &[0.0], 1.0, v)),
            )
            .field(FieldSpec::new(1.0).with_poisson_init()))
    })
}

fn sweep(telemetry: bool) -> SweepSpec {
    SweepSpec::new("tel", setup(telemetry))
        .axis("k", &[0.4, 0.5, 0.6])
        .fixed_dt(2e-3)
        .t_end(0.04)
}

fn config(dir: &Path, workers: usize) -> EnsembleConfig {
    EnsembleConfig::new()
        .workers(workers)
        .out_dir(dir)
        .sample_every(0.01)
        .checkpoint_every_steps(9)
        .summarize(&["efin"], |o| vec![*o.field_energy.last().unwrap()])
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dg_telemetry_itest").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn instrumented_ensemble_jobs_are_bit_identical_and_write_reports() {
    // Baseline: telemetry OFF. No job writes a telemetry.json.
    let off_dir = fresh_dir("off");
    let mut off = Ensemble::new(config(&off_dir, 2)).unwrap();
    off.submit_sweep(&sweep(false)).unwrap();
    let off_report = off.run().unwrap();
    assert_eq!(off_report.counts(), (3, 0, 0));
    for job in &off_report.jobs {
        assert!(
            !off_dir.join(&job.name).join("telemetry.json").exists(),
            "telemetry off must not write a report"
        );
    }

    // Telemetry ON at 1, 2, and 5 workers: physics outputs byte-identical
    // to the off baseline, plus a schema-valid per-job telemetry.json.
    for workers in [1usize, 2, 5] {
        let dir = fresh_dir(&format!("on_{workers}w"));
        let mut ens = Ensemble::new(config(&dir, workers)).unwrap();
        ens.submit_sweep(&sweep(true)).unwrap();
        let report = ens.run().unwrap();
        assert_eq!(report.counts(), (3, 0, 0));

        for (a, b) in off_report.jobs.iter().zip(&report.jobs) {
            assert_eq!(a.steps, b.steps, "workers={workers}, job {}", a.name);
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            let bits =
                |r: &JobRecord| -> Vec<u64> { r.summary.iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(a), bits(b), "workers={workers}, job {}", a.name);
            for file in ["ckpt_000018.vdg", "series.csv"] {
                assert_eq!(
                    std::fs::read(dir.join(&b.name).join(file)).unwrap(),
                    std::fs::read(off_dir.join(&a.name).join(file)).unwrap(),
                    "workers={workers}: {}/{file} differs with telemetry on",
                    b.name
                );
            }
            let tel = dir.join(&b.name).join("telemetry.json");
            let json = std::fs::read_to_string(&tel)
                .unwrap_or_else(|e| panic!("missing {}: {e}", tel.display()));
            validate_json(&json).unwrap();
            assert!(json.contains(&format!("\"name\": \"{}\"", b.name)));
        }
        assert_eq!(
            std::fs::read(dir.join("report.csv")).unwrap(),
            std::fs::read(off_dir.join("report.csv")).unwrap(),
            "workers={workers}: report.csv differs with telemetry on"
        );
    }
}

/// Randomized per-slot partial: the flat (ns, calls, counters) content
/// of one writer slot.
fn partial(seed: u64) -> Snapshot {
    let mut s = Snapshot::default();
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1_000_003
    };
    for i in 0..s.ns.len() {
        s.ns[i] = next();
        s.calls[i] = next();
    }
    for i in 0..s.counters.len() {
        s.counters[i] = next();
    }
    s
}

proptest! {
    #[test]
    fn snapshot_merge_is_deterministic_and_order_independent(
        seed in 0u64..1000,
        n in 1usize..9,
    ) {
        let parts: Vec<Snapshot> = (0..n).map(|i| partial(seed + i as u64)).collect();

        // Forward merge, reverse merge, and pairwise-tree merge must all
        // produce the identical Snapshot: integer sums commute and
        // associate, which is what makes the ascending-slot-order
        // Registry::snapshot() independent of scheduling history.
        let fold = |order: &mut dyn Iterator<Item = &Snapshot>| {
            let mut acc = Snapshot::default();
            for p in order {
                acc.merge(p);
            }
            acc
        };
        let fwd = fold(&mut parts.iter());
        let rev = fold(&mut parts.iter().rev());
        prop_assert_eq!(fwd, rev);

        let mut tree = parts.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut m = pair[0];
                if let Some(b) = pair.get(1) {
                    m.merge(b);
                }
                next.push(m);
            }
            tree = next;
        }
        prop_assert_eq!(fwd, tree[0]);

        // And the delta of the merge against any partial recovers the
        // rest exactly (saturating subtraction never engages: sums only
        // grow).
        let mut rest = Snapshot::default();
        for p in &parts[1..] {
            rest.merge(p);
        }
        prop_assert_eq!(fwd.delta(&parts[0]), rest);
    }
}

/// Golden serialization: pins the v2 schema byte for byte so an
/// accidental key rename / float-format change / reorder fails loudly.
#[test]
fn run_report_json_matches_committed_golden() {
    let mut snap = Snapshot::default();
    snap.ns[Phase::Volume.idx()] = 123_456_789;
    snap.calls[Phase::Volume.idx()] = 300;
    snap.ns[Phase::Surface.idx()] = 987_654_321;
    snap.calls[Phase::Surface.idx()] = 600;
    snap.counters[Counter::RhsEvals.idx()] = 300;
    snap.counters[Counter::DofProcessed.idx()] = 1_536_000;
    let report = RunReport {
        name: "golden".into(),
        wall_s: 1.5,
        steps: 100,
        last_dt: 2.5e-3,
        dt_trace: vec![2.5e-3, 2.5e-3, 2.5e-3],
        nslots: 3,
        kernel_entry_points: "vlasov generated/avx512x8 + generated/avx2x4, lbo generated/avx2x4"
            .into(),
        snapshot: snap,
    };
    let json = report.to_json();
    validate_json(&json).unwrap();

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/telemetry_golden.json");
    if std::env::var("DG_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &json).unwrap();
    }
    let expected = std::fs::read_to_string(&golden)
        .expect("committed golden missing — regenerate with DG_UPDATE_GOLDEN=1");
    assert_eq!(
        json, expected,
        "RunReport serialization drifted from the committed golden \
         (if intentional, bump SCHEMA and regenerate with DG_UPDATE_GOLDEN=1)"
    );
}
