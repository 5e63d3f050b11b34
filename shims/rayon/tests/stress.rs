//! Race-safety stress tests for the rayon shim's fixed-broadcast-slot
//! protocol: randomized task-injection order over worker counts 1–8,
//! asserting every spawned task runs exactly once (none lost, none
//! duplicated), plus the panic-in-worker and zero-task edge cases.
//!
//! Accumulation stays in atomics (`fetch_add`), never `+=` inside the
//! worker closures — both because that is the shim's real usage contract
//! and because `dg-analyze`'s determinism rule flags compound float
//! accumulation in worker closures.

use proptest::{Strategy, TestRng};
use rayon::ThreadPoolBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

/// Busy-wait jitter so task durations (and hence queue-drain interleaving)
/// vary run to run without any clock dependency.
fn spin(iters: u32) {
    for i in 0..iters {
        std::hint::black_box(i);
    }
}

/// One randomized round: `ntasks` tasks, each injected either directly
/// from the scope closure or nested from inside an already-running worker
/// task (rayon's nested-spawn capability), in shuffled order with random
/// spin jitter. Every task must execute exactly once.
fn exactly_once_round(threads: usize, seed: u64) {
    let mut rng = TestRng::from_name(&format!("stress round {seed}"));
    let ntasks = (0usize..96).sample(&mut rng);
    let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
    let plan: Vec<(bool, u32)> = (0..ntasks)
        .map(|_| {
            (
                (0u32..3).sample(&mut rng) == 0,
                (0u32..400).sample(&mut rng),
            )
        })
        .collect();
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.scope(|s| {
        for (i, &(nested, jitter)) in plan.iter().enumerate() {
            let hits = &hits;
            if nested {
                // Inject from a worker so queue pushes race the scope
                // closure's own pushes.
                s.spawn(move |inner| {
                    spin(jitter);
                    inner.spawn(move |_| {
                        spin(jitter / 2);
                        hits[i].fetch_add(1, Relaxed);
                    });
                });
            } else {
                s.spawn(move |_| {
                    spin(jitter);
                    hits[i].fetch_add(1, Relaxed);
                });
            }
        }
    });
    for (i, h) in hits.iter().enumerate() {
        let n = h.load(Relaxed);
        assert_eq!(
            n, 1,
            "task {i} ran {n} times (threads={threads}, seed={seed}, ntasks={ntasks})"
        );
    }
}

#[test]
fn scope_runs_every_task_exactly_once_across_worker_counts() {
    for threads in 1..=8 {
        for seed in 0..6 {
            exactly_once_round(threads, seed * 1000 + threads as u64);
        }
    }
}

#[test]
fn zero_task_scope_returns_immediately() {
    for threads in 1..=8 {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let r = pool.scope(|_| 42);
        assert_eq!(r, 42);
        // The pool stays usable afterwards.
        let hit = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|_| {
                hit.fetch_add(1, Relaxed);
            });
        });
        assert_eq!(hit.load(Relaxed), 1);
    }
}

#[test]
fn panic_in_worker_propagates_and_loses_no_sibling_tasks() {
    for threads in 1..=8 {
        let ntasks = 24;
        let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for (i, hit) in hits.iter().enumerate() {
                    s.spawn(move |_| {
                        if i == 7 {
                            panic!("injected worker panic");
                        }
                        hit.fetch_add(1, Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must surface the worker panic");
        for (i, h) in hits.iter().enumerate() {
            let n = h.load(Relaxed);
            if i == 7 {
                assert_eq!(n, 0);
            } else {
                assert_eq!(n, 1, "sibling task {i} ran {n} times (threads={threads})");
            }
        }
        // The pool survives a panicked scope and still joins new work.
        let after = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|_| {
                after.fetch_add(1, Relaxed);
            });
        });
        assert_eq!(after.load(Relaxed), 1);
    }
}

#[test]
fn broadcast_covers_every_worker_exactly_once_repeatedly() {
    for threads in 1..=8 {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for round in 0..32 {
            let mut indices = pool.broadcast(|ctx| {
                assert_eq!(ctx.num_threads(), threads);
                spin((round * 17) % 200);
                ctx.index()
            });
            indices.sort_unstable();
            let expect: Vec<usize> = (0..threads).collect();
            assert_eq!(
                indices, expect,
                "broadcast round {round} (threads={threads})"
            );
        }
    }
}
