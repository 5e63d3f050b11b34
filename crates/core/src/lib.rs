//! # dg-core — the alias-free modal DG Vlasov–Maxwell solver
//!
//! The paper's primary contribution assembled into a working kinetic code:
//!
//! * [`vlasov`] — the collisionless phase-space update
//!   `∂f/∂t + ∇_x·(v f) + ∇_v·(α f) = 0` with
//!   `α = (q/m)(E + v×B)`, evaluated entirely through the alias-free,
//!   matrix-free, quadrature-free kernels of `dg-kernels`;
//! * [`species`] / [`moments`] — per-species distribution functions and the
//!   exact velocity moments that couple them to Maxwell's equations;
//! * [`system`] — the coupled Vlasov–Maxwell system (multiple species +
//!   PHM field solver + current coupling) with its conserved-quantity
//!   bookkeeping (mass exactly; energy with central fluxes, §II);
//! * [`ssprk`] / [`cfl`] — the three-stage, third-order strong-stability-
//!   preserving Runge–Kutta stepper used in all the paper's runs;
//! * [`lbo`] — the Dougherty/Lenard–Bernstein Fokker–Planck collision
//!   operator (the paper's footnote 7: "roughly doubles the cost");
//! * [`app`] — a builder-style front end mirroring Gkeyll's App system
//!   (Fig. 4): declare a domain, species with initial conditions, and field
//!   parameters; get a runnable simulation;
//! * [`blocks`] — the two-level decomposition: the coupled RHS over
//!   `ranks × threads` contiguous dim-0 cell blocks, inline at one thread
//!   and on a persistent worker pool above, bit-identical for every
//!   decomposition;
//! * [`backend`] / [`observer`] / [`error`] — the run-driver layer: the
//!   one execution engine behind the App, trigger-scheduled observers
//!   replacing hand-rolled sampling loops, and the typed error taxonomy of
//!   every fallible public operation.

pub mod app;
pub mod backend;
pub mod blocks;
pub mod cfl;
pub mod diagnostics;
pub mod error;
pub mod lbo;
pub mod moments;
pub mod observer;
pub mod species;
pub mod ssprk;
pub mod system;
pub mod vlasov;

pub use backend::Backend;
pub use error::Error;
pub use observer::{observe, Frame, Observer, Trigger};
pub use species::Species;
pub use system::{FluxKind, SystemState, VlasovMaxwell};

/// The block sweep's worker pool (`blocks::Pool`): every worker runs each
/// broadcast exactly once, disjoint writes, no lost wake, panics reach the
/// caller, drop joins and frees.
#[cfg(test)]
mod tests {
    use crate::blocks::Pool;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// Busy-wait jitter, so the workers finish in varying order.
    fn spin(iters: u32) {
        for i in 0..iters {
            std::hint::black_box(i);
        }
    }

    /// One zeroed hit counter per worker.
    fn hits(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn loads(counts: &[AtomicUsize]) -> Vec<usize> {
        counts.iter().map(|c| c.load(Relaxed)).collect()
    }

    #[test]
    fn broadcast_runs_once_per_worker_in_index_order() {
        // Worker `w` runs `op(w)` once per broadcast, always on the same
        // thread of its own, never the caller's: a block stays with one
        // thread from sweep to sweep.
        let mut pool = Pool::new(3).unwrap();
        assert_eq!(pool.threads(), 3);
        let runs = |pool: &mut Pool| {
            let slots: Vec<Mutex<Vec<ThreadId>>> = (0..3).map(|_| Mutex::default()).collect();
            pool.broadcast(|w| slots[w].lock().unwrap().push(thread::current().id()));
            slots
                .into_iter()
                .map(|s| s.into_inner().unwrap())
                .collect::<Vec<_>>()
        };
        let first = runs(&mut pool);
        assert!(first.iter().all(|ids| ids.len() == 1), "{first:?}");
        assert_eq!(runs(&mut pool), first);
        let ids: Vec<ThreadId> = first.concat();
        assert!(!ids.contains(&thread::current().id()));
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
    }

    #[test]
    fn broadcast_covers_every_worker_exactly_once_repeatedly() {
        for threads in 1..=8 {
            let mut pool = Pool::new(threads).unwrap();
            let counts = hits(threads);
            for round in 1..=32 {
                pool.broadcast(|w| {
                    spin((round * 17 + w as u32 * 31) % 200);
                    counts[w].fetch_add(1, Relaxed);
                });
                assert_eq!(
                    loads(&counts),
                    vec![round as usize; threads],
                    "broadcast round {round} (threads={threads})"
                );
            }
        }
    }

    #[test]
    fn broadcast_allows_disjoint_mutable_chunks() {
        let mut pool = Pool::new(4).unwrap();
        let mut data = vec![0u64; 13];
        let (base, len) = (data.as_mut_ptr() as usize, data.len());
        pool.broadcast(|w| {
            // Strided ownership: worker w owns elements w, w + 4, w + 8, …
            for k in (w..len).step_by(4) {
                // SAFETY: k ≡ w (mod 4), so no two workers touch the same
                // element; `data` outlives the broadcast.
                unsafe { *(base as *mut u64).add(k) = k as u64 + 1 };
            }
        });
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k as u64 + 1);
        }
    }

    #[test]
    fn pool_survives_repeated_jobs() {
        // Back-to-back jobs with no work between them: a lost wake-up
        // would hang here.
        let mut pool = Pool::new(2).unwrap();
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.broadcast(|_| {
                counter.fetch_add(1, Relaxed);
            });
        }
        assert_eq!(counter.load(Relaxed), 500 * 2);
    }

    #[test]
    fn panic_in_worker_propagates_and_loses_no_sibling_tasks() {
        for threads in 1..=8 {
            let mut pool = Pool::new(threads).unwrap();
            let counts = hits(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(|w| {
                    if w == threads / 2 {
                        panic!("injected worker panic");
                    }
                    spin(100);
                    counts[w].fetch_add(1, Relaxed);
                });
            }));
            let payload = caught.expect_err("the worker panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected worker panic")
            );
            for (w, n) in loads(&counts).into_iter().enumerate() {
                let expect = usize::from(w != threads / 2);
                assert_eq!(n, expect, "worker {w} (threads={threads})");
            }
            // The pool still runs the next broadcast on every worker.
            pool.broadcast(|w| {
                counts[w].fetch_add(1, Relaxed);
            });
            let expect: Vec<usize> = (0..threads)
                .map(|w| 1 + usize::from(w != threads / 2))
                .collect();
            assert_eq!(loads(&counts), expect, "threads={threads}");
        }
    }

    #[test]
    fn dropping_the_pool_joins_its_workers_and_frees_its_state() {
        let mut pool = Pool::new(3).unwrap();
        pool.broadcast(|_| {});
        let shared = pool.shared_state();
        assert!(shared.upgrade().is_some());
        drop(pool);
        // Workers hold the other references; the state is freed only once
        // every one of them has exited and been joined.
        assert!(shared.upgrade().is_none());
    }
}
