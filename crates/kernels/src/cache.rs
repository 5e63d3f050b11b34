//! Process-wide kernel cache.
//!
//! Building a kernel set performs all symbolic integration for a
//! configuration; solvers, baselines, tests and benches frequently want the
//! same `(family, layout, p)` set. The cache makes the sets shared and
//! immutable (`Arc`), mirroring how Gkeyll compiles each kernel exactly
//! once per configuration.

use crate::phase::{PhaseKernels, PhaseLayout};
use dg_basis::BasisKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

type Key = (BasisKind, usize, usize, usize);
type Cache = Option<HashMap<Key, Arc<PhaseKernels>>>;

static CACHE: Mutex<Cache> = Mutex::new(None);

/// The cache, locked. A panic elsewhere while this lock was held (the
/// critical sections only look up or insert a finished `Arc`) cannot have
/// left the map half-updated, so a poisoned lock is taken over as is.
fn lock() -> MutexGuard<'static, Cache> {
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fetch (building on first use) the kernel set for a configuration.
pub fn kernels_for(kind: BasisKind, layout: PhaseLayout, p: usize) -> Arc<PhaseKernels> {
    let key = (kind, layout.cdim, layout.vdim, p);
    // Fast path under the lock; build outside it so concurrent callers of
    // *different* configurations do not serialize on a long build.
    if let Some(k) = lock().as_ref().and_then(|map| map.get(&key)) {
        return Arc::clone(k);
    }
    let built = Arc::new(PhaseKernels::build(kind, layout, p));
    let mut guard = lock();
    let map = guard.get_or_insert_with(HashMap::new);
    Arc::clone(map.entry(key).or_insert(built))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_shared_instance() {
        let a = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 1);
        let b = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 1);
        assert!(Arc::ptr_eq(&a, &b));
        let c = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
