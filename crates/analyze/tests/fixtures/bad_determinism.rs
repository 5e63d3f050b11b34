// Seeded-bad fixture for the `determinism` rule.

use std::collections::HashMap;

pub struct Cache {
    entries: HashMap<u64, f64>,
}

pub fn hash_order_reduction(cache: &Cache) -> f64 {
    let mut total = 0.0;
    // Iteration over a hash-ordered container: fires.
    for (_k, v) in cache.entries.iter() {
        total += v;
    }
    total
}

pub fn keyed_lookup(cache: &Cache, k: u64) -> f64 {
    // Keyed lookups are order-free: must not fire.
    cache.entries.get(&k).copied().unwrap_or(0.0)
}

pub fn worker_accumulation(pool: &mut Pool, xs: &[f64], total: &mut f64) {
    pool.broadcast(|w| {
        // Scheduler-order float accumulation in a worker closure: fires.
        *total += xs[w];
    });
}

pub fn blessed_reduction(pool: &mut Pool, partials: &mut [f64]) -> f64 {
    pool.broadcast(|w| {
        partials[w] = w as f64;
    });
    // Block-ordered main-thread reduction: must not fire.
    let mut total = 0.0;
    for p in partials.iter() {
        total += p;
    }
    total
}
