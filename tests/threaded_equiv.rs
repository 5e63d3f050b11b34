//! Shared-memory parallelism through the public App API: the one-rank rows
//! of the decomposition table (`decomposition/mod.rs`) — `threads(n)` on
//! its own, including threads beyond the blocks of the rank — must
//! reproduce the default build bit for bit. The cell-block decomposition
//! of `dg_core::blocks` preserves each cell's floating-point accumulation
//! order exactly, so intra-rank threading is execution policy, never a
//! physics switch.

mod decomposition;

use decomposition::{build_error, periodic, rows_match_the_default_build, walled};
use vlasov_dg::prelude::*;

#[test]
fn threaded_serial_backend_is_bit_identical_through_run() {
    // Adaptive stepping with LBO collisions active on one species.
    rows_match_the_default_build(periodic, |ranks, _, _| ranks == 1);
}

#[test]
fn walled_domain_is_bit_identical_across_thread_counts() {
    // The deterministic lower-walls → interior → upper-walls ledger
    // reduction must reproduce the one-block ledger bit for bit.
    let balance = rows_match_the_default_build(walled, |ranks, _, _| ranks == 1)
        .ledger
        .mass_balance_error();
    assert!(balance < 1e-12, "walled run out of balance: {balance:.3e}");
}

#[test]
fn zero_threads_is_a_typed_build_error() {
    let err = build_error(1, 0);
    assert!(matches!(err, Error::Build(_)), "got {err:?}");
}
