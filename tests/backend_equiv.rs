//! Rank parallelism through the public App API: the rank-parallel rows of
//! the decomposition table (`decomposition/mod.rs`) — `ranks(r)`, alone or
//! composed with `threads(t)` — must reproduce the default build bit for
//! bit, the adaptive dt sequence and the observer views included. The
//! hand-wired `ParVlasovMaxwell` path is covered in `parallel_equiv.rs`.

mod decomposition;

use decomposition::{build_error, periodic, rows_match_the_default_build, walled};
use vlasov_dg::prelude::*;

/// More `ranks × threads` blocks than configuration cells: some blocks
/// are empty.
fn empty_blocks(ranks: usize, threads: usize, nx: usize) -> bool {
    ranks * threads > nx
}

#[test]
fn rank_parallel_backend_is_bit_identical_through_run() {
    rows_match_the_default_build(periodic, |ranks, threads, nx| {
        ranks > 1 && !empty_blocks(ranks, threads, nx)
    });
}

#[test]
fn rank_parallel_survives_awkward_rank_counts() {
    // One rank per cell, a rank count that does not divide the grid, and
    // more ranks than cells: empty blocks must be harmless.
    rows_match_the_default_build(periodic, |ranks, threads, nx| {
        ranks > 1 && empty_blocks(ranks, threads, nx)
    });
}

#[test]
fn walled_domain_is_bit_identical_across_backends() {
    // The wall faces live on the edge ranks and the halo logic must not
    // wrap; the wall-flux ledgers agree bit for bit.
    let balance = rows_match_the_default_build(walled, |ranks, _, _| ranks > 1)
        .ledger
        .mass_balance_error();
    assert!(balance < 1e-12, "walled run out of balance: {balance:.3e}");
}

#[test]
fn zero_rank_backend_is_a_build_error() {
    let err = build_error(0, 2);
    assert!(matches!(err, Error::Build(_)), "got {err:?}");
}
