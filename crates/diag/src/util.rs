//! Runtime-configuration helpers shared by the examples.
//!
//! Every scalable example in this workspace reads its problem size from
//! environment variables with container-sized defaults, which the
//! examples-smoke CI job shrinks further. These are the one canonical pair
//! of parsers, re-exported from the `vlasov_dg` facade
//! (`vlasov_dg::util`).

/// Read `name` as a `usize`, falling back to `default` when unset or
/// unparsable.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Read `name` as an `f64`, falling back to `default` when unset or
/// unparsable.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_falls_back() {
        std::env::set_var("DG_DIAG_UTIL_TEST_U", "17");
        std::env::set_var("DG_DIAG_UTIL_TEST_F", "2.5");
        std::env::set_var("DG_DIAG_UTIL_TEST_BAD", "not-a-number");
        assert_eq!(env_usize("DG_DIAG_UTIL_TEST_U", 3), 17);
        assert_eq!(env_f64("DG_DIAG_UTIL_TEST_F", 1.0), 2.5);
        assert_eq!(env_usize("DG_DIAG_UTIL_TEST_BAD", 3), 3);
        assert_eq!(env_f64("DG_DIAG_UTIL_TEST_UNSET_XYZ", 4.0), 4.0);
    }
}
