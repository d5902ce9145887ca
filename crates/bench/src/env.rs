//! Strict env-knob parsing for the bench crate — a facade over
//! [`ccsim::env`], where the shared implementation lives (the sched
//! layer needs it too and cannot depend on bench).
//!
//! Every bench knob (`BENCH_THREADS` and the `*_OUT` report paths) goes
//! through [`parse_strict`]/[`parse_strict_uint`]/[`read_nonempty`], so
//! the discipline is uniform — unset means default, anything else parses
//! exactly or the process aborts with a diagnostic naming the variable,
//! and an empty string is a malformed value, never an unset one.

pub use ccsim::env::{parse_strict, parse_strict_uint, raw_var, read_nonempty, read_strict_uint};

#[cfg(test)]
mod tests {
    use super::*;

    // The shared implementation carries its own unit tests in
    // `ccsim::env`; these pin the facade's semantics at the bench knobs'
    // call shapes. `BENCH_ENV_TEST_KNOB` is a sample name for a knob
    // parsed through `FromStr`; no code reads it.

    #[test]
    fn empty_string_is_malformed_not_unset() {
        assert!(parse_strict_uint("BENCH_THREADS", Some(""), false).is_err());
        assert!(parse_strict("BENCH_ENV_TEST_KNOB", Some(""), str::parse::<u32>).is_err());
    }

    #[test]
    fn from_str_values_parse_through_the_generic_helper() {
        let parse = |raw| parse_strict("BENCH_ENV_TEST_KNOB", raw, str::parse::<u32>);
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some("42")), Ok(Some(42)));
        let err = parse(Some("4x")).unwrap_err();
        assert!(err.starts_with("BENCH_ENV_TEST_KNOB: "), "{err}");
        assert!(err.contains("invalid digit"), "{err}");
    }

    #[test]
    fn out_path_overrides_reject_empty_values() {
        // `read_nonempty` is the one helper behind every *_OUT override;
        // its full behavior (including the empty-string panic) is tested
        // in ccsim. Here: the default flows through when unset.
        assert_eq!(
            read_nonempty("BENCH_ENV_TEST_SURELY_UNSET_1137", "BENCH_locks.json"),
            "BENCH_locks.json"
        );
    }
}
