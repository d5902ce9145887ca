//! Strict environment-knob parsing, shared by every crate in the
//! workspace.
//!
//! Every env-var knob in this repo follows one discipline: *unset* means
//! "use the built-in default", and anything else must parse exactly or
//! the process aborts with a diagnostic naming the variable. Silently
//! falling back on a typo'd value would quietly void whatever the knob
//! exists for (a `BENCH_THREADS=1` determinism comparison, a
//! `RANDOMIZED_SEED` shift of the randomized suites), so
//! the parsers here reject empty strings, stray whitespace, signs, radix
//! prefixes, and non-UTF-8 values uniformly.
//!
//! The two layers:
//!
//! * [`parse_strict_uint`] — the decimal-integer parser used by
//!   `BENCH_THREADS` and `RANDOMIZED_SEED`; errors name the variable.
//! * [`read_strict_uint`] / [`read_nonempty`] — process-environment
//!   lookups, panicking (loud abort) on malformed values, including
//!   values that are not valid UTF-8. [`read_nonempty`] reads free-form
//!   values such as the `EXPERIMENTS_DIFF_OUT` path.

/// Strictly parse an optional decimal unsigned integer env value.
///
/// Exactly ASCII digits: no sign, no whitespace, no radix prefixes
/// (`u64::from_str` would accept a leading `+`), no empty string. With
/// `allow_zero = false`, `"0"` is rejected too — the shape of a
/// "positive count" knob like `BENCH_THREADS`.
///
/// # Errors
/// Returns a diagnostic naming the variable on an empty, malformed,
/// out-of-range, or (when disallowed) zero value.
pub fn parse_strict_uint(
    name: &str,
    raw: Option<&str>,
    allow_zero: bool,
) -> Result<Option<u64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let kind = if allow_zero {
        "a decimal integer"
    } else {
        "a positive decimal integer"
    };
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{name} must be {kind}, got {raw:?}"));
    }
    match raw.parse::<u64>() {
        Ok(0) if !allow_zero => Err(format!("{name} must be a positive integer, got \"0\"")),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("{name} must be {kind}, got {raw:?}")),
    }
}

/// The raw value of `name` from the process environment, mapped through
/// the workspace convention for non-UTF-8 values: they become the
/// (unparseable, hence loudly rejected) token `"<non-utf8>"` instead of
/// being silently dropped as if the variable were unset.
pub fn raw_var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| match v.into_string() {
        Ok(s) => s,
        Err(_) => "<non-utf8>".to_string(),
    })
}

/// Read a decimal unsigned integer knob from the process environment.
///
/// `None` when unset; the parsed value otherwise.
///
/// # Panics
/// Panics with a diagnostic naming the variable on any malformed value
/// (see [`parse_strict_uint`]).
pub fn read_strict_uint(name: &str, allow_zero: bool) -> Option<u64> {
    let raw = raw_var(name);
    match parse_strict_uint(name, raw.as_deref(), allow_zero) {
        Ok(v) => v,
        Err(msg) => panic!("{msg}"),
    }
}

/// Read a free-form override (e.g. an output path) from the process
/// environment, defaulting to `default` when unset.
///
/// An *empty* value is rejected loudly: a path knob set to `""` would
/// otherwise make its writer target `""` and fail later with an
/// unrelated I/O error.
///
/// # Panics
/// Panics if the variable is set to an empty or non-UTF-8 value.
pub fn read_nonempty(name: &str, default: &str) -> String {
    match raw_var(name) {
        None => default.to_string(),
        Some(s) if s.is_empty() => {
            panic!("{name} must be a non-empty value when set (unset it to use {default:?})")
        }
        Some(s) if s == "<non-utf8>" => panic!("{name} must be valid UTF-8"),
        Some(s) => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_means_default() {
        assert_eq!(parse_strict_uint("K", None, false), Ok(None));
        assert_eq!(parse_strict_uint("K", None, true), Ok(None));
    }

    #[test]
    fn uint_accepts_plain_decimals() {
        assert_eq!(parse_strict_uint("K", Some("1"), false), Ok(Some(1)));
        assert_eq!(
            parse_strict_uint("K", Some("200000"), false),
            Ok(Some(200_000))
        );
        assert_eq!(parse_strict_uint("K", Some("0"), true), Ok(Some(0)));
    }

    #[test]
    fn uint_rejects_empty_and_malformed() {
        for bad in ["", " 5", "5 ", "+5", "-1", "0x10", "1e3", "five", "3.5"] {
            for allow_zero in [false, true] {
                let err = parse_strict_uint("MY_KNOB", Some(bad), allow_zero)
                    .expect_err(&format!("{bad:?} must be rejected, not defaulted"));
                assert!(err.contains("MY_KNOB"), "{bad:?}: {err}");
                assert!(err.contains("decimal"), "{bad:?}: {err}");
            }
        }
    }

    #[test]
    fn uint_zero_policy() {
        let err = parse_strict_uint("K", Some("0"), false).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert_eq!(parse_strict_uint("K", Some("0"), true), Ok(Some(0)));
    }

    #[test]
    fn read_nonempty_defaults_only_when_unset() {
        // Process-env mutation is unsafe in tests (other threads read the
        // environment); exercise the classification logic directly via a
        // name that is certainly unset instead.
        assert_eq!(
            read_nonempty("CCSIM_ENV_TEST_SURELY_UNSET_7041", "fallback.json"),
            "fallback.json"
        );
    }
}
