//! What one run reports: named metrics with units and sample counts,
//! the operations attempted and failed, and the named output checks.
//! The last line of a run is this report as one JSON object.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many samples the value summarizes (1 for an exact count).
    pub samples: usize,
}

/// A run's metrics, operation counts and correctness checks.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// `(description, passed)` for every output the run checked.
    pub checks: Vec<(String, bool)>,
    /// Context printed with the metrics, not part of the result line.
    pub notes: Vec<String>,
}

/// A metric name: a letter or digit, then at most 63 letters, digits,
/// `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

impl Report {
    /// Add a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            samples,
        });
    }

    /// Add a line of context.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a correctness check of the run's output.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Fold another part of the same run into this report.
    pub fn absorb(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.notes.extend(other.notes);
    }

    /// True when no operation failed, every check passed, and every
    /// metric is a finite number with a valid, unique name.
    pub fn correct(&self) -> bool {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let unique = names.windows(2).all(|w| w[0] != w[1]);
        self.failed == 0
            && self.attempted > 0
            && unique
            && self.checks.iter().all(|(_, ok)| *ok)
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && valid_name(&m.name))
    }

    /// Human-readable lines: every metric with its unit and sample
    /// count, the notes, then every check.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let v = m.value.abs();
            let value = if v != 0.0 && !(1e-2..1e12).contains(&v) {
                format!("{:.4e}", m.value)
            } else {
                format!("{:.4}", m.value)
            };
            let _ = writeln!(
                out,
                "  {:<44} {value:>18} {:<8} ({} sample{})",
                m.name,
                m.unit,
                m.samples,
                if m.samples == 1 { "" } else { "s" }
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "  check {}: {what}", if *ok { "PASS" } else { "FAIL" });
        }
        let _ = writeln!(
            out,
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        out
    }

    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; `correct` is already false then.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_checked() {
        for good in ["setup_s", "rwcore.reader_lock_ns.p50", "9a", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_and_correctness() {
        let mut r = Report::default();
        r.metric("ops_per_s", 1.5e6, "1/s", 7);
        r.ops(10, 0);
        r.check("payload intact", true);
        assert!(r.correct());
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1500000.0, \"unit\": \"1/s\"}}}"
        );
        let mut dup = r.clone();
        dup.metric("ops_per_s", 1.0, "1/s", 1);
        assert!(!dup.correct(), "duplicate names are refused");
        let mut failing = r.clone();
        failing.ops(1, 1);
        assert!(!failing.correct());
        let mut nan = r;
        nan.metric("x", f64::NAN, "ns", 1);
        assert!(!nan.correct());
        assert!(nan.to_json().contains("\"x\": {\"value\": 0.0"));
    }
}
