//! Replayable violation-trace artifacts.
//!
//! When a model check or a randomized stress run finds a violation, the
//! schedule that reproduces it is worth keeping: CI uploads it, humans
//! attach it to bug reports, and [`crate::replay`] turns it back into the
//! violating configuration. [`TraceArtifact`] is that file format — a
//! small, line-oriented, human-readable text format:
//!
//! ```text
//! # rwlock-repro trace v1
//! world: af n=2 m=1 writeback
//! violation: mutual exclusion violated: CS occupied by p0 [writer], p1 [reader]
//! fingerprint: 0x1f00ba5e00c0ffee
//! schedule: s0 s0 s1 c0 s1
//! ```
//!
//! The `schedule:` line uses [`crate::SchedEntry`] tokens (`s<pid>` step,
//! `c<pid>` crash, `ca` system-wide crash, `a<pid>` abort request). The
//! `world:` line is free text naming the factory
//! configuration — the parser carries it through untouched; pairing the
//! right factory with the artifact is the caller's contract, checked at
//! replay time against `fingerprint`.

use crate::SchedEntry;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic first line of the v1 trace format.
const MAGIC: &str = "# rwlock-repro trace v1";

/// A persisted, replayable counterexample: which world, which violation,
/// the schedule that reproduces it, and the fingerprint of the violating
/// configuration for verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceArtifact {
    /// Free-text description of the world factory (e.g. `af n=2 m=1
    /// writeback`). Must not contain newlines.
    pub world: String,
    /// Free-text description of the violated property. Must not contain
    /// newlines.
    pub violation: String,
    /// [`ccsim::Sim::fingerprint`] of the violating configuration.
    pub fingerprint: u64,
    /// The reproducing schedule.
    pub schedule: Vec<SchedEntry>,
}

impl TraceArtifact {
    /// Render to the v1 text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "world: {}", self.world);
        let _ = writeln!(out, "violation: {}", self.violation);
        let _ = writeln!(out, "fingerprint: {:#018x}", self.fingerprint);
        let _ = write!(out, "schedule:");
        for e in &self.schedule {
            let _ = write!(out, " {e}");
        }
        out.push('\n');
        out
    }

    /// Parse the v1 text format (the inverse of [`TraceArtifact::render`]).
    ///
    /// # Errors
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<TraceArtifact, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim() == MAGIC => {}
            other => return Err(format!("bad magic line {other:?}, expected {MAGIC:?}")),
        }
        let mut world = None;
        let mut violation = None;
        let mut fingerprint = None;
        let mut schedule = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, val) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed line {line:?}: expected key: value"))?;
            let val = val.trim();
            match key.trim() {
                "world" => world = Some(val.to_string()),
                "violation" => violation = Some(val.to_string()),
                "fingerprint" => {
                    let digits = val.strip_prefix("0x").unwrap_or(val);
                    fingerprint = Some(
                        u64::from_str_radix(digits, 16)
                            .map_err(|_| format!("bad fingerprint {val:?}"))?,
                    );
                }
                "schedule" => {
                    schedule = Some(
                        val.split_whitespace()
                            .map(|tok| tok.parse::<SchedEntry>())
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(TraceArtifact {
            world: world.ok_or("missing world: line")?,
            violation: violation.ok_or("missing violation: line")?,
            fingerprint: fingerprint.ok_or("missing fingerprint: line")?,
            schedule: schedule.ok_or("missing schedule: line")?,
        })
    }

    /// The artifact's file name, `trace_<fingerprint>.txt`.
    pub fn file_name(&self) -> String {
        format!("trace_{:016x}.txt", self.fingerprint)
    }

    /// Write the artifact into `dir` (created if needed) as
    /// [`TraceArtifact::file_name`]; returns the path written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        fs::write(&path, self.render())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::ProcId;

    fn sample() -> TraceArtifact {
        TraceArtifact {
            world: "af n=2 m=1 writeback".into(),
            violation: "mutual exclusion violated: CS occupied by p0, p1".into(),
            fingerprint: 0x1f00_ba5e_00c0_ffee,
            schedule: vec![
                SchedEntry::Step(ProcId(0)),
                SchedEntry::Step(ProcId(1)),
                SchedEntry::Crash(ProcId(0)),
                SchedEntry::CrashAll,
                SchedEntry::Abort(ProcId(1)),
                SchedEntry::Step(ProcId(1)),
            ],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let a = sample();
        let text = a.render();
        assert!(text.starts_with(MAGIC));
        assert!(text.contains("schedule: s0 s1 c0 ca a1 s1"));
        let b = TraceArtifact::parse(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceArtifact::parse("").is_err());
        assert!(TraceArtifact::parse("# wrong magic\n").is_err());
        let missing = format!("{MAGIC}\nworld: w\nviolation: v\nschedule: s0\n");
        assert!(TraceArtifact::parse(&missing)
            .unwrap_err()
            .contains("fingerprint"));
        for bad in ["x9", "ca1", "a", "CA", "a1x"] {
            let text =
                format!("{MAGIC}\nworld: w\nviolation: v\nfingerprint: 0x1\nschedule: s0 {bad}\n");
            assert!(
                TraceArtifact::parse(&text).is_err(),
                "schedule token {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn write_to_creates_dir_and_file() {
        let dir =
            std::env::temp_dir().join(format!("modelcheck_artifact_test_{}", std::process::id()));
        let a = sample();
        let path = a.write_to(&dir).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(TraceArtifact::parse(&text).unwrap(), a);
        let _ = fs::remove_dir_all(&dir);
    }
}
