//! The scenario/workload DSL shared by the real-atomics bench harness
//! and the simulated (model-check) harness.
//!
//! A [`Scenario`] names one workload shape — read/write mix, burstiness,
//! reader churn, oversubscription, and (for the simulated side) crash
//! and abort pressure — in a strict, round-trippable token grammar:
//!
//! ```text
//! r<reads>:<writes>[,burst=<rate>][,churn=<rate>][,oversub=<k>]
//!                  [,xcrash=<rate>][,xabort=<rate>]
//! ```
//!
//! e.g. `r1000:1,churn=0.125` or `r2:1,xcrash=0.01,xabort=0.01`. The
//! first token is always the mix; the `key=value` pairs may appear in
//! any order but never twice. Rates are fixed-point fractions in
//! `[0, 1]` with at most four decimal digits (see [`Rate`]), so
//! `FromStr` and `Display` round-trip *exactly* — there is no float
//! anywhere in the grammar, and a scenario string is a stable cache/CI
//! key. Parsing is strict in the same way the workspace's env knobs are
//! ([`ccsim::env`]): unknown keys, duplicate keys, empty tokens,
//! malformed numbers (`r1000:`, `churn=-1`), and out-of-range values
//! are loud errors, never defaults.
//!
//! Both harness sides derive their parameters through the accessors
//! here — [`Scenario::mix`], [`Scenario::churn`],
//! [`Scenario::crash_budget`], … — which is what makes "the same named
//! scenario drives real threads and exhaustive exploration" more than a
//! slogan: the parity test in `bench` asserts the two derivations agree
//! field by field.

use std::fmt;
use std::str::FromStr;

/// Granularity of a [`Rate`]: parts per ten thousand (four decimal
/// digits).
pub const RATE_UNIT: u32 = 10_000;

/// A fixed-point probability in `[0, 1]` with `1/10000` resolution.
///
/// Stored as parts-per-ten-thousand so the scenario grammar needs no
/// floats: `0.125` parses to `Rate(1250)` and displays back as `0.125`,
/// byte-identically. Strict parse: an optional leading `0` or `1`, at
/// most four fraction digits, nothing else — `-1`, `1.5`, `.5`, `0.`,
/// and `0.00001` are all errors.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Rate(u16);

impl Rate {
    /// The zero rate (an event that never fires).
    pub const ZERO: Rate = Rate(0);
    /// The unit rate (an event that always fires).
    pub const ONE: Rate = Rate(RATE_UNIT as u16);

    /// A rate from parts-per-ten-thousand.
    ///
    /// # Panics
    /// Panics if `permyriad > 10000`.
    pub fn from_permyriad(permyriad: u32) -> Rate {
        assert!(permyriad <= RATE_UNIT, "rate {permyriad}/10000 exceeds 1.0");
        Rate(permyriad as u16)
    }

    /// The rate in parts-per-ten-thousand (`0..=10000`).
    pub fn permyriad(self) -> u32 {
        u32::from(self.0)
    }

    /// True for [`Rate::ZERO`].
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// One seeded draw: true with probability `self`. Both harness sides
    /// flip their per-op coins through this helper, so "churn=0.125"
    /// means the same thing to an OS thread and to a simulated process.
    /// The degenerate rates short-circuit without consuming a draw, so a
    /// zero-rate knob costs nothing on the hot path.
    pub fn fires(self, rng: &mut ccsim::Prng) -> bool {
        match self.0 {
            0 => false,
            v if u32::from(v) == RATE_UNIT => true,
            v => (rng.below(RATE_UNIT as usize) as u32) < u32::from(v),
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => f.write_str("0"),
            v if u32::from(v) == RATE_UNIT => f.write_str("1"),
            v => {
                let s = format!("0.{v:04}");
                f.write_str(s.trim_end_matches('0'))
            }
        }
    }
}

impl FromStr for Rate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("bad rate {s:?}: expected 0, 1, or 0.<1-4 digits>");
        let (int, frac) = match s.split_once('.') {
            Some((i, f)) => (i, Some(f)),
            None => (s, None),
        };
        if !matches!(int, "0" | "1") {
            return Err(err());
        }
        let mut v: u32 = if int == "1" { RATE_UNIT } else { 0 };
        if let Some(frac) = frac {
            if frac.is_empty() || frac.len() > 4 || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let mut digits: u32 = frac.parse().map_err(|_| err())?;
            digits *= 10u32.pow(4 - frac.len() as u32);
            v += digits;
            if v > RATE_UNIT {
                return Err(format!("bad rate {s:?}: exceeds 1.0"));
            }
        }
        Ok(Rate(v as u16))
    }
}

/// Strictly parse one decimal `u32` field of the grammar: digits only,
/// no leading zeros (other than `"0"` itself), no sign, no empty string.
fn parse_u32_field(what: &str, s: &str) -> Result<u32, String> {
    let ok = !s.is_empty()
        && s.bytes().all(|b| b.is_ascii_digit())
        && (s.len() == 1 || !s.starts_with('0'));
    if !ok {
        return Err(format!("bad {what} {s:?}: expected a decimal integer"));
    }
    s.parse()
        .map_err(|_| format!("bad {what} {s:?}: out of range"))
}

/// One named workload shape, shared verbatim by the contended
/// real-atomics lab and the model-check suite builders.
///
/// Construct via [`FromStr`] (`"r1000:1,churn=0.125".parse()`), one of
/// the [`Scenario::named`] presets, or field-by-field from
/// [`Scenario::mix_of`]. `Display` renders the canonical token string
/// (mix first, then non-default keys in a fixed order), and
/// `parse(display(s)) == s` for every valid scenario.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Scenario {
    /// Read weight of the mix (`r<reads>:<writes>`).
    pub reads: u32,
    /// Write weight of the mix.
    pub writes: u32,
    /// Burstiness: probability that an op *repeats the previous op's
    /// kind* instead of drawing a fresh mix coin — `0` is i.i.d. ops,
    /// higher values produce runs of same-kind ops at the same overall
    /// mix.
    pub burst: Rate,
    /// Reader churn: probability that a thread yields the CPU (sim: goes
    /// briefly idle) after an op, forcing batch/indicator state to drain
    /// and rebuild.
    pub churn: Rate,
    /// Oversubscription factor: threads per base slot (`1` = one thread
    /// per slot, `4` = four).
    pub oversub: u32,
    /// Crash pressure (simulated harness only): drives the crash budget
    /// of exhaustive exploration.
    pub xcrash: Rate,
    /// Abort pressure (simulated harness only): drives the abort budget
    /// of exhaustive exploration.
    pub xabort: Rate,
}

impl Scenario {
    /// A plain mix with every other knob at its default.
    pub fn mix_of(reads: u32, writes: u32) -> Scenario {
        assert!(reads + writes > 0, "mix needs at least one weight");
        Scenario {
            reads,
            writes,
            burst: Rate::ZERO,
            churn: Rate::ZERO,
            oversub: 1,
            xcrash: Rate::ZERO,
            xabort: Rate::ZERO,
        }
    }

    /// The `(reads, writes)` mix weights.
    pub fn mix(&self) -> (u32, u32) {
        (self.reads, self.writes)
    }

    /// One seeded mix draw: true for a read op. The single coin both
    /// harnesses flip (`reads` out of every `reads + writes` ops read).
    pub fn draw_read(&self, rng: &mut ccsim::Prng) -> bool {
        (rng.below((self.reads + self.writes) as usize) as u32) < self.reads
    }

    /// Thread (or process) count after oversubscription: `base` slots
    /// times the `oversub` factor.
    pub fn thread_count(&self, base: usize) -> usize {
        base.saturating_mul(self.oversub as usize).max(1)
    }

    /// True if the scenario carries fault pressure, which only the
    /// simulated harness can honor (real threads don't crash on cue).
    pub fn sim_only(&self) -> bool {
        !self.xcrash.is_zero() || !self.xabort.is_zero()
    }

    /// The exhaustive-exploration crash budget this scenario implies:
    /// `0` without crash pressure, `1` for rates up to 5%, `2` beyond.
    /// Budgets are deliberately tiny — each unit multiplies the state
    /// space — so the rate selects a regime, not a count.
    pub fn crash_budget(&self) -> u32 {
        match self.xcrash.permyriad() {
            0 => 0,
            1..=500 => 1,
            _ => 2,
        }
    }

    /// The exhaustive-exploration abort budget (same regime mapping as
    /// [`Scenario::crash_budget`]).
    pub fn abort_budget(&self) -> u32 {
        match self.xabort.permyriad() {
            0 => 0,
            1..=500 => 1,
            _ => 2,
        }
    }

    /// The named scenario presets: the lock × scenario matrix of
    /// `perf_locks` (bench-capable rows) and the fault regimes of the
    /// model-check suite (`sim_only` rows). Every spec string is itself
    /// parsed — the table *is* DSL text, so the presets can't drift from
    /// the grammar.
    pub fn named() -> Vec<NamedScenario> {
        let parse = |name, spec: &'static str| NamedScenario {
            name,
            spec,
            scenario: spec
                .parse()
                .unwrap_or_else(|e| panic!("builtin scenario {name}: {e}")),
        };
        vec![
            parse("read-mostly", "r1000:1"),
            parse("mixed", "r9:1"),
            parse("write-heavy", "r1:1"),
            parse("churny", "r1000:1,churn=0.125"),
            parse("bursty", "r9:1,burst=0.5"),
            parse("oversubscribed", "r9:1,oversub=4"),
            parse("faulty", "r2:1,xcrash=0.01,xabort=0.01"),
        ]
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}:{}", self.reads, self.writes)?;
        if !self.burst.is_zero() {
            write!(f, ",burst={}", self.burst)?;
        }
        if !self.churn.is_zero() {
            write!(f, ",churn={}", self.churn)?;
        }
        if self.oversub != 1 {
            write!(f, ",oversub={}", self.oversub)?;
        }
        if !self.xcrash.is_zero() {
            write!(f, ",xcrash={}", self.xcrash)?;
        }
        if !self.xabort.is_zero() {
            write!(f, ",xabort={}", self.xabort)?;
        }
        Ok(())
    }
}

impl FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tokens = s.split(',');
        let mix = tokens.next().unwrap_or("");
        let body = mix.strip_prefix('r').ok_or_else(|| {
            format!("bad scenario {s:?}: must start with a r<reads>:<writes> mix")
        })?;
        let (reads, writes) = body
            .split_once(':')
            .ok_or_else(|| format!("bad mix {mix:?}: expected r<reads>:<writes>"))?;
        let reads = parse_u32_field("mix reads", reads)?;
        let writes = parse_u32_field("mix writes", writes)?;
        if reads + writes == 0 {
            return Err(format!("bad mix {mix:?}: needs at least one weight"));
        }
        let mut out = Scenario::mix_of(reads, writes);
        let mut seen: Vec<&str> = Vec::new();
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("bad token {token:?}: expected key=value"))?;
            if seen.contains(&key) {
                return Err(format!("duplicate key {key:?}"));
            }
            match key {
                "burst" => out.burst = value.parse()?,
                "churn" => out.churn = value.parse()?,
                "oversub" => {
                    out.oversub = parse_u32_field("oversub", value)?;
                    if out.oversub == 0 {
                        return Err("bad oversub \"0\": must be at least 1".to_string());
                    }
                }
                "xcrash" => out.xcrash = value.parse()?,
                "xabort" => out.xabort = value.parse()?,
                other => {
                    return Err(format!(
                        "unknown key {other:?}: expected burst, churn, oversub, xcrash, or xabort"
                    ))
                }
            }
            seen.push(key);
        }
        Ok(out)
    }
}

/// A preset scenario: the registry name, the DSL spec text, and the
/// parsed form. `sim_only` rows (nonzero fault pressure) drive only the
/// model-check suite; the rest drive the bench matrix too.
#[derive(Copy, Clone, Debug)]
pub struct NamedScenario {
    /// Registry name (table row label).
    pub name: &'static str,
    /// The DSL spec, verbatim.
    pub spec: &'static str,
    /// The parsed scenario.
    pub scenario: Scenario,
}

impl NamedScenario {
    /// True if the scenario carries fault pressure only the simulated
    /// harness can honor.
    pub fn sim_only(&self) -> bool {
        self.scenario.sim_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::Prng;

    #[test]
    fn rate_display_round_trips() {
        for (raw, rendered) in [
            ("0", "0"),
            ("1", "1"),
            ("0.1", "0.1"),
            ("0.1000", "0.1"),
            ("0.01", "0.01"),
            ("0.125", "0.125"),
            ("0.0125", "0.0125"),
            ("0.9999", "0.9999"),
            ("1.0", "1"),
            ("1.0000", "1"),
        ] {
            let r: Rate = raw.parse().unwrap_or_else(|e| panic!("{raw}: {e}"));
            assert_eq!(r.to_string(), rendered, "{raw}");
            assert_eq!(rendered.parse::<Rate>().unwrap(), r, "{raw}");
        }
    }

    #[test]
    fn rate_rejects_malformed() {
        for bad in [
            "", "-1", "2", "1.5", ".5", "0.", "0.00001", "00.1", "0,5", " 0.5", "0.5 ", "+0.5",
            "1.0001", "0x1", "0.1e1",
        ] {
            assert!(bad.parse::<Rate>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn scenario_presets_parse_and_round_trip() {
        let named = Scenario::named();
        assert!(named.len() >= 6);
        for n in &named {
            assert_eq!(n.scenario.to_string(), n.spec, "{}", n.name);
            assert_eq!(n.spec.parse::<Scenario>().unwrap(), n.scenario);
        }
        // Exactly the faulty preset is sim-only.
        let sim_only: Vec<&str> = named
            .iter()
            .filter(|n| n.sim_only())
            .map(|n| n.name)
            .collect();
        assert_eq!(sim_only, ["faulty"]);
    }

    #[test]
    fn scenario_rejects_malformed() {
        for bad in [
            "",
            "1000:1",                      // missing the r prefix
            "r1000:",                      // empty writes
            "r:1",                         // empty reads
            "r0:0",                        // zero-weight mix
            "r1000:1,",                    // trailing empty token
            "r1000:1,churn",               // key without value
            "r1000:1,churn=-1",            // negative rate
            "r1000:1,churn=2",             // rate beyond 1
            "r1000:1,churn=0.1,churn=0.2", // duplicate key
            "r1000:1,wibble=1",            // unknown key
            "r1:1,think=5",                // not a key of the grammar
            "r1000:1,oversub=0",
            "r1000:1,oversub=04", // leading zero
            "r01:1",              // leading zero in the mix
            "r1000:1 ",           // stray whitespace
            "churn=0.1,r1000:1",  // mix must come first
        ] {
            assert!(bad.parse::<Scenario>().is_err(), "{bad:?} must be rejected");
        }
        let err = "r1:1,think=5".parse::<Scenario>().unwrap_err();
        assert_eq!(
            err,
            "unknown key \"think\": expected burst, churn, oversub, xcrash, or xabort"
        );
    }

    #[test]
    fn round_trip_over_seeded_random_scenarios() {
        // Property: Display -> FromStr is the identity on valid
        // scenarios, across a seeded random sample of the whole space.
        let mut rng = Prng::new(0x5CE7A210);
        for case in 0..500 {
            let reads = rng.below(2000) as u32;
            let writes = if reads == 0 {
                1 + rng.below(100) as u32
            } else {
                rng.below(100) as u32
            };
            let rate = |rng: &mut Prng| Rate::from_permyriad(rng.below(10_001) as u32);
            let s = Scenario {
                reads,
                writes,
                burst: rate(&mut rng),
                churn: rate(&mut rng),
                oversub: 1 + rng.below(8) as u32,
                xcrash: rate(&mut rng),
                xabort: rate(&mut rng),
            };
            let text = s.to_string();
            let back: Scenario = text
                .parse()
                .unwrap_or_else(|e| panic!("case {case}: {text:?}: {e}"));
            assert_eq!(back, s, "case {case}: {text:?}");
        }
    }

    #[test]
    fn key_order_is_free_but_display_is_canonical() {
        let a: Scenario = "r9:1,churn=0.1,burst=0.5".parse().unwrap();
        let b: Scenario = "r9:1,burst=0.5,churn=0.1".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "r9:1,burst=0.5,churn=0.1");
    }

    #[test]
    fn derived_parameters() {
        let s: Scenario = "r9:1,churn=0.125,oversub=4,xcrash=0.01".parse().unwrap();
        assert_eq!(s.mix(), (9, 1));
        assert_eq!(s.churn.permyriad(), 1250);
        assert_eq!(s.thread_count(4), 16);
        assert_eq!(s.crash_budget(), 1);
        assert_eq!(s.abort_budget(), 0);
        assert!(s.sim_only());
        let heavy: Scenario = "r1:1,xcrash=0.2".parse().unwrap();
        assert_eq!(heavy.crash_budget(), 2);

        // The mix coin honors the weights exactly over the residue space.
        let mut rng = Prng::new(7);
        let reads = (0..10_000).filter(|_| s.draw_read(&mut rng)).count();
        assert!((8_700..9_300).contains(&reads), "9:1 mix skewed: {reads}");
    }
}
