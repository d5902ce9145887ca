//! No check passes without running: across every registered
//! experiment's smoke report, a check whose measurement could not be
//! taken on this host is a note, never a PASS whose measured text says
//! it was skipped.

use bench::exp::{Ctx, Mode};
use bench::experiments::registry;

#[test]
fn no_smoke_check_renders_a_skipped_measurement() {
    let ctx = Ctx::new(Mode::Smoke);
    for exp in registry() {
        let report = exp.run(&ctx);
        for check in &report.checks {
            assert!(
                !check.measured.contains("skipped"),
                "{}: check \"{}\" measured: {}",
                report.id,
                check.claim,
                check.measured
            );
        }
    }
}
