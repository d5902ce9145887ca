//! The acceptance loop of the golden-file gate, end to end: bless a
//! report into a temp results dir, check it (clean), perturb one golden
//! cell, and verify the check fails with a unified diff naming the
//! experiment — the exact drill a CI failure walks a human through.

use bench::exp::{
    bless, check_against_goldens, golden_txt_path, Artifact, Check, Ctx, Experiment, Mode, Report,
};
use bench::Table;

/// A tiny deterministic experiment (no simulator) for gate plumbing.
struct Toy;

impl Experiment for Toy {
    fn id(&self) -> &'static str {
        "toy_gate"
    }
    fn title(&self) -> &'static str {
        "golden-gate plumbing fixture"
    }
    fn claim(&self) -> &'static str {
        "the gate catches any byte of drift"
    }
    fn run(&self, ctx: &Ctx) -> Report {
        let mut table = Table::new(["n", "rmr"]);
        table.row(["8", "12"]).row(["16", "16"]);
        let mut report = Report::new(self, ctx);
        report
            .section("measurements", table)
            .check(Check::le_u64("rmr stays bounded", 16, 20))
            .notes("Expected shape: flat.");
        report
    }
}

fn temp_results_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-golden-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp results dir");
    dir
}

#[test]
fn bless_then_check_roundtrips_and_catches_perturbation() {
    let dir = temp_results_dir("full");
    let ctx = Ctx::new(Mode::Full);
    let report = Toy.run(&ctx);

    // A missing golden is itself a failure (with a bless hint).
    let failures = check_against_goldens(&report, true, &dir);
    assert_eq!(failures.len(), 1, "golden missing: {failures:?}");
    assert!(failures[0].contains("missing golden"));
    assert!(failures[0].contains("--bless"));

    // Bless writes the text report, the one golden.
    let written = bless(&report, &dir).expect("bless");
    assert_eq!(written, [golden_txt_path(&dir, Mode::Full, "toy_gate")]);
    let txt = &written[0];
    assert!(txt.exists(), "{} not written", txt.display());

    // A clean re-run byte-matches what was blessed.
    assert!(check_against_goldens(&report, true, &dir).is_empty());

    // Perturb one table cell in the text golden: the check must fail
    // with a unified diff that names the experiment and shows the cell.
    let golden = std::fs::read_to_string(txt).unwrap();
    assert!(
        golden.contains("16   16"),
        "fixture layout changed:\n{golden}"
    );
    std::fs::write(txt, golden.replace("16   16", "16   17")).unwrap();
    let failures = check_against_goldens(&report, true, &dir);
    assert_eq!(failures.len(), 1, "{failures:?}");
    let failure = &failures[0];
    assert!(
        failure.contains("toy_gate"),
        "diff must name the experiment: {failure}"
    );
    assert!(failure.contains("drift against"), "{failure}");
    assert!(
        failure.contains("-16   17"),
        "golden side of the cell: {failure}"
    );
    assert!(
        failure.contains("+16   16"),
        "rendered side of the cell: {failure}"
    );

    // Restoring the golden makes the gate clean again.
    std::fs::write(txt, golden).unwrap();
    assert!(check_against_goldens(&report, true, &dir).is_empty());

    // A failing structured check is reported even with clean goldens.
    let mut failing = report.clone();
    failing
        .checks
        .push(Check::le_u64("impossible bound", 16, 1));
    let failures = check_against_goldens(&failing, true, &dir);
    assert!(
        failures
            .iter()
            .any(|f| f.contains("CHECK FAILED") && f.contains("impossible bound")),
        "{failures:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_goldens_live_in_their_own_subdir() {
    let dir = temp_results_dir("smoke");
    let ctx = Ctx::new(Mode::Smoke);
    let report = Toy.run(&ctx);
    let txt = dir.join("smoke").join("toy_gate.txt");
    assert_eq!(
        bless(&report, &dir).expect("bless"),
        std::slice::from_ref(&txt)
    );
    // Bless writes exactly one file: the text report.
    let written: Vec<_> = std::fs::read_dir(dir.join("smoke"))
        .expect("smoke dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(written, [txt]);
    assert_eq!(std::fs::read_dir(&dir).expect("results dir").count(), 1);
    assert!(check_against_goldens(&report, true, &dir).is_empty());
    // Smoke and full goldens never collide: the full check still
    // reports its golden as missing.
    let full_report = Toy.run(&Ctx::new(Mode::Full));
    assert_eq!(check_against_goldens(&full_report, true, &dir).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nondeterministic_reports_gate_presence_and_checks_only() {
    let dir = temp_results_dir("nondet");
    let ctx = Ctx::new(Mode::Full);
    let report = Toy.run(&ctx);
    // An absent golden still fails even for non-deterministic reports.
    assert_eq!(check_against_goldens(&report, false, &dir).len(), 1);
    bless(&report, &dir).expect("bless");
    // Now perturb a golden: a non-deterministic report skips the
    // byte-diff, so the gate stays clean...
    let txt = golden_txt_path(&dir, Mode::Full, "toy_gate");
    let golden = std::fs::read_to_string(&txt).unwrap();
    std::fs::write(&txt, golden.replace("16   16", "16   99")).unwrap();
    assert!(check_against_goldens(&report, false, &dir).is_empty());
    // ...but a failed structured check still gates.
    let mut failing = report.clone();
    failing.checks.push(Check::le_u64("perf floor", 1, 2));
    failing.checks.push(Check::le_u64("regressed floor", 10, 2));
    let failures = check_against_goldens(&failing, false, &dir);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("regressed floor"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_are_written_by_bless_and_checked_byte_for_byte() {
    let dir = temp_results_dir("artifact");
    let mut report = Toy.run(&Ctx::new(Mode::Smoke));
    report.artifacts.push(Artifact {
        file_name: "trace_00000000000000ab.txt".into(),
        text: "schedule: s0 s1\n".into(),
    });
    let trace = dir.join("trace_00000000000000ab.txt");

    // A missing committed artifact fails the check with a bless hint.
    let failures = check_against_goldens(&report, true, &dir);
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures[1].contains("missing artifact"), "{failures:?}");
    assert!(failures[1].contains("--bless --smoke"), "{failures:?}");

    // Bless writes the golden under smoke/ and the artifact in the
    // results root, whatever the mode.
    let written = bless(&report, &dir).expect("bless");
    assert_eq!(
        written,
        [
            golden_txt_path(&dir, Mode::Smoke, "toy_gate"),
            trace.clone()
        ]
    );
    assert_eq!(
        std::fs::read_to_string(&trace).unwrap(),
        "schedule: s0 s1\n"
    );
    assert!(check_against_goldens(&report, true, &dir).is_empty());

    // A committed artifact that differs fails, even for a report whose
    // text is not byte-gated.
    std::fs::write(&trace, "schedule: s1 s0\n").unwrap();
    for deterministic in [true, false] {
        let failures = check_against_goldens(&report, deterministic, &dir);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("artifact drift"), "{failures:?}");
        assert!(failures[0].contains("-schedule: s1 s0"), "{failures:?}");
        assert!(failures[0].contains("+schedule: s0 s1"), "{failures:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
