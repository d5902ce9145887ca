//! Guard: the explorer's search does not move.
//!
//! The sequential explorer, the same explorer keyed by the independent
//! full-rehash hash family, and the parallel explorer at two workers
//! must agree on every order-independent count of two small worlds, and
//! those counts are pinned. The sequential runs visit in one fixed DFS
//! order, so their deepest schedule is pinned too; the parallel run's
//! depends on how work was donated, so it is not compared. The two
//! committed counterexample traces must still replay onto their
//! violations and their recorded fingerprints.

use rwlock_repro::*;
use std::path::Path;

fn one_writer(readers: usize) -> AfConfig {
    AfConfig {
        readers,
        writers: 1,
        policy: FPolicy::One,
    }
}

/// The paper's lock: `A_f` over f-array counters, two readers.
fn farray_world() -> Sim {
    af_world(one_writer(2), Protocol::WriteBack).sim
}

/// The CAS-loop ablation with two readers, which form one symmetry
/// class.
fn casloop_world() -> Sim {
    af_world_custom(
        one_writer(2),
        Protocol::WriteBack,
        HelpOrder::WaitersFirst,
        CounterKind::CasLoop,
    )
    .sim
}

fn config(crash_budget: u32, symmetry: Symmetry) -> CheckConfig {
    CheckConfig {
        passages_per_proc: 1,
        crash_budget,
        symmetry,
        ..CheckConfig::default()
    }
}

/// `(states, transitions, crash transitions, terminal states, complete)`
/// and the sequential explorer's deepest schedule.
type Pinned = ((u64, u64, u64, u64, bool), usize);

fn pinned_of(report: &CheckReport) -> Pinned {
    (report.counts(), report.max_depth_seen)
}

/// Explore `factory` under `cfg` sequentially and with two workers,
/// and check that both agree with `pinned`.
fn seq_and_par(factory: fn() -> Sim, cfg: &CheckConfig, pinned: Pinned) {
    let seq = explore(factory, cfg).expect("no violation");
    assert_eq!(pinned_of(&seq), pinned, "{}", cfg.symmetry);
    let par = explore_par(factory, cfg, 2).expect("no violation");
    assert_eq!(par.counts(), seq.counts(), "{}: parallel", cfg.symmetry);
    assert_eq!(par.visited.entries, seq.visited.entries);
}

#[test]
fn farray_counts_agree_across_explorers_and_key_families() {
    let pinned = ((34_629, 88_902, 0, 12, true), 82);
    seq_and_par(farray_world, &config(0, Symmetry::Off), pinned);
    let full = explore(farray_world, &config(0, Symmetry::FullRehash)).expect("no violation");
    assert_eq!(pinned_of(&full), pinned, "full_rehash");
}

#[test]
fn casloop_quotient_counts_agree_across_explorers() {
    let orbits = ((21_174, 61_933, 4_983, 12, true), 56);
    seq_and_par(casloop_world, &config(1, Symmetry::Quotient), orbits);
    // The full-rehash keys are concrete, so they must match the
    // concrete run, not the quotient.
    let concrete = ((41_143, 120_215, 9_522, 12, true), 57);
    seq_and_par(casloop_world, &config(1, Symmetry::Off), concrete);
    let full = explore(casloop_world, &config(1, Symmetry::FullRehash)).expect("no violation");
    assert_eq!(pinned_of(&full), concrete, "full_rehash");
}

/// The world a committed trace's `world:` header names.
fn world_named(name: &str) -> Sim {
    match name {
        "af-casloop-paper-literal n=3 m=1 writeback" => {
            af_world_custom(
                one_writer(3),
                Protocol::WriteBack,
                HelpOrder::PaperLiteral,
                CounterKind::CasLoop,
            )
            .sim
        }
        "af-seq-reuse-bug n=1 m=1 writeback" => {
            af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim
        }
        other => panic!("no factory for world {other:?}"),
    }
}

#[test]
fn committed_traces_replay_onto_their_fingerprints() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for file in ["trace_504fe01e093de092.txt", "trace_976b610279a6cf7c.txt"] {
        let text = std::fs::read_to_string(dir.join(file)).expect("committed trace");
        let trace = TraceArtifact::parse(&text).expect("well-formed trace");
        let sim = replay(|| world_named(&trace.world), &trace.schedule);
        let violation = sim
            .check_mutual_exclusion()
            .expect_err("the trace must end in a violation");
        assert_eq!(violation.to_string(), trace.violation, "{file}");
        assert_eq!(sim.fingerprint(), trace.fingerprint, "{file}");
    }
}
