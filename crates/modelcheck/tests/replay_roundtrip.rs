//! The counterexample pipeline, end to end: a deliberately buggy lock is
//! explored, the violating schedule is shrunk to a locally minimal one,
//! and `replay` reproduces the identical violating configuration —
//! verified by `Sim::fingerprint` — including through the text artifact
//! format and schedules containing crash events.

use ccsim::{Layout, Memory, Op, Phase, ProcId, Program, Protocol, Role, Sim, Step, Value, VarId};
use modelcheck::{explore, replay, shrink, CheckConfig, CheckError, SchedEntry, TraceArtifact};
use std::hash::Hasher;

/// The classic check-then-act bug: read the flag, then set it in a
/// separate step, so two processes can slip past each other.
#[derive(Clone)]
struct FlagLock {
    flag: VarId,
    pc: u8, // 0 remainder, 1 check, 2 set, 3 CS, 4 clear
}

impl Program for FlagLock {
    fn poll(&self) -> Step {
        match self.pc {
            0 => Step::Remainder,
            1 => Step::Op(Op::Read(self.flag)),
            2 => Step::Op(Op::write(self.flag, true)),
            3 => Step::Cs,
            4 => Step::Op(Op::write(self.flag, false)),
            _ => unreachable!(),
        }
    }
    fn resume(&mut self, response: Value) {
        self.pc = match self.pc {
            1 if response.expect_bool() => 1, // taken: spin
            4 => 0,
            pc => pc + 1,
        };
    }
    fn phase(&self) -> Phase {
        match self.pc {
            0 => Phase::Remainder,
            1 | 2 => Phase::Entry,
            3 => Phase::Cs,
            _ => Phase::Exit,
        }
    }
    fn role(&self) -> Role {
        Role::Writer
    }
    fn on_crash(&mut self) {
        self.pc = 0;
    }
    fn fingerprint(&self, h: &mut dyn Hasher) {
        h.write_u8(self.pc);
    }
}

fn buggy_world() -> Sim {
    let mut layout = Layout::new();
    let flag = layout.var("flag", Value::Bool(false));
    let mem = Memory::new(&layout, 2, Protocol::WriteBack);
    Sim::new(
        mem,
        (0..2)
            .map(|_| Box::new(FlagLock { flag, pc: 0 }) as Box<dyn Program>)
            .collect(),
    )
}

#[test]
fn counterexample_shrinks_and_replays_with_identical_fingerprint() {
    let err = explore(buggy_world, &CheckConfig::default())
        .expect_err("the flag lock must violate mutual exclusion");
    let CheckError::MutualExclusion {
        schedule,
        fingerprint,
        ..
    } = &err
    else {
        panic!("expected an MX violation, got {err}");
    };

    // The raw counterexample replays onto its reported fingerprint.
    let sim = replay(buggy_world, schedule);
    assert!(sim.check_mutual_exclusion().is_err(), "same violation");
    assert_eq!(sim.fingerprint(), *fingerprint, "same configuration");

    // Shrinking keeps the violation and yields a locally minimal
    // schedule: removing any single entry stops it reproducing.
    let violates = |s: &Sim| s.check_mutual_exclusion().is_err();
    let out = shrink(buggy_world, schedule, violates);
    assert!(out.schedule.len() <= schedule.len());
    let sim = replay(buggy_world, &out.schedule);
    assert!(violates(&sim));
    assert_eq!(sim.fingerprint(), out.fingerprint);
    for i in 0..out.schedule.len() {
        let mut cand = out.schedule.clone();
        cand.remove(i);
        assert!(
            !violates(&replay(buggy_world, &cand)),
            "dropping entry {i} still reproduces — not locally minimal"
        );
    }

    // The minimal interleaving for this bug: both processes pass the
    // check before either sets the flag, then both walk into the CS.
    assert_eq!(out.schedule.len(), 6, "check,check,set,set,cs,cs");
}

#[test]
fn counterexample_survives_the_artifact_text_format() {
    let err = explore(buggy_world, &CheckConfig::default()).unwrap_err();
    let violates = |s: &Sim| s.check_mutual_exclusion().is_err();
    let out = shrink(buggy_world, err.schedule(), violates);

    let artifact = TraceArtifact {
        world: "flaglock n=2 writeback".into(),
        violation: err.describe(),
        fingerprint: out.fingerprint,
        schedule: out.schedule,
    };
    let parsed = TraceArtifact::parse(&artifact.render()).expect("round trip");
    assert_eq!(parsed, artifact);
    let sim = replay(buggy_world, &parsed.schedule);
    assert!(violates(&sim));
    assert_eq!(sim.fingerprint(), parsed.fingerprint);
}

#[test]
fn schedules_with_crash_entries_replay_deterministically() {
    // A schedule that crashes p0 mid-entry (after its check) and lets p1
    // run a full passage: replay must be bit-for-bit deterministic, and
    // equal to driving a Sim by hand.
    let schedule = [
        SchedEntry::Step(ProcId(0)),  // p0 passes the check
        SchedEntry::Crash(ProcId(0)), // ...and crashes before setting
        SchedEntry::Step(ProcId(1)),
        SchedEntry::Step(ProcId(1)),
        SchedEntry::Step(ProcId(1)), // p1 sets the flag, reaches CS
    ];
    let a = replay(buggy_world, &schedule);
    let b = replay(buggy_world, &schedule);
    assert_eq!(a.fingerprint(), b.fingerprint());

    let mut manual = buggy_world();
    manual.step(ProcId(0));
    manual.crash(ProcId(0));
    for _ in 0..3 {
        manual.step(ProcId(1));
    }
    assert_eq!(manual.fingerprint(), a.fingerprint());
    assert_eq!(manual.stats(ProcId(0)).crashes, 1);
    assert_eq!(manual.phase(ProcId(1)), Phase::Cs);
}

#[test]
fn schedules_with_crash_all_and_abort_entries_replay_deterministically() {
    // The fault-tolerance tokens: walk both tournament contenders into
    // their entry sections, wipe everyone with a system-wide crash, then
    // abort p1 mid-entry. Replay must be bit-for-bit deterministic, equal
    // to driving a Sim by hand, and must survive the artifact format.
    let factory = || wmutex::mutex_world(2, Protocol::WriteBack);
    let schedule = [
        SchedEntry::Step(ProcId(0)),
        SchedEntry::Step(ProcId(0)),
        SchedEntry::Step(ProcId(1)),
        SchedEntry::CrashAll,
        SchedEntry::Step(ProcId(1)),
        SchedEntry::Step(ProcId(1)),
        SchedEntry::Abort(ProcId(1)),
    ];
    let a = replay(factory, &schedule);
    let b = replay(factory, &schedule);
    assert_eq!(a.fingerprint(), b.fingerprint());

    let mut manual = factory();
    manual.step(ProcId(0));
    manual.step(ProcId(0));
    manual.step(ProcId(1));
    manual.crash_all();
    manual.step(ProcId(1));
    manual.step(ProcId(1));
    manual.abort(ProcId(1));
    assert_eq!(manual.fingerprint(), a.fingerprint());
    assert_eq!(manual.stats(ProcId(0)).crashes, 1, "crash-all hits p0");
    assert_eq!(manual.stats(ProcId(1)).crashes, 1, "crash-all hits p1");

    // The same schedule round-trips through the artifact text format and
    // still replays onto the identical configuration.
    let artifact = TraceArtifact {
        world: "wmutex m=2 writeback".into(),
        violation: "none (determinism check)".into(),
        fingerprint: a.fingerprint(),
        schedule: schedule.to_vec(),
    };
    let parsed = TraceArtifact::parse(&artifact.render()).expect("round trip");
    assert_eq!(parsed, artifact);
    assert_eq!(
        replay(factory, &parsed.schedule).fingerprint(),
        parsed.fingerprint
    );
}
