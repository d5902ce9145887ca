//! Bring your own lock: write a synchronization algorithm as a `ccsim`
//! step machine and let the toolkit judge it — the model checker hunts
//! mutual-exclusion violations across *every* interleaving, and the
//! Theorem-5 adversary measures its reader-exit RMR cost.
//!
//! ```sh
//! cargo run --release --example verify_your_lock
//! ```
//!
//! The demo implements a plausible-looking (and subtly broken) DIY
//! reader-writer lock — readers announce themselves in per-reader flags
//! and writers scan the flags — and shows the checker produce a concrete
//! counterexample schedule, then contrasts it with the verified `A_f`.

use rwlock_repro::{
    af_world_custom, af_world_seq_reuse_bug, explore, replay, shrink, AfConfig, CheckConfig,
    CheckError, CounterKind, FPolicy, HelpOrder, Layout, Memory, Op, Phase, Program, Protocol,
    Role, Sim, Step, Symmetry, TraceArtifact, Value, VarId,
};
use std::hash::Hasher;
use std::sync::Arc;

/// Where the demo writes its replayable trace artifacts. A build
/// directory, not `results/`: the committed traces there are pinned by
/// tests, and a demo run must leave the tree clean.
const ARTIFACT_DIR: &str = "target/verify_your_lock";

/// The `world:` tag under which the crash-all counterexample below is
/// persisted; `--replay` keys the factory choice on it.
const SEQ_REUSE_WORLD: &str = "af-seq-reuse-bug n=1 m=1 writeback";

/// The `world:` tag of the symmetry-quotient counterexample: the
/// paper-literal HelpWCS read order on the CAS-loop n=3 world, found
/// with `Symmetry::Quotient` deduplication (the three readers form one
/// symmetry class, so the explorer visits one representative per
/// reader-permutation orbit — the counterexample itself is concrete).
const CASLOOP_LITERAL_WORLD: &str = "af-casloop-paper-literal n=3 m=1 writeback";

/// The factory behind [`CASLOOP_LITERAL_WORLD`].
fn casloop_literal_world() -> Sim {
    af_world_custom(
        AfConfig {
            readers: 3,
            writers: 1,
            policy: FPolicy::One,
        },
        Protocol::WriteBack,
        HelpOrder::PaperLiteral,
        CounterKind::CasLoop,
    )
    .sim
}

/// A DIY reader: checks the writer flag, then announces itself, then
/// enters. (The classic bug: check-then-announce is not atomic — a
/// writer can raise its flag and scan in the gap, so both proceed.)
#[derive(Clone)]
struct DiyReader {
    my_flag: VarId,
    writer_flag: VarId,
    pc: u8, // 0 remainder, 1 check writer, 2 set flag, 3 CS, 4 clear flag
}

impl Program for DiyReader {
    fn poll(&self) -> Step {
        match self.pc {
            0 => Step::Remainder,
            1 => Step::Op(Op::Read(self.writer_flag)),
            2 => Step::Op(Op::write(self.my_flag, true)),
            3 => Step::Cs,
            4 => Step::Op(Op::write(self.my_flag, false)),
            _ => unreachable!(),
        }
    }
    fn resume(&mut self, response: Value) {
        self.pc = match self.pc {
            1 => {
                if response.expect_bool() {
                    1 // writer present: spin before announcing
                } else {
                    2
                }
            }
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
        Role::Reader
    }
    fn on_crash(&mut self) {
        self.pc = 0;
    }
    fn fingerprint(&self, h: &mut dyn Hasher) {
        h.write_u8(self.pc);
    }
}

/// A DIY writer: raises its flag, scans reader flags, enters.
#[derive(Clone)]
struct DiyWriter {
    writer_flag: VarId,
    /// Behind an `Arc`: branching the world then bumps a count, where a
    /// derived `Clone` of a `Vec` field would allocate a new list.
    reader_flags: Arc<[VarId]>,
    pc: u8, // 0 remainder, 1 raise, 2.. scan readers, then CS, clear
}

impl DiyWriter {
    fn scan_end(&self) -> u8 {
        2 + self.reader_flags.len() as u8
    }
}

impl Program for DiyWriter {
    fn poll(&self) -> Step {
        let end = self.scan_end();
        match self.pc {
            0 => Step::Remainder,
            1 => Step::Op(Op::write(self.writer_flag, true)),
            pc if pc < end => Step::Op(Op::Read(self.reader_flags[(pc - 2) as usize])),
            pc if pc == end => Step::Cs,
            _ => Step::Op(Op::write(self.writer_flag, false)),
        }
    }
    fn resume(&mut self, response: Value) {
        let end = self.scan_end();
        self.pc = match self.pc {
            pc if pc >= 2 && pc < end => {
                if response.expect_bool() {
                    pc // reader present: re-scan this flag
                } else {
                    pc + 1
                }
            }
            pc if pc == end + 1 => 0,
            pc => pc + 1,
        };
    }
    fn phase(&self) -> Phase {
        let end = self.scan_end();
        match self.pc {
            0 => Phase::Remainder,
            pc if pc < end => Phase::Entry,
            pc if pc == end => Phase::Cs,
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

fn diy_world(readers: usize) -> Sim {
    let mut layout = Layout::new();
    let writer_flag = layout.var("writer_flag", Value::Bool(false));
    let reader_flags = layout.array("reader_flag", readers, Value::Bool(false));
    let mem = Memory::new(&layout, readers + 1, Protocol::WriteBack);
    let mut procs: Vec<Box<dyn Program>> = Vec::new();
    for &my_flag in &reader_flags {
        procs.push(Box::new(DiyReader {
            my_flag,
            writer_flag,
            pc: 0,
        }));
    }
    procs.push(Box::new(DiyWriter {
        writer_flag,
        reader_flags: reader_flags.into(),
        pc: 0,
    }));
    Sim::new(mem, procs)
}

fn main() {
    // `--replay <trace file>`: re-execute a persisted counterexample
    // against the DIY world and verify it lands on the recorded
    // configuration.
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let path = args.get(i + 1).expect("--replay needs a trace file path");
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let artifact = TraceArtifact::parse(&text).expect("malformed trace artifact");
        println!(
            "replaying {} entries against {}...",
            artifact.schedule.len(),
            artifact.world
        );
        // The world tag picks the factory: the crashy A_f variant's
        // schedules carry `ca` (system-wide crash) tokens that only make
        // sense against the recoverable world they were found in.
        let sim = if artifact.world == SEQ_REUSE_WORLD {
            replay(
                || af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim,
                &artifact.schedule,
            )
        } else if artifact.world == CASLOOP_LITERAL_WORLD {
            replay(casloop_literal_world, &artifact.schedule)
        } else {
            replay(|| diy_world(2), &artifact.schedule)
        };
        assert_eq!(
            sim.fingerprint(),
            artifact.fingerprint,
            "replay diverged from the recorded configuration"
        );
        match sim.check_mutual_exclusion() {
            Err(v) => println!("reproduced: {v}"),
            Ok(()) => println!("replay landed on the fingerprint but shows no MX violation"),
        }
        return;
    }

    println!("Model-checking a DIY flag-based reader-writer lock (2 readers)...\n");
    match explore(
        || diy_world(2),
        &CheckConfig {
            passages_per_proc: 1,
            ..Default::default()
        },
    ) {
        Err(err @ CheckError::MutualExclusion { .. }) => {
            println!(
                "VIOLATION after {} steps: {}",
                err.schedule().len(),
                err.describe()
            );

            // Shrink the explorer's witness to a locally minimal one.
            let out = shrink(
                || diy_world(2),
                err.schedule(),
                |sim| sim.check_mutual_exclusion().is_err(),
            );
            println!(
                "shrunk {} -> {} entries ({} candidate replays); minimal schedule:",
                err.schedule().len(),
                out.schedule.len(),
                out.executions
            );
            let tokens: Vec<String> = out.schedule.iter().map(|e| e.to_string()).collect();
            println!("  {}", tokens.join(" "));

            // The shrunk schedule must still reproduce, deterministically.
            let sim = replay(|| diy_world(2), &out.schedule);
            assert!(sim.check_mutual_exclusion().is_err());
            assert_eq!(sim.fingerprint(), out.fingerprint);

            // Persist a replayable trace artifact.
            let artifact = TraceArtifact {
                world: "diy readers=2 writeback (examples/verify_your_lock.rs)".into(),
                violation: err.describe(),
                fingerprint: out.fingerprint,
                schedule: out.schedule,
            };
            match artifact.write_to(ARTIFACT_DIR) {
                Ok(path) => {
                    println!("\nreplayable trace written to {}", path.display());
                    println!(
                        "replay it with:\n  cargo run --release --example verify_your_lock -- \
                         --replay {}",
                        path.display()
                    );
                }
                Err(e) => println!("could not write trace artifact: {e}"),
            }
            println!(
                "\nThe bug: the reader's writer-check and its flag-set are two\n\
                 separate steps; a writer can raise its flag and finish its\n\
                 scan inside that gap, so both conclude the coast is clear.\n"
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    println!("Model-checking a crash-unsafe A_f variant under a system-wide crash adversary...\n");
    let crashy = || af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim;
    match explore(
        crashy,
        &CheckConfig {
            passages_per_proc: 2,
            crash_all_budget: 1,
            ..Default::default()
        },
    ) {
        Err(err @ CheckError::MutualExclusion { .. }) => {
            let out = shrink(crashy, err.schedule(), |sim| {
                sim.check_mutual_exclusion().is_err()
            });
            let tokens: Vec<String> = out.schedule.iter().map(|e| e.to_string()).collect();
            println!(
                "VIOLATION (shrunk {} -> {} entries), schedule with crash-all token:",
                err.schedule().len(),
                out.schedule.len()
            );
            println!("  {}", tokens.join(" "));
            let artifact = TraceArtifact {
                world: SEQ_REUSE_WORLD.into(),
                violation: err.describe(),
                fingerprint: out.fingerprint,
                schedule: out.schedule,
            };
            match artifact.write_to(ARTIFACT_DIR) {
                Ok(path) => println!(
                    "replayable trace written to {}; replay with:\n  cargo run --release \
                     --example verify_your_lock -- --replay {}\n",
                    path.display(),
                    path.display()
                ),
                Err(e) => println!("could not write trace artifact: {e}\n"),
            }
            println!(
                "The bug: recovery re-enters with the crashed passage's WSEQ; a\n\
                 helper signal armed for the dead epoch fires into the recovered\n\
                 writer's identically-numbered passage. The fixed writer burns\n\
                 the epoch on recovery, so the stale signal falls on the floor.\n"
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    println!(
        "Model-checking the paper-literal HelpWCS order at n=3 under the symmetry quotient...\n"
    );
    match explore(
        casloop_literal_world,
        &CheckConfig {
            passages_per_proc: 1,
            symmetry: Symmetry::Quotient,
            ..Default::default()
        },
    ) {
        Err(err @ CheckError::MutualExclusion { .. }) => {
            let out = shrink(casloop_literal_world, err.schedule(), |sim| {
                sim.check_mutual_exclusion().is_err()
            });
            let tokens: Vec<String> = out.schedule.iter().map(|e| e.to_string()).collect();
            println!(
                "VIOLATION under Symmetry::Quotient (shrunk {} -> {} entries):",
                err.schedule().len(),
                out.schedule.len()
            );
            println!("  {}", tokens.join(" "));
            // A quotient-found witness is an ordinary concrete schedule:
            // it replays against the concrete world like any other.
            let sim = replay(casloop_literal_world, &out.schedule);
            assert!(sim.check_mutual_exclusion().is_err());
            assert_eq!(sim.fingerprint(), out.fingerprint);
            let artifact = TraceArtifact {
                world: CASLOOP_LITERAL_WORLD.into(),
                violation: err.describe(),
                fingerprint: out.fingerprint,
                schedule: out.schedule,
            };
            match artifact.write_to(ARTIFACT_DIR) {
                Ok(path) => println!(
                    "replayable trace written to {}; replay with:\n  cargo run --release \
                     --example verify_your_lock -- --replay {}\n",
                    path.display(),
                    path.display()
                ),
                Err(e) => println!("could not write trace artifact: {e}\n"),
            }
            println!(
                "The bug is the reproduction finding (see af_exhaustive.rs): the\n\
                 literal HelpWCS reads C before W, so a reader's C increment\n\
                 landing between the two reads lets an exiting reader signal\n\
                 <seq, CS> while another reader is still inside. The quotient\n\
                 explored one representative per reader-permutation orbit and\n\
                 still surfaced a concrete, minimal, replayable schedule.\n"
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    println!("Model-checking A_f at the same size (2 readers, 1 writer)...\n");
    let report = explore(
        || {
            rwlock_repro::af_world(
                AfConfig {
                    readers: 2,
                    writers: 1,
                    policy: FPolicy::One,
                },
                Protocol::WriteBack,
            )
            .sim
        },
        &CheckConfig {
            passages_per_proc: 1,
            ..Default::default()
        },
    )
    .expect("A_f is safe");
    println!(
        "A_f: SAFE across all {} reachable states (complete = {}).",
        report.states_explored, report.complete
    );
}
