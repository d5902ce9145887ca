//! Generic schedulers: round-robin, uniformly random, and solo runners.
//!
//! These drive a [`Sim`] while checking Mutual Exclusion after every step
//! and detecting stalls (no passage completing for a long stretch — the
//! observable symptom of deadlock or livelock in a finite run). The
//! adversarial lower-bound scheduler lives in the `knowledge` crate.

use crate::fault::{FaultDriver, FaultPlan};
use crate::program::{Phase, Step};
use crate::rng::Prng;
use crate::sim::{MutualExclusionViolation, Sim};
use crate::value::{ProcId, VarId};
use std::error::Error;
use std::fmt;

/// Configuration for the bulk runners.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RunConfig {
    /// Number of passages each process should complete.
    pub passages_per_proc: u64,
    /// Hard cap on total scheduled steps.
    pub max_steps: u64,
    /// If no passage completes for this many consecutive steps, the run is
    /// declared stalled (deadlock/livelock suspicion).
    pub stall_after: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            passages_per_proc: 1,
            max_steps: 1_000_000,
            stall_after: 200_000,
        }
    }
}

/// Why a run failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// Mutual Exclusion was violated after some step.
    MutualExclusion(MutualExclusionViolation),
    /// No passage completed within `RunConfig::stall_after` steps.
    Stalled {
        /// Steps executed by this run when the stall was declared.
        steps: u64,
        /// The watchdog's diagnosis: every mid-passage process with a
        /// pending memory operation, paired with the variable it is
        /// spinning on. Empty only if the stall has no blocked spinner
        /// (e.g. everyone is parked in the CS).
        spinners: Vec<(ProcId, VarId)>,
        /// Whether any process was inside a recovery window (crashed and
        /// not yet through a fresh passage) when the stall was declared —
        /// the telltale of a recovery path that wedges the lock.
        in_recovery: bool,
    },
    /// `RunConfig::max_steps` was exhausted before all quotas were met.
    StepBudgetExhausted {
        /// Passages completed per process when the budget ran out.
        completed: Vec<u64>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MutualExclusion(v) => write!(f, "{v}"),
            RunError::Stalled {
                steps,
                spinners,
                in_recovery,
            } => {
                write!(f, "run stalled: no passage completed near step {steps}")?;
                if spinners.is_empty() {
                    write!(f, "; no blocked spinners")?;
                } else {
                    write!(f, "; blocked spinners:")?;
                    for (i, (p, v)) in spinners.iter().enumerate() {
                        let sep = if i == 0 { " " } else { ", " };
                        write!(f, "{sep}{p} on {v}")?;
                    }
                }
                if *in_recovery {
                    write!(f, " (inside a recovery window)")?;
                }
                Ok(())
            }
            RunError::StepBudgetExhausted { completed } => {
                write!(
                    f,
                    "step budget exhausted; completed passages: {completed:?}"
                )
            }
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::MutualExclusion(v) => Some(v),
            _ => None,
        }
    }
}

impl From<MutualExclusionViolation> for RunError {
    fn from(v: MutualExclusionViolation) -> Self {
        RunError::MutualExclusion(v)
    }
}

/// Summary of a successful run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunReport {
    /// Steps executed by this run.
    pub steps: u64,
    /// Passages completed per process *during this run*.
    pub completed: Vec<u64>,
    /// Individual crashes injected by this run's [`FaultPlan`] (0 without
    /// one).
    pub crashes: u64,
    /// System-wide crashes ([`crate::Sim::crash_all`]) injected by this
    /// run's [`FaultPlan`].
    pub crash_alls: u64,
}

fn eligible(sim: &Sim, p: ProcId, done: &[u64], quota: u64) -> bool {
    match sim.poll(p) {
        Step::Op(_) | Step::Cs => true,
        Step::Remainder => done[p.0] < quota,
    }
}

/// The watchdog's stall diagnosis: every process that is mid-passage with
/// a pending memory operation, paired with the variable that operation
/// targets — i.e. who is blocked spinning on what. Sorted by process id.
pub fn blocked_spinners(sim: &Sim) -> Vec<(ProcId, VarId)> {
    sim.proc_ids()
        .filter(|&p| sim.phase(p) != Phase::Remainder)
        .filter_map(|p| sim.pending_op(p).map(|op| (p, op.var())))
        .collect()
}

/// Run every process for `cfg.passages_per_proc` passages, choosing the
/// next process round-robin among eligible ones.
///
/// # Errors
/// See [`RunError`].
pub fn run_round_robin(sim: &mut Sim, cfg: &RunConfig) -> Result<RunReport, RunError> {
    run_with(sim, cfg, None, |_, eligible_procs, turn| {
        (turn as usize) % eligible_procs.len()
    })
}

/// Run every process for `cfg.passages_per_proc` passages, choosing the
/// next process uniformly at random among eligible ones.
///
/// # Errors
/// See [`RunError`].
pub fn run_random(sim: &mut Sim, rng: &mut Prng, cfg: &RunConfig) -> Result<RunReport, RunError> {
    run_with(sim, cfg, None, |_, eligible_procs, _| {
        rng.below(eligible_procs.len())
    })
}

/// [`run_random`] with crash injection: after each scheduled step the
/// given [`FaultPlan`] may crash the stepped process (see
/// [`crate::Sim::crash`]) or the whole system (see
/// [`crate::Sim::crash_all`]). A crashed process's in-progress passage is
/// abandoned and re-run — the quota counts *completed* passages.
///
/// # Errors
/// See [`RunError`].
pub fn run_random_with_faults(
    sim: &mut Sim,
    rng: &mut Prng,
    cfg: &RunConfig,
    plan: &FaultPlan,
) -> Result<RunReport, RunError> {
    run_with(sim, cfg, Some(plan), |_, eligible_procs, _| {
        rng.below(eligible_procs.len())
    })
}

/// The shared runner loop. `pick` returns an *index* into the eligible
/// slice (kept sorted by process id).
///
/// The eligible set and the per-process completion counts are maintained
/// incrementally: stepping process `p` can only change `p`'s own poll
/// state and passage count, so each iteration updates one entry instead
/// of rebuilding an `eligible` vector and recomputing every `done[i]`
/// from the stats — the runners allocate nothing per step.
fn run_with(
    sim: &mut Sim,
    cfg: &RunConfig,
    plan: Option<&FaultPlan>,
    mut pick: impl FnMut(&Sim, &[ProcId], u64) -> usize,
) -> Result<RunReport, RunError> {
    let n = sim.n_procs();
    let base: Vec<u64> = (0..n).map(|i| sim.stats(ProcId(i)).passages).collect();
    let mut faults = plan
        .filter(|p| !p.is_empty())
        .map(|p| FaultDriver::new(p, n));
    let mut done = vec![0u64; n];
    let mut steps = 0u64;
    let mut crashes = 0u64;
    let mut crash_alls = 0u64;
    let mut since_progress = 0u64;
    let mut turn = 0u64;
    // Eligibility is absorbing within a run: a process leaves the set only
    // by reaching its remainder section with its quota met, and the runner
    // never steps it again after that. (A crash preserves this: it resets
    // its victim to the remainder section *mid-passage*, i.e. with its
    // quota still unmet, so the victim stays eligible.)
    let mut eligible_procs: Vec<ProcId> = (0..n)
        .map(ProcId)
        .filter(|&p| eligible(sim, p, &done, cfg.passages_per_proc))
        .collect();

    loop {
        if eligible_procs.is_empty() {
            return Ok(RunReport {
                steps,
                completed: done,
                crashes,
                crash_alls,
            });
        }
        // A stall is the sharper diagnosis, so it wins when the step
        // budget runs out on the same step.
        if since_progress >= cfg.stall_after {
            return Err(RunError::Stalled {
                steps,
                spinners: blocked_spinners(sim),
                in_recovery: sim.proc_ids().any(|p| sim.is_recovering(p)),
            });
        }
        if steps >= cfg.max_steps {
            return Err(RunError::StepBudgetExhausted { completed: done });
        }

        let idx = pick(sim, &eligible_procs, turn);
        let p = eligible_procs[idx];
        turn += 1;
        let before = sim.stats(p).passages;
        sim.step(p);
        steps += 1;
        sim.check_mutual_exclusion()?;
        let after = sim.stats(p).passages;
        if after > before {
            since_progress = 0;
            done[p.0] = after - base[p.0];
        } else {
            since_progress += 1;
        }
        if let Some(driver) = &mut faults {
            driver.note_step(p);
            if driver.fire_due(sim, p).is_some() {
                crashes += 1;
            }
            if driver.fire_crash_all_due(sim).is_some() {
                crash_alls += 1;
            }
        }
        if !eligible(sim, p, &done, cfg.passages_per_proc) {
            eligible_procs.remove(idx);
        }
    }
}

/// Step only process `p` until `until(sim)` holds, up to `max_steps`.
///
/// Returns the number of steps taken, or `None` if the budget was exhausted
/// before the predicate held. This is the building block for the paper's
/// "runs solo" execution fragments (e.g. `E_3`, where `W_1` enters the CS
/// alone).
pub fn run_solo(
    sim: &mut Sim,
    p: ProcId,
    max_steps: u64,
    mut until: impl FnMut(&Sim) -> bool,
) -> Option<u64> {
    let mut steps = 0;
    while !until(sim) {
        if steps >= max_steps {
            return None;
        }
        sim.step(p);
        steps += 1;
    }
    Some(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Protocol;
    use crate::layout::Layout;
    use crate::memory::Memory;
    use crate::op::Op;
    use crate::program::{Phase, Program, Role};
    use crate::trace::StepKind;
    use crate::value::{Value, VarId};
    use std::hash::Hasher;

    /// A client that performs one read in entry and one in exit.
    #[derive(Clone)]
    struct ReadClient {
        v: VarId,
        pc: u8,
    }

    impl Program for ReadClient {
        fn poll(&self) -> Step {
            match self.pc {
                0 => Step::Remainder,
                1 => Step::Op(Op::Read(self.v)),
                2 => Step::Cs,
                3 => Step::Op(Op::Read(self.v)),
                _ => unreachable!(),
            }
        }
        fn resume(&mut self, _: Value) {
            self.pc = (self.pc + 1) % 4;
        }
        fn phase(&self) -> Phase {
            [Phase::Remainder, Phase::Entry, Phase::Cs, Phase::Exit][self.pc as usize]
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

    /// A client that spins forever in its entry section (never enters CS).
    #[derive(Clone)]
    struct Spinner {
        v: VarId,
        started: bool,
    }

    impl Program for Spinner {
        fn poll(&self) -> Step {
            if self.started {
                Step::Op(Op::Read(self.v))
            } else {
                Step::Remainder
            }
        }
        fn resume(&mut self, _: Value) {
            self.started = true;
        }
        fn phase(&self) -> Phase {
            if self.started {
                Phase::Entry
            } else {
                Phase::Remainder
            }
        }
        fn role(&self) -> Role {
            Role::Reader
        }
        fn on_crash(&mut self) {
            self.started = false;
        }
        fn fingerprint(&self, h: &mut dyn Hasher) {
            h.write_u8(self.started as u8);
        }
    }

    /// Round-robin with crash injection: the runner loop the fault tests
    /// drive, with [`run_round_robin`]'s pick.
    fn round_robin_with_faults(
        sim: &mut Sim,
        cfg: &RunConfig,
        plan: &FaultPlan,
    ) -> Result<RunReport, RunError> {
        run_with(sim, cfg, Some(plan), |_, eligible_procs, turn| {
            (turn as usize) % eligible_procs.len()
        })
    }

    fn read_world(n: usize) -> Sim {
        let mut l = Layout::new();
        let v = l.var("x", Value::Int(0));
        let mem = Memory::new(&l, n, Protocol::WriteBack);
        let procs: Vec<Box<dyn Program>> = (0..n)
            .map(|_| Box::new(ReadClient { v, pc: 0 }) as Box<dyn Program>)
            .collect();
        Sim::new(mem, procs)
    }

    #[test]
    fn round_robin_completes_quotas() {
        let mut sim = read_world(3);
        let cfg = RunConfig {
            passages_per_proc: 5,
            ..Default::default()
        };
        let report = run_round_robin(&mut sim, &cfg).unwrap();
        assert_eq!(report.completed, vec![5, 5, 5]);
    }

    #[test]
    fn random_completes_quotas() {
        let mut sim = read_world(4);
        let mut rng = Prng::new(42);
        let cfg = RunConfig {
            passages_per_proc: 3,
            ..Default::default()
        };
        let report = run_random(&mut sim, &mut rng, &cfg).unwrap();
        assert_eq!(report.completed, vec![3, 3, 3, 3]);
    }

    #[test]
    fn stall_detection_fires_on_livelock_and_names_spinners() {
        let mut l = Layout::new();
        let v = l.var("x", Value::Int(0));
        let mem = Memory::new(&l, 2, Protocol::WriteBack);
        let mut sim = Sim::new(
            mem,
            vec![
                Box::new(Spinner { v, started: false }),
                Box::new(Spinner { v, started: false }),
            ],
        );
        let cfg = RunConfig {
            passages_per_proc: 1,
            max_steps: 10_000,
            stall_after: 100,
        };
        match run_round_robin(&mut sim, &cfg) {
            Err(err @ RunError::Stalled { .. }) => {
                let RunError::Stalled { ref spinners, .. } = err else {
                    unreachable!()
                };
                assert_eq!(
                    spinners.as_slice(),
                    &[(ProcId(0), v), (ProcId(1), v)],
                    "the watchdog must name every blocked spinner"
                );
                let msg = err.to_string();
                assert!(msg.contains("p0 on v0"), "got: {msg}");
                assert!(msg.contains("p1 on v0"), "got: {msg}");
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn planned_crash_fires_and_passage_is_rerun() {
        let mut sim = read_world(1);
        // Crash p0 right after its second step (the entry read): the
        // passage is abandoned and re-run from the remainder section.
        let plan = FaultPlan::crash_after(ProcId(0), 2);
        let cfg = RunConfig {
            passages_per_proc: 2,
            ..Default::default()
        };
        let report = round_robin_with_faults(&mut sim, &cfg, &plan).unwrap();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.completed, vec![2], "quota counts completed passages");
        assert_eq!(sim.stats(ProcId(0)).crashes, 1);
        assert!(sim.stats(ProcId(0)).recovery_ops > 0);
    }

    #[test]
    fn crash_due_in_cs_defers_until_exit() {
        // After its second step a ReadClient sits in the CS; the due
        // crash must wait for the step that leaves the CS.
        let mut sim = read_world(1);
        let plan = FaultPlan::crash_after(ProcId(0), 2);
        let cfg = RunConfig::default();
        let report = round_robin_with_faults(&mut sim, &cfg, &plan).unwrap();
        assert_eq!(report.crashes, 1);
        let t = {
            let mut sim2 = read_world(1);
            sim2.set_tracing(true);
            round_robin_with_faults(&mut sim2, &cfg, &plan).unwrap();
            sim2.take_trace().unwrap()
        };
        let crash_rec = t
            .iter()
            .find(|r| matches!(r.kind, StepKind::Crash))
            .expect("a crash must be recorded");
        assert_eq!(crash_rec.phase, Phase::Exit, "deferred past the CS");
    }

    #[test]
    fn empty_plan_matches_plain_runner() {
        let mut a = read_world(3);
        let mut b = read_world(3);
        let cfg = RunConfig {
            passages_per_proc: 4,
            ..Default::default()
        };
        let ra = run_round_robin(&mut a, &cfg).unwrap();
        let rb = round_robin_with_faults(&mut b, &cfg, &FaultPlan::none()).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn run_solo_reaches_predicate() {
        let mut sim = read_world(2);
        let steps = run_solo(&mut sim, ProcId(0), 100, |s| {
            s.phase(ProcId(0)) == Phase::Cs
        })
        .unwrap();
        assert_eq!(steps, 2, "begin passage + one entry read");
        assert_eq!(sim.phase(ProcId(1)), Phase::Remainder, "others untouched");
    }

    #[test]
    fn run_solo_budget_exhaustion_returns_none() {
        let mut sim = read_world(1);
        assert_eq!(run_solo(&mut sim, ProcId(0), 3, |_| false), None);
    }

    #[test]
    fn planned_crash_all_fires_once_and_is_reported() {
        let mut sim = read_world(3);
        sim.set_tracing(true);
        // Due after the run's 4th total step; it defers until no process
        // occupies the CS.
        let plan = FaultPlan::none().with_crash_all(4);
        let cfg = RunConfig {
            passages_per_proc: 2,
            ..Default::default()
        };
        let report = round_robin_with_faults(&mut sim, &cfg, &plan).unwrap();
        assert_eq!(report.crash_alls, 1);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.completed, vec![2, 2, 2]);
        for i in 0..3 {
            assert_eq!(sim.stats(ProcId(i)).crashes, 1, "p{i} hit by crash-all");
        }
        let t = sim.take_trace().unwrap();
        assert_eq!(
            t.iter()
                .filter(|r| matches!(r.kind, StepKind::CrashAll))
                .count(),
            1,
            "one system-wide crash, one record"
        );
    }

    #[test]
    fn crash_all_defers_while_any_process_occupies_cs() {
        let mut sim = read_world(2);
        sim.set_tracing(true);
        // Step 2 puts p0 in the CS under round-robin... drive manually:
        // park p0 in the CS, then run with a crash-all due immediately.
        run_solo(&mut sim, ProcId(0), 10, |s| s.phase(ProcId(0)) == Phase::Cs).unwrap();
        let mut driver = FaultDriver::new(&FaultPlan::none().with_crash_all(0), 2);
        assert!(
            driver.fire_crash_all_due(&mut sim).is_none(),
            "due crash-all must wait for the CS to empty"
        );
        run_solo(&mut sim, ProcId(0), 10, |s| {
            s.phase(ProcId(0)) == Phase::Remainder
        })
        .unwrap();
        assert!(driver.fire_crash_all_due(&mut sim).is_some());
        assert!(
            driver.fire_crash_all_due(&mut sim).is_none(),
            "one planned crash-all fires once"
        );
    }

    #[test]
    fn stall_diagnostic_reports_recovery_window() {
        let mut l = Layout::new();
        let v = l.var("x", Value::Int(0));
        let mem = Memory::new(&l, 1, Protocol::WriteBack);
        let mut sim = Sim::new(mem, vec![Box::new(Spinner { v, started: false })]);
        let cfg = RunConfig {
            passages_per_proc: 1,
            max_steps: 10_000,
            stall_after: 50,
        };
        // Without a crash: the stall is not in a recovery window.
        match run_round_robin(&mut sim.clone_world(), &cfg) {
            Err(RunError::Stalled { in_recovery, .. }) => {
                assert!(!in_recovery);
            }
            other => panic!("expected stall, got {other:?}"),
        }
        // Crash the spinner first: the ensuing stall is inside recovery,
        // and the diagnostic says so.
        sim.crash(ProcId(0));
        match run_round_robin(&mut sim, &cfg) {
            Err(err @ RunError::Stalled { .. }) => {
                let RunError::Stalled { in_recovery, .. } = err else {
                    unreachable!()
                };
                assert!(in_recovery, "the spinner never completed a passage");
                assert!(err.to_string().contains("inside a recovery window"));
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn second_run_quota_is_relative() {
        let mut sim = read_world(1);
        let cfg = RunConfig {
            passages_per_proc: 2,
            ..Default::default()
        };
        run_round_robin(&mut sim, &cfg).unwrap();
        let report = run_round_robin(&mut sim, &cfg).unwrap();
        assert_eq!(report.completed, vec![2], "quota counts from run start");
        assert_eq!(sim.stats(ProcId(0)).passages, 4);
    }
}
