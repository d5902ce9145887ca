//! Deterministic crash-fault injection plans.
//!
//! A [`FaultPlan`] declares *which* processes crash and *when* — after a
//! given number of their own scheduled steps — either hand-placed or drawn
//! from a seeded [`Prng`]. The plan is pure data: the scheduler (see
//! [`crate::run_round_robin_with_faults`] and friends) owns a
//! [`FaultDriver`] that walks the plan during a run and fires
//! [`crate::Sim::crash`] at the due points. The same plan against the same
//! schedule therefore reproduces the same crashes — fault injection stays
//! deterministic and replayable.

use crate::program::Phase;
use crate::rng::Prng;
use crate::sim::Sim;
use crate::value::ProcId;
use std::fmt;

/// One planned crash: process `proc` crashes immediately after it has
/// taken `after_steps` scheduled steps (section transitions included).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CrashPoint {
    /// The process to crash.
    pub proc: ProcId,
    /// Fire immediately after the process's `after_steps`-th scheduled
    /// step. Crashes strike *between* steps, never before the victim's
    /// first one, so `0` behaves like `1`.
    pub after_steps: u64,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crash {} after step {}", self.proc, self.after_steps)
    }
}

/// A deterministic crash-fault plan: a set of [`CrashPoint`]s plus the
/// policy of whether a crash may strike a process *inside* the critical
/// section.
///
/// With `avoid_cs` (the default), a crash that comes due while its victim
/// occupies the CS is deferred until the process's first step outside the
/// CS — the "crashes outside the critical section" regime under which a
/// non-recoverable lock should still preserve Mutual Exclusion (losing
/// only liveness).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    crashes: Vec<CrashPoint>,
    /// System-wide crash points, keyed on the run's *total* scheduled step
    /// count (a crash-all has no single victim to count steps for).
    crash_alls: Vec<u64>,
    avoid_cs: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no crashes (runners behave exactly as without
    /// fault injection).
    pub fn none() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            crash_alls: Vec::new(),
            avoid_cs: true,
        }
    }

    /// A plan with the single crash of `p` after its `k`-th step.
    pub fn crash_after(p: ProcId, k: u64) -> Self {
        FaultPlan::none().with_crash(p, k)
    }

    /// Add a crash of `p` after its `k`-th step (builder style). A process
    /// may crash multiple times at distinct points.
    pub fn with_crash(mut self, p: ProcId, k: u64) -> Self {
        self.crashes.push(CrashPoint {
            proc: p,
            after_steps: k,
        });
        self
    }

    /// Add a *system-wide* crash ([`crate::Sim::crash_all`]) due after the
    /// run's `k`-th scheduled step in total (builder style). Under
    /// `avoid_cs`, a due crash-all is deferred while **any** process
    /// occupies the CS.
    pub fn with_crash_all(mut self, k: u64) -> Self {
        self.crash_alls.push(k);
        self
    }

    /// Allow (or keep forbidding) crashes while the victim is inside the
    /// critical section.
    pub fn allow_crash_in_cs(mut self, allow: bool) -> Self {
        self.avoid_cs = !allow;
        self
    }

    /// `n_crashes` seeded-random crash points over `n_procs` processes,
    /// each due within the victim's first `max_step` steps. Deterministic
    /// in `seed`.
    ///
    /// # Panics
    /// Panics if `n_procs == 0` or `max_step == 0`.
    pub fn random(seed: u64, n_procs: usize, n_crashes: usize, max_step: u64) -> Self {
        assert!(n_procs > 0, "need at least one process");
        assert!(max_step > 0, "need a positive step horizon");
        let mut rng = Prng::new(seed);
        let mut plan = FaultPlan::none();
        for _ in 0..n_crashes {
            let p = ProcId(rng.below(n_procs));
            let k = rng.next_u64() % max_step;
            plan = plan.with_crash(p, k);
        }
        plan
    }

    /// `n_crash_alls` seeded-random system-wide crash points, each due
    /// within the run's first `max_total_step` total steps. Deterministic
    /// in `seed`.
    ///
    /// # Panics
    /// Panics if `max_total_step == 0`.
    pub fn random_crash_alls(seed: u64, n_crash_alls: usize, max_total_step: u64) -> Self {
        assert!(max_total_step > 0, "need a positive step horizon");
        let mut rng = Prng::new(seed);
        let mut plan = FaultPlan::none();
        for _ in 0..n_crash_alls {
            plan = plan.with_crash_all(rng.next_u64() % max_total_step);
        }
        plan
    }

    /// The planned crash points, in insertion order.
    pub fn crash_points(&self) -> &[CrashPoint] {
        &self.crashes
    }

    /// The planned system-wide crash points (total-step triggers), in
    /// insertion order.
    pub fn crash_all_points(&self) -> &[u64] {
        &self.crash_alls
    }

    /// Whether crashes are deferred while the victim is in the CS.
    pub fn avoids_cs(&self) -> bool {
        self.avoid_cs
    }

    /// True if the plan contains no crashes of either kind.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.crash_alls.is_empty()
    }
}

/// Walks a [`FaultPlan`] during a run: counts each process's scheduled
/// steps and reports when a planned crash is due. Owned by the fault-aware
/// runners ([`crate::run_round_robin_with_faults`],
/// [`crate::run_random_with_faults`]); exposed for custom schedulers.
#[derive(Clone, Debug)]
pub struct FaultDriver {
    /// Per process: pending crash trigger step counts, sorted descending
    /// so the next due point is at the back.
    pending: Vec<Vec<u64>>,
    /// Per process: scheduled steps taken so far in this run.
    taken: Vec<u64>,
    /// Pending system-wide crash triggers (total-step counts), sorted
    /// descending so the next due point is at the back.
    pending_alls: Vec<u64>,
    /// Total scheduled steps observed in this run.
    total_taken: u64,
    avoid_cs: bool,
}

impl FaultDriver {
    /// A driver for `plan` over `n_procs` processes.
    ///
    /// # Panics
    /// Panics if a crash point names a process `>= n_procs`.
    pub fn new(plan: &FaultPlan, n_procs: usize) -> Self {
        let mut pending = vec![Vec::new(); n_procs];
        for c in &plan.crashes {
            assert!(
                c.proc.0 < n_procs,
                "crash point {c} names a process out of range"
            );
            pending[c.proc.0].push(c.after_steps);
        }
        for q in &mut pending {
            q.sort_unstable_by(|a, b| b.cmp(a));
        }
        let mut pending_alls = plan.crash_alls.clone();
        pending_alls.sort_unstable_by(|a, b| b.cmp(a));
        FaultDriver {
            pending,
            taken: vec![0; n_procs],
            pending_alls,
            total_taken: 0,
            avoid_cs: plan.avoid_cs,
        }
    }

    /// Record that `p` took one scheduled step.
    pub fn note_step(&mut self, p: ProcId) {
        self.taken[p.0] += 1;
        self.total_taken += 1;
    }

    /// Crash `p` now if a planned crash is due (and, under `avoid_cs`, the
    /// process is not in the CS — a due crash then stays pending until the
    /// process steps out). Returns the crash record if one fired.
    pub fn fire_due(&mut self, sim: &mut Sim, p: ProcId) -> Option<crate::trace::StepRecord> {
        let due = matches!(self.pending[p.0].last(), Some(&k) if k <= self.taken[p.0]);
        if !due || (self.avoid_cs && sim.phase(p) == Phase::Cs) {
            return None;
        }
        self.pending[p.0].pop();
        Some(sim.crash(p))
    }

    /// Fire a system-wide crash now if one is due (and, under `avoid_cs`,
    /// no process occupies the CS — a due crash-all then stays pending
    /// until the CS empties). Returns the crash record if one fired.
    pub fn fire_crash_all_due(&mut self, sim: &mut Sim) -> Option<crate::trace::StepRecord> {
        let due = matches!(self.pending_alls.last(), Some(&k) if k <= self.total_taken);
        if !due || (self.avoid_cs && !sim.procs_in_cs().is_empty()) {
            return None;
        }
        self.pending_alls.pop();
        Some(sim.crash_all())
    }

    /// True if no crash of either kind remains pending.
    pub fn is_done(&self) -> bool {
        self.pending.iter().all(Vec::is_empty) && self.pending_alls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let plan = FaultPlan::crash_after(ProcId(1), 3)
            .with_crash(ProcId(0), 5)
            .allow_crash_in_cs(true);
        assert_eq!(plan.crash_points().len(), 2);
        assert!(!plan.avoids_cs());
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().avoids_cs());
    }

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::random(7, 4, 6, 100);
        let b = FaultPlan::random(7, 4, 6, 100);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.crash_points().len(), 6);
        for c in a.crash_points() {
            assert!(c.proc.0 < 4);
            assert!(c.after_steps < 100);
        }
        let c = FaultPlan::random(8, 4, 6, 100);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn crash_all_points_build_and_randomize_deterministically() {
        let plan = FaultPlan::none().with_crash_all(4).with_crash_all(9);
        assert_eq!(plan.crash_all_points(), &[4, 9]);
        assert!(!plan.is_empty(), "crash-alls alone make the plan non-empty");
        assert!(plan.crash_points().is_empty());

        let a = FaultPlan::random_crash_alls(3, 2, 50);
        let b = FaultPlan::random_crash_alls(3, 2, 50);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.crash_all_points().len(), 2);
        for &k in a.crash_all_points() {
            assert!(k < 50);
        }
    }

    #[test]
    fn display_names_the_victim() {
        let c = CrashPoint {
            proc: ProcId(2),
            after_steps: 9,
        };
        assert_eq!(c.to_string(), "crash p2 after step 9");
    }
}
