//! Parallel state-space exploration: a work-sharing frontier of schedule
//! prefixes feeding N scoped worker threads.
//!
//! ## Architecture
//!
//! The unit of work is a **batched frame** ([`Job`]): a configuration
//! (an owned, boxed [`Sim`]), the schedule prefix that reaches it, and a batch
//! of candidate entries still to branch on from there. Workers run the
//! same arena-based DFS as the sequential explorer over their job; when
//! the shared queue runs low, a worker *donates* the bottom-most
//! unexplored slice of its own stack as a fresh job (the stack-slicing
//! scheme of parallel SPIN) — subtree-sized work units, handed out from
//! the root end where they are biggest.
//!
//! Deduplication goes through one [`crate::visited::Visited`] set —
//! 64 mutex-striped shards selected by the top bits of the state key,
//! so concurrent inserts rarely contend. The key discipline is chosen
//! by [`crate::CheckConfig::symmetry`] — concrete O(1) incremental
//! keys, symmetry-quotient canonical keys, or the full-rehash SipHash
//! baseline the perf suite measures against.
//!
//! ## Determinism
//!
//! On a **complete** run every configuration is inserted into the
//! visited set exactly once (shard insertion is atomic), hence expanded
//! exactly once, so `states_explored` / `transitions` /
//! `crash_transitions` / `terminal_states` are identical to the
//! sequential explorer's — for any worker count — even though the visit
//! *order* is scheduler-dependent. (`max_depth_seen` is an
//! order-dependent diagnostic; see [`crate::CheckReport::counts`].)
//!
//! A violation is different: whichever worker trips it first wins the
//! race, so the *discovering* schedule is nondeterministic. Workers
//! therefore only raise a cancellation flag; the coordinator then
//! re-finds the counterexample with a sequential breadth-first,
//! entry-ordered search from the root, which returns the **lowest**
//! violating schedule — shortest, and lexicographically least in entry
//! order among the shortest — independent of worker count or timing.
//! Shrink/replay artifacts built from it are therefore reproducible.

use crate::visited::{KeySet, Visited};
use crate::{
    check_config, push_entries, Budgets, CheckConfig, CheckError, CheckReport, SchedEntry,
    WorldPool,
};
use ccsim::Sim;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Iterations a worker waits after a failed donation attempt before
/// rescanning its stack (the scan is O(depth); failure means the stack
/// had nothing spare, which a few pushes can change).
const DONATE_COOLDOWN: u32 = 32;

/// A batched frame: one configuration plus the branch entries a worker
/// should explore from it.
struct Job {
    sim: Box<Sim>,
    /// Schedule from the root to `sim` (for depth accounting and for
    /// labelling donations; violations never use it — see module docs).
    prefix: Vec<SchedEntry>,
    entries: Vec<SchedEntry>,
    budgets: Budgets,
}

/// Per-worker counters, summed by the coordinator after the join.
#[derive(Default)]
struct Partial {
    states: u64,
    transitions: u64,
    crash_transitions: u64,
    terminal: u64,
    max_depth: usize,
}

/// State shared by the coordinator and all workers.
struct Shared<'a> {
    cfg: &'a CheckConfig,
    quota: u64,
    workers: usize,
    /// The visited set, keyed by [`CheckConfig::symmetry`].
    visited: &'a Visited,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    /// Jobs queued or currently being processed. Strictly positive while
    /// any work can still be produced (a worker only pushes jobs while
    /// processing one), so `pending == 0` under the queue lock is a safe
    /// global-termination signal.
    pending: AtomicUsize,
    /// Approximate queue length, read without the lock to decide whether
    /// to donate.
    qlen: AtomicUsize,
    /// Global distinct-state counter (root included) for the
    /// `max_states` cap.
    states: AtomicU64,
    stop: AtomicBool,
    violated: AtomicBool,
    capped: AtomicBool,
}

impl Shared<'_> {
    /// Enqueue a job. Callers are either the coordinator (before workers
    /// start) or a worker mid-job, whose own pending count keeps the
    /// termination invariant safe across the increment-then-push window.
    fn push_job(&self, job: Job) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let mut q = self.queue.lock().unwrap();
        q.push_back(job);
        self.qlen.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.ready.notify_one();
    }

    /// Blocking pop: returns `None` when exploration is over (violation
    /// raised, or no queued or in-flight work remains).
    fn next_job(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(job) = q.pop_front() {
                self.qlen.fetch_sub(1, Ordering::Relaxed);
                return Some(job);
            }
            if self.pending.load(Ordering::Acquire) == 0 {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    /// Mark the worker's current job finished; wake everyone on global
    /// termination so blocked `next_job` calls can observe `pending == 0`.
    fn job_done(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.queue.lock().unwrap();
            self.ready.notify_all();
        }
    }

    /// First-violation-wins cancellation: raise the flags and wake every
    /// parked worker so the whole fleet drains promptly.
    fn flag_violation(&self) {
        self.violated.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        let _guard = self.queue.lock().unwrap();
        self.ready.notify_all();
    }
}

/// A worker-local DFS frame; identical discipline to the sequential
/// explorer (entries live in a shared arena, truncated on pop, and the
/// world is held by handle).
struct WFrame {
    sim: Box<Sim>,
    estart: usize,
    next: usize,
    eend: usize,
    chosen: Option<SchedEntry>,
    budgets: Budgets,
}

/// Donate the bottom-most unexplored slice of the stack as a job, if
/// any. Bottom frames hold the largest subtrees, so one donation moves a
/// big chunk of work; the donor keeps one entry when the only spare work
/// is on its top frame. The donated world is copied into a spare from the
/// donor's pool when it has one; the receiver recycles it into its own
/// pool when the job ends. Returns false if nothing was donatable.
fn donate(
    sh: &Shared<'_>,
    prefix: &[SchedEntry],
    stack: &mut [WFrame],
    arena: &[SchedEntry],
    pool: &mut WorldPool,
) -> bool {
    let Some(i) = stack.iter().position(|f| f.next < f.eend) else {
        return false;
    };
    let is_top = i == stack.len() - 1;
    let dstart = if is_top {
        if stack[i].eend - stack[i].next < 2 {
            return false; // a lone entry on the top frame: keep it
        }
        stack[i].next + 1
    } else {
        stack[i].next
    };
    let dend = stack[i].eend;
    let mut jp = Vec::with_capacity(prefix.len() + i);
    jp.extend_from_slice(prefix);
    jp.extend(stack[1..=i].iter().map(|f| {
        f.chosen
            .expect("non-root frames always record their producing entry")
    }));
    let job = Job {
        sim: pool.copy_of(&stack[i].sim),
        prefix: jp,
        entries: arena[dstart..dend].to_vec(),
        budgets: stack[i].budgets,
    };
    stack[i].eend = dstart; // the donated range is no longer ours
    sh.push_job(job);
    true
}

/// Run one job to exhaustion (or cancellation) with the sequential
/// explorer's arena DFS, donating spare subtrees while the queue is
/// hungry.
fn run_job(
    sh: &Shared<'_>,
    job: Job,
    arena: &mut Vec<SchedEntry>,
    pool: &mut WorldPool,
    invariant: &(dyn Fn(&Sim) -> Result<(), String> + Sync),
    part: &mut Partial,
) {
    let Job {
        sim,
        prefix,
        entries,
        budgets,
    } = job;
    arena.clear();
    arena.extend_from_slice(&entries);
    let mut stack = vec![WFrame {
        sim,
        estart: 0,
        next: 0,
        eend: arena.len(),
        chosen: None,
        budgets,
    }];
    let mut cooldown = 0u32;

    while !stack.is_empty() {
        if sh.stop.load(Ordering::Relaxed) {
            return;
        }
        if cooldown > 0 {
            cooldown -= 1;
        } else if sh.qlen.load(Ordering::Relaxed) < sh.workers
            && !donate(sh, &prefix, &mut stack, arena, pool)
        {
            cooldown = DONATE_COOLDOWN;
        }

        let top = stack.last_mut().expect("loop precondition");
        if top.next >= top.eend {
            arena.truncate(top.estart);
            if let Some(frame) = stack.pop() {
                pool.recycle(frame.sim);
            }
            continue;
        }
        let entry = arena[top.next];
        top.next += 1;
        let budgets = top.budgets.after(entry);

        // Branch through the worker-local pool (see `WorldPool`);
        // `donate` only hands out frames with entries left, so nothing
        // reads the exhausted frame whose world a last branch takes.
        let mut child = pool.branch(&mut top.sim, top.next == top.eend);
        entry.apply(&mut child);
        part.transitions += 1;
        part.crash_transitions += entry.is_crash() as u64;

        if child.check_mutual_exclusion().is_err() || invariant(&child).is_err() {
            // Don't report from here: the race winner is timing-dependent.
            // Flag and let the coordinator re-find the lowest schedule.
            sh.flag_violation();
            return;
        }

        if !sh.visited.insert(&child, sh.quota, budgets) {
            pool.recycle(child);
            continue; // rejoined a known configuration
        }
        part.states += 1;
        let depth = prefix.len() + stack.len();
        part.max_depth = part.max_depth.max(depth);

        let total = sh.states.fetch_add(1, Ordering::Relaxed) + 1;
        if total >= sh.cfg.max_states || depth >= sh.cfg.max_depth {
            sh.capped.store(true, Ordering::Relaxed);
            pool.recycle(child);
            continue; // stop deepening; keep scanning siblings
        }

        let estart = arena.len();
        push_entries(&child, sh.quota, budgets, sh.cfg.crash_in_cs, arena);
        if arena.len() == estart {
            part.terminal += 1;
            pool.recycle(child);
            continue;
        }
        stack.push(WFrame {
            sim: child,
            estart,
            next: estart,
            eend: arena.len(),
            chosen: Some(entry),
            budgets,
        });
    }
}

/// Worker main loop: drain jobs until global termination.
fn worker(sh: &Shared<'_>, invariant: &(dyn Fn(&Sim) -> Result<(), String> + Sync)) -> Partial {
    let mut part = Partial::default();
    let mut arena: Vec<SchedEntry> = Vec::new();
    let mut pool = WorldPool::new(sh.cfg.symmetry);
    while let Some(job) = sh.next_job() {
        run_job(sh, job, &mut arena, &mut pool, invariant, &mut part);
        sh.job_done();
    }
    part
}

/// Deterministic counterexample recovery: a sequential breadth-first
/// search from the root, visiting each level's configurations in
/// creation order and each configuration's entries in canonical order
/// (steps by pid, then crashes by pid — the [`push_entries`] order).
/// The first violating transition found this way is the shortest
/// violating schedule, ties broken lexicographically by entry order —
/// a property of the *state graph*, independent of how many workers
/// stumbled on which violation first.
///
/// Called only after a worker has actually observed a violation, so the
/// search is guaranteed to find one (any violating transition's source
/// is reachable, and breadth-first dedup never closes the frontier
/// before exhausting reachable depths). The root is probed first, so a
/// violating initial configuration comes back with the empty schedule.
fn min_violation(
    factory: &impl Fn() -> Sim,
    cfg: &CheckConfig,
    invariant: &(dyn Fn(&Sim) -> Result<(), String> + Sync),
) -> CheckError {
    let quota = cfg.passages_per_proc;
    let root = factory();
    if let Err(e) = check_config(&root, invariant, Vec::new) {
        return e;
    }
    let root_budgets = Budgets::of(cfg);
    // BFS-local dedup, but through the *configured* key function: under
    // Symmetry::Quotient each orbit is expanded once here too, and the
    // breadth-first level structure still yields a shortest violating
    // schedule on concrete states (a violation at concrete depth d has
    // its orbit reached at quotient depth <= d, because class
    // permutations map offered entries to offered entries).
    let keys = Visited::new(cfg.symmetry);
    let mut visited = KeySet::new();
    visited.insert(keys.key(&root, quota, root_budgets));
    let mut level: Vec<(Sim, Vec<SchedEntry>, Budgets)> = vec![(root, Vec::new(), root_budgets)];
    let mut entries: Vec<SchedEntry> = Vec::new();

    while !level.is_empty() {
        let mut next_level = Vec::new();
        for (sim, prefix, budgets) in &level {
            entries.clear();
            push_entries(sim, quota, *budgets, cfg.crash_in_cs, &mut entries);
            for &entry in &entries {
                let nb = budgets.after(entry);
                let mut child = sim.clone_world();
                entry.apply(&mut child);
                let mut sched = Vec::with_capacity(prefix.len() + 1);
                sched.extend_from_slice(prefix);
                sched.push(entry);
                if let Err(e) = check_config(&child, invariant, || sched.clone()) {
                    return e;
                }
                if visited.insert(keys.key(&child, quota, nb)) && sched.len() < cfg.max_depth {
                    next_level.push((child, sched, nb));
                }
            }
        }
        level = next_level;
    }
    unreachable!(
        "a worker observed a violation but the breadth-first re-search \
         exhausted the reachable space without one"
    )
}

/// Parallel [`crate::explore`]: explore every interleaving with `workers`
/// threads (0 = one per available core), checking Mutual Exclusion in
/// every reachable configuration (the initial one included).
///
/// On a complete run the report's [`CheckReport::counts`] are identical
/// to the sequential explorer's for any worker count. A violation is
/// reported as the deterministic lowest schedule (see the module docs).
///
/// # Errors
/// Returns the violating schedule if any reachable configuration breaks
/// Mutual Exclusion.
pub fn explore_par(
    factory: impl Fn() -> Sim,
    cfg: &CheckConfig,
    workers: usize,
) -> Result<CheckReport, CheckError> {
    explore_par_with(factory, cfg, workers, |_| Ok(()))
}

/// Like [`explore_par`], additionally checking `invariant` in every
/// reachable configuration. The invariant is called concurrently from
/// worker threads, hence the `Sync` bound; it must be a pure function of
/// the configuration (the same contract the deterministic-counterexample
/// re-search relies on).
///
/// # Errors
/// Returns the lowest violating schedule on a Mutual Exclusion or
/// invariant failure.
pub fn explore_par_with(
    factory: impl Fn() -> Sim,
    cfg: &CheckConfig,
    workers: usize,
    invariant: impl Fn(&Sim) -> Result<(), String> + Sync,
) -> Result<CheckReport, CheckError> {
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    };

    let root = Box::new(factory());
    check_config(&root, &invariant, Vec::new)?;
    let quota = cfg.passages_per_proc;
    let root_budgets = Budgets::of(cfg);
    let visited = Visited::new(cfg.symmetry);
    let sh = Shared {
        cfg,
        quota,
        workers,
        visited: &visited,
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        pending: AtomicUsize::new(0),
        qlen: AtomicUsize::new(0),
        states: AtomicU64::new(1), // the root
        stop: AtomicBool::new(false),
        violated: AtomicBool::new(false),
        capped: AtomicBool::new(false),
    };
    sh.visited.insert(&root, quota, root_budgets);

    let mut root_entries = Vec::new();
    push_entries(
        &root,
        quota,
        root_budgets,
        cfg.crash_in_cs,
        &mut root_entries,
    );
    if root_entries.is_empty() {
        return Ok(CheckReport {
            states_explored: 1,
            transitions: 0,
            crash_transitions: 0,
            max_depth_seen: 0,
            terminal_states: 1,
            complete: true,
            visited: sh.visited.stats(),
        });
    }
    sh.push_job(Job {
        sim: root,
        prefix: Vec::new(),
        entries: root_entries,
        budgets: root_budgets,
    });

    let partials: Vec<Partial> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| worker(&sh, &invariant)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    if sh.violated.load(Ordering::Relaxed) {
        return Err(min_violation(&factory, cfg, &invariant));
    }

    let mut report = CheckReport {
        states_explored: 1,
        transitions: 0,
        crash_transitions: 0,
        max_depth_seen: 0,
        terminal_states: 0,
        complete: !sh.capped.load(Ordering::Relaxed),
        visited: sh.visited.stats(),
    };
    for p in &partials {
        report.states_explored += p.states;
        report.transitions += p.transitions;
        report.crash_transitions += p.crash_transitions;
        report.terminal_states += p.terminal;
        report.max_depth_seen = report.max_depth_seen.max(p.max_depth);
    }
    debug_assert_eq!(
        report.states_explored,
        sh.visited.len(),
        "every visited-set insert must be counted exactly once"
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore;
    use ccsim::Protocol;

    fn cfg(passages: u64, crash_budget: u32) -> CheckConfig {
        CheckConfig {
            passages_per_proc: passages,
            crash_budget,
            ..Default::default()
        }
    }

    #[test]
    fn matches_sequential_counts_on_tournament() {
        for crash_budget in [0u32, 1] {
            let c = cfg(1, crash_budget);
            let seq = explore(|| wmutex::mutex_world(2, Protocol::WriteBack), &c).unwrap();
            for workers in [1usize, 2, 4] {
                let par = explore_par(|| wmutex::mutex_world(2, Protocol::WriteBack), &c, workers)
                    .unwrap();
                assert_eq!(
                    par.counts(),
                    seq.counts(),
                    "workers={workers} crash_budget={crash_budget}"
                );
            }
        }
    }

    #[test]
    fn quiescent_root_reports_single_terminal_state() {
        let c = CheckConfig {
            passages_per_proc: 0, // nobody may even start a passage
            ..Default::default()
        };
        let par = explore_par(|| wmutex::mutex_world(2, Protocol::WriteBack), &c, 4).unwrap();
        assert_eq!(par.states_explored, 1);
        assert_eq!(par.terminal_states, 1);
        assert!(par.complete);
    }

    #[test]
    fn caps_mark_report_incomplete() {
        let c = CheckConfig {
            passages_per_proc: 2,
            max_states: 50,
            ..Default::default()
        };
        let par = explore_par(|| wmutex::mutex_world(3, Protocol::WriteBack), &c, 2).unwrap();
        assert!(!par.complete);
        assert!(par.states_explored >= 50);
    }

    #[test]
    fn zero_workers_means_auto() {
        let c = cfg(1, 0);
        let report = explore_par(|| wmutex::mutex_world(2, Protocol::WriteBack), &c, 0).unwrap();
        assert!(report.complete);
    }

    #[test]
    fn violation_schedule_is_worker_count_independent_and_minimal() {
        // An invariant violated once anyone reaches the CS: the lowest
        // schedule drives exactly one process straight there.
        let check = |sim: &Sim| -> Result<(), String> {
            if sim.procs_in_cs().is_empty() {
                Ok(())
            } else {
                Err("occupied".into())
            }
        };
        let c = cfg(1, 0);
        let mut schedules = Vec::new();
        for workers in [1usize, 2, 8] {
            let err = explore_par_with(
                || wmutex::mutex_world(2, Protocol::WriteBack),
                &c,
                workers,
                check,
            )
            .unwrap_err();
            schedules.push(err.schedule().to_vec());
        }
        assert_eq!(schedules[0], schedules[1]);
        assert_eq!(schedules[1], schedules[2]);
        // Breadth-first lowest schedule: no shorter one can exist, and
        // replaying it must reproduce the violation.
        let sim = crate::replay(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &schedules[0],
        );
        assert!(!sim.procs_in_cs().is_empty());
        for shorter in 0..schedules[0].len().saturating_sub(1) {
            let sim = crate::replay(
                || wmutex::mutex_world(2, Protocol::WriteBack),
                &schedules[0][..=shorter],
            );
            assert!(
                sim.procs_in_cs().is_empty(),
                "a shorter prefix already violates — not minimal"
            );
        }
    }
}
