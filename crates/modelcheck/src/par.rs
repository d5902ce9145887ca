//! The one search loop behind both explorers: a work-sharing frontier of
//! schedule prefixes feeding N workers, one of them on the calling
//! thread. [`crate::explore_with`] is this search with one worker.
//!
//! ## Architecture
//!
//! The unit of work is a **batched frame** ([`Job`]): a configuration
//! (an owned, boxed [`Sim`]), the schedule prefix that reaches it, and a batch
//! of candidate entries still to branch on from there. Each worker runs
//! an arena-based DFS over its job; when the shared queue runs low, it
//! *donates* the bottom-most unexplored slice of its own stack as a fresh
//! job (the stack-slicing scheme of parallel SPIN) — subtree-sized work
//! units, handed out from the root end where they are biggest. A lone
//! worker never donates, so one worker is one plain DFS.
//!
//! Deduplication goes through one [`crate::visited::Visited`] set —
//! 64 mutex-striped shards selected by the top bits of the state key,
//! so concurrent inserts rarely contend. The key discipline is chosen
//! by [`crate::CheckConfig::symmetry`] — concrete O(1) incremental
//! keys, symmetry-quotient canonical keys, or the full-rehash SipHash
//! baseline the perf suite measures against.
//!
//! ## Keys before worlds
//!
//! Most transitions rejoin a configuration already visited, so a worker
//! keys each successor before it builds one. Under [`crate::Symmetry::Off`]
//! and [`crate::Symmetry::Quotient`], a step, crash or abort of one process
//! is keyed from its parent through an overlay: the value the step
//! writes comes from [`Sim::step_effect`], and the process's next digest
//! and phase from the worker's memo of local moves
//! ([`crate::moves::LocalMoves`]). A per-worker [`SeenFilter`] of 4,096
//! keys already in the set answers most duplicates without the shard
//! mutex. Only a new key gets a world: it is claimed in the visited set,
//! then the successor is branched, stepped, probed and expanded. A memo
//! miss, a `CrashAll` (which changes every process) and every transition
//! of the [`crate::Symmetry::FullRehash`] baseline build the successor
//! first and key the built world. Debug builds check every successor
//! built for a predicted key against the key of the built world.
//!
//! Every search probes a configuration once, with Mutual Exclusion and
//! its invariant, when its key is first claimed, and never again when a
//! later transition rejoins it; the breadth-first re-search below keeps
//! the same discipline. That is sound because of the **invariant
//! contract**: an invariant must be a function of what the key holds,
//! which is the variables' values, the processes' local states, their
//! passages up to the quota and their abort flags (not, say,
//! [`Sim::stats`] or the cache contents); under
//! [`crate::Symmetry::Quotient`] it must also be symmetric across the
//! declared classes. Mutual Exclusion reads only phases and roles, so it
//! meets the contract. An invariant then runs once per configuration,
//! once per orbit under the quotient.
//!
//! ## Determinism
//!
//! On a **complete** run every configuration is inserted into the
//! visited set exactly once (shard insertion is atomic), hence expanded
//! exactly once, so `states_explored` / `transitions` /
//! `crash_transitions` / `terminal_states` are identical for any worker
//! count, even though the visit *order* is scheduler-dependent.
//! (`max_depth_seen` is an order-dependent diagnostic; see
//! [`crate::CheckReport::counts`].)
//!
//! A violation stops the search, and the worker that tripped it returns
//! its schedule: with one worker, the first violation on the DFS walk.
//! With several, the race winner is timing-dependent, so
//! [`explore_par_with`] discards it and re-finds the counterexample with
//! a sequential breadth-first, entry-ordered search from the root. That
//! returns the **lowest** violating schedule — shortest, and
//! lexicographically least in entry order among the shortest —
//! independent of worker count or timing, so shrink/replay artifacts
//! built from it are reproducible.

use crate::moves::{LocalMoves, Prediction, Successor};
use crate::visited::{KeySet, SeenFilter, Visited};
use crate::{
    check_config, push_entries, Budgets, CheckConfig, CheckError, CheckReport, SchedEntry,
    Symmetry, WorldPool,
};
use ccsim::Sim;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Schedule depth past which the search stops deepening (the run is then
/// incomplete, like one that hits [`CheckConfig::max_states`]).
const MAX_DEPTH: usize = 100_000;

/// Iterations a worker waits after a failed donation attempt before
/// rescanning its stack (the scan is O(depth); failure means the stack
/// had nothing spare, which a few pushes can change).
const DONATE_COOLDOWN: u32 = 32;

/// A batched frame: one configuration plus the branch entries a worker
/// should explore from it.
struct Job {
    sim: Box<Sim>,
    /// Schedule from the root to `sim`, for depth accounting, for
    /// labelling donations and for the schedule of a violation.
    prefix: Vec<SchedEntry>,
    entries: Vec<SchedEntry>,
    budgets: Budgets,
}

/// What a worker keeps across its jobs: the entry arena, the spare
/// worlds, the memo of local moves and the filter of seen keys, and its
/// counters.
struct Worker {
    arena: Vec<SchedEntry>,
    pool: WorldPool,
    moves: LocalMoves,
    seen: SeenFilter,
    part: Partial,
}

/// Per-worker counters, summed after the join.
#[derive(Default)]
struct Partial {
    states: u64,
    transitions: u64,
    crash_transitions: u64,
    terminal: u64,
    max_depth: usize,
    /// Whether a cap stopped this worker deepening somewhere.
    capped: bool,
}

/// State shared by all workers.
struct Shared<'a> {
    cfg: &'a CheckConfig,
    workers: usize,
    /// The visited set, keyed by [`CheckConfig::symmetry`].
    visited: Visited,
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
}

impl Shared<'_> {
    /// Enqueue a job. Callers are either the search before its workers
    /// start or a worker mid-job, whose own pending count keeps the
    /// termination invariant safe across the increment-then-push window.
    fn push_job(&self, job: Job) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let mut q = self.queue.lock().unwrap();
        q.push_back(job);
        self.qlen.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.ready.notify_one();
    }

    /// Blocking pop: returns `None` when exploration is over (stopped,
    /// or no queued or in-flight work remains).
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

    /// Cancel the search: raise `stop` and wake every parked worker so
    /// the whole fleet drains promptly. Called on a violation and while a
    /// worker unwinds, so it takes the queue lock even if poisoned.
    fn halt(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _guard = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        self.ready.notify_all();
    }
}

/// Halts the search if its worker unwinds: the others would otherwise
/// wait forever for the job a panicking worker never finishes.
struct HaltOnUnwind<'s, 'a>(&'s Shared<'a>);

impl Drop for HaltOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

/// A suspended configuration. Its candidate entries live in the worker's
/// arena at `[next, eend)` (`estart` marks where they began, for
/// truncation on pop) — frames own index ranges, not `Vec`s, so
/// expanding a state allocates nothing once the arena is warm. The world
/// is held by handle, so pushing, popping and recycling a frame moves a
/// pointer, not the `Sim`.
struct Frame {
    sim: Box<Sim>,
    estart: usize,
    next: usize,
    eend: usize,
    /// The entry that produced this frame's configuration (`None` for a
    /// job's first frame) — used to rebuild schedules.
    chosen: Option<SchedEntry>,
    budgets: Budgets,
}

/// The schedule from the root to the top of `frames`: the job's prefix,
/// then the entry that produced each frame.
fn schedule_to(prefix: &[SchedEntry], frames: &[Frame]) -> Vec<SchedEntry> {
    // Room for one more entry, which a violation appends.
    let mut sched = Vec::with_capacity(prefix.len() + frames.len());
    sched.extend_from_slice(prefix);
    sched.extend(frames.iter().filter_map(|f| f.chosen));
    sched
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
    stack: &mut [Frame],
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
    let job = Job {
        sim: pool.copy_of(&stack[i].sim),
        prefix: schedule_to(prefix, &stack[..=i]),
        entries: arena[dstart..dend].to_vec(),
        budgets: stack[i].budgets,
    };
    stack[i].eend = dstart; // the donated range is no longer ours
    sh.push_job(job);
    true
}

/// Run one job to exhaustion (or cancellation) with an arena DFS,
/// donating spare subtrees while the queue is hungry and other workers
/// could take them. A violation halts the search and comes back with
/// the schedule that reaches it.
fn run_job<I>(sh: &Shared<'_>, job: Job, w: &mut Worker, invariant: &I) -> Result<(), CheckError>
where
    I: Fn(&Sim) -> Result<(), String> + Sync,
{
    let Job {
        sim,
        prefix,
        entries,
        budgets,
    } = job;
    let Worker {
        arena,
        pool,
        moves,
        seen,
        part,
    } = w;
    // The full-rehash baseline keys only built worlds.
    let predict = sh.cfg.symmetry != Symmetry::FullRehash;
    arena.clear();
    arena.extend_from_slice(&entries);
    let mut stack = vec![Frame {
        sim,
        estart: 0,
        next: 0,
        eend: arena.len(),
        chosen: None,
        budgets,
    }];
    let quota = sh.cfg.passages_per_proc;
    let mut cooldown = 0u32;

    while !stack.is_empty() {
        if sh.stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        // A lone worker never donates: nobody else would run the job,
        // and splitting the stack would reorder its DFS.
        if cooldown > 0 {
            cooldown -= 1;
        } else if sh.workers > 1
            && sh.qlen.load(Ordering::Relaxed) < sh.workers
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
        let last = top.next == top.eend;
        let budgets = top.budgets.after(entry);
        part.transitions += 1;
        part.crash_transitions += entry.is_crash() as u64;

        // Keys before worlds: the successor's key comes from its parent
        // when the memo knows the move, and only a new key gets a world.
        // Branch through the worker-local pool (see `WorldPool`);
        // `donate` only hands out frames with entries left, so nothing
        // reads the exhausted frame whose world a last branch takes.
        let prediction = if predict {
            moves.predict(&top.sim, entry)
        } else {
            Prediction::Build
        };
        let (key, built) = match prediction {
            Prediction::Known(succ) => (sh.visited.key(&top.sim, &succ, quota, budgets), None),
            Prediction::Miss(..) | Prediction::Build => {
                let mut child = pool.branch(&mut top.sim, last);
                entry.apply(&mut child);
                if let Prediction::Miss(move_key, passages) = prediction {
                    moves.learn(move_key, passages, &child);
                }
                let key = sh.visited.key(&child, &Successor::NONE, quota, budgets);
                (key, Some(child))
            }
        };
        let new = !seen.contains(key) && sh.visited.insert(key);
        seen.note(key);
        if !new {
            if let Some(child) = built {
                pool.recycle(child);
            }
            continue; // rejoined a configuration probed where it was claimed
        }
        let child = built.unwrap_or_else(|| {
            let mut child = pool.branch(&mut top.sim, last);
            entry.apply(&mut child);
            debug_assert_eq!(
                sh.visited.key(&child, &Successor::NONE, quota, budgets),
                key,
                "the key predicted for {entry} is not the built successor's"
            );
            child
        });

        if let Err(e) = check_config(&child, invariant, || {
            let mut sched = schedule_to(&prefix, &stack);
            sched.push(entry);
            sched
        }) {
            sh.halt();
            return Err(e);
        }
        part.states += 1;
        let depth = prefix.len() + stack.len();
        part.max_depth = part.max_depth.max(depth);

        let total = sh.states.fetch_add(1, Ordering::Relaxed) + 1;
        if total >= sh.cfg.max_states || depth >= MAX_DEPTH {
            part.capped = true;
            pool.recycle(child);
            continue; // stop deepening; keep scanning siblings
        }

        let estart = arena.len();
        push_entries(&child, quota, budgets, sh.cfg.crash_in_cs, arena);
        if arena.len() == estart {
            part.terminal += 1;
            pool.recycle(child);
            continue;
        }
        stack.push(Frame {
            sim: child,
            estart,
            next: estart,
            eend: arena.len(),
            chosen: Some(entry),
            budgets,
        });
    }
    Ok(())
}

/// Worker main loop: drain jobs until global termination or the first
/// violation.
fn worker<I>(sh: &Shared<'_>, invariant: &I) -> Result<Partial, CheckError>
where
    I: Fn(&Sim) -> Result<(), String> + Sync,
{
    let _halt = HaltOnUnwind(sh);
    let mut w = Worker {
        arena: Vec::new(),
        pool: WorldPool::new(sh.cfg.symmetry),
        moves: LocalMoves::default(),
        seen: SeenFilter::new(),
        part: Partial::default(),
    };
    while let Some(job) = sh.next_job() {
        let outcome = run_job(sh, job, &mut w, invariant);
        sh.job_done();
        outcome?;
    }
    Ok(w.part)
}

/// Explore every interleaving of `factory`'s world with `workers` (≥ 1)
/// workers: one on the calling thread, `workers - 1` spawned. Checks
/// Mutual Exclusion and `invariant` once in every reachable
/// configuration, the root first, and returns the first violation a
/// worker reports (with one worker, the first on the DFS walk). A
/// worker's panic halts the others and comes out of this call.
pub(crate) fn search<I>(
    factory: impl Fn() -> Sim,
    cfg: &CheckConfig,
    workers: usize,
    invariant: &I,
) -> Result<CheckReport, CheckError>
where
    I: Fn(&Sim) -> Result<(), String> + Sync,
{
    let root = Box::new(factory());
    check_config(&root, invariant, Vec::new)?;
    let quota = cfg.passages_per_proc;
    let budgets = Budgets::of(cfg);
    let mut entries = Vec::new();
    push_entries(&root, quota, budgets, cfg.crash_in_cs, &mut entries);
    let root_is_terminal = entries.is_empty();
    let sh = Shared {
        cfg,
        workers,
        visited: Visited::new(cfg.symmetry),
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        pending: AtomicUsize::new(0),
        qlen: AtomicUsize::new(0),
        states: AtomicU64::new(1), // the root
        stop: AtomicBool::new(false),
    };
    sh.visited
        .insert(sh.visited.key(&root, &Successor::NONE, quota, budgets));
    sh.push_job(Job {
        sim: root,
        prefix: Vec::new(),
        entries,
        budgets,
    });

    let partials = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| worker(&sh, invariant)))
            .collect();
        let mut partials = vec![worker(&sh, invariant)];
        partials.extend(helpers.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        partials
    });

    let mut report = CheckReport {
        states_explored: 1,
        transitions: 0,
        crash_transitions: 0,
        max_depth_seen: 0,
        terminal_states: u64::from(root_is_terminal),
        complete: true,
        visited: sh.visited.stats(),
    };
    for p in partials {
        let p = p?;
        report.states_explored += p.states;
        report.transitions += p.transitions;
        report.crash_transitions += p.crash_transitions;
        report.terminal_states += p.terminal;
        report.max_depth_seen = report.max_depth_seen.max(p.max_depth);
        report.complete &= !p.capped;
    }
    debug_assert_eq!(
        report.states_explored, report.visited.entries,
        "every visited-set insert must be counted exactly once"
    );
    Ok(report)
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
/// Each configuration is probed once, when its key is first claimed, as
/// in [`search`]. That leaves the lowest schedule unchanged: the
/// breadth-first order claims each key at its lowest schedule, and under
/// the invariant contract (see the module docs) a transition that
/// rejoins a key has the verdict of the claimant, probed earlier.
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
    visited.insert(keys.key(&root, &Successor::NONE, quota, root_budgets));
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
                if !visited.insert(keys.key(&child, &Successor::NONE, quota, nb)) {
                    continue;
                }
                let mut sched = Vec::with_capacity(prefix.len() + 1);
                sched.extend_from_slice(prefix);
                sched.push(entry);
                if let Err(e) = check_config(&child, invariant, || sched.clone()) {
                    return e;
                }
                if sched.len() < MAX_DEPTH {
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
/// workers (0 = one per available core), one of them on the calling
/// thread, checking Mutual Exclusion in every reachable configuration
/// (the initial one included).
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
    search_lowest(factory, cfg, workers, &|_: &Sim| Ok(()))
}

/// Like [`explore_par`], additionally checking `invariant` once in every
/// reachable configuration (once per orbit under
/// [`crate::Symmetry::Quotient`]), when its key is first claimed. As in
/// [`crate::explore_with`], the invariant must be a function of what the
/// state key holds, and symmetric across the declared classes under the
/// quotient. It is called concurrently from worker threads, hence the
/// `Sync` bound.
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
    search_lowest(factory, cfg, workers, &invariant)
}

/// [`search`] with `workers` workers (0 = one per available core), a
/// violation re-found as the lowest schedule by [`min_violation`].
fn search_lowest<I>(
    factory: impl Fn() -> Sim,
    cfg: &CheckConfig,
    workers: usize,
    invariant: &I,
) -> Result<CheckReport, CheckError>
where
    I: Fn(&Sim) -> Result<(), String> + Sync,
{
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    };
    search(&factory, cfg, workers, invariant).map_err(|_| min_violation(&factory, cfg, invariant))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, explore_with};
    use ccsim::Protocol;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

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

    /// The threads `run` calls its probe invariant on.
    fn probe_threads(
        run: impl FnOnce(&(dyn Fn(&Sim) -> Result<(), String> + Sync)),
    ) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        run(&|_: &Sim| {
            seen.lock().unwrap().insert(std::thread::current().id());
            Ok(())
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let world = || wmutex::mutex_world(2, Protocol::WriteBack);
        let c = cfg(1, 1);
        let caller = HashSet::from([std::thread::current().id()]);
        let seq = probe_threads(|probe| {
            explore_with(world, &c, probe).unwrap();
        });
        assert_eq!(seq, caller, "explore_with");
        let one = probe_threads(|probe| {
            explore_par_with(world, &c, 1, probe).unwrap();
        });
        assert_eq!(one, caller, "explore_par_with, 1 worker");
        let two = probe_threads(|probe| {
            explore_par_with(world, &c, 2, probe).unwrap();
        });
        assert!(
            two.is_superset(&caller) && two.len() <= 2,
            "explore_par_with, 2 workers: probed on {} threads",
            two.len()
        );
    }

    #[test]
    fn a_panicking_worker_stops_the_search() {
        // The probe panics once, deep enough into the search that every
        // worker is running. The panic must come out of the call at any
        // worker count, not leave the other workers waiting on the job
        // the panicking one will never finish.
        for workers in [1usize, 2, 4] {
            let (tx, rx) = mpsc::channel();
            let run = std::thread::spawn(move || {
                let calls = AtomicU64::new(0);
                let probe = |_: &Sim| -> Result<(), String> {
                    if calls.fetch_add(1, Ordering::Relaxed) == 1_000 {
                        panic!("probe panics once");
                    }
                    Ok(())
                };
                let world = || wmutex::mutex_world(3, Protocol::WriteBack);
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    explore_par_with(world, &cfg(2, 0), workers, probe)
                }));
                tx.send(outcome.is_err()).unwrap();
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{workers} workers: the search hangs"));
            run.join().expect("the panic was caught inside the thread");
            assert!(panicked, "{workers} workers: the panic was swallowed");
        }
    }
}
