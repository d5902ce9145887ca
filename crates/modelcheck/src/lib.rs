//! # modelcheck — exhaustive interleaving exploration for `ccsim` worlds
//!
//! The paper proves the `A_f` family satisfies Mutual Exclusion, Bounded
//! Exit, Deadlock Freedom and Concurrent Entering by hand (Lemmas 8–16).
//! This crate validates those proofs mechanically on small instances: it
//! enumerates **every** reachable interleaving of a simulated world (up to
//! a per-process passage quota), pruning states already visited via
//! configuration fingerprints, and checks safety properties in every
//! reachable configuration.
//!
//! Because simulated algorithms take exactly one shared-memory step per
//! transition, the explored graph is precisely the set of executions the
//! paper's model admits (with CS dwell and passage starts also scheduled
//! nondeterministically).
//!
//! Schedules are sequences of [`SchedEntry`] values: ordinary process
//! steps plus — when [`CheckConfig::crash_budget`] is non-zero —
//! *crash events* in the RME individual-crash model (see
//! [`ccsim::Sim::crash`]), so the explorer also searches crash-augmented
//! interleavings. Violating schedules can be reduced to locally-minimal
//! counterexamples with [`shrink`] and persisted as replayable
//! [`TraceArtifact`]s.
//!
//! ```
//! use ccsim::Protocol;
//! use modelcheck::{explore, CheckConfig};
//! use wmutex::mutex_world;
//!
//! let report = explore(
//!     || mutex_world(2, Protocol::WriteBack),
//!     &CheckConfig { passages_per_proc: 1, ..Default::default() },
//! ).expect("2-process tournament is safe");
//! assert!(report.complete);
//! assert!(report.states_explored > 50);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ccsim::{FxHasher, MutualExclusionViolation, Overlay, Phase, ProcId, Sim};
use moves::Successor;
use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

mod artifact;
mod moves;
mod par;
mod shrink;
pub mod suite;
mod visited;

pub use artifact::TraceArtifact;
pub use par::{explore_par, explore_par_with};
pub use shrink::{shrink, ShrinkOutcome};
pub use visited::VisitedStats;

/// One entry of an explored (or replayed) schedule: a normal scheduled
/// step of a process, a crash event striking it, a system-wide crash
/// striking everyone, or an abort request withdrawing a waiting process.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SchedEntry {
    /// Process `.0` takes one scheduled step.
    Step(ProcId),
    /// Process `.0` crashes (see [`ccsim::Sim::crash`]).
    Crash(ProcId),
    /// Every process crashes at once (see [`ccsim::Sim::crash_all`]) —
    /// the RME system-wide crash model.
    CrashAll,
    /// Process `.0` is asked to abort its passage (see
    /// [`ccsim::Sim::abort`]).
    Abort(ProcId),
}

impl SchedEntry {
    /// The process this entry concerns (`None` for the system-wide
    /// [`SchedEntry::CrashAll`], which concerns all of them).
    pub fn proc(self) -> Option<ProcId> {
        match self {
            SchedEntry::Step(p) | SchedEntry::Crash(p) | SchedEntry::Abort(p) => Some(p),
            SchedEntry::CrashAll => None,
        }
    }

    /// True if this entry is a crash event (individual or system-wide).
    pub fn is_crash(self) -> bool {
        matches!(self, SchedEntry::Crash(_) | SchedEntry::CrashAll)
    }

    /// Apply this entry to a world.
    pub fn apply(self, sim: &mut Sim) {
        match self {
            SchedEntry::Step(p) => {
                sim.step(p);
            }
            SchedEntry::Crash(p) => {
                sim.crash(p);
            }
            SchedEntry::CrashAll => {
                sim.crash_all();
            }
            SchedEntry::Abort(p) => {
                sim.abort(p);
            }
        }
    }
}

impl From<ProcId> for SchedEntry {
    fn from(p: ProcId) -> Self {
        SchedEntry::Step(p)
    }
}

/// The compact token form used in trace artifacts and replay commands:
/// `s<pid>` for a step, `c<pid>` for a crash, `ca` for a system-wide
/// crash, `a<pid>` for an abort (e.g. `s0 s2 c0 ca a1 s2`).
impl fmt::Display for SchedEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedEntry::Step(p) => write!(f, "s{}", p.0),
            SchedEntry::Crash(p) => write!(f, "c{}", p.0),
            SchedEntry::CrashAll => write!(f, "ca"),
            SchedEntry::Abort(p) => write!(f, "a{}", p.0),
        }
    }
}

impl FromStr for SchedEntry {
    type Err = String;

    /// Parse the strict grammar of `artifact.rs`: the literal `ca`, or a
    /// kind byte (`s`/`c`/`a`) followed by one or more ASCII digits,
    /// nothing else. Tokens with trailing garbage (`"s1x"`, `"ca1"`) or
    /// signs (`"s+1"`, which `usize::from_str` alone would admit) are
    /// rejected outright.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "ca" {
            return Ok(SchedEntry::CrashAll);
        }
        let err = || format!("bad schedule token {s:?}: expected s<pid>, c<pid>, ca, or a<pid>");
        let (&kind, num) = s.as_bytes().split_first().ok_or_else(err)?;
        if num.is_empty() || !num.iter().all(|b| b.is_ascii_digit()) {
            return Err(err());
        }
        // All-digits guaranteed above; parse can only fail on overflow.
        let pid: usize = std::str::from_utf8(num)
            .expect("ASCII digits are valid UTF-8")
            .parse()
            .map_err(|_| err())?;
        match kind {
            b's' => Ok(SchedEntry::Step(ProcId(pid))),
            b'c' => Ok(SchedEntry::Crash(ProcId(pid))),
            b'a' => Ok(SchedEntry::Abort(ProcId(pid))),
            _ => Err(err()),
        }
    }
}

/// Which state key the visited set deduplicates configurations by — the
/// fingerprint discipline of an exploration (see
/// [`CheckConfig::symmetry`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Symmetry {
    /// Concrete incremental fingerprints (the default): one visited-set
    /// entry per reachable configuration, keyed by the O(1) maintained
    /// [`Sim::fingerprint`].
    #[default]
    Off,
    /// Symmetry-quotient deduplication: configurations are keyed by
    /// their canonical key ([`Sim::fingerprint_canonical_annotated`]),
    /// so states differing only by a permutation of a declared
    /// [`ccsim::SymmetryClass`] share one
    /// entry and each orbit is expanded once, from whichever concrete
    /// representative reaches it first. Sound **only** for worlds whose
    /// declared classes are genuine automorphisms (see the
    /// `SymmetryClass` docs); with no classes declared it partitions the
    /// space exactly like [`Symmetry::Off`]. Counterexamples are still
    /// found on concrete states — schedules, fingerprints, and replay
    /// artifacts are unaffected. Every explorer probes Mutual Exclusion
    /// and any invariant once per orbit, on its first representative, so
    /// an invariant attached through [`explore_with`] or
    /// [`explore_par_with`] must be symmetric across the declared classes
    /// as well as a function of what the key holds.
    Quotient,
    /// The pre-optimization baseline: state keys from a from-scratch
    /// SipHash walk over every variable and every process per visited
    /// state, and a freshly allocated world per transition (no recycling
    /// pool), built before it is keyed (no key prediction). Kept for two
    /// reasons: it is the honest baseline `perf_modelcheck` measures the
    /// exploration speedup against — how the explorer built and keyed
    /// successors before the incremental fingerprints, the
    /// world-recycling pool and the predicted keys landed — and its keys
    /// are an independent hash family: a run in each mode must report
    /// identical [`CheckReport`] counts, which the determinism suite
    /// uses as a cross-check oracle against fingerprint aliasing.
    FullRehash,
}

impl fmt::Display for Symmetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Symmetry::Off => "off",
            Symmetry::Quotient => "quotient",
            Symmetry::FullRehash => "full_rehash",
        })
    }
}

/// Exploration limits and quotas.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Passages each process performs before becoming permanently idle.
    pub passages_per_proc: u64,
    /// Stop (incomplete) after visiting this many distinct states.
    pub max_states: u64,
    /// Total crash events the adversary may inject along any one schedule
    /// (`0` = failure-free exploration, the default). Crashes of processes
    /// in their remainder section are pruned: they change no observable
    /// state, so their subtree is a subset of the same node explored with
    /// the budget intact.
    pub crash_budget: u32,
    /// Whether the crash adversary may strike a process *inside* the
    /// critical section. Off by default — the regime in which a
    /// non-recoverable lock should still preserve Mutual Exclusion.
    pub crash_in_cs: bool,
    /// Total system-wide crash events ([`ccsim::Sim::crash_all`]) the
    /// adversary may inject along any one schedule (`0` = none, the
    /// default). A `CrashAll` is pruned when every process is in its
    /// remainder section (observably a no-op) and — unless
    /// [`CheckConfig::crash_in_cs`] — while anyone occupies the critical
    /// section (a system-wide crash necessarily strikes the occupant
    /// too).
    pub crash_all_budget: u32,
    /// Total abort requests ([`ccsim::Sim::abort`]) the adversary may
    /// inject along any one schedule (`0` = none, the default). Aborts
    /// are offered only to processes whose program reports
    /// [`ccsim::Program::can_abort`] — elsewhere they are observable
    /// no-ops and exploring them would only pad the state space.
    pub abort_budget: u32,
    /// The visited-set key: concrete incremental fingerprints
    /// ([`Symmetry::Off`], the default), the symmetry-quotient canonical
    /// key ([`Symmetry::Quotient`]), or the full-rehash SipHash oracle
    /// ([`Symmetry::FullRehash`]). All three preserve exactly-once
    /// expansion (per key) and deterministic counterexamples — the first
    /// violation the depth-first search meets for [`explore`] and
    /// [`explore_with`], the BFS-minimal one that [`explore_par`] and
    /// [`explore_par_with`] re-derive; they differ in which
    /// configurations share a key and in cost.
    pub symmetry: Symmetry,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            passages_per_proc: 1,
            max_states: 5_000_000,
            crash_budget: 0,
            crash_in_cs: false,
            crash_all_budget: 0,
            abort_budget: 0,
            symmetry: Symmetry::Off,
        }
    }
}

/// The adversary budgets remaining along one schedule: individual
/// crashes, system-wide crashes, and abort requests are rationed
/// separately, so the state key and the frame bookkeeping carry all
/// three.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Budgets {
    pub(crate) crashes: u32,
    pub(crate) crash_alls: u32,
    pub(crate) aborts: u32,
}

impl Budgets {
    /// The full budgets a schedule starts with.
    pub(crate) fn of(cfg: &CheckConfig) -> Self {
        Budgets {
            crashes: cfg.crash_budget,
            crash_alls: cfg.crash_all_budget,
            aborts: cfg.abort_budget,
        }
    }

    /// The budgets remaining after spending `entry`. Callers only spend
    /// entries that [`push_entries`] offered, so the subtraction cannot
    /// underflow.
    pub(crate) fn after(self, entry: SchedEntry) -> Self {
        match entry {
            SchedEntry::Step(_) => self,
            SchedEntry::Crash(_) => Budgets {
                crashes: self.crashes - 1,
                ..self
            },
            SchedEntry::CrashAll => Budgets {
                crash_alls: self.crash_alls - 1,
                ..self
            },
            SchedEntry::Abort(_) => Budgets {
                aborts: self.aborts - 1,
                ..self
            },
        }
    }
}

/// A property violation found by the explorer, with the schedule (steps
/// and crash events) that reproduces it from the initial configuration.
#[derive(Clone, Debug)]
pub enum CheckError {
    /// Mutual Exclusion failed.
    MutualExclusion {
        /// The offending schedule, replayable via [`replay`].
        schedule: Vec<SchedEntry>,
        /// The occupant list at the violating configuration.
        violation: MutualExclusionViolation,
        /// [`Sim::fingerprint`] of the violating configuration — the
        /// replay check: replaying `schedule` must land exactly here.
        fingerprint: u64,
    },
    /// A user-supplied invariant failed.
    Invariant {
        /// The offending schedule.
        schedule: Vec<SchedEntry>,
        /// The invariant's message.
        message: String,
        /// [`Sim::fingerprint`] of the violating configuration.
        fingerprint: u64,
    },
}

impl CheckError {
    /// The schedule that reproduces the violation.
    pub fn schedule(&self) -> &[SchedEntry] {
        match self {
            CheckError::MutualExclusion { schedule, .. } => schedule,
            CheckError::Invariant { schedule, .. } => schedule,
        }
    }

    /// The fingerprint of the violating configuration.
    pub fn fingerprint(&self) -> u64 {
        match self {
            CheckError::MutualExclusion { fingerprint, .. } => *fingerprint,
            CheckError::Invariant { fingerprint, .. } => *fingerprint,
        }
    }

    /// A one-line description of the violated property (without the
    /// schedule), suitable for a [`TraceArtifact`].
    pub fn describe(&self) -> String {
        match self {
            CheckError::MutualExclusion { violation, .. } => violation.to_string(),
            CheckError::Invariant { message, .. } => format!("invariant failed: {message}"),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let crashes = self.schedule().iter().filter(|e| e.is_crash()).count();
        write!(
            f,
            "{} (schedule length {}, {crashes} crash(es))",
            self.describe(),
            self.schedule().len()
        )
    }
}

impl Error for CheckError {}

/// Statistics from a completed exploration.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Distinct configurations visited.
    pub states_explored: u64,
    /// Transitions executed (≥ states, because different schedules rejoin).
    pub transitions: u64,
    /// Crash transitions among them (0 without a crash budget).
    pub crash_transitions: u64,
    /// Deepest schedule examined.
    pub max_depth_seen: usize,
    /// Configurations with no enabled process (all quotas met).
    pub terminal_states: u64,
    /// Whether the whole state space was exhausted (no cap was hit).
    pub complete: bool,
    /// End-of-run visited-set occupancy ([`VisitedStats`]): distinct
    /// keys stored and the exact bytes of the backing tables' slots.
    /// The set only grows, so these are also the peak. **Not** part of
    /// [`CheckReport::counts`]: under [`Symmetry::Quotient`] the entry
    /// count is the number of *orbits*, deliberately smaller than the
    /// concrete modes' state count.
    pub visited: VisitedStats,
}

impl CheckReport {
    /// The order-independent counters, for comparing explorations of the
    /// same world: on a *complete* run every unique configuration is
    /// expanded exactly once, so these are identical whatever the visit
    /// order — sequential DFS, [`explore_par`] at any worker count, or
    /// the [`Symmetry::Off`] vs [`Symmetry::FullRehash`] key family.
    /// ([`Symmetry::Quotient`] expands one representative per *orbit*,
    /// so its counts are intentionally smaller on symmetric worlds; its
    /// violation *verdicts* still agree.) Excludes
    /// [`CheckReport::max_depth_seen`], which is a discovery-order
    /// diagnostic (DFS reaches depth along its first branch; a parallel
    /// run's per-worker depths depend on how jobs were donated), and
    /// [`CheckReport::visited`], which differs between symmetry modes by
    /// design.
    pub fn counts(&self) -> (u64, u64, u64, u64, bool) {
        (
            self.states_explored,
            self.transitions,
            self.crash_transitions,
            self.terminal_states,
            self.complete,
        )
    }
}

/// Append every schedule entry available in a configuration to `out`:
/// one step per enabled process (mid-passage, in the CS, or idle with
/// passages remaining), plus — while the respective budget remains —
/// one crash per mid-passage process (the CS excluded unless
/// `crash_in_cs`), one system-wide crash (when anyone is mid-passage
/// and the CS rule allows it), and one abort request per process whose
/// program can withdraw from its current state.
///
/// Appending to a caller-owned scratch buffer instead of returning a
/// fresh `Vec` is what keeps the search allocation-free per state: each
/// worker threads one arena through its whole frame stack, truncating on
/// pop. Enabledness comes from the sim's cached phase, not a virtual
/// `poll`: the [`ccsim::Program`] contract makes `Step::Remainder` and
/// `Phase::Remainder` coincide.
fn push_entries(
    sim: &Sim,
    quota: u64,
    budgets: Budgets,
    crash_in_cs: bool,
    out: &mut Vec<SchedEntry>,
) {
    for p in sim.proc_ids() {
        if sim.phase(p) != Phase::Remainder || sim.stats(p).passages < quota {
            out.push(SchedEntry::Step(p));
        }
    }
    if budgets.crashes > 0 {
        for p in sim.proc_ids() {
            let crashable = match sim.phase(p) {
                Phase::Remainder => false, // pruned: observably a no-op
                Phase::Cs => crash_in_cs,
                _ => true,
            };
            if crashable {
                out.push(SchedEntry::Crash(p));
            }
        }
    }
    if budgets.crash_alls > 0 {
        let anyone_mid_passage = sim.proc_ids().any(|p| sim.phase(p) != Phase::Remainder);
        let cs_rule_ok = crash_in_cs || sim.proc_ids().all(|p| sim.phase(p) != Phase::Cs);
        if anyone_mid_passage && cs_rule_ok {
            out.push(SchedEntry::CrashAll);
        }
    }
    if budgets.aborts > 0 {
        for p in sim.proc_ids() {
            if sim.program(p).can_abort() {
                out.push(SchedEntry::Abort(p));
            }
        }
    }
}

/// Fingerprint a configuration *including* per-process passage counts,
/// the remaining adversary budgets, and the in-flight abort flags (two
/// identical memory/pc states differ for exploration purposes if the
/// remaining quotas or budgets differ — and an aborting process's
/// program can be pc-identical to a normally-exiting one while its
/// completion is accounted differently, so the abort flags must key the
/// state too).
///
/// The fast path ([`Symmetry::Off`]) reads [`Sim::fingerprint`] —
/// maintained incrementally, O(1) — and folds the quotas through the
/// in-tree [`FxHasher`]. The [`Symmetry::FullRehash`] baseline rehashes
/// the entire configuration with SipHash, exactly as the explorer did
/// before the incremental fingerprints landed; [`Symmetry::Quotient`]
/// keys orbits via [`state_key_quotient`] instead. The explorers reach
/// these through [`visited::Visited::key`] for the configured mode.
///
/// The concrete and quotient keys are those of `succ`, the successor
/// written as a patch on `sim` ([`Successor::NONE`] for `sim` itself).
fn state_key_concrete(sim: &Sim, succ: &Successor, quota: u64, budgets: Budgets) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(sim.fingerprint_overlaid(&succ.overlay));
    for p in sim.proc_ids() {
        h.write_u64(succ.passages(sim, p).min(quota));
    }
    h.write_u32(budgets.crashes);
    h.write_u32(budgets.crash_alls);
    h.write_u32(budgets.aborts);
    h.write_u64(aborting_bits(sim, succ));
    h.finish()
}

/// The symmetry-quotient state key of a configuration whose canonical
/// key ([`Sim::fingerprint_canonical_annotated`]) is `inner`: that key
/// followed by the three remaining adversary budgets.
fn state_key_quotient(inner: u64, budgets: Budgets) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(inner);
    h.write_u32(budgets.crashes);
    h.write_u32(budgets.crash_alls);
    h.write_u32(budgets.aborts);
    h.finish()
}

/// Process `p`'s annotation word in the quotient key of `succ`: its
/// exploration semantics, which are its capped passage count and its
/// in-flight abort flag. For a class member the annotation sits *inside*
/// its member word: the semantics of a member (is it enabled? does
/// completing count as abort or passage?) travel with its local state
/// under a permutation, so keying them by index would merge states whose
/// permuted members disagree on quota or abort status.
#[inline]
fn annotation(sim: &Sim, succ: &Successor, p: ProcId, quota: u64) -> u64 {
    (succ.passages(sim, p).min(quota) << 1) | succ.aborting(sim, p) as u64
}

/// The parts of a configuration's quotient key that its successors'
/// keys patch: the value term ([`Sim::canonical_value_term`]) and the
/// whole canonical key `inner`, the value term plus one
/// [`Sim::canonical_term`] per process. The search carries them down
/// its frames; under the other key disciplines they stay zero.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct KeyParts {
    values: u64,
    inner: u64,
}

/// The canonical key of `succ`, annotated for the quotient key.
fn quotient_inner(sim: &Sim, succ: &Successor, quota: u64) -> u64 {
    sim.fingerprint_canonical_annotated(&succ.overlay, |p| annotation(sim, succ, p, quota))
}

/// The [`KeyParts`] of `sim`, computed in full.
fn quotient_parts(sim: &Sim, quota: u64) -> KeyParts {
    KeyParts {
        values: sim.canonical_value_term(),
        inner: quotient_inner(sim, &Successor::NONE, quota),
    }
}

/// The [`KeyParts`] of `succ` patched from `parts`, those of `sim`: the
/// acting process's term is swapped for its term in the successor, as is
/// the term of the owner of a class-owned slot the step writes, and a
/// write outside the owned slots patches the value term. O(1) in the
/// number of processes.
#[inline]
fn patch_quotient_parts(sim: &Sim, parts: KeyParts, succ: &Successor, quota: u64) -> KeyParts {
    let Some(q) = succ.acting() else {
        return parts;
    };
    let ov = &succ.overlay;
    let swap = |inner: u64, p: ProcId| {
        let before = annotation(sim, &Successor::NONE, p, quota);
        let after = annotation(sim, succ, p, quota);
        inner
            .wrapping_sub(sim.canonical_term(p, &Overlay::NONE, before))
            .wrapping_add(sim.canonical_term(p, ov, after))
    };
    let mut inner = swap(parts.inner, q);
    if let Some(r) = ov.var.and_then(|(v, _)| sim.slot_owner(v)) {
        if r != q {
            inner = swap(inner, r);
        }
    }
    let values = parts.values ^ sim.canonical_value_patch(ov);
    KeyParts {
        values,
        inner: inner.wrapping_sub(parts.values).wrapping_add(values),
    }
}

/// The in-flight abort flags of `succ` packed into a bitmask (bit `p`
/// set iff process `p` is aborting). Worlds are far smaller than 64
/// processes — exploration is exponential in them — but fold
/// conservatively anyway.
fn aborting_bits(sim: &Sim, succ: &Successor) -> u64 {
    let mut bits = 0u64;
    for p in sim.proc_ids() {
        if succ.aborting(sim, p) {
            bits ^= 1u64.rotate_left(p.0 as u32);
        }
    }
    bits
}

/// The pre-optimization baseline for [`state_key_concrete`]: a from-scratch
/// SipHash (`DefaultHasher`) walk over every variable value and every
/// process's local state. Being an independent hash family, a run keyed
/// by this must partition states identically to the incremental path up
/// to hash collisions — the determinism suite compares the two runs'
/// [`CheckReport::counts`] as an aliasing oracle.
fn state_key_full(sim: &Sim, quota: u64, budgets: Budgets) -> u64 {
    let mut walk = DefaultHasher::new();
    sim.mem().hash_values(&mut walk);
    for p in sim.proc_ids() {
        sim.program(p).fingerprint(&mut walk);
    }
    let mut h = DefaultHasher::new();
    walk.finish().hash(&mut h);
    for p in sim.proc_ids() {
        sim.stats(p).passages.min(quota).hash(&mut h);
    }
    budgets.crashes.hash(&mut h);
    budgets.crash_alls.hash(&mut h);
    budgets.aborts.hash(&mut h);
    aborting_bits(sim, &Successor::NONE).hash(&mut h);
    h.finish()
}

/// The spare worlds an explorer branches into. Popped and deduplicated
/// worlds come back here, and `clone_world_into` overwrites a spare in
/// place, so steady-state branching allocates nothing (see
/// [`Sim::clone_world_into`]). Worlds are boxed, so every move between a
/// frame, the pool and a child is a pointer move, not a copy of the
/// `Sim`. Under [`Symmetry::FullRehash`] nothing is kept: that baseline
/// allocates a fresh world per transition, as the explorer did before
/// recycling landed, so the speedup measured against it covers the whole
/// optimization and not just the key function.
pub(crate) struct WorldPool {
    // The boxes are the point: `vec_box` assumes the elements stay put,
    // but spares move to and from frames, and a box moves as a pointer.
    #[allow(clippy::vec_box)]
    spares: Vec<Box<Sim>>,
    recycle: bool,
}

impl WorldPool {
    /// An empty pool for an exploration keyed by `symmetry`.
    pub(crate) fn new(symmetry: Symmetry) -> Self {
        WorldPool {
            spares: Vec::new(),
            recycle: symmetry != Symmetry::FullRehash,
        }
    }

    /// A copy of `src`, in a spare world when there is one.
    #[inline]
    pub(crate) fn copy_of(&mut self, src: &Sim) -> Box<Sim> {
        match self.spares.pop() {
            Some(mut spare) => {
                src.clone_world_into(&mut spare);
                spare
            }
            None => Box::new(src.clone_world()),
        }
    }

    /// The world to apply a frame's next entry to: a copy of the frame's
    /// world, or for its `last` entry the frame's world itself, with a
    /// spare left in its place. An exhausted frame's world is never read
    /// again (schedules come from the frames' entries), so that last
    /// branch copies nothing.
    #[inline]
    pub(crate) fn branch(&mut self, frame: &mut Box<Sim>, last: bool) -> Box<Sim> {
        if last {
            if let Some(spare) = self.spares.pop() {
                return std::mem::replace(frame, spare);
            }
        }
        self.copy_of(frame)
    }

    /// Take back a world that no frame holds any more.
    #[inline]
    pub(crate) fn recycle(&mut self, sim: Box<Sim>) {
        if self.recycle {
            self.spares.push(sim);
        }
    }
}

/// Probe one configuration for the search and the parallel explorer's
/// counterexample re-search: Mutual Exclusion first, then `invariant`.
/// On a failure, `schedule` rebuilds the entries that reach `sim` from
/// the root (empty for the root itself).
#[inline]
pub(crate) fn check_config<I>(
    sim: &Sim,
    invariant: &I,
    schedule: impl FnOnce() -> Vec<SchedEntry>,
) -> Result<(), CheckError>
where
    I: Fn(&Sim) -> Result<(), String> + ?Sized,
{
    if let Err(violation) = sim.check_mutual_exclusion() {
        return Err(CheckError::MutualExclusion {
            schedule: schedule(),
            violation,
            fingerprint: sim.fingerprint(),
        });
    }
    if let Err(message) = invariant(sim) {
        return Err(CheckError::Invariant {
            schedule: schedule(),
            message,
            fingerprint: sim.fingerprint(),
        });
    }
    Ok(())
}

/// Exhaustively explore every interleaving of the world produced by
/// `factory` on the calling thread, checking Mutual Exclusion in every
/// reachable configuration (the initial one included). With
/// [`CheckConfig::crash_budget`] > 0 the explored interleavings include
/// crash events.
///
/// # Errors
/// Returns the violating schedule if any reachable configuration breaks
/// Mutual Exclusion.
pub fn explore(factory: impl Fn() -> Sim, cfg: &CheckConfig) -> Result<CheckReport, CheckError> {
    par::search(factory, cfg, 1, &|_: &Sim| Ok(()))
}

/// Like [`explore`], additionally checking `invariant` in every reachable
/// configuration (the initial one included).
///
/// This is [`explore_par_with`]'s search run with one worker, on the
/// calling thread: one DFS in a fixed order, which reports the first
/// violation it meets. Sharing that search is why the invariant must be
/// `Sync` here too, although it is only ever called from this thread.
///
/// `invariant` must be a function of what the visited set's key holds:
/// the variables' values, the processes' local states, their passages up
/// to the quota and their abort flags (not [`Sim::stats`], the cache
/// contents or the recovery windows). Under [`Symmetry::Quotient`] it
/// must also be symmetric across the declared classes. Like Mutual
/// Exclusion, it runs once per configuration (once per orbit under the
/// quotient), when its key is first claimed; a transition that rejoins a
/// visited configuration is neither probed nor built.
///
/// # Errors
/// Returns the violating schedule on a Mutual Exclusion or invariant
/// failure.
pub fn explore_with(
    factory: impl Fn() -> Sim,
    cfg: &CheckConfig,
    invariant: impl Fn(&Sim) -> Result<(), String> + Sync,
) -> Result<CheckReport, CheckError> {
    par::search(factory, cfg, 1, &invariant)
}

/// Replay a schedule (e.g. from a [`CheckError`] or a parsed
/// [`TraceArtifact`]) against a fresh world, returning the final
/// configuration for inspection.
pub fn replay(factory: impl Fn() -> Sim, schedule: &[SchedEntry]) -> Sim {
    let mut sim = factory();
    for &e in schedule {
        e.apply(&mut sim);
    }
    sim
}

/// The first process `selected` in `sim` that cannot reach its remainder
/// section *running solo* within `budget` of its own steps, probed on a
/// clone of the world.
fn stuck_solo(sim: &Sim, budget: u64, selected: impl Fn(ProcId) -> bool) -> Option<ProcId> {
    sim.proc_ids().filter(|&p| selected(p)).find(|&p| {
        let mut probe = sim.clone_world();
        ccsim::run_solo(&mut probe, p, budget, |s| s.phase(p) == Phase::Remainder).is_none()
    })
}

/// A Bounded Exit invariant for [`explore_with`]: every process found in
/// its exit section must be able to finish the exit *running solo* within
/// `budget` of its own steps (the paper's Bounded Exit property — the exit
/// section contains no unbounded waiting). Clones the world per check;
/// use on small instances.
pub fn bounded_exit_invariant(budget: u64) -> impl Fn(&Sim) -> Result<(), String> {
    move |sim: &Sim| match stuck_solo(sim, budget, |p| sim.phase(p) == Phase::Exit) {
        Some(p) => Err(format!(
            "Bounded Exit violated: {p} cannot finish its exit section \
             in {budget} solo steps"
        )),
        None => Ok(()),
    }
}

/// A Bounded Abort invariant for [`explore_with`]: every process with an
/// abort in flight ([`ccsim::Sim::is_aborting`]) must reach its remainder
/// section *running solo* within `budget` of its own steps — withdrawal,
/// like exit, contains no unbounded waiting (the abortable-lock analogue
/// of the paper's Bounded Exit). Clones the world per check; use on
/// small instances with [`CheckConfig::abort_budget`] > 0.
pub fn bounded_abort_invariant(budget: u64) -> impl Fn(&Sim) -> Result<(), String> {
    move |sim: &Sim| match stuck_solo(sim, budget, |p| sim.is_aborting(p)) {
        Some(p) => Err(format!(
            "Bounded Abort violated: aborting {p} cannot withdraw to \
             its remainder section in {budget} solo steps"
        )),
        None => Ok(()),
    }
}

/// A post-crash acquirability invariant for [`explore_with`]: from every
/// reachable configuration, post-crash ones included, a fair failure-free
/// continuation must still let every process complete a fresh passage —
/// no crash (individual or system-wide) may leave the lock permanently
/// lost. The probe is a round-robin run capped at `max_steps` scheduled
/// steps; a stall, deadlock, or safety violation in the continuation is
/// reported as an invariant failure. Whether it fails, and its message,
/// depend only on the variables' values and the programs' states, which
/// the state key holds: a stall names its steps and blocked spinners but
/// not whether a process is inside a recovery window
/// ([`Sim::is_recovering`]), which no key holds. Clones the world per
/// check; use on small instances with a crash budget.
pub fn post_crash_acquirability_invariant(max_steps: u64) -> impl Fn(&Sim) -> Result<(), String> {
    move |sim: &Sim| {
        let mut probe = sim.clone_world();
        let cfg = ccsim::RunConfig {
            passages_per_proc: 1,
            max_steps,
            stall_after: max_steps,
        };
        let Err(mut e) = ccsim::run_round_robin(&mut probe, &cfg) else {
            return Ok(());
        };
        if let ccsim::RunError::Stalled { in_recovery, .. } = &mut e {
            *in_recovery = false;
        }
        Err(format!(
            "post-crash acquirability violated: a fair failure-free \
             continuation cannot complete a passage per process: {e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::{Layout, Memory, Op, Phase, Program, Protocol, Role, Step, Value, VarId};

    /// A deliberately broken "lock": processes enter the CS with no
    /// synchronisation at all.
    #[derive(Clone)]
    struct NoLock {
        v: VarId,
        role: Role,
        pc: u8,
    }

    impl Program for NoLock {
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
            self.role
        }
        fn on_crash(&mut self) {
            self.pc = 0;
        }
        fn fingerprint(&self, h: &mut dyn Hasher) {
            h.write_u8(self.pc);
        }
    }

    fn broken_world() -> Sim {
        let mut l = Layout::new();
        let v = l.var("x", Value::Int(0));
        let mem = Memory::new(&l, 2, Protocol::WriteBack);
        Sim::new(
            mem,
            vec![
                Box::new(NoLock {
                    v,
                    role: Role::Writer,
                    pc: 0,
                }),
                Box::new(NoLock {
                    v,
                    role: Role::Reader,
                    pc: 0,
                }),
            ],
        )
    }

    /// Two readers running [`NoLock`]: readers share the CS, so Mutual
    /// Exclusion holds in every configuration.
    fn reader_pair_world(protocol: Protocol) -> Sim {
        let mut l = Layout::new();
        let v = l.var_at("x", Value::Int(0), 0);
        let mem = Memory::new(&l, 2, protocol);
        let reader = || -> Box<dyn Program> {
            Box::new(NoLock {
                v,
                role: Role::Reader,
                pc: 0,
            })
        };
        Sim::new(mem, vec![reader(), reader()])
    }

    /// A reader whose passage after a crash spins forever on its entry
    /// read: its recovery passage wedges.
    #[derive(Clone)]
    struct Wedge {
        v: VarId,
        pc: u8,
        crashed: bool,
    }

    impl Program for Wedge {
        fn poll(&self) -> Step {
            match self.pc {
                0 => Step::Remainder,
                2 => Step::Cs,
                _ => Step::Op(Op::Read(self.v)),
            }
        }
        fn resume(&mut self, _: Value) {
            if !(self.pc == 1 && self.crashed) {
                self.pc = (self.pc + 1) % 4;
            }
        }
        fn phase(&self) -> Phase {
            [Phase::Remainder, Phase::Entry, Phase::Cs, Phase::Exit][self.pc as usize]
        }
        fn role(&self) -> Role {
            Role::Reader
        }
        fn on_crash(&mut self) {
            self.pc = 0;
            self.crashed = true;
        }
        fn fingerprint(&self, h: &mut dyn Hasher) {
            h.write_u8(self.pc);
            h.write_u8(self.crashed as u8);
        }
    }

    #[test]
    fn the_acquirability_message_names_no_recovery_window() {
        let mut l = Layout::new();
        let v = l.var("x", Value::Int(0));
        let mem = Memory::new(&l, 1, Protocol::WriteBack);
        let wedge = Wedge {
            v,
            pc: 0,
            crashed: false,
        };
        let mut sim = Sim::new(mem, vec![Box::new(wedge)]);
        let p0 = ProcId(0);
        sim.step(p0);
        sim.crash(p0);
        assert!(sim.is_recovering(p0));

        let message = post_crash_acquirability_invariant(100)(&sim).unwrap_err();
        assert!(message.contains("run stalled"), "{message}");
        assert!(message.contains("p0 on v0"), "{message}");
        assert!(!message.contains("recovery"), "{message}");
        // The stall itself does say that p0 wedged inside its recovery
        // window.
        let cfg = ccsim::RunConfig {
            passages_per_proc: 1,
            max_steps: 100,
            stall_after: 100,
        };
        let stall = ccsim::run_round_robin(&mut sim.clone_world(), &cfg).unwrap_err();
        assert!(
            stall.to_string().ends_with("(inside a recovery window)"),
            "{stall}"
        );
    }

    #[test]
    fn configurations_one_key_names_get_one_acquirability_verdict() {
        let (p0, p1) = (ProcId(0), ProcId(1));
        let s = SchedEntry::Step;
        let acquirable = post_crash_acquirability_invariant(1_000);

        // Two schedules, one crash each, reach one state key. In the
        // first, p0 begins a passage, crashes and completes a fresh one.
        // In the second, p0 completes a passage and p1 begins one and
        // crashes. The key holds neither crash.
        let world = || reader_pair_world(Protocol::WriteBack);
        let c = SchedEntry::Crash;
        let a = replay(world, &[s(p0), c(p0), s(p0), s(p0), s(p0), s(p0)]);
        let b = replay(world, &[s(p0), s(p0), s(p0), s(p0), s(p1), c(p1)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_canonical(), b.fingerprint_canonical());
        assert_ne!(a.stats(p1).crashes, b.stats(p1).crashes);
        assert_eq!(acquirable(&a), acquirable(&b));

        // With a system-wide crash: p0 completes, p1 begins, both crash;
        // or p0 begins, both crash, p0 completes. The memory has no
        // caches to tell the two apart.
        let dsm = || reader_pair_world(Protocol::Dsm);
        let ca = SchedEntry::CrashAll;
        let first = replay(dsm, &[s(p0), s(p0), s(p0), s(p0), s(p1), ca]);
        let rejoin = replay(dsm, &[s(p0), ca, s(p0), s(p0), s(p0), s(p0)]);
        assert_eq!(first.fingerprint(), rejoin.fingerprint());
        assert_ne!(first.stats(p0).recovery_ops, rejoin.stats(p0).recovery_ops);
        assert_eq!(acquirable(&first), acquirable(&rejoin));

        for symmetry in [Symmetry::Off, Symmetry::Quotient] {
            let crash = CheckConfig {
                passages_per_proc: 1,
                crash_budget: 1,
                symmetry,
                ..Default::default()
            };
            let crash_all = CheckConfig {
                crash_budget: 0,
                crash_all_budget: 1,
                ..crash.clone()
            };
            for (world, cfg) in [
                (world as fn() -> Sim, crash),
                (dsm as fn() -> Sim, crash_all),
            ] {
                let counts = explore(world, &cfg).expect("readers share the CS").counts();
                for workers in [0, 1, 2] {
                    let report = match workers {
                        0 => explore_with(world, &cfg, &acquirable),
                        w => explore_par_with(world, &cfg, w, &acquirable),
                    };
                    assert_eq!(report.expect("acquirable").counts(), counts);
                }
            }
        }
    }

    #[test]
    fn an_invariant_runs_once_per_configuration() {
        // Every explorer probes a configuration once, when its key is
        // first claimed, with or without an invariant; transitions that
        // rejoin it probe nothing.
        let world = || wmutex::mutex_world(2, Protocol::WriteBack);
        let cfg = CheckConfig {
            passages_per_proc: 1,
            crash_budget: 1,
            ..Default::default()
        };
        let counts = explore(world, &cfg).unwrap().counts();
        for workers in [0, 1, 2] {
            let calls = std::sync::atomic::AtomicU64::new(0);
            let count = |_: &Sim| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            };
            let report = match workers {
                0 => explore_with(world, &cfg, count),
                w => explore_par_with(world, &cfg, w, count),
            }
            .unwrap();
            assert_eq!(calls.into_inner(), report.states_explored, "{workers}");
            assert!(report.states_explored < report.transitions);
            assert_eq!(report.counts(), counts, "{workers}");
        }
    }

    #[test]
    fn finds_mutual_exclusion_violation_in_broken_lock() {
        let err = explore(broken_world, &CheckConfig::default()).unwrap_err();
        match &err {
            CheckError::MutualExclusion {
                schedule,
                violation,
                fingerprint,
            } => {
                assert_eq!(violation.occupants.len(), 2);
                // The schedule must actually reproduce the violation, and
                // land on the reported fingerprint.
                let sim = replay(broken_world, schedule);
                assert!(sim.check_mutual_exclusion().is_err());
                assert_eq!(sim.fingerprint(), *fingerprint);
            }
            other => panic!("expected MX violation, got {other}"),
        }
    }

    #[test]
    fn tournament_mutex_is_safe_exhaustively() {
        for m in [2usize, 3] {
            let report = explore(
                || wmutex::mutex_world(m, Protocol::WriteBack),
                &CheckConfig {
                    passages_per_proc: 1,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert!(report.complete, "m={m}");
            assert!(report.terminal_states > 0, "m={m}");
        }
    }

    #[test]
    fn tournament_mutex_two_passages() {
        let report = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                passages_per_proc: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.complete);
        assert!(report.states_explored > 200);
    }

    #[test]
    fn invariant_hook_fires() {
        // An invariant that rejects any configuration with someone in CS.
        let err = explore_with(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig::default(),
            |sim| {
                if sim.procs_in_cs().is_empty() {
                    Ok(())
                } else {
                    Err("someone entered the CS".into())
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::Invariant { .. }));
        assert!(!err.schedule().is_empty());
    }

    #[test]
    fn both_explorers_check_the_root_configuration() {
        // An invariant that rejects every configuration fails at the
        // root, before any entry is taken — whether the root has no
        // successors (quota 0) or some (quota 1).
        let factory = || wmutex::mutex_world(2, Protocol::WriteBack);
        let reject = |_: &Sim| -> Result<(), String> { Err("rejected".into()) };
        for quota in [0u64, 1] {
            let cfg = CheckConfig {
                passages_per_proc: quota,
                ..Default::default()
            };
            let errs = [
                explore_with(factory, &cfg, reject).unwrap_err(),
                explore_par_with(factory, &cfg, 1, reject).unwrap_err(),
                explore_par_with(factory, &cfg, 2, reject).unwrap_err(),
            ];
            for err in errs {
                assert!(
                    matches!(err, CheckError::Invariant { .. }),
                    "quota {quota}: {err}"
                );
                assert_eq!(err.schedule(), &[], "quota {quota}: {err}");
                assert_eq!(
                    replay(factory, &[]).fingerprint(),
                    err.fingerprint(),
                    "quota {quota}: the reported fingerprint is the root's"
                );
            }
        }
    }

    #[test]
    fn caps_mark_report_incomplete() {
        let report = explore(
            || wmutex::mutex_world(3, Protocol::WriteBack),
            &CheckConfig {
                passages_per_proc: 2,
                max_states: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!report.complete);
        assert!(report.states_explored >= 50);
    }

    #[test]
    fn terminal_states_are_quiescent() {
        let report = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                passages_per_proc: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Terminal configurations exist and are few: the memory residue
        // (e.g. the last `turn` writer) may differ across schedules, but
        // every process is quiescent in each of them.
        assert!(report.terminal_states >= 1);
        assert!(
            report.terminal_states <= 8,
            "got {}",
            report.terminal_states
        );
    }

    #[test]
    fn crash_budget_zero_explores_no_crashes() {
        let report = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig::default(),
        )
        .unwrap();
        assert_eq!(report.crash_transitions, 0);
    }

    #[test]
    fn crash_augmented_exploration_visits_crashes_and_stays_safe() {
        // The tournament mutex, like A_f, is non-recoverable: crashes
        // outside the CS may cost liveness but never Mutual Exclusion.
        let report = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                passages_per_proc: 1,
                crash_budget: 1,
                ..Default::default()
            },
        )
        .expect("crashes outside the CS must not break MX");
        assert!(report.complete);
        assert!(
            report.crash_transitions > 0,
            "the crash adversary must actually strike"
        );
    }

    #[test]
    fn crash_budget_grows_the_state_space() {
        let base = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig::default(),
        )
        .unwrap();
        let crashy = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                crash_budget: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(crashy.states_explored > base.states_explored);
    }

    #[test]
    fn bounded_exit_holds_for_tournament() {
        explore_with(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                crash_budget: 1,
                ..Default::default()
            },
            bounded_exit_invariant(200),
        )
        .expect("tournament exit sections are bounded, even after crashes");
    }

    #[test]
    fn crash_all_augmented_tournament_exploration_is_safe() {
        // A system-wide crash wipes every process's cache and pc at once;
        // the tournament mutex must still never admit two into the CS.
        let report = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                passages_per_proc: 1,
                crash_all_budget: 1,
                ..Default::default()
            },
        )
        .expect("a system-wide crash must not break MX");
        assert!(report.complete);
        assert!(
            report.crash_transitions > 0,
            "the crash-all adversary must actually strike"
        );
    }

    #[test]
    fn abort_augmented_tournament_exploration_is_safe_and_bounded() {
        // Every abort request mid-entry must withdraw to the remainder in
        // bounded solo steps without breaking MX for the survivor.
        let report = explore_with(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                passages_per_proc: 1,
                abort_budget: 1,
                ..Default::default()
            },
            bounded_abort_invariant(300),
        )
        .expect("aborts must cost neither MX nor boundedness");
        assert!(report.complete);
    }

    #[test]
    fn crash_all_budget_grows_the_state_space() {
        let base = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig::default(),
        )
        .unwrap();
        let crashy = explore(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                crash_all_budget: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(crashy.states_explored > base.states_explored);
    }

    #[test]
    fn post_crash_acquirability_holds_for_tournament_crash_all() {
        explore_with(
            || wmutex::mutex_world(2, Protocol::WriteBack),
            &CheckConfig {
                passages_per_proc: 1,
                crash_all_budget: 1,
                ..Default::default()
            },
            post_crash_acquirability_invariant(2_000),
        )
        .expect("the tournament lock must stay acquirable after a crash-all");
    }

    #[test]
    fn sched_entry_tokens_round_trip() {
        for e in [
            SchedEntry::Step(ProcId(0)),
            SchedEntry::Crash(ProcId(12)),
            SchedEntry::Step(ProcId(3)),
            SchedEntry::CrashAll,
            SchedEntry::Abort(ProcId(7)),
            SchedEntry::Abort(ProcId(0)),
        ] {
            let tok = e.to_string();
            assert_eq!(tok.parse::<SchedEntry>().unwrap(), e);
        }
        assert_eq!("ca".parse::<SchedEntry>().unwrap(), SchedEntry::CrashAll);
        assert!("x3".parse::<SchedEntry>().is_err());
        assert!("s".parse::<SchedEntry>().is_err());
        assert!("".parse::<SchedEntry>().is_err());
    }

    #[test]
    fn symmetry_defaults_to_off() {
        assert_eq!(Symmetry::default(), Symmetry::Off);
        assert_eq!(CheckConfig::default().symmetry, Symmetry::Off);
    }

    #[test]
    fn quotient_without_declared_classes_partitions_like_concrete() {
        // With no SymmetryClass declared, the canonical vector is
        // positional, so the quotient key must visit
        // exactly the same number of states, and the full-rehash oracle
        // (an independent hash family) must agree with both.
        let factory = || wmutex::mutex_world(2, Protocol::WriteBack);
        let base = CheckConfig {
            passages_per_proc: 1,
            crash_budget: 1,
            ..Default::default()
        };
        let mut counts = Vec::new();
        for symmetry in [Symmetry::Off, Symmetry::Quotient, Symmetry::FullRehash] {
            let cfg = CheckConfig {
                symmetry,
                ..base.clone()
            };
            let report = explore(factory, &cfg).expect("tournament is safe");
            assert!(report.complete);
            assert_eq!(
                report.visited.entries, report.states_explored,
                "{symmetry}: one visited entry per expanded state"
            );
            assert!(
                19 * report.visited.resident_bytes >= 160 * report.visited.entries,
                "{symmetry}: 8 bytes per slot at no more than 19/20 load"
            );
            counts.push(report.counts());
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn sched_entry_rejects_trailing_garbage_and_loose_integer_forms() {
        // `usize::from_str` alone would admit "+1"; a prefix-based parse
        // would admit "s1x". The grammar is strictly kind + digits, with
        // the literal "ca" (crash-all) carrying no pid at all.
        for bad in [
            "s1x", "c2 ", " s1", "s+1", "c-0", "s0x7", "s1c2", "s١", // Arabic-Indic digit
            "sß", "c", "ss1", "ca1", "ca ", "CA", "cA", "a", "aa1", "a1x", "a+1", "a-2",
        ] {
            assert!(
                bad.parse::<SchedEntry>().is_err(),
                "token {bad:?} must be rejected"
            );
        }
    }
}
