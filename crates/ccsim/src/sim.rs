//! The simulation world: processes + memory + metrics + trace.

use crate::fxhash::{mix64, FxHasher};
use crate::memory::{op_values, slot_sig, Memory};
use crate::op::Op;
use crate::program::{Phase, Program, Role, Step};
use crate::trace::{StepKind, StepRecord, Trace};
use crate::value::{ProcId, Value, VarId};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Salt for per-process Zobrist signatures (the value-slot counterpart
/// lives in `memory.rs` with a different salt).
const PROC_SALT: u64 = 0x5eed_0000_0000_0002;

/// The Zobrist signature of "process `i` has local-state digest
/// `digest`" (the digest is [`Program::fingerprint64`]), fed through a
/// hasher *seeded* by the process index. The sim's process fingerprint
/// is the XOR of one signature per process, so a step or crash of one
/// process is an O(1) patch.
///
/// This is the *concrete* (index-salted) mix: swapping the local states
/// of two processes always changes [`Sim::fingerprint`]. The digest must
/// enter through the hasher's multiply, never a bare XOR with the other
/// terms: programs commonly implement [`Program::fingerprint64`] as
/// `mix64(small_code)`, the same family as `mix64(i)`, and a plain
/// `mix64(salt ^ mix64(i) ^ digest)` then makes "process 0 in state 1"
/// and "process 1 in state 0" produce *identical* signatures (their XOR
/// contributions cancel pairwise), silently merging mirror
/// configurations in the model checker's visited set.
#[inline]
fn proc_sig(i: usize, digest: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::with_seed(PROC_SALT ^ mix64(i as u64));
    h.write_u64(digest);
    h.finish()
}

/// Process `proc`'s move to a new local state: its next
/// [`Program::fingerprint64`] digest and the patch the move applies to
/// [`Sim::fingerprint`]. A pure function of the process index and the two
/// digests, so a memo of local moves can store it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ProcMove {
    proc: ProcId,
    digest: u64,
    /// `proc_sig(proc, from) ^ proc_sig(proc, digest)`.
    sig_delta: u64,
}

impl ProcMove {
    /// Process `p` moving from digest `from` to digest `to`.
    pub fn new(p: ProcId, from: u64, to: u64) -> Self {
        ProcMove {
            proc: p,
            digest: to,
            sig_delta: proc_sig(p.0, from) ^ proc_sig(p.0, to),
        }
    }
}

/// A successor configuration written as a patch on the current one: at
/// most one process in a new local state and at most one variable
/// holding a new value, which is all one step, crash or abort of one
/// process changes. The state keys read a configuration through an
/// overlay ([`Sim::fingerprint_overlaid`],
/// [`Sim::fingerprint_canonical_annotated`]), so the model checker can
/// key a successor before it builds it. Through [`Overlay::NONE`] the
/// keys are those of the configuration itself.
///
/// The overlay must describe a move of the configuration it is read
/// through: the [`ProcMove`] starts from that process's current digest.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Overlay {
    /// The process that moved.
    pub proc: Option<ProcMove>,
    /// The variable that changed, with its new value.
    pub var: Option<(VarId, Value)>,
}

impl Overlay {
    /// The overlay that changes nothing.
    pub const NONE: Overlay = Overlay {
        proc: None,
        var: None,
    };
}

/// Emit the tag-prefixed prefix-code encoding of `v` one word at a time
/// (the unit of [`Sim::canonical_vec`]'s serialization and of the
/// member words [`Sim::fingerprint_canonical_annotated`] hashes). The
/// tag determines how many words follow, so concatenations parse
/// unambiguously. When the value sits in a class member's owned slot, a
/// [`Value::Proc`] reference to the owner itself is canonicalized to a
/// dedicated tag: "this slot names its own owner" is the index-free
/// fact, whichever concrete process that is.
fn encode_value(v: Value, owner: Option<ProcId>, mut emit: impl FnMut(u64)) {
    match v {
        Value::Nil => emit(0),
        Value::Int(i) => {
            emit(1);
            emit(i as u64);
        }
        Value::Pair(a, b) => {
            emit(2);
            emit(a as u64);
            emit(b as u64);
        }
        Value::Proc(q) if owner == Some(q) => emit(3),
        Value::Proc(q) => {
            emit(4);
            emit(q.0 as u64);
        }
        Value::Bool(b) => {
            emit(5);
            emit(b as u64);
        }
    }
}

/// Classes up to this size sort their member words in a stack array in
/// [`Sim::fingerprint_canonical_annotated`]; larger ones (far beyond
/// what exhaustive exploration reaches) sort in a heap buffer.
const INLINE_CLASS: usize = 16;

/// A set of processes declared interchangeable for the symmetry-quotient
/// canonical fingerprint: permuting the *local states* of the members
/// (together with their per-member `owned` shared-variable slices) maps
/// reachable configurations to reachable configurations with identical
/// observable behaviour.
///
/// Declaring a class is a **soundness claim by the world builder**: the
/// permutation must be a true automorphism of the transition system.
/// That requires (a) the members run identical programs whose
/// [`Program::fingerprint`] is index-free (no process ids, no absolute
/// variable ids that differ between members), (b) every shared variable
/// whose value distinguishes the members appears in their `owned` slice
/// (position `k` of member `j`'s slice corresponds to position `k` of
/// every other member's slice), and (c) no *other* process or shared
/// variable observes a member's identity. See DESIGN.md "Symmetry
/// quotient" for where f-array tree counters sit on that boundary:
/// readers whose leaves are siblings under one parent form a class
/// (each owning its leaf slots), while a wider reader swap fails (c) —
/// a refresh at a higher level reads *absolute* heap children, so it
/// would observe which leaf a swapped reader owns.
#[derive(Clone, Debug)]
pub struct SymmetryClass {
    members: Vec<ProcId>,
    /// Per member, the shared-variable slice only it writes (parallel to
    /// `members`; all slices have equal length, position-aligned).
    owned: Vec<Vec<VarId>>,
}

impl SymmetryClass {
    /// A class of interchangeable processes with no owned shared
    /// variables (e.g. CAS-loop counter readers: all shared state they
    /// touch is common to the whole class).
    pub fn new(members: Vec<ProcId>) -> Self {
        let owned = vec![Vec::new(); members.len()];
        SymmetryClass { members, owned }
    }

    /// A class whose members each own a position-aligned slice of shared
    /// variables (member `j` owns `owned[j]`; swapping members `j` and
    /// `k` swaps the values of `owned[j][i]` and `owned[k][i]` for every
    /// position `i`).
    ///
    /// # Panics
    /// Panics if `owned` is not parallel to `members` or the slices have
    /// unequal lengths.
    pub fn with_owned(members: Vec<ProcId>, owned: Vec<Vec<VarId>>) -> Self {
        assert_eq!(
            members.len(),
            owned.len(),
            "one owned slice per class member"
        );
        if let Some(first) = owned.first() {
            assert!(
                owned.iter().all(|s| s.len() == first.len()),
                "owned slices must be position-aligned (equal lengths)"
            );
        }
        SymmetryClass { members, owned }
    }

    /// The interchangeable processes.
    pub fn members(&self) -> &[ProcId] {
        &self.members
    }

    /// The per-member owned variable slices (parallel to `members`).
    pub fn owned(&self) -> &[Vec<VarId>] {
        &self.owned
    }
}

/// What [`Sim::declare_symmetry`] derives: the declared classes plus two
/// lookup masks. Immutable once declared, so every world branched from
/// one declaration shares a single copy.
#[derive(Debug)]
struct SymmetryDecl {
    classes: Vec<SymmetryClass>,
    /// `owned_mask[v]` — variable `v` appears in some class member's
    /// owned slice (lets the canonical vector skip owned slots in O(1)
    /// per variable).
    owned_mask: Vec<bool>,
    /// `class_member[p]` — process `p` belongs to some declared class.
    class_member: Vec<bool>,
}

/// Per-process execution metrics, split by passage section.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ProcStats {
    /// Memory operations executed, per [`Phase::index`].
    pub ops_by_phase: [u64; 4],
    /// RMRs incurred, per [`Phase::index`].
    pub rmrs_by_phase: [u64; 4],
    /// Completed passages.
    pub passages: u64,
    /// Crashes suffered (see [`Sim::crash`]), including system-wide
    /// crashes ([`Sim::crash_all`]).
    pub crashes: u64,
    /// Memory operations executed while recovering (between a crash and
    /// the next completed passage). A subset of [`ProcStats::ops`].
    pub recovery_ops: u64,
    /// RMRs incurred while recovering. A subset of [`ProcStats::rmrs`] —
    /// the RMR cost of re-warming a crashed process's cold cache and
    /// re-running its passage.
    pub recovery_rmrs: u64,
    /// Completed aborts: passages withdrawn via [`Sim::abort`] that
    /// reached the remainder section (they do **not** count as
    /// [`ProcStats::passages`]).
    pub aborts: u64,
    /// Memory operations executed inside abort windows (between an abort
    /// request and the return to remainder). A subset of [`ProcStats::ops`].
    pub abort_ops: u64,
    /// RMRs incurred inside abort windows — the RMR cost of withdrawing.
    /// A subset of [`ProcStats::rmrs`].
    pub abort_rmrs: u64,
}

impl ProcStats {
    /// Total memory operations.
    pub fn ops(&self) -> u64 {
        self.ops_by_phase.iter().sum()
    }

    /// Total RMRs.
    pub fn rmrs(&self) -> u64 {
        self.rmrs_by_phase.iter().sum()
    }

    /// RMRs incurred in a given phase.
    pub fn rmrs_in(&self, phase: Phase) -> u64 {
        self.rmrs_by_phase[phase.index()]
    }

    /// Memory operations executed in a given phase.
    pub fn ops_in(&self, phase: Phase) -> u64 {
        self.ops_by_phase[phase.index()]
    }
}

/// Everything [`Sim`] keeps per process besides the program itself, in
/// one `Copy` record so that branching a world copies one array.
#[derive(Copy, Clone, Debug)]
struct Slot {
    stats: ProcStats,
    /// The program's [`Program::fingerprint64`] digest; the sim's
    /// `procs_fp` is the XOR of one [`proc_sig`] per slot.
    digest: u64,
    /// The program's [`Program::phase`] and [`Program::role`], cached so
    /// the explorer's per-transition probes make no virtual call.
    phase: Phase,
    role: Role,
    /// Crashed and not yet completed a fresh passage. Only affects
    /// metric attribution (recovery_* counters), never behaviour.
    recovering: bool,
    /// Abort requested ([`Sim::abort`]) and not yet back in the
    /// remainder section. Affects passage accounting (the withdrawal
    /// counts as an abort, not a passage) and the abort_* counters.
    aborting: bool,
}

impl Slot {
    fn of(program: &dyn Program) -> Self {
        Slot {
            stats: ProcStats::default(),
            digest: program.fingerprint64(),
            phase: program.phase(),
            role: program.role(),
            recovering: false,
            aborting: false,
        }
    }
}

/// A violation of the Mutual Exclusion property (§2.1): a writer in the CS
/// concurrently with any other process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MutualExclusionViolation {
    /// All processes that were in the CS, with their roles.
    pub occupants: Vec<(ProcId, Role)>,
}

impl fmt::Display for MutualExclusionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mutual exclusion violated; CS occupants:")?;
        for (p, r) in &self.occupants {
            write!(f, " {p}({r})")?;
        }
        Ok(())
    }
}

impl Error for MutualExclusionViolation {}

/// The simulation world: a set of [`Program`] processes sharing a
/// [`Memory`], with per-process metrics and an optional step [`Trace`].
///
/// The `Sim` itself imposes no schedule — callers (round-robin and random
/// runners, the model checker, the lower-bound adversary) decide which
/// process steps next via [`Sim::step`].
///
/// # Examples
/// ```
/// use ccsim::{Layout, Memory, Protocol, Sim, Value};
/// # use ccsim::{Op, Phase, Program, Role, Step};
/// # #[derive(Clone)]
/// # struct Noop;
/// # impl Program for Noop {
/// #   fn poll(&self) -> Step { Step::Remainder }
/// #   fn resume(&mut self, _: Value) {}
/// #   fn phase(&self) -> Phase { Phase::Remainder }
/// #   fn role(&self) -> Role { Role::Reader }
/// #   fn on_crash(&mut self) {}
/// #   fn fingerprint(&self, _: &mut dyn std::hash::Hasher) {}
/// # }
/// let layout = Layout::new();
/// let mem = Memory::new(&layout, 1, Protocol::WriteBack);
/// let sim = Sim::new(mem, vec![Box::new(Noop)]);
/// assert_eq!(sim.n_procs(), 1);
/// ```
pub struct Sim {
    mem: Memory,
    procs: Vec<Box<dyn Program>>,
    /// One record per process: metrics, flags, and the digest, phase and
    /// role of its program. Re-derived only for the process an event just
    /// changed, so [`Sim::fingerprint`] is O(1) instead of a full-state
    /// rehash, and phase, role and digest queries make no virtual call.
    slots: Vec<Slot>,
    /// The XOR of every slot's [`proc_sig`].
    procs_fp: u64,
    /// Interchangeable-process classes declared by the world builder via
    /// [`Sim::declare_symmetry`]; consulted only by the canonical key
    /// ([`Sim::fingerprint_canonical_annotated`]) and its oracle
    /// ([`Sim::canonical_vec`]), never by stepping. Shared by every
    /// world branched from this one.
    symmetry: Arc<SymmetryDecl>,
    trace: Option<Trace>,
    steps: u64,
}

impl Sim {
    /// Create a world from a memory and its processes.
    ///
    /// # Panics
    /// Panics if the memory was not created with exactly
    /// `procs.len()` caches.
    pub fn new(mem: Memory, procs: Vec<Box<dyn Program>>) -> Self {
        assert_eq!(
            mem.n_procs(),
            procs.len(),
            "memory must have one cache per process"
        );
        let n = procs.len();
        let slots: Vec<Slot> = procs.iter().map(|p| Slot::of(&**p)).collect();
        let procs_fp = slots
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, s)| acc ^ proc_sig(i, s.digest));
        let n_vars = mem.n_vars();
        Sim {
            mem,
            procs,
            slots,
            procs_fp,
            symmetry: Arc::new(SymmetryDecl {
                classes: Vec::new(),
                owned_mask: vec![false; n_vars],
                class_member: vec![false; n],
            }),
            trace: None,
            steps: 0,
        }
    }

    /// Re-derive process `p`'s digest, phase and role after its local
    /// state changed (a resume, crash or abort) and patch its Zobrist
    /// signature into the maintained XOR. Every change to a program goes
    /// through here, which is what keeps the cached fields exact.
    fn refresh_slot(&mut self, p: ProcId) {
        let program = &*self.procs[p.0];
        let digest = program.fingerprint64();
        let slot = &mut self.slots[p.0];
        self.procs_fp ^= proc_sig(p.0, slot.digest) ^ proc_sig(p.0, digest);
        slot.digest = digest;
        slot.phase = program.phase();
        slot.role = program.role();
    }

    /// Enable (or disable) step tracing. Tracing is off by default; the
    /// lower-bound adversary and the knowledge analyses require it.
    pub fn set_tracing(&mut self, on: bool) {
        if on && self.trace.is_none() {
            self.trace = Some(Trace::new());
        } else if !on {
            self.trace = None;
        }
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Take the recorded trace, leaving tracing enabled with a fresh trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.replace(Trace::new())
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.procs.len()
    }

    /// All process ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.procs.len()).map(ProcId)
    }

    /// The shared memory (for assertions and adversary planning).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// The program of process `p`.
    pub fn program(&self, p: ProcId) -> &dyn Program {
        &*self.procs[p.0]
    }

    /// What process `p` will do when next stepped.
    pub fn poll(&self, p: ProcId) -> Step {
        self.procs[p.0].poll()
    }

    /// The phase process `p` is in: [`Program::phase`] as of `p`'s last
    /// event, cached (debug builds check it against the program).
    pub fn phase(&self, p: ProcId) -> Phase {
        let phase = self.slots[p.0].phase;
        debug_assert_eq!(
            phase,
            self.procs[p.0].phase(),
            "cached phase of {p} diverged from its program"
        );
        phase
    }

    /// The role of process `p`: [`Program::role`] as of `p`'s last
    /// event, cached (debug builds check it against the program).
    pub fn role(&self, p: ProcId) -> Role {
        let role = self.slots[p.0].role;
        debug_assert_eq!(
            role,
            self.procs[p.0].role(),
            "cached role of {p} diverged from its program"
        );
        role
    }

    /// The local-state digest of process `p`: [`Program::fingerprint64`]
    /// as of `p`'s last event, cached.
    pub fn digest(&self, p: ProcId) -> u64 {
        self.slots[p.0].digest
    }

    /// Metrics for process `p`.
    pub fn stats(&self, p: ProcId) -> ProcStats {
        self.slots[p.0].stats
    }

    /// Reset all metrics (the trace is unaffected). Useful between
    /// measurement phases of an experiment.
    pub fn reset_stats(&mut self) {
        for s in &mut self.slots {
            s.stats = ProcStats::default();
        }
    }

    /// Total steps executed since construction.
    #[cfg(test)]
    pub(crate) fn total_steps(&self) -> u64 {
        self.steps
    }

    /// Would stepping `p` now incur an RMR? (False for section
    /// transitions.) Pure; used by adversarial schedulers.
    pub fn would_rmr(&self, p: ProcId) -> bool {
        match self.poll(p) {
            Step::Op(op) => self.mem.would_rmr(p, &op),
            _ => false,
        }
    }

    /// The pending memory operation of `p`, if any.
    pub fn pending_op(&self, p: ProcId) -> Option<Op> {
        match self.poll(p) {
            Step::Op(op) => Some(op),
            _ => None,
        }
    }

    /// What stepping `p` now would hand back to it and write, without
    /// stepping: the value `p` resumes with, and the variable the step
    /// changes with its new value (`None` for a section transition or a
    /// step that leaves its variable's value as it was). The values come
    /// from the op semantics [`Memory::apply`] executes. Pure; the model
    /// checker predicts a successor's key from it.
    #[inline]
    pub fn step_effect(&self, p: ProcId) -> (Value, Option<(VarId, Value)>) {
        match self.procs[p.0].poll() {
            Step::Op(op) => {
                let v = op.var();
                let old = self.mem.peek(v);
                let (response, new) = op_values(&op, old);
                (response, (new != old).then_some((v, new)))
            }
            Step::Cs | Step::Remainder => (Value::Nil, None),
        }
    }

    /// Execute one step of process `p` and return the record of what
    /// happened (also appended to the trace when tracing is on).
    ///
    /// Stepping a process whose poll is [`Step::Cs`] releases it into its
    /// exit section; stepping one in [`Step::Remainder`] starts a new
    /// passage.
    ///
    /// Inlined so that a caller which drops the record (the model
    /// checker) never builds it.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    #[inline]
    pub fn step(&mut self, p: ProcId) -> StepRecord {
        let phase_before = self.phase(p);
        let role = self.role(p);
        let kind = match self.procs[p.0].poll() {
            Step::Op(op) => {
                let out = self.mem.apply(p, &op);
                self.procs[p.0].resume(out.response);
                let slot = &mut self.slots[p.0];
                let st = &mut slot.stats;
                st.ops_by_phase[phase_before.index()] += 1;
                if out.rmr {
                    st.rmrs_by_phase[phase_before.index()] += 1;
                }
                if slot.recovering {
                    st.recovery_ops += 1;
                    if out.rmr {
                        st.recovery_rmrs += 1;
                    }
                }
                if slot.aborting {
                    st.abort_ops += 1;
                    if out.rmr {
                        st.abort_rmrs += 1;
                    }
                }
                StepKind::Op {
                    op,
                    response: out.response,
                    old: out.old,
                    new: out.new,
                    rmr: out.rmr,
                    trivial: out.trivial,
                }
            }
            Step::Cs => {
                self.procs[p.0].resume(Value::Nil);
                StepKind::BeginExit
            }
            Step::Remainder => {
                self.procs[p.0].resume(Value::Nil);
                StepKind::BeginPassage
            }
        };
        self.refresh_slot(p);
        // Passage completion: the process just returned to the remainder
        // section (usually Exit -> Remainder; Cs -> Remainder when the exit
        // section is empty, e.g. a 1-process tournament). A withdrawal
        // requested via [`Sim::abort`] counts as an abort instead.
        let slot = &mut self.slots[p.0];
        if phase_before != Phase::Remainder && slot.phase == Phase::Remainder {
            if slot.aborting {
                slot.stats.aborts += 1;
                slot.aborting = false;
            } else {
                slot.stats.passages += 1;
                // A full passage completed after the crash: recovery is over.
                slot.recovering = false;
            }
        }
        let record = StepRecord {
            index: self.steps,
            proc: p,
            role,
            phase: phase_before,
            kind,
        };
        self.steps += 1;
        if let Some(t) = &mut self.trace {
            t.push(record);
        }
        record
    }

    /// Crash process `p` — the RME individual-crash model (Chan & Woelfel;
    /// Golab & Ramaraju): the process loses all local state and all cached
    /// lines, while shared memory survives. Concretely:
    ///
    /// * every line `p` holds is purged from the coherence directory (its
    ///   next accesses are cold misses — the cache part of recovery cost);
    /// * the program is reset through [`Program::on_crash`] and must come
    ///   back in its remainder section (the in-progress passage, if any,
    ///   is abandoned and does **not** count as completed);
    /// * [`ProcStats::crashes`] is incremented and the process enters a
    ///   *recovery* window: until its next completed passage, its ops and
    ///   RMRs are additionally accumulated in [`ProcStats::recovery_ops`] /
    ///   [`ProcStats::recovery_rmrs`].
    ///
    /// A crash is a scheduled event (it gets a trace record and a global
    /// step index) but not a memory step: no variable changes value and no
    /// RMR is charged to anyone.
    ///
    /// # Panics
    /// Panics if `p` is out of range, or if `on_crash` leaves the program
    /// outside its remainder section.
    pub fn crash(&mut self, p: ProcId) -> StepRecord {
        let phase_before = self.phase(p);
        let role = self.role(p);
        self.crash_one(p);
        let record = StepRecord {
            index: self.steps,
            proc: p,
            role,
            phase: phase_before,
            kind: StepKind::Crash,
        };
        self.steps += 1;
        if let Some(t) = &mut self.trace {
            t.push(record);
        }
        record
    }

    /// System-wide crash (the RME system-crash model, Jayanti–Jayanti–
    /// Joshi; Golab–Hendler): **every** process loses its local state and
    /// all cached lines in one event, while shared memory survives. Each
    /// process is reset through [`Program::on_crash`] exactly as in
    /// [`Sim::crash`], its crash count is incremented, and it enters a
    /// recovery window. The whole event is one scheduled step: a single
    /// [`StepKind::CrashAll`] record (conventionally against process 0)
    /// with a single global step index.
    ///
    /// # Panics
    /// Panics if any `on_crash` leaves its program outside the remainder
    /// section.
    pub fn crash_all(&mut self) -> StepRecord {
        for i in 0..self.procs.len() {
            self.crash_one(ProcId(i));
        }
        let record = StepRecord {
            index: self.steps,
            proc: ProcId(0),
            role: self.slots.first().map_or(Role::Reader, |s| s.role),
            phase: Phase::Remainder,
            kind: StepKind::CrashAll,
        };
        self.steps += 1;
        if let Some(t) = &mut self.trace {
            t.push(record);
        }
        record
    }

    /// The state change of one crash (shared by [`Sim::crash`] and
    /// [`Sim::crash_all`]): purge `p`'s cache lines, reset its program,
    /// and open its recovery window. A crash obliterates any in-flight
    /// withdrawal too.
    fn crash_one(&mut self, p: ProcId) {
        self.mem.crash_invalidate(p);
        self.procs[p.0].on_crash();
        self.refresh_slot(p);
        let slot = &mut self.slots[p.0];
        assert_eq!(
            slot.phase,
            Phase::Remainder,
            "on_crash must reset {p} to its remainder section"
        );
        slot.stats.crashes += 1;
        slot.recovering = true;
        slot.aborting = false;
    }

    /// Request that process `p` abort its passage. If the program reports
    /// [`Program::can_abort`], it is switched onto its withdrawal path via
    /// [`Program::on_abort`]; until it reaches the remainder section its
    /// ops/RMRs additionally accumulate in [`ProcStats::abort_ops`] /
    /// [`ProcStats::abort_rmrs`], and the completed withdrawal counts as
    /// an abort, not a passage. When the program cannot abort from its
    /// current state this is a tolerated no-op returning `None` — which
    /// keeps every subsequence of a schedule valid (the shrinker relies on
    /// it).
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn abort(&mut self, p: ProcId) -> Option<StepRecord> {
        if !self.procs[p.0].can_abort() {
            return None;
        }
        let phase_before = self.phase(p);
        let role = self.role(p);
        self.procs[p.0].on_abort();
        self.refresh_slot(p);
        let slot = &mut self.slots[p.0];
        if slot.phase == Phase::Remainder {
            // Nothing to undo: the withdrawal completed instantly.
            slot.stats.aborts += 1;
        } else {
            slot.aborting = true;
        }
        let record = StepRecord {
            index: self.steps,
            proc: p,
            role,
            phase: phase_before,
            kind: StepKind::Abort,
        };
        self.steps += 1;
        if let Some(t) = &mut self.trace {
            t.push(record);
        }
        Some(record)
    }

    /// True if `p` has crashed and not yet completed a fresh passage.
    pub fn is_recovering(&self, p: ProcId) -> bool {
        self.slots[p.0].recovering
    }

    /// True if `p` has an abort in flight (requested via [`Sim::abort`]
    /// and not yet back in the remainder section).
    pub fn is_aborting(&self, p: ProcId) -> bool {
        self.slots[p.0].aborting
    }

    /// All processes currently inside the critical section.
    pub fn procs_in_cs(&self) -> Vec<ProcId> {
        self.proc_ids()
            .filter(|&p| self.phase(p) == Phase::Cs)
            .collect()
    }

    /// Check the Mutual Exclusion property in the current configuration:
    /// if any writer is in the CS, it must be alone.
    ///
    /// # Errors
    /// Returns the full occupant list on violation.
    pub fn check_mutual_exclusion(&self) -> Result<(), MutualExclusionViolation> {
        let (mut occupants, mut writers) = (0, 0);
        for p in self.proc_ids().filter(|&p| self.phase(p) == Phase::Cs) {
            occupants += 1;
            writers += usize::from(self.role(p) == Role::Writer);
        }
        if writers > 0 && occupants > 1 {
            let occupants = self
                .procs_in_cs()
                .into_iter()
                .map(|p| (p, self.role(p)))
                .collect();
            return Err(MutualExclusionViolation { occupants });
        }
        Ok(())
    }

    /// A 64-bit fingerprint of the global configuration: all variable
    /// values plus every process's local state. Cache state and metrics are
    /// excluded (they never influence observable behaviour).
    ///
    /// O(1): the fingerprint is maintained incrementally, Zobrist-style —
    /// [`Memory::apply`] patches the changed variable's signature and
    /// [`Sim::step`]/[`Sim::crash`] re-derive only the affected process's
    /// signature. Debug builds assert it against the from-scratch
    /// [`Sim::fingerprint_full`] oracle on every query.
    pub fn fingerprint(&self) -> u64 {
        let fp = self.mem.values_fingerprint() ^ self.procs_fp;
        debug_assert_eq!(
            fp,
            self.fingerprint_full(),
            "maintained incremental fingerprint diverged from full recompute \
             (a step/crash path failed to patch a signature)"
        );
        fp
    }

    /// [`Sim::fingerprint`] of the configuration `ov` describes: two
    /// Zobrist patches, O(1).
    #[inline]
    pub fn fingerprint_overlaid(&self, ov: &Overlay) -> u64 {
        let moved = ov.proc.map_or(0, |m| m.sig_delta);
        self.fingerprint() ^ self.values_patch(ov) ^ moved
    }

    /// The patch `ov`'s variable applies to [`Memory::values_fingerprint`].
    #[inline]
    fn values_patch(&self, ov: &Overlay) -> u64 {
        ov.var.map_or(0, |(v, new)| {
            slot_sig(v.0, &self.mem.peek(v)) ^ slot_sig(v.0, &new)
        })
    }

    /// Recompute [`Sim::fingerprint`] from scratch — rehash every variable
    /// and every process. This is the oracle the maintained incremental
    /// hash is checked against (debug assertions here and dedicated
    /// randomized-walk tests); the model checker's `Symmetry::FullRehash`
    /// mode also measures against it.
    pub fn fingerprint_full(&self) -> u64 {
        let vals = self.mem.values_fingerprint_full();
        let procs = self
            .procs
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, p)| acc ^ proc_sig(i, p.fingerprint64()));
        vals ^ procs
    }

    /// Declare the interchangeable-process classes of this world.
    /// Replaces any previous declaration. Stepping and the concrete
    /// [`Sim::fingerprint`] are unaffected; only the canonical key
    /// ([`Sim::fingerprint_canonical_annotated`], which the model
    /// checker's quotient state key is built on) and its oracle
    /// [`Sim::canonical_vec`] consult the classes.
    ///
    /// # Panics
    /// Panics loudly on a malformed declaration: a class with fewer than
    /// two members, an out-of-range or repeated member, a repeated owned
    /// variable, or members whose current local-state digests or owned
    /// values differ (classes must be declared on a freshly built,
    /// symmetric world).
    pub fn declare_symmetry(&mut self, classes: Vec<SymmetryClass>) {
        let mut seen_procs = vec![false; self.procs.len()];
        let mut seen_vars = vec![false; self.mem.n_vars()];
        for class in &classes {
            assert!(
                class.members.len() >= 2,
                "a symmetry class needs at least two members"
            );
            for &p in &class.members {
                assert!(p.0 < self.procs.len(), "symmetry member {p} out of range");
                assert!(
                    !seen_procs[p.0],
                    "process {p} appears in more than one symmetry class"
                );
                seen_procs[p.0] = true;
            }
            for slice in &class.owned {
                for &v in slice {
                    assert!(v.0 < self.mem.n_vars(), "owned variable {v} out of range");
                    assert!(!seen_vars[v.0], "variable {v} owned twice");
                    seen_vars[v.0] = true;
                }
            }
            let d0 = self.slots[class.members[0].0].digest;
            let vals0: Vec<Value> = class.owned[0].iter().map(|&v| self.mem.peek(v)).collect();
            for (j, &p) in class.members.iter().enumerate() {
                assert_eq!(
                    self.slots[p.0].digest, d0,
                    "symmetry members must start in identical local states \
                     (member {p} differs — declare classes on a fresh world)"
                );
                let vals: Vec<Value> = class.owned[j].iter().map(|&v| self.mem.peek(v)).collect();
                assert_eq!(
                    vals, vals0,
                    "symmetry members must start with identical owned values \
                     (member {p} differs)"
                );
            }
        }
        self.symmetry = Arc::new(SymmetryDecl {
            classes,
            owned_mask: seen_vars,
            class_member: seen_procs,
        });
    }

    /// The declared interchangeable-process classes (empty unless the
    /// world builder called [`Sim::declare_symmetry`]).
    pub fn symmetry_classes(&self) -> &[SymmetryClass] {
        &self.symmetry.classes
    }

    /// The symmetry-quotient canonical fingerprint:
    /// [`Sim::fingerprint_canonical_annotated`] with every annotation
    /// word zero. Equal for any two configurations that differ only by
    /// permuting the members of a declared [`SymmetryClass`] (local
    /// states and owned variable values swapped together). With no
    /// classes declared the partition is the concrete one.
    ///
    /// This is intentionally *coarser* than [`Sim::fingerprint`] and must
    /// only be used for visited-set deduplication in worlds whose
    /// declared classes are genuine automorphisms; it is never an
    /// identity oracle.
    pub fn fingerprint_canonical(&self) -> u64 {
        self.fingerprint_canonical_annotated(&Overlay::NONE, |_| 0)
    }

    /// The symmetry-quotient state key: a 64-bit hash that partitions
    /// configurations exactly as [`Sim::canonical_vec_annotated`] does
    /// (up to 64-bit collisions), computed without building the vector
    /// and without allocating for classes of up to 16 members. Three
    /// parts, in order:
    ///
    /// 1. the shared values outside the class-owned slots: the maintained
    ///    [`Memory::values_fingerprint`] with each owned slot's Zobrist
    ///    term XOR-ed out (O(owned variables), nothing for classes that
    ///    own none);
    /// 2. every process outside the declared classes, in slot order: its
    ///    cached digest and its annotation word;
    /// 3. per declared class, in declaration order: the member count,
    ///    then one full-avalanche word per member — digest, annotation,
    ///    owned values by slice position with [`Value::Proc`]
    ///    self-references canonicalized — in sorted order. Sorting, not
    ///    an XOR fold, erases which member holds which state: XOR
    ///    cancels equal members, so `{a, a, b}` and `{c, c, b}` would
    ///    collide.
    ///
    /// Each part is a function of the matching section of the canonical
    /// vector, so permuting class members never changes the key; two
    /// configurations with different vectors share a key only on a
    /// 64-bit collision.
    ///
    /// The key is that of the configuration `ov` describes: digests,
    /// values and owned-slot signatures are read through the overlay
    /// ([`Overlay::NONE`] keys this configuration). `annot` speaks for
    /// that configuration too.
    pub fn fingerprint_canonical_annotated(
        &self,
        ov: &Overlay,
        annot: impl Fn(ProcId) -> u64,
    ) -> u64 {
        use std::hash::Hasher;
        let decl = &*self.symmetry;
        let digest = |i: usize| match ov.proc {
            Some(m) if m.proc.0 == i => m.digest,
            _ => self.slots[i].digest,
        };
        let value = |v: VarId| match ov.var {
            Some((w, new)) if w == v => new,
            _ => self.mem.peek(v),
        };
        // 1. Shared memory minus class-owned slots.
        let mut vals = self.mem.values_fingerprint() ^ self.values_patch(ov);
        for class in &decl.classes {
            for &v in class.owned.iter().flatten() {
                vals ^= slot_sig(v.0, &value(v));
            }
        }
        let mut h = FxHasher::default();
        h.write_u64(vals);
        // 2. Non-class processes, positionally.
        for i in 0..self.slots.len() {
            if !decl.class_member[i] {
                h.write_u64(digest(i));
                h.write_u64(annot(ProcId(i)));
            }
        }
        // 3. Per class: the sorted member words.
        let member_word = |class: &SymmetryClass, j: usize| {
            let p = class.members[j];
            let mut m = FxHasher::default();
            m.write_u64(digest(p.0));
            m.write_u64(annot(p));
            for &v in &class.owned[j] {
                encode_value(value(v), Some(p), |w| m.write_u64(w));
            }
            m.finish()
        };
        let mut inline = [0u64; INLINE_CLASS];
        let mut spilled = Vec::new();
        for class in &decl.classes {
            let k = class.members.len();
            let words = if k <= INLINE_CLASS {
                &mut inline[..k]
            } else {
                spilled.resize(k, 0);
                &mut spilled[..]
            };
            for (j, w) in words.iter_mut().enumerate() {
                *w = member_word(class, j);
            }
            words.sort_unstable();
            h.write_u64(k as u64);
            for &w in words.iter() {
                h.write_u64(w);
            }
        }
        h.finish()
    }

    /// Append the **canonical state vector** of this configuration to
    /// `out`: the full, losslessly parseable serialization of its orbit.
    /// It is the oracle [`Sim::fingerprint_canonical_annotated`] is
    /// tested against (as [`Sim::fingerprint_full`] is for
    /// [`Sim::fingerprint`]); no explorer builds it. Layout, in order:
    ///
    /// 1. every shared variable **not** owned by a symmetry-class member,
    ///    in `VarId` order, as a tag-prefixed value encoding;
    /// 2. for every process outside the declared classes, in slot order:
    ///    its [`Program::fingerprint64`] digest and its annotation word;
    /// 3. per declared [`SymmetryClass`], in declaration order: one
    ///    length-prefixed *member bundle* per member — digest, annotation
    ///    word, then the member's owned values (with [`Value::Proc`]
    ///    self-references canonicalized) — with the bundles sorted
    ///    lexicographically. Sorting erases which member holds which
    ///    state, so permuting class members yields an identical vector.
    ///
    /// Cache state and metrics are excluded, matching the fingerprint
    /// discipline: they never influence observable behaviour, only RMR
    /// accounting. Every section is a prefix code (tags determine value
    /// lengths; bundles carry explicit lengths), so for a fixed world
    /// shape the serialization is injective on canonical states: two
    /// configurations produce equal vectors iff they differ only by a
    /// declared-class permutation (given equal annotations).
    ///
    /// Digests come from the per-process cache [`Sim::step`] and
    /// [`Sim::crash`] maintain, so building the vector makes no virtual
    /// [`Program::fingerprint64`] call.
    pub fn canonical_vec(&self, out: &mut Vec<u64>) {
        self.canonical_vec_annotated(|_| 0, out);
    }

    /// [`Sim::canonical_vec`] with a caller-chosen annotation word mixed
    /// into each process's serialization — *inside* the sorted member
    /// bundle for class members, positionally for everyone else. The
    /// model checker's quotient key annotates the same way (through
    /// [`Sim::fingerprint_canonical_annotated`]) with exploration
    /// semantics (remaining passage quota, in-flight abort flag) that
    /// must travel with a member's local state under a permutation;
    /// keying them by process index would merge states whose permuted
    /// members disagree.
    pub fn canonical_vec_annotated(&self, annot: impl Fn(ProcId) -> u64, out: &mut Vec<u64>) {
        // 1. Shared memory minus class-owned slots, in VarId order.
        for v in 0..self.mem.n_vars() {
            if !self.symmetry.owned_mask[v] {
                encode_value(self.mem.peek(VarId(v)), None, |w| out.push(w));
            }
        }
        // 2. Non-class processes, positionally.
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.symmetry.class_member[i] {
                out.push(slot.digest);
                out.push(annot(ProcId(i)));
            }
        }
        // 3. Per class: the sorted multiset of member bundles.
        for class in &self.symmetry.classes {
            let base = out.len();
            for (j, &p) in class.members().iter().enumerate() {
                let start = out.len();
                out.push(0); // length placeholder
                out.push(self.slots[p.0].digest);
                out.push(annot(p));
                for &v in &class.owned()[j] {
                    encode_value(self.mem.peek(v), Some(p), |w| out.push(w));
                }
                out[start] = (out.len() - start) as u64;
            }
            // Index the bundles in a tail of `out`, one `start << 32 |
            // end` word each (bundle `j + 1` starts where `j` ends), and
            // sort that tail by bundle content.
            let unsorted_end = out.len();
            let mut start = base;
            while start < unsorted_end {
                let end = start + out[start] as usize;
                out.push((start as u64) << 32 | end as u64);
                start = end;
            }
            let (bundles, index) = out.split_at_mut(unsorted_end);
            let span = |w: u64| (w >> 32) as usize..(w as u32) as usize;
            index.sort_unstable_by(|&a, &b| bundles[span(a)].cmp(&bundles[span(b)]));
            // Re-emit the bundles in sorted order, then drop the
            // unsorted originals and the index — no allocation once
            // `out` is warm.
            for i in unsorted_end..out.len() {
                out.extend_from_within(span(out[i]));
            }
            out.drain(base..unsorted_end + class.members().len());
        }
    }

    /// True if every process is in its remainder section (a *quiescent*
    /// configuration, §2.1).
    pub fn is_quiescent(&self) -> bool {
        self.proc_ids().all(|p| self.phase(p) == Phase::Remainder)
    }

    /// Duplicate the entire world — memory, caches, process states, and
    /// metrics (the trace is not copied). This is how the model checker
    /// branches a configuration.
    pub fn clone_world(&self) -> Sim {
        Sim {
            mem: self.mem.clone(),
            procs: self.procs.iter().map(|p| p.clone_box()).collect(),
            slots: self.slots.clone(),
            procs_fp: self.procs_fp,
            symmetry: Arc::clone(&self.symmetry),
            trace: None,
            steps: self.steps,
        }
    }

    /// [`Sim::clone_world`] into an existing world, reusing `dst`'s
    /// buffers. When `dst` came from the same factory (same process types
    /// in the same slots — the invariant of the model checker's recycling
    /// pool), each per-process `Box` is overwritten in place through
    /// [`ProgramClone::clone_into_dyn`] and every `Vec` reuses its
    /// capacity, so the copy allocates only what the programs' own
    /// `clone_from` does. Mismatched slots fall back to a fresh
    /// [`ProgramClone::clone_box`], so the copy is correct for any `dst`.
    ///
    /// [`ProgramClone::clone_into_dyn`]: crate::ProgramClone::clone_into_dyn
    /// [`ProgramClone::clone_box`]: crate::ProgramClone::clone_box
    pub fn clone_world_into(&self, dst: &mut Sim) {
        dst.mem.clone_from(&self.mem);
        if dst.procs.len() != self.procs.len() {
            dst.procs = self.procs.iter().map(|p| p.clone_box()).collect();
        } else {
            for (slot, src) in dst.procs.iter_mut().zip(&self.procs) {
                if !src.clone_into_dyn(&mut **slot) {
                    *slot = src.clone_box();
                }
            }
        }
        dst.slots.clone_from(&self.slots);
        dst.procs_fp = self.procs_fp;
        if !Arc::ptr_eq(&dst.symmetry, &self.symmetry) {
            dst.symmetry = Arc::clone(&self.symmetry);
        }
        dst.trace = None;
        dst.steps = self.steps;
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("n_procs", &self.procs.len())
            .field("steps", &self.steps)
            .field(
                "phases",
                &self.proc_ids().map(|p| self.phase(p)).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Protocol;
    use crate::layout::Layout;
    use crate::memory::Memory;
    use crate::program::ProgramClone;
    use crate::value::VarId;
    use std::hash::Hasher;

    /// A trivial test lock client: entry = write flag, CS, exit = clear flag.
    #[derive(Clone)]
    struct FlagClient {
        flag: VarId,
        me: ProcId,
        role: Role,
        pc: u8, // 0 remainder, 1 about-to-set, 2 cs, 3 about-to-clear
    }

    impl Program for FlagClient {
        fn poll(&self) -> Step {
            match self.pc {
                0 => Step::Remainder,
                1 => Step::Op(Op::write(self.flag, Value::Proc(self.me))),
                2 => Step::Cs,
                3 => Step::Op(Op::Write(self.flag, Value::Nil)),
                _ => unreachable!(),
            }
        }
        fn resume(&mut self, _: Value) {
            self.pc = (self.pc + 1) % 4;
        }
        fn phase(&self) -> Phase {
            match self.pc {
                0 => Phase::Remainder,
                1 => Phase::Entry,
                2 => Phase::Cs,
                3 => Phase::Exit,
                _ => unreachable!(),
            }
        }
        fn role(&self) -> Role {
            self.role
        }
        fn on_crash(&mut self) {
            self.pc = 0;
        }
        fn can_abort(&self) -> bool {
            // Abortable only before the flag write lands: nothing to undo,
            // so the withdrawal is instantaneous. After the flag is set
            // the passage is committed.
            self.pc == 1
        }
        fn on_abort(&mut self) {
            self.pc = 0;
        }
        fn fingerprint(&self, h: &mut dyn Hasher) {
            h.write_u8(self.pc);
        }
    }

    fn world(roles: &[Role]) -> Sim {
        let mut l = Layout::new();
        let flag = l.var("flag", Value::Nil);
        let mem = Memory::new(&l, roles.len(), Protocol::WriteBack);
        let procs: Vec<Box<dyn Program>> = roles
            .iter()
            .enumerate()
            .map(|(i, &role)| {
                Box::new(FlagClient {
                    flag,
                    me: ProcId(i),
                    role,
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        Sim::new(mem, procs)
    }

    #[test]
    fn passage_lifecycle_and_stats() {
        let mut sim = world(&[Role::Reader]);
        let p = ProcId(0);
        assert_eq!(sim.poll(p), Step::Remainder);
        sim.step(p); // begin passage
        assert_eq!(sim.phase(p), Phase::Entry);
        sim.step(p); // entry write
        assert_eq!(sim.phase(p), Phase::Cs);
        sim.step(p); // leave CS
        assert_eq!(sim.phase(p), Phase::Exit);
        sim.step(p); // exit write
        assert_eq!(sim.phase(p), Phase::Remainder);
        let st = sim.stats(p);
        assert_eq!(st.passages, 1);
        assert_eq!(st.ops(), 2);
        assert_eq!(st.rmrs_in(Phase::Entry), 1);
    }

    #[test]
    fn mutual_exclusion_check_flags_writer_overlap() {
        let mut sim = world(&[Role::Writer, Role::Reader]);
        for p in [ProcId(0), ProcId(1)] {
            sim.step(p); // begin passage
            sim.step(p); // entry op -> CS
        }
        assert_eq!(sim.procs_in_cs().len(), 2);
        let err = sim.check_mutual_exclusion().unwrap_err();
        assert_eq!(err.occupants.len(), 2);
        assert!(err.to_string().contains("mutual exclusion violated"));
    }

    #[test]
    fn readers_may_share_cs() {
        let mut sim = world(&[Role::Reader, Role::Reader]);
        for p in [ProcId(0), ProcId(1)] {
            sim.step(p);
            sim.step(p);
        }
        assert_eq!(sim.procs_in_cs().len(), 2);
        assert!(sim.check_mutual_exclusion().is_ok());
    }

    #[test]
    fn clone_world_into_matches_clone_world() {
        let mut sim = world(&[Role::Reader, Role::Writer]);
        sim.step(ProcId(0));
        sim.step(ProcId(0));
        sim.step(ProcId(1));

        // In-place copy into a same-shape world (the recycling-pool case):
        // byte-for-byte the same observable state as a fresh clone.
        let mut dst = world(&[Role::Reader, Role::Writer]);
        for _ in 0..3 {
            dst.step(ProcId(1)); // arbitrary divergence to overwrite
        }
        sim.clone_world_into(&mut dst);
        assert_eq!(dst.fingerprint(), sim.fingerprint());
        assert_eq!(dst.fingerprint(), dst.fingerprint_full());
        for p in [ProcId(0), ProcId(1)] {
            assert_eq!(dst.phase(p), sim.phase(p));
            assert_eq!(dst.stats(p), sim.stats(p));
        }

        // The copy is detached: stepping one world leaves the other alone.
        dst.step(ProcId(0));
        assert_ne!(dst.fingerprint(), sim.fingerprint());
        assert_eq!(sim.fingerprint(), sim.fingerprint_full());

        // A mismatched-shape destination is rebuilt, not corrupted.
        let mut small = world(&[Role::Reader]);
        sim.clone_world_into(&mut small);
        assert_eq!(small.n_procs(), sim.n_procs());
        assert_eq!(small.fingerprint(), sim.fingerprint());
        assert_eq!(small.fingerprint(), small.fingerprint_full());
    }

    #[test]
    fn in_place_program_clone_copies_state_and_rejects_foreign_types() {
        let sim = world(&[Role::Reader]);
        let src = FlagClient {
            flag: VarId(0),
            me: ProcId(0),
            role: Role::Reader,
            pc: 2,
        };
        let mut dst = src.clone();
        dst.pc = 0;
        assert!(src.clone_into_dyn(&mut dst));
        assert_eq!(dst.pc, 2);
        // A different concrete Program type is refused (the caller then
        // falls back to clone_box).
        assert!(!sim.program(ProcId(0)).clone_into_dyn(&mut NotAFlag));
    }

    /// Distinct concrete type for the foreign-downcast rejection test.
    #[derive(Clone)]
    struct NotAFlag;
    impl Program for NotAFlag {
        fn poll(&self) -> Step {
            Step::Remainder
        }
        fn resume(&mut self, _: Value) {}
        fn phase(&self) -> Phase {
            Phase::Remainder
        }
        fn role(&self) -> Role {
            Role::Reader
        }
        fn on_crash(&mut self) {}
        fn fingerprint(&self, _: &mut dyn Hasher) {}
    }

    #[test]
    fn fingerprint_changes_with_state() {
        let mut sim = world(&[Role::Reader]);
        let f0 = sim.fingerprint();
        sim.step(ProcId(0));
        assert_ne!(f0, sim.fingerprint());
    }

    #[test]
    fn tracing_records_steps() {
        let mut sim = world(&[Role::Reader]);
        sim.set_tracing(true);
        sim.step(ProcId(0));
        sim.step(ProcId(0));
        let t = sim.take_trace().unwrap();
        assert_eq!(t.len(), 2);
        assert!(matches!(t.records()[0].kind, StepKind::BeginPassage));
        assert!(
            sim.trace().unwrap().is_empty(),
            "take_trace leaves a fresh trace"
        );
    }

    #[test]
    fn quiescence() {
        let mut sim = world(&[Role::Reader]);
        assert!(sim.is_quiescent());
        sim.step(ProcId(0));
        assert!(!sim.is_quiescent());
    }

    #[test]
    fn crash_resets_program_and_purges_cache() {
        let mut sim = world(&[Role::Reader, Role::Reader]);
        let p = ProcId(0);
        sim.set_tracing(true);
        sim.step(p); // begin passage
        sim.step(p); // entry write -> CS (p now holds `flag` exclusively)
        assert_eq!(sim.phase(p), Phase::Cs);
        let flag = VarId(0);
        assert!(sim.mem().cache(p).holds_exclusive(flag));
        let before = sim.mem().peek(flag);

        let rec = sim.crash(p);
        assert_eq!(rec.kind, StepKind::Crash);
        assert_eq!(rec.phase, Phase::Cs, "record keeps the pre-crash phase");
        assert_eq!(sim.phase(p), Phase::Remainder, "program reset");
        assert!(!sim.mem().cache(p).holds(flag), "cache lines purged");
        assert_eq!(sim.mem().peek(flag), before, "shared memory survives");
        assert_eq!(sim.stats(p).crashes, 1);
        assert_eq!(sim.stats(p).passages, 0, "aborted passage doesn't count");
        assert!(sim.is_recovering(p));
        assert!(matches!(
            sim.trace().unwrap().records().last().unwrap().kind,
            StepKind::Crash
        ));
    }

    #[test]
    fn recovery_window_accounting() {
        let mut sim = world(&[Role::Reader]);
        let p = ProcId(0);
        sim.step(p); // begin passage
        sim.crash(p);
        // The recovery passage: its ops/RMRs land in the recovery counters.
        for _ in 0..4 {
            sim.step(p);
        }
        let st = sim.stats(p);
        assert_eq!(st.passages, 1);
        assert!(!sim.is_recovering(p), "completed passage ends recovery");
        assert_eq!(st.recovery_ops, 2, "both writes of the recovery passage");
        assert!(
            st.recovery_rmrs >= 1,
            "re-warming the purged line costs an RMR"
        );
        // Post-recovery passages accumulate nothing further.
        for _ in 0..4 {
            sim.step(p);
        }
        assert_eq!(sim.stats(p).recovery_ops, 2);
    }

    #[test]
    fn incremental_fingerprint_tracks_full_recompute() {
        let mut sim = world(&[Role::Writer, Role::Reader]);
        assert_eq!(sim.fingerprint(), sim.fingerprint_full());
        for round in 0..3 {
            for p in [ProcId(0), ProcId(1)] {
                for _ in 0..4 {
                    sim.step(p);
                    assert_eq!(sim.fingerprint(), sim.fingerprint_full());
                }
            }
            if round == 1 {
                sim.crash(ProcId(0));
                assert_eq!(sim.fingerprint(), sim.fingerprint_full());
            }
        }
        let clone = sim.clone_world();
        assert_eq!(clone.fingerprint(), sim.fingerprint());
        assert_eq!(clone.fingerprint(), clone.fingerprint_full());
    }

    #[test]
    fn fingerprint_distinguishes_which_process_holds_state() {
        // Two worlds whose processes have swapped local states must not
        // collide: per-process signatures are salted by slot index.
        let mut a = world(&[Role::Reader, Role::Reader]);
        let mut b = world(&[Role::Reader, Role::Reader]);
        a.step(ProcId(0)); // a: p0 in Entry, p1 in Remainder
        b.step(ProcId(1)); // b: p1 in Entry, p0 in Remainder
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn crash_all_resets_every_process_in_one_step() {
        let mut sim = world(&[Role::Reader, Role::Writer, Role::Reader]);
        sim.set_tracing(true);
        for p in [ProcId(0), ProcId(1)] {
            sim.step(p); // begin passage
            sim.step(p); // entry write -> CS
        }
        let flag = VarId(0);
        let before = sim.mem().peek(flag);
        let steps_before = sim.total_steps();

        let rec = sim.crash_all();
        assert_eq!(rec.kind, StepKind::CrashAll);
        assert_eq!(sim.total_steps(), steps_before + 1, "one scheduled event");
        assert_eq!(sim.mem().peek(flag), before, "shared memory survives");
        for p in [ProcId(0), ProcId(1), ProcId(2)] {
            assert_eq!(sim.phase(p), Phase::Remainder, "{p} reset");
            assert!(!sim.mem().cache(p).holds(flag), "{p} cache purged");
            assert_eq!(sim.stats(p).crashes, 1);
            assert!(sim.is_recovering(p), "{p} enters its recovery window");
            assert_eq!(sim.stats(p).passages, 0);
        }
        assert!(matches!(
            sim.trace().unwrap().records().last().unwrap().kind,
            StepKind::CrashAll
        ));
        assert_eq!(sim.fingerprint(), sim.fingerprint_full());
    }

    #[test]
    fn abort_is_a_tolerated_noop_when_not_abortable() {
        let mut sim = world(&[Role::Reader]);
        let p = ProcId(0);
        let f0 = sim.fingerprint();
        assert!(
            sim.abort(p).is_none(),
            "remainder section: nothing to abort"
        );
        assert_eq!(sim.fingerprint(), f0);
        assert_eq!(sim.total_steps(), 0, "a refused abort is not a step");
        sim.step(p); // begin passage
        sim.step(p); // entry write -> CS: committed, no longer abortable
        assert!(sim.abort(p).is_none());
        assert_eq!(sim.stats(p).aborts, 0);
    }

    #[test]
    fn abort_before_commitment_counts_as_abort_not_passage() {
        let mut sim = world(&[Role::Reader]);
        let p = ProcId(0);
        sim.set_tracing(true);
        sim.step(p); // begin passage -> pc 1 (abortable)
        let rec = sim.abort(p).expect("abortable at pc 1");
        assert_eq!(rec.kind, StepKind::Abort);
        assert_eq!(rec.phase, Phase::Entry, "record keeps the pre-abort phase");
        assert_eq!(sim.phase(p), Phase::Remainder, "instant withdrawal");
        assert!(!sim.is_aborting(p), "instant withdrawal completes at once");
        let st = sim.stats(p);
        assert_eq!(st.aborts, 1);
        assert_eq!(st.passages, 0, "a withdrawn passage does not count");
        assert_eq!(sim.fingerprint(), sim.fingerprint_full());
        // The process is free to run a full passage afterwards.
        for _ in 0..4 {
            sim.step(p);
        }
        assert_eq!(sim.stats(p).passages, 1);
        assert_eq!(sim.stats(p).aborts, 1);
    }

    /// A world of `n` readers where each process writes its **own** flag
    /// variable (never anyone else's): permuting processes together with
    /// their flags is a true automorphism, so the whole set is one
    /// symmetry class with position-aligned owned slices.
    fn per_slot_world(n: usize) -> Sim {
        let mut l = Layout::new();
        let flags: Vec<VarId> = (0..n)
            .map(|i| l.var(format!("flag{i}"), Value::Nil))
            .collect();
        let mem = Memory::new(&l, n, Protocol::WriteBack);
        let procs: Vec<Box<dyn Program>> = (0..n)
            .map(|i| {
                Box::new(FlagClient {
                    flag: flags[i],
                    me: ProcId(i),
                    role: Role::Reader,
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        let mut sim = Sim::new(mem, procs);
        sim.declare_symmetry(vec![SymmetryClass::with_owned(
            (0..n).map(ProcId).collect(),
            flags.into_iter().map(|f| vec![f]).collect(),
        )]);
        sim
    }

    #[test]
    fn canonical_fingerprint_merges_swapped_symmetric_members() {
        let mut a = per_slot_world(3);
        let mut b = per_slot_world(3);
        // a: p0 runs to its CS (flag0 = Proc(0)); b: the mirror via p2.
        a.step(ProcId(0));
        a.step(ProcId(0));
        b.step(ProcId(2));
        b.step(ProcId(2));
        // Concrete fingerprints distinguish the swap; canonical merges it.
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_canonical(), b.fingerprint_canonical());
        // The quotient is not degenerate: a genuinely different state
        // (nobody in the CS) keeps a different canonical fingerprint.
        let fresh = per_slot_world(3);
        assert_ne!(a.fingerprint_canonical(), fresh.fingerprint_canonical());
        // With no classes declared the canonical partition is concrete.
        let mut c = per_slot_world(3);
        c.declare_symmetry(Vec::new());
        c.step(ProcId(2));
        c.step(ProcId(2));
        assert_ne!(b.fingerprint_canonical(), c.fingerprint_canonical());
    }

    #[test]
    fn canonical_fingerprint_keeps_identity_leaks_distinct() {
        // Two readers share ONE flag variable and write their own id into
        // it. The flag is shared (not owned by either member), so after
        // p0's entry it holds Proc(0) and after p1's it holds Proc(1):
        // the states are observably different and must NOT merge, even
        // with the processes declared interchangeable.
        let mut a = world(&[Role::Reader, Role::Reader]);
        let mut b = world(&[Role::Reader, Role::Reader]);
        a.declare_symmetry(vec![SymmetryClass::new(vec![ProcId(0), ProcId(1)])]);
        b.declare_symmetry(vec![SymmetryClass::new(vec![ProcId(0), ProcId(1)])]);
        a.step(ProcId(0));
        a.step(ProcId(0));
        b.step(ProcId(1));
        b.step(ProcId(1));
        assert_ne!(a.fingerprint_canonical(), b.fingerprint_canonical());
    }

    #[test]
    fn canonical_fingerprint_survives_world_cloning() {
        let mut a = per_slot_world(2);
        a.step(ProcId(1));
        let clone = a.clone_world();
        assert_eq!(clone.fingerprint_canonical(), a.fingerprint_canonical());
        let mut dst = per_slot_world(2);
        dst.step(ProcId(0));
        a.clone_world_into(&mut dst);
        assert_eq!(dst.fingerprint_canonical(), a.fingerprint_canonical());
    }

    #[test]
    fn canonical_fingerprint_does_not_cancel_equal_members() {
        // {a, a, b} against {c, c, b}: two members share a state in each
        // world, so a commutative XOR fold of the member words would
        // cancel the pair and leave `b` alone on both sides.
        let mut aab = per_slot_world(3);
        let mut ccb = per_slot_world(3);
        aab.step(ProcId(2));
        for p in [ProcId(0), ProcId(1)] {
            ccb.step(p);
            ccb.step(p);
        }
        ccb.step(ProcId(2));
        assert_ne!(canon_vec(&aab), canon_vec(&ccb));
        assert_ne!(aab.fingerprint_canonical(), ccb.fingerprint_canonical());
    }

    #[test]
    fn canonical_fingerprint_merges_permutations_of_a_65_member_class() {
        // The twin of the 65-member canonical-vector test: the class is
        // too large for the inline sort buffer.
        let steps = |i: usize| if i.is_multiple_of(3) { 0 } else { i % 4 };
        let mut a = per_slot_world(65);
        let mut b = per_slot_world(65);
        for i in 0..65 {
            for _ in 0..steps(i) {
                a.step(ProcId(i));
                b.step(ProcId(64 - i));
            }
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_canonical(), b.fingerprint_canonical());
        b.step(ProcId(0));
        assert_ne!(a.fingerprint_canonical(), b.fingerprint_canonical());
    }

    #[test]
    fn canonical_fingerprint_without_classes_partitions_like_fingerprint() {
        // Every combination of 0..6 steps per process (the program
        // wraps after 4, so some combinations reach the same state by
        // different histories), with and without a crash of process 0.
        let mut worlds = Vec::new();
        for n in 0..6 * 6 * 6 {
            for crash in [false, true] {
                let mut sim = per_slot_world(3);
                sim.declare_symmetry(Vec::new());
                for (p, k) in [n % 6, n / 6 % 6, n / 36].into_iter().enumerate() {
                    for _ in 0..k {
                        sim.step(ProcId(p));
                    }
                }
                if crash {
                    sim.crash(ProcId(0));
                }
                worlds.push(sim);
            }
        }
        let mut merges = 0;
        for a in &worlds {
            for b in &worlds {
                let concrete = a.fingerprint() == b.fingerprint();
                assert_eq!(
                    concrete,
                    a.fingerprint_canonical() == b.fingerprint_canonical()
                );
                merges += usize::from(concrete);
            }
        }
        assert!(merges > worlds.len(), "no two histories met in one state");
    }

    fn canon_vec(sim: &Sim) -> Vec<u64> {
        let mut v = Vec::new();
        sim.canonical_vec(&mut v);
        v
    }

    #[test]
    fn canonical_vec_merges_swapped_symmetric_members() {
        let mut a = per_slot_world(3);
        let mut b = per_slot_world(3);
        a.step(ProcId(0));
        a.step(ProcId(0));
        b.step(ProcId(2));
        b.step(ProcId(2));
        // The vectors agree exactly where the canonical fingerprints do.
        assert_eq!(canon_vec(&a), canon_vec(&b));
        assert_ne!(canon_vec(&a), canon_vec(&per_slot_world(3)));
    }

    #[test]
    fn canonical_vec_merges_permutations_of_a_65_member_class() {
        // Member `i` takes `steps(i)` steps in `a`; in `b` member `64 - i`
        // does, so `b` is `a` with the class reversed.
        let steps = |i: usize| if i.is_multiple_of(3) { 0 } else { i % 4 };
        let mut a = per_slot_world(65);
        let mut b = per_slot_world(65);
        for i in 0..65 {
            for _ in 0..steps(i) {
                a.step(ProcId(i));
                b.step(ProcId(64 - i));
            }
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(canon_vec(&a), canon_vec(&b));
        b.step(ProcId(0));
        assert_ne!(canon_vec(&a), canon_vec(&b));
    }

    #[test]
    fn canonical_vec_keeps_identity_leaks_distinct() {
        // Same setup as the fingerprint test: a *shared* flag holding the
        // writer's id is not owned by either member, so the states are
        // observably different and the vectors must differ.
        let mut a = world(&[Role::Reader, Role::Reader]);
        let mut b = world(&[Role::Reader, Role::Reader]);
        a.declare_symmetry(vec![SymmetryClass::new(vec![ProcId(0), ProcId(1)])]);
        b.declare_symmetry(vec![SymmetryClass::new(vec![ProcId(0), ProcId(1)])]);
        a.step(ProcId(0));
        a.step(ProcId(0));
        b.step(ProcId(1));
        b.step(ProcId(1));
        assert_ne!(canon_vec(&a), canon_vec(&b));
    }

    #[test]
    fn canonical_vec_without_classes_is_positional() {
        // No declared classes: every process serializes by slot, so a
        // swap of local states stays distinct (like the concrete
        // fingerprint).
        let mut a = per_slot_world(2);
        let mut b = per_slot_world(2);
        a.declare_symmetry(Vec::new());
        b.declare_symmetry(Vec::new());
        a.step(ProcId(0));
        b.step(ProcId(1));
        assert_ne!(canon_vec(&a), canon_vec(&b));
    }

    #[test]
    fn canonical_vec_annotation_travels_with_members() {
        // Annotations are folded inside the sorted bundles: swapping
        // members *together with* their annotations merges, swapping
        // only the states (annotations keyed to the old indices) must
        // not.
        let mut a = per_slot_world(2);
        let mut b = per_slot_world(2);
        a.step(ProcId(0));
        b.step(ProcId(1));
        let mark_p0 = |p: ProcId| (p == ProcId(0)) as u64;
        let mark_p1 = |p: ProcId| (p == ProcId(1)) as u64;
        let mut av = Vec::new();
        a.canonical_vec_annotated(mark_p0, &mut av);
        let mut bv = Vec::new();
        b.canonical_vec_annotated(mark_p1, &mut bv);
        assert_eq!(av, bv, "state and annotation permuted together");
        let mut bv_stuck = Vec::new();
        b.canonical_vec_annotated(mark_p0, &mut bv_stuck);
        assert_ne!(av, bv_stuck, "annotation pinned to the old member");
    }

    #[test]
    fn canonical_vec_appends_and_is_reproducible() {
        let mut sim = per_slot_world(2);
        sim.step(ProcId(1));
        let mut buf = vec![0xdead_beefu64];
        sim.canonical_vec(&mut buf);
        assert_eq!(buf[0], 0xdead_beef, "appends, never overwrites");
        assert_eq!(buf[1..].to_vec(), canon_vec(&sim));
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn declare_symmetry_rejects_singleton_classes() {
        let mut sim = world(&[Role::Reader, Role::Reader]);
        sim.declare_symmetry(vec![SymmetryClass::new(vec![ProcId(0)])]);
    }

    #[test]
    #[should_panic(expected = "more than one symmetry class")]
    fn declare_symmetry_rejects_overlapping_classes() {
        let mut sim = world(&[Role::Reader, Role::Reader, Role::Reader]);
        sim.declare_symmetry(vec![
            SymmetryClass::new(vec![ProcId(0), ProcId(1)]),
            SymmetryClass::new(vec![ProcId(1), ProcId(2)]),
        ]);
    }

    #[test]
    #[should_panic(expected = "identical local states")]
    fn declare_symmetry_rejects_asymmetric_start_states() {
        let mut sim = world(&[Role::Reader, Role::Reader]);
        sim.step(ProcId(0)); // p0 leaves its remainder section
        sim.declare_symmetry(vec![SymmetryClass::new(vec![ProcId(0), ProcId(1)])]);
    }

    #[test]
    #[should_panic(expected = "owned twice")]
    fn declare_symmetry_rejects_shared_owned_variables() {
        let mut sim = world(&[Role::Reader, Role::Reader]);
        let flag = VarId(0);
        sim.declare_symmetry(vec![SymmetryClass::with_owned(
            vec![ProcId(0), ProcId(1)],
            vec![vec![flag], vec![flag]],
        )]);
    }

    #[test]
    fn crash_in_remainder_is_harmless() {
        let mut sim = world(&[Role::Reader]);
        let p = ProcId(0);
        let f0 = sim.fingerprint();
        sim.crash(p);
        assert_eq!(sim.phase(p), Phase::Remainder);
        assert_eq!(sim.fingerprint(), f0, "no observable state changed");
        assert_eq!(sim.stats(p).crashes, 1);
    }
}
