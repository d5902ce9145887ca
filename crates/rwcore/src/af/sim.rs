//! The simulated `A_f` machines: Algorithm 1 as explicit `ccsim` step
//! machines, one state per pseudo-code line, so the RMR claims of
//! Lemma 17 can be *measured* and the safety claims of Lemmas 8–16
//! model-checked.

use crate::af::counters::{GroupAddMachine, GroupHandle, GroupReadMachine};
use crate::af::shared::{AfShared, HelpOrder};
use crate::config::GroupSlot;
use crate::sig::{Opcode, Signal};
use ccsim::{sub, FxHasher, Op, Phase, Program, Role, Step, SubMachine, SubStep, Value, VarId};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn signal_of(v: Value) -> Signal {
    Signal::from_pair(v.expect_pair())
}

/// Sub-machine for `HelpWCS(seq)` (lines 50–54): read the two group
/// counters and, if they are equal, CAS `WSIG[i]` from `<seq, WAIT>` to
/// `<seq, CS>`. The counter read order is configured by
/// [`HelpOrder`] — see the reproduction note there.
#[derive(Copy, Clone, Debug)]
pub struct HelpWcsMachine {
    wsig: VarId,
    seq: i64,
    pc: HelpPc,
}

#[derive(Copy, Clone, Debug)]
enum HelpPc {
    /// Reading the first counter; the second counter's read machine is
    /// held ready.
    First {
        m: GroupReadMachine,
        second: GroupReadMachine,
    },
    /// Reading the second counter.
    Second {
        first_val: i64,
        m: GroupReadMachine,
    },
    Cas,
    Done,
}

impl HelpWcsMachine {
    /// Start `HelpWCS(seq)` against group `i` of `shared`, honouring the
    /// instance's [`HelpOrder`].
    pub fn new(shared: &AfShared, i: usize, seq: i64) -> Self {
        let (first, second) = match shared.help_order {
            HelpOrder::WaitersFirst => (shared.w[i].read(), shared.c[i].read()),
            HelpOrder::PaperLiteral => (shared.c[i].read(), shared.w[i].read()),
        };
        HelpWcsMachine {
            wsig: shared.wsig[i],
            seq,
            pc: HelpPc::First { m: first, second },
        }
    }
}

impl SubMachine for HelpWcsMachine {
    fn poll(&self) -> SubStep {
        match &self.pc {
            HelpPc::First { m, .. } | HelpPc::Second { m, .. } => m.poll(),
            HelpPc::Cas => SubStep::Op(Op::Cas {
                var: self.wsig,
                expected: AfShared::sig_value(self.seq, Opcode::Wait),
                new: AfShared::sig_value(self.seq, Opcode::Cs),
            }),
            HelpPc::Done => SubStep::Done(Value::Nil),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match std::mem::replace(&mut self.pc, HelpPc::Done) {
            HelpPc::First { mut m, second } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(v) => HelpPc::Second {
                    first_val: v.expect_int(),
                    m: second,
                },
                sub::Drive::Running => HelpPc::First { m, second },
            },
            HelpPc::Second { first_val, mut m } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(v) => {
                    if v.expect_int() == first_val {
                        HelpPc::Cas // line 51 condition holds
                    } else {
                        HelpPc::Done
                    }
                }
                sub::Drive::Running => HelpPc::Second { first_val, m },
            },
            HelpPc::Cas => HelpPc::Done,
            HelpPc::Done => panic!("HelpWcsMachine resumed after completion"),
        };
    }

    fn fingerprint<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        match &self.pc {
            HelpPc::First { m, .. } => {
                0u8.hash(&mut h);
                m.fingerprint(h);
            }
            HelpPc::Second { first_val, m } => {
                1u8.hash(&mut h);
                first_val.hash(&mut h);
                m.fingerprint(h);
            }
            HelpPc::Cas => 2u8.hash(&mut h),
            HelpPc::Done => 3u8.hash(&mut h),
        }
        self.seq.hash(&mut h);
    }
}

/// Program counter of a simulated reader (the paper's line numbers).
#[derive(Copy, Clone, Debug)]
enum RPc {
    /// Line 29/30: in the remainder section.
    Remainder,
    /// Line 31: `C[i].add(1)`.
    AddC(GroupAddMachine),
    /// Line 32: read `RSIG`.
    ReadRsig,
    /// Line 34: `W[i].add(1)` after observing `<seq, WAIT>`.
    AddW { seq: i64, m: GroupAddMachine },
    /// Line 35: `HelpWCS(seq)`.
    Help1 { seq: i64, m: HelpWcsMachine },
    /// Line 36: await `RSIG ≠ <seq, WAIT>`.
    AwaitRsig { seq: i64 },
    /// Line 37: `W[i].add(-1)`.
    SubW(GroupAddMachine),
    /// Line 39: critical section.
    Cs,
    /// Line 40: `C[i].add(-1)`.
    SubC(GroupAddMachine),
    /// Line 41: read `RSIG` again.
    ReadRsig2,
    /// Line 43: read `C[i]` after seeing `PREENTRY`.
    ReadCForSignal { seq: i64, m: GroupReadMachine },
    /// Line 45: CAS `WSIG[i]` from `<seq, ⊥>` to `<seq, PROCEED>`.
    CasProceed { seq: i64 },
    /// Line 48: `HelpWCS(seq)` from the exit path.
    Help2 { m: HelpWcsMachine },
    /// Withdrawal: `W[i].add(-1)` after aborting from a waiting state
    /// (the reader had announced itself a waiter); continues into the
    /// normal exit duties at `SubC`.
    AbortSubW(GroupAddMachine),
    /// Recovery: drain this leaf's stale `W` contribution in one add
    /// before draining `C` and running the exit-signal duties.
    RecoverSubW(GroupAddMachine),
}

impl RPc {
    fn discriminant(&self) -> u8 {
        match self {
            RPc::Remainder => 0,
            RPc::AddC(_) => 1,
            RPc::ReadRsig => 2,
            RPc::AddW { .. } => 3,
            RPc::Help1 { .. } => 4,
            RPc::AwaitRsig { .. } => 5,
            RPc::SubW(_) => 6,
            RPc::Cs => 7,
            RPc::SubC(_) => 8,
            RPc::ReadRsig2 => 9,
            RPc::ReadCForSignal { .. } => 10,
            RPc::CasProceed { .. } => 11,
            RPc::Help2 { .. } => 12,
            RPc::AbortSubW(_) => 13,
            RPc::RecoverSubW(_) => 14,
        }
    }
}

/// A simulated `A_f` reader process (lines 29–49).
#[derive(Debug)]
pub struct AfReaderSim {
    shared: Arc<AfShared>,
    /// This reader's id (`0..n`) and group slot.
    id: usize,
    slot: GroupSlot,
    c_handle: GroupHandle,
    w_handle: GroupHandle,
    pc: RPc,
    /// Set by a crash; the next passage starts with the recovery section
    /// (drain the leaf's stale `C`/`W` contributions, run the exit-signal
    /// duties) instead of a fresh entry.
    recover: bool,
}

/// Manual `Clone` so `clone_from` (the model checker's recycling-pool hot
/// path, see [`ccsim::Sim::clone_world_into`]) skips the `Arc` refcount
/// round-trip when source and destination already share the same world —
/// which the pool guarantees — leaving a plain field copy (the pc is
/// `Copy`, nested machines included).
impl Clone for AfReaderSim {
    fn clone(&self) -> Self {
        AfReaderSim {
            shared: Arc::clone(&self.shared),
            id: self.id,
            slot: self.slot,
            c_handle: self.c_handle,
            w_handle: self.w_handle,
            pc: self.pc,
            recover: self.recover,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        if !Arc::ptr_eq(&self.shared, &src.shared) {
            self.shared = Arc::clone(&src.shared);
        }
        self.id = src.id;
        self.slot = src.slot;
        self.c_handle = src.c_handle;
        self.w_handle = src.w_handle;
        self.pc = src.pc;
        self.recover = src.recover;
    }
}

impl AfReaderSim {
    /// Build the machine for reader `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn new(shared: Arc<AfShared>, id: usize) -> Self {
        let slot = shared.cfg.group_of(id);
        let c_handle = shared.c[slot.group].handle(slot.leaf);
        let w_handle = shared.w[slot.group].handle(slot.leaf);
        AfReaderSim {
            shared,
            id,
            slot,
            c_handle,
            w_handle,
            pc: RPc::Remainder,
            recover: false,
        }
    }

    /// Build the machine for reader `id` parked *inside* the critical
    /// section (line 39), as if some other process had already run the
    /// entry section for this reader id. This is the handoff constructor
    /// for compositions that pass one lock slot between processes — the
    /// sharded batch slot's exit runs in whichever member leaves last,
    /// not in the leader that entered.
    ///
    /// # Panics
    /// Panics if `id` is out of range, or if the instance's counters are
    /// not stateless ([`GroupHandle::is_stateless`]): an f-array handle
    /// carries a per-process leaf mirror, so an exit driven by a fresh
    /// handle in a different process would desynchronise the tree.
    /// Handed-off instances must use [`crate::CounterKind::CasLoop`].
    pub fn at_cs(shared: Arc<AfShared>, id: usize) -> Self {
        let mut m = Self::new(shared, id);
        assert!(
            m.c_handle.is_stateless() && m.w_handle.is_stateless(),
            "at_cs requires stateless (CasLoop) counters: f-array leaf \
             mirrors cannot be handed across processes"
        );
        m.pc = RPc::Cs;
        m
    }

    /// This reader's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Definition 4: the reader is *waiting* iff its pc is in [34, 36].
    pub fn is_waiting(&self) -> bool {
        matches!(
            self.pc,
            RPc::AddW { .. } | RPc::Help1 { .. } | RPc::AwaitRsig { .. }
        )
    }

    fn help(&self, seq: i64) -> HelpWcsMachine {
        HelpWcsMachine::new(&self.shared, self.slot.group, seq)
    }
}

impl Program for AfReaderSim {
    fn poll(&self) -> Step {
        match &self.pc {
            RPc::Remainder => Step::Remainder,
            RPc::AddC(m)
            | RPc::SubC(m)
            | RPc::SubW(m)
            | RPc::AbortSubW(m)
            | RPc::RecoverSubW(m) => Step::Op(sub::poll_op(m)),
            RPc::AddW { m, .. } => Step::Op(sub::poll_op(m)),
            RPc::ReadRsig | RPc::ReadRsig2 | RPc::AwaitRsig { .. } => {
                Step::Op(Op::Read(self.shared.rsig))
            }
            RPc::Help1 { m, .. } => Step::Op(sub::poll_op(m)),
            RPc::Help2 { m } => Step::Op(sub::poll_op(m)),
            RPc::Cs => Step::Cs,
            RPc::ReadCForSignal { m, .. } => Step::Op(sub::poll_op(m)),
            RPc::CasProceed { seq } => Step::Op(Op::Cas {
                var: self.shared.wsig[self.slot.group],
                expected: AfShared::sig_value(*seq, Opcode::Bot),
                new: AfShared::sig_value(*seq, Opcode::Proceed),
            }),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match std::mem::replace(&mut self.pc, RPc::Remainder) {
            RPc::Remainder => {
                if self.recover {
                    // Recovery passage: drain the leaf's W then C
                    // contributions, then run the exit-signal duties so no
                    // writer waits forever on a count this dead passage
                    // will never retract. The drain runs even on a zero
                    // mirror: `add(-mirror)` writes the leaf *absolutely*
                    // (leaf := new mirror, then double-refresh upward), so
                    // it also repairs a leaf left stale by a crash that
                    // struck between a prior `add`'s mirror update and its
                    // leaf write.
                    self.recover = false;
                    let w = self.w_handle.mirror();
                    RPc::RecoverSubW(self.w_handle.add(-w))
                } else {
                    RPc::AddC(self.c_handle.add(1)) // begin passage (line 31)
                }
            }
            RPc::AddC(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => RPc::ReadRsig,
                sub::Drive::Running => RPc::AddC(m),
            },
            RPc::ReadRsig => {
                let sig = signal_of(response); // line 32
                if sig.op == Opcode::Wait {
                    RPc::AddW {
                        seq: sig.seq as i64,
                        m: self.w_handle.add(1),
                    } // line 34
                } else {
                    RPc::Cs // line 33: op ≠ WAIT — enter freely
                }
            }
            RPc::AddW { seq, mut m } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => RPc::Help1 {
                    seq,
                    m: self.help(seq),
                },
                sub::Drive::Running => RPc::AddW { seq, m },
            },
            RPc::Help1 { seq, mut m } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => RPc::AwaitRsig { seq },
                sub::Drive::Running => RPc::Help1 { seq, m },
            },
            RPc::AwaitRsig { seq } => {
                if signal_of(response) == Signal::new(seq as u64, Opcode::Wait) {
                    RPc::AwaitRsig { seq } // line 36: keep spinning
                } else {
                    RPc::SubW(self.w_handle.add(-1)) // line 37
                }
            }
            RPc::SubW(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => RPc::Cs,
                sub::Drive::Running => RPc::SubW(m),
            },
            RPc::Cs => RPc::SubC(self.c_handle.add(-1)), // begin exit (line 40)
            RPc::SubC(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => RPc::ReadRsig2,
                sub::Drive::Running => RPc::SubC(m),
            },
            RPc::ReadRsig2 => {
                let sig = signal_of(response); // line 41
                match sig.op {
                    Opcode::Preentry => RPc::ReadCForSignal {
                        seq: sig.seq as i64,
                        m: self.shared.c[self.slot.group].read(), // line 43
                    },
                    Opcode::Wait => RPc::Help2 {
                        m: self.help(sig.seq as i64),
                    }, // line 48
                    _ => RPc::Remainder, // passage complete
                }
            }
            RPc::ReadCForSignal { seq, mut m } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(v) => {
                    if v.expect_int() == 0 {
                        RPc::CasProceed { seq } // line 45
                    } else {
                        RPc::Remainder
                    }
                }
                sub::Drive::Running => RPc::ReadCForSignal { seq, m },
            },
            RPc::CasProceed { .. } => RPc::Remainder,
            RPc::Help2 { mut m } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => RPc::Remainder,
                sub::Drive::Running => RPc::Help2 { m },
            },
            RPc::AbortSubW(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => RPc::SubC(self.c_handle.add(-1)),
                sub::Drive::Running => RPc::AbortSubW(m),
            },
            RPc::RecoverSubW(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => {
                    let c = self.c_handle.mirror();
                    RPc::SubC(self.c_handle.add(-c)) // unconditional: see above
                }
                sub::Drive::Running => RPc::RecoverSubW(m),
            },
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            RPc::Remainder => Phase::Remainder,
            RPc::AddC(_)
            | RPc::ReadRsig
            | RPc::AddW { .. }
            | RPc::Help1 { .. }
            | RPc::AwaitRsig { .. }
            | RPc::SubW(_) => Phase::Entry,
            RPc::Cs => Phase::Cs,
            RPc::SubC(_)
            | RPc::ReadRsig2
            | RPc::ReadCForSignal { .. }
            | RPc::CasProceed { .. }
            | RPc::Help2 { .. }
            | RPc::AbortSubW(_)
            | RPc::RecoverSubW(_) => Phase::Exit,
        }
    }

    fn role(&self) -> Role {
        Role::Reader
    }

    fn on_crash(&mut self) {
        // The pc (and any in-flight counter/help machine) is lost. The
        // group-counter handles keep their leaf mirrors: the leaf is
        // single-writer, so recovery could restore the mirror by reading
        // it back, and a mirror that ran ahead of an interrupted add only
        // over-counts. The next passage is a *recovery* passage that
        // drains those stale contributions so no writer blocks on them
        // forever. That drain is not harmless: it retracts `W[i]` while
        // `RSIG` may still say `WAIT`, and beside two other readers of
        // the group a concurrent `HelpWCS` can then read `C = W` and
        // admit the writer beside a reader in the CS — the withdrawal
        // race of ROADMAP item 1 (witnesses under `results/`).
        self.pc = RPc::Remainder;
        self.recover = true;
    }

    fn can_abort(&self) -> bool {
        // Abortable while merely announced (C incremented) or waiting
        // (W incremented, possibly helping): nothing is mid-add, so the
        // withdrawal retracts whole contributions. A reader that has
        // passed the admission read into the CS is committed.
        matches!(
            self.pc,
            RPc::ReadRsig | RPc::Help1 { .. } | RPc::AwaitRsig { .. }
        )
    }

    fn on_abort(&mut self) {
        let from_wait = matches!(self.pc, RPc::Help1 { .. } | RPc::AwaitRsig { .. });
        debug_assert!(from_wait || matches!(self.pc, RPc::ReadRsig));
        // Retract W (if announced as a waiter) then C, then run the normal
        // exit-signal duties — a withdrawal looks to everyone else exactly
        // like a passage that never reached the CS. An abandoned in-flight
        // `HelpWCS` is harmless: the exit path re-helps if needed.
        self.pc = if from_wait {
            RPc::AbortSubW(self.w_handle.add(-1))
        } else {
            RPc::SubC(self.c_handle.add(-1))
        };
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        self.hash_state(h);
    }

    fn fingerprint64(&self) -> u64 {
        let mut h = FxHasher::default();
        self.hash_state(&mut h);
        h.finish()
    }
}

impl AfReaderSim {
    /// All local state, hashed into `h`: the one body behind both
    /// [`Program::fingerprint`] and the statically dispatched
    /// [`Program::fingerprint64`], so the two cannot drift apart.
    fn hash_state<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        self.pc.discriminant().hash(&mut h);
        self.recover.hash(&mut h);
        self.c_handle.mirror().hash(&mut h);
        self.w_handle.mirror().hash(&mut h);
        match &self.pc {
            RPc::AddC(m)
            | RPc::SubC(m)
            | RPc::SubW(m)
            | RPc::AbortSubW(m)
            | RPc::RecoverSubW(m) => m.fingerprint(h),
            RPc::AddW { seq, m } => {
                seq.hash(&mut h);
                m.fingerprint(h);
            }
            RPc::Help1 { seq, m } => {
                seq.hash(&mut h);
                m.fingerprint(h);
            }
            RPc::AwaitRsig { seq } => seq.hash(&mut h),
            RPc::ReadCForSignal { seq, m } => {
                seq.hash(&mut h);
                m.fingerprint(h);
            }
            RPc::CasProceed { seq } => seq.hash(&mut h),
            RPc::Help2 { m } => m.fingerprint(h),
            _ => {}
        }
    }
}

/// Program counter of a simulated writer (the paper's line numbers).
#[derive(Copy, Clone, Debug)]
enum WPc {
    Remainder,
    /// Line 6: `WL.Enter()`.
    WlEnter(wmutex::EnterMachine),
    /// Read `WSEQ` into the local `seq` (implicit in lines 7–11).
    ReadWseq,
    /// Lines 7–9: `WSIG[i] := <seq, ⊥>`.
    InitWsig {
        seq: i64,
        i: usize,
    },
    /// Line 11: `RSIG := <seq, PREENTRY>`.
    RsigPreentry {
        seq: i64,
    },
    /// Line 13: read `C[i]`.
    L1ReadC {
        seq: i64,
        i: usize,
        m: GroupReadMachine,
    },
    /// Line 14: await `WSIG[i] = <seq, PROCEED>`.
    L1Await {
        seq: i64,
        i: usize,
    },
    /// Line 16: `WSIG[i] := <seq, WAIT>`.
    L1WriteWsig {
        seq: i64,
        i: usize,
    },
    /// Line 18: `RSIG := <seq, WAIT>`.
    RsigWait {
        seq: i64,
    },
    /// Line 20: read `C[i]`.
    L2ReadC {
        seq: i64,
        i: usize,
        m: GroupReadMachine,
    },
    /// Line 21: await `WSIG[i] = <seq, CS>`.
    L2Await {
        seq: i64,
        i: usize,
    },
    /// Line 24: critical section.
    Cs {
        seq: i64,
    },
    /// Line 25: `WSEQ := seq + 1`.
    IncWseq {
        seq: i64,
    },
    /// Line 26: `RSIG := <seq + 1, NOP>`.
    RsigNop {
        seq: i64,
    },
    /// Line 27: `WL.Exit()`.
    WlExit(wmutex::ExitMachine),
    /// Recovery after a crash: re-acquire `WL` (re-running one's own
    /// tournament entry is safe from any stale own-flag state).
    RecoverWlEnter(wmutex::EnterMachine),
    /// Recovery: read `WSEQ` to learn the interrupted passage's epoch.
    RecoverReadWseq,
    /// Recovery: *burn the epoch* — `WSEQ := seq + 1`. The interrupted
    /// passage's sequence number must never be reused: readers that
    /// observed `<seq, …>` may still hold helper CASes armed for it, and
    /// replaying them into a fresh passage with the same `seq` admits a
    /// mutual-exclusion violation (found by the crash-augmented model
    /// checker; see DESIGN.md, "Crash-fault model").
    RecoverIncWseq {
        seq: i64,
    },
    /// Recovery: `RSIG := <seq + 1, NOP>` — unparks readers still waiting
    /// on the dead epoch, exactly as line 26 would have.
    RecoverRsigNop {
        seq: i64,
    },
    /// Withdrawal: release the tournament nodes already won (see
    /// [`wmutex::EnterMachine::abort`]). A writer is only abortable while
    /// still competing for `WL` — it has touched no `A_f` signal state
    /// yet, so the tournament unwind is the whole withdrawal.
    AbortWl(wmutex::ExitMachine),
}

impl WPc {
    fn discriminant(&self) -> u8 {
        match self {
            WPc::Remainder => 0,
            WPc::WlEnter(_) => 1,
            WPc::ReadWseq => 2,
            WPc::InitWsig { .. } => 3,
            WPc::RsigPreentry { .. } => 4,
            WPc::L1ReadC { .. } => 5,
            WPc::L1Await { .. } => 6,
            WPc::L1WriteWsig { .. } => 7,
            WPc::RsigWait { .. } => 8,
            WPc::L2ReadC { .. } => 9,
            WPc::L2Await { .. } => 10,
            WPc::Cs { .. } => 11,
            WPc::IncWseq { .. } => 12,
            WPc::RsigNop { .. } => 13,
            WPc::WlExit(_) => 14,
            WPc::RecoverWlEnter(_) => 15,
            WPc::RecoverReadWseq => 16,
            WPc::RecoverIncWseq { .. } => 17,
            WPc::RecoverRsigNop { .. } => 18,
            WPc::AbortWl(_) => 19,
        }
    }
}

/// A simulated `A_f` writer process (lines 5–28).
#[derive(Debug)]
pub struct AfWriterSim {
    shared: Arc<AfShared>,
    id: usize,
    pc: WPc,
    /// Set by a crash; the next passage starts with the recovery section
    /// (the RME model lets a restarted process know it is recovering).
    recover: bool,
    /// Whether recovery burns the interrupted epoch (always true outside
    /// tests; see [`AfWriterSim::new_with_seq_reuse_bug`]).
    burn_epoch: bool,
}

/// Manual `Clone` for the same reason as [`AfReaderSim`]'s: `clone_from`
/// in the model checker's recycling pool must not touch the shared-world
/// `Arc` refcount when both sides already point at the same world.
impl Clone for AfWriterSim {
    fn clone(&self) -> Self {
        AfWriterSim {
            shared: Arc::clone(&self.shared),
            id: self.id,
            pc: self.pc,
            recover: self.recover,
            burn_epoch: self.burn_epoch,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        if !Arc::ptr_eq(&self.shared, &src.shared) {
            self.shared = Arc::clone(&src.shared);
        }
        self.id = src.id;
        self.pc = src.pc;
        self.recover = src.recover;
        self.burn_epoch = src.burn_epoch;
    }
}

impl AfWriterSim {
    /// Build the machine for writer `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn new(shared: Arc<AfShared>, id: usize) -> Self {
        assert!(id < shared.cfg.writers, "writer id {id} out of range");
        AfWriterSim {
            shared,
            id,
            pc: WPc::Remainder,
            recover: false,
            burn_epoch: true,
        }
    }

    /// Build a writer whose recovery section **reuses** the interrupted
    /// passage's sequence number instead of burning it — deliberately
    /// re-introducing the seq-reuse bug that the epoch burn exists to
    /// prevent (stale reader helper CASes armed for the dead epoch fire
    /// into the new passage). Exposed, hidden, so the test suite can
    /// demonstrate the crash-augmented model checker catching the
    /// violation with a replayable counterexample.
    #[doc(hidden)]
    pub fn new_with_seq_reuse_bug(shared: Arc<AfShared>, id: usize) -> Self {
        let mut w = Self::new(shared, id);
        w.burn_epoch = false;
        w
    }

    /// This writer's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Definition 5: the writer is *waiting* iff its pc is line 14 or 21.
    pub fn is_waiting(&self) -> bool {
        matches!(self.pc, WPc::L1Await { .. } | WPc::L2Await { .. })
    }

    /// After the first-loop body for group `i` completes: next group or
    /// line 18.
    fn after_l1(&self, seq: i64, i: usize) -> WPc {
        if i + 1 < self.shared.groups {
            WPc::L1ReadC {
                seq,
                i: i + 1,
                m: self.shared.c[i + 1].read(),
            }
        } else {
            WPc::RsigWait { seq }
        }
    }

    /// After the second-loop body for group `i` completes: next group or
    /// the CS.
    fn after_l2(&self, seq: i64, i: usize) -> WPc {
        if i + 1 < self.shared.groups {
            WPc::L2ReadC {
                seq,
                i: i + 1,
                m: self.shared.c[i + 1].read(),
            }
        } else {
            WPc::Cs { seq }
        }
    }
}

impl Program for AfWriterSim {
    fn poll(&self) -> Step {
        match &self.pc {
            WPc::Remainder => Step::Remainder,
            WPc::WlEnter(m) => Step::Op(sub::poll_op(m)),
            WPc::ReadWseq => Step::Op(Op::Read(self.shared.wseq)),
            WPc::InitWsig { seq, i } => Step::Op(Op::Write(
                self.shared.wsig[*i],
                AfShared::sig_value(*seq, Opcode::Bot),
            )),
            WPc::RsigPreentry { seq } => Step::Op(Op::Write(
                self.shared.rsig,
                AfShared::sig_value(*seq, Opcode::Preentry),
            )),
            WPc::L1ReadC { m, .. } | WPc::L2ReadC { m, .. } => Step::Op(sub::poll_op(m)),
            WPc::L1Await { i, .. } | WPc::L2Await { i, .. } => {
                Step::Op(Op::Read(self.shared.wsig[*i]))
            }
            WPc::L1WriteWsig { seq, i } => Step::Op(Op::Write(
                self.shared.wsig[*i],
                AfShared::sig_value(*seq, Opcode::Wait),
            )),
            WPc::RsigWait { seq } => Step::Op(Op::Write(
                self.shared.rsig,
                AfShared::sig_value(*seq, Opcode::Wait),
            )),
            WPc::Cs { .. } => Step::Cs,
            WPc::IncWseq { seq } => Step::Op(Op::write(self.shared.wseq, *seq + 1)),
            WPc::RsigNop { seq } => Step::Op(Op::Write(
                self.shared.rsig,
                AfShared::sig_value(*seq + 1, Opcode::Nop),
            )),
            WPc::WlExit(m) | WPc::AbortWl(m) => Step::Op(sub::poll_op(m)),
            WPc::RecoverWlEnter(m) => Step::Op(sub::poll_op(m)),
            WPc::RecoverReadWseq => Step::Op(Op::Read(self.shared.wseq)),
            WPc::RecoverIncWseq { seq } => Step::Op(Op::write(self.shared.wseq, *seq + 1)),
            WPc::RecoverRsigNop { seq } => Step::Op(Op::Write(
                self.shared.rsig,
                AfShared::sig_value(*seq + 1, Opcode::Nop),
            )),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match std::mem::replace(&mut self.pc, WPc::Remainder) {
            WPc::Remainder => {
                // Begin passage: line 6. An m=1 tournament is empty. After
                // a crash the passage starts with the recovery section.
                let enter = self.shared.wl.enter(self.id);
                let done = matches!(enter.poll(), SubStep::Done(_));
                match (self.recover, done) {
                    (false, true) => WPc::ReadWseq,
                    (false, false) => WPc::WlEnter(enter),
                    (true, true) => WPc::RecoverReadWseq,
                    (true, false) => WPc::RecoverWlEnter(enter),
                }
            }
            WPc::WlEnter(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => WPc::ReadWseq,
                sub::Drive::Running => WPc::WlEnter(m),
            },
            WPc::ReadWseq => WPc::InitWsig {
                seq: response.expect_int(),
                i: 0,
            },
            WPc::InitWsig { seq, i } => {
                if i + 1 < self.shared.groups {
                    WPc::InitWsig { seq, i: i + 1 }
                } else {
                    WPc::RsigPreentry { seq }
                }
            }
            WPc::RsigPreentry { seq } => WPc::L1ReadC {
                seq,
                i: 0,
                m: self.shared.c[0].read(),
            },
            WPc::L1ReadC { seq, i, mut m } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(v) => {
                    if v.expect_int() > 0 {
                        WPc::L1Await { seq, i } // line 14
                    } else {
                        WPc::L1WriteWsig { seq, i } // line 16
                    }
                }
                sub::Drive::Running => WPc::L1ReadC { seq, i, m },
            },
            WPc::L1Await { seq, i } => {
                if signal_of(response) == Signal::new(seq as u64, Opcode::Proceed) {
                    WPc::L1WriteWsig { seq, i }
                } else {
                    WPc::L1Await { seq, i } // keep spinning
                }
            }
            WPc::L1WriteWsig { seq, i } => self.after_l1(seq, i),
            WPc::RsigWait { seq } => WPc::L2ReadC {
                seq,
                i: 0,
                m: self.shared.c[0].read(),
            },
            WPc::L2ReadC { seq, i, mut m } => match sub::drive(&mut m, response) {
                sub::Drive::Finished(v) => {
                    if v.expect_int() > 0 {
                        WPc::L2Await { seq, i } // line 21
                    } else {
                        self.after_l2(seq, i)
                    }
                }
                sub::Drive::Running => WPc::L2ReadC { seq, i, m },
            },
            WPc::L2Await { seq, i } => {
                if signal_of(response) == Signal::new(seq as u64, Opcode::Cs) {
                    self.after_l2(seq, i)
                } else {
                    WPc::L2Await { seq, i }
                }
            }
            WPc::Cs { seq } => WPc::IncWseq { seq }, // begin exit (line 25)
            WPc::IncWseq { seq } => WPc::RsigNop { seq },
            WPc::RsigNop { .. } => {
                let exit = self.shared.wl.exit(self.id);
                if matches!(exit.poll(), SubStep::Done(_)) {
                    WPc::Remainder // m = 1: empty tournament exit
                } else {
                    WPc::WlExit(exit)
                }
            }
            WPc::WlExit(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => WPc::Remainder,
                sub::Drive::Running => WPc::WlExit(m),
            },
            WPc::RecoverWlEnter(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => WPc::RecoverReadWseq,
                sub::Drive::Running => WPc::RecoverWlEnter(m),
            },
            WPc::RecoverReadWseq => {
                let seq = response.expect_int();
                if self.burn_epoch {
                    WPc::RecoverIncWseq { seq }
                } else {
                    // Deliberately broken recovery (tests only): reuse the
                    // dead epoch — see `new_with_seq_reuse_bug`.
                    self.recover = false;
                    WPc::InitWsig { seq, i: 0 }
                }
            }
            WPc::RecoverIncWseq { seq } => WPc::RecoverRsigNop { seq },
            WPc::RecoverRsigNop { seq } => {
                // The dead epoch is burned and stale waiters unparked;
                // continue into a normal entry with the fresh sequence
                // number, keeping WL held (no exit/re-enter round trip).
                self.recover = false;
                WPc::InitWsig { seq: seq + 1, i: 0 }
            }
            WPc::AbortWl(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => WPc::Remainder,
                sub::Drive::Running => WPc::AbortWl(m),
            },
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            WPc::Remainder => Phase::Remainder,
            WPc::Cs { .. } => Phase::Cs,
            WPc::IncWseq { .. } | WPc::RsigNop { .. } | WPc::WlExit(_) => Phase::Exit,
            // AbortWl stays Entry: the withdrawal is the tail of a failed
            // entry attempt (the writer never reached the CS).
            _ => Phase::Entry,
        }
    }

    fn role(&self) -> Role {
        Role::Writer
    }

    fn can_abort(&self) -> bool {
        // Only while still competing for WL: past that point the writer
        // has published signal state and the passage is committed.
        matches!(self.pc, WPc::WlEnter(_))
    }

    fn on_abort(&mut self) {
        let WPc::WlEnter(m) = &self.pc else {
            unreachable!("on_abort called without can_abort");
        };
        let exit = m.abort();
        self.pc = if matches!(exit.poll(), SubStep::Done(_)) {
            WPc::Remainder // no flag set yet: instant withdrawal
        } else {
            WPc::AbortWl(exit)
        };
    }

    fn on_crash(&mut self) {
        // Local state (pc, the in-flight WL machine, the cached seq) is
        // lost. The next passage must start with the recovery section:
        // re-acquire WL, then burn the interrupted epoch. Without the
        // epoch burn, re-entering with the same WSEQ lets stale reader
        // helper CASes (armed for the abandoned passage) fire into the
        // new one — a real mutual-exclusion violation the crash-augmented
        // model checker finds at n=1, m=1 with a two-passage quota (the
        // stale helper signal needs a second identically-numbered
        // passage to fire into).
        self.pc = WPc::Remainder;
        self.recover = true;
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        self.hash_state(h);
    }

    fn fingerprint64(&self) -> u64 {
        let mut h = FxHasher::default();
        self.hash_state(&mut h);
        h.finish()
    }
}

impl AfWriterSim {
    /// All local state, hashed into `h`; see [`AfReaderSim`]'s
    /// `hash_state`.
    fn hash_state<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        self.pc.discriminant().hash(&mut h);
        self.recover.hash(&mut h);
        match &self.pc {
            WPc::WlEnter(m) | WPc::RecoverWlEnter(m) => m.fingerprint(h),
            WPc::WlExit(m) | WPc::AbortWl(m) => m.fingerprint(h),
            WPc::InitWsig { seq, i }
            | WPc::L1Await { seq, i }
            | WPc::L1WriteWsig { seq, i }
            | WPc::L2Await { seq, i } => {
                seq.hash(&mut h);
                i.hash(&mut h);
            }
            WPc::L1ReadC { seq, i, m } | WPc::L2ReadC { seq, i, m } => {
                seq.hash(&mut h);
                i.hash(&mut h);
                m.fingerprint(h);
            }
            WPc::RsigPreentry { seq }
            | WPc::RsigWait { seq }
            | WPc::Cs { seq }
            | WPc::IncWseq { seq }
            | WPc::RsigNop { seq }
            | WPc::RecoverIncWseq { seq }
            | WPc::RecoverRsigNop { seq } => seq.hash(&mut h),
            WPc::Remainder | WPc::ReadWseq | WPc::RecoverReadWseq => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AfConfig, FPolicy};
    use crate::world::af_world;
    use ccsim::{run_solo, Protocol};

    #[test]
    fn writer_solo_signal_protocol() {
        // Follow a solo writer through the exact signal sequence of
        // Algorithm 1: WSIG[i] armed to <0,⊥>, RSIG to <0,PREENTRY>,
        // WSIG to <0,WAIT>, RSIG to <0,WAIT>, CS, then WSEQ=1 and
        // RSIG=<1,NOP>.
        let cfg = AfConfig {
            readers: 2,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let w = world.pids.writer(0);

        run_solo(&mut world.sim, w, 1_000, |s| s.phase(w) == Phase::Cs).unwrap();
        let mem = world.sim.mem();
        assert_eq!(world.shared.peek_rsig(mem), Signal::new(0, Opcode::Wait));
        assert_eq!(world.shared.peek_wsig(mem, 0), Signal::new(0, Opcode::Wait));

        run_solo(&mut world.sim, w, 1_000, |s| s.phase(w) == Phase::Remainder).unwrap();
        let mem = world.sim.mem();
        assert_eq!(world.shared.peek_rsig(mem), Signal::new(1, Opcode::Nop));
        assert_eq!(mem.peek(world.shared.wseq), Value::Int(1));
    }

    #[test]
    fn reader_wait_path_follows_definition4() {
        // Writer into the CS; reader must pass through the waiting states
        // of Definition 4 (pc in [34,36]) and park at AwaitRsig.
        let cfg = AfConfig {
            readers: 1,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let (r, w) = (world.pids.reader(0), world.pids.writer(0));
        run_solo(&mut world.sim, w, 1_000, |s| s.phase(w) == Phase::Cs).unwrap();

        // The reader can never reach the CS while the writer holds it.
        assert_eq!(
            run_solo(&mut world.sim, r, 3_000, |s| s.phase(r) == Phase::Cs),
            None
        );
        // It is waiting in the Definition-4 sense, and W[0] counts it.
        assert_eq!(world.shared.peek_w(world.sim.mem(), 0), 1);
        assert_eq!(world.shared.peek_c(world.sim.mem(), 0), 1);
        // And it has already helped: WSIG[0] = <0, CS> (C == W == 1).
        assert_eq!(
            world.shared.peek_wsig(world.sim.mem(), 0),
            Signal::new(0, Opcode::Cs)
        );

        // Writer finishes; reader proceeds to the CS and W drains.
        run_solo(&mut world.sim, w, 1_000, |s| s.phase(w) == Phase::Remainder).unwrap();
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Cs).unwrap();
        assert_eq!(world.shared.peek_w(world.sim.mem(), 0), 0);
    }

    #[test]
    fn is_waiting_matches_states() {
        let cfg = AfConfig {
            readers: 1,
            writers: 1,
            policy: FPolicy::One,
        };
        let shared = {
            let mut layout = ccsim::Layout::new();
            crate::af::shared::AfShared::allocate(&mut layout, cfg)
        };
        let reader = AfReaderSim::new(std::sync::Arc::clone(&shared), 0);
        assert!(!reader.is_waiting(), "fresh reader is not waiting");
        let writer = AfWriterSim::new(shared, 0);
        assert!(!writer.is_waiting(), "fresh writer is not waiting");
    }

    #[test]
    fn exiting_reader_signals_preentry_writer() {
        // Reader in CS; writer starts its passage and must block at line
        // 14 (await PROCEED). The exiting reader then CASes
        // WSIG[0] <0,⊥> -> <0,PROCEED> at line 45.
        let cfg = AfConfig {
            readers: 1,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let (r, w) = (world.pids.reader(0), world.pids.writer(0));
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Cs).unwrap();
        assert_eq!(
            run_solo(&mut world.sim, w, 3_000, |s| s.phase(w) == Phase::Cs),
            None,
            "writer must wait for the in-CS reader"
        );
        assert_eq!(
            world.shared.peek_rsig(world.sim.mem()),
            Signal::new(0, Opcode::Preentry),
            "writer parks in its PREENTRY loop"
        );
        // Reader exits: C hits 0, so it signals PROCEED (line 45)...
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Remainder).unwrap();
        assert_eq!(
            world.shared.peek_wsig(world.sim.mem(), 0),
            Signal::new(0, Opcode::Proceed)
        );
        // ...and the writer sails into the CS.
        run_solo(&mut world.sim, w, 1_000, |s| s.phase(w) == Phase::Cs)
            .expect("writer proceeds after PROCEED signal");
    }

    #[test]
    fn reader_abort_from_waiting_retracts_counts_and_keeps_lock_live() {
        // Writer into the CS; reader parks in the waiting states; the
        // reader then aborts and must retract both its W and C
        // contributions, leaving the lock fully functional.
        let cfg = AfConfig {
            readers: 1,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let (r, w) = (world.pids.reader(0), world.pids.writer(0));
        run_solo(&mut world.sim, w, 1_000, |s| s.phase(w) == Phase::Cs).unwrap();
        assert_eq!(
            run_solo(&mut world.sim, r, 3_000, |s| s.phase(r) == Phase::Cs),
            None
        );
        assert_eq!(world.shared.peek_w(world.sim.mem(), 0), 1);

        assert!(
            world.sim.abort(r).is_some(),
            "a waiting reader is abortable"
        );
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Remainder).unwrap();
        assert_eq!(world.sim.stats(r).aborts, 1);
        assert_eq!(world.sim.stats(r).passages, 0, "an abort is not a passage");
        assert_eq!(world.shared.peek_w(world.sim.mem(), 0), 0, "W retracted");
        assert_eq!(world.shared.peek_c(world.sim.mem(), 0), 0, "C retracted");

        // Everyone still makes progress afterwards.
        run_solo(&mut world.sim, w, 1_000, |s| s.phase(w) == Phase::Remainder).unwrap();
        run_solo(&mut world.sim, r, 1_000, |s| s.stats(r).passages == 1).unwrap();
        run_solo(&mut world.sim, w, 1_000, |s| s.stats(w).passages == 2).unwrap();
    }

    #[test]
    fn reader_abort_is_refused_in_cs_and_exit() {
        let cfg = AfConfig {
            readers: 1,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let r = world.pids.reader(0);
        assert!(world.sim.abort(r).is_none(), "remainder is not abortable");
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Cs).unwrap();
        assert!(world.sim.abort(r).is_none(), "the CS is committed");
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Remainder).unwrap();
        assert_eq!(world.sim.stats(r).passages, 1);
        assert_eq!(world.sim.stats(r).aborts, 0);
    }

    #[test]
    fn crashed_reader_recovery_drains_counts_and_unblocks_writers() {
        // Reader crashes inside the CS with C[0] = 1 published. Its
        // recovery passage must drain the stale count; a writer can then
        // complete a full passage (no permanently lost lock).
        let cfg = AfConfig {
            readers: 2,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let (r, w) = (world.pids.reader(0), world.pids.writer(0));
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Cs).unwrap();
        assert_eq!(world.shared.peek_c(world.sim.mem(), 0), 1);
        world.sim.crash(r);
        assert!(world.sim.is_recovering(r));

        // The recovery passage drains C back to 0 in bounded steps.
        run_solo(&mut world.sim, r, 1_000, |s| s.stats(r).passages == 1).unwrap();
        assert!(!world.sim.is_recovering(r));
        assert_eq!(
            world.shared.peek_c(world.sim.mem(), 0),
            0,
            "stale C drained"
        );
        run_solo(&mut world.sim, w, 2_000, |s| s.stats(w).passages == 1)
            .expect("writer acquires after the crashed reader recovered");
    }

    #[test]
    fn crash_mid_exit_leaves_no_stale_leaf_after_recovery() {
        // Crash the reader partway through its exit-path SubC: the mirror
        // already reads 0 but the leaf write may not have landed. The
        // unconditional recovery drain must still zero the tree.
        let cfg = AfConfig {
            readers: 2,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let r = world.pids.reader(0);
        run_solo(&mut world.sim, r, 1_000, |s| s.phase(r) == Phase::Cs).unwrap();
        world.sim.step(r); // Cs -> SubC (machine created, mirror now 0)
        assert_eq!(world.sim.phase(r), Phase::Exit);
        world.sim.crash(r); // leaf still holds the stale 1
        assert_eq!(world.shared.peek_c(world.sim.mem(), 0), 1);
        run_solo(&mut world.sim, r, 1_000, |s| s.stats(r).passages == 1).unwrap();
        assert_eq!(world.shared.peek_c(world.sim.mem(), 0), 0, "leaf repaired");
    }

    #[test]
    fn writer_abort_releases_tournament_nodes() {
        // w0 holds WL (in CS); w1 parks in the tournament, aborts, and
        // must leave the tree clean: w0 re-acquires, then w1 completes a
        // full passage.
        let cfg = AfConfig {
            readers: 1,
            writers: 2,
            policy: FPolicy::One,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let (w0, w1) = (world.pids.writer(0), world.pids.writer(1));
        run_solo(&mut world.sim, w0, 1_000, |s| s.phase(w0) == Phase::Cs).unwrap();
        assert_eq!(
            run_solo(&mut world.sim, w1, 2_000, |s| s.phase(w1) == Phase::Cs),
            None
        );
        assert!(
            world.sim.abort(w1).is_some(),
            "a WL-competing writer is abortable"
        );
        run_solo(&mut world.sim, w1, 100, |s| s.phase(w1) == Phase::Remainder)
            .expect("withdrawal is bounded");
        assert_eq!(world.sim.stats(w1).aborts, 1);

        run_solo(&mut world.sim, w0, 2_000, |s| s.stats(w0).passages == 2).unwrap();
        run_solo(&mut world.sim, w1, 2_000, |s| s.stats(w1).passages == 1).unwrap();
        assert!(world.sim.abort(w0).is_none(), "remainder is not abortable");
    }

    #[test]
    fn seq_reuse_bug_constructor_skips_the_epoch_burn() {
        // The deliberately broken writer reuses the dead epoch: after a
        // crash-recovery round trip WSEQ must still read the old value
        // (a correct writer would have burned it to seq + 1).
        let cfg = AfConfig {
            readers: 1,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut layout = ccsim::Layout::new();
        let shared = crate::af::shared::AfShared::allocate(&mut layout, cfg);
        let mem = ccsim::Memory::new(&layout, 2, Protocol::WriteBack);
        let procs: Vec<Box<dyn Program>> = vec![
            Box::new(AfReaderSim::new(Arc::clone(&shared), 0)),
            Box::new(AfWriterSim::new_with_seq_reuse_bug(Arc::clone(&shared), 0)),
        ];
        let mut sim = ccsim::Sim::new(mem, procs);
        let w = ccsim::ProcId(1);
        run_solo(&mut sim, w, 1_000, |s| s.phase(w) == Phase::Cs).unwrap();
        sim.crash(w);
        run_solo(&mut sim, w, 1_000, |s| s.phase(w) == Phase::Cs).unwrap();
        assert_eq!(
            sim.mem().peek(shared.wseq),
            ccsim::Value::Int(0),
            "the broken recovery must reuse epoch 0"
        );
    }

    #[test]
    fn reader_ids_map_to_distinct_group_leaves() {
        let cfg = AfConfig {
            readers: 6,
            writers: 1,
            policy: FPolicy::Groups(3),
        };
        let mut layout = ccsim::Layout::new();
        let shared = crate::af::shared::AfShared::allocate(&mut layout, cfg);
        let mut seen = std::collections::HashSet::new();
        for id in 0..6 {
            let m = AfReaderSim::new(std::sync::Arc::clone(&shared), id);
            assert!(seen.insert((m.slot.group, m.slot.leaf)), "slot collision");
        }
    }
}
