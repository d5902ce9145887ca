//! Shared-memory layout of a simulated `A_f` lock instance.

use crate::af::counters::{CounterKind, GroupCounter};
use crate::config::AfConfig;
use crate::sig::{Opcode, Signal};
use ccsim::{Layout, Memory, Value, VarId};
use std::sync::Arc;
use wmutex::SimTournament;

/// The order in which `HelpWCS` reads the two group counters.
///
/// The paper's line 51 reads `C[i]` then `W[i]` ([`HelpOrder::PaperLiteral`]).
/// The model checker found a mutual-exclusion counterexample for that
/// ordering (see DESIGN.md, "Reproduction findings"); the default
/// [`HelpOrder::WaitersFirst`] reads `W[i]` first, which is sound because
/// `W` is non-decreasing while `WSIG[i] = <seq, WAIT>` and `C ≥ W` always.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum HelpOrder {
    /// Read `W[i]`, then `C[i]` (safe; the default).
    #[default]
    WaitersFirst,
    /// Read `C[i]`, then `W[i]` (the extended abstract's literal line 51;
    /// admits a mutual-exclusion violation — kept for the regression test
    /// that reproduces it).
    PaperLiteral,
}

/// The shared variables of one simulated `A_f` lock (Algorithm 1, lines
/// 1–4): group counters `C[i]`/`W[i]`, the writer mutex `WL`, the passage
/// sequence `WSEQ`, and the signal words `WSIG[i]`/`RSIG`.
///
/// Shared via `Arc` by every reader/writer machine of the instance.
#[derive(Debug)]
pub struct AfShared {
    /// The lock configuration.
    pub cfg: AfConfig,
    /// Number of non-empty reader groups.
    pub groups: usize,
    /// `C[i]`: in-passage counts, one `K_i`-process counter per group.
    pub c: Vec<GroupCounter>,
    /// `W[i]`: waiting counts.
    pub w: Vec<GroupCounter>,
    /// `WL`: the m-writer tournament mutex.
    pub wl: SimTournament,
    /// `WSEQ`: writer-passage sequence number, init 0.
    pub wseq: VarId,
    /// `WSIG[i]`: group→writer signals, init `<0, ⊥>`.
    pub wsig: Vec<VarId>,
    /// `RSIG`: writer→readers signal, init `<0, NOP>`.
    pub rsig: VarId,
    /// Counter read order inside `HelpWCS`.
    pub help_order: HelpOrder,
}

impl AfShared {
    /// Allocate all shared variables for `cfg` from `layout`.
    ///
    /// # Panics
    /// Panics if the configuration has zero readers or writers.
    pub fn allocate(layout: &mut Layout, cfg: AfConfig) -> Arc<Self> {
        Self::allocate_custom(layout, cfg, HelpOrder::WaitersFirst, CounterKind::FArray)
    }

    /// Fully parameterised allocation: `HelpWCS` read order *and* the
    /// group-counter implementation (the E13 ablation replaces the
    /// f-array with a CAS retry loop).
    ///
    /// # Panics
    /// Panics if the configuration has zero readers or writers.
    pub fn allocate_custom(
        layout: &mut Layout,
        cfg: AfConfig,
        help_order: HelpOrder,
        counters: CounterKind,
    ) -> Arc<Self> {
        cfg.validate();
        let groups = cfg.occupied_groups();
        let c = (0..groups)
            .map(|g| {
                GroupCounter::allocate(
                    layout,
                    &format!("C[{g}]"),
                    cfg.group_population(g),
                    counters,
                )
            })
            .collect();
        let w = (0..groups)
            .map(|g| {
                GroupCounter::allocate(
                    layout,
                    &format!("W[{g}]"),
                    cfg.group_population(g),
                    counters,
                )
            })
            .collect();
        let wl = SimTournament::allocate(layout, "WL", cfg.writers);
        let wseq = layout.var("WSEQ", Value::Int(0));
        let wsig = (0..groups)
            .map(|g| {
                let init = Signal::new(0, Opcode::Bot).to_pair();
                layout.var(format!("WSIG[{g}]"), Value::Pair(init.0, init.1))
            })
            .collect();
        let rsig = {
            let init = Signal::new(0, Opcode::Nop).to_pair();
            layout.var("RSIG", Value::Pair(init.0, init.1))
        };
        Arc::new(AfShared {
            cfg,
            groups,
            c,
            w,
            wl,
            wseq,
            wsig,
            rsig,
            help_order,
        })
    }

    /// The signal currently stored in `RSIG` (harness inspection only).
    pub fn peek_rsig(&self, mem: &Memory) -> Signal {
        Signal::from_pair(mem.peek(self.rsig).expect_pair())
    }

    /// The signal currently stored in `WSIG[i]` (harness inspection only).
    pub fn peek_wsig(&self, mem: &Memory, i: usize) -> Signal {
        Signal::from_pair(mem.peek(self.wsig[i]).expect_pair())
    }

    /// Current value of group i's in-passage counter (harness inspection).
    pub fn peek_c(&self, mem: &Memory, i: usize) -> i64 {
        self.c[i].peek(mem)
    }

    /// Current value of group i's waiting counter (harness inspection).
    pub fn peek_w(&self, mem: &Memory, i: usize) -> i64 {
        self.w[i].peek(mem)
    }

    /// Helper: a signal as a simulator value.
    pub fn sig_value(seq: i64, op: Opcode) -> Value {
        Value::Pair(seq, op.as_i64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::Protocol;

    #[test]
    fn allocation_shapes_follow_config() {
        let mut layout = Layout::new();
        let cfg = AfConfig {
            readers: 10,
            writers: 3,
            policy: crate::FPolicy::SqrtN,
        };
        let shared = AfShared::allocate(&mut layout, cfg);
        // sqrt(10) -> 4 groups of K=3: ceil(10/4)=3 -> occupied = ceil(10/3) = 4.
        assert_eq!(shared.groups, 4);
        assert_eq!(shared.c.len(), 4);
        assert_eq!(shared.w.len(), 4);
        assert_eq!(shared.wsig.len(), 4);
        assert_eq!(shared.c[0].processes(), 3);
        assert_eq!(shared.c[3].processes(), 1, "last group holds the remainder");
    }

    #[test]
    fn initial_signal_values() {
        let mut layout = Layout::new();
        let cfg = AfConfig::new(4, 1);
        let shared = AfShared::allocate(&mut layout, cfg);
        let mem = Memory::new(&layout, 5, Protocol::WriteBack);
        assert_eq!(shared.peek_rsig(&mem), Signal::new(0, Opcode::Nop));
        for i in 0..shared.groups {
            assert_eq!(shared.peek_wsig(&mem, i), Signal::new(0, Opcode::Bot));
            assert_eq!(shared.peek_c(&mem, i), 0);
            assert_eq!(shared.peek_w(&mem, i), 0);
        }
        assert_eq!(mem.peek(shared.wseq), Value::Int(0));
    }
}
