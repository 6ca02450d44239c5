//! Dynamic instruction representation shared by the whole simulator.
//!
//! A trace-driven simulator carries no data values: an instruction is its
//! *class* (which decides functional unit and latency), its register
//! dependencies, and — for memory and control instructions — an effective
//! address or branch outcome. This mirrors what SMTsim extracts from Alpha
//! traces.

/// Number of architectural (logical) registers the synthetic ISA exposes.
///
/// The Alpha has 32 integer + 32 floating-point registers; we model a flat
/// file of 64 logical registers, which is what matters for renaming
/// pressure against the shared pool of 320 physical registers (Fig. 1).
pub const NUM_LOG_REGS: u8 = 64;

/// A logical (architectural) register identifier, `0..NUM_LOG_REGS`.
pub type LogReg = u8;

/// Functional class of an instruction.
///
/// The class determines which issue queue the instruction occupies
/// (int / fp / load-store, 64 entries each per Fig. 1), which execution
/// unit it needs (4 int, 3 fp, 2 ld/st) and its execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Multi-cycle integer multiply.
    IntMul,
    /// Floating-point add/sub/compare.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Long-latency floating-point divide / sqrt.
    FpDiv,
    /// Memory load — the protagonist of this paper.
    Load,
    /// Memory store (retires from the store queue at commit).
    Store,
    /// Conditional branch.
    BranchCond,
    /// Unconditional branch / jump / call / return.
    BranchUncond,
    /// No-op (pipeline filler, also used for wrong-path junk).
    Nop,
}

impl InstrClass {
    /// Execution latency in cycles once issued to a functional unit.
    ///
    /// Loads report their *cache-hit pipeline* latency here; the memory
    /// hierarchy adds the real access time.
    #[inline]
    pub fn exec_latency(self) -> u32 {
        match self {
            InstrClass::IntAlu | InstrClass::Nop => 1,
            InstrClass::IntMul => 3,
            InstrClass::FpAlu => 2,
            InstrClass::FpMul => 4,
            InstrClass::FpDiv => 12,
            InstrClass::Load | InstrClass::Store => 1,
            InstrClass::BranchCond | InstrClass::BranchUncond => 1,
        }
    }

    /// True for instructions dispatched to the integer queue.
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(
            self,
            InstrClass::IntAlu
                | InstrClass::IntMul
                | InstrClass::BranchCond
                | InstrClass::BranchUncond
                | InstrClass::Nop
        )
    }

    /// True for instructions dispatched to the floating-point queue.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            InstrClass::FpAlu | InstrClass::FpMul | InstrClass::FpDiv
        )
    }

    /// True for instructions dispatched to the load/store queue.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, InstrClass::Load | InstrClass::Store)
    }

    /// True for control-flow instructions.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, InstrClass::BranchCond | InstrClass::BranchUncond)
    }
}

/// Sub-kind of an unconditional branch. Calls and returns drive the
/// per-thread Return Address Stack (Fig. 1: 100 entries, replicated);
/// plain jumps rely on the BTB alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UncondKind {
    /// Direct jump (also the value carried by non-branch instructions).
    #[default]
    Jump,
    /// Call: pushes the return address onto the RAS.
    Call,
    /// Return: target predicted by popping the RAS.
    Ret,
}

/// One dynamic instruction as produced by the trace front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInstr {
    /// Per-thread dynamic sequence number (0, 1, 2, …). Monotonic along
    /// the *correct* path; wrong-path instructions are tagged separately
    /// by the pipeline and never commit.
    pub seq: u64,
    /// Program counter (byte address, 4-byte aligned).
    pub pc: u64,
    /// Functional class.
    pub class: InstrClass,
    /// Source logical registers (`None` = unused slot).
    pub srcs: [Option<LogReg>; 2],
    /// Destination logical register, if any.
    pub dst: Option<LogReg>,
    /// Effective address for loads/stores (8-byte aligned), else 0.
    pub mem_addr: u64,
    /// Branch outcome for `BranchCond` / always true for `BranchUncond`.
    pub taken: bool,
    /// Branch target (valid when `class.is_branch()`), else `pc + 4`.
    pub target: u64,
    /// Call/return flavour of a `BranchUncond` (`Jump` otherwise).
    pub uncond_kind: UncondKind,
}

impl DynInstr {
    /// A canonical no-op, used for wrong-path filler and tests.
    pub fn nop(seq: u64, pc: u64) -> Self {
        DynInstr {
            seq,
            pc,
            class: InstrClass::Nop,
            srcs: [None, None],
            dst: None,
            mem_addr: 0,
            taken: false,
            target: pc.wrapping_add(4),
            uncond_kind: UncondKind::Jump,
        }
    }

    /// Address of the next sequential instruction.
    #[inline]
    pub fn fallthrough(&self) -> u64 {
        self.pc.wrapping_add(4)
    }

    /// Address the front-end should fetch after this instruction on the
    /// correct path.
    #[inline]
    pub fn next_pc(&self) -> u64 {
        if self.class.is_branch() && self.taken {
            self.target
        } else {
            self.fallthrough()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_queues_are_disjoint_and_total() {
        let all = [
            InstrClass::IntAlu,
            InstrClass::IntMul,
            InstrClass::FpAlu,
            InstrClass::FpMul,
            InstrClass::FpDiv,
            InstrClass::Load,
            InstrClass::Store,
            InstrClass::BranchCond,
            InstrClass::BranchUncond,
            InstrClass::Nop,
        ];
        for c in all {
            let count = [c.is_int(), c.is_fp(), c.is_mem()]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(count, 1, "{c:?} must map to exactly one issue queue");
        }
    }

    #[test]
    fn latencies_are_positive_and_fpdiv_is_longest() {
        let all = [
            InstrClass::IntAlu,
            InstrClass::IntMul,
            InstrClass::FpAlu,
            InstrClass::FpMul,
            InstrClass::FpDiv,
            InstrClass::Load,
            InstrClass::Store,
            InstrClass::BranchCond,
            InstrClass::BranchUncond,
            InstrClass::Nop,
        ];
        for c in all {
            assert!(c.exec_latency() >= 1);
            assert!(c.exec_latency() <= InstrClass::FpDiv.exec_latency());
        }
    }

    #[test]
    fn next_pc_follows_taken_branches() {
        let mut i = DynInstr::nop(0, 0x1000);
        assert_eq!(i.next_pc(), 0x1004);
        i.class = InstrClass::BranchCond;
        i.taken = false;
        i.target = 0x2000;
        assert_eq!(i.next_pc(), 0x1004);
        i.taken = true;
        assert_eq!(i.next_pc(), 0x2000);
    }

    #[test]
    fn branch_classes_flagged() {
        assert!(InstrClass::BranchCond.is_branch());
        assert!(InstrClass::BranchUncond.is_branch());
        assert!(!InstrClass::Load.is_branch());
    }
}
