//! Operations, their encoding formats and execution-resource classes.

use core::fmt;

/// Every operation in the ISA.
///
/// The discriminant doubles as the 8-bit opcode field of the encoding, so the
/// numbering is stable; new operations must be appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Op {
    // ---- integer register-register (format R: rc <- ra op rb) ----
    /// `rc = ra + rb` (wrapping).
    Add = 0,
    /// `rc = ra - rb` (wrapping).
    Sub,
    /// `rc = ra * rb` (wrapping, low 64 bits).
    Mul,
    /// `rc = ra / rb` as unsigned; division by zero yields 0.
    Divu,
    /// `rc = ra & rb`.
    And,
    /// `rc = ra | rb`.
    Or,
    /// `rc = ra ^ rb`.
    Xor,
    /// `rc = ra << (rb & 63)`.
    Sll,
    /// `rc = ra >> (rb & 63)` (logical).
    Srl,
    /// `rc = ra >> (rb & 63)` (arithmetic).
    Sra,
    /// `rc = (ra == rb) as u64`.
    Cmpeq,
    /// `rc = (ra < rb) as u64`, signed comparison.
    Cmplt,
    /// `rc = (ra <= rb) as u64`, signed comparison.
    Cmple,
    /// `rc = (ra < rb) as u64`, unsigned comparison.
    Cmpult,

    // ---- integer register-immediate (format I: rb <- ra op imm14) ----
    /// `rb = ra + sext(imm)` (wrapping).
    Addi,
    /// `rb = ra & zext(imm)`.
    Andi,
    /// `rb = ra | zext(imm)`.
    Ori,
    /// `rb = ra ^ zext(imm)`.
    Xori,
    /// `rb = ra << (imm & 63)`.
    Slli,
    /// `rb = ra >> (imm & 63)` (logical).
    Srli,
    /// `rb = ra >> (imm & 63)` (arithmetic).
    Srai,
    /// `rb = (ra == sext(imm)) as u64`.
    Cmpeqi,
    /// `rb = (ra < sext(imm)) as u64`, signed.
    Cmplti,
    /// `rb = sext(imm)` — load a small constant.
    Ldi,
    /// `rb = (ra << 14) | zext(imm)` — constant-materialization step.
    Shlori,

    // ---- floating point (format R on f registers) ----
    /// `fc = fa + fb`.
    Fadd,
    /// `fc = fa - fb`.
    Fsub,
    /// `fc = fa * fb`.
    Fmul,
    /// `fc = fa / fb`.
    Fdiv,
    /// `fc = sqrt(fa)`; `fb` is unused.
    Fsqrt,
    /// `rc = (fa == fb) as u64` — writes an *integer* register.
    Fcmpeq,
    /// `rc = (fa < fb) as u64` — writes an *integer* register.
    Fcmplt,
    /// `fc = ra as i64 as f64` — integer to float; reads an integer register.
    Itof,
    /// `rc = fa as i64 as u64` — float to integer (truncating).
    Ftoi,

    // ---- memory (format M: base ra, data/dest rb, offset imm14) ----
    /// `rb = mem64[ra + sext(imm)]`.
    Ldq,
    /// `mem64[ra + sext(imm)] = rb`.
    Stq,
    /// `fb = mem64[ra + sext(imm)]` (floating-point load).
    Fldq,
    /// `mem64[ra + sext(imm)] = fb` (floating-point store).
    Fstq,

    // ---- control (format B: test ra, signed disp19 in instructions) ----
    /// Branch if `ra == 0`.
    Beq,
    /// Branch if `ra != 0`.
    Bne,
    /// Branch if `ra < 0` (signed).
    Blt,
    /// Branch if `ra >= 0` (signed).
    Bge,
    /// Branch if `ra > 0` (signed).
    Bgt,
    /// Branch if `ra <= 0` (signed).
    Ble,
    /// Unconditional direct branch.
    Br,
    /// Direct call: `ra = return address; pc += disp`.
    Jal,
    /// Indirect jump: `pc = rb`.
    Jr,
    /// Indirect call: `ra = return address; pc = rb`.
    Jalr,
    /// Return: `pc = ra` (predicted by the return-address stack).
    Ret,

    // ---- privileged (PAL mode only) ----
    /// `rc = priv_reg[imm]` — move from privileged register.
    Mfpr,
    /// `priv_reg[imm] = rb` — move to privileged register.
    Mtpr,
    /// Write a DTLB entry: virtual address in `ra`, PTE in `rb`.
    Tlbwr,
    /// Return from exception: `pc = pr_exc_pc`, leave PAL mode.
    Rfe,
    /// Escalate to the traditional (trapping) exception mechanism
    /// (paper §4.3, the "hard exception" instruction).
    Hardexc,

    // ---- misc ----
    /// No operation.
    Nop,
    /// Stop the thread.
    Halt,

    // ---- generalized exception mechanism (paper §6) ----
    /// Write `rb` to the *excepting instruction's* destination register and
    /// make its consumers ready — the register-communication primitive that
    /// lets handler threads service emulated-instruction exceptions.
    Mtdst,
}

/// Highest valid opcode value (for decode validation and fuzzing).
pub(crate) const MAX_OPCODE: u8 = Op::Mtdst as u8;

/// The field layout used to pack an [`Op`]'s operands into 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpFormat {
    /// `ra`, `rb`, `rc` register fields; no immediate.
    R,
    /// `ra`, `rb` register fields plus a signed 14-bit immediate.
    I,
    /// `ra` register field plus a signed 19-bit branch displacement.
    B,
    /// No operands at all (`NOP`, `HALT`, `RFE`, `HARDEXC`).
    N,
}

/// Which functional-unit pool executes an operation, with its latency
/// (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// 8 units, 1-cycle latency.
    IntAlu,
    /// 3 units, 3-cycle latency.
    IntMul,
    /// shares the IntMul pool, 12-cycle latency.
    IntDiv,
    /// 3 units, 2-cycle latency (FP add/sub/compare/convert).
    FpAdd,
    /// shares the FpAdd pool, 4-cycle latency.
    FpMul,
    /// 1 unit, 12-cycle latency.
    FpDiv,
    /// shares the FpDiv unit, 26-cycle latency.
    FpSqrt,
    /// 3 load/store ports, 3-cycle load latency.
    Load,
    /// 3 load/store ports, 2-cycle store latency.
    Store,
}

impl FuClass {
    /// The execution latency in cycles (paper Table 1). For loads this is the
    /// L1-hit load-use latency; cache misses add hierarchy delay on top.
    #[must_use]
    pub fn latency(self) -> u64 {
        match self {
            FuClass::IntAlu => 1,
            FuClass::IntMul => 3,
            FuClass::IntDiv => 12,
            FuClass::FpAdd => 2,
            FuClass::FpMul => 4,
            FuClass::FpDiv => 12,
            FuClass::FpSqrt => 26,
            FuClass::Load => 3,
            FuClass::Store => 2,
        }
    }
}

/// Control-transfer classification, used by the front end to pick a
/// predictor (paper Table 1: YAGS for directions, cascaded indirect
/// predictor, checkpointed return-address stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch — direction predicted by YAGS.
    Conditional,
    /// Unconditional direct branch or call — target known at fetch.
    Direct,
    /// Indirect jump or call — target predicted by the cascaded predictor.
    Indirect,
    /// Return — target predicted by the return-address stack.
    Return,
}

/// Every [`Op`] indexed by its opcode. A `static`, not an associated
/// `const`: a `const` array is materialized afresh at each use, which put a
/// 57-entry copy on every instruction decode.
static OPCODE_TABLE: [Op; MAX_OPCODE as usize + 1] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Divu,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Sll,
    Op::Srl,
    Op::Sra,
    Op::Cmpeq,
    Op::Cmplt,
    Op::Cmple,
    Op::Cmpult,
    Op::Addi,
    Op::Andi,
    Op::Ori,
    Op::Xori,
    Op::Slli,
    Op::Srli,
    Op::Srai,
    Op::Cmpeqi,
    Op::Cmplti,
    Op::Ldi,
    Op::Shlori,
    Op::Fadd,
    Op::Fsub,
    Op::Fmul,
    Op::Fdiv,
    Op::Fsqrt,
    Op::Fcmpeq,
    Op::Fcmplt,
    Op::Itof,
    Op::Ftoi,
    Op::Ldq,
    Op::Stq,
    Op::Fldq,
    Op::Fstq,
    Op::Beq,
    Op::Bne,
    Op::Blt,
    Op::Bge,
    Op::Bgt,
    Op::Ble,
    Op::Br,
    Op::Jal,
    Op::Jr,
    Op::Jalr,
    Op::Ret,
    Op::Mfpr,
    Op::Mtpr,
    Op::Tlbwr,
    Op::Rfe,
    Op::Hardexc,
    Op::Nop,
    Op::Halt,
    Op::Mtdst,
];

impl Op {
    /// Decodes an opcode byte back into an [`Op`].
    #[must_use]
    pub fn from_opcode(code: u8) -> Option<Op> {
        if code > MAX_OPCODE {
            return None;
        }
        // Op is a dense #[repr(u8)] enum starting at 0, so a table lookup
        // replaces an unsafe transmute.
        Some(OPCODE_TABLE[code as usize])
    }

    /// The opcode byte used in the 32-bit encoding.
    #[must_use]
    pub fn opcode(self) -> u8 {
        self as u8
    }

    /// The operand-field layout of this operation.
    #[must_use]
    pub fn format(self) -> OpFormat {
        use Op::*;
        match self {
            Add | Sub | Mul | Divu | And | Or | Xor | Sll | Srl | Sra | Cmpeq | Cmplt | Cmple
            | Cmpult | Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fcmpeq | Fcmplt | Itof | Ftoi | Jr
            | Jalr | Ret | Tlbwr => OpFormat::R,
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Cmpeqi | Cmplti | Ldi | Shlori
            | Ldq | Stq | Fldq | Fstq | Mfpr | Mtpr | Mtdst => OpFormat::I,
            Beq | Bne | Blt | Bge | Bgt | Ble | Br | Jal => OpFormat::B,
            Rfe | Hardexc | Nop | Halt => OpFormat::N,
        }
    }

    /// The functional-unit class that executes this operation, or `None` for
    /// operations that consume no execution resources (`NOP` retires without
    /// executing; `HALT` only stops fetch).
    #[must_use]
    pub fn fu_class(self) -> Option<FuClass> {
        use Op::*;
        Some(match self {
            Mul => FuClass::IntMul,
            Divu => FuClass::IntDiv,
            Fadd | Fsub | Fcmpeq | Fcmplt | Itof | Ftoi => FuClass::FpAdd,
            Fmul => FuClass::FpMul,
            Fdiv => FuClass::FpDiv,
            Fsqrt => FuClass::FpSqrt,
            Ldq | Fldq => FuClass::Load,
            Stq | Fstq => FuClass::Store,
            Nop | Halt => return None,
            _ => FuClass::IntAlu,
        })
    }

    /// Control-transfer classification, or `None` for non-branches.
    ///
    /// `RFE` is deliberately *not* classified: the paper's simulator has no
    /// RAS-like mechanism for exception returns, so the front end must stall
    /// at an `RFE` until it executes (paper §3).
    #[must_use]
    pub fn branch_kind(self) -> Option<BranchKind> {
        use Op::*;
        match self {
            Beq | Bne | Blt | Bge | Bgt | Ble => Some(BranchKind::Conditional),
            Br | Jal => Some(BranchKind::Direct),
            Jr | Jalr => Some(BranchKind::Indirect),
            Ret => Some(BranchKind::Return),
            _ => None,
        }
    }

    /// Returns `true` for loads (integer or floating point).
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Op::Ldq | Op::Fldq)
    }

    /// Returns `true` for stores (integer or floating point).
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Op::Stq | Op::Fstq)
    }

    /// Returns `true` for memory operations.
    #[must_use]
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Returns `true` for operations that are only legal in PAL (privileged)
    /// mode.
    #[must_use]
    pub fn is_privileged(self) -> bool {
        matches!(
            self,
            Op::Mfpr | Op::Mtpr | Op::Tlbwr | Op::Rfe | Op::Hardexc | Op::Mtdst
        )
    }

    /// Returns `true` if the operation establishes a call (pushes the RAS).
    #[must_use]
    pub fn is_call(self) -> bool {
        matches!(self, Op::Jal | Op::Jalr)
    }

    /// The lower-case mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Divu => "divu",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Cmpeq => "cmpeq",
            Cmplt => "cmplt",
            Cmple => "cmple",
            Cmpult => "cmpult",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Cmpeqi => "cmpeqi",
            Cmplti => "cmplti",
            Ldi => "ldi",
            Shlori => "shlori",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fsqrt => "fsqrt",
            Fcmpeq => "fcmpeq",
            Fcmplt => "fcmplt",
            Itof => "itof",
            Ftoi => "ftoi",
            Ldq => "ldq",
            Stq => "stq",
            Fldq => "fldq",
            Fstq => "fstq",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bgt => "bgt",
            Ble => "ble",
            Br => "br",
            Jal => "jal",
            Jr => "jr",
            Jalr => "jalr",
            Ret => "ret",
            Mfpr => "mfpr",
            Mtpr => "mtpr",
            Tlbwr => "tlbwr",
            Rfe => "rfe",
            Hardexc => "hardexc",
            Nop => "nop",
            Halt => "halt",
            Mtdst => "mtdst",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_round_trips_for_every_op() {
        for code in 0..=MAX_OPCODE {
            let op = Op::from_opcode(code).expect("dense opcode space");
            assert_eq!(op.opcode(), code, "{op:?} must map back to {code}");
        }
        assert_eq!(Op::from_opcode(MAX_OPCODE + 1), None);
        assert_eq!(Op::from_opcode(255), None);
    }

    #[test]
    fn latencies_match_paper_table_1() {
        assert_eq!(FuClass::IntAlu.latency(), 1);
        assert_eq!(FuClass::IntMul.latency(), 3);
        assert_eq!(FuClass::IntDiv.latency(), 12);
        assert_eq!(FuClass::FpAdd.latency(), 2);
        assert_eq!(FuClass::FpMul.latency(), 4);
        assert_eq!(FuClass::FpDiv.latency(), 12);
        assert_eq!(FuClass::FpSqrt.latency(), 26);
        assert_eq!(FuClass::Load.latency(), 3);
        assert_eq!(FuClass::Store.latency(), 2);
    }

    #[test]
    fn branch_classification() {
        assert_eq!(Op::Beq.branch_kind(), Some(BranchKind::Conditional));
        assert_eq!(Op::Br.branch_kind(), Some(BranchKind::Direct));
        assert_eq!(Op::Jal.branch_kind(), Some(BranchKind::Direct));
        assert_eq!(Op::Jr.branch_kind(), Some(BranchKind::Indirect));
        assert_eq!(Op::Jalr.branch_kind(), Some(BranchKind::Indirect));
        assert_eq!(Op::Ret.branch_kind(), Some(BranchKind::Return));
        assert_eq!(Op::Rfe.branch_kind(), None, "RFE must stall fetch instead");
        assert_eq!(Op::Add.branch_kind(), None);
    }

    #[test]
    fn privileged_ops_are_exactly_the_pal_set() {
        let privileged: Vec<Op> = (0..=MAX_OPCODE)
            .filter_map(Op::from_opcode)
            .filter(|op| op.is_privileged())
            .collect();
        assert_eq!(
            privileged,
            vec![Op::Mfpr, Op::Mtpr, Op::Tlbwr, Op::Rfe, Op::Hardexc, Op::Mtdst]
        );
    }

    #[test]
    fn mem_classification() {
        assert!(Op::Ldq.is_load() && !Op::Ldq.is_store());
        assert!(Op::Fstq.is_store() && !Op::Fstq.is_load());
        assert!(Op::Stq.is_mem() && Op::Fldq.is_mem());
        assert!(!Op::Add.is_mem());
    }
}
