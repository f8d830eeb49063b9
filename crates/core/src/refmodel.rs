//! The functional reference interpreter.
//!
//! Executes user-mode programs in architectural order with no timing. It is
//! the correctness oracle for the pipeline: a TLB-miss handler only reads
//! the page table and writes the (architecturally invisible) TLB, so the
//! committed state of any pipeline run — under *any* exception mechanism —
//! must equal the interpreter's final state.
//!
//! The interpreter still models a 64-entry architectural DTLB purely to
//! *count* misses: that count is the workload-intrinsic "TLB misses" column
//! of paper Table 2 and the denominator of every penalty-per-miss metric.
//!
//! The interpreter is also the tier-1 fast-forward engine, so its per
//! instruction cost matters. Three caches keep it cheap, each exact:
//!
//! * a per-physical-frame table of decoded instructions, reused only while
//!   the fetched word still equals the word it was decoded from — no
//!   invalidation protocol, so a code word rewritten behind the
//!   interpreter's back (the `--check` oracle shares the machine's memory)
//!   executes its new instruction;
//! * the fetch page's translation, keyed by ASID and VPN;
//! * data physical addresses taken from the frame the counting DTLB holds.
//!
//! The last two rely on page tables being written only by
//! [`AddressSpace::map`]/[`AddressSpace::unmap`] while a workload is loaded,
//! never while it runs (no user virtual address maps a page-table frame).

use std::fmt;

use smtx_isa::{Inst, Op};
use smtx_mem::{AddressSpace, Asid, Paddr, PhysMem, VmError, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};

use crate::exec;

/// Why the interpreter stopped or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// An instruction fetch or data access touched an unmapped address.
    Vm {
        /// Program counter of the faulting instruction.
        pc: u64,
        /// The underlying translation failure.
        source: VmError,
    },
    /// The PC pointed at a word that does not decode.
    BadInstruction {
        /// Program counter of the malformed word.
        pc: u64,
    },
    /// A user-mode program used a privileged operation.
    PrivilegeViolation {
        /// Program counter of the privileged instruction.
        pc: u64,
        /// The offending operation.
        op: Op,
    },
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefError::Vm { pc, source } => write!(f, "memory fault at pc {pc:#x}: {source}"),
            RefError::BadInstruction { pc } => write!(f, "undecodable instruction at pc {pc:#x}"),
            RefError::PrivilegeViolation { pc, op } => {
                write!(f, "privileged op `{op}` in user mode at pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for RefError {}

/// Result of a [`Interpreter::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Instructions retired during this call.
    pub retired: u64,
    /// Whether the program executed `HALT`.
    pub halted: bool,
}

/// Entries in the architectural miss-counting DTLB (paper Table 1).
const DTLB_ENTRIES: usize = 64;

/// Instruction words per page.
const SLOTS_PER_PAGE: usize = (PAGE_SIZE / 4) as usize;

/// One cached translation: `(asid, vpn)` maps to the frame at `frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Translation {
    asid: Asid,
    vpn: u64,
    frame: Paddr,
}

/// The miss-counting DTLB: fully associative and exactly LRU, its entries
/// kept in recency order (most recent first). A hit moves the entry to the
/// front and a fill evicts the last one, so it misses exactly where
/// `smtx_mem::Tlb` of the same capacity would, without that TLB's
/// timestamp scans and speculative-fill bookkeeping.
#[derive(Debug, Clone)]
struct CountingDtlb {
    entries: Vec<Translation>,
}

impl CountingDtlb {
    fn new() -> CountingDtlb {
        CountingDtlb { entries: Vec::with_capacity(DTLB_ENTRIES) }
    }

    #[inline]
    fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<Paddr> {
        let i = self.entries.iter().position(|e| e.vpn == vpn && e.asid == asid)?;
        if i > 0 {
            self.entries[..=i].rotate_right(1);
        }
        Some(self.entries[0].frame)
    }

    /// Fills a translation that just missed, evicting the LRU entry if full.
    fn insert(&mut self, asid: Asid, vpn: u64, frame: Paddr) {
        if self.entries.len() == DTLB_ENTRIES {
            self.entries.pop();
        }
        self.entries.insert(0, Translation { asid, vpn, frame });
    }

    fn flush(&mut self) {
        self.entries.clear();
    }
}

/// One code frame's decodings: slot `i` holds the word last fetched from
/// byte `4 * i` of the frame and its decoding.
type FrameSlots = Box<[(u32, Inst); SLOTS_PER_PAGE]>;

/// Decoded instructions by physical address, for every code frame fetched
/// from, with `inst == Inst::decode(word)` in every `(word, inst)` slot.
/// Fresh slots hold word 0 and its decoding, so every slot is a valid pair
/// and a hit is one compare.
#[derive(Clone, Default)]
struct DecodeCache {
    frames: Vec<Option<FrameSlots>>,
}

impl DecodeCache {
    /// Decodes the `word` fetched from `pa`, reusing the slot's decoding
    /// when the slot last saw the same word. Undecodable words are never
    /// cached, so they fail on every fetch.
    #[inline]
    fn decode(&mut self, pa: Paddr, word: u32) -> Option<Inst> {
        let frame = (pa >> PAGE_SHIFT) as usize;
        if frame >= self.frames.len() {
            self.frames.resize(frame + 1, None);
        }
        let slots = self.frames[frame].get_or_insert_with(|| {
            let zero = (0, Inst::decode(0).expect("word 0 decodes"));
            vec![zero; SLOTS_PER_PAGE].into_boxed_slice().try_into().expect("one page of slots")
        });
        let slot = &mut slots[((pa & PAGE_MASK) >> 2) as usize];
        if slot.0 != word {
            *slot = (word, Inst::decode(word).ok()?);
        }
        Some(slot.1)
    }
}

impl fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frames = self.frames.iter().filter(|s| s.is_some()).count();
        f.debug_struct("DecodeCache").field("frames", &frames).finish()
    }
}

/// The architectural interpreter for one thread.
///
/// ```
/// use smtx_core::Interpreter;
/// use smtx_isa::{ProgramBuilder, Reg};
/// use smtx_mem::{AddressSpace, PhysAlloc, PhysMem, PAGE_SIZE};
///
/// let mut pm = PhysMem::new();
/// let mut alloc = PhysAlloc::new();
/// let mut space = AddressSpace::new(1, &mut pm, &mut alloc);
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg(1), 6);
/// b.li(Reg(2), 7);
/// b.mul(Reg(3), Reg(1), Reg(2));
/// b.halt();
/// let program = b.build()?;
///
/// // Map and load the code.
/// space.map_region(&mut pm, &mut alloc, program.base(), 1);
/// for (va, _) in program.iter() {
///     let idx = ((va - program.base()) / 4) as usize;
///     space.write_u32(&mut pm, va, program.words()[idx])?;
/// }
///
/// let mut interp = Interpreter::new(program.base());
/// let summary = interp.run(&mut pm, &mut space, 100)?;
/// assert!(summary.halted);
/// assert_eq!(interp.int_regs()[3], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    int: [u64; 32],
    fp: [u64; 32],
    pc: u64,
    halted: bool,
    retired: u64,
    dtlb: CountingDtlb,
    dtlb_misses: u64,
    fetch_page: Option<Translation>,
    decoded: DecodeCache,
}

impl Interpreter {
    /// Creates an interpreter starting at `entry` with zeroed registers and
    /// a 64-entry architectural DTLB (for miss counting only).
    #[must_use]
    pub fn new(entry: u64) -> Interpreter {
        Interpreter::from_state(entry, [0; 32], [0; 32])
    }

    /// Creates an interpreter resuming from a captured architectural state:
    /// `pc` plus committed integer and floating-point register files. The
    /// DTLB starts cold and `retired` starts at zero, so miss and retirement
    /// counts cover only the resumed region — exactly what the two-tier
    /// engine needs to count misses inside a post-fast-forward measurement
    /// window.
    #[must_use]
    pub fn from_state(pc: u64, int: [u64; 32], fp: [u64; 32]) -> Interpreter {
        Interpreter {
            int,
            fp,
            pc,
            halted: false,
            retired: 0,
            dtlb: CountingDtlb::new(),
            dtlb_misses: 0,
            fetch_page: None,
            decoded: DecodeCache::default(),
        }
    }

    /// The committed integer register file (`r31` always reads 0).
    #[must_use]
    pub fn int_regs(&self) -> &[u64; 32] {
        &self.int
    }

    /// The committed floating-point register file.
    #[must_use]
    pub fn fp_regs(&self) -> &[u64; 32] {
        &self.fp
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total instructions retired.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Architectural DTLB misses observed so far (the workload's intrinsic
    /// miss count — paper Table 2).
    #[must_use]
    pub fn dtlb_misses(&self) -> u64 {
        self.dtlb_misses
    }

    fn read_int(&self, r: u8) -> u64 {
        if r == 31 {
            0
        } else {
            self.int[r as usize]
        }
    }

    fn write_int(&mut self, r: u8, v: u64) {
        if r != 31 {
            self.int[r as usize] = v;
        }
    }

    fn read_fp(&self, r: u8) -> u64 {
        if r == 31 {
            0.0f64.to_bits()
        } else {
            self.fp[r as usize]
        }
    }

    fn write_fp(&mut self, r: u8, v: u64) {
        if r != 31 {
            self.fp[r as usize] = v;
        }
    }

    /// The decoded instruction at `pc`. Faults report `pc` itself.
    #[inline(always)]
    fn fetch(&mut self, pm: &PhysMem, space: &AddressSpace, pc: u64) -> Result<Inst, RefError> {
        let (asid, vpn) = (space.asid(), pc >> PAGE_SHIFT);
        let frame = match self.fetch_page {
            Some(t) if t.vpn == vpn && t.asid == asid => t.frame,
            _ => {
                let pa = space.translate(pm, pc).map_err(|source| RefError::Vm { pc, source })?;
                let frame = pa & !PAGE_MASK;
                self.fetch_page = Some(Translation { asid, vpn, frame });
                frame
            }
        };
        let pa = frame | (pc & PAGE_MASK);
        self.decoded
            .decode(pa, pm.read_u32(pa))
            .ok_or(RefError::BadInstruction { pc })
    }

    #[inline(always)]
    fn int_rr(&mut self, op: Op, inst: Inst) {
        let v = exec::int_rr(op, self.read_int(inst.ra), self.read_int(inst.rb));
        self.write_int(inst.rc, v);
    }

    #[inline(always)]
    fn int_ri(&mut self, op: Op, inst: Inst) {
        let v = exec::int_ri(op, self.read_int(inst.ra), inst.imm);
        self.write_int(inst.rb, v);
    }

    #[inline(always)]
    fn fp_rr(&mut self, op: Op, inst: Inst) {
        let v = exec::fp_rr(op, self.read_fp(inst.ra), self.read_fp(inst.rb));
        self.write_fp(inst.rc, v);
    }

    /// `FCMPEQ`/`FCMPLT`: FP operands, integer result.
    #[inline(always)]
    fn fp_cmp(&mut self, op: Op, inst: Inst) {
        let v = exec::fp_rr(op, self.read_fp(inst.ra), self.read_fp(inst.rb));
        self.write_int(inst.rc, v);
    }

    /// The next PC after conditional branch `op` at `pc`.
    #[inline(always)]
    fn branch(&self, op: Op, inst: Inst, pc: u64) -> u64 {
        if exec::branch_taken(op, self.read_int(inst.ra)) {
            exec::direct_target(pc, inst.imm)
        } else {
            pc.wrapping_add(4)
        }
    }

    /// The physical address load or store `inst` at `pc` accesses,
    /// counting a DTLB miss. A miss walks the page table for the page base,
    /// so an unmapped or out-of-range access reports the page base.
    #[inline(always)]
    fn data_pa(
        &mut self,
        pm: &PhysMem,
        space: &AddressSpace,
        pc: u64,
        inst: Inst,
    ) -> Result<Paddr, RefError> {
        let va = exec::align8(exec::effective_addr(self.read_int(inst.ra), inst.imm));
        let (asid, vpn) = (space.asid(), va >> PAGE_SHIFT);
        let frame = match self.dtlb.lookup(asid, vpn) {
            Some(frame) => frame,
            None => {
                self.dtlb_misses += 1;
                let frame = space
                    .translate(pm, va & !PAGE_MASK)
                    .map_err(|source| RefError::Vm { pc, source })?;
                self.dtlb.insert(asid, vpn, frame);
                frame
            }
        };
        Ok(frame | (va & PAGE_MASK))
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`RefError`] on memory faults, undecodable words, or
    /// privileged operations; the interpreter state is left at the faulting
    /// instruction.
    pub fn step(&mut self, pm: &mut PhysMem, space: &mut AddressSpace) -> Result<(), RefError> {
        if self.halted {
            return Ok(());
        }
        self.execute(pm, space)
    }

    /// [`Interpreter::step`] on a running thread, inlined into the
    /// [`Interpreter::run`] loop.
    #[inline(always)]
    fn execute(&mut self, pm: &mut PhysMem, space: &AddressSpace) -> Result<(), RefError> {
        let pc = self.pc;
        let inst = self.fetch(pm, space, pc)?;
        let mut next_pc = pc.wrapping_add(4);
        // One arm per op: each shared `exec` helper sees its op as a
        // constant, so the helper's own `match` folds away and an
        // instruction costs one dispatch instead of two.
        use Op::*;
        match inst.op {
            Add => self.int_rr(Add, inst),
            Sub => self.int_rr(Sub, inst),
            Mul => self.int_rr(Mul, inst),
            Divu => self.int_rr(Divu, inst),
            And => self.int_rr(And, inst),
            Or => self.int_rr(Or, inst),
            Xor => self.int_rr(Xor, inst),
            Sll => self.int_rr(Sll, inst),
            Srl => self.int_rr(Srl, inst),
            Sra => self.int_rr(Sra, inst),
            Cmpeq => self.int_rr(Cmpeq, inst),
            Cmplt => self.int_rr(Cmplt, inst),
            Cmple => self.int_rr(Cmple, inst),
            Cmpult => self.int_rr(Cmpult, inst),
            Addi => self.int_ri(Addi, inst),
            Andi => self.int_ri(Andi, inst),
            Ori => self.int_ri(Ori, inst),
            Xori => self.int_ri(Xori, inst),
            Slli => self.int_ri(Slli, inst),
            Srli => self.int_ri(Srli, inst),
            Srai => self.int_ri(Srai, inst),
            Cmpeqi => self.int_ri(Cmpeqi, inst),
            Cmplti => self.int_ri(Cmplti, inst),
            Ldi => self.int_ri(Ldi, inst),
            Shlori => self.int_ri(Shlori, inst),
            Fadd => self.fp_rr(Fadd, inst),
            Fsub => self.fp_rr(Fsub, inst),
            Fmul => self.fp_rr(Fmul, inst),
            Fdiv => self.fp_rr(Fdiv, inst),
            Fsqrt => {
                let v = exec::fp_rr(Fsqrt, self.read_fp(inst.ra), 0);
                self.write_fp(inst.rc, v);
            }
            Fcmpeq => self.fp_cmp(Fcmpeq, inst),
            Fcmplt => self.fp_cmp(Fcmplt, inst),
            Itof => {
                let v = exec::fp_rr(Itof, self.read_int(inst.ra), 0);
                self.write_fp(inst.rc, v);
            }
            Ftoi => {
                let v = exec::fp_rr(Ftoi, self.read_fp(inst.ra), 0);
                self.write_int(inst.rc, v);
            }
            Ldq => {
                let v = pm.read_u64(self.data_pa(pm, space, pc, inst)?);
                self.write_int(inst.rb, v);
            }
            Fldq => {
                let v = pm.read_u64(self.data_pa(pm, space, pc, inst)?);
                self.write_fp(inst.rb, v);
            }
            Stq => {
                let pa = self.data_pa(pm, space, pc, inst)?;
                pm.write_u64(pa, self.read_int(inst.rb));
            }
            Fstq => {
                let pa = self.data_pa(pm, space, pc, inst)?;
                pm.write_u64(pa, self.read_fp(inst.rb));
            }
            Beq => next_pc = self.branch(Beq, inst, pc),
            Bne => next_pc = self.branch(Bne, inst, pc),
            Blt => next_pc = self.branch(Blt, inst, pc),
            Bge => next_pc = self.branch(Bge, inst, pc),
            Bgt => next_pc = self.branch(Bgt, inst, pc),
            Ble => next_pc = self.branch(Ble, inst, pc),
            Br => next_pc = exec::direct_target(pc, inst.imm),
            Jal => {
                self.write_int(inst.ra, pc.wrapping_add(4));
                next_pc = exec::direct_target(pc, inst.imm);
            }
            Jr => next_pc = self.read_int(inst.rb),
            Jalr => {
                let target = self.read_int(inst.rb);
                self.write_int(inst.ra, pc.wrapping_add(4));
                next_pc = target;
            }
            Ret => next_pc = self.read_int(inst.ra),
            Nop => {}
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Mfpr | Mtpr | Tlbwr | Rfe | Hardexc | Mtdst => {
                return Err(RefError::PrivilegeViolation { pc, op: inst.op });
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(())
    }

    /// Runs up to `max_insts` instructions or until `HALT`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RefError`] encountered.
    pub fn run(
        &mut self,
        pm: &mut PhysMem,
        space: &mut AddressSpace,
        max_insts: u64,
    ) -> Result<RunSummary, RefError> {
        let start = self.retired;
        while !self.halted && self.retired - start < max_insts {
            self.execute(pm, space)?;
        }
        Ok(RunSummary { retired: self.retired - start, halted: self.halted })
    }

    /// Runs `insts` instructions (fewer if the program halts) while
    /// flushing the miss-counting DTLB's entries (not its miss count) after
    /// every `epoch` instructions —
    /// the detailed machine's epoch-reset schedule (see
    /// `Machine::set_epoch_len`), so a penalty-per-miss denominator shares
    /// the flushed detailed TLB's renewal semantics. `None` keeps one DTLB
    /// for the whole window.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RefError`] encountered.
    pub fn run_epochs(
        &mut self,
        pm: &mut PhysMem,
        space: &mut AddressSpace,
        insts: u64,
        epoch: Option<u64>,
    ) -> Result<RunSummary, RefError> {
        let mut pos = 0u64;
        while pos < insts && !self.halted {
            let step = match epoch {
                Some(e) => (insts - pos).min(e - (pos % e)),
                None => insts - pos,
            };
            pos += self.run(pm, space, step)?.retired;
            // The machine's budget freeze wins over the epoch reset on the
            // final retirement, so no flush fires at `pos == insts` (and a
            // trailing flush could not change the count anyway).
            if let Some(e) = epoch {
                if pos.is_multiple_of(e) && pos < insts {
                    self.dtlb.flush();
                }
            }
        }
        Ok(RunSummary { retired: pos, halted: self.halted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtx_isa::{ProgramBuilder, Reg};
    use smtx_mem::PhysAlloc;

    fn load(
        program: &smtx_isa::Program,
        pm: &mut PhysMem,
        space: &mut AddressSpace,
        alloc: &mut PhysAlloc,
    ) {
        let pages = ((program.len() as u64 * 4).div_ceil(PAGE_SIZE)).max(1);
        space.map_region(pm, alloc, program.base(), pages);
        for (i, &word) in program.words().iter().enumerate() {
            space
                .write_u32(pm, program.base() + i as u64 * 4, word)
                .expect("code page mapped");
        }
    }

    fn fresh() -> (PhysMem, PhysAlloc, AddressSpace) {
        let mut pm = PhysMem::new();
        let mut alloc = PhysAlloc::new();
        let space = AddressSpace::new(3, &mut pm, &mut alloc);
        (pm, alloc, space)
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 10); // counter
        b.li(Reg(2), 0); // acc
        b.label("loop");
        b.add(Reg(2), Reg(2), Reg(1));
        b.addi(Reg(1), Reg(1), -1);
        b.bne(Reg(1), "loop");
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let s = interp.run(&mut pm, &mut space, 1000).unwrap();
        assert!(s.halted);
        assert_eq!(interp.int_regs()[2], 55);
    }

    #[test]
    fn loads_and_stores_round_trip_and_count_tlb_misses() {
        let (mut pm, mut alloc, mut space) = fresh();
        let data = 0x2000_0000u64;
        space.map_region(&mut pm, &mut alloc, data, 2);
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), data);
        b.li(Reg(2), 0x1234);
        b.stq(Reg(2), Reg(1), 0); // page 0: miss 1
        b.ldq(Reg(3), Reg(1), 0);
        b.li(Reg(4), data + PAGE_SIZE);
        b.stq(Reg(3), Reg(4), 8); // page 1: miss 2
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        interp.run(&mut pm, &mut space, 1000).unwrap();
        assert_eq!(interp.int_regs()[3], 0x1234);
        assert_eq!(space.read_u64(&pm, data + PAGE_SIZE + 8).unwrap(), 0x1234);
        assert_eq!(interp.dtlb_misses(), 2, "one miss per distinct page");
    }

    #[test]
    fn calls_and_returns() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.call("double"); // r26 = link
        b.halt();
        b.label("double");
        b.li(Reg(1), 21);
        b.add(Reg(1), Reg(1), Reg(1));
        b.ret_();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let s = interp.run(&mut pm, &mut space, 100).unwrap();
        assert!(s.halted);
        assert_eq!(interp.int_regs()[1], 42);
    }

    #[test]
    fn unmapped_access_is_an_error() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 0x7fff_0000);
        b.ldq(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let err = interp.run(&mut pm, &mut space, 100).unwrap_err();
        assert!(matches!(err, RefError::Vm { .. }));
    }

    #[test]
    fn privileged_op_in_user_mode_is_an_error() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.nop();
        b.rfe();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let err = interp.run(&mut pm, &mut space, 10).unwrap_err();
        let pc = p.base() + 4;
        assert_eq!(err, RefError::PrivilegeViolation { pc, op: Op::Rfe });
        assert_eq!((interp.pc(), interp.retired()), (pc, 1), "left at the faulting op");
    }

    /// One past the largest virtual address (32-bit VA space).
    const VA_LIMIT: u64 = 1 << 32;

    /// Runs `b`'s program from its base and returns the error it stops on.
    fn fault_of(b: &ProgramBuilder) -> (RefError, Interpreter) {
        let (mut pm, mut alloc, mut space) = fresh();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let err = interp.run(&mut pm, &mut space, 100).unwrap_err();
        (err, interp)
    }

    #[test]
    fn unmapped_fetch_reports_the_pc_not_the_page_base() {
        let target = 0x6000_0010;
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), target);
        b.jr(Reg(1));
        let (err, interp) = fault_of(&b);
        let source = VmError::Unmapped { va: target };
        assert_eq!(err, RefError::Vm { pc: target, source });
        assert_eq!(interp.pc(), target);
    }

    #[test]
    fn out_of_range_fetch_reports_the_pc() {
        let target = VA_LIMIT + 0x24;
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), target);
        b.jr(Reg(1));
        let (err, _) = fault_of(&b);
        let source = VmError::OutOfRange { va: target };
        assert_eq!(err, RefError::Vm { pc: target, source });
    }

    #[test]
    fn unmapped_data_reports_the_page_base_and_counts_the_miss() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 0x7fff_0010);
        b.ldq(Reg(2), Reg(1), 8);
        let (err, interp) = fault_of(&b);
        let source = VmError::Unmapped { va: 0x7fff_0000 };
        assert_eq!(err, RefError::Vm { pc: interp.pc(), source });
        assert_eq!(interp.dtlb_misses(), 1);
    }

    #[test]
    fn out_of_range_data_reports_the_page_base() {
        let va = VA_LIMIT + PAGE_SIZE + 0x30;
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), va);
        b.stq(Reg(2), Reg(1), 0);
        let (err, interp) = fault_of(&b);
        let source = VmError::OutOfRange { va: va & !PAGE_MASK };
        assert_eq!(err, RefError::Vm { pc: interp.pc(), source });
        assert_eq!(interp.dtlb_misses(), 1);
    }

    #[test]
    fn undecodable_word_fails_on_every_fetch() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.nop();
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let pc = p.base();
        let mut interp = Interpreter::new(pc);
        interp.step(&mut pm, &mut space).unwrap();
        // Overwrite the cached NOP with a word whose opcode is out of range.
        space.write_u32(&mut pm, pc, 0xff00_0000).unwrap();
        let mut again = Interpreter::new(pc);
        for _ in 0..2 {
            let err = again.step(&mut pm, &mut space).unwrap_err();
            assert_eq!(err, RefError::BadInstruction { pc });
        }
        assert_eq!(again.retired(), 0);
        let nop = Inst::n(Op::Nop).encode().unwrap();
        space.write_u32(&mut pm, pc, nop).unwrap();
        again.step(&mut pm, &mut space).unwrap();
        assert_eq!(again.pc(), pc + 4);
    }

    #[test]
    fn code_rewritten_between_steps_executes_the_new_instruction() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.addi(Reg(1), Reg(1), 1);
        b.br("spin");
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        interp.run(&mut pm, &mut space, 4).unwrap();
        assert_eq!(interp.int_regs()[1], 2);
        // What the `--check` oracle sees: the machine rewrites a code word
        // through the shared memory between two oracle steps.
        let word = Inst::i(Op::Addi, 1, 1, 100).encode().unwrap();
        space.write_u32(&mut pm, p.base(), word).unwrap();
        interp.step(&mut pm, &mut space).unwrap();
        assert_eq!(interp.int_regs()[1], 102);
    }

    #[test]
    fn a_second_space_with_another_asid_translates_through_that_space() {
        let (mut pm, mut alloc, mut a) = fresh();
        let mut b_space = AddressSpace::new(4, &mut pm, &mut alloc);
        let data = 0x2000_0000u64;
        let mut spaces = Vec::new();
        for (space, step, value) in [(&mut a, 1, 111), (&mut b_space, 10, 222)] {
            let mut b = ProgramBuilder::new();
            b.label("loop");
            b.ldq(Reg(2), Reg(1), 0);
            b.addi(Reg(3), Reg(3), step);
            b.br("loop");
            let p = b.build().unwrap();
            load(&p, &mut pm, space, &mut alloc);
            space.map_region(&mut pm, &mut alloc, data, 1);
            space.write_u64(&mut pm, data, value).unwrap();
            spaces.push(p.base());
        }
        assert_eq!(spaces[0], spaces[1], "same virtual layout, different frames");
        let mut regs = [0; 32];
        regs[1] = data;
        let mut interp = Interpreter::from_state(spaces[0], regs, [0; 32]);
        interp.run(&mut pm, &mut a, 3).unwrap();
        assert_eq!((interp.int_regs()[2], interp.int_regs()[3]), (111, 1));
        interp.run(&mut pm, &mut b_space, 3).unwrap();
        assert_eq!((interp.int_regs()[2], interp.int_regs()[3]), (222, 11));
        assert_eq!(interp.dtlb_misses(), 2, "one miss per ASID");
    }

    #[test]
    fn run_epochs_flushes_the_dtlb_every_epoch() {
        let (mut pm, mut alloc, mut space) = fresh();
        let data = 0x2000_0000u64;
        space.map_region(&mut pm, &mut alloc, data, 1);
        let mut b = ProgramBuilder::new();
        b.label("loop");
        b.ldq(Reg(2), Reg(1), 0);
        b.br("loop");
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut regs = [0; 32];
        regs[1] = data;
        let count = |epoch: Option<u64>, insts: u64| {
            let (mut pm, mut space) = (pm.clone(), space.clone());
            let mut interp = Interpreter::from_state(p.base(), regs, [0; 32]);
            let s = interp.run_epochs(&mut pm, &mut space, insts, epoch).unwrap();
            assert_eq!(s.retired, insts);
            interp.dtlb_misses()
        };
        // Loads retire at even positions, so every epoch starts with one.
        assert_eq!(count(None, 41), 1);
        assert_eq!(count(Some(10), 41), 5, "flushes at 10, 20, 30 and 40");
        assert_eq!(count(Some(10), 40), 4);
        assert_eq!(count(Some(7), 40), 6, "odd epochs start with the branch");
    }

    /// The counting DTLB misses exactly where the machine's `Tlb` of the
    /// same capacity does, over a seeded stream with a hot subset, a cold
    /// tail wider than the TLB, two ASIDs and periodic flushes.
    #[test]
    fn counting_dtlb_matches_the_machine_tlb_on_a_seeded_stream() {
        use smtx_rng::rngs::StdRng;
        use smtx_rng::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut fast = CountingDtlb::new();
        let mut oracle = smtx_mem::Tlb::new(DTLB_ENTRIES);
        let (mut misses, mut pages) = (0u64, std::collections::BTreeSet::new());
        for i in 0..200_000u32 {
            if i % 25_000 == 24_999 {
                fast.flush();
                oracle.flush();
            }
            let asid: Asid = rng.random_range(1..3);
            let vpn: u64 = if rng.random_range(0..4u32) == 0 {
                rng.random_range(0..400)
            } else {
                rng.random_range(0..48)
            };
            pages.insert((asid, vpn));
            let frame = (vpn + 1000 * u64::from(asid)) << PAGE_SHIFT;
            let hit = fast.lookup(asid, vpn);
            assert_eq!(hit, oracle.lookup(asid, vpn), "access {i}");
            if hit.is_none() {
                misses += 1;
                fast.insert(asid, vpn, frame);
                oracle.insert(asid, vpn, frame, None);
            }
        }
        assert!(pages.len() >= 200, "{} distinct pages", pages.len());
        assert_eq!(misses, oracle.stats().misses);
        assert!(misses > 10_000 && misses < 150_000, "{misses} misses exercise eviction");
    }

    #[test]
    fn zero_register_is_immutable() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.addi(Reg(31), Reg(31), 5);
        b.add(Reg(1), Reg(31), Reg(31));
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        interp.run(&mut pm, &mut space, 10).unwrap();
        assert_eq!(interp.int_regs()[1], 0);
    }

    #[test]
    fn fp_pipeline_computes() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 16);
        b.itof(smtx_isa::FReg(1), Reg(1));
        b.fsqrt(smtx_isa::FReg(2), smtx_isa::FReg(1));
        b.ftoi(Reg(2), smtx_isa::FReg(2));
        b.halt();
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        interp.run(&mut pm, &mut space, 100).unwrap();
        assert_eq!(interp.int_regs()[2], 4);
    }

    #[test]
    fn budget_stops_mid_program() {
        let (mut pm, mut alloc, mut space) = fresh();
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.addi(Reg(1), Reg(1), 1);
        b.br("spin");
        let p = b.build().unwrap();
        load(&p, &mut pm, &mut space, &mut alloc);
        let mut interp = Interpreter::new(p.base());
        let s = interp.run(&mut pm, &mut space, 10).unwrap();
        assert!(!s.halted);
        assert_eq!(s.retired, 10);
        assert_eq!(interp.int_regs()[1], 5);
    }
}
