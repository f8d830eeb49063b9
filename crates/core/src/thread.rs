//! Per-context (hardware thread) state.

use std::collections::VecDeque;

use smtx_branch::BranchUnit;
use smtx_mem::Asid;

use crate::dyninst::{FrontEndInst, RegClass};

/// The lifecycle state of a hardware context (paper Fig. 4 keeps exactly
/// this per-thread control state: Normal / Idle / Exception plus the master
/// thread and excepting-instruction identifiers, which live in
/// [`crate::machine::ActiveHandler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// No work assigned; available for exception handlers.
    Idle,
    /// Running an application program.
    Run,
    /// Running an exception handler on behalf of `master`.
    Exception {
        /// The application context this handler serves.
        master: usize,
    },
    /// Finished (HALT retired or instruction budget reached).
    Halted,
}

/// All per-context state: committed register files, rename maps, front-end
/// queues, fetch control and the store queue.
#[derive(Debug, Clone)]
pub struct ThreadContext {
    /// Lifecycle state.
    pub state: ThreadState,
    /// Committed user integer registers.
    pub int_regs: [u64; 32],
    /// Committed floating-point registers.
    pub fp_regs: [u64; 32],
    /// Committed PAL shadow registers.
    pub shadow_regs: [u64; 32],
    /// Committed privileged registers.
    pub priv_regs: [u64; 8],
    /// Index of the address space this context runs in (`None` for idle and
    /// handler contexts — handlers address memory physically).
    pub space: Option<usize>,
    /// ASID cached from the address space.
    pub asid: Asid,

    /// Committed architectural PC: the address of the next *user*
    /// instruction to execute, updated at every user-mode retirement.
    /// This is where fetch resumes after an epoch reset (interval-parallel
    /// exactness), mirroring the PC a functional checkpoint at the same
    /// retirement boundary would record.
    pub arch_pc: u64,

    // ---- fetch control ----
    /// Next fetch PC.
    pub fetch_pc: u64,
    /// Fetching in PAL mode (privilege is a per-instruction attribute
    /// downstream, per Henry's kernel/user tagging, which the paper
    /// assumes).
    pub fetch_pal: bool,
    /// Fetch is blocked until this cycle (I-cache miss or redirect).
    pub fetch_stalled_until: u64,
    /// Fetch stopped (HALT/RFE fetched, cold indirect target, handler
    /// complete).
    pub fetch_stopped: bool,
    /// Fetch stopped waiting for this instruction to execute and provide
    /// the next PC (cold indirect branches; RFE, which has no RAS-like
    /// predictor — paper §3).
    pub redirect_wait: Option<u64>,
    /// Last I-cache line fetch touched (a new access is charged per line).
    pub last_ifetch_line: Option<u64>,

    // ---- front-end queues ----
    /// Instructions in the fetch pipe (become visible after `ready_at`).
    pub fetch_pipe: VecDeque<FrontEndInst>,
    /// Fetched instructions awaiting decode. Quick-start stages handler
    /// code here while the context idles (paper §5.4).
    pub fetch_buffer: VecDeque<FrontEndInst>,

    // ---- rename state ----
    /// Last in-flight writer per user integer register.
    pub rmap_int: [Option<u64>; 32],
    /// Last in-flight writer per FP register.
    pub rmap_fp: [Option<u64>; 32],
    /// Last in-flight writer per shadow register.
    pub rmap_shadow: [Option<u64>; 32],
    /// Last in-flight writer per privileged register.
    pub rmap_priv: [Option<u64>; 8],

    // ---- in-flight bookkeeping ----
    /// Sequence numbers of this context's window entries, in fetch order
    /// (the per-thread FIFO the paper's mechanism preserves).
    pub rob: VecDeque<u64>,
    /// Sequence numbers of in-flight stores, in fetch order.
    pub store_queue: VecDeque<u64>,

    // ---- accounting ----
    /// User-mode instructions retired.
    pub retired_user: u64,
    /// PAL-mode instructions retired.
    pub retired_pal: u64,
    /// Retirement budget (freeze the thread once reached).
    pub budget: Option<u64>,
    /// Per-thread branch predictors (tables are per-context; see DESIGN.md).
    pub bu: BranchUnit,
}

impl ThreadContext {
    /// Creates an idle context.
    #[must_use]
    pub fn new() -> ThreadContext {
        ThreadContext {
            state: ThreadState::Idle,
            int_regs: [0; 32],
            fp_regs: [0; 32],
            shadow_regs: [0; 32],
            priv_regs: [0; 8],
            space: None,
            asid: 0,
            arch_pc: 0,
            fetch_pc: 0,
            fetch_pal: false,
            fetch_stalled_until: 0,
            fetch_stopped: true,
            redirect_wait: None,
            last_ifetch_line: None,
            fetch_pipe: VecDeque::new(),
            fetch_buffer: VecDeque::new(),
            rmap_int: [None; 32],
            rmap_fp: [None; 32],
            rmap_shadow: [None; 32],
            rmap_priv: [None; 8],
            rob: VecDeque::new(),
            store_queue: VecDeque::new(),
            retired_user: 0,
            retired_pal: 0,
            budget: None,
            bu: BranchUnit::paper_baseline(),
        }
    }

    /// Total in-flight instructions (front end + window) — the ICOUNT
    /// fetch-priority metric (paper §4.4).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.fetch_pipe.len() + self.fetch_buffer.len() + self.rob.len()
    }

    /// Whether this context is running an exception handler.
    #[must_use]
    pub fn is_handler(&self) -> bool {
        matches!(self.state, ThreadState::Exception { .. })
    }

    /// Read access to a rename map by class.
    #[must_use]
    pub fn rmap(&self, class: RegClass, idx: u8) -> Option<u64> {
        match class {
            RegClass::Int => self.rmap_int[idx as usize],
            RegClass::Fp => self.rmap_fp[idx as usize],
            RegClass::Shadow => self.rmap_shadow[idx as usize],
            RegClass::Priv => self.rmap_priv[idx as usize],
        }
    }

    /// Write access to a rename map by class.
    pub fn set_rmap(&mut self, class: RegClass, idx: u8, v: Option<u64>) {
        match class {
            RegClass::Int => self.rmap_int[idx as usize] = v,
            RegClass::Fp => self.rmap_fp[idx as usize] = v,
            RegClass::Shadow => self.rmap_shadow[idx as usize] = v,
            RegClass::Priv => self.rmap_priv[idx as usize] = v,
        }
    }

    /// Reads a committed register by class (zero registers read zero).
    #[must_use]
    pub fn committed(&self, class: RegClass, idx: u8) -> u64 {
        match class {
            RegClass::Int => {
                if idx == 31 {
                    0
                } else {
                    self.int_regs[idx as usize]
                }
            }
            RegClass::Fp => {
                if idx == 31 {
                    0
                } else {
                    self.fp_regs[idx as usize]
                }
            }
            RegClass::Shadow => {
                if idx == 31 {
                    0
                } else {
                    self.shadow_regs[idx as usize]
                }
            }
            RegClass::Priv => self.priv_regs[idx as usize],
        }
    }

    /// Writes a committed register by class (writes to zero registers are
    /// discarded).
    pub fn set_committed(&mut self, class: RegClass, idx: u8, v: u64) {
        match class {
            RegClass::Int if idx != 31 => self.int_regs[idx as usize] = v,
            RegClass::Fp if idx != 31 => self.fp_regs[idx as usize] = v,
            RegClass::Shadow if idx != 31 => self.shadow_regs[idx as usize] = v,
            RegClass::Priv => self.priv_regs[idx as usize] = v,
            _ => {}
        }
    }

    /// Redirects fetch to `pc` in privilege mode `pal`, resuming at cycle
    /// `resume_at`: any stop, pending indirect-target wait and I-cache line
    /// memo is cleared (traps, handler spawns, RFE returns, branch
    /// resolution and deadlock squashes all restart fetch this way).
    #[inline]
    pub fn redirect_fetch(&mut self, pc: u64, pal: bool, resume_at: u64) {
        self.fetch_pc = pc;
        self.fetch_pal = pal;
        self.fetch_stopped = false;
        self.fetch_stalled_until = resume_at;
        self.redirect_wait = None;
        self.last_ifetch_line = None;
    }

    /// Clears all in-flight and fetch state, returning the context to a
    /// clean committed-state-only view (used when a handler context is
    /// released or a thread is frozen).
    pub fn clear_inflight(&mut self) {
        self.fetch_pipe.clear();
        self.fetch_buffer.clear();
        self.rmap_int = [None; 32];
        self.rmap_fp = [None; 32];
        self.rmap_shadow = [None; 32];
        self.rmap_priv = [None; 8];
        self.rob.clear();
        self.store_queue.clear();
        self.redirect_wait = None;
        self.last_ifetch_line = None;
    }
}

impl Default for ThreadContext {
    fn default() -> Self {
        ThreadContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_context_is_idle_and_empty() {
        let t = ThreadContext::new();
        assert_eq!(t.state, ThreadState::Idle);
        assert_eq!(t.inflight(), 0);
        assert!(!t.is_handler());
    }

    #[test]
    fn committed_register_access_respects_zero_registers() {
        let mut t = ThreadContext::new();
        t.set_committed(RegClass::Int, 31, 99);
        t.set_committed(RegClass::Fp, 31, 99);
        t.set_committed(RegClass::Shadow, 31, 99);
        assert_eq!(t.committed(RegClass::Int, 31), 0);
        assert_eq!(t.committed(RegClass::Fp, 31), 0);
        assert_eq!(t.committed(RegClass::Shadow, 31), 0);
        t.set_committed(RegClass::Int, 4, 7);
        t.set_committed(RegClass::Priv, 2, 13);
        assert_eq!(t.committed(RegClass::Int, 4), 7);
        assert_eq!(t.committed(RegClass::Priv, 2), 13);
    }

    #[test]
    fn rename_maps_are_per_class() {
        let mut t = ThreadContext::new();
        t.set_rmap(RegClass::Int, 5, Some(10));
        t.set_rmap(RegClass::Shadow, 5, Some(20));
        assert_eq!(t.rmap(RegClass::Int, 5), Some(10));
        assert_eq!(t.rmap(RegClass::Shadow, 5), Some(20));
        assert_eq!(t.rmap(RegClass::Fp, 5), None);
    }
}
