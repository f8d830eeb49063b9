//! The cycle-level SMT machine.
//!
//! One [`Machine`] owns every shared structure of paper Table 1: the fetch
//! unit and chooser, the centralized instruction window, the scheduler and
//! functional-unit pools, the memory system, the DTLB, and all hardware
//! thread contexts. `step_cycle` advances the machine one cycle through the
//! phases *complete → walk → retire → issue → decode → fetch*.

mod backend;
mod exn;
mod frontend;

use std::collections::BinaryHeap;
use std::cmp::Reverse;

use smtx_isa::Program;
use smtx_mem::{AddressSpace, Asid, MemorySystem, PhysAlloc, PhysMem, Tlb, PAGE_SIZE};

use crate::check::Checker;
use crate::config::MachineConfig;
use crate::dyninst::PredInfo;
use crate::stats::Stats;
use crate::thread::{ThreadContext, ThreadState};
use crate::trace::{SquashCause, TraceEvent, TraceSink};
use crate::window::{WaiterMap, Window, F_ISSUABLE};

/// What an active handler is servicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerKind {
    /// A software TLB fill (the paper's main study).
    TlbFill,
    /// An emulated instruction (paper §6 generalized mechanism): the
    /// handler writes the excepting instruction's destination via `MTDST`.
    Emulate,
}

/// Bookkeeping for one active exception-handler thread — exactly the
/// per-thread control state of paper Fig. 4 (master thread id + sequence
/// number of the excepting instruction) plus the window reservation of
/// §4.4.
#[derive(Debug, Clone)]
pub struct ActiveHandler {
    /// The context running the handler.
    pub handler_tid: usize,
    /// The application context it serves.
    pub master: usize,
    /// Sequence number of the excepting instruction (updated by re-linking,
    /// paper §4.5).
    pub exc_seq: u64,
    /// `(asid, vpn)` being filled.
    pub key: (Asid, u64),
    /// Tag marking this handler's speculative TLB fills.
    pub tag: u64,
    /// Predicted handler length in instructions (perfect per Table 1).
    pub predicted_len: usize,
    /// Handler instructions inserted into the window so far.
    pub inserted: usize,
    /// What this handler services.
    pub kind: HandlerKind,
}

/// An in-flight hardware page walk.
#[derive(Debug, Clone)]
pub(crate) struct Walk {
    pub key: (Asid, u64),
    pub fault_tid: usize,
    pub fault_seq: u64,
    pub pte_paddr: u64,
    /// `None` while waiting for a cache port; `Some(cycle)` once issued.
    pub done_at: Option<u64>,
}

/// The simulated machine.
///
/// ```
/// use smtx_core::{ExnMechanism, Machine, MachineConfig};
///
/// let machine = Machine::new(MachineConfig::paper_baseline(ExnMechanism::PerfectTlb));
/// assert_eq!(machine.cycle(), 0);
/// ```
#[derive(Debug)]
pub struct Machine {
    pub(crate) config: MachineConfig,
    pub(crate) cycle: u64,
    pub(crate) next_seq: u64,
    pub(crate) pm: PhysMem,
    pub(crate) alloc: PhysAlloc,
    pub(crate) memsys: MemorySystem,
    pub(crate) dtlb: Tlb,
    pub(crate) threads: Vec<ThreadContext>,
    pub(crate) spaces: Vec<AddressSpace>,
    /// The centralized instruction window: a slot-arena ring keyed by the
    /// monotone fetch sequence, with scheduler-scanned state split into
    /// dense SoA arrays and per-producer consumer lists stored in the
    /// producer's slot (see [`crate::window::Window`]). Every per-seq
    /// probe validates the slot's full sequence number, so stale wake
    /// entries are dropped on sight exactly as the old hash-map probe did;
    /// the one consumer that needs fetch order (the issue scan) sorts its
    /// candidate list, so arena layout never reaches simulated behavior.
    pub(crate) window: Window,
    /// Handler-thread instructions currently in the window (for the
    /// free-window limit knob).
    pub(crate) handler_insts_in_window: usize,
    /// Completion events: (cycle, seq).
    pub(crate) events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Loads/stores waiting on a TLB fill, by (asid, vpn): a short linear
    /// map with pooled waiter lists; wake order comes from the per-key
    /// list, deterministic by construction.
    pub(crate) waiters: WaiterMap,
    pub(crate) handlers: Vec<ActiveHandler>,
    pub(crate) walks: Vec<Walk>,
    pub(crate) pal_base: u64,
    pub(crate) pal_len: usize,
    pub(crate) emul_base: u64,
    pub(crate) emul_len: usize,
    pub(crate) stats: Stats,
    /// Tier-2 fast path: when on, [`Machine::run`] jumps over provably idle
    /// cycles instead of ticking through them. Deliberately *not* part of
    /// [`MachineConfig`] — it changes wall time, never simulated behavior,
    /// so it must not perturb config digests or run keys.
    pub(crate) idle_skip: bool,
    /// Cycles elapsed via idle-skip jumps rather than `step_cycle` (a
    /// diagnostic; intentionally not part of [`Stats`], which must stay
    /// bit-identical with skipping on or off).
    pub(crate) skipped_cycles: u64,
    pub(crate) retire_log: Option<Vec<RetireEvent>>,
    /// The issue scheduler's wake-up list: a conservative *superset* of the
    /// sequence numbers that could issue — maintained at rename and at every
    /// wake-up site (operand completion, TLB-fill wake, handler release)
    /// instead of re-scanning the whole window each cycle. Entries are
    /// re-validated against the window on every use, so stale seqs
    /// (squashed, issued, parked) are dropped on sight; correctness only
    /// requires that every genuinely issuable instruction is present.
    pub(crate) ready_seqs: Vec<u64>,
    /// Instructions renamed with all operands already resolved, staged as
    /// `(earliest_issue, seq)` until their scheduling delay elapses — they
    /// would otherwise sit in `ready_seqs` for `issue_delay` cycles being
    /// re-validated for nothing. The issue phase drains due entries into
    /// `ready_seqs`; stale (squashed) entries are caught by the same
    /// re-validation there.
    pub(crate) pending_issue: BinaryHeap<Reverse<(u64, u64)>>,
    /// Reused per-cycle scratch for the decode-order thread list.
    pub(crate) scratch_order: Vec<usize>,
    /// Reused per-cycle scratch: sequence numbers completed in pass 1 of
    /// the batched completion phase (side effects applied in pass 2).
    pub(crate) completion_scratch: Vec<u64>,
    /// Reused scratch for draining a producer's consumer wake list.
    pub(crate) consumer_scratch: Vec<(u64, u32)>,
    /// Reused scratch for draining a TLB fill's waiter list.
    pub(crate) waiter_scratch: Vec<u64>,
    /// Deterministic epoch length in retired user instructions of thread 0
    /// (`None` — the default — disables epochs). Every `epoch_len`-th user
    /// retirement on thread 0 triggers [`Machine::epoch_reset`]: all
    /// in-flight state is squashed and all microarchitectural state
    /// (predictors, DTLB, caches, shadow/privileged registers) is flushed,
    /// making the post-reset machine exactly equivalent to a fresh machine
    /// restored from a functional checkpoint at that boundary. This is the
    /// exactness foundation of interval-parallel simulation: per-interval
    /// `Stats` sum to the monolithic run's field-for-field. Like
    /// `idle_skip`, the epoch schedule is a property of *how* a run is
    /// executed, set by the bench layer from the instruction budget — but
    /// unlike `idle_skip` it changes simulated behavior, so the bench layer
    /// applies one schedule uniformly to every mode of a given budget.
    pub(crate) epoch_len: Option<u64>,
    /// The `--check` pipeline sanitizer (off by default; see
    /// [`Machine::set_check`]). Like `idle_skip`, deliberately *not* part
    /// of [`MachineConfig`]: checking is observation-only and must not
    /// perturb config digests or memoized run keys.
    pub(crate) checker: Option<Checker>,
    /// The attached event-trace sink (none by default; see
    /// [`Machine::set_tracer`]). Like `checker` and `idle_skip`,
    /// deliberately *not* part of [`MachineConfig`]: tracing is
    /// observation-only and must not perturb config digests, memoized run
    /// keys, or simulated behavior.
    pub(crate) tracer: Option<Box<dyn TraceSink>>,
}

/// One entry of the optional retirement trace (see
/// [`Machine::enable_retire_log`]): the global retirement order, which for
/// the multithreaded mechanism differs from fetch order exactly as paper
/// Fig. 1c describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Context that retired the instruction.
    pub tid: usize,
    /// Fetch-order sequence number.
    pub seq: u64,
    /// PC of the instruction.
    pub pc: u64,
    /// Whether it was a PAL (handler) instruction.
    pub pal: bool,
}

impl Machine {
    /// Creates a machine with idle contexts. Install a PAL handler with
    /// [`Machine::install_pal_handler`] and attach programs with
    /// [`Machine::attach_program`] before running.
    #[must_use]
    pub fn new(config: MachineConfig) -> Machine {
        let threads = (0..config.threads).map(|_| ThreadContext::new()).collect();
        let stats = Stats::new(config.threads);
        // The ring starts several times larger than the architectural
        // window so sequence numbers of stalled-vs-running threads rarely
        // collide modulo the capacity (a collision just grows the ring).
        let window = Window::with_capacity((config.window.max(1) * 8).max(1024));
        Machine {
            memsys: MemorySystem::new(config.mem),
            dtlb: Tlb::new(config.dtlb_entries),
            threads,
            stats,
            config,
            cycle: 0,
            next_seq: 0,
            pm: PhysMem::new(),
            alloc: PhysAlloc::new(),
            spaces: Vec::new(),
            window,
            handler_insts_in_window: 0,
            events: BinaryHeap::new(),
            waiters: WaiterMap::new(),
            handlers: Vec::new(),
            walks: Vec::new(),
            pal_base: 0,
            pal_len: 0,
            emul_base: 0,
            emul_len: 0,
            idle_skip: true,
            skipped_cycles: 0,
            retire_log: None,
            ready_seqs: Vec::new(),
            pending_issue: BinaryHeap::new(),
            scratch_order: Vec::new(),
            completion_scratch: Vec::new(),
            consumer_scratch: Vec::new(),
            waiter_scratch: Vec::new(),
            epoch_len: None,
            checker: None,
            tracer: None,
        }
    }

    /// Attaches (or detaches, with `None`) a trace sink. Every pipeline
    /// stage and exception-episode transition then emits a cycle-stamped
    /// [`TraceEvent`]; with no sink attached every emission site is a
    /// single no-op branch, so traced and untraced runs are bit-identical.
    pub fn set_tracer(&mut self, sink: Option<Box<dyn TraceSink>>) {
        self.tracer = sink;
    }

    /// Detaches and returns the trace sink, if one is attached.
    pub fn take_tracer(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.take()
    }

    /// Delivers `ev` to the attached sink, if any. Call sites on hot paths
    /// guard with `tracer.is_some()` before building the event.
    #[inline]
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = &mut self.tracer {
            sink.event(&ev);
        }
    }

    /// Starts recording the global retirement order (cleared on each call).
    /// Intended for tests and debugging; costs one `Vec` push per retired
    /// instruction.
    pub fn enable_retire_log(&mut self) {
        self.retire_log = Some(Vec::new());
    }

    /// The recorded retirement trace, if enabled.
    #[must_use]
    pub fn retire_log(&self) -> Option<&[RetireEvent]> {
        self.retire_log.as_deref()
    }

    /// The current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Simulated physical memory (read-only view).
    #[must_use]
    pub fn phys(&self) -> &PhysMem {
        &self.pm
    }

    /// Simulated physical memory, mutable (for workload setup).
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.pm
    }

    /// The frame allocator (for workload setup).
    pub fn alloc_mut(&mut self) -> &mut PhysAlloc {
        &mut self.alloc
    }

    /// The address space with index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn space(&self, idx: usize) -> &AddressSpace {
        &self.spaces[idx]
    }

    /// Splits out mutable access to one address space together with
    /// physical memory and the allocator (the borrow shape every workload
    /// setup needs).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn vm_parts(
        &mut self,
        idx: usize,
    ) -> (&mut AddressSpace, &mut PhysMem, &mut PhysAlloc) {
        (&mut self.spaces[idx], &mut self.pm, &mut self.alloc)
    }

    /// Creates a new address space and returns its index.
    pub fn new_address_space(&mut self) -> usize {
        let asid = (self.spaces.len() + 1) as Asid;
        let space = AddressSpace::new(asid, &mut self.pm, &mut self.alloc);
        self.spaces.push(space);
        self.spaces.len() - 1
    }

    /// Installs the PAL TLB-miss handler: the code is placed in physical
    /// memory (PAL code is physically addressed) and its length becomes the
    /// perfect handler-length prediction of Table 1.
    ///
    /// # Panics
    ///
    /// Panics if the handler does not fit in one page.
    pub fn install_pal_handler(&mut self, handler: &Program) {
        let bytes = handler.len() as u64 * 4;
        assert!(bytes <= PAGE_SIZE, "PAL handler must fit one page");
        let base = self.alloc.alloc_page();
        for (i, &word) in handler.words().iter().enumerate() {
            self.pm.write_u32(base + i as u64 * 4, word);
        }
        self.pal_base = base;
        self.pal_len = handler.len();
    }

    /// Length (in instructions) of the installed PAL handler, or 0 if none
    /// has been installed yet.
    #[must_use]
    pub fn pal_handler_len(&self) -> usize {
        self.pal_len
    }

    /// Installs the emulated-instruction handler (paper §6), placed in its
    /// own physically-addressed PAL page.
    ///
    /// # Panics
    ///
    /// Panics if the handler does not fit in one page.
    pub fn install_emul_handler(&mut self, handler: &Program) {
        let bytes = handler.len() as u64 * 4;
        assert!(bytes <= PAGE_SIZE, "emulation handler must fit one page");
        let base = self.alloc.alloc_page();
        for (i, &word) in handler.words().iter().enumerate() {
            self.pm.write_u32(base + i as u64 * 4, word);
        }
        self.emul_base = base;
        self.emul_len = handler.len();
    }

    /// Whether `pc` lies inside an installed PAL code region.
    pub(crate) fn in_pal_region(&self, pc: u64) -> bool {
        (pc >= self.pal_base && pc < self.pal_base + self.pal_len as u64 * 4)
            || (self.emul_len > 0
                && pc >= self.emul_base
                && pc < self.emul_base + self.emul_len as u64 * 4)
    }

    /// Loads `program` into address space `space_idx` (maps code pages and
    /// writes the words).
    ///
    /// # Panics
    ///
    /// Panics if `space_idx` is out of range.
    pub fn load_program(&mut self, space_idx: usize, program: &Program) {
        let pages = ((program.len() as u64 * 4).div_ceil(PAGE_SIZE)).max(1);
        let (space, pm, alloc) = self.vm_parts(space_idx);
        space.map_region(pm, alloc, program.base() & !(PAGE_SIZE - 1), pages + 1);
        for (i, &word) in program.words().iter().enumerate() {
            space
                .write_u32(pm, program.base() + i as u64 * 4, word)
                .expect("code pages just mapped");
        }
    }

    /// Binds context `tid` to address space `space_idx` and starts it at
    /// `entry`.
    ///
    /// # Panics
    ///
    /// Panics if the context is not idle or indices are out of range.
    pub fn start_thread(&mut self, tid: usize, space_idx: usize, entry: u64) {
        assert_eq!(self.threads[tid].state, ThreadState::Idle, "context busy");
        let asid = self.spaces[space_idx].asid();
        let t = &mut self.threads[tid];
        t.state = ThreadState::Run;
        t.space = Some(space_idx);
        t.asid = asid;
        t.arch_pc = entry;
        t.fetch_pc = entry;
        t.fetch_pal = false;
        t.fetch_stopped = false;
        t.fetch_stalled_until = 0;
    }

    /// Convenience: create a space, load `program`, and start context `tid`
    /// at its entry. Returns the space index.
    pub fn attach_program(&mut self, tid: usize, program: &Program) -> usize {
        let space = self.new_address_space();
        self.load_program(space, program);
        self.start_thread(tid, space, program.base());
        space
    }

    /// Committed user integer registers of context `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn int_regs(&self, tid: usize) -> &[u64; 32] {
        &self.threads[tid].int_regs
    }

    /// Committed floating-point registers of context `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn fp_regs(&self, tid: usize) -> &[u64; 32] {
        &self.threads[tid].fp_regs
    }

    /// State of context `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn thread_state(&self, tid: usize) -> ThreadState {
        self.threads[tid].state
    }

    /// Sets the user-instruction retirement budget of context `tid`; the
    /// thread freezes once it has retired that many user instructions.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn set_budget(&mut self, tid: usize, budget: u64) {
        self.threads[tid].budget = Some(budget);
    }

    /// Enables or disables tier-2 idle-cycle skipping in [`Machine::run`]
    /// (on by default). Skipping is a pure wall-time optimization: the
    /// resulting [`Stats`] are bit-identical either way.
    pub fn set_idle_skip(&mut self, on: bool) {
        self.idle_skip = on;
    }

    /// Cycles that elapsed via idle-skip jumps instead of `step_cycle`.
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Sets the deterministic epoch length (`None` disables epochs, the
    /// default): every `len` retired user instructions on thread 0, the
    /// machine squashes all in-flight work and flushes all
    /// microarchitectural state, making the post-reset state exactly what a
    /// fresh machine restored from a functional checkpoint at that boundary
    /// would simulate. See the `epoch_len` field for the exactness
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if `len` is `Some(0)`.
    pub fn set_epoch_len(&mut self, len: Option<u64>) {
        assert_ne!(len, Some(0), "epoch length must be positive");
        self.epoch_len = len;
    }

    /// The configured epoch length, if any.
    #[must_use]
    pub fn epoch_len(&self) -> Option<u64> {
        self.epoch_len
    }

    /// Runs until every application thread has halted (HALT retired or
    /// budget reached) or `max_cycles` elapse. Returns the statistics.
    ///
    /// With idle-cycle skipping on (the default), provably idle stretches —
    /// every thread stalled on a long-latency miss, nothing fetchable,
    /// decodable, issuable, or retirable — are jumped in one step to the
    /// next cycle at which anything can happen, with accounting identical
    /// to ticking through them.
    pub fn run(&mut self, max_cycles: u64) -> &Stats {
        self.run_until_retired(0, u64::MAX, max_cycles)
    }

    /// Runs like [`Machine::run`], but also stops once context `tid` has
    /// retired `target` user instructions *without* freezing it — the
    /// interior-interval primitive of interval-parallel simulation: with an
    /// epoch schedule whose boundaries include `target`, the machine's own
    /// epoch reset fires at the boundary retirement, the remainder of that
    /// cycle is inert, and the loop exits with the thread still runnable,
    /// leaving `stats` exactly the prefix a monolithic run accumulates up
    /// to and including the boundary cycle.
    pub fn run_until_retired(&mut self, tid: usize, target: u64, max_cycles: u64) -> &Stats {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline
            && self.threads[tid].retired_user < target
            && self
                .threads
                .iter()
                .any(|t| matches!(t.state, ThreadState::Run))
        {
            if self.idle_skip {
                if let Some(wake) = self.next_wake(self.cycle) {
                    // Nothing can change before `wake`: jump straight there,
                    // charging exactly what the naive loop would have. A
                    // wedged machine (wake == u64::MAX) jumps to the
                    // deadline, again matching the naive loop's stats.
                    let target = wake.clamp(self.cycle + 1, deadline);
                    if !self.handlers.is_empty() {
                        self.stats.handler_active_cycles += target - self.cycle;
                    }
                    self.skipped_cycles += target - self.cycle;
                    self.cycle = target;
                    self.stats.cycles = self.cycle;
                    continue;
                }
            }
            self.step_cycle();
        }
        self.stats.cycles = self.cycle;
        if self.tracer.is_some() {
            self.emit(TraceEvent::End { cycle: self.cycle });
        }
        &self.stats
    }

    /// Idle-cycle analysis for tier-2 skipping: `None` if some phase of
    /// `step_cycle` could make progress (or mutate any state) at `now`,
    /// otherwise `Some(wake)` — the earliest future cycle at which anything
    /// can happen (`u64::MAX` if the machine is wedged).
    ///
    /// Soundness rests on one invariant of the model: between events, every
    /// phase gates on thresholds (`ready_at`, `earliest_issue`, `done_at`,
    /// `fetch_stalled_until`, the event heap) that only *pass* as `now`
    /// advances, and the memory system mutates only when accessed. So if no
    /// gate passes at `now`, stepping is a no-op (modulo the cycle counter
    /// and `handler_active_cycles`, which the skip accounts for) until the
    /// minimum future threshold. Being conservative is always safe here: a
    /// `None` merely falls back to `step_cycle`.
    fn next_wake(&self, now: u64) -> Option<u64> {
        let mut wake = u64::MAX;

        // Completion events.
        if let Some(&Reverse((at, _))) = self.events.peek() {
            if at <= now {
                return None;
            }
            wake = wake.min(at);
        }

        // Hardware page walks: an un-issued walk (`done_at == None`) grabs
        // a cache port in the next issue phase, so it is always progress.
        for w in &self.walks {
            match w.done_at {
                None => return None,
                Some(d) if d <= now => return None,
                Some(d) => wake = wake.min(d),
            }
        }

        // Retirement. This must be checked explicitly: a handler release in
        // a previous cycle can make a head retirable without any event
        // pending (e.g. the master's excepting instruction after RFE).
        for tid in 0..self.threads.len() {
            if self.can_retire_head(tid) {
                return None;
            }
        }

        // Fetch: a fetchable thread fetches; a thread blocked *only* by an
        // I-cache stall becomes fetchable when the stall expires.
        for (tid, t) in self.threads.iter().enumerate() {
            if self.fetchable(tid, now) {
                return None;
            }
            if matches!(t.state, ThreadState::Run | ThreadState::Exception { .. })
                && !t.fetch_stopped
                && t.redirect_wait.is_none()
                && t.fetch_pipe.len() + t.fetch_buffer.len() < self.config.fetch_buffer
                && t.fetch_stalled_until > now
            {
                wake = wake.min(t.fetch_stalled_until);
            }
        }

        // Decode: fetch-pipe fronts draining into the buffer, and buffer
        // fronts entering the window.
        for (tid, t) in self.threads.iter().enumerate() {
            if let Some(front) = t.fetch_pipe.front() {
                if t.fetch_buffer.len() < self.config.fetch_buffer {
                    if front.ready_at <= now {
                        return None;
                    }
                    wake = wake.min(front.ready_at);
                }
            }
            if let Some(front) = t.fetch_buffer.front() {
                // Handler insertion can mutate state even when it fails
                // (the §4.4 deadlock-avoidance squash), so a ready handler
                // front always blocks skipping. Non-handlers are pure
                // admission checks; if the window is full, draining it
                // requires retirement or squash activity that is tracked
                // through the checks above.
                let insertable = t.is_handler()
                    || self.occupancy() + self.reserved_for_master(tid) < self.config.window;
                if insertable {
                    if front.ready_at <= now {
                        return None;
                    }
                    wake = wake.min(front.ready_at);
                }
            }
        }

        // Issue: anything that could enter the candidate scan. Sources and
        // TLB-wait status only change at rename or completion time, so a
        // not-ready instruction stays not-ready until a tracked event.
        // `ready_seqs` plus the staged `pending_issue` heap form a superset
        // of those candidates by construction; re-validating each entry
        // here gives the same answer as a full window scan. A stale staged
        // entry can only make the wake *earlier* — conservative, so safe.
        if let Some(&Reverse((at, _))) = self.pending_issue.peek() {
            if at <= now {
                return None;
            }
            wake = wake.min(at);
        }
        for &seq in &self.ready_seqs {
            let Some((flags, earliest)) = self.window.issue_state(seq) else { continue };
            if flags == F_ISSUABLE {
                if earliest <= now {
                    return None;
                }
                wake = wake.min(earliest);
            }
        }

        Some(wake)
    }

    /// Advances the machine one cycle.
    pub fn step_cycle(&mut self) {
        let now = self.cycle;
        self.process_completions(now);
        self.process_walks(now);
        self.retire_phase(now);
        self.issue_phase(now);
        self.decode_phase(now);
        self.fetch_phase(now);
        if !self.handlers.is_empty() {
            self.stats.handler_active_cycles += 1;
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        if self.checker.is_some() {
            self.check_cycle_end();
        }
        self.debug_check_invariants();
    }

    // ---- shared internal helpers ----

    /// Window occupancy as seen by insertion control (the free-window limit
    /// knob makes handler instructions invisible).
    pub(crate) fn occupancy(&self) -> usize {
        if self.config.limits.free_window {
            self.window.len() - self.handler_insts_in_window
        } else {
            self.window.len()
        }
    }

    /// Total outstanding window reservations for handlers whose master is
    /// `tid` (paper §4.4).
    pub(crate) fn reserved_for_master(&self, tid: usize) -> usize {
        if self.config.limits.free_window {
            return 0;
        }
        self.handlers
            .iter()
            .filter(|h| h.master == tid)
            .map(|h| h.predicted_len.saturating_sub(h.inserted))
            .sum()
    }

    pub(crate) fn handler_record(&self, handler_tid: usize) -> Option<&ActiveHandler> {
        self.handlers.iter().find(|h| h.handler_tid == handler_tid)
    }

    /// Squashes every in-flight instruction of `tid` with `seq >= from_seq`
    /// (front end included), restoring rename maps. Returns the predictor
    /// checkpoint of the *oldest* squashed branch, which the caller restores
    /// for trap-style squashes (mispredict recovery restores the branch's
    /// own checkpoint instead).
    pub(crate) fn squash_thread_from(
        &mut self,
        tid: usize,
        from_seq: u64,
    ) -> Option<PredInfo> {
        let note_pred = |p: &Option<PredInfo>, seq: u64, oldest: &mut Option<(u64, PredInfo)>| {
            if let Some(pi) = p {
                match oldest {
                    Some((s, _)) if *s <= seq => {}
                    _ => *oldest = Some((seq, *pi)),
                }
            }
        };
        let mut oldest: Option<(u64, PredInfo)> = None;

        // Front end first (all entries are the thread's youngest).
        let mut squashed_frontend = 0u64;
        {
            let t = &mut self.threads[tid];
            for q in [&mut t.fetch_pipe, &mut t.fetch_buffer] {
                while let Some(back) = q.back() {
                    if back.seq < from_seq {
                        break;
                    }
                    note_pred(&back.pred, back.seq, &mut oldest);
                    q.pop_back();
                    squashed_frontend += 1;
                }
            }
        }
        self.stats.squashed_insts += squashed_frontend;

        // Window entries, youngest first, restoring rename state.
        let mut released_handlers: Vec<usize> = Vec::new();
        while let Some(&back) = self.threads[tid].rob.back() {
            if back < from_seq {
                break;
            }
            self.threads[tid].rob.pop_back();
            let inst = self.window.remove(back).expect("rob entry in window");
            if self.threads[tid].is_handler() {
                self.handler_insts_in_window -= 1;
            }
            note_pred(&inst.pred, inst.seq, &mut oldest);
            if let Some((class, idx)) = inst.dest {
                if self.threads[tid].rmap(class, idx) == Some(back) {
                    let prev = inst.prev_writer.filter(|&p| self.window.contains(p));
                    self.threads[tid].set_rmap(class, idx, prev);
                }
            }
            if inst.inst.op.is_store() {
                self.threads[tid].store_queue.retain(|&s| s != back);
            }
            if let Some(h) = inst.handler_tid {
                released_handlers.push(h);
            }
            self.stats.squashed_insts += 1;
        }
        for h in released_handlers {
            self.release_handler(h, false);
        }
        oldest.map(|(_, p)| p)
    }

    /// Frees a handler context. `commit = true` when the handler retired
    /// normally (RFE reached retirement); `false` reclaims a handler whose
    /// excepting instruction died or that escalated via `HARDEXC`.
    pub(crate) fn release_handler(&mut self, handler_tid: usize, commit: bool) {
        let Some(pos) = self.handlers.iter().position(|h| h.handler_tid == handler_tid) else {
            return;
        };
        let rec = self.handlers.remove(pos);
        if self.tracer.is_some() {
            self.emit(TraceEvent::SpliceEnd {
                cycle: self.cycle,
                handler_tid: rec.handler_tid as u64,
                master: rec.master as u64,
                exc_seq: rec.exc_seq,
                committed: commit,
            });
        }
        if commit {
            if rec.kind == HandlerKind::TlbFill {
                self.dtlb.commit(rec.tag);
                self.stats.fills_committed += 1;
            } else {
                self.stats.emulations_committed += 1;
            }
        } else {
            // Withdraw speculative fills and squash the handler's in-flight
            // instructions.
            self.squash_thread_from(handler_tid, 0);
            self.dtlb.squash(rec.tag);
            self.stats.handlers_squashed += 1;
        }
        // Drain any waiter still parked on this fill so it re-issues. This
        // matters even on the commit path: an instruction that missed
        // *after* the handler's TLBWR woke the original waiters (possible
        // when the freshly filled entry is evicted again before the
        // instruction re-executes) would otherwise sleep forever.
        self.wake_waiters(rec.key);
        // Unlink from the excepting instruction (if still alive).
        if let Some(inst) = self.window.get_mut(rec.exc_seq) {
            if inst.handler_tid == Some(handler_tid) {
                inst.handler_tid = None;
            }
        }
        let t = &mut self.threads[handler_tid];
        t.state = ThreadState::Idle;
        t.clear_inflight();
        t.fetch_stopped = true;
        t.fetch_pal = false;
    }

    /// Freezes thread `tid`: squashes its in-flight work and marks it
    /// halted.
    pub(crate) fn freeze_thread(&mut self, tid: usize, now: u64) {
        if self.tracer.is_some() {
            self.emit(TraceEvent::Squash {
                cycle: now,
                tid: tid as u64,
                from_seq: 0,
                cause: SquashCause::Freeze,
                resume_pc: 0,
            });
        }
        self.squash_thread_from(tid, 0);
        let t = &mut self.threads[tid];
        t.state = ThreadState::Halted;
        t.fetch_stopped = true;
        self.stats.threads[tid].finished_at = Some(now);
    }

    /// The deterministic epoch reset (see [`Machine::set_epoch_len`]):
    /// squashes every in-flight instruction on every context and flushes
    /// all microarchitectural state, leaving the machine in exactly the
    /// state a fresh machine restored from a functional checkpoint at this
    /// retirement boundary would be in — shifted by the current cycle and
    /// an order-preserving renumbering of fetch sequence numbers, neither
    /// of which reaches simulated behavior.
    ///
    /// Fires inside the retire phase of the boundary cycle; the remaining
    /// phases of that cycle are inert (fetch is stalled until `now + 1`,
    /// and every queue feeding the other phases is empty), so the
    /// continuation's first active cycle aligns with a restored machine's
    /// cycle 0.
    pub(crate) fn epoch_reset(&mut self, now: u64) {
        // Pass 1: squash every running context's in-flight work. Squashing
        // an excepting instruction releases its handler context through the
        // `handler_tid` link (withdrawing speculative fills), so handler
        // state drains here too.
        for tid in 0..self.threads.len() {
            if !matches!(self.threads[tid].state, ThreadState::Run) {
                continue;
            }
            if self.tracer.is_some() {
                let resume_pc = self.threads[tid].arch_pc;
                self.emit(TraceEvent::Squash {
                    cycle: now,
                    tid: tid as u64,
                    from_seq: 0,
                    cause: SquashCause::Epoch,
                    resume_pc,
                });
            }
            self.squash_thread_from(tid, 0);
        }
        // Every live handler hangs off some master's excepting instruction,
        // so pass 1 should have drained them all; reclaim stragglers rather
        // than leak a context if that invariant ever breaks.
        debug_assert!(self.handlers.is_empty(), "epoch reset left an active handler");
        while let Some(h) = self.handlers.first() {
            let handler_tid = h.handler_tid;
            self.release_handler(handler_tid, false);
        }
        // Pass 2: rebuild per-context state. Idle contexts are replaced
        // wholesale (a released handler leaves committed shadow-register
        // residue a fresh machine would not have); running contexts keep
        // exactly what a functional checkpoint records — architectural
        // registers, address space, retirement counts, budget — and have
        // everything else re-zeroed, with fetch redirected to the committed
        // architectural PC.
        for t in &mut self.threads {
            match t.state {
                ThreadState::Idle => *t = ThreadContext::new(),
                ThreadState::Run => {
                    t.clear_inflight();
                    t.bu = smtx_branch::BranchUnit::paper_baseline();
                    t.shadow_regs = [0; 32];
                    t.priv_regs = [0; 8];
                    t.redirect_fetch(t.arch_pc, false, now + 1);
                }
                // Unreachable after pass 1; reset defensively like Idle.
                ThreadState::Exception { .. } => *t = ThreadContext::new(),
                // A halted thread's terminal state is part of the run's
                // result; leave it be.
                ThreadState::Halted => {}
            }
        }
        // Machine-wide microarchitectural state: everything here describes
        // in-flight work (all squashed) or performance-model memory state
        // (caches, TLB), which a restored machine starts cold. The memory
        // system's fill timestamps are compared only against the current
        // cycle, so a fresh one behaves at cycle `c + k` exactly as a fresh
        // one at cycle `k` — offset invariance, which the interval
        // exactness tests pin down.
        self.events.clear();
        self.pending_issue.clear();
        self.ready_seqs.clear();
        self.walks.clear();
        self.waiters.clear();
        self.memsys = MemorySystem::new(self.config.mem);
        self.dtlb.flush();
    }

    #[cfg(debug_assertions)]
    fn debug_check_invariants(&self) {
        // Shares the structural collector with the `--check` sanitizer (the
        // cheap tier only: the deep rename-map scan is checker-only).
        let mut found = Vec::new();
        self.collect_structural_violations(false, &mut found);
        if let Some(v) = found.first() {
            panic!("structural invariant violated: {v}");
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_invariants(&self) {}
}
