//! Issue/execute, completion and retirement phases.

use std::cmp::Reverse;

use smtx_isa::{BranchKind, FuClass, Op};
use smtx_mem::Pte;

use crate::config::ExnMechanism;
use crate::exec;
use crate::machine::Machine;
use crate::thread::ThreadState;
use crate::trace::{SquashCause, TraceEvent};
use crate::window::{F_DONE, F_ISSUABLE, F_ISSUED};

/// Per-cycle execution-resource budget (paper Table 1 pools).
struct FuBudget {
    width: usize,
    int_alu: usize,
    int_mul: usize,
    fp_add: usize,
    fp_div: usize,
    ldst: usize,
}

impl FuBudget {
    fn new(m: &Machine) -> FuBudget {
        FuBudget {
            width: m.config.width,
            int_alu: m.config.fu.int_alu,
            int_mul: m.config.fu.int_mul,
            fp_add: m.config.fu.fp_add,
            fp_div: m.config.fu.fp_div,
            ldst: m.config.fu.ldst_ports,
        }
    }

    fn pool(&mut self, class: FuClass) -> &mut usize {
        match class {
            FuClass::IntAlu => &mut self.int_alu,
            FuClass::IntMul | FuClass::IntDiv => &mut self.int_mul,
            FuClass::FpAdd | FuClass::FpMul => &mut self.fp_add,
            FuClass::FpDiv | FuClass::FpSqrt => &mut self.fp_div,
            FuClass::Load | FuClass::Store => &mut self.ldst,
        }
    }

    /// Reserves one issue slot + one unit of `class`; `false` if exhausted.
    fn take(&mut self, class: Option<FuClass>) -> bool {
        let Some(class) = class else { return true }; // NOP/HALT are free
        if self.width == 0 || *self.pool(class) == 0 {
            return false;
        }
        self.width -= 1;
        *self.pool(class) -= 1;
        true
    }
}

/// Outcome of a translation attempt at execute time.
enum Xlate {
    Hit(u64),
    Miss,
    /// Perfect-TLB mode, wrong-path access to an unmapped address: the
    /// access completes with a dummy value and no memory traffic.
    Fault,
}

impl Machine {
    // ================================================================
    // Issue / execute
    // ================================================================

    pub(crate) fn issue_phase(&mut self, now: u64) {
        let mut fu = FuBudget::new(self);

        // Hardware page walks compete for the cache ports (paper §2: the
        // TLB widget "competes with normal instruction execution for the
        // cache ports").
        if self.config.mechanism == ExnMechanism::Hardware {
            for i in 0..self.walks.len() {
                if self.walks[i].done_at.is_none() && fu.ldst > 0 {
                    fu.ldst -= 1;
                    let pte_paddr = self.walks[i].pte_paddr;
                    let extra = self.memsys.access_data(pte_paddr, now);
                    self.walks[i].done_at = Some(now + FuClass::Load.latency() + extra);
                }
            }
        }

        // Oldest fetched first, across all threads (paper Table 1). The
        // window is an unordered map; instead of scanning all of it every
        // cycle, the scheduler walks `ready_seqs` — the superset of
        // issuable candidates maintained at rename and wake-up time — in
        // sorted order, which is the same order the old full scan produced.
        // Entries are re-validated on sight and compacted in place: a seq
        // that turns out squashed, issued or parked is dropped (its next
        // wake-up re-adds it), one that stays eligible is retained.
        while let Some(&Reverse((at, _))) = self.pending_issue.peek() {
            if at > now {
                break;
            }
            let Reverse((_, seq)) = self.pending_issue.pop().expect("just peeked");
            self.ready_seqs.push(seq);
        }
        self.ready_seqs.sort_unstable();
        self.ready_seqs.dedup();
        let scan_all = self.config.limits.free_execute_bandwidth;
        let start_len = self.ready_seqs.len();
        let mut keep = 0;
        let mut idx = 0;
        while idx < start_len {
            // Once the issue width is exhausted nothing further can issue
            // (unless handler instructions execute for free).
            if fu.width == 0 && !scan_all {
                break;
            }
            let seq = self.ready_seqs[idx];
            idx += 1;
            // Re-validate: earlier candidates may have squashed this one or
            // resolved state may have changed.
            let retain = 'v: {
                // The SoA flag/earliest pair answers eligibility without
                // touching the full instruction record.
                let Some((flags, earliest)) = self.window.issue_state(seq) else {
                    break 'v false;
                };
                if flags != F_ISSUABLE {
                    break 'v false;
                }
                if earliest > now {
                    break 'v true; // eligible in a future cycle
                }
                if !self.issue_ready(seq) {
                    break 'v true; // blocked on ordering, not wake-ups
                }
                let inst = self.window.get(seq).expect("issuable entry is live");
                let tid = inst.tid;
                let op = inst.inst.op;
                let handler_free = self.config.limits.free_execute_bandwidth
                    && self.threads[tid].is_handler();
                if !handler_free && !fu.take(op.fu_class()) {
                    break 'v true; // FU pool exhausted; retry next cycle
                }
                self.execute_one(seq, now);
                // Execution can return the instruction to the window still
                // eligible (DIVU emulation with no idle context, a trap
                // refused on a non-running thread): keep it retrying.
                match self.window.issue_state(seq) {
                    Some((f, _)) => f == F_ISSUABLE,
                    None => false,
                }
            };
            if retain {
                self.ready_seqs[keep] = seq;
                keep += 1;
            }
        }
        // Entries left unexamined by the width cutoff are retained; anything
        // appended mid-scan (a wake-up fired by a squash) sits past
        // `start_len` and survives the compaction untouched.
        while idx < start_len {
            self.ready_seqs[keep] = self.ready_seqs[idx];
            keep += 1;
            idx += 1;
        }
        self.ready_seqs.drain(keep..start_len);
    }

    /// Non-resource issue preconditions: conservative memory
    /// disambiguation (loads wait for older same-thread store addresses)
    /// and PAL serialization (`RFE`/`HARDEXC` execute only once all older
    /// instructions of the thread are done).
    fn issue_ready(&self, seq: u64) -> bool {
        let inst = self.window.get(seq).expect("issue candidate is live");
        let t = &self.threads[inst.tid];
        match inst.inst.op {
            op if op.is_load() => {
                for &s in &t.store_queue {
                    if s >= seq {
                        break;
                    }
                    if self.window.get(s).expect("queued store is live").mem_vaddr.is_none() {
                        return false;
                    }
                }
                true
            }
            // PAL serialization: these have irreversible effects (return,
            // escalate, cross-thread register write), so they execute only
            // once every older instruction of the thread has resolved —
            // in particular after any older mispredicted branch would have
            // squashed them.
            Op::Rfe | Op::Hardexc | Op::Mtdst => {
                t.rob.iter().take_while(|&&s| s < seq).all(|&s| self.window.is_done(s))
            }
            _ => true,
        }
    }

    fn execute_one(&mut self, seq: u64, now: u64) {
        self.stats.issued += 1;
        self.window.set_issued(seq);
        let (tid, op, pc, pal, v0, v1, imm) = {
            let i = self.window.get(seq).expect("candidate revalidated");
            // Unused operand slots hold Value(0), so these reads are total.
            (i.tid, i.inst.op, i.pc, i.pal, i.src_value(0), i.src_value(1), i.inst.imm)
        };
        if self.tracer.is_some() {
            self.emit(TraceEvent::Issue { cycle: now, tid: tid as u64, seq });
        }

        use Op::*;
        match op {
            // Paper §6: DIVU is emulated in software when configured — the
            // instruction returns to the window not-ready and a handler
            // thread computes the quotient.
            Divu if self.config.emulate_divu && !pal => {
                self.window.clear_issued(seq);
                self.raise_emulation(seq, tid, v0, v1, now);
            }
            // ---- integer & FP computation ----
            Add | Sub | Mul | Divu | And | Or | Xor | Sll | Srl | Sra | Cmpeq | Cmplt | Cmple
            | Cmpult => {
                self.finish_exec(seq, exec::int_rr(op, v0, v1), now, op_latency(op));
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Cmpeqi | Cmplti | Ldi | Shlori => {
                self.finish_exec(seq, exec::int_ri(op, v0, imm), now, op_latency(op));
            }
            Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fcmpeq | Fcmplt | Itof | Ftoi => {
                self.finish_exec(seq, exec::fp_rr(op, v0, v1), now, op_latency(op));
            }
            Mfpr => self.finish_exec(seq, v0, now, 1),
            Mtpr => self.finish_exec(seq, v0, now, 1),
            Mtdst => self.finish_exec(seq, v0, now, 1),
            Nop | Halt | Hardexc => self.finish_exec(seq, 0, now, 1),
            Tlbwr => {
                // Operands latched; the fill happens at completion ("when
                // the TLB write is complete, the faulting instruction is
                // made ready", paper §4.1).
                self.finish_exec(seq, 0, now, 1);
            }
            Rfe => {
                // Result is the return PC (from pr_exc_pc).
                let i = self.window.get_mut(seq).expect("present");
                i.actual_next = v0;
                self.finish_exec(seq, v0, now, 1);
            }

            // ---- control ----
            Beq | Bne | Blt | Bge | Bgt | Ble => {
                let taken = exec::branch_taken(op, v0);
                let target = if taken {
                    exec::direct_target(pc, imm)
                } else {
                    pc.wrapping_add(4)
                };
                let i = self.window.get_mut(seq).expect("present");
                i.taken = taken;
                i.actual_next = target;
                self.finish_exec(seq, 0, now, 1);
            }
            Br | Jal => {
                let target = exec::direct_target(pc, imm);
                let i = self.window.get_mut(seq).expect("present");
                i.taken = true;
                i.actual_next = target;
                self.finish_exec(seq, pc.wrapping_add(4), now, 1);
            }
            Jr | Jalr | Ret => {
                let i = self.window.get_mut(seq).expect("present");
                i.taken = true;
                i.actual_next = v0;
                self.finish_exec(seq, pc.wrapping_add(4), now, 1);
            }

            // ---- memory ----
            Ldq | Fldq => self.execute_load(seq, tid, pal, v0, imm, now),
            Stq | Fstq => self.execute_store(seq, tid, pal, imm, now),
        }
    }

    /// Records the result and schedules the completion event.
    fn finish_exec(&mut self, seq: u64, result: u64, now: u64, latency: u64) {
        let i = self.window.get_mut(seq).expect("executing instruction present");
        i.result = result;
        self.events.push(Reverse((now + latency, seq)));
    }

    fn translate(&mut self, tid: usize, pal: bool, va: u64) -> Xlate {
        if pal {
            // PAL-mode memory operations are physically addressed (the
            // handler walks the page table with physical loads).
            return Xlate::Hit(va);
        }
        let space = self.threads[tid].space.expect("user thread has a space");
        if self.config.mechanism == ExnMechanism::PerfectTlb {
            return match self.spaces[space].translate(&self.pm, va) {
                Ok(pa) => Xlate::Hit(pa),
                Err(_) => Xlate::Fault,
            };
        }
        let asid = self.threads[tid].asid;
        let vpn = va >> smtx_mem::PAGE_SHIFT;
        match self.dtlb.lookup(asid, vpn) {
            Some(frame) => Xlate::Hit(frame | (va & smtx_mem::PAGE_MASK)),
            None => Xlate::Miss,
        }
    }

    fn execute_load(&mut self, seq: u64, tid: usize, pal: bool, base: u64, imm: i32, now: u64) {
        let va = exec::align8(exec::effective_addr(base, imm));
        self.window.get_mut(seq).expect("present").mem_vaddr = Some(va);
        let pa = match self.translate(tid, pal, va) {
            Xlate::Hit(pa) => pa,
            Xlate::Fault => {
                // Wrong-path access under a perfect TLB: dummy value.
                self.finish_exec(seq, 0, now, FuClass::Load.latency());
                return;
            }
            Xlate::Miss => {
                // The faulting instruction returns to the window not-ready
                // (paper §4.1) and the mechanism-specific dispatch runs.
                self.window.clear_issued(seq);
                self.dispatch_tlb_miss(seq, tid, va, now);
                return;
            }
        };
        self.window.get_mut(seq).expect("present").mem_paddr = Some(pa);

        // Store-to-load forwarding from the same thread's store queue
        // (youngest older store with a matching address wins).
        let fwd = self.threads[tid]
            .store_queue
            .iter()
            .rev()
            .filter(|&&s| s < seq)
            .find_map(|&s| {
                let st = self.window.get(s).expect("queued store is live");
                (st.mem_vaddr == Some(va)).then_some(st.result)
            });
        let (value, latency) = match fwd {
            Some(v) => (v, FuClass::Load.latency()),
            None => {
                let extra = self.memsys.access_data(pa, now);
                (self.pm.read_u64(pa), FuClass::Load.latency() + extra)
            }
        };
        self.finish_exec(seq, value, now, latency);
    }

    fn execute_store(&mut self, seq: u64, tid: usize, pal: bool, imm: i32, now: u64) {
        let (base, data) = {
            let i = self.window.get(seq).expect("present");
            (i.src_value(0), i.src_value(1))
        };
        let va = exec::align8(exec::effective_addr(base, imm));
        let pa = match self.translate(tid, pal, va) {
            Xlate::Hit(pa) => Some(pa),
            Xlate::Fault => None,
            Xlate::Miss => {
                self.window.clear_issued(seq);
                // Record the address so younger loads stop blocking on this
                // store only once it truly executes; keep it None while the
                // fill is pending to stay conservative.
                self.dispatch_tlb_miss(seq, tid, va, now);
                return;
            }
        };
        if let Some(pa) = pa {
            // Write-allocate probe at execute; data commits at retirement.
            let _ = self.memsys.access_data(pa, now);
        }
        let i = self.window.get_mut(seq).expect("present");
        i.mem_vaddr = Some(va);
        i.mem_paddr = pa;
        i.result = data;
        self.events.push(Reverse((now + FuClass::Store.latency(), seq)));
    }

    // ================================================================
    // Completion
    // ================================================================

    pub(crate) fn process_completions(&mut self, now: u64) {
        // Pass 1: drain every event due this cycle, drop stale ones (the
        // slot probe rejects seqs that were squashed and refetched), and
        // mark the survivors done up front. Batching the writebacks lets
        // pass 2 apply all consumer wake-ups in one pop-ordered sweep.
        let mut batch = std::mem::take(&mut self.completion_scratch);
        batch.clear();
        while let Some(&Reverse((cycle, _))) = self.events.peek() {
            if cycle > now {
                break;
            }
            let Reverse((_, seq)) = self.events.pop().expect("just peeked");
            let Some((flags, _)) = self.window.issue_state(seq) else { continue };
            if flags & F_DONE != 0 || flags & F_ISSUED == 0 {
                continue; // stale event (instruction was squashed and refetched)
            }
            self.window.mark_done(seq);
            batch.push(seq);
        }
        // Pass 2: writeback, consumer wake-ups and op-specific actions, in
        // the same pop order as the one-at-a-time loop this replaces. An
        // action can squash a later batch member (mispredict, escalation),
        // so each is re-validated on sight — a squashed seq emits nothing,
        // exactly as before.
        for &seq in &batch {
            if self.window.contains(seq) {
                self.finish_completion(seq, now);
            }
        }
        batch.clear();
        self.completion_scratch = batch;
    }

    /// Writeback, consumer wake-up and op-specific completion actions for
    /// one instruction already marked done by pass 1.
    fn finish_completion(&mut self, seq: u64, now: u64) {
        let (tid, op, result, pred, actual_next) = {
            let i = self.window.get(seq).expect("validated by caller");
            (i.tid, i.inst.op, i.result, i.pred, i.actual_next)
        };
        if self.tracer.is_some() {
            self.emit(TraceEvent::Writeback { cycle: now, tid: tid as u64, seq });
        }

        // Wake consumers; one whose last operand just resolved enters the
        // issue scheduler's wake-up list. The wake list lives in the
        // producer's window slot and drains through a reusable scratch
        // buffer, so this path never allocates.
        let mut wakes = std::mem::take(&mut self.consumer_scratch);
        self.window.take_consumers_into(seq, &mut wakes);
        for &(c, slot) in &wakes {
            if self.window.resolve_src(c, slot as usize, result) == Some(true) {
                self.ready_seqs.push(c);
            }
        }
        wakes.clear();
        self.consumer_scratch = wakes;

        match op {
            Op::Tlbwr => self.complete_tlbwr(seq, now),
            Op::Mtdst => {
                if self.threads[tid].is_handler() {
                    self.write_excepting_dest(tid, result, now);
                }
            }
            Op::Rfe => {
                if !self.threads[tid].is_handler() {
                    // Traditional handler: redirect the thread back to the
                    // excepting instruction (second pipe refill, paper §3).
                    self.threads[tid].redirect_fetch(actual_next, false, now + 1);
                    if self.tracer.is_some() {
                        self.emit(TraceEvent::HandlerReturn {
                            cycle: now,
                            tid: tid as u64,
                            pc: actual_next,
                        });
                    }
                }
                // Handler threads simply stop; retirement splices them.
            }
            Op::Hardexc => {
                if self.threads[tid].is_handler() {
                    self.escalate_hard_exception(tid, now);
                }
                // In traditional mode HARDEXC is the (unmodelled) OS
                // page-fault service request; it retires as a NOP and the
                // handler loops until software maps the page.
            }
            _ => {
                if pred.is_some() || self.threads[tid].redirect_wait == Some(seq) {
                    self.resolve_branch(seq, now);
                }
            }
        }
    }

    fn resolve_branch(&mut self, seq: u64, now: u64) {
        let (tid, pal, pred, taken, actual_next) = {
            let i = self.window.get(seq).expect("resolving a live branch");
            (i.tid, i.pal, i.pred, i.taken, i.actual_next)
        };
        // Cold indirect (or RFE-style) redirect: fetch was stalled waiting
        // for this instruction.
        if self.threads[tid].redirect_wait == Some(seq) {
            self.threads[tid].redirect_fetch(actual_next, pal, now + 1);
            return;
        }
        let Some(pi) = pred else { return };
        if pi.predicted_next == actual_next {
            return; // correctly predicted
        }
        // Mispredict: squash younger instructions of this thread, repair
        // the speculative predictor state, redirect fetch. Fetch resumes in
        // the *branch's* privilege mode — a pre-trap user branch resolving
        // after a trap redirect must pull the thread back out of PAL mode
        // (the trap it squashed never happened on the correct path).
        if self.tracer.is_some() {
            self.emit(TraceEvent::Squash {
                cycle: now,
                tid: tid as u64,
                from_seq: seq + 1,
                cause: SquashCause::Mispredict,
                resume_pc: actual_next,
            });
        }
        self.squash_thread_from(tid, seq + 1);
        let t = &mut self.threads[tid];
        t.bu.restore(pi.checkpoint);
        match pi.kind {
            BranchKind::Conditional => t.bu.note_cond_outcome(taken),
            BranchKind::Indirect => t.bu.note_indirect_outcome(actual_next),
            BranchKind::Return => {
                let _ = t.bu.predict_return(); // re-consume the RAS top
            }
            BranchKind::Direct => unreachable!("direct targets are perfect"),
        }
        t.redirect_fetch(actual_next, pal, now + 1);
        self.stats.threads[tid].mispredicts += 1;
    }

    fn complete_tlbwr(&mut self, seq: u64, _now: u64) {
        let (tid, va, pteval) = {
            let i = self.window.get(seq).expect("completing tlbwr is live");
            (i.tid, i.src_value(0), i.src_value(1))
        };
        let pte = Pte(pteval);
        if !pte.is_valid() {
            return; // defensive: handlers branch to HARDEXC before TLBWR
        }
        let vpn = va >> smtx_mem::PAGE_SHIFT;
        let (asid, tag) = match self.handler_record(tid) {
            Some(rec) => (rec.key.0, rec.tag),
            None => (self.threads[tid].asid, seq),
        };
        self.dtlb.insert(asid, vpn, pte.frame(), Some(tag));
        // Record the tag so retirement can commit the fill (traditional
        // handlers have no ActiveHandler record by then).
        self.window.get_mut(seq).expect("present").result = tag;
        self.wake_waiters((asid, vpn));
    }

    pub(crate) fn wake_waiters(&mut self, key: (smtx_mem::Asid, u64)) {
        let mut ws = std::mem::take(&mut self.waiter_scratch);
        self.waiters.take_into(key, &mut ws);
        for &w in &ws {
            if self.window.clear_waiting(w) {
                self.ready_seqs.push(w);
            }
        }
        ws.clear();
        self.waiter_scratch = ws;
    }

    // ================================================================
    // Retirement
    // ================================================================

    pub(crate) fn retire_phase(&mut self, now: u64) {
        // Unlimited retirement bandwidth (paper §5.1): iterate to a fixed
        // point so a handler that finishes mid-pass unblocks its master in
        // the same cycle.
        loop {
            let mut progress = false;
            for tid in 0..self.threads.len() {
                while self.can_retire_head(tid) {
                    self.retire_one(tid, now);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
    }

    pub(crate) fn can_retire_head(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        if matches!(t.state, ThreadState::Idle | ThreadState::Halted) {
            return false;
        }
        let Some(&head) = t.rob.front() else { return false };
        let inst = self.window.get(head).expect("rob head is live");
        if !self.window.is_done(head) {
            return false;
        }
        // The excepting instruction retires only after its handler has
        // retired in full (paper Fig. 1c).
        if inst.handler_tid.is_some() {
            return false;
        }
        // A handler thread may retire only while its master is halted at
        // the excepting instruction (paper §4.1 retirement splicing).
        if t.is_handler() {
            let Some(rec) = self.handler_record(tid) else { return false };
            return self.threads[rec.master].rob.front() == Some(&rec.exc_seq);
        }
        true
    }

    fn retire_one(&mut self, tid: usize, now: u64) {
        let seq = self.threads[tid].rob.pop_front().expect("head checked");
        let inst = self.window.remove(seq).expect("head in window");
        if let Some(log) = &mut self.retire_log {
            log.push(crate::machine::RetireEvent { tid, seq, pc: inst.pc, pal: inst.pal });
        }
        if self.tracer.is_some() {
            self.emit(TraceEvent::Retire {
                cycle: now,
                tid: tid as u64,
                seq,
                pc: inst.pc,
                pal: inst.pal,
            });
        }
        if self.threads[tid].is_handler() {
            self.handler_insts_in_window -= 1;
        }
        // Sanitizer hook *before* the commit: splice-order checks and the
        // lockstep oracle, which must observe the pre-commit register files.
        if self.checker.is_some() {
            self.check_retire(tid, &inst, now);
        }

        // Commit the destination and release the rename-map entry.
        if let Some((class, idx)) = inst.dest {
            self.threads[tid].set_committed(class, idx, inst.result);
            if self.threads[tid].rmap(class, idx) == Some(seq) {
                self.threads[tid].set_rmap(class, idx, None);
            }
        }

        // Stores commit their data to memory at retirement.
        if inst.inst.op.is_store() {
            let front = self.threads[tid].store_queue.pop_front();
            debug_assert_eq!(front, Some(seq), "store queue out of order");
            if let Some(pa) = inst.mem_paddr {
                self.pm.write_u64(pa, inst.result);
                self.check_page_table_write(pa, now);
            }
        }

        // Train the predictors with architectural outcomes.
        if let Some(pi) = inst.pred {
            match pi.kind {
                BranchKind::Conditional => {
                    self.threads[tid].bu.update_cond(inst.pc, pi.ghr_at_pred, inst.taken);
                }
                BranchKind::Indirect => {
                    self.threads[tid]
                        .bu
                        .update_indirect(inst.pc, pi.path_at_pred, inst.actual_next);
                }
                BranchKind::Direct | BranchKind::Return => {}
            }
        }

        match inst.inst.op {
            // `result` carries the fill tag (set at completion).
            // Handler-thread fills commit when the handler releases.
            Op::Tlbwr if !self.threads[tid].is_handler() => {
                self.dtlb.commit(inst.result);
                self.stats.fills_committed += 1;
            }
            Op::Rfe if self.threads[tid].is_handler() => {
                self.release_handler(tid, true);
            }
            Op::Halt => {
                self.count_retired(tid, &inst, now);
                self.freeze_thread(tid, now);
                return;
            }
            _ => {}
        }
        self.count_retired(tid, &inst, now);
    }

    fn count_retired(&mut self, tid: usize, inst: &crate::dyninst::DynInst, now: u64) {
        if inst.caused_tlb_miss {
            self.stats.threads[tid].tlb_miss_insts_retired += 1;
        }
        if inst.pal {
            self.threads[tid].retired_pal += 1;
            self.stats.threads[tid].retired_pal += 1;
        } else {
            // Track the committed architectural PC: where a functional
            // checkpoint taken at this retirement boundary would resume. A
            // retired control transfer's `actual_next` is always valid (set
            // at execution, and instructions retire only once done). Only
            // `epoch_reset` ever reads `arch_pc` after thread start, so the
            // per-retire store is skipped when no epoch schedule is
            // installed — keeping the common unscheduled path free of it.
            if self.epoch_len.is_some() {
                self.threads[tid].arch_pc = if inst.inst.op.branch_kind().is_some() {
                    inst.actual_next
                } else {
                    inst.pc.wrapping_add(4)
                };
            }
            self.threads[tid].retired_user += 1;
            self.stats.threads[tid].retired_user += 1;
            if let Some(budget) = self.threads[tid].budget {
                if self.threads[tid].retired_user >= budget
                    && self.threads[tid].state == ThreadState::Run
                {
                    self.freeze_thread(tid, now);
                }
            }
            // A budget freeze on the epoch boundary wins (the thread is no
            // longer `Run`); otherwise every `epoch_len`-th user retirement
            // of thread 0 resets the machine to checkpoint-equivalent state.
            if let Some(e) = self.epoch_len {
                if tid == 0
                    && self.threads[tid].state == ThreadState::Run
                    && self.threads[tid].retired_user.is_multiple_of(e)
                {
                    self.epoch_reset(now);
                }
            }
        }
    }
}

fn op_latency(op: Op) -> u64 {
    op.fu_class().map_or(1, FuClass::latency)
}
