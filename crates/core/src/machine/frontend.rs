//! Fetch and decode/rename phases.

use smtx_isa::{BranchKind, Inst, Op};
use crate::dyninst::{operands, DynInst, FrontEndInst, PredInfo, SrcState};
use crate::exec;
use crate::machine::Machine;
use crate::thread::ThreadState;
use crate::trace::{SquashCause, TraceEvent};

impl Machine {
    // ================================================================
    // Fetch
    // ================================================================

    /// Whether context `tid` can fetch this cycle.
    pub(crate) fn fetchable(&self, tid: usize, now: u64) -> bool {
        let t = &self.threads[tid];
        matches!(t.state, ThreadState::Run | ThreadState::Exception { .. })
            && !t.fetch_stopped
            && t.redirect_wait.is_none()
            && t.fetch_stalled_until <= now
            && t.fetch_pipe.len() + t.fetch_buffer.len() < self.config.fetch_buffer
    }

    /// The ICOUNT fetch chooser (paper §4.4): the fetchable thread with the
    /// fewest in-flight instructions wins; a freshly spawned handler thread
    /// has zero and therefore naturally gets priority.
    fn choose_fetch_thread(&self, now: u64) -> Option<usize> {
        (0..self.threads.len())
            .filter(|&tid| self.fetchable(tid, now))
            .min_by_key(|&tid| (self.threads[tid].inflight(), tid))
    }

    pub(crate) fn fetch_phase(&mut self, now: u64) {
        let chosen = self.choose_fetch_thread(now);
        if let Some(tid) = chosen {
            self.fetch_thread(tid, now);
        }
        if self.config.limits.free_fetch_bandwidth {
            // Limit study: handler threads fetch in addition to the chosen
            // thread, consuming no front-end bandwidth. Fetching one thread
            // never changes another's fetchability, so this matches the
            // old build-a-set-then-fetch order exactly.
            for tid in 0..self.threads.len() {
                if Some(tid) != chosen
                    && self.threads[tid].is_handler()
                    && self.fetchable(tid, now)
                {
                    self.fetch_thread(tid, now);
                }
            }
        }
    }

    fn fetch_thread(&mut self, tid: usize, now: u64) {
        let width = self.config.width;
        for _ in 0..width {
            if !self.fetchable(tid, now) {
                break;
            }
            let pc = self.threads[tid].fetch_pc;
            let pal = self.threads[tid].fetch_pal;

            // Resolve the fetch address. PAL code is physically addressed;
            // user code translates through the page table (perfect ITLB).
            let pa = if pal {
                if !self.in_pal_region(pc) {
                    // Off the end of the handler (mis-speculated PAL
                    // branch): stop until something redirects the thread.
                    self.threads[tid].fetch_stopped = true;
                    break;
                }
                pc
            } else {
                let space = self.threads[tid].space.expect("running thread has a space");
                match self.spaces[space].translate(&self.pm, pc) {
                    Ok(pa) => pa,
                    Err(_) => {
                        // Wrong-path fetch ran off the mapped code; stop
                        // until something redirects this thread.
                        self.threads[tid].fetch_stopped = true;
                        break;
                    }
                }
            };

            // Charge the I-cache once per line.
            let line = pa & !31;
            if self.threads[tid].last_ifetch_line != Some(line) {
                let extra = self.memsys.access_inst(pa, now);
                self.threads[tid].last_ifetch_line = Some(line);
                if extra > 0 {
                    self.threads[tid].fetch_stalled_until = now + extra;
                    // Re-access when the stall ends (the line may still be
                    // in flight; the MSHR merge path handles that).
                    self.threads[tid].last_ifetch_line = None;
                    break;
                }
            }

            let word = self.pm.read_u32(pa);
            let Ok(mut inst) = Inst::decode(word) else {
                // Garbage on a wrong path: stop fetching until redirected.
                self.threads[tid].fetch_stopped = true;
                break;
            };
            // A privileged opcode fetched in user mode (wrong-path garbage)
            // is architecturally a fault; the pipeline simply treats it as a
            // NOP since it can only retire on a path that is a program bug.
            if inst.op.is_privileged() && !pal {
                inst = Inst::n(Op::Nop);
            }

            let seq = self.next_seq;
            self.next_seq += 1;
            let (pred, next_pc, stop) = self.predict_next(tid, pc, &inst, seq);
            self.threads[tid].fetch_pipe.push_back(FrontEndInst {
                seq,
                pc,
                inst,
                pal,
                pred,
                ready_at: now + self.config.fetch_latency,
            });
            self.stats.fetched += 1;
            if self.tracer.is_some() {
                self.emit(TraceEvent::Fetch {
                    cycle: now,
                    tid: tid as u64,
                    seq,
                    pc,
                    pal,
                });
            }
            self.threads[tid].fetch_pc = next_pc;
            if stop {
                break;
            }
        }
    }

    /// Runs the branch predictors for a fetched instruction. Returns the
    /// prediction record, the next fetch PC, and whether fetch must stop.
    pub(crate) fn predict_next(
        &mut self,
        tid: usize,
        pc: u64,
        inst: &Inst,
        seq: u64,
    ) -> (Option<PredInfo>, u64, bool) {
        let fallthrough = pc.wrapping_add(4);
        match inst.op {
            Op::Halt => {
                self.threads[tid].fetch_stopped = true;
                (None, fallthrough, true)
            }
            Op::Rfe => {
                // No RAS-like mechanism predicts exception returns
                // (paper §3): stall fetch until the RFE executes.
                let t = &mut self.threads[tid];
                t.fetch_stopped = true;
                t.redirect_wait = Some(seq);
                (None, fallthrough, true)
            }
            _ => match inst.op.branch_kind() {
                None => (None, fallthrough, false),
                Some(BranchKind::Direct) => {
                    let checkpoint = self.threads[tid].bu.checkpoint();
                    let target = exec::direct_target(pc, inst.imm);
                    if inst.op.is_call() {
                        self.threads[tid].bu.push_return(fallthrough);
                    }
                    let pred = PredInfo {
                        kind: BranchKind::Direct,
                        checkpoint,
                        predicted_next: target,
                        predicted_taken: true,
                        ghr_at_pred: 0,
                        path_at_pred: 0,
                    };
                    (Some(pred), target, false)
                }
                Some(BranchKind::Conditional) => {
                    let checkpoint = self.threads[tid].bu.checkpoint();
                    let (taken, ghr) = self.threads[tid].bu.predict_cond(pc);
                    let target = if taken {
                        exec::direct_target(pc, inst.imm)
                    } else {
                        fallthrough
                    };
                    let pred = PredInfo {
                        kind: BranchKind::Conditional,
                        checkpoint,
                        predicted_next: target,
                        predicted_taken: taken,
                        ghr_at_pred: ghr,
                        path_at_pred: 0,
                    };
                    (Some(pred), target, false)
                }
                Some(BranchKind::Indirect) => {
                    let checkpoint = self.threads[tid].bu.checkpoint();
                    let (target, path) = self.threads[tid].bu.predict_indirect(pc);
                    if inst.op.is_call() {
                        self.threads[tid].bu.push_return(fallthrough);
                    }
                    match target {
                        Some(target) => {
                            let pred = PredInfo {
                                kind: BranchKind::Indirect,
                                checkpoint,
                                predicted_next: target,
                                predicted_taken: true,
                                ghr_at_pred: 0,
                                path_at_pred: path,
                            };
                            (Some(pred), target, false)
                        }
                        None => {
                            // Cold indirect: stall fetch until it executes.
                            let t = &mut self.threads[tid];
                            t.fetch_stopped = true;
                            t.redirect_wait = Some(seq);
                            (None, fallthrough, true)
                        }
                    }
                }
                Some(BranchKind::Return) => {
                    let checkpoint = self.threads[tid].bu.checkpoint();
                    let target = self.threads[tid].bu.predict_return();
                    let pred = PredInfo {
                        kind: BranchKind::Return,
                        checkpoint,
                        predicted_next: target,
                        predicted_taken: true,
                        ghr_at_pred: 0,
                        path_at_pred: 0,
                    };
                    (Some(pred), target, false)
                }
            },
        }
    }

    // ================================================================
    // Decode / rename / window insertion
    // ================================================================

    pub(crate) fn decode_phase(&mut self, now: u64) {
        // Advance the fetch pipe into each thread's fetch buffer.
        for t in &mut self.threads {
            while let Some(front) = t.fetch_pipe.front() {
                if front.ready_at > now || t.fetch_buffer.len() >= self.config.fetch_buffer {
                    break;
                }
                let fe = t.fetch_pipe.pop_front().expect("just peeked");
                t.fetch_buffer.push_back(fe);
            }
        }

        // Decode order: handler threads first (their instructions must
        // retire before everything younger), then ICOUNT order.
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        order.extend(0..self.threads.len());
        order.sort_by_key(|&tid| {
            let t = &self.threads[tid];
            (!t.is_handler(), t.inflight(), tid)
        });

        let mut budget = self.config.width;
        for &tid in &order {
            loop {
                let free = self.config.limits.free_fetch_bandwidth && self.threads[tid].is_handler();
                if budget == 0 && !free {
                    break;
                }
                let Some(front) = self.threads[tid].fetch_buffer.front() else { break };
                if front.ready_at > now {
                    break;
                }
                if !self.may_insert(tid, now) {
                    break;
                }
                let fe = self.threads[tid].fetch_buffer.pop_front().expect("just peeked");
                self.insert_window(tid, &fe, now);
                if !free {
                    budget -= 1;
                }
            }
        }
        self.scratch_order = order;
    }

    /// Window-insertion admission control, including the paper's §4.4
    /// reservation scheme and deadlock-avoidance squash.
    fn may_insert(&mut self, tid: usize, now: u64) -> bool {
        let cap = self.config.window;
        if self.threads[tid].is_handler() {
            if self.config.limits.free_window || self.occupancy() < cap {
                return true;
            }
            // Deadlock avoidance: squash from the tail of the master thread
            // to make room, unless that would kill the excepting
            // instruction — then the handler stalls (paper §4.4).
            let Some(rec) = self.handler_record(tid) else { return false };
            let (master, exc_seq) = (rec.master, rec.exc_seq);
            let Some(&victim) = self.threads[master].rob.back() else { return false };
            if victim <= exc_seq {
                return false;
            }
            let (victim_pc, victim_pal) = {
                let v = self.window.get(victim).expect("rob tail is live");
                (v.pc, v.pal)
            };
            if self.tracer.is_some() {
                self.emit(TraceEvent::Squash {
                    cycle: now,
                    tid: master as u64,
                    from_seq: victim,
                    cause: SquashCause::Deadlock,
                    resume_pc: victim_pc,
                });
            }
            let cp = self.squash_thread_from(master, victim);
            if let Some(pi) = cp {
                self.threads[master].bu.restore(pi.checkpoint);
            }
            self.threads[master].redirect_fetch(victim_pc, victim_pal, 0);
            self.stats.deadlock_squashes += 1;
            self.occupancy() < cap
        } else {
            // The master of an active handler must leave the reserved slots
            // alone; unrelated application threads are ignored for window
            // management (paper §4.4) and only respect physical capacity.
            let reserved = self.reserved_for_master(tid);
            self.occupancy() + reserved < cap
        }
    }

    /// Renames and inserts one instruction into the window.
    pub(crate) fn insert_window(&mut self, tid: usize, fe: &FrontEndInst, now: u64) {
        let earliest_issue = now + 1 + self.config.issue_delay;
        self.insert_window_at(tid, fe, earliest_issue);
    }

    /// Renames and inserts with an explicit issue-eligibility cycle (the
    /// instant-fetch limit study injects handlers directly).
    pub(crate) fn insert_window_at(&mut self, tid: usize, fe: &FrontEndInst, earliest_issue: u64) {
        let mut di = DynInst::from_frontend(fe, tid);
        let (srcs, dest) = operands(&fe.inst, fe.pal);
        for (slot, src) in srcs.iter().enumerate() {
            use crate::dyninst::RegClass;
            let Some((class, idx)) = *src else { continue };
            let is_zero_reg =
                matches!(class, RegClass::Int | RegClass::Shadow | RegClass::Fp) && idx == 31;
            if is_zero_reg {
                di.srcs[slot] = SrcState::Value(0);
                continue;
            }
            match self.threads[tid].rmap(class, idx) {
                Some(producer) => match self.window.producer_state(producer) {
                    Some((true, result)) => di.srcs[slot] = SrcState::Value(result),
                    Some((false, _)) => {
                        di.srcs[slot] = SrcState::Waiting { producer };
                        self.window.add_consumer(producer, fe.seq, slot);
                    }
                    None => {
                        // The map should have been cleared at retirement.
                        debug_assert!(false, "rename map points at retired seq {producer}");
                        di.srcs[slot] =
                            SrcState::Value(self.threads[tid].committed(class, idx));
                    }
                },
                None => di.srcs[slot] = SrcState::Value(self.threads[tid].committed(class, idx)),
            }
        }
        if let Some((class, idx)) = dest {
            di.dest = Some((class, idx));
            di.prev_writer = self.threads[tid].rmap(class, idx);
            self.threads[tid].set_rmap(class, idx, Some(fe.seq));
        }
        if fe.inst.op.is_store() {
            self.threads[tid].store_queue.push_back(fe.seq);
        }
        if self.threads[tid].is_handler() {
            self.handler_insts_in_window += 1;
            if let Some(rec) = self.handlers.iter_mut().find(|h| h.handler_tid == tid) {
                rec.inserted += 1;
            }
        }
        self.threads[tid].rob.push_back(fe.seq);
        // Born with all operands resolved → staged for the issue scheduler
        // until its scheduling delay elapses (otherwise the last operand
        // completion puts it on the wake-up list).
        if di.srcs_ready() {
            self.pending_issue.push(std::cmp::Reverse((earliest_issue, fe.seq)));
        }
        self.window.insert(di, earliest_issue);
        if self.tracer.is_some() {
            self.emit(TraceEvent::Rename {
                cycle: self.cycle,
                tid: tid as u64,
                seq: fe.seq,
            });
        }
        // Sanitizer hook: admission control must have respected the §4.4
        // capacity and reservation rules for this insertion.
        if self.checker.is_some() {
            self.check_admission(tid, fe.seq, self.cycle);
        }
    }
}
