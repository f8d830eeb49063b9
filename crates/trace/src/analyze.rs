//! Offline exception-episode reconstruction and penalty attribution.
//!
//! From a decoded event stream alone (no access to `Stats`), the analyzer
//! rebuilds every exception episode and attributes cycles to the causes of
//! paper §5/Fig. 6, using exact integer interval arithmetic:
//!
//! * **handler occupancy** — cycles a handler had a context: the union of
//!   `[SpliceStart, SpliceEnd)` intervals (spliced handlers; this equals
//!   `Stats::handler_active_cycles` exactly), plus, for the trap path, the
//!   cycles between the first post-trap rename and the `HandlerReturn`
//!   (the handler running *in* the faulting thread);
//! * **squash refill** — cycles a thread spent refilling its pipe after an
//!   exception-caused squash: from a `Trap`/`Deadlock` squash (and again
//!   from `HandlerReturn`, the second refill of paper §3) until the
//!   thread's next rename;
//! * **serialization stall** — remaining cycles during which at least one
//!   exception episode (primary raise → excepting-instruction retirement
//!   or covering squash) was still open: the fill latency and retirement
//!   backup the paper's multithreaded mechanism pays instead of squashes.
//!
//! The three classes are made disjoint in that priority order, so their
//! sum plus a (possibly negative) residual is *exactly* the run's penalty
//! `cycles − perfect.cycles` — the residual measures work the machine
//! overlapped with episodes rather than lost to them.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use smtx_core::{RaiseKind, SquashCause, TraceEvent};

/// Identity of one simulation inside a multi-run trace file (from the
/// writer's `RunStart` marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunId {
    /// Workload kernel index (`u64::MAX` for mixes).
    pub kernel: u64,
    /// Workload seed.
    pub seed: u64,
    /// Per-thread instruction budget.
    pub insts: u64,
    /// Machine configuration digest.
    pub digest: u64,
}

/// Per-type event totals of one segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `Fetch` events.
    pub fetch: u64,
    /// `Rename` events.
    pub rename: u64,
    /// `Issue` events.
    pub issue: u64,
    /// `Writeback` events.
    pub writeback: u64,
    /// `Retire` events.
    pub retire: u64,
    /// `Squash` events (all causes).
    pub squash: u64,
    /// Primary `Raise` events (episode openers).
    pub raise_primary: u64,
    /// Secondary `Raise` events.
    pub raise_secondary: u64,
    /// Re-link `Raise` events.
    pub raise_relink: u64,
    /// `SpliceStart` events.
    pub splice_start: u64,
    /// `SpliceEnd` events.
    pub splice_end: u64,
    /// `Revert` events.
    pub revert: u64,
    /// `HandlerReturn` events.
    pub handler_return: u64,
}

/// The reconstruction and attribution for one run segment.
#[derive(Debug, Clone, Copy)]
pub struct SegmentAnalysis {
    /// The `RunStart` identity, if the writer recorded one.
    pub run: Option<RunId>,
    /// Final cycle (the segment's last `End` event, or the max stamp seen).
    pub end_cycle: u64,
    /// Event totals.
    pub counts: EventCounts,
    /// Exception episodes opened (primary raises).
    pub episodes_opened: u64,
    /// Episodes that closed (retired or squashed) within the segment.
    pub episodes_closed: u64,
    /// Handler-occupancy cycles from splice intervals; equals the run's
    /// `Stats::handler_active_cycles` exactly.
    pub spliced_occupancy: u64,
    /// Handler-occupancy cycles on the trap path (handler running in the
    /// faulting thread, rename → `HandlerReturn`).
    pub trap_occupancy: u64,
    /// Exception-caused pipe-refill cycles.
    pub squash_refill: u64,
    /// Episode-open cycles not already attributed above.
    pub serialization_stall: u64,
}

impl SegmentAnalysis {
    /// Total handler-occupancy cycles (spliced + trap-path).
    #[must_use]
    pub fn handler_occupancy(&self) -> u64 {
        self.spliced_occupancy + self.trap_occupancy
    }

    /// Sum of all attributed cycles.
    #[must_use]
    pub fn attributed(&self) -> u64 {
        self.handler_occupancy() + self.squash_refill + self.serialization_stall
    }

    /// The unattributed remainder of an externally supplied penalty
    /// (`run.cycles − perfect.cycles`); negative when the machine
    /// overlapped attributed cycles with useful work. By construction
    /// `attributed() + residual(p) == p` exactly.
    #[must_use]
    pub fn residual(&self, penalty: i64) -> i64 {
        penalty - self.attributed() as i64
    }

    /// Renders the human-readable report for this segment.
    #[must_use]
    pub fn render(&self, index: usize, penalty: Option<i64>) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        match self.run {
            Some(r) => {
                let _ = writeln!(
                    s,
                    "segment {index}: kernel={} seed={} insts={} digest={:#018x}",
                    if r.kernel == u64::MAX { "mix".to_string() } else { r.kernel.to_string() },
                    r.seed,
                    r.insts,
                    r.digest
                );
            }
            None => {
                let _ = writeln!(s, "segment {index}: (no RunStart marker)");
            }
        }
        let c = &self.counts;
        let _ = writeln!(s, "  cycles                {}", self.end_cycle);
        let _ = writeln!(
            s,
            "  events                fetch={} rename={} issue={} writeback={} retire={}",
            c.fetch, c.rename, c.issue, c.writeback, c.retire
        );
        let _ = writeln!(
            s,
            "                        squash={} raises={}/{}/{} (primary/secondary/relink)",
            c.squash, c.raise_primary, c.raise_secondary, c.raise_relink
        );
        let _ = writeln!(
            s,
            "                        splice={}/{} revert={} handler_return={}",
            c.splice_start, c.splice_end, c.revert, c.handler_return
        );
        let _ = writeln!(
            s,
            "  episodes              {} opened, {} closed",
            self.episodes_opened, self.episodes_closed
        );
        let _ = writeln!(s, "  attribution (cycles)");
        let _ = writeln!(s, "    squash_refill       {}", self.squash_refill);
        let _ = writeln!(
            s,
            "    handler_occupancy   {} (spliced {}, trap-path {})",
            self.handler_occupancy(),
            self.spliced_occupancy,
            self.trap_occupancy
        );
        let _ = writeln!(s, "    serialization_stall {}", self.serialization_stall);
        let _ = writeln!(s, "    attributed          {}", self.attributed());
        if let Some(p) = penalty {
            let _ = writeln!(s, "    penalty             {p}");
            let _ = writeln!(s, "    residual            {}", self.residual(p));
        }
        if let Some(per) = self.attributed().checked_div(self.episodes_opened) {
            let _ = writeln!(s, "    attributed/episode  {per}");
        }
        s
    }
}

// ---- exact interval arithmetic over half-open [start, end) cycles ----

type Iv = (u64, u64);

/// Sorts and merges into disjoint, ascending intervals (empties dropped).
fn merge(mut ivs: Vec<Iv>) -> Vec<Iv> {
    ivs.retain(|&(s, e)| e > s);
    ivs.sort_unstable();
    let mut out: Vec<Iv> = Vec::with_capacity(ivs.len());
    for (s, e) in ivs {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// `a − b` for disjoint sorted interval lists.
fn subtract(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out = Vec::with_capacity(a.len());
    let mut bi = 0;
    for &(mut s, e) in a {
        while s < e {
            // Skip b-intervals entirely before the remaining piece.
            while bi < b.len() && b[bi].1 <= s {
                bi += 1;
            }
            match b.get(bi) {
                Some(&(bs, be)) if bs < e => {
                    if s < bs {
                        out.push((s, bs));
                    }
                    s = be.max(s);
                }
                _ => {
                    out.push((s, e));
                    s = e;
                }
            }
        }
    }
    out
}

fn total(ivs: &[Iv]) -> u64 {
    ivs.iter().map(|&(s, e)| e - s).sum()
}

// ---- per-thread trap-path state machine ----

#[derive(Debug, Clone, Copy)]
enum TrapPhase {
    /// Refilling the pipe after a squash; `occupy_next` marks the
    /// post-trap refill whose first rename starts handler occupancy.
    Refill { open: u64, occupy_next: bool },
    /// Handler instructions in flight in the faulting thread.
    Occupied { open: u64 },
}

#[derive(Debug, Default)]
struct Segment {
    run: Option<RunId>,
    counts: EventCounts,
    end_cycle: u64,
    episodes: BTreeMap<u64, (u64, u64, Option<u64>)>, // seq -> (tid, open, close)
    splice_open: BTreeMap<u64, u64>,                  // handler_tid -> open cycle
    splice_ivs: Vec<Iv>,
    trap_phase: BTreeMap<u64, TrapPhase>, // tid -> phase
    occupy_ivs: Vec<Iv>,
    refill_ivs: Vec<Iv>,
}

impl Segment {
    fn close_phase(&mut self, tid: u64, at: u64) {
        match self.trap_phase.remove(&tid) {
            Some(TrapPhase::Refill { open, .. }) => self.refill_ivs.push((open, at)),
            Some(TrapPhase::Occupied { open }) => self.occupy_ivs.push((open, at)),
            None => {}
        }
    }

    fn feed(&mut self, ev: &TraceEvent) {
        self.end_cycle = self.end_cycle.max(ev.cycle());
        match *ev {
            TraceEvent::Fetch { .. } => self.counts.fetch += 1,
            TraceEvent::Rename { cycle, tid, .. } => {
                self.counts.rename += 1;
                if let Some(&TrapPhase::Refill { open, occupy_next }) = self.trap_phase.get(&tid)
                {
                    self.refill_ivs.push((open, cycle));
                    if occupy_next {
                        self.trap_phase.insert(tid, TrapPhase::Occupied { open: cycle });
                    } else {
                        self.trap_phase.remove(&tid);
                    }
                }
            }
            TraceEvent::Issue { .. } => self.counts.issue += 1,
            TraceEvent::Writeback { .. } => self.counts.writeback += 1,
            TraceEvent::Retire { cycle, seq, .. } => {
                self.counts.retire += 1;
                if let Some(ep) = self.episodes.get_mut(&seq) {
                    if ep.2.is_none() {
                        ep.2 = Some(cycle);
                    }
                }
            }
            TraceEvent::Squash { cycle, tid, from_seq, cause, .. } => {
                self.counts.squash += 1;
                // A squash covering an open episode's excepting instruction
                // closes the episode (the faulting instruction died).
                let to_close: Vec<u64> = self
                    .episodes
                    .iter()
                    .filter(|(&seq, &(etid, _, close))| {
                        close.is_none() && etid == tid && seq >= from_seq
                    })
                    .map(|(&seq, _)| seq)
                    .collect();
                for seq in to_close {
                    if let Some(ep) = self.episodes.get_mut(&seq) {
                        ep.2 = Some(cycle);
                    }
                }
                match cause {
                    SquashCause::Trap => {
                        self.close_phase(tid, cycle);
                        self.trap_phase
                            .insert(tid, TrapPhase::Refill { open: cycle, occupy_next: true });
                    }
                    SquashCause::Deadlock => {
                        self.close_phase(tid, cycle);
                        self.trap_phase
                            .insert(tid, TrapPhase::Refill { open: cycle, occupy_next: false });
                    }
                    SquashCause::Freeze => self.close_phase(tid, cycle),
                    SquashCause::Mispredict => {}
                    // An epoch reset squashes wholesale but opens no trap
                    // phase: its refill cost is a boundary artifact of
                    // interval execution, not exception servicing. Any
                    // episode it covered was closed above; any open trap
                    // phase closes at the reset cycle.
                    SquashCause::Epoch => self.close_phase(tid, cycle),
                }
            }
            TraceEvent::Raise { cycle, tid, seq, kind, .. } => match kind {
                RaiseKind::Primary => {
                    self.counts.raise_primary += 1;
                    self.episodes.entry(seq).or_insert((tid, cycle, None));
                }
                RaiseKind::Secondary => self.counts.raise_secondary += 1,
                RaiseKind::Relink => self.counts.raise_relink += 1,
            },
            TraceEvent::SpliceStart { cycle, handler_tid, .. } => {
                self.counts.splice_start += 1;
                self.splice_open.insert(handler_tid, cycle);
            }
            TraceEvent::SpliceEnd { cycle, handler_tid, .. } => {
                self.counts.splice_end += 1;
                if let Some(open) = self.splice_open.remove(&handler_tid) {
                    self.splice_ivs.push((open, cycle));
                }
            }
            TraceEvent::Revert { .. } => self.counts.revert += 1,
            TraceEvent::HandlerReturn { cycle, tid, .. } => {
                self.counts.handler_return += 1;
                self.close_phase(tid, cycle);
                self.trap_phase
                    .insert(tid, TrapPhase::Refill { open: cycle, occupy_next: false });
            }
            TraceEvent::RunStart { .. } | TraceEvent::End { .. } => {}
        }
    }

    fn finish(mut self) -> SegmentAnalysis {
        let end = self.end_cycle;
        // Close everything still open at the end of the run.
        let open_tids: Vec<u64> = self.trap_phase.keys().copied().collect();
        for tid in open_tids {
            self.close_phase(tid, end);
        }
        for (_, open) in std::mem::take(&mut self.splice_open) {
            self.splice_ivs.push((open, end));
        }
        let mut episodes_closed = 0u64;
        let mut episode_ivs: Vec<Iv> = Vec::with_capacity(self.episodes.len());
        for &(_, open, close) in self.episodes.values() {
            if close.is_some() {
                episodes_closed += 1;
            }
            episode_ivs.push((open, close.unwrap_or(end)));
        }

        // Disjoint classification: splice > trap occupancy > refill >
        // serialization.
        let spliced = merge(std::mem::take(&mut self.splice_ivs));
        let occupied = subtract(&merge(std::mem::take(&mut self.occupy_ivs)), &spliced);
        let mut claimed = merge([spliced.clone(), occupied.clone()].concat());
        let refill = subtract(&merge(std::mem::take(&mut self.refill_ivs)), &claimed);
        claimed = merge([claimed, refill.clone()].concat());
        let serial = subtract(&merge(episode_ivs), &claimed);

        SegmentAnalysis {
            run: self.run,
            end_cycle: end,
            counts: self.counts,
            episodes_opened: self.episodes.len() as u64,
            episodes_closed,
            spliced_occupancy: total(&spliced),
            trap_occupancy: total(&occupied),
            squash_refill: total(&refill),
            serialization_stall: total(&serial),
        }
    }
}

/// Splits a decoded event stream at `RunStart` markers and analyzes each
/// segment independently. Events before the first marker (machine-only
/// traces have no markers at all) form a segment with `run: None`. The
/// stream is read once, so [`crate::codec::events`] can feed it without
/// holding every event.
#[must_use]
pub fn analyze<E: Borrow<TraceEvent>>(events: impl IntoIterator<Item = E>) -> Vec<SegmentAnalysis> {
    let mut out = Vec::new();
    let mut current: Option<Segment> = None;
    for ev in events {
        let ev = ev.borrow();
        if let TraceEvent::RunStart { kernel, seed, insts, digest } = *ev {
            if let Some(seg) = current.take() {
                out.push(seg.finish());
            }
            current = Some(Segment {
                run: Some(RunId { kernel, seed, insts, digest }),
                ..Segment::default()
            });
            continue;
        }
        current.get_or_insert_with(Segment::default).feed(ev);
    }
    if let Some(seg) = current.take() {
        out.push(seg.finish());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_subtract_are_exact() {
        let m = merge(vec![(5, 9), (1, 3), (2, 4), (9, 9)]);
        assert_eq!(m, vec![(1, 4), (5, 9)]);
        assert_eq!(total(&m), 7);
        let d = subtract(&m, &[(2, 6), (8, 20)]);
        assert_eq!(d, vec![(1, 2), (6, 8)]);
        assert_eq!(subtract(&[(0, 10)], &[]), vec![(0, 10)]);
        assert_eq!(subtract(&[(0, 10)], &[(0, 10)]), Vec::<Iv>::new());
        // One b-interval spanning several a-intervals.
        assert_eq!(subtract(&[(0, 2), (3, 5), (6, 8)], &[(1, 7)]), vec![(0, 1), (7, 8)]);
    }

    #[test]
    fn synthetic_episode_attributes_exactly() {
        // A multithreaded-style episode: raise at 10, splice 10..30,
        // excepting instruction retires at 40.
        let events = [
            TraceEvent::Raise {
                cycle: 10,
                tid: 0,
                seq: 7,
                kind: RaiseKind::Primary,
                aux: 3,
            },
            TraceEvent::SpliceStart { cycle: 10, handler_tid: 1, master: 0, exc_seq: 7 },
            TraceEvent::SpliceEnd {
                cycle: 30,
                handler_tid: 1,
                master: 0,
                exc_seq: 7,
                committed: true,
            },
            TraceEvent::Retire { cycle: 40, tid: 0, seq: 7, pc: 0, pal: false },
            TraceEvent::End { cycle: 50 },
        ];
        let segs = analyze(events);
        assert_eq!(segs.len(), 1);
        let s = &segs[0];
        assert_eq!(s.end_cycle, 50);
        assert_eq!(s.episodes_opened, 1);
        assert_eq!(s.episodes_closed, 1);
        assert_eq!(s.spliced_occupancy, 20);
        assert_eq!(s.trap_occupancy, 0);
        assert_eq!(s.squash_refill, 0);
        // Episode [10, 40) minus splice [10, 30) = 10 cycles.
        assert_eq!(s.serialization_stall, 10);
        assert_eq!(s.attributed(), 30);
        assert_eq!(s.residual(35), 5);
        assert_eq!(s.attributed() as i64 + s.residual(35), 35);
    }

    #[test]
    fn trap_path_splits_refill_and_occupancy() {
        // Trap at 10 squashes; handler renames at 14 (refill 10..14), runs
        // until RFE redirects at 25 (occupancy 14..25), user code renames
        // again at 30 (second refill 25..30).
        let events = [
            TraceEvent::Raise { cycle: 10, tid: 0, seq: 5, kind: RaiseKind::Primary, aux: 3 },
            TraceEvent::Squash {
                cycle: 10,
                tid: 0,
                from_seq: 5,
                cause: SquashCause::Trap,
                resume_pc: 0x100,
            },
            TraceEvent::Rename { cycle: 14, tid: 0, seq: 20 },
            TraceEvent::HandlerReturn { cycle: 25, tid: 0, pc: 0x40 },
            TraceEvent::Rename { cycle: 30, tid: 0, seq: 31 },
            TraceEvent::End { cycle: 60 },
        ];
        let s = &analyze(events)[0];
        assert_eq!(s.squash_refill, (14 - 10) + (30 - 25));
        assert_eq!(s.trap_occupancy, 25 - 14);
        assert_eq!(s.spliced_occupancy, 0);
        // The episode closed at the trap squash (cycle 10, zero length).
        assert_eq!(s.episodes_closed, 1);
        assert_eq!(s.serialization_stall, 0);
    }

    #[test]
    fn run_start_markers_split_segments() {
        let events = [
            TraceEvent::RunStart { kernel: 1, seed: 2, insts: 3, digest: 4 },
            TraceEvent::End { cycle: 100 },
            TraceEvent::RunStart { kernel: 5, seed: 6, insts: 7, digest: 8 },
            TraceEvent::End { cycle: 200 },
        ];
        let segs = analyze(events);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].run, Some(RunId { kernel: 1, seed: 2, insts: 3, digest: 4 }));
        assert_eq!(segs[0].end_cycle, 100);
        assert_eq!(segs[1].run, Some(RunId { kernel: 5, seed: 6, insts: 7, digest: 8 }));
        assert_eq!(segs[1].end_cycle, 200);
    }
}
