//! The multithreaded mechanism's two reversion-to-traditional paths
//! (paper §4.4–4.5), each checked for both the counter and architectural
//! exactness against the reference interpreter:
//!
//! * **No idle context** (`reverted_no_thread`): every context is running
//!   an application thread when a miss arrives, so `spawn_handler_thread`
//!   finds none and the miss falls back to trapping in the faulting thread.
//! * **Window-reservation deadlock avoidance** (`deadlock_squashes`): the
//!   handler thread cannot insert because the window is full of the
//!   master's post-miss instructions, so the machine squashes from the
//!   master's tail to make room — and, when even the tail is the excepting
//!   instruction's own window slots, ultimately reverts.

use smtx_core::{ExnMechanism, Interpreter, Machine, MachineConfig, ThreadState};
use smtx_isa::{PrivReg, Program, ProgramBuilder, Reg};
use smtx_mem::{AddressSpace, PhysAlloc, PhysMem, PAGE_SIZE};

/// The canonical software TLB-miss handler (same routine as
/// `tests/machine.rs`).
fn pal_handler() -> Program {
    let mut b = ProgramBuilder::with_base(0);
    b.mfpr(Reg(1), PrivReg::FaultVa);
    b.mfpr(Reg(2), PrivReg::PtBase);
    b.srli(Reg(3), Reg(1), 13);
    b.slli(Reg(3), Reg(3), 3);
    b.add(Reg(3), Reg(3), Reg(2));
    b.ldq(Reg(4), Reg(3), 0);
    b.andi(Reg(5), Reg(4), 1);
    b.beq(Reg(5), "fault");
    b.tlbwr(Reg(1), Reg(4));
    b.rfe();
    b.label("fault");
    b.hardexc();
    b.rfe();
    b.build().expect("handler assembles")
}

const DATA_BASE: u64 = 0x2000_0000;

/// Strides over `pages` pages, `reps` times, with a dependent sum — every
/// cold page is a DTLB miss, and the post-miss loop body keeps the fetch
/// unit busy filling the window behind the miss.
fn touch_pages(pages: u64, reps: u64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg(10), DATA_BASE);
    b.li(Reg(11), pages * PAGE_SIZE);
    b.li(Reg(14), reps);
    b.label("rep");
    b.li(Reg(12), 0);
    b.li(Reg(13), 0);
    b.label("loop");
    b.add(Reg(1), Reg(10), Reg(12));
    b.ldq(Reg(2), Reg(1), 0);
    b.add(Reg(13), Reg(13), Reg(2));
    b.stq(Reg(13), Reg(1), 8);
    b.addi(Reg(12), Reg(12), 1024);
    b.sub(Reg(3), Reg(12), Reg(11));
    b.blt(Reg(3), "loop");
    b.addi(Reg(14), Reg(14), -1);
    b.bne(Reg(14), "rep");
    b.halt();
    b.build().expect("assembles")
}

fn setup_data(space: &mut AddressSpace, pm: &mut PhysMem, alloc: &mut PhysAlloc, pages: u64) {
    space.map_region(pm, alloc, DATA_BASE, pages);
    for i in 0..pages {
        for off in (0..PAGE_SIZE).step_by(1024) {
            space
                .write_u64(pm, DATA_BASE + i * PAGE_SIZE + off, i * 31 + off)
                .expect("mapped");
        }
    }
}

/// Reference-interpreter run of the same program + data.
fn reference(program: &Program, pages: u64) -> Interpreter {
    let mut pm = PhysMem::new();
    let mut alloc = PhysAlloc::new();
    let mut space = AddressSpace::new(1, &mut pm, &mut alloc);
    let code_pages = ((program.len() as u64 * 4).div_ceil(PAGE_SIZE)).max(1) + 1;
    space.map_region(&mut pm, &mut alloc, program.base() & !(PAGE_SIZE - 1), code_pages);
    for (i, &w) in program.words().iter().enumerate() {
        space.write_u32(&mut pm, program.base() + i as u64 * 4, w).unwrap();
    }
    setup_data(&mut space, &mut pm, &mut alloc, pages);
    let mut interp = Interpreter::new(program.base());
    interp.run(&mut pm, &mut space, u64::MAX).expect("reference runs clean");
    interp
}

/// Both contexts of a 2-context machine run miss-taking application
/// threads: whenever one faults, the other is `Running`, never `Idle`, so
/// every miss must revert to the traditional trap path — and both threads
/// must still be architecturally exact.
#[test]
fn busy_contexts_force_reversion_to_traditional() {
    let pages = 8;
    let pa = touch_pages(pages, 2);
    let pb = touch_pages(pages, 2);
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
    let mut m = Machine::new(config);
    m.install_pal_handler(&pal_handler());
    let sa = m.attach_program(0, &pa);
    {
        let (sp, pm, alloc) = m.vm_parts(sa);
        setup_data(sp, pm, alloc, pages);
    }
    let sb = m.attach_program(1, &pb);
    {
        let (sp, pm, alloc) = m.vm_parts(sb);
        setup_data(sp, pm, alloc, pages);
    }
    m.run(4_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted);
    assert_eq!(m.thread_state(1), ThreadState::Halted);

    let s = m.stats();
    assert!(
        s.reverted_no_thread >= 2 * pages,
        "every cold page on both threads reverts (got {})",
        s.reverted_no_thread
    );
    assert!(s.traps >= 2 * pages, "reversion traps in the faulting thread");
    assert_eq!(s.handlers_spawned, 0, "no context was ever idle");

    let ra = reference(&pa, pages);
    assert_eq!(m.int_regs(0), ra.int_regs(), "thread 0 architectural state");
    let rb = reference(&pb, pages);
    assert_eq!(m.int_regs(1), rb.int_regs(), "thread 1 architectural state");
    assert_eq!(m.stats().retired(0), ra.retired());
    assert_eq!(m.stats().retired(1), rb.retired());
}

/// A tiny window forces the §4.4 deadlock-avoidance path: by the time the
/// handler thread tries to insert, the master has filled the window behind
/// the miss, so the machine must squash from the master's tail — and the
/// result must remain architecturally exact.
#[test]
fn tail_squash_makes_room_for_the_handler_and_stays_exact() {
    let pages = 8;
    let program = touch_pages(pages, 2);
    // 2-wide, 8-entry window: the seven-instruction loop body fills the
    // window behind a miss long before the handler's first fetch arrives.
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded)
        .with_width_window(2, 8)
        .with_threads(2);
    let mut m = Machine::new(config);
    m.install_pal_handler(&pal_handler());
    let space = m.attach_program(0, &program);
    {
        let (sp, pm, alloc) = m.vm_parts(space);
        setup_data(sp, pm, alloc, pages);
    }
    m.run(8_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted);

    let s = m.stats();
    assert!(s.handlers_spawned >= 1, "the idle context takes the handler");
    assert!(
        s.deadlock_squashes >= 1,
        "a full window must trigger the tail squash (spawned {}, squashes {})",
        s.handlers_spawned,
        s.deadlock_squashes
    );

    let r = reference(&program, pages);
    assert_eq!(m.int_regs(0), r.int_regs(), "tail squash must not corrupt state");
    assert_eq!(m.stats().retired(0), r.retired());
}

/// The same tiny-window configuration under the traditional mechanism
/// needs no deadlock handling — the squash-and-refetch trap path is
/// self-clearing — which pins the counter to the multithreaded mechanism.
#[test]
fn traditional_never_needs_the_deadlock_squash() {
    let pages = 8;
    let program = touch_pages(pages, 2);
    let config = MachineConfig::paper_baseline(ExnMechanism::Traditional)
        .with_width_window(2, 8)
        .with_threads(2);
    let mut m = Machine::new(config);
    m.install_pal_handler(&pal_handler());
    let space = m.attach_program(0, &program);
    {
        let (sp, pm, alloc) = m.vm_parts(space);
        setup_data(sp, pm, alloc, pages);
    }
    m.run(8_000_000);
    assert_eq!(m.thread_state(0), ThreadState::Halted);
    assert_eq!(m.stats().deadlock_squashes, 0);
    assert!(m.stats().traps >= pages);
    let r = reference(&program, pages);
    assert_eq!(m.int_regs(0), r.int_regs());
}
