//! Golden-trace fixtures: one per exception model and exception entry
//! path, captured from a fixed program and seed, byte-compared against
//! `tests/golden/*.bin`.
//!
//! Any change to event emission order, event contents, or the binary
//! encoding shows up here as a fixture diff. When a change is
//! *intentional*, regenerate with:
//!
//! ```text
//! SMTX_TRACE_BLESS=1 cargo test -p smtx-trace --test golden
//! ```
//!
//! and review the new fixtures like any other diff.

use std::path::PathBuf;

use smtx_core::{
    ExnMechanism, LimitKnobs, Machine, MachineConfig, RaiseKind, Stats, ThreadState, TraceEvent,
    VecSink,
};
use smtx_isa::{Program, ProgramBuilder, Reg};
use smtx_trace::codec;
use smtx_workloads::{emul_divu_handler, load_kernel, pal_handler, Kernel};

/// Small enough to keep fixtures a few hundred KiB, large enough that
/// every kernel row takes primary TLB misses (asserted below).
const INSTS: u64 = 2_000;
const SEED: u64 = 42;

/// What a fixture row runs on context 0.
#[derive(Clone, Copy)]
enum Workload {
    /// The Compress kernel for `INSTS` retirements: a TLB-miss stream.
    Compress,
    /// A short chain of `DIVU`s run to `HALT`: an emulation stream
    /// (paper §6).
    Divide,
}

/// One fixture: a machine, what it runs, and the exception path the run
/// must take (named counter, required non-zero) so the fixture cannot
/// silently stop covering it.
struct Row {
    name: &'static str,
    config: MachineConfig,
    workload: Workload,
    fired: (&'static str, fn(&Stats) -> u64),
}

/// The fixture rows. The first four are the exception models: the
/// traditional trap, the paper's multithreaded splice, quick-start, and the
/// hardware page walker. The rest pin the other entry paths: emulated
/// `DIVU` under both handler-thread mechanisms, the Table 3 instant-fetch
/// limit, and a machine with no spare context, where every miss reverts
/// to the traditional trap.
fn rows() -> Vec<Row> {
    let base = MachineConfig::paper_baseline;
    let instant = LimitKnobs { instant_handler_fetch: true, ..LimitKnobs::default() };
    vec![
        Row {
            name: "traditional",
            config: base(ExnMechanism::Traditional),
            workload: Workload::Compress,
            fired: ("traps", |s| s.traps),
        },
        Row {
            name: "multithreaded",
            config: base(ExnMechanism::Multithreaded),
            workload: Workload::Compress,
            fired: ("handlers_spawned", |s| s.handlers_spawned),
        },
        Row {
            name: "quick_start",
            config: base(ExnMechanism::QuickStart),
            workload: Workload::Compress,
            fired: ("handlers_spawned", |s| s.handlers_spawned),
        },
        Row {
            name: "hardware",
            config: base(ExnMechanism::Hardware),
            workload: Workload::Compress,
            fired: ("walks_started", |s| s.walks_started),
        },
        Row {
            name: "emulate_multithreaded",
            config: base(ExnMechanism::Multithreaded).with_emulated_divu(),
            workload: Workload::Divide,
            fired: ("emulations_spawned", |s| s.emulations_spawned),
        },
        Row {
            name: "emulate_quick_start",
            config: base(ExnMechanism::QuickStart).with_emulated_divu(),
            workload: Workload::Divide,
            fired: ("emulations_spawned", |s| s.emulations_spawned),
        },
        Row {
            name: "instant_fetch",
            config: base(ExnMechanism::Multithreaded).with_limits(instant),
            workload: Workload::Compress,
            fired: ("handlers_spawned", |s| s.handlers_spawned),
        },
        Row {
            name: "no_idle_context",
            config: base(ExnMechanism::Multithreaded).with_threads(1),
            workload: Workload::Compress,
            fired: ("reverted_no_thread", |s| s.reverted_no_thread),
        },
    ]
}

/// Back-to-back divides with a little independent work after each, so a
/// later `DIVU` can find the one spare context still busy.
fn divide_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg(10), 0);
    for (a, d) in [(100, 7), (u64::MAX, 3), (5, 9), (17, 0)] {
        b.li(Reg(1), a);
        b.li(Reg(2), d);
        b.divu(Reg(3), Reg(1), Reg(2));
        b.add(Reg(10), Reg(10), Reg(3));
        b.addi(Reg(4), Reg(4), 7);
        b.xor(Reg(5), Reg(5), Reg(4));
    }
    b.halt();
    b.build().expect("divide program assembles")
}

fn capture(row: &Row) -> Vec<TraceEvent> {
    let mut m = Machine::new(row.config.clone());
    match row.workload {
        Workload::Compress => {
            load_kernel(&mut m, 0, Kernel::Compress, SEED);
            m.set_budget(0, INSTS);
        }
        Workload::Divide => {
            m.install_pal_handler(&pal_handler());
            m.install_emul_handler(&emul_divu_handler());
            m.attach_program(0, &divide_program());
        }
    }
    m.set_tracer(Some(Box::new(VecSink::default())));
    m.run(10_000_000);
    match row.workload {
        Workload::Compress => {
            assert_eq!(m.stats().retired(0), INSTS, "{}: fixture run must finish", row.name);
        }
        Workload::Divide => {
            assert_eq!(m.thread_state(0), ThreadState::Halted, "{}: must halt", row.name);
        }
    }
    let (counter, read) = row.fired;
    assert!(read(m.stats()) > 0, "{}: the fixture run must exercise {counter}", row.name);
    m.take_tracer().expect("tracer attached above").take_events()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.bin"))
}

#[test]
fn golden_traces_are_byte_stable() {
    let bless = std::env::var_os("SMTX_TRACE_BLESS").is_some();
    for row in rows() {
        let name = row.name;
        let events = capture(&row);
        if matches!(row.workload, Workload::Compress) {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Raise { kind: RaiseKind::Primary, .. })),
                "{name}: the fixture window must exercise the exception path"
            );
        }
        let bytes = codec::encode(&events);
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
            std::fs::write(&path, &bytes).expect("write fixture");
            eprintln!("blessed {} ({} bytes)", path.display(), bytes.len());
            continue;
        }
        let want = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun `SMTX_TRACE_BLESS=1 cargo test -p smtx-trace --test golden` \
                 to (re)generate the fixtures",
                path.display()
            )
        });
        // Compare decoded events first: a mismatch names the first
        // divergent event instead of dumping two binary blobs.
        let want_events = codec::decode(&want).expect("fixture decodes");
        if let Some(i) = (0..events.len().max(want_events.len()))
            .find(|&i| events.get(i) != want_events.get(i))
        {
            panic!(
                "{name}: trace diverged from fixture at event {i}:\n  fixture: {:?}\n  \
                 current: {:?}\n(bless to accept an intentional change)",
                want_events.get(i),
                events.get(i)
            );
        }
        assert_eq!(bytes, want, "{name}: same events, different encoding");
    }
}

#[test]
fn golden_traces_differ_across_models() {
    // Every row takes a different exception path; identical fixtures
    // would mean the tracer is blind to the path.
    let rows = rows();
    let encoded: Vec<Vec<u8>> = rows.iter().map(|row| codec::encode(&capture(row))).collect();
    for i in 0..encoded.len() {
        for j in i + 1..encoded.len() {
            assert_ne!(
                encoded[i], encoded[j],
                "{} and {} produced identical traces",
                rows[i].name, rows[j].name
            );
        }
    }
}
