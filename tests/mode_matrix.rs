//! The mode matrix: every engine mode leaves the figure rows byte-identical.
//!
//! The paper's result is the ordering of its penalty-per-miss rows, and
//! every mode the engine has grown is allowed only because it moves no row:
//! the checkpoint cache, idle-cycle skipping, interval chunks, the `--check`
//! sanitizer, tracing, the worker pool and the `smtxd` service. This file
//! is the one place that property is held. Each cell of [`CELLS`] runs a
//! figure from `figures::ALL` on a fresh runner (or a fresh in-process
//! `smtxd`) and must produce `Report::rows_json()` byte-identical to the
//! figure's baseline: jobs 1, the default engine, the same insts/seed/skip.
//!
//! `cargo test --test mode_matrix` runs a cheap slice (fig5, fig7, table2
//! at `--insts 500 --skip 2000`); `cargo test --release --test mode_matrix
//! -- --include-ignored` adds the sweep of every figure over every cell,
//! and of fig2/fig5/fig7 over the interval cells at [`INTERVAL_INSTS`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use smtx_bench::{epoch_len, figures, plan_boundaries, Args, Experiment, Runner, EPOCH_MIN_WINDOW};
use smtx_serve::{http::client_request, server, Json, ServiceConfig};
use smtx_trace::{analyze, codec};
use smtx_workloads::Kernel;

const SEED: u64 = 42;

/// The sweep's interval budget. fig2's and fig5's scaled windows are then
/// all ≥ 96 000 instructions, so every one is cut into 8 chunks of whole
/// epochs longer than the 5 000-instruction floor: the schedule the
/// smaller budgets, whose epochs sit on the floor, never reach.
const INTERVAL_INSTS: u64 = 96_000;

/// One engine mode. `ff` runs after the budget's fast-forward (else from
/// instruction zero); `checkpoint: false` builds a fresh checkpoint per run
/// (at skip 0, loads kernels directly); `idle_skip: false` steps every
/// cycle; `served` submits to an in-process `smtxd` over loopback.
#[derive(Debug, Clone, Copy)]
struct Cell {
    name: &'static str,
    ff: bool,
    checkpoint: bool,
    idle_skip: bool,
    intervals: u64,
    check: bool,
    traced: bool,
    jobs: usize,
    served: bool,
}

/// The baseline every cell is compared against, at the cell's skip.
#[rustfmt::skip]
const BASE: Cell = Cell {
    name: "baseline", ff: true, checkpoint: true, idle_skip: true, intervals: 1,
    check: false, traced: false, jobs: 1, served: false,
};

/// The cell table.
#[rustfmt::skip]
const CELLS: [Cell; 14] = [
    // The cache-bypass path: kernels are loaded, not restored.
    Cell { name: "checkpoint off, skip 0", ff: false, checkpoint: false, ..BASE },
    // Serial, a fresh checkpoint per run, every cycle stepped: the
    // oracle with no optimisation left on.
    Cell { name: "checkpoint off + idle-skip off", checkpoint: false, idle_skip: false, ..BASE },
    Cell { name: "intervals 8, skip 0", ff: false, intervals: 8, ..BASE },
    Cell { name: "intervals 8", intervals: 8, ..BASE },
    Cell { name: "check on", check: true, ..BASE },
    Cell { name: "traced", traced: true, ..BASE },
    Cell { name: "traced + intervals 8", traced: true, intervals: 8, ..BASE },
    Cell { name: "jobs 4", jobs: 4, ..BASE },
    Cell { name: "served", served: true, ..BASE },
    // The last five run for fig5 only in the sweep (in the slice, the
    // oracle cell above already fails if either fast path alone is off).
    Cell { name: "checkpoint off", checkpoint: false, ..BASE },
    Cell { name: "idle-skip off", idle_skip: false, ..BASE },
    // From instruction zero, cold: fig5_asm's whole programs to HALT.
    Cell { name: "traced, skip 0", ff: false, traced: true, ..BASE },
    Cell { name: "check on, skip 0", ff: false, check: true, ..BASE },
    Cell { name: "check on + intervals 8", check: true, intervals: 8, ..BASE },
];

/// The windows `--intervals` can cut in `figure` at `insts`: each penalty
/// figure's per-kernel budget (scaled up to `MIN_MISSES`), or each
/// assembled program's instructions to `HALT` past the fast-forward.
/// fig7's mixes and table2's reference runs are never cut, at any budget;
/// there the intervals cells show that the knob is inert.
fn cuttable_windows(figure: &str, runner: &Runner, insts: u64) -> Vec<u64> {
    match figure {
        "fig7" | "table2" => Vec::new(),
        "fig5_asm" => smtx_workloads::asm_kernels()
            .iter()
            .map(|k| k.halting_insts().expect("asm kernels halt") - runner.skip())
            .collect(),
        _ => runner.insts_map(&Kernel::ALL, SEED, insts),
    }
}

/// Runs `figure` at `(insts, skip)` under `cell` and returns its rows,
/// after the cell's own checks.
fn rows(figure: &str, insts: u64, skip: u64, cell: &Cell) -> String {
    if cell.served {
        return served_rows(figure, insts, skip);
    }
    // One file per (figure, budget, cell): the sweep runs fig2, fig5 and
    // fig7 at two budgets at once.
    let cell_tag = cell.name.replace(|c: char| !c.is_ascii_alphanumeric(), "-");
    let name = format!("smtx-matrix-{}-{figure}-{insts}-{skip}-{cell_tag}", std::process::id());
    let trace = cell.traced.then(|| std::env::temp_dir().join(name));
    let runner = Arc::new(
        Runner::new(cell.jobs)
            .with_skip(skip)
            .with_checkpoint_cache(cell.checkpoint)
            .with_idle_skip(cell.idle_skip)
            .with_intervals(cell.intervals)
            .with_check(cell.check)
            .with_trace(trace.clone()),
    );
    let args = Args { insts, seed: SEED, ..Args::default() };
    let mut exp = Experiment::on_runner(figure, args, Arc::clone(&runner)).quiet();
    assert!(figures::run_named(figure, &mut exp), "{figure} is in figures::ALL");
    let report = exp.into_report();
    assert!(!report.rows.is_empty(), "{figure} [{}] printed no rows", cell.name);

    if cell.intervals > 1 {
        // Windows below EPOCH_MIN_WINDOW get no epoch schedule and run
        // whole. At INTERVAL_INSTS every window must be cut into
        // `intervals` chunks of epochs above the floor, else at least one
        // window must be cut at all.
        let windows = cuttable_windows(figure, &runner, insts);
        let above_floor = |&w: &u64| {
            let chunks = plan_boundaries(w, cell.intervals, epoch_len(w)).len() as u64 + 1;
            epoch_len(w) > epoch_len(EPOCH_MIN_WINDOW) && chunks == cell.intervals
        };
        let cut = if insts >= INTERVAL_INSTS {
            windows.iter().all(above_floor)
        } else {
            windows.is_empty() || windows.iter().any(|&w| w >= EPOCH_MIN_WINDOW)
        };
        assert!(cut, "{figure} [{}]: windows {windows:?} are not cut as required", cell.name);
    }
    if let Some(path) = trace {
        let bytes = std::fs::read(&path).unwrap_or_default();
        let _ = std::fs::remove_file(&path);
        // table2 runs only the reference interpreter: nothing to trace.
        if report.runner.sim_cycles > 0 {
            // Streamed: a trace at INTERVAL_INSTS runs to hundreds of MB.
            let events = codec::events(&bytes).expect("trace magic");
            let segments = analyze(events.map(|e| e.unwrap_or_else(|e| panic!("bad trace: {e}"))));
            assert!(!segments.is_empty(), "{figure} [{}]: empty trace", cell.name);
        } else {
            assert!(bytes.is_empty(), "{figure} [{}]: traced without simulating", cell.name);
        }
    }
    report.rows_json()
}

/// Runs `figure` on a fresh in-process `smtxd` fast-forwarding `skip`
/// instructions, submitted over loopback, and returns the served rows.
fn served_rows(figure: &str, insts: u64, skip: u64) -> String {
    let config = ServiceConfig { workers: 1, runner_jobs: 1, skip, ..ServiceConfig::default() };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(600);
    let spec = format!(r#"{{"experiment": "{figure}", "insts": {insts}, "seed": {SEED}}}"#);
    let submitted = client_request(&addr, "POST", "/v1/jobs", Some(&spec), timeout).expect("POST");
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let id = Json::parse(&submitted.body).ok().and_then(|v| Some(v.get("id")?.as_str()?.into()));
    let id: String = id.expect("job id");
    handle.service().wait_job(&id, timeout).expect("known job");
    let path = format!("/v1/jobs/{id}/result");
    let result = client_request(&addr, "GET", &path, None, timeout).expect("GET");
    assert_eq!(result.status, 200, "served {figure}: {}", result.body);
    handle.shutdown_and_join();
    let result = result.body;
    // The result is `Report::to_json()`, whose tail is `rows_json()`.
    let at = result.find("  \"columns\": ").expect("served result has rows");
    result[at..].strip_suffix("}\n").expect("report ends the object").to_string()
}

/// The baseline rows of `figure` at `(insts, skip)`, computed once for all
/// the tests of this file (one needing a baseline another is computing
/// waits for it).
fn baseline(figure: &'static str, insts: u64, skip: u64) -> String {
    type Slots = BTreeMap<(&'static str, u64, u64), Arc<OnceLock<String>>>;
    static BASELINES: Mutex<Slots> = Mutex::new(BTreeMap::new());
    let slot =
        Arc::clone(BASELINES.lock().expect("baselines").entry((figure, insts, skip)).or_default());
    slot.get_or_init(|| rows(figure, insts, skip, &BASE)).clone()
}

/// Runs `figure` under each of `cells` against its baseline at the cell's
/// skip (`skip` for the `ff` cells, else 0).
fn check(figure: &'static str, insts: u64, skip: u64, cells: &[Cell]) {
    for cell in cells {
        let skip = if cell.ff { skip } else { 0 };
        let (want, got) = (baseline(figure, insts, skip), rows(figure, insts, skip, cell));
        assert!(
            got == want,
            "{figure} --insts {insts} --skip {skip}: [{}] changed the rows\n\
             baseline:\n{want}\ncell:\n{got}",
            cell.name
        );
    }
}

// The tier-1 slice. At `--insts 500 --skip 2000` fig5's scaled windows
// span 2.1k–30k instructions, so intervals cut six of the eight kernels
// while compress (~2.3k) keeps the no-epoch-schedule path. fig5's cells
// (each run ~8 s at opt-level 1) are split over two tests so the harness
// runs them on two threads; its last five cells are left to the sweep.

#[test]
fn fig5_rows_are_identical_across_engine_paths() {
    check("fig5", 500, 2_000, &CELLS[..4]);
}

#[test]
fn fig5_rows_are_identical_under_observers_and_front_ends() {
    check("fig5", 500, 2_000, &CELLS[4..9]);
}

#[test]
fn fig7_and_table2_rows_are_identical_in_every_cell() {
    check("fig7", 500, 2_000, &CELLS);
    check("table2", 500, 2_000, &CELLS);
}

/// Every figure over every cell, one thread per figure, and alongside, on
/// one more thread (one trace of hundreds of megabytes at a time), fig2,
/// fig5 and fig7 over the interval cells at [`INTERVAL_INSTS`].
#[test]
#[ignore = "minutes in release; CI's mode-matrix job runs it"]
fn every_figure_rows_are_identical_in_every_cell() {
    let interval_cells: Vec<Cell> = CELLS.into_iter().filter(|c| c.intervals > 1).collect();
    std::thread::scope(|s| {
        for figure in figures::ALL {
            s.spawn(move || check(figure, 8_000, 20_000, &CELLS));
        }
        s.spawn(|| {
            for figure in ["fig2", "fig5", "fig7"] {
                check(figure, INTERVAL_INSTS, 20_000, &interval_cells);
            }
        });
    });
}
