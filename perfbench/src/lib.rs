//! # smtx-perfbench — the repository benchmark
//!
//! One command runs a named workload for a fixed time, checks that every
//! output is correct, and prints the end-to-end metrics (untraced run) or
//! the per-layer metrics (traced run) as the last line of standard output.
//! `BENCHMARK.json` at the repository root names the workloads and the
//! metrics, and says why each was chosen.
//!
//! The layers are driven from outside, through their public functions
//! only: `smtx_bench::figures` on a fresh `Runner` for the figure
//! workloads, an in-process `smtx-coord` over two `smtxd` nodes for the
//! served workload, and — for the per-layer numbers — a serial replay of
//! every unique simulation point through `make_checkpoint*`,
//! `Machine::{new,restore,run}`, `Checkpoint::arch_misses_in_window` and
//! `Report::to_json`, with spans recorded around each call.

#![warn(missing_docs)]

pub mod figure;
pub mod out;
pub mod replay;
pub mod served;
pub mod spans;
pub mod sys;

use std::time::Instant;

use figure::{Figure, FIGURES};
use out::{median, percentile, Metrics};
use replay::Counts;
use spans::{Ledger, Tracer};

/// Set-up samples taken per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["fig5_detailed", "fig5_fastforward", "fig7_smt", "served"];

/// What one run reports: the verdict, the counts, the metrics, and
/// informational lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its reference and every check held.
    pub correct: bool,
    /// Operations attempted (figure runs, or served jobs).
    pub attempted: u64,
    /// Operations that failed: wrong rows or bytes, errors, timeouts.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
    /// Human-readable lines (each one JSON object) describing the run.
    pub info: Vec<String>,
}

/// Runs `workload` with inputs drawn from `seed`, measuring for about
/// `seconds`; `trace` selects the per-layer (traced) run.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if workload == "served" {
        return Ok(served::run(seed, seconds, trace));
    }
    let fig = FIGURES.iter().find(|f| f.name == workload).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        )
    })?;
    Ok(if trace {
        figure_traced(fig)
    } else {
        figure_timed(fig, seconds)
    })
}

fn setup_median(fig: &Figure) -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| figure::setup_time(fig).as_secs_f64())
        .collect();
    median(&samples)
}

/// The untraced run: repeated end-to-end figure runs, each on a fresh
/// runner, until the time is up.
fn figure_timed(fig: &Figure, seconds: f64) -> Outcome {
    let golden = figure::golden(fig.name);
    let setup_s = setup_median(fig);
    let start = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut o = Outcome::default();
    // A figure binary runs the experiment once per process, so its peak
    // memory is the peak after the first run; later runs only add
    // allocator reuse noise to a process-lifetime high-water mark.
    let mut peak_rss = None;
    loop {
        let pass = figure::run_pass(fig, figure::KERNEL_SEED);
        peak_rss.get_or_insert_with(sys::peak_rss_mib);
        o.attempted += 1;
        if !figure::rows_ok(fig, golden, &pass.report) {
            o.failed += 1;
        }
        walls.push(pass.wall.as_secs_f64());
        cpus.push(pass.cpu.as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    let m = &mut o.metrics;
    m.put("peak_rss_mb", peak_rss.expect("at least one run"));
    m.put("wall_s", median(&walls));
    m.put("cpu_s", median(&cpus));
    m.put("setup_s", setup_s);
    m.put(
        "ok_share",
        (o.attempted - o.failed) as f64 / o.attempted as f64,
    );
    m.put("job_p50_ms", median(&walls) * 1e3);
    m.put("job_p99_ms", percentile(&walls, 99.0) * 1e3);
    m.put("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    o.correct = o.failed == 0;
    o.info.push(format!(
        "{{\"workload\": \"{}\", \"kernel_seed\": {}, \"runs\": {}, \"golden\": {}}}",
        fig.name,
        figure::KERNEL_SEED,
        walls.len(),
        golden.is_some()
    ));
    o
}

/// Records the replay-side per-layer metrics shared by every workload.
pub fn put_replay_metrics(m: &mut Metrics, c: &Counts, tracer: &Tracer, ledger: &Ledger) {
    let loop_s = tracer.total_s("core.machine/run");
    let capture_s = tracer.total_s("core.refmodel/capture");
    m.put("ff.capture_s", capture_s);
    m.put("ff.capture_insts", c.capture_insts as f64);
    m.put(
        "ff.ns_per_inst",
        ratio(capture_s * 1e9, c.capture_insts as f64),
    );
    m.put("ref.sweep_s", tracer.total_s("core.refmodel/sweep"));
    m.put("ref.insts", c.ref_insts as f64);
    m.put("ck.restore_s", tracer.total_s("core.checkpoint/restore"));
    m.put("ck.restores", c.restores as f64);
    m.put("ck.bytes", c.ck_bytes as f64);
    m.put("cycle.loop_s", loop_s);
    m.put("cycle.machine_new_s", tracer.total_s("core.machine/new"));
    m.put("cycle.machine_drop_s", tracer.total_s("core.machine/drop"));
    m.put("cycle.sims", c.sims as f64);
    m.put("cycle.stepped", c.stepped as f64);
    m.put("cycle.skipped", c.skipped as f64);
    m.put(
        "cycle.skip_share",
        ratio(c.skipped as f64, (c.stepped + c.skipped) as f64),
    );
    m.put(
        "cycle.ns_per_stepped",
        ratio(loop_s * 1e9, c.stepped as f64),
    );
    m.put(
        "cycle.ns_per_retired",
        ratio(loop_s * 1e9, (c.retired_user + c.retired_pal) as f64),
    );
    m.put("cycle.fetched", c.fetched as f64);
    m.put("cycle.issued", c.issued as f64);
    m.put("cycle.squashed", c.squashed as f64);
    m.put("cycle.retired_user", c.retired_user as f64);
    m.put("cycle.retired_pal", c.retired_pal as f64);
    m.put(
        "cycle.useful_share",
        ratio((c.retired_user + c.retired_pal) as f64, c.fetched as f64),
    );
    m.put(
        "cycle.handler_active_cycles",
        c.handler_active_cycles as f64,
    );
    m.put("report.to_json_s", tracer.total_s("bench.report/to_json"));
    m.put("ledger.wall_s", ledger.wall_ns as f64 * 1e-9);
    m.put("ledger.residual_s", ledger.residual_ns as f64 * 1e-9);
    for (share, self_s, layer) in [
        (
            "layer.core.refmodel.share",
            "layer.core.refmodel.self_s",
            "core.refmodel",
        ),
        (
            "layer.core.checkpoint.share",
            "layer.core.checkpoint.self_s",
            "core.checkpoint",
        ),
        (
            "layer.core.machine.share",
            "layer.core.machine.self_s",
            "core.machine",
        ),
    ] {
        m.put(share, ledger.share(layer));
        m.put(
            self_s,
            ledger.layers.get(layer).copied().unwrap_or(0) as f64 * 1e-9,
        );
    }
    m.put("layer.bench.report.share", ledger.share("bench.report"));
}

/// Records the runner's cache counters.
pub fn put_runner_metrics(m: &mut Metrics, s: &smtx_bench::runner::RunnerStats) {
    m.put("runner.unique_runs", s.unique_runs as f64);
    m.put("runner.cache_hits", s.cache_hits as f64);
    m.put(
        "runner.hit_share",
        ratio(s.cache_hits as f64, (s.cache_hits + s.unique_runs) as f64),
    );
    m.put("runner.checkpoint_hits", s.checkpoint_hits as f64);
    m.put(
        "runner.lock_waits_slow",
        s.lock_wait_ms_hist[1..].iter().sum::<u64>() as f64,
    );
}

/// A one-line JSON description of a ledger.
#[must_use]
pub fn ledger_info(ledger: &Ledger) -> String {
    let layers: Vec<String> = ledger
        .layers
        .iter()
        .map(|(l, ns)| format!("\"{l}\": {}", *ns as f64 * 1e-9))
        .collect();
    format!(
        "{{\"ledger\": {{\"wall_s\": {}, \"residual_s\": {}, \"closes\": {}, \"dominant\": \"{}\", \"self_s\": {{{}}}}}}}",
        ledger.wall_ns as f64 * 1e-9,
        ledger.residual_ns as f64 * 1e-9,
        ledger.closes(),
        ledger.dominant().unwrap_or("none"),
        layers.join(", ")
    )
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: one untraced end-to-end figure run (for the runner's
/// counters and the reference rows), then the replay twice — untraced and
/// traced — so the tracing overhead is measured on identical work.
fn figure_traced(fig: &Figure) -> Outcome {
    let seed = figure::KERNEL_SEED;
    let golden = figure::golden(fig.name);
    let pass = figure::run_pass(fig, seed);
    let mut plain = Tracer::new(false);
    let untraced = figure::replay_figure(fig, seed, &mut plain);
    let mut tracer = Tracer::new(true);
    let traced = figure::replay_figure(fig, seed, &mut tracer);
    let ledger = tracer.ledger();

    let rows = pass.report.rows_json();
    let checks = [
        (
            "rows_match_golden",
            figure::rows_ok(fig, golden, &pass.report),
        ),
        ("replay_rows_match", traced.report.rows_json() == rows),
        (
            "untraced_replay_rows_match",
            untraced.report.rows_json() == rows,
        ),
        (
            "replay_covers_unique_points",
            traced.unique_points as u64 == pass.runner.unique_runs,
        ),
        ("ledger_closes", ledger.closes()),
    ];
    let mut o = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    o.failed = u64::from(!checks[0].1) + u64::from(!checks[1].1) + u64::from(!checks[2].1);
    o.correct = checks.iter().all(|&(_, ok)| ok);
    let m = &mut o.metrics;
    put_replay_metrics(m, &traced.counts, &tracer, &ledger);
    put_runner_metrics(m, &pass.runner);
    let busy = pass.cpu.as_secs_f64() / (pass.jobs as f64 * pass.wall.as_secs_f64());
    m.put("runner.pool_idle_share", (1.0 - busy).max(0.0));
    m.put("report.bytes", traced.report_bytes as f64);
    m.put("ledger.unique_points", traced.unique_points as f64);
    m.put(
        "trace.overhead_share",
        traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
    );
    o.info.push(ledger_info(&ledger));
    let verdicts: Vec<String> = checks
        .iter()
        .map(|(n, ok)| format!("\"{n}\": {ok}"))
        .collect();
    o.info
        .push(format!("{{\"checks\": {{{}}}}}", verdicts.join(", ")));
    o
}
