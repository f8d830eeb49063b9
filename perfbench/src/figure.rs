//! The figure workloads: a paper figure run end to end on a fresh
//! `Runner`, exactly as its binary runs it, checked against rows captured
//! at the commit that defined the benchmark.

use std::time::{Duration, Instant};

use smtx_bench::runner::RunnerStats;
use smtx_bench::{figures, Args, Experiment, Report};

use crate::replay::{self, Counts, Replay};
use crate::spans::Tracer;
use crate::sys::process_cpu;

/// One figure workload: which experiment, at which budget and skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Experiment run (`fig5` or `fig7`).
    pub experiment: &'static str,
    /// Per-thread instruction budget (`--insts`).
    pub insts: u64,
    /// Functional fast-forward per thread (`--skip`).
    pub skip: u64,
}

/// The figure workloads.
pub const FIGURES: [Figure; 3] = [
    Figure {
        name: "fig5_detailed",
        experiment: "fig5",
        insts: 300_000,
        skip: 0,
    },
    Figure {
        name: "fig5_fastforward",
        experiment: "fig5",
        insts: 20_000,
        skip: 40_000_000,
    },
    Figure {
        name: "fig7_smt",
        experiment: "fig7",
        insts: 100_000,
        skip: 0,
    },
];

/// The kernel seed of every figure workload: the figure binaries'
/// default. The kernel seed changes how much work a figure is (budgets
/// scale with each kernel's miss density), so a figure workload runs the
/// same inputs under every benchmark `--seed`.
pub const KERNEL_SEED: u64 = 42;

/// The golden files, one per workload: a `# seed N` line followed by the
/// `rows_json` text of the run at [`KERNEL_SEED`].
const GOLDEN: [(&str, &str); 3] = [
    ("fig5_detailed", include_str!("../golden/fig5_detailed.txt")),
    (
        "fig5_fastforward",
        include_str!("../golden/fig5_fastforward.txt"),
    ),
    ("fig7_smt", include_str!("../golden/fig7_smt.txt")),
];

/// Formats one golden block: a `# key` line, then the rows.
#[must_use]
pub fn golden_block(key: &str, rows_json: &str) -> String {
    format!("# {key}\n{rows_json}")
}

/// Finds the rows stored under `key` in a golden file's text.
#[must_use]
pub fn golden_rows<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let header = format!("# {key}\n");
    let at = if text.starts_with(&header) {
        0
    } else {
        text.find(&format!("\n{header}"))? + 1
    };
    let start = at + header.len();
    let len = text[start..]
        .find("\n# ")
        .map_or(text.len() - start, |i| i + 1);
    Some(&text[start..start + len])
}

/// The golden key of a figure run.
#[must_use]
pub fn golden_key() -> String {
    format!("seed {KERNEL_SEED}")
}

/// The golden rows of `workload`.
#[must_use]
pub fn golden(workload: &str) -> Option<&'static str> {
    let (_, text) = GOLDEN.iter().find(|(w, _)| *w == workload)?;
    golden_rows(text, &golden_key())
}

/// Whether a report's rows are byte-identical to the golden rows (a
/// missing golden never matches).
#[must_use]
pub fn rows_match(golden: Option<&str>, report: &Report) -> bool {
    golden == Some(report.rows_json().as_str())
}

/// The correctness gate of one figure run: golden rows and paper ordering.
#[must_use]
pub fn rows_ok(fig: &Figure, golden: Option<&str>, report: &Report) -> bool {
    rows_match(golden, report) && ordering_holds(fig.experiment, report)
}

/// Whether a report's average row keeps the paper's ordering: Fig. 5
/// traditional > multi(1) ≥ multi(3) > hardware; Fig. 7 traditional above
/// both multithreaded columns and hardware the cheapest.
#[must_use]
pub fn ordering_holds(experiment: &str, report: &Report) -> bool {
    let Some((label, avg)) = report.rows.last() else {
        return false;
    };
    if label != "average" || avg.len() != 4 {
        return false;
    }
    match experiment {
        "fig5" => avg[0] > avg[1] && avg[1] >= avg[2] && avg[2] > avg[3],
        "fig7" => avg[0] > avg[1] && avg[0] > avg[2] && avg[3] < avg[1] && avg[3] < avg[2],
        _ => false,
    }
}

/// The experiment frame a figure binary builds: arguments plus a fresh
/// runner on every core.
fn frame(fig: &Figure, seed: u64) -> Experiment {
    let args = Args {
        insts: fig.insts,
        seed,
        skip: fig.skip,
        ..Args::default()
    };
    Experiment::with_args(fig.experiment, args).quiet()
}

/// Builds timed per set-up sample: one build takes tens of microseconds,
/// so a sample is the mean of this many.
pub const SETUP_REPS: u32 = 100;

/// Time to build the experiment frame (the runner included), the set-up a
/// figure binary pays before its first simulation: the mean over
/// [`SETUP_REPS`] builds.
#[must_use]
pub fn setup_time(fig: &Figure) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let exp = std::hint::black_box(frame(fig, KERNEL_SEED));
        total += t0.elapsed();
        drop(exp);
    }
    total / SETUP_REPS
}

/// One untraced end-to-end run of a figure.
pub struct Pass {
    /// Experiment start to rows emitted.
    pub wall: Duration,
    /// Process CPU over the same interval.
    pub cpu: Duration,
    /// Worker-pool size of the runner.
    pub jobs: usize,
    /// The runner's cache counters after the run.
    pub runner: RunnerStats,
    /// The finished report.
    pub report: Report,
}

/// Runs `fig` once on a fresh runner.
///
/// # Panics
///
/// Panics if the experiment name is unknown (a bug in [`FIGURES`]).
#[must_use]
pub fn run_pass(fig: &Figure, seed: u64) -> Pass {
    let mut exp = frame(fig, seed);
    let jobs = exp.runner.jobs();
    let (cpu0, t0) = (process_cpu(), Instant::now());
    assert!(
        figures::run_named(fig.experiment, &mut exp),
        "known experiment"
    );
    let report = exp.into_report();
    let wall = t0.elapsed();
    let cpu = process_cpu() - cpu0;
    Pass {
        wall,
        cpu,
        jobs,
        runner: report.runner,
        report,
    }
}

/// A finished replay of a figure.
pub struct ReplayRun {
    /// Rows rebuilt from the replayed stats.
    pub report: Report,
    /// Work counts.
    pub counts: Counts,
    /// Unique reference and simulation points computed.
    pub unique_points: usize,
    /// Serialized report size.
    pub report_bytes: usize,
    /// Wall time of the whole replay.
    pub wall: Duration,
}

/// Replays every unique point of `fig` serially, recording spans into
/// `tracer` (under one `replay` root span) when it is on.
///
/// # Panics
///
/// Panics if the experiment name is unknown (a bug in [`FIGURES`]).
pub fn replay_figure(fig: &Figure, seed: u64, tracer: &mut Tracer) -> ReplayRun {
    let t0 = Instant::now();
    tracer.enter("replay");
    let mut r = Replay::new(tracer, fig.skip);
    let report = match fig.experiment {
        "fig5" => replay::fig5(&mut r, seed, fig.insts),
        "fig7" => replay::fig7(&mut r, seed, fig.insts),
        other => panic!("no replay for `{other}`"),
    };
    let report_bytes = r.to_json(&report).len();
    let (counts, unique_points) = (r.counts.clone(), r.unique_points());
    tracer.exit();
    ReplayRun {
        report,
        counts,
        unique_points,
        report_bytes,
        wall: t0.elapsed(),
    }
}
