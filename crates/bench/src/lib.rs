//! # smtx-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §4 for the index). The heart of the crate is
//! [`penalty_per_miss`]: run a workload under a mechanism and under a
//! perfect TLB with the same instruction budget, divide the cycle
//! difference by the workload's architectural miss count — exactly the
//! paper's §3 metric ("penalty cycles per TLB miss").
//!
//! One binary per experiment:
//!
//! | binary   | regenerates |
//! |----------|-------------|
//! | `fig2`   | penalty vs. pipeline depth (3/7/11) |
//! | `fig3`   | relative TLB time vs. width (2/32, 4/64, 8/128) |
//! | `fig5`   | traditional / multithreaded(1) / multithreaded(3) / hardware |
//! | `table3` | limit studies |
//! | `fig6`   | quick-start |
//! | `table4` | speedups, miss rates, base IPC |
//! | `fig7`   | 3 application threads + 1 idle |
//! | `table2` | kernel miss densities vs. the paper's |
//!
//! Every binary accepts `--insts N` (per-thread instruction budget, default
//! 300k), `--seed N`, `--jobs N` (worker-pool size, default: all cores),
//! `--json PATH` (machine-readable report) and `--trace PATH` (cycle-level
//! binary event trace, see `smtx-trace`), and prints paper-style rows.
//!
//! Execution goes through the [`runner`] module: an experiment expands into
//! a flat list of independent simulation jobs, deduplicated by
//! `RunKey {kernel, seed, insts, config-digest}` and executed once each
//! across a scoped-thread pool; repeated requests (the shared perfect-TLB
//! baseline, reference-interpreter miss counts, budget probes) are cache
//! hits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod micro;
pub mod report;
pub mod runner;

use smtx_core::{Checkpoint, ExnMechanism, LimitKnobs, Machine, MachineConfig};
use smtx_workloads::{kernel_reference, load_kernel, Kernel};

pub use experiment::{penalty_table, penalty_table_for, Experiment};
pub use report::Report;
pub use runner::{Job, MixKey, RunKey, Runner};

/// Default per-thread instruction budget for experiment binaries.
pub const DEFAULT_INSTS: u64 = 300_000;

/// Safety cap on simulated cycles per run (generous — worst realistic IPC
/// in the suite is ~0.05 under a deep traditional-trap configuration; a
/// run that exceeds this is wedged, and the caller's assert reports it).
pub const MAX_CYCLES: u64 = 1 << 31;

/// A budget-proportional cycle cap: 500 cycles per instruction, at least
/// 10M. Lets a wedged simulation fail fast instead of spinning to
/// [`MAX_CYCLES`].
#[must_use]
pub fn cycle_cap(insts: u64) -> u64 {
    insts.saturating_mul(500).max(10_000_000)
}

/// Deterministic epoch length for a measured window of `insts`
/// instructions: the window splits into at most 16 epochs, but never
/// shorter than 5000 instructions (below that the per-epoch cold restart
/// would dominate what the window measures). A window shorter than one
/// epoch gets no resets at all. Detailed measurements install this
/// schedule via [`epoch_schedule`] (which gates it on the window being
/// long enough to repay the resets) through `Machine::set_epoch_len`,
/// which is what lets
/// [`plan_boundaries`] cut a run into independently simulatable chunks
/// whose merged [`smtx_core::Stats`] are integer-identical to the
/// monolithic run.
#[must_use]
pub fn epoch_len(insts: u64) -> u64 {
    insts.div_ceil(16).max(5_000)
}

/// Smallest measured window that installs the epoch-reset schedule: two
/// whole epochs at the 5000-instruction floor. The schedule exists to give
/// [`plan_boundaries`] epoch-aligned cut points, and a window shorter than
/// two epochs has no interior boundary to cut at — a reset there buys no
/// parallelism and only costs the detailed machine a cold restart (drained
/// pipeline, cold caches, cold predictors). Windows at or above the
/// threshold keep the schedule: A/B timing of the 20k-instruction two-tier
/// windows showed the resets are wall-clock neutral-to-faster there (the
/// cold post-reset epochs stall more, and the idle-skip fast path consumes
/// stalled cycles in O(1)), so only sub-two-epoch windows run monolithic
/// and reset-free.
pub const EPOCH_MIN_WINDOW: u64 = 2 * 5_000;

/// The epoch schedule a measured window of `insts` instructions actually
/// installs: [`epoch_len`]`(insts)` when the window spans at least
/// [`EPOCH_MIN_WINDOW`] instructions, `None` (no resets, monolithic
/// simulation) below that. Every production path — `run_kernel`, the
/// memoized runner, the reference-miss denominator — derives its schedule
/// from this one function of `insts`, which keeps the detailed machine and
/// the arch-miss reference in lockstep and keeps `RunKey` (which does not
/// encode the schedule) a complete cache key.
#[must_use]
pub fn epoch_schedule(insts: u64) -> Option<u64> {
    (insts >= EPOCH_MIN_WINDOW).then(|| epoch_len(insts))
}

/// Plans the interior chunk boundaries of an interval-parallel run:
/// `intervals` is clamped to the number of whole epochs in the window, the
/// boundaries are whole-epoch multiples spread as evenly as integer
/// arithmetic allows, and all lie strictly inside `(0, insts)` — the final
/// chunk absorbs any partial trailing epoch. Aligning every boundary to
/// the epoch schedule is what makes the cut exact: the machine's
/// deterministic epoch reset fires at each boundary anyway, so a chunk
/// started from that boundary's functional checkpoint sees precisely the
/// state the monolithic run had there.
#[must_use]
pub fn plan_boundaries(insts: u64, intervals: u64, epoch: u64) -> Vec<u64> {
    let epochs = insts / epoch;
    let n = intervals.clamp(1, epochs.max(1));
    let mut out = Vec::new();
    for j in 1..n {
        let b = epoch * (j * epochs / n);
        if b > *out.last().unwrap_or(&0) && b < insts {
            out.push(b);
        }
    }
    out
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cycles to retire the budget.
    pub cycles: u64,
    /// User instructions retired (sum over app threads).
    pub retired: u64,
    /// Workload-intrinsic (architectural) TLB misses over the same
    /// instruction window.
    pub arch_misses: u64,
    /// Machine statistics snapshot.
    pub stats: smtx_core::Stats,
}

impl RunResult {
    /// User IPC of the run.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.cycles as f64
    }
}

/// Runs `kernel` for `insts` user instructions under `config`.
///
/// # Panics
///
/// Panics if the machine fails to retire the budget within [`MAX_CYCLES`].
#[must_use]
pub fn run_kernel(kernel: Kernel, seed: u64, insts: u64, config: MachineConfig) -> RunResult {
    let mut m = Machine::new(config);
    load_kernel(&mut m, 0, kernel, seed);
    m.set_epoch_len(epoch_schedule(insts));
    m.set_budget(0, insts);
    m.run(cycle_cap(insts));
    let stats = m.stats().clone();
    assert_eq!(stats.retired(0), insts, "{} did not finish", kernel.name());
    let arch_misses = arch_misses(kernel, seed, insts);
    RunResult { cycles: stats.cycles, retired: insts, arch_misses, stats }
}

/// Architectural miss count for `kernel` over `insts` instructions
/// (reference-interpreter DTLB, mechanism-independent denominator), under
/// the same [`epoch_schedule`] renewal schedule the detailed machine uses.
#[must_use]
pub fn arch_misses(kernel: Kernel, seed: u64, insts: u64) -> u64 {
    arch_misses_with_epoch(kernel, seed, insts, epoch_schedule(insts))
}

/// [`arch_misses`] with an explicit epoch schedule: the counting DTLB is
/// flushed after every `epoch` instructions, mirroring the detailed
/// machine's deterministic epoch resets, so numerator and denominator of a
/// penalty metric share renewal semantics. `None` keeps one cold TLB for
/// the whole window.
#[must_use]
pub fn arch_misses_with_epoch(
    kernel: Kernel,
    seed: u64,
    insts: u64,
    epoch: Option<u64>,
) -> u64 {
    let mut world = kernel_reference(kernel, seed);
    world
        .interp
        .run_epochs(&mut world.pm, &mut world.space, insts, epoch)
        .expect("reference program runs clean");
    world.interp.dtlb_misses()
}

/// The canonical capture machine: loading a kernel is config-independent,
/// so checkpoints are always captured on the paper baseline and restored
/// into whatever configuration a sweep asks for.
fn capture_machine(threads: usize) -> Machine {
    Machine::new(MachineConfig::paper_baseline(ExnMechanism::PerfectTlb).with_threads(threads))
}

/// Builds the tier-1 fast-forward checkpoint for one kernel: load it
/// exactly as a measured run would, then run the functional interpreter for
/// `skip` instructions.
///
/// # Panics
///
/// Panics if the kernel faults or halts inside the fast-forward.
#[must_use]
pub fn make_checkpoint(kernel: Kernel, seed: u64, skip: u64) -> Checkpoint {
    let mut m = capture_machine(2);
    load_kernel(&mut m, 0, kernel, seed);
    Checkpoint::capture(&m, skip)
        .unwrap_or_else(|e| panic!("{} fast-forward failed: {e}", kernel.name()))
}

/// Builds the tier-1 checkpoint *series* for one kernel: one functional
/// sweep snapshots the architectural state at every ascending boundary
/// (absolute instruction counts). Element `i` equals
/// [`make_checkpoint`]`(kernel, seed, boundaries[i])`, at the cost of one
/// sweep instead of one per boundary — the interval-parallel engine's
/// amortized pre-pass.
///
/// # Panics
///
/// Panics if the kernel faults or halts inside the fast-forward.
#[must_use]
pub fn make_checkpoint_series(kernel: Kernel, seed: u64, boundaries: &[u64]) -> Vec<Checkpoint> {
    let mut m = capture_machine(2);
    load_kernel(&mut m, 0, kernel, seed);
    Checkpoint::capture_series(&m, boundaries)
        .unwrap_or_else(|e| panic!("{} series fast-forward failed: {e}", kernel.name()))
}

/// Builds the fast-forward checkpoint for a Fig. 7 mix (three kernels on
/// threads 0–2, thread `tid` seeded with `seed + tid`).
///
/// # Panics
///
/// Panics if any kernel faults or halts inside the fast-forward.
#[must_use]
pub fn make_mix_checkpoint(mix: [Kernel; 3], seed: u64, skip: u64) -> Checkpoint {
    let mut m = capture_machine(4);
    for (tid, &k) in mix.iter().enumerate() {
        load_kernel(&mut m, tid, k, seed + tid as u64);
    }
    Checkpoint::capture(&m, skip)
        .unwrap_or_else(|e| panic!("{mix:?} fast-forward failed: {e}"))
}

/// Restores `ck` into a fresh machine under `config` and measures `insts`
/// user instructions on thread 0 (the uncached single-kernel path, used by
/// the naive baseline binary; [`Runner`] has a memoized equivalent).
///
/// # Panics
///
/// Panics if the machine fails to retire the budget within the cycle cap.
#[must_use]
pub fn run_restored(
    ck: &Checkpoint,
    insts: u64,
    config: MachineConfig,
    idle_skip: bool,
) -> RunResult {
    let mut m = Machine::new(config);
    m.set_idle_skip(idle_skip);
    m.restore(ck);
    m.set_epoch_len(epoch_schedule(insts));
    m.set_budget(0, insts);
    m.run(cycle_cap(insts));
    let stats = m.stats().clone();
    assert_eq!(stats.retired(0), insts, "restored run did not finish");
    let arch_misses = ck.arch_misses_in_window(0, insts, epoch_schedule(insts));
    RunResult { cycles: stats.cycles, retired: insts, arch_misses, stats }
}

/// Runs the detailed window of one interval chunk on a machine already
/// positioned at the chunk's start boundary (freshly loaded, or restored
/// from that boundary's functional checkpoint) with the epoch schedule
/// installed. Interior chunks carry no budget: the run stops on the
/// boundary retirement, right after the machine's own epoch reset fired
/// there, so the discarded post-chunk state is exactly what the next
/// chunk's fresh restore recreates. The final chunk runs under a budget to
/// the ordinary freeze.
pub fn run_interval_chunk(m: &mut Machine, chunk_insts: u64, is_last: bool, max_cycles: u64) {
    if is_last {
        m.set_budget(0, chunk_insts);
        m.run(max_cycles);
    } else {
        m.run_until_retired(0, chunk_insts, max_cycles);
    }
}

/// Interval semantics, serially: splits `insts` at [`plan_boundaries`],
/// captures the boundary checkpoints in one functional sweep, simulates
/// each chunk on a fresh machine, and merges the per-chunk
/// [`smtx_core::Stats`] in order. The merged result is field-for-field
/// identical to the monolithic run for every `intervals` value — the
/// exactness property the parallel engine in [`runner`] relies on.
/// `epoch` is explicit so tests can shrink it; production paths pass
/// [`epoch_len`]`(insts)`.
///
/// # Panics
///
/// Panics if any chunk fails to retire its share within the cycle cap.
#[must_use]
pub fn run_kernel_intervals(
    kernel: Kernel,
    seed: u64,
    insts: u64,
    config: &MachineConfig,
    intervals: u64,
    epoch: u64,
) -> RunResult {
    let bounds = plan_boundaries(insts, intervals, epoch);
    let series = if bounds.is_empty() {
        Vec::new()
    } else {
        make_checkpoint_series(kernel, seed, &bounds)
    };
    let mut merged: Option<smtx_core::Stats> = None;
    let mut start = 0u64;
    for (i, b) in bounds.iter().copied().chain(std::iter::once(insts)).enumerate() {
        let chunk = b - start;
        let mut m = Machine::new(config.clone());
        if i == 0 {
            load_kernel(&mut m, 0, kernel, seed);
        } else {
            m.restore(&series[i - 1]);
        }
        m.set_epoch_len(Some(epoch));
        run_interval_chunk(&mut m, chunk, b == insts, cycle_cap(insts));
        let stats = m.stats();
        assert_eq!(stats.retired(0), chunk, "{} interval chunk did not finish", kernel.name());
        match &mut merged {
            Some(acc) => acc.merge(stats),
            None => merged = Some(stats.clone()),
        }
        start = b;
    }
    let stats = merged.expect("the window has at least one chunk");
    let arch_misses = arch_misses_with_epoch(kernel, seed, insts, Some(epoch));
    RunResult { cycles: stats.cycles, retired: insts, arch_misses, stats }
}

/// Minimum misses a penalty-per-miss measurement should average over; with
/// fewer, cold-start effects (first touches, cold caches, cold PTEs)
/// dominate the per-miss numbers.
pub const MIN_MISSES: u64 = 60;

/// The budget-probe length miss density is sampled over.
#[must_use]
pub fn probe_insts(base_insts: u64) -> u64 {
    50_000.min(base_insts.max(1))
}

/// Scales `base_insts` so a measurement averages over at least
/// [`MIN_MISSES`] misses, given `misses` observed over `probe`
/// instructions. Shared by every budget path — the memoized runner, the
/// free [`insts_for`], and the naive baseline's fast-forward probe — so
/// they always agree on the per-kernel budget.
#[must_use]
pub fn scale_budget(misses: u64, probe: u64, base_insts: u64) -> u64 {
    let density = misses.max(1) as f64 / probe as f64;
    let needed = (MIN_MISSES as f64 / density).ceil() as u64;
    base_insts.max(needed)
}

/// Scales the requested budget up for low-miss-density kernels so every
/// measurement averages over at least [`MIN_MISSES`] misses (the paper's
/// 100M-instruction runs did this implicitly). Assembled programs ignore
/// `base_insts`: their budget is their exact retired count to `HALT`,
/// so the detailed machine finishes the window precisely at the halt.
#[must_use]
pub fn insts_for(kernel: Kernel, seed: u64, base_insts: u64) -> u64 {
    if let Some(halt) = kernel.halting_insts() {
        return halt;
    }
    let probe = probe_insts(base_insts);
    scale_budget(arch_misses(kernel, seed, probe), probe, base_insts)
}

/// Assembles and registers each `--program` file as an `asm:<stem>`
/// kernel, returning the handles in argv order (see
/// [`smtx_workloads::register_asm`]). Experiments call this before
/// touching their kernel lists so `asm:` names resolve.
///
/// # Errors
///
/// Returns the first assembly or registration diagnostic, prefixed with
/// the offending path.
pub fn load_programs(args: &Args) -> Result<Vec<Kernel>, String> {
    args.programs
        .iter()
        .map(|p| smtx_workloads::register_asm(smtx_asm::assemble_file(p)?))
        .collect()
}

/// The paper's §3 metric: `(cycles(mechanism) − cycles(perfect)) / misses`.
#[must_use]
pub fn penalty_per_miss(
    kernel: Kernel,
    seed: u64,
    insts: u64,
    config: &MachineConfig,
) -> f64 {
    let run = run_kernel(kernel, seed, insts, config.clone());
    let mut perfect_cfg = config.clone();
    perfect_cfg.mechanism = ExnMechanism::PerfectTlb;
    let perfect = run_kernel(kernel, seed, insts, perfect_cfg);
    (run.cycles as f64 - perfect.cycles as f64) / run.arch_misses.max(1) as f64
}

/// Builds the paper-baseline config for a mechanism with `idle` spare
/// contexts (the paper's multithreaded(1) = 2 contexts, multithreaded(3) =
/// 4 contexts).
#[must_use]
pub fn config_with_idle(mechanism: ExnMechanism, idle: usize) -> MachineConfig {
    MachineConfig::paper_baseline(mechanism).with_threads(1 + idle)
}

/// Applies one named limit-study knob set (paper Table 3 rows).
#[must_use]
pub fn limit_config(knobs: LimitKnobs) -> MachineConfig {
    config_with_idle(ExnMechanism::Multithreaded, 3).with_limits(knobs)
}

/// Parsed experiment command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Per-thread instruction budget (`--insts`, default 300k).
    pub insts: u64,
    /// Workload seed (`--seed`, default 42).
    pub seed: u64,
    /// Worker-pool size (`--jobs`, default 0 = all available cores).
    pub jobs: usize,
    /// Tier-1 functional fast-forward length in instructions per thread
    /// (`--skip`, default 0 = measure from instruction zero).
    pub skip: u64,
    /// Reuse one cached checkpoint per workload across all configurations
    /// (`--checkpoint on|off`, default on). `off` rebuilds per run — same
    /// rows, no reuse — and at `--skip 0` bypasses checkpoints entirely.
    pub checkpoint: bool,
    /// Tier-2 idle-cycle skipping in the detailed core (`--idle-skip
    /// on|off`, default on). Bit-identical rows either way.
    pub idle_skip: bool,
    /// Interval-parallel chunk count (`--intervals`, default 1 =
    /// monolithic). A pure scheduling knob: the run is cut at epoch-aligned
    /// boundaries and the chunks simulated concurrently, but the merged
    /// rows are byte-identical for every value, so it never enters the
    /// config digest or any cache key.
    pub intervals: u64,
    /// The `--check on|off` pipeline sanitizer (default off): every
    /// simulated machine runs the lockstep architectural oracle and the
    /// per-cycle structural invariants. Observation-only — rows stay
    /// bit-identical — but any violation aborts the experiment.
    pub check: bool,
    /// Machine-readable report destination (`--json PATH`).
    pub json: Option<std::path::PathBuf>,
    /// Binary trace capture destination (`--trace PATH`): every uniquely
    /// computed simulation appends its cycle-level event segment (see
    /// `smtx-trace`). Observation-only — rows stay bit-identical.
    pub trace: Option<std::path::PathBuf>,
    /// Assembled programs to load as workloads (`--program FILE.s`,
    /// repeatable): each file is assembled with `smtx-asm` and registered
    /// as an `asm:<stem>` kernel before the experiment runs (see
    /// [`load_programs`]).
    pub programs: Vec<std::path::PathBuf>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            insts: DEFAULT_INSTS,
            seed: 42,
            jobs: 0,
            skip: 0,
            checkpoint: true,
            idle_skip: true,
            intervals: 1,
            check: false,
            json: None,
            trace: None,
            programs: Vec::new(),
        }
    }
}

/// Parses the experiment flags from argv: `--insts N`, `--seed N`,
/// `--jobs N`, `--skip N`, `--checkpoint on|off`, `--idle-skip on|off`,
/// `--intervals N`, `--check on|off`, `--json PATH`, `--trace PATH` and
/// `--program FILE.s` (repeatable).
/// Unknown or malformed arguments abort with a usage
/// message — a silently ignored typo (`--inst 500000`) would otherwise run
/// the full default-budget experiment and report it as the requested one.
#[must_use]
pub fn parse_args() -> Args {
    match parse_arg_list(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: <experiment> [--insts N] [--seed N] [--jobs N] [--skip N] \
                 [--checkpoint on|off] [--idle-skip on|off] [--intervals N] [--check on|off] \
                 [--json PATH] [--trace PATH] [--program FILE.s]..."
            );
            std::process::exit(2);
        }
    }
}

/// Testable core of [`parse_args`].
pub fn parse_arg_list<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--insts" => {
                args.insts = value_for("--insts")?
                    .parse()
                    .map_err(|e| format!("--insts: {e}"))?;
            }
            "--seed" => {
                args.seed = value_for("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--jobs" => {
                args.jobs = value_for("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--skip" => {
                args.skip = value_for("--skip")?
                    .parse()
                    .map_err(|e| format!("--skip: {e}"))?;
            }
            "--checkpoint" => {
                args.checkpoint = parse_on_off("--checkpoint", &value_for("--checkpoint")?)?;
            }
            "--idle-skip" => {
                args.idle_skip = parse_on_off("--idle-skip", &value_for("--idle-skip")?)?;
            }
            "--intervals" => {
                args.intervals = value_for("--intervals")?
                    .parse()
                    .map_err(|e| format!("--intervals: {e}"))?;
                if args.intervals == 0 {
                    return Err("--intervals: must be at least 1".to_string());
                }
            }
            "--check" => {
                args.check = parse_on_off("--check", &value_for("--check")?)?;
            }
            "--json" => {
                args.json = Some(value_for("--json")?.into());
            }
            "--trace" => {
                args.trace = Some(value_for("--trace")?.into());
            }
            "--program" => {
                args.programs.push(value_for("--program")?.into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn parse_on_off(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("{flag}: expected `on` or `off`, got `{other}`")),
    }
}

/// Formats a row of `f64` cells after a left-justified label.
#[must_use]
pub fn row(label: &str, cells: &[f64]) -> String {
    let mut s = format!("{label:<12}");
    for c in cells {
        s.push_str(&format!(" {c:>10.2}"));
    }
    s
}

/// Formats the header matching [`row`].
#[must_use]
pub fn header(label: &str, cols: &[&str]) -> String {
    let mut s = format!("{label:<12}");
    for c in cols {
        s.push_str(&format!(" {c:>10}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_metric_is_positive_for_traditional_compress() {
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let p = penalty_per_miss(Kernel::Compress, 42, 20_000, &cfg);
        assert!(p > 0.0, "traditional handling must cost cycles (got {p})");
    }

    #[test]
    fn arg_row_formatting() {
        let h = header("bench", &["a", "b"]);
        let r = row("cmp", &[1.5, 2.25]);
        assert!(h.starts_with("bench"));
        assert!(r.contains("1.50") && r.contains("2.25"));
    }

    #[test]
    fn parse_arg_list_accepts_all_flags() {
        let argv = [
            "--insts", "5000", "--seed", "7", "--jobs", "3", "--skip", "20000",
            "--checkpoint", "off", "--idle-skip", "off", "--intervals", "8", "--check", "on",
            "--json", "out.json", "--trace", "out.bin",
        ]
        .iter()
        .map(|s| s.to_string());
        let args = parse_arg_list(argv).unwrap();
        assert_eq!(args.insts, 5_000);
        assert_eq!(args.seed, 7);
        assert_eq!(args.jobs, 3);
        assert_eq!(args.skip, 20_000);
        assert!(!args.checkpoint);
        assert!(!args.idle_skip);
        assert_eq!(args.intervals, 8);
        assert!(args.check);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(args.trace.as_deref(), Some(std::path::Path::new("out.bin")));
    }

    #[test]
    fn two_tier_flags_default_to_fast_path() {
        let args = parse_arg_list(std::iter::empty::<String>()).unwrap();
        assert_eq!(args.skip, 0);
        assert!(args.checkpoint, "checkpoint reuse is the default");
        assert!(args.idle_skip, "idle-cycle skipping is the default");
        assert_eq!(args.intervals, 1, "monolithic simulation is the default");
        assert!(!args.check, "the sanitizer is opt-in");
    }

    #[test]
    fn parse_arg_list_rejects_unknown_and_malformed_flags() {
        assert!(parse_arg_list(["--inst".to_string(), "5".to_string()])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_arg_list(["--insts".to_string()])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_arg_list(["--jobs".to_string(), "x".to_string()])
            .unwrap_err()
            .contains("--jobs"));
        assert!(parse_arg_list(["--checkpoint".to_string(), "maybe".to_string()])
            .unwrap_err()
            .contains("expected `on` or `off`"));
        assert!(parse_arg_list(["--idle-skip".to_string(), "1".to_string()])
            .unwrap_err()
            .contains("--idle-skip"));
        assert!(parse_arg_list(["--intervals".to_string(), "0".to_string()])
            .unwrap_err()
            .contains("--intervals"));
    }

    #[test]
    fn boundary_plan_is_epoch_aligned_and_interior() {
        // 8 whole epochs of 500 in a 4000-instruction window.
        assert_eq!(plan_boundaries(4_000, 1, 500), Vec::<u64>::new());
        assert_eq!(plan_boundaries(4_000, 2, 500), vec![2_000]);
        assert_eq!(
            plan_boundaries(4_000, 7, 500),
            vec![500, 1_000, 1_500, 2_000, 2_500, 3_000]
        );
        // Requests past the epoch count clamp to one chunk per epoch.
        assert_eq!(
            plan_boundaries(4_000, 16, 500),
            vec![500, 1_000, 1_500, 2_000, 2_500, 3_000, 3_500]
        );
        // A non-dividing window leaves the partial epoch to the final chunk.
        assert_eq!(plan_boundaries(4_300, 16, 500), plan_boundaries(4_000, 16, 500));
        // A window shorter than one epoch cannot be cut.
        assert_eq!(plan_boundaries(3_000, 8, 5_000), Vec::<u64>::new());
        for b in plan_boundaries(100_000, 4, epoch_len(100_000)) {
            assert_eq!(b % epoch_len(100_000), 0);
            assert!(b > 0 && b < 100_000);
        }
    }
}
