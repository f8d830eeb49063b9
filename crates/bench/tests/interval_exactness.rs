//! Interval-splitting exactness: the merged per-chunk statistics must
//! equal the monolithic run field-for-field, for every kernel, mechanism,
//! and interval count — the property the interval-parallel engine (and
//! the `intervals` cells of `tests/mode_matrix.rs`) stands on.
//!
//! The tests drive `run_kernel_intervals` with a deliberately small
//! explicit epoch (500 instructions over a 4300-instruction window) so
//! epoch resets and chunk boundaries actually fire in debug builds; the
//! production schedule (`epoch_schedule`) is exercised at the runner level
//! and, over every figure, by the mode matrix.

use smtx_bench::{
    config_with_idle, run_kernel, run_kernel_intervals, Runner, EPOCH_MIN_WINDOW,
};
use smtx_core::{Checkpoint, ExnMechanism, Machine, MachineConfig};
use smtx_rng::rngs::StdRng;
use smtx_rng::{RngExt, SeedableRng};
use smtx_workloads::{load_kernel, Kernel};

/// Non-dividing window: 8 whole 500-instruction epochs plus 300 left over
/// for the final chunk to absorb.
const INSTS: u64 = 4_300;
const EPOCH: u64 = 500;
const SEED: u64 = 42;

fn fig5_configs() -> [(&'static str, MachineConfig); 4] {
    [
        ("traditional", config_with_idle(ExnMechanism::Traditional, 1)),
        ("multi(1)", config_with_idle(ExnMechanism::Multithreaded, 1)),
        ("multi(3)", config_with_idle(ExnMechanism::Multithreaded, 3)),
        ("hardware", config_with_idle(ExnMechanism::Hardware, 1)),
    ]
}

#[test]
fn every_kernel_merges_exactly_under_a_sampled_config() {
    for (i, &kernel) in Kernel::ALL.iter().enumerate() {
        // One mechanism per kernel keeps debug wall-time sane; the seeded
        // draw keeps the choice reproducible while covering the matrix
        // across kernels.
        let mut rng = StdRng::seed_from_u64(0xD1CE + i as u64);
        let configs = fig5_configs();
        let (name, cfg) = &configs[rng.random_range(0..configs.len())];
        let mono = run_kernel_intervals(kernel, SEED, INSTS, cfg, 1, EPOCH);
        for n in [2, 7, 16] {
            let cut = run_kernel_intervals(kernel, SEED, INSTS, cfg, n, EPOCH);
            assert_eq!(
                mono.stats,
                cut.stats,
                "{} under {name} diverged at {n} intervals",
                kernel.name()
            );
            assert_eq!(mono.cycles, cut.cycles);
            assert_eq!(mono.arch_misses, cut.arch_misses);
        }
    }
}

#[test]
fn compress_is_exact_for_every_mechanism_and_count() {
    for (name, cfg) in &fig5_configs() {
        let mono = run_kernel_intervals(Kernel::Compress, SEED, INSTS, cfg, 1, EPOCH);
        for n in [2, 7, 16] {
            let cut = run_kernel_intervals(Kernel::Compress, SEED, INSTS, cfg, n, EPOCH);
            assert_eq!(mono.stats, cut.stats, "compress under {name} diverged at {n} intervals");
        }
    }
}

#[test]
fn zero_miss_intervals_merge_exactly() {
    // A perfect TLB never faults, so *every* interval is a zero-miss
    // interval; the merge must survive all-zero exception counters.
    let cfg = config_with_idle(ExnMechanism::PerfectTlb, 1);
    let mono = run_kernel_intervals(Kernel::Gcc, SEED, INSTS, &cfg, 1, EPOCH);
    let cut = run_kernel_intervals(Kernel::Gcc, SEED, INSTS, &cfg, 7, EPOCH);
    assert_eq!(mono.stats, cut.stats);
    assert_eq!(cut.stats.traps, 0, "perfect TLB takes no traps");
    assert_eq!(cut.stats.threads[0].tlb_miss_insts_retired, 0);
}

#[test]
fn run_kernel_is_the_one_chunk_case() {
    // `run_kernel` installs no epoch schedule below `EPOCH_MIN_WINDOW`, so
    // pass the window length itself as the explicit epoch: the budget
    // freeze wins the coincidence at `pos == insts`, making the interval
    // path reset-free too — both sides are the same monolithic run.
    let cfg = config_with_idle(ExnMechanism::Hardware, 1);
    let a = run_kernel(Kernel::Murphi, SEED, 8_000, cfg.clone());
    let b = run_kernel_intervals(Kernel::Murphi, SEED, 8_000, &cfg, 1, 8_000);
    assert_eq!(a.stats, b.stats, "the monolithic entry points must agree");
    assert_eq!(a.arch_misses, b.arch_misses);
}

#[test]
fn runner_interval_stats_match_monolithic() {
    // Production epoch schedule at a window of sixteen whole
    // 5000-instruction epochs, so a 4-interval request cuts four real
    // chunks (a bare `EPOCH_MIN_WINDOW` window would clamp the cut to its
    // two epochs).
    let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);
    let insts = 8 * EPOCH_MIN_WINDOW;
    let mono = Runner::new(1).run(Kernel::Compress, SEED, insts, &cfg);
    let cut = Runner::new(2).with_intervals(4).run(Kernel::Compress, SEED, insts, &cfg);
    assert_eq!(mono.stats, cut.stats, "interval scheduling must not change results");
    assert_eq!(mono.arch_misses, cut.arch_misses);
}

#[test]
fn short_windows_get_no_epoch_schedule() {
    // Below `EPOCH_MIN_WINDOW` the production schedule is declined, so the
    // runner's interval path degenerates to one monolithic reset-free
    // chunk no matter how many intervals are requested.
    let cfg = config_with_idle(ExnMechanism::Hardware, 1);
    assert_eq!(smtx_bench::epoch_schedule(EPOCH_MIN_WINDOW - 1), None);
    assert_eq!(smtx_bench::epoch_schedule(EPOCH_MIN_WINDOW), Some(5_000));
    let mono = Runner::new(1).run(Kernel::Gcc, SEED, 8_000, &cfg);
    let cut = Runner::new(2).with_intervals(8).run(Kernel::Gcc, SEED, 8_000, &cfg);
    assert_eq!(mono.stats, cut.stats);
    assert_eq!(mono.arch_misses, cut.arch_misses);
}

#[test]
fn capture_series_matches_individual_captures() {
    let mut m =
        Machine::new(MachineConfig::paper_baseline(ExnMechanism::PerfectTlb).with_threads(2));
    load_kernel(&mut m, 0, Kernel::Compress, SEED);
    let series = Checkpoint::capture_series(&m, &[500, 1_000, 2_500]).expect("series captures");
    let run_from = |ck: &Checkpoint| {
        let mut m2 = Machine::new(config_with_idle(ExnMechanism::Multithreaded, 1));
        m2.restore(ck);
        m2.set_budget(0, 500);
        m2.run(1_000_000);
        m2.stats().clone()
    };
    for (ck, skip) in series.iter().zip([500u64, 1_000, 2_500]) {
        let lone = Checkpoint::capture(&m, skip).expect("single capture");
        assert_eq!(ck.skip(), lone.skip());
        for (a, b) in ck.threads().iter().zip(lone.threads()) {
            assert_eq!((a.tid, a.space, a.pc), (b.tid, b.space, b.pc));
            assert_eq!(a.int_regs, b.int_regs);
            assert_eq!(a.fp_regs, b.fp_regs);
        }
        // Register equality alone would not prove the memory images agree;
        // a restored detailed run from each checkpoint must too.
        assert_eq!(run_from(ck), run_from(&lone), "restored runs diverge at skip {skip}");
        assert!(ck.approx_bytes() > 0);
    }
}
