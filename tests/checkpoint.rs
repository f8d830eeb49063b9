//! Tier-1 soundness: functional fast-forward + restore is architecturally
//! exact, and a `skip == 0` checkpoint restore is bit-identical to loading
//! the kernel directly.
//!
//! The contract under test: for any kernel and any configuration, running
//! the detailed machine from scratch for `skip + insts` instructions and
//! running it for `insts` instructions from a `skip`-instruction functional
//! checkpoint must retire into the *same architectural state* — registers
//! and the memory image.

use smtx::core::{ExnMechanism, Machine, MachineConfig};
use smtx::workloads::{load_kernel, Kernel};
use smtx_bench::{config_with_idle, make_checkpoint, make_mix_checkpoint, Runner};

const SEED: u64 = 42;
const SKIP: u64 = 6_000;
const INSTS: u64 = 4_000;
const CAP: u64 = 50_000_000;

/// Architectural fingerprint of thread `tid`: committed registers plus the
/// content hash of its address space.
fn arch_state(m: &Machine, tid: usize, space: usize) -> ([u64; 32], [u64; 32], u64) {
    (
        *m.int_regs(tid),
        *m.fp_regs(tid),
        m.space(space).content_hash(m.phys()),
    )
}

fn from_scratch(kernel: Kernel, config: MachineConfig, insts: u64) -> Machine {
    let mut m = Machine::new(config);
    load_kernel(&mut m, 0, kernel, SEED);
    m.set_budget(0, insts);
    m.run(CAP);
    assert_eq!(m.stats().retired(0), insts, "{} from scratch", kernel.name());
    m
}

/// Fast-forwarding through the interpreter and finishing on the detailed
/// machine retires the same architectural state as the detailed machine
/// running the whole distance — per mechanism.
#[test]
fn restored_run_matches_detailed_machine_from_scratch() {
    for kernel in [Kernel::Compress, Kernel::Gcc, Kernel::Hydro2d] {
        let ck = make_checkpoint(kernel, SEED, SKIP);
        for mech in [
            ExnMechanism::PerfectTlb,
            ExnMechanism::Traditional,
            ExnMechanism::Multithreaded,
        ] {
            let config = config_with_idle(mech, 1);
            let scratch = from_scratch(kernel, config.clone(), SKIP + INSTS);
            let mut restored = Machine::new(config);
            restored.restore(&ck);
            restored.set_budget(0, INSTS);
            restored.run(CAP);
            assert_eq!(restored.stats().retired(0), INSTS);
            let space = ck.threads()[0].space;
            assert_eq!(
                arch_state(&scratch, 0, space),
                arch_state(&restored, 0, space),
                "{} under {mech:?}: fast-forwarded state must match from-scratch",
                kernel.name()
            );
        }
    }
}

/// A `skip == 0` restore is not merely architecturally equal to the direct
/// load path — the *entire run* (every statistic) is bit-identical, because
/// restore rebuilds exactly the state `load_kernel` creates.
#[test]
fn zero_skip_restore_is_bit_identical_to_direct_load() {
    for kernel in [Kernel::Compress, Kernel::Vortex] {
        let ck = make_checkpoint(kernel, SEED, 0);
        let config = config_with_idle(ExnMechanism::Multithreaded, 1);
        let direct = from_scratch(kernel, config.clone(), INSTS);
        let mut restored = Machine::new(config);
        restored.restore(&ck);
        restored.set_budget(0, INSTS);
        restored.run(CAP);
        assert_eq!(
            direct.stats(),
            restored.stats(),
            "{}: skip-0 restore must be the load path, bit for bit",
            kernel.name()
        );
    }
}

/// One checkpoint serves every configuration of a sweep: restoring the same
/// checkpoint under different mechanisms yields the same architectural
/// state (the mechanisms differ only in time).
#[test]
fn one_checkpoint_serves_every_configuration() {
    let runner = Runner::new(1).with_skip(SKIP);
    let perfect = config_with_idle(ExnMechanism::PerfectTlb, 1);
    let baseline = runner.run(Kernel::Murphi, SEED, INSTS, &perfect);
    for mech in [ExnMechanism::Traditional, ExnMechanism::Hardware, ExnMechanism::QuickStart] {
        let r = runner.run(Kernel::Murphi, SEED, INSTS, &config_with_idle(mech, 1));
        assert_eq!(r.retired, baseline.retired);
        assert_eq!(
            r.arch_misses, baseline.arch_misses,
            "window miss count is config-independent"
        );
        assert!(
            r.cycles >= baseline.cycles,
            "{mech:?} cannot beat the perfect TLB"
        );
    }
    assert!(runner.stats().checkpoint_hits >= 3, "later configurations reuse the checkpoint");
}

/// Multiprogrammed mixes fast-forward exactly too: address spaces own
/// disjoint physical frames, so the sequential per-thread interpreter pass
/// matches each thread of the detailed SMT machine run from scratch.
#[test]
fn mix_checkpoint_matches_from_scratch_smt_run() {
    let mix = [Kernel::Compress, Kernel::Gcc, Kernel::Murphi];
    let skip = 2_000;
    let insts = 1_500;
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(4);

    let mut scratch = Machine::new(config.clone());
    for (tid, &k) in mix.iter().enumerate() {
        load_kernel(&mut scratch, tid, k, SEED + tid as u64);
    }
    for tid in 0..3 {
        scratch.set_budget(tid, skip + insts);
    }
    scratch.run(CAP);

    let ck = make_mix_checkpoint(mix, SEED, skip);
    let mut restored = Machine::new(config);
    restored.restore(&ck);
    for tid in 0..3 {
        restored.set_budget(tid, insts);
    }
    restored.run(CAP);

    for (tid, tc) in ck.threads().iter().enumerate() {
        assert_eq!(scratch.stats().retired(tid), skip + insts);
        assert_eq!(restored.stats().retired(tid), insts);
        assert_eq!(
            arch_state(&scratch, tid, tc.space),
            arch_state(&restored, tid, tc.space),
            "mix thread {tid}: fast-forwarded state must match from-scratch"
        );
    }
}
