//! The traced replay: every unique simulation point of a workload,
//! reproduced serially through the layers' public functions with a span
//! around each call, and the rows rebuilt from the resulting `Stats`.
//!
//! The replay memoizes exactly what the runner memoizes (reference
//! sweeps by `(kernel, seed, insts)`, simulations by the config digest),
//! restores every detailed run from a fast-forward checkpoint as the
//! runner does with its checkpoint cache on, and installs the same epoch
//! schedule and cycle cap, so its rows must equal the runner's rows byte
//! for byte. It keeps one checkpoint at a time (work is grouped by
//! workload) so its memory stays bounded.

use std::collections::BTreeMap;

use smtx_bench::runner::perfect_of;
use smtx_bench::{
    config_with_idle, cycle_cap, epoch_schedule, make_checkpoint, make_mix_checkpoint, probe_insts,
    scale_budget, Report,
};
use smtx_core::{Checkpoint, ExnMechanism, Machine, MachineConfig, Stats};
use smtx_workloads::{Kernel, MIXES};

use crate::spans::Tracer;

/// Deterministic work counts of one replay. They repeat exactly for a
/// given workload and seed, so a change that moves them changed the work,
/// not the speed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Instructions the interpreter ran while capturing (all threads).
    pub capture_insts: u64,
    /// Approximate resident bytes of the captured checkpoints.
    pub ck_bytes: u64,
    /// Instructions run by reference miss-count sweeps.
    pub ref_insts: u64,
    /// Checkpoint restores into a fresh machine.
    pub restores: u64,
    /// Detailed simulations run.
    pub sims: u64,
    /// Cycles the detailed loop stepped one by one.
    pub stepped: u64,
    /// Cycles jumped over by idle-cycle skipping.
    pub skipped: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Instructions squashed.
    pub squashed: u64,
    /// User instructions retired.
    pub retired_user: u64,
    /// Handler (PAL) instructions retired.
    pub retired_pal: u64,
    /// Cycles with at least one handler context active.
    pub handler_active_cycles: u64,
}

impl Counts {
    fn add_sim(&mut self, stats: &Stats, skipped: u64) {
        self.sims += 1;
        self.stepped += stats.cycles - skipped;
        self.skipped += skipped;
        self.fetched += stats.fetched;
        self.issued += stats.issued;
        self.squashed += stats.squashed_insts;
        self.retired_user += stats.threads.iter().map(|t| t.retired_user).sum::<u64>();
        self.retired_pal += stats.threads.iter().map(|t| t.retired_pal).sum::<u64>();
        self.handler_active_cycles += stats.handler_active_cycles;
    }
}

/// Which fast-forward checkpoint is held: one kernel or one mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CkKey {
    Single(Kernel, u64),
    Mix([Kernel; 3], u64),
}

/// The memoizing serial replay engine.
pub struct Replay<'t> {
    /// Span recorder (a disabled one makes this the untraced replay).
    pub tracer: &'t mut Tracer,
    /// Work counts so far.
    pub counts: Counts,
    skip: u64,
    refs: BTreeMap<(Kernel, u64, u64), u64>,
    sims: BTreeMap<(Kernel, u64, u64, u64), u64>,
    mixes: BTreeMap<([Kernel; 3], u64, u64, u64), u64>,
    ck: Option<(CkKey, Checkpoint)>,
}

impl<'t> Replay<'t> {
    /// A replay measuring after a functional fast-forward of `skip`
    /// instructions per thread.
    pub fn new(tracer: &'t mut Tracer, skip: u64) -> Replay<'t> {
        Replay {
            tracer,
            counts: Counts::default(),
            skip,
            refs: BTreeMap::new(),
            sims: BTreeMap::new(),
            mixes: BTreeMap::new(),
            ck: None,
        }
    }

    /// Unique simulation and reference points computed so far.
    #[must_use]
    pub fn unique_points(&self) -> usize {
        self.refs.len() + self.sims.len() + self.mixes.len()
    }

    /// Makes `key`'s checkpoint the held one, capturing it if needed.
    fn hold(&mut self, key: CkKey) {
        if self.ck.as_ref().is_some_and(|(k, _)| *k == key) {
            return;
        }
        self.ck = None;
        let skip = self.skip;
        let (ck, threads) = match key {
            CkKey::Single(kernel, seed) => (
                self.tracer.span("core.refmodel/capture", || {
                    make_checkpoint(kernel, seed, skip)
                }),
                1,
            ),
            CkKey::Mix(mix, seed) => (
                self.tracer.span("core.refmodel/capture", || {
                    make_mix_checkpoint(mix, seed, skip)
                }),
                3,
            ),
        };
        self.counts.capture_insts += skip * threads;
        self.counts.ck_bytes += ck.approx_bytes();
        self.ck = Some((key, ck));
    }

    /// Reference-interpreter DTLB misses over an `insts` window, under the
    /// window's epoch schedule (from the start, or continued from the
    /// fast-forward checkpoint).
    pub fn arch_misses(&mut self, kernel: Kernel, seed: u64, insts: u64) -> u64 {
        if let Some(&m) = self.refs.get(&(kernel, seed, insts)) {
            return m;
        }
        let misses = if self.skip == 0 {
            self.tracer.span("core.refmodel/sweep", || {
                smtx_bench::arch_misses(kernel, seed, insts)
            })
        } else {
            self.hold(CkKey::Single(kernel, seed));
            let ck = &self.ck.as_ref().expect("held above").1;
            self.tracer.span("core.refmodel/sweep", || {
                ck.arch_misses_in_window(0, insts, epoch_schedule(insts))
            })
        };
        self.counts.ref_insts += insts;
        self.refs.insert((kernel, seed, insts), misses);
        misses
    }

    /// The per-kernel budget: `base` scaled up to average at least the
    /// minimum miss count, from a probe window.
    pub fn insts_for(&mut self, kernel: Kernel, seed: u64, base: u64) -> u64 {
        let probe = probe_insts(base);
        scale_budget(self.arch_misses(kernel, seed, probe), probe, base)
    }

    /// Builds a machine, restores the held checkpoint into it, runs it,
    /// and returns its stats.
    fn simulate(&mut self, config: &MachineConfig, budgets: &[u64], epoch: Option<u64>) -> Stats {
        let mut m = self
            .tracer
            .span("core.machine/new", || Machine::new(config.clone()));
        m.set_idle_skip(true);
        let ck = &self.ck.as_ref().expect("a checkpoint is held").1;
        self.tracer
            .span("core.checkpoint/restore", || m.restore(ck));
        self.counts.restores += 1;
        m.set_epoch_len(epoch);
        for (tid, &b) in budgets.iter().enumerate() {
            m.set_budget(tid, b);
        }
        let cap = cycle_cap(budgets.iter().sum());
        self.tracer.span("core.machine/run", || {
            m.run(cap);
        });
        for (tid, &b) in budgets.iter().enumerate() {
            assert_eq!(
                m.stats().retired(tid),
                b,
                "thread {tid} did not retire its budget"
            );
        }
        let stats = m.stats().clone();
        self.counts.add_sim(&stats, m.skipped_cycles());
        self.tracer.span("core.machine/drop", || drop(m));
        stats
    }

    /// Cycles of one single-kernel detailed run.
    pub fn sim(&mut self, kernel: Kernel, seed: u64, insts: u64, config: &MachineConfig) -> u64 {
        let key = (kernel, seed, insts, config.digest());
        if let Some(&c) = self.sims.get(&key) {
            return c;
        }
        self.hold(CkKey::Single(kernel, seed));
        let cycles = self
            .simulate(config, &[insts], epoch_schedule(insts))
            .cycles;
        self.sims.insert(key, cycles);
        cycles
    }

    /// Cycles of one three-application mix run.
    pub fn mix(&mut self, mix: [Kernel; 3], seed: u64, insts: u64, config: &MachineConfig) -> u64 {
        let key = (mix, seed, insts, config.digest());
        if let Some(&c) = self.mixes.get(&key) {
            return c;
        }
        self.hold(CkKey::Mix(mix, seed));
        let cycles = self.simulate(config, &[insts; 3], None).cycles;
        self.mixes.insert(key, cycles);
        cycles
    }

    /// The paper's metric: `(cycles(config) − cycles(perfect)) / misses`.
    pub fn penalty(
        &mut self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
    ) -> f64 {
        let run = self.sim(kernel, seed, insts, config);
        let perfect = self.sim(kernel, seed, insts, &perfect_of(config));
        let misses = self.arch_misses(kernel, seed, insts);
        (run as f64 - perfect as f64) / misses.max(1) as f64
    }

    /// Serializes `report` inside a `bench.report` span; returns the bytes.
    pub fn to_json(&mut self, report: &Report) -> String {
        self.tracer
            .span("bench.report/to_json", || report.to_json())
    }
}

/// The four Fig. 5 columns.
#[must_use]
pub fn fig5_configs() -> [(&'static str, MachineConfig); 4] {
    [
        (
            "traditional",
            config_with_idle(ExnMechanism::Traditional, 1),
        ),
        ("multi(1)", config_with_idle(ExnMechanism::Multithreaded, 1)),
        ("multi(3)", config_with_idle(ExnMechanism::Multithreaded, 3)),
        ("hardware", config_with_idle(ExnMechanism::Hardware, 1)),
    ]
}

/// The four Fig. 7 columns.
#[must_use]
pub fn fig7_mechs() -> [(&'static str, ExnMechanism); 4] {
    [
        ("traditional", ExnMechanism::Traditional),
        ("multi(1)", ExnMechanism::Multithreaded),
        ("quick(1)", ExnMechanism::QuickStart),
        ("hardware", ExnMechanism::Hardware),
    ]
}

fn mix_config(mechanism: ExnMechanism) -> MachineConfig {
    MachineConfig::paper_baseline(mechanism).with_threads(4)
}

/// Fig. 5 rebuilt from replayed stats: one penalty row per kernel and the
/// column averages.
pub fn fig5(r: &mut Replay<'_>, seed: u64, base_insts: u64) -> Report {
    let configs = fig5_configs();
    let mut report = Report::new("fig5", base_insts, seed, 1);
    report.columns = configs.iter().map(|(n, _)| n.to_string()).collect();
    let mut sums = vec![0.0; configs.len()];
    for k in Kernel::ALL {
        let insts = r.insts_for(k, seed, base_insts);
        let cells: Vec<f64> = configs
            .iter()
            .map(|(_, c)| r.penalty(k, seed, insts, c))
            .collect();
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        report.push_row(k.name(), &cells);
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / Kernel::ALL.len() as f64).collect();
    report.push_row("average", &avg);
    report
}

/// Fig. 7 rebuilt from replayed stats: one row per mix and the averages.
pub fn fig7(r: &mut Replay<'_>, seed: u64, insts: u64) -> Report {
    let mechs = fig7_mechs();
    let mut report = Report::new("fig7", insts, seed, 1);
    report.columns = mechs.iter().map(|(n, _)| n.to_string()).collect();
    let mut sums = vec![0.0; mechs.len()];
    for mix in MIXES {
        let label: String = mix.iter().map(|k| k.tag()).collect::<Vec<_>>().join("-");
        let perfect = r.mix(mix, seed, insts, &mix_config(ExnMechanism::PerfectTlb));
        let misses: u64 = mix
            .iter()
            .enumerate()
            .map(|(tid, &k)| r.arch_misses(k, seed + tid as u64, insts))
            .sum();
        let cells: Vec<f64> = mechs
            .iter()
            .map(|&(_, mech)| {
                let cycles = r.mix(mix, seed, insts, &mix_config(mech));
                (cycles as f64 - perfect as f64) / misses.max(1) as f64
            })
            .collect();
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        report.push_row(&label, &cells);
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / MIXES.len() as f64).collect();
    report.push_row("average", &avg);
    report
}
