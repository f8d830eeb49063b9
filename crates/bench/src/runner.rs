//! The parallel, memoizing experiment runner.
//!
//! Every experiment binary expands its figure or table into a flat list of
//! independent simulation jobs, hands them to a [`Runner`], and then prints
//! its rows by querying the runner — each unique simulation point runs
//! exactly once, across a pool of scoped worker threads, and every repeated
//! request (the perfect-TLB baseline shared by all mechanism columns, the
//! reference-interpreter miss counts, the `insts_for` budget probes) is
//! served from a shared in-process cache.
//!
//! Jobs are deduplicated by [`RunKey`]: kernel, seed, instruction budget
//! and the [`MachineConfig::digest`] of the configuration. The simulator is
//! fully deterministic, so the same `RunKey` always yields bit-identical
//! [`Stats`] whether it is computed serially, in parallel, or served from
//! the cache — `tests/runner_determinism.rs` holds that gate.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smtx_core::{
    CheckConfig, Checkpoint, ExnMechanism, Machine, MachineConfig, Stats, TraceEvent, VecSink,
};
use smtx_trace::codec;
use smtx_util::{Hist, ShardMap, HIST_BOUNDS_MS};
use smtx_workloads::{load_kernel, Kernel};

use crate::{
    cycle_cap, epoch_schedule, make_checkpoint, make_checkpoint_series, make_mix_checkpoint,
    plan_boundaries, probe_insts, run_interval_chunk, scale_budget, RunResult,
};

/// One simulated chunk: its instruction count, its stats, and — when the
/// run was traced — its raw event segment.
type ChunkResult = (u64, Stats, Option<Vec<TraceEvent>>);

/// Identity of one unique simulation: everything that influences the
/// resulting [`smtx_core::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunKey {
    /// Workload kernel.
    pub kernel: Kernel,
    /// Workload seed.
    pub seed: u64,
    /// Per-thread instruction budget.
    pub insts: u64,
    /// [`MachineConfig::digest`] of the configuration.
    pub config_digest: u64,
}

/// Identity of one multi-application (Fig. 7) simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MixKey {
    /// The three application kernels, in thread order.
    pub mix: [Kernel; 3],
    /// Base seed (thread `tid` runs with `seed + tid`).
    pub seed: u64,
    /// Per-thread instruction budget.
    pub insts: u64,
    /// [`MachineConfig::digest`] of the configuration.
    pub config_digest: u64,
}

/// One independent unit of work for [`Runner::prefetch`].
#[derive(Debug, Clone)]
pub enum Job {
    /// A single-kernel machine simulation.
    Sim {
        /// Workload kernel.
        kernel: Kernel,
        /// Workload seed.
        seed: u64,
        /// Per-thread instruction budget.
        insts: u64,
        /// Machine configuration.
        config: MachineConfig,
    },
    /// A reference-interpreter run counting architectural TLB misses.
    Ref {
        /// Workload kernel.
        kernel: Kernel,
        /// Workload seed.
        seed: u64,
        /// Instruction budget.
        insts: u64,
    },
    /// A three-application SMT simulation (Fig. 7).
    Mix {
        /// The three application kernels.
        mix: [Kernel; 3],
        /// Base seed.
        seed: u64,
        /// Per-thread instruction budget.
        insts: u64,
        /// Machine configuration.
        config: MachineConfig,
    },
}

impl Job {
    fn key(&self) -> JobKey {
        match self {
            Job::Sim { kernel, seed, insts, config } => JobKey::Sim(RunKey {
                kernel: *kernel,
                seed: *seed,
                insts: *insts,
                config_digest: config.digest(),
            }),
            Job::Ref { kernel, seed, insts } => JobKey::Ref(*kernel, *seed, *insts),
            Job::Mix { mix, seed, insts, config } => JobKey::Mix(MixKey {
                mix: *mix,
                seed: *seed,
                insts: *insts,
                config_digest: config.digest(),
            }),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum JobKey {
    Sim(RunKey),
    Ref(Kernel, u64, u64),
    Mix(MixKey),
}

/// Identity of one reusable fast-forward checkpoint: `(workload, seed,
/// skip)`. Config-independent by construction — the functional interpreter
/// knows nothing about the machine configuration — which is exactly why one
/// checkpoint serves every configuration of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum CkKey {
    Single(Kernel, u64, u64),
    Mix([Kernel; 3], u64, u64),
}

/// Bucket-bound quantile over a [`HIST_BOUNDS_MS`]-shaped histogram: the
/// upper bound (ms) of the first bucket at which the cumulative count
/// reaches `pct` percent of the total, i.e. a conservative "p50"/"p99"
/// that never under-reports. Pure integer arithmetic — bucketed
/// quantiles are noise-resistant, which is what lets CI gate on them.
/// Returns `None` for an empty histogram; a quantile landing in the
/// unbounded eighth bucket reports `u64::MAX`.
#[must_use]
pub fn hist_quantile_ms(buckets: &[u64; 8], pct: u64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    // Smallest rank whose cumulative share is >= pct/100, without floats.
    let target = (total * pct).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return Some(HIST_BOUNDS_MS.get(i).copied().unwrap_or(u64::MAX));
        }
    }
    Some(u64::MAX)
}

/// Default cap on the approximate resident bytes of cached fast-forward
/// checkpoints (1 GiB). Interval-parallel runs multiply the checkpoint
/// count by the boundary count, so the cache is LRU-bounded by size
/// instead of growing with every boundary ever captured.
pub const DEFAULT_CHECKPOINT_CAP_BYTES: u64 = 1 << 30;

/// Cache-effectiveness counters (all monotonic).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerStats {
    /// Unique simulation/reference points computed and cached (a point two
    /// workers race to compute counts once — the first writer's).
    pub unique_runs: u64,
    /// Requests served from the cache.
    pub cache_hits: u64,
    /// Fast-forward checkpoints served from the checkpoint cache.
    pub checkpoint_hits: u64,
    /// Machine cycles simulated across all unique runs.
    pub sim_cycles: u64,
    /// Approximate resident bytes of the checkpoints currently cached
    /// (sum of per-entry estimates frozen at insertion; LRU-evicted past
    /// the configured cap). Not monotonic, unlike the counters above.
    pub checkpoint_bytes: u64,
    /// Wall-time histogram of checkpoint builds (bucket upper bounds in
    /// [`HIST_BOUNDS_MS`], last bucket unbounded).
    pub checkpoint_ms_hist: [u64; 8],
    /// Wall-time histogram of detailed-machine simulations.
    pub sim_ms_hist: [u64; 8],
    /// Wall-time histogram of reference-interpreter runs.
    pub ref_ms_hist: [u64; 8],
    /// Lock-wait histogram summed over every cache-shard acquisition
    /// (same bucket bounds): sustained counts past the first bucket mean
    /// workers are contending on the memoization caches.
    pub lock_wait_ms_hist: [u64; 8],
}

/// The shared executor: a job cache plus a scoped-thread worker pool.
///
/// All query methods (`run`, `arch_misses`, `penalty_per_miss`, …) are
/// compute-on-miss, so experiment code never has to care whether a point
/// was prefetched; [`Runner::prefetch`] exists purely to expose the
/// parallelism.
pub struct Runner {
    jobs: usize,
    /// Tier-1 fast-forward length (instructions skipped functionally before
    /// the measurement window). 0 disables fast-forwarding.
    skip: u64,
    /// Reuse one cached checkpoint per `(workload, seed, skip)` across all
    /// configurations. When off, every run rebuilds its checkpoint from
    /// scratch (and a `skip == 0` run loads the kernel directly) — the rows
    /// must come out identical either way; CI diffs them.
    use_checkpoints: bool,
    /// Tier-2 idle-cycle skipping in the detailed machine.
    idle_skip: bool,
    /// Run every simulated machine under the `--check` pipeline sanitizer.
    /// Observation-only (rows stay bit-identical) but any violation panics
    /// the run — a checked experiment must be clean or die loudly.
    check: bool,
    /// Interval-parallel chunk count for single-kernel runs
    /// (`--intervals`): the measurement window is cut at epoch-aligned
    /// boundaries and the chunks simulated concurrently from their
    /// boundary checkpoints. A pure scheduling knob — it enters no cache
    /// key and no config digest, and the merged stats are bit-identical
    /// for every value (CI diffs the rows).
    intervals: u64,
    // Lock-sharded hash maps: workers hash-select one of 16 shard locks,
    // so concurrent lookups rarely collide, and lookups clone the value
    // out so no lock is held across caller work. `no-unordered-iteration`
    // stays satisfied by construction — `ShardMap::sorted_entries` is the
    // only multi-entry view, and it key-sorts what it returns.
    sims: ShardMap<RunKey, Arc<RunResult>>,
    refs: ShardMap<(Kernel, u64, u64), u64>,
    mixes: ShardMap<MixKey, u64>,
    checkpoints: ShardMap<CkKey, Arc<Checkpoint>>,
    /// Insertion/touch order and frozen size estimate of every cached
    /// checkpoint; the front is evicted while `ck_bytes` exceeds the cap.
    ck_lru: Mutex<VecDeque<(CkKey, u64)>>,
    ck_bytes: AtomicU64,
    ck_cap_bytes: u64,
    unique_runs: AtomicU64,
    cache_hits: AtomicU64,
    ck_hits: AtomicU64,
    sim_cycles: AtomicU64,
    /// Binary trace capture (`--trace PATH`): every uniquely computed run
    /// appends one `RunStart`-prefixed event segment. Observation-only —
    /// the tracer is not part of [`MachineConfig::digest`] and the rows
    /// stay bit-identical (CI diffs them).
    trace_path: Option<PathBuf>,
    /// The trace file, opened lazily (magic written once) on the first
    /// segment; one segment is appended per completed run, atomically
    /// under this lock, so parallel workers interleave whole segments.
    trace_file: Mutex<Option<BufWriter<File>>>,
    ck_ms: Hist,
    sim_ms: Hist,
    ref_ms: Hist,
}

/// Index of `kernel` in [`Kernel::ALL`], the `RunStart` marker's kernel
/// code (`u64::MAX` tags a Fig. 7 mix segment). Assembled programs live
/// in a disjoint code range: `1000 + AsmId`.
fn kernel_code(kernel: Kernel) -> u64 {
    if let Kernel::Asm(id) = kernel {
        return 1000 + u64::from(id.0);
    }
    Kernel::ALL.iter().position(|&k| k == kernel).map_or(u64::MAX, |i| i as u64)
}

/// Encodes one trace segment: a `RunStart` marker, then the run's events.
fn segment_body(
    kernel: u64,
    seed: u64,
    insts: u64,
    digest: u64,
    mut events: Vec<TraceEvent>,
) -> Vec<u8> {
    events.insert(0, TraceEvent::RunStart { kernel, seed, insts, digest });
    codec::encode_body(&events)
}

/// Merges a chunked run's stats and stitches its trace: one segment per
/// traced chunk, in chunk order, so a cut run's trace reads like the
/// monolithic run's (empty when the chunks were not traced).
fn stitch(kernel: Kernel, seed: u64, digest: u64, chunks: Vec<ChunkResult>) -> (Stats, Vec<u8>) {
    let mut merged: Option<Stats> = None;
    let mut body = Vec::new();
    for (chunk_insts, stats, events) in chunks {
        if let Some(events) = events {
            body.extend(segment_body(kernel_code(kernel), seed, chunk_insts, digest, events));
        }
        match &mut merged {
            Some(acc) => acc.merge(&stats),
            None => merged = Some(stats),
        }
    }
    (merged.expect("the window has at least one chunk"), body)
}

impl Runner {
    /// Creates a runner executing up to `jobs` simulations concurrently;
    /// `0` selects the host's available parallelism. Fast-forward defaults
    /// to 0 instructions; checkpoint reuse and idle-cycle skipping default
    /// to on.
    #[must_use]
    pub fn new(jobs: usize) -> Runner {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            jobs
        };
        Runner {
            jobs,
            skip: 0,
            use_checkpoints: true,
            idle_skip: true,
            check: false,
            intervals: 1,
            sims: ShardMap::new(),
            refs: ShardMap::new(),
            mixes: ShardMap::new(),
            checkpoints: ShardMap::new(),
            ck_lru: Mutex::new(VecDeque::new()),
            ck_bytes: AtomicU64::new(0),
            ck_cap_bytes: DEFAULT_CHECKPOINT_CAP_BYTES,
            unique_runs: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            ck_hits: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            trace_path: None,
            trace_file: Mutex::new(None),
            ck_ms: Hist::default(),
            sim_ms: Hist::default(),
            ref_ms: Hist::default(),
        }
    }

    /// Sets the tier-1 functional fast-forward length (instructions per
    /// thread skipped before the measurement window).
    #[must_use]
    pub fn with_skip(mut self, skip: u64) -> Runner {
        self.skip = skip;
        self
    }

    /// Enables or disables checkpoint reuse (`--checkpoint on|off`).
    #[must_use]
    pub fn with_checkpoint_cache(mut self, on: bool) -> Runner {
        self.use_checkpoints = on;
        self
    }

    /// Enables or disables tier-2 idle-cycle skipping in every simulated
    /// machine (`--idle-skip on|off`).
    #[must_use]
    pub fn with_idle_skip(mut self, on: bool) -> Runner {
        self.idle_skip = on;
        self
    }

    /// Sets the interval-parallel chunk count for single-kernel runs
    /// (`--intervals`, clamped to at least 1). Mix runs are never cut.
    #[must_use]
    pub fn with_intervals(mut self, intervals: u64) -> Runner {
        self.intervals = intervals.max(1);
        self
    }

    /// Caps the approximate resident bytes of cached checkpoints
    /// (least-recently-used entries are evicted past the cap).
    #[must_use]
    pub fn with_checkpoint_cap_bytes(mut self, bytes: u64) -> Runner {
        self.ck_cap_bytes = bytes;
        self
    }

    /// The configured parallelism degree.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured fast-forward length.
    #[must_use]
    pub fn skip(&self) -> u64 {
        self.skip
    }

    /// Whether checkpoint reuse is enabled.
    #[must_use]
    pub fn checkpoint_cache(&self) -> bool {
        self.use_checkpoints
    }

    /// Whether tier-2 idle-cycle skipping is enabled.
    #[must_use]
    pub fn idle_skip(&self) -> bool {
        self.idle_skip
    }

    /// The configured interval-parallel chunk count.
    #[must_use]
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Sets (or clears) the binary trace capture destination (`--trace
    /// PATH`). Every uniquely computed simulation appends one
    /// `RunStart`-prefixed event segment; cache hits are not re-traced, and
    /// worker scheduling makes the cross-segment order nondeterministic —
    /// the `smtx-trace` analyzer is per-segment, so that never matters.
    #[must_use]
    pub fn with_trace(mut self, path: Option<PathBuf>) -> Runner {
        self.trace_path = path;
        self
    }

    /// The configured trace capture destination, if any.
    #[must_use]
    pub fn trace_path(&self) -> Option<&Path> {
        self.trace_path.as_deref()
    }

    /// Enables or disables the pipeline sanitizer (`--check on|off`).
    #[must_use]
    pub fn with_check(mut self, on: bool) -> Runner {
        self.check = on;
        self
    }

    /// Whether the pipeline sanitizer is enabled.
    #[must_use]
    pub fn check(&self) -> bool {
        self.check
    }

    /// Cache-effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> RunnerStats {
        RunnerStats {
            unique_runs: self.unique_runs.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            checkpoint_hits: self.ck_hits.load(Ordering::Relaxed),
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            checkpoint_bytes: self.ck_bytes.load(Ordering::Relaxed),
            checkpoint_ms_hist: self.ck_ms.snapshot(),
            sim_ms_hist: self.sim_ms.snapshot(),
            ref_ms_hist: self.ref_ms.snapshot(),
            lock_wait_ms_hist: {
                let hists = [
                    self.sims.wait_hist(),
                    self.refs.wait_hist(),
                    self.mixes.wait_hist(),
                    self.checkpoints.wait_hist(),
                ];
                std::array::from_fn(|i| hists.iter().map(|h| h[i]).sum())
            },
        }
    }

    /// Appends one completed run's encoded segments (see [`segment_body`])
    /// to the trace file, created lazily, magic first, on the first append.
    /// No-op when tracing is off.
    ///
    /// # Panics
    ///
    /// Panics if the trace file cannot be written — a requested trace that
    /// silently vanishes would be worse than a dead experiment.
    // lint:allow(no-lock-across-io): the trace-file lock exists precisely to
    // serialize whole-run appends — chunk-order stitching requires a run's
    // bytes to land contiguously, so the write happens under it.
    fn append_segment(&self, body: &[u8]) {
        let Some(path) = &self.trace_path else { return };
        let mut guard = self.trace_file.lock().expect("trace file");
        let writer = match guard.as_mut() {
            Some(w) => w,
            None => {
                let file = File::create(path)
                    .unwrap_or_else(|e| panic!("cannot create trace {}: {e}", path.display()));
                let mut w = BufWriter::new(file);
                w.write_all(&codec::MAGIC)
                    .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
                guard.insert(w)
            }
        };
        writer
            .write_all(body)
            .and_then(|()| writer.flush())
            .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
    }

    /// Executes `jobs` across the worker pool, deduplicating within the
    /// batch and against already-cached results. Afterwards every query for
    /// one of these points is a cache hit.
    ///
    /// When checkpoint reuse is on, the distinct checkpoints the batch needs
    /// are built first (in parallel), so concurrent sims of the same
    /// workload share one fast-forward instead of racing to duplicate it.
    pub fn prefetch(&self, jobs: Vec<Job>) {
        let mut pending = Vec::with_capacity(jobs.len());
        let mut seen = std::collections::BTreeSet::new();
        for job in jobs {
            let key = job.key();
            if !seen.insert(key) || self.is_cached(&key) {
                continue;
            }
            pending.push(job);
        }
        if pending.is_empty() {
            return;
        }
        if self.use_checkpoints {
            let mut ck_keys = Vec::new();
            let mut ck_seen = std::collections::BTreeSet::new();
            for job in &pending {
                let key = match job {
                    Job::Sim { kernel, seed, .. } => CkKey::Single(*kernel, *seed, self.skip),
                    Job::Ref { kernel, seed, .. } if self.skip > 0 => {
                        CkKey::Single(*kernel, *seed, self.skip)
                    }
                    Job::Mix { mix, seed, .. } => CkKey::Mix(*mix, *seed, self.skip),
                    Job::Ref { .. } => continue,
                };
                if ck_seen.insert(key) && !self.checkpoints.contains(&key) {
                    ck_keys.push(key);
                }
            }
            self.for_each_parallel(ck_keys.len(), |i| {
                match ck_keys[i] {
                    CkKey::Single(kernel, seed, _) => {
                        let _ = self.checkpoint_single(kernel, seed);
                    }
                    CkKey::Mix(mix, seed, _) => {
                        let _ = self.checkpoint_mix(mix, seed);
                    }
                };
            });
            // Interval runs also need each boundary's checkpoint; one
            // series sweep per (kernel, seed, schedule) beforehand stops
            // concurrent sims of the same workload racing to duplicate it.
            if self.intervals > 1 {
                let mut specs = Vec::new();
                let mut spec_seen = std::collections::BTreeSet::new();
                for job in &pending {
                    if let Job::Sim { kernel, seed, insts, .. } = job {
                        let bounds: Vec<u64> = epoch_schedule(*insts)
                            .map(|e| plan_boundaries(*insts, self.intervals, e))
                            .unwrap_or_default()
                            .into_iter()
                            .map(|b| self.skip + b)
                            .collect();
                        if !bounds.is_empty() && spec_seen.insert((*kernel, *seed, bounds.clone()))
                        {
                            specs.push((*kernel, *seed, bounds));
                        }
                    }
                }
                self.for_each_parallel(specs.len(), |i| {
                    let (kernel, seed, bounds) = &specs[i];
                    let _ = self.checkpoint_series(*kernel, *seed, bounds);
                });
            }
        }
        self.for_each_parallel(pending.len(), |i| self.execute(&pending[i]));
    }

    /// Runs `f(0..n)` across the worker pool (serially when `n` or the pool
    /// is small).
    fn for_each_parallel(&self, n: usize, f: impl Fn(usize) + Sync) {
        let workers = self.jobs.min(n);
        if workers <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(i);
                });
            }
        });
    }

    /// A machine under the runner's engine settings: idle-cycle skipping,
    /// the `--check` sanitizer and, when `trace`, an in-memory tracer.
    fn machine(&self, config: &MachineConfig, trace: bool) -> Machine {
        let mut m = Machine::new(config.clone());
        m.set_idle_skip(self.idle_skip);
        if self.check {
            m.set_check(Some(CheckConfig::default()));
        }
        if trace {
            m.set_tracer(Some(Box::new(VecSink::default())));
        }
        m
    }

    /// [`Runner::machine`] at the start of the measurement window of
    /// `kernels`, context `i` running `kernels[i]` seeded `seed + i`: loaded
    /// directly when there is nothing to fast-forward and checkpoints are
    /// off, otherwise restored from the workload's shared checkpoint.
    fn window_machine(
        &self,
        config: &MachineConfig,
        trace: bool,
        kernels: &[Kernel],
        seed: u64,
    ) -> Machine {
        let mut m = self.machine(config, trace);
        if self.skip == 0 && !self.use_checkpoints {
            for (tid, &k) in kernels.iter().enumerate() {
                load_kernel(&mut m, tid, k, seed + tid as u64);
            }
        } else {
            let ck = match *kernels {
                [kernel] => self.checkpoint_single(kernel, seed),
                [a, b, c] => self.checkpoint_mix([a, b, c], seed),
                _ => unreachable!("a run is one kernel or a three-kernel mix"),
            };
            m.restore(&ck);
        }
        m
    }

    /// The (possibly cached) fast-forward checkpoint for one kernel.
    fn checkpoint_single(&self, kernel: Kernel, seed: u64) -> Arc<Checkpoint> {
        let key = CkKey::Single(kernel, seed, self.skip);
        self.checkpoint_with(key, || make_checkpoint(kernel, seed, self.skip))
    }

    /// The (possibly cached) fast-forward checkpoint for a Fig. 7 mix.
    fn checkpoint_mix(&self, mix: [Kernel; 3], seed: u64) -> Arc<Checkpoint> {
        let key = CkKey::Mix(mix, seed, self.skip);
        self.checkpoint_with(key, || make_mix_checkpoint(mix, seed, self.skip))
    }

    fn checkpoint_with(
        &self,
        key: CkKey,
        build: impl FnOnce() -> Checkpoint,
    ) -> Arc<Checkpoint> {
        if self.use_checkpoints {
            if let Some(hit) = self.checkpoints.get(&key) {
                self.ck_hits.fetch_add(1, Ordering::Relaxed);
                self.touch_checkpoint(&key);
                return hit;
            }
        }
        // Built outside any lock; concurrent duplicates (callers racing
        // past prefetch) waste work but cache a deterministic value.
        let t0 = Instant::now();
        let ck = Arc::new(build());
        self.ck_ms.observe(t0.elapsed());
        if !self.use_checkpoints {
            return ck;
        }
        self.cache_checkpoint(key, ck)
    }

    /// The (possibly cached) boundary-checkpoint series of an
    /// interval-parallel run: one entry per absolute fast-forward length in
    /// `bounds` (strictly ascending, all positive). A full hit returns
    /// without touching the interpreter; any miss re-captures the whole
    /// series in one functional sweep and caches every boundary
    /// individually — under the same key shape as ordinary `--skip`
    /// checkpoints, so a later monolithic run at a boundary's skip reuses a
    /// series entry and vice versa.
    fn checkpoint_series(&self, kernel: Kernel, seed: u64, bounds: &[u64]) -> Vec<Arc<Checkpoint>> {
        let keys: Vec<CkKey> = bounds.iter().map(|&b| CkKey::Single(kernel, seed, b)).collect();
        if self.use_checkpoints {
            let hits: Option<Vec<Arc<Checkpoint>>> =
                keys.iter().map(|k| self.checkpoints.get(k)).collect();
            if let Some(hits) = hits {
                self.ck_hits.fetch_add(keys.len() as u64, Ordering::Relaxed);
                for k in &keys {
                    self.touch_checkpoint(k);
                }
                return hits;
            }
        }
        let t0 = Instant::now();
        let series = make_checkpoint_series(kernel, seed, bounds);
        self.ck_ms.observe(t0.elapsed());
        let arcs: Vec<Arc<Checkpoint>> = series.into_iter().map(Arc::new).collect();
        if !self.use_checkpoints {
            return arcs;
        }
        keys.into_iter()
            .zip(&arcs)
            .map(|(key, ck)| self.cache_checkpoint(key, Arc::clone(ck)))
            .collect()
    }

    /// Inserts `ck` under `key` (first writer wins), charging its frozen
    /// size estimate to the cache and evicting least-recently-used entries
    /// while the cap is exceeded. Returns the cached value.
    fn cache_checkpoint(&self, key: CkKey, ck: Arc<Checkpoint>) -> Arc<Checkpoint> {
        let mut inserted = false;
        let out = self.checkpoints.get_or_insert_with(key, || {
            inserted = true;
            Arc::clone(&ck)
        });
        if !inserted {
            return out;
        }
        let bytes = out.approx_bytes();
        self.ck_bytes.fetch_add(bytes, Ordering::Relaxed);
        let mut lru = self.ck_lru.lock().expect("checkpoint lru");
        lru.push_back((key, bytes));
        while self.ck_bytes.load(Ordering::Relaxed) > self.ck_cap_bytes && lru.len() > 1 {
            let (old, old_bytes) = lru.pop_front().expect("lru is non-empty");
            if old == key {
                // Never evict the entry just inserted — its caller is
                // about to use it; put it back and stop.
                lru.push_back((old, old_bytes));
                break;
            }
            if self.checkpoints.remove(&old).is_some() {
                self.ck_bytes.fetch_sub(old_bytes, Ordering::Relaxed);
            }
        }
        out
    }

    /// Moves `key` to the back of the LRU order on a cache hit.
    fn touch_checkpoint(&self, key: &CkKey) {
        let mut lru = self.ck_lru.lock().expect("checkpoint lru");
        if let Some(pos) = lru.iter().position(|(k, _)| k == key) {
            let entry = lru.remove(pos).expect("position is in range");
            lru.push_back(entry);
        }
    }

    /// Panics with the collected violation reports if a checked machine
    /// detected any divergence (no-op when `--check` is off).
    fn assert_check_clean(&self, m: &Machine, what: &str) {
        let total = m.check_violation_count();
        assert!(
            total == 0,
            "--check found {total} violation(s) running {what}:\n{}",
            m.check_violations()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    fn is_cached(&self, key: &JobKey) -> bool {
        match key {
            JobKey::Sim(k) => self.sims.contains(k),
            JobKey::Ref(kernel, seed, insts) => self.refs.contains(&(*kernel, *seed, *insts)),
            JobKey::Mix(k) => self.mixes.contains(k),
        }
    }

    fn execute(&self, job: &Job) {
        match job {
            Job::Sim { kernel, seed, insts, config } => {
                let _ = self.run(*kernel, *seed, *insts, config);
            }
            Job::Ref { kernel, seed, insts } => {
                let _ = self.arch_misses(*kernel, *seed, *insts);
            }
            Job::Mix { mix, seed, insts, config } => {
                let _ = self.run_mix(*mix, *seed, *insts, config);
            }
        }
    }

    /// Memoized [`crate::run_kernel`]: runs `kernel` under `config` with
    /// the runner's configured interval count, serving repeats of the same
    /// [`RunKey`] from the cache.
    pub fn run(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
    ) -> Arc<RunResult> {
        self.run_with_intervals(kernel, seed, insts, config, self.intervals)
    }

    /// [`Runner::run`] with an explicit interval count. `intervals` is a
    /// pure scheduling knob: it is not part of the [`RunKey`], and the
    /// merged stats are bit-identical for every value, so a cached
    /// monolithic result legitimately serves an interval request and vice
    /// versa (CI's interval-exactness matrix holds that gate).
    pub fn run_with_intervals(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
        intervals: u64,
    ) -> Arc<RunResult> {
        let key = RunKey { kernel, seed, insts, config_digest: config.digest() };
        // The probe clones the Arc out and drops its shard lock before
        // returning, so nothing below (simulation, hashing, serialization)
        // ever runs under a cache lock.
        if let Some(hit) = self.sims.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Compute outside the lock; a concurrent duplicate (only possible
        // when callers race past prefetch) wastes work but, the simulator
        // being deterministic, never changes the cached value.
        let chunks =
            self.simulate_chunks(kernel, seed, insts, config, intervals, self.trace_path.is_some());
        let (stats, body) = stitch(kernel, seed, key.config_digest, chunks);
        self.append_segment(&body);
        assert_eq!(stats.retired(0), insts, "{} did not finish", kernel.name());
        let arch_misses = self.arch_misses(kernel, seed, insts);
        let result = Arc::new(RunResult {
            cycles: stats.cycles,
            retired: insts,
            arch_misses,
            stats,
        });
        // Counters bump inside the insert closure so a lost first-writer
        // race (two workers computing the same point) counts once — serial
        // and parallel runners must report identical unique_runs.
        self.sims.get_or_insert_with(key, || {
            self.unique_runs.fetch_add(1, Ordering::Relaxed);
            self.sim_cycles.fetch_add(result.cycles, Ordering::Relaxed);
            Arc::clone(&result)
        })
    }

    /// The chunked simulation engine behind every single-kernel run: cuts
    /// the window at [`plan_boundaries`] (one chunk — the monolithic case —
    /// when `intervals` is 1 or [`epoch_schedule`] declines the window),
    /// simulates the chunks concurrently across the worker pool (each from
    /// its boundary checkpoint, with the epoch schedule installed), and
    /// returns each chunk's length, stats, and — when `trace` — its raw
    /// event segment, in chunk order.
    fn simulate_chunks(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
        intervals: u64,
        trace: bool,
    ) -> Vec<ChunkResult> {
        let epoch = epoch_schedule(insts);
        let mut cuts = vec![0u64];
        if let Some(e) = epoch {
            cuts.extend(plan_boundaries(insts, intervals, e));
        }
        cuts.push(insts);
        let n = cuts.len() - 1;
        let series = if n > 1 {
            let abs: Vec<u64> = cuts[1..n].iter().map(|&c| self.skip + c).collect();
            self.checkpoint_series(kernel, seed, &abs)
        } else {
            Vec::new()
        };
        let slots: Vec<Mutex<Option<ChunkResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let t0 = Instant::now();
        self.for_each_parallel(n, |i| {
            let chunk = cuts[i + 1] - cuts[i];
            let mut m = if i == 0 {
                self.window_machine(config, trace, &[kernel], seed)
            } else {
                let mut m = self.machine(config, trace);
                m.restore(&series[i - 1]);
                m
            };
            m.set_epoch_len(epoch);
            run_interval_chunk(&mut m, chunk, i == n - 1, cycle_cap(insts));
            self.assert_check_clean(&m, &format!("{} seed {seed} chunk {i}", kernel.name()));
            assert_eq!(
                m.stats().retired(0),
                chunk,
                "{} chunk {i} did not finish",
                kernel.name()
            );
            let events =
                trace.then(|| m.take_tracer().expect("tracer attached above").take_events());
            *slots[i].lock().expect("chunk slot") = Some((chunk, m.stats().clone(), events));
        });
        self.sim_ms.observe(t0.elapsed());
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("chunk slot").expect("chunk simulated"))
            .collect()
    }

    /// Runs one kernel point with an in-memory tracer attached and returns
    /// the encoded bytes of a complete single-segment trace file (magic,
    /// then a `RunStart`-prefixed event stream). Bypasses the result cache
    /// on purpose — a memoized run has no events left to give — but shares
    /// the checkpoint cache, and the simulator is deterministic, so the
    /// stats such a run produces are identical to the cached ones. This is
    /// what serves `smtxd`'s per-job `"trace": true` capture.
    ///
    /// # Panics
    ///
    /// Panics if the machine fails to retire `insts` within the cycle cap.
    #[must_use]
    pub fn run_traced(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
    ) -> Vec<u8> {
        self.run_traced_with_intervals(kernel, seed, insts, config, self.intervals)
    }

    /// [`Runner::run_traced`] with an explicit interval count: the encoded
    /// file carries one `RunStart`-prefixed segment per chunk, stitched in
    /// chunk order (a monolithic run is the familiar single-segment file).
    #[must_use]
    pub fn run_traced_with_intervals(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
        intervals: u64,
    ) -> Vec<u8> {
        let chunks = self.simulate_chunks(kernel, seed, insts, config, intervals, true);
        let (stats, body) = stitch(kernel, seed, config.digest(), chunks);
        assert_eq!(stats.retired(0), insts, "{} did not finish", kernel.name());
        let mut out = codec::MAGIC.to_vec();
        out.extend_from_slice(&body);
        out
    }

    /// Memoized [`crate::arch_misses`] (reference-interpreter DTLB misses,
    /// counted under the [`epoch_schedule`] renewal schedule of an
    /// `insts`-length window). Mix denominators share these entries: the
    /// schedule only normalizes the per-miss metric, and the same
    /// denominator serves every mechanism column, so rankings are
    /// unaffected.
    pub fn arch_misses(&self, kernel: Kernel, seed: u64, insts: u64) -> u64 {
        let key = (kernel, seed, insts);
        if let Some(hit) = self.refs.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let misses = if self.skip == 0 {
            let t0 = Instant::now();
            let misses = crate::arch_misses(kernel, seed, insts);
            self.ref_ms.observe(t0.elapsed());
            misses
        } else {
            // Misses inside the measurement window: continue the functional
            // model from the checkpoint with a cold DTLB — matching the
            // restored machine's cold microarchitectural TLB — flushed on
            // the window's epoch schedule like the detailed machine's.
            let ck = self.checkpoint_single(kernel, seed);
            let t0 = Instant::now();
            let misses = ck.arch_misses_in_window(0, insts, epoch_schedule(insts));
            self.ref_ms.observe(t0.elapsed());
            misses
        };
        self.refs.get_or_insert_with(key, || {
            self.unique_runs.fetch_add(1, Ordering::Relaxed);
            misses
        })
    }

    /// Memoized [`crate::insts_for`]: scales `base_insts` so the kernel
    /// averages at least [`crate::MIN_MISSES`] architectural misses (density
    /// sampled inside the measurement window when fast-forwarding).
    ///
    /// Assembled programs ignore `base_insts`: their window is their exact
    /// retired count to `HALT`, minus whatever this runner fast-forwards,
    /// so the detailed machine finishes the window precisely at the halt.
    ///
    /// # Panics
    ///
    /// Panics if the runner's fast-forward would skip an assembled program
    /// past its own `HALT`.
    pub fn insts_for(&self, kernel: Kernel, seed: u64, base_insts: u64) -> u64 {
        if let Some(halt) = kernel.halting_insts() {
            assert!(
                self.skip < halt,
                "{}: --skip {} reaches past the program's halt at {halt}",
                kernel.name(),
                self.skip
            );
            return halt - self.skip;
        }
        let probe = probe_insts(base_insts);
        scale_budget(self.arch_misses(kernel, seed, probe), probe, base_insts)
    }

    /// The paper's §3 metric, with both the mechanism run and the shared
    /// perfect-TLB baseline memoized.
    pub fn penalty_per_miss(
        &self,
        kernel: Kernel,
        seed: u64,
        insts: u64,
        config: &MachineConfig,
    ) -> f64 {
        let run = self.run(kernel, seed, insts, config);
        let perfect = self.run(kernel, seed, insts, &perfect_of(config));
        (run.cycles as f64 - perfect.cycles as f64) / run.arch_misses.max(1) as f64
    }

    /// Memoized Fig. 7 mix run: three kernels plus one idle context,
    /// returning total machine cycles to retire every thread's budget.
    pub fn run_mix(&self, mix: [Kernel; 3], seed: u64, insts: u64, config: &MachineConfig) -> u64 {
        let key = MixKey { mix, seed, insts, config_digest: config.digest() };
        if let Some(hit) = self.mixes.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let trace = self.trace_path.is_some();
        let mut m = self.window_machine(config, trace, &mix, seed);
        for tid in 0..3 {
            m.set_budget(tid, insts);
        }
        let t0 = Instant::now();
        m.run(cycle_cap(insts * 3));
        self.sim_ms.observe(t0.elapsed());
        if trace {
            // Mix segments carry no single kernel; `u64::MAX` tags them.
            let events = m.take_tracer().expect("tracer attached above").take_events();
            self.append_segment(&segment_body(u64::MAX, seed, insts, key.config_digest, events));
        }
        self.assert_check_clean(&m, &format!("{mix:?} seed {seed}"));
        for tid in 0..3 {
            assert_eq!(m.stats().retired(tid), insts, "{mix:?} thread {tid} unfinished");
        }
        let cycles = m.stats().cycles;
        self.mixes.get_or_insert_with(key, || {
            self.unique_runs.fetch_add(1, Ordering::Relaxed);
            self.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
            cycles
        })
    }

    /// Architectural misses summed over a mix's three threads (each
    /// per-thread count individually memoized).
    pub fn mix_arch_misses(&self, mix: [Kernel; 3], seed: u64, insts: u64) -> u64 {
        mix.iter()
            .enumerate()
            .map(|(tid, &k)| self.arch_misses(k, seed + tid as u64, insts))
            .sum()
    }

    /// Resolves per-kernel budgets for a whole experiment at once: the
    /// budget probes run in parallel, then each kernel's scaled budget is
    /// read from the cache.
    pub fn insts_map(&self, kernels: &[Kernel], seed: u64, base_insts: u64) -> Vec<u64> {
        let probe = probe_insts(base_insts);
        self.prefetch(
            kernels
                .iter()
                .map(|&k| Job::Ref { kernel: k, seed, insts: probe })
                .collect(),
        );
        kernels
            .iter()
            .map(|&k| self.insts_for(k, seed, base_insts))
            .collect()
    }
}

/// `config` with the mechanism swapped for the perfect TLB (the penalty
/// metric's baseline).
#[must_use]
pub fn perfect_of(config: &MachineConfig) -> MachineConfig {
    let mut perfect = config.clone();
    perfect.mechanism = ExnMechanism::PerfectTlb;
    perfect
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_with_idle;

    #[test]
    fn hist_quantile_is_a_conservative_bucket_bound() {
        assert_eq!(hist_quantile_ms(&[0; 8], 50), None);
        // 10 observations, all in the ≤4 ms bucket.
        let h = [0, 10, 0, 0, 0, 0, 0, 0];
        assert_eq!(hist_quantile_ms(&h, 50), Some(4));
        assert_eq!(hist_quantile_ms(&h, 99), Some(4));
        // 98 fast + 2 slow (nearest-rank): p50 stays fast, p99's rank-99
        // observation lands in the slow bucket.
        let mut h = [98, 0, 0, 0, 0, 0, 0, 0];
        h[5] = 2;
        assert_eq!(hist_quantile_ms(&h, 50), Some(1));
        assert_eq!(hist_quantile_ms(&h, 98), Some(1));
        assert_eq!(hist_quantile_ms(&h, 99), Some(1024));
        // The unbounded tail reports u64::MAX rather than pretending.
        let h = [0, 0, 0, 0, 0, 0, 0, 3];
        assert_eq!(hist_quantile_ms(&h, 50), Some(u64::MAX));
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let runner = Runner::new(1);
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let a = runner.run(Kernel::Compress, 42, 5_000, &cfg);
        let before = runner.stats();
        let b = runner.run(Kernel::Compress, 42, 5_000, &cfg);
        let after = runner.stats();
        assert_eq!(a.stats, b.stats, "cached result identical");
        assert_eq!(after.unique_runs, before.unique_runs, "no recompute");
        assert_eq!(after.cache_hits, before.cache_hits + 1);
    }

    #[test]
    fn penalty_shares_the_perfect_baseline() {
        let runner = Runner::new(1);
        let multi = config_with_idle(ExnMechanism::Multithreaded, 1);
        let hw = config_with_idle(ExnMechanism::Hardware, 1);
        let _ = runner.penalty_per_miss(Kernel::Compress, 42, 5_000, &multi);
        let unique_after_first = runner.stats().unique_runs;
        let _ = runner.penalty_per_miss(Kernel::Compress, 42, 5_000, &hw);
        // Second mechanism adds exactly one new simulation — the perfect
        // baseline and the reference run are shared.
        assert_eq!(runner.stats().unique_runs, unique_after_first + 1);
    }

    #[test]
    fn cached_and_fresh_checkpoints_yield_identical_runs() {
        let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);
        let cached = Runner::new(1).with_skip(2_000);
        let uncached = Runner::new(1).with_skip(2_000).with_checkpoint_cache(false);
        let a = cached.run(Kernel::Compress, 42, 3_000, &cfg);
        let b = uncached.run(Kernel::Compress, 42, 3_000, &cfg);
        assert_eq!(a.stats, b.stats, "checkpoint reuse must not change results");
        // A second config against the cached runner reuses the checkpoint.
        let hw = config_with_idle(ExnMechanism::Hardware, 1);
        let _ = cached.run(Kernel::Compress, 42, 3_000, &hw);
    }

    #[test]
    fn checked_runner_matches_unchecked_bit_for_bit() {
        let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);
        let plain = Runner::new(1).run(Kernel::Compress, 42, 5_000, &cfg);
        let checked = Runner::new(1).with_check(true).run(Kernel::Compress, 42, 5_000, &cfg);
        assert_eq!(plain.stats, checked.stats, "--check must be observation-only");
        assert_eq!(plain.cycles, checked.cycles);
    }

    #[test]
    fn traced_runs_are_observation_only_and_decodable() {
        let cfg = config_with_idle(ExnMechanism::Multithreaded, 1);
        let path = std::env::temp_dir()
            .join(format!("smtx-runner-trace-{}.bin", std::process::id()));
        let traced = Runner::new(1).with_trace(Some(path.clone()));
        let a = traced.run(Kernel::Compress, 42, 3_000, &cfg);
        let b = Runner::new(1).run(Kernel::Compress, 42, 3_000, &cfg);
        assert_eq!(a.stats, b.stats, "tracing must not change results");
        let first = std::fs::read(&path).expect("trace written");
        let events = codec::decode(&first).expect("trace decodes");
        assert!(
            matches!(events.first(), Some(TraceEvent::RunStart { kernel, .. }) if *kernel != u64::MAX),
            "segment opens with a kernel RunStart marker"
        );
        assert!(matches!(events.last(), Some(TraceEvent::End { .. })));
        // A cache hit is not re-traced.
        let _ = traced.run(Kernel::Compress, 42, 3_000, &cfg);
        let second = std::fs::read(&path).expect("trace still there");
        let _ = std::fs::remove_file(&path);
        assert_eq!(first.len(), second.len(), "cache hits append nothing");
    }

    #[test]
    fn stage_histograms_count_unique_work() {
        let runner = Runner::new(1).with_skip(2_000);
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let _ = runner.run(Kernel::Compress, 42, 3_000, &cfg);
        let s = runner.stats();
        assert_eq!(s.sim_ms_hist.iter().sum::<u64>(), 1, "one detailed simulation");
        assert_eq!(s.checkpoint_ms_hist.iter().sum::<u64>(), 1, "one checkpoint build");
        assert_eq!(s.ref_ms_hist.iter().sum::<u64>(), 1, "one reference window");
    }

    #[test]
    fn prefetch_dedups_within_batch() {
        let runner = Runner::new(2);
        let cfg = config_with_idle(ExnMechanism::Traditional, 1);
        let job = || Job::Sim { kernel: Kernel::Compress, seed: 42, insts: 3_000, config: cfg.clone() };
        runner.prefetch(vec![job(), job(), job()]);
        assert_eq!(runner.stats().unique_runs, 2, "one sim + its reference run");
    }
}
