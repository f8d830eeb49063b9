//! The job service behind `smtxd`: validation, a bounded dedup queue, a
//! worker pool on one shared [`Runner`], and an LRU result store.
//!
//! The whole point of a daemon (versus re-execing the figure binaries) is
//! the shared runner: every job from every client hits the same result
//! cache, reference cache and fast-forward checkpoint cache, keyed by
//! `RunKey {kernel, seed, insts, config-digest}`. Two clients asking for
//! overlapping work pay for the overlap once, and a repeated submission is
//! answered from the job table without queueing at all.
//!
//! Results are byte-identical to the figure binaries' `--json` output by
//! construction: a job runs `smtx_bench::figures::run_named` through a
//! quiet [`Experiment`] frame — the very code the binaries call — and the
//! stored result *is* `Report::to_json()`.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use smtx_bench::{check_insts, config_with_idle, figures, Args, Experiment, Runner, DEFAULT_INSTS};
use smtx_core::ExnMechanism;
use smtx_util::StableHasher;
use smtx_workloads::Kernel;

use crate::json::{quote, Json};
use crate::metrics::Metrics;

/// Tuning knobs for one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Thread-pool size of the shared runner (0 = all cores).
    pub runner_jobs: usize,
    /// Most jobs allowed to wait in the queue (backpressure bound).
    pub queue_cap: usize,
    /// Most finished jobs retained; older results are evicted LRU.
    pub results_cap: usize,
    /// Deadline applied to jobs that do not request one, milliseconds.
    pub default_deadline_ms: u64,
    /// Tier-1 fast-forward length for the shared runner.
    pub skip: u64,
    /// Interval-parallel chunk count for the shared runner (1 =
    /// monolithic). Pure scheduling: rows are identical for every value.
    pub intervals: u64,
    /// Default for jobs that do not say: run under the `--check` pipeline
    /// sanitizer (observation-only; rows stay byte-identical).
    pub check: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            runner_jobs: 0,
            queue_cap: 64,
            results_cap: 256,
            default_deadline_ms: 600_000,
            skip: 0,
            intervals: 1,
            check: false,
        }
    }
}

/// A validated job: either a whole named experiment or one custom
/// single-kernel measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// Rerun a named figure/table (`figures::ALL`) at a budget and seed.
    Experiment {
        /// Experiment name (`fig5`, `table4`, ...).
        name: String,
        /// Per-thread instruction budget.
        insts: u64,
        /// Workload seed.
        seed: u64,
        /// Run under the pipeline sanitizer (`None` = the daemon default).
        check: Option<bool>,
    },
    /// One kernel under one mechanism: cycles, IPC, penalty per miss.
    Run {
        /// Workload kernel.
        kernel: Kernel,
        /// Workload seed.
        seed: u64,
        /// Per-thread instruction budget.
        insts: u64,
        /// Exception-handling mechanism.
        mechanism: ExnMechanism,
        /// Idle SMT contexts alongside the application thread.
        idle: usize,
        /// Run under the pipeline sanitizer (`None` = the daemon default).
        check: Option<bool>,
        /// Capture a cycle-level binary trace of the run (`None` = off).
        /// Served from the result store via `GET /v1/jobs/<id>/trace`.
        trace: Option<bool>,
        /// Interval-parallel chunk count (`None` = the daemon default).
        /// Scheduling only — the result is identical for every value.
        intervals: Option<u64>,
    },
}

impl JobSpec {
    /// Parses and validates a submission body.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let Json::Obj(_) = v else {
            return Err("body must be a JSON object".to_string());
        };
        let insts = match v.get("insts") {
            None => DEFAULT_INSTS,
            Some(n) => n.as_u64().ok_or("`insts` must be a non-negative integer")?,
        };
        check_insts(insts).map_err(|e| format!("`insts` {e}"))?;
        let seed = match v.get("seed") {
            None => 42,
            Some(n) => n.as_u64().ok_or("`seed` must be a non-negative integer")?,
        };
        let check = match v.get("check") {
            None => None,
            Some(b) => Some(b.as_bool().ok_or("`check` must be a boolean")?),
        };
        let trace = match v.get("trace") {
            None => None,
            Some(b) => Some(b.as_bool().ok_or("`trace` must be a boolean")?),
        };
        let intervals = match v.get("intervals") {
            None => None,
            Some(n) => {
                let n = n.as_u64().ok_or("`intervals` must be a positive integer")?;
                if !(1..=64).contains(&n) {
                    return Err("`intervals` must be in 1..=64".to_string());
                }
                Some(n)
            }
        };
        match (v.get("experiment"), v.get("kernel")) {
            (Some(_), Some(_)) => Err("give `experiment` or `kernel`, not both".to_string()),
            (None, None) => Err("missing `experiment` or `kernel`".to_string()),
            (Some(e), None) => {
                if trace == Some(true) {
                    return Err("trace capture is only supported for kernel runs".to_string());
                }
                if intervals.is_some() {
                    return Err(
                        "`intervals` is only supported for kernel runs (experiments use the daemon default)"
                            .to_string(),
                    );
                }
                let name = e.as_str().ok_or("`experiment` must be a string")?;
                if !figures::ALL.contains(&name) {
                    return Err(format!(
                        "unknown experiment `{name}` (known: {})",
                        figures::ALL.join(", ")
                    ));
                }
                Ok(JobSpec::Experiment { name: name.to_string(), insts, seed, check })
            }
            (None, Some(k)) => {
                let kname = k.as_str().ok_or("`kernel` must be a string")?;
                let kernel = Kernel::from_name(kname).ok_or_else(|| {
                    let mut known: Vec<&str> = Kernel::ALL.map(Kernel::name).to_vec();
                    known.extend(smtx_workloads::asm_kernels().iter().map(|k| k.name()));
                    format!("unknown kernel `{kname}` (known: {})", known.join(", "))
                })?;
                let mlabel = match v.get("mechanism") {
                    None => "multithreaded",
                    Some(m) => m.as_str().ok_or("`mechanism` must be a string")?,
                };
                let mechanism = ExnMechanism::ALL
                    .into_iter()
                    .find(|m| m.label() == mlabel)
                    .ok_or_else(|| {
                        format!(
                            "unknown mechanism `{mlabel}` (known: {})",
                            ExnMechanism::ALL.map(ExnMechanism::label).join(", ")
                        )
                    })?;
                let idle = match v.get("idle") {
                    None => 1,
                    Some(n) => n.as_u64().ok_or("`idle` must be a non-negative integer")? as usize,
                };
                if idle > 7 {
                    return Err("`idle` must be at most 7".to_string());
                }
                Ok(JobSpec::Run { kernel, seed, insts, mechanism, idle, check, trace, intervals })
            }
        }
    }

    /// Stable job id: FNV-1a over the canonical field encoding, hex. Equal
    /// specs collide by design — that is the dedup key.
    #[must_use]
    pub fn id(&self) -> String {
        let mut h = StableHasher::new();
        match self {
            JobSpec::Experiment { name, insts, seed, check } => {
                h.write(b"experiment");
                h.write(name.as_bytes());
                h.write_u64(*insts);
                h.write_u64(*seed);
                h.write(Self::check_tag(*check));
            }
            JobSpec::Run { kernel, seed, insts, mechanism, idle, check, trace, intervals } => {
                h.write(b"run");
                h.write(kernel.name().as_bytes());
                h.write_u64(*seed);
                h.write_u64(*insts);
                h.write(mechanism.label().as_bytes());
                h.write_usize(*idle);
                h.write(Self::check_tag(*check));
                h.write(Self::trace_tag(*trace));
                // Same idiom as `check_tag`: absent keeps historical ids.
                // An *explicit* interval count is a distinct job — the rows
                // are identical but the cache counters and wall clock in
                // the stored report describe a differently-scheduled run.
                if let Some(n) = intervals {
                    h.write(b"intervals:");
                    h.write_u64(*n);
                }
            }
        }
        format!("{:016x}", h.finish())
    }

    fn check_tag(check: Option<bool>) -> &'static [u8] {
        match check {
            // The historical id encoding predates `check`; the default
            // hashes to the same id so pre-existing clients still dedup.
            None => b"",
            Some(true) => b"check:on",
            Some(false) => b"check:off",
        }
    }

    fn trace_tag(trace: Option<bool>) -> &'static [u8] {
        match trace {
            // Same idiom as `check_tag`: the default keeps historical ids.
            None => b"",
            Some(true) => b"trace:on",
            Some(false) => b"trace:off",
        }
    }

    /// Whether the job asked for trace capture.
    #[must_use]
    pub fn trace(&self) -> bool {
        match self {
            JobSpec::Experiment { .. } => false,
            JobSpec::Run { trace, .. } => trace.unwrap_or(false),
        }
    }

    /// The job's sanitizer request (`None` = use the daemon default).
    #[must_use]
    pub fn check(&self) -> Option<bool> {
        match self {
            JobSpec::Experiment { check, .. } | JobSpec::Run { check, .. } => *check,
        }
    }

    /// The job's interval-count request (`None` = use the daemon default).
    #[must_use]
    pub fn intervals(&self) -> Option<u64> {
        match self {
            JobSpec::Experiment { .. } => None,
            JobSpec::Run { intervals, .. } => *intervals,
        }
    }

    /// Human-readable one-liner for status payloads and logs.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut s = match self {
            JobSpec::Experiment { name, insts, seed, .. } => {
                format!("{name} insts={insts} seed={seed}")
            }
            JobSpec::Run { kernel, seed, insts, mechanism, idle, .. } => format!(
                "run {} mechanism={} idle={idle} insts={insts} seed={seed}",
                kernel.name(),
                mechanism.label()
            ),
        };
        if let Some(check) = self.check() {
            s.push_str(if check { " check=on" } else { " check=off" });
        }
        if self.trace() {
            s.push_str(" trace=on");
        }
        if let Some(n) = self.intervals() {
            s.push_str(&format!(" intervals={n}"));
        }
        s
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the payload is the full report JSON.
    Done(String),
    /// Failed; the payload is the error text.
    Failed(String),
}

impl JobState {
    /// The state's wire name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Outcome of a submission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submit {
    /// Queued; poll the id.
    Accepted(String),
    /// An identical job already exists (any state); poll the id.
    Deduped(String),
    /// Queue at capacity — retry later (429).
    QueueFull,
    /// Service is draining — no new work (503).
    Draining,
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    deadline: Instant,
    /// When the job entered the queue — the queue-wait histogram measures
    /// from here to worker pickup.
    submitted: Instant,
    /// The captured binary trace, for jobs that asked for one (evicted
    /// with the record).
    trace: Option<Vec<u8>>,
}

struct Inner {
    queue: VecDeque<String>,
    /// Keyed by job id. A BTreeMap so any listing or sweep over the table
    /// comes out in one deterministic order (smtx-lint:
    /// no-unordered-iteration).
    jobs: BTreeMap<String, JobRecord>,
    /// Finished ids, oldest first — the LRU eviction order.
    finished: VecDeque<String>,
    draining: bool,
    busy: usize,
}

/// The shared service state: one runner, one queue, one job table.
pub struct Service {
    /// Tuning knobs the service was built with.
    pub config: ServiceConfig,
    /// The shared memoizing executor — the reason the daemon exists.
    pub runner: Arc<Runner>,
    /// A second shared runner with the pipeline sanitizer on, serving jobs
    /// that request `check`. Separate from `runner` so checked and
    /// unchecked jobs each hit a cache built the way they asked for —
    /// results are byte-identical either way, but a checked job must
    /// actually *run* checked, not be served from an unchecked memo.
    pub checked_runner: Arc<Runner>,
    /// Observability counters.
    pub metrics: Metrics,
    inner: Mutex<Inner>,
    /// Signaled when work arrives or draining starts (workers wait here).
    work_cv: Condvar,
    /// Signaled when a job reaches a terminal state.
    done_cv: Condvar,
}

impl Service {
    /// Builds the service and its shared runner (no threads started;
    /// [`Service::worker_loop`] is the worker body).
    #[must_use]
    pub fn new(config: ServiceConfig) -> Arc<Service> {
        let build = |check: bool| {
            Arc::new(
                Runner::new(config.runner_jobs)
                    .with_skip(config.skip)
                    .with_intervals(config.intervals)
                    .with_check(check),
            )
        };
        let runner = build(false);
        let checked_runner = build(true);
        Arc::new(Service {
            config,
            runner,
            checked_runner,
            metrics: Metrics::default(),
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                finished: VecDeque::new(),
                draining: false,
                busy: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    }

    /// Submits a job. Identical specs dedup onto the existing record —
    /// whatever its state — so a re-submitted finished job is answered
    /// instantly and a re-submitted queued job is not queued twice.
    pub fn submit(&self, spec: JobSpec, deadline_ms: Option<u64>) -> Submit {
        let id = spec.id();
        let mut inner = self.inner.lock().expect("service state");
        if inner.draining {
            Metrics::inc(&self.metrics.jobs_rejected_shutdown);
            return Submit::Draining;
        }
        if inner.jobs.contains_key(&id) {
            Metrics::inc(&self.metrics.jobs_deduped);
            return Submit::Deduped(id);
        }
        if inner.queue.len() >= self.config.queue_cap {
            Metrics::inc(&self.metrics.jobs_rejected_full);
            return Submit::QueueFull;
        }
        let ms = deadline_ms.unwrap_or(self.config.default_deadline_ms);
        let now = Instant::now();
        inner.jobs.insert(
            id.clone(),
            JobRecord {
                spec,
                state: JobState::Queued,
                deadline: now + Duration::from_millis(ms),
                submitted: now,
                trace: None,
            },
        );
        inner.queue.push_back(id.clone());
        Metrics::inc(&self.metrics.jobs_accepted);
        drop(inner);
        self.work_cv.notify_one();
        Submit::Accepted(id)
    }

    /// The job's current state, if it is known.
    #[must_use]
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.inner.lock().expect("service state").jobs.get(id).map(|r| r.state.clone())
    }

    /// The captured binary trace of a job, if it finished with one.
    #[must_use]
    pub fn trace(&self, id: &str) -> Option<Vec<u8>> {
        self.inner.lock().expect("service state").jobs.get(id).and_then(|r| r.trace.clone())
    }

    /// Status metadata JSON for `GET /v1/jobs/<id>`.
    #[must_use]
    pub fn status_json(&self, id: &str) -> Option<String> {
        let inner = self.inner.lock().expect("service state");
        let r = inner.jobs.get(id)?;
        let mut s = format!(
            "{{\n  \"id\": {},\n  \"state\": {},\n  \"spec\": {}",
            quote(id),
            quote(r.state.name()),
            quote(&r.spec.describe())
        );
        if let JobState::Failed(err) = &r.state {
            s.push_str(&format!(",\n  \"error\": {}", quote(err)));
        }
        s.push_str("\n}\n");
        Some(s)
    }

    /// Blocks until `id` reaches a terminal state (or `timeout` passes);
    /// returns the latest observed state.
    #[must_use]
    pub fn wait_job(&self, id: &str, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("service state");
        loop {
            match inner.jobs.get(id).map(|r| r.state.clone()) {
                None => return None,
                Some(s @ (JobState::Done(_) | JobState::Failed(_))) => return Some(s),
                Some(s) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Some(s);
                    }
                    let (g, _) = self
                        .done_cv
                        .wait_timeout(inner, left)
                        .expect("service state");
                    inner = g;
                }
            }
        }
    }

    /// Current queue depth and busy/total worker gauges for `/metrics`.
    #[must_use]
    pub fn gauges(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock().expect("service state");
        (inner.queue.len(), inner.busy, self.config.workers)
    }

    /// Plaintext metrics exposition.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let (depth, busy, total) = self.gauges();
        self.metrics.render(depth, busy, total, &self.runner.stats())
    }

    /// Starts draining: queued jobs still run, new submissions get
    /// [`Submit::Draining`].
    pub fn begin_shutdown(&self) {
        self.inner.lock().expect("service state").draining = true;
        self.work_cv.notify_all();
    }

    /// Whether the service is draining.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.inner.lock().expect("service state").draining
    }

    /// Blocks until the queue is empty and no worker is mid-job.
    pub fn wait_drained(&self) {
        let mut inner = self.inner.lock().expect("service state");
        while !inner.queue.is_empty() || inner.busy > 0 {
            inner = self.done_cv.wait(inner).expect("service state");
        }
    }

    /// One worker's whole life: pull, execute, publish; exit once the
    /// service is draining and the queue is dry.
    pub fn worker_loop(&self) {
        loop {
            let (id, spec) = {
                let mut inner = self.inner.lock().expect("service state");
                loop {
                    if let Some(id) = inner.queue.pop_front() {
                        let r = inner.jobs.get_mut(&id).expect("queued job has a record");
                        if Instant::now() > r.deadline {
                            r.state =
                                JobState::Failed("deadline exceeded before execution".to_string());
                            Metrics::inc(&self.metrics.deadline_expired);
                            Metrics::inc(&self.metrics.jobs_failed);
                            let spec_id = id.clone();
                            Self::retire(&mut inner, spec_id, self.config.results_cap);
                            self.done_cv.notify_all();
                            continue;
                        }
                        self.metrics.queue_wait_ms.observe(r.submitted.elapsed());
                        r.state = JobState::Running;
                        let spec = r.spec.clone();
                        inner.busy += 1;
                        break (id, spec);
                    }
                    if inner.draining {
                        return;
                    }
                    inner = self.work_cv.wait(inner).expect("service state");
                }
            };

            // The simulator asserts on impossible configurations; a panic
            // must fail one job, not the daemon.
            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(&spec)));
            self.metrics.exec_ms.observe(t0.elapsed());
            let (state, trace) = match outcome {
                Ok((json, trace)) => {
                    Metrics::inc(&self.metrics.jobs_completed);
                    (JobState::Done(json), trace)
                }
                Err(p) => {
                    Metrics::inc(&self.metrics.jobs_failed);
                    let msg = p
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| p.downcast_ref::<&str>().copied())
                        .unwrap_or("job panicked");
                    (JobState::Failed(format!("execution panicked: {msg}")), None)
                }
            };

            let mut inner = self.inner.lock().expect("service state");
            if let Some(r) = inner.jobs.get_mut(&id) {
                r.state = state;
                r.trace = trace;
            }
            inner.busy -= 1;
            Self::retire(&mut inner, id, self.config.results_cap);
            drop(inner);
            self.done_cv.notify_all();
        }
    }

    /// Records `id` as finished and evicts the oldest finished jobs beyond
    /// `cap` (queued/running records are never evicted).
    fn retire(inner: &mut Inner, id: String, cap: usize) {
        inner.finished.push_back(id);
        while inner.finished.len() > cap {
            if let Some(old) = inner.finished.pop_front() {
                inner.jobs.remove(&old);
            }
        }
    }

    /// Executes one job on the shared runner and serializes its report
    /// (plus the captured binary trace, for kernel runs that asked for
    /// one). Experiments run the figure bodies the binaries run — quiet, on
    /// this service's runner — so the JSON matches `--json` output field
    /// for field (rows byte-identical; wall clock and cache counters
    /// reflect the daemon's shared state).
    fn execute(&self, spec: &JobSpec) -> (String, Option<Vec<u8>>) {
        let checked = spec.check().unwrap_or(self.config.check);
        let runner = if checked { &self.checked_runner } else { &self.runner };
        match spec {
            JobSpec::Experiment { name, insts, seed, .. } => {
                let args = Args { insts: *insts, seed: *seed, ..Args::default() };
                let mut exp = Experiment::on_runner(name, args, Arc::clone(runner)).quiet();
                assert!(figures::run_named(name, &mut exp), "validated name `{name}`");
                (exp.into_report().to_json(), None)
            }
            JobSpec::Run { kernel, seed, insts, mechanism, idle, .. } => {
                let args = Args { insts: *insts, seed: *seed, ..Args::default() };
                let mut exp = Experiment::on_runner("run", args, Arc::clone(runner)).quiet();
                let intervals = spec.intervals().unwrap_or_else(|| exp.runner.intervals());
                exp.args.intervals = intervals;
                exp.report.intervals = intervals;
                let cfg = config_with_idle(*mechanism, *idle);
                let insts = exp.runner.insts_for(*kernel, *seed, *insts);
                let run = exp.runner.run_with_intervals(*kernel, *seed, insts, &cfg, intervals);
                let penalty = if *mechanism == ExnMechanism::PerfectTlb {
                    0.0
                } else {
                    exp.runner.penalty_per_miss(*kernel, *seed, insts, &cfg)
                };
                exp.report.columns = ["cycles", "ipc", "arch_misses", "penalty_per_miss"]
                    .map(String::from)
                    .to_vec();
                exp.emit_row(
                    &format!("{}/{}", kernel.name(), mechanism.label()),
                    &[run.cycles as f64, run.ipc(), run.arch_misses as f64, penalty],
                );
                // Traced runs re-simulate with the tracer attached — the
                // memoized result above may have come from the cache, which
                // holds no events. Determinism makes the re-run identical.
                let trace = spec.trace().then(|| {
                    exp.runner.run_traced_with_intervals(*kernel, *seed, insts, &cfg, intervals)
                });
                (exp.into_report().to_json(), trace)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn parse(body: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(body).expect("valid JSON"))
    }

    #[test]
    fn spec_parsing_validates() {
        let s = parse(r#"{"experiment": "fig5", "insts": 5000, "seed": 7}"#).unwrap();
        assert_eq!(
            s,
            JobSpec::Experiment { name: "fig5".into(), insts: 5_000, seed: 7, check: None }
        );
        let s = parse(r#"{"kernel": "compress", "mechanism": "traditional"}"#).unwrap();
        assert_eq!(
            s,
            JobSpec::Run {
                kernel: Kernel::Compress,
                seed: 42,
                insts: DEFAULT_INSTS,
                mechanism: ExnMechanism::Traditional,
                idle: 1,
                check: None,
                trace: None,
                intervals: None
            }
        );
        let s = parse(r#"{"experiment": "fig5", "check": true}"#).unwrap();
        assert_eq!(s.check(), Some(true));
        assert!(s.describe().ends_with("check=on"));
        let s = parse(r#"{"kernel": "compress", "trace": true}"#).unwrap();
        assert!(s.trace());
        assert!(s.describe().ends_with("trace=on"));
        let s = parse(r#"{"kernel": "compress", "intervals": 8}"#).unwrap();
        assert_eq!(s.intervals(), Some(8));
        assert!(s.describe().ends_with("intervals=8"));
        for bad in [
            r#"{}"#,
            r#"{"experiment": "fig9"}"#,
            r#"{"experiment": "fig5", "trace": true}"#,
            r#"{"experiment": "fig5", "intervals": 8}"#,
            r#"{"kernel": "compress", "trace": "yes"}"#,
            r#"{"kernel": "compress", "intervals": 0}"#,
            r#"{"kernel": "compress", "intervals": 65}"#,
            r#"{"kernel": "compress", "intervals": "four"}"#,
            r#"{"experiment": "fig5", "kernel": "gcc"}"#,
            r#"{"kernel": "spice"}"#,
            r#"{"kernel": "gcc", "mechanism": "magic"}"#,
            r#"{"experiment": "fig5", "insts": 0}"#,
            r#"{"experiment": "fig5", "insts": 999999999999}"#,
            r#"{"kernel": "gcc", "idle": 9}"#,
            r#"{"experiment": "fig5", "check": "yes"}"#,
            r#"[1]"#,
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn asm_kernels_resolve_in_job_specs() {
        // What `smtxd --asm DIR` does at boot, in miniature: once an
        // assembled program is registered, a job spec can name it like any
        // built-in kernel, and the unknown-kernel message advertises it.
        let obj = smtx_asm::assemble("served", "loop: addi r1, r1, 1\nbr loop\n")
            .expect("assembles");
        let k = smtx_workloads::register_asm(obj).expect("registers");
        assert_eq!(k.name(), "asm:served");
        let s = parse(r#"{"kernel": "asm:served", "mechanism": "hardware"}"#).unwrap();
        match s {
            JobSpec::Run { kernel, .. } => assert_eq!(kernel, k),
            other => panic!("expected a kernel run, got {other:?}"),
        }
        let err = parse(r#"{"kernel": "asm:absent"}"#).unwrap_err();
        assert!(err.contains("asm:served"), "known-kernel list advertises asm rows: {err}");
    }

    #[test]
    fn ids_are_stable_and_spec_sensitive() {
        let a = parse(r#"{"experiment": "fig5", "insts": 5000}"#).unwrap();
        let b = parse(r#"{"insts": 5000, "experiment": "fig5"}"#).unwrap();
        let c = parse(r#"{"experiment": "fig5", "insts": 5001}"#).unwrap();
        assert_eq!(a.id(), b.id(), "field order cannot matter");
        assert_ne!(a.id(), c.id());
        assert_eq!(a.id().len(), 16);
        let checked = parse(r#"{"experiment": "fig5", "insts": 5000, "check": true}"#).unwrap();
        assert_ne!(a.id(), checked.id(), "a checked job is a distinct job");
        let plain = parse(r#"{"kernel": "compress", "insts": 5000}"#).unwrap();
        let traced = parse(r#"{"kernel": "compress", "insts": 5000, "trace": true}"#).unwrap();
        assert_ne!(plain.id(), traced.id(), "a traced job is a distinct job");
        let cut = parse(r#"{"kernel": "compress", "insts": 5000, "intervals": 4}"#).unwrap();
        assert_ne!(plain.id(), cut.id(), "an explicit interval count is a distinct job");
    }

    #[test]
    fn submit_dedups_and_bounds_the_queue() {
        let svc = Service::new(ServiceConfig { queue_cap: 1, ..ServiceConfig::default() });
        let spec = parse(r#"{"experiment": "fig5", "insts": 2000}"#).unwrap();
        let Submit::Accepted(id) = svc.submit(spec.clone(), None) else {
            panic!("first submit must queue");
        };
        assert_eq!(svc.submit(spec, None), Submit::Deduped(id.clone()));
        let other = parse(r#"{"experiment": "fig6", "insts": 2000}"#).unwrap();
        assert_eq!(svc.submit(other.clone(), None), Submit::QueueFull, "cap is 1");
        assert_eq!(svc.state(&id), Some(JobState::Queued));
        svc.begin_shutdown();
        assert_eq!(svc.submit(other, None), Submit::Draining);
    }

    #[test]
    fn worker_executes_and_expired_jobs_fail() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            runner_jobs: 2,
            ..ServiceConfig::default()
        });
        let spec = parse(r#"{"kernel": "compress", "insts": 3000, "mechanism": "perfect"}"#)
            .unwrap();
        let Submit::Accepted(ok_id) = svc.submit(spec, None) else { panic!() };
        let expired =
            parse(r#"{"kernel": "gcc", "insts": 3000, "mechanism": "perfect"}"#).unwrap();
        let Submit::Accepted(late_id) = svc.submit(expired, Some(0)) else { panic!() };

        let worker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.worker_loop())
        };
        let done = svc.wait_job(&ok_id, Duration::from_secs(120)).expect("known job");
        let JobState::Done(json) = done else { panic!("expected Done, got {done:?}") };
        assert!(json.contains("\"experiment\": \"run\""));
        assert!(json.contains("compress/perfect"));
        let late = svc.wait_job(&late_id, Duration::from_secs(120)).expect("known job");
        assert!(matches!(late, JobState::Failed(e) if e.contains("deadline")));
        assert_eq!(svc.metrics.deadline_expired.load(Ordering::Relaxed), 1);

        svc.begin_shutdown();
        svc.wait_drained();
        worker.join().expect("worker exits after drain");
    }

    #[test]
    fn checked_job_routes_to_the_checked_runner_with_identical_rows() {
        let svc = Service::new(ServiceConfig { runner_jobs: 2, ..ServiceConfig::default() });
        let (plain, _) = svc.execute(
            &parse(r#"{"kernel": "compress", "insts": 3000, "mechanism": "multithreaded"}"#)
                .unwrap(),
        );
        let (checked, _) = svc.execute(
            &parse(
                r#"{"kernel": "compress", "insts": 3000, "mechanism": "multithreaded", "check": true}"#,
            )
            .unwrap(),
        );
        assert!(svc.checked_runner.stats().unique_runs > 0, "ran on the checked runner");
        let p = Json::parse(&plain).expect("plain report");
        let c = Json::parse(&checked).expect("checked report");
        assert_eq!(p.get("check").and_then(Json::as_bool), Some(false));
        assert_eq!(c.get("check").and_then(Json::as_bool), Some(true));
        assert_eq!(p.get("rows"), c.get("rows"), "checking must not perturb rows");
        assert_eq!(p.get("columns"), c.get("columns"));
    }

    #[test]
    fn interval_job_routes_through_and_keeps_rows_identical() {
        let svc = Service::new(ServiceConfig { runner_jobs: 2, ..ServiceConfig::default() });
        // 8k instructions sit below `EPOCH_MIN_WINDOW`, so both requests
        // run monolithically; what this checks is the per-job `intervals`
        // plumbing — the count is echoed in the report without perturbing
        // rows (real splits are covered by bench's interval_exactness).
        let (plain, _) = svc.execute(
            &parse(r#"{"kernel": "compress", "insts": 8000, "mechanism": "multithreaded"}"#)
                .unwrap(),
        );
        let (cut, _) = svc.execute(
            &parse(
                r#"{"kernel": "compress", "insts": 8000, "mechanism": "multithreaded", "intervals": 4}"#,
            )
            .unwrap(),
        );
        let p = Json::parse(&plain).expect("plain report");
        let c = Json::parse(&cut).expect("interval report");
        assert_eq!(p.get("rows"), c.get("rows"), "interval scheduling must not perturb rows");
        assert_eq!(p.get("intervals").and_then(Json::as_u64), Some(1));
        assert_eq!(c.get("intervals").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn traced_run_yields_a_decodable_trace_and_identical_report() {
        let svc = Service::new(ServiceConfig { runner_jobs: 2, ..ServiceConfig::default() });
        let (plain, none) = svc.execute(
            &parse(r#"{"kernel": "compress", "insts": 3000, "mechanism": "multithreaded"}"#)
                .unwrap(),
        );
        assert!(none.is_none(), "untraced jobs carry no trace");
        let (traced, bytes) = svc.execute(
            &parse(
                r#"{"kernel": "compress", "insts": 3000, "mechanism": "multithreaded", "trace": true}"#,
            )
            .unwrap(),
        );
        let bytes = bytes.expect("trace captured");
        let events = smtx_trace::codec::decode(&bytes).expect("trace decodes");
        assert!(
            matches!(events.first(), Some(smtx_trace::TraceEvent::RunStart { .. })),
            "segment opens with its RunStart marker"
        );
        let p = Json::parse(&plain).expect("plain report");
        let t = Json::parse(&traced).expect("traced report");
        assert_eq!(p.get("rows"), t.get("rows"), "tracing must not perturb rows");
    }

    #[test]
    fn lru_store_evicts_oldest_finished() {
        let svc = Service::new(ServiceConfig { results_cap: 1, ..ServiceConfig::default() });
        let mut inner = svc.inner.lock().unwrap();
        for id in ["a", "b"] {
            inner.jobs.insert(
                id.to_string(),
                JobRecord {
                    spec: JobSpec::Experiment {
                        name: "fig5".into(),
                        insts: 1,
                        seed: 1,
                        check: None,
                    },
                    state: JobState::Done("{}".into()),
                    deadline: Instant::now(),
                    submitted: Instant::now(),
                    trace: None,
                },
            );
            Service::retire(&mut inner, id.to_string(), 1);
        }
        assert!(!inner.jobs.contains_key("a"), "oldest evicted");
        assert!(inner.jobs.contains_key("b"));
    }
}
