//! The served workload: a closed loop of clients against an in-process
//! `smtx-coord` over two one-worker `smtxd` nodes.
//!
//! Each client sends its next job only after the previous one finished.
//! A job is one small `Run` spec drawn from a seeded stream; the program
//! receives only the generated specs. Completion is observed on a one-job
//! `POST /v1/batch` stream, which the coordinator feeds at its reactor
//! tick, so no client poll interval enters the latency. Every result is
//! byte-compared against its golden rows (captured in process) and, in the
//! traced run, against rows rebuilt in process from the same spec.

use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use smtx_bench::runner::RunnerStats;
use smtx_bench::{config_with_idle, Report};
use smtx_core::ExnMechanism;
use smtx_fleet::coord::{self, CoordConfig, CoordHandle};
use smtx_rng::rngs::StdRng;
use smtx_rng::{RngExt, SeedableRng};
use smtx_serve::http::{client_request, client_stream};
use smtx_serve::{Json, ServiceConfig};
use smtx_workloads::Kernel;

use crate::out::{median, percentile};
use crate::replay::Replay;
use crate::spans::Tracer;
use crate::{ledger_info, put_replay_metrics, put_runner_metrics, ratio, sys, Outcome};

/// Base per-thread budget of every served job (scaled up per kernel to
/// reach the minimum miss count, as the figures are).
pub const INSTS: u64 = 4_000;

/// Kernel seeds a spec draws from: [`universe`] is every kernel × config
/// × seed `1..=SEED_POOL`, 64 specs, each sent fresh once per stream.
pub const SEED_POOL: u64 = 2;

/// Fleet boots timed per set-up sample; a sample is their mean (a boot
/// waits for the coordinator's reactor tick, so single boots are
/// quantized to about a millisecond).
pub const BOOT_REPS: u32 = 4;

/// Jobs per run: this many per second of `--seconds`, at least
/// [`MIN_JOBS`] so the p99 has ten samples beyond it. Repeats cost about a
/// millisecond, so the count mostly sets where the p99 falls: at 3210 jobs
/// it is the 33rd slowest, near the middle of the 64 fresh simulations.
/// With fewer jobs it sat on the few slowest fresh jobs, and its
/// interquartile range over runs was 38% of the median; with more it left
/// the fresh jobs for the tail of the store hits, which is scheduler noise.
pub const JOBS_PER_SECOND: f64 = 107.0;

/// Fewest jobs a run sends.
pub const MIN_JOBS: usize = 1_000;

/// The mechanism columns a spec draws from: `(mechanism, idle contexts)`.
pub const CONFIGS: [(ExnMechanism, usize); 4] = [
    (ExnMechanism::Traditional, 1),
    (ExnMechanism::Multithreaded, 1),
    (ExnMechanism::Multithreaded, 3),
    (ExnMechanism::Hardware, 1),
];

/// One job spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Spec {
    /// Workload kernel.
    pub kernel: Kernel,
    /// Kernel seed.
    pub seed: u64,
    /// Index into [`CONFIGS`].
    pub config: usize,
}

impl Spec {
    /// The submission body.
    #[must_use]
    pub fn body(self) -> String {
        let (mechanism, idle) = CONFIGS[self.config];
        format!(
            "{{\"kernel\": \"{}\", \"mechanism\": \"{}\", \"idle\": {idle}, \"insts\": {INSTS}, \"seed\": {}}}",
            self.kernel.name(),
            mechanism.label(),
            self.seed
        )
    }
}

/// A generated job stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// The specs, in send order.
    pub specs: Vec<Spec>,
    /// Whether each job repeats an earlier spec of the stream.
    pub repeat: Vec<bool>,
}

/// Draws `n` jobs from `seed`. Every spec of [`universe`] is sent fresh
/// exactly once — the first [`LEAD`] jobs, then at seeded positions; every
/// other job repeats a uniformly chosen earlier spec that is not among the
/// [`SETTLE`] latest fresh ones. Fresh specs come in rounds
/// that visit every kernel once, in a seeded order, each taking that
/// kernel's next spec from a seeded shuffle — so every stream carries the
/// same fresh work, spread evenly over the run, and the seed varies the
/// order, the placement of fresh jobs among repeats, and which specs
/// repeat. Fresh specs of one kernel and seed share probes and
/// perfect-TLB baselines in the runner.
#[must_use]
pub fn stream(seed: u64, n: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffle = |v: &mut Vec<Spec>| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.random_range(0..=i));
        }
    };
    let mut per_kernel: Vec<Vec<Spec>> = Kernel::ALL
        .iter()
        .map(|&k| {
            let mut specs: Vec<Spec> = universe().into_iter().filter(|s| s.kernel == k).collect();
            shuffle(&mut specs);
            specs
        })
        .collect();
    let mut fresh = Vec::new();
    while per_kernel.iter().any(|v| !v.is_empty()) {
        let mut round: Vec<Spec> = per_kernel.iter_mut().filter_map(Vec::pop).collect();
        shuffle(&mut round);
        fresh.extend(round);
    }
    let mut is_fresh = vec![false; n];
    for slot in is_fresh.iter_mut().take(fresh.len()) {
        *slot = true;
    }
    for i in (LEAD + 1..n).rev() {
        is_fresh.swap(i, rng.random_range(LEAD..=i));
    }
    let mut fresh = fresh.into_iter();
    let (mut issued, mut specs, mut repeat) = (Vec::new(), Vec::new(), Vec::new());
    for new in is_fresh {
        let spec = match new.then(|| fresh.next()).flatten() {
            Some(spec) => {
                issued.push(spec);
                spec
            }
            None => issued[rng.random_range(0..issued.len() - SETTLE)],
        };
        specs.push(spec);
        repeat.push(!new);
    }
    Stream { specs, repeat }
}

/// Fresh jobs that open every stream, so that the first repeat has a
/// settled spec to draw.
const LEAD: usize = SETTLE + 1;

/// The most recent fresh specs a repeat never draws: with one job in
/// flight per client, these are the ones that may still be running, and a
/// repeat of a running spec would wait for the simulation instead of
/// reading the store.
const SETTLE: usize = 4;

/// The two nodes and the coordinator in front of them.
pub struct Fleet {
    nodes: Vec<smtx_serve::Handle>,
    coord: CoordHandle,
}

impl Fleet {
    /// Boots two one-worker nodes and a default coordinator over them on
    /// ephemeral loopback ports, and waits until the coordinator answers
    /// its health check.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed bind, or a health check that never
    /// passed.
    pub fn boot() -> std::io::Result<Fleet> {
        let node_cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let nodes = vec![
            smtx_serve::server::start("127.0.0.1:0", node_cfg.clone())?,
            smtx_serve::server::start("127.0.0.1:0", node_cfg)?,
        ];
        let coord = coord::start(
            "127.0.0.1:0",
            CoordConfig {
                nodes: nodes.iter().map(|n| n.addr().to_string()).collect(),
                ..CoordConfig::default()
            },
        )?;
        let fleet = Fleet { nodes, coord };
        let addr = fleet.addr();
        for _ in 0..1000 {
            if client_request(&addr, "GET", "/healthz", None, Duration::from_secs(5))
                .is_ok_and(|r| r.status == 200)
            {
                return Ok(fleet);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        fleet.shutdown();
        Err(std::io::Error::other("coordinator never became healthy"))
    }

    /// The coordinator's address.
    #[must_use]
    pub fn addr(&self) -> String {
        self.coord.addr().to_string()
    }

    /// Drains and stops the coordinator, then each node.
    pub fn shutdown(self) {
        self.coord.shutdown_and_join();
        for n in self.nodes {
            n.shutdown_and_join();
        }
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Send to terminal frame, milliseconds.
    pub latency_ms: f64,
    /// Send to the batch header (the accept round trip), milliseconds.
    pub accept_ms: f64,
    /// The verbatim result bytes, or the error.
    pub result: Result<String, String>,
}

/// Sends one job as a one-job batch and reads its stream to the end.
fn send(addr: &str, spec: Spec) -> JobResult {
    let t0 = Instant::now();
    let mut accept_ms = 0.0;
    let body = format!("{{\"jobs\": [{}]}}", spec.body());
    let result = (|| {
        let (status, mut r) = client_stream(
            addr,
            "POST",
            "/v1/batch",
            Some(&body),
            Duration::from_secs(120),
        )
        .map_err(|e| format!("request: {e}"))?;
        if status != 200 {
            return Err(format!("status {status}"));
        }
        let mut line = String::new();
        r.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
        accept_ms = t0.elapsed().as_secs_f64() * 1e3;
        line.clear();
        r.read_line(&mut line).map_err(|e| format!("frame: {e}"))?;
        let frame = Json::parse(line.trim_end()).map_err(|e| format!("frame `{line}`: {e}"))?;
        if frame.get("state").and_then(Json::as_str) != Some("done") {
            return Err(format!("job not done: {}", line.trim_end()));
        }
        let n = frame
            .get("result_bytes")
            .and_then(Json::as_u64)
            .ok_or("frame without result_bytes")?;
        let mut bytes = vec![0u8; usize::try_from(n).map_err(|e| e.to_string())?];
        r.read_exact(&mut bytes)
            .map_err(|e| format!("result: {e}"))?;
        let mut rest = String::new();
        r.read_to_string(&mut rest)
            .map_err(|e| format!("trailer: {e}"))?;
        if !rest.starts_with("\n{\"done\": true") {
            return Err(format!("bad trailer `{rest}`"));
        }
        String::from_utf8(bytes).map_err(|e| e.to_string())
    })();
    JobResult {
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        accept_ms,
        result,
    }
}

/// Runs `specs` through the fleet at `addr` from `clients` closed-loop
/// clients; returns the per-job results in stream order and the loop's
/// wall time.
fn closed_loop(addr: &str, specs: &[Spec], clients: usize) -> (Vec<JobResult>, Duration) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let r = send(addr, specs[i]);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    let wall = t0.elapsed();
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every job was sent")
        })
        .collect();
    (results, wall)
}

/// Whether `served` is the report of `spec` with exactly `rows_json` as
/// its rows: the header fields that do not depend on timing, then the rows
/// and the closing brace.
#[must_use]
pub fn served_matches(spec: Spec, rows_json: &str, served: &str) -> bool {
    let prefix = format!(
        "{{\n  \"experiment\": \"run\",\n  \"insts\": {INSTS},\n  \"seed\": {},\n",
        spec.seed
    );
    served.starts_with(&prefix)
        && served
            .strip_suffix("}\n")
            .is_some_and(|head| head.ends_with(rows_json))
}

/// Rebuilds the rows of every spec in `unique` (sorted, so one checkpoint
/// serves each kernel and seed) through `r`; returns their `rows_json`
/// in the same order and the total serialized report size.
pub fn expected(r: &mut Replay<'_>, unique: &[Spec]) -> (Vec<String>, usize) {
    let mut bytes = 0;
    let rows = unique
        .iter()
        .map(|&spec| {
            let (mechanism, idle) = CONFIGS[spec.config];
            let cfg = config_with_idle(mechanism, idle);
            let insts = r.insts_for(spec.kernel, spec.seed, INSTS);
            let cycles = r.sim(spec.kernel, spec.seed, insts, &cfg);
            let misses = r.arch_misses(spec.kernel, spec.seed, insts);
            let penalty = r.penalty(spec.kernel, spec.seed, insts, &cfg);
            let mut report = Report::new("run", INSTS, spec.seed, 1);
            report.columns = ["cycles", "ipc", "arch_misses", "penalty_per_miss"]
                .map(String::from)
                .to_vec();
            report.push_row(
                &format!("{}/{}", spec.kernel.name(), mechanism.label()),
                &[
                    cycles as f64,
                    insts as f64 / cycles as f64,
                    misses as f64,
                    penalty,
                ],
            );
            bytes += r.to_json(&report).len();
            report.rows_json()
        })
        .collect();
    (rows, bytes)
}

/// Every spec the stream can draw, sorted.
#[must_use]
pub fn universe() -> Vec<Spec> {
    let mut all: Vec<Spec> = Kernel::ALL
        .iter()
        .flat_map(|&kernel| {
            (1..=SEED_POOL).flat_map(move |s| {
                (0..CONFIGS.len()).map(move |config| Spec {
                    kernel,
                    seed: s,
                    config,
                })
            })
        })
        .collect();
    all.sort_unstable();
    all
}

/// The golden key of a spec.
#[must_use]
pub fn golden_key(spec: Spec) -> String {
    format!(
        "{} seed {} config {}",
        spec.kernel.name(),
        spec.seed,
        spec.config
    )
}

/// The rows of `spec` captured at the commit that defined the benchmark.
#[must_use]
pub fn golden(spec: Spec) -> Option<&'static str> {
    crate::figure::golden_rows(include_str!("../golden/served.txt"), &golden_key(spec))
}

/// Number of closed-loop clients: one per available core.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Server-side counters read from the live fleet before it shuts down.
struct FleetCounters {
    coord: Vec<(&'static str, u64)>,
    node_failed: u64,
    node_rejected: u64,
    node_expired: u64,
    dispatched: Vec<u64>,
    runner: RunnerStats,
}

fn read_counters(fleet: &Fleet) -> FleetCounters {
    let c = fleet.coord.coordinator();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let mut f = FleetCounters {
        coord: c.metrics.counters().to_vec(),
        node_failed: 0,
        node_rejected: 0,
        node_expired: 0,
        dispatched: c.nodes.iter().map(coord::Node::dispatched).collect(),
        runner: RunnerStats::default(),
    };
    for n in &fleet.nodes {
        let svc = n.service();
        f.node_failed += load(&svc.metrics.jobs_failed);
        f.node_rejected +=
            load(&svc.metrics.jobs_rejected_full) + load(&svc.metrics.jobs_rejected_shutdown);
        f.node_expired += load(&svc.metrics.deadline_expired);
        let s = svc.runner.stats();
        f.runner.unique_runs += s.unique_runs;
        f.runner.cache_hits += s.cache_hits;
        f.runner.checkpoint_hits += s.checkpoint_hits;
        for (a, b) in f
            .runner
            .lock_wait_ms_hist
            .iter_mut()
            .zip(s.lock_wait_ms_hist)
        {
            *a += b;
        }
    }
    f
}

impl FleetCounters {
    fn get(&self, name: &str) -> u64 {
        self.coord
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Runs the served workload; see the module docs.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let n = ((seconds * JOBS_PER_SECOND).ceil() as usize).max(MIN_JOBS);
    let stream = stream(seed, n);
    let mut setups = Vec::new();
    let mut fleet = None;
    for sample in 0..crate::SETUP_SAMPLES {
        let mut total = Duration::ZERO;
        for rep in 0..BOOT_REPS {
            let t0 = Instant::now();
            let f = Fleet::boot().expect("boot the fleet on loopback");
            total += t0.elapsed();
            if sample + 1 == crate::SETUP_SAMPLES && rep + 1 == BOOT_REPS {
                fleet = Some(f);
            } else {
                f.shutdown();
            }
        }
        setups.push((total / BOOT_REPS).as_secs_f64());
    }
    let fleet = fleet.expect("the last fleet stays up");
    let cpu0 = sys::process_cpu();
    let (results, wall) = closed_loop(&fleet.addr(), &stream.specs, clients());
    let cpu = sys::process_cpu() - cpu0;
    let rss = sys::peak_rss_mib();
    let counters = read_counters(&fleet);
    fleet.shutdown();

    let mut unique = stream.specs.clone();
    unique.sort_unstable();
    unique.dedup();
    // The traced run also rebuilds every spec's rows in process, and a
    // served result must match those too.
    let mut plain = Tracer::new(false);
    let t_plain = Instant::now();
    let in_process = trace.then(|| expected(&mut Replay::new(&mut plain, 0), &unique).0);
    let plain_wall = t_plain.elapsed();
    let ok: Vec<bool> = results
        .iter()
        .zip(&stream.specs)
        .map(|(job, &spec)| {
            let served = job.result.as_deref().unwrap_or("");
            let i = unique
                .binary_search(&spec)
                .expect("every spec is in the unique set");
            golden(spec).is_some_and(|rows| served_matches(spec, rows, served))
                && in_process
                    .as_ref()
                    .is_none_or(|want| served_matches(spec, &want[i], served))
        })
        .collect();
    let mut o = Outcome {
        attempted: n as u64,
        ..Outcome::default()
    };
    o.failed = ok.iter().filter(|&&ok| !ok).count() as u64;
    o.correct = o.failed == 0;
    let repeats = stream.repeat.iter().filter(|&&r| r).count();
    o.info.push(mix_info(&stream, repeats));
    if let Some(i) = ok.iter().position(|&ok| !ok) {
        let why = results[i]
            .result
            .as_ref()
            .err()
            .map_or("wrong bytes", String::as_str);
        o.info.push(format!(
            "{{\"first_failure\": {{\"job\": {i}, \"error\": {why:?}}}}}"
        ));
    }
    let latencies: Vec<f64> = results.iter().map(|r| r.latency_ms).collect();
    let m = &mut o.metrics;
    if !trace {
        m.put("wall_s", wall.as_secs_f64());
        m.put("cpu_s", cpu.as_secs_f64());
        m.put("peak_rss_mb", rss);
        m.put("setup_s", median(&setups));
        m.put(
            "ok_share",
            (o.attempted - o.failed) as f64 / o.attempted as f64,
        );
        m.put("job_p50_ms", median(&latencies));
        m.put("job_p99_ms", percentile(&latencies, 99.0));
        m.put("jobs_per_s", n as f64 / wall.as_secs_f64());
        return o;
    }

    let want = in_process.expect("the traced run rebuilt the rows");
    let mut tracer = Tracer::new(true);
    let t_traced = Instant::now();
    tracer.enter("replay");
    let mut r = Replay::new(&mut tracer, 0);
    let (traced_want, report_bytes) = expected(&mut r, &unique);
    let (counts, unique_points) = (r.counts.clone(), r.unique_points());
    tracer.exit();
    let traced_wall = t_traced.elapsed();
    let ledger = tracer.ledger();
    let same = traced_want == want;
    o.correct &= same && ledger.closes();

    let pick = |repeat: bool| -> Vec<f64> {
        results
            .iter()
            .zip(&stream.repeat)
            .filter(|(_, &r)| r == repeat)
            .map(|(j, _)| j.latency_ms)
            .collect()
    };
    let (hits, fresh) = (pick(true), pick(false));
    let accepts: Vec<f64> = results.iter().map(|r| r.accept_ms).collect();
    let fresh_mean_ms = fresh.iter().sum::<f64>() / fresh.len().max(1) as f64;
    let in_process_ms = plain_wall.as_secs_f64() * 1e3 / unique.len() as f64;
    let m = &mut o.metrics;
    put_replay_metrics(m, &counts, &tracer, &ledger);
    put_runner_metrics(m, &counters.runner);
    m.put(
        "runner.pool_idle_share",
        (1.0 - cpu.as_secs_f64() / (clients() as f64 * wall.as_secs_f64())).max(0.0),
    );
    m.put("report.bytes", report_bytes as f64);
    m.put("ledger.unique_points", unique_points as f64);
    m.put(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
    );
    m.put("serve.submit_rtt_ms", median(&accepts));
    m.put("serve.hit_p50_ms", median(&hits));
    m.put("serve.fresh_p50_ms", median(&fresh));
    m.put(
        "serve.fleet_share",
        (1.0 - ratio(in_process_ms, fresh_mean_ms)).max(0.0),
    );
    m.put("serve.deduped", counters.get("jobs_deduped") as f64);
    m.put(
        "serve.rejected",
        (counters.get("jobs_rejected_full")
            + counters.get("jobs_rejected_shutdown")
            + counters.node_rejected) as f64,
    );
    m.put(
        "serve.deadline_expired",
        (counters.get("deadline_expired") + counters.node_expired) as f64,
    );
    m.put(
        "serve.failed",
        (counters.get("jobs_failed") + counters.node_failed) as f64,
    );
    m.put("fleet.store_hits", counters.get("store_hits") as f64);
    m.put(
        "fleet.cross_node_hits",
        counters.get("store_cross_node_hits") as f64,
    );
    m.put("fleet.steals", counters.get("steals") as f64);
    m.put("fleet.redispatches", counters.get("redispatches") as f64);
    let most = counters.dispatched.iter().copied().max().unwrap_or(0);
    let least = counters.dispatched.iter().copied().min().unwrap_or(0);
    m.put("fleet.node_imbalance", ratio(most as f64, least as f64));
    o.info.push(ledger_info(&ledger));
    o.info.push(format!(
        "{{\"checks\": {{\"replay_rows_match\": {same}, \"ledger_closes\": {}}}, \"in_process_ms_per_fresh_job\": {in_process_ms}, \"fresh_mean_ms\": {fresh_mean_ms}}}",
        ledger.closes()
    ));
    o
}

/// The realized mix of a stream: repeat share, and job counts per kernel
/// and per mechanism column.
fn mix_info(stream: &Stream, repeats: usize) -> String {
    let kernels: Vec<String> = Kernel::ALL
        .iter()
        .map(|k| {
            let c = stream.specs.iter().filter(|s| s.kernel == *k).count();
            format!("\"{}\": {c}", k.name())
        })
        .collect();
    let configs: Vec<String> = CONFIGS
        .iter()
        .enumerate()
        .map(|(i, (mech, idle))| {
            let c = stream.specs.iter().filter(|s| s.config == i).count();
            format!("\"{}/{idle}\": {c}", mech.label())
        })
        .collect();
    format!(
        "{{\"workload\": \"served\", \"jobs\": {}, \"clients\": {}, \"repeat_share\": {}, \"kernels\": {{{}}}, \"mechanisms\": {{{}}}}}",
        stream.specs.len(),
        clients(),
        repeats as f64 / stream.specs.len() as f64,
        kernels.join(", "),
        configs.join(", ")
    )
}
