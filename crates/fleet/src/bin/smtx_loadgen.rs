//! `smtx-loadgen` — closed/open-loop load generator and SLO gate.
//!
//! Drives a `smtxd` node or an `smtx-coord` coordinator (the API is the
//! same) with generated kernel jobs, measures client-observed
//! submit-to-terminal latency into the fleet's shared histogram schema
//! ([`HIST_BOUNDS_MS`] buckets), and reports p50/p99 via the same
//! nearest-rank bucket quantile the dashboards use
//! ([`hist_quantile_ms`]). With `--slo-p50-ms`/`--slo-p99-ms` it exits
//! nonzero when a budget is blown — that is the CI `fleet-slo` gate.
//!
//! Modes:
//!
//! * `closed` — `--conns` workers, each submits a job, waits for the
//!   terminal state, and immediately submits the next (concurrency fixed,
//!   arrival rate adapts to service time).
//! * `open` — jobs arrive on a fixed schedule (`--rate` per second)
//!   regardless of completion; `--conns` workers absorb the arrivals
//!   (arrival rate fixed, concurrency adapts — backlog shows up as
//!   latency).
//! * `burst` — all `--conns` workers release one job each simultaneously
//!   through a barrier: a worst-case connection spike (the CI smoke run
//!   uses `--conns 256`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

use smtx_bench::runner::hist_quantile_ms;
use smtx_rng::{rngs::StdRng, RngExt, SeedableRng};
use smtx_serve::http::client_request;
use smtx_serve::json::{quote, Json};
use smtx_util::{Hist, HIST_BOUNDS_MS};

const USAGE: &str = "usage: smtx-loadgen --addr HOST:PORT [--mode closed|open|burst] \
 [--conns N] [--jobs N] [--rate PER_SEC] [--kernel NAME] [--insts N] [--spread N] \
 [--seed N] [--deadline-ms N] [--timeout-ms N] [--poll-ms N] \
 [--slo-p50-ms N] [--slo-p99-ms N]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
    Burst,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open => "open",
            Mode::Burst => "burst",
        }
    }
}

#[derive(Clone)]
struct Opts {
    addr: String,
    mode: Mode,
    conns: usize,
    jobs: usize,
    rate: u64,
    kernel: String,
    insts: u64,
    /// Distinct seeds jobs draw from: small spreads repeat specs and
    /// exercise dedup and the shared store; large spreads force real work.
    spread: u64,
    seed: u64,
    deadline_ms: u64,
    timeout_ms: u64,
    /// Status-poll interval per in-flight job; raise it to trade latency
    /// resolution for poll traffic in very wide runs.
    poll_ms: u64,
    slo_p50_ms: Option<u64>,
    slo_p99_ms: Option<u64>,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        addr: String::new(),
        mode: Mode::Closed,
        conns: 4,
        jobs: 32,
        rate: 20,
        kernel: "compress".to_string(),
        insts: 20_000,
        spread: 8,
        seed: 1,
        deadline_ms: 60_000,
        timeout_ms: 120_000,
        poll_ms: 20,
        slo_p50_ms: None,
        slo_p99_ms: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for =
            |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        }
        match arg.as_str() {
            "--addr" => opts.addr = value_for("--addr")?,
            "--mode" => {
                opts.mode = match value_for("--mode")?.as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    "burst" => Mode::Burst,
                    other => return Err(format!("--mode: unknown mode `{other}`")),
                };
            }
            "--conns" => opts.conns = num("--conns", &value_for("--conns")?)?,
            "--jobs" => opts.jobs = num("--jobs", &value_for("--jobs")?)?,
            "--rate" => opts.rate = num("--rate", &value_for("--rate")?)?,
            "--kernel" => opts.kernel = value_for("--kernel")?,
            "--insts" => opts.insts = num("--insts", &value_for("--insts")?)?,
            "--spread" => opts.spread = num("--spread", &value_for("--spread")?)?,
            "--seed" => opts.seed = num("--seed", &value_for("--seed")?)?,
            "--deadline-ms" => {
                opts.deadline_ms = num("--deadline-ms", &value_for("--deadline-ms")?)?;
            }
            "--timeout-ms" => opts.timeout_ms = num("--timeout-ms", &value_for("--timeout-ms")?)?,
            "--poll-ms" => opts.poll_ms = num("--poll-ms", &value_for("--poll-ms")?)?,
            "--slo-p50-ms" => {
                opts.slo_p50_ms = Some(num("--slo-p50-ms", &value_for("--slo-p50-ms")?)?);
            }
            "--slo-p99-ms" => {
                opts.slo_p99_ms = Some(num("--slo-p99-ms", &value_for("--slo-p99-ms")?)?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if opts.conns == 0 {
        return Err("--conns must be at least 1".to_string());
    }
    if opts.jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    if opts.rate == 0 {
        return Err("--rate must be at least 1".to_string());
    }
    if opts.spread == 0 {
        return Err("--spread must be at least 1".to_string());
    }
    Ok(opts)
}

/// Shared run tally: one latency histogram plus outcome counters.
#[derive(Default)]
struct Tally {
    hist: Hist,
    ok: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    transport_errors: AtomicU64,
}

fn spec_body(opts: &Opts, seed: u64) -> String {
    format!(
        "{{\"kernel\": {}, \"insts\": {}, \"seed\": {}, \"deadline_ms\": {}}}",
        quote(&opts.kernel),
        opts.insts,
        seed,
        opts.deadline_ms
    )
}

/// Runs one job to a terminal state and tallies the submit-to-terminal
/// latency. Queue-full answers retry after a short pause — in a closed
/// loop that is the natural backpressure response.
fn run_job(opts: &Opts, tally: &Tally, seed: u64) {
    let timeout = Duration::from_millis(opts.timeout_ms.max(1));
    let overall = Instant::now();
    let body = spec_body(opts, seed);
    let id = loop {
        if overall.elapsed() > timeout {
            tally.transport_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let resp = match client_request(
            &opts.addr,
            "POST",
            "/v1/jobs",
            Some(&body),
            Duration::from_millis(5_000),
        ) {
            Ok(r) => r,
            Err(_) => {
                tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        match resp.status {
            200 | 202 => {
                let id = Json::parse(&resp.body)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Json::as_str).map(String::from));
                match id {
                    Some(id) => break id,
                    None => {
                        tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            429 => {
                tally.rejected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(25));
            }
            _ => {
                tally.failed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    };
    loop {
        if overall.elapsed() > timeout {
            tally.failed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(Duration::from_millis(opts.poll_ms.max(1)));
        let st = match client_request(
            &opts.addr,
            "GET",
            &format!("/v1/jobs/{id}"),
            None,
            Duration::from_millis(5_000),
        ) {
            Ok(r) => r,
            Err(_) => {
                tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let state = Json::parse(&st.body)
            .ok()
            .and_then(|v| v.get("state").and_then(Json::as_str).map(String::from));
        match state.as_deref() {
            Some("done") => {
                tally.ok.fetch_add(1, Ordering::Relaxed);
                tally.hist.observe(overall.elapsed());
                return;
            }
            Some("failed") => {
                tally.failed.fetch_add(1, Ordering::Relaxed);
                tally.hist.observe(overall.elapsed());
                return;
            }
            Some(_) => {}
            None => {
                tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Pre-draws every job's spec seed so the run is reproducible from
/// `--seed` regardless of worker interleaving.
fn draw_seeds(opts: &Opts, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    (0..n).map(|_| rng.random_range(0..opts.spread)).collect()
}

fn run_closed(opts: &Arc<Opts>, tally: &Arc<Tally>) {
    let seeds = Arc::new(Mutex::new(
        draw_seeds(opts, opts.jobs).into_iter().collect::<std::collections::VecDeque<u64>>(),
    ));
    let mut workers = Vec::new();
    for _ in 0..opts.conns {
        let (opts, tally, seeds) = (Arc::clone(opts), Arc::clone(tally), Arc::clone(&seeds));
        workers.push(std::thread::spawn(move || loop {
            let next = seeds.lock().unwrap_or_else(PoisonError::into_inner).pop_front();
            match next {
                Some(seed) => run_job(&opts, &tally, seed),
                None => return,
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }
}

fn run_open(opts: &Arc<Opts>, tally: &Arc<Tally>) {
    // Arrivals go onto a token queue on a fixed schedule; workers absorb
    // them as fast as they can. A growing backlog is the point: open-loop
    // latency includes the wait for a free connection.
    let seeds = Arc::new(Mutex::new(std::collections::VecDeque::new()));
    let interval = Duration::from_micros(1_000_000 / opts.rate.max(1));
    let mut workers = Vec::new();
    for _ in 0..opts.conns {
        let (opts, tally, seeds) = (Arc::clone(opts), Arc::clone(tally), Arc::clone(&seeds));
        workers.push(std::thread::spawn(move || loop {
            let next = seeds.lock().unwrap_or_else(PoisonError::into_inner).pop_front();
            match next {
                Some(None) => return, // sentinel: schedule exhausted
                Some(Some(seed)) => run_job(&opts, &tally, seed),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }));
    }
    for seed in draw_seeds(opts, opts.jobs) {
        seeds.lock().unwrap_or_else(PoisonError::into_inner).push_back(Some(seed));
        std::thread::sleep(interval);
    }
    for _ in 0..opts.conns {
        seeds.lock().unwrap_or_else(PoisonError::into_inner).push_back(None);
    }
    for w in workers {
        let _ = w.join();
    }
}

fn run_burst(opts: &Arc<Opts>, tally: &Arc<Tally>) {
    // One job per connection, all released together: a worst-case spike
    // of `--conns` simultaneous connections against the event loop.
    let barrier = Arc::new(Barrier::new(opts.conns));
    let seeds = draw_seeds(opts, opts.conns);
    let mut workers = Vec::new();
    for seed in seeds {
        let (opts, tally, barrier) = (Arc::clone(opts), Arc::clone(tally), Arc::clone(&barrier));
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            run_job(&opts, &tally, seed);
        }));
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Reconstructs one `[u64; 8]` per-bucket histogram from the cumulative
/// `<prefix>_le_*` lines of a `/metrics` exposition (either daemon's).
fn parse_server_hist(text: &str, prefix: &str) -> Option<[u64; 8]> {
    let mut cumulative = [None::<u64>; 8];
    for line in text.lines() {
        let rest = match line.strip_prefix(prefix) {
            Some(r) => r,
            None => continue,
        };
        let (suffix, value) = rest.split_once(' ')?;
        let value: u64 = value.trim().parse().ok()?;
        let ix = match suffix.strip_prefix("_le_") {
            Some("inf") => HIST_BOUNDS_MS.len(),
            Some(bound) => {
                let b: u64 = bound.parse().ok()?;
                HIST_BOUNDS_MS.iter().position(|&x| x == b)?
            }
            None => continue,
        };
        cumulative[ix] = Some(value);
    }
    let mut out = [0u64; 8];
    let mut prev = 0u64;
    for (slot, c) in out.iter_mut().zip(cumulative.iter()) {
        let c = (*c)?;
        *slot = c.saturating_sub(prev);
        prev = c;
    }
    Some(out)
}

fn fmt_quantile(q: Option<u64>) -> String {
    match q {
        None => "null".to_string(),
        Some(u64::MAX) => format!("\"> {}\"", HIST_BOUNDS_MS[HIST_BOUNDS_MS.len() - 1]),
        Some(ms) => ms.to_string(),
    }
}

fn main() {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let opts = Arc::new(opts);
    let tally = Arc::new(Tally::default());
    let t0 = Instant::now();
    match opts.mode {
        Mode::Closed => run_closed(&opts, &tally),
        Mode::Open => run_open(&opts, &tally),
        Mode::Burst => run_burst(&opts, &tally),
    }
    let wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);

    let hist = tally.hist.snapshot();
    let p50 = hist_quantile_ms(&hist, 50);
    let p99 = hist_quantile_ms(&hist, 99);
    let ok = tally.ok.load(Ordering::Relaxed);
    let failed = tally.failed.load(Ordering::Relaxed);
    let rejected = tally.rejected.load(Ordering::Relaxed);
    let transport = tally.transport_errors.load(Ordering::Relaxed);
    let total = ok + failed + transport;

    // Server-side view: scrape whichever daemon we loaded and quote its
    // exec-latency quantiles next to ours (same histogram schema).
    let server = client_request(&opts.addr, "GET", "/metrics", None, Duration::from_millis(5_000))
        .ok()
        .and_then(|r| {
            ["smtxd_exec_ms", "smtx_coord_exec_ms"].iter().find_map(|prefix| {
                parse_server_hist(&r.body, prefix).map(|h| {
                    format!(
                        "{{\"source\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                        quote(prefix),
                        fmt_quantile(hist_quantile_ms(&h, 50)),
                        fmt_quantile(hist_quantile_ms(&h, 99))
                    )
                })
            })
        })
        .unwrap_or_else(|| "null".to_string());

    let throughput = if wall_ms == 0 { 0.0 } else { ok as f64 * 1000.0 / wall_ms as f64 };
    println!(
        "{{\"mode\": {}, \"conns\": {}, \"jobs\": {}, \"ok\": {ok}, \"failed\": {failed}, \
         \"rejected_retries\": {rejected}, \"transport_errors\": {transport}, \
         \"wall_ms\": {wall_ms}, \"throughput_jps\": {throughput:.2}, \
         \"p50_ms\": {}, \"p99_ms\": {}, \"server\": {server}}}",
        quote(opts.mode.name()),
        opts.conns,
        opts.jobs,
        fmt_quantile(p50),
        fmt_quantile(p99),
    );

    if total == 0 || failed > 0 || transport > 0 {
        eprintln!("loadgen: {failed} failed, {transport} transport errors out of {total}");
        std::process::exit(1);
    }
    let mut blown = false;
    for (name, budget, got) in [("p50", opts.slo_p50_ms, p50), ("p99", opts.slo_p99_ms, p99)] {
        if let Some(budget) = budget {
            let got = got.unwrap_or(u64::MAX);
            if got > budget {
                eprintln!("loadgen: SLO violated: {name} {got} ms > budget {budget} ms");
                blown = true;
            }
        }
    }
    if blown {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_hist_round_trips_cumulative_exposition() {
        let text = "smtxd_exec_ms_le_1 2\nsmtxd_exec_ms_le_4 2\nsmtxd_exec_ms_le_16 5\n\
                    smtxd_exec_ms_le_64 5\nsmtxd_exec_ms_le_256 5\nsmtxd_exec_ms_le_1024 6\n\
                    smtxd_exec_ms_le_4096 6\nsmtxd_exec_ms_le_inf 7\nother 9\n";
        let h = parse_server_hist(text, "smtxd_exec_ms").unwrap();
        assert_eq!(h, [2, 0, 3, 0, 0, 1, 0, 1]);
        assert_eq!(hist_quantile_ms(&h, 50), Some(16));
        assert_eq!(hist_quantile_ms(&h, 99), Some(u64::MAX));
        assert!(parse_server_hist(text, "smtx_coord_exec_ms").is_none());
    }

    #[test]
    fn seed_draws_are_reproducible_and_bounded() {
        let opts = parse(["--addr".to_string(), "x:1".to_string(), "--spread".to_string(), "4".to_string()])
            .unwrap();
        let a = draw_seeds(&opts, 16);
        let b = draw_seeds(&opts, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s < 4));
    }
}
