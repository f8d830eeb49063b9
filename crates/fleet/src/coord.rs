//! `smtx-coord`: the fleet coordinator.
//!
//! The coordinator fronts N `smtxd` nodes behind the **same HTTP API** a
//! single node speaks — `smtx-client` and the load generator work against
//! either unchanged. What it adds (DESIGN.md §15):
//!
//! * **Sharded placement** — each job's home node is a pure function of
//!   its spec digest ([`home_of`]), so the same spec always lands on the
//!   same node and re-uses that node's runner caches. `--placement` can
//!   swap in round-robin or least-loaded placement.
//! * **Work stealing** — when a job's home node already has
//!   `steal_depth` jobs outstanding, the job is dispatched to the
//!   least-loaded alive node instead (counted in `smtx_coord_steals`).
//! * **Shared result store** — finished results enter a content-addressed
//!   LRU store keyed by the spec digest ([`crate::store`]). A submission
//!   whose result is already stored is answered without dispatching at
//!   all; hits produced by a *different* node than placement would pick
//!   now are counted as `smtx_coord_store_cross_node_hits`.
//! * **Failure redispatch** — a node that stops answering mid-job is
//!   marked dead; its in-flight jobs re-queue (front of the line) and run
//!   elsewhere, bounded by each job's deadline. Results are byte-identical
//!   wherever they run — the simulator is deterministic.
//!
//! Dispatchers forward jobs over the node's own public API (`POST
//! /v1/jobs`, then status polls), rewriting only the spec's `deadline_ms`
//! to the time actually remaining — `deadline_ms` is not part of the spec
//! digest, so the job id is identical on the node and the coordinator.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smtx_serve::eventloop::{self, Outcome, Router, Streamer};
use smtx_serve::http::{client_request, BadRequest, Request};
use smtx_serve::json::{quote, Json};
use smtx_serve::{JobSpec, JobState, Submit};
use smtx_util::StableHasher;

use crate::metrics::CoordMetrics;
use crate::store::ResultStore;

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";
const NDJSON: &str = "application/x-ndjson";

/// How a job picks its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Home node = spec digest modulo node count ([`home_of`]): the same
    /// spec always lands on the same node and reuses its runner caches.
    Shard,
    /// Rotate through nodes in submission order. Store hits do **not**
    /// advance the pointer — a served-from-store job dispatched nothing.
    RoundRobin,
    /// Always the alive node with the fewest outstanding jobs.
    LeastLoaded,
}

impl Placement {
    /// Parses a `--placement` flag value.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Placement> {
        match name {
            "shard" => Some(Placement::Shard),
            "round-robin" => Some(Placement::RoundRobin),
            "least-loaded" => Some(Placement::LeastLoaded),
            _ => None,
        }
    }

    /// The flag spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Placement::Shard => "shard",
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
        }
    }
}

/// The home node of job `id` among `nodes` nodes: a stable hash of the
/// digest, so placement is a pure function of the spec (and of nothing
/// else — not arrival order, not load).
#[must_use]
pub fn home_of(id: &str, nodes: usize) -> usize {
    if nodes == 0 {
        return 0;
    }
    let mut h = StableHasher::new();
    h.write(id.as_bytes());
    usize::try_from(h.finish() % nodes as u64).unwrap_or(0)
}

/// Tuning knobs for one coordinator instance.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Node addresses (`HOST:PORT`), in shard order.
    pub nodes: Vec<String>,
    /// Placement policy.
    pub placement: Placement,
    /// Dispatcher threads forwarding jobs to nodes.
    pub dispatchers: usize,
    /// Steal threshold: a home node with this many jobs outstanding is
    /// "deep", and new work for it goes to the least-loaded node instead.
    pub steal_depth: u64,
    /// Most results retained in the shared store (LRU beyond).
    pub store_cap: usize,
    /// Most jobs allowed to wait for a dispatcher (backpressure bound).
    pub queue_cap: usize,
    /// Most finished job records retained (LRU beyond); the shared store
    /// is the longer-lived memory.
    pub results_cap: usize,
    /// Deadline applied to jobs that do not request one, milliseconds.
    pub default_deadline_ms: u64,
    /// Per-request timeout against a node, milliseconds — also how fast a
    /// dead node is detected.
    pub node_timeout_ms: u64,
    /// Status-poll interval while a job runs on a node, milliseconds.
    pub poll_ms: u64,
}

impl Default for CoordConfig {
    fn default() -> CoordConfig {
        CoordConfig {
            nodes: Vec::new(),
            placement: Placement::Shard,
            dispatchers: 8,
            steal_depth: 2,
            store_cap: 256,
            queue_cap: 256,
            results_cap: 512,
            default_deadline_ms: 600_000,
            node_timeout_ms: 5_000,
            poll_ms: 20,
        }
    }
}

/// One fleet member as the coordinator sees it.
#[derive(Debug)]
pub struct Node {
    /// The node's `HOST:PORT`.
    pub addr: String,
    alive: AtomicBool,
    outstanding: AtomicU64,
    dispatched: AtomicU64,
}

impl Node {
    /// Whether the node is still considered reachable.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Jobs currently dispatched to the node and not yet terminal.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Total jobs ever dispatched to the node.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }
}

struct CoordJob {
    spec: JobSpec,
    /// The parsed submission body, kept for forwarding (the dispatcher
    /// rewrites `deadline_ms` per attempt).
    body: Json,
    state: JobState,
    deadline: Instant,
    submitted: Instant,
}

struct Inner {
    queue: VecDeque<String>,
    /// Keyed by job id; BTreeMap for deterministic sweeps
    /// (smtx-lint: no-unordered-iteration).
    jobs: BTreeMap<String, CoordJob>,
    /// Finished ids, oldest first — the LRU eviction order.
    finished: VecDeque<String>,
    draining: bool,
    busy: usize,
    rr_next: usize,
}

/// What one forwarding attempt came back with.
enum Verdict {
    /// The node finished the job; verbatim result bytes attached.
    Done(String),
    /// Terminal failure (node-side error, rejection, or deadline).
    Failed(String),
    /// The node's queue was full — back off and re-queue, node stays alive.
    Busy,
    /// The node stopped answering — mark dead and re-queue.
    Down(String),
}

/// The coordinator: placement, dispatch, the shared store, and metrics.
pub struct Coordinator {
    /// Tuning knobs the coordinator was built with.
    pub config: CoordConfig,
    /// Fleet members, in shard order.
    pub nodes: Vec<Node>,
    /// Observability counters.
    pub metrics: CoordMetrics,
    /// The content-addressed shared result store.
    pub store: ResultStore,
    inner: Mutex<Inner>,
    /// Signaled when work arrives or draining starts.
    work_cv: Condvar,
    /// Signaled when a job reaches a terminal state.
    done_cv: Condvar,
}

impl Coordinator {
    /// Builds the coordinator (no threads started;
    /// [`Coordinator::dispatcher_loop`] is the dispatcher body).
    #[must_use]
    pub fn new(config: CoordConfig) -> Arc<Coordinator> {
        let nodes = config
            .nodes
            .iter()
            .map(|addr| Node {
                addr: addr.clone(),
                alive: AtomicBool::new(true),
                outstanding: AtomicU64::new(0),
                dispatched: AtomicU64::new(0),
            })
            .collect();
        Arc::new(Coordinator {
            store: ResultStore::new(config.store_cap),
            config,
            nodes,
            metrics: CoordMetrics::default(),
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                finished: VecDeque::new(),
                draining: false,
                busy: 0,
                rr_next: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    }

    /// A poisoned lock only means a dispatcher panicked mid-update; the
    /// maps stay structurally consistent, so recover rather than cascade.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Where placement *would* send job `id` right now, without committing
    /// anything (round-robin does not advance). Used to classify store
    /// hits as same-node or cross-node.
    fn peek_target(&self, inner: &Inner, id: &str) -> usize {
        match self.config.placement {
            Placement::Shard => home_of(id, self.nodes.len()),
            Placement::RoundRobin => {
                if self.nodes.is_empty() {
                    0
                } else {
                    inner.rr_next % self.nodes.len()
                }
            }
            Placement::LeastLoaded => self.least_loaded().unwrap_or(0),
        }
    }

    /// The alive node with the fewest outstanding jobs (ties to the lowest
    /// index); `None` when every node is dead.
    fn least_loaded(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive())
            .min_by_key(|(i, n)| (n.outstanding(), *i))
            .map(|(i, _)| i)
    }

    /// Commits a placement decision for `id`: home per policy, stolen to
    /// the least-loaded node when the home is dead or `steal_depth` deep.
    fn choose_node(&self, inner: &mut Inner, id: &str) -> Option<usize> {
        let n = self.nodes.len();
        if n == 0 {
            return None;
        }
        let home = match self.config.placement {
            Placement::Shard => home_of(id, n),
            Placement::RoundRobin => {
                let t = inner.rr_next % n;
                inner.rr_next = (t + 1) % n;
                t
            }
            Placement::LeastLoaded => self.least_loaded()?,
        };
        let home_alive = self.nodes[home].alive();
        if home_alive && self.nodes[home].outstanding() < self.config.steal_depth {
            return Some(home);
        }
        let chosen = self.least_loaded()?;
        // Routing around a dead home is failover (counted per job as a
        // redispatch when it dies mid-run), not a steal; only a live-but-
        // deep home counts.
        if home_alive && chosen != home {
            CoordMetrics::inc(&self.metrics.steals);
        }
        Some(chosen)
    }

    /// Submits one parsed body. Identical specs dedup; specs whose result
    /// already sits in the shared store are answered without dispatching.
    ///
    /// # Errors
    ///
    /// Returns the validation error text for a malformed spec (400).
    pub fn submit(&self, body: &Json, deadline_ms: Option<u64>) -> Result<Submit, String> {
        let spec = JobSpec::from_json(body)?;
        let id = spec.id();
        let mut inner = self.lock();
        if inner.draining {
            CoordMetrics::inc(&self.metrics.jobs_rejected_shutdown);
            return Ok(Submit::Draining);
        }
        if let Some(entry) = self.store.get(&id) {
            // Served from the shared store: nothing dispatches. If another
            // node than the current placement target produced the entry,
            // that node's work was reused across the fleet boundary.
            CoordMetrics::inc(&self.metrics.store_hits);
            if entry.node != self.peek_target(&inner, &id) {
                CoordMetrics::inc(&self.metrics.store_cross_node_hits);
            }
            CoordMetrics::inc(&self.metrics.jobs_deduped);
            if !inner.jobs.contains_key(&id) {
                let now = Instant::now();
                inner.jobs.insert(
                    id.clone(),
                    CoordJob {
                        spec,
                        body: body.clone(),
                        state: JobState::Done(entry.body),
                        deadline: now,
                        submitted: now,
                    },
                );
                Self::retire(&mut inner, id.clone(), self.config.results_cap);
            }
            return Ok(Submit::Deduped(id));
        }
        if inner.jobs.contains_key(&id) {
            CoordMetrics::inc(&self.metrics.jobs_deduped);
            return Ok(Submit::Deduped(id));
        }
        if inner.queue.len() >= self.config.queue_cap {
            CoordMetrics::inc(&self.metrics.jobs_rejected_full);
            return Ok(Submit::QueueFull);
        }
        let ms = deadline_ms.unwrap_or(self.config.default_deadline_ms);
        let now = Instant::now();
        inner.jobs.insert(
            id.clone(),
            CoordJob {
                spec,
                body: body.clone(),
                state: JobState::Queued,
                deadline: now + Duration::from_millis(ms),
                submitted: now,
            },
        );
        inner.queue.push_back(id.clone());
        CoordMetrics::inc(&self.metrics.jobs_accepted);
        drop(inner);
        self.work_cv.notify_one();
        Ok(Submit::Accepted(id))
    }

    /// The job's current state, if it is known.
    #[must_use]
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.lock().jobs.get(id).map(|r| r.state.clone())
    }

    /// Status metadata JSON for `GET /v1/jobs/<id>` (same shape as a
    /// node's).
    #[must_use]
    pub fn status_json(&self, id: &str) -> Option<String> {
        let inner = self.lock();
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

    /// Records `id` as finished and evicts the oldest finished records
    /// beyond `cap` (queued/running records are never evicted; evicted
    /// results usually live on in the shared store).
    fn retire(inner: &mut Inner, id: String, cap: usize) {
        inner.finished.push_back(id);
        while inner.finished.len() > cap {
            if let Some(old) = inner.finished.pop_front() {
                inner.jobs.remove(&old);
            }
        }
    }

    /// One dispatcher's whole life: pull, place, forward, publish; exit
    /// once the coordinator is draining and the queue is dry.
    pub fn dispatcher_loop(&self) {
        loop {
            let (id, body, deadline) = {
                let mut inner = self.lock();
                loop {
                    if let Some(id) = inner.queue.pop_front() {
                        let Some(job) = inner.jobs.get_mut(&id) else { continue };
                        if Instant::now() > job.deadline {
                            job.state =
                                JobState::Failed("deadline exceeded before dispatch".to_string());
                            CoordMetrics::inc(&self.metrics.deadline_expired);
                            CoordMetrics::inc(&self.metrics.jobs_failed);
                            Self::retire(&mut inner, id, self.config.results_cap);
                            self.done_cv.notify_all();
                            continue;
                        }
                        self.metrics.queue_wait_ms.observe(job.submitted.elapsed());
                        job.state = JobState::Running;
                        let body = job.body.clone();
                        let deadline = job.deadline;
                        inner.busy += 1;
                        break (id, body, deadline);
                    }
                    if inner.draining {
                        return;
                    }
                    inner = self.work_cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.run_one(id, &body, deadline);
        }
    }

    /// Places and forwards one job, publishing its outcome (or re-queuing
    /// it on node failure).
    fn run_one(&self, id: String, body: &Json, deadline: Instant) {
        let t0 = Instant::now();
        let chosen = {
            let mut inner = self.lock();
            let c = self.choose_node(&mut inner, &id);
            if let Some(ix) = c {
                // Incremented under the lock so concurrent placement
                // decisions see each other's load.
                self.nodes[ix].outstanding.fetch_add(1, Ordering::Relaxed);
                self.nodes[ix].dispatched.fetch_add(1, Ordering::Relaxed);
            }
            c
        };
        let (verdict, node_ix) = match chosen {
            None => (Verdict::Failed("no alive nodes".to_string()), None),
            Some(ix) => {
                let v = self.forward(ix, &id, body, deadline);
                self.nodes[ix].outstanding.fetch_sub(1, Ordering::Relaxed);
                (v, Some(ix))
            }
        };
        self.metrics.exec_ms.observe(t0.elapsed());
        match verdict {
            Verdict::Done(json) => {
                CoordMetrics::inc(&self.metrics.store_insertions);
                if let Some(ix) = node_ix {
                    let evicted = self.store.insert(&id, &json, ix);
                    CoordMetrics::add(&self.metrics.store_evictions, evicted);
                }
                CoordMetrics::inc(&self.metrics.jobs_completed);
                self.finish(&id, JobState::Done(json));
            }
            Verdict::Failed(e) => {
                CoordMetrics::inc(&self.metrics.jobs_failed);
                self.finish(&id, JobState::Failed(e));
            }
            Verdict::Busy => {
                // The node queue pushed back; give it a beat, then requeue
                // at the back (the node stays alive).
                std::thread::sleep(Duration::from_millis(10));
                self.requeue(id, deadline, false);
            }
            Verdict::Down(why) => {
                if let Some(ix) = node_ix {
                    self.nodes[ix].alive.store(false, Ordering::Relaxed);
                }
                CoordMetrics::inc(&self.metrics.redispatches);
                let _ = why;
                // Front of the queue: this job has waited longest.
                self.requeue(id, deadline, true);
            }
        }
    }

    /// Publishes a terminal state.
    fn finish(&self, id: &str, state: JobState) {
        let mut inner = self.lock();
        if let Some(j) = inner.jobs.get_mut(id) {
            j.state = state;
        }
        inner.busy -= 1;
        Self::retire(&mut inner, id.to_string(), self.config.results_cap);
        drop(inner);
        self.done_cv.notify_all();
    }

    /// Puts a job back on the queue (front when its node died), unless its
    /// deadline already passed.
    fn requeue(&self, id: String, deadline: Instant, front: bool) {
        if Instant::now() > deadline {
            CoordMetrics::inc(&self.metrics.jobs_failed);
            self.finish(&id, JobState::Failed("deadline exceeded during redispatch".to_string()));
            return;
        }
        let mut inner = self.lock();
        if let Some(j) = inner.jobs.get_mut(&id) {
            j.state = JobState::Queued;
        }
        if front {
            inner.queue.push_front(id);
        } else {
            inner.queue.push_back(id);
        }
        inner.busy -= 1;
        drop(inner);
        self.work_cv.notify_one();
    }

    /// Node-facing timeout: never longer than the job has left to live.
    fn node_timeout(&self, deadline: Instant) -> Duration {
        Duration::from_millis(self.config.node_timeout_ms)
            .min(deadline.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(10))
    }

    /// Forwards one job to node `ix` over its public API and waits for a
    /// terminal state, bounded by the job's deadline.
    fn forward(&self, ix: usize, id: &str, body: &Json, deadline: Instant) -> Verdict {
        let addr = &self.nodes[ix].addr;
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Verdict::Failed("deadline exceeded".to_string());
        }
        // Rewrite only the node-side deadline to the time actually left;
        // `deadline_ms` is not part of the spec digest, so the node
        // computes the same job id we hold.
        let mut spec = body.clone();
        let left_ms = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX).max(1);
        spec.set("deadline_ms", Json::num_u64(left_ms));
        let resp = match client_request(
            addr,
            "POST",
            "/v1/jobs",
            Some(&spec.to_text()),
            self.node_timeout(deadline),
        ) {
            Ok(r) => r,
            Err(e) => return Verdict::Down(format!("submit: {e}")),
        };
        match resp.status {
            200 | 202 => {}
            429 => return Verdict::Busy,
            503 => return Verdict::Down("node draining".to_string()),
            s => {
                return Verdict::Failed(format!(
                    "node {ix} rejected job ({s}): {}",
                    resp.body.trim()
                ))
            }
        }
        loop {
            if Instant::now() > deadline {
                return Verdict::Failed("deadline exceeded".to_string());
            }
            std::thread::sleep(Duration::from_millis(self.config.poll_ms.max(1)));
            let st = match client_request(
                addr,
                "GET",
                &format!("/v1/jobs/{id}"),
                None,
                self.node_timeout(deadline),
            ) {
                Ok(r) => r,
                Err(e) => return Verdict::Down(format!("status poll: {e}")),
            };
            if st.status != 200 {
                // A vanished record (node restarted, result evicted) is
                // indistinguishable from loss — recompute elsewhere.
                return Verdict::Down(format!("status poll answered {}", st.status));
            }
            let parsed = Json::parse(&st.body).ok();
            let state = parsed
                .as_ref()
                .and_then(|v| v.get("state"))
                .and_then(Json::as_str)
                .map(String::from);
            match state.as_deref() {
                Some("done") => {
                    let res = match client_request(
                        addr,
                        "GET",
                        &format!("/v1/jobs/{id}/result"),
                        None,
                        self.node_timeout(deadline),
                    ) {
                        Ok(r) => r,
                        Err(e) => return Verdict::Down(format!("result fetch: {e}")),
                    };
                    if res.status != 200 {
                        return Verdict::Down(format!("result fetch answered {}", res.status));
                    }
                    return Verdict::Done(res.body);
                }
                Some("failed") => {
                    let err = parsed
                        .as_ref()
                        .and_then(|v| v.get("error"))
                        .and_then(Json::as_str)
                        .unwrap_or("node reported failure")
                        .to_string();
                    return Verdict::Failed(err);
                }
                Some(_) => {}
                None => return Verdict::Down("malformed status payload".to_string()),
            }
        }
    }

    /// Starts draining: queued jobs still dispatch, new submissions get
    /// [`Submit::Draining`].
    pub fn begin_shutdown(&self) {
        self.lock().draining = true;
        self.work_cv.notify_all();
    }

    /// Whether the coordinator is draining.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Blocks until the queue is empty and no dispatcher is mid-job.
    pub fn wait_drained(&self) {
        let mut inner = self.lock();
        while !inner.queue.is_empty() || inner.busy > 0 {
            inner = self.done_cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Posts `/v1/shutdown` to every node still marked alive (the
    /// `{"fleet": true}` shutdown fan-out). Errors are ignored — a node
    /// that cannot be reached is already as shut down as it gets.
    pub fn shutdown_fleet(&self) {
        for node in &self.nodes {
            if node.alive() {
                let _ = client_request(
                    &node.addr,
                    "POST",
                    "/v1/shutdown",
                    None,
                    Duration::from_millis(self.config.node_timeout_ms),
                );
            }
        }
    }

    /// Blocks until `id` reaches a terminal state (or `timeout` passes);
    /// returns the latest observed state.
    #[must_use]
    pub fn wait_job(&self, id: &str, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
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
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = g;
                }
            }
        }
    }

    /// Plaintext metrics exposition (`smtx_coord_*`).
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let (depth, busy) = {
            let inner = self.lock();
            (inner.queue.len(), inner.busy)
        };
        let mut out = String::new();
        for (name, value) in self.metrics.counters() {
            out.push_str(&format!("smtx_coord_{name} {value}\n"));
        }
        out.push_str(&format!("smtx_coord_queue_depth {depth}\n"));
        out.push_str(&format!("smtx_coord_dispatchers_busy {busy}\n"));
        out.push_str(&format!("smtx_coord_dispatchers_total {}\n", self.config.dispatchers));
        out.push_str(&format!("smtx_coord_store_size {}\n", self.store.len()));
        out.push_str(&format!("smtx_coord_nodes_total {}\n", self.nodes.len()));
        let alive = self.nodes.iter().filter(|n| n.alive()).count();
        out.push_str(&format!("smtx_coord_nodes_alive {alive}\n"));
        for (i, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!("smtx_coord_node_alive_{i} {}\n", u64::from(node.alive())));
            out.push_str(&format!("smtx_coord_node_outstanding_{i} {}\n", node.outstanding()));
            out.push_str(&format!("smtx_coord_node_dispatched_{i} {}\n", node.dispatched()));
        }
        self.metrics.queue_wait_ms.render(&mut out, "smtx_coord_queue_wait_ms");
        self.metrics.exec_ms.render(&mut out, "smtx_coord_exec_ms");
        out
    }
}

/// A running coordinator: bound address, shared state, reactor handle.
pub struct CoordHandle {
    coord: Arc<Coordinator>,
    stopped: Arc<AtomicBool>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
}

impl CoordHandle {
    /// The address the coordinator actually bound (port 0 resolves here).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared coordinator state (tests assert counters through it).
    #[must_use]
    pub fn coordinator(&self) -> Arc<Coordinator> {
        Arc::clone(&self.coord)
    }

    /// Waits for the coordinator to exit (i.e. for a shutdown to
    /// complete).
    pub fn join(mut self) {
        if let Some(t) = self.reactor.take() {
            // A panicked reactor already tore the process state down; the
            // join result adds nothing actionable here.
            let _ = t.join();
        }
    }

    /// Programmatic shutdown: drain in-flight jobs, stop the reactor, wait
    /// for exit. Does **not** shut the nodes down — `POST /v1/shutdown`
    /// with `{"fleet": true}` does that.
    pub fn shutdown_and_join(self) {
        self.coord.begin_shutdown();
        self.coord.wait_drained();
        self.stopped.store(true, Ordering::SeqCst);
        self.join();
    }
}

/// Binds `addr`, spawns the dispatcher pool and the reactor, and returns
/// immediately.
///
/// # Errors
///
/// Fails when the address cannot be bound or no nodes were configured.
pub fn start(addr: &str, config: CoordConfig) -> std::io::Result<CoordHandle> {
    if config.nodes.is_empty() {
        return Err(std::io::Error::other("a coordinator needs at least one node"));
    }
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let coord = Coordinator::new(config.clone());
    let stopped = Arc::new(AtomicBool::new(false));

    let mut dispatchers = Vec::new();
    for _ in 0..config.dispatchers.max(1) {
        let c = Arc::clone(&coord);
        dispatchers.push(std::thread::spawn(move || c.dispatcher_loop()));
    }

    let reactor = {
        let router: Arc<dyn Router> =
            Arc::new(CoordRouter { coord: Arc::clone(&coord), stopped: Arc::clone(&stopped) });
        let stop = Arc::clone(&stopped);
        let c = Arc::clone(&coord);
        std::thread::spawn(move || {
            eventloop::run(listener, &router, &stop);
            c.begin_shutdown();
            for d in dispatchers {
                // Dispatchers exit once draining + queue dry; a panicked
                // one has already published its job as failed or lost.
                let _ = d.join();
            }
        })
    };

    Ok(CoordHandle { coord, stopped, addr: local, reactor: Some(reactor) })
}

/// Error-body helper: every non-2xx answer is still JSON.
fn err_body(msg: &str) -> String {
    format!("{{\"error\": {}}}\n", quote(msg))
}

fn full(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Outcome {
    Outcome::Full { status, content_type, body: body.into() }
}

/// The coordinator's router: the same HTTP surface as a node, served from
/// the shared event loop.
struct CoordRouter {
    coord: Arc<Coordinator>,
    stopped: Arc<AtomicBool>,
}

impl Router for CoordRouter {
    fn route(&self, req: &Request) -> Outcome {
        CoordMetrics::inc(&self.coord.metrics.http_requests);
        route(req, &self.coord, &self.stopped)
    }

    fn bad_request(&self, err: &BadRequest) -> Outcome {
        CoordMetrics::inc(&self.coord.metrics.bad_requests);
        full(400, JSON, err_body(&err.0))
    }
}

fn parse_body(body: &[u8], coord: &Arc<Coordinator>) -> Result<Json, Outcome> {
    let text = std::str::from_utf8(body).map_err(|_| {
        CoordMetrics::inc(&coord.metrics.bad_requests);
        full(400, JSON, err_body("body is not UTF-8"))
    })?;
    Json::parse(text).map_err(|e| {
        CoordMetrics::inc(&coord.metrics.bad_requests);
        full(400, JSON, err_body(&format!("invalid JSON: {e}")))
    })
}

fn route(req: &Request, coord: &Arc<Coordinator>, stopped: &Arc<AtomicBool>) -> Outcome {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => submit(req, coord),
        ("POST", "/v1/batch") => batch(req, coord),
        ("POST", "/v1/shutdown") => {
            let fleet = (!req.body.is_empty())
                .then(|| Json::parse(&String::from_utf8_lossy(&req.body)).ok())
                .flatten()
                .and_then(|v| v.get("fleet").and_then(Json::as_bool))
                .unwrap_or(false);
            begin_shutdown_async(coord, stopped, fleet);
            full(200, JSON, format!("{{\"draining\": true, \"fleet\": {fleet}}}\n"))
        }
        ("GET", "/metrics") => full(200, TEXT, coord.metrics_text()),
        ("GET", "/healthz") => {
            if coord.draining() {
                full(503, JSON, err_body("draining"))
            } else {
                full(200, JSON, "{\"ok\": true}\n")
            }
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                job_get(rest, coord)
            } else {
                full(404, JSON, err_body(&format!("no such path `{path}`")))
            }
        }
        (method, path) => full(405, JSON, err_body(&format!("{method} {path} not supported"))),
    }
}

fn submit(req: &Request, coord: &Arc<Coordinator>) -> Outcome {
    let parsed = match parse_body(&req.body, coord) {
        Ok(v) => v,
        Err(out) => return out,
    };
    let deadline_ms = parsed.get("deadline_ms").and_then(Json::as_u64);
    match coord.submit(&parsed, deadline_ms) {
        Err(e) => {
            CoordMetrics::inc(&coord.metrics.bad_requests);
            full(400, JSON, err_body(&e))
        }
        Ok(Submit::Accepted(id)) => {
            full(202, JSON, format!("{{\"id\": {}, \"state\": \"queued\"}}\n", quote(&id)))
        }
        Ok(Submit::Deduped(id)) => {
            let state = coord.state(&id).map_or("unknown", |s| s.name());
            full(
                200,
                JSON,
                format!(
                    "{{\"id\": {}, \"state\": {}, \"deduped\": true}}\n",
                    quote(&id),
                    quote(state)
                ),
            )
        }
        Ok(Submit::QueueFull) => full(429, JSON, err_body("queue full, retry later")),
        Ok(Submit::Draining) => full(503, JSON, err_body("shutting down")),
    }
}

fn job_get(rest: &str, coord: &Arc<Coordinator>) -> Outcome {
    if rest.strip_suffix("/trace").is_some() {
        return full(
            404,
            JSON,
            err_body("the coordinator does not proxy traces; fetch them from the executing node"),
        );
    }
    if let Some(id) = rest.strip_suffix("/result") {
        return match coord.state(id) {
            // Verbatim node bytes — byte-comparable with a lone node's
            // result and with a figure binary's --json file.
            Some(JobState::Done(json)) => full(200, JSON, json),
            Some(JobState::Failed(e)) => full(409, JSON, err_body(&format!("job failed: {e}"))),
            Some(s) => full(409, JSON, err_body(&format!("job is {}", s.name()))),
            None => full(404, JSON, err_body(&format!("unknown job `{id}`"))),
        };
    }
    match coord.status_json(rest) {
        Some(body) => full(200, JSON, body),
        None => full(404, JSON, err_body(&format!("unknown job `{rest}`"))),
    }
}

/// `POST /v1/batch` against the fleet: the identical stream contract as a
/// node's (`{"batch": N}` header, per-job terminal frames with verbatim
/// result bytes, `{"done": true}` trailer) — but each job places, steals
/// and store-dedups fleet-wide.
fn batch(req: &Request, coord: &Arc<Coordinator>) -> Outcome {
    let parsed = match parse_body(&req.body, coord) {
        Ok(v) => v,
        Err(out) => return out,
    };
    let Some(jobs) = parsed.get("jobs").and_then(Json::as_arr) else {
        CoordMetrics::inc(&coord.metrics.bad_requests);
        return full(400, JSON, err_body("body must carry a \"jobs\" array"));
    };
    if jobs.is_empty() {
        CoordMetrics::inc(&coord.metrics.bad_requests);
        return full(400, JSON, err_body("\"jobs\" must not be empty"));
    }
    let deadline_ms = parsed.get("deadline_ms").and_then(Json::as_u64);
    let mut queue = VecDeque::new();
    let mut frames = Vec::new();
    for (index, entry) in jobs.iter().enumerate() {
        match JobSpec::from_json(entry) {
            Ok(_) => queue.push_back((index, entry.clone())),
            Err(e) => frames.push(format!(
                "{{\"index\": {index}, \"state\": \"failed\", \"error\": {}}}\n",
                quote(&e)
            )),
        }
    }
    CoordMetrics::inc(&coord.metrics.batch_requests);
    CoordMetrics::add(&coord.metrics.batch_jobs, jobs.len() as u64);
    Outcome::Stream {
        status: 200,
        content_type: NDJSON,
        streamer: Box::new(CoordBatch {
            coord: Arc::clone(coord),
            total: jobs.len(),
            deadline_ms,
            queue,
            inflight: Vec::new(),
            early_frames: frames,
            header_sent: false,
        }),
    }
}

/// Drives one fleet batch: submits specs as queue capacity frees and emits
/// one terminal frame per job in completion order.
struct CoordBatch {
    coord: Arc<Coordinator>,
    total: usize,
    deadline_ms: Option<u64>,
    queue: VecDeque<(usize, Json)>,
    inflight: Vec<(usize, String)>,
    early_frames: Vec<String>,
    header_sent: bool,
}

impl Streamer for CoordBatch {
    fn poll(&mut self, out: &mut Vec<u8>) -> bool {
        if !self.header_sent {
            self.header_sent = true;
            out.extend_from_slice(format!("{{\"batch\": {}}}\n", self.total).as_bytes());
            for f in self.early_frames.drain(..) {
                out.extend_from_slice(f.as_bytes());
            }
        }
        while let Some((index, body)) = self.queue.pop_front() {
            match self.coord.submit(&body, self.deadline_ms) {
                Ok(Submit::Accepted(id) | Submit::Deduped(id)) => {
                    self.inflight.push((index, id));
                }
                Ok(Submit::QueueFull) => {
                    self.queue.push_front((index, body));
                    break;
                }
                Ok(Submit::Draining) => out.extend_from_slice(
                    format!(
                        "{{\"index\": {index}, \"state\": \"failed\", \"error\": \"shutting down\"}}\n"
                    )
                    .as_bytes(),
                ),
                // Validated before streaming, so this only fires if the
                // spec grammar and the validator disagree — answer per-job.
                Err(e) => out.extend_from_slice(
                    format!(
                        "{{\"index\": {index}, \"state\": \"failed\", \"error\": {}}}\n",
                        quote(&e)
                    )
                    .as_bytes(),
                ),
            }
        }
        let mut still = Vec::with_capacity(self.inflight.len());
        for (index, id) in self.inflight.drain(..) {
            match self.coord.state(&id) {
                Some(JobState::Done(json)) => {
                    out.extend_from_slice(
                        format!(
                            "{{\"index\": {index}, \"id\": {}, \"state\": \"done\", \"result_bytes\": {}}}\n",
                            quote(&id),
                            json.len()
                        )
                        .as_bytes(),
                    );
                    out.extend_from_slice(json.as_bytes());
                    out.push(b'\n');
                }
                Some(JobState::Failed(e)) => out.extend_from_slice(
                    format!(
                        "{{\"index\": {index}, \"id\": {}, \"state\": \"failed\", \"error\": {}}}\n",
                        quote(&id),
                        quote(&e)
                    )
                    .as_bytes(),
                ),
                Some(_) => still.push((index, id)),
                None => out.extend_from_slice(
                    format!(
                        "{{\"index\": {index}, \"id\": {}, \"state\": \"failed\", \"error\": \"result evicted before it was streamed\"}}\n",
                        quote(&id)
                    )
                    .as_bytes(),
                ),
            }
        }
        self.inflight = still;
        if self.queue.is_empty() && self.inflight.is_empty() {
            out.extend_from_slice(
                format!("{{\"done\": true, \"batch\": {}}}\n", self.total).as_bytes(),
            );
            return true;
        }
        false
    }
}

/// Drain on a watcher thread (the reactor must keep running to deliver
/// the shutdown response and any open batch streams); optionally fan the
/// shutdown out to every node once the coordinator's own queue is dry.
fn begin_shutdown_async(coord: &Arc<Coordinator>, stopped: &Arc<AtomicBool>, fleet: bool) {
    if coord.draining() {
        return;
    }
    coord.begin_shutdown();
    let coord = Arc::clone(coord);
    let stopped = Arc::clone(stopped);
    std::thread::spawn(move || {
        coord.wait_drained();
        if fleet {
            coord.shutdown_fleet();
        }
        stopped.store(true, Ordering::SeqCst);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(nodes: &[&str]) -> CoordConfig {
        CoordConfig {
            nodes: nodes.iter().map(|s| s.to_string()).collect(),
            ..CoordConfig::default()
        }
    }

    fn body(text: &str) -> Json {
        Json::parse(text).expect("valid spec body")
    }

    #[test]
    fn home_is_a_stable_pure_function_of_the_digest() {
        assert_eq!(home_of("abc", 3), home_of("abc", 3));
        assert!(home_of("abc", 3) < 3);
        assert_eq!(home_of("anything", 1), 0);
        // Different digests spread (sanity, not a distribution claim).
        let spread: std::collections::BTreeSet<usize> =
            (0..32).map(|i| home_of(&format!("job-{i}"), 4)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn placement_names_round_trip() {
        for p in [Placement::Shard, Placement::RoundRobin, Placement::LeastLoaded] {
            assert_eq!(Placement::from_name(p.name()), Some(p));
        }
        assert_eq!(Placement::from_name("random"), None);
    }

    #[test]
    fn deep_home_steals_to_the_least_loaded_node() {
        let coord = Coordinator::new(CoordConfig {
            steal_depth: 1,
            placement: Placement::Shard,
            ..config(&["a:1", "b:2", "c:3"])
        });
        let id = "some-job";
        let home = home_of(id, 3);
        // Shallow home: stays put, no steal.
        let mut inner = coord.lock();
        assert_eq!(coord.choose_node(&mut inner, id), Some(home));
        assert_eq!(coord.metrics.counters()[15], ("steals", 0));
        // Home one deep: stolen to an idle node.
        coord.nodes[home].outstanding.store(1, Ordering::Relaxed);
        let chosen = coord.choose_node(&mut inner, id).unwrap();
        assert_ne!(chosen, home);
        assert_eq!(coord.metrics.counters()[15], ("steals", 1));
        // Dead home: failover, but not a steal.
        coord.nodes[home].outstanding.store(0, Ordering::Relaxed);
        coord.nodes[home].alive.store(false, Ordering::Relaxed);
        let chosen = coord.choose_node(&mut inner, id).unwrap();
        assert_ne!(chosen, home);
        assert_eq!(coord.metrics.counters()[15], ("steals", 1), "no second steal");
    }

    #[test]
    fn store_hits_answer_without_dispatch_and_classify_cross_node() {
        let coord = Coordinator::new(CoordConfig {
            placement: Placement::RoundRobin,
            ..config(&["a:1", "b:2"])
        });
        let spec = body(r#"{"kernel": "compress", "insts": 2000}"#);
        let id = JobSpec::from_json(&spec).unwrap().id();
        // Pretend node 1 computed it earlier; RR would target node 0 now.
        coord.store.insert(&id, "{\"rows\": []}", 1);
        let Ok(Submit::Deduped(got)) = coord.submit(&spec, None) else {
            panic!("store-backed submit must dedup");
        };
        assert_eq!(got, id);
        assert_eq!(coord.state(&id), Some(JobState::Done("{\"rows\": []}".to_string())));
        let c = coord.metrics.counters();
        assert_eq!(c[11], ("store_hits", 1));
        assert_eq!(c[12], ("store_cross_node_hits", 1));
        // Same producing node as the target: a hit, but not cross-node.
        let spec2 = body(r#"{"kernel": "compress", "insts": 2001}"#);
        let id2 = JobSpec::from_json(&spec2).unwrap().id();
        coord.store.insert(&id2, "{}", 0);
        assert!(matches!(coord.submit(&spec2, None), Ok(Submit::Deduped(_))));
        let c = coord.metrics.counters();
        assert_eq!(c[11], ("store_hits", 2));
        assert_eq!(c[12], ("store_cross_node_hits", 1));
    }

    #[test]
    fn submit_validates_dedups_and_bounds_the_queue() {
        let coord = Coordinator::new(CoordConfig { queue_cap: 1, ..config(&["a:1"]) });
        assert!(coord.submit(&body(r#"{"kernel": "spice"}"#), None).is_err());
        let spec = body(r#"{"kernel": "compress", "insts": 2000}"#);
        let Ok(Submit::Accepted(id)) = coord.submit(&spec, None) else {
            panic!("first submit must queue");
        };
        assert!(matches!(coord.submit(&spec, None), Ok(Submit::Deduped(d)) if d == id));
        let other = body(r#"{"kernel": "compress", "insts": 2001}"#);
        assert!(matches!(coord.submit(&other, None), Ok(Submit::QueueFull)));
        coord.begin_shutdown();
        assert!(matches!(coord.submit(&other, None), Ok(Submit::Draining)));
    }

    #[test]
    fn metrics_text_carries_fleet_gauges() {
        let coord = Coordinator::new(config(&["a:1", "b:2"]));
        coord.nodes[1].alive.store(false, Ordering::Relaxed);
        let text = coord.metrics_text();
        assert!(text.contains("smtx_coord_store_hits 0\n"));
        assert!(text.contains("smtx_coord_nodes_total 2\n"));
        assert!(text.contains("smtx_coord_nodes_alive 1\n"));
        assert!(text.contains("smtx_coord_node_alive_0 1\n"));
        assert!(text.contains("smtx_coord_node_alive_1 0\n"));
        assert!(text.contains("smtx_coord_queue_wait_ms_le_inf 0\n"));
    }
}
