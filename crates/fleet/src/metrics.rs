//! Coordinator counters behind `GET /metrics` (`smtx_coord_*` namespace).
//!
//! Same plaintext `name value` exposition and the same
//! [`Hist`] latency histograms as the per-node
//! `smtxd_*` metrics — one schema across the fleet, so the load
//! generator's quantile math ([`smtx_bench::runner::hist_quantile_ms`])
//! reads either surface unchanged.

use std::sync::atomic::{AtomicU64, Ordering};

use smtx_util::Hist;

/// Monotonic coordinator counters. All relaxed: observability only.
#[derive(Debug, Default)]
pub struct CoordMetrics {
    /// Requests that parsed as HTTP at all.
    pub http_requests: AtomicU64,
    /// Requests rejected as malformed (400).
    pub bad_requests: AtomicU64,
    /// Job submissions accepted for dispatch (202).
    pub jobs_accepted: AtomicU64,
    /// Submissions answered without dispatching (job table or store).
    pub jobs_deduped: AtomicU64,
    /// Jobs that finished with a result.
    pub jobs_completed: AtomicU64,
    /// Jobs that failed (node rejection, node error, or deadline).
    pub jobs_failed: AtomicU64,
    /// Submissions bounced because the dispatch queue was full (429).
    pub jobs_rejected_full: AtomicU64,
    /// Submissions bounced during shutdown (503).
    pub jobs_rejected_shutdown: AtomicU64,
    /// Jobs whose deadline expired before dispatch.
    pub deadline_expired: AtomicU64,
    /// Batch submissions accepted onto the stream (`POST /v1/batch`).
    pub batch_requests: AtomicU64,
    /// Individual job specs carried by batch submissions.
    pub batch_jobs: AtomicU64,
    /// Submissions answered from the shared result store (no dispatch).
    pub store_hits: AtomicU64,
    /// Store hits whose producing node differs from where placement would
    /// send the job now — one node's work reused in another's stead.
    pub store_cross_node_hits: AtomicU64,
    /// Results inserted into the shared store.
    pub store_insertions: AtomicU64,
    /// Results LRU-evicted from the shared store.
    pub store_evictions: AtomicU64,
    /// Jobs dispatched away from their home node because its outstanding
    /// count had reached the steal depth.
    pub steals: AtomicU64,
    /// Jobs re-queued after their node died or went unreachable mid-run.
    pub redispatches: AtomicU64,
    /// Queue-wait histogram: submission to dispatcher pickup.
    pub queue_wait_ms: Hist,
    /// Dispatch-latency histogram: dispatcher pickup to terminal state
    /// (covers forwarding, node execution and result fetch).
    pub exec_ms: Hist,
}

impl CoordMetrics {
    /// Increments one counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to one counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Every counter as `(name, value)`, in exposition order.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 17] {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("http_requests", load(&self.http_requests)),
            ("bad_requests", load(&self.bad_requests)),
            ("jobs_accepted", load(&self.jobs_accepted)),
            ("jobs_deduped", load(&self.jobs_deduped)),
            ("jobs_completed", load(&self.jobs_completed)),
            ("jobs_failed", load(&self.jobs_failed)),
            ("jobs_rejected_full", load(&self.jobs_rejected_full)),
            ("jobs_rejected_shutdown", load(&self.jobs_rejected_shutdown)),
            ("deadline_expired", load(&self.deadline_expired)),
            ("batch_requests", load(&self.batch_requests)),
            ("batch_jobs", load(&self.batch_jobs)),
            ("store_hits", load(&self.store_hits)),
            ("store_cross_node_hits", load(&self.store_cross_node_hits)),
            ("store_insertions", load(&self.store_insertions)),
            ("store_evictions", load(&self.store_evictions)),
            ("steals", load(&self.steals)),
            ("redispatches", load(&self.redispatches)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histograms_render_cumulatively() {
        let m = CoordMetrics::default();
        m.exec_ms.observe(Duration::from_millis(0));
        m.exec_ms.observe(Duration::from_millis(100));
        m.exec_ms.observe(Duration::from_secs(3600));
        let mut out = String::new();
        m.exec_ms.render(&mut out, "smtx_coord_exec_ms");
        assert!(out.contains("smtx_coord_exec_ms_le_1 1\n"));
        assert!(out.contains("smtx_coord_exec_ms_le_256 2\n"));
        assert!(out.contains("smtx_coord_exec_ms_le_4096 2\n"));
        assert!(out.contains("smtx_coord_exec_ms_le_inf 3\n"));
        assert_eq!(m.counters()[0], ("http_requests", 0));
    }
}
