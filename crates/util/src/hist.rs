//! The one latency-histogram type behind every millisecond histogram in
//! the workspace: the runner's per-stage wall times, the cache shards'
//! lock waits, `smtxd`'s and the coordinator's queue-wait and execution
//! latencies, and the load generator's round trips.
//!
//! Eight relaxed atomic buckets: the first seven bounded above by
//! [`HIST_BOUNDS_MS`], the eighth unbounded. Observing is one increment,
//! so the type is safe to share across worker threads without a lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (milliseconds) of the first seven buckets of every
/// [`Hist`]; the eighth bucket is unbounded.
pub const HIST_BOUNDS_MS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// A concurrent [`HIST_BOUNDS_MS`]-shaped millisecond histogram.
#[derive(Debug, Default)]
pub struct Hist {
    buckets: [AtomicU64; 8],
}

impl Hist {
    /// Counts one observed duration (truncated to whole milliseconds).
    pub fn observe(&self, elapsed: Duration) {
        self.observe_ms(u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX));
    }

    /// Counts one observation of `ms` milliseconds.
    pub fn observe_ms(&self, ms: u64) {
        let idx = HIST_BOUNDS_MS.iter().position(|&b| ms <= b).unwrap_or(HIST_BOUNDS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The per-bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Appends this histogram to `out` in the cumulative form of
    /// [`render_buckets`].
    pub fn render(&self, out: &mut String, prefix: &str) {
        render_buckets(out, prefix, &self.snapshot());
    }
}

/// Renders per-bucket counts as cumulative `<prefix>_le_<bound> <count>`
/// lines (the format metric scrapers expect), ending with the unbounded
/// `_le_inf` total.
pub fn render_buckets(out: &mut String, prefix: &str, buckets: &[u64; 8]) {
    let mut total = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        total += count;
        match HIST_BOUNDS_MS.get(i) {
            Some(bound) => out.push_str(&format!("{prefix}_le_{bound} {total}\n")),
            None => out.push_str(&format!("{prefix}_le_inf {total}\n")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_inclusive_and_the_last_is_unbounded() {
        let h = Hist::default();
        for ms in [0, 1, 2, 4, 5, 4096, 4097, u64::MAX] {
            h.observe_ms(ms);
        }
        h.observe(Duration::from_secs(3600));
        assert_eq!(h.snapshot(), [2, 2, 1, 0, 0, 0, 1, 3]);
    }

    #[test]
    fn render_is_cumulative() {
        let h = Hist::default();
        h.observe(Duration::from_millis(0));
        h.observe(Duration::from_millis(100));
        h.observe(Duration::from_secs(3600));
        let mut out = String::new();
        h.render(&mut out, "x_ms");
        assert_eq!(
            out,
            "x_ms_le_1 1\nx_ms_le_4 1\nx_ms_le_16 1\nx_ms_le_64 1\nx_ms_le_256 2\n\
             x_ms_le_1024 2\nx_ms_le_4096 2\nx_ms_le_inf 3\n"
        );
    }
}
