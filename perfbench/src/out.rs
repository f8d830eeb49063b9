//! The result line, metric catalog, and order statistics.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("ok_share", "ratio"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("ff.capture_s", "s"),
    ("ff.capture_insts", "count"),
    ("ff.ns_per_inst", "ns"),
    ("ref.sweep_s", "s"),
    ("ref.insts", "count"),
    ("ck.restore_s", "s"),
    ("ck.restores", "count"),
    ("ck.bytes", "bytes"),
    ("cycle.loop_s", "s"),
    ("cycle.machine_new_s", "s"),
    ("cycle.machine_drop_s", "s"),
    ("cycle.sims", "count"),
    ("cycle.stepped", "count"),
    ("cycle.skipped", "count"),
    ("cycle.skip_share", "ratio"),
    ("cycle.ns_per_stepped", "ns"),
    ("cycle.ns_per_retired", "ns"),
    ("cycle.fetched", "count"),
    ("cycle.issued", "count"),
    ("cycle.squashed", "count"),
    ("cycle.retired_user", "count"),
    ("cycle.retired_pal", "count"),
    ("cycle.useful_share", "ratio"),
    ("cycle.handler_active_cycles", "count"),
    ("runner.unique_runs", "count"),
    ("runner.cache_hits", "count"),
    ("runner.hit_share", "ratio"),
    ("runner.checkpoint_hits", "count"),
    ("runner.lock_waits_slow", "count"),
    ("runner.pool_idle_share", "ratio"),
    ("report.to_json_s", "s"),
    ("report.bytes", "bytes"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.fleet_share", "ratio"),
    ("serve.deduped", "count"),
    ("serve.rejected", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.failed", "count"),
    ("fleet.store_hits", "count"),
    ("fleet.cross_node_hits", "count"),
    ("fleet.steals", "count"),
    ("fleet.redispatches", "count"),
    ("fleet.node_imbalance", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("ledger.wall_s", "s"),
    ("ledger.residual_s", "s"),
    ("ledger.unique_points", "count"),
    ("layer.core.refmodel.share", "ratio"),
    ("layer.core.checkpoint.share", "ratio"),
    ("layer.core.machine.share", "ratio"),
    ("layer.bench.report.share", "ratio"),
    ("layer.core.refmodel.self_s", "s"),
    ("layer.core.checkpoint.self_s", "s"),
    ("layer.core.machine.self_s", "s"),
];

/// Named metric values of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value` (replacing an earlier value of `name`).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite: every printed number must be valid
    /// JSON, and a NaN here is a bug in the benchmark's arithmetic.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Serializes exactly the catalog entries, in catalog order, each with
    /// its unit; a catalog metric that was not recorded prints as 0.
    #[must_use]
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> String {
        let body: Vec<String> = catalog
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line of a run's standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` of `xs` (0 for an empty slice).
#[must_use]
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn result_line_lists_every_catalog_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.25);
        let line = result_line(true, 3, 0, &m.to_json(&END_TO_END));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }
}
