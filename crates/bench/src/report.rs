//! Machine-readable experiment reports (`--json PATH`).
//!
//! The emitter is deliberately hand-rolled: the schema is flat, the values
//! are numbers and short ASCII labels, and keeping it dependency-free
//! matters more than generality. Non-finite floats serialize as `null` so
//! the output is always valid JSON.

use std::io::Write as _;
use std::time::Duration;

use crate::runner::RunnerStats;

/// One experiment's machine-readable summary.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment name (e.g. `fig5`).
    pub experiment: String,
    /// Requested per-thread instruction budget.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// Worker-pool size used.
    pub jobs: usize,
    /// Tier-1 fast-forward length (instructions per thread).
    pub skip: u64,
    /// Whether the per-workload checkpoint cache was enabled.
    pub checkpoint: bool,
    /// Whether tier-2 idle-cycle skipping was enabled.
    pub idle_skip: bool,
    /// Interval-parallel chunk count (1 = monolithic). Scheduling only —
    /// the rows are identical for every value.
    pub intervals: u64,
    /// Whether the `--check` pipeline sanitizer was enabled.
    pub check: bool,
    /// Wall-clock for the whole experiment.
    pub wall: Duration,
    /// Cache counters from the runner.
    pub runner: RunnerStats,
    /// Column labels, matching each row's cell order.
    pub columns: Vec<String>,
    /// `(label, cells)` rows as printed.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Report {
    /// Creates an empty report for `experiment`.
    #[must_use]
    pub fn new(experiment: &str, insts: u64, seed: u64, jobs: usize) -> Report {
        Report {
            experiment: experiment.to_string(),
            insts,
            seed,
            jobs,
            ..Report::default()
        }
    }

    /// Records one printed row.
    pub fn push_row(&mut self, label: &str, cells: &[f64]) {
        self.rows.push((label.to_string(), cells.to_vec()));
    }

    /// Serializes the report as a JSON object.
    ///
    /// This is the *one* result serializer: experiment binaries write it via
    /// `--json`, and `smtxd` returns exactly the same shape as a job result,
    /// so `scripts/bench_summary.sh` and the service read identical fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"experiment\": {},\n", json_str(&self.experiment)));
        s.push_str(&format!("  \"insts\": {},\n", self.insts));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"skip\": {},\n", self.skip));
        s.push_str(&format!("  \"checkpoint\": {},\n", self.checkpoint));
        s.push_str(&format!("  \"idle_skip\": {},\n", self.idle_skip));
        s.push_str(&format!("  \"intervals\": {},\n", self.intervals.max(1)));
        s.push_str(&format!("  \"check\": {},\n", self.check));
        s.push_str(&format!("  \"wall_ms\": {},\n", json_f64(self.wall.as_secs_f64() * 1e3)));
        s.push_str(&runner_stats_json(&self.runner, 2));
        s.push_str(&format!(
            "  \"cycles_per_second\": {},\n",
            json_f64(self.runner.sim_cycles as f64 / self.wall.as_secs_f64().max(1e-9))
        ));
        s.push_str(&self.rows_json());
        s.push_str("}\n");
        s
    }

    /// The `"columns"`/`"rows"` tail of [`Report::to_json`], exposed
    /// separately so the service integration tests and the `serve-smoke` CI
    /// job can assert byte-identity of served rows against a figure
    /// binary's `--json` output without comparing wall clocks or cache
    /// counters.
    #[must_use]
    pub fn rows_json(&self) -> String {
        let mut s = String::from("  \"columns\": [");
        s.push_str(
            &self
                .columns
                .iter()
                .map(|c| json_str(c))
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str("],\n  \"rows\": [\n");
        for (i, (label, cells)) in self.rows.iter().enumerate() {
            let cells_json = cells.iter().map(|&c| json_f64(c)).collect::<Vec<_>>().join(", ");
            s.push_str(&format!(
                "    {{\"label\": {}, \"cells\": [{}]}}{}\n",
                json_str(label),
                cells_json,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s
    }

    /// Writes the report to `path`.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — an experiment whose requested
    /// output vanishes should fail loudly.
    pub fn write(&self, path: &std::path::Path) {
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        f.write_all(self.to_json().as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

/// Serializes the [`RunnerStats`] counters as JSON object members (one
/// per line, trailing commas included), indented by `indent` spaces. Both
/// [`Report::to_json`] and the `smtxd` `/metrics`-adjacent JSON endpoints
/// emit their cache counters through this one function, so the field names
/// can never drift apart.
#[must_use]
pub fn runner_stats_json(stats: &RunnerStats, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let mut s = String::new();
    for (name, value) in runner_stats_fields(stats) {
        s.push_str(&format!("{pad}\"{name}\": {value},\n"));
    }
    for (name, buckets) in runner_hist_fields(stats) {
        s.push_str(&format!("{pad}\"{name}\": {},\n", hist_json(&buckets)));
    }
    s
}

/// The `(name, buckets)` pairs of the per-stage wall-time histograms, in
/// serialized order (bucket upper bounds in
/// [`smtx_util::HIST_BOUNDS_MS`], last bucket unbounded). The plaintext
/// `/metrics` endpoint renders these as cumulative `_le_` counters, so it
/// exposes exactly the histograms [`runner_stats_json`] writes.
#[must_use]
pub fn runner_hist_fields(stats: &RunnerStats) -> [(&'static str, [u64; 8]); 4] {
    [
        ("checkpoint_ms_hist", stats.checkpoint_ms_hist),
        ("sim_ms_hist", stats.sim_ms_hist),
        ("ref_ms_hist", stats.ref_ms_hist),
        ("lock_wait_ms_hist", stats.lock_wait_ms_hist),
    ]
}

fn hist_json(buckets: &[u64; 8]) -> String {
    let cells = buckets.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ");
    format!("[{cells}]")
}

/// The `(name, value)` pairs of the [`RunnerStats`] counters, in serialized
/// order — the plaintext `/metrics` endpoint renders these, so it exposes
/// exactly the fields [`runner_stats_json`] writes.
#[must_use]
pub fn runner_stats_fields(stats: &RunnerStats) -> [(&'static str, u64); 5] {
    [
        ("unique_runs", stats.unique_runs),
        ("cache_hits", stats.cache_hits),
        ("checkpoint_hits", stats.checkpoint_hits),
        ("sim_cycles", stats.sim_cycles),
        ("checkpoint_bytes", stats.checkpoint_bytes),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            // lint:allow(no-silent-narrowing): char to codepoint, lossless.
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_to_valid_shape() {
        let mut r = Report::new("fig5", 1000, 42, 4);
        r.columns = vec!["a".into(), "b".into()];
        r.push_row("compress", &[1.5, f64::NAN]);
        r.wall = Duration::from_millis(125);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"fig5\""));
        assert!(json.contains("\"cells\": [1.5, null]"));
        assert!(json.contains("\"wall_ms\": 125"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn metrics_fields_and_report_json_share_names_and_values() {
        let stats = RunnerStats {
            unique_runs: 11,
            cache_hits: 22,
            checkpoint_hits: 33,
            sim_cycles: 44,
            checkpoint_bytes: 66,
            checkpoint_ms_hist: [1, 2, 3, 4, 5, 6, 7, 8],
            sim_ms_hist: [8, 7, 6, 5, 4, 3, 2, 1],
            ref_ms_hist: [0, 0, 9, 0, 0, 0, 0, 1],
            lock_wait_ms_hist: [55, 0, 0, 0, 0, 0, 0, 2],
        };
        let json = runner_stats_json(&stats, 2);
        for (name, value) in runner_stats_fields(&stats) {
            assert!(
                json.contains(&format!("\"{name}\": {value}")),
                "field {name} missing from {json}"
            );
        }
        for (name, buckets) in runner_hist_fields(&stats) {
            assert!(
                json.contains(&format!("\"{name}\": {}", hist_json(&buckets))),
                "histogram {name} missing from {json}"
            );
        }
        let mut r = Report::new("x", 1, 2, 3);
        r.runner = stats;
        assert!(r.to_json().contains(&runner_stats_json(&stats, 2)), "report embeds the shared fragment");
        assert!(r.to_json().ends_with(&format!("{}}}\n", r.rows_json())), "rows fragment is the tail");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("tab\there"), "\"tab\\u0009here\"");
    }
}
