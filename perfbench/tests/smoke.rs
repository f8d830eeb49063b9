//! Smoke tests of the benchmark itself, at tiny budgets: metric and
//! workload names, the correctness gate, the replay, and ledger closure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use smtx_bench::{figures, Args, Experiment};
use smtx_perfbench::figure::{self, Figure, FIGURES};
use smtx_perfbench::out::{END_TO_END, PER_LAYER};
use smtx_perfbench::replay::Replay;
use smtx_perfbench::served::{self, Spec};
use smtx_perfbench::spans::Tracer;
use smtx_perfbench::WORKLOADS;
use smtx_serve::Json;
use smtx_workloads::Kernel;

/// A name the benchmark contract accepts: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit the benchmark contract accepts: at most 16 letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_and_workload_names_are_valid_and_match_benchmark_json() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "metric {name} listed twice");
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
    let json = benchmark_json();
    let catalog = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), catalog(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), catalog(&PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    for w in WORKLOADS {
        assert!(valid_name(w));
    }
}

#[test]
fn every_golden_block_is_present() {
    for fig in FIGURES {
        let rows = figure::golden(fig.name).expect("golden rows");
        assert!(
            rows.starts_with("  \"columns\": [") && rows.ends_with("  ]\n"),
            "{rows}"
        );
    }
    assert!(
        figure::golden("tiny").is_none(),
        "unknown workloads have no golden"
    );
    let universe = served::universe();
    assert_eq!(universe.len(), 64);
    for spec in universe {
        let rows = served::golden(spec).expect("served golden rows");
        assert!(rows.ends_with("  ]\n"), "{rows}");
    }
}

/// A Fig. 7 run small enough for a test: mixes take no budget scaling.
const TINY_FIG7: Figure = Figure {
    name: "tiny",
    experiment: "fig7",
    insts: 1_500,
    skip: 0,
};

#[test]
fn the_gate_fires_on_a_corrupted_golden_row() {
    let pass = figure::run_pass(&TINY_FIG7, 42);
    let rows = pass.report.rows_json();
    assert!(figure::rows_match(Some(&rows), &pass.report));
    // Change one digit of the first mix row.
    let at = rows.find("\"cells\": [").expect("a row") + "\"cells\": [".len();
    let mut corrupted = rows.clone().into_bytes();
    corrupted[at] = if corrupted[at] == b'9' { b'8' } else { b'9' };
    let corrupted = String::from_utf8(corrupted).expect("ascii");
    assert!(!figure::rows_match(Some(&corrupted), &pass.report));
    assert!(
        !figure::rows_match(None, &pass.report),
        "a missing golden fails too"
    );

    let spec = Spec {
        kernel: Kernel::Compress,
        seed: 1,
        config: 0,
    };
    let golden = served::golden(spec).expect("golden row");
    let mut tracer = Tracer::new(false);
    let (rows, _) = served::expected(&mut Replay::new(&mut tracer, 0), &[spec]);
    assert_eq!(rows[0], golden, "in-process rows equal the captured ones");
    let served_bytes = format!(
        "{{\n  \"experiment\": \"run\",\n  \"insts\": {},\n  \"seed\": 1,\n  \"wall_ms\": 1.5,\n{golden}}}\n",
        served::INSTS
    );
    assert!(served::served_matches(spec, golden, &served_bytes));
    let wrong = served_bytes.replacen("\"cells\": [", "\"cells\": [1", 1);
    assert!(!served::served_matches(spec, golden, &wrong));
}

#[test]
fn paper_ordering_check() {
    let mut report = smtx_bench::Report::new("fig5", 1, 1, 1);
    report.push_row("average", &[20.0, 12.0, 11.0, 7.0]);
    assert!(figure::ordering_holds("fig5", &report));
    report.rows[0].1 = vec![20.0, 12.0, 13.0, 7.0];
    assert!(
        !figure::ordering_holds("fig5", &report),
        "multi(3) above multi(1)"
    );
    report.rows[0].1 = vec![20.0, 12.0, 11.0, 11.5];
    assert!(
        !figure::ordering_holds("fig5", &report),
        "hardware not cheapest"
    );
}

#[test]
fn traced_replay_reproduces_the_runner_and_its_ledger_closes() {
    let args = Args {
        insts: TINY_FIG7.insts,
        seed: 42,
        jobs: 2,
        ..Args::default()
    };
    let mut exp = Experiment::with_args("fig7", args).quiet();
    figures::fig7(&mut exp);
    let report = exp.into_report();

    let mut tracer = Tracer::new(true);
    let replay = figure::replay_figure(&TINY_FIG7, 42, &mut tracer);
    assert_eq!(
        replay.report.rows_json(),
        report.rows_json(),
        "stats-derived rows equal"
    );
    assert_eq!(
        replay.unique_points as u64, report.runner.unique_runs,
        "same unique points"
    );
    let ledger = tracer.ledger();
    assert!(ledger.closes(), "{ledger:?}");
    assert_eq!(ledger.dominant(), Some("core.machine"));
    assert!(ledger.layers.contains_key("core.refmodel"));
    assert!(ledger.layers.contains_key("bench.report"));
}

#[test]
fn served_streams_are_seeded_and_balanced() {
    let a = served::stream(7, 1_000);
    assert_eq!(a, served::stream(7, 1_000), "same seed, same stream");
    assert_ne!(
        a.specs,
        served::stream(8, 1_000).specs,
        "another seed, another stream"
    );
    let fresh = a.repeat.iter().filter(|&&r| !r).count();
    assert_eq!(
        fresh,
        served::universe().len(),
        "every spec is sent fresh once"
    );
    assert!(
        a.repeat[..5].iter().all(|&r| !r),
        "the stream opens with fresh jobs"
    );
    let mut fresh_so_far = Vec::new();
    for (spec, &repeat) in a.specs.iter().zip(&a.repeat) {
        if repeat {
            let settled = &fresh_so_far[..fresh_so_far.len() - 4];
            assert!(
                settled.contains(spec),
                "a repeat names a settled earlier spec"
            );
        } else {
            assert!(!fresh_so_far.contains(spec), "a fresh spec is new");
            fresh_so_far.push(*spec);
        }
    }
    for k in Kernel::ALL {
        let n = a
            .specs
            .iter()
            .zip(&a.repeat)
            .filter(|(s, &r)| !r && s.kernel == k)
            .count();
        assert_eq!(n, 8, "{k:?}: every kernel gets its 8 fresh specs");
    }
}
