//! Command line of the repository benchmark.
//!
//! ```text
//! smtx-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! smtx-perfbench golden WORKLOAD
//! ```
//!
//! The first form runs one workload and prints its result as the last line
//! of standard output. The second prints the golden rows of a workload (a
//! figure's rows, or those of every spec the served stream can draw) in the
//! format `golden/*.txt` holds; it is how those files were captured.

use std::process::ExitCode;

use smtx_perfbench::figure::{self, FIGURES};
use smtx_perfbench::out::{result_line, END_TO_END, PER_LAYER};
use smtx_perfbench::replay::Replay;
use smtx_perfbench::served;
use smtx_perfbench::spans::Tracer;

const USAGE: &str = "usage: smtx-perfbench --workload NAME --seed N --seconds S --trace 0|1\n       smtx-perfbench golden WORKLOAD";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn golden(workload: &str) -> Result<(), String> {
    if workload == "served" {
        let universe = served::universe();
        let mut tracer = Tracer::new(false);
        let (rows, _) = served::expected(&mut Replay::new(&mut tracer, 0), &universe);
        for (spec, rows) in universe.iter().zip(&rows) {
            print!("{}", figure::golden_block(&served::golden_key(*spec), rows));
        }
        return Ok(());
    }
    let fig = FIGURES
        .iter()
        .find(|f| f.name == workload)
        .ok_or_else(|| format!("`{workload}` is not a figure workload"))?;
    let pass = figure::run_pass(fig, figure::KERNEL_SEED);
    print!(
        "{}",
        figure::golden_block(&figure::golden_key(), &pass.report.rows_json())
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("golden") {
        return match argv.get(1).map(|w| golden(w)) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
            None => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match smtx_perfbench::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.info {
        println!("{line}");
    }
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics.to_json(catalog)
        )
    );
    ExitCode::SUCCESS
}
