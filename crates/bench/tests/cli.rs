//! Every experiment binary must reject unknown flags loudly — exit code 2
//! plus a usage string — never silently ignore them. A silently ignored
//! typo (`--inst 500000`) would run the full default-budget experiment and
//! report it as the requested one.

use std::process::Command;

/// The nine experiment binaries (all share `smtx_bench::parse_args`).
const EXPERIMENT_BINS: [&str; 9] = [
    env!("CARGO_BIN_EXE_fig2"),
    env!("CARGO_BIN_EXE_fig3"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig5_asm"),
    env!("CARGO_BIN_EXE_fig6"),
    env!("CARGO_BIN_EXE_fig7"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_table3"),
    env!("CARGO_BIN_EXE_table4"),
];

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap_or_else(|e| {
        panic!("cannot run {bin}: {e}");
    });
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn experiment_bins_reject_unknown_flags_with_exit_2_and_usage() {
    for bin in EXPERIMENT_BINS {
        for args in [&["--inst", "5000"][..], &["--bogus"][..], &["extra"][..]] {
            let (code, stderr) = run(bin, args);
            assert_eq!(code, Some(2), "{bin} {args:?} must exit 2, stderr: {stderr}");
            assert!(
                stderr.contains("usage:"),
                "{bin} {args:?} must print usage, got: {stderr}"
            );
            assert!(
                stderr.contains("error:"),
                "{bin} {args:?} must name the error, got: {stderr}"
            );
        }
    }
}

#[test]
fn experiment_bins_reject_malformed_values_with_exit_2() {
    for bin in EXPERIMENT_BINS {
        let (code, stderr) = run(bin, &["--insts", "many"]);
        assert_eq!(code, Some(2), "{bin} --insts many must exit 2, stderr: {stderr}");
        assert!(stderr.contains("usage:"), "{bin}: {stderr}");
        let (code, stderr) = run(bin, &["--seed"]);
        assert_eq!(code, Some(2), "{bin} dangling --seed must exit 2, stderr: {stderr}");
        // Out-of-range budgets and the engine's reference-path seams, which
        // are not flags, are usage errors too.
        for args in [&["--insts", "0"][..], &["--checkpoint", "off"], &["--idle-skip", "off"]] {
            let (code, stderr) = run(bin, args);
            assert_eq!(code, Some(2), "{bin} {args:?} must exit 2, stderr: {stderr}");
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        }
    }
}
