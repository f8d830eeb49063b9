#!/usr/bin/env bash
# Measures the experiment wall clocks and records them (with a per-PR
# trajectory) in BENCH_fig5.json, BENCH_fig2.json, BENCH_fig7.json and
# BENCH_fig5_asm.json (the assembled-program corpus, run to HALT).
#
# That every engine mode prints identical rows is not re-checked here:
# tests/mode_matrix.rs holds it (run in tier-1 tests and CI).
#
# Timings (all covering the same SKIP+DETAILED instruction window):
#   idle_skip — fig5 --insts N: tier 2 only;
#   two_tier — fig5 --insts DETAILED --skip SKIP: tier 1 + tier 2, the
#              headline (rows differ from the above — the measurement
#              window moved — but are themselves mode-independent);
#   two_tier_check — the same window with --check on, so the pipeline
#              sanitizer's overhead stays visible (DESIGN.md §11).
#
# Every wall time is the median of 3 back-to-back runs (each history entry
# carries "runs": 3; entries without the tag predate this and were single
# samples).
#
# The recorded speedup compares two_tier against the wall time recorded by
# the previous PR in BENCH_fig5.json (the perf trajectory); a figure's
# first recording is its own baseline (speedup 1.0).
#
# Every run records under an explicit PR number (--pr N, required): history
# entries carry the PR that produced them, not their position in the list,
# so PRs that skip a measurement do not shift later labels. Re-running
# within the same PR replaces that PR's entry instead of appending. Each
# entry is labeled with the engine algorithm that PR ran (--algo overrides
# the default, which describes the current engine); entries whose speedup
# drops below 1.0 are flagged "regression": true, and the top-level
# best_wall_ms field tracks the fastest recording across the history.
#
# Usage: scripts/bench_summary.sh --pr N [--algo LABEL] [--insts N] [--skip N] [--detailed N] [--jobs N]
set -euo pipefail
cd "$(dirname "$0")/.."

INSTS=100000
SKIP=80000
DETAILED=20000
JOBS=0
PR=""
ALGO="interval-parallel chunked simulation (epoch-aligned checkpoint series), on the two-tier engine"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --insts) INSTS="$2"; shift 2 ;;
        --skip) SKIP="$2"; shift 2 ;;
        --detailed) DETAILED="$2"; shift 2 ;;
        --jobs) JOBS="$2"; shift 2 ;;
        --pr) PR="$2"; shift 2 ;;
        --algo) ALGO="$2"; shift 2 ;;
        *) echo "usage: $0 --pr N [--algo LABEL] [--insts N] [--skip N] [--detailed N] [--jobs N]" >&2; exit 2 ;;
    esac
done
if [[ -z "$PR" ]]; then
    echo "error: --pr N is required (the PR number this recording belongs to)" >&2
    echo "usage: $0 --pr N [--algo LABEL] [--insts N] [--skip N] [--detailed N] [--jobs N]" >&2
    exit 2
fi

cargo build --release -p smtx-bench

FAST=./target/release/fig5
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Each timing is the median of RUNS back-to-back executions: on a small
# box a single sample swings with scheduler noise, and a flagged
# "regression" should mean the code, not the neighbor VM.
RUNS=3
ms() { # ms <out-var> <cmd...>
    local __var=$1; shift
    local t0 t1 samples=()
    for _ in $(seq "$RUNS"); do
        t0=$(date +%s%N); "$@" > /dev/null; t1=$(date +%s%N)
        samples+=( $(( (t1 - t0) / 1000000 )) )
    done
    mapfile -t samples < <(printf '%s\n' "${samples[@]}" | sort -n)
    printf -v "$__var" '%d' "${samples[$(( RUNS / 2 ))]}"
}

echo "== timing fig5: idle skip / two tier =="
ms IDLE_MS  "$FAST" --insts "$INSTS" --jobs "$JOBS"
echo "idle_skip  (--insts $INSTS):                          ${IDLE_MS} ms"
ms TWO_MS   "$FAST" --insts "$DETAILED" --skip "$SKIP" --jobs "$JOBS" --json "$TMP/fig5.json"
echo "two_tier   (--insts $DETAILED --skip $SKIP):          ${TWO_MS} ms"
ms CHECK_MS "$FAST" --insts "$DETAILED" --skip "$SKIP" --jobs "$JOBS" --check on
echo "two_tier_check (same window, --check on):             ${CHECK_MS} ms"
# The interval-parallel timing uses the full INSTS window so the
# 4-interval request cuts four real chunks rather than the handful of
# epochs the DETAILED window would allow.
ms IPAR_MS  "$FAST" --insts "$INSTS" --jobs "$JOBS" --intervals 4
echo "interval_par (--insts $INSTS --intervals 4):          ${IPAR_MS} ms"

echo "== timing fig5_asm (assembled-program corpus, exact halting budgets) =="
ASM=./target/release/fig5_asm
ms ASM_MS "$ASM" --jobs "$JOBS" --json "$TMP/fig5_asm.json"
echo "fig5_asm   (corpus to HALT):                          ${ASM_MS} ms"
ms ASM_IPAR_MS "$ASM" --jobs "$JOBS" --intervals 4
echo "fig5_asm interval_par (--intervals 4):                ${ASM_IPAR_MS} ms"

echo "== timing fig2 and fig7 (two tier) =="
ms FIG2_MS ./target/release/fig2 --insts "$DETAILED" --skip "$SKIP" --jobs "$JOBS" --json "$TMP/fig2.json"
echo "fig2: two tier (--insts $DETAILED --skip $SKIP) ${FIG2_MS} ms"
ms FIG7_MS ./target/release/fig7 --insts "$DETAILED" --skip "$SKIP" --jobs "$JOBS" --json "$TMP/fig7.json"
echo "fig7: two tier (--insts $DETAILED --skip $SKIP) ${FIG7_MS} ms"

python3 - "$TMP" "$IDLE_MS" "$TWO_MS" "$FIG2_MS" "$FIG7_MS" "$CHECK_MS" "$IPAR_MS" "$PR" "$ALGO" "$RUNS" "$ASM_MS" "$ASM_IPAR_MS" <<'PY'
import json, os, sys

tmp = sys.argv[1]
idle_ms, two_ms, fig2_ms, fig7_ms, check_ms, ipar_ms, pr = map(int, sys.argv[2:9])
algo = sys.argv[9]
runs = int(sys.argv[10])
asm_ms, asm_ipar_ms = map(int, sys.argv[11:13])

def load(path):
    return json.load(open(path)) if os.path.exists(path) else None

def record(name, report, wall_ms, modes, algorithm):
    """Write BENCH_<name>.json, carrying forward the perf trajectory.

    Each history entry is keyed by the PR that recorded it (explicit --pr,
    never positional), labeled with that PR's engine algorithm. The speedup
    baseline is the latest earlier PR's recorded wall time; a figure
    measured for the first time is its own baseline. A re-run
    within one PR replaces that PR's entry. Entries slower than their
    baseline carry "regression": true, and best_wall_ms tracks the fastest
    wall time across the whole history.
    """
    out = f"BENCH_{name}.json"
    prev = load(out)
    history = [h for h in (prev or {}).get("history", []) if h.get("pr") != pr]
    baseline_ms = history[-1]["wall_ms"] if history else wall_ms
    speedup = round(baseline_ms / max(wall_ms, 1), 2)
    entry = {
        "pr": pr,
        "wall_ms": wall_ms,
        "algorithm": algorithm,
        "speedup": speedup,
        # Median-of-N recording: older entries without "runs" were single
        # samples.
        "runs": runs,
    }
    if speedup < 1.0:
        entry["regression"] = True
    history.append(entry)
    report["modes"] = modes
    report["history"] = history
    report["speedup"] = speedup
    report["best_wall_ms"] = min(h["wall_ms"] for h in history)
    json.dump(report, open(out, "w"), indent=2)
    open(out, "a").write("\n")
    note = " REGRESSION" if speedup < 1.0 else ""
    print(f"{out}: PR {pr}: {wall_ms} ms, {speedup}x vs previous recording ({baseline_ms} ms){note}")

record("fig5", load(f"{tmp}/fig5.json"), two_ms,
       {"idle_skip_ms": idle_ms, "two_tier_ms": two_ms,
        "two_tier_check_ms": check_ms, "interval_par_ms": ipar_ms}, algo)
record("fig2", load(f"{tmp}/fig2.json"), fig2_ms, {"two_tier_ms": fig2_ms}, algo)
record("fig7", load(f"{tmp}/fig7.json"), fig7_ms, {"two_tier_ms": fig7_ms}, algo)
record("fig5_asm", load(f"{tmp}/fig5_asm.json"), asm_ms,
       {"full_run_ms": asm_ms, "interval_par_ms": asm_ipar_ms}, algo)
PY
