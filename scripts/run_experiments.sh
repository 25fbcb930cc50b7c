#!/usr/bin/env bash
# Regenerates every table/figure/ablation and stores the outputs in results/.
#
# Usage: scripts/run_experiments.sh [--jobs N] [--quick]
#
#   --jobs N   worker threads per bench binary (default: available
#              parallelism). The worker count never changes results:
#              results/<name>.json is byte-identical for every N.
#   --quick    reduced grid (a representative subset of binaries) — used
#              by the CI determinism job, which diffs a --jobs 2 run
#              against a --jobs 1 run.
#
# Each bench binary drops a deterministic sweep artifact at
# results/<name>.json and a telemetry snapshot (JSON lines, includes
# wall-clock timings, NOT determinism-checked) at
# results/telemetry_<name>.json; this script verifies both landed and
# aborts on the first binary that exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=0
QUICK=0
while [[ $# -gt 0 ]]; do
  case $1 in
    --jobs|-j) JOBS=${2:?--jobs takes a worker count}; shift 2 ;;
    --quick)   QUICK=1; shift ;;
    *) echo "usage: $0 [--jobs N] [--quick]" >&2; exit 2 ;;
  esac
done

mkdir -p results

fail() {
  echo "error: $*" >&2
  exit 1
}

# Runs one bench binary, teeing stdout to results/$out.txt and checking
# that its sweep artifact results/$snap.json and telemetry snapshot
# results/telemetry_$snap.json were (re)written.
run_bench() {
  local bin=$1 out=$2 snap=$3
  shift 3
  local artifact="results/$snap.json"
  local snapshot="results/telemetry_$snap.json"
  rm -f "$artifact" "$snapshot"
  echo "=== $out ==="
  cargo run --quiet --release -p espread-bench --bin "$bin" -- --jobs "$JOBS" "$@" \
    | tee "results/$out.txt" \
    || fail "$bin exited non-zero"
  [[ -s $artifact ]] || fail "$bin did not write $artifact"
  [[ -s $snapshot ]] || fail "$bin did not write $snapshot"
}

if [[ $QUICK -eq 1 ]]; then
  # The CI determinism subset: cheap binaries spanning the executor's
  # shapes — pure-search grids, session sweeps, and the adaptive loop
  # (whose snapshot must show order-cache hits).
  bins=(
    fig1_metrics table2_ibo_vs_cpo fig12_buffer_sweep ablation_timing
    extension_multi_burst ablation_adaptation
  )
else
  bins=(
    fig1_metrics table1_example theorem1_validation fig3_layered_order
    table2_ibo_vs_cpo fig11_bandwidth_sweep fig12_buffer_sweep
    orthogonality_blocks ablation_adaptation ablation_timing
    ablation_loss_models extension_multi_burst extension_concealment
    extension_stochastic_orders movie_sweep net_loopback chaos_soak
    timeline
  )
fi
for bin in "${bins[@]}"; do
  run_bench "$bin" "$bin" "$bin"
done
# The spreading x FEC frontier streams real UDP sessions but writes a
# deterministic artifact, so it joins the determinism surface in both
# grids (the quick subset sweeps its reduced seed set).
if [[ $QUICK -eq 1 ]]; then
  run_bench fec_frontier fec_frontier fec_frontier --quick
else
  run_bench fec_frontier fec_frontier fec_frontier
fi
if [[ $QUICK -eq 0 ]]; then
  # Timing-derived artifacts (sessions/sec, RTT percentiles, hot-path
  # ratios) — excluded from the --quick determinism subset on purpose.
  # Each of these binaries checks its fresh numbers against the pinned
  # gate table (crates/bench/src/gate.rs) and exits non-zero on a
  # regression. net_c10k's default wave matches the CI net-c10k job.
  run_bench net_c10k net_c10k net_c10k
  # Overload wave: 2x the admission cap; also asserts its hard
  # invariants (cap respected, zero critical shed, all reaped).
  run_bench net_overload net_overload net_overload
  # Hot-path microbench: pure CPU, no telemetry snapshot, so it
  # bypasses run_bench.
  echo "=== bench_hotpath ==="
  cargo run --quiet --release -p espread-bench --bin bench_hotpath \
    | tee results/bench_hotpath.txt \
    || fail "bench_hotpath exited non-zero"
  # The chaos_soak binary also writes the overload regime's separate
  # deterministic report.
  [[ -s results/chaos_overload.json ]] \
    || fail "chaos_soak did not write results/chaos_overload.json"
fi
if [[ $QUICK -eq 0 ]]; then
  for pbad in 0.6 0.7; do
    run_bench fig8_network_loss "fig8_pbad_$pbad" "fig8_pbad_$pbad" --pbad "$pbad"
  done
  echo "=== generate_report ==="
  cargo run --quiet --release -p espread-bench --bin generate_report -- --jobs "$JOBS" > /dev/null \
    || fail "generate_report exited non-zero"

  # Every flight-recorder dump the soak and timeline binaries left in
  # results/ must reconstruct cleanly: all residual losses attributed,
  # no causality violations.
  echo "=== timeline --check ==="
  dumps=(results/timeline_*.jsonl)
  [[ -s ${dumps[0]} ]] || fail "no flight-recorder dumps (timeline_*.jsonl) in results/"
  cargo run --quiet --release -p espread-bench --bin timeline -- --check "${dumps[@]}" \
    || fail "timeline reconstruction failed on recorded dumps"
  echo "validated ${#dumps[@]} flight-recorder dump(s)"
fi

count=$(ls results/telemetry_*.json 2>/dev/null | wc -l)
echo "All experiment outputs written to results/ ($count telemetry snapshots)."
