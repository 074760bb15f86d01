#!/usr/bin/env bash
# Builds bench_pipeline, runs every workload of BENCHMARK.json untraced,
# then each once more traced, and collects the result files and Chrome
# traces in one directory.
#
#   pipeline_bench/run_benchmark.sh [results_dir] [seed ...]
#
# Defaults: bench_results/<commit>, seed 42. Several seeds give several
# untraced runs per workload (traced runs use the first seed); compare two
# directories with pipeline_bench/bench_diff.py. Exits non-zero if any run
# failed or produced a wrong output.
set -uo pipefail
cd "$(dirname "$0")/.."

BENCH_GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_GIT_SHA
results=${1:-bench_results/$BENCH_GIT_SHA}
shift || true
seeds=("$@")
[ ${#seeds[@]} -eq 0 ] && seeds=(42)

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

status=0
for seed in "${seeds[@]}"; do
  for w in $workloads; do
    python3 pipeline_bench/run.py --workload "$w" --seed "$seed" --trace 0 \
        --results "$results" || status=1
  done
done
for w in $workloads; do
  python3 pipeline_bench/run.py --workload "$w" --seed "${seeds[0]}" \
      --trace 1 --results "$results" || status=1
done
echo "results in $results" >&2
exit $status
