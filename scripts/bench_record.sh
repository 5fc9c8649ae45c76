#!/usr/bin/env bash
# Runs every BENCHMARK.json workload once (seed 1, for its run_seconds) and
# appends one line per workload to results/BENCH_perfbench.jsonl:
#   {"commit": "<git describe>", "workload": "<w>", "result": <perfbench's
#    final stdout line, verbatim>}
# The workload list and duration come from BENCHMARK.json, never from here.
# Usage: scripts/bench_record.sh
set -euo pipefail
cd "$(dirname "$0")/.."
OUT=results/BENCH_perfbench.jsonl
COMMIT=$(git describe --always --dirty)
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in $WORKLOADS; do
    echo "=== $w ===" >&2
    RESULT=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds "$SECONDS_PER_RUN" | tail -n 1)
    # Refuse to append a line that is not a JSON object.
    python3 -c 'import json, sys; assert isinstance(json.loads(sys.argv[1]), dict)' "$RESULT"
    printf '{"commit": "%s", "workload": "%s", "result": %s}\n' "$COMMIT" "$w" "$RESULT" >> "$OUT"
done
echo "appended $(wc -w <<< "$WORKLOADS") rows -> $OUT" >&2
