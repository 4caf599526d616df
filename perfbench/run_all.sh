#!/usr/bin/env bash
# Run every workload untraced and traced at one seed; exit non-zero on any failure.
#   bash perfbench/run_all.sh [SEED] [SECONDS]
set -u
seed="${1:-0}"
seconds="${2:-30}"
status=0
for workload in session exact search; do
    for trace in 0 1; do
        echo "== ${workload} trace=${trace} seed=${seed}"
        python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"
