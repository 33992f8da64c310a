#!/bin/sh
# Every workload, end-to-end then traced, each printing its metrics by name
# with units.  Run from the repository root:  sh perfbench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-24}
for workload in corpus search check-docs; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
