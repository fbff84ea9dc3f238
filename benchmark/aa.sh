#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on the same tree and holds the
# second results file against the first under BENCHMARK.json's bounds. Two
# sets of runs of the same code must agree; if they do not, the host is
# too noisy to judge a change on and nothing measured on it counts. Run it
# before proposing any change that claims a gain, then run it again with
# the parent's results as the first file.
#
#   benchmark/aa.sh [seed]      writes benchmark/results/aa-{a,b}.json
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
for side in a b; do
    bash benchmark/run.sh -seed "$seed" -out "benchmark/results/aa-$side" | grep -E '^#|failed_share'
done
bash benchmark/run.sh -compare benchmark/results/aa-a.json benchmark/results/aa-b.json
