#!/usr/bin/env bash
# Final-θ parity between this checkout and a checkout of the base commit.
#
# Usage (from the repository root):  .github/scripts/theta_parity.sh BASE_DIR
#
# At --seconds 1 both perfbench training workloads run a fixed step budget
# (520 and 8000 steps at seed 1), so their final-θ digests are
# deterministic on one machine: a change that alters the fp32 arithmetic
# of a training step gives a digest that differs from the base commit's.
# Exits 0 when both digests match and 1 when one differs.
set -euo pipefail
base_dir=$1
for workload in a3c-scalar paac-batched; do
  head=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 | grep '^# theta_digest:')
  base=$(cd "$base_dir" && python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 | grep '^# theta_digest:')
  echo "$workload: head ${head#*: }, base ${base#*: }"
  if [ "$head" != "$base" ]; then
    echo "final-θ digest of $workload differs from the base commit"
    exit 1
  fi
done
