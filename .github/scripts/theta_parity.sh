#!/usr/bin/env bash
# Final-θ parity between this checkout and a checkout of the base commit.
#
# Usage (from the repository root):  .github/scripts/theta_parity.sh BASE_DIR
#
# At --seconds 1 both perfbench training workloads run a fixed step budget
# (520 and 8000 steps), so their final-θ digests are deterministic on one
# machine: a change that alters the fp32 arithmetic of a training step
# gives a digest that differs from the base commit's.  GA3C runs a fixed
# 600 steps through ga3c_theta.py, this checkout's copy in both trees.
# Every workload runs at seeds 1 and 7, since one seed can miss a change
# that only some trajectories reach.  Exits 0 when every digest matches
# and 1 when one differs.
set -euo pipefail
base_dir=$1
ga3c_script="$(cd "$(dirname "$0")" && pwd)/ga3c_theta.py"
run() {
  if [ "$1" = ga3c ]; then
    PYTHONPATH=src python3 "$ga3c_script" "$2"
  else
    python3 perfbench/run.py --workload "$1" --seed "$2" --seconds 1
  fi
}
for seed in 1 7; do
  for workload in a3c-scalar paac-batched ga3c; do
    head=$(run "$workload" "$seed" | grep '^# theta_digest:')
    base=$(cd "$base_dir" && run "$workload" "$seed" | grep '^# theta_digest:')
    echo "$workload, seed $seed: head ${head#*: }, base ${base#*: }"
    if [ "$head" != "$base" ]; then
      echo "final-θ digest of $workload at seed $seed differs from the base commit"
      exit 1
    fi
  done
done
