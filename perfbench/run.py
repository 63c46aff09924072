"""Host-performance benchmark: training steps/s and simulator routines/s.

Run from the repository root::

    python3 perfbench/run.py --workload a3c-scalar --seed 1 --seconds 15

``--workload`` is one of ``a3c-scalar``, ``paac-batched`` and
``sim-matrix`` (see ``perfbench/workloads.py`` and ``BENCHMARK.json``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced window and prints the per-layer metrics, with the
tracing overhead between the two.  Times are host time on the calibrated
clock of ``perfbench/gauge.py``, which takes the shared machine's changing
speed out of them; the wall-clock rate is printed as a comment line.
The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.

Human-readable lines come first.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "BENCH_fa3c.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("a3c-scalar", "paac-batched", "sim-matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SNAPSHOT.is_file():
        print(f"perfbench: no repro source tree or {SNAPSHOT.name} under "
              f"{ROOT}", file=sys.stderr)
        return 2
    # The workloads are single-threaded: keep BLAS to one thread, set
    # before numpy loads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from repro.obs import runtime as obs_runtime
    from perfbench import workloads

    obs_runtime.disable()
    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            traced=bool(args.trace),
                            expected_ips=workloads.load_expected_ips(
                                SNAPSHOT))
    units = (workloads.per_layer_units() if args.trace
             else workloads.END_TO_END_UNITS)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, value in outcome.recorded.items():
        print(f"# {name}: {value}")
    for name, unit in units.items():
        print(f"{name:34s} {outcome.metrics[name]:>14.6g} {unit}")
    failed_frac = outcome.failed / outcome.attempted
    print(f"{'failed_frac':34s} {failed_frac:>14.6g} "
          f"({outcome.failed}/{outcome.attempted} checks)")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
