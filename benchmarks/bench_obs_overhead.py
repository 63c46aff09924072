"""Telemetry-overhead timing for the wall-clock fast path.

The fast path hoists the ``REPRO_OBS`` gate out of the simulator's inner
loops: each task binds to either a bare replay body or an observing one
*once*, so with telemetry disabled the hot loops neither branch on the
gate per stage nor touch any :mod:`repro.obs` object.  The tracemalloc
audit that pins the "touch no repro.obs object" half lives in
``tests/test_obs_overhead.py``; this bench times the same scenario with
telemetry off vs on — recording cycle attribution is expected to cost
real time, which is exactly why the disabled path must stay free of it.
"""

import time

from repro import obs
from repro.fpga.platform import FA3CPlatform
from repro.platforms import ThroughputSetup

OFF_RUNS = 5


def test_obs_gate_hoisted_out_of_hot_loop(benchmark, topology, show):
    """Telemetry-off runs are markedly faster than telemetry-on runs.

    The margin is what the hoisted gate buys: attribution recording
    (counter cells, spans) happens only on the observing task bodies.
    The telemetry-off time is the best of this test's own runs, so the
    ratio is asserted under ``--benchmark-disable`` too.
    """
    setup = ThroughputSetup(FA3CPlatform.fa3c(topology))

    def measure():
        started = time.perf_counter()
        setup.measure(8, routines_per_agent=10)
        return time.perf_counter() - started

    measure()                                    # warm the plan caches
    benchmark(measure)
    disabled_seconds = min(measure() for _ in range(OFF_RUNS))

    with obs.enabled_scope(reset=True):
        measure()                                # warm observing bodies
        enabled_seconds = measure()
    ratio = enabled_seconds / disabled_seconds
    show(f"fa3c-n8 (10 routines/agent): telemetry off "
         f"{disabled_seconds * 1e3:.1f} ms, on {enabled_seconds * 1e3:.1f}"
         f" ms -> {ratio:.2f}x overhead when observing")
    # If the disabled path regressed to paying attribution costs the two
    # times converge; the observing path costs well over this bound.
    assert ratio > 1.2
