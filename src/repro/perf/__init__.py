"""Wall-clock fast path: memoized stage plans for the simulators.

``repro.perf`` makes the harness faster **without changing any modelled
number**.  A stage schedule, DMA plan, and attribution template is a
pure function of (topology, batch, direction, platform config), so
:mod:`repro.perf.stageplan` computes each one once and
:class:`repro.fpga.simloop.FPGASim` replays it on every task.  The
golden digests in ``tests/test_sim_golden.py`` pin the replayed numbers
bit-for-bit, from a cold and a warm cache; ``BENCH_fa3c.json`` pins the
rounded bench view (IPS, bucket shares, latency distribution), which
``repro bench --check`` requires to be equal field for field.

``stageplan`` imports the FPGA timing model, which imports platform
modules that themselves consult this package — so its names are exposed
lazily (PEP 562), like :mod:`repro.obs.prof` does for its heavy
submodules.
"""

from repro.perf.hotpath import hot_path

#: Names resolved from :mod:`repro.perf.stageplan` on first access.
_STAGEPLAN_NAMES = ("CACHE", "PlanCache", "StagePlan", "TaskPlan",
                    "config_key", "task_plan")

__all__ = [
    "CACHE",
    "PlanCache",
    "StagePlan",
    "TaskPlan",
    "config_key",
    "hot_path",
    "task_plan",
]


def __getattr__(name: str):
    import importlib
    if name == "stageplan":
        return importlib.import_module("repro.perf.stageplan")
    if name in _STAGEPLAN_NAMES:
        module = importlib.import_module("repro.perf.stageplan")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
