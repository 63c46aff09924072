"""Heap entries per simulator run, one committed count per golden config.

``tests/test_sim_golden.py`` pins what a run models, but not what it
costs: a queue hop that changes no event order leaves every digest
equal while the engine pops one more entry for it.  This file pins the
number of entries one :meth:`ThroughputSetup.measure` schedules (every
heap entry takes one engine sequence number) for each golden config at
8 agents, ``t_max=5`` and 8 routines per agent, with telemetry off.

A change that adds or removes a hop on purpose updates the count here
and says in CHANGES.md why it moved.
"""

import pytest

from repro import obs
from tests.test_sim_golden import CONFIGS, ROUTINES, T_MAX, _build_setup

AGENTS = 8

#: config -> heap entries of one measurement at :data:`AGENTS` agents.
HEAP_ENTRIES = {
    "fa3c-fpga": 9532,
    "fa3c-single-cu": 9305,
    "fa3c-alt1": 9484,
    "fa3c-alt2": 9662,
    "fa3c-fp16": 9340,
    "fa3c-int8": 9211,
    "a3c-cudnn": 1422,
    "a3c-tf-gpu": 1424,
    "a3c-tf-cpu": 1424,
    "ga3c-tf": 937,
    "fa3c-fpga-nodb": 6626,
    "fa3c-fpga-one-pair": 9383,
    "ga3c-tf-batched": 937,
}


def test_table_covers_every_golden_config():
    assert set(HEAP_ENTRIES) == set(CONFIGS)


@pytest.mark.parametrize("config", sorted(HEAP_ENTRIES))
def test_heap_entries(config, monkeypatch):
    obs.disable()
    setup = _build_setup(config)
    build_sim = setup.platform.build_sim
    engines = []

    def capture(engine, *args, **kwargs):
        engines.append(engine)
        return build_sim(engine, *args, **kwargs)

    monkeypatch.setattr(setup.platform, "build_sim", capture)
    setup.measure(AGENTS, t_max=T_MAX, routines_per_agent=ROUTINES)
    (engine,) = engines
    expected = HEAP_ENTRIES[config]
    assert engine._sequence == expected, (
        f"HEAP_ENTRIES[{config!r}]: one run at {AGENTS} agents scheduled "
        f"{engine._sequence} heap entries, committed {expected}.  If the "
        "change adds or removes a queue hop on purpose, update the count "
        "and explain why in CHANGES.md.")
