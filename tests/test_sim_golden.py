"""Golden digests of the throughput simulator, one per platform case.

These digests are the oracle for every simulated platform: FPGA stage
timing, DMA holds and cycle attribution, GPU task costs, and GA3C
request batching.  Each case runs :meth:`ThroughputSetup.measure`
(``t_max=5``, 8 routines per agent) and hashes what the run models:

* the :class:`~repro.platforms.ThroughputResult` fields ``ips``,
  ``sim_seconds``, ``utilisation`` and ``routines``, plus every entry of
  ``inference_latencies``;
* with telemetry on, also the full ``obs.metrics().snapshot()`` and every
  sim-clock span in ``obs.tracer()``;
* for :data:`TRACED_GOLDEN`, every span a caller-supplied
  :class:`~repro.obs.tracer.SpanTracer` records with telemetry off.

Floats are hashed as ``float.hex``, so a digest pins exact bits, not a
rounding.  Each case runs twice on one setup: first from an empty
stage-plan cache, then with every plan warm; both runs must match.
``BENCH_fa3c.json`` pins the rounded bench view of the same simulator
(IPS, bucket shares and latency distribution), compared exactly.

A change meant to move a modelled number makes the affected cases fail
with the new digest in the message.  Paste it into :data:`GOLDEN` and
say in the change why the numbers moved.
"""

import functools
import hashlib
import json

import pytest

from repro import backends, obs
from repro.obs.tracer import SIM
from repro.perf import stageplan
from repro.platforms import HostModel, ThroughputSetup
from repro.obs import SpanTracer as Tracer

T_MAX = 5
ROUTINES = 8
AGENTS = (1, 3, 8)

#: config -> (registry backend, platform overrides, host model factory).
CONFIGS = {name: (name, {}, None) for name in (
    "fa3c-fpga", "fa3c-single-cu", "fa3c-alt1", "fa3c-alt2", "fa3c-fp16",
    "fa3c-int8", "a3c-cudnn", "a3c-tf-gpu", "a3c-tf-cpu", "ga3c-tf")}
CONFIGS.update({
    "fa3c-fpga-nodb": ("fa3c-fpga", {"double_buffering": False}, None),
    "fa3c-fpga-one-pair": ("fa3c-fpga", {"cu_pairs": 1}, None),
    "ga3c-tf-batched": ("ga3c-tf", {}, HostModel.batched),
})

#: (config, agents) -> (digest with telemetry off, digest with it on).
GOLDEN = {
    ("fa3c-fpga", 1): ("0c25808f70789df5", "481eade8f4f95525"),
    ("fa3c-fpga", 3): ("1a57a31899fa543a", "a6916abfa025e08b"),
    ("fa3c-fpga", 8): ("2c74c110f05b7bd6", "d2d2389dfaeecbfe"),
    ("fa3c-single-cu", 1): ("b6abaa576c797db1", "7b16e87ea2d5134b"),
    ("fa3c-single-cu", 3): ("452f379dfbb7e9b4", "aa10f0c8766b099c"),
    ("fa3c-single-cu", 8): ("730738fecb87b130", "547aba56f8236585"),
    ("fa3c-alt1", 1): ("1d105bbbd45ed5e4", "1c7cc2f907852e5d"),
    ("fa3c-alt1", 3): ("81b468fb72c9b909", "23269103bc8c3ff6"),
    ("fa3c-alt1", 8): ("0b7fded63dceeb40", "ded1fa8a57410482"),
    ("fa3c-alt2", 1): ("78d650320a2be23f", "86713b179e22ee42"),
    ("fa3c-alt2", 3): ("e46e4f212d1e6c9a", "0e0fbbed16e63bb6"),
    ("fa3c-alt2", 8): ("eeb3b25b20ab68e6", "eaec2e998b376a90"),
    ("fa3c-fp16", 1): ("950bd909b6061b22", "662df8579bd34445"),
    ("fa3c-fp16", 3): ("98becd555b0b5647", "fa497c6e66bb60d7"),
    ("fa3c-fp16", 8): ("d665050b717bddd8", "92ebf12891b04eb0"),
    ("fa3c-int8", 1): ("8091d3e153252e22", "42777f957a76cdff"),
    ("fa3c-int8", 3): ("35db66b5e046ab8e", "b3926a2d0e49ab1a"),
    ("fa3c-int8", 8): ("d411258d538744c1", "541c6a393a399057"),
    ("a3c-cudnn", 1): ("371e6205ac3c5573", "2e0044b423008f36"),
    ("a3c-cudnn", 3): ("1ecbd7aa3f12f8f9", "6ea34fdbe4b1ac3b"),
    ("a3c-cudnn", 8): ("a8a441c2d70e196e", "d752d4e8014634b9"),
    ("a3c-tf-gpu", 1): ("99b800dac62e762e", "c4ad78beb32dbe64"),
    ("a3c-tf-gpu", 3): ("f19c50003655eb1f", "9696354f16295dff"),
    ("a3c-tf-gpu", 8): ("a543eda1d6144d81", "20a8f94ed4b8b014"),
    ("a3c-tf-cpu", 1): ("21c2c1ceb935a430", "74cf2fe95555e7ef"),
    ("a3c-tf-cpu", 3): ("5df3595ea9203faa", "8f72096bda07b3b0"),
    ("a3c-tf-cpu", 8): ("50115ac24d0df0b1", "870a07162b632e6b"),
    ("ga3c-tf", 1): ("4024978c5692d005", "d7f4bbf9a03a887b"),
    ("ga3c-tf", 3): ("7171d78abb20701e", "fe3a84df3335c6fc"),
    ("ga3c-tf", 8): ("39cd57c228da86a7", "5a69a3c797dddc18"),
    ("fa3c-fpga-nodb", 1): ("1d01bece17147eb3", "e098f9323eff5613"),
    ("fa3c-fpga-nodb", 3): ("a4fddce98d8674cf", "ea180a4ba64fc6c2"),
    ("fa3c-fpga-nodb", 8): ("7184f553d44bf94e", "671205f6b72e4d4d"),
    ("fa3c-fpga-one-pair", 1): ("8b5b47f7d49d9771", "eb72debc0a3ddd19"),
    ("fa3c-fpga-one-pair", 3): ("20abccb982d091fd", "447bfb2741d5228c"),
    ("fa3c-fpga-one-pair", 8): ("01f2dea8b0f1da05", "fb4bc785d8b30a69"),
    ("ga3c-tf-batched", 1): ("ac5e78ce5e53d971", "1e61203c19bf15c5"),
    ("ga3c-tf-batched", 3): ("c981cc68fef45d8c", "4e63dce3dc34d670"),
    ("ga3c-tf-batched", 8): ("2e1f090bda745e40", "ce0e23bfb77f8e5c"),
}

#: (config, agents) -> digest of a run whose sim gets a caller-supplied
#: Tracer (``build_sim(engine, tracer=...)``) while telemetry is off: the
#: FPGA sim then records stage spans without any metrics.
TRACED_GOLDEN = {
    ("fa3c-fpga", 3): "78257024cbbc92d1",
    ("fa3c-fpga-nodb", 3): "7b16c1f5cb6da670",
}


@pytest.fixture(autouse=True)
def _obs_off():
    """Every case starts and ends with collection off and clean."""
    obs.disable()
    obs.metrics().reset()
    yield
    obs.disable()
    obs.metrics().reset()


def _canonical(value):
    """A JSON-ready copy of ``value`` with every float as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _digest(result, telemetry=None, spans=None) -> str:
    payload = {
        "ips": result.ips,
        "sim_seconds": result.sim_seconds,
        "utilisation": result.utilisation,
        "routines": result.routines,
        "inference_latencies": result.inference_latencies,
    }
    if telemetry is not None:
        payload["metrics"], payload["spans"] = telemetry
    if spans is not None:
        payload["trace"] = spans
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _build_setup(config: str) -> ThroughputSetup:
    backend, overrides, host = CONFIGS[config]
    return ThroughputSetup(backends.create(backend, **overrides),
                           host() if host else None)


def _case_digest(setup: ThroughputSetup, agents: int,
                 telemetry: bool) -> str:
    """One measurement's digest, with or without telemetry."""
    if not telemetry:
        return _digest(setup.measure(agents, t_max=T_MAX,
                                     routines_per_agent=ROUTINES))
    with obs.enabled_scope(reset=True):
        result = setup.measure(agents, t_max=T_MAX,
                               routines_per_agent=ROUTINES)
        rows = obs.metrics().snapshot()
        spans = [span for span in obs.tracer().snapshot()
                 if span["clock"] == SIM]
    return _digest(result, (rows, spans))


def test_table_covers_every_config_and_agent_count():
    assert set(GOLDEN) == {(config, agents) for config in CONFIGS
                           for agents in AGENTS}


def test_every_registered_backend_is_pinned():
    pinned = {backend for backend, _overrides, _host in CONFIGS.values()}
    assert set(backends.names()) <= pinned


@pytest.mark.parametrize("telemetry", (False, True),
                         ids=("plain", "telemetry"))
@pytest.mark.parametrize("config, agents", sorted(GOLDEN))
def test_digest(config, agents, telemetry):
    expected = GOLDEN[config, agents][telemetry]
    stageplan.CACHE.clear()
    setup = _build_setup(config)
    cold = _case_digest(setup, agents, telemetry)
    warm = _case_digest(setup, agents, telemetry)
    assert cold == warm == expected, (
        f"GOLDEN[{config!r}, {agents}] with telemetry "
        f"{'on' if telemetry else 'off'}: new digest {cold!r} "
        f"(warm cache {warm!r}), committed {expected!r}")


@pytest.mark.parametrize("config, agents", sorted(TRACED_GOLDEN))
def test_traced_digest(config, agents, monkeypatch):
    expected = TRACED_GOLDEN[config, agents]
    stageplan.CACHE.clear()
    setup = _build_setup(config)
    build_sim = setup.platform.build_sim
    digests = []
    for _run in ("cold", "warm"):
        tracer = Tracer()
        monkeypatch.setattr(setup.platform, "build_sim",
                            functools.partial(build_sim, tracer=tracer))
        result = setup.measure(agents, t_max=T_MAX,
                               routines_per_agent=ROUTINES)
        assert tracer.spans
        spans = [(span.lane, span.label, span.start, span.end)
                 for span in tracer.spans]
        digests.append(_digest(result, spans=spans))
    cold, warm = digests
    assert cold == warm == expected, (
        f"TRACED_GOLDEN[{config!r}, {agents}]: new digest {cold!r} "
        f"(warm cache {warm!r}), committed {expected!r}")
