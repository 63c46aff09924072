"""Conformance suite for every registered execution backend.

Each test is parametrized over the full registry, so registering a new
backend (one ``repro.backends.register`` call) automatically subjects it
to the same contract the built-in platforms satisfy: registry
round-trip, deterministic seeding, positive analytic step latencies that
never record metrics, attribution buckets that sum to the simulated
total, and a drivable discrete-event sim.
"""

import pytest

from repro import backends, obs
from repro.backends.protocol import (
    AGENT_SEED_STRIDE,
    Backend,
    derive_agent_seed,
)
from repro.obs.prof import AttributionReport
from repro.platforms import measure_ips
from repro.sim import Engine, Tracer

ALL_BACKENDS = backends.names()


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with collection off and clean."""
    obs.disable()
    obs.metrics().reset()
    yield
    obs.disable()
    obs.metrics().reset()


class TestRegistry:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_roundtrip(self, name):
        backend = backends.create(name)
        assert isinstance(backend, Backend)
        assert backend.registry_name == name
        assert backends.is_registered(name)
        assert isinstance(backend.name, str) and backend.name

    def test_expected_platforms_registered(self):
        for name in ("fa3c-fpga", "fa3c-single-cu", "fa3c-alt1",
                     "fa3c-alt2", "fa3c-fp16", "fa3c-int8",
                     "a3c-cudnn", "a3c-tf-gpu",
                     "a3c-tf-cpu", "ga3c-tf"):
            assert backends.is_registered(name)

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="fa3c-fpga"):
            backends.create("warp-drive")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            backends.register("fa3c-fpga", lambda topology=None: None)

    def test_resolve_default_and_passthrough(self):
        default = backends.resolve(None)
        assert default.registry_name == backends.DEFAULT_BACKEND
        instance = backends.create("a3c-cudnn")
        assert backends.resolve(instance) is instance


class TestCapabilities:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_kind_and_flags(self, name):
        backend = backends.create(name)
        caps = backend.capabilities
        assert caps.kind in ("fpga", "gpu", "host")
        assert backend.needs_sync == caps.needs_sync
        assert backend.needs_bootstrap == caps.needs_bootstrap

    def test_ga3c_has_no_local_parameters(self):
        caps = backends.create("ga3c-tf").capabilities
        assert not caps.needs_sync
        assert not caps.needs_bootstrap
        assert caps.batched_inference


class TestSeeding:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_agent_seed_follows_contract(self, name):
        backend = backends.create(name)
        for seed in (0, 1, 7):
            for agent_id in (0, 3, 15):
                expected = seed * AGENT_SEED_STRIDE + agent_id
                assert backend.agent_seed(agent_id, seed) == expected
                assert derive_agent_seed(seed, agent_id) == expected

    def test_streams_never_collide(self):
        seen = set()
        for seed in range(4):
            for agent_id in range(64):
                seen.add(derive_agent_seed(seed, agent_id))
        assert len(seen) == 4 * 64


class TestAnalyticSteps:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_latencies_positive_and_deterministic(self, name):
        first = backends.create(name)
        second = backends.create(name)
        assert first.infer_step() > 0.0
        assert first.train_step(5) > 0.0
        assert first.sync_step() >= 0.0
        assert first.infer_step() == second.infer_step()
        assert first.train_step(5) == second.train_step(5)
        assert first.sync_step() == second.sync_step()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_compile_plans_covers_the_routine(self, name):
        assert backends.create(name).compile_plans(t_max=5) == 3

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_analytic_queries_record_nothing(self, name):
        backend = backends.create(name)
        with obs.enabled_scope(reset=True):
            backend.compile_plans(t_max=5)
            backend.infer_step()
            backend.train_step(5)
            backend.sync_step()
            backend.attribution("inference")
            backend.attribution("train")
            assert obs.metrics().snapshot() == []

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_attribution_shapes(self, name):
        backend = backends.create(name)
        for task in ("inference", "train"):
            buckets = backend.attribution(task)
            assert buckets, f"{name}: empty {task} attribution"
            assert all(cycles >= 0 for cycles in buckets.values())
        with pytest.raises(ValueError, match="unknown task"):
            backend.attribution("teleport")


class TestSimulation:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_sim_drives_and_attribution_sums_to_total(self, name):
        backend = backends.create(name)
        with obs.enabled_scope(reset=True):
            result = measure_ips(backend, 2, routines_per_agent=4)
            report = AttributionReport.from_registry(
                obs.metrics()).validate()
        assert result.platform == backend.name
        assert result.ips > 0.0
        shares = report.bucket_shares()
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_tracer_support_matches_capabilities(self, name):
        backend = backends.create(name)
        engine = Engine()
        if backend.capabilities.supports_tracing:
            assert backend.build_sim(engine, tracer=Tracer()) is not None
        else:
            with pytest.raises(ValueError, match="tracing"):
                backend.build_sim(engine, tracer=Tracer())

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_matches_direct_platform_numbers(self, name):
        """The adapter is a view, not a remodel: IPS through the backend
        equals IPS measured on the wrapped platform directly."""
        backend = backends.create(name)
        direct = measure_ips(backend.platform, 2, routines_per_agent=4)
        adapted = measure_ips(backends.create(name), 2,
                              routines_per_agent=4)
        assert adapted.ips == direct.ips
        assert adapted.platform == direct.platform


class TestPrecision:
    """Precision capability contract over the whole registry."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_declared_precision_resolves(self, name):
        from repro.precision import resolve_precision
        backend = backends.create(name)
        spec = resolve_precision(backend.capabilities.precision)
        assert spec.accumulate_bits == 32

    def test_quantized_family_registered_with_capabilities(self):
        assert backends.create("fa3c-fp16").capabilities.precision \
            == "fp16"
        assert backends.create("fa3c-int8").capabilities.precision \
            == "int8"
        # Capability mirrors the platform config, including overrides.
        overridden = backends.create("fa3c-fpga", precision="fp16")
        assert overridden.capabilities.precision == "fp16"

    def test_fp32_reference_unchanged_bitwise(self):
        """Every fp32 backend's modelled numbers are byte-for-byte the
        pre-refactor arithmetic: all precision scaling factors are
        exactly 1 at fp32, so nothing can drift."""
        reference = backends.create("fa3c-fpga")
        config = reference.platform.config
        assert config.words_per_beat == 16
        assert config.word_bytes == 4
        assert config.pe_per_cu == 64
        for name in ALL_BACKENDS:
            backend = backends.create(name)
            if backend.capabilities.precision != "fp32":
                continue
            a = measure_ips(backend, 2, routines_per_agent=4)
            b = measure_ips(backends.create(name), 2,
                            routines_per_agent=4)
            assert a.ips == b.ips

    @pytest.mark.parametrize("name", ("fa3c-fp16", "fa3c-int8"))
    def test_quantized_latency_banded_and_deterministic(self, name):
        """Quantized datapaths are tolerance-banded against fp32 (they
        model the same network, so latency lands within the packing
        bound) and exactly deterministic run to run."""
        fp32 = backends.create("fa3c-fpga")
        quantized = backends.create(name)
        scale = quantized.platform.config.precision_spec.pe_scale
        ref = fp32.infer_step(1)
        got = quantized.infer_step(1)
        # Never slower than fp32; never faster than the ideal packing
        # bound allows (compute and DMA both scale at most by `scale`).
        assert got <= ref
        assert got >= ref / (2 * scale)
        again = backends.create(name).infer_step(1)
        assert got == again
        run_a = measure_ips(backends.create(name), 2,
                            routines_per_agent=4)
        run_b = measure_ips(backends.create(name), 2,
                            routines_per_agent=4)
        assert run_a.ips == run_b.ips

    def test_int8_wins_modelled_ips_and_energy(self):
        """The ablation ordering the datapath exists to expose."""
        from repro.power import PowerModel
        model = PowerModel()
        results = {}
        for name in ("fa3c-fpga", "fa3c-int8"):
            result = measure_ips(backends.create(name), 4,
                                 routines_per_agent=8)
            results[name] = (result.ips,
                             model.report(result).watts)
        fp32_ips, fp32_watts = results["fa3c-fpga"]
        int8_ips, int8_watts = results["fa3c-int8"]
        assert int8_ips > fp32_ips
        assert int8_watts < fp32_watts
        assert int8_ips / int8_watts > fp32_ips / fp32_watts

    def test_unsupported_precision_rejected_at_create_time(self):
        from repro.backends.protocol import BackendCapabilities

        class BadBackend:
            registry_name = "bad-int4"
            capabilities = BackendCapabilities(kind="fpga",
                                               precision="int4")

        backends.register("bad-int4", lambda topology=None: BadBackend())
        try:
            with pytest.raises(ValueError, match="int4"):
                backends.create("bad-int4")
        finally:
            from repro.backends import registry as _registry
            _registry._REGISTRY.pop("bad-int4", None)

    def test_capability_query_suggests_nearest_field(self):
        backend = backends.create("fa3c-int8")
        assert backends.capability(backend, "precision") == "int8"
        with pytest.raises(ValueError, match="did you mean 'precision'"):
            backends.capability(backend, "precison")

