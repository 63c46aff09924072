"""Precision vocabulary and quantized-datapath numerics.

Covers the contract in three layers: the :mod:`repro.precision`
vocabulary (derived widths, closed set, suggestion on typos), the
:mod:`repro.nn.quant` emulation numerics (round-trip bounds, fp32
accumulation, calibration determinism), and the straight-through
gradients the quantization-aware forward exposes to
``nn/gradcheck.py``.
"""

import numpy as np
import pytest

from repro.nn import Dense, ParameterSet, Sequential
from repro.nn.gradcheck import check_param_gradients
from repro.nn.quant import (
    INT8_LEVELS,
    Fp16Policy,
    Int8Policy,
    dequantize_int8,
    fake_quant_int8,
    fp16_storage,
    int8_scale,
    policy_for,
    quantize_int8,
)
from repro.precision import (
    FP16,
    FP32,
    INT8,
    PRECISIONS,
    Precision,
    resolve_precision,
)


class TestPrecisionVocabulary:
    def test_derived_widths(self):
        assert (FP32.words_per_beat, FP16.words_per_beat,
                INT8.words_per_beat) == (16, 32, 64)
        assert (FP32.pe_scale, FP16.pe_scale, INT8.pe_scale) == (1, 2, 4)
        assert (FP32.storage_bytes, FP16.storage_bytes,
                INT8.storage_bytes) == (4, 2, 1)
        assert all(p.accumulate_bits == 32 for p in PRECISIONS.values())

    def test_fp32_scaling_factors_are_exactly_one(self):
        """The bit-identity argument: at fp32 every multiplier is 1."""
        assert FP32.pe_scale == 1
        assert FP32.words_per_beat == 16
        assert FP32.storage_bytes == 4

    def test_resolve_accepts_names_and_instances(self):
        assert resolve_precision("int8") is INT8
        assert resolve_precision(FP16) is FP16

    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(ValueError, match="did you mean 'fp16'"):
            resolve_precision("fp61")
        with pytest.raises(ValueError, match="supported: fp16, fp32, int8"):
            resolve_precision("bfloat16")

    def test_non_beat_divisible_width_rejected(self):
        with pytest.raises(ValueError, match="512-bit"):
            Precision("odd", storage_bits=24)


class TestInt8Numerics:
    def test_round_trip_bound(self):
        """|x - fake_quant(x)| <= scale/2 inside the representable range."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096).astype(np.float32) * 3.0
        scale = int8_scale(x)
        err = np.abs(x - fake_quant_int8(x, scale))
        assert float(err.max()) <= scale / 2 + 1e-7

    def test_saturation_outside_representable_range(self):
        scale = 0.1
        hot = np.array([100.0, -100.0], dtype=np.float32)
        codes = quantize_int8(hot, scale)
        assert codes.tolist() == [INT8_LEVELS, -INT8_LEVELS]
        np.testing.assert_allclose(dequantize_int8(codes, scale),
                                   [12.7, -12.7], rtol=1e-6)

    def test_symmetry_no_negative_128_code(self):
        """quantize(x) == -quantize(-x) exactly (the -128 code is unused)."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512).astype(np.float32)
        scale = int8_scale(x)
        np.testing.assert_array_equal(quantize_int8(x, scale),
                                      -quantize_int8(-x, scale))

    def test_all_zero_tensor_uses_unit_scale(self):
        zeros = np.zeros(8, dtype=np.float32)
        assert int8_scale(zeros) == 1.0
        np.testing.assert_array_equal(fake_quant_int8(zeros), zeros)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            quantize_int8(np.ones(2, dtype=np.float32), 0.0)

    def test_round_half_to_even(self):
        codes = quantize_int8(
            np.array([0.5, 1.5, 2.5, -0.5], dtype=np.float32), 1.0)
        assert codes.tolist() == [0, 2, 2, 0]


class TestFp16Numerics:
    def test_storage_round_trip_is_float32(self):
        x = np.array([1.0, 1.0 / 3.0, 65504.0], dtype=np.float32)
        y = fp16_storage(x)
        assert y.dtype == np.float32
        assert y[0] == 1.0
        assert abs(y[1] - 1.0 / 3.0) < 1e-3

    def test_accumulate_stays_fp32(self):
        """The guard the datapath contract depends on: storage rounds to
        fp16, but summing the stored values in fp32 keeps terms a pure
        fp16 accumulator would absorb.  4096 ones plus 0.25: fp16
        accumulation saturates at 2048 increments of 0.25... actually
        simpler — adding 1.0 to 4096.0 in fp16 is lossy (ulp=4), in
        fp32 it is exact."""
        base = np.float32(4096.0)
        increment = fp16_storage(np.array([1.0], dtype=np.float32))[0]
        fp32_accumulated = base + np.float32(increment)
        fp16_accumulated = np.float32(
            np.float16(base) + np.float16(increment))
        assert fp32_accumulated == np.float32(4097.0)
        assert fp16_accumulated != np.float32(4097.0)

    def test_policy_is_stateless_rounding(self):
        policy = Fp16Policy()
        x = np.array([1.0 / 3.0], dtype=np.float32)
        np.testing.assert_array_equal(policy(x, "a"), policy(x, "b"))
        np.testing.assert_array_equal(policy(x), fp16_storage(x))


class TestInt8Calibration:
    def test_observe_freeze_reuse(self):
        policy = Int8Policy()
        rng = np.random.default_rng(0)
        batch = rng.standard_normal(256).astype(np.float32)
        policy.observe("w", batch)
        policy.freeze()
        # Frozen: a small probe reuses the calibrated scale, not its own.
        probe = np.array([0.01], dtype=np.float32)
        assert policy.scale_for("w", probe) == pytest.approx(
            float(np.max(np.abs(batch))) / INT8_LEVELS)
        # Unknown keys still fall back to dynamic scaling.
        assert policy.scale_for("unseen", probe) == int8_scale(probe)

    def test_observe_after_freeze_rejected(self):
        policy = Int8Policy()
        policy.freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            policy.observe("w", np.ones(2, dtype=np.float32))

    def test_calibration_is_deterministic(self):
        """Same seeded batches -> identical frozen scales dict."""
        def calibrate():
            policy = Int8Policy()
            rng = np.random.default_rng(42)
            for _ in range(5):
                batch = rng.standard_normal((8, 16)).astype(np.float32)
                policy.observe("conv1.act", batch)
                policy.observe("fc1.act", batch * 0.5)
            policy.freeze()
            return policy.scales()

        first, second = calibrate(), calibrate()
        assert first == second
        assert sorted(first) == ["conv1.act", "fc1.act"]
        assert all(scale > 0.0 for scale in first.values())

    def test_policy_for_dispatch(self):
        assert policy_for("fp32") is None
        assert isinstance(policy_for("fp16"), Fp16Policy)
        assert isinstance(policy_for("int8"), Int8Policy)
        assert isinstance(policy_for(INT8), Int8Policy)


def _quantized_model(policy):
    """A tiny dense stack with the policy installed on every layer."""
    rng = np.random.default_rng(7)
    model = Sequential([Dense("d1", 6, 5), Dense("d2", 5, 3)],
                       input_shape=(6,))
    params = model.init_params(rng)
    model.set_policy(policy)
    x = rng.standard_normal((4, 6)).astype(np.float64) * 0.5
    target = rng.standard_normal((4, 3))
    return model, params, x, target


class TestQuantizedGradcheck:
    """Straight-through gradients against central differences.

    The quantization-aware forward is piecewise constant at the rounding
    grain, so the probe ``eps`` must be large relative to the rounding
    step (int8 scale / fp16 ulp) for the central difference to see the
    underlying slope, and the tolerance correspondingly loose.
    """

    def test_fp16_forward_gradcheck(self):
        model, params, x, target = _quantized_model(Fp16Policy())

        def loss():
            y = model.forward(x.astype(np.float32), params)
            return float((y * target).sum())

        loss()
        grads = model.backward_and_grads(target.astype(np.float32),
                                         params)
        for name in params:
            params[name] = params[name].astype(np.float64)
        check_param_gradients(loss, params, grads,
                              eps=2e-2, rtol=0.2, atol=2e-2)

    def test_int8_frozen_scales_gradcheck(self):
        policy = Int8Policy()
        model, params, x, target = _quantized_model(policy)
        # Calibrate weights and activations with 1.5x headroom so the
        # eps-sized probe never saturates against the frozen clip range,
        # then freeze so the fake-quant grid stays fixed while gradcheck
        # perturbs parameters.  Zero-initialised biases are deliberately
        # NOT observed: they fall back to dynamic per-tensor scaling,
        # which adapts to the probe instead of rounding it away on a
        # degenerate amax=0 range.
        x32 = x.astype(np.float32)
        hidden = model.layers[0].forward(x32, params)
        policy.observe("d1.act", x32 * 1.5)
        policy.observe("d2.act", hidden * 1.5)
        for name in ("d1.weight", "d2.weight"):
            policy.observe(name, params[name] * 1.5)
        policy.freeze()

        def loss():
            y = model.forward(x.astype(np.float32), params)
            return float((y * target).sum())

        loss()
        grads = model.backward_and_grads(target.astype(np.float32),
                                         params)
        for name in params:
            params[name] = params[name].astype(np.float64)
        check_param_gradients(loss, params, grads,
                              eps=0.05, rtol=0.35, atol=0.05)
