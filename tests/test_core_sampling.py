"""The batched action sampler of PAAC and GA3C's predictor."""

import numpy as np
import pytest

from repro.core.execution import sample_actions
from repro.nn.losses import softmax


def _generators(seeds):
    return [np.random.default_rng(int(seed)) for seed in seeds]


def test_matches_choice_row_by_row():
    """Same actions and same generator states as one
    ``Generator.choice`` per row, over batch 1-32 and 1-18 actions."""
    cases = np.random.default_rng(123)
    for case in range(300):
        rows = int(cases.integers(1, 33))
        width = int(cases.integers(1, 19))
        logits = cases.standard_normal((rows, width)) * \
            cases.uniform(0.1, 20.0)
        if case % 5 == 0:
            logits[:, 0] += 30.0          # near-deterministic rows
        dtype = np.float32 if case % 2 else np.float64
        probs = softmax(logits.astype(dtype))
        seeds = cases.integers(0, 2 ** 32, size=rows)
        expected_rngs = _generators(seeds)
        rngs = _generators(seeds)
        expected = np.array([rng.choice(width, p=probs[row])
                             for row, rng in enumerate(expected_rngs)])
        actions = sample_actions(rngs, probs)
        assert actions.dtype == expected.dtype
        assert np.array_equal(actions, expected), case
        for rng, expected_rng in zip(rngs, expected_rngs):
            assert rng.bit_generator.state == \
                expected_rng.bit_generator.state


@pytest.mark.parametrize("row,message", [
    ([0.5, np.nan, 0.5], "NaN"),
    ([1.5, -0.5, 0.0], "non-negative"),
    ([0.5, 0.4, 0.0], "sum to 1"),
])
def test_keeps_choice_checks(row, message):
    probs = np.array([[0.2, 0.3, 0.5], row])
    with pytest.raises(ValueError, match=message):
        np.random.default_rng(0).choice(3, p=probs[1])
    rngs = _generators([0, 1])
    states = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(ValueError, match=message):
        sample_actions(rngs, probs)
    assert [rng.bit_generator.state for rng in rngs] == states


class _Fixed:
    """A generator stand-in whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_a_draw_on_a_cdf_value_takes_the_next_action():
    """As ``choice``'s right-sided search: a draw of exactly 0 never
    picks a zero-probability action, and one equal to a cdf step picks
    the action after it."""
    probs = np.array([[0.0, 0.5, 0.5], [0.25, 0.75, 0.0]])
    actions = sample_actions([_Fixed(0.0), _Fixed(0.25)], probs)
    assert actions.tolist() == [1, 1]
