"""The execution path shared by the three trainers.

A3C, GA3C, and PAAC differ in *when* rollouts are collected and *whose*
parameters run inference, but the rollout-to-update pipeline itself —
batched forward, objective + head gradients, backward, shared-RMSProp
application — is one algorithm (paper Figure 2 step 4).  This module
holds that single copy, plus the trainer-side hooks into the
:mod:`repro.backends` protocol (compute backend resolution and the
deterministic seeding contract), so the trainers stay thin
orchestration shells.
"""

from __future__ import annotations

import typing

import numpy as np

# Protocol-level import only: the seeding contract is defined with the
# backend protocol, but pulling it in must not drag the platform
# adapters (and their sim stacks) into every trainer import.
from repro.backends.protocol import (
    derive_agent_seed,
    derive_eval_seed,
    derive_policy_seed,
)
from repro.nn.losses import A3CLossResult, a3c_loss_and_head_gradients

__all__ = ["apply_rollout_update", "derive_agent_seed",
           "derive_eval_seed", "derive_policy_seed", "resolve_backend",
           "sample_actions"]

#: ``Generator.choice``'s tolerance on a probability row's sum.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def sample_actions(rngs: typing.Sequence[np.random.Generator],
                   probs: np.ndarray) -> np.ndarray:
    """One action per row of the ``(N, A)`` policy ``probs``, row ``i``
    drawn with ``rngs[i]``.

    Equal, in the actions and in every generator's state, to
    ``rngs[i].choice(A, p=probs[i])`` row by row: one ``random()`` per
    row, compared against the float64 cumulative sum divided by its last
    element, and the index is the count of cdf values at or below the
    draw (``choice``'s right-sided search).  ``choice``'s checks are
    kept: a row with a NaN, a negative entry or a sum off 1 raises
    ``ValueError`` before any generator draws.  The sum checked is the
    cumulative sum's last element, which can differ from ``choice``'s
    Kahan sum only by an ulp or so.
    """
    atol = _SUM_ATOL
    if np.issubdtype(probs.dtype, np.floating):
        atol = max(atol, float(np.sqrt(np.finfo(probs.dtype).eps)))
    p = probs.astype(np.float64)
    cdf = p.cumsum(axis=1)
    total = cdf[:, -1:].copy()
    if np.isnan(total).any():
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if (np.abs(total - 1.0) > atol).any():
        raise ValueError("Probabilities do not sum to 1")
    cdf /= total
    draws = np.array([rng.random() for rng in rngs])
    return (cdf <= draws[:, None]).sum(axis=1)


def apply_rollout_update(network, params, server,
                         states: np.ndarray, actions: np.ndarray,
                         returns: np.ndarray,
                         entropy_beta: float,
                         maps=None, lat=None) -> A3CLossResult:
    """One training task: the batched rollout through to the global θ.

    Runs the forward pass over ``params`` (the caller decides whether
    those are an agent's local snapshot or the single global set),
    computes the A3C objective and its head gradients host-side,
    backpropagates, and applies the gradients through ``server``'s
    shared RMSProp.  The operation order is fixed — it is the fp32
    accumulation order all three trainers were verified against.

    ``maps`` are the trunk feature maps the rollout's inferences kept
    (``network.feature_maps()`` after each one that chose an action,
    in the order of ``states``).  They are valid only if ``params`` is
    the θ those inferences ran under, as in A3C and PAAC; the forward
    pass then runs only the dense head
    (:meth:`repro.nn.network.Sequential.forward`).  GA3C passes none:
    its global θ moves between prediction and training.

    ``lat`` is an optional :class:`repro.obs.lat.RoutineLatency`; when
    present the gradient computation is lapped as ``train`` and the
    parameter-server update as ``apply``.
    """
    logits, values = network.forward(states, params, maps)
    loss = a3c_loss_and_head_gradients(
        logits, values, actions, returns, entropy_beta=entropy_beta)
    grads = network.backward_and_grads(loss.dlogits, loss.dvalues,
                                       params)
    if lat is not None:
        lat.lap("train")
    server.apply_gradients(grads)
    if lat is not None:
        lat.lap("apply")
    return loss


def resolve_backend(platform, topology=None):
    """The trainer's compute backend from a name/instance/``None``.

    Imports :mod:`repro.backends` lazily: trainers that never touch
    their backend handle (every numeric-only test) skip loading the
    platform adapters entirely.
    """
    from repro import backends
    return backends.resolve(platform, topology)
