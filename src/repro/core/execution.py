"""The execution path shared by the three trainers.

A3C, GA3C, and PAAC differ in *when* rollouts are collected and *whose*
parameters run inference, but the rollout-to-update pipeline itself —
batched forward, objective + head gradients, backward, shared-RMSProp
application — is one algorithm (paper Figure 2 step 4).  This module
holds that single copy, plus the per-routine telemetry block and the
trainer-side hooks into the :mod:`repro.backends` protocol (compute
backend resolution and the deterministic seeding contract), so the
trainers stay thin orchestration shells.
"""

from __future__ import annotations

import time
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
from repro.obs import runtime as _obs

__all__ = ["apply_rollout_update", "derive_agent_seed",
           "derive_eval_seed", "derive_policy_seed",
           "record_routine", "resolve_backend"]


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
    present the whole update is attributed to its ``train`` segment.
    """
    train_started = time.perf_counter_ns() if lat is not None else 0
    logits, values = network.forward(states, params, maps)
    loss = a3c_loss_and_head_gradients(
        logits, values, actions, returns, entropy_beta=entropy_beta)
    grads = network.backward_and_grads(loss.dlogits, loss.dvalues,
                                       params)
    server.apply_gradients(grads)
    if lat is not None:
        lat.add_ns("train", time.perf_counter_ns() - train_started)
    return loss


def record_routine(trainer: str, started: float, steps: int,
                   lane: typing.Optional[str] = None,
                   span_name: str = "routine",
                   span_labels: typing.Optional[
                       typing.Dict[str, typing.Any]] = None,
                   lat=None) -> None:
    """One finished routine into the metrics/trace sinks.

    Callers gate on :func:`repro.obs.runtime.enabled` (and capture
    ``started`` from ``time.perf_counter`` only then), so this never
    runs on the hot path with collection off.  ``lane=None`` skips the
    tracer span (PAAC records rollout/update spans separately).
    ``lat``, when present, is the routine's
    :class:`repro.obs.lat.RoutineLatency`, finished here so the
    end-to-end latency closes at the same boundary the routine metrics
    do.
    """
    ended = time.perf_counter()
    elapsed = ended - started
    metrics = _obs.metrics()
    metrics.counter("trainer.routines").inc(trainer=trainer)
    metrics.counter("trainer.steps").inc(steps, trainer=trainer)
    metrics.histogram("trainer.routine_seconds").observe(
        elapsed, trainer=trainer)
    if elapsed > 0:
        metrics.histogram("trainer.step_rate").observe(
            steps / elapsed, trainer=trainer)
    if lane is not None:
        _obs.tracer().record(lane, span_name, started, ended,
                             clock="wall", **(span_labels or {}))
    if lat is not None:
        lat.finish()


def resolve_backend(platform, topology=None):
    """The trainer's compute backend from a name/instance/``None``.

    Imports :mod:`repro.backends` lazily: trainers that never touch
    their backend handle (every numeric-only test) skip loading the
    platform adapters entirely.
    """
    from repro import backends
    return backends.resolve(platform, topology)
