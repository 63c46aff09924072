"""The A3C algorithm (the paper's workload) and its baselines.

This package implements:

* :class:`~repro.core.trainer.A3CTrainer` — the asynchronous
  advantage actor-critic of Mnih et al. exactly as the paper describes it
  (Figure 2): per-agent local θ snapshots, t_max-step rollouts, a
  bootstrapping inference, host-side objective gradients, and shared-RMSProp
  updates to the global θ.
* :class:`~repro.core.ga3c.GA3CTrainer` — the GA3C baseline (single global
  parameter set, batched inference/training queues).
* :class:`~repro.core.paac.PAACTrainer` — the PAAC baseline (fully
  synchronous batched updates).
"""

from repro.core.agent import A3CAgent
from repro.core.config import A3CConfig
from repro.core.evaluate import (
    EvaluationResult,
    evaluate_policy,
    evaluate_recurrent_policy,
)
from repro.core.scores import ScoreTracker, moving_average
from repro.core.ga3c import GA3CTrainer
from repro.core.paac import PAACTrainer
from repro.core.parameter_server import ParameterServer
from repro.core.recurrent_agent import RecurrentA3CAgent
from repro.core.rollout import Rollout, compute_returns
from repro.core.shared_params import (
    SharedParameterServer,
    SharedParameterStore,
)
from repro.core.sweep import SweepResult, sweep_learning_rates
from repro.core.trainer import A3CTrainer, TrainResult, WorkerFailed

__all__ = [
    "A3CAgent",
    "A3CConfig",
    "A3CTrainer",
    "EvaluationResult",
    "GA3CTrainer",
    "PAACTrainer",
    "ParameterServer",
    "RecurrentA3CAgent",
    "Rollout",
    "ScoreTracker",
    "SharedParameterServer",
    "SharedParameterStore",
    "SweepResult",
    "TrainResult",
    "WorkerFailed",
    "compute_returns",
    "evaluate_policy",
    "evaluate_recurrent_policy",
    "moving_average",
    "sweep_learning_rates",
]
