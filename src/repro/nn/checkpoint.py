"""Checkpointing: save/restore parameters and optimizer state.

The paper trains for 100M steps; any practical run of this reproduction
needs resumable state.  Checkpoints are plain ``.npz`` archives holding
the parameter arrays (prefixed ``theta/``), the shared RMSProp statistics
(``g/``), and a JSON metadata blob (global step, config echo).
"""

from __future__ import annotations

import json
import os
import tempfile
import typing

import numpy as np

from repro.nn.optim import RMSProp
from repro.nn.parameters import ParameterSet


def save_checkpoint(path: str, params: ParameterSet,
                    optimizer: typing.Optional[RMSProp] = None,
                    metadata: typing.Optional[dict] = None) -> None:
    """Write a checkpoint archive to exactly ``path``.

    ``metadata`` must be JSON-serialisable (global step, learning-rate
    schedule position, game name, ...).  The archive is written to a
    temporary file in the same directory and renamed over ``path``, so
    a write that fails part-way leaves any previous checkpoint intact
    and no temporary file behind.
    """
    arrays: typing.Dict[str, np.ndarray] = {}
    for name, value in params.items():
        arrays[f"theta/{name}"] = value
    if optimizer is not None and optimizer.statistics is not None:
        for name, value in optimizer.statistics.items():
            arrays[f"g/{name}"] = value
    arrays["metadata"] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8)
    fd, temporary = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        # A file object, not a name: np.savez appends ".npz" to a name.
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def load_checkpoint(path: str) -> typing.Tuple[
        ParameterSet, typing.Optional[ParameterSet], dict]:
    """Read a checkpoint; returns (params, rmsprop statistics or None,
    metadata)."""
    with np.load(path) as archive:
        params = ParameterSet()
        statistics = ParameterSet()
        metadata: dict = {}
        for key in archive.files:
            if key.startswith("theta/"):
                params[key[len("theta/"):]] = archive[key]
            elif key.startswith("g/"):
                statistics[key[len("g/"):]] = archive[key]
            elif key == "metadata":
                metadata = json.loads(archive[key].tobytes()
                                      .decode("utf-8"))
    return params, (statistics if len(statistics) else None), metadata


def check_same_tensors(saved: ParameterSet, current: ParameterSet,
                       what: str) -> None:
    """Raise ``ValueError`` naming the first tensor of ``current`` that
    ``saved`` lacks or holds in another shape, or else the first tensor
    ``saved`` has beyond ``current``'s.  ``what`` names the saved set
    in the message."""
    for name in current:
        if name not in saved:
            raise ValueError(f"{name}: missing from the saved {what}")
        if saved[name].shape != current[name].shape:
            raise ValueError(f"{name}: shape {saved[name].shape} in the "
                             f"saved {what}, {current[name].shape} in "
                             f"the model")
    for name in saved:
        if name not in current:
            raise ValueError(f"{name}: in the saved {what} but not in "
                             f"the model")


def restore_optimizer(optimizer: RMSProp,
                      statistics: ParameterSet) -> None:
    """Load saved second-moment estimates into an optimizer.

    An optimizer that already holds statistics keeps them unless the
    saved set has their names and shapes: otherwise this raises
    ``ValueError`` naming the first tensor that differs, instead of a
    later apply failing on it (or a training thread dying of it).
    """
    if optimizer.statistics is not None:
        check_same_tensors(statistics, optimizer.statistics,
                           "RMSProp statistics")
    optimizer._g = statistics.copy()
