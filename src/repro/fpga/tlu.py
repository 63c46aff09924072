"""The Transpose Load Unit (paper Section 4.4.3).

The TLU turns the single FW-layout DRAM copy into the BW on-chip layout
while the data is in flight: DRAM patches are staged into a FIFO, then
transposed 16x16 using registers and shift operations.  A CU has two TLU
instances working in a double-buffered pair — one fills the parameter
buffer while the other prepares the next transposed patch — and the TLU
issues read requests ahead of PE consumption to hide DRAM latency.

The register-level shift-transpose is modelled by its result: one
transposed copy per patch (pure data movement, no arithmetic), with the
hardware's FIFO, counter, and cycle accounting.
``tests/test_fpga_tlu_golden.py`` pins the patches and counters.
"""

from __future__ import annotations

import collections
import typing

import numpy as np

from repro.fpga.layouts import PATCH
from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


class TransposeLoadUnit:
    """One TLU instance: a prefetch FIFO feeding a transpose array."""

    def __init__(self, patch: int = PATCH, fifo_depth: int = 4):
        self.patch = patch
        self.fifo_depth = fifo_depth
        self._fifo: collections.deque = collections.deque()
        self.patches_transposed = 0
        self.words_loaded = 0

    @classmethod
    def for_precision(cls, precision,
                      fifo_depth: int = 4) -> "TransposeLoadUnit":
        """A TLU sized to one DRAM beat of the given operand precision.

        The transpose array edge equals the words-per-beat of the
        precision (16 at fp32, 32 at fp16, 64 at int8): each beat still
        fills exactly one register row, so the shift-transpose schedule
        is unchanged — only the patch edge grows with packing density.
        """
        return cls(patch=precision.words_per_beat, fifo_depth=fifo_depth)

    @property
    def register_words(self) -> int:
        """Register words the transpose array occupies."""
        return self.patch * self.patch

    def stage(self, patch_words: np.ndarray) -> None:
        """Stage one serialised 16x16 patch from DRAM into the FIFO.

        Raises if the prefetch FIFO is full (the hardware would apply
        back-pressure to the DRAM read stream).
        """
        patch_words = np.asarray(patch_words, dtype=np.float32).reshape(-1)
        if patch_words.size != self.patch * self.patch:
            raise ValueError(f"a patch is {self.patch * self.patch} words, "
                             f"got {patch_words.size}")
        if len(self._fifo) >= self.fifo_depth:
            raise RuntimeError("TLU prefetch FIFO full")
        self._fifo.append(patch_words.copy())
        self.words_loaded += patch_words.size

    @hot_path
    def transpose_next(self) -> np.ndarray:
        """Transpose the oldest staged patch.

        Cycle-level behaviour of the hardware: for each of the 16 beats,
        one 16-word DRAM row is pushed broadside into the register
        columns while every register row shifts one word — after 16
        beats the columns hold the rows, i.e. the patch is transposed.
        Returns the transposed patch as a ``(16, 16)`` array.
        """
        if not self._fifo:
            raise RuntimeError("no staged patch to transpose")
        words = self._fifo.popleft().reshape(self.patch, self.patch)
        transposed = words.T.copy()
        self.patches_transposed += 1
        if _obs.enabled():
            metrics = _obs.metrics()
            metrics.counter("fpga.tlu.patches").inc()
            metrics.counter("fpga.tlu.words").inc(self.patch * self.patch)
            metrics.counter("fpga.tlu.cycles").inc(self.transpose_cycles())
        return transposed

    def transpose_cycles(self) -> int:
        """Cycles to transpose one patch (one beat per word row)."""
        return self.patch

    def load_transposed(self, patches: typing.Iterable[np.ndarray]
                        ) -> typing.List[np.ndarray]:
        """Stage-and-transpose a stream of serialised patches."""
        out = []
        for patch_words in patches:
            self.stage(patch_words)
            out.append(self.transpose_next())
        return out
