"""DNN parameter layouts (paper Section 4.4, Figure 7).

FA3C keeps **one** copy of each layer's parameters in off-chip DRAM and
changes the layout on the fly while loading into on-chip buffers:

* **FW parameter layout** (Figure 7a): row ``r`` of the on-chip buffer
  holds, for reduction index ``r`` (one of the I*K*K values a PE consumes
  in sequence), the parameter of every output channel.  As a matrix this is
  ``(I*K*K, O)``: column ``o`` is the parameter sequence PE ``o`` consumes.
* **BW parameter layout** (Figure 7b): input and output channel roles are
  switched — the transpose ``(O*K*K, I)`` arranged so PEs can produce input
  gradients of *multiple input channels* simultaneously.
* **DRAM layout** (Figure 7c): the FW matrix is partitioned into
  16x16-word patches stored contiguously.  Loading the FW layout streams
  patches as-is; loading the BW layout streams the patch grid transposed,
  with the TLU transposing each patch's 16x16 interior.

For a fully-connected layer (I = in_features, O = out_features, K = 1) the
FW matrix is simply ``weight.T`` and the BW matrix is ``weight``.
"""

from __future__ import annotations

import typing

import numpy as np

#: Patch edge in words: the DRAM interface moves 16 fp32 words per burst
#: beat.  Narrower operands pack more words per beat, so the precision-
#: parametric timing model passes ``patch=precision.words_per_beat`` to
#: the padding/footprint helpers below; the functional load/store paths
#: default to the fp32 patch.
PATCH = 16


def fw_layout(weight: np.ndarray) -> np.ndarray:
    """FW parameter layout of a ``(O, I, K, K)`` or ``(O, I)`` weight.

    Returns the ``(I*K*K, O)`` matrix: element ``[r, o]`` is the parameter
    PE ``o`` consumes at reduction step ``r``.
    """
    if weight.ndim == 2:  # dense (O, I)
        return np.ascontiguousarray(weight.T)
    if weight.ndim == 4:
        o, i, k1, k2 = weight.shape
        return np.ascontiguousarray(
            weight.reshape(o, i * k1 * k2).T)
    raise ValueError(f"unsupported weight shape {weight.shape}")


def bw_layout(weight: np.ndarray) -> np.ndarray:
    """BW parameter layout: the FW matrix with input/output switched.

    Returns the ``(O, I*K*K)`` matrix (the FW matrix transposed): a row now
    spans many *input* channels, so PEs can produce input gradients across
    input channels simultaneously — the fix for the FC-layer PE-starvation
    problem of Section 4.4.2.
    """
    return np.ascontiguousarray(fw_layout(weight).T)


def fw_layout_to_weight(matrix: np.ndarray,
                        weight_shape: typing.Sequence[int]) -> np.ndarray:
    """Invert :func:`fw_layout` back to the natural weight tensor."""
    weight_shape = tuple(weight_shape)
    if len(weight_shape) == 2:
        return np.ascontiguousarray(matrix.T).reshape(weight_shape)
    o = weight_shape[0]
    return np.ascontiguousarray(matrix.T).reshape(o, -1) \
        .reshape(weight_shape)


def _padded_shape(rows: int, cols: int,
                  patch: int = PATCH) -> typing.Tuple[int, int]:
    pad_rows = -rows % patch
    pad_cols = -cols % patch
    return rows + pad_rows, cols + pad_cols


def pad_to_patches(matrix: np.ndarray, patch: int = PATCH) -> np.ndarray:
    """Zero-pad a matrix so both dimensions are patch multiples."""
    rows, cols = matrix.shape
    p_rows, p_cols = _padded_shape(rows, cols, patch)
    if (p_rows, p_cols) == (rows, cols):
        return matrix.astype(np.float32)
    padded = np.zeros((p_rows, p_cols), dtype=np.float32)
    padded[:rows, :cols] = matrix
    return padded


def dram_image_from_fw(fw_matrix: np.ndarray) -> np.ndarray:
    """Serialise the FW matrix into the Figure 7c DRAM image.

    The matrix is zero-padded to 16x16 patches; patches are stored
    contiguously in patch-row-major order, each patch serialised row by
    row.  Returns a flat float32 array — the single parameter copy kept in
    DRAM.
    """
    padded = pad_to_patches(np.asarray(fw_matrix, dtype=np.float32))
    rows, cols = padded.shape
    grid = padded.reshape(rows // PATCH, PATCH, cols // PATCH, PATCH)
    # (patch_row, patch_col, PATCH, PATCH) then flatten.
    return np.ascontiguousarray(grid.transpose(0, 2, 1, 3)).reshape(-1)


def load_fw_from_dram(image: np.ndarray, rows: int,
                      cols: int) -> np.ndarray:
    """Reassemble the FW layout matrix from the DRAM image.

    This is the *untransposed* load path: patches stream into the on-chip
    parameter buffer in storage order.
    """
    p_rows, p_cols = _padded_shape(rows, cols)
    grid = np.asarray(image, dtype=np.float32).reshape(
        p_rows // PATCH, p_cols // PATCH, PATCH, PATCH)
    padded = grid.transpose(0, 2, 1, 3).reshape(p_rows, p_cols)
    return np.ascontiguousarray(padded[:rows, :cols])


def load_bw_from_dram(image: np.ndarray, rows: int,
                      cols: int) -> np.ndarray:
    """Load the BW layout matrix from the same DRAM image.

    ``rows``/``cols`` are the FW matrix dimensions.  The load walks the
    patch grid transposed (patch (i, j) is consumed as patch (j, i)) and
    the TLU transposes each patch's interior (see
    :class:`~repro.fpga.tlu.TransposeLoadUnit`) — together this realises
    the full matrix transpose without a second DRAM copy.
    """
    p_rows, p_cols = _padded_shape(rows, cols)
    grid = np.asarray(image, dtype=np.float32).reshape(
        p_rows // PATCH, p_cols // PATCH, PATCH, PATCH)
    transposed = grid.transpose(1, 3, 0, 2).reshape(p_cols, p_rows)
    return np.ascontiguousarray(transposed[:cols, :rows])


def image_words(rows: int, cols: int, patch: int = PATCH) -> int:
    """Number of words the DRAM image occupies (with patch padding)."""
    p_rows, p_cols = _padded_shape(rows, cols, patch)
    return p_rows * p_cols
