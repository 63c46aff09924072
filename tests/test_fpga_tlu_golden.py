"""Golden digests pin the BW parameter path and the TLU transpose.

Each digest is the first 16 hex digits of a SHA-256 over the shape,
dtype and bytes of every output array, then the ``repr`` of any
counters.  Two things are pinned:

* *BW loads* — ``ComputeUnit.load_bw_parameters`` for each layer of a
  seeded ``A3CNetwork``, read back from its Figure 7c DRAM image;
* *TLU streams* — ``TransposeLoadUnit.for_precision`` at the fp32,
  fp16 and int8 patch edges (16, 32, 64 words) transposing a seeded
  stream of patches, with ``patches_transposed``, ``words_loaded`` and
  ``transpose_cycles()`` after the stream.

The digests were recorded from the register-level shift-transpose
model the TLU once carried as a twin, and matched the vectorised path
bit for bit; they replace that twin as the oracle.  A change that moves
any word or counter fails here and prints the new digest.
"""

import hashlib

import numpy as np
import pytest

from repro.fpga.cu import ComputeUnit
from repro.fpga.layouts import dram_image_from_fw, fw_layout
from repro.fpga.tlu import TransposeLoadUnit
from repro.nn.network import A3CNetwork
from repro.precision import PRECISIONS

NETWORK_SEED = 11
STREAM_SEED = 23
STREAM_PATCHES = 5

BW_LOADS = {
    "Conv1": "1492bce3b59cb55f",
    "Conv2": "6db73e8d93c48dfd",
    "FC3": "18aadd0cf4b86cad",
    "FC4": "1c520c81cedc8e1f",
}

TLU_STREAMS = {
    "fp32": "f9675fb5240978c5",
    "fp16": "47bba8fd12eda26d",
    "int8": "9a30cfb2da7ad7a6",
}


def _digest(arrays, *counters) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(repr((array.shape, array.dtype.str)).encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    hasher.update(repr(counters).encode())
    return hasher.hexdigest()[:16]


@pytest.fixture(scope="module")
def network_images():
    network = A3CNetwork(num_actions=6)
    params = network.init_params(np.random.default_rng(NETWORK_SEED))
    return {spec.name: (spec, dram_image_from_fw(
                fw_layout(params[f"{spec.name}.weight"])))
            for spec in network.topology().layers}


def test_every_layer_is_pinned(network_images):
    assert set(network_images) == set(BW_LOADS)


@pytest.mark.parametrize("layer", sorted(BW_LOADS))
def test_bw_load_digest(network_images, layer):
    spec, image = network_images[layer]
    loaded = ComputeUnit("train").load_bw_parameters(image, spec)
    assert _digest([loaded]) == BW_LOADS[layer]


@pytest.mark.parametrize("precision", sorted(TLU_STREAMS))
def test_tlu_stream_digest(precision):
    tlu = TransposeLoadUnit.for_precision(PRECISIONS[precision])
    patches = np.random.default_rng(STREAM_SEED).standard_normal(
        (STREAM_PATCHES, tlu.patch * tlu.patch)).astype(np.float32)
    out = tlu.load_transposed(patches)
    assert _digest(out, tlu.patches_transposed, tlu.words_loaded,
                   tlu.transpose_cycles()) == TLU_STREAMS[precision]
