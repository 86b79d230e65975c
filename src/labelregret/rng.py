"""Counter-based random substreams.

Every random quantity in the package is derived from a 64-bit master seed, an
integer purpose tag, and a stream index, hashed through numpy's SeedSequence
into a Philox counter-based generator.  The value for point i is always draw
number i of its substream, so outcomes never depend on evaluation order or on
how many substreams are drawn together.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Distinct tags keep unrelated substreams of the same master
# seed disjoint.
LABELS = 0
BOOTSTRAP_ROWS = 1
POOL_SPLIT = 2
UNIFORM_ACQUISITION = 3
TRIAL = 4
ACQUISITION_SCORE = 5
FEATURES = 6
REFERENCE = 7

_U64_MAX = (1 << 64) - 1


def _check_seed(master_seed: int) -> int:
    seed = int(master_seed)
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"master seed must be an unsigned 64-bit integer, got {master_seed}")
    return seed


def substream(master_seed: int, purpose: int, stream_index: int) -> np.random.Generator:
    """Fresh generator for one (purpose, stream_index) substream."""
    if stream_index < 0:
        raise ValueError(f"stream index must be non-negative, got {stream_index}")
    ss = np.random.SeedSequence(
        _check_seed(master_seed), spawn_key=(int(purpose), int(stream_index))
    )
    return np.random.Generator(np.random.Philox(ss))


def point_uniforms(
    master_seed: int, purpose: int, stream_index: int, point_indices
) -> np.ndarray:
    """Uniform variates keyed per point.

    Entry j of the result is draw number point_indices[j] of the substream, so
    a permuted or partial request returns exactly the values the full request
    would assign to those points.
    """
    idx = np.asarray(point_indices, dtype=np.int64)
    if idx.size == 0:
        return np.empty(0)
    if idx.min() < 0:
        raise ValueError("point indices must be non-negative")
    prefix = substream(master_seed, purpose, stream_index).random(int(idx.max()) + 1)
    return prefix[idx]


def stream_prefixes(master_seed: int, purpose: int, stream_indices, n: int) -> np.ndarray:
    """Matrix whose row j holds the first n draws of substream stream_indices[j].

    Row j equals point_uniforms(master_seed, purpose, stream_indices[j],
    range(n)), so a request for fewer or reordered streams returns exactly
    the rows the full request would.
    """
    stream_indices = list(stream_indices)
    out = np.empty((len(stream_indices), n))
    for row, k in zip(out, stream_indices):
        substream(master_seed, purpose, k).random(out=row)
    return out


def derive_master(master_seed: int, purpose: int, stream_index: int) -> int:
    """A fresh 64-bit master seed for a nested run (e.g. per-trial resampling)."""
    ss = np.random.SeedSequence(
        _check_seed(master_seed), spawn_key=(int(purpose), int(stream_index))
    )
    return int(ss.generate_state(1, np.uint64)[0])
