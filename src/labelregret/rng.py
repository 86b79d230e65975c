"""Counter-based random streams.

Every random quantity in the package is derived from a 64-bit master seed and
an integer purpose tag. The mapping to a stream is numpy's own:
SeedSequence(master_seed, spawn_key=(purpose, stream_index)) hashes the three
into a Philox4x64-10 key, and the stream is that Philox from counter 0, read
through a numpy Generator (substream).

Draws that come in many rows of one length, such as the label resamples of a
Monte Carlo batch, take one key per purpose: the stream substream(master_seed,
purpose, 0) is cut into consecutive rows of n draws, and the row at stream
index k holds its draws k*n to k*n + n - 1 (point_uniforms). The value for
point i of row k is always draw k*n + i, so outcomes never depend on
evaluation order or on how many rows are drawn together, and K rows are the
first K rows of any longer batch. Substreams laid out as consecutive blocks
of one stream are the standard alternative to one key per substream
(L'Ecuyer, Munger, Oreshkin & Simard, "Random numbers for parallel computers:
requirements and methods, with emphasis on GPUs", Math. Comput. Simul. 2017).
Philox is counter-based: each block of four 64-bit outputs is a pure function
of (key, counter), so any row is reached by an O(1) skip of the counter
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3",
SC 2011). A batch of rows then costs one key, one skip and one
Generator.random call, instead of a SeedSequence hash and a Philox per row.

The layout relies on numpy's stream-compatibility policy (NEP 19), under
which SeedSequence, Philox's stream and its advance, and Generator.random's
conversion of one 64-bit output to one double stay fixed across releases. If
numpy ever changes them, tests/test_rng.py, which compares point_uniforms
with a sequential draw bit for bit, fails.
"""

from __future__ import annotations

import operator

import numpy as np

# Purpose tags. Distinct tags keep unrelated substreams of the same master
# seed disjoint.
LABELS = 0
# Reserved: nothing draws from BOOTSTRAP_ROWS, kept so no later tag's streams move.
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


def point_uniforms(master_seed: int, purpose: int, stream_index: int,
                   n_rows: int, n: int) -> np.ndarray:
    """n_rows x n uniforms: the rows at stream indices stream_index to
    stream_index + n_rows - 1 of the purpose's stream cut into rows of n draws.

    Entry (r, i) is draw (stream_index + r) * n + i of substream(master_seed,
    purpose, 0), bit for bit. A negative stream index, row count or draw count
    raises ValueError.
    """
    start, n_rows, n = map(operator.index, (stream_index, n_rows, n))
    if min(start, n_rows, n) < 0:
        raise ValueError("stream index, row count and draw count must be non-negative, "
                         f"got {start}, {n_rows} and {n}")
    gen = substream(master_seed, purpose, 0)
    # Philox.advance counts blocks of four outputs, and Generator.random turns
    # one output into one double.
    blocks, rest = divmod(start * n, 4)
    gen.bit_generator.advance(blocks)
    gen.bit_generator.random_raw(rest)
    return gen.random((n_rows, n))


def derive_master(master_seed: int, purpose: int, stream_index: int) -> int:
    """A fresh 64-bit master seed for a nested run (e.g. per-trial resampling)."""
    ss = np.random.SeedSequence(
        _check_seed(master_seed), spawn_key=(int(purpose), int(stream_index))
    )
    return int(ss.generate_state(1, np.uint64)[0])
