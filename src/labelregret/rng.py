"""Counter-based random substreams.

Every random quantity in the package is derived from a 64-bit master seed, an
integer purpose tag, and a stream index. The mapping is numpy's own:
SeedSequence(master_seed, spawn_key=(purpose, stream_index)) hashes the three
into a Philox4x64-10 key, generate_state(2, uint64), and the stream is that
Philox from counter 0, read through a numpy Generator (so the first uniform
is Generator.random()). The value for point i is always draw number i of its
substream, so outcomes never depend on evaluation order or on how many
substreams are drawn together.

substream builds one stream the numpy way, with a new SeedSequence and
Philox. stream_prefixes reproduces the same streams for many indices at once.
It computes every Philox key in one vectorised pass of the SeedSequence hash
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014). From the keys a stream is
reproduced in one of two ways:
- re-keying a single numpy Philox per stream (most calls);
- for a batch of many short streams, running the Philox4x64-10 rounds
  themselves on the counters of every stream at once (stream_prefixes).
  Philox is counter-based, so each block of four 64-bit outputs is a pure
  function of (key, counter) (Salmon, Moraes, Dror & Shaw, "Parallel random
  numbers: as easy as 1, 2, 3", SC 2011). The round multipliers and key
  increments are those of Random123's philox.h, which numpy's Philox uses.

The reproduction relies on numpy's stream-compatibility policy (NEP 19),
under which SeedSequence, the bit generators' streams and Generator.random's
conversion to doubles stay fixed across releases. If numpy ever changes
them, tests/test_rng.py, which compares every path with substream bit for
bit, fails.
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

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)

# Philox4x64-10 (Random123, philox.h): the multipliers of counter words 0 and
# 2, whole and in 32-bit halves, and the offset of round r's key from the
# first, r times the Weyl increments, as the key is bumped before each later
# round.
_PHILOX_ROUNDS = 10
_PHILOX_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_MULT_HALVES = (_PHILOX_MULT, _PHILOX_MULT & _LOW32, _PHILOX_MULT >> _SHIFT32)
_PHILOX_ROUND_BUMPS = np.array(
    [[[r * 0x9E3779B97F4A7C15 & _U64_MAX], [r * 0xBB67AE8584CAA73B & _U64_MAX]]
     for r in range(_PHILOX_ROUNDS)], dtype=np.uint64)  # (rounds, 2, 1)
# stream_prefixes runs those rounds itself on calls of at least this many
# streams of at most this many draws (4 Philox blocks). Below the count, the
# kernel's fixed cost of about 180 numpy calls loses to re-keying one Philox
# per stream; on longer streams the per-stream loop wins again.
_VECTOR_MIN_STREAMS = 256
_VECTOR_MAX_DRAWS = 16


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

    Row j equals substream(master_seed, purpose, stream_indices[j]).random(n)
    bit for bit, and so point_uniforms(master_seed, purpose,
    stream_indices[j], range(n)); a request for fewer or reordered streams
    returns exactly the rows the full request would. The keys of all rows
    come from one vectorised SeedSequence hash (see _philox_keys). A call
    of at least _VECTOR_MIN_STREAMS streams of at most _VECTOR_MAX_DRAWS draws
    computes the Philox blocks of all rows at once (_philox_uniforms), in
    parts of 256 to 511 rows that keep its working memory small; any other
    call re-keys one Philox per row. The rule reads only the call's shape,
    and both ways give the same bits. A negative n raises ValueError.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"draw count must be non-negative, got {n}")
    # list() sizes a range first: a count past the C ssize_t range raises
    # OverflowError there, before any memory is taken.
    keys = _philox_keys(_check_seed(master_seed), int(purpose), list(stream_indices))
    if len(keys) >= _VECTOR_MIN_STREAMS and n <= _VECTOR_MAX_DRAWS:
        parts = np.array_split(keys, len(keys) // _VECTOR_MIN_STREAMS)
        return np.concatenate([_philox_uniforms(part, n) for part in parts])
    out = np.empty((len(keys), n))
    for row, gen in zip(out, _rekeyed(keys.tolist())):
        gen.random(out=row)
    return out


def _philox_uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """Row j: the first n Generator.random draws of the Philox keyed keys[j].

    numpy's Philox raises its counter before it makes a block, so block b
    (b = 1, 2, ...) of a fresh stream is Philox4x64-10 of counter (b, 0, 0, 0)
    and holds draws 4(b-1) to 4b-1. Counter words 0 and 2 of every block of
    every stream form one (2, streams * blocks) uint64 array, words 1 and 3
    another, so each round is a few numpy calls over all of them; uint64
    arithmetic wraps without a warning, as Philox's does. A draw is
    (x >> 11) * 2**-53 of its 64-bit output x, as in Generator.random.
    """
    blocks = -(-n // 4)
    size = len(keys) * blocks
    round_keys = np.repeat(keys.T[None] + _PHILOX_ROUND_BUMPS, blocks, axis=2)
    # Full-size multipliers: a broadcast operand slows every product.
    mult, mult_lo, mult_hi = (np.repeat(m, size, axis=1) for m in _PHILOX_MULT_HALVES)
    even = np.zeros((2, size), dtype=np.uint64)  # counter words 0 and 2
    even[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(keys))
    odd = np.zeros((2, size), dtype=np.uint64)  # counter words 1 and 3
    for key in round_keys:
        # High 64 bits of mult * even, from the 32-bit halves: no partial sum passes 2**64.
        low, high = even & _LOW32, even >> _SHIFT32
        cross = mult_hi * low + (mult_lo * low >> _SHIFT32)
        carry = mult_lo * high + (cross & _LOW32)
        hi = mult_hi * high + (cross >> _SHIFT32) + (carry >> _SHIFT32)
        # (w0, w1, w2, w3) -> (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1, lo(M0 w0))
        even, odd = hi[::-1] ^ odd ^ key, (even * mult)[::-1]
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=1).reshape(len(keys), 4 * blocks)
    return np.multiply(words[:, :n] >> np.uint64(11), 2.0 ** -53)


def _rekeyed(keys: list):
    """One Generator, its Philox reset to each key in turn: counter 0, empty buffer."""
    gen = np.random.Generator(np.random.Philox(0))
    key_state = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": key_state,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        key_state["key"] = key
        gen.bit_generator.state = state
        yield gen


def _philox_keys(seed: int, purpose: int, stream_indices) -> np.ndarray:
    """(len(stream_indices), 2) uint64 Philox keys, one per stream index.

    Row j is SeedSequence(seed, spawn_key=(purpose, stream_indices[j]))
    .generate_state(2, np.uint64). The hash runs once for all streams: the
    words of the seed and the purpose are the same for every stream, and the
    stream indices, whose words come last, are mixed in a word at a time as
    uint32 arrays. An index of w 32-bit words takes its key after word w, so
    each round keys the streams whose words are used up and carries the rest.
    """
    indices = [operator.index(k) for k in stream_indices]
    keys = np.empty((len(indices), 2), dtype=np.uint64)
    if not indices:
        return keys
    if min(indices) < 0:
        raise ValueError(f"stream index must be non-negative, got {min(indices)}")
    # With a spawn key, SeedSequence pads the seed words to the pool size.
    seed_words = _words(seed)
    pool, const = _mix_entropy(seed_words + [0] * (_POOL_SIZE - len(seed_words)), _INIT_A)
    pool, const = _mix_in(pool, _words(purpose), const)
    rest = np.array(indices, dtype=np.uint64 if max(indices) <= _U64_MAX else object)
    rows = np.arange(len(indices))
    pool = [np.full(rows.size, word, dtype=np.uint32) for word in pool]
    while rows.size:
        pool, const = _mix_in(pool, [(rest & _MASK32).astype(np.uint32)], const)
        rest = rest >> 32
        done = rest == 0
        state = [word[done].astype(np.uint64) for word in _generate_state(pool)]
        keys[rows[done], 0] = state[0] | state[1] << np.uint64(32)
        keys[rows[done], 1] = state[2] | state[3] << np.uint64(32)
        rows, rest, pool = rows[~done], rest[~done], [word[~done] for word in pool]
    return keys


def _words(value: int) -> list:
    """value as SeedSequence splits an integer: 32-bit words, least significant first."""
    if value < 0:
        raise ValueError(f"SeedSequence words must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step; returns (hashed value, next hash constant).

    value is a Python int below 2**32 or a uint32 array; const is a Python int.
    """
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of two words; both Python ints, or both uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mix_entropy(words: list, const: int):
    """Hash the first pool-size entropy words into the pool and mix it through."""
    pool = []
    for word in words:
        hashed, const = _hashmix(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def _mix_in(pool: list, words: list, const: int):
    """Mix each entropy word beyond the pool size into every pool word."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def _generate_state(pool: list) -> list:
    """generate_state(4, uint32) of a pool: the four uint32 words of two uint64s."""
    const, state = _INIT_B, []
    for word in pool:
        hashed, const = _hashmix(word, const, _MULT_B)
        state.append(hashed)
    return state


def derive_master(master_seed: int, purpose: int, stream_index: int) -> int:
    """A fresh 64-bit master seed for a nested run (e.g. per-trial resampling)."""
    ss = np.random.SeedSequence(
        _check_seed(master_seed), spawn_key=(int(purpose), int(stream_index))
    )
    return int(ss.generate_state(1, np.uint64)[0])
