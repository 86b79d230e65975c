import numpy as np
import pytest

from labelregret import rng


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = rng.substream(42, rng.LABELS, 3).random(16)
        b = rng.substream(42, rng.LABELS, 3).random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        base = rng.substream(42, rng.LABELS, 3).random(16)
        for master, purpose, stream in [(43, rng.LABELS, 3), (42, rng.BOOTSTRAP_ROWS, 3),
                                        (42, rng.LABELS, 4)]:
            other = rng.substream(master, purpose, stream).random(16)
            assert not np.array_equal(base, other)


class TestPointUniforms:
    def test_positional_semantics(self):
        """The value for point i is draw i of the substream, however requested."""
        full = rng.point_uniforms(7, rng.LABELS, 0, np.arange(100))
        subset = rng.point_uniforms(7, rng.LABELS, 0, [5, 17, 99])
        np.testing.assert_array_equal(subset, full[[5, 17, 99]])

    def test_permutation_invariance(self):
        perm = np.random.default_rng(0).permutation(50)
        full = rng.point_uniforms(7, rng.LABELS, 2, np.arange(50))
        shuffled = rng.point_uniforms(7, rng.LABELS, 2, perm)
        np.testing.assert_array_equal(shuffled, full[perm])

    def test_empty(self):
        assert rng.point_uniforms(7, rng.LABELS, 0, []).size == 0


class TestDeriveMaster:
    def test_deterministic_and_distinct(self):
        a = rng.derive_master(9, rng.TRIAL, 0)
        b = rng.derive_master(9, rng.TRIAL, 0)
        c = rng.derive_master(9, rng.TRIAL, 1)
        assert a == b
        assert a != c
        assert 0 <= a < 2 ** 64


# Seeds of one and two 32-bit words at their edges, purposes 0, 1 and 5.
ORACLE_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]
ORACLE_PURPOSES = [rng.LABELS, rng.BOOTSTRAP_ROWS, rng.ACQUISITION_SCORE]
# Stream 0, indices of one, two and three spawn-key words, reordered and repeated.
MIXED_INDICES = [7, 0, 2**32 + 5, 3, 2**32 - 1, 2**32, 2**40 + 1, 2**64 - 1, 2**64, 0, 2**70]


def per_stream_prefixes(seed, purpose, indices, n):
    """The reference: one numpy SeedSequence and Philox per stream."""
    return np.array([rng.substream(seed, purpose, k).random(n) for k in indices]).reshape(
        len(indices), n)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


# Draw counts of 0 to 5 Philox blocks, on both sides of the vectorised path's
# limit of 16 draws, and a desk-size stream.
DRAW_COUNTS = (0, 1, 3, 4, 6, 9, 15, 16, 17, 200)


class TestStreamPrefixesMatchNumpy:
    """stream_prefixes keys all streams in one vectorised hash, then re-keys one
    Philox per stream or, for many short streams, runs Philox4x64-10 on all of
    them at once; numpy is the oracle of both paths."""

    @pytest.mark.parametrize("purpose", ORACLE_PURPOSES)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_first_300_streams(self, seed, purpose):
        """Vectorised up to 16 draws, re-keyed per stream beyond."""
        for n in DRAW_COUNTS:
            assert_same_bits(rng.stream_prefixes(seed, purpose, range(300), n),
                             per_stream_prefixes(seed, purpose, range(300), n))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_one_stream_below_the_count_threshold(self, seed):
        """255 streams are re-keyed per stream, and give the first rows of a vectorised call."""
        count = rng._VECTOR_MIN_STREAMS - 1
        for purpose in ORACLE_PURPOSES:
            for n in DRAW_COUNTS:
                got = rng.stream_prefixes(seed, purpose, range(count), n)
                assert_same_bits(got, per_stream_prefixes(seed, purpose, range(count), n))
                assert_same_bits(got, rng.stream_prefixes(seed, purpose, range(300), n)[:count])

    def test_the_call_shape_selects_the_path(self, monkeypatch):
        """At least 256 streams of at most 16 draws run the kernel, in parts of 256 to
        511 streams; every other call loops."""
        calls = []
        kernel = rng._philox_uniforms

        def counted(keys, n):
            calls.append((len(keys), n))
            return kernel(keys, n)

        monkeypatch.setattr(rng, "_philox_uniforms", counted)
        for count, n in [(256, 16), (256, 0), (1000, 1), (255, 16), (256, 17), (300, 200), (3, 4)]:
            assert rng.stream_prefixes(5, rng.LABELS, range(count), n).shape == (count, n)
        assert calls == [(256, 16), (256, 0), (334, 1), (333, 1), (333, 1)]

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_reordered_indices_of_several_words(self, seed):
        for purpose in ORACLE_PURPOSES:
            got = rng.stream_prefixes(seed, purpose, MIXED_INDICES, 9)
            assert_same_bits(got, per_stream_prefixes(seed, purpose, MIXED_INDICES, 9))
            subset = [2, 8, 5]
            assert_same_bits(rng.stream_prefixes(seed, purpose,
                                                 [MIXED_INDICES[j] for j in subset], 9),
                             got[subset])

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_reordered_indices_of_several_words_vectorised(self, seed):
        """MIXED_INDICES and a descending run across 2**32, so 611 streams in two kernel
        parts: the rows match numpy, and so do those of a reordered subset on either path."""
        indices = MIXED_INDICES + list(range(2**32 + 300, 2**32 - 300, -1))
        large = [j for j in reversed(range(len(indices))) if j % 17]  # 575 streams
        for purpose in ORACLE_PURPOSES:
            for n in (1, 6, 16):
                got = rng.stream_prefixes(seed, purpose, indices, n)
                assert_same_bits(got, per_stream_prefixes(seed, purpose, indices, n))
                for subset in (large, [2, 8, 5]):
                    assert_same_bits(rng.stream_prefixes(seed, purpose,
                                                         [indices[j] for j in subset], n),
                                     got[subset])

    def test_no_streams(self):
        assert rng.stream_prefixes(5, rng.LABELS, [], 4).shape == (0, 4)
        assert rng.stream_prefixes(5, rng.LABELS, range(3), 0).shape == (3, 0)

    @pytest.mark.parametrize("count", [3, 300])
    def test_negative_draw_count_raises(self, count):
        with pytest.raises(ValueError):
            rng.stream_prefixes(5, rng.LABELS, range(count), -2)

    def test_bad_index_or_seed_raises(self):
        with pytest.raises(ValueError):
            rng.stream_prefixes(5, rng.LABELS, [3, -1], 4)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                rng.stream_prefixes(seed, rng.LABELS, [3], 4)


class TestKeyedGenerators:
    """rng._rekeyed, the one re-keyed Generator of stream_prefixes' per-stream path."""

    @pytest.mark.parametrize("seed", [5, 2**64 - 1])
    def test_draws_match_substream_after_a_dirty_buffer(self, seed):
        """Each re-keyed stream starts clean, whatever the previous one left buffered."""
        draws = (lambda g: g.integers(0, 2**32, size=3),  # raw 32-bit words: no rejection
                 lambda g: g.integers(0, 37, size=37),  # bounded integers, by rejection
                 lambda g: g.random(2))
        keys = rng._philox_keys(seed, rng.BOOTSTRAP_ROWS, MIXED_INDICES)
        streams = rng._rekeyed(keys.tolist())
        for k, gen in zip(MIXED_INDICES, streams):
            expected = rng.substream(seed, rng.BOOTSTRAP_ROWS, k)
            for draw in draws:
                np.testing.assert_array_equal(draw(gen), draw(expected))
            gen.integers(0, 2**32, size=3)  # leave half a 64-bit word buffered
