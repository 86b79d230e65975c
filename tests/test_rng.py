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
        """Entry (r, i) of the rows from stream index k is draw (k + r) * n + i of stream 0."""
        sequential = rng.substream(7, rng.LABELS, 0).random(8 * 7)
        rows = rng.point_uniforms(7, rng.LABELS, 3, 5, 7)
        np.testing.assert_array_equal(rows, sequential[21:].reshape(5, 7))

    def test_permutation_invariance(self):
        """Rows requested one at a time, in any order, are the rows of one call."""
        together = rng.point_uniforms(7, rng.LABELS, 2, 50, 9)
        for r in np.random.default_rng(0).permutation(50):
            np.testing.assert_array_equal(rng.point_uniforms(7, rng.LABELS, 2 + r, 1, 9)[0],
                                          together[r])

    def test_empty(self):
        assert rng.point_uniforms(7, rng.LABELS, 0, 0, 5).shape == (0, 5)
        assert rng.point_uniforms(7, rng.LABELS, 4, 3, 0).shape == (3, 0)


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
# Stream 0 and indices whose offsets fill one, two and three 64-bit counter
# words at n = 9, reordered and repeated.
MIXED_INDICES = [7, 0, 2**62 + 5, 3, 2**62 - 1, 2**64, 2**66 + 1, 2**64 - 1, 2**128, 0, 2**70]
# Row lengths of 0 to 5 Philox blocks, at each remainder modulo 4, and a desk-size row.
DRAW_COUNTS = (0, 1, 3, 4, 6, 9, 15, 16, 17, 200)


def sequential_rows(seed, purpose, first, count, n):
    """The reference: rows first to first + count - 1 of one sequential draw of stream 0."""
    draws = rng.substream(seed, purpose, 0).random((first + count) * n)
    return draws.reshape(first + count, n)[first:]


def counter_rows(seed, purpose, first, count, n):
    """The reference at any offset: numpy's Philox for stream 0 with its 256-bit
    counter set to the block that holds draw first * n, read from that block on."""
    gen = rng.substream(seed, purpose, 0)
    blocks, rest = divmod(first * n, 4)
    state = gen.bit_generator.state
    state["state"]["counter"] = np.array([blocks >> 64 * w & 2**64 - 1 for w in range(4)],
                                         dtype=np.uint64)
    gen.bit_generator.state = state
    return gen.random(rest + count * n)[rest:].reshape(count, n)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestStreamPrefixesMatchNumpy:
    """point_uniforms cuts the stream substream(seed, purpose, 0) into rows of n
    draws and reaches the first row by one Philox skip; numpy's sequential draw,
    or its Philox with the counter set by hand, is the oracle."""

    @pytest.mark.parametrize("purpose", ORACLE_PURPOSES)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_first_300_streams(self, seed, purpose):
        """Rows 0 to 299, and rows 1 to 300 as draw_label_rows takes them."""
        for n in DRAW_COUNTS:
            for first in (0, 1):
                assert_same_bits(rng.point_uniforms(seed, purpose, first, 300, n),
                                 sequential_rows(seed, purpose, first, 300, n))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_one_stream_below_the_count_threshold(self, seed):
        """255 rows are the first 255 of 300 rows from the same stream index."""
        for purpose in ORACLE_PURPOSES:
            for n in DRAW_COUNTS:
                for first in (1, 13):
                    got = rng.point_uniforms(seed, purpose, first, 255, n)
                    assert_same_bits(got, rng.point_uniforms(seed, purpose, first, 300, n)[:255])

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_reordered_indices_of_several_words(self, seed):
        """Stream indices whose offset k * n passes 2**64 and 2**128, in any order."""
        assert_same_bits(counter_rows(seed, rng.LABELS, 13, 4, 9),
                         sequential_rows(seed, rng.LABELS, 13, 4, 9))
        for purpose in ORACLE_PURPOSES:
            for k in MIXED_INDICES:
                assert_same_bits(rng.point_uniforms(seed, purpose, k, 2, 9),
                                 counter_rows(seed, purpose, k, 2, 9))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_reordered_indices_of_several_words_vectorised(self, seed):
        """611 rows in one call whose offsets cross from one 64-bit counter word into
        two match the oracle, and so does each row requested alone, last first."""
        for purpose in ORACLE_PURPOSES:
            for n in (1, 6, 16):
                first = 2**66 // n - 300
                got = rng.point_uniforms(seed, purpose, first, 611, n)
                assert_same_bits(got, counter_rows(seed, purpose, first, 611, n))
                for r in range(610, -1, -61):
                    assert_same_bits(rng.point_uniforms(seed, purpose, first + r, 1, n), got[[r]])

    def test_no_streams(self):
        assert rng.point_uniforms(5, rng.LABELS, 1, 0, 4).shape == (0, 4)
        assert rng.point_uniforms(5, rng.LABELS, 1, 3, 0).shape == (3, 0)

    @pytest.mark.parametrize("count", [3, 300])
    def test_negative_draw_count_raises(self, count):
        with pytest.raises(ValueError):
            rng.point_uniforms(5, rng.LABELS, 1, count, -2)

    def test_bad_index_or_seed_raises(self):
        with pytest.raises(ValueError):
            rng.point_uniforms(5, rng.LABELS, -1, 3, 4)
        with pytest.raises(ValueError):
            rng.point_uniforms(5, rng.LABELS, 1, -3, 4)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                rng.point_uniforms(seed, rng.LABELS, 1, 3, 4)
