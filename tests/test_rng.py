import numpy as np
import pytest

from simfarm.rng import _splitmix64_words, first_standard_normals, splitmix64, stream_index
from simfarm.rng import substream


def reference(seed, indices):
    """The per-row path: one fresh stream per index, and the draws each consumed."""
    draws, used = [], []
    for i in indices:
        g = substream(seed, int(i))
        draws.append(g.standard_normal())
        used.append(g.bit_generator.state["buffer_pos"])
    return np.array(draws), np.array(used)


class TestFirstStandardNormals:
    # 100 000 rows in all, so the ziggurat's slow (rejection) branch runs many times
    CASES = [
        (7, np.arange(60_000)),
        (2**63 + 12345, np.arange(2**63 - 10_000, 2**63 + 10_000, dtype=np.uint64)),
        (2**64 - 1, np.arange(2**64 - 20_001, 2**64 - 1, dtype=np.uint64)),
    ]

    def test_bit_identical_to_per_row_streams(self):
        total = 0
        slow_branch = 0
        for seed, indices in self.CASES:
            want, used = reference(seed, indices.tolist())
            got = first_standard_normals(seed, indices)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            total += len(indices)
            slow_branch += int(np.count_nonzero(used > 1))
        assert total >= 100_000
        assert slow_branch > 100  # draws that took more than one 64-bit word

    def test_row_order_and_repeats(self):
        indices = [5, 3, 5, 0]
        got = first_standard_normals(11, indices)
        want, _ = reference(11, indices)
        assert np.array_equal(got, want)
        assert got[0] == got[2]

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
    def test_key_words_at_the_edges_of_the_index_range(self, seed):
        rng = np.random.default_rng(seed % 1000)
        indices = [0, 1, 2**31, 2**62, 2**63 - 1, *rng.integers(0, 2**63, 20).tolist()]
        want = np.array([substream(seed, i).standard_normal() for i in indices])
        for arr in (np.array(indices, dtype=np.int64), np.array(indices, dtype=np.uint64), indices):
            got = first_standard_normals(seed, arr)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_negative_and_out_of_int64_indices_wrap_mod_2_64(self):
        indices = [-1, -(2**63), 2**64 - 1, 2**63]
        want, _ = reference(3, indices)
        assert np.array_equal(first_standard_normals(3, indices), want)
        assert np.array_equal(first_standard_normals(3, np.array([-1], dtype=np.int64)), want[:1])

    def test_empty(self):
        assert first_standard_normals(1, np.empty(0, dtype=np.int64)).shape == (0,)


def array_stream_index(*indices):
    """:func:`stream_index` chained through the ``uint64`` array path."""
    mix = 0
    for i in indices:
        word = np.array([mix ^ (int(i) & (2**64 - 1))], dtype=np.uint64)
        mix = int(_splitmix64_words(word)[0])
    return mix


class TestSplitmix64:
    VALUES = [0, 1, 2**63, 2**64 - 1, -1, 2**70, np.int64(-5), np.uint64(2**64 - 1), np.int32(7)]

    @pytest.mark.parametrize("z", VALUES)
    def test_scalar_path_matches_array_path(self, z):
        want = int(_splitmix64_words(np.array([int(z) & (2**64 - 1)], dtype=np.uint64))[0])
        got = splitmix64(z)
        assert type(got) is int and got == want

    def test_stream_index_matches_array_path(self):
        assert stream_index() == 0
        assert stream_index(1, 5) == 12773366489153039575
        for indices in ([1, 5], self.VALUES, [7, 0, 2**64 - 1, -(2**63)]):
            assert stream_index(*indices) == array_stream_index(*indices)
