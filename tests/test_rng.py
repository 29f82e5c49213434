import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simfarm import rng
from simfarm.doe import lhs_design
from simfarm.errors import InvalidArgumentError
from simfarm.rng import _splitmix64_words, first_standard_normals, splitmix64, stream_index
from simfarm.rng import read_ahead_normals, substream
from simfarm.simkit import navigation_factors


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
        assert first_standard_normals(1, []).shape == (0,)

    @pytest.mark.parametrize(
        "indices, named",
        [([1.5], "1.5"), ([3, float("nan")], "nan"), (np.array([2.0]), "2.0"), (["4"], "'4'")],
    )
    def test_non_integer_indices_are_refused_not_truncated(self, indices, named):
        with pytest.raises(InvalidArgumentError, match=f"must be an integer, got .*{named}"):
            first_standard_normals(7, indices)
        with pytest.raises(InvalidArgumentError, match=named):
            read_ahead_normals(7)(indices)

    @given(
        st.integers(0, 2**64 - 1),
        st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_drawn_seeds_and_indices(self, seed, indices):
        want, _ = reference(seed, indices)
        got = first_standard_normals(seed, indices)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPhiloxFirstWord:
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_random_raw_of_a_fresh_philox(self, seed, indices):
        mixes = [stream_index(i) for i in indices]
        got = rng._philox_first_words(seed, np.array(mixes, dtype=np.uint64))
        keys = [np.array([seed, mix], dtype=np.uint64) for mix in mixes]
        want = [int(np.random.Philox(key=key).random_raw()) for key in keys]
        assert got.dtype == np.uint64 and got.tolist() == want


class TestZigguratTables:
    """``ki`` and ``wi`` re-derived from the installed NumPy's ``standard_normal``.

    Philox's output buffer is set to one chosen word ``r = rabs << 9 | sign << 8
    | layer``.  A draw took the fast path only if it used exactly that word: the
    buffer advanced by one and the counter did not move (a tail draw can use up
    the buffer and refill it, which leaves ``buffer_pos`` at 1 as well).
    """

    COUNTER = [5, 0, 0, 0]

    @pytest.fixture(scope="class")
    def draw(self):
        bitgen = np.random.Philox(key=[0, 0])
        gen = np.random.Generator(bitgen)

        def draw(layer, rabs):
            # A second word 0 makes the wedge test accept: layer 1 never takes the fast path.
            bitgen.state = {
                "bit_generator": "Philox",
                "state": {"counter": self.COUNTER, "key": [0, 0]},
                "buffer": [rabs << 9 | layer, 0, 0, 0],
                "buffer_pos": 0,
                "has_uint32": 0,
                "uinteger": 0,
            }
            x = gen.standard_normal()
            state = bitgen.state
            fast = state["buffer_pos"] == 1 and state["state"]["counter"].tolist() == self.COUNTER
            return x, fast

        return draw

    def test_ki_is_the_first_rabs_the_fast_path_rejects(self, draw):
        derived = []
        for layer in range(256):
            lo, hi = -1, 1 << 52  # the fast path accepts rabs <= lo and rejects rabs >= hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if draw(layer, mid)[1] else (lo, mid)
            derived.append(hi)
        assert derived == rng._KI.tolist()
        assert derived[1] == 0 and 0 < min(derived[2:])  # only layer 1 never passes

    def test_wi_is_the_value_at_rabs_one(self, draw):
        derived = [draw(layer, 1)[0] for layer in range(256)]  # 1 * wi[layer], exact
        assert np.array_equal(np.array(derived).view(np.uint64), rng._WI.view(np.uint64))


class TestReadAhead:
    def test_every_index_set_matches_the_per_row_streams(self):
        normals = read_ahead_normals(11)
        index_sets = [
            np.arange(0, 100),  # draws the block [0, 4096)
            np.arange(100, 200),  # a slice of it
            np.arange(199, 99, -1),  # reversed
            np.array([5, 5, 5, 0]),  # repeated
            np.array([0, 2, 4096, 10]),  # not consecutive
            np.arange(4090, 4200),  # runs past the block: a new one from 4090
            np.arange(3, 8),  # before the block
            np.arange(0, 9000),  # longer than a block
            np.arange(8990, 9000),  # the tail of that block
            np.array([-2, -1, 0, 1], dtype=np.int64),  # consecutive mod 2^64
            np.array([0, 1, 2]),  # inside the wrapped block
            np.array([], dtype=np.int64),
            [2**64 - 1, 0],  # Python ints, consecutive mod 2^64
        ]
        for indices in index_sets:
            want, _ = reference(11, list(indices))
            got = normals(indices)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), indices

    def test_returns_a_copy_of_the_block(self):
        normals = read_ahead_normals(3)
        first = normals(np.arange(10))
        first[:] = 0.0
        assert np.array_equal(normals(np.arange(10)), first_standard_normals(3, np.arange(10)))


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

    @pytest.mark.parametrize("index", [1.5, float("nan"), np.float64(2.0), "3"])
    def test_non_integer_stream_index_is_refused(self, index):
        with pytest.raises(InvalidArgumentError, match="stream index must be an integer"):
            stream_index(0, index)
        with pytest.raises(InvalidArgumentError, match="stream index must be an integer"):
            substream(7, index)

    @pytest.mark.parametrize("seed, named", [
        (7.9, "7.9"), (7.0, "7.0"), (np.float64(3.7), "3.7"), (float("nan"), "nan"),
        ("7", "'7'"), (None, "None"),
    ])
    def test_non_integer_seed_is_refused_not_truncated(self, seed, named):
        message = f"seed must be an integer, got .*{named}"
        mixes = np.array([stream_index(0)], dtype=np.uint64)
        calls = [
            lambda: substream(seed, 0),
            lambda: first_standard_normals(seed, [0, 1]),
            lambda: first_standard_normals(seed, []),
            lambda: rng._philox_first_words(seed, mixes),
            lambda: rng._reset_per_row(seed, mixes),
            lambda: read_ahead_normals(seed),
            lambda: lhs_design(navigation_factors(), 5, seed=seed),
        ]
        for call in calls:
            with pytest.raises(InvalidArgumentError, match=message):
                call()

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7), True])
    def test_integer_seeds_of_any_type_keep_their_streams(self, seed):
        want = substream(int(seed), 2).random(4)
        assert np.array_equal(substream(seed, 2).random(4), want)
        assert np.array_equal(first_standard_normals(seed, np.arange(5)),
                              first_standard_normals(int(seed), np.arange(5)))
        assert np.array_equal(read_ahead_normals(seed)(np.arange(5)),
                              first_standard_normals(int(seed), np.arange(5)))

    def test_stream_index_matches_array_path(self):
        assert stream_index() == 0
        assert stream_index(1, 5) == 12773366489153039575
        for indices in ([1, 5], self.VALUES, [7, 0, 2**64 - 1, -(2**63)]):
            assert stream_index(*indices) == array_stream_index(*indices)
