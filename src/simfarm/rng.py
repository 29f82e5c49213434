"""Reproducible random streams.

All stochastic components draw from Philox4x64-10, a counter-based generator
whose streams are fully determined by a 128-bit key.  We key each stream with
``(seed, mixed_index)`` where ``mixed_index`` chains SplitMix64 over the
caller-supplied stream indices.  Distinct keys yield statistically independent
streams, so e.g. the column stream of factor ``j`` never changes when factors
are added, and per-row / per-configuration streams are invariant under
chunking or parallel scheduling.

The exact construction (so results reproduce anywhere):

* ``mix = 0``; for each index ``i``: ``mix = splitmix64(mix XOR (i mod 2^64))``
* ``splitmix64(z)``: ``z += 0x9E3779B97F4A7C15``;
  ``z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9``;
  ``z = (z ^ (z >> 27)) * 0x94D049BB133111EB``; ``z = z ^ (z >> 31)``
  (all arithmetic modulo 2^64)
* stream = ``numpy.random.Generator(numpy.random.Philox(key=[seed, mix]))``
"""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64", "stream_index", "substream", "first_standard_normals"]

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One SplitMix64 output step (Steele, Lea & Flood 2014) of ``z mod 2^64``.

    Python ints masked to 64 bits: the same words as :func:`_splitmix64_words`,
    at a tenth of the cost of a one-element array for a single value.
    """
    z = (int(z) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_index(*indices: int) -> int:
    """Fold stream indices into the 64-bit key word used beside the seed."""
    mix = 0
    for i in indices:
        mix = splitmix64(mix ^ (int(i) & _MASK64))
    return mix


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the stream ``(seed, *indices)``."""
    key = np.array([int(seed) & _MASK64, stream_index(*indices)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _splitmix64_words(z: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every word of a ``uint64`` array (which wraps mod 2^64)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def first_standard_normals(seed: int, indices) -> np.ndarray:
    """``substream(seed, i).standard_normal()`` for every ``i`` in ``indices``.

    Bit-identical to building each stream, but cheaper: the key words
    ``stream_index(i)`` come from one array pass, and one Philox bit generator
    and one Generator are reused: per index the state is reset to key
    ``[seed, stream_index(i)]`` and counter 0, with the output buffer marked
    as used up, which is exactly the state a fresh ``Philox(key=...)`` has.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":  # e.g. Python ints outside the int64 range
        idx = np.array([int(i) & _MASK64 for i in indices], dtype=np.uint64)
    keys = np.empty((len(idx), 2), dtype=np.uint64)
    keys[:, 0] = int(seed) & _MASK64
    keys[:, 1] = _splitmix64_words(idx.astype(np.uint64))  # int64 wraps like i mod 2^64

    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # Python ints: the state setter converts word by word, and NumPy scalars
    # make each conversion several times slower.
    fresh = {"counter": [0, 0, 0, 0], "key": None}
    state = {
        "bit_generator": "Philox",
        "state": fresh,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer used up: the first draw computes a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty(len(idx), dtype=np.float64)
    for j, key in enumerate(keys.tolist()):
        fresh["key"] = key
        bitgen.state = state
        out[j] = gen.standard_normal()
    return out
