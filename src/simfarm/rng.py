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
  (an index must be an integer; a float, even an integral one, is refused)
* ``splitmix64(z)``: ``z += 0x9E3779B97F4A7C15``;
  ``z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9``;
  ``z = (z ^ (z >> 27)) * 0x94D049BB133111EB``; ``z = z ^ (z >> 31)``
  (all arithmetic modulo 2^64)
* stream = ``numpy.random.Generator(numpy.random.Philox(key=[seed, mix]))``

Per-row noise, :func:`first_standard_normals`, is the first
``standard_normal()`` of the stream ``(seed, i)`` for every row index ``i``,
computed for many rows at once with the same bytes:

* NumPy increments the counter before its first block, so a fresh stream's
  first 64-bit word ``r`` is word 0 of Philox4x64-10 (Salmon et al. 2011) at
  counter ``[1, 0, 0, 0]`` and key ``[seed, mix]``.  The pass computes it in
  ``uint64`` arrays: the high word of each 64x64-bit product comes from
  32-bit halves, and the key is bumped by the Weyl constants between rounds.
* NumPy's ziggurat (Marsaglia & Tsang 2000) reads ``r`` as layer
  ``r & 0xff``, a sign bit and a 52-bit ``rabs``; its fast path returns
  ``x = ±rabs * wi[layer]`` iff ``rabs < ki[layer]``.  The two 256-entry
  tables below are NumPy's, read back from it (``tests/test_rng.py``
  re-derives them).
* A row that fails that test (about 1.5 %; layer 1 never passes) is drawn
  by resetting one Philox generator to its key, as a fresh stream would be.
* The pass runs ``_BLOCK_ROWS`` (4 096) rows at a time, so its temporaries stay
  small; :func:`read_ahead_normals` draws that many consecutive rows ahead
  and serves the following chunks of a campaign from the block, with the
  same bytes as drawing each chunk alone.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "splitmix64", "stream_index", "substream", "first_standard_normals", "read_ahead_normals",
]

_BLOCK_ROWS = 4096  # rows per vectorised pass, and per read-ahead block

_MASK64 = (1 << 64) - 1

# Philox4x64 round multipliers and Weyl key increments (Salmon et al. 2011).
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15  # bumps the seed word, one Python int for every row
_W1 = np.uint64(0xBB67AE8584CAA73B)  # bumps the per-row key words
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)

# NumPy's ziggurat tables for the standard normal (ki_double and wi_double).  They
# are parsed from text at import: 512 numeric literals take about 3 ms to compile,
# which every process pays when bytecode is not cached.
_KI = np.array([int(w, 16) for w in """
    EF33D8025EF6A 0000000000000 C08BE98FBC6A8 DA354FABD8142 E51F67EC1EEEA EB255E9D3F77E
    EEF4B817ECAB9 F19470AFA44AA F37ED61FFCB18 F4F469561255C F61A5E41BA396 F707A755396A4
    F7CB2EC28449A F86F10C6357D3 F8FA6578325DE F9724C74DD0DA F9DA907DBF509 FA360F581FA74
    FA86FDE5B4BF8 FACF160D354DC FB0FB6718B90F FB49F8D5374C6 FB7EC2366FE77 FBAECE9A1E50E
    FBDAB9D040BED FC03060FF6C57 FC2821037A248 FC4A67AE25BD1 FC6A2977AEE31 FC87AA92896A4
    FCA325E4BDE85 FCBCCE902231A FCD4D12F839C4 FCEB54D8FEC99 FD007BF1DC930 FD1464DD6C4E6
    FD272A8E2F450 FD38E4FF0C91E FD49A9990B478 FD598B8920F53 FD689C08E99EC FD76EA9C8E832
    FD848547B08E8 FD9178BAD2C8C FD9DD07A7ADD2 FDA9970105E8C FDB4D5DC02E20 FDBF95C5BFCD0
    FDC9DEBB99A7D FDD3B8118729D FDDD288342F90 FDE6364369F64 FDEEE708D514E FDF7401A6B42E
    FDFF46599ED40 FE06FE4BC24F2 FE0E6C225A258 FE1593C28B84C FE1C78CBC3F99 FE231E9DB1CAA
    FE29885DA1B91 FE2FB8FB54186 FE35B33558D4A FE3B799D0002A FE410E99EAD7F FE46746D47734
    FE4BAD34C095C FE50BAED29524 FE559F74EBC78 FE5A5C8E41212 FE5EF3E138689 FE6366FD91078
    FE67B75C6D578 FE6BE661E11AA FE6FF55E5F4F2 FE73E5900A702 FE77B823E9E39 FE7B6E37070A2
    FE7F08D774243 FE8289053F08C FE85EFB35173A FE893DC840864 FE8C741F0CEBC FE8F9387D4EF6
    FE929CC879B1D FE95909D388EA FE986FB939AA2 FE9B3AC714866 FE9DF2694B6D5 FEA0973ABE67C
    FEA329CF166A4 FEA5AAB32952C FEA81A6D5741A FEAA797DE1CF0 FEACC85F3D920 FEAF07865E63C
    FEB13762FEC13 FEB3585FE2A4A FEB56AE3162B4 FEB76F4E284FA FEB965FE62014 FEBB4F4CF9D7C
    FEBD2B8F449D0 FEBEFB16E2E3E FEC0BE31EBDE8 FEC2752B15A15 FEC42049DAFD3 FEC5BFD29F196
    FEC75406CEEF4 FEC8DD2500CB4 FECA5B6911F12 FECBCF0C427FE FECD38454FB15 FECE97488C8B3
    FECFEC47F91B7 FED1377358528 FED278F844903 FED3B10242F4C FED4DFBAD586E FED605498C3DD
    FED721D414FE8 FED8357E4A982 FED9406A42CC8 FEDA42B85B704 FEDB3C8746AB4 FEDC2DF416652
    FEDD171A46E52 FEDDF813C8AD3 FEDED0F909980 FEDFA1E0FD414 FEE06AE124BC4 FEE12C0D95A06
    FEE1E579006E0 FEE29734B6524 FEE34150AE4BC FEE3E3DB89B3C FEE47EE2982F4 FEE51271DB086
    FEE59E9407F41 FEE623528B42E FEE6A0B5897F1 FEE716C3E077A FEE7858327B82 FEE7ECF7B06BA
    FEE84D2484AB2 FEE8A60B66343 FEE8F7ACCC851 FEE94207E25DA FEE9851A829EA FEE9C0E13485C
    FEE9F557273F4 FEEA22762CCAE FEEA4836B42AC FEEA668FC2D71 FEEA7D76ED6FA FEEA8CE04FA0A
    FEEA94BE8333B FEEA950296410 FEEA8D9C0075E FEEA7E7897654 FEEA678481D24 FEEA48AA29E83
    FEEA21D22E4DA FEE9F2E352024 FEE9BBC26AF2E FEE97C524F2E4 FEE93473C0A3A FEE8E40557516
    FEE88AE369C7A FEE828E7F3DFD FEE7BDEA7B888 FEE749BFF37FF FEE6CC3A9BD5E FEE64529E007E
    FEE5B45A32888 FEE51994E57B6 FEE474A0006CF FEE3C53E12C50 FEE30B2E02AD8 FEE2462AD8205
    FEE175EB83C5A FEE09A22A1447 FEDFB27E349CC FEDEBEA76216C FEDDBE422047E FEDCB0ECE39D3
    FEDB964042CF4 FEDA6DCE938C9 FED937237E98D FED7F1C38A836 FED69D2B9C02B FED538D06AE00
    FED3C41DEA422 FED23E76A2FD8 FED0A732FE644 FECEFDA07FE34 FECD4100EB7B8 FECB708956EB4
    FEC98B61230C1 FEC790A0DA978 FEC57F50F31FE FEC356686C962 FEC114CB4B335 FEBEB948E6FD0
    FEBC429A0B692 FEB9AF5EE0CDC FEB6FE1C98542 FEB42D3AD1F9E FEB13B00B2D4B FEAE2591A02E9
    FEAAEAE992257 FEA788D8EE326 FEA3FCFFD73E5 FEA044C8DD9F6 FE9C5D62F563B FE9843BA947A4
    FE93F471D4728 FE8F6BD76C5D6 FE8AA5DC4E8E6 FE859E07AB1EA FE804F690A940 FE7AB488233C0
    FE74C751F6AA5 FE6E8102AA202 FE67DA0B6ABD8 FE60C9F38307E FE5947338F742 FE51470977280
    FE48BD436F458 FE3F9BFFD1E37 FE35D35EEB19C FE2B5122FE4FE FE20003995557 FE13C82788314
    FE068C4EE67B0 FDF82B02B71AA FDE87C57EFEAA FDD7509C63BFD FDC46E529BF13 FDAF8F82E0282
    FD985E1B2BA75 FD7E6EF48CF04 FD613ADBD650B FD40149E2F012 FD1A1A7B4C7AC FCEE204761F9E
    FCBA8D85E11B2 FC7D26ECD2D22 FC32B2F1E22ED FBD6581C0B83A FB606C4005434 FAC40582A2874
    F9E971E014598 F89FA48A41DFC F66C5F7F0302C F1A5A4B331C4A
""".split()], dtype=np.uint64)
_WI = np.array([float(w) for w in """
    8.683627060801306e-16 4.779330175727737e-17 6.354352417405262e-17 7.454870481247696e-17
    8.3293668157931e-17 9.068060405059482e-17 9.714860076567762e-17 1.0294750314241019e-16
    1.0823430288447684e-16 1.131147019610903e-16 1.176635945702292e-16 1.2193617278714363e-16
    1.2597439914637093e-16 1.2981099886264032e-16 1.3347203736824123e-16 1.3697864842571203e-16
    1.4034823001242382e-16 1.4359529452056943e-16 1.4673208742364422e-16 1.4976904668391037e-16
    1.5271515003596198e-16 1.5557818169460764e-16 1.5836494009290885e-16 1.6108140175274928e-16
    1.6373285203969853e-16 1.6632399058420835e-16 1.6885901708676596e-16 1.713417017655966e-16
    1.737754436586486e-16 1.7616331923000996e-16 1.7850812316976727e-16 1.8081240285799152e-16
    1.830784876482675e-16 1.853085138861802e-16 1.8750444639373882e-16 1.896680970077476e-16
    1.918011406483862e-16 1.9390512930625104e-16 1.9598150426628824e-16 1.9803160683128174e-16
    2.000566877627333e-16 2.0205791562071654e-16 2.0403638415480212e-16 2.0599311887403706e-16
    2.079290829041402e-16 2.0984518222370352e-16 2.1174227035760342e-16 2.1362115259449868e-16
    2.1548258978581458e-16 2.1732730177564367e-16 2.191559705042727e-16 2.2096924282235318e-16
    2.2276773304789553e-16 2.2455202529414355e-16 2.263226755928568e-16 2.280802138345017e-16
    2.2982514554424684e-16 2.3155795351040804e-16 2.3327909928004356e-16 2.3498902453470955e-16
    2.3668815235791604e-16 2.3837688840454243e-16 2.4005562198135063e-16 2.4172472704675025e-16
    2.433845631371103e-16 2.4503547622614954e-16 2.466777995232705e-16 2.4831185421610877e-16
    2.4993795016204524e-16 2.515563865329658e-16 2.5316745241713583e-16 2.547714273816944e-16
    2.563685819989397e-16 2.579591783392867e-16 2.5954347043351707e-16 2.6112170470670194e-16
    2.6269412038597256e-16 2.6426094988411895e-16 2.658224191608307e-16 2.6737874806323633e-16
    2.689301506472616e-16 2.704768354811995e-16 2.720190059327732e-16 2.735568604408679e-16
    2.7509059277301666e-16 2.7662039226963903e-16 2.781464440759544e-16 2.79668929362423e-16
    2.8118802553450207e-16 2.827039064324479e-16 2.842167425218406e-16 2.8572670107546015e-16
    2.87233946347098e-16 2.887386397378482e-16 2.9024093995538423e-16 2.9174100316669455e-16
    2.9323898314471816e-16 2.947350314092935e-16 2.9622929736280665e-16 2.977219284209029e-16
    2.992130701386013e-16 3.007028663321331e-16 3.0219145919680615e-16 3.036789894211802e-16
    3.051655962978219e-16 3.0665141783089545e-16 3.081365908408297e-16 3.0962125106629225e-16
    3.111055332636893e-16 3.125895713043999e-16 3.140734982699446e-16 3.1555744654528006e-16
    3.1704154791040285e-16 3.1852593363044065e-16 3.2001073454440114e-16 3.214960811527447e-16
    3.2298210370394156e-16 3.244689322801698e-16 3.2595669688230784e-16 3.2744552751437067e-16
    3.2893555426753697e-16 3.3042690740391284e-16 3.3191971744017523e-16 3.3341411523123725e-16
    3.3491023205407785e-16 3.364081996918765e-16 3.37908150518595e-16 3.394102175841489e-16
    3.409145347003126e-16 3.424212365275018e-16 3.4393045866258313e-16 3.454423377278584e-16
    3.4695701146137835e-16 3.4847461880874137e-16 3.499953000165381e-16 3.5151919672760744e-16
    3.53046452078274e-16 3.5457721079774357e-16 3.5611161930983884e-16 3.5764982583726505e-16
    3.59191980508603e-16 3.6073823546823514e-16 3.6228874498941915e-16 3.6384366559073444e-16
    3.65403156156137e-16 3.669673780588701e-16 3.685364952894914e-16 3.7011067458828983e-16
    3.716900855823823e-16 3.7327490092779435e-16 3.7486529645684887e-16 3.7646145133120287e-16
    3.7806354820089604e-16 3.7967177336979443e-16 3.8128631696783774e-16 3.829073731305243e-16
    3.8453514018609596e-16 3.8616982085091493e-16 3.878116224335587e-16 3.894607570481926e-16
    3.9111744183782054e-16 3.9278189920805415e-16 3.944543570720877e-16 3.9613504910761354e-16
    3.9782421502646826e-16 3.995221008578565e-16 4.012289592460629e-16 4.029450497636328e-16
    4.04670639241075e-16 4.0640600211422504e-16 4.0815142079049387e-16 4.0990718603532664e-16
    4.1167359738030257e-16 4.134509635544236e-16 4.1523960294026883e-16 4.170398440568316e-16
    4.1885202607101123e-16 4.206764993399015e-16 4.2251362598620494e-16 4.243637805093078e-16
    4.262273504347798e-16 4.2810473700531167e-16 4.2999635591638323e-16 4.3190263810026294e-16
    4.338240305622791e-16 4.357609972736849e-16 4.3771402012585875e-16 4.3968359995105214e-16
    4.4167025761542035e-16 4.4367453519065673e-16 4.456969972112043e-16 4.477382320247534e-16
    4.49798853244555e-16 4.518795013130059e-16 4.539808451870034e-16 4.561035841567422e-16
    4.582484498109567e-16 4.604162081631153e-16 4.626076619547846e-16 4.648236531543207e-16
    4.670650656712631e-16 4.693328283093329e-16 4.716279179838351e-16 4.739513632325867e-16
    4.763042480533137e-16 4.786877161048723e-16 4.811029753147417e-16 4.835513029411525e-16
    4.860340511450812e-16 4.885526531353603e-16 4.91108629959527e-16 4.937035980240335e-16
    4.963392774403987e-16 4.990175013091822e-16 5.017402260718089e-16 5.045095430818727e-16
    5.073276915733542e-16 5.101970732341562e-16 5.131202686306784e-16 5.161000557743228e-16
    5.191394311757699e-16 5.222416338000234e-16 5.254101724177597e-16 5.286488569504945e-16
    5.3196183453384e-16 5.353536311816497e-16 5.388292001334053e-16 5.423939782201712e-16
    5.46053951907478e-16 5.498157350892814e-16 5.536866612467876e-16 5.576748932926576e-16
    5.617895553555417e-16 5.660408920082422e-16 5.704404621291389e-16 5.750013768919895e-16
    5.797385945724594e-16 5.846692893455479e-16 5.898133176477899e-16 5.951938149641444e-16
    6.008379696271908e-16 6.067780409333449e-16 6.130527208725282e-16 6.197089894581626e-16
    6.268046963301284e-16 6.344122407127506e-16 6.426239659548055e-16 6.515603317344994e-16
    6.613827885097664e-16 6.723150462505587e-16 6.846803417564259e-16 6.98971833638762e-16
    7.159994934830664e-16 7.372424301798799e-16 7.658936370805573e-16 8.113849337656484e-16
""".split()])


def splitmix64(z: int) -> int:
    """One SplitMix64 output step (Steele, Lea & Flood 2014) of ``z mod 2^64``.

    Python ints masked to 64 bits: the same words as :func:`_splitmix64_words`,
    at a tenth of the cost of a one-element array for a single value.
    """
    z = (int(z) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _index_word(i, what: str = "stream index") -> int:
    """``i mod 2^64`` for an integer seed or stream index; anything else is refused."""
    try:
        return operator.index(i) & _MASK64
    except TypeError:
        raise InvalidArgumentError(f"{what} must be an integer, got {i!r}") from None


def stream_index(*indices: int) -> int:
    """Fold stream indices into the 64-bit key word used beside the seed."""
    mix = 0
    for i in indices:
        mix = splitmix64(mix ^ _index_word(i))
    return mix


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the stream ``(seed, *indices)``."""
    key = np.array([_index_word(seed, "seed"), stream_index(*indices)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _splitmix64_words(z: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every word of a ``uint64`` array (which wraps mod 2^64)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _index_words(indices) -> np.ndarray:
    """The stream indices as ``uint64`` words ``i mod 2^64``."""
    idx = np.asarray(indices)
    if idx.dtype.kind in "iu":
        return idx.astype(np.uint64)  # int64 wraps like i mod 2^64
    # e.g. Python ints outside the int64 range (which NumPy may make floats)
    return np.array([_index_word(i) for i in indices], dtype=np.uint64)


def _mulhi(m: int, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product ``m * b``, from 32-bit halves."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b0, b1 = b & _LOW32, b >> _32
    t = m0 * b1 + ((m0 * b0) >> _32)  # at most 2^64 - 2^32: no carry lost
    w = (t & _LOW32) + m1 * b0  # likewise
    return m1 * b1 + (t >> _32) + (w >> _32)


def _philox_first_words(seed: int, mixes: np.ndarray) -> np.ndarray:
    """Word 0 of Philox4x64-10 at counter ``[1, 0, 0, 0]`` and key ``[seed, mix]``
    for every ``mix``: the first ``random_raw()`` of a fresh ``Philox(key=...)``."""
    k0, k1 = _index_word(seed, "seed"), mixes
    # Round 1: of the products M0 * 1 and M1 * 0, only the low word M0 is not zero.
    c0 = np.full(len(mixes), k0, dtype=np.uint64)
    c1 = np.zeros(len(mixes), dtype=np.uint64)
    c2 = k1
    c3 = np.full(len(mixes), _M0, dtype=np.uint64)
    for _ in range(8):  # rounds 2 to 9
        k0 = (k0 + _W0) & _MASK64
        k1 = k1 + _W1
        c0, c1, c2, c3 = (
            _mulhi(_M1, c2) ^ c1 ^ np.uint64(k0),
            c2 * np.uint64(_M1),
            _mulhi(_M0, c0) ^ c3 ^ k1,
            c0 * np.uint64(_M0),
        )
    k0 = (k0 + _W0) & _MASK64
    return _mulhi(_M1, c2) ^ c1 ^ np.uint64(k0)  # round 10, word 0 only


def _reset_per_row(seed: int, mixes: np.ndarray) -> np.ndarray:
    """``standard_normal()`` of a fresh stream keyed ``[seed, mix]`` for every
    ``mix``: one Philox bit generator and one Generator, reset per key to
    counter 0 with the output buffer used up, the state a fresh
    ``Philox(key=...)`` has."""
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
    seed_word = _index_word(seed, "seed")
    out = np.empty(len(mixes), dtype=np.float64)
    for j, mix in enumerate(mixes.tolist()):
        fresh["key"] = [seed_word, mix]
        bitgen.state = state
        out[j] = gen.standard_normal()
    return out


def first_standard_normals(seed: int, indices) -> np.ndarray:
    """``substream(seed, i).standard_normal()`` for every ``i`` in ``indices``.

    Bit-identical to building each stream, by the construction in the module
    docstring: the Philox pass and the ziggurat's fast path in ``uint64``
    arrays, ``_BLOCK_ROWS`` rows at a time, and a per-row generator reset
    for the rows that path rejects.
    """
    seed = _index_word(seed, "seed")  # refused even when there are no indices
    mixes = _splitmix64_words(_index_words(indices))
    out = np.empty(len(mixes), dtype=np.float64)
    for start in range(0, len(mixes), _BLOCK_ROWS):
        block = mixes[start : start + _BLOCK_ROWS]
        r = _philox_first_words(seed, block)
        layer = (r & np.uint64(0xFF)).astype(np.intp)
        rabs = (r >> np.uint64(9)) & np.uint64(0xFFFFFFFFFFFFF)
        x = rabs.astype(np.float64) * _WI[layer]  # rabs < 2^52 converts exactly
        np.negative(x, out=x, where=(r & np.uint64(0x100)).astype(bool))
        rejected = rabs >= _KI[layer]
        if rejected.any():
            x[rejected] = _reset_per_row(seed, block[rejected])
        out[start : start + len(block)] = x
    return out


def read_ahead_normals(seed: int):
    """:func:`first_standard_normals` of ``seed`` as a function of the
    indices, drawing ahead for chunks of consecutive indices.

    It keeps the last block drawn.  A run of consecutive indices inside that
    block is a slice of it; any other run draws a new block of
    ``max(len, _BLOCK_ROWS)`` rows from its first index.  Any other index set
    is drawn exactly.  Every row has the same bytes as drawing it alone.
    """
    seed = _index_word(seed, "seed")  # refused here, not at the first draw
    last = (0, np.empty(0))  # (first index mod 2^64, its block of normals)

    def normals(indices) -> np.ndarray:
        nonlocal last
        words = _index_words(indices)
        n = len(words)
        if n == 0 or not (np.diff(words) == np.uint64(1)).all():  # uint64: mod 2^64
            return first_standard_normals(seed, words)
        first = int(words[0])
        start, block = last
        offset = (first - start) & _MASK64
        if offset + n > len(block):
            start, offset = first, 0
            span = np.arange(max(n, _BLOCK_ROWS), dtype=np.uint64)
            block = first_standard_normals(seed, np.uint64(first) + span)
            last = (start, block)
        return block[offset : offset + n].copy()

    return normals
