"""The Viterbi kernel's internal seams against the frozen oracle.

``tests/phy/test_wifi_frozen.py`` pins the decoder at its default chunk
size and traceback threshold.  Here both are shrunk so that short
frames cross many chunk boundaries and every traceback (Python ints,
numpy words, arbitrary-width words) runs at every batch size, for
codes of constraint length 3, 4, 7 and 8.
"""

import numpy as np
import pytest

from repro.phy.wifi import convolutional
from repro.phy.wifi.convolutional import PUNCTURE_PATTERNS, ConvolutionalCode
from tests.phy.test_wifi_frozen import _OracleCode

pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")

CODES = {
    "k3": (0o5, 0o7, 3),
    "k4": (0o15, 0o17, 4),
    "k7": (0o133, 0o171, 7),
    "k8": (0o247, 0o371, 8),
}


def _block(rng, batch, length):
    out = rng.normal(0.0, 1.5, size=(batch, length))
    r = rng.random(out.shape)
    out[r < 0.05] = 0.0
    out[(r >= 0.05) & (r < 0.06)] = np.inf
    out[(r >= 0.06) & (r < 0.062)] = np.nan
    return out


@pytest.mark.parametrize("name", sorted(CODES))
@pytest.mark.parametrize("scalar_rows", [0, 64])
def test_small_chunks_match_oracle(monkeypatch, name, scalar_rows):
    g0, g1, k = CODES[name]
    code, oracle = ConvolutionalCode(g0, g1, k), _OracleCode(g0, g1, k)
    monkeypatch.setattr(convolutional, "_SCALAR_TRACEBACK_ROWS", scalar_rows)
    rng = np.random.default_rng(k * 10 + scalar_rows)
    for elements in (1, 300):
        monkeypatch.setattr(convolutional, "_CHUNK_ELEMENTS", elements)
        for batch in (1, 3, 9):
            for rate in sorted(PUNCTURE_PATTERNS):
                for kind in ("finite", "special"):
                    block = _block(rng, batch, 61)
                    if kind == "finite":
                        block = np.nan_to_num(block, posinf=3.0)
                    assert np.array_equal(
                        code.decode_batch(block, rate, soft=True),
                        oracle.decode_batch(block, rate, soft=True)), \
                        (elements, batch, rate, kind)


def test_noiseless_round_trip_every_code():
    rng = np.random.default_rng(3)
    for g0, g1, k in CODES.values():
        code = ConvolutionalCode(g0, g1, k)
        bits = rng.integers(0, 2, size=(20, 150)).astype(np.uint8)
        coded = np.stack([code.encode(row) for row in bits])
        assert np.array_equal(code.decode_batch(coded), bits)
        assert np.array_equal(code.decode(coded[0]), bits[0])


def test_encode_matches_shift_register():
    # The XOR-of-shifts encoder against a literal register walk.
    rng = np.random.default_rng(4)
    for g0, g1, k in CODES.values():
        code = ConvolutionalCode(g0, g1, k)
        bits = rng.integers(0, 2, size=97).astype(np.uint8)
        reg, want = 0, []
        for b in bits:
            reg = (int(b) << (k - 1)) | (reg >> 1)
            want += [bin(reg & g0).count("1") & 1,
                     bin(reg & g1).count("1") & 1]
        assert code.encode(bits).tolist() == want
