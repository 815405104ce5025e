"""The table-driven CRC engines against a bit-serial reference.

``_bit_serial`` is the textbook register-at-a-time definition of a CRC
from its classic parameters; every engine the simulator uses (and
normal-input variants) must agree with it on arbitrary data and seeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tagframe import CRC8
from repro.utils.crc import CRC16_CCITT, CRC24_BLE, CRC32, Crc


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def _bit_serial(crc: Crc, data: bytes, init: int) -> int:
    """One input bit per register update, MSB-first register."""
    topbit = 1 << (crc.width - 1)
    mask = (1 << crc.width) - 1
    reg = init & mask
    for byte in data:
        b = _reflect(byte, 8) if crc.refin else byte
        for k in range(7, -1, -1):
            feed = ((reg & topbit) != 0) ^ ((b >> k) & 1)
            reg = (reg << 1) & mask
            if feed:
                reg ^= crc.poly
    if crc.refout:
        reg = _reflect(reg, crc.width)
    return (reg ^ crc.xorout) & mask


ENGINES = [
    CRC32,
    CRC16_CCITT,
    CRC24_BLE,
    CRC8,
    Crc(width=8, poly=0x07, init=0x00, refin=False, refout=False,
        xorout=0x00, name="crc8/smbus"),
    Crc(width=16, poly=0x1021, init=0xFFFF, refin=False, refout=False,
        xorout=0x0000, name="crc16/ccitt-false"),
    Crc(width=32, poly=0x04C11DB7, init=0xFFFFFFFF, refin=False,
        refout=False, xorout=0xFFFFFFFF, name="crc32/bzip2"),
    Crc(width=16, poly=0x8005, init=0x0000, refin=True, refout=False,
        xorout=0x1234, name="mixed-in"),
    Crc(width=24, poly=0x864CFB, init=0xB704CE, refin=False, refout=True,
        xorout=0x000000, name="mixed-out"),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ENGINES), st.binary(min_size=0, max_size=300),
       st.integers(0, 2**32 - 1))
def test_table_matches_bit_serial(crc, data, seed):
    init = seed & ((1 << crc.width) - 1)
    assert crc.compute(data, init=init) == _bit_serial(crc, data, init)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ENGINES), st.binary(min_size=0, max_size=64))
def test_default_init_matches_bit_serial(crc, data):
    assert crc.compute(data) == _bit_serial(crc, data, crc.init)


def test_reference_check_values():
    # The reference itself against the published check values.
    assert _bit_serial(CRC32, b"123456789", CRC32.init) == 0xCBF43926
    assert _bit_serial(CRC16_CCITT, b"123456789", 0) == 0x2189
    assert _bit_serial(ENGINES[4], b"123456789", 0) == 0xF4


def test_table_built_once_per_engine():
    CRC32.compute(b"abc")
    assert CRC32._table is CRC32._table
    assert len(CRC32._table) == 256
