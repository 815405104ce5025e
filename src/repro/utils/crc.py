"""Table-driven CRC engines for the three PHY frame formats.

* 802.11 frames carry a 32-bit FCS (CRC-32, reflected, poly 0x04C11DB7).
* 802.15.4 (ZigBee) frames carry a 16-bit FCS (CRC-16/CCITT, poly 0x1021,
  reflected, zero init).
* BLE packets carry a 24-bit CRC (poly 0x00065B, LFSR seeded per link;
  the advertising-channel seed 0x555555 is the default).

Each engine is bit-exact against the published reference vectors (see
``tests/utils/test_crc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

__all__ = ["Crc", "CRC32", "CRC16_CCITT", "CRC24_BLE"]


@dataclass(frozen=True)
class Crc:
    """A generic reflected-or-normal CRC defined by its classic parameters.

    :meth:`compute` is byte-at-a-time through one 256-entry table per
    engine, built on first use.  A reflected-input engine runs the
    reflected register (seeded with the reflected *init*), which equals
    the bit-reversal of the MSB-first register fed bit-reversed bytes.
    """

    width: int
    poly: int
    init: int
    refin: bool
    refout: bool
    xorout: int
    name: str = "crc"

    def _reflect(self, value: int, width: int) -> int:
        out = 0
        for _ in range(width):
            out = (out << 1) | (value & 1)
            value >>= 1
        return out

    @cached_property
    def _table(self) -> Tuple[int, ...]:
        """Register update for each value of the byte shifted out: LSB
        first (reflected polynomial) when *refin*, else MSB first."""
        mask = (1 << self.width) - 1
        table = []
        if self.refin:
            rpoly = self._reflect(self.poly, self.width)
            for i in range(256):
                reg = i
                for _ in range(8):
                    reg = (reg >> 1) ^ rpoly if reg & 1 else reg >> 1
                table.append(reg)
        else:
            topbit = 1 << (self.width - 1)
            for i in range(256):
                reg = i << (self.width - 8)
                for _ in range(8):
                    reg = ((reg << 1) ^ self.poly if reg & topbit
                           else reg << 1) & mask
                table.append(reg)
        return tuple(table)

    def compute(self, data: bytes, init: Optional[int] = None) -> int:
        """Return the CRC of *data* as an unsigned integer.

        *init* overrides the register seed (used by BLE, where the seed
        depends on the connection).
        """
        mask = (1 << self.width) - 1
        reg = self.init if init is None else init
        table = self._table
        if self.refin:
            reg = self._reflect(reg & mask, self.width)
            for byte in data:
                reg = (reg >> 8) ^ table[(reg ^ byte) & 0xFF]
            if not self.refout:
                reg = self._reflect(reg, self.width)
        else:
            shift = self.width - 8
            for byte in data:
                reg = ((reg << 8) & mask) ^ table[((reg >> shift) ^ byte) & 0xFF]
            if self.refout:
                reg = self._reflect(reg, self.width)
        return (reg ^ self.xorout) & mask

    def digest(self, data: bytes, init: Optional[int] = None) -> bytes:
        """CRC as little-endian bytes, the on-air order for all three PHYs."""
        value = self.compute(data, init=init)
        return value.to_bytes(self.width // 8, "little")

    def verify(self, data: bytes, received: int,
               init: Optional[int] = None) -> bool:
        """True when *received* equals the CRC of *data*."""
        return self.compute(data, init=init) == received


CRC32 = Crc(width=32, poly=0x04C11DB7, init=0xFFFFFFFF, refin=True,
            refout=True, xorout=0xFFFFFFFF, name="crc32/802.11-fcs")

CRC16_CCITT = Crc(width=16, poly=0x1021, init=0x0000, refin=True,
                  refout=True, xorout=0x0000, name="crc16/802.15.4-fcs")

CRC24_BLE = Crc(width=24, poly=0x00065B, init=0x555555, refin=True,
                refout=True, xorout=0x000000, name="crc24/ble")
