"""Full 802.11g/n ERP-OFDM transmit chain.

bytes -> [SERVICE|PSDU|tail|pad] -> scramble -> convolutional-encode ->
interleave -> QAM-map -> OFDM-modulate, preceded by STF/LTF training and
the SIGNAL symbol (Figure 6 of the paper, left side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.bits import bytes_to_bits
from repro.utils.rng import make_rng
from repro.phy.wifi.scrambler import Scrambler
from repro.phy.wifi.convolutional import CODE_802_11
from repro.phy.wifi.interleaver import interleave
from repro.phy.wifi.constellation import CONSTELLATIONS
from repro.phy.wifi.ofdm import OfdmModulator
from repro.phy.wifi.plcp import (
    build_ppdu_bits,
    build_signal_bits,
    long_training_field,
    short_training_field,
    TAIL_BITS,
)
from repro.phy.wifi.rates import WifiRate, rate_by_mbps

__all__ = ["WifiFrame", "WifiTransmitter", "SAMPLE_RATE_HZ"]

SAMPLE_RATE_HZ = 20e6
PREAMBLE_SAMPLES = 320  # STF (160) + LTF (160)


@dataclass
class WifiFrame:
    """A transmitted PPDU: the waveform plus everything a test or a
    FreeRider decoder needs to know about how it was built."""

    samples: np.ndarray
    rate: WifiRate
    psdu: bytes
    scrambler_seed: int
    n_data_symbols: int
    data_bits: np.ndarray = field(repr=False)  # unscrambled SERVICE+PSDU+tail+pad

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_us(self) -> float:
        return self.n_samples / SAMPLE_RATE_HZ * 1e6

    @property
    def data_start(self) -> int:
        """Sample index where the first DATA OFDM symbol begins."""
        return PREAMBLE_SAMPLES + 80  # preamble + SIGNAL symbol

    @property
    def psdu_bits(self) -> np.ndarray:
        return bytes_to_bits(self.psdu)


class WifiTransmitter:
    """Generates standard-conformant 802.11g/n PPDUs.

    Parameters
    ----------
    rate_mbps:
        One of the eight ERP-OFDM rates; the paper's evaluation uses 6.
    seed:
        RNG seed controlling per-frame scrambler seeds.
    """

    def __init__(self, rate_mbps: float = 6.0, seed: Optional[int] = None):
        self.rate = rate_by_mbps(rate_mbps)
        self._rng = make_rng(seed)
        self._ofdm = OfdmModulator()

    def build(self, psdu: bytes, scrambler_seed: Optional[int] = None) -> WifiFrame:
        """Construct the complete PPDU waveform for *psdu*."""
        if not psdu:
            raise ValueError("PSDU must be non-empty")
        if scrambler_seed is None:
            scrambler_seed = int(self._rng.integers(1, 128))

        data_bits, n_symbols = build_ppdu_bits(psdu, self.rate)

        # Scramble everything, then force the 6 tail bits (which follow
        # the PSDU) back to zero as the standard requires.
        scrambled = Scrambler(scrambler_seed).process(data_bits)
        tail_start = 16 + 8 * len(psdu)
        scrambled[tail_start:tail_start + TAIL_BITS] = 0

        coded = CODE_802_11.encode(scrambled, self.rate.coding_rate)
        interleaved = interleave(coded, self.rate.n_cbps, self.rate.n_bpsc)
        symbols = self.rate.constellation.modulate(interleaved)
        symbol_matrix = symbols.reshape(n_symbols, -1)
        data_wave = self._ofdm.modulate(symbol_matrix, first_index=1)

        signal_wave = self._build_signal_wave(len(psdu))
        preamble = np.concatenate([short_training_field(), long_training_field()])
        samples = np.concatenate([preamble, signal_wave, data_wave])
        return WifiFrame(samples=samples, rate=self.rate, psdu=psdu,
                         scrambler_seed=scrambler_seed,
                         n_data_symbols=n_symbols, data_bits=data_bits)

    def _build_signal_wave(self, length_bytes: int) -> np.ndarray:
        """SIGNAL symbol: 24 bits, BPSK, rate 1/2, never scrambled."""
        bits = build_signal_bits(self.rate, length_bytes)
        coded = CODE_802_11.encode(bits, (1, 2))
        interleaved = interleave(coded, 48, 1)
        syms = CONSTELLATIONS["BPSK"].modulate(interleaved)
        return self._ofdm.modulate_symbol(syms, symbol_index=0)

    def random_psdu(self, n_bytes: int) -> bytes:
        """Generate a random payload (models productive traffic)."""
        if n_bytes < 1:
            raise ValueError("payload must be at least 1 byte")
        draws = self._rng.integers(0, 256, size=n_bytes)
        return draws.astype(np.uint8).tobytes()
