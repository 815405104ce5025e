"""802.11g/n ERP-OFDM receive chain with LTF channel estimation.

Mirrors the transmitter: OFDM-demodulate -> soft demap -> de-interleave
-> Viterbi -> descramble (seed recovered from the SERVICE field) ->
PSDU.  The receiver models a commodity chip in monitor mode, i.e. frames
with bad FCS are still delivered — exactly how the paper's MacBook Pro
decoder captures backscattered frames (section 3.1).

Pilot-based phase correction is configurable.  FreeRider relies on
chipsets (e.g. Broadcom BCM43xx) that do *not* re-derive phase from the
pilots; with ``pilot_correction=True`` this receiver faithfully erases
the tag's phase modulation, which is a useful negative control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs import forensics
from repro.utils.bits import bits_to_bytes
from repro.utils.crc import CRC32
from repro.phy.wifi.scrambler import Scrambler, periodic_keystream
from repro.phy.wifi.convolutional import CODE_802_11
from repro.phy.wifi.interleaver import (
    deinterleave_soft,
    deinterleave_soft_batch,
)
from repro.phy.wifi.constellation import CONSTELLATIONS
from repro.phy.wifi.ofdm import OfdmModulator, DATA_SUBCARRIERS, N_FFT
from repro.phy.wifi.plcp import (
    parse_signal_field,
    strip_service_and_tail,
    PlcpHeader,
    long_training_field,
)
from repro.phy.wifi.transmitter import PREAMBLE_SAMPLES

__all__ = ["WifiReceiver", "WifiDecodeResult", "recover_scrambler_state"]


def recover_scrambler_state(scrambled_service_bits: np.ndarray) -> int:
    """Derive the descrambler state from the first 7 SERVICE bits.

    The transmitter sends 7 zero bits first, so the received scrambled
    bits equal the keystream; after 7 steps the LFSR state *is* those 7
    outputs (newest in the LSB).
    """
    if scrambled_service_bits.size < 7:
        raise ValueError("need at least 7 service bits")
    state = 0
    for b in scrambled_service_bits[:7]:
        state = ((state << 1) | int(b)) & 0x7F
    return state


@dataclass
class WifiDecodeResult:
    """Everything the receiver knows about one decoded frame."""

    header: Optional[PlcpHeader]
    psdu: Optional[bytes]
    psdu_bits: Optional[np.ndarray]
    fcs_ok: bool
    header_ok: bool
    evm: float = float("nan")
    data_field_bits: Optional[np.ndarray] = None  # SERVICE+PSDU+tail+pad
    equalized_symbols: Optional[np.ndarray] = None  # (n_sym, 48) post-EQ
    # First receive stage that failed (forensics taxonomy), "ok" if none.
    stage: str = forensics.OK

    @property
    def ok(self) -> bool:
        """Frame fully decoded with a valid FCS."""
        return self.header_ok and self.fcs_ok


class WifiReceiver:
    """Decode PPDU waveforms produced by :class:`WifiTransmitter` (and
    possibly mangled by a channel and/or a FreeRider tag).

    Parameters
    ----------
    pilot_correction:
        Apply pilot-derived per-symbol phase correction (default False,
        matching the Broadcom behaviour the paper depends on).
    monitor_mode:
        Deliver frames whose FCS fails (default True, as in the paper).
    """

    def __init__(self, pilot_correction: bool = False, monitor_mode: bool = True):
        self.pilot_correction = pilot_correction
        self.monitor_mode = monitor_mode
        self._ofdm = OfdmModulator()

    # -- packet detection -----------------------------------------------

    def detect_start(self, samples: np.ndarray,
                     search_limit: Optional[int] = None,
                     threshold: float = 0.75) -> Optional[int]:
        """Locate a frame start via STF delayed autocorrelation.

        The short training field repeats every 16 samples, so the
        normalised autocorrelation metric

            m[n] = |sum_k x[n+k] conj(x[n+k+16])| / sum_k |x[n+k+16]|^2

        plateaus near 1 over the STF.  Returns the estimated index of
        the first STF sample, or None when no plateau clears
        *threshold* (no packet present).
        """
        x = np.asarray(samples)
        lag, win = 16, 128
        n_max = x.size - (win + lag)
        if search_limit is not None:
            n_max = min(n_max, search_limit)
        if n_max <= 0:
            return None
        corr = x[:-lag] * np.conj(x[lag:])
        power = np.abs(x[lag:]) ** 2
        kernel = np.ones(win)
        c = np.convolve(corr, kernel, mode="valid")
        p = np.convolve(power, kernel, mode="valid")
        with np.errstate(divide="ignore", invalid="ignore"):
            metric = np.abs(c) / np.maximum(p, 1e-12)
        metric = metric[:n_max]
        above = np.flatnonzero(metric > threshold)
        if above.size == 0:
            return None
        coarse = int(above[0])
        # Fine timing: matched-filter the known 160-sample STF template
        # around the coarse estimate; the full-overlap peak is exact.
        from repro.phy.wifi.plcp import short_training_field

        template = short_training_field()
        lo = max(coarse - 64, 0)
        hi = min(coarse + 256, x.size - template.size)
        if hi <= lo:
            return coarse
        best, best_val = coarse, -1.0
        t_norm = np.sqrt(np.sum(np.abs(template) ** 2))
        for n in range(lo, hi):
            seg = x[n:n + template.size]
            denom = t_norm * np.sqrt(np.sum(np.abs(seg) ** 2)) + 1e-12
            val = abs(np.vdot(template, seg)) / denom
            if val > best_val:
                best, best_val = n, val
        return best

    def decode_unaligned(self, samples: np.ndarray,
                         noise_var: float = 0.05) -> "WifiDecodeResult":
        """Detect the frame start, then decode from there."""
        start = self.detect_start(samples)
        if start is None:
            return WifiDecodeResult(None, None, None, False, False,
                                    stage=forensics.SYNC_FAIL)
        return self.decode(samples[start:], noise_var=noise_var)

    # -- channel estimation -------------------------------------------------

    def _estimate_channel(self, samples: np.ndarray) -> np.ndarray:
        """Per-subcarrier single-tap channel estimate from the two LTF
        repetitions; returns H over the 48 data subcarriers."""
        ltf_ref = long_training_field()
        rx_ltf = samples[160:320]
        ref_syms = [ltf_ref[32:96], ltf_ref[96:160]]
        rx_syms = [rx_ltf[32:96], rx_ltf[96:160]]
        h_grid = np.zeros(N_FFT, dtype=complex)
        count = np.zeros(N_FFT)
        for ref, rx in zip(ref_syms, rx_syms):
            ref_f = np.fft.fft(ref)
            rx_f = np.fft.fft(rx)
            nz = np.abs(ref_f) > 1e-6
            h_grid[nz] += rx_f[nz] / ref_f[nz]
            count[nz] += 1
        h_grid[count > 0] /= count[count > 0]
        h_grid[count == 0] = 1.0
        # Guard degenerate estimates (silent input) so the equaliser
        # never divides by ~zero.
        tiny = np.abs(h_grid) < 1e-9
        h_grid[tiny] = 1.0
        return h_grid

    # -- decoding -----------------------------------------------------------

    def decode(self, samples: np.ndarray,
               noise_var: float = 0.05) -> WifiDecodeResult:
        """Decode one frame whose STF starts at sample 0."""
        if samples.size < PREAMBLE_SAMPLES + 80:
            return WifiDecodeResult(None, None, None, False, False,
                                    stage=forensics.SYNC_FAIL)

        h_grid = self._estimate_channel(samples)

        header = self._decode_signal(samples, h_grid, noise_var)
        if header is None:
            return WifiDecodeResult(None, None, None, False, False,
                                    stage=forensics.HEADER_FAIL)

        n_sym = header.n_data_symbols
        data_start = PREAMBLE_SAMPLES + 80
        needed = data_start + n_sym * 80
        if samples.size < needed:
            return WifiDecodeResult(header, None, None, False, True,
                                    stage=forensics.FEC_FAIL)

        rate = header.rate
        const = rate.constellation
        wave = samples[data_start:needed]
        rx_syms, _ = self._ofdm.demodulate(wave, n_sym, first_index=1,
                                           pilot_correction=self.pilot_correction)
        h_data = np.array([h_grid[k % N_FFT] for k in DATA_SUBCARRIERS])
        rx_eq = rx_syms / h_data[None, :]

        llrs = const.demodulate_soft(rx_eq.ravel(), noise_var=noise_var)
        llrs = deinterleave_soft(llrs, rate.n_cbps, rate.n_bpsc)
        decoded = CODE_802_11.decode(llrs, rate.coding_rate, soft=True)

        state = recover_scrambler_state(decoded[:16])
        descrambler = Scrambler(state if state else 1)
        plain = decoded.copy()
        plain[7:] = descrambler.process(decoded[7:])
        plain[:7] = 0

        try:
            psdu_bits = strip_service_and_tail(plain, header.length_bytes)
        except ValueError:
            return WifiDecodeResult(header, None, None, False, True,
                                    stage=forensics.FEC_FAIL)
        psdu = bits_to_bytes(psdu_bits)

        fcs_ok = False
        if len(psdu) > 4:
            body, fcs = psdu[:-4], int.from_bytes(psdu[-4:], "little")
            fcs_ok = CRC32.verify(body, fcs)
        if not fcs_ok and not self.monitor_mode:
            return WifiDecodeResult(header, None, None, False, True,
                                    stage=forensics.CRC_FAIL)

        mean_evm = self._mean_evm(rx_eq, const)
        return WifiDecodeResult(header, psdu, psdu_bits, fcs_ok, True,
                                evm=mean_evm, data_field_bits=plain,
                                equalized_symbols=rx_eq,
                                stage=(forensics.OK if fcs_ok
                                       else forensics.CRC_FAIL))

    def decode_batch(self, waveforms: np.ndarray,
                     noise_vars: np.ndarray) -> List[WifiDecodeResult]:
        """Decode a (B, N) stack of equal-length frames at once.

        *noise_vars* is a scalar or per-frame array.  Channel
        estimation, SIGNAL decode, OFDM demodulation, soft demapping,
        de-interleaving and Viterbi all run batched; packets whose
        decoded headers agree on (rate, symbol count) share the heavy
        kernels, and per-frame bit work (descramble, FCS) runs on the
        decoded rows.  Every operation preserves the scalar arithmetic,
        so the results are bit-identical to ``[decode(w, nv) for ...]``.
        """
        wav = np.asarray(waveforms)
        if wav.ndim != 2:
            raise ValueError("decode_batch expects a (B, N) array")
        n_b = wav.shape[0]
        nv = np.broadcast_to(
            np.asarray(noise_vars, dtype=float), (n_b,))
        if n_b == 0:
            return []
        if wav.shape[1] < PREAMBLE_SAMPLES + 80:
            return [WifiDecodeResult(None, None, None, False, False,
                                     stage=forensics.SYNC_FAIL)
                    for _ in range(n_b)]

        h_grids = self._estimate_channel_batch(wav)
        headers = self._decode_signal_batch(wav, h_grids, nv)
        data_idx = np.array([k % N_FFT for k in DATA_SUBCARRIERS])
        h_data_all = h_grids[:, data_idx]

        results: List[Optional[WifiDecodeResult]] = [None] * n_b
        groups: "dict[tuple, list]" = {}
        data_start = PREAMBLE_SAMPLES + 80
        for i, header in enumerate(headers):
            if header is None:
                results[i] = WifiDecodeResult(None, None, None, False, False,
                                              stage=forensics.HEADER_FAIL)
                continue
            n_sym = header.n_data_symbols
            if wav.shape[1] < data_start + n_sym * 80:
                results[i] = WifiDecodeResult(header, None, None, False, True,
                                              stage=forensics.FEC_FAIL)
                continue
            # Noise can corrupt a header, so frames are regrouped by
            # what was *decoded*, not by what was sent.
            groups.setdefault((header.rate.mbps, n_sym), []).append(i)

        for (_, n_sym), members in groups.items():
            rows = np.asarray(members)
            rate = headers[rows[0]].rate
            const = rate.constellation
            # A group of every frame (the usual case) slices rather than
            # gathers, so the samples are not copied; the raw symbols
            # are dropped once equalised.  Both keep the peak working
            # set down.
            take = slice(None) if rows.size == n_b else rows
            rx_syms, _ = self._ofdm.demodulate_batch(
                wav[take, data_start:data_start + n_sym * 80], n_sym,
                first_index=1, pilot_correction=self.pilot_correction)
            rx_eq = rx_syms / h_data_all[rows][:, None, :]
            del rx_syms

            llrs = const.demodulate_soft_batch(
                rx_eq.reshape(rows.size, n_sym * len(DATA_SUBCARRIERS)),
                nv[rows])
            llrs = deinterleave_soft_batch(llrs, rate.n_cbps, rate.n_bpsc)
            decoded = CODE_802_11.decode_batch(llrs, rate.coding_rate,
                                               soft=True)

            for r, i in enumerate(members):
                results[i] = self._finish_data_frame(
                    headers[i], decoded[r], rx_eq[r], const)
        # Every index was filled by the header loop or its group above.
        return [res for res in results if res is not None]

    def _finish_data_frame(self, header: PlcpHeader, decoded: np.ndarray,
                           rx_eq: np.ndarray, const) -> WifiDecodeResult:
        """Shared tail of the data-field decode: descramble, strip,
        FCS-check and EVM for one frame's decoded bits."""
        state = recover_scrambler_state(decoded[:16])
        plain = decoded.copy()
        plain[7:] = np.bitwise_xor(
            decoded[7:],
            periodic_keystream(state if state else 1, decoded.size - 7))
        plain[:7] = 0

        try:
            psdu_bits = strip_service_and_tail(plain, header.length_bytes)
        except ValueError:
            return WifiDecodeResult(header, None, None, False, True,
                                    stage=forensics.FEC_FAIL)
        psdu = bits_to_bytes(psdu_bits)

        fcs_ok = False
        if len(psdu) > 4:
            body, fcs = psdu[:-4], int.from_bytes(psdu[-4:], "little")
            fcs_ok = CRC32.verify(body, fcs)
        if not fcs_ok and not self.monitor_mode:
            return WifiDecodeResult(header, None, None, False, True,
                                    stage=forensics.CRC_FAIL)

        mean_evm = self._mean_evm(rx_eq, const)
        return WifiDecodeResult(header, psdu, psdu_bits, fcs_ok, True,
                                evm=mean_evm, data_field_bits=plain,
                                equalized_symbols=rx_eq,
                                stage=(forensics.OK if fcs_ok
                                       else forensics.CRC_FAIL))

    def _estimate_channel_batch(self, waveforms: np.ndarray) -> np.ndarray:
        """Batched :meth:`_estimate_channel`: (B, N) waveforms to a
        (B, 64) per-subcarrier channel estimate."""
        ltf_ref = long_training_field()
        rx_ltf = waveforms[:, 160:320]
        ref_syms = [ltf_ref[32:96], ltf_ref[96:160]]
        rx_syms = [rx_ltf[:, 32:96], rx_ltf[:, 96:160]]
        n_b = waveforms.shape[0]
        h_grid = np.zeros((n_b, N_FFT), dtype=complex)
        count = np.zeros(N_FFT)
        for ref, rx in zip(ref_syms, rx_syms):
            ref_f = np.fft.fft(ref)
            rx_f = np.fft.fft(rx, axis=-1)
            nz = np.abs(ref_f) > 1e-6
            h_grid[:, nz] += rx_f[:, nz] / ref_f[nz]
            count[nz] += 1
        h_grid[:, count > 0] /= count[count > 0]
        h_grid[:, count == 0] = 1.0
        tiny = np.abs(h_grid) < 1e-9
        h_grid[tiny] = 1.0
        return h_grid

    def _decode_signal_batch(self, waveforms: np.ndarray,
                             h_grids: np.ndarray, noise_vars: np.ndarray
                             ) -> List[Optional[PlcpHeader]]:
        """Batched :meth:`_decode_signal` over all frames at once."""
        sig = waveforms[:, PREAMBLE_SAMPLES:PREAMBLE_SAMPLES + 80]
        syms, _ = self._ofdm.demodulate_batch(
            sig, 1, first_index=0, pilot_correction=self.pilot_correction)
        data_idx = np.array([k % N_FFT for k in DATA_SUBCARRIERS])
        eq = syms[:, 0, :] / h_grids[:, data_idx]
        llrs = CONSTELLATIONS["BPSK"].demodulate_soft_batch(eq, noise_vars)
        llrs = deinterleave_soft_batch(llrs, 48, 1)
        bits = CODE_802_11.decode_batch(llrs, (1, 2), soft=True)
        return [parse_signal_field(row) for row in bits]

    def _decode_signal(self, samples: np.ndarray, h_grid: np.ndarray,
                       noise_var: float) -> Optional[PlcpHeader]:
        sig_wave = samples[PREAMBLE_SAMPLES:PREAMBLE_SAMPLES + 80]
        syms, _ = self._ofdm.demodulate_symbol(sig_wave, 0,
                                               pilot_correction=self.pilot_correction)
        h_data = np.array([h_grid[k % N_FFT] for k in DATA_SUBCARRIERS])
        eq = syms / h_data
        llrs = CONSTELLATIONS["BPSK"].demodulate_soft(eq, noise_var=noise_var)
        llrs = deinterleave_soft(llrs, 48, 1)
        bits = CODE_802_11.decode(llrs, (1, 2), soft=True)
        return parse_signal_field(bits)

    @staticmethod
    def _mean_evm(rx_eq: np.ndarray, const) -> float:
        flat = rx_eq.ravel()
        d = np.abs(flat[:, None] - const.points[None, :])
        nearest = const.points[np.argmin(d, axis=1)]
        err = np.sqrt(np.mean(np.abs(flat - nearest) ** 2))
        ref = np.sqrt(np.mean(np.abs(nearest) ** 2))
        return float(err / ref) if ref > 0 else float("nan")
