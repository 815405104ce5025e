"""Frozen WiFi oracle: transmit waveforms, a seeded sweep and the Viterbi
decoder pinned to exact values.

Three independent anchors, so any rewrite of the WiFi chain for speed
must stay bit-identical to the formulation it replaces:

* sha256 digests of the complete PPDU waveform of
  ``WifiTransmitter(r).build(psdu, scrambler_seed=s)`` for all eight
  ERP-OFDM rates (scrambler, K=7 coder, puncturing, interleaver,
  mapper and OFDM modulator all feed the digest);
* the exact ``LinkPoint`` fields of a small seeded WiFi
  ``execute_run`` (delivered, partly delivered and lost points);
* a differential test of ``ConvolutionalCode.decode`` and
  ``decode_batch`` against :class:`_OracleCode`, the per-step
  add-compare-select formulation kept verbatim below, over batch sizes,
  puncture rates, lengths, exact-zero LLRs, ties, +/-inf, NaN and a
  custom K=3 code.

This file is an oracle: it is not edited when the decoder changes.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.channel.geometry import Deployment
from repro.phy.wifi import WifiTransmitter
from repro.phy.wifi.convolutional import (
    CODE_802_11,
    PUNCTURE_PATTERNS,
    ConvolutionalCode,
)
from repro.sim.config import WIFI_CONFIG
from repro.sim.engine import ExperimentSpec, execute_run
from repro.utils.bits import as_bits

# inf - inf in a branch or path metric is part of what is pinned here.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")

# -- transmit waveforms ---------------------------------------------------

PSDU = bytes((i * 37 + 11) % 256 for i in range(100))

# rate (Mb/s) -> (scrambler seed, sha256 of samples.tobytes())
WAVEFORM_DIGESTS = {
    6.0: (1, "dc3f6d54fe06f403c0996566c1e284a02e6ba4f1a61a9f2af92f9429a70a642f"),
    9.0: (18, "3add6a3740b9ba8be18937080c3040cb470b09c4bdffe5ae0f72d4fad1c41560"),
    12.0: (35, "3419dfe68bdbc873055b0140b509ce550558f2d102fb76650bfec10a74d24710"),
    18.0: (52, "3d8d68b0d4275b78b6edb36ed37072fdfdf57209343b069b980620fe605be693"),
    24.0: (69, "be1e36710fda2593deb080e916c85a11133c6f5f102c597403e7e8c7dce938c0"),
    36.0: (86, "76663177aec7d0947a49e32c181c0eb9949dc3749f6ec2f30d7f3f34e511630c"),
    48.0: (103, "2d2fb068d673fcc637e4ed05667b7d4ab48de8d938bc1668ed1b2038608e0fc9"),
    54.0: (120, "9004f3b4bccfc51cc9ed7d029914d039c49064dedffd08308e6bd100b0d8c2a1"),
}


@pytest.mark.parametrize("rate", sorted(WAVEFORM_DIGESTS),
                         ids=[f"{r:g}Mbps" for r in sorted(WAVEFORM_DIGESTS)])
def test_transmit_waveform_digest(rate):
    seed, digest = WAVEFORM_DIGESTS[rate]
    frame = WifiTransmitter(rate).build(PSDU, scrambler_seed=seed)
    assert hashlib.sha256(frame.samples.tobytes()).hexdigest() == digest


# -- seeded sweep ---------------------------------------------------------

# (distance_m, throughput_kbps, ber, rssi_dbm, delivery_ratio, snr_db)
# as float.hex, then ber_valid.
FROZEN_POINTS = [
    (("0x1.4000000000000p+2", "0x1.de4d8412c3062p+5", "0x0.0p+0",
      "-0x1.1b1aec9b03787p+6", "0x1.0000000000000p+0",
      "0x1.831af622dde48p+4"), True),
    (("0x1.e000000000000p+4", "0x1.66ba230e1244ap+5", "0x0.0p+0",
      "-0x1.6cf391c305200p+6", "0x1.8000000000000p-1",
      "0x1.fb27ba2e52e40p+1"), True),
    (("0x1.5000000000000p+5", "0x0.0p+0", "nan",
      "-0x1.87a8665a08559p+6", "0x0.0p+0",
      "0x1.4d75124db2400p-3"), False),
]
POINT_FIELDS = ("distance_m", "throughput_kbps", "ber", "rssi_dbm",
                "delivery_ratio", "snr_db")


def test_seeded_wifi_run_points():
    spec = ExperimentSpec(config=WIFI_CONFIG, deployment=Deployment.los(1.0),
                          distances_m=(5, 30, 42), packets_per_point=4,
                          seed=17)
    points = execute_run(spec).points
    got = [(tuple(float(getattr(p, f)).hex() for f in POINT_FIELDS),
            bool(p.ber_valid)) for p in points]
    assert got == FROZEN_POINTS


# -- Viterbi oracle -------------------------------------------------------


class _OracleCode:
    """The per-step Viterbi formulation the decoder is pinned to.

    Table construction, depuncturing, the scalar ``decode`` and the
    batched ``decode_batch`` below are kept verbatim (bar this wrapper
    class) so they can serve as an independent oracle.
    """

    def __init__(self, g0: int = 0o133, g1: int = 0o171,
                 constraint_length: int = 7):
        self.g0 = g0
        self.g1 = g1
        self.constraint_length = constraint_length
        self._tables: Optional[tuple] = None
        self._acs: Optional[tuple] = None

    @property
    def n_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    def _parity(self, x: int) -> int:
        return bin(x).count("1") & 1

    def _build_tables(self):
        """next_state[s, b], out0[s, b], out1[s, b] for all 64 states."""
        if self._tables is not None:
            return self._tables
        n = self.n_states
        next_state = np.zeros((n, 2), dtype=np.int64)
        out0 = np.zeros((n, 2), dtype=np.uint8)
        out1 = np.zeros((n, 2), dtype=np.uint8)
        for s in range(n):
            for b in range(2):
                # Shift register: newest bit on the left (MSB side of the
                # K-bit window), matching the 802.11 convention where
                # state holds the previous K-1 input bits.
                reg = (b << (self.constraint_length - 1)) | s
                out0[s, b] = self._parity(reg & self.g0)
                out1[s, b] = self._parity(reg & self.g1)
                next_state[s, b] = reg >> 1
        self._tables = (next_state, out0, out1)
        return self._tables

    def _depuncture(self, llrs: np.ndarray, rate: Tuple[int, int]) -> np.ndarray:
        """Re-insert zeros (erasures) at punctured positions of an LLR
        stream; returns a multiple-of-2-length array."""
        pattern = PUNCTURE_PATTERNS[rate]
        if pattern.size == 2:
            out = llrs.astype(float)
        else:
            kept_per_period = int(pattern.sum())
            n_periods = int(np.ceil(llrs.size / kept_per_period))
            out = np.zeros(n_periods * pattern.size, dtype=float)
            mask = np.tile(pattern, n_periods).astype(bool)
            padded = np.zeros(int(mask.sum()), dtype=float)
            padded[: llrs.size] = llrs
            out[mask] = padded
        if out.size % 2:
            out = np.concatenate([out, [0.0]])
        return out

    def _acs_tables(self):
        """Predecessor layout for the add-compare-select recursion.

        Each target state has exactly two (predecessor, input-bit) pairs;
        the two slots are laid out as one flat length-2n axis (slot 0
        first) so one gather + one add covers both per step.  Returns
        ``(pred, pbit, pred_flat, exp0_flat, exp1_flat)`` where the
        ``exp*_flat`` vectors hold the expected (+/-1) coder outputs of
        each flat transition.
        """
        if self._acs is not None:
            return self._acs
        next_state, out0, out1 = self._build_tables()
        n = self.n_states
        # Branch metric of transition (s, b) at time t:
        # correlation of expected symbols (+1 for bit 0) with LLRs.
        exp0 = 1.0 - 2.0 * out0.astype(float)  # (n,2)
        exp1 = 1.0 - 2.0 * out1.astype(float)
        pred = np.zeros((n, 2), dtype=np.int64)
        pbit = np.zeros((n, 2), dtype=np.int64)
        fill = np.zeros(n, dtype=np.int64)
        for s in range(n):
            for b in range(2):
                tgt = next_state[s, b]
                pred[tgt, fill[tgt]] = s
                pbit[tgt, fill[tgt]] = b
                fill[tgt] += 1
        exp0_pred = exp0[pred, pbit]  # (n,2) expected first output symbol
        exp1_pred = exp1[pred, pbit]
        exp0_flat = np.concatenate([exp0_pred[:, 0], exp0_pred[:, 1]])
        exp1_flat = np.concatenate([exp1_pred[:, 0], exp1_pred[:, 1]])
        pred_flat = np.concatenate([pred[:, 0], pred[:, 1]])
        self._acs = (pred, pbit, pred_flat, exp0_flat, exp1_flat)
        return self._acs

    def decode(self, received, rate: Tuple[int, int] = (1, 2),
               soft: bool = False) -> np.ndarray:
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        if soft:
            llr = np.asarray(received, dtype=float)
        else:
            llr = 1.0 - 2.0 * as_bits(received).astype(float)
        llr = self._depuncture(llr, rate)
        n_steps = llr.size // 2
        if n_steps == 0:
            return np.zeros(0, dtype=np.uint8)

        n = self.n_states
        pred, pbit, pred_flat, exp0_flat, exp1_flat = self._acs_tables()

        path_metric = np.full(n, -np.inf)
        path_metric[0] = 0.0

        # All branch metrics up front in one vectorised pass over the
        # flat (n_steps, 2n) transition layout.
        bm_flat = (llr[0::2, None] * exp0_flat[None, :]
                   + llr[1::2, None] * exp1_flat[None, :])

        # choice[t, s]: which of the two predecessors of s survived at t.
        # Strict > matches np.argmax's first-index tie-breaking (slot 0
        # wins ties), keeping decodes bit-identical to the reference
        # per-step formulation.
        choices = np.zeros((n_steps, n), dtype=bool)
        cand = np.empty(2 * n)
        c0, c1 = cand[:n], cand[n:]
        for t in range(n_steps):
            np.take(path_metric, pred_flat, out=cand)
            cand += bm_flat[t]
            choice = np.greater(c1, c0, out=choices[t])
            path_metric = np.where(choice, c1, c0)

        # Traceback from the best final state.
        state = int(np.argmax(path_metric))
        decoded = np.zeros(n_steps, dtype=np.uint8)
        for t in range(n_steps - 1, -1, -1):
            slot = 1 if choices[t, state] else 0
            decoded[t] = pbit[state, slot]
            state = int(pred[state, slot])
        return decoded

    def decode_batch(self, received, rate: Tuple[int, int] = (1, 2),
                     soft: bool = False) -> np.ndarray:
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        block = np.atleast_2d(np.asarray(received))
        if block.ndim != 2:
            raise ValueError("decode_batch expects a (B, L) array")
        if soft:
            llr2 = block.astype(float)
        else:
            llr2 = 1.0 - 2.0 * block.astype(float)
        if llr2.shape[0] == 0:
            return np.zeros((0, 0), dtype=np.uint8)
        # Rows share a length, so depuncturing one row fixes the layout
        # for all of them (pure scatter: float values are untouched).
        pattern = PUNCTURE_PATTERNS[rate]
        if pattern.size > 2:
            kept = int(pattern.sum())
            n_periods = int(np.ceil(llr2.shape[1] / kept))
            mask = np.tile(pattern, n_periods).astype(bool)
            padded = np.zeros((llr2.shape[0], kept * n_periods))
            padded[:, : llr2.shape[1]] = llr2
            full = np.zeros((llr2.shape[0], n_periods * pattern.size))
            full[:, mask] = padded
            llr2 = full
        if llr2.shape[1] % 2:
            llr2 = np.concatenate(
                [llr2, np.zeros((llr2.shape[0], 1))], axis=1)
        n_batch, n_steps = llr2.shape[0], llr2.shape[1] // 2
        if n_steps == 0:
            return np.zeros((n_batch, 0), dtype=np.uint8)

        n = self.n_states
        pred, pbit, pred_flat, exp0_flat, exp1_flat = self._acs_tables()

        path_metric = np.full((n_batch, n), -np.inf)
        path_metric[:, 0] = 0.0
        llr_even = llr2[:, 0::2]
        llr_odd = llr2[:, 1::2]

        choices = np.zeros((n_steps, n_batch, n), dtype=bool)
        cand = np.empty((n_batch, 2 * n))
        c0, c1 = cand[:, :n], cand[:, n:]
        for t in range(n_steps):
            # bm[b, j] = llr_even[b, t]*exp0_flat[j] + llr_odd[b, t]*...
            # — per-element arithmetic identical to the scalar bm_flat.
            np.take(path_metric, pred_flat, axis=1, out=cand)
            cand += (llr_even[:, t, None] * exp0_flat[None, :]
                     + llr_odd[:, t, None] * exp1_flat[None, :])
            choice = np.greater(c1, c0, out=choices[t])
            path_metric = np.where(choice, c1, c0)

        # Traceback: advance all rows' states together.
        state = np.argmax(path_metric, axis=1)
        decoded = np.zeros((n_batch, n_steps), dtype=np.uint8)
        rows = np.arange(n_batch)
        for t in range(n_steps - 1, -1, -1):
            slot = choices[t, rows, state].astype(np.int64)
            decoded[:, t] = pbit[state, slot]
            state = pred[state, slot]
        return decoded


ORACLE_802_11 = _OracleCode()
ORACLE_K3 = _OracleCode(0o5, 0o7, 3)
K3 = ConvolutionalCode(0o5, 0o7, 3)
RATES = sorted(PUNCTURE_PATTERNS)


def _stream_len(n_steps: int, rate: Tuple[int, int]) -> int:
    """Received-stream length whose depunctured form spans *n_steps*."""
    pattern = PUNCTURE_PATTERNS[rate]
    kept = int(pattern.sum())
    return max(1, (2 * n_steps * kept) // pattern.size)


def _llrs(kind: str, shape, rng: np.random.Generator) -> np.ndarray:
    """LLR blocks exercising the decoder's awkward corners."""
    if kind == "gauss":
        return rng.normal(0.0, 2.0, size=shape)
    if kind == "ties":
        # Small integers: equal path metrics happen all the time.
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "zeros":
        out = rng.normal(0.0, 1.0, size=shape)
        out[rng.random(shape) < 0.4] = 0.0
        return out
    if kind == "inf":
        out = rng.normal(0.0, 1.0, size=shape)
        r = rng.random(shape)
        out[r < 0.01] = np.inf
        out[(r >= 0.01) & (r < 0.02)] = -np.inf
        return out
    if kind == "nan":
        out = rng.normal(0.0, 1.0, size=shape)
        r = rng.random(shape)
        out[r < 0.002] = np.nan
        out[(r >= 0.002) & (r < 0.006)] = np.inf
        return out
    raise ValueError(kind)


KINDS = ("gauss", "ties", "zeros", "inf", "nan")


class TestViterbiOracle:
    @pytest.mark.parametrize("rate", RATES, ids=str)
    @pytest.mark.parametrize("batch", [1, 2, 3, 17, 64])
    def test_batch_matches_oracle(self, batch, rate):
        rng = np.random.default_rng(1000 * batch + rate[1])
        for n_steps in (1, 5, 300):
            length = _stream_len(n_steps, rate)
            for kind in KINDS:
                block = _llrs(kind, (batch, length), rng)
                want = ORACLE_802_11.decode_batch(block, rate, soft=True)
                got = CODE_802_11.decode_batch(block, rate, soft=True)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (kind, n_steps)

    @pytest.mark.parametrize("rate", RATES, ids=str)
    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_long_frames_cross_chunks(self, batch, rate):
        # Thousands of steps: crosses every plausible internal chunking.
        rng = np.random.default_rng(77 + batch)
        for n_steps in (2600,):
            length = _stream_len(n_steps, rate)
            for kind in ("zeros", "inf"):
                block = _llrs(kind, (batch, length), rng)
                want = ORACLE_802_11.decode_batch(block, rate, soft=True)
                assert np.array_equal(
                    CODE_802_11.decode_batch(block, rate, soft=True), want)

    @pytest.mark.parametrize("rate", RATES, ids=str)
    def test_scalar_decode_matches_oracle(self, rate):
        rng = np.random.default_rng(5 + rate[0])
        for n_steps in (1, 2, 63, 64, 65, 1500):
            length = _stream_len(n_steps, rate)
            for kind in KINDS:
                llr = _llrs(kind, length, rng)
                want = ORACLE_802_11.decode(llr, rate, soft=True)
                got = CODE_802_11.decode(llr, rate, soft=True)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (kind, n_steps)

    @pytest.mark.parametrize("rate", RATES, ids=str)
    def test_hard_decisions_match_oracle(self, rate):
        rng = np.random.default_rng(11)
        for length in (1, 2, 3, 97, 800):
            bits = rng.integers(0, 2, size=(4, length)).astype(np.uint8)
            assert np.array_equal(CODE_802_11.decode_batch(bits, rate),
                                  ORACLE_802_11.decode_batch(bits, rate))
            assert np.array_equal(CODE_802_11.decode(bits[0], rate),
                                  ORACLE_802_11.decode(bits[0], rate))

    def test_all_zero_and_all_nan(self):
        for rate in RATES:
            for fill in (0.0, np.nan, np.inf, -np.inf):
                block = np.full((3, 120), fill)
                assert np.array_equal(
                    CODE_802_11.decode_batch(block, rate, soft=True),
                    ORACLE_802_11.decode_batch(block, rate, soft=True))
                assert np.array_equal(
                    CODE_802_11.decode(block[0], rate, soft=True),
                    ORACLE_802_11.decode(block[0], rate, soft=True))

    @pytest.mark.parametrize("batch", [1, 2, 17])
    def test_custom_k3_code(self, batch):
        rng = np.random.default_rng(300 + batch)
        for rate in RATES:
            for n_steps in (1, 7, 500):
                length = _stream_len(n_steps, rate)
                for kind in KINDS:
                    block = _llrs(kind, (batch, length), rng)
                    assert np.array_equal(
                        K3.decode_batch(block, rate, soft=True),
                        ORACLE_K3.decode_batch(block, rate, soft=True))
                    assert np.array_equal(
                        K3.decode(block[0], rate, soft=True),
                        ORACLE_K3.decode(block[0], rate, soft=True))

    def test_empty_inputs(self):
        assert np.array_equal(CODE_802_11.decode(np.zeros(0), soft=True),
                              ORACLE_802_11.decode(np.zeros(0), soft=True))
        assert CODE_802_11.decode_batch(np.zeros((0, 10)), soft=True).shape \
            == ORACLE_802_11.decode_batch(np.zeros((0, 10)), soft=True).shape
        assert CODE_802_11.decode_batch(np.zeros((3, 0)), soft=True).shape \
            == ORACLE_802_11.decode_batch(np.zeros((3, 0)), soft=True).shape
