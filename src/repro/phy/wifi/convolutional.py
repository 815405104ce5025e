"""Rate-1/2, constraint-length-7 convolutional code of 802.11 with
puncturing to rates 2/3 and 3/4, plus a hard/soft-decision Viterbi decoder.

Generator polynomials g0 = 133 (octal), g1 = 171 (octal) — equation (9)
of the FreeRider paper written out:

    C1[k] = b[k] ^ b[k-2] ^ b[k-3] ^ b[k-5] ^ b[k-6]
    C2[k] = b[k] ^ b[k-1] ^ b[k-2] ^ b[k-3] ^ b[k-6]

Like the scrambler, the coder is linear over GF(2): complementing an
all-ones input window complements the outputs, which is what lets a
FreeRider tag's phase-flip translation map decoded bits to their
complement (paper section 3.2.1).

Encoding is one XOR of shifted copies of the input per generator tap.
Decoding runs one Viterbi kernel for every stack size —
:meth:`ConvolutionalCode.decode` is a batch of one.  Path metrics are
state-major, ``(n_states, B)``: the shift-register butterfly makes the
predecessors of target ``j`` the states ``2j`` and ``2j + 1`` (mod
``n_states / 2``), so the predecessor gather is a strided view of
``pm`` and a trellis step is three whole-array ufunc calls (add,
compare, select) whatever B is.  Survivor decisions are bit-packed, and the
traceback walks Python ints when the stack is small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.utils.bits import as_bits

__all__ = ["ConvolutionalCode", "CODE_802_11", "PUNCTURE_PATTERNS"]

# Puncture patterns indexed by (numerator, denominator) of the coding rate.
# Pattern arrays mark which of the rate-1/2 output bits are transmitted.
PUNCTURE_PATTERNS: Dict[Tuple[int, int], np.ndarray] = {
    (1, 2): np.array([1, 1], dtype=np.uint8),
    (2, 3): np.array([1, 1, 1, 0], dtype=np.uint8),
    (3, 4): np.array([1, 1, 1, 0, 0, 1], dtype=np.uint8),
}

# Path-metric elements (n_states * B) per chunk of trellis steps: the
# chunk's gathered branch metrics and survivor bits stay cache-sized.
_CHUNK_ELEMENTS = 1 << 16
# Stacks up to this many rows trace back one row at a time on Python
# ints; larger stacks advance every row's state together in numpy.
_SCALAR_TRACEBACK_ROWS = 16


def _where_select(c0: np.ndarray, c1: np.ndarray, out: np.ndarray) -> None:
    """``out = np.where(c1 > c0, c1, c0)``: slot 0 wins ties, and a NaN
    in either candidate keeps slot 0."""
    np.copyto(out, np.where(c1 > c0, c1, c0))


@dataclass
class ConvolutionalCode:
    """K=7 convolutional code with numpy Viterbi decoding.

    The instance precomputes the state-transition tables once.
    """

    g0: int = 0o133
    g1: int = 0o171
    constraint_length: int = 7
    _tables: Optional[tuple] = field(default=None, repr=False, compare=False)
    _acs: Optional[np.ndarray] = field(default=None, repr=False,
                                       compare=False)

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

    def encode(self, bits, rate: Tuple[int, int] = (1, 2)) -> np.ndarray:
        """Encode *bits*; output is punctured to *rate*.

        The encoder starts in the all-zero state (the 802.11 SERVICE
        field's leading zeros flush it at the receiver).
        """
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        arr = as_bits(bits)
        k = self.constraint_length
        # padded[i + k - 1] = b[i]; register bit k-1-d holds b[i-d].
        padded = np.concatenate([np.zeros(k - 1, dtype=np.uint8), arr])
        coded = np.zeros(2 * arr.size, dtype=np.uint8)
        for out, gen in ((coded[0::2], self.g0), (coded[1::2], self.g1)):
            for d in range(k):
                if (gen >> (k - 1 - d)) & 1:
                    out ^= padded[k - 1 - d:k - 1 - d + arr.size]
        return self._puncture(coded, rate)

    def _puncture(self, coded: np.ndarray, rate: Tuple[int, int]) -> np.ndarray:
        pattern = PUNCTURE_PATTERNS[rate]
        if pattern.size == 2:  # rate 1/2: nothing removed
            return coded
        reps = int(np.ceil(coded.size / pattern.size))
        mask = np.tile(pattern, reps)[: coded.size].astype(bool)
        return coded[mask]

    def _acs_tables(self) -> np.ndarray:
        """Branch-metric table index of every trellis transition.

        ``next_state = ((b << (K-1)) | s) >> 1`` for every generator
        pair, so target ``j = b * half + i`` (``half = n_states / 2``) is
        reached from slot 0 ``s = 2i`` and slot 1 ``s = 2i + 1``, both
        with input bit ``b = j // half``.  Returns a ``(2, 2, half)``
        int array ``idx[slot, b, i]`` selecting, for that transition,
        the entry of the per-step table ``[le+lo, le-lo, -(le+lo),
        -(le-lo)]`` equal to its branch metric ``le*e0 + lo*e1`` (e0,
        e1 = +1 for an expected 0 bit, -1 for a 1).
        """
        if self._acs is not None:
            return self._acs
        _, out0, out1 = self._build_tables()
        half = self.n_states // 2
        idx = np.zeros((2, 2, half), dtype=np.intp)
        for slot in range(2):
            for b in range(2):
                for i in range(half):
                    o0 = int(out0[2 * i + slot, b])
                    o1 = int(out1[2 * i + slot, b])
                    # (e0, e1) = (+,+) -> 0, (+,-) -> 1, (-,-) -> 2,
                    # (-,+) -> 3.
                    idx[slot, b, i] = 2 * o0 + (o0 ^ o1)
        self._acs = idx
        return self._acs

    def decode(self, received, rate: Tuple[int, int] = (1, 2),
               soft: bool = False) -> np.ndarray:
        """Viterbi-decode *received* back to information bits.

        Parameters
        ----------
        received:
            Hard bits (0/1) when ``soft`` is False, else LLRs where
            positive means "bit 0 more likely" (matched-filter sign
            convention ``llr = +1`` for 0, ``-1`` for 1).
        rate:
            The puncturing rate the encoder used.
        soft:
            Select soft-metric decoding.
        """
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        if soft:
            llr = np.asarray(received, dtype=float)
        else:
            llr = 1.0 - 2.0 * as_bits(received).astype(float)
        return self._viterbi(llr.reshape(1, -1), rate)[0]

    def decode_batch(self, received, rate: Tuple[int, int] = (1, 2),
                     soft: bool = False) -> np.ndarray:
        """Viterbi-decode a batch of equal-length streams at once.

        *received* is a (B, L) array of hard bits or LLRs (one frame per
        row, same convention as :meth:`decode`); returns a (B, n_steps)
        uint8 array, row for row equal to :meth:`decode` of that row.
        """
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        block = np.atleast_2d(np.asarray(received))
        if block.ndim != 2:
            raise ValueError("decode_batch expects a (B, L) array")
        if soft:
            llr2 = np.asarray(block, dtype=float)  # read, never written
        else:
            llr2 = 1.0 - 2.0 * block.astype(float)
        if llr2.shape[0] == 0:
            return np.zeros((0, 0), dtype=np.uint8)
        return self._viterbi(llr2, rate)

    def _viterbi(self, llr2: np.ndarray, rate: Tuple[int, int]) -> np.ndarray:
        """Decode a (B, L) float LLR block; returns (B, n_steps) uint8."""
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
        return self._traceback(*self._forward(llr2, n_steps))

    def _forward(self, llr2: np.ndarray, n_steps: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Add-compare-select over all steps and rows.

        Returns the survivor decisions as a ``(n_steps, B, n_bytes)``
        uint8 array — one big-endian word per step and row whose bit
        ``8 * n_bytes - 1 - j`` is set when slot 1 survived into target
        state ``j`` — and the best final state of each row (first index
        of the maximum, like ``np.argmax``).

        Exactness against the per-transition formulation
        ``pm[pred] + (le*e0 + lo*e1)`` with ``np.where(c1 > c0, c1, c0)``:

        * multiplying by +/-1.0 is exact, ``(-a) + (-b) == -(a + b)``
          and ``(-a) + b == -(a - b)`` in IEEE arithmetic, so each
          table entry equals that transition's branch metric except
          possibly in the sign of a zero (or of a NaN);
        * a signed zero cannot reach a path metric: ``x + (+-0) == x``
          for every ``x`` that is not -0.0, and path metrics start at
          +0.0 / -inf and are sums of such values and branch metrics,
          so no candidate or path metric is ever -0.0;
        * the select is ``np.maximum`` only while every table entry
          seen so far is finite: path metrics are then never NaN
          (finite or +-inf plus finite), and on NaN-free candidates
          ``np.maximum`` equals ``np.where(c1 > c0, c1, c0)`` bit for
          bit (equal values can only differ in the sign of a zero,
          excluded above).  From the first non-finite entry on the
          select is :func:`_where_select`, which keeps slot 0 on ties
          and on NaN.
        """
        n = self.n_states
        half = n // 2
        n_batch = llr2.shape[0]
        idx = self._acs_tables()
        le, lo = llr2[:, 0::2].T, llr2[:, 1::2].T  # (n_steps, B) views

        pm = np.full((n, n_batch), -np.inf)
        pm[0] = 0.0
        # pm_pred[slot, 0, i] = pm[2i + slot], the predecessors of
        # targets i and half + i; pm_next[b, i] = pm[b*half + i].
        pm_pred = pm.reshape(half, 2, n_batch).transpose(1, 0, 2)[:, None]
        pm_next = pm.reshape(2, half, n_batch)
        cand = np.empty((2, 2, half, n_batch))  # [slot, b, i]
        c0, c1 = cand

        chunk = max(1, _CHUNK_ELEMENTS // (n * n_batch))
        table = np.empty((chunk, 4, n_batch))
        le_c, lo_c = np.empty((2, chunk, n_batch))
        bm = np.empty((chunk, 2, 2, half, n_batch))
        surv = np.empty((chunk, 2, half, n_batch), dtype=bool)
        packed = np.empty((n_steps, n_batch, -(-n // 8)), dtype=np.uint8)
        select: Callable[..., Any] = np.maximum
        for t0 in range(0, n_steps, chunk):
            m = min(chunk, n_steps - t0)
            tab, le_m, lo_m = table[:m], le_c[:m], lo_c[:m]
            np.copyto(le_m, le[t0:t0 + m])
            np.copyto(lo_m, lo[t0:t0 + m])
            np.add(le_m, lo_m, out=tab[:, 0])
            np.subtract(le_m, lo_m, out=tab[:, 1])
            np.negative(tab[:, :2], out=tab[:, 2:])
            if select is np.maximum and not np.isfinite(tab).all():
                select = _where_select
            # bm[k, slot, b, i]: branch metric into target b*half + i
            # from that slot at step t0 + k.
            np.take(tab, idx, axis=1, out=bm[:m], mode="clip")
            for bm_k, s in zip(bm[:m], surv[:m]):
                np.add(pm_pred, bm_k, out=cand)
                np.greater(c1, c0, out=s)
                select(c0, c1, out=pm_next)
            packed[t0:t0 + m] = np.packbits(np.ascontiguousarray(
                surv[:m].reshape(m, n, n_batch).transpose(0, 2, 1)), axis=-1)
        return packed, np.argmax(pm, axis=0)

    def _traceback(self, packed: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Walk the packed survivors back from each row's best state.

        The state before step t is ``((state & low) << 1) | slot`` and
        the bit decoded at t is the newest bit of the state after it.
        """
        n = self.n_states
        n_steps, n_batch, n_bytes = packed.shape
        top = 8 * n_bytes - 1  # word bit of state 0
        shift = self.constraint_length - 2  # state -> its newest bit
        low = n // 2 - 1
        dtype = {1: ">u1", 2: ">u2", 4: ">u4", 8: ">u8"}.get(n_bytes)
        if n_batch > _SCALAR_TRACEBACK_ROWS and n == 8 * n_bytes <= 64:
            # All rows at once on c = top - state, for which the slot
            # bit is (~word >> c) & 1 and the update stays three ops.
            inv = ~packed.view(dtype).reshape(n_steps, n_batch).astype(
                np.uint64)
            cs = np.empty((n_steps, n_batch), dtype=np.uint64)
            c = (top - best).astype(np.uint64)
            one, mask = np.uint64(1), np.uint64(low)
            for t in range(n_steps - 1, -1, -1):
                cs[t] = c
                slot = inv[t] >> c
                slot &= one
                c &= mask
                c <<= one
                c |= slot
            bits = (cs >> np.uint64(shift)) ^ one
            return bits.astype(np.uint8).T.copy()
        if dtype is not None:
            words = packed.view(dtype).reshape(n_steps, n_batch)
            rows = [words[:, r].tolist() for r in range(n_batch)]
        else:
            data = packed.tobytes()
            stride = n_batch * n_bytes
            rows = [[int.from_bytes(data[i:i + n_bytes], "big")
                     for i in range(r * n_bytes, len(data), stride)]
                    for r in range(n_batch)]
        decoded = np.empty((n_batch, n_steps), dtype=np.uint8)
        for r, word in enumerate(rows):
            out = bytearray(n_steps)
            state = int(best[r])
            for t in range(n_steps - 1, -1, -1):
                out[t] = state >> shift
                state = ((state & low) << 1) | ((word[t] >> (top - state)) & 1)
            decoded[r] = np.frombuffer(out, dtype=np.uint8)
        return decoded


CODE_802_11 = ConvolutionalCode()
