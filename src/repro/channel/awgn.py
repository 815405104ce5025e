"""Additive white Gaussian noise with explicit SNR accounting."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dsp.measure import signal_power
from repro.utils.rng import make_rng

__all__ = ["awgn", "awgn_at_snr", "awgn_predraw", "awgn_apply_batch",
           "snr_from_powers", "noise_for_floor"]


def awgn(signal: np.ndarray, noise_power: float,
         rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Add complex AWGN of total power *noise_power* (linear)."""
    if noise_power < 0:
        raise ValueError("noise power must be non-negative")
    gen = make_rng(rng)
    sigma = np.sqrt(noise_power / 2)
    noise = gen.normal(0, sigma, len(signal)) + 1j * gen.normal(0, sigma, len(signal))
    return signal + noise


def awgn_at_snr(signal: np.ndarray, snr_db: float,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Add noise so that the output SNR (w.r.t. the input's measured
    power) equals *snr_db*."""
    p = signal_power(signal)
    noise_power = p / 10 ** (snr_db / 10)
    return awgn(signal, noise_power, rng)


def awgn_predraw(signal: np.ndarray, snr_db: float,
                 rng: Optional[np.random.Generator] = None):
    """Phase 1 of :func:`awgn_at_snr`: consume the generator now, defer
    the arithmetic.

    Returns ``(sigma, z_re, z_im)`` where the z's are standard-normal
    draws.  ``gen.normal(0, sigma, n)`` and ``sigma *
    gen.standard_normal(n)`` are bitwise-identical (same values, same
    generator state — numpy's normal is exactly the scale-multiply), so
    ``signal + (sigma * z_re + 1j * (sigma * z_im))`` reproduces
    :func:`awgn_at_snr` bit for bit while letting a batch caller stack
    many packets' scale-and-add into one vectorised pass
    (:func:`awgn_apply_batch`).
    """
    gen = make_rng(rng)
    p = signal_power(signal)
    noise_power = p / 10 ** (snr_db / 10)
    sigma = float(np.sqrt(noise_power / 2))
    n = len(signal)
    return sigma, gen.standard_normal(n), gen.standard_normal(n)


def awgn_apply_batch(signals: np.ndarray, sigmas: np.ndarray,
                     z_re: np.ndarray, z_im: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Phase 2: apply pre-drawn noise to a (B, N) signal stack.

    The broadcast multiply and elementwise complex add perform exactly
    the scalar path's per-element operations, so every row is
    bit-identical to ``awgn_at_snr`` on that row alone.  *out*, a
    complex (B, N) array, receives the result instead of a new array.
    """
    scale = np.asarray(sigmas, dtype=float)[:, None]
    return np.add(signals, scale * z_re + 1j * (scale * z_im), out=out)


def snr_from_powers(signal_dbm: float, noise_dbm: float) -> float:
    """SNR in dB from absolute powers."""
    return signal_dbm - noise_dbm


def noise_for_floor(n_samples: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Unit-power complex noise vector (scale externally)."""
    gen = make_rng(rng)
    return (gen.normal(0, np.sqrt(0.5), n_samples)
            + 1j * gen.normal(0, np.sqrt(0.5), n_samples))
