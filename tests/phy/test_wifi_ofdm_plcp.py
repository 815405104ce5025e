"""Tests for OFDM modulation and PLCP framing."""

import numpy as np
import pytest

from repro.phy.wifi.ofdm import (
    DATA_SUBCARRIERS,
    OfdmModulator,
    PILOT_POLARITY,
    PILOT_SUBCARRIERS,
    _unit_phasors,
)
from repro.phy.wifi.plcp import (
    build_ppdu_bits,
    build_signal_bits,
    long_training_field,
    parse_signal_field,
    short_training_field,
    strip_service_and_tail,
)
from repro.phy.wifi.rates import WIFI_RATES, rate_by_mbps


class TestSubcarrierPlan:
    def test_48_data_subcarriers(self):
        assert len(DATA_SUBCARRIERS) == 48

    def test_pilots_not_in_data(self):
        assert not set(PILOT_SUBCARRIERS) & set(DATA_SUBCARRIERS)

    def test_dc_unused(self):
        assert 0 not in DATA_SUBCARRIERS

    def test_pilot_polarity_length(self):
        assert PILOT_POLARITY.size == 127
        assert set(np.unique(PILOT_POLARITY)) == {-1, 1}


class TestOfdmRoundTrip:
    def test_symbol_round_trip(self, rng):
        mod = OfdmModulator()
        syms = (rng.normal(size=48) + 1j * rng.normal(size=48)) / np.sqrt(2)
        wave = mod.modulate_symbol(syms, symbol_index=3)
        assert wave.size == 80
        out, phasor = mod.demodulate_symbol(wave, symbol_index=3)
        assert np.allclose(out, syms, atol=1e-9)
        assert phasor == pytest.approx(1.0)

    def test_multi_symbol_round_trip(self, rng):
        mod = OfdmModulator()
        mat = (rng.normal(size=(5, 48)) + 1j * rng.normal(size=(5, 48)))
        wave = mod.modulate(mat, first_index=1)
        out, _ = mod.demodulate(wave, 5, first_index=1)
        assert np.allclose(out, mat, atol=1e-9)

    def test_cyclic_prefix_is_copy_of_tail(self, rng):
        mod = OfdmModulator()
        syms = rng.normal(size=48) + 0j
        wave = mod.modulate_symbol(syms, 0)
        assert np.allclose(wave[:16], wave[64:80])

    def test_phase_offset_detected_by_pilots(self, rng):
        """A tag-style phase flip rotates the pilot phasor by 180 deg —
        and pilot_correction=True erases the flip (the negative control
        of section 3.2.1)."""
        mod = OfdmModulator()
        syms = (1.0 - 2.0 * rng.integers(0, 2, 48)).astype(complex)
        wave = mod.modulate_symbol(syms, 1) * np.exp(1j * np.pi)
        out_raw, phasor = mod.demodulate_symbol(wave, 1)
        assert np.angle(phasor) == pytest.approx(np.pi, abs=1e-6)
        assert np.allclose(out_raw, -syms, atol=1e-9)
        out_corr, _ = mod.demodulate_symbol(wave, 1, pilot_correction=True)
        assert np.allclose(out_corr, syms, atol=1e-9)

    def test_wrong_sample_count_raises(self):
        with pytest.raises(ValueError):
            OfdmModulator().demodulate_symbol(np.zeros(40, complex), 0)


class TestPilotNormalisation:
    def test_bit_identical_to_python_complex_division(self, rng):
        # The reference is the scalar path's ``p / abs(p)`` per phasor,
        # over magnitudes 1e-3..1e3 plus zeros, signed zeros and
        # subnormals, the values where a vectorised form could round
        # differently.
        n = 20_000
        raw = 10 ** rng.uniform(-3, 3, n) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, n))
        edge = [0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                complex(-0.0, -0.0), complex(5e-324, 0.0),
                complex(-0.0, 3e-320), complex(1e-310, -2e-310),
                complex(-2.0, -0.0), complex(0.0, 7.5)]
        raw[:len(edge)] = edge
        raw = raw.reshape(100, 200)
        want = np.array([p / abs(p) if p != 0 else 1.0 + 0j
                         for p in map(complex, raw.ravel())])
        got = _unit_phasors(raw)
        assert got.shape == raw.shape
        assert np.array_equal(got.ravel().view(np.uint64),
                              want.view(np.uint64))


class TestSignalField:
    @pytest.mark.parametrize("mbps", sorted(WIFI_RATES))
    def test_round_trip(self, mbps):
        rate = rate_by_mbps(mbps)
        bits = build_signal_bits(rate, 1234)
        header = parse_signal_field(bits)
        assert header is not None
        assert header.rate.mbps == mbps
        assert header.length_bytes == 1234

    def test_parity_failure_returns_none(self):
        bits = build_signal_bits(rate_by_mbps(6.0), 100)
        bits[5] ^= 1
        assert parse_signal_field(bits) is None

    def test_zero_length_rejected_on_parse(self):
        bits = build_signal_bits(rate_by_mbps(6.0), 1)
        # force LENGTH=0 while fixing parity
        bits[5:17] = 0
        bits[17] = bits[:17].sum() % 2
        assert parse_signal_field(bits) is None

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            build_signal_bits(rate_by_mbps(6.0), 0)
        with pytest.raises(ValueError):
            build_signal_bits(rate_by_mbps(6.0), 4096)


class TestPpduBits:
    def test_structure(self):
        rate = rate_by_mbps(6.0)
        psdu = b"\xff" * 30
        bits, n_sym = build_ppdu_bits(psdu, rate)
        assert bits.size == n_sym * rate.n_dbps
        assert np.all(bits[:16] == 0)  # SERVICE zeros
        extracted = strip_service_and_tail(bits, 30)
        assert extracted.size == 240

    def test_strip_short_stream_raises(self):
        with pytest.raises(ValueError):
            strip_service_and_tail(np.zeros(50, dtype=np.uint8), 30)


class TestTrainingFields:
    def test_stf_periodicity(self):
        stf = short_training_field()
        assert stf.size == 160
        assert np.allclose(stf[:16], stf[16:32])

    def test_ltf_structure(self):
        ltf = long_training_field()
        assert ltf.size == 160
        assert np.allclose(ltf[32:96], ltf[96:160])
