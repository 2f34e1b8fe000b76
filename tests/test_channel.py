"""Tests for the multipath channel, AWGN, ADC and power accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from xlic.channel import (
    MultipathChannel,
    add_awgn,
    calibrate_channel_gain,
    dbm_to_watts,
    draw_channel,
    measure_power_dbm,
    propagate,
    quantize_adc,
)


class TestDrawChannel:
    def test_same_seed_identical(self):
        a = draw_channel(42, 3, 2, 5)
        b = draw_channel(42, 3, 2, 5)
        assert_array_equal(a.taps, b.taps)

    def test_shapes(self):
        ch = draw_channel(0, 1, 1, 1)
        assert ch.taps.shape == (1, 1, 1)

    def test_unit_variance_monte_carlo(self):
        # >= 1e5 taps with no path loss: empirical variance within 2% of 1
        ch = draw_channel(7, 10, 10, 1000)
        var = np.mean(np.abs(ch.taps) ** 2)
        assert 0.98 <= var <= 1.02

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            draw_channel(0, 0, 1, 1)


class TestPropagate:
    def test_single_unit_tap_passthrough(self, rng):
        tx = rng.standard_normal((1, 20)) + 1j * rng.standard_normal((1, 20))
        ch = MultipathChannel(np.ones((1, 1, 1)))
        assert_allclose(propagate(tx, ch), tx)

    def test_hand_convolution(self):
        ch = MultipathChannel(np.array([1.0, 0.5]).reshape(1, 1, 2))
        rx = propagate(np.array([[1.0, 0.0]], dtype=complex), ch)
        assert_allclose(rx, [[1.0, 0.5]])

    def test_zero_in_zero_out(self):
        ch = draw_channel(5, 2, 3, 4)
        rx = propagate(np.zeros((3, 12), dtype=complex), ch)
        assert_array_equal(rx, np.zeros((2, 12)))

    def test_complex_linearity(self, rng):
        ch = draw_channel(9, 2, 2, 3)
        x = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        z = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        a, b = 0.8 - 0.3j, -1.2 + 2.0j
        assert_allclose(
            propagate(a * x + b * z, ch),
            a * propagate(x, ch) + b * propagate(z, ch),
            rtol=1e-12,
        )

    def test_antenna_mismatch_rejected(self, rng):
        ch = draw_channel(1, 2, 2, 2)
        with pytest.raises(ValueError, match="antenna"):
            propagate(np.zeros((3, 10), dtype=complex), ch)


class TestAwgn:
    def test_disabled_noise_returns_input(self, rng):
        x = rng.standard_normal(100) + 0j
        assert_array_equal(add_awgn(x, -np.inf, 0), x)

    def test_noise_power_calibration(self):
        # measured power of the injected noise within +-0.1 dB over 1e6 samples
        x = np.zeros(1_000_000, dtype=complex)
        noisy = add_awgn(x, -90.0, 123)
        assert abs(measure_power_dbm(noisy) - (-90.0)) < 0.1

    def test_same_seed_identical(self, rng):
        x = rng.standard_normal(50) + 0j
        assert_array_equal(add_awgn(x, -80.0, 7), add_awgn(x, -80.0, 7))


class TestAdc:
    def test_zero_lands_on_half_step(self):
        q = quantize_adc(np.array([0.0 + 0.0j]), 12, 1.0)
        # mid-rise has no zero level: each rail lands half a step away
        assert abs(q[0].real) == pytest.approx(1.0 / 2**12)
        assert abs(q[0].imag) == pytest.approx(1.0 / 2**12)

    def test_saturation(self):
        q = quantize_adc(np.array([10.0 - 10.0j]), 4, 1.0)
        top = 1.0 - 2.0**-4  # full scale less half of the 2/16 step
        assert q[0] == pytest.approx(top - 1j * top)

    def test_half_amplitude_error_bound(self):
        q = quantize_adc(np.array([0.5 + 0.0j]), 12, 1.0)
        assert abs(q[0].real - 0.5) <= 2.0**-12

    @given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    def test_error_within_half_step_in_range(self, re, im):
        q = quantize_adc(np.array([re + 1j * im]), 8, 1.0)[0]
        half_step = 2.0**-8
        assert abs(q.real - re) <= half_step + 1e-12
        assert abs(q.imag - im) <= half_step + 1e-12

    def test_rejects_bad_config(self):
        # a derived full scale can be 0 (a silent capture); bits are checked at load
        for full_scale in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="full_scale must be > 0"):
                quantize_adc(np.ones(3, dtype=complex), 8, full_scale)


class TestPower:
    def test_unit_amplitude_is_30_dbm(self):
        assert measure_power_dbm(np.ones(10, dtype=complex)) == pytest.approx(30.0)

    def test_definition_inversion(self):
        x = np.full(100, np.sqrt(dbm_to_watts(-52.1)), dtype=complex)
        assert measure_power_dbm(x) == pytest.approx(-52.1)

    def test_scaling_by_sqrt10_adds_10_db(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert measure_power_dbm(np.sqrt(10) * x) == pytest.approx(
            measure_power_dbm(x) + 10.0
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            measure_power_dbm(np.array([]))


class TestCalibration:
    def _probe(self, rng, n_tx=2, n=2000):
        return rng.standard_normal((n_tx, n)) + 1j * rng.standard_normal((n_tx, n))

    def test_closed_loop_hits_target(self, rng):
        rx = propagate(self._probe(rng), draw_channel(11, 2, 2, 3))
        gain = calibrate_channel_gain(rx, -52.1)
        assert measure_power_dbm(rx * gain) == pytest.approx(-52.1, abs=0.05)

    def test_idempotent(self, rng):
        rx = propagate(self._probe(rng), draw_channel(11, 2, 2, 3))
        calibrated = rx * calibrate_channel_gain(rx, -60.0)
        factor = calibrate_channel_gain(calibrated, -60.0)
        assert 0.999 <= factor <= 1.001

    def test_invariant_to_prior_tap_scaling(self, rng):
        ch = draw_channel(11, 2, 2, 3)
        probe = self._probe(rng)
        a = propagate(probe, ch)
        b = propagate(probe, MultipathChannel(ch.taps * 2.0))
        a *= calibrate_channel_gain(a, -55.0)
        b *= calibrate_channel_gain(b, -55.0)
        assert measure_power_dbm(a) == pytest.approx(measure_power_dbm(b))

    def test_zero_probe_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            calibrate_channel_gain(np.zeros((1, 10), dtype=complex), -50.0)

    def test_underflowing_gain_rejected(self, rng):
        # a target far below the stack's power would scale the labels to 0
        rx = propagate(self._probe(rng), draw_channel(11, 2, 2, 3))
        with pytest.raises(ValueError, match=r"^calibration gain 0\.0 is not positive"):
            calibrate_channel_gain(rx, -7000.0)

    def test_gain_on_the_stack_equals_gain_on_the_taps(self, rng):
        # the calibration scales the received stack in place of every tap
        ch = draw_channel(11, 2, 2, 3)
        tx = rng.standard_normal((2, 500)) + 1j * rng.standard_normal((2, 500))
        gain = 3.7e-4
        assert_allclose(
            propagate(tx, MultipathChannel(ch.taps * gain)),
            gain * propagate(tx, ch),
            rtol=1e-12,
        )
