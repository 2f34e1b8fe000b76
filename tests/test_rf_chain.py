"""Tests for the IQ mixer and parallel-Hammerstein PA models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xlic.rf_chain import IqImbalance, PaModel, apply_iq_mixer, apply_pa, transmit_chain


BALANCED = IqImbalance(gain=1.0, phase_rad=0.0)
UNIT_PA = PaModel(order=1, memory=0, taps=np.ones((1, 1)))


def chain_oracle(x, gain, phase, pa_taps_by_order, memory):
    """Straight-line scalar evaluation of the mixer + PA equations.

    Independent of the library path: explicit loops, no vectorization,
    gains computed from scratch.
    """
    k1 = 0.5 * (1 + gain * np.exp(1j * phase))
    k2 = 0.5 * (1 - gain * np.exp(1j * phase))
    mixed = [k1 * v + k2 * np.conj(v) for v in x]
    out = []
    for n in range(len(x)):
        acc = 0.0 + 0.0j
        for p, taps in pa_taps_by_order.items():
            for m in range(memory + 1):
                if n - m < 0:
                    continue
                v = mixed[n - m]
                acc += taps[m] * v * abs(v) ** (p - 1)
        out.append(acc)
    return np.array(out)


class TestIqImbalance:
    def test_gains_sum_to_one_in_configured_range(self):
        iq = IqImbalance(gain=1.07, phase_rad=-0.03)
        assert iq.direct_gain + iq.image_gain == 1.0 + 0.0j

    @given(
        gain=st.floats(0.9, 1.1),
        phase=st.floats(-0.1, 0.1),
    )
    def test_gain_sum_exact_and_direct_dominates(self, gain, phase):
        iq = IqImbalance(gain=gain, phase_rad=phase)
        assert iq.direct_gain + iq.image_gain == 1.0 + 0.0j
        assert abs(iq.direct_gain) > abs(iq.image_gain)

    @given(gain=st.floats(0.1, 5.0), phase=st.floats(-np.pi, np.pi))
    def test_gain_sum_machine_precision_wide_range(self, gain, phase):
        iq = IqImbalance(gain=gain, phase_rad=phase)
        assert abs(iq.direct_gain + iq.image_gain - 1.0) < 1e-14

    def test_balanced_mixer_is_identity(self, rng):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert_allclose(apply_iq_mixer(x, IqImbalance(1.0, 0.0)), x)

    def test_pure_imaginary_input_sees_gain_difference(self):
        # direct - image = gain for imaginary input with zero phase error
        y = apply_iq_mixer(np.array([1j]), IqImbalance(gain=1.1, phase_rad=0.0))
        assert_allclose(y, [1.1j], atol=1e-15)

    def test_real_input_unchanged_for_any_imbalance(self, rng):
        x = rng.standard_normal(64).astype(complex)
        y = apply_iq_mixer(x, IqImbalance(gain=1.08, phase_rad=0.07))
        assert_allclose(y, x, atol=1e-15)

    def test_real_linearity(self, rng):
        iq = IqImbalance(gain=0.93, phase_rad=0.04)
        x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        a, b = 1.7, -0.4
        assert_allclose(
            apply_iq_mixer(a * x + b * z, iq),
            a * apply_iq_mixer(x, iq) + b * apply_iq_mixer(z, iq),
            rtol=1e-13,
        )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            IqImbalance(gain=np.nan)


class TestPaModel:
    def test_identity_pa(self, rng):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert_allclose(apply_pa(x, UNIT_PA), x)

    def test_memoryless_cubic_example(self):
        pa = PaModel(order=3, memory=0, taps=np.array([[1.0], [-0.1]]))
        y = apply_pa(np.ones(4, dtype=complex), pa)
        assert_allclose(y, 0.9 * np.ones(4))

    def test_linear_memory_hand_convolution(self):
        pa = PaModel(order=1, memory=1, taps=np.array([[1.0, 0.5]]))
        assert_allclose(apply_pa(np.array([1.0, 0.0], dtype=complex), pa), [1.0, 0.5])

    def test_input_shorter_than_memory(self):
        # lags past the input's end contribute nothing, as with zero pre-history
        pa = PaModel(order=1, memory=3, taps=np.array([[1.0, 0.5, 0.25, 0.125]]))
        assert_allclose(apply_pa(np.array([1.0, 2.0], dtype=complex), pa), [1.0, 2.5])

    def test_linear_pa_superposition(self, rng):
        pa = PaModel(order=1, memory=3, taps=rng.standard_normal((1, 4)) * (0.5 + 0.25j))
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        a, b = 0.3 - 1.1j, 2.0 + 0.7j
        assert_allclose(
            apply_pa(a * x + b * z, pa),
            a * apply_pa(x, pa) + b * apply_pa(z, pa),
            rtol=1e-12,
        )

    def test_cubic_scaling_covariance(self, rng):
        # y(c*x) = c|c|^2 y(x) for a pure memoryless cubic branch
        pa = PaModel(order=3, memory=0, taps=np.array([[0.0], [-0.07 + 0.02j]]))
        x = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        c = 1.4 - 0.6j
        assert_allclose(
            apply_pa(c * x, pa), c * abs(c) ** 2 * apply_pa(x, pa), rtol=1e-12
        )

    def test_default_taps_linear_tap_dominates(self):
        from xlic.config import PaSettings

        pa = PaSettings().build()
        rest = np.abs(pa.taps).sum() - abs(pa.taps[0, 0])
        assert abs(pa.taps[0, 0]) > rest

    def test_rejects_even_order_and_bad_shape(self):
        with pytest.raises(ValueError):
            PaModel(order=2, memory=0, taps=np.ones((1, 1)))
        with pytest.raises(ValueError):
            PaModel(order=3, memory=1, taps=np.ones((1, 2)))


class TestTransmitChain:
    """``transmit_chain`` takes an ``(n_tx, n)`` stack and one impairment per antenna."""

    def test_ideal_chain_is_identity(self, rng):
        x = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
        y = transmit_chain(x, [BALANCED] * 2, [UNIT_PA] * 2)
        assert_allclose(y, x)

    def test_balanced_mixer_reduces_to_pa(self, rng):
        pa = PaModel(order=3, memory=0, taps=np.array([[1.0], [-0.05]]))
        x = rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30))
        assert_allclose(
            transmit_chain(x, [IqImbalance(1.0, 0.0)], [pa]), apply_pa(x, pa)
        )

    def test_matches_straight_line_oracle(self, rng):
        gain, phase, memory = 1.06, -0.08, 2
        taps = {
            1: [1.0 + 0.1j, 0.04, -0.02j],
            3: [-0.05 - 0.01j, 0.008, 0.003 + 0.002j],
        }
        pa = PaModel(order=3, memory=memory, taps=np.array([taps[1], taps[3]]))
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        expected = chain_oracle(x, gain, phase, taps, memory)
        got = transmit_chain(x[None, :], [IqImbalance(gain, phase)], [pa])
        assert got.shape == (1, 16)
        assert_allclose(got[0], expected, rtol=1e-12)

    def test_per_antenna_impairments(self, rng):
        x = rng.standard_normal((2, 25)) + 1j * rng.standard_normal((2, 25))
        iqs = [IqImbalance(1.02, 0.01), IqImbalance(0.97, -0.03)]
        pas = [UNIT_PA, PaModel(3, 0, np.array([[1.0], [-0.1]]))]
        y = transmit_chain(x, iqs, pas)
        assert_allclose(y[0], apply_pa(apply_iq_mixer(x[0], iqs[0]), pas[0]))
        assert_allclose(y[1], apply_pa(apply_iq_mixer(x[1], iqs[1]), pas[1]))

    def test_impairment_list_length_mismatch_rejected(self, rng):
        x = rng.standard_normal((3, 10)).astype(complex)
        with pytest.raises(ValueError, match="antenna count"):
            transmit_chain(x, [BALANCED] * 2, [UNIT_PA] * 3)
        with pytest.raises(ValueError, match="antenna count"):
            transmit_chain(x, [BALANCED] * 3, [UNIT_PA] * 4)
