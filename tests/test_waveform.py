"""Tests for the OFDM baseband generator."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from xlic.channel import measure_power_dbm
from xlic.waveform import OfdmConfig, generate_ofdm


def band_energy_fraction(x: np.ndarray, half_band: float) -> float:
    """Periodogram oracle: fraction of energy within +-half_band (cycles/sample) of DC."""
    spectrum = np.abs(np.fft.fft(x, axis=-1)) ** 2
    freqs = np.fft.fftfreq(x.shape[-1])
    mask = np.abs(freqs) <= half_band
    return float(spectrum[..., mask].sum() / spectrum.sum())


class TestOfdmConfig:
    def test_defaults_valid(self):
        cfg = OfdmConfig()
        assert cfg.symbol_len == 1024 + 72

    def test_cp_length_bound(self):
        with pytest.raises(ValueError, match="cp_len"):
            OfdmConfig(cp_len=1024)


class TestGenerateOfdm:
    CFG = OfdmConfig()

    def test_tx_power_exact(self):
        x = generate_ofdm(self.CFG, 4, 20000, 47.0, seed=3)
        assert measure_power_dbm(x) == pytest.approx(47.0, abs=0.1)

    def test_deterministic(self):
        a = generate_ofdm(self.CFG, 2, 5000, 10.0, seed=5)
        b = generate_ofdm(self.CFG, 2, 5000, 10.0, seed=5)
        assert_array_equal(a, b)

    def test_occupied_band_energy(self):
        # 55.5 / 1024 cycles per sample: 6.5 MHz at the reference 120 MHz
        x = generate_ofdm(self.CFG, 1, 50000, 0.0, seed=9)
        half_band = self.CFG.occupied_subcarriers / 2 / self.CFG.fft_size
        assert band_energy_fraction(x[0], half_band) >= 0.99

    def test_occupied_bins_are_16_qam(self):
        # one symbol without its cyclic prefix: 111 draws from the alphabet
        x = generate_ofdm(self.CFG, 1, self.CFG.symbol_len, 0.0, seed=4)
        grid = np.fft.fft(x[0, self.CFG.cp_len :])
        k = self.CFG.occupied_subcarriers
        bins = (np.arange(k) - k // 2) % self.CFG.fft_size
        points = grid[bins] / np.sqrt(np.mean(np.abs(grid[bins]) ** 2))
        assert len(np.unique(np.round(points, 6))) == 16
        assert np.abs(np.delete(grid, bins)).max() < 1e-9 * np.abs(grid).max()

    def test_antenna_streams_uncorrelated(self):
        x = generate_ofdm(self.CFG, 2, 50000, 0.0, seed=13)
        num = np.vdot(x[0], x[1])
        den = np.linalg.norm(x[0]) * np.linalg.norm(x[1])
        assert abs(num) / den < 0.05

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="symbol"):
            generate_ofdm(self.CFG, 1, 100, 0.0, seed=1)

    def test_shape(self):
        x = generate_ofdm(self.CFG, 3, 4000, 0.0, seed=2)
        assert x.shape == (3, 4000)
