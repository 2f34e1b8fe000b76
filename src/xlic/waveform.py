"""OFDM baseband generator for the interfering BS's downlink transmit data.

Random 16-QAM grids (``QAM_ORDER``) on a centered block of occupied
subcarriers, inverse-transformed with cyclic prefix, oversampled by the
FFT-size / occupied-carrier ratio. The default numerology occupies 111 of
1024 subcarriers: about 13 MHz at the reference 120 MHz sample rate. No
coding or frame structure: the cancellers only consume baseband samples,
and nothing here depends on the sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import dbm_to_watts

QAM_ORDER = 16  # the reference square constellation


@dataclass(frozen=True)
class OfdmConfig:
    fft_size: int = 1024
    occupied_subcarriers: int = 111
    cp_len: int = 72

    def __post_init__(self):
        if self.fft_size < 1 or self.occupied_subcarriers < 1:
            raise ValueError("fft_size and occupied_subcarriers must be >= 1")
        if self.occupied_subcarriers > self.fft_size:
            raise ValueError("occupied_subcarriers cannot exceed fft_size")
        if not (0 <= self.cp_len < self.fft_size):
            raise ValueError(f"cp_len must be in [0, fft_size), got {self.cp_len}")

    @property
    def symbol_len(self) -> int:
        return self.fft_size + self.cp_len


def _qam_alphabet(order: int) -> np.ndarray:
    """Square QAM constellation normalized to unit average power."""
    m = int(round(np.sqrt(order)))
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    points = (levels[:, None] + 1j * levels[None, :]).ravel()
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def generate_ofdm(
    cfg: OfdmConfig,
    n_antennas: int,
    n_samples: int,
    tx_power_dbm: float,
    seed,
) -> np.ndarray:
    """Generate per-antenna OFDM streams scaled to ``tx_power_dbm``.

    Returns a complex array of shape ``(n_antennas, n_samples)``; the
    measured mean power of the full array equals the target to float
    precision. Deterministic for an integer ``seed``.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    if n_samples < cfg.symbol_len:
        raise ValueError(
            f"n_samples ({n_samples}) must cover at least one OFDM symbol "
            f"({cfg.symbol_len} samples)"
        )
    rng = np.random.default_rng(seed)
    alphabet = _qam_alphabet(QAM_ORDER)
    n_symbols = int(np.ceil(n_samples / cfg.symbol_len))
    k = cfg.occupied_subcarriers
    bins = (np.arange(k) - k // 2) % cfg.fft_size  # centered on DC

    out = np.empty((n_antennas, n_samples), dtype=np.complex128)
    for a in range(n_antennas):
        idx = rng.integers(0, alphabet.size, size=(n_symbols, k))
        grid = np.zeros((n_symbols, cfg.fft_size), dtype=np.complex128)
        grid[:, bins] = alphabet[idx]
        symbols = np.fft.ifft(grid, axis=1)
        if cfg.cp_len:
            symbols = np.concatenate([symbols[:, -cfg.cp_len :], symbols], axis=1)
        out[a] = symbols.ravel()[:n_samples]

    power = np.mean(np.abs(out) ** 2)
    out *= np.sqrt(dbm_to_watts(tx_power_dbm) / power)
    return out
