"""BS-to-BS multipath MIMO channel, noise, ADC quantization and power helpers.

The channel between the interfering and the interfered base station is a
bank of FIR filters, one per (rx, tx) antenna pair, with Rayleigh
(circularly-symmetric complex Gaussian) taps. One real gain on the
received stack calibrates its mean power to a target; propagation is
linear, so that is the same as scaling every tap. The receive side adds
AWGN at a configured power and quantizes each rail with a mid-rise ADC.
Power values are in dBm throughout, with the linear unit treated as watts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MultipathChannel:
    """FIR MIMO channel: ``taps[rx, tx, lag]`` complex gains."""

    taps: np.ndarray = field(repr=False)

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        if taps.ndim != 3:
            raise ValueError(f"channel taps must be 3-D (rx, tx, lag), got {taps.ndim}-D")
        if not np.all(np.isfinite(taps)):
            raise ValueError("channel taps must be finite")
        object.__setattr__(self, "taps", taps)

    @property
    def n_rx(self) -> int:
        return self.taps.shape[0]

    @property
    def n_tx(self) -> int:
        return self.taps.shape[1]


def dbm_to_watts(power_dbm: float) -> float:
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


def watts_to_dbm(power_watts: float) -> float:
    if power_watts <= 0:
        return -np.inf
    return 10.0 * np.log10(power_watts) + 30.0


def measure_power_dbm(x: np.ndarray) -> float:
    """Mean-square power of ``x`` in dBm (linear unit = watts).

    For a multi-antenna array this is the per-antenna average, since every
    antenna contributes the same number of samples.
    """
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("cannot measure power of an empty sequence")
    return watts_to_dbm(float(np.mean(np.abs(x) ** 2)))


def draw_channel(seed, n_rx: int, n_tx: int, n_paths: int) -> MultipathChannel:
    """Draw i.i.d. Rayleigh taps ``CN(0, 1)``.

    ``seed`` may be an int or a ``numpy.random.Generator``; an int gives a
    reproducible draw.
    """
    if n_rx < 1 or n_tx < 1 or n_paths < 1:
        raise ValueError(
            f"channel dimensions must be >= 1, got ({n_rx}, {n_tx}, {n_paths})"
        )
    rng = np.random.default_rng(seed)
    fading = (
        rng.standard_normal((n_rx, n_tx, n_paths))
        + 1j * rng.standard_normal((n_rx, n_tx, n_paths))
    ) / np.sqrt(2.0)
    return MultipathChannel(fading)


def propagate(tx: np.ndarray, channel: MultipathChannel) -> np.ndarray:
    """Convolve per-antenna transmit streams through the FIR MIMO channel.

    ``tx`` has shape ``(n_tx, n)``; returns ``(n_rx, n)`` with zero-padded
    pre-history (output index n sums taps over lags l <= n).
    """
    tx = np.atleast_2d(np.asarray(tx, dtype=np.complex128))
    if tx.shape[0] != channel.n_tx:
        raise ValueError(
            f"tx has {tx.shape[0]} antenna streams, channel expects {channel.n_tx}"
        )
    n = tx.shape[1]
    rx = np.zeros((channel.n_rx, n), dtype=np.complex128)
    for i in range(channel.n_rx):
        for a in range(channel.n_tx):
            rx[i] += np.convolve(tx[a], channel.taps[i, a])[:n]
    return rx


def add_awgn(x: np.ndarray, power_dbm: float, seed) -> np.ndarray:
    """Add circularly-symmetric complex AWGN of total power ``power_dbm``."""
    x = np.asarray(x, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(dbm_to_watts(power_dbm) / 2.0)
    w = sigma * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    return x + w


def quantize_adc(x: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
    """Quantize I and Q rails with a uniform mid-rise quantizer.

    ``2**bits`` levels at odd multiples of ``step/2 = full_scale / 2**bits``
    inside +/- full_scale; inputs beyond full scale saturate at the
    outermost level. There is no zero level: a zero input lands on
    ``+step/2`` on each rail.
    """
    if not (full_scale > 0):
        raise ValueError(f"ADC full_scale must be > 0, got {full_scale}")
    x = np.asarray(x, dtype=np.complex128)
    step = 2.0 * full_scale / (2**bits)
    top = full_scale - step / 2.0

    def rail(u):
        q = (np.floor(u / step) + 0.5) * step
        return np.clip(q, -top, top)

    return rail(x.real) + 1j * rail(x.imag)


def calibrate_channel_gain(rx: np.ndarray, target_rx_power_dbm: float) -> float:
    """Real gain that brings the received stack's mean power to the target.

    ``rx`` is the propagated capture, shape ``(n_rx, n)``. Propagation is
    linear, so ``rx * gain`` equals propagating through the channel with
    every tap scaled by ``gain``. The closed loop
    ``measure_power_dbm(rx * gain)`` lands on the target to float
    precision, well inside the +/-0.05 dB contract. A zero-energy stack, or
    a gain that is not positive and finite, raises ``ValueError``.
    """
    if not np.any(rx):
        raise ValueError("calibration probe has zero energy")
    gain = 10.0 ** ((target_rx_power_dbm - measure_power_dbm(rx)) / 20.0)
    if not 0.0 < gain < np.inf:
        raise ValueError(f"calibration gain {float(gain)} is not positive and finite")
    return gain
