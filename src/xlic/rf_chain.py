"""Transmit RF-chain impairments: IQ mixer imbalance and a memory-polynomial PA.

Per-antenna model of the interfering base station's transmitter. The IQ
mixer leaks a conjugate image of the baseband signal; the power amplifier
is a parallel-Hammerstein bank of odd-order branches with memory. Both
blocks are pure functions: no internal state, safe to evaluate
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IqImbalance:
    """Gain/phase mismatch between the I and Q rails of an IQ mixer.

    Parameters
    ----------
    gain : float
        Gain imbalance, dimensionless (1.0 = balanced).
    phase_rad : float
        Phase imbalance in radians (0.0 = balanced).

    The defaults are the reference scenario's mixer (gain 1.05, phase 0.05).

    The mixer output is ``direct_gain * x + image_gain * conj(x)`` with
    ``direct_gain = (1 + gain*exp(j*phase)) / 2`` and
    ``image_gain = (1 - gain*exp(j*phase)) / 2``; the two always sum to 1.
    """

    gain: float = 1.05
    phase_rad: float = 0.05

    def __post_init__(self):
        if not (np.isfinite(self.gain) and np.isfinite(self.phase_rad)):
            raise ValueError("IQ imbalance parameters must be finite")

    @property
    def direct_gain(self) -> complex:
        return 0.5 * (1.0 + self.gain * np.exp(1j * self.phase_rad))

    @property
    def image_gain(self) -> complex:
        # 1 - direct_gain == (1 - gain*exp(j*phase))/2 algebraically; this
        # form keeps direct_gain + image_gain == 1 exact in floats.
        return 1.0 - self.direct_gain


@dataclass(frozen=True)
class PaModel:
    """Parallel-Hammerstein power amplifier.

    ``taps[k, m]`` is the complex impulse response of the odd-order branch
    ``p = 2k + 1`` at memory lag ``m``:

        y[n] = sum_{p odd <= order} sum_{m=0}^{memory}
               taps[(p-1)//2, m] * x[n-m] * |x[n-m]|**(p-1)

    with ``x[k] = 0`` for ``k < 0`` (zero pre-history; the first ``memory``
    output samples are transients).

    Parameters
    ----------
    order : int
        Highest nonlinearity order (odd, >= 1).
    memory : int
        Memory length in taps (>= 0); each branch has ``memory + 1`` taps.
    taps : np.ndarray
        Complex array of shape ``((order + 1) // 2, memory + 1)``.
    """

    order: int
    memory: int
    taps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.order < 1 or self.order % 2 == 0:
            raise ValueError(f"PA order must be odd and >= 1, got {self.order}")
        if self.memory < 0:
            raise ValueError(f"PA memory must be >= 0, got {self.memory}")
        taps = np.asarray(self.taps, dtype=np.complex128)
        expected = ((self.order + 1) // 2, self.memory + 1)
        if taps.shape != expected:
            raise ValueError(f"PA taps shape {taps.shape}, expected {expected}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("PA taps must be finite")
        object.__setattr__(self, "taps", taps)

    @property
    def branch_orders(self) -> tuple[int, ...]:
        return tuple(range(1, self.order + 1, 2))


def apply_iq_mixer(x: np.ndarray, iq: IqImbalance) -> np.ndarray:
    """Apply IQ-mixer imbalance: ``direct_gain*x + image_gain*conj(x)``."""
    x = np.asarray(x, dtype=np.complex128)
    return iq.direct_gain * x + iq.image_gain * np.conj(x)


def apply_pa(x: np.ndarray, pa: PaModel) -> np.ndarray:
    """Run ``x`` through the parallel-Hammerstein PA (zero pre-history)."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.zeros_like(x)
    mag = np.abs(x)
    for k, p in enumerate(pa.branch_orders):
        branch = x * mag ** (p - 1) if p > 1 else x
        for m in range(pa.memory + 1):
            y[..., m:] += pa.taps[k, m] * branch[..., : max(x.shape[-1] - m, 0)]
    return y


def transmit_chain(
    x: np.ndarray,
    iqs: list[IqImbalance],
    pas: list[PaModel],
) -> np.ndarray:
    """IQ mixer followed by PA on each row of the antenna stack ``x`` ``(n_tx, n)``.

    ``iqs`` and ``pas`` hold one impairment per transmit antenna.
    """
    x = np.asarray(x, dtype=np.complex128)
    n_tx = x.shape[0]
    if len(iqs) != n_tx or len(pas) != n_tx:
        raise ValueError(
            f"impairment list lengths ({len(iqs)}, {len(pas)}) "
            f"do not match antenna count {n_tx}"
        )
    return np.stack(
        [apply_pa(apply_iq_mixer(x[a], iqs[a]), pas[a]) for a in range(n_tx)]
    )
