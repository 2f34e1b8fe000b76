"""End-to-end dataset factory for canceller training and evaluation.

Composes waveform -> RF chain -> channel (-> calibration gain -> AWGN
-> ADC) into aligned (transmit data, received interference) records,
with max-abs normalization constants computed on the training
partition, an 80/20 train/test split, and bit-exact persistence in the
shared container format.

Alignment convention: ``rx[:, n]`` depends on ``tx[:, n - m]`` for
``m in [0, window_depth)`` where ``window_depth = pa_memory + n_paths``.
Generation simulates ``window_depth - 1`` extra leading samples and drops
them from both streams, so no stored label depends on zero pre-history.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import container
from .channel import draw_channel, propagate, add_awgn, quantize_adc, calibrate_channel_gain
from .config import ScenarioSettings, _is_int, _is_number, derive_rng
from .polynomial import BasisSpec, build_basis_matrix
from .rf_chain import transmit_chain
from .waveform import generate_ofdm

DATASET_KIND = "dataset"
# A derived ADC full scale sits this far above the capture's peak rail amplitude.
ADC_HEADROOM = 1.2
# The scalar fields of a CliDataset, stored in its container's JSON header.
_HEADER = ("input_scale", "label_scale", "split_index", "window_depth", "meta")


@dataclass(frozen=True)
class CliDataset:
    """Aligned cross-link-interference records.

    Attributes
    ----------
    tx : np.ndarray
        Transmit baseband data, shape ``(n_tx, n)`` (backhaul-shared, not
        quantized).
    rx : np.ndarray
        Received interference labels, shape ``(n_rx, n)`` (measured through
        the victim receiver: AWGN and ADC applied when enabled).
    input_scale : float
        Max |tx| over the training partition (normalizer for canceller
        inputs).
    label_scale : float
        Max |rx| over the training partition (normalizer for canceller
        labels).
    split_index : int
        First test sample index (``floor(train_fraction * n)``), with
        ``window_depth <= split_index < n``: both partitions hold a row.
    window_depth : int
        Memory depth of the generating chain (PA memory + path count);
        regressor windows use this many taps per antenna.
    meta : dict
        Generating config, seed, and derived calibration values.
    """

    tx: np.ndarray = field(repr=False)
    rx: np.ndarray = field(repr=False)
    input_scale: float
    label_scale: float
    split_index: int
    window_depth: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tx.ndim != 2 or self.rx.ndim != 2:
            raise ValueError("tx and rx must be 2-D (antenna, sample) arrays")
        if self.tx.shape[1] != self.rx.shape[1]:
            raise ValueError(
                f"tx and rx lengths differ: {self.tx.shape[1]} vs {self.rx.shape[1]}"
            )
        for name in ("tx", "rx"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must hold finite samples")
        for name in ("input_scale", "label_scale"):
            value = getattr(self, name)
            if not (_is_number(value) and value > 0):
                raise ValueError(f"{name} must be > 0 (a finite number), got {value!r}")
        for name in ("split_index", "window_depth"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.window_depth < 1:
            raise ValueError(f"window_depth must be >= 1, got {self.window_depth}")
        if not (self.window_depth <= self.split_index < self.n_samples):
            raise ValueError(
                f"split_index {self.split_index} leaves an empty train or test partition "
                f"(window depth {self.window_depth}, {self.n_samples} samples)"
            )
        if not isinstance(self.meta, dict):
            raise ValueError(f"meta must be an object, got {type(self.meta).__name__}")
        seed, scenario = self.meta.get("seed", 0), self.meta.get("scenario", {})
        if not (_is_int(seed) and seed >= 0):
            raise ValueError(f"meta.seed must be an integer >= 0, got {seed!r}")
        if not isinstance(scenario, dict):
            raise ValueError(f"meta.scenario must be an object, got {type(scenario).__name__}")
        if not isinstance(scenario.get("noise_enabled", False), bool):
            raise ValueError("meta.scenario.noise_enabled must be true or false")
        if not _is_number(scenario.get("awgn_power_dbm", 0.0)):
            raise ValueError("meta.scenario.awgn_power_dbm must be a finite number")

    @property
    def n_tx(self) -> int:
        return self.tx.shape[0]

    @property
    def n_rx(self) -> int:
        return self.rx.shape[0]

    @property
    def n_samples(self) -> int:
        return self.tx.shape[1]


@np.errstate(over="raise", invalid="raise")
def generate_dataset(scenario: ScenarioSettings, seed: int) -> CliDataset:
    """Simulate one clean-period capture and package it as a dataset.

    Deterministic given ``seed``. The capture is propagated once; the
    calibration scales the received stack, which equals scaling every
    channel tap (``meta["channel_scale"]``). A scenario value that makes
    a step overflow or go invalid raises an ``ArithmeticError``.
    """
    depth = scenario.window_depth
    n_transient = depth - 1
    n_raw = scenario.n_samples + n_transient
    split = scenario.split_index

    tx = generate_ofdm(
        scenario.ofdm,
        scenario.n_tx,
        n_raw,
        scenario.tx_power_dbm,
        derive_rng(seed, "waveform"),
    )
    amplified = transmit_chain(tx, scenario.iq_models(), scenario.pa_models())

    channel = draw_channel(
        derive_rng(seed, "channel"),
        scenario.n_rx,
        scenario.n_tx,
        scenario.n_paths,
    )
    rx = propagate(amplified, channel)
    channel_scale = 1.0
    target = scenario.target_rx_power_dbm
    if target is not None:
        channel_scale = calibrate_channel_gain(rx, target)
        rx *= channel_scale
    if scenario.noise_enabled:
        rx = add_awgn(rx, scenario.awgn_power_dbm, derive_rng(seed, "noise"))

    full_scale = scenario.adc_full_scale
    if scenario.adc_enabled:
        if full_scale is None:
            peak = max(np.abs(rx.real).max(), np.abs(rx.imag).max())
            full_scale = ADC_HEADROOM * float(peak)
        rx = quantize_adc(rx, scenario.adc_bits, full_scale)

    tx = tx[:, n_transient:]
    rx = rx[:, n_transient:]

    return CliDataset(
        tx=tx,
        rx=rx,
        input_scale=float(np.abs(tx[:, :split]).max()),
        label_scale=float(np.abs(rx[:, :split]).max()),
        split_index=split,
        window_depth=depth,
        meta={
            "seed": seed,
            "scenario": dataclasses.asdict(scenario),
            "channel_scale": channel_scale,
            "adc_full_scale": full_scale,
        },
    )


def build_regressors(tx: np.ndarray, depth: int) -> np.ndarray:
    """Stack per-antenna delay lines into real regressor windows.

    One window per sample index ``n >= depth - 1``; window ``w`` (for
    sample ``n = w + depth - 1``) is laid out antenna-major:

        [Re(d_a[n]), Im(d_a[n]), Re(d_a[n-1]), Im(d_a[n-1]), ...,
         Re(d_a[n-depth+1]), Im(d_a[n-depth+1])]   for a = 0 .. n_tx-1

    Returns shape ``(n - depth + 1, 2 * n_tx * depth)`` float64: the
    linear polynomial basis of the same depth, read as interleaved reals.
    """
    n_tx = np.atleast_2d(tx).shape[0]
    return build_basis_matrix(tx, BasisSpec.linear(n_tx, depth)).view(np.float64)


def save_dataset(ds: CliDataset, path) -> None:
    header = {name: getattr(ds, name) for name in _HEADER}
    container.write_container(path, DATASET_KIND, header, {"tx": ds.tx, "rx": ds.rx})


def load_dataset(path) -> CliDataset:
    """Read a dataset; a missing header field or array raises ``ContainerError``."""
    _, header, arrays = container.read_container(path, expected_kind=DATASET_KIND)
    missing = [name for name in ("tx", "rx") if name not in arrays]
    missing += [name for name in _HEADER if not isinstance(header, dict) or name not in header]
    if missing:
        raise container.ContainerError(f"{path}: dataset has no '{missing[0]}'")
    return CliDataset(
        tx=arrays["tx"],
        rx=arrays["rx"],
        **{name: header[name] for name in _HEADER},
    )
