"""Run configuration: JSON schema, defaults, validation and seed derivation.

A run config is a plain JSON document with a ``schema_version`` field and
three sections (``scenario``, ``canceller``, ``training``) mirrored by the
dataclasses below. Defaults reproduce the reference simulation setup
(4x4 antennas, 47 dBm transmit / -52.1 dBm received interference power,
-90 dBm AWGN, 12-bit ADC, 16-QAM OFDM on 111 of 1024 subcarriers, about
13 MHz at a 120 MHz sample rate, 50000 samples, 80/20 split, PA memory 2,
7 multipath components, canceller order 3, Adam with batch 32 and learning
rate 2e-4). The QAM order is ``waveform.QAM_ORDER``, and Adam's beta1,
beta2 and epsilon are ``fnn.ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``.

All randomness in a run flows from the single root ``seed`` (>= 0): per-purpose
generators are derived with ``derive_rng(root, label, ...)``, which seeds
``numpy.random.SeedSequence`` with ``(root, crc32(label), ...)``. The
purpose labels used by the pipeline are "waveform", "channel", "noise",
"init" and "shuffle" (the last two salted with the canceller id).
"""

from __future__ import annotations

import dataclasses
import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .channel import dbm_to_watts
from .rf_chain import IqImbalance, PaModel
from .waveform import OfdmConfig

SCHEMA_VERSION = 1
# Largest canceller.order: the basis has (P+1)(P+3)/4 monomials per tx antenna and lag,
# so at P = 31 the default 4x4 scenario has 9,792 basis terms and a 1.5 GB LS Gram.
MAX_ORDER = 31

DEFAULT_PA_TAPS = [
    [[1.0, 0.0], [0.05, 0.0], [0.01, 0.0]],
    [[-0.06, -0.015], [-0.0075, 0.0], [-0.00375, 0.0]],
]
# Complex PA taps as [re, im] pairs: taps[branch][lag].
Taps = list


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


def _rescale_pa(pa: PaModel, drive_rms: float) -> PaModel:
    """Move PA taps from their unit-power design point to the operating drive.

    Order-p taps scale by ``drive_rms**(1-p)``: linear taps are untouched
    and the branch output ratios at the operating point match the ratios
    of the design point.
    """
    scale = np.array([drive_rms ** (1 - p) for p in pa.branch_orders])
    return PaModel(order=pa.order, memory=pa.memory, taps=pa.taps * scale[:, None])


def derive_rng(root_seed: int, *labels) -> np.random.Generator:
    """Derive a per-purpose generator from the root seed.

    Entropy is ``(root_seed, crc32(label_0), crc32(label_1), ...)`` fed to
    ``SeedSequence``; stable across platforms and runs.
    """
    keys = [int(root_seed), *(zlib.crc32(str(label).encode()) for label in labels)]
    return np.random.default_rng(np.random.SeedSequence(keys))


@dataclass
class PaSettings:
    order: int = 3
    memory: int = 2
    taps: Taps = field(default_factory=lambda: [list(b) for b in DEFAULT_PA_TAPS])

    def __post_init__(self):
        self.build()  # the model's own checks, at load

    def build(self) -> PaModel:
        lengths = [len(branch) for branch in self.taps]
        if len(set(lengths)) > 1:  # np.array would reject it in its own words
            expected = ((self.order + 1) // 2, self.memory + 1)
            raise ValueError(f"PA taps rows of {lengths} taps, expected shape {expected}")
        taps = np.array(
            [[complex(re, im) for re, im in branch] for branch in self.taps]
        )
        return PaModel(order=self.order, memory=self.memory, taps=taps)


# The scenario's OFDM section is the generator's own config, checked at load.
OfdmSettings = OfdmConfig


@dataclass
class ScenarioSettings:
    n_rx: int = 4
    n_tx: int = 4
    n_paths: int = 7
    n_samples: int = 50000
    train_fraction: float = 0.8
    tx_power_dbm: float = 47.0
    # None disables the received-power calibration of the channel.
    target_rx_power_dbm: float | None = -52.1
    awgn_power_dbm: float = -90.0
    noise_enabled: bool = True
    adc_enabled: bool = True
    adc_bits: int = 12
    # None: derived at generation time from the capture's peak rail amplitude.
    adc_full_scale: float | None = None
    # Single entry shared by all antennas, or one entry per tx antenna.
    iq: IqImbalance | list = field(default_factory=IqImbalance)
    pa: PaSettings | list = field(default_factory=PaSettings)
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)

    def __post_init__(self):
        for name in ("n_rx", "n_tx", "n_paths", "n_samples", "adc_bits"):
            if getattr(self, name) < 1:
                raise ConfigError(f"scenario.{name}: must be >= 1")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError("scenario.train_fraction: must be in (0, 1)")
        if not (self.adc_full_scale is None or self.adc_full_scale > 0):
            raise ConfigError("scenario.adc_full_scale: must be > 0 or null")
        self._per_antenna("iq")  # the pa list is checked through window_depth
        if self.n_samples <= self.window_depth:
            raise ConfigError(
                f"scenario.n_samples: {self.n_samples} must exceed the window depth "
                f"({self.window_depth})"
            )
        # generation simulates window_depth - 1 leading samples before the capture
        if self.n_samples + self.window_depth - 1 < self.ofdm.symbol_len:
            raise ConfigError(
                f"scenario.n_samples: {self.n_samples} must be at least "
                f"{self.ofdm.symbol_len - self.window_depth + 1}, so that with the "
                f"{self.window_depth - 1} leading samples it covers one OFDM symbol "
                f"({self.ofdm.symbol_len} samples)"
            )
        if not (self.window_depth <= self.split_index < self.n_samples):
            raise ConfigError(
                f"scenario.train_fraction: {self.train_fraction} leaves an empty "
                f"train or test partition (split {self.split_index}, "
                f"window depth {self.window_depth})"
            )

    def _per_antenna(self, name: str) -> list:
        """The ``iq`` or ``pa`` entry of each tx antenna; one entry is shared."""
        items = getattr(self, name)
        items = items if isinstance(items, list) else [items] * self.n_tx
        if len(items) != self.n_tx:
            raise ConfigError(
                f"scenario.{name}: expected one object or a list of {self.n_tx} "
                f"entries, got a list of {len(items)}"
            )
        return items

    def iq_models(self) -> list[IqImbalance]:
        return self._per_antenna("iq")

    def pa_models(self) -> list[PaModel]:
        """The PA of each tx antenna, its unit-power taps moved to the transmit level."""
        drive_rms = np.sqrt(dbm_to_watts(self.tx_power_dbm))
        return [_rescale_pa(pa.build(), drive_rms) for pa in self._per_antenna("pa")]

    @property
    def window_depth(self) -> int:
        """Regressor depth: the largest PA memory plus the multipath count."""
        return max(pa.memory for pa in self._per_antenna("pa")) + self.n_paths

    @property
    def split_index(self) -> int:
        """First test sample: ``floor(train_fraction * n_samples)``."""
        return int(np.floor(self.train_fraction * self.n_samples))


@dataclass
class CancellerSettings:
    order: int = 3  # polynomial canceller nonlinearity order
    nnc_hidden: int = 300
    hc_hidden: int = 200

    def __post_init__(self):
        if not (1 <= self.order <= MAX_ORDER) or self.order % 2 == 0:
            raise ConfigError(f"canceller.order: must be odd, 1 to {MAX_ORDER}, got {self.order}")
        for name in ("nnc_hidden", "hc_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"canceller.{name}: must be >= 1")


@dataclass
class TrainSettings:
    batch_size: int = 32
    learning_rate: float = 2e-4
    epochs: int = 60

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("training.batch_size: must be >= 1")
        # lr = 0 is allowed: it freezes the model (useful as a null check)
        if not (self.learning_rate >= 0):
            raise ConfigError("training.learning_rate: must be >= 0")
        if self.epochs < 1:
            raise ConfigError("training.epochs: must be >= 1")


@dataclass
class RunConfig:
    seed: int = 1
    scenario: ScenarioSettings = field(default_factory=ScenarioSettings)
    canceller: CancellerSettings = field(default_factory=CancellerSettings)
    training: TrainSettings = field(default_factory=TrainSettings)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION}
        out.update(dataclasses.asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root: expected a JSON object")
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if not _is_int(version) or version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: {version!r} not supported (expected {SCHEMA_VERSION})"
            )
        return _build(cls, data, "config", "")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


def _are_taps(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(branch, list)
        and all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))
            for pair in branch
        )
        for branch in value
    )


# Field annotation -> (what a value must be, its test).
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "Taps": ("lists of [re, im] pairs of finite numbers", _are_taps),
}

# Field annotation -> the settings class read from its own JSON object.
_SECTIONS = {
    c.__name__: c
    for c in (
        ScenarioSettings, CancellerSettings, TrainSettings, IqImbalance, PaSettings, OfdmConfig
    )
}


def _build(cls, data, where: str, prefix: str):
    """Construct a settings dataclass from a dict, naming bad fields.

    Each field is read by its annotation: a settings class from its own
    object (or, under ``| list``, from a non-empty list of them), any other
    kind by its ``_FIELD_TYPES`` test; ``| None`` also takes null. Error
    lines name a field ``prefix + name`` and the object itself ``where``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    data = dict(data)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value, name = data.pop(f.name), prefix + f.name
        kind, *rest = f.type.split(" | ")
        if kind in _SECTIONS:
            if "list" in rest and isinstance(value, list) and value:
                value = [
                    _build(_SECTIONS[kind], v, f"{name}[{i}]", f"{name}[{i}].")
                    for i, v in enumerate(value)
                ]
            else:
                value = _build(_SECTIONS[kind], value, name, name + ".")
        elif not (value is None and "None" in rest):
            expected, fits = _FIELD_TYPES[kind]
            if not fits(value):
                raise ConfigError(f"{name}: expected {expected}, got {value!r}")
        kwargs[f.name] = value
    if data:
        raise ConfigError(f"{where}: unknown field '{sorted(data)[0]}'")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:  # a model's own check, such as OfdmConfig's
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return RunConfig.from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
