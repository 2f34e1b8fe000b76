"""Acceptance suite: one test (or test group) per numbered criterion.

Each criterion prints an ``ACCEPTANCE <n> <name>: PASS/FAIL`` line
(visible with ``pytest -s`` or in the captured output). Criteria 4 and 7
share a 10-seed benchmark of all four cancellers on the default
configuration, parallelized over two worker processes; they are marked
``slow``.

Criterion 8a checks the sweep shape of the polynomial canceller's
parameter count along the order P: the count is 2 * n_rx times the number
of conjugate-monomial basis terms the canceller fits, which is quadratic
in P (constant, nonzero second difference over odd P).
"""

import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from xlic import (
    ScenarioSettings,
    TrainSettings,
    cancellation_db,
    generate_dataset,
    hc_complexity,
    hc_param_count,
    measure_power_dbm,
    nnc_complexity,
    nnc_param_count,
    pc_complexity,
    pc_param_count,
    residual_power_dbm,
)

SEEDS = list(range(1, 11))


def report(number: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} {detail}".rstrip())


# ---------------------------------------------------------------------------
# shared expensive artifacts


def _run_quartet(seed: int) -> dict:
    """All four cancellers on the default config for one seed."""
    from xlic.harness import run_hc, run_nnc, run_pc, run_tc

    ds = generate_dataset(ScenarioSettings(), seed=seed)
    cfg = TrainSettings()
    out = {}
    for name, res in (
        ("tc", run_tc(ds)),
        ("pc", run_pc(ds, order=3)),
        ("nnc", run_nnc(ds, 300, cfg)),
        ("hc", run_hc(ds, 200, cfg)),
    ):
        out[name] = {
            "c_db": float(res.c_db),
            "n_params": res.n_params,
            "c_db_history": res.c_db_history,
            "train_losses": res.train_losses,
            "test_losses": res.test_losses,
        }
    return out


@pytest.fixture(scope="session")
def multiseed_results():
    """10-seed default-config benchmark, two seeds in flight at a time."""
    env_backup = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env_backup[var] = os.environ.get(var)
        os.environ[var] = "1"  # spawned workers inherit single-threaded BLAS
    try:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        workers = min(2, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            results = dict(zip(SEEDS, pool.map(_run_quartet, SEEDS)))
    finally:
        for var, old in env_backup.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old
    return results


@pytest.fixture(scope="session")
def default_dataset():
    return generate_dataset(ScenarioSettings(), seed=1)


# ---------------------------------------------------------------------------
# 1. counting goldens


def test_criterion1_counting_goldens():
    got = {
        "n_pc": pc_param_count(4, 4, 2, 7, 3),
        "c_pc": pc_complexity(4, 4, 2, 7, 3),
        "n_nnc": nnc_param_count(4, 4, 2, 7, 300),
        "c_nnc": nnc_complexity(4, 4, 2, 7, 300),
        "n_hc": hc_param_count(4, 4, 2, 7, 200),
        "c_hc": hc_complexity(4, 4, 2, 7, 200),
    }
    expected = {
        "n_pc": 1728,
        "c_pc": 127864,
        "n_nnc": 24310,
        "c_nnc": 48380,
        "n_hc": 16498,
        "c_hc": 33424,
    }
    ok = got == expected
    report("1", "counting goldens", ok, f"{got}")
    assert got == expected


# ---------------------------------------------------------------------------
# 2. polynomial-basis exactness on the noiseless physical chain


def test_criterion2_polynomial_exactness():
    from xlic.harness import _aligned_labels
    from xlic.polynomial import BasisSpec, apply_basis, build_basis_matrix, ls_fit

    sc = ScenarioSettings(noise_enabled=False, adc_enabled=False)
    ds = generate_dataset(sc, seed=2)
    labels, split_row = _aligned_labels(ds)
    spec = BasisSpec(n_tx=ds.n_tx, depth=ds.window_depth, order=3)
    basis = build_basis_matrix(ds.tx, spec)
    coeffs = ls_fit(basis[:split_row], labels[:, :split_row], spec)

    fit_train = apply_basis(coeffs, basis[:split_row])
    rel_residual = np.linalg.norm(labels[:, :split_row] - fit_train) / np.linalg.norm(
        labels[:, :split_row]
    )
    c_db = cancellation_db(
        labels[:, split_row:], apply_basis(coeffs, basis[split_row:])
    )
    ok = c_db >= 80.0 and rel_residual <= 1e-8
    report(
        "2",
        "polynomial-basis exactness",
        ok,
        f"C_dB={c_db:.1f} (>=80), LS rel residual={rel_residual:.2e} (<=1e-8)",
    )
    assert c_db >= 80.0
    assert rel_residual <= 1e-8


# ---------------------------------------------------------------------------
# 3. linear identification oracle


def test_criterion3_linear_identification():
    from xlic import IqImbalance, draw_channel
    from xlic.config import PaSettings, derive_rng
    from xlic.harness import run_tc

    sc = ScenarioSettings(
        n_samples=20000,
        noise_enabled=False,
        adc_enabled=False,
        iq=IqImbalance(gain=1.0, phase_rad=0.0),
        pa=PaSettings(order=1, memory=0, taps=[[[1.0, 0.0]]]),
    )
    ds = generate_dataset(sc, seed=3)
    res = run_tc(ds)
    est = res.artifacts["coefficients"].weights.reshape(
        ds.n_rx, ds.n_tx, ds.window_depth
    )
    drawn = draw_channel(derive_rng(3, "channel"), sc.n_rx, sc.n_tx, sc.n_paths)
    true = ds.meta["channel_scale"] * drawn.taps
    rel_err = np.linalg.norm(est - true) / np.linalg.norm(true)
    c_ok = res.above_measurable_range or res.c_db >= 80.0
    ok = rel_err <= 1e-6 and c_ok
    c_txt = "above-range" if res.above_measurable_range else f"{res.c_db:.1f}"
    report(
        "3",
        "linear identification",
        ok,
        f"tap rel err={rel_err:.2e} (<=1e-6), C_dB={c_txt} (>=80)",
    )
    assert rel_err <= 1e-6
    assert c_ok


# ---------------------------------------------------------------------------
# 4. qualitative reproduction of the canceller comparison (10-seed medians)


@pytest.mark.slow
def test_criterion4a_tc_median_in_band(multiseed_results):
    tc = np.median([r["tc"]["c_db"] for r in multiseed_results.values()])
    ok = 15.0 <= tc <= 27.0
    report("4a", "tc median in [15, 27] dB", ok, f"median={tc:.2f}")
    assert 15.0 <= tc <= 27.0


@pytest.mark.slow
def test_criterion4b_pc_gain_over_tc(multiseed_results):
    tc = np.median([r["tc"]["c_db"] for r in multiseed_results.values()])
    pc = np.median([r["pc"]["c_db"] for r in multiseed_results.values()])
    ok = pc >= tc + 5.0
    report("4b", "pc median >= tc median + 5 dB", ok, f"pc={pc:.2f} tc={tc:.2f}")
    assert pc >= tc + 5.0


@pytest.mark.slow
def test_criterion4c_hc_ordering(multiseed_results):
    tc = np.median([r["tc"]["c_db"] for r in multiseed_results.values()])
    nnc = np.median([r["nnc"]["c_db"] for r in multiseed_results.values()])
    hc = np.median([r["hc"]["c_db"] for r in multiseed_results.values()])
    margins = {
        seed: round(r["hc"]["c_db"] - r["nnc"]["c_db"], 2)
        for seed, r in multiseed_results.items()
    }
    ok = hc >= nnc and hc >= tc + 8.0
    report(
        "4c",
        "hc median >= nnc median and >= tc median + 8 dB",
        ok,
        f"hc={hc:.2f} nnc={nnc:.2f} tc={tc:.2f}, per-seed hc-nnc={margins}",
    )
    assert hc >= nnc
    assert hc >= tc + 8.0


@pytest.mark.slow
def test_criterion4d_per_seed_ordering(multiseed_results):
    wins = sum(
        1
        for r in multiseed_results.values()
        if r["hc"]["c_db"] > r["tc"]["c_db"] and r["pc"]["c_db"] > r["tc"]["c_db"]
    )
    ok = wins >= 9
    report("4d", "hc > tc and pc > tc in >= 9/10 seeds", ok, f"wins={wins}/10")
    assert wins >= 9


# ---------------------------------------------------------------------------
# 5. residual-power consistency


def test_criterion5_residual_power_consistency(default_dataset):
    from xlic.harness import _aligned_labels

    ds = default_dataset
    labels, split_row = _aligned_labels(ds)
    s_test = labels[:, split_row:]
    rng = np.random.default_rng(55)
    s_hat = 0.97 * s_test + 1e-6 * ds.label_scale * (
        rng.standard_normal(s_test.shape) + 1j * rng.standard_normal(s_test.shape)
    )
    lhs = measure_power_dbm(s_test) - residual_power_dbm(s_test, s_hat)
    c_db = cancellation_db(s_test, s_hat)
    rel = abs(lhs - c_db) / abs(c_db)
    # with a zero estimate the residual is the received power itself; the
    # calibration pins that power over the full capture
    zero_residual = residual_power_dbm(ds.rx, np.zeros_like(ds.rx))
    ok = rel <= 1e-9 and abs(zero_residual - (-52.1)) <= 0.05
    report(
        "5",
        "residual-power consistency",
        ok,
        f"identity rel err={rel:.2e} (<=1e-9), zero-estimate residual="
        f"{zero_residual:.3f} dBm (-52.1 +- 0.05)",
    )
    assert rel <= 1e-9
    assert abs(zero_residual - (-52.1)) <= 0.05


# ---------------------------------------------------------------------------
# 6. gradient check


def test_criterion6_gradient_check():
    from xlic.fnn import FnnModel, backward, forward, loss_mse

    rng = np.random.default_rng(66)
    model = FnnModel(
        w_hidden=rng.standard_normal((2, 4)),
        b_hidden=rng.standard_normal(2),
        w_out=rng.standard_normal((2, 2)),
        b_out=rng.standard_normal(2),
    )
    x = rng.standard_normal((16, 4))
    y = rng.standard_normal((16, 2))
    pre = x @ model.w_hidden.T + model.b_hidden
    assert np.abs(pre).min() > 1e-3  # away from ReLU kinks
    grads = backward(model, x, y)
    step = 1e-5
    worst = 0.0
    for arr, g in zip(model.params(), grads.params()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss_mse(forward(model, x), y)
            arr[idx] = orig - step
            dn = loss_mse(forward(model, x), y)
            arr[idx] = orig
            fd = (up - dn) / (2 * step)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    ok = worst < 1e-4
    report("6", "gradient vs central differences", ok, f"max rel err={worst:.2e}")
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# 7. convergence shape


@pytest.mark.slow
def test_criterion7_convergence_shape(multiseed_results):
    seed1 = multiseed_results[1]
    details = []
    ok = True
    for name in ("nnc", "hc"):
        history = seed1[name]["c_db_history"]
        early = max(history[:30])
        final = history[59]
        ratio = early / final
        losses = seed1[name]["test_losses"]
        trending = (
            np.all(np.isfinite(losses))
            and losses[-1] < losses[0]
            and losses[-1] <= 1.5 * min(losses)
        )
        ok = ok and ratio >= 0.95 and trending
        details.append(
            f"{name}: C@<=30={early:.2f} C@60={final:.2f} ratio={ratio:.3f} "
            f"trending={bool(trending)}"
        )
    report("7", "convergence shape", ok, "; ".join(details))
    for name in ("nnc", "hc"):
        history = seed1[name]["c_db_history"]
        assert max(history[:30]) >= 0.95 * history[59], name
        losses = seed1[name]["test_losses"]
        assert np.all(np.isfinite(losses)), name
        assert losses[-1] < losses[0], name
        assert losses[-1] <= 1.5 * min(losses), name


# ---------------------------------------------------------------------------
# 8. sweep shapes


def test_criterion8a_pc_param_count_linear_in_order():
    """n_pc along odd P is the quadratic the fitted basis dictates.

    The polynomial canceller fits one complex weight per rx antenna and
    basis term, and the conjugate-monomial basis has (P+1)(P+3)/4 terms
    per antenna and lag, so the count is quadratic in P: its second
    difference over odd P is constant and nonzero. (The test name
    predates this correction; the count is linear in the number of basis
    terms, not in P.)
    """
    from xlic.polynomial import BasisSpec

    n_rx, n_tx, memory, n_paths = 4, 4, 2, 7
    depth = memory + n_paths
    orders = [1, 3, 5, 7]
    counts = [pc_param_count(n_rx, n_tx, memory, n_paths, p) for p in orders]
    closed_form = [n_rx * n_tx * depth * (p + 1) * (p + 3) // 2 for p in orders]
    fitted = [2 * n_rx * BasisSpec(n_tx, depth, p).n_terms for p in orders]
    diffs = [b - a for a, b in zip(counts, counts[1:])]
    second_diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    quadratic = len(set(second_diffs)) == 1 and second_diffs[0] != 0
    ok = counts == closed_form and counts == fitted and quadratic
    report(
        "8a",
        "n_pc = N0*Na*(M+L)*(P+1)(P+3)/2 = 2*n_rx*n_terms, quadratic over odd P "
        "in {1..7}",
        ok,
        f"counts={counts}, fitted={fitted}, first diffs={diffs}, "
        f"second diffs={second_diffs} (constant, nonzero)",
    )
    assert counts == closed_form, (counts, closed_form)
    assert counts == fitted, (counts, fitted)
    assert len(set(second_diffs)) == 1, second_diffs
    assert second_diffs[0] != 0, second_diffs


def test_criterion8b_pc_complexity_exponential_in_order():
    values = [pc_complexity(4, 4, 2, 7, p) for p in (1, 3, 5, 7)]
    ratios = [b / a for a, b in zip(values, values[1:])]
    ok = all(r > 6.0 for r in ratios)
    report(
        "8b",
        "c_pc(P+2)/c_pc(P) > 6",
        ok,
        f"ratios={[f'{r:.1f}' for r in ratios]}",
    )
    assert all(r > 6.0 for r in ratios)


def test_criterion8c_network_counts_affine_in_width():
    widths = [50, 100, 150, 200, 250, 300, 350, 400]
    ok = True
    for fn in (nnc_param_count, nnc_complexity):
        vals = [fn(4, 4, 2, 7, w) for w in widths]
        diffs = {b - a for a, b in zip(vals, vals[1:])}
        ok = ok and len(diffs) == 1
    report("8c", "n_nnc and c_nnc exactly affine in N_h", ok)
    for fn in (nnc_param_count, nnc_complexity):
        vals = [fn(4, 4, 2, 7, w) for w in widths]
        assert len({b - a for a, b in zip(vals, vals[1:])}) == 1


# ---------------------------------------------------------------------------
# 9. pipeline determinism


def test_criterion9_pipeline_determinism(tmp_path):
    import dataclasses
    import json

    from conftest import small_ofdm

    cfg_dict = {
        "schema_version": 1,
        "seed": 99,
        "scenario": {
            "n_rx": 2,
            "n_tx": 2,
            "n_paths": 3,
            "n_samples": 2500,
            "ofdm": dataclasses.asdict(small_ofdm()),
        },
        "canceller": {"order": 3, "nnc_hidden": 8, "hc_hidden": 8},
        "training": {"batch_size": 32, "learning_rate": 1e-3, "epochs": 2},
    }

    def pipeline(base):
        from xlic.cli import main

        base.mkdir()
        cfg = base / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        ds = base / "ds.bin"
        results = base / "results.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
        for canceller in ("tc", "pc", "nnc", "hc"):
            assert (
                main(
                    ["run", "--config", str(cfg), "--dataset", str(ds),
                     "--canceller", canceller, "--out", str(results)]
                )
                == 0
            )
        assert (
            main(["report", "--results", str(results), "--out-dir", str(base / "rpt")])
            == 0
        )

    pipeline(tmp_path / "one")
    pipeline(tmp_path / "two")
    files = [
        "results.csv",
        "results_epochs.csv",
        "rpt/summary.csv",
        "rpt/residual_bars.csv",
        "rpt/epoch_curves.csv",
    ]
    same = {f: (tmp_path / "one" / f).read_bytes() == (tmp_path / "two" / f).read_bytes() for f in files}
    ok = all(same.values())
    report("9", "pipeline determinism", ok, f"byte-identical={same}")
    for f, eq in same.items():
        assert eq, f


# ---------------------------------------------------------------------------
# 10. dataset round-trip and corruption detection


def test_criterion10_dataset_round_trip(tmp_path):
    from conftest import small_scenario
    from xlic import load_dataset, save_dataset
    from xlic.container import ContainerChecksumError

    ds = generate_dataset(small_scenario(n_samples=2000), seed=10)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    bit_exact = (
        np.array_equal(loaded.tx, ds.tx)
        and np.array_equal(loaded.rx, ds.rx)
        and loaded.input_scale == ds.input_scale
        and loaded.label_scale == ds.label_scale
        and loaded.meta == ds.meta
    )
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x10
    path.write_bytes(bytes(raw))
    try:
        load_dataset(path)
        corruption_caught = False
    except ContainerChecksumError:
        corruption_caught = True
    ok = bit_exact and corruption_caught
    report(
        "10",
        "dataset round-trip",
        ok,
        f"bit-exact={bit_exact}, corruption detected={corruption_caught}",
    )
    assert bit_exact
    assert corruption_caught
