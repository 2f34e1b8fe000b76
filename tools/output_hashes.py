"""Print sha256 digests of xlic's outputs, to compare two checkouts bit for bit.

    python3 tools/output_hashes.py <checkout> > a.json; diff a.json b.json

Imports ``xlic`` from ``<checkout>/src`` at one BLAS thread. Hashes datasets and
every ``CancellerResult`` field, history and weight array of tc, pc (P=3), nnc and
hc (3 epochs) on a small 2x2 scenario (seeds 1-2) and the default 4x4 one (seed 1);
``sweep`` on P (1-7 on the small scenario, whose P=7 basis has the most monomials
per antenna, 1-3 on the default one) and nh; ``run_pc`` at P=5 and 7 on the default
seed-1 dataset, where the fit's rounding moves most; and the CLI's exit status,
stdout, stderr and file bytes, with the epoch CSVs also hashed per column.
The default scenario's datasets of seeds 2-10, the acceptance seeds, are hashed too,
as is acceptance criterion 2's explicit-basis path on its noiseless seed-2 dataset:
``ls_fit`` on a full-depth P=3 basis matrix and ``apply_basis`` on its test rows.
Datasets alone are hashed for the scenario values that the default config does not
exercise: no received-power calibration (at the default and at a 30 dBm transmit
level), a fixed ADC full scale, per-antenna impairment lists, a partial ``iq``
object and the ADC switched off.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

SRC = os.path.join(os.path.abspath(sys.argv[1]), "src")
sys.path.insert(0, SRC)
import xlic  # noqa: E402
from xlic import (  # noqa: E402
    OfdmConfig, RunConfig, ScenarioSettings, TrainSettings, cli, harness, polynomial,
)

if not xlic.__file__.startswith(SRC + os.sep):
    sys.exit(f"xlic was imported from {xlic.__file__}, not from {SRC}")
SMALL = {"n_rx": 2, "n_tx": 2, "n_paths": 3, "n_samples": 4000}
SMALL_OFDM = {"fft_size": 256, "occupied_subcarriers": 28, "cp_len": 18}
TRAIN = TrainSettings(epochs=3)
EPOCH_CSVS = ("results_epochs.csv", "epoch_curves.csv")
digests = {}


def put(key: str, value) -> None:
    if isinstance(value, np.ndarray):
        value = f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    raw = value if isinstance(value, bytes) else repr(value).encode()
    digests[key] = hashlib.sha256(raw).hexdigest()


def put_result(key: str, res) -> None:
    for f in dataclasses.fields(res):
        if f.name != "artifacts":
            put(f"{key}/{f.name}", getattr(res, f.name))
    for name, obj in res.artifacts.items():
        # an FnnModel's four arrays, a PolyCoefficients' weights, or a scale
        arrays = obj.params() if hasattr(obj, "params") else [getattr(obj, "weights", obj)]
        for i, arr in enumerate(arrays):
            put(f"{key}/{name}/{i}", arr)


def put_dataset(key: str, ds) -> None:
    for name in ("tx", "rx", "input_scale", "label_scale", "split_index", "window_depth"):
        put(f"{key}/ds/{name}", getattr(ds, name))
    put(f"{key}/ds/meta", json.dumps(ds.meta, sort_keys=True))


def library(tag: str, scenario, seeds, nnc_hidden: int, hc_hidden: int, orders) -> None:
    for seed in seeds:
        ds = xlic.generate_dataset(scenario, seed)
        key = f"{tag}/s{seed}"
        put_dataset(key, ds)
        for c, n_hidden in (("tc", 0), ("pc", 0), ("nnc", nnc_hidden), ("hc", hc_hidden)):
            res = harness.run_canceller(ds, c, order=3, n_hidden=n_hidden, train_cfg=TRAIN)
            put_result(f"{key}/{c}", res)
        for axis, values in (("P", orders), ("nh", (8, 24))):
            for perf in (True, False):
                rows = harness.sweep(ds, axis, values, train_cfg=TRAIN, with_performance=perf)
                for i, row in enumerate(rows):
                    put_result(f"{key}/sweep_{axis}_{perf}/{i}", row)


def command_line() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config, ds, out = (os.path.join(tmp, n) for n in ("cfg.json", "ds.bin", "results.csv"))
        with open(config, "w") as fh:
            cfg = {"seed": 5, "scenario": {**SMALL, "ofdm": SMALL_OFDM}, "training": {"epochs": 3}}
            json.dump({**cfg, "canceller": {"nnc_hidden": 16, "hc_hidden": 8}}, fh)
        runs = [["run", "--canceller", c, "--out", out] for c in ("tc", "pc", "nnc", "hc", "xyz")]
        runs += [["sweep", "--axis", "nh", "--values", "8,24", "--out", f"{tmp}/nh.csv"]]
        runs += [["sweep", "--axis", "P", "--values", "1,3,5", "--no-train",
                  "--out", f"{tmp}/p.csv"]]
        runs = [["generate", "--out", ds]] + [argv + ["--dataset", ds] for argv in runs]
        runs = [argv + ["--config", config] for argv in runs]
        runs.append(["report", "--results", out, "--out-dir", f"{tmp}/report"])
        for i, argv in enumerate(runs):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                put(f"cli/{i}_{argv[0]}/exit", cli.main(argv))
            for name, text in (("stdout", stdout), ("stderr", stderr)):
                put(f"cli/{i}_{argv[0]}/{name}", text.getvalue().replace(tmp, "<tmp>"))
        for root, _, files in os.walk(tmp):
            for name in files:
                with open(os.path.join(root, name), "rb") as fh:
                    data = fh.read().replace(tmp.encode(), b"<tmp>")
                put(f"cli/file/{name}", data)
                if name in EPOCH_CSVS:
                    # a diff names the columns that moved, e.g. train_loss alone
                    for column in zip(*csv.reader(io.StringIO(data.decode()))):
                        put(f"cli/file/{name}/{column[0]}", column[1:])


def explicit_basis() -> None:
    """Acceptance criterion 2's fit: a basis matrix at full depth, not monomial chunks."""
    ds = xlic.generate_dataset(ScenarioSettings(noise_enabled=False, adc_enabled=False), 2)
    put_dataset("noiseless/s2", ds)
    labels, split_row = harness._aligned_labels(ds)
    spec = polynomial.BasisSpec(n_tx=ds.n_tx, depth=ds.window_depth, order=3)
    basis = polynomial.build_basis_matrix(ds.tx, spec)
    coeffs = polynomial.ls_fit(basis[:split_row], labels[:, :split_row], spec)
    put("noiseless/s2/explicit_p3/weights", coeffs.weights)
    estimate = polynomial.apply_basis(coeffs, basis[split_row:])
    put("noiseless/s2/explicit_p3/test_estimate", estimate)


def scenario_values() -> None:
    """Datasets of small scenarios, built from JSON-shaped dicts as a config file is."""
    uncalibrated = {"target_rx_power_dbm": None}
    variants = {
        "uncalibrated": uncalibrated,
        "uncalibrated_tx30": {**uncalibrated, "tx_power_dbm": 30},
        "fixed_adc": {"noise_enabled": False, "adc_full_scale": 5e-4, "adc_bits": 8},
        "per_antenna": {
            "iq": [{"gain": 1.02, "phase_rad": 0.01}, {"gain": 0.97, "phase_rad": -0.03}],
            "pa": [{}, {"order": 1, "memory": 0, "taps": [[[1.0, 0.0]]]}],
        },
        "partial_iq": {"iq": {"gain": 1.2}},
        "adc_off": {"adc_enabled": False},
    }
    for tag, values in variants.items():
        scenario = {**SMALL, "ofdm": SMALL_OFDM, **values}
        cfg = RunConfig.from_dict({"scenario": scenario})
        put_dataset(f"scenario/{tag}", xlic.generate_dataset(cfg.scenario, 3))


scenario_values()
small = ScenarioSettings(**SMALL, ofdm=OfdmConfig(**SMALL_OFDM))
library("small", small, (1, 2), 16, 8, (1, 3, 5, 7))
default = ScenarioSettings()
library("default", default, (1,), 300, 200, (1, 3))
default_s1 = xlic.generate_dataset(default, 1)
for order in (5, 7):
    put_result(f"default/s1/pc_p{order}", harness.run_pc(default_s1, order=order))
for seed in range(2, 11):
    put_dataset(f"default/s{seed}", xlic.generate_dataset(default, seed))
explicit_basis()
command_line()
print(json.dumps(digests, indent=1, sort_keys=True))
