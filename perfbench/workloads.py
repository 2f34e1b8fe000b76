"""The benchmark's workloads: set-up, timed iteration and output checks.

Every call into ``xlic`` goes through a module attribute looked up at call
time (``harness.run_tc(...)``, never a name imported once), so a traced
run sees the span-recording wrappers that ``spans.patched`` installs.

Iteration ``i`` of ``quartet`` and ``cli_small`` works on dataset seed
number ``i // 2``: every seed runs twice in a row and the second run must
reproduce the first bit for bit.

Why these three workloads:

* ``quartet`` is the acceptance suite's per-seed pipeline at full size;
  network training does most of the work.
* ``pc_sweep`` fits the polynomial canceller at P = 1, 3, 5, 7 on one
  dataset; basis build and LS solve do all of the work, and at P = 7 the
  basis is several times the last-level cache.
* ``cli_small`` drives the command line on a tiny 2x2 scenario, where
  per-call overhead (argument parsing, config, container files, CSV
  appends) outweighs the numerics.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import statistics
import tempfile

import numpy as np

from xlic import cli, config, harness, scenario
from xlic.config import (
    CancellerSettings,
    OfdmSettings,
    RunConfig,
    ScenarioSettings,
    TrainSettings,
)
from xlic.polynomial import SingularBasisError

CANCELLERS = ("tc", "pc", "nnc", "hc")
PC_ORDER = 3
NNC_HIDDEN = 300
HC_HIDDEN = 200
# Fixed so that network training is at least three quarters of a traced
# quartet iteration; the acceptance suite's 60 epochs would take minutes.
QUARTET_EPOCHS = 8
SWEEP_ORDERS = (1, 3, 5, 7)
# pc_sweep's C_dB metrics leave out P = 7, which is rank deficient on some
# seeds (see _outcome); its C_dB, when there is one, is in the detail line.
C_DB_ORDERS = (1, 3, 5)
# tests/conftest.py::small_scenario: 2x2, 4000 samples, 256-point FFT.
SMALL_SCENARIO = dict(
    n_rx=2,
    n_tx=2,
    n_paths=3,
    n_samples=4000,
    ofdm=OfdmSettings(fft_size=256, occupied_subcarriers=28, cp_len=18),
)
CLI_HIDDEN = 16
CLI_EPOCHS = 1
# Narrow, one epoch and a larger batch keep training a minor share of the
# pipeline; this rate still lands every network canceller well above 0 dB.
CLI_BATCH = 64
CLI_LEARNING_RATE = 1e-2


class Ops:
    """Counts attempted and failed operations; a failure never aborts the run.

    An operation is a canceller call, a CLI call or an output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted and reported; the run goes on
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return ok


def dataset_seed(seed: int, k: int) -> int:
    """The k-th dataset seed of a benchmark run started with ``seed``."""
    rng = random.Random(seed)
    for _ in range(k):
        rng.randrange(1, 2**31)
    return rng.randrange(1, 2**31)


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _warm_up(cancellers: tuple[str, ...]) -> None:
    """Run each canceller once on a tiny dataset, so no lazy set-up is timed."""
    ds = scenario.generate_dataset(ScenarioSettings(**SMALL_SCENARIO), seed=1)
    for name in cancellers:
        harness.run_canceller(
            ds, name, order=PC_ORDER, n_hidden=CLI_HIDDEN, train_cfg=TrainSettings(epochs=1)
        )


def _fingerprint(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _median_by_canceller(c_db: dict) -> dict:
    return {name: statistics.median(v.values()) for name, v in c_db.items() if v}


class Workload:
    """Set-up is construction; the timed body is :meth:`iteration`."""

    name = ""
    scenario = ScenarioSettings()
    n_hidden = NNC_HIDDEN
    # Iterations 2k and 2k + 1 rerun the same inputs.
    paired = True

    def iteration(self, i: int, ops: Ops):
        raise NotImplementedError

    def check(self, i: int, result, ops: Ops) -> None:
        """Untimed output checks on what iteration ``i`` returned."""

    def finish(self, ops: Ops) -> None:
        """Untimed checks after the last iteration."""

    def c_db(self) -> dict:
        """Canceller (or order) -> C_dB, the median over dataset seeds."""
        raise NotImplementedError

    def detail(self) -> dict:
        """Extra facts for the run's detail line."""
        return {}

    def close(self) -> None:
        """Remove what set-up left on disk."""


class Quartet(Workload):
    """Per seed: generate, then tc, pc (P=3), nnc (nh=300) and hc (nh=200)."""

    name = "quartet"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.train = TrainSettings(epochs=QUARTET_EPOCHS)
        self._c_db = {name: {} for name in CANCELLERS}
        self._first = b""
        _warm_up(CANCELLERS)

    def iteration(self, i, ops):
        ds_seed = dataset_seed(self.seed, i // 2)
        ds = ops.call("generate_dataset", scenario.generate_dataset, self.scenario, ds_seed)
        results = {}
        if ds is not None:
            results["tc"] = ops.call("tc", lambda: harness.run_tc(ds))
            results["pc"] = ops.call("pc", lambda: harness.run_pc(ds, order=PC_ORDER))
            results["nnc"] = ops.call(
                "nnc", lambda: harness.run_nnc(ds, NNC_HIDDEN, self.train)
            )
            results["hc"] = ops.call("hc", lambda: harness.run_hc(ds, HC_HIDDEN, self.train))
        return ds_seed, results

    def check(self, i, result, ops):
        ds_seed, results = result
        values = []
        for name, res in results.items():
            if res is None:
                continue  # the call itself was counted as failed
            c = float(res.c_db)
            if ops.check(f"{name} C_dB finite (seed {ds_seed})", math.isfinite(c)):
                self._c_db[name][ds_seed] = c
            values += [c, *(res.c_db_history or ())]
        if i % 2 == 0:
            self._first = _fingerprint(values)
        else:
            ops.check(
                f"seed {ds_seed} rerun bit-identical", _fingerprint(values) == self._first
            )

    def c_db(self):
        return _median_by_canceller(self._c_db)


def _outcome(fit):
    """``fit()``, or the SingularBasisError that ``ls_fit`` documents for a
    rank-deficient basis.

    At P = 7 the unscaled monomial columns of the default 47 dBm data cross
    ``lstsq``'s rank threshold on about half the seeds. That is the solver's
    specified answer, so it is recorded as an outcome, not a failed call.
    """
    try:
        return fit()
    except SingularBasisError as exc:
        # Without its traceback the exception keeps no basis matrix alive.
        return exc.with_traceback(None)


def _sweep_fingerprint(outcome) -> bytes:
    if isinstance(outcome, SingularBasisError):
        return str(outcome).encode()
    return _fingerprint([float(r.c_db) for r in outcome])


class PcSweep(Workload):
    """``harness.sweep`` over P = 1, 3, 5, 7 on one dataset built in set-up."""

    name = "pc_sweep"
    # Every iteration sweeps the same dataset; one is enough for a run.
    paired = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.ds = scenario.generate_dataset(self.scenario, dataset_seed(seed, 0))
        self.rows = {}  # order -> CancellerResult
        self.rank_deficient = {}  # first rank-deficient order -> error message
        self._first = None
        _warm_up(("pc",))

    def _sweep(self, orders):
        return _outcome(
            lambda: harness.sweep(self.ds, "P", list(orders), with_performance=True)
        )

    def iteration(self, i, ops):
        return ops.call("sweep", self._sweep, SWEEP_ORDERS)

    def check(self, i, outcome, ops):
        if outcome is None:
            return
        if self._first is None:
            self._first = outcome
        else:
            ops.check(
                "sweep rerun bit-identical",
                _sweep_fingerprint(outcome) == _sweep_fingerprint(self._first),
            )

    def _record(self, rows, ops) -> None:
        settings = [r.setting for r in rows]
        ops.check("one sweep row per order", settings == sorted(settings), str(settings))
        for r in rows:
            if ops.check(f"P={r.setting} C_dB finite", math.isfinite(r.c_db)):
                self.rows[r.setting] = r

    def finish(self, ops):
        # A sweep stops at the first rank-deficient order. Sweeps over ever
        # shorter prefixes, outside the timed body, find that order and give
        # the rows below it.
        orders = list(SWEEP_ORDERS)
        outcome = self._first
        while isinstance(outcome, SingularBasisError):
            orders.pop()
            self.rank_deficient = {SWEEP_ORDERS[len(orders)]: str(outcome)}
            outcome = ops.call("sweep", self._sweep, orders) if orders else []
        if outcome is not None:
            self._record(outcome, ops)
        # One standalone fit per run, rotating with the seed: at P = 7 it
        # costs as much as the sweep's largest row.
        order = SWEEP_ORDERS[self.seed % len(SWEEP_ORDERS)]
        if order not in self.rows and order not in self.rank_deficient:
            return  # the sweep never reached it
        fit = ops.call(
            f"run_pc P={order}", _outcome, lambda: harness.run_pc(self.ds, order=order)
        )
        if fit is None:
            return
        if order in self.rank_deficient:
            same = isinstance(fit, SingularBasisError) and str(fit) == self.rank_deficient[order]
        else:
            same = not isinstance(fit, SingularBasisError)
            same = same and _same_bits(fit.c_db, self.rows[order].c_db)
        ops.check(f"sweep outcome at P={order} equals run_pc", same)

    def c_db(self):
        return {f"pc_p{p}": float(r.c_db) for p, r in self.rows.items() if p in C_DB_ORDERS}

    def detail(self):
        return {
            "c_db_all": {f"pc_p{p}": float(r.c_db) for p, r in self.rows.items()},
            "rank_deficient": {f"pc_p{p}": msg for p, msg in self.rank_deficient.items()},
        }


def _main(argv: list[str]) -> None:
    """One in-process ``xlic`` call with its output captured; nonzero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {out.getvalue().strip()}")


def _tree_bytes(root: str) -> dict:
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


class CliSmall(Workload):
    """Per seed, in a fresh directory: generate, run x4, sweep --no-train, report."""

    name = "cli_small"
    scenario = ScenarioSettings(**SMALL_SCENARIO)
    n_hidden = CLI_HIDDEN

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = tempfile.mkdtemp(prefix="cli_small-", dir=workdir)
        self.config = os.path.join(self.dir, "config.json")
        config.save_config(
            RunConfig(
                scenario=self.scenario,
                canceller=CancellerSettings(
                    order=PC_ORDER, nnc_hidden=CLI_HIDDEN, hc_hidden=CLI_HIDDEN
                ),
                training=TrainSettings(
                    epochs=CLI_EPOCHS, batch_size=CLI_BATCH, learning_rate=CLI_LEARNING_RATE
                ),
            ),
            self.config,
        )
        self._c_db = {name: {} for name in CANCELLERS}
        self._first: tuple[str, dict] = ("", {})
        warm = os.path.join(self.dir, "warm-up")
        for argv in self._pipeline(warm, 1):
            _main(argv)
        shutil.rmtree(warm)

    def _pipeline(self, out_dir: str, ds_seed: int) -> list[list[str]]:
        dataset = os.path.join(out_dir, "dataset.bin")
        results = os.path.join(out_dir, "results.csv")
        common = ["--config", self.config, "--seed", str(ds_seed)]
        runs = [
            ["run", *common, "--dataset", dataset, "--canceller", name, "--out", results,
             "--models-dir", os.path.join(out_dir, "models")]
            for name in CANCELLERS
        ]
        return [
            ["generate", *common, "--out", dataset],
            *runs,
            ["sweep", *common, "--dataset", dataset, "--axis", "P", "--values",
             ",".join(map(str, SWEEP_ORDERS)), "--no-train",
             "--out", os.path.join(out_dir, "sweep.csv")],
            ["report", "--results", results, "--out-dir", os.path.join(out_dir, "report")],
        ]

    def iteration(self, i, ops):
        ds_seed = dataset_seed(self.seed, i // 2)
        out_dir = os.path.join(self.dir, f"it{i}")
        for argv in self._pipeline(out_dir, ds_seed):
            ops.call(f"xlic {argv[0]}", _main, argv)
        return ds_seed, out_dir

    def _round_trip_exact(self, ds_seed: int, cli_file: str) -> bool:
        """load_dataset(save_dataset(ds)) is bit-exact, and so is the CLI's file."""
        ds = scenario.generate_dataset(self.scenario, ds_seed)
        path = os.path.join(self.dir, "round-trip.bin")
        scenario.save_dataset(ds, path)
        back = scenario.load_dataset(path)
        with open(path, "rb") as a, open(cli_file, "rb") as b:
            same_file = a.read() == b.read()
        os.remove(path)
        return same_file and all(
            (
                ds.tx.tobytes() == back.tx.tobytes(),
                ds.rx.tobytes() == back.rx.tobytes(),
                ds.tx.shape == back.tx.shape and ds.rx.shape == back.rx.shape,
                _same_bits(ds.input_scale, back.input_scale),
                _same_bits(ds.label_scale, back.label_scale),
                (ds.split_index, ds.window_depth) == (back.split_index, back.window_depth),
                json.dumps(ds.meta, sort_keys=True) == json.dumps(back.meta, sort_keys=True),
            )
        )

    def check(self, i, result, ops):
        ds_seed, out_dir = result
        rows = ops.call("read results.csv", _read_rows, os.path.join(out_dir, "results.csv"))
        rows = rows or []
        ops.check("one results row per run", len(rows) == len(CANCELLERS), f"({len(rows)})")
        for row in rows:
            c = ops.call("parse c_db", float, row["c_db"])
            if c is not None and ops.check(f"{row['canceller']} C_dB finite", math.isfinite(c)):
                self._c_db[row["canceller"]][ds_seed] = c
        files = _tree_bytes(out_dir)
        if i % 2 == 0:
            exact = ops.call(
                "dataset round trip",
                self._round_trip_exact,
                ds_seed,
                os.path.join(out_dir, "dataset.bin"),
            )
            if exact is not None:
                ops.check(f"dataset round trip bit-exact (seed {ds_seed})", exact)
            self._first = (out_dir, files)
        else:
            first_dir, first_files = self._first
            ops.check(
                f"seed {ds_seed} rerun writes byte-identical files", files == first_files
            )
            shutil.rmtree(first_dir, ignore_errors=True)
            shutil.rmtree(out_dir, ignore_errors=True)

    def c_db(self):
        return _median_by_canceller(self._c_db)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (Quartet, PcSweep, CliSmall)}
