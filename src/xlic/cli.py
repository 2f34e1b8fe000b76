"""Command-line front end: generate / run / sweep / report.

Subcommands:

    generate  simulate a dataset from a JSON run config
    run       fit or train one canceller on a dataset, append a result row
    sweep     tabulate counts (and optionally performance) along P or N_h
    report    summarize a results CSV into plot-ready files

All randomness flows from the config's root seed, outputs are written
atomically, and reruns with the same inputs produce byte-identical files
(no timestamps) at a fixed BLAS thread count. Concurrent ``run``
processes may append to one results CSV. Every error path exits nonzero
with a single ``error: <where>: <what>`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import fcntl
import io
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .container import ContainerError, write_atomic
from .fnn import save_model
from .harness import CANCELLERS, SWEEP_AXES, CancellerResult, run_canceller, sweep
from .polynomial import save_coefficients
from .scenario import generate_dataset, load_dataset, save_dataset

RESULT_FIELDS = [
    "canceller",
    "seed",
    "setting",
    "c_db",
    "residual_dbm",
    "rx_power_dbm",
    "noise_floor_dbm",
    "n_params",
    "complexity",
    "epochs",
]
# train_loss: the epoch's batch losses before each step, row-weighted (fnn.train);
# test_loss and test_c_db: the test rows after the epoch's last step
EPOCH_FIELDS = ["canceller", "seed", "epoch", "train_loss", "test_loss", "test_c_db"]

ABOVE_RANGE = "above-range"
OUT_DIR_ENV = "XLIC_OUT_DIR"


class CliError(Exception):
    """User-facing failure; message is printed as the diagnostic."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if np.isposinf(value):
            return ABOVE_RANGE
        if np.isneginf(value):
            return "-inf"
        return repr(value)
    return str(value)


def _result_row(res: CancellerResult) -> dict:
    return {f: _fmt(getattr(res, f)) for f in RESULT_FIELDS}


def _write_csv(path: str, fields: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def _append_csv(path: str, fields: list[str], rows: list[dict]) -> None:
    """Add rows to a CSV; concurrent appenders take turns and lose none.

    The lock is held on the file's directory, since the atomic write
    replaces the file itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    lock = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        existing = _read_csv(path, fields) if os.path.exists(path) else []
        _write_csv(path, fields, existing + rows)
    finally:
        os.close(lock)  # releases the lock


def _read_csv(path: str, required_fields: list[str]) -> list[dict]:
    if not os.path.exists(path):
        raise CliError(f"input: file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            rows = list(reader)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise CliError(f"schema: {path}: {exc}") from None
    missing = [f for f in required_fields if f not in header]
    if missing:
        raise CliError(f"schema: {path} is missing column '{missing[0]}'")
    # DictReader fills a short row's gaps, and keys a long row's extras, with None
    ragged = next((i for i, r in enumerate(rows, 1) if None in r or None in r.values()), 0)
    if ragged:
        raise CliError(f"schema: {path}: row {ragged} does not have {len(header)} fields")
    return rows


def _check_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise CliError(f"output: {path} exists (use --force to overwrite)")


def _out_path(args_out: str | None, default_name: str) -> str:
    if args_out:
        return args_out
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), default_name)


def _load_run_config(path: str, seed_override: int | None) -> RunConfig:
    if not os.path.exists(path):
        raise CliError(f"config: file not found: {path}")
    cfg = load_config(path)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)  # checked like the config's
    return cfg


def _load_dataset(path: str):
    try:
        return load_dataset(path)
    except (ContainerError, FileNotFoundError) as exc:
        raise CliError(f"dataset: {exc}") from exc


def cmd_generate(args) -> int:
    cfg = _load_run_config(args.config, args.seed)
    out = _out_path(args.out, "dataset.bin")
    _check_overwrite(out, args.force)
    ds = generate_dataset(cfg.scenario, cfg.seed)
    save_dataset(ds, out)
    print(
        f"dataset: {out} samples={ds.n_samples} split={ds.split_index} "
        f"tx={ds.n_tx} rx={ds.n_rx} seed={cfg.seed}"
    )
    return 0


def _epoch_rows(res: CancellerResult) -> list[dict]:
    """One ``EPOCH_FIELDS`` row per training epoch; none for tc and pc."""
    if res.test_losses is None:
        return []
    histories = zip(res.train_losses, res.test_losses, res.c_db_history)
    return [
        dict(zip(EPOCH_FIELDS, [res.canceller, _fmt(res.seed), str(epoch), *map(_fmt, values)]))
        for epoch, values in enumerate(histories, start=1)
    ]


def _warn_if_diverged(res: CancellerResult) -> None:
    """One stderr line for a network row with a non-finite loss or C_dB below 0 dB."""
    if res.test_losses is None:
        return
    if not np.all(np.isfinite(res.train_losses + res.test_losses)):
        reason = "non-finite loss"
    elif res.c_db < 0.0:
        reason = f"c_db {_fmt(res.c_db)} dB is below 0 dB"
    else:
        return
    print(
        f"warning: {res.canceller}: training diverged (n_hidden {res.setting}: {reason})",
        file=sys.stderr,
    )


def _epochs_path(results_path: str) -> str:
    stem, ext = os.path.splitext(results_path)
    return f"{stem}_epochs{ext or '.csv'}"


def _save_artifacts(res: CancellerResult, models_dir: str) -> None:
    """Persist fitted coefficients / trained weights next to the results."""
    os.makedirs(models_dir, exist_ok=True)
    scales = {
        k: res.artifacts[k]
        for k in ("input_scale", "label_scale", "residual_scale")
        if k in res.artifacts
    }
    if "model" in res.artifacts:
        save_model(
            res.artifacts["model"],
            os.path.join(models_dir, f"{res.canceller}_model.bin"),
            extra_meta={**scales, "canceller": res.canceller},
        )
    for key, suffix in (("stage1", "_stage1_coeffs.bin"), ("coefficients", "_coeffs.bin")):
        if key in res.artifacts:
            save_coefficients(
                res.artifacts[key],
                os.path.join(models_dir, f"{res.canceller}{suffix}"),
                extra_meta={"canceller": res.canceller},
            )


def cmd_run(args) -> int:
    cfg = _load_run_config(args.config, args.seed)
    ds = _load_dataset(args.dataset)
    n_hidden = cfg.canceller.nnc_hidden if args.canceller == "nnc" else cfg.canceller.hc_hidden
    res = run_canceller(
        ds,
        args.canceller,
        order=cfg.canceller.order,
        n_hidden=n_hidden,
        train_cfg=cfg.training,
    )
    _warn_if_diverged(res)
    out = _out_path(args.out, "results.csv")
    _append_csv(out, RESULT_FIELDS, [_result_row(res)])
    epoch_rows = _epoch_rows(res)
    if epoch_rows:
        _append_csv(_epochs_path(out), EPOCH_FIELDS, epoch_rows)
    _save_artifacts(res, args.models_dir or os.path.dirname(os.path.abspath(out)))
    print(
        f"{res.canceller}: c_db={_fmt(res.c_db)} residual={_fmt(res.residual_dbm)} dBm "
        f"params={res.n_params} complexity={res.complexity}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config, args.seed)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise CliError(f"usage: --values must be comma-separated integers: {exc}")
    if not values:
        raise CliError("usage: --values must list at least one integer")
    out = _out_path(args.out, "sweep.csv")
    _check_overwrite(out, args.force)
    ds = _load_dataset(args.dataset)
    rows = sweep(
        ds,
        args.axis,
        values,
        train_cfg=cfg.training,
        with_performance=not args.no_train,
    )
    for row in rows:
        _warn_if_diverged(row)
    _write_csv(out, RESULT_FIELDS, [_result_row(r) for r in rows])
    print(f"sweep: {out} rows={len(rows)}")
    return 0


def _c_db_sort_key(row: dict) -> float:
    raw = row.get("c_db", "")
    if raw == ABOVE_RANGE:
        return np.inf
    try:
        value = float(raw)
    except ValueError:
        return -np.inf
    return -np.inf if np.isnan(value) else value


def cmd_report(args) -> int:
    rows = _read_csv(args.results, RESULT_FIELDS)
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(out_dir, exist_ok=True)

    ranked = sorted(rows, key=_c_db_sort_key, reverse=True)
    _write_csv(os.path.join(out_dir, "summary.csv"), RESULT_FIELDS, ranked)

    # Residual-power bar data: received power reference, noise floor, then
    # one bar per canceller row.
    bars = []
    if rows:
        bars.append({"label": "received_cli", "power_dbm": rows[0]["rx_power_dbm"]})
        noise = rows[0].get("noise_floor_dbm", "")
        if noise not in ("", "-inf"):
            bars.append({"label": "noise_floor", "power_dbm": noise})
    for row in ranked:
        if row["residual_dbm"]:
            bars.append(
                {"label": row["canceller"], "power_dbm": row["residual_dbm"]}
            )
    _write_csv(os.path.join(out_dir, "residual_bars.csv"), ["label", "power_dbm"], bars)

    epochs_src = _epochs_path(args.results)
    if os.path.exists(epochs_src):
        epoch_rows = _read_csv(epochs_src, EPOCH_FIELDS)
        _write_csv(os.path.join(out_dir, "epoch_curves.csv"), EPOCH_FIELDS, epoch_rows)

    for row in ranked:
        print(
            f"{row['canceller']:>4}  c_db={row['c_db'] or 'n/a':>18}  "
            f"residual={row['residual_dbm'] or 'n/a'} dBm  "
            f"params={row['n_params']}  complexity={row['complexity']}"
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one ``error: usage:`` line."""

    def error(self, message):
        self.exit(2, f"error: usage: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xlic",
        description="Cross-link interference cancellation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate a dataset from a run config")
    gen.add_argument("--config", required=True, help="JSON run config")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.add_argument("--out", default=None, help="output dataset file")
    gen.add_argument("--force", action="store_true", help="overwrite existing output")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="fit/train one canceller on a dataset")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--dataset", required=True, help="dataset file from 'generate'")
    run.add_argument("--canceller", required=True, choices=CANCELLERS)
    run.add_argument("--out", default=None, help="results CSV (rows are appended)")
    run.add_argument(
        "--models-dir", default=None, help="where to save fitted models/coefficients"
    )
    run.set_defaults(func=cmd_run)

    sw = sub.add_parser("sweep", help="tabulate counts/performance along an axis")
    sw.add_argument("--config", required=True)
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--dataset", required=True)
    sw.add_argument("--axis", required=True, choices=SWEEP_AXES, help="'P' or 'nh'")
    sw.add_argument("--values", required=True, help="comma-separated axis values")
    sw.add_argument("--out", default=None)
    sw.add_argument("--force", action="store_true")
    sw.add_argument(
        "--no-train",
        action="store_true",
        help="emit parameter/complexity counts only (skip fitting and training)",
    )
    sw.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="summarize a results CSV")
    rep.add_argument("--results", required=True, help="results CSV from 'run'")
    rep.add_argument("--out-dir", default=None)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContainerError, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
