"""Layer boundaries a traced run wraps, and the per-layer metrics it yields.

Each target is a public ``xlic`` module attribute that some other module
(or the benchmark) calls through; the span name's prefix is the layer
that owns the function, whichever module's namespace the call goes
through. Per-layer metrics describe one traced iteration of the timed
body (the mean over traced iterations): summed over all layers, the
``<layer>.self_s`` metrics equal ``trace.wall_s``.

Metrics marked computed in ``COMPUTED`` are derived from array sizes and
settings, not measured, and repeat exactly.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from xlic import channel, cli, container, fnn, harness, polynomial, scenario
from xlic.config import TrainSettings

from .spans import Span, self_times

LAYERS = (
    "bench",
    "cli",
    "config",
    "container",
    "harness",
    "scenario",
    "waveform",
    "rf_chain",
    "channel",
    "polynomial",
    "fnn",
)
ORDERS = (1, 3, 5, 7)
BATCH = 32
ADAM_FLOP_PER_PARAM = 10


def _basis_spec(result, tx, spec):
    return {"order": spec.order, "linear": spec.linear_only}


def _fit_spec(result, basis, labels, spec, **kwargs):
    return {"order": spec.order, "linear": spec.linear_only}


def _train(result, model, x_train, y_train, x_test, y_test, cfg, **kwargs):
    return {
        "epochs": cfg.epochs,
        "steps": cfg.epochs * math.ceil(len(x_train) / cfg.batch_size),
    }


def _file_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _exit_code(result, *args, **kwargs):
    return {"exit": result}


def targets():
    """``(module, attribute, span name, attrs)`` for ``spans.patched``."""
    return [
        (scenario, "generate_ofdm", "waveform.generate_ofdm", None),
        (scenario, "transmit_chain", "rf_chain.transmit_chain", None),
        (scenario, "calibrate_channel_gain", "channel.calibrate", None),
        (scenario, "propagate", "channel.propagate", None),
        (channel, "propagate", "channel.propagate", None),
        (scenario, "add_awgn", "channel.awgn", None),
        (scenario, "quantize_adc", "channel.adc", None),
        (scenario, "generate_dataset", "scenario.generate_dataset", None),
        (cli, "generate_dataset", "scenario.generate_dataset", None),
        (cli, "save_dataset", "scenario.save_dataset", None),
        (cli, "load_dataset", "scenario.load_dataset", None),
        (harness, "build_regressors", "scenario.build_regressors", None),
        (harness, "build_basis_matrix", "polynomial.basis", _basis_spec),
        (harness, "ls_fit", "polynomial.ls_fit", _fit_spec),
        (harness, "apply_basis", "polynomial.apply", None),
        (cli, "save_coefficients", "polynomial.save_coefficients", None),
        (harness, "train", "fnn.train", _train),
        (harness, "forward", "fnn.forward", None),
        (fnn, "forward", "fnn.forward", None),
        (cli, "save_model", "fnn.save_model", None),
        (harness, "run_tc", "harness.run_tc", None),
        (harness, "run_pc", "harness.run_pc", None),
        (harness, "run_nnc", "harness.run_nnc", None),
        (harness, "run_hc", "harness.run_hc", None),
        (harness, "sweep", "harness.sweep", None),
        (cli, "run_canceller", "harness.run_canceller", None),
        (cli, "sweep", "harness.sweep", None),
        (container, "write_container", "container.write", _file_bytes),
        (container, "read_container", "container.read", _file_bytes),
        (cli, "load_config", "config.load", None),
        (cli, "cmd_generate", "cli.generate", None),
        (cli, "cmd_run", "cli.run", None),
        (cli, "cmd_sweep", "cli.sweep", None),
        (cli, "cmd_report", "cli.report", None),
        (cli, "main", "cli.main", _exit_code),
    ]


def fnn_micro_us(blocks: int = 7, calls: int = 200) -> dict:
    """Median per-call time of the public training step pieces, batch 32, nh 300."""
    rng = np.random.default_rng(0)
    model = fnn.FnnModel.initialize(72, 300, 8, 0)
    x = rng.standard_normal((BATCH, 72))
    y = rng.standard_normal((BATCH, 8))
    grads = fnn.backward(model, x, y)
    state = fnn.AdamState.for_model(model)
    cfg = TrainSettings()

    def per_call_us(call) -> float:
        times = []
        for _ in range(blocks):
            start = time.perf_counter()
            for _ in range(calls):
                call()
            times.append((time.perf_counter() - start) / calls)
        return statistics.median(times) * 1e6

    return {
        "fnn.forward_us": per_call_us(lambda: fnn.forward(model, x)),
        "fnn.backward_us": per_call_us(lambda: fnn.backward(model, x, y)),
        "fnn.adam_us": per_call_us(lambda: fnn.adam_step(model, state, grads, cfg)),
    }


def computed_counts(scenario_settings, n_hidden: int) -> dict:
    """Sizes and operation counts that follow from the workload's settings.

    FLOPs per training step count the five matrix products of one
    forward/backward pass at batch ``b`` (``2 b nh (2 n_in + 3 n_out)``)
    plus ``ADAM_FLOP_PER_PARAM`` per parameter for the Adam update.
    """
    s = scenario_settings
    depth = s.window_depth
    rows = s.n_samples - depth + 1
    n_train = math.floor(s.train_fraction * s.n_samples) - (depth - 1)
    n_in, n_out = 2 * s.n_tx * depth, 2 * s.n_rx
    params = (n_in + 1) * n_hidden + (n_hidden + 1) * n_out
    steps = math.ceil(n_train / BATCH)
    matmul_per_row = 2 * n_hidden * (2 * n_in + 3 * n_out)
    out = {
        "fnn.steps_per_epoch": steps,
        "fnn.flop_per_step": BATCH * matmul_per_row + ADAM_FLOP_PER_PARAM * params,
        "fnn.flop_per_epoch": n_train * matmul_per_row + steps * ADAM_FLOP_PER_PARAM * params,
    }
    for order in ORDERS:
        n_terms = polynomial.BasisSpec(n_tx=s.n_tx, depth=depth, order=order).n_terms
        out[f"polynomial.n_terms.p{order}"] = n_terms
        out[f"polynomial.basis_mb.p{order}"] = rows * n_terms * 16 / 1e6
    return out


COMPUTED = tuple(computed_counts(scenario.ScenarioSettings(), 1)) + (
    "container.bytes_written",
    "container.bytes_read",
)


def body_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of the ``bench.iteration`` roots, per iteration."""
    root = {}
    for s in spans:
        root[s.id] = s.id if s.parent is None else root[s.parent]
    iterations = [s for s in spans if s.parent is None and s.name == "bench.iteration"]
    body = [s for s in spans if spans[root[s.id]].name == "bench.iteration"]
    per = 1.0 / max(len(iterations), 1)
    self_s = self_times(spans)

    def total(name, where=lambda s: True, own=False):
        return per * sum(
            self_s[s.id] if own else s.duration for s in body if s.name == name and where(s)
        )

    def attr_sum(name, key):
        return per * sum(s.attrs.get(key, 0) for s in body if s.name == name)

    def count(name, where=lambda s: True):
        return per * sum(1 for s in body if s.name == name and where(s))

    def under(caller):
        return lambda s: s.parent is not None and spans[s.parent].name == caller

    def order(p):
        return lambda s: s.attrs.get("order") == p and not s.attrs.get("linear")

    steps = attr_sum("fnn.train", "steps")
    m = {
        "fnn.train_s.nnc": total("fnn.train", under("harness.run_nnc")),
        "fnn.train_s.hc": total("fnn.train", under("harness.run_hc")),
        "fnn.steps": steps,
        "fnn.step_us": total("fnn.train", own=True) / steps * 1e6 if steps else 0.0,
        "fnn.eval_s": total("fnn.forward", under("fnn.train")),
    }
    for p in ORDERS:
        m[f"polynomial.basis_s.p{p}"] = total("polynomial.basis", order(p))
        m[f"polynomial.ls_fit_s.p{p}"] = total("polynomial.ls_fit", order(p))
    m["polynomial.apply_s"] = total("polynomial.apply")
    m["polynomial.rank_deficient"] = count(
        "polynomial.ls_fit", lambda s: s.attrs.get("raised") == "SingularBasisError"
    )
    for name in ("run_tc", "run_pc", "run_nnc", "run_hc", "sweep"):
        m[f"harness.{name}_s"] = total(f"harness.{name}")
    m.update(
        {
            "scenario.generate_dataset_s": total("scenario.generate_dataset", own=True),
            "scenario.build_regressors_s": total("scenario.build_regressors"),
            "waveform.generate_ofdm_s": total("waveform.generate_ofdm"),
            "rf_chain.transmit_chain_s": total("rf_chain.transmit_chain"),
            "channel.calibrate_s": total("channel.calibrate", own=True),
            "channel.propagate_s": total("channel.propagate"),
            "channel.awgn_s": total("channel.awgn"),
            "channel.adc_s": total("channel.adc"),
            "container.write_s": total("container.write"),
            "container.read_s": total("container.read"),
            "container.bytes_written": attr_sum("container.write", "bytes"),
            "container.bytes_read": attr_sum("container.read", "bytes"),
            "config.load_s": total("config.load"),
            "cli.generate_s": total("cli.generate"),
            "cli.run_s": total("cli.run"),
            "cli.sweep_s": total("cli.sweep"),
            "cli.report_s": total("cli.report"),
            "cli.calls": count("cli.main"),
            "cli.failed": count("cli.main", lambda s: s.attrs.get("exit") != 0),
        }
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per * sum(self_s[s.id] for s in body if s.layer == layer)
    m["trace.wall_s"] = per * sum(s.duration for s in iterations)
    m["trace.spans"] = per * len(body)
    return m


def unit_of(name: str) -> str:
    parts = name.split(".")
    if any(p.endswith("_us") for p in parts):
        return "us"
    if any(p.endswith("_s") for p in parts):
        return "s"
    if "basis_mb" in parts:
        return "MB"
    if any(p.startswith("flop") for p in parts):
        return "flop"
    if any(p.startswith("bytes") for p in parts):
        return "B"
    return "count"


PER_LAYER = (
    *body_metrics([]),
    "trace.setup_s",
    "trace.overhead_s",
    "fnn.forward_us",
    "fnn.backward_us",
    "fnn.adam_us",
    *computed_counts(scenario.ScenarioSettings(), 1),
)
UNITS = {name: unit_of(name) for name in PER_LAYER}
