"""Run every workload, print every metric by name, then the Baselines table.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--baselines]

Each workload runs twice through ``perfbench/run.py``: untraced for the
end-to-end metrics and traced for the per-layer ones. The output checks
are the runs' own; the command exits nonzero if any run was not correct.
Last comes ROADMAP's "Baselines" table, taken from the first traced
iteration of ``quartet`` and ``pc_sweep`` (the Adam step is the
micro-timing ``fnn.adam_us``). ``--baselines`` makes only the two traced
runs and prints only the table. The command prints; it edits no file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of ``run.py``; its result line plus the detail line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    )
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(result), "detail": json.loads(detail)}


def load_trace(workload: str, seed: int) -> dict:
    with open(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def first_iteration(trace: dict) -> list[dict]:
    """Spans under the first ``bench.iteration`` root."""
    spans = trace["spans"]
    root = {}
    for s in spans:
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
    first = next(s["id"] for s in spans if s["name"] == "bench.iteration")
    return [s for s in spans if root[s["id"]] == first]


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _children(spans: list[dict], parent: dict, name: str) -> list[dict]:
    return [s for s in spans if s["parent"] == parent["id"] and s["name"] == name]


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.0f} ms"


def _s(seconds: float) -> str:
    return f"{seconds:.2f} s"


def quartet_rows(trace: dict) -> list[tuple[str, str, str]]:
    spans = first_iteration(trace)
    gen = next(s for s in spans if s["name"] == "scenario.generate_dataset")
    parts = {
        name: sum(_dur(s) for s in _children(spans, gen, name))
        for name in ("channel.propagate", "rf_chain.transmit_chain", "waveform.generate_ofdm")
    }
    # calibrate_channel_gain propagates once more, one level further down.
    parts["channel.propagate"] += sum(
        _dur(s)
        for c in _children(spans, gen, "channel.calibrate")
        for s in _children(spans, c, "channel.propagate")
    )
    rows = [
        (
            "`generate_dataset`",
            _ms(_dur(gen)),
            f"propagate {_ms(parts['channel.propagate'])}, transmit chain "
            f"{_ms(parts['rf_chain.transmit_chain'])}, OFDM {_ms(parts['waveform.generate_ofdm'])}",
        ),
        ("tc fit+score", _ms(sum(_dur(s) for s in spans if s["name"] == "harness.run_tc")), ""),
    ]
    for canceller in ("nnc", "hc"):
        call = next(s for s in spans if s["name"] == f"harness.run_{canceller}")
        train = _children(spans, call, "fnn.train")[0]
        epochs = train["attrs"]["epochs"]
        rows.append(
            (
                f"{canceller}, 1 epoch",
                _s(_dur(train) / epochs),
                f"mean of {epochs} epochs, per-epoch evaluation included",
            )
        )
    rows.append(
        ("Adam update per step", f"{trace['metrics']['fnn.adam_us'] / 1e3:.2f} ms",
         "four tensors; isolated micro-benchmark")
    )
    return rows


def pc_rows(trace: dict) -> list[tuple[str, str, str]]:
    spans = first_iteration(trace)
    rows = []
    for call in (s for s in spans if s["name"] == "harness.run_pc"):
        basis = _children(spans, call, "polynomial.basis")[0]
        order = basis["attrs"]["order"]
        if order not in (3, 7):
            continue
        fit = _children(spans, call, "polynomial.ls_fit")[0]
        raised = f"; raised {fit['attrs']['raised']}" if "raised" in fit["attrs"] else ""
        rows.append(
            (
                f"pc fit+score, P={order}",
                _s(_dur(call)),
                f"basis build {_s(_dur(basis))} + `lstsq` {_s(_dur(fit))}; "
                f"peak RSS {call['peak_rss_mb']:.0f} MB{raised}",
            )
        )
    return rows


def baselines(seed: int) -> None:
    quartet = load_trace("quartet", seed)
    pc_sweep = load_trace("pc_sweep", seed)
    m = quartet["machine"]
    print(
        f"Machine: {m['nproc']} CPUs ({m['cpu_model']}, L2 {m['caches'].get('L2')}, "
        f"L3 {m['caches'].get('L3')}), Python {m['python']}, numpy {m['numpy']}, "
        f"scipy {m['scipy']}, {m['blas']}, {m['blas_threads']} BLAS thread. "
        f"Traced runs, seed {seed}, first traced iteration."
    )
    print()
    print("| stage | time | note |")
    print("|---|---|---|")
    rows = quartet_rows(quartet)
    for row in rows[:2] + pc_rows(pc_sweep) + rows[2:]:
        print("| " + " | ".join(row) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--baselines", action="store_true", help="only the Baselines table")
    args = parser.parse_args(argv)

    if args.baselines:
        for workload in ("quartet", "pc_sweep"):
            run(workload, args.seed, args.seconds, trace=1)
        baselines(args.seed)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    correct = True
    for workload in workloads:
        for trace in (0, 1):
            res = run(workload, args.seed, args.seconds, trace)
            correct = correct and res["correct"]
            print(
                f"# {workload} {'traced' if trace else 'untraced'}: correct={res['correct']} "
                f"attempted={res['attempted']} failed={res['failed']}"
            )
            for name, metric in res["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
            for error in res["detail"]["errors"]:
                print(f"{workload} failed: {error}")
    print()
    baselines(args.seed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
