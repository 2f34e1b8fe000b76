"""Run one benchmark workload; the last line of stdout is its result.

    python3 perfbench/run.py --workload quartet --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the checkout that holds this file, and nothing else. Workloads are
``quartet``, ``pc_sweep`` and ``cli_small`` (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics: the set-up is repeated
``SETUP_REPEATS`` times (each with a fresh interpreter importing
``xlic``) and ``setup_s`` is the median; then iterations run for about
``--seconds`` (see ``keep_going``). ``wall_ref`` is the median of each
iteration's wall time over the reference kernel's time measured just
before and after it (see ``reference.py``). On a shared host the wall
time of the same iteration drifts by up to 1.5x over minutes; the ratio
cancels much of that, and the raw seconds are in the detail line.

``--trace 1`` measures the per-layer metrics. It traces one set-up, then
alternates traced and untraced iterations of the same inputs;
``trace.overhead_s`` is the median difference of those pairs. Spans and
metrics are also written to ``.perfbench/trace-<workload>-<seed>.json``.

Before the result line the run prints one JSON line with its details:
the machine record, per-iteration times, the C_dB of every canceller and
any operation that failed. The process exits nonzero, without a result
line, when the program cannot be imported or set-up fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
# The reference kernel runs before the first iteration, after the last,
# and after any iteration that ends this long after its previous run.
REF_EVERY_S = 4.0
# No iteration starts later than this, so a run ends well within 180 s.
LAST_START_S = 100.0

sys.path.insert(0, ROOT)
from perfbench import machine, reference  # noqa: E402  (import no NumPy)

machine.pin_blas_threads()

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "c_db.mean": "dB",
    "c_db.min": "dB",
}


def import_program():
    """Import ``xlic`` from this checkout's ``src/`` or raise ImportError."""
    sys.path.insert(0, SRC)
    import xlic

    if not os.path.abspath(xlic.__file__).startswith(SRC + os.sep):
        raise ImportError(f"xlic was imported from {xlic.__file__}, not from {SRC}")


def import_in_child() -> None:
    """Import ``xlic`` in a fresh interpreter, as every user's first call does."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import xlic", SRC],
        check=True,
        timeout=60,
    )


def keep_going(walls: list[float], started: float, seconds: float, paired: bool) -> bool:
    """Whether the next iteration starts, given the times of those done.

    At least one iteration runs, or one pair when iterations come in pairs
    (a rerun of the same inputs, or traced and untraced), and a started
    pair is completed. Otherwise an iteration starts only if one more of
    the last one's length still ends within ``seconds``.
    """
    i = len(walls)
    if i < (2 if paired else 1) or (paired and i % 2 == 1):
        return True
    elapsed = time.perf_counter() - started
    return elapsed < LAST_START_S and elapsed + walls[-1] <= seconds


def untraced(workload_cls, seed: int, seconds: float, workdir: str, ops):
    # The reference kernel's process starts first, so that it has settled
    # by the time the iterations begin.
    with reference.Reference() as ref:
        setup_times = []
        workload = None
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            start = time.perf_counter()
            import_in_child()
            workload = workload_cls(seed, workdir)
            setup_times.append(time.perf_counter() - start)
        walls, cpus = [], []
        refs = []  # (number of iterations done, reference kernel seconds)
        try:
            refs.append((0, ref.measure()))
            last_ref = started = time.perf_counter()
            while keep_going(walls, started, seconds, workload.paired):
                i = len(walls)
                start, cpu_start = time.perf_counter(), time.process_time()
                result = workload.iteration(i, ops)
                walls.append(time.perf_counter() - start)
                cpus.append(time.process_time() - cpu_start)
                workload.check(i, result, ops)
                if time.perf_counter() - last_ref >= REF_EVERY_S:
                    refs.append((len(walls), ref.measure()))
                    last_ref = time.perf_counter()
            if refs[-1][0] != len(walls):
                refs.append((len(walls), ref.measure()))
            workload.finish(ops)
            outputs = {"c_db": workload.c_db(), **workload.detail()}
        finally:
            workload.close()
    return setup_times, walls, cpus, refs, outputs


def relative_walls(walls: list[float], refs: list[tuple[int, float]]) -> list[float]:
    """Each iteration's wall time over the mean of the reference runs around it.

    ``refs`` holds ``(k, seconds)`` for a reference run made after ``k``
    iterations; the first has ``k == 0`` and the last ``k == len(walls)``.
    """
    out = []
    for (k0, before), (k1, after) in zip(refs, refs[1:]):
        out += [w / ((before + after) / 2) for w in walls[k0:k1]]
    return out


def traced(workload_cls, seed: int, seconds: float, workdir: str, ops):
    from perfbench import layers
    from perfbench.spans import Tracer, patched

    tracer = Tracer()
    with patched(tracer, layers.targets()), tracer.span("bench.setup"):
        workload = workload_cls(seed, workdir)
    walls = []  # even iterations traced, odd ones untraced on the same inputs
    started = time.perf_counter()
    try:
        while keep_going(walls, started, seconds, paired=True):
            i = len(walls)
            if i % 2 == 0:
                with patched(tracer, layers.targets()), tracer.span("bench.iteration") as s:
                    result = workload.iteration(i, ops)
                walls.append(s.duration)
            else:
                start = time.perf_counter()
                result = workload.iteration(i, ops)
                walls.append(time.perf_counter() - start)
            workload.check(i, result, ops)
        workload.finish(ops)
        outputs = {"c_db": workload.c_db(), **workload.detail()}
    finally:
        workload.close()
    traced_walls, plain_walls = walls[0::2], walls[1::2]
    metrics = layers.body_metrics(tracer.spans)
    metrics["trace.setup_s"] = next(s.duration for s in tracer.spans if s.name == "bench.setup")
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced_walls, plain_walls)
    )
    metrics.update(layers.fnn_micro_us())
    metrics.update(layers.computed_counts(workload_cls.scenario, workload_cls.n_hidden))
    return tracer, metrics, traced_walls, plain_walls, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    from perfbench import layers
    from perfbench.spans import peak_rss_mb
    from perfbench.workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    workload_cls = WORKLOADS[args.workload]
    reference.pin_to_one_cpu()
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = Ops()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace:
        tracer, metrics, traced_walls, plain_walls, outputs = traced(
            workload_cls, args.seed, args.seconds, OUT_DIR, ops
        )
        detail.update(traced_walls_s=traced_walls, untraced_walls_s=plain_walls)
    else:
        setup_times, walls, cpus, refs, outputs = untraced(
            workload_cls, args.seed, args.seconds, OUT_DIR, ops
        )
        values = list(outputs["c_db"].values())
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_ref": statistics.median(relative_walls(walls, refs)),
            "peak_rss_mb": peak_rss_mb(),
            # 0.0 only if every canceller failed, which also fails the run.
            "c_db.mean": statistics.fmean(values) if values else 0.0,
            "c_db.min": min(values) if values else 0.0,
        }
        detail.update(
            setup_times_s=setup_times, walls_s=walls, cpus_s=cpus, reference_s=refs
        )

    record = machine.machine_record()
    threads = record["blas_threads"]
    ops.check("one BLAS thread", threads in (None, 1), f"(BLAS reports {threads})")
    if not args.trace:
        metrics["ok_frac"] = (ops.attempted - ops.failed) / ops.attempted
    detail.update(
        machine=record,
        **outputs,
        attempted=ops.attempted,
        failed=ops.failed,
        errors=ops.errors[:20],
        computed=[name for name in layers.COMPUTED if name in metrics],
    )
    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**detail, "metrics": metrics, "spans": [dataclasses.asdict(s) for s in tracer.spans]},
                fh,
            )
        detail["trace_file"] = os.path.relpath(path, ROOT)
    units = END_TO_END if not args.trace else layers.UNITS
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
