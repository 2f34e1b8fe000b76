"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same iteration can take 1.5x longer for minutes at a
time, because other tenants contend for the core, the cache and memory.
``wall_ref`` divides each iteration's wall time by the time of this kernel
measured just before and just after it, which cancels most of that drift.
The kernel uses NumPy and Python only, never ``xlic``, so a change to the
program moves only the numerator.

The kernel mixes what the workloads spend their time on: small matrix
products on rows gathered from an array that fits the last-level cache
(network training), a pass over an array several times that size with a
fresh temporary (basis build and LS solve), and dict and string work
(the CLI). It runs in a child process, so its arrays never count toward
the benchmark's peak RSS, on the same single CPU as the benchmark (see
``pin_to_one_cpu``).

    python3 perfbench/reference.py     # serves one measurement per input line
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

GATHER_ROWS, GATHER_COLS, GATHER_STEPS = 50_000, 64, 300
STREAM_LEN = 16_000_000  # 128 MB of float64
DICT_KEYS = 50_000
# One measurement is the median of this many back-to-back kernel runs.
REPEATS = 7


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts later, on one CPU.

    The workloads are single-threaded; pinning keeps the reference kernel
    on the CPU whose speed it gauges.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Reference:
    """A child process that times the reference kernel on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._ask("warm-up")  # first call pays page faults and lazy set-up

    def _ask(self, line: str) -> float:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"reference kernel exited with {self.proc.wait()}")
        return float(reply)

    def measure(self) -> float:
        """Median seconds of ``REPEATS`` kernel runs, made just now."""
        return self._ask("run")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    import gc

    import numpy as np

    gc.disable()  # a collection would land in some runs and not others

    rng = np.random.default_rng(0)
    table = rng.standard_normal((GATHER_ROWS, GATHER_COLS))
    weights = rng.standard_normal((GATHER_COLS, 300)) * 0.05
    rows = rng.integers(0, GATHER_ROWS, (GATHER_STEPS, 32))
    stream = rng.standard_normal(STREAM_LEN)

    def kernel() -> None:
        for idx in rows:
            h = np.tanh(table[idx] @ weights)
            h.T @ h
        stream.sum()
        (stream[::2] * 2.0).sum()
        {str(k): (k, k + 1) for k in range(DICT_KEYS)}

    for _ in sys.stdin:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        print(repr(sorted(times)[REPEATS // 2]), flush=True)


if __name__ == "__main__":
    _serve()
