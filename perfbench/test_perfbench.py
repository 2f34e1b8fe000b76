"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench

They use tiny inputs and finish in seconds; none of them times anything.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import run

run.import_program()

from perfbench import layers  # noqa: E402
from perfbench.spans import Span, Tracer, patched, self_times  # noqa: E402
from perfbench.workloads import SMALL_SCENARIO, WORKLOADS, Ops, Workload  # noqa: E402
from xlic import ScenarioSettings, harness, scenario  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, None, "bench.iteration", 0.0, 10.0),
        Span(1, 0, "harness.run_nnc", 1.0, 4.0),
        Span(2, 1, "fnn.train", 2.0, 3.0),
        Span(3, 0, "harness.run_hc", 5.0, 9.0),
        Span(4, 3, "fnn.train", 5.5, 7.0),
        Span(5, 3, "fnn.forward", 6.5, 8.0),  # overlaps its sibling by 0.5
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.5, 5: 1.5})


def test_self_times_of_sequential_spans_add_up_to_the_root():
    tracer = Tracer()
    with tracer.span("bench.iteration"):
        with tracer.span("harness.run_tc"):
            with tracer.span("polynomial.basis"):
                pass
            with tracer.span("polynomial.ls_fit"):
                pass
        with tracer.span("harness.run_pc"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(tracer.spans[0].duration)


class _Tiny(Workload):
    """tc and a one-epoch nnc on the 2x2 scenario; operation 'boom' raises."""

    name = "tiny"
    scenario = ScenarioSettings(**SMALL_SCENARIO)

    def __init__(self, seed, workdir, fail=False):
        self.fail = fail
        self.ds = scenario.generate_dataset(self.scenario, seed)
        self.values = {}

    def iteration(self, i, ops):
        from xlic import TrainSettings

        self.values["tc"] = ops.call("tc", lambda: harness.run_tc(self.ds)).c_db
        ops.call("nnc", lambda: harness.run_nnc(self.ds, 8, TrainSettings(epochs=1)))
        if self.fail:
            ops.call("boom", lambda: 1 / 0)

    def c_db(self):
        return self.values


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in layers.targets()]
    tracer, metrics, traced_walls, plain_walls, _ = run.traced(
        _Tiny, 3, 0.01, str(tmp_path), Ops()
    )
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    assert len(traced_walls) == len(plain_walls) >= 1
    names = {s.name for s in tracer.spans}
    assert {"harness.run_tc", "polynomial.basis", "fnn.train", "fnn.forward"} <= names
    accounted = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert accounted == pytest.approx(metrics["trace.wall_s"])


def test_patched_restores_attributes_when_the_body_raises():
    original = harness.run_tc
    with pytest.raises(ZeroDivisionError):
        with patched(Tracer(), [(harness, "run_tc", "harness.run_tc", None)]):
            assert harness.run_tc is not original
            1 / 0
    assert harness.run_tc is original


def test_failing_operation_is_counted_not_fatal(tmp_path):
    ops = Ops()
    assert ops.call("boom", lambda: 1 / 0) is None
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "ZeroDivisionError" in ops.errors[0]

    ops = Ops()
    setup, walls, cpus, refs, outputs = run.untraced(
        lambda seed, workdir: _Tiny(seed, workdir, fail=True), 3, 0.01, str(tmp_path), ops
    )
    assert len(walls) >= 2 and "tc" in outputs["c_db"]
    assert refs[0][0] == 0 and refs[-1][0] == len(walls)
    assert len(run.relative_walls(walls, refs)) == len(walls)
    assert ops.failed == len(walls)  # one 'boom' per iteration, nothing else
    assert ops.attempted == 3 * len(walls)


def test_relative_walls_divide_by_the_reference_runs_around_each_iteration():
    refs = [(0, 1.0), (2, 3.0), (3, 2.0)]
    assert run.relative_walls([4.0, 6.0, 5.0], refs) == pytest.approx([2.0, 3.0, 2.0])


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in [*end_to_end, *per_layer, *WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(layers.COMPUTED) <= set(per_layer)


def test_rank_deficient_fit_is_an_outcome_not_a_failure():
    from perfbench.workloads import _outcome
    from xlic.polynomial import SingularBasisError

    def rank_deficient():
        raise SingularBasisError("basis is rank deficient (1/2)")

    ops = Ops()
    got = ops.call("sweep", _outcome, rank_deficient)
    assert isinstance(got, SingularBasisError) and got.__traceback__ is None
    assert ops.failed == 0
    assert ops.call("sweep", _outcome, lambda: 1 / 0) is None
    assert ops.failed == 1
