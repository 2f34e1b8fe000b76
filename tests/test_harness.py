"""Tests for the canceller harness: metric, runners, counts and sweeps."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import ideal_rf, small_scenario
from xlic import harness
from xlic.channel import measure_power_dbm
from xlic.config import ConfigError, ScenarioSettings, TrainSettings
from xlic.fnn import nnc_complexity, nnc_param_count
from xlic.harness import (
    _aligned_labels,
    cancellation_db,
    deinterleave_iq,
    hc_complexity,
    hc_param_count,
    interleave_iq,
    residual_power_dbm,
    run_canceller,
    run_hc,
    run_nnc,
    run_pc,
    run_tc,
    sweep,
)
from xlic.polynomial import (
    CHUNK_ROWS,
    BasisSpec,
    SingularBasisError,
    apply_basis,
    build_basis_matrix,
    ls_fit,
)
from xlic.scenario import generate_dataset

FAST_TRAIN = TrainSettings(epochs=4, learning_rate=1e-3)


@pytest.fixture(scope="module")
def small_ds():
    return generate_dataset(small_scenario(), seed=31)


@pytest.fixture(scope="module")
def long_ds():
    # more training rows than one CHUNK_ROWS block
    return generate_dataset(small_scenario(n_samples=3 * CHUNK_ROWS), seed=34)


@pytest.fixture(scope="module")
def linear_ds():
    sc = ideal_rf(noise_enabled=False, adc_enabled=False, n_samples=3000)
    return generate_dataset(sc, seed=32)


class TestCancellationDb:
    def test_zero_estimate_gives_zero_db(self, rng):
        s = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
        assert cancellation_db(s, np.zeros_like(s)) == pytest.approx(0.0)

    def test_half_estimate(self, rng):
        s = rng.standard_normal((1, 100)) + 1j * rng.standard_normal((1, 100))
        assert cancellation_db(s, s / 2) == pytest.approx(10 * np.log10(4), abs=1e-9)

    @given(st.floats(0.01, 100.0))
    def test_common_scaling_invariance(self, c):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        s_hat = 0.7 * s
        assert cancellation_db(c * s, c * s_hat) == pytest.approx(
            cancellation_db(s, s_hat), rel=1e-9
        )

    def test_perfect_cancellation_above_measurable_range(self, rng):
        s = rng.standard_normal((1, 10)) + 0j
        assert cancellation_db(s, s) == np.inf

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cancellation_db(np.zeros((1, 5)), np.zeros((1, 5)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cancellation_db(np.zeros((1, 5)), np.zeros((2, 5)))


class TestResidualPower:
    def test_zero_estimate_returns_signal_power(self, rng):
        s = rng.standard_normal((2, 2000)) + 1j * rng.standard_normal((2, 2000))
        assert residual_power_dbm(s, np.zeros_like(s)) == pytest.approx(
            measure_power_dbm(s)
        )

    def test_log_identity_links_metric_and_powers(self, rng):
        s = rng.standard_normal((2, 500)) + 1j * rng.standard_normal((2, 500))
        s_hat = s * 0.9 + 0.01
        lhs = measure_power_dbm(s) - residual_power_dbm(s, s_hat)
        assert lhs == pytest.approx(cancellation_db(s, s_hat), rel=1e-9)


class TestIqInterleave:
    def test_round_trip(self, rng):
        s = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
        assert_allclose(deinterleave_iq(interleave_iq(s)), s)

    def test_layout(self):
        s = np.array([[1 + 2j], [3 + 4j]])
        assert_allclose(interleave_iq(s), [[1.0, 2.0, 3.0, 4.0]])


class TestRunners:
    def test_tc_on_linear_chain_is_exact(self, linear_ds):
        res = run_tc(linear_ds)
        assert res.above_measurable_range or res.c_db >= 80.0
        assert res.n_params == 2 * 2 * 2 * linear_ds.window_depth
        assert res.seed == 32

    def test_tc_equals_pc_restricted_to_direct_linear_terms(self, small_ds):
        ds = small_ds
        labels, split_row = _aligned_labels(ds)
        res_tc = run_tc(ds)
        # manual restriction: keep only the (p=1, q=1) columns of the full basis
        full = BasisSpec(n_tx=ds.n_tx, depth=ds.window_depth, order=1)
        mat = build_basis_matrix(ds.tx, full)
        keep = np.arange(full.n_terms).reshape(ds.n_tx, 2, -1)[:, 1].ravel()
        lin = BasisSpec.linear(ds.n_tx, ds.window_depth)
        coeffs = ls_fit(mat[:split_row][:, keep], labels[:, :split_row], lin)
        s_hat = apply_basis(coeffs, mat[split_row:][:, keep])
        manual = cancellation_db(labels[:, split_row:], s_hat)
        assert res_tc.c_db == pytest.approx(manual, rel=1e-12)
        assert_allclose(res_tc.artifacts["coefficients"].weights, coeffs.weights)

    def test_pc_beats_tc_on_nonlinear_chain(self, small_ds):
        # noiseless small dataset: polynomial basis captures the cubic terms
        sc = small_scenario(noise_enabled=False, adc_enabled=False)
        ds = generate_dataset(sc, seed=33)
        tc = run_tc(ds)
        pc = run_pc(ds, order=3)
        assert pc.c_db >= tc.c_db + 5.0

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_pc_param_count_is_fitted_weight_count(self, small_ds, order):
        # the reported count is the real size of the fitted complex weights,
        # 2 * n_rx * n_terms, which is quadratic in the order
        res = run_pc(small_ds, order=order)
        assert res.n_params == 2 * res.artifacts["coefficients"].weights.size

    def test_nnc_result_fields(self, small_ds):
        res = run_nnc(small_ds, 16, FAST_TRAIN)
        assert res.canceller == "nnc"
        assert res.epochs == 4
        assert len(res.train_losses) == 4
        assert len(res.c_db_history) == 4
        assert res.n_params == nnc_param_count(2, 2, 0, small_ds.window_depth, 16)
        assert np.isfinite(res.c_db)
        # per-epoch metric history consistent with the final evaluation
        assert res.c_db == pytest.approx(max(res.c_db_history), abs=0.75)

    def test_hc_on_linear_chain_matches_tc(self, linear_ds):
        # stage-2 labels are numerically tiny; hybrid stays at the linear level
        tc = run_tc(linear_ds)
        hc = run_hc(linear_ds, 8, FAST_TRAIN)
        if tc.above_measurable_range:
            assert hc.c_db >= 80.0
        else:
            assert hc.c_db >= tc.c_db - 3.0

    def test_hc_untrained_network_leaves_stage1_estimate(self, small_ds):
        # stage 2 starts from a zero output, so without updates hc is tc
        frozen = TrainSettings(epochs=1, learning_rate=0.0)
        hc = run_hc(small_ds, 8, frozen)
        assert hc.c_db == pytest.approx(run_tc(small_ds).c_db, rel=1e-9)

    def test_hc_stage1_is_the_tc_fit_bit_for_bit(self, long_ds):
        # both stage-1 fits go through _linear_fit from monomial chunks: one LS fit
        tc = run_tc(long_ds)
        hc = run_hc(long_ds, 8, TrainSettings(epochs=1, learning_rate=1e-3))
        stage1 = hc.artifacts["stage1"].weights
        assert stage1.tobytes() == tc.artifacts["coefficients"].weights.tobytes()

    def test_hc_builds_the_delay_line_once(self, small_ds, monkeypatch):
        # stage 2 trains on the linear basis, read as real windows; stage 1
        # reads depth-1 monomial chunks, so only one build is windows-sized
        calls = []
        for name in ("build_basis_matrix", "build_regressors"):

            def counted(*args, _original=getattr(harness, name), _name=name):
                out = _original(*args)
                calls.append((_name, out.shape))
                return out

            monkeypatch.setattr(harness, name, counted)
        run_hc(small_ds, 8, TrainSettings(epochs=1, learning_rate=1e-3))
        depth = small_ds.window_depth
        windows = (small_ds.tx.shape[1] - depth + 1, small_ds.n_tx * depth)
        assert all(name == "build_basis_matrix" for name, _ in calls)
        chunks = [shape for _, shape in calls if shape != windows]
        assert len(calls) - len(chunks) == 1
        assert {cols for _, cols in chunks} == {small_ds.n_tx}

    def test_pc_builds_the_basis_in_blocks(self, long_ds, monkeypatch):
        # no full basis: each build sees at most one block's delay lines
        lengths = []

        def counted(tx, spec, _original=harness.build_basis_matrix):
            lengths.append(tx.shape[1])
            return _original(tx, spec)

        monkeypatch.setattr(harness, "build_basis_matrix", counted)
        run_pc(long_ds, order=3)
        depth = long_ds.window_depth
        assert len(lengths) > 2
        assert max(lengths) <= CHUNK_ROWS + depth - 1
        assert sum(n - depth + 1 for n in lengths) == long_ds.n_samples - depth + 1

    def test_pc_memory_does_not_follow_the_capture_length(self, long_ds):
        # doubling the capture may add only arrays of the row count: the
        # labels, the estimate and the score's differences
        run_pc(long_ds, order=3)
        peaks = []
        for ds in (long_ds, generate_dataset(small_scenario(n_samples=6 * CHUNK_ROWS), seed=34)):
            tracemalloc.start()
            try:
                run_pc(ds, order=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        labels_bytes = long_ds.rx.nbytes  # the 3 * CHUNK_ROWS more samples
        assert peaks[1] - peaks[0] <= 3 * labels_bytes

    @pytest.mark.parametrize("canceller", ["tc", "pc"])
    def test_constant_tx_is_singular_with_its_condition(self, small_ds, canceller):
        ds = replace(small_ds, tx=np.ones_like(small_ds.tx))
        with pytest.raises(SingularBasisError, match="condition estimate"):
            run_canceller(ds, canceller)

    @pytest.mark.parametrize("canceller", ["nnc", "hc"])
    def test_network_holds_one_copy_of_the_windows(self, long_ds, canceller):
        # windows scaled in place, batches gathered by index, test rows
        # predicted in chunks: no second windows-sized array is ever live
        windows = long_ds.n_samples * 2 * long_ds.n_tx * long_ds.window_depth * 8
        tracemalloc.start()
        try:
            run_canceller(long_ds, canceller, n_hidden=16, train_cfg=TrainSettings(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * windows

    def test_pc_order_7_is_not_rank_deficient(self):
        # an unscaled SVD lstsq judged this P=7 basis rank deficient (719/720)
        ds = generate_dataset(ScenarioSettings(), seed=7)
        p7 = run_pc(ds, order=7).c_db
        assert np.isfinite(p7)
        assert p7 >= run_pc(ds, order=1).c_db

    def test_unknown_canceller_rejected(self, small_ds):
        with pytest.raises(ValueError, match="unknown canceller"):
            run_canceller(small_ds, "zzz")

    def test_dispatch_matches_direct_calls(self, small_ds):
        assert run_canceller(small_ds, "tc").c_db == run_tc(small_ds).c_db


class TestHcCounts:
    def test_reference_values(self):
        assert hc_param_count(4, 4, 2, 7, 200) == 16498
        assert hc_complexity(4, 4, 2, 7, 200) == 33424

    def test_degenerate_first_term(self):
        assert hc_param_count(1, 1, 1, 0, 1) - nnc_param_count(1, 1, 1, 0, 1) == 2

    def test_difference_to_network_counts(self):
        for n_h in (50, 200, 300):
            assert hc_param_count(4, 4, 2, 7, n_h) - nnc_param_count(4, 4, 2, 7, n_h) == 2 * 4 * 4 * 9
            assert hc_complexity(4, 4, 2, 7, n_h) - nnc_complexity(4, 4, 2, 7, n_h) == 8 * 4 * 4 * 9 - 2 * 4

    def test_wider_network_value(self):
        assert hc_complexity(4, 4, 2, 7, 300) == 8 * 144 - 8 + 48380


class TestSweep:
    def test_empty_values_empty_table(self, small_ds):
        assert sweep(small_ds, "P", [], with_performance=False) == []

    def test_order_axis_counts(self, small_ds):
        rows = sweep(small_ds, "P", [1, 3, 5, 7], with_performance=False)
        assert [r.setting for r in rows] == [1, 3, 5, 7]
        depth = small_ds.window_depth
        from xlic.polynomial import pc_complexity, pc_param_count

        for row in rows:
            assert row.n_params == pc_param_count(2, 2, 0, depth, row.setting)
            assert row.complexity == pc_complexity(2, 2, 0, depth, row.setting)
            assert row.c_db is None

    def test_width_axis_rows_per_value(self, small_ds):
        rows = sweep(small_ds, "nh", [50, 100], with_performance=False)
        assert [(r.canceller, r.setting) for r in rows] == [
            ("nnc", 50),
            ("hc", 50),
            ("nnc", 100),
            ("hc", 100),
        ]

    def test_width_counts_monotone_linear(self, small_ds):
        rows = sweep(small_ds, "nh", [100, 200, 300], with_performance=False)
        nnc = [r.n_params for r in rows if r.canceller == "nnc"]
        assert nnc[2] - nnc[1] == nnc[1] - nnc[0] > 0

    @pytest.mark.parametrize("axis, values", [("P", [1, 3]), ("nh", [4, 8])])
    def test_counts_only_rows_match_performance_rows(self, small_ds, axis, values):
        # the counting columns must not depend on whether the sweep trains
        cfg = TrainSettings(epochs=1, learning_rate=1e-3)

        def counts(rows):
            return [(r.canceller, r.setting, r.n_params, r.complexity) for r in rows]

        counted = sweep(small_ds, axis, values, train_cfg=cfg, with_performance=False)
        scored = sweep(small_ds, axis, values, train_cfg=cfg, with_performance=True)
        assert counts(counted) == counts(scored)
        assert all(r.c_db is None for r in counted)
        assert all(np.isfinite(r.c_db) for r in scored)

    def test_order_axis_rows_equal_run_pc_bit_for_bit(self, long_ds):
        # unsorted, with a repeat; P=7 has 200 terms here
        values = [7, 1, 5, 3, 3]
        rows = sweep(long_ds, "P", values, with_performance=True)
        assert [row.setting for row in rows] == values
        for row in rows:
            alone = run_pc(long_ds, order=row.setting)
            assert np.float64(row.c_db).tobytes() == np.float64(alone.c_db).tobytes()
            weights = row.artifacts["coefficients"].weights
            assert weights.tobytes() == alone.artifacts["coefficients"].weights.tobytes()

    def test_order_axis_builds_the_largest_order_monomials_once(self, long_ds, monkeypatch):
        calls = []

        def counted(tx, spec):
            calls.append(spec.order)
            return build_basis_matrix(tx, spec)

        monkeypatch.setattr(harness, "build_basis_matrix", counted)
        run_pc(long_ds, order=7)
        alone = list(calls)
        calls.clear()
        sweep(long_ds, "P", [1, 3, 5, 7], with_performance=True)
        assert calls == alone

    def test_first_singular_order_raises_as_run_pc(self, small_ds):
        # constant modulus: x * |x|^2 = x, so P=3 repeats P=1's columns
        phase = np.angle(small_ds.tx)
        ds = replace(small_ds, tx=np.exp(1j * phase))
        run_pc(ds, order=1)  # P=1 alone is regular
        with pytest.raises(SingularBasisError) as alone:
            run_pc(ds, order=3)
        with pytest.raises(SingularBasisError) as swept:
            sweep(ds, "P", [1, 3], with_performance=True)
        assert str(swept.value) == str(alone.value)

    def test_order_axis_with_performance(self, small_ds):
        rows = sweep(small_ds, "P", [1, 3], with_performance=True)
        assert all(np.isfinite(r.c_db) for r in rows)

    @pytest.mark.parametrize(
        "axis, values, with_performance",
        [
            ("nh", [0, -5], False),
            ("P", [-1], False),
            ("P", [1, 4], True),
            ("nh", [8, 0], True),
        ],
    )
    def test_invalid_value_rejected_before_any_row(
        self, small_ds, monkeypatch, axis, values, with_performance
    ):
        runs = []
        monkeypatch.setattr(harness, "run_canceller", lambda *args, **kw: runs.append(kw))
        with pytest.raises(ConfigError):
            sweep(small_ds, axis, values, with_performance=with_performance)
        assert runs == []

    def test_unknown_axis_rejected(self, small_ds):
        with pytest.raises(ValueError, match="axis"):
            sweep(small_ds, "Q", [1])
