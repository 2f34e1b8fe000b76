"""Tests for the feedforward network: forward, gradients, Adam, training."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from xlic import fnn
from xlic.config import TrainSettings
from xlic.fnn import (
    AdamState,
    FnnModel,
    Gradients,
    adam_step,
    backward,
    forward,
    load_model,
    loss_mse,
    nnc_complexity,
    nnc_param_count,
    save_model,
    train,
)


def tiny_model(rng, n_in=4, n_h=2, n_out=2) -> FnnModel:
    return FnnModel(
        w_hidden=rng.standard_normal((n_h, n_in)),
        b_hidden=rng.standard_normal(n_h),
        w_out=rng.standard_normal((n_out, n_h)),
        b_out=rng.standard_normal(n_out),
    )


def as_float32(model: FnnModel) -> FnnModel:
    """The float32 copy of ``model`` that ``train`` steps."""
    return FnnModel(*(p.astype(np.float32) for p in model.params()))


def forward_oracle(model: FnnModel, x: np.ndarray) -> np.ndarray:
    """Scalar straight-line evaluation, independent of the library path."""
    hidden = []
    for i in range(model.n_hidden):
        z = model.b_hidden[i]
        for j in range(model.n_in):
            z += model.w_hidden[i, j] * x[j]
        hidden.append(max(z, 0.0))
    out = []
    for o in range(model.n_out):
        y = model.b_out[o]
        for i in range(model.n_hidden):
            y += model.w_out[o, i] * hidden[i]
        out.append(y)
    return np.array(out)


class TestInitialize:
    def test_residual_init_starts_at_zero_output(self, rng):
        model = FnnModel.initialize(6, 5, 2, seed=9, residual=True)
        assert_array_equal(forward(model, rng.standard_normal((20, 6))), 0.0)
        assert_array_equal(model.b_hidden, 0.0)

    def test_residual_init_shares_hidden_weights(self):
        plain = FnnModel.initialize(6, 5, 2, seed=9)
        residual = FnnModel.initialize(6, 5, 2, seed=9, residual=True)
        assert_array_equal(residual.w_hidden, plain.w_hidden)


class TestFlatParameters:
    def test_constructor_copies(self, rng):
        arrays = tiny_model(rng).params()
        saved = [a.copy() for a in arrays]
        model = FnnModel(*arrays)
        for a in arrays:
            a[...] = 0.0
        for p, s in zip(model.params(), saved):
            assert_array_equal(p, s)

    def test_fields_are_views_into_flat(self, rng):
        model = tiny_model(rng)
        assert_array_equal(model.flat, np.concatenate([p.ravel() for p in model.params()]))
        model.flat[:] = 7.0
        for p in model.params():
            assert_array_equal(p, 7.0)


class TestForward:
    def test_all_zero_weights_return_bias(self):
        model = FnnModel(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.array([1.5, -0.5]))
        assert_allclose(forward(model, np.array([[7.0, -2.0]])), [[1.5, -0.5]])

    def test_relu_kills_negative_preactivation(self):
        model = FnnModel(np.array([[1.0]]), np.zeros(1), np.array([[2.0]]), np.zeros(1))
        assert forward(model, np.array([[-3.0]]))[0, 0] == 0.0

    def test_matches_straight_line_oracle(self, rng):
        model = tiny_model(rng)
        x = rng.standard_normal((5, 4))
        out = forward(model, x)
        for i in range(5):
            assert_allclose(out[i], forward_oracle(model, x[i]), atol=1e-12)

    def test_batch_rows_match_single_vectors(self, rng):
        model = tiny_model(rng)
        xb = rng.standard_normal((6, 4))
        out = forward(model, xb)
        for i in range(6):
            assert_allclose(out[i], forward(model, xb[i : i + 1])[0])

    def test_positively_homogeneous_in_output_layer(self, rng):
        model = tiny_model(rng)
        scaled = FnnModel(*model.params())
        scaled.w_out *= 2.5
        scaled.b_out *= 2.5
        x = rng.standard_normal((3, 4))
        assert_allclose(forward(scaled, x), 2.5 * forward(model, x))

    def test_hidden_array_is_chunked(self, rng):
        # float64, 300 hidden units: all 20,000 rows' hidden array is 48 MB
        model = FnnModel.initialize(4, 300, 2, seed=1)
        x = rng.standard_normal((20000, 4))
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(x) * model.n_hidden * model.flat.itemsize / 4

    def test_dimension_mismatch_rejected(self, rng):
        model = tiny_model(rng)
        # a wrong width, and a single vector instead of a batch of rows
        for x in (np.zeros((2, 5)), np.zeros(4)):
            with pytest.raises(ValueError, match="width"):
                forward(model, x)


class TestBackward:
    def test_gradient_matches_central_differences(self, rng):
        # 4-2-2 model, step 1e-5, away from ReLU kinks
        model = tiny_model(rng)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 2))
        # keep pre-activations away from zero so finite differences are clean
        pre = x @ model.w_hidden.T + model.b_hidden
        assert np.abs(pre).min() > 1e-3
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
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                worst = max(worst, abs(fd - g[idx]) / denom)
        assert worst < 1e-4

    def test_zero_residual_zero_gradients(self, rng):
        model = tiny_model(rng)
        x = rng.standard_normal((5, 4))
        y = forward(model, x)
        grads = backward(model, x, y)
        for g in grads.params():
            assert_allclose(g, 0.0, atol=1e-14)

    def test_batch_gradient_is_mean_of_singles(self, rng):
        model = tiny_model(rng)
        x = rng.standard_normal((2, 4))
        y = rng.standard_normal((2, 2))
        g_batch = backward(model, x, y)
        g0 = backward(model, x[:1], y[:1])
        g1 = backward(model, x[1:], y[1:])
        for b, a0, a1 in zip(g_batch.params(), g0.params(), g1.params()):
            assert_allclose(b, (a0 + a1) / 2, atol=1e-12)

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(ValueError, match="nonempty"):
            backward(tiny_model(rng), np.zeros((0, 4)), np.zeros((0, 2)))

    def test_out_is_overwritten_and_returned(self, rng):
        model = tiny_model(rng)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 2))
        out = backward(model, x[:2], y[:2])
        assert backward(model, x, y, out=out) is out
        assert_array_equal(out.flat, backward(model, x, y).flat)

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_records_the_batch_loss(self, rng, dtype, rel):
        # the float32 step takes its error against float32-rounded labels
        model = FnnModel(*(p.astype(dtype) for p in tiny_model(rng).params()))
        x = rng.standard_normal((13, 4))
        y = rng.standard_normal((13, 2))
        grads = backward(model, x, y)
        assert isinstance(grads.loss, float)
        assert grads.loss == pytest.approx(loss_mse(forward(model, x), y), rel=rel, abs=0)
        assert backward(model, x[:3], y[:3], out=grads).loss == pytest.approx(
            loss_mse(forward(model, x[:3]), y[:3]), rel=rel, abs=0
        )

    def test_zero_preactivation_gives_exact_zero_gradient(self, rng):
        # unit 0 has pre == 0 on every row, and the error back-propagated
        # into it overflows to inf; its gradient must still be exactly
        # +0.0 (a mask applied as a product would give inf * 0 = nan)
        model = FnnModel(
            np.vstack([np.zeros(4), rng.standard_normal((2, 4))]),
            np.array([0.0, 0.5, -0.5]),
            np.array([[1e10, 1.0, 1.0]]),
            np.zeros(1),
        )
        x = rng.standard_normal((6, 4))
        with np.errstate(over="ignore"):
            grads = backward(model, x, np.full((6, 1), -1e300))
        for g in (grads.w_hidden[0], grads.b_hidden[:1]):
            assert_array_equal(g, 0.0)
            assert not np.signbit(g).any()


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        # two-parameter model: gradient g with bias-corrected ratio ~ 1
        # gives an update of about lr * sign(g) per coordinate
        model = FnnModel(np.array([[0.5]]), np.array([0.25]), np.zeros((1, 1)), np.zeros(1))
        cfg = TrainSettings(learning_rate=1e-3)
        grads = Gradients(
            w_hidden=np.array([[0.2]]),
            b_hidden=np.array([-0.4]),
            w_out=np.zeros((1, 1)),
            b_out=np.zeros(1),
        )
        state = AdamState.for_model(model)
        adam_step(model, state, grads, cfg)
        assert model.w_hidden[0, 0] == pytest.approx(0.5 - 1e-3, rel=1e-6)
        assert model.b_hidden[0] == pytest.approx(0.25 + 1e-3, rel=1e-6)

    def test_hand_built_gradients_step_like_backward(self, rng):
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 2))
        cfg = TrainSettings(learning_rate=1e-2)
        a = tiny_model(rng)
        b = FnnModel(*a.params())
        before = a.flat.copy()
        grads = backward(a, x, y)
        hand = Gradients(*(g.copy() for g in grads.params()))
        state_a, state_b = AdamState.for_model(a), AdamState.for_model(b)
        for _ in range(3):
            adam_step(a, state_a, grads, cfg)
            adam_step(b, state_b, hand, cfg)
        assert_array_equal(a.flat, b.flat)
        assert not np.array_equal(a.flat, before)

    def test_zero_gradient_keeps_parameters_and_advances_time(self, rng):
        model = tiny_model(rng)
        before = [p.copy() for p in model.params()]
        state = AdamState.for_model(model)
        zero = Gradients(*(np.zeros_like(p) for p in model.params()))
        adam_step(model, state, zero, TrainSettings())
        assert state.t == 1
        for p, b in zip(model.params(), before):
            assert_array_equal(p, b)

    def test_two_runs_identical(self, rng):
        x = rng.standard_normal((64, 4))
        y = rng.standard_normal((64, 2))
        cfg = TrainSettings(epochs=3, batch_size=8)

        def run():
            model = FnnModel.initialize(4, 3, 2, seed=5)
            return train(model, x, y, x, y, cfg, shuffle_seed=6)

        a, b = run(), run()
        assert a.train_losses == b.train_losses
        assert a.test_losses == b.test_losses
        for pa, pb in zip(a.model.params(), b.model.params()):
            assert_array_equal(pa, pb)


class TestTrain:
    def test_linear_map_converges(self, rng):
        # ample capacity on a noiseless linear target: normalized MSE
        # below 1e-3 within 50 epochs
        true_w = rng.standard_normal((2, 6))
        x = rng.standard_normal((2000, 6)) * 0.5
        y = x @ true_w.T
        model = FnnModel.initialize(6, 32, 2, seed=3)
        cfg = TrainSettings(epochs=50, learning_rate=2e-3)
        fit = train(model, x, y, x[:200], y[:200], cfg, shuffle_seed=4)
        assert min(fit.test_losses) / np.mean(np.sum(y**2, axis=1)) < 1e-3

    def test_zero_learning_rate_freezes_model(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal((50, 2))
        model = tiny_model(rng)
        before = [p.copy() for p in model.params()]
        cfg = TrainSettings(epochs=3, learning_rate=0.0)
        fit = train(model, x, y, x, y, cfg, shuffle_seed=1)
        for p, b in zip(fit.model.params(), before):
            assert_array_equal(p, b.astype(np.float32))  # the float32 rounding
        # each epoch's loss is the frozen model's, up to the float32-rounded
        # labels of the steps and a summation order that follows the shuffle
        frozen = loss_mse(forward(as_float32(model), x), y)
        for loss in fit.train_losses:
            assert loss == pytest.approx(frozen, rel=1e-6, abs=0)

    def test_loss_history_finite_and_no_divergence(self, rng):
        x = rng.standard_normal((500, 4))
        y = 0.3 * x[:, :2] + 0.05 * rng.standard_normal((500, 2))
        model = FnnModel.initialize(4, 8, 2, seed=2)
        cfg = TrainSettings(epochs=20, learning_rate=1e-3)
        fit = train(model, x, y, x[:100], y[:100], cfg, shuffle_seed=3)
        assert np.all(np.isfinite(fit.train_losses))

    def test_final_model_retention(self, rng):
        x = rng.standard_normal((200, 4))
        y = rng.standard_normal((200, 2))
        model = FnnModel.initialize(4, 4, 2, seed=7)
        cfg = TrainSettings(epochs=5, learning_rate=1e-3)
        fit = train(model, x, y, x, y, cfg, shuffle_seed=8)
        # the returned model reproduces the last epoch's recorded test loss
        assert loss_mse(forward(fit.model, x), y) == pytest.approx(fit.test_losses[-1])

    def test_empty_training_set_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            train(
                tiny_model(rng),
                np.zeros((0, 4)),
                np.zeros((0, 2)),
                np.zeros((1, 4)),
                np.zeros((1, 2)),
                TrainSettings(epochs=1),
                shuffle_seed=1,
            )

    def test_partial_final_batch_handled(self, rng):
        x = rng.standard_normal((37, 4))  # not a multiple of the batch size
        y = rng.standard_normal((37, 2))
        model = FnnModel.initialize(4, 4, 2, seed=7)
        cfg = TrainSettings(epochs=2, batch_size=8, learning_rate=1e-3)
        fit = train(model, x, y, x, y, cfg, shuffle_seed=8)
        assert np.all(np.isfinite(fit.train_losses))

    def test_train_is_the_tested_step(self, rng):
        # train must be exactly seeded permutation batches through
        # adam_step(backward(...)) on a float32 copy of the model; 37 rows
        # at batch 8 end in a tail of 5. At this rate the test loss is
        # lowest at the first epoch, yet the last epoch's weights come back.
        x = rng.standard_normal((37, 4))
        y = rng.standard_normal((37, 2))
        cfg = TrainSettings(epochs=3, batch_size=8, learning_rate=0.3)
        trained = FnnModel.initialize(4, 5, 2, seed=7)
        fit = train(trained, x, y, x, y, cfg, shuffle_seed=8)

        model = as_float32(FnnModel.initialize(4, 5, 2, seed=7))
        state = AdamState.for_model(model)
        shuffle = np.random.default_rng(8)
        losses, test_losses = [], []
        for _ in range(cfg.epochs):
            order = shuffle.permutation(len(x))
            sq_err = 0.0
            for start in range(0, len(x), cfg.batch_size):
                rows = order[start : start + cfg.batch_size]
                grads = backward(model, x[rows], y[rows])
                # the loss at the weights before the step
                assert grads.loss == pytest.approx(
                    loss_mse(forward(model, x[rows]), y[rows]), rel=1e-6, abs=0
                )
                sq_err += grads.loss * rows.size
                adam_step(model, state, grads, cfg)
            losses.append(sq_err / len(x))
            test_losses.append(loss_mse(forward(model, x), y))
        assert state.t == 3 * 5
        assert fit.train_losses == losses
        assert fit.test_losses == test_losses
        # the last epoch is returned even where an earlier one scored lower
        assert min(test_losses) < test_losses[-1]
        for a, b in zip(fit.model.params(), model.params()):
            assert_array_equal(a, b.astype(np.float64))

    def test_no_shuffled_copy_of_the_training_set(self, rng):
        # each batch is gathered by the shuffled order; test_train_is_the_tested_step
        # checks that this is the same arithmetic
        x = rng.standard_normal((20000, 40))
        y = rng.standard_normal((20000, 2))
        model = FnnModel.initialize(40, 8, 2, seed=1)
        cfg = TrainSettings(epochs=2, batch_size=256, learning_rate=1e-3)
        tracemalloc.start()
        try:
            train(model, x, y, x[:100], y[:100], cfg, shuffle_seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4

    @pytest.mark.parametrize("n_hidden", [8, 300])
    def test_chunked_losses_equal_whole_batch_loss(self, rng, n_hidden):
        # 4,101 test rows end in a 5-row chunk; with one epoch the final
        # weights are the scored ones. The training loss comes from the
        # steps (test_train_is_the_tested_step).
        # forward itself evaluates EVAL_ROWS rows at a time, so train's test
        # loss and a forward call on the whole test set are the same
        # arithmetic at every width. At 300 hidden units a separately
        # chunked evaluation would differ from an unchunked product in the
        # last bit of a few rows (OpenBLAS picks kernels by matrix size).
        x = rng.standard_normal((2100, 4))
        y = rng.standard_normal((2100, 2))
        x_test = rng.standard_normal((4101, 4))
        y_test = rng.standard_normal((4101, 2))
        model = FnnModel.initialize(4, n_hidden, 2, seed=3)
        cfg = TrainSettings(epochs=1, batch_size=64, learning_rate=1e-2)
        fit = train(model, x, y, x_test, y_test, cfg, shuffle_seed=4)
        stepped = as_float32(fit.model)
        assert fit.test_losses == [loss_mse(forward(stepped, x_test), y_test)]

    def test_forwards_only_the_test_rows(self, rng, monkeypatch):
        x = rng.standard_normal((300, 4))
        y = rng.standard_normal((300, 2))
        x_test = rng.standard_normal((2100, 4))  # two evaluation chunks
        y_test = rng.standard_normal((2100, 2))
        rows = []

        def counting_forward(model, xb):
            rows.append(len(xb))
            return forward(model, xb)

        monkeypatch.setattr(fnn, "forward", counting_forward)
        cfg = TrainSettings(epochs=3, batch_size=32, learning_rate=1e-3)
        train(FnnModel.initialize(4, 5, 2, seed=1), x, y, x_test, y_test, cfg, shuffle_seed=2)
        assert sum(rows) == cfg.epochs * len(x_test)

    def test_partial_last_batch_weighted_by_its_rows(self, rng):
        # 37 rows at batch 8: four batches of 8 and one of 5. At learning
        # rate 0 each batch's loss is the frozen model's on its rows; the
        # last batch's labels are scaled up, so an unweighted mean of the
        # five batch losses misses the epoch's loss by far.
        x = rng.standard_normal((37, 4))
        y = rng.standard_normal((37, 2))
        order = np.random.default_rng(8).permutation(len(x))
        y[order[32:]] *= 10.0
        model = FnnModel.initialize(4, 5, 2, seed=7)
        cfg = TrainSettings(epochs=1, batch_size=8, learning_rate=0.0)
        fit = train(model, x, y, x, y, cfg, shuffle_seed=8)

        frozen = as_float32(model)
        batches = [order[start : start + 8] for start in range(0, 37, 8)]
        batch_losses = [loss_mse(forward(frozen, x[r]), y[r]) for r in batches]
        hand = sum(loss * len(r) for loss, r in zip(batch_losses, batches)) / 37
        assert [len(r) for r in batches] == [8, 8, 8, 8, 5]
        assert fit.train_losses[0] == pytest.approx(hand, rel=1e-6, abs=0)
        assert fit.train_losses[0] != pytest.approx(np.mean(batch_losses), rel=0.05)

    def test_caller_model_left_unchanged(self, rng):
        x = rng.standard_normal((40, 4))
        y = rng.standard_normal((40, 2))
        model = FnnModel.initialize(4, 5, 2, seed=7)
        initial = FnnModel(*model.params())
        cfg = TrainSettings(epochs=2, batch_size=8, learning_rate=1e-2)
        fit = train(model, x, y, x, y, cfg, shuffle_seed=8)
        for p, p0 in zip(model.params(), initial.params()):
            assert_array_equal(p, p0)
        assert not np.shares_memory(fit.model.flat, model.flat)
        assert not np.array_equal(fit.model.flat, initial.flat)


class TestDtype:
    """Arithmetic follows the model's dtype; ``train`` steps float32, keeps float64."""

    def test_train_returns_and_leaves_float64_saved_as_f8(self, tmp_path, rng):
        x = rng.standard_normal((40, 4))
        y = rng.standard_normal((40, 2))
        model = FnnModel.initialize(4, 5, 2, seed=7)
        cfg = TrainSettings(epochs=2, batch_size=8, learning_rate=1e-2)
        fit = train(model, x, y, x, y, cfg, shuffle_seed=8)
        for m in (fit.model, model):
            assert m.flat.dtype == np.float64
            assert all(p.dtype == np.float64 for p in m.params())
        assert_array_equal(fit.model.flat, fit.model.flat.astype(np.float32))  # exact upcasts
        path = tmp_path / "model.bin"
        save_model(fit.model, path, extra_meta={})
        loaded, _ = load_model(path)
        for a, b in zip(loaded.params(), fit.model.params()):
            assert a.dtype.str == "<f8"
            assert_array_equal(a, b)

    def test_float32_model_steps_in_float32(self, rng):
        model = as_float32(tiny_model(rng))
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 2))
        assert forward(model, x).dtype == np.float32
        grads = backward(model, x, y)
        assert grads.flat.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.params())
        state = AdamState.for_model(model)
        flat = model.flat
        adam_step(model, state, grads, TrainSettings())
        assert model.flat is flat and flat.dtype == np.float32
        assert state.m.dtype == state.v.dtype == state.scratch.dtype == np.float32

    def test_float64_model_backward_stays_float64(self, rng):
        model = tiny_model(rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        y = rng.standard_normal((5, 2)).astype(np.float32)
        assert forward(model, x).dtype == np.float64
        assert backward(model, x, y).flat.dtype == np.float64


class TestCounts:
    def test_reference_values(self):
        assert nnc_param_count(4, 4, 2, 7, 300) == 24310
        assert nnc_complexity(4, 4, 2, 7, 300) == 48380

    def test_secondary_width(self):
        assert nnc_param_count(4, 4, 2, 7, 200) == 16210
        assert nnc_complexity(4, 4, 2, 7, 200) == 32280

    def test_independent_of_nonlinearity_order(self):
        # no order argument exists; the count depends only on geometry
        assert nnc_param_count(4, 4, 2, 7, 300) == nnc_param_count(4, 4, 2, 7, 300)

    def test_complexity_linear_in_width(self):
        c = [nnc_complexity(4, 4, 2, 7, w) for w in (100, 200, 300)]
        assert c[2] - c[1] == c[1] - c[0]

    def test_model_parameter_total_matches_count_minus_normalizers(self):
        model = FnnModel.initialize(2 * 4 * 9, 300, 2 * 4, seed=0)
        assert model.flat.size == nnc_param_count(4, 4, 2, 7, 300) - 2


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        model = tiny_model(rng)
        path = tmp_path / "model.bin"
        save_model(model, path, extra_meta={"input_scale": 2.5, "label_scale": 0.1})
        loaded, meta = load_model(path)
        for a, b in zip(loaded.params(), model.params()):
            assert_array_equal(a, b)
        assert meta["input_scale"] == 2.5
        assert meta["label_scale"] == 0.1
