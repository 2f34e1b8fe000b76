"""Three-layer feedforward network trained from scratch with mini-batch Adam.

One hidden ReLU layer between a real-valued input (delay-line windows of
transmit samples) and a real-valued output (interleaved I/Q of the
interference estimate). The loss is the per-sample squared L2 norm of the
output error averaged over the batch. Everything is plain NumPy, and the
weights, their gradients and the Adam moments are each one flat vector.
Training has one step, ``adam_step(model, state, backward(model, xb, yb), cfg)``,
the one the gradient check and the Adam tests exercise; it is
bit-deterministic for a fixed seed at a fixed BLAS thread count.

The arithmetic follows the dtype of the model's ``flat``: float32 for a
float32 model, float64 for any other, and inputs are cast to it. ``train``
steps a float32 copy of its float64 model, casting each batch and each
evaluation chunk as it is gathered, and sums the losses in float64; the
returned model holds the float32 weights upcast exactly to float64, so
saved models stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import container
from .config import TrainSettings

MODEL_KIND = "fnn-model"
# Adam's published defaults (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
EVAL_ROWS = 2048  # rows per evaluation forward call; hidden array 4.9 MB at 300 units


@dataclass
class _Params:
    """Four arrays, copied into one vector ``flat`` and viewed from it.

    ``flat`` is float32 if every array is, float64 otherwise.
    """

    w_hidden: np.ndarray  # (n_hidden, n_in)
    b_hidden: np.ndarray  # (n_hidden,)
    w_out: np.ndarray  # (n_out, n_hidden)
    b_out: np.ndarray  # (n_out,)

    def __post_init__(self):
        arrays = [np.asarray(p) for p in self.params()]
        dtype = np.result_type(np.float32, *arrays)
        self.flat = np.concatenate([a.ravel() for a in arrays], dtype=dtype)
        ends = np.cumsum([a.size for a in arrays])
        for f, a, end in zip(fields(self), arrays, ends):
            setattr(self, f.name, self.flat[end - a.size : end].reshape(a.shape))

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w_hidden, self.b_hidden, self.w_out, self.b_out)


class FnnModel(_Params):
    """Weights of the three-layer network ``y = W_out relu(W_h x + b_h) + b_out``."""

    def __post_init__(self):
        super().__post_init__()
        n_h, n_in = self.w_hidden.shape
        n_out = self.w_out.shape[0]
        if self.b_hidden.shape != (n_h,) or self.w_out.shape != (n_out, n_h):
            raise ValueError("inconsistent layer shapes")
        if self.b_out.shape != (n_out,):
            raise ValueError("inconsistent output bias shape")
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("model weights must be finite")

    @property
    def n_in(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def n_out(self) -> int:
        return self.w_out.shape[0]

    @property
    def param_count(self) -> int:
        return (self.n_in + 1) * self.n_hidden + (self.n_hidden + 1) * self.n_out

    def copy(self) -> "FnnModel":
        return FnnModel(*self.params())

    @classmethod
    def initialize(
        cls, n_in: int, n_hidden: int, n_out: int, seed, residual: bool = False
    ) -> "FnnModel":
        """Seeded init: uniform weights, spread hidden biases.

        Weights are uniform with half-width sqrt(6 / (fan_in + fan_out))
        per layer. Hidden biases are uniform over +-0.25 rather than zero:
        inputs are max-abs normalized, so this spreads the ReLU hinge
        positions across the occupied input range and makes curvature
        available from the first epochs instead of waiting for the biases
        to drift apart.

        ``residual=True`` initializes a network that adds a correction to
        an estimate already in place (the hybrid canceller's stage 2): the
        output weights and the hidden biases start at zero, so the initial
        output, and with it the initial correction, is exactly zero. The
        hidden weights are drawn as above, from the same stream.
        """
        rng = np.random.default_rng(seed)

        def layer(n_rows, n_cols):
            bound = np.sqrt(6.0 / (n_rows + n_cols))
            return rng.uniform(-bound, bound, size=(n_rows, n_cols))

        w_hidden = layer(n_hidden, n_in)
        if residual:
            b_hidden = np.zeros(n_hidden)
            w_out = np.zeros((n_out, n_hidden))
        else:
            b_hidden = rng.uniform(-0.25, 0.25, size=n_hidden)
            w_out = layer(n_out, n_hidden)
        return cls(
            w_hidden=w_hidden, b_hidden=b_hidden, w_out=w_out, b_out=np.zeros(n_out)
        )


class Gradients(_Params):
    """Loss gradients, laid out as :class:`FnnModel` lays out its weights."""


def forward(model: FnnModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of rows, shape ``(batch, n_in)``."""
    x = np.asarray(x, dtype=model.flat.dtype)
    if x.ndim != 2 or x.shape[1] != model.n_in:
        raise ValueError(f"input shape {x.shape}, model expects rows of width {model.n_in}")
    hidden = x @ model.w_hidden.T
    hidden += model.b_hidden
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ model.w_out.T
    out += model.b_out
    return out


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over samples of the squared L2 norm of the output error."""
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    return float(np.mean(np.sum((pred - target) ** 2, axis=1)))


def backward(model: FnnModel, x: np.ndarray, y: np.ndarray, out=None) -> Gradients:
    """Gradients of :func:`loss_mse` w.r.t. all parameters on one batch.

    ``out``, gradients returned by an earlier call, is overwritten and
    returned in place of new ones. ReLU's zero subgradient at the kink is
    an exact ``+0.0`` for any error, inf and nan included; the mask clears
    bits, which needs no branch per element.
    """
    x = np.atleast_2d(np.asarray(x, dtype=model.flat.dtype))
    y = np.atleast_2d(np.asarray(y, dtype=model.flat.dtype))
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    pre = x @ model.w_hidden.T
    pre += model.b_hidden
    hidden = np.maximum(pre, 0.0)
    g_out = hidden @ model.w_out.T
    g_out += model.b_out
    g_out -= y
    g_out *= 2.0 / x.shape[0]
    d_hidden = g_out @ model.w_out
    bits = d_hidden.view(f"i{d_hidden.itemsize}")  # ReLU mask on the bits: +0.0 where pre <= 0
    bits &= np.subtract(pre <= 0.0, 1, dtype=bits.dtype)  # 0 there, all ones elsewhere
    if out is None:
        out = Gradients(*model.params())  # the layout; every element is overwritten
    np.matmul(d_hidden.T, x, out=out.w_hidden)
    d_hidden.sum(axis=0, out=out.b_hidden)
    np.matmul(g_out.T, hidden, out=out.w_out)
    g_out.sum(axis=0, out=out.b_out)
    return out


@dataclass
class AdamState:
    """Adam moment vectors ``m``, ``v`` (laid out as ``FnnModel.flat``), step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.m)

    @classmethod
    def for_model(cls, model: FnnModel) -> "AdamState":
        return cls(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat))


def adam_step(
    model: FnnModel, state: AdamState, grads: Gradients, cfg: TrainSettings
) -> tuple[FnnModel, AdamState]:
    """One bias-corrected Adam update. Mutates and returns model and state.

    Kingma & Ba, "Adam: A Method for Stochastic Optimization", ICLR 2015,
    with their ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``; of
    ``cfg`` only the learning rate is read. The bias corrections are
    applied as reciprocals ``c1 = 1/(1-beta1^t)`` and ``c2 = 1/(1-beta2^t)``;
    trained weights depend on this form, and on the order of the
    operations below, in their last bits.
    """
    state.t += 1
    c1 = 1.0 / (1.0 - ADAM_BETA1**state.t)
    c2 = 1.0 / (1.0 - ADAM_BETA2**state.t)
    g, m, v, buf = grads.flat, state.m, state.v, state.scratch
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=buf)
    m += buf
    v *= ADAM_BETA2
    np.multiply(g, g, out=buf)
    buf *= 1.0 - ADAM_BETA2
    v += buf
    np.multiply(v, c2, out=buf)
    np.sqrt(buf, out=buf)
    buf += ADAM_EPSILON
    np.divide(m, buf, out=buf)
    buf *= cfg.learning_rate * c1
    model.flat -= buf
    return model, state


@dataclass
class TrainResult:
    model: FnnModel  # parameters from the best test-loss epoch
    train_losses: list[float]
    test_losses: list[float]
    best_epoch: int  # 1-based epoch whose weights were retained


def _eval_loss(model: FnnModel, x: np.ndarray, y: np.ndarray) -> float:
    """:func:`loss_mse` of :func:`forward`, ``EVAL_ROWS`` rows per call, one mean.

    The error is taken against the float64 ``y`` and summed in float64.
    """
    sq_err = np.empty(x.shape[0])
    for start in range(0, x.shape[0], EVAL_ROWS):
        err = forward(model, x[start : start + EVAL_ROWS]) - y[start : start + EVAL_ROWS]
        np.square(err, out=err).sum(axis=1, out=sq_err[start : start + EVAL_ROWS])
    return float(np.mean(sq_err))


# A diverging run overflows; its losses and the CLI's warning report it, not NumPy.
@np.errstate(over="ignore", invalid="ignore")
def train(
    model: FnnModel,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    cfg: TrainSettings,
    shuffle_seed,
) -> TrainResult:
    """Mini-batch Adam training with per-epoch loss history.

    One epoch is a full pass over the training set in the shuffled order
    drawn from ``shuffle_seed``; each batch is gathered from the training
    rows by that order, so no shuffled copy of the training set is made,
    and takes one :func:`adam_step` on its :func:`backward` gradients. The
    steps update a float32 copy of ``model``; each batch and each evaluation
    chunk is cast from the float64 rows as it is gathered, so no float32
    copy of the training set is made. The returned model carries the
    weights of the epoch with the lowest test loss, as float32 weights in
    ``model``'s dtype; ``model`` itself is only read.
    """
    x_train = np.ascontiguousarray(x_train, dtype=np.float64)
    y_train = np.ascontiguousarray(y_train, dtype=np.float64)
    n_train = x_train.shape[0]
    if n_train == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(shuffle_seed)
    work = FnnModel(*(p.astype(np.float32) for p in model.params()))
    state = AdamState.for_model(work)
    grads = None  # one gradient buffer, reused by every step

    train_losses: list[float] = []
    test_losses: list[float] = []
    best_loss = np.inf
    best_model = None
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            grads = backward(work, x_train[rows], y_train[rows], out=grads)
            adam_step(work, state, grads, cfg)

        train_losses.append(_eval_loss(work, x_train, y_train))
        test_losses.append(_eval_loss(work, x_test, y_test))
        if test_losses[-1] < best_loss:
            best_loss = test_losses[-1]
            best_model = work.copy()
            best_epoch = epoch

    best = work if best_model is None else best_model
    return TrainResult(
        model=FnnModel(*(p.astype(model.flat.dtype) for p in best.params())),
        train_losses=train_losses,
        test_losses=test_losses,
        best_epoch=best_epoch,
    )


def nnc_param_count(
    n_rx: int, n_tx: int, memory: int, n_paths: int, n_hidden: int
) -> int:
    """Real parameters of the network canceller, incl. the two normalizers."""
    return n_hidden * (2 * (memory + n_paths) * n_tx + 2 * n_rx + 1) + 2 * n_rx + 2


def nnc_complexity(
    n_rx: int, n_tx: int, memory: int, n_paths: int, n_hidden: int
) -> int:
    """Real operations for one network-canceller reconstruction."""
    return (
        2 * (2 * n_hidden + 1) * (n_tx * (memory + n_paths) + n_rx)
        + n_hidden  # one per hidden activation: ReLU is one comparison
    )


def save_model(model: FnnModel, path, extra_meta: dict) -> None:
    meta = {"n_in": model.n_in, "n_hidden": model.n_hidden, "n_out": model.n_out}
    meta.update(extra_meta)
    arrays = {f.name: getattr(model, f.name) for f in fields(FnnModel)}
    container.write_container(path, MODEL_KIND, meta, arrays)


def load_model(path) -> tuple[FnnModel, dict]:
    _, meta, arrays = container.read_container(path, expected_kind=MODEL_KIND)
    model = FnnModel(**{f.name: arrays[f.name] for f in fields(FnnModel)})
    return model, meta
