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
steps a float32 copy of its float64 model, casting each batch as it is
gathered, and sums the losses in float64; the returned model holds the
last epoch's weights upcast exactly to float64, so saved models stay float64.
:func:`forward` evaluates every input ``EVAL_ROWS`` rows at a time, each
chunk cast as it is read, so neither a float32 copy of the input nor a
hidden array for all its rows is made.

An epoch's training loss is taken from its own steps, as Keras reports it:
the row-weighted mean of each batch's loss at the weights before that
batch's step, which :func:`backward` records. Only the test rows are
evaluated after each epoch, by :func:`loss_mse` of :func:`forward`.
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
EVAL_ROWS = 2048  # rows per forward chunk; float32 hidden array 2.5 MB at 300 units


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
    """Loss gradients, laid out as :class:`FnnModel` lays out its weights.

    ``loss`` is the :func:`loss_mse` of the batch they were taken on, at
    the weights they were taken at; :func:`backward` sets it.
    """

    loss: float = float("nan")


def forward(model: FnnModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of rows, shape ``(batch, n_in)``.

    ``EVAL_ROWS`` rows at a time, each chunk cast to the model's dtype, so
    no hidden array outgrows a chunk whatever the batch.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != model.n_in:
        raise ValueError(f"input shape {x.shape}, model expects rows of width {model.n_in}")
    dtype = model.flat.dtype
    out = np.empty((x.shape[0], model.n_out), dtype=dtype)
    for a in range(0, x.shape[0], EVAL_ROWS):
        hidden = x[a : a + EVAL_ROWS].astype(dtype, copy=False) @ model.w_hidden.T
        hidden += model.b_hidden
        np.maximum(hidden, 0.0, out=hidden)
        chunk = np.matmul(hidden, model.w_out.T, out=out[a : a + EVAL_ROWS])
        chunk += model.b_out
    return out


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over samples of the squared L2 norm of the output error."""
    err = np.atleast_2d(pred) - np.atleast_2d(target)
    return float(np.mean(np.sum(np.square(err, out=err), axis=1)))


def backward(model: FnnModel, x: np.ndarray, y: np.ndarray, out=None) -> Gradients:
    """Gradients of :func:`loss_mse` w.r.t. all parameters on one batch.

    ``out``, gradients returned by an earlier call, is overwritten and
    returned in place of new ones. The batch's :func:`loss_mse` is
    recorded as ``loss``, from the output errors squared and summed in
    float64, where a float32 error squares exactly. ReLU's zero
    subgradient at the kink is an exact ``+0.0`` for any error, inf and
    nan included; the mask clears bits, which needs no branch per element.
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
    err = g_out.astype(np.float64).ravel()
    loss = float(err @ err) / x.shape[0]
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
    out.loss = loss
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
) -> None:
    """One bias-corrected Adam update of ``model`` and ``state``, in place.

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


@dataclass
class TrainResult:
    model: FnnModel  # the weights after the last epoch's last step
    train_losses: list[float]  # each epoch's batch losses, row-weighted, before each step
    test_losses: list[float]  # each epoch's loss on the test rows, after its last step


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
    steps update a float32 copy of ``model``; each batch is cast from the
    float64 rows as it is gathered, so no float32 copy of the training set
    is made. An epoch's training loss is the mean over its batches of each
    batch's ``Gradients.loss``, weighted by the batch's rows and summed in
    float64: the loss at the weights before each step, against the
    float32-rounded labels. Its test loss is ``loss_mse(forward(...))`` on
    the test rows after the epoch's last step; :func:`forward` casts and
    evaluates them ``EVAL_ROWS`` at a time. The returned model carries
    the last epoch's float32 weights in ``model``'s dtype, whatever the
    test losses read (non-finite weights raise ``ValueError``); ``model``
    itself is only read.
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
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        sq_err = 0.0
        for start in range(0, n_train, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            grads = backward(work, x_train[rows], y_train[rows], out=grads)
            sq_err += grads.loss * rows.size
            adam_step(work, state, grads, cfg)

        train_losses.append(sq_err / n_train)
        test_losses.append(loss_mse(forward(work, x_test), y_test))

    return TrainResult(
        model=FnnModel(*(p.astype(model.flat.dtype) for p in work.params())),
        train_losses=train_losses,
        test_losses=test_losses,
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
