"""Three-layer feedforward network trained from scratch with mini-batch Adam.

One hidden ReLU layer between a real-valued input (delay-line windows of
transmit samples) and a real-valued output (interleaved I/Q of the
interference estimate). The loss is the per-sample squared L2 norm of the
output error averaged over the batch. Everything is plain NumPy. Training
has one step, ``adam_step(model, state, backward(model, xb, yb), cfg)``,
the same one the gradient check and the Adam tests exercise; it is
bit-deterministic for a fixed seed at a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import container
from .config import TrainSettings

MODEL_KIND = "fnn-model"


@dataclass
class FnnModel:
    """Weights of the three-layer network ``y = W_out relu(W_h x + b_h) + b_out``."""

    w_hidden: np.ndarray  # (n_hidden, n_in)
    b_hidden: np.ndarray  # (n_hidden,)
    w_out: np.ndarray  # (n_out, n_hidden)
    b_out: np.ndarray  # (n_out,)

    def __post_init__(self):
        self.w_hidden = np.asarray(self.w_hidden, dtype=np.float64)
        self.b_hidden = np.asarray(self.b_hidden, dtype=np.float64)
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.b_out = np.asarray(self.b_out, dtype=np.float64)
        n_h, n_in = self.w_hidden.shape
        n_out = self.w_out.shape[0]
        if self.b_hidden.shape != (n_h,) or self.w_out.shape != (n_out, n_h):
            raise ValueError("inconsistent layer shapes")
        if self.b_out.shape != (n_out,):
            raise ValueError("inconsistent output bias shape")
        for arr in (self.w_hidden, self.b_hidden, self.w_out, self.b_out):
            if not np.all(np.isfinite(arr)):
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

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w_hidden, self.b_hidden, self.w_out, self.b_out)

    def copy(self) -> "FnnModel":
        return FnnModel(*(p.copy() for p in self.params()))

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


@dataclass
class Gradients:
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w_hidden, self.b_hidden, self.w_out, self.b_out)


def forward(model: FnnModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on one input vector or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.n_in:
        raise ValueError(f"input width {x2.shape[1]}, model expects {model.n_in}")
    hidden = np.maximum(x2 @ model.w_hidden.T + model.b_hidden, 0.0)
    out = hidden @ model.w_out.T + model.b_out
    return out[0] if single else out


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over samples of the squared L2 norm of the output error."""
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    return float(np.mean(np.sum((pred - target) ** 2, axis=1)))


def backward(model: FnnModel, x: np.ndarray, y: np.ndarray) -> Gradients:
    """Gradients of :func:`loss_mse` w.r.t. all parameters on one batch.

    ReLU uses the zero subgradient at the kink.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    pre = x @ model.w_hidden.T + model.b_hidden
    hidden = np.maximum(pre, 0.0)
    pred = hidden @ model.w_out.T + model.b_out
    g_out = (2.0 / x.shape[0]) * (pred - y)
    d_hidden = g_out @ model.w_out
    d_hidden[pre <= 0.0] = 0.0
    return Gradients(
        w_hidden=d_hidden.T @ x,
        b_hidden=d_hidden.sum(axis=0),
        w_out=g_out.T @ hidden,
        b_out=g_out.sum(axis=0),
    )


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    t: int = 0

    @classmethod
    def for_model(cls, model: FnnModel) -> "AdamState":
        return cls(
            m=tuple(np.zeros_like(p) for p in model.params()),
            v=tuple(np.zeros_like(p) for p in model.params()),
        )


def adam_step(
    model: FnnModel, state: AdamState, grads: Gradients, cfg: TrainSettings
) -> tuple[FnnModel, AdamState]:
    """One bias-corrected Adam update. Mutates and returns model and state.

    Kingma & Ba, "Adam: A Method for Stochastic Optimization", ICLR 2015.
    The bias corrections are applied as reciprocals ``c1 = 1/(1-beta1^t)``
    and ``c2 = 1/(1-beta2^t)``; trained weights depend on this form, and
    on the order of the operations below, in their last bits.
    """
    state.t += 1
    c1 = 1.0 / (1.0 - cfg.beta1**state.t)
    c2 = 1.0 / (1.0 - cfg.beta2**state.t)
    for p, g, m, v in zip(model.params(), grads.params(), state.m, state.v):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        buf = v * c2
        np.sqrt(buf, out=buf)
        buf += cfg.epsilon
        np.divide(m, buf, out=buf)
        buf *= cfg.learning_rate * c1
        p -= buf
    return model, state


@dataclass
class TrainResult:
    model: FnnModel  # parameters from the best test-loss epoch
    train_losses: list[float]
    test_losses: list[float]
    best_epoch: int  # 1-based epoch whose weights were retained
    epochs: int = field(init=False)

    def __post_init__(self):
        self.epochs = len(self.train_losses)


def train(
    model: FnnModel,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    cfg: TrainSettings,
    shuffle_seed=None,
) -> TrainResult:
    """Mini-batch Adam training with per-epoch loss history.

    One epoch is a full pass over the training set in seeded shuffled
    order (``shuffle_seed`` overrides ``cfg.seed``); each batch takes one
    :func:`adam_step` on its :func:`backward` gradients. The returned model
    carries the weights of the epoch with the lowest test loss; the input
    model is trained in place to the final epoch.
    """
    x_train = np.ascontiguousarray(x_train, dtype=np.float64)
    y_train = np.ascontiguousarray(y_train, dtype=np.float64)
    n_train = x_train.shape[0]
    if n_train == 0:
        raise ValueError("training set is empty")
    seed = shuffle_seed if shuffle_seed is not None else cfg.seed
    if seed is None:
        raise ValueError("a shuffle seed is required for reproducible training")
    rng = np.random.default_rng(seed)
    state = AdamState.for_model(model)
    batch = cfg.batch_size

    train_losses: list[float] = []
    test_losses: list[float] = []
    best_loss = np.inf
    best_params = None
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_train)
        xs = x_train[order]
        ys = y_train[order]
        for start in range(0, n_train, batch):
            xb = xs[start : start + batch]
            yb = ys[start : start + batch]
            adam_step(model, state, backward(model, xb, yb), cfg)

        train_losses.append(loss_mse(forward(model, x_train), y_train))
        test_losses.append(loss_mse(forward(model, x_test), y_test))
        if test_losses[-1] < best_loss:
            best_loss = test_losses[-1]
            best_params = tuple(p.copy() for p in model.params())
            best_epoch = epoch

    best_model = FnnModel(*best_params) if best_params is not None else model.copy()
    return TrainResult(
        model=best_model,
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
    n_rx: int, n_tx: int, memory: int, n_paths: int, n_hidden: int, act_cost: int = 1
) -> int:
    """Real operations for one network-canceller reconstruction.

    ``act_cost`` is the per-node activation cost; ReLU is one comparison.
    """
    return (
        2 * (2 * n_hidden + 1) * (n_tx * (memory + n_paths) + n_rx)
        + act_cost * n_hidden
    )


def save_model(model: FnnModel, path, extra_meta: dict | None = None) -> None:
    meta = {"n_in": model.n_in, "n_hidden": model.n_hidden, "n_out": model.n_out}
    if extra_meta:
        meta.update(extra_meta)
    arrays = {f.name: getattr(model, f.name) for f in fields(FnnModel)}
    container.write_container(path, MODEL_KIND, meta, arrays)


def load_model(path) -> tuple[FnnModel, dict]:
    _, meta, arrays = container.read_container(path, expected_kind=MODEL_KIND)
    model = FnnModel(**{f.name: arrays[f.name] for f in fields(FnnModel)})
    return model, meta
