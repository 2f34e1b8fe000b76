"""Polynomial interference canceller: basis expansion, LS fit and counts.

The received interference is modelled per rx antenna as a linear
combination of conjugate monomials of delayed transmit samples,

    basis_term(x, p, q) = x**q * conj(x)**(p - q),   p odd, 0 <= q <= p,

over memory lags ``0 .. depth-1`` and all tx antennas;
:func:`build_basis_matrix` states the column order. With the basis
depth equal to PA memory + path count and the order matching the PA, the
composed transmit chain is exactly inside the span, so noiseless LS
identification drives the residual to numerical zero.

The traditional (CSI-only) canceller is the restriction to the
``(p=1, q=1)`` terms, i.e. plain multichannel FIR identification.

Coefficients are estimated from the normal equations, one shared
factorization for all rx antennas. Basis column ``(a, p, q, m)`` is one
monomial sequence delayed by ``m``, so the Gram follows by the covariance
method of linear prediction (Makhoul, "Linear prediction: a tutorial
review", Proc. IEEE 1975): the block of lags ``(m, m')`` is block
``(m - 1, m' - 1)`` plus the outer product of the monomial samples just
before the first basis row and less that of the samples just after the
last. :func:`ls_fit` therefore sums only the first block column, ``depth``
products per chunk of ``CHUNK_ROWS + depth - 1`` monomial samples, about
``depth / 2`` times fewer flops than ``blk^H blk`` over the same rows' basis
block, and holds one chunk and one Gram whatever the number of rows; a
basis matrix is the same sum at lag depth 1, with no blocks to fill.
``G`` is scaled to unit diagonal, its condition checked and then solved.
The scaling is what makes the normal equations usable here: the unscaled
P=7 columns of the default 47 dBm data span many decades of power, and an
SVD ``lstsq`` on them judged the basis rank deficient on 8 of seeds 1-10.
Scaled, the P=7 Gram's 2-norm condition on those seeds is 3.4e9-5.9e9
(P=3: 1.8e6-5.8e6), 170x below ``MAX_CONDITION``, and pc's C_dB agrees
with the SVD fit within 2e-6 dB at every order where that fit succeeds.
On the noiseless P=3 chain (acceptance criterion 2) the relative LS
residual is 1.2e-13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import container

COEFFS_KIND = "poly-coeffs"
# Basis rows per chunk of the Gram accumulation and of the chunks harness builds.
CHUNK_ROWS = 4096
# Largest 2-norm condition of the unit-diagonal Gram that ls_fit solves.
# The solve's relative error grows as condition * 2.2e-16, so at this limit
# the weights keep about 4 significant digits.
MAX_CONDITION = 1e12


class SingularBasisError(np.linalg.LinAlgError):
    """Basis is numerically singular; message carries the condition estimate."""


def basis_term(x, p: int, q: int):
    """Conjugate monomial ``x**q * conj(x)**(p - q)``."""
    if not (0 <= q <= p):
        raise ValueError(f"need 0 <= q <= p, got p={p}, q={q}")
    x = np.asarray(x, dtype=np.complex128)
    return x**q * np.conj(x) ** (p - q)


@dataclass(frozen=True)
class BasisSpec:
    """Term set of the polynomial basis for one interfering BS.

    ``pq_pairs`` lists the conjugate monomials per antenna; the linear-only
    variant keeps just ``(p=1, q=1)``. :func:`build_basis_matrix` states
    the column order.
    """

    n_tx: int
    depth: int
    order: int
    linear_only: bool = False

    def __post_init__(self):
        if self.n_tx < 1 or self.depth < 1:
            raise ValueError("n_tx and depth must be >= 1")
        if self.order < 1 or self.order % 2 == 0:
            raise ValueError(f"order must be odd and >= 1, got {self.order}")

    @classmethod
    def linear(cls, n_tx: int, depth: int) -> "BasisSpec":
        return cls(n_tx=n_tx, depth=depth, order=1, linear_only=True)

    @property
    def pq_pairs(self) -> tuple[tuple[int, int], ...]:
        if self.linear_only:
            return ((1, 1),)
        return tuple(
            (p, q) for p in range(1, self.order + 1, 2) for q in range(p + 1)
        )

    @property
    def n_terms(self) -> int:
        return self.n_tx * len(self.pq_pairs) * self.depth


@dataclass(frozen=True)
class PolyCoefficients:
    """LS-estimated complex weights, one row per rx antenna."""

    basis: BasisSpec
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.complex128)
        if w.ndim != 2 or w.shape[1] != self.basis.n_terms:
            raise ValueError(
                f"weights shape {w.shape} does not match basis with "
                f"{self.basis.n_terms} terms"
            )
        object.__setattr__(self, "weights", w)


def build_basis_matrix(tx: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Evaluate every basis term on delayed transmit samples.

    ``tx`` has shape ``(n_tx, n)``; returns a C-contiguous complex matrix
    with one row per sample index ``n >= depth - 1`` (aligned with
    ``scenario.build_regressors``) and ``spec.n_terms`` columns. Column
    ``(a, p, q, m)``, ordered antenna-major, then ascending odd ``p``, then
    ``q = 0..p``, then lag ``m``, holds ``basis_term(tx[a], p, q)`` delayed
    by ``m`` samples. Each monomial's ``depth`` lag columns are one reversed
    ``as_strided`` window over it (``sliding_window_view`` allocates per call).
    """
    tx = np.atleast_2d(np.asarray(tx, dtype=np.complex128))
    n_tx, n = tx.shape
    if n_tx != spec.n_tx:
        raise ValueError(f"tx has {n_tx} antennas, basis expects {spec.n_tx}")
    if n < spec.depth:
        raise ValueError(f"stream length {n} shorter than basis depth {spec.depth}")
    n_rows = n - spec.depth + 1
    out = np.empty((n_rows, n_tx, len(spec.pq_pairs), spec.depth), dtype=np.complex128)
    for a in range(n_tx):
        for j, (p, q) in enumerate(spec.pq_pairs):
            monomial = basis_term(tx[a], p, q)
            s = monomial.strides[0]
            lags = as_strided(monomial[spec.depth - 1 :], (n_rows, spec.depth), (s, -s))
            out[:, a, j] = lags  # named: inlined, the benchmark's peak RSS read 1-3 MB higher
    return out.reshape(n_rows, spec.n_terms)


def _chunk_depth(u: np.ndarray, spec: BasisSpec) -> tuple[int, int]:
    """Lag depth and basis-row count of chunk ``u``, read as :func:`ls_fit` states."""
    depth = 1 if u.shape[1] == spec.n_terms else spec.depth
    n = len(u) - depth + 1
    if u.shape[1] * depth != spec.n_terms or n < 1:
        raise ValueError(f"chunk of shape {u.shape} fits no basis of {spec.n_terms} columns")
    return depth, n


def _normal_equations(basis, labels: np.ndarray, spec: BasisSpec):
    """The Gram of ``spec``'s basis and the conjugated right-hand sides ``(basis^H y)^H``.

    ``basis`` is read as :func:`ls_fit` states. Column ``k * depth + m`` is
    monomial ``k`` delayed by ``m``. The chunks sum the Gram's first block
    column; the covariance recursion of the module docstring fills the rest
    from the ``depth - 1`` monomial samples before the first row (``head``)
    and after the last (``tail``).
    """
    chunks = basis
    if isinstance(basis, np.ndarray):
        chunks = (basis[a : a + CHUNK_ROWS] for a in range(0, basis.shape[0], CHUNK_ROWS))
    labels = np.atleast_2d(np.asarray(labels, dtype=np.complex128))
    rhs = np.zeros((labels.shape[0], spec.n_terms), dtype=np.complex128)
    rows = 0
    for u in chunks:
        u = np.ascontiguousarray(u, dtype=np.complex128)
        depth, n = _chunk_depth(u, spec)
        if not rows:
            head = u[: depth - 1].copy()  # copied, as is tail: a view holds its whole chunk
            column = np.zeros((depth, u.shape[1], u.shape[1]), dtype=np.complex128)
        elif depth != len(column):
            raise ValueError("chunks mix blocks of basis rows and monomial stacks")
        y = labels[:, rows : rows + n].conj()
        rows += n
        if y.shape[1] < n:
            raise ValueError(f"labels have {labels.shape[1]} rows, basis has more")
        rhs_lags = rhs.reshape(-1, u.shape[1], depth)
        conj_u = u.conj()
        for m in range(depth):
            lagged = slice(depth - 1 - m, depth - 1 - m + n)
            column[m] += conj_u[lagged].T @ u[depth - 1 : depth - 1 + n]
            rhs_lags[:, :, m] += y @ u[lagged]
        tail = u[n:].copy()
    if rows < labels.shape[1]:
        raise ValueError(f"labels have {labels.shape[1]} rows, basis has {rows}")
    if rows < spec.n_terms:
        raise ValueError(f"underdetermined fit: {rows} rows < {spec.n_terms} columns")
    depth, width = column.shape[:2]
    gram = np.empty((spec.n_terms, spec.n_terms), dtype=np.complex128)
    blocks = gram.reshape(width, depth, width, depth).transpose(1, 3, 0, 2)  # [m, m', k, l]
    blocks[:, 0] = column
    blocks[0, 1:] = column[1:].conj().transpose(0, 2, 1)
    for m in range(1, depth):
        for m2 in range(1, depth):
            blocks[m, m2] = (
                blocks[m - 1, m2 - 1]
                + np.outer(head[-m].conj(), head[-m2])
                - np.outer(tail[-m].conj(), tail[-m2])
            )
    return gram, rhs


def ls_fit(
    basis,
    labels: np.ndarray,
    spec: BasisSpec,
) -> PolyCoefficients:
    """Least-squares coefficient estimate, all rx antennas in one solve.

    ``basis`` is the basis matrix, read in ``CHUNK_ROWS``-row blocks, or an
    iterable of consecutive chunks. A chunk is a block of basis rows, or
    the monomial stack that basis rows ``a:b`` delay:
    ``build_basis_matrix(tx[:, a : b + depth - 1], replace(spec, depth=1))``,
    which shares ``depth - 1`` samples with the next chunk. A block of rows
    is the same stack with every column its own sequence (lag depth 1), so
    one accumulator reads both; the chunks of one fit must all be of one
    kind. Each chunk adds ``depth`` products to the Gram's first block
    column, and the other blocks follow from it once per fit.
    ``labels`` has shape ``(n_rx, n_rows)``. Requires at least as many rows
    as columns. The Gram is scaled to unit diagonal; a basis whose scaled
    Gram is not positive definite with a 2-norm condition of at most
    ``MAX_CONDITION`` raises :class:`SingularBasisError` with the estimate.
    That check is what lets one LU solve stand for a Cholesky solve.
    """
    gram, rhs = _normal_equations(basis, labels, spec)
    scale = np.sqrt(gram.diagonal().real)
    cond = np.inf
    if np.all(scale > 0):
        scaled = gram / np.outer(scale, scale)
        eig = np.linalg.eigvalsh(scaled)
        if eig[0] > 0:
            cond = eig[-1] / eig[0]
    if cond > MAX_CONDITION:
        raise SingularBasisError(
            f"basis is singular: scaled condition estimate {cond:.3e} "
            f"(limit {MAX_CONDITION:.0e})"
        )
    solution = np.linalg.solve(scaled, rhs.conj().T / scale[:, None]) / scale[:, None]
    return PolyCoefficients(basis=spec, weights=solution.T)


def apply_basis(coeffs: PolyCoefficients, basis: np.ndarray) -> np.ndarray:
    """Interference estimate of fitted coefficients over one chunk of basis rows.

    ``basis`` is a chunk as :func:`ls_fit` reads it: a block of basis rows,
    or the monomial stack that they delay. Each rx antenna's estimate is
    the chunk's ``depth`` lag windows filtered by its weights, lag depth 1
    for a block. Returns ``(n_rx, n_rows)``, aligned with the basis rows.
    """
    depth, n = _chunk_depth(basis, coeffs.basis)
    weights = coeffs.weights.reshape(coeffs.weights.shape[0], -1, depth)
    out = weights[:, :, 0] @ basis[depth - 1 : depth - 1 + n].T
    for m in range(1, depth):
        out += weights[:, :, m] @ basis[depth - 1 - m : depth - 1 - m + n].T
    return out


def pc_param_count(n_rx: int, n_tx: int, memory: int, n_paths: int, order: int) -> int:
    """Real parameters estimated by the polynomial canceller.

    In closed form ``N0·Nα·(M+L)·(P+1)(P+3)/2`` for ``n_rx = N0``,
    ``n_tx = Nα``, ``memory + n_paths = M+L`` and odd ``order = P``. This
    is ``2 * n_rx * BasisSpec(n_tx, M+L, P).n_terms``: one complex weight
    per rx antenna and conjugate-monomial term, counted as two reals. The
    count is quadratic in P, since each odd p <= P contributes p + 1
    terms per antenna and lag.
    """
    if order % 2 == 0:
        raise ValueError("order must be odd")
    return n_rx * n_tx * (memory + n_paths) * (order + 1) * (order + 3) // 2


def pc_complexity(n_rx: int, n_tx: int, memory: int, n_paths: int, order: int) -> int:
    """Real add/multiply count to reconstruct one interference sample.

    Evaluated in exact rational arithmetic; the result is integral for
    odd orders.
    """
    if order % 2 == 0:
        raise ValueError("order must be odd")
    per_term = Fraction((35 * order + 33) * 6 ** (order + 2) + 12, 35**2)
    per_lag = per_term + Fraction((order + 1) * (order + 3), 2)
    total = n_rx * n_tx * (memory + n_paths) * per_lag - 2 * n_rx
    if total.denominator != 1:
        raise ValueError(f"complexity formula not integral for order {order}")
    return int(total)


def tc_param_count(n_rx: int, n_tx: int, memory: int, n_paths: int) -> int:
    """Real parameters of the linear-only canceller (one complex FIR bank)."""
    return 2 * n_rx * n_tx * (memory + n_paths)


def tc_complexity(n_rx: int, n_tx: int, memory: int, n_paths: int) -> int:
    """Real operations for the linear-only reconstruction."""
    return 8 * n_rx * n_tx * (memory + n_paths) - 2 * n_rx


def save_coefficients(coeffs: PolyCoefficients, path, extra_meta: dict):
    meta = {
        "n_tx": coeffs.basis.n_tx,
        "depth": coeffs.basis.depth,
        "order": coeffs.basis.order,
        "linear_only": coeffs.basis.linear_only,
    }
    meta.update(extra_meta)
    container.write_container(path, COEFFS_KIND, meta, {"weights": coeffs.weights})


def load_coefficients(path) -> PolyCoefficients:
    _, meta, arrays = container.read_container(path, expected_kind=COEFFS_KIND)
    spec = BasisSpec(
        n_tx=meta["n_tx"],
        depth=meta["depth"],
        order=meta["order"],
        linear_only=meta["linear_only"],
    )
    return PolyCoefficients(basis=spec, weights=arrays["weights"])
