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
basis matrix is the same sum at lag depth 1, with no blocks to fill. For
pc it sums only half of that block column's rows. The monomials come in
conjugate pairs, ``basis_term(x, p, p - q) = conj(basis_term(x, p, q))``
(the widely linear structure of Picinbono and Chevalier, "Widely linear
estimation with complex data", IEEE Trans. SP 1995), so the rows of one
monomial of each pair give the other's as conjugates. tc's linear-only
basis has no pairs and sums every row.
``G`` is scaled to unit diagonal in place, its condition checked and
then solved. The check proves the condition bound by a Cholesky test of
``G`` less a small multiple of the identity, in two blocks
(:func:`_condition_within_limit`). Only a Gram that the test cannot prove
pays for ``eigvalsh``, whose eigenvalues then decide as before, with the
same error message.

The scaling is what makes the normal equations usable here: the unscaled
P=7 columns of the default 47 dBm data span many decades of power, and an
SVD ``lstsq`` on them judged the basis rank deficient on 8 of seeds 1-10.
Scaled, the P=7 Gram's 2-norm condition on those seeds is 3.4e9-5.9e9
(P=3: 1.8e6-5.8e6), 170x below ``MAX_CONDITION``, and pc's C_dB agrees
with the SVD fit within 2e-6 dB at every order where that fit succeeds.
On the noiseless P=3 chain (acceptance criterion 2) the relative LS
residual is 1.2e-13.

Orders nest: a lower order's ``pq_pairs`` are a prefix of a higher
order's, so its Gram and right-hand sides are sub-blocks of the higher
order's (:func:`nested_columns`). A P sweep (``harness.sweep``) sums the
normal equations once, for its largest order, and solves each order from
a copy of its sub-block. Each order's weights equal its own fit's bit for
bit because :func:`_normal_equations` sums its products in order blocks:
a lower order's entries come from the same BLAS calls, of the same
shapes, in its own fit as in a higher order's. Its summed rows are a
prefix of the higher order's, and each filled row is the conjugate of a
summed row of the same order. One product over all
columns would not do: OpenBLAS picks kernels and threads by a product's
shape. At one thread a P=7 product rounded some P=1 and P=3 entries
otherwise than their own products with 1 or 3 tx antennas, and at two
threads also with 2, on a 498-row chunk.
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
# the weights keep about 4 significant digits. A shifted Cholesky test proves
# the bound; eigvalsh decides only the Grams that the test cannot prove.
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


def _order_blocks(spec: BasisSpec, width: int):
    """A chunk's columns lowest order first, and which of their Gram rows are summed.

    The chunk's ``width`` columns are laid out as :func:`build_basis_matrix`
    lays out the basis, at the chunk's lag depth. Column ``order[i]`` goes
    to place ``i``; orders ``<= p`` fill places ``:ends[k]`` for the
    ``k``-th odd ``p``, so a nested order's columns are a prefix.
    ``partner[c]`` is column ``c``'s conjugate, ``(a, p, p - q, m)`` for
    ``(a, p, q, m)``, or ``c`` itself where the spec lacks it. The summed
    rows are the places ``summed`` (ascending) of every column placed no
    later than its partner, and orders ``<= p`` hold ``summed[:hends[k]]``.
    """
    pairs = spec.pq_pairs
    reps = width // (spec.n_tx * len(pairs))
    orders = [p for p, _ in pairs]
    per_column = np.repeat(np.tile(orders, spec.n_tx), reps)
    order = np.argsort(per_column, kind="stable")
    # not np.unique: its first call raises the peak RSS by 2.3 MB
    ends = np.searchsorted(per_column[order], sorted(set(orders)), side="right")
    twin = [pairs.index((p, p - q)) if (p, p - q) in pairs else j for j, (p, q) in enumerate(pairs)]
    partner = np.arange(width).reshape(spec.n_tx, len(pairs), reps)[:, twin].ravel()
    place = np.argsort(order)
    summed = np.flatnonzero(place[partner[order]] >= np.arange(width))
    return order, ends, summed, np.searchsorted(summed, ends), partner


def _normal_equations(basis, labels: np.ndarray, spec: BasisSpec):
    """The Gram of ``spec``'s basis and the conjugated right-hand sides ``(basis^H y)^H``.

    ``basis`` is read as :func:`ls_fit` states. Column ``k * depth + m`` is
    monomial ``k`` delayed by ``m``. The chunks sum the Gram's first block
    column; the covariance recursion of the module docstring fills the rest
    from the ``depth - 1`` monomial samples before the first row (``head``)
    and after the last (``tail``). Each product runs over the chunk's
    columns lowest order first (:func:`_order_blocks`), one call per odd
    ``p``: the summed rows of orders up to ``p`` against ``p``'s columns,
    and ``p``'s summed rows against the lower orders' columns. A nested
    order's normal equations are thus the same calls in its own fit as in a
    larger one, whatever BLAS's thread count.

    Monomials come in conjugate pairs: in exact arithmetic
    ``basis_term(x, p, p - q)`` is ``conj(basis_term(x, p, q))``, so block
    column entry ``[m][partner k, partner l]`` is the conjugate of entry
    ``[m][k, l]``. The chunks sum only the rows of one column of each pair
    and of every unpaired column, and the partner rows are filled once per
    fit as exact conjugates of the summed ones, which halves the products'
    flops. The two monomials of a pair round differently, so a filled
    entry can differ from its own sum in the last bits. The right-hand
    sides are summed whole, as the labels have no such symmetry. A
    linear-only spec's ``(1, 1)`` column has no partner: tc's and hc's
    stage-1 fits sum every row and fill none.
    """
    chunks = basis
    if isinstance(basis, np.ndarray):
        chunks = (basis[a : a + CHUNK_ROWS] for a in range(0, basis.shape[0], CHUNK_ROWS))
    labels = np.atleast_2d(np.asarray(labels, dtype=np.complex128))
    rows = 0
    reordered = conj = np.empty(0, dtype=np.complex128)
    for u in chunks:
        u = np.ascontiguousarray(u, dtype=np.complex128)
        depth, n = _chunk_depth(u, spec)
        if not rows:
            head = u[: depth - 1].copy()  # copied, as is tail: a view holds its whole chunk
            order, ends, summed, hends, partner = _order_blocks(spec, u.shape[1])
            cuts = list(np.flatnonzero(np.diff(order) != 1) + 1)  # runs of consecutive columns
            runs = list(zip([0, *cuts], [*cuts, len(order)]))
            column = np.zeros((depth, len(summed), u.shape[1]), dtype=np.complex128)
            rhs_lags = np.zeros((depth, labels.shape[0], u.shape[1]), dtype=np.complex128)
        elif depth != len(column):
            raise ValueError("chunks mix blocks of basis rows and monomial stacks")
        y = labels[:, rows : rows + n].conj()
        rows += n
        if y.shape[1] < n:
            raise ValueError(f"labels have {labels.shape[1]} rows, basis has more")
        tail = u[n:].copy()
        # The chunk's columns in place order and the summed rows' conjugates,
        # each transposed, so that the products read rows. Both are kept
        # across chunks, as fresh ones cost page faults; the second is made
        # once the first has replaced the chunk. The first is copied run by
        # run: take on a transposed chunk would copy all of it first, and
        # take's default mode, "raise", through one more buffer.
        if u.size > len(reordered):
            reordered = np.empty(u.size, dtype=np.complex128)
        transposed = reordered[: u.size].reshape(u.T.shape)
        for a, b in runs:
            transposed[a:b] = u[:, order[a] : order[a] + b - a].T
        u = transposed
        size = len(summed) * u.shape[1]
        if size > len(conj):
            conj = np.empty(size, dtype=np.complex128)
        conj_u = np.take(u, summed, axis=0, out=conj[:size].reshape(len(summed), -1), mode="clip")
        np.conjugate(conj_u, out=conj_u)
        for m in range(depth):
            lagged = conj_u[:, depth - 1 - m : depth - 1 - m + n]
            now = u[:, depth - 1 : depth - 1 + n]
            start = hstart = 0
            for end, hend in zip(ends, hends):
                column[m, :hend, start:end] += lagged[:hend] @ now[start:end].T
                if start:
                    column[m, hstart:hend, :start] += lagged[hstart:hend] @ now[:start].T
                rhs_lags[m, :, start:end] += y @ u[start:end, depth - 1 - m : depth - 1 - m + n].T
                start, hstart = end, hend
    if rows < labels.shape[1]:
        raise ValueError(f"labels have {labels.shape[1]} rows, basis has {rows}")
    depth, width = len(column), len(order)
    summed_columns = order[summed]
    paired = summed_columns[partner[summed_columns] != summed_columns]
    first = np.empty((depth, width, width), dtype=np.complex128)
    first[:, summed_columns[:, None], order] = column
    first[:, partner[paired]] = first[:, paired][:, :, partner].conj()
    rhs = rhs_lags[:, :, np.argsort(order)].transpose(1, 2, 0)
    rhs = rhs.reshape(labels.shape[0], spec.n_terms)
    gram = np.empty((spec.n_terms, spec.n_terms), dtype=np.complex128)
    blocks = gram.reshape(width, depth, width, depth).transpose(1, 3, 0, 2)  # [m, m', k, l]
    blocks[:, 0] = first
    blocks[0, 1:] = first[1:].conj().transpose(0, 2, 1)
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
    That check is what lets one LU solve stand for a Cholesky solve. A
    shifted Cholesky test proves the bound in a quarter to a third of
    ``eigvalsh``'s time (:func:`_condition_within_limit`); a Gram it cannot
    prove is decided by ``eigvalsh``, with the message it always gave.
    The fit is :func:`_normal_equations` followed by :func:`_solve`.
    """
    labels = np.atleast_2d(labels)
    return _solve(*_normal_equations(basis, labels, spec), spec, labels.shape[1])


def _solve(gram: np.ndarray, rhs: np.ndarray, spec: BasisSpec, rows: int) -> PolyCoefficients:
    """Weights from the normal equations of :func:`ls_fit`; ``gram`` is scaled in place.

    ``rows`` is the number of basis rows that the Gram sums.
    """
    if rows < spec.n_terms:
        raise ValueError(f"underdetermined fit: {rows} rows < {spec.n_terms} columns")
    scale = np.sqrt(gram.diagonal().real)
    cond = np.inf
    if np.all(scale > 0):
        np.divide(gram, np.outer(scale, scale), out=gram)
        if _condition_within_limit(gram):
            cond = MAX_CONDITION  # an upper bound, proven without eigenvalues
        else:
            eig = np.linalg.eigvalsh(gram)
            if eig[0] > 0:
                cond = eig[-1] / eig[0]
    if cond > MAX_CONDITION:
        raise SingularBasisError(
            f"basis is singular: scaled condition estimate {cond:.3e} "
            f"(limit {MAX_CONDITION:.0e})"
        )
    solution = np.linalg.solve(gram, rhs.conj().T / scale[:, None]) / scale[:, None]
    return PolyCoefficients(basis=spec, weights=solution.T)


def _condition_within_limit(gram: np.ndarray) -> bool:
    """Whether a shifted Cholesky test proves ``cond2(gram) <= MAX_CONDITION``.

    ``gram`` is Hermitian with unit diagonal. Take ``delta = ||gram||_F /
    MAX_CONDITION``; the Frobenius norm, summed by ``np.vdot`` without a
    copy, bounds the largest eigenvalue. If ``gram - delta I`` is positive
    definite, the smallest eigenvalue exceeds ``delta >= lambda_max /
    MAX_CONDITION``, up to the factorization's backward error (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, ch. 10) of
    order ``n * eps * lambda_max``. On the default P=7 Gram of seed 1 that
    is 20 times below ``delta``, and the smallest eigenvalue is 62-102
    times ``delta`` on seeds 1-10. ``False`` proves nothing; the caller's
    eigenvalues then decide.

    The shift is applied to the diagonal in place and its bytes restored.
    The test factors two blocks: ``A = L L^H`` of the leading half, then
    the Schur complement ``C - X^H X`` with ``X = L^-1 B``. One
    ``np.linalg.cholesky`` of the whole Gram holds a copy of it and its
    factor at once: on a 720-term Gram its first call grew the peak RSS by
    18.4 MB, against 10.0 MB for ``eigvalsh`` and for this test.
    """
    frobenius_sq = np.vdot(gram, gram).real
    if not np.isfinite(frobenius_sq):
        return False
    diagonal = gram.diagonal().copy()
    np.fill_diagonal(gram, diagonal - np.sqrt(frobenius_sq) / MAX_CONDITION)
    half = len(gram) // 2
    try:
        x = np.linalg.solve(np.linalg.cholesky(gram[:half, :half]), gram[:half, half:])
        np.linalg.cholesky(gram[half:, half:] - x.conj().T @ x)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(gram, diagonal)
    return True


def nested_columns(spec: BasisSpec, big: BasisSpec) -> np.ndarray:
    """Indices of ``spec``'s basis columns among ``big``'s.

    ``build_basis_matrix(tx, big)[:, cols]`` is ``build_basis_matrix(tx,
    spec)``. Both share ``n_tx`` and ``depth``, and ``spec``'s ``pq_pairs``
    are a prefix of ``big``'s, as a lower order's are of a higher one's.
    Columns are laid out ``(a, j, m)``: antenna-major, then the pair index
    ``j``, then the lag ``m``.
    """
    pairs = len(spec.pq_pairs)
    if (spec.n_tx, spec.depth, spec.pq_pairs) != (big.n_tx, big.depth, big.pq_pairs[:pairs]):
        raise ValueError(f"{spec} is not nested in {big}")
    return np.arange(big.n_terms).reshape(big.n_tx, -1, big.depth)[:, :pairs].ravel()


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
