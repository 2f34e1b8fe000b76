"""Tests for the polynomial basis, LS identification and counting formulas."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from conftest import ideal_rf
from xlic.channel import draw_channel
from xlic.harness import run_tc
from xlic.polynomial import (
    CHUNK_ROWS,
    BasisSpec,
    PolyCoefficients,
    SingularBasisError,
    _normal_equations,
    apply_basis,
    basis_term,
    build_basis_matrix,
    ls_fit,
    pc_complexity,
    pc_param_count,
    tc_complexity,
    tc_param_count,
)
from xlic.scenario import generate_dataset


class TestBasisTerm:
    def test_identity_term(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert_allclose(basis_term(x, 1, 1), x)

    def test_conjugate_term(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert_allclose(basis_term(x, 1, 0), np.conj(x))

    def test_cubic_example(self):
        # (1+j)^2 (1-j) = 2+2j
        assert basis_term(np.array([1 + 1j]), 3, 2)[0] == pytest.approx(2 + 2j)

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            basis_term(np.array([1.0]), 3, 4)


class TestBasisSpec:
    def test_six_pairs_for_cubic(self):
        spec = BasisSpec(n_tx=1, depth=1, order=3)
        assert len(spec.pq_pairs) == 6

    def test_term_count_formula(self):
        for order in (1, 3, 5, 7):
            spec = BasisSpec(n_tx=3, depth=4, order=order)
            assert spec.n_terms == 3 * 4 * (order + 1) * (order + 3) // 4

    def test_reference_column_count(self):
        # per-rx complex coefficient count for the reference configuration
        spec = BasisSpec(n_tx=4, depth=9, order=3)
        assert spec.n_terms == 216
        assert spec.n_terms == pc_param_count(4, 4, 2, 7, 3) // (2 * 4)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            BasisSpec(n_tx=1, depth=1, order=2)


class TestBasisMatrix:
    def test_linear_columns(self, rng):
        x = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        spec = BasisSpec(n_tx=1, depth=1, order=1)
        mat = build_basis_matrix(x, spec)
        assert_allclose(mat[:, 0], np.conj(x[0]))  # (p=1, q=0)
        assert_allclose(mat[:, 1], x[0])  # (p=1, q=1)

    def test_cubic_row_hand_computed(self):
        x = np.array([[1 + 1j]])
        spec = BasisSpec(n_tx=1, depth=1, order=3)
        row = build_basis_matrix(x, spec)[0]
        v = 1 + 1j
        expected = [
            np.conj(v),  # (1,0)
            v,  # (1,1)
            np.conj(v) ** 3,  # (3,0)
            v * np.conj(v) ** 2,  # (3,1)
            v**2 * np.conj(v),  # (3,2)
            v**3,  # (3,3)
        ]
        assert_allclose(row, expected)

    def test_lag_alignment(self, rng):
        x = rng.standard_normal((1, 10)) + 1j * rng.standard_normal((1, 10))
        spec = BasisSpec.linear(1, 3)
        mat = build_basis_matrix(x, spec)
        # row r corresponds to sample n = r + depth - 1; column m holds x[n-m]
        assert_allclose(mat[0], [x[0, 2], x[0, 1], x[0, 0]])
        assert_allclose(mat[4], [x[0, 6], x[0, 5], x[0, 4]])

    @pytest.mark.parametrize(
        "spec, n",
        [
            (BasisSpec(n_tx=2, depth=3, order=1), 9),
            (BasisSpec(n_tx=2, depth=3, order=3), 9),
            (BasisSpec(n_tx=2, depth=3, order=5), 9),
            (BasisSpec.linear(2, 4), 9),
            (BasisSpec(n_tx=2, depth=1, order=3), 5),
            (BasisSpec(n_tx=2, depth=3, order=3), 3),
        ],
    )
    def test_column_layout_matches_per_column_oracle(self, rng, spec, n):
        tx = rng.standard_normal((spec.n_tx, n)) + 1j * rng.standard_normal((spec.n_tx, n))
        mat = build_basis_matrix(tx, spec)
        depth = spec.depth
        oracle = np.stack(
            [
                basis_term(tx[a], p, q)[depth - 1 - m : n - m]
                for a in range(spec.n_tx)
                for p, q in spec.pq_pairs
                for m in range(depth)
            ],
            axis=1,
        )
        assert mat.shape == (n - depth + 1, spec.n_terms)
        assert mat.flags.c_contiguous
        assert mat.tobytes() == oracle.tobytes()

    def test_stream_shorter_than_depth_rejected(self):
        spec = BasisSpec.linear(1, 5)
        with pytest.raises(ValueError, match="depth"):
            build_basis_matrix(np.ones((1, 3), dtype=complex), spec)


class TestLsFit:
    def test_recovers_known_coefficients(self, rng):
        spec = BasisSpec(n_tx=2, depth=3, order=3)
        tx = rng.standard_normal((2, 500)) + 1j * rng.standard_normal((2, 500))
        basis = build_basis_matrix(tx, spec)
        true = 0.1 * (
            rng.standard_normal((2, spec.n_terms))
            + 1j * rng.standard_normal((2, spec.n_terms))
        )
        labels = (basis @ true.T).T
        fitted = ls_fit(basis, labels, spec)
        err = np.linalg.norm(fitted.weights - true) / np.linalg.norm(true)
        assert err < 1e-6

    def test_zero_labels_zero_coefficients(self, rng):
        spec = BasisSpec.linear(1, 2)
        tx = rng.standard_normal((1, 100)) + 1j * rng.standard_normal((1, 100))
        basis = build_basis_matrix(tx, spec)
        fitted = ls_fit(basis, np.zeros((1, basis.shape[0]), dtype=complex), spec)
        assert_allclose(fitted.weights, 0.0, atol=1e-12)

    def test_underdetermined_rejected(self, rng):
        spec = BasisSpec(n_tx=1, depth=4, order=3)
        tx = rng.standard_normal((1, 10)) + 1j * rng.standard_normal((1, 10))
        basis = build_basis_matrix(tx, spec)  # 7 rows, 24 columns
        with pytest.raises(ValueError, match="rows"):
            ls_fit(basis, np.zeros((1, basis.shape[0]), dtype=complex), spec)

    def test_rank_deficiency_reported_with_condition(self):
        spec = BasisSpec.linear(1, 2)
        # duplicate samples make the two lag columns identical
        tx = np.ones((1, 50), dtype=complex)
        basis = build_basis_matrix(tx, spec)
        with pytest.raises(SingularBasisError, match="condition"):
            ls_fit(basis, np.zeros((1, basis.shape[0]), dtype=complex), spec)

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_dependent_column_reported_with_condition(self, rng, factor):
        # one column equal to, or three times, another
        spec = BasisSpec.linear(1, 3)
        basis = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        basis[:, 2] = factor * basis[:, 0]
        labels = rng.standard_normal((1, 200)) + 0j
        with pytest.raises(SingularBasisError, match="condition estimate"):
            ls_fit(basis, labels, spec)

    def test_row_blocks_equal_matrix_bit_for_bit(self, rng):
        spec = BasisSpec(n_tx=2, depth=3, order=3)
        n = 2 * CHUNK_ROWS + 500
        tx = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        basis = build_basis_matrix(tx, spec)
        labels = rng.standard_normal((2, basis.shape[0])) + 1j * rng.standard_normal(
            (2, basis.shape[0])
        )
        blocks = (
            build_basis_matrix(tx[:, a : a + CHUNK_ROWS + spec.depth - 1], spec)
            for a in range(0, basis.shape[0], CHUNK_ROWS)
        )
        from_blocks = ls_fit(blocks, labels, spec).weights
        assert from_blocks.tobytes() == ls_fit(basis, labels, spec).weights.tobytes()

    @pytest.mark.parametrize(
        "read",
        [
            lambda spec, chunk: ls_fit([chunk], np.zeros((1, 58), dtype=complex), spec),
            lambda spec, chunk: apply_basis(
                PolyCoefficients(spec, np.zeros((1, spec.n_terms), dtype=complex)), chunk
            ),
        ],
        ids=["ls_fit", "apply_basis"],
    )
    def test_chunk_of_neither_width_rejected(self, rng, read):
        # neither the basis's 36 columns nor its 12 monomials
        spec = BasisSpec(n_tx=2, depth=3, order=3)
        chunk = rng.standard_normal((60, 5)) + 0j
        with pytest.raises(ValueError, match="fits no"):
            read(spec, chunk)

    def test_chunks_of_both_kinds_rejected(self, rng):
        # basis rows 0-99 as a block, then rows 100-197 as their monomial stack
        spec = BasisSpec(n_tx=2, depth=3, order=3)
        tx = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
        chunks = [
            build_basis_matrix(tx[:, :102], spec),
            build_basis_matrix(tx[:, 100:], replace(spec, depth=1)),
        ]
        with pytest.raises(ValueError, match="mix"):
            ls_fit(chunks, np.zeros((1, 198), dtype=complex), spec)

    def test_row_count_mismatch_rejected(self, rng):
        spec = BasisSpec.linear(1, 2)
        tx = rng.standard_normal((1, 100)) + 1j * rng.standard_normal((1, 100))
        basis = build_basis_matrix(tx, spec)
        for n_labels in (basis.shape[0] - 1, basis.shape[0] + 1):
            with pytest.raises(ValueError, match="labels have"):
                ls_fit(basis, np.zeros((1, n_labels), dtype=complex), spec)

    def test_weights_match_a_cholesky_solve(self, rng):
        # near-constant envelopes make the monomials nearly dependent
        spec = BasisSpec(n_tx=2, depth=3, order=5)
        envelope = 1 + 0.02 * rng.standard_normal((2, 2000))
        tx = envelope * np.exp(2j * np.pi * rng.random((2, 2000)))
        basis = build_basis_matrix(tx, spec)
        labels = rng.standard_normal((2, len(basis))) + 1j * rng.standard_normal((2, len(basis)))
        gram = basis.conj().T @ basis
        scale = np.sqrt(gram.diagonal().real)
        scaled = gram / np.outer(scale, scale)
        cond = np.linalg.cond(scaled)
        assert cond >= 1e6
        rhs = basis.conj().T @ labels.T / scale[:, None]
        reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(scaled), rhs) / scale[:, None]
        err = np.linalg.norm(ls_fit(basis, labels, spec).weights - reference.T)
        assert err <= 10 * cond * np.finfo(float).eps * np.linalg.norm(reference)

    def test_residual_orthogonal_to_column_space(self, rng):
        spec = BasisSpec(n_tx=1, depth=2, order=3)
        tx = rng.standard_normal((1, 300)) + 1j * rng.standard_normal((1, 300))
        basis = build_basis_matrix(tx, spec)
        labels = rng.standard_normal((1, basis.shape[0])) + 1j * rng.standard_normal(
            (1, basis.shape[0])
        )
        fitted = ls_fit(basis, labels, spec)
        residual = labels[0] - (basis @ fitted.weights[0])
        rel = np.linalg.norm(basis.conj().T @ residual) / (
            np.linalg.norm(basis) * np.linalg.norm(residual)
        )
        assert rel < 1e-8


def _monomial_chunks(tx, spec):
    """Depth-1 bases of each CHUNK_ROWS basis rows' samples, as harness builds them."""
    n_rows = tx.shape[1] - spec.depth + 1
    monomials = replace(spec, depth=1)
    return [
        build_basis_matrix(tx[:, a : min(a + CHUNK_ROWS, n_rows) + spec.depth - 1], monomials)
        for a in range(0, n_rows, CHUNK_ROWS)
    ]


class TestMonomialChunkFit:
    SPECS = [BasisSpec.linear(2, 5), BasisSpec(2, 5, 1), BasisSpec(2, 4, 3), BasisSpec(2, 3, 5)]

    @pytest.fixture(params=SPECS, ids=["linear", "P1", "P3", "P5"])
    def problem(self, request, rng):
        spec = request.param
        # three chunks, the last of one basis row
        n = 2 * CHUNK_ROWS + spec.depth
        tx = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        basis = build_basis_matrix(tx, spec)
        labels = rng.standard_normal((3, len(basis))) + 1j * rng.standard_normal((3, len(basis)))
        chunks = _monomial_chunks(tx, spec)
        assert [len(u) - spec.depth + 1 for u in chunks] == [CHUNK_ROWS, CHUNK_ROWS, 1]
        return spec, tx, basis, labels, chunks

    def test_normal_equations_match_the_explicit_basis(self, problem):
        # the covariance recursion against basis^H basis, within 1e-12 of the largest
        # entry: harness's chunks, then chunks of 1, 2 and 7 rows and the rest
        spec, tx, basis, labels, chunks = problem
        monomials = build_basis_matrix(tx, replace(spec, depth=1))
        cuts = [0, 1, 3, 10, len(basis)]
        short = [monomials[a : b + spec.depth - 1] for a, b in zip(cuts, cuts[1:])]
        explicit = basis.conj().T @ basis
        explicit_rhs = labels.conj() @ basis
        for read in (chunks, short):
            gram, rhs = _normal_equations(iter(read), labels, spec)
            assert np.abs(gram - explicit).max() <= 1e-12 * np.abs(explicit).max()
            assert np.abs(rhs - explicit_rhs).max() <= 1e-12 * np.abs(explicit_rhs).max()

    def test_weights_and_estimate_match_the_explicit_fit(self, problem):
        # relative 2-norm differences within 1e-9
        spec, _, basis, labels, chunks = problem
        fitted = ls_fit(iter(chunks), labels, spec)
        explicit = ls_fit(basis, labels, spec)
        err = np.linalg.norm(fitted.weights - explicit.weights)
        assert err <= 1e-9 * np.linalg.norm(explicit.weights)
        estimate = np.hstack([apply_basis(explicit, u) for u in chunks])
        reference = apply_basis(explicit, basis)
        assert np.linalg.norm(estimate - reference) <= 1e-12 * np.linalg.norm(reference)


class TestReconstruct:
    def test_zero_coefficients_zero_output(self, rng):
        spec = BasisSpec(n_tx=1, depth=2, order=3)
        coeffs = PolyCoefficients(spec, np.zeros((2, spec.n_terms), dtype=complex))
        tx = rng.standard_normal((1, 40)) + 1j * rng.standard_normal((1, 40))
        out = apply_basis(coeffs, build_basis_matrix(tx, spec))
        assert out.shape == (2, 39)
        assert_allclose(out, 0.0)

    def test_shape_mismatch_rejected(self, rng):
        spec = BasisSpec(n_tx=1, depth=2, order=1)
        coeffs = PolyCoefficients(spec, np.zeros((1, spec.n_terms), dtype=complex))
        other = np.zeros((5, 10))
        with pytest.raises(ValueError, match="columns"):
            apply_basis(coeffs, other)


class TestTcFit:
    def test_recovers_fir_taps_from_linear_scenario(self):
        sc = ideal_rf(
            n_rx=2,
            n_tx=2,
            n_paths=3,
            noise_enabled=False,
            adc_enabled=False,
            n_samples=3000,
        )
        ds = generate_dataset(sc, seed=17)
        fitted = run_tc(ds).artifacts["coefficients"]
        # coefficient layout: antenna-major, lag-inner -> (n_rx, n_tx, depth)
        est = fitted.weights.reshape(ds.n_rx, ds.n_tx, ds.window_depth)
        true = np.asarray(ds.meta["channel_scale"]) * _drawn_channel(sc, 17).taps
        err = np.linalg.norm(est - true) / np.linalg.norm(true)
        assert err < 1e-6


def _drawn_channel(sc, seed):
    from xlic.config import derive_rng

    return draw_channel(derive_rng(seed, "channel"), sc.n_rx, sc.n_tx, sc.n_paths)


class TestCounts:
    def test_reference_values(self):
        assert pc_param_count(4, 4, 2, 7, 3) == 1728
        assert pc_complexity(4, 4, 2, 7, 3) == 127864

    def test_degenerate_param_count(self):
        assert pc_param_count(1, 1, 0, 1, 1) == 4

    def test_param_count_linear_in_antennas(self):
        base = pc_param_count(4, 4, 2, 7, 3)
        assert pc_param_count(4, 8, 2, 7, 3) == 2 * base

    def test_complexity_monotone_in_order(self):
        values = [pc_complexity(4, 4, 2, 7, p) for p in (1, 3, 5, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_complexity_linear_in_size_up_to_offset(self):
        # doubling N_alpha doubles everything except the -2*N0 term
        a = pc_complexity(4, 4, 2, 7, 3)
        b = pc_complexity(4, 8, 2, 7, 3)
        assert b + 2 * 4 == 2 * (a + 2 * 4)

    def test_tc_counts_are_linear_restriction(self):
        # linear-only restriction halves the P=1 parameter count
        assert tc_param_count(4, 4, 2, 7) == pc_param_count(4, 4, 2, 7, 1) // 2
        assert tc_param_count(4, 4, 2, 7) == 2 * 4 * 4 * 9
        assert tc_complexity(4, 4, 2, 7) == 8 * 4 * 4 * 9 - 2 * 4

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            pc_param_count(1, 1, 1, 1, 2)
        with pytest.raises(ValueError):
            pc_complexity(1, 1, 1, 1, 4)


class TestCoefficientSerialization:
    def test_round_trip(self, tmp_path, rng):
        from xlic.polynomial import load_coefficients, save_coefficients

        spec = BasisSpec(n_tx=2, depth=3, order=3)
        weights = rng.standard_normal((2, spec.n_terms)) + 1j * rng.standard_normal(
            (2, spec.n_terms)
        )
        coeffs = PolyCoefficients(spec, weights)
        path = tmp_path / "coeffs.bin"
        save_coefficients(coeffs, path, extra_meta={"canceller": "pc"})
        loaded = load_coefficients(path)
        assert loaded.basis == spec
        assert_allclose(loaded.weights, weights)
