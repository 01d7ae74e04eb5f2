"""Spectral factorization substrate: construction, products, pseudo-inverse."""

import numpy as np
import pytest

from conftest import random_matrix, random_orthogonal
from dsmg import (
    DimensionMismatch,
    DomainError,
    SpectralFactorization,
    factorize_svd,
    from_diagonal,
)
from oracles import adjoint_apply, apply, minimal_norm_solution


def symmetric_matrix(seed: int, eigenvalues) -> np.ndarray:
    """Q diag(eigenvalues) Q^T; (b + b^T) / 2 is symmetric bit for bit."""
    q = random_orthogonal(np.random.default_rng(seed), len(eigenvalues))
    b = (q * np.asarray(eigenvalues)) @ q.T
    return (b + b.T) / 2.0


def hermitian_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return b + b.conj().T


# square inputs equal to their conjugate transpose, which factorize_svd
# factors by eigh
SYMMETRIC_CASES = {
    "indefinite": symmetric_matrix(1, [3.0, -2.0, 1.0, -0.5, 0.1]),
    "zero-eigenvalue": np.ones((4, 4)),  # eigenvalues 4, 0, 0, 0
    "repeated-eigenvalue": symmetric_matrix(2, [2.0, -2.0, 2.0, 1.0, 0.5]),
    "complex-hermitian": hermitian_matrix(3, 5),
}


def one_ulp_asymmetric(a: np.ndarray) -> np.ndarray:
    """Copy of ``a`` whose (0, 1) entry is moved up by one ulp (real part)."""
    out = a.copy()
    out.real[0, 1] = np.nextafter(out.real[0, 1], np.inf)
    return out


class TestFactorizeSvd:
    def test_identity(self):
        fact = factorize_svd(np.eye(3))
        assert np.allclose(fact.diag, 1.0, atol=1e-14)
        assert fact.shape == (3, 3)
        assert np.allclose(fact.to_matrix(), np.eye(3), atol=1e-12)

    def test_already_diagonal(self):
        fact = factorize_svd(np.diag([3.0, 2.0]))
        assert np.allclose(fact.diag, [3.0, 2.0], atol=1e-14)

    def test_diag_sorted_nonincreasing(self):
        for a in [random_matrix(3, 7, 5, 1e-3, 2.0), *SYMMETRIC_CASES.values()]:
            fact = factorize_svd(a)
            assert np.all(np.diff(fact.diag) <= 0)
            assert np.all(fact.diag >= 0)

    def test_reconstruction_random(self):
        cases = [random_matrix(seed, m, n, 0.01, 3.0)
                 for seed, (m, n) in enumerate([(4, 4), (5, 3), (3, 6)])]
        for a in cases + list(SYMMETRIC_CASES.values()):
            m, n = a.shape
            fact = factorize_svd(a)
            defect = np.linalg.norm(fact.to_matrix() - a)
            assert defect <= 1e-10 * min(m, n) * np.linalg.norm(a)

    def test_unitarity_invariant(self):
        cases = [random_matrix(seed, 6, 4, 1e-4, 1.0) for seed in range(5)]
        for a in cases + list(SYMMETRIC_CASES.values()):
            fact = factorize_svd(a)
            m, n = fact.shape
            k = min(m, n)
            u_defect = np.linalg.norm(fact.u_basis.conj().T @ fact.u_basis - np.eye(k))
            v_defect = np.linalg.norm(fact.v_basis.conj().T @ fact.v_basis - np.eye(k))
            assert u_defect <= 1e-10 * m
            assert v_defect <= 1e-10 * n

    @pytest.mark.parametrize("name", SYMMETRIC_CASES)
    def test_symmetric_diag_matches_singular_values(self, name):
        a = SYMMETRIC_CASES[name]
        expected = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(factorize_svd(a).diag - expected)) <= 1e-12 * expected[0]

    @pytest.mark.parametrize("name", SYMMETRIC_CASES)
    def test_eigh_only_for_exactly_symmetric_input(self, name, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        factorize_svd(SYMMETRIC_CASES[name])
        assert len(calls) == 1
        calls.clear()
        asymmetric = one_ulp_asymmetric(SYMMETRIC_CASES[name])
        fact = factorize_svd(asymmetric)
        assert len(calls) == 0
        assert np.linalg.norm(fact.to_matrix() - asymmetric) <= 1e-12 * np.linalg.norm(asymmetric)

    def test_tall_bases_are_thin(self):
        a = np.random.default_rng(0).normal(size=(4000, 20))
        fact = factorize_svd(a)
        assert fact.u_basis.shape == (4000, 20)
        assert fact.v_basis.shape == (20, 20)

    def test_eigenvalues_real_nonnegative(self):
        fact = factorize_svd(random_matrix(11, 5, 5, 1e-6, 1.0))
        assert fact.eigenvalues.dtype.kind == "f"
        assert np.all(fact.eigenvalues >= 0)

    def test_complex_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        fact = factorize_svd(a)
        assert np.linalg.norm(fact.to_matrix() - a) <= 1e-12 * np.linalg.norm(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            factorize_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestFromDiagonal:
    def test_single_entry(self):
        fact = from_diagonal([1.0])
        assert fact.shape == (1, 1)
        assert fact.u_basis is None and fact.v_basis is None
        assert np.allclose(fact.to_matrix(), [[1.0]])

    def test_complex_entry_eigenvalue(self):
        fact = from_diagonal([2j])
        assert np.allclose(fact.eigenvalues, [4.0])

    def test_preserves_order(self):
        d = np.array([0.5, 3.0, -1.0 + 1j])
        fact = from_diagonal(d)
        assert np.array_equal(fact.diag, d)

    def test_dft_of_impulse_is_all_ones(self):
        # unnormalized DFT of the unit impulse by direct summation
        n = 8
        impulse = np.zeros(n)
        impulse[0] = 1.0
        direct = np.array(
            [sum(impulse[j] * np.exp(-2j * np.pi * j * k / n) for j in range(n)) for k in range(n)]
        )
        fact = from_diagonal(direct)
        assert np.allclose(fact.diag, np.ones(n), atol=1e-12)
        assert np.allclose(fact.eigenvalues, np.ones(n), atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            from_diagonal([])


class TestApply:
    def test_identity(self):
        fact = from_diagonal([1.0, 1.0, 1.0])
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(apply(fact, x), x)

    def test_scalar_diagonal(self):
        fact = from_diagonal([2.0])
        assert np.allclose(apply(fact, np.array([3.0])), [6.0])

    def test_matches_dense_product(self):
        a = random_matrix(21, 5, 4, 0.01, 2.0)
        fact = factorize_svd(a)
        rng = np.random.default_rng(1)
        x = rng.normal(size=4)
        expected = a @ x
        assert np.linalg.norm(apply(fact, x) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_dimension_mismatch(self):
        fact = from_diagonal([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            apply(fact, np.zeros(3))


class TestAdjointApply:
    def test_identity(self):
        fact = from_diagonal([1.0, 1.0])
        y = np.array([0.25, -4.0])
        assert np.allclose(adjoint_apply(fact, y), y)

    def test_conjugates_diagonal(self):
        fact = from_diagonal([2j])
        assert np.allclose(adjoint_apply(fact, np.array([1.0])), [-2j])

    def test_matches_dense_product(self):
        a = random_matrix(22, 5, 4, 0.01, 2.0)
        fact = factorize_svd(a)
        rng = np.random.default_rng(2)
        y = rng.normal(size=5)
        expected = a.conj().T @ y
        assert np.linalg.norm(adjoint_apply(fact, y) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_apply_adjoint_composition(self):
        for seed, (m, n) in enumerate([(5, 5), (6, 4), (4, 6), (7, 7)]):
            a = random_matrix(seed + 50, m, n, 0.05, 1.5)
            fact = factorize_svd(a)
            rng = np.random.default_rng(seed)
            y = rng.normal(size=m)
            composed = apply(fact, adjoint_apply(fact, y))
            dense = (a @ a.conj().T) @ y
            assert np.linalg.norm(composed - dense) <= 1e-10 * max(np.linalg.norm(dense), 1.0)


class TestMinimalNormSolution:
    def test_identity(self):
        fact = from_diagonal([1.0, 1.0])
        f = np.array([4.0, -1.0])
        assert np.allclose(minimal_norm_solution(fact, f), f)

    def test_null_component_dropped(self):
        fact = from_diagonal([2.0, 0.0])
        out = minimal_norm_solution(fact, np.array([4.0, 1.0]))
        assert np.allclose(out, [2.0, 0.0], atol=1e-14)

    def test_recovers_known_solution(self):
        a = random_matrix(33, 4, 4, 0.5, 2.0)
        rng = np.random.default_rng(3)
        y_true = rng.normal(size=4)
        out = minimal_norm_solution(factorize_svd(a), a @ y_true)
        assert np.linalg.norm(out - y_true) <= 1e-8 * np.linalg.norm(y_true)

    def test_full_rank_roundtrip_6x6(self):
        for seed in range(5):
            a = random_matrix(seed + 90, 6, 6, 0.2, 2.0)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=6)
            fact = factorize_svd(a)
            out = minimal_norm_solution(fact, apply(fact, x))
            assert np.linalg.norm(out - x) <= 1e-8 * np.linalg.norm(x)

    def test_result_orthogonal_to_null_space(self):
        # rank-1 operator: solution must have no component along the null direction
        a = np.outer([1.0, 1.0], [1.0, -1.0]) / 2.0
        fact = factorize_svd(a)
        out = minimal_norm_solution(fact, np.array([1.0, 1.0]))
        null_direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(out @ null_direction) <= 1e-8

    def test_rejects_bad_rank_tol(self):
        fact = from_diagonal([1.0])
        with pytest.raises(DomainError):
            minimal_norm_solution(fact, np.array([1.0]), rank_tol=0.0)


class TestValidation:
    def test_rejects_nonunitary_basis(self):
        with pytest.raises(DomainError):
            SpectralFactorization(
                u_basis=np.array([[1.0, 0.0], [1.0, 1.0]]),
                v_basis=None,
                diag=np.array([1.0, 1.0]),
                shape=(2, 2),
            )

    def test_rejects_identity_basis_of_tall_side(self):
        with pytest.raises(DimensionMismatch):
            SpectralFactorization(
                u_basis=None, v_basis=np.eye(1), diag=np.array([1.0]), shape=(2, 1)
            )

    def test_rejects_wrong_diag_length(self):
        with pytest.raises(DimensionMismatch):
            SpectralFactorization(
                u_basis=None, v_basis=None, diag=np.array([1.0]), shape=(2, 2)
            )

    @pytest.mark.parametrize("entry", [1.35e154, -1e200, 1e154 + 1e154j, 1e308 + 1e308j])
    def test_rejects_diag_whose_square_overflows(self, entry):
        with pytest.raises(DomainError):
            from_diagonal([1.0, entry])

    def test_accepts_largest_squarable_diag(self):
        fact = from_diagonal([1.34e154, -1.34e154])
        assert np.all(np.isfinite(fact.eigenvalues))

    def test_arrays_frozen(self):
        fact = from_diagonal([1.0, 2.0])
        with pytest.raises(ValueError):
            fact.diag[0] = 5.0
