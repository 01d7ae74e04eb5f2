"""Spectral factorization substrate: construction, products, pseudo-inverse."""

import types
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import random_matrix, random_orthogonal
from dsmg import (
    CirculantProblem,
    DimensionMismatch,
    DomainError,
    FactorizationFailure,
    GrayImage,
    NoisyProblem,
    SpectralFactorization,
    factorize_svd,
    from_diagonal,
    second_derivative_problem,
)
from dsmg import linalg
from dsmg.linalg import _check_reconstruction
from oracles import adjoint_apply, apply, minimal_norm_solution, to_matrix


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
# factors by eigh into one basis and signed eigenvalues
SYMMETRIC_CASES = {
    "indefinite": symmetric_matrix(1, [3.0, -2.0, 1.0, -0.5, 0.1]),
    "zero-eigenvalue": np.ones((4, 4)),  # eigenvalues 4, 0, 0, 0
    "exact-zero-eigenvalue": np.diag([1.0, 0.0]),  # eigh returns 0.0 exactly
    "repeated-eigenvalue": symmetric_matrix(2, [2.0, -2.0, 2.0, 1.0, 0.5]),
    "complex-hermitian": hermitian_matrix(3, 5),
}


def tiny_second_derivative_matrix() -> np.ndarray:
    """second_derivative_problem(50) scaled by 1e-8, so ||A||_F is about 1e-9."""
    return second_derivative_problem(50, np.sin).matrix * 1e-8


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
        assert np.allclose(to_matrix(fact), np.eye(3), atol=1e-12)

    def test_already_diagonal(self):
        # symmetric: the signed eigenvalues, ascending
        fact = factorize_svd(np.diag([3.0, -2.0]))
        assert np.allclose(fact.diag, [-2.0, 3.0], atol=1e-14)
        # general: the singular values, nonincreasing
        fact = factorize_svd(np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 0.0]]))
        assert np.allclose(fact.diag, [3.0, 2.0], atol=1e-14)

    def test_diag_sorted_nonincreasing(self):
        # the rule of the general svd; symmetric input is sorted ascending
        asymmetric = [one_ulp_asymmetric(a) for a in SYMMETRIC_CASES.values()]
        for a in [random_matrix(3, 7, 5, 1e-3, 2.0), *asymmetric]:
            fact = factorize_svd(a)
            assert np.all(np.diff(fact.diag) <= 0)
            assert np.all(fact.diag >= 0)

    def test_reconstruction_random(self):
        cases = [random_matrix(seed, m, n, 0.01, 3.0)
                 for seed, (m, n) in enumerate([(4, 4), (5, 3), (3, 6)])]
        for a in cases + list(SYMMETRIC_CASES.values()) + [tiny_second_derivative_matrix()]:
            m, n = a.shape
            fact = factorize_svd(a)
            assert fact.shape == a.shape
            defect = np.linalg.norm(to_matrix(fact) - a)
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
        # the real eigenvalues, ascending, whose moduli are the singular values
        a = SYMMETRIC_CASES[name]
        diag = factorize_svd(a).diag
        expected = np.linalg.svd(a, compute_uv=False)
        assert diag.dtype.kind == "f"
        assert np.all(np.diff(diag) >= 0)
        assert np.max(np.abs(np.sort(np.abs(diag))[::-1] - expected)) <= 1e-12 * expected[0]
        eigenvalues = np.linalg.eigvalsh(a)
        assert np.max(np.abs(diag - eigenvalues)) <= 1e-12 * expected[0]

    @pytest.mark.parametrize("name", SYMMETRIC_CASES)
    def test_eigh_only_for_exactly_symmetric_input(self, name, monkeypatch):
        # one eigh call when A equals A* exactly, else one svd call
        calls = []

        def spy(name, function):
            def spying(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return spying

        for function in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, function, spy(function, getattr(np.linalg, function)))
        factorize_svd(SYMMETRIC_CASES[name])
        assert calls == ["eigh"]
        calls.clear()
        asymmetric = one_ulp_asymmetric(SYMMETRIC_CASES[name])
        fact = factorize_svd(asymmetric)
        assert calls == ["svd"]
        assert np.linalg.norm(to_matrix(fact) - asymmetric) <= 1e-12 * np.linalg.norm(asymmetric)

    @pytest.mark.parametrize("matrix", [np.zeros((4, 4)), np.diag([1.0, 0.0]),
                                        np.diag([1.0, -0.0]), np.diag([-0.0, 2.0, 0.0])],
                             ids=["all-zero", "zero", "negative-zero", "both-zeros"])
    def test_exact_zero_eigenvalue_takes_sign_plus_one(self, matrix):
        # one basis for both sides, so V's column of an exact-zero S entry is U's
        fact = factorize_svd(matrix)
        zero = fact.diag == 0
        assert zero.any()
        assert fact.u_basis is fact.v_basis
        assert np.linalg.norm(to_matrix(fact) - matrix) <= 1e-14

    @pytest.mark.parametrize("name", SYMMETRIC_CASES)
    def test_symmetric_input_stores_one_basis_probed_once(self, name, monkeypatch):
        # one orthonormality probe for the shared basis and one reconstruction probe
        drawn = []
        probes = linalg._probes
        monkeypatch.setattr(linalg, "_probes", lambda rows: drawn.append(rows) or probes(rows))
        fact = factorize_svd(SYMMETRIC_CASES[name])
        assert fact.u_basis is fact.v_basis
        assert len(drawn) == 2
        drawn.clear()
        problem = second_derivative_problem(len(fact.diag), np.sin)
        assert problem.factorization.u_basis is problem.factorization.v_basis
        assert len(drawn) == 2
        drawn.clear()
        fact = factorize_svd(one_ulp_asymmetric(SYMMETRIC_CASES[name]))
        assert fact.u_basis is not fact.v_basis
        assert len(drawn) == 3

    def test_tall_bases_are_thin(self):
        a = np.random.default_rng(0).normal(size=(4000, 20))
        fact = factorize_svd(a)
        assert fact.shape == a.shape
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
        assert np.linalg.norm(to_matrix(fact) - a) <= 1e-12 * np.linalg.norm(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            factorize_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(DimensionMismatch, match=f"expected a 2-d array, got ndim {len(shape)}"):
            factorize_svd(np.ones(shape))

    @pytest.mark.parametrize("function, matrix, message", [
        ("eigh", np.eye(3), "Eigenvalues did not converge"),
        ("svd", random_matrix(4, 5, 3, 0.1, 2.0), "SVD did not converge"),
    ], ids=["hermitian", "general"])
    def test_nonconvergence_is_factorization_failure(self, function, matrix, message, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError(message)

        monkeypatch.setattr(np.linalg, function, failing)
        with pytest.raises(FactorizationFailure, match=f"^{message}$"):
            factorize_svd(matrix)


class TestFromDiagonal:
    def test_single_entry(self):
        fact = from_diagonal([1.0])
        assert fact.shape == (1, 1)
        assert fact.u_basis is None and fact.v_basis is None
        assert np.allclose(to_matrix(fact), [[1.0]])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="diag contains non-finite entries"):
            from_diagonal([1.0, bad])


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


@dataclass(frozen=True)
class Permutation:
    """A basis stored as a transform: B x reorders the entries of each row x, scaled by ``gain``."""

    order: tuple
    gain: float = 1.0

    @property
    def shape(self):
        return (len(self.order), len(self.order))

    def apply(self, x):
        out = np.empty_like(x)
        out[..., list(self.order)] = x
        return self.gain * out

    def adjoint(self, y):
        return self.gain * y[..., list(self.order)]


@dataclass(frozen=True)
class Shaped:
    """``transform`` with its ``shape`` replaced."""

    transform: Permutation
    shape: object

    def apply(self, x):
        return self.transform.apply(x)

    def adjoint(self, y):
        return self.transform.adjoint(y)


_IDENTITY = Permutation((0, 1, 2))
# a 3 x 3 identity transform whose shape is not a pair of ints
MALFORMED_TRANSFORMS = {
    "empty-shape": Shaped(_IDENTITY, ()),
    "int-shape": Shaped(_IDENTITY, 3),
    "none-shape": Shaped(_IDENTITY, None),
    "float-shape": Shaped(_IDENTITY, (3.0, 3.0)),
    "no-shape": types.SimpleNamespace(apply=_IDENTITY.apply, adjoint=_IDENTITY.adjoint),
}


class TestTransformBasis:
    def test_accepted_kept_and_used_by_products(self):
        basis = Permutation((2, 0, 1))
        fact = SpectralFactorization(basis, None, np.array([3.0, 2.0, 1.0]))
        assert fact.u_basis is basis
        dense = np.zeros((3, 3))
        dense[[2, 0, 1], [0, 1, 2]] = 1.0  # B e_i = e_order[i]
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(apply(fact, x), dense @ (fact.diag * x))
        assert np.array_equal(adjoint_apply(fact, x), fact.diag * (dense.T @ x))
        _check_reconstruction(dense * fact.diag, fact)

    def test_reconstruction_probe_runs_through_transform(self):
        fact = SpectralFactorization(Permutation((1, 0)), None, np.array([2.0, 1.0]))
        with pytest.raises(FactorizationFailure, match="reconstruction defect"):
            _check_reconstruction(np.diag([2.0, 1.0]), fact)

    @pytest.mark.parametrize("gain", [1.0 + 1e-6, float("nan")])
    def test_rejected_unless_orthonormal(self, gain):
        with pytest.raises(DomainError, match="not orthonormal"):
            SpectralFactorization(Permutation((1, 0), gain), None, np.array([1.0, 1.0]))

    def test_rejected_on_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            SpectralFactorization(None, Permutation((1, 0)), np.array([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("name", MALFORMED_TRANSFORMS)
    def test_rejected_unless_shape_is_a_pair(self, name):
        with pytest.raises(DimensionMismatch, match="^u_basis has shape .*, expected a pair of ints$"):
            SpectralFactorization(MALFORMED_TRANSFORMS[name], None, np.ones(3))


class TestValidation:
    def test_rejects_nonunitary_basis(self):
        with pytest.raises(DomainError):
            SpectralFactorization(
                u_basis=np.array([[1.0, 0.0], [1.0, 1.0]]),
                v_basis=None,
                diag=np.array([1.0, 1.0]),
            )

    def test_rejects_identity_basis_of_tall_side(self):
        # k < min(m, n): 3 x 3 with two singular triplets, though both bases are orthonormal
        tall = np.eye(3)[:, :2]
        with pytest.raises(DimensionMismatch):
            SpectralFactorization(u_basis=tall, v_basis=tall, diag=np.array([1.0, 1.0]))
        # k > min(m, n): a 2 x 3 basis has three columns but cannot be orthonormal;
        # the shape rule must reject it before the probe would
        with pytest.raises(DimensionMismatch, match=r"^diag has shape \(3,\), expected \(2,\)$"):
            SpectralFactorization(u_basis=np.ones((2, 3)), v_basis=None, diag=np.ones(3))

    def test_rejects_empty_shape(self):
        with pytest.raises(DimensionMismatch, match=r"^diag has shape \(0,\), expected nonempty 1-d$"):
            SpectralFactorization(u_basis=None, v_basis=None, diag=np.ones(0))

    def test_rejects_wrong_diag_length(self):
        with pytest.raises(DimensionMismatch):
            SpectralFactorization(u_basis=np.eye(2), v_basis=None, diag=np.array([1.0]))

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


def perturb_one_column(basis: np.ndarray, rng, size: float) -> np.ndarray:
    """Copy of ``basis`` with a random column moved by ``size`` along a random unit direction."""
    out = basis.copy()
    direction = rng.normal(size=len(basis))
    if np.iscomplexobj(basis):
        direction = direction + 1j * rng.normal(size=len(basis))
    out[:, rng.integers(basis.shape[1])] += size * direction / np.linalg.norm(direction)
    return out


def random_unitary(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


class TestOrthonormalityCheck:
    """The probe check of SpectralFactorization must keep the power of the Gram check."""

    @pytest.mark.parametrize("n", [10, 50])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_rejects_every_column_perturbed_by_1e_8(self, n, kind):
        rng = np.random.default_rng(100 * n + len(kind))
        for _ in range(1000):
            basis = random_orthogonal(rng, n) if kind == "real" else random_unitary(rng, n)
            with pytest.raises(DomainError):
                SpectralFactorization(
                    u_basis=perturb_one_column(basis, rng, 1e-8),
                    v_basis=None,
                    diag=np.ones(n),
                )

    def test_eigh_basis_at_1000_accepted_and_1e_6_perturbation_rejected(self):
        # factorize_svd itself checks the eigh basis; the thin 4000 x 20
        # SVD bases are accepted in TestFactorizeSvd.test_tall_bases_are_thin
        fact = factorize_svd(second_derivative_problem(1000, np.sin).matrix)
        with pytest.raises(DomainError):
            SpectralFactorization(
                fact.u_basis,
                perturb_one_column(fact.v_basis, np.random.default_rng(0), 1e-6),
                fact.diag,
            )


# symmetric input and a corruption of the eigenvalues eigh returns
WRONG_EIGENVALUE_CASES = {
    "swapped": (SYMMETRIC_CASES["indefinite"], lambda s: s[[1, 0, 2, 3, 4]]),
    "one-sign-flipped": (SYMMETRIC_CASES["indefinite"], lambda s: s * [1, 1, 1, 1, -1]),
    "zeroed": (SYMMETRIC_CASES["indefinite"], np.zeros_like),
    "zeroed-tiny-norm": (tiny_second_derivative_matrix(), np.zeros_like),
}


@dataclass(frozen=True)
class DenseOperator:
    """A dense matrix known to the reconstruction check only by its product."""

    matrix: np.ndarray

    def apply(self, x):
        return x @ self.matrix.T


class TestReconstructionCheck:
    """factorize_svd must reject a basis pairing that does not reproduce A."""

    @pytest.mark.parametrize("case", WRONG_EIGENVALUE_CASES)
    def test_rejects_wrong_eigenvalues(self, case, monkeypatch):
        matrix, wrong = WRONG_EIGENVALUE_CASES[case]
        eigh = np.linalg.eigh

        def wrong_eigh(a):
            lam, q = eigh(a)
            return wrong(lam), q

        monkeypatch.setattr(np.linalg, "eigh", wrong_eigh)
        with pytest.raises(FactorizationFailure):
            factorize_svd(matrix)

    @pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7)])
    def test_rejects_swapped_singular_values(self, shape, monkeypatch):
        matrix = random_matrix(sum(shape), *shape, 0.1, 2.0)
        svd = np.linalg.svd

        def swapping_svd(a, **kwargs):
            u, s, vh = svd(a, **kwargs)
            return u, s[[1, 0, *range(2, len(s))]], vh

        monkeypatch.setattr(np.linalg, "svd", swapping_svd)
        with pytest.raises(FactorizationFailure):
            factorize_svd(matrix)

    @pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7)])
    @pytest.mark.parametrize("scale", [1e-315, 1e-309, 1e-300, 1.0, 1e150])
    def test_operator_reference_gives_the_dense_verdict(self, shape, scale):
        # at subnormal scales numpy's complex / real overflows on the divisor
        real = random_matrix(sum(shape), *shape, 0.1, 2.0)
        imag = random_matrix(sum(shape) + 1, *shape, 0.1, 2.0)
        for matrix in (real * scale, (real + 1j * imag) * scale):
            if scale == 1e-315:
                # entries keep about 27 bits, fewer than the 1e-10 tolerance needs
                with pytest.raises(FactorizationFailure, match="reconstruction defect"):
                    factorize_svd(matrix)
                continue
            fact = factorize_svd(matrix)
            swapped = SpectralFactorization(
                fact.u_basis, fact.v_basis, fact.diag[[1, 0, *range(2, len(fact.diag))]]
            )
            _check_reconstruction(DenseOperator(matrix), fact)
            for reference in (matrix, DenseOperator(matrix)):
                with pytest.raises(FactorizationFailure, match="reconstruction defect"):
                    _check_reconstruction(reference, swapped)

    def test_all_zero_matrix_factors(self):
        for shape in [(4, 4), (5, 3), (3, 5)]:
            assert np.array_equal(factorize_svd(np.zeros(shape)).diag, np.zeros(min(shape)))


class TestChecksDeterministic:
    def test_global_random_state_untouched_and_results_bit_identical(self):
        matrices = [SYMMETRIC_CASES["complex-hermitian"], random_matrix(5, 7, 3, 0.1, 2.0)]
        before = np.random.get_state()
        for matrix in matrices:
            first, second = factorize_svd(matrix), factorize_svd(matrix)
            for name in ("u_basis", "v_basis", "diag"):
                assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])

    def test_probe_stack_drawn_once_per_size_and_frozen(self):
        # the p x dim stack holds the dim x p block of the seeded draw, transposed;
        # a second call at one size returns the same read-only array
        stack = linalg._probes(11)
        drawn = np.random.default_rng(linalg._PROBE_SEED).standard_normal((11, linalg._PROBES))
        assert np.array_equal(stack, drawn.T)
        assert linalg._probes(11) is stack
        assert not stack.flags.writeable
        assert linalg._probes(12).shape == (linalg._PROBES, 12)


def _noisy(f_delta=np.ones(3), u0=None) -> NoisyProblem:
    return NoisyProblem(from_diagonal([2.0, 1.0, 0.5]), f_delta, 0.1, u0=u0)


# every admitted input array: how to admit a value and read back the stored
# copy, a valid value, and malformed ones (wrong shape, wrong ndim, empty)
_ONE_D_MALFORMED = (np.ones(4), np.ones((3, 1)), np.ones(0))
ADMITTED = {
    "f_delta": (lambda v: _noisy(f_delta=v).f_delta, np.ones(3), _ONE_D_MALFORMED),
    "u0": (lambda v: _noisy(u0=v).u0, np.ones(3), _ONE_D_MALFORMED),
    "diag": (
        # k pinned by the 3 x 3 basis, so that another length is a malformed diag
        lambda v: SpectralFactorization(np.eye(3), None, v).diag,
        np.ones(3),
        _ONE_D_MALFORMED,
    ),
    "u_basis": (
        lambda v: SpectralFactorization(v, None, np.ones(3)).u_basis,
        np.eye(3),
        (np.eye(4), np.eye(3)[:, :2], np.ones(3), np.ones((0, 3))),
    ),
    "kernel": (
        lambda v: CirculantProblem(v, np.ones(3), 0.1).kernel,
        np.ones(3),
        # a kernel of another length is reported on the observed signal
        (np.ones(()), np.ones((3, 1)), np.ones(0)),
    ),
    "observed": (
        lambda v: CirculantProblem(np.ones(3), v, 0.1).observed,
        np.ones(3),
        _ONE_D_MALFORMED,
    ),
    "pixels": (
        lambda v: GrayImage(v).pixels,
        np.ones((3, 3)),
        (np.ones(9), np.ones((1, 3, 3)), np.ones((0, 3))),
    ),
}


class TestAdmission:
    """One rule admits every input array: a frozen, checked copy."""

    @pytest.mark.parametrize("name", ADMITTED)
    def test_rejects_non_finite(self, name):
        admit, valid, _ = ADMITTED[name]
        bad = valid.copy()
        bad.flat[1] = np.nan
        with pytest.raises(DomainError, match=f"^{name} contains non-finite entries$"):
            admit(bad)

    @pytest.mark.parametrize(
        "name, bad",
        [(name, bad) for name, (_, _, malformed) in ADMITTED.items() for bad in malformed],
        ids=lambda value: str(getattr(value, "shape", value)),
    )
    def test_rejects_malformed_shape(self, name, bad):
        admit = ADMITTED[name][0]
        with pytest.raises(DimensionMismatch, match=f"^{name} has shape "):
            admit(bad)

    @pytest.mark.parametrize("name", ADMITTED)
    def test_stores_a_frozen_copy(self, name):
        admit, valid, _ = ADMITTED[name]
        caller = valid.copy()
        stored = admit(caller)
        caller.flat[0] = 7.0
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, caller)
        assert stored.tobytes() == valid.tobytes()
