"""Second-derivative test family and the seeded noise model."""

import numpy as np
import pytest

from dsmg import (
    DomainError,
    NoiseSpec,
    add_noise,
    factorize_svd,
    second_derivative_problem,
)
from oracles import greens_kernel


class TestGreensKernel:
    def test_interior_value(self):
        assert greens_kernel(0.5, 0.5) == pytest.approx(-0.25)

    def test_boundary_zero(self):
        for t in (0.0, 0.3, 1.0):
            assert greens_kernel(0.0, t) == 0.0
            assert greens_kernel(1.0, t) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, t = rng.uniform(0.0, 1.0, 2)
            assert greens_kernel(s, t) == pytest.approx(greens_kernel(t, s), abs=1e-15)

    def test_nonpositive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s, t = rng.uniform(0.0, 1.0, 2)
            assert greens_kernel(s, t) <= 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            greens_kernel(1.5, 0.5)
        with pytest.raises(DomainError):
            greens_kernel(0.5, -0.1)


class TestSecondDerivativeProblem:
    def test_condition_number_anchor(self):
        problem = second_derivative_problem(100, lambda t: np.sin(2 * np.pi * t))
        diag = factorize_svd(problem.matrix).diag
        kappa = diag[0] / diag[-1]
        assert 1.2158e4 / 2.0 <= kappa <= 1.2158e4 * 2.0

    def test_zero_solution_gives_zero_rhs(self):
        problem = second_derivative_problem(10, lambda t: 0.0)
        assert np.array_equal(problem.exact_rhs, np.zeros(10))

    def test_rhs_matches_double_loop_oracle(self):
        # scalar reconstruction of b = A u: midpoint kernel averages off the
        # diagonal, exact kink integral on the diagonal
        n = 10
        h = 1.0 / n
        problem = second_derivative_problem(n, lambda t: np.sin(np.pi * t))
        mid = [(i - 0.5) * h for i in range(1, n + 1)]
        u = [np.sin(np.pi * t) for t in mid]
        expected = []
        for i in range(1, n + 1):
            total = 0.0
            for j in range(1, n + 1):
                if i == j:
                    entry = h * h * ((i * i - i + 0.25) * h - (i - 2.0 / 3.0))
                else:
                    entry = greens_kernel(mid[i - 1], mid[j - 1]) * h
                total += entry * u[j - 1]
            expected.append(total)
        assert np.allclose(problem.exact_rhs, expected, rtol=1e-12, atol=1e-15)

    def test_rhs_consistent_with_matrix(self):
        problem = second_derivative_problem(25, lambda t: t * (1 - t))
        recomputed = problem.matrix @ problem.exact_solution
        assert np.linalg.norm(recomputed - problem.exact_rhs) <= 1e-12 * max(
            np.linalg.norm(problem.exact_rhs), 1e-30
        )

    def test_matrix_symmetric(self):
        problem = second_derivative_problem(30, np.sin)
        assert np.allclose(problem.matrix, problem.matrix.T, atol=1e-15)

    def test_singular_values_decay(self):
        problem = second_derivative_problem(40, np.sin)
        diag = factorize_svd(problem.matrix).diag
        assert np.all(np.diff(diag) < 0)

    def test_condition_number_grows_with_n(self):
        kappas = []
        for n in (10, 20, 40, 80):
            problem = second_derivative_problem(n, np.sin)
            diag = factorize_svd(problem.matrix).diag
            kappas.append(diag[0] / diag[-1])
        assert kappas[0] < kappas[1] < kappas[2] < kappas[3]

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            second_derivative_problem(1, np.sin)


class TestAddNoise:
    def test_exact_relative_norm(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=50)
        noisy, delta = add_noise(b, NoiseSpec(0.03, 7))
        measured = np.linalg.norm(noisy - b) / np.linalg.norm(b)
        assert abs(measured - 0.03) <= 1e-14
        assert abs(delta - 0.03 * np.linalg.norm(b)) <= 1e-14 * delta

    def test_deterministic_per_seed(self):
        b = np.linspace(1.0, 2.0, 33)
        first, _ = add_noise(b, NoiseSpec(0.1, 123))
        second, _ = add_noise(b, NoiseSpec(0.1, 123))
        assert np.array_equal(first, second)

    def test_seeds_decorrelated(self):
        b = np.ones(100)
        noisy_a, _ = add_noise(b, NoiseSpec(0.1, 0))
        noisy_b, _ = add_noise(b, NoiseSpec(0.1, 1))
        e_a = noisy_a - b
        e_b = noisy_b - b
        corr = abs(np.corrcoef(e_a, e_b)[0, 1])
        assert corr < 0.5

    def test_rejects_zero_rhs(self):
        with pytest.raises(DomainError):
            add_noise(np.zeros(5), NoiseSpec(0.1, 0))

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            NoiseSpec(0.0, 1)
        with pytest.raises(DomainError):
            NoiseSpec(1.5, 1)
