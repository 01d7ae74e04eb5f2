"""Second-derivative test family and the seeded noise model."""

import gc
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmg import (
    DimensionMismatch,
    DiscrepancyRule,
    DomainError,
    FactorizationFailure,
    NoiseSpec,
    SpectralFactorization,
    add_noise,
    cli,
    factorize_svd,
    gaussian_psf,
    problems,
    second_derivative_problem,
    synthetic_target,
)
from dsmg.cli import _bench_batch
from dsmg.linalg import _check_reconstruction
from oracles import dst2_basis, greens_kernel


def relative_gap(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def reachable_arrays(root) -> list:
    """Every ndarray reachable from ``root`` through object references and array bases."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return found


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
        # every eigenvalue is negative, so eigh's ascending order is |diag| decaying
        problem = second_derivative_problem(40, np.sin)
        diag = factorize_svd(problem.matrix).diag
        assert np.all(diag < 0)
        assert np.all(np.diff(np.abs(diag)) < 0)

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

    # a float N would sample u at (i - 1/2) / N on ceil(N) cells, which
    # the operator's midpoints do not match
    BAD_SIZES = {
        "float-n": lambda: second_derivative_problem(2.5, np.sin),
        "bool-n": lambda: second_derivative_problem(True, np.sin),
        "target-empty": lambda: synthetic_target(0, 0),
        "target-float-width": lambda: synthetic_target(4, 4.0),
        "psf-float-height": lambda: gaussian_psf(2.5, 4, 1.0),
        "psf-bool-width": lambda: gaussian_psf(4, True, 1.0),
    }

    @pytest.mark.parametrize("call", BAD_SIZES.values(), ids=BAD_SIZES.keys())
    def test_sizes_must_be_integers_of_the_minimum(self, call):
        with pytest.raises(DomainError, match=r"^\w+=.+ must be an integer of at least [12]$"):
            call()

    def test_numpy_integer_sizes_build_as_python_ints(self):
        built = (second_derivative_problem(np.int64(7), np.sin).exact_solution,
                 synthetic_target(np.int32(9), np.int64(8)).pixels,
                 gaussian_psf(np.uint8(5), np.int16(6), 1.0).pixels)
        expected = (second_derivative_problem(7, np.sin).exact_solution,
                    synthetic_target(9, 8).pixels, gaussian_psf(5, 6, 1.0).pixels)
        for got, want in zip(built, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMatrixFreeOperator:
    """TestProblem.apply, the O(N) Green's operator, against the dense matrix."""

    @pytest.mark.parametrize("n", [2, 7, 100, 800])
    @pytest.mark.parametrize("rows", [(), (8,)])
    def test_apply_matches_dense_matrix(self, n, rows):
        problem = second_derivative_problem(n, np.sin)
        # a vector, or a stack of 8 rows
        data = np.random.default_rng(n).standard_normal((n,) + rows).T
        got = problem.apply(data)
        assert got.shape == data.shape
        assert relative_gap(got, data @ problem.matrix.T) <= 1e-14

    @pytest.mark.parametrize("shape", [(), (4,), (6,), (2, 4), (5, 2), (1, 2, 5)])
    def test_apply_rejects_wrong_shape(self, shape):
        problem = second_derivative_problem(5, np.sin)
        with pytest.raises(DimensionMismatch):
            problem.apply(np.ones(shape))

    def test_exact_rhs_is_apply_of_exact_solution(self):
        problem = second_derivative_problem(50, np.sin)
        assert np.array_equal(problem.exact_rhs, problem.apply(problem.exact_solution))
        assert problem.exact_rhs is problem.exact_rhs
        assert not problem.exact_rhs.flags.writeable

    def test_matrix_built_on_first_use_and_frozen(self):
        problem = second_derivative_problem(30, np.sin)
        problem.exact_rhs  # noqa: B018
        problem.factorization  # noqa: B018
        assert "matrix" not in vars(problem)
        assert problem.matrix is problem.matrix
        assert not problem.matrix.flags.writeable

    def test_exact_solution_admitted_as_frozen_copy(self):
        values = np.linspace(0.0, 1.0, 6)
        problem = problems.TestProblem(values)
        values[0] = 5.0
        assert problem.exact_solution[0] == 0.0
        assert not problem.exact_solution.flags.writeable
        with pytest.raises(DomainError):
            problems.TestProblem([0.0, float("nan")])

    def test_sweep_builds_no_square_array(self, monkeypatch):
        n = 500
        built = []

        def recording(size, u_fn):
            built.append(second_derivative_problem(size, u_fn))
            return built[-1]

        monkeypatch.setattr(cli, "second_derivative_problem", recording)
        tracemalloc.start()
        try:
            rows = cli.run_derivative_bench([n], "sin_2pi", 0.01, [0, 1], DiscrepancyRule(1.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 4 and all(row.iterations >= 0 for row in rows)
        assert len(built) == 1 and "matrix" not in vars(built[0])
        # one N x N float64 array alone would reach this
        assert peak < n * n * 8


class TestClosedFormFactorization:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 500])
    def test_diag_matches_eigh(self, n):
        problem = second_derivative_problem(n, np.sin)
        closed = problem.factorization.diag
        reference = factorize_svd(problem.matrix).diag
        assert np.all(np.abs(closed - reference) <= 1e-10 * np.abs(reference))

    @given(n=st.integers(min_value=2, max_value=400))
    @settings(deadline=None)
    def test_passes_both_checks_and_is_sorted(self, n):
        problem = second_derivative_problem(n, np.sin)
        fact = problem.factorization
        assert fact is problem.factorization
        assert fact.shape == (n, n)
        # U = V, one basis applied by FFT; checked on one stack of 8 rows
        assert fact.u_basis is fact.v_basis
        dense = dst2_basis(n)
        stack = np.random.default_rng(n).standard_normal((n, 8)).T
        assert relative_gap(fact.v_basis.apply(stack), stack @ dense.T) <= 1e-14
        assert relative_gap(fact.v_basis.adjoint(stack), stack @ dense) <= 1e-14
        # rebuilding reruns the orthonormality check on the shared basis
        SpectralFactorization(fact.u_basis, fact.v_basis, fact.diag)
        _check_reconstruction(problem.matrix, fact)
        assert np.all(fact.diag < 0)
        assert np.all(np.diff(fact.diag) > 0)

    @pytest.mark.parametrize("n", [2, 10, 100, 500])
    def test_perturbed_diag_rejected_by_reconstruction_check(self, monkeypatch, n):
        build = problems._dst2_factorization

        def perturbed(size):
            fact = build(size)
            diag = fact.diag.copy()
            diag[0] *= 1.0 + 1e-6
            return SpectralFactorization(fact.u_basis, fact.v_basis, diag)

        monkeypatch.setattr(problems, "_dst2_factorization", perturbed)
        problem = second_derivative_problem(n, np.sin)
        with pytest.raises(FactorizationFailure, match="reconstruction defect"):
            problem.factorization

    @pytest.mark.parametrize("n", [2, 100, 500])
    def test_operator_without_diagonal_cell_term_rejected(self, monkeypatch, n):
        # the probe compares the DST-II spectrum with apply, so an error in
        # the Green's-kernel derivation fails it too
        exact = problems.TestProblem.apply

        def dropped(self, x):
            return exact(self, x) - np.asarray(x) / (6.0 * np.shape(x)[-1] ** 2)

        monkeypatch.setattr(problems.TestProblem, "apply", dropped)
        problem = second_derivative_problem(n, np.sin)
        with pytest.raises(FactorizationFailure, match="reconstruction defect"):
            problem.factorization


class TestSineBasis:
    """The FFT-applied DST-II basis against the dense construction."""

    @pytest.mark.parametrize("n", [2, 3, 7, 10, 800])
    @pytest.mark.parametrize("rows", [(), (8,)])
    def test_matches_dense_oracle(self, n, rows):
        fact = problems._dst2_factorization(n)
        dense = dst2_basis(n)
        rng = np.random.default_rng(n)
        # a vector, or a stack of 8 rows
        data = rng.standard_normal((n,) + rows).T
        basis = fact.v_basis
        assert fact.u_basis is basis
        assert basis.shape == (n, n)
        got = basis.apply(data)
        assert relative_gap(got, data @ dense.T) <= 1e-14
        # owns its memory: a view would keep the FFT buffer alive
        assert got.base is None
        assert relative_gap(basis.adjoint(data), data @ dense) <= 1e-14

    def test_complex_input_split_into_parts(self):
        basis = problems._dst2_factorization(9).v_basis
        dense = dst2_basis(9)
        rng = np.random.default_rng(3)
        data = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert relative_gap(basis.apply(data), dense @ data) <= 1e-14
        assert relative_gap(basis.adjoint(data), dense.T @ data) <= 1e-14

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_integer_and_boolean_input_read_as_float(self, dtype):
        # adjoint negates half of the reordered input, which numpy refuses for bool
        basis = problems._dst2_factorization(7).v_basis
        data = np.arange(7) % 2 == 0 if dtype is bool else np.arange(7) - 3
        dense = dst2_basis(7)
        assert relative_gap(basis.apply(data), dense @ data) <= 1e-14
        assert relative_gap(basis.adjoint(data), dense.T @ data) <= 1e-14

    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 5), (6, 2), (1, 2, 6)])
    def test_rejects_wrong_shape(self, shape):
        basis = problems._dst2_factorization(6).v_basis
        for method in (basis.apply, basis.adjoint):
            with pytest.raises(DimensionMismatch):
                method(np.ones(shape))

    @pytest.mark.parametrize("n", [2, 3, 8, 801])
    @pytest.mark.parametrize("rows", [(), (8,)])
    def test_apply_is_the_transpose_of_adjoint_for_any_weights(self, n, rows):
        # <V x, y> = <x, V* y> must hold for weights that are not
        # orthonormal too: an apply that inverts adjoint would pass the
        # orthonormality probe for every weight
        rng = np.random.default_rng(n)
        basis = replace(problems._dst2_factorization(n).v_basis,
                        weights=rng.uniform(0.1, 3.0, n))
        x = rng.standard_normal(rows + (n,))
        y = rng.standard_normal(rows + (n,))
        left = np.sum(basis.apply(x) * y)
        right = np.sum(x * basis.adjoint(y))
        scale = np.linalg.norm(basis.apply(x)) * np.linalg.norm(y)
        assert abs(left - right) <= 1e-14 * scale
        dense = dst2_basis(n) / problems._dst2_factorization(n).v_basis.weights * basis.weights
        assert relative_gap(basis.apply(x), x @ dense.T) <= 1e-14
        assert relative_gap(basis.adjoint(y), y @ dense) <= 1e-14

    @pytest.mark.parametrize("n", [2, 7, 100, 800])
    @pytest.mark.parametrize("wrong", ["last column unscaled", "weights off by 1e-6"])
    def test_wrong_weight_rejected_by_orthonormality_probe(self, n, wrong):
        fact = problems._dst2_factorization(n)
        weights = fact.v_basis.weights.copy()
        if wrong == "last column unscaled":
            weights[-1] = weights[0]
        else:
            weights *= 1.0 + 1e-6
        bad = replace(fact.v_basis, weights=weights)
        with pytest.raises(DomainError, match="^u_basis columns are not orthonormal"):
            SpectralFactorization(bad, bad, fact.diag)


class TestSweepWithoutDenseBases:
    @pytest.mark.parametrize("n", [10, 57, 500])
    def test_bench_batch_matches_dense_basis_oracle(self, n):
        problem = second_derivative_problem(n, np.sin)
        fast = problem.factorization
        v = dst2_basis(n)
        dense = SpectralFactorization(v, v, fast.diag)
        got = _bench_batch(problem, fast, 0.01, range(3), DiscrepancyRule(1.1))
        want = _bench_batch(problem, dense, 0.01, range(3), DiscrepancyRule(1.1))
        assert len(got) == 6
        assert [r.iterations for r in got] == [r.iterations for r in want]
        assert all(r.iterations >= 0 for r in got)
        for row, ref in zip(got, want):
            for field in ("relative_error", "t_or_alpha"):
                value, expected = getattr(row, field), getattr(ref, field)
                assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_factorization_stores_no_square_array(self):
        n = 800
        problem = second_derivative_problem(n, np.sin)
        fact = problem.factorization
        fact.eigenvalues  # noqa: B018 -- fill the cached spectrum too
        arrays = reachable_arrays(fact)
        assert len(arrays) >= 3  # diag, eigenvalues and the weights
        assert max(array.size for array in arrays) <= 10 * n


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

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, np.float64(2.0), "3", None, True])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(DomainError):
            NoiseSpec(0.01, seed)

    # exact outputs of the noise model before admission was added, as float.hex
    PINNED = [
        (np.arange(1.0, 6.0),
         ["0x1.b45cc4e736d7ep-1", "0x1.1f5b8c4fd805dp+1", "0x1.2bab71aa9512dp+1",
          "0x1.f544759663b83p+1", "0x1.4a87c0a348121p+2"], "0x1.7bb598c88b4adp-1"),
        ([1, 2, 3],
         ["0x1.10bd25527ae24p+0", "0x1.b01fcec5669cdp+0", "0x1.66ed312e76d56p+1"],
         "0x1.7f254dab9cc3bp-2"),
    ]

    @pytest.mark.parametrize("b, noisy_hex, delta_hex", PINNED, ids=["float-array", "int-list"])
    def test_valid_input_gives_pinned_bits(self, b, noisy_hex, delta_hex):
        noisy, delta = add_noise(b, NoiseSpec(0.1, 3))
        assert [float(v).hex() for v in noisy] == noisy_hex
        assert float(delta).hex() == delta_hex

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(DomainError, match="^b contains non-finite entries$"):
            add_noise([bad, 1.0], NoiseSpec(0.1, 0))

    def test_rejects_complex_data(self):
        # before admission the imaginary part was dropped with only a ComplexWarning
        with pytest.raises(DomainError, match="must be real"):
            add_noise(np.array([1.0 + 1.0j, 2.0]), NoiseSpec(0.1, 0))

    @pytest.mark.parametrize("shape", [(2, 3), (), (0,)], ids=["2-d", "0-d", "empty"])
    def test_rejects_data_that_is_not_a_nonempty_vector(self, shape):
        with pytest.raises(DimensionMismatch, match="^b has shape "):
            add_noise(np.ones(shape), NoiseSpec(0.1, 0))

    def test_input_is_not_modified(self):
        b = np.linspace(1.0, 2.0, 9)
        before = b.copy()
        noisy, _ = add_noise(b, NoiseSpec(0.1, 0))
        assert b.tobytes() == before.tobytes()
        assert not np.shares_memory(noisy, b)

    def test_numpy_integer_seed_gives_identical_noise(self):
        b = np.linspace(1.0, 2.0, 33)
        expected, _ = add_noise(b, NoiseSpec(0.01, 5))
        for seed in (np.int64(5), np.uint32(5), np.int8(5)):
            noisy, _ = add_noise(b, NoiseSpec(0.01, seed))
            assert noisy.tobytes() == expected.tobytes()
