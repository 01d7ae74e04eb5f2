"""Gradient-flow solver: filter, closed-form state, residual, Newton, stopping."""

import math

import numpy as np
import pytest

from conftest import random_matrix, random_problem
from dsmg import (
    AprioriRule,
    CirculantProblem,
    DimensionMismatch,
    DiscrepancyRule,
    DomainError,
    DsmgError,
    GrayImage,
    IterationBudgetExceeded,
    NoiseSpec,
    NoisyProblem,
    PreconditionViolated,
    SpectralFactorization,
    UnattainableDiscrepancy,
    add_noise,
    blur_periodic,
    deconvolve_2d,
    discrepancy,
    evolution_filter,
    factorize_svd,
    from_diagonal,
    gaussian_psf,
    second_derivative_problem,
    solution_at,
    solve,
    synthetic_target,
    tikhonov_solution,
    vr_solve,
)
from dsmg import baselines, problems, solver
from dsmg.cli import _bench_batch
from dsmg.solver import FLAG_DISCREPANCY_AT_START
from oracles import (
    UnstableStep, apply, landweber_integrate, minimal_norm_solution, newton_solve_t, residual_slope,
)


def scalar_problem(s=1.0, f=1.0, delta=0.01):
    return NoisyProblem(
        factorization=from_diagonal([s]), f_delta=np.array([f]), delta=delta
    )


def filter_series(lam: float, t: float, terms: int = 200) -> float:
    """Taylor oracle: (1 - exp(-t*lam)) / lam = t * sum_k (-t*lam)^k / (k+1)!."""
    x = t * lam
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= -x / (k + 2)
    return t * total


class TestEvolutionFilter:
    def test_zero_eigenvalue_limit(self):
        assert evolution_filter(0.0, 7.0) == 7.0

    def test_zero_time(self):
        assert evolution_filter(2.0, 0.0) == 0.0

    def test_tiny_product_matches_series(self):
        lam, t = 1e-9, 1.0
        expected = filter_series(lam, t)
        assert abs(evolution_filter(lam, t) - expected) <= 1e-15

    def test_vectorized(self):
        lam = np.array([0.0, 1.0, 10.0])
        out = evolution_filter(lam, 2.0)
        assert out.shape == (3,)
        assert out[0] == 2.0
        assert abs(out[1] - (1 - math.exp(-2.0))) < 1e-15
        with pytest.raises(DimensionMismatch, match="do not broadcast"):
            evolution_filter([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            evolution_filter(-1.0, 1.0)
        with pytest.raises(DomainError):
            evolution_filter(1.0, -1.0)

    @pytest.mark.parametrize("lam", [math.nan, np.array([1.0, math.nan]), np.array([-math.inf])])
    def test_rejects_nan_and_negative_infinite_eigenvalues(self, lam):
        with pytest.raises(DomainError):
            evolution_filter(lam, 1.0)

    def test_float_spectrum_is_read_without_a_copy(self, monkeypatch):
        # a deblur spectrum has 525,312 modes; admitting it must not copy it
        lam = np.linspace(0.0, 2.0, 7)
        admitted = []
        original = solver._real

        def recorded(value, name, **kwargs):
            admitted.append(original(value, name, **kwargs))
            return admitted[-1]

        monkeypatch.setattr(solver, "_real", recorded)
        evolution_filter(lam, 1.0)
        assert admitted[0] is lam


class TestSolutionAt:
    def test_zero_time_zero_start(self):
        problem = random_problem(0, m=4, n=4)
        assert np.array_equal(solution_at(problem, 0.0), np.zeros(4))

    def test_zero_time_returns_start(self):
        base = random_problem(1, m=4, n=4)
        rng = np.random.default_rng(5)
        start = rng.normal(size=4)
        problem = NoisyProblem(base.factorization, base.f_delta, base.delta, u0=start)
        assert np.array_equal(solution_at(problem, 0.0), start)

    def test_scalar_closed_form(self):
        problem = scalar_problem()
        for t in (0.1, 1.0, 4.0):
            assert abs(solution_at(problem, t)[0] - (1 - math.exp(-t))) < 1e-14

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_bad_time(self, t):
        with pytest.raises(DomainError):
            solution_at(scalar_problem(), t)

    def test_matches_euler_integration(self):
        problem = random_problem(2, m=6, n=6, sing_lo=0.5, sing_hi=1.0)
        lam_max = problem.factorization.eigenvalues.max()
        step = 1e-5 / lam_max
        t = 0.37
        n_steps = int(round(t / step))
        euler = landweber_integrate(problem, step, n_steps)
        closed = solution_at(problem, n_steps * step)
        assert np.linalg.norm(euler - closed) <= 1e-3 * np.linalg.norm(closed)

    def test_nonzero_start_decays_toward_data(self):
        base = random_problem(3, m=5, n=5, sing_lo=0.5, sing_hi=1.5)
        rng = np.random.default_rng(6)
        start = rng.normal(size=5)
        problem = NoisyProblem(base.factorization, base.f_delta, base.delta, u0=start)
        # at large t the start point is forgotten: both runs converge together
        other = NoisyProblem(base.factorization, base.f_delta, base.delta)
        t = 200.0
        gap = np.linalg.norm(solution_at(problem, t) - solution_at(other, t))
        assert gap <= 1e-8 * np.linalg.norm(solution_at(other, t))


class TestDiscrepancy:
    def test_at_zero_equals_data_norm(self):
        problem = random_problem(4, m=5, n=5)
        assert abs(discrepancy(problem, 0.0) - np.linalg.norm(problem.f_delta)) < 1e-12

    def test_scalar_decay(self):
        problem = scalar_problem()
        assert abs(discrepancy(problem, math.log(10.0)) - 0.1) < 1e-14

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_rejects_bad_time(self, t):
        with pytest.raises(DomainError, match="must be nonnegative and finite"):
            discrepancy(scalar_problem(), t)

    def test_matches_recomputed_residual(self):
        problem = random_problem(5, m=5, n=3)
        for t in (0.0, 0.2, 1.0, 5.0):
            state = solution_at(problem, t)
            direct = np.linalg.norm(apply(problem.factorization, state) - problem.f_delta)
            assert abs(discrepancy(problem, t) - direct) <= 1e-10 * max(direct, 1e-30)

    def test_initial_residual_cache_consistent(self):
        base = random_problem(6, m=5, n=4)
        rng = np.random.default_rng(7)
        start = rng.normal(size=4)
        problem = NoisyProblem(base.factorization, base.f_delta, base.delta, u0=start)
        recomputed = problem.factorization.u_basis.conj().T @ (
            problem.f_delta - apply(problem.factorization, start)
        )
        assert np.linalg.norm(problem.initial_residual_coefficients - recomputed) <= 1e-12

    def test_coefficient_caches_frozen_without_copies(self):
        # identity basis: U* f_delta is the frozen f_delta itself
        diagonal = NoisyProblem(from_diagonal([2.0, 1.0 + 1.0j, 0.5]), np.array([1.0, -2.0, 3.0]), 0.1)
        assert diagonal.rhs_coefficients is diagonal.f_delta
        dense = random_problem(8, m=6, n=4)
        start = np.random.default_rng(8).normal(size=4)
        started = NoisyProblem(dense.factorization, dense.f_delta, dense.delta, u0=start)
        u_basis, v_basis = dense.factorization.u_basis, dense.factorization.v_basis
        for problem, rhs, residual in (
            (diagonal, diagonal.f_delta, diagonal.f_delta),
            (dense, u_basis.T @ dense.f_delta, u_basis.T @ dense.f_delta),
            (started, u_basis.T @ dense.f_delta,
             u_basis.T @ dense.f_delta - dense.factorization.diag * (v_basis.T @ start)),
        ):
            for cached, expected in (
                (problem.rhs_coefficients, rhs),
                (problem.initial_residual_coefficients, residual),
            ):
                assert not cached.flags.writeable
                assert cached.tobytes() == expected.tobytes()

    def test_zero_start_residual_is_the_rhs_cache(self):
        # r0 = U* (f_delta - A u0) is U* f_delta at a zero start: no second array
        diagonal = NoisyProblem(from_diagonal([2.0, 1.0 + 1.0j, 0.5]), np.array([1.0, -2.0, 3.0]), 0.1)
        dense = random_problem(8, m=6, n=4)
        for problem in (diagonal, dense):
            assert problem.initial_residual_coefficients is problem.rhs_coefficients
        assert diagonal.initial_residual_coefficients is diagonal.f_delta

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_explicit_zero_start_solves_as_default(self, dtype):
        default = random_problem(9, m=6, n=4)
        zero = NoisyProblem(
            default.factorization, default.f_delta, default.delta, u0=np.zeros(4, dtype=dtype)
        )
        assert zero.initial_residual_coefficients is zero.rhs_coefficients
        for run in (
            lambda p: solve(p, DiscrepancyRule(1.1)).solution,
            lambda p: solve(p, AprioriRule()).solution,
            lambda p: vr_solve(p, DiscrepancyRule(1.1)).solution,
        ):
            ours, expected = run(zero), run(default)
            assert ours.dtype == expected.dtype
            assert ours.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(7, 3), (3, 7)])
def test_thin_shapes_match_dense_gram_oracle(shape):
    # u(t) = W [exp(-t L) W* u0 + filter(L, t) W* A* f] over the full
    # eigendecomposition A*A = W L W*: the part of u0 outside span(V) and the
    # data outside range(U) enter through the null modes of L
    m, n = shape
    rng = np.random.default_rng(11)
    matrix = random_matrix(31, m, n, 0.2, 1.5)
    f = rng.normal(size=m)
    start = rng.normal(size=n)
    problem = NoisyProblem(factorize_svd(matrix), f, delta=0.01, u0=start)
    lam, w = np.linalg.eigh(matrix.T @ matrix)
    lam = np.maximum(lam, 0.0)
    for t in (0.3, 2.0, 40.0):
        oracle = w @ (np.exp(-t * lam) * (w.T @ start) + evolution_filter(lam, t) * (w.T @ (matrix.T @ f)))
        state = solution_at(problem, t)
        assert np.linalg.norm(state - oracle) <= 1e-12 * np.linalg.norm(oracle)
        # the wide residual decays to rounding level, so compare on the scale of f
        direct = np.linalg.norm(matrix @ oracle - f)
        assert abs(discrepancy(problem, t) - direct) <= 1e-12 * np.linalg.norm(f)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetric_factorization_matches_svd_oracle(seed):
    # the Green's kernel of u'' is exactly symmetric, so factorize_svd takes
    # the eigh path; a factorization built from np.linalg.svd is the oracle
    base = second_derivative_problem(200, lambda x: math.sin(2.0 * math.pi * x))
    assert np.array_equal(base.matrix, base.matrix.T)
    u, s, vh = np.linalg.svd(base.matrix)
    oracle = SpectralFactorization(u_basis=u, v_basis=vh.T, diag=s)
    rhs, delta = add_noise(base.exact_rhs, NoiseSpec(0.01, seed))
    fast = NoisyProblem(factorize_svd(base.matrix), rhs, delta)
    slow = NoisyProblem(oracle, rhs, delta)
    ours, ref = solve(fast, DiscrepancyRule(C=1.1)), solve(slow, DiscrepancyRule(C=1.1))
    assert abs(ours.t_delta - ref.t_delta) <= 1e-10 * ref.t_delta
    assert ours.newton_iterations == ref.newton_iterations
    ours, ref = vr_solve(fast, DiscrepancyRule(1.1)), vr_solve(slow, DiscrepancyRule(1.1))
    alpha, ref_alpha = 1.0 / ours.t_delta, 1.0 / ref.t_delta
    assert abs(alpha - ref_alpha) <= 1e-10 * ref_alpha
    assert ours.newton_iterations == ref.newton_iterations


class TestDiscrepancyDerivative:
    def test_scalar(self):
        problem = scalar_problem()
        for t in (0.0, 0.5, 2.0):
            assert abs(residual_slope(problem, t) + math.exp(-t)) < 1e-14

    def test_zero_when_data_in_null_space(self):
        # A = diag(1, 0), f along the dead direction: the flow never moves
        fact = from_diagonal([1.0, 0.0])
        problem = NoisyProblem(fact, np.array([0.0, 1.0]), delta=0.01)
        assert residual_slope(problem, 1.0) == 0.0
        assert discrepancy(problem, 0.0) == discrepancy(problem, 10.0) == 1.0
        with pytest.raises(UnattainableDiscrepancy):
            newton_solve_t(problem, 1.5)

    def test_finite_difference_agreement(self):
        problem = random_problem(8, m=6, n=6, sing_lo=0.3, sing_hi=1.2)
        for t in (0.05, 0.7, 2.0):
            step = 1e-6 * max(1.0, t)
            fd = (discrepancy(problem, t + step) - discrepancy(problem, max(t - step, 0.0))) / (
                2 * step if t >= step else step
            )
            exact = residual_slope(problem, t)
            assert abs(fd - exact) <= 1e-4 * abs(exact)

    def test_degenerate_zero_residual(self):
        # the start point fits the data exactly: psi and psi' are both 0
        fact = from_diagonal([1.0])
        problem = NoisyProblem(fact, np.array([1.0]), delta=0.5, u0=np.array([1.0]))
        psi, dpsi = solver._residual_pass(problem, np.zeros(1))
        assert psi.tolist() == dpsi.tolist() == [0.0]


class TestNewton:
    def test_scalar_analytic_root(self):
        problem = scalar_problem(delta=0.01)
        result = newton_solve_t(problem, 1.5)
        expected = math.log(1.0 / 0.015)
        assert abs(result.t_delta - expected) <= 1e-8 * expected
        assert result.iterations <= 30

    @pytest.mark.parametrize("C", [1.05, 1.3, 1.5, 1.9])
    def test_residual_hits_target(self, C):
        problem = scalar_problem(delta=0.01)
        result = newton_solve_t(problem, C)
        target = C * problem.delta
        assert abs(discrepancy(problem, result.t_delta) - target) <= 1e-8 * target

    def test_two_mode_root_matches_bisection_oracle(self):
        problem = NoisyProblem(
            factorization=from_diagonal([1.0, 0.1]),
            f_delta=np.array([1.0, 1.0]),
            delta=0.05,
        )
        C = 1.1
        target = C * problem.delta

        def gap(t):
            return math.sqrt(math.exp(-2.0 * t) + math.exp(-0.02 * t)) - target

        lo, hi = 0.0, 1.0
        while gap(hi) > 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-10:
                break
        oracle_root = 0.5 * (lo + hi)
        result = newton_solve_t(problem, C)
        assert abs(result.t_delta - oracle_root) <= 1e-5

    def test_precondition_violated(self):
        # the start point already fits the data: psi(0) = 0.005 < C*delta, so
        # solve returns u0 at t = 0, flagged, without a Newton step
        problem = NoisyProblem(
            from_diagonal([1.0]), np.array([1.0]), delta=0.01, u0=np.array([0.995])
        )
        report = solve(problem, DiscrepancyRule(C=1.5))
        assert report.t_delta == 0.0
        assert np.array_equal(report.solution, problem.u0)
        assert report.newton_iterations == 0
        assert report.diagnostics == (FLAG_DISCREPANCY_AT_START,)

    def test_iterates_nondecreasing(self):
        for seed in range(10):
            problem = random_problem(seed + 200, m=6, n=6, sing_lo=0.05, sing_hi=2.0)
            result = newton_solve_t(problem, 1.2)
            trace = np.array(result.iterates)
            assert np.all(np.diff(trace) >= 0)


class TestNewtonFromZero:
    def test_single_mode_exact_in_one_step(self):
        # log psi is affine on one mode, so the first Newton step is the root
        problem = scalar_problem(delta=0.01)
        result = newton_solve_t(problem, 1.5)
        assert result.iterations == 1
        assert result.iterates[0] == 0.0

    def test_tiny_noise_bound_solves(self):
        # an astronomically small noise bound puts the root far from t = 0
        problem = scalar_problem(delta=1e-220)
        result = newton_solve_t(problem, 1.5)
        target = 1.5 * problem.delta
        expected = math.log(1.0 / target)
        assert abs(result.t_delta - expected) <= 1e-8 * expected
        assert result.iterations <= 30
        assert abs(result.residual_norm - target) <= 1e-8 * target

    def test_precondition_violated_when_no_root(self):
        # ||f|| = 0.001 < C*delta: solve stops at the zero start, flagged,
        # and Tikhonov, from the same zero start, has no alpha to pick
        problem = scalar_problem(f=0.001, delta=0.01)
        report = solve(problem, DiscrepancyRule(C=1.5))
        assert report.t_delta == 0.0
        assert np.array_equal(report.solution, np.zeros(1))
        assert report.newton_iterations == 0
        assert report.diagnostics == (FLAG_DISCREPANCY_AT_START,)
        with pytest.raises(PreconditionViolated):
            vr_solve(problem, DiscrepancyRule(1.5))

    @staticmethod
    def _count_passes(monkeypatch):
        calls = []
        original = solver._residual_pass

        def counted(p, t):
            calls.append(t)
            return original(p, t)

        monkeypatch.setattr(solver, "_residual_pass", counted)
        return calls

    def test_one_pass_per_iteration(self, monkeypatch):
        problem = random_problem(300, m=8, n=8, sing_lo=0.01, sing_hi=3.0)
        calls = self._count_passes(monkeypatch)
        report = solve(problem, DiscrepancyRule(C=1.1))
        assert report.newton_iterations > 0
        assert len(calls) == report.newton_iterations + 1

    def test_flagged_start_makes_one_pass(self, monkeypatch):
        problem = scalar_problem(f=0.001, delta=0.01)
        calls = self._count_passes(monkeypatch)
        report = solve(problem, DiscrepancyRule(C=1.5))
        assert report.diagnostics == (FLAG_DISCREPANCY_AT_START,)
        assert calls == [0.0]

    @staticmethod
    def _start_within_tolerance():
        # psi(0) = ||f|| = 1 exceeds C*delta by 5e-9 relative, inside the
        # 1e-8 stop tolerance, so t = 0 is accepted as the root
        problem = scalar_problem(f=1.0, delta=(1.0 - 5e-9) / 1.5)
        target = 1.5 * problem.delta
        assert target < 1.0 <= target * (1.0 + 1e-8)
        return problem

    def test_start_within_tolerance_returns_zero_unflagged(self):
        problem = self._start_within_tolerance()
        report = solve(problem, DiscrepancyRule(C=1.5))
        assert report.t_delta == 0.0
        assert np.array_equal(report.solution, np.zeros(1))
        assert report.newton_iterations == 0
        assert report.residual_norm == 1.0
        assert report.diagnostics == ()

    def test_vr_start_within_tolerance_raises(self):
        with pytest.raises(PreconditionViolated):
            vr_solve(self._start_within_tolerance(), DiscrepancyRule(1.5))

    def test_overshoot_is_bisected_back(self, monkeypatch):
        # halving the reported slope doubles every Newton step, so steps land
        # past the root; the safeguard must still calibrate with a rising trace
        problem = random_problem(301, m=8, n=8, sing_lo=0.01, sing_hi=3.0)
        original = solver._residual_pass

        def understated(p, t):
            psi, dpsi = original(p, t)
            return psi, 0.5 * dpsi

        monkeypatch.setattr(solver, "_residual_pass", understated)
        result = newton_solve_t(problem, 1.1)
        target = 1.1 * problem.delta
        assert abs(discrepancy(problem, result.t_delta) - target) <= 1e-8 * target
        assert np.all(np.diff(result.iterates) >= 0)

    def test_non_finite_residual_raises_typed(self, monkeypatch):
        problem = random_problem(302, m=4, n=4)
        original = solver._residual_pass

        def overflowing(p, t):
            psi, dpsi = original(p, t)
            return (np.full_like(psi, math.nan), dpsi) if t > 0 else (psi, dpsi)

        monkeypatch.setattr(solver, "_residual_pass", overflowing)
        with pytest.raises(DomainError):
            newton_solve_t(problem, 1.1)

    def test_reported_residual_is_psi_at_root(self):
        for seed in range(10):
            problem = random_problem(seed + 300, m=5, n=5, sing_lo=0.01, sing_hi=3.0)
            result = newton_solve_t(problem, 1.1)
            assert result.residual_norm == discrepancy(problem, result.t_delta)
            assert math.isfinite(result.t_delta) and result.t_delta > 0


class TestPassCount:
    """One spectral pass per Newton step plus the pass at t = 0, counted at the source.

    Every residual of the flow goes through ``solver._residual_pass`` and every
    Tikhonov residual through ``baselines._vr_residual``, so wrappers there see
    each pass however a front end reaches the solvers.
    """

    @pytest.fixture
    def passes(self, monkeypatch):
        counts = {"dsmg": 0, "vr": 0}
        for module, name, method in ((solver, "_residual_pass", "dsmg"),
                                     (baselines, "_vr_residual", "vr")):
            original = getattr(module, name)

            def counted(problem, t, original=original, method=method):
                counts[method] += 1
                return original(problem, t)

            monkeypatch.setattr(module, name, counted)
        return counts

    @staticmethod
    def _readme_deblur(delta_rel, rule):
        truth = synthetic_target(64, 64)
        psf = gaussian_psf(64, 64, sigma=2.0)
        noisy, _ = add_noise(blur_periodic(truth, psf).pixels.ravel(), NoiseSpec(0.01, seed=0))
        return deconvolve_2d(GrayImage(noisy.reshape(64, 64)), psf, delta_rel, rule)[1]

    def test_readme_deblur(self, passes):
        report = self._readme_deblur(0.01, DiscrepancyRule(C=1.3))
        assert report.newton_iterations > 0
        assert passes == {"dsmg": report.newton_iterations + 1, "vr": 0}

    def test_readme_deblur_apriori_and_satisfied_start(self, passes):
        self._readme_deblur(0.01, AprioriRule())
        assert passes["dsmg"] == 1
        # delta_rel 0.95 puts C * delta above the residual of the zero start
        report = self._readme_deblur(0.95, DiscrepancyRule(C=1.1))
        assert report.diagnostics == (FLAG_DISCREPANCY_AT_START,)
        assert passes["dsmg"] == 2

    def test_sweep_batch_at_100(self, passes):
        # one batch of three noise draws: its rows step together, so each
        # method makes one pass more than its slowest row's iterations
        problem = second_derivative_problem(100, lambda t: math.sin(2.0 * math.pi * t))
        rows = _bench_batch(problem, problem.factorization, 0.01, [0, 1, 2], DiscrepancyRule(1.1))
        iterations = {"dsmg": [], "vr": []}
        for row in rows:
            iterations[row.method].append(row.iterations)
        assert min(min(counts) for counts in iterations.values()) > 0
        assert passes == {method: max(counts) + 1 for method, counts in iterations.items()}
        rhs, delta = add_noise(problem.exact_rhs, NoiseSpec(0.01, 0))
        solve(NoisyProblem(problem.factorization, rhs, delta), AprioriRule())
        assert passes["dsmg"] == max(iterations["dsmg"]) + 2


def _noise_draws(problem, seeds, delta_rel=0.01):
    """The stacked noisy right-hand sides of ``seeds`` and their noise bounds."""
    draws = [add_noise(problem.exact_rhs, NoiseSpec(delta_rel, seed)) for seed in seeds]
    return np.array([rhs for rhs, _ in draws]), np.array([delta for _, delta in draws])


def _outcome_key(outcome):
    """What a row's outcome reports: its error, or its whole SolveReport with the state's bytes."""
    if isinstance(outcome, DsmgError):
        return type(outcome), str(outcome)
    return (outcome.t_delta, outcome.newton_iterations, outcome.residual_norm,
            outcome.solution.tobytes(), outcome.rule_used, outcome.diagnostics)


def _single_outcome(run, problem, rule):
    try:
        return run(problem, rule)
    except DsmgError as exc:
        return exc


METHODS = pytest.mark.parametrize("run", [solve, vr_solve], ids=["flow", "tikhonov"])


class TestBatch:
    """A k x m stack of right-hand sides: each row solves as its own single solve does."""

    @staticmethod
    def _sine_batch(seeds=range(5), n=57):
        problem = second_derivative_problem(n, np.sin)
        return (problem.factorization, *_noise_draws(problem, seeds))

    @METHODS
    @pytest.mark.parametrize("start", ["zero", "nonzero"])
    def test_sine_rows_match_single_solves_bit_for_bit(self, run, start):
        fact, rhs, delta = self._sine_batch()
        u0 = None if start == "zero" else 0.1 * np.cos(np.arange(57))
        rule = DiscrepancyRule(1.1)
        batch = run(NoisyProblem(fact, rhs, delta, u0=u0), rule)
        assert isinstance(batch, tuple) and len(batch) == 5
        for row, outcome in enumerate(batch):
            single = run(NoisyProblem(fact, rhs[row], delta[row], u0=u0), rule)
            assert _outcome_key(outcome) == _outcome_key(single)

    @METHODS
    def test_diagonal_complex_rows_match_single_solves_bit_for_bit(self, run):
        fact = from_diagonal([2.0, 1.0 + 1.0j, 0.5, 0.1])
        rhs = np.random.default_rng(4).normal(size=(3, 4))
        batch = run(NoisyProblem(fact, rhs, np.full(3, 0.1)), DiscrepancyRule(1.2))
        for row, outcome in enumerate(batch):
            single = run(NoisyProblem(fact, rhs[row], 0.1), DiscrepancyRule(1.2))
            assert _outcome_key(outcome) == _outcome_key(single)

    @METHODS
    @pytest.mark.parametrize("shape", [(12, 12), (12, 7)], ids=["eigh", "tall-svd"])
    def test_dense_rows_match_single_solves(self, run, shape):
        # a dense basis multiplies a block by one gemm and a vector by gemv,
        # which round differently: the rows agree to 1e-12, not bit for bit
        matrix = random_matrix(31, *shape, 0.05, 2.0)
        if shape[0] == shape[1]:
            matrix = matrix + matrix.T
        rng = np.random.default_rng(5)
        rhs = (matrix @ rng.normal(size=(shape[1], 4))).T + 0.05 * rng.normal(size=(4, shape[0]))
        delta = 0.05 * np.linalg.norm(rng.normal(size=(4, shape[0])), axis=1)
        fact = factorize_svd(matrix)
        batch = run(NoisyProblem(fact, rhs, delta), DiscrepancyRule(1.1))
        for row, outcome in enumerate(batch):
            single = run(NoisyProblem(fact, rhs[row], delta[row]), DiscrepancyRule(1.1))
            assert outcome.newton_iterations == single.newton_iterations
            for got, want in ((outcome.t_delta, single.t_delta),
                              (outcome.residual_norm, single.residual_norm)):
                assert abs(got - want) <= 1e-12 * abs(want)
            gap = np.linalg.norm(outcome.solution - single.solution)
            assert gap <= 1e-12 * np.linalg.norm(single.solution)

    def test_failing_rows_are_recorded_and_others_unchanged(self):
        # row 1: ||f|| <= C*delta, so the flow stops flagged at t = 0 and
        # Tikhonov has no alpha; row 3: data on a zero eigenvalue above the
        # target, so neither can reach it
        fact = from_diagonal([1.0, 0.5, 0.0])
        rhs = np.array([[1.0, 1.0, 0.001], [1.0, 1.0, 0.0], [0.3, 2.0, 0.0], [0.1, 0.1, 1.0]])
        delta = np.array([0.01, 2.0, 0.02, 0.01])
        rule = DiscrepancyRule(1.1)
        flow = solve(NoisyProblem(fact, rhs, delta), rule)
        tikhonov = vr_solve(NoisyProblem(fact, rhs, delta), rule)
        assert flow[1].diagnostics == (FLAG_DISCREPANCY_AT_START,) and flow[1].t_delta == 0.0
        assert isinstance(tikhonov[1], PreconditionViolated)
        assert isinstance(flow[3], UnattainableDiscrepancy)
        assert isinstance(tikhonov[3], UnattainableDiscrepancy)
        kept = [0, 2]
        flow_kept = solve(NoisyProblem(fact, rhs[kept], delta[kept]), rule)
        tikhonov_kept = vr_solve(NoisyProblem(fact, rhs[kept], delta[kept]), rule)
        for row, alone in zip(kept, range(2)):
            for batch, kept_batch in ((flow, flow_kept), (tikhonov, tikhonov_kept)):
                assert _outcome_key(batch[row]) == _outcome_key(kept_batch[alone])
        for row in range(4):
            for run, batch in ((solve, flow), (vr_solve, tikhonov)):
                single = _single_outcome(run, NoisyProblem(fact, rhs[row], delta[row]), rule)
                assert _outcome_key(batch[row]) == _outcome_key(single)

    def test_failing_search_row_does_not_stop_the_others(self, monkeypatch):
        # a pass that reports NaN for row 2 after the start fails that row
        # alone, with the single solve's DomainError
        fact, rhs, delta = self._sine_batch(range(4))
        original = solver._residual_pass

        def poisoned(p, t):
            psi, dpsi = original(p, t)
            psi = psi.copy()
            psi[2] = math.nan if t[2] > 0 else psi[2]
            return psi, dpsi

        clean = solve(NoisyProblem(fact, rhs, delta), DiscrepancyRule(1.1))
        monkeypatch.setattr(solver, "_residual_pass", poisoned)
        batch = solve(NoisyProblem(fact, rhs, delta), DiscrepancyRule(1.1))
        assert isinstance(batch[2], DomainError)
        assert "overflows double precision" in str(batch[2])
        for row in (0, 1, 3):
            assert _outcome_key(batch[row]) == _outcome_key(clean[row])

    @METHODS
    def test_duplicate_rows_give_identical_outcomes(self, run):
        fact, rhs, delta = self._sine_batch([0, 1, 0])
        batch = run(NoisyProblem(fact, rhs, delta), DiscrepancyRule(1.1))
        assert _outcome_key(batch[0]) == _outcome_key(batch[2])

    @METHODS
    def test_empty_batch_solves_to_no_outcomes(self, run):
        fact = second_derivative_problem(10, np.sin).factorization
        assert run(NoisyProblem(fact, np.zeros((0, 10)), np.zeros(0)), DiscrepancyRule(1.1)) == ()

    @pytest.mark.parametrize("delta", [0.1, np.full(2, 0.1), np.full((3, 1), 0.1)],
                             ids=["scalar", "too-few", "column"])
    def test_one_delta_per_row_required(self, delta):
        with pytest.raises(DimensionMismatch, match=r"^delta has shape .*, expected \(3,\)$"):
            NoisyProblem(from_diagonal([1.0, 0.5]), np.ones((3, 2)), delta)

    @pytest.mark.parametrize("function", [discrepancy, solution_at, tikhonov_solution])
    @pytest.mark.parametrize("rows, value", [(2, np.ones(3)), (2, np.ones((2, 1))), (None, np.ones(2))],
                             ids=["too-many", "column", "many-on-one"])
    def test_per_row_value_of_wrong_shape_rejected(self, function, rows, value):
        # t or alpha is one value, or one per row: any other shape is typed
        fact = from_diagonal([1.0, 0.5])
        rhs, delta = (np.ones(2), 0.1) if rows is None else (np.ones((rows, 2)), np.full(rows, 0.1))
        with pytest.raises(DimensionMismatch, match=r"^(t|alpha) has shape \(.*\), not \(\) or \(\d,\)$"):
            function(NoisyProblem(fact, rhs, delta), value)

    def test_overflowing_apriori_row_does_not_stop_the_others(self):
        # C / delta**gamma overflows at delta = 1e-320: that row alone fails,
        # naming its delta, and the other row is its own single solve
        fact, rhs, _ = self._sine_batch(range(2))
        rule = AprioriRule(1.0, 0.99)
        batch = solve(NoisyProblem(fact, rhs, np.array([0.1, 1e-320])), rule)
        assert isinstance(batch[1], DomainError)
        assert "delta=1e-320 overflows" in str(batch[1])
        assert _outcome_key(batch[0]) == _outcome_key(solve(NoisyProblem(fact, rhs[0], 0.1), rule))
        with pytest.raises(DomainError, match="delta=1e-320 overflows"):
            solve(NoisyProblem(fact, rhs[1], 1e-320), rule)

    def test_nonpositive_delta_in_any_row_rejected(self):
        with pytest.raises(DomainError, match="must be positive and finite"):
            NoisyProblem(from_diagonal([1.0, 0.5]), np.ones((3, 2)), np.array([0.1, 0.0, 0.1]))

    def test_one_pass_per_lockstep_step(self, monkeypatch):
        # rows that need different iteration counts share every pass: the
        # search makes one pass more than its slowest row's iterations
        fact = from_diagonal([1.0])
        rhs = np.array([[1.0], [1.0]])
        calls = []
        original = solver._residual_pass

        def counted(p, t):
            calls.append(t)
            return original(p, t)

        monkeypatch.setattr(solver, "_residual_pass", counted)
        single_mode = solve(NoisyProblem(fact, rhs, np.array([0.01, 0.96])), DiscrepancyRule(1.05))
        assert [report.newton_iterations for report in single_mode] == [1, 0]
        assert len(calls) == 2
        calls.clear()
        problem = random_problem(300, m=8, n=8, sing_lo=0.01, sing_hi=3.0)
        stack = np.array([problem.f_delta, 3.0 * problem.f_delta])
        reports = solve(NoisyProblem(problem.factorization, stack, np.array([problem.delta] * 2)),
                        DiscrepancyRule(1.1))
        counts = [report.newton_iterations for report in reports]
        assert counts[0] != counts[1]
        assert len(calls) == max(counts) + 1

    @pytest.mark.parametrize("slope", [1.0, 0.5], ids=["plain", "understated-slope"])
    def test_stack_row_searches_as_its_single_right_hand_side(self, slope):
        # row 0 is ordinary, row 1's start already meets C*delta, and row 2
        # carries data above its target on the zero eigenvalue; a halved
        # slope, as in test_overshoot_is_bisected_back, doubles each Newton
        # step, so row 0 steps past its root and is bisected back
        fact = from_diagonal([2.0, 1.0, 0.5, 0.1, 0.03, 0.0])
        rhs = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 0.001], np.full(6, 0.01), np.ones(6)])
        delta = np.array([0.05, 0.1, 0.05])
        target = 1.1 * delta

        def residual_pass(p, t):
            psi, dpsi = solver._residual_pass(p, t)
            return psi, slope * dpsi

        batch = solver._newton_on_log_psi(NoisyProblem(fact, rhs, delta), residual_pass, target)
        assert [type(failure) for failure in batch.failures] == [
            type(None), type(None), UnattainableDiscrepancy]
        assert batch.iterations[1] == 0 and batch.iterates[1] == (0.0,)
        # an overshoot is a pass below the target, which the trace leaves out
        overshot = len(batch.iterates[0]) < batch.iterations[0] + 1
        assert overshot == (slope != 1.0)
        for row in range(3):
            single = solver._newton_on_log_psi(NoisyProblem(fact, rhs[row], delta[row]),
                                               residual_pass, target[row:row + 1])
            assert batch.t_delta[row] == single.t_delta[0]
            assert batch.iterations[row] == single.iterations[0]
            assert batch.iterates[row] == single.iterates[0]
            assert batch.residual_norm[row] == single.residual_norm[0]
            assert type(batch.failures[row]) is type(single.failures[0])

    def test_per_row_values_and_states_are_stacked(self):
        fact, rhs, delta = self._sine_batch(range(3))
        problem = NoisyProblem(fact, rhs, delta)
        assert problem.rhs_coefficients.shape == (3, 57)
        assert problem.rhs_coefficients.flags.c_contiguous
        assert problem.residual_floor.shape == (3,)
        psi = discrepancy(problem, np.array([0.0, 1.0, 2.0]))
        for row in range(3):
            single = NoisyProblem(fact, rhs[row], delta[row])
            assert psi[row] == discrepancy(single, float(row))
            assert solution_at(problem, 5.0)[row].tobytes() == solution_at(single, 5.0).tobytes()


class TestSolve:
    def test_apriori_exact_data_errors_shrink(self):
        # spectrum reaching down to lam ~ 1e-2 keeps all three stopping times
        # short of full convergence, so the decrease is visible at each level
        matrix = random_matrix(44, 5, 5, 0.1, 1.5)
        fact = factorize_svd(matrix)
        rng = np.random.default_rng(9)
        y = rng.normal(size=5)
        f = matrix @ y
        errors = []
        for k in (2, 4, 6):
            problem = NoisyProblem(fact, f, delta=10.0 ** (-k))
            report = solve(problem, AprioriRule(C=1.0, gamma=0.5))
            errors.append(np.linalg.norm(report.solution - y))
        assert errors[0] > errors[1] > errors[2]

    def test_apriori_time_formula(self):
        problem = scalar_problem(delta=0.01)
        report = solve(problem, AprioriRule(C=1.0, gamma=0.5))
        assert abs(report.t_delta - 10.0) < 1e-12
        assert report.newton_iterations == 0
        # exactly C / delta**gamma and its residual, with no flag even where
        # the start already meets C * delta
        for problem in (random_problem(45, m=6, n=4), scalar_problem(f=0.001, delta=0.01)):
            rule = AprioriRule(C=0.7, gamma=0.3)
            report = solve(problem, rule)
            assert report.t_delta == 0.7 / problem.delta ** 0.3
            assert report.residual_norm == discrepancy(problem, report.t_delta)
            assert report.newton_iterations == 0
            assert report.diagnostics == ()
            assert report.rule_used == rule

    def test_degenerate_start_flagged(self):
        problem = scalar_problem(f=0.001, delta=0.01)
        report = solve(problem, DiscrepancyRule(C=1.5))
        assert report.t_delta == 0.0
        assert np.array_equal(report.solution, np.zeros(1))
        assert FLAG_DISCREPANCY_AT_START in report.diagnostics

    def test_scalar_residual_equals_target(self):
        problem = scalar_problem(delta=0.01)
        report = solve(problem, DiscrepancyRule(C=1.5))
        target = 1.5 * 0.01
        assert abs(report.residual_norm - target) <= 1e-8 * target

    def test_complex_operator_calibrates(self):
        rng = np.random.default_rng(21)
        matrix = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        exact = matrix @ x
        noise = rng.normal(size=5) + 1j * rng.normal(size=5)
        delta = 0.05 * np.linalg.norm(exact)
        noise *= delta / np.linalg.norm(noise)
        problem = NoisyProblem(factorize_svd(matrix), exact + noise, delta)
        report = solve(problem, DiscrepancyRule(C=1.2))
        target = 1.2 * delta
        assert abs(report.residual_norm - target) <= 1e-8 * target
        direct = np.linalg.norm(apply(problem.factorization, report.solution) - problem.f_delta)
        assert abs(direct - report.residual_norm) <= 1e-10 * direct

    @pytest.mark.parametrize(
        "scale", [1e-200, 1e-150, 1e-120, 1e-100, 1.0, 1e100, 1e120, 1e150, 1e200]
    )
    def test_extreme_scale_calibrates_or_raises_typed(self, scale):
        # scaling (A, f, delta) together must never leak an untyped error or
        # a non-finite result, from either method; scale equivariance itself
        # is not asserted here
        base = second_derivative_problem(50, lambda x: math.sin(2.0 * math.pi * x))
        rhs, delta = add_noise(base.exact_rhs, NoiseSpec(0.01, 0))
        try:
            problem = NoisyProblem(factorize_svd(scale * base.matrix), scale * rhs, scale * delta)
        except DsmgError:
            return
        target = 1.1 * problem.delta
        # the flow's t, and Tikhonov's alpha = 1 / beta
        methods = (
            (lambda: solve(problem, DiscrepancyRule(C=1.1)), lambda t: t),
            (lambda: vr_solve(problem, DiscrepancyRule(1.1)), lambda beta: 1.0 / beta),
        )
        for method, parameter in methods:
            try:
                report = method()
            except DsmgError:
                continue
            assert math.isfinite(parameter(report.t_delta))
            assert math.isfinite(report.residual_norm)
            assert abs(report.residual_norm - target) <= 1e-8 * target

    def test_report_residual_recomputable(self):
        for seed in range(5):
            problem = random_problem(seed + 400, m=6, n=5, sing_lo=0.2, sing_hi=1.5)
            report = solve(problem, DiscrepancyRule(C=1.3))
            direct = np.linalg.norm(
                apply(problem.factorization, report.solution) - problem.f_delta
            )
            assert abs(report.residual_norm - direct) <= 1e-10 * direct

    def test_exact_data_flow_approaches_minimal_norm_solution(self):
        matrix = random_matrix(55, 5, 5, 0.4, 1.6)
        fact = factorize_svd(matrix)
        rng = np.random.default_rng(10)
        y = rng.normal(size=5)
        problem = NoisyProblem(fact, matrix @ y, delta=1e-12)
        pinv = minimal_norm_solution(fact, problem.f_delta)
        state = solution_at(problem, 500.0)
        assert np.linalg.norm(state - pinv) <= 1e-8 * np.linalg.norm(pinv)

    def test_unknown_rule_rejected(self):
        with pytest.raises(DomainError, match="^unknown stopping rule <object object"):
            solve(scalar_problem(), object())

    def test_newton_budget_exhausted_is_typed(self, monkeypatch):
        # two modes: the first Newton step is not exact, so a budget of one fails
        problem = NoisyProblem(from_diagonal([1.0, 0.1]), np.array([1.0, 1.0]), 0.05)
        assert solve(problem, DiscrepancyRule(1.1)).newton_iterations > 1
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
        with pytest.raises(IterationBudgetExceeded, match="in 1 iterations"):
            solve(problem, DiscrepancyRule(1.1))

    def test_rule_validation(self):
        with pytest.raises(DomainError):
            DiscrepancyRule(C=2.5)
        with pytest.raises(DomainError):
            DiscrepancyRule(C=1.0)
        with pytest.raises(DomainError):
            AprioriRule(C=-1.0)
        for constant in (math.nan, math.inf, 0.0):
            with pytest.raises(DomainError, match=f"^a priori constant C={constant} must be"):
                AprioriRule(C=constant)
        with pytest.raises(DomainError):
            AprioriRule(C=1.0, gamma=1.0)

    @pytest.mark.parametrize("run", [solve, vr_solve], ids=["flow", "tikhonov"])
    def test_largest_admitted_spectrum_solves_without_overflow_warning(self, run):
        # |s| = 1.3e154 is admitted, but t * lam overflows once t > 1.06; under
        # pytest's filterwarnings = error a numpy overflow warning fails the test
        problem = NoisyProblem(from_diagonal([1.3e154, 1.0]), [1.0, 1.0], 0.1)
        report = run(problem, DiscrepancyRule(1.1))
        assert report.t_delta == pytest.approx(2.2073 if run is solve else 8.0909, rel=1e-4)
        assert report.residual_norm == pytest.approx(0.11, rel=1e-8)

    def test_filter_of_overflowing_product_is_warning_free(self):
        assert evolution_filter(1.69e308, 2.0) == pytest.approx(5.917e-309, rel=1e-3)


def _two_row_problem():
    return NoisyProblem(from_diagonal([1.0, 0.5]), np.ones((2, 2)), np.full(2, 0.1))


NOT_REAL = {
    "apriori-C": lambda: AprioriRule(C=1j),
    "apriori-gamma": lambda: AprioriRule(gamma=0.5j),
    "discrepancy-rule-C": lambda: DiscrepancyRule(1.5j),
    "noise-spec-delta-rel": lambda: NoiseSpec(0.1j, 0),
    "gaussian-psf-sigma": lambda: gaussian_psf(4, 4, 1j),
    "circulant-delta": lambda: CirculantProblem(np.ones(4), np.ones(4), 1j),
    "noisy-problem-delta": lambda: NoisyProblem(from_diagonal([1.0]), [1.0], 1j),
    "noisy-problem-row-deltas": lambda: NoisyProblem(from_diagonal([1.0]), [[1.0]], ["0.1"]),
    "discrepancy-t": lambda: discrepancy(scalar_problem(), 1j),
    "discrepancy-text": lambda: discrepancy(scalar_problem(), "x"),
    "discrepancy-row-times": lambda: discrepancy(_two_row_problem(), [1.0, 1j]),
    "solution-at-t": lambda: solution_at(scalar_problem(), 1j),
    "tikhonov-alpha": lambda: tikhonov_solution(scalar_problem(), 1j),
    "tikhonov-object-alpha": lambda: tikhonov_solution(scalar_problem(), object()),
    "evolution-filter-t": lambda: evolution_filter(1.0, 1j),
    "evolution-filter-lam": lambda: evolution_filter(1j, 1.0),
    "evolution-filter-lam-array": lambda: evolution_filter(np.array([1.0, 1j]), 1.0),
    "evolution-filter-text-t": lambda: evolution_filter(1.0, "2"),
    # arrays admitted as float: the kind is read before the conversion,
    # which would fail on text and drop an imaginary part
    "gray-image-text": lambda: GrayImage([["a"]]),
    "gray-image-complex": lambda: GrayImage(np.array([[1j]])),
    "circulant-complex-kernel": lambda: CirculantProblem(np.full(2, 1j), np.ones(2), 0.1),
    "circulant-complex-observed": lambda: CirculantProblem(np.ones(2), np.full(2, 1j), 0.1),
    "test-problem-complex": lambda: problems.TestProblem(np.full(3, 1j)),
}

# arrays that may be complex must still be numeric
NOT_NUMERIC = {
    "noisy-problem-text-rhs": lambda: NoisyProblem(from_diagonal([1.0]), ["a"], 0.1),
    "noisy-problem-text-start": lambda: NoisyProblem(from_diagonal([1.0]), [1.0], 0.1, u0=["a"]),
    "factorization-text-diag": lambda: SpectralFactorization(None, None, ["a"]),
    "factorize-svd-text": lambda: factorize_svd([["a"]]),
}


@pytest.mark.parametrize("call, kind", [(call, "real") for call in NOT_REAL.values()]
                         + [(call, "numeric") for call in NOT_NUMERIC.values()],
                         ids=[*NOT_REAL, *NOT_NUMERIC])
def test_complex_or_non_numeric_value_is_a_domain_error(call, kind):
    # numpy orders complex numbers lexicographically, so 1j > 0 must not admit it
    with pytest.raises(DomainError, match=f" must be {kind}, not of dtype "):
        call()


class TestLandweber:
    def test_zero_steps_returns_start(self):
        problem = random_problem(11, m=4, n=4)
        assert np.array_equal(landweber_integrate(problem, 1e-3, 0), np.zeros(4))

    def test_scalar_exponential(self):
        problem = scalar_problem()
        out = landweber_integrate(problem, 1e-4, 10_000)
        assert abs(out[0] - (1 - math.exp(-1.0))) <= 1e-3

    def test_matches_closed_form(self):
        problem = random_problem(12, m=6, n=6, sing_lo=0.5, sing_hi=1.0)
        lam_max = problem.factorization.eigenvalues.max()
        step = 2e-4 / lam_max
        n_steps = int(round(0.5 / step))
        euler = landweber_integrate(problem, step, n_steps)
        closed = solution_at(problem, n_steps * step)
        assert np.linalg.norm(euler - closed) <= 5e-3 * np.linalg.norm(closed)

    def test_unstable_step_rejected(self):
        problem = scalar_problem()  # lam_max = 1
        with pytest.raises(UnstableStep):
            landweber_integrate(problem, 2.0, 10)

    def test_diagonal_fast_path_matches_dense(self):
        # identity-basis problems use the elementwise loop; cross-check via
        # an equivalent dense factorization of the same diagonal matrix
        diag = np.array([1.0, 0.5, 0.25])
        f = np.array([1.0, -2.0, 0.5])
        spec = NoisyProblem(from_diagonal(diag), f, delta=0.1)
        dense = NoisyProblem(factorize_svd(np.diag(diag)), f, delta=0.1)
        a = landweber_integrate(spec, 1e-2, 500)
        b = landweber_integrate(dense, 1e-2, 500)
        assert np.linalg.norm(a - b) <= 1e-10
