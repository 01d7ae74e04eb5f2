"""Tikhonov baseline: filter behavior and discrepancy-chosen alpha."""

import math

import numpy as np
import pytest

from conftest import random_matrix, random_problem
from dsmg import (
    AprioriRule,
    DiscrepancyRule,
    DomainError,
    NoiseSpec,
    NoisyProblem,
    PreconditionViolated,
    UnattainableDiscrepancy,
    add_noise,
    factorize_svd,
    from_diagonal,
    second_derivative_problem,
    solve,
    tikhonov_solution,
    vr_solve,
)
from dsmg import baselines, solver
from dsmg.baselines import _vr_residual
from oracles import apply, minimal_norm_solution


def test_scalar_alpha_closed_form():
    # alpha / (1 + alpha) = C * delta  =>  alpha = 0.015 / 0.985
    problem = NoisyProblem(from_diagonal([1.0]), np.array([1.0]), delta=0.01)
    report = vr_solve(problem, DiscrepancyRule(1.5))
    expected = 0.015 / 0.985
    assert abs(1.0 / report.t_delta - expected) <= 1e-6 * expected
    assert abs(report.residual_norm - 0.015) <= 1e-8 * 0.015
    assert report.newton_iterations >= 1


def test_off_range_data_above_target_unattainable():
    # A = e1 in R^3: the data along e2 lies outside range(A) and never decays
    problem = NoisyProblem(factorize_svd([[1.0], [0.0], [0.0]]), np.array([1.0, 1.0, 0.0]), delta=0.1)
    assert problem.residual_floor == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(UnattainableDiscrepancy):
        vr_solve(problem, DiscrepancyRule(1.5))
    with pytest.raises(UnattainableDiscrepancy):
        solve(problem, DiscrepancyRule(C=1.5))


def test_small_alpha_limit_is_pseudo_inverse():
    matrix = random_matrix(77, 5, 5, 0.3, 2.0)
    fact = factorize_svd(matrix)
    rng = np.random.default_rng(0)
    f = rng.normal(size=5)
    problem = NoisyProblem(fact, f, delta=0.01)
    pinv = minimal_norm_solution(fact, f)
    tiny = tikhonov_solution(problem, 1e-14 * fact.eigenvalues.max())
    assert np.linalg.norm(tiny - pinv) <= 1e-9 * np.linalg.norm(pinv)


def test_residual_hits_target_on_random_problems():
    # a tall system's data outside range(U) stays in the residual at every alpha
    for m, n in ((6, 6), (7, 3), (3, 7)):
        for seed in range(10):
            problem = random_problem(seed + 500, m, n, sing_lo=0.01, sing_hi=2.0)
            C = 1.2
            report = vr_solve(problem, DiscrepancyRule(C))
            target = C * problem.delta
            assert abs(report.residual_norm - target) <= 1e-8 * target
            direct = np.linalg.norm(apply(problem.factorization, report.solution) - problem.f_delta)
            assert abs(report.residual_norm - direct) <= 1e-10 * direct


def test_vr_residual_increasing_in_alpha():
    problem = random_problem(42, m=5, n=5, sing_lo=0.05, sing_hi=1.5)
    alphas = np.logspace(-8, 2, 30)
    values = [_vr_residual(problem, np.full(1, 1.0 / a))[0][0] for a in alphas]
    assert np.all(np.diff(values) > 0)


def test_alpha_matches_bisection_oracle(monkeypatch):
    # 200 bisections on log(alpha) against the direct residual
    # ||alpha / (lam + alpha) * U* f||; the Newton iterates in beta = 1/alpha rise
    searches = []
    original = solver._newton_on_log_psi

    def recorded(*args):
        searches.append(original(*args))
        return searches[-1]

    monkeypatch.setattr(baselines, "_newton_on_log_psi", recorded)
    C = 1.2
    for seed in range(10):
        problem = random_problem(seed + 700, m=6, n=6, sing_lo=0.01, sing_hi=2.0)
        lam = problem.factorization.eigenvalues
        coeffs = problem.rhs_coefficients
        target = C * problem.delta

        def gap(alpha):
            return np.linalg.norm(alpha / (lam + alpha) * coeffs) - target

        lo, hi = 1e-16, 1e4
        assert gap(lo) < 0 < gap(hi)
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if gap(mid) > 0:
                hi = mid
            else:
                lo = mid
        oracle = math.sqrt(lo * hi)
        report = vr_solve(problem, DiscrepancyRule(C))
        assert abs(1.0 / report.t_delta - oracle) <= 1e-6 * oracle
        assert np.all(np.diff(searches[-1].iterates) >= 0)


def test_one_pass_per_iteration(monkeypatch):
    problem = random_problem(800, m=8, n=8, sing_lo=0.01, sing_hi=3.0)
    calls = []
    original = baselines._vr_residual

    def counted(p, beta):
        calls.append(beta)
        return original(p, beta)

    monkeypatch.setattr(baselines, "_vr_residual", counted)
    report = vr_solve(problem, DiscrepancyRule(1.1))
    assert len(calls) == report.newton_iterations + 1


def test_solution_norm_below_pseudo_inverse():
    for seed in range(5):
        problem = random_problem(seed + 600, m=5, n=5, sing_lo=0.05, sing_hi=1.5)
        pinv = minimal_norm_solution(problem.factorization, problem.f_delta)
        report = vr_solve(problem, DiscrepancyRule(1.3))
        assert np.linalg.norm(report.solution) <= np.linalg.norm(pinv) * (1 + 1e-12)


def test_second_derivative_error_band():
    # N=100 at 1% noise: error lands in the expected band for this family
    problem = second_derivative_problem(100, lambda t: np.sin(2.0 * np.pi * t))
    noisy_rhs, delta = add_noise(problem.exact_rhs, NoiseSpec(0.01, 0))
    noisy = NoisyProblem(factorize_svd(problem.matrix), noisy_rhs, delta)
    report = vr_solve(noisy, DiscrepancyRule(1.1))
    error = np.linalg.norm(report.solution - problem.exact_solution)
    error /= np.linalg.norm(problem.exact_solution)
    assert 0.005 <= error <= 0.33


def test_unattainable_when_data_outside_range():
    fact = from_diagonal([1.0, 0.0])
    problem = NoisyProblem(fact, np.array([0.0, 1.0]), delta=0.01)
    with pytest.raises(UnattainableDiscrepancy):
        vr_solve(problem, DiscrepancyRule(1.5))


def test_precondition_violated_when_target_above_data_norm():
    problem = NoisyProblem(from_diagonal([1.0]), np.array([1.0]), delta=0.9)
    with pytest.raises(PreconditionViolated):
        vr_solve(problem, DiscrepancyRule(1.5))  # C*delta = 1.35 > ||f|| = 1


def test_precondition_violated_when_target_within_tolerance_of_data_norm():
    # ||f|| exceeds C*delta by less than the 1e-8 stop tolerance, so the
    # search accepts beta = 0 and only alpha -> inf would fit
    problem = NoisyProblem(from_diagonal([1.0]), np.array([1.0]), delta=(1.0 - 5e-9) / 1.5)
    with pytest.raises(PreconditionViolated):
        vr_solve(problem, DiscrepancyRule(1.5))


@pytest.mark.parametrize(
    "rule",
    [AprioriRule(), AprioriRule(C=1.5), 1.5, None],
    ids=["apriori", "apriori-C", "float", "none"],
)
def test_only_a_discrepancy_rule_stops_tikhonov(rule):
    # an AprioriRule has a C too; Tikhonov must not take it for a discrepancy constant
    problem = random_problem(98, m=4, n=4, sing_lo=0.05, sing_hi=1.5)
    with pytest.raises(DomainError, match="only by a DiscrepancyRule"):
        vr_solve(problem, rule)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_tikhonov_solution_rejects_alpha(alpha):
    problem = random_problem(97, m=3, n=3)
    with pytest.raises(DomainError, match=f"^alpha={alpha} must be positive and finite$"):
        tikhonov_solution(problem, alpha)


def test_same_contract_shape_as_gradient_solver():
    # both methods stop at the same residual level on the same data
    problem = random_problem(99, m=6, n=6, sing_lo=0.02, sing_hi=2.0)
    C = 1.4
    vr_report = vr_solve(problem, DiscrepancyRule(C))
    flow_report = solve(problem, DiscrepancyRule(C=C))
    target = C * problem.delta
    assert abs(vr_report.residual_norm - target) <= 1e-8 * target
    assert abs(flow_report.residual_norm - target) <= 1e-8 * target


def generalized_tikhonov(matrix, f, start, alpha):
    """u0 + (A*A + alpha I)^-1 A* (f - A u0) by a dense solve."""
    gram = matrix.T @ matrix + alpha * np.eye(matrix.shape[1])
    return start + np.linalg.solve(gram, matrix.T @ (f - matrix @ start))


@pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9)])
def test_regularizes_toward_start_point(shape):
    # a wide system keeps the part of u0 outside span(V); a tall one keeps
    # its off-range data in the residual
    m, n = shape
    for seed in range(5):
        rng = np.random.default_rng(seed + 1200)
        matrix = random_matrix(seed + 1200, m, n, 0.05, 2.0)
        noise = 0.05 * rng.normal(size=m)
        f = matrix @ rng.normal(size=n) + noise
        start = rng.normal(size=n)
        problem = NoisyProblem(factorize_svd(matrix), f, np.linalg.norm(noise), u0=start)
        for alpha in (1e-3, 0.1, 10.0):
            oracle = generalized_tikhonov(matrix, f, start, alpha)
            got = tikhonov_solution(problem, alpha)
            assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)
        report = vr_solve(problem, DiscrepancyRule(1.2))
        target = 1.2 * problem.delta
        assert abs(report.residual_norm - target) <= 1e-8 * target
        oracle = generalized_tikhonov(matrix, f, start, 1.0 / report.t_delta)
        assert np.linalg.norm(report.solution - oracle) <= 1e-10 * np.linalg.norm(oracle)
        direct = np.linalg.norm(matrix @ report.solution - f)
        assert abs(report.residual_norm - direct) <= 1e-10 * direct


def test_start_point_leaves_floor_unchanged():
    # r0 = -U* f_delta on zero eigenvalues, whatever u0 is
    fact = from_diagonal([2.0, 0.0, 0.5])
    f = np.array([1.0, 2.0, 3.0])
    started = NoisyProblem(fact, f, delta=0.01, u0=np.array([4.0, 5.0, 6.0]))
    assert started.residual_floor == NoisyProblem(fact, f, delta=0.01).residual_floor == 2.0
    with pytest.raises(UnattainableDiscrepancy):
        vr_solve(started, DiscrepancyRule(1.5))


@pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7)])
def test_residual_weights_are_one_frozen_cache(shape):
    # both methods damp the same cached moduli: no pass recomputes them
    m, n = shape
    base = random_problem(1300, m, n, sing_lo=0.05, sing_hi=2.0)
    start = np.random.default_rng(1300).normal(size=n)
    started = NoisyProblem(base.factorization, base.f_delta, base.delta, u0=start)
    for problem in (base, started):
        weights = problem.residual_weights
        assert not weights.flags.writeable
        assert weights.tobytes() == np.abs(problem.initial_residual_coefficients).tobytes()
        solve(problem, DiscrepancyRule(C=1.1))
        vr_solve(problem, DiscrepancyRule(1.1))
        assert problem.residual_weights is weights

