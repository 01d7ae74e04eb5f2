"""Structural properties of the flow: filter bounds, residual shape, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_matrix, random_problem
from dsmg import (
    DiscrepancyRule,
    NoisyProblem,
    discrepancy,
    evolution_filter,
    factorize_svd,
    solution_at,
    solve,
)
from oracles import landweber_integrate, minimal_norm_solution, newton_solve_t, residual_slope


@given(
    lam=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)
@settings(max_examples=200)
def test_filter_bounded_by_time(lam, t):
    value = evolution_filter(lam, t)
    assert value >= 0.0
    assert value <= t * (1.0 + 1e-12)


@given(
    lam=st.floats(min_value=1e-8, max_value=1e3),
    t1=st.floats(min_value=0.0, max_value=50.0),
    t2=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=200)
def test_filter_monotone_in_time(lam, t1, t2):
    lo, hi = sorted((t1, t2))
    assert evolution_filter(lam, lo) <= evolution_filter(lam, hi) + 1e-15


def test_residual_nonincreasing():
    rng = np.random.default_rng(101)
    for seed in range(100):
        problem = random_problem(seed, m=5, n=5, sing_lo=0.02, sing_hi=2.0)
        t1 = rng.uniform(0.0, 20.0)
        t2 = t1 + rng.uniform(0.0, 20.0)
        assert discrepancy(problem, t2) <= discrepancy(problem, t1) * (1 + 1e-12)


def test_residual_strictly_convex():
    rng = np.random.default_rng(202)
    for seed in range(100):
        problem = random_problem(seed + 1000, m=5, n=5, sing_lo=0.05, sing_hi=1.5)
        t = rng.uniform(0.05, 3.0)
        h = 1e-3 * max(1.0, t)
        second = (
            discrepancy(problem, t + h)
            - 2.0 * discrepancy(problem, t)
            + discrepancy(problem, t - h)
        )
        assert second > 0.0


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(303)
    for seed in range(100):
        problem = random_problem(seed + 2000, m=5, n=5, sing_lo=0.05, sing_hi=2.0)
        t = rng.uniform(0.1, 3.0)
        h = 1e-6 * max(1.0, t)
        fd = (discrepancy(problem, t + h) - discrepancy(problem, t - h)) / (2.0 * h)
        exact = residual_slope(problem, t)
        assert abs(fd - exact) <= 1e-4 * abs(exact)


def test_newton_iterates_monotone_and_converged():
    for seed in range(20):
        problem = random_problem(seed + 3000, m=6, n=6, sing_lo=0.02, sing_hi=2.0)
        C = 1.1 + 0.04 * seed  # spread over (1, 2)
        result = newton_solve_t(problem, C)
        trace = np.array(result.iterates)
        assert np.all(np.diff(trace) >= 0)
        target = C * problem.delta
        assert abs(discrepancy(problem, result.t_delta) - target) <= 1e-8 * target


def test_euler_oracle_equivalence():
    # closed form vs explicit Euler at step 1e-5 / lam_max
    for seed in range(3):
        problem = random_problem(seed + 4000, m=8, n=8, sing_lo=0.7, sing_hi=1.0)
        lam_max = problem.factorization.eigenvalues.max()
        lam_min = problem.factorization.eigenvalues.min()
        step = 1e-5 / lam_max
        t = min(1.0 / lam_max, 5.0 / lam_min)
        n_steps = int(round(t / step))
        euler = landweber_integrate(problem, step, n_steps)
        closed = solution_at(problem, n_steps * step)
        assert np.linalg.norm(euler - closed) <= 1e-3 * np.linalg.norm(closed)


def test_error_to_truth_nonincreasing_until_stop():
    # while the residual stays above C*delta > delta the distance to the
    # underlying solution cannot grow
    for seed in range(10):
        matrix = random_matrix(seed + 600, 6, 6, 0.05, 1.5)
        fact = factorize_svd(matrix)
        rng = np.random.default_rng(seed)
        y = rng.normal(size=6)
        exact = matrix @ y
        noise = rng.normal(size=6)
        delta = 0.05 * np.linalg.norm(exact)
        noise *= delta / np.linalg.norm(noise)
        problem = NoisyProblem(fact, exact + noise, delta=delta)
        report = solve(problem, DiscrepancyRule(C=1.3))
        if report.t_delta == 0.0:
            continue
        grid = np.linspace(0.0, report.t_delta, 12)
        errors = [np.linalg.norm(solution_at(problem, t) - y) for t in grid]
        diffs = np.diff(errors)
        assert np.all(diffs <= 1e-10 * errors[0])


def test_exact_data_convergence_to_minimal_norm_solution():
    # decay exponents 10, 20, 30 at the slowest mode: strictly decreasing and
    # all three levels stay above the floating-point noise floor
    for seed in range(5):
        matrix = random_matrix(seed + 700, 5, 5, 0.3, 1.5)
        fact = factorize_svd(matrix)
        rng = np.random.default_rng(seed)
        y = rng.normal(size=5)
        problem = NoisyProblem(fact, matrix @ y, delta=1e-9)
        pinv = minimal_norm_solution(fact, problem.f_delta)
        lam_min = problem.factorization.eigenvalues.min()
        errors = [
            np.linalg.norm(solution_at(problem, 10.0 * k / lam_min) - pinv)
            for k in (1, 2, 3)
        ]
        assert errors[0] > errors[1] > errors[2]


def test_concurrent_solves_share_problem_safely():
    # one immutable problem, eight threads, distinct targets: results must be
    # the same as serial, and a larger target stops the flow no later
    from concurrent.futures import ThreadPoolExecutor

    problem = random_problem(5000, m=6, n=6, sing_lo=0.1, sing_hi=1.5)
    constants = [1.1 + 0.1 * i for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda c: solve(problem, DiscrepancyRule(C=c)).t_delta, constants))
    serial = [solve(problem, DiscrepancyRule(C=c)).t_delta for c in constants]
    assert threaded == serial
    assert all(a >= b for a, b in zip(threaded, threaded[1:]))


@pytest.mark.parametrize("shape", [(5, 3), (3, 5)])
def test_rectangular_residual_floor(shape):
    # rows beyond the rank never decay: the floor is the off-range data mass
    m, n = shape
    rng = np.random.default_rng(42)
    matrix = random_matrix(900, m, n, 0.5, 1.5)
    fact = factorize_svd(matrix)
    f = rng.normal(size=m)
    problem = NoisyProblem(fact, f, delta=0.01)
    k = min(m, n)
    full_u = np.linalg.svd(matrix, full_matrices=True)[0]
    coeffs = full_u.conj().T @ f
    floor = np.linalg.norm(coeffs[k:])
    assert abs(problem.residual_floor - floor) <= 1e-12
    assert discrepancy(problem, 1e6) >= floor * (1 - 1e-12)
