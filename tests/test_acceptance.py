"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; without ``-s`` pytest shows them only for failing tests.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_matrix, random_orthogonal
from dsmg import (
    DiscrepancyRule,
    AprioriRule,
    GrayImage,
    NoiseSpec,
    NoisyProblem,
    add_noise,
    blur_periodic,
    deconvolve_1d,
    discrepancy,
    evolution_filter,
    factorize_svd,
    from_diagonal,
    gaussian_psf,
    second_derivative_problem,
    solution_at,
    solve,
    synthetic_target,
    vr_solve,
    write_pgm,
)
from dsmg import solver
from dsmg.cli import rows_to_csv, run_derivative_bench
from dsmg.deconvolution import CirculantProblem
from oracles import circular_convolve, landweber_integrate, newton_solve_t, source_condition_problem


class _Criterion:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.ok = False
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status}")
        return False


def _normalized_8x8_problem(seed):
    """Random 8x8 with lam_max exactly 1 and 30% relative noise."""
    rng = np.random.default_rng(seed)
    left = random_orthogonal(rng, 8)
    right = random_orthogonal(rng, 8)
    sing = np.sort(rng.uniform(0.8, 1.0, 8))[::-1]
    sing /= sing[0]
    matrix = left @ np.diag(sing) @ right.T
    truth = rng.normal(size=8)
    exact = matrix @ truth
    noise = rng.normal(size=8)
    delta = 0.3 * np.linalg.norm(exact)
    noise *= delta / np.linalg.norm(noise)
    return NoisyProblem(factorize_svd(matrix), exact + noise, delta)


def test_criterion_01_scalar_analytic_root():
    with _Criterion(1, "scalar analytic root"):
        problem = NoisyProblem(from_diagonal([1.0]), np.array([1.0]), delta=0.01)
        report = solve(problem, DiscrepancyRule(C=1.5))
        expected = math.log(1.0 / 0.015)
        assert abs(report.t_delta - expected) <= 1e-8 * expected
        assert report.newton_iterations <= 30


def test_criterion_02_euler_oracle_equivalence():
    with _Criterion(2, "closed form vs Euler oracle"):
        step = 1e-5  # equals 1e-5 / lam_max because lam_max is normalized to 1
        for seed in range(20):
            problem = _normalized_8x8_problem(seed)
            report = solve(problem, DiscrepancyRule(C=1.1))
            n_half = int(round(0.5 * report.t_delta / step))
            n_full = int(round(report.t_delta / step))
            euler_half = landweber_integrate(problem, step, n_half)
            resumed = replace(problem, u0=euler_half)
            euler_full = landweber_integrate(resumed, step, n_full - n_half)
            for state, steps in ((euler_half, n_half), (euler_full, n_full)):
                closed = solution_at(problem, steps * step)
                assert np.linalg.norm(state - closed) <= 1e-3 * np.linalg.norm(closed)


def test_criterion_03_discrepancy_contract():
    with _Criterion(3, "discrepancy contract on 50 random problems"):
        rng = np.random.default_rng(12345)
        for case in range(50):
            m = int(rng.integers(3, 11))
            n = int(rng.integers(2, m + 1))
            matrix = random_matrix(10_000 + case, m, n, 0.05, 2.0)
            truth = rng.normal(size=n)
            exact = matrix @ truth
            noise = rng.normal(size=m)
            delta = rng.uniform(0.05, 0.4) * np.linalg.norm(exact)
            noise *= delta / np.linalg.norm(noise)
            problem = NoisyProblem(factorize_svd(matrix), exact + noise, delta)
            C = float(rng.uniform(1.05, 1.9))
            target = C * delta
            if discrepancy(problem, 0.0) <= target:
                continue
            result = newton_solve_t(problem, C)
            assert abs(discrepancy(problem, result.t_delta) - target) <= 1e-8 * target
            trace = np.array(result.iterates)
            assert np.all(np.diff(trace) >= 0)


def test_criterion_04_convexity_monotonicity_suite():
    with _Criterion(4, "filter bounds, residual monotone/convex, derivative"):
        rng = np.random.default_rng(777)
        # filter bounds over random (lam, t)
        for _ in range(100):
            lam = float(10.0 ** rng.uniform(-9, 3))
            t = float(10.0 ** rng.uniform(-3, 4))
            value = evolution_filter(lam, t)
            assert 0.0 <= value <= t
        # residual monotone nonincreasing
        for case in range(100):
            problem = _random_small_problem(rng, 20_000 + case)
            t1 = rng.uniform(0.0, 10.0)
            t2 = t1 + rng.uniform(0.0, 10.0)
            assert discrepancy(problem, t2) <= discrepancy(problem, t1) * (1 + 1e-12)
        # second central difference strictly positive
        for case in range(100):
            problem = _random_small_problem(rng, 30_000 + case)
            t = rng.uniform(0.05, 3.0)
            h = 1e-3 * max(1.0, t)
            second = (
                discrepancy(problem, t + h)
                - 2 * discrepancy(problem, t)
                + discrepancy(problem, t - h)
            )
            assert second > 0.0
        # analytic derivative matches central finite difference
        for case in range(100):
            problem = _random_small_problem(rng, 40_000 + case)
            t = rng.uniform(0.1, 3.0)
            h = 1e-6 * max(1.0, t)
            fd = (discrepancy(problem, t + h) - discrepancy(problem, t - h)) / (2 * h)
            exact = solver._residual_pass(problem, t)[1]
            assert abs(fd - exact) <= 1e-4 * abs(exact)


def _random_small_problem(rng, seed):
    matrix = random_matrix(seed, 5, 5, 0.05, 1.5)
    truth = rng.normal(size=5)
    exact = matrix @ truth
    noise = rng.normal(size=5)
    delta = 0.1 * np.linalg.norm(exact)
    noise *= delta / np.linalg.norm(noise)
    return NoisyProblem(factorize_svd(matrix), exact + noise, delta)


BENCH_SIZES = (20, 30, 40, 50, 60, 70, 80, 90, 100)
BENCH_SEEDS = tuple(range(10))


def test_criterion_05_benchmark_trend():
    with _Criterion(5, "second-derivative benchmark trend"):
        rows = run_derivative_bench(BENCH_SIZES, "sin_2pi", 0.01, BENCH_SEEDS, DiscrepancyRule(1.1))
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row.N, row.method), []).append(row)
        for n in BENCH_SIZES:
            dsmg_errors = [r.relative_error for r in by_cell[(n, "dsmg")]]
            vr_errors = [r.relative_error for r in by_cell[(n, "vr")]]
            assert np.median(dsmg_errors) < np.median(vr_errors)
            assert all(0 <= r.iterations <= 30 for r in by_cell[(n, "dsmg")])
        assert np.median([r.relative_error for r in by_cell[(100, "dsmg")]]) <= 0.08


def test_criterion_06_condition_number_anchor():
    with _Criterion(6, "condition number anchor at N=100"):
        problem = second_derivative_problem(100, lambda t: math.sin(2 * math.pi * t))
        diag = factorize_svd(problem.matrix).diag
        kappa = diag[0] / diag[-1]
        assert 1.2158e4 / 2.0 <= kappa <= 1.2158e4 * 2.0


def test_criterion_07_apriori_convergence():
    with _Criterion(7, "a priori rule error decreases with noise"):
        problem = second_derivative_problem(60, lambda t: math.sin(2 * math.pi * t))
        fact = factorize_svd(problem.matrix)
        truth_norm = np.linalg.norm(problem.exact_solution)
        medians = []
        for level in (0.05, 0.01, 0.002):
            errors = []
            for seed in range(5):
                noisy_rhs, delta = add_noise(problem.exact_rhs, NoiseSpec(level, seed))
                noisy = NoisyProblem(fact, noisy_rhs, delta)
                report = solve(noisy, AprioriRule(C=1.0, gamma=0.5))
                errors.append(np.linalg.norm(report.solution - problem.exact_solution) / truth_norm)
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]


def test_criterion_08_circulant_equivalence():
    with _Criterion(8, "Fourier-diagonal vs dense circulant solve"):
        n = 16
        rng = np.random.default_rng(99)
        idx = np.arange(n)
        kernel = np.exp(-np.minimum(idx, n - idx) ** 2 / (2 * 1.5 ** 2))
        kernel /= kernel.sum()
        truth = rng.normal(size=n) + 1.0
        observed, delta = add_noise(circular_convolve(kernel, truth), NoiseSpec(0.01, 4))
        rule = DiscrepancyRule(C=1.1)
        restored, _ = deconvolve_1d(CirculantProblem(kernel, observed, delta), rule)
        circulant = np.array([[kernel[(i - j) % n] for j in range(n)] for i in range(n)])
        dense = solve(NoisyProblem(factorize_svd(circulant), observed, delta), rule)
        gap = np.linalg.norm(restored - dense.solution)
        assert gap <= 1e-8 * np.linalg.norm(dense.solution)


IMAGE_RULE = DiscrepancyRule(C=1.3)
IMAGE_SEED = 0


def _image_experiment(level):
    from dsmg import deconvolve_2d

    truth = synthetic_target(64, 64)
    psf = gaussian_psf(64, 64, 2.0)
    blurred = blur_periodic(truth, psf)
    noisy_flat, _ = add_noise(blurred.pixels.ravel(), NoiseSpec(level, IMAGE_SEED))
    observed = GrayImage(noisy_flat.reshape(64, 64))
    restored, report = deconvolve_2d(observed, psf, level, IMAGE_RULE)
    err_blurred = np.linalg.norm(observed.pixels - truth.pixels)
    err_restored = np.linalg.norm(restored.pixels - truth.pixels)
    return restored, report, err_restored, err_blurred


def test_criterion_09_image_experiment():
    with _Criterion(9, "synthetic image deblurring"):
        iterations = {}
        for level in (0.01, 0.05):
            _, report, err_restored, err_blurred = _image_experiment(level)
            assert err_restored < err_blurred
            assert report.newton_iterations <= 10
            iterations[level] = report.newton_iterations
        assert iterations[0.05] <= iterations[0.01]


def test_criterion_10_determinism(tmp_path):
    with _Criterion(10, "byte-identical reruns of CSV and PGM outputs"):
        first_csv = rows_to_csv(
            run_derivative_bench(BENCH_SIZES, "sin_2pi", 0.01, BENCH_SEEDS, DiscrepancyRule(1.1))
        )
        second_csv = rows_to_csv(
            run_derivative_bench(BENCH_SIZES, "sin_2pi", 0.01, BENCH_SEEDS, DiscrepancyRule(1.1))
        )
        assert first_csv.encode() == second_csv.encode()
        paths = []
        for run in ("a", "b"):
            restored, _, _, _ = _image_experiment(0.01)
            path = tmp_path / f"restored_{run}.pgm"
            write_pgm(restored, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


RATE_NOISE_LEVELS = np.logspace(-2, -8, 13)
RATE_RULE = DiscrepancyRule(1.1)


def _error_slopes(nu):
    """Log-log slopes of ||u_delta - y|| against delta, for the flow and for Tikhonov."""
    fact, exact, data = source_condition_problem(nu)
    errors = {solve: [], vr_solve: []}
    for k, level in enumerate(RATE_NOISE_LEVELS):
        noisy = NoisyProblem(fact, *add_noise(data, NoiseSpec(level, k)))
        for method, trace in errors.items():
            trace.append(np.linalg.norm(method(noisy, RATE_RULE).solution - exact))
    return [np.polyfit(np.log(RATE_NOISE_LEVELS), np.log(errors[m]), 1)[0] for m in errors]


def test_criterion_11_convergence_rates():
    # Bounds from theory, fixed before the first run. Under y = (A*A)^nu w the
    # discrepancy-stopped flow converges at the order-optimal delta^(2 nu / (2 nu + 1))
    # for every nu; discrepancy-stopped Tikhonov saturates at delta^(1/2).
    with _Criterion(11, "convergence rates under a source condition"):
        for nu in (0.5, 1.0, 2.0):
            flow, tikhonov = _error_slopes(nu)
            print(f"nu={nu}: flow slope {flow:.3f}, Tikhonov slope {tikhonov:.3f}")
            assert flow >= 0.9 * 2.0 * nu / (2.0 * nu + 1.0)
            if nu >= 1.0:
                assert tikhonov <= 0.55
