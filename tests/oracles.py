"""Slow, independent reference implementations the tests check dsmg against.

None of these is part of the library: each recomputes something the library
does spectrally (or not at all) by a different route, so that agreement
between the two is evidence.

- ``landweber_integrate``: explicit Euler on the gradient flow.
- ``circular_convolve``: periodic convolution by direct summation.
- ``greens_kernel``: the kernel that ``second_derivative_problem`` discretizes.
- ``apply`` / ``adjoint_apply``: A x and A* y from a factorization.
- ``to_matrix``: the dense matrix U S V* of a factorization.
- ``minimal_norm_solution``: the pseudo-inverse solution.
- ``newton_solve_t``: the discrepancy search alone, without ``solve``.
- ``eigh_derivative_bench``: the benchmark sweep with ``factorize_svd`` in
  place of the closed-form factorization.
- ``dst2_basis``: the dense DST-II basis that the closed-form factorization
  applies by FFT.
- ``source_condition_problem``: a diagonal operator and an exact solution of
  known smoothness, for measuring convergence rates.
"""

import numpy as np

from dsmg import (
    DimensionMismatch,
    DomainError,
    DsmgError,
    NoisyProblem,
    SpectralFactorization,
    factorize_svd,
    from_diagonal,
    second_derivative_problem,
)
from dsmg import cli, solver
from dsmg.linalg import _adjoint_multiply, _left_multiply

DEFAULT_RANK_TOL = 1e-12


class UnstableStep(DsmgError):
    """Explicit Euler step size is at or beyond the stability limit."""


def apply(fact: SpectralFactorization, x) -> np.ndarray:
    """Compute A x = U S V* x."""
    x = np.asarray(x)
    n = fact.shape[1]
    if x.shape != (n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({n},)")
    return _left_multiply(fact.u_basis, fact.diag * _adjoint_multiply(fact.v_basis, x))


def to_matrix(fact: SpectralFactorization) -> np.ndarray:
    """Materialize the dense matrix U S V*."""
    left = np.diag(fact.diag) if fact.u_basis is None else fact.u_basis * fact.diag
    return left if fact.v_basis is None else left @ fact.v_basis.conj().T


def adjoint_apply(fact: SpectralFactorization, y) -> np.ndarray:
    """Compute A* y = V conj(S) U* y."""
    y = np.asarray(y)
    m = fact.shape[0]
    if y.shape != (m,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({m},)")
    return _left_multiply(fact.v_basis, fact.diag.conj() * _adjoint_multiply(fact.u_basis, y))


def minimal_norm_solution(fact: SpectralFactorization, f, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Pseudo-inverse solution V diag(g) U* f with g_i = conj(s_i)/|s_i|^2.

    Modes with |s_i|^2 at or below ``rank_tol`` times the largest eigenvalue
    are treated as null directions and dropped, which makes the result
    orthogonal to the numerical null space.
    """
    f = np.asarray(f)
    m = fact.shape[0]
    if f.shape != (m,):
        raise DimensionMismatch(f"f has shape {f.shape}, expected ({m},)")
    if rank_tol <= 0:
        raise DomainError("rank_tol must be positive")
    eig = fact.eigenvalues
    cutoff = rank_tol * (eig.max() if len(eig) else 0.0)
    gains = np.zeros(len(eig), dtype=np.result_type(fact.diag.dtype, float))
    keep = eig > cutoff
    gains[keep] = fact.diag[keep].conj() / eig[keep]
    return _left_multiply(fact.v_basis, gains * _adjoint_multiply(fact.u_basis, f))


def circular_convolve(kernel, signal) -> np.ndarray:
    """Periodic convolution g_i = sum_j h_j f_{(i-j) mod N} by direct summation."""
    h = np.asarray(kernel, dtype=float)
    f = np.asarray(signal, dtype=float)
    if h.shape != f.shape or h.ndim != 1:
        raise DimensionMismatch(
            f"kernel shape {h.shape} and signal shape {f.shape} must be equal 1-d"
        )
    out = np.zeros(len(f))
    for shift, weight in enumerate(h):
        out += weight * np.roll(f, shift)
    return out


def greens_kernel(s: float, t: float) -> float:
    """Green's function of the second derivative on the unit square."""
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise DomainError(f"(s, t)=({s}, {t}) outside the unit square")
    if s < t:
        return s * (t - 1.0)
    return t * (s - 1.0)


def landweber_integrate(problem: NoisyProblem, step: float, n_steps: int) -> np.ndarray:
    """Explicit Euler on du/dt = -A*(A u - f_delta): the Landweber iteration.

    Stable only for step < 2 / max(|s_i|^2). Slow by design; serves as an
    integration oracle for ``solution_at``.
    """
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"step={step} must be positive and finite")
    fact = problem.factorization
    lam = fact.eigenvalues
    lam_max = float(lam.max(initial=0.0))
    if lam_max > 0 and step >= 2.0 / lam_max:
        raise UnstableStep(f"step {step} >= stability limit {2.0 / lam_max}")
    drift = step * adjoint_apply(fact, problem.f_delta)
    state = np.array(problem.u0, dtype=np.result_type(problem.u0.dtype, drift.dtype))
    if n_steps == 0:
        return state
    if fact.v_basis is None:
        decay = 1.0 - step * lam
        for _ in range(n_steps):
            state = decay * state + drift
        return state
    n = fact.shape[1]
    gram = (fact.v_basis * lam) @ fact.v_basis.conj().T
    propagator = np.eye(n, dtype=gram.dtype) - step * gram
    state = state.astype(np.result_type(state.dtype, propagator.dtype))
    buffer = np.empty_like(state)
    for _ in range(n_steps):
        np.dot(propagator, state, out=buffer)
        buffer += drift
        state, buffer = buffer, state
    return state


def newton_solve_t(problem: NoisyProblem, C: float) -> solver.NewtonResult:
    """The discrepancy search of ``solve`` on one right-hand side: psi(t) = C * delta from t = 0.

    Returns the row's root, iterations, trace and psi as scalars and a tuple,
    or raises the row's error. Both private names are looked up on
    ``solver`` at call time, so a test that monkeypatches
    ``solver._residual_pass`` reaches this search too.
    """
    result = solver._newton_on_log_psi(problem, solver._residual_pass, C * problem.delta)
    (failure,) = result.failures
    if failure is not None:
        raise failure
    return solver.NewtonResult(
        float(result.t_delta[0]), int(result.iterations[0]), result.iterates[0],
        float(result.residual_norm[0]), None,
    )


def dst2_basis(N: int) -> np.ndarray:
    """The dense N x N DST-II basis that ``problems._SineBasis`` applies by FFT.

    V_jk = sqrt(2/N) sin((2j - 1) k pi / (2N)), column N scaled by 1/sqrt(2).
    The phase (2j - 1) k mod 4N is reduced in integers and the sine is read
    from a first-quadrant table, so every angle is one correctly reduced
    argument and the sine's zeros are exact zeros.
    """
    quarter = np.sin(np.arange(N + 1) * (np.pi / (2 * N)))
    half = np.concatenate([quarter, quarter[N - 1:0:-1]])
    sines = np.concatenate([half, -half])
    phase = np.outer(np.arange(1, 2 * N, 2), np.arange(1, N + 1))
    phase %= 4 * N
    v = sines[phase]
    v *= np.sqrt(2.0 / N)
    v[:, -1] *= np.sqrt(0.5)
    return v


def eigh_derivative_bench(n_values, u_choice, delta_rel, seeds, rule) -> list:
    """``cli.run_derivative_bench`` with each matrix factored by ``factorize_svd`` (eigh)."""
    u_fn = cli.SOLUTION_CHOICES[u_choice]
    rows = []
    for n in n_values:
        problem = second_derivative_problem(n, u_fn)
        fact = factorize_svd(problem.matrix)
        rows.extend(cli._bench_batch(problem, fact, delta_rel, seeds, rule))
    rows.sort(key=lambda r: (r.N, r.method, r.seed))
    return rows


def source_condition_problem(nu: float, n: int = 4000, seed: int = 0):
    """A = diag(1/i), i = 1..n, and y = (A*A)^nu w, with w_i = g_i / i.

    g is standard normal from ``default_rng(seed)``, so w has finite norm and
    y meets the source condition of order nu. Returns the factorization of A,
    y and the exact data f = A y.
    """
    s = 1.0 / np.arange(1, n + 1)
    y = s ** (2.0 * nu) * (np.random.default_rng(seed).standard_normal(n) * s)
    return from_diagonal(s), y, s * y
