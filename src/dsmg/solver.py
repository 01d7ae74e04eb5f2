"""Gradient-flow regularization with closed-form spectral evaluation.

The flow du/dt = -A*(A u - f_delta) is never integrated numerically for the
solution path: given A = U S V*, the state at time t and the residual norm

    psi(t) = ||A u(t) - f_delta||

have closed spectral forms, so picking the stopping time reduces to scalar
root finding. ``solve`` supports two stopping rules: the discrepancy
principle psi(t) = C * delta solved by Newton's method on log psi from
t = 0, one fused pass over the spectrum per iteration (log psi is convex and
decreasing, so the iterates rise monotonically to the root), and the a
priori time t = C / delta**gamma.
``landweber_integrate`` is the explicit-Euler integrator of the same flow,
kept as a slow independent cross-check.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateResidual,
    DimensionMismatch,
    DomainError,
    IterationBudgetExceeded,
    PreconditionViolated,
    UnattainableDiscrepancy,
    UnstableStep,
)
from .linalg import (
    SpectralFactorization,
    _adjoint_multiply,
    _frozen_array,
    _left_multiply,
    adjoint_apply,
)

NEWTON_TOL_REL = 1e-8
NEWTON_MAX_ITER = 100

FLAG_DISCREPANCY_AT_START = "discrepancy_already_satisfied_at_t0"


@dataclass(frozen=True)
class DiscrepancyRule:
    """Stop when the residual norm equals C * delta, with 1 < C < 2."""

    C: float = 1.1

    def __post_init__(self):
        if not 1.0 < self.C < 2.0:
            raise DomainError(f"discrepancy constant C={self.C} must lie in (1, 2)")


@dataclass(frozen=True)
class AprioriRule:
    """Stop at the data-independent time t = C / delta**gamma."""

    C: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        if self.C <= 0:
            raise DomainError(f"a priori constant C={self.C} must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"a priori exponent gamma={self.gamma} must lie in (0, 1)")


StoppingRule = DiscrepancyRule | AprioriRule


@dataclass(frozen=True)
class NoisyProblem:
    """A factorized operator, noisy right-hand side, noise bound and start point.

    ``delta`` bounds the data error ||f_delta - f|| in the same norm as
    ``f_delta``. ``u0`` defaults to the zero vector.
    """

    factorization: SpectralFactorization
    f_delta: np.ndarray
    delta: float
    u0: np.ndarray | None = None

    def __post_init__(self):
        m, n = self.factorization.shape
        f = _frozen_array(self.f_delta)
        object.__setattr__(self, "f_delta", f)
        if f.shape != (m,):
            raise DimensionMismatch(f"f_delta has shape {f.shape}, expected ({m},)")
        if not np.all(np.isfinite(f)):
            raise DomainError("f_delta contains non-finite entries")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise DomainError(f"delta={self.delta} must be positive and finite")
        start = np.zeros(n) if self.u0 is None else self.u0
        start = _frozen_array(start)
        object.__setattr__(self, "u0", start)
        if start.shape != (n,):
            raise DimensionMismatch(f"u0 has shape {start.shape}, expected ({n},)")
        if not np.all(np.isfinite(start)):
            raise DomainError("u0 contains non-finite entries")

    @cached_property
    def spectrum_m(self) -> np.ndarray:
        """Eigenvalues of A A*: |s_i|^2 padded with zeros to length m."""
        m, _ = self.factorization.shape
        eig = self.factorization.eigenvalues
        out = np.zeros(m)
        out[: len(eig)] = eig
        out.setflags(write=False)
        return out

    @cached_property
    def spectrum_n(self) -> np.ndarray:
        """Eigenvalues of A* A: |s_i|^2 padded with zeros to length n."""
        _, n = self.factorization.shape
        eig = self.factorization.eigenvalues
        out = np.zeros(n)
        out[: len(eig)] = eig
        out.setflags(write=False)
        return out

    @cached_property
    def rhs_coefficients(self) -> np.ndarray:
        """U* f_delta."""
        out = _adjoint_multiply(self.factorization.u_basis, self.f_delta)
        out = np.array(out)
        out.setflags(write=False)
        return out

    @cached_property
    def initial_residual_coefficients(self) -> np.ndarray:
        """U* (A u0 - f_delta), the residual of the start point in the U basis."""
        fact = self.factorization
        k = len(fact.diag)
        if np.count_nonzero(self.u0) == 0:
            out = -self.rhs_coefficients
        else:
            start_coeffs = _adjoint_multiply(fact.v_basis, self.u0)
            m = fact.shape[0]
            mapped = np.zeros(m, dtype=np.result_type(fact.diag.dtype, start_coeffs.dtype))
            mapped[:k] = fact.diag * start_coeffs[:k]
            out = mapped - self.rhs_coefficients
        out = np.array(out)
        out.setflags(write=False)
        return out

    @cached_property
    def residual_floor(self) -> float:
        """inf_t psi(t): the residual mass on modes with zero eigenvalue."""
        stuck = self.spectrum_m == 0.0
        return _scaled_norm(self.initial_residual_coefficients[stuck])


class NewtonResult(NamedTuple):
    t_delta: float
    iterations: int
    iterates: tuple
    residual_norm: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one regularized solve."""

    t_delta: float
    solution: np.ndarray
    residual_norm: float
    newton_iterations: int
    rule_used: StoppingRule
    diagnostics: tuple = field(default=())


def evolution_filter(lam, t: float):
    """Spectral gain (1 - exp(-t*lam)) / lam of the flow, with value t at lam = 0.

    Accepts a scalar or an array of eigenvalues. Evaluated through expm1 so
    tiny t*lam does not cancel; the result always lies in [0, t].
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0):
        raise DomainError("eigenvalues must be nonnegative")
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t={t} must be nonnegative and finite")
    positive = lam_arr > 0
    safe = np.where(positive, lam_arr, 1.0)
    gains = np.where(positive, -np.expm1(-t * safe) / safe, t)
    # subnormal t*lam can round the quotient above the exact bound t
    gains = np.minimum(gains, t)
    if np.isscalar(lam) or lam_arr.ndim == 0:
        return float(gains)
    return gains


def solution_at(problem: NoisyProblem, t: float) -> np.ndarray:
    """Evaluate the flow state u(t) in closed form.

    u(t) = V [ exp(-t L) V* u0 + diag(filter(lam_i, t)) conj(S) U* f_delta ]
    where L = diag(|s_i|^2). At t = 0 this is exactly u0.
    """
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t={t} must be nonnegative and finite")
    if t == 0.0:
        return np.array(problem.u0)
    fact = problem.factorization
    k = len(fact.diag)
    gains = evolution_filter(fact.eigenvalues, t)
    driven = gains * fact.diag.conj() * problem.rhs_coefficients[:k]
    if np.count_nonzero(problem.u0) == 0:
        coeffs = np.zeros(fact.shape[1], dtype=driven.dtype)
        coeffs[:k] = driven
    else:
        start_coeffs = _adjoint_multiply(fact.v_basis, problem.u0)
        coeffs = np.exp(-t * problem.spectrum_n) * start_coeffs
        coeffs = coeffs.astype(np.result_type(coeffs.dtype, driven.dtype))
        coeffs[:k] += driven
    return _left_multiply(fact.v_basis, coeffs)


def _scaled_norm(values: np.ndarray) -> float:
    """Euclidean norm with rescaling: accurate even when the squares underflow."""
    scale = float(np.max(np.abs(values), initial=0.0))
    if scale == 0.0:
        return 0.0
    return scale * float(np.linalg.norm(values / scale))


def _residual_pass(problem: NoisyProblem, t: float) -> tuple[float, float]:
    """psi(t) and psi'(t) from one pass over the spectrum.

    The damping exp(-t*lam) is real, so only the moduli of the residual
    coefficients enter. They are rescaled by their maximum before squaring,
    so the squares underflow only where they are negligible. psi' is
    reported as 0 when psi itself is 0.
    """
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t={t} must be nonnegative and finite")
    lam = problem.spectrum_m
    damped = lam * -t
    np.exp(damped, out=damped)
    damped *= np.abs(problem.initial_residual_coefficients)
    scale = float(damped.max(initial=0.0))
    if scale == 0.0:
        return 0.0, 0.0
    damped /= scale
    damped *= damped
    norm = math.sqrt(float(damped.sum()))
    return scale * norm, -scale * float(np.dot(lam, damped)) / norm


def discrepancy(problem: NoisyProblem, t: float) -> float:
    """Residual norm psi(t) = ||A u(t) - f_delta|| evaluated spectrally.

    Modes with zero eigenvalue keep their initial residual forever, so
    psi decreases monotonically from ||A u0 - f_delta|| to the residual
    floor as t grows.
    """
    return _residual_pass(problem, t)[0]


def discrepancy_derivative(problem: NoisyProblem, t: float) -> float:
    """d psi / dt, strictly negative while any decaying mode carries residual."""
    psi, dpsi = _residual_pass(problem, t)
    if psi == 0.0:
        raise DegenerateResidual("residual norm is zero; derivative undefined")
    return dpsi


def _check_attainable(problem: NoisyProblem, target: float) -> None:
    if problem.residual_floor >= target:
        raise UnattainableDiscrepancy(
            f"residual floor {problem.residual_floor:.6e} >= C*delta = {target:.6e}; "
            "C is too small or delta understates the noise"
        )


def newton_solve_t(problem: NoisyProblem, C: float) -> NewtonResult:
    """Solve psi(t) = C * delta by Newton's method on log psi started at t = 0.

    log psi(t) = 1/2 log sum_i exp(-2 t lam_i) |r_i|^2 is a log-sum-exp of
    affine functions of t, hence convex and decreasing: every Newton step
    from a point left of the root stays left of it, so the iterates rise
    monotonically, and on a single mode the first step is exact. Each
    iteration costs one pass for psi and psi' together. A step that rounding
    carries materially past the root is replaced by bisection between the
    last point above the target and the overshooting one. Returns the root,
    the iteration count, the rising trace of points above the target ending
    at the root, and psi at the root.
    """
    target = C * problem.delta
    tol = NEWTON_TOL_REL * target
    _check_attainable(problem, target)
    t = 0.0
    psi, dpsi = _residual_pass(problem, t)
    if psi <= target:
        raise PreconditionViolated(
            f"psi(0)={psi:.6e} <= C*delta={target:.6e}; no positive root exists"
        )
    upper = math.inf
    iterates = []
    iterations = 0
    while abs(psi - target) > tol:
        if iterations == NEWTON_MAX_ITER:
            raise IterationBudgetExceeded(
                f"Newton did not reach |psi - C*delta| <= {tol:.3e} "
                f"in {NEWTON_MAX_ITER} iterations"
            )
        iterations += 1
        if psi > target:
            if not dpsi < 0.0:
                raise IterationBudgetExceeded(f"residual slope degenerated to {dpsi} at t={t:.6e}")
            lower, lower_psi, lower_dpsi = t, psi, dpsi
            iterates.append(t)
        else:
            upper = t
        # log(psi) - log(target), not log(psi / target): the ratio can overflow
        t = lower + (math.log(lower_psi) - math.log(target)) * lower_psi / -lower_dpsi
        if not lower < t < math.inf:
            raise IterationBudgetExceeded(f"Newton step from t={lower:.6e} made no progress")
        if t >= upper:
            t = 0.5 * (lower + upper)
        psi, dpsi = _residual_pass(problem, t)
    iterates.append(t)
    return NewtonResult(t, iterations, tuple(iterates), psi)


def solve(problem: NoisyProblem, rule: StoppingRule) -> SolveReport:
    """Run the flow to the stopping time chosen by ``rule``.

    Discrepancy branch: if the start point already satisfies
    ||A u0 - f_delta|| <= C * delta the report returns u0 at t = 0 with a
    diagnostic flag; otherwise the stopping time solves psi(t) = C * delta.
    A priori branch: t = C / delta**gamma with no residual evaluations.
    """
    if isinstance(rule, AprioriRule):
        t_stop = rule.C / problem.delta ** rule.gamma
        state = solution_at(problem, t_stop)
        return SolveReport(
            t_delta=t_stop,
            solution=state,
            residual_norm=discrepancy(problem, t_stop),
            newton_iterations=0,
            rule_used=rule,
        )
    if not isinstance(rule, DiscrepancyRule):
        raise DomainError(f"unknown stopping rule {rule!r}")
    target = rule.C * problem.delta
    resid_start = discrepancy(problem, 0.0)
    if resid_start <= target:
        return SolveReport(
            t_delta=0.0,
            solution=np.array(problem.u0),
            residual_norm=resid_start,
            newton_iterations=0,
            rule_used=rule,
            diagnostics=(FLAG_DISCREPANCY_AT_START,),
        )
    newton = newton_solve_t(problem, rule.C)
    return SolveReport(
        t_delta=newton.t_delta,
        solution=solution_at(problem, newton.t_delta),
        residual_norm=newton.residual_norm,
        newton_iterations=newton.iterations,
        rule_used=rule,
    )


def landweber_integrate(problem: NoisyProblem, step: float, n_steps: int) -> np.ndarray:
    """Explicit Euler on du/dt = -A*(A u - f_delta): the Landweber iteration.

    Stable only for step < 2 / max(|s_i|^2). Slow by design; serves as an
    integration oracle for ``solution_at``.
    """
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"step={step} must be positive and finite")
    lam_max = float(problem.spectrum_n.max(initial=0.0))
    if lam_max > 0 and step >= 2.0 / lam_max:
        raise UnstableStep(f"step {step} >= stability limit {2.0 / lam_max}")
    fact = problem.factorization
    drift = step * adjoint_apply(fact, problem.f_delta)
    state = np.array(problem.u0, dtype=np.result_type(problem.u0.dtype, drift.dtype))
    if n_steps == 0:
        return state
    if fact.v_basis is None:
        decay = 1.0 - step * problem.spectrum_n
        for _ in range(n_steps):
            state = decay * state + drift
        return state
    n = fact.shape[1]
    gram = (fact.v_basis * problem.spectrum_n) @ fact.v_basis.conj().T
    propagator = np.eye(n, dtype=gram.dtype) - step * gram
    state = state.astype(np.result_type(state.dtype, propagator.dtype))
    buffer = np.empty_like(state)
    for _ in range(n_steps):
        np.dot(propagator, state, out=buffer)
        buffer += drift
        state, buffer = buffer, state
    return state
