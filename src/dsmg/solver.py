"""Gradient-flow regularization with closed-form spectral evaluation.

The flow du/dt = -A*(A u - f_delta) is never integrated numerically for the
solution path: given A = U S V*, the state at time t and the residual norm

    psi(t) = ||A u(t) - f_delta||

have closed spectral forms, so picking the stopping time reduces to scalar
root finding. ``solve`` supports two stopping rules: the discrepancy
principle psi(t) = C * delta solved by Newton's method on log psi from
t = 0, one fused pass over the spectrum at t = 0 and one per iteration
(log psi is convex and decreasing, so the iterates rise monotonically to
the root), and the a priori time t = C / delta**gamma.
``_newton_on_log_psi`` is the package's one parameter search: the Tikhonov
baseline calls it too, and both feed it passes of the one residual kernel
``_norm_and_slope``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    IterationBudgetExceeded,
    UnattainableDiscrepancy,
)
from .linalg import SpectralFactorization, _adjoint_multiply, _frozen_array, _left_multiply

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
    def rhs_coefficients(self) -> np.ndarray:
        """U* f_delta."""
        out = _adjoint_multiply(self.factorization.u_basis, self.f_delta)
        out = np.array(out)
        out.setflags(write=False)
        return out

    @cached_property
    def _off_range_norm(self) -> float:
        """||f_delta - U U* f_delta||: the data no singular triplet reaches.

        It is 0 unless the system is tall, and it never decays.
        """
        fact = self.factorization
        if fact.shape[0] == len(fact.diag):
            return 0.0
        return _scaled_norm(self.f_delta - fact.u_basis @ self.rhs_coefficients)

    @cached_property
    def initial_residual_coefficients(self) -> np.ndarray:
        """U* (A u0 - f_delta), the residual of the start point in the U basis."""
        fact = self.factorization
        if np.count_nonzero(self.u0) == 0:
            out = -self.rhs_coefficients
        else:
            out = fact.diag * _adjoint_multiply(fact.v_basis, self.u0) - self.rhs_coefficients
        out = np.array(out)
        out.setflags(write=False)
        return out

    @cached_property
    def residual_floor(self) -> float:
        """inf_t psi(t): the residual on modes with zero eigenvalue and off range(U)."""
        stuck = self.factorization.eigenvalues == 0.0
        return _floor(self.initial_residual_coefficients[stuck], self._off_range_norm)


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

    u(t) = u0 + V [ expm1(-t L) V* u0 + diag(filter(lam_i, t)) conj(S) U* f_delta ]
    where L = diag(|s_i|^2): the part of u0 outside span(V) never moves. At
    t = 0 this is exactly u0.
    """
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t={t} must be nonnegative and finite")
    if t == 0.0:
        return np.array(problem.u0)
    fact = problem.factorization
    gains = evolution_filter(fact.eigenvalues, t)
    driven = gains * fact.diag.conj() * problem.rhs_coefficients
    if np.count_nonzero(problem.u0) == 0:
        return _left_multiply(fact.v_basis, driven)
    start_coeffs = _adjoint_multiply(fact.v_basis, problem.u0)
    coeffs = np.expm1(-t * fact.eigenvalues) * start_coeffs + driven
    return problem.u0 + _left_multiply(fact.v_basis, coeffs)


def _scaled_norm(values: np.ndarray) -> float:
    """Euclidean norm with rescaling: accurate even when the squares underflow."""
    scale = float(np.max(np.abs(values), initial=0.0))
    if scale == 0.0:
        return 0.0
    return scale * float(np.linalg.norm(values / scale))


def _floor(stuck: np.ndarray, off_range: float) -> float:
    """Norm of the residual that never decays: zero-eigenvalue modes and off-range data."""
    return math.hypot(_scaled_norm(stuck), off_range)


def _norm_and_slope(damped: np.ndarray, rate: np.ndarray, off_range: float) -> tuple[float, float]:
    """psi = ||(damped, off_range)|| and psi' = -sum(rate * damped**2) / psi in one pass.

    This is the one residual kernel: each mode contributes its damped
    residual modulus and the rate at which the damping decays it, and
    ``off_range`` is the residual outside range(U), a mode that never
    decays. The moduli are rescaled by their maximum before squaring, so the
    squares underflow only where they are negligible. ``damped`` is
    overwritten. psi' is reported as 0 when psi itself is 0.
    """
    scale = max(float(damped.max(initial=0.0)), off_range)
    if scale == 0.0:
        return 0.0, 0.0
    damped /= scale
    damped *= damped
    norm = math.sqrt(float(damped.sum()) + (off_range / scale) ** 2)
    return scale * norm, -scale * float(np.dot(rate, damped)) / norm


def _residual_pass(problem: NoisyProblem, t: float) -> tuple[float, float]:
    """psi(t) and psi'(t) of the flow from one pass over the spectrum.

    The damping exp(-t*lam) is real, so only the moduli of the residual
    coefficients enter, and each decays at rate lam.
    """
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t={t} must be nonnegative and finite")
    lam = problem.factorization.eigenvalues
    damped = lam * -t
    np.exp(damped, out=damped)
    damped *= np.abs(problem.initial_residual_coefficients)
    return _norm_and_slope(damped, lam, problem._off_range_norm)


def discrepancy(problem: NoisyProblem, t: float) -> float:
    """Residual norm psi(t) = ||A u(t) - f_delta|| evaluated spectrally.

    Modes with zero eigenvalue and the data outside range(U) keep their
    initial residual forever, so psi decreases monotonically from
    ||A u0 - f_delta|| to the residual floor as t grows.
    """
    return _residual_pass(problem, t)[0]


def _newton_on_log_psi(residual_pass, target: float, floor: float) -> NewtonResult:
    """Solve psi(t) = target for t > 0 by Newton's method on log psi from t = 0.

    t is the flow time for the gradient flow and beta = 1 / alpha for
    Tikhonov. ``residual_pass(t)`` returns psi(t) and psi'(t) from one pass over the
    spectrum, and ``floor`` is inf psi. log psi must be convex and
    decreasing in t: then every Newton step from a point left of the root
    stays left of it, so the iterates rise monotonically. A step that
    rounding carries materially past the root is replaced by bisection
    between the last point above the target and the overshooting one.
    Returns the root, the iteration count, the rising trace of points above
    the target ending at the root, and psi at the root. If psi(0) already
    meets the target, the result is t = 0 after that one pass, with no
    iterations; this is the one place that decides it.
    """
    t = 0.0
    psi, dpsi = residual_pass(t)
    if psi <= target:
        return NewtonResult(t, 0, (t,), psi)
    if floor >= target:
        raise UnattainableDiscrepancy(
            f"residual floor {floor:.6e} >= C*delta = {target:.6e}; "
            "C is too small or delta understates the noise"
        )
    tol = NEWTON_TOL_REL * target
    upper = math.inf
    iterates = []
    iterations = 0
    # negated so that a NaN psi enters the loop and is rejected there
    while not abs(psi - target) <= tol:
        if not math.isfinite(psi):
            raise DomainError(f"residual norm {psi} at t={t:.6e} overflows double precision")
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
        psi, dpsi = residual_pass(t)
    iterates.append(t)
    return NewtonResult(t, iterations, tuple(iterates), psi)


def solve(problem: NoisyProblem, rule: StoppingRule) -> SolveReport:
    """Run the flow to the stopping time chosen by ``rule``.

    Discrepancy branch: the stopping time solves psi(t) = C * delta by
    Newton's method on log psi from t = 0. log psi(t) = 1/2 log sum_i
    exp(-2 t lam_i) |r_i|^2 is a log-sum-exp of affine functions of t, hence
    convex and decreasing, so the iterates rise monotonically to the root;
    on a single mode the first step is exact. If the start point already
    satisfies ||A u0 - f_delta|| <= C * delta, the report returns u0 at
    t = 0 with a diagnostic flag.
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
    newton = _newton_on_log_psi(
        lambda t: _residual_pass(problem, t), target, problem.residual_floor
    )
    at_start = newton.iterations == 0 and newton.residual_norm <= target
    return SolveReport(
        t_delta=newton.t_delta,
        solution=solution_at(problem, newton.t_delta),
        residual_norm=newton.residual_norm,
        newton_iterations=newton.iterations,
        rule_used=rule,
        diagnostics=(FLAG_DISCREPANCY_AT_START,) if at_start else (),
    )
