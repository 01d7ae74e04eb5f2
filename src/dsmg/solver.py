"""One spectral core for gradient-flow and Tikhonov regularization.

Given A = U S V* and lam_i = |s_i|^2, a ``NoisyProblem`` caches the start
residual r0 = U* (f_delta - A u0), its moduli ``residual_weights`` and the
``residual_floor``. Both methods are spectral filters (Engl, Hanke &
Neubauer, 1996, ch. 4) with one damping law each: the flow du/dt =
-A*(A u - f_delta) keeps exp(-t lam_i) of mode i, decaying at rate lam_i in
t; Tikhonov keeps 1 / (1 + beta lam_i), decaying at rate lam_i / (1 + beta
lam_i) in beta = 1 / alpha. So psi = ||A u - f_delta|| and psi' come from
one kernel, ``_norm_and_slope``, the state from one synthesis
u = u0 + V (gains * r0), and the parameter from one Newton search on the
convex, decreasing log psi from 0, ``_newton_on_log_psi``: one pass at 0 and
one per iteration. ``solve`` also offers the a priori time t = C / delta**gamma.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    IterationBudgetExceeded,
    UnattainableDiscrepancy,
)
from .linalg import (
    SpectralFactorization, _adjoint_multiply, _admitted, _left_multiply, _require_positive,
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
        _require_positive(self.C, "a priori constant C")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"a priori exponent gamma={self.gamma} must lie in (0, 1)")


StoppingRule = DiscrepancyRule | AprioriRule


@dataclass(frozen=True, eq=False)
class NoisyProblem:
    """A factorized operator, noisy right-hand side, noise bound and start point.

    ``delta`` bounds the data error ||f_delta - f|| in the same norm as
    ``f_delta``. ``u0`` defaults to the zero vector; both regularizers start
    from it. Every all-zero start is stored as a real zero vector, so it
    solves exactly as the default does.
    """

    factorization: SpectralFactorization
    f_delta: np.ndarray
    delta: float
    u0: np.ndarray | None = None

    def __post_init__(self):
        m, n = self.factorization.shape
        object.__setattr__(self, "f_delta", _admitted(self.f_delta, "f_delta", (m,)))
        _require_positive(self.delta, "delta")
        start = _admitted(np.zeros(n) if self.u0 is None else self.u0, "u0", (n,))
        object.__setattr__(self, "u0", start if start.any() else start.real)

    @cached_property
    def rhs_coefficients(self) -> np.ndarray:
        """U* f_delta: the frozen f_delta itself for an identity U, else a fresh product."""
        out = _adjoint_multiply(self.factorization.u_basis, self.f_delta)
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
        return _scaled_norm(self.f_delta - _left_multiply(fact.u_basis, self.rhs_coefficients))

    @cached_property
    def initial_residual_coefficients(self) -> np.ndarray:
        """r0 = U* (f_delta - A u0), the residual of the start point in the U basis.

        At a zero start it is ``rhs_coefficients`` itself, so no copy is kept.
        """
        if not self.u0.any():
            return self.rhs_coefficients
        fact = self.factorization
        out = self.rhs_coefficients - fact.diag * _adjoint_multiply(fact.v_basis, self.u0)
        out.setflags(write=False)
        return out

    @cached_property
    def residual_weights(self) -> np.ndarray:
        """|r0|: the moduli that every residual pass damps, computed once."""
        out = np.abs(self.initial_residual_coefficients)
        out.setflags(write=False)
        return out

    @cached_property
    def residual_floor(self) -> float:
        """inf psi of both methods: r0 = U* f_delta on zero eigenvalues, and off range(U)."""
        stuck = self.factorization.eigenvalues == 0.0
        return math.hypot(_scaled_norm(self.residual_weights[stuck]), self._off_range_norm)


class NewtonResult(NamedTuple):
    t_delta: float
    iterations: int
    iterates: tuple
    residual_norm: float


@dataclass(frozen=True, eq=False)
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
    # negated, so that NaN is rejected too
    if not np.all(lam_arr >= 0):
        raise DomainError("eigenvalues must be nonnegative")
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t={t} must be nonnegative and finite")
    gains = np.full(lam_arr.shape, t, dtype=float)
    np.divide(-np.expm1(-t * lam_arr), lam_arr, out=gains, where=lam_arr > 0)
    # subnormal t*lam can round the quotient above the exact bound t
    np.minimum(gains, t, out=gains)
    if np.isscalar(lam) or lam_arr.ndim == 0:
        return float(gains)
    return gains


def _synthesis(problem: NoisyProblem, gains: np.ndarray) -> np.ndarray:
    """u = u0 + V (gains * r0), the state of either method; u0 outside span(V) never moves.

    ``gains`` must be fresh: the step overwrites it when r0's dtype casts to it."""
    r0 = problem.initial_residual_coefficients
    step = np.multiply(gains, r0, out=gains) if np.can_cast(r0.dtype, gains.dtype) else gains * r0
    out = _left_multiply(problem.factorization.v_basis, step)
    out += problem.u0
    return out


def solution_at(problem: NoisyProblem, t: float) -> np.ndarray:
    """Evaluate the flow state u(t) in closed form.

    u(t) = u0 + V diag(filter(lam_i, t) conj(s_i)) U* (f_delta - A u0), with
    the filter of ``evolution_filter``; at t = 0 the filter vanishes and
    u(0) = u0.
    """
    fact = problem.factorization
    return _synthesis(problem, evolution_filter(fact.eigenvalues, t) * fact.diag.conj())


def _scaled_norm(values: np.ndarray) -> float:
    """Euclidean norm with rescaling: accurate even when the squares underflow."""
    scale = float(np.max(np.abs(values), initial=0.0))
    if scale == 0.0:
        return 0.0
    return scale * float(np.linalg.norm(values / scale))


def _norm_and_slope(problem: NoisyProblem, damping, rate) -> tuple[float, float]:
    """psi and psi' of a residual whose mode i keeps the fraction damping_i of |r0_i|.

    The one residual kernel: both damping laws are real, so only the
    ``residual_weights`` enter; mode i decays at ``rate_i``, and the data off
    range(U) never decays. With d the damped weights, psi = ||(d, off_range)||
    and psi' = -sum(rate * d**2) / psi. d is rescaled by its maximum before
    squaring, so the squares underflow only where they are negligible.
    ``damping`` is overwritten. psi' is reported as 0 when psi itself is 0.
    """
    damping *= problem.residual_weights
    off_range = problem._off_range_norm
    scale = max(float(damping.max(initial=0.0)), off_range)
    if scale == 0.0:
        return 0.0, 0.0
    damping /= scale
    damping *= damping
    norm = math.sqrt(float(damping.sum()) + (off_range / scale) ** 2)
    return scale * norm, -scale * float(np.dot(rate, damping)) / norm


def _residual_pass(problem: NoisyProblem, t: float) -> tuple[float, float]:
    """psi(t) and psi'(t) of the flow: mode i keeps exp(-t*lam_i), at rate lam_i."""
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t={t} must be nonnegative and finite")
    lam = problem.factorization.eigenvalues
    damping = lam * -t
    np.exp(damping, out=damping)
    return _norm_and_slope(problem, damping, lam)


def discrepancy(problem: NoisyProblem, t: float) -> float:
    """Residual norm psi(t) = ||A u(t) - f_delta|| evaluated spectrally.

    Modes with zero eigenvalue and the data outside range(U) keep their
    initial residual forever, so psi decreases monotonically from
    ||A u0 - f_delta|| to the residual floor as t grows.
    """
    return _residual_pass(problem, t)[0]


def _newton_on_log_psi(problem: NoisyProblem, residual_pass, target: float) -> NewtonResult:
    """Solve psi(t) = target for t > 0 by Newton's method on log psi from t = 0.

    t is the flow time for the gradient flow and beta = 1 / alpha for
    Tikhonov. ``residual_pass(problem, t)`` returns psi(t) and psi'(t) from
    one pass over the spectrum, and inf psi is ``problem.residual_floor``.
    log psi must be convex and decreasing in t: then every Newton step from
    a point left of the root stays left of it, so the iterates rise
    monotonically. A step that rounding carries materially past the root is
    replaced by bisection between the last point above the target and the
    overshooting one.
    Returns the root, the iteration count, the rising trace of points above
    the target ending at the root, and psi at the root. If psi(0) already
    meets the target, the result is t = 0 after that one pass, with no
    iterations; this is the one place that decides it.
    """
    t = 0.0
    psi, dpsi = residual_pass(problem, t)
    if psi <= target:
        return NewtonResult(t, 0, (t,), psi)
    floor = problem.residual_floor
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
        psi, dpsi = residual_pass(problem, t)
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
    A priori branch: t = C / delta**gamma with no search; psi(t) is
    evaluated once for the report.
    """
    if isinstance(rule, AprioriRule):
        t_stop = rule.C / problem.delta ** rule.gamma
        psi, iterations, at_start = discrepancy(problem, t_stop), 0, False
    elif isinstance(rule, DiscrepancyRule):
        target = rule.C * problem.delta
        t_stop, iterations, _, psi = _newton_on_log_psi(problem, _residual_pass, target)
        at_start = iterations == 0 and psi <= target
    else:
        raise DomainError(f"unknown stopping rule {rule!r}")
    return SolveReport(
        t_delta=t_stop,
        solution=solution_at(problem, t_stop),
        residual_norm=psi,
        newton_iterations=iterations,
        rule_used=rule,
        diagnostics=(FLAG_DISCREPANCY_AT_START,) if at_start else (),
    )
