"""Variational (Tikhonov) regularization baseline with discrepancy-chosen alpha.

Implemented spectrally on the same factorization as the gradient-flow solver,
so parameter-search effort is directly comparable: the filter is
conj(s_i) / (|s_i|^2 + alpha) and, with beta = 1 / alpha, the residual norm is

    psi_vr(beta) = || diag(1 / (1 + |s_i|^2 beta)) U* f_delta ||.

log psi_vr(beta) = 1/2 log sum_i exp(-2 log(1 + lam_i beta)) |b_i|^2 is a
log-sum-exp of convex functions of beta, hence convex, and it is
decreasing, so beta is found by the gradient-flow solver's Newton search on
log psi from beta = 0, over passes of the same residual kernel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionViolated
from .linalg import _left_multiply
from .solver import NoisyProblem, _floor, _newton_on_log_psi, _norm_and_slope


@dataclass(frozen=True)
class VRReport:
    """Outcome of one Tikhonov solve."""

    alpha: float
    solution: np.ndarray
    residual_norm: float
    newton_iterations: int


def _vr_residual(problem: NoisyProblem, beta: float) -> tuple[float, float]:
    """psi_vr(beta) and d psi_vr / d beta from one pass over the spectrum.

    Mode i keeps the fraction gain_i = 1 / (1 + lam_i beta) of |b_i|, which
    decays at rate lam_i gain_i.
    """
    lam = problem.factorization.eigenvalues
    gain = lam * beta
    gain += 1.0
    np.reciprocal(gain, out=gain)
    damped = gain * np.abs(problem.rhs_coefficients)
    gain *= lam
    return _norm_and_slope(damped, gain, problem._off_range_norm)


def tikhonov_solution(problem: NoisyProblem, alpha: float) -> np.ndarray:
    """u_alpha = V diag(conj(s_i) / (|s_i|^2 + alpha)) U* f_delta."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha={alpha} must be positive and finite")
    fact = problem.factorization
    gains = fact.diag.conj() / (fact.eigenvalues + alpha)
    return _left_multiply(fact.v_basis, gains * problem.rhs_coefficients)


def vr_solve(problem: NoisyProblem, C: float) -> VRReport:
    """Pick alpha so the Tikhonov residual equals C * delta, then solve.

    The start point u0 of the problem is ignored; Tikhonov regularizes from
    zero. Raises UnattainableDiscrepancy when even alpha -> 0 cannot push
    the residual below the target, and PreconditionViolated when
    ||f_delta|| is at, below or within the search tolerance of it.
    """
    if not (np.isfinite(C) and C > 0):
        raise DomainError(f"C={C} must be positive and finite")
    stuck = problem.factorization.eigenvalues == 0.0
    floor = _floor(problem.rhs_coefficients[stuck], problem._off_range_norm)
    search = _newton_on_log_psi(
        lambda beta: _vr_residual(problem, beta), C * problem.delta, floor
    )
    if search.t_delta == 0.0:
        raise PreconditionViolated("||f_delta|| meets C*delta; only alpha -> inf fits")
    alpha = 1.0 / search.t_delta
    return VRReport(
        alpha=alpha,
        solution=tikhonov_solution(problem, alpha),
        residual_norm=search.residual_norm,
        newton_iterations=search.iterations,
    )
