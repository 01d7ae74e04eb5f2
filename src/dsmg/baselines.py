"""Variational (Tikhonov) regularization baseline with discrepancy-chosen alpha.

It runs on the spectral core of ``solver`` with the second damping law: with
beta = 1 / alpha, mode i keeps 1 / (1 + lam_i beta) of |r_i|, r = U* (f_delta -
A u0), and decays at rate lam_i / (1 + lam_i beta). log psi_vr(beta) =
1/2 log sum_i exp(-2 log(1 + lam_i beta)) |r_i|^2 is a log-sum-exp of convex
functions of beta, hence convex, and it is decreasing, so beta is found by
the flow's Newton search on log psi from beta = 0, and the solution is the
flow's synthesis with the gains conj(s_i) / (lam_i + alpha).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionViolated
from .linalg import _require_positive
from .solver import DiscrepancyRule, NoisyProblem, _newton_on_log_psi, _norm_and_slope, _synthesis


@dataclass(frozen=True, eq=False)
class VRReport:
    """Outcome of one Tikhonov solve."""

    alpha: float
    solution: np.ndarray
    residual_norm: float
    newton_iterations: int


def _vr_residual(problem: NoisyProblem, beta: float) -> tuple[float, float]:
    """psi_vr(beta) and d psi_vr / d beta from one pass over the spectrum.

    Mode i keeps the fraction 1 / (1 + lam_i beta) of |r_i|, which decays at
    rate lam_i / (1 + lam_i beta).
    """
    lam = problem.factorization.eigenvalues
    damping = lam * beta
    damping += 1.0
    np.reciprocal(damping, out=damping)
    rate = damping * lam
    return _norm_and_slope(problem, damping, rate)


def tikhonov_solution(problem: NoisyProblem, alpha: float) -> np.ndarray:
    """u_alpha = u0 + (A*A + alpha I)^-1 A* (f_delta - A u0): it regularizes toward u0."""
    _require_positive(alpha, "alpha")
    fact = problem.factorization
    return _synthesis(problem, fact.diag.conj() / (fact.eigenvalues + alpha))


def vr_solve(problem: NoisyProblem, rule: DiscrepancyRule) -> VRReport:
    """Pick alpha so the Tikhonov residual equals C * delta, then solve.

    ``rule`` is the flow's own DiscrepancyRule, so both methods stop by one
    admitted C; any other rule raises DomainError. Tikhonov regularizes
    toward the start point u0 of the problem, as the flow starts from it.
    Raises UnattainableDiscrepancy when even alpha -> 0 cannot push the
    residual below the target, and PreconditionViolated when
    ||A u0 - f_delta|| is at, below or within the search tolerance of it.
    """
    if not isinstance(rule, DiscrepancyRule):
        raise DomainError(f"Tikhonov stops only by a DiscrepancyRule, not {rule!r}")
    search = _newton_on_log_psi(problem, _vr_residual, rule.C * problem.delta)
    # the search stops at beta = 0 when ||A u0 - f_delta|| is at, below or
    # within its tolerance of the target
    if search.t_delta == 0.0:
        raise PreconditionViolated("||A u0 - f_delta|| meets C*delta; only alpha -> inf fits")
    alpha = 1.0 / search.t_delta
    return VRReport(
        alpha=alpha,
        solution=tikhonov_solution(problem, alpha),
        residual_norm=search.residual_norm,
        newton_iterations=search.iterations,
    )
