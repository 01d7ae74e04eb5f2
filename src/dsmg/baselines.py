"""Variational (Tikhonov) regularization baseline with discrepancy-chosen alpha.

It runs on the spectral core of ``solver`` with the second damping law: with
beta = 1 / alpha, mode i keeps 1 / (1 + lam_i beta) of |r_i|, r = U* (f_delta -
A u0), and decays at rate lam_i / (1 + lam_i beta). log psi_vr(beta) =
1/2 log sum_i exp(-2 log(1 + lam_i beta)) |r_i|^2 is a log-sum-exp of convex
functions of beta, hence convex, and decreasing: the flow's Newton search
finds beta from 0, its synthesis with the gains conj(s_i) / (lam_i + alpha)
gives the state, and its ``SolveReport`` holds beta as ``t_delta``.
"""

import numpy as np

from .errors import DomainError, PreconditionViolated
from .linalg import _require_positive
from .solver import (
    DiscrepancyRule, NoisyProblem, _newton_on_log_psi, _norm_and_slope, _outcomes, _synthesis,
)


def _vr_residual(problem: NoisyProblem, beta: np.ndarray):
    """psi_vr(beta) and d psi_vr / d beta of each row at its own entry of beta, from one pass.

    Mode i keeps the fraction 1 / (1 + lam_i beta) of |r_i|, which decays at
    rate lam_i / (1 + lam_i beta).
    """
    lam = problem.factorization.eigenvalues
    damping = lam * beta[:, None]
    damping += 1.0
    np.reciprocal(damping, out=damping)
    rate = damping * lam
    return _norm_and_slope(problem, damping, rate)


def tikhonov_solution(problem: NoisyProblem, alpha) -> np.ndarray:
    """u_alpha = u0 + (A*A + alpha I)^-1 A* (f_delta - A u0): it regularizes toward u0.

    ``alpha`` is one value for every row or one per row; the states are
    shaped as ``f_delta`` is.
    """
    _require_positive(alpha, "alpha")
    fact = problem.factorization
    gains = fact.diag.conj() / (fact.eigenvalues + problem._column(alpha, "alpha"))
    return _synthesis(problem, gains)


def vr_solve(problem: NoisyProblem, rule: DiscrepancyRule):
    """Pick alpha so the Tikhonov residual equals C * delta, then solve, on every row.

    ``rule`` is the flow's own DiscrepancyRule, so both methods stop by one
    admitted C; any other rule raises DomainError. Tikhonov regularizes
    toward the start point u0 of the problem, as the flow starts from it.
    A row raises UnattainableDiscrepancy when even alpha -> 0 cannot push
    its residual below the target, and PreconditionViolated when
    ||A u0 - f_delta|| is at, below or within the search tolerance of it.
    Returns a SolveReport for one right-hand side, and raises the row's
    error; for a stack, a tuple with one outcome per row, as ``solve`` does.
    The report's ``t_delta`` is beta, so alpha = 1 / t_delta; its
    ``rule_used`` is ``rule`` and it has no diagnostics.
    """
    if not isinstance(rule, DiscrepancyRule):
        raise DomainError(f"Tikhonov stops only by a DiscrepancyRule, not {rule!r}")
    target = rule.C * problem._per_row(problem.delta, "delta")
    search = _newton_on_log_psi(problem, _vr_residual, target)
    # the search stops at beta = 0 when ||A u0 - f_delta|| is at, below or
    # within its tolerance of the target
    failures = tuple(
        PreconditionViolated("||A u0 - f_delta|| meets C*delta; only alpha -> inf fits")
        if failure is None and beta == 0.0 else failure
        for failure, beta in zip(search.failures, search.t_delta.tolist())
    )
    # a failed row is synthesized at alpha = 1 with the others, and dropped
    alpha = 1.0 / np.where([failure is None for failure in failures], search.t_delta, 1.0)
    solutions = problem._stacked(tikhonov_solution(problem, alpha))
    unflagged = np.zeros(len(failures), dtype=bool)
    return _outcomes(problem, rule, search._replace(failures=failures), solutions, unflagged)
